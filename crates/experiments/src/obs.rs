//! `--trace` / `--metrics` wiring shared by the experiment binaries.
//!
//! Every binary accepts the same optional flags:
//!
//! * `--trace <path>` — write the run's event trace there as JSONL;
//! * `--metrics <path>` — write a Prometheus-text metrics snapshot;
//! * `--serve-metrics <port>` — serve the live snapshot over HTTP on
//!   `127.0.0.1:<port>` (`/metrics`, `/health`, `/snapshot`);
//! * `--serve-hold <secs>` — after the tables are printed, keep the
//!   metrics server up this long before exiting (for scrapes);
//! * `--phase-metrics` — include the wall-clock `wsu_phase_seconds`
//!   gauges in the snapshot. Off by default: wall-clock values differ
//!   run to run, so the default snapshot is deterministic.
//!
//! With no flag nothing is attached anywhere: the middleware keeps
//! its [`wsu_obs::NullRecorder`], the monitor records no metrics, and
//! stdout stays byte-identical to the unobserved run. Diagnostics about
//! the written files go to stderr so they never disturb the tables.

use std::fs;
use std::io;
use std::path::PathBuf;

use wsu_obs::{
    MetricsExporter, PhaseTimings, Recorder, SharedRecorder, SharedRegistry, TraceEvent,
};
use wsu_simcore::par::Jobs;

use crate::bayes_study::StudyRun;
use crate::midsim::ObsSinks;

/// The observability flags parsed from a binary's command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// Destination for the JSONL event trace, if requested.
    pub trace: Option<PathBuf>,
    /// Destination for the metrics snapshot, if requested.
    pub metrics: Option<PathBuf>,
    /// Loopback port for the live metrics server, if requested.
    pub serve: Option<u16>,
    /// Seconds to keep the metrics server up after the run.
    pub serve_hold: Option<f64>,
    /// Whether the wall-clock `wsu_phase_seconds` gauges are exported.
    pub phase_metrics: bool,
}

impl ObsOptions {
    /// Scans `args` for the observability flags.
    ///
    /// Unrelated arguments are left alone, so binaries keep their own
    /// flag handling untouched. A `--serve-metrics` value that is not a
    /// port number, or a `--serve-hold` value that is not a finite
    /// number, is an error, never a silent fallback.
    pub fn parse(args: &[String]) -> Result<ObsOptions, String> {
        fn raw_value_after<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
        }
        fn value_after(args: &[String], flag: &str) -> Option<PathBuf> {
            raw_value_after(args, flag).map(PathBuf::from)
        }
        fn parsed_after<T>(
            args: &[String],
            flag: &str,
            what: &str,
            parse: fn(&str) -> Option<T>,
        ) -> Result<Option<T>, String> {
            raw_value_after(args, flag)
                .map(|v| parse(v).ok_or_else(|| format!("{flag}: expected {what}, got {v:?}")))
                .transpose()
        }
        Ok(ObsOptions {
            trace: value_after(args, "--trace"),
            metrics: value_after(args, "--metrics"),
            serve: parsed_after(args, "--serve-metrics", "a port number", |v| v.parse().ok())?,
            serve_hold: parsed_after(args, "--serve-hold", "a number of seconds", |v| {
                v.parse().ok().filter(|secs: &f64| secs.is_finite())
            })?,
            phase_metrics: args.iter().any(|a| a == "--phase-metrics"),
        })
    }

    /// Parses the current process's arguments; a malformed value exits
    /// through [`exit_usage`] with `usage`.
    pub fn from_env(usage: &str) -> ObsOptions {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ObsOptions::parse(&args).unwrap_or_else(|e| exit_usage(usage, &e))
    }
}

/// The flags every experiment binary shares, as `(flag, takes a value)`:
/// `--jobs` and the observability flags.
pub const SHARED_FLAGS: [(&str, bool); 6] = [
    ("--jobs", true),
    ("--trace", true),
    ("--metrics", true),
    ("--serve-metrics", true),
    ("--serve-hold", true),
    ("--phase-metrics", false),
];

/// Checks that `args` holds only known flags: the binary's `own` flags
/// and [`SHARED_FLAGS`], each given as `(flag, takes a value)`. An
/// unknown flag, a stray positional argument or a valued flag without
/// its value is an error.
pub fn check_flags(args: &[String], own: &[(&str, bool)]) -> Result<(), String> {
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let known = own
            .iter()
            .chain(SHARED_FLAGS.iter())
            .find(|(f, _)| f == arg);
        match known {
            Some((_, false)) => {}
            Some((flag, true)) => {
                rest.next()
                    .ok_or_else(|| format!("{flag}: expected a value"))?;
            }
            None if arg.starts_with('-') => return Err(format!("unknown flag {arg:?}")),
            None => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    Ok(())
}

/// [`check_flags`] on the current process's arguments; a rejected
/// argument exits through [`exit_usage`] with `usage`.
pub fn check_flags_from_env(usage: &str, own: &[(&str, bool)]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, own).unwrap_or_else(|e| exit_usage(usage, &e));
}

/// Parses the shared `--jobs N` flag: `N` workers (`0` clamped to 1);
/// absent means one worker per available hardware thread. A missing or
/// non-numeric value is an error, never a silent fallback.
/// The worker count never changes any output — replications merge in
/// replication order regardless of which worker ran them.
pub fn jobs_from_args(args: &[String]) -> Result<Jobs, String> {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return Ok(Jobs::auto());
    };
    match args.get(i + 1).map(|v| v.parse::<usize>()) {
        Some(Ok(n)) => Ok(Jobs::new(n)),
        Some(Err(_)) => Err(format!(
            "--jobs: expected a worker count, got {:?}",
            args[i + 1]
        )),
        None => Err("--jobs: expected a worker count".to_owned()),
    }
}

/// [`jobs_from_args`] on the current process's arguments; a malformed
/// `--jobs` exits through [`exit_usage`] with `usage`.
pub fn jobs_from_env(usage: &str) -> Jobs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    jobs_from_args(&args).unwrap_or_else(|e| exit_usage(usage, &e))
}

/// Reports a command-line error and the binary's usage line on stderr
/// and exits with status 2.
pub fn exit_usage(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

impl ObsOptions {
    /// Builds the live context: one sink per requested output file, and
    /// a live HTTP exporter when `--serve-metrics` was given (which also
    /// implies a metrics registry, so there is something to serve).
    pub fn context(&self) -> ObsContext {
        let exporter = self.serve.map(|port| {
            let exporter =
                MetricsExporter::bind(&format!("127.0.0.1:{port}")).expect("bind metrics exporter");
            eprintln!("metrics: serving http://{}/metrics", exporter.local_addr());
            exporter
        });
        let metrics = (self.metrics.is_some() || exporter.is_some()).then(SharedRegistry::new);
        ObsContext {
            recorder: self.trace.as_ref().map(|_| SharedRecorder::new()),
            metrics,
            exporter,
            timings: PhaseTimings::new(),
            options: self.clone(),
        }
    }
}

/// Live observability sinks for one binary run.
#[derive(Debug)]
pub struct ObsContext {
    /// The shared trace recorder, present iff `--trace` was given.
    pub recorder: Option<SharedRecorder>,
    /// The shared metrics registry, present iff `--metrics` or
    /// `--serve-metrics` was given.
    pub metrics: Option<SharedRegistry>,
    exporter: Option<MetricsExporter>,
    timings: PhaseTimings,
    options: ObsOptions,
}

impl ObsContext {
    /// A context with no sinks (the no-flag default).
    pub fn disabled() -> ObsContext {
        ObsOptions::default().context()
    }

    /// `true` when at least one output was requested.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some() || self.metrics.is_some()
    }

    /// Publishes the registry's current rendering to the live exporter.
    /// A no-op without `--serve-metrics`. Call it whenever a progress
    /// milestone makes the registry worth scraping; [`finish`] publishes
    /// the final state either way.
    ///
    /// [`finish`]: ObsContext::finish
    pub fn publish(&self) {
        if let (Some(exporter), Some(metrics)) = (&self.exporter, &self.metrics) {
            exporter.publish_metrics(&metrics.render_snapshot());
        }
    }

    /// Publishes a JSON document on the exporter's `/snapshot` route. A
    /// no-op without `--serve-metrics`.
    pub fn publish_snapshot(&self, json: &str) {
        if let Some(exporter) = &self.exporter {
            exporter.publish_snapshot(json);
        }
    }

    /// Clones the sinks in the shape the simulation layer accepts.
    pub fn sinks(&self) -> ObsSinks {
        ObsSinks {
            recorder: self.recorder.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Runs `f`, timing it as `phase` when observability is on. The
    /// phase table lands in the metrics snapshot (`wsu_phase_seconds`)
    /// and, as a [`TraceEvent::Log`] line, in the trace.
    pub fn time<R>(&mut self, phase: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let result = self.timings.time(phase, f);
        if let Some(recorder) = &self.recorder {
            let elapsed = self
                .timings
                .entries()
                .last()
                .map(|(_, d)| d.as_secs_f64())
                .unwrap_or(0.0);
            recorder.clone().record(TraceEvent::Log {
                t: 0.0,
                demand: 0,
                level: "info".to_owned(),
                message: format!("phase {phase} finished in {elapsed:.3}s"),
            });
        }
        result
    }

    /// Replays a Bayesian study run into the sinks after the fact.
    ///
    /// The study has no middleware clock, so its natural time axis is
    /// the demand count: each checkpoint becomes three
    /// [`TraceEvent::ConfidenceUpdated`] events (one per switching
    /// criterion) at `t = demands`. The registry gets the final
    /// posterior percentiles and one criterion-evaluation count per
    /// checkpoint × criterion.
    pub fn record_study(&self, run: &StudyRun, tag: &str) {
        if let Some(recorder) = &self.recorder {
            let mut recorder = recorder.clone();
            for cp in &run.checkpoints {
                for (i, &met) in cp.criteria_met.iter().enumerate() {
                    recorder.record(TraceEvent::ConfidenceUpdated {
                        t: cp.demands as f64,
                        demand: cp.demands,
                        old_p99: cp.a_high,
                        new_p99: cp.b_high,
                        criterion: format!("criterion-{}", i + 1),
                        satisfied: met,
                    });
                }
            }
        }
        if let Some(metrics) = &self.metrics {
            for cp in &run.checkpoints {
                for &met in &cp.criteria_met {
                    let decision = if met { "switch" } else { "keep" };
                    metrics.inc_counter(
                        "wsu_criterion_evaluations_total",
                        &[("decision", decision), ("study", tag)],
                    );
                }
            }
            if let Some(last) = run.checkpoints.last() {
                metrics.set_gauge(
                    "wsu_posterior_p99",
                    &[("release", "old"), ("study", tag)],
                    last.a_high,
                );
                metrics.set_gauge(
                    "wsu_posterior_p99",
                    &[("release", "new"), ("study", tag)],
                    last.b_high,
                );
            }
        }
    }

    /// Writes the requested output files, publishes the final snapshot
    /// on the live exporter (holding it up for `--serve-hold` seconds)
    /// and reports everything on stderr.
    ///
    /// Parent directories are created as needed. Call this once, after
    /// the binary has printed its tables.
    ///
    /// The wall-clock phase gauges (`wsu_phase_seconds`) are only
    /// exported under `--phase-metrics`: they measure this run's real
    /// elapsed time, so including them by default would make otherwise
    /// deterministic snapshots differ run to run.
    pub fn finish(self) -> io::Result<()> {
        if let (Some(recorder), Some(path)) = (&self.recorder, &self.options.trace) {
            recorder.write_jsonl(path)?;
            eprintln!("trace: {} events -> {}", recorder.len(), path.display());
        }
        if let Some(metrics) = &self.metrics {
            if self.options.phase_metrics {
                self.timings.export(metrics);
            }
            let rendered = metrics.render_snapshot();
            if let Some(path) = &self.options.metrics {
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        fs::create_dir_all(dir)?;
                    }
                }
                fs::write(path, &rendered)?;
                eprintln!("metrics: snapshot -> {}", path.display());
            }
            if let Some(exporter) = &self.exporter {
                exporter.publish_metrics(&rendered);
                if let Some(hold) = self.options.serve_hold {
                    eprintln!(
                        "metrics: holding http://{}/metrics for {hold}s",
                        exporter.local_addr()
                    );
                    std::thread::sleep(std::time::Duration::from_secs_f64(hold.max(0.0)));
                }
            }
        }
        if let Some(exporter) = self.exporter {
            exporter.shutdown();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn jobs_flag_parses_strictly() {
        assert_eq!(jobs_from_args(&strs(&["--quick"])), Ok(Jobs::auto()));
        assert_eq!(
            jobs_from_args(&strs(&["--jobs", "3", "--quick"])),
            Ok(Jobs::new(3))
        );
        assert_eq!(jobs_from_args(&strs(&["--jobs", "0"])), Ok(Jobs::serial()));
        for bad in [&["--jobs", "abc"][..], &["--jobs", "-1"], &["--jobs"]] {
            let err = jobs_from_args(&strs(bad)).expect_err("malformed --jobs");
            assert!(err.starts_with("--jobs: expected a worker count"), "{err}");
        }
    }

    #[test]
    fn parses_both_flags_anywhere() {
        let args = strs(&["--quick", "--trace", "t.jsonl", "--metrics", "m.prom"]);
        let opts = ObsOptions::parse(&args).unwrap();
        assert_eq!(opts.trace, Some(PathBuf::from("t.jsonl")));
        assert_eq!(opts.metrics, Some(PathBuf::from("m.prom")));
    }

    #[test]
    fn missing_flags_disable_everything() {
        let opts = ObsOptions::parse(&strs(&["--quick"])).unwrap();
        assert_eq!(opts, ObsOptions::default());
        let ctx = opts.context();
        assert!(!ctx.enabled());
        assert!(ctx.sinks().recorder.is_none());
        assert!(ctx.sinks().metrics.is_none());
    }

    #[test]
    fn flag_without_value_is_ignored() {
        let opts = ObsOptions::parse(&strs(&["--trace"])).unwrap();
        assert_eq!(opts.trace, None);
        let opts = ObsOptions::parse(&strs(&["--serve-metrics"])).unwrap();
        assert_eq!(opts.serve, None);
    }

    #[test]
    fn non_numeric_serve_values_are_errors() {
        let err = ObsOptions::parse(&strs(&["--serve-metrics", "not-a-port"]))
            .expect_err("non-numeric port");
        assert_eq!(
            err,
            "--serve-metrics: expected a port number, got \"not-a-port\""
        );
        for bad in [
            &["--serve-metrics", "70000"][..],
            &["--serve-metrics", "-1"],
            &["--serve-hold", "inf"],
            &["--serve-hold", "NaN"],
        ] {
            assert!(ObsOptions::parse(&strs(bad)).is_err(), "{bad:?}");
        }
        let err = ObsOptions::parse(&strs(&["--serve-hold", "soon"])).expect_err("bad hold");
        assert!(
            err.starts_with("--serve-hold: expected a number of seconds"),
            "{err}"
        );
    }

    #[test]
    fn check_flags_accepts_own_and_shared_flags_only() {
        let own = [("--quick", false), ("--cell", true)];
        let ok = strs(&[
            "--quick",
            "--cell",
            "canary",
            "--jobs",
            "2",
            "--trace",
            "t.jsonl",
            "--phase-metrics",
        ]);
        assert_eq!(check_flags(&ok, &own), Ok(()));
        assert_eq!(check_flags(&[], &own), Ok(()));
        let err = check_flags(&strs(&["--quick", "--shards", "2"]), &own).unwrap_err();
        assert_eq!(err, "unknown flag \"--shards\"");
        let err = check_flags(&strs(&["--quick", "extra"]), &own).unwrap_err();
        assert_eq!(err, "unexpected argument \"extra\"");
        let err = check_flags(&strs(&["--cell"]), &own).unwrap_err();
        assert_eq!(err, "--cell: expected a value");
        // A valued flag consumes the next argument even if it looks
        // like a flag, so `--trace --quick` writes to a file named
        // `--quick`, as `ObsOptions::parse` reads it.
        assert_eq!(check_flags(&strs(&["--trace", "--quick"]), &own), Ok(()));
    }

    #[test]
    fn parses_serve_and_phase_flags() {
        let args = strs(&[
            "--serve-metrics",
            "9184",
            "--serve-hold",
            "2.5",
            "--phase-metrics",
        ]);
        let opts = ObsOptions::parse(&args).unwrap();
        assert_eq!(opts.serve, Some(9184));
        assert_eq!(opts.serve_hold, Some(2.5));
        assert!(opts.phase_metrics);
    }

    #[test]
    fn serving_implies_a_registry_and_serves_its_rendering() {
        let opts = ObsOptions {
            serve: Some(0), // ephemeral port
            ..ObsOptions::default()
        };
        let ctx = opts.context();
        assert!(ctx.enabled());
        let metrics = ctx.metrics.clone().expect("serve implies a registry");
        metrics.inc_counter("wsu_demands_total", &[]);
        ctx.publish();
        ctx.publish_snapshot("{\"ok\":true}");
        let addr = ctx.exporter.as_ref().unwrap().local_addr();
        let resp = wsu_obs::http_get(addr, "/metrics").expect("GET /metrics");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, metrics.render_snapshot());
        let resp = wsu_obs::http_get(addr, "/snapshot").expect("GET /snapshot");
        assert_eq!(resp.body, "{\"ok\":true}");
        ctx.finish().expect("finish without output files");
    }

    #[test]
    fn timing_is_a_passthrough_when_disabled() {
        let mut ctx = ObsContext::disabled();
        assert_eq!(ctx.time("phase", || 7), 7);
    }

    #[test]
    fn timing_records_a_log_event_when_tracing() {
        let opts = ObsOptions {
            trace: Some(PathBuf::from("unused.jsonl")),
            ..ObsOptions::default()
        };
        let mut ctx = opts.context();
        assert_eq!(ctx.time("simulate", || 7), 7);
        let events = ctx.recorder.as_ref().unwrap().snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), "Log");
    }
}
