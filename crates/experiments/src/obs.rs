//! `--trace` / `--metrics` wiring shared by the experiment binaries.
//!
//! Every experiment binary declares the same optional flags
//! ([`OBS_FLAGS`]):
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
use std::time::Duration;

use wsu_obs::{
    MetricsExporter, PhaseTimings, Recorder, SharedRecorder, SharedRegistry, TraceEvent,
};

use crate::bayes_study::StudyRun;
use crate::cli::{Args, Flag, Kind};
use crate::midsim::ObsSinks;

/// The observability flags every experiment binary declares.
pub const OBS_FLAGS: [Flag; 5] = [
    Flag::new("--trace", Kind::Path, "a JSONL trace path"),
    Flag::new("--metrics", Kind::Path, "a metrics snapshot path"),
    Flag::new("--serve-metrics", Kind::Port, "a port number"),
    Flag::new("--serve-hold", Kind::Seconds, "a number of seconds"),
    Flag::new("--phase-metrics", Kind::Switch, "export phase gauges"),
];

/// The observability flags of one command line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// Destination for the JSONL event trace, if requested.
    pub trace: Option<PathBuf>,
    /// Destination for the metrics snapshot, if requested.
    pub metrics: Option<PathBuf>,
    /// Loopback port for the live metrics server, if requested.
    pub serve: Option<u16>,
    /// How long to keep the metrics server up after the run.
    pub serve_hold: Option<Duration>,
    /// Whether the wall-clock `wsu_phase_seconds` gauges are exported.
    pub phase_metrics: bool,
}

impl ObsOptions {
    /// Reads the [`OBS_FLAGS`] from arguments parsed against them.
    pub fn from_args(args: &Args) -> ObsOptions {
        ObsOptions {
            trace: args.get("--trace"),
            metrics: args.get("--metrics"),
            serve: args.get("--serve-metrics"),
            serve_hold: args.seconds("--serve-hold"),
            phase_metrics: args.switch("--phase-metrics"),
        }
    }
}

/// Keeps the `entries` named in `wanted` (the values of the repeatable
/// `flag`), in `entries` order; with no name wanted, keeps them all. A
/// name that matches no entry is an error listing the available names,
/// so a typo never silently shrinks the run.
pub fn select_named<T>(
    wanted: &[&str],
    flag: &str,
    mut entries: Vec<T>,
    name: impl Fn(&T) -> &str,
) -> Result<Vec<T>, String> {
    if wanted.is_empty() {
        return Ok(entries);
    }
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !entries.iter().any(|e| name(e) == **w))
    {
        let available: Vec<&str> = entries.iter().map(&name).collect();
        return Err(format!(
            "{flag}: unknown name {unknown:?}; available: {}",
            available.join(", ")
        ));
    }
    entries.retain(|e| wanted.contains(&name(e)));
    Ok(entries)
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
    /// `true` when at least one output was requested.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some() || self.metrics.is_some()
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
                        "metrics: holding http://{}/metrics for {}s",
                        exporter.local_addr(),
                        hold.as_secs_f64()
                    );
                    std::thread::sleep(hold);
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
    use crate::cli::Cli;

    fn parse(args: &[&str]) -> Result<ObsOptions, String> {
        let cli = Cli::new(
            "obs",
            &[&[Flag::new("--quick", Kind::Switch, "")], &OBS_FLAGS],
        );
        cli.parse(args).map(|args| ObsOptions::from_args(&args))
    }

    #[test]
    fn parses_both_flags_anywhere() {
        let opts = parse(&["--quick", "--trace", "t.jsonl", "--metrics", "m.prom"]).unwrap();
        assert_eq!(opts.trace, Some(PathBuf::from("t.jsonl")));
        assert_eq!(opts.metrics, Some(PathBuf::from("m.prom")));
    }

    #[test]
    fn missing_flags_disable_everything() {
        let opts = parse(&["--quick"]).unwrap();
        assert_eq!(opts, ObsOptions::default());
        let ctx = opts.context();
        assert!(!ctx.enabled());
        assert!(ctx.sinks().recorder.is_none());
        assert!(ctx.sinks().metrics.is_none());
    }

    #[test]
    fn non_numeric_serve_values_are_errors() {
        let err = parse(&["--serve-metrics", "not-a-port"]).expect_err("non-numeric port");
        assert_eq!(
            err,
            "--serve-metrics: expected a port number, got \"not-a-port\""
        );
        for bad in [
            &["--serve-metrics", "70000"][..],
            &["--serve-metrics", "-1"],
            &["--serve-hold", "inf"],
            &["--serve-hold", "NaN"],
            &["--serve-hold", "-1"],
            &["--serve-hold", "1e30"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let err = parse(&["--serve-hold", "soon"]).expect_err("bad hold");
        assert!(
            err.starts_with("--serve-hold: expected a number of seconds"),
            "{err}"
        );
    }

    #[test]
    fn select_named_rejects_any_unknown_name() {
        let names = || vec!["a", "b", "c"];
        let pick = |wanted: &[&str]| select_named(wanted, "--plan", names(), |n| n);
        assert_eq!(pick(&[]), Ok(names()));
        assert_eq!(pick(&["c", "a"]), Ok(vec!["a", "c"]));
        for bad in [&["x"][..], &["a", "x"]] {
            let err = pick(bad).expect_err("unknown name");
            assert_eq!(err, "--plan: unknown name \"x\"; available: a, b, c");
        }
    }

    #[test]
    fn parses_serve_and_phase_flags() {
        let opts = parse(&[
            "--serve-metrics",
            "9184",
            "--serve-hold",
            "2.5",
            "--phase-metrics",
        ])
        .unwrap();
        assert_eq!(opts.serve, Some(9184));
        assert_eq!(opts.serve_hold, Some(Duration::from_millis(2500)));
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
        let exporter = ctx.exporter.as_ref().unwrap();
        exporter.publish_metrics(&metrics.render_snapshot());
        ctx.publish_snapshot("{\"ok\":true}");
        let addr = exporter.local_addr();
        let resp = wsu_obs::http_get(addr, "/metrics").expect("GET /metrics");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, metrics.render_snapshot());
        let resp = wsu_obs::http_get(addr, "/snapshot").expect("GET /snapshot");
        assert_eq!(resp.body, "{\"ok\":true}");
        ctx.finish().expect("finish without output files");
    }

    #[test]
    fn timing_is_a_passthrough_when_disabled() {
        let mut ctx = ObsOptions::default().context();
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
