//! Benchmark crate with a self-contained measurement harness.
//!
//! Each paper table/figure has a bench that regenerates it at reduced
//! scale (so `cargo bench` terminates quickly) and prints the same rows
//! the experiment binaries do at full scale. Micro-benchmarks cover the
//! middleware hot path, the Bayesian posterior update, the simulation
//! engine and the observability layer.
//!
//! The harness in this module mirrors the subset of the `criterion` API
//! the benches use ([`Criterion`], [`BenchmarkGroup`], [`Bencher`],
//! [`BenchmarkId`], [`criterion_group!`]/[`criterion_main!`]), so the
//! bench sources read like ordinary criterion benches while the crate
//! stays dependency-free (the container building this workspace has no
//! registry access). Timing is median-of-samples over auto-calibrated
//! iteration batches; results print as `name  median  (min .. max)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Formats a duration the way the reports print it.
fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

/// Identifier for a parameterised benchmark, compatible with
/// `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` id.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            label: format!("{function}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Per-benchmark timing loop handed to the closure, compatible with
/// `criterion::Bencher`.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    measurements: Vec<Duration>,
}

impl Bencher {
    fn new(samples: usize) -> Self {
        Self {
            samples,
            measurements: Vec::new(),
        }
    }

    /// Times `routine`, first calibrating how many iterations fit in a
    /// sample, then collecting `samples` timed batches.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: grow the batch until one batch takes >= 1 ms (or a
        // hard cap is hit, for very slow routines).
        let target = Duration::from_millis(1);
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(200) {
                // A single batch is already expensive: keep the sample
                // count low so slow benches still terminate quickly.
                self.measurements
                    .push(elapsed / u32::try_from(iters).unwrap_or(u32::MAX));
                for _ in 1..self.samples.min(3) {
                    let start = Instant::now();
                    for _ in 0..iters {
                        std::hint::black_box(routine());
                    }
                    self.measurements
                        .push(start.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX));
                }
                return;
            }
            if elapsed >= target || iters >= 1 << 20 {
                break;
            }
            iters = iters.saturating_mul(2);
        }
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            self.measurements
                .push(start.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX));
        }
    }
}

/// A named group of benchmarks, compatible with
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let sample_size = self.sample_size;
        self.criterion.run_one(&full, sample_size, |b| f(b));
        self
    }

    /// Runs a benchmark that takes an input by reference.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        let sample_size = self.sample_size;
        self.criterion.run_one(&full, sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API parity; output is printed as each
    /// benchmark completes).
    pub fn finish(&mut self) {}
}

/// The top-level harness state, compatible with `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<(String, Duration, Duration, Duration)>,
}

impl Criterion {
    /// Default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Runs a stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: impl fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(&name.to_string(), 10, |b| f(b));
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&mut self, name: &str, samples: usize, mut f: F) {
        let mut bencher = Bencher::new(samples);
        f(&mut bencher);
        let mut m = bencher.measurements;
        if m.is_empty() {
            m.push(Duration::ZERO);
        }
        m.sort();
        let median = m[m.len() / 2];
        let min = m[0];
        let max = m[m.len() - 1];
        println!(
            "{name:<60} {:>12}   ({} .. {})",
            fmt_duration(median),
            fmt_duration(min),
            fmt_duration(max)
        );
        self.results.push((name.to_string(), median, min, max));
    }

    /// Median timings collected so far, as `(name, median)` pairs.
    pub fn medians(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.results.iter().map(|(n, med, _, _)| (n.as_str(), *med))
    }

    /// Full results collected so far, as `(name, median, min, max)`.
    pub fn results(&self) -> impl Iterator<Item = (&str, Duration, Duration, Duration)> {
        self.results
            .iter()
            .map(|(n, med, min, max)| (n.as_str(), *med, *min, *max))
    }
}

/// Machine-readable benchmark reports (the `BENCH_*.json` files).
///
/// The format is deliberately small and dependency-free:
///
/// ```json
/// {
///   "schema": "wsu-bench/1",
///   "bench": "BENCH_bayes",
///   "unit": "ns",
///   "machine": "2 x Intel(R) Xeon(R) Processor @ 2.30GHz",
///   "results": [
///     { "name": "bayes/incremental/checkpoint", "median_ns": 1234,
///       "min_ns": 1200, "max_ns": 1300 }
///   ]
/// }
/// ```
///
/// `median_ns` is the median ns/op (micro-benchmarks) or the median wall
/// time of a whole run (experiment trajectories); `min_ns`/`max_ns` bound
/// the observed samples. `machine` is the recording host's fingerprint
/// (hardware threads and CPU model, see [`report::machine_fingerprint`]),
/// so a reader can tell a comparison across machines from a regression.
pub mod report {
    use std::path::Path;
    use std::time::Duration;

    /// One named measurement destined for a `BENCH_*.json` file.
    #[derive(Debug, Clone)]
    pub struct Entry {
        /// Benchmark name (e.g. `bayes/incremental/checkpoint`).
        pub name: String,
        /// Median time per operation (or per run).
        pub median: Duration,
        /// Fastest observed sample.
        pub min: Duration,
        /// Slowest observed sample.
        pub max: Duration,
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// The fingerprint of the machine this process runs on: its hardware
    /// thread count and CPU model, e.g. `2 x Intel(R) Xeon(R) Processor
    /// @ 2.30GHz` (`unknown CPU` where `/proc/cpuinfo` has no model name).
    pub fn machine_fingerprint() -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown CPU".to_owned());
        format!("{nproc} x {cpu}")
    }

    /// Renders a report to its JSON string. `bench` names the report
    /// (conventionally the output file stem, e.g. `BENCH_bayes`) and
    /// `machine` is the recording host's fingerprint.
    pub fn render_json(bench: &str, machine: &str, entries: &[Entry]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"wsu-bench/1\",\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(bench)));
        out.push_str("  \"unit\": \"ns\",\n");
        out.push_str(&format!("  \"machine\": \"{}\",\n", escape(machine)));
        out.push_str("  \"results\": [\n");
        for (i, e) in entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {} }}{}\n",
                escape(&e.name),
                e.median.as_nanos(),
                e.min.as_nanos(),
                e.max.as_nanos(),
                if i + 1 < entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes a report to `path` (creating parent directories), stamped
    /// with this machine's [`machine_fingerprint`].
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from creating directories or writing.
    pub fn write_json(path: &Path, bench: &str, entries: &[Entry]) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, render_json(bench, &machine_fingerprint(), entries))
    }
}

/// Writes the collected results to the JSON path named by the
/// `WSU_BENCH_JSON` environment variable, if set. Called by
/// [`criterion_main!`] after all groups have run, so
/// `WSU_BENCH_JSON=results/BENCH_bayes.json cargo bench --bench
/// bench_bayes` emits the machine-readable report alongside the usual
/// stdout table.
pub fn maybe_write_json_report(criterion: &Criterion) {
    let Ok(path) = std::env::var("WSU_BENCH_JSON") else {
        return;
    };
    let path = std::path::PathBuf::from(path);
    let bench = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench")
        .to_string();
    let entries: Vec<report::Entry> = criterion
        .results()
        .map(|(name, median, min, max)| report::Entry {
            name: name.to_string(),
            median,
            min,
            max,
        })
        .collect();
    match report::write_json(&path, &bench, &entries) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => eprintln!("failed to write {}: {err}", path.display()),
    }
}

/// Declares the benchmark entry list, compatible with
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Declares the benchmark `main`, compatible with
/// `criterion::criterion_main!`.
///
/// After all groups have run, the collected medians are written to the
/// JSON path in `WSU_BENCH_JSON` (if set) via
/// [`maybe_write_json_report`].
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::new();
            $($group(&mut criterion);)+
            $crate::maybe_write_json_report(&criterion);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::new();
        c.benchmark_group("g")
            .sample_size(5)
            .bench_function("noop", |b| b.iter(|| 1 + 1))
            .finish();
        assert_eq!(c.medians().count(), 1);
        let (name, median) = c.medians().next().unwrap();
        assert_eq!(name, "g/noop");
        assert!(median < Duration::from_millis(100));
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
