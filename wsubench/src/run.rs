//! The state of one benchmark run: its arguments, correctness checks,
//! metrics and spans, plus helpers every workload shares.

use std::time::Instant;

use wsu_experiments::DEFAULT_SEED;
use wsu_simcore::rng::MasterSeed;

use crate::stats::median;
use crate::trace::Tracer;

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name exactly as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit exactly as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// One benchmark run.
#[derive(Debug)]
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// Spans (recording only in a traced run).
    pub tracer: Tracer,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra provenance, e.g. the fixed open-loop rate.
    pub notes: Vec<(&'static str, String)>,
}

impl Run {
    /// A run with no checks or metrics yet.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Run {
        Run {
            seed,
            seconds,
            tracer: Tracer::new(trace),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether this is the traced run (per-layer metrics).
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// The experiments' master seed for this workload seed: seed 0 is
    /// the seed every committed golden was produced with.
    pub fn master(&self) -> MasterSeed {
        master(self.seed)
    }

    /// Counts one checked operation; logs and counts a failure when
    /// `ok` is false. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// Counts `n` operations of which `bad` failed, as one batch.
    pub fn tally(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            eprintln!("check failed: {bad} of {n} {what}");
        }
    }

    /// Reports a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a provenance note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// Compares `actual` with the committed golden `results/<name>`.
    pub fn golden(&mut self, name: &str, actual: &str) {
        let path = format!("results/{name}");
        let expected = std::fs::read_to_string(&path);
        let same = matches!(&expected, Ok(e) if e == actual);
        self.check(same, || match expected {
            Ok(_) => format!("{path} differs from the reproduced output"),
            Err(e) => format!("{path}: {e}"),
        });
    }
}

/// The experiments' master seed for workload seed `seed` (seed 0 is
/// [`DEFAULT_SEED`], the goldens' seed).
pub fn master(seed: u64) -> MasterSeed {
    MasterSeed::new(DEFAULT_SEED.value().wrapping_add(seed))
}

/// A value derived from `seed` and `index` (splitmix64 finaliser), for
/// seeds of repeated rounds.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `build` [`SETUP_REPS`] times, dropping all but the last
/// result, and returns the median wall time with that result.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let value = build();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Median ns per call of `op`, over `batches` batches of `per_batch`
/// calls each (after one untimed warm-up batch).
pub fn ns_per_call(batches: usize, per_batch: u64, mut op: impl FnMut(u64)) -> f64 {
    for i in 0..per_batch {
        op(i);
    }
    let mut samples = Vec::with_capacity(batches);
    for b in 0..batches as u64 {
        let start = Instant::now();
        for i in 0..per_batch {
            op(b * per_batch + i);
        }
        samples.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

/// Wall-clock ledger of one pass over a sequence of steps, each
/// recorded as a child span of the pass's root span when tracing.
#[derive(Debug)]
pub struct Steps {
    root: Option<crate::trace::SpanId>,
    started: Instant,
    times: Vec<(&'static str, f64)>,
}

impl Steps {
    /// Starts a pass named `name`.
    pub fn start(tracer: &mut Tracer, name: &str) -> Steps {
        Steps {
            root: tracer.open(name),
            started: Instant::now(),
            times: Vec::new(),
        }
    }

    /// Runs and times one step.
    pub fn time<T>(&mut self, tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        tracer.record(name, start, end, self.root, 0);
        self.times.push((name, (end - start).as_secs_f64()));
        value
    }

    /// Ends the pass; returns its wall time in seconds and the steps'
    /// `(name, seconds)` in execution order.
    pub fn finish(self, tracer: &mut Tracer) -> (f64, Vec<(&'static str, f64)>) {
        let wall = self.started.elapsed().as_secs_f64();
        tracer.close(self.root);
        (wall, self.times)
    }
}
