//! `fleet`: scalestudy's weighted three-release fleet with a mid-run
//! promotion — the bare in-process demand path (weighted routing,
//! synthetic endpoints, per-demand `indexed_stream` derivation and
//! epoch barriers), with no HTTP and no Bayes.
//!
//! The paper configuration (one million demands) must reproduce the
//! digest of `results/scalestudy.txt` at one and two shards. The
//! measured part then serves rounds of [`ROUND_DEMANDS`] demands, with
//! the cutover aligned to `K·block`, at one shard and at two (the order
//! alternating per round), until the run's seconds are spent; both
//! shard counts must agree on every round's merged digest. `wall_s` is
//! the median round at one shard, `latency_us` the median time per
//! demand at two.

use std::time::Instant;

use wsu_experiments::scalestudy::{run_scale, scale_spec, ScaleConfig, ScaleRun};
use wsu_simcore::rng::MasterSeed;
use wsu_simcore::shard::Shards;

use crate::layers::Layers;
use crate::run::{master, mix, timed_setup, Run};
use crate::stats::median;

/// Demands per measured round (4 Mi).
const ROUND_DEMANDS: u64 = 1 << 22;
/// Demands each shard serves per epoch, as in the paper configuration.
const BLOCK: u64 = 4096;
/// Rounds run whatever the budget.
const MIN_ROUNDS: u64 = 3;

fn round_config() -> ScaleConfig {
    ScaleConfig {
        demands: ROUND_DEMANDS,
        shard_counts: vec![1, 2],
        block: BLOCK,
        // Half-way, a multiple of 2·BLOCK: an epoch boundary at K = 1, 2.
        cutover: ROUND_DEMANDS / 2,
    }
}

/// The golden part of `results/scalestudy.txt`: the digest after the
/// header (the header names the shard counts that produced it).
fn golden_digest() -> Option<String> {
    let text = std::fs::read_to_string("results/scalestudy.txt").ok()?;
    text.split_once("\n\n").map(|(_, digest)| digest.to_owned())
}

/// Set-up: the spec and one worker per shard, warmed up by an eighth
/// of a round at one shard (at two, set-up time would measure whether
/// the host lends the second core at that moment).
fn setup(seed: MasterSeed) {
    let spec = scale_spec(seed.value());
    for shard in 0..2 {
        std::hint::black_box(spec.worker(shard));
    }
    let warm = ScaleConfig {
        demands: 1 << 19,
        shard_counts: vec![1],
        block: BLOCK,
        cutover: 1 << 18,
    };
    std::hint::black_box(run_scale(&warm, seed.value(), Shards::new(1)));
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let (setup_s, ()) = timed_setup(|| setup(run.master()));

    // Correctness at the paper configuration.
    let paper = ScaleConfig::paper();
    let expected = golden_digest();
    for k in [1, 2] {
        let got = run_scale(&paper, master(0).value(), Shards::new(k))
            .stats
            .digest();
        run.check(expected.as_deref() == Some(got.as_str()), || {
            format!("paper configuration at {k} shard(s) differs from results/scalestudy.txt")
        });
    }

    let config = round_config();
    let started = Instant::now();
    let mut k1: Vec<ScaleRun> = Vec::new();
    let mut k2: Vec<ScaleRun> = Vec::new();
    // Traced runs alternate untraced and traced rounds; the tracing
    // overhead compares their round times.
    let mut round_secs = (Vec::new(), Vec::new());
    let mut r = 0;
    while r < MIN_ROUNDS || started.elapsed().as_secs_f64() < run.seconds {
        let seed = mix(run.master().value(), r);
        let traced_round = run.traced() && r % 2 == 1;
        let order = if r % 2 == 0 { [1, 2] } else { [2, 1] };
        let mut pair = Vec::with_capacity(2);
        for k in order {
            let start = Instant::now();
            let result = run_scale(&config, seed, Shards::new(k));
            if traced_round {
                let name = if k == 1 {
                    "fleet.shards1"
                } else {
                    "fleet.shards2"
                };
                run.tracer.record(name, start, Instant::now(), None, r);
            }
            pair.push(result);
        }
        let secs: f64 = pair.iter().map(|p| p.elapsed.as_secs_f64()).sum();
        if traced_round {
            round_secs.1.push(secs);
        } else {
            round_secs.0.push(secs);
        }
        let (a, b) = (&pair[0], &pair[1]);
        run.check(a.stats.digest() == b.stats.digest(), || {
            format!("round {r}: merged digest differs between 1 and 2 shards")
        });
        run.check(a.stats.demands == ROUND_DEMANDS, || {
            format!("round {r} served {} demands", a.stats.demands)
        });
        for result in pair {
            if result.shards == 1 {
                k1.push(result);
            } else {
                k2.push(result);
            }
        }
        r += 1;
    }
    run.note("fleet_rounds", r);
    run.note("fleet_round_demands", ROUND_DEMANDS);
    let secs = |runs: &[ScaleRun]| {
        median(
            &runs
                .iter()
                .map(|r| r.elapsed.as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let dps = |runs: &[ScaleRun]| {
        median(
            &runs
                .iter()
                .map(ScaleRun::demands_per_sec)
                .collect::<Vec<_>>(),
        )
    };
    run.note("fleet_dps_1", dps(&k1));
    run.note("fleet_dps_2", dps(&k2));
    run.note("speedup_2", secs(&k1) / secs(&k2));
    run.note("epochs_2", k2[0].epochs);
    if !run.traced() {
        run.metric("setup_s", setup_s, "s");
        run.metric("wall_s", secs(&k1), "s");
        run.metric("latency_us", 1e6 / dps(&k2), "us");
        return;
    }
    let layers = Layers::measure(run);
    layers.report(run);
    // The 2-shard loop against its per-demand cost at full parallelism:
    // what is left is barriers, idle shards and cache effects.
    let explained = ROUND_DEMANDS as f64 * layers.fleet_demand_ns * 1e-9 / 2.0;
    run.metric(
        "ledger.unattributed_share",
        1.0 - explained / secs(&k2),
        "share",
    );
    run.metric(
        "trace.overhead_share",
        median(&round_secs.1) / median(&round_secs.0) - 1.0,
        "share",
    );
}
