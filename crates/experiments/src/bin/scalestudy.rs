//! Runs the sharding scale study: the same million-demand weighted
//! fleet served at several shard counts, asserting byte-identical
//! merged outputs while measuring throughput.
//!
//! Stdout carries only the deterministic dependability digest (safe to
//! diff against a golden); the wall-clock table — demands/sec, speedup
//! versus the first swept shard count, merge overhead — goes to
//! stderr, and `--bench-out` additionally publishes it as a
//! `wsu-bench/1` report (the `results/BENCH_scale.json` format) for
//! the stock `bench_compare` regression guard.

use std::path::PathBuf;

use wsu_experiments::cli::{Cli, Flag, Kind};
use wsu_experiments::scalestudy::{
    render_bench_json, render_table, render_timing, run_scalestudy, ScaleConfig,
};
use wsu_experiments::suite::QUICK;
use wsu_experiments::DEFAULT_SEED;

const FLAGS: [Flag; 5] = [
    QUICK,
    Flag::new("--demands", Kind::U64, "a demand count"),
    Flag::new("--block", Kind::U64, "a block size").meta("B"),
    Flag::new("--shards-list", Kind::Counts, "shard counts"),
    Flag::new("--bench-out", Kind::Path, "a timing-report path"),
];

fn main() {
    let args = Cli::new("scalestudy", &[&FLAGS]).parse_env();
    let mut config = if args.switch("--quick") {
        ScaleConfig::quick()
    } else {
        ScaleConfig::paper()
    };
    if let Some(demands) = args.get("--demands") {
        config.demands = demands;
    }
    if let Some(block) = args.get("--block") {
        config.block = block;
    }
    if let Some(counts) = args.counts("--shards-list") {
        config.shard_counts = counts;
    }
    if let Err(e) = config.validate() {
        args.fail(&e);
    }
    let report = run_scalestudy(&config, DEFAULT_SEED.value());
    print!("{}", render_table(&report));
    eprint!("{}", render_timing(&report));
    if let Some(path) = args.get::<PathBuf>("--bench-out") {
        if let Err(e) = std::fs::write(&path, render_bench_json(&report)) {
            eprintln!("scalestudy: write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}
