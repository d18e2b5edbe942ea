//! Runs the sharding scale study: the same million-demand weighted
//! fleet served at several shard counts, asserting byte-identical
//! merged outputs while measuring throughput.
//!
//! Usage: `scalestudy [--quick] [--demands N] [--block B]
//! [--shards-list K,K,...] [--bench-out PATH]`.
//!
//! Stdout carries only the deterministic dependability digest (safe to
//! diff against a golden); the wall-clock table — demands/sec, speedup
//! versus the first swept shard count, merge overhead — goes to
//! stderr, and `--bench-out` additionally publishes it as a
//! `wsu-bench/1` report (the `results/BENCH_scale.json` format) for
//! the stock `bench_compare` regression guard.

use wsu_experiments::scalestudy::{
    render_bench_json, render_table, render_timing, run_scalestudy, ScaleConfig,
};
use wsu_experiments::DEFAULT_SEED;

fn fail(what: &str) -> ! {
    eprintln!("scalestudy: {what}");
    eprintln!(
        "usage: scalestudy [--quick] [--demands N] [--block B] \
         [--shards-list K,K,...] [--bench-out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = if args.iter().any(|a| a == "--quick") {
        ScaleConfig::quick()
    } else {
        ScaleConfig::paper()
    };
    let mut bench_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                i += 1;
                continue;
            }
            "--demands" => {
                config.demands = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--demands: expected a count"));
            }
            "--block" => {
                config.block = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--block: expected a count"));
            }
            "--shards-list" => {
                let list: Option<Vec<usize>> = args
                    .get(i + 1)
                    .map(|v| v.split(',').map(|s| s.trim().parse().ok()).collect())
                    .unwrap_or(None);
                config.shard_counts = match list {
                    Some(counts) if !counts.is_empty() => counts,
                    _ => fail("--shards-list: expected K,K,..."),
                };
            }
            "--bench-out" => {
                bench_out = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| fail("--bench-out: expected a path")),
                );
            }
            other => fail(&format!("unknown flag {other}")),
        }
        i += 2;
    }

    if let Err(e) = config.validate() {
        fail(&e);
    }
    let report = run_scalestudy(&config, DEFAULT_SEED.value());
    print!("{}", render_table(&report));
    eprint!("{}", render_timing(&report));
    if let Some(path) = bench_out {
        std::fs::write(&path, render_bench_json(&report))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
