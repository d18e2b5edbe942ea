//! `wsu-loadgen` — load generator for `wsu-serve`.
//!
//! Opens `--connections` keep-alive connections and drives each in a
//! closed loop (one request in flight per connection), capturing
//! per-request wall latency in a mergeable quantile sketch. Prints a
//! summary and, with `--out`, writes a `wsu-bench/1` report
//! (`results/BENCH_http.json`) the stock `bench_compare` guard can
//! diff.
//!
//! `--open-loop RATE` switches the timed phase to a fixed-rate open
//! loop: RATE requests/sec aggregate are scheduled across the
//! connections whether or not earlier responses have arrived, latency
//! is measured from each request's scheduled instant (no coordinated
//! omission), and slots a connection cannot reach within one interval
//! are dropped — the summary then reports the drop rate alongside
//! p50/p99/p999, the open-loop overload signal.
//!
//! `--expect-server-match` scrapes the server's `/metrics` after the
//! run and requires its summed `wsu_http_demands_total` to equal the
//! client-side 200 count (timed + warmup) — valid when this generator
//! is the server's only client. Exits non-zero on any request error or
//! on an agreement mismatch.

use std::net::{SocketAddr, ToSocketAddrs};
use std::process::exit;
use std::time::Duration;

use wsu_experiments::cli::{Cli, Flag, Kind};
use wsu_experiments::loadgen::{render_bench_json, run_load, scrape_demand_total, LoadgenConfig};

const FLAGS: [Flag; 7] = [
    Flag::new("--addr", Kind::Name, "an address")
        .meta("HOST:PORT")
        .required(),
    Flag::new("--connections", Kind::Count(1), "a count ≥ 1"),
    Flag::new("--requests", Kind::U64, "a count per connection"),
    Flag::new("--warmup", Kind::U64, "a count per connection"),
    Flag::new("--open-loop", Kind::Positive, "a rate").meta("RATE"),
    Flag::new("--out", Kind::Path, "a report path"),
    Flag::new("--expect-server-match", Kind::Switch, "check server counts"),
];

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("--addr {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("--addr {addr}: no address"))
}

fn main() {
    let args = Cli::new("wsu-loadgen", &[&FLAGS]).parse_env();
    let addr = resolve(args.text("--addr").unwrap_or_default()).unwrap_or_else(|e| args.fail(&e));
    let config = LoadgenConfig {
        addr,
        connections: args.get("--connections").unwrap_or(2),
        requests_per_conn: args.get("--requests").unwrap_or(500),
        warmup_per_conn: args.get("--warmup").unwrap_or(50),
        timeout: Duration::from_secs(5),
        open_rate: args.get("--open-loop"),
    };
    let summary = match run_load(&config) {
        Ok(summary) => summary,
        Err(err) => {
            eprintln!("wsu-loadgen: connect {addr} failed: {err}");
            exit(1);
        }
    };
    println!(
        "connections={} ok={} errors={} dropped={} elapsed={:.3}s",
        summary.connections,
        summary.ok,
        summary.errors,
        summary.dropped,
        summary.elapsed.as_secs_f64(),
    );
    println!(
        "requests/sec={:.1} drop_rate={:.4} p50={}ns p99={}ns p999={}ns",
        summary.requests_per_sec,
        summary.drop_rate(),
        summary.latency_ns(0.50),
        summary.latency_ns(0.99),
        summary.latency_ns(0.999),
    );
    if let Some(path) = args.get::<std::path::PathBuf>("--out") {
        let json = render_bench_json(&summary);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        if let Err(err) = std::fs::write(&path, json) {
            eprintln!("wsu-loadgen: write {} failed: {err}", path.display());
            exit(1);
        }
        println!("wrote {}", path.display());
    }
    let mut failed = false;
    if summary.errors > 0 {
        eprintln!("wsu-loadgen: {} request(s) failed", summary.errors);
        failed = true;
    }
    if args.switch("--expect-server-match") {
        match scrape_demand_total(addr) {
            Ok(server_total) => {
                let client_total = summary.ok + summary.warmup_ok;
                if server_total == client_total {
                    println!("server agreement: wsu_http_demands_total={server_total} matches");
                } else {
                    eprintln!(
                        "wsu-loadgen: server counted {server_total} demands, \
                         client counted {client_total}"
                    );
                    failed = true;
                }
            }
            Err(err) => {
                eprintln!("wsu-loadgen: /metrics scrape failed: {err}");
                failed = true;
            }
        }
    }
    if failed {
        exit(1);
    }
}
