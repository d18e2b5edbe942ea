//! `wsu-serve` — the upgrade middleware as a real HTTP service.
//!
//! Binds a thread-per-core accept loop and serves:
//!
//! * `POST /demand` — one demand through the middleware (dispatch,
//!   adjudicate, respond), answered as a small JSON outcome;
//! * `GET /metrics` — merged per-worker Prometheus text;
//! * `GET /snapshot` — aggregate JSON;
//! * `GET /health` — liveness.
//!
//! Defaults: `--addr 127.0.0.1:9100`, `--workers 0` (one per hardware
//! thread), `--spec paper`, the workspace seed, and `--duration 0`,
//! which serves until the process is killed; any other duration must
//! be a finite, non-negative number of seconds. `--sharded` keys each
//! demand's randomness on a fleet-global demand index instead of a
//! per-worker stream, so the outcome stream is identical at any
//! `--workers` count (see `ServeSpec::sharded`). Prints `listening on
//! ADDR workers=N` once ready.

use std::process::exit;
use std::time::Duration;

use wsu_core::serve::ServeSpec;
use wsu_experiments::cli::{Cli, Flag, Kind};
use wsu_experiments::serve::{FrontConfig, HttpFront};
use wsu_experiments::DEFAULT_SEED;

const FLAGS: [Flag; 6] = [
    Flag::new("--addr", Kind::Name, "a listen address").meta("HOST:PORT"),
    Flag::new("--workers", Kind::Count(0), "a worker count (0: all cores)"),
    Flag::new("--spec", Kind::Name, "a serving spec").meta("paper|deterministic|canary-fleet"),
    Flag::new("--sharded", Kind::Switch, "fleet-global demand streams"),
    Flag::new("--seed", Kind::U64, "a master seed"),
    Flag::new("--duration", Kind::Seconds, "a number of seconds"),
];

fn main() {
    let args = Cli::new("wsu-serve", &[&FLAGS]).parse_env();
    let addr = args.text("--addr").unwrap_or("127.0.0.1:9100");
    let workers = args.get("--workers").unwrap_or(0);
    let spec_name = args.text("--spec").unwrap_or("paper");
    let seed = args.get("--seed").unwrap_or(DEFAULT_SEED.value());
    let mut spec = match spec_name {
        "paper" => ServeSpec::paper(seed),
        "deterministic" => ServeSpec::deterministic(seed),
        "canary-fleet" => ServeSpec::canary_fleet(seed),
        other => args.fail(&format!(
            "--spec: unknown spec {other:?} (want paper|deterministic|canary-fleet)"
        )),
    };
    if args.switch("--sharded") {
        spec = spec.with_sharding();
    }
    let front = match HttpFront::start(FrontConfig::new(addr, workers, spec)) {
        Ok(front) => front,
        Err(err) => {
            eprintln!("wsu-serve: bind {addr} failed: {err}");
            exit(1);
        }
    };
    println!(
        "listening on {} workers={} spec={spec_name} seed={seed}",
        front.local_addr(),
        if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        },
    );
    match args.seconds("--duration").filter(|d| !d.is_zero()) {
        Some(duration) => {
            std::thread::sleep(duration);
            let demands = front.demands();
            front.shutdown();
            println!("served {demands} demands in {:.1}s", duration.as_secs_f64());
        }
        // Serve until the process is killed.
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}
