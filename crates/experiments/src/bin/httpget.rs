//! `wsu-httpget` — the workspace's hand-rolled HTTP/1.1 client, as a
//! binary. CI uses it to scrape a live `--serve-metrics` endpoint
//! without assuming curl exists.
//!
//! Usage: `wsu-httpget <host:port> <path>` — prints the response body
//! to stdout; exits non-zero on connection failure or a non-200 status.

use std::process::exit;

use wsu_experiments::cli::Cli;
use wsu_obs::http_get;

fn main() {
    let args = Cli::new("wsu-httpget", &[])
        .operands(&["host:port", "path"])
        .parse_env();
    let (addr, path) = (args.operand(0), args.operand(1));
    match http_get(addr, path) {
        Ok(resp) if resp.status == 200 => print!("{}", resp.body),
        Ok(resp) => {
            eprintln!("GET {path}: status {}", resp.status);
            exit(1);
        }
        Err(err) => {
            eprintln!("GET {addr}{path} failed: {err}");
            exit(1);
        }
    }
}
