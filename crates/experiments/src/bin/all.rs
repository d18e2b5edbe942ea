//! Runs every step of the step table (`wsu_experiments::suite`) and
//! writes each step's files under `--out` (default `results/`), printing
//! one progress line per step, with its wall time, on stderr. Each file
//! holds exactly the bytes the step's own binary prints for the same
//! invocation; `--quick` and `--jobs` are passed on to every step.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use wsu_experiments::cli::{Cli, Flag, Kind};
use wsu_experiments::obs::{ObsOptions, OBS_FLAGS};
use wsu_experiments::suite::{JOBS, QUICK, STEPS};

fn main() -> std::io::Result<()> {
    let out = Flag::new("--out", Kind::Path, "a directory").meta("DIR");
    let args = Cli::new("all", &[&[QUICK, out], &[JOBS], &OBS_FLAGS]).parse_env();
    let out_dir = args
        .get("--out")
        .unwrap_or_else(|| PathBuf::from("results"));
    let mut common = Vec::new();
    if args.switch("--quick") {
        common.push("--quick".to_owned());
    }
    if let Some(jobs) = args.text("--jobs") {
        common.extend(["--jobs".to_owned(), jobs.to_owned()]);
    }
    let mut ctx = ObsOptions::from_args(&args).context();
    // Only a step's first invocation is observed: the calibrated Table
    // 5/6 re-runs would record into the same metric series and cells.
    let mut unobserved = ObsOptions::default().context();
    fs::create_dir_all(&out_dir)?;
    for (i, step) in STEPS.iter().enumerate() {
        eprint!("[{}/{}] {} ...", i + 1, STEPS.len(), step.name);
        let start = Instant::now();
        for (n, invocation) in step.invocations.iter().enumerate() {
            let ctx = if n == 0 { &mut ctx } else { &mut unobserved };
            for (file, bytes) in step.invoke(invocation, &common, ctx) {
                fs::write(out_dir.join(file), bytes)?;
            }
        }
        eprintln!(" {:.2}s", start.elapsed().as_secs_f64());
    }
    ctx.finish()?;
    eprintln!("done; outputs in {}", out_dir.display());
    Ok(())
}
