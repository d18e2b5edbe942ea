//! Where a result came from: machine, toolchain, source and inputs.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::run::Run;

/// Peak resident memory of this process in MB (`VmHWM`), or NaN when
/// the platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the workspace sources (every file under `crates/` and
/// `src/`, in sorted path order, plus `Cargo.lock`): identifies the
/// code measured when the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The provenance line: machine fingerprint, toolchain, source
/// identity, workload inputs and the failure share.
pub fn render(workload: &str, run: &Run, fail_share: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "none (not a git checkout)".to_owned()
    };
    let mut out = String::from("{\"provenance\": {");
    let _ = write!(
        out,
        "\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"source_fnv64\": \"{}\", \"fail_share\": {fail_share}",
        run.seed,
        run.seconds,
        u8::from(run.traced()),
        escape(&cpu_model()),
        escape(&command_line("rustc", &["-V"])),
        escape(&commit),
        source_digest(),
    );
    for (key, value) in &run.notes {
        let _ = write!(out, ", \"{key}\": \"{}\"", escape(value));
    }
    out.push_str("}}");
    out
}
