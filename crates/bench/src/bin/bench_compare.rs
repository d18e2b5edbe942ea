//! Perf regression guard: compares a fresh `BENCH_*.json` report
//! against a committed baseline and fails on large slowdowns.
//!
//! Usage: `bench_compare <baseline.json> <fresh.json> [--threshold X]
//! [--min-ns N]`
//!
//! Rows are matched by name; a row slower than `threshold ×` its
//! baseline median fails the run. The threshold defaults to 2× —
//! deliberately generous, so the guard catches real regressions (an
//! accidental `clone()` in the demand loop, a quadratic scan) while
//! staying robust to shared-runner noise. Rows whose baseline median is
//! below `--min-ns` (default 1000) are reported but never failed:
//! single-digit-nanosecond medians jitter by integer factors on busy
//! machines. Rows present on only one side are informational — adding
//! or retiring a benchmark must not break CI.
//!
//! The parser handles exactly the `wsu-bench/1` shape that
//! [`wsu_bench::report::render_json`] emits (one `{ "name": …,
//! "median_ns": … }` object per result); it is not a general JSON
//! reader.

use std::path::Path;
use std::process::ExitCode;

/// One `(name, median_ns)` row from a report.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    name: String,
    median_ns: u64,
}

/// Extracts the string value following `"<key>": "` at `from`.
fn string_field(text: &str, key: &str, from: usize) -> Option<(String, usize)> {
    let marker = format!("\"{key}\": \"");
    let start = text[from..].find(&marker)? + from + marker.len();
    let end = text[start..].find('"')? + start;
    Some((text[start..end].to_string(), end))
}

/// Extracts the integer value following `"<key>": ` at `from`.
fn int_field(text: &str, key: &str, from: usize) -> Option<(u64, usize)> {
    let marker = format!("\"{key}\": ");
    let start = text[from..].find(&marker)? + from + marker.len();
    let digits: String = text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let value = digits.parse().ok()?;
    Some((value, start + digits.len()))
}

/// Parses a `wsu-bench/1` report into its result rows.
fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    let (schema, mut cursor) = string_field(text, "schema", 0).ok_or("missing \"schema\" field")?;
    if schema != "wsu-bench/1" {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let mut rows = Vec::new();
    while let Some((name, after_name)) = string_field(text, "name", cursor) {
        let (median_ns, after_median) = int_field(text, "median_ns", after_name)
            .ok_or_else(|| format!("row {name:?} has no median_ns"))?;
        rows.push(Row { name, median_ns });
        cursor = after_median;
    }
    Ok(rows)
}

/// Outcome of comparing one shared row.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Within threshold (or faster).
    Ok { ratio: f64 },
    /// Baseline too small to compare reliably.
    TooSmall,
    /// Slower than `threshold ×` baseline.
    Regressed { ratio: f64 },
}

fn judge(baseline_ns: u64, fresh_ns: u64, threshold: f64, min_ns: u64) -> Verdict {
    if baseline_ns < min_ns {
        return Verdict::TooSmall;
    }
    let ratio = fresh_ns as f64 / baseline_ns as f64;
    if ratio > threshold {
        Verdict::Regressed { ratio }
    } else {
        Verdict::Ok { ratio }
    }
}

fn load(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|err| format!("{path}: {err}"))?;
    parse_report(&text).map_err(|err| format!("{path}: {err}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut threshold = 2.0f64;
    let mut min_ns = 1_000u64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold = v,
                None => {
                    eprintln!("--threshold needs a number");
                    return ExitCode::from(2);
                }
            },
            "--min-ns" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => min_ns = v,
                None => {
                    eprintln!("--min-ns needs an integer");
                    return ExitCode::from(2);
                }
            },
            other => files.push(other.to_string()),
        }
    }
    let [baseline_path, fresh_path] = files.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <fresh.json> [--threshold X] [--min-ns N]");
        return ExitCode::from(2);
    };

    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(err), _) | (_, Err(err)) => {
            eprintln!("bench_compare: {err}");
            return ExitCode::from(2);
        }
    };

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for row in &fresh {
        let Some(base) = baseline.iter().find(|b| b.name == row.name) else {
            println!(
                "  new      {:<50} {} ns (no baseline)",
                row.name, row.median_ns
            );
            continue;
        };
        compared += 1;
        match judge(base.median_ns, row.median_ns, threshold, min_ns) {
            Verdict::Ok { ratio } => {
                println!(
                    "  ok       {:<50} {} ns vs {} ns ({ratio:.2}x)",
                    row.name, row.median_ns, base.median_ns
                );
            }
            Verdict::TooSmall => {
                println!(
                    "  skipped  {:<50} baseline {} ns < {min_ns} ns floor",
                    row.name, base.median_ns
                );
            }
            Verdict::Regressed { ratio } => {
                regressions += 1;
                println!(
                    "  SLOWER   {:<50} {} ns vs {} ns ({ratio:.2}x > {threshold:.2}x)",
                    row.name, row.median_ns, base.median_ns
                );
            }
        }
    }
    for base in &baseline {
        if !fresh.iter().any(|r| r.name == base.name) {
            println!("  retired  {:<50} (baseline only)", base.name);
        }
    }

    if regressions > 0 {
        eprintln!(
            "bench_compare: {regressions} of {compared} shared rows regressed past {threshold:.2}x"
        );
        ExitCode::FAILURE
    } else {
        println!("bench_compare: {compared} shared rows within {threshold:.2}x");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsu_bench::report::{render_json, Entry};

    fn entry(name: &str, median_ns: u64) -> Entry {
        let d = std::time::Duration::from_nanos(median_ns);
        Entry {
            name: name.to_string(),
            median: d,
            min: d,
            max: d,
        }
    }

    #[test]
    fn parses_rendered_reports_round_trip() {
        let json = render_json(
            "BENCH_test",
            "2 x Test CPU",
            &[entry("a/b", 1234), entry("c/d/e", 9_999_999)],
        );
        let rows = parse_report(&json).unwrap();
        assert_eq!(
            rows,
            vec![
                Row {
                    name: "a/b".to_string(),
                    median_ns: 1234
                },
                Row {
                    name: "c/d/e".to_string(),
                    median_ns: 9_999_999
                },
            ]
        );
    }

    #[test]
    fn rejects_foreign_schemas_and_empty_input() {
        assert!(parse_report("{\"schema\": \"other/2\"}").is_err());
        assert!(parse_report("").is_err());
        let empty = render_json("BENCH_empty", "1 x Test CPU", &[]);
        assert_eq!(parse_report(&empty).unwrap(), Vec::<Row>::new());
    }

    #[test]
    fn judge_applies_threshold_and_floor() {
        assert_eq!(
            judge(10_000, 19_000, 2.0, 1_000),
            Verdict::Ok { ratio: 1.9 }
        );
        assert!(matches!(
            judge(10_000, 25_000, 2.0, 1_000),
            Verdict::Regressed { .. }
        ));
        // Sub-floor baselines are never failed, however large the ratio.
        assert_eq!(judge(2, 50, 2.0, 1_000), Verdict::TooSmall);
        // Faster is always fine.
        assert!(matches!(
            judge(10_000, 3_000, 2.0, 1_000),
            Verdict::Ok { .. }
        ));
    }
}
