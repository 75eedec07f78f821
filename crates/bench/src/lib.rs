//! # mlcask-bench
//!
//! Experiment harness regenerating every table and figure of the MLCask
//! evaluation (§VII). One binary per figure/table prints the same
//! rows/series the paper plots; `cargo bench` runs the criterion
//! microbenchmarks on the underlying mechanisms.
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `fig5_linear_time` | Fig. 5 — linear-versioning total time |
//! | `fig6_time_composition` | Fig. 6 — pipeline time composition |
//! | `fig7_linear_storage` | Fig. 7 — cumulative storage size |
//! | `fig8_nonlinear` | Fig. 8 — merge CPT/CSS/CET/CST + headline ratios |
//! | `fig9_merge_composition` | Fig. 9 — merge time composition |
//! | `fig10_prioritized` | Fig. 10 — prioritized vs random search |
//! | `table1_optimal_found` | Table I — % trials with optimum found |
//! | `fig11_distributed` | Fig. 11 — distributed training |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Prints a markdown-style table header.
pub fn print_header(title: &str, cols: &[&str]) {
    println!("\n## {title}\n");
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Prints one markdown table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Formats a float with 2 decimal places.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 4 decimal places.
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats bytes as MiB with 2 decimals.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a ratio as `N.Nx`.
pub fn ratio(a: f64, b: f64) -> String {
    if b == 0.0 {
        "-".into()
    } else {
        format!("{:.1}x", a / b)
    }
}

/// Prints a named series (figure line) as `label: v1 v2 v3 ...`.
pub fn print_series<T: Display>(label: &str, values: &[T]) {
    let joined = values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ");
    println!("{label}: {joined}");
}

/// Schema version of the `BENCH_*.json` envelope written by
/// [`write_bench_json`]. Bump when the envelope shape changes.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Persists one bench run's headline numbers as machine-readable JSON so
/// the perf trajectory across PRs is diffable. Writes `BENCH_<name>.json`
/// into `MLCASK_BENCH_DIR` (default: the current directory) and prints the
/// path. Failures are reported but never fail the bench — the trajectory is
/// advisory, the in-process assertions are the gate.
///
/// Every bench shares one envelope: `schema_version`, the bench name, a
/// best-effort `git_describe` of the producing tree, the bench-specific
/// `payload`, and a final [`MetricsRegistry`](mlcask_obs::MetricsRegistry)
/// snapshot (`metrics`) — counters/gauges by series, histograms as
/// `_sum`/`_count` — so a trajectory diff can correlate headline numbers
/// with the telemetry that produced them.
pub fn write_bench_json<T: serde::Serialize>(name: &str, payload: &T) {
    use serde::Value;
    let dir = std::env::var("MLCASK_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    let metrics = mlcask_obs::MetricsRegistry::global()
        .snapshot()
        .into_iter()
        .map(|(series, v)| (series, Value::F64(v)))
        .collect::<Vec<_>>();
    let envelope = Value::Map(vec![
        (
            "schema_version".to_string(),
            Value::U64(BENCH_SCHEMA_VERSION),
        ),
        ("bench".to_string(), Value::Str(name.to_string())),
        ("git_describe".to_string(), Value::Str(git_describe())),
        ("payload".to_string(), serde::Serialize::to_value(payload)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    match serde_json::to_string(&envelope) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => println!("\nwarning: could not write {}: {e}", path.display()),
        },
        Err(e) => println!("\nwarning: could not serialize bench payload: {e}"),
    }
}

/// Best-effort `git describe --always --dirty` of the working tree;
/// `"unknown"` when git (or the repo) is unavailable, so benches run fine
/// from an exported tarball.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f4(0.12345), "0.1235");
        assert_eq!(mib(1024 * 1024), "1.00");
        assert_eq!(ratio(10.0, 2.0), "5.0x");
        assert_eq!(ratio(1.0, 0.0), "-");
    }
}
