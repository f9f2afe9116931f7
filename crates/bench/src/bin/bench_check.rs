//! CI gate over `BENCH_micro.json`: validates the report schema and fails
//! (non-zero exit) when any recorded kernel speedup drops below 1.0 (0.5 for
//! `int_join_all_miss`, which is timed against the `std` hash map), when
//! the dict-exchange wire payload stops beating the plain payload, or when
//! it is no longer >= 2x smaller than the decoded bytes, or when the warm
//! cache-hit scan stops beating cold `CIPF` reads by >= 2x — a regression
//! on the dictionary, selection-vector, wire-format, or tier-cache paths
//! breaks the build instead of slipping into the artifact. Every gate
//! binds on every host: no measurement here depends on the core count.
//!
//! Usage: `cargo run --release -p ci-bench --bin bench_check [path]`
//! (default path `BENCH_micro.json`, or `$BENCH_MICRO_OUT`).

use ci_bench::report::BenchReport;
use ci_types::{CiError, Result};

fn main() -> Result<()> {
    let path = std::env::args()
        .nth(1)
        .or_else(|| std::env::var("BENCH_MICRO_OUT").ok())
        .unwrap_or_else(|| "BENCH_micro.json".into());
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CiError::Config(format!("cannot read {path}: {e}")))?;
    let report = BenchReport::parse(&text)?;
    let violations = report.violations();
    for v in &violations {
        eprintln!("BENCH_micro violation: {v}");
    }
    if !violations.is_empty() {
        return Err(CiError::Config(format!(
            "{path}: {} violation(s)",
            violations.len()
        )));
    }
    println!(
        "{path}: ok — {} benches over {} rows, speedups {}; exchange wire {} B vs plain {} B vs decoded {} B",
        report.benches.len(),
        report.rows,
        report
            .benches
            .iter()
            .map(|b| format!("{} {:.2}x", b.name, b.speedup))
            .collect::<Vec<_>>()
            .join(", "),
        report.exchange_wire_bytes,
        report.exchange_plain_bytes,
        report.exchange_decoded_bytes,
    );
    println!(
        "{path}: cache-hit scan warm {:.2}x over cold CIPF reads ({} partitions)",
        report.cache_hit_speedup, report.cache_parts,
    );
    Ok(())
}
