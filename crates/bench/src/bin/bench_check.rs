//! CI gate over `BENCH_micro.json`: validates the report schema and fails
//! (non-zero exit) when any recorded kernel speedup drops below 1.0, when
//! the dict-exchange wire payload stops beating the plain payload, or when
//! it is no longer >= 2x smaller than the decoded bytes, or when the
//! disabled fault hooks cost >= 5% on the parallel scan-join, or when
//! dormant tracing (`CI_TRACE=off`) costs >= 3% on the same plan, or when
//! the warm cache-hit scan stops beating cold `CIPF` reads by >= 2x — a
//! regression on the dictionary, selection-vector, wire-format,
//! fault-injection, or tracing paths breaks the build instead of slipping
//! into the artifact. Core-count-conditional speedup
//! gates that cannot bind on this host (fewer cores than workers) are
//! printed as explicit `gate skipped: ...` lines rather than passing
//! silently; the presence and duration-consistency of those measurements is
//! enforced either way.
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
    // A gate the host cannot honestly evaluate must say so in the log —
    // a silently skipped gate looks exactly like a passing one.
    for s in report.gate_skips() {
        println!("BENCH_micro {s}");
    }
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
        "{path}: parallel {:.2}x at {} workers ({} cores), pool reuse {:.2}x",
        report.parallel_speedup,
        report.parallel_workers,
        report.host_cores,
        report.pool_reuse_speedup,
    );
    println!(
        "{path}: retry storm hooks-off {:.2}x of plain scan-join, chaos {} ns",
        report.retry_storm_overhead, report.retry_storm_chaos_ns,
    );
    println!(
        "{path}: trace hooks-off {:.2}x of plain scan-join, full tracing {} ns",
        report.trace_overhead, report.trace_full_ns,
    );
    println!(
        "{path}: cache-hit scan warm {:.2}x over cold CIPF reads ({} partitions)",
        report.cache_hit_speedup, report.cache_parts,
    );
    Ok(())
}
