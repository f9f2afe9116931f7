//! Hot-path microbench runner: records and gates `BENCH_micro.json`.
//!
//! Measures, in one process, the string-heavy data-path kernels (filter,
//! hash-join build/probe, group-by) over both string encodings, the
//! `filter_chain` kernel over both materialization strategies, the
//! `filter_numeric` predicate kernel against the pre-kernel predicate path,
//! the engine's int-key join against `std` hash-map joins (`int_join_all_miss`
//! probes only, `int_join_dense` builds and probes CAB's FK → PK shape),
//! and the encoded-page kernels (`page_encode` round-trips columns through their
//! size-picked codecs, `exchange_wire` serializes morsels through the wire
//! format). In every entry `baseline_naive_ns` is the unoptimized input
//! (owned `Vec<String>` columns with per-row clones and a string hash per key;
//! per-operator compaction for `filter_chain`; per-chunk dictionary rebuilds
//! for the page kernels; Plain-only codec picking for `page_encode_int`;
//! cloned, broadcast, per-row `Ordering` comparisons for `filter_numeric`) and
//! `dict_ns` the optimized path; [`Report`] lists what else is recorded. The
//! JSON lands at the repo root (or `$BENCH_MICRO_OUT`) so successive PRs can
//! track the perf trajectory, and CI uploads it as an artifact.
//!
//! The run gates itself ([`Report::violations`]) and exits non-zero on a
//! breach, so a regression on the dictionary, selection-vector,
//! wire-format, int-codec or tier-cache paths breaks the build instead of
//! slipping into the artifact: every kernel speedup >= 1.0 (0.5 for
//! `int_join_all_miss`, which is timed against the `std` hash map), the
//! dict-exchange wire payload smaller than the plain one and at most half
//! the decoded bytes, sorted ints >= 4x smaller under FoR/Delta, the warm
//! cache-hit scan >= 2x over cold reads of >= 2 partitions. Every gate
//! binds on every host: no measurement here depends on the core count.
//!
//! Every kernel here is single-threaded. What the engine's worker pool,
//! fault hooks and tracer cost a whole query is `bench_e2e`'s to measure
//! (`exec.par_speedup`, `exec.pool_reuses`, `obs.engine_trace_overhead`).
//!
//! Usage: `cargo run --release -p ci-bench --bin bench_micro`

use std::time::Instant;

use ci_bench::hotpath::{
    all_miss_fixture, cache_scan_fixture, dense_join_fixture, exchange_wire_accounting,
    int_codec_accounting, int_join_map, int_join_table, numeric_batch, run_cache_hit_scan,
    run_exchange_wire, run_filter, run_filter_chain, run_filter_numeric, run_filter_numeric_naive,
    run_group_by, run_int_join, run_int_join_probe, run_int_map_join, run_int_map_probe, run_join,
    run_page_encode, run_page_encode_int, sorted_int_batch, string_batch, warm_cache, wide_batch,
};
use ci_bench::report::{Measurement, Report, CARDINALITY, ROWS};
use ci_storage::RecordBatch;
use ci_types::{CiError, Result};

/// Build rows (distinct primary keys) of the dense join kernel.
const DENSE_BUILD_ROWS: usize = 50_000;
/// Morsel size for the group-by kernel (matches the engine default's shape).
const MORSEL: usize = 65_536;
/// Timed repetitions per kernel; the minimum is reported.
const REPS: usize = 7;

/// Minimum wall time of `REPS` runs, plus the kernel's checksum output.
fn time_min<F: FnMut() -> Result<usize>>(mut f: F) -> Result<(u128, usize)> {
    // One warm-up run.
    let mut check = f()?;
    let mut best = u128::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        check = f()?;
        best = best.min(t.elapsed().as_nanos());
    }
    Ok((best, check))
}

/// Times a baseline arm against the optimized arm of one kernel; the two
/// must agree on the checksum.
fn versus(
    name: &'static str,
    baseline: impl FnMut() -> Result<usize>,
    optimized: impl FnMut() -> Result<usize>,
) -> Result<Measurement> {
    let (baseline_naive_ns, expected) = time_min(baseline)?;
    let (dict_ns, check) = time_min(optimized)?;
    assert_eq!(expected, check, "{name}: the arms disagree on results");
    Ok(Measurement {
        name,
        baseline_naive_ns,
        dict_ns,
        check,
    })
}

/// A string kernel over owned `Vec<String>` columns vs dictionary encoding.
fn measure<F>(name: &'static str, kernel: F) -> Result<Measurement>
where
    F: Fn(&RecordBatch, &RecordBatch) -> Result<usize>,
{
    let naive = string_batch(ROWS, CARDINALITY, 11, false);
    let naive_probe = string_batch(ROWS / 2, CARDINALITY * 2, 12, false);
    let dict = string_batch(ROWS, CARDINALITY, 11, true);
    let dict_probe = string_batch(ROWS / 2, CARDINALITY * 2, 12, true);
    versus(
        name,
        || kernel(&naive, &naive_probe),
        || kernel(&dict, &dict_probe),
    )
}

fn main() -> Result<()> {
    let wide = wide_batch(ROWS, CARDINALITY, 11, true);
    let ints = sorted_int_batch(ROWS);
    let numeric = numeric_batch(ROWS, 11)?;
    let [build, probe] = all_miss_fixture(ROWS, ROWS / 2, 13);
    let (map, table) = (int_join_map(&build)?, int_join_table(&build)?);
    let [dense_build, dense_probe] = dense_join_fixture(DENSE_BUILD_ROWS, ROWS, 14);
    let measurements = vec![
        measure("filter_string_eq", |b, _| run_filter(b))?,
        measure("hash_join_string_key", run_join)?,
        measure("group_by_string_key", |b, _| run_group_by(b, MORSEL))?,
        // Selection vectors: the same dict-encoded batch, compacted after
        // every filter (the pre-selection data path) vs composed selections
        // carried to the sink.
        versus(
            "filter_chain",
            || run_filter_chain(&wide, true),
            || run_filter_chain(&wide, false),
        )?,
        // Predicate kernels: Q6's `d >= 0.02 AND d <= 0.06 AND q < 30` over
        // `Float64` / `Int64` columns, through the pre-kernel path (column
        // clones, broadcast literals, an `Ordering` per row, a branchy
        // selection) vs masks folded in place and a branch-free selection.
        versus(
            "filter_numeric",
            || run_filter_numeric_naive(&numeric),
            || run_filter_numeric(&numeric),
        )?,
        measure("page_encode", |b, _| run_page_encode(b))?,
        // Int codecs: the same sorted-int fixture round-tripped through
        // Plain pages (8 B/row) vs the size-picked FoR/Delta codecs.
        versus(
            "page_encode_int",
            || run_page_encode_int(&ints, false),
            || run_page_encode_int(&ints, true),
        )?,
        measure("exchange_wire", |b, _| run_exchange_wire(b, MORSEL))?,
        // All-miss probe: `ROWS` distinct int build keys, `ROWS / 2` probe
        // keys none of which is on the build side. One `get` per key on a
        // `std` `HashMap<i64, u32>` (the SwissTable `KeyIndex` replaced) vs
        // the whole `JoinHashTable::probe` — encode, id lookup, empty
        // gather. Both tables are built outside the timed region.
        versus(
            "int_join_all_miss",
            || run_int_map_probe(&map, &probe),
            || run_int_join_probe(&table, &probe),
        )?,
        // Dense FK → PK join, CAB's shape: 50 000 shuffled distinct ids
        // built, 200 000 references probed, every one a hit. A `std`
        // `HashMap<i64, Vec<u32>>` join with the same gather vs the whole
        // `JoinHashTable` build + probe, both timed.
        versus(
            "int_join_dense",
            || run_int_map_join(&dense_build, &dense_probe),
            || run_int_join(&dense_build, &dense_probe),
        )?,
    ];

    // Cache-hit scan: the same reads fully cold vs served from the memory
    // tier's decoded batches — the pure cost of the object-tier round trip.
    let (tiers, cache_table, cache_parts) = cache_scan_fixture(ROWS)?;
    let (cache_cold_ns, cache_cold_check) =
        time_min(|| run_cache_hit_scan(&tiers, cache_table, cache_parts))?;
    warm_cache(&tiers, cache_table, cache_parts)?;
    let (cache_warm_ns, cache_warm_check) =
        time_min(|| run_cache_hit_scan(&tiers, cache_table, cache_parts))?;
    assert_eq!(
        cache_cold_check, cache_warm_check,
        "cache_hit_scan: cache temperature changed results"
    );

    // Exchange payload accounting (not timed): what one dict-column stream
    // puts on the wire vs the plain-page and decoded alternatives.
    let dict = string_batch(ROWS, CARDINALITY, 11, true);
    let (wire_bytes, plain_bytes, decoded_bytes) = exchange_wire_accounting(&dict, MORSEL)?;
    // Int page accounting (not timed): the sorted-int fixture under the
    // size-picked FoR/Delta codecs vs Plain.
    let (int_encoded_bytes, int_plain_bytes) = int_codec_accounting(&ints)?;

    let report = Report {
        measurements,
        cache_cold_ns,
        cache_warm_ns,
        cache_parts,
        wire_bytes,
        plain_bytes,
        decoded_bytes,
        int_encoded_bytes,
        int_plain_bytes,
    };
    let out = std::env::var("BENCH_MICRO_OUT").unwrap_or_else(|_| "BENCH_micro.json".into());
    std::fs::write(&out, report.to_json())
        .map_err(|e| CiError::Config(format!("cannot write {out}: {e}")))?;

    println!(
        "{:<24} {:>14} {:>14} {:>9}",
        "kernel", "naive", "dict", "speedup"
    );
    for m in &report.measurements {
        println!(
            "{:<24} {:>11.2} ms {:>11.2} ms {:>8.2}x",
            m.name,
            m.baseline_naive_ns as f64 / 1e6,
            m.dict_ns as f64 / 1e6,
            m.speedup()
        );
    }
    println!(
        "exchange payload: wire {:.1} KB vs plain {:.1} KB vs decoded {:.1} KB ({:.2}x smaller than decoded)",
        wire_bytes as f64 / 1e3,
        plain_bytes as f64 / 1e3,
        decoded_bytes as f64 / 1e3,
        decoded_bytes as f64 / wire_bytes.max(1) as f64
    );
    println!(
        "cache hit scan: cold CIPF reads {:.2} ms vs warm memory tier {:.2} ms ({:.2}x, {} partitions)",
        cache_cold_ns as f64 / 1e6,
        cache_warm_ns as f64 / 1e6,
        report.cache_hit_speedup(),
        cache_parts
    );
    println!(
        "sorted-int pages: FoR/Delta {:.1} KB vs plain {:.1} KB ({:.2}x smaller)",
        int_encoded_bytes as f64 / 1e3,
        int_plain_bytes as f64 / 1e3,
        int_plain_bytes as f64 / int_encoded_bytes.max(1) as f64
    );
    println!("wrote {out}");

    let violations = report.violations();
    for v in &violations {
        eprintln!("BENCH_micro violation: {v}");
    }
    if !violations.is_empty() {
        return Err(CiError::Config(format!(
            "{out}: {} violation(s)",
            violations.len()
        )));
    }
    Ok(())
}
