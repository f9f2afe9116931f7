//! Hot-path microbench runner: records and gates `BENCH_micro.json`.
//!
//! Measures, in one process, the string-heavy data-path kernels (filter,
//! hash-join build/probe, group-by) against their `std` baselines, the
//! `filter_chain` kernel over both materialization strategies, the
//! `filter_numeric` predicate kernel against the pre-kernel predicate path,
//! the `filter_between_int` survivor-list filter against the mask path,
//! the engine's int-key join against `std` hash-map joins (`int_join_all_miss`
//! probes only, `int_join_dense` builds and probes CAB's FK → PK shape,
//! `int_join_fanout` a duplicate-key build fed in morsels), the sort sink's
//! top-k against a `std` full sort (`topk_sort`),
//! and the encoded-page kernels (`page_encode` round-trips columns through their
//! size-picked codecs, `exchange_wire` serializes morsels through the wire
//! format). In every entry `baseline_naive_ns` is the unoptimized path
//! (owned `Vec<String>` rows for the five string kernels — a copied column
//! and a broadcast literal for the filter, `std` maps with a string hash
//! per key and per-row clones for the join and group-by, a dictionary
//! interned per page or chunk for the page and wire kernels;
//! per-operator compaction for `filter_chain`;
//! Plain-only codec picking for `page_encode_int`;
//! a copied, fully sorted, truncated row vector for `topk_sort`;
//! cloned, broadcast, per-row `Ordering` comparisons for `filter_numeric`;
//! a mask per comparison, folded, counted and compacted for
//! `filter_between_int`) and
//! `dict_ns` the optimized path; [`Report`] lists what else is recorded. The
//! JSON lands at the repo root (or `$BENCH_MICRO_OUT`) so successive PRs can
//! track the perf trajectory, and CI uploads it as an artifact.
//!
//! The run gates itself ([`Report::violations`]) and exits non-zero on a
//! breach, so a regression on the dictionary, selection-vector,
//! wire-format or int-codec paths breaks the build instead of
//! slipping into the artifact: every kernel speedup >= 1.0 (0.5 for
//! `int_join_all_miss`, which is timed against the `std` hash map), the
//! dict-exchange wire payload smaller than the plain one and at most half
//! the decoded bytes, sorted ints >= 4x smaller under FoR/Delta. Every gate
//! binds on every host: no measurement here depends on the core count.
//!
//! Every kernel here is single-threaded. What the engine's worker pool,
//! fault hooks and tracer cost a whole query is `bench_e2e`'s to measure
//! (`exec.par_speedup`, `exec.pool_reuses`, `obs.engine_trace_overhead`).
//!
//! Usage: `cargo run --release -p ci-bench --bin bench_micro`

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::time::Instant;

use ci_bench::hotpath::{
    all_miss_fixture, date_batch, dense_join_fixture, exchange_wire_accounting,
    fanout_join_fixture, int_codec_accounting, int_join_map, int_join_table, morsels,
    numeric_batch, owned_rows, run_exchange_wire, run_exchange_wire_std, run_filter,
    run_filter_between_int, run_filter_between_int_mask, run_filter_chain, run_filter_numeric,
    run_filter_numeric_naive, run_filter_std, run_group_by, run_group_by_std, run_int_join,
    run_int_join_probe, run_int_map_join, run_int_map_probe, run_join, run_join_std,
    run_page_encode, run_page_encode_int, run_page_encode_std, run_topk_sort, run_topk_sort_std,
    sorted_int_batch, string_batch, topk_batch, topk_rows, wide_batch,
};
use ci_bench::report::{Measurement, Report, CARDINALITY, ROWS};
use ci_types::{CiError, Result};

/// Probe rows of the string-key join kernel. Against its `ROWS`-row build
/// over `CARDINALITY` keys every hit matches ≈ 200 build rows, so a tenth
/// of the build's rows, half of them hits, already yields ≈ 1 M joined rows
/// per arm: the same per-row work as a larger probe, in a tenth of the
/// memory.
const STRING_JOIN_PROBE_ROWS: usize = ROWS / 20;
/// Build rows (distinct primary keys) of the dense join kernel.
const DENSE_BUILD_ROWS: usize = 50_000;
/// Distinct keys, rows per key and probe rows of the fan-out join kernel.
const FANOUT_KEYS: usize = 40_000;
const FANOUT_PER_KEY: usize = 4;
const FANOUT_PROBE_ROWS: usize = 40_000;
/// Rows per morsel of the fan-out join kernel's build, of the top-k
/// kernel's input and of the `filter_between_int` scan.
const BUILD_MORSEL: usize = 8_192;
/// Morsel size for the group-by kernel (matches the engine default's shape).
const MORSEL: usize = 65_536;
/// Timed rounds per kernel; each arm's minimum is reported.
const REPS: usize = 7;

/// Runs `f` once, lowering `best` to its wall time; returns its checksum.
fn timed(f: &mut impl FnMut() -> Result<usize>, best: &mut u128) -> Result<usize> {
    let t = Instant::now();
    let check = f()?;
    *best = (*best).min(t.elapsed().as_nanos());
    Ok(check)
}

/// Times a baseline arm against the optimized arm of one kernel: one
/// warm-up run each, then `REPS` rounds in which the arm that goes first
/// swaps, so neither arm always runs on the heap the other just left; each
/// arm reports its best time. The two must agree on the checksum.
fn versus(
    name: &'static str,
    mut baseline: impl FnMut() -> Result<usize>,
    mut optimized: impl FnMut() -> Result<usize>,
) -> Result<Measurement> {
    let (expected, mut check) = (baseline()?, optimized()?);
    let (mut baseline_naive_ns, mut dict_ns) = (u128::MAX, u128::MAX);
    for rep in 0..REPS {
        if rep % 2 == 0 {
            timed(&mut baseline, &mut baseline_naive_ns)?;
            check = timed(&mut optimized, &mut dict_ns)?;
        } else {
            check = timed(&mut optimized, &mut dict_ns)?;
            timed(&mut baseline, &mut baseline_naive_ns)?;
        }
    }
    assert_eq!(expected, check, "{name}: the arms disagree on results");
    Ok(Measurement {
        name,
        baseline_naive_ns,
        dict_ns,
        check,
    })
}

fn main() -> Result<()> {
    // The string kernels' rows: owned for the `std` baselines, dictionary
    // ids for the engine.
    let (owned, dict) = (
        owned_rows(ROWS, CARDINALITY, 11),
        string_batch(ROWS, CARDINALITY, 11)?,
    );
    let owned_probe = owned_rows(STRING_JOIN_PROBE_ROWS, CARDINALITY * 2, 12);
    let dict_probe = string_batch(STRING_JOIN_PROBE_ROWS, CARDINALITY * 2, 12)?;
    let wide = wide_batch(ROWS, CARDINALITY, 11)?;
    let ints = sorted_int_batch(ROWS)?;
    let numeric = numeric_batch(ROWS, 11)?;
    let dates = morsels(&date_batch(ROWS, 17)?, BUILD_MORSEL)?;
    let [build, probe] = all_miss_fixture(ROWS, ROWS / 2, 13)?;
    let (map, table) = (
        int_join_map(&build)?,
        int_join_table(std::slice::from_ref(&build))?,
    );
    let [dense_build, dense_probe] = dense_join_fixture(DENSE_BUILD_ROWS, ROWS, 14)?;
    let [fanout_build, fanout_probe] =
        fanout_join_fixture(FANOUT_KEYS, FANOUT_PER_KEY, FANOUT_PROBE_ROWS, 15)?;
    let fanout_morsels = morsels(&fanout_build, BUILD_MORSEL)?;
    let topk = topk_batch(ROWS, 16)?;
    let (topk_owned, topk_morsels) = (topk_rows(&topk)?, morsels(&topk, BUILD_MORSEL)?);
    let measurements = vec![
        versus(
            "filter_string_eq",
            || run_filter_std(&owned),
            || run_filter(&dict),
        )?,
        versus(
            "hash_join_string_key",
            || run_join_std(&owned, &owned_probe),
            || run_join(&dict, &dict_probe),
        )?,
        versus(
            "group_by_string_key",
            || run_group_by_std(&owned),
            || run_group_by(&dict, MORSEL),
        )?,
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
        // Q2's `o_date BETWEEN s AND s + 30` over 200 000 dates in 8 192-row
        // morsels, ≈ 1.3 % kept: a mask per comparison, folded, counted and
        // compacted vs one interval compare writing the survivor list.
        versus(
            "filter_between_int",
            || run_filter_between_int_mask(&dates),
            || run_filter_between_int(&dates),
        )?,
        versus(
            "page_encode",
            || run_page_encode_std(&owned),
            || run_page_encode(&dict),
        )?,
        // Int codecs: the same sorted-int fixture round-tripped through
        // Plain pages (8 B/row) vs the size-picked FoR/Delta codecs.
        versus(
            "page_encode_int",
            || run_page_encode_int(&ints, false),
            || run_page_encode_int(&ints, true),
        )?,
        versus(
            "exchange_wire",
            || run_exchange_wire_std(&owned, MORSEL),
            || run_exchange_wire(&dict, MORSEL),
        )?,
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
            || run_int_join(std::slice::from_ref(&dense_build), &dense_probe),
        )?,
        // Fan-out join, Q4's and Q9's shape: 160 000 build rows, four per
        // key, fed to the `JoinHashTable` in 8 192-row morsels and probed
        // by 40 000 keys that all hit. The same `std` map join over the
        // whole build batch vs the whole engine build + probe, both timed.
        versus(
            "int_join_fanout",
            || run_int_map_join(&fanout_build, &fanout_probe),
            || run_int_join(&fanout_morsels, &fanout_probe),
        )?,
        // Top-k, Q10's `ORDER BY o_total DESC, o_id LIMIT 100` over 200 000
        // rows in 8 192-row morsels: a `std` full sort of the owned rows,
        // then truncated, vs the `SortBuffer` with the limit pushed down.
        versus(
            "topk_sort",
            || run_topk_sort_std(&topk_owned),
            || run_topk_sort(&topk_morsels),
        )?,
    ];

    // Exchange payload accounting (not timed): what one dict-column stream
    // puts on the wire vs the plain-page and decoded alternatives.
    let (wire_bytes, plain_bytes, decoded_bytes) = exchange_wire_accounting(&dict, MORSEL)?;
    // Int page accounting (not timed): the sorted-int fixture under the
    // size-picked FoR/Delta codecs vs Plain.
    let (int_encoded_bytes, int_plain_bytes) = int_codec_accounting(&ints)?;

    let report = Report {
        measurements,
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
