//! Hot-path microbench runner: records `BENCH_micro.json`.
//!
//! Measures the string-heavy data-path kernels (filter, hash-join
//! build/probe, group-by) over both string encodings, the `filter_chain`
//! kernel over both materialization strategies, and the encoded-page
//! kernels (`page_encode` round-trips columns through their size-picked
//! codecs, `exchange_wire` serializes morsels through the wire format), in
//! one process. In every entry `baseline_naive_ns` is the pre-refactor
//! behaviour (owned `Vec<String>` columns with per-row clones and boxed
//! keys; per-operator compaction for `filter_chain`; per-chunk dictionary
//! rebuilds for the page kernels; Plain-only codec picking for
//! `page_encode_int`) and `dict_ns` the optimized path (dictionary
//! encoding; deferred selection vectors; shared-dictionary wire streams;
//! FoR/Delta int pages). The report also records the exchange payload in
//! three currencies (`exchange_wire_bytes` / `exchange_plain_bytes` /
//! `exchange_decoded_bytes`) and the sorted-int page footprint
//! (`int_encoded_bytes` / `int_plain_bytes`). The JSON lands at the repo
//! root (or `$BENCH_MICRO_OUT`) so successive PRs can track the perf
//! trajectory; CI uploads it as an artifact and `bench_check` fails the
//! build if any recorded speedup regresses below 1.0 or the dict-exchange
//! payload stops beating the plain one. The report additionally records
//! the tiered cache's hit economics (`cache_cold_ns` / `cache_warm_ns` /
//! `cache_hit_speedup`: every partition of a CIPF-persisted table read
//! through the tier stack fully cold — open, checksum, decode per file —
//! vs served from the memory tier; gated >= 2x).
//!
//! Every kernel here is single-threaded. What the engine's worker pool,
//! fault hooks and tracer cost a whole query is `bench_e2e`'s to measure
//! (`exec.par_speedup`, `exec.pool_reuses`, `obs.engine_trace_overhead`).
//!
//! Usage: `cargo run --release -p ci-bench --bin bench_micro`

use std::time::Instant;

use ci_bench::hotpath::{
    all_miss_fixture, cache_scan_fixture, exchange_wire_accounting, int_codec_accounting,
    int_join_map, int_join_table, run_cache_hit_scan, run_exchange_wire, run_filter,
    run_filter_chain, run_group_by, run_int_join_probe, run_int_map_probe, run_join,
    run_page_encode, run_page_encode_int, sorted_int_batch, string_batch, warm_cache, wide_batch,
};
use ci_storage::RecordBatch;
use ci_types::Result;

/// Rows per fixture batch.
const ROWS: usize = 200_000;
/// Distinct string keys.
const CARDINALITY: usize = 1_000;
/// Morsel size for the group-by kernel (matches the engine default's shape).
const MORSEL: usize = 65_536;
/// Timed repetitions per kernel; the minimum is reported.
const REPS: usize = 7;

struct Measurement {
    name: &'static str,
    baseline_naive_ns: u128,
    dict_ns: u128,
    check: usize,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.baseline_naive_ns as f64 / self.dict_ns.max(1) as f64
    }
}

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

fn measure<F>(name: &'static str, mut kernel: F) -> Result<Measurement>
where
    F: FnMut(&RecordBatch, &RecordBatch) -> Result<usize>,
{
    let naive = string_batch(ROWS, CARDINALITY, 11, false);
    let naive_probe = string_batch(ROWS / 2, CARDINALITY * 2, 12, false);
    let dict = string_batch(ROWS, CARDINALITY, 11, true);
    let dict_probe = string_batch(ROWS / 2, CARDINALITY * 2, 12, true);
    let (baseline_naive_ns, naive_check) = time_min(|| kernel(&naive, &naive_probe))?;
    let (dict_ns, dict_check) = time_min(|| kernel(&dict, &dict_probe))?;
    assert_eq!(
        naive_check, dict_check,
        "{name}: encodings disagree on results"
    );
    Ok(Measurement {
        name,
        baseline_naive_ns,
        dict_ns,
        check: dict_check,
    })
}

/// The selection-vector measurement: same dict-encoded batch, baseline
/// compacts after every filter (the pre-selection data path), the optimized
/// run carries composed selections to the sink.
fn measure_filter_chain() -> Result<Measurement> {
    let dict = wide_batch(ROWS, CARDINALITY, 11, true);
    let (baseline_naive_ns, eager_check) = time_min(|| run_filter_chain(&dict, true))?;
    let (dict_ns, lazy_check) = time_min(|| run_filter_chain(&dict, false))?;
    assert_eq!(
        eager_check, lazy_check,
        "filter_chain: lazy and eager materialization disagree on results"
    );
    Ok(Measurement {
        name: "filter_chain",
        baseline_naive_ns,
        dict_ns,
        check: lazy_check,
    })
}

/// The int-codec measurement: the same sorted-int fixture, baseline
/// round-trips through Plain pages (8 B/row), the optimized run through the
/// size-picked FoR/Delta codecs (a few bits per row).
fn measure_page_encode_int() -> Result<Measurement> {
    let batch = sorted_int_batch(ROWS);
    let (baseline_naive_ns, plain_check) = time_min(|| run_page_encode_int(&batch, false))?;
    let (dict_ns, int_check) = time_min(|| run_page_encode_int(&batch, true))?;
    assert_eq!(
        plain_check, int_check,
        "page_encode_int: codecs disagree on decoded values"
    );
    Ok(Measurement {
        name: "page_encode_int",
        baseline_naive_ns,
        dict_ns,
        check: int_check,
    })
}

/// The all-miss probe measurement: `ROWS` distinct int build keys, `ROWS / 2`
/// probe keys none of which is on the build side. The baseline is a `std`
/// `HashMap<i64, u32>` (the SwissTable `KeyIndex` replaced) doing one `get`
/// per key; the measured arm is the whole `JoinHashTable::probe` — encode,
/// id lookup, empty gather. Both tables are built outside the timed region.
fn measure_int_join_all_miss() -> Result<Measurement> {
    let [build, probe] = all_miss_fixture(ROWS, ROWS / 2, 13);
    let (map, table) = (int_join_map(&build)?, int_join_table(&build)?);
    let (baseline_naive_ns, map_check) = time_min(|| run_int_map_probe(&map, &probe))?;
    let (dict_ns, index_check) = time_min(|| run_int_join_probe(&table, &probe))?;
    assert_eq!(
        map_check, index_check,
        "int_join_all_miss: the index and the std map disagree on matches"
    );
    Ok(Measurement {
        name: "int_join_all_miss",
        baseline_naive_ns,
        dict_ns,
        check: index_check,
    })
}

fn main() -> Result<()> {
    let measurements = vec![
        measure("filter_string_eq", |b, _| run_filter(b))?,
        measure("hash_join_string_key", run_join)?,
        measure("group_by_string_key", |b, _| run_group_by(b, MORSEL))?,
        measure_filter_chain()?,
        measure("page_encode", |b, _| run_page_encode(b))?,
        measure_page_encode_int()?,
        measure("exchange_wire", |b, _| run_exchange_wire(b, MORSEL))?,
        measure_int_join_all_miss()?,
    ];

    // Cache-hit-scan measurement: every partition of a CIPF-persisted table
    // read through the tier stack, fully cold (each read opens, checksums,
    // and decodes the on-disk page file) vs fully warm (each read served
    // from the memory tier's decoded batches). The ratio is the pure cost
    // of the object-tier round trip — bench_check gates it >= 2x.
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
    let cache_hit_speedup = cache_cold_ns as f64 / cache_warm_ns.max(1) as f64;

    // Exchange payload accounting (not timed): what one dict-column stream
    // puts on the wire vs the plain-page and decoded alternatives. CI gates
    // on the wire payload beating plain and halving the decoded bytes.
    let dict = string_batch(ROWS, CARDINALITY, 11, true);
    let (wire_bytes, plain_bytes, decoded_bytes) = exchange_wire_accounting(&dict, MORSEL)?;
    // Int page accounting (not timed): the sorted-int fixture under the
    // size-picked FoR/Delta codecs vs Plain. CI gates on >= 4x compression.
    let (int_encoded_bytes, int_plain_bytes) = int_codec_accounting(&sorted_int_batch(ROWS))?;

    let mut json = String::from("{\n");
    json.push_str("  \"schema_version\": 11,\n");
    json.push_str(&format!("  \"rows\": {ROWS},\n"));
    json.push_str(&format!("  \"cardinality\": {CARDINALITY},\n"));
    json.push_str(&format!("  \"cache_cold_ns\": {cache_cold_ns},\n"));
    json.push_str(&format!("  \"cache_warm_ns\": {cache_warm_ns},\n"));
    json.push_str(&format!(
        "  \"cache_hit_speedup\": {cache_hit_speedup:.2},\n"
    ));
    json.push_str(&format!("  \"cache_parts\": {cache_parts},\n"));
    json.push_str(&format!("  \"exchange_wire_bytes\": {wire_bytes},\n"));
    json.push_str(&format!("  \"exchange_plain_bytes\": {plain_bytes},\n"));
    json.push_str(&format!("  \"exchange_decoded_bytes\": {decoded_bytes},\n"));
    json.push_str(&format!("  \"int_encoded_bytes\": {int_encoded_bytes},\n"));
    json.push_str(&format!("  \"int_plain_bytes\": {int_plain_bytes},\n"));
    json.push_str("  \"benches\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_naive_ns\": {}, \"dict_ns\": {}, \"speedup\": {:.2}, \"check\": {}}}{}\n",
            m.name,
            m.baseline_naive_ns,
            m.dict_ns,
            m.speedup(),
            m.check,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = std::env::var("BENCH_MICRO_OUT").unwrap_or_else(|_| "BENCH_micro.json".into());
    std::fs::write(&out, &json).expect("write BENCH_micro.json");

    println!(
        "{:<24} {:>14} {:>14} {:>9}",
        "kernel", "naive", "dict", "speedup"
    );
    for m in &measurements {
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
        cache_hit_speedup,
        cache_parts
    );
    println!(
        "sorted-int pages: FoR/Delta {:.1} KB vs plain {:.1} KB ({:.2}x smaller)",
        int_encoded_bytes as f64 / 1e3,
        int_plain_bytes as f64 / 1e3,
        int_plain_bytes as f64 / int_encoded_bytes.max(1) as f64
    );
    println!("wrote {out}");
    Ok(())
}
