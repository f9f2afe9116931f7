//! Data-path microbench fixtures: the string-heavy filter / join /
//! group-by / page / wire kernels the dictionary ids target, and the
//! numeric predicate kernel.
//!
//! Timed by the `bench_micro` runner, which records and gates
//! `BENCH_micro.json`. Every measurement carries its own baseline. A string
//! kernel's `naive` number (`run_*_std`) starts from the same rows held as
//! owned `Vec<String>`s ([`OwnedRows`]) and does the work the engine did
//! before strings were interned: a column copy and a broadcast literal with
//! an `Ordering` per row, `std` maps with a string hash per key and a
//! `String` clone per output row, and a dictionary interned per page or
//! wire chunk ahead of the engine's encoders. The `dict` number runs the
//! engine over dictionary ids. The numeric filter's baseline is the
//! pre-kernel predicate path, kept here as [`run_filter_numeric_naive`].

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use ci_exec::operators::{apply_filter, AggregateState, JoinHashTable, SortBuffer};
use ci_plan::expr::{AggExpr, BinOp, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::pages::{self, PageCodec, WireEncoder, WireSketch};
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::value::{f64_sort_key, DataType, Value};
use ci_storage::RecordBatch;
use ci_types::{CiError, DetRng, Result};

/// Schema of the fixture batches: a string key and an int payload.
pub fn hot_schema() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Utf8),
        Field::new("s1", DataType::Int64),
    ]))
}

/// A deterministic string-keyed batch: `rows` rows over `cardinality`
/// distinct keys (`grp00042`-style, realistically sized), plus an int
/// payload.
pub fn string_batch(rows: usize, cardinality: usize, seed: u64) -> Result<RecordBatch> {
    let OwnedRows { keys, ints } = owned_rows(rows, cardinality, seed);
    let columns = vec![ColumnData::strings(keys), ColumnData::Int64(ints)];
    RecordBatch::new(hot_schema(), columns)
}

/// [`string_batch`]'s rows with the keys as owned strings: the input of the
/// `std` baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedRows {
    pub keys: Vec<String>,
    pub ints: Vec<i64>,
}

/// The rows `string_batch(rows, cardinality, seed)` holds, owned.
pub fn owned_rows(rows: usize, cardinality: usize, seed: u64) -> OwnedRows {
    let mut rng = DetRng::seed_from_u64(seed);
    OwnedRows {
        keys: (0..rows)
            .map(|_| format!("grp{:05}", rng.u64_below(cardinality.max(1) as u64)))
            .collect(),
        ints: (0..rows as i64).map(|i| i % 1_000).collect(),
    }
}

/// The key [`run_filter`] keeps.
const FILTER_KEY: &str = "grp00007";

/// Filter kernel: `s0 = 'grp00007'` through the engine's filter. Returns
/// surviving rows.
pub fn run_filter(batch: &RecordBatch) -> Result<usize> {
    let map = ColMap::from_slots(&[0, 1]);
    let pred = PlanExpr::bin(
        BinOp::Eq,
        PlanExpr::Col(0),
        PlanExpr::Lit(Value::from(FILTER_KEY)),
    );
    Ok(apply_filter(batch, &pred, &map)?.rows())
}

/// [`run_filter`]'s baseline, the owned-string predicate path: the key
/// column copied and the literal broadcast to a column, an `Ordering` per
/// row, then every surviving row's key cloned and payload copied out.
pub fn run_filter_std(rows: &OwnedRows) -> Result<usize> {
    let (keys, literal) = (
        rows.keys.clone(),
        vec![FILTER_KEY.to_owned(); rows.keys.len()],
    );
    let mask: Vec<bool> = (keys.iter().zip(&literal))
        .map(|(k, l)| k.cmp(l).is_eq())
        .collect();
    let kept = (0..keys.len()).filter(|&i| mask[i]);
    let out: Vec<(String, i64)> = kept.map(|i| (keys[i].clone(), rows.ints[i])).collect();
    Ok(std::hint::black_box(out).len())
}

/// Schema of the numeric filter fixture: a `Float64` discount and an
/// `Int64` quantity, the columns CAB's Q6 filters `lineitem` on.
pub fn numeric_schema() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Float64),
        Field::new("s1", DataType::Int64),
    ]))
}

/// A deterministic numeric batch: discounts `0.00..=0.10` in steps of 0.01
/// and quantities `1..=50`, drawn independently per row, so the verdicts
/// of the Q6 predicate scatter (about a quarter of the rows survive).
pub fn numeric_batch(rows: usize, seed: u64) -> Result<RecordBatch> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut discounts = Vec::with_capacity(rows);
    let mut quantities = Vec::with_capacity(rows);
    for _ in 0..rows {
        discounts.push(rng.u64_below(11) as f64 / 100.0);
        quantities.push(1 + rng.u64_below(50) as i64);
    }
    let columns = vec![
        ColumnData::Float64(discounts),
        ColumnData::Int64(quantities),
    ];
    RecordBatch::new(numeric_schema(), columns)
}

/// Numeric filter kernel: the Q6 predicate shape `s0 >= 0.02 AND s0 <= 0.06
/// AND s1 < 30` through the engine's filter, which refines one survivor
/// list conjunct by conjunct. Returns surviving rows.
pub fn run_filter_numeric(batch: &RecordBatch) -> Result<usize> {
    let cmp = |op, slot, v| PlanExpr::bin(op, PlanExpr::Col(slot), PlanExpr::Lit(v));
    let pred = PlanExpr::bin(
        BinOp::And,
        PlanExpr::bin(
            BinOp::And,
            cmp(BinOp::GtEq, 0, Value::Float(0.02)),
            cmp(BinOp::LtEq, 0, Value::Float(0.06)),
        ),
        cmp(BinOp::Lt, 1, Value::Int(30)),
    );
    let map = ColMap::from_slots(&[0, 1]);
    Ok(apply_filter(batch, &pred, &map)?.rows())
}

/// [`run_filter_numeric`]'s baseline: the predicate path before comparisons
/// became kernels. Each comparison deep-copies its column and broadcasts
/// its literal, float operands are copied once more into `f64` vectors,
/// every row maps an `Ordering` to a verdict, each `AND` zips two masks into
/// a third, and the survivors are collected by `filter`.
pub fn run_filter_numeric_naive(batch: &RecordBatch) -> Result<usize> {
    let n = batch.rows();
    let floats = |lit: f64, keep: fn(Ordering) -> bool| -> Result<Vec<bool>> {
        let (col, lit) = (batch.column(0).clone(), ColumnData::Float64(vec![lit; n]));
        let (a, b) = (col.as_f64()?.to_vec(), lit.as_f64()?.to_vec());
        let ord = |(x, y): (&f64, &f64)| x.partial_cmp(y).unwrap_or(Ordering::Equal);
        Ok(a.iter().zip(&b).map(|p| keep(ord(p))).collect())
    };
    let ge = floats(0.02, |o| o != Ordering::Less)?;
    let le = floats(0.06, |o| o != Ordering::Greater)?;
    let (col, lit) = (batch.column(1).clone(), ColumnData::Int64(vec![30; n]));
    let lt: Vec<bool> = (col.as_i64()?.iter().zip(lit.as_i64()?))
        .map(|(x, y)| x.cmp(y) == Ordering::Less)
        .collect();
    let both: Vec<bool> = ge.iter().zip(&le).map(|(x, y)| *x && *y).collect();
    let mask: Vec<bool> = both.iter().zip(&lt).map(|(x, y)| *x && *y).collect();
    let survivors: Vec<u32> = (mask.iter().enumerate())
        .filter(|&(_, &k)| k)
        .map(|(i, _)| i as u32)
        .collect();
    Ok(std::hint::black_box(survivors).len())
}

/// Distinct order dates of the `filter_between_int` fixture and the first
/// and last day of its window: CAB's `o_date` domain and a Q2 window of 31
/// days, which keeps ≈ 1.3 % of the rows.
const DATE_DAYS: u64 = 2_400;
const WINDOW: (i64, i64) = (1_000, 1_030);

/// Schema of the date fixture: an `Int64` order date and an `Int64` id.
pub fn date_schema() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Int64),
        Field::new("s1", DataType::Int64),
    ]))
}

/// A deterministic orders-like batch: dates drawn uniformly from
/// `0..DATE_DAYS` and ids `0..rows`.
pub fn date_batch(rows: usize, seed: u64) -> Result<RecordBatch> {
    let mut rng = DetRng::seed_from_u64(seed);
    let dates = (0..rows).map(|_| rng.u64_below(DATE_DAYS) as i64).collect();
    let ids = (0..rows as i64).collect();
    let columns = vec![ColumnData::Int64(dates), ColumnData::Int64(ids)];
    RecordBatch::new(date_schema(), columns)
}

/// The surviving rows plus a checksum of their ids, read from the dense
/// batch a sparse filter leaves.
fn id_checksum(kept: &RecordBatch) -> Result<usize> {
    let ids = kept.compacted();
    let sum: i64 = ids.column(1).as_i64()?.iter().sum();
    Ok(kept.rows() + (sum % 100_003) as usize)
}

/// Q2's filter, `s0 BETWEEN lo AND hi` (bound as `s0 >= lo AND s0 <= hi`),
/// over each morsel through the engine's filter: both bounds fold into one
/// interval, one unsigned compare per row writes the survivor list.
pub fn run_filter_between_int(morsels: &[RecordBatch]) -> Result<usize> {
    let bound = |op, y| PlanExpr::bin(op, PlanExpr::Col(0), PlanExpr::Lit(Value::Int(y)));
    let pred = PlanExpr::bin(
        BinOp::And,
        bound(BinOp::GtEq, WINDOW.0),
        bound(BinOp::LtEq, WINDOW.1),
    );
    let map = ColMap::from_slots(&[0, 1]);
    morsels.iter().try_fold(0, |acc, m| {
        Ok(acc + id_checksum(&apply_filter(m, &pred, &map)?)?)
    })
}

/// [`run_filter_between_int`]'s baseline, the mask path filters took
/// before they refined a survivor list: one branch-free `Vec<bool>` per
/// comparison, the second folded into the first, then
/// [`RecordBatch::filter`] counts the survivors, collects their indices
/// and compacts the sparse result.
pub fn run_filter_between_int_mask(morsels: &[RecordBatch]) -> Result<usize> {
    let (lo, hi) = WINDOW;
    morsels.iter().try_fold(0, |acc, m| {
        let dates = m.column(0).as_i64()?;
        let mut mask: Vec<bool> = dates.iter().map(|&x| x >= lo).collect();
        let le: Vec<bool> = dates.iter().map(|&x| x <= hi).collect();
        mask.iter_mut().zip(&le).for_each(|(m, &r)| *m &= r);
        Ok(acc + id_checksum(&m.filter(&mask)?)?)
    })
}

/// Hash-join kernel on the string key: build over `build`, probe with
/// `probe`. Returns joined rows.
pub fn run_join(build: &RecordBatch, probe: &RecordBatch) -> Result<usize> {
    let out_schema = Arc::new(Schema::of(vec![
        Field::new("p0", DataType::Utf8),
        Field::new("p1", DataType::Int64),
        Field::new("b0", DataType::Utf8),
        Field::new("b1", DataType::Int64),
    ]));
    let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
    ht.insert_batch(build.clone())?;
    ht.finalize()?;
    Ok(ht.probe(probe, &[0], out_schema)?.rows())
}

/// [`run_join`]'s baseline: a `std` `HashMap<&str, Vec<usize>>` of key →
/// build rows (a string hash per build and per probe key), then both sides'
/// columns gathered by the matched row pairs, every key `String` cloned.
/// Returns joined rows.
pub fn run_join_std(build: &OwnedRows, probe: &OwnedRows) -> Result<usize> {
    let mut map: HashMap<&str, Vec<usize>> = HashMap::new();
    for (row, key) in build.keys.iter().enumerate() {
        map.entry(key).or_default().push(row);
    }
    let (mut probe_rows, mut build_rows) = (Vec::new(), Vec::new());
    for (p, key) in probe.keys.iter().enumerate() {
        for &b in map.get(key.as_str()).into_iter().flatten() {
            probe_rows.push(p);
            build_rows.push(b);
        }
    }
    let gather = |side: &OwnedRows, rows: &[usize]| -> (Vec<String>, Vec<i64>) {
        let keys = rows.iter().map(|&r| side.keys[r].clone()).collect();
        (keys, rows.iter().map(|&r| side.ints[r]).collect())
    };
    std::hint::black_box((gather(probe, &probe_rows), gather(build, &build_rows)));
    Ok(probe_rows.len())
}

/// All-miss int-join fixture: a build batch of `build_rows` distinct even
/// keys and a probe batch of `probe_rows` odd keys from the same range — no
/// probe key is on the build side, and no range check could tell. The shape
/// a semi-join-heavy workload has and no CAB template does.
pub fn all_miss_fixture(
    build_rows: usize,
    probe_rows: usize,
    seed: u64,
) -> Result<[RecordBatch; 2]> {
    let mut rng = DetRng::seed_from_u64(seed);
    let build: Vec<i64> = (0..build_rows as i64).map(|i| 2 * i).collect();
    let probe: Vec<i64> = (0..probe_rows)
        .map(|_| 2 * rng.u64_below(build_rows.max(1) as u64) as i64 + 1)
        .collect();
    int_key_batches([build, probe])
}

/// A finalized [`JoinHashTable`] over the key column of the build rows,
/// fed one morsel at a time (the all-miss kernel builds it outside the
/// timed region).
pub fn int_join_table(build_morsels: &[RecordBatch]) -> Result<JoinHashTable> {
    let mut ht = JoinHashTable::new(sorted_int_schema(), vec![0]);
    for morsel in build_morsels {
        ht.insert_batch(morsel.clone())?;
    }
    ht.finalize()?;
    Ok(ht)
}

/// The reference arm: the build keys in a `std` SwissTable, key → row.
pub fn int_join_map(build: &RecordBatch) -> Result<HashMap<i64, u32>> {
    let keys = build.column(0).as_i64()?;
    Ok(keys.iter().copied().zip(0u32..).collect())
}

/// All-miss probe through the engine: encode → ids → (no) matches → the
/// empty joined batch. Returns probe rows plus joined rows.
pub fn run_int_join_probe(ht: &JoinHashTable, probe: &RecordBatch) -> Result<usize> {
    let fields = ["p0", "p1", "b0", "b1"].map(|name| Field::new(name, DataType::Int64));
    let out_schema = Arc::new(Schema::of(fields.to_vec()));
    Ok(probe.rows() + ht.probe(probe, &[0], out_schema)?.rows())
}

/// The same probe against the `std` map: one `get` per probe key, matches
/// collected the way a join would. Returns probe rows plus matches.
pub fn run_int_map_probe(map: &HashMap<i64, u32>, probe: &RecordBatch) -> Result<usize> {
    let keys = probe.column(0).as_i64()?;
    let matches: Vec<u32> = keys.iter().filter_map(|k| map.get(k).copied()).collect();
    Ok(keys.len() + matches.len())
}

/// Dense FK → PK fixture, CAB's join shape: a build batch of `build_rows`
/// distinct ids `0..build_rows` in shuffled order (the primary keys) and a
/// probe batch of `probe_rows` references drawn from them (the foreign
/// keys) — every probe row finds exactly one build row.
pub fn dense_join_fixture(
    build_rows: usize,
    probe_rows: usize,
    seed: u64,
) -> Result<[RecordBatch; 2]> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut build: Vec<i64> = (0..build_rows as i64).collect();
    for i in (1..build.len()).rev() {
        build.swap(i, rng.u64_below(i as u64 + 1) as usize);
    }
    let probe: Vec<i64> = (0..probe_rows)
        .map(|_| rng.u64_below(build_rows.max(1) as u64) as i64)
        .collect();
    int_key_batches([build, probe])
}

/// Fan-out fixture, the shape of Q4's and Q9's `lineitem` builds: a build
/// batch of `keys × per_key` rows, every key in `0..keys` `per_key` times in
/// shuffled order, and a probe batch of `probe_rows` keys drawn from
/// `0..keys` — every probe row finds exactly `per_key` build rows.
pub fn fanout_join_fixture(
    keys: usize,
    per_key: usize,
    probe_rows: usize,
    seed: u64,
) -> Result<[RecordBatch; 2]> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut build: Vec<i64> = (0..(keys * per_key) as i64)
        .map(|i| i / per_key as i64)
        .collect();
    for i in (1..build.len()).rev() {
        build.swap(i, rng.u64_below(i as u64 + 1) as usize);
    }
    let probe: Vec<i64> = (0..probe_rows)
        .map(|_| rng.u64_below(keys.max(1) as u64) as i64)
        .collect();
    int_key_batches([build, probe])
}

/// The build and probe keys of an int-join fixture as batches of the key
/// and a row-number payload.
fn int_key_batches(sides: [Vec<i64>; 2]) -> Result<[RecordBatch; 2]> {
    let [build, probe] = sides.map(|keys| {
        let payload = ColumnData::Int64((0..keys.len() as i64).collect());
        RecordBatch::new(sorted_int_schema(), vec![ColumnData::Int64(keys), payload])
    });
    Ok([build?, probe?])
}

/// Rows the top-k kernel keeps: Q10's `LIMIT 100`.
pub const TOPK_LIMIT: usize = 100;

/// The top-k fixture, Q10's shape: an order total `s0` in cents up to
/// 10 000 (so some totals repeat and the second key decides) and a
/// distinct id `s1`, in arrival order.
pub fn topk_batch(rows: usize, seed: u64) -> Result<RecordBatch> {
    let mut rng = DetRng::seed_from_u64(seed);
    let totals = (0..rows)
        .map(|_| rng.u64_below(1_000_000) as f64 / 100.0)
        .collect();
    let columns = vec![
        ColumnData::Float64(totals),
        ColumnData::Int64((0..rows as i64).collect()),
    ];
    RecordBatch::new(numeric_schema(), columns)
}

/// [`topk_batch`]'s rows, owned: the input of the `std` top-k baseline.
pub fn topk_rows(batch: &RecordBatch) -> Result<Vec<(f64, i64)>> {
    let (totals, ids) = (batch.column(0).as_f64()?, batch.column(1).as_i64()?);
    Ok(totals.iter().copied().zip(ids.iter().copied()).collect())
}

/// The ids of a top-k result folded in order, so both arms must agree on
/// which rows won and on their order.
fn topk_check(ids: impl Iterator<Item = i64>) -> usize {
    ids.fold(0usize, |acc, id| {
        acc.wrapping_mul(31).wrapping_add(id as usize)
    })
}

/// Top-k kernel: `ORDER BY s0 DESC, s1 LIMIT` [`TOPK_LIMIT`] through the
/// engine's [`SortBuffer`], fed the morsels as a scan streams them.
/// Returns the ordered ids' checksum.
pub fn run_topk_sort(morsels: &[RecordBatch]) -> Result<usize> {
    let mut sort =
        SortBuffer::new(numeric_schema(), vec![(0, false), (1, true)]).with_limit(Some(TOPK_LIMIT));
    for m in morsels {
        sort.push(m.clone());
    }
    let out = sort.finalize()?;
    Ok(topk_check(out.column(1).as_i64()?.iter().copied()))
}

/// [`run_topk_sort`]'s baseline: the owned rows copied, fully sorted by
/// `std` in the same order, and truncated.
pub fn run_topk_sort_std(rows: &[(f64, i64)]) -> Result<usize> {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| {
        f64_sort_key(b.0)
            .cmp(&f64_sort_key(a.0))
            .then(a.1.cmp(&b.1))
    });
    rows.truncate(TOPK_LIMIT);
    Ok(topk_check(rows.iter().map(|r| r.1)))
}

/// `batch` cut into consecutive morsels of `rows` rows (the last shorter),
/// as a scan would stream it into a join build.
pub fn morsels(batch: &RecordBatch, rows: usize) -> Result<Vec<RecordBatch>> {
    (0..batch.rows())
        .step_by(rows.max(1))
        .map(|at| batch.slice(at, rows.min(batch.rows() - at)))
        .collect()
}

/// The engine's whole join on the int key: build a [`JoinHashTable`] from
/// the build morsels, probe it with `probe`. Returns joined rows.
pub fn run_int_join(build_morsels: &[RecordBatch], probe: &RecordBatch) -> Result<usize> {
    let table = int_join_table(build_morsels)?;
    let fields = ["p0", "p1", "b0", "b1"].map(|name| Field::new(name, DataType::Int64));
    let out_schema = Arc::new(Schema::of(fields.to_vec()));
    Ok(table.probe(probe, &[0], out_schema)?.rows())
}

/// The same join over a `std` `HashMap<i64, Vec<u32>>` of key → build rows:
/// one `get` per probe key, then both sides' columns gathered by the
/// matched row numbers as the engine's output is. Returns joined rows.
pub fn run_int_map_join(build: &RecordBatch, probe: &RecordBatch) -> Result<usize> {
    let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
    for (row, &key) in (0u32..).zip(build.column(0).as_i64()?) {
        map.entry(key).or_default().push(row);
    }
    let (mut probe_rows, mut build_rows) = (Vec::new(), Vec::new());
    for (row, key) in probe.column(0).as_i64()?.iter().enumerate() {
        for &b in map.get(key).map_or(&[][..], Vec::as_slice) {
            probe_rows.push(row);
            build_rows.push(b as usize);
        }
    }
    let mut joined = Vec::new();
    for (batch, rows) in [(probe, &probe_rows), (build, &build_rows)] {
        for c in 0..2 {
            let col = batch.column(c).as_i64()?;
            joined.push(rows.iter().map(|&r| col[r]).collect::<Vec<i64>>());
        }
    }
    Ok(std::hint::black_box(joined)[0].len())
}

/// Number of integer payload columns in the wide filter-chain fixture.
pub const WIDE_PAYLOADS: usize = 5;

/// Schema of the filter-chain fixture: a string key plus [`WIDE_PAYLOADS`]
/// integer payload columns — the "carry the whole row through the WHERE
/// clause" shape where per-operator materialization hurts most.
pub fn wide_schema() -> SchemaRef {
    let mut fields = vec![Field::new("s0", DataType::Utf8)];
    fields.extend((1..=WIDE_PAYLOADS).map(|i| Field::new(format!("s{i}"), DataType::Int64)));
    Arc::new(Schema::of(fields))
}

/// A deterministic wide batch: the same string key distribution as
/// [`string_batch`] plus [`WIDE_PAYLOADS`] int payload columns.
pub fn wide_batch(rows: usize, cardinality: usize, seed: u64) -> Result<RecordBatch> {
    let keys = owned_rows(rows, cardinality, seed).keys;
    let mut columns = vec![ColumnData::strings(keys)];
    for p in 0..WIDE_PAYLOADS as i64 {
        columns.push(ColumnData::Int64(
            (0..rows as i64).map(|i| (i * (p + 3)) % 1_000).collect(),
        ));
    }
    RecordBatch::new(wide_schema(), columns)
}

/// Filter-chain kernel over the wide fixture: four successive string
/// filters followed by a column projection and a checksum read, the shape
/// the selection-vector refactor targets. With `eager` set, every filter
/// compacts its survivors immediately — the pre-selection-vector data path
/// that gathered every column at every operator; without it, batches carry
/// a composed [`ci_storage::SelectionVector`] and nothing is materialized
/// until the final checksum read.
pub fn run_filter_chain(batch: &RecordBatch, eager: bool) -> Result<usize> {
    let slots: Vec<usize> = (0..=WIDE_PAYLOADS).collect();
    let map = ColMap::from_slots(&slots);
    let str_lit = |s: &str| PlanExpr::Lit(Value::from(s));
    let preds = [
        PlanExpr::bin(BinOp::Lt, PlanExpr::Col(0), str_lit("grp00700")),
        PlanExpr::bin(BinOp::GtEq, PlanExpr::Col(0), str_lit("grp00150")),
        PlanExpr::bin(BinOp::NotEq, PlanExpr::Col(0), str_lit("grp00400")),
        PlanExpr::bin(BinOp::LtEq, PlanExpr::Col(0), str_lit("grp00640")),
    ];
    let mut cur = batch.clone();
    for pred in &preds {
        cur = ci_exec::operators::apply_filter(&cur, pred, &map)?;
        if eager {
            cur = cur.compacted();
        }
    }
    let out_schema = Arc::new(Schema::of(vec![Field::new("v", DataType::Int64)]));
    let exprs = vec![(PlanExpr::Col(1), "v".to_owned())];
    let projected = ci_exec::operators::apply_project(&cur, &exprs, &map, out_schema)?;
    // The sink: materialize and checksum the surviving payload.
    let dense = projected.compacted();
    let sum: i64 = dense.column(0).as_i64()?.iter().sum();
    Ok(dense.rows() + (sum % 100_003) as usize)
}

/// Page encode/decode kernel: round-trips every column through its
/// size-picked page codec; the string column takes the id-remap path. The
/// checksum mixes rows with encoded bytes, which are value-level, so
/// [`run_page_encode_std`] must agree.
pub fn run_page_encode(batch: &RecordBatch) -> Result<usize> {
    round_trip_pages(batch.columns().iter().map(|c| &**c))
}

/// [`run_page_encode`]'s baseline, the owned-string storage write path:
/// the page interns the keys into a dictionary of its own (a string hash
/// per row), then takes the same round trip.
pub fn run_page_encode_std(rows: &OwnedRows) -> Result<usize> {
    let columns = [
        ColumnData::strings(&rows.keys),
        ColumnData::Int64(rows.ints.clone()),
    ];
    round_trip_pages(columns.iter())
}

fn round_trip_pages<'a>(columns: impl Iterator<Item = &'a ColumnData>) -> Result<usize> {
    let mut encoded = 0u64;
    let mut rows = 0usize;
    for col in columns {
        let (meta, bytes) = pages::encode_best(col)?;
        let decoded = pages::decode_column(&bytes)?;
        if decoded != *col {
            return Err(CiError::Storage("page round-trip disagreed".into()));
        }
        encoded += meta.encoded_bytes;
        rows += decoded.len();
    }
    Ok(rows + (encoded % 100_003) as usize)
}

/// Schema of the sorted-int fixture: a clustered id column and a
/// small-domain date column — the shape a recluster produces.
pub fn sorted_int_schema() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Int64),
        Field::new("s1", DataType::Int64),
    ]))
}

/// A deterministic sorted-int batch: `rows` clustered ids (sorted, stride
/// 3) plus a `yyyymmdd`-style date column over a 365-value domain. The
/// fixture the frame-of-reference / delta codecs target: ids collapse under
/// Delta, dates under FoR.
pub fn sorted_int_batch(rows: usize) -> Result<RecordBatch> {
    let ids: Vec<i64> = (0..rows as i64).map(|i| 1_000_000 + i * 3).collect();
    let dates: Vec<i64> = (0..rows as i64)
        .map(|i| 20_240_000 + (i * 7) % 365)
        .collect();
    RecordBatch::new(
        sorted_int_schema(),
        vec![ColumnData::Int64(ids), ColumnData::Int64(dates)],
    )
}

/// Scans each written page pays for in the int kernel: pages are encoded
/// once (load / recluster) but fetched and decoded on every scan, so the
/// storage read path dominates real workloads — the kernel mirrors that
/// ratio.
pub const INT_PAGE_SCANS: usize = 8;

/// Int page kernel over the sorted-int fixture: size-pick a codec, encode
/// each column once, then decode it [`INT_PAGE_SCANS`] times and checksum
/// the decoded values (the recurring scan cost the cost model charges).
/// With `int_codecs` the full candidate set applies (FoR for the date
/// column, Delta for the sorted ids — a few bits per row); without it the
/// picker sees only the pre-int-codec candidates (Plain/RLE, which on this
/// fixture means Plain: 8 bytes per row through every decode). The
/// checksum covers decoded values, so both paths must agree.
pub fn run_page_encode_int(batch: &RecordBatch, int_codecs: bool) -> Result<usize> {
    let mut sum = 0i64;
    let mut rows = 0usize;
    for col in batch.columns() {
        let codec = if int_codecs {
            pages::pick_codec(col)
        } else {
            // The legacy picker: same size-based choice, int codecs absent.
            let rle = pages::encoded_size(col, PageCodec::Rle)?;
            if rle < pages::encoded_size(col, PageCodec::Plain)? {
                PageCodec::Rle
            } else {
                PageCodec::Plain
            }
        };
        let (_, bytes) = pages::encode_column(col, codec)?;
        for _ in 0..INT_PAGE_SCANS {
            let decoded = pages::decode_column(&bytes)?;
            for &x in decoded.as_i64()? {
                sum = sum.wrapping_add(x);
            }
            rows += decoded.len();
        }
    }
    Ok(rows / INT_PAGE_SCANS + (sum.rem_euclid(100_003)) as usize)
}

/// Byte accounting of the sorted-int fixture, for the CI gate (not timed):
/// `(int_encoded, plain)` — the summed page sizes under the size-picked
/// int codecs vs Plain. `bench_micro` gates `plain >= 4 × int_encoded`.
pub fn int_codec_accounting(batch: &RecordBatch) -> Result<(u64, u64)> {
    let mut encoded = 0u64;
    let mut plain = 0u64;
    for col in batch.columns() {
        encoded += pages::encoded_size(col, pages::pick_codec(col))?;
        plain += pages::encoded_size(col, PageCodec::Plain)?;
    }
    Ok((encoded, plain))
}

/// Exchange serialization kernel: splits the batch into `morsel`-row chunks
/// and serializes each through the wire format (the shared dictionary
/// ships once, then bit-packed ids). Returns the decoded bytes shipped —
/// value-level, so [`run_exchange_wire_std`] agrees.
pub fn run_exchange_wire(batch: &RecordBatch, morsel: usize) -> Result<usize> {
    ship(morsels(batch, morsel)?.into_iter().map(Ok))
}

/// [`run_exchange_wire`]'s baseline, the owned-string stream with no shared
/// dictionary: every `morsel`-row chunk interns its keys into a dictionary
/// of its own, which the stream then ships with the chunk.
pub fn run_exchange_wire_std(rows: &OwnedRows, morsel: usize) -> Result<usize> {
    let (keys, ints) = (rows.keys.chunks(morsel), rows.ints.chunks(morsel));
    ship(keys.zip(ints).map(|(k, i)| {
        let columns = vec![ColumnData::strings(k), ColumnData::Int64(i.to_vec())];
        RecordBatch::new(hot_schema(), columns)
    }))
}

/// Serializes `chunks` as one wire stream; returns their decoded bytes.
fn ship(chunks: impl Iterator<Item = Result<RecordBatch>>) -> Result<usize> {
    let mut enc = WireEncoder::new();
    let (mut wire_bytes, mut decoded) = (0usize, 0usize);
    for chunk in chunks {
        let chunk = chunk?;
        let blobs = enc.encode_sketched(&chunk, &WireSketch::of(&chunk))?;
        wire_bytes += blobs.iter().map(Vec::len).sum::<usize>();
        decoded += chunk.byte_size();
    }
    std::hint::black_box(wire_bytes);
    Ok(decoded)
}

/// Byte accounting of one exchanged stream, for the CI gate (not timed):
/// `(wire, plain, decoded)` — wire-format bytes with one-time dictionaries,
/// plain-page bytes (the pre-wire-format payload: decoded values per
/// chunk), and the decoded logical bytes.
pub fn exchange_wire_accounting(batch: &RecordBatch, morsel: usize) -> Result<(u64, u64, u64)> {
    let mut enc = WireEncoder::new();
    let mut wire = 0u64;
    let mut plain = 0u64;
    let mut off = 0;
    while off < batch.rows() {
        let len = morsel.min(batch.rows() - off);
        let chunk = batch.slice(off, len)?;
        wire += enc.sketched_wire_bytes(&chunk, &WireSketch::of(&chunk))?;
        for col in chunk.columns() {
            plain += pages::encoded_size(col, PageCodec::Plain)?;
        }
        off += len;
    }
    Ok((wire, plain, batch.byte_size() as u64))
}

/// Group-by kernel on the string key: `COUNT(*), SUM(s1) GROUP BY s0`, fed
/// in `morsel`-row chunks. Returns the group count.
pub fn run_group_by(batch: &RecordBatch, morsel: usize) -> Result<usize> {
    let out = Arc::new(Schema::of(vec![
        Field::new("g", DataType::Utf8),
        Field::new("cnt", DataType::Int64),
        Field::new("sum", DataType::Int64),
    ]));
    let types = |s: usize| -> Result<DataType> {
        Ok(if s == 0 {
            DataType::Utf8
        } else {
            DataType::Int64
        })
    };
    let mut st = AggregateState::new(
        vec![PlanExpr::Col(0)],
        vec![
            AggExpr {
                func: AggFunc::Count,
                arg: None,
                distinct: false,
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(PlanExpr::Col(1)),
                distinct: false,
            },
        ],
        ColMap::from_slots(&[0, 1]),
        &types,
        out,
    )?;
    let mut off = 0;
    while off < batch.rows() {
        let len = morsel.min(batch.rows() - off);
        st.update(&batch.slice(off, len)?)?;
        off += len;
    }
    Ok(st.finalize()?.rows())
}

/// [`run_group_by`]'s baseline: a `std` `HashMap<String, usize>` of key →
/// group (a string hash per row, the key cloned for each new group) with a
/// count and a sum per group, each group's key cloned into the output.
/// Returns the group count.
pub fn run_group_by_std(rows: &OwnedRows) -> Result<usize> {
    let mut groups: HashMap<String, usize> = HashMap::new();
    let mut out: Vec<(String, i64, i64)> = Vec::new();
    for (key, &x) in rows.keys.iter().zip(&rows.ints) {
        let g = *groups.get(key).unwrap_or(&out.len());
        if g == out.len() {
            groups.insert(key.clone(), g);
            out.push((key.clone(), 0, 0));
        }
        (out[g].1, out[g].2) = (out[g].1 + 1, out[g].2 + x);
    }
    Ok(std::hint::black_box(out).len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_across_encodings() {
        let owned = owned_rows(4_000, 40, 7);
        let dict = string_batch(4_000, 40, 7).unwrap();
        assert_eq!(dict.column(0), &ColumnData::strings(&owned.keys));
        assert_eq!(run_filter(&dict).unwrap(), run_filter_std(&owned).unwrap());
        assert_eq!(
            run_page_encode(&dict).unwrap(),
            run_page_encode_std(&owned).unwrap()
        );
        assert_eq!(
            run_exchange_wire(&dict, 512).unwrap(),
            run_exchange_wire_std(&owned, 512).unwrap()
        );
        // The filter chain agrees across lazy/eager materialization
        // (checksums cover values, not just counts).
        let chain = wide_batch(4_000, 1_000, 7).unwrap();
        assert_eq!(
            run_filter_chain(&chain, false).unwrap(),
            run_filter_chain(&chain, true).unwrap()
        );
        assert_eq!(
            run_group_by(&dict, 512).unwrap(),
            run_group_by_std(&owned).unwrap()
        );
        let numeric = numeric_batch(4_000, 7).unwrap();
        assert_eq!(
            run_filter_numeric(&numeric).unwrap(),
            run_filter_numeric_naive(&numeric).unwrap()
        );
        let dates = morsels(&date_batch(20_000, 7).unwrap(), 1_024).unwrap();
        let kept = run_filter_between_int(&dates).unwrap();
        assert_eq!(kept, run_filter_between_int_mask(&dates).unwrap());
        assert!(kept > 0, "the window keeps rows");
        let probe_n = owned_rows(2_000, 60, 8);
        let probe_d = string_batch(2_000, 60, 8).unwrap();
        assert_eq!(
            run_join(&dict, &probe_d).unwrap(),
            run_join_std(&owned, &probe_n).unwrap()
        );
    }

    #[test]
    fn topk_arms_agree_on_the_winners_and_their_order() {
        let batch = topk_batch(5_000, 7).unwrap();
        let rows = topk_rows(&batch).unwrap();
        let want = run_topk_sort_std(&rows).unwrap();
        assert_eq!(run_topk_sort(&morsels(&batch, 512).unwrap()).unwrap(), want);
        // The check binds the order, not only the set of winners.
        let mut sorted = rows.clone();
        sorted.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let ids = sorted[..TOPK_LIMIT].iter().map(|r| r.1);
        assert_eq!(topk_check(ids.clone()), want);
        assert_ne!(topk_check(ids.rev()), want);
    }

    #[test]
    fn join_arms_agree_on_every_fixture() {
        let [build, probe] = fanout_join_fixture(500, 4, 700, 5).unwrap();
        assert_eq!(build.rows(), 2_000);
        let cut = morsels(&build, 300).unwrap();
        assert_eq!(cut.len(), 7);
        assert_eq!(RecordBatch::concat(&cut).unwrap(), build);
        // Every probe row finds its key's four build rows.
        assert_eq!(run_int_map_join(&build, &probe).unwrap(), 2_800);
        assert_eq!(run_int_join(&cut, &probe).unwrap(), 2_800);
        let [build, probe] = dense_join_fixture(1_000, 3_000, 6).unwrap();
        assert_eq!(run_int_map_join(&build, &probe).unwrap(), 3_000);
        assert_eq!(run_int_join(&[build], &probe).unwrap(), 3_000);
    }

    #[test]
    fn all_miss_arms_agree_and_match_nothing() {
        let [build, probe] = all_miss_fixture(3_000, 1_000, 5).unwrap();
        let ht = int_join_table(std::slice::from_ref(&build)).unwrap();
        let map = int_join_map(&build).unwrap();
        assert_eq!(map.len(), 3_000, "build keys are distinct");
        assert_eq!(run_int_join_probe(&ht, &probe).unwrap(), 1_000);
        assert_eq!(run_int_map_probe(&map, &probe).unwrap(), 1_000);
        // Both arms do find a key that is there.
        assert_eq!(run_int_join_probe(&ht, &build).unwrap(), 6_000);
        assert_eq!(run_int_map_probe(&map, &build).unwrap(), 6_000);
    }

    #[test]
    fn int_codec_kernel_agrees_and_compresses_4x() {
        let batch = sorted_int_batch(20_000).unwrap();
        assert_eq!(
            run_page_encode_int(&batch, true).unwrap(),
            run_page_encode_int(&batch, false).unwrap(),
            "int codecs must decode to the same values as Plain"
        );
        let (encoded, plain) = int_codec_accounting(&batch).unwrap();
        assert!(
            plain >= 4 * encoded,
            "sorted-int fixture must encode >= 4x smaller than Plain: {encoded} vs {plain}"
        );
    }

    #[test]
    fn dict_exchange_payload_beats_plain_and_decoded() {
        let dict = string_batch(20_000, 500, 9).unwrap();
        let (wire, plain, decoded) = exchange_wire_accounting(&dict, 4_096).unwrap();
        assert!(wire < plain, "wire {wire} must beat plain {plain}");
        assert!(
            wire * 2 <= decoded,
            "dict-column wire bytes should be >= 2x smaller than decoded: {wire} vs {decoded}"
        );
    }
}
