//! Data-path microbench fixtures: the string-heavy filter / join /
//! group-by kernels the zero-copy refactor targets, and the numeric
//! predicate kernel.
//!
//! Timed by the `bench_micro` runner, which records and gates
//! `BENCH_micro.json`. Each string kernel can run over either string
//! encoding, so every measurement carries its own baseline: the `naive`
//! numbers execute the exact same operators over owned `Vec<String>`
//! columns (per-row clones, every key string hashed into the key's
//! extension table), the `dict` numbers over the dictionary-encoded path.
//! The numeric filter's baseline is the pre-kernel predicate path, kept
//! here as [`run_filter_numeric_naive`].

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use ci_exec::operators::{AggregateState, JoinHashTable};
use ci_plan::expr::{AggExpr, BinOp, ColMap, PlanExpr};
use ci_sql::ast::AggFunc;
use ci_storage::column::ColumnData;
use ci_storage::pages::{self, PageCodec, WireEncoder};
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::table::TableBuilder;
use ci_storage::tiers::{ObjectStoreDir, TierStore};
use ci_storage::value::{DataType, Value};
use ci_storage::RecordBatch;
use ci_types::{CiError, DetRng, Result, TableId};

/// Schema of the fixture batches: a string key and an int payload.
pub fn hot_schema() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("s0", DataType::Utf8),
        Field::new("s1", DataType::Int64),
    ]))
}

/// A deterministic string-keyed batch: `rows` rows over `cardinality`
/// distinct keys (`grp00042`-style, realistically sized), dict-encoded or
/// naive.
pub fn string_batch(rows: usize, cardinality: usize, seed: u64, dict: bool) -> RecordBatch {
    let mut rng = DetRng::seed_from_u64(seed);
    let strs: Vec<String> = (0..rows)
        .map(|_| format!("grp{:05}", rng.u64_below(cardinality.max(1) as u64)))
        .collect();
    let ints: Vec<i64> = (0..rows as i64).map(|i| i % 1_000).collect();
    let col = ColumnData::Utf8(strs);
    let col = if dict { col.dict_encoded() } else { col };
    RecordBatch::new(hot_schema(), vec![col, ColumnData::Int64(ints)]).expect("fixture batch")
}

/// Filter kernel: `s0 = 'grp00007'` mask + batch filter. Returns surviving
/// rows.
pub fn run_filter(batch: &RecordBatch) -> Result<usize> {
    let map = ColMap::from_slots(&[0, 1]);
    let pred = PlanExpr::bin(
        BinOp::Eq,
        PlanExpr::Col(0),
        PlanExpr::Lit(Value::from("grp00007")),
    );
    Ok(batch.filter(&pred.eval_mask(batch, &map)?)?.rows())
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
/// AND s1 < 30` as a mask, then the batch filter. Returns surviving rows.
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
    Ok(batch.filter(&pred.eval_mask(batch, &map)?)?.rows())
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

/// All-miss int-join fixture: a build batch of `build_rows` distinct even
/// keys and a probe batch of `probe_rows` odd keys from the same range — no
/// probe key is on the build side, and no range check could tell. The shape
/// a semi-join-heavy workload has and no CAB template does.
pub fn all_miss_fixture(build_rows: usize, probe_rows: usize, seed: u64) -> [RecordBatch; 2] {
    let mut rng = DetRng::seed_from_u64(seed);
    let build: Vec<i64> = (0..build_rows as i64).map(|i| 2 * i).collect();
    let probe: Vec<i64> = (0..probe_rows)
        .map(|_| 2 * rng.u64_below(build_rows.max(1) as u64) as i64 + 1)
        .collect();
    [build, probe].map(|keys| {
        let payload = ColumnData::Int64((0..keys.len() as i64).collect());
        RecordBatch::new(sorted_int_schema(), vec![ColumnData::Int64(keys), payload])
            .expect("int fixture batch")
    })
}

/// The engine arm of the all-miss kernel: a finalized [`JoinHashTable`]
/// over the build batch's key column. Built outside the timed region.
pub fn int_join_table(build: &RecordBatch) -> Result<JoinHashTable> {
    let mut ht = JoinHashTable::new(build.schema().clone(), vec![0]);
    ht.insert_batch(build.clone())?;
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
pub fn dense_join_fixture(build_rows: usize, probe_rows: usize, seed: u64) -> [RecordBatch; 2] {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut build: Vec<i64> = (0..build_rows as i64).collect();
    for i in (1..build.len()).rev() {
        build.swap(i, rng.u64_below(i as u64 + 1) as usize);
    }
    let probe: Vec<i64> = (0..probe_rows)
        .map(|_| rng.u64_below(build_rows.max(1) as u64) as i64)
        .collect();
    [build, probe].map(|keys| {
        let payload = ColumnData::Int64((0..keys.len() as i64).collect());
        RecordBatch::new(sorted_int_schema(), vec![ColumnData::Int64(keys), payload])
            .expect("int fixture batch")
    })
}

/// The engine's whole join on the int key: build a [`JoinHashTable`] over
/// `build`, probe it with `probe`. Returns joined rows.
pub fn run_int_join(build: &RecordBatch, probe: &RecordBatch) -> Result<usize> {
    let table = int_join_table(build)?;
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
pub fn wide_batch(rows: usize, cardinality: usize, seed: u64, dict: bool) -> RecordBatch {
    let mut rng = DetRng::seed_from_u64(seed);
    let strs: Vec<String> = (0..rows)
        .map(|_| format!("grp{:05}", rng.u64_below(cardinality.max(1) as u64)))
        .collect();
    let col = ColumnData::Utf8(strs);
    let mut columns = vec![if dict { col.dict_encoded() } else { col }];
    for p in 0..WIDE_PAYLOADS as i64 {
        columns.push(ColumnData::Int64(
            (0..rows as i64).map(|i| (i * (p + 3)) % 1_000).collect(),
        ));
    }
    RecordBatch::new(wide_schema(), columns).expect("wide fixture batch")
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
/// size-picked page codec. Dict-encoded inputs hit the id-remap fast path;
/// owned `Vec<String>` inputs pay per-page dictionary interning — the
/// pre-dictionary storage write path. The checksum mixes rows with encoded
/// bytes, which are value-level and therefore identical across encodings.
pub fn run_page_encode(batch: &RecordBatch) -> Result<usize> {
    let mut encoded = 0u64;
    let mut rows = 0usize;
    for col in batch.columns() {
        let (meta, bytes) = pages::encode_best(col)?;
        let decoded = pages::decode_column(&bytes)?;
        if decoded != **col {
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
pub fn sorted_int_batch(rows: usize) -> RecordBatch {
    let ids: Vec<i64> = (0..rows as i64).map(|i| 1_000_000 + i * 3).collect();
    let dates: Vec<i64> = (0..rows as i64)
        .map(|i| 20_240_000 + (i * 7) % 365)
        .collect();
    RecordBatch::new(
        sorted_int_schema(),
        vec![ColumnData::Int64(ids), ColumnData::Int64(dates)],
    )
    .expect("sorted int fixture")
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
            [PageCodec::Plain, PageCodec::Rle]
                .into_iter()
                .min_by_key(|&c| pages::encoded_size(col, c).expect("legacy codec"))
                .expect("non-empty candidate set")
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
/// and serializes each through the wire format (shared dictionaries ship
/// once, then bit-packed ids). Dict-encoded inputs are the wire fast path;
/// owned-string inputs model the no-shared-dictionary stream that must
/// rebuild and reship a dictionary per chunk. Returns the decoded bytes
/// shipped — encoding-independent, so both paths' checksums agree.
pub fn run_exchange_wire(batch: &RecordBatch, morsel: usize) -> Result<usize> {
    let mut enc = WireEncoder::new();
    let mut wire_bytes = 0usize;
    let mut off = 0;
    while off < batch.rows() {
        let len = morsel.min(batch.rows() - off);
        let chunk = batch.slice(off, len)?;
        for (i, col) in chunk.columns().iter().enumerate() {
            wire_bytes += enc.encode_column(col, i as u32)?.len();
        }
        off += len;
    }
    std::hint::black_box(wire_bytes);
    Ok(batch.byte_size())
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
        for (i, col) in chunk.columns().iter().enumerate() {
            wire += enc.column_wire_bytes(col, i as u32)?;
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

/// Partition rows of the cache-scan fixture: small enough that one table
/// spreads over many `CIPF` page files, so both arms loop over real
/// partition-granular reads.
pub const CACHE_SCAN_PART_ROWS: usize = 8_192;

/// Cache-hit-scan fixture: a dict-encoded string/int table persisted as
/// real on-disk `CIPF` page files behind a [`TierStore`]. Returns the tier
/// stack, the table id, and the partition count. The store starts fully
/// cold — every partition resident only in the object (directory) tier.
pub fn cache_scan_fixture(rows: usize) -> Result<(Arc<TierStore>, TableId, usize)> {
    let batch = string_batch(rows, 1_000, 13, true);
    let id = TableId::new(77);
    let mut b = TableBuilder::new(id, "cache_scan", hot_schema(), CACHE_SCAN_PART_ROWS)?;
    b.append(batch)?;
    let table = Arc::new(b.finish()?.dict_encoded());
    let parts = table.partitions.len();
    let store = Arc::new(ObjectStoreDir::temp()?);
    store.ensure_table(&table)?;
    Ok((Arc::new(TierStore::new(store)?), id, parts))
}

/// Promotes every partition into the memory tier, so subsequent
/// [`run_cache_hit_scan`] calls are pure cache hits.
pub fn warm_cache(tiers: &TierStore, id: TableId, parts: usize) -> Result<()> {
    for part in 0..parts {
        tiers.promote_mem(id, part as u32)?;
    }
    Ok(())
}

/// Cache-hit-scan kernel: reads every partition of the fixture table
/// through the tier stack and folds a checksum. Cold (nothing promoted)
/// every read opens the `CIPF` file, verifies its checksum, and decodes the
/// pages; warm (after [`warm_cache`]) every read is served from the memory
/// tier's decoded batches. The decoded values are identical by the
/// tier-equivalence contract, so both temperatures return one checksum and
/// the timing ratio is the pure cost of the object-tier round trip.
pub fn run_cache_hit_scan(tiers: &TierStore, id: TableId, parts: usize) -> Result<usize> {
    let mut check = 0usize;
    for part in 0..parts {
        let (batch, _served) = tiers.read_partition(id, part)?;
        check += batch.rows() + batch.columns().len();
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_across_encodings() {
        let naive = string_batch(4_000, 40, 7, false);
        let dict = string_batch(4_000, 40, 7, true);
        assert_eq!(run_filter(&dict).unwrap(), run_filter(&naive).unwrap());
        assert_eq!(
            run_page_encode(&dict).unwrap(),
            run_page_encode(&naive).unwrap()
        );
        assert_eq!(
            run_exchange_wire(&dict, 512).unwrap(),
            run_exchange_wire(&naive, 512).unwrap()
        );
        // The filter chain agrees across encodings *and* across lazy/eager
        // materialization (checksums cover values, not just counts).
        let chain = wide_batch(4_000, 1_000, 7, true);
        assert_eq!(
            run_filter_chain(&chain, false).unwrap(),
            run_filter_chain(&chain, true).unwrap()
        );
        let chain_naive = wide_batch(4_000, 1_000, 7, false);
        assert_eq!(
            run_filter_chain(&chain_naive, false).unwrap(),
            run_filter_chain(&chain, true).unwrap()
        );
        assert_eq!(
            run_group_by(&dict, 512).unwrap(),
            run_group_by(&naive, 512).unwrap()
        );
        let numeric = numeric_batch(4_000, 7).unwrap();
        assert_eq!(
            run_filter_numeric(&numeric).unwrap(),
            run_filter_numeric_naive(&numeric).unwrap()
        );
        let probe_n = string_batch(2_000, 60, 8, false);
        let probe_d = string_batch(2_000, 60, 8, true);
        assert_eq!(
            run_join(&dict, &probe_d).unwrap(),
            run_join(&naive, &probe_n).unwrap()
        );
    }

    #[test]
    fn all_miss_arms_agree_and_match_nothing() {
        let [build, probe] = all_miss_fixture(3_000, 1_000, 5);
        let ht = int_join_table(&build).unwrap();
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
        let batch = sorted_int_batch(20_000);
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
    fn cache_hit_scan_checksum_is_temperature_independent() {
        let (tiers, id, parts) = cache_scan_fixture(40_000).unwrap();
        assert!(parts > 1, "fixture must span multiple partitions");
        let cold = run_cache_hit_scan(&tiers, id, parts).unwrap();
        warm_cache(&tiers, id, parts).unwrap();
        let warm = run_cache_hit_scan(&tiers, id, parts).unwrap();
        assert_eq!(cold, warm, "cache temperature must not change the data");
        assert_eq!(tiers.mem_entries(), parts, "every partition promoted");
    }

    #[test]
    fn dict_exchange_payload_beats_plain_and_decoded() {
        let dict = string_batch(20_000, 500, 9, true);
        let (wire, plain, decoded) = exchange_wire_accounting(&dict, 4_096).unwrap();
        assert!(wire < plain, "wire {wire} must beat plain {plain}");
        assert!(
            wire * 2 <= decoded,
            "dict-column wire bytes should be >= 2x smaller than decoded: {wire} vs {decoded}"
        );
    }
}
