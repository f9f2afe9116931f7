//! Oracles for building and reclustering tables.
//!
//! * `TableBuilder` cuts partitions off each appended batch as it arrives.
//!   Whatever the sequence of batch sizes (empty, short, exact multiples of
//!   the partition size, up to three partitions' worth) and whether a batch
//!   carries a selection, the partitions must equal those of the reference:
//!   concatenate every batch, then cut. Equal means the same rows (floats by
//!   bits), the same dictionary `Arc`, and the same zone maps, pages and
//!   wire sketch. Column `s` carries a fresh dictionary per batch, so the
//!   builder may hold a partition's strings over another dictionary than
//!   the reference's: the reference is then compared re-expressed over the
//!   builder's dictionary (the same values, the ids that dictionary gives
//!   them), which moves no zone map or page, only the ids a wire page
//!   ships.
//! * `Table::reclustered_by` sorts on the key column's own type; its
//!   partitions must equal those of a stable sort comparing `Value`s with
//!   `partial_cmp_sql`, then cut. Where that leaves a pair unordered (a NaN
//!   is involved), NaN sorts after every number.

use std::sync::Arc;

use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::partition::MicroPartition;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::table::{Table, TableBuilder};
use ci_storage::value::{DataType, Value};
use ci_types::{DetRng, TableId};

fn schema() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("i", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("s", DataType::Utf8),
        Field::new("d", DataType::Utf8),
        Field::new("b", DataType::Bool),
    ]))
}

fn shared_dict() -> Arc<Dictionary> {
    let mut d = Dictionary::new();
    for s in ["", "apple", "kiwi", "fig", "banana", "date"] {
        d.intern(s);
    }
    Arc::new(d)
}

fn float_value(r: &mut DetRng) -> f64 {
    let specials = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    if r.bool_with(0.25) {
        *r.choose(&specials)
    } else {
        // Few distinct values, so the sort has ties to keep stable.
        r.range_i64(-4, 4) as f64 * 0.5
    }
}

/// A batch of `rows` physical rows whose `d` column holds ids of `dict`,
/// carrying a selection about a third of the time.
fn batch(r: &mut DetRng, rows: usize, dict: &Arc<Dictionary>) -> RecordBatch {
    let b = RecordBatch::new(
        schema(),
        vec![
            ColumnData::Int64((0..rows).map(|_| r.range_i64(-5, 5)).collect()),
            ColumnData::Float64((0..rows).map(|_| float_value(r)).collect()),
            ColumnData::strings((0..rows).map(|_| format!("s{}", r.u64_below(7)))),
            ColumnData::Dict {
                ids: (0..rows)
                    .map(|_| r.u64_below(dict.len() as u64) as u32)
                    .collect(),
                dict: dict.clone(),
            },
            ColumnData::Bool((0..rows).map(|_| r.bool_with(0.5)).collect()),
        ],
    )
    .unwrap();
    if r.bool_with(0.35) {
        let keep: Vec<bool> = (0..rows).map(|_| r.bool_with(0.7)).collect();
        b.filter(&keep).unwrap()
    } else {
        b
    }
}

/// Columns equal value for value (floats by bits) and encoding for
/// encoding; dictionary columns hold the very same `Arc`.
fn same_column(a: &ColumnData, b: &ColumnData) -> bool {
    match (a, b) {
        (ColumnData::Float64(x), ColumnData::Float64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (ColumnData::Dict { ids: x, dict: p }, ColumnData::Dict { ids: y, dict: q }) => {
            x == y && Arc::ptr_eq(p, q)
        }
        (ColumnData::Dict { .. }, _) | (_, ColumnData::Dict { .. }) => false,
        _ => a == b,
    }
}

/// `want` with every string column whose dictionary is not `got`'s
/// re-expressed over `got`'s dictionary — the ids it gives the same values —
/// and sketched again.
fn over_dictionaries_of(got: &MicroPartition, want: &MicroPartition) -> MicroPartition {
    let columns = (got.batch.columns().iter().zip(want.batch.columns()))
        .map(|(g, w)| match (g.as_dict(), w.as_dict()) {
            (Some((_, gd)), Some((ids, wd))) if !Arc::ptr_eq(gd, wd) => {
                let ids = ids
                    .iter()
                    .map(|&id| gd.id_of(wd.get(id)).unwrap_or(u32::MAX));
                Arc::new(ColumnData::Dict {
                    ids: ids.collect(),
                    dict: gd.clone(),
                })
            }
            _ => w.clone(),
        })
        .collect();
    let batch = RecordBatch::from_arcs(want.batch.schema().clone(), columns);
    MicroPartition::from_batch(batch.unwrap())
}

fn assert_same_partitions(got: &[MicroPartition], want: &[MicroPartition], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: partition count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        let ctx = format!("{what}, partition {k}");
        assert!(g.batch.selection().is_none(), "{ctx}: a partition is dense");
        assert_eq!(g.batch.schema(), w.batch.schema(), "{ctx}");
        let re = over_dictionaries_of(g, w);
        for (c, (x, y)) in g.batch.columns().iter().zip(re.batch.columns()).enumerate() {
            assert!(same_column(x, y), "{ctx}, column {c}: {x:?} vs {y:?}");
        }
        // `Debug` tells -0.0 from 0.0 in the zone maps.
        assert_eq!(
            format!("{:?}", g.zone_map),
            format!("{:?}", w.zone_map),
            "{ctx}"
        );
        assert_eq!(g.stored_bytes, w.stored_bytes, "{ctx}");
        assert_eq!(g.encoded_bytes, w.encoded_bytes, "{ctx}");
        assert_eq!(g.pages, w.pages, "{ctx}");
        // The sketch keeps the columns it covers, NaN included: compare
        // its `Debug` form, since `NaN != NaN`.
        assert_eq!(format!("{:?}", g.wire), format!("{:?}", re.wire), "{ctx}");
    }
}

fn cut(all: &RecordBatch, rows_per_partition: usize) -> Vec<MicroPartition> {
    (0..all.rows())
        .step_by(rows_per_partition)
        .map(|offset| {
            let len = rows_per_partition.min(all.rows() - offset);
            MicroPartition::from_batch(all.slice(offset, len).unwrap())
        })
        .collect()
}

fn concat_then_cut(batches: &[RecordBatch], rows_per_partition: usize) -> Vec<MicroPartition> {
    if batches.is_empty() {
        return Vec::new();
    }
    cut(&RecordBatch::concat(batches).unwrap(), rows_per_partition)
}

/// A random append sequence: `(rows per partition, batches)`.
fn appends(seed: u64, dict: &Arc<Dictionary>) -> (usize, Vec<RecordBatch>) {
    let mut r = DetRng::seed_from_u64(seed);
    let rpp = 1 + r.usize_below(12);
    let n = r.usize_below(8);
    let batches = (0..n)
        .map(|_| {
            let rows = match r.u64_below(4) {
                0 => 0,
                1 => rpp * (1 + r.usize_below(3)),
                _ => r.usize_below(3 * rpp + 1),
            };
            batch(&mut r, rows, dict)
        })
        .collect();
    (rpp, batches)
}

#[test]
fn builder_matches_concat_then_cut() {
    let dict = shared_dict();
    for seed in 0..500 {
        let (rpp, batches) = appends(seed, &dict);
        let mut b = TableBuilder::new(TableId::new(0), "t", schema(), rpp).unwrap();
        for batch in &batches {
            b.append(batch.clone()).unwrap();
        }
        let t = b.finish().unwrap();
        let sizes: Vec<usize> = batches.iter().map(RecordBatch::rows).collect();
        let what = format!("seed {seed}: rows per partition {rpp}, batches {sizes:?}");
        assert_same_partitions(&t.partitions, &concat_then_cut(&batches, rpp), &what);
        assert_eq!(t.clustered_by, None, "{what}");
    }
}

fn is_nan(v: &Value) -> bool {
    matches!(v, Value::Float(x) if x.is_nan())
}

/// The recluster permutation through `Value`s, two per comparison.
fn recluster_reference(t: &Table, column: usize, rows_per_partition: usize) -> Vec<MicroPartition> {
    let all = t.to_batch().unwrap();
    let key = all.column(column);
    let mut indices: Vec<usize> = (0..all.rows()).collect();
    indices.sort_by(|&a, &b| {
        let (x, y) = (key.value(a), key.value(b));
        x.partial_cmp_sql(&y)
            .unwrap_or_else(|| is_nan(&x).cmp(&is_nan(&y)))
    });
    cut(&all.take(&indices).unwrap(), rows_per_partition)
}

#[test]
fn recluster_matches_the_value_sort_on_every_key_type() {
    let dict = shared_dict();
    for seed in 0..200 {
        let (rpp, batches) = appends(seed, &dict);
        let mut b = TableBuilder::new(TableId::new(0), "t", schema(), rpp).unwrap();
        for batch in batches {
            b.append(batch).unwrap();
        }
        let t = b.finish().unwrap();
        // Registration's dict encoding turns `s` into a shared-dictionary
        // column too.
        for (label, table) in [("built", t.clone()), ("dict-encoded", t.dict_encoded())] {
            for column in 0..table.schema.arity() {
                let out_rpp = 1 + (seed as usize + column) % 9;
                let got = table.reclustered_by(column, out_rpp).unwrap();
                let what = format!("seed {seed}: {label}, column {column}, rpp {out_rpp}");
                assert_eq!(got.clustered_by, Some(column), "{what}");
                assert_same_partitions(
                    &got.partitions,
                    &recluster_reference(&table, column, out_rpp),
                    &what,
                );
            }
        }
    }
}

#[test]
fn recluster_on_a_float_column_with_nan_sorts_nan_last() {
    // With NaN equal to everything the comparator is not a total order, and
    // the standard sort panicked on about one such column in seven.
    let schema = Arc::new(Schema::of(vec![Field::new("x", DataType::Float64)]));
    for seed in 0..60 {
        let mut r = DetRng::seed_from_u64(seed);
        let n = 20 + r.usize_below(300);
        let vals: Vec<f64> = (0..n)
            .map(|_| {
                if r.bool_with(0.25) {
                    f64::NAN
                } else {
                    r.range_i64(-4, 4) as f64 * 0.5
                }
            })
            .collect();
        let nans = vals.iter().filter(|x| x.is_nan()).count();
        let mut b = TableBuilder::new(TableId::new(0), "t", schema.clone(), 16).unwrap();
        b.append(RecordBatch::new(schema.clone(), vec![ColumnData::Float64(vals)]).unwrap())
            .unwrap();
        let t = b.finish().unwrap().reclustered_by(0, 16).unwrap();
        let sorted = t.to_batch().unwrap();
        let xs = sorted.column(0).as_f64().unwrap();
        let numbers = xs.iter().take_while(|x| !x.is_nan()).count();
        assert_eq!(
            numbers,
            n - nans,
            "seed {seed}: every NaN after every number"
        );
        assert!(
            xs[..numbers].windows(2).all(|w| w[0] <= w[1]),
            "seed {seed}"
        );
    }
}
