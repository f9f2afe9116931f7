//! Oracle: `TableStats::compute` against the straightforward algorithm.
//!
//! The reference below scans every partition: `min_max` per partition, the
//! 64-bit image of every value (every string, for strings without a shared
//! dictionary) in a SipHash `HashSet`, and the numeric values collected into
//! a `Vec` for the histogram. The product reads zone maps and counts through
//! the page codec race's distinct counter (dictionary ids, a bitmap or a
//! word set) or a fresh dictionary instead.
//! Every `ColumnStats` field must match bit for bit (floats by `to_bits`)
//! over generated tables: `i64` extremes whose range wraps, NaN / ±0 / ±∞
//! floats, empty partitions and empty tables, shared, per-partition and
//! foreign dictionaries, `Utf8` and `Bool` columns.

use std::collections::HashSet;
use std::sync::Arc;

use ci_catalog::{Catalog, ColumnStats, Histogram, TableStats};
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::partition::MicroPartition;
use ci_storage::schema::{Field, Schema, SchemaRef};
use ci_storage::table::Table;
use ci_storage::value::{DataType, Value};
use ci_types::{DetRng, TableId};

const BUCKETS: usize = 64;

/// `vals` over a dictionary that first interns decoys and `vals` in
/// reverse: other ids than a fresh dictionary's, and unreferenced entries.
fn foreign(vals: &[String]) -> ColumnData {
    let mut dict = Dictionary::new();
    for s in ["zz-decoy", "aa-decoy"]
        .into_iter()
        .chain(vals.iter().rev().map(String::as_str))
    {
        dict.intern(s);
    }
    let ids = vals.iter().map(|s| dict.intern(s)).collect();
    ColumnData::Dict {
        ids,
        dict: Arc::new(dict),
    }
}

/// One column's statistics the straightforward way.
fn reference_column(table: &Table, col_idx: usize) -> ColumnStats {
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    let (mut bytes, mut rows) = (0usize, 0usize);
    let encoded_payload: u64 = table
        .partitions
        .iter()
        .filter_map(|p| p.pages.get(col_idx))
        .map(|pg| pg.encoded_bytes - pg.dict_bytes)
        .sum();
    let shared_dict = table.column_dictionary(col_idx).cloned();
    let mut seen_ids = vec![false; shared_dict.as_ref().map_or(0, |d| d.len())];
    let mut distinct: HashSet<u64> = HashSet::new();
    let mut strings: HashSet<&str> = HashSet::new();
    let mut numeric: Vec<f64> = Vec::new();
    let mut is_numeric = true;
    for part in &table.partitions {
        let col = part.batch.column(col_idx);
        rows += col.len();
        bytes += col.byte_size();
        if let Some((pmin, pmax)) = col.min_max() {
            min = Some(match min {
                None => pmin.clone(),
                Some(m) => m.min_sql(pmin.clone()),
            });
            max = Some(match max {
                None => pmax,
                Some(m) => m.max_sql(pmax),
            });
        }
        match col {
            ColumnData::Int64(v) => {
                for &x in v {
                    distinct.insert(x as u64);
                    numeric.push(x as f64);
                }
            }
            ColumnData::Float64(v) => {
                for &x in v {
                    distinct.insert(x.to_bits());
                    numeric.push(x);
                }
            }
            ColumnData::Bool(v) => {
                is_numeric = false;
                for &b in v {
                    distinct.insert(b as u64);
                }
            }
            ColumnData::Dict { ids, dict } => {
                is_numeric = false;
                for &id in ids {
                    if shared_dict.is_some() {
                        seen_ids[id as usize] = true;
                    } else {
                        strings.insert(dict.get(id));
                    }
                }
            }
        }
    }
    let ndv = if shared_dict.is_some() {
        seen_ids.iter().filter(|&&s| s).count() as u64
    } else {
        (distinct.len() + strings.len()) as u64
    };
    let per_row = |total: f64| if rows == 0 { 0.0 } else { total / rows as f64 };
    ColumnStats {
        ndv,
        min,
        max,
        histogram: if is_numeric {
            Histogram::build(numeric.into_iter(), BUCKETS)
        } else {
            None
        },
        avg_width: per_row(bytes as f64),
        avg_encoded_width: per_row(encoded_payload as f64),
        dictionary: shared_dict,
    }
}

fn same_value(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::Float(x)), Some(Value::Float(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn same_histogram(a: &Option<Histogram>, b: &Option<Histogram>) -> bool {
    match (a, b) {
        (None, None) => true,
        // `Debug` prints every count, the total and the shortest
        // round-tripping form of the (finite) domain bounds, which tells
        // -0.0 from 0.0.
        (Some(x), Some(y)) => format!("{x:?}") == format!("{y:?}"),
        _ => false,
    }
}

fn assert_matches_reference(table: &Table, what: &str) {
    let stats = TableStats::compute(table);
    assert_eq!(stats.row_count, table.row_count(), "{what}");
    assert_eq!(stats.total_bytes, table.total_bytes(), "{what}");
    assert_eq!(
        stats.total_encoded_bytes,
        table.total_encoded_bytes(),
        "{what}"
    );
    assert_eq!(stats.partition_count, table.partition_count(), "{what}");
    assert_eq!(stats.columns.len(), table.schema.arity(), "{what}");
    for (i, got) in stats.columns.iter().enumerate() {
        let want = reference_column(table, i);
        let ctx = format!("{what}, column {i}: got {got:?}, want {want:?}");
        assert_eq!(got.ndv, want.ndv, "{ctx}");
        assert!(same_value(&got.min, &want.min), "{ctx}");
        assert!(same_value(&got.max, &want.max), "{ctx}");
        assert!(same_histogram(&got.histogram, &want.histogram), "{ctx}");
        assert_eq!(got.avg_width.to_bits(), want.avg_width.to_bits(), "{ctx}");
        assert_eq!(
            got.avg_encoded_width.to_bits(),
            want.avg_encoded_width.to_bits(),
            "{ctx}"
        );
        match (&got.dictionary, &want.dictionary) {
            (None, None) => {}
            (Some(a), Some(b)) => assert!(Arc::ptr_eq(a, b), "{ctx}"),
            _ => panic!("{ctx}: dictionary presence differs"),
        }
    }
}

fn schema() -> SchemaRef {
    Arc::new(Schema::of(vec![
        Field::new("i", DataType::Int64),
        Field::new("f", DataType::Float64),
        Field::new("s", DataType::Utf8),
        Field::new("b", DataType::Bool),
    ]))
}

/// Integers drawn from one of several domains, chosen per table.
fn int_value(r: &mut DetRng, domain: u64) -> i64 {
    match domain {
        // Narrow, around zero: the bitmap path.
        0 => r.range_i64(-40, 40),
        // Narrow at either end of `i64`.
        1 => i64::MAX - r.range_i64(0, 70),
        2 => i64::MIN + r.range_i64(0, 70),
        // Both extremes: `max - min` wraps, so the word set counts.
        3 => *r.choose(&[i64::MIN, i64::MAX, -1, 0, 1, i64::MIN + 1]),
        // Wide and random.
        4 => r.next_u64() as i64,
        // A span near the bitmap-or-hash boundary for a few thousand rows.
        _ => r.range_i64(0, 1 << 21),
    }
}

fn float_value(r: &mut DetRng) -> f64 {
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN,
        f64::MAX,
        f64::MIN_POSITIVE,
        1.5,
        -2.25,
    ];
    if r.bool_with(0.3) {
        *r.choose(&specials)
    } else {
        r.range_f64(-100.0, 100.0)
    }
}

/// How a generated table holds its strings: each partition over a foreign
/// dictionary (entries in another order, some never referenced), one
/// dictionary shared by every partition, a fresh dictionary per partition,
/// or a mix of fresh and foreign ones.
#[derive(Clone, Copy, Debug)]
enum Strings {
    Foreign,
    Shared,
    PerPartition,
    Mixed,
}

/// A table of `parts` partitions (some possibly empty) whose string column
/// is held as `strings` says.
fn table(seed: u64) -> (Table, String) {
    let mut r = DetRng::seed_from_u64(seed);
    let schema = schema();
    let parts = r.usize_below(7);
    let big = seed % 10 == 9;
    let domain = r.u64_below(6);
    let finite_only = r.bool_with(0.3);
    let strings = *r.choose(&[
        Strings::Foreign,
        Strings::Shared,
        Strings::PerPartition,
        Strings::Mixed,
    ]);
    let string_domain = 1 + r.usize_below(12);
    let mut partitions = Vec::with_capacity(parts);
    for _ in 0..parts {
        let rows = if r.bool_with(0.2) {
            0
        } else if big {
            r.usize_below(6_000)
        } else {
            r.usize_below(40)
        };
        let ints = (0..rows).map(|_| int_value(&mut r, domain)).collect();
        let floats = (0..rows)
            .map(|_| {
                let x = float_value(&mut r);
                if finite_only && !x.is_finite() {
                    1.0
                } else {
                    x
                }
            })
            .collect();
        let strs: Vec<String> = (0..rows)
            .map(|_| match r.usize_below(string_domain) {
                0 => String::new(),
                k => format!("v{k}"),
            })
            .collect();
        let bools = (0..rows).map(|_| r.bool_with(0.5)).collect();
        let per_part = matches!(strings, Strings::PerPartition)
            || (matches!(strings, Strings::Mixed) && r.bool_with(0.5));
        let s = if per_part {
            ColumnData::strings(&strs)
        } else {
            foreign(&strs)
        };
        let batch = RecordBatch::new(
            schema.clone(),
            vec![
                ColumnData::Int64(ints),
                ColumnData::Float64(floats),
                s,
                ColumnData::Bool(bools),
            ],
        )
        .unwrap();
        partitions.push(MicroPartition::from_batch(batch));
    }
    let t = Table {
        id: TableId::new(seed as u32),
        name: format!("t{seed}"),
        schema,
        partitions,
        clustered_by: None,
    };
    let t = match strings {
        Strings::Shared => t.dict_encoded(),
        _ => t,
    };
    let what = format!(
        "seed {seed}: {parts} partitions, int domain {domain}, {strings:?} strings, finite only {finite_only}"
    );
    (t, what)
}

#[test]
fn stats_match_the_reference_on_generated_tables() {
    for seed in 0..400 {
        let (t, what) = table(seed);
        assert_matches_reference(&t, &what);
    }
}

#[test]
fn empty_tables_match_the_reference() {
    let empty = Table {
        id: TableId::new(0),
        name: "empty".into(),
        schema: schema(),
        partitions: Vec::new(),
        clustered_by: None,
    };
    assert_matches_reference(&empty, "no partitions");
    let mut hollow = empty.clone();
    hollow.partitions = (0..3)
        .map(|_| MicroPartition::from_batch(RecordBatch::empty(schema())))
        .collect();
    assert_matches_reference(&hollow, "three empty partitions");
    assert_matches_reference(&hollow.dict_encoded(), "empty, dict-encoded");
}

#[test]
fn registered_tables_match_the_reference() {
    // Registration dict-encodes first: the shared-dictionary path.
    let mut catalog = Catalog::new();
    for seed in 1_000..1_040 {
        let (t, what) = table(seed);
        let entry = catalog.register(t);
        let stats = TableStats::compute(&entry.table);
        assert_matches_reference(&entry.table, &what);
        for (a, b) in stats.columns.iter().zip(&entry.stats.columns) {
            assert_eq!(a.ndv, b.ndv, "{what}");
        }
    }
}

/// `Int64` columns at the edge of the distinct counter's bitmap rule: a
/// bitmap over `value − min` while it needs at most `max(rows, 2^14)` words,
/// the word set one word past that, on a short column and on one longer
/// than 2^14 rows, split over two partitions.
#[test]
fn int_columns_at_the_bitmap_edge_match_the_reference() {
    let schema: SchemaRef = Arc::new(Schema::of(vec![Field::new("i", DataType::Int64)]));
    for rows in [3_000usize, 20_000] {
        let words = rows.max(1 << 14) as u64;
        for span in [words * 64 - 1, words * 64] {
            let mut r = DetRng::seed_from_u64(span);
            let base = -7i64;
            let mut vals: Vec<i64> = (0..rows)
                .map(|_| base + (r.next_u64() % (span + 1)) as i64)
                .collect();
            (vals[0], vals[rows - 1]) = (base, base + span as i64);
            let partitions = [&vals[..rows / 3], &vals[rows / 3..]]
                .into_iter()
                .map(|part| {
                    let col = ColumnData::Int64(part.to_vec());
                    MicroPartition::from_batch(RecordBatch::new(schema.clone(), vec![col]).unwrap())
                })
                .collect();
            let t = Table {
                id: TableId::new(0),
                name: "edge".into(),
                schema: schema.clone(),
                partitions,
                clustered_by: None,
            };
            assert_matches_reference(&t, &format!("{rows} rows spanning {span}"));
        }
    }
}
