//! Property tests: a string column's dictionary is semantically invisible.
//!
//! Every column operation on a string column must produce the values a
//! naive `Vec<String>` reference computes here, and the same strings over a
//! *different* dictionary (other entries, other ids) must behave
//! identically — the dictionary may only change *cost*, never values,
//! order, sizes, or statistics.

use std::sync::Arc;

use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::dict::Dictionary;
use ci_storage::schema::{Field, Schema};
use ci_storage::selection::SelectionVector;
use ci_storage::table::TableBuilder;
use ci_storage::value::{DataType, Value};
use ci_types::TableId;
use proptest::prelude::*;

/// `vals` over a dictionary that first interns decoys and `vals` in reverse,
/// so its ids differ from a fresh dictionary's and it holds unused entries.
fn foreign(vals: &[String]) -> ColumnData {
    let mut dict = Dictionary::new();
    for s in ["zz-decoy", "aa-decoy"] {
        dict.intern(s);
    }
    vals.iter().rev().for_each(|s| {
        dict.intern(s);
    });
    let ids = vals.iter().map(|s| dict.intern(s)).collect();
    ColumnData::Dict {
        ids,
        dict: Arc::new(dict),
    }
}

/// A column's values, decoded: what the naive reference is compared with.
fn strings_of(col: &ColumnData) -> Vec<String> {
    (0..col.len())
        .map(|i| col.str_at(i).expect("string column").to_owned())
        .collect()
}

proptest! {
    /// gather / take / slice / value / min_max / byte_size agree with the
    /// naive reference, over a fresh and over a foreign dictionary.
    #[test]
    fn column_ops_match_naive_path(
        vals in string_column(5, 1..120),
        seed in 0u64..1000,
    ) {
        let dict = ColumnData::strings(&vals);
        let other = foreign(&vals);
        prop_assert!(!Arc::ptr_eq(dict.as_dict().unwrap().1, other.as_dict().unwrap().1));
        prop_assert_eq!(&dict, &other);
        let naive_bytes: usize = vals.iter().map(|s| s.len() + 4).sum();
        let naive_min_max = (
            Value::Str(vals.iter().min().unwrap().clone()),
            Value::Str(vals.iter().max().unwrap().clone()),
        );

        let n = vals.len();
        // Deterministic pseudo-random mask and gather list from the seed.
        let keep: Vec<bool> = (0..n).map(|i| (i as u64 * 31 + seed) % 3 != 0).collect();
        let sel = SelectionVector::from_mask(&keep);
        let kept: Vec<String> = vals.iter().zip(&keep).filter(|(_, &k)| k).map(|(v, _)| v.clone()).collect();
        let indices: Vec<usize> = (0..n).map(|i| ((i as u64 * 17 + seed) % n as u64) as usize).collect();
        let taken: Vec<String> = indices.iter().map(|&i| vals[i].clone()).collect();
        let off = (seed as usize) % n;
        let len = n - off;

        for col in [&dict, &other] {
            prop_assert_eq!(col.byte_size(), naive_bytes);
            prop_assert_eq!(col.min_max(), Some(naive_min_max.clone()));
            prop_assert_eq!(strings_of(&col.gather(&sel)), kept.clone());
            prop_assert_eq!(col.byte_size_selected(&sel), kept.iter().map(|s| s.len() + 4).sum::<usize>());
            prop_assert_eq!(strings_of(&col.take(&indices)), taken.clone());
            prop_assert_eq!(strings_of(&col.try_take(&indices).unwrap()), taken.clone());
            prop_assert!(col.try_take(&[n]).is_err());
            prop_assert_eq!(strings_of(&col.slice(off, len)), vals[off..].to_vec());
            for (i, v) in vals.iter().enumerate() {
                prop_assert_eq!(col.value(i), Value::Str(v.clone()));
                prop_assert_eq!(col.str_at(i).unwrap(), v.as_str());
            }
        }
        prop_assert_eq!(dict.take(&indices), other.take(&indices));
        prop_assert_eq!(dict.slice(off, len), other.slice(off, len));
    }

    /// Concatenating slices reproduces the naive concatenation and keeps
    /// sharing one dictionary; appending the same strings over a foreign
    /// dictionary re-interns them into it.
    #[test]
    fn concat_matches_naive_path(
        vals in string_column(4, 2..100),
        cut in 1usize..99,
    ) {
        let schema = Arc::new(Schema::of(vec![Field::new("s", DataType::Utf8)]));
        let dict = RecordBatch::new(schema.clone(), vec![ColumnData::strings(&vals)]).unwrap();
        let cut = cut % (vals.len() - 1) + 1;

        let parts = [dict.slice(0, cut).unwrap(), dict.slice(cut, vals.len() - cut).unwrap()];
        let joined = RecordBatch::concat(&parts).unwrap();
        prop_assert_eq!(strings_of(joined.column(0)), vals.clone());
        let (_, d) = joined.column(0).as_dict().expect("dict survives concat");
        prop_assert!(Arc::ptr_eq(d, dict.column(0).as_dict().unwrap().1));

        let other = RecordBatch::new(schema, vec![foreign(&vals[cut..])]).unwrap();
        let mixed = RecordBatch::concat(&[parts[0].clone(), other]).unwrap();
        prop_assert_eq!(strings_of(mixed.column(0)), vals.clone());
        prop_assert_eq!(&mixed, &dict);
    }

    /// Table registration gives every string column one dictionary, for any
    /// partitioning, whatever dictionaries the appended batches carried:
    /// rows, bytes, zone maps, pages and pruning inputs are unchanged, and
    /// the ids are the first-appearance ids of the whole column.
    #[test]
    fn table_encoding_is_value_identical(
        vals in string_column(6, 1..200),
        rows_per_part in 1usize..40,
        chunk in 1usize..50,
    ) {
        let schema = Arc::new(Schema::of(vec![Field::new("s", DataType::Utf8)]));
        let mut b = TableBuilder::new(TableId::new(0), "t", schema.clone(), rows_per_part).unwrap();
        // Each chunk carries a dictionary of its own, so a partition cut
        // across chunks holds a dictionary with entries it never references.
        for part in vals.chunks(chunk) {
            let col = ColumnData::strings(part);
            b.append(RecordBatch::new(schema.clone(), vec![col]).unwrap()).unwrap();
        }
        let plain = b.finish().unwrap();
        let encoded = plain.clone().dict_encoded();

        prop_assert_eq!(encoded.row_count(), plain.row_count());
        prop_assert_eq!(encoded.total_bytes(), plain.total_bytes());
        prop_assert_eq!(encoded.total_encoded_bytes(), plain.total_encoded_bytes());
        prop_assert_eq!(encoded.to_batch().unwrap(), plain.to_batch().unwrap());
        for (pe, pp) in encoded.partitions.iter().zip(&plain.partitions) {
            prop_assert_eq!(&pe.zone_map, &pp.zone_map);
            prop_assert_eq!(pe.stored_bytes, pp.stored_bytes);
            prop_assert_eq!(pe.encoded_bytes, pp.encoded_bytes);
            prop_assert_eq!(&pe.pages, &pp.pages);
        }
        let dict = encoded.column_dictionary(0).expect("shared dictionary");
        let distinct: std::collections::BTreeSet<_> = vals.iter().collect();
        prop_assert_eq!(dict.len(), distinct.len());
        let (whole, batch) = (ColumnData::strings(&vals), encoded.to_batch().unwrap());
        prop_assert_eq!(batch.column(0).as_dict().unwrap().0, whole.as_dict().unwrap().0);
    }
}
