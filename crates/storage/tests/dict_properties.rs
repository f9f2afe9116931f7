//! Property tests: dictionary encoding is semantically invisible.
//!
//! Every column operation on a dict-encoded string column must produce
//! results identical to the naive `Vec<String>` path — the encoding may only
//! change *cost*, never values, order, sizes, or statistics.

use std::sync::Arc;

use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::selection::SelectionVector;
use ci_storage::table::TableBuilder;
use ci_storage::value::DataType;
use ci_types::TableId;
use proptest::prelude::*;

fn utf8(vals: &[String]) -> ColumnData {
    ColumnData::Utf8(vals.to_vec())
}

proptest! {
    /// gather / take / slice / value / min_max / byte_size agree between the
    /// dict-encoded and naive paths.
    #[test]
    fn column_ops_match_naive_path(
        vals in string_column(5, 1..120),
        seed in 0u64..1000,
    ) {
        let naive = utf8(&vals);
        let dict = naive.dict_encoded();
        prop_assert!(dict.as_dict().is_some());
        prop_assert_eq!(&dict, &naive);
        prop_assert_eq!(dict.byte_size(), naive.byte_size());
        prop_assert_eq!(dict.min_max(), naive.min_max());

        let n = vals.len();
        // Deterministic pseudo-random mask and gather list from the seed.
        let keep: Vec<bool> = (0..n).map(|i| (i as u64 * 31 + seed) % 3 != 0).collect();
        let sel = SelectionVector::from_mask(&keep);
        let kept: Vec<String> = vals.iter().zip(&keep).filter(|(_, &k)| k).map(|(v, _)| v.clone()).collect();
        prop_assert_eq!(dict.gather(&sel), utf8(&kept));
        prop_assert_eq!(naive.gather(&sel), utf8(&kept));

        let indices: Vec<usize> = (0..n).map(|i| ((i as u64 * 17 + seed) % n as u64) as usize).collect();
        prop_assert_eq!(dict.take(&indices), naive.take(&indices));
        prop_assert_eq!(dict.try_take(&indices).unwrap(), naive.try_take(&indices).unwrap());
        prop_assert!(dict.try_take(&[n]).is_err());

        let off = (seed as usize) % n;
        let len = n - off;
        prop_assert_eq!(dict.slice(off, len), naive.slice(off, len));

        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(dict.value(i), naive.value(i));
            prop_assert_eq!(dict.str_at(i).unwrap(), v.as_str());
        }
    }

    /// Concatenating dict slices reproduces the naive concatenation and
    /// keeps sharing one dictionary.
    #[test]
    fn concat_matches_naive_path(
        vals in string_column(4, 2..100),
        cut in 1usize..99,
    ) {
        let schema = Arc::new(Schema::of(vec![Field::new("s", DataType::Utf8)]));
        let naive = RecordBatch::new(schema.clone(), vec![utf8(&vals)]).unwrap();
        let dict = RecordBatch::new(schema, vec![utf8(&vals).dict_encoded()]).unwrap();
        let cut = cut % (vals.len() - 1) + 1;

        let parts = [dict.slice(0, cut).unwrap(), dict.slice(cut, vals.len() - cut).unwrap()];
        let joined = RecordBatch::concat(&parts).unwrap();
        prop_assert_eq!(&joined, &naive);
        let (_, d) = joined.column(0).as_dict().expect("dict survives concat");
        prop_assert!(Arc::ptr_eq(d, dict.column(0).as_dict().unwrap().1));
    }

    /// Table-level dict encoding preserves rows, bytes, zone maps, and
    /// pruning behaviour for any partitioning.
    #[test]
    fn table_encoding_is_value_identical(
        vals in string_column(6, 1..200),
        rows_per_part in 1usize..40,
    ) {
        let schema = Arc::new(Schema::of(vec![Field::new("s", DataType::Utf8)]));
        let mut b = TableBuilder::new(TableId::new(0), "t", schema.clone(), rows_per_part).unwrap();
        b.append(RecordBatch::new(schema, vec![utf8(&vals)]).unwrap()).unwrap();
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
    }
}
