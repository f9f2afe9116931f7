//! Property tests: zone-map pruning soundness.
//!
//! The cardinal invariant of pruning (and of the §4 recluster action that
//! sharpens it): a pruned partition must contain **no** qualifying row, for
//! any data distribution and any bound.

use std::sync::Arc;

use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::pruning::{ColumnBound, Endpoint};
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::{DataType, Value};
use ci_types::TableId;
use proptest::prelude::*;

fn table_of(values: Vec<i64>, rows_per_part: usize) -> ci_storage::table::Table {
    let schema = Arc::new(Schema::of(vec![Field::new("v", DataType::Int64)]));
    let mut b =
        TableBuilder::new(TableId::new(0), "t", schema.clone(), rows_per_part).expect("builder");
    b.append(RecordBatch::new(schema, vec![ColumnData::Int64(values)]).expect("batch"))
        .expect("append");
    b.finish().expect("table")
}

/// Does a single value satisfy `bound`? The row-level oracle pruning is
/// cross-checked against.
fn contains(bound: &ColumnBound, v: &Value) -> bool {
    use std::cmp::Ordering::*;
    let lower_ok = match &bound.lower {
        Endpoint::Unbounded => true,
        Endpoint::Inclusive(lo) => {
            matches!(v.partial_cmp_sql(lo), Some(Greater) | Some(Equal))
        }
        Endpoint::Exclusive(lo) => matches!(v.partial_cmp_sql(lo), Some(Greater)),
    };
    let upper_ok = match &bound.upper {
        Endpoint::Unbounded => true,
        Endpoint::Inclusive(hi) => {
            matches!(v.partial_cmp_sql(hi), Some(Less) | Some(Equal))
        }
        Endpoint::Exclusive(hi) => matches!(v.partial_cmp_sql(hi), Some(Less)),
    };
    lower_ok && upper_ok
}

fn bound_strategy() -> impl Strategy<Value = ColumnBound> {
    prop_oneof![
        any::<i64>().prop_map(|v| ColumnBound::eq(0, Value::Int(v % 200))),
        (any::<i64>(), any::<bool>()).prop_map(|(v, inc)| ColumnBound::range(
            0,
            Some((Value::Int(v % 200), inc)),
            None
        )),
        (any::<i64>(), any::<bool>()).prop_map(|(v, inc)| ColumnBound::range(
            0,
            None,
            Some((Value::Int(v % 200), inc))
        )),
        (any::<i64>(), any::<i64>(), any::<bool>(), any::<bool>()).prop_map(|(a, b, ia, ib)| {
            let (lo, hi) = if a % 200 <= b % 200 {
                (a % 200, b % 200)
            } else {
                (b % 200, a % 200)
            };
            ColumnBound::range(0, Some((Value::Int(lo), ia)), Some((Value::Int(hi), ib)))
        }),
    ]
}

proptest! {
    /// No qualifying row is ever lost to pruning, and the kept/pruned split
    /// partitions the table.
    #[test]
    fn pruning_never_drops_qualifying_rows(
        values in proptest::collection::vec(-100i64..100, 1..300),
        rows_per_part in 1usize..40,
        bound in bound_strategy(),
    ) {
        let t = table_of(values.clone(), rows_per_part);
        let outcome = t.prune(std::slice::from_ref(&bound));
        // Rows qualifying overall.
        let qualifying: usize = values
            .iter()
            .filter(|&&v| contains(&bound, &Value::Int(v)))
            .count();
        // Rows qualifying within kept partitions only.
        let mut kept_qualifying = 0usize;
        for &pi in &outcome.kept {
            let part = &t.partitions[pi];
            let col = part.batch.column(0).as_i64().expect("ints");
            kept_qualifying += col
                .iter()
                .filter(|&&v| contains(&bound, &Value::Int(v)))
                .count();
        }
        prop_assert_eq!(kept_qualifying, qualifying, "pruning lost rows");
        prop_assert_eq!(
            outcome.kept.len() + outcome.pruned_partitions,
            t.partition_count()
        );
    }

    /// Reclustering preserves the row multiset and never weakens pruning.
    #[test]
    fn recluster_preserves_rows_and_improves_pruning(
        values in proptest::collection::vec(-100i64..100, 2..300),
        bound in bound_strategy(),
    ) {
        let t = table_of(values.clone(), 16);
        let r = t.reclustered_by(0, 16).expect("recluster");
        // Multiset preserved.
        let mut before = values;
        before.sort_unstable();
        let mut after: Vec<i64> = r
            .to_batch().expect("batch")
            .column(0).as_i64().expect("ints")
            .to_vec();
        after.sort_unstable();
        prop_assert_eq!(before, after);
        // Pruning on the clustered column keeps no more partitions (by
        // count) than the unclustered layout has qualifying partitions...
        // and remains sound.
        let kept = r.prune(std::slice::from_ref(&bound));
        let mut qualifying = 0usize;
        for &pi in &kept.kept {
            let col = r.partitions[pi].batch.column(0).as_i64().expect("ints");
            qualifying += col.iter().filter(|&&v| contains(&bound, &Value::Int(v))).count();
        }
        let total: usize = r
            .to_batch().expect("batch")
            .column(0).as_i64().expect("ints")
            .iter()
            .filter(|&&v| contains(&bound, &Value::Int(v)))
            .count();
        prop_assert_eq!(qualifying, total);
    }
}
