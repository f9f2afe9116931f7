//! DAG planning: Selinger-style join-order search.
//!
//! §3.2: "the traditional single-machine query optimization that produces an
//! execution DAG". We run dynamic programming over connected subsets of the
//! join graph, restricted to **left-deep** trees (bushy shapes are explored
//! later, at DOP-planning time, per the paper), with estimated intermediate
//! cardinality as the cost.

use std::collections::HashMap;

use ci_catalog::{CardinalityEstimator, Catalog};
use ci_plan::binder::BoundQuery;
use ci_types::{CiError, Result};

/// Maximum relations for exact DP (2^n subsets); beyond this a greedy
/// fallback is used.
const DP_LIMIT: usize = 14;

/// Chooses a left-deep join order for a bound query, minimizing the sum of
/// estimated intermediate result cardinalities, and returns the relation
/// order (`JoinTree::left_deep` of it is the chain).
///
/// The search reads the catalog's estimates as they are
/// ([`BoundQuery::base_rows`], [`BoundQuery::slot_ndv`]); `build_plan`
/// starts from the same estimates but passes them through the optimizer's
/// error injector. Under injected cardinality error the join order is thus
/// chosen on uninjected estimates, and only the annotated plan the DOP
/// search and the cost estimator read carries the error.
pub fn dag_plan(bound: &BoundQuery, catalog: &Catalog) -> Result<Vec<usize>> {
    let n = bound.relations.len();
    if n == 0 {
        return Err(CiError::Plan("query has no relations".into()));
    }
    if n == 1 {
        return Ok(vec![0]);
    }
    let base = (0..n)
        .map(|rel| bound.base_rows(rel, catalog))
        .collect::<Result<Vec<f64>>>()?;
    // `(left, right)` key NDVs of every join edge, in edge order.
    let slot_ndv = |slot| bound.slot_ndv(slot, catalog);
    let ndv: Vec<(u64, u64)> = (bound.join_edges.iter())
        .map(|e| (slot_ndv(e.left_slot), slot_ndv(e.right_slot)))
        .collect();
    if n <= DP_LIMIT {
        dp_order(bound, &base, &ndv)
    } else {
        greedy_order(bound, &base, &ndv)
    }
}

/// Join cardinality when relation `next` is appended to a set with
/// cardinality `cur_rows`; returns `None` when no edge connects them.
fn join_card(
    bound: &BoundQuery,
    in_set: u64,
    next: usize,
    cur_rows: f64,
    next_rows: f64,
    ndv: &[(u64, u64)],
) -> Option<f64> {
    let est = CardinalityEstimator::new();
    let mut best: Option<f64> = None;
    for (e, &(left_ndv, right_ndv)) in bound.join_edges.iter().zip(ndv) {
        let (a, b) = (e.left_rel, e.right_rel);
        let connects = (in_set >> a) & 1 == 1 && b == next || (in_set >> b) & 1 == 1 && a == next;
        if !connects {
            continue;
        }
        let (n1, n2) = if b == next {
            (left_ndv, right_ndv)
        } else {
            (right_ndv, left_ndv)
        };
        let card = est.join_rows(cur_rows, n1, next_rows, n2);
        best = Some(match best {
            None => card,
            // Multiple connecting edges: joins filter further.
            Some(prev) => prev.min(card),
        });
    }
    best
}

/// Exact DP over connected subsets, left-deep only.
fn dp_order(bound: &BoundQuery, base: &[f64], ndv: &[(u64, u64)]) -> Result<Vec<usize>> {
    let n = bound.relations.len();
    // best[mask] = (total_cost, result_rows, order)
    let mut best: HashMap<u64, (f64, f64, Vec<usize>)> = HashMap::new();
    for (r, &base_rows) in base.iter().enumerate() {
        best.insert(1u64 << r, (0.0, base_rows, vec![r]));
    }
    for mask in 1u64..(1 << n) {
        let Some((cost, rows, order)) = best.get(&mask).cloned() else {
            continue;
        };
        for (next, &base_rows) in base.iter().enumerate() {
            if (mask >> next) & 1 == 1 {
                continue;
            }
            let Some(card) = join_card(bound, mask, next, rows, base_rows, ndv) else {
                continue;
            };
            let new_mask = mask | (1 << next);
            let new_cost = cost + card;
            let better = match best.get(&new_mask) {
                None => true,
                Some((c, _, _)) => new_cost < *c,
            };
            if better {
                let mut new_order = order.clone();
                new_order.push(next);
                best.insert(new_mask, (new_cost, card, new_order));
            }
        }
    }
    let full = (1u64 << n) - 1;
    let (_, _, order) = best.remove(&full).ok_or_else(|| {
        CiError::Plan("join graph is disconnected: no complete join order exists".into())
    })?;
    Ok(order)
}

/// Greedy fallback for very wide joins: repeatedly append the relation with
/// the smallest estimated join result.
fn greedy_order(bound: &BoundQuery, base: &[f64], ndv: &[(u64, u64)]) -> Result<Vec<usize>> {
    let n = bound.relations.len();
    // Start from the smallest relation.
    let first = (base.iter().enumerate())
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .ok_or_else(|| CiError::Plan("join order of no relations".into()))?;
    let mut order = vec![first];
    let mut mask = 1u64 << order[0];
    let mut rows = base[order[0]];
    while order.len() < n {
        let mut choice: Option<(usize, f64)> = None;
        for (next, &base_rows) in base.iter().enumerate() {
            if (mask >> next) & 1 == 1 {
                continue;
            }
            if let Some(card) = join_card(bound, mask, next, rows, base_rows, ndv) {
                if choice.is_none_or(|(_, c)| card < c) {
                    choice = Some((next, card));
                }
            }
        }
        let (next, card) = choice.ok_or_else(|| {
            CiError::Plan("join graph is disconnected: greedy order stuck".into())
        })?;
        order.push(next);
        mask |= 1 << next;
        rows = card;
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_plan::bind;
    use ci_sql::parse;
    use ci_storage::batch::RecordBatch;
    use ci_storage::column::ColumnData;
    use ci_storage::schema::{Field, Schema};
    use ci_storage::table::table_from_batch;
    use ci_storage::value::DataType;
    use ci_types::TableId;

    use super::*;

    /// fact (100k rows) -> mid (1k rows) -> tiny (10 rows): the DP should
    /// start from the small end of the chain.
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mk = |name: &str, id: u32, n: i64, fk_mod: i64| {
            let schema = Arc::new(Schema::of(vec![
                Field::new("pk", DataType::Int64),
                Field::new("fk", DataType::Int64),
            ]));
            table_from_batch(
                TableId::new(id),
                name,
                RecordBatch::new(
                    schema,
                    vec![
                        ColumnData::Int64((0..n).collect()),
                        ColumnData::Int64((0..n).map(|i| i % fk_mod.max(1)).collect()),
                    ],
                )
                .unwrap(),
            )
        };
        c.register(mk("fact", 0, 100_000, 1_000));
        c.register(mk("mid", 1, 1_000, 10));
        c.register(mk("tiny", 2, 10, 1));
        c
    }

    #[test]
    fn single_relation_is_leaf() {
        let cat = catalog();
        let b = bind(&parse("SELECT pk FROM fact").unwrap(), &cat).unwrap();
        assert_eq!(dag_plan(&b, &cat).unwrap(), vec![0]);
    }

    #[test]
    fn chain_join_prefers_selective_start() {
        let cat = catalog();
        // fact.fk = mid.pk, mid.fk = tiny.pk
        let b = bind(
            &parse(
                "SELECT fact.pk FROM fact JOIN mid ON fact.fk = mid.pk \
                 JOIN tiny ON mid.fk = tiny.pk",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let mut order = dag_plan(&b, &cat).unwrap();
        // The chosen order should not join fact with tiny first (no edge).
        assert!(
            order[..2] != [0, 2] && order[..2] != [2, 0],
            "unconnected pair joined first: {order:?}"
        );
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn disconnected_graph_rejected() {
        let cat = catalog();
        // No join predicate at all between fact and tiny.
        let b = bind(&parse("SELECT fact.pk FROM fact, tiny").unwrap(), &cat).unwrap();
        assert!(dag_plan(&b, &cat).is_err());
    }

    #[test]
    fn greedy_matches_dp_on_small_chain() {
        let cat = catalog();
        let b = bind(
            &parse(
                "SELECT fact.pk FROM fact JOIN mid ON fact.fk = mid.pk \
                 JOIN tiny ON mid.fk = tiny.pk",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let base: Vec<f64> = (0..3).map(|r| b.base_rows(r, &cat).unwrap()).collect();
        let slot_ndv = |slot| b.slot_ndv(slot, &cat);
        let ndv: Vec<(u64, u64)> = (b.join_edges.iter())
            .map(|e| (slot_ndv(e.left_slot), slot_ndv(e.right_slot)))
            .collect();
        let mut dp = dp_order(&b, &base, &ndv).unwrap();
        let mut greedy = greedy_order(&b, &base, &ndv).unwrap();
        dp.sort_unstable();
        greedy.sort_unstable();
        assert_eq!(dp, greedy);
    }
}
