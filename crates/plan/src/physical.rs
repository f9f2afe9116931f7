//! Physical plans: an arena tree of operators with cardinality annotations.
//!
//! The builder takes a [`BoundQuery`] plus a [`JoinTree`] shape and produces
//! the distributed operator tree: scans with pushed-down filters and pruned
//! partition lists, hash joins with exchange (repartition) decorations on
//! both inputs, hash aggregation, final projection, sort, gather and limit.
//! Every node carries estimated output rows/bytes, computed from catalog
//! statistics through the (optionally error-injecting) cardinality
//! estimator — these estimates are exactly what DOP planning consumes and
//! what the DOP monitor later compares against observation (§3.3).

use std::collections::BTreeSet;

use ci_catalog::{CardinalityEstimator, Catalog, ErrorInjector};
use ci_storage::pages::dictionary_page_bytes;
use ci_storage::value::DataType;
use ci_types::{CiError, Result, TableId};

use crate::binder::{BoundQuery, JoinEdge};
use crate::expr::{AggExpr, PlanExpr};
use crate::jointree::JoinTree;

/// Physical operator kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalOp {
    /// Scan of a base table with zone-map-pruned partitions and a pushed
    /// filter.
    Scan {
        /// Relation index in the bound query.
        rel: usize,
        /// Catalog table id.
        table_id: TableId,
        /// Indices of partitions surviving pruning.
        kept_parts: Vec<usize>,
        /// Pushed-down filter (over this relation's global slots).
        filter: Option<PlanExpr>,
    },
    /// Row filter.
    Filter {
        /// The predicate.
        pred: PlanExpr,
    },
    /// Projection producing fresh output slots.
    Project {
        /// Output expressions with names.
        exprs: Vec<(PlanExpr, String)>,
    },
    /// Hash repartition of the stream on key slots (streaming shuffle —
    /// no clean-cut materialization, per §3.3).
    ExchangeHash {
        /// Partitioning key slots (best effort; cost depends on bytes).
        key_slots: Vec<usize>,
    },
    /// Gather all partitions to one stream (final result collection or
    /// pre-merge for sorted output).
    Gather,
    /// Hash join; children are `[build, probe]`.
    HashJoin {
        /// Equi-join key pairs as (build-side slot, probe-side slot).
        keys: Vec<(usize, usize)>,
    },
    /// Hash aggregation.
    HashAgg {
        /// Group expressions over input slots.
        groups: Vec<PlanExpr>,
        /// Aggregates over input slots.
        aggs: Vec<AggExpr>,
        /// First output slot (groups then aggs).
        out_base: usize,
    },
    /// Sort by (slot, ascending) keys.
    Sort {
        /// Sort keys.
        keys: Vec<(usize, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Maximum rows.
        n: u64,
    },
}

impl PhysicalOp {
    /// Short operator name for plan display.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::Scan { .. } => "Scan",
            PhysicalOp::Filter { .. } => "Filter",
            PhysicalOp::Project { .. } => "Project",
            PhysicalOp::ExchangeHash { .. } => "ExchangeHash",
            PhysicalOp::Gather => "Gather",
            PhysicalOp::HashJoin { .. } => "HashJoin",
            PhysicalOp::HashAgg { .. } => "HashAgg",
            PhysicalOp::Sort { .. } => "Sort",
            PhysicalOp::Limit { .. } => "Limit",
        }
    }
}

/// One node of the physical plan arena.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalNode {
    /// The operator.
    pub op: PhysicalOp,
    /// Child node indices (evaluation inputs).
    pub children: Vec<usize>,
    /// Global slots carried in this node's output, in column order.
    pub out_slots: Vec<usize>,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated output bytes.
    pub est_bytes: f64,
}

/// A complete physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Arena of nodes; children point into this vector.
    pub nodes: Vec<PhysicalNode>,
    /// Index of the root node.
    pub root: usize,
    /// Type of each slot (base, post-agg, then projection slots).
    pub slot_types: Vec<DataType>,
    /// Name of each slot.
    pub slot_names: Vec<String>,
    /// Average decoded width in bytes of each slot.
    pub slot_widths: Vec<f64>,
    /// Average *encoded* (wire) width in bytes of each slot — per-row page
    /// payload under the size-picked codec from catalog statistics,
    /// excluding one-time dictionary sections. Non-base slots fall back to
    /// the decoded type width.
    pub slot_encoded_widths: Vec<f64>,
    /// One-time dictionary transfer bytes of each slot (0 for non-dict
    /// columns): what an exchange of this slot ships once per stream before
    /// bit-packed ids take over.
    pub slot_dict_bytes: Vec<f64>,
}

impl PhysicalPlan {
    /// The node at `idx`.
    pub fn node(&self, idx: usize) -> &PhysicalNode {
        &self.nodes[idx]
    }

    /// Names of the query's output columns (root projection order).
    pub fn output_names(&self) -> Vec<String> {
        self.nodes[self.root]
            .out_slots
            .iter()
            .map(|&s| self.slot_names[s].clone())
            .collect()
    }

    /// Estimated decoded bytes per row of a node's output.
    pub fn row_width(&self, idx: usize) -> f64 {
        self.nodes[idx]
            .out_slots
            .iter()
            .map(|&s| self.slot_widths[s])
            .sum()
    }

    /// Estimated *encoded* (wire) bytes per row of a node's output — what an
    /// exchange actually puts on the fabric per row under the page codecs.
    pub fn encoded_row_width(&self, idx: usize) -> f64 {
        self.nodes[idx]
            .out_slots
            .iter()
            .map(|&s| self.slot_encoded_widths[s])
            .sum()
    }

    /// One-time dictionary bytes a wire transfer of this node's output ships
    /// before per-row ids take over (0 when no slot is dict-encoded).
    pub fn dict_wire_bytes(&self, idx: usize) -> f64 {
        self.nodes[idx]
            .out_slots
            .iter()
            .map(|&s| self.slot_dict_bytes[s])
            .sum()
    }

    /// Pretty-prints the plan as an indented tree (root first).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_node(self.root, 0, &mut out);
        out
    }

    fn fmt_node(&self, idx: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[idx];
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} (rows≈{:.0}, bytes≈{:.0})\n",
            n.op.name(),
            n.est_rows,
            n.est_bytes
        ));
        for &c in &n.children {
            self.fmt_node(c, depth + 1, out);
        }
    }

    /// Structural sanity checks; used by tests and debug assertions.
    pub fn validate(&self) -> Result<()> {
        if self.root >= self.nodes.len() {
            return Err(CiError::Plan("root out of bounds".into()));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for &c in &n.children {
                if c >= i {
                    return Err(CiError::Plan(format!(
                        "node {i} has forward child {c} (not topological)"
                    )));
                }
            }
            let expected_children = match &n.op {
                PhysicalOp::Scan { .. } => 0,
                PhysicalOp::HashJoin { .. } => 2,
                _ => 1,
            };
            if n.children.len() != expected_children {
                return Err(CiError::Plan(format!(
                    "node {i} ({}) has {} children, expected {expected_children}",
                    n.op.name(),
                    n.children.len()
                )));
            }
            if !n.est_rows.is_finite() || n.est_rows < 0.0 {
                return Err(CiError::Plan(format!("node {i} has bad est_rows")));
            }
            for &s in &n.out_slots {
                if s >= self.slot_types.len() {
                    return Err(CiError::Plan(format!("node {i} carries unknown slot {s}")));
                }
            }
        }
        Ok(())
    }
}

/// Builds a physical plan for a bound query with the given join-tree shape.
///
/// `injector` perturbs filter/join estimates (pass
/// [`ErrorInjector::oracle`] for clean estimation). Estimation error flows
/// into DOP planning exactly as §3.3 describes.
pub fn build_plan(
    bound: &BoundQuery,
    tree: &JoinTree,
    catalog: &Catalog,
    injector: &mut ErrorInjector,
) -> Result<PhysicalPlan> {
    Builder {
        bound,
        catalog,
        est: CardinalityEstimator::new(),
        injector,
        nodes: Vec::new(),
        slot_types: bound.slot_types.clone(),
        slot_names: bound.slot_names.clone(),
        slot_widths: Vec::new(),
        slot_encoded_widths: Vec::new(),
        slot_dict_bytes: Vec::new(),
        applied_filters: Vec::new(),
    }
    .build(tree)
}

struct Builder<'a> {
    bound: &'a BoundQuery,
    catalog: &'a Catalog,
    est: CardinalityEstimator,
    injector: &'a mut ErrorInjector,
    nodes: Vec<PhysicalNode>,
    slot_types: Vec<DataType>,
    slot_names: Vec<String>,
    slot_widths: Vec<f64>,
    slot_encoded_widths: Vec<f64>,
    slot_dict_bytes: Vec<f64>,
    applied_filters: Vec<bool>,
}

impl<'a> Builder<'a> {
    fn build(mut self, tree: &JoinTree) -> Result<PhysicalPlan> {
        // Slot widths for base + post-agg slots, in both byte currencies.
        self.slot_widths = self.base_slot_widths()?;
        (self.slot_encoded_widths, self.slot_dict_bytes) = self.base_slot_encoded_widths()?;
        self.applied_filters = vec![false; self.bound.cross_filters.len()];

        if tree.relations().len() != self.bound.relations.len() {
            return Err(CiError::Plan(format!(
                "join tree covers {} relations, query has {}",
                tree.relations().len(),
                self.bound.relations.len()
            )));
        }

        let mut top = self.build_join(tree)?;

        // Constant cross filters (no relations referenced).
        for (i, (rels, pred)) in self.bound.cross_filters.iter().enumerate() {
            if !self.applied_filters[i] && rels.is_empty() {
                top = self.push_filter(top, pred.clone());
                self.applied_filters[i] = true;
            }
        }
        if let Some(missed) = self.applied_filters.iter().position(|a| !a) {
            return Err(CiError::Plan(format!(
                "cross filter {missed} never became applicable"
            )));
        }

        // Aggregation.
        if let Some(agg) = &self.bound.aggregate {
            let in_rows = self.nodes[top].est_rows;
            // Repartition on group keys before aggregating (skip for global
            // aggregates, which gather instead).
            let key_slots: Vec<usize> = agg
                .group_exprs
                .iter()
                .filter_map(|g| match g {
                    PlanExpr::Col(s) => Some(*s),
                    _ => None,
                })
                .collect();
            if agg.group_exprs.is_empty() {
                top = self.push_unary(
                    PhysicalOp::Gather,
                    top,
                    self.nodes[top].out_slots.clone(),
                    in_rows,
                );
            } else {
                top = self.push_unary(
                    PhysicalOp::ExchangeHash {
                        key_slots: key_slots.clone(),
                    },
                    top,
                    self.nodes[top].out_slots.clone(),
                    in_rows,
                );
            }
            let base = self.bound.base_slot_count();
            let ndvs: Vec<u64> = key_slots.iter().map(|&s| self.slot_ndv(s)).collect();
            let group_rows = if agg.group_exprs.is_empty() {
                1.0
            } else if ndvs.is_empty() {
                // Non-column group expressions: fall back to sqrt heuristic.
                in_rows.sqrt().max(1.0)
            } else {
                self.est.group_rows(in_rows, &ndvs)
            };
            let group_rows = self.injector.perturb(group_rows).max(1.0);
            let out_slots: Vec<usize> =
                (base..base + agg.group_exprs.len() + agg.aggs.len()).collect();
            top = self.push_node(
                PhysicalOp::HashAgg {
                    groups: agg.group_exprs.clone(),
                    aggs: agg.aggs.clone(),
                    out_base: base,
                },
                vec![top],
                out_slots,
                group_rows,
            );
            if let Some(h) = &agg.having {
                top = self.push_filter(top, h.clone());
            }
        }

        // Final projection: fresh slots.
        let proj_base = self.slot_types.len();
        let slot_ty = self.slot_type_fn();
        for (e, name) in &self.bound.output {
            let dt = e.data_type(&slot_ty)?;
            self.slot_types.push(dt);
            self.slot_names.push(name.clone());
            self.slot_widths.push(dt.width_estimate() as f64);
            // A projected bare column keeps its source slot's wire profile
            // (dict columns stay dict-encoded through projection); computed
            // expressions are charged at uncompressed type width.
            match e {
                PlanExpr::Col(s) if *s < self.slot_encoded_widths.len() => {
                    self.slot_encoded_widths.push(self.slot_encoded_widths[*s]);
                    self.slot_dict_bytes.push(self.slot_dict_bytes[*s]);
                }
                _ => {
                    self.slot_encoded_widths.push(dt.width_estimate() as f64);
                    self.slot_dict_bytes.push(0.0);
                }
            }
        }
        let out_slots: Vec<usize> = (proj_base..proj_base + self.bound.output.len()).collect();
        let rows = self.nodes[top].est_rows;
        top = self.push_node(
            PhysicalOp::Project {
                exprs: self.bound.output.clone(),
            },
            vec![top],
            out_slots,
            rows,
        );

        // Sort.
        if !self.bound.order_by.is_empty() {
            let keys: Vec<(usize, bool)> = self
                .bound
                .order_by
                .iter()
                .map(|&(out_idx, asc)| (proj_base + out_idx, asc))
                .collect();
            let rows = self.nodes[top].est_rows;
            let slots = self.nodes[top].out_slots.clone();
            top = self.push_unary(PhysicalOp::Sort { keys }, top, slots, rows);
        }

        // Gather to the client, then limit.
        let rows = self.nodes[top].est_rows;
        let slots = self.nodes[top].out_slots.clone();
        top = self.push_unary(PhysicalOp::Gather, top, slots, rows);
        if let Some(n) = self.bound.limit {
            let rows = self.nodes[top].est_rows.min(n as f64);
            let slots = self.nodes[top].out_slots.clone();
            top = self.push_unary(PhysicalOp::Limit { n }, top, slots, rows);
        }

        let plan = PhysicalPlan {
            nodes: self.nodes,
            root: top,
            slot_types: self.slot_types,
            slot_names: self.slot_names,
            slot_widths: self.slot_widths,
            slot_encoded_widths: self.slot_encoded_widths,
            slot_dict_bytes: self.slot_dict_bytes,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Recursively builds the join tree, inserting exchanges and applying
    /// cross filters as soon as their relations are covered.
    fn build_join(&mut self, tree: &JoinTree) -> Result<usize> {
        match tree {
            JoinTree::Leaf(rel) => self.build_scan(*rel),
            JoinTree::Join(l, r) => {
                // Right subtree is the build side, left the probe side
                // (see `JoinTree` docs).
                let probe = self.build_join(l)?;
                let build = self.build_join(r)?;
                let prels = l.relations();
                let brels = r.relations();

                // Join keys connecting the two sides: (build slot, probe slot).
                let keys: Vec<(usize, usize)> = self
                    .bound
                    .join_edges
                    .iter()
                    .filter_map(|e: &JoinEdge| {
                        if brels.contains(&e.left_rel) && prels.contains(&e.right_rel) {
                            Some((e.left_slot, e.right_slot))
                        } else if brels.contains(&e.right_rel) && prels.contains(&e.left_rel) {
                            Some((e.right_slot, e.left_slot))
                        } else {
                            None
                        }
                    })
                    .collect();
                if keys.is_empty() {
                    return Err(CiError::Plan(format!(
                        "join tree pairs unconnected relation sets {brels:?} and {prels:?} (cartesian products rejected)"
                    )));
                }

                // Repartition both sides on the join keys.
                let bslots = self.nodes[build].out_slots.clone();
                let brows = self.nodes[build].est_rows;
                let build = self.push_unary(
                    PhysicalOp::ExchangeHash {
                        key_slots: keys.iter().map(|k| k.0).collect(),
                    },
                    build,
                    bslots,
                    brows,
                );
                let pslots = self.nodes[probe].out_slots.clone();
                let prows = self.nodes[probe].est_rows;
                let probe = self.push_unary(
                    PhysicalOp::ExchangeHash {
                        key_slots: keys.iter().map(|k| k.1).collect(),
                    },
                    probe,
                    pslots,
                    prows,
                );

                // Join cardinality from the first key pair's NDVs.
                let (bk, pk) = keys[0];
                let j = self.est.join_rows(
                    self.nodes[build].est_rows,
                    self.slot_ndv(bk),
                    self.nodes[probe].est_rows,
                    self.slot_ndv(pk),
                );
                let j = self.injector.perturb(j);

                let mut out_slots = self.nodes[probe].out_slots.clone();
                out_slots.extend(&self.nodes[build].out_slots);
                let mut top = self.push_node(
                    PhysicalOp::HashJoin { keys },
                    vec![build, probe],
                    out_slots,
                    j,
                );

                // Cross filters now applicable?
                let covered: BTreeSet<usize> = prels.union(&brels).copied().collect();
                let filters: Vec<(usize, PlanExpr)> = self
                    .bound
                    .cross_filters
                    .iter()
                    .enumerate()
                    .filter(|(i, (rels, _))| {
                        !self.applied_filters[*i] && !rels.is_empty() && rels.is_subset(&covered)
                    })
                    .map(|(i, (_, p))| (i, p.clone()))
                    .collect();
                for (i, pred) in filters {
                    top = self.push_filter(top, pred);
                    self.applied_filters[i] = true;
                }
                Ok(top)
            }
        }
    }

    fn build_scan(&mut self, rel: usize) -> Result<usize> {
        let r = &self.bound.relations[rel];
        let entry = self.catalog.get(&r.table_name)?;
        let prune = entry.table.prune(&r.prune_bounds);
        // Rows surviving pruning are metadata-exact; selectivity on top is
        // estimated (and perturbable).
        let sel_rows = self.est.filter_rows(&entry.stats, &r.prune_bounds);
        let default_penalty =
            ci_catalog::cardinality::DEFAULT_SELECTIVITY.powi(r.unmodeled_filters as i32);
        let est_out = (sel_rows * default_penalty).max(1.0);
        let est_out = if r.local_filter.is_some() {
            self.injector.perturb(est_out)
        } else {
            est_out
        };
        let out_slots = self.bound.slots_of_relation(rel);
        Ok(self.push_node(
            PhysicalOp::Scan {
                rel,
                table_id: r.table_id,
                kept_parts: prune.kept,
                filter: r.local_filter.clone(),
            },
            Vec::new(),
            out_slots,
            est_out,
        ))
    }

    fn push_filter(&mut self, input: usize, pred: PlanExpr) -> usize {
        let in_rows = self.nodes[input].est_rows;
        let est = self
            .injector
            .perturb(in_rows * ci_catalog::cardinality::DEFAULT_SELECTIVITY)
            .max(1.0)
            .min(in_rows.max(1.0));
        let slots = self.nodes[input].out_slots.clone();
        self.push_node(PhysicalOp::Filter { pred }, vec![input], slots, est)
    }

    fn push_unary(
        &mut self,
        op: PhysicalOp,
        input: usize,
        out_slots: Vec<usize>,
        est_rows: f64,
    ) -> usize {
        self.push_node(op, vec![input], out_slots, est_rows)
    }

    fn push_node(
        &mut self,
        op: PhysicalOp,
        children: Vec<usize>,
        out_slots: Vec<usize>,
        est_rows: f64,
    ) -> usize {
        let width: f64 = out_slots.iter().map(|&s| self.slot_widths[s]).sum();
        self.nodes.push(PhysicalNode {
            op,
            children,
            out_slots,
            est_rows,
            est_bytes: est_rows * width,
        });
        self.nodes.len() - 1
    }

    /// NDV of a base slot from catalog statistics (1 for non-base slots).
    fn slot_ndv(&self, slot: usize) -> u64 {
        for r in &self.bound.relations {
            if slot >= r.global_offset && slot < r.global_offset + r.arity {
                if let Ok(entry) = self.catalog.get(&r.table_name) {
                    return entry.stats.columns[slot - r.global_offset].ndv.max(1);
                }
            }
        }
        1
    }

    fn base_slot_widths(&self) -> Result<Vec<f64>> {
        let mut widths = Vec::with_capacity(self.bound.slot_types.len());
        for r in &self.bound.relations {
            let entry = self.catalog.get(&r.table_name)?;
            for c in &entry.stats.columns {
                widths.push(if c.avg_width > 0.0 { c.avg_width } else { 8.0 });
            }
        }
        // Post-aggregate slots: width by type.
        for dt in &self.bound.slot_types[widths.len()..] {
            widths.push(dt.width_estimate() as f64);
        }
        Ok(widths)
    }

    /// Per-slot `(encoded wire width, one-time dictionary bytes)` from
    /// catalog statistics. Post-aggregate slots have no page stats and fall
    /// back to their decoded type width (conservative: exchanges of derived
    /// values are charged uncompressed).
    fn base_slot_encoded_widths(&self) -> Result<(Vec<f64>, Vec<f64>)> {
        let mut widths = Vec::with_capacity(self.bound.slot_types.len());
        let mut dict_bytes = Vec::with_capacity(self.bound.slot_types.len());
        for r in &self.bound.relations {
            let entry = self.catalog.get(&r.table_name)?;
            for c in &entry.stats.columns {
                widths.push(if c.avg_encoded_width > 0.0 {
                    c.avg_encoded_width
                } else if c.avg_width > 0.0 {
                    c.avg_width
                } else {
                    8.0
                });
                dict_bytes.push(
                    c.dictionary
                        .as_ref()
                        .map_or(0.0, |d| dictionary_page_bytes(d) as f64),
                );
            }
        }
        for dt in &self.bound.slot_types[widths.len()..] {
            widths.push(dt.width_estimate() as f64);
            dict_bytes.push(0.0);
        }
        Ok((widths, dict_bytes))
    }

    fn slot_type_fn(&self) -> impl Fn(usize) -> Result<DataType> + 'static {
        let types = self.slot_types.clone();
        move |s: usize| {
            types
                .get(s)
                .copied()
                .ok_or_else(|| CiError::Plan(format!("unknown slot {s}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_sql::parse;
    use ci_storage::batch::RecordBatch;
    use ci_storage::column::ColumnData;
    use ci_storage::schema::{Field, Schema};
    use ci_storage::table::table_from_batch;

    use crate::binder::bind;

    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let orders = Arc::new(Schema::of(vec![
            Field::new("o_id", DataType::Int64),
            Field::new("o_cust", DataType::Int64),
            Field::new("o_total", DataType::Float64),
        ]));
        let n = 1000i64;
        c.register(table_from_batch(
            TableId::new(0),
            "orders",
            RecordBatch::new(
                orders,
                vec![
                    ColumnData::Int64((0..n).collect()),
                    ColumnData::Int64((0..n).map(|i| i % 100).collect()),
                    ColumnData::Float64((0..n).map(|i| i as f64).collect()),
                ],
            )
            .unwrap(),
        ));
        let cust = Arc::new(Schema::of(vec![
            Field::new("c_id", DataType::Int64),
            Field::new("c_name", DataType::Utf8),
        ]));
        c.register(table_from_batch(
            TableId::new(1),
            "customers",
            RecordBatch::new(
                cust,
                vec![
                    ColumnData::Int64((0..100).collect()),
                    ColumnData::strings((0..100).map(|i| format!("c{i}"))),
                ],
            )
            .unwrap(),
        ));
        let items = Arc::new(Schema::of(vec![
            Field::new("i_order", DataType::Int64),
            Field::new("i_qty", DataType::Int64),
        ]));
        c.register(table_from_batch(
            TableId::new(2),
            "items",
            RecordBatch::new(
                items,
                vec![
                    ColumnData::Int64((0..2000).map(|i| i % 1000).collect()),
                    ColumnData::Int64((0..2000).map(|i| i % 7).collect()),
                ],
            )
            .unwrap(),
        ));
        c
    }

    fn plan(sql: &str) -> PhysicalPlan {
        let cat = catalog();
        let b = bind(&parse(sql).unwrap(), &cat).unwrap();
        let order: Vec<usize> = (0..b.relations.len()).collect();
        let tree = JoinTree::left_deep(&order);
        build_plan(&b, &tree, &cat, &mut ErrorInjector::oracle()).unwrap()
    }

    #[test]
    fn single_table_plan_shape() {
        let p = plan("SELECT o_id FROM orders WHERE o_total > 500.0 LIMIT 10");
        p.validate().unwrap();
        let names: Vec<&str> = p.nodes.iter().map(|n| n.op.name()).collect();
        assert_eq!(names, vec!["Scan", "Project", "Gather", "Limit"]);
        // Scan estimate reflects the ~50% selectivity.
        assert!(
            (p.nodes[0].est_rows - 500.0).abs() < 60.0,
            "{}",
            p.nodes[0].est_rows
        );
        // Limit caps estimate.
        assert!(p.nodes[p.root].est_rows <= 10.0);
        assert_eq!(p.output_names(), vec!["o_id"]);
    }

    #[test]
    fn join_plan_has_exchanges_and_join() {
        let p = plan("SELECT o_id, c_name FROM orders o JOIN customers c ON o.o_cust = c.c_id");
        let names: Vec<&str> = p.nodes.iter().map(|n| n.op.name()).collect();
        assert_eq!(
            names,
            vec![
                "Scan",
                "Scan",
                "ExchangeHash",
                "ExchangeHash",
                "HashJoin",
                "Project",
                "Gather"
            ]
        );
        // Join estimate: 1000 * 100 / max(100, 100) = 1000.
        let join = p.nodes.iter().find(|n| n.op.name() == "HashJoin").unwrap();
        assert!((join.est_rows - 1000.0).abs() < 1.0, "{}", join.est_rows);
    }

    #[test]
    fn aggregate_plan_shape() {
        let p = plan(
            "SELECT o_cust, SUM(o_total) AS t FROM orders GROUP BY o_cust \
             HAVING SUM(o_total) > 100 ORDER BY t DESC LIMIT 5",
        );
        let names: Vec<&str> = p.nodes.iter().map(|n| n.op.name()).collect();
        assert_eq!(
            names,
            vec![
                "Scan",
                "ExchangeHash",
                "HashAgg",
                "Filter",
                "Project",
                "Sort",
                "Gather",
                "Limit"
            ]
        );
        let agg = p.nodes.iter().find(|n| n.op.name() == "HashAgg").unwrap();
        assert!((agg.est_rows - 100.0).abs() < 1.0, "{}", agg.est_rows);
    }

    #[test]
    fn global_aggregate_gathers() {
        let p = plan("SELECT COUNT(*) FROM orders");
        let names: Vec<&str> = p.nodes.iter().map(|n| n.op.name()).collect();
        assert_eq!(
            names,
            vec!["Scan", "Gather", "HashAgg", "Project", "Gather"]
        );
        let agg = p.nodes.iter().find(|n| n.op.name() == "HashAgg").unwrap();
        assert_eq!(agg.est_rows, 1.0);
    }

    #[test]
    fn three_way_join_left_deep() {
        let p = plan(
            "SELECT c_name, SUM(i_qty) FROM orders o \
             JOIN customers c ON o.o_cust = c.c_id \
             JOIN items i ON i.i_order = o.o_id \
             GROUP BY c_name",
        );
        p.validate().unwrap();
        let joins = p.nodes.iter().filter(|n| n.op.name() == "HashJoin").count();
        assert_eq!(joins, 2);
        let exchanges = p
            .nodes
            .iter()
            .filter(|n| n.op.name() == "ExchangeHash")
            .count();
        assert_eq!(exchanges, 5); // 2 per join + 1 before agg
    }

    #[test]
    fn bushy_tree_builds() {
        // items ⋈ orders on one side... need connectivity: (orders ⋈ customers) ⋈ items
        let cat = catalog();
        let b = bind(
            &parse(
                "SELECT o_id FROM orders o \
                 JOIN customers c ON o.o_cust = c.c_id \
                 JOIN items i ON i.i_order = o.o_id",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        let bushy = JoinTree::Join(
            Box::new(JoinTree::Join(
                Box::new(JoinTree::Leaf(0)),
                Box::new(JoinTree::Leaf(1)),
            )),
            Box::new(JoinTree::Leaf(2)),
        );
        let p = build_plan(&b, &bushy, &cat, &mut ErrorInjector::oracle()).unwrap();
        p.validate().unwrap();
    }

    #[test]
    fn disconnected_tree_rejected() {
        let cat = catalog();
        let b = bind(
            &parse(
                "SELECT o_id FROM orders o \
                 JOIN customers c ON o.o_cust = c.c_id \
                 JOIN items i ON i.i_order = o.o_id",
            )
            .unwrap(),
            &cat,
        )
        .unwrap();
        // customers ⋈ items share no edge.
        let bad = JoinTree::Join(
            Box::new(JoinTree::Join(
                Box::new(JoinTree::Leaf(1)),
                Box::new(JoinTree::Leaf(2)),
            )),
            Box::new(JoinTree::Leaf(0)),
        );
        assert!(build_plan(&b, &bad, &cat, &mut ErrorInjector::oracle()).is_err());
    }

    #[test]
    fn incomplete_tree_rejected() {
        let cat = catalog();
        let b = bind(
            &parse("SELECT o_id FROM orders o JOIN customers c ON o.o_cust = c.c_id").unwrap(),
            &cat,
        )
        .unwrap();
        let partial = JoinTree::Leaf(0);
        assert!(build_plan(&b, &partial, &cat, &mut ErrorInjector::oracle()).is_err());
    }

    #[test]
    fn error_injection_changes_estimates() {
        let cat = catalog();
        let b = bind(
            &parse("SELECT o_id FROM orders WHERE o_total > 500.0").unwrap(),
            &cat,
        )
        .unwrap();
        let tree = JoinTree::left_deep(&[0]);
        let clean = build_plan(&b, &tree, &cat, &mut ErrorInjector::oracle()).unwrap();
        let noisy = build_plan(&b, &tree, &cat, &mut ErrorInjector::with_bound(1, 4.0)).unwrap();
        assert_ne!(clean.nodes[0].est_rows, noisy.nodes[0].est_rows);
        // Same plan with the same seed is reproducible.
        let noisy2 = build_plan(&b, &tree, &cat, &mut ErrorInjector::with_bound(1, 4.0)).unwrap();
        assert_eq!(noisy.nodes[0].est_rows, noisy2.nodes[0].est_rows);
    }

    #[test]
    fn display_is_tree_shaped() {
        let p = plan("SELECT COUNT(*) FROM orders");
        let d = p.display();
        assert!(d.contains("HashAgg"));
        assert!(d.contains("Scan"));
        assert!(d.lines().count() >= 4);
    }
}
