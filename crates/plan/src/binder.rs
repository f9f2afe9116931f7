//! Binding: AST → name-resolved [`BoundQuery`].
//!
//! Binding assigns every base-table column a **global slot** (offset in the
//! concatenation of relation schemas, in FROM order), resolves all
//! expressions against those slots, and classifies WHERE/ON conjuncts into:
//!
//! * per-relation **local filters** (pushed into scans) with extracted
//!   [`ColumnBound`]s for zone-map pruning and selectivity estimation,
//! * **join edges** (`l.col = r.col` equi-predicates) forming the join graph
//!   the optimizer's DAG-planning stage searches,
//! * residual **cross filters** applied once all referenced relations are
//!   joined.
//!
//! Aggregation gets its own slot range: after `GROUP BY g1..gk` with
//! aggregates `a1..am`, the aggregate output carries slots
//! `[base_total, base_total + k + m)`; SELECT/HAVING/ORDER BY are resolved in
//! that post-aggregate scope, as SQL requires.

use std::collections::BTreeSet;

use ci_catalog::cardinality::DEFAULT_SELECTIVITY;
use ci_catalog::{CardinalityEstimator, Catalog};
use ci_sql::ast::{self, Expr as AstExpr, Query, SelectItem};
use ci_storage::pruning::ColumnBound;
use ci_storage::value::{DataType, Value};
use ci_types::{CiError, Result, TableId};

use crate::expr::{AggExpr, BinOp, PlanExpr};

/// One base relation in the query.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Position in the FROM list (also its index in `BoundQuery::relations`).
    pub index: usize,
    /// Name this relation binds in scope (alias or table name).
    pub binding: String,
    /// Catalog table id.
    pub table_id: TableId,
    /// First global slot of this relation's columns.
    pub global_offset: usize,
    /// Number of columns.
    pub arity: usize,
    /// Conjunction of single-relation predicates (global slots), if any.
    pub local_filter: Option<PlanExpr>,
    /// Range/equality bounds extracted from the local filter, with
    /// **relation-local** column indices (for zone maps and histograms).
    pub prune_bounds: Vec<ColumnBound>,
    /// Local predicates that could not be turned into bounds (their
    /// selectivity must be defaulted).
    pub unmodeled_filters: usize,
}

/// An equi-join edge between two relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Smaller relation index.
    pub left_rel: usize,
    /// Global slot on the left relation.
    pub left_slot: usize,
    /// Larger relation index.
    pub right_rel: usize,
    /// Global slot on the right relation.
    pub right_slot: usize,
}

/// Aggregation section of a bound query.
#[derive(Debug, Clone)]
pub struct BoundAggregate {
    /// Group expressions over base slots.
    pub group_exprs: Vec<PlanExpr>,
    /// Aggregate calls over base slots.
    pub aggs: Vec<AggExpr>,
    /// HAVING predicate over post-aggregate slots.
    pub having: Option<PlanExpr>,
}

/// A fully resolved query, ready for physical planning.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// Base relations in FROM order.
    pub relations: Vec<Relation>,
    /// Equi-join graph.
    pub join_edges: Vec<JoinEdge>,
    /// Residual predicates: (set of relation indices referenced, predicate).
    pub cross_filters: Vec<(BTreeSet<usize>, PlanExpr)>,
    /// Aggregation, if the query groups or aggregates.
    pub aggregate: Option<BoundAggregate>,
    /// Final output expressions and names. Slots refer to base scope when
    /// `aggregate` is `None`, post-aggregate scope otherwise.
    pub output: Vec<(PlanExpr, String)>,
    /// ORDER BY as (output column index, ascending).
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// Type of every slot: base slots first, then post-aggregate slots.
    pub slot_types: Vec<DataType>,
    /// Human-readable name per slot (diagnostics).
    pub slot_names: Vec<String>,
}

impl BoundQuery {
    /// Total number of base slots (post-aggregate slots start here).
    pub fn base_slot_count(&self) -> usize {
        self.relations.iter().map(|r| r.arity).sum()
    }

    /// The relation owning a base slot.
    pub fn relation_of_slot(&self, slot: usize) -> Option<usize> {
        self.relations
            .iter()
            .find(|r| slot >= r.global_offset && slot < r.global_offset + r.arity)
            .map(|r| r.index)
    }

    /// Estimated rows of relation `rel` after its local filters, from
    /// catalog statistics, before any error injection (at least one).
    pub fn base_rows(&self, rel: usize, catalog: &Catalog) -> Result<f64> {
        let r = &self.relations[rel];
        let entry = catalog.get_by_id(r.table_id)?;
        let rows = CardinalityEstimator::new().filter_rows(&entry.stats, &r.prune_bounds);
        let penalty = DEFAULT_SELECTIVITY.powi(r.unmodeled_filters as i32);
        Ok((rows * penalty).max(1.0))
    }

    /// NDV of a base slot from catalog statistics; 1 for a post-aggregate
    /// slot or a table the catalog does not hold.
    pub fn slot_ndv(&self, slot: usize, catalog: &Catalog) -> u64 {
        self.relation_of_slot(slot)
            .and_then(|rel| {
                let r = &self.relations[rel];
                let entry = catalog.get_by_id(r.table_id).ok()?;
                Some(entry.stats.columns[slot - r.global_offset].ndv.max(1))
            })
            .unwrap_or(1)
    }

    /// Global slots of one relation, in column order.
    pub fn slots_of_relation(&self, rel: usize) -> Vec<usize> {
        let r = &self.relations[rel];
        (r.global_offset..r.global_offset + r.arity).collect()
    }
}

/// Binds a parsed query against the catalog.
pub fn bind(query: &Query, catalog: &Catalog) -> Result<BoundQuery> {
    Binder::new(catalog).bind(query)
}

struct Scope {
    /// (binding, column name, slot, type) per visible column.
    cols: Vec<(String, String, usize, DataType)>,
}

impl Scope {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<(usize, DataType)> {
        let mut hits = self
            .cols
            .iter()
            .filter(|(b, n, _, _)| n == name && qualifier.is_none_or(|q| q == b));
        let first = hits.next();
        match (first, hits.next()) {
            (Some(&(_, _, slot, dt)), None) => Ok((slot, dt)),
            (Some(_), Some(_)) => Err(CiError::Plan(format!(
                "ambiguous column reference '{}{}{name}'",
                qualifier.unwrap_or(""),
                if qualifier.is_some() { "." } else { "" },
            ))),
            (None, _) => Err(CiError::Plan(format!(
                "unknown column '{}{}{name}'",
                qualifier.unwrap_or(""),
                if qualifier.is_some() { "." } else { "" },
            ))),
        }
    }
}

struct Binder<'a> {
    catalog: &'a Catalog,
}

impl<'a> Binder<'a> {
    fn new(catalog: &'a Catalog) -> Self {
        Binder { catalog }
    }

    fn bind(&self, q: &Query) -> Result<BoundQuery> {
        // 1. Relations and the base scope.
        let mut relations = Vec::new();
        let mut scope = Scope { cols: Vec::new() };
        let mut slot_types = Vec::new();
        let mut slot_names = Vec::new();
        let mut offset = 0usize;

        let add_rel = |tref: &ast::TableRef,
                       relations: &mut Vec<Relation>,
                       scope: &mut Scope,
                       slot_types: &mut Vec<DataType>,
                       slot_names: &mut Vec<String>,
                       offset: &mut usize|
         -> Result<()> {
            let entry = self.catalog.get(&tref.name)?;
            let binding = tref.binding().to_owned();
            if relations.iter().any(|r: &Relation| r.binding == binding) {
                return Err(CiError::Plan(format!(
                    "duplicate table binding '{binding}'"
                )));
            }
            let schema = &entry.table.schema;
            for (i, f) in schema.fields().iter().enumerate() {
                scope
                    .cols
                    .push((binding.clone(), f.name.clone(), *offset + i, f.data_type));
                slot_types.push(f.data_type);
                slot_names.push(format!("{binding}.{}", f.name));
            }
            relations.push(Relation {
                index: relations.len(),
                binding,
                table_id: entry.table.id,
                global_offset: *offset,
                arity: schema.arity(),
                local_filter: None,
                prune_bounds: Vec::new(),
                unmodeled_filters: 0,
            });
            *offset += schema.arity();
            Ok(())
        };

        add_rel(
            &q.from,
            &mut relations,
            &mut scope,
            &mut slot_types,
            &mut slot_names,
            &mut offset,
        )?;
        let mut on_preds: Vec<AstExpr> = Vec::new();
        for j in &q.joins {
            add_rel(
                &j.table,
                &mut relations,
                &mut scope,
                &mut slot_types,
                &mut slot_names,
                &mut offset,
            )?;
            if let Some(on) = &j.on {
                on_preds.push(on.clone());
            }
        }

        // 2. Predicates: WHERE + ON conjuncts, classified.
        let mut join_edges = Vec::new();
        let mut cross_filters = Vec::new();
        let mut all_preds: Vec<AstExpr> = on_preds;
        if let Some(w) = &q.where_clause {
            all_preds.push(w.clone());
        }
        for pred in &all_preds {
            let bound = self.bind_scalar(pred, &scope)?;
            for conjunct in flatten_and(bound) {
                self.classify_conjunct(
                    conjunct,
                    &mut relations,
                    &mut join_edges,
                    &mut cross_filters,
                )?;
            }
        }

        // 3. Aggregation detection.
        let has_group = !q.group_by.is_empty();
        let has_agg_item = q.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        }) || q.having.is_some();
        let base_total = offset;

        let (aggregate, output, post_types, post_names) = if has_group || has_agg_item {
            self.bind_aggregated(q, &scope, base_total)?
        } else {
            let output = self.bind_plain_output(q, &scope)?;
            (None, output, Vec::new(), Vec::new())
        };
        slot_types.extend(post_types);
        slot_names.extend(post_names);

        // 4. ORDER BY: resolve to output columns.
        let mut order_by = Vec::new();
        for item in &q.order_by {
            let idx = self.resolve_order_item(&item.expr, q, &output)?;
            order_by.push((idx, item.asc));
        }

        Ok(BoundQuery {
            relations,
            join_edges,
            cross_filters,
            aggregate,
            output,
            order_by,
            limit: q.limit,
            slot_types,
            slot_names,
        })
    }

    /// Binds a scalar (non-aggregate) AST expression in the base scope,
    /// desugaring BETWEEN and IN.
    fn bind_scalar(&self, e: &AstExpr, scope: &Scope) -> Result<PlanExpr> {
        match e {
            AstExpr::Column { qualifier, name } => {
                let (slot, _) = scope.resolve(qualifier.as_deref(), name)?;
                Ok(PlanExpr::Col(slot))
            }
            AstExpr::Literal(l) => Ok(PlanExpr::Lit(lit_value(l))),
            AstExpr::Binary { op, left, right } => Ok(PlanExpr::bin(
                bin_op(*op),
                self.bind_scalar(left, scope)?,
                self.bind_scalar(right, scope)?,
            )),
            AstExpr::Unary { op, expr } => {
                let inner = self.bind_scalar(expr, scope)?;
                Ok(match op {
                    ast::UnaryOp::Not => PlanExpr::Not(Box::new(inner)),
                    ast::UnaryOp::Neg => PlanExpr::Neg(Box::new(inner)),
                })
            }
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let e = self.bind_scalar(expr, scope)?;
                let lo = self.bind_scalar(low, scope)?;
                let hi = self.bind_scalar(high, scope)?;
                let range = PlanExpr::bin(
                    BinOp::And,
                    PlanExpr::bin(BinOp::GtEq, e.clone(), lo),
                    PlanExpr::bin(BinOp::LtEq, e, hi),
                );
                Ok(if *negated {
                    PlanExpr::Not(Box::new(range))
                } else {
                    range
                })
            }
            AstExpr::InList {
                expr,
                list,
                negated,
            } => {
                let e = self.bind_scalar(expr, scope)?;
                let mut ors: Option<PlanExpr> = None;
                for item in list {
                    let rhs = self.bind_scalar(item, scope)?;
                    let eq = PlanExpr::bin(BinOp::Eq, e.clone(), rhs);
                    ors = Some(match ors {
                        None => eq,
                        Some(acc) => PlanExpr::bin(BinOp::Or, acc, eq),
                    });
                }
                let any = ors.ok_or_else(|| CiError::Plan("empty IN list".into()))?;
                Ok(if *negated {
                    PlanExpr::Not(Box::new(any))
                } else {
                    any
                })
            }
            AstExpr::Aggregate { .. } => Err(CiError::Plan(
                "aggregate not allowed in this context (WHERE/ON)".into(),
            )),
        }
    }

    /// Routes one bound conjunct to local filter / join edge / cross filter.
    fn classify_conjunct(
        &self,
        conjunct: PlanExpr,
        relations: &mut [Relation],
        join_edges: &mut Vec<JoinEdge>,
        cross_filters: &mut Vec<(BTreeSet<usize>, PlanExpr)>,
    ) -> Result<()> {
        let mut slots = Vec::new();
        conjunct.slots(&mut slots);
        let rel_of = |slot: usize| {
            relations
                .iter()
                .find(|r| slot >= r.global_offset && slot < r.global_offset + r.arity)
                .map(|r| r.index)
        };
        let rels: BTreeSet<usize> = slots.iter().filter_map(|&s| rel_of(s)).collect();
        let mut members = rels.iter().copied();
        match (members.next(), members.next(), members.next()) {
            (None, ..) => {
                // Constant predicate: keep as a cross filter on no relations
                // (applied at the top; handles WHERE TRUE/1=1 shapes).
                cross_filters.push((rels, conjunct));
            }
            (Some(rel), None, _) => {
                let r = &mut relations[rel];
                if let Some(bound) = extract_bound(&conjunct, r.global_offset, r.arity) {
                    r.prune_bounds.push(bound);
                } else {
                    r.unmodeled_filters += 1;
                }
                r.local_filter = Some(match r.local_filter.take() {
                    None => conjunct,
                    Some(f) => PlanExpr::bin(BinOp::And, f, conjunct),
                });
            }
            (Some(_), Some(_), None) => {
                // Equi-join edge?
                if let PlanExpr::Bin {
                    op: BinOp::Eq,
                    left,
                    right,
                } = &conjunct
                {
                    if let (PlanExpr::Col(a), PlanExpr::Col(b)) = (left.as_ref(), right.as_ref()) {
                        if let (Some(ra), Some(rb)) = (rel_of(*a), rel_of(*b)) {
                            if ra != rb {
                                let (left_rel, left_slot, right_rel, right_slot) = if ra < rb {
                                    (ra, *a, rb, *b)
                                } else {
                                    (rb, *b, ra, *a)
                                };
                                join_edges.push(JoinEdge {
                                    left_rel,
                                    left_slot,
                                    right_rel,
                                    right_slot,
                                });
                                return Ok(());
                            }
                        }
                    }
                }
                cross_filters.push((rels, conjunct));
            }
            _ => {
                cross_filters.push((rels, conjunct));
            }
        }
        Ok(())
    }

    /// Output binding for non-aggregated queries.
    fn bind_plain_output(&self, q: &Query, scope: &Scope) -> Result<Vec<(PlanExpr, String)>> {
        let mut out = Vec::new();
        for item in &q.items {
            match item {
                SelectItem::Wildcard => {
                    for (b, n, slot, _) in &scope.cols {
                        out.push((PlanExpr::Col(*slot), format!("{b}.{n}")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_scalar(expr, scope)?;
                    let name = alias.clone().unwrap_or_else(|| expr.to_string());
                    out.push((bound, name));
                }
            }
        }
        Ok(out)
    }

    /// Output binding for aggregated queries. Returns the aggregate section,
    /// the output projection (post-agg slots), and the post-agg slot
    /// types/names to append.
    #[allow(clippy::type_complexity)]
    fn bind_aggregated(
        &self,
        q: &Query,
        scope: &Scope,
        base_total: usize,
    ) -> Result<(
        Option<BoundAggregate>,
        Vec<(PlanExpr, String)>,
        Vec<DataType>,
        Vec<String>,
    )> {
        // Bind group expressions in base scope.
        let mut group_exprs = Vec::new();
        for g in &q.group_by {
            group_exprs.push(self.bind_scalar(g, scope)?);
        }
        let mut aggs: Vec<AggExpr> = Vec::new();

        // Resolve an expression in the post-aggregate scope.
        // Helper is recursive over the AST.
        fn resolve_post(
            binder: &Binder<'_>,
            e: &AstExpr,
            scope: &Scope,
            group_ast: &[AstExpr],
            group_exprs: &[PlanExpr],
            aggs: &mut Vec<AggExpr>,
            base_total: usize,
        ) -> Result<PlanExpr> {
            // Whole expression equal to a GROUP BY expression?
            if let Some(idx) = group_ast.iter().position(|g| g == e) {
                return Ok(PlanExpr::Col(base_total + idx));
            }
            match e {
                AstExpr::Aggregate {
                    func,
                    expr,
                    distinct,
                } => {
                    let arg = match expr {
                        Some(inner) => Some(binder.bind_scalar(inner, scope)?),
                        None => None,
                    };
                    let agg = AggExpr {
                        func: *func,
                        arg,
                        distinct: *distinct,
                    };
                    let idx = match aggs.iter().position(|a| *a == agg) {
                        Some(i) => i,
                        None => {
                            aggs.push(agg);
                            aggs.len() - 1
                        }
                    };
                    Ok(PlanExpr::Col(base_total + group_exprs.len() + idx))
                }
                AstExpr::Literal(l) => Ok(PlanExpr::Lit(lit_value(l))),
                AstExpr::Binary { op, left, right } => Ok(PlanExpr::bin(
                    bin_op(*op),
                    resolve_post(
                        binder,
                        left,
                        scope,
                        group_ast,
                        group_exprs,
                        aggs,
                        base_total,
                    )?,
                    resolve_post(
                        binder,
                        right,
                        scope,
                        group_ast,
                        group_exprs,
                        aggs,
                        base_total,
                    )?,
                )),
                AstExpr::Unary { op, expr } => {
                    let inner = resolve_post(
                        binder,
                        expr,
                        scope,
                        group_ast,
                        group_exprs,
                        aggs,
                        base_total,
                    )?;
                    Ok(match op {
                        ast::UnaryOp::Not => PlanExpr::Not(Box::new(inner)),
                        ast::UnaryOp::Neg => PlanExpr::Neg(Box::new(inner)),
                    })
                }
                AstExpr::Column { qualifier, name } => {
                    // A bare column must match a group expression.
                    let bound = binder.bind_scalar(
                        &AstExpr::Column {
                            qualifier: qualifier.clone(),
                            name: name.clone(),
                        },
                        scope,
                    )?;
                    match group_exprs.iter().position(|g| *g == bound) {
                        Some(idx) => Ok(PlanExpr::Col(base_total + idx)),
                        None => Err(CiError::Plan(format!(
                            "column '{name}' must appear in GROUP BY or inside an aggregate"
                        ))),
                    }
                }
                AstExpr::Between { .. } | AstExpr::InList { .. } => Err(CiError::Plan(
                    "BETWEEN/IN over aggregates not supported; rewrite with comparisons".into(),
                )),
            }
        }

        let mut output = Vec::new();
        for item in &q.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(CiError::Plan(
                        "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                    ))
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = resolve_post(
                        self,
                        expr,
                        scope,
                        &q.group_by,
                        &group_exprs,
                        &mut aggs,
                        base_total,
                    )?;
                    let name = alias.clone().unwrap_or_else(|| expr.to_string());
                    output.push((bound, name));
                }
            }
        }
        let having = match &q.having {
            Some(h) => Some(resolve_post(
                self,
                h,
                scope,
                &q.group_by,
                &group_exprs,
                &mut aggs,
                base_total,
            )?),
            None => None,
        };

        // Post-agg slot metadata: groups then aggs.
        let base_type = |slot: usize| -> Result<DataType> {
            scope
                .cols
                .iter()
                .find(|(_, _, s, _)| *s == slot)
                .map(|(_, _, _, dt)| *dt)
                .ok_or_else(|| CiError::Plan(format!("unknown slot {slot}")))
        };
        let mut post_types = Vec::new();
        let mut post_names = Vec::new();
        for (i, g) in group_exprs.iter().enumerate() {
            post_types.push(g.data_type(&base_type)?);
            post_names.push(format!("group#{i}"));
        }
        for a in &aggs {
            post_types.push(a.data_type(&base_type)?);
            post_names.push(a.default_name());
        }

        Ok((
            Some(BoundAggregate {
                group_exprs,
                aggs,
                having,
            }),
            output,
            post_types,
            post_names,
        ))
    }

    /// Resolves an ORDER BY expression to an output column index.
    fn resolve_order_item(
        &self,
        e: &AstExpr,
        q: &Query,
        output: &[(PlanExpr, String)],
    ) -> Result<usize> {
        // By alias or output name.
        if let AstExpr::Column {
            qualifier: None,
            name,
        } = e
        {
            if let Some(idx) = output.iter().position(|(_, n)| n == name) {
                return Ok(idx);
            }
        }
        // By textual equality with a select item.
        for (i, item) in q.items.iter().enumerate() {
            if let SelectItem::Expr { expr, .. } = item {
                if expr == e {
                    return Ok(i);
                }
            }
        }
        // By positional ordinal (ORDER BY 1).
        if let AstExpr::Literal(ast::Literal::Int(n)) = e {
            let idx = *n as usize;
            if idx >= 1 && idx <= output.len() {
                return Ok(idx - 1);
            }
        }
        Err(CiError::Plan(format!(
            "ORDER BY expression '{e}' must reference an output column"
        )))
    }
}

/// Splits a predicate into AND-conjuncts.
pub fn flatten_and(e: PlanExpr) -> Vec<PlanExpr> {
    match e {
        PlanExpr::Bin {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = flatten_and(*left);
            out.extend(flatten_and(*right));
            out
        }
        other => vec![other],
    }
}

/// Tries to turn `col cmp literal` (either orientation) into a pruning bound
/// with a relation-local column index.
fn extract_bound(e: &PlanExpr, rel_offset: usize, rel_arity: usize) -> Option<ColumnBound> {
    let PlanExpr::Bin { op, left, right } = e else {
        return None;
    };
    let (slot, lit, op) = match (left.as_ref(), right.as_ref()) {
        (PlanExpr::Col(s), PlanExpr::Lit(v)) => (*s, v.clone(), *op),
        (PlanExpr::Lit(v), PlanExpr::Col(s)) => (*s, v.clone(), mirror(*op)?),
        _ => return None,
    };
    if slot < rel_offset || slot >= rel_offset + rel_arity {
        return None;
    }
    let col = slot - rel_offset;
    let bound = match op {
        BinOp::Eq => ColumnBound::eq(col, lit),
        BinOp::Lt => ColumnBound::range(col, None, Some((lit, false))),
        BinOp::LtEq => ColumnBound::range(col, None, Some((lit, true))),
        BinOp::Gt => ColumnBound::range(col, Some((lit, false)), None),
        BinOp::GtEq => ColumnBound::range(col, Some((lit, true)), None),
        _ => return None,
    };
    Some(bound)
}

/// Mirrors a comparison when operands are swapped (`5 < x` ⇒ `x > 5`).
fn mirror(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::NotEq => BinOp::NotEq,
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        _ => return None,
    })
}

fn lit_value(l: &ast::Literal) -> Value {
    match l {
        ast::Literal::Int(v) => Value::Int(*v),
        ast::Literal::Float(v) => Value::Float(*v),
        ast::Literal::Str(s) => Value::Str(s.clone()),
        ast::Literal::Bool(b) => Value::Bool(*b),
    }
}

fn bin_op(op: ast::BinaryOp) -> BinOp {
    match op {
        ast::BinaryOp::Or => BinOp::Or,
        ast::BinaryOp::And => BinOp::And,
        ast::BinaryOp::Eq => BinOp::Eq,
        ast::BinaryOp::NotEq => BinOp::NotEq,
        ast::BinaryOp::Lt => BinOp::Lt,
        ast::BinaryOp::LtEq => BinOp::LtEq,
        ast::BinaryOp::Gt => BinOp::Gt,
        ast::BinaryOp::GtEq => BinOp::GtEq,
        ast::BinaryOp::Add => BinOp::Add,
        ast::BinaryOp::Sub => BinOp::Sub,
        ast::BinaryOp::Mul => BinOp::Mul,
        ast::BinaryOp::Div => BinOp::Div,
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

    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let orders = Arc::new(Schema::of(vec![
            Field::new("o_id", DataType::Int64),
            Field::new("o_cust", DataType::Int64),
            Field::new("o_total", DataType::Float64),
        ]));
        c.register(table_from_batch(
            TableId::new(0),
            "orders",
            RecordBatch::new(
                orders,
                vec![
                    ColumnData::Int64(vec![1, 2, 3]),
                    ColumnData::Int64(vec![10, 20, 10]),
                    ColumnData::Float64(vec![5.0, 7.0, 9.0]),
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
                    ColumnData::Int64(vec![10, 20]),
                    ColumnData::strings(["ann", "bob"]),
                ],
            )
            .unwrap(),
        ));
        c
    }

    fn bound(sql: &str) -> BoundQuery {
        bind(&parse(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn slots_assigned_in_from_order() {
        let b = bound("SELECT * FROM orders o JOIN customers c ON o.o_cust = c.c_id");
        assert_eq!(b.relations.len(), 2);
        assert_eq!(b.relations[0].global_offset, 0);
        assert_eq!(b.relations[1].global_offset, 3);
        assert_eq!(b.base_slot_count(), 5);
        assert_eq!(b.relation_of_slot(4), Some(1));
        assert_eq!(b.slots_of_relation(0), vec![0, 1, 2]);
    }

    #[test]
    fn join_edge_extracted() {
        let b = bound("SELECT * FROM orders o JOIN customers c ON o.o_cust = c.c_id");
        assert_eq!(b.join_edges.len(), 1);
        let e = &b.join_edges[0];
        assert_eq!((e.left_rel, e.right_rel), (0, 1));
        assert_eq!((e.left_slot, e.right_slot), (1, 3));
    }

    #[test]
    fn comma_join_where_edge() {
        let b = bound("SELECT * FROM orders o, customers c WHERE o.o_cust = c.c_id");
        assert_eq!(b.join_edges.len(), 1);
        assert!(b.cross_filters.is_empty());
    }

    #[test]
    fn local_filters_pushed_with_bounds() {
        let b = bound("SELECT * FROM orders WHERE o_total > 6.0 AND o_id = 2");
        let r = &b.relations[0];
        assert!(r.local_filter.is_some());
        assert_eq!(r.prune_bounds.len(), 2);
        assert_eq!(r.unmodeled_filters, 0);
    }

    #[test]
    fn reversed_literal_comparison_becomes_bound() {
        let b = bound("SELECT * FROM orders WHERE 6.0 < o_total");
        assert_eq!(b.relations[0].prune_bounds.len(), 1);
    }

    #[test]
    fn unmodeled_filter_counted() {
        let b = bound("SELECT * FROM orders WHERE o_total * 2.0 > 6.0");
        let r = &b.relations[0];
        assert!(r.local_filter.is_some());
        assert!(r.prune_bounds.is_empty());
        assert_eq!(r.unmodeled_filters, 1);
    }

    #[test]
    fn non_equi_cross_predicate() {
        let b = bound(
            "SELECT * FROM orders o, customers c WHERE o.o_cust = c.c_id AND o.o_id < c.c_id",
        );
        assert_eq!(b.join_edges.len(), 1);
        assert_eq!(b.cross_filters.len(), 1);
        assert_eq!(
            b.cross_filters[0].0,
            [0usize, 1].into_iter().collect::<BTreeSet<_>>()
        );
    }

    #[test]
    fn aggregation_scoping() {
        let b = bound(
            "SELECT o_cust, SUM(o_total) AS rev, COUNT(*) FROM orders \
             GROUP BY o_cust HAVING SUM(o_total) > 10 ORDER BY rev DESC LIMIT 5",
        );
        let agg = b.aggregate.as_ref().unwrap();
        assert_eq!(agg.group_exprs.len(), 1);
        assert_eq!(agg.aggs.len(), 2); // SUM and COUNT(*); HAVING reuses SUM
        assert!(agg.having.is_some());
        // Output: group slot is base_total, SUM slot base_total+1.
        let base = b.base_slot_count();
        assert_eq!(b.output[0].0, PlanExpr::Col(base));
        assert_eq!(b.output[1].0, PlanExpr::Col(base + 1));
        assert_eq!(b.order_by, vec![(1, false)]);
        assert_eq!(b.limit, Some(5));
        // Post-agg slot types recorded.
        assert_eq!(b.slot_types.len(), base + 3);
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let err = bind(
            &parse("SELECT o_total FROM orders GROUP BY o_cust").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        assert!(bind(
            &parse("SELECT * FROM orders GROUP BY o_cust").unwrap(),
            &catalog()
        )
        .is_err());
    }

    #[test]
    fn ambiguous_and_unknown_columns() {
        let c = catalog();
        // o_id unambiguous; c_id unique; but a shared name would be ambiguous —
        // construct via two bindings of the same table.
        let err = bind(&parse("SELECT o_id FROM orders a, orders b").unwrap(), &c).unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
        assert!(bind(&parse("SELECT nope FROM orders").unwrap(), &c).is_err());
        assert!(bind(&parse("SELECT o_id FROM nope").unwrap(), &c).is_err());
    }

    #[test]
    fn duplicate_binding_rejected() {
        assert!(bind(&parse("SELECT 1 FROM orders, orders").unwrap(), &catalog()).is_err());
    }

    #[test]
    fn between_desugars_to_two_bounds() {
        let b = bound("SELECT * FROM orders WHERE o_total BETWEEN 5.0 AND 8.0");
        assert_eq!(b.relations[0].prune_bounds.len(), 2);
    }

    #[test]
    fn in_list_desugars_to_or() {
        let b = bound("SELECT * FROM orders WHERE o_id IN (1, 3)");
        // OR of equalities: one local filter conjunct, unmodeled (no single bound).
        let r = &b.relations[0];
        assert!(r.local_filter.is_some());
        assert_eq!(r.unmodeled_filters, 1);
    }

    #[test]
    fn order_by_ordinal_and_expression() {
        let b = bound("SELECT o_id, o_total FROM orders ORDER BY 2, o_id DESC");
        assert_eq!(b.order_by, vec![(1, true), (0, false)]);
        assert!(bind(
            &parse("SELECT o_id FROM orders ORDER BY o_total").unwrap(),
            &catalog()
        )
        .is_err());
    }

    #[test]
    fn plain_output_names() {
        let b = bound("SELECT o_id AS x, o_total + 1.0 FROM orders");
        assert_eq!(b.output[0].1, "x");
        assert_eq!(b.output[1].1, "(o_total + 1.0)");
    }
}
