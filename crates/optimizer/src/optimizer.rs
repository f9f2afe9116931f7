//! Top-level optimizer: DAG planning → bushy variants → DOP planning →
//! constrained choice.

use ci_catalog::{Catalog, ErrorInjector};
use ci_cost::{CostEstimator, EstimatorConfig, QueryEstimate};
use ci_plan::binder::{bind, BoundQuery};
use ci_plan::jointree::JoinTree;
use ci_plan::physical::{build_plan, PhysicalPlan};
use ci_plan::pipeline::PipelineGraph;
use ci_sql::parse;
use ci_types::{CiError, Result};

use crate::bushy::bushy_variants;
use crate::dagplan::dag_plan;
use crate::dopplan::{Constraint, DopPlan, DopPlanner, SearchStats};

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Cost-estimator configuration.
    pub estimator: EstimatorConfig,
    /// Explore bushy join-shape variants at DOP-planning time (§3.2).
    pub explore_bushy: bool,
    /// Cardinality-error injection bound (1.0 — or any value that is not
    /// a finite number above 1 — gives oracle estimates).
    pub error_bound: f64,
    /// Seed for error injection.
    pub error_seed: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            estimator: EstimatorConfig::default(),
            explore_bushy: true,
            error_bound: 1.0,
            error_seed: 0,
        }
    }
}

/// A fully planned query, ready for execution.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The bound query.
    pub bound: BoundQuery,
    /// Chosen join-tree shape.
    pub tree: JoinTree,
    /// Physical plan with cardinality annotations.
    pub plan: PhysicalPlan,
    /// Pipeline decomposition.
    pub graph: PipelineGraph,
    /// Chosen per-pipeline DOPs.
    pub dops: Vec<u32>,
    /// Predicted latency/cost.
    pub predicted: QueryEstimate,
    /// Whether the user constraint is predicted to hold.
    pub feasible: bool,
    /// Search effort spent in DOP planning (summed over variants).
    pub search: SearchStats,
    /// Join-shape variants that were DOP-planned.
    pub variants_considered: usize,
}

/// The bi-objective optimizer.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    /// Configuration (public for experiment sweeps).
    pub config: OptimizerConfig,
}

impl<'a> Optimizer<'a> {
    /// New optimizer over a catalog.
    pub fn new(catalog: &'a Catalog, config: OptimizerConfig) -> Optimizer<'a> {
        Optimizer { catalog, config }
    }

    /// Parses, binds, and plans a SQL query under a constraint.
    pub fn plan_sql(&self, sql: &str, constraint: Constraint) -> Result<PlannedQuery> {
        let ast = parse(sql)?;
        let bound = bind(&ast, self.catalog)?;
        self.plan_bound(bound, constraint)
    }

    /// Plans an already-bound query: every join-shape variant is
    /// DOP-planned and the one [`Constraint::prefers`] wins.
    pub fn plan_bound(&self, bound: BoundQuery, constraint: Constraint) -> Result<PlannedQuery> {
        // Stage 1: DAG planning (left-deep DP).
        let order = dag_plan(&bound, self.catalog)?;

        // Stage 2: join-shape variants, the left-deep chain first, each
        // DOP-planned.
        let variants = if self.config.explore_bushy {
            bushy_variants(&order)
        } else {
            vec![JoinTree::left_deep(&order)]
        };

        let est = CostEstimator::new(self.catalog, self.config.estimator.clone());
        let mut search = SearchStats::default();
        let mut variants_considered = 0usize;
        let mut best: Option<(JoinTree, PhysicalPlan, PipelineGraph, DopPlan)> = None;

        for tree in variants {
            let mut injector =
                ErrorInjector::with_bound(self.config.error_seed, self.config.error_bound);
            let plan = match build_plan(&bound, &tree, self.catalog, &mut injector) {
                Ok(p) => p,
                // A bushy split the join graph does not connect: skip it.
                // The left-deep chain comes first, so its error is the
                // query's own.
                Err(CiError::Plan(_)) if best.is_some() => continue,
                Err(e) => return Err(e),
            };
            let graph = PipelineGraph::decompose(&plan)?;
            let mut planner = DopPlanner::new(&est);
            let dop_plan = planner.plan(&plan, &graph, constraint)?;
            search.estimates += planner.stats.estimates;
            search.candidates += planner.stats.candidates;
            variants_considered += 1;
            if best
                .as_ref()
                .is_none_or(|b| constraint.prefers(&dop_plan.predicted, &b.3.predicted))
            {
                best = Some((tree, plan, graph, dop_plan));
            }
        }

        let (tree, plan, graph, chosen) =
            best.ok_or_else(|| CiError::Plan("no join-shape variant to plan".into()))?;
        Ok(PlannedQuery {
            bound,
            tree,
            plan,
            graph,
            dops: chosen.dops,
            predicted: chosen.predicted,
            feasible: chosen.feasible,
            search,
            variants_considered,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_storage::batch::RecordBatch;
    use ci_storage::column::ColumnData;
    use ci_storage::schema::{Field, Schema};
    use ci_storage::table::TableBuilder;
    use ci_storage::value::DataType;
    use ci_types::money::Dollars;
    use ci_types::{SimDuration, TableId};

    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mk = |name: &str, id: u32, n: i64, fk_mod: i64, part: usize| {
            let schema = Arc::new(Schema::of(vec![
                Field::new("pk", DataType::Int64),
                Field::new("fk", DataType::Int64),
                Field::new("val", DataType::Float64),
            ]));
            let mut b = TableBuilder::new(TableId::new(id), name, schema.clone(), part).unwrap();
            b.append(
                RecordBatch::new(
                    schema,
                    vec![
                        ColumnData::Int64((0..n).collect()),
                        ColumnData::Int64((0..n).map(|i| i % fk_mod.max(1)).collect()),
                        ColumnData::Float64((0..n).map(|i| (i % 97) as f64).collect()),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
            b.finish().unwrap()
        };
        c.register(mk("f", 0, 300_000, 3_000, 16_384));
        c.register(mk("m", 1, 3_000, 30, 1_024));
        c.register(mk("t", 2, 30, 1, 64));
        c
    }

    const CHAIN: &str = "SELECT f.val FROM f JOIN m ON f.fk = m.pk \
                         JOIN t ON m.fk = t.pk WHERE t.val < 50.0";

    /// A four-way chain `t - f - f2 - t2` whose DAG order splits into two
    /// joined halves, so a bushy variant builds next to the left-deep one.
    const BUSHY_CHAIN: &str = "SELECT f.val FROM f JOIN t ON f.fk = t.pk \
                               JOIN f f2 ON f2.pk = f.pk JOIN t t2 ON f2.fk = t2.pk";

    #[test]
    fn plans_end_to_end_under_sla() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let planned = opt
            .plan_sql(CHAIN, Constraint::LatencySla(SimDuration::from_secs(30)))
            .unwrap();
        assert!(planned.feasible);
        assert_eq!(planned.dops.len(), planned.graph.len());
        assert!(planned.dops.iter().all(|&d| d >= 1));
        assert!(planned.variants_considered >= 1);
        assert!(planned.search.estimates > 0);
    }

    #[test]
    fn bushy_exploration_considers_more_variants() {
        let cat = catalog();
        let mut cfg = OptimizerConfig {
            explore_bushy: false,
            ..Default::default()
        };
        let opt_ld = Optimizer::new(&cat, cfg.clone());
        let ld = opt_ld.plan_sql(BUSHY_CHAIN, Constraint::MinCost).unwrap();
        assert_eq!(ld.variants_considered, 1);

        cfg.explore_bushy = true;
        let opt_b = Optimizer::new(&cat, cfg);
        let bushy = opt_b.plan_sql(BUSHY_CHAIN, Constraint::MinCost).unwrap();
        // The four-way chain splits into two joined halves: a bushy variant
        // is planned next to the left-deep one.
        assert!(bushy.variants_considered > ld.variants_considered);
        // Best bushy choice can never be worse than the left-deep-only one.
        assert!(bushy.predicted.cost.amount() <= ld.predicted.cost.amount() * 1.0001);
    }

    #[test]
    fn the_pick_is_the_rules_minimum_over_the_planned_variants() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let bound = bind(&parse(BUSHY_CHAIN).unwrap(), &cat).unwrap();
        let order = dag_plan(&bound, &cat).unwrap();
        let mut shapes_picked = Vec::new();
        for constraint in [
            Constraint::MinCost,
            Constraint::LatencySla(SimDuration::from_secs(30)),
            Constraint::LatencySla(SimDuration::from_micros(1)),
            Constraint::Budget(Dollars::new(10.0)),
            Constraint::Budget(Dollars::new(0.000001)),
        ] {
            let pick = opt.plan_bound(bound.clone(), constraint).unwrap();
            let mut planned = Vec::new();
            for tree in bushy_variants(&order) {
                let Ok(plan) = build_plan(&bound, &tree, &cat, &mut ErrorInjector::oracle()) else {
                    continue;
                };
                let graph = PipelineGraph::decompose(&plan).unwrap();
                let dops = DopPlanner::new(&est).plan(&plan, &graph, constraint);
                planned.push((tree, dops.unwrap()));
            }
            assert!(planned.len() >= 2, "{constraint:?}: one variant");
            assert_eq!(planned.len(), pick.variants_considered, "{constraint:?}");
            let (_, chosen) = (planned.iter())
                .find(|(tree, _)| *tree == pick.tree)
                .expect("the pick is a planned variant");
            assert_eq!(chosen.dops, pick.dops, "{constraint:?}");
            assert_eq!(chosen.predicted, pick.predicted, "{constraint:?}");
            for (tree, dops) in &planned {
                assert!(
                    !constraint.prefers(&dops.predicted, &pick.predicted),
                    "{constraint:?}: {tree} ranks before the pick {}",
                    pick.tree
                );
            }
            shapes_picked.push(pick.tree.is_left_deep());
        }
        // The bushy shape is a hair cheaper and the chain buys latency
        // cheaper, so a rule that ignored the constraint would miss one.
        assert!(
            shapes_picked.contains(&true) && shapes_picked.contains(&false),
            "{shapes_picked:?}"
        );
    }

    #[test]
    fn the_left_deep_plans_own_error_is_returned() {
        let cat = catalog();
        let err = Optimizer::new(&cat, OptimizerConfig::default())
            .plan_sql("SELECT -(val < 1.0) FROM f", Constraint::MinCost)
            .unwrap_err();
        assert!(err.to_string().contains("cannot negate BOOLEAN"), "{err}");
    }

    #[test]
    fn budget_constraint_respected_or_flagged() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let tight = opt
            .plan_sql(CHAIN, Constraint::Budget(Dollars::new(0.000001)))
            .unwrap();
        // Either infeasible (flagged) or within budget.
        if tight.feasible {
            assert!(tight.predicted.cost <= Dollars::new(0.000001));
        }
        let roomy = opt
            .plan_sql(CHAIN, Constraint::Budget(Dollars::new(10.0)))
            .unwrap();
        assert!(roomy.feasible);
        assert!(roomy.predicted.latency <= tight.predicted.latency);
    }

    #[test]
    fn error_injection_flows_from_config() {
        let cat = catalog();
        let cfg = OptimizerConfig {
            error_bound: 4.0,
            error_seed: 7,
            ..Default::default()
        };
        let opt = Optimizer::new(&cat, cfg);
        let noisy = opt.plan_sql(CHAIN, Constraint::MinCost).unwrap();
        let clean = Optimizer::new(&cat, OptimizerConfig::default())
            .plan_sql(CHAIN, Constraint::MinCost)
            .unwrap();
        // Injected error perturbs the plan's cardinality annotations.
        let noisy_est: f64 = noisy.plan.nodes.iter().map(|n| n.est_rows).sum();
        let clean_est: f64 = clean.plan.nodes.iter().map(|n| n.est_rows).sum();
        assert_ne!(noisy_est, clean_est);
    }

    #[test]
    fn bounds_that_are_not_finite_above_one_plan_as_the_oracle() {
        let cat = catalog();
        let plan = |error_bound: f64| {
            let cfg = OptimizerConfig {
                error_bound,
                error_seed: 7,
                ..Default::default()
            };
            let p = Optimizer::new(&cat, cfg)
                .plan_sql(CHAIN, Constraint::MinCost)
                .unwrap();
            (p.plan, p.dops, p.predicted.cost, p.predicted.latency)
        };
        let oracle = plan(1.0);
        for bound in [f64::NAN, 0.5, f64::INFINITY] {
            assert!(plan(bound) == oracle, "bound {bound} perturbed the plan");
        }
    }
}
