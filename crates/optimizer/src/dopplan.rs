//! DOP planning: constrained single-objective search over per-pipeline
//! degrees of parallelism (§3.2).
//!
//! The search is greedy-marginal over the cost estimator:
//!
//! * **min-cost under a latency SLA** — start every pipeline at its
//!   standalone machine-time-optimal DOP, then repeatedly bump the DOP with
//!   the best Δlatency/Δcost ratio until the SLA is met;
//! * **min-latency under a budget** — start at min-cost, then spend budget
//!   on the best marginal improvements while it lasts;
//! * finally apply the **equal-finish-time heuristic**: within each group of
//!   concurrently-started pipelines, lower every DOP to the smallest value
//!   that still finishes by the group's critical finish time
//!   (`C1/T1(DOP1) ≈ C2/T2(DOP2)`), re-checking the constraint each step.
//!
//! All estimator invocations are counted ([`SearchStats`]) so tests can
//! compare search effort against the exhaustive reference.

use ci_cost::{CostEstimator, PipelineWork, QueryEstimate};
use ci_plan::physical::PhysicalPlan;
use ci_plan::pipeline::PipelineGraph;
use ci_types::money::Dollars;
use ci_types::{Result, SimDuration};

/// The user's constraint: the paper's "downgraded" bi-objective form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// Minimize dollars subject to `latency <= sla`.
    LatencySla(SimDuration),
    /// Minimize latency subject to `cost <= budget`.
    Budget(Dollars),
    /// No constraint: minimize dollars (cheapest plan that still finishes).
    MinCost,
}

/// A DOP assignment with its predicted outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DopPlan {
    /// DOP per pipeline.
    pub dops: Vec<u32>,
    /// Predicted latency/cost at those DOPs.
    pub predicted: QueryEstimate,
    /// `true` when the constraint is satisfied by the prediction.
    pub feasible: bool,
}

/// Search-effort accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Full query estimates computed.
    pub estimates: u64,
    /// Candidate DOP vectors considered.
    pub candidates: u64,
}

/// The DOP planner.
pub struct DopPlanner<'a, 'c> {
    est: &'a CostEstimator<'c>,
    /// Candidate DOP ladder (powers of two by default).
    pub candidates: Vec<u32>,
    /// Search statistics (reset per plan call).
    pub stats: SearchStats,
}

impl<'a, 'c> DopPlanner<'a, 'c> {
    /// New planner over a cost estimator with the default DOP ladder
    /// 1, 2, 4, ..., 256.
    pub fn new(est: &'a CostEstimator<'c>) -> DopPlanner<'a, 'c> {
        DopPlanner {
            est,
            candidates: (0..=8).map(|i| 1u32 << i).collect(),
            stats: SearchStats::default(),
        }
    }

    fn estimate(
        &mut self,
        plan: &PhysicalPlan,
        graph: &PipelineGraph,
        dops: &[u32],
    ) -> Result<QueryEstimate> {
        self.stats.estimates += 1;
        self.stats.candidates += 1;
        self.est.estimate(plan, graph, dops)
    }

    /// Plans DOPs with the paper's heuristic search.
    pub fn plan(
        &mut self,
        plan: &PhysicalPlan,
        graph: &PipelineGraph,
        constraint: Constraint,
    ) -> Result<DopPlan> {
        self.stats = SearchStats::default();
        let works: Vec<PipelineWork> = graph
            .pipelines
            .iter()
            .map(|p| self.est.pipeline_work(plan, p))
            .collect::<Result<Vec<_>>>()?;

        // Start from each pipeline's standalone machine-time optimum.
        let mut dops: Vec<u32> = works
            .iter()
            .map(|w| self.standalone_min_cost_dop(w))
            .collect();
        let mut current = self.estimate(plan, graph, &dops)?;

        match constraint {
            Constraint::MinCost => {}
            Constraint::LatencySla(sla) => {
                // Greedy: bump the most cost-effective pipeline until the SLA
                // holds or nothing improves latency.
                while current.latency > sla {
                    let Some((next_dops, next_est)) =
                        self.best_bump(plan, graph, &dops, &current)?
                    else {
                        break;
                    };
                    dops = next_dops;
                    current = next_est;
                }
            }
            Constraint::Budget(budget) => {
                while let Some((next_dops, next_est)) =
                    self.best_bump(plan, graph, &dops, &current)?
                {
                    if next_est.cost > budget {
                        break;
                    }
                    dops = next_dops;
                    current = next_est;
                }
            }
        }

        // Equal-finish-time trim (§3.2): within each concurrent group, lower
        // DOPs as long as neither the constraint nor overall latency regress.
        for group in graph.concurrent_groups() {
            if group.len() < 2 {
                continue;
            }
            for &pid in &group {
                let i = pid.index();
                while let Some(lower) = self.next_lower(dops[i]) {
                    let mut trial = dops.clone();
                    trial[i] = lower;
                    let est = self.estimate(plan, graph, &trial)?;
                    let ok = match constraint {
                        Constraint::LatencySla(sla) => {
                            est.latency <= sla || est.latency <= current.latency
                        }
                        Constraint::Budget(b) => est.cost <= b && est.latency <= current.latency,
                        Constraint::MinCost => est.latency <= current.latency,
                    };
                    if ok && est.cost <= current.cost {
                        dops = trial;
                        current = est;
                    } else {
                        break;
                    }
                }
            }
        }

        let feasible = match constraint {
            Constraint::LatencySla(sla) => current.latency <= sla,
            Constraint::Budget(b) => current.cost <= b,
            Constraint::MinCost => true,
        };
        Ok(DopPlan {
            dops,
            predicted: current,
            feasible,
        })
    }

    /// Exhaustive cross-product search over the candidate ladder — the
    /// reference the heuristic is tested against. Exponential: use only on
    /// few-pipeline plans.
    pub fn plan_exhaustive(
        &mut self,
        plan: &PhysicalPlan,
        graph: &PipelineGraph,
        constraint: Constraint,
    ) -> Result<DopPlan> {
        self.stats = SearchStats::default();
        let p = graph.len();
        let mut best: Option<DopPlan> = None;
        let mut idx = vec![0usize; p];
        loop {
            let dops: Vec<u32> = idx.iter().map(|&i| self.candidates[i]).collect();
            let est = self.estimate(plan, graph, &dops)?;
            let feasible = match constraint {
                Constraint::LatencySla(sla) => est.latency <= sla,
                Constraint::Budget(b) => est.cost <= b,
                Constraint::MinCost => true,
            };
            // Feasible beats infeasible. A feasible plan is ranked by the
            // objective, an infeasible one by the objective it violates;
            // the other objective breaks ties, so the winner is minimal in
            // both and does not depend on enumeration order.
            let latency_first = matches!(
                (constraint, feasible),
                (Constraint::Budget(_), true) | (Constraint::LatencySla(_), false)
            );
            let rank = |e: &QueryEstimate| {
                let (lat, cost) = (e.latency.as_secs_f64(), e.cost.amount());
                if latency_first {
                    (lat, cost)
                } else {
                    (cost, lat)
                }
            };
            let better = match &best {
                None => true,
                Some(b) if b.feasible != feasible => feasible,
                Some(b) => rank(&est) < rank(&b.predicted),
            };
            if better {
                best = Some(DopPlan {
                    dops,
                    predicted: est,
                    feasible,
                });
            }
            // Advance the odometer.
            let mut k = 0;
            loop {
                if k == p {
                    return Ok(best.expect("at least one candidate"));
                }
                idx[k] += 1;
                if idx[k] < self.candidates.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }

    /// Standalone machine-time-optimal DOP of one pipeline: minimizes
    /// `dop × duration(dop)` over the ladder (ties go to the smaller DOP).
    pub fn standalone_min_cost_dop(&self, w: &PipelineWork) -> u32 {
        self.est.machine_time_optimal_dop(w, &self.candidates)
    }

    /// Tries every single-pipeline DOP bump; returns the one with the best
    /// latency improvement per extra dollar.
    #[allow(clippy::type_complexity)]
    fn best_bump(
        &mut self,
        plan: &PhysicalPlan,
        graph: &PipelineGraph,
        dops: &[u32],
        current: &QueryEstimate,
    ) -> Result<Option<(Vec<u32>, QueryEstimate)>> {
        let mut best: Option<(f64, Vec<u32>, QueryEstimate)> = None;
        for i in 0..dops.len() {
            let Some(next) = self.next_higher(dops[i]) else {
                continue;
            };
            let mut trial = dops.to_vec();
            trial[i] = next;
            let est = self.estimate(plan, graph, &trial)?;
            let dt = current.latency.as_secs_f64() - est.latency.as_secs_f64();
            if dt <= 0.0 {
                continue;
            }
            let dc = (est.cost - current.cost).amount().max(1e-9);
            let ratio = dt / dc;
            if best.as_ref().is_none_or(|(r, _, _)| ratio > *r) {
                best = Some((ratio, trial, est));
            }
        }
        Ok(best.map(|(_, d, e)| (d, e)))
    }

    fn next_higher(&self, d: u32) -> Option<u32> {
        self.candidates.iter().copied().find(|&c| c > d)
    }

    fn next_lower(&self, d: u32) -> Option<u32> {
        self.candidates.iter().rev().copied().find(|&c| c < d)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_catalog::{Catalog, ErrorInjector};
    use ci_cost::EstimatorConfig;
    use ci_plan::{bind, JoinTree, PipelineGraph};
    use ci_sql::parse;
    use ci_storage::batch::RecordBatch;
    use ci_storage::column::ColumnData;
    use ci_storage::schema::{Field, Schema};
    use ci_storage::table::TableBuilder;
    use ci_storage::value::DataType;
    use ci_types::TableId;

    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Arc::new(Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
            Field::new("val", DataType::Float64),
        ]));
        let n = 500_000i64;
        let mut b = TableBuilder::new(TableId::new(0), "facts", schema.clone(), 16_384).unwrap();
        b.append(
            RecordBatch::new(
                schema,
                vec![
                    ColumnData::Int64((0..n).collect()),
                    ColumnData::Int64((0..n).map(|i| i % 500).collect()),
                    ColumnData::Float64((0..n).map(|i| (i % 1000) as f64).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(b.finish().unwrap());
        let dim = Arc::new(Schema::of(vec![
            Field::new("d_id", DataType::Int64),
            Field::new("d_x", DataType::Int64),
        ]));
        let mut b = TableBuilder::new(TableId::new(1), "dims", dim.clone(), 256).unwrap();
        b.append(
            RecordBatch::new(
                dim,
                vec![
                    ColumnData::Int64((0..500).collect()),
                    ColumnData::Int64((0..500).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(b.finish().unwrap());
        c
    }

    fn setup(cat: &Catalog, sql: &str) -> (ci_plan::PhysicalPlan, PipelineGraph) {
        let b = bind(&parse(sql).unwrap(), cat).unwrap();
        let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
        let plan =
            ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
        let graph = PipelineGraph::decompose(&plan).unwrap();
        (plan, graph)
    }

    #[test]
    fn tighter_sla_costs_more() {
        let cat = catalog();
        let (plan, graph) = setup(&cat, "SELECT grp, SUM(val) FROM facts GROUP BY grp");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let mut planner = DopPlanner::new(&est);
        let loose = planner
            .plan(
                &plan,
                &graph,
                Constraint::LatencySla(SimDuration::from_secs(60)),
            )
            .unwrap();
        let tight = planner
            .plan(
                &plan,
                &graph,
                Constraint::LatencySla(SimDuration::from_millis(2200)),
            )
            .unwrap();
        assert!(loose.feasible);
        assert!(tight.predicted.latency <= loose.predicted.latency);
        assert!(
            tight.predicted.cost.amount() >= loose.predicted.cost.amount(),
            "tight {} vs loose {}",
            tight.predicted.cost,
            loose.predicted.cost
        );
    }

    #[test]
    fn bigger_budget_buys_latency() {
        let cat = catalog();
        let (plan, graph) = setup(&cat, "SELECT grp, SUM(val) FROM facts GROUP BY grp");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let mut planner = DopPlanner::new(&est);
        let small = planner
            .plan(&plan, &graph, Constraint::Budget(Dollars::new(0.003)))
            .unwrap();
        let big = planner
            .plan(&plan, &graph, Constraint::Budget(Dollars::new(0.1)))
            .unwrap();
        assert!(big.predicted.latency <= small.predicted.latency);
        assert!(small.predicted.cost <= Dollars::new(0.003) || !small.feasible);
    }

    #[test]
    fn infeasible_sla_flagged() {
        let cat = catalog();
        let (plan, graph) = setup(&cat, "SELECT grp, SUM(val) FROM facts GROUP BY grp");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let mut planner = DopPlanner::new(&est);
        let impossible = planner
            .plan(
                &plan,
                &graph,
                Constraint::LatencySla(SimDuration::from_micros(1)),
            )
            .unwrap();
        assert!(!impossible.feasible);
    }

    #[test]
    fn heuristic_close_to_exhaustive_with_fewer_estimates() {
        let cat = catalog();
        let (plan, graph) = setup(
            &cat,
            "SELECT d_x, COUNT(*) FROM facts f JOIN dims d ON f.grp = d.d_id GROUP BY d_x",
        );
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let mut planner = DopPlanner::new(&est);
        // Shrink the ladder so the exhaustive baseline stays tractable.
        planner.candidates = vec![1, 4, 16, 64];
        // A reachable SLA and one no ladder point meets: the reference is
        // minimal either way, so the comparison is never skipped.
        for (sla_ms, reachable) in [(3000, true), (100, false)] {
            let sla = Constraint::LatencySla(SimDuration::from_millis(sla_ms));
            let heuristic = planner.plan(&plan, &graph, sla).unwrap();
            let h_stats = planner.stats;
            let exhaustive = planner.plan_exhaustive(&plan, &graph, sla).unwrap();
            let e_stats = planner.stats;

            assert!(
                h_stats.estimates < e_stats.estimates / 2,
                "heuristic should search far less: {h_stats:?} vs {e_stats:?}"
            );
            assert_eq!(exhaustive.feasible, reachable, "SLA {sla_ms} ms");
            assert_eq!(heuristic.feasible, reachable, "SLA {sla_ms} ms");
            // Never dominated by more than the gap: where the reference is
            // no worse on both objectives, it is better by < 1.6x on each.
            let (h, e) = (&heuristic.predicted, &exhaustive.predicted);
            if e.cost <= h.cost && e.latency <= h.latency {
                let cost_gap = h.cost.amount() / e.cost.amount().max(1e-12);
                let lat_gap = h.latency.as_secs_f64() / e.latency.as_secs_f64().max(1e-12);
                assert!(
                    cost_gap < 1.6 && lat_gap < 1.6,
                    "SLA {sla_ms} ms: gap vs exhaustive {cost_gap} / {lat_gap}"
                );
            }
        }
    }

    #[test]
    fn standalone_optimum_is_interior() {
        let cat = catalog();
        let (plan, graph) = setup(&cat, "SELECT grp, SUM(val) FROM facts GROUP BY grp");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let planner = DopPlanner::new(&est);
        let w = est.pipeline_work(&plan, &graph.pipelines[0]).unwrap();
        let d = planner.standalone_min_cost_dop(&w);
        // Machine-time optimum for a parallelizable pipeline is >= 1, and
        // far below the ladder max (overheads dominate at 256).
        assert!(d < 256, "standalone optimum {d}");
    }
}
