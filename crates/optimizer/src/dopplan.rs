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

use ci_cost::{CostEstimator, PipelineWork, QueryEstimate, DOP_LADDER};
use ci_plan::physical::PhysicalPlan;
use ci_plan::pipeline::PipelineGraph;
use ci_types::money::Dollars;
use ci_types::{CiError, Result, SimDuration};

/// The user's constraint: the paper's "downgraded" bi-objective form, and
/// the one rule every plan choice follows.
///
/// An outcome *meets* the constraint ([`Constraint::met`]) when its latency
/// is within the SLA, or its cost within the budget; `MinCost` is always
/// met. Outcomes are ranked ([`Constraint::prefers`]) as follows: one that
/// meets the constraint beats one that does not; two that meet it are
/// ranked by the constraint's objective (dollars under an SLA or `MinCost`,
/// latency under a budget), two that miss it by the objective they violate
/// (latency under an SLA, dollars under a budget); the other objective
/// breaks a tie. The DOP search, its exhaustive reference and the
/// warehouse's verdict on an executed query all apply this rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// Minimize dollars subject to `latency <= sla`.
    LatencySla(SimDuration),
    /// Minimize latency subject to `cost <= budget`.
    Budget(Dollars),
    /// No constraint: minimize dollars (cheapest plan that still finishes).
    MinCost,
}

impl Constraint {
    /// Whether an outcome of this latency and cost meets the constraint.
    pub fn met(self, latency: SimDuration, cost: Dollars) -> bool {
        match self {
            Constraint::LatencySla(sla) => latency <= sla,
            Constraint::Budget(budget) => cost <= budget,
            Constraint::MinCost => true,
        }
    }

    /// Whether predicted outcome `a` ranks strictly before `b` under the
    /// rule above; on a full tie the earlier candidate stays.
    pub fn prefers(self, a: &QueryEstimate, b: &QueryEstimate) -> bool {
        // Smallest first: misses the constraint, the deciding objective,
        // the other one.
        let rank = |e: &QueryEstimate| {
            let met = self.met(e.latency, e.cost);
            let (latency, cost) = (e.latency.as_secs_f64(), e.cost.amount());
            match (self, met) {
                (Constraint::Budget(_), true) | (Constraint::LatencySla(_), false) => {
                    (!met, latency, cost)
                }
                _ => (!met, cost, latency),
            }
        };
        rank(a) < rank(b)
    }
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
    /// Candidate DOP ladder (powers of two by default). Planning with an
    /// empty ladder is a [`CiError::Config`].
    pub candidates: Vec<u32>,
    /// Search statistics (reset per plan call).
    pub stats: SearchStats,
}

impl<'a, 'c> DopPlanner<'a, 'c> {
    /// New planner over a cost estimator with the [`DOP_LADDER`].
    pub fn new(est: &'a CostEstimator<'c>) -> DopPlanner<'a, 'c> {
        DopPlanner {
            est,
            candidates: DOP_LADDER.to_vec(),
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

    /// Fails with a typed error when there is no DOP to choose from.
    fn check_candidates(&self) -> Result<()> {
        if self.candidates.is_empty() {
            return Err(CiError::Config("DOP planner has no candidate DOPs".into()));
        }
        Ok(())
    }

    /// Plans DOPs with the paper's heuristic search.
    pub fn plan(
        &mut self,
        plan: &PhysicalPlan,
        graph: &PipelineGraph,
        constraint: Constraint,
    ) -> Result<DopPlan> {
        self.check_candidates()?;
        self.stats = SearchStats::default();
        let works: Vec<PipelineWork> = graph
            .pipelines
            .iter()
            .map(|p| self.est.pipeline_work(plan, p))
            .collect::<Result<Vec<_>>>()?;

        // Start from each pipeline's standalone machine-time optimum.
        let mut dops: Vec<u32> = works
            .iter()
            .map(|w| self.est.machine_time_optimal_dop(w, &self.candidates))
            .collect();
        let mut current = self.estimate(plan, graph, &dops)?;

        if let Constraint::Budget(_) = constraint {
            // Spend the budget on the best marginal improvements while it
            // lasts.
            while let Some((next_dops, next_est)) = self.best_bump(plan, graph, &dops, &current)? {
                if !constraint.met(next_est.latency, next_est.cost) {
                    break;
                }
                dops = next_dops;
                current = next_est;
            }
        } else {
            // Greedy: bump the most cost-effective pipeline until the SLA
            // holds (`MinCost` always does) or nothing improves latency.
            while !constraint.met(current.latency, current.cost) {
                let Some((next_dops, next_est)) = self.best_bump(plan, graph, &dops, &current)?
                else {
                    break;
                };
                dops = next_dops;
                current = next_est;
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

        Ok(DopPlan {
            feasible: constraint.met(current.latency, current.cost),
            dops,
            predicted: current,
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
        self.check_candidates()?;
        self.stats = SearchStats::default();
        let p = graph.len();
        let mut best: Option<DopPlan> = None;
        let mut idx = vec![0usize; p];
        loop {
            let dops: Vec<u32> = idx.iter().map(|&i| self.candidates[i]).collect();
            let est = self.estimate(plan, graph, &dops)?;
            // The constraint's rule breaks ties by the other objective, so
            // the winner is minimal in both and does not depend on
            // enumeration order.
            if best
                .as_ref()
                .is_none_or(|b| constraint.prefers(&est, &b.predicted))
            {
                best = Some(DopPlan {
                    feasible: constraint.met(est.latency, est.cost),
                    dops,
                    predicted: est,
                });
            }
            // Advance the odometer.
            let mut k = 0;
            loop {
                if k == p {
                    // The first vector visited set `best`: the ladder is
                    // non-empty (checked above).
                    return best.ok_or_else(|| CiError::Config("no DOP vector visited".into()));
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
    fn empty_candidate_list_is_a_config_error() {
        let cat = catalog();
        let (plan, graph) = setup(&cat, "SELECT grp, SUM(val) FROM facts GROUP BY grp");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let mut planner = DopPlanner::new(&est);
        planner.candidates.clear();
        for constraint in [
            Constraint::MinCost,
            Constraint::LatencySla(SimDuration::from_secs(5)),
            Constraint::Budget(Dollars::new(0.01)),
        ] {
            let heuristic = planner.plan(&plan, &graph, constraint);
            assert!(
                matches!(heuristic, Err(CiError::Config(_))),
                "{heuristic:?}"
            );
            let exhaustive = planner.plan_exhaustive(&plan, &graph, constraint);
            assert!(
                matches!(exhaustive, Err(CiError::Config(_))),
                "{exhaustive:?}"
            );
        }
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
    fn the_rule_ranks_met_first_then_the_objective_then_the_other() {
        let sla = Constraint::LatencySla(SimDuration::from_secs(2));
        let budget = Constraint::Budget(Dollars::new(0.3));
        let min_cost = Constraint::MinCost;
        // (constraint, winner, loser, winner met, loser met), each outcome
        // as (latency s, dollars).
        let cases = [
            // Met beats missed, whatever the objectives say; the bound
            // itself meets.
            (sla, (2.0, 0.9), (3.0, 0.1), true, false),
            (budget, (9.0, 0.3), (1.0, 0.4), true, false),
            // Both met: the constraint's objective decides...
            (sla, (1.9, 0.2), (1.0, 0.3), true, true),
            (budget, (1.0, 0.3), (2.0, 0.1), true, true),
            (min_cost, (9.0, 0.1), (1.0, 0.2), true, true),
            // ...and on a tie in it, the other objective.
            (sla, (1.0, 0.2), (1.5, 0.2), true, true),
            (budget, (1.0, 0.1), (1.0, 0.2), true, true),
            (min_cost, (1.0, 0.1), (2.0, 0.1), true, true),
            // Both missed: the violated objective, then the other.
            (sla, (3.0, 0.5), (4.0, 0.1), false, false),
            (sla, (3.0, 0.1), (3.0, 0.2), false, false),
            (budget, (9.0, 0.4), (1.0, 0.5), false, false),
            (budget, (1.0, 0.5), (2.0, 0.5), false, false),
        ];
        let outcome = |(secs, usd): (f64, f64)| QueryEstimate {
            latency: SimDuration::from_secs_f64(secs),
            machine_time: SimDuration::ZERO,
            cost: Dollars::new(usd),
            spans: Vec::new(),
        };
        for (i, (c, winner, loser, winner_met, loser_met)) in cases.into_iter().enumerate() {
            let (w, l) = (outcome(winner), outcome(loser));
            assert_eq!(c.met(w.latency, w.cost), winner_met, "case {i}");
            assert_eq!(c.met(l.latency, l.cost), loser_met, "case {i}");
            assert!(c.prefers(&w, &l), "case {i}: {winner:?} over {loser:?}");
            assert!(!c.prefers(&l, &w), "case {i}: {loser:?} over {winner:?}");
            assert!(!c.prefers(&w, &w.clone()), "case {i}: a full tie");
        }
    }

    #[test]
    fn standalone_optimum_is_interior() {
        let cat = catalog();
        let (plan, graph) = setup(&cat, "SELECT grp, SUM(val) FROM facts GROUP BY grp");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let w = est.pipeline_work(&plan, &graph.pipelines[0]).unwrap();
        let d = est.machine_time_optimal_dop(&w, &DOP_LADDER);
        // Machine-time optimum for a parallelizable pipeline is >= 1, and
        // far below the ladder max (overheads dominate at 256).
        assert!(d < 256, "standalone optimum {d}");
    }
}
