//! The pipeline-granular DOP monitor.

use ci_cost::{CostEstimator, PipelineWork, DOP_LADDER};
use ci_exec::scaling::{PipelineProgress, PipelineStart, ScaleDecision, ScalingController};
use ci_plan::physical::PhysicalPlan;
use ci_plan::pipeline::PipelineGraph;
use ci_types::{Result, SimDuration};

/// Relative deviation within which no action is taken (the paper's "within
/// a threshold": ±25 %). It is also the slack a corrected DOP may leave on
/// its deadline.
pub const THETA_SMALL: f64 = 0.25;

/// Source-row deviation beyond which a starting pipeline is re-sized: its
/// DOP becomes the smallest one that finishes the observed input within the
/// duration the plan promised for it (1.0, i.e. 2× off). Only that pipeline
/// is re-sized; the DOP planner is not re-run.
pub const THETA_LARGE: f64 = 1.0;

/// Minimum morsel progress before mid-pipeline corrections are trusted.
pub const MIN_FRACTION: f64 = 0.05;

/// Monitor knobs.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Candidate DOP ladder for corrections. An empty ladder makes no
    /// correction: every pipeline keeps the DOP it has.
    pub ladder: Vec<u32>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            ladder: DOP_LADDER.to_vec(),
        }
    }
}

/// The §3.3 DOP monitor: holds the planned per-pipeline work profiles and
/// durations, observes true cardinalities at run time, and corrects DOPs
/// per pipeline so the original latency promise is kept at minimal cost.
pub struct DopMonitor<'a, 'c> {
    est: &'a CostEstimator<'c>,
    works: Vec<PipelineWork>,
    planned_durations: Vec<SimDuration>,
    config: MonitorConfig,
    /// Small (per-pipeline) corrections applied.
    pub corrections: u32,
    /// Large-deviation re-plans applied at pipeline starts.
    pub replans: u32,
    /// Last DOP decided per pipeline (hysteresis).
    last_decision: Vec<Option<u32>>,
}

impl<'a, 'c> DopMonitor<'a, 'c> {
    /// Builds a monitor for a planned query: records each pipeline's work
    /// profile and the duration the plan promised at its chosen DOP.
    pub fn new(
        est: &'a CostEstimator<'c>,
        plan: &PhysicalPlan,
        graph: &PipelineGraph,
        planned_dops: &[u32],
        config: MonitorConfig,
    ) -> Result<DopMonitor<'a, 'c>> {
        let works: Vec<PipelineWork> = graph
            .pipelines
            .iter()
            .map(|p| est.pipeline_work(plan, p))
            .collect::<Result<Vec<_>>>()?;
        let planned_durations = works
            .iter()
            .zip(planned_dops)
            .map(|(w, &d)| est.pipeline_duration(w, d))
            .collect();
        let n = graph.len();
        Ok(DopMonitor {
            est,
            works,
            planned_durations,
            config,
            corrections: 0,
            replans: 0,
            last_decision: vec![None; n],
        })
    }

    /// Scales a work profile's data-dependent terms by an observed ratio.
    fn scaled_work(w: &PipelineWork, ratio: f64) -> PipelineWork {
        let mut s = w.clone();
        s.filter_rows *= ratio;
        s.exchange_rows *= ratio;
        s.exchange_bytes *= ratio;
        s.gather_bytes *= ratio;
        s.probe_rows *= ratio;
        s.probe_out_rows *= ratio;
        s.build_rows *= ratio;
        s.agg_rows *= ratio;
        s.sort_rows *= ratio;
        s.sink_copy_rows *= ratio;
        s.source_rows *= ratio;
        s
    }

    /// Smallest ladder DOP that finishes `work` within `deadline`. When no
    /// DOP meets the deadline (the work may simply not parallelize), fall
    /// back to the *smallest* DOP within 5% of the best achievable duration
    /// — never burn nodes that cannot buy time. `None` on an empty ladder.
    fn min_dop_for(&self, work: &PipelineWork, deadline: SimDuration) -> Option<u32> {
        let ladder = &self.config.ladder;
        let duration = |d| self.est.pipeline_duration(work, d);
        let slack = deadline * (1.0 + THETA_SMALL);
        if let Some(d) = ladder.iter().copied().find(|&d| duration(d) <= slack) {
            return Some(d);
        }
        let best = ladder.iter().map(|&d| duration(d)).min()?;
        (ladder.iter().copied())
            .find(|&d| duration(d) <= best * 1.05)
            .or(ladder.last().copied())
    }
}

impl ScalingController for DopMonitor<'_, '_> {
    fn on_pipeline_start(&mut self, ctx: &PipelineStart) -> u32 {
        let i = ctx.pipeline.index();
        let Some(actual) = ctx.actual_source_rows else {
            return ctx.planned_dop;
        };
        if ctx.planned_source_rows <= 0.0 {
            return ctx.planned_dop;
        }
        let ratio = actual / ctx.planned_source_rows;
        let deviation = (ratio - 1.0).abs();
        if deviation <= THETA_LARGE {
            return ctx.planned_dop;
        }
        // Large deviation: re-plan this pipeline's DOP so its planned
        // duration still holds with the observed input size.
        let scaled = Self::scaled_work(&self.works[i], ratio);
        let Some(d) = self.min_dop_for(&scaled, self.planned_durations[i]) else {
            return ctx.planned_dop;
        };
        if d != ctx.planned_dop {
            self.replans += 1;
        }
        d
    }

    fn on_progress(&mut self, p: &PipelineProgress) -> ScaleDecision {
        let i = p.pipeline.index();
        if p.fraction_done() < MIN_FRACTION || p.morsels_total == 0 {
            return ScaleDecision::Keep;
        }
        let dev_ratio = p.sink_deviation();
        let deviation = (dev_ratio - 1.0).abs();
        if deviation <= THETA_SMALL {
            return ScaleDecision::Keep;
        }
        // Correct this pipeline only: pick the smallest DOP that completes
        // the remaining (re-scaled) work within the remaining planned time.
        let remaining_frac = (1.0 - p.fraction_done()).max(0.0);
        if remaining_frac <= 0.0 {
            return ScaleDecision::Keep;
        }
        let scaled = Self::scaled_work(&self.works[i], dev_ratio * remaining_frac);
        let remaining_budget = self.planned_durations[i]
            .saturating_sub(p.elapsed)
            .max(self.planned_durations[i] / 10.0);
        let Some(d) = self.min_dop_for(&scaled, remaining_budget) else {
            return ScaleDecision::Keep;
        };
        if d == p.current_dop || self.last_decision[i] == Some(d) {
            return ScaleDecision::Keep;
        }
        self.last_decision[i] = Some(d);
        self.corrections += 1;
        ScaleDecision::SetDop(d)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_catalog::Catalog;
    use ci_cost::EstimatorConfig;
    use ci_exec::{ExecutionConfig, Executor, NoScaling};
    use ci_optimizer::{Constraint, Optimizer, OptimizerConfig};
    use ci_storage::batch::RecordBatch;
    use ci_storage::column::ColumnData;
    use ci_storage::schema::{Field, Schema};
    use ci_storage::table::TableBuilder;
    use ci_storage::value::DataType;
    use ci_types::{SimDuration, TableId};

    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Arc::new(Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
            Field::new("val", DataType::Float64),
        ]));
        let n = 600_000i64;
        let mut b = TableBuilder::new(TableId::new(0), "facts", schema.clone(), 8_192).unwrap();
        b.append(
            RecordBatch::new(
                schema,
                vec![
                    ColumnData::Int64((0..n).collect()),
                    ColumnData::Int64((0..n).map(|i| i % 700).collect()),
                    ColumnData::Float64((0..n).map(|i| (i % 1000) as f64).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(b.finish().unwrap());
        c
    }

    const SQL: &str = "SELECT grp, SUM(val), COUNT(*) FROM facts WHERE val < 800.0 GROUP BY grp";

    /// [`SQL`] planned with badly injected cardinality errors: seeds are
    /// searched so that injection *underestimates* (the static plan
    /// under-provisions and runs slow).
    fn underestimated_query(cat: &Catalog) -> ci_optimizer::PlannedQuery {
        let mut cfg = OptimizerConfig {
            error_bound: 6.0,
            ..Default::default()
        };
        let mut chosen = None;
        for seed in 0..16u64 {
            cfg.error_seed = seed;
            let opt = Optimizer::new(cat, cfg.clone());
            let pq = opt
                .plan_sql(SQL, Constraint::LatencySla(SimDuration::from_secs(5)))
                .unwrap();
            // Underestimation: plan thinks the scan yields far fewer rows.
            if pq.plan.nodes[0].est_rows < 200_000.0 {
                chosen = Some(pq);
                break;
            }
        }
        chosen.expect("some seed underestimates")
    }

    /// Plan with badly injected cardinality errors; verify the monitor
    /// recovers the latency promise that static execution misses, or at
    /// least does no worse while reacting.
    #[test]
    fn monitor_corrects_misestimated_pipelines() {
        let cat = catalog();
        let pq = underestimated_query(&cat);
        let exec = Executor::new(&cat, ExecutionConfig::default());
        let static_run = exec
            .execute(&pq.plan, &pq.graph, &pq.dops, &mut NoScaling)
            .unwrap();

        let est = ci_cost::CostEstimator::new(&cat, EstimatorConfig::default());
        let mut monitor = DopMonitor::new(
            &est,
            &pq.plan,
            &pq.graph,
            &pq.dops,
            MonitorConfig::default(),
        )
        .unwrap();
        let monitored = exec
            .execute(&pq.plan, &pq.graph, &pq.dops, &mut monitor)
            .unwrap();

        assert_eq!(static_run.result, monitored.result, "results must agree");
        assert!(
            monitor.corrections + monitor.replans > 0,
            "monitor should react to a 6x misestimate"
        );
        assert!(
            monitored.metrics.latency.as_secs_f64()
                <= static_run.metrics.latency.as_secs_f64() * 1.05,
            "monitor must not be slower than static: {} vs {}",
            monitored.metrics.latency,
            static_run.metrics.latency
        );
    }

    /// With no DOP to choose from, the monitor that reacts to the same 6x
    /// misestimate above keeps every pipeline at its planned DOP: no
    /// correction, no re-plan, and the static run's latency to the bit.
    #[test]
    fn empty_ladder_makes_no_correction() {
        let cat = catalog();
        let pq = underestimated_query(&cat);
        let exec = Executor::new(&cat, ExecutionConfig::default());
        let static_run = exec
            .execute(&pq.plan, &pq.graph, &pq.dops, &mut NoScaling)
            .unwrap();
        let est = ci_cost::CostEstimator::new(&cat, EstimatorConfig::default());
        let config = MonitorConfig { ladder: Vec::new() };
        let mut monitor = DopMonitor::new(&est, &pq.plan, &pq.graph, &pq.dops, config).unwrap();
        let monitored = exec
            .execute(&pq.plan, &pq.graph, &pq.dops, &mut monitor)
            .unwrap();
        assert_eq!((monitor.corrections, monitor.replans), (0, 0));
        assert_eq!(static_run.result, monitored.result);
        assert_eq!(monitored.metrics.latency, static_run.metrics.latency);
        assert_eq!(monitored.metrics.resize_events, 0);
    }

    #[test]
    fn monitor_idle_on_accurate_estimates() {
        let cat = catalog();
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        let pq = opt
            .plan_sql(SQL, Constraint::LatencySla(SimDuration::from_secs(5)))
            .unwrap();
        let est = ci_cost::CostEstimator::new(&cat, EstimatorConfig::default());
        let mut monitor = DopMonitor::new(
            &est,
            &pq.plan,
            &pq.graph,
            &pq.dops,
            MonitorConfig::default(),
        )
        .unwrap();
        let exec = Executor::new(&cat, ExecutionConfig::default());
        let out = exec
            .execute(&pq.plan, &pq.graph, &pq.dops, &mut monitor)
            .unwrap();
        // Histogram-level estimation error is small here; the monitor should
        // apply at most a trivial number of corrections.
        assert!(
            monitor.corrections <= 1 && monitor.replans == 0,
            "unexpected monitor churn: {} corrections, {} replans",
            monitor.corrections,
            monitor.replans
        );
        assert!(out.metrics.resize_events <= 1);
    }

    #[test]
    fn scaled_work_scales_linearly() {
        let w = PipelineWork {
            filter_rows: 100.0,
            probe_rows: 50.0,
            source_rows: 10.0,
            ..PipelineWork::default()
        };
        let s = DopMonitor::scaled_work(&w, 2.0);
        assert_eq!(s.filter_rows, 200.0);
        assert_eq!(s.probe_rows, 100.0);
        assert_eq!(s.source_rows, 20.0);
        // Fetch terms are metadata-exact and must not scale.
        assert_eq!(s.fetch_bytes, w.fetch_bytes);
    }
}
