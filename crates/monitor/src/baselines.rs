//! Prior-work auto-scaling baselines (§3.3).
//!
//! * [`WholeClusterScaling`] — Jockey/Ellis style \[11, 34]: check progress at
//!   fixed intervals against a whole-query deadline; when the projected
//!   completion misses it, scale **everything** (current and future
//!   pipelines) proportionally. The paper's criticism: scaling concurrent or
//!   downstream pipelines that are not the bottleneck wastes utilization.
//! * [`StageBoundaryScaling`] — BigQuery style \[1, 9]: no mid-pipeline
//!   changes; each stage's DOP is (re)set at its start from the observed
//!   output of the previous stage, which in the real system requires
//!   materializing intermediates at clean cuts (overhead quantified in
//!   experiment E7).

use ci_cost::DOP_LADDER;
use ci_exec::scaling::{PipelineProgress, PipelineStart, ScaleDecision, ScalingController};
use ci_types::SimDuration;

/// Whole-cluster interval scaling against a query deadline.
#[derive(Debug, Clone)]
pub struct WholeClusterScaling {
    /// Whole-query deadline the policy defends.
    pub deadline: SimDuration,
    /// Multiplier currently applied to every pipeline's planned DOP.
    pub factor: f64,
    /// Cap on the scale factor.
    pub max_factor: f64,
    /// Scaling actions taken.
    pub actions: u32,
}

impl WholeClusterScaling {
    /// New policy defending `deadline`.
    pub fn new(deadline: SimDuration) -> WholeClusterScaling {
        WholeClusterScaling {
            deadline,
            factor: 1.0,
            max_factor: 16.0,
            actions: 0,
        }
    }
}

impl ScalingController for WholeClusterScaling {
    fn on_pipeline_start(&mut self, ctx: &PipelineStart) -> u32 {
        ((ctx.planned_dop as f64 * self.factor).round() as u32).max(1)
    }

    fn on_progress(&mut self, p: &PipelineProgress) -> ScaleDecision {
        let frac = p.fraction_done();
        if frac < 0.05 {
            return ScaleDecision::Keep;
        }
        // Project whole-query completion from this pipeline's progress as if
        // the rest of the query scales the same way (the coarse, query-level
        // view these systems operate at).
        let projected_total = p.now.as_secs_f64() + p.elapsed.as_secs_f64() * (1.0 - frac) / frac;
        if projected_total > self.deadline.as_secs_f64() {
            let need = projected_total / self.deadline.as_secs_f64().max(1e-9);
            let new_factor = (self.factor * need).min(self.max_factor);
            if new_factor > self.factor * 1.05 {
                self.factor = new_factor;
                self.actions += 1;
                let new_dop = ((p.current_dop as f64 * need).round() as u32).max(p.current_dop + 1);
                return ScaleDecision::SetDop(new_dop);
            }
        }
        ScaleDecision::Keep
    }
}

/// Per-stage scaling at shuffle boundaries; never resizes mid-pipeline.
#[derive(Debug, Clone, Default)]
pub struct StageBoundaryScaling {
    /// Stage-start adjustments made.
    pub adjustments: u32,
}

impl StageBoundaryScaling {
    /// New policy, rounding to the [`DOP_LADDER`].
    pub fn new() -> StageBoundaryScaling {
        StageBoundaryScaling::default()
    }

    fn round_to_ladder(d: f64) -> u32 {
        let mut best = DOP_LADDER[0];
        let mut best_err = f64::INFINITY;
        for c in DOP_LADDER {
            let err = ((c as f64).ln() - d.max(1.0).ln()).abs();
            if err < best_err {
                best_err = err;
                best = c;
            }
        }
        best
    }
}

impl ScalingController for StageBoundaryScaling {
    fn on_pipeline_start(&mut self, ctx: &PipelineStart) -> u32 {
        let Some(actual) = ctx.actual_source_rows else {
            return ctx.planned_dop;
        };
        if ctx.planned_source_rows <= 0.0 || actual <= 0.0 {
            return ctx.planned_dop;
        }
        let ratio = actual / ctx.planned_source_rows;
        // BigQuery-style: the next stage's worker count tracks the observed
        // input volume of the stage.
        let d = Self::round_to_ladder(ctx.planned_dop as f64 * ratio);
        if d != ctx.planned_dop {
            self.adjustments += 1;
        }
        d
    }
    // No on_progress override: clean-cut systems cannot resize mid-stage.
}

#[cfg(test)]
mod tests {
    use ci_types::{PipelineId, SimTime};

    use super::*;

    fn start_ctx(planned: u32, planned_rows: f64, actual: Option<f64>) -> PipelineStart {
        PipelineStart {
            pipeline: PipelineId::new(0),
            planned_dop: planned,
            planned_source_rows: planned_rows,
            actual_source_rows: actual,
            planned_sink_rows: planned_rows,
        }
    }

    fn progress(frac_done: f64, elapsed_s: f64, dop: u32) -> PipelineProgress {
        let total = 100usize;
        PipelineProgress {
            pipeline: PipelineId::new(0),
            current_dop: dop,
            morsels_done: (frac_done * total as f64) as usize,
            morsels_total: total,
            source_rows_seen: 1000,
            sink_rows_seen: 1000,
            planned_source_rows: 1000.0,
            planned_sink_rows: 1000.0,
            elapsed: SimDuration::from_secs_f64(elapsed_s),
            now: SimTime::from_secs_f64(elapsed_s),
        }
    }

    #[test]
    fn whole_cluster_scales_on_projected_miss() {
        let mut c = WholeClusterScaling::new(SimDuration::from_secs(10));
        // 20% done after 8s -> projected 40s total >> 10s deadline.
        let d = c.on_progress(&progress(0.2, 8.0, 4));
        assert!(matches!(d, ScaleDecision::SetDop(n) if n > 4), "{d:?}");
        assert_eq!(c.actions, 1);
        // Future pipelines inherit the factor.
        let start = c.on_pipeline_start(&start_ctx(4, 100.0, None));
        assert!(start > 4);
    }

    #[test]
    fn whole_cluster_idle_when_on_track() {
        let mut c = WholeClusterScaling::new(SimDuration::from_secs(100));
        assert_eq!(c.on_progress(&progress(0.5, 10.0, 4)), ScaleDecision::Keep);
        assert_eq!(c.actions, 0);
    }

    #[test]
    fn stage_boundary_tracks_observed_volume() {
        let mut c = StageBoundaryScaling::new();
        // 4x more input than planned -> next stage runs ~4x wider.
        let d = c.on_pipeline_start(&start_ctx(4, 1000.0, Some(4000.0)));
        assert_eq!(d, 16);
        assert_eq!(c.adjustments, 1);
        // 4x less -> narrower.
        let d = c.on_pipeline_start(&start_ctx(4, 1000.0, Some(250.0)));
        assert_eq!(d, 1);
        // Unknown input: keep plan.
        assert_eq!(c.on_pipeline_start(&start_ctx(4, 1000.0, None)), 4);
    }

    #[test]
    fn stage_boundary_never_resizes_midway() {
        let mut c = StageBoundaryScaling::new();
        assert_eq!(c.on_progress(&progress(0.2, 50.0, 4)), ScaleDecision::Keep);
    }
}
