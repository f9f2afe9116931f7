//! Workload prediction (§4).
//!
//! "To estimate the above dollar benefits/costs for a tuning action, the
//! system must be able to predict future workloads." We use the simple,
//! explainable predictor the paper's architecture enables: per-fingerprint
//! arrival rates estimated from the Statistics Service's observation
//! windows, exponentially smoothed. (The paper cites fancier ML \[22]; the
//! *interface* — rates per fingerprint — is what the What-If Service needs.)

use ci_types::money::Dollars;
use ci_types::SimTime;

use crate::statsvc::StatisticsService;

/// A predicted recurring query.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictedQuery {
    /// Workload fingerprint.
    pub fingerprint: String,
    /// Representative SQL text.
    pub sql: String,
    /// Predicted executions per hour.
    pub rate_per_hour: f64,
    /// Observed average dollars per execution.
    pub cost_per_execution: Dollars,
}

/// Frequency-based workload predictor.
#[derive(Debug, Clone)]
pub struct WorkloadPredictor {
    /// Minimum observed executions for a fingerprint to be predicted as
    /// recurring (ad-hoc queries are not extrapolated).
    pub min_count: f64,
}

impl Default for WorkloadPredictor {
    fn default() -> Self {
        WorkloadPredictor { min_count: 3.0 }
    }
}

impl WorkloadPredictor {
    /// New predictor with defaults.
    pub fn new() -> WorkloadPredictor {
        WorkloadPredictor::default()
    }

    /// Predicts the recurring workload as of `now` from service summaries.
    /// Rate = count / observation span, for fingerprints seen at least
    /// `min_count` times over a non-trivial span.
    pub fn predict(&self, stats: &StatisticsService, now: SimTime) -> Vec<PredictedQuery> {
        let mut out = Vec::new();
        for (fp, s) in stats.fingerprints() {
            if s.count < self.min_count {
                continue;
            }
            let span_h = now
                .saturating_since(s.first_seen)
                .as_hours_f64()
                .max(1.0 / 60.0);
            let rate = s.count / span_h;
            if rate <= 0.0 {
                continue;
            }
            out.push(PredictedQuery {
                fingerprint: fp.to_owned(),
                sql: s.sql.clone(),
                rate_per_hour: rate,
                cost_per_execution: s.total_cost / s.count.max(1.0),
            });
        }
        out.sort_by(|a, b| {
            let ca = a.rate_per_hour * a.cost_per_execution.amount();
            let cb = b.rate_per_hour * b.cost_per_execution.amount();
            cb.total_cmp(&ca).then(a.fingerprint.cmp(&b.fingerprint))
        });
        out
    }

    /// Total predicted spend rate ($/hour) of the recurring workload.
    pub fn predicted_spend_rate(&self, predicted: &[PredictedQuery]) -> Dollars {
        predicted
            .iter()
            .map(|p| p.cost_per_execution * p.rate_per_hour)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use ci_types::{SimDuration, TableId};

    use crate::statsvc::{QueryLogRecord, StatsConfig};

    use super::*;

    fn rec(fp: &str, t_hours: f64, cost: f64) -> QueryLogRecord {
        QueryLogRecord {
            fingerprint: fp.to_owned(),
            sql: fp.to_owned(),
            finished_at: SimTime::from_secs_f64(t_hours * 3600.0),
            latency: SimDuration::from_secs(1),
            machine_time: SimDuration::from_secs(2),
            cost: Dollars::new(cost),
            attributes: vec![(TableId::new(0), 0)],
            joins: vec![],
        }
    }

    #[test]
    fn rate_estimation_from_span() {
        let mut s = StatisticsService::new(StatsConfig::default());
        // 10 executions over 9 hours -> rate just over 1/hour.
        for i in 0..10 {
            s.ingest(rec("hourly", i as f64, 0.02));
        }
        let p = WorkloadPredictor::new();
        let predicted = p.predict(&s, SimTime::from_secs_f64(9.0 * 3600.0));
        assert_eq!(predicted.len(), 1);
        let q = &predicted[0];
        assert!(
            (q.rate_per_hour - 10.0 / 9.0).abs() < 0.01,
            "rate {}",
            q.rate_per_hour
        );
        assert!(q.cost_per_execution.abs_diff(Dollars::new(0.02)) < 1e-9);
    }

    #[test]
    fn ad_hoc_queries_not_extrapolated() {
        let mut s = StatisticsService::new(StatsConfig::default());
        s.ingest(rec("oneoff", 1.0, 5.0));
        s.ingest(rec("twice", 1.0, 0.1));
        s.ingest(rec("twice", 2.0, 0.1));
        for i in 0..5 {
            s.ingest(rec("steady", i as f64, 0.1));
        }
        let p = WorkloadPredictor::new();
        let predicted = p.predict(&s, SimTime::from_secs_f64(10.0 * 3600.0));
        let names: Vec<&str> = predicted.iter().map(|q| q.fingerprint.as_str()).collect();
        assert_eq!(names, vec!["steady"]);
    }

    #[test]
    fn spend_rate_totals() {
        let p = WorkloadPredictor::new();
        let predicted = vec![
            PredictedQuery {
                fingerprint: "a".into(),
                sql: "a".into(),
                rate_per_hour: 10.0,
                cost_per_execution: Dollars::new(0.05),
            },
            PredictedQuery {
                fingerprint: "b".into(),
                sql: "b".into(),
                rate_per_hour: 2.0,
                cost_per_execution: Dollars::new(1.0),
            },
        ];
        let rate = p.predicted_spend_rate(&predicted);
        assert!(rate.abs_diff(Dollars::new(2.5)) < 1e-12);
    }

    #[test]
    fn ranking_by_spend() {
        let mut s = StatisticsService::new(StatsConfig::default());
        for i in 0..5 {
            s.ingest(rec("cheap_frequent", i as f64, 0.001));
            s.ingest(rec("dear_frequent", i as f64, 1.0));
        }
        let p = WorkloadPredictor::new();
        let predicted = p.predict(&s, SimTime::from_secs_f64(10.0 * 3600.0));
        assert_eq!(predicted[0].fingerprint, "dear_frequent");
    }
}
