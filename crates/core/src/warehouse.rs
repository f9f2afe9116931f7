//! The cost-intelligent warehouse.

use ci_autotune::statsvc::fingerprint_sql;
use ci_autotune::{
    ProposalReport, QueryLogRecord, StatisticsService, StatsConfig, TuningAction, WhatIfConfig,
    WhatIfService, WorkloadPredictor,
};
use ci_catalog::Catalog;
use ci_cost::CostEstimator;
use ci_exec::{ExecutionConfig, Executor, NoScaling, QueryMetrics, TierCacheSim};
use ci_monitor::{DopMonitor, MonitorConfig};
use ci_optimizer::{Constraint, Optimizer, OptimizerConfig};
use ci_storage::schema::{Field, Schema};
use ci_storage::table::table_from_batch;
use ci_storage::RecordBatch;
use ci_types::money::Dollars;
use ci_types::{CiError, Result, SimDuration, SimTime, TableId};
use ci_workload::trace::WorkloadTrace;
use std::sync::{Arc, Mutex};

use crate::report::QueryReport;

/// Warehouse configuration: one knob bundle per Figure-3 component.
#[derive(Debug, Clone, Default)]
pub struct WarehouseConfig {
    /// Bi-objective optimizer knobs.
    pub optimizer: OptimizerConfig,
    /// Execution engine knobs.
    pub execution: ExecutionConfig,
    /// Statistics-service knobs.
    pub stats: StatsConfig,
    /// What-if service knobs.
    pub whatif: WhatIfConfig,
    /// DOP monitor thresholds.
    pub monitor: MonitorConfig,
    /// Run the DOP monitor during execution (the paper's hybrid mode).
    /// When `false`, execution is purely static.
    pub disable_monitor: bool,
}

/// A registered materialized view.
#[derive(Debug, Clone)]
struct MvEntry {
    name: String,
    definition_fingerprint: String,
}

/// The cost-intelligent cloud data warehouse (Figure 3).
pub struct Warehouse {
    catalog: Catalog,
    /// Configuration (public for experiments).
    pub config: WarehouseConfig,
    /// Execution history. No lock: ingestion has `&mut self`, every reader
    /// `&self`, so a panicking reader cannot leave anything behind that the
    /// next query trips over.
    stats: StatisticsService,
    now: SimTime,
    total_spend: Dollars,
    queries_run: u64,
    next_table_id: u32,
    mvs: Vec<MvEntry>,
}

impl Warehouse {
    /// Opens a warehouse over existing data.
    pub fn new(catalog: Catalog, config: WarehouseConfig) -> Warehouse {
        let next_table_id = catalog
            .tables()
            .map(|(_, e)| e.table.id.0 + 1)
            .max()
            .unwrap_or(0);
        let stats = StatisticsService::new(config.stats.clone());
        Warehouse {
            catalog,
            config,
            stats,
            now: SimTime::ZERO,
            total_spend: Dollars::ZERO,
            queries_run: 0,
            next_table_id,
            mvs: Vec::new(),
        }
    }

    /// The catalog (metadata service view).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total dollars billed across all queries and tuning actions.
    pub fn total_spend(&self) -> Dollars {
        self.total_spend
    }

    /// Number of queries executed.
    pub fn queries_run(&self) -> u64 {
        self.queries_run
    }

    /// Names of registered materialized views.
    pub fn materialized_views(&self) -> Vec<&str> {
        self.mvs.iter().map(|m| m.name.as_str()).collect()
    }

    /// Submits a query at the current virtual time.
    pub fn submit(&mut self, sql: &str, constraint: Constraint) -> Result<QueryReport> {
        self.submit_at(sql, constraint, self.now)
    }

    /// Submits a query at a specific virtual time (trace replay). Queries
    /// run on private compute (§3), so arrivals may overlap freely.
    pub fn submit_at(
        &mut self,
        sql: &str,
        constraint: Constraint,
        at: SimTime,
    ) -> Result<QueryReport> {
        let submitted_at = at;
        let fingerprint = fingerprint_sql(sql);

        // MV substitution: a query whose shape matches an MV definition is
        // answered from the materialized result.
        let (exec_sql, used_mv) = match self
            .mvs
            .iter()
            .find(|m| m.definition_fingerprint == fingerprint)
        {
            Some(m) => (format!("SELECT * FROM {}", m.name), Some(m.name.clone())),
            None => (sql.to_owned(), None),
        };

        // Foreground planning: bi-objective optimizer.
        let opt = Optimizer::new(&self.catalog, self.config.optimizer.clone());
        let planned = opt.plan_sql(&exec_sql, constraint)?;

        // Execution, with the DOP monitor in the loop unless disabled.
        let executor = Executor::new(&self.catalog, self.config.execution.clone());
        let est = CostEstimator::new(&self.catalog, self.config.optimizer.estimator.clone());
        let outcome = if self.config.disable_monitor {
            executor.execute(&planned.plan, &planned.graph, &planned.dops, &mut NoScaling)?
        } else {
            let mut monitor = DopMonitor::new(
                &est,
                &planned.plan,
                &planned.graph,
                &planned.dops,
                self.config.monitor.clone(),
            )?;
            executor.execute(&planned.plan, &planned.graph, &planned.dops, &mut monitor)?
        };

        let finished_at = submitted_at + outcome.metrics.latency;
        let constraint_met = match constraint {
            Constraint::LatencySla(sla) => outcome.metrics.latency <= sla,
            Constraint::Budget(b) => outcome.metrics.cost <= b,
            Constraint::MinCost => true,
        };

        // Statistics service ingestion (execution history, Figure 3).
        let record = self.log_record(&fingerprint, sql, finished_at, &outcome.metrics, &planned);
        self.stats.ingest(record);

        self.total_spend += outcome.metrics.cost;
        self.queries_run += 1;
        self.now = self.now.max(finished_at);

        Ok(QueryReport {
            result: outcome.result,
            submitted_at,
            finished_at,
            latency: outcome.metrics.latency,
            cost: outcome.metrics.cost,
            machine_time: outcome.metrics.machine_time,
            predicted_latency: planned.predicted.latency,
            predicted_cost: planned.predicted.cost,
            feasible: planned.feasible,
            constraint_met,
            dops: planned.dops.clone(),
            resize_events: outcome.metrics.resize_events,
            plan_text: planned.plan.display(),
            used_mv,
        })
    }

    fn log_record(
        &self,
        fingerprint: &str,
        sql: &str,
        finished_at: SimTime,
        metrics: &QueryMetrics,
        planned: &ci_optimizer::PlannedQuery,
    ) -> QueryLogRecord {
        let mut attributes = Vec::new();
        let mut joins = Vec::new();
        for r in &planned.bound.relations {
            for b in &r.prune_bounds {
                attributes.push((r.table_id, b.column));
            }
        }
        for e in &planned.bound.join_edges {
            let l = &planned.bound.relations[e.left_rel];
            let r = &planned.bound.relations[e.right_rel];
            let la = (l.table_id, e.left_slot - l.global_offset);
            let ra = (r.table_id, e.right_slot - r.global_offset);
            attributes.push(la);
            attributes.push(ra);
            joins.push((la, ra));
        }
        QueryLogRecord {
            fingerprint: fingerprint.to_owned(),
            sql: sql.to_owned(),
            finished_at,
            latency: metrics.latency,
            machine_time: metrics.machine_time,
            cost: metrics.cost,
            attributes,
            joins,
        }
    }

    /// Replays a workload trace; returns per-query reports.
    pub fn run_trace(
        &mut self,
        trace: &WorkloadTrace,
        constraint: Constraint,
    ) -> Result<Vec<QueryReport>> {
        trace
            .entries
            .iter()
            .map(|e| self.submit_at(&e.sql, constraint, e.at))
            .collect()
    }

    /// Asks the auto-tuning stack for proposals: workload prediction from
    /// the statistics service, candidate generation (MVs for the costliest
    /// recurring fingerprints, reclustering for the hottest attributes),
    /// and dollar-denominated what-if evaluation (§4). Sorted by net rate.
    pub fn tuning_proposals(&self) -> Result<Vec<ProposalReport>> {
        let predicted = WorkloadPredictor::new().predict(&self.stats, self.now);
        let svc = WhatIfService::new(&self.catalog, self.config.whatif.clone());
        let mut proposals = Vec::new();

        // MV candidates from the costliest recurring queries.
        for (i, q) in predicted.iter().take(5).enumerate() {
            let action = TuningAction::CreateMaterializedView {
                name: format!("mv_auto_{i}"),
                definition_sql: q.sql.clone(),
                refresh_per_hour: 0.1,
            };
            proposals.push(svc.evaluate(&action, &predicted)?);
        }

        // Recluster candidates from the hottest filtered attributes.
        for ((table_id, col), _count) in self.stats.hot_attributes(3) {
            let Ok(entry) = self.catalog.get_by_id(table_id) else {
                continue;
            };
            if entry.table.clustered_by == Some(col) {
                continue; // already clustered this way
            }
            if col >= entry.table.schema.arity() {
                continue;
            }
            let action = TuningAction::Recluster {
                table: entry.table.name.clone(),
                column: entry.table.schema.field(col).name.clone(),
            };
            proposals.push(svc.evaluate(&action, &predicted)?);
        }

        proposals.sort_by(|a, b| b.net_rate.amount().total_cmp(&a.net_rate.amount()));
        Ok(proposals)
    }

    /// Applies a tuning action on background compute; returns the one-time
    /// dollars billed. Accepted proposals from [`Warehouse::tuning_proposals`]
    /// feed here (optionally after user approval, as §4 sketches).
    pub fn apply(&mut self, action: &TuningAction) -> Result<Dollars> {
        match action {
            TuningAction::Recluster { table, column } => {
                let entry = self.catalog.get(table)?.clone();
                let col = entry.table.schema.index_of(column)?;
                let rows_per_part = entry
                    .table
                    .partitions
                    .first()
                    .map(|p| p.rows().max(1))
                    .unwrap_or(8192);
                let reclustered = entry.table.reclustered_by(col, rows_per_part)?;
                // One-time bill: read + write the table once on background
                // compute (object I/O moves encoded bytes). Less than the
                // what-if service's `evaluate_recluster` quoted, which adds
                // a sort term — see ROADMAP direction B.
                let bytes = entry.table.total_encoded_bytes() as f64;
                let m = &self.config.whatif.estimator.models;
                let secs = 2.0 * bytes / m.hw.node_scan_bytes_per_sec();
                let bill = m.hw.node.rate.bill(SimDuration::from_secs_f64(secs));
                self.catalog.register(reclustered);
                self.total_spend += bill;
                Ok(bill)
            }
            TuningAction::CreateMaterializedView {
                name,
                definition_sql,
                ..
            } => {
                if self.catalog.get(name).is_ok() {
                    return Err(CiError::Tuning(format!(
                        "table or MV '{name}' already exists"
                    )));
                }
                // Build the MV by running its definition on background
                // compute at minimal cost.
                let report = self.submit(definition_sql, Constraint::MinCost)?;
                let mv_batch = sanitize_result(&report.result)?;
                let id = TableId::new(self.next_table_id);
                self.next_table_id += 1;
                self.catalog.register(table_from_batch(id, name, mv_batch));
                self.mvs.push(MvEntry {
                    name: name.clone(),
                    definition_fingerprint: fingerprint_sql(definition_sql),
                });
                Ok(report.cost)
            }
            TuningAction::PinTable { table, tier } => {
                let entry = self.catalog.get(table)?.clone();
                let Some(pricing) = self.config.execution.tiers.clone() else {
                    return Err(CiError::Tuning(
                        "cache pinning requires tier pricing on the execution config".into(),
                    ));
                };
                // The pin must outlive this call: install a process-shared
                // cache simulation if queries ran without one so far.
                let sim = self
                    .config
                    .execution
                    .tier_sim
                    .get_or_insert_with(|| Arc::new(Mutex::new(TierCacheSim::new(pricing))));
                // Same rule as the executor's `lock_sim`: bills are a function
                // of this state, so a poisoned simulator is a typed error.
                sim.lock()
                    .map_err(|_| {
                        CiError::Tuning(
                            "tier cache simulator lock is poisoned by an earlier panic".into(),
                        )
                    })?
                    .pin(entry.table.id, *tier);
                // One-time bill: fill the tier once from the object store on
                // background compute. Less than the what-if service's
                // `evaluate_pin` quoted, which adds the egress dollars — see
                // ROADMAP direction B.
                let bytes = entry.table.total_encoded_bytes() as f64;
                let m = &self.config.whatif.estimator.models;
                let secs = bytes / m.hw.node_scan_bytes_per_sec();
                let bill = m.hw.node.rate.bill(SimDuration::from_secs_f64(secs));
                self.total_spend += bill;
                Ok(bill)
            }
            TuningAction::CacheBudget {
                mem_bytes,
                ssd_bytes,
            } => {
                let Some(pricing) = self.config.execution.tiers.as_mut() else {
                    return Err(CiError::Tuning(
                        "cache budgets require tier pricing on the execution config".into(),
                    ));
                };
                pricing.mem.capacity_bytes = *mem_bytes;
                pricing.ssd.capacity_bytes = *ssd_bytes;
                let pricing = pricing.clone();
                // A resize restarts the cache cold: residency (and pins) do
                // not survive the capacity change. No one-time bill — the
                // cache refills lazily on misses the workload pays anyway.
                self.config.execution.tier_sim =
                    Some(Arc::new(Mutex::new(TierCacheSim::new(pricing))));
                Ok(Dollars::ZERO)
            }
        }
    }

    /// Read access to the statistics service (summaries, spend, counters).
    pub fn with_stats<R>(&self, f: impl FnOnce(&StatisticsService) -> R) -> R {
        f(&self.stats)
    }
}

/// Rebuilds a result batch with catalog-friendly column names
/// (`c0_…` sanitized identifiers) so it can be registered as a table.
fn sanitize_result(batch: &RecordBatch) -> Result<RecordBatch> {
    let fields: Vec<Field> = batch
        .schema()
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut name: String = f
                .name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            name = format!("c{i}_{name}");
            name.truncate(32);
            Field::new(name, f.data_type)
        })
        .collect();
    // Re-labelling only: the column payloads are Arc-shared, not copied.
    batch.with_schema(std::sync::Arc::new(Schema::new(fields)?))
}

#[cfg(test)]
mod tests {
    use ci_types::money::Dollars;
    use ci_workload::{CabGenerator, TraceConfig};

    use super::*;

    fn warehouse(scale: f64) -> Warehouse {
        let catalog = CabGenerator::at_scale(scale).build_catalog().unwrap();
        Warehouse::new(catalog, WarehouseConfig::default())
    }

    #[test]
    fn submit_under_sla() {
        let mut w = warehouse(0.1);
        let report = w
            .submit(
                "SELECT c_region, SUM(o_total) AS rev FROM orders o \
                 JOIN customer c ON o.o_cust = c.c_id GROUP BY c_region",
                Constraint::LatencySla(SimDuration::from_secs(30)),
            )
            .unwrap();
        assert!(report.feasible);
        assert!(report.constraint_met, "{}", report.summary());
        assert_eq!(report.result.rows(), 5); // five regions
        assert!(report.cost.amount() > 0.0);
        assert_eq!(w.queries_run(), 1);
        assert!(w.total_spend().amount() > 0.0);
    }

    #[test]
    fn clock_advances_with_queries() {
        let mut w = warehouse(0.05);
        assert_eq!(w.now(), SimTime::ZERO);
        let r1 = w
            .submit("SELECT COUNT(*) FROM orders", Constraint::MinCost)
            .unwrap();
        assert_eq!(w.now(), r1.finished_at);
        let r2 = w
            .submit("SELECT COUNT(*) FROM customer", Constraint::MinCost)
            .unwrap();
        assert!(r2.submitted_at >= r1.finished_at);
    }

    #[test]
    fn stats_service_sees_queries() {
        let mut w = warehouse(0.05);
        for _ in 0..3 {
            w.submit(
                "SELECT COUNT(*) FROM orders WHERE o_date < 100",
                Constraint::MinCost,
            )
            .unwrap();
        }
        w.with_stats(|s| {
            let (recorded, _) = s.ingest_counts();
            assert_eq!(recorded, 3);
            // The o_date filter shows up as a hot attribute.
            assert!(!s.hot_attributes(5).is_empty());
            // Three identical shapes -> one fingerprint with count 3.
            let top = s.top_fingerprints(1);
            assert_eq!(top.len(), 1);
            assert!((top[0].1.count - 3.0).abs() < 1e-9);
        });
    }

    /// A statistics reader that panics on another thread must not take the
    /// warehouse down with it. (The statistics used to sit behind a `Mutex`
    /// the dying reader poisoned, and the next `submit` panicked on it.)
    #[test]
    fn a_panicking_stats_reader_does_not_fail_the_next_query() {
        let mut w = warehouse(0.05);
        let sql = "SELECT COUNT(*) FROM orders WHERE o_date < 100";
        w.submit(sql, Constraint::MinCost).unwrap();
        let reader = std::thread::scope(|s| {
            s.spawn(|| w.with_stats(|_| panic!("reader dies mid-read")))
                .join()
        });
        assert!(reader.is_err());
        w.submit(sql, Constraint::MinCost).unwrap();
        w.tuning_proposals().unwrap();
        w.with_stats(|s| assert_eq!(s.ingest_counts().0, 2));
    }

    #[test]
    fn mv_lifecycle_end_to_end() {
        let mut w = warehouse(0.05);
        let sql = "SELECT c_region, SUM(o_total) AS rev FROM orders o \
                   JOIN customer c ON o.o_cust = c.c_id GROUP BY c_region";
        let before = w.submit(sql, Constraint::MinCost).unwrap();
        let action = TuningAction::CreateMaterializedView {
            name: "mv_rev".into(),
            definition_sql: sql.into(),
            refresh_per_hour: 0.1,
        };
        let bill = w.apply(&action).unwrap();
        assert!(bill.amount() > 0.0);
        assert_eq!(w.materialized_views(), vec!["mv_rev"]);

        // Same query (different literals would also match) now hits the MV.
        let after = w.submit(sql, Constraint::MinCost).unwrap();
        assert_eq!(after.used_mv.as_deref(), Some("mv_rev"));
        assert_eq!(after.result.rows(), before.result.rows());
        assert!(
            after.cost.amount() < before.cost.amount(),
            "MV scan {} should undercut recompute {}",
            after.cost,
            before.cost
        );
        // Duplicate MV registration rejected.
        assert!(w.apply(&action).is_err());
    }

    #[test]
    fn recluster_apply_improves_selective_scans() {
        let mut w = warehouse(0.2);
        let sql = "SELECT o_id, o_total FROM orders WHERE o_date BETWEEN 100 AND 130";
        let before = w.submit(sql, Constraint::MinCost).unwrap();
        let bill = w
            .apply(&TuningAction::Recluster {
                table: "orders".into(),
                column: "o_date".into(),
            })
            .unwrap();
        assert!(bill.amount() > 0.0);
        let after = w.submit(sql, Constraint::MinCost).unwrap();
        assert_eq!(after.result.rows(), before.result.rows());
        assert!(
            after.cost.amount() < before.cost.amount(),
            "clustering by o_date should cut scan cost: {} -> {}",
            before.cost,
            after.cost
        );
    }

    #[test]
    fn tuning_proposals_from_recurring_workload() {
        let mut w = warehouse(0.05);
        let gen = CabGenerator::at_scale(0.05);
        let cfg = TraceConfig {
            hours: 2.0,
            recurring_per_hour: 10.0,
            adhoc_per_hour: 0.0,
            recurring_templates: vec![3],
            seed: 1,
        };
        let trace = ci_workload::WorkloadTrace::generate(&cfg, &gen);
        assert!(!trace.is_empty());
        w.run_trace(&trace, Constraint::MinCost).unwrap();
        let proposals = w.tuning_proposals().unwrap();
        assert!(!proposals.is_empty());
        // Sorted by net rate descending.
        for pair in proposals.windows(2) {
            assert!(pair[0].net_rate >= pair[1].net_rate);
        }
        // Every proposal carries a dollar narrative.
        assert!(proposals[0].narrative.contains("$"));
    }

    #[test]
    fn budget_constraint_reported() {
        let mut w = warehouse(0.05);
        let r = w
            .submit(
                "SELECT COUNT(*) FROM lineitem",
                Constraint::Budget(Dollars::new(1.0)),
            )
            .unwrap();
        assert!(r.feasible);
        assert!(r.constraint_met);
        assert!(r.cost <= Dollars::new(1.0));
    }
}
