//! The cost-intelligent warehouse.

use ci_autotune::statsvc::fingerprint_sql;
use ci_autotune::{
    ProposalReport, QueryLogRecord, StatisticsService, StatsConfig, TuningAction, WhatIfService,
    WorkloadPredictor,
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
use ci_types::{CiError, Result, SimTime, TableId};
use ci_workload::trace::WorkloadTrace;
use std::sync::{Arc, Mutex, MutexGuard};

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
    /// DOP monitor knobs.
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
            next_table_id,
            mvs: Vec::new(),
        }
    }

    /// The catalog (metadata service view).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Total dollars billed across all queries and tuning actions.
    pub fn total_spend(&self) -> Dollars {
        self.total_spend
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
        let constraint_met = constraint.met(outcome.metrics.latency, outcome.metrics.cost);

        // Statistics service ingestion (execution history, Figure 3).
        let record = self.log_record(&fingerprint, sql, finished_at, &outcome.metrics, &planned);
        self.stats.ingest(record);

        self.total_spend += outcome.metrics.cost;
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
        let svc = self.whatif();
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

    /// The what-if service, quoting with the optimizer's estimator and the
    /// execution tier menu (the standard menu when queries run without one).
    fn whatif(&self) -> WhatIfService<'_> {
        let tiers = self.config.execution.tiers.clone().unwrap_or_default();
        WhatIfService::new(
            &self.catalog,
            self.config.optimizer.estimator.clone(),
            tiers,
        )
    }

    /// Applies a tuning action on background compute; returns the one-time
    /// dollars billed — for a recluster or a pin, exactly what
    /// [`WhatIfService::one_time_cost`] quoted. Accepted proposals from
    /// [`Warehouse::tuning_proposals`] feed here (optionally after user
    /// approval, as §4 sketches).
    pub fn apply(&mut self, action: &TuningAction) -> Result<Dollars> {
        match action {
            TuningAction::Recluster { table, column } => {
                let svc = self.whatif();
                let reclustered = svc.reclustered(table, column)?;
                let bill = svc.one_time_cost(action)?;
                // The old partitions' cache residency no longer describes
                // the table's bytes: the simulator, the one record of what
                // the tiers hold, forgets them, and `register` rewrites the
                // files.
                if let Some(sim) = &self.config.execution.tier_sim {
                    lock_sim(sim)?.forget(reclustered.id);
                }
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
                let id = self.catalog.get(table)?.table.id;
                let Some(pricing) = self.config.execution.tiers.clone() else {
                    return Err(CiError::Tuning(
                        "cache pinning requires tier pricing on the execution config".into(),
                    ));
                };
                let bill = self.whatif().one_time_cost(action)?;
                // The pin must outlive this call: install a process-shared
                // cache simulation if queries ran without one so far.
                let sim = self
                    .config
                    .execution
                    .tier_sim
                    .get_or_insert_with(|| Arc::new(Mutex::new(TierCacheSim::new(pricing))));
                lock_sim(sim)?.pin(id, *tier);
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

/// Locks the shared cache simulator. Same rule as the executor's
/// `lock_sim`: bills are a function of this state, so a poisoned simulator
/// is a typed error.
fn lock_sim(sim: &Mutex<TierCacheSim>) -> Result<MutexGuard<'_, TierCacheSim>> {
    sim.lock().map_err(|_| {
        CiError::Tuning("tier cache simulator lock is poisoned by an earlier panic".into())
    })
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
    use ci_autotune::PredictedQuery;
    use ci_cloud::tiercache::CacheKey;
    use ci_cost::{TierLevel, TierPricing, DOP_LADDER};
    use ci_exec::PageSourceMode;
    use ci_plan::JoinTree;
    use ci_types::money::Dollars;
    use ci_types::SimDuration;
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
        assert_eq!(
            w.with_stats(|s| s.ingest_counts()),
            (1, 0),
            "one query ingested"
        );
        assert!(w.total_spend().amount() > 0.0);
    }

    #[test]
    fn clock_advances_with_queries() {
        let mut w = warehouse(0.05);
        let r1 = w
            .submit("SELECT COUNT(*) FROM orders", Constraint::MinCost)
            .unwrap();
        assert_eq!(r1.submitted_at, SimTime::ZERO);
        let r2 = w
            .submit("SELECT COUNT(*) FROM customer", Constraint::MinCost)
            .unwrap();
        // `submit` runs at the clock, which the first query advanced.
        assert_eq!(r2.submitted_at, r1.finished_at);
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
            let fps: Vec<_> = s.fingerprints().collect();
            assert_eq!(fps.len(), 1);
            assert!((fps[0].1.count - 3.0).abs() < 1e-9);
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
        assert!(w.catalog().get("mv_rev").is_ok(), "the view is a table");

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

    /// `apply` bills what the what-if service quoted, bit for bit, and
    /// registers the very table the quote priced.
    #[test]
    fn recluster_bills_its_quote() {
        let mut w = warehouse(0.05);
        let action = TuningAction::Recluster {
            table: "orders".into(),
            column: "o_date".into(),
        };
        let quote = w.whatif().evaluate(&action, &[]).unwrap().one_time_cost;
        let priced = w.whatif().reclustered("orders", "o_date").unwrap();
        let spent = w.total_spend();
        let bill = w.apply(&action).unwrap();
        assert_eq!(bill.amount().to_bits(), quote.amount().to_bits());
        assert_eq!(w.total_spend(), spent + bill);
        let registered = &w.catalog().get("orders").unwrap().table;
        assert_eq!(registered.clustered_by, priced.clustered_by);
        let zone_maps = |t: &ci_storage::table::Table| {
            t.partitions
                .iter()
                .map(|p| p.zone_map.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(zone_maps(registered), zone_maps(&priced));
    }

    /// A recluster rewrites a table's partitions, so the shared cache
    /// simulator forgets its copies of the old ones: the next query on the
    /// table counts no memory or SSD hit, only misses.
    #[test]
    fn recluster_forgets_the_tables_cached_partitions() {
        let mut w = warehouse(0.5);
        let pricing = TierPricing::standard();
        let sim = Arc::new(Mutex::new(TierCacheSim::new(pricing.clone())));
        w.config.execution.tiers = Some(pricing);
        w.config.execution.tier_sim = Some(sim.clone());
        let scan = "SELECT SUM(o_total) FROM orders";
        let counters = || sim.lock().unwrap().counters();
        for _ in 0..2 {
            w.submit(scan, Constraint::MinCost).unwrap();
        }
        let warm = counters();
        assert!(warm.mem_hits > 0 && warm.ssd_hits > 0, "{warm:?}");
        w.apply(&TuningAction::Recluster {
            table: "orders".into(),
            column: "o_date".into(),
        })
        .unwrap();
        let before = counters();
        w.submit(scan, Constraint::MinCost).unwrap();
        let after = counters();
        assert_eq!(after.mem_hits, before.mem_hits, "{before:?} -> {after:?}");
        assert_eq!(after.ssd_hits, before.ssd_hits, "{before:?} -> {after:?}");
        assert!(after.misses > before.misses, "{before:?} -> {after:?}");
    }

    /// A cache budget resizes tier pricing, so without it there is nothing
    /// to resize.
    #[test]
    fn cache_budget_requires_tier_pricing() {
        let mut w = warehouse(0.05);
        let err = w
            .apply(&TuningAction::CacheBudget {
                mem_bytes: 1 << 20,
                ssd_bytes: 1 << 30,
            })
            .unwrap_err();
        assert!(matches!(err, CiError::Tuning(_)), "{err}");
    }

    /// A budget restarts the cache cold, and the simulator is the cache's
    /// only record: after four warm scans of `orders` a byte-sized budget
    /// leaves no resident byte, so every later access misses — and a
    /// `Tiered` warehouse answers and bills exactly what a `Disk` one does
    /// through the whole sequence.
    #[test]
    fn cache_budget_restarts_the_cache_cold_in_every_page_source() {
        let catalog = CabGenerator::at_scale(0.5).build_catalog().unwrap();
        let scan = "SELECT SUM(o_total) FROM orders";
        let budget = TuningAction::CacheBudget {
            mem_bytes: 1,
            ssd_bytes: 1,
        };
        let sequence = |page_source| {
            let mut config = WarehouseConfig::default();
            let pricing = TierPricing::standard();
            config.execution.page_source = page_source;
            config.execution.tier_sim =
                Some(Arc::new(Mutex::new(TierCacheSim::new(pricing.clone()))));
            config.execution.tiers = Some(pricing);
            let mut w = Warehouse::new(catalog.clone(), config);
            let sim = |w: &Warehouse| w.config.execution.tier_sim.clone().unwrap();
            let mut runs = Vec::new();
            for _ in 0..4 {
                runs.push(w.submit(scan, Constraint::MinCost).unwrap());
            }
            let warm = sim(&w).lock().unwrap().counters();
            assert!(warm.mem_hits > 0, "{page_source:?}: {warm:?}");
            assert_eq!(w.apply(&budget).unwrap(), Dollars::ZERO);
            for _ in 0..4 {
                runs.push(w.submit(scan, Constraint::MinCost).unwrap());
            }
            let sim = sim(&w);
            let cold = sim.lock().unwrap();
            let after = cold.counters();
            assert_eq!(
                after.mem_hits + after.ssd_hits,
                0,
                "{page_source:?}: {after:?}"
            );
            assert_eq!(after.promotions, 0, "{page_source:?}: {after:?}");
            assert!(after.misses > 0, "{page_source:?}: {after:?}");
            for level in [TierLevel::Mem, TierLevel::Ssd] {
                let orders = &catalog.get("orders").unwrap().table;
                let held = (0..orders.partitions.len() as u32)
                    .filter(|&part| cold.holds(CacheKey::new(orders.id, part), level))
                    .count();
                assert_eq!(held, 0, "{page_source:?}: {level:?}");
            }
            runs
        };
        let disk = sequence(PageSourceMode::Disk);
        let tiered = sequence(PageSourceMode::Tiered);
        for (i, (d, t)) in disk.iter().zip(&tiered).enumerate() {
            assert_eq!(t.result, d.result, "scan {i}: rows");
            assert_eq!(
                t.cost.amount().to_bits(),
                d.cost.amount().to_bits(),
                "scan {i}: Dollars"
            );
        }
    }

    /// A pin bills its quote — the fill scan plus the egress dollars of
    /// the fill — priced on the execution config's own tier menu.
    #[test]
    fn pin_bills_its_quote_on_the_execution_tier_menu() {
        let catalog = CabGenerator::at_scale(0.05).build_catalog().unwrap();
        let mut config = WarehouseConfig::default();
        let mut tiers = TierPricing::standard();
        tiers.object_get_dollars *= 3.0;
        tiers.object_transfer_dollars_per_gb *= 2.0;
        config.execution.tiers = Some(tiers);
        let mut w = Warehouse::new(catalog, config);
        let action = TuningAction::PinTable {
            table: "orders".into(),
            tier: TierLevel::Ssd,
        };
        let quote = w.whatif().evaluate(&action, &[]).unwrap().one_time_cost;
        let standard = WhatIfService::new(
            w.catalog(),
            w.config.optimizer.estimator.clone(),
            TierPricing::standard(),
        )
        .one_time_cost(&action)
        .unwrap();
        assert!(quote > standard, "egress priced on the execution menu");
        let bill = w.apply(&action).unwrap();
        assert_eq!(bill.amount().to_bits(), quote.amount().to_bits());
        assert_eq!(w.total_spend(), bill);
    }

    /// A memory pin is sized in the simulator's unit, a partition's
    /// encoded bytes: with a memory tier between `orders`' encoded and
    /// decoded size the pin quotes, and once applied four scans leave
    /// every partition of `orders` resident in memory.
    #[test]
    fn memory_pin_is_sized_in_the_simulators_unit() {
        let catalog = CabGenerator::at_scale(0.5).build_catalog().unwrap();
        let orders = &catalog.get("orders").unwrap().table;
        let (encoded, decoded) = (orders.total_encoded_bytes(), orders.total_bytes());
        let mut pricing = TierPricing::standard();
        pricing.mem.capacity_bytes = (encoded + decoded) / 2;
        assert!(encoded < pricing.mem.capacity_bytes && pricing.mem.capacity_bytes < decoded);
        let mut config = WarehouseConfig::default();
        config.execution.page_source = PageSourceMode::Tiered;
        config.execution.tier_sim = Some(Arc::new(Mutex::new(TierCacheSim::new(pricing.clone()))));
        config.execution.tiers = Some(pricing);
        let mut w = Warehouse::new(catalog, config);
        let pin = TuningAction::PinTable {
            table: "orders".into(),
            tier: TierLevel::Mem,
        };
        let quote = w.whatif().evaluate(&pin, &[]).unwrap();
        assert!(quote.cost_rate > Dollars::ZERO, "{quote:?}");
        w.apply(&pin).unwrap();
        for _ in 0..4 {
            w.submit("SELECT SUM(o_total) FROM orders", Constraint::MinCost)
                .unwrap();
        }
        // Every partition is memory-resident, which fits the capacity only
        // in encoded bytes.
        let sim = w.config.execution.tier_sim.clone().unwrap();
        let sim = sim.lock().unwrap();
        let orders = &w.catalog().get("orders").unwrap().table;
        assert!((0..orders.partitions.len() as u32)
            .all(|part| sim.holds(CacheKey::new(orders.id, part), TierLevel::Mem)));
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

    /// A recurring query whose FROM order joins `lineitem` to `customer`
    /// before `orders` connects them still gets quoted: the what-if service
    /// plans DAG planning's order, which joins only connected relations.
    #[test]
    fn proposals_quote_a_recurring_query_with_an_unconnected_from_order() {
        let mut w = warehouse(0.05);
        let sql = "SELECT c_region, SUM(l_price) AS revenue FROM lineitem l, customer c, \
                   orders o WHERE l.l_order = o.o_id AND o.o_cust = c.c_id GROUP BY c_region";
        for _ in 0..6 {
            assert_eq!(w.submit(sql, Constraint::MinCost).unwrap().result.rows(), 5);
        }
        let proposals = w.tuning_proposals().unwrap();
        assert!(
            proposals.iter().any(|p| matches!(&p.action,
                TuningAction::CreateMaterializedView { definition_sql, .. } if definition_sql == sql)),
            "{proposals:?}"
        );
    }

    /// The what-if service prices the join order the warehouse runs. CAB
    /// Q4's FROM order is `[0, 1, 2]` and DAG planning's is `[1, 2, 0]`; an
    /// MV of it is quoted at the optimizer's plan, each pipeline at its
    /// machine-time optimal DOP.
    #[test]
    fn an_mv_quote_prices_the_join_order_the_optimizer_plans() {
        let gen = CabGenerator::at_scale(0.05);
        let w = Warehouse::new(gen.build_catalog().unwrap(), WarehouseConfig::default());
        let sql = ci_workload::queries::canonical(4, &gen);
        let planned = Optimizer::new(w.catalog(), w.config.optimizer.clone())
            .plan_sql(&sql, Constraint::MinCost)
            .unwrap();
        assert_eq!(planned.tree, JoinTree::left_deep(&[1, 2, 0]));
        let est = CostEstimator::new(w.catalog(), w.config.optimizer.estimator.clone());
        let dops = (planned.graph.pipelines.iter())
            .map(|p| {
                let work = est.pipeline_work(&planned.plan, p).unwrap();
                est.machine_time_optimal_dop(&work, &DOP_LADDER)
            })
            .collect::<Vec<_>>();
        let build = est.estimate(&planned.plan, &planned.graph, &dops).unwrap();
        let action = TuningAction::CreateMaterializedView {
            name: "mv_q4".into(),
            definition_sql: sql,
            refresh_per_hour: 1.0,
        };
        assert_eq!(w.whatif().one_time_cost(&action).unwrap(), build.cost);
    }

    /// A query that reads `lineitem` only does not read `part`, though its
    /// SQL contains the table's name (`l_part`): pinning `part` saves it
    /// nothing.
    #[test]
    fn pin_quote_matches_queries_by_the_tables_they_read() {
        let w = warehouse(0.05);
        let sql = "SELECT SUM(l_part) AS s FROM lineitem";
        let workload = [PredictedQuery {
            fingerprint: fingerprint_sql(sql),
            sql: sql.to_owned(),
            rate_per_hour: 100.0,
            cost_per_execution: Dollars::new(0.01),
        }];
        let pin = TuningAction::PinTable {
            table: "part".into(),
            tier: TierLevel::Mem,
        };
        let report = w.whatif().evaluate(&pin, &workload).unwrap();
        assert!(!report.accepted, "{}", report.narrative);
        assert_eq!(report.benefit_rate, Dollars::ZERO);
        assert!(
            report.narrative.contains("across 0 matched"),
            "{}",
            report.narrative
        );
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
