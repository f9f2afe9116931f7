//! The What-If Service (§4): dollar-denominated evaluation of tuning actions.

use ci_catalog::{Catalog, ErrorInjector};
use ci_cost::{
    CostEstimator, EstimatorConfig, PipelineWork, TierCostModel, TierLevel, TierPricing,
};
use ci_plan::binder::bind;
use ci_plan::jointree::JoinTree;
use ci_plan::physical::build_plan;
use ci_plan::pipeline::PipelineGraph;
use ci_sql::parse;
use ci_types::money::Dollars;
use ci_types::{CiError, Result};

use crate::predictor::PredictedQuery;
use crate::statsvc::fingerprint_sql;

/// A physical tuning action under consideration.
#[derive(Debug, Clone, PartialEq)]
pub enum TuningAction {
    /// Materialize the result of a recurring query.
    CreateMaterializedView {
        /// MV name.
        name: String,
        /// The defining query.
        definition_sql: String,
        /// How often the MV must be refreshed, per hour.
        refresh_per_hour: f64,
    },
    /// Physically re-sort a table by one column (tightens zone maps; §4's
    /// "recluster (or repartition) a petabyte-sized table" example).
    Recluster {
        /// Table name.
        table: String,
        /// Cluster column name.
        column: String,
    },
    /// Pin a table into a cache tier: every scan of it is served at that
    /// tier's latency, and the table pays the tier's occupancy rent for as
    /// long as the pin stands. The benefit is saved fetch dollars — faster
    /// machine-seconds plus the object-store GET/transfer charges the cache
    /// absorbs; the cost is rent. Exactly the recluster trade, with
    /// residency in place of sort order.
    PinTable {
        /// Table name.
        table: String,
        /// Which cache tier holds it (`Mem` or `Ssd`; pinning to `Object`
        /// is rejected — everything already lives there).
        tier: TierLevel,
    },
    /// Resize the cache budget: expected hit rates scale with how much of
    /// the workload's working set the tiers can hold, and rent scales with
    /// the bytes actually occupied.
    CacheBudget {
        /// Memory-tier budget in bytes.
        mem_bytes: u64,
        /// SSD-tier budget in bytes.
        ssd_bytes: u64,
    },
}

impl TuningAction {
    /// Short display label.
    pub fn label(&self) -> String {
        match self {
            TuningAction::CreateMaterializedView { name, .. } => format!("CREATE MV {name}"),
            TuningAction::Recluster { table, column } => {
                format!("RECLUSTER {table} BY {column}")
            }
            TuningAction::PinTable { table, tier } => {
                let t = match tier {
                    TierLevel::Mem => "MEMORY",
                    TierLevel::Ssd => "SSD",
                    TierLevel::Object => "OBJECT",
                };
                format!("PIN {table} IN {t}")
            }
            TuningAction::CacheBudget {
                mem_bytes,
                ssd_bytes,
            } => {
                format!(
                    "CACHE BUDGET mem={:.1}MB ssd={:.1}MB",
                    *mem_bytes as f64 / 1e6,
                    *ssd_bytes as f64 / 1e6
                )
            }
        }
    }
}

/// What-If Service configuration.
#[derive(Debug, Clone)]
pub struct WhatIfConfig {
    /// Cost-estimator configuration shared with the optimizer.
    pub estimator: EstimatorConfig,
    /// Object-store price, $/GB/hour (S3-standard-like ≈ $0.023/GB/month).
    pub storage_dollars_per_gb_hour: f64,
    /// Incremental-refresh cost as a fraction of a full MV rebuild.
    pub mv_refresh_factor: f64,
    /// Ongoing recluster maintenance, per hour, as a fraction of the
    /// one-time rewrite (new data arriving unsorted must be merged).
    pub recluster_maintenance_factor_per_hour: f64,
    /// DOP ladder used when costing queries.
    pub dop_ladder: Vec<u32>,
    /// Tier menu used when pricing cache actions (capacities, service
    /// times, occupancy rents, object GET/transfer charges).
    pub tier_pricing: TierPricing,
}

impl Default for WhatIfConfig {
    fn default() -> Self {
        WhatIfConfig {
            estimator: EstimatorConfig::default(),
            storage_dollars_per_gb_hour: 0.023 / 730.0,
            mv_refresh_factor: 0.1,
            recluster_maintenance_factor_per_hour: 0.002,
            dop_ladder: (0..=8).map(|i| 1u32 << i).collect(),
            tier_pricing: TierPricing::standard(),
        }
    }
}

/// The dollar verdict on one tuning proposal — the "report that uses the
/// dollar benefit/cost as the bridge" (§2) presented to users.
#[derive(Debug, Clone)]
pub struct ProposalReport {
    /// The evaluated action.
    pub action: TuningAction,
    /// `x`: predicted savings rate, $/hour.
    pub benefit_rate: Dollars,
    /// `y`: predicted ongoing cost rate (storage + maintenance), $/hour.
    pub cost_rate: Dollars,
    /// `x − y`.
    pub net_rate: Dollars,
    /// One-time cost to apply the action.
    pub one_time_cost: Dollars,
    /// Hours until the one-time cost is repaid (`None` if never).
    pub break_even_hours: Option<f64>,
    /// The §4 acceptance rule: `x − y > 0`.
    pub accepted: bool,
    /// Human-readable explanation.
    pub narrative: String,
}

/// The What-If Service.
pub struct WhatIfService<'a> {
    catalog: &'a Catalog,
    /// Configuration (public for experiment sweeps).
    pub config: WhatIfConfig,
}

impl<'a> WhatIfService<'a> {
    /// New service over a catalog.
    pub fn new(catalog: &'a Catalog, config: WhatIfConfig) -> WhatIfService<'a> {
        WhatIfService { catalog, config }
    }

    /// Evaluates a tuning action against the predicted workload.
    pub fn evaluate(
        &self,
        action: &TuningAction,
        workload: &[PredictedQuery],
    ) -> Result<ProposalReport> {
        match action {
            TuningAction::CreateMaterializedView {
                definition_sql,
                refresh_per_hour,
                ..
            } => self.evaluate_mv(action, definition_sql, *refresh_per_hour, workload),
            TuningAction::Recluster { table, column } => {
                self.evaluate_recluster(action, table, column, workload)
            }
            TuningAction::PinTable { table, tier } => {
                self.evaluate_pin(action, table, *tier, workload)
            }
            TuningAction::CacheBudget {
                mem_bytes,
                ssd_bytes,
            } => self.evaluate_budget(action, *mem_bytes, *ssd_bytes, workload),
        }
    }

    /// Estimated dollars and latency for one query under a given catalog.
    fn query_cost(&self, catalog: &Catalog, sql: &str) -> Result<(Dollars, f64)> {
        self.query_cost_with(catalog, &self.config.estimator, sql)
    }

    /// Same, under an explicit estimator configuration — how cache what-ifs
    /// price "the same query, but with this tier model".
    fn query_cost_with(
        &self,
        catalog: &Catalog,
        cfg: &EstimatorConfig,
        sql: &str,
    ) -> Result<(Dollars, f64)> {
        let bound = bind(&parse(sql)?, catalog)?;
        let tree = JoinTree::left_deep(&(0..bound.relations.len()).collect::<Vec<_>>());
        let plan = build_plan(&bound, &tree, catalog, &mut ErrorInjector::oracle())?;
        let graph = PipelineGraph::decompose(&plan)?;
        let est = CostEstimator::new(catalog, cfg.clone());
        let dops: Vec<u32> = graph
            .pipelines
            .iter()
            .map(|p| {
                est.pipeline_work(&plan, p)
                    .map(|w| est.machine_time_optimal_dop(&w, &self.config.dop_ladder))
            })
            .collect::<Result<Vec<_>>>()?;
        let q = est.estimate(&plan, &graph, &dops)?;
        Ok((q.cost, q.latency.as_secs_f64()))
    }

    /// The estimator configuration cache what-ifs start from: the standing
    /// one, with a cold tier model installed if none was set (so "before"
    /// and "after" differ only in the proposed residency).
    fn tiered_base_config(&self) -> EstimatorConfig {
        let mut cfg = self.config.estimator.clone();
        self.tiers_of(&mut cfg);
        cfg
    }

    /// `cfg`'s tier model, set to the cold model under this service's
    /// pricing when `cfg` has none.
    fn tiers_of<'c>(&self, cfg: &'c mut EstimatorConfig) -> &'c mut TierCostModel {
        cfg.tiers
            .get_or_insert_with(|| TierCostModel::cold(self.config.tier_pricing.clone()))
    }

    fn evaluate_mv(
        &self,
        action: &TuningAction,
        definition_sql: &str,
        refresh_per_hour: f64,
        workload: &[PredictedQuery],
    ) -> Result<ProposalReport> {
        let est = CostEstimator::new(self.catalog, self.config.estimator.clone());
        // Size of the materialized result, from plan annotations.
        let bound = bind(&parse(definition_sql)?, self.catalog)?;
        let tree = JoinTree::left_deep(&(0..bound.relations.len()).collect::<Vec<_>>());
        let plan = build_plan(&bound, &tree, self.catalog, &mut ErrorInjector::oracle())?;
        let mv_rows = plan.nodes[plan.root].est_rows;
        // Decoded size drives CPU terms; the encoded size is what the object
        // store actually holds and bills at rest.
        let mv_bytes = mv_rows * plan.row_width(plan.root);
        let mv_encoded_bytes = mv_rows * plan.encoded_row_width(plan.root);
        let (build_cost, _) = self.query_cost(self.catalog, definition_sql)?;

        // Queries answered by the MV: same fingerprint as the definition.
        let def_fp = fingerprint_sql(definition_sql);
        let mut benefit = Dollars::ZERO;
        let mut matched = 0usize;
        // Serving cost: scan the MV instead of recomputing.
        let scan_work = PipelineWork {
            fetch_bytes: mv_encoded_bytes,
            fetch_objects: (mv_encoded_bytes / 16e6).ceil().max(1.0),
            decode_bytes: mv_bytes,
            filter_rows: mv_rows,
            morsels: (mv_encoded_bytes / 16e6).ceil().max(1.0),
            source_rows: mv_rows,
            ..PipelineWork::default()
        };
        let serve_dop = est.machine_time_optimal_dop(&scan_work, &self.config.dop_ladder);
        let serve_secs =
            est.pipeline_duration(&scan_work, serve_dop).as_secs_f64() * serve_dop as f64;
        let node_rate = self.config.estimator.models.hw.node.rate;
        let serve_cost = node_rate.bill(ci_types::SimDuration::from_secs_f64(serve_secs));

        for q in workload {
            if q.fingerprint != def_fp {
                continue;
            }
            matched += 1;
            let (before, _) = self.query_cost(self.catalog, &q.sql)?;
            let saved = (before - serve_cost).max(Dollars::ZERO);
            benefit += saved * q.rate_per_hour;
        }

        let storage_rate =
            Dollars::new(mv_encoded_bytes / 1e9 * self.config.storage_dollars_per_gb_hour);
        let refresh_rate = build_cost * self.config.mv_refresh_factor * refresh_per_hour;
        let cost_rate = storage_rate + refresh_rate;
        self.finish_report(action, benefit, cost_rate, build_cost, matched)
    }

    fn evaluate_recluster(
        &self,
        action: &TuningAction,
        table: &str,
        column: &str,
        workload: &[PredictedQuery],
    ) -> Result<ProposalReport> {
        let entry = self.catalog.get(table)?;
        let col_idx = entry.table.schema.index_of(column)?;
        let rows_per_part = entry
            .table
            .partitions
            .first()
            .map(|p| p.rows().max(1))
            .unwrap_or(1);

        // Physically recluster a clone and register it in a scratch catalog:
        // the what-if world. (The data is identical; only zone maps change.)
        let reclustered = entry.table.reclustered_by(col_idx, rows_per_part)?;
        let mut scratch = self.catalog.clone();
        scratch.register(reclustered);

        let mut benefit = Dollars::ZERO;
        let mut matched = 0usize;
        for q in workload {
            // Only queries touching the table can benefit; cheap pre-filter.
            if !q.sql.to_lowercase().contains(&table.to_lowercase()) {
                continue;
            }
            let (before, _) = self.query_cost(self.catalog, &q.sql)?;
            let (after, _) = self.query_cost(&scratch, &q.sql)?;
            if after < before {
                matched += 1;
                benefit += (before - after) * q.rate_per_hour;
            }
        }

        // One-time rewrite: read + write the whole table once (object I/O
        // moves encoded bytes).
        let bytes = entry.table.total_encoded_bytes() as f64;
        let m = &self.config.estimator.models;
        let rewrite_secs = 2.0 * bytes / m.hw.node_scan_bytes_per_sec()
            + bytes * (entry.table.row_count().max(1) as f64).log2().max(1.0)
                / (m.hw.sort_rows_log_per_sec_per_core
                    * m.hw.node.cores as f64
                    * m.hw.node.memory_bytes.max(1) as f64)
                    .max(1.0);
        let node_rate = m.hw.node.rate;
        let one_time = node_rate.bill(ci_types::SimDuration::from_secs_f64(rewrite_secs));
        let cost_rate = one_time * self.config.recluster_maintenance_factor_per_hour;
        self.finish_report(action, benefit, cost_rate, one_time, matched)
    }

    fn evaluate_pin(
        &self,
        action: &TuningAction,
        table: &str,
        tier: TierLevel,
        workload: &[PredictedQuery],
    ) -> Result<ProposalReport> {
        let entry = self.catalog.get(table)?;
        let id = entry.table.id;
        let pricing = &self.config.tier_pricing;
        // Residency footprint: the memory tier holds decoded batches, the
        // SSD tier holds encoded partition files.
        let (spec, resident_bytes) = match tier {
            TierLevel::Mem => (&pricing.mem, entry.table.total_bytes()),
            TierLevel::Ssd => (&pricing.ssd, entry.table.total_encoded_bytes()),
            TierLevel::Object => {
                return Err(CiError::Tuning(
                    "pinning to the object tier is a no-op: data already lives there".into(),
                ))
            }
        };
        if resident_bytes > spec.capacity_bytes {
            return Err(CiError::Tuning(format!(
                "cannot pin '{table}': {resident_bytes} B exceeds the tier's \
                 {} B capacity",
                spec.capacity_bytes
            )));
        }

        let before_cfg = self.tiered_base_config();
        let mut after_cfg = before_cfg.clone();
        let model = self.tiers_of(&mut after_cfg);
        let pinned = match tier {
            TierLevel::Mem => &mut model.pinned_mem,
            TierLevel::Ssd => &mut model.pinned_ssd,
            TierLevel::Object => {
                return Err(CiError::Tuning("no pin set for the object tier".into()))
            }
        };
        pinned.insert(id);

        // Saved fetch dollars, per §4's x: faster machine-seconds (the scan
        // is served at tier latency) plus the object-store GET and transfer
        // charges every cache-served scan no longer pays.
        let encoded = entry.table.total_encoded_bytes() as f64;
        let parts = entry.table.partitions.len() as f64;
        let egress_per_exec = parts * pricing.object_get_dollars
            + encoded / 1e9 * pricing.object_transfer_dollars_per_gb;
        let mut benefit = Dollars::ZERO;
        let mut matched = 0usize;
        for q in workload {
            if !q.sql.to_lowercase().contains(&table.to_lowercase()) {
                continue;
            }
            let (before, _) = self.query_cost_with(self.catalog, &before_cfg, &q.sql)?;
            let (after, _) = self.query_cost_with(self.catalog, &after_cfg, &q.sql)?;
            let saved = (before - after).max(Dollars::ZERO) + Dollars::new(egress_per_exec);
            if saved > Dollars::ZERO {
                matched += 1;
                benefit += saved * q.rate_per_hour;
            }
        }

        // y: occupancy rent for as long as the pin stands.
        let cost_rate = Dollars::new(spec.rent_per_hour(resident_bytes));
        // One-time: fill the tier once from the object store (transfer
        // charges plus the machine time of the fill scan).
        let fill_secs = encoded / self.config.estimator.models.hw.node_scan_bytes_per_sec();
        let node_rate = self.config.estimator.models.hw.node.rate;
        let one_time = node_rate.bill(ci_types::SimDuration::from_secs_f64(fill_secs))
            + Dollars::new(egress_per_exec);
        self.finish_report(action, benefit, cost_rate, one_time, matched)
    }

    fn evaluate_budget(
        &self,
        action: &TuningAction,
        mem_bytes: u64,
        ssd_bytes: u64,
        workload: &[PredictedQuery],
    ) -> Result<ProposalReport> {
        let pricing = &self.config.tier_pricing;
        // Working set: encoded bytes of every table the workload touches.
        let lowered: Vec<String> = workload.iter().map(|q| q.sql.to_lowercase()).collect();
        let mut working_set = 0u64;
        for (name, entry) in self.catalog.tables() {
            if lowered.iter().any(|s| s.contains(name)) {
                working_set += entry.table.total_encoded_bytes();
            }
        }
        if working_set == 0 {
            return self.finish_report(action, Dollars::ZERO, Dollars::ZERO, Dollars::ZERO, 0);
        }
        let ws = working_set as f64;
        // Hit-rate model: each tier serves the fraction of the working set
        // it can hold; memory claims its share first.
        let mem_frac = (mem_bytes as f64 / ws).min(1.0);
        let ssd_frac = (ssd_bytes as f64 / ws).min(1.0 - mem_frac);

        let before_cfg = self.tiered_base_config();
        let mut after_cfg = before_cfg.clone();
        {
            let model = self.tiers_of(&mut after_cfg);
            model.mem_hit_rate = mem_frac;
            model.ssd_hit_rate = ssd_frac;
        }

        let mut benefit = Dollars::ZERO;
        let mut matched = 0usize;
        for q in workload {
            let (before, _) = self.query_cost_with(self.catalog, &before_cfg, &q.sql)?;
            let (after, _) = self.query_cost_with(self.catalog, &after_cfg, &q.sql)?;
            if after < before {
                matched += 1;
                benefit += (before - after) * q.rate_per_hour;
            }
        }

        // Rent is charged on occupied bytes, not the configured budget — a
        // budget bigger than the working set buys nothing and costs nothing
        // extra.
        let mem_used = (mem_frac * ws).min(mem_bytes as f64) as u64;
        let ssd_used = (ssd_frac * ws).min(ssd_bytes as f64) as u64;
        let cost_rate =
            Dollars::new(pricing.mem.rent_per_hour(mem_used) + pricing.ssd.rent_per_hour(ssd_used));
        // The cache fills lazily on misses the workload pays anyway.
        self.finish_report(action, benefit, cost_rate, Dollars::ZERO, matched)
    }

    fn finish_report(
        &self,
        action: &TuningAction,
        benefit_rate: Dollars,
        cost_rate: Dollars,
        one_time_cost: Dollars,
        matched: usize,
    ) -> Result<ProposalReport> {
        if !benefit_rate.is_finite() || !cost_rate.is_finite() {
            return Err(CiError::Tuning("non-finite dollar estimate".into()));
        }
        let net_rate = benefit_rate - cost_rate;
        let accepted = net_rate > Dollars::ZERO;
        let break_even_hours = if net_rate > Dollars::ZERO {
            Some(one_time_cost.amount() / net_rate.amount())
        } else {
            None
        };
        let narrative = format!(
            "{}: saves x = {}/h across {matched} matched recurring quer{}, costs \
             y = {}/h to maintain; net {}/h => {}. One-time cost {}{}.",
            action.label(),
            benefit_rate,
            if matched == 1 { "y" } else { "ies" },
            cost_rate,
            net_rate,
            if accepted { "ACCEPT" } else { "REJECT" },
            one_time_cost,
            match break_even_hours {
                Some(h) => format!(", breaks even after {h:.1} h"),
                None => ", never breaks even".to_owned(),
            }
        );
        Ok(ProposalReport {
            action: action.clone(),
            benefit_rate,
            cost_rate,
            net_rate,
            one_time_cost,
            break_even_hours,
            accepted,
            narrative,
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
    use ci_types::{DetRng, TableId};

    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Arc::new(Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
            Field::new("val", DataType::Float64),
        ]));
        let n = 400_000i64;
        // Shuffled ids so zone maps are useless before reclustering.
        let mut rng = DetRng::seed_from_u64(1);
        let mut ids: Vec<i64> = (0..n).collect();
        rng.shuffle(&mut ids);
        let mut b = TableBuilder::new(TableId::new(0), "facts", schema.clone(), 8_192).unwrap();
        b.append(
            RecordBatch::new(
                schema,
                vec![
                    ColumnData::Int64(ids.clone()),
                    ColumnData::Int64(ids.iter().map(|i| i % 500).collect()),
                    ColumnData::Float64(ids.iter().map(|i| (i % 1000) as f64).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(b.finish().unwrap());
        c
    }

    fn workload(sql: &str, rate: f64) -> Vec<PredictedQuery> {
        vec![PredictedQuery {
            fingerprint: fingerprint_sql(sql),
            sql: sql.to_owned(),
            rate_per_hour: rate,
            cost_per_execution: Dollars::new(0.01),
        }]
    }

    const AGG: &str = "SELECT grp, SUM(val) FROM facts GROUP BY grp";
    const SELECTIVE: &str = "SELECT val FROM facts WHERE id < 4000";

    #[test]
    fn mv_accepted_for_hot_query() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::CreateMaterializedView {
            name: "mv_rev".into(),
            definition_sql: AGG.into(),
            refresh_per_hour: 0.1,
        };
        let report = svc.evaluate(&action, &workload(AGG, 100.0)).unwrap();
        assert!(report.benefit_rate > Dollars::ZERO);
        assert!(
            report.accepted,
            "100 runs/hour should justify an MV: {}",
            report.narrative
        );
        assert!(report.narrative.contains("ACCEPT"));
        // The one-time build amortizes faster the hotter the query is.
        let hotter = svc.evaluate(&action, &workload(AGG, 1000.0)).unwrap();
        let hours = |r: &ProposalReport| r.break_even_hours.expect("accepted");
        assert!(
            hours(&hotter) < hours(&report),
            "break-even {} h at 1000/h vs {} h at 100/h",
            hours(&hotter),
            hours(&report)
        );
    }

    #[test]
    fn mv_rejected_for_cold_query() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::CreateMaterializedView {
            name: "mv_rev".into(),
            definition_sql: AGG.into(),
            // Rarely used but constantly refreshed: y > x.
            refresh_per_hour: 50.0,
        };
        let report = svc.evaluate(&action, &workload(AGG, 0.001)).unwrap();
        assert!(!report.accepted, "{}", report.narrative);
        assert!(report.break_even_hours.is_none());
    }

    #[test]
    fn mv_with_no_matching_queries_rejected() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::CreateMaterializedView {
            name: "mv".into(),
            definition_sql: AGG.into(),
            refresh_per_hour: 0.1,
        };
        let other = workload("SELECT id FROM facts WHERE val < 1.0", 50.0);
        let report = svc.evaluate(&action, &other).unwrap();
        assert_eq!(report.benefit_rate, Dollars::ZERO);
        assert!(!report.accepted);
    }

    #[test]
    fn recluster_accepted_when_predicates_align() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::Recluster {
            table: "facts".into(),
            column: "id".into(),
        };
        let report = svc.evaluate(&action, &workload(SELECTIVE, 200.0)).unwrap();
        assert!(
            report.benefit_rate > Dollars::ZERO,
            "clustering by id must help id-range scans: {}",
            report.narrative
        );
        assert!(report.accepted, "{}", report.narrative);
    }

    #[test]
    fn recluster_benefits_full_scans_via_compression_alone() {
        // Full scans see no zone-map pruning, but reclustering sorts the id
        // column, which collapses under the delta page codec — the second
        // lever (encoded-byte fetches shrink) rewards the action even
        // without a selective predicate.
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::Recluster {
            table: "facts".into(),
            column: "id".into(),
        };
        let report = svc.evaluate(&action, &workload(AGG, 100.0)).unwrap();
        assert!(
            report.benefit_rate > Dollars::ZERO,
            "compression lever must reward reclustering: {}",
            report.narrative
        );
    }

    #[test]
    fn recluster_rejected_without_benefiting_queries() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::Recluster {
            table: "facts".into(),
            column: "id".into(),
        };
        // Queries that never touch the table gain nothing from either
        // lever (pruning or compression).
        let other = workload("SELECT d_name FROM dims WHERE d_id < 5", 100.0);
        let report = svc.evaluate(&action, &other).unwrap();
        assert_eq!(report.benefit_rate, Dollars::ZERO);
        assert!(!report.accepted);
    }

    #[test]
    fn fault_profile_reprices_the_same_action() {
        // The failure-tax bridge: the same tuning action priced on a flaky
        // tier costs more to apply (every fetch/compute second carries
        // expected recovery), so tier reliability shows up in the same
        // dollar terms as the action itself.
        use ci_cost::FaultProfile;
        let cat = catalog();
        let action = TuningAction::CreateMaterializedView {
            name: "mv_rev".into(),
            definition_sql: AGG.into(),
            refresh_per_hour: 1.0,
        };
        let priced = |profile: Option<FaultProfile>| {
            let mut cfg = WhatIfConfig::default();
            cfg.estimator.fault_profile = profile;
            WhatIfService::new(&cat, cfg)
                .evaluate(&action, &workload(AGG, 10.0))
                .unwrap()
        };
        let reliable = priced(None);
        let mut storm = FaultProfile::light();
        storm.fetch_failure_rate = 0.5;
        storm.straggler_rate = 0.4;
        storm.worker_loss_rate = 0.2;
        let flaky = priced(Some(storm));
        assert!(
            flaky.one_time_cost > reliable.one_time_cost,
            "flaky tier must make the MV build pricier: {} vs {}",
            flaky.one_time_cost,
            reliable.one_time_cost
        );
        assert!(flaky.cost_rate > reliable.cost_rate);
    }

    #[test]
    fn net_rate_is_x_minus_y() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::CreateMaterializedView {
            name: "mv".into(),
            definition_sql: AGG.into(),
            refresh_per_hour: 1.0,
        };
        let r = svc.evaluate(&action, &workload(AGG, 10.0)).unwrap();
        assert!(r.net_rate.abs_diff(r.benefit_rate - r.cost_rate) < 1e-12);
        assert_eq!(r.accepted, r.net_rate > Dollars::ZERO);
    }

    #[test]
    fn unknown_table_errors() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::Recluster {
            table: "nope".into(),
            column: "id".into(),
        };
        assert!(svc.evaluate(&action, &[]).is_err());
    }

    #[test]
    fn pin_accepted_for_hot_table_rejected_when_rent_dominates() {
        let cat = catalog();
        let action = TuningAction::PinTable {
            table: "facts".into(),
            tier: TierLevel::Ssd,
        };
        let priced = |rate_per_hour: f64, ssd_price_per_gb_hour: f64| {
            let mut cfg = WhatIfConfig::default();
            cfg.tier_pricing.ssd.price_per_gb_hour = ssd_price_per_gb_hour;
            WhatIfService::new(&cat, cfg)
                .evaluate(&action, &workload(AGG, rate_per_hour))
                .unwrap()
        };
        // A hot table at standard rent: the saved fetch dollars win.
        let hot = priced(500.0, TierPricing::standard().ssd.price_per_gb_hour);
        assert!(hot.benefit_rate > Dollars::ZERO, "{}", hot.narrative);
        assert!(hot.accepted, "{}", hot.narrative);
        // Same workload, rent cranked until occupancy dominates: REJECT.
        let pricey = priced(500.0, 1e9);
        assert!(!pricey.accepted, "{}", pricey.narrative);
        assert_eq!(
            hot.benefit_rate, pricey.benefit_rate,
            "rent must not change the benefit side"
        );
    }

    #[test]
    fn pin_rejects_object_tier_and_over_capacity() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let obj = TuningAction::PinTable {
            table: "facts".into(),
            tier: TierLevel::Object,
        };
        assert!(svc.evaluate(&obj, &workload(AGG, 1.0)).is_err());

        let mut tiny = WhatIfConfig::default();
        tiny.tier_pricing.mem.capacity_bytes = 16;
        let svc = WhatIfService::new(&cat, tiny);
        let mem = TuningAction::PinTable {
            table: "facts".into(),
            tier: TierLevel::Mem,
        };
        assert!(svc.evaluate(&mem, &workload(AGG, 1.0)).is_err());
    }

    #[test]
    fn pin_without_touching_queries_rejected() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let action = TuningAction::PinTable {
            table: "facts".into(),
            tier: TierLevel::Ssd,
        };
        let other = workload("SELECT d_name FROM dims WHERE d_id < 5", 100.0);
        let report = svc.evaluate(&action, &other).unwrap();
        assert_eq!(report.benefit_rate, Dollars::ZERO);
        assert!(!report.accepted);
    }

    #[test]
    fn cache_budget_scales_benefit_with_size() {
        let cat = catalog();
        let svc = WhatIfService::new(&cat, WhatIfConfig::default());
        let ws = cat.get("facts").unwrap().table.total_encoded_bytes();
        let wl = workload(AGG, 200.0);
        let report_at = |mem: u64| {
            let action = TuningAction::CacheBudget {
                mem_bytes: mem,
                ssd_bytes: 0,
            };
            svc.evaluate(&action, &wl).unwrap()
        };
        let none = report_at(0);
        let half = report_at(ws / 2);
        let full = report_at(ws);
        assert_eq!(none.benefit_rate, Dollars::ZERO);
        assert!(half.benefit_rate > Dollars::ZERO, "{}", half.narrative);
        assert!(full.benefit_rate > half.benefit_rate);
        // Rent tracks occupied bytes: a budget above the working set costs
        // the same as one exactly covering it.
        let over = report_at(ws * 10);
        assert_eq!(over.cost_rate, full.cost_rate);
        assert_eq!(over.benefit_rate, full.benefit_rate);
    }

    #[test]
    fn cache_action_labels_are_descriptive() {
        let pin = TuningAction::PinTable {
            table: "facts".into(),
            tier: TierLevel::Mem,
        };
        assert_eq!(pin.label(), "PIN facts IN MEMORY");
        let budget = TuningAction::CacheBudget {
            mem_bytes: 64_000_000,
            ssd_bytes: 0,
        };
        assert!(budget.label().contains("mem=64.0MB"));
    }
}
