//! Per-operator scalability models and the query-level simulator.

use std::collections::BTreeSet;

use ci_catalog::Catalog;
use ci_cloud::faults::FaultProfile;
use ci_cloud::pricing::TierPricing;
use ci_cloud::tiercache::CacheCounters;
use ci_cloud::work::WorkModels;
use ci_plan::physical::{PhysicalOp, PhysicalPlan};
use ci_plan::pipeline::{Pipeline, PipelineGraph, SinkKind};
use ci_types::money::Dollars;
use ci_types::{CiError, Result, SimDuration, SimTime, TableId};

use crate::calibration::{Calibration, MeasuredRates};

/// How the estimator prices scans against a cache hierarchy: the tier menu
/// plus expected hit rates (global, observed from a prior run's counters),
/// with per-table pin overrides for what-if analyses ("if `lineitem` were
/// pinned in SSD, every one of its fetches is served at SSD latency").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierCostModel {
    /// Per-tier capacity/latency/price menu.
    pub pricing: TierPricing,
    /// Expected fraction of scan fetches served from the memory tier.
    pub mem_hit_rate: f64,
    /// Expected fraction served from the local-SSD tier.
    pub ssd_hit_rate: f64,
    /// Tables assumed fully memory-resident (hit rate 1.0 regardless of the
    /// global rates).
    pub pinned_mem: BTreeSet<TableId>,
    /// Tables assumed fully SSD-resident.
    pub pinned_ssd: BTreeSet<TableId>,
}

impl TierCostModel {
    /// A model with no expected hits: every fetch goes to the object store
    /// (the cold-cache baseline).
    pub fn cold(pricing: TierPricing) -> TierCostModel {
        TierCostModel {
            pricing,
            ..TierCostModel::default()
        }
    }

    /// Seeds the global hit rates from counters a real run observed.
    pub fn observed(pricing: TierPricing, c: &CacheCounters) -> TierCostModel {
        let total = (c.mem_hits + c.ssd_hits + c.misses) as f64;
        let (mem, ssd) = if total > 0.0 {
            (c.mem_hits as f64 / total, c.ssd_hits as f64 / total)
        } else {
            (0.0, 0.0)
        };
        TierCostModel {
            pricing,
            mem_hit_rate: mem,
            ssd_hit_rate: ssd,
            ..TierCostModel::default()
        }
    }

    /// The (mem, ssd) fractions to price a scan of `table` at: pins
    /// override the global rates.
    fn hit_fractions(&self, table: Option<TableId>) -> (f64, f64) {
        match table {
            Some(t) if self.pinned_mem.contains(&t) => (1.0, 0.0),
            Some(t) if self.pinned_ssd.contains(&t) => (0.0, 1.0),
            _ => {
                let mem = self.mem_hit_rate.clamp(0.0, 1.0);
                let ssd = self.ssd_hit_rate.clamp(0.0, 1.0 - mem);
                (mem, ssd)
            }
        }
    }
}

/// Estimator configuration (mirrors the executor's scheduling parameters so
/// predictions and measurements share assumptions).
#[derive(Debug, Clone)]
pub struct EstimatorConfig {
    /// Calibrated hardware/network/storage models.
    pub models: WorkModels,
    /// Cluster create/resize latency.
    pub resize_latency: SimDuration,
    /// Morsel split size (for overhead estimation).
    pub morsel_rows: usize,
    /// Fault rates of the priced tier, if any. When set, every pipeline
    /// duration carries a *failure tax*: the expected recovery time of
    /// retries, throttles, stragglers/hedges, and preemption re-runs, in
    /// the same taxonomy the engine bills (`ci_cloud::faults`). This is
    /// what lets the what-if service price "cheaper but flakier" against
    /// "pricier but reliable" tiers. `None` prices a fault-free tier.
    pub fault_profile: Option<FaultProfile>,
    /// Cache-hierarchy pricing, if the engine runs one. When set, scan
    /// fetch time blends tier service times by expected hit rate (pinned
    /// tables hit their tier with certainty), matching the engine's
    /// tier-aware fetch billing. `None` prices every fetch at object-store
    /// latency/bandwidth.
    pub tiers: Option<TierCostModel>,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            models: WorkModels::standard(),
            resize_latency: SimDuration::from_millis(500),
            morsel_rows: 65_536,
            fault_profile: None,
            tiers: None,
        }
    }
}

/// The work profile of one pipeline: every term is a named, explainable
/// quantity a database engineer can check by hand (§3.1 explainability).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineWork {
    /// Object-store bytes the source must fetch — *encoded* page sizes, the
    /// bytes a GET actually transfers.
    pub fetch_bytes: f64,
    /// Number of GET requests (micro-partitions).
    pub fetch_objects: f64,
    /// Bytes decoded from columnar format — the *decoded* payload the CPU
    /// produces (≥ `fetch_bytes` on compressible data).
    pub decode_bytes: f64,
    /// Rows through filters/projections (and scan-embedded filters).
    pub filter_rows: f64,
    /// Rows hashed for exchanges.
    pub exchange_rows: f64,
    /// Bytes pushed through exchanges in the *wire format*: per-row encoded
    /// widths from catalog page statistics plus one-time dictionary
    /// transfers (dict columns ship bit-packed ids, not strings).
    pub exchange_bytes: f64,
    /// Wire-format bytes gathered to a single node.
    pub gather_bytes: f64,
    /// Rows probed into hash tables.
    pub probe_rows: f64,
    /// Rows materialized out of probes.
    pub probe_out_rows: f64,
    /// Rows inserted into a join build (sink).
    pub build_rows: f64,
    /// Rows folded into aggregation state (sink).
    pub agg_rows: f64,
    /// Group count finalized by an aggregate sink.
    pub agg_groups: f64,
    /// Rows sorted by a sort sink.
    pub sort_rows: f64,
    /// Rows copied into a sort buffer / result sink.
    pub sink_copy_rows: f64,
    /// Estimated morsel count.
    pub morsels: f64,
    /// Estimated source rows (post scan-filter).
    pub source_rows: f64,
    /// The scanned table, when the source is a scan — what per-table cache
    /// pins in [`TierCostModel`] key on.
    pub scan_table: Option<TableId>,
}

/// An end-to-end query estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEstimate {
    /// Predicted query latency.
    pub latency: SimDuration,
    /// Predicted total machine time (billing basis, §3.1).
    pub machine_time: SimDuration,
    /// Predicted dollars.
    pub cost: Dollars,
    /// Per-pipeline (start, finish, release) schedule.
    pub spans: Vec<(SimTime, SimTime, SimTime)>,
}

/// The cost estimator.
#[derive(Debug, Clone)]
pub struct CostEstimator<'a> {
    catalog: &'a Catalog,
    /// Configuration (public so experiments can sweep hardware what-ifs).
    pub config: EstimatorConfig,
    /// Optional regression correction (§3.1 "pre-trained regression models").
    pub calibration: Option<Calibration>,
}

impl<'a> CostEstimator<'a> {
    /// New estimator over a catalog.
    pub fn new(catalog: &'a Catalog, config: EstimatorConfig) -> CostEstimator<'a> {
        CostEstimator {
            catalog,
            config,
            calibration: None,
        }
    }

    /// Attaches a fitted calibration.
    pub fn with_calibration(mut self, c: Calibration) -> CostEstimator<'a> {
        self.calibration = Some(c);
        self
    }

    /// Re-seeds the hardware calibration from rates the parallel runtime
    /// actually measured ([`MeasuredRates`]): every operator class with
    /// samples replaces its analytic `*_per_sec_per_core` rate, the rest
    /// keep the standing calibration. Predictions then track the machine
    /// the engine really ran on rather than the shipped defaults.
    pub fn with_measured_rates(mut self, rates: &MeasuredRates) -> CostEstimator<'a> {
        self.config.models = rates.seed(&self.config.models);
        self
    }

    /// Computes the work profile of one pipeline from plan annotations.
    pub fn pipeline_work(&self, plan: &PhysicalPlan, p: &Pipeline) -> Result<PipelineWork> {
        let mut w = PipelineWork::default();
        let src = &plan.nodes[p.source()];

        // Source terms.
        match &src.op {
            PhysicalOp::Scan {
                table_id,
                kept_parts,
                filter,
                ..
            } => {
                let entry = self.catalog.get_by_id(*table_id)?;
                let mut encoded = 0f64;
                let mut decoded = 0f64;
                let mut raw_rows = 0f64;
                for &pi in kept_parts {
                    let part = &entry.table.partitions[pi];
                    encoded += part.encoded_bytes as f64;
                    decoded += part.stored_bytes as f64;
                    raw_rows += part.rows() as f64;
                }
                w.fetch_bytes = encoded;
                w.fetch_objects = kept_parts.len() as f64;
                w.decode_bytes = decoded;
                if filter.is_some() {
                    w.filter_rows += raw_rows;
                }
                w.morsels = kept_parts.len() as f64;
                w.source_rows = src.est_rows;
                w.scan_table = Some(*table_id);
            }
            PhysicalOp::HashAgg { .. } | PhysicalOp::Sort { .. } => {
                w.source_rows = src.est_rows;
                w.morsels = (src.est_rows / self.config.morsel_rows as f64)
                    .ceil()
                    .max(1.0);
            }
            other => {
                return Err(CiError::Plan(format!(
                    "pipeline source must be scan or breaker, got {}",
                    other.name()
                )))
            }
        }

        // Streaming chain: input to node k is the est output of node k-1.
        let mut rows = w.source_rows;
        for &n_idx in &p.nodes[1..] {
            let node = &plan.nodes[n_idx];
            match &node.op {
                PhysicalOp::Filter { .. } | PhysicalOp::Project { .. } => {
                    w.filter_rows += rows;
                }
                PhysicalOp::ExchangeHash { .. } => {
                    w.exchange_rows += rows;
                    w.exchange_bytes +=
                        rows * plan.encoded_row_width(n_idx) + plan.dict_wire_bytes(n_idx);
                }
                PhysicalOp::Gather => {
                    w.gather_bytes +=
                        rows * plan.encoded_row_width(n_idx) + plan.dict_wire_bytes(n_idx);
                }
                PhysicalOp::HashJoin { .. } => {
                    w.probe_rows += rows;
                    w.probe_out_rows += node.est_rows;
                }
                PhysicalOp::Limit { .. } => {}
                other => {
                    return Err(CiError::Plan(format!(
                        "{} cannot appear mid-pipeline",
                        other.name()
                    )))
                }
            }
            rows = node.est_rows;
        }

        // Sink terms. `rows` is now the stream reaching the sink.
        match p.sink {
            SinkKind::JoinBuild { .. } => w.build_rows = rows,
            SinkKind::Aggregate { agg } => {
                w.agg_rows = rows;
                w.agg_groups = plan.nodes[agg].est_rows;
            }
            SinkKind::Sort { .. } => {
                w.sort_rows = rows;
                w.sink_copy_rows = rows;
            }
            SinkKind::Result => {}
        }
        Ok(w)
    }

    /// Predicted wall-clock duration of a pipeline at a given DOP —
    /// the per-operator scalability models composed over the chain.
    ///
    /// The parallel work terms divide by `dop`; serial terms (gather
    /// receive, sort merge span, per-node startup) do not. Morsel-ceiling
    /// effects are deliberately not modeled (a known, explainable error
    /// source the run-time monitor absorbs; calibration shrinks it). With
    /// [`EstimatorConfig::fault_profile`] set, a failure-tax term adds the
    /// expected recovery time of the tier's fault rates.
    pub fn pipeline_duration(&self, w: &PipelineWork, dop: u32) -> SimDuration {
        let m = &self.config.models;
        let d = dop.max(1);
        let object_secs =
            w.fetch_objects * m.store.request_latency_secs + w.fetch_bytes / m.store.per_node_bw(d);
        // Tier-aware fetch: blend the per-tier service times by expected
        // hit rate (pins hit with certainty), mirroring the engine's
        // tier-aware billing of scan fetches.
        let fetch_secs = match &self.config.tiers {
            None => object_secs,
            Some(t) => {
                let (mem_f, ssd_f) = t.hit_fractions(w.scan_table);
                let obj_f = (1.0 - mem_f - ssd_f).max(0.0);
                let mem_secs = w.fetch_objects * t.pricing.mem.request_latency_secs
                    + w.fetch_bytes / t.pricing.mem.bytes_per_sec;
                let ssd_secs = w.fetch_objects * t.pricing.ssd.request_latency_secs
                    + w.fetch_bytes / t.pricing.ssd.bytes_per_sec;
                obj_f * object_secs + mem_f * mem_secs + ssd_f * ssd_secs
            }
        };
        let compute_secs = m.scan_decode_secs(w.decode_bytes)
            + m.filter_secs(w.filter_rows)
            + m.exchange_cpu_secs(w.exchange_rows)
            + m.exchange_wire_secs(w.exchange_bytes, d)
            + m.probe_secs(w.probe_rows)
            + m.filter_secs(w.probe_out_rows)
            + m.build_secs(w.build_rows)
            + m.agg_update_secs(w.agg_rows)
            + m.filter_secs(w.sink_copy_rows)
            + w.morsels * m.morsel_overhead_secs();
        // Failure tax: expected recovery seconds under the priced tier's
        // fault profile, term-for-term with the engine's billing —
        // re-billed fetches + backoff, throttle penalties, straggler excess
        // (hedged past the threshold), and preemption re-runs (expected
        // half-morsel wasted plus the re-fetch).
        let failure_secs = match &self.config.fault_profile {
            None => 0.0,
            Some(fp) => {
                fetch_secs * fp.expected_fetch_overhead_factor()
                    + w.morsels * (fp.expected_backoff_secs() + fp.expected_throttle_secs())
                    + compute_secs * fp.expected_straggler_overhead_factor()
                    + (fetch_secs + compute_secs) * fp.expected_loss_overhead_factor()
                    + fetch_secs * fp.worker_loss_rate.clamp(0.0, 1.0)
            }
        };
        let parallel_secs = fetch_secs + compute_secs + failure_secs;
        let mut serial_secs = m.pipeline_startup_secs()
            + m.gather_secs(w.gather_bytes, d)
            + m.sort_finalize_secs(w.sort_rows, d)
            + m.filter_secs(w.agg_groups);
        if w.exchange_bytes > 0.0 || w.gather_bytes > 0.0 {
            serial_secs += m.exchange_startup_secs(d);
        }
        // Morsel granularity floor: a pipeline cannot run faster than its
        // largest indivisible work unit; approximate by the average morsel.
        let floor = if w.morsels >= 1.0 {
            parallel_secs / w.morsels
        } else {
            0.0
        };
        let raw = (parallel_secs / d as f64).max(floor) + serial_secs;
        let corrected = match &self.calibration {
            Some(c) => c.correct(raw, d),
            None => raw,
        };
        SimDuration::from_secs_f64(corrected)
    }

    /// Runs the query-level simulator: schedules the pipeline DAG at the
    /// given DOPs and predicts latency, machine time, and dollars.
    ///
    /// Mirrors the engine's schedule: a pipeline starts when all
    /// dependencies finish, nodes lease from start, become usable after the
    /// resize latency, and stay leased until the consumer of the pipeline's
    /// state finishes (state pinning).
    pub fn estimate(
        &self,
        plan: &PhysicalPlan,
        graph: &PipelineGraph,
        dops: &[u32],
    ) -> Result<QueryEstimate> {
        if dops.len() != graph.len() {
            return Err(CiError::Plan(format!(
                "{} DOPs for {} pipelines",
                dops.len(),
                graph.len()
            )));
        }
        let mut finishes = vec![SimTime::ZERO; graph.len()];
        for p in &graph.pipelines {
            let start = p
                .deps
                .iter()
                .map(|d| finishes[d.index()])
                .max()
                .unwrap_or(SimTime::ZERO);
            let w = self.pipeline_work(plan, p)?;
            let dur = self.pipeline_duration(&w, dops[p.id.index()]);
            finishes[p.id.index()] = start + self.config.resize_latency + dur;
        }
        // Release times: state pinned until the consumer finishes.
        let mut spans = Vec::with_capacity(graph.len());
        let mut machine_time = SimDuration::ZERO;
        for p in &graph.pipelines {
            let start = p
                .deps
                .iter()
                .map(|d| finishes[d.index()])
                .max()
                .unwrap_or(SimTime::ZERO);
            let finish = finishes[p.id.index()];
            let release = finishes[graph.consumer_of(p).unwrap_or(p).id.index()];
            machine_time += release.saturating_since(start) * dops[p.id.index()].max(1) as u64;
            spans.push((start, finish, release));
        }
        let latency = finishes[graph.result_pipeline().id.index()].since(SimTime::ZERO);
        Ok(QueryEstimate {
            latency,
            machine_time,
            cost: self.config.models.hw.node.rate.bill(machine_time),
            spans,
        })
    }

    /// The machine-time-optimal DOP of a standalone pipeline over a
    /// candidate ladder: minimizes `dop × duration(dop)` (ties to smaller).
    pub fn machine_time_optimal_dop(&self, w: &PipelineWork, ladder: &[u32]) -> u32 {
        let mut best = (ladder.first().copied().unwrap_or(1), f64::INFINITY);
        for &d in ladder {
            let mt = self.pipeline_duration(w, d).as_secs_f64() * d as f64;
            if mt < best.1 * 0.999 {
                best = (d, mt);
            }
        }
        best.0
    }

    /// The throughput function `T(dop)` of a pipeline in source rows/second
    /// — the quantity the equal-finish-time heuristic equates (§3.2:
    /// `C1/T1(DOP1) ≈ C2/T2(DOP2)`).
    pub fn pipeline_throughput(&self, w: &PipelineWork, dop: u32) -> f64 {
        let d = self.pipeline_duration(w, dop).as_secs_f64();
        if d <= 0.0 {
            f64::INFINITY
        } else {
            w.source_rows.max(1.0) / d
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ci_catalog::ErrorInjector;
    use ci_plan::{bind, JoinTree};
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
        let n = 200_000i64;
        let mut b = TableBuilder::new(TableId::new(0), "facts", schema.clone(), 8192).unwrap();
        b.append(
            RecordBatch::new(
                schema,
                vec![
                    ColumnData::Int64((0..n).collect()),
                    ColumnData::Int64((0..n).map(|i| i % 1000).collect()),
                    ColumnData::Float64((0..n).map(|i| (i % 100) as f64).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(b.finish().unwrap());
        let dim = Arc::new(Schema::of(vec![
            Field::new("d_id", DataType::Int64),
            Field::new("d_name", DataType::Utf8),
        ]));
        let mut b = TableBuilder::new(TableId::new(1), "dims", dim.clone(), 512).unwrap();
        b.append(
            RecordBatch::new(
                dim,
                vec![
                    ColumnData::Int64((0..1000).collect()),
                    ColumnData::Utf8((0..1000).map(|i| format!("d{i}")).collect()),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        c.register(b.finish().unwrap());
        c
    }

    fn planned(cat: &Catalog, sql: &str) -> (PhysicalPlan, PipelineGraph) {
        let b = bind(&parse(sql).unwrap(), cat).unwrap();
        let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
        let plan =
            ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
        let graph = PipelineGraph::decompose(&plan).unwrap();
        (plan, graph)
    }

    #[test]
    fn scan_duration_scales_inverse_with_dop() {
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT id FROM facts WHERE val < 50.0");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let w = est.pipeline_work(&plan, &graph.pipelines[0]).unwrap();
        let d1 = est.pipeline_duration(&w, 1).as_secs_f64();
        let d8 = est.pipeline_duration(&w, 8).as_secs_f64();
        let speedup = d1 / d8;
        assert!(
            (5.0..=8.5).contains(&speedup),
            "scan speedup at 8 nodes was {speedup}"
        );
    }

    #[test]
    fn int_codecs_shrink_fetch_and_exchange_charges() {
        // `facts` has a sorted id column (Delta pages) and a small-domain
        // grp column (FoR pages): the scan's fetch term charges encoded
        // bytes well under the decoded payload, and the group-by exchange
        // charges the encoded per-row width, not 8 bytes per int.
        let cat = catalog();
        let est = CostEstimator::new(&cat, EstimatorConfig::default());

        let (plan, graph) = planned(&cat, "SELECT id FROM facts");
        let w = est.pipeline_work(&plan, &graph.pipelines[0]).unwrap();
        assert!(w.fetch_bytes > 0.0);
        assert!(
            w.fetch_bytes * 2.0 < w.decode_bytes,
            "encoded fetch {} must be under half the decoded payload {}",
            w.fetch_bytes,
            w.decode_bytes
        );

        let (plan, graph) = planned(&cat, "SELECT grp, COUNT(*) FROM facts GROUP BY grp");
        let w = est.pipeline_work(&plan, &graph.pipelines[0]).unwrap();
        assert!(w.exchange_rows > 0.0 && w.exchange_bytes > 0.0);
        let exch = plan
            .nodes
            .iter()
            .position(|n| matches!(n.op, PhysicalOp::ExchangeHash { .. }))
            .expect("group-by plans an exchange");
        assert!(
            plan.encoded_row_width(exch) * 2.0 < plan.row_width(exch),
            "int slots must exchange at encoded width: {} vs decoded {}",
            plan.encoded_row_width(exch),
            plan.row_width(exch)
        );
        let charged = w.exchange_rows * plan.encoded_row_width(exch) + plan.dict_wire_bytes(exch);
        assert!(
            (w.exchange_bytes - charged).abs() < 1.0,
            "exchange charge {} must follow the encoded widths ({charged})",
            w.exchange_bytes
        );
    }

    #[test]
    fn exchange_heavy_pipeline_has_a_knee() {
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT grp, COUNT(*) FROM facts GROUP BY grp");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let w = est.pipeline_work(&plan, &graph.pipelines[0]).unwrap();
        assert!(w.exchange_bytes > 0.0, "agg input is exchanged");
        let mut best = (1u32, f64::INFINITY);
        for d in [1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
            let t = est.pipeline_duration(&w, d).as_secs_f64();
            if t < best.1 {
                best = (d, t);
            }
        }
        // Past some DOP, duration degrades again: exchange connection
        // fan-out grows with d while the divisible work has run out.
        let t_big = est.pipeline_duration(&w, 2048).as_secs_f64();
        assert!(
            t_big > best.1,
            "duration at 2048 ({t_big}) should exceed optimum {} at d={}",
            best.1,
            best.0
        );
        assert!(best.0 > 1, "optimum should not be a single node");
    }

    #[test]
    fn estimate_respects_dag_blocking() {
        let cat = catalog();
        let (plan, graph) = planned(
            &cat,
            "SELECT d_name, SUM(val) FROM facts f JOIN dims d ON f.grp = d.d_id \
             GROUP BY d_name",
        );
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let dops = vec![4; graph.len()];
        let q = est.estimate(&plan, &graph, &dops).unwrap();
        // Probe starts after build finishes.
        let build_span = q.spans[0];
        let probe_span = q.spans[1];
        assert!(probe_span.0 >= build_span.1);
        // Build released when probe finishes (state pinning).
        assert_eq!(build_span.2, probe_span.1);
        assert!(q.latency.as_secs_f64() > 0.0);
        assert!(q.cost.amount() > 0.0);
    }

    #[test]
    fn machine_time_counts_pinned_spans() {
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT id FROM facts f JOIN dims d ON f.grp = d.d_id");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let q = est.estimate(&plan, &graph, &vec![2; graph.len()]).unwrap();
        // Machine time > 2 * latency would mean both pipelines fully overlap;
        // at least it must exceed the result pipeline's own span * dop.
        let result_span = q.spans.last().unwrap();
        let own = result_span.2.saturating_since(result_span.0) * 2u64;
        assert!(q.machine_time >= own);
    }

    #[test]
    fn more_dops_cost_more_for_fixed_work() {
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT COUNT(*) FROM facts");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let cheap = est.estimate(&plan, &graph, &vec![1; graph.len()]).unwrap();
        let fast = est.estimate(&plan, &graph, &vec![32; graph.len()]).unwrap();
        assert!(fast.latency < cheap.latency);
        assert!(fast.cost.amount() > cheap.cost.amount());
    }

    #[test]
    fn throughput_is_monotone_then_saturates() {
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT grp, COUNT(*) FROM facts GROUP BY grp");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        let w = est.pipeline_work(&plan, &graph.pipelines[0]).unwrap();
        let t1 = est.pipeline_throughput(&w, 1);
        let t8 = est.pipeline_throughput(&w, 8);
        assert!(t8 > t1);
    }

    #[test]
    fn measured_rates_move_the_estimate() {
        use crate::calibration::MeasuredRates;
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT id FROM facts WHERE val < 50.0");
        let dops = vec![2u32; graph.len()];
        let baseline = CostEstimator::new(&cat, EstimatorConfig::default())
            .estimate(&plan, &graph, &dops)
            .unwrap();

        // A machine measured 10x slower at filtering stretches the estimate…
        let mut slow = MeasuredRates::new();
        slow.record("filter", 12_000_000.0, 1_000_000_000);
        let q_slow = CostEstimator::new(&cat, EstimatorConfig::default())
            .with_measured_rates(&slow)
            .estimate(&plan, &graph, &dops)
            .unwrap();
        assert!(q_slow.latency > baseline.latency);
        assert!(q_slow.cost.amount() > baseline.cost.amount());

        // …and one measured 10x faster shrinks it. The estimate is pinned to
        // the measured rates, not the shipped defaults.
        let mut fast = MeasuredRates::new();
        fast.record("filter", 1_200_000_000.0, 1_000_000_000);
        let q_fast = CostEstimator::new(&cat, EstimatorConfig::default())
            .with_measured_rates(&fast)
            .estimate(&plan, &graph, &dops)
            .unwrap();
        assert!(q_fast.latency < baseline.latency);

        // Rates for classes this plan never exercises leave it unchanged.
        let mut idle = MeasuredRates::new();
        idle.record("sort", 1_000.0, 1_000_000_000);
        let q_idle = CostEstimator::new(&cat, EstimatorConfig::default())
            .with_measured_rates(&idle)
            .estimate(&plan, &graph, &dops)
            .unwrap();
        assert_eq!(q_idle.latency, baseline.latency);
    }

    #[test]
    fn failure_tax_prices_flaky_tiers_higher() {
        use ci_cloud::faults::FaultProfile;
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT grp, COUNT(*) FROM facts GROUP BY grp");
        let dops = vec![2u32; graph.len()];
        let priced = |profile: Option<FaultProfile>| {
            let cfg = EstimatorConfig {
                fault_profile: profile,
                ..EstimatorConfig::default()
            };
            CostEstimator::new(&cat, cfg)
                .estimate(&plan, &graph, &dops)
                .unwrap()
        };

        let reliable = priced(None);
        // A quiet profile is a no-op tax: same price as no profile at all.
        let quiet = priced(Some(FaultProfile::none()));
        assert_eq!(quiet.latency, reliable.latency);
        assert_eq!(quiet.cost, reliable.cost);

        // Light faults cost real (expected) money…
        let light = priced(Some(FaultProfile::light()));
        assert!(light.latency > reliable.latency);
        assert!(light.cost.amount() > reliable.cost.amount());

        // …and a flakier tier prices strictly above a lighter one, which is
        // the comparison the what-if service makes.
        let mut storm = FaultProfile::light();
        storm.fetch_failure_rate = 0.5;
        storm.straggler_rate = 0.4;
        storm.worker_loss_rate = 0.2;
        storm.throttle_rate = 0.3;
        let stormy = priced(Some(storm));
        assert!(stormy.latency > light.latency);
        assert!(stormy.cost.amount() > light.cost.amount());
    }

    #[test]
    fn tier_hits_shrink_the_fetch_term() {
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT id FROM facts");
        let dops = vec![2u32; graph.len()];
        let priced = |tiers: Option<TierCostModel>| {
            let cfg = EstimatorConfig {
                tiers,
                ..EstimatorConfig::default()
            };
            CostEstimator::new(&cat, cfg)
                .estimate(&plan, &graph, &dops)
                .unwrap()
        };

        let cold = priced(None);
        // A cold tier model prices like no tier model at all.
        let cold_model = priced(Some(TierCostModel::cold(TierPricing::standard())));
        assert_eq!(cold_model.latency, cold.latency);

        // Memory hits serve faster than SSD hits, which beat the object
        // store — the ordering the tier menu guarantees.
        let warm = |mem: f64, ssd: f64| {
            priced(Some(TierCostModel {
                pricing: TierPricing::standard(),
                mem_hit_rate: mem,
                ssd_hit_rate: ssd,
                ..TierCostModel::default()
            }))
        };
        let all_ssd = warm(0.0, 1.0);
        let all_mem = warm(1.0, 0.0);
        assert!(all_ssd.latency < cold.latency);
        assert!(all_mem.latency < all_ssd.latency);
        assert!(all_mem.cost.amount() < cold.cost.amount());
    }

    #[test]
    fn pinned_table_prices_at_its_tier_regardless_of_global_rates() {
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT id FROM facts");
        let dops = vec![2u32; graph.len()];
        let priced = |tiers: TierCostModel| {
            let cfg = EstimatorConfig {
                tiers: Some(tiers),
                ..EstimatorConfig::default()
            };
            CostEstimator::new(&cat, cfg)
                .estimate(&plan, &graph, &dops)
                .unwrap()
        };
        let mut pinned = TierCostModel::cold(TierPricing::standard());
        pinned.pinned_mem.insert(TableId::new(0));
        let all_mem = TierCostModel {
            pricing: TierPricing::standard(),
            mem_hit_rate: 1.0,
            ..TierCostModel::default()
        };
        // Pinning `facts` in memory equals a 100% memory hit rate for this
        // single-scan query, and beats the cold model.
        assert_eq!(priced(pinned.clone()).latency, priced(all_mem).latency);
        let cold = priced(TierCostModel::cold(TierPricing::standard()));
        assert!(priced(pinned).latency < cold.latency);
    }

    #[test]
    fn observed_counters_seed_hit_rates() {
        use ci_cloud::tiercache::CacheCounters;
        let c = CacheCounters {
            mem_hits: 6,
            ssd_hits: 2,
            misses: 2,
            promotions: 3,
            evictions: 1,
        };
        let m = TierCostModel::observed(TierPricing::standard(), &c);
        assert!((m.mem_hit_rate - 0.6).abs() < 1e-12);
        assert!((m.ssd_hit_rate - 0.2).abs() < 1e-12);
        let empty = TierCostModel::observed(TierPricing::standard(), &CacheCounters::default());
        assert_eq!(empty.mem_hit_rate, 0.0);
        assert_eq!(empty.ssd_hit_rate, 0.0);
    }

    #[test]
    fn wrong_dop_count_rejected() {
        let cat = catalog();
        let (plan, graph) = planned(&cat, "SELECT COUNT(*) FROM facts");
        let est = CostEstimator::new(&cat, EstimatorConfig::default());
        assert!(est.estimate(&plan, &graph, &[1, 2, 3, 4, 5, 6, 7]).is_err());
    }
}
