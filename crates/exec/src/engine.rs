//! The morsel-driven query executor: one accounting core, two drivers.
//!
//! Execution walks the pipeline DAG bottom-up. Each pipeline:
//!
//! 1. acquires `DOP` nodes (leases open at request time; nodes become usable
//!    after the provisioning latency — you pay from acquisition, §3.1);
//! 2. splits its source into **morsels** (micro-partitions for scans, chunks
//!    of materialized breaker output otherwise);
//! 3. list-schedules morsels onto nodes: each morsel is *really processed*
//!    through the operator chain (true data, true cardinalities) while its
//!    virtual duration is charged from the calibrated [`WorkModels`];
//! 4. lets the [`ScalingController`] observe progress every few morsels and
//!    resize the node set mid-pipeline (morsel granularity is what makes
//!    this cheap — §3.3);
//! 5. finalizes its sink (hash-table build, aggregation, sort) and records
//!    its finish time; downstream pipelines start at the max of their
//!    dependencies' finishes.
//!
//! Node leases of a pipeline whose sink holds state (a join build) stay open
//! until the consuming pipeline finishes — **state pinning**. That is the
//! resource-waste mechanism behind the paper's equal-finish-time heuristic:
//! a build that finishes early idles (and bills) until its probe completes.
//!
//! # Simulate vs. Parallel
//!
//! Per-morsel work is split into two phases so one accounting code path can
//! serve two execution modes ([`ExecutionMode`]):
//!
//! * **processing** — the pure operator chain (scan filter, filters,
//!   projections, probes, transfer-point compaction) recorded into a
//!   `MorselTrace`. This phase touches no shared mutable state, so
//!   [`ExecutionMode::Parallel`] runs it on a persistent
//!   [`crate::parallel::WorkerPool`] whose Condvar-parked
//!   threads outlive individual queries; [`ExecutionMode::Simulate`] runs
//!   it inline. Processing itself is split again into a *fetch* stage
//!   (`ChainCtx::fetch_morsel`: page decode / batch materialization) and
//!   a *compute* stage (`ChainCtx::compute_morsel`), which the pool
//!   overlaps — workers prefetch upcoming morsels while others compute.
//! * **accounting** — always on the driver, in canonical morsel order:
//!   virtual-time list scheduling, wire-format byte accounting (the encoder
//!   stream is order-dependent: a dictionary ships once), `LIMIT`
//!   consumption, per-node cardinalities, and sink feeds (aggregate folding
//!   is IEEE-float order-sensitive, so the per-worker partial traces are
//!   merged here, at the pipeline breaker, in morsel order).
//!
//! Everything that determines results, logical row counts, and billed
//! `Dollars` lives in the accounting phase, which is why the parallel path
//! is bit-identical to the simulator *by construction* — the simulator stays
//! the determinism oracle, and the parallel runtime only changes wall-clock.
//! Parallel runs additionally record per-operator-class wall-clock
//! ([`OpSample`]) that `cost::calibration::MeasuredRates` aggregates into
//! hardware rates.
//!
//! One aggregation fast path relaxes the *structural* part of that story
//! without touching the observable part: when every aggregate in a sink is
//! provably order-insensitive ([`AggregateState::mergeable`] — integer
//! sums, counts, non-float min/max, distinct sets), the morsel list is
//! split into contiguous chunks and each worker folds its chunk into a
//! local [`AggregateState`] as it computes, instead of shipping per-morsel
//! sink batches back through the trace. The driver still walks every trace
//! in canonical order (its tail carries the sink-feed row counts, so
//! charges and metrics are unchanged), then absorbs the chunk states in
//! chunk order before finalizing — reproducing the sequential fold's
//! groups, order, and values exactly. Final results, cardinalities, and
//! `Dollars` stay bit-identical to the simulator; the equivalence is pinned
//! by `tests/partial_agg_equivalence.rs`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ci_catalog::Catalog;
use ci_cloud::faults::FaultPlan;
use ci_cloud::pricing::TierPricing;
use ci_cloud::tiercache::{CacheAccess, CacheKey, TierCacheSim, TierLevel};
use ci_cloud::work::WorkModels;
use ci_obs::{Lane, NodeProfile, ProfileReport, Trace, TraceEvent, TraceLevel, WorkerBuffers};
use ci_plan::expr::{ColMap, PlanExpr};
use ci_plan::physical::{PhysicalOp, PhysicalPlan};
use ci_plan::pipeline::{Pipeline, PipelineGraph, SinkKind};
use ci_storage::column::ColumnData;
use ci_storage::pages::{decode_column, encode_best, WireDecoder, WireEncoder};
use ci_storage::schema::SchemaRef;
use ci_storage::selection::SelectionVector;
use ci_storage::tiers::{DiskSource, PageSource, PageSourceMode, TierStore, TieredSource};
use ci_storage::RecordBatch;
use ci_types::money::{Dollars, DollarsPerSecond};
use ci_types::{CiError, Result, SimDuration, SimTime, TableId};

use crate::metrics::{attribute_node_dollars, OpSample, PipelineMetrics, QueryMetrics};
use crate::operators::{
    apply_filter, apply_project, slots_schema, AggregateState, JoinHashTable, SortBuffer,
};
use crate::parallel::WorkerPool;
use crate::scaling::{PipelineProgress, PipelineStart, ScaleDecision, ScalingController};
use crate::trace::{NodeStats, Tracer};

/// How morsels are really processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Single-threaded discrete-event simulation: the determinism oracle.
    Simulate,
    /// Real multi-threaded processing on a persistent `std::thread`
    /// [`WorkerPool`] of `workers` threads (see [`ExecutionConfig::pool`]).
    /// Result rows, logical row counts, and billed
    /// `Dollars` are bit-identical to [`ExecutionMode::Simulate`]; only
    /// wall-clock changes, and [`PipelineMetrics::measured_wall_ns`] /
    /// [`QueryOutcome::op_samples`] are populated.
    Parallel {
        /// Worker-thread count (clamped to at least 1).
        workers: usize,
    },
}

impl ExecutionMode {
    /// Reads the mode from the `CI_EXEC_MODE` environment variable
    /// (`simulate`/`sim`, `parallel` = 4 workers, `parallel:N`), defaulting
    /// to [`ExecutionMode::Simulate`] when unset or unparseable. This is the
    /// CI toggle that runs the whole test suite under the parallel runtime.
    pub fn from_env() -> ExecutionMode {
        std::env::var("CI_EXEC_MODE")
            .ok()
            .and_then(|s| Self::parse(&s))
            .unwrap_or(ExecutionMode::Simulate)
    }

    /// Parses a mode string: `simulate`/`sim` (or empty), `parallel`
    /// (4 workers), `parallel:N`.
    pub fn parse(s: &str) -> Option<ExecutionMode> {
        let s = s.trim();
        match s {
            "" | "simulate" | "sim" => Some(ExecutionMode::Simulate),
            "parallel" => Some(ExecutionMode::Parallel { workers: 4 }),
            _ => s
                .strip_prefix("parallel:")
                .and_then(|n| n.trim().parse::<usize>().ok())
                .map(|n| ExecutionMode::Parallel { workers: n.max(1) }),
        }
    }
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// Calibrated hardware/network/storage models.
    pub models: WorkModels,
    /// Per-node billing rate.
    pub rate: DollarsPerSecond,
    /// Latency for cluster creation and resizing (warm-pool assumption, §3).
    pub resize_latency: SimDuration,
    /// Maximum rows per morsel when splitting materialized state.
    pub morsel_rows: usize,
    /// Progress-callback period, in morsels.
    pub check_interval: usize,
    /// Run exchanges and gathers through the *real* wire path: serialize
    /// each shuffled batch with the pipeline's [`WireEncoder`] and decode it
    /// back through a paired [`WireDecoder`] (per-stream dictionary cache)
    /// before it continues downstream. Results, metrics, and `Dollars` are
    /// bit-identical to the default size-only accounting — engine tests pin
    /// that — so this stays off outside tests, where the simulation only
    /// needs byte counts.
    pub wire_roundtrip: bool,
    /// Morsel-processing driver (defaults from `CI_EXEC_MODE`, see
    /// [`ExecutionMode::from_env`]).
    pub mode: ExecutionMode,
    /// Allow the reorder-tolerant partial-aggregation path in parallel mode
    /// (worker-side chunk folds merged at the breaker). Only engaged when
    /// [`AggregateState::mergeable`] proves the merge exact, so results and
    /// `Dollars` are unchanged either way; the toggle exists so tests and
    /// benchmarks can pin the trace-fold baseline.
    pub partial_agg: bool,
    /// Really round-trip scan morsels through the storage page codecs: at
    /// morsel split, non-dictionary columns are encoded into pages, and the
    /// fetch stage decodes them back (dictionary columns ride as shared
    /// `Arc`s, like the wire's dictionary dedup). Applied in *both* modes,
    /// so parallel runs stay bit-identical to the simulator; billed fetch
    /// bytes come from partition statistics and are unchanged by
    /// construction. Off by default: the simulation only needs byte counts.
    pub fetch_roundtrip: bool,
    /// Worker pool for [`ExecutionMode::Parallel`]. `None` (default) uses
    /// the process-wide [`WorkerPool::shared`] pool for the mode's worker
    /// count; set an owned pool to control thread lifetime explicitly
    /// (benchmarks pin cold-start costs this way).
    pub pool: Option<Arc<WorkerPool>>,
    /// Deterministic fault injection (`None` = fault-free; defaults from
    /// `CI_FAULT_MODE`, see [`FaultPlan::from_env`]). Fault draws are pure
    /// in `(seed, pipeline, morsel)`, recovery is billed in the accounting
    /// phase, and the data path never sees a fault — so for a fixed plan
    /// the Dollars bill is bit-identical across runs and modes while result
    /// rows stay bit-identical to the fault-free run. Unrecoverable
    /// schedules surface [`CiError::Fault`] instead of hanging.
    pub faults: Option<FaultPlan>,
    /// Tracing level (defaults from `CI_TRACE`, see
    /// [`TraceLevel::from_env`]). `Off` keeps the observability machinery
    /// dormant; `Spans` records the deterministic virtual-time driver lanes,
    /// the metrics registry, and the per-node profile; `Full` adds
    /// wall-clock worker lanes (park/claim/run). Per-node busy/dollar
    /// attribution on [`QueryMetrics`] is always on — it rides the
    /// accounting pass and costs a few float adds per morsel.
    pub trace: TraceLevel,
    /// When set (and `trace` is not `Off`), the Chrome trace-format JSON is
    /// written here after execution — load it in `chrome://tracing` or
    /// Perfetto.
    pub trace_path: Option<std::path::PathBuf>,
    /// Where scans physically read partition bytes from (defaults from
    /// `CI_PAGE_SOURCE`, see [`PageSourceMode::from_env`]). `Disk` and
    /// `Tiered` read real on-disk `CIPF` page files written through the
    /// catalog's page store; results and `Dollars` are bit-identical to
    /// `Mem` by construction — the equivalence tests pin it. Purely
    /// physical: billing is unaffected by this knob alone.
    pub page_source: PageSourceMode,
    /// Tier price menu engaging the cost-aware cache *accounting*
    /// (defaults from `CI_TIERS`, normally `None`). When set, the
    /// deterministic [`TierCacheSim`] advances in the driver's canonical
    /// accounting loop — independent of `page_source` and execution mode —
    /// so cache hits bill tier latencies instead of object fetches, misses
    /// remain the only fault-injectable fetches, and hit/miss/eviction
    /// sequences are a pure function of the morsel trace. With
    /// `page_source: Tiered` the simulator's decisions also drive physical
    /// promotion/eviction in the catalog's [`TierStore`].
    pub tiers: Option<TierPricing>,
    /// Shared cache-simulator state for warm-across-queries experiments
    /// (like [`ExecutionConfig::pool`]): `None` starts each query cold.
    /// Only consulted when [`ExecutionConfig::tiers`] is set.
    pub tier_sim: Option<Arc<Mutex<TierCacheSim>>>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            models: WorkModels::standard(),
            rate: DollarsPerSecond::per_hour(2.0),
            resize_latency: SimDuration::from_millis(500),
            morsel_rows: 65_536,
            check_interval: 8,
            wire_roundtrip: false,
            mode: ExecutionMode::from_env(),
            partial_agg: true,
            fetch_roundtrip: false,
            pool: None,
            faults: FaultPlan::from_env(),
            trace: TraceLevel::from_env(),
            trace_path: None,
            page_source: PageSourceMode::from_env(),
            tiers: TierPricing::from_env(),
            tier_sim: None,
        }
    }
}

/// Result of executing one query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The query result (deterministic row order).
    pub result: RecordBatch,
    /// Execution metrics (latency, dollars, per-pipeline breakdown).
    pub metrics: QueryMetrics,
    /// Measured per-operator wall-clock samples, in canonical (pipeline,
    /// morsel) order. Empty in simulator mode. Sample *durations* are
    /// nondeterministic (real hardware); sample *order and units* are not.
    pub op_samples: Vec<OpSample>,
    /// The recorded trace (`None` at [`TraceLevel::Off`]): events, metrics
    /// registry, and the per-node profile report. The virtual-time lanes and
    /// the profile are deterministic; wall-clock worker lanes (at
    /// [`TraceLevel::Full`], parallel mode) are not.
    pub trace: Option<Trace>,
}

/// The query executor.
#[derive(Debug)]
pub struct Executor<'a> {
    catalog: &'a Catalog,
    /// Execution configuration (public: experiments tweak models/rates).
    pub config: ExecutionConfig,
}

/// Materialized inter-pipeline state, keyed by plan-node index.
pub(crate) enum NodeState {
    Built(JoinHashTable),
    Output(RecordBatch),
}

/// One unit of schedulable work.
pub(crate) struct Morsel {
    payload: Payload,
    /// *Encoded* object-store bytes this morsel must fetch (0 for
    /// memory-resident state) — what the GET transfers.
    fetch_bytes: f64,
    /// *Decoded* payload bytes the fetch expands to — what the scan-decode
    /// CPU term processes.
    decode_bytes: f64,
    /// The micro-partition this morsel reads, for tier-cache accounting:
    /// `(table, partition ordinal, whole-partition encoded bytes)`. Set for
    /// every scan morsel regardless of page source, so the cache simulation
    /// sees an identical access trace under `Mem`, `Disk`, and `Tiered`.
    tier_part: Option<TierPart>,
}

/// Identity + size of the partition behind a scan morsel.
#[derive(Debug, Clone, Copy)]
struct TierPart {
    table: TableId,
    part: u32,
    bytes: u64,
}

/// A morsel's payload: where the fetch stage gets the batch.
pub(crate) enum Payload {
    /// Memory-resident batch (breaker outputs; `Mem` page source).
    Batch(RecordBatch),
    /// With [`ExecutionConfig::fetch_roundtrip`]: the payload as
    /// really-encoded storage pages, decoded by the fetch stage.
    Pages(EncodedMorsel),
    /// Disk-backed: the fetch stage reads the partition through a
    /// [`PageSource`] (real `CIPF` file bytes or the tier stack) — no
    /// resident decoded table rides along.
    File(FileMorsel),
}

/// A file-backed morsel: which partition slice to read, and through what.
pub(crate) struct FileMorsel {
    source: Arc<dyn PageSource>,
    table: TableId,
    part: u32,
    offset: usize,
    len: usize,
    /// The pipeline's slot schema the fetched batch is re-labelled under.
    schema: SchemaRef,
}

/// A morsel's payload in page form (the `fetch_roundtrip` representation).
pub(crate) struct EncodedMorsel {
    schema: SchemaRef,
    cols: Vec<PageOrCol>,
}

/// One column of an [`EncodedMorsel`].
pub(crate) enum PageOrCol {
    /// A storage page the fetch stage decodes.
    Page(Vec<u8>),
    /// Passed through as-is: dictionary columns ride as shared `Arc`s so
    /// every morsel of a partition keeps the *same* dictionary identity
    /// (page decode would mint per-morsel dictionaries and break the
    /// exchange wire's ship-once dedup).
    Col(Arc<ColumnData>),
}

/// Precompiled streaming step of a pipeline's operator chain.
pub(crate) enum Step {
    Filter {
        pred: PlanExpr,
        map: ColMap,
        node: usize,
    },
    Project {
        exprs: Vec<(PlanExpr, String)>,
        map: ColMap,
        out_schema: SchemaRef,
        node: usize,
    },
    Exchange {
        node: usize,
    },
    Gather {
        node: usize,
    },
    Probe {
        join_node: usize,
        probe_positions: Vec<usize>,
        out_schema: SchemaRef,
    },
    Limit {
        node: usize,
    },
}

/// What one chain step did to one morsel — everything the accounting phase
/// needs to charge virtual time and cardinalities without reprocessing.
pub(crate) struct StepTrace {
    /// Index into the pipeline's step list.
    step: usize,
    /// Logical rows entering the step.
    rows_in: u64,
    /// Logical rows leaving the step.
    rows_out: u64,
    /// At transfer points (exchange/gather): the compacted batch as it went
    /// to the wire, so the driver can replay serialization against the
    /// order-dependent encoder stream.
    shipped: Option<RecordBatch>,
}

/// Where a morsel's chain processing ended.
pub(crate) enum Tail {
    /// Chain fully processed; this batch feeds the sink.
    Done(RecordBatch),
    /// A worker reached a `LIMIT` step, which needs the driver's shared
    /// limit state; the driver resumes the chain from `step`.
    AtLimit { step: usize, batch: RecordBatch },
    /// Partial-aggregation path: the sink feed was folded into a worker's
    /// chunk-local [`AggregateState`]; only the counts the driver's
    /// accounting needs travel back.
    AggPartial { rows: u64, physical_rows: u64 },
}

/// Pure per-morsel processing record, produced by workers (or inline by the
/// simulator) and consumed by the driver's accounting pass.
pub(crate) struct MorselTrace {
    /// Rows entering the pipeline source.
    source_rows: u64,
    /// Rows surviving the source-embedded scan filter (equals `source_rows`
    /// when there is none; unused for breaker sources).
    src_post_rows: u64,
    steps: Vec<StepTrace>,
    tail: Tail,
    samples: Vec<OpSample>,
    wall_ns: u64,
}

/// Everything the pure processing phase needs. Owns its data (steps moved
/// in, node states as `Arc` snapshots) so an `Arc<ChainCtx>` can be handed
/// to the persistent worker pool without lifetime coupling to the driver's
/// stack frame.
pub(crate) struct ChainCtx {
    steps: Vec<Step>,
    src_is_scan: bool,
    src_filter: Option<PlanExpr>,
    src_map: ColMap,
    states: HashMap<usize, Arc<NodeState>>,
    /// Record wall-clock [`OpSample`]s (parallel mode only — the simulator
    /// reports 0 measured time by contract).
    measure: bool,
    /// Containment-testing trap: compute panics on a morsel with exactly
    /// this many source rows. Always `None` in the engine; pool tests set
    /// it to prove a panicking operator cannot wedge `done_cv`.
    pub(crate) panic_trap: Option<u64>,
}

#[cfg(test)]
impl ChainCtx {
    /// Minimal pass-through context for pool tests: no steps, no scan
    /// semantics, so `process_morsel` returns the batch as `Tail::Done` —
    /// unless `panic_trap` matches the morsel's row count.
    pub(crate) fn test_passthrough(panic_trap: Option<u64>) -> ChainCtx {
        ChainCtx {
            steps: Vec::new(),
            src_is_scan: false,
            src_filter: None,
            src_map: ColMap::from_slots(&[]),
            states: HashMap::new(),
            measure: false,
            panic_trap,
        }
    }
}

#[cfg(test)]
impl Morsel {
    /// Memory-resident test morsel (no fetch bytes, no encoded pages).
    pub(crate) fn test_from_batch(batch: RecordBatch) -> Morsel {
        Morsel {
            payload: Payload::Batch(batch),
            fetch_bytes: 0.0,
            decode_bytes: 0.0,
            tier_part: None,
        }
    }
}

#[cfg(test)]
impl MorselTrace {
    /// Rows carried by a completed trace's tail batch (test observability).
    pub(crate) fn test_done_rows(&self) -> Option<u64> {
        match &self.tail {
            Tail::Done(b) => Some(b.rows() as u64),
            _ => None,
        }
    }
}

/// Runs `f`, optionally timing it into `samples`/`wall_total` under the
/// given operator class.
pub(crate) fn timed<T>(
    measure: bool,
    op: &'static str,
    units: f64,
    samples: &mut Vec<OpSample>,
    wall_total: &mut u64,
    f: impl FnOnce() -> Result<T>,
) -> Result<T> {
    if !measure {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    *wall_total += wall_ns;
    samples.push(OpSample { op, units, wall_ns });
    out
}

impl ChainCtx {
    /// The fetch/decode stage: materializes a morsel's payload batch. A
    /// cheap `Arc` clone normally; with [`ExecutionConfig::fetch_roundtrip`]
    /// it really decodes the morsel's storage pages. Separated from
    /// [`ChainCtx::compute_morsel`] so the worker pool can prefetch
    /// upcoming morsels while earlier ones compute. Emits no [`OpSample`]s:
    /// the operator-class set the calibrator sees is fixed, and billed
    /// fetch bytes come from the morsel's partition statistics, not from
    /// this stage.
    pub(crate) fn fetch_morsel(&self, morsel: &Morsel) -> Result<RecordBatch> {
        match &morsel.payload {
            Payload::Batch(batch) => Ok(batch.clone()),
            Payload::Pages(em) => {
                let cols = em
                    .cols
                    .iter()
                    .map(|c| match c {
                        PageOrCol::Col(col) => Ok(col.clone()),
                        PageOrCol::Page(bytes) => decode_column(bytes).map(Arc::new),
                    })
                    .collect::<Result<Vec<_>>>()?;
                RecordBatch::from_arcs(em.schema.clone(), cols)
            }
            Payload::File(f) => {
                // Real bytes: read + checksum + decode the partition file
                // (or whatever tier physically holds it), then carve out
                // this morsel's row range. Dict columns attach the pinned
                // table-wide dictionary `Arc`s, so downstream wire
                // accounting is identical to the memory path.
                let part = f.source.read_partition(f.table, f.part as usize)?;
                let batch = part.with_schema(f.schema.clone())?;
                if f.offset == 0 && f.len == batch.rows() {
                    Ok(batch)
                } else {
                    batch.slice(f.offset, f.len)
                }
            }
        }
    }

    /// The compute stage: runs a fetched batch through the operator chain,
    /// producing the morsel's trace. See [`ChainCtx::process_morsel`] for
    /// the `limit` contract.
    pub(crate) fn compute_morsel(
        &self,
        mut batch: RecordBatch,
        limit: Option<&mut Option<u64>>,
    ) -> Result<MorselTrace> {
        let mut samples = Vec::new();
        let mut wall_ns = 0u64;
        let source_rows = batch.rows() as u64;
        if self.panic_trap == Some(source_rows) {
            panic!("panic_trap: morsel with {source_rows} source rows");
        }
        let mut src_post_rows = source_rows;
        if self.src_is_scan {
            if let Some(pred) = &self.src_filter {
                let units = batch.rows() as f64;
                batch = timed(
                    self.measure,
                    "filter",
                    units,
                    &mut samples,
                    &mut wall_ns,
                    || apply_filter(&batch, pred, &self.src_map),
                )?;
            }
            src_post_rows = batch.rows() as u64;
        }
        let mut steps = Vec::new();
        let tail = self.process_chain(batch, 0, limit, &mut steps, &mut samples, &mut wall_ns)?;
        Ok(MorselTrace {
            source_rows,
            src_post_rows,
            steps,
            tail,
            samples,
            wall_ns,
        })
    }

    /// Processes one morsel through fetch + compute, producing its trace.
    ///
    /// With `limit: Some(..)` (simulator / driver), `LIMIT` steps are
    /// applied inline against the shared remaining-rows state. With `None`
    /// (parallel workers), processing stops at the first `LIMIT` step and
    /// the driver finishes the chain via [`ChainCtx::complete_trace`].
    pub(crate) fn process_morsel(
        &self,
        morsel: &Morsel,
        limit: Option<&mut Option<u64>>,
    ) -> Result<MorselTrace> {
        self.compute_morsel(self.fetch_morsel(morsel)?, limit)
    }

    /// Partial-aggregation processing: fetch + compute, then fold the sink
    /// feed into the caller's chunk-local state instead of carrying the
    /// batch back. Only valid on chains without `LIMIT` steps (the engine
    /// guards this), so the chain always runs to completion. The fold is
    /// timed under the same `"agg"` class, guard, and canonical sample
    /// position as the driver-side sink update it replaces.
    pub(crate) fn process_morsel_partial(
        &self,
        morsel: &Morsel,
        st: &mut AggregateState,
    ) -> Result<MorselTrace> {
        let mut trace = self.compute_morsel(self.fetch_morsel(morsel)?, None)?;
        let Tail::Done(batch) = trace.tail else {
            return Err(CiError::Exec(
                "partial-agg morsel stopped mid-chain (LIMIT in an agg pipeline?)".into(),
            ));
        };
        let rows = batch.rows() as u64;
        let physical_rows = batch.physical_rows() as u64;
        if !batch.is_empty() {
            timed(
                self.measure,
                "agg",
                rows as f64,
                &mut trace.samples,
                &mut trace.wall_ns,
                || st.update(&batch),
            )?;
        }
        trace.tail = Tail::AggPartial {
            rows,
            physical_rows,
        };
        Ok(trace)
    }

    /// Resumes a worker-produced trace that stopped at a `LIMIT` step,
    /// running the remaining chain against the driver's real limit state.
    /// A no-op for already-complete traces.
    pub(crate) fn complete_trace(
        &self,
        t: MorselTrace,
        limit: &mut Option<u64>,
    ) -> Result<MorselTrace> {
        let MorselTrace {
            source_rows,
            src_post_rows,
            mut steps,
            tail,
            mut samples,
            mut wall_ns,
        } = t;
        let tail = match tail {
            Tail::Done(batch) => Tail::Done(batch),
            tail @ Tail::AggPartial { .. } => tail,
            Tail::AtLimit { step, batch } => self.process_chain(
                batch,
                step,
                Some(limit),
                &mut steps,
                &mut samples,
                &mut wall_ns,
            )?,
        };
        Ok(MorselTrace {
            source_rows,
            src_post_rows,
            steps,
            tail,
            samples,
            wall_ns,
        })
    }

    /// The streaming operator chain from `first_step` onward. Pure with
    /// respect to engine state: reads hash tables, writes only the trace.
    fn process_chain(
        &self,
        mut batch: RecordBatch,
        first_step: usize,
        mut limit: Option<&mut Option<u64>>,
        trace: &mut Vec<StepTrace>,
        samples: &mut Vec<OpSample>,
        wall_ns: &mut u64,
    ) -> Result<Tail> {
        for si in first_step..self.steps.len() {
            if batch.is_empty() {
                break;
            }
            let rows_in = batch.rows() as u64;
            let mut shipped = None;
            match &self.steps[si] {
                Step::Filter { pred, map, .. } => {
                    batch = timed(
                        self.measure,
                        "filter",
                        rows_in as f64,
                        samples,
                        wall_ns,
                        || apply_filter(&batch, pred, map),
                    )?;
                }
                Step::Project {
                    exprs,
                    map,
                    out_schema,
                    ..
                } => {
                    batch = timed(
                        self.measure,
                        "filter",
                        rows_in as f64,
                        samples,
                        wall_ns,
                        || apply_project(&batch, exprs, map, out_schema.clone()),
                    )?;
                }
                Step::Exchange { .. } | Step::Gather { .. } => {
                    // Transfer points materialize: deferred filters compact
                    // here rather than shipping unselected rows. The wire
                    // bytes themselves are charged by the driver, which
                    // replays this batch against the pipeline's (stateful,
                    // order-dependent) encoder stream.
                    batch = timed(
                        self.measure,
                        "exchange",
                        rows_in as f64,
                        samples,
                        wall_ns,
                        || Ok(batch.compacted()),
                    )?;
                    shipped = Some(batch.clone());
                }
                Step::Probe {
                    join_node,
                    probe_positions,
                    out_schema,
                } => {
                    let Some(NodeState::Built(ht)) = self.states.get(join_node).map(Arc::as_ref)
                    else {
                        return Err(CiError::Exec(format!(
                            "hash table for join node {join_node} not built"
                        )));
                    };
                    batch = timed(
                        self.measure,
                        "probe",
                        rows_in as f64,
                        samples,
                        wall_ns,
                        || ht.probe(&batch, probe_positions, out_schema.clone()),
                    )?;
                }
                Step::Limit { .. } => match &mut limit {
                    None => return Ok(Tail::AtLimit { step: si, batch }),
                    Some(rem_opt) => {
                        if let Some(rem) = rem_opt.as_mut() {
                            let take = (*rem as usize).min(batch.rows());
                            // Pushed into the selection: a prefix range over
                            // the logical rows shares every column, so the
                            // cut is zero-copy whether or not the stream
                            // already carries a deferred filter.
                            batch = batch.select(SelectionVector::from_range(
                                0,
                                take,
                                batch.rows(),
                            )?)?;
                            *rem -= take as u64;
                        }
                    }
                },
            }
            trace.push(StepTrace {
                step: si,
                rows_in,
                rows_out: batch.rows() as u64,
                shipped,
            });
        }
        Ok(Tail::Done(batch))
    }
}

/// Per-query cache-accounting state: the deterministic simulator plus (for
/// the tiered page source) the physical store mirroring its decisions.
struct TierRuntime {
    sim: Arc<Mutex<TierCacheSim>>,
    store: Option<Arc<TierStore>>,
}

/// Locks the (possibly shared) tier simulator. A panic elsewhere while the
/// lock was held may have left an access half-applied, and the bill is a
/// function of that state — so a poisoned simulator fails the query with a
/// typed error instead of panicking or billing from it.
fn lock_sim(sim: &Mutex<TierCacheSim>) -> Result<MutexGuard<'_, TierCacheSim>> {
    sim.lock().map_err(|_| {
        CiError::Exec("tier cache simulator lock is poisoned by an earlier panic".into())
    })
}

/// Per-node scheduling slot.
struct NodeSlot {
    /// When this node can accept the next morsel.
    free: SimTime,
    /// When this node finished its last *assigned* morsel (a node that never
    /// worked must not extend the pipeline finish time).
    worked_until: Option<SimTime>,
    lease_start: SimTime,
    lease_end: Option<SimTime>,
}

impl<'a> Executor<'a> {
    /// Creates an executor over a catalog.
    pub fn new(catalog: &'a Catalog, config: ExecutionConfig) -> Executor<'a> {
        Executor { catalog, config }
    }

    /// Executes a physical plan with per-pipeline DOPs (`dops[i]` is the DOP
    /// of pipeline `i`; values are clamped to at least 1) under the given
    /// scaling policy.
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        graph: &PipelineGraph,
        dops: &[u32],
        ctrl: &mut dyn ScalingController,
    ) -> Result<QueryOutcome> {
        if dops.len() != graph.len() {
            return Err(CiError::Exec(format!(
                "{} DOPs provided for {} pipelines",
                dops.len(),
                graph.len()
            )));
        }
        let mut states: HashMap<usize, Arc<NodeState>> = HashMap::new();
        let mut node_actual = vec![0u64; plan.nodes.len()];
        let mut node_stats = vec![NodeStats::default(); plan.nodes.len()];
        let mut tracer = Tracer::new(self.config.trace);
        // Resolve the worker pool once per query: back-to-back queries (and
        // every pipeline of this one) reuse the same parked threads.
        let pool: Option<Arc<WorkerPool>> = match self.config.mode {
            ExecutionMode::Simulate => None,
            ExecutionMode::Parallel { workers } => Some(match &self.config.pool {
                Some(p) => p.clone(),
                None => WorkerPool::shared(workers),
            }),
        };
        // Wall-clock worker lanes (Full only): per-worker buffers attached
        // to the pool for the duration of this query. The guard detaches on
        // every exit path, including errors. A shared pool serving another
        // query concurrently would interleave its spans into these lanes —
        // acceptable for a profiling artifact, and exactly what a wall-clock
        // timeline of the shared threads means.
        let worker_bufs: Option<Arc<WorkerBuffers>> = match (&pool, self.config.trace.wall()) {
            (Some(p), true) => Some(Arc::new(WorkerBuffers::new(p.workers()))),
            _ => None,
        };
        let _trace_guard = match (&pool, &worker_bufs) {
            (Some(p), Some(b)) => Some(p.attach_trace(b.clone())),
            _ => None,
        };
        // Physical page source: where scan fetches read partition bytes
        // from. Disk/Tiered wire up the catalog's on-disk page store; the
        // executor's `source_morsels` writes each scanned table through on
        // first touch.
        let page_src: Option<Arc<dyn PageSource>> = match self.config.page_source {
            PageSourceMode::Mem => None,
            PageSourceMode::Disk => Some(Arc::new(DiskSource::new(self.catalog.page_store()?))),
            PageSourceMode::Tiered => Some(Arc::new(TieredSource::new(self.catalog.tier_store()?))),
        };
        // Cache accounting: the deterministic tier simulator, advanced only
        // from the driver's canonical accounting loop. Engaged by pricing,
        // not by page source, so the bill is source-invariant. Physical
        // placement mirrors the simulator only under the tiered source.
        let tier_rt: Option<TierRuntime> = match &self.config.tiers {
            None => None,
            Some(pricing) => {
                let sim =
                    self.config.tier_sim.clone().unwrap_or_else(|| {
                        Arc::new(Mutex::new(TierCacheSim::new(pricing.clone())))
                    });
                lock_sim(&sim)?.begin_query();
                let store = match self.config.page_source {
                    PageSourceMode::Tiered => Some(self.catalog.tier_store()?),
                    _ => None,
                };
                Some(TierRuntime { sim, store })
            }
        };
        let mut finishes = vec![SimTime::ZERO; graph.len()];
        let mut all_metrics: Vec<PipelineMetrics> = Vec::new();
        let mut open_leases: Vec<Vec<NodeSlot>> = Vec::new();
        let mut result_batches: Vec<RecordBatch> = Vec::new();
        let mut resize_events = 0u32;
        let mut op_samples: Vec<OpSample> = Vec::new();

        for p in &graph.pipelines {
            let ready = p
                .deps
                .iter()
                .map(|d| finishes[d.index()])
                .max()
                .unwrap_or(SimTime::ZERO);

            let (morsels, actual_source_rows) =
                self.source_morsels(plan, p, &mut states, &page_src)?;
            let src_node = &plan.nodes[p.source()];
            let sink_node_est = plan.nodes[p.last()].est_rows;
            let planned_dop = dops[p.id.index()].max(1);
            let dop = ctrl
                .on_pipeline_start(&PipelineStart {
                    pipeline: p.id,
                    planned_dop,
                    planned_source_rows: src_node.est_rows,
                    actual_source_rows,
                    planned_sink_rows: sink_node_est,
                })
                .max(1);

            let run = self.run_pipeline(
                plan,
                p,
                dop,
                ready,
                morsels,
                &mut states,
                &mut node_actual,
                &mut node_stats,
                &mut result_batches,
                ctrl,
                pool.as_deref(),
                &mut tracer,
                tier_rt.as_ref(),
            )?;
            finishes[p.id.index()] = run.finish;
            resize_events += run.metrics.resizes;
            all_metrics.push(run.metrics);
            open_leases.push(run.slots);
            op_samples.extend(run.samples);
        }

        // Release: state-holding pipelines pin their nodes until the
        // consumer finishes.
        let release_times: Vec<SimTime> = graph
            .pipelines
            .iter()
            .map(|p| self.release_time(graph, p, &finishes))
            .collect();
        let mut machine_time = SimDuration::ZERO;
        for (p, slots) in graph.pipelines.iter().zip(open_leases.iter_mut()) {
            let release = release_times[p.id.index()];
            let mut pm_machine = SimDuration::ZERO;
            for s in slots.iter_mut() {
                let end = s.lease_end.unwrap_or(release).max(s.lease_start);
                s.lease_end = Some(end);
                pm_machine += end.since(s.lease_start);
            }
            machine_time += pm_machine;
            let m = &mut all_metrics[p.id.index()];
            m.released = release;
            m.machine_time = pm_machine;
        }

        let result_pipeline = graph.result_pipeline().id.index();
        let latency = finishes[result_pipeline].since(SimTime::ZERO);
        let cost: Dollars = self.config.rate.bill(machine_time);

        let result = if result_batches.is_empty() {
            RecordBatch::empty(slots_schema(
                &plan.nodes[plan.root].out_slots,
                &plan.slot_types,
            ))
        } else {
            RecordBatch::concat(&result_batches)?
        };
        let result_rows = result.rows() as u64;

        // Dollar attribution: prorate the (lease-based) bill over measured
        // node busy time. `node_stats` was accumulated by the driver in
        // canonical morsel order, so the shares — and their bit-exact fold
        // back to `cost` — are identical across execution modes.
        let node_busy_secs: Vec<f64> = node_stats.iter().map(|s| s.busy_secs).collect();
        let node_dollars = attribute_node_dollars(cost, &node_busy_secs, plan.root);

        let trace = if tracer.on() {
            // Planned-vs-actual deviation, one instant per plan node on the
            // plan lane (spread 1 µs apart so viewers don't stack them).
            for (i, node) in plan.nodes.iter().enumerate() {
                let name = format!("{} #{i}", node.op.name());
                tracer.push(
                    TraceEvent::instant(name, "plan", Lane::Plan, i as u64)
                        .arg("est_rows", node.est_rows)
                        .arg("actual_rows", node_actual[i])
                        .arg("busy_secs", node_busy_secs[i])
                        .arg("dollars", node_dollars[i].amount()),
                );
            }
            tracer.count("result_rows", result_rows);
            tracer.count("resize_events", resize_events as u64);
            // Wall-clock worker lanes recorded by the pool, in worker order.
            if let Some(bufs) = &worker_bufs {
                tracer.events.extend(bufs.drain());
            }
            let profile = ProfileReport {
                query: format!(
                    "{} ({} nodes, {} pipelines)",
                    plan.nodes[plan.root].op.name(),
                    plan.nodes.len(),
                    graph.len()
                ),
                latency_secs: latency.as_secs_f64(),
                machine_secs: machine_time.as_secs_f64(),
                cost,
                result_rows,
                nodes: plan
                    .nodes
                    .iter()
                    .enumerate()
                    .map(|(i, n)| NodeProfile {
                        index: i,
                        label: n.op.name().to_owned(),
                        est_rows: n.est_rows,
                        actual_rows: node_actual[i],
                        busy_secs: node_stats[i].busy_secs,
                        dollars: node_dollars[i],
                        fetch_bytes: node_stats[i].fetch_bytes,
                        decoded_bytes: node_stats[i].decoded_bytes,
                        wire_bytes: node_stats[i].wire_bytes,
                        retries: node_stats[i].retries,
                        recovery_us: node_stats[i].recovery_us,
                    })
                    .collect(),
            };
            let trace = Trace {
                level: tracer.level,
                events: std::mem::take(&mut tracer.events),
                registry: std::mem::take(&mut tracer.registry),
                profile,
            };
            if let Some(path) = &self.config.trace_path {
                std::fs::write(path, trace.to_chrome_json()).map_err(|e| {
                    CiError::Exec(format!("cannot write trace to {}: {e}", path.display()))
                })?;
            }
            Some(trace)
        } else {
            None
        };

        Ok(QueryOutcome {
            result,
            metrics: QueryMetrics {
                latency,
                machine_time,
                cost,
                pipelines: all_metrics,
                node_actual_rows: node_actual,
                node_busy_secs,
                node_dollars,
                resize_events,
                result_rows,
            },
            op_samples,
            trace,
        })
    }

    /// Materializes the source of a pipeline into morsels.
    fn source_morsels(
        &self,
        plan: &PhysicalPlan,
        p: &Pipeline,
        states: &mut HashMap<usize, Arc<NodeState>>,
        page_src: &Option<Arc<dyn PageSource>>,
    ) -> Result<(Vec<Morsel>, Option<f64>)> {
        let src = p.source();
        match &plan.nodes[src].op {
            PhysicalOp::Scan {
                table_id,
                kept_parts,
                ..
            } => {
                let entry = self.catalog.get_by_id(*table_id)?;
                // Disk-backed sources: make sure the table's CIPF files
                // exist (idempotent per table identity) before morsels
                // reference them.
                if let Some(psrc) = page_src {
                    psrc.ensure_table(&entry.table)?;
                }
                let schema = slots_schema(&plan.nodes[src].out_slots, &plan.slot_types);
                let mut morsels = Vec::new();
                let mut total_rows = 0f64;
                for &pi in kept_parts {
                    let part = &entry.table.partitions[pi];
                    total_rows += part.rows() as f64;
                    let rows = part.rows();
                    if rows == 0 {
                        continue;
                    }
                    // Partition identity rides on every morsel (whatever the
                    // page source) so cache accounting sees one trace.
                    let tier_part = Some(TierPart {
                        table: *table_id,
                        part: pi as u32,
                        bytes: part.encoded_bytes,
                    });
                    let encoded = part.encoded_bytes as f64;
                    let decoded = part.stored_bytes as f64;
                    if let Some(psrc) = page_src {
                        // File-backed morsels carry no resident batch: the
                        // fetch stage reads real page-file bytes.
                        let mut offset = 0;
                        while offset < rows {
                            let len = self.config.morsel_rows.min(rows - offset);
                            let share = len as f64 / rows as f64;
                            morsels.push(Morsel {
                                payload: Payload::File(FileMorsel {
                                    source: psrc.clone(),
                                    table: *table_id,
                                    part: pi as u32,
                                    offset,
                                    len,
                                    schema: schema.clone(),
                                }),
                                fetch_bytes: encoded * share,
                                decode_bytes: decoded * share,
                                tier_part,
                            });
                            offset += len;
                        }
                        continue;
                    }
                    // Re-label the partition's payload under the engine's
                    // slot schema without copying column data (Arc-shared).
                    let batch = part.batch.with_schema(schema.clone())?;
                    if rows <= self.config.morsel_rows {
                        morsels.push(self.scan_morsel(batch, encoded, decoded, tier_part)?);
                    } else {
                        let mut offset = 0;
                        while offset < rows {
                            let len = self.config.morsel_rows.min(rows - offset);
                            let share = len as f64 / rows as f64;
                            morsels.push(self.scan_morsel(
                                batch.slice(offset, len)?,
                                encoded * share,
                                decoded * share,
                                tier_part,
                            )?);
                            offset += len;
                        }
                    }
                }
                // Raw partition rows are *pre-filter* and not comparable to
                // the planner's post-filter estimate; controllers must not
                // treat them as an observed output cardinality.
                let _ = total_rows;
                Ok((morsels, None))
            }
            PhysicalOp::HashAgg { .. } | PhysicalOp::Sort { .. } => {
                let state = states.remove(&src).ok_or_else(|| {
                    CiError::Exec(format!("breaker output for node {src} not ready"))
                })?;
                let NodeState::Output(batch) = &*state else {
                    return Err(CiError::Exec(format!(
                        "node {src} holds a hash table, expected output"
                    )));
                };
                let rows = batch.rows();
                let mut morsels = Vec::new();
                let mut offset = 0;
                while offset < rows {
                    let len = self.config.morsel_rows.min(rows - offset);
                    morsels.push(Morsel {
                        payload: Payload::Batch(batch.slice(offset, len)?),
                        fetch_bytes: 0.0,
                        decode_bytes: 0.0,
                        tier_part: None,
                    });
                    offset += len;
                }
                Ok((morsels, Some(rows as f64)))
            }
            other => Err(CiError::Exec(format!(
                "pipeline source must be a scan or breaker, got {}",
                other.name()
            ))),
        }
    }

    /// Builds one scan morsel, encoding its payload into storage pages when
    /// [`ExecutionConfig::fetch_roundtrip`] asks the fetch stage to really
    /// decode. Compacted first (pages are dense); dictionary columns pass
    /// through as shared `Arc`s — see [`PageOrCol::Col`].
    fn scan_morsel(
        &self,
        batch: RecordBatch,
        fetch_bytes: f64,
        decode_bytes: f64,
        tier_part: Option<TierPart>,
    ) -> Result<Morsel> {
        let payload = if self.config.fetch_roundtrip {
            let dense = batch.compacted();
            let cols = dense
                .columns()
                .iter()
                .map(|c| {
                    if c.as_dict().is_some() {
                        Ok(PageOrCol::Col(c.clone()))
                    } else {
                        encode_best(c).map(|(_, bytes)| PageOrCol::Page(bytes))
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            Payload::Pages(EncodedMorsel {
                schema: dense.schema().clone(),
                cols,
            })
        } else {
            Payload::Batch(batch)
        };
        Ok(Morsel {
            payload,
            fetch_bytes,
            decode_bytes,
            tier_part,
        })
    }

    /// Compiles the streaming steps of a pipeline (everything after the
    /// source node).
    fn compile_steps(&self, plan: &PhysicalPlan, p: &Pipeline) -> Result<Vec<Step>> {
        let mut steps = Vec::new();
        let mut cur_slots = plan.nodes[p.source()].out_slots.clone();
        for &n_idx in &p.nodes[1..] {
            let node = &plan.nodes[n_idx];
            match &node.op {
                PhysicalOp::Filter { pred } => {
                    steps.push(Step::Filter {
                        pred: pred.clone(),
                        map: ColMap::from_slots(&cur_slots),
                        node: n_idx,
                    });
                }
                PhysicalOp::Project { exprs } => {
                    steps.push(Step::Project {
                        exprs: exprs.clone(),
                        map: ColMap::from_slots(&cur_slots),
                        out_schema: slots_schema(&node.out_slots, &plan.slot_types),
                        node: n_idx,
                    });
                }
                PhysicalOp::ExchangeHash { .. } => {
                    steps.push(Step::Exchange { node: n_idx });
                }
                PhysicalOp::Gather => {
                    steps.push(Step::Gather { node: n_idx });
                }
                PhysicalOp::HashJoin { keys } => {
                    let probe_positions = keys
                        .iter()
                        .map(|&(_, pslot)| {
                            cur_slots.iter().position(|&s| s == pslot).ok_or_else(|| {
                                CiError::Exec(format!("probe key slot {pslot} missing from stream"))
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    steps.push(Step::Probe {
                        join_node: n_idx,
                        probe_positions,
                        out_schema: slots_schema(&node.out_slots, &plan.slot_types),
                    });
                }
                PhysicalOp::Limit { .. } => {
                    steps.push(Step::Limit { node: n_idx });
                }
                other => {
                    return Err(CiError::Exec(format!(
                        "{} cannot appear mid-pipeline",
                        other.name()
                    )))
                }
            }
            cur_slots = node.out_slots.clone();
        }
        Ok(steps)
    }

    /// Runs one pipeline to completion; returns finish time, node slots
    /// (leases), metrics, and measured samples.
    ///
    /// Both modes drive the same accounting loop below; they differ only in
    /// where [`MorselTrace`]s come from (inline vs. the worker pool).
    #[allow(clippy::too_many_arguments)]
    fn run_pipeline(
        &self,
        plan: &PhysicalPlan,
        p: &Pipeline,
        dop: u32,
        start: SimTime,
        morsels: Vec<Morsel>,
        states: &mut HashMap<usize, Arc<NodeState>>,
        node_actual: &mut [u64],
        node_stats: &mut [NodeStats],
        result_batches: &mut Vec<RecordBatch>,
        ctrl: &mut dyn ScalingController,
        pool: Option<&WorkerPool>,
        tracer: &mut Tracer,
        tier_rt: Option<&TierRuntime>,
    ) -> Result<PipelineRun> {
        let w = &self.config.models;
        let steps = self.compile_steps(plan, p)?;
        // Attribution targets: per-morsel sink charges go to the sink's plan
        // node; recovery and morsel overhead go to the pipeline's source.
        let sink_node = match p.sink {
            SinkKind::JoinBuild { join } => join,
            SinkKind::Aggregate { agg } => agg,
            SinkKind::Sort { sort } => sort,
            SinkKind::Result => p.last(),
        };
        let src_is_scan = matches!(plan.nodes[p.source()].op, PhysicalOp::Scan { .. });
        let src_filter = match &plan.nodes[p.source()].op {
            PhysicalOp::Scan { filter, .. } => filter.clone(),
            _ => None,
        };
        let src_map = ColMap::from_slots(&plan.nodes[p.source()].out_slots);

        // Sink state.
        let mut sink = self.make_sink(plan, p, states)?;
        let mut limit_remaining: Option<u64> =
            p.nodes.iter().find_map(|&n| match plan.nodes[n].op {
                PhysicalOp::Limit { n: lim } => Some(lim),
                _ => None,
            });

        // Node slots: leases open at `start`, usable after provisioning +
        // per-node pipeline startup (+ exchange connection fan-out when the
        // pipeline shuffles or gathers data).
        let exchanges = steps
            .iter()
            .any(|s| matches!(s, Step::Exchange { .. } | Step::Gather { .. }));
        let mut startup = SimDuration::from_secs_f64(w.pipeline_startup_secs());
        if exchanges {
            startup += SimDuration::from_secs_f64(w.exchange_startup_secs(dop.max(1)));
        }
        let usable = start + self.config.resize_latency + startup;
        let mut slots: Vec<NodeSlot> = (0..dop.max(1))
            .map(|_| NodeSlot {
                free: usable,
                worked_until: None,
                lease_start: start,
                lease_end: None,
            })
            .collect();
        let mut cur_dop = dop.max(1);
        let mut busy = SimDuration::ZERO;
        let mut resizes = 0u32;
        let mut source_rows = 0u64;
        let mut sink_rows = 0u64;
        let mut sink_rows_physical = 0u64;
        let mut gather_bytes = 0f64;
        // One wire stream per pipeline execution: each shared dictionary
        // ships once, then dict columns ride as bit-packed ids. The paired
        // decoder is the receiver's dictionary cache (wire_roundtrip only).
        // Replayed on the driver in canonical morsel order in both modes —
        // the stream is stateful, so byte counts depend on batch order.
        let mut wire = WireEncoder::new();
        let mut wire_rx = WireDecoder::new();
        let mut exchange_wire_bytes = 0u64;
        let mut exchange_decoded_bytes = 0u64;
        let total_morsels = morsels.len();
        let mut morsels_done = 0usize;
        let measure = matches!(self.config.mode, ExecutionMode::Parallel { .. });
        let mut samples: Vec<OpSample> = Vec::new();
        let mut measured_wall_ns = 0u64;
        // Pool-reuse stats: jobs this pool finished before this pipeline.
        let pool_workers = pool.map_or(0, |p| p.workers() as u32);
        let pool_reuses = pool.map_or(0, WorkerPool::jobs_completed);
        let mut agg_partials = 0u32;
        // Fault schedule: per-morsel draws pure in (seed, pipeline, morsel),
        // so Simulate, Parallel, and every worker count see the *same*
        // schedule. Recovery is billed below in the accounting loop; the
        // data path never observes a fault.
        let injector = self
            .config
            .faults
            .as_ref()
            .filter(|f| !f.profile.is_quiet())
            .map(FaultPlan::injector);
        let fault_profile = injector.as_ref().map(|i| i.profile().clone());
        let pipe_stream = p.id.index() as u64;
        let mut fetch_retries = 0u32;
        let mut hedged_morsels = 0u32;
        let mut faults_injected = 0u32;
        let mut retry_bytes = 0u64;
        let mut recovery = SimDuration::ZERO;
        let mut tier_mem_hits = 0u32;
        let mut tier_ssd_hits = 0u32;
        let mut tier_misses = 0u32;
        let mut tier_promotions = 0u32;
        let mut tier_evictions = 0u32;
        let mut tier_saved_ns = 0u64;

        let morsels = Arc::new(morsels);
        let ctx = Arc::new(ChainCtx {
            steps,
            src_is_scan,
            src_filter,
            src_map,
            states: states.clone(),
            measure,
            panic_trap: None,
        });
        let mut chunk_states: Vec<AggregateState> = Vec::new();

        {
            // Phase 1 (parallel only): pure processing on the worker pool.
            // The simulator processes inline, inside the accounting loop.
            // Mergeable aggregations additionally fold worker-side: each
            // contiguous morsel chunk folds into a chunk-local state, and
            // the driver absorbs the states in chunk order at finalize.
            let mut pre: Option<Vec<Option<Result<MorselTrace>>>> = match (pool, &self.config.mode)
            {
                (None, _) => None,
                (Some(_), _) if morsels.is_empty() => Some(Vec::new()),
                (Some(pool), &ExecutionMode::Parallel { workers }) => {
                    let partial = self.config.partial_agg
                        && limit_remaining.is_none()
                        && !ctx.steps.iter().any(|s| matches!(s, Step::Limit { .. }))
                        && matches!(&sink, Sink::Agg(st) if st.mergeable());
                    if let (true, Sink::Agg(st)) = (partial, &sink) {
                        // Chunk layout depends only on the configured worker
                        // count and morsel count — never on pool scheduling.
                        let chunks = (workers.max(1) * 4).min(morsels.len());
                        let (traces, cs) =
                            pool.run_partial(ctx.clone(), morsels.clone(), st.fresh(), chunks);
                        agg_partials = cs.len() as u32;
                        chunk_states = cs;
                        Some(traces)
                    } else {
                        Some(pool.run_traces(ctx.clone(), morsels.clone()))
                    }
                }
                (Some(pool), _) => Some(pool.run_traces(ctx.clone(), morsels.clone())),
            };

            // Phase 2 (both modes): accounting, in canonical morsel order.
            for (mi, morsel) in morsels.iter().enumerate() {
                if limit_remaining == Some(0) {
                    break;
                }
                // Pick the earliest-free alive node.
                let (ni, _) = slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.lease_end.is_none())
                    .min_by_key(|(_, s)| s.free)
                    .ok_or_else(|| CiError::Exec("no alive nodes".into()))?;
                let assigned_at = slots[ni].free;

                // Tier-cache accounting. The simulation advances *only*
                // here, in the driver's canonical morsel order, so hit/miss/
                // eviction sequences are a pure function of the trace —
                // identical across page sources and execution modes. When the
                // page source is tiered, the physical stores mirror the
                // simulation's admissions/evictions (workers may have
                // prefetched ahead of this loop; promotions then benefit
                // later pipelines, never change bytes served).
                let tier_access: Option<(CacheAccess, Option<f64>)> =
                    match (tier_rt, &morsel.tier_part) {
                        (Some(rt), Some(tp)) if src_is_scan && morsel.fetch_bytes > 0.0 => {
                            let (acc, svc) = {
                                let mut sim = lock_sim(&rt.sim)?;
                                let acc = sim.access(
                                    CacheKey::new(tp.table, tp.part),
                                    tp.bytes,
                                    assigned_at,
                                );
                                let svc = sim.service_secs(acc.level, morsel.fetch_bytes);
                                (acc, svc)
                            };
                            if let Some(store) = &rt.store {
                                for (k, lvl) in &acc.admitted {
                                    match lvl {
                                        TierLevel::Mem => store.promote_mem(k.table, k.part)?,
                                        TierLevel::Ssd => store.promote_ssd(k.table, k.part)?,
                                        TierLevel::Object => {}
                                    }
                                }
                                for (k, lvl) in &acc.evicted {
                                    match lvl {
                                        TierLevel::Mem => store.evict_mem(k.table, k.part),
                                        TierLevel::Ssd => store.evict_ssd(k.table, k.part),
                                        TierLevel::Object => {}
                                    }
                                }
                            }
                            Some((acc, svc))
                        }
                        _ => None,
                    };
                if let Some((acc, _)) = &tier_access {
                    match acc.level {
                        TierLevel::Mem => tier_mem_hits += 1,
                        TierLevel::Ssd => tier_ssd_hits += 1,
                        TierLevel::Object => tier_misses += 1,
                    }
                    tier_promotions += acc.admitted.len() as u32;
                    tier_evictions += acc.evicted.len() as u32;
                }

                // Draw this morsel's faults up front: recovery decisions
                // (reassign a preempted morsel, hedge a straggler) precede
                // the charges they are billed under. Cache hits never fetch
                // from the object store, so they are never fetch-fault
                // targets — only tier misses (or untiered fetches) are.
                let faults = injector.as_ref().map(|inj| {
                    inj.morsel_faults(
                        pipe_stream,
                        mi as u64,
                        src_is_scan
                            && morsel.fetch_bytes > 0.0
                            && tier_access
                                .as_ref()
                                .is_none_or(|(a, _)| a.level == TierLevel::Object),
                    )
                });
                let (hedged, hedge_wins) = match (&faults, &fault_profile) {
                    (Some(f), Some(prof)) => match f.straggler {
                        // First-result-wins: the hedge replaces the
                        // straggling attempt only when it strictly beats it;
                        // on a tie the canonical attempt is kept.
                        Some(s) if s >= prof.hedge_threshold => (true, prof.hedged_factor(s) < s),
                        _ => (false, false),
                    },
                    _ => (false, false),
                };
                let worker_lost = faults.as_ref().is_some_and(|f| f.worker_lost.is_some());

                let mut trace = match &mut pre {
                    None => ctx.process_morsel(morsel, Some(&mut limit_remaining))?,
                    Some(outputs) => {
                        let pooled = match outputs[mi].take() {
                            Some(r) => r,
                            None => {
                                return Err(CiError::Exec(format!(
                                    "morsel {mi} missing from worker pool output"
                                )))
                            }
                        };
                        // Recovery re-execution (parallel mode only — the
                        // simulator is single-threaded, so its recovery is
                        // purely billed): a preempted worker's morsel is
                        // reassigned and re-run on the driver; a winning
                        // hedge's speculative duplicate replaces the
                        // straggling attempt. Processing is pure, so the
                        // replica is bit-identical to the attempt it
                        // replaces — recovery changes the bill, never the
                        // answer. Exception: on the partial-agg path the
                        // morsel's rows were already folded into a worker
                        // chunk state that merges wholesale at finalize, so
                        // a driver re-run would double-count; recovery there
                        // is billed only, like the simulator.
                        let t = if agg_partials == 0 && (worker_lost || (hedged && hedge_wins)) {
                            drop(pooled);
                            ctx.process_morsel(morsel, None)?
                        } else {
                            pooled?
                        };
                        ctx.complete_trace(t, &mut limit_remaining)?
                    }
                };

                source_rows += trace.source_rows;
                measured_wall_ns += trace.wall_ns;
                samples.append(&mut trace.samples);

                let mut secs = 0.0;
                // Fetch time is billed apart from compute: retries and
                // preemption re-runs repeat the *fetch*, not the whole
                // morsel's CPU.
                let mut fetch_secs = 0.0;

                // Source costs: the fetch moves encoded bytes, the decode
                // CPU expands them to the decoded payload. A tier hit is
                // served at the tier's latency/bandwidth instead of the
                // object store's; the difference is the saved fetch time.
                if src_is_scan {
                    let object_fetch = w.scan_fetch_secs(morsel.fetch_bytes, cur_dop);
                    let fetch = match &tier_access {
                        Some((_, Some(svc))) => {
                            tier_saved_ns += ((object_fetch - svc).max(0.0) * 1e9) as u64;
                            *svc
                        }
                        _ => object_fetch,
                    };
                    fetch_secs += fetch;
                    let mut cpu = w.scan_decode_secs(morsel.decode_bytes);
                    if ctx.src_filter.is_some() {
                        cpu += w.filter_secs(trace.source_rows as f64);
                    }
                    secs += cpu;
                    node_actual[p.source()] += trace.src_post_rows;
                    let src = &mut node_stats[p.source()];
                    src.busy_secs += fetch + cpu;
                    src.fetch_bytes += morsel.fetch_bytes as u64;
                    src.decoded_bytes += morsel.decode_bytes as u64;
                }

                // Streaming chain: charge each recorded step.
                for st in &trace.steps {
                    match &ctx.steps[st.step] {
                        Step::Filter { node, .. } | Step::Project { node, .. } => {
                            let cpu = w.filter_secs(st.rows_in as f64);
                            secs += cpu;
                            node_stats[*node].busy_secs += cpu;
                            node_actual[*node] += st.rows_out;
                        }
                        Step::Exchange { node } => {
                            let mut cpu = w.exchange_cpu_secs(st.rows_in as f64);
                            // Shuffling serializes rows onto the wire: the
                            // payload crosses the fabric in the *wire
                            // format* (encoded pages; dict ids + one-time
                            // dictionary), not at decoded width.
                            let mut shipped = st.shipped.clone().ok_or_else(|| {
                                CiError::Exec("exchange trace lost its shipped batch".into())
                            })?;
                            let wire_bytes =
                                self.ship_batch(&mut shipped, &mut wire, &mut wire_rx)?;
                            exchange_wire_bytes += wire_bytes;
                            exchange_decoded_bytes += shipped.byte_size() as u64;
                            cpu += w.exchange_wire_secs(wire_bytes as f64, cur_dop);
                            secs += cpu;
                            node_stats[*node].busy_secs += cpu;
                            node_stats[*node].wire_bytes += wire_bytes;
                            node_actual[*node] += st.rows_out;
                        }
                        Step::Gather { node } => {
                            // Gather is a network materialization point like
                            // exchange: the receiver gets wire-format pages.
                            let mut shipped = st.shipped.clone().ok_or_else(|| {
                                CiError::Exec("gather trace lost its shipped batch".into())
                            })?;
                            let wire_bytes =
                                self.ship_batch(&mut shipped, &mut wire, &mut wire_rx)?;
                            exchange_wire_bytes += wire_bytes;
                            exchange_decoded_bytes += shipped.byte_size() as u64;
                            gather_bytes += wire_bytes as f64;
                            node_stats[*node].wire_bytes += wire_bytes;
                            node_actual[*node] += st.rows_out;
                        }
                        Step::Probe { join_node, .. } => {
                            // Probe plus output materialization cost.
                            let cpu =
                                w.probe_secs(st.rows_in as f64) + w.filter_secs(st.rows_out as f64);
                            secs += cpu;
                            node_stats[*join_node].busy_secs += cpu;
                            node_actual[*join_node] += st.rows_out;
                        }
                        Step::Limit { node } => {
                            node_actual[*node] += st.rows_out;
                        }
                    }
                }

                // Sink. Work models charge *logical* rows (identical to the
                // eager-materialization bill); the logical/physical gap is
                // the copying the selection path deferred all the way here.
                // Sink folding is order-sensitive (IEEE float sums, first-
                // wins dictionaries), so per-worker partials merge *here*,
                // at the pipeline breaker, in morsel order — except on the
                // partial-agg path, where the fold was proven
                // order-insensitive and already happened worker-side; its
                // tail carries the counts this accounting still needs.
                match trace.tail {
                    Tail::AtLimit { .. } => {
                        return Err(CiError::Exec("morsel trace ended before the sink".into()));
                    }
                    Tail::AggPartial {
                        rows,
                        physical_rows,
                    } => {
                        sink_rows += rows;
                        sink_rows_physical += physical_rows;
                        let cpu = w.agg_update_secs(rows as f64);
                        secs += cpu;
                        node_stats[sink_node].busy_secs += cpu;
                    }
                    Tail::Done(batch) => {
                        sink_rows += batch.rows() as u64;
                        sink_rows_physical += batch.physical_rows() as u64;
                        let units = batch.rows() as f64;
                        // A morsel that filtered down to zero rows leaves the
                        // chain early, so its (empty) batch may still carry
                        // an upstream schema; contributing zero rows, it must
                        // not be buffered into schema-sensitive sinks.
                        // Charges below are zero for it either way.
                        match &mut sink {
                            Sink::Build(ht) => {
                                let cpu = w.build_secs(units);
                                secs += cpu;
                                node_stats[sink_node].busy_secs += cpu;
                                if !batch.is_empty() {
                                    // Buffered until finalize (compacts via
                                    // concat).
                                    timed(
                                        measure,
                                        "build",
                                        units,
                                        &mut samples,
                                        &mut measured_wall_ns,
                                        || ht.insert_batch(batch),
                                    )?;
                                }
                            }
                            Sink::Agg(st) => {
                                let cpu = w.agg_update_secs(units);
                                secs += cpu;
                                node_stats[sink_node].busy_secs += cpu;
                                if !batch.is_empty() {
                                    timed(
                                        measure,
                                        "agg",
                                        units,
                                        &mut samples,
                                        &mut measured_wall_ns,
                                        || st.update(&batch),
                                    )?;
                                }
                            }
                            Sink::Sorter(sb) => {
                                let cpu = w.filter_secs(units);
                                secs += cpu;
                                node_stats[sink_node].busy_secs += cpu;
                                if !batch.is_empty() {
                                    // Buffered until finalize (compacts via
                                    // concat).
                                    sb.push(batch);
                                }
                            }
                            Sink::Result => {
                                if !batch.is_empty() {
                                    result_batches.push(batch.compacted());
                                }
                            }
                        }
                    }
                }

                // Fault recovery charges. Everything here is billing: the
                // rows were produced above from the canonical (or replayed —
                // bit-identical) trace, so faults change the bill and the
                // error path, never the answer.
                let mut recovery_secs = 0.0;
                if let (Some(f), Some(prof)) = (&faults, &fault_profile) {
                    if !f.is_clean() {
                        faults_injected += f.count();
                    }
                    // Transient fetch failures: each failed attempt is a
                    // billed fetch plus exponential backoff, and the bytes
                    // move again on the retry.
                    for k in 0..f.fetch_failures {
                        recovery_secs += fetch_secs + prof.backoff(k).as_secs_f64();
                        retry_bytes += morsel.fetch_bytes as u64;
                        fetch_retries += 1;
                    }
                    node_stats[p.source()].retries += u64::from(f.fetch_failures);
                    if f.fetch_permanent {
                        // Retries exhausted on a fetch that will never
                        // succeed. The bill above stands (the retries were
                        // real machine time); the query dies with a typed
                        // error rather than wrong rows or a hang.
                        recovery += SimDuration::from_secs_f64(recovery_secs);
                        return Err(CiError::Fault(format!(
                            "pipeline {} morsel {mi}: object fetch still failing after {} retries",
                            p.id.index(),
                            prof.max_retries
                        )));
                    }
                    // Throttling: the store accepted the request late.
                    recovery_secs += f.throttles as f64 * prof.throttle_penalty.as_secs_f64();
                    // Stragglers: below the hedge threshold the slow attempt
                    // just runs to completion; at or above it a speculative
                    // duplicate is launched once the straggler is detected,
                    // the first result wins, and both attempts bill.
                    if let Some(s) = f.straggler {
                        if hedged {
                            let eff = prof.hedged_factor(s);
                            recovery_secs += secs * (eff - 1.0).max(0.0);
                            recovery_secs += secs * (eff - prof.hedge_detect_frac).max(0.0);
                            hedged_morsels += 1;
                        } else {
                            recovery_secs += secs * (s - 1.0).max(0.0);
                        }
                    }
                    // Worker preemption: the fraction of the morsel done on
                    // the lost worker is wasted, and the replacement re-runs
                    // it from the top — including the fetch.
                    if let Some(frac) = f.worker_lost {
                        recovery_secs += (fetch_secs + secs) * frac + fetch_secs;
                        retry_bytes += morsel.fetch_bytes as u64;
                    }
                    recovery += SimDuration::from_secs_f64(recovery_secs);
                }
                // Recovery time and the fixed per-morsel overhead are charged
                // to the pipeline's source node: faults are morsel-level
                // events, and the morsel originates there.
                node_stats[p.source()].busy_secs += recovery_secs + w.morsel_overhead_secs();
                if recovery_secs > 0.0 {
                    node_stats[p.source()].recovery_us +=
                        SimDuration::from_secs_f64(recovery_secs).as_micros();
                }

                let span = SimDuration::from_secs_f64(
                    fetch_secs + secs + recovery_secs + w.morsel_overhead_secs(),
                );
                slots[ni].free = assigned_at + span;
                slots[ni].worked_until = Some(slots[ni].free);
                busy += span;
                morsels_done += 1;

                // Morsel spans on the pipeline's virtual-time lane. Emission
                // happens here, in canonical accounting order, so the lanes
                // are bit-identical across execution modes.
                if tracer.on() {
                    let lane = Lane::Pipeline(p.id.index() as u32);
                    let t0 = assigned_at.since(SimTime::ZERO).as_micros();
                    let fetch_us = SimDuration::from_secs_f64(fetch_secs).as_micros();
                    let compute_us = SimDuration::from_secs_f64(secs).as_micros();
                    if fetch_us > 0 {
                        let mut ev =
                            TraceEvent::span(format!("fetch m{mi}"), "fetch", lane, t0, fetch_us)
                                .arg("slot", ni as u64)
                                .arg("bytes", morsel.fetch_bytes);
                        if let Some((a, _)) = &tier_access {
                            ev = ev.arg("tier", a.level.code());
                        }
                        tracer.push(ev);
                    }
                    tracer.push(
                        TraceEvent::span(
                            format!("compute m{mi}"),
                            "compute",
                            lane,
                            t0 + fetch_us,
                            compute_us,
                        )
                        .arg("slot", ni as u64)
                        .arg("rows", trace.source_rows),
                    );
                    if recovery_secs > 0.0 {
                        tracer.push(TraceEvent::span(
                            format!("recovery m{mi}"),
                            "recovery",
                            lane,
                            t0 + fetch_us + compute_us,
                            SimDuration::from_secs_f64(recovery_secs).as_micros(),
                        ));
                    }
                    if let Some(f) = &faults {
                        // One instant per injected fault, at morsel start.
                        for (kind, magnitude) in f.events() {
                            let mut ev =
                                TraceEvent::instant(format!("fault:{kind}"), "fault", lane, t0);
                            if let Some(m) = magnitude {
                                ev = ev.arg("magnitude", m);
                            }
                            tracer.push(ev);
                        }
                        if hedged {
                            tracer.push(
                                TraceEvent::instant("hedge", "fault", lane, t0)
                                    .arg("win", u64::from(hedge_wins)),
                            );
                        }
                    }
                    tracer.observe("morsel_span_us", span.as_micros());
                    tracer.observe("morsel_rows", trace.source_rows);
                }

                // Progress callback.
                if (mi + 1) % self.config.check_interval == 0 {
                    let now = slots[ni].free;
                    let decision = ctrl.on_progress(&PipelineProgress {
                        pipeline: p.id,
                        current_dop: cur_dop,
                        morsels_done,
                        morsels_total: total_morsels,
                        source_rows_seen: source_rows,
                        sink_rows_seen: sink_rows,
                        planned_source_rows: plan.nodes[p.source()].est_rows,
                        planned_sink_rows: plan.nodes[p.last()].est_rows,
                        elapsed: now.saturating_since(start),
                        now,
                    });
                    if let ScaleDecision::SetDop(new_dop) = decision {
                        let new_dop = new_dop.max(1);
                        if new_dop != cur_dop {
                            resizes += 1;
                            if tracer.on() {
                                tracer.push(
                                    TraceEvent::instant(
                                        "resize",
                                        "scale",
                                        Lane::Pipeline(p.id.index() as u32),
                                        now.since(SimTime::ZERO).as_micros(),
                                    )
                                    .arg("from", u64::from(cur_dop))
                                    .arg("to", u64::from(new_dop)),
                                );
                            }
                            if new_dop > cur_dop {
                                for _ in cur_dop..new_dop {
                                    slots.push(NodeSlot {
                                        free: now + self.config.resize_latency,
                                        worked_until: None,
                                        lease_start: now,
                                        lease_end: None,
                                    });
                                }
                            } else {
                                // Retire the latest-free alive nodes.
                                let mut alive: Vec<usize> = slots
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, s)| s.lease_end.is_none())
                                    .map(|(i, _)| i)
                                    .collect();
                                alive.sort_by_key(|&i| std::cmp::Reverse(slots[i].free));
                                for &i in alive.iter().take((cur_dop - new_dop) as usize) {
                                    slots[i].lease_end = Some(slots[i].free.max(now));
                                }
                            }
                            cur_dop = new_dop;
                        }
                    }
                }
            }
        }

        // Pipeline work finishes when the last node that actually processed
        // a morsel drains (idle late-arrivals don't extend the finish).
        let mut finish = slots
            .iter()
            .filter_map(|s| s.worked_until)
            .max()
            .unwrap_or(usable)
            .max(usable);

        // Gather is serial at the receiver.
        if gather_bytes > 0.0 {
            let cpu = w.gather_secs(gather_bytes, cur_dop);
            finish += SimDuration::from_secs_f64(cpu);
            if let Some(g) = ctx.steps.iter().find_map(|s| match s {
                Step::Gather { node } => Some(*node),
                _ => None,
            }) {
                node_stats[g].busy_secs += cpu;
            }
        }

        // Finalize the sink.
        match sink {
            Sink::Build(mut ht) => {
                timed(
                    measure,
                    "build",
                    sink_rows as f64,
                    &mut samples,
                    &mut measured_wall_ns,
                    || ht.finalize(),
                )?;
                let SinkKind::JoinBuild { join } = p.sink else {
                    unreachable!("build sink without join");
                };
                states.insert(join, Arc::new(NodeState::Built(ht)));
            }
            Sink::Agg(mut st) => {
                let SinkKind::Aggregate { agg } = p.sink else {
                    unreachable!("agg sink mismatch");
                };
                // Partial-agg path: merge the worker chunk states in chunk
                // order — contiguous in-order chunks reproduce the
                // sequential fold's groups and first-appearance order
                // exactly. Untimed and uncharged: the per-morsel updates
                // were already billed above from the trace tails.
                for cs in chunk_states.drain(..) {
                    st.absorb(cs);
                }
                let out = st.finalize()?;
                let cpu = w.filter_secs(out.rows() as f64);
                finish += SimDuration::from_secs_f64(cpu);
                node_stats[agg].busy_secs += cpu;
                node_actual[agg] += out.rows() as u64;
                states.insert(agg, Arc::new(NodeState::Output(out)));
            }
            Sink::Sorter(sb) => {
                let SinkKind::Sort { sort } = p.sink else {
                    unreachable!("sort sink mismatch");
                };
                let rows = sb.rows() as f64;
                // Sort's real work happens here, not in the buffering
                // pushes; units follow the n·log n model term.
                let sort_units = rows.max(2.0) * rows.max(2.0).log2();
                let out = timed(
                    measure,
                    "sort",
                    sort_units,
                    &mut samples,
                    &mut measured_wall_ns,
                    || sb.finalize(),
                )?;
                let cpu = w.sort_finalize_secs(rows, cur_dop);
                finish += SimDuration::from_secs_f64(cpu);
                node_stats[sort].busy_secs += cpu;
                node_actual[sort] += out.rows() as u64;
                states.insert(sort, Arc::new(NodeState::Output(out)));
            }
            Sink::Result => {}
        }

        // Pipeline extent on the driver lane, plus per-pipeline counters.
        if tracer.on() {
            let t0 = start.since(SimTime::ZERO).as_micros();
            let end = finish.since(SimTime::ZERO).as_micros();
            tracer.push(
                TraceEvent::span(
                    format!("pipeline {}", p.id.index()),
                    "pipeline",
                    Lane::Driver,
                    t0,
                    end.saturating_sub(t0),
                )
                .arg("morsels", morsels_done as u64)
                .arg("dop", u64::from(cur_dop))
                .arg("source_rows", source_rows),
            );
            tracer.count("morsels", morsels_done as u64);
            tracer.count("fetch_retries", u64::from(fetch_retries));
            tracer.count("hedged_morsels", u64::from(hedged_morsels));
            tracer.count("faults_injected", u64::from(faults_injected));
            if tier_rt.is_some() {
                tracer.count("tier_mem_hits", u64::from(tier_mem_hits));
                tracer.count("tier_ssd_hits", u64::from(tier_ssd_hits));
                tracer.count("tier_misses", u64::from(tier_misses));
                tracer.count("tier_promotions", u64::from(tier_promotions));
                tracer.count("tier_evictions", u64::from(tier_evictions));
            }
        }

        let metrics = PipelineMetrics {
            id: p.id,
            dop_initial: dop.max(1),
            dop_final: cur_dop,
            start,
            finish,
            released: finish, // adjusted after consumers are scheduled
            morsels: morsels_done,
            source_rows,
            sink_rows,
            sink_rows_physical,
            exchange_wire_bytes,
            exchange_decoded_bytes,
            busy,
            machine_time: SimDuration::ZERO, // filled at release
            resizes,
            measured_wall_ns,
            pool_workers,
            pool_reuses,
            agg_partials,
            fetch_retries,
            hedged_morsels,
            faults_injected,
            recovery_virtual_ns: recovery.as_micros().saturating_mul(1000),
            retry_bytes,
            tier_mem_hits,
            tier_ssd_hits,
            tier_misses,
            tier_promotions,
            tier_evictions,
            tier_saved_ns,
        };
        Ok(PipelineRun {
            finish,
            slots,
            metrics,
            samples,
        })
    }

    /// Puts one compacted batch on a pipeline's transfer stream and returns
    /// its wire bytes. Size-only accounting by default; with
    /// [`ExecutionConfig::wire_roundtrip`], really serializes through the
    /// stream's encoder and decodes through the paired receiver cache,
    /// replacing the batch with the receiver's view (byte counts are
    /// identical either way — the size-only path is the serializer's exact
    /// size function).
    fn ship_batch(
        &self,
        batch: &mut RecordBatch,
        tx: &mut WireEncoder,
        rx: &mut WireDecoder,
    ) -> Result<u64> {
        if !self.config.wire_roundtrip {
            return tx.batch_wire_bytes(batch);
        }
        let blobs = tx.encode_batch(batch)?;
        let bytes = blobs.iter().map(|b| b.len() as u64).sum();
        let decoded = rx.decode_batch(batch.schema().clone(), &blobs)?;
        // The decoded view carries the *receiver's* dictionary Arcs; alias
        // them to the sent ones so a later transfer point in the same
        // pipeline (Exchange then Gather) recognizes the dictionary as
        // already shipped — exactly like the size-only accounting, which
        // sees the sender's Arc at both points.
        for (sent, got) in batch.columns().iter().zip(decoded.columns()) {
            if let (Some((_, a)), Some((_, b))) = (sent.as_dict(), got.as_dict()) {
                tx.alias_shipped(a, b);
            }
        }
        *batch = decoded;
        Ok(bytes)
    }

    fn make_sink(
        &self,
        plan: &PhysicalPlan,
        p: &Pipeline,
        _states: &mut HashMap<usize, Arc<NodeState>>,
    ) -> Result<Sink> {
        match p.sink {
            SinkKind::JoinBuild { join } => {
                let PhysicalOp::HashJoin { keys } = &plan.nodes[join].op else {
                    return Err(CiError::Exec("JoinBuild sink on non-join node".into()));
                };
                let build_child = plan.nodes[join].children[0];
                let layout = &plan.nodes[build_child].out_slots;
                let positions = keys
                    .iter()
                    .map(|&(bslot, _)| {
                        layout.iter().position(|&s| s == bslot).ok_or_else(|| {
                            CiError::Exec(format!(
                                "build key slot {bslot} missing from build layout"
                            ))
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(Sink::Build(JoinHashTable::new(
                    slots_schema(layout, &plan.slot_types),
                    positions,
                )))
            }
            SinkKind::Aggregate { agg } => {
                let PhysicalOp::HashAgg { groups, aggs, .. } = &plan.nodes[agg].op else {
                    return Err(CiError::Exec("Aggregate sink on non-agg node".into()));
                };
                let feed_slots = plan.nodes[p.last()].out_slots.clone();
                let types = plan.slot_types.clone();
                let ty = move |s: usize| -> Result<ci_storage::value::DataType> {
                    types
                        .get(s)
                        .copied()
                        .ok_or_else(|| CiError::Exec(format!("unknown slot {s}")))
                };
                Ok(Sink::Agg(AggregateState::new(
                    groups.clone(),
                    aggs.clone(),
                    ColMap::from_slots(&feed_slots),
                    &ty,
                    slots_schema(&plan.nodes[agg].out_slots, &plan.slot_types),
                )?))
            }
            SinkKind::Sort { sort } => {
                let PhysicalOp::Sort { keys } = &plan.nodes[sort].op else {
                    return Err(CiError::Exec("Sort sink on non-sort node".into()));
                };
                let child = plan.nodes[sort].children[0];
                let layout = &plan.nodes[child].out_slots;
                let positions = keys
                    .iter()
                    .map(|&(slot, asc)| {
                        layout
                            .iter()
                            .position(|&s| s == slot)
                            .map(|pos| (pos, asc))
                            .ok_or_else(|| {
                                CiError::Exec(format!("sort key slot {slot} missing from layout"))
                            })
                    })
                    .collect::<Result<Vec<_>>>()?;
                // A LIMIT fed by this sort (possibly through Gather/Project,
                // which preserve row order and count) consumes only the
                // top-k rows; push it into the sort sink so finalize never
                // materializes the discarded tail.
                let limit = plan.nodes.iter().find_map(|node| {
                    let PhysicalOp::Limit { n } = &node.op else {
                        return None;
                    };
                    let mut cur = *node.children.first()?;
                    loop {
                        match &plan.nodes[cur].op {
                            PhysicalOp::Sort { .. } if cur == sort => return Some(*n as usize),
                            PhysicalOp::Gather | PhysicalOp::Project { .. } => {
                                cur = *plan.nodes[cur].children.first()?;
                            }
                            _ => return None,
                        }
                    }
                });
                Ok(Sink::Sorter(
                    SortBuffer::new(slots_schema(layout, &plan.slot_types), positions)
                        .with_limit(limit),
                ))
            }
            SinkKind::Result => Ok(Sink::Result),
        }
    }

    /// When a pipeline's nodes can be released: at the finish of whichever
    /// pipeline consumes its sink state (own finish for result pipelines).
    fn release_time(&self, graph: &PipelineGraph, p: &Pipeline, finishes: &[SimTime]) -> SimTime {
        match p.sink {
            SinkKind::Result => finishes[p.id.index()],
            SinkKind::JoinBuild { join } => {
                // The consumer is the pipeline whose chain contains the join.
                graph
                    .pipelines
                    .iter()
                    .find(|q| q.id != p.id && q.nodes.contains(&join))
                    .map(|q| finishes[q.id.index()])
                    .unwrap_or(finishes[p.id.index()])
            }
            SinkKind::Aggregate { agg } => graph
                .pipelines
                .iter()
                .find(|q| q.source() == agg)
                .map(|q| finishes[q.id.index()])
                .unwrap_or(finishes[p.id.index()]),
            SinkKind::Sort { sort } => graph
                .pipelines
                .iter()
                .find(|q| q.source() == sort)
                .map(|q| finishes[q.id.index()])
                .unwrap_or(finishes[p.id.index()]),
        }
    }
}

struct PipelineRun {
    finish: SimTime,
    slots: Vec<NodeSlot>,
    metrics: PipelineMetrics,
    samples: Vec<OpSample>,
}

enum Sink {
    Build(JoinHashTable),
    Agg(AggregateState),
    Sorter(SortBuffer),
    Result,
}

#[cfg(test)]
mod tests {
    use super::ExecutionMode;

    #[test]
    fn mode_parsing() {
        assert_eq!(
            ExecutionMode::parse("simulate"),
            Some(ExecutionMode::Simulate)
        );
        assert_eq!(ExecutionMode::parse("sim"), Some(ExecutionMode::Simulate));
        assert_eq!(ExecutionMode::parse(""), Some(ExecutionMode::Simulate));
        assert_eq!(
            ExecutionMode::parse("parallel"),
            Some(ExecutionMode::Parallel { workers: 4 })
        );
        assert_eq!(
            ExecutionMode::parse("parallel:7"),
            Some(ExecutionMode::Parallel { workers: 7 })
        );
        assert_eq!(
            ExecutionMode::parse("parallel:0"),
            Some(ExecutionMode::Parallel { workers: 1 })
        );
        assert_eq!(ExecutionMode::parse("bogus"), None);
    }
}
