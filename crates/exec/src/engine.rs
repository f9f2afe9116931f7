//! The morsel-driven query executor: one morsel path, one ledger.
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
//! # Traces → ledger → sink
//!
//! One pipeline run is three stages, and both execution modes
//! ([`ExecutionMode`]) go through the same code for all three:
//!
//! * **morsels → traces** — the pure operator chain (scan filter, filters,
//!   projections, probes, transfer-point compaction) recorded into a
//!   `MorselTrace`. It touches no shared mutable state and stops at the
//!   first `LIMIT` step, which needs the driver's remaining-rows state.
//!   `ChainCtx::trace` is the one entry point: it materializes the morsel's
//!   batch (page decode for file-backed morsels) and runs the chain. One
//!   `TraceSource` hands the driver each morsel's trace in canonical morsel
//!   order and resumes it past its `LIMIT` step (`ChainCtx::complete_trace`
//!   — the only code that touches `LIMIT` state). Its *inline* feed
//!   ([`ExecutionMode::Simulate`]) calls `ChainCtx::trace` when the driver
//!   asks for a morsel: one morsel in flight, and nothing past a satisfied
//!   `LIMIT` is ever fetched. Its *pooled* feed ([`ExecutionMode::Parallel`])
//!   maps `ChainCtx::trace` over the morsels on a persistent
//!   `WorkerPool` (`parallel.rs`), whose Condvar-parked threads outlive
//!   individual queries: one task per morsel, the driver folding morsel *i*
//!   while the workers trace the next few, a bounded window ahead of it,
//!   and dropping the stream (a satisfied `LIMIT`, an error) cancels the
//!   rest.
//! * **the ledger** — `Ledger`, always on the driver, in canonical morsel
//!   order: virtual-time list scheduling over the node slots, tier-cache
//!   and fault draws, wire-format byte accounting (the encoder stream is
//!   order-dependent: a dictionary ships once — but only that dedup is
//!   folded here; each shipped batch's column sketches ride on its trace,
//!   taken at the transfer step, where a column keeps the plan it already
//!   has — from its partition, via a whole-partition scan morsel, or from
//!   the previous transfer step when it passed through unchanged — and
//!   only the rest are sketched afresh), recovery billing (never a re-run:
//!   processing is pure), trace events, and the progress callbacks that
//!   resize the node set. It accumulates the pipeline's one
//!   [`PipelineMetrics`] and the per-node [`QueryMetrics::nodes`] in place.
//! * **the sink** — `Sink::feed` per trace, in morsel order (aggregate
//!   folding is IEEE-float order-sensitive; build and sort buffers keep
//!   arrival order), then `Sink::finalize` at the pipeline breaker.
//!
//! Everything that determines results, logical row counts, and billed
//! `Dollars` lives in the ledger and the sink, which is why the parallel
//! path is bit-identical to the simulator *by construction* — the simulator
//! stays the determinism oracle, and the parallel runtime only changes
//! wall-clock. Parallel runs additionally record per-operator-class
//! wall-clock ([`OpSample`]) that `cost::calibration::MeasuredRates`
//! aggregates into hardware rates.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use ci_catalog::Catalog;
use ci_cloud::faults::{FaultInjector, FaultPlan, MorselFaults};
use ci_cloud::pricing::TierPricing;
use ci_cloud::tiercache::{CacheAccess, CacheKey, TierCacheSim, TierLevel};
use ci_cloud::work::{WorkModels, MORSEL_ROWS, RESIZE_LATENCY};
use ci_obs::{
    Lane, MetricsRegistry, NodeProfile, ProfileReport, Trace, TraceEvent, TraceLevel, WorkerBuffers,
};
use ci_plan::expr::{ColMap, PlanExpr};
use ci_plan::physical::{PhysicalOp, PhysicalPlan};
use ci_plan::pipeline::{Pipeline, PipelineGraph, SinkKind};
use ci_storage::pages::{WireEncoder, WireSketch};
use ci_storage::schema::SchemaRef;
use ci_storage::selection::SelectionVector;
use ci_storage::tiers::{PageSourceMode, PageStore};
use ci_storage::RecordBatch;
use ci_types::money::Dollars;
use ci_types::{CiError, Result, SimDuration, SimTime, TableId};

use crate::metrics::{attribute_node_dollars, OpSample, PipelineMetrics, QueryMetrics};
use crate::operators::{
    apply_filter, apply_project, slots_schema, AggregateState, JoinHashTable, SortBuffer,
};
use crate::parallel::{PoolStream, TraceGuard, WorkerPool};
use crate::scaling::{PipelineProgress, PipelineStart, ScaleDecision, ScalingController};

/// How morsels are really processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Single-threaded discrete-event simulation: the determinism oracle.
    Simulate,
    /// Real multi-threaded processing on a persistent `std::thread`
    /// `WorkerPool` of `workers` threads, one task per morsel — the
    /// process-wide pool for that count, shared by every query.
    /// Result rows, logical row counts, and billed
    /// `Dollars` are bit-identical to [`ExecutionMode::Simulate`]; only
    /// wall-clock changes, and [`PipelineMetrics::measured_wall_ns`] /
    /// [`QueryOutcome::op_samples`] are populated.
    Parallel {
        /// Worker-thread count (clamped to at least 1).
        workers: usize,
    },
}

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// Calibrated hardware/network/storage models.
    pub models: WorkModels,
    /// Latency for cluster creation and resizing (warm-pool assumption, §3).
    pub resize_latency: SimDuration,
    /// Maximum rows per morsel when splitting materialized state (positive).
    pub morsel_rows: usize,
    /// Progress-callback period, in morsels (positive).
    pub check_interval: usize,
    /// Morsel-processing driver (default [`ExecutionMode::Simulate`]).
    pub mode: ExecutionMode,
    /// Deterministic fault injection (`None`, the default, is fault-free;
    /// [`FaultPlan::chaos`] is the seeded test plan). Fault draws are pure
    /// in `(seed, pipeline, morsel)`, recovery is billed in the accounting
    /// phase, and the data path never sees a fault — so for a fixed plan
    /// the Dollars bill is bit-identical across runs and modes while result
    /// rows stay bit-identical to the fault-free run. Unrecoverable
    /// schedules surface [`CiError::Fault`] instead of hanging.
    pub faults: Option<FaultPlan>,
    /// Tracing level. `Off` (the default) keeps the observability machinery
    /// dormant; `Spans` records the deterministic virtual-time driver lanes,
    /// the metrics registry, and the per-node profile; `Full` adds
    /// wall-clock worker lanes (park/claim/run). Per-node busy/dollar
    /// attribution on [`QueryMetrics`] is always on — it rides the
    /// accounting pass and costs a few float adds per morsel.
    pub trace: TraceLevel,
    /// Where scans physically read partition bytes from (default `Mem`,
    /// the resident batches). `Disk` reads real on-disk `CIPF` page files
    /// written through the catalog's page store; `Tiered` reads them too,
    /// except for partitions the query's [`TierCacheSim`] holds in memory,
    /// which it serves from their resident rows. Results and `Dollars` are
    /// bit-identical to `Mem` by construction — the equivalence tests pin
    /// it. Purely physical: billing is unaffected by this knob alone.
    pub page_source: PageSourceMode,
    /// Tier price menu engaging the cost-aware cache *accounting*
    /// (default `None`). When set, the
    /// deterministic [`TierCacheSim`] advances in the driver's canonical
    /// accounting loop — independent of `page_source` and execution mode —
    /// so cache hits bill tier latencies instead of object fetches, misses
    /// remain the only fault-injectable fetches, and hit/miss/eviction
    /// sequences are a pure function of the morsel trace. The simulator's
    /// residency is the only record of the cache tiers: with
    /// `page_source: Tiered` its memory tier also decides which partitions
    /// skip their file read, and nothing else holds cached copies.
    pub tiers: Option<TierPricing>,
    /// Shared cache-simulator state for warm-across-queries experiments:
    /// `None` starts each query cold.
    /// Only consulted when [`ExecutionConfig::tiers`] is set.
    pub tier_sim: Option<Arc<Mutex<TierCacheSim>>>,
}

/// A pure literal: the same value in every process, whatever the
/// environment — a config (and therefore a bill) is decided by the code
/// that builds it, field by field.
impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            models: WorkModels::standard(),
            resize_latency: RESIZE_LATENCY,
            morsel_rows: MORSEL_ROWS,
            check_interval: 8,
            mode: ExecutionMode::Simulate,
            faults: None,
            trace: TraceLevel::Off,
            page_source: PageSourceMode::Mem,
            tiers: None,
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
enum NodeState {
    Built(JoinHashTable),
    Output(RecordBatch),
}

/// One unit of schedulable work.
struct Morsel {
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
    /// The partition's wire sketch, when the morsel is its whole resident
    /// partition: the first prior of the chain's transfer steps.
    wire: Option<Arc<WireSketch>>,
}

/// Identity + size of the partition behind a scan morsel.
#[derive(Debug, Clone, Copy)]
struct TierPart {
    table: TableId,
    part: u32,
    bytes: u64,
}

/// A morsel's payload: where `ChainCtx::trace` gets the batch.
enum Payload {
    /// Memory-resident batch (breaker outputs; `Mem` page source).
    Batch(RecordBatch),
    /// Disk-backed: `ChainCtx::trace` reads the partition's `CIPF` file
    /// from the catalog's [`PageStore`], unless the query's memory tier
    /// holds it.
    File(FileMorsel),
}

/// A file-backed morsel: which partition slice to read, and from where.
struct FileMorsel {
    store: Arc<PageStore>,
    /// Under [`PageSourceMode::Tiered`] with tiers priced: this slice of the
    /// catalog's partition (zero-copy), served instead of the file while
    /// the query's simulator holds the partition in memory.
    resident: Option<RecordBatch>,
    table: TableId,
    part: u32,
    offset: usize,
    len: usize,
    /// The pipeline's slot schema the fetched batch is re-labelled under.
    schema: SchemaRef,
}

/// Precompiled streaming step of a pipeline's operator chain.
enum Step {
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
struct StepTrace {
    /// Index into the pipeline's step list.
    step: usize,
    /// Logical rows entering the step.
    rows_in: u64,
    /// Logical rows leaving the step.
    rows_out: u64,
    /// At transfer points (exchange/gather): the compacted batch as it went
    /// to the wire and its column sketches — the stateless half of wire
    /// sizing, taken while the batch was hot — so the driver only folds
    /// them into the order-dependent encoder stream.
    shipped: Option<(RecordBatch, Arc<WireSketch>)>,
}

/// Where a morsel's chain processing ended.
enum Tail {
    /// Chain fully processed; this batch feeds the sink.
    Done(RecordBatch),
    /// The chain reached a `LIMIT` step, which needs the driver's shared
    /// limit state; the driver resumes the chain from `step`.
    AtLimit { step: usize, batch: RecordBatch },
}

/// Pure per-morsel processing record, produced by workers (or inline by the
/// simulator) and consumed by the driver's accounting pass.
struct MorselTrace {
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
struct ChainCtx {
    steps: Vec<Step>,
    src_is_scan: bool,
    src_filter: Option<PlanExpr>,
    src_map: ColMap,
    states: HashMap<usize, Arc<NodeState>>,
    /// Record wall-clock [`OpSample`]s (parallel mode only — the simulator
    /// reports 0 measured time by contract).
    measure: bool,
    /// The query's tier simulator, whose memory residency decides whether a
    /// file morsel's resident rows serve it. Read, never advanced: a pool
    /// worker may look before the ledger's access of its morsel, and the
    /// rows are the same either way.
    tier_sim: Option<Arc<Mutex<TierCacheSim>>>,
}

/// Where measured operator time goes: the sample list and wall-clock total
/// of one morsel trace (chain work) or of one pipeline (driver-side sink
/// work).
struct OpTimer<'a> {
    measure: bool,
    samples: &'a mut Vec<OpSample>,
    wall_ns: &'a mut u64,
}

impl OpTimer<'_> {
    /// Runs `f`, timing it under the given operator class when measuring.
    fn time<T>(
        &mut self,
        op: &'static str,
        units: f64,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        if !self.measure {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        *self.wall_ns += wall_ns;
        self.samples.push(OpSample { op, units, wall_ns });
        out
    }
}

impl ChainCtx {
    /// A timer recording into `samples` / `wall_ns` when this chain measures.
    fn timer<'t>(&self, samples: &'t mut Vec<OpSample>, wall_ns: &'t mut u64) -> OpTimer<'t> {
        OpTimer {
            measure: self.measure,
            samples,
            wall_ns,
        }
    }

    /// Runs one morsel through the operator chain, producing its trace:
    /// materializes the payload batch — an `Arc` clone for resident
    /// batches and memory-tier hits, a real page-file read and decode for
    /// other file-backed ones — then applies the scan filter and the
    /// chain's steps. The read emits no [`OpSample`]: the operator-class
    /// set the calibrator sees is fixed, and billed fetch bytes come from
    /// the morsel's partition statistics, not from this read.
    ///
    /// Pure in every caller: processing stops at the first `LIMIT` step
    /// ([`Tail::AtLimit`]), which needs the driver's remaining-rows state,
    /// and the driver finishes the chain via [`ChainCtx::complete_trace`].
    fn trace(&self, morsel: &Morsel) -> Result<MorselTrace> {
        let mut batch = match &morsel.payload {
            Payload::Batch(batch) => batch.clone(),
            Payload::File(f) => match &f.resident {
                Some(rows) if self.in_memory_tier(f)? => rows.clone(),
                // Real bytes: read + checksum + decode the partition file,
                // then carve out this morsel's row range. Dict columns
                // attach the pinned table-wide dictionary `Arc`s, so
                // downstream wire accounting is identical to the memory
                // path.
                _ => (f.store.read_partition(f.table, f.part as usize)?)
                    .with_schema(f.schema.clone())?
                    .slice(f.offset, f.len)?,
            },
        };
        let (mut samples, mut wall_ns) = (Vec::new(), 0u64);
        let mut timer = self.timer(&mut samples, &mut wall_ns);
        let source_rows = batch.rows() as u64;
        let mut src_post_rows = source_rows;
        if self.src_is_scan {
            if let Some(pred) = &self.src_filter {
                batch = timer.time("filter", source_rows as f64, || {
                    apply_filter(&batch, pred, &self.src_map)
                })?;
            }
            src_post_rows = batch.rows() as u64;
        }
        let mut steps = Vec::new();
        let wire = morsel.wire.clone();
        let tail = self.process_chain(batch, 0, wire, &mut steps, &mut timer)?;
        Ok(MorselTrace {
            source_rows,
            src_post_rows,
            steps,
            tail,
            samples,
            wall_ns,
        })
    }

    /// Whether the query's simulator holds `f`'s partition in memory.
    fn in_memory_tier(&self, f: &FileMorsel) -> Result<bool> {
        let Some(sim) = &self.tier_sim else {
            return Ok(false);
        };
        Ok(lock_sim(sim)?.holds(CacheKey::new(f.table, f.part), TierLevel::Mem))
    }

    /// Resumes a trace that stopped at a `LIMIT` step: cuts the batch
    /// against the driver's real limit state — the only code that touches
    /// it — and runs the remaining chain. A no-op for already-complete
    /// traces.
    fn complete_trace(&self, mut t: MorselTrace, limit: &mut Option<u64>) -> Result<MorselTrace> {
        while let Tail::AtLimit { step, mut batch } = t.tail {
            let rows_in = batch.rows() as u64;
            if let Some(rem) = limit.as_mut() {
                let take = (*rem as usize).min(batch.rows());
                // Pushed into the selection: a prefix range over the
                // logical rows shares every column, so the cut is zero-copy
                // whether or not the stream already carries a deferred
                // filter.
                batch = batch.select(SelectionVector::from_range(0, take, batch.rows())?)?;
                *rem -= take as u64;
            }
            t.steps.push(StepTrace {
                step,
                rows_in,
                rows_out: batch.rows() as u64,
                shipped: None,
            });
            let mut timer = self.timer(&mut t.samples, &mut t.wall_ns);
            t.tail = self.process_chain(batch, step + 1, None, &mut t.steps, &mut timer)?;
        }
        Ok(t)
    }

    /// The streaming operator chain from `first_step` up to the sink or the
    /// next `LIMIT` step, whichever comes first. Pure with respect to engine
    /// state: reads hash tables, writes only the trace. `wire` is the latest
    /// wire sketch on the way — the morsel's, then each transfer step's —
    /// whose plans the next transfer step reuses for the columns it covers.
    fn process_chain(
        &self,
        mut batch: RecordBatch,
        first_step: usize,
        mut wire: Option<Arc<WireSketch>>,
        trace: &mut Vec<StepTrace>,
        timer: &mut OpTimer<'_>,
    ) -> Result<Tail> {
        for si in first_step..self.steps.len() {
            if batch.is_empty() {
                break;
            }
            let rows_in = batch.rows() as u64;
            let mut shipped = None;
            match &self.steps[si] {
                Step::Filter { pred, map, .. } => {
                    batch =
                        timer.time("filter", rows_in as f64, || apply_filter(&batch, pred, map))?;
                }
                Step::Project {
                    exprs,
                    map,
                    out_schema,
                    ..
                } => {
                    batch = timer.time("filter", rows_in as f64, || {
                        apply_project(&batch, exprs, map, out_schema.clone())
                    })?;
                }
                Step::Exchange { .. } | Step::Gather { .. } => {
                    // Transfer points materialize: deferred filters compact
                    // here rather than shipping unselected rows, and the
                    // compacted columns are sketched for the wire — a column
                    // the latest sketch covers keeps its plan. The wire
                    // bytes themselves are charged by the ledger, which
                    // folds the sketch into the pipeline's (stateful,
                    // order-dependent) encoder stream.
                    let sketch;
                    (batch, sketch) = timer.time("exchange", rows_in as f64, || {
                        let batch = batch.compacted();
                        let sketch = match &wire {
                            Some(prior) => WireSketch::reusing(&batch, prior)?,
                            None => WireSketch::of(&batch)?,
                        };
                        Ok((batch, Arc::new(sketch)))
                    })?;
                    wire = Some(sketch.clone());
                    shipped = Some((batch.clone(), sketch));
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
                    batch = timer.time("probe", rows_in as f64, || {
                        ht.probe(&batch, probe_positions, out_schema.clone())
                    })?;
                }
                Step::Limit { .. } => return Ok(Tail::AtLimit { step: si, batch }),
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

/// Where a pipeline's traces physically come from.
enum TraceFeed {
    /// Processed on the driver when asked for (Simulate): one morsel in
    /// flight, and a morsel past a satisfied `LIMIT` is never touched.
    Inline,
    /// Streamed from the [`WorkerPool`] (Parallel), which runs
    /// `ChainCtx::trace` once per morsel, a bounded window ahead of the
    /// driver. A trace nobody takes — a morsel past a satisfied `LIMIT` —
    /// is cancelled or discarded with the stream, its error included,
    /// unobserved.
    Pooled(PoolStream<MorselTrace>),
}

/// The one source of a pipeline's traces: hands the ledger each morsel's
/// *complete* trace in canonical morsel order, whichever [`TraceFeed`]
/// produced it, and owns the pipeline's `LIMIT` state.
struct TraceSource {
    ctx: Arc<ChainCtx>,
    morsels: Arc<Vec<Morsel>>,
    feed: TraceFeed,
    /// Rows the pipeline's `LIMIT` still admits (`None`: no `LIMIT`).
    limit: Option<u64>,
}

impl TraceSource {
    /// `true` once the pipeline's `LIMIT` is used up: the remaining morsels
    /// contribute nothing and are neither processed nor billed.
    fn satisfied(&self) -> bool {
        self.limit == Some(0)
    }

    /// The complete trace of morsel `mi`. Morsels are asked for in index
    /// order, each once — the order a pooled stream yields them in.
    /// Processing is pure, so a preempted worker's or a hedged straggler's
    /// replacement attempt would produce this very trace: recovery is
    /// billed by the ledger, in both feeds, and never changes the answer.
    fn trace(&mut self, mi: usize) -> Result<MorselTrace> {
        let t = match &mut self.feed {
            TraceFeed::Inline => self.ctx.trace(&self.morsels[mi])?,
            TraceFeed::Pooled(stream) => stream.next()?,
        };
        self.ctx.complete_trace(t, &mut self.limit)
    }
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

/// The process-wide pool for `workers` threads, created on first use and
/// reused by every later query with the same worker count. Its threads are
/// never joined — they idle parked on a condition variable between queries.
fn shared_pool(workers: usize) -> Result<Arc<WorkerPool<MorselTrace>>> {
    type Pools = HashMap<usize, Arc<WorkerPool<MorselTrace>>>;
    static POOLS: OnceLock<Mutex<Pools>> = OnceLock::new();
    let workers = workers.max(1);
    // A poisoned registry is still a consistent map (a failing
    // `WorkerPool::new` inserts nothing), so recover it.
    let mut pools =
        (POOLS.get_or_init(Default::default).lock()).unwrap_or_else(PoisonError::into_inner);
    if let Some(pool) = pools.get(&workers) {
        return Ok(pool.clone());
    }
    let pool = Arc::new(WorkerPool::new(workers)?);
    pools.insert(workers, pool.clone());
    Ok(pool)
}

/// The query-wide state every pipeline run reads and writes.
struct QueryRun<'q> {
    plan: &'q PhysicalPlan,
    /// Materialized breaker outputs and hash tables, by plan-node index.
    states: HashMap<usize, Arc<NodeState>>,
    /// The per-plan-node record, accumulated by the ledger (`dollars` once
    /// the bill is known). Recovery and per-morsel overhead are charged to
    /// the pipeline's *source* node, where the morsel originates.
    nodes: Vec<NodeProfile>,
    result_batches: Vec<RecordBatch>,
    /// Measured operator samples, in canonical (pipeline, morsel) order.
    op_samples: Vec<OpSample>,
    /// Recording level; every call site gates event construction on it.
    trace: TraceLevel,
    /// Driver-lane events, in emission (= canonical accounting) order.
    events: Vec<TraceEvent>,
    registry: MetricsRegistry,
    /// The worker pool of [`ExecutionMode::Parallel`], resolved once per
    /// query: back-to-back queries (and every pipeline of this one) reuse
    /// the same parked threads.
    pool: Option<Arc<WorkerPool<MorselTrace>>>,
    /// Wall-clock worker lanes (`Full` only): per-worker buffers attached
    /// to the pool for the duration of this query. The guard detaches on
    /// every exit path, including errors. A shared pool serving another
    /// query concurrently would interleave its spans into these lanes —
    /// acceptable for a profiling artifact, and exactly what a wall-clock
    /// timeline of the shared threads means.
    worker_lanes: Option<(Arc<WorkerBuffers>, TraceGuard<MorselTrace>)>,
    /// Physical page source: where scan fetches read partition bytes from.
    /// Disk/Tiered wire up the catalog's page store;
    /// `source_morsels` writes each scanned table through on first touch.
    page_store: Option<Arc<PageStore>>,
    /// Scan morsels carry their resident rows for memory-tier hits
    /// ([`PageSourceMode::Tiered`] with tiers priced).
    tiered: bool,
    /// Cache accounting: the deterministic tier simulator, advanced only
    /// from the ledger. Engaged by pricing, not by page source, so the bill
    /// is source-invariant. Under [`PageSourceMode::Tiered`] its memory
    /// residency also picks which scan morsels skip their file read.
    tier_sim: Option<Arc<Mutex<TierCacheSim>>>,
}

impl<'q> QueryRun<'q> {
    fn open(exec: &Executor<'_>, plan: &'q PhysicalPlan) -> Result<QueryRun<'q>> {
        let config = &exec.config;
        let pool = match config.mode {
            ExecutionMode::Simulate => None,
            ExecutionMode::Parallel { workers } => Some(shared_pool(workers)?),
        };
        let worker_lanes = pool.as_ref().filter(|_| config.trace.wall()).map(|p| {
            let bufs = Arc::new(WorkerBuffers::new(p.workers()));
            let guard = p.attach_trace(bufs.clone());
            (bufs, guard)
        });
        let page_store = match config.page_source {
            PageSourceMode::Mem => None,
            PageSourceMode::Disk | PageSourceMode::Tiered => Some(exec.catalog.page_store()?),
        };
        let tier_sim = match &config.tiers {
            None => None,
            Some(pricing) => {
                let sim = config
                    .tier_sim
                    .clone()
                    .unwrap_or_else(|| Arc::new(Mutex::new(TierCacheSim::new(pricing.clone()))));
                // A poisoned simulator is refused before the first pipeline.
                drop(lock_sim(&sim)?);
                Some(sim)
            }
        };
        Ok(QueryRun {
            plan,
            states: HashMap::new(),
            nodes: (plan.nodes.iter().enumerate())
                .map(|(index, n)| NodeProfile {
                    index,
                    label: n.op.name(),
                    est_rows: n.est_rows,
                    ..NodeProfile::default()
                })
                .collect(),
            result_batches: Vec::new(),
            op_samples: Vec::new(),
            trace: config.trace,
            events: Vec::new(),
            registry: MetricsRegistry::new(),
            pool,
            worker_lanes,
            page_store,
            tiered: config.page_source == PageSourceMode::Tiered && tier_sim.is_some(),
            tier_sim,
        })
    }

    /// Closes the recording: planned-vs-actual instants, the counters (read
    /// once off the finished metrics), the worker lanes, and the per-node
    /// profile. `None` when tracing is off.
    fn into_trace(mut self, graph: &PipelineGraph, metrics: &QueryMetrics) -> Option<Trace> {
        if !self.trace.enabled() {
            return None;
        }
        let plan = self.plan;
        // Planned-vs-actual deviation, one instant per plan node on the
        // plan lane (spread 1 µs apart so viewers don't stack them).
        for n in &metrics.nodes {
            let name = format!("{} #{}", n.label, n.index);
            self.events.push(
                TraceEvent::instant(name, "plan", Lane::Plan, n.index as u64)
                    .arg("est_rows", n.est_rows)
                    .arg("actual_rows", n.actual_rows)
                    .arg("busy_secs", n.busy_secs)
                    .arg("dollars", n.dollars.amount()),
            );
        }
        // Counters are read off the finished metrics, once; the tier
        // counters exist only when tiers are priced.
        let sum = |f: fn(&PipelineMetrics) -> u64| metrics.pipelines.iter().map(f).sum::<u64>();
        for (name, v) in [
            ("morsels", sum(|m| m.morsels as u64)),
            ("fetch_retries", sum(|m| m.fetch_retries.into())),
            ("hedged_morsels", sum(|m| m.hedged_morsels.into())),
            ("faults_injected", sum(|m| m.faults_injected.into())),
            ("result_rows", metrics.result_rows),
            ("resize_events", metrics.resize_events.into()),
            ("tier_mem_hits", sum(|m| m.tier_mem_hits.into())),
            ("tier_ssd_hits", sum(|m| m.tier_ssd_hits.into())),
            ("tier_misses", sum(|m| m.tier_misses.into())),
            ("tier_promotions", sum(|m| m.tier_promotions.into())),
            ("tier_evictions", sum(|m| m.tier_evictions.into())),
        ] {
            if self.tier_sim.is_some() || !name.starts_with("tier_") {
                self.registry.count(name, v);
            }
        }
        // Wall-clock worker lanes recorded by the pool, in worker order.
        if let Some((bufs, _)) = &self.worker_lanes {
            self.events.extend(bufs.drain());
        }
        let profile = ProfileReport {
            query: format!(
                "{} ({} nodes, {} pipelines)",
                plan.nodes[plan.root].op.name(),
                plan.nodes.len(),
                graph.len()
            ),
            latency_secs: metrics.latency.as_secs_f64(),
            machine_secs: metrics.machine_time.as_secs_f64(),
            cost: metrics.cost,
            result_rows: metrics.result_rows,
            nodes: metrics.nodes.clone(),
        };
        Some(Trace {
            level: self.trace,
            events: self.events,
            registry: self.registry,
            profile,
        })
    }
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
        // A zero morsel size would cut empty morsels forever, a zero check
        // interval divide by zero.
        let (morsel_rows, check_interval) = (self.config.morsel_rows, self.config.check_interval);
        if morsel_rows == 0 || check_interval == 0 {
            return Err(CiError::Config(format!(
                "morsel_rows ({morsel_rows}) and check_interval ({check_interval}) must be positive"
            )));
        }
        let mut q = QueryRun::open(self, plan)?;
        let mut finishes = vec![SimTime::ZERO; graph.len()];
        let mut all_metrics: Vec<PipelineMetrics> = Vec::new();
        let mut open_leases: Vec<Vec<NodeSlot>> = Vec::new();

        for p in &graph.pipelines {
            let ready = p
                .deps
                .iter()
                .map(|d| finishes[d.index()])
                .max()
                .unwrap_or(SimTime::ZERO);

            let (morsels, actual_source_rows) = self.source_morsels(&mut q, p)?;
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

            let (slots, metrics) = self.run_pipeline(&mut q, p, dop, ready, morsels, ctrl)?;
            finishes[p.id.index()] = metrics.finish;
            all_metrics.push(metrics);
            open_leases.push(slots);
        }

        // Release: state-holding pipelines pin their nodes until the
        // consumer finishes.
        let mut machine_time = SimDuration::ZERO;
        for (p, slots) in graph.pipelines.iter().zip(open_leases.iter_mut()) {
            let release = finishes[graph.consumer_of(p).unwrap_or(p).id.index()];
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
        let cost: Dollars = self.config.models.hw.node.rate.bill(machine_time);

        let result = if q.result_batches.is_empty() {
            RecordBatch::empty(slots_schema(
                &plan.nodes[plan.root].out_slots,
                &plan.slot_types,
            ))
        } else {
            RecordBatch::concat(&q.result_batches)?
        };

        // Dollar attribution: prorate the (lease-based) bill over measured
        // node busy time. Busy time was accumulated by the ledger in
        // canonical morsel order, so the shares — and their bit-exact fold
        // back to `cost` — are identical across execution modes.
        let busy: Vec<f64> = q.nodes.iter().map(|n| n.busy_secs).collect();
        let dollars = attribute_node_dollars(cost, &busy, plan.root);
        for (n, d) in q.nodes.iter_mut().zip(dollars) {
            n.dollars = d;
        }
        let metrics = QueryMetrics {
            latency,
            machine_time,
            cost,
            resize_events: all_metrics.iter().map(|m| m.resizes).sum(),
            pipelines: all_metrics,
            nodes: std::mem::take(&mut q.nodes),
            result_rows: result.rows() as u64,
        };
        let op_samples = std::mem::take(&mut q.op_samples);
        let trace = q.into_trace(graph, &metrics);
        Ok(QueryOutcome {
            result,
            metrics,
            op_samples,
            trace,
        })
    }

    /// Materializes the source of a pipeline into morsels.
    fn source_morsels(
        &self,
        q: &mut QueryRun<'_>,
        p: &Pipeline,
    ) -> Result<(Vec<Morsel>, Option<f64>)> {
        let plan = q.plan;
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
                if let Some(store) = &q.page_store {
                    store.ensure_table(&entry.table)?;
                }
                let schema = slots_schema(&plan.nodes[src].out_slots, &plan.slot_types);
                let mut morsels = Vec::new();
                for &pi in kept_parts {
                    let part = &entry.table.partitions[pi];
                    let rows = part.rows();
                    // Re-label the partition's payload under the engine's
                    // slot schema without copying column data (Arc-shared).
                    let batch = part.batch.with_schema(schema.clone())?;
                    let mut offset = 0;
                    while offset < rows {
                        let len = self.config.morsel_rows.min(rows - offset);
                        let share = len as f64 / rows as f64;
                        let (payload, wire) = match &q.page_store {
                            // File-backed morsels: `ChainCtx::trace` reads
                            // real page-file bytes, or under `Tiered` the
                            // resident rows of a memory-tier hit.
                            Some(store) => (
                                Payload::File(FileMorsel {
                                    store: store.clone(),
                                    resident: q
                                        .tiered
                                        .then(|| batch.slice(offset, len))
                                        .transpose()?,
                                    table: *table_id,
                                    part: pi as u32,
                                    offset,
                                    len,
                                    schema: schema.clone(),
                                }),
                                None,
                            ),
                            // A resident morsel spanning its whole partition
                            // is the partition's own columns, so their wire
                            // plans travel along.
                            None => (
                                Payload::Batch(batch.slice(offset, len)?),
                                (len == rows).then(|| part.wire.clone()),
                            ),
                        };
                        morsels.push(Morsel {
                            payload,
                            fetch_bytes: part.encoded_bytes as f64 * share,
                            decode_bytes: part.stored_bytes as f64 * share,
                            // Partition identity rides on every morsel
                            // (whatever the page source) so cache accounting
                            // sees one trace.
                            tier_part: Some(TierPart {
                                table: *table_id,
                                part: pi as u32,
                                bytes: part.encoded_bytes,
                            }),
                            wire,
                        });
                        offset += len;
                    }
                }
                // Raw partition rows are *pre-filter* and not comparable to
                // the planner's post-filter estimate, so no observed source
                // cardinality is reported: controllers must not treat them
                // as one.
                Ok((morsels, None))
            }
            PhysicalOp::HashAgg { .. } | PhysicalOp::Sort { .. } => {
                let state = q.states.remove(&src).ok_or_else(|| {
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
                        wire: None,
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

    /// Runs one pipeline to completion — *morsels → traces → ledger →
    /// sink* — and returns its node slots (leases) and metrics; the finish
    /// time is `metrics.finish`.
    ///
    /// Both modes drive the one loop below; they differ only in the
    /// [`TraceFeed`] behind the trace source.
    fn run_pipeline(
        &self,
        q: &mut QueryRun<'_>,
        p: &Pipeline,
        dop: u32,
        start: SimTime,
        morsels: Vec<Morsel>,
        ctrl: &mut dyn ScalingController,
    ) -> Result<(Vec<NodeSlot>, PipelineMetrics)> {
        let plan = q.plan;
        let source = &plan.nodes[p.source()];
        let src_filter = match &source.op {
            PhysicalOp::Scan { filter, .. } => filter.clone(),
            _ => None,
        };
        let ctx = Arc::new(ChainCtx {
            steps: self.compile_steps(plan, p)?,
            src_is_scan: matches!(source.op, PhysicalOp::Scan { .. }),
            src_filter,
            src_map: ColMap::from_slots(&source.out_slots),
            states: q.states.clone(),
            measure: matches!(self.config.mode, ExecutionMode::Parallel { .. }),
            tier_sim: q.tier_sim.clone(),
        });
        let mut sink = self.make_sink(plan, p)?;
        let mut ledger = Ledger::open(&self.config, q, p, ctx.clone(), dop, start);

        // Stage 1, morsels → traces: the pool starts on its stream here and
        // stays a window ahead of the loop; inline traces are made on demand
        // inside it.
        let morsels = Arc::new(morsels);
        let feed = match &ledger.q.pool {
            None => TraceFeed::Inline,
            Some(pool) => {
                let (ctx, morsels) = (ctx.clone(), morsels.clone());
                TraceFeed::Pooled(
                    pool.stream(morsels.len(), Arc::new(move |i| ctx.trace(&morsels[i]))),
                )
            }
        };
        let mut traces = TraceSource {
            ctx,
            morsels: morsels.clone(),
            feed,
            limit: p.nodes.iter().find_map(|&n| match plan.nodes[n].op {
                PhysicalOp::Limit { n: lim } => Some(lim),
                _ => None,
            }),
        };

        // Stages 2 and 3, ledger and sink: one loop, canonical morsel order.
        for (mi, morsel) in morsels.iter().enumerate() {
            if traces.satisfied() {
                break;
            }
            let mut bill = ledger.assign(mi, morsel)?;
            ledger.tier_access(&mut bill)?;
            ledger.draw_faults(&mut bill);
            let mut trace = traces.trace(mi)?;
            ledger.charge_source(&mut trace, &mut bill);
            ledger.charge_steps(&trace.steps, &mut bill)?;
            let Tail::Done(batch) = trace.tail else {
                return Err(CiError::Exec("morsel trace ended before the sink".into()));
            };
            ledger.charge_sink(&mut sink, batch, &mut bill)?;
            let now = ledger.settle(trace.source_rows, bill)?;
            if (mi + 1) % self.config.check_interval == 0 {
                ledger.progress(ctrl, now, morsels.len());
            }
        }
        ledger.finish(sink)
    }

    fn make_sink(&self, plan: &PhysicalPlan, p: &Pipeline) -> Result<Sink> {
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
                let table = JoinHashTable::new(slots_schema(layout, &plan.slot_types), positions);
                Ok(Sink::Build { join, table })
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
                let state = AggregateState::new(
                    groups.clone(),
                    aggs.clone(),
                    ColMap::from_slots(&feed_slots),
                    &ty,
                    slots_schema(&plan.nodes[agg].out_slots, &plan.slot_types),
                )?;
                Ok(Sink::Agg {
                    agg,
                    state: Box::new(state),
                })
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
                let buffer = SortBuffer::new(slots_schema(layout, &plan.slot_types), positions)
                    .with_limit(limit);
                Ok(Sink::Sort { sort, buffer })
            }
            SinkKind::Result => Ok(Sink::Result { node: p.last() }),
        }
    }
}

/// One morsel's entry while the [`Ledger`] works through it: where and when
/// it runs, what the cache and the fault schedule did to it, and the
/// virtual seconds charged so far.
struct MorselBill<'m> {
    mi: usize,
    morsel: &'m Morsel,
    /// The node slot the morsel was assigned to, free at `assigned_at`.
    slot: usize,
    assigned_at: SimTime,
    /// The tier-cache access and, on a hit, its service seconds.
    tier: Option<(CacheAccess, Option<f64>)>,
    faults: Option<MorselFaults>,
    /// `Some` when a straggling attempt crossed the hedge threshold; `true`
    /// when the hedge wins. First-result-wins: the hedge replaces the
    /// straggling attempt only when it strictly beats it; on a tie the
    /// canonical attempt is kept.
    hedge: Option<bool>,
    /// Fetch time is billed apart from compute: retries and preemption
    /// re-runs repeat the *fetch*, not the whole morsel's CPU.
    fetch_secs: f64,
    secs: f64,
}

/// The accounting stage of one pipeline run: owns the node slots and their
/// virtual clock, the live DOP, the wire stream, and the tier / fault /
/// recovery bookkeeping, and accumulates the pipeline's one
/// [`PipelineMetrics`] in place. Driven by `run_pipeline` in canonical
/// morsel order, one method per concern, so everything billed is a pure
/// function of the trace sequence — never of which mode produced it.
struct Ledger<'a, 'q> {
    config: &'a ExecutionConfig,
    q: &'a mut QueryRun<'q>,
    p: &'a Pipeline,
    ctx: Arc<ChainCtx>,
    /// When the initial nodes can take work: lease start + provisioning +
    /// pipeline startup.
    usable: SimTime,
    slots: Vec<NodeSlot>,
    /// One wire stream per pipeline execution: each shared dictionary ships
    /// once, then dict columns ride as bit-packed ids. The stream is
    /// stateful, so byte counts depend on batch order — hence folded here,
    /// in morsel order, in both modes.
    wire: WireEncoder,
    gather_bytes: f64,
    /// Fault schedule: per-morsel draws pure in (seed, pipeline, morsel),
    /// so Simulate, Parallel, and every worker count see the *same*
    /// schedule. Recovery is billed by [`Ledger::settle`]; the data path
    /// never observes a fault.
    injector: Option<FaultInjector>,
    /// The pipeline's metrics, accumulated in place. `m.dop_final` is the
    /// live DOP until the pipeline ends.
    m: PipelineMetrics,
}

impl<'a, 'q> Ledger<'a, 'q> {
    /// Opens the books: `dop` node leases start at `start` and become
    /// usable after provisioning + per-node pipeline startup (+ exchange
    /// connection fan-out when the pipeline shuffles or gathers data).
    fn open(
        config: &'a ExecutionConfig,
        q: &'a mut QueryRun<'q>,
        p: &'a Pipeline,
        ctx: Arc<ChainCtx>,
        dop: u32,
        start: SimTime,
    ) -> Ledger<'a, 'q> {
        let w = &config.models;
        let exchanges = ctx
            .steps
            .iter()
            .any(|s| matches!(s, Step::Exchange { .. } | Step::Gather { .. }));
        let mut startup = SimDuration::from_secs_f64(w.pipeline_startup_secs());
        if exchanges {
            startup += SimDuration::from_secs_f64(w.exchange_startup_secs(dop));
        }
        let usable = start + config.resize_latency + startup;
        let m = PipelineMetrics {
            id: p.id,
            dop_initial: dop,
            dop_final: dop,
            start,
            // Pool-reuse stats: jobs this pool served before this pipeline.
            pool_workers: q.pool.as_ref().map_or(0, |pool| pool.workers() as u32),
            pool_reuses: q.pool.as_ref().map_or(0, |pool| pool.jobs_completed()),
            // `finish` / `released` are set by `Ledger::finish`,
            // `machine_time` at lease release; every counter starts at zero.
            ..PipelineMetrics::default()
        };
        Ledger {
            config,
            q,
            p,
            ctx,
            usable,
            slots: (0..dop)
                .map(|_| NodeSlot {
                    free: usable,
                    worked_until: None,
                    lease_start: start,
                    lease_end: None,
                })
                .collect(),
            wire: WireEncoder::new(),
            gather_bytes: 0.0,
            injector: config
                .faults
                .as_ref()
                .filter(|f| !f.profile.is_quiet())
                .map(FaultPlan::injector),
            m,
        }
    }

    /// A timer for driver-side sink work, recording into the query's sample
    /// list and this pipeline's measured wall clock.
    fn timer(&mut self) -> OpTimer<'_> {
        self.ctx
            .timer(&mut self.q.op_samples, &mut self.m.measured_wall_ns)
    }

    /// Whether `morsel` really fetches from the object store (breaker
    /// outputs and empty partitions do not).
    fn fetches(&self, morsel: &Morsel) -> bool {
        self.ctx.src_is_scan && morsel.fetch_bytes > 0.0
    }

    /// Assigns morsel `mi` to the earliest-free alive node.
    fn assign<'m>(&self, mi: usize, morsel: &'m Morsel) -> Result<MorselBill<'m>> {
        let (slot, s) = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.lease_end.is_none())
            .min_by_key(|(_, s)| s.free)
            .ok_or_else(|| CiError::Exec("no alive nodes".into()))?;
        Ok(MorselBill {
            mi,
            morsel,
            slot,
            assigned_at: s.free,
            tier: None,
            faults: None,
            hedge: None,
            fetch_secs: 0.0,
            secs: 0.0,
        })
    }

    /// Tier-cache accounting. The simulation advances *only* here, in
    /// canonical morsel order, so hit/miss/eviction sequences are a pure
    /// function of the trace — identical across page sources and execution
    /// modes. Its residency is also the memory tier a tiered scan reads
    /// from (`ChainCtx::trace`).
    fn tier_access(&mut self, bill: &mut MorselBill<'_>) -> Result<()> {
        let (Some(sim), Some(tp), true) = (
            &self.q.tier_sim,
            &bill.morsel.tier_part,
            self.fetches(bill.morsel),
        ) else {
            return Ok(());
        };
        let (acc, svc) = {
            let mut sim = lock_sim(sim)?;
            let acc = sim.access(CacheKey::new(tp.table, tp.part), tp.bytes);
            let svc = sim.service_secs(acc.level, bill.morsel.fetch_bytes);
            (acc, svc)
        };
        match acc.level {
            TierLevel::Mem => self.m.tier_mem_hits += 1,
            TierLevel::Ssd => self.m.tier_ssd_hits += 1,
            TierLevel::Object => self.m.tier_misses += 1,
        }
        self.m.tier_promotions += acc.admitted.len() as u32;
        self.m.tier_evictions += acc.evicted.len() as u32;
        bill.tier = Some((acc, svc));
        Ok(())
    }

    /// Draws the morsel's faults up front: recovery decisions (reassign a
    /// preempted morsel, hedge a straggler) precede the charges they are
    /// billed under. Cache hits never fetch from the object store, so they
    /// are never fetch-fault targets — only tier misses (or untiered
    /// fetches) are.
    fn draw_faults(&self, bill: &mut MorselBill<'_>) {
        let Some(inj) = &self.injector else {
            return;
        };
        let object_fetch = self.fetches(bill.morsel)
            && bill
                .tier
                .as_ref()
                .is_none_or(|(a, _)| a.level == TierLevel::Object);
        let f = inj.morsel_faults(self.p.id.index() as u64, bill.mi as u64, object_fetch);
        let prof = inj.profile();
        bill.hedge = f
            .straggler
            .filter(|&s| s >= prof.hedge_threshold)
            .map(|s| prof.hedged_factor(s) < s);
        bill.faults = Some(f);
    }

    /// Takes the trace's measurements and charges the source: the fetch
    /// moves encoded bytes, the decode CPU expands them to the decoded
    /// payload. A tier hit is served at the tier's latency/bandwidth
    /// instead of the object store's; the difference is the saved fetch
    /// time.
    fn charge_source(&mut self, trace: &mut MorselTrace, bill: &mut MorselBill<'_>) {
        self.m.source_rows += trace.source_rows;
        self.m.measured_wall_ns += trace.wall_ns;
        self.q.op_samples.append(&mut trace.samples);
        if !self.ctx.src_is_scan {
            return;
        }
        let (w, morsel) = (&self.config.models, bill.morsel);
        let object_fetch = w.scan_fetch_secs(morsel.fetch_bytes, self.m.dop_final);
        let fetch = match &bill.tier {
            Some((_, Some(svc))) => {
                self.m.tier_saved_ns += ((object_fetch - svc).max(0.0) * 1e9) as u64;
                *svc
            }
            _ => object_fetch,
        };
        bill.fetch_secs += fetch;
        let mut cpu = w.scan_decode_secs(morsel.decode_bytes);
        if self.ctx.src_filter.is_some() {
            cpu += w.filter_secs(trace.source_rows as f64);
        }
        bill.secs += cpu;
        let src = &mut self.q.nodes[self.p.source()];
        src.actual_rows += trace.src_post_rows;
        src.busy_secs += fetch + cpu;
        src.fetch_bytes += morsel.fetch_bytes as u64;
        src.decoded_bytes += morsel.decode_bytes as u64;
    }

    /// Streaming chain: charges each recorded step.
    fn charge_steps(&mut self, steps: &[StepTrace], bill: &mut MorselBill<'_>) -> Result<()> {
        let w = &self.config.models;
        for st in steps {
            match self.ctx.steps[st.step] {
                Step::Filter { node, .. } | Step::Project { node, .. } => {
                    let cpu = w.filter_secs(st.rows_in as f64);
                    bill.secs += cpu;
                    self.q.nodes[node].busy_secs += cpu;
                    self.q.nodes[node].actual_rows += st.rows_out;
                }
                Step::Exchange { node } => {
                    // Shuffling serializes rows onto the wire: the payload
                    // crosses the fabric in the *wire format* (encoded
                    // pages; dict ids + one-time dictionary), not at
                    // decoded width.
                    let wire_bytes = self.ship(node, st)?;
                    let cpu = w.exchange_cpu_secs(st.rows_in as f64)
                        + w.exchange_wire_secs(wire_bytes as f64, self.m.dop_final);
                    bill.secs += cpu;
                    self.q.nodes[node].busy_secs += cpu;
                }
                Step::Gather { node } => {
                    // Gather is a network materialization point like
                    // exchange: the receiver gets wire-format pages. Its
                    // time is serial at the receiver, charged at `finish`.
                    self.gather_bytes += self.ship(node, st)? as f64;
                }
                Step::Probe { join_node, .. } => {
                    // Probe plus output materialization cost.
                    let cpu = w.probe_secs(st.rows_in as f64) + w.filter_secs(st.rows_out as f64);
                    bill.secs += cpu;
                    self.q.nodes[join_node].busy_secs += cpu;
                    self.q.nodes[join_node].actual_rows += st.rows_out;
                }
                Step::Limit { node } => {
                    self.q.nodes[node].actual_rows += st.rows_out;
                }
            }
        }
        Ok(())
    }

    /// Folds one transfer point's sketched batch into the pipeline's wire
    /// stream, records bytes and rows on `node`, and returns the wire
    /// bytes.
    fn ship(&mut self, node: usize, st: &StepTrace) -> Result<u64> {
        let (shipped, sketch) = st
            .shipped
            .as_ref()
            .ok_or_else(|| CiError::Exec("transfer trace lost its shipped batch".into()))?;
        let wire_bytes = self.wire.sketched_wire_bytes(shipped, sketch)?;
        self.m.exchange_wire_bytes += wire_bytes;
        self.m.exchange_decoded_bytes += shipped.byte_size() as u64;
        self.q.nodes[node].wire_bytes += wire_bytes;
        self.q.nodes[node].actual_rows += st.rows_out;
        Ok(wire_bytes)
    }

    /// Charges and performs the sink feed. Work models charge *logical*
    /// rows (identical to the eager-materialization bill); the
    /// logical/physical gap is the copying the selection path deferred all
    /// the way here. Sink folding is order-sensitive (IEEE float sums,
    /// first-wins dictionaries), which is why traces reach the sink *here*,
    /// at the pipeline breaker, in morsel order.
    fn charge_sink(
        &mut self,
        sink: &mut Sink,
        batch: RecordBatch,
        bill: &mut MorselBill<'_>,
    ) -> Result<()> {
        self.m.sink_rows += batch.rows() as u64;
        self.m.sink_rows_physical += batch.physical_rows() as u64;
        if let Some(cpu) = sink.feed_secs(&self.config.models, batch.rows() as f64) {
            bill.secs += cpu;
            self.q.nodes[sink.node()].busy_secs += cpu;
        }
        // A morsel that filtered down to zero rows leaves the chain early,
        // so its (empty) batch may still carry an upstream schema;
        // contributing zero rows, it must not be buffered into
        // schema-sensitive sinks. Its charge above is zero either way.
        if batch.is_empty() {
            return Ok(());
        }
        sink.feed(batch, self)
    }

    /// Settles the morsel: bills fault recovery, advances its node slot,
    /// and emits its spans. Returns the slot's new free time. Everything
    /// here is billing: the rows were produced from the canonical (or
    /// replayed — bit-identical) trace, so faults change the bill and the
    /// error path, never the answer.
    fn settle(&mut self, source_rows: u64, bill: MorselBill<'_>) -> Result<SimTime> {
        let w = &self.config.models;
        let src = &mut self.q.nodes[self.p.source()];
        let (fetch_secs, secs, fetch_bytes) =
            (bill.fetch_secs, bill.secs, bill.morsel.fetch_bytes as u64);
        let mut recovery_secs = 0.0;
        if let (Some(f), Some(inj)) = (&bill.faults, &self.injector) {
            let prof = inj.profile();
            self.m.faults_injected += f.count();
            // Transient fetch failures: each failed attempt is a billed
            // fetch plus exponential backoff, and the bytes move again on
            // the retry.
            for k in 0..f.fetch_failures {
                recovery_secs += fetch_secs + prof.backoff(k).as_secs_f64();
                self.m.retry_bytes += fetch_bytes;
                self.m.fetch_retries += 1;
            }
            src.retries += u64::from(f.fetch_failures);
            if f.fetch_permanent {
                // Retries exhausted on a fetch that will never succeed: the
                // query dies with a typed error rather than wrong rows or a
                // hang.
                return Err(CiError::Fault(format!(
                    "pipeline {} morsel {}: object fetch still failing after {} retries",
                    self.p.id.index(),
                    bill.mi,
                    prof.max_retries
                )));
            }
            // Throttling: the store accepted the request late.
            recovery_secs += f.throttles as f64 * prof.throttle_penalty.as_secs_f64();
            // Stragglers: below the hedge threshold the slow attempt just
            // runs to completion; at or above it a speculative duplicate is
            // launched once the straggler is detected, the first result
            // wins, and both attempts bill.
            if let Some(s) = f.straggler {
                if bill.hedge.is_some() {
                    let eff = prof.hedged_factor(s);
                    recovery_secs += secs * (eff - 1.0).max(0.0);
                    recovery_secs += secs * (eff - prof.hedge_detect_frac).max(0.0);
                    self.m.hedged_morsels += 1;
                } else {
                    recovery_secs += secs * (s - 1.0).max(0.0);
                }
            }
            // Worker preemption: the fraction of the morsel done on the
            // lost worker is wasted, and the replacement re-runs it from
            // the top — including the fetch.
            if let Some(frac) = f.worker_lost {
                recovery_secs += (fetch_secs + secs) * frac + fetch_secs;
                self.m.retry_bytes += fetch_bytes;
            }
        }
        // Recovery time and the fixed per-morsel overhead are charged to
        // the pipeline's source node: faults are morsel-level events, and
        // the morsel originates there.
        let recovery_us = SimDuration::from_secs_f64(recovery_secs).as_micros();
        self.m.recovery_virtual_ns = self
            .m
            .recovery_virtual_ns
            .saturating_add(recovery_us.saturating_mul(1000));
        src.busy_secs += recovery_secs + w.morsel_overhead_secs();
        if recovery_secs > 0.0 {
            src.recovery_us += recovery_us;
        }

        let span = SimDuration::from_secs_f64(
            fetch_secs + secs + recovery_secs + w.morsel_overhead_secs(),
        );
        let slot = &mut self.slots[bill.slot];
        slot.free = bill.assigned_at + span;
        slot.worked_until = Some(slot.free);
        let now = slot.free;
        self.m.busy += span;
        self.m.morsels += 1;
        if self.q.trace.enabled() {
            self.trace_morsel(&bill, source_rows, recovery_secs, span);
        }
        Ok(now)
    }

    /// Morsel spans on the pipeline's virtual-time lane. Emission happens
    /// from [`Ledger::settle`], in canonical accounting order, so the lanes
    /// are bit-identical across execution modes.
    fn trace_morsel(
        &mut self,
        bill: &MorselBill<'_>,
        source_rows: u64,
        recovery_secs: f64,
        span: SimDuration,
    ) {
        let (q, mi) = (&mut *self.q, bill.mi);
        let lane = Lane::Pipeline(self.p.id.index() as u32);
        let t0 = bill.assigned_at.since(SimTime::ZERO).as_micros();
        let fetch_us = SimDuration::from_secs_f64(bill.fetch_secs).as_micros();
        let compute_us = SimDuration::from_secs_f64(bill.secs).as_micros();
        if fetch_us > 0 {
            let mut ev = TraceEvent::span(format!("fetch m{mi}"), "fetch", lane, t0, fetch_us)
                .arg("slot", bill.slot as u64)
                .arg("bytes", bill.morsel.fetch_bytes);
            if let Some((a, _)) = &bill.tier {
                ev = ev.arg("tier", a.level.code());
            }
            q.events.push(ev);
        }
        q.events.push(
            TraceEvent::span(
                format!("compute m{mi}"),
                "compute",
                lane,
                t0 + fetch_us,
                compute_us,
            )
            .arg("slot", bill.slot as u64)
            .arg("rows", source_rows),
        );
        if recovery_secs > 0.0 {
            q.events.push(TraceEvent::span(
                format!("recovery m{mi}"),
                "recovery",
                lane,
                t0 + fetch_us + compute_us,
                SimDuration::from_secs_f64(recovery_secs).as_micros(),
            ));
        }
        if let Some(f) = &bill.faults {
            // One instant per injected fault, at morsel start.
            for (kind, magnitude) in f.events() {
                let mut ev = TraceEvent::instant(format!("fault:{kind}"), "fault", lane, t0);
                if let Some(m) = magnitude {
                    ev = ev.arg("magnitude", m);
                }
                q.events.push(ev);
            }
            if let Some(win) = bill.hedge {
                q.events.push(
                    TraceEvent::instant("hedge", "fault", lane, t0).arg("win", u64::from(win)),
                );
            }
        }
        q.registry.observe("morsel_span_us", span.as_micros());
        q.registry.observe("morsel_rows", source_rows);
    }

    /// Progress callback: reports to the scaling controller and applies its
    /// resize decision — new nodes lease from `now` and are usable after
    /// the resize latency; a shrink retires the latest-free alive nodes.
    fn progress(&mut self, ctrl: &mut dyn ScalingController, now: SimTime, morsels_total: usize) {
        let cur_dop = self.m.dop_final;
        let decision = ctrl.on_progress(&PipelineProgress {
            pipeline: self.p.id,
            current_dop: cur_dop,
            morsels_done: self.m.morsels,
            morsels_total,
            source_rows_seen: self.m.source_rows,
            sink_rows_seen: self.m.sink_rows,
            planned_source_rows: self.q.plan.nodes[self.p.source()].est_rows,
            planned_sink_rows: self.q.plan.nodes[self.p.last()].est_rows,
            elapsed: now.saturating_since(self.m.start),
            now,
        });
        let ScaleDecision::SetDop(new_dop) = decision else {
            return;
        };
        let new_dop = new_dop.max(1);
        if new_dop == cur_dop {
            return;
        }
        self.m.resizes += 1;
        if self.q.trace.enabled() {
            self.q.events.push(
                TraceEvent::instant(
                    "resize",
                    "scale",
                    Lane::Pipeline(self.p.id.index() as u32),
                    now.since(SimTime::ZERO).as_micros(),
                )
                .arg("from", u64::from(cur_dop))
                .arg("to", u64::from(new_dop)),
            );
        }
        if new_dop > cur_dop {
            for _ in cur_dop..new_dop {
                self.slots.push(NodeSlot {
                    free: now + self.config.resize_latency,
                    worked_until: None,
                    lease_start: now,
                    lease_end: None,
                });
            }
        } else {
            let slots = &mut self.slots;
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
        self.m.dop_final = new_dop;
    }

    /// Closes the books: the finish time, the serial gather, the sink
    /// finalizer, and the pipeline's driver-lane span. Returns
    /// the node slots (their leases still open) and the metrics.
    fn finish(mut self, sink: Sink) -> Result<(Vec<NodeSlot>, PipelineMetrics)> {
        // Pipeline work finishes when the last node that actually processed
        // a morsel drains (idle late-arrivals don't extend the finish).
        let mut finish = self
            .slots
            .iter()
            .filter_map(|s| s.worked_until)
            .max()
            .unwrap_or(self.usable)
            .max(self.usable);

        // Gather is serial at the receiver.
        if self.gather_bytes > 0.0 {
            let w = &self.config.models;
            let cpu = w.gather_secs(self.gather_bytes, self.m.dop_final);
            finish += SimDuration::from_secs_f64(cpu);
            if let Some(g) = self.ctx.steps.iter().find_map(|s| match s {
                Step::Gather { node } => Some(*node),
                _ => None,
            }) {
                self.q.nodes[g].busy_secs += cpu;
            }
        }
        finish += sink.finalize(&mut self)?;
        self.m.finish = finish;
        self.m.released = finish; // adjusted after consumers are scheduled

        // Pipeline extent on the driver lane.
        let m = &self.m;
        if self.q.trace.enabled() {
            let t0 = m.start.since(SimTime::ZERO).as_micros();
            let end = finish.since(SimTime::ZERO).as_micros();
            self.q.events.push(
                TraceEvent::span(
                    format!("pipeline {}", m.id.index()),
                    "pipeline",
                    Lane::Driver,
                    t0,
                    end.saturating_sub(t0),
                )
                .arg("morsels", m.morsels as u64)
                .arg("dop", u64::from(m.dop_final))
                .arg("source_rows", m.source_rows),
            );
        }
        Ok((self.slots, self.m))
    }
}

/// A pipeline's sink, each variant carrying the plan node it materializes
/// for (the result sink: the pipeline's last node).
enum Sink {
    Build {
        join: usize,
        table: JoinHashTable,
    },
    Agg {
        agg: usize,
        state: Box<AggregateState>,
    },
    Sort {
        sort: usize,
        buffer: SortBuffer,
    },
    Result {
        node: usize,
    },
}

impl Sink {
    /// The plan node per-morsel sink charges are attributed to.
    fn node(&self) -> usize {
        match *self {
            Sink::Build { join: node, .. }
            | Sink::Agg { agg: node, .. }
            | Sink::Sort { sort: node, .. }
            | Sink::Result { node } => node,
        }
    }

    /// Virtual CPU seconds of feeding `rows` logical rows (`None`: the
    /// result sink charges nothing).
    fn feed_secs(&self, w: &WorkModels, rows: f64) -> Option<f64> {
        match self {
            Sink::Build { .. } => Some(w.build_secs(rows)),
            Sink::Agg { .. } => Some(w.agg_update_secs(rows)),
            Sink::Sort { .. } => Some(w.filter_secs(rows)),
            Sink::Result { .. } => None,
        }
    }

    /// Feeds one morsel's (non-empty) output. Build and sort sinks keep the
    /// morsel as it is until finalize (the join table as one of its chunks,
    /// the sort buffer with its selection); the aggregate folds now.
    fn feed(&mut self, batch: RecordBatch, ledger: &mut Ledger<'_, '_>) -> Result<()> {
        let units = batch.rows() as f64;
        match self {
            Sink::Build { table, .. } => ledger
                .timer()
                .time("build", units, || table.insert_batch(batch)),
            Sink::Agg { state, .. } => ledger.timer().time("agg", units, || state.update(&batch)),
            Sink::Sort { buffer, .. } => {
                buffer.push(batch);
                Ok(())
            }
            Sink::Result { .. } => {
                ledger.q.result_batches.push(batch.compacted());
                Ok(())
            }
        }
    }

    /// Finalizes the sink at the pipeline breaker — hash-table build,
    /// aggregate output, sort — publishes its state under its plan node,
    /// and returns the virtual time the finalizer adds to the pipeline's
    /// finish.
    fn finalize(self, ledger: &mut Ledger<'_, '_>) -> Result<SimDuration> {
        let w = &ledger.config.models;
        let (node, out, cpu) = match self {
            Sink::Build { join, mut table } => {
                let units = ledger.m.sink_rows as f64;
                ledger.timer().time("build", units, || table.finalize())?;
                let built = Arc::new(NodeState::Built(table));
                ledger.q.states.insert(join, built);
                return Ok(SimDuration::ZERO);
            }
            Sink::Agg { agg, state } => {
                let out = state.finalize()?;
                let cpu = w.filter_secs(out.rows() as f64);
                (agg, out, cpu)
            }
            Sink::Sort { sort, buffer } => {
                let rows = buffer.rows() as f64;
                // Sort's real work happens here, not in the buffering
                // pushes; units follow the n·log n model term.
                let sort_units = rows.max(2.0) * rows.max(2.0).log2();
                let out = ledger
                    .timer()
                    .time("sort", sort_units, || buffer.finalize())?;
                (sort, out, w.sort_finalize_secs(rows, ledger.m.dop_final))
            }
            Sink::Result { .. } => return Ok(SimDuration::ZERO),
        };
        let q = &mut *ledger.q;
        q.nodes[node].busy_secs += cpu;
        q.nodes[node].actual_rows += out.rows() as u64;
        q.states.insert(node, Arc::new(NodeState::Output(out)));
        Ok(SimDuration::from_secs_f64(cpu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ExecutionConfig::default()` is this literal and nothing else. The
    /// exhaustive destructuring makes an eleventh field a compile error
    /// here, so a new field has to state its default in this test.
    #[test]
    fn default_config_is_a_pure_literal() {
        let ExecutionConfig {
            models,
            resize_latency,
            morsel_rows,
            check_interval,
            mode,
            faults,
            trace,
            page_source,
            tiers,
            tier_sim,
        } = ExecutionConfig::default();
        // The one place the node price is stated.
        let two_dollars = ci_types::money::DollarsPerSecond::per_hour(2.0);
        assert_eq!(models.hw.node.rate, two_dollars);
        assert_eq!(resize_latency, SimDuration::from_millis(500));
        assert_eq!((morsel_rows, check_interval), (65_536, 8));
        assert_eq!(mode, ExecutionMode::Simulate);
        assert_eq!(faults, None);
        assert_eq!(trace, TraceLevel::Off);
        assert_eq!(page_source, PageSourceMode::Mem);
        assert!(tiers.is_none() && tier_sim.is_none());
    }

    #[test]
    fn shared_pools_are_keyed_by_worker_count() {
        let a = shared_pool(3).unwrap();
        let b = shared_pool(3).unwrap();
        let c = shared_pool(5).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same count, same pool");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.workers(), 3);
        assert_eq!(c.workers(), 5);
    }
}
