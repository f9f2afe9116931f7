//! Execution metrics: the engine's lightweight profiler.
//!
//! §4 requires "a lightweight profiling tool that can attribute the run-time
//! resource measures to logical database tasks easily". The engine
//! attributes virtual machine time at morsel granularity to pipelines and
//! plan nodes, and surfaces true cardinalities — the inputs to the DOP
//! monitor and the Statistics Service.

use ci_types::money::Dollars;
use ci_types::{PipelineId, SimDuration, SimTime};

/// Per-pipeline execution metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineMetrics {
    /// Which pipeline.
    pub id: PipelineId,
    /// DOP the pipeline started with.
    pub dop_initial: u32,
    /// DOP at completion (differs when the monitor resized mid-pipeline).
    pub dop_final: u32,
    /// Virtual start time (node leases open here).
    pub start: SimTime,
    /// Virtual completion time of the pipeline's work.
    pub finish: SimTime,
    /// Time the pipeline's nodes were released (>= finish: state pinning —
    /// e.g. hash tables held for a later probe).
    pub released: SimTime,
    /// Morsels processed.
    pub morsels: usize,
    /// True rows consumed at the source.
    pub source_rows: u64,
    /// True *logical* rows that reached the sink (what work models and the
    /// DOP monitor consume).
    pub sink_rows: u64,
    /// Physical rows carried into the sink by the batches that delivered
    /// them. Equals `sink_rows` when every batch is dense; the excess is
    /// rows a deferred selection skipped without ever copying — the
    /// late-materialization savings, at morsel granularity.
    pub sink_rows_physical: u64,
    /// Wire-format bytes shipped through this pipeline's exchanges and
    /// gathers (encoded pages; dict columns as bit-packed ids plus a
    /// one-time dictionary).
    pub exchange_wire_bytes: u64,
    /// Decoded bytes of the same exchanged streams; the gap to
    /// `exchange_wire_bytes` is the compression the wire format bought.
    pub exchange_decoded_bytes: u64,
    /// Sum of per-node busy time (work only, excluding idle).
    pub busy: SimDuration,
    /// Machine time billed for this pipeline (leases, incl. idle/pinned).
    pub machine_time: SimDuration,
    /// Mid-pipeline resize operations applied.
    pub resizes: u32,
    /// *Measured* wall-clock nanoseconds spent really processing this
    /// pipeline's morsels (operator kernels only, not scheduling). Always 0
    /// in simulator mode — `busy`/`machine_time` are virtual seconds from
    /// the work models, and monitors use this field to tell estimated time
    /// from observed time. Scheduling-order dependent, so deliberately *not*
    /// part of the determinism contract.
    pub measured_wall_ns: u64,
    /// Worker threads in the pool that processed this pipeline (0 in
    /// simulator mode).
    pub pool_workers: u32,
    /// Jobs the worker pool had already completed when this pipeline
    /// started — evidence of thread reuse across pipelines and queries.
    /// History-dependent (a shared pool serves the whole process), so not
    /// part of the determinism contract.
    pub pool_reuses: u64,
    /// Always 0 since PR 17 — kept only because `bench_e2e` reads it. (It
    /// counted the worker-side aggregation chunk states of a morsel path
    /// that no longer exists.)
    pub agg_partials: u32,
    /// Object-store fetch retries billed for this pipeline (transient
    /// failures, including the billed-but-doomed retries of a permanent
    /// failure). Deterministic for a fixed fault plan, so — unlike
    /// `measured_wall_ns` — part of the cross-mode equality contract.
    pub fetch_retries: u32,
    /// Morsels whose straggling attempt triggered a speculative hedge
    /// (first result wins; the duplicate's work is billed).
    pub hedged_morsels: u32,
    /// Total injected fault events (failures, throttles, stragglers,
    /// preemptions) this pipeline absorbed.
    pub faults_injected: u32,
    /// *Virtual* nanoseconds of recovery work billed to this pipeline:
    /// retry backoff + re-fetches, throttle penalties, straggler excess,
    /// hedge duplicates, and re-run preempted morsels. Sim-time, hence
    /// deterministic and mode-identical.
    pub recovery_virtual_ns: u64,
    /// Object-store bytes fetched *again* because of retries or preemption
    /// re-runs — the re-billed portion of the fetch bill.
    pub retry_bytes: u64,
    /// Scan morsels served from the memory tier of the cache hierarchy
    /// (0 unless [`tiers`] is configured). Cache accounting advances in
    /// canonical morsel order, so — like `fetch_retries` — these counters
    /// are part of the cross-mode equality contract.
    ///
    /// [`tiers`]: crate::engine::ExecutionConfig::tiers
    pub tier_mem_hits: u32,
    /// Scan morsels served from the local-SSD tier.
    pub tier_ssd_hits: u32,
    /// Scan morsels that missed both cache tiers and fetched from the
    /// object store.
    pub tier_misses: u32,
    /// Cache admissions (partition promotions into memory or SSD) the
    /// admission policy performed during this pipeline.
    pub tier_promotions: u32,
    /// Cache evictions the admission policy performed to make room.
    pub tier_evictions: u32,
    /// Virtual nanoseconds of fetch time the cache hierarchy saved versus
    /// fetching every morsel from the object store.
    pub tier_saved_ns: u64,
}

impl PipelineMetrics {
    /// Node utilization: busy time over billed machine time, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let mt = self.machine_time.as_secs_f64();
        if mt <= 0.0 {
            return 1.0;
        }
        (self.busy.as_secs_f64() / mt).min(1.0)
    }

    /// Observed sink flow rate in rows/second of pipeline runtime.
    pub fn flow_rate(&self) -> f64 {
        let span = self.finish.saturating_since(self.start).as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.sink_rows as f64 / span
        }
    }
}

/// One measured operator-kernel invocation: how long a worker really took
/// to push `units` of work (rows, or rows-equivalents) through an operator
/// class. The parallel runtime emits one sample per operator per morsel;
/// `cost::calibration::MeasuredRates` aggregates them (median-of-runs) into
/// hardware rates the estimator can be seeded from.
///
/// Op-class names are shared with the cost crate by convention (the two
/// crates are DAG siblings): `"filter"`, `"probe"`, `"build"`, `"agg"`,
/// `"exchange"`, `"sort"`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSample {
    /// Operator class (`"filter"`, `"probe"`, `"build"`, `"agg"`,
    /// `"exchange"`, `"sort"`).
    pub op: &'static str,
    /// Work units processed (rows for every current class).
    pub units: f64,
    /// Measured wall-clock for this invocation.
    pub wall_ns: u64,
}

/// Whole-query execution metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMetrics {
    /// End-to-end query latency (user-visible).
    pub latency: SimDuration,
    /// Total billed machine time across all leases.
    pub machine_time: SimDuration,
    /// Total user-observable cost (UOC, §1).
    pub cost: Dollars,
    /// Per-pipeline breakdown.
    pub pipelines: Vec<PipelineMetrics>,
    /// True output rows per physical plan node (indexed by node id) —
    /// the run-time cardinalities the monitor and statistics service use.
    pub node_actual_rows: Vec<u64>,
    /// Virtual seconds each physical plan node kept the machine busy
    /// (indexed by node id): fetch + decode + operator work + the recovery
    /// and per-morsel overhead charged to it. Accumulated by the driver in
    /// canonical morsel order, so bit-identical across execution modes.
    pub node_busy_secs: Vec<f64>,
    /// Each node's share of [`QueryMetrics::cost`], prorated over
    /// `node_busy_secs` (see [`attribute_node_dollars`]). The left fold of
    /// this vector equals `cost` bit-exactly.
    pub node_dollars: Vec<Dollars>,
    /// Total resize operations (initial acquisitions excluded).
    pub resize_events: u32,
    /// Rows in the final result.
    pub result_rows: u64,
}

/// Prorates a query's total bill over per-node busy time such that the
/// canonical left fold of the result (`iter().sum::<Dollars>()`, the fold
/// [`Dollars`]'s `Sum` impl performs) reproduces `cost` **bit-exactly** —
/// no lost or double-billed cents, ever.
///
/// Nodes with zero busy time get exactly `Dollars::ZERO`. Every other node
/// gets `cost * (busy / total)`, except the *last* busy node, which absorbs
/// the rounding residual: it is assigned `cost - <fold of the others>` and
/// then nudged by a fixup loop until the full fold lands exactly on `cost`
/// (adding zeros preserves any f64 bit pattern, so only busy nodes matter to
/// the fold). When no node was busy the whole bill lands on `fallback`.
///
/// Deterministic: the same `(cost, busy)` always produces the same shares,
/// and `busy` itself is mode-independent, so attribution is part of the
/// cross-mode equality contract.
pub fn attribute_node_dollars(cost: Dollars, busy: &[f64], fallback: usize) -> Vec<Dollars> {
    let mut out = vec![Dollars::ZERO; busy.len()];
    if out.is_empty() {
        return out;
    }
    let total: f64 = busy.iter().sum();
    let last_busy = busy.iter().rposition(|&b| b > 0.0);
    let Some(last) = last_busy else {
        out[fallback.min(busy.len() - 1)] = cost;
        return out;
    };
    let proratable = total.is_finite() && total > 0.0 && cost.amount().is_finite();
    if !proratable {
        out[last] = cost;
        return out;
    }
    for (i, &b) in busy.iter().enumerate() {
        if b > 0.0 && i != last {
            out[i] = Dollars::new(cost.amount() * (b / total));
        }
    }
    // Assign the residual, then fix up until the canonical fold is exact.
    // Each pass shrinks the fold error toward zero; a handful of iterations
    // always suffices (the residual is within a few ulps after pass one).
    let fold_without_last =
        |out: &[Dollars]| -> Dollars { out[..last].iter().copied().sum::<Dollars>() };
    out[last] = cost - fold_without_last(&out);
    for _ in 0..8 {
        let fold: Dollars = out.iter().copied().sum();
        if fold == cost {
            return out;
        }
        out[last] += cost - fold;
    }
    // Unreachable in practice; guarantee exactness regardless.
    for d in out.iter_mut() {
        *d = Dollars::ZERO;
    }
    out[last] = cost;
    out
}

impl QueryMetrics {
    /// Aggregate utilization across pipelines.
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.pipelines.iter().map(|p| p.busy.as_secs_f64()).sum();
        let mt = self.machine_time.as_secs_f64();
        if mt <= 0.0 {
            1.0
        } else {
            (busy / mt).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm() -> PipelineMetrics {
        PipelineMetrics {
            id: PipelineId::new(0),
            dop_initial: 4,
            dop_final: 4,
            start: SimTime::from_secs_f64(1.0),
            finish: SimTime::from_secs_f64(3.0),
            released: SimTime::from_secs_f64(5.0),
            morsels: 10,
            source_rows: 1000,
            sink_rows: 500,
            sink_rows_physical: 800,
            exchange_wire_bytes: 0,
            exchange_decoded_bytes: 0,
            busy: SimDuration::from_secs(6),
            machine_time: SimDuration::from_secs(16),
            resizes: 0,
            measured_wall_ns: 0,
            pool_workers: 0,
            pool_reuses: 0,
            agg_partials: 0,
            fetch_retries: 0,
            hedged_morsels: 0,
            faults_injected: 0,
            recovery_virtual_ns: 0,
            retry_bytes: 0,
            tier_mem_hits: 0,
            tier_ssd_hits: 0,
            tier_misses: 0,
            tier_promotions: 0,
            tier_evictions: 0,
            tier_saved_ns: 0,
        }
    }

    #[test]
    fn utilization_is_busy_over_billed() {
        assert!((pm().utilization() - 6.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn flow_rate_uses_runtime_span() {
        assert!((pm().flow_rate() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn query_utilization_aggregates() {
        let q = QueryMetrics {
            latency: SimDuration::from_secs(4),
            machine_time: SimDuration::from_secs(32),
            cost: Dollars::new(0.1),
            pipelines: vec![pm(), pm()],
            node_actual_rows: vec![],
            node_busy_secs: vec![],
            node_dollars: vec![],
            resize_events: 0,
            result_rows: 1,
        };
        assert!((q.utilization() - 12.0 / 32.0).abs() < 1e-12);
    }

    /// The canonical left fold of the attributed shares must reproduce the
    /// total bit-exactly for arbitrary busy vectors — including awkward
    /// ones (tiny shares, huge spreads, single-node, zero-padded).
    #[test]
    fn dollar_attribution_folds_bit_exactly() {
        let cases: Vec<(f64, Vec<f64>)> = vec![
            (1.0, vec![1.0, 1.0, 1.0]),
            (0.1, vec![0.3, 0.0, 0.7]),
            (123.456789, vec![1e-9, 1.0, 1e9, 0.0]),
            (0.000123, vec![0.0, 0.0, 5.0]),
            (7.25, vec![1.0 / 3.0, 1.0 / 7.0, 1.0 / 11.0, 1.0 / 13.0]),
            (1e-18, vec![2.0, 3.0]),
            (9.99, vec![0.125]),
            // A pseudo-random pile of shares (fixed recurrence, no RNG).
            (3.17159, {
                let mut x = 0.5f64;
                (0..32)
                    .map(|_| {
                        x = (x * 1103515245.0 + 12345.0) % 97.0;
                        x.abs() + 0.001
                    })
                    .collect()
            }),
        ];
        for (cost, busy) in cases {
            let cost = Dollars::new(cost);
            let out = attribute_node_dollars(cost, &busy, 0);
            assert_eq!(out.len(), busy.len());
            let fold: Dollars = out.iter().copied().sum();
            assert_eq!(fold, cost, "busy={busy:?}");
            for (i, &b) in busy.iter().enumerate() {
                if b == 0.0 {
                    assert_eq!(out[i], Dollars::ZERO, "idle node {i} billed");
                }
            }
        }
    }

    #[test]
    fn dollar_attribution_idle_query_bills_fallback() {
        let out = attribute_node_dollars(Dollars::new(0.5), &[0.0, 0.0, 0.0], 1);
        assert_eq!(out, vec![Dollars::ZERO, Dollars::new(0.5), Dollars::ZERO]);
        assert!(attribute_node_dollars(Dollars::new(1.0), &[], 0).is_empty());
    }
}
