//! Observability layer: structured spans on a dual clock, a compiled-in
//! metrics registry, and exporters for the two artifacts the paper's §4
//! profiling story needs — a Chrome trace-format JSON timeline
//! (Perfetto-loadable) and a plain-text `EXPLAIN ANALYZE`-style profile
//! report with per-plan-node dollar attribution.
//!
//! # The dual clock
//!
//! Every span carries timestamps on exactly one of two clocks, and the two
//! never mix in one lane:
//!
//! * **Virtual time** — the deterministic simulated clock (integer
//!   microseconds, the same currency as `SimTime`). Driver-side spans (morsel
//!   fetch/compute/recovery, pipeline extents, fault and resize instants,
//!   planned-vs-actual deviations) are stamped in virtual time as the driver
//!   folds morsel traces in canonical order, so the recorded timeline is
//!   bit-identical across `Simulate` and `Parallel` at any worker count —
//!   the determinism contract extends to the trace itself.
//! * **Wall clock** — nanosecond-derived microseconds since the trace epoch.
//!   Only per-worker lanes (park/claim/run) use it, recorded into per-worker
//!   append-only buffers ([`WorkerBuffers`]) that the driver drains after the
//!   run; worker lanes exist only at [`TraceLevel::Full`] and are explicitly
//!   outside the determinism contract.
//!
//! # Levels
//!
//! `ExecutionConfig::trace` picks a [`TraceLevel`]: `Off` (the default)
//! keeps the machinery dormant (the hot path pays a handful of integer
//! adds; `bench_e2e` records the ratio as `obs.engine_trace_overhead`),
//! `Spans` records the deterministic driver lanes and the registry, `Full`
//! adds the wall-clock worker lanes.
//!
//! This crate depends only on `ci-types`: it defines the vocabulary
//! (events, registry, report shapes) and the exporters, while the execution
//! engine owns all instrumentation points and builds the [`Trace`].

mod chrome;
mod profile;
mod registry;
mod span;

pub use profile::{NodeProfile, ProfileReport};
pub use registry::{Histogram, MetricsRegistry};
pub use span::{ArgVal, Lane, TraceEvent, TraceLevel, WorkerBuffers};

/// A completed query trace: the recorded events (driver lanes in virtual
/// time, worker lanes in wall time), the metrics registry, and the per-node
/// profile. Built by the execution engine when tracing is enabled and
/// returned on `QueryOutcome`.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Level the trace was recorded at.
    pub level: TraceLevel,
    /// All recorded events: driver lanes first (canonical morsel order),
    /// then drained worker lanes in worker order.
    pub events: Vec<TraceEvent>,
    /// Counters, gauges, and histograms accumulated during the run.
    pub registry: MetricsRegistry,
    /// The per-plan-node profile (rows, bytes, retries, dollars).
    pub profile: ProfileReport,
}

impl Trace {
    /// Serializes the events as Chrome trace-format JSON (the
    /// `chrome://tracing` / Perfetto "JSON array" flavor): one wall-clock
    /// lane per worker, one virtual-time lane per pipeline, plus driver and
    /// plan lanes, labelled via metadata events.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(&self.events)
    }

    /// The plain-text `EXPLAIN ANALYZE`-style profile report. Contains only
    /// deterministic quantities (virtual time, rows, bytes, dollars), so for
    /// a fixed seed the text is byte-identical across execution modes.
    pub fn profile_text(&self) -> String {
        self.profile.text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_types::Dollars;

    #[test]
    fn trace_bundles_exporters() {
        let mut registry = MetricsRegistry::new();
        registry.count("morsels", 3);
        let profile = ProfileReport {
            query: "SELECT 1".into(),
            latency_secs: 0.5,
            machine_secs: 1.0,
            cost: Dollars::new(0.25),
            result_rows: 1,
            nodes: vec![],
        };
        let t = Trace {
            level: TraceLevel::Spans,
            events: vec![TraceEvent::span("fetch", "exec", Lane::Pipeline(0), 10, 5)],
            registry,
            profile,
        };
        let json = t.to_chrome_json();
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(t.profile_text().contains("SELECT 1"));
    }
}
