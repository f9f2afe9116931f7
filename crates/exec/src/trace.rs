//! Driver-side tracing state: the event/registry accumulator the accounting
//! loop records into, and the per-plan-node resource tallies that back
//! dollar attribution.
//!
//! The [`Tracer`] is owned by the driver and `&mut`-threaded through the
//! accounting pass, so recording happens in canonical morsel order — the
//! virtual-time lanes it produces are bit-identical across execution modes.
//! Event construction is gated by [`Tracer::on`] at every call site, so at
//! [`TraceLevel::Off`] the instrumentation is a branch on an enum.

use ci_obs::{MetricsRegistry, TraceEvent, TraceLevel};

/// Event and registry accumulator for one query run.
pub(crate) struct Tracer {
    /// Recording level (from `ExecutionConfig::trace`).
    pub(crate) level: TraceLevel,
    /// Driver-lane events, in emission (= canonical accounting) order.
    pub(crate) events: Vec<TraceEvent>,
    /// Counters/gauges/histograms accumulated during the run.
    pub(crate) registry: MetricsRegistry,
}

impl Tracer {
    pub(crate) fn new(level: TraceLevel) -> Tracer {
        Tracer {
            level,
            events: Vec::new(),
            registry: MetricsRegistry::new(),
        }
    }

    /// Whether anything should be recorded. Call sites gate event
    /// construction on this so the `Off` path never allocates.
    #[inline]
    pub(crate) fn on(&self) -> bool {
        self.level.enabled()
    }

    /// Appends a driver-lane event (caller gates with [`Tracer::on`]).
    #[inline]
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// Adds to a registry counter when recording.
    #[inline]
    pub(crate) fn count(&mut self, name: &str, delta: u64) {
        if self.on() {
            self.registry.count(name, delta);
        }
    }

    /// Records a histogram observation when recording.
    #[inline]
    pub(crate) fn observe(&mut self, name: &str, value: u64) {
        if self.on() {
            self.registry.observe(name, value);
        }
    }
}

/// Per-plan-node resource tallies, accumulated by the driver in canonical
/// morsel order (hence mode-independent). `busy_secs` is the basis for
/// dollar attribution; the rest feed the profile report. Recovery time and
/// per-morsel overhead are charged to the pipeline's *source* node — faults
/// are morsel-level events, and the morsel originates there.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeStats {
    /// Virtual seconds of machine busy time charged to this node.
    pub(crate) busy_secs: f64,
    /// Encoded object-store bytes fetched for this node.
    pub(crate) fetch_bytes: u64,
    /// Decoded payload bytes this node processed.
    pub(crate) decoded_bytes: u64,
    /// Wire-format bytes shipped through this node (exchanges/gathers).
    pub(crate) wire_bytes: u64,
    /// Fetch retries charged to this node.
    pub(crate) retries: u64,
    /// Virtual microseconds of recovery time charged to this node.
    pub(crate) recovery_us: u64,
}
