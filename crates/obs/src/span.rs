//! The span model: trace levels, lanes, events, and the per-worker
//! append-only buffers wall-clock spans are recorded into.

use std::sync::Mutex;
use std::time::Instant;

/// How much the tracing machinery records (`ExecutionConfig::trace`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Dormant: no events, no registry. The hot path pays only the
    /// always-on per-node accounting integer/float adds.
    #[default]
    Off,
    /// Deterministic driver lanes (virtual time) plus the metrics registry.
    Spans,
    /// `Spans` plus the wall-clock worker lanes (park/claim/run).
    Full,
}

impl TraceLevel {
    /// Whether any recording happens at all.
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }

    /// Whether the wall-clock worker lanes are recorded.
    pub fn wall(self) -> bool {
        self == TraceLevel::Full
    }
}

/// The timeline an event belongs to. Virtual-time lanes (`Driver`,
/// `Pipeline`, `Plan`) and wall-clock lanes (`Worker`) map to distinct
/// Chrome-trace processes so the two clocks never share an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Driver-level events in virtual time (resizes, query extent).
    Driver,
    /// One virtual-time lane per pipeline (morsel spans, fault instants).
    Pipeline(u32),
    /// Planned-vs-actual instants, one per physical plan node.
    Plan,
    /// One wall-clock lane per pool worker (park/claim/run).
    Worker(u32),
}

/// An argument value attached to an event (rendered into Chrome-trace
/// `args`).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgVal {
    /// Unsigned counter/size.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Measured rate/ratio.
    F64(f64),
    /// Free-form label.
    Str(String),
}

impl From<u64> for ArgVal {
    fn from(v: u64) -> Self {
        ArgVal::U64(v)
    }
}
impl From<i64> for ArgVal {
    fn from(v: i64) -> Self {
        ArgVal::I64(v)
    }
}
impl From<f64> for ArgVal {
    fn from(v: f64) -> Self {
        ArgVal::F64(v)
    }
}
impl From<&str> for ArgVal {
    fn from(v: &str) -> Self {
        ArgVal::Str(v.to_owned())
    }
}
impl From<String> for ArgVal {
    fn from(v: String) -> Self {
        ArgVal::Str(v)
    }
}

/// One recorded span (`dur_us > 0`) or instant (`dur_us == 0`). Timestamps
/// are microseconds on the lane's clock: virtual µs for driver lanes, wall
/// µs since the trace epoch for worker lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (e.g. `fetch`, `compute`, `fault:throttle`).
    pub name: String,
    /// Category tag (Chrome-trace `cat`): `exec`, `fault`, `pool`, `plan`.
    pub cat: &'static str,
    /// Which timeline the event belongs to.
    pub lane: Lane,
    /// Start timestamp in microseconds on the lane's clock.
    pub ts_us: u64,
    /// Duration in microseconds; `0` renders as an instant.
    pub dur_us: u64,
    /// Key/value annotations.
    pub args: Vec<(&'static str, ArgVal)>,
}

impl TraceEvent {
    /// A duration span.
    pub fn span(
        name: impl Into<String>,
        cat: &'static str,
        lane: Lane,
        ts_us: u64,
        dur_us: u64,
    ) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            cat,
            lane,
            ts_us,
            dur_us,
            args: Vec::new(),
        }
    }

    /// A zero-duration instant.
    pub fn instant(
        name: impl Into<String>,
        cat: &'static str,
        lane: Lane,
        ts_us: u64,
    ) -> TraceEvent {
        TraceEvent::span(name, cat, lane, ts_us, 0)
    }

    /// Attaches one argument (builder style).
    pub fn arg(mut self, key: &'static str, val: impl Into<ArgVal>) -> TraceEvent {
        self.args.push((key, val.into()));
        self
    }
}

/// Per-worker append-only event buffers for the wall-clock lanes. Workers
/// push to their own shard (one mutex each, never contended across workers),
/// and the driver drains all shards in worker order after the run — workers
/// never observe each other, so recording cannot perturb the deterministic
/// accounting.
#[derive(Debug)]
pub struct WorkerBuffers {
    epoch: Instant,
    shards: Vec<Mutex<Vec<TraceEvent>>>,
}

impl WorkerBuffers {
    /// Buffers for `workers` lanes, with the wall-clock epoch pinned now.
    pub fn new(workers: usize) -> WorkerBuffers {
        WorkerBuffers {
            epoch: Instant::now(),
            shards: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Microseconds of wall clock since the trace epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Number of worker lanes.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Appends an event to `worker`'s shard. Out-of-range workers are
    /// dropped silently (a shared pool can outlive the query that attached
    /// the buffers).
    pub fn record(&self, worker: usize, ev: TraceEvent) {
        if let Some(shard) = self.shards.get(worker) {
            if let Ok(mut buf) = shard.lock() {
                buf.push(ev);
            }
        }
    }

    /// Drains every shard in worker order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            if let Ok(mut buf) = shard.lock() {
                out.append(&mut buf);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_gate_recording() {
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::Spans.enabled() && !TraceLevel::Spans.wall());
        assert!(TraceLevel::Full.enabled() && TraceLevel::Full.wall());
    }

    #[test]
    fn event_builders() {
        let e = TraceEvent::span("fetch", "exec", Lane::Pipeline(2), 100, 40)
            .arg("bytes", 1024u64)
            .arg("node", 3i64);
        assert_eq!(e.dur_us, 40);
        assert_eq!(e.args.len(), 2);
        let i = TraceEvent::instant("fault:throttle", "fault", Lane::Pipeline(0), 7);
        assert_eq!(i.dur_us, 0);
    }

    #[test]
    fn worker_buffers_drain_in_worker_order() {
        let b = WorkerBuffers::new(3);
        b.record(2, TraceEvent::instant("c", "pool", Lane::Worker(2), 3));
        b.record(0, TraceEvent::instant("a", "pool", Lane::Worker(0), 1));
        b.record(0, TraceEvent::instant("b", "pool", Lane::Worker(0), 2));
        // Out-of-range workers are dropped, not panicked on.
        b.record(9, TraceEvent::instant("x", "pool", Lane::Worker(9), 4));
        let drained = b.drain();
        let names: Vec<_> = drained.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(b.drain().is_empty(), "drain empties the shards");
    }
}
