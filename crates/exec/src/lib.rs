//! Morsel-driven, push-based execution engine over a simulated elastic
//! cluster.
//!
//! The engine occupies the "Elastic Compute" box of Figure 3 and implements
//! the two §3.3 mechanisms the paper calls out:
//!
//! * **morsel-driven scheduling** \[18] — work is dispatched in small morsels,
//!   which is what makes *mid-pipeline* cluster resizing cheap, and
//! * **push-based data flow** \[2] — operators are applied as data is pushed
//!   through a pipeline's operator chain, giving the engine centralized
//!   control over DOP changes.
//!
//! Queries are executed over **real in-memory columnar data** (operators in
//! [`operators`] compute true results, so true cardinalities and skew are
//! real), while **virtual time and dollars** are advanced by calibrated work
//! models ([`ci_cloud::work::WorkModels`]) on a discrete-event schedule ([`engine`]).
//! Billing follows §3.1: a leased node bills machine time whether working,
//! idle, or pinned holding operator state (hash tables pin their build
//! nodes until the probing pipeline finishes — the waste source the
//! equal-finish-time heuristic minimizes).
//!
//! Runtime adaptivity hooks ([`scaling::ScalingController`]) let the DOP
//! monitor (crate `ci-monitor`) observe per-pipeline progress and resize
//! mid-flight.
//!
//! Fault tolerance: a seeded [`ci_cloud::faults::FaultPlan`] (set on
//! [`engine::ExecutionConfig::faults`]) injects transient fetch failures,
//! throttling, stragglers, and worker preemption. The engine bills recovery
//! as bounded-backoff retries, hedged duplicates of stragglers, and morsel
//! reassignment; morsel processing is pure, so recovery is never re-run —
//! recoverable schedules reproduce the fault-free rows bit-for-bit, and
//! every recovery second is billed into the cost accounting.
//!
//! Observability: [`engine::ExecutionConfig::trace`] at `Spans` or `Full`
//! records structured spans on a dual clock — deterministic virtual-time
//! driver lanes, wall-clock worker lanes — plus a metrics registry read off
//! the finished metrics. Per-plan-node records (`QueryMetrics::nodes`: rows,
//! bytes, busy seconds, and dollars summing bit-exactly to the query bill)
//! are kept whether or not the query is traced.
//! See `ci-obs` for the exporters.

// Library code reports bad plans and impossible operator states as
// `CiError::Exec`, never by unwrapping; CI's clippy step fails the day an
// unwrap comes back.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
pub mod key;
pub mod metrics;
pub mod operators;
mod parallel;
pub mod scaling;

pub use ci_cloud::faults::{FaultInjector, FaultPlan, FaultProfile};
pub use ci_cloud::pricing::TierPricing;
pub use ci_cloud::tiercache::{CacheCounters, TierCacheSim, TierLevel};
pub use ci_cloud::work::WorkModels;
pub use ci_obs::TraceLevel;
pub use ci_storage::tiers::PageSourceMode;
pub use engine::{ExecutionConfig, ExecutionMode, Executor, QueryOutcome};
pub use key::{DictKeyEntry, KeyEncoder, KeyIndex};
pub use metrics::{attribute_node_dollars, OpSample, PipelineMetrics, QueryMetrics};
pub use scaling::{NoScaling, PipelineProgress, ScaleDecision, ScalingController};
