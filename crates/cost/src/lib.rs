//! The cost estimator — the referee at the center of the architecture
//! (Figure 3, §3.1).
//!
//! Given a physical plan fragment, a DOP assignment, and calibrated hardware
//! parameters, the estimator predicts **execution time, total machine time,
//! and dollars**. It is built exactly as the paper prescribes:
//!
//! * **per-operator scalability models** — simple analytic throughput
//!   formulas over the shared [`ci_cloud::work::WorkModels`] calibration
//!   ([`estimator`]);
//! * **a query-level simulator** — schedules the pipeline DAG (concurrency,
//!   blocking on dependencies, state pinning) to produce end-to-end latency
//!   and machine-time ([`estimator::CostEstimator::estimate`]);
//! * **hardware calibration** — per-core operator rates measured by the
//!   parallel runtime re-seed the shared models ([`calibration`]). §3.1's
//!   pre-trained regression corrections have nothing to learn here: the
//!   estimator and the biller price with the same `WorkModels`.
//!
//! The estimator is a pure function of its inputs and is cheap (micro-
//! seconds per call — measured in `ci-bench`), because the optimizer and the
//! what-if service invoke it thousands of times per query (§3.1's
//! "lightweight" requirement).

// Library code reports bad plans as `CiError`, never by unwrapping;
// CI's clippy step fails the day an unwrap comes back.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod calibration;
pub mod estimator;

pub use calibration::MeasuredRates;
/// Re-exported so estimator clients can configure the failure tax without
/// depending on `ci-cloud` directly.
pub use ci_cloud::faults::FaultProfile;
/// Re-exported so estimator clients can configure tier pricing and cache
/// hit models without depending on `ci-cloud` directly.
pub use ci_cloud::pricing::{TierPricing, TierSpec};
pub use ci_cloud::tiercache::{CacheCounters, TierLevel};
pub use estimator::{CostEstimator, EstimatorConfig, PipelineWork, QueryEstimate, TierCostModel};
