//! Cost-oriented auto-tuning (§4): the Statistics Service, workload
//! predictor, and What-If Service.
//!
//! The paper's key move: "leverage the elastic resources to guarantee the
//! same or better performance after applying a tuning action and then
//! evaluate whether this action reduces the operational cost of the system
//! in the long run" — every tuning decision reduces to dollars:
//!
//! > "the computation saved by substituting the MV into queries is worth
//! > `x` dollars per time unit, and the extra cost of storing and updating
//! > the MV is `y` dollars per time unit. If `x − y > 0`, this tuning
//! > action is likely to be beneficial."
//!
//! * [`statsvc::StatisticsService`] — ingests query execution logs (with a
//!   tunable sampling rate), maintains file/attribute access counts, the
//!   **weighted join graph**, per-fingerprint workload summaries, and
//!   run-time resource usage; its own ingest cost is metered (§4 requires
//!   the service itself to be cost-efficient).
//! * [`predictor::WorkloadPredictor`] — frequency-based forecast of
//!   queries/hour per fingerprint from the service's summaries.
//! * [`whatif::WhatIfService`] — evaluates [`whatif::TuningAction`]s
//!   (materialized views, reclustering) against the predicted workload using
//!   the cost estimator, producing a dollar-denominated
//!   [`whatif::ProposalReport`] with `x`, `y`, the one-time build cost, and
//!   the break-even horizon — the "customer-understandable measure" the
//!   paper says today's tuners lack.

// Library code reports what it cannot evaluate as `CiError::Tuning`, never by
// unwrapping; CI's clippy step fails the day an unwrap comes back.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod predictor;
pub mod statsvc;
pub mod whatif;

pub use predictor::{PredictedQuery, WorkloadPredictor};
pub use statsvc::{QueryLogRecord, StatisticsService, StatsConfig};
pub use whatif::{ProposalReport, TuningAction, WhatIfConfig, WhatIfService};
