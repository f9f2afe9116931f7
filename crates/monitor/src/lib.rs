//! The DOP monitor (§3.3) and prior-work auto-scaling baselines.
//!
//! "A static DOP assignment produced in query optimization could suffer from
//! errors in cardinality estimations. We, therefore, introduce a DOP monitor
//! that dynamically adjusts the cluster size at run time." The monitor
//! ([`monitor::DopMonitor`]) implements the paper's two-threshold policy at
//! **pipeline granularity**:
//!
//! * deviation within [`monitor::THETA_SMALL`] — do nothing;
//! * deviation beyond it mid-pipeline — correct *this pipeline's* DOP using
//!   the cost estimator's scalability models;
//! * source-row deviation beyond [`monitor::THETA_LARGE`] at a pipeline's
//!   start — re-size that one pipeline for its observed input. (§3.3 re-runs
//!   DOP planning over the remaining pipelines here; this monitor does not.)
//!
//! [`baselines`] provides the two strategies §3.3 contrasts with: whole-
//! cluster interval scaling (Jockey/Ellis \[11, 34]) and per-stage
//! shuffle-boundary scaling (BigQuery \[1, 9]); pure static execution is
//! `ci_exec::NoScaling`.

// Where the monitor cannot decide (an empty ladder) a pipeline keeps its
// planned DOP; library code never unwraps, and CI's clippy step fails the
// day an unwrap comes back.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod baselines;
pub mod monitor;

pub use baselines::{StageBoundaryScaling, WholeClusterScaling};
pub use monitor::{DopMonitor, MonitorConfig};
