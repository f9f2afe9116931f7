//! Shared primitives for the `cost-intel` workspace.
//!
//! This crate holds the vocabulary types every other crate speaks:
//!
//! * [`money::Dollars`] — monetary cost, the paper's first-class optimization
//!   objective (CIDR 2024, §1).
//! * [`time::SimTime`] / [`time::SimDuration`] — virtual time for the
//!   discrete-event cloud simulator. Integer microseconds internally so event
//!   ordering is exact and runs are bit-reproducible.
//! * [`rng::DetRng`] — a deterministic xoshiro256++ PRNG; every random choice
//!   in the system flows from explicit seeds. [`rng::Zipf`] draws skewed
//!   ranks from one.
//! * [`ids`] — strongly-typed identifiers (queries, pipelines, nodes, ...).
//! * [`error::CiError`] — the workspace error type.
//! * [`stats`] — descriptive statistics used by experiment harnesses and the
//!   statistics service.

// Library code reports bad input as `CiError`, never by unwrapping;
// CI's clippy step fails the day an unwrap comes back.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod error;
pub mod ids;
pub mod money;
pub mod rng;
pub mod stats;
pub mod time;

pub use error::{CiError, Result};
pub use ids::{NodeId, OperatorId, PipelineId, QueryId, StageId, TableId};
pub use money::Dollars;
pub use rng::{DetRng, Zipf};
pub use time::{SimDuration, SimTime};
