//! `ci-core`: the cost-intelligent warehouse facade.
//!
//! [`Warehouse`] assembles the full Figure-3 architecture: catalog/metadata
//! service, bi-objective optimizer + cost estimator, morsel-driven elastic
//! executor with the DOP monitor in the loop, statistics service, workload
//! predictor, what-if service, and background compute for accepted tuning
//! actions (materialized-view builds, reclustering).
//!
//! The user-facing contract is the paper's: **no T-shirt sizes**. A query
//! arrives with a [`ci_optimizer::Constraint`] — a latency SLA or a dollar
//! budget — and the warehouse figures out the rest, returning a
//! [`report::QueryReport`] with the bill next to the prediction.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod report;
pub mod warehouse;

pub use ci_optimizer::Constraint;
pub use report::QueryReport;
pub use warehouse::{Warehouse, WarehouseConfig};

// Re-export the subsystem crates so `cost-intel` users reach everything.
pub use ci_autotune as autotune;
pub use ci_catalog as catalog;
pub use ci_cloud as cloud;
pub use ci_cost as cost;
pub use ci_exec as exec;
pub use ci_monitor as monitor;
pub use ci_obs as obs;
pub use ci_optimizer as optimizer;
pub use ci_plan as plan;
pub use ci_sql as sql;
pub use ci_storage as storage;
pub use ci_types as types;
pub use ci_workload as workload;
