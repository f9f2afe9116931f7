//! Metadata service (Figure 3): catalog, table statistics, and cardinality
//! estimation.
//!
//! The paper leans on this component twice:
//!
//! * §3.1 — the cost estimator consumes "logical information such as the plan
//!   shape and the input/output cardinality for each operator", which come
//!   from here;
//! * §3.3 — "a static DOP assignment produced in query optimization could
//!   suffer from errors in cardinality estimations", which the DOP monitor
//!   corrects at run time. To evaluate that (experiment E6) we must be able
//!   to *inject* controlled estimation error; [`cardinality::ErrorInjector`]
//!   is that knob.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cardinality;
pub mod catalog;
pub mod histogram;
pub mod tstats;

pub use cardinality::{CardinalityEstimator, ErrorInjector};
pub use catalog::{Catalog, TableEntry};
pub use histogram::Histogram;
pub use tstats::{ColumnStats, TableStats};
