//! CAB — the Cloud Analytics Bench used by every experiment.
//!
//! The paper motivates its architecture with analytical star-schema
//! workloads on elastic clouds but (being a vision paper) ships no
//! benchmark. CAB is this reproduction's stand-in: a deterministic,
//! scale-factor-parameterized TPC-H-flavoured star schema
//! ([`gen::CabGenerator`]), twelve parameterized query templates spanning
//! the operator space ([`queries`]), and workload traces mixing recurring
//! and ad-hoc queries with Poisson arrivals ([`trace`]) — the recurring
//! structure is what the Statistics Service summarizes and the What-If
//! Service monetizes (§4).

// Library code does not unwrap; CI's clippy step fails the day an unwrap
// comes back. (`queries::instantiate` still panics on an unknown template
// id, a caller's bug.)
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod gen;
pub mod queries;
pub mod trace;

pub use gen::{CabConfig, CabGenerator};
pub use queries::{QueryTemplate, TEMPLATES};
pub use trace::{TraceConfig, TraceEntry, WorkloadTrace};
