//! Simulated elastic cloud substrate.
//!
//! The paper assumes a disaggregated architecture (§3, Figure 3): stateless
//! compute nodes acquired on demand over a shared object store, billed
//! per machine-second, with a provider-side warm pool enabling fast cluster
//! creation/resizing. None of that hardware is available to a reproduction,
//! so this crate *is* the cloud: a deterministic model of
//!
//! * node types and their prices ([`node`], [`pricing`]),
//! * machine-time billing — blocked nodes still bill, per §3.1 ([`billing`]),
//! * the network fabric whose sub-linear bisection scaling creates the
//!   exchange-operator knee the paper argues about ([`network`]),
//! * object-store scan bandwidth ([`objectstore`]),
//! * deterministic fault injection — transient fetch failures and
//!   throttling, straggler slowdowns, worker preemption — with per-morsel
//!   draws that are pure in `(seed, pipeline, morsel)` ([`faults`]).
//!
//! All models are pure functions of explicit parameters plus virtual time
//! ([`ci_types::SimTime`]); the discrete-event clock itself lives in the
//! execution engine.

pub mod billing;
pub mod faults;
pub mod network;
pub mod node;
pub mod objectstore;
pub mod pricing;
pub mod tiercache;
pub mod work;

pub use billing::BillingMeter;
pub use faults::{FaultInjector, FaultPlan, FaultProfile, MorselFaults};
pub use network::NetworkModel;
pub use node::{HardwareProfile, NodeType};
pub use objectstore::ObjectStoreModel;
pub use pricing::{TShirtSize, TierPricing, TierSpec};
pub use tiercache::{CacheAccess, CacheCounters, CacheKey, TierCacheSim, TierLevel};
pub use work::WorkModels;
