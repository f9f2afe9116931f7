//! Query plans: binding, physical planning, pipeline decomposition.
//!
//! The paper's optimizer architecture (§3.2) separates **DAG planning** (the
//! classic single-machine plan search) from **DOP planning** (assigning a
//! degree of parallelism to each pipeline). This crate provides the shared
//! vocabulary both stages and the runtime speak:
//!
//! * [`expr::PlanExpr`] — name-resolved, executable expressions over record
//!   batches (columns are *global slots*, stable across join reordering);
//! * [`binder`] — AST → [`binder::BoundQuery`]: relations, join graph, local
//!   filters (with pruning bounds), aggregation and output shape;
//! * [`jointree::JoinTree`] — the join-shape search space (left-deep chains
//!   and the increasingly bushy variants §3.2 explores at DOP-planning time);
//! * [`physical`] — [`physical::PhysicalPlan`], an arena tree of operators
//!   with cardinality annotations;
//! * [`pipeline`] — decomposition of a physical plan into pipelines at
//!   pipeline breakers (hash-join builds, aggregates, sorts), producing the
//!   dependency DAG that DOP planning, the cost simulator, the executor, and
//!   the DOP monitor all operate on.

// Library code reports bad plans and ill-typed expressions as `CiError`,
// never by unwrapping; CI's clippy step fails the day an unwrap comes back.
// (`expect` stays for documented invariants, e.g. `Pipeline::last`.)
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod binder;
pub mod expr;
pub mod jointree;
pub mod physical;
pub mod pipeline;

pub use binder::{bind, BoundQuery, JoinEdge, Relation};
pub use expr::{AggExpr, BinOp, ColMap, PlanExpr};
pub use jointree::JoinTree;
pub use physical::{PhysicalNode, PhysicalOp, PhysicalPlan};
pub use pipeline::{Pipeline, PipelineGraph};
