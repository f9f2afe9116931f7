//! The bi-objective optimizer (§3.2).
//!
//! Following the paper, full multi-objective optimization is *downgraded* to
//! constrained single-objective search ([`Constraint`]): *minimize dollars
//! subject to a latency SLA*, or *minimize latency subject to a budget*.
//! One rule states it: [`Constraint::met`] says whether an outcome is
//! feasible and [`Constraint::prefers`] ranks two outcomes. The DOP search
//! and the warehouse's verdict on an executed query call `met`; the
//! exhaustive DOP reference ranks with `prefers`.
//! The optimizer is staged as §3.2 prescribes:
//!
//! 1. **DAG planning** ([`ci_plan::dagplan`]) — classic Selinger-style
//!    dynamic programming over the join graph, left-deep; it returns the
//!    relation order, and the chain in that order is the query's one join
//!    shape (the what-if service prices the same chain);
//! 2. **DOP planning** ([`dopplan`]) — assigns a degree of parallelism to
//!    every pipeline of that chain by greedy marginal search over the
//!    cost estimator, pruned with the **equal-finish-time heuristic**
//!    (`C1/T1(DOP1) ≈ C2/T2(DOP2)`) so concurrent sibling pipelines finish
//!    together and waste no pinned machine time.
//!
//! §3.2 also DOP-plans increasingly bushy variants of the chain. A halving
//! rewrite of it never beat the chain on the CAB templates, so the chain is
//! planned alone and the halving shapes are the E5 claim test's reference
//! (`crates/bench/tests/support/bushy.rs`).
//!
//! [`pareto`] implements the full-frontier enumeration baseline (\[35] in the
//! paper) that the F2 claim test judges picks against.

// Library code reports an unplannable query or an empty DOP ladder as a
// typed `CiError`, never by unwrapping; CI's clippy step fails the day an
// unwrap comes back.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dopplan;
pub mod optimizer;
pub mod pareto;

pub use dopplan::{Constraint, DopPlan, DopPlanner, SearchStats};
pub use optimizer::{Optimizer, OptimizerConfig, PlannedQuery};
pub use pareto::{pareto_frontier, ParetoPoint};
