//! The bi-objective optimizer (§3.2).
//!
//! Following the paper, full multi-objective optimization is *downgraded* to
//! constrained single-objective search ([`Constraint`]): *minimize dollars
//! subject to a latency SLA*, or *minimize latency subject to a budget*.
//! One rule states it: [`Constraint::met`] says whether an outcome is
//! feasible and [`Constraint::prefers`] ranks two outcomes, and every choice
//! below (and the warehouse's verdict on an executed query) calls them.
//! The optimizer is staged exactly as §3.2 prescribes:
//!
//! 1. **DAG planning** ([`dagplan`]) — classic Selinger-style dynamic
//!    programming over the join graph, left-deep, bushy shapes excluded; it
//!    returns the relation order;
//! 2. **DOP planning** ([`dopplan`]) — assigns a degree of parallelism to
//!    every pipeline of the chosen DAG by greedy marginal search over the
//!    cost estimator, pruned with the **equal-finish-time heuristic**
//!    (`C1/T1(DOP1) ≈ C2/T2(DOP2)`) so concurrent sibling pipelines finish
//!    together and waste no pinned machine time;
//! 3. **bushy variants** ([`bushy`]) — explored *at the DOP-planning stage*,
//!    not inside the DAG search: the left-deep order is rewritten into
//!    increasingly bushier shapes, each DOP-planned, and the variant the
//!    constraint ranks first wins. The left-deep chain is planned first, so
//!    a query it cannot plan fails with its own error, while a bushy split
//!    the join graph does not connect is skipped.
//!
//! [`pareto`] implements the full-frontier enumeration baseline (\[35] in the
//! paper) that the F2 claim test judges picks against.

// Library code reports an unplannable query or an empty DOP ladder as a
// typed `CiError`, never by unwrapping; CI's clippy step fails the day an
// unwrap comes back.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bushy;
pub mod dagplan;
pub mod dopplan;
pub mod optimizer;
pub mod pareto;

pub use dagplan::dag_plan;
pub use dopplan::{Constraint, DopPlan, DopPlanner, SearchStats};
pub use optimizer::{Optimizer, OptimizerConfig, PlannedQuery};
pub use pareto::{pareto_frontier, ParetoPoint};
