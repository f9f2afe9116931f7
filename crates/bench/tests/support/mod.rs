//! What the claim tests compare the system against, and their shorthand.
//! None of it is product code: the scaling policies of prior work (E6),
//! §3.2's bushy join shapes (E5), Figure 1's T-shirt menu (F1, F2), the
//! sample summaries of E2 and a uniform-DOP run.

pub mod baselines;
pub mod bushy;
pub mod stats;
pub mod tshirt;

use ci_catalog::Catalog;
use ci_exec::{ExecutionConfig, Executor, NoScaling, QueryOutcome};
use ci_plan::{PhysicalPlan, PipelineGraph};
use ci_types::Result;

/// Executes a plan with a uniform DOP under the default engine config.
pub fn run_uniform(
    cat: &Catalog,
    plan: &PhysicalPlan,
    graph: &PipelineGraph,
    dop: u32,
) -> Result<QueryOutcome> {
    let exec = Executor::new(cat, ExecutionConfig::default());
    exec.execute(plan, graph, &vec![dop; graph.len()], &mut NoScaling)
}
