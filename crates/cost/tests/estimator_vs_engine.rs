//! Cross-validation: the cost estimator's predictions vs the engine's
//! measurements, on clean (oracle) cardinalities. This is the substance of
//! the paper's §3.1 accuracy requirement and the basis of experiment E2.

use std::sync::Arc;

use ci_catalog::{Catalog, ErrorInjector};
use ci_cost::{CostEstimator, EstimatorConfig};
use ci_exec::{ExecutionConfig, Executor, NoScaling};
use ci_plan::{bind, JoinTree, PhysicalPlan, PipelineGraph};
use ci_sql::parse;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::DataType;
use ci_types::stats::relative_error;
use ci_types::TableId;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let schema = Arc::new(Schema::of(vec![
        Field::new("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("val", DataType::Float64),
    ]));
    let n = 400_000i64;
    let mut b = TableBuilder::new(TableId::new(0), "facts", schema.clone(), 16_384).unwrap();
    b.append(
        RecordBatch::new(
            schema,
            vec![
                ColumnData::Int64((0..n).collect()),
                ColumnData::Int64((0..n).map(|i| (i * 7919) % 2000).collect()),
                ColumnData::Float64((0..n).map(|i| (i % 1000) as f64).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(b.finish().unwrap());
    let dim = Arc::new(Schema::of(vec![
        Field::new("d_id", DataType::Int64),
        Field::new("d_cat", DataType::Utf8),
    ]));
    let mut b = TableBuilder::new(TableId::new(1), "dims", dim.clone(), 512).unwrap();
    b.append(
        RecordBatch::new(
            dim,
            vec![
                ColumnData::Int64((0..2000).collect()),
                ColumnData::Utf8((0..2000).map(|i| format!("c{}", i % 20)).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(b.finish().unwrap());
    c
}

fn planned(cat: &Catalog, sql: &str) -> (PhysicalPlan, PipelineGraph) {
    let b = bind(&parse(sql).unwrap(), cat).unwrap();
    let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
    let plan = ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
    let graph = PipelineGraph::decompose(&plan).unwrap();
    (plan, graph)
}

const QUERIES: &[&str] = &[
    "SELECT id FROM facts WHERE val < 100.0",
    "SELECT COUNT(*) FROM facts",
    "SELECT grp, COUNT(*), SUM(val) FROM facts GROUP BY grp",
    "SELECT d_cat, SUM(val) FROM facts f JOIN dims d ON f.grp = d.d_id GROUP BY d_cat",
    "SELECT id, val FROM facts WHERE val > 900.0 ORDER BY val DESC LIMIT 100",
];

#[test]
fn predictions_track_measurements_within_tolerance() {
    let cat = catalog();
    let est = CostEstimator::new(&cat, EstimatorConfig::default());
    let exec = Executor::new(&cat, ExecutionConfig::default());

    let mut errors = Vec::new();
    for sql in QUERIES {
        for dop in [1u32, 4, 16] {
            let (plan, graph) = planned(&cat, sql);
            let dops = vec![dop; graph.len()];
            let predicted = est.estimate(&plan, &graph, &dops).unwrap();
            let measured = exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap();
            let e = relative_error(
                predicted.latency.as_secs_f64(),
                measured.metrics.latency.as_secs_f64(),
            );
            errors.push(e);
            // No single configuration should be off by more than ~3x the
            // worst error the simulator run measures (0.031, deterministic).
            assert!(
                e < 0.1,
                "{sql} at dop {dop}: predicted {} vs measured {} (err {e:.2})",
                predicted.latency,
                measured.metrics.latency
            );
        }
    }
    errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = errors[errors.len() / 2];
    // The measured median is 0.012.
    assert!(
        median < 0.04,
        "median latency error should be small, got {median:.3} ({errors:?})"
    );
}

#[test]
fn cost_predictions_track_billing() {
    let cat = catalog();
    let est = CostEstimator::new(&cat, EstimatorConfig::default());
    let exec = Executor::new(&cat, ExecutionConfig::default());
    for sql in QUERIES {
        let (plan, graph) = planned(&cat, sql);
        let dops = vec![4; graph.len()];
        let predicted = est.estimate(&plan, &graph, &dops).unwrap();
        let measured = exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap();
        let e = relative_error(predicted.cost.amount(), measured.metrics.cost.amount());
        // ~3x the worst measured cost error (0.031).
        assert!(
            e < 0.1,
            "{sql}: predicted {} vs billed {} (err {e:.2})",
            predicted.cost,
            measured.metrics.cost
        );
    }
}
