//! The calibrate-from-reality loop, end to end: run a query on the parallel
//! runtime, aggregate its measured operator samples into
//! [`ci_cost::MeasuredRates`], and seed a [`ci_cost::CostEstimator`] from
//! them.
//!
//! This is the workspace-level closure of §3.1's hardware calibration: the
//! engine and the estimator are DAG siblings, so the umbrella crate is where
//! measured rates flow from one into the other.

use std::sync::Arc;

use ci_catalog::{Catalog, ErrorInjector};
use ci_cloud::work::WorkModels;
use ci_cost::{CostEstimator, EstimatorConfig, MeasuredRates};
use ci_exec::{ExecutionConfig, ExecutionMode, Executor, NoScaling};
use ci_plan::{bind, JoinTree, PhysicalPlan, PipelineGraph};
use ci_sql::parse;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::DataType;
use ci_types::TableId;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let orders = Arc::new(Schema::of(vec![
        Field::new("o_id", DataType::Int64),
        Field::new("o_cust", DataType::Int64),
        Field::new("o_total", DataType::Float64),
    ]));
    let n = 20_000i64;
    let mut b = TableBuilder::new(TableId::new(0), "orders", orders.clone(), 2048).unwrap();
    b.append(
        RecordBatch::new(
            orders,
            vec![
                ColumnData::Int64((0..n).collect()),
                ColumnData::Int64((0..n).map(|i| i * 11 % 500).collect()),
                ColumnData::Float64((0..n).map(|i| (i % 1000) as f64).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(b.finish().unwrap());

    let cust = Arc::new(Schema::of(vec![
        Field::new("c_id", DataType::Int64),
        Field::new("c_region", DataType::Utf8),
    ]));
    let mut b = TableBuilder::new(TableId::new(1), "customers", cust.clone(), 256).unwrap();
    b.append(
        RecordBatch::new(
            cust,
            vec![
                ColumnData::Int64((0..500).collect()),
                ColumnData::Utf8((0..500).map(|i| format!("region-{}", i % 7)).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(b.finish().unwrap());
    c
}

fn plan_of(cat: &Catalog, sql: &str) -> (PhysicalPlan, PipelineGraph) {
    let b = bind(&parse(sql).unwrap(), cat).unwrap();
    let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
    let plan = ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
    let graph = PipelineGraph::decompose(&plan).unwrap();
    (plan, graph)
}

/// One query shape that exercises every measurable operator class: scan
/// filter + join build/probe + group-by exchange + sort.
const SQL: &str = "SELECT c_region, SUM(o_total) AS rev, COUNT(*) AS n \
                   FROM orders o JOIN customers c ON o.o_cust = c.c_id \
                   WHERE o_total > 10.0 GROUP BY c_region ORDER BY c_region";

#[test]
fn parallel_measurements_seed_the_estimator() {
    let cat = catalog();
    let (plan, graph) = plan_of(&cat, SQL);
    let exec = Executor::new(
        &cat,
        ExecutionConfig {
            morsel_rows: 2048,
            mode: ExecutionMode::Parallel { workers: 2 },
            ..ExecutionConfig::default()
        },
    );
    let dops = vec![2u32; graph.len()];
    let out = exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap();
    assert!(
        !out.op_samples.is_empty(),
        "parallel mode must measure kernels"
    );

    // Fold the engine's samples into measured rates.
    let mut rates = MeasuredRates::new();
    for s in &out.op_samples {
        rates.record(s.op, s.units, s.wall_ns);
    }
    for op in ["filter", "probe", "build", "agg", "exchange", "sort"] {
        let r = rates.rate(op);
        assert!(
            r.is_some_and(|r| r.is_finite() && r > 0.0),
            "query exercises {op}, expected a usable measured rate, got {r:?}"
        );
    }

    // Seed an estimator from them: it stays constructible and produces a
    // finite, positive estimate for the very plan that was measured.
    let est = CostEstimator::new(
        &cat,
        EstimatorConfig {
            models: rates.seed(&WorkModels::standard()),
            ..Default::default()
        },
    );
    let q = est.estimate(&plan, &graph, &dops).unwrap();
    assert!(q.latency.as_secs_f64() > 0.0 && q.latency.as_secs_f64().is_finite());
    assert!(q.cost.amount() > 0.0);

    // And the seeding really reached the models: the seeded estimator's
    // hardware rates match the aggregates for every measured class.
    assert_eq!(
        est.config.models.hw.filter_rows_per_sec_per_core,
        rates.rate("filter").unwrap()
    );
    assert_eq!(
        est.config.models.hw.hash_probe_rows_per_sec_per_core,
        rates.rate("probe").unwrap()
    );
    assert_eq!(
        est.config.models.hw.sort_rows_log_per_sec_per_core,
        rates.rate("sort").unwrap()
    );
}

#[test]
fn simulator_mode_yields_no_rates() {
    let cat = catalog();
    let (plan, graph) = plan_of(&cat, SQL);
    let exec = Executor::new(
        &cat,
        ExecutionConfig {
            morsel_rows: 2048,
            mode: ExecutionMode::Simulate,
            ..ExecutionConfig::default()
        },
    );
    let dops = vec![2u32; graph.len()];
    let out = exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap();
    assert!(out.op_samples.is_empty());

    let mut rates = MeasuredRates::new();
    for s in &out.op_samples {
        rates.record(s.op, s.units, s.wall_ns);
    }
    // Seeding from an empty collector is the identity.
    let base = EstimatorConfig::default().models;
    assert_eq!(rates.seed(&base), base);
}
