//! Property tests: the parallel runtime is bit-identical to the simulator
//! oracle.
//!
//! For random plans (filter/project/join/group-by/sort/limit shapes), random
//! worker counts (1, 2, 4, 7), and random DOPs/morsel sizes,
//! `ExecutionMode::Parallel` must reproduce the simulator's result rows,
//! logical row counts, node cardinalities, byte accounting, and billed
//! `Dollars` exactly. Only wall-clock may differ: `measured_wall_ns` and
//! `op_samples` are populated in parallel mode and are excluded from the
//! comparison by contract.

use std::sync::Arc;

use ci_catalog::{Catalog, ErrorInjector};
use ci_exec::{ExecutionConfig, ExecutionMode, Executor, NoScaling, QueryOutcome};
use ci_plan::{bind, JoinTree, PhysicalPlan, PipelineGraph};
use ci_sql::parse;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::DataType;
use ci_types::TableId;
use proptest::prelude::*;

const N_ORDERS: i64 = 6_000;
const N_CUST: i64 = 250;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let orders = Arc::new(Schema::of(vec![
        Field::new("o_id", DataType::Int64),
        Field::new("o_cust", DataType::Int64),
        Field::new("o_total", DataType::Float64),
    ]));
    let mut b = TableBuilder::new(TableId::new(0), "orders", orders.clone(), 1024).unwrap();
    b.append(
        RecordBatch::new(
            orders,
            vec![
                ColumnData::Int64((0..N_ORDERS).collect()),
                ColumnData::Int64((0..N_ORDERS).map(|i| i * 7 % N_CUST).collect()),
                ColumnData::Float64((0..N_ORDERS).map(|i| (i % 997) as f64 * 0.5).collect()),
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
    let mut b = TableBuilder::new(TableId::new(1), "customers", cust.clone(), 128).unwrap();
    b.append(
        RecordBatch::new(
            cust,
            vec![
                ColumnData::Int64((0..N_CUST).collect()),
                ColumnData::strings((0..N_CUST).map(|i| format!("region-{}", i % 5))),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(b.finish().unwrap());
    c
}

/// Query shapes covering every step/sink kind the engine compiles: scan
/// filters, mid-pipeline filters, projections, exchange+gather transfer
/// points, join build/probe, group-by, sort, and limit (both the sort-sink
/// pushdown and the mid-chain cut that exercises `Tail::AtLimit`) — then
/// every aggregate shape: order-free folds (counts, integer sums, integer
/// min/max, distinct counts) over scan groups, dictionary groups, scan
/// filters, joins and no groups at all; IEEE-float folds, whose result
/// depends on the fold order both modes must share; and a `LIMIT` above a
/// group-by.
const QUERIES: &[&str] = &[
    "SELECT o_id FROM orders WHERE o_total < 40.0",
    "SELECT o_id, o_total * 2.0 AS dbl FROM orders WHERE o_id < 300 ORDER BY o_id",
    "SELECT c_region, SUM(o_total) AS rev, COUNT(*) AS n FROM orders o \
     JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region ORDER BY c_region",
    "SELECT c_region, COUNT(*) FROM customers GROUP BY c_region",
    "SELECT o_id, o_total FROM orders WHERE o_total > 400.0 \
     ORDER BY o_total DESC, o_id ASC LIMIT 9",
    "SELECT o_id FROM orders LIMIT 100",
    "SELECT c_region, o_id FROM customers c JOIN orders o ON o.o_cust = c.c_id",
    "SELECT COUNT(*) FROM orders WHERE o_total < 0.0",
    "SELECT o_cust, COUNT(*) AS n, SUM(o_id) AS s FROM orders GROUP BY o_cust",
    "SELECT o_cust, MIN(o_id) AS lo, MAX(o_id) AS hi FROM orders \
     WHERE o_id > 100 GROUP BY o_cust",
    "SELECT c_region, COUNT(*) AS n FROM customers GROUP BY c_region",
    "SELECT COUNT(*) AS n, MAX(o_cust) AS m FROM orders",
    "SELECT c_region, COUNT(*) AS n, SUM(o_id) AS s FROM orders o \
     JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region",
    "SELECT o_cust, COUNT(DISTINCT o_id) AS d FROM orders WHERE o_id < 900 GROUP BY o_cust",
    "SELECT o_cust, SUM(o_total) AS rev FROM orders GROUP BY o_cust",
    "SELECT c_region, AVG(o_total) AS a FROM orders o \
     JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region",
    "SELECT o_cust, COUNT(*) AS n FROM orders GROUP BY o_cust ORDER BY o_cust LIMIT 7",
];

fn plan_of(cat: &Catalog, sql: &str) -> (PhysicalPlan, PipelineGraph) {
    let b = bind(&parse(sql).unwrap(), cat).unwrap();
    let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
    let plan = ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
    let graph = PipelineGraph::decompose(&plan).unwrap();
    (plan, graph)
}

fn run_mode(
    cat: &Catalog,
    sql: &str,
    dop: u32,
    morsel_rows: usize,
    mode: ExecutionMode,
) -> QueryOutcome {
    let (plan, graph) = plan_of(cat, sql);
    let exec = Executor::new(
        cat,
        ExecutionConfig {
            morsel_rows,
            mode,
            ..ExecutionConfig::default()
        },
    );
    let dops = vec![dop; graph.len()];
    exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap()
}

/// Everything except wall-clock must match bit-for-bit.
fn assert_equivalent(sim: &QueryOutcome, par: &QueryOutcome, label: &str) -> Result<(), String> {
    prop_assert_eq!(&par.result, &sim.result, "{label}: result rows");
    prop_assert_eq!(
        par.metrics.result_rows,
        sim.metrics.result_rows,
        "{label}: result_rows"
    );
    prop_assert_eq!(par.metrics.cost, sim.metrics.cost, "{label}: Dollars");
    prop_assert_eq!(par.metrics.latency, sim.metrics.latency, "{label}: latency");
    prop_assert_eq!(
        par.metrics.machine_time,
        sim.metrics.machine_time,
        "{label}: machine_time"
    );
    prop_assert_eq!(
        &par.metrics.nodes,
        &sim.metrics.nodes,
        "{label}: per-node records"
    );
    prop_assert_eq!(
        par.metrics.resize_events,
        sim.metrics.resize_events,
        "{label}: resizes"
    );
    prop_assert_eq!(
        par.metrics.pipelines.len(),
        sim.metrics.pipelines.len(),
        "{label}: pipeline count"
    );
    for (pp, sp) in par.metrics.pipelines.iter().zip(&sim.metrics.pipelines) {
        // Compare the whole per-pipeline record except the fields that are
        // runtime-shape evidence rather than simulation outputs: measured
        // wall-clock (0 in the simulator by contract) and pool identity
        // (simulator has no pool; pool_reuses is shared-pool history).
        let mut masked = pp.clone();
        masked.measured_wall_ns = sp.measured_wall_ns;
        masked.pool_workers = sp.pool_workers;
        masked.pool_reuses = sp.pool_reuses;
        prop_assert_eq!(&masked, sp, "{label}: pipeline {:?} metrics", sp.id);
    }
    Ok(())
}

proptest! {
    // 24 cases for the shapes this suite always had plus the 24 + 24 the two
    // aggregate properties folded into `QUERIES` used to run. Cases come
    // from a fixed seed: at 72 every one of the 17 shapes is drawn (the last
    // first appears at case 63).
    #![proptest_config(ProptestConfig::with_cases(72))]

    /// Random query shape × worker count × DOP × morsel size: parallel
    /// output is indistinguishable from the simulator's, down to
    /// bit-identical `Dollars`.
    #[test]
    fn parallel_matches_simulator(
        sql in select(QUERIES.to_vec()),
        workers in select(vec![1usize, 2, 4, 7]),
        dop in select(vec![1u32, 2, 4, 6]),
        morsel_rows in select(vec![256usize, 700, 2048, 65_536]),
    ) {
        let cat = catalog();
        let sim = run_mode(&cat, sql, dop, morsel_rows, ExecutionMode::Simulate);
        let par = run_mode(&cat, sql, dop, morsel_rows, ExecutionMode::Parallel { workers });
        let label = format!("workers={workers} dop={dop} morsels={morsel_rows} [{sql}]");
        assert_equivalent(&sim, &par, &label)?;

        // The parallel run measured real work (unless the query was empty
        // enough to process zero rows); the simulator never does.
        prop_assert!(sim.op_samples.is_empty(), "{label}: simulator must not sample");
        prop_assert!(
            sim.metrics.pipelines.iter().all(|p| p.measured_wall_ns == 0),
            "{label}: simulator must report 0 measured ns"
        );
    }

    /// Parallel runs are also self-deterministic in everything but
    /// wall-clock: two runs with the same worker count agree bit-for-bit.
    #[test]
    fn parallel_is_self_deterministic(
        sql in select(QUERIES.to_vec()),
        workers in select(vec![2usize, 4, 7]),
    ) {
        let cat = catalog();
        let mode = ExecutionMode::Parallel { workers };
        let a = run_mode(&cat, sql, 4, 700, mode);
        let b = run_mode(&cat, sql, 4, 700, mode);
        let label = format!("workers={workers} [{sql}]");
        assert_equivalent(&a, &b, &label)?;
        // Sample *identities* (operator class and units) are deterministic
        // too — only durations vary run to run.
        prop_assert_eq!(a.op_samples.len(), b.op_samples.len(), "{label}: sample count");
        for (x, y) in a.op_samples.iter().zip(&b.op_samples) {
            prop_assert_eq!(x.op, y.op, "{label}: sample op");
            prop_assert_eq!(x.units, y.units, "{label}: sample units");
        }
    }
}

/// The scenario that once broke the engine outright (pre-parallel-runtime):
/// a morsel whose scan filter leaves zero rows exits the chain before the
/// projection, and the schema-mismatched empty batch must not poison the
/// sort/build sink buffers. Exhaustive over modes and morsel sizes.
#[test]
fn fully_filtered_morsels_do_not_poison_buffering_sinks() {
    let cat = catalog();
    let sql = "SELECT o_id, o_total FROM orders WHERE o_total > 400.0 \
               ORDER BY o_total DESC, o_id ASC LIMIT 9";
    let mut expect: Option<QueryOutcome> = None;
    for &mr in &[256usize, 700, 2048, 65_536] {
        for mode in [
            ExecutionMode::Simulate,
            ExecutionMode::Parallel { workers: 3 },
        ] {
            let out = run_mode(&cat, sql, 4, mr, mode);
            assert_eq!(out.result.rows(), 9, "mr={mr} mode={mode:?}");
            match &expect {
                None => expect = Some(out),
                Some(e) => assert_eq!(out.result, e.result, "mr={mr} mode={mode:?}"),
            }
        }
    }
}
