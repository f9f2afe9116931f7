//! End-to-end engine tests: SQL → bind → physical plan → pipelines →
//! execution, with results checked against independently computed answers
//! and metrics checked against the billing semantics of §3.1.

use std::sync::{Arc, Mutex};

use ci_catalog::{Catalog, ErrorInjector};
use ci_exec::scaling::{PipelineProgress, PipelineStart, ScaleDecision, ScalingController};
use ci_exec::{ExecutionConfig, ExecutionMode, Executor, NoScaling, TierCacheSim, TierPricing};
use ci_plan::{bind, JoinTree, PhysicalPlan, PipelineGraph};
use ci_sql::parse;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::{DataType, Value};
use ci_types::{CiError, SimDuration, TableId};

const N_ORDERS: i64 = 20_000;
const N_CUST: i64 = 500;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let orders = Arc::new(Schema::of(vec![
        Field::new("o_id", DataType::Int64),
        Field::new("o_cust", DataType::Int64),
        Field::new("o_total", DataType::Float64),
    ]));
    let mut b = TableBuilder::new(TableId::new(0), "orders", orders.clone(), 2048).unwrap();
    b.append(
        RecordBatch::new(
            orders,
            vec![
                ColumnData::Int64((0..N_ORDERS).collect()),
                ColumnData::Int64((0..N_ORDERS).map(|i| i % N_CUST).collect()),
                ColumnData::Float64((0..N_ORDERS).map(|i| (i % 1000) as f64).collect()),
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
                ColumnData::Int64((0..N_CUST).collect()),
                ColumnData::Utf8(
                    (0..N_CUST)
                        .map(|i| if i % 2 == 0 { "EU".into() } else { "US".into() })
                        .collect(),
                ),
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

fn run(cat: &Catalog, sql: &str, dop: u32) -> ci_exec::QueryOutcome {
    let (plan, graph) = plan_of(cat, sql);
    let exec = Executor::new(cat, ExecutionConfig::default());
    let dops = vec![dop; graph.len()];
    exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap()
}

#[test]
fn filter_scan_results_match_oracle() {
    let cat = catalog();
    let out = run(&cat, "SELECT o_id FROM orders WHERE o_total < 10.0", 4);
    // Values 0..10 of (i % 1000) -> 10 matches per 1000 -> 200 rows.
    assert_eq!(out.result.rows(), 200);
    assert_eq!(out.metrics.result_rows, 200);
    // Every returned row satisfies the predicate.
    for r in 0..out.result.rows() {
        let Value::Int(id) = out.result.row(r)[0] else {
            panic!()
        };
        assert!(id % 1000 < 10);
    }
}

#[test]
fn join_aggregate_matches_manual_computation() {
    let cat = catalog();
    let out = run(
        &cat,
        "SELECT c_region, SUM(o_total) AS rev, COUNT(*) AS n FROM orders o \
         JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region ORDER BY c_region",
        4,
    );
    assert_eq!(out.result.rows(), 2);
    // Manual: every order joins exactly one customer; region by o_cust % 2.
    let mut sums = [0.0f64; 2];
    let mut counts = [0i64; 2];
    for i in 0..N_ORDERS {
        let region = (i % N_CUST) % 2; // 0 = EU, 1 = US
        sums[region as usize] += (i % 1000) as f64;
        counts[region as usize] += 1;
    }
    assert_eq!(out.result.row(0)[0], Value::from("EU"));
    assert_eq!(out.result.row(0)[1], Value::Float(sums[0]));
    assert_eq!(out.result.row(0)[2], Value::Int(counts[0]));
    assert_eq!(out.result.row(1)[0], Value::from("US"));
    assert_eq!(out.result.row(1)[1], Value::Float(sums[1]));
    assert_eq!(out.result.row(1)[2], Value::Int(counts[1]));
}

#[test]
fn order_by_and_limit() {
    let cat = catalog();
    let out = run(
        &cat,
        "SELECT o_id, o_total FROM orders WHERE o_total > 995.0 ORDER BY o_total DESC, o_id ASC LIMIT 7",
        2,
    );
    assert_eq!(out.result.rows(), 7);
    // Top values are 999 (ids 999, 1999, ...): descending totals, ascending ids.
    assert_eq!(out.result.row(0)[1], Value::Float(999.0));
    assert_eq!(out.result.row(0)[0], Value::Int(999));
    assert_eq!(out.result.row(1)[0], Value::Int(1999));
    // Monotone non-increasing totals.
    let mut prev = f64::INFINITY;
    for r in 0..out.result.rows() {
        let Value::Float(t) = out.result.row(r)[1] else {
            panic!()
        };
        assert!(t <= prev);
        prev = t;
    }
}

#[test]
fn dop_speeds_up_scans_at_similar_cost() {
    // §2's elasticity identity only holds when work dwarfs the fixed
    // provisioning overhead (the paper's example is a 100-minute job);
    // run with instant provisioning to isolate the scan scaling itself.
    let cat = catalog();
    let sql = "SELECT COUNT(*) FROM orders WHERE o_total < 900.0";
    let (plan, graph) = plan_of(&cat, sql);
    let config = ExecutionConfig {
        resize_latency: SimDuration::ZERO,
        ..ExecutionConfig::default()
    };
    let exec = Executor::new(&cat, config);
    let d1 = exec
        .execute(&plan, &graph, &vec![1; graph.len()], &mut NoScaling)
        .unwrap();
    let d8 = exec
        .execute(&plan, &graph, &vec![8; graph.len()], &mut NoScaling)
        .unwrap();
    assert_eq!(d1.result.row(0)[0], d8.result.row(0)[0]);
    assert!(
        d8.metrics.latency < d1.metrics.latency,
        "8 nodes should beat 1: {} vs {}",
        d8.metrics.latency,
        d1.metrics.latency
    );
    // Dollars grow far slower than 8x: scans parallelize near-linearly.
    let ratio = d8.metrics.cost / d1.metrics.cost;
    assert!(ratio < 4.0, "cost ratio at DOP 8 was {ratio}");
}

#[test]
fn deterministic_across_runs() {
    let cat = catalog();
    let sql = "SELECT c_region, COUNT(*) FROM orders o JOIN customers c \
               ON o.o_cust = c.c_id GROUP BY c_region ORDER BY c_region";
    let a = run(&cat, sql, 4);
    let b = run(&cat, sql, 4);
    assert_eq!(a.result, b.result);
    assert_eq!(a.metrics.latency, b.metrics.latency);
    assert_eq!(a.metrics.cost, b.metrics.cost);
}

#[test]
fn billing_includes_pinned_build_nodes() {
    let cat = catalog();
    let (plan, graph) = plan_of(
        &cat,
        "SELECT o_id FROM orders o JOIN customers c ON o.o_cust = c.c_id",
    );
    let exec = Executor::new(&cat, ExecutionConfig::default());
    let dops = vec![2; graph.len()];
    let out = exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap();
    // The build pipeline (customers) must stay leased until the probe ends.
    let build = &out.metrics.pipelines[0];
    let probe = out.metrics.pipelines.last().unwrap();
    assert!(build.released >= probe.finish);
    assert!(build.machine_time >= build.finish.since(build.start));
    // Total machine time exceeds the sum of busy times (idle + pinned).
    assert!(out.metrics.machine_time.as_secs_f64() > 0.0);
    assert!(out.metrics.utilization() <= 1.0);
}

#[test]
fn true_cardinalities_recorded_per_node() {
    let cat = catalog();
    let (plan, graph) = plan_of(&cat, "SELECT o_id FROM orders WHERE o_total < 10.0");
    let exec = Executor::new(&cat, ExecutionConfig::default());
    let out = exec
        .execute(&plan, &graph, &vec![2; graph.len()], &mut NoScaling)
        .unwrap();
    // Scan node actual = post-filter rows.
    assert_eq!(out.metrics.node_actual_rows[0], 200);
}

#[test]
fn empty_result_keeps_schema() {
    let cat = catalog();
    let out = run(&cat, "SELECT o_id FROM orders WHERE o_total < 0.0", 2);
    assert_eq!(out.result.rows(), 0);
    assert_eq!(out.result.schema().arity(), 1);
}

#[test]
fn global_aggregate_over_empty_input() {
    let cat = catalog();
    let out = run(&cat, "SELECT COUNT(*) FROM orders WHERE o_total < 0.0", 2);
    assert_eq!(out.result.rows(), 1);
    assert_eq!(out.result.row(0)[0], Value::Int(0));
}

/// A controller that scales a specific pipeline up at the first check.
struct ScaleUpOnce {
    target: u32,
    fired: bool,
}

impl ScalingController for ScaleUpOnce {
    fn on_progress(&mut self, p: &PipelineProgress) -> ScaleDecision {
        if !self.fired && p.morsels_total > 4 {
            self.fired = true;
            ScaleDecision::SetDop(self.target)
        } else {
            ScaleDecision::Keep
        }
    }
}

#[test]
fn mid_pipeline_scale_up_reduces_latency() {
    let cat = catalog();
    let sql = "SELECT COUNT(*) FROM orders WHERE o_total < 900.0";
    let (plan, graph) = plan_of(&cat, sql);
    // Small morsels + fast resize: plenty of work left after the first
    // progress check, so mid-pipeline scale-up can pay off.
    let config = ExecutionConfig {
        morsel_rows: 512,
        resize_latency: SimDuration::from_millis(50),
        check_interval: 4,
        ..ExecutionConfig::default()
    };
    let exec = Executor::new(&cat, config);
    let dops = vec![1; graph.len()];

    let static_run = exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap();
    let mut ctrl = ScaleUpOnce {
        target: 8,
        fired: false,
    };
    let scaled = exec.execute(&plan, &graph, &dops, &mut ctrl).unwrap();
    assert_eq!(scaled.result.row(0)[0], static_run.result.row(0)[0]);
    assert!(scaled.metrics.resize_events >= 1);
    assert!(
        scaled.metrics.latency < static_run.metrics.latency,
        "scaling up mid-pipeline should cut latency: {} vs {}",
        scaled.metrics.latency,
        static_run.metrics.latency
    );
}

/// A controller that scales down to 1 immediately.
struct ScaleDownOnce {
    fired: bool,
}

impl ScalingController for ScaleDownOnce {
    fn on_progress(&mut self, _p: &PipelineProgress) -> ScaleDecision {
        if !self.fired {
            self.fired = true;
            ScaleDecision::SetDop(1)
        } else {
            ScaleDecision::Keep
        }
    }
}

#[test]
fn mid_pipeline_scale_down_trims_cost() {
    let cat = catalog();
    let sql = "SELECT COUNT(*) FROM orders";
    let (plan, graph) = plan_of(&cat, sql);
    let exec = Executor::new(&cat, ExecutionConfig::default());
    let dops = vec![8; graph.len()];
    let wide = exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap();
    let mut ctrl = ScaleDownOnce { fired: false };
    let trimmed = exec.execute(&plan, &graph, &dops, &mut ctrl).unwrap();
    assert_eq!(trimmed.result.row(0)[0], wide.result.row(0)[0]);
    assert!(trimmed.metrics.resize_events >= 1);
    assert!(
        trimmed.metrics.cost < wide.metrics.cost,
        "scaling down should save dollars: {} vs {}",
        trimmed.metrics.cost,
        wide.metrics.cost
    );
}

#[test]
fn provisioning_latency_charged_before_work() {
    let cat = catalog();
    let out = run(&cat, "SELECT o_id FROM orders LIMIT 1", 1);
    // Latency includes the 500ms cluster creation plus startup.
    assert!(out.metrics.latency >= SimDuration::from_millis(500));
}

#[test]
fn projection_arithmetic_in_results() {
    let cat = catalog();
    let out = run(
        &cat,
        "SELECT o_id, o_total * 2.0 AS dbl FROM orders WHERE o_id < 3 ORDER BY o_id",
        2,
    );
    assert_eq!(out.result.rows(), 3);
    assert_eq!(out.result.row(2)[1], Value::Float(4.0));
}

#[test]
fn sort_limit_pushdown_keeps_results_and_trims_materialization() {
    let cat = catalog();
    // Top-7 by total: the sort sink materializes only 7 rows (node_actual
    // for the sort node records the top-k output, not all survivors).
    let (plan, graph) = plan_of(
        &cat,
        "SELECT o_id, o_total FROM orders ORDER BY o_total DESC, o_id ASC LIMIT 7",
    );
    let exec = Executor::new(&cat, ExecutionConfig::default());
    let out = exec
        .execute(&plan, &graph, &vec![2; graph.len()], &mut NoScaling)
        .unwrap();
    assert_eq!(out.result.rows(), 7);
    assert_eq!(out.result.row(0)[1], Value::Float(999.0));
    assert_eq!(out.result.row(0)[0], Value::Int(999));
    let sort_node = plan
        .nodes
        .iter()
        .position(|n| matches!(n.op, ci_plan::physical::PhysicalOp::Sort { .. }))
        .expect("plan has a sort");
    assert_eq!(
        out.metrics.node_actual_rows[sort_node], 7,
        "LIMIT pushed into the sort sink"
    );
}

#[test]
fn exchanges_ship_wire_format_not_decoded_bytes() {
    let cat = catalog();
    // Group by the dict-encoded region string: the exchange feeding the
    // aggregate ships bit-packed ids plus a one-time two-entry dictionary,
    // far below the decoded "EU"/"US" string widths.
    let out = run(
        &cat,
        "SELECT c_region, COUNT(*) FROM customers GROUP BY c_region",
        4,
    );
    let wire: u64 = out
        .metrics
        .pipelines
        .iter()
        .map(|p| p.exchange_wire_bytes)
        .sum();
    let decoded: u64 = out
        .metrics
        .pipelines
        .iter()
        .map(|p| p.exchange_decoded_bytes)
        .sum();
    assert!(wire > 0, "the group-by exchanges data");
    // The stream carries the whole scan row (the int key column is
    // incompressible), but the dict-encoded string column collapses to
    // bit-packed ids, so the total payload still shrinks measurably.
    assert!(
        (wire as f64) < 0.8 * decoded as f64,
        "wire format should shrink the exchange: wire {wire} vs decoded {decoded}"
    );
}

/// Poisons a mutex the way a contained panic does: a thread dies holding it.
fn poison<T: Send + 'static>(lock: &Arc<Mutex<T>>) {
    let lock = lock.clone();
    let holder = std::thread::spawn(move || {
        let _held = lock.lock().unwrap();
        panic!("holder dies with the lock held");
    });
    assert!(holder.join().is_err());
}

/// Poisons the shared tier simulator as the first pipeline starts — after
/// the query's `begin_query`, before the accounting loop's first access.
struct PoisonSimAtStart(Arc<Mutex<TierCacheSim>>);

impl ScalingController for PoisonSimAtStart {
    fn on_pipeline_start(&mut self, ctx: &PipelineStart) -> u32 {
        if !self.0.is_poisoned() {
            poison(&self.0);
        }
        ctx.planned_dop
    }
}

#[test]
fn poisoned_tier_simulator_is_a_typed_error_not_a_panic() {
    let cat = catalog();
    let (plan, graph) = plan_of(&cat, "SELECT COUNT(*) FROM orders WHERE o_total < 900.0");
    let dops = vec![2; graph.len()];
    let pricing = TierPricing::standard();
    let config_with = |sim: &Arc<Mutex<TierCacheSim>>| ExecutionConfig {
        tiers: Some(pricing.clone()),
        tier_sim: Some(sim.clone()),
        ..ExecutionConfig::default()
    };
    let sim = Arc::new(Mutex::new(TierCacheSim::new(pricing.clone())));
    let exec = Executor::new(&cat, config_with(&sim));
    let healthy = exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap();

    let is_typed = |e: &CiError| matches!(e, CiError::Exec(m) if m.contains("poisoned"));
    // Mid-query: the accounting loop meets the poisoned lock.
    let mut saboteur = PoisonSimAtStart(sim.clone());
    let e = exec
        .execute(&plan, &graph, &dops, &mut saboteur)
        .unwrap_err();
    assert!(is_typed(&e), "{e}");
    // Next query on the same config: refused up front, still no panic.
    let e = exec
        .execute(&plan, &graph, &dops, &mut NoScaling)
        .unwrap_err();
    assert!(is_typed(&e), "{e}");
    // A fresh simulator serves the same rows again.
    let fresh = Arc::new(Mutex::new(TierCacheSim::new(pricing.clone())));
    let again = Executor::new(&cat, config_with(&fresh))
        .execute(&plan, &graph, &dops, &mut NoScaling)
        .unwrap();
    assert_eq!(again.result, healthy.result);
}

const N_FACTS: i64 = 3_000;

/// Row `i` of `facts`: five group columns of three types, a string join key
/// and a payload.
fn fact(i: i64) -> Vec<Value> {
    vec![
        Value::Int(i % 3),
        Value::Int(i % 2),
        Value::Str(format!("c{}", i % 4)),
        Value::Float((i % 2) as f64 / 2.0),
        Value::Int(i % 101),
        Value::Str(format!("n{}", i % 7)),
        Value::Int(i),
    ]
}

/// Row `j` of `names`: names `n0`..`n4` twice over and three that match no
/// fact; `facts` in turn holds `n5`, `n6`, which match no name.
fn name(j: i64) -> Vec<Value> {
    let n = if j < 10 { j % 5 } else { j + 90 };
    vec![Value::Str(format!("n{n}")), Value::Int(j * 100)]
}

/// `facts` (3 000 rows in 256-row partitions) and `names` (13 rows).
/// Registration dict-encodes each table's string columns, so the two name
/// columns reach the join under different dictionaries, neither holding
/// all of the other's strings. (No raw `Utf8` column of a registered table
/// reaches the executor; `join_properties.rs` keys those at the operators.)
fn wide_catalog() -> Catalog {
    let table = |id, name: &str, fields: Vec<Field>, rows: Vec<Vec<Value>>, part| {
        let schema = Arc::new(Schema::of(fields));
        let mut columns: Vec<ColumnData> = (schema.fields().iter())
            .map(|f| ColumnData::with_capacity(f.data_type, rows.len()))
            .collect();
        for row in rows {
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v).unwrap();
            }
        }
        let mut b = TableBuilder::new(TableId::new(id), name, schema.clone(), part).unwrap();
        b.append(RecordBatch::new(schema, columns).unwrap())
            .unwrap();
        b.finish().unwrap()
    };
    let mut c = Catalog::new();
    let fact_fields = [
        ("f_a", DataType::Int64),
        ("f_b", DataType::Int64),
        ("f_c", DataType::Utf8),
        ("f_d", DataType::Float64),
        ("f_e", DataType::Int64),
        ("f_name", DataType::Utf8),
        ("f_v", DataType::Int64),
    ];
    let fact_fields = fact_fields.map(|(n, t)| Field::new(n, t)).to_vec();
    c.register(table(
        0,
        "facts",
        fact_fields,
        (0..N_FACTS).map(fact).collect(),
        256,
    ));
    let name_fields = vec![
        Field::new("n_name", DataType::Utf8),
        Field::new("n_w", DataType::Int64),
    ];
    c.register(table(
        1,
        "names",
        name_fields,
        (0..13).map(name).collect(),
        8,
    ));
    c
}

/// The result rows of `sql` over [`wide_catalog`] in `Simulate` — having
/// checked `Parallel { workers: 2 }` returns the same batch — sorted by
/// their text, for comparison with an oracle that fixes no order.
fn wide_rows_in_both_modes(sql: &str) -> Vec<Vec<Value>> {
    let cat = wide_catalog();
    let (plan, graph) = plan_of(&cat, sql);
    let dops = vec![2; graph.len()];
    let run_in = |mode| {
        let config = ExecutionConfig {
            mode,
            morsel_rows: 500,
            ..ExecutionConfig::default()
        };
        let exec = Executor::new(&cat, config);
        exec.execute(&plan, &graph, &dops, &mut NoScaling).unwrap()
    };
    let simulated = run_in(ExecutionMode::Simulate);
    let parallel = run_in(ExecutionMode::Parallel { workers: 2 });
    assert_eq!(parallel.result, simulated.result, "{sql}");
    assert_eq!(parallel.metrics.cost, simulated.metrics.cost, "{sql}");
    let result = &simulated.result;
    let mut rows: Vec<Vec<Value>> = (0..result.rows()).map(|r| result.row(r)).collect();
    rows.sort_by_key(|row| format!("{row:?}"));
    rows
}

#[test]
fn five_column_group_by_matches_scan_oracle_in_both_modes() {
    let got = wide_rows_in_both_modes(
        "SELECT f_a, f_b, f_c, f_d, f_e, COUNT(*) AS n, SUM(f_v) AS s FROM facts \
         GROUP BY f_a, f_b, f_c, f_d, f_e",
    );
    // Scan oracle: (key, count, sum) by linear search.
    let mut oracle: Vec<(Vec<Value>, i64, i64)> = Vec::new();
    for i in 0..N_FACTS {
        let key = fact(i)[..5].to_vec();
        match oracle.iter_mut().find(|g| g.0 == key) {
            Some(g) => {
                g.1 += 1;
                g.2 += i;
            }
            None => oracle.push((key, 1, i)),
        }
    }
    // f_b and f_d move together and f_c's parity is f_b's: 3 × 4 × 101
    // groups, a hundred and one to each choice of the first four columns.
    assert_eq!(oracle.len(), 1212);
    let mut expected: Vec<Vec<Value>> = oracle
        .into_iter()
        .map(|(key, n, s)| key.into_iter().chain([n, s].map(Value::Int)).collect())
        .collect();
    expected.sort_by_key(|row| format!("{row:?}"));
    assert_eq!(got, expected);
}

#[test]
fn string_keyed_join_across_dictionaries_matches_nested_loop_in_both_modes() {
    let got = wide_rows_in_both_modes(
        "SELECT f_v, n_w, n_name FROM facts f JOIN names n ON f.f_name = n.n_name",
    );
    let mut expected: Vec<Vec<Value>> = Vec::new();
    for i in 0..N_FACTS {
        for j in 0..13 {
            if fact(i)[5] == name(j)[0] {
                expected.push(vec![
                    fact(i)[6].clone(),
                    name(j)[1].clone(),
                    name(j)[0].clone(),
                ]);
            }
        }
    }
    // Five of seven fact names match, each two of the thirteen names.
    assert!(expected.len() > 4_000 && expected.len() < 2 * N_FACTS as usize);
    expected.sort_by_key(|row| format!("{row:?}"));
    assert_eq!(got, expected);
}
