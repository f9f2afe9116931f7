//! Reusing wire plans never moves a bill.
//!
//! A scan morsel that spans its whole partition brings the partition's wire
//! sketch to the first exchange, and a column a full-match probe passes
//! through keeps its plan at the next one. Both reuses must be invisible in
//! the accounting: the same query over the same rows, once where the plans
//! can be reused and once where no partition column is the `Arc` its stored
//! sketch covers, bills bit-identical per-node wire bytes, per-pipeline
//! exchange wire bytes and `Dollars` — in both execution modes, with
//! morsels spanning whole partitions and morsels cutting them.

use std::sync::Arc;

use ci_catalog::{Catalog, ErrorInjector};
use ci_exec::{ExecutionConfig, ExecutionMode, Executor, NoScaling, QueryOutcome, TraceLevel};
use ci_plan::{bind, JoinTree};
use ci_sql::parse;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::{Table, TableBuilder};
use ci_storage::value::DataType;
use ci_types::TableId;

const N_ORDERS: i64 = 6_000;
const N_CUST: i64 = 250;
const ORDERS_PER_PART: usize = 1024;

/// `orders` probes `customers` on a distinct key every order matches, so
/// the probe passes its columns through; the aggregate repartitions after.
const QUERY: &str = "SELECT c_region, COUNT(*), SUM(o_total) FROM orders \
                     JOIN customers ON o_cust = c_id GROUP BY c_region";

/// A registered-shape table (dict-encoded); with `stale`, every partition's
/// columns are swapped for equal-valued copies its wire sketch does not
/// cover, so every plan is sketched afresh.
fn table(id: u32, name: &str, rows_per_part: usize, batch: RecordBatch, stale: bool) -> Table {
    let mut b = TableBuilder::new(
        TableId::new(id),
        name,
        batch.schema().clone(),
        rows_per_part,
    )
    .unwrap();
    b.append(batch).unwrap();
    let mut t = b.finish().unwrap().dict_encoded();
    for part in &mut t.partitions {
        if stale {
            let copies = part.batch.columns().iter().map(|c| (**c).clone()).collect();
            part.batch = RecordBatch::new(part.batch.schema().clone(), copies).unwrap();
        }
        let arity = part.batch.columns().len();
        let covered = (0..arity)
            .filter(|&i| part.wire.covers(&part.batch, i))
            .count();
        assert_eq!(covered, if stale { 0 } else { arity });
    }
    t
}

fn catalog(stale: bool) -> Catalog {
    let orders = Arc::new(Schema::of(vec![
        Field::new("o_id", DataType::Int64),
        Field::new("o_cust", DataType::Int64),
        Field::new("o_total", DataType::Float64),
        Field::new("o_status", DataType::Utf8),
    ]));
    let orders = RecordBatch::new(
        orders,
        vec![
            ColumnData::Int64((0..N_ORDERS).collect()),
            ColumnData::Int64((0..N_ORDERS).map(|i| i * 7 % N_CUST).collect()),
            ColumnData::Float64((0..N_ORDERS).map(|i| (i % 997) as f64 * 0.5).collect()),
            ColumnData::strings((0..N_ORDERS).map(|i| format!("s{}", i % 3))),
        ],
    )
    .unwrap();
    let cust = Arc::new(Schema::of(vec![
        Field::new("c_id", DataType::Int64),
        Field::new("c_region", DataType::Utf8),
    ]));
    let cust = RecordBatch::new(
        cust,
        vec![
            ColumnData::Int64((0..N_CUST).collect()),
            ColumnData::strings((0..N_CUST).map(|i| format!("region-{}", i % 5))),
        ],
    )
    .unwrap();
    let mut c = Catalog::new();
    c.register(table(0, "orders", ORDERS_PER_PART, orders, stale));
    c.register(table(1, "customers", 128, cust, stale));
    c
}

fn run(cat: &Catalog, mode: ExecutionMode, morsel_rows: usize) -> QueryOutcome {
    let b = bind(&parse(QUERY).unwrap(), cat).unwrap();
    let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
    let plan = ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
    let graph = ci_plan::PipelineGraph::decompose(&plan).unwrap();
    let config = ExecutionConfig {
        mode,
        morsel_rows,
        trace: TraceLevel::Spans,
        ..ExecutionConfig::default()
    };
    let dops = vec![2; graph.len()];
    Executor::new(cat, config)
        .execute(&plan, &graph, &dops, &mut NoScaling)
        .unwrap()
}

/// Everything wire planning can reach: per-node wire bytes and dollars,
/// per-pipeline exchange bytes, the bill, and the rows.
#[derive(Debug, PartialEq)]
struct Bill {
    node_wire_bytes: Vec<u64>,
    node_dollars: Vec<u64>,
    exchange_wire_bytes: Vec<u64>,
    cost: u64,
    rows: Vec<String>,
}

fn bill(out: &QueryOutcome) -> Bill {
    let profile = &out.trace.as_ref().expect("traced").profile;
    let m = &out.metrics;
    Bill {
        node_wire_bytes: profile.nodes.iter().map(|n| n.wire_bytes).collect(),
        node_dollars: (m.nodes.iter())
            .map(|n| n.dollars.amount().to_bits())
            .collect(),
        exchange_wire_bytes: m.pipelines.iter().map(|p| p.exchange_wire_bytes).collect(),
        cost: m.cost.amount().to_bits(),
        rows: (0..out.result.rows())
            .map(|i| format!("{:?}", out.result.row(i)))
            .collect(),
    }
}

#[test]
fn reused_wire_plans_bill_like_fresh_ones() {
    let (reusing, stale) = (catalog(false), catalog(true));
    for mode in [
        ExecutionMode::Simulate,
        ExecutionMode::Parallel { workers: 2 },
    ] {
        for morsel_rows in [4 * ORDERS_PER_PART, ORDERS_PER_PART / 3] {
            let (got, want) = (
                run(&reusing, mode, morsel_rows),
                run(&stale, mode, morsel_rows),
            );
            let label = format!("{mode:?}, {morsel_rows}-row morsels");
            let got = bill(&got);
            assert_eq!(got, bill(&want), "{label}");
            assert!(
                got.exchange_wire_bytes.iter().sum::<u64>() > 0,
                "{label}: the plan ships"
            );
            assert_eq!(got.rows.len(), 5, "{label}: one row per region");
        }
    }
}
