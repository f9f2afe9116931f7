//! Workspace-level integration tests: the public `cost-intel` API, end to
//! end, across all subsystems.

use std::sync::{Arc, Mutex};

use cost_intel::autotune::TuningAction;
use cost_intel::exec::{ExecutionMode, PageSourceMode, TierCacheSim, TierPricing};
use cost_intel::types::money::Dollars;
use cost_intel::types::SimDuration;
use cost_intel::workload::{CabGenerator, TraceConfig, WorkloadTrace};
use cost_intel::{Constraint, Warehouse, WarehouseConfig};

fn warehouse(scale: f64) -> Warehouse {
    let catalog = CabGenerator::at_scale(scale)
        .build_catalog()
        .expect("catalog");
    Warehouse::new(catalog, WarehouseConfig::default())
}

#[test]
fn sla_query_is_correct_and_billed() {
    let mut w = warehouse(0.1);
    let r = w
        .submit(
            "SELECT c_region, COUNT(*) AS n FROM orders o \
             JOIN customer c ON o.o_cust = c.c_id GROUP BY c_region ORDER BY c_region",
            Constraint::LatencySla(SimDuration::from_secs(20)),
        )
        .expect("query");
    assert_eq!(r.result.rows(), 5);
    // Row counts across regions must sum to the orders table size.
    let total: i64 = (0..r.result.rows())
        .map(|i| match r.result.row(i)[1] {
            cost_intel::storage::Value::Int(n) => n,
            ref other => panic!("expected int count, got {other:?}"),
        })
        .sum();
    assert_eq!(
        total as u64,
        w.catalog().get("orders").unwrap().stats.row_count
    );
    assert!(r.constraint_met);
    assert!(r.cost.amount() > 0.0);
    assert!(r.machine_time.as_secs_f64() > 0.0);
}

#[test]
fn identical_submissions_are_deterministic() {
    let mut w1 = warehouse(0.05);
    let mut w2 = warehouse(0.05);
    let sql = "SELECT l_qty, SUM(l_price) FROM lineitem GROUP BY l_qty ORDER BY l_qty";
    let a = w1.submit(sql, Constraint::MinCost).expect("a");
    let b = w2.submit(sql, Constraint::MinCost).expect("b");
    assert_eq!(a.result, b.result);
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.latency, b.latency);
}

#[test]
fn budget_vs_sla_trade_off() {
    let mut w = warehouse(0.2);
    let sql = "SELECT c_segment, SUM(l_price) FROM lineitem l \
               JOIN orders o ON l.l_order = o.o_id \
               JOIN customer c ON o.o_cust = c.c_id GROUP BY c_segment";
    let fast = w
        .submit(sql, Constraint::LatencySla(SimDuration::from_millis(1800)))
        .expect("fast");
    let cheap = w.submit(sql, Constraint::MinCost).expect("cheap");
    assert_eq!(fast.result.rows(), cheap.result.rows());
    assert!(fast.latency <= cheap.latency);
    assert!(cheap.cost.amount() <= fast.cost.amount() + 1e-12);
}

#[test]
fn full_loop_trace_tune_verify() {
    let gen = CabGenerator::at_scale(0.1);
    let catalog = gen.build_catalog().expect("catalog");
    let mut w = Warehouse::new(catalog, WarehouseConfig::default());
    let trace = WorkloadTrace::generate(
        &TraceConfig {
            hours: 8.0,
            recurring_per_hour: 8.0,
            adhoc_per_hour: 1.0,
            recurring_templates: vec![3],
            seed: 3,
        },
        &gen,
    );
    let reports = w.run_trace(&trace, Constraint::MinCost).expect("trace");
    assert!(!reports.is_empty());
    let per_q_before: f64 =
        reports.iter().map(|r| r.cost.amount()).sum::<f64>() / reports.len() as f64;
    // Every box of the paper's Figure 3 was exercised on the way: plans
    // carry predictions, each pipeline got a DOP, the history reached the
    // statistics service and the workload's join graph was learned.
    for r in &reports {
        assert!(r.predicted_cost.amount() > 0.0 && r.predicted_latency > SimDuration::ZERO);
        assert!(!r.dops.is_empty() && r.dops.iter().all(|&d| d >= 1));
    }
    let (recorded, skipped) = w.with_stats(|s| s.ingest_counts());
    assert_eq!((recorded as usize, skipped), (reports.len(), 0));
    assert!(w.with_stats(|s| !s.join_edges().is_empty()));

    let proposals = w.tuning_proposals().expect("proposals");
    assert!(!proposals.is_empty());
    let accepted: Vec<TuningAction> = proposals
        .iter()
        .filter(|p| p.accepted)
        .map(|p| p.action.clone())
        .collect();
    assert!(
        !accepted.is_empty(),
        "a hot recurring query should justify tuning"
    );
    let applied = accepted.iter().filter(|a| w.apply(a).is_ok()).count();
    assert!(applied > 0, "no accepted action could be applied");

    let trace2 = WorkloadTrace::generate(
        &TraceConfig {
            hours: 8.0,
            recurring_per_hour: 8.0,
            adhoc_per_hour: 1.0,
            recurring_templates: vec![3],
            seed: 4,
        },
        &gen,
    );
    let reports2 = w.run_trace(&trace2, Constraint::MinCost).expect("trace2");
    let per_q_after: f64 =
        reports2.iter().map(|r| r.cost.amount()).sum::<f64>() / reports2.len() as f64;
    assert!(
        per_q_after < per_q_before,
        "tuning must pay off: {per_q_before} -> {per_q_after}"
    );
}

#[test]
fn infeasible_budget_is_flagged_not_hidden() {
    let mut w = warehouse(0.1);
    let r = w
        .submit(
            "SELECT COUNT(*) FROM lineitem",
            Constraint::Budget(Dollars::new(1e-9)),
        )
        .expect("query still runs best-effort");
    assert!(!r.feasible, "impossible budget must be flagged infeasible");
}

#[test]
fn monitor_disabled_matches_static_plan() {
    let gen = CabGenerator::at_scale(0.05);
    let catalog = gen.build_catalog().expect("catalog");
    let cfg = WarehouseConfig {
        disable_monitor: true,
        ..Default::default()
    };
    let mut w = Warehouse::new(catalog, cfg);
    let r = w
        .submit("SELECT COUNT(*) FROM orders", Constraint::MinCost)
        .expect("query");
    assert_eq!(r.resize_events, 0);
}

/// A warehouse whose scans read from `source` in `mode`, pricing fetches
/// at the standard tier menu with one cache simulator shared across its
/// queries.
fn priced_warehouse(scale: f64, source: PageSourceMode, mode: ExecutionMode) -> Warehouse {
    let mut config = WarehouseConfig::default();
    let pricing = TierPricing::standard();
    config.execution.page_source = source;
    config.execution.mode = mode;
    config.execution.tier_sim = Some(Arc::new(Mutex::new(TierCacheSim::new(pricing.clone()))));
    config.execution.tiers = Some(pricing);
    let catalog = CabGenerator::at_scale(scale)
        .build_catalog()
        .expect("catalog");
    Warehouse::new(catalog, config)
}

const EARLY_ORDERS: &str = "SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_date < 300";

/// A recluster rewrites `orders` under its id while the cache holds copies
/// of its old partitions. Every page source must then answer from the new
/// partitions: the same rows and the same dollars from resident batches,
/// from the page files, and through the tier stack. The pool's workers
/// read partitions before the ledger places them, so under `Parallel` a
/// stale cached copy is read even where the simulator's next admission
/// would have replaced it.
#[test]
fn a_recluster_answers_alike_from_every_page_source() {
    let recluster = TuningAction::Recluster {
        table: "orders".into(),
        column: "o_date".into(),
    };
    let pool = ExecutionMode::Parallel { workers: 2 };
    let answers: Vec<_> = [
        (PageSourceMode::Mem, ExecutionMode::Simulate),
        (PageSourceMode::Disk, ExecutionMode::Simulate),
        (PageSourceMode::Tiered, ExecutionMode::Simulate),
        (PageSourceMode::Tiered, pool),
    ]
    .into_iter()
    .map(|(source, mode)| {
        let mut w = priced_warehouse(0.5, source, mode);
        // Four full scans graduate `orders`' first partitions from the SSD
        // tier to memory, where the filtered query below finds partition 0.
        for _ in 0..4 {
            w.submit("SELECT SUM(o_total) FROM orders", Constraint::MinCost)
                .expect("warm-up");
        }
        w.apply(&recluster).expect("recluster");
        let r = w.submit(EARLY_ORDERS, Constraint::MinCost).expect("query");
        ((source, mode), r.result, r.cost)
    })
    .collect();
    let (_, want_rows, want_cost) = &answers[0];
    for (cell, rows, cost) in &answers[1..] {
        assert_eq!(rows, want_rows, "{cell:?}: rows after the recluster");
        assert_eq!(cost, want_cost, "{cell:?}: dollars after the recluster");
    }
}
