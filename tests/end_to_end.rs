//! Workspace-level integration tests: the public `cost-intel` API, end to
//! end, across all subsystems.

use cost_intel::autotune::TuningAction;
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
