//! Property tests: deterministic fault injection never changes answers.
//!
//! The headline invariant of the fault subsystem, in three parts:
//!
//! * **Recoverable faults are invisible in the result**: for any seeded
//!   recoverable fault schedule, result rows are bit-identical to the
//!   fault-free run — faults change the bill, never the answer.
//! * **The bill itself is deterministic**: a fixed `(seed, profile)` yields
//!   bit-identical `Dollars` (and fault counters) across repeated runs *and*
//!   across `Simulate` vs `Parallel` at any worker count. The fault schedule
//!   is a pure function of `(seed, pipeline, morsel)`, so execution mode
//!   cannot perturb it.
//! * **Unrecoverable schedules fail loudly and cleanly**: a permanently
//!   failing fetch surfaces as a typed `CiError::Fault` — no panic, no
//!   wedged worker pool — and the same (shared) pool serves later queries.

use std::sync::Arc;

use ci_catalog::{Catalog, ErrorInjector};
use ci_exec::{
    ExecutionConfig, ExecutionMode, Executor, FaultPlan, FaultProfile, NoScaling, PipelineMetrics,
    QueryOutcome, TierPricing, TraceLevel,
};
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

/// Same shape coverage as `parallel_equivalence`: scan filters, projections,
/// exchange/gather, join build/probe, group-by, sort, and limit.
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
];

fn plan_of(cat: &Catalog, sql: &str) -> (PhysicalPlan, PipelineGraph) {
    let b = bind(&parse(sql).unwrap(), cat).unwrap();
    let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
    let plan = ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
    let graph = PipelineGraph::decompose(&plan).unwrap();
    (plan, graph)
}

/// Runs under the given fault plan, with small morsels so fault draws get
/// plenty of chances to fire.
fn run_faulted(
    cat: &Catalog,
    sql: &str,
    mode: ExecutionMode,
    faults: Option<FaultPlan>,
) -> ci_types::Result<QueryOutcome> {
    let (plan, graph) = plan_of(cat, sql);
    let exec = Executor::new(
        cat,
        ExecutionConfig {
            morsel_rows: 256,
            mode,
            faults,
            ..ExecutionConfig::default()
        },
    );
    let dops = vec![4u32; graph.len()];
    exec.execute(&plan, &graph, &dops, &mut NoScaling)
}

/// True output rows per plan node.
fn node_rows(q: &QueryOutcome) -> Vec<u64> {
    q.metrics.nodes.iter().map(|n| n.actual_rows).collect()
}

/// Whole-query fault-event total.
fn faults_total(q: &QueryOutcome) -> u32 {
    q.metrics.pipelines.iter().map(|p| p.faults_injected).sum()
}

/// Everything except wall-clock/pool identity must match bit-for-bit —
/// including the fault counters (`fetch_retries`, `hedged_morsels`,
/// `faults_injected`, `recovery_virtual_ns`, `retry_bytes`), which are part of
/// the determinism contract.
fn assert_equivalent(sim: &QueryOutcome, par: &QueryOutcome, label: &str) -> Result<(), String> {
    prop_assert_eq!(&par.result, &sim.result, "{label}: result rows");
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
        par.metrics.pipelines.len(),
        sim.metrics.pipelines.len(),
        "{label}: pipeline count"
    );
    for (pp, sp) in par.metrics.pipelines.iter().zip(&sim.metrics.pipelines) {
        let mut masked = pp.clone();
        masked.measured_wall_ns = sp.measured_wall_ns;
        masked.pool_workers = sp.pool_workers;
        masked.pool_reuses = sp.pool_reuses;
        masked.agg_partials = sp.agg_partials;
        prop_assert_eq!(&masked, sp, "{label}: pipeline {:?} metrics", sp.id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recoverable chaos is invisible in the answer and strictly visible in
    /// the bill: same rows as the fault-free run, never a cheaper query.
    #[test]
    fn recoverable_faults_never_change_results(
        sql in select(QUERIES.to_vec()),
        seed in select(vec![0u64, 1, 7, 42, 1234]),
        mode in select(vec![
            ExecutionMode::Simulate,
            ExecutionMode::Parallel { workers: 3 },
        ]),
    ) {
        let cat = catalog();
        let clean = run_faulted(&cat, sql, mode, None).unwrap();
        let chaos = run_faulted(&cat, sql, mode, Some(FaultPlan::chaos(seed))).unwrap();
        let label = format!("seed={seed} mode={mode:?} [{sql}]");

        prop_assert_eq!(&chaos.result, &clean.result, "{label}: result rows");
        prop_assert_eq!(
            node_rows(&chaos),
            node_rows(&clean),
            "{label}: node cardinalities"
        );
        prop_assert!(
            chaos.metrics.cost >= clean.metrics.cost,
            "{label}: recovery must never make a query cheaper \
             (chaos {:?} < clean {:?})",
            chaos.metrics.cost,
            clean.metrics.cost
        );
        // The fault-free run must report zero fault activity.
        prop_assert_eq!(faults_total(&clean), 0, "{label}: clean run injected faults");
        for p in &clean.metrics.pipelines {
            prop_assert_eq!(p.fetch_retries, 0, "{label}: clean retries");
            prop_assert_eq!(p.recovery_virtual_ns, 0, "{label}: clean recovery");
            prop_assert_eq!(p.retry_bytes, 0, "{label}: clean retry bytes");
        }
    }

    /// A fixed seed is a fixed bill: repeated runs and *both* execution
    /// modes agree bit-for-bit on Dollars and every fault counter.
    #[test]
    fn fixed_seed_bills_identically_across_modes(
        sql in select(QUERIES.to_vec()),
        seed in select(vec![0u64, 3, 11, 99]),
        workers in select(vec![1usize, 2, 4, 7]),
    ) {
        let cat = catalog();
        let plan = Some(FaultPlan::chaos(seed));
        let label = format!("seed={seed} workers={workers} [{sql}]");

        let sim = run_faulted(&cat, sql, ExecutionMode::Simulate, plan.clone()).unwrap();
        let sim2 = run_faulted(&cat, sql, ExecutionMode::Simulate, plan.clone()).unwrap();
        assert_equivalent(&sim, &sim2, &format!("{label} (sim repeat)"))?;

        let par = run_faulted(
            &cat,
            sql,
            ExecutionMode::Parallel { workers },
            plan,
        ).unwrap();
        assert_equivalent(&sim, &par, &label)?;
    }
}

/// Chaos at morsel granularity really fires: on a multi-pipeline scan-join
/// with ~24 scan morsels per pipeline, the light profile injects faults,
/// bills recovery time, and both modes agree on every counter.
#[test]
fn chaos_actually_injects_and_bills() {
    let cat = catalog();
    let sql = "SELECT c_region, SUM(o_total) AS rev, COUNT(*) AS n FROM orders o \
               JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region ORDER BY c_region";
    let plan = Some(FaultPlan::chaos(42));
    let sim = run_faulted(&cat, sql, ExecutionMode::Simulate, plan.clone()).unwrap();
    let par = run_faulted(&cat, sql, ExecutionMode::Parallel { workers: 4 }, plan).unwrap();

    assert!(
        faults_total(&sim) > 0,
        "light chaos must fire at this scale"
    );
    let recovery: u64 = sim
        .metrics
        .pipelines
        .iter()
        .map(|p| p.recovery_virtual_ns)
        .sum();
    assert!(recovery > 0, "injected faults must bill recovery time");
    for (pp, sp) in par.metrics.pipelines.iter().zip(&sim.metrics.pipelines) {
        assert_eq!(pp.faults_injected, sp.faults_injected, "{:?}", sp.id);
        assert_eq!(pp.fetch_retries, sp.fetch_retries, "{:?}", sp.id);
        assert_eq!(pp.hedged_morsels, sp.hedged_morsels, "{:?}", sp.id);
        assert_eq!(
            pp.recovery_virtual_ns, sp.recovery_virtual_ns,
            "{:?}",
            sp.id
        );
        assert_eq!(pp.retry_bytes, sp.retry_bytes, "{:?}", sp.id);
    }
    assert_eq!(par.result, sim.result);
    assert_eq!(par.metrics.cost, sim.metrics.cost);
}

/// Per-node dollar attribution is part of the determinism contract: under
/// chaos, every query's per-node dollars fold back to the total bill
/// *bit-exactly*, and the per-node records (the attribution and the
/// busy-time basis behind it) are bit-identical across Simulate and
/// Parallel at 2 and 4 workers.
#[test]
fn node_dollar_attribution_sums_exactly_to_cost() {
    use ci_types::Dollars;
    let cat = catalog();
    for sql in QUERIES {
        let plan = Some(FaultPlan::chaos(42));
        let sim = run_faulted(&cat, sql, ExecutionMode::Simulate, plan.clone()).unwrap();
        for out in [
            &sim,
            &run_faulted(
                &cat,
                sql,
                ExecutionMode::Parallel { workers: 2 },
                plan.clone(),
            )
            .unwrap(),
            &run_faulted(
                &cat,
                sql,
                ExecutionMode::Parallel { workers: 4 },
                plan.clone(),
            )
            .unwrap(),
        ] {
            let total: Dollars = out.metrics.nodes.iter().map(|n| n.dollars).sum();
            assert_eq!(
                total, out.metrics.cost,
                "[{sql}] node dollars must fold bit-exactly to the bill"
            );
            assert_eq!(
                &out.metrics.nodes, &sim.metrics.nodes,
                "[{sql}] attribution and its busy-time basis must be mode-independent"
            );
        }
    }
}

/// Recovery is billed, never re-run: under a profile that preempts the
/// worker of *every* morsel and hedges every straggler to a win, the pooled
/// feed at 2 and 4 workers still reports exactly what `Simulate` reports —
/// rows, bill, per-node records, and every pipeline counter but the three
/// that describe the host (wall clock and pool identity).
#[test]
fn total_worker_loss_and_winning_hedges_match_simulate() {
    let profile = FaultProfile {
        straggler_rate: 1.0,
        // Every straggler draw (≥ 1.5) crosses the threshold, and the hedge
        // finishes at 1 + hedge_detect_frac = 1.25 — always first.
        hedge_threshold: 1.5,
        worker_loss_rate: 1.0,
        ..FaultProfile::light()
    };
    let cat = catalog();
    for sql in QUERIES {
        let plan = Some(FaultPlan::new(7, profile.clone()));
        let sim = run_faulted(&cat, sql, ExecutionMode::Simulate, plan.clone()).unwrap();
        let morsels: usize = sim.metrics.pipelines.iter().map(|p| p.morsels).sum();
        let hedged: u32 = sim.metrics.pipelines.iter().map(|p| p.hedged_morsels).sum();
        assert_eq!(hedged as usize, morsels, "[{sql}] every morsel hedges");
        assert!(faults_total(&sim) as usize >= 2 * morsels, "[{sql}]");
        for workers in [2, 4] {
            let mode = ExecutionMode::Parallel { workers };
            let par = run_faulted(&cat, sql, mode, plan.clone()).unwrap();
            let label = format!("workers={workers} [{sql}]");
            assert_eq!(par.result, sim.result, "{label}: result rows");
            assert_eq!(par.metrics.cost, sim.metrics.cost, "{label}: Dollars");
            assert_eq!(
                par.metrics.nodes, sim.metrics.nodes,
                "{label}: per-node records"
            );
            assert_eq!(
                par.metrics.pipelines.len(),
                sim.metrics.pipelines.len(),
                "{label}"
            );
            for (pp, sp) in par.metrics.pipelines.iter().zip(&sim.metrics.pipelines) {
                let mut masked = pp.clone();
                masked.measured_wall_ns = sp.measured_wall_ns;
                masked.pool_workers = sp.pool_workers;
                masked.pool_reuses = sp.pool_reuses;
                assert_eq!(&masked, sp, "{label}: pipeline {:?} metrics", sp.id);
            }
        }
    }
}

/// A traced run's registry counters are the finished metrics, read once:
/// each equals its sum over `metrics.pipelines` (or the whole-query field),
/// and the `tier_*` counters exist exactly when tiers are priced.
#[test]
fn trace_counters_are_the_pipeline_sums() {
    let cat = catalog();
    let sql = QUERIES[2];
    let (plan, graph) = plan_of(&cat, sql);
    for tiers in [None, Some(TierPricing::standard())] {
        let priced = tiers.is_some();
        let exec = Executor::new(
            &cat,
            ExecutionConfig {
                morsel_rows: 256,
                faults: Some(FaultPlan::chaos(42)),
                trace: TraceLevel::Spans,
                tiers,
                ..ExecutionConfig::default()
            },
        );
        let out = exec
            .execute(&plan, &graph, &vec![4; graph.len()], &mut NoScaling)
            .unwrap();
        let m = &out.metrics;
        let registry = &out.trace.as_ref().expect("traced run").registry;
        let sum = |f: fn(&PipelineMetrics) -> u64| m.pipelines.iter().map(f).sum::<u64>();
        let mut expected = vec![
            ("faults_injected", sum(|p| p.faults_injected.into())),
            ("fetch_retries", sum(|p| p.fetch_retries.into())),
            ("hedged_morsels", sum(|p| p.hedged_morsels.into())),
            ("morsels", sum(|p| p.morsels as u64)),
            ("resize_events", m.resize_events.into()),
            ("result_rows", m.result_rows),
        ];
        if priced {
            expected.extend([
                ("tier_evictions", sum(|p| p.tier_evictions.into())),
                ("tier_mem_hits", sum(|p| p.tier_mem_hits.into())),
                ("tier_misses", sum(|p| p.tier_misses.into())),
                ("tier_promotions", sum(|p| p.tier_promotions.into())),
                ("tier_ssd_hits", sum(|p| p.tier_ssd_hits.into())),
            ]);
        }
        let counters: Vec<(&str, u64)> = registry.counters().collect();
        assert_eq!(counters, expected, "tiers priced: {priced}");
        assert!(sum(|p| p.morsels as u64) > 0 && sum(|p| p.faults_injected.into()) > 0);
        if priced {
            assert!(sum(|p| p.tier_misses.into()) > 0, "a cold cache misses");
        }
    }
}

/// An unrecoverable schedule dies with a typed error — no panic, no hang —
/// and the shared worker pool stays usable for the next query.
#[test]
fn unrecoverable_faults_fail_typed_and_leave_the_pool_alive() {
    let cat = catalog();
    let mut profile = FaultProfile::light();
    profile.permanent_failure_rate = 1.0;
    assert!(!profile.is_recoverable());
    let doomed = Some(FaultPlan::new(5, profile));
    let sql = "SELECT o_id FROM orders WHERE o_total < 40.0";

    for mode in [
        ExecutionMode::Simulate,
        ExecutionMode::Parallel { workers: 3 },
    ] {
        let err = run_faulted(&cat, sql, mode, doomed.clone())
            .expect_err("every scan morsel fails permanently");
        assert_eq!(err.kind(), "fault", "mode={mode:?}: {err}");
        assert!(
            err.to_string().contains("retries"),
            "mode={mode:?}: error should name the exhausted retries: {err}"
        );

        // The failure was contained: the same mode (and, for parallel, the
        // same shared pool) completes a clean follow-up query.
        let ok = run_faulted(&cat, sql, mode, None).unwrap();
        assert_eq!(ok.metrics.result_rows, ok.result.rows() as u64);
        assert_eq!(faults_total(&ok), 0);
    }
}
