//! Equivalence tests: where bytes physically live never changes an answer
//! or a bill.
//!
//! The tiered-storage refactor's headline invariant: `PageSourceMode` picks
//! where scan fetches *physically* read partition bytes — resident columns
//! (`Mem`), real on-disk `CIPF` page files (`Disk`), or the page files
//! behind the memory → SSD → object cache hierarchy (`Tiered`) — and that
//! choice is invisible in results **and** in dollars. Cache accounting is
//! engaged by pricing, not by page source, and the simulator advances only
//! in the driver's canonical accounting loop, so:
//!
//! * result rows and `Dollars` are bit-identical across all three sources,
//!   across `Simulate` and `Parallel` at 2 and 4 workers, clean and under
//!   seeded chaos;
//! * per-pipeline tier hit/miss/promotion/eviction counters are themselves
//!   deterministic and source-invariant;
//! * a warm cache changes the bill (downward) but never the rows.

use std::sync::{Arc, Mutex};

use ci_catalog::{Catalog, ErrorInjector};
use ci_exec::{
    ExecutionConfig, ExecutionMode, Executor, FaultPlan, NoScaling, PageSourceMode, QueryOutcome,
    TierCacheSim, TierPricing,
};
use ci_plan::{bind, JoinTree, PhysicalPlan, PipelineGraph};
use ci_sql::parse;
use ci_storage::batch::RecordBatch;
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::DataType;
use ci_types::TableId;

const N_ORDERS: i64 = 6_000;
const N_CUST: i64 = 250;

/// Orders × customers, with string and low-cardinality int columns so the
/// on-disk files exercise the dict-ref column kinds, not just inline pages.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let orders = Arc::new(Schema::of(vec![
        Field::new("o_id", DataType::Int64),
        Field::new("o_cust", DataType::Int64),
        Field::new("o_priority", DataType::Int64),
        Field::new("o_total", DataType::Float64),
    ]));
    let mut b = TableBuilder::new(TableId::new(0), "orders", orders.clone(), 1024).unwrap();
    b.append(
        RecordBatch::new(
            orders,
            vec![
                ColumnData::Int64((0..N_ORDERS).collect()),
                ColumnData::Int64((0..N_ORDERS).map(|i| i * 7 % N_CUST).collect()),
                ColumnData::Int64((0..N_ORDERS).map(|i| i % 4).collect()),
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
                ColumnData::Utf8((0..N_CUST).map(|i| format!("region-{}", i % 5)).collect()),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    c.register(b.finish().unwrap());
    c
}

/// Scan filters, projections, joins, group-by, sort, limit — the same shape
/// coverage as the parallel/chaos equivalence suites.
const QUERIES: &[&str] = &[
    "SELECT o_id FROM orders WHERE o_total < 40.0",
    "SELECT o_id, o_total * 2.0 AS dbl FROM orders WHERE o_id < 300 ORDER BY o_id",
    "SELECT c_region, SUM(o_total) AS rev, COUNT(*) AS n FROM orders o \
     JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region ORDER BY c_region",
    "SELECT o_priority, COUNT(*) FROM orders GROUP BY o_priority",
    "SELECT o_id, o_total FROM orders WHERE o_total > 400.0 \
     ORDER BY o_total DESC, o_id ASC LIMIT 9",
    "SELECT c_region, o_id FROM customers c JOIN orders o ON o.o_cust = c.c_id",
];

const SOURCES: &[PageSourceMode] = &[
    PageSourceMode::Mem,
    PageSourceMode::Disk,
    PageSourceMode::Tiered,
];

fn plan_of(cat: &Catalog, sql: &str) -> (PhysicalPlan, PipelineGraph) {
    let b = bind(&parse(sql).unwrap(), cat).unwrap();
    let tree = JoinTree::left_deep(&(0..b.relations.len()).collect::<Vec<_>>());
    let plan = ci_plan::physical::build_plan(&b, &tree, cat, &mut ErrorInjector::oracle()).unwrap();
    let graph = PipelineGraph::decompose(&plan).unwrap();
    (plan, graph)
}

/// Runs one query under the given page source, tier pricing, (optionally
/// shared) cache simulator and fault plan.
fn run(
    cat: &Catalog,
    sql: &str,
    mode: ExecutionMode,
    page_source: PageSourceMode,
    faults: Option<FaultPlan>,
    tiers: Option<TierPricing>,
    tier_sim: Option<Arc<Mutex<TierCacheSim>>>,
) -> QueryOutcome {
    try_run(cat, sql, mode, page_source, faults, tiers, tier_sim).unwrap()
}

/// [`run`], with the executor's error handed back instead of unwrapped.
fn try_run(
    cat: &Catalog,
    sql: &str,
    mode: ExecutionMode,
    page_source: PageSourceMode,
    faults: Option<FaultPlan>,
    tiers: Option<TierPricing>,
    tier_sim: Option<Arc<Mutex<TierCacheSim>>>,
) -> ci_types::Result<QueryOutcome> {
    let (plan, graph) = plan_of(cat, sql);
    let exec = Executor::new(
        cat,
        ExecutionConfig {
            morsel_rows: 256,
            mode,
            faults,
            page_source,
            tiers,
            tier_sim,
            ..ExecutionConfig::default()
        },
    );
    let dops = vec![4u32; graph.len()];
    exec.execute(&plan, &graph, &dops, &mut NoScaling)
}

/// Bit-exact equivalence: rows, Dollars, latency, machine time, node
/// cardinalities, and every pipeline counter *including* the tier
/// hit/miss/promotion/eviction/saved-time fields. Only wall-clock and pool
/// identity — physical artifacts of the host — are masked.
fn assert_equivalent(base: &QueryOutcome, got: &QueryOutcome, label: &str) {
    assert_eq!(&got.result, &base.result, "{label}: result rows");
    assert_eq!(got.metrics.cost, base.metrics.cost, "{label}: Dollars");
    assert_eq!(
        got.metrics.latency, base.metrics.latency,
        "{label}: latency"
    );
    assert_eq!(
        got.metrics.machine_time, base.metrics.machine_time,
        "{label}: machine_time"
    );
    assert_eq!(
        &got.metrics.node_actual_rows, &base.metrics.node_actual_rows,
        "{label}: node cardinalities"
    );
    assert_eq!(
        &got.metrics.node_dollars, &base.metrics.node_dollars,
        "{label}: node dollar attribution"
    );
    assert_eq!(
        got.metrics.pipelines.len(),
        base.metrics.pipelines.len(),
        "{label}: pipeline count"
    );
    for (gp, bp) in got.metrics.pipelines.iter().zip(&base.metrics.pipelines) {
        let mut masked = gp.clone();
        masked.measured_wall_ns = bp.measured_wall_ns;
        masked.pool_workers = bp.pool_workers;
        masked.pool_reuses = bp.pool_reuses;
        masked.agg_partials = bp.agg_partials;
        assert_eq!(&masked, bp, "{label}: pipeline {:?} metrics", bp.id);
    }
}

fn fresh_sim(pricing: &TierPricing) -> Option<Arc<Mutex<TierCacheSim>>> {
    Some(Arc::new(Mutex::new(TierCacheSim::new(pricing.clone()))))
}

/// The core matrix: every query × {clean, chaos:7} × {Simulate, Parallel 2,
/// Parallel 4}; within each cell, Disk and Tiered must match Mem bit-for-bit
/// in rows, Dollars, and all deterministic counters. Each run gets a fresh
/// cache simulator, so all cells start equally cold.
#[test]
fn page_sources_are_bit_identical_across_modes_and_chaos() {
    let cat = catalog();
    let pricing = TierPricing::standard();
    for sql in QUERIES {
        for faults in [None, Some(FaultPlan::chaos(7))] {
            for mode in [
                ExecutionMode::Simulate,
                ExecutionMode::Parallel { workers: 2 },
                ExecutionMode::Parallel { workers: 4 },
            ] {
                let base = run(
                    &cat,
                    sql,
                    mode,
                    PageSourceMode::Mem,
                    faults.clone(),
                    Some(pricing.clone()),
                    fresh_sim(&pricing),
                );
                for src in [PageSourceMode::Disk, PageSourceMode::Tiered] {
                    let got = run(
                        &cat,
                        sql,
                        mode,
                        src,
                        faults.clone(),
                        Some(pricing.clone()),
                        fresh_sim(&pricing),
                    );
                    let label = format!(
                        "mode={mode:?} src={src:?} chaos={} [{sql}]",
                        faults.is_some()
                    );
                    assert_equivalent(&base, &got, &label);
                }
            }
        }
    }
}

/// Without tier pricing there is no cache accounting at all — and the page
/// source alone must still be invisible: same rows, same object-rate bill.
#[test]
fn page_sources_agree_without_tier_pricing_too() {
    let cat = catalog();
    for sql in QUERIES {
        let base = run(
            &cat,
            sql,
            ExecutionMode::Simulate,
            PageSourceMode::Mem,
            None,
            None,
            None,
        );
        for p in &base.metrics.pipelines {
            assert_eq!(p.tier_mem_hits + p.tier_ssd_hits + p.tier_misses, 0);
        }
        for src in [PageSourceMode::Disk, PageSourceMode::Tiered] {
            for mode in [
                ExecutionMode::Simulate,
                ExecutionMode::Parallel { workers: 2 },
            ] {
                let got = run(&cat, sql, mode, src, None, None, None);
                assert_equivalent(&base, &got, &format!("no-tiers src={src:?} [{sql}]"));
            }
        }
    }
}

/// Tier counters are part of the determinism contract: fresh-cache runs of
/// the same trace produce the same hit/miss/promotion sequence regardless of
/// page source or execution mode — and a cold scan of this size really does
/// miss (the counters are live, not vacuously zero).
#[test]
fn tier_counters_are_deterministic_and_source_invariant() {
    let cat = catalog();
    let pricing = TierPricing::standard();
    let sql = "SELECT c_region, SUM(o_total) AS rev, COUNT(*) AS n FROM orders o \
               JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region ORDER BY c_region";
    let tally = |q: &QueryOutcome| -> (u32, u32, u32, u32, u32) {
        let mut t = (0, 0, 0, 0, 0);
        for p in &q.metrics.pipelines {
            t.0 += p.tier_mem_hits;
            t.1 += p.tier_ssd_hits;
            t.2 += p.tier_misses;
            t.3 += p.tier_promotions;
            t.4 += p.tier_evictions;
        }
        t
    };
    let reference = run(
        &cat,
        sql,
        ExecutionMode::Simulate,
        PageSourceMode::Mem,
        None,
        Some(pricing.clone()),
        fresh_sim(&pricing),
    );
    let want = tally(&reference);
    assert!(
        want.2 > 0,
        "a cold scan of 6000 rows must record tier misses"
    );
    for src in SOURCES {
        for mode in [
            ExecutionMode::Simulate,
            ExecutionMode::Parallel { workers: 2 },
            ExecutionMode::Parallel { workers: 4 },
        ] {
            for repeat in 0..2 {
                let got = run(
                    &cat,
                    sql,
                    mode,
                    *src,
                    None,
                    Some(pricing.clone()),
                    fresh_sim(&pricing),
                );
                assert_eq!(
                    tally(&got),
                    want,
                    "src={src:?} mode={mode:?} repeat={repeat}: tier counter sequence"
                );
            }
        }
    }
}

/// A shared simulator warms across queries: the rerun hits where the cold
/// run missed, the bill only falls — and the rows never move, clean or under
/// chaos (cache hits are not fault targets; only object-tier fetches are).
#[test]
fn warm_cache_changes_the_bill_never_the_rows() {
    let cat = catalog();
    let pricing = TierPricing::standard();
    let sql = "SELECT c_region, SUM(o_total) AS rev, COUNT(*) AS n FROM orders o \
               JOIN customers c ON o.o_cust = c.c_id GROUP BY c_region ORDER BY c_region";
    for mode in [
        ExecutionMode::Simulate,
        ExecutionMode::Parallel { workers: 4 },
    ] {
        let sim = fresh_sim(&pricing);
        let cold = run(
            &cat,
            sql,
            mode,
            PageSourceMode::Tiered,
            None,
            Some(pricing.clone()),
            sim.clone(),
        );
        let mut warm = cold.clone();
        for round in 0..4 {
            warm = run(
                &cat,
                sql,
                mode,
                PageSourceMode::Tiered,
                None,
                Some(pricing.clone()),
                sim.clone(),
            );
            assert_eq!(
                &warm.result, &cold.result,
                "mode={mode:?} round={round}: warm rows"
            );
            assert!(
                warm.metrics.cost <= cold.metrics.cost,
                "mode={mode:?} round={round}: a warmer cache must never cost more \
                 (warm {:?} > cold {:?})",
                warm.metrics.cost,
                cold.metrics.cost
            );
        }
        let hits: u32 = warm
            .metrics
            .pipelines
            .iter()
            .map(|p| p.tier_mem_hits + p.tier_ssd_hits)
            .sum();
        assert!(
            hits > 0,
            "mode={mode:?}: the warmed rerun must actually hit"
        );
        let saved: u64 = warm.metrics.pipelines.iter().map(|p| p.tier_saved_ns).sum();
        assert!(
            saved > 0,
            "mode={mode:?}: hits must record saved fetch time"
        );

        // Chaos on the warm cache: faults target only object-tier fetches,
        // so the answer still cannot move.
        let chaos = run(
            &cat,
            sql,
            mode,
            PageSourceMode::Tiered,
            Some(FaultPlan::chaos(7)),
            Some(pricing.clone()),
            sim.clone(),
        );
        assert_eq!(
            &chaos.result, &cold.result,
            "mode={mode:?}: chaos over a warm cache"
        );
    }
}

/// The `LIMIT` contract of the single morsel path: a failure past a
/// satisfied `LIMIT` stays invisible. The last partition file of `orders`
/// is garbage; `LIMIT 100` is satisfied by the first morsel, so the inline
/// trace source never fetches the bad partition and the pooled one — whose
/// workers did fetch it — leaves the error unread in its slot. Without the
/// `LIMIT` the same scan meets the bad partition and fails with a typed
/// error, not a panic, in both modes.
#[test]
fn a_failure_past_a_satisfied_limit_stays_invisible() {
    let cat = catalog();
    let orders = &cat.get("orders").unwrap().table;
    let store = cat.page_store().unwrap();
    store.ensure_table(orders).unwrap();
    let last = orders.partitions.len() - 1;
    std::fs::write(store.partition_path(orders.id, last), b"not a CIPF file").unwrap();

    let modes = [
        ExecutionMode::Simulate,
        ExecutionMode::Parallel { workers: 2 },
    ];
    let limited = "SELECT o_id FROM orders LIMIT 100";
    let base = run(
        &cat,
        limited,
        ExecutionMode::Simulate,
        PageSourceMode::Mem,
        None,
        None,
        None,
    );
    assert_eq!(base.result.rows(), 100);
    for mode in modes {
        let got = run(&cat, limited, mode, PageSourceMode::Disk, None, None, None);
        assert_equivalent(&base, &got, &format!("mode={mode:?} [{limited}]"));
    }
    for mode in modes {
        let err = try_run(
            &cat,
            "SELECT o_id FROM orders",
            mode,
            PageSourceMode::Disk,
            None,
            None,
            None,
        )
        .expect_err("the full scan reads the bad partition");
        assert_eq!(err.kind(), "storage", "mode={mode:?}: {err}");
    }
}
