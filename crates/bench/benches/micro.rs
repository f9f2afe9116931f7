//! Criterion microbenches backing the paper's "lightweight" claims:
//!
//! * `cost_estimator/*` — §3.1 requires the estimator to be cheap enough for
//!   thousands of invocations per query;
//! * `optimizer/*` — §3.2 requires constrained DOP planning to stay near
//!   classic-optimizer complexity;
//! * `executor/*` — morsel engine throughput (real data + virtual time);
//! * `stats_service/*` — §4 requires log ingestion to be cheap;
//! * `storage/*` — zone-map pruning speed;
//! * `hot_path/*` — the string data-path kernels (filter, string-key
//!   hash-join, string-key group-by, page encode/decode, exchange wire
//!   serialization) over both encodings; the dict variants are the
//!   zero-copy path, the naive ones its pre-refactor baseline. The
//!   `filter_chain/{eager,lazy}` pair measures selection-vector late
//!   materialization against per-operator compaction, and
//!   `int_join_all_miss/{std_map,index}` an all-miss int probe against the
//!   `std` hash map.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ci_autotune::{QueryLogRecord, StatisticsService, StatsConfig};
use ci_bench::hotpath::{
    all_miss_fixture, int_join_map, int_join_table, run_exchange_wire, run_filter,
    run_filter_chain, run_group_by, run_int_join_probe, run_int_map_probe, run_join,
    run_page_encode, run_page_encode_int, sorted_int_batch, string_batch, wide_batch,
};
use ci_bench::plan_query;
use ci_cost::{CostEstimator, EstimatorConfig};
use ci_exec::{ExecutionConfig, Executor, NoScaling};
use ci_optimizer::{Constraint, DopPlanner, Optimizer, OptimizerConfig};
use ci_storage::pruning::ColumnBound;
use ci_storage::value::Value;
use ci_types::money::Dollars;
use ci_types::{SimDuration, SimTime, TableId};
use ci_workload::{queries, CabGenerator};

fn bench_cost_estimator(c: &mut Criterion) {
    let gen = CabGenerator::at_scale(0.2);
    let cat = gen.build_catalog().expect("catalog");
    let sql = queries::canonical(9, &gen);
    let (plan, graph) = plan_query(&cat, &sql).expect("plan");
    let est = CostEstimator::new(&cat, EstimatorConfig::default());
    let dops = vec![8u32; graph.len()];

    let mut g = c.benchmark_group("cost_estimator");
    g.bench_function("full_query_estimate", |b| {
        b.iter(|| est.estimate(&plan, &graph, &dops).expect("estimate"))
    });
    let w = est.pipeline_work(&plan, &graph.pipelines[0]).expect("work");
    g.bench_function("pipeline_duration", |b| {
        b.iter(|| est.pipeline_duration(&w, 8))
    });
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let gen = CabGenerator::at_scale(0.2);
    let cat = gen.build_catalog().expect("catalog");
    let sql = queries::canonical(9, &gen);
    let (plan, graph) = plan_query(&cat, &sql).expect("plan");
    let est = CostEstimator::new(&cat, EstimatorConfig::default());

    let mut g = c.benchmark_group("optimizer");
    g.sample_size(20);
    g.bench_function("dop_plan_heuristic", |b| {
        b.iter(|| {
            let mut planner = DopPlanner::new(&est);
            planner
                .plan(
                    &plan,
                    &graph,
                    Constraint::LatencySla(SimDuration::from_secs(3)),
                )
                .expect("plan")
        })
    });
    g.bench_function("end_to_end_plan_sql", |b| {
        let opt = Optimizer::new(&cat, OptimizerConfig::default());
        b.iter(|| {
            opt.plan_sql(&sql, Constraint::LatencySla(SimDuration::from_secs(3)))
                .expect("plan")
        })
    });
    g.finish();
}

fn bench_executor(c: &mut Criterion) {
    let gen = CabGenerator::at_scale(0.2);
    let cat = gen.build_catalog().expect("catalog");
    let scan_sql = queries::canonical(6, &gen);
    let join_sql = queries::canonical(3, &gen);
    let exec = Executor::new(&cat, ExecutionConfig::default());

    let mut g = c.benchmark_group("executor");
    g.sample_size(20);
    for (name, sql) in [("scan_agg", &scan_sql), ("join_agg", &join_sql)] {
        let (plan, graph) = plan_query(&cat, sql).expect("plan");
        let dops = vec![4u32; graph.len()];
        g.bench_function(name, |b| {
            b.iter(|| {
                exec.execute(&plan, &graph, &dops, &mut NoScaling)
                    .expect("run")
            })
        });
    }
    g.finish();
}

fn bench_stats_service(c: &mut Criterion) {
    let rec = QueryLogRecord {
        fingerprint: "select sum(x) from t where a < ?".into(),
        sql: "SELECT SUM(x) FROM t WHERE a < 5".into(),
        finished_at: SimTime::from_secs_f64(1.0),
        latency: SimDuration::from_millis(200),
        machine_time: SimDuration::from_millis(800),
        cost: Dollars::new(0.0004),
        attributes: vec![(TableId::new(0), 1), (TableId::new(0), 2)],
        joins: vec![((TableId::new(0), 1), (TableId::new(1), 0))],
    };
    let mut g = c.benchmark_group("stats_service");
    g.bench_function("ingest", |b| {
        b.iter_batched(
            || StatisticsService::new(StatsConfig::default()),
            |mut svc| {
                for _ in 0..100 {
                    svc.ingest(rec.clone());
                }
                svc
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_storage(c: &mut Criterion) {
    let gen = CabGenerator::at_scale(1.0);
    let cat = gen.build_catalog().expect("catalog");
    let orders = cat.get("orders").expect("orders").table.clone();
    let bounds = [ColumnBound::range(
        2,
        Some((Value::Int(100), true)),
        Some((Value::Int(130), true)),
    )];
    let mut g = c.benchmark_group("storage");
    g.bench_function("zone_map_prune", |b| b.iter(|| orders.prune(&bounds)));
    g.finish();
}

fn bench_hot_path(c: &mut Criterion) {
    const ROWS: usize = 65_536;
    const CARD: usize = 512;
    let mut g = c.benchmark_group("hot_path");
    g.sample_size(20);
    for (enc, dict) in [("naive", false), ("dict", true)] {
        let batch = string_batch(ROWS, CARD, 11, dict);
        let probe = string_batch(ROWS / 2, CARD * 2, 12, dict);
        g.bench_function(&format!("filter_string_eq/{enc}"), |b| {
            b.iter(|| run_filter(&batch).expect("filter"))
        });
        g.bench_function(&format!("hash_join_string_key/{enc}"), |b| {
            b.iter(|| run_join(&batch, &probe).expect("join"))
        });
        g.bench_function(&format!("group_by_string_key/{enc}"), |b| {
            b.iter(|| run_group_by(&batch, 8_192).expect("group by"))
        });
        // Encoded pages: storage write path (codec pick + round-trip) and
        // the exchange wire serializer (shared-dictionary dedup for dict).
        g.bench_function(&format!("page_encode/{enc}"), |b| {
            b.iter(|| run_page_encode(&batch).expect("page encode"))
        });
        g.bench_function(&format!("exchange_wire/{enc}"), |b| {
            b.iter(|| run_exchange_wire(&batch, 8_192).expect("exchange wire"))
        });
    }
    // Int pages: the sorted-int fixture through Plain (8 B/row both ways)
    // vs the size-picked FoR/Delta codecs (a few bits per row).
    let ints = sorted_int_batch(ROWS);
    for (mode, int_codecs) in [("plain", false), ("for_delta", true)] {
        g.bench_function(&format!("page_encode_int/{mode}"), |b| {
            b.iter(|| run_page_encode_int(&ints, int_codecs).expect("int page encode"))
        });
    }
    // Late materialization: the same dict batch through a filter→project
    // chain, compacting per operator (eager) vs composing selections (lazy).
    let chain = wide_batch(ROWS, 1_000, 11, true);
    for (mode, eager) in [("eager", true), ("lazy", false)] {
        g.bench_function(&format!("filter_chain/{mode}"), |b| {
            b.iter(|| run_filter_chain(&chain, eager).expect("filter chain"))
        });
    }
    // All-miss int probes: the std SwissTable against the engine's index.
    let [build, probe] = all_miss_fixture(ROWS, ROWS / 2, 13);
    let map = int_join_map(&build).expect("std map");
    let table = int_join_table(&build).expect("join table");
    g.bench_function("int_join_all_miss/std_map", |b| {
        b.iter(|| run_int_map_probe(&map, &probe).expect("map probe"))
    });
    g.bench_function("int_join_all_miss/index", |b| {
        b.iter(|| run_int_join_probe(&table, &probe).expect("index probe"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cost_estimator,
    bench_optimizer,
    bench_executor,
    bench_stats_service,
    bench_storage,
    bench_hot_path
);
criterion_main!(benches);
