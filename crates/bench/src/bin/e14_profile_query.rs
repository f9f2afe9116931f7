//! E14: query tracing and dollar attribution under chaos.
//!
//! Runs a scan-filter-join fixture at `TraceLevel::Full` under a seeded
//! chaos fault plan, in both execution modes, and demonstrates the
//! observability contract end to end:
//!
//! * the per-node `Dollars` in the profile fold back to `QueryMetrics::cost`
//!   **bit-exactly**, in `Simulate` and `Parallel` alike;
//! * the `EXPLAIN ANALYZE`-style profile is byte-identical across modes —
//!   attribution rides the driver's canonical morsel order, not the
//!   scheduler;
//! * the Chrome-trace JSON (`e14_trace.json`, Perfetto-loadable) carries the
//!   deterministic virtual-time lanes plus, from the parallel run, the
//!   wall-clock worker lanes.
//!
//! Artifacts: `e14_trace.json` and `e14_profile.txt` in the working
//! directory (override with `E14_TRACE_OUT` / `E14_PROFILE_OUT`).
//!
//! Calibration persistence rides along: with `--rates PATH`, measured
//! per-operator rates are loaded from `PATH` at startup if it exists
//! (seeding the cost models) and the parallel run's samples are folded back
//! and saved there on clean exit, so a fleet of runs converges on this
//! host's real rates.

use std::sync::Arc;

use ci_bench::plan_query;
use ci_catalog::Catalog;
use ci_cost::calibration::MeasuredRates;
use ci_exec::{
    ExecutionConfig, ExecutionMode, Executor, FaultPlan, NoScaling, QueryOutcome, TraceLevel,
    WorkModels,
};
use ci_plan::{PhysicalPlan, PipelineGraph};
use ci_storage::column::ColumnData;
use ci_storage::schema::{Field, Schema};
use ci_storage::table::TableBuilder;
use ci_storage::value::DataType;
use ci_storage::RecordBatch;
use ci_types::{Dollars, Result, TableId};

const CHAOS_SEED: u64 = 42;
const ROWS: usize = 60_000;
const WORKERS: u32 = 4;

/// Scan filter + join probe + projection keep the per-morsel chain (the part
/// the worker pool parallelizes) heavy, while the `Result` sink keeps the
/// driver's serial accounting tail thin.
const SQL: &str = "SELECT o_id, o_total FROM orders o \
                   JOIN customers c ON o.o_cust = c.c_id \
                   WHERE o_total > 100.0";

/// Catalog + plan for [`SQL`]: a `rows`-row fact table over many small
/// partitions (so the morsel queue has enough grains to steal) joined
/// against a small dimension.
fn fixture(rows: usize) -> Result<(Catalog, PhysicalPlan, PipelineGraph)> {
    let mut cat = Catalog::new();
    let orders = Arc::new(Schema::of(vec![
        Field::new("o_id", DataType::Int64),
        Field::new("o_cust", DataType::Int64),
        Field::new("o_total", DataType::Float64),
    ]));
    let n = rows as i64;
    let mut b = TableBuilder::new(TableId::new(0), "orders", orders.clone(), 4_096)?;
    b.append(RecordBatch::new(
        orders,
        vec![
            ColumnData::Int64((0..n).collect()),
            ColumnData::Int64((0..n).map(|i| i * 13 % 2_000).collect()),
            ColumnData::Float64((0..n).map(|i| (i % 1_000) as f64).collect()),
        ],
    )?)?;
    cat.register(b.finish()?);

    let cust = Arc::new(Schema::of(vec![
        Field::new("c_id", DataType::Int64),
        Field::new("c_name", DataType::Utf8),
    ]));
    let mut b = TableBuilder::new(TableId::new(1), "customers", cust.clone(), 512)?;
    b.append(RecordBatch::new(
        cust,
        vec![
            ColumnData::Int64((0..2_000).collect()),
            ColumnData::Utf8((0..2_000).map(|i| format!("cust{i:05}")).collect()),
        ],
    )?)?;
    cat.register(b.finish()?);

    let (plan, graph) = plan_query(&cat, SQL)?;
    Ok((cat, plan, graph))
}

/// The `--rates PATH` argument, if given; anything else is a usage error.
fn rates_arg() -> Result<Option<std::path::PathBuf>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => Ok(None),
        [flag, path] if flag == "--rates" => Ok(Some(path.into())),
        _ => Err(ci_types::CiError::Config(
            "usage: e14_profile_query [--rates PATH]".into(),
        )),
    }
}

fn main() -> Result<()> {
    let rates_path = rates_arg()?;
    println!("== E14: traced + profiled query under chaos ==\n");
    let (cat, plan, graph) = fixture(ROWS)?;

    // Calibration persistence: rates measured by earlier runs seed the
    // cost models; this run's samples are saved back on exit.
    let mut rates = MeasuredRates::new();
    if let Some(path) = &rates_path {
        if let Some(loaded) = MeasuredRates::load_path(path)? {
            let ops = loaded.ops().count();
            println!("loaded measured rates from {} ({ops} ops)", path.display());
            rates = loaded;
        }
    }
    let models = rates.seed(&WorkModels::standard());

    let run = |mode: ExecutionMode| -> Result<QueryOutcome> {
        let exec = Executor::new(
            &cat,
            ExecutionConfig {
                models: models.clone(),
                morsel_rows: 2_048,
                mode,
                trace: TraceLevel::Full,
                faults: Some(FaultPlan::chaos(CHAOS_SEED)),
                ..ExecutionConfig::default()
            },
        );
        exec.execute(&plan, &graph, &vec![WORKERS; graph.len()], &mut NoScaling)
    };

    let sim = run(ExecutionMode::Simulate)?;
    let par = run(ExecutionMode::Parallel {
        workers: WORKERS as usize,
    })?;

    // The observability contract, checked live on every run of this bin.
    for (label, out) in [("simulate", &sim), ("parallel", &par)] {
        let folded: Dollars = out.metrics.node_dollars.iter().copied().sum();
        assert_eq!(
            folded, out.metrics.cost,
            "{label}: per-node dollars must fold bit-exactly to the bill"
        );
    }
    let sim_trace = sim.trace.as_ref().expect("sim trace at Full");
    let par_trace = par.trace.as_ref().expect("par trace at Full");
    assert_eq!(
        sim_trace.profile_text(),
        par_trace.profile_text(),
        "profile must be byte-identical across execution modes"
    );

    // Artifacts: the parallel trace (it carries the wall-clock worker
    // lanes on top of the shared deterministic virtual-time lanes).
    let trace_out = std::env::var("E14_TRACE_OUT").unwrap_or_else(|_| "e14_trace.json".into());
    let profile_out = std::env::var("E14_PROFILE_OUT").unwrap_or_else(|_| "e14_profile.txt".into());
    std::fs::write(&trace_out, par_trace.to_chrome_json())
        .map_err(|e| ci_types::CiError::Config(format!("write {trace_out}: {e}")))?;
    std::fs::write(&profile_out, sim_trace.profile_text())
        .map_err(|e| ci_types::CiError::Config(format!("write {profile_out}: {e}")))?;

    println!("{}", sim_trace.profile_text());
    println!("counters (virtual-time lane, mode-independent):");
    for (name, v) in sim_trace.registry.counters() {
        println!("  {name:<20} {v}");
    }
    if let Some(h) = sim_trace.registry.histogram("morsel_span_us") {
        println!(
            "morsel span: {} morsels, mean {:.0} virtual us",
            h.count(),
            h.mean()
        );
    }
    println!(
        "artifacts: {trace_out} ({} events, load in Perfetto / chrome://tracing) and {profile_out}",
        par_trace.events.len()
    );

    // Fold the parallel run's measured samples back into the persisted
    // rates (only with `--rates`).
    if let Some(path) = rates_path {
        for s in &par.op_samples {
            rates.record(s.op, s.units, s.wall_ns);
        }
        rates.save_path(&path)?;
        println!("saved measured rates to {}", path.display());
    }
    Ok(())
}
