//! The mode matrix in one process: seven `ExecutionConfig` cells, one
//! workload, compared cell against cell.
//!
//! The engine has one morsel path and one ledger, and four orthogonal
//! ways to drive them: where traces are produced (`mode`), whether a fault
//! schedule is billed (`faults`), where scan bytes physically come from
//! (`page_source`), and whether a tracer records the run (`trace`). The
//! equivalence suites under `crates/exec/tests/` pin each axis through
//! `Executor::execute` under `NoScaling`; this file pins what they leave
//! out — a non-default cell *with a scaling controller in the loop* — at
//! both levels a user can reach:
//!
//! * through [`Warehouse`], with the `DopMonitor` on and misestimated
//!   plans (`error_bound = 2.0`): all 12 CAB templates, a
//!   `tuning_proposals` → `apply` cycle, and the templates again;
//! * through [`Executor::execute`]: two scripted mid-pipeline resizes, a
//!   `LIMIT` that is satisfied mid-scan, and a tier-priced query that warms
//!   a shared cache.
//!
//! The contract, in both: result rows are equal in **every** cell; the
//! bill — and every deterministic number behind it — is bit-identical
//! across the five fault-free cells, and bit-identical between the two
//! `chaos:7` cells (a fault schedule moves the bill, by design, so the two
//! groups are not compared with each other beyond "chaos is never
//! cheaper").

use std::sync::{Arc, Mutex};

use cost_intel::autotune::TuningAction;
use cost_intel::catalog::Catalog;
use cost_intel::cloud::tiercache::CacheKey;
use cost_intel::exec::scaling::{PipelineProgress, ScaleDecision, ScalingController};
use cost_intel::exec::{
    ExecutionConfig, ExecutionMode, Executor, FaultPlan, NoScaling, PageSourceMode, QueryMetrics,
    QueryOutcome, TierCacheSim, TierPricing, TraceLevel,
};
use cost_intel::optimizer::{Optimizer, OptimizerConfig};
use cost_intel::storage::RecordBatch;
use cost_intel::types::money::Dollars;
use cost_intel::types::{DetRng, SimDuration, TierLevel};
use cost_intel::workload::{queries, CabConfig, CabGenerator};
use cost_intel::{Constraint, QueryReport, Warehouse, WarehouseConfig};

/// Small partitions and (below) small morsels: at SF 0.05 `lineitem` is
/// 10 000 rows, i.e. 20 partitions and 160 morsels — enough for the cache
/// to see distinct keys, for `chaos:7` to draw every fault class, and for a
/// controller to be asked forty times per scan.
fn generator() -> CabGenerator {
    CabGenerator::new(CabConfig {
        scale: 0.05,
        rows_per_partition: 512,
        ..CabConfig::default()
    })
}

const MORSEL_ROWS: usize = 64;
const CHECK_INTERVAL: usize = 4;

/// One cell of the matrix: the four mode fields, everything else default.
fn cell(
    mode: ExecutionMode,
    chaos: bool,
    page_source: PageSourceMode,
    trace: TraceLevel,
) -> ExecutionConfig {
    ExecutionConfig {
        morsel_rows: MORSEL_ROWS,
        check_interval: CHECK_INTERVAL,
        mode,
        faults: chaos.then(|| FaultPlan::chaos(7)),
        page_source,
        trace,
        ..ExecutionConfig::default()
    }
}

/// The seven cells, fault-free reference first, `chaos:7` reference
/// fourth.
fn cells() -> Vec<(&'static str, ExecutionConfig)> {
    use ExecutionMode::{Parallel, Simulate};
    use PageSourceMode::{Mem, Tiered};
    use TraceLevel::{Full, Off};
    vec![
        ("base", cell(Simulate, false, Mem, Off)),
        ("parallel:2", cell(Parallel { workers: 2 }, false, Mem, Off)),
        ("parallel:4", cell(Parallel { workers: 4 }, false, Mem, Off)),
        ("chaos:7", cell(Simulate, true, Mem, Off)),
        ("tiered", cell(Simulate, false, Tiered, Off)),
        (
            "tiered + parallel:4 + chaos:7",
            cell(Parallel { workers: 4 }, true, Tiered, Off),
        ),
        ("trace full", cell(Simulate, false, Mem, Full)),
    ]
}

/// What every cell produced, `(cell name, cell config, output)`, checked
/// with [`assert_matrix`].
type Outputs<T> = Vec<(&'static str, ExecutionConfig, T)>;

/// The cross-cell contract over one output per cell: `rows` equal in every
/// cell, `bill` equal within each fault group (the first fault-free cell
/// and the first `chaos:7` cell are the references).
fn assert_matrix<T, R, B>(
    what: &str,
    outs: &Outputs<T>,
    rows: impl Fn(&T) -> R,
    bill: impl Fn(&T) -> B,
) where
    R: PartialEq + std::fmt::Debug,
    B: PartialEq + std::fmt::Debug,
{
    let reference = |chaos: bool| {
        outs.iter()
            .find(|(_, config, _)| config.faults.is_some() == chaos)
            .map(|(name, _, out)| (*name, out))
            .expect("both fault groups have a cell")
    };
    let (base_name, base) = reference(false);
    for (name, config, out) in outs {
        assert_eq!(
            rows(out),
            rows(base),
            "{what}: rows of cell `{name}` differ from `{base_name}`"
        );
        let (ref_name, group_ref) = reference(config.faults.is_some());
        assert_eq!(
            bill(out),
            bill(group_ref),
            "{what}: bill of cell `{name}` differs from `{ref_name}`"
        );
    }
}

// ---------------------------------------------------------------------------
// Through the warehouse, monitor on
// ---------------------------------------------------------------------------

/// Everything about a report that is billed, predicted or decided: the
/// report minus its rows.
fn report_bill(r: &QueryReport) -> impl PartialEq + std::fmt::Debug {
    (
        (r.submitted_at, r.finished_at, r.latency, r.machine_time),
        (r.cost, r.predicted_cost, r.predicted_latency),
        (
            r.dops.clone(),
            r.resize_events,
            r.feasible,
            r.constraint_met,
        ),
        (r.plan_text.clone(), r.used_mv.clone()),
    )
}

/// One cell's run of the warehouse script.
struct WarehouseRun {
    /// Reports of the queries submitted before tuning, in order.
    before: Vec<QueryReport>,
    /// Reports of the queries resubmitted after tuning.
    after: Vec<QueryReport>,
    /// `(action, accepted, net $/h, one-time $)` per proposal, as ranked.
    proposals: Vec<(TuningAction, bool, Dollars, Dollars)>,
    /// What applying each accepted proposal billed.
    apply_bills: Vec<Dollars>,
    total_spend: Dollars,
}

/// The script: every template three times with drawn parameters (three
/// sightings make a fingerprint "recurring"), proposals, apply what was
/// accepted, then the twelve canonical instances again — some of them now
/// answered from a materialized view or a reclustered table.
fn warehouse_script(execution: &ExecutionConfig) -> WarehouseRun {
    let gen = generator();
    let config = WarehouseConfig {
        optimizer: OptimizerConfig {
            error_bound: 2.0,
            ..OptimizerConfig::default()
        },
        execution: execution.clone(),
        ..WarehouseConfig::default()
    };
    assert!(!config.disable_monitor);
    let mut w = Warehouse::new(gen.build_catalog().expect("catalog"), config);
    let mut rng = DetRng::seed_from_u64(19);
    let before = (0..3)
        .flat_map(|_round| &queries::TEMPLATES)
        .map(|t| {
            let sql = queries::instantiate(t.id, &mut rng, &gen);
            w.submit(&sql, Constraint::MinCost).expect("submit")
        })
        .collect();
    let proposals = w.tuning_proposals().expect("proposals");
    let apply_bills = proposals
        .iter()
        .filter(|p| p.accepted)
        .map(|p| w.apply(&p.action).expect("apply"))
        .collect();
    let sla = Constraint::LatencySla(SimDuration::from_secs(2));
    let after = queries::TEMPLATES
        .iter()
        .map(|t| {
            w.submit(&queries::canonical(t.id, &gen), sla)
                .expect("resubmit")
        })
        .collect();
    WarehouseRun {
        before,
        after,
        proposals: proposals
            .into_iter()
            .map(|p| (p.action, p.accepted, p.net_rate, p.one_time_cost))
            .collect(),
        apply_bills,
        total_spend: w.total_spend(),
    }
}

#[test]
fn warehouse_with_the_monitor_on_agrees_across_all_seven_cells() {
    let outs: Outputs<WarehouseRun> = cells()
        .into_iter()
        .map(|(name, config)| {
            let run = warehouse_script(&config);
            (name, config, run)
        })
        .collect();

    // What the tuner accepts is decided in dollars, and a fault schedule
    // moves the dollars: which views exist after `apply` — and so the
    // column names and row order of a resubmitted query — is a property of
    // the fault group, compared with the bill. Before tuning, rows are
    // rows.
    let rows = |reports: &[QueryReport]| -> Vec<RecordBatch> {
        reports.iter().map(|r| r.result.clone()).collect()
    };
    let bills = |reports: &[QueryReport]| reports.iter().map(report_bill).collect::<Vec<_>>();
    assert_matrix(
        "warehouse script",
        &outs,
        |run| rows(&run.before),
        |run| {
            (
                bills(&run.before),
                run.proposals.clone(),
                run.apply_bills.clone(),
                (rows(&run.after), bills(&run.after)),
                run.total_spend,
            )
        },
    );

    // The script did what it is here for, in the reference cell (and so,
    // by the equalities above, in every cell of its group): the monitor
    // resized, the tuner accepted something, and a resubmission was
    // answered from the view that built.
    let base = &outs[0].2;
    assert!(
        base.before.iter().any(|r| r.resize_events > 0),
        "the monitor never resized: the warehouse half of the matrix is static"
    );
    assert!(!base.apply_bills.is_empty(), "no proposal was accepted");
    assert!(
        base.after.iter().any(|r| r.used_mv.is_some()),
        "no resubmitted template hit a materialized view"
    );
    // A fault schedule only ever adds to the bill.
    let chaos = &outs[3].2;
    assert!(chaos.total_spend > base.total_spend);
}

// ---------------------------------------------------------------------------
// Through the executor, scripted controllers
// ---------------------------------------------------------------------------

/// Scales to `target` at the first progress check (as in `engine_tests`).
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

/// Scales down to one node at the first progress check.
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

/// The deterministic part of a run's metrics: everything except the three
/// fields that describe the host (`measured_wall_ns`) and the process-wide
/// pool (`pool_workers`, `pool_reuses`).
fn deterministic(m: &QueryMetrics) -> QueryMetrics {
    let mut m = m.clone();
    for p in &mut m.pipelines {
        p.measured_wall_ns = 0;
        p.pool_workers = 0;
        p.pool_reuses = 0;
    }
    m
}

/// Plans `sql` (oracle estimates) and executes it at a uniform DOP.
fn execute(
    cat: &Catalog,
    config: &ExecutionConfig,
    sql: &str,
    dop: u32,
    ctrl: &mut dyn ScalingController,
) -> QueryOutcome {
    let planned = Optimizer::new(cat, OptimizerConfig::default())
        .plan_sql(sql, Constraint::MinCost)
        .expect("plan");
    let dops = vec![dop; planned.graph.len()];
    Executor::new(cat, config.clone())
        .execute(&planned.plan, &planned.graph, &dops, ctrl)
        .expect("execute")
}

/// One cell's run of the executor script.
struct ExecutorRun {
    scale_up: QueryOutcome,
    scale_down: QueryOutcome,
    limit: QueryOutcome,
    /// The tier-priced query, four times over one shared cache simulator.
    tiered: Vec<QueryOutcome>,
    /// Whether the shared simulator holds a partition in its memory tier
    /// after the tier-priced runs — the residency a `Tiered` scan serves
    /// rows from (`None`: the cell does not read through it).
    mem_resident: Option<bool>,
}

impl ExecutorRun {
    /// Every outcome under the name of its case, in script order.
    fn cases(&self) -> Vec<(String, &QueryOutcome)> {
        let mut all = vec![
            ("scale-up mid-pipeline".to_owned(), &self.scale_up),
            ("scale-down mid-pipeline".to_owned(), &self.scale_down),
            ("LIMIT mid-scan".to_owned(), &self.limit),
        ];
        let tiered = self.tiered.iter().enumerate();
        all.extend(tiered.map(|(i, q)| (format!("tier-priced, shared cache, run {i}"), q)));
        all
    }
}

const SCAN: &str = "SELECT COUNT(*) FROM lineitem WHERE l_qty < 40";
const LIMIT: &str = "SELECT l_order, l_price FROM lineitem WHERE l_qty > 10 LIMIT 700";
const JOIN: &str = "SELECT c_segment, SUM(l_price) AS spend FROM lineitem l \
                    JOIN orders o ON l.l_order = o.o_id JOIN customer c ON o.o_cust = c.c_id \
                    GROUP BY c_segment ORDER BY c_segment";

fn executor_script(config: &ExecutionConfig) -> ExecutorRun {
    // A catalog per cell, so each cell writes its own page-store files.
    let cat = generator().build_catalog().expect("catalog");
    let fast_resize = ExecutionConfig {
        resize_latency: SimDuration::from_millis(50),
        ..config.clone()
    };
    let mut up = ScaleUpOnce {
        target: 8,
        fired: false,
    };
    let scale_up = execute(&cat, &fast_resize, SCAN, 1, &mut up);
    let mut down = ScaleDownOnce { fired: false };
    let scale_down = execute(&cat, config, SCAN, 8, &mut down);
    let limit = execute(&cat, config, LIMIT, 2, &mut NoScaling);

    // A 64 KB memory tier holds a quarter of the ~230 KB the join scans,
    // so over four runs the shared cache serves from memory, from SSD and
    // from the object store, promotes, *and* evicts.
    let mut pricing = TierPricing::standard();
    pricing.mem.capacity_bytes = 64 << 10;
    let sim = Arc::new(Mutex::new(TierCacheSim::new(pricing.clone())));
    let priced = ExecutionConfig {
        tiers: Some(pricing),
        tier_sim: Some(sim.clone()),
        ..config.clone()
    };
    let tiered = (0..4)
        .map(|_| execute(&cat, &priced, JOIN, 2, &mut NoScaling))
        .collect();
    let mem_resident = (config.page_source == PageSourceMode::Tiered).then(|| {
        let sim = sim.lock().expect("simulator");
        cat.tables().any(|(_, e)| {
            (0..e.table.partitions.len() as u32)
                .any(|part| sim.holds(CacheKey::new(e.table.id, part), TierLevel::Mem))
        })
    });
    ExecutorRun {
        scale_up,
        scale_down,
        limit,
        tiered,
        mem_resident,
    }
}

#[test]
fn executor_with_scripted_controllers_agrees_across_all_seven_cells() {
    let outs: Outputs<ExecutorRun> = cells()
        .into_iter()
        .map(|(name, config)| {
            let run = executor_script(&config);
            (name, config, run)
        })
        .collect();

    for (i, (what, _)) in outs[0].2.cases().iter().enumerate() {
        let case: Outputs<&QueryOutcome> = outs
            .iter()
            .map(|(name, config, run)| (*name, config.clone(), run.cases()[i].1))
            .collect();
        assert_matrix(
            what,
            &case,
            |q| q.result.clone(),
            |q| deterministic(&q.metrics),
        );
    }

    for (name, config, run) in &outs {
        // Resize × cell is really exercised: both controllers fired, in
        // every cell, and did what the engine tests say they do.
        assert!(run.scale_up.metrics.resize_events > 0, "{name}: scale-up");
        assert!(
            run.scale_down.metrics.resize_events > 0,
            "{name}: scale-down"
        );
        assert_eq!(run.limit.result.rows(), 700, "{name}: LIMIT");
        let sums = |f: fn(&cost_intel::exec::PipelineMetrics) -> u32| -> Vec<u32> {
            run.tiered
                .iter()
                .map(|q| q.metrics.pipelines.iter().map(f).sum())
                .collect()
        };
        let (hits, evictions) = (
            sums(|p| p.tier_mem_hits + p.tier_ssd_hits),
            sums(|p| p.tier_evictions),
        );
        assert!(hits[3] > hits[0], "{name}: the cache never warmed");
        assert!(
            evictions.iter().sum::<u32>() > 0,
            "{name}: the small memory tier never evicted"
        );

        // And the cell is what its name says, not the default in disguise.
        let all: Vec<&QueryOutcome> = run.cases().into_iter().map(|(_, q)| q).collect();
        let workers = match config.mode {
            ExecutionMode::Simulate => 0,
            ExecutionMode::Parallel { workers } => workers as u32,
        };
        for q in &all {
            assert!(
                q.metrics
                    .pipelines
                    .iter()
                    .all(|p| p.pool_workers == workers),
                "{name}: pool width"
            );
            assert_eq!(q.op_samples.is_empty(), workers == 0, "{name}: samples");
            assert_eq!(
                q.trace.as_ref().map(|t| t.level),
                config.trace.enabled().then_some(config.trace),
                "{name}: trace"
            );
        }
        // Retries and hedges both: the two recovery paths that bill.
        let faults: u32 = all
            .iter()
            .flat_map(|q| &q.metrics.pipelines)
            .map(|p| p.fetch_retries.min(p.hedged_morsels))
            .sum();
        assert_eq!(faults > 0, config.faults.is_some(), "{name}: faults");
        assert_eq!(
            run.mem_resident,
            (config.page_source == PageSourceMode::Tiered).then_some(true),
            "{name}: memory residency"
        );
    }

    // A fault schedule only ever adds to the bill.
    let (base, chaos) = (&outs[0].2, &outs[3].2);
    assert!(chaos.scale_up.metrics.cost >= base.scale_up.metrics.cost);
    assert!(chaos.scale_down.metrics.cost >= base.scale_down.metrics.cost);
}
