//! The paper's claims, as assertions that run in tier-1.
//!
//! One test per claim that needs CAB-scale, *executed* numbers. Each test
//! builds its figure's table as data, prints it and asserts on it:
//! `cargo test -p ci-bench --test paper_claims <name> -- --nocapture`
//! regenerates a figure's rows. A claim the system does not reproduce
//! today is a [`not_yet`], which fails the day it starts to hold. The
//! reading each threshold was derived from is recorded beside it. Claims
//! about the what-if calculus (§4) and the statistics service live next to
//! their code (`ci-autotune`), the Figure-3 loop in `tests/end_to_end.rs`;
//! README "Reproduction status" is the index.

mod support;

use std::sync::{Arc, Mutex, OnceLock};

use ci_bench::plan_query;
use ci_catalog::{Catalog, ErrorInjector};
use ci_core::{Warehouse, WarehouseConfig};
use ci_cost::{CostEstimator, EstimatorConfig, QueryEstimate};
use ci_exec::scaling::{PipelineProgress, ScaleDecision, ScalingController};
use ci_exec::{
    ExecutionConfig, Executor, NoScaling, PageSourceMode, QueryOutcome, TierCacheSim, TierPricing,
};
use ci_monitor::{DopMonitor, MonitorConfig};
use ci_optimizer::pareto::{cost_inflation, pareto_frontier, ParetoPoint};
use ci_optimizer::{Constraint, DopPlan, DopPlanner, Optimizer, OptimizerConfig, PlannedQuery};
use ci_plan::physical::build_plan;
use ci_plan::{bind, dag_plan, PipelineGraph};
use ci_sql::parse;
use ci_types::money::Dollars;
use ci_types::stats::relative_error;
use ci_types::{DetRng, SimDuration};
use ci_workload::{queries, CabGenerator};
use support::baselines::{StageBoundaryScaling, WholeClusterScaling};
use support::bushy::{bushiness, bushy_variants};
use support::run_uniform;
use support::stats::Summary;
use support::tshirt::TShirtSize;

type Cab = (CabGenerator, Catalog);

fn build_cab(scale: f64) -> Cab {
    let gen = CabGenerator::at_scale(scale);
    let cat = gen.build_catalog().expect("catalog");
    (gen, cat)
}

/// The CAB catalog at SF 0.5, built once for every test that shares it.
/// The scale is the smallest at which fixed terms (provisioning, request
/// latency) do not hide the claims: at SF 0.1 every T-shirt size has the
/// same latency and no misestimated plan misses an SLA.
fn cab() -> &'static Cab {
    static CAB: OnceLock<Cab> = OnceLock::new();
    CAB.get_or_init(|| build_cab(0.5))
}

/// SF 4, for the two claims about *sustained* single-pipeline work (E1,
/// E7): at SF 0.5 a scan is 0.6 s of which 0.5 s is provisioning.
fn cab_large() -> &'static Cab {
    static CAB: OnceLock<Cab> = OnceLock::new();
    CAB.get_or_init(|| build_cab(4.0))
}

/// A claim the system does not reproduce today. Passing means the gap is
/// still there; the day `holds` becomes true this fails, so a gap can
/// neither close nor be forgotten silently.
fn not_yet(claim: &str, holds: bool) {
    println!("  not yet: {claim}");
    assert!(
        !holds,
        "'{claim}' now holds — make it an assertion and move its row in \
         README's Reproduction status to 'asserted'"
    );
}

fn secs(d: SimDuration) -> f64 {
    d.as_secs_f64()
}

fn sla_ms(ms: u64) -> Constraint {
    Constraint::LatencySla(SimDuration::from_millis(ms))
}

fn point(latency: SimDuration, cost: Dollars) -> ParetoPoint<()> {
    ParetoPoint {
        latency,
        cost,
        config: (),
    }
}

/// F1 (Figure 1, §2): one fixed T-shirt size for a mixed workload either
/// misses SLAs or overpays; per-query automatic deployment does neither.
#[test]
fn f1_tshirt_sizes_over_or_under_provision() {
    let (gen, cat) = cab();
    let sqls: Vec<String> = [2, 3, 6, 9, 12]
        .iter()
        .map(|&q| queries::canonical(q, gen))
        .collect();
    let sla = SimDuration::from_millis(2150);

    // (label, SLAs met, total dollars)
    let mut menu: Vec<(String, usize, f64)> = Vec::new();
    for size in TShirtSize::ALL {
        let (mut met, mut cost) = (0, 0.0);
        for sql in &sqls {
            let (plan, graph) = plan_query(cat, sql).expect("plan");
            let m = run_uniform(cat, &plan, &graph, size.nodes())
                .expect("run")
                .metrics;
            met += (m.latency <= sla) as usize;
            cost += m.cost.amount();
        }
        menu.push((format!("{} ({})", size.label(), size.nodes()), met, cost));
    }
    let mut w = Warehouse::new(cat.clone(), WarehouseConfig::default());
    let (mut auto_met, mut auto_cost) = (0, 0.0);
    for sql in &sqls {
        let r = w.submit(sql, Constraint::LatencySla(sla)).expect("submit");
        auto_met += r.constraint_met as usize;
        auto_cost += r.cost.amount();
    }

    println!("F1 — SLA {:.2} s over {} queries", secs(sla), sqls.len());
    println!("          config | SLA met |    total $");
    for (label, met, cost) in menu.iter().chain([&("auto".into(), auto_met, auto_cost)]) {
        println!("{label:>16} | {met:>5}/{} | {cost:>10.5}", sqls.len());
    }

    // Reading: auto 5/5 for $0.01034; X-Small 4/5; Medium (4) is the
    // cheapest size that meets all five, for $0.03082 = 2.98x auto.
    assert_eq!(auto_met, sqls.len(), "auto deployment meets every SLA");
    assert!(menu[0].1 < sqls.len(), "the smallest size under-provisions");
    let meeting: Vec<_> = menu.iter().filter(|m| m.1 == sqls.len()).collect();
    assert!(!meeting.is_empty(), "some fixed size meets every SLA");
    for (label, _, cost) in meeting {
        assert!(
            *cost >= 2.0 * auto_cost,
            "{label} meets every SLA for ${cost:.5}, under 2x auto's ${auto_cost:.5}"
        );
    }
}

/// F2 (Figure 2, §2): the optimizer's picks sit on the Pareto frontier of
/// the (latency, dollars) plane; large uniform sizes sit far above it.
#[test]
fn f2_optimizer_picks_sit_on_the_pareto_frontier() {
    let (gen, cat) = cab();
    let sql = queries::canonical(9, gen);
    let est = CostEstimator::new(cat, EstimatorConfig::default());
    let opt = Optimizer::new(cat, OptimizerConfig::default());
    let ladder = [1u32, 2, 4, 8, 16, 32, 64, 128];

    println!("F2 — Q9, frontier sampled over the join tree of each pick");
    println!("    config |  latency |         $ | inflation");
    let mut picks = Vec::new();
    for ms in [1200u64, 1600, 2400, 4000, 30000] {
        let pq = opt.plan_sql(&sql, sla_ms(ms)).expect("plan");
        // The plane this pick lives in: every uniform ladder point plus
        // seeded random DOP vectors over the same plan.
        let mut rng = DetRng::seed_from_u64(2);
        let mut points = Vec::new();
        for i in 0..1500 {
            let dops: Vec<u32> = match ladder.get(i) {
                Some(&d) => vec![d; pq.graph.len()],
                None => (0..pq.graph.len())
                    .map(|_| ladder[rng.usize_below(ladder.len())])
                    .collect(),
            };
            let q = est.estimate(&pq.plan, &pq.graph, &dops).expect("estimate");
            points.push(point(q.latency, q.cost));
        }
        let frontier = pareto_frontier(&points);
        let pick = point(pq.predicted.latency, pq.predicted.cost);
        let inflation = cost_inflation(&frontier, &pick);
        println!(
            "{:>10} | {:>8.3} | {:>9.5} | {inflation:>8.2}x",
            format!("SLA {ms}ms"),
            secs(pick.latency),
            pick.cost.amount()
        );
        // Reading: 1.00 at every SLA (a pick may undercut the sampled
        // frontier, never exceed it by more than sampling noise).
        assert!(inflation <= 1.05, "SLA {ms} ms: inflation {inflation}");
        assert!(
            frontier.iter().all(|f| !f.dominates(&pick)),
            "SLA {ms} ms: a sampled configuration dominates the pick"
        );
        picks.push((pq, pick, frontier));
    }
    // The sweep moves along the frontier: a tighter SLA buys latency.
    let (tightest, (pq, loosest, frontier)) = (&picks[0].1, &picks[picks.len() - 1]);
    assert!(tightest.latency < loosest.latency && tightest.cost > loosest.cost);

    for d in [1u32, 4, 16, 64, 128] {
        let m = run_uniform(cat, &pq.plan, &pq.graph, d)
            .expect("run")
            .metrics;
        let p = point(m.latency, m.cost);
        let inflation = cost_inflation(frontier, &p);
        println!(
            "{:>10} | {:>8.3} | {:>9.5} | {inflation:>8.2}x",
            format!("{d} nodes"),
            secs(p.latency),
            p.cost.amount()
        );
        if d >= 16 {
            assert!(inflation >= 2.0, "{d} uniform nodes: inflation {inflation}");
        }
    }
}

/// E1 (§2): elasticity is near-free for scans while work dominates, and
/// over-scaling an exchange-heavy join buys worse latency for more dollars.
#[test]
fn e1_scans_scale_for_free_joins_do_not() {
    let (gen, cat) = cab_large();
    // The 1 x 100 min == 100 x 1 min identity presumes sustained work:
    // shrink the fixed provisioning tail so it does not mask the scaling.
    let config = ExecutionConfig {
        resize_latency: SimDuration::from_millis(100),
        ..ExecutionConfig::default()
    };
    let exec = Executor::new(cat, config);
    let sweep = |label: &str, q: usize| -> Vec<(u32, f64, f64)> {
        let (plan, graph) = plan_query(cat, &queries::canonical(q, gen)).expect("plan");
        println!("E1 — {label}");
        println!("  dop |  latency |         $ | speedup | $ ratio");
        let mut rows: Vec<(u32, f64, f64)> = Vec::new();
        for d in [1u32, 16, 64, 256] {
            let out = exec
                .execute(&plan, &graph, &vec![d; graph.len()], &mut NoScaling)
                .expect("run");
            rows.push((d, secs(out.metrics.latency), out.metrics.cost.amount()));
            let (_, l0, c0) = rows[0];
            let (_, l, c) = rows[rows.len() - 1];
            println!(
                "{d:>5} | {l:>8.3} | {c:>9.5} | {:>6.2}x | {:>6.2}x",
                l0 / l,
                c / c0
            );
        }
        rows
    };
    let scan = sweep("scan (Q6, no exchange)", 6);
    let join = sweep("join (Q9, five exchanges)", 9);

    // Readings: scan 6.98x faster at 16 nodes for 2.79x the dollars; join
    // knee at dop 64 (0.483 s), dop 256 0.538 s for 4.4x the knee's dollars.
    let (at1, at16) = (scan[0], scan[1]);
    assert!(at1.1 / at16.1 >= 6.0, "scan speedup at 16 nodes");
    assert!(at16.2 / at1.2 < 4.0, "scan dollars at 16 nodes");
    let knee = join
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("rows");
    let tail = join[join.len() - 1];
    assert!(
        tail.0 > knee.0 && tail.1 > knee.1 && tail.2 > knee.2,
        "past the knee at dop {} the join is slower and dearer: {tail:?} vs {knee:?}",
        knee.0
    );
}

/// E2 (§3.1): the estimator predicts executed latency and dollars.
#[test]
fn e2_estimator_is_accurate() {
    let (gen, cat) = cab();
    let est = CostEstimator::new(cat, EstimatorConfig::default());
    let (mut lat_errs, mut cost_errs) = (Vec::new(), Vec::new());
    println!("E2 — predicted vs executed");
    println!("query |  dop |   pred s |   meas s | lat err |   $ err");
    for q in [1usize, 3, 4, 6, 7, 9, 12] {
        let (plan, graph) = plan_query(cat, &queries::canonical(q, gen)).expect("plan");
        for d in [1u32, 8, 64] {
            let pred = est
                .estimate(&plan, &graph, &vec![d; graph.len()])
                .expect("estimate");
            let meas = run_uniform(cat, &plan, &graph, d).expect("run").metrics;
            let e_lat = relative_error(secs(pred.latency), secs(meas.latency));
            let e_cost = relative_error(pred.cost.amount(), meas.cost.amount());
            println!(
                "{:>5} | {d:>4} | {:>8.3} | {:>8.3} | {:>6.2}% | {:>6.2}%",
                format!("Q{q}"),
                secs(pred.latency),
                secs(meas.latency),
                e_lat * 100.0,
                e_cost * 100.0
            );
            lat_errs.push(e_lat);
            cost_errs.push(e_cost);
        }
    }
    let (lat, cost) = (Summary::of(&lat_errs), Summary::of(&cost_errs));
    println!(
        "latency error p50 {:.4} p90 {:.4} max {:.4}; dollars p50 {:.4} p90 {:.4} max {:.4}",
        lat.p50, lat.p90, lat.max, cost.p50, cost.p90, cost.max
    );
    // Reading: p90 0.0071 (latency) / 0.0070 (dollars), max 0.0104.
    assert!(lat.p90 <= 0.05, "latency p90 {}", lat.p90);
    assert!(cost.p90 <= 0.05, "dollars p90 {}", cost.p90);
}

/// E3 + E4 (§3.2): constrained search with the equal-finish-time heuristic
/// stays near the exhaustive optimum for a fraction of its estimates.
#[test]
fn e3_e4_constrained_search_stays_near_exhaustive() {
    let (gen, cat) = cab();
    let est = CostEstimator::new(cat, EstimatorConfig::default());
    println!("E3+E4 — heuristic vs exhaustive over the ladder [1, 4, 16, 64]");
    println!("query |  SLA ms |     method | estimates |         $ |  latency | feasible");
    // Readings: 1-22 estimates against 256 (Q4, Q7) / 1024 (Q9); the same
    // point as the exhaustive search in all 9 cases, feasible or not;
    // siblings finish within 17 % of each other.
    let mut seen = [0usize; 2]; // [infeasible, feasible] cases compared
    for q in [4usize, 7, 9] {
        let (plan, graph) = plan_query(cat, &queries::canonical(q, gen)).expect("plan");
        // Tight (no ladder point meets it), binding (Q4 and Q9 meet it by
        // adding nodes, Q7 cannot), loose (the min-cost plan meets it).
        for ms in [1200u64, 1800, 20000] {
            let mut planner = DopPlanner::new(&est);
            planner.candidates = vec![1, 4, 16, 64];
            let h = planner.plan(&plan, &graph, sla_ms(ms)).expect("heuristic");
            let h_estimates = planner.stats.estimates;
            let e = planner
                .plan_exhaustive(&plan, &graph, sla_ms(ms))
                .expect("exhaustive");
            let e_estimates = planner.stats.estimates;
            for (name, p, n) in [
                ("heuristic", &h, h_estimates),
                ("exhaustive", &e, e_estimates),
            ] {
                println!(
                    "{:>5} | {ms:>7} | {name:>10} | {n:>9} | {:>9.5} | {:>8.3} | {:>8}",
                    format!("Q{q}"),
                    p.predicted.cost.amount(),
                    secs(p.predicted.latency),
                    p.feasible
                );
            }
            assert!(
                h_estimates * 10 <= e_estimates,
                "Q{q} @ {ms} ms: {h_estimates} vs {e_estimates} estimates"
            );
            assert_eq!(h.feasible, e.feasible, "Q{q} @ {ms} ms");
            seen[h.feasible as usize] += 1;
            let at = |p: &DopPlan| point(p.predicted.latency, p.predicted.cost);
            if h.feasible {
                let gap = h.predicted.cost.amount() / e.predicted.cost.amount();
                assert!(gap <= 1.05, "Q{q} @ {ms} ms: cost gap {gap}");
            } else {
                assert!(!at(&e).dominates(&at(&h)), "Q{q} @ {ms} ms: dominated");
            }
            // Equal finish: concurrent sibling pipelines end together.
            for group in graph.concurrent_groups() {
                let ends: Vec<f64> = group
                    .iter()
                    .map(|p| h.predicted.spans[p.index()].1.as_secs_f64())
                    .collect();
                let (lo, hi) = ends
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &e| (lo.min(e), hi.max(e)));
                assert!(
                    hi / lo <= 1.25,
                    "Q{q} @ {ms} ms: siblings {group:?} finish at {ends:?}"
                );
            }
        }
    }
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "both sides of feasibility: {seen:?}"
    );
}

/// E5 (§3.2): the optimizer plans the left-deep chain alone. §3.2's bushy
/// variants of it, the halving shapes, are DOP-planned and executed next to
/// the chain, and none beats it on the executed constrained objective.
#[test]
fn e5_bushy_exploration_never_hurts() {
    let (_, cat) = cab();
    // A chain-shaped 4-way join (part - lineitem - orders - customer): star
    // hubs admit no connected bushy split, chains do.
    let sql = "SELECT c_region, SUM(l_price) AS revenue FROM part p \
               JOIN lineitem l ON l.l_part = p.p_id \
               JOIN orders o ON l.l_order = o.o_id \
               JOIN customer c ON o.o_cust = c.c_id \
               WHERE p_price > 200.0 GROUP BY c_region";
    let bound = bind(&parse(sql).expect("parse"), cat).expect("bind");
    let order = dag_plan(&bound, cat).expect("dag");
    let est = CostEstimator::new(cat, EstimatorConfig::default());
    let exec = Executor::new(cat, ExecutionConfig::default());
    println!("E5 — the chain and its halving shapes, each DOP-planned and executed");
    println!(" SLA ms |                       tree |  latency | machine s |         $");
    let mut bushy_is_faster = false;
    // An SLA the shapes can meet, and one none can.
    for ms in [2500u64, 1500] {
        let sla = sla_ms(ms);
        let mut rows = Vec::new();
        for tree in bushy_variants(&order) {
            let plan = build_plan(&bound, &tree, cat, &mut ErrorInjector::oracle()).expect("plan");
            let graph = PipelineGraph::decompose(&plan).expect("pipelines");
            let dops = DopPlanner::new(&est)
                .plan(&plan, &graph, sla)
                .expect("dops")
                .dops;
            let m = exec
                .execute(&plan, &graph, &dops, &mut NoScaling)
                .expect("run")
                .metrics;
            println!(
                "{ms:>7} | {:>26} | {:>8.3} | {:>9.3} | {:>9.5}",
                tree.to_string(),
                secs(m.latency),
                secs(m.machine_time),
                m.cost.amount()
            );
            // The executed outcome, ranked by the optimizer's own rule.
            let outcome = QueryEstimate {
                latency: m.latency,
                machine_time: m.machine_time,
                cost: m.cost,
                spans: Vec::new(),
            };
            rows.push((tree, outcome));
        }
        assert!(rows.len() > 1 && bushiness(&rows[1].0) > bushiness(&rows[0].0));
        let (chain, shapes) = rows.split_first().expect("the chain");
        let pick = Optimizer::new(cat, OptimizerConfig::default())
            .plan_bound(bound.clone(), sla)
            .expect("pick")
            .tree;
        assert_eq!(pick, chain.0, "SLA {ms}: the optimizer plans the chain");
        for (tree, outcome) in shapes {
            assert!(
                !sla.prefers(outcome, &chain.1),
                "SLA {ms}: {tree} beats the chain"
            );
        }
        bushy_is_faster |= shapes.iter().any(|r| r.1.latency < chain.1.latency);
    }
    // Reading at SLA 2.5 s: left-deep 2.08 s / 6.4 machine-s, bushy slower
    // *and* more machine time — not a trade, so it never ranks first.
    not_yet(
        "§3.2 a bushier join shape buys latency with machine time",
        bushy_is_faster,
    );
}

/// E6 + E10 (§3, §3.3): the DOP monitor against static planning, prior
/// auto-scaling policies and a purely dynamic start, with and without
/// cardinality misestimation.
#[test]
fn e6_e10_monitor_under_misestimation() {
    const POLICIES: [&str; 5] = [
        "static",
        "whole-cluster",
        "stage-boundary",
        "dop-monitor",
        "dynamic-only",
    ];
    #[derive(Default)]
    struct Tally {
        met: usize,
        resizes: u32,
        bills: Vec<Dollars>,
    }
    let (gen, cat) = cab();
    let est = CostEstimator::new(cat, EstimatorConfig::default());
    let exec = Executor::new(cat, ExecutionConfig::default());
    let run = |pq: &PlannedQuery, dops: &[u32], policy: &mut dyn ScalingController| {
        exec.execute(&pq.plan, &pq.graph, dops, policy)
            .expect("run")
            .metrics
    };
    let optimizer = |error_bound: f64, error_seed: u64| {
        let config = OptimizerConfig {
            error_bound,
            error_seed,
            ..OptimizerConfig::default()
        };
        Optimizer::new(cat, config)
    };
    // Per-query SLA: 90 % of the executed min-cost latency — tight enough
    // that an under-provisioned plan misses it.
    let queries: Vec<(String, SimDuration)> = [3usize, 4, 9, 12]
        .iter()
        .map(|&q| {
            let sql = queries::canonical(q, gen);
            let pq = optimizer(1.0, 0)
                .plan_sql(&sql, Constraint::MinCost)
                .expect("plan");
            (sql, run(&pq, &pq.dops, &mut NoScaling).latency * 0.9)
        })
        .collect();

    println!("E6+E10 — {} queries x 3 error seeds", queries.len());
    println!("error |         policy | SLA met |     avg $ | resizes");
    let avg = |t: &Tally| t.bills.iter().map(|b| b.amount()).sum::<f64>() / t.bills.len() as f64;
    let mut table = Vec::new();
    for error_bound in [1.0f64, 4.0] {
        let mut tallies = <[Tally; 5]>::default();
        for seed in 0..3u64 {
            let opt = optimizer(error_bound, seed);
            for (sql, sla) in &queries {
                let pq = opt
                    .plan_sql(sql, Constraint::LatencySla(*sla))
                    .expect("plan");
                let monitor = || {
                    DopMonitor::new(
                        &est,
                        &pq.plan,
                        &pq.graph,
                        &pq.dops,
                        MonitorConfig::default(),
                    )
                    .expect("monitor")
                };
                let ones = vec![1u32; pq.graph.len()];
                let outs = [
                    run(&pq, &pq.dops, &mut NoScaling),
                    run(&pq, &pq.dops, &mut WholeClusterScaling::new(*sla)),
                    run(&pq, &pq.dops, &mut StageBoundaryScaling::new()),
                    run(&pq, &pq.dops, &mut monitor()),
                    // Purely dynamic: start at one node, only the monitor grows it.
                    run(&pq, &ones, &mut monitor()),
                ];
                for (t, m) in tallies.iter_mut().zip(outs) {
                    t.met += (m.latency <= *sla) as usize;
                    t.resizes += m.resize_events;
                    t.bills.push(m.cost);
                }
            }
        }
        for (name, t) in POLICIES.iter().zip(&tallies) {
            println!(
                "{error_bound:>4}x | {name:>14} | {:>4}/{:<2} | {:>9.5} | {:>7}",
                t.met,
                t.bills.len(),
                avg(t),
                t.resizes
            );
        }
        table.push(tallies);
    }
    let (oracle, [stat, whole, stage, monitor, dynamic]) = (&table[0], &table[1]);

    // Readings under 4x error: 6/12 for every policy that starts from the
    // plan; avg $ static = whole-cluster 0.00473, stage-boundary 0.00475,
    // monitor 0.00560 for its 2 resizes.
    not_yet(
        "§3.3 the DOP monitor meets more SLAs than static planning under 4x error",
        monitor.met > stat.met,
    );
    not_yet(
        "§3.3 the DOP monitor is cheaper than whole-cluster and stage-boundary scaling",
        avg(monitor) < avg(whole).min(avg(stage)),
    );

    // With exact cardinalities every policy leaves the plan alone.
    for (name, t) in POLICIES.iter().zip(oracle).take(4) {
        assert_eq!(t.resizes, 0, "{name} resized an exact plan");
        assert_eq!(t.bills, oracle[0].bills, "{name} moved a bill");
    }
    // Under 4x error the monitor intervenes mid-pipeline; the
    // stage-boundary policy, by construction, never does.
    assert!(monitor.resizes > 0, "the monitor never resized under error");
    assert_eq!(stage.resizes, 0);
    // Static planning supplies DOPs the monitor alone does not reach.
    assert!(oracle[4].met < oracle[0].met && dynamic.met < stat.met);
    assert!(
        stat.met > 0 && stat.met < 12,
        "SLAs on both sides: {}",
        stat.met
    );
}

/// Grows the pipeline to `target` nodes once past `after` of its morsels.
struct ScaleAt {
    target: u32,
    after: f64,
    fired: bool,
}

impl ScalingController for ScaleAt {
    fn on_progress(&mut self, p: &PipelineProgress) -> ScaleDecision {
        if !self.fired && p.fraction_done() >= self.after {
            self.fired = true;
            ScaleDecision::SetDop(self.target)
        } else {
            ScaleDecision::Keep
        }
    }
}

/// E7 (§3.3): morsel-driven execution resizes a running pipeline without a
/// materializing "clean cut".
#[test]
fn e7_mid_pipeline_resize_needs_no_clean_cut() {
    let (gen, cat) = cab_large();
    let (plan, graph) = plan_query(cat, &queries::canonical(6, gen)).expect("plan");
    let exec = Executor::new(cat, ExecutionConfig::default());
    let narrow = run_uniform(cat, &plan, &graph, 2).expect("narrow");
    let wide = run_uniform(cat, &plan, &graph, 16).expect("wide");
    println!("E7 — Q6, one scan pipeline, 2 -> 16 nodes mid-flight");
    println!("        strategy |  latency |         $ | resizes");
    let show = |label: &str, out: &QueryOutcome| {
        println!(
            "{label:>16} | {:>8.3} | {:>9.5} | {:>7}",
            secs(out.metrics.latency),
            out.metrics.cost.amount(),
            out.metrics.resize_events
        );
    };
    show("static dop=2", &narrow);
    show("static dop=16", &wide);
    let mut latencies = Vec::new();
    for after in [0.1f64, 0.3, 0.5, 0.7] {
        let mut ctrl = ScaleAt {
            target: 16,
            after,
            fired: false,
        };
        let out = exec
            .execute(&plan, &graph, &vec![2; graph.len()], &mut ctrl)
            .expect("resize");
        show(&format!("resize at {:.0}%", after * 100.0), &out);
        let m = &out.metrics;
        assert_eq!(m.resize_events, 1, "resize at {after}");
        assert_eq!(out.result, narrow.result, "a resize changed the rows");
        assert!(
            narrow.metrics.cost < m.cost && m.cost < wide.metrics.cost,
            "resize at {after}: dollars outside the static extremes"
        );
        latencies.push(m.latency);
    }
    // Readings: 1.897 / 2.110 / 2.428 / 2.537 s against static 2.535 s.
    // Resizing overhead is minimal (never 1 % slower than not resizing),
    // the earlier the better, and up to half-way it shortens the pipeline.
    assert!(latencies
        .iter()
        .all(|&l| l <= narrow.metrics.latency * 1.01));
    assert!(latencies.windows(2).all(|w| w[0] < w[1]));
    assert!(latencies[2] < narrow.metrics.latency && wide.metrics.latency < latencies[0]);
    not_yet(
        "§3.3 a resize at 70 % of a pipeline still shortens it",
        latencies[3] < narrow.metrics.latency,
    );
}

/// E15 (§4): the cost-aware cache warms up — misses become SSD hits, then
/// memory hits, and the bill never rises from one run to the next.
#[test]
fn e15_cache_warms_up_run_over_run() {
    let (_, cat) = build_cab(0.2);
    let sql = "SELECT l_part, SUM(l_price) FROM lineitem GROUP BY l_part";
    let (plan, graph) = plan_query(&cat, sql).expect("plan");
    // One simulation across runs: the warehouse's cache outlives a query.
    let pricing = TierPricing::standard();
    let sim = Arc::new(Mutex::new(TierCacheSim::new(pricing.clone())));
    println!("E15 — {sql}");
    println!("run | mem hits | ssd hits | misses | promoted |          $");
    // (mem hits, ssd hits, misses, dollars) per run
    let mut runs: Vec<(u32, u32, u32, f64)> = Vec::new();
    for run in 1..=6 {
        let config = ExecutionConfig {
            page_source: PageSourceMode::Tiered,
            tiers: Some(pricing.clone()),
            tier_sim: Some(sim.clone()),
            ..ExecutionConfig::default()
        };
        let m = Executor::new(&cat, config)
            .execute(&plan, &graph, &vec![2; graph.len()], &mut NoScaling)
            .expect("run")
            .metrics;
        let sum = |f: fn(&ci_exec::PipelineMetrics) -> u32| m.pipelines.iter().map(f).sum::<u32>();
        let (mem, ssd, miss) = (
            sum(|p| p.tier_mem_hits),
            sum(|p| p.tier_ssd_hits),
            sum(|p| p.tier_misses),
        );
        println!(
            "{run:>3} | {mem:>8} | {ssd:>8} | {miss:>6} | {:>8} | {:>10.6}",
            sum(|p| p.tier_promotions),
            m.cost.amount()
        );
        runs.push((mem, ssd, miss, m.cost.amount()));
    }
    let (first, second, last) = (runs[0], runs[1], runs[5]);
    assert!(first.2 > 0 && first.0 + first.1 == 0, "run 1 is all misses");
    assert!(second.1 > 0 && second.2 == 0, "run 2 hits the SSD tier");
    assert!(last.0 > 0 && last.2 == 0, "run 6 hits the memory tier");
    for pair in runs.windows(2) {
        assert!(pair[1].3 <= pair[0].3, "the bill rose: {runs:?}");
    }
    assert!(last.3 < first.3, "a warm cache is cheaper than a cold one");
}
