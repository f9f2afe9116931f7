//! The measuring side of the benchmark: timed ops, quality accounting,
//! result checks and — in a traced run — spans around a replay of each query
//! through the layers' public functions.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ci_core::catalog::ErrorInjector;
use ci_core::cost::CostEstimator;
use ci_core::exec::{
    ExecutionConfig, ExecutionMode, Executor, NoScaling, PageSourceMode, QueryOutcome,
    TierCacheSim, TraceLevel,
};
use ci_core::monitor::DopMonitor;
use ci_core::optimizer::{Optimizer, PlannedQuery};
use ci_core::plan::{bind, physical::build_plan, PipelineGraph};
use ci_core::sql::parse;
use ci_core::types::stats::relative_error;
use ci_core::types::{Result, SimTime};
use ci_core::{Constraint, QueryReport, Warehouse, WarehouseConfig};

use crate::calib::Calibrator;
use crate::spans::{Span, SpanLog};
use crate::stats;
use crate::verify::{Digest, Fingerprint};

/// One timed public call.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub kind: u16,
    pub iter: u32,
    /// Taken while spans and replays were on (traced runs alternate).
    pub traced: bool,
    pub start_ns: u64,
    pub wall_ns: u64,
}

/// The paper's quality outputs, from the `QueryReport`s of timed submits.
#[derive(Default, Clone)]
pub struct Quality {
    pub queries: u64,
    pub latency_sum_s: f64,
    pub sla_met: u64,
    pub feasible: u64,
    pub resize_events: u64,
    pub relerr_latency: Vec<f64>,
    pub relerr_cost: Vec<f64>,
    pub spend_usd: f64,
}

/// Counts read off the result structs the engine already returns (replayed
/// `QueryOutcome`s, proposals), over the first timed iteration only: the run
/// is a time window, so only a fixed iteration makes a count repeat exactly.
#[derive(Default)]
pub struct LayerCounts {
    pub pipelines: u64,
    pub estimates: u64,
    pub candidates: u64,
    pub variants: u64,
    pub source_rows: u64,
    pub sink_rows_physical: u64,
    pub morsels: u64,
    pub exchange_wire_bytes: u64,
    pub worker_busy_ns: u64,
    pub pool_workers: u32,
    pub agg_partials: u64,
    pub pool_reuses: u64,
    pub tier_mem_hits: u64,
    pub tier_ssd_hits: u64,
    pub tier_misses: u64,
    pub tier_promotions: u64,
    pub tier_evictions: u64,
    pub tier_saved_ns: u64,
    /// Operator class → (work units, measured wall ns), from `op_samples`.
    pub op_class: BTreeMap<&'static str, (f64, u64)>,
    pub proposals: u64,
    pub accepted: u64,
    pub first_replay_usd: f64,
    pub second_replay_usd: f64,
    pub tuned_queries: u64,
    pub mv_hits: u64,
    /// Bytes behind the storage probe's spans.
    pub read_bytes: u64,
    pub persist_bytes: u64,
    pub page_bytes: u64,
    pub file_bytes: u64,
    pub logical_bytes: u64,
}

impl LayerCounts {
    fn add_replay(&mut self, planned: &PlannedQuery, outcome: &QueryOutcome) {
        self.pipelines += planned.graph.len() as u64;
        self.estimates += planned.search.estimates;
        self.candidates += planned.search.candidates;
        self.variants += planned.variants_considered as u64;
        for p in &outcome.metrics.pipelines {
            self.source_rows += p.source_rows;
            self.sink_rows_physical += p.sink_rows_physical;
            self.morsels += p.morsels as u64;
            self.exchange_wire_bytes += p.exchange_wire_bytes;
            self.worker_busy_ns += p.measured_wall_ns;
            self.pool_workers = self.pool_workers.max(p.pool_workers);
            self.agg_partials += u64::from(p.agg_partials);
            self.pool_reuses = self.pool_reuses.max(p.pool_reuses);
            self.tier_mem_hits += u64::from(p.tier_mem_hits);
            self.tier_ssd_hits += u64::from(p.tier_ssd_hits);
            self.tier_misses += u64::from(p.tier_misses);
            self.tier_promotions += u64::from(p.tier_promotions);
            self.tier_evictions += u64::from(p.tier_evictions);
            self.tier_saved_ns += p.tier_saved_ns;
        }
        for s in &outcome.op_samples {
            let e = self.op_class.entry(s.op).or_insert((0.0, 0));
            e.0 += s.units;
            e.1 += s.wall_ns;
        }
    }
}

/// Everything one run records.
pub struct Recorder {
    t0: Instant,
    pub workload: &'static str,
    /// Op-kind names; index 0 is "-" (spans outside any op).
    pub kinds: Vec<String>,
    pub ops: Vec<OpRec>,
    pub iter: u32,
    pub attempted: u64,
    pub failed: u64,
    /// `false` during set-up: ops run (and are checked) but are not recorded.
    pub timing: bool,
    /// Spans and layer replays are on for the current iteration.
    pub tracing: bool,
    pub calib: Calibrator,
    pub quality: Quality,
    /// `quality` as it stood after the first timed iteration (the exact side
    /// of the per-layer metrics, like `counts`).
    pub quality_first: Quality,
    pub digest: Digest,
    pub spans: SpanLog,
    pub counts: LayerCounts,
    op_seq: u32,
    open_op: Option<u32>,
}

impl Recorder {
    pub fn new(workload: &'static str, seed: u64, t0: Instant) -> Recorder {
        Recorder {
            t0,
            workload,
            kinds: vec!["-".to_owned()],
            ops: Vec::new(),
            iter: 0,
            attempted: 0,
            failed: 0,
            timing: false,
            tracing: false,
            calib: Calibrator::default(),
            quality: Quality::default(),
            quality_first: Quality::default(),
            digest: Digest::for_seed(seed),
            spans: SpanLog::default(),
            counts: LayerCounts::default(),
            op_seq: 0,
            open_op: None,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// `true` during the first timed iteration, the one counts are taken on.
    pub fn counting(&self) -> bool {
        self.timing && self.iter == 0
    }

    /// Closes a timed iteration.
    pub fn end_iteration(&mut self) {
        if self.iter == 0 {
            self.quality_first = self.quality.clone();
        }
        self.iter += 1;
    }

    /// Interns an op-kind name.
    pub fn kind(&mut self, name: &str) -> u16 {
        if let Some(i) = self.kinds.iter().position(|k| k == name) {
            return i as u16;
        }
        self.kinds.push(name.to_owned());
        (self.kinds.len() - 1) as u16
    }

    /// Counts a failed op (an `Err`, a checksum mismatch, a failed harness
    /// assertion) and says why on stderr.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("bench_e2e: FAILED op on {}: {why}", self.workload);
        }
    }

    /// Checks a fingerprint against this run's digest and the golden file.
    pub fn check(&mut self, key: &str, fp: Fingerprint) {
        if !self.digest.check(key, fp) {
            self.fail(format!("result of {key} changed: {fp:?}"));
        }
    }

    /// Times one public call as an op of `kind`. In a traced iteration the
    /// call gets a span named `span` under a fresh `op` span, which stays
    /// open for the layer replay until [`Recorder::end_op`].
    pub fn op<T>(
        &mut self,
        kind: u16,
        span: &'static str,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<T> {
        self.calib.tick(self.now_ns());
        self.attempted += 1;
        self.op_seq += 1;
        let start = self.now_ns();
        let ids = self.tracing.then(|| {
            let op = self.spans.begin("op", self.op_seq, kind, start);
            (op, self.spans.begin(span, self.op_seq, kind, start))
        });
        let out = f();
        let end = self.now_ns();
        if let Some((op, root)) = ids {
            self.spans.end(root, end);
            self.open_op = Some(op);
        }
        if self.timing {
            self.ops.push(OpRec {
                kind,
                iter: self.iter,
                traced: self.tracing,
                start_ns: start,
                wall_ns: end - start,
            });
        }
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{span} ({}): {e}", self.kinds[kind as usize]));
                None
            }
        }
    }

    /// Closes the `op` span [`Recorder::op`] left open.
    pub fn end_op(&mut self) {
        if let Some(op) = self.open_op.take() {
            self.spans.end(op, self.now_ns());
        }
    }

    /// An op with no replay under it.
    pub fn simple_op<T>(
        &mut self,
        kind: u16,
        span: &'static str,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<T> {
        let out = self.op(kind, span, f);
        self.end_op();
        out
    }

    /// Runs `f` under a span named after the layer function it calls (under
    /// the open op, if any). Outside traced iterations it only runs `f`.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.tracing {
            return f();
        }
        let (op, kind) = match self.open_op {
            Some(id) => {
                let s = &self.spans.spans[id as usize - 1];
                (s.op, s.kind)
            }
            None => (0, 0),
        };
        let id = self.spans.begin(name, op, kind, self.now_ns());
        let out = f();
        self.spans.end(id, self.now_ns());
        out
    }

    /// A duration in ms at nominal machine speed (see `calib`).
    pub fn norm_ms(&self, start_ns: u64, wall_ns: u64) -> f64 {
        wall_ns as f64 / 1e6 / self.calib.factor(start_ns, start_ns + wall_ns)
    }

    fn note_report(&mut self, report: Option<&QueryReport>) {
        if !self.timing {
            return;
        }
        let q = &mut self.quality;
        q.queries += 1; // an `Err` is a query that missed its constraint
        let Some(r) = report else { return };
        q.latency_sum_s += r.latency.as_secs_f64();
        q.sla_met += u64::from(r.constraint_met);
        q.feasible += u64::from(r.feasible);
        q.resize_events += u64::from(r.resize_events);
        q.relerr_latency.push(relative_error(
            r.predicted_latency.as_secs_f64(),
            r.latency.as_secs_f64(),
        ));
        q.relerr_cost
            .push(relative_error(r.predicted_cost.amount(), r.cost.amount()));
    }
}

/// Executor configurations for the layer replay: the warehouse's own, and one
/// variant per probe (one knob changed each). Each gets a cache simulator of
/// its own so replays never touch the state the warehouse's queries see.
pub struct Replay {
    exec: ExecutionConfig,
    /// (span name, config, with the DOP monitor in the loop).
    probes: Vec<(&'static str, ExecutionConfig, bool)>,
}

impl Replay {
    pub fn new(cfg: &WarehouseConfig) -> Replay {
        let own_sim = |mut e: ExecutionConfig| {
            e.tier_sim = e
                .tiers
                .clone()
                .map(|p| Arc::new(Mutex::new(TierCacheSim::new(p))));
            e
        };
        let base = &cfg.execution;
        let monitored = !cfg.disable_monitor;
        let mut probes = Vec::new();
        if monitored {
            probes.push(("probe.exec_nomon", own_sim(base.clone()), false));
        }
        if base.page_source != PageSourceMode::Mem {
            let mem = ExecutionConfig {
                page_source: PageSourceMode::Mem,
                ..base.clone()
            };
            probes.push(("probe.exec_mem", own_sim(mem), monitored));
        }
        if base.mode != ExecutionMode::Simulate {
            let sim = ExecutionConfig {
                mode: ExecutionMode::Simulate,
                ..base.clone()
            };
            probes.push(("probe.exec_sim", own_sim(sim), monitored));
        }
        let full = ExecutionConfig {
            trace: TraceLevel::Full,
            ..base.clone()
        };
        probes.push(("probe.exec_full_trace", own_sim(full), monitored));
        Replay {
            exec: own_sim(base.clone()),
            probes,
        }
    }
}

/// Submits one query as a timed op and returns its report. In a traced
/// iteration the same SQL is then replayed through the layers.
pub fn submit_op(
    rec: &mut Recorder,
    wh: &mut Warehouse,
    replay: &Replay,
    kind: u16,
    sql: &str,
    constraint: Constraint,
    at: Option<SimTime>,
) -> Option<QueryReport> {
    let report = rec.op(kind, "core.submit", || match at {
        Some(at) => wh.submit_at(sql, constraint, at),
        None => wh.submit(sql, constraint),
    });
    rec.note_report(report.as_ref());
    if rec.tracing {
        if let Some(r) = &report {
            // The warehouse answers a query matching an MV from the MV.
            let exec_sql = match &r.used_mv {
                Some(mv) => format!("SELECT * FROM {mv}"),
                None => sql.to_owned(),
            };
            if let Err(e) = replay_layers(rec, wh, replay, &exec_sql, constraint) {
                rec.fail(format!("layer replay: {e}"));
            }
        }
    }
    rec.end_op();
    report
}

/// What `Warehouse::submit` does, call by call, through the layers' public
/// functions, each under its own span; then the probes.
fn replay_layers(
    rec: &mut Recorder,
    wh: &Warehouse,
    replay: &Replay,
    sql: &str,
    constraint: Constraint,
) -> Result<()> {
    let cat = wh.catalog();
    let cfg = &wh.config;
    let ast = rec.layer("sql.parse", || parse(sql))?;
    let bound = rec.layer("plan.bind", || bind(&ast, cat))?;
    let opt = Optimizer::new(cat, cfg.optimizer.clone());
    let planned = rec.layer("optimizer.plan_bound", || opt.plan_bound(bound, constraint))?;
    // One plan build and one estimate on the chosen shape, to size the
    // optimizer's self time: plan_us − estimates × estimate_us − build_us.
    let mut injector = if cfg.optimizer.error_bound <= 1.0 {
        ErrorInjector::oracle()
    } else {
        ErrorInjector::with_bound(cfg.optimizer.error_seed, cfg.optimizer.error_bound)
    };
    rec.layer("plan.build", || {
        build_plan(&planned.bound, &planned.tree, cat, &mut injector)
            .and_then(|p| PipelineGraph::decompose(&p))
    })?;
    let est = CostEstimator::new(cat, cfg.optimizer.estimator.clone());
    rec.layer("cost.estimate", || {
        est.estimate(&planned.plan, &planned.graph, &planned.dops)
    })?;

    let mut run = |name, exec: &ExecutionConfig, monitored: bool| -> Result<QueryOutcome> {
        let executor = Executor::new(cat, exec.clone());
        let (plan, graph, dops) = (&planned.plan, &planned.graph, &planned.dops);
        if monitored {
            let mut m = DopMonitor::new(&est, plan, graph, dops, cfg.monitor.clone())?;
            rec.layer(name, || executor.execute(plan, graph, dops, &mut m))
        } else {
            rec.layer(name, || executor.execute(plan, graph, dops, &mut NoScaling))
        }
    };
    let outcome = run("exec.execute", &replay.exec, !cfg.disable_monitor)?;
    for (name, exec, monitored) in &replay.probes {
        run(name, exec, *monitored)?;
    }
    if rec.counting() {
        rec.counts.add_replay(&planned, &outcome);
    }
    Ok(())
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metric values, in reporting order.
pub type Metrics = Vec<(String, f64)>;

/// Which op walls to take: the iterations with or without spans, at nominal
/// machine speed or as the clock read them.
#[derive(Clone, Copy, PartialEq)]
enum Walls {
    Traced,
    Plain,
    PlainRaw,
}

/// `(kind, ms)` per op and the per-iteration sums.
fn op_walls(rec: &Recorder, which: Walls) -> (Vec<(usize, f64)>, Vec<f64>) {
    let mut ops = Vec::new();
    let mut iters: BTreeMap<u32, f64> = BTreeMap::new();
    for o in rec
        .ops
        .iter()
        .filter(|o| o.traced == (which == Walls::Traced))
    {
        let ms = match which {
            Walls::PlainRaw => o.wall_ns as f64 / 1e6,
            _ => rec.norm_ms(o.start_ns, o.wall_ns),
        };
        ops.push((o.kind as usize, ms));
        *iters.entry(o.iter).or_default() += ms;
    }
    (ops, iters.into_values().collect())
}

/// Median iteration wall clock of the plain iterations before calibration.
pub fn raw_iter_ms_p50(rec: &Recorder) -> f64 {
    stats::median(&op_walls(rec, Walls::PlainRaw).1)
}

/// The end-to-end metrics, from the iterations run without spans.
/// `stored` is (encoded or on-disk bytes, logical bytes) of every table
/// registered at the end of the run.
pub fn end_to_end(rec: &Recorder, setup_s: f64, stored: (u64, u64)) -> Metrics {
    let (ops, iters) = op_walls(rec, Walls::Plain);
    let kind_medians: Vec<f64> = stats::kind_medians(&ops, rec.kinds.len())
        .into_iter()
        .filter(|m| !m.is_nan())
        .collect();
    let total_s: f64 = iters.iter().sum::<f64>() / 1e3;
    let q = &rec.quality;
    let queries = q.queries as f64;
    vec![
        ("setup_s", setup_s),
        ("iter_ms_p50", stats::median(&iters)),
        ("geomean_ms", stats::geomean(&kind_medians)),
        ("ops_per_s", ops.len() as f64 / total_s),
        (
            "slowdown_p95",
            stats::percentile(&stats::slowdowns(&ops, rec.kinds.len()), 0.95),
        ),
        ("peak_rss_mb", peak_rss_mb()),
        ("billed_usd_per_query", q.spend_usd / queries),
        ("sim_latency_s_mean", q.latency_sum_s / queries),
        ("sla_hit_rate", q.sla_met as f64 / queries),
        (
            "stored_bytes_per_user_byte",
            stored.0 as f64 / stored.1 as f64,
        ),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_owned(), v))
    .collect()
}

/// Normalised span durations (ms) grouped three ways.
struct SpanStats {
    by_name: BTreeMap<&'static str, Vec<f64>>,
    by_name_kind: BTreeMap<(&'static str, u16), Vec<f64>>,
    /// Per op: [submit, parse + bind + plan_bound + execute].
    per_op: BTreeMap<u32, [f64; 2]>,
}

impl SpanStats {
    fn of(rec: &Recorder) -> SpanStats {
        let mut st = SpanStats {
            by_name: BTreeMap::new(),
            by_name_kind: BTreeMap::new(),
            per_op: BTreeMap::new(),
        };
        for s in &rec.spans.spans {
            let ms = rec.norm_ms(s.start_ns, s.dur_ns());
            st.by_name.entry(s.name).or_default().push(ms);
            st.by_name_kind
                .entry((s.name, s.kind))
                .or_default()
                .push(ms);
            let slot = match s.name {
                "core.submit" => 0,
                "sql.parse" | "plan.bind" | "optimizer.plan_bound" | "exec.execute" => 1,
                _ => continue,
            };
            st.per_op.entry(s.op).or_default()[slot] += ms;
        }
        st
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        stats::median(self.samples(name))
    }

    fn sum(&self, name: &str) -> f64 {
        self.samples(name).iter().sum()
    }

    fn kind_median(&self, name: &'static str, kind: u16) -> f64 {
        stats::median(
            self.by_name_kind
                .get(&(name, kind))
                .map_or(&[], Vec::as_slice),
        )
    }
}

/// The per-layer metrics of a traced run. Timings are over every traced
/// iteration; counts and rates of counts are those of the first one.
pub fn per_layer(rec: &Recorder) -> Metrics {
    let st = SpanStats::of(rec);
    let c = &rec.counts;
    let q = &rec.quality_first;
    let (_, traced_iters) = op_walls(rec, Walls::Traced);
    let (_, plain_iters) = op_walls(rec, Walls::Plain);
    let (raw_ops, raw_iters) = op_walls(rec, Walls::PlainRaw);
    let n_traced = traced_iters.len().max(1) as f64;
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // Ops that were replayed: submit beside the sum of its layer spans.
    let replayed: Vec<[f64; 2]> = st.per_op.values().filter(|v| v[1] > 0.0).copied().collect();
    let overhead_us: Vec<f64> = replayed.iter().map(|v| (v[0] - v[1]) * 1e3).collect();
    let submit_kinds: Vec<u16> = (0..rec.kinds.len() as u16)
        .filter(|&k| st.by_name_kind.contains_key(&("exec.execute", k)))
        .collect();
    let exec_share: Vec<f64> = submit_kinds
        .iter()
        .map(|&k| st.kind_median("exec.execute", k) / st.kind_median("core.submit", k))
        .collect();
    let exec_sum = st.sum("exec.execute");
    // A probe differs from the replayed execute in one knob; without the
    // probe (the workload already runs that way) the two sides are equal.
    let probe_sum = |name: &str| {
        if st.by_name.contains_key(name) {
            st.sum(name)
        } else {
            exec_sum
        }
    };
    let tier_accesses = (c.tier_mem_hits + c.tier_ssd_hits + c.tier_misses) as f64;
    let mb_per_s = |bytes: u64, span: &str| share(bytes as f64 / 1e6, st.sum(span) / 1e3);

    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_owned(), v));
    put("sql.parse_us", st.median("sql.parse") * 1e3);
    put("plan.bind_us", st.median("plan.bind") * 1e3);
    put("plan.build_us", st.median("plan.build") * 1e3);
    put("plan.pipelines", c.pipelines as f64);
    put("optimizer.plan_us", st.median("optimizer.plan_bound") * 1e3);
    put("optimizer.estimates", c.estimates as f64);
    put("optimizer.candidates", c.candidates as f64);
    put("optimizer.variants", c.variants as f64);
    put(
        "optimizer.feasible_rate",
        share(q.feasible as f64, q.queries as f64),
    );
    put("cost.estimate_us", st.median("cost.estimate") * 1e3);
    put(
        "est_latency_relerr_p90",
        stats::percentile(&q.relerr_latency, 0.9),
    );
    put(
        "est_cost_relerr_p90",
        stats::percentile(&q.relerr_cost, 0.9),
    );
    put("exec.execute_ms", st.median("exec.execute"));
    put("exec.share", stats::mean(&exec_share));
    put("exec.source_rows", c.source_rows as f64);
    put("exec.sink_rows_physical", c.sink_rows_physical as f64);
    put("exec.morsels", c.morsels as f64);
    put("exec.exchange_wire_bytes", c.exchange_wire_bytes as f64);
    put(
        "exec.source_rows_per_s",
        share(c.source_rows as f64, exec_sum / n_traced / 1e3),
    );
    put("exec.worker_busy_ms", c.worker_busy_ns as f64 / 1e6);
    // Busy worker time over workers × the wall clock of an iteration's
    // executes (both raw); the rest is waiting.
    let exec_raw_ns: u64 = rec
        .spans
        .spans
        .iter()
        .filter(|s| s.name == "exec.execute")
        .map(Span::dur_ns)
        .sum();
    put(
        "exec.pool_busy_share",
        share(
            c.worker_busy_ns as f64,
            f64::from(c.pool_workers) * exec_raw_ns as f64 / n_traced,
        ),
    );
    for class in ["filter", "probe", "build", "agg", "sort", "exchange"] {
        let (units, ns) = c.op_class.get(class).copied().unwrap_or((0.0, 0));
        put(
            &format!("exec.op_ns_per_row.{class}"),
            share(ns as f64, units),
        );
    }
    put("exec.agg_partials", c.agg_partials as f64);
    put("exec.pool_reuses", c.pool_reuses as f64);
    put(
        "exec.par_speedup",
        share(probe_sum("probe.exec_sim"), exec_sum),
    );
    put(
        "storage.read_partition_us",
        st.median("storage.read_partition") * 1e3,
    );
    put(
        "storage.decode_mb_s",
        mb_per_s(c.read_bytes, "storage.read_partition"),
    );
    put(
        "storage.persist_mb_s",
        mb_per_s(c.persist_bytes, "storage.persist"),
    );
    put(
        "storage.page_encode_mb_s",
        mb_per_s(c.page_bytes, "storage.page_encode"),
    );
    put(
        "storage.page_decode_mb_s",
        mb_per_s(c.page_bytes, "storage.page_decode"),
    );
    put("storage.recluster_ms", st.median("storage.recluster"));
    put("storage.file_bytes", c.file_bytes as f64);
    put("storage.logical_bytes", c.logical_bytes as f64);
    put(
        "storage.fetch_decode_share",
        share(exec_sum - probe_sum("probe.exec_mem"), exec_sum),
    );
    put("catalog.register_ms", st.median("catalog.register"));
    put(
        "cloud.tier_mem_hit_rate",
        share(c.tier_mem_hits as f64, tier_accesses),
    );
    put(
        "cloud.tier_ssd_hit_rate",
        share(c.tier_ssd_hits as f64, tier_accesses),
    );
    put(
        "cloud.tier_miss_rate",
        share(c.tier_misses as f64, tier_accesses),
    );
    put("cloud.tier_promotions", c.tier_promotions as f64);
    put("cloud.tier_evictions", c.tier_evictions as f64);
    put("cloud.tier_saved_ms", c.tier_saved_ns as f64 / 1e6);
    put("monitor.resize_events", q.resize_events as f64);
    put(
        "monitor.overhead_share",
        share(
            exec_sum - probe_sum("probe.exec_nomon"),
            st.sum("core.submit"),
        ),
    );
    put("autotune.proposals_ms", st.median("autotune.proposals"));
    put("autotune.apply_ms", st.median("autotune.apply"));
    put("autotune.proposals", c.proposals as f64);
    put("autotune.accepted", c.accepted as f64);
    put(
        "autotune.spend_ratio",
        share(c.second_replay_usd, c.first_replay_usd),
    );
    put(
        "autotune.mv_hit_rate",
        share(c.mv_hits as f64, c.tuned_queries as f64),
    );
    for t in 1..=12 {
        let name = format!("q{t:02}");
        let kind = rec.kinds.iter().position(|k| *k == name);
        let v = kind.map_or(f64::NAN, |k| st.kind_median("core.submit", k as u16));
        put(&format!("core.submit_ms.{name}"), v);
    }
    put("core.overhead_us", stats::median(&overhead_us));
    put(
        "core.layer_sum_ratio",
        share(
            replayed.iter().map(|v| v[1]).sum(),
            replayed.iter().map(|v| v[0]).sum(),
        ),
    );
    put("workload.gen_s", st.median("workload.gen") / 1e3);
    put("workload.trace_gen_ms", st.median("workload.trace_gen"));
    put(
        "obs.bench_trace_overhead",
        share(stats::median(&traced_iters), stats::median(&plain_iters)),
    );
    put(
        "obs.engine_trace_overhead",
        share(probe_sum("probe.exec_full_trace"), exec_sum),
    );
    put("calib.speed_factor", rec.calib.factor_range()[1]);
    put("raw.iter_ms_p50", stats::median(&raw_iters));
    put(
        "raw.slowdown_p99",
        stats::percentile(&stats::slowdowns(&raw_ops, rec.kinds.len()), 0.99),
    );
    put("raw.iterations", f64::from(rec.iter));
    // A layer the workload never calls reports 0, not a gap.
    for (_, v) in &mut m {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{END_TO_END, PER_LAYER};

    fn empty() -> Recorder {
        Recorder::new("cab_sim", 0, Instant::now())
    }

    #[test]
    fn emitted_metric_names_are_exactly_the_manifests() {
        let rec = empty();
        let e2e: Vec<String> = end_to_end(&rec, 1.0, (1, 1))
            .into_iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(e2e, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
        let layers: Vec<String> = per_layer(&rec).into_iter().map(|m| m.0).collect();
        assert_eq!(layers, PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
        assert!(per_layer(&rec).iter().all(|m| m.1.is_finite()));
    }

    #[test]
    fn ops_are_recorded_only_while_timing_and_errors_count_as_failed() {
        let mut rec = empty();
        let k = rec.kind("q01");
        assert_eq!(rec.kind("q01"), k);
        assert_eq!(rec.simple_op(k, "core.submit", || Ok(1)), Some(1));
        assert!(rec.ops.is_empty());
        rec.timing = true;
        rec.tracing = true;
        let bad: Option<()> = rec.simple_op(k, "core.submit", || {
            Err(ci_core::types::CiError::Exec("boom".into()))
        });
        assert_eq!(bad, None);
        rec.note_report(None);
        assert_eq!((rec.attempted, rec.failed, rec.ops.len()), (2, 1, 1));
        // The failed query counts as one that missed its constraint.
        assert_eq!((rec.quality.queries, rec.quality.sla_met), (1, 0));
        // op + core.submit spans, correctly nested and closed.
        assert_eq!(rec.spans.spans.len(), 2);
        assert_eq!(rec.spans.spans[1].parent, rec.spans.spans[0].id);
    }
}
