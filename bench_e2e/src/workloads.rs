//! The seven workloads. Each is set up from a seed, runs a fixed,
//! seed-determined op list per iteration through the public API, and checks
//! what comes back. Closed loop, one client: `Warehouse::submit` takes
//! `&mut self`.

use std::sync::{Arc, Mutex};

use ci_core::autotune::TuningAction;
use ci_core::catalog::Catalog;
use ci_core::exec::{
    ExecutionConfig, ExecutionMode, PageSourceMode, TierCacheSim, TierPricing, TraceLevel,
};
use ci_core::storage::pages::{decode_column, encode_best};
use ci_core::types::{CiError, DetRng, Dollars, Result, SimDuration};
use ci_core::workload::{queries, CabConfig, CabGenerator, TraceConfig, WorkloadTrace};
use ci_core::{Constraint, Warehouse, WarehouseConfig};

use crate::harness::{submit_op, Recorder, Replay};
use crate::verify::Fingerprint;

/// Scale factor of the query workloads (lineitem 200 k rows / 25 partitions):
/// a 12-template pass is ≈ 0.4 s, so a 10 s run holds 20+ iterations.
const QUERY_SF: f64 = 1.0;
/// Seeded parameter sets per template, cycled one per iteration.
const PARAM_SETS: usize = 8;
/// Templates that scan and aggregate without joining lineitem.
const SCAN_TEMPLATES: [usize; 7] = [1, 2, 5, 6, 10, 11, 12];
/// Memory tier below lineitem's encoded size (≈ 4 MB at SF 1), above
/// orders + dimensions (≈ 0.7 MB); SSD tier holds everything.
const TIER_MEM_BYTES: u64 = 2 << 20;
const TIER_SSD_BYTES: u64 = 32 << 20;
/// Ops per `point_lookup` iteration (Q11 and Q2 alternating).
const LOOKUPS_PER_ITER: usize = 100;
/// `trace_tune`: SF 0.125 and the first 32 arrivals of each recurring
/// template plus the first 3 ad-hoc arrivals of every template (196 in all)
/// out of a 24 h trace. Arrival times and ad-hoc parameters are the seed's,
/// the composition is fixed: with a plain 8 h trace the seed's draw of heavy
/// templates moved the iteration time by 21 % and dollars per query by 3 %.
const TRACE_SF: f64 = 0.125;
const TRACE_HOURS: f64 = 24.0;
const RECURRING_PER_TEMPLATE: usize = 32;
const ADHOC_PER_TEMPLATE: usize = 3;
const TRACE_SLA_S: f64 = 1.5;
const WRITE_SF: f64 = 1.0;

/// One workload, set up and warm.
pub trait Workload {
    /// One pass over the op list.
    fn iteration(&mut self, rec: &mut Recorder);
    /// Checks after the timed window: the reference configuration returns
    /// the same rows, and the workload did not degenerate.
    fn verify(&mut self, _rec: &mut Recorder) {}
    /// (encoded or on-disk bytes, logical bytes) of every registered table.
    fn stored_bytes(&self) -> (u64, u64);
    /// The data the storage probe of a traced run works on.
    fn catalog(&self) -> &Catalog;
}

fn generator(scale: f64, seed: u64) -> CabGenerator {
    CabGenerator::new(CabConfig {
        scale,
        seed,
        ..CabConfig::default()
    })
}

/// Parameter set `k` of template `t`: the same SQL in every workload at a
/// given seed, whatever else that workload draws.
fn instance(t: usize, k: usize, seed: u64, gen: &CabGenerator) -> String {
    let stream = seed
        .wrapping_mul(1_000_003)
        .wrapping_add((t * 1_000 + k) as u64);
    queries::instantiate(t, &mut DetRng::seed_from_u64(stream), gen)
}

fn sla(secs: f64) -> Constraint {
    Constraint::LatencySla(SimDuration::from_secs_f64(secs))
}

/// Pinned execution configuration: only `mode`, `page_source`, `tiers`,
/// `tier_sim` and `trace` are ever set (main refuses to start with an
/// ambient `CI_*`, so the defaults are the documented ones).
fn exec_config(mode: ExecutionMode, page_source: PageSourceMode) -> ExecutionConfig {
    ExecutionConfig {
        mode,
        page_source,
        tiers: None,
        tier_sim: None,
        trace: TraceLevel::Off,
        ..ExecutionConfig::default()
    }
}

fn tables_by_name(catalog: &Catalog) -> Vec<&ci_core::catalog::TableEntry> {
    let mut t: Vec<_> = catalog.tables().collect();
    t.sort_by_key(|(name, _)| *name);
    t.into_iter().map(|(_, e)| e).collect()
}

/// Writes every table through the catalog's page store (CIPF files).
fn persist_all(rec: &mut Recorder, catalog: &Catalog) -> Result<()> {
    let store = catalog.page_store()?;
    for e in tables_by_name(catalog) {
        rec.layer("storage.persist", || store.ensure_table(&e.table))?;
        if rec.tracing {
            rec.counts.persist_bytes += e.table.total_bytes();
        }
    }
    Ok(())
}

/// Bytes of every registered table: what is stored (CIPF file sizes when
/// `on_disk`, the encoded size otherwise) and what the user loaded.
fn stored_bytes(catalog: &Catalog, on_disk: bool) -> (u64, u64) {
    let store = on_disk.then(|| catalog.page_store().ok()).flatten();
    let (mut stored, mut user) = (0, 0);
    for e in tables_by_name(catalog) {
        user += e.table.total_bytes();
        stored += match &store {
            Some(s) => (0..e.table.partition_count())
                .filter_map(|p| std::fs::metadata(s.partition_path(e.table.id, p)).ok())
                .map(|m| m.len())
                .sum(),
            None => e.table.total_encoded_bytes(),
        };
    }
    (stored, user)
}

// ---------------------------------------------------------------------------
// cab_sim, cab_par2, scan_disk, scan_tiered, point_lookup
// ---------------------------------------------------------------------------

struct QueryOp {
    kind: u16,
    template: usize,
    key: String,
    sql: String,
}

/// A persistent warehouse driven through a cycle of query lists.
struct QueryLoop {
    wh: Warehouse,
    replay: Replay,
    /// Iteration `i` runs `lists[i % lists.len()]`.
    lists: Vec<Vec<QueryOp>>,
    next: usize,
    /// Check one fingerprint per iteration under this key, not one per query.
    iteration_key: Option<&'static str>,
    spend_mark: Dollars,
}

/// Runs one list against a warehouse and checks every result.
fn run_list(
    rec: &mut Recorder,
    wh: &mut Warehouse,
    replay: &Replay,
    list: &[QueryOp],
    iteration_key: Option<&str>,
    with_cost: bool,
) {
    let mut whole = Fingerprint {
        rows: 0,
        checksum: 0,
        cost_bits: with_cost.then_some(0),
    };
    for op in list {
        let Some(r) = submit_op(rec, wh, replay, op.kind, &op.sql, sla(2.0), None) else {
            continue;
        };
        let fp = Fingerprint::of(&r.result, with_cost.then_some(r.cost));
        if op.template == 11 && fp.rows != 1 {
            rec.fail(format!(
                "{}: a key lookup returned {} rows",
                op.key, fp.rows
            ));
        }
        match iteration_key {
            Some(_) => whole.absorb(fp),
            None => rec.check(&op.key, fp),
        }
    }
    if let Some(key) = iteration_key {
        rec.check(key, whole);
    }
}

impl QueryLoop {
    fn new(name: &str, seed: u64, rec: &mut Recorder) -> Result<QueryLoop> {
        let gen = generator(QUERY_SF, seed);
        let catalog = rec.layer("workload.gen", || gen.build_catalog())?;
        let (mode, source) = match name {
            "cab_par2" => (ExecutionMode::Parallel { workers: 2 }, PageSourceMode::Mem),
            "scan_disk" => (ExecutionMode::Simulate, PageSourceMode::Disk),
            "scan_tiered" => (ExecutionMode::Simulate, PageSourceMode::Tiered),
            _ => (ExecutionMode::Simulate, PageSourceMode::Mem),
        };
        let mut execution = exec_config(mode, source);
        if name == "scan_tiered" {
            let mut pricing = TierPricing::standard();
            pricing.mem.capacity_bytes = TIER_MEM_BYTES;
            pricing.ssd.capacity_bytes = TIER_SSD_BYTES;
            execution.tier_sim = Some(Arc::new(Mutex::new(TierCacheSim::new(pricing.clone()))));
            execution.tiers = Some(pricing);
        }
        if source != PageSourceMode::Mem {
            persist_all(rec, &catalog)?;
        }

        let mut op = |t: usize, k: usize| QueryOp {
            kind: rec.kind(&format!("q{t:02}")),
            template: t,
            key: format!("q{t:02}.{k}"),
            sql: instance(t, k, seed, &gen),
        };
        let lists: Vec<Vec<QueryOp>> = match name {
            "point_lookup" => vec![(0..LOOKUPS_PER_ITER)
                .map(|i| op(if i % 2 == 0 { 11 } else { 2 }, PARAM_SETS + i / 2))
                .collect()],
            "scan_disk" | "scan_tiered" => (0..PARAM_SETS)
                .map(|k| SCAN_TEMPLATES.iter().map(|&t| op(t, k)).collect())
                .collect(),
            _ => (0..PARAM_SETS)
                .map(|k| (1..=12).map(|t| op(t, k)).collect())
                .collect(),
        };
        let config = WarehouseConfig {
            execution,
            ..WarehouseConfig::default()
        };
        Ok(QueryLoop {
            replay: Replay::new(&config),
            wh: Warehouse::new(catalog, config),
            lists,
            next: 0,
            iteration_key: (name == "point_lookup").then_some("pl.iteration"),
            spend_mark: Dollars::ZERO,
        })
    }

    fn on_disk(&self) -> bool {
        self.wh.config.execution.page_source != PageSourceMode::Mem
    }

    /// Billed dollars are comparable with the reference configuration's
    /// unless the tier cache prices fetches: it bills tier latencies by design.
    fn bills_like_reference(&self) -> bool {
        self.wh.config.execution.tiers.is_none()
    }
}

impl Workload for QueryLoop {
    fn iteration(&mut self, rec: &mut Recorder) {
        let with_cost = self.bills_like_reference();
        let list = &self.lists[self.next % self.lists.len()];
        self.next += 1;
        run_list(
            rec,
            &mut self.wh,
            &self.replay,
            list,
            self.iteration_key,
            with_cost,
        );
        let spend = self.wh.total_spend();
        if rec.timing {
            rec.quality.spend_usd += (spend - self.spend_mark).amount();
        }
        self.spend_mark = spend;
    }

    fn verify(&mut self, rec: &mut Recorder) {
        // The same queries in the reference configuration (Simulate + Mem; on
        // cab_sim, which *is* that, the 2-worker pool) must return identical
        // rows and, unless the tier cache prices fetches, identical dollars.
        let is_reference = self.wh.config.execution.mode == ExecutionMode::Simulate
            && !self.on_disk()
            && self.bills_like_reference();
        let mode = if is_reference {
            ExecutionMode::Parallel { workers: 2 }
        } else {
            ExecutionMode::Simulate
        };
        let config = WarehouseConfig {
            execution: exec_config(mode, PageSourceMode::Mem),
            ..WarehouseConfig::default()
        };
        let replay = Replay::new(&config);
        let mut reference = Warehouse::new(self.wh.catalog().clone(), config);
        run_list(
            rec,
            &mut reference,
            &replay,
            &self.lists[0],
            self.iteration_key,
            self.bills_like_reference(),
        );
        if let Some(sim) = &self.wh.config.execution.tier_sim {
            let c = sim.lock().expect("tier sim lock").counters();
            let accesses = c.mem_hits + c.ssd_hits + c.misses;
            if c.mem_hits == 0 || c.mem_hits == accesses {
                rec.fail(format!("tier cache degenerated: {c:?}"));
            }
        }
    }

    fn stored_bytes(&self) -> (u64, u64) {
        stored_bytes(self.wh.catalog(), self.on_disk())
    }

    fn catalog(&self) -> &Catalog {
        self.wh.catalog()
    }
}

// ---------------------------------------------------------------------------
// trace_tune
// ---------------------------------------------------------------------------

/// Figure 3 end to end: replay, propose, apply, replay again — on a fresh
/// warehouse every iteration.
struct TraceTune {
    catalog: Catalog,
    config: WarehouseConfig,
    trace: WorkloadTrace,
    /// Per trace entry: op kind before and after tuning.
    kinds: Vec<(u16, u16)>,
    k_proposals: u16,
    k_apply: u16,
    feasible: u64,
    infeasible: u64,
    accepted: u64,
    last: Option<Warehouse>,
}

pub fn trace_config(seed: u64) -> TraceConfig {
    TraceConfig {
        hours: TRACE_HOURS,
        recurring_per_hour: 20.0,
        adhoc_per_hour: 5.0,
        recurring_templates: vec![1, 3, 6, 9, 12],
        seed,
    }
}

impl TraceTune {
    fn new(seed: u64, rec: &mut Recorder) -> Result<TraceTune> {
        let gen = generator(TRACE_SF, seed);
        let catalog = rec.layer("workload.gen", || gen.build_catalog())?;
        let mut trace = rec.layer("workload.trace_gen", || {
            WorkloadTrace::generate(&trace_config(seed), &gen)
        });
        let mut seen = [[0usize; 13]; 2];
        trace.entries.retain(|e| {
            let n = &mut seen[usize::from(e.recurring)][e.template];
            *n += 1;
            *n <= if e.recurring {
                RECURRING_PER_TEMPLATE
            } else {
                ADHOC_PER_TEMPLATE
            }
        });
        let mut config = WarehouseConfig {
            execution: exec_config(ExecutionMode::Simulate, PageSourceMode::Mem),
            ..WarehouseConfig::default()
        };
        config.optimizer.error_bound = 2.0;
        config.optimizer.error_seed = seed;
        let kinds = trace
            .entries
            .iter()
            .map(|e| {
                let plain = format!("q{:02}", e.template);
                (rec.kind(&plain), rec.kind(&format!("{plain}.tuned")))
            })
            .collect();
        Ok(TraceTune {
            catalog,
            config,
            trace,
            kinds,
            k_proposals: rec.kind("proposals"),
            k_apply: rec.kind("apply"),
            feasible: 0,
            infeasible: 0,
            accepted: 0,
            last: None,
        })
    }

    /// Replays the trace; returns the fingerprint of all results and how many
    /// were answered from an MV.
    fn replay_trace(
        &mut self,
        rec: &mut Recorder,
        wh: &mut Warehouse,
        replay: &Replay,
        tuned: bool,
    ) -> (Fingerprint, u64) {
        let mut whole = Fingerprint {
            rows: 0,
            checksum: 0,
            cost_bits: Some(0),
        };
        let mut mv_hits = 0;
        for (e, kinds) in self.trace.entries.iter().zip(&self.kinds) {
            let kind = if tuned { kinds.1 } else { kinds.0 };
            let at = Some(e.at);
            let Some(r) = submit_op(rec, wh, replay, kind, &e.sql, sla(TRACE_SLA_S), at) else {
                continue;
            };
            whole.absorb(Fingerprint::of(&r.result, Some(r.cost)));
            mv_hits += u64::from(r.used_mv.is_some());
            if r.feasible {
                self.feasible += 1;
            } else {
                self.infeasible += 1;
            }
        }
        (whole, mv_hits)
    }
}

impl Workload for TraceTune {
    fn iteration(&mut self, rec: &mut Recorder) {
        let mut wh = Warehouse::new(self.catalog.clone(), self.config.clone());
        let replay = Replay::new(&wh.config);
        let (first, _) = self.replay_trace(rec, &mut wh, &replay, false);
        let first_usd = wh.total_spend().amount();
        let proposals = rec
            .simple_op(self.k_proposals, "autotune.proposals", || {
                wh.tuning_proposals()
            })
            .unwrap_or_default();
        let accepted: Vec<_> = proposals.iter().filter(|p| p.accepted).collect();
        for p in &accepted {
            rec.simple_op(self.k_apply, "autotune.apply", || wh.apply(&p.action));
        }
        let tuned_usd = wh.total_spend().amount();
        let (second, mv_hits) = self.replay_trace(rec, &mut wh, &replay, true);
        let total_usd = wh.total_spend().amount();
        // A fresh warehouse replays the same trace: every iteration must
        // reproduce the first one's rows and dollars exactly.
        rec.check("tt.first_replay", first);
        rec.check("tt.second_replay", second);
        self.accepted += accepted.len() as u64;
        if rec.timing {
            rec.quality.spend_usd += total_usd;
        }
        if rec.counting() {
            let c = &mut rec.counts;
            c.proposals += proposals.len() as u64;
            c.accepted += accepted.len() as u64;
            c.first_replay_usd += first_usd;
            c.second_replay_usd += total_usd - tuned_usd;
            c.tuned_queries += self.trace.len() as u64;
            c.mv_hits += mv_hits;
        }
        self.last = Some(wh);
    }

    fn verify(&mut self, rec: &mut Recorder) {
        if self.feasible == 0 || self.infeasible == 0 || self.accepted == 0 {
            rec.fail(format!(
                "trace_tune degenerated: {} feasible, {} infeasible, {} accepted",
                self.feasible, self.infeasible, self.accepted
            ));
        }
    }

    fn stored_bytes(&self) -> (u64, u64) {
        let catalog = self.last.as_ref().map_or(&self.catalog, Warehouse::catalog);
        stored_bytes(catalog, false)
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

// ---------------------------------------------------------------------------
// write_path
// ---------------------------------------------------------------------------

/// Writes beside reads: generate and register, persist to CIPF, recluster,
/// build an MV, query both, read every partition back.
struct WritePath {
    gen: CabGenerator,
    config: WarehouseConfig,
    q3: String,
    q2: String,
    kinds: [u16; 7],
    last: Option<Warehouse>,
}

impl WritePath {
    fn new(seed: u64, rec: &mut Recorder) -> WritePath {
        let gen = generator(WRITE_SF, seed);
        let names = [
            "gen",
            "persist",
            "apply.recluster",
            "apply.mv",
            "q03",
            "q02",
            "readback",
        ];
        WritePath {
            q3: instance(3, 0, seed, &gen),
            q2: instance(2, 0, seed, &gen),
            gen,
            config: WarehouseConfig {
                execution: exec_config(ExecutionMode::Simulate, PageSourceMode::Disk),
                ..WarehouseConfig::default()
            },
            kinds: names.map(|n| rec.kind(n)),
            last: None,
        }
    }
}

impl Workload for WritePath {
    fn iteration(&mut self, rec: &mut Recorder) {
        let [k_gen, k_persist, k_recluster, k_mv, k_q3, k_q2, k_readback] = self.kinds;
        // Drop the previous iteration's warehouse (and its files) first, so
        // peak memory and disk hold one copy of the data.
        self.last = None;
        let Some(catalog) = rec.simple_op(k_gen, "workload.gen", || self.gen.build_catalog())
        else {
            return;
        };
        if rec
            .simple_op(k_persist, "storage.persist_all", || {
                let store = catalog.page_store()?;
                tables_by_name(&catalog)
                    .into_iter()
                    .try_for_each(|e| store.ensure_table(&e.table).map(|_| ()))
            })
            .is_none()
        {
            return;
        }
        let mut wh = Warehouse::new(catalog, self.config.clone());
        let replay = Replay::new(&wh.config);
        let recluster = TuningAction::Recluster {
            table: "orders".into(),
            column: "o_date".into(),
        };
        rec.simple_op(k_recluster, "autotune.apply", || wh.apply(&recluster));
        let mv = TuningAction::CreateMaterializedView {
            name: "mv_q3".into(),
            definition_sql: self.q3.clone(),
            refresh_per_hour: 0.1,
        };
        rec.simple_op(k_mv, "autotune.apply", || wh.apply(&mv));

        // What was written must be queryable: Q3 from the MV, Q2 from the
        // reclustered orders.
        if let Some(r) = submit_op(rec, &mut wh, &replay, k_q3, &self.q3, sla(2.0), None) {
            if r.used_mv.is_none() {
                rec.fail("Q3 was not answered from its materialized view".into());
            }
            rec.check("wp.q03", Fingerprint::of(&r.result, Some(r.cost)));
        }
        if let Some(r) = submit_op(rec, &mut wh, &replay, k_q2, &self.q2, sla(2.0), None) {
            rec.check("wp.q02", Fingerprint::of(&r.result, Some(r.cost)));
        }

        // ... and every partition must read back with its rows.
        let catalog = wh.catalog();
        let read = rec.simple_op(k_readback, "storage.read_back", || {
            let store = catalog.page_store()?;
            let mut rows = 0u64;
            for e in tables_by_name(catalog) {
                let mut table_rows = 0;
                for p in 0..e.table.partition_count() {
                    table_rows += store.read_partition(e.table.id, p)?.rows() as u64;
                }
                if table_rows != e.table.row_count() {
                    return Err(CiError::Storage(format!(
                        "{} read back {table_rows} of {} rows",
                        e.table.name,
                        e.table.row_count()
                    )));
                }
                rows += table_rows;
            }
            Ok(rows)
        });
        if let Some(rows) = read {
            let fp = Fingerprint {
                rows,
                checksum: 0,
                cost_bits: None,
            };
            rec.check("wp.readback", fp);
        }
        if rec.timing {
            rec.quality.spend_usd += wh.total_spend().amount();
        }
        self.last = Some(wh);
    }

    fn stored_bytes(&self) -> (u64, u64) {
        self.last
            .as_ref()
            .map_or((0, 0), |wh| stored_bytes(wh.catalog(), true))
    }

    fn catalog(&self) -> &Catalog {
        self.last
            .as_ref()
            .expect("set-up ran an iteration")
            .catalog()
    }
}

/// Builds a workload from `seed`: data, registration, CIPF persist, pool —
/// everything up to the warm-up iteration, which the caller runs.
pub fn setup(name: &str, seed: u64, rec: &mut Recorder) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "trace_tune" => Box::new(TraceTune::new(seed, rec)?),
        "write_path" => Box::new(WritePath::new(seed, rec)),
        _ => Box::new(QueryLoop::new(name, seed, rec)?),
    })
}

/// The storage, catalog and workload layers called directly, once per traced
/// run, on copies of the workload's `lineitem` and `orders` in a scratch
/// catalog with a page store of its own, so every write is a real write.
pub fn storage_probe(rec: &mut Recorder, catalog: &Catalog, seed: u64) -> Result<()> {
    let gen = generator(TRACE_SF, seed);
    rec.layer("workload.trace_gen", || {
        WorkloadTrace::generate(&trace_config(seed), &gen)
    });

    let orders = &catalog.get("orders")?.table;
    let o_date = orders.schema.index_of("o_date")?;
    let rows_per_part = orders.partitions.first().map_or(8_192, |p| p.rows().max(1));
    let reclustered = rec.layer("storage.recluster", || {
        orders.reclustered_by(o_date, rows_per_part)
    })?;
    let lineitem = (*catalog.get("lineitem")?.table).clone();

    // Register before the page store exists, so `register` does not write
    // through and `ensure_table` below is the one real write.
    let mut scratch = Catalog::new();
    let entries: Vec<_> = [reclustered, lineitem]
        .into_iter()
        .map(|t| rec.layer("catalog.register", || scratch.register(t)))
        .collect();
    let store = scratch.page_store()?;
    let mut file_bytes = 0;
    for table in entries.iter().map(|e| &e.table) {
        rec.layer("storage.persist", || store.ensure_table(table))?;
        rec.counts.persist_bytes += table.total_bytes();
        rec.counts.logical_bytes += table.total_bytes();
        for (p, part) in table.partitions.iter().enumerate() {
            let batch = rec.layer("storage.read_partition", || {
                store.read_partition(table.id, p)
            })?;
            rec.counts.read_bytes += batch.byte_size() as u64;
            file_bytes += std::fs::metadata(store.partition_path(table.id, p))
                .map_err(|e| CiError::Storage(e.to_string()))?
                .len();
            for col in part.batch.columns() {
                let (_, bytes) = rec.layer("storage.page_encode", || encode_best(col))?;
                let back = rec.layer("storage.page_decode", || decode_column(&bytes))?;
                if back.len() != col.len() {
                    return Err(CiError::Storage("page round trip lost rows".into()));
                }
                rec.counts.page_bytes += col.byte_size() as u64;
            }
        }
    }
    rec.counts.file_bytes += file_bytes;
    Ok(())
}
