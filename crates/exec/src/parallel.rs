//! Persistent worker pool for [`ExecutionMode::Parallel`].
//!
//! Plain `std::thread` + `std::sync` (the workspace has no external deps).
//! Unlike the scoped pool it replaces, the pool outlives individual queries:
//! threads park on a `Condvar` between jobs, so back-to-back queries reuse
//! threads instead of paying spawn/join per `execute`.
//! [`WorkerPool::shared`] hands out one process-wide pool per worker count;
//! [`WorkerPool::new`] builds a private pool whose threads shut down on
//! drop.
//!
//! One job shape runs on the pool (`WorkerPool::run_traces`): each morsel's
//! pure processing phase produces a `MorselTrace`; everything
//! order-sensitive (virtual time, wire bytes, `LIMIT`, sink folds) happens
//! later on the driver in canonical morsel order. Workers overlap *fetch*
//! and *compute*: a morsel's fetch/decode stage (`ChainCtx::fetch_morsel`)
//! and its operator-chain stage (`ChainCtx::compute_morsel`) are separate
//! tasks, and a worker prefers fetching ahead (bounded by the fetch-ahead
//! target) while sibling workers compute already-fetched morsels — the
//! simulated GET no longer serializes with morsel CPU.
//!
//! All job progress lives behind one mutex (`PoolState`); workers park on
//! `work_cv`, the driver parks on `done_cv`. One lock keeps the wakeup
//! protocol trivially sound — no two-level locking, no lost notifications.
//! A morsel that errors does not stop the pool: a job still fills every
//! output slot, and the driver surfaces the first error in canonical order,
//! so a failure past a satisfied `LIMIT` stays invisible, exactly as in the
//! simulator.
//!
//! [`ExecutionMode::Parallel`]: crate::engine::ExecutionMode::Parallel

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use ci_obs::{Lane, TraceEvent, WorkerBuffers};
use ci_storage::RecordBatch;
use ci_types::{CiError, Result};

use crate::engine::{ChainCtx, Morsel, MorselTrace};

/// A persistent pool of morsel workers. Cheap to clone via `Arc`; see the
/// module docs for the lifecycle and the job shape.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here when no task is claimable.
    work_cv: Condvar,
    /// Drivers park here awaiting their job's completion.
    done_cv: Condvar,
}

impl PoolShared {
    /// Locks the pool table, recovering a poisoned guard instead of
    /// panicking. That is sound because of one invariant: morsel code only
    /// ever runs *outside* the guard, under [`contained`], and everything
    /// under the guard is straight-line bookkeeping (counter bumps, queue
    /// pushes and pops, map inserts and removes) — so the table a panicking
    /// holder leaves behind is still consistent, and refusing it would turn
    /// one lost thread into a wedged pool for every later query.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks on `cv` until notified, with [`PoolShared::lock`]'s poison
    /// recovery on wake-up.
    fn wait<'g>(cv: &Condvar, guard: MutexGuard<'g, PoolState>) -> MutexGuard<'g, PoolState> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Default)]
struct PoolState {
    jobs: HashMap<u64, Job>,
    next_job: u64,
    /// Jobs completed over the pool's lifetime (the reuse statistic).
    completed: u64,
    shutdown: bool,
    /// Wall-clock trace buffers, attached for the duration of one traced
    /// query (`TraceLevel::Full`). `None` — the common case — costs one clone
    /// of a `None` per claim.
    trace: Option<Arc<WorkerBuffers>>,
}

/// One submitted unit of pipeline work: every morsel of one pipeline run.
struct Job {
    ctx: Arc<ChainCtx>,
    morsels: Arc<Vec<Morsel>>,
    /// Next morsel index to start fetching.
    fetch_next: usize,
    /// Fetches claimed but not yet landed in `ready`.
    fetch_inflight: usize,
    /// Fetch-ahead bound: fetching pauses while
    /// `ready + inflight >= target`, so prefetch stays a window, not a
    /// full materialization of the pipeline source.
    target: usize,
    /// Fetched morsels awaiting compute.
    ready: VecDeque<(usize, Result<RecordBatch>)>,
    /// Per-morsel traces at the morsel's own index.
    outputs: Vec<Option<Result<MorselTrace>>>,
    /// Morsels not yet computed.
    remaining: usize,
    done: bool,
}

/// A claimed task, executed outside the pool lock.
enum Task {
    Fetch(usize),
    Compute(usize, Result<RecordBatch>),
}

/// A claimed unit of work: the owning job's id, its shared context and
/// morsel list, and the task to run.
type Claimed = (u64, Arc<ChainCtx>, Arc<Vec<Morsel>>, Task);

/// Scans jobs for claimable work. Fetches win over computes while a job's
/// prefetch window has room (that is the overlap: early claims fill the
/// window, later claims drain it while siblings keep fetching).
fn claim(state: &mut PoolState) -> Option<Claimed> {
    for (&id, job) in state.jobs.iter_mut() {
        if job.done {
            continue;
        }
        if job.fetch_next < job.morsels.len() && job.ready.len() + job.fetch_inflight < job.target {
            let idx = job.fetch_next;
            job.fetch_next += 1;
            job.fetch_inflight += 1;
            return Some((id, job.ctx.clone(), job.morsels.clone(), Task::Fetch(idx)));
        }
        if let Some((idx, batch)) = job.ready.pop_front() {
            return Some((
                id,
                job.ctx.clone(),
                job.morsels.clone(),
                Task::Compute(idx, batch),
            ));
        }
    }
    None
}

fn worker_loop(shared: Arc<PoolShared>, worker: usize) {
    let mut state = shared.lock();
    loop {
        if state.shutdown {
            return;
        }
        match claim(&mut state) {
            Some((id, ctx, morsels, task)) => {
                let trace = state.trace.clone();
                drop(state);
                run_task(&shared, id, &ctx, &morsels, task, worker, trace.as_deref());
                state = shared.lock();
            }
            None => {
                // Park span: how long this worker slept between claims.
                // Best-effort — a worker that parked before the trace was
                // attached records nothing for that nap.
                let trace = state.trace.clone();
                let t0 = trace.as_deref().map_or(0, WorkerBuffers::now_us);
                state = PoolShared::wait(&shared.work_cv, state);
                record_span(trace.as_deref(), worker, "park".into(), t0);
            }
        }
    }
}

/// Records one wall-clock span on `worker`'s lane, `t0` to now.
fn record_span(trace: Option<&WorkerBuffers>, worker: usize, name: String, t0: u64) {
    if let Some(b) = trace {
        b.record(
            worker,
            TraceEvent::span(
                name,
                "pool",
                Lane::Worker(worker as u32),
                t0,
                b.now_us().saturating_sub(t0),
            ),
        );
    }
}

/// Runs one closure with panic containment: a panic anywhere in morsel
/// processing (an operator bug, a poisoned input) becomes a per-morsel
/// [`CiError::Exec`] instead of killing the worker thread mid-bookkeeping —
/// which would leave `remaining` stuck above zero and wedge every driver
/// parked on `done_cv`, poisoning the shared pool for all later queries.
fn contained<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "worker panicked".to_string());
            Err(CiError::Exec(format!("worker panicked: {msg}")))
        }
    }
}

/// Executes one claimed task and records its result under the lock. Each
/// arm routes the actual processing through [`contained`], so the
/// completion bookkeeping below it *always* runs — a lost worker's morsel
/// surfaces as an error at its own output index, never as a hang.
fn run_task(
    shared: &PoolShared,
    id: u64,
    ctx: &ChainCtx,
    morsels: &[Morsel],
    task: Task,
    worker: usize,
    trace: Option<&WorkerBuffers>,
) {
    match task {
        Task::Fetch(idx) => {
            let t0 = trace.map_or(0, WorkerBuffers::now_us);
            let fetched = contained(|| ctx.fetch_morsel(&morsels[idx]));
            record_span(trace, worker, format!("fetch m{idx}"), t0);
            let mut state = shared.lock();
            if let Some(job) = state.jobs.get_mut(&id) {
                job.fetch_inflight -= 1;
                job.ready.push_back((idx, fetched));
            }
            drop(state);
            // A compute (this morsel) and possibly a fetch (window slot
            // freed) became claimable.
            shared.work_cv.notify_all();
        }
        Task::Compute(idx, fetched) => {
            let t0 = trace.map_or(0, WorkerBuffers::now_us);
            let out = contained(|| fetched.and_then(|batch| ctx.compute_morsel(batch)));
            record_span(trace, worker, format!("compute m{idx}"), t0);
            let mut state = shared.lock();
            let Some(job) = state.jobs.get_mut(&id) else {
                return;
            };
            job.outputs[idx] = Some(out);
            job.remaining -= 1;
            if job.remaining == 0 {
                // The last morsel: the job is done, wake its driver.
                job.done = true;
                state.completed += 1;
                drop(state);
                shared.done_cv.notify_all();
                // Siblings may be parked while other jobs still hold work.
                shared.work_cv.notify_all();
            }
        }
    }
}

impl WorkerPool {
    /// Spawns a private pool of `workers` threads (clamped to at least 1).
    /// Threads shut down when the pool drops; long-lived callers should
    /// prefer [`WorkerPool::shared`].
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ci-exec-worker-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            workers,
        }
    }

    /// The process-wide pool for `workers` threads, created on first use
    /// and reused by every later caller (and every query) with the same
    /// worker count. Its threads are never joined — they idle parked on a
    /// condition variable between queries.
    pub fn shared(workers: usize) -> Arc<WorkerPool> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let workers = workers.max(1);
        // A poisoned registry is still a consistent map (a panicking
        // `WorkerPool::new` inserts nothing), so recover it.
        let mut pools = POOLS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        pools
            .entry(workers)
            .or_insert_with(|| Arc::new(WorkerPool::new(workers)))
            .clone()
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs (pipeline runs) this pool has completed over its lifetime —
    /// the pool-reuse statistic `PipelineMetrics` records.
    pub fn jobs_completed(&self) -> u64 {
        self.shared.lock().completed
    }

    /// Attaches wall-clock trace buffers for one query (`TraceLevel::Full`).
    /// The returned guard detaches on drop, so every exit path — including
    /// errors — leaves a shared pool clean for the next query.
    pub(crate) fn attach_trace(&self, bufs: Arc<WorkerBuffers>) -> TraceGuard {
        self.shared.lock().trace = Some(bufs);
        TraceGuard {
            shared: self.shared.clone(),
        }
    }

    fn submit(&self, job: Job) -> u64 {
        let mut state = self.shared.lock();
        let id = state.next_job;
        state.next_job += 1;
        state.jobs.insert(id, job);
        drop(state);
        self.shared.work_cv.notify_all();
        id
    }

    fn wait(&self, id: u64) -> Job {
        let mut state = self.shared.lock();
        loop {
            if let Entry::Occupied(job) = state.jobs.entry(id) {
                if job.get().done {
                    return job.remove();
                }
            }
            state = PoolShared::wait(&self.shared.done_cv, state);
        }
    }

    /// Processes every morsel into its trace (fetch/compute overlapped),
    /// returning each morsel's result at the morsel's own index. Blocks the
    /// calling driver until the job completes.
    pub(crate) fn run_traces(
        &self,
        ctx: Arc<ChainCtx>,
        morsels: Arc<Vec<Morsel>>,
    ) -> Vec<Option<Result<MorselTrace>>> {
        let n = morsels.len();
        let id = self.submit(Job {
            ctx,
            morsels,
            fetch_next: 0,
            fetch_inflight: 0,
            // Enough fetched morsels for every worker to compute while one
            // fetches ahead; 2 minimum so even a 1-worker pool overlaps the
            // next fetch with the current compute.
            target: self.workers.max(2),
            ready: VecDeque::new(),
            outputs: (0..n).map(|_| None).collect(),
            remaining: n,
            done: n == 0,
        });
        self.wait(id).outputs
    }
}

/// Detaches a pool's trace buffers when dropped (see
/// [`WorkerPool::attach_trace`]).
pub(crate) struct TraceGuard {
    shared: Arc<PoolShared>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        self.shared.lock().trace = None;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.lock();
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_pools_are_keyed_by_worker_count() {
        let a = WorkerPool::shared(3);
        let b = WorkerPool::shared(3);
        let c = WorkerPool::shared(5);
        assert!(Arc::ptr_eq(&a, &b), "same count, same pool");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.workers(), 3);
        assert_eq!(c.workers(), 5);
    }

    #[test]
    fn private_pool_drops_cleanly_while_idle() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.jobs_completed(), 0);
        drop(pool); // joins both threads; hangs the test if shutdown is broken
    }

    use ci_storage::{ColumnData, Field, Schema};

    /// A single-column Int64 batch with `rows` rows.
    fn batch(rows: i64) -> RecordBatch {
        let schema =
            Arc::new(Schema::new(vec![Field::new("x", ci_storage::DataType::Int64)]).unwrap());
        RecordBatch::new(schema, vec![ColumnData::Int64((0..rows).collect())]).unwrap()
    }

    fn morsels(row_counts: &[i64]) -> Arc<Vec<Morsel>> {
        Arc::new(
            row_counts
                .iter()
                .map(|&n| Morsel::test_from_batch(batch(n)))
                .collect(),
        )
    }

    /// A panicking operator must surface as a per-morsel error at its own
    /// index — not kill the worker thread mid-bookkeeping and leave the
    /// driver parked on `done_cv` forever. Before containment this test
    /// hung.
    #[test]
    fn worker_panic_becomes_morsel_error_not_a_hang() {
        let pool = WorkerPool::new(2);
        let ctx = Arc::new(ChainCtx::test_passthrough(Some(3)));
        let outs = pool.run_traces(ctx, morsels(&[5, 3, 7]));
        assert_eq!(outs.len(), 3);
        let rows: Vec<_> = outs
            .iter()
            .map(|o| o.as_ref().unwrap().as_ref().map(|t| t.test_done_rows()))
            .collect();
        assert_eq!(rows[0], Ok(Some(5)));
        assert_eq!(rows[2], Ok(Some(7)));
        let err = match outs[1].as_ref().unwrap() {
            Ok(_) => panic!("trapped morsel should error"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), "exec");
        assert!(
            err.to_string().contains("panicked"),
            "panic origin should survive into the error: {err}"
        );
    }

    /// A panic in one job must not poison the pool for later jobs: the
    /// worker thread survives (containment, not respawn), so a follow-up
    /// job on the *same* pool completes normally.
    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        let trapped = Arc::new(ChainCtx::test_passthrough(Some(2)));
        let outs = pool.run_traces(trapped, morsels(&[2, 2, 2, 2]));
        assert!(outs.iter().all(|o| o.as_ref().unwrap().is_err()));

        let clean = Arc::new(ChainCtx::test_passthrough(None));
        let outs = pool.run_traces(clean, morsels(&[1, 2, 3, 4]));
        for (i, o) in outs.iter().enumerate() {
            let t = o.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(t.test_done_rows(), Some(i as u64 + 1));
        }
        assert_eq!(pool.jobs_completed(), 2);
    }

    /// A thread that panics while holding the pool lock poisons the mutex;
    /// the table under it is still consistent (see `PoolShared::lock`), so
    /// the parked workers and the next driver recover the guard and the
    /// pool keeps serving jobs.
    #[test]
    fn poisoned_pool_lock_is_recovered_not_fatal() {
        let pool = WorkerPool::new(2);
        let shared = pool.shared.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the pool lock");
        });
        assert!(poisoner.join().is_err());
        assert!(pool.shared.state.is_poisoned());

        let ctx = Arc::new(ChainCtx::test_passthrough(None));
        let outs = pool.run_traces(ctx, morsels(&[4, 5, 6]));
        for (i, o) in outs.iter().enumerate() {
            let t = o.as_ref().unwrap().as_ref().unwrap();
            assert_eq!(t.test_done_rows(), Some(i as u64 + 4));
        }
        assert_eq!(pool.jobs_completed(), 1);
    }
}
