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
//! One job shape runs on the pool: a **trace stream**
//! (`WorkerPool::stream`). Each morsel's pure processing phase produces a
//! `MorselTrace`; everything order-sensitive (virtual time, the stateful
//! half of wire sizing, `LIMIT`, sink folds) happens on the driver, which
//! takes the traces in canonical morsel order (`TraceStream::next`) *while
//! the workers compute later morsels* — `next` blocks only until the one
//! trace it is owed exists. Workers also overlap *fetch* and *compute*: a
//! morsel's fetch/decode stage (`ChainCtx::fetch_morsel`) and its
//! operator-chain stage (`ChainCtx::compute_morsel`) are separate tasks, and
//! a worker prefers fetching ahead while siblings compute already-fetched
//! morsels — the simulated GET does not serialize with morsel CPU.
//!
//! Both kinds of running ahead are bounded by one number, a private
//! function of the worker count (`ahead`): at most that many fetched
//! morsels wait for compute, and a compute is claimable only for morsels
//! fewer than that many past the last trace the driver took. So a pipeline
//! holds `O(workers)` fetched batches and traces (each pinning the batches
//! it shipped) however long it is, and a slow fold throttles the workers
//! instead of queueing the pipeline. Within that window any fetched morsel
//! may be claimed, whatever order the fetches landed in — the driver waits
//! for the *lowest* index, which is always inside the window.
//!
//! Dropping the stream — after the last trace, or early: a satisfied
//! `LIMIT`, a fold error — removes the job from the pool table. Nothing
//! further is claimed for it, and a task already running finds its job gone
//! and discards its result, so a failure past a satisfied `LIMIT` stays
//! invisible, exactly as in the simulator. A morsel that errors does not
//! stop the pool either: the error is that morsel's trace, surfaced when the
//! driver reaches its index.
//!
//! All job progress lives behind one mutex (`PoolState`); workers park on
//! `work_cv`, drivers park on `done_cv`. One lock keeps the wakeup protocol
//! trivially sound — no two-level locking, no lost notifications: every
//! transition that can make a task claimable (a job arrives, a fetch lands,
//! the driver takes a trace) notifies `work_cv` after it, and every landed
//! trace notifies `done_cv`.
//!
//! [`ExecutionMode::Parallel`]: crate::engine::ExecutionMode::Parallel

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
    /// Drivers park here awaiting their stream's next trace.
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
    /// Streams closed over the pool's lifetime (the reuse statistic).
    completed: u64,
    shutdown: bool,
    /// Wall-clock trace buffers, attached for the duration of one traced
    /// query (`TraceLevel::Full`). `None` — the common case — costs one clone
    /// of a `None` per claim.
    trace: Option<Arc<WorkerBuffers>>,
}

/// How far the pool runs ahead of its consumer, in morsels: one in flight
/// per worker plus as many finished and waiting, so a worker that lands a
/// trace starts its next morsel at once instead of sleeping until the driver
/// has woken up and taken one (a window of just `workers` cost two wake-up
/// latencies per morsel wherever the workers, not the fold, were the
/// bottleneck). At least 2 workers' worth, so even a 1-worker pool overlaps
/// fetch, compute and fold.
fn ahead(workers: usize) -> usize {
    2 * workers.max(2)
}

/// One open trace stream: the morsels of one pipeline run.
struct Job {
    ctx: Arc<ChainCtx>,
    morsels: Arc<Vec<Morsel>>,
    /// Next morsel index to start fetching.
    fetch_next: usize,
    /// Fetches claimed but not yet landed in `ready`.
    fetch_inflight: usize,
    /// [`ahead`] of the pool: fetching pauses while
    /// `ready + inflight >= ahead`, and morsel `i` computes only while
    /// `i < taken + ahead`.
    ahead: usize,
    /// Fetched morsels awaiting compute, in landing order.
    ready: VecDeque<(usize, Result<RecordBatch>)>,
    /// Computed traces the driver has not taken yet, by morsel index.
    traces: HashMap<usize, Result<MorselTrace>>,
    /// Traces the driver has taken: the stream's cursor.
    taken: usize,
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
/// window, later claims drain it while siblings keep fetching). Of the
/// fetched morsels the lowest index computes first — the one the driver
/// reaches soonest — wherever it sits in landing order.
fn claim(state: &mut PoolState) -> Option<Claimed> {
    for (&id, job) in state.jobs.iter_mut() {
        let task = if job.fetch_next < job.morsels.len()
            && job.ready.len() + job.fetch_inflight < job.ahead
        {
            job.fetch_next += 1;
            job.fetch_inflight += 1;
            Task::Fetch(job.fetch_next - 1)
        } else {
            let first = (0..job.ready.len())
                .min_by_key(|&at| job.ready[at].0)
                .filter(|&at| job.ready[at].0 < job.taken + job.ahead);
            let Some((idx, batch)) = first.and_then(|at| job.ready.remove(at)) else {
                continue;
            };
            Task::Compute(idx, batch)
        };
        return Some((id, job.ctx.clone(), job.morsels.clone(), task));
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
/// which would leave the morsel's trace forever missing and wedge the
/// driver parked on `done_cv`, poisoning the shared pool for all later
/// queries.
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
/// bookkeeping below it *always* runs — a lost worker's morsel surfaces as
/// an error at its own index, never as a hang. A job that is gone by then
/// (its stream was dropped) takes no result.
fn run_task(
    shared: &PoolShared,
    id: u64,
    ctx: &ChainCtx,
    morsels: &[Morsel],
    task: Task,
    worker: usize,
    trace: Option<&WorkerBuffers>,
) {
    let t0 = trace.map_or(0, WorkerBuffers::now_us);
    match task {
        Task::Fetch(idx) => {
            let fetched = contained(|| ctx.fetch_morsel(&morsels[idx]));
            record_span(trace, worker, format!("fetch m{idx}"), t0);
            if let Some(job) = shared.lock().jobs.get_mut(&id) {
                job.fetch_inflight -= 1;
                job.ready.push_back((idx, fetched));
            }
            // This morsel's compute became claimable (if inside the window).
            shared.work_cv.notify_all();
        }
        Task::Compute(idx, fetched) => {
            let morsel = &morsels[idx];
            let out = contained(|| fetched.and_then(|batch| ctx.compute_morsel(morsel, batch)));
            record_span(trace, worker, format!("compute m{idx}"), t0);
            if let Some(job) = shared.lock().jobs.get_mut(&id) {
                job.traces.insert(idx, out);
            }
            shared.done_cv.notify_all();
        }
    }
}

impl WorkerPool {
    /// Spawns a private pool of `workers` threads (clamped to at least 1).
    /// Threads shut down when the pool drops; long-lived callers should
    /// prefer [`WorkerPool::shared`]. A thread the OS refuses to start is a
    /// [`CiError::Exec`] (the workers already started are joined).
    pub fn new(workers: usize) -> Result<WorkerPool> {
        let workers = workers.max(1);
        let mut pool = WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState::default()),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            threads: Vec::with_capacity(workers),
            workers,
        };
        for i in 0..workers {
            let shared = pool.shared.clone();
            let thread = std::thread::Builder::new()
                .name(format!("ci-exec-worker-{i}"))
                .spawn(move || worker_loop(shared, i))
                .map_err(|e| CiError::Exec(format!("cannot spawn pool worker {i}: {e}")))?;
            pool.threads.push(thread);
        }
        Ok(pool)
    }

    /// The process-wide pool for `workers` threads, created on first use
    /// and reused by every later caller (and every query) with the same
    /// worker count. Its threads are never joined — they idle parked on a
    /// condition variable between queries.
    pub fn shared(workers: usize) -> Result<Arc<WorkerPool>> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let workers = workers.max(1);
        // A poisoned registry is still a consistent map (a failing
        // `WorkerPool::new` inserts nothing), so recover it.
        let mut pools = POOLS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(pool) = pools.get(&workers) {
            return Ok(pool.clone());
        }
        let pool = Arc::new(WorkerPool::new(workers)?);
        pools.insert(workers, pool.clone());
        Ok(pool)
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs (pipeline runs) this pool has served over its lifetime — the
    /// pool-reuse statistic `PipelineMetrics` records. A job counts when its
    /// stream closes, drained or cancelled.
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

    /// Opens a trace stream over `morsels`: workers start processing them
    /// into traces (fetch/compute overlapped, at most [`ahead`] past the
    /// consumer) and the caller takes them in morsel order with
    /// [`TraceStream::next`]. Dropping the stream cancels what is left.
    pub(crate) fn stream(&self, ctx: Arc<ChainCtx>, morsels: Arc<Vec<Morsel>>) -> TraceStream {
        let mut state = self.shared.lock();
        let id = state.next_job;
        state.next_job += 1;
        state.jobs.insert(
            id,
            Job {
                ctx,
                morsels,
                fetch_next: 0,
                fetch_inflight: 0,
                ahead: ahead(self.workers),
                ready: VecDeque::new(),
                traces: HashMap::new(),
                taken: 0,
            },
        );
        drop(state);
        self.shared.work_cv.notify_all();
        TraceStream {
            shared: self.shared.clone(),
            id,
        }
    }
}

/// The consuming end of one pool job (see [`WorkerPool::stream`]).
pub(crate) struct TraceStream {
    shared: Arc<PoolShared>,
    id: u64,
}

impl TraceStream {
    /// Takes the next morsel's trace — morsel 0 first, then in index order
    /// — blocking only until that one trace exists. Taking it moves the
    /// compute window one morsel forward.
    pub(crate) fn next(&mut self) -> Result<MorselTrace> {
        let mut state = self.shared.lock();
        loop {
            let closed = state.shutdown;
            let Some(job) = state.jobs.get_mut(&self.id).filter(|_| !closed) else {
                return Err(CiError::Exec("worker pool shut down mid-stream".into()));
            };
            if job.taken == job.morsels.len() {
                return Err(CiError::Exec(format!(
                    "trace stream read past its {} morsels",
                    job.taken
                )));
            }
            if let Some(trace) = job.traces.remove(&job.taken) {
                job.taken += 1;
                drop(state);
                // The window moved: the morsel at its far edge may compute.
                self.shared.work_cv.notify_all();
                return trace;
            }
            state = PoolShared::wait(&self.shared.done_cv, state);
        }
    }
}

impl Drop for TraceStream {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.jobs.remove(&self.id);
        state.completed += 1;
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
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;

    /// How long a test waits on another thread before calling it a hang.
    const HANG: Duration = Duration::from_secs(60);

    #[test]
    fn shared_pools_are_keyed_by_worker_count() {
        let a = WorkerPool::shared(3).unwrap();
        let b = WorkerPool::shared(3).unwrap();
        let c = WorkerPool::shared(5).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same count, same pool");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.workers(), 3);
        assert_eq!(c.workers(), 5);
    }

    #[test]
    fn private_pool_drops_cleanly_while_idle() {
        let pool = WorkerPool::new(2).unwrap();
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

    /// Each trace of a drained stream, reduced to its tail's row count.
    type Drained = Vec<Result<Option<u64>>>;

    /// Drains a stream over `morsels` on a thread of its own and closes it;
    /// the receiver then yields every trace's row count at once.
    fn drain_on_thread(
        pool: &WorkerPool,
        ctx: ChainCtx,
        morsels: Arc<Vec<Morsel>>,
    ) -> mpsc::Receiver<Drained> {
        let (n, mut stream) = (morsels.len(), pool.stream(Arc::new(ctx), morsels));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let rows: Drained = (0..n)
                .map(|_| stream.next().map(|t| t.test_done_rows()))
                .collect();
            drop(stream);
            let _ = tx.send(rows);
        });
        rx
    }

    /// [`drain_on_thread`], awaited: a pool that strands a morsel fails the
    /// test instead of hanging it.
    fn drain(pool: &WorkerPool, ctx: ChainCtx, morsels: Arc<Vec<Morsel>>) -> Drained {
        (drain_on_thread(pool, ctx, morsels).recv_timeout(HANG)).expect("the stream never drained")
    }

    /// A panicking operator must surface as a per-morsel error at its own
    /// index — not kill the worker thread mid-bookkeeping and leave the
    /// driver parked on `done_cv` forever. Before containment this test
    /// hung.
    #[test]
    fn worker_panic_becomes_morsel_error_not_a_hang() {
        let pool = WorkerPool::new(2).unwrap();
        let rows = drain(
            &pool,
            ChainCtx::test_passthrough(Some(3)),
            morsels(&[5, 3, 7]),
        );
        assert_eq!(rows[0], Ok(Some(5)));
        assert_eq!(rows[2], Ok(Some(7)));
        let err = rows[1].as_ref().expect_err("trapped morsel should error");
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
        let pool = WorkerPool::new(2).unwrap();
        let failed = drain(
            &pool,
            ChainCtx::test_passthrough(Some(2)),
            morsels(&[2, 2, 2, 2]),
        );
        assert!(failed.iter().all(Result::is_err));

        let want: Vec<_> = (1..=4).map(|n| Ok(Some(n))).collect();
        assert_eq!(
            drain(
                &pool,
                ChainCtx::test_passthrough(None),
                morsels(&[1, 2, 3, 4])
            ),
            want
        );
        assert_eq!(pool.jobs_completed(), 2);
    }

    /// A thread that panics while holding the pool lock poisons the mutex;
    /// the table under it is still consistent (see `PoolShared::lock`), so
    /// the parked workers and the next driver recover the guard and the
    /// pool keeps serving jobs.
    #[test]
    fn poisoned_pool_lock_is_recovered_not_fatal() {
        let pool = WorkerPool::new(2).unwrap();
        let shared = pool.shared.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the pool lock");
        });
        assert!(poisoner.join().is_err());
        assert!(pool.shared.state.is_poisoned());

        let want: Vec<_> = (4..=6).map(|n| Ok(Some(n))).collect();
        assert_eq!(
            drain(&pool, ChainCtx::test_passthrough(None), morsels(&[4, 5, 6])),
            want
        );
        assert_eq!(pool.jobs_completed(), 1);
    }

    /// An error is its morsel's trace: the stream yields it at that index,
    /// after the good traces before it, and keeps going past it.
    #[test]
    fn an_error_surfaces_at_its_own_index() {
        let pool = WorkerPool::new(2).unwrap();
        let rows = [1, 2, 3, 9, 5, 6, 7, 8];
        let got = drain(&pool, ChainCtx::test_passthrough(Some(9)), morsels(&rows));
        for (i, got) in got.into_iter().enumerate() {
            match rows[i] {
                9 => assert!(got.is_err(), "morsel {i} is the trapped one"),
                n => assert_eq!(got, Ok(Some(n as u64)), "morsel {i}"),
            }
        }
    }

    /// Fetches land in any order, so a morsel still outside the compute
    /// window can sit in front of one inside it. The pool must reach past
    /// it: the driver is waiting for exactly that later-landed, lower
    /// morsel. (A pool that checks only the head of the queue parks both
    /// workers here, with the driver, forever.)
    #[test]
    fn a_late_fetch_is_not_stranded_behind_a_morsel_outside_the_window() {
        let pool = WorkerPool::new(2).unwrap();
        let window = ahead(pool.workers());
        let n = 3 * window as i64;
        let (open, gate) = mpsc::channel();
        let mut ms: Vec<Morsel> = (1..=n).map(|n| Morsel::test_from_batch(batch(n))).collect();
        ms[0] = Morsel::test_gated(batch(1), gate);
        let rx = drain_on_thread(&pool, ChainCtx::test_passthrough(None), Arc::new(ms));
        // Morsel 0's fetch is held at the gate. Meanwhile the other worker
        // fetches and computes the rest of the window (nothing is taken
        // yet), fetches ahead until every fetched morsel is outside it,
        // and parks.
        let deadline = std::time::Instant::now() + HANG;
        loop {
            let state = pool.shared.lock();
            let job = state.jobs.values().next().expect("the job is open");
            if job.traces.len() == window - 1
                && job.ready.len() == window - 1
                && job.ready.iter().all(|(idx, _)| *idx >= window)
            {
                break;
            }
            drop(state);
            assert!(std::time::Instant::now() < deadline, "pool never got there");
            std::thread::yield_now();
        }
        // Now morsel 0 lands *behind* them.
        open.send(()).unwrap();
        let want: Vec<_> = (1..=n as u64).map(|n| Ok(Some(n))).collect();
        let got = rx.recv_timeout(HANG).expect("morsel 0 was stranded");
        assert_eq!(got, want);
    }

    /// Dropping a stream early cancels its job: the table forgets it at
    /// once, no worker computes a morsel at or past `taken + ahead`, the job
    /// still counts as served, and the pool goes on to the next job.
    #[test]
    fn dropping_the_stream_cancels_the_rest_of_the_job() {
        const MORSELS: i64 = 64;
        const TAKEN: usize = 3;
        let pool = WorkerPool::new(2).unwrap();
        let lanes = Arc::new(WorkerBuffers::new(2));
        let guard = pool.attach_trace(lanes.clone());
        let ctx = Arc::new(ChainCtx::test_passthrough(None));
        let rows: Vec<i64> = (1..=MORSELS).collect();
        let mut stream = pool.stream(ctx, morsels(&rows));
        for n in 1..=TAKEN as u64 {
            assert_eq!(stream.next().unwrap().test_done_rows(), Some(n));
        }
        drop(stream);
        assert!(
            pool.shared.lock().jobs.is_empty(),
            "cancelled job left behind"
        );
        assert_eq!(pool.jobs_completed(), 1);

        let next = drain(&pool, ChainCtx::test_passthrough(None), morsels(&[7, 8]));
        assert_eq!(next, vec![Ok(Some(7)), Ok(Some(8))]);
        assert_eq!(pool.jobs_completed(), 2);

        // Joining the workers flushes their last spans. The first job's
        // computes are the ones on morsels 2.. of a 64-morsel job; the
        // second job has only m0 and m1.
        let window = TAKEN + ahead(pool.workers());
        drop(guard);
        drop(pool);
        let computed: Vec<usize> = (lanes.drain().iter())
            .filter_map(|ev| ev.name.strip_prefix("compute m")?.parse().ok())
            .collect();
        assert!(computed.len() >= TAKEN, "{computed:?}");
        assert!(
            computed.iter().all(|&mi| mi < window),
            "computed past taken + ahead = {window}: {computed:?}"
        );
    }

    /// A `LIMIT` the first morsels satisfy, end to end: `Parallel` returns
    /// the simulator's rows and bill, and the pool computes only the few
    /// morsels inside the window, not the pipeline.
    #[test]
    fn a_satisfied_limit_stops_the_pool_early() {
        use crate::{ExecutionConfig, ExecutionMode, Executor, NoScaling};
        use ci_catalog::{Catalog, ErrorInjector};
        use ci_storage::table::TableBuilder;

        const ROWS: i64 = 8_000;
        const MORSEL_ROWS: usize = 100;
        let schema =
            Arc::new(Schema::new(vec![Field::new("x", ci_storage::DataType::Int64)]).unwrap());
        let mut t = TableBuilder::new(ci_types::TableId::new(0), "t", schema, 1_000).unwrap();
        t.append(batch(ROWS)).unwrap();
        let mut cat = Catalog::new();
        cat.register(t.finish().unwrap());
        let bound = ci_plan::bind(&ci_sql::parse("SELECT x FROM t LIMIT 150").unwrap(), &cat);
        let tree = ci_plan::JoinTree::left_deep(&[0]);
        let plan = ci_plan::physical::build_plan(
            &bound.unwrap(),
            &tree,
            &cat,
            &mut ErrorInjector::oracle(),
        )
        .unwrap();
        let graph = ci_plan::PipelineGraph::decompose(&plan).unwrap();
        let run = |mode, trace| {
            let config = ExecutionConfig {
                morsel_rows: MORSEL_ROWS,
                mode,
                trace,
                ..ExecutionConfig::default()
            };
            let dops = vec![2; graph.len()];
            Executor::new(&cat, config)
                .execute(&plan, &graph, &dops, &mut NoScaling)
                .unwrap()
        };
        let sim = run(ExecutionMode::Simulate, ci_obs::TraceLevel::Off);
        // A worker count no other test in this binary uses: the shared
        // pool's lanes then hold this query's spans only.
        let par = run(
            ExecutionMode::Parallel { workers: 6 },
            ci_obs::TraceLevel::Full,
        );
        assert_eq!(par.result.rows(), 150);
        assert_eq!(par.result, sim.result);
        assert_eq!(par.metrics.cost, sim.metrics.cost);
        assert_eq!(par.metrics.latency, sim.metrics.latency);

        let folded: usize = par.metrics.pipelines.iter().map(|p| p.morsels).sum();
        let computes = (par.trace.unwrap().events.iter())
            .filter(|ev| ev.cat == "pool" && ev.name.starts_with("compute m"))
            .count();
        let total = ROWS as usize / MORSEL_ROWS;
        assert!(folded < total, "the LIMIT should cut the pipeline short");
        assert!(
            computes <= folded + ahead(6),
            "{computes} traces computed for {folded} folded of {total} morsels"
        );
    }
}
