//! Persistent worker pool for [`ExecutionMode::Parallel`]: an ordered,
//! windowed parallel map over the indices `0..n`.
//!
//! Plain `std::thread` + `std::sync` (the workspace has no external deps).
//! The pool outlives individual queries: threads park on a `Condvar`
//! between jobs, so back-to-back queries reuse threads instead of paying
//! spawn/join per `execute`. [`WorkerPool::new`] builds a pool whose
//! threads shut down on drop.
//!
//! One job shape runs on the pool: a **stream** (`WorkerPool::stream`)
//! runs one task per index and hands the results to the caller in index
//! order (`PoolStream::next`) *while the workers run later indices* —
//! `next` blocks only until the one result it is owed exists. The pool
//! knows nothing of what a task does; the engine maps each morsel to its
//! trace, and everything order-sensitive (virtual time, the stateful half
//! of wire sizing, `LIMIT`, sink folds) stays on the driver.
//!
//! Running ahead is bounded by a private function of the worker count
//! (`ahead`): index `i` is claimable only while `i < taken + ahead`, where
//! `taken` counts the results the caller took. So a job holds `O(workers)`
//! results however long it is, and a slow consumer throttles the workers
//! instead of queueing the job. Indices are claimed lowest first, so the
//! one the caller waits for is always running or done.
//!
//! Dropping the stream — after the last result, or early: a satisfied
//! `LIMIT`, a fold error — removes the job from the pool table. Nothing
//! further is claimed for it, and a task already running finds its job gone
//! and discards its result, so a failure past a satisfied `LIMIT` stays
//! invisible, exactly as in the simulator. A task that errors or panics
//! does not stop the pool either: the error is that index's result,
//! surfaced when the caller reaches it.
//!
//! All job progress lives behind one mutex (`PoolState`); workers park on
//! `work_cv`, callers park on `done_cv`. One lock keeps the wakeup protocol
//! trivially sound — no two-level locking, no lost notifications: every
//! transition that can make a task claimable (a job arrives, the caller
//! takes a result) notifies `work_cv` after it, and every landed result
//! notifies `done_cv`.
//!
//! [`ExecutionMode::Parallel`]: crate::engine::ExecutionMode::Parallel

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use ci_obs::{Lane, TraceEvent, WorkerBuffers};
use ci_types::{CiError, Result};

/// The function a stream maps over its indices.
pub(crate) type Task<T> = Arc<dyn Fn(usize) -> Result<T> + Send + Sync>;

/// A persistent pool of workers producing `T`s. Cheap to share via `Arc`;
/// see the module docs for the lifecycle and the job shape.
pub struct WorkerPool<T> {
    shared: Arc<PoolShared<T>>,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
}

struct PoolShared<T> {
    state: Mutex<PoolState<T>>,
    /// Workers park here when no task is claimable.
    work_cv: Condvar,
    /// Callers park here awaiting their stream's next result.
    done_cv: Condvar,
}

impl<T> PoolShared<T> {
    /// Locks the pool table, recovering a poisoned guard instead of
    /// panicking. That is sound because of one invariant: task code only
    /// ever runs *outside* the guard, under [`contained`], and everything
    /// under the guard is straight-line bookkeeping (counter bumps, map
    /// inserts and removes) — so the table a panicking holder leaves behind
    /// is still consistent, and refusing it would turn one lost thread into
    /// a wedged pool for every later query.
    fn lock(&self) -> MutexGuard<'_, PoolState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks on `cv` until notified, with [`PoolShared::lock`]'s poison
    /// recovery on wake-up.
    fn wait<'g>(cv: &Condvar, guard: MutexGuard<'g, PoolState<T>>) -> MutexGuard<'g, PoolState<T>> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }
}

struct PoolState<T> {
    jobs: HashMap<u64, Job<T>>,
    next_job: u64,
    /// Streams closed over the pool's lifetime (the reuse statistic).
    completed: u64,
    shutdown: bool,
    /// Wall-clock trace buffers, attached for the duration of one traced
    /// query (`TraceLevel::Full`). `None` — the common case — costs one clone
    /// of a `None` per claim.
    trace: Option<Arc<WorkerBuffers>>,
}

/// How far the pool runs ahead of its consumer, in tasks: one in flight
/// per worker plus as many finished and waiting, so a worker that lands a
/// result starts its next task at once instead of sleeping until the caller
/// has woken up and taken one (a window of just `workers` cost two wake-up
/// latencies per morsel wherever the workers, not the fold, were the
/// bottleneck). At least 2 workers' worth, so even a 1-worker pool overlaps
/// its task with the caller's fold.
fn ahead(workers: usize) -> usize {
    2 * workers.max(2)
}

/// One open stream: the map of one task over `0..n`.
struct Job<T> {
    task: Task<T>,
    n: usize,
    /// The lowest unclaimed index: every index below it is claimed.
    next: usize,
    /// Results the caller has not taken yet, by index.
    results: HashMap<usize, Result<T>>,
    /// Results the caller has taken: the stream's cursor.
    taken: usize,
    /// [`ahead`] of the pool: index `i` runs only while `i < taken + ahead`.
    ahead: usize,
}

/// Claims the lowest unclaimed index of some job, if one is inside its
/// window: the job's id, the index and the task to run on it.
fn claim<T>(state: &mut PoolState<T>) -> Option<(u64, usize, Task<T>)> {
    state.jobs.iter_mut().find_map(|(&id, job)| {
        (job.next < job.n.min(job.taken + job.ahead)).then(|| {
            job.next += 1;
            (id, job.next - 1, job.task.clone())
        })
    })
}

fn worker_loop<T>(shared: Arc<PoolShared<T>>, worker: usize) {
    let mut state = shared.lock();
    loop {
        if state.shutdown {
            return;
        }
        let trace = state.trace.clone();
        let t0 = trace.as_deref().map_or(0, WorkerBuffers::now_us);
        match claim(&mut state) {
            Some((id, i, task)) => {
                drop(state);
                // Containment: a panic becomes this index's error, so the
                // bookkeeping below always runs — a lost task surfaces at
                // its own index, never as a hang. A job that is gone by
                // then (its stream was dropped) takes no result.
                let out = contained(|| task(i));
                record_span(trace.as_deref(), worker, format!("task {i}"), t0);
                if let Some(job) = shared.lock().jobs.get_mut(&id) {
                    job.results.insert(i, out);
                }
                shared.done_cv.notify_all();
                state = shared.lock();
            }
            None => {
                // Park span: how long this worker slept between claims.
                // Best-effort — a worker that parked before the trace was
                // attached records nothing for that nap.
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

/// Runs one closure with panic containment: a panic anywhere in a task (an
/// operator bug, a poisoned input) becomes a [`CiError::Exec`] instead of
/// killing the worker thread mid-bookkeeping — which would leave the
/// index's result forever missing and wedge the caller parked on
/// `done_cv`, poisoning the shared pool for all later queries.
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

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns a pool of `workers` threads (clamped to at least 1). Threads
    /// shut down when the pool drops. A thread the OS refuses to start is a
    /// [`CiError::Exec`] (the workers already started are joined).
    pub fn new(workers: usize) -> Result<WorkerPool<T>> {
        let workers = workers.max(1);
        let mut pool = WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    jobs: HashMap::new(),
                    next_job: 0,
                    completed: 0,
                    shutdown: false,
                    trace: None,
                }),
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
}

impl<T> WorkerPool<T> {
    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Jobs (streams) this pool has served over its lifetime — the
    /// pool-reuse statistic `PipelineMetrics` records. A job counts when its
    /// stream closes, drained or cancelled.
    pub fn jobs_completed(&self) -> u64 {
        self.shared.lock().completed
    }

    /// Attaches wall-clock trace buffers for one query (`TraceLevel::Full`).
    /// The returned guard detaches on drop, so every exit path — including
    /// errors — leaves a shared pool clean for the next query.
    pub(crate) fn attach_trace(&self, bufs: Arc<WorkerBuffers>) -> TraceGuard<T> {
        self.shared.lock().trace = Some(bufs);
        TraceGuard {
            shared: self.shared.clone(),
        }
    }

    /// Opens a stream of `task(0)`, …, `task(n - 1)`: workers start running
    /// them, at most [`ahead`] past the consumer, and the caller takes the
    /// results in index order with [`PoolStream::next`]. Dropping the
    /// stream cancels what is left.
    pub(crate) fn stream(&self, n: usize, task: Task<T>) -> PoolStream<T> {
        let mut state = self.shared.lock();
        let id = state.next_job;
        state.next_job += 1;
        state.jobs.insert(
            id,
            Job {
                task,
                n,
                next: 0,
                results: HashMap::new(),
                taken: 0,
                ahead: ahead(self.workers),
            },
        );
        drop(state);
        self.shared.work_cv.notify_all();
        PoolStream {
            shared: self.shared.clone(),
            id,
        }
    }
}

/// The consuming end of one pool job (see [`WorkerPool::stream`]).
pub(crate) struct PoolStream<T> {
    shared: Arc<PoolShared<T>>,
    id: u64,
}

impl<T> PoolStream<T> {
    /// Takes the next index's result — index 0 first, then in order —
    /// blocking only until that one result exists. Taking it moves the
    /// window one index forward.
    pub(crate) fn next(&mut self) -> Result<T> {
        let mut state = self.shared.lock();
        loop {
            let closed = state.shutdown;
            let Some(job) = state.jobs.get_mut(&self.id).filter(|_| !closed) else {
                return Err(CiError::Exec("worker pool shut down mid-stream".into()));
            };
            if job.taken == job.n {
                return Err(CiError::Exec(format!(
                    "pool stream read past its {} results",
                    job.taken
                )));
            }
            if let Some(result) = job.results.remove(&job.taken) {
                job.taken += 1;
                drop(state);
                // The window moved: the index at its far edge may run.
                self.shared.work_cv.notify_all();
                return result;
            }
            state = PoolShared::wait(&self.shared.done_cv, state);
        }
    }
}

impl<T> Drop for PoolStream<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.jobs.remove(&self.id);
        state.completed += 1;
    }
}

/// Detaches a pool's trace buffers when dropped (see
/// [`WorkerPool::attach_trace`]).
pub(crate) struct TraceGuard<T> {
    shared: Arc<PoolShared<T>>,
}

impl<T> Drop for TraceGuard<T> {
    fn drop(&mut self) {
        self.shared.lock().trace = None;
    }
}

impl<T> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        self.shared.done_cv.notify_all();
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;

    /// How long a test waits on another thread before calling it a hang.
    const HANG: Duration = Duration::from_secs(60);

    /// Drains a stream of `task` over `0..n` on a thread of its own and
    /// closes it; the receiver then yields every result at once.
    fn drain_on_thread<T: Send + 'static>(
        pool: &WorkerPool<T>,
        n: usize,
        task: Task<T>,
    ) -> mpsc::Receiver<Vec<Result<T>>> {
        let mut stream = pool.stream(n, task);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let results: Vec<_> = (0..n).map(|_| stream.next()).collect();
            drop(stream);
            let _ = tx.send(results);
        });
        rx
    }

    /// [`drain_on_thread`], awaited: a pool that strands an index fails the
    /// test instead of hanging it.
    fn drain<T: Send + 'static>(pool: &WorkerPool<T>, n: usize, task: Task<T>) -> Vec<Result<T>> {
        (drain_on_thread(pool, n, task).recv_timeout(HANG)).expect("the stream never drained")
    }

    /// The identity task, panicking at `trap`.
    fn trapped(trap: Option<usize>) -> Task<usize> {
        Arc::new(move |i| {
            assert_ne!(Some(i), trap, "trapped index {i}");
            Ok(i)
        })
    }

    #[test]
    fn private_pool_drops_cleanly_while_idle() {
        let pool = WorkerPool::<usize>::new(2).unwrap();
        assert_eq!(pool.jobs_completed(), 0);
        drop(pool); // joins both threads; hangs the test if shutdown is broken
    }

    /// A panicking task must surface as an error at its own index — not
    /// kill the worker thread mid-bookkeeping and leave the caller parked on
    /// `done_cv` forever. Before containment this test hung.
    #[test]
    fn worker_panic_becomes_morsel_error_not_a_hang() {
        let pool = WorkerPool::new(2).unwrap();
        let got = drain(&pool, 3, trapped(Some(1)));
        assert_eq!(got[0], Ok(0));
        assert_eq!(got[2], Ok(2));
        let err = got[1].as_ref().expect_err("the trapped index should error");
        assert!(matches!(err, CiError::Exec(_)), "{err}");
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
            4,
            Arc::new(|_| -> Result<usize> { panic!("every task") }),
        );
        assert!(failed.iter().all(Result::is_err));

        let want: Vec<_> = (0..4).map(Ok).collect();
        assert_eq!(drain(&pool, 4, trapped(None)), want);
        assert_eq!(pool.jobs_completed(), 2);
    }

    /// A thread that panics while holding the pool lock poisons the mutex;
    /// the table under it is still consistent (see `PoolShared::lock`), so
    /// the parked workers and the next caller recover the guard and the
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

        let want: Vec<_> = (0..3).map(Ok).collect();
        assert_eq!(drain(&pool, 3, trapped(None)), want);
        assert_eq!(pool.jobs_completed(), 1);
    }

    /// An error is its index's result: the stream yields it at that index,
    /// after the good results before it, and keeps going past it.
    #[test]
    fn an_error_surfaces_at_its_own_index() {
        let pool = WorkerPool::new(2).unwrap();
        let task: Task<usize> = Arc::new(|i| match i {
            3 => Err(CiError::Exec(format!("index {i} fails"))),
            _ => Ok(i),
        });
        for (i, got) in drain(&pool, 8, task).into_iter().enumerate() {
            match i {
                3 => assert!(got.is_err(), "index {i} is the failing one"),
                _ => assert_eq!(got, Ok(i), "index {i}"),
            }
        }
    }

    /// Task 0 is held while the other worker runs the rest of the window
    /// and parks: the caller is waiting for exactly the held index, and the
    /// stream must finish once it lands.
    #[test]
    fn a_slow_first_task_does_not_strand_the_stream() {
        let pool = WorkerPool::new(2).unwrap();
        let window = ahead(pool.workers());
        let n = 3 * window;
        let (open, gate) = mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let task: Task<usize> = Arc::new(move |i| {
            if i == 0 {
                let _ = gate.lock().map(|gate| gate.recv());
            }
            Ok(i)
        });
        let rx = drain_on_thread(&pool, n, task);
        let deadline = std::time::Instant::now() + HANG;
        loop {
            let state = pool.shared.lock();
            let job = state.jobs.values().next().expect("the job is open");
            if job.results.len() == window - 1 {
                assert_eq!(job.next, window, "nothing claimed past the window");
                break;
            }
            drop(state);
            assert!(std::time::Instant::now() < deadline, "pool never got there");
            std::thread::yield_now();
        }
        open.send(()).unwrap();
        let want: Vec<_> = (0..n).map(Ok).collect();
        assert_eq!(rx.recv_timeout(HANG).expect("index 0 was stranded"), want);
    }

    /// Dropping a stream early cancels its job: the table forgets it at
    /// once, no task starts at or past `taken + ahead`, the job still counts
    /// as served, and the pool goes on to the next job.
    #[test]
    fn dropping_the_stream_cancels_the_rest_of_the_job() {
        const TAKEN: usize = 3;
        let pool = WorkerPool::new(2).unwrap();
        let started = Arc::new(Mutex::new(Vec::new()));
        let log = started.clone();
        let task: Task<usize> = Arc::new(move |i| {
            log.lock().unwrap().push(i);
            Ok(i)
        });
        let mut stream = pool.stream(64, task);
        for i in 0..TAKEN {
            assert_eq!(stream.next(), Ok(i));
        }
        drop(stream);
        assert!(
            pool.shared.lock().jobs.is_empty(),
            "cancelled job left behind"
        );
        assert_eq!(pool.jobs_completed(), 1);

        assert_eq!(drain(&pool, 2, trapped(None)), vec![Ok(0), Ok(1)]);
        assert_eq!(pool.jobs_completed(), 2);

        // Joining the workers ends any task of the first job still running.
        let window = TAKEN + ahead(pool.workers());
        drop(pool);
        let started = started.lock().unwrap();
        assert!(started.len() >= TAKEN, "{started:?}");
        assert!(
            started.iter().all(|&i| i < window),
            "started past taken + ahead = {window}: {started:?}"
        );
    }

    /// Seeded random per-task delays at 1, 2 and 4 workers, the caller
    /// taking results at its own pace: every index runs exactly once, the
    /// results arrive in index order, and no task starts at or past
    /// `taken + ahead`.
    #[test]
    fn random_delays_keep_order_and_window() {
        use ci_types::rng::DetRng;

        for workers in [1, 2, 4] {
            for seed in 0..4 {
                let mut rng = DetRng::seed_from_u64(seed * 10 + workers as u64);
                let n = 10 + rng.usize_below(40);
                let delay_us: Vec<u64> = (0..n).map(|_| rng.u64_below(300)).collect();
                let pool = WorkerPool::new(workers).unwrap();
                let window = ahead(pool.workers());
                // Never behind the pool's own cursor: bumped before each
                // `next`, which moves the pool's past the same index.
                let taken = Arc::new(AtomicUsize::new(0));
                let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| 0.into()).collect());
                let (seen, counts) = (taken.clone(), runs.clone());
                let task: Task<usize> = Arc::new(move |i| {
                    let limit = seen.load(Ordering::SeqCst) + window;
                    assert!(i < limit, "index {i} started past taken + ahead = {limit}");
                    counts[i].fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_micros(delay_us[i]));
                    Ok(i)
                });
                let mut stream = pool.stream(n, task);
                for i in 0..n {
                    taken.store(i + 1, Ordering::SeqCst);
                    assert_eq!(stream.next(), Ok(i), "workers {workers} seed {seed}");
                    std::thread::sleep(Duration::from_micros(rng.u64_below(100)));
                }
                drop(stream);
                drop(pool);
                assert!(
                    runs.iter().all(|c| c.load(Ordering::SeqCst) == 1),
                    "workers {workers} seed {seed}: an index ran other than once"
                );
            }
        }
    }

    /// A `LIMIT` the first morsels satisfy, end to end: `Parallel` returns
    /// the simulator's rows and bill, and the pool runs only the few
    /// morsels inside the window, not the pipeline.
    #[test]
    fn a_satisfied_limit_stops_the_pool_early() {
        use crate::{ExecutionConfig, ExecutionMode, Executor, NoScaling};
        use ci_catalog::{Catalog, ErrorInjector};
        use ci_storage::table::TableBuilder;
        use ci_storage::{ColumnData, DataType, Field, RecordBatch, Schema};

        const ROWS: i64 = 8_000;
        const MORSEL_ROWS: usize = 100;
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]).unwrap());
        let batch = RecordBatch::new(schema.clone(), vec![ColumnData::Int64((0..ROWS).collect())]);
        let mut t = TableBuilder::new(ci_types::TableId::new(0), "t", schema, 1_000).unwrap();
        t.append(batch.unwrap()).unwrap();
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
        let tasks = (par.trace.unwrap().events.iter())
            .filter(|ev| ev.cat == "pool" && ev.name.starts_with("task "))
            .count();
        let total = ROWS as usize / MORSEL_ROWS;
        assert!(folded < total, "the LIMIT should cut the pipeline short");
        assert!(
            tasks <= folded + ahead(6),
            "{tasks} morsels run for {folded} folded of {total}"
        );
    }
}
