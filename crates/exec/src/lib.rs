//! # sadp-exec
//!
//! A small, dependency-free execution layer for the embarrassingly
//! parallel parts of the system: the circuit × arm × SADP experiment
//! matrix, per-via-layer index construction and audits, per-net DVI
//! candidate generation, and the waves of intra-instance sharded
//! routing.
//!
//! **One persistent pool.** Every parallel call runs on one
//! process-wide pool of parked worker threads (the workspace is
//! offline, so no `rayon`/`crossbeam`). Workers start lazily on the
//! first parallel call, grow to the largest width ever requested, and
//! sleep on a condition variable between jobs. A call of width `W`
//! publishes one *job*: the calling thread takes part as participant
//! 0 and up to `W − 1` parked workers join as participants `1..W`.
//! Participants claim task indices from one atomic counter and collect
//! `(task index, result)` pairs locally; once every participant has
//! left the job, the caller merges the pairs by task index. The caller
//! always works its own job, so no call ever waits for a free worker:
//! concurrent callers (e.g. the service's job workers) share the parked
//! workers, and a job no worker joins simply runs on its caller.
//!
//! **Determinism rule.** Because results are merged in task-index
//! order, [`map`] / [`map_indexed`] return *exactly* what the serial
//! loop `(0..n).map(f).collect()` returns, for any thread count and
//! any interleaving — provided `f` is a pure function of its index.
//! Parallel output is therefore byte-identical to serial output; the
//! only thing scheduling may reorder is side effects (so callers
//! buffer their logging and replay it in task order).
//!
//! **Thread-count override.** The width of each call is, in priority
//! order: a scoped [`with_threads`] override (used by benches and
//! tests), the `SADP_EXEC_THREADS` environment variable, then
//! `std::thread::available_parallelism()` — read afresh on every call.
//! A width of 1 short-circuits to a serial inline loop that starts no
//! thread at all — the fallback path CI pins with
//! `SADP_EXEC_THREADS=1`. Calls nested inside any task, including the
//! tasks a caller runs itself, also run inline, so fan-out inside
//! fan-out (e.g. per-net DVI candidate generation inside an
//! experiment-matrix task) cannot oversubscribe the machine.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The environment variable overriding the pool width
/// (`1` = serial inline execution; unset/invalid = machine default).
pub const THREADS_ENV: &str = "SADP_EXEC_THREADS";

/// The fault-injection failpoint hit once per pool task (see the
/// `faultinject` crate): when armed, the task panics. [`map_indexed`] /
/// [`map`] propagate that panic; [`try_map_indexed`] / [`try_map`]
/// contain it as a [`TaskPanicked`] error.
pub const FAILPOINT_TASK_PANIC: &str = "exec.task_panic";

/// A worker task panicked inside [`try_map_indexed`] / [`try_map`].
///
/// Carries the lowest panicking task index and the panic payload
/// rendered to a string (`&str` / `String` payloads verbatim,
/// anything else as a placeholder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanicked {
    /// The lowest task index whose closure panicked.
    pub task: usize,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanicked {}

/// Renders a caught panic payload to a human-readable string.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Scoped override installed by [`with_threads`].
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on pool workers and on a caller while it runs its own
    /// tasks: nested maps run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The pool width the next [`map`] / [`map_indexed`] call on this
/// thread will use: [`with_threads`] override, else `SADP_EXEC_THREADS`,
/// else `available_parallelism()` (1 on failure). Always ≥ 1.
pub fn thread_count() -> usize {
    if let Some(n) = OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with the pool width pinned to `threads` on this thread
/// (overriding `SADP_EXEC_THREADS`), restoring the previous override
/// afterwards. Used by the serial-vs-parallel benches and the
/// determinism tests.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = push_threads(threads);
    f()
}

/// RAII form of [`with_threads`]: pins the pool width for this thread
/// until the guard drops (restoring the previous override). Lets a
/// `&mut self` method install a width for its own body where a
/// closure-based scope would fight the borrow checker.
#[must_use = "the override is lifted when the guard drops"]
pub struct ThreadsGuard {
    prev: Option<usize>,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        OVERRIDE.with(|c| c.set(prev));
    }
}

/// Installs a scoped pool-width override on this thread (see
/// [`ThreadsGuard`]). A width of 0 is clamped to 1 (serial).
pub fn push_threads(threads: usize) -> ThreadsGuard {
    ThreadsGuard {
        prev: OVERRIDE.with(|c| c.replace(Some(threads.max(1)))),
    }
}

/// `true` when called from inside a pool task — on a pool worker, or
/// on a caller running its own share of a job (nested maps run inline
/// rather than publishing a second job).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Applies `f` to every index in `0..tasks` and returns the results in
/// index order — byte-identical to `(0..tasks).map(f).collect()` for
/// any thread count (see the crate docs for the determinism rule).
///
/// A panic in any task propagates to the caller, with its original
/// payload, once every participant has left the job.
pub fn map_indexed<R, F>(tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let g = |i: usize| {
        faultinject::maybe_panic(FAILPOINT_TASK_PANIC);
        f(i)
    };
    let threads = thread_count().min(tasks);
    if threads <= 1 || in_worker() {
        return (0..tasks).map(g).collect();
    }
    dispatch(tasks, &mut vec![(); threads], &|_: &mut (), i| g(i))
}

/// Applies `f` to every element of `items`, returning results in item
/// order (the slice-convenience form of [`map_indexed`]).
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(items.len(), |i| f(&items[i]))
}

/// Runs one task under `catch_unwind` with the [`FAILPOINT_TASK_PANIC`]
/// failpoint armed: the task body of every `try_*` fan-out.
fn contained<R>(i: usize, task: impl FnOnce() -> R) -> Result<R, TaskPanicked> {
    catch_unwind(AssertUnwindSafe(|| {
        faultinject::maybe_panic(FAILPOINT_TASK_PANIC);
        task()
    }))
    .map_err(|payload| TaskPanicked {
        task: i,
        message: panic_message(payload.as_ref()),
    })
}

/// Panic-containing variant of [`map_indexed`]: each task runs under
/// `catch_unwind`, and a panicking task yields
/// `Err(`[`TaskPanicked`]`)` for the *lowest* panicking index instead
/// of unwinding through the caller. All other tasks still run to
/// completion (the pool never cancels), so the wall clock matches the
/// panic-free run.
///
/// `f` must leave any shared state it touches consistent on panic
/// (tasks here are pure index→value functions, per the determinism
/// rule, so this holds trivially for intended uses).
pub fn try_map_indexed<R, F>(tasks: usize, f: F) -> Result<Vec<R>, TaskPanicked>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let g = |i: usize| contained(i, || f(i));
    let threads = thread_count().min(tasks);
    let results: Vec<Result<R, TaskPanicked>> = if threads <= 1 || in_worker() {
        (0..tasks).map(g).collect()
    } else {
        dispatch(tasks, &mut vec![(); threads], &|_: &mut (), i| g(i))
    };
    // Results are already in task-index order, so `collect` surfaces
    // the lowest panicking index deterministically.
    results.into_iter().collect()
}

/// Slice-convenience form of [`try_map_indexed`].
pub fn try_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, TaskPanicked>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_map_indexed(items.len(), |i| f(&items[i]))
}

/// Panic-containing fan-out with **per-participant mutable state**:
/// the wave API used by intra-instance sharded routing.
///
/// `states` is a caller-owned pool of participant states (e.g. search
/// scratch buffers). It is grown with `make` until it covers the call's
/// width `W`; participant `p` borrows `states[p]` exclusively for the
/// duration of the call, and every task that participant executes
/// receives that same `&mut S`. `states[0]` belongs to the caller,
/// which takes part in every job as participant 0 — and it is also the
/// state of the serial inline path (width 1, or nested inside a task).
///
/// Determinism: results are merged in task-index order, so the return
/// value is byte-identical to the serial loop for any thread count —
/// the usual pool rule — while each task additionally gets scratch
/// state reuse. Tasks must therefore not let results depend on *which*
/// state they received (scratch buffers are reset per search, so this
/// holds).
///
/// Each task runs under `catch_unwind` with the
/// [`FAILPOINT_TASK_PANIC`] failpoint armed; a panicking task yields
/// `Err(`[`TaskPanicked`]`)` for the lowest panicking index, with all
/// other tasks still run to completion.
pub fn try_map_with<S, R, F, M>(
    tasks: usize,
    states: &mut Vec<S>,
    mut make: M,
    f: F,
) -> Result<Vec<R>, TaskPanicked>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
    M: FnMut() -> S,
{
    let g = |state: &mut S, i: usize| contained(i, || f(state, i));
    let threads = thread_count().min(tasks.max(1));
    if states.is_empty() {
        states.push(make());
    }
    let results: Vec<Result<R, TaskPanicked>> = if threads <= 1 || in_worker() {
        let state = &mut states[0];
        (0..tasks).map(|i| g(state, i)).collect()
    } else {
        while states.len() < threads {
            states.push(make());
        }
        dispatch(tasks, &mut states[..threads], &g)
    };
    results.into_iter().collect()
}

/// One published parallel call: the shared half of [`dispatch`].
struct Job {
    /// Runs participant `p`: claims tasks until none are left. Its
    /// lifetime is erased; see the `SAFETY` note in [`dispatch`].
    run: &'static (dyn Fn(&Job, usize) + Sync),
    /// Number of tasks.
    tasks: usize,
    /// The next unclaimed task index. `Relaxed` throughout: a claim
    /// publishes no data, results travel through mutexes.
    next: AtomicUsize,
    /// Participants the job admits, the caller included.
    width: usize,
    /// Participant slots handed out so far (the caller holds slot 0).
    /// Read and changed only under the pool lock, which orders it.
    joined: AtomicUsize,
    /// Pool workers currently inside `run`. Read and changed only
    /// under the pool lock, which orders it.
    active: AtomicUsize,
}

impl Job {
    /// Claims the next task index, or `None` once all are claimed.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.tasks).then_some(i)
    }

    /// `true` while a worker joining the job would get a slot and
    /// could still find a task.
    fn joinable(&self) -> bool {
        self.joined.load(Ordering::Relaxed) < self.width
            && self.next.load(Ordering::Relaxed) < self.tasks
    }
}

/// The pool's shared state, behind [`POOL`]'s lock.
struct Queue {
    /// Published jobs that may still admit a worker, oldest first.
    jobs: VecDeque<Arc<Job>>,
    /// Worker threads started so far.
    workers: usize,
}

/// The process-wide pool: a job queue and its two condition variables.
struct Pool {
    queue: Mutex<Queue>,
    /// Signalled when a job is published.
    work: Condvar,
    /// Signalled when a worker leaves a job.
    left: Condvar,
}

static POOL: Pool = Pool {
    queue: Mutex::new(Queue {
        jobs: VecDeque::new(),
        workers: 0,
    }),
    work: Condvar::new(),
    left: Condvar::new(),
};

#[cfg(test)]
thread_local! {
    /// Jobs this thread has published (pool contract tests).
    static PUBLISHED: Cell<usize> = const { Cell::new(0) };
}

/// Locks the pool. No code panics while holding the lock, but a
/// poisoned lock is still usable: the queue is consistent at every
/// unlock.
fn lock() -> MutexGuard<'static, Queue> {
    POOL.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks on `cv` until notified, re-acquiring the pool lock.
fn wait<'a>(cv: &Condvar, queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
    cv.wait(queue).unwrap_or_else(PoisonError::into_inner)
}

/// The body of a pool worker thread: park until a joinable job is
/// published, run one participant of it, leave, repeat.
fn worker_main() {
    IN_WORKER.with(|c| c.set(true));
    let mut queue = lock();
    loop {
        let job = loop {
            while queue.jobs.front().is_some_and(|j| !j.joinable()) {
                queue.jobs.pop_front();
            }
            match queue.jobs.front() {
                Some(job) => break Arc::clone(job),
                None => queue = wait(&POOL.work, queue),
            }
        };
        let p = job.joined.fetch_add(1, Ordering::Relaxed);
        job.active.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        // `run` contains task panics itself; should anything else
        // unwind, this guard still leaves the job below (the caller
        // waits for that) and keeps the worker for the next job.
        let _ = catch_unwind(AssertUnwindSafe(|| (job.run)(&job, p)));
        queue = lock();
        job.active.fetch_sub(1, Ordering::Relaxed);
        // The handle goes before the caller can observe `active == 0`,
        // so no worker holds a job whose caller has returned.
        drop(job);
        POOL.left.notify_all();
    }
}

/// Publishes `job`, first starting workers until the pool covers its
/// width. A worker that fails to start is simply not there: the caller
/// runs whatever no worker claims. Workers are never joined: they park
/// for the life of the process, and `worker_main` contains panics.
fn publish(job: &Arc<Job>) {
    let mut queue = lock();
    while queue.workers + 1 < job.width {
        let spawned = std::thread::Builder::new()
            .name(format!("sadp-exec-{}", queue.workers + 1))
            .spawn(worker_main);
        if spawned.is_err() {
            break;
        }
        queue.workers += 1;
    }
    queue.jobs.push_back(Arc::clone(job));
    drop(queue);
    for _ in 1..job.width {
        POOL.work.notify_one();
    }
    #[cfg(test)]
    PUBLISHED.with(|c| c.set(c.get() + 1));
}

/// Withdraws a job from the queue and blocks until every worker that
/// joined it has left. Runs on drop, so it also runs while the caller
/// unwinds.
struct Retire<'a>(&'a Arc<Job>);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let mut queue = lock();
        queue.jobs.retain(|j| !Arc::ptr_eq(j, self.0));
        while self.0.active.load(Ordering::Relaxed) > 0 {
            queue = wait(&POOL.left, queue);
        }
    }
}

/// Marks the current thread as running pool tasks until dropped.
struct Inside(bool);

impl Inside {
    fn enter() -> Inside {
        Inside(IN_WORKER.with(|c| c.replace(true)))
    }
}

impl Drop for Inside {
    fn drop(&mut self) {
        let prev = self.0;
        IN_WORKER.with(|c| c.set(prev));
    }
}

/// The one parallel path: runs `f(&mut states[p], i)` for every task
/// `i` in `0..tasks` on `states.len()` participants — the caller as
/// participant 0 plus parked pool workers — and returns the results in
/// task-index order. A panicking task stops its participant (the
/// others drain the remaining tasks); once every participant has left,
/// the payload of the lowest panicking task is re-raised on the
/// caller.
fn dispatch<S, R, F>(tasks: usize, states: &mut [S], f: &F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let slots: Vec<Mutex<&mut S>> = states.iter_mut().map(Mutex::new).collect();
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(tasks));
    let panicked: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    let run = |job: &Job, p: usize| {
        let mut slot = slots[p].lock().unwrap_or_else(PoisonError::into_inner);
        let state: &mut S = &mut slot;
        let mut local: Vec<(usize, R)> = Vec::new();
        while let Some(i) = job.claim() {
            match catch_unwind(AssertUnwindSafe(|| f(state, i))) {
                Ok(r) => local.push((i, r)),
                Err(payload) => {
                    let mut first = panicked.lock().unwrap_or_else(PoisonError::into_inner);
                    if first.as_ref().is_none_or(|&(j, _)| i < j) {
                        *first = Some((i, payload));
                    }
                    break;
                }
            }
        }
        results
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .append(&mut local);
    };
    let run: &(dyn Fn(&Job, usize) + Sync + '_) = &run;
    // SAFETY: only the lifetime is erased; the layout is unchanged.
    // `run` borrows this frame, and the erased reference is reachable
    // only through `job`. The `Retire` guard below withdraws `job`
    // from the queue and blocks until every worker that joined it has
    // left `run` and dropped its handle — also when this frame unwinds,
    // and it exists before `job` is published — so `run` is never
    // called, nor referenced by a worker, after this frame ends. The
    // caller's own `job` is dropped before `run`.
    let run: &'static (dyn Fn(&Job, usize) + Sync) = unsafe { std::mem::transmute(run) };
    let job = Arc::new(Job {
        run,
        tasks,
        next: AtomicUsize::new(0),
        width: slots.len(),
        joined: AtomicUsize::new(1),
        active: AtomicUsize::new(0),
    });
    {
        let _retire = Retire(&job);
        publish(&job);
        let _inside = Inside::enter();
        (job.run)(&job, 0);
    }
    drop(job);
    if let Some((_, payload)) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    let mut pairs = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    debug_assert_eq!(pairs.len(), tasks, "every task produces one result");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_matches_serial_for_all_widths() {
        let serial: Vec<u64> = (0..137)
            .map(|i| (i as u64).wrapping_mul(0x9e3779b9))
            .collect();
        for threads in [1, 2, 3, 4, 8, 200] {
            let parallel = with_threads(threads, || {
                map_indexed(137, |i| (i as u64).wrapping_mul(0x9e3779b9))
            });
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn slice_map_preserves_order() {
        let items: Vec<i64> = (0..50).map(|i| i * 3 - 7).collect();
        let out = with_threads(4, || map(&items, |&x| x * x));
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_task() {
        assert_eq!(
            with_threads(4, || map_indexed(0, |i| i)),
            Vec::<usize>::new()
        );
        assert_eq!(with_threads(4, || map_indexed(1, |i| i + 10)), vec![10]);
    }

    #[test]
    fn uneven_task_costs_rebalance() {
        // First chunk is slow; stealing must still complete everything
        // and the result stays in index order.
        let out = with_threads(4, || {
            map_indexed(64, |i| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * 2
            })
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = with_threads(4, || {
            map_indexed(500, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            })
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn nested_maps_run_inline_in_workers() {
        let out = with_threads(4, || {
            map_indexed(8, |i| {
                assert!(in_worker() || thread_count() == 1);
                // The nested call must not spawn a second pool.
                let inner = map_indexed(16, move |j| i * 100 + j);
                inner.iter().sum::<usize>()
            })
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..16).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = thread_count();
        let inner = with_threads(7, thread_count);
        assert_eq!(inner, 7);
        assert_eq!(thread_count(), outer);
        // Zero is clamped to the serial floor.
        assert_eq!(with_threads(0, thread_count), 1);
    }

    #[test]
    fn push_threads_guard_nests_and_restores() {
        let outer = thread_count();
        {
            let _g1 = push_threads(5);
            assert_eq!(thread_count(), 5);
            {
                let _g2 = push_threads(2);
                assert_eq!(thread_count(), 2);
            }
            assert_eq!(thread_count(), 5, "inner guard restores outer override");
        }
        assert_eq!(thread_count(), outer);
    }

    #[test]
    fn env_variable_is_honored_without_override() {
        // Note: env mutation is process-global; every other test in
        // this module pins its width via `with_threads`, which takes
        // precedence, so this cannot race their results.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(thread_count(), 3);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(thread_count() >= 1);
        std::env::set_var(THREADS_ENV, "0");
        assert!(thread_count() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn try_map_contains_panics_and_reports_lowest_index() {
        for threads in [1, 4] {
            let err = with_threads(threads, || {
                try_map_indexed(32, |i| {
                    if i == 13 || i == 21 {
                        panic!("task {i} exploded");
                    }
                    i
                })
            })
            .unwrap_err();
            assert_eq!(err.task, 13, "threads={threads}");
            assert_eq!(err.message, "task 13 exploded");
            assert!(err.to_string().contains("task 13 panicked"));
        }
    }

    #[test]
    fn try_map_matches_map_when_nothing_panics() {
        let ok = with_threads(4, || try_map_indexed(100, |i| i * 7)).unwrap();
        assert_eq!(ok, (0..100).map(|i| i * 7).collect::<Vec<_>>());
        let items: Vec<i32> = (0..20).collect();
        let out = with_threads(4, || try_map(&items, |&x| x + 1)).unwrap();
        assert_eq!(out, (1..21).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_with_matches_serial_and_reuses_states() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64) * 31 + 5).collect();
        for threads in [1, 2, 4, 8] {
            let mut states: Vec<u64> = Vec::new();
            let out = with_threads(threads, || {
                try_map_with(
                    97,
                    &mut states,
                    || 0u64,
                    |s, i| {
                        // Worker-local state mutates freely without
                        // affecting the (index-pure) result.
                        *s += 1;
                        (i as u64) * 31 + 5
                    },
                )
            })
            .unwrap();
            assert_eq!(out, serial, "threads={threads}");
            // The state pool grew to at most the pool width and saw
            // every task exactly once in total.
            assert!(states.len() <= threads.max(1));
            assert_eq!(states.iter().sum::<u64>(), 97, "threads={threads}");
        }
    }

    #[test]
    fn try_map_with_contains_panics_at_lowest_index() {
        for threads in [1, 4] {
            let mut states: Vec<()> = Vec::new();
            let err = with_threads(threads, || {
                try_map_with(
                    40,
                    &mut states,
                    || (),
                    |_, i| {
                        if i == 11 || i == 29 {
                            panic!("wave task {i} died");
                        }
                        i
                    },
                )
            })
            .unwrap_err();
            assert_eq!(err.task, 11, "threads={threads}");
            assert_eq!(err.message, "wave task 11 died");
        }
    }

    #[test]
    fn try_map_with_zero_tasks_is_empty() {
        let mut states: Vec<u8> = Vec::new();
        let out = with_threads(4, || try_map_with(0, &mut states, || 0u8, |_, i| i)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        /// A participant state that flags any concurrent use.
        struct Probe {
            busy: std::sync::atomic::AtomicBool,
            runs: usize,
        }
        let value = |i: usize| (i as u64).wrapping_mul(7919) % 1013;
        let serial: Vec<u64> = (0..301).map(value).collect();
        std::thread::scope(|scope| {
            for caller in 0..4 {
                let serial = &serial;
                scope.spawn(move || {
                    for round in 0..20 {
                        let mut states: Vec<Probe> = Vec::new();
                        let width = 2 + (caller + round) % 3;
                        let out = with_threads(width, || {
                            try_map_with(
                                301,
                                &mut states,
                                || Probe {
                                    busy: std::sync::atomic::AtomicBool::new(false),
                                    runs: 0,
                                },
                                |s, i| {
                                    assert!(
                                        !s.busy.swap(true, Ordering::SeqCst),
                                        "one state used by two participants at once"
                                    );
                                    s.runs += 1;
                                    std::thread::yield_now();
                                    s.busy.store(false, Ordering::SeqCst);
                                    value(i)
                                },
                            )
                        })
                        .unwrap();
                        assert_eq!(&out, serial, "caller={caller} round={round}");
                        assert_eq!(states.len(), width);
                        assert_eq!(states.iter().map(|s| s.runs).sum::<usize>(), 301);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_map_leaves_the_pool_usable() {
        // Four tasks meeting at a barrier run on four participants, so
        // three of the panics happen on pool workers.
        let meet = std::sync::Barrier::new(4);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                map_indexed(4, |i| -> usize {
                    meet.wait();
                    panic!("task {i} exploded")
                })
            })
        }))
        .unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "task 0 exploded");
        // The next job again needs three live workers at once.
        let out = with_threads(4, || {
            map_indexed(4, |i| {
                meet.wait();
                i + 1
            })
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn caller_run_tasks_are_inside_the_pool() {
        // Two tasks meeting at a barrier: whichever participant claims
        // the first blocks until another claims the second, so the
        // caller and one pool worker run exactly one task each.
        let caller = std::thread::current().id();
        let meet = std::sync::Barrier::new(2);
        let seen = with_threads(2, || {
            map_indexed(2, |_| {
                meet.wait();
                let me = std::thread::current().id();
                let published = PUBLISHED.with(Cell::get);
                let inner = map_indexed(8, |_| std::thread::current().id());
                let inline =
                    inner.iter().all(|&t| t == me) && PUBLISHED.with(Cell::get) == published;
                (me == caller, in_worker(), inline)
            })
        });
        assert_eq!(
            seen.iter().filter(|s| s.0).count(),
            1,
            "the caller runs exactly its own share"
        );
        assert!(seen.iter().all(|s| s.1), "in_worker() inside every task");
        assert!(seen.iter().all(|s| s.2), "nested maps run inline");
        assert!(!in_worker(), "the caller leaves the pool with the job");
    }

    #[test]
    fn width_one_starts_no_pool_thread() {
        let before = PUBLISHED.with(Cell::get);
        let caller = std::thread::current().id();
        let on_caller = |ids: &[std::thread::ThreadId]| ids.iter().all(|&t| t == caller);
        with_threads(1, || {
            assert!(on_caller(&map_indexed(50, |_| std::thread::current().id())));
            assert!(on_caller(
                &try_map_indexed(50, |_| std::thread::current().id()).unwrap()
            ));
            let mut states: Vec<u32> = Vec::new();
            let ids = try_map_with(
                50,
                &mut states,
                || 0u32,
                |s, _| {
                    *s += 1;
                    std::thread::current().id()
                },
            )
            .unwrap();
            assert!(on_caller(&ids));
            assert_eq!(states, vec![50]);
        });
        assert_eq!(PUBLISHED.with(Cell::get), before, "width 1 published a job");
        // Positive control: width 2 goes through the pool.
        assert_eq!(with_threads(2, || map_indexed(2, |i| i)), vec![0, 1]);
        assert_eq!(PUBLISHED.with(Cell::get), before + 1);
    }

    // Injected `exec.task_panic` faults are exercised by the
    // root-level chaos suite (`tests/chaos.rs`): faultinject arming is
    // process-global and would race the other parallel unit tests in
    // this binary, which all hit the same failpoint via map_indexed.

    #[test]
    #[should_panic(expected = "task 13 exploded")]
    fn task_panics_propagate() {
        with_threads(4, || {
            map_indexed(32, |i| {
                if i == 13 {
                    panic!("task 13 exploded");
                }
                i
            })
        });
    }
}
