//! # hexcute-parallel
//!
//! A small parallel-map helper backed by a **persistent worker pool**. The
//! synthesis engine and the compiler driver fan candidate enumeration,
//! subtree search, shared-memory synthesis and cost scoring out across CPU
//! cores with [`par_map`]; the environment variable `HEXCUTE_THREADS` caps
//! the worker count (`1` forces the serial path, useful for profiling and
//! for before/after benchmarking, and `0` means "auto": use the machine's
//! available parallelism).
//!
//! The API is a deliberately tiny subset of what `rayon` would provide: an
//! order-preserving map over an owned `Vec`. Work is distributed by an
//! atomic index cursor, so uneven per-item costs still balance.
//!
//! ## The pool
//!
//! Earlier revisions spawned a fresh `std::thread::scope` per call; with the
//! search tree now fanning out many small maps per compilation, the per-call
//! spawn overhead dominated. Worker threads are instead spawned lazily on
//! first use and parked on a condition variable between jobs; a job is a
//! type-erased handle to state on the submitting thread's stack, and the
//! submitting thread always participates in its own job, so a nested
//! [`par_map`] issued from inside a pool worker always makes progress even
//! when every other pool thread is busy.
//!
//! The [`cache`] module provides the sharded concurrent memo map the
//! synthesis/cost/simulation caches use to stay safe (and mostly
//! uncontended) when the parallel search shares them across workers; the
//! [`lossy`] module puts a thread-local direct-mapped table in front of it
//! on the single-threaded hot path. The [`cancel`] module provides the
//! cooperative [`cancel::CancelToken`] that [`par_map_cancellable`] and the
//! synthesis walks poll so a deadline, watchdog or shutdown can abort
//! in-flight work promptly (skipped items are counted in
//! [`PoolStats::cancelled`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod cancel;
pub mod incumbent;
pub mod lossy;

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};

/// How the `HEXCUTE_THREADS` environment variable parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadsSpec {
    /// The variable is not set: use the machine's available parallelism.
    Unset,
    /// Explicit `0`: use the machine's available parallelism.
    Auto,
    /// An explicit positive worker count.
    Count(usize),
    /// The variable is set but not a decimal integer (e.g. `"0x4"`, `""`):
    /// ignored with a one-time warning.
    Invalid,
}

/// Parses the value of `HEXCUTE_THREADS`. `None` means the variable is not
/// set; `"0"` explicitly requests auto detection; surrounding whitespace is
/// tolerated; anything that is not a decimal integer is [`ThreadsSpec::Invalid`].
pub fn parse_threads(value: Option<&str>) -> ThreadsSpec {
    match value {
        None => ThreadsSpec::Unset,
        Some(v) => match v.trim().parse::<usize>() {
            Ok(0) => ThreadsSpec::Auto,
            Ok(n) => ThreadsSpec::Count(n),
            Err(_) => ThreadsSpec::Invalid,
        },
    }
}

fn machine_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The number of worker threads [`par_map`] uses: `HEXCUTE_THREADS` when set
/// to a positive count, otherwise the machine's available parallelism (`0`
/// explicitly requests the latter). A set-but-unparsable value falls back to
/// machine parallelism too, with a warning printed once per process.
pub fn worker_count() -> usize {
    let value = std::env::var("HEXCUTE_THREADS").ok();
    match parse_threads(value.as_deref()) {
        ThreadsSpec::Count(n) => n,
        ThreadsSpec::Invalid => {
            static WARN: Once = Once::new();
            WARN.call_once(|| {
                eprintln!(
                    "hexcute-parallel: HEXCUTE_THREADS={:?} is not a number of workers \
                     (use a decimal integer; 0 means auto); falling back to machine parallelism",
                    value.unwrap_or_default()
                );
            });
            machine_parallelism()
        }
        ThreadsSpec::Unset | ThreadsSpec::Auto => machine_parallelism(),
    }
}

// ---------------------------------------------------------------------------
// Fault injection hooks (chaos testing).
// ---------------------------------------------------------------------------

/// Where in the pool a fault hook is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolFaultPoint {
    /// Before one claimed item of a [`par_map`] job runs its closure. A
    /// `true` verdict panics the item, which abandons the map and propagates
    /// to the submitting thread exactly like a closure panic (the pool's
    /// ordinary panic-propagation contract).
    JobItem,
    /// Before a pool worker claims a queued job. A `true` verdict kills the
    /// worker thread itself (its unwind is caught and the worker is revived;
    /// see [`pool_stats`]). The job keeps its helper ticket and is picked up
    /// by another worker or by the submitting thread.
    WorkerClaim,
}

/// A fault verdict function: `true` means "inject a fault here". Installed
/// process-wide by the fault-injection layer (`hexcute_core::faults`).
pub type PoolFaultHook = Arc<dyn Fn(PoolFaultPoint) -> bool + Send + Sync>;

static HOOK_ACTIVE: AtomicBool = AtomicBool::new(false);

fn hook_slot() -> &'static Mutex<Option<PoolFaultHook>> {
    static HOOK: OnceLock<Mutex<Option<PoolFaultHook>>> = OnceLock::new();
    HOOK.get_or_init(|| Mutex::new(None))
}

/// Installs (or, with `None`, removes) the process-wide pool fault hook.
/// When no hook is installed the pool's hot paths check a single relaxed
/// atomic and nothing else — the injection points are compiled in but inert.
pub fn set_pool_fault_hook(hook: Option<PoolFaultHook>) {
    let mut slot = hook_slot().lock().unwrap_or_else(|p| p.into_inner());
    HOOK_ACTIVE.store(hook.is_some(), Ordering::Release);
    *slot = hook;
}

/// Consults the installed hook; `false` when none is installed.
fn fault_fires(point: PoolFaultPoint) -> bool {
    if !HOOK_ACTIVE.load(Ordering::Acquire) {
        return false;
    }
    let hook = hook_slot()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    hook.is_some_and(|h| h(point))
}

/// Counters describing the pool's lifetime behaviour. Snapshot via
/// [`pool_stats`]; deltas across a run give job/item throughput and — under
/// fault injection — how many workers died and were revived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Persistent worker threads spawned so far.
    pub spawned: usize,
    /// Jobs submitted to the pool queue ([`par_map`] calls that fanned out).
    pub jobs: u64,
    /// Items claimed and executed across all jobs (by helpers *and*
    /// submitting threads).
    pub items: u64,
    /// Worker threads whose loop unwound (injected or real panics escaping
    /// the per-item catch).
    pub deaths: u64,
    /// Workers revived after a death; equals [`PoolStats::deaths`] unless a
    /// revival itself failed.
    pub respawns: u64,
    /// Job items skipped because their job's [`cancel::CancelToken`] tripped
    /// before they ran (see [`par_map_cancellable`]).
    pub cancelled: u64,
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} workers, {} jobs, {} items ({} cancelled), {} deaths / {} respawns",
            self.spawned, self.jobs, self.items, self.cancelled, self.deaths, self.respawns
        )
    }
}

static POOL_JOBS: AtomicU64 = AtomicU64::new(0);
static POOL_ITEMS: AtomicU64 = AtomicU64::new(0);
static POOL_DEATHS: AtomicU64 = AtomicU64::new(0);
static POOL_RESPAWNS: AtomicU64 = AtomicU64::new(0);
static POOL_CANCELLED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the pool's lifetime counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        spawned: pool_thread_count(),
        jobs: POOL_JOBS.load(Ordering::Relaxed),
        items: POOL_ITEMS.load(Ordering::Relaxed),
        deaths: POOL_DEATHS.load(Ordering::Relaxed),
        respawns: POOL_RESPAWNS.load(Ordering::Relaxed),
        cancelled: POOL_CANCELLED.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// The persistent worker pool.
// ---------------------------------------------------------------------------

/// Hard cap on pool threads, far above any sensible `HEXCUTE_THREADS`; a
/// runaway request degrades to queueing instead of spawning without bound.
pub const MAX_POOL_THREADS: usize = 256;

/// A type-erased pointer to one job's [`JobShared`] state plus the
/// monomorphized entry point that drives it. The state lives on the
/// submitting thread's stack; [`DoneGate`] guarantees the submitter outlives
/// every helper that registered for the job.
#[derive(Clone, Copy)]
struct JobHandle {
    state: *const (),
    run: unsafe fn(*const ()),
    gate: *const DoneGate,
}

// SAFETY: the pointers are only dereferenced by helpers registered through
// the pool queue, and the submitting thread blocks on the gate until every
// registered helper has deregistered before the pointees are dropped.
unsafe impl Send for JobHandle {}

/// Counts the helpers currently inside a job. The submitter waits here after
/// retiring the job from the queue; a helper's *last* access to any job
/// memory is the unlock inside [`DoneGate::leave`].
struct DoneGate {
    active: Mutex<usize>,
    done: Condvar,
}

impl DoneGate {
    fn new() -> Self {
        DoneGate {
            active: Mutex::new(0),
            done: Condvar::new(),
        }
    }

    /// Called by a helper with the pool lock held (see [`PoolInner`]): the
    /// registration is therefore ordered against [`Pool::retire`].
    fn enter(&self) {
        *self.active.lock().unwrap_or_else(|p| p.into_inner()) += 1;
    }

    fn leave(&self) {
        let mut active = self.active.lock().unwrap_or_else(|p| p.into_inner());
        *active -= 1;
        self.done.notify_all();
    }

    /// Blocks until every registered helper has left.
    fn wait_idle(&self) {
        let mut active = self.active.lock().unwrap_or_else(|p| p.into_inner());
        while *active > 0 {
            active = self.done.wait(active).unwrap_or_else(|p| p.into_inner());
        }
    }
}

struct QueuedJob {
    id: u64,
    handle: JobHandle,
    /// How many more helpers may still join this job.
    tickets: usize,
}

struct PoolInner {
    queue: VecDeque<QueuedJob>,
    idle: usize,
    spawned: usize,
    next_id: u64,
}

struct Pool {
    inner: Mutex<PoolInner>,
    work: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        inner: Mutex::new(PoolInner {
            queue: VecDeque::new(),
            idle: 0,
            spawned: 0,
            next_id: 0,
        }),
        work: Condvar::new(),
    })
}

impl Pool {
    /// Enqueues a job offering `tickets` helper slots, spawning workers as
    /// needed (lazily, up to [`MAX_POOL_THREADS`], persistent thereafter).
    /// Returns the job id used by [`Pool::retire`].
    fn submit(&'static self, handle: JobHandle, tickets: usize) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        // Spawn helpers *before* enqueueing the stack-referencing job, and
        // tolerate spawn failure (resource exhaustion): the submitter always
        // participates in its own job, so fewer helpers only means less
        // parallelism — never a stuck or dangling job. Panicking here with
        // the job already queued would leak a handle to freed stack memory.
        let deficit = tickets.saturating_sub(inner.idle);
        let headroom = MAX_POOL_THREADS.saturating_sub(inner.spawned);
        for _ in 0..deficit.min(headroom) {
            match std::thread::Builder::new()
                .name("hexcute-pool".to_string())
                .spawn(move || {
                    // A worker whose loop unwinds (an injected worker death,
                    // or a defect escaping the per-item catch) is revived in
                    // place instead of silently shrinking the pool. The
                    // queue bookkeeping tolerates the unwind: a death before
                    // a claim leaves the job's ticket for someone else, and
                    // every pool lock acquisition is poison-tolerant.
                    loop {
                        if panic::catch_unwind(AssertUnwindSafe(|| self.worker_loop())).is_ok() {
                            break;
                        }
                        POOL_DEATHS.fetch_add(1, Ordering::Relaxed);
                        POOL_RESPAWNS.fetch_add(1, Ordering::Relaxed);
                    }
                }) {
                Ok(_) => inner.spawned += 1,
                Err(_) => break,
            }
        }
        POOL_JOBS.fetch_add(1, Ordering::Relaxed);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.queue.push_back(QueuedJob {
            id,
            handle,
            tickets,
        });
        drop(inner);
        self.work.notify_all();
        id
    }

    /// Removes the job from the queue so no further helper can join. Helpers
    /// register with the pool lock held, so after this returns the job's
    /// [`DoneGate`] count is final-or-decreasing and `wait_idle` is safe.
    fn retire(&self, id: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.queue.retain(|job| job.id != id);
    }

    fn worker_loop(&'static self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(pos) = inner.queue.iter().position(|job| job.tickets > 0) {
                // Injected worker death: unwind *before* consuming the job's
                // helper ticket, so the job is simply picked up by another
                // worker (or finished by its submitting thread). The unwind
                // is caught by the spawn wrapper, which revives the worker.
                if fault_fires(PoolFaultPoint::WorkerClaim) {
                    panic!("injected: pool worker death");
                }
                let handle = {
                    let job = &mut inner.queue[pos];
                    job.tickets -= 1;
                    job.handle
                };
                // Register while still holding the pool lock: `retire`
                // acquires the same lock, so a registration is never missed.
                unsafe { (*handle.gate).enter() };
                drop(inner);
                // SAFETY: the gate registration above keeps the job state
                // alive until `leave` below.
                unsafe { (handle.run)(handle.state) };
                unsafe { (*handle.gate).leave() };
                inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            } else {
                inner.idle += 1;
                inner = self.work.wait(inner).unwrap_or_else(|p| p.into_inner());
                inner.idle -= 1;
            }
        }
    }
}

/// The pool runs no background work, so this returns `true` at once.
// Kept only because `perfbench/src/serve.rs` calls it; remove both together.
#[doc(hidden)]
pub fn wait_background_idle(_timeout: std::time::Duration) -> bool {
    true
}

/// Number of persistent pool threads spawned so far in this process. Grows
/// on demand up to the largest helper count any job requested (capped) and
/// never shrinks; exposed for tests and diagnostics.
pub fn pool_thread_count() -> usize {
    pool()
        .inner
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .spawned
}

// ---------------------------------------------------------------------------
// par_map on top of the pool.
// ---------------------------------------------------------------------------

/// A `Vec` of once-written cells shared across the workers. Safety rests on
/// the index cursor: every index is claimed by exactly one worker, so no
/// cell is ever accessed from two threads.
struct Slots<T> {
    cells: Vec<UnsafeCell<Option<T>>>,
}

unsafe impl<T: Send> Sync for Slots<T> {}

/// The shared state of one in-flight map: the item/result slots, the claim
/// cursor and the first panic payload. Lives on the submitting thread's
/// stack; helpers reach it through the type-erased [`JobHandle`].
struct JobShared<'f, T, R, F> {
    items: Slots<T>,
    results: Slots<R>,
    f: &'f F,
    n: usize,
    cursor: AtomicUsize,
    panicked: AtomicBool,
    /// Set once any worker skips an item because `cancel` tripped; the
    /// submitter then discards the (partially filled) results.
    cancelled: AtomicBool,
    cancel: Option<&'f cancel::CancelToken>,
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Claims indices off the cursor until the job is exhausted (or a sibling
/// panicked), applying `f` and storing results in order. Runs on both the
/// submitting thread and any pool helpers.
unsafe fn run_job<T, R, F>(state: *const ())
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let job = &*(state as *const JobShared<'_, T, R, F>);
    loop {
        if job.panicked.load(Ordering::Relaxed) {
            break;
        }
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            break;
        }
        // A tripped cancel token drains the remaining indices without
        // running the closure: each skipped item is counted exactly once
        // (the cursor hands out every index exactly once) and the job is
        // flagged so the submitter returns `None` instead of partial output.
        if job.cancel.is_some_and(|t| t.is_cancelled()) {
            job.cancelled.store(true, Ordering::Relaxed);
            POOL_CANCELLED.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        // SAFETY: the cursor hands each index to exactly one worker, so this
        // cell is not accessed by any other thread.
        let item = (*job.items.cells[i].get())
            .take()
            .expect("each index is claimed once");
        POOL_ITEMS.fetch_add(1, Ordering::Relaxed);
        // `AssertUnwindSafe` is sound here: on panic the whole map is
        // abandoned and only the stored payload escapes. An injected item
        // fault panics inside the catch, so it follows the exact propagation
        // path of a genuine closure panic.
        match panic::catch_unwind(AssertUnwindSafe(|| {
            if fault_fires(PoolFaultPoint::JobItem) {
                panic!("injected: pool worker-job panic");
            }
            (job.f)(item)
        })) {
            Ok(out) => {
                // SAFETY: as above — this worker owns index `i`.
                *job.results.cells[i].get() = Some(out);
            }
            Err(e) => {
                let mut slot = job.payload.lock().unwrap_or_else(|p| p.into_inner());
                if slot.is_none() {
                    *slot = Some(e);
                }
                job.panicked.store(true, Ordering::Relaxed);
                break;
            }
        }
    }
}

/// Maps `f` over `items` in parallel on the persistent worker pool,
/// preserving order.
///
/// Falls back to a plain serial map when there is a single worker or at most
/// one item. `f` may be called from multiple threads concurrently.
///
/// ```
/// let squares = hexcute_parallel::par_map((0..64).collect::<Vec<u64>>(), |x| x * x);
/// assert_eq!(squares[7], 49);
/// assert_eq!(squares.len(), 64); // order and length are preserved
/// ```
///
/// # Panics
///
/// A panic inside `f` is caught, the remaining items are abandoned (sibling
/// workers stop at their next claim), and the *original* panic payload is
/// re-thrown on the calling thread once every worker has stopped — callers
/// see the message of the first closure panic, not a secondary error.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = worker_count().min(items.len().max(1));
    par_map_with_workers(items, f, workers)
}

/// [`par_map`] with an explicit worker count, bypassing `HEXCUTE_THREADS`.
/// Used by tests and benchmarks (the environment cannot be mutated safely
/// there) and by callers that already partitioned their budget. The calling
/// thread always participates, so `workers` counts it plus up to
/// `workers - 1` pool helpers.
pub fn par_map_with_workers<T, R, F>(items: Vec<T>, f: F, workers: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_inner(items, f, workers, None).expect("uncancellable maps always complete")
}

/// [`par_map_with_workers`] gated by a [`cancel::CancelToken`]: every worker
/// re-checks the token before claiming its next item, so a cancelled map
/// stops within one item's work per worker. Returns `None` — and counts the
/// skipped items in [`PoolStats::cancelled`] — when the token tripped before
/// all items ran; a token that trips only after the last item was claimed
/// still yields the complete `Some(results)`.
pub fn par_map_cancellable<T, R, F>(
    items: Vec<T>,
    f: F,
    workers: usize,
    token: &cancel::CancelToken,
) -> Option<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_inner(items, f, workers, Some(token))
}

/// The shared implementation of the [`par_map`] family. `None` (cancelled)
/// is only possible when a `token` was supplied.
fn par_map_inner<T, R, F>(
    items: Vec<T>,
    f: F,
    workers: usize,
    token: Option<&cancel::CancelToken>,
) -> Option<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        let n = items.len();
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.into_iter().enumerate() {
            if token.is_some_and(|t| t.is_cancelled()) {
                POOL_CANCELLED.fetch_add((n - i) as u64, Ordering::Relaxed);
                return None;
            }
            out.push(f(item));
        }
        return Some(out);
    }

    let n = items.len();
    let workers = workers.min(n);
    // Hand items out by index so results can be reassembled in order. The
    // cells are lock-free on purpose: a `Mutex` per slot would be poisoned by
    // a panicking closure, killing sibling workers with a `PoisonError` that
    // buries the original panic.
    let job = JobShared {
        items: Slots {
            cells: items
                .into_iter()
                .map(|t| UnsafeCell::new(Some(t)))
                .collect(),
        },
        results: Slots::<R> {
            cells: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        },
        f: &f,
        n,
        cursor: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        cancelled: AtomicBool::new(false),
        cancel: token,
        payload: Mutex::new(None),
    };
    let gate = DoneGate::new();
    let handle = JobHandle {
        state: (&job as *const JobShared<'_, T, R, F>).cast(),
        run: run_job::<T, R, F>,
        gate: &gate,
    };
    let id = pool().submit(handle, workers - 1);
    // The submitting thread participates in its own job: nested maps issued
    // from inside a pool worker make progress even with zero free helpers.
    unsafe { run_job::<T, R, F>(handle.state) };
    pool().retire(id);
    gate.wait_idle();

    let first_panic = job.payload.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(e) = first_panic {
        panic::resume_unwind(e);
    }
    if job.cancelled.load(Ordering::Relaxed) {
        return None;
    }
    Some(
        job.results
            .cells
            .into_iter()
            .map(|cell| cell.into_inner().expect("worker filled every slot"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let out = par_map((0..1000).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_order_with_explicit_workers() {
        let out = par_map_with_workers((0..1000).collect::<Vec<_>>(), |x| x * 2, 4);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        assert_eq!(par_map(Vec::<usize>::new(), |x| x), Vec::<usize>::new());
        assert_eq!(par_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn balances_uneven_work() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_map(items, |x| {
            if x % 16 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_respects_env_override() {
        // Can't set env vars safely in parallel tests; just sanity-check the
        // default path returns at least one worker.
        assert!(worker_count() >= 1);
    }

    #[test]
    fn parse_threads_edge_cases() {
        assert_eq!(parse_threads(None), ThreadsSpec::Unset);
        assert_eq!(parse_threads(Some("4")), ThreadsSpec::Count(4));
        assert_eq!(parse_threads(Some(" 8 ")), ThreadsSpec::Count(8));
        assert_eq!(parse_threads(Some("1")), ThreadsSpec::Count(1));
        // `0` documents "auto": use the machine's parallelism (it used to be
        // silently clamped to one worker).
        assert_eq!(parse_threads(Some("0")), ThreadsSpec::Auto);
        // Unparsable values are rejected (and warned about once at runtime)
        // instead of silently falling back.
        assert_eq!(parse_threads(Some("0x4")), ThreadsSpec::Invalid);
        assert_eq!(parse_threads(Some("")), ThreadsSpec::Invalid);
        assert_eq!(parse_threads(Some("  ")), ThreadsSpec::Invalid);
        assert_eq!(parse_threads(Some("-2")), ThreadsSpec::Invalid);
        assert_eq!(parse_threads(Some("two")), ThreadsSpec::Invalid);
        assert_eq!(parse_threads(Some("4.0")), ThreadsSpec::Invalid);
    }

    #[test]
    fn panicking_closure_surfaces_its_own_message() {
        let result = panic::catch_unwind(|| {
            par_map_with_workers(
                (0..64).collect::<Vec<usize>>(),
                |x| {
                    if x == 13 {
                        panic!("boom at item {x}");
                    }
                    x
                },
                4,
            )
        });
        let payload = result.expect_err("the map must propagate the panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string");
        assert!(
            message.contains("boom at item 13"),
            "original panic message was buried: {message:?}"
        );
    }

    #[test]
    fn serial_path_panics_propagate_too() {
        let result = panic::catch_unwind(|| {
            par_map_with_workers(vec![1usize], |_| -> usize { panic!("serial boom") }, 1)
        });
        let payload = result.expect_err("serial path must propagate the panic");
        assert!(payload
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("serial boom")));
    }

    #[test]
    fn pool_survives_a_panicking_job_and_keeps_working() {
        // A panicking closure must not kill pool threads: the panic is caught
        // inside the claim loop, so the same workers serve the next map.
        let _ = panic::catch_unwind(|| {
            par_map_with_workers(
                (0..32).collect::<Vec<usize>>(),
                |_| -> usize { panic!("x") },
                4,
            )
        });
        let out = par_map_with_workers((0..256).collect::<Vec<_>>(), |x| x + 1, 4);
        assert_eq!(out, (1..=256).collect::<Vec<_>>());
    }

    #[test]
    fn results_before_a_panic_are_not_observable_but_map_aborts_quickly() {
        // After a panic the cursor stops being advanced by the panicking
        // worker; siblings drain at most their in-flight item. This test just
        // checks the call returns (no deadlock) and panics.
        let hits = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_with_workers(
                (0..1024).collect::<Vec<usize>>(),
                |x| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    if x == 0 {
                        panic!("early abort");
                    }
                    x
                },
                4,
            )
        }));
        assert!(result.is_err());
        assert!(hits.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn nested_maps_make_progress() {
        // A map issued from inside a pool worker must not deadlock even when
        // the pool is saturated: the inner submitter participates itself.
        let out = par_map_with_workers(
            (0..8).collect::<Vec<usize>>(),
            |x| {
                par_map_with_workers((0..8).collect::<Vec<usize>>(), move |y| x * 8 + y, 4)
                    .into_iter()
                    .sum::<usize>()
            },
            4,
        );
        let expect: Vec<usize> = (0..8)
            .map(|x| (0..8).map(|y| x * 8 + y).sum::<usize>())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn uneven_workers_larger_than_items_are_clamped() {
        let out = par_map_with_workers((0..3).collect::<Vec<_>>(), |x| x * x, 64);
        assert_eq!(out, vec![0, 1, 4]);
    }

    #[test]
    fn pool_stats_count_jobs_and_items() {
        let before = pool_stats();
        let _ = par_map_with_workers((0..128).collect::<Vec<_>>(), |x| x + 1, 4);
        let after = pool_stats();
        assert!(after.jobs > before.jobs, "{before:?} -> {after:?}");
        assert!(after.items >= before.items + 128, "{before:?} -> {after:?}");
    }

    #[test]
    fn injected_worker_deaths_are_survived_and_counted() {
        // Kill the first few workers that try to claim a job: the map must
        // still complete correctly (the submitter participates, surviving
        // workers pick up tickets) and the dead workers must be revived.
        // `WorkerClaim` faults never corrupt results, so the process-global
        // hook is safe even with sibling tests mapping concurrently.
        let budget = AtomicUsize::new(3);
        let budget = Arc::new(budget);
        let b = budget.clone();
        set_pool_fault_hook(Some(Arc::new(move |point| {
            point == PoolFaultPoint::WorkerClaim
                && b.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
        })));
        let before = pool_stats();
        let out = par_map_with_workers((0..256).collect::<Vec<_>>(), |x| x * 2, 4);
        set_pool_fault_hook(None);
        assert_eq!(out, (0..256).map(|x| x * 2).collect::<Vec<_>>());
        // The dead worker's respawn bookkeeping runs on its own thread, so
        // give it a moment to be scheduled before reading the counters.
        let injected = 3 - budget.load(Ordering::Relaxed);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let after = loop {
            let s = pool_stats();
            if (s.deaths >= before.deaths + injected as u64 && s.respawns == s.deaths)
                || std::time::Instant::now() > deadline
            {
                break s;
            }
            std::thread::yield_now();
        };
        assert!(
            after.deaths >= before.deaths + injected as u64,
            "deaths not counted: {before:?} -> {after:?} ({injected} injected)"
        );
        assert_eq!(after.deaths, after.respawns, "every death must respawn");
        // The revived workers keep serving jobs.
        let again = par_map_with_workers((0..64).collect::<Vec<_>>(), |x| x + 7, 4);
        assert_eq!(again, (0..64).map(|x| x + 7).collect::<Vec<_>>());
    }

    #[test]
    fn no_hook_means_no_injection() {
        assert!(!fault_fires(PoolFaultPoint::JobItem));
        assert!(!fault_fires(PoolFaultPoint::WorkerClaim));
    }

    #[test]
    fn uncancelled_token_completes_like_a_plain_map() {
        let token = cancel::CancelToken::new();
        let out = par_map_cancellable((0..128).collect::<Vec<_>>(), |x| x * 3, 4, &token);
        assert_eq!(out, Some((0..128).map(|x| x * 3).collect::<Vec<_>>()));
        let serial = par_map_cancellable((0..128).collect::<Vec<_>>(), |x| x * 3, 1, &token);
        assert_eq!(serial, out);
    }

    #[test]
    fn pre_cancelled_token_skips_everything_and_counts() {
        let token = cancel::CancelToken::new();
        token.cancel(cancel::CancelReason::Shutdown);
        for workers in [1, 4] {
            let before = pool_stats().cancelled;
            let ran = AtomicUsize::new(0);
            let out = par_map_cancellable(
                (0..64).collect::<Vec<usize>>(),
                |x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    x
                },
                workers,
                &token,
            );
            assert_eq!(out, None, "{workers} workers");
            assert_eq!(ran.load(Ordering::Relaxed), 0, "{workers} workers");
            assert!(
                pool_stats().cancelled >= before + 64,
                "skipped items must be counted ({workers} workers)"
            );
        }
    }

    #[test]
    fn mid_flight_cancel_stops_within_the_poll_bound() {
        // Cancel from inside the closure: every worker stops at its next
        // claim, so far fewer than all items run.
        let token = cancel::CancelToken::new();
        let ran = AtomicUsize::new(0);
        let out = par_map_cancellable(
            (0..4096).collect::<Vec<usize>>(),
            |x| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    token.cancel(cancel::CancelReason::Deadline);
                }
                x
            },
            4,
            &token,
        );
        assert_eq!(out, None);
        let executed = ran.load(Ordering::Relaxed);
        assert!(executed >= 1);
        assert!(
            executed < 4096,
            "cancellation must abort the map early, ran {executed} items"
        );
    }
}
