//! The work-sharing thread pool behind the parallel iterators.
//!
//! One lazily started global pool serves the whole process. A parallel map
//! over `n` items is executed as **chunked index stealing**: the items are
//! split into contiguous chunks and an atomic cursor hands the next chunk to
//! whichever participant asks first, so fast workers automatically absorb
//! the slack of slow ones (a shard whose replicas solve early steals the
//! remaining shards' rows, a matmul row-block finishing early grabs the next
//! block). The caller always participates inline, so a pool of size `t`
//! uses the calling thread plus at most `t − 1` pool workers.
//!
//! Determinism: chunk results are stitched back together by start index, so
//! the output order equals sequential order regardless of which thread
//! computed what — scheduling never changes results.
//!
//! Panic policy: a panic in any chunk is caught, the remaining chunks are
//! abandoned, and the first payload is re-thrown on the calling thread once
//! every outstanding helper has retired (mirroring rayon's behaviour).
//!
//! Deadlock freedom under nesting: a caller that is itself a pool worker
//! (e.g. the pooled `t_matmul_into` of an OS-ELM initial training inside a
//! population shard) parks on a latch *while helping* — it keeps draining
//! the global queue until its own helpers have finished, so queued
//! sub-tasks can never starve behind the very task that is waiting for
//! them.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of work queued on the global pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared state of the global pool.
struct Pool {
    /// FIFO of pending jobs; workers and helping waiters pop from it.
    queue: Mutex<VecDeque<Job>>,
    /// Signalled whenever a job is pushed.
    job_ready: Condvar,
    /// How many worker threads have been spawned so far.
    spawned: Mutex<usize>,
}

/// Explicit thread-count override (0 = not set; resolve lazily).
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Upper bound on the pool size; matches real rayon's default cap ethos and
/// keeps a typo in `ELMRL_THREADS` from spawning thousands of threads.
const MAX_THREADS: usize = 256;

fn global_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        job_ready: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Set the pool size used by subsequent parallel calls. `1` forces the
/// fully sequential path (no pool involvement at all — the debugging mode
/// behind `--threads 1`). Unlike real rayon this may be called at any time;
/// already-spawned workers beyond the new size simply idle.
pub fn set_num_threads(threads: usize) {
    CONFIGURED_THREADS.store(threads.clamp(1, MAX_THREADS), Ordering::SeqCst);
}

/// The number of threads parallel calls currently target: the explicit
/// [`set_num_threads`] value if set, else `ELMRL_THREADS`, else the
/// machine's available parallelism. The environment fallback is resolved
/// once and cached — `std::env::var` heap-allocates, and per-update kernel
/// dispatch queries this on the allocation-free training hot path.
pub fn current_num_threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::SeqCst);
    if configured > 0 {
        return configured;
    }
    static FALLBACK: OnceLock<usize> = OnceLock::new();
    *FALLBACK.get_or_init(|| {
        if let Ok(v) = std::env::var("ELMRL_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n.min(MAX_THREADS);
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get().min(MAX_THREADS))
            .unwrap_or(1)
    })
}

/// Make sure at least `target` worker threads exist (the caller is not
/// counted — it participates inline).
fn ensure_workers(target: usize) {
    let pool = global_pool();
    let mut spawned = pool.spawned.lock().expect("pool spawn lock poisoned");
    while *spawned < target {
        let index = *spawned;
        std::thread::Builder::new()
            .name(format!("elmrl-pool-{index}"))
            .spawn(worker_main)
            .expect("failed to spawn pool worker");
        *spawned += 1;
    }
}

/// Worker thread body: block on the queue forever, running jobs as they
/// arrive. Jobs never unwind (every chunk body is `catch_unwind`-wrapped),
/// so a worker lives for the whole process.
fn worker_main() {
    let pool = global_pool();
    loop {
        let job = {
            let mut queue = pool.queue.lock().expect("pool queue lock poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = pool
                    .job_ready
                    .wait(queue)
                    .expect("pool queue lock poisoned");
            }
        };
        job();
    }
}

fn submit(job: Job) {
    let pool = global_pool();
    pool.queue
        .lock()
        .expect("pool queue lock poisoned")
        .push_back(job);
    pool.job_ready.notify_one();
}

fn try_pop() -> Option<Job> {
    global_pool()
        .queue
        .lock()
        .expect("pool queue lock poisoned")
        .pop_front()
}

/// One item slot, consumed by exactly one chunk owner.
///
/// SAFETY invariant: slot `i` is read only by the participant that won the
/// chunk containing `i` from the atomic cursor, so no two threads ever touch
/// the same cell; the latch in [`parallel_map_vec`] keeps the storage alive
/// until every participant has retired.
struct ItemSlots<I> {
    slots: Vec<UnsafeCell<Option<I>>>,
}

#[allow(unsafe_code)]
// SAFETY: per-slot exclusive access (see `ItemSlots` invariant) makes shared
// references across threads sound as long as the items themselves are Send.
unsafe impl<I: Send> Sync for ItemSlots<I> {}

impl<I> ItemSlots<I> {
    fn new(items: Vec<I>) -> Self {
        Self {
            slots: items
                .into_iter()
                .map(|i| UnsafeCell::new(Some(i)))
                .collect(),
        }
    }

    /// Take item `i`. Caller must own the chunk containing `i`.
    #[allow(unsafe_code)]
    fn take(&self, i: usize) -> I {
        // SAFETY: chunk ownership (atomic cursor) guarantees this cell is
        // accessed by exactly one thread, exactly once.
        unsafe { (*self.slots[i].get()).take().expect("item taken twice") }
    }
}

/// Everything one parallel map shares between its participants.
struct MapTask<I, R, F> {
    items: ItemSlots<I>,
    f: F,
    /// Next un-owned item index; `fetch_add(chunk)` claims a chunk.
    cursor: AtomicUsize,
    n: usize,
    chunk: usize,
    /// Completed chunks as `(start_index, results)`.
    results: Mutex<Vec<(usize, Vec<R>)>>,
    /// First panic payload observed in any chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    panicked: AtomicBool,
    /// Latch: helpers still running (the caller is not counted).
    pending: Mutex<usize>,
    all_done: Condvar,
}

impl<I: Send, R: Send, F: Fn(I) -> R + Sync> MapTask<I, R, F> {
    /// Steal chunks until the cursor is exhausted (or a panic aborts the
    /// map), computing each chunk's results locally before publishing them.
    fn work(&self) {
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                return;
            }
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            let end = (start + self.chunk).min(self.n);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut out = Vec::with_capacity(end - start);
                for i in start..end {
                    out.push((self.f)(self.items.take(i)));
                }
                out
            }));
            match outcome {
                Ok(chunk_results) => self
                    .results
                    .lock()
                    .expect("results lock poisoned")
                    .push((start, chunk_results)),
                Err(payload) => {
                    let mut slot = self.panic.lock().expect("panic lock poisoned");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    self.panicked.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// One helper retired.
    fn retire(&self) {
        let mut pending = self.pending.lock().expect("latch lock poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.all_done.notify_all();
        }
    }

    /// Block until every helper has retired, helping drain the global queue
    /// in the meantime (this is what keeps nested parallel calls live).
    fn wait_helping(&self) {
        loop {
            {
                let pending = self.pending.lock().expect("latch lock poisoned");
                if *pending == 0 {
                    return;
                }
            }
            if let Some(job) = try_pop() {
                job();
                continue;
            }
            let pending = self.pending.lock().expect("latch lock poisoned");
            if *pending == 0 {
                return;
            }
            // Timed wait: a job may land in the queue while we sleep, and
            // helping it along may be the only way our helpers get a turn.
            let _ = self
                .all_done
                .wait_timeout(pending, Duration::from_millis(1))
                .expect("latch lock poisoned");
        }
    }
}

/// Raw shared-task pointer that helper jobs smuggle across the `'static`
/// boundary of the job queue.
struct TaskPtr(*const ());

#[allow(unsafe_code)]
// SAFETY: the pointee is a `MapTask` whose fields are Send/Sync as bounded
// in `parallel_map_vec`; the latch guarantees the pointee outlives the job.
unsafe impl Send for TaskPtr {}

/// Map `f` over `items` on the pool, preserving input order in the output.
///
/// Sequential fast paths: a pool size of 1 (`--threads 1` /
/// `ELMRL_THREADS=1`) or fewer than two items never touch the pool, so the
/// debugging mode really is plain single-threaded execution.
pub(crate) fn parallel_map_vec<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Chunked index stealing: ~4 chunks per participant balances steal
    // traffic against tail latency; a chunk is never empty.
    let chunk = (n / (threads * 4)).max(1);
    let chunks = n.div_ceil(chunk);
    let participants = threads.min(chunks);
    let helpers = participants - 1;

    let task = MapTask {
        items: ItemSlots::new(items),
        f,
        cursor: AtomicUsize::new(0),
        n,
        chunk,
        results: Mutex::new(Vec::with_capacity(chunks)),
        panic: Mutex::new(None),
        panicked: AtomicBool::new(false),
        pending: Mutex::new(helpers),
        all_done: Condvar::new(),
    };

    if helpers > 0 {
        ensure_workers(helpers);
        for _ in 0..helpers {
            let ptr = TaskPtr(&task as *const MapTask<I, R, F> as *const ());
            submit(Box::new(move || {
                // Rebind the whole wrapper so the closure captures `TaskPtr`
                // (which is Send) instead of edition-2021 precise capture
                // grabbing its raw-pointer field (which is not).
                let ptr = ptr;
                let raw = ptr.0;
                #[allow(unsafe_code)]
                // SAFETY: `parallel_map_vec` does not return (and `task` is
                // not dropped) until `wait_helping` has observed this job's
                // `retire`, so the pointer is valid for the job's lifetime.
                // The cast round-trips through the exact same concrete type.
                let task = unsafe { &*(raw as *const MapTask<I, R, F>) };
                task.work();
                task.retire();
            }));
        }
    }

    // The caller is always a participant.
    task.work();
    task.wait_helping();

    if let Some(payload) = task.panic.lock().expect("panic lock poisoned").take() {
        std::panic::resume_unwind(payload);
    }

    let mut completed = task.results.into_inner().expect("results lock poisoned");
    completed.sort_unstable_by_key(|(start, _)| *start);
    debug_assert_eq!(completed.iter().map(|(_, c)| c.len()).sum::<usize>(), n);
    let mut out = Vec::with_capacity(n);
    for (_, chunk_results) in completed {
        out.extend(chunk_results);
    }
    out
}
