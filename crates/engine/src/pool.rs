//! The persistent, process-wide batch worker pool.
//!
//! [`Engine::run_batch`](crate::Engine::run_batch) originally spawned a
//! fresh set of `std::thread` workers per call — fine for one-shot CLI
//! runs, hostile to a long-running service where every request would pay
//! thread creation (and a 2 GiB stack reservation per worker). This
//! module replaces that with one process-wide pool of persistent worker
//! threads:
//!
//! - Threads are spawned lazily the first time a batch asks for them and
//!   never exit; the pool grows to the largest worker count any batch has
//!   requested and stays there. [`pool_stats`] exposes the spawn counter,
//!   so a service can assert that steady-state traffic creates **zero**
//!   new threads.
//! - Work distribution is by atomic claim (each participating worker
//!   steals the next unclaimed input index from the shared batch
//!   counter), so an idle worker drains whatever inputs remain regardless
//!   of which worker "owned" them — the same property a deque-based
//!   stealing scheduler provides, at a fraction of the machinery.
//! - Each worker thread keeps a small cache of heap arenas keyed by the
//!   program they are laid out for. A batch against an engine the worker
//!   has served before reuses the cached arena (reset, not reallocated),
//!   so steady state allocates nothing — the serving-path contract from
//!   PR 4, now across batch calls instead of only within one.
//!
//! Jobs carry a type-erased pointer into the submitting call's stack
//! frame; this is sound because the submitter always blocks on the job
//! latch before returning (the borrowed inputs outlive every access —
//! the same discipline `thread::scope` enforces, done manually so the
//! threads can outlive the scope).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use grafter_runtime::Heap;

use crate::engine::Engine;

/// Reserved (not committed) stack per pool worker. Traversals recurse
/// once per tree level, so this matches the largest stack any in-tree
/// batch caller asks for (the workload harness uses 2 GiB); batches
/// requesting more fall back to dedicated per-call threads.
pub(crate) const POOL_STACK: usize = 1 << 31;

/// Heap arenas cached per worker thread, keyed by program identity.
const HEAP_CACHE_CAP: usize = 4;

/// A telemetry snapshot of the process-wide batch worker pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads currently alive (the pool never shrinks).
    pub threads: u64,
    /// Worker threads ever spawned. Equal to `threads`; a service asserts
    /// steady-state requests leave this flat (zero per-request spawns).
    pub spawned_total: u64,
    /// Batch participation jobs executed since process start.
    pub jobs_executed: u64,
    /// Worker threads executing a job right now (gauge).
    pub busy: u64,
    /// Worker threads parked waiting for work right now (gauge;
    /// `threads - busy`).
    pub idle: u64,
}

/// Stats of the process-wide pool. Zero until the first pooled batch.
pub fn pool_stats() -> PoolStats {
    match POOL.get() {
        None => PoolStats::default(),
        Some(pool) => {
            let threads = pool.spawned_total.load(Ordering::Relaxed);
            let busy = pool.jobs_in_flight.load(Ordering::Relaxed).min(threads);
            PoolStats {
                threads,
                spawned_total: threads,
                jobs_executed: pool.jobs_executed.load(Ordering::Relaxed),
                busy,
                idle: threads - busy,
            }
        }
    }
}

/// A type-erased pointer into the submitting batch's stack frame. Safety
/// contract: the submitter blocks on the job's [`Latch`] before its frame
/// unwinds, so the pointee outlives every dereference.
struct SendPtr(*const ());
// SAFETY: the pointee is a `BatchCtx` whose fields are all `Sync`
// (shared slices of `Mutex`es and atomics); the pointer itself is only
// dereferenced while the submitting frame is alive (see `Latch`).
unsafe impl Send for SendPtr {}

/// Counts outstanding job handles of one batch; the submitter blocks on
/// it, which is what makes the borrowed-context jobs sound.
pub(crate) struct Latch {
    outstanding: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(n: usize) -> Arc<Latch> {
        Arc::new(Latch {
            outstanding: Mutex::new(n),
            cv: Condvar::new(),
        })
    }

    fn done(&self) {
        let mut left = self.outstanding.lock().expect("latch lock");
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    pub(crate) fn wait(&self) {
        let mut left = self.outstanding.lock().expect("latch lock");
        while *left > 0 {
            left = self.cv.wait(left).expect("latch wait");
        }
    }
}

/// One queued unit of batch participation: `run(ctx)` claims inputs from
/// the batch's shared counter until none remain.
struct Job {
    run: unsafe fn(*const ()),
    ctx: SendPtr,
    latch: Arc<Latch>,
}

struct PoolState {
    queue: VecDeque<Job>,
    threads: u64,
}

pub(crate) struct WorkerPool {
    state: Mutex<PoolState>,
    cv: Condvar,
    spawned_total: AtomicU64,
    jobs_executed: AtomicU64,
    /// Jobs executing on pool workers right now (busy gauge).
    jobs_in_flight: AtomicU64,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

thread_local! {
    /// Set inside pool worker threads; nested batch calls from a pool
    /// worker take the dedicated-thread path instead of blocking the pool
    /// on itself.
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Per-thread heap arenas kept warm between batches, matched to an
    /// engine by program identity.
    static HEAP_CACHE: RefCell<Vec<Heap>> = const { RefCell::new(Vec::new()) };
}

/// Whether the current thread is a pool worker (used to reroute nested
/// batch calls onto dedicated threads).
pub(crate) fn on_pool_worker() -> bool {
    IS_POOL_WORKER.with(Cell::get)
}

/// The process-wide pool, created on first use.
pub(crate) fn pool() -> &'static WorkerPool {
    POOL.get_or_init(|| WorkerPool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            threads: 0,
        }),
        cv: Condvar::new(),
        spawned_total: AtomicU64::new(0),
        jobs_executed: AtomicU64::new(0),
        jobs_in_flight: AtomicU64::new(0),
    })
}

/// A cached heap laid out for `engine`'s program, or a fresh one.
///
/// Identity is by program *allocation* (`&Program` address under the
/// engine's `Arc`): a heap holds its program `Arc` alive, so pointer
/// equality is stable and two engines share a heap only when they share
/// the program instance itself.
pub(crate) fn take_heap(engine: &Engine) -> Heap {
    HEAP_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        match cache
            .iter()
            .position(|h| std::ptr::eq(h.program(), engine.program()))
        {
            Some(i) => cache.swap_remove(i),
            None => engine.new_heap(),
        }
    })
}

/// Returns a heap to the current thread's cache (oldest evicted beyond
/// the cap). Heaps that saw a panic are dropped by the caller instead.
pub(crate) fn stash_heap(heap: Heap) {
    HEAP_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() >= HEAP_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(heap);
    });
}

impl WorkerPool {
    /// Grows the pool to at least `n` worker threads (never shrinks).
    pub(crate) fn ensure_threads(&'static self, n: usize) {
        let mut state = self.state.lock().expect("pool lock");
        while state.threads < n as u64 {
            state.threads += 1;
            self.spawned_total.fetch_add(1, Ordering::Relaxed);
            let id = state.threads;
            thread::Builder::new()
                .name(format!("grafter-pool-{id}"))
                .stack_size(POOL_STACK)
                .spawn(move || self.worker_loop())
                .expect("spawn pool worker thread");
        }
    }

    fn worker_loop(&'static self) {
        IS_POOL_WORKER.with(|flag| flag.set(true));
        loop {
            let job = {
                let mut state = self.state.lock().expect("pool lock");
                loop {
                    match state.queue.pop_front() {
                        Some(job) => break job,
                        None => state = self.cv.wait(state).expect("pool wait"),
                    }
                }
            };
            // Per-input panics are already caught inside the job; this
            // outer guard keeps anything that still unwinds (e.g. a
            // poisoned slot lock) from killing the pool thread, and
            // guarantees the latch is released either way.
            self.jobs_in_flight.fetch_add(1, Ordering::Relaxed);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: the submitter blocks on `job.latch` until this
                // handle calls `done()`, so the context outlives the call.
                unsafe { (job.run)(job.ctx.0) }
            }));
            self.jobs_in_flight.fetch_sub(1, Ordering::Relaxed);
            self.jobs_executed.fetch_add(1, Ordering::Relaxed);
            job.latch.done();
            drop(outcome);
        }
    }

    /// Enqueues `count` participation handles for one batch; every handle
    /// runs `run(ctx)`. Returns the latch the submitter must block on
    /// before letting `ctx`'s frame unwind.
    pub(crate) fn submit(
        &'static self,
        count: usize,
        run: unsafe fn(*const ()),
        ctx: *const (),
    ) -> Arc<Latch> {
        let latch = Latch::new(count);
        {
            let mut state = self.state.lock().expect("pool lock");
            for _ in 0..count {
                state.queue.push_back(Job {
                    run,
                    ctx: SendPtr(ctx),
                    latch: Arc::clone(&latch),
                });
            }
        }
        self.cv.notify_all();
        latch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn latch_blocks_until_all_handles_done() {
        let latch = Latch::new(2);
        latch.done();
        let l2 = Arc::clone(&latch);
        let t = thread::spawn(move || l2.done());
        latch.wait();
        t.join().unwrap();
    }

    #[test]
    fn pool_runs_submitted_jobs_and_counts_spawns() {
        let pool = pool();
        pool.ensure_threads(2);
        let before = pool_stats();
        assert!(before.spawned_total >= 2);

        static HITS: AtomicUsize = AtomicUsize::new(0);
        unsafe fn bump(_ctx: *const ()) {
            HITS.fetch_add(1, Ordering::SeqCst);
        }
        let latch = pool.submit(4, bump, std::ptr::null());
        latch.wait();
        assert_eq!(HITS.load(Ordering::SeqCst), 4);

        // Re-submitting spawns no new threads: the pool is persistent.
        let latch = pool.submit(4, bump, std::ptr::null());
        latch.wait();
        assert_eq!(pool_stats().spawned_total, before.spawned_total);
        assert!(pool_stats().jobs_executed >= 8);
    }
}
