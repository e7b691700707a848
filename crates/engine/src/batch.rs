//! Deterministic batch fan-out over the persistent worker pool.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use grafter::{Diag, Error, Stage};
use grafter_obs::{BatchTrace, WorkerStats};
use grafter_runtime::{Heap, NodeId};

use crate::engine::Engine;
use crate::pool;
use crate::report::Report;
use crate::session::Session;

/// Tuning for [`Engine::run_batch_with`].
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Number of worker threads (clamped to at least 1 and at most the
    /// number of inputs). Default: the machine's available parallelism.
    pub workers: usize,
    /// Stack size per worker thread. Traversals recurse once per tree
    /// level, so deep trees (long sibling chains) need large stacks; the
    /// default of 256 MiB of *reserved* (not committed) stack covers the
    /// paper's workloads at benchmark sizes. Requests up to 2 GiB run on
    /// the persistent pool; anything larger falls back to dedicated
    /// per-call threads.
    pub stack_bytes: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: thread::available_parallelism().map_or(4, usize::from),
            stack_bytes: 256 << 20,
        }
    }
}

impl BatchOptions {
    /// Options with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        BatchOptions {
            workers,
            ..BatchOptions::default()
        }
    }
}

/// Where a finished input's result goes.
enum Deposit<'a> {
    /// Positional result slots (the collect-everything API).
    Slots(&'a [Mutex<Option<Result<Report, Error>>>]),
    /// Bounded in-order stream (the serving API).
    Stream(&'a StreamBuf),
}

/// The bounded reorder buffer behind [`Engine::run_batch_streamed`].
///
/// Workers deposit result `i` only once `i` is within `window` of the
/// next index the consumer will emit; the consumer drains strictly in
/// input order. Deadlock-free for any `window >= 1`: inputs are claimed
/// in ascending order, so the worker holding the next-to-emit index is
/// never the one made to wait.
struct StreamBuf {
    state: Mutex<StreamState>,
    /// Signals workers blocked on the window (consumer advanced).
    space: Condvar,
    /// Signals the consumer (a result landed).
    ready: Condvar,
    window: usize,
}

struct StreamState {
    buf: Vec<Option<Result<Report, Error>>>,
    next_emit: usize,
}

impl StreamBuf {
    fn new(n: usize, window: usize) -> StreamBuf {
        StreamBuf {
            state: Mutex::new(StreamState {
                buf: (0..n).map(|_| None).collect(),
                next_emit: 0,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            window: window.max(1),
        }
    }

    /// Called by workers: blocks while `i` is outside the emit window
    /// (backpressure), then parks the result for the consumer.
    fn deposit(&self, i: usize, result: Result<Report, Error>) {
        let mut state = self.state.lock().expect("stream lock");
        while i >= state.next_emit + self.window {
            state = self.space.wait(state).expect("stream wait");
        }
        state.buf[i] = Some(result);
        self.ready.notify_all();
    }

    /// Called by the consumer: blocks until result `i == next_emit` is
    /// available, takes it, and opens the window one slot further.
    fn take_next(&self) -> (usize, Result<Report, Error>) {
        let mut state = self.state.lock().expect("stream lock");
        loop {
            let i = state.next_emit;
            if let Some(result) = state.buf[i].take() {
                state.next_emit += 1;
                self.space.notify_all();
                return (i, result);
            }
            state = self.ready.wait(state).expect("stream wait");
        }
    }
}

/// Everything one batch's workers share, borrowed from the submitting
/// call's stack frame (the pool latch guarantees the frame outlives all
/// accesses).
struct BatchCtx<'a, F> {
    engine: &'a Engine,
    slots: &'a [Mutex<Option<F>>],
    deposit: Deposit<'a>,
    next: &'a AtomicUsize,
    n: usize,
    probing: bool,
    stats: &'a Mutex<Vec<WorkerStats>>,
    /// Batch-local worker index sequence (for telemetry labels).
    seq: &'a AtomicUsize,
}

/// Converts a caught panic payload into the typed runtime error the
/// panicking input's client receives.
fn panic_error(engine: &Engine, payload: &(dyn Any + Send)) -> Error {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    Error::from_diag(
        Diag::error_global(Stage::Runtime, format!("worker panicked: {msg}")),
        &engine.src,
    )
}

/// One worker's participation in a batch: claim inputs off the shared
/// counter until none remain. Runs on pool threads and (in the fallback
/// path) on dedicated scoped threads — the body is identical.
fn batch_worker<F>(ctx: &BatchCtx<'_, F>)
where
    F: FnOnce(&mut Heap) -> NodeId + Send,
{
    // The session is created lazily (a worker that finds the batch
    // already drained opens no heap at all) over a pooled arena, and
    // reset between inputs — observationally identical to a fresh heap
    // per input but allocation-free at steady state.
    let mut session: Option<Session<'_>> = None;
    let started = Instant::now();
    let (mut done, mut resets, mut busy) = (0u64, 0u64, Duration::ZERO);
    loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.n {
            break;
        }
        let build = ctx.slots[i]
            .lock()
            .expect("input slot lock")
            .take()
            .expect("each input is claimed once");
        let t = ctx.probing.then(Instant::now);
        let session_ref =
            session.get_or_insert_with(|| ctx.engine.session_on(pool::take_heap(ctx.engine)));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            session_ref.reset();
            let root = session_ref.build_tree(build);
            session_ref.run(root)
        }));
        let result = match outcome {
            Ok(result) => result,
            Err(payload) => {
                // The panic poisons only this pooled session: drop it
                // (its heap is *not* returned to the arena cache) and
                // serve the next input from a fresh one. The pool, the
                // batch, and the other inputs are unaffected.
                session = None;
                // `&*`: downcast the payload itself, not the `Box` (which
                // is also `Any` and would always miss).
                Err(panic_error(ctx.engine, &*payload))
            }
        };
        match &ctx.deposit {
            Deposit::Slots(results) => {
                *results[i].lock().expect("result slot lock") = Some(result);
            }
            Deposit::Stream(stream) => stream.deposit(i, result),
        }
        if let Some(t) = t {
            busy += t.elapsed();
            done += 1;
            resets += 1;
        }
    }
    if let Some(session) = session.take() {
        pool::stash_heap(session.into_heap());
    }
    if ctx.probing {
        ctx.stats
            .lock()
            .expect("worker stats lock")
            .push(WorkerStats {
                worker: ctx.seq.fetch_add(1, Ordering::Relaxed),
                inputs: done,
                resets,
                busy,
                idle: started.elapsed().saturating_sub(busy),
            });
    }
}

/// The type-erased pool entry point for a batch over builders of type `F`.
///
/// # Safety
///
/// `ctx` must point at a live `BatchCtx<'_, F>`; the submitter guarantees
/// this by blocking on the pool latch before the context's frame unwinds.
unsafe fn batch_job<F>(ctx: *const ())
where
    F: FnOnce(&mut Heap) -> NodeId + Send,
{
    let ctx = unsafe { &*(ctx as *const BatchCtx<'_, F>) };
    batch_worker(ctx);
}

impl Engine {
    /// Runs one session per input, fanned out across the persistent
    /// worker pool, and returns the reports **in input order** —
    /// bit-identical to running the same inputs sequentially, whatever
    /// the thread interleaving.
    ///
    /// Each input is a tree builder invoked on an empty session heap; the
    /// session then executes the engine's program on the root it returns.
    /// Workers pool one session (one heap arena) each and
    /// [`Session::reset`](crate::Session::reset) it between inputs, which
    /// is observationally identical to a fresh heap per input — same
    /// simulated addresses, metrics and cache traffic — but allocation-free
    /// at steady state. Sessions inherit the engine's pures, entry
    /// arguments and cache prototype.
    ///
    /// Worker threads are pooled process-wide and persist across calls
    /// (see [`pool_stats`](crate::pool_stats)): after warm-up, batches
    /// spawn zero threads.
    ///
    /// # Errors
    ///
    /// Returns the first failing input's [`Error`] (by input order, not
    /// completion order). Use [`Engine::try_run_batch`] to keep per-input
    /// results.
    pub fn run_batch<F>(&self, inputs: Vec<F>) -> Result<Vec<Report>, Error>
    where
        F: FnOnce(&mut Heap) -> NodeId + Send,
    {
        self.run_batch_with(inputs, &BatchOptions::default())
    }

    /// [`Engine::run_batch`] with explicit worker count and stack size.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_batch`].
    pub fn run_batch_with<F>(
        &self,
        inputs: Vec<F>,
        opts: &BatchOptions,
    ) -> Result<Vec<Report>, Error>
    where
        F: FnOnce(&mut Heap) -> NodeId + Send,
    {
        self.try_run_batch(inputs, opts).into_iter().collect()
    }

    /// Like [`Engine::run_batch_with`] but keeps every input's result, so
    /// one failing request doesn't discard the rest of the batch. An
    /// input whose builder or traversal *panics* (rather than erroring)
    /// yields a typed [`Stage::Runtime`] error for that input only; the
    /// panicking worker's pooled session is discarded and rebuilt fresh.
    pub fn try_run_batch<F>(
        &self,
        inputs: Vec<F>,
        opts: &BatchOptions,
    ) -> Vec<Result<Report, Error>>
    where
        F: FnOnce(&mut Heap) -> NodeId + Send,
    {
        let n = inputs.len();
        // Guard before the worker clamp below: `clamp(1, n)` requires
        // `1 <= n` and would panic on an empty batch.
        if n == 0 {
            return Vec::new();
        }
        // Slot i holds input i, then result i: ordering is positional, so
        // the output is deterministic regardless of which worker runs what.
        let slots: Vec<Mutex<Option<F>>> =
            inputs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let results: Vec<Mutex<Option<Result<Report, Error>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let workers = opts.workers.clamp(1, n);
        // Batch telemetry exists only when the engine has a probe: the
        // unprobed fan-out takes no timestamps at all.
        let batch_start = Instant::now();
        let stats = Mutex::new(Vec::new());
        let ctx = BatchCtx {
            engine: self,
            slots: &slots,
            deposit: Deposit::Slots(&results),
            next: &AtomicUsize::new(0),
            n,
            probing: self.probe.is_some(),
            stats: &stats,
            seq: &AtomicUsize::new(0),
        };

        self.fan_out(&ctx, workers, opts, None);

        if let Some(probe) = &self.probe {
            probe.on_batch(&BatchTrace {
                workers: stats.into_inner().expect("worker stats lock"),
                wall: batch_start.elapsed(),
            });
        }

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock")
                    .expect("every input slot was filled")
            })
            .collect()
    }

    /// Streams batch results to `sink` **in input order** with bounded
    /// buffering: at most `window` finished-but-unemitted results exist
    /// at any time, and workers producing ahead of the consumer block
    /// (backpressure) rather than buffer — what a serving layer needs to
    /// relay a large batch to a slow client in constant memory.
    ///
    /// `sink` runs on the calling thread. Results are exactly those
    /// [`Engine::try_run_batch`] would produce, including per-input
    /// panics surfacing as typed [`Stage::Runtime`] errors.
    pub fn run_batch_streamed<F>(
        &self,
        inputs: Vec<F>,
        opts: &BatchOptions,
        window: usize,
        mut sink: impl FnMut(usize, Result<Report, Error>),
    ) where
        F: FnOnce(&mut Heap) -> NodeId + Send,
    {
        let n = inputs.len();
        if n == 0 {
            return;
        }
        let slots: Vec<Mutex<Option<F>>> =
            inputs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let workers = opts.workers.clamp(1, n);
        let batch_start = Instant::now();
        let stats = Mutex::new(Vec::new());
        let stream = StreamBuf::new(n, window);
        let ctx = BatchCtx {
            engine: self,
            slots: &slots,
            deposit: Deposit::Stream(&stream),
            next: &AtomicUsize::new(0),
            n,
            probing: self.probe.is_some(),
            stats: &stats,
            seq: &AtomicUsize::new(0),
        };

        // The calling thread is the stream's consumer, so every worker
        // (pooled or dedicated) produces into the window while we drain;
        // the fan-out call returns once all workers finished, i.e. after
        // the drain has emitted everything.
        self.fan_out(
            &ctx,
            workers,
            opts,
            Some(&mut |stream: &StreamBuf| {
                for _ in 0..n {
                    let (i, result) = stream.take_next();
                    sink(i, result);
                }
            }),
        );

        if let Some(probe) = &self.probe {
            probe.on_batch(&BatchTrace {
                workers: stats.into_inner().expect("worker stats lock"),
                wall: batch_start.elapsed(),
            });
        }
    }

    /// Executes one batch's workers — on the persistent pool when the
    /// requested stack fits and we are not already on a pool thread
    /// (which would deadlock the pool on itself), on dedicated scoped
    /// threads otherwise. `drain`, when present, runs on the calling
    /// thread while workers produce (the streaming consumer).
    fn fan_out<F>(
        &self,
        ctx: &BatchCtx<'_, F>,
        workers: usize,
        opts: &BatchOptions,
        drain: Option<&mut dyn FnMut(&StreamBuf)>,
    ) where
        F: FnOnce(&mut Heap) -> NodeId + Send,
    {
        let pooled = opts.stack_bytes <= pool::POOL_STACK && !pool::on_pool_worker();
        if pooled {
            let pool = pool::pool();
            pool.ensure_threads(workers);
            let latch = pool.submit(
                workers,
                batch_job::<F>,
                ctx as *const BatchCtx<'_, F> as *const (),
            );
            if let (Some(drain), Deposit::Stream(stream)) = (drain, &ctx.deposit) {
                drain(stream);
            }
            // Blocking here is what makes the borrowed `ctx` sound: no
            // job handle can touch it after the latch opens.
            latch.wait();
        } else {
            thread::scope(|scope| {
                for _ in 0..workers {
                    thread::Builder::new()
                        .stack_size(opts.stack_bytes)
                        .spawn_scoped(scope, || batch_worker(ctx))
                        .expect("spawn batch worker thread");
                }
                if let (Some(drain), Deposit::Stream(stream)) = (drain, &ctx.deposit) {
                    drain(stream);
                }
            });
        }
    }
}
