//! Deterministic batch fan-out on scoped threads.

use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use grafter::Error;
use grafter_obs::{BatchTrace, WorkerStats};
use grafter_runtime::{Heap, NodeId, RUN_STACK};

use crate::engine::Engine;
use crate::report::Report;

/// Tuning for [`Engine::run_batch_with`].
#[derive(Clone, Debug)]
pub struct BatchOptions {
    /// Number of worker threads (clamped to at least 1 and at most the
    /// number of inputs). Default: the machine's available parallelism.
    pub workers: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions::with_workers(thread::available_parallelism().map_or(4, usize::from))
    }
}

impl BatchOptions {
    /// Options with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        BatchOptions { workers }
    }
}

/// A batch's unclaimed inputs with their positions. Workers claim them in
/// ascending order, one at a time.
type Inputs<F> = Mutex<std::iter::Enumerate<std::vec::IntoIter<F>>>;

impl Engine {
    /// Runs one session per input, fanned out across worker threads, and
    /// returns the reports **in input order** — bit-identical to running
    /// the same inputs sequentially, whatever the thread interleaving.
    ///
    /// Each input is a tree builder invoked on an empty session heap; the
    /// session then executes the engine's program on the root it returns.
    /// Each worker opens one session (one heap arena) and
    /// [`Session::reset`](crate::Session::reset)s it between inputs, which
    /// is observationally identical to a fresh heap per input — same
    /// simulated addresses, metrics and cache traffic. Sessions inherit
    /// the engine's pures, entry arguments and cache prototype.
    ///
    /// The workers are scoped threads spawned for this call, each with a
    /// 2 GiB reserved stack for deep-tree recursion; an input may itself
    /// run a nested batch.
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

    /// [`Engine::run_batch`] with an explicit worker count.
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
    /// yields a typed [`Stage::Runtime`](grafter::Stage::Runtime) error for
    /// that input only (see [`Session::run_input`](crate::Session::run_input)).
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
        let inputs: Inputs<F> = Mutex::new(inputs.into_iter().enumerate());
        // Result i lands in slot i: ordering is positional, so the output
        // is deterministic regardless of which worker runs what.
        let results: Vec<Mutex<Option<Result<Report, Error>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let batch_start = Instant::now();
        let workers: Vec<WorkerStats> = thread::scope(|scope| {
            let handles: Vec<_> = (0..opts.workers.clamp(1, n))
                .map(|worker| {
                    let (inputs, results) = (&inputs, &results);
                    thread::Builder::new()
                        .stack_size(RUN_STACK)
                        .spawn_scoped(scope, move || self.batch_worker(worker, inputs, results))
                        .expect("spawn batch worker thread")
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("batch workers catch input panics"))
                .collect()
        });

        if let Some(probe) = &self.probe {
            probe.on_batch(&BatchTrace {
                workers,
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

    /// One worker's participation in a batch: claim inputs until none
    /// remain. Returns the worker's telemetry when the engine has a probe;
    /// the unprobed worker takes no timestamps per input.
    fn batch_worker<F>(
        &self,
        worker: usize,
        inputs: &Inputs<F>,
        results: &[Mutex<Option<Result<Report, Error>>>],
    ) -> Option<WorkerStats>
    where
        F: FnOnce(&mut Heap) -> NodeId,
    {
        let probing = self.probe.is_some();
        let started = Instant::now();
        // Opened on the first claim: a worker that finds the batch already
        // drained opens no heap at all.
        let mut session = None;
        let (mut done, mut busy) = (0u64, Duration::ZERO);
        // The closure drops the input lock before the input runs; a guard
        // in the `while let` scrutinee would live through the loop body.
        let claim = || inputs.lock().expect("batch input lock").next();
        while let Some((i, build)) = claim() {
            let t = probing.then(Instant::now);
            let result = session
                .get_or_insert_with(|| self.session())
                .run_input(build);
            *results[i].lock().expect("result slot lock") = Some(result);
            if let Some(t) = t {
                busy += t.elapsed();
                done += 1;
            }
        }
        probing.then(|| WorkerStats {
            worker,
            inputs: done,
            resets: done,
            busy,
            idle: started.elapsed().saturating_sub(busy),
        })
    }
}
