//! Measurement harness: runs a workload fused and unfused and reports the
//! paper's four metrics.
//!
//! Built on the Engine API: an [`Experiment`] holds a [`Compiled`]
//! workload and builds one immutable [`Engine`] per configuration
//! (fused, unfused, ablation cutoffs) — compile, fusion and (on the VM
//! tier) bytecode lowering run once per engine, then every measured run
//! is just a [`Session`](grafter_engine::Session). Experiments run on the
//! instrumented interpreter with the math pures; the VM differential
//! suite moves one to the `grafter-vm` bytecode VM with
//! [`Experiment::with_backend`]. [`batch_throughput`] measures the
//! concurrent story: one shared engine fanning a batch of trees across
//! worker threads.

use std::time::{Duration, Instant};

use grafter::pipeline::Compiled;
use grafter::FuseOptions;
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{BatchOptions, Engine};
pub use grafter_runtime::RUN_STACK;
use grafter_runtime::{with_stack, Heap, NodeId, Value};
use grafter_vm::Backend;

/// The metrics of one run, mirroring the paper's measured quantities.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Traversal-function calls on nodes.
    pub visits: u64,
    /// Abstract instructions executed.
    pub instructions: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 misses.
    pub l3_misses: u64,
    /// Modelled runtime in cycles (instructions + memory stalls).
    pub cycles: u64,
    /// Wall-clock time of the interpreter run.
    pub wall: Duration,
    /// Live tree size in bytes (before the run).
    pub tree_bytes: u64,
}

/// Fused-over-unfused normalisation of every metric (the y-axis of the
/// paper's figures; < 1.0 means fusion wins).
#[derive(Clone, Debug)]
pub struct Normalized {
    pub visits: f64,
    pub instructions: f64,
    pub l2_misses: f64,
    pub l3_misses: f64,
    pub runtime: f64,
}

/// A fused/unfused pair of runs on identical input.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub fused: RunStats,
    pub unfused: RunStats,
}

impl Comparison {
    /// Normalised metrics (fused / unfused).
    pub fn normalized(&self) -> Normalized {
        let ratio = |a: u64, b: u64| {
            if b == 0 {
                1.0
            } else {
                a as f64 / b as f64
            }
        };
        Normalized {
            visits: ratio(self.fused.visits, self.unfused.visits),
            instructions: ratio(self.fused.instructions, self.unfused.instructions),
            l2_misses: ratio(self.fused.l2_misses, self.unfused.l2_misses),
            l3_misses: ratio(self.fused.l3_misses, self.unfused.l3_misses),
            runtime: ratio(self.fused.cycles, self.unfused.cycles),
        }
    }
}

/// A self-contained experiment: a compiled workload, an entry sequence and
/// an input builder. `Send + 'static` so runs can move to a big-stack
/// worker thread.
pub struct Experiment {
    /// The workload, compiled through the pipeline's frontend stage.
    pub compiled: Compiled,
    /// Root class of the entry sequence.
    pub root_class: &'static str,
    /// Entry traversal names, in invocation order.
    pub passes: Vec<&'static str>,
    /// Per-traversal entry arguments.
    pub args: Vec<Vec<Value>>,
    /// Builds the input tree.
    pub build: Box<dyn Fn(&mut Heap) -> NodeId + Send + Sync>,
    /// Which execution tier runs the experiment (default: interpreter).
    backend: Backend,
}

impl Experiment {
    /// Creates an experiment with no arguments, run on the interpreter
    /// with the default math pures.
    pub fn new(
        compiled: Compiled,
        root_class: &'static str,
        passes: &[&'static str],
        build: impl Fn(&mut Heap) -> NodeId + Send + Sync + 'static,
    ) -> Self {
        Experiment {
            compiled,
            root_class,
            passes: passes.to_vec(),
            args: Vec::new(),
            build: Box::new(build),
            backend: Backend::default(),
        }
    }

    /// Selects the execution backend for every run of this experiment.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Builds the immutable engine for this experiment's entry sequence:
    /// the compile-once step every subsequent session shares.
    pub fn engine_with(&self, opts: &FuseOptions) -> Engine {
        Engine::builder()
            .compiled(self.compiled.clone())
            .entry(self.root_class, &self.passes)
            .fusion(opts.clone())
            .backend(self.backend)
            .args(self.args.clone())
            .build()
            .expect("experiment entry sequence resolves")
    }

    /// [`Experiment::engine_with`] with default (fused) options.
    pub fn engine(&self) -> Engine {
        self.engine_with(&FuseOptions::default())
    }

    /// Runs one configuration with the cache simulator attached.
    pub fn run_stats(&self, engine: &Engine) -> RunStats {
        // Sessions own the heap; attaching the hierarchy here keeps the
        // engine reusable for uninstrumented (wall-clock) runs.
        let mut session = engine.session().with_cache(CacheHierarchy::xeon());
        let root = (self.build)(session.heap_mut());
        let tree_bytes = session.heap().live_bytes();
        let report = session.run(root).expect("run succeeds");
        let cache = report.cache.as_ref().expect("cache attached");
        RunStats {
            visits: report.metrics.visits,
            instructions: report.metrics.instructions,
            l1_misses: cache.misses(0),
            l2_misses: cache.misses(1),
            l3_misses: cache.misses(2),
            cycles: report.cycles(),
            wall: report.wall,
            tree_bytes,
        }
    }

    /// Runs the experiment fused and unfused on identical inputs, on a
    /// dedicated large-stack thread.
    pub fn compare(self) -> Comparison {
        self.compare_with(FuseOptions::default())
    }

    /// Like [`Experiment::compare`] but with custom fused options (used for
    /// cutoff ablations).
    pub fn compare_with(self, opts: FuseOptions) -> Comparison {
        with_stack(RUN_STACK, move || {
            let fused = self.engine_with(&opts);
            let unfused = self.engine_with(&FuseOptions::unfused());
            Comparison {
                fused: self.run_stats(&fused),
                unfused: self.run_stats(&unfused),
            }
        })
    }

    /// Differential check: fused and unfused runs must leave identical
    /// trees. Returns the two snapshots' equality.
    pub fn check_equivalence(self) -> bool {
        with_stack(RUN_STACK, move || {
            let snap = |engine: &Engine| {
                let mut session = engine.session();
                let root = (self.build)(session.heap_mut());
                session.run(root).expect("run succeeds");
                session.snapshot(root)
            };
            snap(&self.engine_with(&FuseOptions::default()))
                == snap(&self.engine_with(&FuseOptions::unfused()))
        })
    }
}

/// One batch-throughput measurement: `trees` identical inputs fanned out
/// over `workers` threads sharing one engine.
#[derive(Clone, Debug)]
pub struct Throughput {
    /// Worker threads used.
    pub workers: usize,
    /// Number of trees executed.
    pub trees: usize,
    /// Wall-clock of the whole batch.
    pub wall: Duration,
}

impl Throughput {
    /// Executed trees per second of batch wall time.
    pub fn trees_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.trees as f64 / secs
        }
    }
}

/// Measures batch throughput of `engine`: builds `trees` inputs with
/// `build` and times one [`Engine::run_batch_with`] fan-out across
/// `workers` threads (each with an experiment-sized stack).
///
/// The reports themselves are cross-checked for determinism — every tree
/// is identical, so every report must be too.
pub fn batch_throughput(
    engine: &Engine,
    build: &(dyn Fn(&mut Heap) -> NodeId + Sync),
    trees: usize,
    workers: usize,
) -> Throughput {
    let inputs: Vec<_> = (0..trees).map(|_| |heap: &mut Heap| build(heap)).collect();
    let start = Instant::now();
    let reports = engine
        .run_batch_with(inputs, &BatchOptions::with_workers(workers))
        .expect("batch succeeds");
    let wall = start.elapsed();
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "identical inputs must produce identical reports"
    );
    Throughput {
        workers,
        trees,
        wall,
    }
}
