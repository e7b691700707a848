//! Measurement harness and tier-parity harness.
//!
//! [`check_parity`] is the one differential test harness: it runs a
//! program on every execution tier, fused and unfused, asserts that every
//! run succeeds and that they all agree, and returns what they agreed on.
//! Its twin [`check_error_parity`] asserts instead that every run fails
//! with the same expected error. Every differential test suite goes
//! through one of the two.
//!
//! [`Experiment`] measures the paper's metrics: it holds a [`Compiled`]
//! workload and builds one immutable [`Engine`] per configuration
//! (fused, unfused, ablation cutoffs) — compile and fusion run once per
//! engine, then every measured run is just a
//! [`Session`] of the instrumented interpreter
//! with the math pures. [`batch_throughput`] measures the concurrent
//! story: one shared engine fanning a batch of trees across worker
//! threads.

use std::thread;
use std::time::{Duration, Instant};

use grafter::pipeline::Compiled;
use grafter::{Error, FuseOptions};
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Backend, BatchOptions, Engine, OptLevel, Report, Session};
pub use grafter_runtime::RUN_STACK;
use grafter_runtime::{with_stack, Heap, NodeId, SnapValue, Value};

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
        }
    }

    /// Builds the immutable engine for this experiment's entry sequence:
    /// the compile-once step every subsequent session shares.
    pub fn engine_with(&self, opts: &FuseOptions) -> Engine {
        Engine::builder()
            .compiled(self.compiled.clone())
            .entry(self.root_class, &self.passes)
            .fusion(opts.clone())
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

/// A heap snapshot: class name and slot values of every node under a
/// root, in preorder (what [`Heap::snapshot`] returns).
pub type Snapshot = Vec<(String, Vec<SnapValue>)>;

/// A program's entry sequence: root class, traversals in invocation
/// order and each traversal's arguments.
#[derive(Clone, Copy, Debug)]
pub struct Entry<'a> {
    /// Root class of the entry sequence.
    pub root_class: &'a str,
    /// Entry traversal names, in invocation order.
    pub passes: &'a [&'a str],
    /// Per-traversal entry arguments.
    pub args: &'a [Vec<Value>],
}

impl<'a> Entry<'a> {
    /// An entry sequence whose traversals take no arguments.
    pub fn new(root_class: &'a str, passes: &'a [&'a str]) -> Self {
        Entry {
            root_class,
            passes,
            args: &[],
        }
    }
}

/// The two configurations most suites check: default fusion and the
/// unfused baseline.
pub fn fused_and_unfused() -> [FuseOptions; 2] {
    [FuseOptions::default(), FuseOptions::unfused()]
}

/// The engines [`check_parity`] builds per configuration: the
/// interpreter (which ignores the level), VM-O0 and VM-O2.
const TIERS: [(Backend, OptLevel); 3] = [
    (Backend::Interp, OptLevel::O2),
    (Backend::Vm, OptLevel::O0),
    (Backend::Vm, OptLevel::O2),
];

/// One fusion configuration as [`check_parity`] ran it.
pub struct Parity {
    /// The configuration's fusion options.
    pub opts: FuseOptions,
    /// The interpreter engine.
    pub interp: Engine,
    /// The VM engine at `O0`.
    pub vm_o0: Engine,
    /// The VM engine at `O2`.
    pub vm_o2: Engine,
    /// What every executor agreed on, one entry per tree, in the order
    /// the trees were given.
    pub agreed: Vec<Agreed>,
}

/// What every executor of one configuration agreed on for one tree.
pub struct Agreed {
    /// The interpreter's run with the `xeon` cache model.
    pub interp: Report,
    /// VM-O0's run with the `xeon` cache model.
    pub vm_o0: Report,
    /// VM-O2's run with the `xeon` cache model.
    pub vm_o2: Report,
    /// VM-O2's run without a cache model, the way perfbench and grafterd
    /// run.
    pub vm_o2_uncached: Report,
    /// The final tree.
    pub snapshot: Snapshot,
}

/// Runs `entry` of `compiled` under each fusion configuration in
/// `configs` on every tree of `trees`, asserts that every run succeeds,
/// that all executors agree and that fusion is sound, and returns one
/// [`Parity`] per configuration.
///
/// Each configuration builds three engines, the interpreter, VM-O0 and
/// VM-O2, and runs each tree on each of them with the `xeon` cache model,
/// then on VM-O2 once more without a cache, the way perfbench and
/// grafterd run. All executors of a configuration must leave the same
/// snapshot and report the same `FusionMetrics`, `Metrics`, cache
/// statistics and globals.
///
/// The unfused interpreter is the oracle: the unfused configuration's
/// own run when `configs` has one, an extra run otherwise. On every tree,
/// each configuration must leave the oracle's snapshot and globals and
/// visit no more nodes than it. Each configuration's explain totals must
/// also equal its fused program's coverage counters.
///
/// Everything runs on one thread with a [`RUN_STACK`] stack.
///
/// # Panics
///
/// When a run fails, even with the same error on every executor; a run
/// that panics fails with the panic as its error
/// ([`Session::run_input`]), and a tree builder that panics fails the
/// check ([`run`]). On any disagreement, with a message naming `label`,
/// the configuration, the tree and the executor; and when an engine does
/// not build.
pub fn check_parity<B>(
    label: &str,
    compiled: &Compiled,
    entry: Entry<'_>,
    configs: &[FuseOptions],
    trees: &[B],
) -> Vec<Parity>
where
    B: Fn(&mut Heap) -> NodeId + Sync,
{
    check_tiers(label, compiled, entry, configs, trees)
        .into_iter()
        .map(|checked| {
            let Checked {
                opts,
                engines: [interp, vm_o0, vm_o2],
                outcomes,
            } = checked;
            let agreed = outcomes
                .into_iter()
                .enumerate()
                .map(|(t, outcome)| {
                    outcome.unwrap_or_else(|e| {
                        panic!("{label} {opts:?} tree {t}: every executor fails with {e}")
                    })
                })
                .collect();
            Parity {
                opts,
                interp,
                vm_o0,
                vm_o2,
                agreed,
            }
        })
        .collect()
}

/// The error-path twin of [`check_parity`]: every executor of every
/// configuration, and the unfused interpreter oracle, must fail on every
/// tree with the same typed error (the same stage and rendered text),
/// and that error's text must contain `expected`. Returns the errors,
/// one list per configuration with one error per tree.
///
/// A run that panics fails with the session's `worker panicked: ..`
/// error ([`Session::run_input`]), so it passes only where `expected`
/// names that panic; a tree builder that panics fails the check
/// ([`run`]).
///
/// # Panics
///
/// When a run succeeds or fails with an error that does not contain
/// `expected`, and on every disagreement [`check_parity`] panics on.
pub fn check_error_parity<B>(
    label: &str,
    compiled: &Compiled,
    entry: Entry<'_>,
    configs: &[FuseOptions],
    trees: &[B],
    expected: &str,
) -> Vec<Vec<Error>>
where
    B: Fn(&mut Heap) -> NodeId + Sync,
{
    check_tiers(label, compiled, entry, configs, trees)
        .into_iter()
        .map(|Checked { opts, outcomes, .. }| {
            outcomes
                .into_iter()
                .enumerate()
                .map(|(t, outcome)| {
                    let what = format!("{label} {opts:?} tree {t}");
                    match outcome {
                        Err(e) if e.to_string().contains(expected) => e,
                        Err(e) => panic!("{what}: every executor fails with {e}, not `{expected}`"),
                        Ok(_) => panic!("{what}: runs on every executor, expected `{expected}`"),
                    }
                })
                .collect()
        })
        .collect()
}

/// One configuration's engines and, per tree, what its executors agreed
/// on or the error all of them failed with.
struct Checked {
    opts: FuseOptions,
    engines: [Engine; 3],
    outcomes: Vec<Result<Agreed, Error>>,
}

/// The checks [`check_parity`] and [`check_error_parity`] share: every
/// executor agrees within a configuration, every configuration agrees
/// with the unfused interpreter oracle, and explain totals equal
/// coverage.
fn check_tiers<B>(
    label: &str,
    compiled: &Compiled,
    entry: Entry<'_>,
    configs: &[FuseOptions],
    trees: &[B],
) -> Vec<Checked>
where
    B: Fn(&mut Heap) -> NodeId + Sync,
{
    let engine = |opts: &FuseOptions, (backend, level): (Backend, OptLevel)| {
        Engine::builder()
            .compiled(compiled.clone())
            .entry(entry.root_class, entry.passes)
            .fusion(opts.clone())
            .backend(backend)
            .opt_level(level)
            .args(entry.args.to_vec())
            .build()
            .unwrap_or_else(|e| panic!("{label}: {backend} {level} build fails: {e}"))
    };
    on_run_stack(|| {
        let checked: Vec<Checked> = configs
            .iter()
            .map(|opts| {
                let engines = TIERS.map(|tier| engine(opts, tier));
                let fused = engines[0].fused_program();
                assert_eq!(
                    fused.explain.totals(),
                    fused.coverage,
                    "{label} {opts:?}: explain totals differ from coverage"
                );
                let outcomes = trees
                    .iter()
                    .enumerate()
                    .map(|(t, build)| agree(&format!("{label} {opts:?} tree {t}"), &engines, build))
                    .collect();
                Checked {
                    opts: opts.clone(),
                    engines,
                    outcomes,
                }
            })
            .collect();
        let unfused = FuseOptions::unfused();
        let own_oracle: Vec<_>;
        let oracle: Vec<Result<(&Report, &Snapshot), &Error>> =
            match checked.iter().find(|c| c.opts == unfused) {
                Some(c) => c
                    .outcomes
                    .iter()
                    .map(|o| o.as_ref().map(|a| (&a.interp, &a.snapshot)))
                    .collect(),
                None => {
                    let interp = engine(&unfused, TIERS[0]);
                    own_oracle = trees
                        .iter()
                        .map(|build| run(&mut interp.session(), build))
                        .collect();
                    own_oracle
                        .iter()
                        .map(|o| o.as_ref().map(|(r, s)| (r, s)))
                        .collect()
                }
            };
        for c in &checked {
            for (t, (outcome, oracle)) in c.outcomes.iter().zip(&oracle).enumerate() {
                let what = format!("{label} {:?} tree {t} against the unfused oracle", c.opts);
                match (outcome, oracle) {
                    (Ok(agreed), Ok((report, snapshot))) => {
                        let ours = &agreed.interp;
                        assert_same_tree(&what, &agreed.snapshot, snapshot);
                        assert_eq!(ours.globals, report.globals, "{what}: globals differ");
                        assert!(
                            ours.metrics.visits <= report.metrics.visits,
                            "{what}: {} visits, the oracle {}",
                            ours.metrics.visits,
                            report.metrics.visits
                        );
                    }
                    (Err(ours), Err(theirs)) => assert_same_error(&what, ours, theirs),
                    (Ok(_), Err(e)) => panic!("{what}: runs, the oracle fails with {e}"),
                    (Err(e), Ok(_)) => panic!("{what}: fails with {e}, the oracle runs"),
                }
            }
        }
        checked
    })
}

/// Runs every executor of one configuration on the tree `build` makes
/// and returns what they agreed on, or the error all of them failed
/// with.
fn agree(
    what: &str,
    [interp, vm_o0, vm_o2]: &[Engine; 3],
    build: &impl Fn(&mut Heap) -> NodeId,
) -> Result<Agreed, Error> {
    let cached = |engine: &Engine| {
        run(
            &mut engine.session().with_cache(CacheHierarchy::xeon()),
            build,
        )
    };
    let expected = cached(interp);
    let others = [
        ("vm-O0", cached(vm_o0), true),
        ("vm-O2", cached(vm_o2), true),
        ("uncached vm-O2", run(&mut vm_o2.session(), build), false),
    ];
    for (name, other, with_cache) in &others {
        let what = format!("{what}: {name} against interp");
        match (&expected, other) {
            (Ok((expected, tree)), Ok((report, snapshot))) => {
                assert_same_tree(&what, snapshot, tree);
                assert_eq!(
                    report.fusion, expected.fusion,
                    "{what}: fusion metrics differ"
                );
                assert_eq!(report.metrics, expected.metrics, "{what}: metrics differ");
                assert_eq!(report.globals, expected.globals, "{what}: globals differ");
                let cache = expected.cache.as_ref().filter(|_| *with_cache);
                assert_eq!(
                    report.cache.as_ref(),
                    cache,
                    "{what}: cache statistics differ"
                );
            }
            (Err(expected), Err(e)) => assert_same_error(&what, e, expected),
            (Ok(_), Err(e)) => panic!("{what}: fails with {e}, interp runs"),
            (Err(e), Ok(_)) => panic!("{what}: runs, interp fails with {e}"),
        }
    }
    let (interp, snapshot) = expected?;
    let [vm_o0, vm_o2, vm_o2_uncached] = others.map(|(_, run, _)| run.expect("agreed").0);
    Ok(Agreed {
        interp,
        vm_o0,
        vm_o2,
        vm_o2_uncached,
        snapshot,
    })
}

/// Serves one tree on `session` the way a batch worker does: resets its
/// heap, builds the tree with `build` and runs it
/// ([`Session::run_input`]), then snapshots the final tree.
///
/// # Errors
///
/// The run's typed error; a panic in the run becomes one.
///
/// # Panics
///
/// When `build` panics: a broken tree builder is a failed test, never a
/// run error that every tier could share.
pub fn run(
    session: &mut Session<'_>,
    build: impl FnOnce(&mut Heap) -> NodeId,
) -> Result<(Report, Snapshot), Error> {
    let mut root = None;
    let report = session.run_input(|heap| *root.insert(build(heap)));
    match (report, root) {
        (Ok(report), Some(root)) => Ok((report, session.snapshot(root))),
        (Err(e), Some(_)) => Err(e),
        (Err(e), None) => panic!("the tree builder panicked: {e}"),
        (Ok(_), None) => unreachable!("a session runs only a built tree"),
    }
}

/// Runs `f` on a fresh thread with a [`RUN_STACK`] stack, the way
/// [`with_stack`] does, but lets `f` borrow from the caller.
///
/// # Panics
///
/// Re-raises a panic of `f`; panics if the thread cannot be spawned.
pub fn on_run_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    thread::scope(|scope| {
        thread::Builder::new()
            .stack_size(RUN_STACK)
            .spawn_scoped(scope, f)
            .expect("spawn a RUN_STACK thread")
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// Asserts two snapshots are equal, naming the first node that differs.
fn assert_same_tree(what: &str, ours: &Snapshot, theirs: &Snapshot) {
    if let Some(i) = (0..ours.len().max(theirs.len())).find(|&i| ours.get(i) != theirs.get(i)) {
        panic!(
            "{what}: trees differ at node {i} of {} vs {}: {:?} vs {:?}",
            ours.len(),
            theirs.len(),
            ours.get(i),
            theirs.get(i)
        );
    }
}

/// Asserts two typed errors have the same stage and rendered text.
fn assert_same_error(what: &str, ours: &Error, theirs: &Error) {
    assert_eq!(ours.stage(), theirs.stage(), "{what}: error stages differ");
    assert_eq!(ours.rendered(), theirs.rendered(), "{what}: errors differ");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Leaf.t` reads through its null `next`: every tier fails alike.
    fn null_deref() -> Compiled {
        Compiled::compile(
            "tree class Node { child Node* next; int a = 0; virtual traversal t() {} }
             tree class Leaf : Node { traversal t() { a = this->next->a; } }",
        )
        .expect("test program compiles")
    }

    #[test]
    #[should_panic(expected = "every executor fails with")]
    fn a_failure_shared_by_every_tier_is_no_parity() {
        let build = |heap: &mut Heap| heap.alloc_by_name("Leaf").unwrap();
        let (entry, configs) = (Entry::new("Node", &["t"]), fused_and_unfused());
        check_parity("null", &null_deref(), entry, &configs, &[build]);
    }

    #[test]
    #[should_panic(expected = "the tree builder panicked")]
    fn a_panicking_tree_builder_is_no_expected_error() {
        let build = |heap: &mut Heap| heap.alloc_by_name("Renamed").unwrap();
        let (entry, configs) = (Entry::new("Node", &["t"]), fused_and_unfused());
        check_error_parity("null", &null_deref(), entry, &configs, &[build], "panicked");
    }
}
