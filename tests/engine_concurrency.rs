//! Concurrency contract of the Engine API: one `Arc<Engine>` shared
//! across threads produces **bit-identical** results to a single-threaded
//! run — heap snapshot, `Metrics`, and simulated cache traffic — for all
//! four case studies, on both backends.
//!
//! This is the executable statement of the compile-once/run-many design:
//! the engine holds only immutable per-program state, every session owns
//! its per-run state, so thread interleaving cannot influence any
//! deterministic output. The batch API inherits the same guarantee with
//! ordering: `run_batch` returns reports by input position, not by
//! completion order.

use std::sync::Arc;
use std::thread;

use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Backend, BatchOptions, Engine, Report};
use grafter_runtime::{Heap, NodeId, SnapValue};
use grafter_workloads::case_studies;

/// Worker stack: traversals recurse once per tree level.
const STACK: usize = 256 << 20;

/// Threads sharing each engine (the issue's floor is 4).
const THREADS: usize = 4;

type Snapshot = Vec<(String, Vec<SnapValue>)>;

/// One full instrumented run on a freshly built test-sized tree.
fn run_once(
    engine: &Engine,
    build: fn(&mut Heap, usize, u64) -> NodeId,
    size: usize,
) -> (Report, Snapshot) {
    let mut session = engine.session().with_cache(CacheHierarchy::xeon());
    let root = session.build_tree(|heap| build(heap, size, 42));
    let report = session.run(root).expect("case study runs");
    let snapshot = session.snapshot(root);
    (report, snapshot)
}

#[test]
fn shared_engine_is_bit_identical_across_threads_all_cases_both_backends() {
    for backend in [Backend::Interp, Backend::Vm] {
        for case in case_studies() {
            let name = case.name;
            let build = case.build;
            let size = case.test_size;
            let engine = Arc::new(case.engine(backend));

            // Single-threaded baseline (on a worker thread only for stack
            // room — still one engine, one session at a time).
            let baseline = {
                let engine = Arc::clone(&engine);
                thread::Builder::new()
                    .stack_size(STACK)
                    .spawn(move || run_once(&engine, build, size))
                    .unwrap()
                    .join()
                    .unwrap()
            };

            // The same engine, shared by THREADS concurrent sessions.
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    thread::Builder::new()
                        .stack_size(STACK)
                        .spawn(move || run_once(&engine, build, size))
                        .unwrap()
                })
                .collect();
            for handle in handles {
                let (report, snapshot) = handle.join().unwrap();
                assert_eq!(
                    report, baseline.0,
                    "{name}/{backend}: concurrent report diverges from single-threaded run"
                );
                assert_eq!(
                    report.cache, baseline.0.cache,
                    "{name}/{backend}: cache traffic diverges"
                );
                assert_eq!(
                    snapshot, baseline.1,
                    "{name}/{backend}: concurrent heap snapshot diverges"
                );
            }
        }
    }
}

#[test]
fn backends_agree_under_concurrency() {
    // The differential guarantee (interp == vm) holds for reports
    // produced concurrently, not just sequentially.
    for case in case_studies() {
        let build = case.build;
        let size = case.test_size;
        let interp = Arc::new(case.engine(Backend::Interp));
        let vm = Arc::new(case.engine(Backend::Vm));
        let spawn = |engine: Arc<Engine>| {
            thread::Builder::new()
                .stack_size(STACK)
                .spawn(move || run_once(&engine, build, size))
                .unwrap()
        };
        let (i, v) = (spawn(interp), spawn(vm));
        let (ri, si) = i.join().unwrap();
        let (rv, sv) = v.join().unwrap();
        assert_eq!(ri.metrics, rv.metrics, "{}: metrics diverge", case.name);
        assert_eq!(ri.cache, rv.cache, "{}: cache traffic diverges", case.name);
        assert_eq!(ri.globals, rv.globals, "{}: globals diverge", case.name);
        assert_eq!(si, sv, "{}: heap snapshots diverge", case.name);
    }
}

#[test]
fn run_batch_is_deterministic_and_ordered_for_every_case_study() {
    for case in case_studies() {
        let build = case.build;
        let engine = case.engine(Backend::Vm);
        // Different seeds per slot make misordered results detectable.
        let seeds: Vec<u64> = (0..8).collect();
        let mk_inputs = || -> Vec<_> {
            seeds
                .iter()
                .map(|&seed| move |heap: &mut Heap| build(heap, case.test_size, seed))
                .collect()
        };
        let sequential = engine
            .run_batch_with(mk_inputs(), &BatchOptions { workers: 1 })
            .unwrap();
        let concurrent = engine
            .run_batch_with(mk_inputs(), &BatchOptions { workers: THREADS })
            .unwrap();
        assert_eq!(
            concurrent, sequential,
            "{}: batch results must be input-ordered and bit-identical",
            case.name
        );
    }
}
