//! Arena-reuse contract of the session layer: a heap arena recycled with
//! [`Session::reset`] (and by the pooled `run_batch` workers) must be
//! observationally indistinguishable from a fresh heap — bit-identical
//! `Report`s (metrics *and* simulated cache traffic) and heap snapshots —
//! for all four case studies on both backends.
//!
//! [`Session::reset`]: grafter_engine::Session::reset

use std::thread;

use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Backend, BatchOptions, Engine, Report};
use grafter_runtime::{Heap, NodeId, SnapValue};
use grafter_workloads::case_studies;

/// Worker stack: traversals recurse once per tree level.
const STACK: usize = 256 << 20;

type Snapshot = Vec<(String, Vec<SnapValue>)>;

/// Baseline: a fresh session per run, cache attached.
fn fresh_run(
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
fn reset_sessions_match_fresh_sessions_all_cases_both_backends() {
    for backend in [Backend::Interp, Backend::Vm] {
        for case in case_studies() {
            let name = case.name;
            let build = case.build;
            let size = case.test_size;
            let engine = case.engine(backend);
            thread::Builder::new()
                .stack_size(STACK)
                .spawn(move || {
                    let baseline = fresh_run(&engine, build, size);
                    // One session serving three consecutive requests on a
                    // recycled arena.
                    let mut pooled = engine.session().with_cache(CacheHierarchy::xeon());
                    for round in 0..3 {
                        pooled.reset();
                        let root = pooled.build_tree(|heap| build(heap, size, 42));
                        let report = pooled.run(root).expect("case study runs");
                        assert_eq!(
                            report, baseline.0,
                            "{name}/{backend:?}: report diverges on reused arena (round {round})"
                        );
                        assert_eq!(
                            report.cache, baseline.0.cache,
                            "{name}/{backend:?}: cache traffic diverges on reused arena"
                        );
                        assert_eq!(
                            pooled.snapshot(root),
                            baseline.1,
                            "{name}/{backend:?}: snapshot diverges on reused arena"
                        );
                    }
                })
                .unwrap()
                .join()
                .unwrap();
        }
    }
}

#[test]
fn pooled_batch_workers_stay_input_ordered_and_deterministic() {
    for backend in [Backend::Interp, Backend::Vm] {
        for case in case_studies() {
            let name = case.name;
            let build = case.build;
            // Different sizes (and thus visit counts) per slot, so any
            // reordering or cross-input state leak is visible.
            let sizes: Vec<usize> = (1..=8)
                .map(|i| (case.test_size * i).div_ceil(8).max(1))
                .collect();
            let engine = case.engine(backend);
            let sequential: Vec<Report> = sizes
                .iter()
                .map(|&size| {
                    let engine = &engine;
                    thread::scope(|scope| {
                        thread::Builder::new()
                            .stack_size(STACK)
                            .spawn_scoped(scope, move || {
                                let mut s = engine.session();
                                let root = s.build_tree(|heap| build(heap, size, 42));
                                s.run(root).expect("case study runs")
                            })
                            .unwrap()
                            .join()
                            .unwrap()
                    })
                })
                .collect();
            for workers in [1, 3] {
                let inputs: Vec<_> = sizes
                    .iter()
                    .map(|&size| move |heap: &mut Heap| build(heap, size, 42))
                    .collect();
                let opts = BatchOptions { workers };
                let batch = engine.run_batch_with(inputs, &opts).expect("batch runs");
                assert_eq!(
                    batch, sequential,
                    "{name}/{backend:?}: pooled batch diverges at {workers} workers"
                );
            }
        }
    }
}
