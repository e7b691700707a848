//! Concurrency contract of the Engine API: one engine shared across
//! threads produces **bit-identical** results to a single-threaded run —
//! heap snapshot, `Metrics`, and simulated cache traffic — for all four
//! case studies, on both backends.
//!
//! This is the executable statement of the compile-once/run-many design:
//! the engine holds only immutable per-program state, every session owns
//! its per-run state, so thread interleaving cannot influence any
//! deterministic output. The single-threaded baseline is what the
//! tier-parity harness agreed on, so concurrent runs of either tier also
//! match the other. The batch API inherits the same guarantee with
//! ordering: `run_batch` returns reports by input position, not by
//! completion order.

use std::thread;

use grafter::FuseOptions;
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{BatchOptions, Report};
use grafter_runtime::{Heap, RUN_STACK};
use grafter_workloads::case_studies;
use grafter_workloads::harness::{check_parity, run};

/// Threads sharing each engine (the issue's floor is 4).
const THREADS: usize = 4;

#[test]
fn shared_engine_is_bit_identical_across_threads_all_cases_both_backends() {
    for case in case_studies() {
        let tree = |heap: &mut Heap| case.build_test(heap);
        let configs = [FuseOptions::default()];
        let parities = check_parity(case.name, &case.compiled, case.entry(), &configs, &[tree]);
        let (parity, agreed) = (&parities[0], &parities[0].agreed[0]);
        // The interpreter and VM-O2 engines, each shared by THREADS
        // concurrent sessions.
        for (engine, expected) in [
            (&parity.interp, &agreed.interp),
            (&parity.vm_o2, &agreed.vm_o2),
        ] {
            let label = format!("{}/{}", case.name, engine.backend());
            thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        thread::Builder::new()
                            .stack_size(RUN_STACK)
                            .spawn_scoped(scope, || {
                                let mut session =
                                    engine.session().with_cache(CacheHierarchy::xeon());
                                run(&mut session, tree).expect("case study runs")
                            })
                            .unwrap()
                    })
                    .collect();
                for handle in handles {
                    let (report, snapshot) = handle.join().unwrap();
                    assert_eq!(
                        &report, expected,
                        "{label}: concurrent report diverges from single-threaded run"
                    );
                    assert_eq!(
                        snapshot, agreed.snapshot,
                        "{label}: concurrent heap snapshot diverges"
                    );
                }
            });
        }
    }
}

#[test]
fn run_batch_is_deterministic_and_ordered_for_every_case_study() {
    for case in case_studies() {
        let (build, size) = (case.build, case.test_size);
        // Different seeds per slot make misordered results detectable.
        let trees: Vec<_> = (0..8)
            .map(|seed| move |heap: &mut Heap| build(heap, size, seed))
            .collect();
        let configs = [FuseOptions::default()];
        let parities = check_parity(case.name, &case.compiled, case.entry(), &configs, &trees);
        let parity = &parities[0];
        // Batches run without a cache model, like VM-O2's uncached run.
        let fresh: Vec<Report> = parity
            .agreed
            .iter()
            .map(|a| a.vm_o2_uncached.clone())
            .collect();
        let concurrent = parity
            .vm_o2
            .run_batch_with(trees, &BatchOptions { workers: THREADS })
            .unwrap();
        assert_eq!(
            concurrent, fresh,
            "{}: batch results must be input-ordered and bit-identical",
            case.name
        );
    }
}
