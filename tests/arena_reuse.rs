//! Arena-reuse contract of the session layer: a heap arena recycled with
//! [`Session::reset`] (and by the pooled `run_batch` workers) must be
//! observationally indistinguishable from a fresh heap — bit-identical
//! `Report`s (metrics *and* simulated cache traffic) and heap snapshots —
//! for all four case studies on both backends. The fresh-heap baselines
//! are the reports the tier-parity harness agreed on.
//!
//! [`Session::reset`]: grafter_engine::Session::reset

use grafter::FuseOptions;
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{BatchOptions, Report};
use grafter_runtime::Heap;
use grafter_workloads::case_studies;
use grafter_workloads::harness::{check_parity, on_run_stack, run};

#[test]
fn reset_sessions_match_fresh_sessions_all_cases_both_backends() {
    for case in case_studies() {
        let tree = |heap: &mut Heap| case.build_test(heap);
        let configs = [FuseOptions::default()];
        let parities = check_parity(case.name, &case.compiled, case.entry(), &configs, &[tree]);
        let (parity, agreed) = (&parities[0], &parities[0].agreed[0]);
        // The interpreter and VM-O2 engines.
        for (engine, expected) in [
            (&parity.interp, &agreed.interp),
            (&parity.vm_o2, &agreed.vm_o2),
        ] {
            let label = format!("{}/{}", case.name, engine.backend());
            on_run_stack(|| {
                // One session serving three consecutive requests on a
                // recycled arena.
                let mut pooled = engine.session().with_cache(CacheHierarchy::xeon());
                for round in 0..3 {
                    let (report, snapshot) = run(&mut pooled, tree).expect("case study runs");
                    assert_eq!(
                        &report, expected,
                        "{label}: report diverges on reused arena (round {round})"
                    );
                    assert_eq!(
                        snapshot, agreed.snapshot,
                        "{label}: snapshot diverges on reused arena"
                    );
                }
            });
        }
    }
}

#[test]
fn pooled_batch_workers_stay_input_ordered_and_deterministic() {
    for case in case_studies() {
        let build = case.build;
        // Different sizes (and thus visit counts) per slot, so any
        // reordering or cross-input state leak is visible.
        let sizes: Vec<usize> = (1..=8)
            .map(|i| (case.test_size * i).div_ceil(8).max(1))
            .collect();
        let trees: Vec<_> = sizes
            .iter()
            .map(|&size| move |heap: &mut Heap| build(heap, size, 42))
            .collect();
        let configs = [FuseOptions::default()];
        let parities = check_parity(case.name, &case.compiled, case.entry(), &configs, &trees);
        let parity = &parities[0];
        // Batches run without a cache model: the fresh-session baselines
        // are the interpreter's reports with their cache statistics
        // dropped, and VM-O2's uncached reports.
        let interp = parity.agreed.iter().map(|a| Report {
            cache: None,
            ..a.interp.clone()
        });
        let vm = parity.agreed.iter().map(|a| a.vm_o2_uncached.clone());
        for (engine, fresh) in [
            (&parity.interp, interp.collect::<Vec<_>>()),
            (&parity.vm_o2, vm.collect()),
        ] {
            for workers in [1, 3] {
                let opts = BatchOptions { workers };
                let batch = engine
                    .run_batch_with(trees.clone(), &opts)
                    .expect("batch runs");
                assert_eq!(
                    batch,
                    fresh,
                    "{}/{}: pooled batch diverges at {workers} workers",
                    case.name,
                    engine.backend()
                );
            }
        }
    }
}
