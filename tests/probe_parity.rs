//! The zero-cost probe layer's correctness contract: observing a run
//! must not change it.
//!
//! For every case study and both tiers (interp, VM `O2`), a run with a
//! recording probe attached must produce exactly the heap snapshot,
//! metrics, simulated cache traffic and final globals the tier-parity
//! harness agreed on for the unprobed engines — profiling is a pure
//! read. On top of that the suite pins what the probe actually delivers:
//! every compile stage appears in the `CompileTrace` (with the
//! `opt/peephole`, `opt/regs` and `opt/specialize` passes on the VM
//! tier), each tier records at least one populated runtime profile of
//! its expected shape, batch runs deliver per-worker telemetry, and the
//! Chrome trace-event export round-trips through the hand-rolled JSON
//! parser's schema check.

use std::sync::Arc;

use grafter::FusionOptions;
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Backend, Engine, Probe, TraceProbe};
use grafter_obs::json::{parse, validate_chrome_trace};
use grafter_runtime::Heap;
use grafter_workloads::case_studies;
use grafter_workloads::harness::{check_parity, on_run_stack, run};

#[test]
fn probed_runs_are_bit_identical_to_unprobed_on_all_case_studies() {
    for case in case_studies() {
        let tree = |heap: &mut Heap| case.build_test(heap);
        let configs = [FusionOptions::default()];
        let parities = check_parity(case.name, &case.compiled, case.entry(), &configs, &[tree]);
        let agreed = &parities[0].agreed[0];
        // The interpreter's and VM-O2's cached reports.
        for (backend, plain) in [
            (Backend::Interp, &agreed.interp),
            (Backend::Vm, &agreed.vm_o2),
        ] {
            let probe = Arc::new(TraceProbe::new());
            let probed = case.engine_probed(backend, Arc::clone(&probe) as Arc<dyn Probe>);
            let mut session = probed.session().with_cache(CacheHierarchy::xeon());
            let (report, snapshot) = on_run_stack(|| run(&mut session, tree)).expect("probed run");
            let label = format!("{}/{backend}", case.name);
            assert_eq!(
                snapshot, agreed.snapshot,
                "{label}: probing changed the heap"
            );
            // Report equality covers metrics, cache traffic and globals,
            // and deliberately ignores the trace field.
            assert_eq!(&report, plain, "{label}: probing changed the report");
            assert!(plain.trace.is_none(), "{label}: unprobed run grew a trace");
            assert!(report.trace.is_some(), "{label}: probed run has no trace");
        }
    }
}

#[test]
fn every_tier_records_a_populated_profile_of_its_shape() {
    let case = &case_studies()[0]; // ast: rich pass pipeline
    for backend in [Backend::Interp, Backend::Vm] {
        let probe = Arc::new(TraceProbe::new());
        let engine = case.engine_probed(backend, Arc::clone(&probe) as Arc<dyn Probe>);
        on_run_stack(|| run(&mut engine.session(), |heap| case.build_test(heap))).expect("runs");
        let runs = probe.runs();
        assert_eq!(runs.len(), 1, "{backend}: expected exactly one RunTrace");
        let run = &runs[0];
        assert_eq!(run.tier, backend.to_string());
        let p = &run.profile;
        assert!(!p.is_empty(), "{backend}: empty profile");
        match backend {
            Backend::Interp => {
                assert!(!p.class_visits.is_empty(), "interp records class visits");
                assert!(p.class_visits.iter().all(|&(_, n)| n > 0));
            }
            Backend::Vm => {
                assert!(!p.func_hits.is_empty(), "vm records function hits");
                assert!(!p.op_fires.is_empty(), "vm records an opcode histogram");
                assert!(!p.block_hits.is_empty(), "vm derives basic-block hits");
                // The fired-instruction total equals the dispatch
                // loop's executed-op count only if every pc was hooked.
                let fired: u64 = p.op_fires.iter().map(|o| o.fires).sum();
                assert!(fired > 0);
            }
        }
    }
}

#[test]
fn compile_trace_names_every_stage_per_tier() {
    for case in case_studies() {
        // Build from source so the frontend stages appear.
        let probe = Arc::new(TraceProbe::new());
        Engine::builder()
            .source(case.source)
            .entry(case.root_class, &case.passes)
            .backend(Backend::Vm)
            .probe(Arc::clone(&probe) as Arc<dyn Probe>)
            .build()
            .expect("case study builds");
        let trace = probe.compile().expect("probe saw the build");
        let stages = trace.stage_names();
        for expected in [
            "parse",
            "sema",
            "fusion",
            "fusion/summaries",
            "fusion/conflicts",
            "fusion/group",
            "fusion/explain",
            "fusion/emit",
            "lower",
            "opt/peephole",
            "opt/regs",
            "opt/specialize",
        ] {
            assert!(
                stages.contains(&expected),
                "{}: stage `{expected}` missing from {stages:?}",
                case.name
            );
        }
        // Stages that timed themselves sit inside their parent span.
        for (parent, prefix) in [("fusion", "fusion/"), ("lower", "opt/")] {
            let outer = trace.span(parent).unwrap();
            for inner in trace.spans.iter().filter(|s| s.name.starts_with(prefix)) {
                assert!(
                    inner.start >= outer.start
                        && inner.start + inner.dur <= outer.start + outer.dur,
                    "{}: `{}` {:?}+{:?} outside `{parent}` {:?}+{:?}",
                    case.name,
                    inner.name,
                    inner.start,
                    inner.dur,
                    outer.start,
                    outer.dur
                );
            }
        }
        // Engines keep their compile trace even without a probe.
        let unprobed = case.engine(Backend::Vm);
        assert!(unprobed.compile_trace().stage_names().contains(&"fusion"));
    }
}

#[test]
fn chrome_trace_round_trips_schema_check() {
    let case = &case_studies()[0];
    let probe = Arc::new(TraceProbe::new());
    let engine = case.engine_probed(Backend::Vm, Arc::clone(&probe) as Arc<dyn Probe>);
    on_run_stack(|| run(&mut engine.session(), |heap| case.build_test(heap))).expect("runs");
    let rendered = probe.chrome_trace();
    let doc = parse(&rendered).expect("chrome trace is valid JSON");
    let events = validate_chrome_trace(&doc).expect("chrome trace passes the schema check");
    // At least the compile envelope, its stages, and one run track.
    assert!(events > 5, "suspiciously few trace events: {events}");
    let summary = probe.summary();
    assert!(
        summary.contains("compile ("),
        "summary names the compile section"
    );
    assert!(summary.contains("run#0"), "summary names the run");
}

#[test]
fn batch_runs_deliver_per_worker_telemetry() {
    let case = &case_studies()[0];
    let probe = Arc::new(TraceProbe::new());
    let engine = case.engine_probed(Backend::Vm, Arc::clone(&probe) as Arc<dyn Probe>);
    let trees = 6;
    let inputs: Vec<_> = (0..trees)
        .map(|_| |heap: &mut Heap| case.build_test(heap))
        .collect();
    let reports = engine
        .run_batch_with(inputs, &grafter_engine::BatchOptions::with_workers(2))
        .expect("batch runs");
    assert_eq!(reports.len(), trees);
    // Pooled batch sessions stay bit-identical under probing.
    assert!(reports.windows(2).all(|w| w[0] == w[1]));
    let batches = probe.batches();
    assert_eq!(batches.len(), 1, "one batch fan-out, one BatchTrace");
    let batch = &batches[0];
    assert_eq!(batch.workers.len(), 2);
    let total_inputs: u64 = batch.workers.iter().map(|w| w.inputs).sum();
    let total_resets: u64 = batch.workers.iter().map(|w| w.resets).sum();
    assert_eq!(total_inputs, trees as u64);
    assert_eq!(total_resets, trees as u64);
    // Every input also produced an individual RunTrace.
    assert_eq!(probe.runs().len(), trees);
}

#[test]
fn fusion_coverage_counts_fused_and_missed_pairs() {
    for case in case_studies() {
        let engine = case.engine(Backend::Interp);
        let metrics = engine.fusion_metrics();
        let coverage = engine.fused_program().coverage;
        assert!(
            metrics.fused_pairs > 0,
            "{}: fusion grouped no same-receiver call pairs",
            case.name
        );
        // The report mirrors the fused program's own accounting.
        assert_eq!(metrics.fused_pairs, coverage.fused_pairs, "{}", case.name);
        assert_eq!(metrics.missed_pairs, coverage.missed_pairs, "{}", case.name);
        assert!(coverage.candidate_pairs() >= coverage.fused_pairs);
        // The unfused baseline groups nothing — every candidate pair
        // it can still see (bodies are merged per traversal, so only
        // within-traversal pairs remain visible) is missed or blocked.
        let unfused = case
            .engine_with(FusionOptions::unfused(), Backend::Interp)
            .fusion_metrics();
        assert_eq!(
            unfused.fused_pairs, 0,
            "{}: unfused baseline reports fused pairs",
            case.name
        );
    }
}
