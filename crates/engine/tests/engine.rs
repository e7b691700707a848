//! Engine/Session API contract tests: builder validation, typed errors,
//! backend parity, engine-level defaults, batch determinism.

use grafter::{FusionOptions, Stage};
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Backend, BatchOptions, Engine};
use grafter_runtime::{Heap, NodeId, PureRegistry, Value};

/// A heterogeneous batch input (mixed closure types need boxing).
type BoxedInput = Box<dyn FnOnce(&mut Heap) -> NodeId + Send>;

const LIST: &str = r#"
    tree class Node {
        child Node* next;
        int a = 0; int b = 0;
        virtual traversal incA() {}
        virtual traversal incB() {}
    }
    tree class Cons : Node {
        traversal incA() { a = a + 1; this->next->incA(); }
        traversal incB() { b = b + 1; this->next->incB(); }
    }
    tree class End : Node { }
"#;

fn list_engine(backend: Backend) -> Engine {
    Engine::builder()
        .source(LIST)
        .entry("Node", &["incA", "incB"])
        .backend(backend)
        .build()
        .unwrap()
}

/// Builds an `n`-long Cons chain, returning its root.
fn build_chain(heap: &mut Heap, n: usize) -> NodeId {
    let mut cur = heap.alloc_by_name("End").unwrap();
    for _ in 0..n {
        let c = heap.alloc_by_name("Cons").unwrap();
        heap.set_child_by_name(c, "next", Some(cur)).unwrap();
        cur = c;
    }
    cur
}

#[test]
fn builder_rejects_missing_program_and_entry() {
    let err = Engine::builder().build().unwrap_err();
    assert_eq!(err.stage(), Stage::Config);
    assert!(err.to_string().contains("source"), "{err}");

    let err = Engine::builder().source(LIST).build().unwrap_err();
    assert_eq!(err.stage(), Stage::Config);
    assert!(err.to_string().contains("entry"), "{err}");

    let empty: &[&str] = &[];
    let err = Engine::builder()
        .source(LIST)
        .entry("Node", empty)
        .build()
        .unwrap_err();
    assert_eq!(err.stage(), Stage::Config);
}

#[test]
fn builder_surfaces_typed_compile_and_fuse_errors() {
    let err = Engine::builder()
        .source("tree class X { child Missing* c; }")
        .entry("X", &["t"])
        .build()
        .unwrap_err();
    assert_eq!(err.stage(), Stage::Sema);
    assert!(err.is_compile());
    assert!(err.span().is_some());
    assert!(err.to_string().contains('^'), "caret snippet: {err}");

    let err = Engine::builder()
        .source(LIST)
        .entry("Nope", &["incA"])
        .build()
        .unwrap_err();
    assert_eq!(err.stage(), Stage::Fuse);
    assert!(err.to_string().contains("unknown tree class"), "{err}");
}

#[test]
fn engine_compiles_and_fuses_once_with_metrics() {
    let engine = list_engine(Backend::Interp);
    let m = engine.fusion_metrics();
    assert!(m.fully_fused);
    assert_eq!(m.passes, 1);
    assert!(engine.module().is_none(), "interp tier lowers nothing");
    assert!(engine.render_cpp().contains("__stub0"));

    let vm = list_engine(Backend::Vm);
    assert!(vm.module().is_some(), "vm tier caches its module");

    let unfused = Engine::builder()
        .source(LIST)
        .entry("Node", &["incA", "incB"])
        .fusion(FusionOptions::unfused())
        .build()
        .unwrap();
    assert_eq!(unfused.fusion_metrics().passes, 2);
}

#[test]
fn sessions_run_and_backends_agree() {
    let interp = list_engine(Backend::Interp);
    let vm = list_engine(Backend::Vm);
    let mut reports = Vec::new();
    let mut snaps = Vec::new();
    for engine in [&interp, &vm] {
        let mut s = engine.session().with_cache(CacheHierarchy::tiny());
        let root = s.build_tree(|heap| build_chain(heap, 9));
        let report = s.run(root).unwrap();
        assert_eq!(report.metrics.visits, 10);
        assert_eq!(s.get_field(root, "a").unwrap(), Value::Int(1));
        assert!(report.cache.is_some());
        snaps.push(s.snapshot(root));
        reports.push(report);
    }
    assert_eq!(snaps[0], snaps[1], "backends leave identical trees");
    assert_eq!(
        reports[0].metrics, reports[1].metrics,
        "bit-identical counters"
    );
    assert_eq!(
        reports[0].cache, reports[1].cache,
        "identical cache traffic"
    );
    // Report equality itself compares outcome (not wall, not backend tag
    // — backends differ here, so compare fields above instead).
    assert_ne!(reports[0].backend, reports[1].backend);
}

#[test]
fn session_runs_repeatedly_with_fresh_counters() {
    let engine = list_engine(Backend::Vm);
    let mut s = engine.session();
    let root = s.build_tree(|heap| build_chain(heap, 4));
    let first = s.run(root).unwrap();
    let second = s.run(root).unwrap();
    assert_eq!(first, second, "counters reset between runs");
    assert_eq!(
        s.get_field(root, "a").unwrap(),
        Value::Int(2),
        "the tree itself keeps mutating"
    );
}

#[test]
fn session_wrappers_return_config_errors() {
    let engine = list_engine(Backend::Interp);
    let mut s = engine.session();
    let err = s.alloc("Nope").unwrap_err();
    assert_eq!(err.stage(), Stage::Config);
    let node = s.alloc("Cons").unwrap();
    assert_eq!(
        s.set_child(node, "prev", None).unwrap_err().stage(),
        Stage::Config
    );
    assert_eq!(
        s.set_field(node, "zzz", Value::Int(0)).unwrap_err().stage(),
        Stage::Config
    );
    assert_eq!(s.get_field(node, "zzz").unwrap_err().stage(), Stage::Config);
}

#[test]
fn session_edits_reject_what_grafterd_rejects_on_both_tiers() {
    // Each rejected edit used to return `Ok` and leave a heap the next
    // run panicked on: an `End` in the data field `a`, an unrelated
    // `Other` in `next`, an integer in the child field `next`.
    let src = format!("{LIST} tree class Other {{ int c = 0; virtual traversal t() {{}} }}");
    for backend in [Backend::Interp, Backend::Vm] {
        let engine = Engine::builder()
            .source(src.as_str())
            .entry("Node", &["incA", "incB"])
            .backend(backend)
            .build()
            .unwrap();
        let mut s = engine.session();
        let cons = s.alloc("Cons").unwrap();
        let end = s.alloc("End").unwrap();
        let other = s.alloc("Other").unwrap();
        for (err, needle) in [
            (
                s.set_child(cons, "a", Some(end)).unwrap_err(),
                "unknown child field `a` on `Cons`",
            ),
            (
                s.set_child(cons, "next", Some(other)).unwrap_err(),
                "child `next` of `Cons` holds a `Other`, not a `Node`",
            ),
            (
                s.set_field(cons, "next", Value::Int(1)).unwrap_err(),
                "unknown field `next` on `Cons`",
            ),
        ] {
            assert_eq!(err.stage(), Stage::Config, "{backend}: {err}");
            assert!(err.to_string().contains(needle), "{backend}: {err}");
        }
        // The rejected edits wrote nothing, and well-typed ones still go
        // through.
        s.set_child(cons, "next", Some(end)).unwrap();
        s.set_field(cons, "a", Value::Int(41)).unwrap();
        s.run(cons).unwrap();
        assert_eq!(s.get_field(cons, "a").unwrap(), Value::Int(42), "{backend}");
    }
}

#[test]
fn runtime_failures_are_typed_runtime_errors() {
    // `Cons` recurses through `next`, which stays null: guaranteed null
    // dereference on both backends.
    let src = r#"
        tree class N {
            child N* next;
            int a = 0;
            virtual traversal t() {}
        }
        tree class C : N { traversal t() { a = this->next.a + 1; } }
        tree class E : N { }
    "#;
    for backend in [Backend::Interp, Backend::Vm] {
        let engine = Engine::builder()
            .source(src)
            .entry("N", &["t"])
            .backend(backend)
            .build()
            .unwrap();
        let mut s = engine.session();
        let root = s.alloc("C").unwrap();
        let err = s.run(root).unwrap_err();
        assert!(err.is_runtime(), "{backend}: {err}");
        assert_eq!(err.stage(), Stage::Runtime);
        assert!(err.to_string().contains("null"), "{backend}: {err}");
    }
}

#[test]
fn engine_level_pures_args_and_cache_flow_into_sessions() {
    let src = r#"
        pure int magic(int x);
        tree class N {
            child N* next;
            int a = 0;
            virtual traversal t(int seed) {}
        }
        tree class C : N { traversal t(int seed) { a = magic(seed); } }
        tree class E : N { }
    "#;
    let mut pures = PureRegistry::with_math();
    pures.register("magic", |a| Value::Int(a[0].as_i64() * 7));
    let engine = Engine::builder()
        .source(src)
        .entry("N", &["t"])
        .pures(pures)
        .args(vec![vec![Value::Int(6)]])
        .cache(CacheHierarchy::tiny())
        .build()
        .unwrap();

    let mut s = engine.session();
    let root = s.alloc("C").unwrap();
    let report = s.run(root).unwrap();
    assert_eq!(s.get_field(root, "a").unwrap(), Value::Int(42));
    assert!(
        report.cache.is_some(),
        "engine-level cache prototype applies"
    );
}

/// Counts in `G` the traversals that ran. The `if` may return early, so
/// no VM guard folds away.
const COUNT: &str =
    "global int G = 0; tree class N { traversal t() { if (G > 1000) { return; } G = G + 1; } }";

fn count_traversals(
    copies: usize,
    fusion: FusionOptions,
    backend: Backend,
) -> Result<Value, grafter::Error> {
    let engine = Engine::builder()
        .source(COUNT)
        .entry("N", &vec!["t"; copies])
        .fusion(fusion)
        .backend(backend)
        .build()?;
    let mut s = engine.session();
    let root = s.alloc("N")?;
    Ok(s.run(root)?.global("G").expect("G is declared"))
}

#[test]
fn fused_functions_hold_up_to_sixty_four_traversals() {
    let wide = FusionOptions {
        max_group_size: 65,
        ..FusionOptions::default()
    };
    for backend in [Backend::Interp, Backend::Vm] {
        let fused = count_traversals(64, FusionOptions::default(), backend);
        assert_eq!(fused.unwrap(), Value::Int(64), "{backend}");
        let err = count_traversals(65, FusionOptions::default(), backend).unwrap_err();
        assert_eq!(err.stage(), Stage::Fuse, "{backend}: {err}");
        let err = count_traversals(1, wide.clone(), backend).unwrap_err();
        assert_eq!(err.stage(), Stage::Fuse, "{backend}: {err}");
        let unfused = count_traversals(65, FusionOptions::unfused(), backend);
        assert_eq!(unfused.unwrap(), Value::Int(65), "{backend}");
    }
}

#[test]
fn run_batch_preserves_input_order_and_matches_sequential() {
    let engine = list_engine(Backend::Vm);
    // Different-sized chains so each slot's report is distinguishable.
    let sizes: Vec<usize> = (1..=12).collect();
    let inputs: Vec<_> = sizes
        .iter()
        .map(|&n| move |heap: &mut Heap| build_chain(heap, n))
        .collect();
    let sequential: Vec<_> = sizes
        .iter()
        .map(|&n| {
            let mut s = engine.session();
            let root = s.build_tree(|heap| build_chain(heap, n));
            s.run(root).unwrap()
        })
        .collect();
    for workers in [1, 4, 8] {
        let inputs = inputs.clone();
        let batch = engine
            .run_batch_with(inputs, &BatchOptions::with_workers(workers))
            .unwrap();
        assert_eq!(batch, sequential, "{workers} workers");
        for (report, &n) in batch.iter().zip(&sizes) {
            assert_eq!(report.metrics.visits, n as u64 + 1);
        }
    }
    assert!(engine
        .run_batch::<fn(&mut Heap) -> NodeId>(Vec::new())
        .unwrap()
        .is_empty());
}

#[test]
fn empty_batch_returns_no_reports() {
    let engine = list_engine(Backend::Interp);
    let none: Vec<fn(&mut Heap) -> NodeId> = Vec::new();
    assert!(engine.run_batch(none).unwrap().is_empty());
    // The worker clamp (`opts.workers.clamp(1, n)`) panics when `n == 0`;
    // the empty batch must short-circuit before it, whatever the
    // configured worker count.
    for workers in [0, 1, 8] {
        let none: Vec<fn(&mut Heap) -> NodeId> = Vec::new();
        assert!(engine
            .try_run_batch(none, &BatchOptions::with_workers(workers))
            .is_empty());
    }
    // workers == 0 on a nonempty batch clamps up to one worker.
    let one = vec![|heap: &mut Heap| build_chain(heap, 3)];
    let reports = engine
        .run_batch_with(one, &BatchOptions::with_workers(0))
        .unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].metrics.visits, 4);
}

#[test]
fn session_reset_reuses_the_arena_bit_identically() {
    for backend in [Backend::Interp, Backend::Vm] {
        let engine = list_engine(backend);
        // One pooled session serving several requests...
        let mut pooled = engine.session();
        let mut served = Vec::new();
        for _ in 0..3 {
            pooled.reset();
            let root = pooled.build_tree(|h| build_chain(h, 8));
            served.push((pooled.run(root).unwrap(), pooled.snapshot(root)));
        }
        // ...must be indistinguishable from a fresh session per request.
        let mut fresh = engine.session();
        let root = fresh.build_tree(|h| build_chain(h, 8));
        let expect = (fresh.run(root).unwrap(), fresh.snapshot(root));
        for got in &served {
            assert_eq!(got, &expect, "{backend:?}");
        }
    }
}

#[test]
fn try_run_batch_keeps_per_input_failures() {
    let src = r#"
        tree class N {
            child N* next;
            int a = 0;
            virtual traversal t() {}
        }
        tree class C : N { traversal t() { a = this->next.a + 1; } }
        tree class E : N { }
    "#;
    let engine = Engine::builder()
        .source(src)
        .entry("N", &["t"])
        .build()
        .unwrap();
    // Input 0 and 2 null-deref; input 1 is fine.
    let mk_bad = |heap: &mut Heap| heap.alloc_by_name("C").unwrap();
    let mk_ok = |heap: &mut Heap| {
        let e = heap.alloc_by_name("E").unwrap();
        let c = heap.alloc_by_name("C").unwrap();
        heap.set_child_by_name(c, "next", Some(e)).unwrap();
        c
    };
    let inputs: Vec<BoxedInput> = vec![Box::new(mk_bad), Box::new(mk_ok), Box::new(mk_bad)];
    let results = engine.try_run_batch(inputs, &BatchOptions::with_workers(3));
    assert_eq!(results.len(), 3);
    assert!(results[0].is_err() && results[2].is_err());
    assert!(results[1].is_ok());
    assert!(results[0].as_ref().unwrap_err().is_runtime());

    // run_batch surfaces the first failure by *input* order.
    let inputs: Vec<BoxedInput> = vec![Box::new(mk_ok), Box::new(mk_bad)];
    let err = engine.run_batch(inputs).unwrap_err();
    assert!(err.is_runtime());
}

#[test]
fn warnings_survive_to_the_engine_deduplicated() {
    let src = format!("pure int mystery(int x);\n{LIST}");
    let engine = Engine::builder()
        .source(src)
        .entry("Node", &["incA"])
        .build()
        .unwrap();
    assert_eq!(engine.warnings().len(), 1);
    assert!(engine.warnings()[0].message.contains("never called"));
}

#[test]
fn opt_level_defaults_to_o2_and_is_configurable() {
    use grafter_engine::OptLevel;

    let default = list_engine(Backend::Vm);
    assert_eq!(default.opt_level(), OptLevel::O2);
    assert_eq!(default.module().unwrap().opt_report().level, OptLevel::O2);

    let o0 = Engine::builder()
        .source(LIST)
        .entry("Node", &["incA", "incB"])
        .backend(Backend::Vm)
        .opt_level(OptLevel::O0)
        .build()
        .unwrap();
    assert_eq!(o0.opt_level(), OptLevel::O0);
    assert!(o0.module().unwrap().opt_report().passes.is_empty());
    // Optimization strictly shrinks this module (superinstructions fire
    // on the increment-and-recurse bodies).
    assert!(default.module().unwrap().n_ops() < o0.module().unwrap().n_ops());
}

#[test]
fn opt_level_is_excluded_from_report_equality() {
    use grafter_engine::OptLevel;

    let run_at = |level: OptLevel| {
        let engine = Engine::builder()
            .source(LIST)
            .entry("Node", &["incA", "incB"])
            .backend(Backend::Vm)
            .opt_level(level)
            .build()
            .unwrap();
        let mut session = engine.session();
        let root = session.build_tree(|h| build_chain(h, 16));
        let report = session.run(root).expect("runs");
        (report, session.snapshot(root))
    };
    let (r0, s0) = run_at(OptLevel::O0);
    let (r2, s2) = run_at(OptLevel::O2);
    assert_eq!(r0.opt_level, OptLevel::O0);
    assert_eq!(r2.opt_level, OptLevel::O2);
    // The optimizer's bit-identity contract, observed through the API.
    assert_eq!(r0, r2);
    assert_eq!(s0, s2);
    // Display names the tier and level for VM runs.
    assert!(format!("{r2}").starts_with("[vm O2]"));
}

#[test]
fn runs_read_forty_thousand_globals_back_in_linear_time_on_both_tiers() {
    // Each run reads every global back for its Report. Looked up by name,
    // that was quadratic in the globals: `grafterc --run` on one node of
    // this program took 1.9 s on the VM and 3.1 s on the interpreter in a
    // release build on a 2-vCPU Xeon. Read by id, it takes milliseconds.
    const N: usize = 40_000;
    let mut src: String = (0..N)
        .map(|i| format!("global int g{i} = {i};\n"))
        .collect();
    src.push_str("tree class C { int x = 0; traversal t() { g39999 = 7; x = g1 + 1; } }");
    for backend in [Backend::Vm, Backend::Interp] {
        let engine = Engine::builder()
            .source(src.as_str())
            .entry("C", &["t"])
            .backend(backend)
            .build()
            .unwrap();
        let mut session = engine.session();
        let root = session.alloc("C").unwrap();
        let t0 = std::time::Instant::now();
        let report = session.run(root).unwrap();
        let took = t0.elapsed();
        assert!(
            took < std::time::Duration::from_secs(1),
            "{backend}: run took {took:?}"
        );
        assert_eq!(report.globals.len(), N, "{backend}");
        assert_eq!(
            report.globals[2],
            ("g2".to_string(), Value::Int(2)),
            "{backend}"
        );
        assert_eq!(
            report.globals[N - 1],
            ("g39999".to_string(), Value::Int(7)),
            "{backend}"
        );
    }
}

#[test]
fn struct_globals_report_every_member_on_both_tiers() {
    // A struct global is one frame slot per member; reported by declared
    // name, only `P`'s first member showed, and the write to `P.y`
    // reached no report.
    const SRC: &str = "struct Pt { int x; int y; } global Pt P; global int Q = 3; \
        tree class C { int v = 0; traversal t() { P.y = 41; P.x = 2; v = P.y + Q; } }";
    let expected = [("P.x", 2), ("P.y", 41), ("Q", 3)]
        .map(|(name, v)| (name.to_string(), Value::Int(v)))
        .to_vec();
    for backend in [Backend::Vm, Backend::Interp] {
        let engine = Engine::builder()
            .source(SRC)
            .entry("C", &["t"])
            .backend(backend)
            .build()
            .unwrap();
        let mut session = engine.session();
        let root = session.alloc("C").unwrap();
        let report = session.run(root).unwrap();
        assert_eq!(report.globals, expected, "{backend}");
        assert_eq!(report.global("P.y"), Some(Value::Int(41)), "{backend}");
        assert_eq!(session.get_field(root, "v").unwrap(), Value::Int(44));
        assert!(
            report.to_json().contains(
                r#""globals":[{"name":"P.x","value":2},{"name":"P.y","value":41},{"name":"Q","value":3}]"#
            ),
            "{backend}: {}",
            report.to_json()
        );
    }
}
