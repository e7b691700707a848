//! Differential backend testing over the paper's four case studies: for
//! each workload, fused and unfused, the `grafter-vm` bytecode VM must
//! produce exactly the heap state and exactly the metrics (visits,
//! instructions, loads, stores) of the instrumented interpreter.
//!
//! This is the executable statement of the VM's contract: lowering is a
//! pure representation change — same semantics, same cost model, less
//! dispatch overhead. The workload matrix is the shared
//! `grafter_workloads::case_studies()` descriptor, so these tests always
//! cover exactly the configurations the benches measure. The suite also
//! pins the edge semantics both tiers share — runtime-error rendering,
//! division by zero and wrapping overflow — plus a 100k-node deep-spine
//! run on the VM.

use grafter::{Compiled, FuseOptions};
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Engine, Report};
use grafter_runtime::{with_stack, Heap, Metrics, NodeId, SnapValue, Value};
use grafter_vm::Backend;
use grafter_workloads::harness::RUN_STACK;
use grafter_workloads::{case_studies, kdtree};

type Snapshot = Vec<(String, Vec<SnapValue>)>;

/// Both tiers, whose deterministic outcomes must be bit-identical.
const TIERS: [Backend; 2] = [Backend::Interp, Backend::Vm];

/// Runs one engine on a freshly built tree.
fn run(
    engine: &Engine,
    build: &dyn Fn(&mut Heap) -> NodeId,
) -> (Vec<(String, Vec<SnapValue>)>, Metrics) {
    let mut session = engine.session();
    let root = session.build_tree(build);
    let report = session.run(root).unwrap();
    (session.snapshot(root), report.metrics)
}

/// Fuses `passes` both ways; for each artifact the two backends must
/// agree on the final tree and on every counter.
fn check_workload(
    name: &str,
    compiled: &Compiled,
    root_class: &str,
    passes: &[&str],
    args: &[Vec<Value>],
    build: &dyn Fn(&mut Heap) -> NodeId,
) {
    let engine_with = |opts: &FuseOptions, backend: Backend| {
        Engine::builder()
            .compiled(compiled.clone())
            .entry(root_class, passes)
            .fusion(opts.clone())
            .backend(backend)
            .args(args.to_vec())
            .build()
            .unwrap()
    };
    for (kind, opts) in [
        ("fused", FuseOptions::default()),
        ("unfused", FuseOptions::unfused()),
    ] {
        let (snap_i, m_i) = run(&engine_with(&opts, Backend::Interp), build);
        let (snap_v, m_v) = run(&engine_with(&opts, Backend::Vm), build);
        assert_eq!(
            snap_i, snap_v,
            "{name}/{kind}: interp and vm heap states diverge"
        );
        assert_eq!(
            m_i.visits, m_v.visits,
            "{name}/{kind}: visit counts diverge"
        );
        assert_eq!(m_i, m_v, "{name}/{kind}: metrics diverge");
    }
}

#[test]
fn all_case_studies_match_interp_fused_and_unfused() {
    with_stack(64 << 20, || {
        for case in case_studies() {
            check_workload(
                case.name,
                &case.compiled,
                case.root_class,
                &case.passes,
                &case.args,
                &|heap| case.build_test(heap),
            );
        }
    });
}

#[test]
fn kdtree_vm_matches_interp_on_every_equation() {
    // Beyond the shared matrix's first equation: all three piecewise
    // schedules of Table 6.
    with_stack(64 << 20, || {
        let compiled = kdtree::compiled();
        for (eq_name, schedule) in kdtree::equation_schedules() {
            let passes: Vec<&str> = schedule.iter().map(|op| op.pass()).collect();
            let args: Vec<Vec<Value>> = schedule.iter().map(|op| op.args()).collect();
            check_workload(
                &format!("kdtree/{eq_name}"),
                &compiled,
                kdtree::ROOT_CLASS,
                &passes,
                &args,
                &|heap| kdtree::build_balanced(heap, 8, 42),
            );
        }
    });
}

#[test]
fn nan_fields_stay_differentially_comparable() {
    // A traversal that manufactures NaN (0.0/0.0) and Inf on the tree:
    // `SnapValue` equality is bit-level, so structurally identical trees
    // carrying NaN must still satisfy the fused==unfused and interp==vm
    // differential contracts instead of spuriously failing on NaN != NaN.
    let src = r#"
        tree class N {
            child N* next;
            float num = 0.0;
            float den = 0.0;
            float q = 0.0;
            virtual traversal divide() {}
            virtual traversal scale() {}
        }
        tree class C : N {
            traversal divide() { q = this->num / this->den; this->next->divide(); }
            traversal scale() { num = this->num * 2.0; this->next->scale(); }
        }
        tree class E : N { }
    "#;
    let compiled = Compiled::compile(src).unwrap();
    let build: &dyn Fn(&mut Heap) -> NodeId = &|heap| {
        // Slot 0: 0.0/0.0 = NaN; slot 1: 1.0/0.0 = Inf; slot 2: finite.
        let nums = [0.0, 1.0, 3.0];
        let dens = [0.0, 0.0, 2.0];
        let mut cur = heap.alloc_by_name("E").unwrap();
        for (&num, &den) in nums.iter().zip(&dens).rev() {
            let c = heap.alloc_by_name("C").unwrap();
            heap.set_by_name(c, "num", Value::Float(num)).unwrap();
            heap.set_by_name(c, "den", Value::Float(den)).unwrap();
            heap.set_child_by_name(c, "next", Some(cur)).unwrap();
            cur = c;
        }
        cur
    };
    check_workload("nan", &compiled, "N", &["divide", "scale"], &[], build);
    // The trees really do carry NaN: snapshots must still self-compare.
    let engine = Engine::builder()
        .compiled(compiled)
        .entry("N", &["divide", "scale"])
        .build()
        .unwrap();
    let (snap, _) = run(&engine, build);
    let q = &snap[0].1[3];
    assert!(
        matches!(q, SnapValue::Float(f) if f.is_nan()),
        "expected NaN in the quotient slot, got {q:?}"
    );
    assert_eq!(snap, snap.clone(), "NaN snapshot must equal itself");
}

#[test]
fn harness_equivalence_holds_on_the_vm_backend() {
    // The workloads harness itself, switched to the VM tier with one
    // argument: fused and unfused VM runs leave identical trees.
    let cases = case_studies();
    let render = &cases[1];
    assert_eq!(render.name, "render");
    let build = render.build;
    let exp = grafter_workloads::harness::Experiment::new(
        render.compiled.clone(),
        render.root_class,
        &render.passes,
        move |heap| build(heap, 10, 7),
    )
    .with_backend(Backend::Vm);
    assert!(exp.check_equivalence());
}

/// One fully instrumented run (cache model attached) on a freshly built
/// tree.
fn run_once(engine: &Engine, build: &dyn Fn(&mut Heap) -> NodeId) -> (Report, Snapshot) {
    let mut session = engine.session().with_cache(CacheHierarchy::xeon());
    let root = session.build_tree(build);
    let report = session.run(root).expect("program runs");
    let snapshot = session.snapshot(root);
    (report, snapshot)
}

/// Asserts `b`'s deterministic outcome is bit-identical to `a`'s.
/// `Report::eq` can't be used directly across tiers — it compares the
/// backend too — so each field is diffed by name for a precise failure.
fn assert_identical(label: &str, a: &(Report, Snapshot), b: &(Report, Snapshot)) {
    assert_eq!(a.1, b.1, "{label}: heap snapshots diverge");
    assert_eq!(a.0.metrics, b.0.metrics, "{label}: metrics diverge");
    assert_eq!(a.0.cache, b.0.cache, "{label}: cache traffic diverges");
    assert_eq!(a.0.globals, b.0.globals, "{label}: final globals diverge");
}

#[test]
fn vm_matches_interp_cache_traffic_and_globals_on_all_case_studies() {
    with_stack(RUN_STACK, || {
        for case in case_studies() {
            let configs = [
                ("fused", FuseOptions::default()),
                ("unfused", FuseOptions::unfused()),
            ];
            for (kind, opts) in configs {
                let build = |heap: &mut Heap| case.build_test(heap);
                let [interp, vm] =
                    TIERS.map(|backend| run_once(&case.engine_with(opts.clone(), backend), &build));
                let name = case.name;
                assert_identical(&format!("{name}/{kind} interp vs vm"), &interp, &vm);
            }
        }
    });
}

/// Builds an engine for an ad-hoc source on `backend`.
fn adhoc(src: &str, root: &str, passes: &[&str], backend: Backend) -> Engine {
    Engine::builder()
        .source(src)
        .entry(root, passes)
        .backend(backend)
        .build()
        .expect("ad-hoc program compiles")
}

#[test]
fn runtime_errors_render_identically_on_all_tiers() {
    // `this->next->a` in a data access with `next` null is the tiers'
    // canonical runtime failure (a null dereference). Both must fail, at
    // runtime, with the same rendered error.
    let src = r#"
        tree class Node {
            child Node* next;
            int a = 0;
            virtual traversal probe() {}
        }
        tree class Leafless : Node {
            traversal probe() { a = this->next->a; }
        }
    "#;
    let mut rendered = Vec::new();
    for backend in TIERS {
        let engine = adhoc(src, "Node", &["probe"], backend);
        let mut session = engine.session();
        let root = session.build_tree(|heap| heap.alloc_by_name("Leafless").unwrap());
        let err = session
            .run(root)
            .expect_err("null dereference must surface as an error");
        assert!(err.is_runtime(), "{backend}: error stage is not Runtime");
        rendered.push(err.to_string());
    }
    assert_eq!(rendered[0], rendered[1], "interp and vm errors diverge");
    assert!(
        rendered[0].contains("null child dereferenced"),
        "unexpected error text: {}",
        rendered[0]
    );
}

#[test]
fn div_by_zero_and_overflow_semantics_match_across_tiers() {
    // Integer division/remainder by zero yields 0 (deterministic, never
    // a trap), and multiplication and negation wrap in every build
    // profile — on both tiers, bit-identically.
    let src = r#"
        tree class Node {
            child Node* next;
            int q = 0; int r = 0; int big = 0; int neg = 0;
            virtual traversal crunch() {}
        }
        tree class Cell : Node {
            traversal crunch() {
                q = this->q / 0;
                r = this->r % 0;
                big = this->big * this->big;
                neg = -(0 - 9223372036854775807 - 1);
                this->next->crunch();
            }
        }
        tree class End : Node { }
    "#;
    let build = |heap: &mut Heap| {
        let end = heap.alloc_by_name("End").unwrap();
        let cell = heap.alloc_by_name("Cell").unwrap();
        heap.set_by_name(cell, "q", Value::Int(41)).unwrap();
        heap.set_by_name(cell, "r", Value::Int(17)).unwrap();
        heap.set_by_name(cell, "big", Value::Int(i64::MAX)).unwrap();
        heap.set_child_by_name(cell, "next", Some(end)).unwrap();
        cell
    };
    let [interp, vm] =
        TIERS.map(|backend| run_once(&adhoc(src, "Node", &["crunch"], backend), &build));
    assert_identical("div0 interp vs vm", &interp, &vm);
    // And the semantics really are div0 → 0, wrapping multiply and
    // wrapping negation.
    let cell = &interp.1[0].1;
    assert_eq!(cell[1], SnapValue::Int(0), "q = 41 / 0 must yield 0");
    assert_eq!(cell[2], SnapValue::Int(0), "r = 17 % 0 must yield 0");
    assert_eq!(
        cell[3],
        SnapValue::Int(i64::MAX.wrapping_mul(i64::MAX)),
        "big * big must wrap"
    );
    assert_eq!(cell[4], SnapValue::Int(i64::MIN), "-(i64::MIN) must wrap");
}

#[test]
fn deep_spine_100k_nodes_runs_on_the_vm() {
    // A 100_000-node linked spine: the VM must sustain one activation per
    // visit without exhausting the stack.
    const SPINE: usize = 100_000;
    let src = r#"
        tree class Node {
            child Node* next;
            int depth = 0;
            virtual traversal mark() {}
        }
        tree class Cons : Node {
            traversal mark() { depth = this->depth + 1; this->next->mark(); }
        }
        tree class End : Node { }
    "#;
    let build = |heap: &mut Heap| {
        let mut cur = heap.alloc_by_name("End").unwrap();
        for _ in 0..SPINE {
            let cons = heap.alloc_by_name("Cons").unwrap();
            heap.set_child_by_name(cons, "next", Some(cur)).unwrap();
            cur = cons;
        }
        cur
    };
    with_stack(RUN_STACK, move || {
        let vm = run_once(&adhoc(src, "Node", &["mark"], Backend::Vm), &build);
        assert_eq!(
            vm.0.metrics.visits,
            SPINE as u64 + 1,
            "every spine node plus the terminator is visited"
        );
        assert!(
            vm.1[..SPINE]
                .iter()
                .all(|(_, slots)| slots[1] == SnapValue::Int(1)),
            "every Cons carries the incremented depth"
        );
    });
}
