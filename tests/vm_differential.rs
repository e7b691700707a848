//! Differential backend testing of the edge semantics both tiers share:
//! runtime-error rendering, division by zero and wrapping overflow, and
//! NaN-carrying trees. Every program goes through the tier-parity
//! harness, so the interpreter, VM-O0 and VM-O2 must agree on the final
//! tree, `Metrics`, simulated cache traffic and globals; the failing
//! program goes through its error twin, so every tier must fail with the
//! same typed error. The four case studies run through the same
//! harness in `tests/workloads.rs`; here the kd-tree's equations also run
//! under the fusion cutoffs. The suite also runs a 100k-node deep spine
//! on the VM.

use grafter::{Compiled, FuseOptions};
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Backend, Engine};
use grafter_runtime::{Heap, NodeId, SnapValue, Value};
use grafter_workloads::harness::{
    check_error_parity, check_parity, fused_and_unfused, on_run_stack, run, Entry, Parity,
};
use grafter_workloads::{kdtree, render};

/// Checks `passes` of `src` from root `Node` under `configs` on one tree.
fn check(
    label: &str,
    src: &str,
    passes: &[&str],
    configs: &[FuseOptions],
    build: impl Fn(&mut Heap) -> NodeId + Sync,
) -> Vec<Parity> {
    let compiled = Compiled::compile(src).expect("test program compiles");
    check_parity(
        label,
        &compiled,
        Entry::new("Node", passes),
        configs,
        &[build],
    )
}

#[test]
fn kdtree_vm_matches_interp_on_every_equation() {
    // All three piecewise schedules of Table 6, under the two fusion
    // cutoffs: each groups fewer pairs than default fusion, so the tiers
    // run fused code that default fusion never emits. `tests/workloads.rs`
    // runs the same equations fused and unfused.
    let configs = [
        FuseOptions {
            max_group_size: 2,
            ..FuseOptions::default()
        },
        FuseOptions {
            max_occurrences: 1,
            ..FuseOptions::default()
        },
    ];
    let compiled = kdtree::compiled();
    for (eq_name, schedule) in kdtree::equation_schedules() {
        let passes: Vec<&str> = schedule.iter().map(|op| op.pass()).collect();
        let args: Vec<Vec<Value>> = schedule.iter().map(|op| op.args()).collect();
        let entry = Entry {
            root_class: kdtree::ROOT_CLASS,
            passes: &passes,
            args: &args,
        };
        let tree = |heap: &mut Heap| kdtree::build_balanced(heap, 8, 42);
        let label = format!("kdtree/{eq_name}");
        let default = compiled
            .fuse_default(kdtree::ROOT_CLASS, &passes)
            .expect("kdtree fuses")
            .fused_program()
            .coverage;
        for parity in check_parity(&label, &compiled, entry, &configs, &[tree]) {
            let coverage = parity.interp.fused_program().coverage;
            assert!(
                coverage.fused_pairs < default.fused_pairs,
                "{label} {:?}: the cutoff groups as many pairs as default fusion",
                parity.opts
            );
        }
    }
}

#[test]
fn nan_fields_stay_differentially_comparable() {
    // A traversal that manufactures NaN (0.0/0.0) and Inf on the tree:
    // `SnapValue` equality is bit-level, so structurally identical trees
    // carrying NaN must still satisfy the fused==unfused and interp==vm
    // differential contracts instead of spuriously failing on NaN != NaN.
    let src = r#"
        tree class Node {
            child Node* next;
            float num = 0.0;
            float den = 0.0;
            float q = 0.0;
            virtual traversal divide() {}
            virtual traversal scale() {}
        }
        tree class C : Node {
            traversal divide() { q = this->num / this->den; this->next->divide(); }
            traversal scale() { num = this->num * 2.0; this->next->scale(); }
        }
        tree class E : Node { }
    "#;
    let build = |heap: &mut Heap| {
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
    let parities = check(
        "nan",
        src,
        &["divide", "scale"],
        &fused_and_unfused(),
        build,
    );
    // The trees really do carry NaN: snapshots must still self-compare.
    let snap = &parities[0].agreed[0].snapshot;
    let q = &snap[0].1[3];
    assert!(
        matches!(q, SnapValue::Float(f) if f.is_nan()),
        "expected NaN in the quotient slot, got {q:?}"
    );
    assert_eq!(snap, &snap.clone(), "NaN snapshot must equal itself");
}

#[test]
fn harness_equivalence_holds_on_the_vm_backend() {
    // A render document off the case-study matrix's size and seed: fused
    // and unfused runs leave identical trees on every tier.
    let entry = Entry::new(render::ROOT_CLASS, &render::PASSES);
    let tree = |heap: &mut Heap| render::build_document(heap, 10, 7);
    check_parity(
        "render 10/7",
        &render::compiled(),
        entry,
        &fused_and_unfused(),
        &[tree],
    );
}

#[test]
fn runtime_errors_render_identically_on_all_tiers() {
    // `this->next->a` in a data access with `next` null is the tiers'
    // canonical runtime failure (a null dereference). Every tier must
    // fail, at runtime, with the same rendered error.
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
    let build = |heap: &mut Heap| heap.alloc_by_name("Leafless").unwrap();
    let compiled = Compiled::compile(src).expect("test program compiles");
    let errors = check_error_parity(
        "null",
        &compiled,
        Entry::new("Node", &["probe"]),
        &[FuseOptions::default()],
        &[build],
        "null child dereferenced",
    );
    let err = &errors[0][0];
    assert!(err.is_runtime(), "error stage is not Runtime: {err}");
}

#[test]
fn div_by_zero_and_overflow_semantics_match_across_tiers() {
    // Integer division/remainder by zero yields 0 (deterministic, never
    // a trap), and multiplication and negation wrap in every build
    // profile — on every tier, bit-identically.
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
    let parities = check("div0", src, &["crunch"], &[FuseOptions::default()], build);
    // And the semantics really are div0 → 0, wrapping multiply and
    // wrapping negation.
    let cell = &parities[0].agreed[0].snapshot[0].1;
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
    // visit without exhausting the stack. Only VM-O2 runs it: through the
    // harness, five 100k-deep runs in a debug build take twice as long.
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
    let engine = Engine::builder()
        .source(src)
        .entry("Node", &["mark"])
        .backend(Backend::Vm)
        .build()
        .unwrap();
    let mut session = engine.session().with_cache(CacheHierarchy::xeon());
    let (report, snapshot) = on_run_stack(|| run(&mut session, build)).expect("spine runs");
    assert_eq!(
        report.metrics.visits,
        SPINE as u64 + 1,
        "every spine node plus the terminator is visited"
    );
    assert!(
        snapshot[..SPINE]
            .iter()
            .all(|(_, slots)| slots[1] == SnapValue::Int(1)),
        "every Cons carries the incremented depth"
    );
}
