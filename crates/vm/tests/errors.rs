//! Runtime error parity: the VM must surface every [`RuntimeError`]
//! variant through the same `DiagnosticBag` `Stage::Runtime` path as the
//! interpreter — one test per variant, each run through the tier-parity
//! harness's error twin, which asserts every tier fails with the
//! identical, expected error.

use grafter::{Compiled, FuseOptions, Stage};
use grafter_engine::{Engine, Report};
use grafter_runtime::{Heap, NodeId, Value};
use grafter_vm::Backend;
use grafter_workloads::harness::{check_error_parity, Entry};

/// Runs `passes` of `src` from root `Node` on every tier and asserts all
/// of them fail with the same runtime error, whose first diagnostic
/// names `needle`.
fn fails(src: &str, passes: &[&str], needle: &str, build: impl Fn(&mut Heap) -> NodeId + Sync) {
    let compiled = Compiled::compile(src).unwrap();
    let configs = [FuseOptions::default()];
    let entry = Entry::new("Node", passes);
    let errors = check_error_parity(src, &compiled, entry, &configs, &[build], needle);
    let bag = errors[0][0].diagnostics();
    assert_eq!(bag[0].stage, Stage::Runtime, "{bag}");
    assert!(
        bag[0].message.contains(needle),
        "expected `{needle}` in `{}`",
        bag[0].message
    );
}

#[test]
fn null_deref_surfaces_identically() {
    // `Next.Width` reads through a null child pointer.
    let src = r#"
        tree class Node {
            child Node* next;
            int w = 0;
            virtual traversal sum() {}
        }
        tree class Cons : Node {
            traversal sum() {
                this->next->sum();
                w = next.w + 1;
            }
        }
        tree class End : Node { }
    "#;
    let build = |heap: &mut Heap| heap.alloc_by_name("Cons").unwrap();
    fails(src, &["sum"], "null child dereferenced", build);
}

#[test]
fn missing_pure_surfaces_identically() {
    let src = r#"
        pure int mystery(int x);
        tree class Node {
            child Node* next;
            int v = 0;
            virtual traversal go() {}
        }
        tree class Cons : Node {
            traversal go() { v = mystery(v); this->next->go(); }
        }
        tree class End : Node { }
    "#;
    let build = |heap: &mut Heap| {
        let end = heap.alloc_by_name("End").unwrap();
        let c = heap.alloc_by_name("Cons").unwrap();
        heap.set_child_by_name(c, "next", Some(end)).unwrap();
        c
    };
    let needle = "pure function `mystery` has no native implementation";
    fails(src, &["go"], needle, build);
}

#[test]
fn missing_target_surfaces_identically() {
    // `Stray` lives in a disjoint hierarchy: the entry stub's jump table
    // has no row for it, so dispatching on a Stray root fails.
    let src = r#"
        tree class Node {
            child Node* next;
            int a = 0;
            virtual traversal go() {}
        }
        tree class Cons : Node {
            traversal go() { a = a + 1; this->next->go(); }
        }
        tree class End : Node { }
        tree class Stray {
            int b = 0;
            virtual traversal other() {}
        }
    "#;
    let build = |heap: &mut Heap| heap.alloc_by_name("Stray").unwrap();
    fails(
        src,
        &["go"],
        "no fused function for dynamic type `Stray`",
        build,
    );
}

#[test]
fn not_a_ref_surfaces_identically() {
    // Heap corruption: a child slot overwritten with an integer.
    let src = r#"
        tree class Node {
            child Node* next;
            int a = 0;
            virtual traversal go() {}
        }
        tree class Cons : Node {
            traversal go() { a = a + 1; this->next->go(); }
        }
        tree class End : Node { }
    "#;
    let build = |heap: &mut Heap| {
        let c = heap.alloc_by_name("Cons").unwrap();
        heap.set_by_name(c, "next", Value::Int(7)).unwrap();
        c
    };
    fails(src, &["go"], "child slot does not hold a reference", build);
}

#[test]
fn a_wrong_class_child_below_the_api_fails_identically() {
    // `Heap::set_child_by_name` skips the class check `Session::set_child`
    // makes, so `next` can hold an `Other`, which has no slot for `a` or
    // `next`. Reading or writing `next.a`, navigating on from it, and
    // `delete` or `new` below it must then fail with the same typed
    // error on both tiers and in both build profiles, never touch
    // another field.
    for (body, field) in [
        ("a = next.a + 1;", "a"),
        ("next.a = 1;", "a"),
        ("a = this->next->next.a;", "next"),
        ("delete this->next->next;", "next"),
        ("this->next->next = new End();", "next"),
    ] {
        let needle = format!("a node of class `Other` has no field `{field}`");
        let src = format!(
            "tree class Node {{ child Node* next; int a = 0; virtual traversal go() {{}} }}
             tree class Cons : Node {{ traversal go() {{ {body} }} }}
             tree class End : Node {{ }}
             tree class Other {{ int b = 0; int c = 0; virtual traversal t() {{}} }}"
        );
        fails(&src, &["go"], &needle, |heap| {
            let other = heap.alloc_by_name("Other").unwrap();
            let cons = heap.alloc_by_name("Cons").unwrap();
            heap.set_child_by_name(cons, "next", Some(other)).unwrap();
            cons
        });
    }
}

/// Builds `src` (entry `N.t`) on both tiers: the VM build must fail at the
/// lowering stage naming `limit`, and the interpreter must still run it.
fn past_a_bytecode_limit(src: &str, limit: &str) -> Report {
    let compiled = Compiled::compile(src).unwrap();
    let build = |backend: Backend| {
        Engine::builder()
            .compiled(compiled.clone())
            .entry("N", &["t"])
            .backend(backend)
            .build()
    };
    let err = build(Backend::Vm).expect_err("the VM tier rejects the program");
    assert_eq!(err.stage(), Stage::Lower, "{err}");
    assert!(err.is_compile(), "{err}");
    assert!(
        err.to_string().contains(limit),
        "expected `{limit}` in `{err}`"
    );
    let engine = build(Backend::Interp).expect("the interpreter tier builds");
    engine
        .session()
        .run_input(|heap| heap.alloc_by_name("N").unwrap())
        .expect("the interpreter runs the program")
}

#[test]
fn a_constant_pool_past_the_bytecode_limit_is_a_lower_error() {
    // 70,000 distinct literals: a truncated pool index would run
    // `G = 4464` last.
    let stmts: String = (1..=70_000).map(|i| format!("G = {i}; ")).collect();
    let src = format!("global int G = 0;\ntree class N {{ virtual traversal t() {{ {stmts} }} }}");
    let report = past_a_bytecode_limit(&src, "constant pool");
    assert!(report
        .globals
        .contains(&("G".to_string(), Value::Int(70_000))));
}

#[test]
fn registers_past_the_bytecode_limit_are_a_lower_error() {
    let locals: String = (0..70_000).map(|i| format!("int l{i}; ")).collect();
    let src = format!("tree class N {{ virtual traversal t() {{ {locals} }} }}");
    past_a_bytecode_limit(&src, "register number");
}
