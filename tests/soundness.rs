//! Randomised soundness testing: for randomly generated traversal
//! programs and random input trees, the fused execution must leave the
//! tree in exactly the state the unfused execution does (the paper's
//! central soundness claim, §3.3).
//!
//! Programs are drawn from a template family over a `Node / Cons / End`
//! list skeleton: each traversal is a random sequence of field updates,
//! cross-node reads/writes, conditional early returns, and recursive calls
//! (possibly mutually recursive into the other generated traversals, and
//! placed pre-, mid- or post-order). This exercises statement reordering,
//! call grouping, type-specific partial fusion and truncation together.
//!
//! Originally written against proptest; the build environment is offline,
//! so cases are drawn from the vendored deterministic `rand` shim with
//! fixed seeds, and every run is identical. Every program runs through
//! the tier-parity harness (`grafter_workloads::harness::check_parity`),
//! so the interpreter, VM-O0 and VM-O2 must also agree with each other.

use grafter::{Compiled, FuseOptions};
use grafter_runtime::{Heap, NodeId, Value};
use grafter_workloads::harness::{check_parity, fused_and_unfused, Entry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated simple statement.
#[derive(Clone, Debug)]
enum Tmpl {
    /// `<f1> = <f2> + k;`
    SelfRmw(usize, usize, i64),
    /// `<f1> = this->next.<f2> + k;` (pull up)
    PullUp(usize, usize, i64),
    /// `this->next.<f1> = <f2>;` (push down)
    PushDown(usize, usize),
    /// `if (stop) { return; }`
    CondReturn,
    /// `if (<f1> > k) { <f2> = <f3> - 1; }`
    CondUpdate(usize, usize, usize, i64),
}

const FIELDS: [&str; 3] = ["a", "b", "c"];

impl Tmpl {
    fn random(rng: &mut StdRng) -> Tmpl {
        match rng.gen_range(0..5usize) {
            0 => Tmpl::SelfRmw(
                rng.gen_range(0..3),
                rng.gen_range(0..3),
                rng.gen_range(-3..4),
            ),
            1 => Tmpl::PullUp(
                rng.gen_range(0..3),
                rng.gen_range(0..3),
                rng.gen_range(-3..4),
            ),
            2 => Tmpl::PushDown(rng.gen_range(0..3), rng.gen_range(0..3)),
            3 => Tmpl::CondReturn,
            _ => Tmpl::CondUpdate(
                rng.gen_range(0..3),
                rng.gen_range(0..3),
                rng.gen_range(0..3),
                rng.gen_range(-2..6),
            ),
        }
    }

    fn render(&self) -> String {
        match *self {
            Tmpl::SelfRmw(f1, f2, k) => {
                format!("{} = {} + {k};", FIELDS[f1 % 3], FIELDS[f2 % 3])
            }
            Tmpl::PullUp(f1, f2, k) => {
                format!("{} = this->next.{} + {k};", FIELDS[f1 % 3], FIELDS[f2 % 3])
            }
            Tmpl::PushDown(f1, f2) => {
                format!("this->next.{} = {};", FIELDS[f1 % 3], FIELDS[f2 % 3])
            }
            Tmpl::CondReturn => "if (stop) { return; }".into(),
            Tmpl::CondUpdate(f1, f2, f3, k) => format!(
                "if ({} > {k}) {{ {} = {} - 1; }}",
                FIELDS[f1 % 3],
                FIELDS[f2 % 3],
                FIELDS[f3 % 3]
            ),
        }
    }
}

/// A generated traversal: statements plus recursion positions.
#[derive(Clone, Debug)]
struct GenTraversal {
    stmts: Vec<Tmpl>,
    /// Where the self-recursion call goes (index into stmts, clamped).
    recurse_at: usize,
    /// Optionally also call this other traversal index on next.
    also_call: Option<usize>,
}

impl GenTraversal {
    fn random(rng: &mut StdRng) -> GenTraversal {
        let n = rng.gen_range(1..5usize);
        GenTraversal {
            stmts: (0..n).map(|_| Tmpl::random(rng)).collect(),
            recurse_at: rng.gen_range(0..5usize),
            also_call: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0..3usize))
            } else {
                None
            },
        }
    }
}

/// Renders the whole program for `n` generated traversals.
fn render_program(traversals: &[GenTraversal]) -> String {
    let mut src = String::from(
        "tree class Node {\n  child Node* next;\n  int a = 0; int b = 0; int c = 0;\n  bool stop = false;\n",
    );
    for i in 0..traversals.len() {
        src.push_str(&format!("  virtual traversal t{i}() {{}}\n"));
    }
    src.push_str("}\ntree class Cons : Node {\n");
    for (i, t) in traversals.iter().enumerate() {
        src.push_str(&format!("  traversal t{i}() {{\n"));
        let at = t.recurse_at.min(t.stmts.len());
        for (j, s) in t.stmts.iter().enumerate() {
            if j == at {
                src.push_str(&format!("    this->next->t{i}();\n"));
                if let Some(o) = t.also_call {
                    let o = o % traversals.len();
                    src.push_str(&format!("    this->next->t{o}();\n"));
                }
            }
            src.push_str(&format!("    {}\n", s.render()));
        }
        if at >= t.stmts.len() {
            src.push_str(&format!("    this->next->t{i}();\n"));
            if let Some(o) = t.also_call {
                let o = o % traversals.len();
                src.push_str(&format!("    this->next->t{o}();\n"));
            }
        }
        src.push_str("  }\n");
    }
    src.push_str("}\ntree class End : Node { }\n");
    src
}

fn random_list(rng: &mut StdRng) -> Vec<(i64, i64, i64, bool)> {
    let n = rng.gen_range(1..10usize);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(-5..6),
                rng.gen_range(-5..6),
                rng.gen_range(-5..6),
                rng.gen_bool(0.15),
            )
        })
        .collect()
}

/// Builds `list` as a chain of `Cons` cells ending in an `End`.
fn build_list(heap: &mut Heap, list: &[(i64, i64, i64, bool)]) -> NodeId {
    let mut cur = heap.alloc_by_name("End").unwrap();
    for &(a, b, c, stop) in list.iter().rev() {
        let n = heap.alloc_by_name("Cons").unwrap();
        heap.set_by_name(n, "a", Value::Int(a)).unwrap();
        heap.set_by_name(n, "b", Value::Int(b)).unwrap();
        heap.set_by_name(n, "c", Value::Int(c)).unwrap();
        heap.set_by_name(n, "stop", Value::Bool(stop)).unwrap();
        heap.set_child_by_name(n, "next", Some(cur)).unwrap();
        cur = n;
    }
    cur
}

fn random_traversals(rng: &mut StdRng, max: usize) -> Vec<GenTraversal> {
    let n = rng.gen_range(1..max);
    (0..n).map(|_| GenTraversal::random(rng)).collect()
}

/// Checks one generated program under `configs` on one list.
fn check(
    case: usize,
    traversals: &[GenTraversal],
    list: &[(i64, i64, i64, bool)],
    configs: &[FuseOptions],
) {
    let src = render_program(traversals);
    let compiled = Compiled::compile(src.as_str()).expect("generated programs are valid");
    let names: Vec<String> = (0..traversals.len()).map(|i| format!("t{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let tree = |heap: &mut Heap| build_list(heap, list);
    check_parity(
        &format!("case {case}; program:\n{src}"),
        &compiled,
        Entry::new("Node", &name_refs),
        configs,
        &[tree],
    );
}

#[test]
fn fused_equals_unfused_on_random_programs() {
    let mut rng = StdRng::seed_from_u64(0x5041_4C44);
    for case in 0..48 {
        let traversals = random_traversals(&mut rng, 4);
        let list = random_list(&mut rng);
        check(case, &traversals, &list, &fused_and_unfused());
    }
}

#[test]
fn fusion_terminates_on_recursive_schedules() {
    // Even adversarial multi-call programs must terminate fusion with
    // a bounded function count (the §4 cutoffs).
    let mut rng = StdRng::seed_from_u64(0x4652_4545);
    for case in 0..48 {
        let traversals = random_traversals(&mut rng, 3);
        let src = render_program(&traversals);
        let compiled = Compiled::compile(src.as_str()).expect("generated programs are valid");
        let names: Vec<String> = (0..traversals.len()).map(|i| format!("t{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let fused = compiled.fuse_default("Node", &name_refs).unwrap();
        let n = fused.metrics().functions;
        assert!(n < 2_000, "case {case}: got {n}");
    }
}

#[test]
fn vm_tiers_match_the_interpreter_on_generated_programs_with_early_returns() {
    // Conditional returns leave fused activations entered with only some
    // of their copies active: the VM's guard folding and its entry-mask
    // clones must still charge, touch and compute what the interpreter
    // does, at O0 and O2.
    let mut rng = StdRng::seed_from_u64(0x4D41_534B);
    for case in 0..120 {
        let traversals = random_traversals(&mut rng, 7);
        let list = random_list(&mut rng);
        check(case, &traversals, &list, &[FuseOptions::default()]);
    }
}
