//! Case study 3 (§5.3): piecewise functions over kd-trees (MADNESS-style).
//!
//! A single-variable function over a domain is represented by a binary
//! space-partitioning tree: inner nodes split the domain, leaves hold the
//! coefficients of a cubic polynomial approximating the function on their
//! sub-domain. Mathematical operations are traversals (Table 5):
//!
//! | op | semantics |
//! |---|---|
//! | `scale(c)` | `f := c·f` |
//! | `addConst(c)` | `f := f + c` |
//! | `square()` | `f := f·f` (degree-truncated to cubic) |
//! | `differentiate()` | `f := f'` |
//! | `addRange(c,a,b)` | `f := f + c·(u(a)−u(b))` |
//! | `refine(a,b)` | *splits* leaves straddling `a` or `b` (adaptive refinement) |
//! | `multXRange(a,b)` | `f := x·f` within `[a,b]` (leaves must be refined) |
//! | `addXRange(a,b)` | `f := f + x` within `[a,b]` |
//! | `integrate(a,b)` | accumulates `∫f` into a global |
//! | `project(x0)` | accumulates `f(x0)` into a global |
//!
//! Like MADNESS's fixed-order multiwavelet representation, products are
//! truncated to the representation order (here: cubic). Range operators
//! follow MADNESS's refine-then-operate discipline: `refine` splits any
//! leaf straddling a range boundary (topology mutation, performed by the
//! *parent* inner node since Grafter nodes cannot replace themselves, with
//! `kind` tags for the dynamic type test); the arithmetic operators are
//! then purely local to each leaf, which is what lets whole Table 6
//! schedules fuse into one or two passes.

use grafter::pipeline::Compiled;
use grafter_frontend::Program;
use grafter_runtime::{Heap, NodeId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kd-tree program in the Grafter DSL.
pub const SOURCE: &str = r#"
global float INTEGRAL = 0.0;
global float PROJECTION = 0.0;

tree class KdNode {
    int kind = 0;      // 0 = inner, 1 = leaf
    float Lo = 0.0;
    float Hi = 0.0;
    virtual traversal scale(float c) {}
    virtual traversal addConst(float c) {}
    virtual traversal square() {}
    virtual traversal differentiate() {}
    virtual traversal addRange(float c, float a, float b) {}
    virtual traversal refine(float a, float b) {}
    virtual traversal multXRange(float a, float b) {}
    virtual traversal addXRange(float a, float b) {}
    virtual traversal integrate(float a, float b) {}
    virtual traversal project(float x0) {}
}

tree class KdInner : KdNode {
    child KdNode* Left;
    child KdNode* Right;
    float Split = 0.0;

    traversal scale(float c) { Left->scale(c); Right->scale(c); }
    traversal addConst(float c) { Left->addConst(c); Right->addConst(c); }
    traversal square() { Left->square(); Right->square(); }
    traversal differentiate() { Left->differentiate(); Right->differentiate(); }
    traversal addRange(float c, float a, float b) {
        Left->addRange(c, a, b);
        Right->addRange(c, a, b);
    }

    traversal refine(float a, float b) {
        // Split children that straddle a range boundary so that every leaf
        // is either inside or outside [a, b] (structural mutation).
        if (Left.kind == 1) {
            KdLeaf* const l = static_cast<KdLeaf*>(this->Left);
            float lo = l.Lo;
            float hi = l.Hi;
            float cut = a;
            if (a <= lo) { cut = b; }
            if (lo < cut && cut < hi) {
                float c0 = l.C0; float c1 = l.C1; float c2 = l.C2; float c3 = l.C3;
                delete this->Left;
                this->Left = new KdInner();
                KdInner* const n = static_cast<KdInner*>(this->Left);
                n.kind = 0;
                n.Lo = lo; n.Hi = hi; n.Split = cut;
                n->Left = new KdLeaf();
                KdLeaf* const nl = static_cast<KdLeaf*>(n->Left);
                nl.kind = 1; nl.Lo = lo; nl.Hi = cut;
                nl.C0 = c0; nl.C1 = c1; nl.C2 = c2; nl.C3 = c3;
                n->Right = new KdLeaf();
                KdLeaf* const nr = static_cast<KdLeaf*>(n->Right);
                nr.kind = 1; nr.Lo = cut; nr.Hi = hi;
                nr.C0 = c0; nr.C1 = c1; nr.C2 = c2; nr.C3 = c3;
            }
        }
        if (Right.kind == 1) {
            KdLeaf* const l = static_cast<KdLeaf*>(this->Right);
            float lo = l.Lo;
            float hi = l.Hi;
            float cut = a;
            if (a <= lo) { cut = b; }
            if (lo < cut && cut < hi) {
                float c0 = l.C0; float c1 = l.C1; float c2 = l.C2; float c3 = l.C3;
                delete this->Right;
                this->Right = new KdInner();
                KdInner* const n = static_cast<KdInner*>(this->Right);
                n.kind = 0;
                n.Lo = lo; n.Hi = hi; n.Split = cut;
                n->Left = new KdLeaf();
                KdLeaf* const nl = static_cast<KdLeaf*>(n->Left);
                nl.kind = 1; nl.Lo = lo; nl.Hi = cut;
                nl.C0 = c0; nl.C1 = c1; nl.C2 = c2; nl.C3 = c3;
                n->Right = new KdLeaf();
                KdLeaf* const nr = static_cast<KdLeaf*>(n->Right);
                nr.kind = 1; nr.Lo = cut; nr.Hi = hi;
                nr.C0 = c0; nr.C1 = c1; nr.C2 = c2; nr.C3 = c3;
            }
        }
        Left->refine(a, b);
        Right->refine(a, b);
    }

    traversal multXRange(float a, float b) {
        Left->multXRange(a, b);
        Right->multXRange(a, b);
    }

    traversal addXRange(float a, float b) {
        Left->addXRange(a, b);
        Right->addXRange(a, b);
    }
    traversal integrate(float a, float b) {
        Left->integrate(a, b);
        Right->integrate(a, b);
    }
    traversal project(float x0) {
        Left->project(x0);
        Right->project(x0);
    }
}

tree class KdLeaf : KdNode {
    float C0 = 0.0;
    float C1 = 0.0;
    float C2 = 0.0;
    float C3 = 0.0;

    traversal scale(float c) {
        C0 = C0 * c; C1 = C1 * c; C2 = C2 * c; C3 = C3 * c;
    }
    traversal addConst(float c) { C0 = C0 + c; }
    traversal square() {
        // (c0 + c1 x + c2 x^2 + c3 x^3)^2, truncated to cubic order.
        float a0 = C0; float a1 = C1; float a2 = C2; float a3 = C3;
        C0 = a0 * a0;
        C1 = 2.0 * a0 * a1;
        C2 = 2.0 * a0 * a2 + a1 * a1;
        C3 = 2.0 * a0 * a3 + 2.0 * a1 * a2;
    }
    traversal differentiate() {
        C0 = C1;
        C1 = 2.0 * C2;
        C2 = 3.0 * C3;
        C3 = 0.0;
    }
    traversal addRange(float c, float a, float b) {
        if (Lo >= a && Hi <= b) { C0 = C0 + c; }
    }
    traversal refine(float a, float b) { }
    traversal multXRange(float a, float b) {
        // Leaves fully inside [a, b] get f := x·f (degree-truncated);
        // straddling leaves were split by a preceding refine pass.
        if (Lo >= a && Hi <= b) {
            C3 = C2;
            C2 = C1;
            C1 = C0;
            C0 = 0.0;
        }
    }
    traversal addXRange(float a, float b) {
        if (Lo >= a && Hi <= b) { C1 = C1 + 1.0; }
    }
    traversal integrate(float a, float b) {
        float lo = Lo;
        float hi = Hi;
        if (a > lo) { lo = a; }
        if (b < hi) { hi = b; }
        if (lo < hi) {
            float upper = C0 * hi + C1 * hi * hi / 2.0 + C2 * hi * hi * hi / 3.0 + C3 * hi * hi * hi * hi / 4.0;
            float lower = C0 * lo + C1 * lo * lo / 2.0 + C2 * lo * lo * lo / 3.0 + C3 * lo * lo * lo * lo / 4.0;
            INTEGRAL = INTEGRAL + upper - lower;
        }
    }
    traversal project(float x0) {
        if (Lo <= x0 && x0 < Hi) {
            PROJECTION = PROJECTION + C0 + C1 * x0 + C2 * x0 * x0 + C3 * x0 * x0 * x0;
        }
    }
}
"#;

/// Root class operations are invoked on.
pub const ROOT_CLASS: &str = "KdNode";

/// An operation of Table 5, with its arguments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Scale(f64),
    AddConst(f64),
    Square,
    Differentiate,
    AddRange(f64, f64, f64),
    Refine(f64, f64),
    MultXRange(f64, f64),
    AddXRange(f64, f64),
    Integrate(f64, f64),
    Project(f64),
}

impl Op {
    /// The traversal name the op dispatches to.
    pub fn pass(&self) -> &'static str {
        match self {
            Op::Scale(_) => "scale",
            Op::AddConst(_) => "addConst",
            Op::Square => "square",
            Op::Differentiate => "differentiate",
            Op::AddRange(..) => "addRange",
            Op::Refine(..) => "refine",
            Op::MultXRange(..) => "multXRange",
            Op::AddXRange(..) => "addXRange",
            Op::Integrate(..) => "integrate",
            Op::Project(_) => "project",
        }
    }

    /// Entry arguments for the traversal.
    pub fn args(&self) -> Vec<Value> {
        match *self {
            Op::Scale(c) | Op::AddConst(c) => vec![Value::Float(c)],
            Op::Square | Op::Differentiate => vec![],
            Op::AddRange(c, a, b) => vec![Value::Float(c), Value::Float(a), Value::Float(b)],
            Op::Refine(a, b) | Op::MultXRange(a, b) | Op::AddXRange(a, b) | Op::Integrate(a, b) => {
                vec![Value::Float(a), Value::Float(b)]
            }
            Op::Project(x0) => vec![Value::Float(x0)],
        }
    }
}

/// Domain bound used by the paper's evaluation: `[-1e5, 1e5]`.
pub const DOMAIN: (f64, f64) = (-1e5, 1e5);

/// The three equations of Table 6, as operation schedules.
///
/// 1. `x⁴·(f″(x))² + Σ_{i=0..3} xⁱ`
/// 2. `f⁽⁵⁾(x)|ₓ₌₀`
/// 3. `∫ x³·(f(x)+0.5)²·u(0)`
pub fn equation_schedules() -> Vec<(&'static str, Vec<Op>)> {
    let (lo, hi) = DOMAIN;
    vec![
        (
            "x^4 (f''(x))^2 + sum x^i",
            vec![
                Op::Differentiate,
                Op::Differentiate,
                Op::Square,
                Op::MultXRange(lo, hi),
                Op::MultXRange(lo, hi),
                Op::MultXRange(lo, hi),
                Op::MultXRange(lo, hi),
                Op::AddConst(1.0),
                Op::AddXRange(lo, hi),
                Op::AddRange(1.0, lo, hi),
            ],
        ),
        (
            "f^(5)(x) at x=0",
            vec![
                Op::Differentiate,
                Op::Differentiate,
                Op::Differentiate,
                Op::Differentiate,
                Op::Differentiate,
                Op::Project(0.0),
            ],
        ),
        (
            "int x^3 (f+0.5)^2 u(0)",
            vec![
                Op::Refine(0.0, hi),
                Op::AddConst(0.5),
                Op::Square,
                Op::MultXRange(0.0, hi),
                Op::MultXRange(0.0, hi),
                Op::MultXRange(0.0, hi),
                Op::Integrate(0.0, hi),
            ],
        ),
    ]
}

/// Compiles the kd-tree program.
///
/// # Panics
///
/// Panics if the embedded source fails to compile (a bug in this crate).
pub fn program() -> Program {
    compiled().into_program()
}

/// Compiles the workload through the staged pipeline, keeping the source
/// and any frontend warnings attached for later stages.
///
/// # Panics
///
/// Panics if the embedded source fails to compile (a bug in this crate).
pub fn compiled() -> Compiled {
    match Compiled::compile(SOURCE) {
        Ok(c) => c,
        Err(err) => panic!("kdtree program: {err}"),
    }
}

/// Builds a balanced kd-tree of `depth` levels uniformly partitioning the
/// evaluation domain, with random cubic coefficients at the leaves.
pub fn build_balanced(heap: &mut Heap, depth: usize, seed: u64) -> NodeId {
    let mut rng = StdRng::seed_from_u64(seed);
    // A perfect tree's shape is known up front: pre-size the arena so
    // construction never regrows the slot pool.
    let leaves = 1usize << depth;
    let leaf = heap.program().class_by_name("KdLeaf").unwrap();
    let inner = heap.program().class_by_name("KdInner").unwrap();
    heap.reserve_classes(&[(leaf, leaves), (inner, leaves - 1)]);
    build_node(heap, &mut rng, DOMAIN.0, DOMAIN.1, depth)
}

fn build_node(heap: &mut Heap, rng: &mut StdRng, lo: f64, hi: f64, depth: usize) -> NodeId {
    if depth == 0 {
        let leaf = heap.alloc_by_name("KdLeaf").unwrap();
        heap.set_by_name(leaf, "kind", Value::Int(1)).unwrap();
        heap.set_by_name(leaf, "Lo", Value::Float(lo)).unwrap();
        heap.set_by_name(leaf, "Hi", Value::Float(hi)).unwrap();
        for c in ["C0", "C1", "C2", "C3"] {
            heap.set_by_name(leaf, c, Value::Float(rng.gen_range(-1.0..1.0)))
                .unwrap();
        }
        return leaf;
    }
    let mid = (lo + hi) / 2.0;
    let inner = heap.alloc_by_name("KdInner").unwrap();
    heap.set_by_name(inner, "kind", Value::Int(0)).unwrap();
    heap.set_by_name(inner, "Lo", Value::Float(lo)).unwrap();
    heap.set_by_name(inner, "Hi", Value::Float(hi)).unwrap();
    heap.set_by_name(inner, "Split", Value::Float(mid)).unwrap();
    let l = build_node(heap, rng, lo, mid, depth - 1);
    let r = build_node(heap, rng, mid, hi, depth - 1);
    heap.set_child_by_name(inner, "Left", Some(l)).unwrap();
    heap.set_child_by_name(inner, "Right", Some(r)).unwrap();
    inner
}

/// Builds the [`crate::harness::Experiment`] for an operation schedule.
pub fn experiment(schedule: &[Op], depth: usize, seed: u64) -> crate::harness::Experiment {
    let passes: Vec<&'static str> = schedule.iter().map(Op::pass).collect();
    let args: Vec<Vec<Value>> = schedule.iter().map(Op::args).collect();
    let mut exp = crate::harness::Experiment::new(compiled(), ROOT_CLASS, &passes, move |heap| {
        build_balanced(heap, depth, seed)
    });
    exp.args = args;
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check_parity, fused_and_unfused, Entry};
    use grafter::{fuse, FuseOptions};
    use grafter_runtime::Interp;

    #[test]
    fn program_compiles() {
        let p = program();
        assert_eq!(p.classes.len(), 3);
    }

    #[test]
    fn differentiation_and_scaling_are_correct() {
        let p = program();
        let fp = fuse(
            &p,
            ROOT_CLASS,
            &["differentiate", "scale"],
            &FuseOptions::default(),
        )
        .unwrap();
        let mut heap = Heap::new(&p);
        let leaf = heap.alloc_by_name("KdLeaf").unwrap();
        heap.set_by_name(leaf, "kind", Value::Int(1)).unwrap();
        heap.set_by_name(leaf, "Hi", Value::Float(1.0)).unwrap();
        // f = 1 + 2x + 3x^2 + 4x^3
        for (c, v) in [("C0", 1.0), ("C1", 2.0), ("C2", 3.0), ("C3", 4.0)] {
            heap.set_by_name(leaf, c, Value::Float(v)).unwrap();
        }
        let mut interp = Interp::new(&fp);
        interp
            .run(&mut heap, leaf, &[vec![], vec![Value::Float(10.0)]])
            .unwrap();
        // f' = 2 + 6x + 12x^2, then scaled by 10.
        assert_eq!(heap.get_by_name(leaf, "C0").unwrap(), Value::Float(20.0));
        assert_eq!(heap.get_by_name(leaf, "C1").unwrap(), Value::Float(60.0));
        assert_eq!(heap.get_by_name(leaf, "C2").unwrap(), Value::Float(120.0));
        assert_eq!(heap.get_by_name(leaf, "C3").unwrap(), Value::Float(0.0));
    }

    #[test]
    fn integrate_matches_analytic_value() {
        let p = program();
        let fp = fuse(&p, ROOT_CLASS, &["integrate"], &FuseOptions::default()).unwrap();
        let mut heap = Heap::new(&p);
        // Single leaf over [0, 2] with f = x  =>  integral over [0,2] = 2.
        let leaf = heap.alloc_by_name("KdLeaf").unwrap();
        heap.set_by_name(leaf, "kind", Value::Int(1)).unwrap();
        heap.set_by_name(leaf, "Lo", Value::Float(0.0)).unwrap();
        heap.set_by_name(leaf, "Hi", Value::Float(2.0)).unwrap();
        heap.set_by_name(leaf, "C1", Value::Float(1.0)).unwrap();
        let mut interp = Interp::new(&fp);
        interp
            .run(
                &mut heap,
                leaf,
                &[vec![Value::Float(0.0), Value::Float(2.0)]],
            )
            .unwrap();
        assert_eq!(interp.machine.global("INTEGRAL"), Some(Value::Float(2.0)));
    }

    #[test]
    fn refine_splits_partial_leaves() {
        let p = program();
        let fp = fuse(&p, ROOT_CLASS, &["refine"], &FuseOptions::default()).unwrap();
        let mut heap = Heap::new(&p);
        let root = build_balanced(&mut heap, 1, 3);
        let live_before = heap.live_count();
        // Range covering only part of the left child's domain forces a
        // split.
        let (lo, hi) = DOMAIN;
        let quarter = lo + (hi - lo) / 4.0;
        let mut interp = Interp::new(&fp);
        interp
            .run(
                &mut heap,
                root,
                &[vec![Value::Float(lo), Value::Float(quarter)]],
            )
            .unwrap();
        assert!(
            heap.live_count() > live_before,
            "partial overlap must split a leaf ({} -> {})",
            live_before,
            heap.live_count()
        );
    }

    /// Checks `schedule` fused and unfused on every tier over one
    /// balanced tree.
    fn check_schedule(label: &str, schedule: &[Op], depth: usize, seed: u64) {
        let passes: Vec<&str> = schedule.iter().map(Op::pass).collect();
        let args: Vec<Vec<Value>> = schedule.iter().map(Op::args).collect();
        let entry = Entry {
            root_class: ROOT_CLASS,
            passes: &passes,
            args: &args,
        };
        let tree = |heap: &mut Heap| build_balanced(heap, depth, seed);
        check_parity(label, &compiled(), entry, &fused_and_unfused(), &[tree]);
    }

    #[test]
    fn equations_run_fused_and_unfused_identically() {
        for (name, schedule) in equation_schedules() {
            check_schedule(name, &schedule, 6, 42);
        }
    }

    #[test]
    fn equation1_fusion_reduces_visits_sharply() {
        let (_, schedule) = &equation_schedules()[0];
        let exp = experiment(schedule, 8, 1);
        let n = exp.compare().normalized();
        // Paper: 83% fewer node visits (ratio 0.17) for equation 1.
        assert!(n.visits < 0.4, "visit ratio {}", n.visits);
    }

    #[test]
    fn every_table5_operator_matches_analytic_semantics() {
        // One leaf over [0, 2] holding f = 1 + x; apply each operator and
        // check coefficients against hand computation.
        let p = program();
        let mk_leaf = |heap: &mut Heap| {
            let leaf = heap.alloc_by_name("KdLeaf").unwrap();
            heap.set_by_name(leaf, "kind", Value::Int(1)).unwrap();
            heap.set_by_name(leaf, "Lo", Value::Float(0.0)).unwrap();
            heap.set_by_name(leaf, "Hi", Value::Float(2.0)).unwrap();
            heap.set_by_name(leaf, "C0", Value::Float(1.0)).unwrap();
            heap.set_by_name(leaf, "C1", Value::Float(1.0)).unwrap();
            leaf
        };
        let coeffs = |heap: &Heap, leaf| -> [f64; 4] {
            ["C0", "C1", "C2", "C3"].map(|c| heap.get_by_name(leaf, c).unwrap().as_f64())
        };
        let apply = |op: Op| {
            let fp = fuse(&p, ROOT_CLASS, &[op.pass()], &FuseOptions::default()).unwrap();
            let mut heap = Heap::new(&p);
            let leaf = mk_leaf(&mut heap);
            let mut interp = Interp::new(&fp);
            interp.run(&mut heap, leaf, &[op.args()]).unwrap();
            let c = coeffs(&heap, leaf);
            let (i, pr) = (
                interp.machine.global("INTEGRAL").unwrap().as_f64(),
                interp.machine.global("PROJECTION").unwrap().as_f64(),
            );
            (c, i, pr)
        };

        // scale(2): 2 + 2x
        assert_eq!(apply(Op::Scale(2.0)).0, [2.0, 2.0, 0.0, 0.0]);
        // addConst(3): 4 + x
        assert_eq!(apply(Op::AddConst(3.0)).0, [4.0, 1.0, 0.0, 0.0]);
        // square: (1+x)^2 = 1 + 2x + x^2
        assert_eq!(apply(Op::Square).0, [1.0, 2.0, 1.0, 0.0]);
        // differentiate: 1
        assert_eq!(apply(Op::Differentiate).0, [1.0, 0.0, 0.0, 0.0]);
        // addRange(5, 0, 2): leaf fully inside -> 6 + x
        assert_eq!(apply(Op::AddRange(5.0, 0.0, 2.0)).0, [6.0, 1.0, 0.0, 0.0]);
        // addRange outside the leaf: unchanged
        assert_eq!(apply(Op::AddRange(5.0, 3.0, 9.0)).0, [1.0, 1.0, 0.0, 0.0]);
        // multXRange over the whole leaf: x + x^2
        assert_eq!(apply(Op::MultXRange(0.0, 2.0)).0, [0.0, 1.0, 1.0, 0.0]);
        // addXRange: 1 + 2x
        assert_eq!(apply(Op::AddXRange(0.0, 2.0)).0, [1.0, 2.0, 0.0, 0.0]);
        // integrate over [0,2]: x + x^2/2 -> 2 + 2 = 4
        assert_eq!(apply(Op::Integrate(0.0, 2.0)).1, 4.0);
        // project at 1: f(1) = 2
        assert_eq!(apply(Op::Project(1.0)).2, 2.0);
        // refine leaves a fully-covered leaf untouched
        assert_eq!(apply(Op::Refine(0.0, 2.0)).0, [1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn global_accumulators_serialize_but_stay_correct() {
        // Two integrates cannot fuse with each other (both write the global
        // accumulator), but the final globals must match the unfused run's.
        let schedule = [Op::Integrate(0.0, DOMAIN.1), Op::Integrate(DOMAIN.0, 0.0)];
        check_schedule("integrate twice", &schedule, 5, 9);
    }
}
