//! Case study 4 (§5.4): a fast-multipole-method kernel.
//!
//! Reimplements the Treelogy-derived FMM benchmark shape used by TreeFuser
//! and Grafter: a spatial binary tree over a 1-D point distribution with
//! two passes that Grafter can fully fuse:
//!
//! 1. `computeMultipole` — post-order upward pass aggregating mass and
//!    centre-of-mass of every cell;
//! 2. `computePotential` — evaluates a far-field potential approximation
//!    per cell from its children's multipole expansions plus a near-field
//!    self term.
//!
//! The original benchmark ran on up to 10⁸ points; the reproduction sweeps
//! a scaled-down range (the interpreter substrate is ~100× slower than
//! native code, and the *relative* fused/unfused behaviour is
//! size-stable).

use grafter::pipeline::Compiled;
use grafter_frontend::Program;
use grafter_runtime::{Heap, NodeId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The FMM program in the Grafter DSL.
pub const SOURCE: &str = r#"
global float THETA = 0.5;

tree class FmmNode {
    float Lo = 0.0;
    float Hi = 0.0;
    float Mass = 0.0;
    float Center = 0.0;
    float Potential = 0.0;
    virtual traversal computeMultipole() {}
    virtual traversal computePotential() {}
}

tree class FmmCell : FmmNode {
    child FmmNode* Left;
    child FmmNode* Right;
    traversal computeMultipole() {
        Left->computeMultipole();
        Right->computeMultipole();
        Mass = Left.Mass + Right.Mass;
        Center = 0.0;
        if (Mass > 0.0) {
            Center = (Left.Mass * Left.Center + Right.Mass * Right.Center) / Mass;
        }
    }
    traversal computePotential() {
        Left->computePotential();
        Right->computePotential();
        // Far-field approximation: children interact through their
        // multipole expansions (mass, centre) instead of point pairs.
        float dist = Right.Center - Left.Center;
        if (dist < 0.0) { dist = 0.0 - dist; }
        float interaction = 0.0;
        if (dist > 0.0001) { interaction = Left.Mass * Right.Mass / dist; }
        Potential = Left.Potential + Right.Potential + interaction;
    }
}

tree class FmmBody : FmmNode {
    float SelfPotential = 0.0;
    traversal computeMultipole() {
        // Mass and Center were assigned at construction; the pass
        // normalises them into the multipole fields.
        Mass = Mass;
        Center = Center;
    }
    traversal computePotential() {
        Potential = SelfPotential * Mass;
    }
}
"#;

/// The two FMM passes.
pub const PASSES: [&str; 2] = ["computeMultipole", "computePotential"];

/// Root class the passes are invoked on.
pub const ROOT_CLASS: &str = "FmmNode";

/// Compiles the FMM program.
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
        Err(err) => panic!("fmm program: {err}"),
    }
}

/// Builds the spatial tree over `n_points` uniformly distributed points.
///
/// Points are sorted and recursively bisected, giving the balanced cell
/// tree the Treelogy benchmark constructs.
pub fn build_tree(heap: &mut Heap, n_points: usize, seed: u64) -> NodeId {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<(f64, f64)> = (0..n_points)
        .map(|_| (rng.gen_range(0.0..1000.0), rng.gen_range(0.1..2.0)))
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    // The bisection tree over n sorted points has n bodies and n - 1
    // cells: pre-size the arena so construction never regrows the pool.
    let body = heap.program().class_by_name("FmmBody").unwrap();
    let cell = heap.program().class_by_name("FmmCell").unwrap();
    heap.reserve_classes(&[(body, n_points), (cell, n_points.saturating_sub(1))]);
    build_cell(heap, &points)
}

fn build_cell(heap: &mut Heap, points: &[(f64, f64)]) -> NodeId {
    if points.len() == 1 {
        let (x, mass) = points[0];
        let body = heap.alloc_by_name("FmmBody").unwrap();
        heap.set_by_name(body, "Lo", Value::Float(x)).unwrap();
        heap.set_by_name(body, "Hi", Value::Float(x)).unwrap();
        heap.set_by_name(body, "Mass", Value::Float(mass)).unwrap();
        heap.set_by_name(body, "Center", Value::Float(x)).unwrap();
        heap.set_by_name(body, "SelfPotential", Value::Float(0.25))
            .unwrap();
        return body;
    }
    let mid = points.len() / 2;
    let left = build_cell(heap, &points[..mid]);
    let right = build_cell(heap, &points[mid..]);
    let cell = heap.alloc_by_name("FmmCell").unwrap();
    heap.set_by_name(cell, "Lo", Value::Float(points[0].0))
        .unwrap();
    heap.set_by_name(cell, "Hi", Value::Float(points[points.len() - 1].0))
        .unwrap();
    heap.set_child_by_name(cell, "Left", Some(left)).unwrap();
    heap.set_child_by_name(cell, "Right", Some(right)).unwrap();
    cell
}

/// Builds the FMM [`crate::harness::Experiment`] for `n_points`.
pub fn experiment(n_points: usize, seed: u64) -> crate::harness::Experiment {
    crate::harness::Experiment::new(compiled(), ROOT_CLASS, &PASSES, move |heap| {
        build_tree(heap, n_points, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check_parity, fused_and_unfused, Entry};
    use grafter::{fuse, FuseOptions};
    use grafter_runtime::Interp;

    #[test]
    fn program_compiles() {
        assert_eq!(program().classes.len(), 3);
    }

    #[test]
    fn passes_fully_fuse() {
        let p = program();
        let fp = fuse(&p, ROOT_CLASS, &PASSES, &FuseOptions::default()).unwrap();
        assert!(fp.fully_fused(), "FMM passes must fuse completely");
    }

    #[test]
    fn multipole_conserves_mass() {
        let p = program();
        let fp = fuse(&p, ROOT_CLASS, &PASSES, &FuseOptions::default()).unwrap();
        let mut heap = Heap::new(&p);
        let root = build_tree(&mut heap, 64, 5);
        let mut interp = Interp::new(&fp);
        interp.run(&mut heap, root, &[]).unwrap();
        let total = heap.get_by_name(root, "Mass").unwrap().as_f64();
        assert!(total > 0.0);
        // Sum of leaf masses equals the root multipole mass.
        let mut acc = 0.0;
        for id in 0..heap.len() {
            let class = heap.class_of_raw(grafter_runtime::NodeId(id as u32));
            if heap.program().classes[class.index()].name == "FmmBody" {
                acc += heap
                    .get_by_name(grafter_runtime::NodeId(id as u32), "Mass")
                    .unwrap()
                    .as_f64();
            }
        }
        assert!((acc - total).abs() < 1e-9, "{acc} vs {total}");
    }

    #[test]
    fn fused_equals_unfused() {
        let entry = Entry::new(ROOT_CLASS, &PASSES);
        let tree = |heap: &mut Heap| build_tree(heap, 256, 11);
        check_parity("fmm", &compiled(), entry, &fused_and_unfused(), &[tree]);
    }

    #[test]
    fn fusion_halves_visits() {
        let exp = experiment(512, 2);
        let n = exp.compare().normalized();
        assert!((n.visits - 0.5).abs() < 0.05, "visit ratio {}", n.visits);
    }
}
