//! The paper's four case studies at test size, each fused and unfused,
//! through the tier-parity harness: the interpreter, VM-O0 and VM-O2
//! must agree on every tree, the fused runs must leave the unfused
//! interpreter's tree and globals, and fusion must strictly reduce node
//! visits. The kd-tree runs all three equations of Table 6.

use grafter_runtime::{Heap, Value};
use grafter_workloads::harness::{check_parity, fused_and_unfused, Entry, Parity};
use grafter_workloads::{case_studies, kdtree};

/// Asserts the fused configuration visits fewer nodes than the unfused.
fn assert_fewer_visits(label: &str, parities: &[Parity]) {
    let [fused, unfused] = parities else {
        panic!("{label}: expected a fused and an unfused configuration")
    };
    let visits = |p: &Parity| p.agreed[0].interp.metrics.visits;
    let (fused, unfused) = (visits(fused), visits(unfused));
    assert!(
        fused < unfused,
        "{label}: fusion should reduce node visits ({fused} vs {unfused})"
    );
}

/// Checks one case study at test size.
fn check_case(name: &str) {
    let cases = case_studies();
    let case = cases.iter().find(|c| c.name == name).expect("case study");
    let tree = |heap: &mut Heap| case.build_test(heap);
    let parities = check_parity(
        name,
        &case.compiled,
        case.entry(),
        &fused_and_unfused(),
        &[tree],
    );
    assert_fewer_visits(name, &parities);
}

#[test]
fn ast_fused_matches_unfused_with_fewer_visits() {
    check_case("ast");
}

#[test]
fn kdtree_fused_matches_unfused_with_fewer_visits() {
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
        let parities = check_parity(&label, &compiled, entry, &fused_and_unfused(), &[tree]);
        assert_fewer_visits(&label, &parities);
    }
}

#[test]
fn render_fused_matches_unfused_with_fewer_visits() {
    check_case("render");
}

#[test]
fn fmm_fused_matches_unfused_with_fewer_visits() {
    check_case("fmm");
}
