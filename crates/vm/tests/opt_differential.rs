//! Differential testing of the bytecode optimizer: `O0 == O2 == interp`
//! — bit-identical heap snapshots, `Metrics`, simulated cache traffic
//! and final globals — across the paper's four case studies, fused and
//! unfused, plus one focused program per peephole pattern proving the
//! pattern actually fires (and stays observation-preserving).
//!
//! This is the executable statement of the optimizer's contract (see
//! `grafter_vm::opt`): optimization sheds dispatch overhead, never
//! counters.

use grafter::FusionOptions;
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Backend, Engine, OptLevel, Report};
use grafter_runtime::{with_stack, Heap, NodeId, SnapValue};
use grafter_vm::{lower_with, VmOptions};
use grafter_workloads::case_studies;

const LEVELS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];

/// Runs `engine` on a freshly built tree with a Xeon cache model
/// attached; returns the report and the final heap snapshot.
fn run_snap(
    engine: &Engine,
    build: &dyn Fn(&mut Heap) -> NodeId,
) -> (Report, Vec<(String, Vec<SnapValue>)>) {
    let mut session = engine.session().with_cache(CacheHierarchy::xeon());
    let root = session.build_tree(build);
    let report = session.run(root).expect("case study runs");
    let snap = session.snapshot(root);
    (report, snap)
}

#[test]
fn opt_levels_match_interp_on_all_case_studies() {
    with_stack(256 << 20, || {
        for case in case_studies() {
            for (kind, opts) in [
                ("fused", FusionOptions::default()),
                ("unfused", FusionOptions::unfused()),
            ] {
                let interp = case.engine_with(opts.clone(), Backend::Interp);
                let (r_interp, snap_interp) = run_snap(&interp, &|h| case.build_test(h));
                for level in LEVELS {
                    let vm = case.engine_opt(opts.clone(), level);
                    let (r_vm, snap_vm) = run_snap(&vm, &|h| case.build_test(h));
                    assert_eq!(
                        snap_interp, snap_vm,
                        "{}/{kind}/{level}: heap states diverge from interp",
                        case.name
                    );
                    // Metrics, cache traffic and globals in one shot:
                    // Report equality ignores backend-independent fields
                    // (wall, opt level) by construction.
                    assert_eq!(
                        r_interp.metrics, r_vm.metrics,
                        "{}/{kind}/{level}: metrics diverge from interp",
                        case.name
                    );
                    assert_eq!(
                        r_interp.cache, r_vm.cache,
                        "{}/{kind}/{level}: cache traffic diverges from interp",
                        case.name
                    );
                    assert_eq!(
                        r_interp.globals, r_vm.globals,
                        "{}/{kind}/{level}: final globals diverge from interp",
                        case.name
                    );
                }
            }
        }
    });
}

#[test]
fn opt_levels_match_each_other_exactly() {
    // Transitivity spot-check at the Report level (PartialEq covers
    // metrics + cache + globals): O0 == O2 on every case study.
    with_stack(256 << 20, || {
        for case in case_studies() {
            let reports: Vec<(Report, _)> = LEVELS
                .iter()
                .map(|&level| {
                    let vm = case.engine_opt(FusionOptions::default(), level);
                    run_snap(&vm, &|h| case.build_test(h))
                })
                .collect();
            for (r, snap) in &reports[1..] {
                assert_eq!(
                    &reports[0].0, r,
                    "{}: reports diverge across levels",
                    case.name
                );
                assert_eq!(&reports[0].1, snap, "{}: snapshots diverge", case.name);
            }
        }
    });
}

// ---- per-pattern peephole tests ------------------------------------------
//
// Each minimal program is designed so the lowered op stream contains one
// specific adjacent pair; the test asserts (a) the superinstruction
// appears in the `O2` disassembly (the pattern fired), (b) the `O0`
// disassembly does not contain it, and (c) `O0`/`O2` execution still
// agree with the interpreter on the final tree and every counter. With
// no mnemonic, only (c) is checked.

/// List program: every class reachable, one recursion, rich statements.
fn check_pattern(src: &str, root: &str, passes: &[&str], mnemonic: Option<&str>) {
    let engine_at = |level: OptLevel, backend: Backend| {
        Engine::builder()
            .source(src)
            .entry(root, passes)
            .backend(backend)
            .opt_level(level)
            .build()
            .unwrap_or_else(|e| panic!("pattern program compiles: {e}"))
    };
    // (a) + (b): the pattern fires at O2 and only at O2.
    let o2 = engine_at(OptLevel::O2, Backend::Vm);
    let o0 = engine_at(OptLevel::O0, Backend::Vm);
    if let Some(mnemonic) = mnemonic {
        let disasm_o2 = o2.module().unwrap().disassemble();
        let disasm_o0 = o0.module().unwrap().disassemble();
        assert!(
            disasm_o2.contains(mnemonic),
            "`{mnemonic}` did not fire; O2 disassembly:\n{disasm_o2}"
        );
        assert!(
            !disasm_o0.contains(mnemonic),
            "`{mnemonic}` must not appear at O0:\n{disasm_o0}"
        );
    }
    // (c): observational bit-identity against the interpreter.
    let interp = engine_at(OptLevel::O2, Backend::Interp);
    let build = |h: &mut Heap| {
        let end = h.alloc_by_name("E").unwrap();
        let mut cur = end;
        for _ in 0..8 {
            let c = h.alloc_by_name("C").unwrap();
            h.set_child_by_name(c, "next", Some(cur)).unwrap();
            cur = c;
        }
        cur
    };
    let label = mnemonic.unwrap_or(src);
    let (ri, si) = run_snap(&interp, &build);
    for engine in [&o0, &o2] {
        let (rv, sv) = run_snap(engine, &build);
        assert_eq!(si, sv, "{label}: snapshots diverge");
        assert_eq!(ri.metrics, rv.metrics, "{label}: metrics diverge");
        assert_eq!(ri.cache, rv.cache, "{label}: cache traffic diverges");
        assert_eq!(ri.globals, rv.globals, "{label}: globals diverge");
    }
}

/// Wraps a `C.go` traversal body into the standard list-program shape.
fn list_program(header: &str, body: &str) -> String {
    format!(
        r#"
        {header}
        tree class N {{
            child N* next;
            int a = 1; int b = 2; bool flag = true;
            virtual traversal go(int p) {{}}
        }}
        tree class C : N {{
            traversal go(int p) {{
                {body}
                this->next->go(p);
            }}
        }}
        tree class E : N {{ }}
    "#
    )
}

fn check_list_pattern(body: &str, mnemonic: &str) {
    check_pattern(&list_program("", body), "N", &["go"], Some(mnemonic));
}

#[test]
fn pattern_tree_loc_fires() {
    // ReadTree + StoreLocal (load-field + coerce).
    check_list_pattern("int t = a; b = t + p;", "stloc.t");
}

#[test]
fn pattern_tree_bin_fires() {
    // ReadTree + Bin (load + binop).
    check_list_pattern("b = p + a;", "bin.t");
}

#[test]
fn pattern_const_bin_fires() {
    check_list_pattern("b = p + 7;", "bin.c");
}

#[test]
fn pattern_loc_bin_fires() {
    check_list_pattern("int u = 3; b = p + u;", "bin.l");
}

#[test]
fn pattern_glob_bin_fires() {
    check_pattern(
        &list_program("global int G = 5;", "b = p + G;"),
        "N",
        &["go"],
        Some("bin.g"),
    );
}

#[test]
fn pattern_const_bin_branch_fires() {
    // The kind-tag idiom: ReadTree, Const+Bin -> ConstBin, then the
    // peephole's retry fuses ConstBin + Branch -> cmpbr.c.
    check_list_pattern("if (a == 1) { b = p; }", "cmpbr.c");
}

#[test]
fn pattern_loc_bin_branch_fires() {
    check_list_pattern("int u = 2; if (p > u) { b = p; }", "cmpbr.l");
}

#[test]
fn pattern_bin_tree_fires() {
    // Pure-call operands again: Bin + WriteTree (store-field from the
    // accumulator).
    check_pattern(
        &list_program("pure float fabs(float x);", "b = fabs(p) + fabs(a);"),
        "N",
        &["go"],
        Some("wrtree.b"),
    );
}

#[test]
fn pattern_const_tree_fires() {
    check_list_pattern("b = 9;", "wrtree.c");
}

#[test]
fn pattern_const_loc_fires() {
    check_list_pattern("int t = 5; b = t + p;", "stloc.c");
}

#[test]
fn pattern_loc_tree_fires() {
    check_list_pattern("b = p;", "wrtree.l");
}

#[test]
fn pattern_loc_loc_fires() {
    check_list_pattern("int t = p; b = t + a;", "stloc.l");
}

#[test]
fn pattern_tree_tree_fires() {
    check_list_pattern("b = a;", "cptree");
}

#[test]
fn pattern_nav_call_fires() {
    // Argument-less recursion: Nav + Call fuses.
    check_pattern(
        r#"
        tree class N {
            child N* next;
            int a = 1; int b = 2;
            virtual traversal go() {}
        }
        tree class C : N {
            traversal go() { b = a + b; this->next->go(); }
        }
        tree class E : N { }
    "#,
        "N",
        &["go"],
        Some("navcall"),
    );
}

#[test]
fn programs_without_a_superinstruction_match_interp() {
    // Global writes, compares and stores of pure-call operands, branches
    // on a field or a local, constant expressions and a call with an
    // argument: no superinstruction covers these, and O0/O2 must still
    // agree with the interpreter.
    let fabs = "pure float fabs(float x);";
    let mut programs: Vec<String> = [
        ("global int G = 0;", "G = p;"),
        ("global int G = 0;", "G = 4;"),
        (
            "global int G = 0; pure float fabs(float x);",
            "G = fabs(p) + fabs(a);",
        ),
        (fabs, "if (fabs(p) > fabs(b)) { b = p; }"),
        (fabs, "int t = fabs(p) + fabs(a); b = t + 1;"),
        ("", "if (flag) { b = p; }"),
        ("", "bool t = flag; if (t) { b = p; }"),
        ("", "b = 2 + 3 * 4;"),
        // The kernel defines int division by zero as 0.
        ("", "b = 7 / 0 + p;"),
    ]
    .iter()
    .map(|(header, body)| list_program(header, body))
    .collect();
    // A call with an argument through a single-class child hierarchy.
    programs.push(
        r#"
        tree class K {
            int sum = 0;
            traversal absorb(int v) { sum = sum + v; }
        }
        tree class N {
            child N* next;
            child K* k;
            int a = 1; int b = 2;
            virtual traversal go(int p) {}
        }
        tree class C : N {
            traversal go(int p) {
                this->k->absorb(p);
                this->next->go(p);
            }
        }
        tree class E : N { }
    "#
        .to_string(),
    );
    for src in &programs {
        check_pattern(src, "N", &["go"], None);
    }
}

// ---- structural checks ----------------------------------------------------

#[test]
fn lower_with_levels_are_ordered_and_reported() {
    let src = list_program("", "b = a + 1; if (a == 1) { b = 0; }");
    let compiled = grafter::pipeline::Compiled::compile(&src).unwrap();
    let fused = grafter::fuse(
        compiled.program(),
        "N",
        &["go"],
        &grafter::FuseOptions::default(),
    )
    .unwrap();
    let o0 = lower_with(&fused, &VmOptions::with_opt_level(OptLevel::O0));
    let o2 = lower_with(&fused, &VmOptions::with_opt_level(OptLevel::O2));
    assert!(o0.opt_report().passes.is_empty(), "O0 runs no passes");
    assert_eq!(o0.opt_report().level, OptLevel::O0);
    assert_eq!(o2.opt_report().level, OptLevel::O2);
    let passes: Vec<&str> = o2.opt_report().passes.iter().map(|p| p.pass).collect();
    assert_eq!(passes, ["peephole", "regs"], "O2 runs peephole then regs");
    // The disassembly carries the per-pass deltas.
    let disasm = o2.disassemble();
    assert!(disasm.contains("; opt: O2"));
    assert!(disasm.contains("peephole"));
}

#[test]
fn empty_module_is_detected() {
    // `fuse_slots` with a slot from a disjoint hierarchy resolves on no
    // concrete subtype of the root: the lowered module has no functions.
    // (`grafterc --emit bytecode` warns on exactly this predicate.)
    let src = r#"
        tree class A { int x = 0; virtual traversal fa() {} }
        tree class B { int y = 0; virtual traversal fb() {} }
    "#;
    let compiled = grafter::pipeline::Compiled::compile(src).unwrap();
    let program = compiled.program();
    let a = (0..program.classes.len() as u32)
        .map(grafter_frontend::ClassId)
        .find(|c| program.classes[c.index()].name == "A")
        .unwrap();
    let fb = program
        .method_on_class(
            (0..program.classes.len() as u32)
                .map(grafter_frontend::ClassId)
                .find(|c| program.classes[c.index()].name == "B")
                .unwrap(),
            "fb",
        )
        .unwrap();
    let fused = grafter::fuse_slots(program, a, &[fb], &grafter::FuseOptions::default()).unwrap();
    let module = grafter_vm::lower(&fused);
    assert!(
        module.is_empty(),
        "cross-hierarchy slot yields an empty module"
    );
    let normal = grafter::fuse_slots(
        program,
        a,
        &[program.method_on_class(a, "fa").unwrap()],
        &grafter::FuseOptions::default(),
    )
    .unwrap();
    assert!(!grafter_vm::lower(&normal).is_empty());
}
