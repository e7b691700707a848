//! Fusion bookkeeping lowering decides: guards the must-active analysis
//! proves true are folded, and truncated call parts pass no placeholder
//! arguments. The VM must still match the interpreter bit for bit — heap
//! snapshots, `Metrics`, simulated cache traffic and globals — at `O0`
//! and `O2`, on the three shapes the analysis has to get right; the
//! tier-parity harness checks each over ten seeded trees. On the
//! case studies the result is pinned: fused code without `return`
//! dispatches no bookkeeping and fewer ops than its unfused form.

use grafter::{Compiled, FusionOptions};
use grafter_engine::{Backend, Engine, OptLevel};
use grafter_obs::ExecCounters;
use grafter_runtime::{Heap, NodeId, PureRegistry, Value};
use grafter_vm::{Module, Op, Vm};
use grafter_workloads::case_studies;
use grafter_workloads::harness::{check_parity, on_run_stack, Entry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `passes` from `root` with entry arguments `args`, fused, through
/// the tier-parity harness over ten seeded trees from `build`. Returns
/// the `O2` module's disassembly.
fn check_against_interp(
    src: &str,
    root: &str,
    passes: &[&str],
    args: &[Vec<Value>],
    build: fn(&mut Heap, &mut StdRng) -> NodeId,
) -> String {
    check_fused_against_interp(src, root, passes, args, build, FusionOptions::default())
}

/// [`check_against_interp`] on the program fused with `opts`.
fn check_fused_against_interp(
    src: &str,
    root: &str,
    passes: &[&str],
    args: &[Vec<Value>],
    build: fn(&mut Heap, &mut StdRng) -> NodeId,
    opts: FusionOptions,
) -> String {
    let compiled = Compiled::compile(src).unwrap_or_else(|e| panic!("program compiles: {e}"));
    let entry = Entry {
        args,
        ..Entry::new(root, passes)
    };
    let trees: Vec<_> = (0..10u64)
        .map(|seed| move |h: &mut Heap| build(h, &mut StdRng::seed_from_u64(seed)))
        .collect();
    let parities = check_parity(src, &compiled, entry, &[opts], &trees);
    parities[0].vm_o2.module().expect("vm engine").disassemble()
}

/// Whether the disassembly contains an op with mnemonic `op`.
fn has_op(asm: &str, op: &str) -> bool {
    asm.lines().any(|l| l.split_whitespace().nth(1) == Some(op))
}

/// Total folded guards over every function header of the disassembly.
fn folded_guards(asm: &str) -> u64 {
    asm.split("folded-guards=")
        .skip(1)
        .map(|rest| rest.split(',').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// A list of `Cons` cells, each stopping with probability 0.3.
fn stopping_list(heap: &mut Heap, rng: &mut StdRng) -> NodeId {
    let mut next = heap.alloc_by_name("End").unwrap();
    for _ in 0..rng.gen_range(1..12) {
        let c = heap.alloc_by_name("Cons").unwrap();
        heap.set_by_name(c, "stop", Value::Bool(rng.gen_bool(0.3)))
            .unwrap();
        heap.set_by_name(c, "a", Value::Int(rng.gen_range(0..9)))
            .unwrap();
        heap.set_child_by_name(c, "next", Some(next)).unwrap();
        next = c;
    }
    next
}

/// A list program whose `Cons` cells run traversals `ta` and `tb`.
fn list_program(ta: &str, tb: &str) -> String {
    format!(
        r#"
        tree class Node {{
            child Node* next;
            bool stop = false;
            int a = 0; int b = 0;
            virtual traversal ta() {{}}
            virtual traversal tb() {{}}
        }}
        tree class Cons : Node {{
            traversal ta() {{ {ta} }}
            traversal tb() {{ {tb} }}
        }}
        tree class End : Node {{ }}
    "#
    )
}

#[test]
fn a_callee_knows_only_the_bits_every_call_site_knows() {
    // `Root` calls `x` while both traversals are known active and `y`
    // after `tb` may have returned: the `Cons` callee they share may
    // fold `ta`'s guards but must keep `tb`'s.
    let src = r#"
        tree class Item {
            child Item* next;
            int a = 0; int b = 0;
            virtual traversal ta() {}
            virtual traversal tb() {}
        }
        tree class Cons : Item {
            traversal ta() { a = a + 1; this->next->ta(); }
            traversal tb() { b = b + a; this->next->tb(); }
        }
        tree class End : Item { }
        tree class Root {
            child Item* x;
            child Item* y;
            bool stop = false;
            traversal ta() { this->x->ta(); this->y->ta(); }
            traversal tb() { this->x->tb(); if (stop) { return; } this->y->tb(); }
        }
    "#;
    let asm = check_against_interp(src, "Root", &["ta", "tb"], &[], |heap, rng| {
        let list = |heap: &mut Heap, rng: &mut StdRng| {
            let mut next = heap.alloc_by_name("End").unwrap();
            for _ in 0..rng.gen_range(0..6) {
                let c = heap.alloc_by_name("Cons").unwrap();
                heap.set_by_name(c, "a", Value::Int(rng.gen_range(0..9)))
                    .unwrap();
                heap.set_child_by_name(c, "next", Some(next)).unwrap();
                next = c;
            }
            next
        };
        let root = heap.alloc_by_name("Root").unwrap();
        heap.set_by_name(root, "stop", Value::Bool(rng.gen_bool(0.5)))
            .unwrap();
        let (x, y) = (list(heap, rng), list(heap, rng));
        heap.set_child_by_name(root, "x", Some(x)).unwrap();
        heap.set_child_by_name(root, "y", Some(y)).unwrap();
        root
    });
    assert!(folded_guards(&asm) > 0, "nothing folded:\n{asm}");
    assert!(
        has_op(&asm, "guard"),
        "tb's guard in Cons must stay:\n{asm}"
    );
}

#[test]
fn a_return_nested_in_an_if_ends_the_known_bit() {
    // `tb` may return from inside an `if`: its later item keeps its guard.
    let src = list_program(
        "this->next->ta(); a = a + 1;",
        "this->next->tb(); if (stop) { return; } b = b + a;",
    );
    let asm = check_against_interp(&src, "Node", &["ta", "tb"], &[], stopping_list);
    assert!(folded_guards(&asm) > 0, "nothing folded:\n{asm}");
    assert!(has_op(&asm, "guard"), "b = b + a must stay guarded:\n{asm}");
}

#[test]
fn every_traversal_returning_early_pays_exactly_the_guards_it_reached() {
    // When `stop` holds, both traversals return before their last item
    // and the activation leaves from the middle of its body, having
    // prepaid its folded guards.
    let src = list_program(
        "this->next->ta(); if (stop) { return; } a = a + 1;",
        "this->next->tb(); if (stop) { return; } b = b + a;",
    );
    let asm = check_against_interp(&src, "Node", &["ta", "tb"], &[], stopping_list);
    assert!(folded_guards(&asm) > 0, "nothing folded:\n{asm}");
    assert!(has_op(&asm, "retrav"), "{asm}");
}

#[test]
fn truncated_call_parts_pass_no_placeholders() {
    // `tb` passes an argument to a child it may no longer traverse: the
    // part's evaluation is skipped and nothing is zero-filled.
    let src = r#"
        tree class Node {
            child Node* next;
            bool stop = false;
            int a = 0; int b = 0;
            virtual traversal ta(int d) {}
            virtual traversal tb(int d) {}
        }
        tree class Cons : Node {
            traversal ta(int d) { a = a + d; this->next->ta(d + 1); }
            traversal tb(int d) { if (stop) { return; } b = b + d; this->next->tb(d * 2); }
        }
        tree class End : Node { }
    "#;
    let args = [vec![Value::Int(1)], vec![Value::Int(3)]];
    let asm = check_against_interp(src, "Node", &["ta", "tb"], &args, stopping_list);
    assert!(has_op(&asm, "skipoff"), "{asm}");
    assert!(!has_op(&asm, "jump"), "no jump around a zero-fill:\n{asm}");
}

/// Ops a probed run of `case` dispatches at test size on `O2`, with the
/// module's disassembly.
fn dispatched(case: &grafter_workloads::CaseStudy, opts: FusionOptions) -> (u64, String) {
    let engine = case.engine_opt(opts, OptLevel::O2);
    let module = engine.module().expect("vm engine");
    let (fired, _) = fires(case, module, false);
    (fired, module.disassemble())
}

/// Ops a probed run of `module` dispatches on `case`'s test or bench
/// tree: all of them, and the bookkeeping (`guard`, `skipoff`) among them.
fn fires(case: &grafter_workloads::CaseStudy, module: &Module, bench: bool) -> (u64, u64) {
    let mut heap = Heap::new(case.compiled.program());
    let root = if bench {
        case.build_bench(&mut heap)
    } else {
        case.build_test(&mut heap)
    };
    let mut vm = Vm::with_pures(module, PureRegistry::with_math());
    let mut counters = ExecCounters::new(module.n_functions(), module.n_ops());
    vm.run_probed(&mut heap, root, &case.args, &mut counters)
        .expect("case study runs");
    let profile = module.profile(&counters);
    let bookkeeping = profile
        .op_kinds
        .iter()
        .find(|(kind, _)| kind == "bookkeeping")
        .map_or(0, |&(_, n)| n);
    (counters.op_hits.iter().sum(), bookkeeping)
}

/// The clones the `specialize` pass appended to `module`.
fn clones(module: &Module) -> usize {
    let report = module.opt_report();
    report
        .passes
        .iter()
        .find(|p| p.pass == "specialize")
        .map_or(0, |p| p.rewrites)
}

#[test]
fn fused_code_without_return_dispatches_fewer_ops_than_unfused() {
    on_run_stack(|| {
        for case in case_studies() {
            if case.name == "ast" {
                continue; // `return`s keep some of its guards dynamic
            }
            let (fused, asm) = dispatched(&case, FusionOptions::default());
            let (unfused, _) = dispatched(&case, FusionOptions::unfused());
            assert!(
                fused < unfused,
                "{}: fused dispatches {fused} ops, unfused {unfused}",
                case.name
            );
            for op in ["guard", "skipoff"] {
                assert!(!has_op(&asm, op), "{}: `{op}` left in\n{asm}", case.name);
            }
        }
    });
}

#[test]
fn ops_stay_sixteen_bytes() {
    assert_eq!(std::mem::size_of::<Op>(), 16);
}

#[test]
fn entry_mask_clones_cut_fused_ast_bookkeeping() {
    // Clones of fused ast's functions per entry mask drop the items of
    // copies inactive at entry and fold the guards they decide: the
    // probed run fires (all ops, bookkeeping) exactly these, against
    // (64,445, 23,685) at test size and (327,279, 121,635) at bench size
    // from the generic bodies alone.
    on_run_stack(|| {
        let cases = case_studies();
        let ast = cases.iter().find(|c| c.name == "ast").expect("ast case");
        let engine = ast.engine_opt(FusionOptions::default(), OptLevel::O2);
        let module = engine.module().expect("vm engine");
        assert!(clones(module) > 0, "fused ast has no clone");
        assert_eq!(fires(ast, module, false), (46_866, 6_892), "test size");
        assert_eq!(fires(ast, module, true), (231_547, 30_639), "bench size");
    });
}

#[test]
fn only_partial_entry_masks_get_clones() {
    // Fused render, kdtree and fmm enter every activation with all of its
    // copies active, and an unfused module has one copy per function:
    // none of them gets a clone.
    for case in case_studies() {
        for (label, opts) in [
            ("fused", FusionOptions::default()),
            ("unfused", FusionOptions::unfused()),
        ] {
            if case.name == "ast" && label == "fused" {
                continue;
            }
            let engine = case.engine_opt(opts, OptLevel::O2);
            let module = engine.module().expect("vm engine");
            assert_eq!(clones(module), 0, "{} {label}", case.name);
        }
    }
}

/// A binary tree program of `passes` traversals. Each returns first
/// thing at a `stop` node, counts into its own field, returns again where
/// `k` picks it, then recurses into both children.
fn stopping_tree_program(passes: usize) -> String {
    let mut src = String::from(
        "tree class Node {\n  child Node* l;\n  child Node* r;\n  bool stop = false;\n  int k = 0;\n",
    );
    for i in 0..passes {
        src.push_str(&format!(
            "  int c{i} = 0;\n  virtual traversal t{i}() {{}}\n"
        ));
    }
    src.push_str("}\ntree class Fork : Node {\n");
    for i in 0..passes {
        src.push_str(&format!(
            "  traversal t{i}() {{ if (stop) {{ return; }} c{i} = c{i} + k; \
             if (k == {}) {{ return; }} this->l->t{i}(); this->r->t{i}(); }}\n",
            i % 7
        ));
    }
    src.push_str("}\ntree class Leaf : Node { }\n");
    src
}

/// A random binary tree of `Fork` nodes over `Leaf`s.
fn stopping_tree(heap: &mut Heap, rng: &mut StdRng) -> NodeId {
    fn grow(heap: &mut Heap, rng: &mut StdRng, depth: u32) -> NodeId {
        if depth == 0 || rng.gen_bool(0.1) {
            return heap.alloc_by_name("Leaf").unwrap();
        }
        let fork = heap.alloc_by_name("Fork").unwrap();
        heap.set_by_name(fork, "stop", Value::Bool(rng.gen_bool(0.1)))
            .unwrap();
        heap.set_by_name(fork, "k", Value::Int(rng.gen_range(0..12)))
            .unwrap();
        let (l, r) = (grow(heap, rng, depth - 1), grow(heap, rng, depth - 1));
        heap.set_child_by_name(fork, "l", Some(l)).unwrap();
        heap.set_child_by_name(fork, "r", Some(r)).unwrap();
        fork
    }
    grow(heap, rng, 6)
}

#[test]
fn clones_stay_within_the_cap_when_entry_masks_explode() {
    // One fused function holds every pass, and every copy may return
    // before the calls, so a 12-pass activation can pass any of 4,095
    // masks to its children and a 64-pass one any of 2^64 - 1: far past
    // what the clone cap holds. The build stays fast, the clones stay
    // within the cap, and every mask without a clone runs the generic
    // body to the interpreter's result.
    const CLONE_OP_CAP: usize = 8_192;
    for passes in [12, 64] {
        let src = stopping_tree_program(passes);
        let names: Vec<String> = (0..passes).map(|i| format!("t{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let opts = FusionOptions {
            max_group_size: passes,
            ..FusionOptions::default()
        };
        let t0 = std::time::Instant::now();
        let o2 = Engine::builder()
            .source(&src)
            .entry("Node", &names)
            .fusion(opts.clone())
            .backend(Backend::Vm)
            .opt_level(OptLevel::O2)
            .build()
            .unwrap_or_else(|e| panic!("program compiles: {e}"));
        let took = t0.elapsed();
        // Release builds are held to a second; debug ones run the same
        // code some ten times slower.
        let bound = if cfg!(debug_assertions) { 20 } else { 1 };
        assert!(
            took < std::time::Duration::from_secs(bound),
            "{passes} passes: the O2 build took {took:?}"
        );
        let module = o2.module().expect("vm engine");
        let report = module.opt_report();
        let stat = report
            .passes
            .iter()
            .find(|p| p.pass == "specialize")
            .expect("a fused module runs the pass");
        assert!(
            stat.after - stat.before <= CLONE_OP_CAP,
            "{passes} passes: {} clone ops",
            stat.after - stat.before
        );
        check_fused_against_interp(&src, "Node", &names, &[], stopping_tree, opts);
    }
}
