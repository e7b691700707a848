//! Fusion bookkeeping lowering decides: guards the must-active analysis
//! proves true are folded, and truncated call parts pass no placeholder
//! arguments. The VM must still match the interpreter bit for bit — heap
//! snapshots, `Metrics`, simulated cache traffic and globals — at `O0`
//! and `O2`, on the three shapes the analysis has to get right. On the
//! case studies the result is pinned: fused code without `return`
//! dispatches no bookkeeping and fewer ops than its unfused form.

use grafter::FusionOptions;
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{Backend, Engine, OptLevel};
use grafter_obs::ExecCounters;
use grafter_runtime::{with_stack, Heap, NodeId, PureRegistry, Value};
use grafter_vm::{Op, Vm};
use grafter_workloads::case_studies;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `passes` from `root` with entry arguments `args` on the
/// interpreter and on the VM at `O0` and `O2` over ten seeded trees from
/// `build`, asserting every observable agrees. Returns the `O2` module's
/// disassembly.
fn check_against_interp(
    src: &str,
    root: &str,
    passes: &[&str],
    args: &[Vec<Value>],
    build: fn(&mut Heap, &mut StdRng) -> NodeId,
) -> String {
    let engine = |backend: Backend, level: OptLevel| {
        Engine::builder()
            .source(src)
            .entry(root, passes)
            .backend(backend)
            .opt_level(level)
            .args(args.to_vec())
            .build()
            .unwrap_or_else(|e| panic!("program compiles: {e}"))
    };
    let interp = engine(Backend::Interp, OptLevel::O2);
    let vms = [OptLevel::O0, OptLevel::O2].map(|level| engine(Backend::Vm, level));
    for seed in 0..10u64 {
        let run = |engine: &Engine| {
            let mut session = engine.session().with_cache(CacheHierarchy::xeon());
            let root = session.build_tree(|h| build(h, &mut StdRng::seed_from_u64(seed)));
            let report = session.run(root).expect("program runs");
            (report, session.snapshot(root))
        };
        let (ri, si) = run(&interp);
        for vm in &vms {
            let (rv, sv) = run(vm);
            let level = vm.opt_level();
            assert_eq!(si, sv, "seed {seed} {level}: snapshots diverge");
            assert_eq!(
                ri.metrics, rv.metrics,
                "seed {seed} {level}: metrics diverge"
            );
            assert_eq!(
                ri.cache, rv.cache,
                "seed {seed} {level}: cache traffic diverges"
            );
            assert_eq!(
                ri.globals, rv.globals,
                "seed {seed} {level}: globals diverge"
            );
        }
    }
    vms[1].module().expect("vm engine").disassemble()
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
    let mut heap = Heap::new(case.compiled.program());
    let root = case.build_test(&mut heap);
    let mut vm = Vm::with_pures(module, PureRegistry::with_math());
    let mut counters = ExecCounters::new(module.n_functions(), module.n_ops());
    vm.run_probed(&mut heap, root, &case.args, &mut counters)
        .expect("case study runs");
    (counters.op_hits.iter().sum(), module.disassemble())
}

#[test]
fn fused_code_without_return_dispatches_fewer_ops_than_unfused() {
    with_stack(256 << 20, || {
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
