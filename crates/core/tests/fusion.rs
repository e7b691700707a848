//! Integration tests for the fusion engine.

use std::time::{Duration, Instant};

use grafter::{cpp, fuse, fuse_slots, CallPart, FuseOptions, ScheduledItem};
use grafter_frontend::{compile, Program, Stmt};
use grafter_runtime::{Heap, Interp};
use grafter_vm::Vm;

const FIG2: &str = r#"
    global int CHAR_WIDTH = 8;
    struct String { int Length; }
    struct BorderInfo { int Size; }
    tree class Element {
        child Element* Next;
        int Height = 0; int Width = 0;
        int MaxHeight = 0; int TotalWidth = 0;
        virtual traversal computeWidth() {}
        virtual traversal computeHeight() {}
    }
    tree class TextBox : public Element {
        String Text;
        traversal computeWidth() {
            Next->computeWidth();
            Width = Text.Length;
            TotalWidth = Next.Width + Width;
        }
        traversal computeHeight() {
            Next->computeHeight();
            Height = Text.Length * (Width / CHAR_WIDTH) + 1;
            MaxHeight = Height;
            if (Next.Height > Height) { MaxHeight = Next.Height; }
        }
    }
    tree class Group : public Element {
        child Element* Content;
        BorderInfo Border;
        traversal computeWidth() {
            Content->computeWidth();
            Next->computeWidth();
            Width = Content.Width + Border.Size * 2;
            TotalWidth = Width + Next.Width;
        }
        traversal computeHeight() {
            Content->computeHeight();
            Next->computeHeight();
            Height = Content.MaxHeight + Border.Size * 2;
            MaxHeight = Height;
            if (Next.Height > Height) { MaxHeight = Next.Height; }
        }
    }
    tree class End : public Element { }
"#;

#[test]
fn fuses_figure2_completely() {
    let p = compile(FIG2).unwrap();
    let fp = fuse(
        &p,
        "Element",
        &["computeWidth", "computeHeight"],
        &FuseOptions::default(),
    )
    .unwrap();
    // computeHeight depends on computeWidth at each node (Height reads
    // Width), but the traversals still fuse into single passes: statements
    // reorder so both traversals' calls group per child.
    assert!(fp.fully_fused(), "{}", cpp::emit(&fp));
    // The entry stub covers all four concrete types.
    assert_eq!(fp.stub(fp.entries[0]).targets.len(), 4);
}

#[test]
fn unfused_baseline_keeps_separate_visits() {
    let p = compile(FIG2).unwrap();
    let fp = fuse(
        &p,
        "Element",
        &["computeWidth", "computeHeight"],
        &FuseOptions::unfused(),
    )
    .unwrap();
    assert!(!fp.fully_fused());
    // Every fused function is a singleton original traversal.
    for f in &fp.functions {
        assert_eq!(f.seq.len(), 1);
    }
}

#[test]
fn fusion_is_blocked_by_true_dependences() {
    // f pulls `x` up post-order (reads kid.x after its call); g pushes `x`
    // down pre-order (writes kid.x before its call, which reads kid.x at
    // the next level). The chain f.call -> f.store -> g.store -> g.call
    // passes through statements outside any group, so the two calls can
    // never be adjacent: grouping is illegal and fusion must keep two
    // visits of `kid`.
    let src = r#"
        tree class N {
            child N* kid;
            int x = 0;
            virtual traversal f() {}
            virtual traversal g() {}
        }
        tree class C : N {
            traversal f() {
                this->kid->f();
                x = this->kid.x;
            }
            traversal g() {
                this->kid.x = x + 1;
                this->kid->g();
            }
        }
        tree class E : N { }
    "#;
    let p = compile(src).unwrap();
    let fp = fuse(&p, "N", &["f", "g"], &FuseOptions::default()).unwrap();
    let c = p.class_by_name("C").unwrap();
    let cf = p.method_on_class(c, "f").unwrap();
    let cg = p.method_on_class(c, "g").unwrap();
    let pair = fp
        .functions
        .iter()
        .find(|f| f.seq == vec![cf, cg])
        .expect("pair function exists");
    let n_calls = pair
        .body
        .iter()
        .filter(|i| matches!(i, ScheduledItem::Call { .. }))
        .count();
    assert_eq!(n_calls, 2, "{}", cpp::emit(&fp));
    assert!(!fp.fully_fused());
}

#[test]
fn type_specific_partial_fusion() {
    // On type A the two traversals conflict (fusion blocked at the call
    // level); on type B they are independent and fuse. Type-specific
    // fusion handles each concrete type separately.
    let src = r#"
        tree class N {
            child N* kid;
            int x = 0;
            int y = 0;
            virtual traversal f() {}
            virtual traversal g() {}
        }
        tree class A : N {
            traversal f() {
                this->kid->f();
                x = this->kid.x;
            }
            traversal g() {
                this->kid.x = x + 1;
                this->kid->g();
            }
        }
        tree class B : N {
            traversal f() { x = x + 1; this->kid->f(); }
            traversal g() { y = y + 1; this->kid->g(); }
        }
        tree class E : N { }
    "#;
    let p = compile(src).unwrap();
    let fp = fuse(&p, "N", &["f", "g"], &FuseOptions::default()).unwrap();
    let a = p.class_by_name("A").unwrap();
    let b = p.class_by_name("B").unwrap();
    let af = p.method_on_class(a, "f").unwrap();
    let ag = p.method_on_class(a, "g").unwrap();
    let bf = p.method_on_class(b, "f").unwrap();
    let bg = p.method_on_class(b, "g").unwrap();

    let a_pair = fp.functions.iter().find(|f| f.seq == vec![af, ag]).unwrap();
    let b_pair = fp.functions.iter().find(|f| f.seq == vec![bf, bg]).unwrap();
    let calls = |f: &grafter::FusedFn| {
        f.body
            .iter()
            .filter(|i| matches!(i, ScheduledItem::Call { .. }))
            .count()
    };
    assert_eq!(calls(a_pair), 2, "A cannot fuse: {}", cpp::emit(&fp));
    assert_eq!(calls(b_pair), 1, "B fuses: {}", cpp::emit(&fp));
}

#[test]
fn recursive_sequences_reuse_existing_functions() {
    let p = compile(FIG2).unwrap();
    let fp = fuse(
        &p,
        "Element",
        &["computeWidth", "computeHeight"],
        &FuseOptions::default(),
    )
    .unwrap();
    // The TextBox pair calls Next->(width+height) which is the same slot
    // sequence as the entry: the same stub must be reused, not duplicated.
    let mut stub_keys: Vec<_> = fp
        .stubs
        .iter()
        .map(|s| (s.receiver_static, s.slots.clone()))
        .collect();
    let before = stub_keys.len();
    stub_keys.sort();
    stub_keys.dedup();
    assert_eq!(stub_keys.len(), before, "stubs are memoised");
    // Fusion terminated with a small number of functions (4 types x 1
    // pair + singletons at most).
    assert!(fp.n_functions() <= 12, "got {}", fp.n_functions());
}

#[test]
fn multiple_calls_on_same_child_respect_occurrence_cutoff() {
    // Each traversal calls `go` twice on the same child; fusing the pair
    // would want a group of 4 copies of `go` — the occurrence cutoff (3)
    // must split it.
    let src = r#"
        tree class N {
            child N* kid;
            int x = 0;
            virtual traversal go() {}
        }
        tree class C : N {
            traversal go() {
                this->kid->go();
                this->kid->go();
                x = x + 1;
            }
        }
        tree class E : N { }
    "#;
    let p = compile(src).unwrap();
    let opts = FuseOptions {
        max_occurrences: 3,
        ..FuseOptions::default()
    };
    let fp = fuse(&p, "N", &["go", "go"], &opts).unwrap();
    // Groups never contain more than 3 copies of C::go.
    for f in &fp.functions {
        for item in &f.body {
            if let ScheduledItem::Call { parts, .. } = item {
                assert!(parts.len() <= 3, "group of {} exceeds cutoff", parts.len());
            }
        }
    }
    // And fusion terminated.
    assert!(fp.n_functions() < 40);
}

#[test]
fn group_size_cutoff_bounds_sequences() {
    let src = r#"
        tree class N {
            child N* kid;
            int x = 0;
            virtual traversal go() {}
        }
        tree class C : N {
            traversal go() {
                this->kid->go();
                this->kid->go();
                x = x + 1;
            }
        }
        tree class E : N { }
    "#;
    let p = compile(src).unwrap();
    let opts = FuseOptions {
        max_group_size: 2,
        max_occurrences: 8,
        ..FuseOptions::default()
    };
    let fp = fuse(&p, "N", &["go", "go"], &opts).unwrap();
    for f in &fp.functions {
        assert!(f.seq.len() <= 2);
        for item in &f.body {
            if let ScheduledItem::Call { parts, .. } = item {
                assert!(parts.len() <= 2);
            }
        }
    }
}

#[test]
fn mutation_traversals_fuse_when_safe() {
    // A desugaring-style pass that rewrites subtrees, followed by a
    // counting pass. The counter reads fields the rewriter writes, so
    // order is preserved; both traverse the same child and can group.
    let src = r#"
        tree class Node {
            child Node* next;
            int kind = 0;
            int count = 0;
            virtual traversal desugar() {}
            virtual traversal tally() {}
        }
        tree class Cons : Node {
            child Leaf* payload;
            traversal desugar() {
                if (kind == 1) {
                    delete this->payload;
                    this->payload = new Leaf();
                    kind = 2;
                }
                this->next->desugar();
            }
            traversal tally() {
                count = kind;
                this->next->tally();
            }
        }
        tree class Leaf : Node { int v = 0; }
        tree class End : Node { }
    "#;
    let p = compile(src).unwrap();
    let fp = fuse(&p, "Node", &["desugar", "tally"], &FuseOptions::default()).unwrap();
    let cons = p.class_by_name("Cons").unwrap();
    let d = p.method_on_class(cons, "desugar").unwrap();
    let t = p.method_on_class(cons, "tally").unwrap();
    let pair = fp.functions.iter().find(|f| f.seq == vec![d, t]).unwrap();
    let n_calls = pair
        .body
        .iter()
        .filter(|i| matches!(i, ScheduledItem::Call { .. }))
        .count();
    assert_eq!(n_calls, 1, "next-calls group: {}", cpp::emit(&fp));
}

#[test]
fn cpp_emitter_produces_figure6_shape() {
    let p = compile(FIG2).unwrap();
    let fp = fuse(
        &p,
        "Element",
        &["computeWidth", "computeHeight"],
        &FuseOptions::default(),
    )
    .unwrap();
    let code = cpp::emit(&fp);
    assert!(code.contains("active_flags"), "{code}");
    assert!(code.contains("call_flags"), "{code}");
    assert!(code.contains("__stub"), "{code}");
    assert!(code.contains("_fuse_"), "{code}");
    // Per-traversal receiver aliases.
    assert!(code.contains("_r_f0"), "{code}");
    assert!(code.contains("_r_f1"), "{code}");
    // Stub bodies appear for every concrete class.
    for class in ["Element", "TextBox", "Group", "End"] {
        assert!(code.contains(&format!("void {class}::__stub")), "{code}");
    }
}

/// Checks every fused function of `program`'s entry `passes` on `root`
/// against a freshly built dependence graph: the schedule names each
/// merged statement exactly once, statements and calls by the right item
/// kind, groups only calls on one child, and respects every edge.
fn check_schedules(program: &Program, root: &str, passes: &[&str], opts: &FuseOptions) {
    use grafter::{DepGraph, ProgramAccesses};
    let fp = fuse(program, root, passes, opts).unwrap();
    let mut acc = ProgramAccesses::new(program);
    for f in &fp.functions {
        let merged = DepGraph::merge_bodies(program, &f.seq);
        let graph = DepGraph::build(&mut acc, &f.seq, &merged);
        let position = |traversal: usize, index: usize| {
            merged
                .iter()
                .position(|ms| (ms.traversal, ms.index) == (traversal, index))
                .unwrap_or_else(|| panic!("{}: ({traversal}, {index}) not merged", f.name))
        };
        let mut order = Vec::new();
        for item in &f.body {
            match item {
                &ScheduledItem::Stmt { traversal, index } => {
                    let stmt = fp.stmt(f, traversal, index);
                    assert!(!matches!(stmt, Stmt::Traverse(_)), "{}: {item:?}", f.name);
                    order.push(position(traversal, index));
                }
                ScheduledItem::Call { parts, .. } => {
                    let fields: Vec<_> = fp.receiver(f, parts).fields().collect();
                    for &part @ CallPart { traversal, index } in parts {
                        assert!(
                            matches!(fp.stmt(f, traversal, index), Stmt::Traverse(_)),
                            "{}: {part:?}",
                            f.name
                        );
                        let receiver = &fp.call(f, part).receiver;
                        assert_eq!(receiver.fields().collect::<Vec<_>>(), fields, "{}", f.name);
                        order.push(position(traversal, index));
                    }
                }
            }
        }
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..merged.len()).collect::<Vec<_>>(), "{}", f.name);
        assert!(graph.order_is_valid(&order), "function {}", f.name);
    }
}

#[test]
fn schedule_never_violates_dependences() {
    let fig2 = compile(FIG2).unwrap();
    let passes = ["computeWidth", "computeHeight"];
    for opts in [FuseOptions::default(), FuseOptions::unfused()] {
        check_schedules(&fig2, "Element", &passes, &opts);
        for case in grafter_workloads::case_studies() {
            let program = case.compiled.program();
            check_schedules(program, case.root_class, &case.passes, &opts);
        }
    }
}

#[test]
fn an_empty_traversal_list_fuses_to_an_empty_program_in_both_modes() {
    let p = compile(FIG2).unwrap();
    let element = p.class_by_name("Element").unwrap();
    for opts in [FuseOptions::default(), FuseOptions::unfused()] {
        let by_name = fuse(&p, "Element", &[], &opts).unwrap();
        let by_slot = fuse_slots(&p, element, &[], &opts).unwrap();
        for fp in [by_name, by_slot] {
            assert_eq!(fp.functions.len(), 0, "grouping {}", opts.grouping);
            assert_eq!(fp.entries.len(), 0, "grouping {}", opts.grouping);

            let mut heap = Heap::new(&p);
            let root = heap.alloc_by_name("TextBox").unwrap();
            let end = heap.alloc_by_name("End").unwrap();
            heap.set_child_by_name(root, "Next", Some(end)).unwrap();
            let before = heap.snapshot(root);

            let mut interp = Interp::new(&fp);
            interp.run(&mut heap, root, &[]).unwrap();
            assert_eq!(interp.machine.metrics.visits, 0);
            let module = grafter_vm::lower(&fp);
            let mut vm = Vm::new(&module);
            vm.run(&mut heap, root, &[]).unwrap();
            assert_eq!(vm.machine.metrics, interp.machine.metrics);
            assert_eq!(heap.snapshot(root), before);
        }
    }
}

#[test]
fn fuse_reports_unknown_names() {
    let p = compile(FIG2).unwrap();
    assert!(fuse(&p, "Nope", &["computeWidth"], &FuseOptions::default()).is_err());
    assert!(fuse(&p, "Element", &["nope"], &FuseOptions::default()).is_err());
}

#[test]
fn bodies_without_a_call_pair_keep_source_order_in_linear_time() {
    // 5,000 mutually dependent statements and no call pair to group: the
    // schedule is source order, without a conflict test per statement
    // pair (which took about 35 s here).
    let body: String = (0..5000).map(|i| format!("a = a + {i}; ")).collect();
    let src = format!("tree class N {{ int a = 0; virtual traversal t() {{ {body} }} }}");
    let t0 = Instant::now();
    let program = compile(&src).unwrap();
    let fused = fuse(&program, "N", &["t"], &FuseOptions::default()).unwrap();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "compile + fuse took {took:?}"
    );
    let source_order: Vec<_> = (0..5000)
        .map(|index| ScheduledItem::Stmt {
            traversal: 0,
            index,
        })
        .collect();
    assert_eq!(fused.functions[0].body, source_order);
}

#[test]
fn bodies_without_a_same_receiver_pair_keep_source_order_in_linear_time() {
    // Two calls on different children around 5,000 statements: no pair of
    // calls could group, so the schedule needs no conflict test per
    // statement pair (see the next test for calls on the same child).
    let stmts: String = (0..5000).map(|i| format!("G = {i}; ")).collect();
    let src = format!(
        "global int G = 0;
        tree class N {{ virtual traversal f() {{}} }}
        tree class C : N {{
            child N* left; child N* right;
            traversal f() {{ this->left->f(); {stmts} this->right->f(); }}
        }}"
    );
    let t0 = Instant::now();
    let program = compile(&src).unwrap();
    let fused = fuse(&program, "C", &["f"], &FuseOptions::default()).unwrap();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "compile + fuse took {took:?}"
    );
    assert_eq!(fused.coverage.candidate_pairs(), 0);
    assert!(fused.explain.pairs.is_empty());
    for f in &fused.functions {
        let written = &program.methods[f.seq[0].index()].body;
        assert_eq!(f.body.len(), written.len(), "{}", f.name);
        for (at, item) in f.body.iter().enumerate() {
            let positions: Vec<_> = match item {
                &ScheduledItem::Stmt { traversal, index } => vec![(traversal, index)],
                ScheduledItem::Call { parts, .. } => {
                    parts.iter().map(|p| (p.traversal, p.index)).collect()
                }
            };
            assert_eq!(positions, [(0, at)], "{}", f.name);
        }
    }
}

#[test]
fn same_receiver_calls_around_many_equal_statements_fuse_in_near_linear_time() {
    // Two calls on the same child around 2,000 statements, fused with
    // itself: a 4,004-statement body whose every statement pair conflicts.
    // The statements share one interned summary, so the graph costs a
    // table read per pair, and grouping reads reach sets over the four
    // calls instead of condensing the graph per tentative merge. With
    // conflicts memoised per statement pair and grouping condensing the
    // graph per merge, `grafterc` took 23 s and 628 MB on this body in a
    // release build on a 2-vCPU Xeon.
    let stmts: String = (0..2000).map(|i| format!("G = {i}; ")).collect();
    let src = format!(
        "global int G = 0;
        tree class N {{ virtual traversal f() {{}} }}
        tree class C : N {{
            child N* left;
            traversal f() {{ this->left->f(); {stmts} this->left->f(); }}
        }}"
    );
    let t0 = Instant::now();
    let program = compile(&src).unwrap();
    let fused = fuse(&program, "C", &["f", "f"], &FuseOptions::default()).unwrap();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(10),
        "compile + fuse took {took:?}"
    );
    // The entry body's four calls form six same-receiver pairs: the two
    // first calls fuse, and the `G` writes between the others block them.
    // The function fusing one copy of `f` has one pair, blocked too.
    let coverage = fused.coverage;
    assert_eq!(
        (
            coverage.fused_pairs,
            coverage.missed_pairs,
            coverage.blocked_pairs
        ),
        (1, 0, 6),
        "{coverage:?}"
    );
    assert_eq!(fused.explain.pairs.len(), coverage.candidate_pairs());
    check_schedules(&program, "C", &["f", "f"], &FuseOptions::default());
}

#[test]
fn memoised_dispatch_targets_resolve_every_concrete_subtype_in_order() {
    use grafter::ProgramAccesses;
    use grafter_frontend::{ClassId, MethodId};
    use std::rc::Rc;
    let mut pairs = 0;
    for case in grafter_workloads::case_studies() {
        let p = case.compiled.program();
        let mut slots: Vec<MethodId> = p.methods.iter().map(|m| m.slot).collect();
        slots.sort_unstable();
        slots.dedup();
        let mut acc = ProgramAccesses::new(p);
        for &slot in &slots {
            for class in (0..p.classes.len() as u32).map(ClassId) {
                let expected: Vec<MethodId> = p
                    .concrete_subtypes(class)
                    .into_iter()
                    .filter_map(|c| p.resolve_virtual(c, slot))
                    .collect();
                let targets = acc.dispatch_targets(slot, class);
                assert_eq!(*targets, *expected, "{}: {slot:?} on {class:?}", case.name);
                // Asked again, the memo answers with the same targets.
                assert!(Rc::ptr_eq(&targets, &acc.dispatch_targets(slot, class)));
                pairs += 1;
            }
        }
    }
    assert!(pairs > 100, "{pairs} (slot, class) pairs");
}
