//! Interpreter integration tests: differential fused-vs-unfused execution,
//! metric sanity and cache integration.

use grafter::{fuse, FuseOptions, FusedProgram};
use grafter_cachesim::CacheHierarchy;
use grafter_frontend::{compile, Program};
use grafter_runtime::{Heap, Interp, Metrics, NodeId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Builds a random Fig.2 element list/tree; returns the root.
fn build_random_elements(heap: &mut Heap, rng: &mut StdRng, depth: usize, length: usize) -> NodeId {
    let end = heap.alloc_by_name("End").unwrap();
    let mut next = end;
    for _ in 0..length {
        let node = if depth > 0 && rng.gen_bool(0.3) {
            let g = heap.alloc_by_name("Group").unwrap();
            heap.set_by_name(g, "Border.Size", Value::Int(rng.gen_range(0..4)))
                .unwrap();
            let len = rng.gen_range(1..4);
            let inner = build_random_elements(heap, rng, depth - 1, len);
            heap.set_child_by_name(g, "Content", Some(inner)).unwrap();
            g
        } else {
            let t = heap.alloc_by_name("TextBox").unwrap();
            heap.set_by_name(t, "Text.Length", Value::Int(rng.gen_range(1..80)))
                .unwrap();
            t
        };
        heap.set_child_by_name(node, "Next", Some(next)).unwrap();
        next = node;
    }
    next
}

fn run_and_snapshot(
    program: &Program,
    fp: &FusedProgram,
    build: &dyn Fn(&mut Heap) -> NodeId,
) -> (Vec<(String, Vec<grafter_runtime::SnapValue>)>, Metrics) {
    let mut heap = Heap::new(program);
    let root = build(&mut heap);
    let mut interp = Interp::new(fp);
    interp.run(&mut heap, root, &[]).expect("run succeeds");
    (heap.snapshot(root), interp.machine.metrics.clone())
}

#[test]
fn fused_and_unfused_produce_identical_trees_fig2() {
    let program = compile(FIG2).unwrap();
    let traversals = ["computeWidth", "computeHeight"];
    let fused = fuse(&program, "Element", &traversals, &FuseOptions::default()).unwrap();
    let unfused = fuse(&program, "Element", &traversals, &FuseOptions::unfused()).unwrap();

    for seed in 0..20u64 {
        let build = move |heap: &mut Heap| {
            let mut rng = StdRng::seed_from_u64(seed);
            build_random_elements(heap, &mut rng, 3, 8)
        };
        let (snap_f, m_f) = run_and_snapshot(&program, &fused, &build);
        let (snap_u, m_u) = run_and_snapshot(&program, &unfused, &build);
        assert_eq!(snap_f, snap_u, "seed {seed}: fused and unfused diverge");
        assert!(
            m_f.visits < m_u.visits,
            "seed {seed}: fusion must reduce visits ({} vs {})",
            m_f.visits,
            m_u.visits
        );
    }
}

#[test]
fn fused_visits_are_half_of_unfused_on_lists() {
    let program = compile(FIG2).unwrap();
    let traversals = ["computeWidth", "computeHeight"];
    let fused = fuse(&program, "Element", &traversals, &FuseOptions::default()).unwrap();
    let unfused = fuse(&program, "Element", &traversals, &FuseOptions::unfused()).unwrap();

    // A pure TextBox list: N+1 nodes, each visited once fused / twice
    // unfused.
    let build = |heap: &mut Heap| {
        let mut rng = StdRng::seed_from_u64(7);
        let end = heap.alloc_by_name("End").unwrap();
        let mut next = end;
        for _ in 0..50 {
            let t = heap.alloc_by_name("TextBox").unwrap();
            heap.set_by_name(t, "Text.Length", Value::Int(rng.gen_range(1..80)))
                .unwrap();
            heap.set_child_by_name(t, "Next", Some(next)).unwrap();
            next = t;
        }
        next
    };
    let (_, m_f) = run_and_snapshot(&program, &fused, &build);
    let (_, m_u) = run_and_snapshot(&program, &unfused, &build);
    assert_eq!(m_u.visits, 2 * 51, "unfused: two passes over 51 nodes");
    assert_eq!(m_f.visits, 51, "fused: one pass");
}

#[test]
fn computed_values_match_hand_calculation() {
    let program = compile(FIG2).unwrap();
    let fp = fuse(
        &program,
        "Element",
        &["computeWidth", "computeHeight"],
        &FuseOptions::default(),
    )
    .unwrap();
    let mut heap = Heap::new(&program);
    let end = heap.alloc_by_name("End").unwrap();
    let t2 = heap.alloc_by_name("TextBox").unwrap();
    heap.set_by_name(t2, "Text.Length", Value::Int(16)).unwrap();
    heap.set_child_by_name(t2, "Next", Some(end)).unwrap();
    let t1 = heap.alloc_by_name("TextBox").unwrap();
    heap.set_by_name(t1, "Text.Length", Value::Int(8)).unwrap();
    heap.set_child_by_name(t1, "Next", Some(t2)).unwrap();

    let mut interp = Interp::new(&fp);
    interp.run(&mut heap, t1, &[]).unwrap();

    // t2: Width = 16; Height = 16*(16/8)+1 = 33; t1: Width = 8;
    // TotalWidth = 16+8 = 24; Height = 8*(8/8)+1 = 9; MaxHeight = 33.
    assert_eq!(heap.get_by_name(t2, "Width").unwrap(), Value::Int(16));
    assert_eq!(heap.get_by_name(t2, "Height").unwrap(), Value::Int(33));
    assert_eq!(heap.get_by_name(t1, "TotalWidth").unwrap(), Value::Int(24));
    assert_eq!(heap.get_by_name(t1, "Height").unwrap(), Value::Int(9));
    assert_eq!(heap.get_by_name(t1, "MaxHeight").unwrap(), Value::Int(33));
}

#[test]
fn tree_mutation_program_runs_identically() {
    // A desugaring-style pass that rewrites marked nodes, fused with a
    // tally pass — exercises new/delete under fusion.
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
    let program = compile(src).unwrap();
    let fused = fuse(
        &program,
        "Node",
        &["desugar", "tally"],
        &FuseOptions::default(),
    )
    .unwrap();
    let unfused = fuse(
        &program,
        "Node",
        &["desugar", "tally"],
        &FuseOptions::unfused(),
    )
    .unwrap();
    assert!(fused.fully_fused());

    let build = |heap: &mut Heap| {
        let mut rng = StdRng::seed_from_u64(42);
        let end = heap.alloc_by_name("End").unwrap();
        let mut next = end;
        for _ in 0..30 {
            let c = heap.alloc_by_name("Cons").unwrap();
            heap.set_by_name(c, "kind", Value::Int(rng.gen_range(0..3)))
                .unwrap();
            let leaf = heap.alloc_by_name("Leaf").unwrap();
            heap.set_by_name(leaf, "v", Value::Int(rng.gen_range(0..100)))
                .unwrap();
            heap.set_child_by_name(c, "payload", Some(leaf)).unwrap();
            heap.set_child_by_name(c, "next", Some(next)).unwrap();
            next = c;
        }
        next
    };
    let (snap_f, _) = run_and_snapshot(&program, &fused, &build);
    let (snap_u, _) = run_and_snapshot(&program, &unfused, &build);
    assert_eq!(snap_f, snap_u);
}

#[test]
fn truncation_via_return_matches_unfused() {
    // One traversal truncates early (stops at marked nodes); the other
    // walks the whole list. Exercises the active-flags machinery.
    let src = r#"
        tree class Node {
            child Node* next;
            bool stop = false;
            int a = 0; int b = 0;
            virtual traversal markA() {}
            virtual traversal markB() {}
        }
        tree class Cons : Node {
            traversal markA() {
                if (stop) { return; }
                a = a + 1;
                this->next->markA();
            }
            traversal markB() {
                b = b + 1;
                this->next->markB();
            }
        }
        tree class End : Node { }
    "#;
    let program = compile(src).unwrap();
    let fused = fuse(
        &program,
        "Node",
        &["markA", "markB"],
        &FuseOptions::default(),
    )
    .unwrap();
    let unfused = fuse(
        &program,
        "Node",
        &["markA", "markB"],
        &FuseOptions::unfused(),
    )
    .unwrap();

    for seed in 0..10u64 {
        let build = move |heap: &mut Heap| {
            let mut rng = StdRng::seed_from_u64(seed);
            let end = heap.alloc_by_name("End").unwrap();
            let mut next = end;
            for _ in 0..20 {
                let c = heap.alloc_by_name("Cons").unwrap();
                heap.set_by_name(c, "stop", Value::Bool(rng.gen_bool(0.2)))
                    .unwrap();
                heap.set_child_by_name(c, "next", Some(next)).unwrap();
                next = c;
            }
            next
        };
        let (snap_f, m_f) = run_and_snapshot(&program, &fused, &build);
        let (snap_u, m_u) = run_and_snapshot(&program, &unfused, &build);
        assert_eq!(snap_f, snap_u, "seed {seed}");
        assert!(m_f.visits <= m_u.visits, "seed {seed}");
    }
}

#[test]
fn traversal_parameters_flow_through_fusion() {
    let src = r#"
        tree class Node {
            child Node* next;
            int a = 0; int b = 0;
            virtual traversal addA(int delta) {}
            virtual traversal addB(int delta) {}
        }
        tree class Cons : Node {
            traversal addA(int delta) {
                a = a + delta;
                this->next->addA(delta + 1);
            }
            traversal addB(int delta) {
                b = b + delta;
                this->next->addB(delta * 2);
            }
        }
        tree class End : Node { }
    "#;
    let program = compile(src).unwrap();
    let fused = fuse(&program, "Node", &["addA", "addB"], &FuseOptions::default()).unwrap();
    let unfused = fuse(&program, "Node", &["addA", "addB"], &FuseOptions::unfused()).unwrap();
    assert!(fused.fully_fused());

    let build = |heap: &mut Heap| {
        let end = heap.alloc_by_name("End").unwrap();
        let mut next = end;
        for _ in 0..10 {
            let c = heap.alloc_by_name("Cons").unwrap();
            heap.set_child_by_name(c, "next", Some(next)).unwrap();
            next = c;
        }
        next
    };
    let args = vec![vec![Value::Int(5)], vec![Value::Int(3)]];

    let mut h1 = Heap::new(&program);
    let r1 = build(&mut h1);
    Interp::new(&fused).run(&mut h1, r1, &args).unwrap();
    let mut h2 = Heap::new(&program);
    let r2 = build(&mut h2);
    Interp::new(&unfused).run(&mut h2, r2, &args).unwrap();
    assert_eq!(h1.snapshot(r1), h2.snapshot(r2));
    // First node: a += 5, b += 3.
    assert_eq!(h1.get_by_name(r1, "a").unwrap(), Value::Int(5));
    assert_eq!(h1.get_by_name(r1, "b").unwrap(), Value::Int(3));
}

#[test]
fn cache_misses_drop_with_fusion_on_large_trees() {
    // Deep recursion: run on a large dedicated stack.
    grafter_runtime::with_stack(1 << 30, cache_misses_drop_impl);
}

fn cache_misses_drop_impl() {
    let program = compile(FIG2).unwrap();
    let traversals = ["computeWidth", "computeHeight"];
    let fused = fuse(&program, "Element", &traversals, &FuseOptions::default()).unwrap();
    let unfused = fuse(&program, "Element", &traversals, &FuseOptions::unfused()).unwrap();

    let build = |heap: &mut Heap| {
        let mut rng = StdRng::seed_from_u64(1);
        let end = heap.alloc_by_name("End").unwrap();
        let mut next = end;
        for _ in 0..200_000 {
            let t = heap.alloc_by_name("TextBox").unwrap();
            heap.set_by_name(t, "Text.Length", Value::Int(rng.gen_range(1..80)))
                .unwrap();
            heap.set_child_by_name(t, "Next", Some(next)).unwrap();
            next = t;
        }
        next
    };

    let run = |fp: &FusedProgram| {
        let mut heap = Heap::new(&program);
        let root = build(&mut heap);
        let mut interp = Interp::new(fp);
        interp.machine.cache = Some(CacheHierarchy::xeon());
        interp.run(&mut heap, root, &[]).unwrap();
        interp.machine.cache.as_ref().unwrap().stats()
    };
    let s_f = run(&fused);
    let s_u = run(&unfused);
    // The tree (~200k * 72B = 14 MB) exceeds L2; the unfused version
    // streams it twice, the fused version once: misses drop.
    assert!(
        s_f.misses(1) * 10 < s_u.misses(1) * 9,
        "fused L2 misses {} vs unfused {}",
        s_f.misses(1),
        s_u.misses(1)
    );
}

#[test]
fn globals_are_readable_and_settable() {
    let program = compile(FIG2).unwrap();
    let fp = fuse(
        &program,
        "Element",
        &["computeWidth", "computeHeight"],
        &FuseOptions::default(),
    )
    .unwrap();
    let mut interp = Interp::new(&fp);
    assert_eq!(interp.machine.global("CHAR_WIDTH"), Some(Value::Int(8)));
    interp
        .machine
        .set_global("CHAR_WIDTH", Value::Int(4))
        .unwrap();
    assert_eq!(interp.machine.global("CHAR_WIDTH"), Some(Value::Int(4)));

    let mut heap = Heap::new(&program);
    let end = heap.alloc_by_name("End").unwrap();
    let t = heap.alloc_by_name("TextBox").unwrap();
    heap.set_by_name(t, "Text.Length", Value::Int(8)).unwrap();
    heap.set_child_by_name(t, "Next", Some(end)).unwrap();
    interp.run(&mut heap, t, &[]).unwrap();
    // Height = 8*(8/4)+1 = 17 with the overridden CHAR_WIDTH.
    assert_eq!(heap.get_by_name(t, "Height").unwrap(), Value::Int(17));
}

#[test]
fn instruction_overhead_of_fusion_is_modest() {
    let program = compile(FIG2).unwrap();
    let traversals = ["computeWidth", "computeHeight"];
    let fused = fuse(&program, "Element", &traversals, &FuseOptions::default()).unwrap();
    let unfused = fuse(&program, "Element", &traversals, &FuseOptions::unfused()).unwrap();

    let build = |heap: &mut Heap| {
        let mut rng = StdRng::seed_from_u64(3);
        build_random_elements(heap, &mut rng, 4, 50)
    };
    let (_, m_f) = run_and_snapshot(&program, &fused, &build);
    let (_, m_u) = run_and_snapshot(&program, &unfused, &build);
    // Fusion halves dispatches but adds guard/flag arithmetic; the paper
    // reports near-zero net instruction overhead for the render tree.
    // Allow a generous envelope either way.
    let ratio = m_f.instructions as f64 / m_u.instructions as f64;
    assert!(
        (0.5..1.3).contains(&ratio),
        "instruction ratio {ratio} out of envelope ({} vs {})",
        m_f.instructions,
        m_u.instructions
    );
}

#[test]
fn deleted_nodes_are_not_reachable() {
    let program = compile(FIG2).unwrap();
    let mut heap = Heap::new(&program);
    let end = heap.alloc_by_name("End").unwrap();
    let t = heap.alloc_by_name("TextBox").unwrap();
    heap.set_child_by_name(t, "Next", Some(end)).unwrap();
    assert_eq!(heap.live_count(), 2);
    heap.delete_subtree(t);
    assert_eq!(heap.live_count(), 0);
    assert!(!heap.is_alive(t));
}

#[test]
fn snapshot_is_structural_not_address_based() {
    let program = compile(FIG2).unwrap();
    // Same structure, different allocation order => equal snapshots.
    let mut h1 = Heap::new(&program);
    let e1 = h1.alloc_by_name("End").unwrap();
    let t1 = h1.alloc_by_name("TextBox").unwrap();
    h1.set_child_by_name(t1, "Next", Some(e1)).unwrap();

    let mut h2 = Heap::new(&program);
    let t2 = h2.alloc_by_name("TextBox").unwrap();
    let e2 = h2.alloc_by_name("End").unwrap();
    h2.set_child_by_name(t2, "Next", Some(e2)).unwrap();

    assert_eq!(h1.snapshot(t1), h2.snapshot(t2));
}
