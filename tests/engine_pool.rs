//! Engine batches fan out on scoped threads: a panicking input poisons
//! only its own worker session, batch threads keep 2 GiB stacks on
//! default options, an input may run a nested batch on the same engine,
//! and case-study batches stay bit-identical.

use grafter_engine::{Backend, BatchOptions, Engine};
use grafter_runtime::Heap;
use grafter_workloads::case_studies;

fn list_engine() -> Engine {
    let src = r#"
        tree class Node {
            child Node* next;
            int a = 0;
            virtual traversal inc() {}
        }
        tree class Cons : Node {
            traversal inc() { a = a + 1; this->next->inc(); }
        }
        tree class End : Node { }
    "#;
    Engine::builder()
        .source(src)
        .entry("Node", &["inc"])
        .backend(Backend::Vm)
        .build()
        .expect("list program compiles")
}

fn list_of(len: usize) -> impl Fn(&mut Heap) -> grafter_runtime::NodeId {
    move |heap: &mut Heap| {
        let mut node = heap.alloc_by_name("End").unwrap();
        for _ in 0..len {
            let cons = heap.alloc_by_name("Cons").unwrap();
            heap.set_child_by_name(cons, "next", Some(node)).unwrap();
            node = cons;
        }
        node
    }
}

#[test]
fn panicking_input_poisons_only_its_session() {
    let engine = list_engine();
    let n = 12;
    let panic_at = 5;
    type Input = Box<dyn FnOnce(&mut Heap) -> grafter_runtime::NodeId + Send>;
    let inputs: Vec<Input> = (0..n)
        .map(|i| {
            let build = list_of(8);
            let f: Input = if i == panic_at {
                Box::new(move |_: &mut Heap| panic!("request {panic_at} exploded"))
            } else {
                Box::new(move |heap: &mut Heap| build(heap))
            };
            f
        })
        .collect();

    let results = engine.try_run_batch(inputs, &BatchOptions::with_workers(3));
    assert_eq!(results.len(), n);
    for (i, result) in results.iter().enumerate() {
        if i == panic_at {
            let err = result.as_ref().expect_err("panicking input must error");
            let rendered = err.to_string();
            assert!(
                rendered.contains("worker panicked") && rendered.contains("exploded"),
                "typed runtime error names the panic: {rendered}"
            );
        } else {
            let report = result.as_ref().expect("other inputs unaffected");
            assert_eq!(report.metrics.visits, 9, "8 Cons + 1 End");
        }
    }

    // The engine survives: the next batch is clean and
    // bit-identical to an unpoisoned run.
    let clean = engine
        .run_batch_with(
            (0..4).map(|_| list_of(8)).collect(),
            &BatchOptions::with_workers(3),
        )
        .expect("post-panic batch");
    assert!(clean.windows(2).all(|w| w[0] == w[1]));
}

/// Batch threads reserve 2 GiB stacks whatever the options: the VM
/// recurses once per list cell, and a debug build overflows a 256 MiB
/// stack well before this depth.
#[test]
fn default_batches_run_lists_too_deep_for_a_256_mib_stack() {
    const DEPTH: usize = 50_000;
    let engine = list_engine();
    let reports = engine
        .run_batch(vec![list_of(DEPTH)])
        .expect("deep list runs");
    assert_eq!(reports[0].metrics.visits, DEPTH as u64 + 1);
}

/// An input's builder may itself run a batch on the same engine: the
/// inner batch fans out on threads of its own.
#[test]
fn inputs_may_run_nested_batches_on_the_same_engine() {
    let engine = list_engine();
    let opts = BatchOptions::with_workers(2);
    let outer: Vec<_> = (0..4)
        .map(|i| {
            let (engine, opts) = (&engine, &opts);
            move |heap: &mut Heap| {
                let inner = engine
                    .run_batch_with((0..3).map(|j| list_of(i + j)).collect(), opts)
                    .expect("nested batch");
                let visits: u64 = inner.iter().map(|r| r.metrics.visits).sum();
                list_of(visits as usize)(heap)
            }
        })
        .collect();
    let reports = engine.run_batch_with(outer, &opts).expect("outer batch");
    for (i, report) in reports.iter().enumerate() {
        // The inner lists of lengths i, i+1 and i+2 visit 3i + 6 nodes.
        assert_eq!(report.metrics.visits, (3 * i + 6) as u64 + 1, "input {i}");
    }
}

#[test]
fn case_study_batches_stay_bit_identical_through_the_pool() {
    for case in case_studies() {
        let engine = case.engine(Backend::Vm);
        let build = case.build;
        let size = case.test_size;
        let inputs: Vec<_> = (0..6)
            .map(|_| move |heap: &mut Heap| build(heap, size, 42))
            .collect();
        let reports = engine
            .run_batch_with(inputs, &BatchOptions::with_workers(3))
            .unwrap_or_else(|e| panic!("{}: batch failed: {e}", case.name));
        assert!(
            reports.windows(2).all(|w| w[0] == w[1]),
            "{}: batch reports must be bit-identical",
            case.name
        );
    }
}
