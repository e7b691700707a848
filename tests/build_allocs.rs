//! Building an input tree touches no allocator beyond the arena's
//! amortised growth: every case-study generator, at its test and bench
//! sizes, makes fewer than a quarter of an allocation per node.
//!
//! A counting global allocator (forwarding to `System`) tallies every
//! `alloc`, `alloc_zeroed` and `realloc` of the process, so this binary
//! holds a single test: no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use grafter_runtime::{Heap, Layouts};
use grafter_workloads::case_studies;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count is one atomic add that
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations per node a tree build may make.
const MAX_PER_NODE: f64 = 0.25;

#[test]
fn case_study_trees_build_with_under_a_quarter_allocation_per_node() {
    let mut failures = Vec::new();
    for case in case_studies() {
        let program = Arc::new(case.compiled.program().clone());
        let layouts = Arc::new(Layouts::new(&program));
        for size in [case.test_size, case.bench_size] {
            let mut heap = Heap::with_shared(program.clone(), layouts.clone());
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            (case.build)(&mut heap, size, 42);
            let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
            let per_node = allocations as f64 / heap.len() as f64;
            println!(
                "{} size {size}: {allocations} allocations over {} nodes ({per_node:.3} per node)",
                case.name,
                heap.len()
            );
            if per_node >= MAX_PER_NODE {
                failures.push(format!("{} size {size}: {per_node:.2}", case.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "tree builds allocate {MAX_PER_NODE} or more times per node: {failures:?}"
    );
}
