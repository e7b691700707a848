//! A run allocates only its own frames and report: the engine resolves
//! its pures once at build, so `Session::run` copies no registry and
//! looks up no pure by name.
//!
//! A counting global allocator (forwarding to `System`) tallies every
//! `alloc`, `alloc_zeroed` and `realloc` of the process, so this binary
//! holds a single test: no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use grafter_engine::{Backend, Engine};

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

const SRC: &str = "
    global int G = 0;
    tree class N { virtual traversal t() { G = G + 1; } }
";

/// The most allocations a one-node run of [`SRC`] may make on each tier:
/// the interpreter's entry arguments and frame list, the VM's register
/// stack, and on both the global frame and the report's one global (its
/// list and its name).
const MAX_RUN_ALLOCATIONS: [(Backend, u64); 2] = [(Backend::Interp, 5), (Backend::Vm, 4)];

#[test]
fn a_one_node_run_allocates_only_its_frames_and_report() {
    let mut failures = Vec::new();
    for (backend, max) in MAX_RUN_ALLOCATIONS {
        let engine = Engine::builder()
            .source(SRC)
            .entry("N", &["t"])
            .backend(backend)
            .build()
            .unwrap();
        let mut session = engine.session();
        let root = session.alloc("N").unwrap();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = session.run(root).unwrap();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(report.global("G"), Some(grafter_runtime::Value::Int(1)));
        println!("{backend}: {allocations} allocations per one-node run");
        if allocations > max {
            failures.push(format!("{backend}: {allocations} > {max}"));
        }
    }
    assert!(
        failures.is_empty(),
        "one-node runs allocate more than their frames and report: {failures:?}"
    );
}
