//! A program's node layout table exists once per engine: a VM build,
//! whose module keeps the layouts lowering computed and shares them with
//! every session heap, peaks within a quarter of an interpreter build of
//! the same program.
//!
//! A counting global allocator (forwarding to `System`) tracks the
//! process's live and peak heap bytes, so this binary holds a single
//! test: no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use grafter_engine::{Backend, Engine};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping is atomic adds that
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Classes of the generated program: one root with a traversal, the rest
/// subclasses that each add one field, so its layout table holds
/// `CLASSES × CLASSES` entries (4 MB).
const CLASSES: usize = 1_000;

/// The most a VM build may peak at, relative to an interpreter build.
const MAX_RATIO: f64 = 1.25;

fn wide_source() -> String {
    let mut src =
        "tree class C0 { int f0 = 0; virtual traversal t() { f0 = f0 + 1; } }\n".to_string();
    for i in 1..CLASSES {
        src += &format!("tree class C{i} : C0 {{ int f{i} = 0; }}\n");
    }
    src
}

/// Bytes the build of `backend`'s engine peaks at above the live bytes
/// before it, with the engine it returns.
fn build_peak(src: &str, backend: Backend) -> (usize, Engine) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let engine = Engine::builder()
        .source(src)
        .entry("C0", &["t"])
        .backend(backend)
        .build()
        .expect("the wide program builds");
    (PEAK.load(Ordering::Relaxed) - before, engine)
}

#[test]
fn a_vm_build_peaks_within_a_quarter_of_an_interp_build() {
    let src = wide_source();
    let (interp, _) = build_peak(&src, Backend::Interp);
    let (vm, engine) = build_peak(&src, Backend::Vm);
    let ratio = vm as f64 / interp as f64;
    println!("build peaks: interp {interp} B, vm {vm} B ({ratio:.2}x)");
    assert!(
        ratio <= MAX_RATIO,
        "a VM build peaks at {ratio:.2}x an interpreter build ({vm} vs {interp} bytes)"
    );

    // One layout table: the module's, which every session heap shares.
    let module = engine.module().expect("vm engine holds its module");
    assert!(std::ptr::eq(&**module.layouts(), engine.layouts()));
    assert!(std::ptr::eq(
        engine.session().heap().layouts(),
        engine.layouts()
    ));
}
