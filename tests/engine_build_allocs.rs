//! Building an engine allocates what fusion and lowering keep, and
//! little besides: each case study's VM-O2 engine build, from an
//! already compiled program, stays within a tenth of the allocations it
//! made when its ceiling was set.
//!
//! A counting global allocator (forwarding to `System`) tallies every
//! `alloc`, `alloc_zeroed` and `realloc` of the process, so this binary
//! holds a single test: no other test thread allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use grafter::FusionOptions;
use grafter_engine::OptLevel;
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

/// Each case study's allocations per VM-O2 engine build when the ceiling
/// was set (release build; debug builds count within 0.5% of these).
/// Building every dispatch key's call automaton afresh, trimming in
/// fresh buffers and giving every explain record its own strings read
/// 48,471, 23,370, 7,152 and 2,305.
const COUNTS: [(&str, u64); 4] = [
    ("ast", 27_353),
    ("render", 8_135),
    ("kdtree", 3_492),
    ("fmm", 1_076),
];

/// How far above its count a build may go.
const SLACK: f64 = 0.10;

#[test]
fn case_study_engine_builds_allocate_within_a_tenth_of_their_counts() {
    let cases = case_studies();
    let build = |case: &grafter_workloads::CaseStudy| {
        case.engine_opt(FusionOptions::default(), OptLevel::O2)
    };
    // One-time allocations (the first use of a lazy table or of the
    // clock) belong to no build.
    drop(build(&cases[0]));
    let mut failures = Vec::new();
    for (case, (name, count)) in cases.iter().zip(COUNTS) {
        assert_eq!(case.name, name);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let engine = build(case);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        drop(engine);
        let ceiling = (count as f64 * (1.0 + SLACK)) as u64;
        println!("{name}: {allocations} allocations per VM-O2 engine build (ceiling {ceiling})");
        if allocations > ceiling {
            failures.push(format!("{name}: {allocations} > {ceiling}"));
        }
    }
    assert!(
        failures.is_empty(),
        "engine builds allocate over their ceilings: {failures:?}"
    );
}
