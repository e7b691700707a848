//! Performance counters matching the paper's four measured quantities.

use grafter_cachesim::HierarchyStats;

/// Abstract cost constants of the instruction model.
///
/// These mirror the shape of the code Grafter generates (Fig. 6): virtual
/// dispatch through a stub, a guard test per statement when traversals are
/// fused, and two flag-shuffling instructions per grouped call part.
pub mod cost {
    /// Virtual dispatch of a (stub) call: vtable load, indirect call,
    /// prologue/epilogue.
    pub const DISPATCH: u64 = 5;
    /// One `active_flags & mask` guard test.
    pub const GUARD: u64 = 1;
    /// Shift+or pair filling `call_flags` for one part (Fig. 6 lines 8–11).
    pub const FLAG_SHUFFLE: u64 = 2;
    /// Allocation of one node (`new`).
    pub const ALLOC: u64 = 16;
    /// Deallocation of one node (`delete`).
    pub const FREE: u64 = 8;
}

/// Counters collected by one interpreter run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of times any traversal function is called on any node —
    /// the paper's performance-agnostic fusion-effectiveness measure.
    pub visits: u64,
    /// Abstract instructions executed (expression ops, guards, flag
    /// arithmetic, dispatch overhead).
    pub instructions: u64,
    /// Field loads issued to the memory system.
    pub loads: u64,
    /// Field stores issued to the memory system.
    pub stores: u64,
}

impl Metrics {
    /// Resets all counters.
    pub fn reset(&mut self) {
        *self = Metrics::default();
    }

    /// Modelled runtime in cycles: one cycle per instruction plus the
    /// memory-stall cycles accumulated by the cache hierarchy.
    pub fn cycles(&self, cache: &HierarchyStats) -> u64 {
        self.instructions + cache.cycles
    }
}
