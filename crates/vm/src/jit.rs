//! The closure-threaded native tier: bytecode pre-compiled into a graph
//! of monomorphized Rust closures, executed with **zero opcode dispatch**.
//!
//! The register VM ([`crate::Vm`]) already removed the interpreter's name
//! lookups and per-visit allocations, but every op still pays one
//! `match opcode` round through the dispatch loop. This module removes
//! that last layer: [`compile`] walks each optimized function's
//! control-flow graph once and threads every basic block into **one
//! continuation chain of pre-built closures**. Each step closure captures
//! its operands — constants, field ids, path slices, jump-table indices
//! and coercions are resolved into *captured values* at compile time —
//! plus the rest of its own block's chain, so executing an op is a
//! direct indirect call into a monomorphized body, never a `match` over
//! an opcode. Control transfer is resolved at compile time too: forward
//! edges are captured as direct calls into the successor's chain,
//! `Jump`s and resolved flag tests dissolve into the successor outright,
//! and only back edges bounce through a per-activation trampoline by
//! returning the target block's index. Runs of consecutive register-file
//! ops collapse into single fused closures, and a field load feeding a
//! compare-and-branch fuses with it.
//!
//! The calling convention is deliberately lean: per-activation state
//! (receiver, active-traversal flags, register-frame base) travels in one
//! `Frame`, so every closure call is four pointer-sized arguments — all
//! in registers — and returns a `u32` flow code. Runtime errors are rare,
//! so their payload is stashed in the `Machine` out of the hot return
//! path.
//!
//! Two execution modes, chosen at compile time (the mode is a
//! const-generic, so the unused half of every closure body is compiled
//! out, not branched over):
//!
//! - [`JitMode::Counted`] replays the VM's **exact** charge/touch
//!   sequence: the same [`grafter_runtime::cost`] constants at the same
//!   execution points, the same simulated byte addresses in the same
//!   order. `Metrics` and cache traffic are bit-identical to the
//!   interpreter and the VM — the three-way differential suite
//!   (`tests/jit_differential.rs`) is the executable statement.
//! - [`JitMode::Release`] drops the accounting entirely — no instruction
//!   charges, no load/store counters, no cache simulation — and goes flat
//!   out. Only the `visits` counter survives (one increment per dispatch;
//!   it is what cross-run sanity checks and throughput metrics key on).
//!   Heap effects, final globals and runtime errors remain identical to
//!   counted mode; a cache model attached to a release run records
//!   nothing. Release compilation additionally specializes each function
//!   for the active-flag words it can actually be entered with
//!   (enumerated through the call graph): under a pinned word, flag
//!   guards and skip tests collapse to their statically taken edge and
//!   retraversal becomes a constant store, with the runtime-tested
//!   generic chains kept as the always-correct fallback.
//!
//! [`JitProgram`] is immutable and `Send + Sync` — like the bytecode
//! [`Module`] it is compiled from, one instance serves any number of
//! sessions and threads ([`grafter_engine::Engine`] compiles it exactly
//! once at build).
//!
//! [`grafter_engine::Engine`]: https://docs.rs/grafter-engine

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use grafter_cachesim::CacheHierarchy;
use grafter_frontend::ClassId;
use grafter_runtime::ops::{binop, unop};
use grafter_runtime::{
    cost, Heap, Metrics, NativeFn, NodeId, PureRegistry, RuntimeError, Value, NODE_HEADER_BYTES,
    SLOT_BYTES,
};

use crate::exec::GLOBALS_BASE_ADDR;
use crate::module::{CallInfo, CallPartInfo, Co, Module, Op, NO_TARGET};
use crate::opt::op_target;

type RResult<T> = Result<T, RuntimeError>;

/// How a compiled [`JitProgram`] accounts for its execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum JitMode {
    /// Replay the VM's exact charge/touch sequence: `Metrics` and cache
    /// traffic bit-identical to [`crate::Vm`] and the interpreter.
    #[default]
    Counted,
    /// Drop all accounting (only `visits` survives) and go flat out.
    /// Same heap effects, globals and errors; attached cache models stay
    /// silent.
    Release,
}

impl fmt::Display for JitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            JitMode::Counted => "counted",
            JitMode::Release => "release",
        })
    }
}

impl FromStr for JitMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "counted" => Ok(JitMode::Counted),
            "release" => Ok(JitMode::Release),
            other => Err(format!(
                "unknown jit mode `{other}` (expected counted|release)"
            )),
        }
    }
}

/// Flow code: the activation returns normally.
const FLOW_RET: u32 = u32::MAX;
/// Flow code: the run aborts; the error payload is in [`Machine::error`].
const FLOW_ERR: u32 = u32::MAX - 1;

/// One activation's state, threaded through every closure by reference so
/// a block/step call carries four pointer-sized arguments total.
struct Frame {
    /// The receiver node of this activation.
    node: NodeId,
    /// Active-traversal flag word (terminators may clear bits).
    active: u64,
    /// This activation's base index into the shared register stack.
    base: usize,
}

/// The mutable machine state one run threads through every closure:
/// the shared register stack, the flattened global frame, resolved pure
/// implementations, the stashed error of a failing run, and (counted
/// mode) the counters and simulated cache.
struct Machine {
    metrics: Metrics,
    cache: Option<CacheHierarchy>,
    pures: Vec<Option<NativeFn>>,
    globals: Vec<Value>,
    regs: Vec<Value>,
    /// Set exactly when a closure returns `false`/[`FLOW_ERR`]; keeping
    /// the payload here keeps every hot return register-sized.
    error: Option<RuntimeError>,
    /// Per-function/per-block hit counters of a probed run (attached by
    /// [`Jit::with_counters`]); `None` in normal runs, costing one
    /// predicted branch per activation and nothing per op.
    probe: Option<Box<grafter_obs::ChainCounters>>,
}

/// One compiled basic block's continuation: a chain of step closures
/// ending in the terminator. Each step directly calls the next closure it
/// captured at compile time, and terminators directly call their
/// *forward* successors' continuations too (shared via `Arc` when a block
/// has several predecessors) — so every call site is monomorphic: always
/// the same target, perfectly predicted. Only back edges return an index
/// (or [`FLOW_RET`]/[`FLOW_ERR`]) to the trampoline in [`run_func`],
/// which keeps loop nesting off the native stack.
type BlockFn = Arc<dyn Fn(&JitProgram, &mut Machine, &mut Heap, &mut Frame) -> u32 + Send + Sync>;

/// A terminator's compile-time-resolved successor: forward edges hold the
/// successor's continuation and call straight into it; back edges bounce
/// the block index off the trampoline. A successor that is nothing but
/// `Ret` collapses to the flow code itself — no call at all — which
/// shaves one indirect call per visit off the tiny guard/call/ret
/// functions dispatch-heavy traversals are made of.
enum Succ {
    Direct(BlockFn),
    Tramp(u32),
    Ret,
}

impl Succ {
    #[inline]
    fn go(&self, jit: &JitProgram, st: &mut Machine, heap: &mut Heap, f: &mut Frame) -> u32 {
        match self {
            Succ::Direct(cont) => cont(jit, st, heap, f),
            Succ::Tramp(b) => *b,
            Succ::Ret => FLOW_RET,
        }
    }
}

/// Compile-time successor lookup for one block's terminator: resolves a
/// jump target (or the fallthrough) against the continuations already
/// built for the blocks after it.
struct Succs<'a> {
    conts: &'a [Option<BlockFn>],
    /// Blocks that consist solely of `Ret` (collapse to [`Succ::Ret`]).
    ret_only: &'a [bool],
    bi: u32,
    block_of: &'a dyn Fn(u32) -> u32,
}

impl Succs<'_> {
    fn of_block(&self, t: u32) -> Succ {
        if self.ret_only[t as usize] {
            Succ::Ret
        } else if t > self.bi {
            Succ::Direct(
                self.conts[t as usize]
                    .clone()
                    .expect("forward continuations are built back-to-front"),
            )
        } else {
            Succ::Tramp(t)
        }
    }

    /// The successor at jump-target pc `pc`.
    fn of_pc(&self, pc: u32) -> Succ {
        self.of_block((self.block_of)(pc))
    }

    /// The fallthrough successor (always forward).
    fn fall(&self) -> Succ {
        self.of_block(self.bi + 1)
    }

    /// The fallthrough continuation itself, for blocks ending at a block
    /// boundary with no terminator op.
    fn fall_cont(&self) -> BlockFn {
        match self.fall() {
            Succ::Direct(cont) => cont,
            Succ::Ret => Arc::new(|_, _, _, _| FLOW_RET),
            Succ::Tramp(_) => unreachable!("fallthrough is always a forward edge"),
        }
    }
}

/// One compiled function: its block array (entry is block 0) plus the
/// frame metadata the caller needs to invoke it.
struct JitFunc {
    blocks: Vec<BlockFn>,
    /// Release-mode variants specialized per entry flag word (the words
    /// [`entry_flag_words`] enumerates from the call graph): inside a
    /// variant every resolvable `Guard`/`SkipInactive`/`Deactivate`
    /// outcome is fixed at compile time, so flag-test blocks alias
    /// straight to their chosen successor's continuation and the tests
    /// vanish from the hot path. Empty in counted mode, which keeps the
    /// charge-exact generic path.
    variants: Box<[(u64, Vec<BlockFn>)]>,
    /// Whether the body is nothing but `Ret` — the no-op handler classes
    /// outside a pass's interest dispatch to. Invoking it can skip the
    /// whole activation (it charges nothing and touches no state).
    trivial: bool,
    total_regs: u16,
    params: Box<[Box<[u16]>]>,
}

/// A dispatch jump table, copied out of the module so the compiled
/// program is self-contained.
struct JitStub {
    n_parts: u8,
    targets: Box<[u32]>,
}

/// A fused program compiled to closure-threaded native form — the
/// artifact [`compile`] produces and [`Jit`] executes.
///
/// Immutable and `Send + Sync`: compile once, run from any number of
/// threads.
pub struct JitProgram {
    funcs: Vec<JitFunc>,
    stubs: Vec<JitStub>,
    /// Entry stubs in invocation order (mirrors [`Module`]).
    entries: Vec<u16>,
    class_names: Vec<String>,
    /// Dense `class * n_fields + field → slot` table.
    field_offsets: Vec<u32>,
    n_fields: usize,
    globals_init: Vec<Value>,
    global_names: Vec<(String, u32)>,
    pure_names: Vec<String>,
    mode: JitMode,
    /// Flattened block-counter base per function (`block_base[fi] + bi`
    /// is block `bi`'s slot in [`grafter_obs::ChainCounters`]).
    block_base: Vec<usize>,
    /// Whether block-hit probes were woven into the chains at compile
    /// time ([`compile_with`] with `probed = true`).
    probed: bool,
}

impl JitProgram {
    /// The accounting mode this program was compiled for.
    pub fn mode(&self) -> JitMode {
        self.mode
    }

    /// Number of compiled functions.
    pub fn n_functions(&self) -> usize {
        self.funcs.len()
    }

    /// Total number of compiled basic-block closures.
    pub fn n_blocks(&self) -> usize {
        self.funcs.iter().map(|f| f.blocks.len()).sum()
    }

    /// Whether block-hit probes were compiled into the chains.
    pub fn probed(&self) -> bool {
        self.probed
    }

    /// Zeroed hit counters sized for this program (one slot per function
    /// and per compiled block).
    pub fn counters(&self) -> grafter_obs::ChainCounters {
        grafter_obs::ChainCounters::new(self.n_functions(), self.n_blocks())
    }

    /// Aggregates raw [`grafter_obs::ChainCounters`] from a probed run
    /// into a named [`grafter_obs::TierProfile`], resolving names through
    /// the `module` this program was compiled from (function and block
    /// indices of the two artifacts coincide by construction).
    ///
    /// Two structural gaps are inherent to the chain encoding: blocks
    /// that are nothing but `Ret` collapse into flow codes and are never
    /// entered, and trivial (ret-only) functions are skipped by the call
    /// path entirely — both legitimately report zero.
    pub fn profile(
        &self,
        counters: &grafter_obs::ChainCounters,
        module: &Module,
    ) -> grafter_obs::TierProfile {
        let mut p = grafter_obs::TierProfile::default();
        for i in 0..self.funcs.len() {
            let hits = counters.func_hits.get(i).copied().unwrap_or(0);
            if hits > 0 {
                p.func_hits
                    .push((module.function_name(i).to_string(), hits));
            }
        }
        for (i, f) in self.funcs.iter().enumerate() {
            for bi in 0..f.blocks.len() {
                let slot = self.block_base[i] + bi;
                let hits = counters.block_hits.get(slot).copied().unwrap_or(0);
                if hits > 0 {
                    p.block_hits
                        .push((format!("{}/b{bi}", module.function_name(i)), hits));
                }
            }
        }
        p
    }

    /// Slot offset of `field` within dynamic class `class`.
    #[inline]
    fn offset_of(&self, class: usize, field: u32) -> usize {
        let off = self.field_offsets[class * self.n_fields + field as usize];
        debug_assert_ne!(off, u32::MAX, "field not present on class");
        off as usize
    }
}

impl fmt::Debug for JitProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JitProgram")
            .field("mode", &self.mode)
            .field("functions", &self.n_functions())
            .field("blocks", &self.n_blocks())
            .finish_non_exhaustive()
    }
}

// ---- basic-block discovery -----------------------------------------------

/// Whether `op` ends a basic block (transfers or may transfer control).
pub(crate) fn is_block_terminator(op: &Op) -> bool {
    op_target(op).is_some() || matches!(op, Op::Ret)
}

/// The basic blocks of function `fidx`, as `(start, end)` pc ranges in
/// program order. Block boundaries are the function entry, every jump
/// target, and the op after every control transfer — the CFG the JIT
/// compiles from, and the grouping `grafterc --disasm-blocks` prints.
pub(crate) fn basic_blocks(module: &Module, fidx: usize) -> Vec<(u32, u32)> {
    let f = &module.funcs[fidx];
    let mut starts = vec![f.entry];
    for pc in f.entry..f.end {
        let op = &module.ops[pc as usize];
        if let Some(t) = op_target(op) {
            debug_assert!((f.entry..f.end).contains(&t), "intra-function target");
            starts.push(t);
        }
        if is_block_terminator(op) && pc + 1 < f.end {
            starts.push(pc + 1);
        }
    }
    starts.sort_unstable();
    starts.dedup();
    starts
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, starts.get(i + 1).copied().unwrap_or(f.end)))
        .collect()
}

// ---- compilation ---------------------------------------------------------

/// Compiles an optimized bytecode [`Module`] into a closure-threaded
/// [`JitProgram`] for `mode`.
///
/// This is the expensive, once-per-program step (the engine runs it at
/// build); execution afterwards performs no opcode dispatch at all.
pub fn compile(module: &Module, mode: JitMode) -> JitProgram {
    compile_with(module, mode, false)
}

/// Compiles like [`compile`], optionally (`probed = true`) weaving a
/// block-hit probe into the head of every chain: each block entry bumps
/// one [`grafter_obs::ChainCounters`] slot when a counter box is attached
/// to the run ([`Jit::with_counters`]). Probed chains cost one predicted
/// branch per block even with no counters attached, which is why the
/// default compile leaves them out entirely.
pub fn compile_with(module: &Module, mode: JitMode, probed: bool) -> JitProgram {
    let known = sole_dispatch_classes(module);
    let mut block_base = Vec::with_capacity(module.funcs.len());
    let mut total_blocks = 0usize;
    for fi in 0..module.funcs.len() {
        block_base.push(total_blocks);
        total_blocks += basic_blocks(module, fi).len();
    }
    let base_of = |fi: usize| if probed { Some(block_base[fi]) } else { None };
    let funcs = match mode {
        JitMode::Counted => (0..module.funcs.len())
            .map(|fi| compile_func::<true>(module, fi, known[fi], &[], base_of(fi)))
            .collect(),
        JitMode::Release => {
            let words = entry_flag_words(module, 12);
            (0..module.funcs.len())
                .map(|fi| compile_func::<false>(module, fi, known[fi], &words[fi], base_of(fi)))
                .collect()
        }
    };
    JitProgram {
        funcs,
        stubs: module
            .stubs
            .iter()
            .map(|s| JitStub {
                n_parts: s.n_parts,
                targets: s.targets.clone(),
            })
            .collect(),
        entries: module.entries.clone(),
        class_names: module.class_names.clone(),
        field_offsets: module.field_offsets.clone(),
        n_fields: module.n_fields,
        globals_init: module.globals_init.clone(),
        global_names: module.global_names.clone(),
        pure_names: module.pure_names.clone(),
        mode,
        block_base,
        probed,
    }
}

/// The receiver class each function is *always* dispatched on, when there
/// is exactly one. Every invocation flows through a stub jump table or a
/// devirtualised `CallMono` class check, so when all recorded edges into
/// a function carry the same receiver class, `this` has a statically
/// known layout inside it — the layer of specialization bytecode shared
/// across classes cannot express.
fn sole_dispatch_classes(module: &Module) -> Vec<Option<usize>> {
    let n = module.funcs.len();
    let mut known: Vec<Option<usize>> = vec![None; n];
    let mut conflicted = vec![false; n];
    let mut edge = |target: u32, class: usize| {
        let t = target as usize;
        match known[t] {
            None if !conflicted[t] => known[t] = Some(class),
            Some(c) if c != class => {
                known[t] = None;
                conflicted[t] = true;
            }
            _ => {}
        }
    };
    for stub in &module.stubs {
        for (class, &target) in stub.targets.iter().enumerate() {
            if target != NO_TARGET {
                edge(target, class);
            }
        }
    }
    for op in &module.ops {
        if let Op::CallMono { target, class, .. } = *op {
            edge(target, class as usize);
        }
    }
    known
}

/// A tree field access with everything resolvable at compile time
/// resolved: when the receiver class is known, an empty-path access is a
/// bare precomputed slot and a non-empty path has its first hop
/// pre-resolved.
struct FieldRef {
    path: Box<[u32]>,
    field: u32,
    addend: u32,
    /// Pre-resolved first path hop slot, or `u32::MAX` when dynamic.
    first_slot: u32,
    /// Fully pre-resolved receiver slot, or `u32::MAX` when dynamic.
    slot: u32,
}

impl FieldRef {
    fn new(module: &Module, known: Option<usize>, path: u16, field: u32, addend: u32) -> FieldRef {
        let path = module.paths[path as usize].clone();
        let (mut first_slot, mut slot) = (u32::MAX, u32::MAX);
        if let Some(class) = known {
            match path.first() {
                None => slot = module.offset_of(class, field) as u32 + addend,
                Some(&hop) => first_slot = module.offset_of(class, hop) as u32,
            }
        }
        FieldRef {
            path,
            field,
            addend,
            first_slot,
            slot,
        }
    }

    /// Resolves the access target and slot from `node`: `None` when a
    /// path hop is null. Charges exactly [`navigate`]'s per-hop sequence;
    /// slot lookup itself is uncharged, as in the VM.
    #[inline]
    fn locate<const C: bool>(
        &self,
        jit: &JitProgram,
        st: &mut Machine,
        heap: &Heap,
        node: NodeId,
    ) -> RResult<Option<(NodeId, usize)>> {
        if self.slot != u32::MAX {
            return Ok(Some((node, self.slot as usize)));
        }
        let mut cur = node;
        let mut path = &self.path[..];
        if self.first_slot != u32::MAX {
            let slot = self.first_slot as usize;
            if C {
                st.metrics.instructions += 1;
                st.metrics.loads += 1;
                touch(st, slot_addr(heap, cur, slot));
            }
            match heap.get(cur, slot) {
                Value::Ref(Some(c)) => cur = c,
                Value::Ref(None) => return Ok(None),
                _ => return Err(RuntimeError::NotARef),
            }
            path = &path[1..];
        }
        match navigate::<C>(jit, st, heap, cur, path)? {
            None => Ok(None),
            Some(target) => {
                let class = heap.class_of(target);
                let slot = jit.offset_of(class.index(), self.field) + self.addend as usize;
                Ok(Some((target, slot)))
            }
        }
    }

    /// [`locate`](FieldRef::locate) for data accesses, where a null on
    /// the path is itself the error: stashes it and returns `None`.
    #[inline]
    fn locate_strict<const C: bool>(
        &self,
        jit: &JitProgram,
        st: &mut Machine,
        heap: &Heap,
        node: NodeId,
    ) -> Option<(NodeId, usize)> {
        match self.locate::<C>(jit, st, heap, node) {
            Ok(Some(at)) => Some(at),
            Ok(None) => {
                flow_fail(st, RuntimeError::NullDeref);
                None
            }
            Err(e) => {
                flow_fail(st, e);
                None
            }
        }
    }
}

/// A pure path navigation (no field) with its first hop pre-resolved when
/// the receiver class is known.
struct NavRef {
    path: Box<[u32]>,
    /// Pre-resolved first path hop slot, or `u32::MAX` when dynamic.
    first_slot: u32,
}

impl NavRef {
    fn new(module: &Module, known: Option<usize>, path: u16) -> NavRef {
        let path = module.paths[path as usize].clone();
        let first_slot = match (known, path.first()) {
            (Some(class), Some(&hop)) => module.offset_of(class, hop) as u32,
            _ => u32::MAX,
        };
        NavRef { path, first_slot }
    }

    /// Follows the path from `node`; `None` if a hop is null. Same charge
    /// sequence as [`navigate`].
    #[inline]
    fn walk<const C: bool>(
        &self,
        jit: &JitProgram,
        st: &mut Machine,
        heap: &Heap,
        node: NodeId,
    ) -> RResult<Option<NodeId>> {
        let mut cur = node;
        let mut path = &self.path[..];
        if self.first_slot != u32::MAX {
            let slot = self.first_slot as usize;
            if C {
                st.metrics.instructions += 1;
                st.metrics.loads += 1;
                touch(st, slot_addr(heap, cur, slot));
            }
            match heap.get(cur, slot) {
                Value::Ref(Some(c)) => cur = c,
                Value::Ref(None) => return Ok(None),
                _ => return Err(RuntimeError::NotARef),
            }
            path = &path[1..];
        }
        navigate::<C>(jit, st, heap, cur, path)
    }
}

/// Compiles one function's blocks; `C` selects counted accounting and
/// `known` is the function's sole dispatch class, when it has one.
fn compile_func<const C: bool>(
    module: &Module,
    fidx: usize,
    known: Option<usize>,
    words: &[u64],
    probe_base: Option<usize>,
) -> JitFunc {
    let f = &module.funcs[fidx];
    let trivial = f.end - f.entry == 1 && matches!(module.ops[f.entry as usize], Op::Ret);
    let blocks = build_blocks::<C>(module, fidx, known, None, None, probe_base);
    let variants = words
        .iter()
        .map(|&w| {
            (
                w,
                build_blocks::<C>(module, fidx, known, Some(w), Some(&blocks), probe_base),
            )
        })
        .collect();
    JitFunc {
        blocks,
        variants,
        trivial,
        total_regs: f.total_regs,
        params: f.params.clone(),
    }
}

/// The flag words each function can be entered with, enumerated by
/// propagating the engine's entry convention through the call graph:
/// under a dataflow-pinned caller word, every call site's callee word is
/// exactly computable and flows to every target its stub can dispatch
/// to. Best-effort by construction — a word dropped by the per-function
/// `cap` (or a site in a conflicted block) just means those activations
/// run the always-correct generic chains.
fn entry_flag_words(module: &Module, cap: usize) -> Vec<Vec<u64>> {
    fn add(words: &mut [Vec<u64>], pending: &mut Vec<(usize, u64)>, cap: usize, fi: usize, w: u64) {
        let set = &mut words[fi];
        if set.len() >= cap || set.contains(&w) {
            return;
        }
        set.push(w);
        pending.push((fi, w));
    }
    fn gather(info: &CallInfo, active: u64) -> u64 {
        let mut flags = 0u64;
        for (i, part) in info.parts.iter().enumerate().take(64) {
            if active & (1u64 << part.traversal) != 0 {
                flags |= 1u64 << i;
            }
        }
        flags
    }
    let mut words: Vec<Vec<u64>> = vec![Vec::new(); module.funcs.len()];
    let mut pending: Vec<(usize, u64)> = Vec::new();
    // Seeds mirror `Jit::run`: one fused entry runs all-active, separate
    // entries run one traversal each.
    if module.entries.len() == 1 {
        let stub = &module.stubs[module.entries[0] as usize];
        let n = stub.n_parts as usize;
        let word = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        for &t in stub.targets.iter() {
            if t != NO_TARGET {
                add(&mut words, &mut pending, cap, t as usize, word);
            }
        }
    } else {
        for &e in &module.entries {
            for &t in module.stubs[e as usize].targets.iter() {
                if t != NO_TARGET {
                    add(&mut words, &mut pending, cap, t as usize, 0b1);
                }
            }
        }
    }
    // Distinct flag words a single block is tracked under before the
    // walk stops following it (a compile-time bound, not a correctness
    // one — untracked pairs only mean fewer enumerated entry words).
    const BLOCK_CAP: usize = 16;
    while let Some((fi, word)) = pending.pop() {
        let blocks = basic_blocks(module, fi);
        let block_of = |pc: u32| -> usize {
            blocks
                .binary_search_by_key(&pc, |&(s, _)| s)
                .expect("every jump target starts a block")
        };
        // Exact (block, word) reachability — unlike `known_actives`,
        // joins of different words don't conflict, they just enumerate
        // both, so call sites past a join still propagate.
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); blocks.len()];
        let mut wl = vec![(0usize, word)];
        while let Some((bi, a)) = wl.pop() {
            let set = &mut seen[bi];
            if set.contains(&a) || set.len() >= BLOCK_CAP {
                continue;
            }
            set.push(a);
            let (start, end) = blocks[bi];
            for pc in start..end {
                match module.ops[pc as usize] {
                    Op::Call { call, .. } | Op::NavCall { call, .. } => {
                        let info = &module.calls[call as usize];
                        let w = gather(info, a);
                        for &t in module.stubs[info.stub as usize].targets.iter() {
                            if t != NO_TARGET {
                                add(&mut words, &mut pending, cap, t as usize, w);
                            }
                        }
                    }
                    Op::CallMono { call, target, .. } => {
                        let info = &module.calls[call as usize];
                        let w = gather(info, a);
                        add(&mut words, &mut pending, cap, target as usize, w);
                    }
                    _ => {}
                }
            }
            match module.ops[(end - 1) as usize] {
                Op::Guard { mask, target } => {
                    let t = if mask & a != 0 {
                        bi + 1
                    } else {
                        block_of(target)
                    };
                    wl.push((t, a));
                }
                Op::SkipInactive { traversal, target } => {
                    let t = if a & (1u64 << traversal) != 0 {
                        bi + 1
                    } else {
                        block_of(target)
                    };
                    wl.push((t, a));
                }
                Op::Deactivate { traversal, target } => {
                    let cleared = a & !(1u64 << traversal);
                    if cleared != 0 {
                        wl.push((block_of(target), cleared));
                    }
                }
                Op::Ret => {}
                Op::Jump { target } => wl.push((block_of(target), a)),
                op => {
                    if is_block_terminator(&op) {
                        if let Some(target) = op_target(&op) {
                            wl.push((block_of(target), a));
                        }
                    }
                    wl.push((bi + 1, a));
                }
            }
        }
    }
    words
}

/// Per-block compile-time knowledge of the frame's `active` flag word
/// when the function is entered all-active, computed by forward dataflow
/// over the CFG. `Guard`/`SkipInactive` follow their statically chosen
/// edge; `Deactivate` propagates the cleared word; a join of two
/// different words (or any edge out of a conflicted block) demotes the
/// target to `Conflict`, whose chain falls back to the generic,
/// runtime-tested one.
#[derive(Clone, Copy, PartialEq)]
enum KnownActive {
    Unseen,
    Val(u64),
    Conflict,
}

fn known_actives(module: &Module, blocks: &[(u32, u32)], entry_active: u64) -> Vec<KnownActive> {
    let block_of = |pc: u32| -> usize {
        blocks
            .binary_search_by_key(&pc, |&(s, _)| s)
            .expect("every jump target starts a block")
    };
    let mut state = vec![KnownActive::Unseen; blocks.len()];
    let mut work = vec![(0usize, KnownActive::Val(entry_active))];
    while let Some((bi, incoming)) = work.pop() {
        let merged = match (state[bi], incoming) {
            (KnownActive::Unseen, v) | (v, KnownActive::Unseen) => v,
            (KnownActive::Conflict, _) | (_, KnownActive::Conflict) => KnownActive::Conflict,
            (KnownActive::Val(a), KnownActive::Val(b)) if a == b => continue,
            (KnownActive::Val(_), KnownActive::Val(_)) => KnownActive::Conflict,
        };
        if merged == state[bi] {
            continue;
        }
        state[bi] = merged;
        let (_, end) = blocks[bi];
        let last = &module.ops[(end - 1) as usize];
        let mut push = |b: usize, v: KnownActive| work.push((b, v));
        match (merged, *last) {
            // A resolved flag test follows only its statically taken edge.
            (KnownActive::Val(a), Op::Guard { mask, target }) => {
                let t = if mask & a != 0 {
                    bi + 1
                } else {
                    block_of(target)
                };
                push(t, KnownActive::Val(a));
            }
            (KnownActive::Val(a), Op::SkipInactive { traversal, target }) => {
                let t = if a & (1u64 << traversal) != 0 {
                    bi + 1
                } else {
                    block_of(target)
                };
                push(t, KnownActive::Val(a));
            }
            (KnownActive::Val(a), Op::Deactivate { traversal, target }) => {
                let cleared = a & !(1u64 << traversal);
                if cleared != 0 {
                    push(block_of(target), KnownActive::Val(cleared));
                }
            }
            (v, op) => {
                // Unresolved (or conflicted) control flow: every
                // structural successor inherits `v`.
                if !is_block_terminator(&op) {
                    push(bi + 1, v);
                } else {
                    match op {
                        Op::Ret => {}
                        Op::Jump { target } => push(block_of(target), v),
                        Op::Deactivate {
                            traversal: _,
                            target,
                        } => push(block_of(target), v),
                        _ => {
                            if let Some(target) = op_target(&op) {
                                push(block_of(target), v);
                            }
                            push(bi + 1, v);
                        }
                    }
                }
            }
        }
    }
    state
}

/// Builds the block-closure array for one function. With `spec =
/// Some(all_active)` the flag word is tracked block-by-block (see
/// [`known_actives`]): every resolvable `Guard`/`SkipInactive` collapses
/// to its statically chosen successor and `Deactivate` becomes a bare
/// constant store, while conflicted blocks reuse the runtime-tested
/// chains from `generic` (release mode only — counted keeps the generic
/// path so the guard charges stay in their exact places).
fn build_blocks<const C: bool>(
    module: &Module,
    fidx: usize,
    known: Option<usize>,
    spec: Option<u64>,
    generic: Option<&[BlockFn]>,
    probe_base: Option<usize>,
) -> Vec<BlockFn> {
    let blocks = basic_blocks(module, fidx);
    let block_of = |pc: u32| -> u32 {
        blocks
            .binary_search_by_key(&pc, |&(s, _)| s)
            .expect("every jump target starts a block") as u32
    };
    let ret_only: Vec<bool> = blocks
        .iter()
        .map(|&(start, end)| end - start == 1 && matches!(module.ops[start as usize], Op::Ret))
        .collect();
    let ka = spec.map(|aa| known_actives(module, &blocks, aa));
    // Build back-to-front so every forward successor's continuation
    // already exists when a terminator wants to capture it.
    let mut conts: Vec<Option<BlockFn>> = vec![None; blocks.len()];
    for (bi, &(start, end)) in blocks.iter().enumerate().rev() {
        // Under specialization, a block the dataflow could not pin (or
        // never reaches) keeps its generic runtime-tested chain.
        let active = match &ka {
            None => None,
            Some(ka) => match ka[bi] {
                KnownActive::Val(a) => Some(a),
                KnownActive::Unseen | KnownActive::Conflict => {
                    let g = generic.expect("spec build passes the generic chains");
                    conts[bi] = Some(g[bi].clone());
                    continue;
                }
            },
        };
        let last = module.ops[(end - 1) as usize];
        let succs = Succs {
            conts: &conts,
            ret_only: &ret_only,
            bi: bi as u32,
            block_of: &block_of,
        };
        // A terminator whose outcome is known at compile time is not a
        // closure at all — the block continues straight into the chosen
        // successor's continuation (an uncharged `Jump` always resolves;
        // flag tests resolve against the tracked word).
        let resolved: Option<Succ> = match (active, last) {
            (_, Op::Jump { target }) => Some(succs.of_pc(target)),
            (Some(a), Op::Guard { mask, target }) => Some(if mask & a != 0 {
                succs.fall()
            } else {
                succs.of_pc(target)
            }),
            (Some(a), Op::SkipInactive { traversal, target }) => {
                Some(if a & (1u64 << traversal) != 0 {
                    succs.fall()
                } else {
                    succs.of_pc(target)
                })
            }
            _ => None,
        };
        let (n_steps, term) = if let Some(s) = resolved {
            (end - 1 - start, succ_chain(s))
        } else if let (Some(a), Op::Deactivate { traversal, target }) = (active, last) {
            // Resolved retraversal: the cleared word is a compile-time
            // constant; store it (call sites read `f.active`) and either
            // return or flow into the next segment's chain.
            let cleared = a & !(1u64 << traversal);
            let term: BlockFn = if cleared == 0 {
                Arc::new(|_, _, _, _| FLOW_RET)
            } else {
                let t = succs.of_pc(target);
                Arc::new(move |jit, st, heap, f| {
                    f.active = cleared;
                    t.go(jit, st, heap, f)
                })
            };
            (end - 1 - start, term)
        } else if is_block_terminator(&last) {
            if let Some(term) = fused_term::<C>(module, known, start, end, &succs) {
                (end - 2 - start, term)
            } else {
                (
                    end - 1 - start,
                    terminator::<C>(module, known, last, &succs),
                )
            }
        } else {
            // The block ends at a jump-target boundary: continue straight
            // into the next block's continuation.
            debug_assert!(bi + 1 < blocks.len(), "fallthrough off the end");
            (end - start, succs.fall_cont())
        };
        // Fuse back-to-front: each step captures its continuation, so the
        // finished block is one closure chain with no interior dispatch,
        // and consecutive register-file ops collapse into single fused
        // runs along the way.
        let mut chain = term;
        let mut run: Vec<(RegOp, u64)> = Vec::new();
        for pc in (start..start + n_steps).rev() {
            let op = module.ops[pc as usize];
            if let Some(ro) = reg_op(module, op) {
                run.push(ro);
                continue;
            }
            chain = flush_reg_run::<C>(&mut run, chain);
            chain = step::<C>(module, known, op, chain);
        }
        chain = flush_reg_run::<C>(&mut run, chain);
        // Probed compile: prepend the block-hit bump *before* storing the
        // continuation, so every capture of this block — forward `Direct`
        // edges, fallthroughs, spec-variant reuse — counts its entries.
        // (Blocks that collapse to `Succ::Ret` are never entered and stay
        // at zero by design.)
        if let Some(pb) = probe_base {
            let slot = pb + bi;
            let inner = chain;
            chain = Arc::new(move |jit, st, heap, f| {
                if let Some(p) = st.probe.as_deref_mut() {
                    p.block(slot);
                }
                inner(jit, st, heap, f)
            });
        }
        conts[bi] = Some(chain);
    }
    conts
        .into_iter()
        .map(|c| c.expect("every block is compiled"))
        .collect()
}

/// A register-file micro-op inside a fused run: every operand, constant
/// coercions included, resolved at compile time.
#[derive(Clone, Copy)]
enum RegOp {
    /// `regs[dst] = v`
    Put { dst: u16, v: Value },
    /// `regs[dst] = co.apply(regs[src])`
    Copy { dst: u16, src: u16, co: Co },
}

/// Classifies a pure register-file op, with its counted-mode instruction
/// charge. These ops touch no heap state, no globals and no
/// cache-visible address — only the `instructions` counter — so a
/// consecutive run of them fuses into one closure performing one bulk
/// charge and a tight loop over a compact micro-op array, instead of one
/// continuation call per op (argument-shuffling runs before grouped
/// calls are the most common op sequence fused traversals lower to).
fn reg_op(module: &Module, op: Op) -> Option<(RegOp, u64)> {
    Some(match op {
        Op::Const { dst, c } => (
            RegOp::Put {
                dst,
                v: module.consts[c as usize],
            },
            0,
        ),
        Op::ConstLoc { dst, c, co } => (
            RegOp::Put {
                dst,
                v: co.apply(module.consts[c as usize]),
            },
            1,
        ),
        Op::Mov { dst, src } => (
            RegOp::Copy {
                dst,
                src,
                co: Co::No,
            },
            1,
        ),
        Op::StoreLocal { dst, src, co } => (RegOp::Copy { dst, src, co }, 1),
        Op::LocLoc { dst, src, co } => (RegOp::Copy { dst, src, co }, 2),
        _ => return None,
    })
}

/// Fuses a pending (reverse-collected) register run into the chain:
/// empty runs pass through, singletons compile to a dedicated closure,
/// longer runs to one looping closure.
fn flush_reg_run<const C: bool>(run: &mut Vec<(RegOp, u64)>, next: BlockFn) -> BlockFn {
    if run.is_empty() {
        return next;
    }
    run.reverse();
    let charge: u64 = run.iter().map(|&(_, c)| c).sum();
    if run.len() == 1 {
        let (op, _) = run.pop().expect("len checked");
        return match op {
            RegOp::Put { dst, v } => Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += charge;
                }
                st.regs[f.base + dst as usize] = v;
                next(jit, st, heap, f)
            }),
            RegOp::Copy { dst, src, co } => Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += charge;
                }
                st.regs[f.base + dst as usize] = co.apply(st.regs[f.base + src as usize]);
                next(jit, st, heap, f)
            }),
        };
    }
    let ops: Box<[RegOp]> = run.drain(..).map(|(o, _)| o).collect();
    Arc::new(move |jit, st, heap, f| {
        if C {
            st.metrics.instructions += charge;
        }
        for op in ops.iter() {
            match *op {
                RegOp::Put { dst, v } => st.regs[f.base + dst as usize] = v,
                RegOp::Copy { dst, src, co } => {
                    st.regs[f.base + dst as usize] = co.apply(st.regs[f.base + src as usize])
                }
            }
        }
        next(jit, st, heap, f)
    })
}

/// A successor as a continuation chain tail (for compile-time-resolved
/// terminators, where the block flows into it with no test and no call).
fn succ_chain(s: Succ) -> BlockFn {
    match s {
        Succ::Direct(cont) => cont,
        Succ::Ret => Arc::new(|_, _, _, _| FLOW_RET),
        Succ::Tramp(b) => Arc::new(move |_, _, _, _| b),
    }
}

// ---- runtime helpers (shared by the compiled closures) -------------------

/// Stashes a failing run's error; always the cold path.
#[cold]
fn flow_fail(st: &mut Machine, e: RuntimeError) -> u32 {
    st.error = Some(e);
    FLOW_ERR
}

#[inline]
fn touch(st: &mut Machine, addr: u64) {
    if let Some(cache) = &mut st.cache {
        cache.access(addr);
    }
}

#[inline]
fn slot_addr(heap: &Heap, node: NodeId, slot: usize) -> u64 {
    heap.addr_of(node) + NODE_HEADER_BYTES + SLOT_BYTES * slot as u64
}

/// Follows a pooled path from `node`; `None` if a step is null. Counted
/// mode charges one instruction + one load and touches each slot, exactly
/// like [`crate::Vm`].
#[inline]
fn navigate<const C: bool>(
    jit: &JitProgram,
    st: &mut Machine,
    heap: &Heap,
    node: NodeId,
    path: &[u32],
) -> RResult<Option<NodeId>> {
    let mut cur = node;
    for &field in path {
        let class = heap.class_of(cur);
        let slot = jit.offset_of(class.index(), field);
        if C {
            st.metrics.instructions += 1;
            st.metrics.loads += 1;
            touch(st, slot_addr(heap, cur, slot));
        }
        match heap.get(cur, slot) {
            Value::Ref(Some(c)) => cur = c,
            Value::Ref(None) => return Ok(None),
            _ => return Err(RuntimeError::NotARef),
        }
    }
    Ok(Some(cur))
}

/// Virtual dispatch through a stub jump table. Counted mode charges the
/// dispatch costs and touches the receiver header; both modes count the
/// visit.
#[inline]
fn dispatch<const C: bool>(
    jit: &JitProgram,
    st: &mut Machine,
    heap: &Heap,
    stub: u16,
    node: NodeId,
) -> RResult<u32> {
    if C {
        st.metrics.instructions += cost::DISPATCH;
        st.metrics.loads += 1;
        touch(st, heap.addr_of(node));
    }
    let class = heap.class_of(node);
    let target = jit.stubs[stub as usize].targets[class.index()];
    if target == NO_TARGET {
        return Err(RuntimeError::MissingTarget(
            jit.class_names[class.index()].clone(),
        ));
    }
    st.metrics.visits += 1;
    Ok(target)
}

/// A grouped call site with its flag computation pre-resolved at compile
/// time: the counted-mode flag-shuffle charge collapses to one bulk add,
/// and when every consulted traversal bit is below 6 the per-part
/// gather loop is replaced by a 64-entry `active → callee flags` table
/// built once per site.
struct CallSite {
    stub: u16,
    parts: Box<[CallPartInfo]>,
    /// Total counted-mode flag-shuffle charge (0 for single-traversal).
    flag_charge: u64,
    /// `active & 63 → flags`, when all part traversals are `< 6`.
    table: Option<Box<[u64]>>,
}

impl CallSite {
    fn new(info: &CallInfo) -> CallSite {
        let flag_charge = if info.charge_flags {
            info.parts.len() as u64 * cost::FLAG_SHUFFLE
        } else {
            0
        };
        let table = info.parts.iter().all(|p| p.traversal < 6).then(|| {
            (0..64u64)
                .map(|active| {
                    let mut flags = 0u64;
                    for (i, part) in info.parts.iter().enumerate() {
                        if active & (1u64 << part.traversal) != 0 {
                            flags |= 1u64 << i;
                        }
                    }
                    flags
                })
                .collect()
        });
        CallSite {
            stub: info.stub,
            parts: info.parts.clone(),
            flag_charge,
            table,
        }
    }

    /// The callee's active-flag word (counted mode charges the flag
    /// shuffling of multi-traversal callers, in one bulk add — the same
    /// total the VM accumulates per part).
    #[inline]
    fn flags<const C: bool>(&self, st: &mut Machine, active: u64) -> u64 {
        if C {
            st.metrics.instructions += self.flag_charge;
        }
        match &self.table {
            Some(t) => t[(active & 63) as usize],
            None => {
                let mut flags = 0u64;
                for (i, part) in self.parts.iter().enumerate() {
                    if active & (1u64 << part.traversal) != 0 {
                        flags |= 1u64 << i;
                    }
                }
                flags
            }
        }
    }
}

/// Pushes the callee frame, copies call arguments into its parameter
/// registers and runs it (argument shuffling is uncharged, as in the VM).
#[inline]
#[allow(clippy::too_many_arguments)]
fn invoke(
    jit: &JitProgram,
    st: &mut Machine,
    heap: &mut Heap,
    target: u32,
    child: NodeId,
    flags: u64,
    parts: &[CallPartInfo],
    args_at: usize,
) -> RResult<()> {
    let callee = &jit.funcs[target as usize];
    // A body that is nothing but `Ret` charges nothing and reads nothing:
    // skip the frame push, argument copy and block run outright (the
    // visit itself was already counted by dispatch).
    if callee.trivial {
        return Ok(());
    }
    let cbase = st.regs.len();
    st.regs
        .resize(cbase + callee.total_regs as usize, Value::Int(0));
    for (i, part) in parts.iter().enumerate() {
        let params = &callee.params[i];
        let n = (part.nargs as usize).min(params.len());
        for k in 0..n {
            st.regs[cbase + params[k] as usize] = st.regs[args_at + part.argbase as usize + k];
        }
    }
    let r = run_func(jit, st, heap, target, child, flags, cbase);
    st.regs.truncate(cbase);
    r
}

/// The full grouped-call sequence: flags, jump-table dispatch, invoke.
#[inline]
fn call_through_stub<const C: bool>(
    jit: &JitProgram,
    st: &mut Machine,
    heap: &mut Heap,
    site: &CallSite,
    child: NodeId,
    active: u64,
    args_at: usize,
) -> RResult<()> {
    let flags = site.flags::<C>(st, active);
    let target = dispatch::<C>(jit, st, heap, site.stub, child)?;
    invoke(jit, st, heap, target, child, flags, &site.parts, args_at)
}

/// Executes one activation of function `fidx`: run block 0, follow the
/// flow codes until the activation returns or fails.
#[inline]
fn run_func(
    jit: &JitProgram,
    st: &mut Machine,
    heap: &mut Heap,
    fidx: u32,
    node: NodeId,
    active: u64,
    base: usize,
) -> RResult<()> {
    if let Some(p) = st.probe.as_deref_mut() {
        p.func(fidx as usize);
    }
    let func = &jit.funcs[fidx as usize];
    let mut blocks = &func.blocks;
    for (w, spec) in func.variants.iter() {
        if *w == active {
            blocks = spec;
            break;
        }
    }
    let mut frame = Frame { node, active, base };
    let mut b = 0u32;
    loop {
        let next = blocks[b as usize](jit, st, heap, &mut frame);
        if next < FLOW_ERR {
            b = next;
        } else if next == FLOW_RET {
            return Ok(());
        } else {
            return Err(st.error.take().expect("FLOW_ERR implies a stashed error"));
        }
    }
}

// ---- per-op closure builders ---------------------------------------------

/// Compiles one straight-line op into a closure that performs the op and
/// continues into `next` — the block's remaining chain — resolving every
/// operand into captured values (slot offsets included, when `known`
/// fixes the receiver layout). `C` (counted) compiles the accounting in
/// or out; there is no mode check and no opcode match at run time.
fn step<const C: bool>(module: &Module, known: Option<usize>, op: Op, next: BlockFn) -> BlockFn {
    match op {
        Op::Const { dst, c } => {
            let v = module.consts[c as usize];
            Arc::new(move |jit, st, heap, f| {
                st.regs[f.base + dst as usize] = v;
                next(jit, st, heap, f)
            })
        }
        Op::Mov { dst, src } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 1;
            }
            st.regs[f.base + dst as usize] = st.regs[f.base + src as usize];
            next(jit, st, heap, f)
        }),
        Op::StoreLocal { dst, src, co } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 1;
            }
            st.regs[f.base + dst as usize] = co.apply(st.regs[f.base + src as usize]);
            next(jit, st, heap, f)
        }),
        Op::Un { op, dst, src } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 1;
            }
            let v = st.regs[f.base + src as usize];
            st.regs[f.base + dst as usize] = unop(op, v);
            next(jit, st, heap, f)
        }),
        Op::Bin { op, dst, a, b } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 1;
            }
            let (l, r) = (st.regs[f.base + a as usize], st.regs[f.base + b as usize]);
            st.regs[f.base + dst as usize] = binop(op, l, r);
            next(jit, st, heap, f)
        }),
        Op::CastBool { reg } => Arc::new(move |jit, st, heap, f| {
            let b = st.regs[f.base + reg as usize].as_bool();
            st.regs[f.base + reg as usize] = Value::Bool(b);
            next(jit, st, heap, f)
        }),
        Op::ReadTree {
            dst,
            path,
            field,
            addend,
        } => {
            let fr = FieldRef::new(module, known, path, field, addend as u32);
            Arc::new(move |jit, st, heap, f| {
                let Some((target, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.loads += 1;
                    touch(st, slot_addr(heap, target, slot));
                }
                st.regs[f.base + dst as usize] = heap.get(target, slot);
                next(jit, st, heap, f)
            })
        }
        Op::WriteTree {
            src,
            path,
            field,
            addend,
            co,
        } => {
            let fr = FieldRef::new(module, known, path, field, addend as u32);
            Arc::new(move |jit, st, heap, f| {
                let Some((target, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.stores += 1;
                    touch(st, slot_addr(heap, target, slot));
                }
                heap.set(target, slot, co.apply(st.regs[f.base + src as usize]));
                next(jit, st, heap, f)
            })
        }
        Op::ReadGlobal { dst, idx } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 1;
                st.metrics.loads += 1;
                touch(st, GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64);
            }
            st.regs[f.base + dst as usize] = st.globals[idx as usize];
            next(jit, st, heap, f)
        }),
        Op::WriteGlobal { src, idx, co } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 1;
                st.metrics.stores += 1;
                touch(st, GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64);
            }
            st.globals[idx as usize] = co.apply(st.regs[f.base + src as usize]);
            next(jit, st, heap, f)
        }),
        Op::Call {
            call,
            child,
            argbase,
        } => {
            let site = CallSite::new(&module.calls[call as usize]);
            Arc::new(move |jit, st, heap, f| {
                let Value::Ref(Some(child_node)) = st.regs[f.base + child as usize] else {
                    unreachable!("Nav always precedes Call with a live child")
                };
                match call_through_stub::<C>(
                    jit,
                    st,
                    heap,
                    &site,
                    child_node,
                    f.active,
                    f.base + argbase as usize,
                ) {
                    Ok(()) => next(jit, st, heap, f),
                    Err(e) => flow_fail(st, e),
                }
            })
        }
        Op::CallMono {
            call,
            child,
            argbase,
            target,
            class,
        } => {
            let site = CallSite::new(&module.calls[call as usize]);
            Arc::new(move |jit, st, heap, f| {
                let flags = site.flags::<C>(st, f.active);
                let Value::Ref(Some(child_node)) = st.regs[f.base + child as usize] else {
                    unreachable!("Nav always precedes Call with a live child")
                };
                // Devirtualised dispatch: one class check, same charges
                // and touch as the jump-table path.
                if C {
                    st.metrics.instructions += cost::DISPATCH;
                    st.metrics.loads += 1;
                    touch(st, heap.addr_of(child_node));
                }
                let dynamic = heap.class_of(child_node);
                if dynamic.index() != class as usize {
                    return flow_fail(
                        st,
                        RuntimeError::MissingTarget(jit.class_names[dynamic.index()].clone()),
                    );
                }
                st.metrics.visits += 1;
                match invoke(
                    jit,
                    st,
                    heap,
                    target,
                    child_node,
                    flags,
                    &site.parts,
                    f.base + argbase as usize,
                ) {
                    Ok(()) => next(jit, st, heap, f),
                    Err(e) => flow_fail(st, e),
                }
            })
        }
        Op::New { path, field, class } => {
            let fr = FieldRef::new(module, known, path, field, 0);
            let bytes = module.node_bytes[class as usize];
            Arc::new(move |jit, st, heap, f| {
                match fr.locate::<C>(jit, st, heap, f.node) {
                    Err(e) => return flow_fail(st, e),
                    Ok(None) => {}
                    Ok(Some((parent, slot))) => {
                        let fresh = heap.alloc(ClassId(class as u32));
                        if C {
                            st.metrics.instructions += cost::ALLOC;
                            // Constructor initialises the node: touch its
                            // lines.
                            let addr = heap.addr_of(fresh);
                            if let Some(cache) = &mut st.cache {
                                cache.access_range(addr, bytes);
                            }
                            st.metrics.stores += 1 + bytes / SLOT_BYTES;
                            touch(st, slot_addr(heap, parent, slot));
                        }
                        heap.set(parent, slot, Value::Ref(Some(fresh)));
                    }
                }
                next(jit, st, heap, f)
            })
        }
        Op::Delete { path, field } => {
            let fr = FieldRef::new(module, known, path, field, 0);
            Arc::new(move |jit, st, heap, f| {
                match fr.locate::<C>(jit, st, heap, f.node) {
                    Err(e) => return flow_fail(st, e),
                    Ok(None) => {}
                    Ok(Some((parent, slot))) => {
                        if C {
                            st.metrics.loads += 1;
                            touch(st, slot_addr(heap, parent, slot));
                        }
                        if let Value::Ref(Some(victim)) = heap.get(parent, slot) {
                            let freed = heap.delete_subtree(victim);
                            if C {
                                st.metrics.instructions += cost::FREE * freed as u64;
                            }
                        }
                        heap.set(parent, slot, Value::Ref(None));
                        if C {
                            st.metrics.stores += 1;
                        }
                    }
                }
                next(jit, st, heap, f)
            })
        }
        Op::CallPure {
            dst,
            pure,
            base: abase,
            n,
            co,
        } => {
            let name = module.pure_names[pure as usize].clone();
            Arc::new(move |jit, st, heap, f| {
                let Some(func) = st.pures[pure as usize] else {
                    return flow_fail(st, RuntimeError::MissingPure(name.clone()));
                };
                if C {
                    st.metrics.instructions += 1 + n as u64;
                }
                let lo = f.base + abase as usize;
                let out = func(&st.regs[lo..lo + n as usize]);
                st.regs[f.base + dst as usize] = co.apply(out);
                next(jit, st, heap, f)
            })
        }

        // ---- optimizer-introduced ops (charges mirror `crate::Vm`) -----
        Op::FoldedConst { dst, c, charge } => {
            let v = module.consts[c as usize];
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += charge as u64;
                }
                st.regs[f.base + dst as usize] = v;
                next(jit, st, heap, f)
            })
        }
        Op::ConstBin { op, dst, a, c } => {
            let r = module.consts[c as usize];
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 1;
                }
                let l = st.regs[f.base + a as usize];
                st.regs[f.base + dst as usize] = binop(op, l, r);
                next(jit, st, heap, f)
            })
        }
        Op::LocBin { op, dst, a, src } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 2; // Mov + Bin
            }
            let (l, r) = (st.regs[f.base + a as usize], st.regs[f.base + src as usize]);
            st.regs[f.base + dst as usize] = binop(op, l, r);
            next(jit, st, heap, f)
        }),
        Op::TreeBin {
            op,
            dst,
            a,
            path,
            field,
            addend,
        } => {
            let fr = FieldRef::new(module, known, path, field, addend as u32);
            Arc::new(move |jit, st, heap, f| {
                let Some((target, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.loads += 1;
                    touch(st, slot_addr(heap, target, slot));
                }
                let r = heap.get(target, slot);
                if C {
                    st.metrics.instructions += 1; // the fused Bin
                }
                let l = st.regs[f.base + a as usize];
                st.regs[f.base + dst as usize] = binop(op, l, r);
                next(jit, st, heap, f)
            })
        }
        Op::GlobBin { op, dst, a, idx } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 1;
                st.metrics.loads += 1;
                touch(st, GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64);
            }
            let r = st.globals[idx as usize];
            if C {
                st.metrics.instructions += 1; // the fused Bin
            }
            let l = st.regs[f.base + a as usize];
            st.regs[f.base + dst as usize] = binop(op, l, r);
            next(jit, st, heap, f)
        }),
        Op::BinLoc { op, dst, a, b, co } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 2; // Bin + StoreLocal
            }
            let (l, r) = (st.regs[f.base + a as usize], st.regs[f.base + b as usize]);
            st.regs[f.base + dst as usize] = co.apply(binop(op, l, r));
            next(jit, st, heap, f)
        }),
        Op::BinTree {
            op,
            a,
            b,
            path,
            field,
            addend,
            co,
        } => {
            let fr = FieldRef::new(module, known, path, field, addend as u32);
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 1; // the fused Bin
                }
                let (l, r) = (st.regs[f.base + a as usize], st.regs[f.base + b as usize]);
                let v = binop(op, l, r);
                let Some((target, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.stores += 1;
                    touch(st, slot_addr(heap, target, slot));
                }
                heap.set(target, slot, co.apply(v));
                next(jit, st, heap, f)
            })
        }
        Op::BinGlob { op, a, b, idx, co } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 1; // the fused Bin
            }
            let (l, r) = (st.regs[f.base + a as usize], st.regs[f.base + b as usize]);
            let v = binop(op, l, r);
            if C {
                st.metrics.instructions += 1;
                st.metrics.stores += 1;
                touch(st, GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64);
            }
            st.globals[idx as usize] = co.apply(v);
            next(jit, st, heap, f)
        }),
        Op::TreeLoc {
            dst,
            path,
            field,
            addend,
            co,
        } => {
            let fr = FieldRef::new(module, known, path, field, addend as u32);
            Arc::new(move |jit, st, heap, f| {
                let Some((target, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.loads += 1;
                    touch(st, slot_addr(heap, target, slot));
                }
                let v = heap.get(target, slot);
                if C {
                    st.metrics.instructions += 1; // the fused StoreLocal
                }
                st.regs[f.base + dst as usize] = co.apply(v);
                next(jit, st, heap, f)
            })
        }
        Op::TreeTree {
            rpath,
            rfield,
            raddend,
            wpath,
            wfield,
            waddend,
            co,
        } => {
            let rf = FieldRef::new(module, known, rpath, rfield as u32, raddend as u32);
            let wf = FieldRef::new(module, known, wpath, wfield as u32, waddend as u32);
            Arc::new(move |jit, st, heap, f| {
                let Some((src, slot)) = rf.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.loads += 1;
                    touch(st, slot_addr(heap, src, slot));
                }
                let v = heap.get(src, slot);
                let Some((dst, slot)) = wf.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.stores += 1;
                    touch(st, slot_addr(heap, dst, slot));
                }
                heap.set(dst, slot, co.apply(v));
                next(jit, st, heap, f)
            })
        }
        Op::ConstTree {
            c,
            path,
            field,
            addend,
            co,
        } => {
            let v = module.consts[c as usize];
            let fr = FieldRef::new(module, known, path, field, addend as u32);
            Arc::new(move |jit, st, heap, f| {
                let Some((target, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.stores += 1;
                    touch(st, slot_addr(heap, target, slot));
                }
                heap.set(target, slot, co.apply(v));
                next(jit, st, heap, f)
            })
        }
        Op::ConstGlob { c, idx, co } => {
            let v = module.consts[c as usize];
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.stores += 1;
                    touch(st, GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64);
                }
                st.globals[idx as usize] = co.apply(v);
                next(jit, st, heap, f)
            })
        }
        Op::ConstLoc { dst, c, co } => {
            let v = module.consts[c as usize];
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 1;
                }
                st.regs[f.base + dst as usize] = co.apply(v);
                next(jit, st, heap, f)
            })
        }
        Op::LocTree {
            src,
            path,
            field,
            addend,
            co,
        } => {
            let fr = FieldRef::new(module, known, path, field, addend as u32);
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 1; // the fused Mov
                }
                let v = st.regs[f.base + src as usize];
                let Some((target, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.stores += 1;
                    touch(st, slot_addr(heap, target, slot));
                }
                heap.set(target, slot, co.apply(v));
                next(jit, st, heap, f)
            })
        }
        Op::LocGlob { src, idx, co } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 2; // Mov + WriteGlobal
                st.metrics.stores += 1;
                touch(st, GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64);
            }
            st.globals[idx as usize] = co.apply(st.regs[f.base + src as usize]);
            next(jit, st, heap, f)
        }),
        Op::LocLoc { dst, src, co } => Arc::new(move |jit, st, heap, f| {
            if C {
                st.metrics.instructions += 2; // Mov + StoreLocal
            }
            st.regs[f.base + dst as usize] = co.apply(st.regs[f.base + src as usize]);
            next(jit, st, heap, f)
        }),

        // Control transfers are block terminators, never mid-block steps.
        Op::Jump { .. }
        | Op::Branch { .. }
        | Op::ShortCircuit { .. }
        | Op::Guard { .. }
        | Op::SkipInactive { .. }
        | Op::Deactivate { .. }
        | Op::Ret
        | Op::Nav { .. }
        | Op::NavCall { .. }
        | Op::BinBranch { .. }
        | Op::ConstBinBranch { .. }
        | Op::LocBinBranch { .. }
        | Op::LocBranch { .. }
        | Op::TreeBranch { .. } => unreachable!("terminator op compiled as a step"),
    }
}

/// Fuses a `ReadTree` feeding straight into a compare-and-branch
/// terminator (the dominant hot pair in branchy traversals: load a
/// field, test it, branch) into one closure. The field register is
/// still written — later blocks may read it — and the charge sequence
/// is the two ops' sequences back to back, so counted mode stays
/// bit-identical.
fn fused_term<const C: bool>(
    module: &Module,
    known: Option<usize>,
    start: u32,
    end: u32,
    succs: &Succs,
) -> Option<BlockFn> {
    if end - start < 2 {
        return None;
    }
    let Op::ReadTree {
        dst,
        path,
        field,
        addend,
    } = module.ops[(end - 2) as usize]
    else {
        return None;
    };
    let fr = FieldRef::new(module, known, path, field, addend as u32);
    match module.ops[(end - 1) as usize] {
        Op::ConstBinBranch { op, a, c, target } if a == dst => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            let r = module.consts[c as usize];
            Some(Arc::new(move |jit, st, heap, f| {
                let Some((node, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.loads += 1;
                    touch(st, slot_addr(heap, node, slot));
                }
                let l = heap.get(node, slot);
                st.regs[f.base + dst as usize] = l;
                if C {
                    st.metrics.instructions += 2; // Bin + Branch (Const free)
                }
                if !binop(op, l, r).as_bool() {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            }))
        }
        Op::BinBranch { op, a, b, target } if a == dst && b != dst => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            Some(Arc::new(move |jit, st, heap, f| {
                let Some((node, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.loads += 1;
                    touch(st, slot_addr(heap, node, slot));
                }
                let l = heap.get(node, slot);
                st.regs[f.base + dst as usize] = l;
                if C {
                    st.metrics.instructions += 2; // Bin + Branch
                }
                let r = st.regs[f.base + b as usize];
                if !binop(op, l, r).as_bool() {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            }))
        }
        _ => None,
    }
}

/// Compiles a block-terminating op into its terminator closure. Jump
/// targets and the fallthrough are resolved through `succs` at compile
/// time: forward successors are captured as direct continuation calls,
/// back edges as trampoline indices.
fn terminator<const C: bool>(
    module: &Module,
    known: Option<usize>,
    op: Op,
    succs: &Succs,
) -> BlockFn {
    match op {
        Op::Jump { target } => {
            let t = succs.of_pc(target);
            Arc::new(move |jit, st, heap, f| t.go(jit, st, heap, f))
        }
        Op::Branch { cond, target } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 1;
                }
                if !st.regs[f.base + cond as usize].as_bool() {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        Op::ShortCircuit {
            reg,
            jump_if,
            target,
        } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            Arc::new(move |jit, st, heap, f| {
                let b = st.regs[f.base + reg as usize].as_bool();
                st.regs[f.base + reg as usize] = Value::Bool(b);
                if C {
                    st.metrics.instructions += 1;
                }
                if b == jump_if {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        Op::Guard { mask, target } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += cost::GUARD;
                }
                if f.active & mask == 0 {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        Op::SkipInactive { traversal, target } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            Arc::new(move |jit, st, heap, f| {
                if f.active & (1u64 << traversal) == 0 {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        Op::Deactivate { traversal, target } => {
            let t = succs.of_pc(target);
            Arc::new(move |jit, st, heap, f| {
                f.active &= !(1u64 << traversal);
                if f.active == 0 {
                    FLOW_RET
                } else {
                    t.go(jit, st, heap, f)
                }
            })
        }
        Op::Ret => Arc::new(|_, _, _, _| FLOW_RET),
        Op::Nav {
            dst,
            path,
            null_target,
        } => {
            let (t, fall) = (succs.of_pc(null_target), succs.fall());
            let nav = NavRef::new(module, known, path);
            Arc::new(move |jit, st, heap, f| {
                match nav.walk::<C>(jit, st, heap, f.node) {
                    Err(e) => flow_fail(st, e),
                    Ok(None) => t.go(jit, st, heap, f), // traversal stops here
                    Ok(Some(child)) => {
                        st.regs[f.base + dst as usize] = Value::Ref(Some(child));
                        fall.go(jit, st, heap, f)
                    }
                }
            })
        }
        Op::NavCall {
            call,
            path,
            argbase,
            null_target,
        } => {
            let (t, fall) = (succs.of_pc(null_target), succs.fall());
            let nav = NavRef::new(module, known, path);
            let site = CallSite::new(&module.calls[call as usize]);
            Arc::new(move |jit, st, heap, f| {
                match nav.walk::<C>(jit, st, heap, f.node) {
                    Err(e) => flow_fail(st, e),
                    Ok(None) => t.go(jit, st, heap, f), // traversal stops here
                    Ok(Some(child)) => {
                        match call_through_stub::<C>(
                            jit,
                            st,
                            heap,
                            &site,
                            child,
                            f.active,
                            f.base + argbase as usize,
                        ) {
                            Ok(()) => fall.go(jit, st, heap, f),
                            Err(e) => flow_fail(st, e),
                        }
                    }
                }
            })
        }
        Op::BinBranch { op, a, b, target } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 2; // Bin + Branch
                }
                let (l, r) = (st.regs[f.base + a as usize], st.regs[f.base + b as usize]);
                if !binop(op, l, r).as_bool() {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        Op::ConstBinBranch { op, a, c, target } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            let r = module.consts[c as usize];
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 2; // Bin + Branch (Const free)
                }
                let l = st.regs[f.base + a as usize];
                if !binop(op, l, r).as_bool() {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        Op::LocBinBranch { op, a, src, target } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 3; // Mov + Bin + Branch
                }
                let (l, r) = (st.regs[f.base + a as usize], st.regs[f.base + src as usize]);
                if !binop(op, l, r).as_bool() {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        Op::LocBranch { src, target } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            Arc::new(move |jit, st, heap, f| {
                if C {
                    st.metrics.instructions += 2; // Mov + Branch
                }
                if !st.regs[f.base + src as usize].as_bool() {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        Op::TreeBranch {
            path,
            field,
            addend,
            target,
        } => {
            let (t, fall) = (succs.of_pc(target), succs.fall());
            let fr = FieldRef::new(module, known, path, field, addend as u32);
            Arc::new(move |jit, st, heap, f| {
                let Some((node_t, slot)) = fr.locate_strict::<C>(jit, st, heap, f.node) else {
                    return FLOW_ERR;
                };
                if C {
                    st.metrics.instructions += 1;
                    st.metrics.loads += 1;
                    touch(st, slot_addr(heap, node_t, slot));
                }
                let v = heap.get(node_t, slot);
                if C {
                    st.metrics.instructions += 1; // the fused Branch
                }
                if !v.as_bool() {
                    t.go(jit, st, heap, f)
                } else {
                    fall.go(jit, st, heap, f)
                }
            })
        }
        other => unreachable!("straight-line op {other:?} compiled as a terminator"),
    }
}

// ---- the executor --------------------------------------------------------

/// Executes a compiled [`JitProgram`] against a [`Heap`] — the native-tier
/// counterpart of [`crate::Vm`], with the same construction and run
/// surface.
pub struct Jit<'a> {
    program: &'a JitProgram,
    st: Machine,
}

impl<'a> Jit<'a> {
    /// Creates an executor with the default math pures and no cache.
    pub fn new(program: &'a JitProgram) -> Self {
        Jit::with_pures(program, PureRegistry::with_math())
    }

    /// Creates an executor with a custom pure-function registry (resolved
    /// to function pointers once, here).
    pub fn with_pures(program: &'a JitProgram, pures: PureRegistry) -> Self {
        let pures = program
            .pure_names
            .iter()
            .map(|name| pures.get(name))
            .collect();
        Jit {
            program,
            st: Machine {
                metrics: Metrics::default(),
                cache: None,
                pures,
                globals: program.globals_init.clone(),
                regs: Vec::new(),
                error: None,
                probe: None,
            },
        }
    }

    /// Attaches zeroed hit counters: subsequent runs record one
    /// activation count per function, and — when the program was compiled
    /// with [`compile_with`] `probed = true` — one entry count per
    /// compiled block. Retrieve them with [`Jit::take_counters`].
    pub fn with_counters(mut self) -> Self {
        self.st.probe = Some(Box::new(self.program.counters()));
        self
    }

    /// Detaches and returns the accumulated hit counters, if
    /// [`Jit::with_counters`] attached any.
    pub fn take_counters(&mut self) -> Option<grafter_obs::ChainCounters> {
        self.st.probe.take().map(|b| *b)
    }

    /// Attaches a cache hierarchy. Only [`JitMode::Counted`] programs
    /// feed it; a release-mode program leaves it untouched.
    pub fn with_cache(mut self, cache: CacheHierarchy) -> Self {
        self.st.cache = Some(cache);
        self
    }

    /// The counters of the last run (all-zero except `visits` in release
    /// mode).
    pub fn metrics(&self) -> &Metrics {
        &self.st.metrics
    }

    /// The simulated cache, when one was attached.
    pub fn cache(&self) -> Option<&CacheHierarchy> {
        self.st.cache.as_ref()
    }

    /// Sets a global variable by name before a run.
    pub fn set_global(&mut self, name: &str, value: Value) -> Option<()> {
        let &(_, idx) = self.program.global_names.iter().find(|(n, _)| n == name)?;
        self.st.globals[idx as usize] = value;
        Some(())
    }

    /// Reads a global variable by name.
    pub fn global(&self, name: &str) -> Option<Value> {
        let &(_, idx) = self.program.global_names.iter().find(|(n, _)| n == name)?;
        Some(self.st.globals[idx as usize])
    }

    /// Runs the program's entry sequence on `root`, exactly as
    /// [`crate::Vm::run`] (same entry grouping, same argument layout).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if execution dereferences a null child
    /// in a data access, calls an unregistered pure, or dispatch fails.
    pub fn run(&mut self, heap: &mut Heap, root: NodeId, args: &[Vec<Value>]) -> RResult<()> {
        let jit = self.program;
        if jit.entries.len() == 1 {
            let n = jit.stubs[jit.entries[0] as usize].n_parts as usize;
            let flags: u64 = (1u64 << n) - 1;
            self.enter(heap, jit.entries[0], root, flags, args)?;
        } else {
            let empty: Vec<Value> = Vec::new();
            for (i, &entry) in jit.entries.iter().enumerate() {
                let part = std::slice::from_ref(args.get(i).unwrap_or(&empty));
                self.enter(heap, entry, root, 0b1, part)?;
            }
        }
        Ok(())
    }

    /// Entry-point dispatch: arguments arrive as caller-provided vectors,
    /// one per entry part.
    fn enter(
        &mut self,
        heap: &mut Heap,
        stub: u16,
        node: NodeId,
        flags: u64,
        args: &[Vec<Value>],
    ) -> RResult<()> {
        let jit = self.program;
        let st = &mut self.st;
        let fidx = match jit.mode {
            JitMode::Counted => dispatch::<true>(jit, st, heap, stub, node)?,
            JitMode::Release => dispatch::<false>(jit, st, heap, stub, node)?,
        };
        let base = st.regs.len();
        let callee = &jit.funcs[fidx as usize];
        st.regs
            .resize(base + callee.total_regs as usize, Value::Int(0));
        for (ti, params) in callee.params.iter().enumerate() {
            let a = args.get(ti).map(Vec::as_slice).unwrap_or(&[]);
            for (k, &preg) in params.iter().enumerate().take(a.len()) {
                st.regs[base + preg as usize] = a[k];
            }
        }
        let r = run_func(jit, st, heap, fidx, node, flags, base);
        st.regs.truncate(base);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jit_program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<JitProgram>();
    }

    #[test]
    fn jit_mode_parses_and_displays() {
        assert_eq!("counted".parse::<JitMode>().unwrap(), JitMode::Counted);
        assert_eq!("release".parse::<JitMode>().unwrap(), JitMode::Release);
        assert!("fast".parse::<JitMode>().is_err());
        assert_eq!(JitMode::Counted.to_string(), "counted");
        assert_eq!(JitMode::Release.to_string(), "release");
    }
}
