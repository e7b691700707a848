//! The bytecode optimizer: rewrites a lowered [`Module`] in place.
//!
//! [`crate::lower`] emits naive one-op-per-HIR-node code, so the VM's
//! dispatch loop pays a full `match` round-trip per tiny instruction —
//! the classic interpreter overhead that superinstructions eliminate.
//! At [`OptLevel::O2`], [`optimize`] runs three passes over a module:
//!
//! 1. **peephole** — fusion of hot adjacent pairs into
//!    superinstructions (load-field + coerce, load + binop, compare +
//!    branch, store-field from the accumulator, constant stores,
//!    receiver navigation + call), in one scan per function over a
//!    register-liveness solution computed once for that function;
//! 2. **regs** — register-window compaction: each function's window
//!    shrinks to the registers its fused body still touches;
//! 3. **specialize** — entry-mask clones: a multi-traversal function
//!    gets one copy of its optimised body per entry mask its activations
//!    can start with, without the items of traversal copies inactive at
//!    entry and without the guards and `skipoff`s the mask decides. The
//!    generic body stays as it is and runs every mask without a clone;
//!    clones and their mask tables share one cap (`CLONE_OP_CAP`). A
//!    module with no multi-traversal function (every unfused one) skips
//!    the pass.
//!
//! **The invariant every pass preserves:** optimized execution is
//! *observationally bit-identical* to unoptimized execution — the same
//! heap snapshots, the same [`grafter_runtime::Metrics`] (every
//! superinstruction charges exactly the instructions/loads/stores of the
//! pair it replaces, and a clone prepays each guard it drops), the same
//! simulated cache traffic (same addresses touched in the same order),
//! and the same runtime errors. The optimizer trades *dispatch overhead*
//! — fewer `match` rounds, smaller register windows, fewer guards —
//! never counters. The tier-parity harness
//! (`grafter_workloads::harness::check_parity`) asserts `O0 == O2 ==
//! interp` on every program of every differential suite: the case-study
//! workloads (`tests/workloads.rs`), generated programs with early
//! returns (`tests/soundness.rs`) and one program per peephole pattern
//! (`crates/vm/tests/opt_differential.rs`).

use std::fmt;
use std::str::FromStr;

use crate::module::{CallInfo, FuncInfo, Module, Op, NO_CLONES};

/// How hard [`optimize`] works on a lowered module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No optimization: execute exactly what [`crate::lower`] emitted.
    O0,
    /// Peephole superinstructions, register-window compaction, then
    /// entry-mask clones.
    #[default]
    O2,
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            OptLevel::O0 => "O0",
            OptLevel::O2 => "O2",
        })
    }
}

impl FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "0" | "O0" | "o0" => Ok(OptLevel::O0),
            "2" | "O2" | "o2" => Ok(OptLevel::O2),
            other => Err(format!("unknown opt level `{other}` (expected 0|2)")),
        }
    }
}

/// Lowering options of the VM tier (the knobs behind
/// `Engine::builder().opt_level(..)` and `grafterc -O{0,2}`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmOptions {
    /// Optimization level applied after lowering (default [`OptLevel::O2`]).
    pub opt_level: OptLevel,
}

impl VmOptions {
    /// Options for a specific optimization level.
    pub fn with_opt_level(opt_level: OptLevel) -> Self {
        VmOptions { opt_level }
    }
}

/// One optimization pass's before/after accounting.
#[derive(Clone, Debug)]
pub struct PassStat {
    /// Pass name (`peephole`, `regs`, `specialize`).
    pub pass: &'static str,
    /// Count before the pass ran, in `unit`s.
    pub before: usize,
    /// Count after the pass ran, in `unit`s.
    pub after: usize,
    /// What `before`/`after` count (`op`, `reg`).
    pub unit: &'static str,
    /// How many sites the pass rewrote.
    pub rewrites: usize,
    /// What a rewrite did (`fused`, `shrunk`, `cloned`).
    pub action: &'static str,
    /// Wall time the pass took, in nanoseconds (excluded from equality —
    /// two identical optimizations compare equal across machines).
    pub wall_ns: u64,
}

impl PartialEq for PassStat {
    fn eq(&self, other: &Self) -> bool {
        self.pass == other.pass
            && self.before == other.before
            && self.after == other.after
            && self.unit == other.unit
            && self.rewrites == other.rewrites
            && self.action == other.action
    }
}

impl Eq for PassStat {}

/// What [`optimize`] did to a module: the level plus per-pass deltas
/// (rendered into the disassembly header by [`Module::disassemble`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptReport {
    /// The level the module was optimized at.
    pub level: OptLevel,
    /// Per-pass instruction-count (or register-count) deltas, in
    /// execution order. Empty at [`OptLevel::O0`].
    pub passes: Vec<PassStat>,
}

impl OptReport {
    /// The untouched report recorded at [`OptLevel::O0`].
    pub(crate) fn none() -> Self {
        OptReport {
            level: OptLevel::O0,
            passes: Vec::new(),
        }
    }

    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> usize {
        self.passes.iter().map(|p| p.rewrites).sum()
    }
}

/// Optimizes `module` in place at `level` and returns the report.
///
/// `O0` returns immediately; see the [module docs](self) for the pass
/// pipeline and the bit-identity invariant every pass maintains.
pub fn optimize(module: &mut Module, level: OptLevel) -> OptReport {
    if level == OptLevel::O0 {
        return OptReport::none();
    }
    let mut passes = vec![timed(module, peephole_pass), timed(module, regs_pass)];
    if module.clone_of.is_empty() && module.funcs.iter().any(|f| f.n_traversals > 1) {
        passes.push(timed(module, specialize_pass));
    }
    OptReport { level, passes }
}

/// Runs one pass and stamps its wall time into the stat.
fn timed(module: &mut Module, pass: fn(&mut Module) -> PassStat) -> PassStat {
    let t0 = std::time::Instant::now();
    let mut stat = pass(module);
    stat.wall_ns = t0.elapsed().as_nanos() as u64;
    stat
}

// ---- op classification ---------------------------------------------------

/// Appends the registers `op` reads to `out`.
fn reg_reads(op: &Op, calls: &[CallInfo], out: &mut Vec<u16>) {
    match *op {
        Op::Const { .. }
        | Op::Jump { .. }
        | Op::Guard { .. }
        | Op::SkipInactive { .. }
        | Op::Deactivate { .. }
        | Op::Ret
        | Op::ReadTree { .. }
        | Op::ReadGlobal { .. }
        | Op::Nav { .. }
        | Op::New { .. }
        | Op::Delete { .. }
        | Op::TreeLoc { .. }
        | Op::TreeTree { .. }
        | Op::ConstTree { .. }
        | Op::ConstLoc { .. } => {}
        Op::Mov { src, .. }
        | Op::StoreLocal { src, .. }
        | Op::Un { src, .. }
        | Op::WriteTree { src, .. }
        | Op::WriteGlobal { src, .. }
        | Op::LocTree { src, .. }
        | Op::LocLoc { src, .. } => out.push(src),
        Op::Bin { a, b, .. } | Op::BinTree { a, b, .. } => out.extend([a, b]),
        Op::ConstBin { a, .. }
        | Op::TreeBin { a, .. }
        | Op::GlobBin { a, .. }
        | Op::ConstBinBranch { a, .. } => out.push(a),
        Op::LocBin { a, src, .. } | Op::LocBinBranch { a, src, .. } => out.extend([a, src]),
        Op::Branch { cond, .. } => out.push(cond),
        Op::ShortCircuit { reg, .. } | Op::CastBool { reg } => out.push(reg),
        Op::Call {
            call,
            child,
            argbase,
        } => {
            out.push(child);
            for part in calls[call as usize].parts.iter() {
                for k in 0..part.nargs as u16 {
                    out.push(argbase + part.argbase + k);
                }
            }
        }
        Op::NavCall { call, argbase, .. } => {
            for part in calls[call as usize].parts.iter() {
                for k in 0..part.nargs as u16 {
                    out.push(argbase + part.argbase + k);
                }
            }
        }
        Op::CallPure { base, n, .. } => out.extend((0..n as u16).map(|k| base + k)),
    }
}

/// The register `op` writes, if any.
fn reg_write(op: &Op) -> Option<u16> {
    match *op {
        Op::Const { dst, .. }
        | Op::Mov { dst, .. }
        | Op::StoreLocal { dst, .. }
        | Op::Un { dst, .. }
        | Op::Bin { dst, .. }
        | Op::ConstBin { dst, .. }
        | Op::LocBin { dst, .. }
        | Op::TreeBin { dst, .. }
        | Op::GlobBin { dst, .. }
        | Op::ReadTree { dst, .. }
        | Op::ReadGlobal { dst, .. }
        | Op::Nav { dst, .. }
        | Op::TreeLoc { dst, .. }
        | Op::ConstLoc { dst, .. }
        | Op::LocLoc { dst, .. }
        | Op::CallPure { dst, .. } => Some(dst),
        Op::ShortCircuit { reg, .. } | Op::CastBool { reg } => Some(reg),
        _ => None,
    }
}

/// The jump target embedded in `op`, if any.
pub(crate) fn op_target(op: &Op) -> Option<u32> {
    match *op {
        Op::Jump { target }
        | Op::Branch { target, .. }
        | Op::ShortCircuit { target, .. }
        | Op::Guard { target, .. }
        | Op::SkipInactive { target, .. }
        | Op::Deactivate { target, .. }
        | Op::ConstBinBranch { target, .. }
        | Op::LocBinBranch { target, .. }
        | Op::Nav {
            null_target: target,
            ..
        }
        | Op::NavCall {
            null_target: target,
            ..
        } => Some(target),
        _ => None,
    }
}

/// Rewrites the jump target embedded in `op` through `f`.
fn map_target(op: &mut Op, f: impl Fn(u32) -> u32) {
    match op {
        Op::Jump { target }
        | Op::Branch { target, .. }
        | Op::ShortCircuit { target, .. }
        | Op::Guard { target, .. }
        | Op::SkipInactive { target, .. }
        | Op::Deactivate { target, .. }
        | Op::ConstBinBranch { target, .. }
        | Op::LocBinBranch { target, .. }
        | Op::Nav {
            null_target: target,
            ..
        }
        | Op::NavCall {
            null_target: target,
            ..
        } => *target = f(*target),
        _ => {}
    }
}

/// Successor pcs of the op at `pc` (within its function body).
pub(crate) fn successors(pc: u32, op: &Op, out: &mut Vec<u32>) {
    match *op {
        Op::Jump { target } | Op::Deactivate { target, .. } => out.push(target),
        Op::Ret => {}
        Op::Branch { target, .. }
        | Op::ShortCircuit { target, .. }
        | Op::Guard { target, .. }
        | Op::SkipInactive { target, .. }
        | Op::ConstBinBranch { target, .. }
        | Op::LocBinBranch { target, .. }
        | Op::Nav {
            null_target: target,
            ..
        }
        | Op::NavCall {
            null_target: target,
            ..
        } => out.extend([pc + 1, target]),
        _ => out.push(pc + 1),
    }
}

/// Per-op register liveness of one function body: a backward dataflow
/// fixpoint over the op-level control-flow graph, solved once per
/// function.
///
/// The solver keeps five bitset planes of `words` words per op in one flat
/// arena: live-out, live-in, and the registers the op reads, writes and
/// kills on its skip edge. The per-op masks are built once and a sweep
/// allocates nothing. Lowering emits forward jumps only, so one backward
/// sweep reaches the fixpoint; a back edge makes the solver sweep until
/// nothing changes.
///
/// One edge kills registers: a [`Op::SkipInactive`]'s argument window is
/// dead on its skip edge, since a call copies only active parts'
/// arguments. Without that, the call's reads would keep every argument
/// register live back to the function entry.
struct Liveness {
    entry: u32,
    words: usize,
    /// `live_out[(pc - entry) * words..][..words]`: registers read on some
    /// path after `pc`.
    live_out: Vec<u64>,
}

impl Liveness {
    fn compute(ops: &[Op], calls: &[CallInfo], entry: u32, end: u32, total_regs: u16) -> Self {
        const NONE: u32 = u32::MAX;
        let body = &ops[entry as usize..end as usize];
        let n = body.len();
        let words = (total_regs as usize).div_ceil(64).max(1);
        let plane = n * words;
        let mut arena = vec![0u64; 5 * plane];
        let (live_out, rest) = arena.split_at_mut(plane);
        let (live_in, rest) = rest.split_at_mut(plane);
        let (uses, rest) = rest.split_at_mut(plane);
        let (defs, kills) = rest.split_at_mut(plane);
        let set = |bits: &mut [u64], i: usize, r: u16| {
            bits[i * words + r as usize / 64] |= 1u64 << (r % 64);
        };
        // Per op, body-relative: the successor whose live-in flows in
        // whole, and the one whose live-in flows in minus the op's kills.
        // `successors` lists the fall-through first, so a `SkipInactive`'s
        // skip edge takes the second slot.
        let mut edges = vec![[NONE; 2]; n];
        let mut back_edge = false;
        let mut reads = Vec::new();
        let mut succs = Vec::new();
        for (i, op) in body.iter().enumerate() {
            reads.clear();
            reg_reads(op, calls, &mut reads);
            for &r in &reads {
                set(uses, i, r);
            }
            if let Some(w) = reg_write(op) {
                set(defs, i, w);
            }
            if let Op::SkipInactive { nargs, args, .. } = *op {
                for r in args..args + nargs as u16 {
                    set(kills, i, r);
                }
            }
            let pc = entry + i as u32;
            succs.clear();
            successors(pc, op, &mut succs);
            for (slot, &s) in edges[i].iter_mut().zip(&succs) {
                if (entry..end).contains(&s) {
                    *slot = s - entry;
                    back_edge |= s <= pc;
                }
            }
        }
        loop {
            let mut changed = false;
            for i in (0..n).rev() {
                let [whole, killed] = edges[i];
                for w in i * words..(i + 1) * words {
                    let mut out = 0;
                    if whole != NONE {
                        out |= live_in[whole as usize * words + w % words];
                    }
                    if killed != NONE {
                        out |= live_in[killed as usize * words + w % words] & !kills[w];
                    }
                    let inn = uses[w] | (out & !defs[w]);
                    if out != live_out[w] || inn != live_in[w] {
                        changed = true;
                        live_out[w] = out;
                        live_in[w] = inn;
                    }
                }
            }
            if !changed || !back_edge {
                break;
            }
        }
        arena.truncate(plane);
        Liveness {
            entry,
            words,
            live_out: arena,
        }
    }

    /// Is `reg` read on some path after the op at `pc` executes?
    fn live_after(&self, pc: u32, reg: u16) -> bool {
        debug_assert!((reg as usize) < self.words * 64);
        let w = (pc - self.entry) as usize * self.words + reg as usize / 64;
        self.live_out[w] & (1u64 << (reg % 64)) != 0
    }
}

/// Pcs that some jump lands on (function entries included): a fusion must
/// not swallow an op that control can enter mid-pair.
fn jump_target_flags(module: &Module) -> Vec<bool> {
    let mut flags = vec![false; module.ops.len() + 1];
    for op in &module.ops {
        if let Some(t) = op_target(op) {
            flags[t as usize] = true;
        }
    }
    for f in &module.funcs {
        flags[f.entry as usize] = true;
    }
    flags
}

/// Removes ops flagged in `deleted`, remapping every jump target and
/// function boundary. A deleted op that is itself a jump target must be
/// effect-free: landing jumps are redirected to the next surviving op.
fn compact(module: &mut Module, deleted: &[bool]) {
    let n = module.ops.len();
    let mut new_pc = vec![0u32; n + 1];
    let mut cur = 0u32;
    for i in 0..n {
        new_pc[i] = cur;
        if !deleted[i] {
            cur += 1;
        }
    }
    new_pc[n] = cur;
    let mut ops = Vec::with_capacity(cur as usize);
    for (i, op) in module.ops.iter().enumerate() {
        if !deleted[i] {
            let mut op = *op;
            map_target(&mut op, |t| new_pc[t as usize]);
            ops.push(op);
        }
    }
    module.ops = ops;
    for f in &mut module.funcs {
        f.entry = new_pc[f.entry as usize];
        f.end = new_pc[f.end as usize];
    }
}

// ---- pass 1: peephole superinstructions ----------------------------------

/// Fuses the adjacent pair `(a, b)` into one superinstruction, or `None`.
///
/// Every fusion requires that the intermediate register the pair
/// communicates through is dead after `b` (checked by the caller via
/// liveness) — the condition is passed in as `dead` to keep this a pure
/// pattern match.
fn fuse_pair(a: Op, b: Op, dead: impl Fn(u16) -> bool) -> Option<Op> {
    match (a, b) {
        // ---- producer feeding a binop's rhs ----
        (Op::Const { dst: r, c }, Op::Bin { op, dst, a, b }) if b == r && a != r && dead(r) => {
            Some(Op::ConstBin { op, dst, a, c })
        }
        (Op::Mov { dst: r, src }, Op::Bin { op, dst, a, b }) if b == r && a != r && dead(r) => {
            Some(Op::LocBin { op, dst, a, src })
        }
        (
            Op::ReadTree {
                dst: r,
                path,
                field,
                addend,
            },
            Op::Bin { op, dst, a, b },
        ) if b == r && a != r && dead(r) => Some(Op::TreeBin {
            op,
            dst,
            a,
            path,
            field,
            addend,
        }),
        (Op::ReadGlobal { dst: r, idx }, Op::Bin { op, dst, a, b })
            if b == r && a != r && dead(r) =>
        {
            Some(Op::GlobBin { op, dst, a, idx })
        }
        // ---- compare feeding a branch ----
        // Retry patterns: the kind-tag test `if (x.kind == K)` fuses
        // Const+Bin, then the retry fuses ConstBin+Branch here.
        (Op::ConstBin { op, dst: r, a, c }, Op::Branch { cond, target })
            if cond == r && dead(r) =>
        {
            Some(Op::ConstBinBranch { op, a, c, target })
        }
        (Op::LocBin { op, dst: r, a, src }, Op::Branch { cond, target })
            if cond == r && dead(r) =>
        {
            Some(Op::LocBinBranch { op, a, src, target })
        }
        // ---- binop feeding a field store ----
        (
            Op::Bin { op, dst: r, a, b },
            Op::WriteTree {
                src,
                path,
                field,
                addend,
                co,
            },
        ) if src == r && dead(r) => Some(Op::BinTree {
            op,
            a,
            b,
            path,
            field,
            addend,
            co,
        }),
        // ---- receiver navigation feeding an argument-less call ----
        (
            Op::Nav {
                dst: r,
                path,
                null_target,
            },
            Op::Call {
                call,
                child,
                argbase,
            },
        ) if child == r && dead(r) => Some(Op::NavCall {
            call,
            path,
            argbase,
            null_target,
        }),
        // ---- straight copies ----
        (
            Op::ReadTree {
                dst: r,
                path,
                field,
                addend,
            },
            Op::StoreLocal { dst, src, co },
        ) if src == r && dead(r) => Some(Op::TreeLoc {
            dst,
            path,
            field,
            addend,
            co,
        }),
        (
            Op::ReadTree {
                dst: r,
                path: rpath,
                field: rfield,
                addend: raddend,
            },
            Op::WriteTree {
                src,
                path: wpath,
                field: wfield,
                addend: waddend,
                co,
            },
        ) if src == r && dead(r) && rfield <= u16::MAX as u32 && wfield <= u16::MAX as u32 => {
            Some(Op::TreeTree {
                rpath,
                rfield: rfield as u16,
                raddend,
                wpath,
                wfield: wfield as u16,
                waddend,
                co,
            })
        }
        (
            Op::Const { dst: r, c },
            Op::WriteTree {
                src,
                path,
                field,
                addend,
                co,
            },
        ) if src == r && dead(r) => Some(Op::ConstTree {
            c,
            path,
            field,
            addend,
            co,
        }),
        (Op::Const { dst: r, c }, Op::StoreLocal { dst, src, co }) if src == r && dead(r) => {
            Some(Op::ConstLoc { dst, c, co })
        }
        (
            Op::Mov { dst: r, src },
            Op::WriteTree {
                src: wsrc,
                path,
                field,
                addend,
                co,
            },
        ) if wsrc == r && src != r && dead(r) => Some(Op::LocTree {
            src,
            path,
            field,
            addend,
            co,
        }),
        (Op::Mov { dst: r, src }, Op::StoreLocal { dst, src: ssrc, co })
            if ssrc == r && src != r && dead(r) =>
        {
            Some(Op::LocLoc { dst, src, co })
        }
        _ => None,
    }
}

/// Peephole fusion of adjacent op pairs into superinstructions, in one
/// scan per function.
///
/// A pair fuses only when (a) the second op is not a jump target (control
/// could enter mid-pair) and (b) the register the pair communicates
/// through is dead afterwards, per the function's liveness solution. The
/// replacement charges exactly what the pair charged.
///
/// A fused op is retried against the op after the pair, so a chain fuses
/// in the same scan: `Const+Bin` → `ConstBin`, then `ConstBin+Branch` →
/// `ConstBinBranch`. Liveness is solved once per function, before any
/// fusion, and stays valid throughout: a fusion only drops the write of an
/// intermediate that is dead after the pair, so what is live after each
/// remaining op does not change. One [`compact`] drops the fused-away ops.
fn peephole_pass(module: &mut Module) -> PassStat {
    let before = module.ops.len();
    let targets = jump_target_flags(module);
    let mut deleted = vec![false; module.ops.len()];
    let mut rewrites = 0usize;
    for f in &module.funcs {
        let live = Liveness::compute(&module.ops, &module.calls, f.entry, f.end, f.total_regs);
        let mut pc = f.entry;
        while pc + 1 < f.end {
            // `pc` holds the (possibly already fused) first op; `next` is
            // the op after it that is not yet deleted.
            let mut next = pc + 1;
            while next < f.end && !targets[next as usize] {
                let (a, b) = (module.ops[pc as usize], module.ops[next as usize]);
                let Some(fused) = fuse_pair(a, b, |r| !live.live_after(next, r)) else {
                    break;
                };
                module.ops[pc as usize] = fused;
                deleted[next as usize] = true;
                rewrites += 1;
                next += 1;
            }
            pc = next;
        }
    }
    compact(module, &deleted);
    PassStat {
        wall_ns: 0,
        pass: "peephole",
        before,
        after: module.ops.len(),
        unit: "op",
        rewrites,
        action: "fused",
    }
}

// ---- pass 2: register-window compaction ----------------------------------

/// Register-window compaction: shrinks each function's `total_regs` to
/// the registers its (optimized) body actually touches, so every
/// activation zeroes a smaller window. Locals always stay mapped.
fn regs_pass(module: &mut Module) -> PassStat {
    let before: usize = module.funcs.iter().map(|f| f.total_regs as usize).sum();
    let mut rewrites = 0usize;
    let mut reads = Vec::new();
    for f in &mut module.funcs {
        let mut max_used: u16 = f.frame_regs.saturating_sub(1);
        for pc in f.entry..f.end {
            let op = &module.ops[pc as usize];
            reads.clear();
            reg_reads(op, &module.calls, &mut reads);
            if let Some(w) = reg_write(op) {
                reads.push(w);
            }
            for &r in &reads {
                max_used = max_used.max(r);
            }
        }
        let shrunk = (max_used + 1).max(f.frame_regs);
        if shrunk < f.total_regs {
            f.total_regs = shrunk;
            rewrites += 1;
        }
    }
    PassStat {
        wall_ns: 0,
        pass: "regs",
        before,
        after: module.funcs.iter().map(|f| f.total_regs as usize).sum(),
        unit: "reg",
        rewrites,
        action: "shrunk",
    }
}

// ---- pass 3: entry-mask specialisation ------------------------------------

/// What the entry-mask clones of one module may cost together, in ops:
/// every clone's ops and every mask table the search allocates, at four
/// entries to the op (a `u32` function index against a 16-byte op).
pub(crate) const CLONE_OP_CAP: usize = 8_192;

/// A mask-table entry no reached activation starts with.
const UNREACHED: u32 = u32::MAX;

/// A grouped call of a multi-traversal function, as the search sees it.
#[derive(Clone, Copy)]
struct Site {
    stub: u16,
    /// The caller copies with a `retrav` before the call: their bits are
    /// undecided at it.
    returned: u64,
    /// The caller copies the call's parts belong to.
    copies: u64,
    /// The site's range of [`Search::groups`].
    groups: (u32, u32),
}

/// The state of [`specialize_pass`]: each multi-traversal function's
/// bookkeeping ops and call sites, and the (function, entry mask) pairs
/// its activations can start with.
struct Search {
    /// Per generic function: its range of `events`, `jumps` and `sites`.
    ranges: Vec<[(u32, u32); 3]>,
    /// The pcs of every `guard`, `skipoff`, `retrav`, `nav` and `call`,
    /// function by function.
    events: Vec<u32>,
    /// The pcs of every op with a jump target, function by function.
    jumps: Vec<u32>,
    sites: Vec<Site>,
    /// Per site: the copies active at the call, `[lo, hi]`, that it last
    /// reached callee masks for.
    last: Vec<(u64, u64)>,
    /// Per site and caller copy among its parts: the copy's bit and the
    /// callee bits of its parts.
    groups: Vec<(u64, u64)>,
    /// The distinct functions each stub dispatches to, stub by stub, and
    /// each stub's range of them.
    targets: Vec<u32>,
    stub_targets: Vec<(u32, u32)>,
    /// Per generic function: the start of its mask table in `table`
    /// (`2^n` entries for `n` copies), once a pair of it is reached.
    /// `Some(UNREACHED)` when the table did not fit the cap.
    at: Vec<Option<u32>>,
    /// Mask tables: [`UNREACHED`], the function itself once reached, or
    /// its clone.
    table: Vec<u32>,
    /// Reached pairs, in the order they were reached.
    reached: Vec<(u32, u64)>,
    /// What is left of [`CLONE_OP_CAP`].
    left: usize,
    /// Scratch: the callee masks of one call.
    masks: Vec<u64>,
}

impl Search {
    fn new(module: &Module) -> Self {
        let mut search = Search {
            ranges: Vec::with_capacity(module.funcs.len()),
            events: Vec::new(),
            jumps: Vec::new(),
            sites: Vec::new(),
            last: Vec::new(),
            groups: Vec::new(),
            targets: Vec::new(),
            stub_targets: Vec::with_capacity(module.stubs.len()),
            at: vec![None; module.funcs.len()],
            table: Vec::new(),
            reached: Vec::new(),
            left: CLONE_OP_CAP,
            masks: Vec::new(),
        };
        for f in &module.funcs {
            let start = [&search.events, &search.jumps].map(|v| v.len() as u32);
            let s0 = search.sites.len() as u32;
            if f.n_traversals > 1 {
                let mut returned = 0u64;
                for pc in f.entry..f.end {
                    match module.ops[pc as usize] {
                        Op::Guard { .. } | Op::SkipInactive { .. } | Op::Nav { .. } => {
                            search.jumps.push(pc);
                        }
                        Op::Deactivate { traversal, .. } => {
                            returned |= 1 << traversal;
                            search.jumps.push(pc);
                        }
                        Op::NavCall { call, .. } => {
                            search.site(module, call, returned);
                            search.jumps.push(pc);
                        }
                        Op::Call { call, .. } => search.site(module, call, returned),
                        ref op => {
                            if op_target(op).is_some() {
                                search.jumps.push(pc);
                            }
                            continue;
                        }
                    }
                    search.events.push(pc);
                }
            }
            search.ranges.push([
                (start[0], search.events.len() as u32),
                (start[1], search.jumps.len() as u32),
                (s0, search.sites.len() as u32),
            ]);
        }
        search.last = vec![(u64::MAX, 0); search.sites.len()];
        // Each stub's targets in class order, each function once.
        let mut listed = vec![u32::MAX; module.funcs.len()];
        for (si, s) in module.stubs.iter().enumerate() {
            let t0 = search.targets.len() as u32;
            for &t in s.targets.iter() {
                if t != crate::module::NO_TARGET && listed[t as usize] != si as u32 {
                    listed[t as usize] = si as u32;
                    search.targets.push(t);
                }
            }
            search.stub_targets.push((t0, search.targets.len() as u32));
        }
        search
    }

    /// Records call `call`, after `retrav`s of the `returned` copies.
    fn site(&mut self, module: &Module, call: u16, returned: u64) {
        let info = &module.calls[call as usize];
        let g0 = self.groups.len();
        let mut copies = 0u64;
        for (i, part) in info.parts.iter().enumerate() {
            let bit = 1u64 << part.traversal;
            copies |= bit;
            match self.groups[g0..].iter_mut().find(|g| g.0 == bit) {
                Some(g) => g.1 |= 1 << i,
                None => self.groups.push((bit, 1 << i)),
            }
        }
        self.sites.push(Site {
            stub: info.stub,
            returned,
            copies,
            groups: (g0 as u32, self.groups.len() as u32),
        });
    }

    /// The start of `f`'s mask table, allocated on first use; `None` for a
    /// single-copy function or when the table does not fit the cap.
    fn table_of(&mut self, module: &Module, f: u32) -> Option<usize> {
        let at = *self.at[f as usize].get_or_insert_with(|| {
            let n = u32::from(module.funcs[f as usize].n_traversals);
            let len = 1usize << n.min(32);
            if !(2..32).contains(&n) || len / 4 > self.left {
                return UNREACHED;
            }
            self.left -= len / 4;
            self.table.resize(self.table.len() + len, UNREACHED);
            (self.table.len() - len) as u32
        });
        (at != UNREACHED).then_some(at as usize)
    }

    /// Reaches the entry masks call site `si` of a function entered with
    /// `entry` passes its callees when at most one of the caller copies
    /// undecided at the call is active, and when all of them are. Part `i`
    /// sets callee bit `i` when its copy is active; the copies active at
    /// the call are `entry` less some of those returned before it, and
    /// at least one of the call's own (its guard passed).
    ///
    /// The masks between are left out: their clones would come after
    /// these in popcount order, and a mask the search misses runs the
    /// generic body.
    fn call(&mut self, module: &Module, si: usize, entry: u64) {
        let site = self.sites[si];
        let (lo, hi) = (entry & site.copies & !site.returned, entry & site.copies);
        if hi == 0 || self.last[si] == (lo, hi) {
            return;
        }
        self.last[si] = (lo, hi);
        let (mut low, mut high) = (0u64, 0u64);
        self.masks.clear();
        for &(bit, callee) in &self.groups[site.groups.0 as usize..site.groups.1 as usize] {
            if lo & bit != 0 {
                low |= callee;
            } else if hi & bit != 0 {
                high |= callee;
                self.masks.push(callee);
            }
        }
        for mask in &mut self.masks {
            *mask |= low;
        }
        let undecided = self.masks.len();
        if low != 0 {
            self.masks.push(low);
        }
        if undecided > 1 {
            self.masks.push(low | high);
        }
        let (t0, t1) = self.stub_targets[site.stub as usize];
        for ti in t0..t1 {
            let target = self.targets[ti as usize];
            let Some(at) = self.table_of(module, target) else {
                continue;
            };
            for &mask in &self.masks {
                let entry = &mut self.table[at + mask as usize];
                if *entry == UNREACHED {
                    *entry = target;
                    self.reached.push((target, mask));
                }
            }
        }
    }
}

/// What a clone of one function for one entry mask leaves out.
#[derive(Default)]
struct Plan {
    /// Dropped pc ranges `[a, b)` of the generic body, in order, each with
    /// the ops dropped before `a`.
    drops: Vec<(u32, u32, u32)>,
    dropped: u32,
    /// Guards the clone prepays on top of the generic function's.
    prepaid: u32,
    /// Each kept `retrav`, with `prepaid` as it stood there.
    retravs: Vec<(u32, u32)>,
    /// Each `nav` the clone fuses with its call, and the call.
    fused: Vec<(u32, u32)>,
}

impl Plan {
    fn drop_range(&mut self, a: u32, b: u32) {
        self.drops.push((a, b, self.dropped));
        self.dropped += b - a;
    }

    /// The clone's pc of generic pc `t` (the next kept op's, when `t` is
    /// dropped), relative to the clone's first op.
    fn map(&self, start: u32, t: u32) -> u32 {
        let k = self.drops.partition_point(|&(a, _, _)| a < t);
        let before = match k {
            0 => 0,
            _ => {
                let (a, b, d) = self.drops[k - 1];
                d + t.min(b) - a
            }
        };
        t - start - before
    }

    /// Decides the clone of `f` for activations entered with `entry`, in
    /// one pass over the function's bookkeeping ops.
    ///
    /// An item whose guard mask misses `entry` is dropped whole, as is the
    /// argument window of a call part outside it; a guard or `skipoff` the
    /// clone proves true is dropped alone. A copy's bit stays known until
    /// its first `retrav`, and an item whose mask covers all of `entry` is
    /// live, since an activation whose last bit clears has returned. A
    /// dropped guard's charge joins the prepaid ones, and a `retrav`
    /// refunds those after its item. A `nav` whose argument windows all
    /// drop fuses with its call, as the peephole fuses argument-less ones.
    fn decide(&mut self, module: &Module, search: &Search, f: usize, entry: u64) {
        self.drops.clear();
        self.retravs.clear();
        self.fused.clear();
        self.dropped = 0;
        self.prepaid = 0;
        let (e0, e1) = search.ranges[f][0];
        let events = &search.events[e0 as usize..e1 as usize];
        let mut known = entry;
        let mut nav = None;
        let mut i = 0;
        while i < events.len() {
            let pc = events[i];
            i += 1;
            let skip_to = match module.ops[pc as usize] {
                Op::Guard { mask, target } => {
                    let live = mask & entry;
                    if live != 0 && live != entry && mask & known == 0 {
                        continue;
                    }
                    self.prepaid += 1;
                    if live == 0 {
                        target
                    } else {
                        pc + 1
                    }
                }
                Op::SkipInactive {
                    traversal, target, ..
                } => {
                    let bit = 1u64 << traversal;
                    if entry & bit == 0 {
                        target
                    } else if entry == bit || known & bit != 0 {
                        pc + 1
                    } else {
                        continue;
                    }
                }
                Op::Deactivate { traversal, .. } => {
                    known &= !(1u64 << traversal);
                    self.retravs.push((pc, self.prepaid));
                    continue;
                }
                Op::Nav { .. } => {
                    nav = Some((pc, self.dropped));
                    continue;
                }
                Op::Call { child, .. } => match nav.take() {
                    Some((n, dropped)) if self.dropped - dropped == pc - n - 1 => {
                        debug_assert!(
                            matches!(module.ops[n as usize], Op::Nav { dst, .. } if dst == child)
                        );
                        self.fused.push((n, pc));
                        pc + 1
                    }
                    _ => continue,
                },
                _ => continue,
            };
            self.drop_range(pc, skip_to);
            while i < events.len() && events[i] < skip_to {
                i += 1;
            }
        }
    }

    /// Appends the clone decided last to the module's ops and returns its
    /// first op: the kept runs of `f`'s body, jump targets remapped.
    fn emit(&self, module: &mut Module, search: &Search, f: usize) -> u32 {
        let (start, end) = (module.funcs[f].entry, module.funcs[f].end);
        let out = module.ops.len() as u32;
        let mut from = start;
        for &(a, b, _) in &self.drops {
            module.ops.extend_from_within(from as usize..a as usize);
            from = b;
        }
        module.ops.extend_from_within(from as usize..end as usize);
        let at = |t: u32| (out + self.map(start, t)) as usize;
        for &(nav, call) in &self.fused {
            if let (
                Op::Nav {
                    path, null_target, ..
                },
                Op::Call { call, argbase, .. },
            ) = (module.ops[nav as usize], module.ops[call as usize])
            {
                module.ops[at(nav)] = Op::NavCall {
                    call,
                    path,
                    argbase,
                    null_target,
                };
            }
        }
        let (j0, j1) = search.ranges[f][1];
        let mut drops = self.drops.iter().peekable();
        for &pc in &search.jumps[j0 as usize..j1 as usize] {
            while drops.next_if(|&&(_, b, _)| b <= pc).is_some() {}
            if drops.peek().is_some_and(|&&(a, _, _)| a <= pc) {
                continue; // dropped
            }
            map_target(&mut module.ops[at(pc)], |t| out + self.map(start, t));
        }
        for &(pc, prepaid) in &self.retravs {
            if let Op::Deactivate { refund, .. } = &mut module.ops[at(pc)] {
                *refund += self.prepaid - prepaid;
            }
        }
        out
    }
}

/// Entry-mask specialisation: appends, for each multi-traversal function,
/// one clone per entry mask its activations can start with, and points
/// the function's mask table at them.
///
/// The search reaches (function, entry mask) pairs from each entry's
/// all-ones mask through the calls' parts (see [`Search::call`]), then
/// clones them in increasing popcount order: the fewer copies an
/// activation starts with, the more of the body its clone drops. Each
/// clone comes from one pass over its generic function's optimised body
/// (see [`Plan`]), whose ops stay as they are: every mask without a clone
/// runs them. Clones and mask tables share [`CLONE_OP_CAP`]; the cloning
/// stops at the first clone past what is left of it.
fn specialize_pass(module: &mut Module) -> PassStat {
    let before = module.ops.len();
    let generic = module.funcs.len();
    let mut search = Search::new(module);
    for &stub in &module.entries {
        let flags = grafter::entry_flags(module.stubs[stub as usize].n_parts.into());
        let (t0, t1) = search.stub_targets[stub as usize];
        for ti in t0..t1 {
            let target = search.targets[ti as usize];
            // An entry too wide for a table is still searched through: it
            // may call narrower functions.
            match search.table_of(module, target) {
                Some(at) if search.table[at + flags as usize] != UNREACHED => continue,
                Some(at) => search.table[at + flags as usize] = target,
                None if search.reached.contains(&(target, flags)) => continue,
                None => {}
            }
            search.reached.push((target, flags));
        }
    }
    let mut next = 0;
    while next < search.reached.len() {
        let (f, entry) = search.reached[next];
        next += 1;
        let (s0, s1) = search.ranges[f as usize][2];
        for si in s0..s1 {
            search.call(module, si as usize, entry);
        }
    }
    let mut order = std::mem::take(&mut search.reached);
    order.sort_by_key(|&(_, mask)| mask.count_ones());
    let mut plan = Plan::default();
    for (f, entry) in order {
        let Some(at) = search.at[f as usize].filter(|&at| at != UNREACHED) else {
            continue;
        };
        plan.decide(module, &search, f as usize, entry);
        let body = module.funcs[f as usize].end - module.funcs[f as usize].entry;
        let size = (body - plan.dropped) as usize;
        if plan.drops.is_empty() {
            continue;
        }
        if size > search.left {
            break;
        }
        search.left -= size;
        // What is left bounds the clones still to come: reserve it once.
        module.ops.reserve(size + search.left);
        let start = plan.emit(module, &search, f as usize);
        let g = &module.funcs[f as usize];
        let clone = FuncInfo {
            entry: start,
            end: module.ops.len() as u32,
            n_traversals: g.n_traversals,
            folded: g.folded + plan.prepaid,
            frame_regs: g.frame_regs,
            total_regs: g.total_regs,
            params: Box::new([]),
            name: String::new(),
            clones: NO_CLONES,
        };
        search.table[at as usize + entry as usize] = module.funcs.len() as u32;
        module.funcs.push(clone);
        module.clone_of.push((f, entry));
    }
    module.ops.shrink_to_fit();
    let mut cloned: Vec<u32> = module.clone_of.iter().map(|&(f, _)| f).collect();
    cloned.sort_unstable();
    cloned.dedup();
    for f in cloned {
        let f = f as usize;
        let at = search.at[f].expect("a cloned function has a table");
        let len = 1usize << module.funcs[f].n_traversals;
        let table = &search.table[at as usize..at as usize + len];
        module.funcs[f].clones = module.clone_table.len() as u32;
        module.clone_table.extend(
            table
                .iter()
                .map(|&t| if t == UNREACHED { f as u32 } else { t }),
        );
    }
    PassStat {
        wall_ns: 0,
        pass: "specialize",
        before,
        after: module.ops.len(),
        unit: "op",
        rewrites: module.funcs.len() - generic,
        action: "cloned",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::CallPartInfo;
    use grafter::FusionOptions;
    use grafter_workloads::case_studies;

    /// A textbook solver to hold [`Liveness`] to: a vector per op, joined
    /// one successor at a time and swept until nothing changes.
    fn reference_live_out(
        ops: &[Op],
        calls: &[CallInfo],
        entry: u32,
        end: u32,
        total_regs: u16,
    ) -> Vec<Vec<bool>> {
        let n = (end - entry) as usize;
        let regs = total_regs as usize;
        let mut live_in = vec![vec![false; regs]; n];
        let mut live_out = vec![vec![false; regs]; n];
        let mut changed = true;
        while changed {
            changed = false;
            for pc in (entry..end).rev() {
                let i = (pc - entry) as usize;
                let op = &ops[pc as usize];
                let mut succs = Vec::new();
                successors(pc, op, &mut succs);
                let mut out = vec![false; regs];
                for s in succs.into_iter().filter(|s| (entry..end).contains(s)) {
                    let killed = |r: usize| match *op {
                        Op::SkipInactive {
                            nargs,
                            args,
                            target,
                            ..
                        } => {
                            s == target
                                && (args as usize..args as usize + nargs as usize).contains(&r)
                        }
                        _ => false,
                    };
                    let live = &live_in[(s - entry) as usize];
                    for r in 0..regs {
                        out[r] |= live[r] && !killed(r);
                    }
                }
                let mut inn = out.clone();
                if let Some(w) = reg_write(op) {
                    inn[w as usize] = false;
                }
                let mut reads = Vec::new();
                reg_reads(op, calls, &mut reads);
                for r in reads {
                    inn[r as usize] = true;
                }
                if out != live_out[i] || inn != live_in[i] {
                    changed = true;
                    live_out[i] = out;
                    live_in[i] = inn;
                }
            }
        }
        live_out
    }

    fn assert_same_liveness(
        ops: &[Op],
        calls: &[CallInfo],
        entry: u32,
        end: u32,
        total_regs: u16,
        what: &str,
    ) {
        let live = Liveness::compute(ops, calls, entry, end, total_regs);
        let reference = reference_live_out(ops, calls, entry, end, total_regs);
        for pc in entry..end {
            for reg in 0..total_regs {
                assert_eq!(
                    live.live_after(pc, reg),
                    reference[(pc - entry) as usize][reg as usize],
                    "{what}: r{reg} after pc {pc}"
                );
            }
        }
    }

    /// The eight case-study modules (fused and unfused) at `level`.
    fn case_study_modules(level: OptLevel) -> Vec<(String, Module)> {
        let mut modules = Vec::new();
        for case in case_studies() {
            for (label, opts) in [
                ("fused", FusionOptions::default()),
                ("unfused", FusionOptions::unfused()),
            ] {
                let fused = grafter::fuse(
                    case.compiled.program(),
                    case.root_class,
                    &case.passes,
                    &opts,
                )
                .expect("case-study entry sequence resolves");
                let module = crate::lower_with(&fused, &VmOptions::with_opt_level(level));
                modules.push((format!("{} {label}", case.name), module));
            }
        }
        modules
    }

    #[test]
    fn liveness_matches_a_naive_fixpoint_on_every_case_study_function() {
        let mut functions = 0;
        for (name, module) in case_study_modules(OptLevel::O0) {
            for f in &module.funcs {
                let what = format!("{name} {}", f.name);
                assert_same_liveness(
                    &module.ops,
                    &module.calls,
                    f.entry,
                    f.end,
                    f.total_regs,
                    &what,
                );
                functions += 1;
            }
        }
        assert!(functions > 200, "{functions} functions");
    }

    #[test]
    fn a_skipped_argument_window_is_dead_on_the_skip_edge() {
        // nav r0; skipoff r1..r1 -> 3; const r1; call r0 (args r1); ret
        let ops = [
            Op::Nav {
                dst: 0,
                path: 0,
                null_target: 4,
            },
            Op::SkipInactive {
                traversal: 0,
                nargs: 1,
                args: 1,
                target: 3,
            },
            Op::Const { dst: 1, c: 0 },
            Op::Call {
                call: 0,
                child: 0,
                argbase: 1,
            },
            Op::Ret,
        ];
        let calls = [CallInfo {
            stub: 0,
            charge_flags: true,
            parts: Box::new([CallPartInfo {
                traversal: 0,
                argbase: 0,
                nargs: 1,
            }]),
        }];
        let live = Liveness::compute(&ops, &calls, 0, 5, 2);
        // The call reads its argument on the path that evaluated it...
        assert!(live.live_after(2, 1));
        // ...but not on the skip edge, so the window is dead before it.
        assert!(!live.live_after(1, 1));
        assert!(!live.live_after(0, 1));
        assert!(live.live_after(0, 0) && live.live_after(1, 0));
        assert_same_liveness(&ops, &calls, 0, 5, 2, "hand-built");
    }

    #[test]
    fn a_back_edge_is_swept_to_the_fixpoint() {
        // Lowering jumps forward only; a loop needs more than one sweep.
        // const r1; brfalse r0 -> 4; mov r2 <- r1; jump 1; ret
        let ops = [
            Op::Const { dst: 1, c: 0 },
            Op::Branch { cond: 0, target: 4 },
            Op::Mov { dst: 2, src: 1 },
            Op::Jump { target: 1 },
            Op::Ret,
        ];
        let live = Liveness::compute(&ops, &[], 0, 5, 3);
        assert!(live.live_after(3, 1) && live.live_after(3, 0));
        assert_same_liveness(&ops, &[], 0, 5, 3, "loop");
    }

    #[test]
    fn one_peephole_scan_leaves_nothing_to_fuse() {
        // A second scan over the optimized modules finds no pair: the
        // retry fused every chain the scan opened.
        for (name, mut module) in case_study_modules(OptLevel::O2) {
            let ops = module.ops.len();
            let again = peephole_pass(&mut module);
            assert_eq!(again.rewrites, 0, "{name}");
            assert_eq!(module.ops.len(), ops, "{name}");
        }
    }
}
