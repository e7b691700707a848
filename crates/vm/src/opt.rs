//! The bytecode optimizer: rewrites a lowered [`Module`] in place.
//!
//! [`crate::lower`] emits naive one-op-per-HIR-node code, so the VM's
//! dispatch loop pays a full `match` round-trip per tiny instruction —
//! the classic interpreter overhead that superinstructions eliminate.
//! At [`OptLevel::O2`], [`optimize`] runs two passes over a module:
//!
//! 1. **peephole** — fusion of hot adjacent pairs into
//!    superinstructions (load-field + coerce, load + binop, compare +
//!    branch, store-field from the accumulator, constant stores,
//!    receiver navigation + call);
//! 2. **regs** — register-window compaction: each function's window
//!    shrinks to the registers its fused body still touches.
//!
//! **The invariant both passes preserve:** optimized execution is
//! *observationally bit-identical* to unoptimized execution — the same
//! heap snapshots, the same [`grafter_runtime::Metrics`] (every
//! superinstruction charges exactly the instructions/loads/stores of the
//! pair it replaces), the same simulated cache traffic (same addresses
//! touched in the same order), and the same runtime errors. The
//! optimizer trades *dispatch overhead* — fewer `match` rounds, smaller
//! register windows — never counters. The differential suites
//! (`crates/vm/tests/opt_differential.rs`) assert `O0 == O2 == interp`
//! across every case-study workload.

use std::fmt;
use std::str::FromStr;

use crate::module::{CallInfo, Module, Op};

/// How hard [`optimize`] works on a lowered module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No optimization: execute exactly what [`crate::lower`] emitted.
    O0,
    /// Peephole superinstructions, then register-window compaction.
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
    /// Pass name (`peephole`, `regs`).
    pub pass: &'static str,
    /// Count before the pass ran, in `unit`s.
    pub before: usize,
    /// Count after the pass ran, in `unit`s.
    pub after: usize,
    /// What `before`/`after` count (`op`, `reg`).
    pub unit: &'static str,
    /// How many sites the pass rewrote.
    pub rewrites: usize,
    /// What a rewrite did (`fused`, `shrunk`).
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
    let passes = vec![timed(module, peephole_pass), timed(module, regs_pass)];
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

/// Per-op register liveness of one function body, from a standard
/// backward dataflow fixpoint over the op-level control-flow graph.
///
/// One edge kills registers: a [`Op::SkipInactive`]'s argument window is
/// dead on its skip edge, since a call copies only active parts'
/// arguments. Without that, the call's reads would keep every argument
/// register live back to the function entry.
struct Liveness {
    entry: u32,
    words: usize,
    /// `live_out[pc - entry]`: registers read on some path after `pc`.
    live_out: Vec<Vec<u64>>,
}

impl Liveness {
    fn compute(ops: &[Op], calls: &[CallInfo], entry: u32, end: u32, total_regs: u16) -> Self {
        let n = (end - entry) as usize;
        let words = (total_regs as usize).div_ceil(64).max(1);
        let mut live_in = vec![vec![0u64; words]; n];
        let mut live_out = vec![vec![0u64; words]; n];
        let mut reads = Vec::new();
        let mut succs = Vec::new();
        let mut changed = true;
        while changed {
            changed = false;
            for pc in (entry..end).rev() {
                let i = (pc - entry) as usize;
                let op = &ops[pc as usize];
                succs.clear();
                successors(pc, op, &mut succs);
                let mut out = vec![0u64; words];
                // Joins successor `s`'s live-in, minus the registers the
                // edge kills.
                let mut join = |s: u32, kill: std::ops::Range<u16>| {
                    if (entry..end).contains(&s) {
                        let live = &live_in[(s - entry) as usize];
                        for (wi, (w, v)) in out.iter_mut().zip(live).enumerate() {
                            let killed = kill
                                .clone()
                                .filter(|&r| r as usize / 64 == wi)
                                .fold(0u64, |m, r| m | (1u64 << (r % 64)));
                            *w |= *v & !killed;
                        }
                    }
                };
                match *op {
                    Op::SkipInactive {
                        nargs,
                        args,
                        target,
                        ..
                    } => {
                        join(target, args..args + nargs as u16);
                        join(pc + 1, 0..0);
                    }
                    _ => succs.iter().for_each(|&s| join(s, 0..0)),
                }
                let mut inn = out.clone();
                if let Some(w) = reg_write(op) {
                    inn[w as usize / 64] &= !(1u64 << (w % 64));
                }
                reads.clear();
                reg_reads(op, calls, &mut reads);
                for &r in &reads {
                    inn[r as usize / 64] |= 1u64 << (r % 64);
                }
                if out != live_out[i] || inn != live_in[i] {
                    changed = true;
                    live_out[i] = out;
                    live_in[i] = inn;
                }
            }
        }
        Liveness {
            entry,
            words,
            live_out,
        }
    }

    /// Is `reg` read on some path after the op at `pc` executes?
    fn live_after(&self, pc: u32, reg: u16) -> bool {
        debug_assert!((reg as usize) < self.words * 64);
        self.live_out[(pc - self.entry) as usize][reg as usize / 64] & (1u64 << (reg % 64)) != 0
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
        // Second-round patterns: the kind-tag test `if (x.kind == K)`
        // fuses Const+Bin in round one, then ConstBin+Branch here.
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

/// Peephole fusion of adjacent op pairs into superinstructions, iterated
/// to a fixpoint (a round-one superinstruction can fuse again — e.g.
/// `Const+Bin` → `ConstBin`, then `ConstBin+Branch` → `ConstBinBranch`).
///
/// A pair fuses only when (a) the second op is not a jump target (control
/// could enter mid-pair) and (b) the register the pair communicates
/// through is dead afterwards, per the function's liveness solution. The
/// replacement charges exactly what the pair charged.
fn peephole_pass(module: &mut Module) -> PassStat {
    let before = module.ops.len();
    let mut rewrites = 0usize;
    loop {
        let round = peephole_round(module);
        rewrites += round;
        if round == 0 {
            break;
        }
    }
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

/// One scan-and-compact round of the peephole pass; returns the number
/// of pairs fused.
fn peephole_round(module: &mut Module) -> usize {
    let targets = jump_target_flags(module);
    let mut deleted = vec![false; module.ops.len()];
    let mut rewrites = 0usize;
    for fi in 0..module.funcs.len() {
        let (entry, end, total_regs) = {
            let f = &module.funcs[fi];
            (f.entry, f.end, f.total_regs)
        };
        let live = Liveness::compute(&module.ops, &module.calls, entry, end, total_regs);
        let mut pc = entry;
        while pc + 1 < end {
            if deleted[pc as usize] {
                pc += 1;
                continue;
            }
            if targets[(pc + 1) as usize] {
                pc += 1;
                continue;
            }
            let (a, b) = (module.ops[pc as usize], module.ops[(pc + 1) as usize]);
            if let Some(fused) = fuse_pair(a, b, |r| !live.live_after(pc + 1, r)) {
                module.ops[pc as usize] = fused;
                deleted[(pc + 1) as usize] = true;
                rewrites += 1;
                pc += 2;
            } else {
                pc += 1;
            }
        }
    }
    compact(module, &deleted);
    rewrites
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
