//! The lowered bytecode representation: a flat, arena-style module.
//!
//! A [`Module`] is what [`crate::lower`] produces from a
//! [`grafter::FusedProgram`]: every fused function's scheduled body becomes
//! a contiguous range of [`Op`]s in one shared `Vec`, every name lookup the
//! interpreter performs at runtime is resolved to a dense index here —
//!
//! - **registers** replace the interpreter's per-traversal local frames
//!   (one contiguous register window per activation, each traversal's
//!   locals at their [`Layouts`] local-frame offsets, expression scratch
//!   above the locals);
//! - **global accesses** carry their slot in the [`Layouts`] global
//!   frame, the frame both tiers start each run from;
//! - **field accesses** carry their field id and static member addend; at
//!   run time one read of the program's [`Layouts`] slot table (which the
//!   module shares with the heaps it runs on) yields the slot;
//! - **dispatch stubs** become per-stub jump tables indexed by the
//!   receiver's dynamic [`ClassId`], replacing the interpreter's linear
//!   `target_for` scan;
//! - **constants** are interned into a deduplicated pool at lowering time;
//! - **entry-mask clones** (made by [`crate::opt`]'s `specialize` pass)
//!   follow the functions lowered from the fused program, ops and
//!   metadata alike; a function with clones has a table from entry mask
//!   to the function an activation entered with that mask runs.
//!
//! The module is inert data: [`crate::Vm`] executes it against a
//! [`grafter_runtime::Heap`]. [`Module::disassemble`] pretty-prints the
//! whole thing (the `grafterc --emit bytecode` output).

use std::fmt::Write as _;
use std::sync::Arc;

use grafter_frontend::{BinOp, ClassId, FieldId, UnOp};
use grafter_runtime::{Layouts, Value};

/// Coercion applied when a value is stored into a typed location
/// (C++-style implicit int<->float conversion, resolved at lowering time
/// from the declared type of the target).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Co {
    /// Store as-is.
    No,
    /// Truncate floats to int.
    Int,
    /// Promote ints to float.
    Float,
}

impl Co {
    /// Applies the coercion.
    #[inline]
    pub fn apply(self, v: Value) -> Value {
        match (self, v) {
            (Co::Int, Value::Float(f)) => Value::Int(f as i64),
            (Co::Float, Value::Int(i)) => Value::Float(i as f64),
            _ => v,
        }
    }
}

/// One bytecode instruction.
///
/// Register operands are indices into the current activation's register
/// window; `target` operands are absolute program counters within the
/// module's op vector. Pool operands (`path`, `call`, `c`) index the
/// module's side tables.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `r[dst] ← consts[c]` (free: literals cost nothing in the
    /// instruction model).
    Const { dst: u16, c: u16 },
    /// `r[dst] ← r[src]`, charging one instruction (a local-variable read).
    Mov { dst: u16, src: u16 },
    /// `r[dst] ← co(r[src])`, charging one instruction (a local write).
    StoreLocal { dst: u16, src: u16, co: Co },
    /// `r[dst] ← op r[src]`, charging one instruction.
    Un { op: UnOp, dst: u16, src: u16 },
    /// `r[dst] ← r[a] op r[b]`, charging one instruction.
    Bin { op: BinOp, dst: u16, a: u16, b: u16 },
    /// Unconditional jump (free — the interpreter charges the `if` branch
    /// once, on [`Op::Branch`]).
    Jump { target: u32 },
    /// `if` branch: charge one instruction, jump when `r[cond]` is false.
    Branch { cond: u16, target: u32 },
    /// Short-circuit point of `&&`/`||`: normalise `r[reg]` to its boolean,
    /// charge one instruction, and jump when the lhs alone decides the
    /// result (`jump_if` = false for `&&`, true for `||`).
    ShortCircuit {
        reg: u16,
        jump_if: bool,
        target: u32,
    },
    /// Normalise `r[reg]` to `Bool` after a short-circuit rhs (free).
    CastBool { reg: u16 },
    /// Active-flags guard of one scheduled item in a multi-traversal
    /// function: charge [`grafter_runtime::cost::GUARD`], skip the item
    /// when no guarded traversal is active.
    ///
    /// Lowering emits a guard only when it cannot decide it: an item whose
    /// mask meets the function's must-active set gets none, and its charge
    /// is prepaid with the function's folded-guard total on entry.
    Guard { mask: u64, target: u32 },
    /// Skip argument evaluation of an inactive call part (free). Lowering
    /// emits none for a part whose traversal is known active.
    ///
    /// `r[args..args + nargs]` is the part's argument window. A skipped
    /// part passes nothing (a call copies only active parts' arguments),
    /// so the window is dead on the skip edge.
    SkipInactive {
        traversal: u8,
        nargs: u8,
        args: u16,
        target: u32,
    },
    /// `return` of traversal copy `traversal`: clear its active bit; leave
    /// the function when none remain, otherwise skip to the next item.
    ///
    /// Leaving early refunds `refund` folded guards: those of the items
    /// after this one, which the activation prepaid but never reaches.
    Deactivate {
        traversal: u8,
        refund: u32,
        target: u32,
    },
    /// End of a fused function's body.
    Ret,
    /// Navigate `paths[path]`, then read slot `field (+ addend)` of the
    /// target node into `r[dst]`. Null navigation is a `NullDeref` error.
    ReadTree {
        dst: u16,
        path: u16,
        field: u32,
        addend: u16,
    },
    /// Navigate and write `co(r[src])` into the target slot.
    WriteTree {
        src: u16,
        path: u16,
        field: u32,
        addend: u16,
        co: Co,
    },
    /// `r[dst] ← globals[idx]` (flattened global frame, fully resolved).
    ReadGlobal { dst: u16, idx: u16 },
    /// `globals[idx] ← co(r[src])`.
    WriteGlobal { src: u16, idx: u16, co: Co },
    /// Navigate a grouped call's receiver path into `r[dst]`; a null step
    /// skips the whole item (the traversal stops at this child).
    Nav {
        dst: u16,
        path: u16,
        null_target: u32,
    },
    /// Dispatch `calls[call]` on the child in `r[child]`, with evaluated
    /// arguments starting at `r[argbase]`.
    Call { call: u16, child: u16, argbase: u16 },
    /// `new`: navigate `paths[path]`, allocate `class` into slot `field`
    /// of the parent (no-op when the parent path is null).
    New { path: u16, field: u32, class: u16 },
    /// `delete`: navigate, free the subtree in slot `field`, null it.
    Delete { path: u16, field: u32 },
    /// Call pure `pure` with `n` arguments at `r[base..]`, result (after
    /// `co`) into `r[dst]`.
    CallPure {
        dst: u16,
        pure: u16,
        base: u16,
        n: u8,
        co: Co,
    },

    // ---- optimizer-introduced ops (see [`crate::opt`]) ----------------
    //
    // Every op below replaces a specific sequence of the base ops above
    // and charges *exactly* the instructions/loads/stores that sequence
    // charged, touching the same simulated addresses in the same order —
    // the optimizer trades dispatch overhead, never observable counters.
    /// Superinstruction `Const + Bin`: `r[dst] ← r[a] op consts[c]`.
    ConstBin { op: BinOp, dst: u16, a: u16, c: u16 },
    /// Superinstruction `Mov + Bin`: `r[dst] ← r[a] op r[src]`.
    LocBin {
        op: BinOp,
        dst: u16,
        a: u16,
        src: u16,
    },
    /// Superinstruction `ReadTree + Bin`:
    /// `r[dst] ← r[a] op [paths[path].field+addend]`.
    TreeBin {
        op: BinOp,
        dst: u16,
        a: u16,
        path: u16,
        field: u32,
        addend: u16,
    },
    /// Superinstruction `ReadGlobal + Bin`: `r[dst] ← r[a] op globals[idx]`.
    GlobBin {
        op: BinOp,
        dst: u16,
        a: u16,
        idx: u16,
    },
    /// Superinstruction `Const + Bin + Branch` (the kind-tag test
    /// `if (x.kind == K)`): evaluate `r[a] op consts[c]`, jump when false.
    ConstBinBranch {
        op: BinOp,
        a: u16,
        c: u16,
        target: u32,
    },
    /// Superinstruction `Mov + Bin + Branch`: evaluate `r[a] op r[src]`,
    /// jump when false.
    LocBinBranch {
        op: BinOp,
        a: u16,
        src: u16,
        target: u32,
    },
    /// Superinstruction `Mov + WriteTree` (store local to field):
    /// `[paths[path].field+addend] ← co(r[src])`.
    LocTree {
        src: u16,
        path: u16,
        field: u32,
        addend: u16,
        co: Co,
    },
    /// Superinstruction `Mov + StoreLocal` (local-to-local copy with
    /// coercion): `r[dst] ← co(r[src])`.
    LocLoc { dst: u16, src: u16, co: Co },
    /// Superinstruction `Bin + WriteTree` (store-field from accumulator):
    /// `[paths[path].field+addend] ← co(r[a] op r[b])`.
    BinTree {
        op: BinOp,
        a: u16,
        b: u16,
        path: u16,
        field: u32,
        addend: u16,
        co: Co,
    },
    /// Superinstruction `ReadTree + StoreLocal` (load-field + coerce):
    /// `r[dst] ← co([paths[path].field+addend])`.
    TreeLoc {
        dst: u16,
        path: u16,
        field: u32,
        addend: u16,
        co: Co,
    },
    /// Superinstruction `ReadTree + WriteTree` (tree-to-tree field copy):
    /// `[paths[wpath].wfield+waddend] ← co([paths[rpath].rfield+raddend])`.
    /// Field ids are narrowed to `u16` to keep the op slot small; the
    /// optimizer only emits this when both ids fit.
    TreeTree {
        rpath: u16,
        rfield: u16,
        raddend: u16,
        wpath: u16,
        wfield: u16,
        waddend: u16,
        co: Co,
    },
    /// Superinstruction `Const + WriteTree`:
    /// `[paths[path].field+addend] ← co(consts[c])`.
    ConstTree {
        c: u16,
        path: u16,
        field: u32,
        addend: u16,
        co: Co,
    },
    /// Superinstruction `Const + StoreLocal`: `r[dst] ← co(consts[c])`.
    ConstLoc { dst: u16, c: u16, co: Co },
    /// Superinstruction `Nav + Call` (argument-less grouped call, the
    /// hottest pair in every workload): navigate the receiver path and
    /// dispatch in one op, skipping the intermediate child register. A
    /// null step skips the item exactly like [`Op::Nav`].
    NavCall {
        call: u16,
        path: u16,
        argbase: u16,
        null_target: u32,
    },
}

impl Op {
    /// Disassembly mnemonic of this op (the first column of
    /// [`Module::disassemble`] output), used as the histogram key in
    /// probed-run profiles.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Const { .. } => "const",
            Op::Mov { .. } => "mov",
            Op::StoreLocal { .. } => "stloc",
            Op::Un { .. } => "un",
            Op::Bin { .. } => "bin",
            Op::Jump { .. } => "jump",
            Op::Branch { .. } => "brfalse",
            Op::ShortCircuit { jump_if: false, .. } => "scand",
            Op::ShortCircuit { jump_if: true, .. } => "scor",
            Op::CastBool { .. } => "bool",
            Op::Guard { .. } => "guard",
            Op::SkipInactive { .. } => "skipoff",
            Op::Deactivate { .. } => "retrav",
            Op::Ret => "ret",
            Op::ReadTree { .. } => "rdtree",
            Op::WriteTree { .. } => "wrtree",
            Op::ReadGlobal { .. } => "rdglob",
            Op::WriteGlobal { .. } => "wrglob",
            Op::Nav { .. } => "nav",
            Op::Call { .. } => "call",
            Op::New { .. } => "new",
            Op::Delete { .. } => "delete",
            Op::CallPure { .. } => "pure",
            Op::ConstBin { .. } => "bin.c",
            Op::LocBin { .. } => "bin.l",
            Op::TreeBin { .. } => "bin.t",
            Op::GlobBin { .. } => "bin.g",
            Op::ConstBinBranch { .. } => "cmpbr.c",
            Op::LocBinBranch { .. } => "cmpbr.l",
            Op::LocTree { .. } => "wrtree.l",
            Op::LocLoc { .. } => "stloc.l",
            Op::BinTree { .. } => "wrtree.b",
            Op::TreeLoc { .. } => "stloc.t",
            Op::TreeTree { .. } => "cptree",
            Op::ConstTree { .. } => "wrtree.c",
            Op::ConstLoc { .. } => "stloc.c",
            Op::NavCall { .. } => "navcall",
        }
    }

    /// What fires of this op are spent on: the three-way split that probed
    /// runs report (`grafterc --profile`, `vm_compare`).
    pub fn kind(self) -> OpKind {
        match self {
            Op::Guard { .. } | Op::SkipInactive { .. } => OpKind::Bookkeeping,
            Op::Nav { .. }
            | Op::Call { .. }
            | Op::NavCall { .. }
            | Op::Ret
            | Op::Deactivate { .. } => OpKind::CallReturn,
            _ => OpKind::Body,
        }
    }

    /// Whether the op is an optimizer-introduced superinstruction rather
    /// than a base op the lowering pass emits.
    pub fn is_superinstruction(self) -> bool {
        matches!(
            self,
            Op::ConstBin { .. }
                | Op::LocBin { .. }
                | Op::TreeBin { .. }
                | Op::GlobBin { .. }
                | Op::ConstBinBranch { .. }
                | Op::LocBinBranch { .. }
                | Op::LocTree { .. }
                | Op::LocLoc { .. }
                | Op::BinTree { .. }
                | Op::TreeLoc { .. }
                | Op::TreeTree { .. }
                | Op::ConstTree { .. }
                | Op::ConstLoc { .. }
                | Op::NavCall { .. }
        )
    }
}

/// What an op's fires pay for (see [`Op::kind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Fusion bookkeeping: active-flag guards and inactive-part skips.
    Bookkeeping,
    /// Navigation to a child, dispatch, and leaving an activation.
    CallReturn,
    /// The traversal bodies' own work.
    Body,
}

impl OpKind {
    /// Every kind, in report order.
    pub const ALL: [OpKind; 3] = [OpKind::Bookkeeping, OpKind::CallReturn, OpKind::Body];

    /// Report label of the kind.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Bookkeeping => "bookkeeping",
            OpKind::CallReturn => "call/return",
            OpKind::Body => "body",
        }
    }
}

/// Sentinel for an absent jump-table entry.
pub(crate) const NO_TARGET: u32 = u32::MAX;

/// Per-function metadata of the lowered module.
///
/// Every activation of a multi-traversal function pays one
/// [`grafter_runtime::cost::GUARD`] per scheduled item it reaches, as the
/// interpreter does. Lowering folds each guard the must-active analysis
/// decides, and a clone folds or drops more (see [`crate::opt`]); the
/// activation prepays those `folded` charges on entry, and a
/// [`Op::Deactivate`] that leaves early refunds the ones it skips.
#[derive(Clone, Debug)]
pub(crate) struct FuncInfo {
    /// First op of the body.
    pub entry: u32,
    /// One past the last op (for disassembly).
    pub end: u32,
    /// Number of fused traversal copies (`> 1` means items are guarded).
    pub n_traversals: u8,
    /// Guards lowering folded away; their charges are paid on entry.
    pub folded: u32,
    /// Registers holding locals (all traversal frames, concatenated).
    pub frame_regs: u16,
    /// Total register window (locals + expression scratch).
    pub total_regs: u16,
    /// Per traversal copy: frame-relative register of each parameter
    /// (empty for a clone, whose activations take its generic function's).
    pub params: Box<[Box<[u16]>]>,
    /// Generated name (mirrors the fused function's; empty for a clone,
    /// named by [`Module::func_name`]).
    pub name: String,
    /// Where this function's mask table starts in [`Module::clone_table`]
    /// ([`NO_CLONES`] when it has no clone): entry `mask` names the
    /// function an activation entered with `mask` runs. The table has
    /// `2^n_traversals` entries, one per mask.
    pub clones: u32,
}

/// [`FuncInfo::clones`] of a function without clones.
pub(crate) const NO_CLONES: u32 = u32::MAX;

/// A lowered dispatch stub: a jump table keyed by dynamic class id.
#[derive(Clone, Debug)]
pub(crate) struct StubInfo {
    /// Number of dispatch slots (= callee traversal copies / entry parts).
    pub n_parts: u8,
    /// Dense `ClassId → function index` table (`NO_TARGET` = unresolvable).
    pub targets: Box<[u32]>,
    /// Generated name (mirrors the stub's).
    pub name: String,
}

/// One part of a lowered grouped call.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CallPartInfo {
    /// Active-flag index in the *caller*.
    pub traversal: u8,
    /// Offset of the part's first argument from the call's `argbase`.
    pub argbase: u16,
    /// Number of arguments evaluated at the call site.
    pub nargs: u8,
}

/// A lowered grouped traversing call.
#[derive(Clone, Debug)]
pub(crate) struct CallInfo {
    /// The stub jump table to dispatch through.
    pub stub: u16,
    /// Whether the caller is multi-traversal (charges flag shuffling).
    pub charge_flags: bool,
    /// The grouped parts; part `i` drives callee flag bit `i`.
    pub parts: Box<[CallPartInfo]>,
}

/// A flat bytecode module lowered from a [`grafter::FusedProgram`].
///
/// Produced by [`crate::lower`]; executed by [`crate::Vm`]. All tables are
/// index-resolved at lowering time so execution performs no name lookups;
/// frames and names come from its [`Layouts`].
#[derive(Clone, Debug)]
pub struct Module {
    pub(crate) ops: Vec<Op>,
    pub(crate) funcs: Vec<FuncInfo>,
    pub(crate) stubs: Vec<StubInfo>,
    pub(crate) calls: Vec<CallInfo>,
    pub(crate) consts: Vec<Value>,
    /// Navigation paths as raw field-id sequences (casts are a
    /// compile-time fiction; navigation only follows child slots).
    pub(crate) paths: Vec<Box<[u32]>>,
    /// The program's slot layouts: field slots, node sizes for `new`,
    /// names, and the local and global frames registers and global
    /// indices in the ops are offsets into.
    pub(crate) layouts: Arc<Layouts>,
    /// Pure-function names by [`grafter_frontend::PureId`] index.
    pub(crate) pure_names: Vec<String>,
    /// Entry stubs, in invocation order (one for a fused sequence, one per
    /// traversal for the unfused baseline).
    pub(crate) entries: Vec<u16>,
    /// What the optimizer did to this module (level + per-pass deltas).
    pub(crate) opt: crate::opt::OptReport,
    /// The entry-mask tables of the functions that have clones (see
    /// [`FuncInfo::clones`]); empty below [`crate::OptLevel::O2`].
    pub(crate) clone_table: Vec<u32>,
    /// Per clone, in function order after the generic functions: the
    /// function it specialises and the entry mask its activations start
    /// with.
    pub(crate) clone_of: Vec<(u32, u64)>,
}

impl Module {
    /// Number of bytecode instructions across all functions, clones
    /// included.
    pub fn n_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of functions, clones included (the per-function counters of
    /// a probed run are sized by it).
    pub fn n_functions(&self) -> usize {
        self.funcs.len()
    }

    /// Number of functions and of ops lowered from the fused program: the
    /// clones and their ops follow them.
    fn generic_size(&self) -> (usize, usize) {
        let fns = self.funcs.len() - self.clone_of.len();
        let ops = self
            .funcs
            .get(fns)
            .map_or(self.ops.len(), |c| c.entry as usize);
        (fns, ops)
    }

    /// The generic function and entry mask of function `fidx`, when it is
    /// a clone.
    fn clone_source(&self, fidx: usize) -> Option<(u32, u64)> {
        let (generic, _) = self.generic_size();
        fidx.checked_sub(generic).map(|c| self.clone_of[c])
    }

    /// Display name of function `fidx`: a clone reads `<fn>@<mask>`, its
    /// generic function's name and its entry mask.
    pub(crate) fn func_name(&self, fidx: usize) -> String {
        match self.clone_source(fidx) {
            Some((g, mask)) => format!("{}@{mask:#b}", self.funcs[g as usize].name),
            None => self.funcs[fidx].name.clone(),
        }
    }

    /// The function an activation of `fidx` entered with `flags` runs: its
    /// clone for that entry mask, or `fidx` itself. Entry flags only set
    /// bits of the function's copies, so they index its table.
    #[inline(always)]
    pub(crate) fn specialized(&self, fidx: u32, flags: u64) -> u32 {
        match self.funcs[fidx as usize].clones {
            NO_CLONES => fidx,
            start => self.clone_table[start as usize + flags as usize],
        }
    }

    /// Number of dispatch jump tables.
    pub fn n_stubs(&self) -> usize {
        self.stubs.len()
    }

    /// The optimization report recorded when this module was lowered:
    /// the [`crate::OptLevel`] plus one instruction-count delta per pass.
    pub fn opt_report(&self) -> &crate::opt::OptReport {
        &self.opt
    }

    /// Whether the module contains no executable function — its entry
    /// stubs dispatch to no concrete target, so every run is a no-op (or
    /// a `MissingTarget` error). Reachable by lowering a
    /// [`grafter::fuse_slots`] product whose slots resolve on no concrete
    /// subtype of the root; `grafterc --emit bytecode` warns on it.
    pub fn is_empty(&self) -> bool {
        self.funcs.is_empty()
    }

    /// Aggregates raw per-site [`grafter_obs::ExecCounters`] from a probed
    /// VM run into a named [`grafter_obs::TierProfile`]: per-function
    /// activation counts, per-basic-block entry counts (the pc-hit of each
    /// block's leader op), the per-mnemonic fire histogram with
    /// superinstructions flagged, and the fires totalled per [`OpKind`].
    pub fn profile(&self, counters: &grafter_obs::ExecCounters) -> grafter_obs::TierProfile {
        let mut p = grafter_obs::TierProfile::default();
        for i in 0..self.funcs.len() {
            let hits = counters.func_hits.get(i).copied().unwrap_or(0);
            if hits > 0 {
                p.func_hits.push((self.func_name(i), hits));
            }
        }
        let mut fires: std::collections::BTreeMap<&'static str, (u64, bool)> =
            std::collections::BTreeMap::new();
        let mut kinds = [0u64; OpKind::ALL.len()];
        for (pc, &op) in self.ops.iter().enumerate() {
            let n = counters.op_hits.get(pc).copied().unwrap_or(0);
            if n > 0 {
                let e = fires.entry(op.mnemonic()).or_insert((0, false));
                e.0 += n;
                e.1 = op.is_superinstruction();
                kinds[op.kind() as usize] += n;
            }
        }
        for (name, (n, is_super)) in fires {
            p.op_fires.push(grafter_obs::OpFire {
                name: name.to_string(),
                fires: n,
                superinstruction: is_super,
            });
        }
        p.op_kinds = OpKind::ALL
            .iter()
            .map(|&k| (k.label().to_string(), kinds[k as usize]))
            .collect();
        for i in 0..self.funcs.len() {
            for (bi, &(start, _)) in basic_blocks(self, i).iter().enumerate() {
                let hits = counters.op_hits.get(start as usize).copied().unwrap_or(0);
                if hits > 0 {
                    p.block_hits
                        .push((format!("{}/b{bi}", self.func_name(i)), hits));
                }
            }
        }
        p
    }

    /// The slot layouts lowering resolved the module against (node
    /// slots, global and local frames); heaps that share this `Arc` (an
    /// engine's sessions) lay out no copy.
    pub fn layouts(&self) -> &Arc<Layouts> {
        &self.layouts
    }

    /// The module line both disassembly formats open with. It counts the
    /// functions and ops lowered from the fused program; the `specialize`
    /// pass line counts the clones' ops on top.
    fn write_header(&self, out: &mut String) {
        let (fns, ops) = self.generic_size();
        let _ = writeln!(
            out,
            "; grafter-vm module: {ops} op(s), {fns} function(s), {} stub(s), {} const(s)",
            self.stubs.len(),
            self.consts.len()
        );
    }

    /// The opening of function `fidx`'s header line, up to its traversal
    /// count: a clone's name carries its entry mask, and it names the
    /// function it specialises.
    fn fn_head(&self, fidx: usize) -> String {
        let of = match self.clone_source(fidx) {
            Some((g, _)) => format!("clone of fn {g}, "),
            None => String::new(),
        };
        let (name, n) = (self.func_name(fidx), self.funcs[fidx].n_traversals);
        format!("fn {fidx} {name} ({of}traversals={n}")
    }

    /// Pretty-prints the whole module: functions with addressed ops (the
    /// entry-mask clones after the functions they specialise), stub jump
    /// tables and the constant pool (the `--emit bytecode` format).
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        self.write_header(&mut out);
        let _ = writeln!(
            out,
            "; entries: {}",
            self.entries
                .iter()
                .map(|&s| self.stubs[s as usize].name.clone())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(out, "; opt: {}", self.opt.level);
        for p in &self.opt.passes {
            let _ = writeln!(
                out,
                ";   {:<9} {:>4} -> {:<4} {}(s) ({} {})",
                p.pass, p.before, p.after, p.unit, p.rewrites, p.action
            );
        }
        let (generic, _) = self.generic_size();
        for (i, f) in self.funcs.iter().enumerate() {
            if i == generic {
                let _ = writeln!(
                    out,
                    "\n; entry-mask clones: {} function(s), {} op(s)",
                    self.funcs.len() - generic,
                    self.ops.len() - f.entry as usize
                );
            }
            let _ = writeln!(
                out,
                "\n{}, folded-guards={}, locals=r0..r{}, scratch=r{}..r{})",
                self.fn_head(i),
                f.folded,
                f.frame_regs.saturating_sub(1),
                f.frame_regs,
                f.total_regs.saturating_sub(1),
            );
            for pc in f.entry..f.end {
                let _ = writeln!(out, "  {pc:04}  {}", self.render_op(self.ops[pc as usize]));
            }
        }
        self.write_stubs(&mut out);
        if !self.consts.is_empty() {
            let _ = writeln!(out, "\nconsts");
            for (i, c) in self.consts.iter().enumerate() {
                let _ = writeln!(out, "  #{i:<3} {c:?}");
            }
        }
        out
    }

    /// Pretty-prints the module grouped into basic blocks with CFG edges
    /// (the `--emit bytecode --disasm-blocks` format). The blocks are the
    /// ones [`Module::profile`] reports `block_hits` for.
    ///
    /// Each block line names the function-local block id, its pc range and
    /// its successor edges (`ret` marks an activation exit; `Deactivate`
    /// shows both its next-item edge and the final-traversal `ret`).
    pub fn disassemble_blocks(&self) -> String {
        let mut out = String::new();
        self.write_header(&mut out);
        let _ = writeln!(out, "; basic-block view: the CFG of each function");
        let _ = writeln!(out, "; opt: {}", self.opt.level);
        for (i, f) in self.funcs.iter().enumerate() {
            let blocks = basic_blocks(self, i);
            let _ = writeln!(out, "\n{}, {} block(s))", self.fn_head(i), blocks.len());
            let block_of = |pc: u32| {
                blocks
                    .binary_search_by_key(&pc, |&(s, _)| s)
                    .expect("edge lands on a block start")
            };
            for (bi, &(start, end)) in blocks.iter().enumerate() {
                let last = self.ops[(end - 1) as usize];
                let mut succ_pcs = Vec::new();
                crate::opt::successors(end - 1, &last, &mut succ_pcs);
                succ_pcs.retain(|&pc| pc < f.end);
                succ_pcs.dedup();
                let mut edges: Vec<String> = succ_pcs
                    .iter()
                    .map(|&pc| format!("b{}", block_of(pc)))
                    .collect();
                if matches!(last, Op::Ret | Op::Deactivate { .. }) {
                    edges.push("ret".to_string());
                }
                let _ = writeln!(
                    out,
                    "  b{bi}  {start:04}..{end:04}  -> {}",
                    edges.join(", ")
                );
                for pc in start..end {
                    let _ = writeln!(
                        out,
                        "    {pc:04}  {}",
                        self.render_op(self.ops[pc as usize])
                    );
                }
            }
        }
        self.write_stubs(&mut out);
        out
    }

    /// Appends each stub's jump table, one line per concrete target.
    fn write_stubs(&self, out: &mut String) {
        for (i, s) in self.stubs.iter().enumerate() {
            let _ = writeln!(out, "\nstub {i} {} (slots={})", s.name, s.n_parts);
            for (class, &t) in s.targets.iter().enumerate() {
                if t != NO_TARGET {
                    let class = self.layouts.class_name(ClassId(class as u32));
                    let _ = writeln!(
                        out,
                        "  {class:<16} -> fn {t} {}",
                        self.funcs[t as usize].name
                    );
                }
            }
        }
    }

    fn render_path(&self, path: u16) -> String {
        let mut s = "this".to_string();
        for &f in self.paths[path as usize].iter() {
            let _ = write!(s, "->{}", self.layouts.field_name(FieldId(f)));
        }
        s
    }

    /// Renders a tree slot operand as `path.field+addend`.
    fn render_slot(&self, path: u16, field: u32, addend: u16) -> String {
        let field = self.layouts.field_name(FieldId(field));
        let addend = if addend > 0 {
            format!("+{addend}")
        } else {
            String::new()
        };
        format!("{}.{field}{addend}", self.render_path(path))
    }

    fn render_op(&self, op: Op) -> String {
        match op {
            Op::Const { dst, c } => {
                format!("const    r{dst} <- #{c} ({:?})", self.consts[c as usize])
            }
            Op::Mov { dst, src } => format!("mov      r{dst} <- r{src}"),
            Op::StoreLocal { dst, src, co } => {
                format!("stloc    r{dst} <- {co:?}(r{src})")
            }
            Op::Un { op, dst, src } => format!("un       r{dst} <- {op:?} r{src}"),
            Op::Bin { op, dst, a, b } => {
                format!("bin      r{dst} <- r{a} {} r{b}", op.symbol())
            }
            Op::Jump { target } => format!("jump     -> {target:04}"),
            Op::Branch { cond, target } => format!("brfalse  r{cond} -> {target:04}"),
            Op::ShortCircuit {
                reg,
                jump_if,
                target,
            } => format!(
                "sc{}     r{reg} -> {target:04}",
                if jump_if { "or " } else { "and" }
            ),
            Op::CastBool { reg } => format!("bool     r{reg}"),
            Op::Guard { mask, target } => format!("guard    mask={mask:#b} else -> {target:04}"),
            Op::SkipInactive {
                traversal,
                nargs,
                args,
                target,
            } => format!("skipoff  t{traversal} args=r{args}..+{nargs} -> {target:04}"),
            Op::Deactivate {
                traversal,
                refund,
                target,
            } => format!("retrav   t{traversal} next -> {target:04} refund={refund}"),
            Op::Ret => "ret".to_string(),
            Op::ReadTree {
                dst,
                path,
                field,
                addend,
            } => format!(
                "rdtree   r{dst} <- [{}]",
                self.render_slot(path, field, addend)
            ),
            Op::WriteTree {
                src,
                path,
                field,
                addend,
                co,
            } => format!(
                "wrtree   [{}] <- {co:?}(r{src})",
                self.render_slot(path, field, addend)
            ),
            Op::ReadGlobal { dst, idx } => format!("rdglob   r{dst} <- g{idx}"),
            Op::WriteGlobal { src, idx, co } => format!("wrglob   g{idx} <- {co:?}(r{src})"),
            Op::Nav {
                dst,
                path,
                null_target,
            } => format!(
                "nav      r{dst} <- {} null-> {null_target:04}",
                self.render_path(path)
            ),
            Op::Call {
                call,
                child,
                argbase,
            } => {
                let info = &self.calls[call as usize];
                format!(
                    "call     {} child=r{child} args@r{argbase} parts={}",
                    self.stubs[info.stub as usize].name,
                    info.parts.len()
                )
            }
            Op::New { path, field, class } => format!(
                "new      [{}] <- {}",
                self.render_slot(path, field, 0),
                self.layouts.class_name(ClassId(class.into()))
            ),
            Op::Delete { path, field } => {
                format!("delete   [{}]", self.render_slot(path, field, 0))
            }
            Op::CallPure {
                dst,
                pure,
                base,
                n,
                co,
            } => format!(
                "pure     r{dst} <- {co:?}({}(r{base}..+{n}))",
                self.pure_names[pure as usize]
            ),
            Op::ConstBin { op, dst, a, c } => format!(
                "bin.c    r{dst} <- r{a} {} #{c} ({:?})",
                op.symbol(),
                self.consts[c as usize]
            ),
            Op::LocBin { op, dst, a, src } => {
                format!("bin.l    r{dst} <- r{a} {} r{src}", op.symbol())
            }
            Op::TreeBin {
                op,
                dst,
                a,
                path,
                field,
                addend,
            } => format!(
                "bin.t    r{dst} <- r{a} {} [{}]",
                op.symbol(),
                self.render_slot(path, field, addend)
            ),
            Op::GlobBin { op, dst, a, idx } => {
                format!("bin.g    r{dst} <- r{a} {} g{idx}", op.symbol())
            }
            Op::ConstBinBranch { op, a, c, target } => format!(
                "cmpbr.c  r{a} {} #{c} ({:?}) false-> {target:04}",
                op.symbol(),
                self.consts[c as usize]
            ),
            Op::LocBinBranch { op, a, src, target } => {
                format!("cmpbr.l  r{a} {} r{src} false-> {target:04}", op.symbol())
            }
            Op::LocTree {
                src,
                path,
                field,
                addend,
                co,
            } => format!(
                "wrtree.l [{}] <- {co:?}(r{src})",
                self.render_slot(path, field, addend)
            ),
            Op::LocLoc { dst, src, co } => format!("stloc.l  r{dst} <- {co:?}(r{src})"),
            Op::BinTree {
                op,
                a,
                b,
                path,
                field,
                addend,
                co,
            } => format!(
                "wrtree.b [{}] <- {co:?}(r{a} {} r{b})",
                self.render_slot(path, field, addend),
                op.symbol()
            ),
            Op::TreeLoc {
                dst,
                path,
                field,
                addend,
                co,
            } => format!(
                "stloc.t  r{dst} <- {co:?}([{}])",
                self.render_slot(path, field, addend)
            ),
            Op::TreeTree {
                rpath,
                rfield,
                raddend,
                wpath,
                wfield,
                waddend,
                co,
            } => format!(
                "cptree   [{}] <- {co:?}([{}])",
                self.render_slot(wpath, wfield.into(), waddend),
                self.render_slot(rpath, rfield.into(), raddend)
            ),
            Op::ConstTree {
                c,
                path,
                field,
                addend,
                co,
            } => format!(
                "wrtree.c [{}] <- {co:?}(#{c} {:?})",
                self.render_slot(path, field, addend),
                self.consts[c as usize]
            ),
            Op::ConstLoc { dst, c, co } => format!(
                "stloc.c  r{dst} <- {co:?}(#{c} {:?})",
                self.consts[c as usize]
            ),
            Op::NavCall {
                call,
                path,
                argbase,
                null_target,
            } => {
                let info = &self.calls[call as usize];
                format!(
                    "navcall  {} this={} args@r{argbase} parts={} null-> {null_target:04}",
                    self.stubs[info.stub as usize].name,
                    self.render_path(path),
                    info.parts.len()
                )
            }
        }
    }
}

/// Whether `op` ends a basic block (transfers or may transfer control).
fn is_block_terminator(op: &Op) -> bool {
    crate::opt::op_target(op).is_some() || matches!(op, Op::Ret)
}

/// The basic blocks of function `fidx`, as `(start, end)` pc ranges in
/// program order. Block boundaries are the function entry, every jump
/// target, and the op after every control transfer — the grouping
/// `grafterc --disasm-blocks` prints and [`Module::profile`] counts.
fn basic_blocks(module: &Module, fidx: usize) -> Vec<(u32, u32)> {
    let f = &module.funcs[fidx];
    let mut starts = vec![f.entry];
    for pc in f.entry..f.end {
        let op = &module.ops[pc as usize];
        if let Some(t) = crate::opt::op_target(op) {
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
