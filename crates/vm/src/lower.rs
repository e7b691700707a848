//! Lowering: compiles a [`FusedProgram`] into a flat bytecode [`Module`].
//!
//! This is the compile-once step that removes every per-visit lookup the
//! tree-walking interpreter performs:
//!
//! - each fused function's scheduled body flattens into one contiguous op
//!   range with resolved jump targets (guards, `if` branches, short
//!   circuits, per-traversal `return`s);
//! - fusion bookkeeping that lowering can decide leaves the bytecode: an
//!   interprocedural must-active analysis ([`must_active`]) folds every
//!   guard it proves true (the charge is prepaid per activation), and a
//!   truncated call part passes no placeholder arguments;
//! - locals get frame-relative **registers** (traversal frames
//!   concatenated, each at the [`Layouts`] local-frame offsets the
//!   interpreter uses too), and expressions compile to a register window
//!   above the locals;
//! - every data access resolves its member chain to a constant slot
//!   addend and every global to its [`Layouts`] global-frame index; the
//!   layouts, which the module keeps, map a field of the receiver's
//!   dynamic class to its slot with one table read;
//! - each dispatch stub becomes a jump table indexed by dynamic class id;
//! - literals are interned into a deduplicated constant pool.
//!
//! The lowering mirrors the interpreter's cost accounting exactly: ops
//! charge the same [`grafter_runtime::cost`] constants at the same
//! execution points, so `Metrics` (and simulated cache traffic) of the two
//! backends are bit-identical — see `tests/vm_differential.rs`.
//!
//! Operands are fixed-width (`u16` registers and pool indices, `u8`
//! argument counts). A program that does not fit is a [`LowerError`]
//! naming the exceeded limit, never a silently truncated operand.
//! Traversal copies per function fit by construction: fusion bounds them
//! at [`grafter::MAX_TRAVERSALS`].

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use grafter::{entry_flags, CallPart, FusedFn, FusedProgram, ScheduledItem, StubId};
use grafter_frontend::{
    BinOp, DataAccess, Expr, GlobalId, LocalId, MethodId, NodePath, Program, Stmt, Ty,
};
use grafter_runtime::ops::field_ty;
use grafter_runtime::{Layouts, Value};

use crate::module::{
    CallInfo, CallPartInfo, Co, FuncInfo, Module, Op, StubInfo, NO_CLONES, NO_TARGET,
};
use crate::opt::{optimize, OptReport, VmOptions};

/// Process-wide count of [`lower`] invocations.
///
/// Lowering is the expensive compile-once step of the VM tier; callers
/// that promise "compile once, run many" (the `Engine` API) assert
/// against this counter in tests.
static LOWERINGS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of times [`lower`] has run in this process.
pub fn lowering_count() -> u64 {
    LOWERINGS.load(std::sync::atomic::Ordering::Relaxed)
}

/// A program too large for the bytecode's fixed-width operands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerError {
    /// The exceeded limit (`constant pool`, `register number`, ...).
    pub limit: &'static str,
    /// The index or count that does not fit.
    pub value: usize,
    /// The largest value the bytecode encodes for this limit.
    pub max: usize,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program exceeds a VM bytecode limit: {} reaches {}, the bytecode encodes at most {}",
            self.limit, self.value, self.max
        )
    }
}

impl std::error::Error for LowerError {}

impl From<LowerError> for grafter::Error {
    fn from(e: LowerError) -> Self {
        grafter::Error::from_diag(
            grafter::Diag::error_global(grafter::Stage::Lower, e.to_string()),
            "",
        )
    }
}

/// Lowers a fused program into an executable bytecode [`Module`] with
/// the default [`VmOptions`] (full optimization, [`crate::OptLevel::O2`]).
///
/// # Panics
///
/// Panics when the program exceeds a bytecode limit; [`try_lower_with`]
/// returns the [`LowerError`] instead.
pub fn lower(fp: &FusedProgram) -> Module {
    lower_with(fp, &VmOptions::default())
}

/// Lowers a fused program and optimizes the module per `opts`.
///
/// Whatever the level, the module's observable behaviour — heap effects,
/// [`grafter_runtime::Metrics`], simulated cache traffic, runtime errors
/// — is bit-identical to `O0` and to the interpreter; optimization only
/// sheds dispatch overhead (see [`crate::opt`]).
///
/// # Panics
///
/// Panics when the program exceeds a bytecode limit; [`try_lower_with`]
/// returns the [`LowerError`] instead.
pub fn lower_with(fp: &FusedProgram, opts: &VmOptions) -> Module {
    try_lower_with(fp, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`lower_with`], failing with the exceeded limit when the program does
/// not fit the bytecode's fixed-width operands.
///
/// # Errors
///
/// Returns a [`LowerError`] naming the first limit the program exceeds.
pub fn try_lower_with(fp: &FusedProgram, opts: &VmOptions) -> Result<Module, LowerError> {
    LOWERINGS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let program = &fp.program;
    // The module keeps these layouts; an engine's session heaps share
    // them. Global indices and registers are their frame offsets, the
    // interpreter's too, so they correspond across tiers by construction.
    let layouts = Arc::new(Layouts::new(program));

    let mut lo = Lowerer {
        program,
        layouts: &layouts,
        ops: Vec::new(),
        consts: Vec::new(),
        const_keys: HashMap::new(),
        paths: Vec::new(),
        path_keys: HashMap::new(),
        calls: Vec::new(),
        frame_bases: Vec::new(),
        scratch_base: 0,
        max_reg: 0,
        multi: false,
        known: 0,
        item_fixups: Vec::new(),
        overflow: None,
    };

    let known = must_active(fp);
    let mut funcs = Vec::with_capacity(fp.functions.len());
    for (f, &k) in fp.functions.iter().zip(&known) {
        funcs.push(lo.lower_fn(fp, f, k));
    }
    let entries = fp
        .entries
        .iter()
        .map(|&StubId(i)| lo.fit(i as usize, "stub id"))
        .collect();
    if let Some(e) = lo.overflow {
        return Err(e);
    }

    let stubs = fp
        .stubs
        .iter()
        .map(|s| {
            let mut targets = vec![NO_TARGET; program.classes.len()];
            for &(class, fid) in &s.targets {
                targets[class.index()] = fid.0;
            }
            StubInfo {
                n_parts: s.slots.len() as u8,
                targets: targets.into_boxed_slice(),
                name: s.name.clone(),
            }
        })
        .collect();

    let mut module = Module {
        ops: lo.ops,
        funcs,
        stubs,
        calls: lo.calls,
        consts: lo.consts,
        paths: lo.paths,
        layouts,
        pure_names: program.pures.iter().map(|p| p.name.clone()).collect(),
        entries,
        opt: OptReport::none(),
        clone_table: Vec::new(),
        clone_of: Vec::new(),
    };
    module.opt = optimize(&mut module, opts.opt_level);
    Ok(module)
}

/// Whether `stmt` may `return` (a `return` nested in an `if` counts).
fn may_return(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Return => true,
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => then_branch.iter().chain(else_branch).any(may_return),
        _ => false,
    }
}

/// Each item of `f`'s body with the must-active bits before it, when
/// `entry` are those of every activation: a bit stays known until the
/// first item of its traversal that may `return`.
fn known_before_items<'f>(
    fp: &'f FusedProgram,
    f: &'f FusedFn,
    entry: u64,
) -> impl Iterator<Item = (u64, &'f ScheduledItem)> {
    f.body.iter().scan(entry, move |known, item| {
        let before = *known;
        if let &ScheduledItem::Stmt { traversal, index } = item {
            if may_return(fp.stmt(f, traversal, index)) {
                *known &= !(1u64 << traversal);
            }
        }
        Some((before, item))
    })
}

/// The must-active analysis: per fused function, the flag bits set at
/// every activation.
///
/// It is the greatest fixpoint over the stub call graph, starting from
/// the flags [`crate::Vm::run`] enters with. Callee bit `i` is known when
/// part `i`'s traversal is known at the call item (see
/// [`known_before_items`]).
fn must_active(fp: &FusedProgram) -> Vec<u64> {
    // Every flag, the top of the lattice, until an activation narrows it.
    let mut known = vec![u64::MAX; fp.functions.len()];
    for &StubId(s) in &fp.entries {
        let stub = &fp.stubs[s as usize];
        let flags = entry_flags(stub.slots.len());
        for &(_, fid) in &stub.targets {
            known[fid.0 as usize] &= flags;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (fi, f) in fp.functions.iter().enumerate() {
            for (k, item) in known_before_items(fp, f, known[fi]) {
                let ScheduledItem::Call { stub, parts, .. } = item else {
                    continue;
                };
                let callee = parts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| k & (1u64 << p.traversal) != 0)
                    .fold(0u64, |m, (i, _)| m | (1u64 << i));
                for &(_, fid) in &fp.stubs[stub.0 as usize].targets {
                    let narrowed = known[fid.0 as usize] & callee;
                    if narrowed != known[fid.0 as usize] {
                        known[fid.0 as usize] = narrowed;
                        changed = true;
                    }
                }
            }
        }
    }
    known
}

/// Coercion tag of a declared type.
fn co_of(ty: Ty) -> Co {
    match ty {
        Ty::Int => Co::Int,
        Ty::Float => Co::Float,
        _ => Co::No,
    }
}

/// Jump-target placeholder patched once the target pc is known.
const PENDING: u32 = u32::MAX;

struct Lowerer<'p> {
    program: &'p Program,
    layouts: &'p Layouts,
    ops: Vec<Op>,
    consts: Vec<Value>,
    const_keys: HashMap<(u8, u64), u16>,
    paths: Vec<Box<[u32]>>,
    path_keys: HashMap<Vec<u32>, u16>,
    calls: Vec<CallInfo>,
    /// Per-traversal first register of the current function's frames.
    frame_bases: Vec<u16>,
    scratch_base: u16,
    max_reg: u16,
    multi: bool,
    /// Must-active flag bits before the current scheduled item.
    known: u64,
    /// Ops whose jump target is the end of the current scheduled item.
    item_fixups: Vec<usize>,
    /// The first operand that did not fit; lowering fails with it.
    overflow: Option<LowerError>,
}

impl Lowerer<'_> {
    // ---- operand limits --------------------------------------------------

    /// Narrows `value` to an operand type, recording the first value that
    /// does not fit (lowering then fails with it instead of truncating).
    fn fit<T: TryFrom<usize> + Default>(&mut self, value: usize, limit: &'static str) -> T {
        T::try_from(value).unwrap_or_else(|_| {
            self.overflow.get_or_insert(LowerError {
                limit,
                value,
                max: (1usize << (8 * std::mem::size_of::<T>())) - 1,
            });
            T::default()
        })
    }

    /// Register `base + offset`.
    fn reg(&mut self, base: u16, offset: usize) -> u16 {
        self.fit(base as usize + offset, "register number")
    }

    // ---- pools -----------------------------------------------------------

    fn intern_const(&mut self, v: Value) -> u16 {
        let key = match v {
            Value::Int(i) => (0u8, i as u64),
            Value::Float(f) => (1, f.to_bits()),
            Value::Bool(b) => (2, b as u64),
            Value::Ref(_) => unreachable!("no ref literals"),
        };
        if let Some(&i) = self.const_keys.get(&key) {
            return i;
        }
        let i = self.fit(self.consts.len(), "constant pool");
        self.consts.push(v);
        self.const_keys.insert(key, i);
        i
    }

    fn intern_path(&mut self, fields: &[u32]) -> u16 {
        if let Some(&i) = self.path_keys.get(fields) {
            return i;
        }
        let i = self.fit(self.paths.len(), "path pool");
        self.paths.push(fields.to_vec().into_boxed_slice());
        self.path_keys.insert(fields.to_vec(), i);
        i
    }

    fn node_path(&mut self, path: &NodePath) -> u16 {
        let fields: Vec<u32> = path.fields().map(|f| f.0).collect();
        self.intern_path(&fields)
    }

    // ---- emission helpers ------------------------------------------------

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump { target: t }
            | Op::Branch { target: t, .. }
            | Op::ShortCircuit { target: t, .. }
            | Op::Guard { target: t, .. }
            | Op::SkipInactive { target: t, .. }
            | Op::Deactivate { target: t, .. }
            | Op::Nav { null_target: t, .. } => *t = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn note(&mut self, reg: u16) {
        self.max_reg = self.max_reg.max(reg);
    }

    // ---- frame layout ----------------------------------------------------

    fn local_reg(
        &mut self,
        seq: &[MethodId],
        traversal: usize,
        local: LocalId,
        members: &[grafter_frontend::FieldId],
    ) -> u16 {
        let mut slot = self.layouts.local_offsets(seq[traversal])[local.index()] as usize;
        for m in members {
            slot += self.layouts.member_offset(*m);
        }
        self.reg(self.frame_bases[traversal], slot)
    }

    fn global_idx(&mut self, global: GlobalId, members: &[grafter_frontend::FieldId]) -> u16 {
        let mut idx = self.layouts.global_offset(global);
        for m in members {
            idx += self.layouts.member_offset(*m);
        }
        self.fit(idx, "global slot")
    }

    /// The static slot addend of a data chain's member suffix.
    fn chain_addend(&mut self, chain: &[grafter_frontend::FieldId]) -> u16 {
        let addend = chain[1..]
            .iter()
            .map(|m| self.layouts.member_offset(*m))
            .sum::<usize>();
        self.fit(addend, "member offset")
    }

    // ---- function lowering -----------------------------------------------

    /// Lowers one fused function whose activations all start with the
    /// must-active flags `known`.
    fn lower_fn(&mut self, fp: &FusedProgram, f: &FusedFn, known: u64) -> FuncInfo {
        let seq = &f.seq;
        self.multi = seq.len() > 1;
        self.frame_bases.clear();
        let mut cur = 0usize;
        let mut params: Vec<Box<[u16]>> = Vec::with_capacity(seq.len());
        let layouts = self.layouts;
        for &m in seq {
            let base = self.fit(cur, "register number");
            self.frame_bases.push(base);
            let method = &self.program.methods[m.index()];
            params.push(
                layouts
                    .local_offsets(m)
                    .iter()
                    .take(method.n_params)
                    .map(|&o| self.reg(base, o as usize))
                    .collect(),
            );
            cur += layouts.frame_size(m);
        }
        let frame_regs = self.fit(cur, "register number");
        self.scratch_base = frame_regs;
        self.max_reg = frame_regs;
        let entry = self.here();

        // Per item: whether its guard folded, and its `Deactivate`s.
        let mut folded = Vec::with_capacity(f.body.len());
        let mut deactivates: Vec<(usize, usize)> = Vec::new();
        for (i, (k, item)) in known_before_items(fp, f, known).enumerate() {
            self.item_fixups.clear();
            self.known = k;
            let mask = match item {
                ScheduledItem::Stmt { traversal, .. } => 1u64 << traversal,
                ScheduledItem::Call { parts, .. } => {
                    parts.iter().fold(0u64, |m, p| m | (1u64 << p.traversal))
                }
            };
            let fold = self.multi && mask & self.known != 0;
            folded.push(fold);
            if self.multi && !fold {
                let g = self.emit(Op::Guard {
                    mask,
                    target: PENDING,
                });
                self.item_fixups.push(g);
            }
            match item {
                &ScheduledItem::Stmt { traversal, index } => {
                    let start = self.ops.len();
                    self.stmt(seq, traversal, fp.stmt(f, traversal, index));
                    deactivates.extend(
                        (start..self.ops.len())
                            .filter(|&pc| matches!(self.ops[pc], Op::Deactivate { .. }))
                            .map(|pc| (pc, i)),
                    );
                }
                ScheduledItem::Call { stub, parts } => self.call_item(fp, f, *stub, parts),
            }
            let end = self.here();
            let fixups = std::mem::take(&mut self.item_fixups);
            for at in fixups {
                self.patch(at, end);
            }
        }
        self.emit(Op::Ret);

        // A `Deactivate` that leaves early refunds the prepaid guards of
        // the items after its own.
        let mut folded_after = vec![0u32; folded.len() + 1];
        for i in (0..folded.len()).rev() {
            folded_after[i] = folded_after[i + 1] + folded[i] as u32;
        }
        for (pc, item) in deactivates {
            if let Op::Deactivate { refund, .. } = &mut self.ops[pc] {
                *refund = folded_after[item + 1];
            }
        }

        FuncInfo {
            entry,
            end: self.here(),
            n_traversals: seq.len() as u8,
            folded: folded_after[0],
            frame_regs,
            total_regs: self.reg(self.max_reg, 1),
            params: params.into_boxed_slice(),
            name: f.name.clone(),
            clones: NO_CLONES,
        }
    }

    fn call_item(&mut self, fp: &FusedProgram, f: &FusedFn, stub: StubId, parts: &[CallPart]) {
        let child = self.scratch_base;
        self.note(child);
        let path = self.node_path(fp.receiver(f, parts));
        let nav = self.emit(Op::Nav {
            dst: child,
            path,
            null_target: PENDING,
        });
        self.item_fixups.push(nav);

        let argbase = self.reg(child, 1);
        let mut rel = 0usize;
        let mut infos = Vec::with_capacity(parts.len());
        for &part in parts {
            let args = &fp.call(f, part).args;
            let pbase = self.reg(argbase, rel);
            let nargs = self.fit(args.len(), "argument count");
            infos.push(CallPartInfo {
                traversal: part.traversal as u8,
                argbase: self.fit(rel, "register number"),
                nargs,
            });
            // A part whose traversal may be inactive skips its argument
            // evaluation; the call then passes it nothing.
            let maybe_inactive = self.multi && self.known & (1u64 << part.traversal) == 0;
            let skip = (maybe_inactive && nargs > 0).then(|| {
                self.emit(Op::SkipInactive {
                    traversal: part.traversal as u8,
                    nargs,
                    args: pbase,
                    target: PENDING,
                })
            });
            for (k, a) in args.iter().enumerate() {
                let dst = self.reg(pbase, k);
                self.expr(&f.seq, part.traversal, a, dst);
            }
            if let Some(skip) = skip {
                let after = self.here();
                self.patch(skip, after);
            }
            rel += args.len();
            let end = self.reg(pbase, args.len());
            self.note(end);
        }
        let call = self.fit(self.calls.len(), "call table");
        let stub = self.fit(stub.0 as usize, "stub id");
        self.calls.push(CallInfo {
            stub,
            charge_flags: self.multi,
            parts: infos.into_boxed_slice(),
        });
        self.emit(Op::Call {
            call,
            child,
            argbase,
        });
    }

    // ---- statements ------------------------------------------------------

    fn stmt(&mut self, seq: &[MethodId], traversal: usize, stmt: &Stmt) {
        let s0 = self.scratch_base;
        match stmt {
            Stmt::Traverse(_) => {
                unreachable!("traversing calls are scheduled as Call items")
            }
            Stmt::Assign { target, value } => {
                self.expr(seq, traversal, value, s0);
                self.write(seq, traversal, target, s0);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(seq, traversal, cond, s0);
                let b = self.emit(Op::Branch {
                    cond: s0,
                    target: PENDING,
                });
                for s in then_branch {
                    self.stmt(seq, traversal, s);
                }
                if else_branch.is_empty() {
                    let here = self.here();
                    self.patch(b, here);
                } else {
                    let over = self.emit(Op::Jump { target: PENDING });
                    let here = self.here();
                    self.patch(b, here);
                    for s in else_branch {
                        self.stmt(seq, traversal, s);
                    }
                    let after = self.here();
                    self.patch(over, after);
                }
            }
            Stmt::LocalDef { local, init } => {
                if let Some(init) = init {
                    self.expr(seq, traversal, init, s0);
                    let ty = self.program.methods[seq[traversal].index()].locals[local.index()].ty;
                    let dst = self.local_reg(seq, traversal, *local, &[]);
                    self.emit(Op::StoreLocal {
                        dst,
                        src: s0,
                        co: co_of(ty),
                    });
                }
            }
            Stmt::New { target, class } => {
                let (path, field) = self.parent_path(target);
                let class = self.fit(class.0 as usize, "class id");
                self.emit(Op::New { path, field, class });
            }
            Stmt::Delete { target } => {
                let (path, field) = self.parent_path(target);
                self.emit(Op::Delete { path, field });
            }
            Stmt::Return => {
                let d = self.emit(Op::Deactivate {
                    traversal: traversal as u8,
                    refund: 0,
                    target: PENDING,
                });
                self.item_fixups.push(d);
            }
            Stmt::PureStmt { pure, args } => {
                for (k, a) in args.iter().enumerate() {
                    let dst = self.reg(s0, k);
                    self.expr(seq, traversal, a, dst);
                }
                let sink = self.reg(s0, args.len());
                self.note(sink);
                let pure = self.fit(pure.0 as usize, "pure id");
                let n = self.fit(args.len(), "argument count");
                self.emit(Op::CallPure {
                    dst: sink,
                    pure,
                    base: s0,
                    n,
                    co: Co::No,
                });
            }
        }
    }

    /// Splits a topology target into (parent path, final child field).
    fn parent_path(&mut self, target: &NodePath) -> (u16, u32) {
        let last = target
            .steps
            .last()
            .expect("topology targets have a step")
            .field;
        let prefix: Vec<u32> = target.steps[..target.steps.len() - 1]
            .iter()
            .map(|s| s.field.0)
            .collect();
        (self.intern_path(&prefix), last.0)
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self, seq: &[MethodId], traversal: usize, e: &Expr, dst: u16) {
        self.note(dst);
        match e {
            Expr::Int(v) => {
                let c = self.intern_const(Value::Int(*v));
                self.emit(Op::Const { dst, c });
            }
            Expr::Float(v) => {
                let c = self.intern_const(Value::Float(*v));
                self.emit(Op::Const { dst, c });
            }
            Expr::Bool(v) => {
                let c = self.intern_const(Value::Bool(*v));
                self.emit(Op::Const { dst, c });
            }
            Expr::Read(access) => self.read(seq, traversal, access, dst),
            Expr::Unary(op, sub) => {
                self.expr(seq, traversal, sub, dst);
                self.emit(Op::Un {
                    op: *op,
                    dst,
                    src: dst,
                });
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                self.expr(seq, traversal, l, dst);
                let sc = self.emit(Op::ShortCircuit {
                    reg: dst,
                    jump_if: matches!(op, BinOp::Or),
                    target: PENDING,
                });
                self.expr(seq, traversal, r, dst);
                self.emit(Op::CastBool { reg: dst });
                let after = self.here();
                self.patch(sc, after);
            }
            Expr::Binary(op, l, r) => {
                let rhs = self.reg(dst, 1);
                self.expr(seq, traversal, l, dst);
                self.expr(seq, traversal, r, rhs);
                self.emit(Op::Bin {
                    op: *op,
                    dst,
                    a: dst,
                    b: rhs,
                });
            }
            Expr::PureCall(pure, args) => {
                for (k, a) in args.iter().enumerate() {
                    let arg = self.reg(dst, k);
                    self.expr(seq, traversal, a, arg);
                }
                let end = self.reg(dst, args.len());
                self.note(end);
                let co = co_of(self.program.pures[pure.index()].return_type);
                let pure = self.fit(pure.0 as usize, "pure id");
                let n = self.fit(args.len(), "argument count");
                self.emit(Op::CallPure {
                    dst,
                    pure,
                    base: dst,
                    n,
                    co,
                });
            }
        }
    }

    fn read(&mut self, seq: &[MethodId], traversal: usize, access: &DataAccess, dst: u16) {
        match access {
            DataAccess::OnTree { path, data } => {
                let p = self.node_path(path);
                let addend = self.chain_addend(data);
                self.emit(Op::ReadTree {
                    dst,
                    path: p,
                    field: data[0].0,
                    addend,
                });
            }
            DataAccess::Local { local, members } => {
                let src = self.local_reg(seq, traversal, *local, members);
                self.emit(Op::Mov { dst, src });
            }
            DataAccess::Global { global, members } => {
                let idx = self.global_idx(*global, members);
                self.emit(Op::ReadGlobal { dst, idx });
            }
        }
    }

    fn write(&mut self, seq: &[MethodId], traversal: usize, access: &DataAccess, src: u16) {
        match access {
            DataAccess::OnTree { path, data } => {
                let p = self.node_path(path);
                let addend = self.chain_addend(data);
                let co = co_of(field_ty(self.program, data));
                self.emit(Op::WriteTree {
                    src,
                    path: p,
                    field: data[0].0,
                    addend,
                    co,
                });
            }
            DataAccess::Local { local, members } => {
                let mut ty = self.program.methods[seq[traversal].index()].locals[local.index()].ty;
                for m in members {
                    ty = field_ty(self.program, &[*m]);
                }
                let dst = self.local_reg(seq, traversal, *local, members);
                self.emit(Op::StoreLocal {
                    dst,
                    src,
                    co: co_of(ty),
                });
            }
            DataAccess::Global { global, members } => {
                let mut ty = self.program.globals[global.index()].ty;
                for m in members {
                    ty = field_ty(self.program, &[*m]);
                }
                let idx = self.global_idx(*global, members);
                self.emit(Op::WriteGlobal {
                    src,
                    idx,
                    co: co_of(ty),
                });
            }
        }
    }
}
