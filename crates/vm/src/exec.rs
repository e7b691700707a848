//! The register-VM execution engine.
//!
//! [`Vm`] executes a lowered [`Module`] against the same
//! [`grafter_runtime::Heap`] the interpreter uses, with a single
//! `match`-dispatch loop over the module's contiguous op vector. One
//! activation = one register window on a shared register stack (no
//! per-call `Vec<Vec<Value>>` frames), dispatch is a jump-table index (no
//! `HashMap` probes), and pure functions are called through a table
//! resolved once per engine. After stub dispatch, one read of the
//! callee's entry-mask table picks the clone an activation with those
//! flags runs (the generic body when there is none); the activation
//! still takes its generic function's frame and parameter registers,
//! which every clone shares.
//!
//! Cost accounting is bit-compatible with [`grafter_runtime::Interp`] by
//! construction: both tiers perform every memory access (dispatch header,
//! navigation, tree and global reads and writes, `new`, `delete`, pure
//! calls) through the shared [`Machine`], so loads, stores and simulated
//! cache traffic cannot diverge. Only the ALU, guard and flag-shuffle
//! charges are made here, at the points the interpreter makes them; the
//! guards a function's body left out are prepaid on entry and refunded
//! by a `retrav` that leaves early.

use std::sync::Arc;

use grafter_frontend::ClassId;
use grafter_obs::{ExecCounters, ExecProbe, NoProbe};
use grafter_runtime::ops::{binop, unop};
use grafter_runtime::{cost, Heap, Machine, NodeId, PureRegistry, RuntimeError, Value};

use crate::module::{Module, Op, NO_TARGET};

type RResult<T> = Result<T, RuntimeError>;

/// Executes a lowered [`Module`] against a [`Heap`] — the VM counterpart
/// of [`grafter_runtime::Interp`] — with a [`Machine`] metering every
/// access.
pub struct Vm<'a> {
    module: &'a Module,
    /// The run's meter: counters, simulated cache, global frame, pures.
    pub machine: Machine,
    /// Shared register stack; each activation owns one window.
    regs: Vec<Value>,
}

impl<'a> Vm<'a> {
    /// Creates a VM with the default math pures and no cache.
    pub fn new(module: &'a Module) -> Self {
        Vm::with_pures(module, PureRegistry::with_math())
    }

    /// Creates a VM with a custom pure-function registry (resolved to
    /// function pointers once, here).
    pub fn with_pures(module: &'a Module, pures: PureRegistry) -> Self {
        let pures = pures.resolve(module.pure_names.iter().map(String::as_str));
        let layouts = Arc::clone(&module.layouts);
        Vm::with_machine(module, Machine::new(layouts, pures))
    }

    /// Creates a VM metered by `machine`, whose layouts and pures are
    /// those of the module's program (an engine's shared ones).
    pub fn with_machine(module: &'a Module, machine: Machine) -> Self {
        Vm {
            module,
            machine,
            regs: Vec::new(),
        }
    }

    /// Reads a global variable by name (see [`Machine::global`]).
    pub fn global(&self, name: &str) -> Option<Value> {
        self.machine.global(name)
    }

    /// Runs the module's entry sequence on `root`.
    ///
    /// `args[i]` are the arguments of the `i`-th entry traversal, exactly
    /// as for [`grafter_runtime::Interp::run`].
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if execution dereferences a null child in
    /// a data access, calls an unregistered pure, or dispatch fails.
    pub fn run(&mut self, heap: &mut Heap, root: NodeId, args: &[Vec<Value>]) -> RResult<()> {
        // `NoProbe::ENABLED` is false, so every probe hook below
        // const-folds away: this is the uninstrumented dispatch loop.
        self.run_with(heap, root, args, &mut NoProbe)
    }

    /// Runs the module's entry sequence with a recording probe attached:
    /// `probe` (sized via [`ExecCounters::new`] from [`Module::n_functions`]
    /// and [`Module::n_ops`]) accumulates per-function activation and
    /// per-pc execution counts. `Metrics`, cache traffic and heap effects
    /// are bit-identical to [`Vm::run`] — the probe only adds counter
    /// increments.
    pub fn run_probed(
        &mut self,
        heap: &mut Heap,
        root: NodeId,
        args: &[Vec<Value>],
        probe: &mut ExecCounters,
    ) -> RResult<()> {
        self.run_with(heap, root, args, probe)
    }

    fn run_with<P: ExecProbe>(
        &mut self,
        heap: &mut Heap,
        root: NodeId,
        args: &[Vec<Value>],
        probe: &mut P,
    ) -> RResult<()> {
        let m = self.module;
        // Each entry takes the passes after those of the entries before it.
        let mut first = 0;
        for &entry in &m.entries {
            let n = m.stubs[entry as usize].n_parts as usize;
            let part_args = args.get(first..).unwrap_or(&[]);
            self.enter(heap, entry, root, grafter::entry_flags(n), part_args, probe)?;
            first += n;
        }
        Ok(())
    }

    /// Virtual dispatch through a stub jump table (see
    /// [`Machine::dispatch`]).
    fn dispatch(&mut self, heap: &Heap, stub: u16, node: NodeId) -> RResult<u32> {
        let targets = &self.module.stubs[stub as usize].targets;
        self.machine.dispatch(heap, node, |class| {
            let target = targets[class.index()];
            (target != NO_TARGET).then_some(target)
        })
    }

    /// Pushes a zeroed register window for function `fidx`.
    fn push_frame(&mut self, fidx: u32) -> usize {
        let base = self.regs.len();
        let total = self.module.funcs[fidx as usize].total_regs as usize;
        self.regs.resize(base + total, Value::Int(0));
        base
    }

    /// Entry-point dispatch: arguments arrive as caller-provided vectors
    /// (one per entry part), as in [`grafter_runtime::Interp::run`].
    fn enter<P: ExecProbe>(
        &mut self,
        heap: &mut Heap,
        stub: u16,
        node: NodeId,
        flags: u64,
        args: &[Vec<Value>],
        probe: &mut P,
    ) -> RResult<()> {
        let fidx = self.dispatch(heap, stub, node)?;
        let base = self.push_frame(fidx);
        let m = self.module;
        for (ti, params) in m.funcs[fidx as usize].params.iter().enumerate() {
            let a = args.get(ti).map(Vec::as_slice).unwrap_or(&[]);
            for (k, &preg) in params.iter().enumerate().take(a.len()) {
                self.regs[base + preg as usize] = a[k];
            }
        }
        let r = self.exec(heap, fidx, node, flags, base, probe);
        self.regs.truncate(base);
        r
    }

    /// Dispatches grouped call `calls[call]` on `child`: charges the flag
    /// shuffle, maps the caller's `active` flags onto the callee's parts,
    /// copies the active parts' arguments from `r[args..]` (an inactive
    /// part's window was skipped, and its callee frame stays zero) and
    /// runs the callee activation.
    ///
    /// Forced inline: left as a call out of the dispatch loop, it slowed
    /// perfbench `run` on render by about 5% (2-vCPU Xeon).
    #[inline(always)]
    fn call<P: ExecProbe>(
        &mut self,
        heap: &mut Heap,
        call: u16,
        child: NodeId,
        active: u64,
        args: usize,
        probe: &mut P,
    ) -> RResult<()> {
        let m = self.module;
        let info = &m.calls[call as usize];
        let mut call_flags = 0u64;
        for (i, part) in info.parts.iter().enumerate() {
            if info.charge_flags {
                self.machine.metrics.instructions += cost::FLAG_SHUFFLE;
            }
            if active & (1u64 << part.traversal) != 0 {
                call_flags |= 1u64 << i;
            }
        }
        let target = self.dispatch(heap, info.stub, child)?;
        let cbase = self.push_frame(target);
        for (i, part) in info.parts.iter().enumerate() {
            if call_flags & (1u64 << i) == 0 {
                continue;
            }
            let params = &m.funcs[target as usize].params[i];
            let from = args + part.argbase as usize;
            for (k, &preg) in params.iter().enumerate().take(part.nargs as usize) {
                self.regs[cbase + preg as usize] = self.regs[from + k];
            }
        }
        let r = self.exec(heap, target, child, call_flags, cbase, probe);
        self.regs.truncate(cbase);
        r
    }

    /// The dispatch loop: executes one activation of function `fidx`
    /// entered with `active`, running the function's clone for that entry
    /// mask when it has one. (Picking the clone here, once per activation
    /// and outside the loop, keeps `call`'s inlined copy in the loop
    /// small: picked in `call`, it slowed perfbench `run` on render and
    /// kdtree, which have no clone, by 3-4% on a 2-vCPU Xeon.)
    ///
    /// Generic over the probe so the uninstrumented instantiation
    /// (`P = NoProbe`, `P::ENABLED = false`) monomorphizes to exactly the
    /// pre-probe loop — both hooks below are behind `if P::ENABLED`.
    fn exec<P: ExecProbe>(
        &mut self,
        heap: &mut Heap,
        fidx: u32,
        node: NodeId,
        mut active: u64,
        base: usize,
        probe: &mut P,
    ) -> RResult<()> {
        let m = self.module;
        let fidx = m.specialized(fidx, active);
        if P::ENABLED {
            probe.enter_func(fidx as usize);
        }
        let path = |path: u16| m.paths[path as usize].iter().copied();
        let f = &m.funcs[fidx as usize];
        // Prepay the guards lowering folded (see `FuncInfo`).
        self.machine.metrics.instructions += f.folded as u64 * cost::GUARD;
        let mut pc = f.entry as usize;
        loop {
            if P::ENABLED {
                probe.exec_op(pc);
            }
            let op = m.ops[pc];
            pc += 1;
            match op {
                Op::Const { dst, c } => {
                    self.regs[base + dst as usize] = m.consts[c as usize];
                }
                Op::Mov { dst, src } => {
                    self.machine.metrics.instructions += 1;
                    self.regs[base + dst as usize] = self.regs[base + src as usize];
                }
                Op::StoreLocal { dst, src, co } => {
                    self.machine.metrics.instructions += 1;
                    self.regs[base + dst as usize] = co.apply(self.regs[base + src as usize]);
                }
                Op::Un { op, dst, src } => {
                    self.machine.metrics.instructions += 1;
                    let v = self.regs[base + src as usize];
                    self.regs[base + dst as usize] = unop(op, v);
                }
                Op::Bin { op, dst, a, b } => {
                    self.machine.metrics.instructions += 1;
                    let (l, r) = (self.regs[base + a as usize], self.regs[base + b as usize]);
                    self.regs[base + dst as usize] = binop(op, l, r);
                }
                Op::Jump { target } => pc = target as usize,
                Op::Branch { cond, target } => {
                    self.machine.metrics.instructions += 1;
                    if !self.regs[base + cond as usize].as_bool() {
                        pc = target as usize;
                    }
                }
                Op::ShortCircuit {
                    reg,
                    jump_if,
                    target,
                } => {
                    let b = self.regs[base + reg as usize].as_bool();
                    self.regs[base + reg as usize] = Value::Bool(b);
                    self.machine.metrics.instructions += 1;
                    if b == jump_if {
                        pc = target as usize;
                    }
                }
                Op::CastBool { reg } => {
                    let b = self.regs[base + reg as usize].as_bool();
                    self.regs[base + reg as usize] = Value::Bool(b);
                }
                Op::Guard { mask, target } => {
                    self.machine.metrics.instructions += cost::GUARD;
                    if active & mask == 0 {
                        pc = target as usize;
                    }
                }
                Op::SkipInactive {
                    traversal, target, ..
                } => {
                    if active & (1u64 << traversal) == 0 {
                        pc = target as usize;
                    }
                }
                Op::Deactivate {
                    traversal,
                    refund,
                    target,
                } => {
                    active &= !(1u64 << traversal);
                    if active == 0 {
                        self.machine.metrics.instructions -= refund as u64 * cost::GUARD;
                        return Ok(());
                    }
                    pc = target as usize;
                }
                Op::Ret => return Ok(()),
                Op::ReadTree {
                    dst,
                    path: p,
                    field,
                    addend,
                } => {
                    let v = self
                        .machine
                        .read_tree(heap, node, path(p), field, addend.into())?;
                    self.regs[base + dst as usize] = v;
                }
                Op::WriteTree {
                    src,
                    path: p,
                    field,
                    addend,
                    co,
                } => {
                    let v = co.apply(self.regs[base + src as usize]);
                    self.machine
                        .write_tree(heap, node, path(p), field, addend.into(), v)?;
                }
                Op::ReadGlobal { dst, idx } => {
                    self.regs[base + dst as usize] = self.machine.read_global(idx.into());
                }
                Op::WriteGlobal { src, idx, co } => {
                    let v = co.apply(self.regs[base + src as usize]);
                    self.machine.write_global(idx.into(), v);
                }
                Op::Nav {
                    dst,
                    path: p,
                    null_target,
                } => match self.machine.navigate(heap, node, path(p))? {
                    Some(child) => {
                        self.regs[base + dst as usize] = Value::Ref(Some(child));
                    }
                    None => pc = null_target as usize, // traversal stops here
                },
                Op::Call {
                    call,
                    child,
                    argbase,
                } => {
                    let Value::Ref(Some(child_node)) = self.regs[base + child as usize] else {
                        unreachable!("Nav always precedes Call with a live child")
                    };
                    self.call(
                        heap,
                        call,
                        child_node,
                        active,
                        base + argbase as usize,
                        probe,
                    )?;
                }
                Op::New {
                    path: p,
                    field,
                    class,
                } => {
                    let class = ClassId(class.into());
                    self.machine.new_node(heap, node, path(p), field, class)?;
                }
                Op::Delete { path: p, field } => {
                    self.machine.delete_node(heap, node, path(p), field)?;
                }
                Op::CallPure {
                    dst,
                    pure,
                    base: abase,
                    n,
                    co,
                } => {
                    let lo = base + abase as usize;
                    let args = &self.regs[lo..lo + n as usize];
                    let out = self.machine.call_pure(pure.into(), args)?;
                    self.regs[base + dst as usize] = co.apply(out);
                }

                // ---- optimizer-introduced ops --------------------------
                //
                // Each arm below replays the exact charge/touch sequence
                // of the op pair it replaced (see `crate::opt`): Metrics
                // and cache traffic stay bit-identical to `O0`.
                Op::ConstBin { op, dst, a, c } => {
                    self.machine.metrics.instructions += 1;
                    let l = self.regs[base + a as usize];
                    self.regs[base + dst as usize] = binop(op, l, m.consts[c as usize]);
                }
                Op::LocBin { op, dst, a, src } => {
                    self.machine.metrics.instructions += 2; // Mov + Bin
                    let (l, r) = (self.regs[base + a as usize], self.regs[base + src as usize]);
                    self.regs[base + dst as usize] = binop(op, l, r);
                }
                Op::TreeBin {
                    op,
                    dst,
                    a,
                    path: p,
                    field,
                    addend,
                } => {
                    let r = self
                        .machine
                        .read_tree(heap, node, path(p), field, addend.into())?;
                    self.machine.metrics.instructions += 1; // the fused Bin
                    let l = self.regs[base + a as usize];
                    self.regs[base + dst as usize] = binop(op, l, r);
                }
                Op::GlobBin { op, dst, a, idx } => {
                    let r = self.machine.read_global(idx.into());
                    self.machine.metrics.instructions += 1; // the fused Bin
                    let l = self.regs[base + a as usize];
                    self.regs[base + dst as usize] = binop(op, l, r);
                }
                Op::ConstBinBranch { op, a, c, target } => {
                    self.machine.metrics.instructions += 2; // Bin + Branch (Const free)
                    let l = self.regs[base + a as usize];
                    if !binop(op, l, m.consts[c as usize]).as_bool() {
                        pc = target as usize;
                    }
                }
                Op::LocBinBranch { op, a, src, target } => {
                    self.machine.metrics.instructions += 3; // Mov + Bin + Branch
                    let (l, r) = (self.regs[base + a as usize], self.regs[base + src as usize]);
                    if !binop(op, l, r).as_bool() {
                        pc = target as usize;
                    }
                }
                Op::BinTree {
                    op,
                    a,
                    b,
                    path: p,
                    field,
                    addend,
                    co,
                } => {
                    self.machine.metrics.instructions += 1; // the fused Bin
                    let (l, r) = (self.regs[base + a as usize], self.regs[base + b as usize]);
                    let v = co.apply(binop(op, l, r));
                    self.machine
                        .write_tree(heap, node, path(p), field, addend.into(), v)?;
                }
                Op::TreeLoc {
                    dst,
                    path: p,
                    field,
                    addend,
                    co,
                } => {
                    let v = self
                        .machine
                        .read_tree(heap, node, path(p), field, addend.into())?;
                    self.machine.metrics.instructions += 1; // the fused StoreLocal
                    self.regs[base + dst as usize] = co.apply(v);
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
                    let (rfield, raddend) = (rfield.into(), raddend.into());
                    let v = self
                        .machine
                        .read_tree(heap, node, path(rpath), rfield, raddend)?;
                    let (wfield, waddend) = (wfield.into(), waddend.into());
                    self.machine.write_tree(
                        heap,
                        node,
                        path(wpath),
                        wfield,
                        waddend,
                        co.apply(v),
                    )?;
                }
                Op::ConstTree {
                    c,
                    path: p,
                    field,
                    addend,
                    co,
                } => {
                    let v = co.apply(m.consts[c as usize]);
                    self.machine
                        .write_tree(heap, node, path(p), field, addend.into(), v)?;
                }
                Op::ConstLoc { dst, c, co } => {
                    self.machine.metrics.instructions += 1;
                    self.regs[base + dst as usize] = co.apply(m.consts[c as usize]);
                }
                Op::LocTree {
                    src,
                    path: p,
                    field,
                    addend,
                    co,
                } => {
                    self.machine.metrics.instructions += 1; // the fused Mov
                    let v = co.apply(self.regs[base + src as usize]);
                    self.machine
                        .write_tree(heap, node, path(p), field, addend.into(), v)?;
                }
                Op::LocLoc { dst, src, co } => {
                    self.machine.metrics.instructions += 2; // Mov + StoreLocal
                    self.regs[base + dst as usize] = co.apply(self.regs[base + src as usize]);
                }
                Op::NavCall {
                    call,
                    path: p,
                    argbase,
                    null_target,
                } => {
                    match self.machine.navigate(heap, node, path(p))? {
                        None => pc = null_target as usize, // traversal stops here
                        Some(child_node) => {
                            let args = base + argbase as usize;
                            self.call(heap, call, child_node, active, args, probe)?;
                        }
                    }
                }
            }
        }
    }
}
