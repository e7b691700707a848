//! The register-VM execution engine.
//!
//! [`Vm`] executes a lowered [`Module`] against the same
//! [`grafter_runtime::Heap`] the interpreter uses, with a single
//! `match`-dispatch loop over the module's contiguous op vector. One
//! activation = one register window on a shared register stack (no
//! per-call `Vec<Vec<Value>>` frames), dispatch is a jump-table index (no
//! `HashMap` probes), and pure functions are resolved to function pointers
//! once at construction.
//!
//! Cost accounting is bit-compatible with [`grafter_runtime::Interp`]:
//! the same [`cost`] constants are charged at the same execution points
//! and every field access touches the same simulated byte address, so
//! `Metrics` and cache statistics of the two backends are identical on
//! identical inputs.

use grafter_cachesim::CacheHierarchy;
use grafter_frontend::ClassId;
use grafter_obs::{ExecCounters, ExecProbe, NoProbe};
use grafter_runtime::ops::{binop, unop};
use grafter_runtime::{
    cost, global_addr, Heap, Layouts, Metrics, NativeFn, NodeId, PureRegistry, RuntimeError, Value,
    SLOT_BYTES,
};

use crate::module::{Module, Op, NO_TARGET};

type RResult<T> = Result<T, RuntimeError>;

/// Executes a lowered [`Module`] against a [`Heap`], collecting
/// [`Metrics`] and (optionally) driving a cache simulator — the VM
/// counterpart of [`grafter_runtime::Interp`].
pub struct Vm<'a> {
    module: &'a Module,
    /// The module's layouts, held here so a field access reads the slot
    /// table without a load through the module.
    layouts: &'a Layouts,
    /// Counters for the current run (reset with [`Metrics::reset`]).
    pub metrics: Metrics,
    /// Optional simulated memory hierarchy fed with every field access.
    pub cache: Option<CacheHierarchy>,
    /// Pure implementations resolved to function pointers by pure id.
    pures: Vec<Option<NativeFn>>,
    /// The flat global frame (see [`Layouts::global_offset`]).
    globals: Vec<Value>,
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
        let pures = module
            .pure_names
            .iter()
            .map(|name| pures.get(name))
            .collect();
        Vm {
            module,
            layouts: &module.layouts,
            metrics: Metrics::default(),
            cache: None,
            pures,
            globals: module.layouts.initial_globals().to_vec(),
            regs: Vec::new(),
        }
    }

    /// Attaches a cache hierarchy (all subsequent accesses are simulated).
    pub fn with_cache(mut self, cache: CacheHierarchy) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets a global variable by name before a run (`P.y` for a member
    /// of a struct global, see [`Layouts::global_slot_names`]).
    pub fn set_global(&mut self, name: &str, value: Value) -> Option<()> {
        self.globals[self.layouts.global_slot(name)?] = value;
        Some(())
    }

    /// Reads a global variable by name, as [`Vm::set_global`] names it.
    pub fn global(&self, name: &str) -> Option<Value> {
        Some(self.globals[self.layouts.global_slot(name)?])
    }

    /// The flat global frame, one value per slot of
    /// [`Layouts::global_slot_names`].
    pub fn globals(&self) -> &[Value] {
        &self.globals
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

    #[inline]
    fn touch(&mut self, addr: u64) {
        if let Some(cache) = &mut self.cache {
            cache.access(addr);
        }
    }

    /// Virtual dispatch through a stub jump table; charges the dispatch
    /// costs and counts the visit.
    fn dispatch(&mut self, heap: &Heap, stub: u16, node: NodeId) -> RResult<u32> {
        self.metrics.instructions += cost::DISPATCH;
        self.metrics.loads += 1;
        self.touch(heap.addr_of(node));
        let class = heap.class_of(node);
        let target = self.module.stubs[stub as usize].targets[class.index()];
        if target == NO_TARGET {
            return Err(RuntimeError::MissingTarget(
                self.layouts.class_name(class).to_string(),
            ));
        }
        self.metrics.visits += 1;
        Ok(target)
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

    /// Follows a pooled path, counting pointer loads; `None` if any step
    /// is null.
    fn navigate(&mut self, heap: &Heap, node: NodeId, path: u16) -> RResult<Option<NodeId>> {
        let (m, layouts) = (self.module, self.layouts);
        let mut cur = node;
        for &field in m.paths[path as usize].iter() {
            let class = heap.class_of(cur);
            let slot = layouts.slot_of_known(class, field);
            self.metrics.instructions += 1;
            self.metrics.loads += 1;
            self.touch(heap.slot_addr(cur, slot));
            match heap.get(cur, slot) {
                Value::Ref(Some(c)) => cur = c,
                Value::Ref(None) => return Ok(None),
                _ => return Err(RuntimeError::NotARef),
            }
        }
        Ok(Some(cur))
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
                self.metrics.instructions += cost::FLAG_SHUFFLE;
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

    /// The dispatch loop: executes one activation of function `fidx`.
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
        if P::ENABLED {
            probe.enter_func(fidx as usize);
        }
        let (m, layouts) = (self.module, self.layouts);
        let f = &m.funcs[fidx as usize];
        // Prepay the guards lowering folded (see `FuncInfo`).
        self.metrics.instructions += f.folded as u64 * cost::GUARD;
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
                    self.metrics.instructions += 1;
                    self.regs[base + dst as usize] = self.regs[base + src as usize];
                }
                Op::StoreLocal { dst, src, co } => {
                    self.metrics.instructions += 1;
                    self.regs[base + dst as usize] = co.apply(self.regs[base + src as usize]);
                }
                Op::Un { op, dst, src } => {
                    self.metrics.instructions += 1;
                    let v = self.regs[base + src as usize];
                    self.regs[base + dst as usize] = unop(op, v);
                }
                Op::Bin { op, dst, a, b } => {
                    self.metrics.instructions += 1;
                    let (l, r) = (self.regs[base + a as usize], self.regs[base + b as usize]);
                    self.regs[base + dst as usize] = binop(op, l, r);
                }
                Op::Jump { target } => pc = target as usize,
                Op::Branch { cond, target } => {
                    self.metrics.instructions += 1;
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
                    self.metrics.instructions += 1;
                    if b == jump_if {
                        pc = target as usize;
                    }
                }
                Op::CastBool { reg } => {
                    let b = self.regs[base + reg as usize].as_bool();
                    self.regs[base + reg as usize] = Value::Bool(b);
                }
                Op::Guard { mask, target } => {
                    self.metrics.instructions += cost::GUARD;
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
                        self.metrics.instructions -= refund as u64 * cost::GUARD;
                        return Ok(());
                    }
                    pc = target as usize;
                }
                Op::Ret => return Ok(()),
                Op::ReadTree {
                    dst,
                    path,
                    field,
                    addend,
                } => {
                    let Some(target) = self.navigate(heap, node, path)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(target);
                    let slot = layouts.slot_of_known(class, field) + addend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.loads += 1;
                    self.touch(heap.slot_addr(target, slot));
                    self.regs[base + dst as usize] = heap.get(target, slot);
                }
                Op::WriteTree {
                    src,
                    path,
                    field,
                    addend,
                    co,
                } => {
                    let Some(target) = self.navigate(heap, node, path)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(target);
                    let slot = layouts.slot_of_known(class, field) + addend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.stores += 1;
                    self.touch(heap.slot_addr(target, slot));
                    heap.set(target, slot, co.apply(self.regs[base + src as usize]));
                }
                Op::ReadGlobal { dst, idx } => {
                    self.metrics.instructions += 1;
                    self.metrics.loads += 1;
                    self.touch(global_addr(idx as usize));
                    self.regs[base + dst as usize] = self.globals[idx as usize];
                }
                Op::WriteGlobal { src, idx, co } => {
                    self.metrics.instructions += 1;
                    self.metrics.stores += 1;
                    self.touch(global_addr(idx as usize));
                    self.globals[idx as usize] = co.apply(self.regs[base + src as usize]);
                }
                Op::Nav {
                    dst,
                    path,
                    null_target,
                } => match self.navigate(heap, node, path)? {
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
                Op::New { path, field, class } => {
                    if let Some(parent) = self.navigate(heap, node, path)? {
                        let class = ClassId(class as u32);
                        let fresh = heap.alloc(class);
                        self.metrics.instructions += cost::ALLOC;
                        // Constructor initialises the node: touch its lines.
                        let bytes = layouts.node_bytes(class);
                        let addr = heap.addr_of(fresh);
                        if let Some(cache) = &mut self.cache {
                            cache.access_range(addr, bytes);
                        }
                        self.metrics.stores += 1 + bytes / SLOT_BYTES;
                        let pclass = heap.class_of(parent);
                        let slot = layouts.slot_of_known(pclass, field);
                        self.touch(heap.slot_addr(parent, slot));
                        heap.set(parent, slot, Value::Ref(Some(fresh)));
                    }
                }
                Op::Delete { path, field } => {
                    if let Some(parent) = self.navigate(heap, node, path)? {
                        let pclass = heap.class_of(parent);
                        let slot = layouts.slot_of_known(pclass, field);
                        self.metrics.loads += 1;
                        self.touch(heap.slot_addr(parent, slot));
                        if let Value::Ref(Some(victim)) = heap.get(parent, slot) {
                            let freed = heap.delete_subtree(victim);
                            self.metrics.instructions += cost::FREE * freed as u64;
                        }
                        heap.set(parent, slot, Value::Ref(None));
                        self.metrics.stores += 1;
                    }
                }
                Op::CallPure {
                    dst,
                    pure,
                    base: abase,
                    n,
                    co,
                } => {
                    let Some(f) = self.pures[pure as usize] else {
                        return Err(RuntimeError::MissingPure(
                            m.pure_names[pure as usize].clone(),
                        ));
                    };
                    self.metrics.instructions += 1 + n as u64;
                    let lo = base + abase as usize;
                    let out = f(&self.regs[lo..lo + n as usize]);
                    self.regs[base + dst as usize] = co.apply(out);
                }

                // ---- optimizer-introduced ops --------------------------
                //
                // Each arm below replays the exact charge/touch sequence
                // of the op pair it replaced (see `crate::opt`): Metrics
                // and cache traffic stay bit-identical to `O0`.
                Op::ConstBin { op, dst, a, c } => {
                    self.metrics.instructions += 1;
                    let l = self.regs[base + a as usize];
                    self.regs[base + dst as usize] = binop(op, l, m.consts[c as usize]);
                }
                Op::LocBin { op, dst, a, src } => {
                    self.metrics.instructions += 2; // Mov + Bin
                    let (l, r) = (self.regs[base + a as usize], self.regs[base + src as usize]);
                    self.regs[base + dst as usize] = binop(op, l, r);
                }
                Op::TreeBin {
                    op,
                    dst,
                    a,
                    path,
                    field,
                    addend,
                } => {
                    let Some(target) = self.navigate(heap, node, path)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(target);
                    let slot = layouts.slot_of_known(class, field) + addend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.loads += 1;
                    self.touch(heap.slot_addr(target, slot));
                    let r = heap.get(target, slot);
                    self.metrics.instructions += 1; // the fused Bin
                    let l = self.regs[base + a as usize];
                    self.regs[base + dst as usize] = binop(op, l, r);
                }
                Op::GlobBin { op, dst, a, idx } => {
                    self.metrics.instructions += 1;
                    self.metrics.loads += 1;
                    self.touch(global_addr(idx as usize));
                    let r = self.globals[idx as usize];
                    self.metrics.instructions += 1; // the fused Bin
                    let l = self.regs[base + a as usize];
                    self.regs[base + dst as usize] = binop(op, l, r);
                }
                Op::ConstBinBranch { op, a, c, target } => {
                    self.metrics.instructions += 2; // Bin + Branch (Const free)
                    let l = self.regs[base + a as usize];
                    if !binop(op, l, m.consts[c as usize]).as_bool() {
                        pc = target as usize;
                    }
                }
                Op::LocBinBranch { op, a, src, target } => {
                    self.metrics.instructions += 3; // Mov + Bin + Branch
                    let (l, r) = (self.regs[base + a as usize], self.regs[base + src as usize]);
                    if !binop(op, l, r).as_bool() {
                        pc = target as usize;
                    }
                }
                Op::BinTree {
                    op,
                    a,
                    b,
                    path,
                    field,
                    addend,
                    co,
                } => {
                    self.metrics.instructions += 1; // the fused Bin
                    let (l, r) = (self.regs[base + a as usize], self.regs[base + b as usize]);
                    let v = binop(op, l, r);
                    let Some(target) = self.navigate(heap, node, path)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(target);
                    let slot = layouts.slot_of_known(class, field) + addend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.stores += 1;
                    self.touch(heap.slot_addr(target, slot));
                    heap.set(target, slot, co.apply(v));
                }
                Op::TreeLoc {
                    dst,
                    path,
                    field,
                    addend,
                    co,
                } => {
                    let Some(target) = self.navigate(heap, node, path)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(target);
                    let slot = layouts.slot_of_known(class, field) + addend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.loads += 1;
                    self.touch(heap.slot_addr(target, slot));
                    let v = heap.get(target, slot);
                    self.metrics.instructions += 1; // the fused StoreLocal
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
                    let Some(src) = self.navigate(heap, node, rpath)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(src);
                    let slot = layouts.slot_of_known(class, rfield.into()) + raddend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.loads += 1;
                    self.touch(heap.slot_addr(src, slot));
                    let v = heap.get(src, slot);
                    let Some(dst) = self.navigate(heap, node, wpath)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(dst);
                    let slot = layouts.slot_of_known(class, wfield.into()) + waddend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.stores += 1;
                    self.touch(heap.slot_addr(dst, slot));
                    heap.set(dst, slot, co.apply(v));
                }
                Op::ConstTree {
                    c,
                    path,
                    field,
                    addend,
                    co,
                } => {
                    let Some(target) = self.navigate(heap, node, path)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(target);
                    let slot = layouts.slot_of_known(class, field) + addend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.stores += 1;
                    self.touch(heap.slot_addr(target, slot));
                    heap.set(target, slot, co.apply(m.consts[c as usize]));
                }
                Op::ConstLoc { dst, c, co } => {
                    self.metrics.instructions += 1;
                    self.regs[base + dst as usize] = co.apply(m.consts[c as usize]);
                }
                Op::LocTree {
                    src,
                    path,
                    field,
                    addend,
                    co,
                } => {
                    self.metrics.instructions += 1; // the fused Mov
                    let v = self.regs[base + src as usize];
                    let Some(target) = self.navigate(heap, node, path)? else {
                        return Err(RuntimeError::NullDeref);
                    };
                    let class = heap.class_of(target);
                    let slot = layouts.slot_of_known(class, field) + addend as usize;
                    self.metrics.instructions += 1;
                    self.metrics.stores += 1;
                    self.touch(heap.slot_addr(target, slot));
                    heap.set(target, slot, co.apply(v));
                }
                Op::LocLoc { dst, src, co } => {
                    self.metrics.instructions += 2; // Mov + StoreLocal
                    self.regs[base + dst as usize] = co.apply(self.regs[base + src as usize]);
                }
                Op::NavCall {
                    call,
                    path,
                    argbase,
                    null_target,
                } => {
                    match self.navigate(heap, node, path)? {
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
