//! The instrumented interpreter for fused programs.

use std::sync::Arc;

use grafter::{entry_flags, CallPart, FusedFn, FusedFnId, FusedProgram, ScheduledItem, StubId};
use grafter_frontend::{
    BinOp, DataAccess, Expr, FieldId, GlobalId, LocalId, MethodId, PathStep, Stmt, Ty,
};

use crate::heap::{Heap, Layouts, NodeId};
use crate::machine::{Machine, RuntimeError};
use crate::metrics::cost;
use crate::ops::{binop, coerce, field_ty};
use crate::pure::PureRegistry;
use crate::Value;

type RResult<T> = Result<T, RuntimeError>;

enum Flow {
    Continue,
    Returned,
}

/// Executes a [`FusedProgram`] against a [`Heap`], the recursive oracle
/// the VM is checked against; its [`Machine`] meters every access.
pub struct Interp<'a> {
    fp: &'a FusedProgram,
    /// The run's meter: counters, simulated cache, global frame, pures.
    pub machine: Machine,
    /// Per-class visit counters of a probed run, indexed by
    /// [`grafter_frontend::ClassId`]; `None` (an unprobed run) records
    /// nothing and costs one predicted branch per dispatch.
    class_visits: Option<Vec<u64>>,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter with the default math pures and no cache,
    /// laying out the program itself.
    pub fn new(fp: &'a FusedProgram) -> Self {
        let layouts = Arc::new(Layouts::new(&fp.program));
        let names = fp.program.pures.iter().map(|p| p.name.as_str());
        let pures = PureRegistry::with_math().resolve(names);
        Interp::with_machine(fp, Machine::new(layouts, pures))
    }

    /// Creates an interpreter metered by `machine`, whose layouts and
    /// pures are those of `fp.program` (an engine's shared ones).
    pub fn with_machine(fp: &'a FusedProgram, machine: Machine) -> Self {
        Interp {
            fp,
            machine,
            class_visits: None,
        }
    }

    /// Runs the fused program's entry sequence on `root`.
    ///
    /// `args[i]` are the arguments of the `i`-th entry traversal.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if execution dereferences a null child in
    /// a data access, calls an unregistered pure, or dispatch fails.
    pub fn run(&mut self, heap: &mut Heap, root: NodeId, args: &[Vec<Value>]) -> RResult<()> {
        let fp = self.fp;
        // Each entry takes the passes after those of the entries before it.
        let mut first = 0;
        for &entry in &fp.entries {
            let n = fp.stub(entry).slots.len();
            let part_args = (first..first + n)
                .map(|i| args.get(i).cloned().unwrap_or_default())
                .collect();
            self.call_stub(heap, entry, root, entry_flags(n), part_args)?;
            first += n;
        }
        Ok(())
    }

    /// [`Interp::run`], also returning the visits per dynamic receiver
    /// class (by class id); `Metrics` and cache traffic are unchanged.
    ///
    /// # Errors
    ///
    /// As [`Interp::run`].
    pub fn run_probed(
        &mut self,
        heap: &mut Heap,
        root: NodeId,
        args: &[Vec<Value>],
    ) -> RResult<Vec<u64>> {
        self.class_visits = Some(vec![0; self.fp.program.classes.len()]);
        let ran = self.run(heap, root, args);
        let counts = self.class_visits.take().unwrap_or_default();
        ran.map(|()| counts)
    }

    fn call_stub(
        &mut self,
        heap: &mut Heap,
        stub: StubId,
        node: NodeId,
        flags: u64,
        part_args: Vec<Vec<Value>>,
    ) -> RResult<()> {
        let (fp, class_visits) = (self.fp, &mut self.class_visits);
        let target = self.machine.dispatch(heap, node, |class| {
            let target = fp.stub(stub).target_for(class)?;
            if let Some(counts) = class_visits {
                counts[class.index()] += 1;
            }
            Some(target)
        })?;
        self.run_fn(heap, target, node, flags, part_args)
    }

    fn run_fn(
        &mut self,
        heap: &mut Heap,
        fn_id: FusedFnId,
        node: NodeId,
        flags: u64,
        part_args: Vec<Vec<Value>>,
    ) -> RResult<()> {
        // `fp` outlives `self`, so function data can be borrowed for the
        // whole call without holding a borrow of `self`.
        let fp = self.fp;
        let f = fp.function(fn_id);
        let multi = f.seq.len() > 1;
        let seq: &[MethodId] = &f.seq;

        // Build one frame per traversal copy, parameters first.
        let mut frames: Vec<Vec<Value>> = Vec::with_capacity(seq.len());
        let layouts = self.machine.layouts();
        for (ti, &m) in seq.iter().enumerate() {
            let offsets = layouts.local_offsets(m);
            let mut frame = vec![Value::Int(0); layouts.frame_size(m)];
            let method = &fp.program.methods[m.index()];
            let args = part_args.get(ti).map(Vec::as_slice).unwrap_or(&[]);
            for (pi, arg) in args.iter().enumerate().take(method.n_params) {
                frame[offsets[pi] as usize] = *arg;
            }
            frames.push(frame);
        }

        let mut active = flags;
        for item in &f.body {
            match item {
                &ScheduledItem::Stmt { traversal, index } => {
                    if multi {
                        self.machine.metrics.instructions += cost::GUARD;
                    }
                    let bit = 1u64 << traversal;
                    if active & bit == 0 {
                        continue;
                    }
                    let stmt = fp.stmt(f, traversal, index);
                    let flow = self.exec_stmt(heap, seq, &mut frames, node, traversal, stmt)?;
                    if matches!(flow, Flow::Returned) {
                        active &= !bit;
                        if active == 0 {
                            break;
                        }
                    }
                }
                ScheduledItem::Call { stub, parts } => {
                    if multi {
                        self.machine.metrics.instructions += cost::GUARD;
                    }
                    // OR, not sum: several parts may share a traversal
                    // copy (e.g. a traversal that spawns the same helper
                    // twice on one child).
                    let mask: u64 = parts.iter().fold(0, |m, p| m | (1u64 << p.traversal));
                    if active & mask == 0 {
                        continue;
                    }
                    let receiver = fields(&fp.receiver(f, parts).steps);
                    let Some(child) = self.machine.navigate(heap, node, receiver)? else {
                        continue; // null child: traversal stops here
                    };
                    let mut call_flags = 0u64;
                    for (i, part) in parts.iter().enumerate() {
                        if multi {
                            self.machine.metrics.instructions += cost::FLAG_SHUFFLE;
                        }
                        if active & (1u64 << part.traversal) != 0 {
                            call_flags |= 1u64 << i;
                        }
                    }
                    let args = self.eval_call_args(heap, f, &mut frames, node, parts, active)?;
                    self.call_stub(heap, *stub, child, call_flags, args)?;
                }
            }
        }
        Ok(())
    }

    fn eval_call_args(
        &mut self,
        heap: &mut Heap,
        f: &FusedFn,
        frames: &mut [Vec<Value>],
        node: NodeId,
        parts: &[CallPart],
        active: u64,
    ) -> RResult<Vec<Vec<Value>>> {
        let fp = self.fp;
        let mut out = Vec::with_capacity(parts.len());
        for &part in parts {
            let args = &fp.call(f, part).args;
            if active & (1u64 << part.traversal) == 0 {
                // Truncated traversal: its callee never runs its statements,
                // so placeholder arguments are unobservable.
                out.push(vec![Value::Int(0); args.len()]);
                continue;
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(self.eval(heap, &f.seq, frames, node, part.traversal, a)?);
            }
            out.push(vals);
        }
        Ok(out)
    }

    fn exec_stmt(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        traversal: usize,
        stmt: &Stmt,
    ) -> RResult<Flow> {
        match stmt {
            Stmt::Traverse(_) => {
                unreachable!("traversing calls are scheduled as Call items")
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(heap, seq, frames, node, traversal, value)?;
                self.write_access(heap, seq, frames, node, traversal, target, v)?;
                Ok(Flow::Continue)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.machine.metrics.instructions += 1; // branch
                let c = self
                    .eval(heap, seq, frames, node, traversal, cond)?
                    .as_bool();
                let branch = if c { then_branch } else { else_branch };
                for s in branch {
                    if let Flow::Returned = self.exec_stmt(heap, seq, frames, node, traversal, s)? {
                        return Ok(Flow::Returned);
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::LocalDef { local, init } => {
                if let Some(init) = init {
                    let v = self.eval(heap, seq, frames, node, traversal, init)?;
                    let (slot, ty) = self.local_slot(seq[traversal], *local, &[]);
                    frames[traversal][slot] = coerce(ty, v);
                    self.machine.metrics.instructions += 1;
                }
                Ok(Flow::Continue)
            }
            Stmt::New { target, class } => {
                let (last, parent) = target.steps.split_last().expect("`new` has a step");
                self.machine
                    .new_node(heap, node, fields(parent), last.field.0, *class)?;
                Ok(Flow::Continue)
            }
            Stmt::Delete { target } => {
                let (last, parent) = target.steps.split_last().expect("`delete` has a step");
                self.machine
                    .delete_node(heap, node, fields(parent), last.field.0)?;
                Ok(Flow::Continue)
            }
            Stmt::Return => Ok(Flow::Returned),
            Stmt::PureStmt { pure, args } => {
                let args: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(heap, seq, frames, node, traversal, a))
                    .collect::<RResult<_>>()?;
                self.machine.call_pure(pure.index(), &args)?;
                Ok(Flow::Continue)
            }
        }
    }

    fn eval(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        traversal: usize,
        expr: &Expr,
    ) -> RResult<Value> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Bool(v) => Ok(Value::Bool(*v)),
            Expr::Read(access) => self.read_access(heap, seq, frames, node, traversal, access),
            Expr::Unary(op, e) => {
                let v = self.eval(heap, seq, frames, node, traversal, e)?;
                self.machine.metrics.instructions += 1;
                Ok(crate::ops::unop(*op, v))
            }
            Expr::Binary(op, l, r) => {
                // && and || short-circuit like the C++ they model.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lv = self.eval(heap, seq, frames, node, traversal, l)?.as_bool();
                    self.machine.metrics.instructions += 1;
                    let short = matches!(op, BinOp::And) != lv;
                    // For And: short-circuit when lv == false; for Or, when
                    // lv == true.
                    if short {
                        return Ok(Value::Bool(lv));
                    }
                    let rv = self.eval(heap, seq, frames, node, traversal, r)?.as_bool();
                    return Ok(Value::Bool(rv));
                }
                let lv = self.eval(heap, seq, frames, node, traversal, l)?;
                let rv = self.eval(heap, seq, frames, node, traversal, r)?;
                self.machine.metrics.instructions += 1;
                Ok(binop(*op, lv, rv))
            }
            Expr::PureCall(pure, args) => {
                let args: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(heap, seq, frames, node, traversal, a))
                    .collect::<RResult<_>>()?;
                let out = self.machine.call_pure(pure.index(), &args)?;
                Ok(coerce(self.fp.program.pures[pure.index()].return_type, out))
            }
        }
    }

    fn read_access(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        traversal: usize,
        access: &DataAccess,
    ) -> RResult<Value> {
        match access {
            DataAccess::OnTree { path, data } => {
                let addend = self.machine.layouts().chain_offset(&data[1..]);
                let path = fields(&path.steps);
                self.machine.read_tree(heap, node, path, data[0].0, addend)
            }
            DataAccess::Local { local, members } => {
                let (slot, _) = self.local_slot(seq[traversal], *local, members);
                self.machine.metrics.instructions += 1;
                Ok(frames[traversal][slot])
            }
            DataAccess::Global { global, members } => {
                let (slot, _) = self.global_slot(*global, members);
                Ok(self.machine.read_global(slot))
            }
        }
    }

    // The interpreter threads its whole execution context (heap, fused
    // sequence, per-traversal frames) through every access.
    #[allow(clippy::too_many_arguments)]
    fn write_access(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        traversal: usize,
        access: &DataAccess,
        value: Value,
    ) -> RResult<()> {
        match access {
            DataAccess::OnTree { path, data } => {
                let addend = self.machine.layouts().chain_offset(&data[1..]);
                let value = coerce(field_ty(&self.fp.program, data), value);
                let path = fields(&path.steps);
                self.machine
                    .write_tree(heap, node, path, data[0].0, addend, value)?;
            }
            DataAccess::Local { local, members } => {
                let (slot, ty) = self.local_slot(seq[traversal], *local, members);
                self.machine.metrics.instructions += 1;
                frames[traversal][slot] = coerce(ty, value);
            }
            DataAccess::Global { global, members } => {
                let (slot, ty) = self.global_slot(*global, members);
                self.machine.write_global(slot, coerce(ty, value));
            }
        }
        Ok(())
    }

    /// The frame slot of local `local` of `method` (or of its struct
    /// member chain `members`) and the type a write coerces to.
    fn local_slot(&self, method: MethodId, local: LocalId, members: &[FieldId]) -> (usize, Ty) {
        let layouts = self.machine.layouts();
        let slot = layouts.local_offsets(method)[local.index()] as usize;
        let program = &self.fp.program;
        let ty = match members {
            [] => program.methods[method.index()].locals[local.index()].ty,
            _ => field_ty(program, members),
        };
        (slot + layouts.chain_offset(members), ty)
    }

    /// The global frame slot of `global` (or of its struct member chain
    /// `members`) and the type a write coerces to.
    fn global_slot(&self, global: GlobalId, members: &[FieldId]) -> (usize, Ty) {
        let layouts = self.machine.layouts();
        let program = &self.fp.program;
        let ty = match members {
            [] => program.globals[global.index()].ty,
            _ => field_ty(program, members),
        };
        (
            layouts.global_offset(global) + layouts.chain_offset(members),
            ty,
        )
    }
}

/// The child fields a path steps through, as the machine navigates them.
fn fields(steps: &[PathStep]) -> impl Iterator<Item = u32> + '_ {
    steps.iter().map(|step| step.field.0)
}
