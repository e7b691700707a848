//! The instrumented interpreter for fused programs.

use std::fmt;
use std::sync::Arc;

use grafter::{
    entry_flags, CallPart, Diag, FusedFn, FusedFnId, FusedProgram, ScheduledItem, Stage, StubId,
};
use grafter_cachesim::CacheHierarchy;
use grafter_frontend::{BinOp, DataAccess, Expr, MethodId, NodePath, Stmt};

use crate::heap::{global_addr, Heap, Layouts, NodeId, SLOT_BYTES};
use crate::metrics::{cost, Metrics};
use crate::ops::{binop, coerce, field_ty};
use crate::pure::PureRegistry;
use crate::Value;

/// Errors surfaced while executing a fused program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A data access navigated through a null child pointer.
    NullDeref,
    /// A `pure` function has no registered native implementation.
    MissingPure(String),
    /// A stub had no fused function for the receiver's dynamic type.
    MissingTarget(String),
    /// A child slot held a non-reference value (heap corruption).
    NotARef,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NullDeref => write!(f, "null child dereferenced in a data access"),
            RuntimeError::MissingPure(name) => {
                write!(f, "pure function `{name}` has no native implementation")
            }
            RuntimeError::MissingTarget(class) => {
                write!(f, "no fused function for dynamic type `{class}`")
            }
            RuntimeError::NotARef => write!(f, "child slot does not hold a reference"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A failed run in the compiler's diagnostic currency, tagged
/// [`Stage::Runtime`] so callers can tell a bad program from a bad run.
impl From<RuntimeError> for Diag {
    fn from(e: RuntimeError) -> Diag {
        Diag::error_global(Stage::Runtime, e.to_string())
    }
}

type RResult<T> = Result<T, RuntimeError>;

enum Flow {
    Continue,
    Returned,
}

/// Executes a [`FusedProgram`] against a [`Heap`], collecting [`Metrics`]
/// and (optionally) driving a cache simulator.
pub struct Interp<'a> {
    fp: &'a FusedProgram,
    /// The program's layouts, read here for the global and local frames
    /// (node slots are read through the heap's).
    layouts: Arc<Layouts>,
    /// Counters for the current run (reset with [`Metrics::reset`]).
    pub metrics: Metrics,
    /// Optional simulated memory hierarchy fed with every field access.
    pub cache: Option<CacheHierarchy>,
    pures: PureRegistry,
    /// The flat global frame (see [`Layouts::global_offset`]).
    globals: Vec<Value>,
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
        Interp::with_layouts(fp, layouts, PureRegistry::with_math())
    }

    /// Creates an interpreter over `layouts` computed for `fp.program`
    /// (an engine's shared ones) with a custom pure-function registry.
    pub fn with_layouts(fp: &'a FusedProgram, layouts: Arc<Layouts>, pures: PureRegistry) -> Self {
        Interp {
            fp,
            globals: layouts.initial_globals().to_vec(),
            layouts,
            metrics: Metrics::default(),
            cache: None,
            pures,
            class_visits: None,
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

    /// Reads a global variable by name, as [`Interp::set_global`] names it.
    pub fn global(&self, name: &str) -> Option<Value> {
        Some(self.globals[self.layouts.global_slot(name)?])
    }

    /// The flat global frame, one value per slot of
    /// [`Layouts::global_slot_names`].
    pub fn globals(&self) -> &[Value] {
        &self.globals
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

    fn touch(&mut self, addr: u64) {
        if let Some(cache) = &mut self.cache {
            cache.access(addr);
        }
    }

    fn call_stub(
        &mut self,
        heap: &mut Heap,
        stub: StubId,
        node: NodeId,
        flags: u64,
        part_args: Vec<Vec<Value>>,
    ) -> RResult<()> {
        // Virtual dispatch: read the node header (type tag / vtable).
        self.metrics.instructions += cost::DISPATCH;
        self.metrics.loads += 1;
        self.touch(heap.addr_of(node));
        let class = heap.class_of(node);
        let Some(target) = self.fp.stub(stub).target_for(class) else {
            return Err(RuntimeError::MissingTarget(
                self.fp.program.classes[class.index()].name.clone(),
            ));
        };
        if let Some(counts) = &mut self.class_visits {
            counts[class.index()] += 1;
        }
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
        self.metrics.visits += 1;
        // `fp` outlives `self`, so function data can be borrowed for the
        // whole call without holding a borrow of `self`.
        let fp = self.fp;
        let f = fp.function(fn_id);
        let multi = f.seq.len() > 1;
        let seq: &[MethodId] = &f.seq;

        // Build one frame per traversal copy, parameters first.
        let mut frames: Vec<Vec<Value>> = Vec::with_capacity(seq.len());
        for (ti, &m) in seq.iter().enumerate() {
            let offsets = self.layouts.local_offsets(m);
            let mut frame = vec![Value::Int(0); self.layouts.frame_size(m)];
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
                        self.metrics.instructions += cost::GUARD;
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
                        self.metrics.instructions += cost::GUARD;
                    }
                    // OR, not sum: several parts may share a traversal
                    // copy (e.g. a traversal that spawns the same helper
                    // twice on one child).
                    let mask: u64 = parts.iter().fold(0, |m, p| m | (1u64 << p.traversal));
                    if active & mask == 0 {
                        continue;
                    }
                    let Some(child) = self.navigate(heap, node, fp.receiver(f, parts))? else {
                        continue; // null child: traversal stops here
                    };
                    let mut call_flags = 0u64;
                    for (i, part) in parts.iter().enumerate() {
                        if multi {
                            self.metrics.instructions += cost::FLAG_SHUFFLE;
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

    /// Follows a receiver path, counting pointer loads; `None` if any step
    /// is null.
    fn navigate(&mut self, heap: &Heap, node: NodeId, path: &NodePath) -> RResult<Option<NodeId>> {
        let mut cur = node;
        for step in &path.steps {
            let class = heap.class_of(cur);
            let slot = heap.layouts().slot_of(class, step.field);
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
                self.metrics.instructions += 1; // branch
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
                    let method = seq[traversal];
                    let slot = self.layouts.local_offsets(method)[local.index()] as usize;
                    let ty = self.fp.program.methods[method.index()].locals[local.index()].ty;
                    frames[traversal][slot] = coerce(ty, v);
                    self.metrics.instructions += 1;
                }
                Ok(Flow::Continue)
            }
            Stmt::New { target, class } => {
                // Navigate to the parent of the last step, then install a
                // fresh node in the child slot.
                let (parent, last) = self.navigate_to_parent(heap, node, target)?;
                let Some(parent) = parent else {
                    return Ok(Flow::Continue);
                };
                let fresh = heap.alloc(*class);
                self.metrics.instructions += cost::ALLOC;
                // Constructor initialises the node: touch its lines.
                let bytes = heap.layouts().node_bytes(*class);
                let base = heap.addr_of(fresh);
                if let Some(cache) = &mut self.cache {
                    cache.access_range(base, bytes);
                }
                self.metrics.stores += 1 + bytes / SLOT_BYTES;
                let pclass = heap.class_of(parent);
                let slot = heap.layouts().slot_of(pclass, last);
                self.touch(heap.slot_addr(parent, slot));
                heap.set(parent, slot, Value::Ref(Some(fresh)));
                Ok(Flow::Continue)
            }
            Stmt::Delete { target } => {
                let (parent, last) = self.navigate_to_parent(heap, node, target)?;
                let Some(parent) = parent else {
                    return Ok(Flow::Continue);
                };
                let pclass = heap.class_of(parent);
                let slot = heap.layouts().slot_of(pclass, last);
                self.metrics.loads += 1;
                self.touch(heap.slot_addr(parent, slot));
                if let Value::Ref(Some(victim)) = heap.get(parent, slot) {
                    let freed = heap.delete_subtree(victim);
                    self.metrics.instructions += cost::FREE * freed as u64;
                }
                heap.set(parent, slot, Value::Ref(None));
                self.metrics.stores += 1;
                Ok(Flow::Continue)
            }
            Stmt::Return => Ok(Flow::Returned),
            Stmt::PureStmt { pure, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(heap, seq, frames, node, traversal, a)?);
                }
                let name = &self.fp.program.pures[pure.index()].name;
                let Some(f) = self.pures.get(name) else {
                    return Err(RuntimeError::MissingPure(name.clone()));
                };
                self.metrics.instructions += 1 + args.len() as u64;
                f(&vals);
                Ok(Flow::Continue)
            }
        }
    }

    /// Navigates to the parent node of the last step of `path`, returning
    /// the parent and the final child field.
    fn navigate_to_parent(
        &mut self,
        heap: &Heap,
        node: NodeId,
        path: &NodePath,
    ) -> RResult<(Option<NodeId>, grafter_frontend::FieldId)> {
        let last = path
            .steps
            .last()
            .expect("topology targets have a step")
            .field;
        let prefix = NodePath {
            base_cast: path.base_cast,
            steps: path.steps[..path.steps.len() - 1].to_vec(),
        };
        Ok((self.navigate(heap, node, &prefix)?, last))
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
                self.metrics.instructions += 1;
                Ok(crate::ops::unop(*op, v))
            }
            Expr::Binary(op, l, r) => {
                // && and || short-circuit like the C++ they model.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lv = self.eval(heap, seq, frames, node, traversal, l)?.as_bool();
                    self.metrics.instructions += 1;
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
                self.metrics.instructions += 1;
                Ok(binop(*op, lv, rv))
            }
            Expr::PureCall(pure, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(heap, seq, frames, node, traversal, a)?);
                }
                let decl = &self.fp.program.pures[pure.index()];
                let Some(f) = self.pures.get(&decl.name) else {
                    return Err(RuntimeError::MissingPure(decl.name.clone()));
                };
                self.metrics.instructions += 1 + args.len() as u64;
                Ok(coerce(decl.return_type, f(&vals)))
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
                let Some(target) = self.navigate(heap, node, path)? else {
                    return Err(RuntimeError::NullDeref);
                };
                let class = heap.class_of(target);
                let slot = heap.layouts().slot_of_chain(class, data);
                self.metrics.instructions += 1;
                self.metrics.loads += 1;
                self.touch(heap.slot_addr(target, slot));
                Ok(heap.get(target, slot))
            }
            DataAccess::Local { local, members } => {
                let mut slot = self.layouts.local_offsets(seq[traversal])[local.index()] as usize;
                for m in members {
                    slot += self.layouts.member_offset(*m);
                }
                self.metrics.instructions += 1;
                Ok(frames[traversal][slot])
            }
            DataAccess::Global { global, members } => {
                let mut idx = self.layouts.global_offset(*global);
                for m in members {
                    idx += self.layouts.member_offset(*m);
                }
                self.metrics.instructions += 1;
                self.metrics.loads += 1;
                self.touch(global_addr(idx));
                Ok(self.globals[idx])
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
                let Some(target) = self.navigate(heap, node, path)? else {
                    return Err(RuntimeError::NullDeref);
                };
                let class = heap.class_of(target);
                let slot = heap.layouts().slot_of_chain(class, data);
                let ty = field_ty(&self.fp.program, data);
                self.metrics.instructions += 1;
                self.metrics.stores += 1;
                self.touch(heap.slot_addr(target, slot));
                heap.set(target, slot, coerce(ty, value));
            }
            DataAccess::Local { local, members } => {
                let method = seq[traversal];
                let mut slot = self.layouts.local_offsets(method)[local.index()] as usize;
                let mut ty = self.fp.program.methods[method.index()].locals[local.index()].ty;
                for m in members {
                    slot += self.layouts.member_offset(*m);
                    ty = field_ty(&self.fp.program, &[*m]);
                }
                self.metrics.instructions += 1;
                frames[traversal][slot] = coerce(ty, value);
            }
            DataAccess::Global { global, members } => {
                let mut idx = self.layouts.global_offset(*global);
                let mut ty = self.fp.program.globals[global.index()].ty;
                for m in members {
                    idx += self.layouts.member_offset(*m);
                    ty = field_ty(&self.fp.program, &[*m]);
                }
                self.metrics.instructions += 1;
                self.metrics.stores += 1;
                self.touch(global_addr(idx));
                self.globals[idx] = coerce(ty, value);
            }
        }
        Ok(())
    }
}
