//! The metered machine both execution tiers drive: the interpreter and
//! the VM decide which access comes next, the [`Machine`] what it costs
//! and which simulated address it touches.

use std::fmt;
use std::sync::Arc;

use grafter::{Diag, Stage};
use grafter_cachesim::CacheHierarchy;
use grafter_frontend::{ClassId, FieldId};

use crate::heap::{global_addr, Heap, Layouts, NodeId, SLOT_BYTES};
use crate::metrics::{cost, Metrics};
use crate::pure::NativeFn;
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
    /// An access reached a node whose class has no slot for the field
    /// (a child of the wrong class, placed below the typed API): the
    /// class's and the field's names, boxed so that every result of the
    /// run loops stays as small as before.
    MissingField(Box<(String, String)>),
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
            RuntimeError::MissingField(names) => {
                let (class, field) = &**names;
                write!(f, "a node of class `{class}` has no field `{field}`")
            }
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

/// A program's pures resolved once: entry `i` is pure `PureId(i)`'s
/// native function, or its name when the registry has none.
#[derive(Clone, Debug)]
pub struct Pures(pub(crate) Arc<[Result<NativeFn, Box<str>>]>);

/// One run's counters, simulated cache, global frame and pures, with
/// every charged memory access of both tiers, so their loads, stores and
/// cache traffic agree by construction.
///
/// Slots come from [`Layouts::slot_of_known`], one table read, and are
/// read and written through [`Heap::get_slot`] and [`Heap::set_slot`]:
/// a heap corrupted below the typed API (a child of a class its field
/// cannot hold) gets a slot past the node's end, which their bound check
/// refuses, so it fails with [`RuntimeError::MissingField`] alike on both
/// tiers and build profiles. An explicit absence check on top read
/// perfbench `run` 4-5% slower (six 10 s rounds, 2-vCPU Xeon).
/// The accesses are `#[inline(always)]`: with navigation out of line,
/// perfbench `run` read render and kdtree 7-8% slower (four 10 s pairs,
/// 2-vCPU Xeon).
#[derive(Clone, Debug)]
pub struct Machine {
    layouts: Arc<Layouts>,
    pures: Pures,
    /// Counters for the current run (reset with [`Metrics::reset`]).
    pub metrics: Metrics,
    /// Optional simulated memory hierarchy fed with every access.
    pub cache: Option<CacheHierarchy>,
    /// The flat global frame (see [`Layouts::global_offset`]).
    globals: Vec<Value>,
}

impl Machine {
    /// A machine over the layouts of the program it runs, from their
    /// initial global frame, with no cache.
    pub fn new(layouts: Arc<Layouts>, pures: Pures) -> Self {
        Machine {
            globals: layouts.initial_globals().to_vec(),
            layouts,
            pures,
            metrics: Metrics::default(),
            cache: None,
        }
    }

    /// The layouts of the program the machine runs.
    pub fn layouts(&self) -> &Layouts {
        &self.layouts
    }

    /// Sets a global variable by name before a run (`P.y` for a member
    /// of a struct global, see [`Layouts::global_slot_names`]).
    pub fn set_global(&mut self, name: &str, value: Value) -> Option<()> {
        self.globals[self.layouts.global_slot(name)?] = value;
        Some(())
    }

    /// Reads a global variable by name.
    pub fn global(&self, name: &str) -> Option<Value> {
        Some(self.globals[self.layouts.global_slot(name)?])
    }

    /// The global frame, one value per [`Layouts::global_slot_names`].
    pub fn globals(&self) -> &[Value] {
        &self.globals
    }

    /// The error of an access to `field` on a node of `class`, which has
    /// no such field.
    #[cold]
    #[inline(never)]
    fn missing_field(&self, class: ClassId, field: u32) -> RuntimeError {
        RuntimeError::MissingField(Box::new((
            self.layouts.class_name(class).to_string(),
            self.layouts.field_name(FieldId(field)).to_string(),
        )))
    }

    #[inline(always)]
    fn touch(&mut self, addr: u64) {
        if let Some(cache) = &mut self.cache {
            cache.access(addr);
        }
    }

    /// Virtual dispatch: loads `node`'s header, asks `target` for the
    /// function its class runs ([`RuntimeError::MissingTarget`] if none)
    /// and counts the visit.
    #[inline(always)]
    pub fn dispatch<T>(
        &mut self,
        heap: &Heap,
        node: NodeId,
        target: impl FnOnce(ClassId) -> Option<T>,
    ) -> RResult<T> {
        self.metrics.instructions += cost::DISPATCH;
        self.metrics.loads += 1;
        self.touch(heap.addr_of(node));
        let class = heap.class_of(node);
        let Some(target) = target(class) else {
            return Err(RuntimeError::MissingTarget(
                self.layouts.class_name(class).to_string(),
            ));
        };
        self.metrics.visits += 1;
        Ok(target)
    }

    /// Follows the child fields of `path` from `node`, one pointer load
    /// per step; `None` if a step is null.
    #[inline(always)]
    pub fn navigate(
        &mut self,
        heap: &Heap,
        node: NodeId,
        path: impl IntoIterator<Item = u32>,
    ) -> RResult<Option<NodeId>> {
        let mut cur = node;
        for field in path {
            let class = heap.class_of(cur);
            let slot = self.layouts.slot_of_known(class, field);
            let Some(child) = heap.get_slot(cur, slot) else {
                return Err(self.missing_field(class, field));
            };
            self.metrics.instructions += 1;
            self.metrics.loads += 1;
            self.touch(heap.slot_addr(cur, slot));
            match child {
                Value::Ref(Some(c)) => cur = c,
                Value::Ref(None) => return Ok(None),
                _ => return Err(RuntimeError::NotARef),
            }
        }
        Ok(Some(cur))
    }

    /// Reads field `field` (plus a struct member's `addend`) of the node
    /// `path` leads to from `node`; a null step is a `NullDeref`.
    #[inline(always)]
    pub fn read_tree(
        &mut self,
        heap: &Heap,
        node: NodeId,
        path: impl IntoIterator<Item = u32>,
        field: u32,
        addend: usize,
    ) -> RResult<Value> {
        let Some(target) = self.navigate(heap, node, path)? else {
            return Err(RuntimeError::NullDeref);
        };
        let class = heap.class_of(target);
        let slot = self.layouts.slot_of_known(class, field) + addend;
        let Some(value) = heap.get_slot(target, slot) else {
            return Err(self.missing_field(class, field));
        };
        self.metrics.instructions += 1;
        self.metrics.loads += 1;
        self.touch(heap.slot_addr(target, slot));
        Ok(value)
    }

    /// Writes `value` (already coerced) as [`Machine::read_tree`] reads.
    #[inline(always)]
    pub fn write_tree(
        &mut self,
        heap: &mut Heap,
        node: NodeId,
        path: impl IntoIterator<Item = u32>,
        field: u32,
        addend: usize,
        value: Value,
    ) -> RResult<()> {
        let Some(target) = self.navigate(heap, node, path)? else {
            return Err(RuntimeError::NullDeref);
        };
        let class = heap.class_of(target);
        let slot = self.layouts.slot_of_known(class, field) + addend;
        if !heap.set_slot(target, slot, value) {
            return Err(self.missing_field(class, field));
        }
        self.metrics.instructions += 1;
        self.metrics.stores += 1;
        self.touch(heap.slot_addr(target, slot));
        Ok(())
    }

    /// Reads slot `slot` of the global frame.
    #[inline(always)]
    pub fn read_global(&mut self, slot: usize) -> Value {
        self.metrics.instructions += 1;
        self.metrics.loads += 1;
        self.touch(global_addr(slot));
        self.globals[slot]
    }

    /// Writes `value` (already coerced) into slot `slot` of the global
    /// frame.
    #[inline(always)]
    pub fn write_global(&mut self, slot: usize, value: Value) {
        self.metrics.instructions += 1;
        self.metrics.stores += 1;
        self.touch(global_addr(slot));
        self.globals[slot] = value;
    }

    /// `new`: allocates a `class` node into child field `field` of the
    /// node `path` leads to from `node`, if that is not null.
    #[inline(always)]
    pub fn new_node(
        &mut self,
        heap: &mut Heap,
        node: NodeId,
        path: impl IntoIterator<Item = u32>,
        field: u32,
        class: ClassId,
    ) -> RResult<()> {
        let Some(parent) = self.navigate(heap, node, path)? else {
            return Ok(());
        };
        let parent_class = heap.class_of(parent);
        let slot = self.layouts.slot_of_known(parent_class, field);
        if heap.get_slot(parent, slot).is_none() {
            return Err(self.missing_field(parent_class, field));
        }
        let fresh = heap.alloc(class);
        self.metrics.instructions += cost::ALLOC;
        // The constructor initialises the node: touch its lines.
        let bytes = self.layouts.node_bytes(class);
        if let Some(cache) = &mut self.cache {
            cache.access_range(heap.addr_of(fresh), bytes);
        }
        self.metrics.stores += 1 + bytes / SLOT_BYTES;
        self.touch(heap.slot_addr(parent, slot));
        heap.set(parent, slot, Value::Ref(Some(fresh)));
        Ok(())
    }

    /// `delete`: frees the subtree in child field `field` of the node
    /// `path` leads to from `node`, if that is not null, and nulls it.
    #[inline(always)]
    pub fn delete_node(
        &mut self,
        heap: &mut Heap,
        node: NodeId,
        path: impl IntoIterator<Item = u32>,
        field: u32,
    ) -> RResult<()> {
        let Some(parent) = self.navigate(heap, node, path)? else {
            return Ok(());
        };
        let class = heap.class_of(parent);
        let slot = self.layouts.slot_of_known(class, field);
        let Some(child) = heap.get_slot(parent, slot) else {
            return Err(self.missing_field(class, field));
        };
        self.metrics.loads += 1;
        self.touch(heap.slot_addr(parent, slot));
        if let Value::Ref(Some(victim)) = child {
            let freed = heap.delete_subtree(victim);
            self.metrics.instructions += cost::FREE * freed as u64;
        }
        heap.set(parent, slot, Value::Ref(None));
        self.metrics.stores += 1;
        Ok(())
    }

    /// Calls pure `PureId(pure)` on `args`; the caller coerces the
    /// result.
    #[inline(always)]
    pub fn call_pure(&mut self, pure: usize, args: &[Value]) -> RResult<Value> {
        let f = match &self.pures.0[pure] {
            Ok(f) => *f,
            Err(name) => return Err(RuntimeError::MissingPure(String::from(&**name))),
        };
        self.metrics.instructions += 1 + args.len() as u64;
        Ok(f(args))
    }
}
