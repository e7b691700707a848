//! Node heap, slot layouts and tree construction helpers.
//!
//! Nodes live in one contiguous **slot arena**: a node is a small
//! `(class, base)` record indexing into a single `Vec<Value>` pool, bump
//! allocated in construction order. Simulated addresses are derived from
//! the record (header bytes per node + slot bytes per pool slot), so they
//! are identical to the per-node-`malloc` scheme the paper's C++ runs
//! against while the Rust side touches no allocator on the hot path. The
//! arena is reusable: [`Heap::reset`] drops every node but keeps the
//! pool's capacity, so a session can run many inputs with zero steady-state
//! allocation (and bit-identical addresses each time).

use std::collections::HashMap;
use std::sync::Arc;

use grafter_frontend::{
    ast::Literal, ClassId, FieldId, FieldKind, GlobalId, MethodId, Program, Ty,
};

use crate::ops::field_ty;
use crate::Value;

/// Index of a node in a [`Heap`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Byte size of the per-node header (holds the dynamic type, like a vtable
/// pointer).
pub const NODE_HEADER_BYTES: u64 = 8;
/// Byte size of one slot (all values are machine-word sized).
pub const SLOT_BYTES: u64 = 8;

/// Simulated address of the first allocated node (skips a "reserved" low
/// range, like a real process image).
const HEAP_BASE_ADDR: u64 = 0x10_0000;

/// Simulated address of the flattened global frame's first slot.
const GLOBALS_BASE_ADDR: u64 = 0x1000;

/// Simulated address of slot `idx` of the flattened global frame, the
/// one both execution tiers touch for a global access.
#[inline]
pub fn global_addr(idx: usize) -> u64 {
    GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64
}

/// Every slot layout a run uses: each class's node slots, the global frame
/// (globals in declaration order) and each method's local frame.
///
/// Each class lays out its inherited fields first (base-class subobject),
/// then its own; struct-typed fields, globals and locals are flattened
/// into one slot per member, mirroring the C++ object layout Grafter's
/// generated code runs against.
///
/// Built once per program and shared by every heap, the engine's
/// interpreters and, on the VM tier, the lowered module, the layouts also
/// name things: class-, field- and global-name indexes let tree builders
/// go from `"Left"` to a slot, and callers from `"P.y"` to a global, with
/// binary searches and array loads, touching no allocator.
#[derive(Clone, Debug)]
pub struct Layouts {
    /// Dense `class * n_fields + field` → first slot of the field,
    /// `ABSENT` where the class has no such field.
    slots: Vec<u32>,
    /// Row width of `slots`: the program's field count.
    n_fields: usize,
    /// Field → offset within its struct, `ABSENT` for a field that is no
    /// struct member.
    member_offsets: Vec<u32>,
    /// Class names by id.
    class_names: Vec<Box<str>>,
    /// Field names by id.
    field_names: Vec<Box<str>>,
    /// Class ids by name, the first declared class of each name.
    class_index: NameIndex,
    /// Per class, the fields visible by name: a more-derived declaration
    /// shadows an inherited one of its name.
    field_index: Vec<NameIndex>,
    /// Slots per class.
    sizes: Vec<usize>,
    /// Per-class default slot values.
    defaults: Vec<Vec<Value>>,
    /// Global → its first slot in the global frame.
    global_offsets: Vec<u32>,
    /// The global frame before any run (declared literals honoured).
    globals_init: Vec<Value>,
    /// One name per global frame slot (`Q`, or `P.x` and `P.y`).
    global_names: Vec<Box<str>>,
    /// Global frame slots by name.
    global_index: NameIndex,
    /// Per method, the first frame slot of each local (parameters
    /// first), then the frame's size: local `i` spans
    /// `offsets[i]..offsets[i + 1]`.
    local_offsets: Vec<Box<[u32]>>,
}

/// Marks a `(class, field)` or member entry with no slot in the dense
/// tables of [`Layouts`].
const ABSENT: u32 = u32::MAX;

/// Ids sorted by name for binary search, each beside its name's first
/// eight bytes as a big-endian integer. A lookup binary-searches those
/// integers for the run sharing its prefix (one name, unless several
/// share their first eight bytes), then the run by whole name: integer
/// compares and, usually, one string compare, yet logarithmic whatever
/// names a source declares.
#[derive(Clone, Debug)]
struct NameIndex(Vec<(u64, u32)>);

impl NameIndex {
    /// Indexes `ids` by `names[id]`; of ids sharing a name, the first
    /// in `ids` wins.
    fn new(ids: impl IntoIterator<Item = u32>, names: &[Box<str>]) -> Self {
        let name = |id: u32| &*names[id as usize];
        let mut entries: Vec<(u64, u32)> =
            ids.into_iter().map(|id| (prefix(name(id)), id)).collect();
        // Stable, so the first of a repeated name stays in front.
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| name(a.1).cmp(name(b.1))));
        entries.dedup_by(|later, first| name(later.1) == name(first.1));
        NameIndex(entries)
    }

    /// The id named `name`.
    fn get(&self, name: &str, names: &[Box<str>]) -> Option<u32> {
        let key = prefix(name);
        let run = &self.0[self.0.partition_point(|&(k, _)| k < key)..];
        let run = &run[..run.partition_point(|&(k, _)| k == key)];
        run.binary_search_by(|&(_, id)| (*names[id as usize]).cmp(name))
            .ok()
            .map(|i| run[i].1)
    }
}

/// The first eight bytes of `name`, zero-padded, as a big-endian integer.
fn prefix(name: &str) -> u64 {
    name.bytes()
        .take(8)
        .enumerate()
        .fold(0, |key, (i, b)| key | u64::from(b) << (56 - 8 * i))
}

/// Default value of a primitive/child slot, honouring a declared literal.
pub fn default_literal(ty: Ty, lit: Option<Literal>) -> Value {
    match (ty, lit) {
        (Ty::Int, Some(Literal::Int(v))) => Value::Int(v),
        (Ty::Float, Some(Literal::Int(v))) => Value::Float(v as f64),
        (Ty::Float, Some(Literal::Float(v))) => Value::Float(v),
        (Ty::Bool, Some(Literal::Bool(v))) => Value::Bool(v),
        (Ty::Int, _) => Value::Int(0),
        (Ty::Float, _) => Value::Float(0.0),
        (Ty::Bool, _) => Value::Bool(false),
        (Ty::Node(_), _) => Value::Ref(None),
        (Ty::Struct(_), _) => unreachable!("structs are flattened before defaulting"),
    }
}

/// Calls `push` per slot a value of data type `ty` flattens to: with each
/// member of a struct and its default, else once with `lit` or the
/// type's default.
fn data_slots(
    program: &Program,
    ty: Ty,
    lit: Option<Literal>,
    mut push: impl FnMut(Option<FieldId>, Value),
) {
    let Ty::Struct(s) = ty else {
        return push(None, default_literal(ty, lit));
    };
    for &m in &program.structs[s.index()].members {
        push(Some(m), default_literal(field_ty(program, &[m]), None));
    }
}

impl Layouts {
    /// Computes every class, global and local layout of `program`.
    pub fn new(program: &Program) -> Self {
        let n_classes = program.classes.len();
        let n_fields = program.fields.len();
        let class_names: Vec<Box<str>> = program
            .classes
            .iter()
            .map(|c| c.name.as_str().into())
            .collect();
        // In id order, so a repeated name keeps its first declared class,
        // the one `Program::class_by_name` returns.
        let class_index = NameIndex::new(0..n_classes as u32, &class_names);
        let (mut global_offsets, mut globals_init, mut global_names) =
            (Vec::new(), Vec::new(), Vec::new());
        for g in &program.globals {
            global_offsets.push(globals_init.len() as u32);
            data_slots(program, g.ty, g.default, |member, value| {
                globals_init.push(value);
                global_names.push(match member {
                    Some(m) => format!("{}.{}", g.name, program.fields[m.index()].name).into(),
                    None => g.name.as_str().into(),
                });
            });
        }
        let local_offsets = program
            .methods
            .iter()
            .map(|m| {
                let mut offsets = vec![0];
                for local in &m.locals {
                    let mut end = offsets[offsets.len() - 1];
                    data_slots(program, local.ty, None, |_, _| end += 1);
                    offsets.push(end);
                }
                offsets.into_boxed_slice()
            })
            .collect();
        let mut layouts = Layouts {
            slots: vec![ABSENT; n_classes * n_fields],
            n_fields,
            member_offsets: vec![ABSENT; n_fields],
            class_names,
            field_names: program
                .fields
                .iter()
                .map(|f| f.name.as_str().into())
                .collect(),
            class_index,
            field_index: Vec::with_capacity(n_classes),
            sizes: Vec::with_capacity(n_classes),
            defaults: Vec::with_capacity(n_classes),
            global_offsets,
            globals_init,
            global_index: NameIndex::new(0..global_names.len() as u32, &global_names),
            global_names,
            local_offsets,
        };
        for st in &program.structs {
            for (i, &m) in st.members.iter().enumerate() {
                layouts.member_offsets[m.index()] = i as u32;
            }
        }
        for ci in 0..n_classes {
            let class = ClassId(ci as u32);
            let fields = program.all_fields(class);
            // One default per slot, so its length is the next free slot.
            let mut defaults = Vec::new();
            for &f in &fields {
                layouts.slots[ci * n_fields + f.index()] = defaults.len() as u32;
                let field = &program.fields[f.index()];
                match field.kind {
                    FieldKind::Child(_) => defaults.push(Value::Ref(None)),
                    FieldKind::Data(ty) => {
                        data_slots(program, ty, field.default, |_, v| defaults.push(v))
                    }
                }
            }
            // Most-derived first, so each name keeps the field
            // `Program::field_on_class` resolves it to.
            let visible = NameIndex::new(fields.iter().rev().map(|f| f.0), &layouts.field_names);
            layouts.field_index.push(visible);
            layouts.sizes.push(defaults.len());
            layouts.defaults.push(defaults);
        }
        layouts
    }

    /// The class named `name`, if the program declares one.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_index.get(name, &self.class_names).map(ClassId)
    }

    /// The field `name` denotes on `class` (inherited fields included,
    /// more-derived declarations shadowing), as
    /// `Program::field_on_class` resolves it.
    pub fn field_by_name(&self, class: ClassId, name: &str) -> Option<FieldId> {
        self.field_index[class.index()]
            .get(name, &self.field_names)
            .map(FieldId)
    }

    /// The field a name like `size` or `border.width` denotes on `class`
    /// (the last of its field and struct-member chain) and its slot.
    /// `program` is the one the layouts were computed for.
    #[inline]
    pub fn slot_by_name(
        &self,
        program: &Program,
        class: ClassId,
        name: &str,
    ) -> Option<(FieldId, usize)> {
        let mut parts = name.split('.');
        let mut field = self.field_by_name(class, parts.next()?)?;
        let mut slot = self.slot_of(class, field);
        for member in parts {
            let FieldKind::Data(Ty::Struct(st)) = program.fields[field.index()].kind else {
                return None;
            };
            field = program.field_on_struct(st, member)?;
            slot += self.member_offset(field);
        }
        Some((field, slot))
    }

    /// The slot of data field (or `struct.member` chain) `name` on
    /// `class`, or the message a typed tree edit reports.
    pub fn data_slot(
        &self,
        program: &Program,
        class: ClassId,
        name: &str,
    ) -> Result<usize, String> {
        match self.slot_by_name(program, class, name) {
            Some((f, slot)) if matches!(program.fields[f.index()].kind, FieldKind::Data(_)) => {
                Ok(slot)
            }
            _ => Err(format!(
                "unknown field `{name}` on `{}`",
                self.class_name(class)
            )),
        }
    }

    /// The slot of child field `name` on `class` if it can hold a
    /// `child` (`None`, a null, fits any), or the message a typed tree
    /// edit reports.
    pub fn child_slot(
        &self,
        program: &Program,
        class: ClassId,
        name: &str,
        child: Option<ClassId>,
    ) -> Result<usize, String> {
        let field = self.field_by_name(class, name);
        let Some((field, FieldKind::Child(declared))) =
            field.map(|f| (f, program.fields[f.index()].kind))
        else {
            return Err(format!(
                "unknown child field `{name}` on `{}`",
                self.class_name(class)
            ));
        };
        if let Some(child) = child.filter(|&c| !program.is_subtype(c, declared)) {
            return Err(format!(
                "child `{name}` of `{}` holds a `{}`, not a `{}`",
                self.class_name(class),
                self.class_name(child),
                self.class_name(declared)
            ));
        }
        Ok(self.slot_of(class, field))
    }

    /// Name of `class`.
    pub fn class_name(&self, class: ClassId) -> &str {
        &self.class_names[class.index()]
    }

    /// Name of `field`.
    pub fn field_name(&self, field: FieldId) -> &str {
        &self.field_names[field.index()]
    }

    /// First slot of `field` within `class`.
    ///
    /// # Panics
    ///
    /// Panics if the field does not belong to the class.
    #[inline]
    pub fn slot_of(&self, class: ClassId, field: FieldId) -> usize {
        let slot = self.slots[class.index() * self.n_fields + field.index()];
        if slot == ABSENT {
            panic!(
                "class `{}` has no field `{}`",
                self.class_names[class.index()],
                self.field_names[field.index()]
            );
        }
        slot as usize
    }

    /// Slot of a data access chain `field(.member)?` within `class`.
    ///
    /// # Panics
    ///
    /// Panics if the field does not belong to the class or a member
    /// belongs to no struct.
    #[inline]
    pub fn slot_of_chain(&self, class: ClassId, chain: &[FieldId]) -> usize {
        self.slot_of(class, chain[0]) + self.chain_offset(&chain[1..])
    }

    /// Offset of a struct member within its struct.
    ///
    /// # Panics
    ///
    /// Panics if the field is no struct member.
    #[inline]
    pub fn member_offset(&self, member: FieldId) -> usize {
        let offset = self.member_offsets[member.index()];
        if offset == ABSENT {
            panic!(
                "field `{}` is not a struct member",
                self.field_names[member.index()]
            );
        }
        offset as usize
    }

    /// Offset of a struct member chain within its outermost struct (0
    /// for none); panics if a field is no struct member.
    #[inline]
    pub fn chain_offset(&self, members: &[FieldId]) -> usize {
        members.iter().map(|&m| self.member_offset(m)).sum()
    }

    /// [`Layouts::slot_of`] without the release-build check that `class`
    /// has `field`, for accesses resolved against these layouts at compile
    /// time (the VM's). One table read; a field the class lacks yields a
    /// slot past every node, which [`Heap::get`] and [`Heap::set`] reject.
    #[inline]
    pub fn slot_of_known(&self, class: ClassId, field: u32) -> usize {
        let slot = self.slots[class.index() * self.n_fields + field as usize];
        debug_assert_ne!(slot, ABSENT, "field not present on class");
        slot as usize
    }

    /// Number of slots of `class`.
    pub fn size_of(&self, class: ClassId) -> usize {
        self.sizes[class.index()]
    }

    /// Byte footprint of a node of `class` (header + slots).
    pub fn node_bytes(&self, class: ClassId) -> u64 {
        NODE_HEADER_BYTES + SLOT_BYTES * self.sizes[class.index()] as u64
    }

    /// Default slot values of `class`.
    pub fn defaults(&self, class: ClassId) -> &[Value] {
        &self.defaults[class.index()]
    }

    /// First slot of `global` in the global frame.
    pub fn global_offset(&self, global: GlobalId) -> usize {
        self.global_offsets[global.index()] as usize
    }

    /// The global frame each run starts from, one value per slot.
    pub fn initial_globals(&self) -> &[Value] {
        &self.globals_init
    }

    /// The name of each global frame slot, in frame order: a scalar
    /// global's own name, `P.x` and `P.y` for the members of a struct
    /// global `P`.
    pub fn global_slot_names(&self) -> &[Box<str>] {
        &self.global_names
    }

    /// The global frame slot [`Layouts::global_slot_names`] names `name`.
    pub fn global_slot(&self, name: &str) -> Option<usize> {
        self.global_index
            .get(name, &self.global_names)
            .map(|slot| slot as usize)
    }

    /// The frame slot of each local of `method`, in declaration order
    /// (parameters first; a struct local takes one slot per member).
    pub fn local_offsets(&self, method: MethodId) -> &[u32] {
        let offsets = &self.local_offsets[method.index()];
        &offsets[..offsets.len() - 1]
    }

    /// Slots of `method`'s local frame.
    pub fn frame_size(&self, method: MethodId) -> usize {
        let offsets = &self.local_offsets[method.index()];
        offsets[offsets.len() - 1] as usize
    }
}

/// One node record: the dynamic type and the node's first slot in the
/// arena pool. The simulated address is derived, not stored.
#[derive(Clone, Copy, Debug)]
struct NodeRec {
    /// Dynamic type.
    class: ClassId,
    /// First slot in the pool.
    base: u32,
    /// Cleared by `delete`; accesses to dead nodes are runtime errors.
    alive: bool,
}

/// An arena of tree nodes with simulated addresses.
///
/// Field values of all nodes live in one contiguous slot pool; a node is
/// a `(class, base)` record into it. Addresses are bump-allocated in
/// allocation order, emulating the `malloc` behaviour of the paper's C++
/// implementation; tree construction order thus determines memory
/// locality, exactly as in the original evaluation.
///
/// The program and its [`Layouts`] are shared (`Arc`) so opening many
/// heaps against one compiled program — sessions, batch workers — costs
/// two reference bumps, not a program clone and a layout recomputation.
#[derive(Clone, Debug)]
pub struct Heap {
    program: Arc<Program>,
    layouts: Arc<Layouts>,
    nodes: Vec<NodeRec>,
    /// The slot arena: every node's flattened field values, contiguous.
    pool: Vec<Value>,
    live_bytes: u64,
}

impl Heap {
    /// Creates an empty heap for `program`.
    pub fn new(program: &Program) -> Self {
        let layouts = Arc::new(Layouts::new(program));
        Heap::with_shared(Arc::new(program.clone()), layouts)
    }

    /// Creates an empty heap over an already-shared program + layouts
    /// (what `Engine::new_heap` uses so sessions skip both the program
    /// clone and the layout computation).
    pub fn with_shared(program: Arc<Program>, layouts: Arc<Layouts>) -> Self {
        Heap {
            program,
            layouts,
            nodes: Vec::new(),
            pool: Vec::new(),
            live_bytes: 0,
        }
    }

    /// The program this heap belongs to.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The class layouts.
    pub fn layouts(&self) -> &Layouts {
        &self.layouts
    }

    /// Pre-sizes the arena for about `nodes` nodes totalling `slots`
    /// slots (builders that know their tree size avoid regrowth).
    pub fn reserve(&mut self, nodes: usize, slots: usize) {
        self.nodes.reserve(nodes);
        self.pool.reserve(slots);
    }

    /// [`Heap::reserve`] from a per-class census: builders that know how
    /// many nodes of each class they will allocate pre-size the arena
    /// without hand-rolling the slot arithmetic.
    pub fn reserve_classes(&mut self, counts: &[(ClassId, usize)]) {
        let nodes = counts.iter().map(|&(_, n)| n).sum();
        let slots = counts
            .iter()
            .map(|&(c, n)| n * self.layouts.size_of(c))
            .sum();
        self.reserve(nodes, slots);
    }

    /// Drops every node but keeps the arena's capacity, so the next tree
    /// built here allocates nothing and gets bit-identical simulated
    /// addresses to a fresh heap.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.pool.clear();
        self.live_bytes = 0;
    }

    /// Allocates a node of `class` with default field values.
    pub fn alloc(&mut self, class: ClassId) -> NodeId {
        let base = self.pool.len();
        assert!(base <= u32::MAX as usize, "slot arena overflow");
        self.pool.extend_from_slice(self.layouts.defaults(class));
        self.live_bytes += self.layouts.node_bytes(class);
        self.nodes.push(NodeRec {
            class,
            base: base as u32,
            alive: true,
        });
        NodeId((self.nodes.len() - 1) as u32)
    }

    /// Allocates a node by class name.
    pub fn alloc_by_name(&mut self, class: &str) -> Option<NodeId> {
        self.layouts.class_by_name(class).map(|c| self.alloc(c))
    }

    /// Checked record accessor.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale (node deleted).
    #[inline]
    fn rec(&self, id: NodeId) -> NodeRec {
        let r = self.nodes[id.index()];
        assert!(r.alive, "access to deleted node {id:?}");
        r
    }

    #[inline]
    fn slot_range(&self, r: NodeRec) -> std::ops::Range<usize> {
        let base = r.base as usize;
        base..base + self.layouts.size_of(r.class)
    }

    /// Dynamic type of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node was deleted — use [`Heap::class_of_raw`] to
    /// inspect dead nodes.
    #[inline]
    pub fn class_of(&self, id: NodeId) -> ClassId {
        self.rec(id).class
    }

    /// Dynamic type without the liveness check.
    #[inline]
    pub fn class_of_raw(&self, id: NodeId) -> ClassId {
        self.nodes[id.index()].class
    }

    /// Simulated base address of a node (valid for dead nodes too, like a
    /// dangling pointer's numeric value).
    #[inline]
    pub fn addr_of(&self, id: NodeId) -> u64 {
        let r = &self.nodes[id.index()];
        HEAP_BASE_ADDR + NODE_HEADER_BYTES * id.0 as u64 + SLOT_BYTES * r.base as u64
    }

    /// Simulated address of slot `slot` of a node, the one both execution
    /// tiers touch for a field access.
    #[inline]
    pub fn slot_addr(&self, id: NodeId, slot: usize) -> u64 {
        self.addr_of(id) + NODE_HEADER_BYTES + SLOT_BYTES * slot as u64
    }

    /// Whether the node is still live (not deleted).
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes[id.index()].alive
    }

    /// Reads slot `slot` of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node was deleted or the slot is out of range.
    #[inline]
    pub fn get(&self, id: NodeId, slot: usize) -> Value {
        let r = self.rec(id);
        assert!(
            slot < self.layouts.size_of(r.class),
            "slot {slot} out of range for node {id:?}"
        );
        self.pool[r.base as usize + slot]
    }

    /// Writes slot `slot` of a node (forced inline: the VM's write arms
    /// store through it on every tree write).
    ///
    /// # Panics
    ///
    /// Panics if the node was deleted or the slot is out of range.
    #[inline(always)]
    pub fn set(&mut self, id: NodeId, slot: usize, value: Value) {
        let r = self.rec(id);
        assert!(
            slot < self.layouts.size_of(r.class),
            "slot {slot} out of range for node {id:?}"
        );
        self.pool[r.base as usize + slot] = value;
    }

    /// The node's flattened field values.
    ///
    /// # Panics
    ///
    /// Panics if the node was deleted — use [`Heap::slots_raw`] to
    /// inspect dead nodes.
    #[inline]
    pub fn slots(&self, id: NodeId) -> &[Value] {
        let range = self.slot_range(self.rec(id));
        &self.pool[range]
    }

    /// The node's flattened field values without the liveness check.
    #[inline]
    pub fn slots_raw(&self, id: NodeId) -> &[Value] {
        let range = self.slot_range(self.nodes[id.index()]);
        &self.pool[range]
    }

    /// Iteratively deletes the subtree rooted at `id`, returning the
    /// number of nodes freed (so callers metering `free` costs don't
    /// need two whole-heap live scans around the call).
    pub fn delete_subtree(&mut self, id: NodeId) -> usize {
        let mut freed = 0;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let rec = self.nodes[n.index()];
            if !rec.alive {
                continue;
            }
            self.nodes[n.index()].alive = false;
            self.live_bytes -= self.layouts.node_bytes(rec.class);
            freed += 1;
            for v in &self.pool[self.slot_range(rec)] {
                if let Value::Ref(Some(child)) = v {
                    stack.push(*child);
                }
            }
        }
        freed
    }

    /// Number of nodes ever allocated (including deleted ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the heap has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of currently live nodes.
    pub fn live_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// Total bytes of live nodes (tree size, as reported in the paper's
    /// Tables 3 and 4).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    // ---- name-based convenience accessors (tests, builders) --------------

    fn slot_by_name(&self, id: NodeId, field: &str) -> Option<usize> {
        let class = self.nodes[id.index()].class;
        let (_, slot) = self.layouts.slot_by_name(&self.program, class, field)?;
        Some(slot)
    }

    /// Reads a field (or `struct.member` chain) by name.
    pub fn get_by_name(&self, id: NodeId, field: &str) -> Option<Value> {
        let slot = self.slot_by_name(id, field)?;
        Some(self.get(id, slot))
    }

    /// Writes a field by name.
    pub fn set_by_name(&mut self, id: NodeId, field: &str, value: Value) -> Option<()> {
        let slot = self.slot_by_name(id, field)?;
        self.set(id, slot, value);
        Some(())
    }

    /// Sets a child pointer by name, unchecked: [`Layouts::child_slot`]
    /// is the check a typed edit makes.
    pub fn set_child_by_name(
        &mut self,
        id: NodeId,
        field: &str,
        child: Option<NodeId>,
    ) -> Option<()> {
        self.set_by_name(id, field, Value::Ref(child))
    }

    /// Reads a child pointer by name.
    pub fn child_by_name(&self, id: NodeId, field: &str) -> Option<Option<NodeId>> {
        match self.get_by_name(id, field)? {
            Value::Ref(c) => Some(c),
            _ => None,
        }
    }

    /// Live nodes reachable from `root` in preorder (first-visit order of
    /// the depth-first walk the traversals themselves perform).
    ///
    /// Iterative — a 100k-node right spine is a loop, not 100k stack
    /// frames — and shares structure: a node reachable twice appears once.
    fn preorder(&self, root: NodeId) -> (HashMap<NodeId, usize>, Vec<NodeId>) {
        let mut order: HashMap<NodeId, usize> = HashMap::new();
        let mut list = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if order.contains_key(&id) {
                continue;
            }
            order.insert(id, list.len());
            list.push(id);
            // Children are pushed in reverse slot order so the first
            // child is visited first, matching a recursive descent.
            for v in self.slots(id).iter().rev() {
                if let Value::Ref(Some(c)) = v {
                    stack.push(*c);
                }
            }
        }
        (order, list)
    }

    /// Deterministic snapshot of all live nodes reachable from `root`, in
    /// preorder: `(class name, slot values)` with child refs replaced by
    /// preorder indices so snapshots of differently-allocated but
    /// structurally identical trees compare equal.
    pub fn snapshot(&self, root: NodeId) -> Vec<(String, Vec<SnapValue>)> {
        let (order, list) = self.preorder(root);
        list.iter()
            .map(|&id| {
                let vals = self
                    .slots(id)
                    .iter()
                    .map(|v| match v {
                        Value::Ref(Some(c)) => SnapValue::Child(order[c]),
                        Value::Ref(None) => SnapValue::Null,
                        Value::Int(v) => SnapValue::Int(*v),
                        Value::Float(v) => SnapValue::Float(*v),
                        Value::Bool(v) => SnapValue::Bool(*v),
                    })
                    .collect();
                (
                    self.program.classes[self.class_of(id).index()].name.clone(),
                    vals,
                )
            })
            .collect()
    }
}

/// A structural value used in heap snapshots (see [`Heap::snapshot`]).
#[derive(Clone, Debug)]
pub enum SnapValue {
    Int(i64),
    Float(f64),
    Bool(bool),
    Null,
    /// Preorder index of the referenced node.
    Child(usize),
}

/// Bit-level equality: two snapshots of structurally identical trees must
/// compare equal even when a field holds `NaN` (a derived `f64` equality
/// would make every NaN-carrying tree unequal to itself and spuriously
/// fail the fused==unfused differential suites).
impl PartialEq for SnapValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (SnapValue::Int(a), SnapValue::Int(b)) => a == b,
            (SnapValue::Float(a), SnapValue::Float(b)) => a.to_bits() == b.to_bits(),
            (SnapValue::Bool(a), SnapValue::Bool(b)) => a == b,
            (SnapValue::Null, SnapValue::Null) => true,
            (SnapValue::Child(a), SnapValue::Child(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for SnapValue {}

#[cfg(test)]
mod tests {
    use super::*;
    use grafter_frontend::compile;

    fn program() -> Program {
        compile(
            r#"
            struct Pair { int x; int y; }
            tree class Base {
                child Base* kid;
                int a = 7;
                virtual traversal nop() {}
            }
            tree class Derived : Base {
                Pair p;
                float f = 1.5;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn layouts_flatten_structs_and_inheritance() {
        let p = program();
        let l = Layouts::new(&p);
        let base = p.class_by_name("Base").unwrap();
        let derived = p.class_by_name("Derived").unwrap();
        // Base: kid + a = 2 slots; Derived adds p.x, p.y, f = 5 slots.
        assert_eq!(l.size_of(base), 2);
        assert_eq!(l.size_of(derived), 5);
        // Inherited fields keep their base-subobject offsets.
        let a = p.field_on_class(base, "a").unwrap();
        assert_eq!(l.slot_of(base, a), 1);
        assert_eq!(l.slot_of(derived, a), 1);
        // Struct member chain resolves to consecutive slots.
        let pf = p.field_on_class(derived, "p").unwrap();
        let pair = p.struct_by_name("Pair").unwrap();
        let y = p.field_on_struct(pair, "y").unwrap();
        assert_eq!(l.slot_of_chain(derived, &[pf, y]), 3);
        assert_eq!(l.node_bytes(derived), NODE_HEADER_BYTES + 5 * SLOT_BYTES);
    }

    #[test]
    fn defaults_honour_declared_literals() {
        let p = program();
        let l = Layouts::new(&p);
        let derived = p.class_by_name("Derived").unwrap();
        let d = l.defaults(derived);
        assert_eq!(d[0], Value::Ref(None)); // kid
        assert_eq!(d[1], Value::Int(7)); // a = 7
        assert_eq!(d[2], Value::Int(0)); // p.x
        assert_eq!(d[4], Value::Float(1.5)); // f = 1.5
    }

    #[test]
    fn addresses_are_bump_allocated_in_order() {
        let p = program();
        let mut heap = Heap::new(&p);
        let a = heap.alloc_by_name("Base").unwrap();
        let b = heap.alloc_by_name("Base").unwrap();
        let (aa, ab) = (heap.addr_of(a), heap.addr_of(b));
        assert_eq!(ab - aa, heap.layouts().node_bytes(heap.class_of(a)));
    }

    #[test]
    fn live_bytes_track_allocation_and_deletion() {
        let p = program();
        let mut heap = Heap::new(&p);
        let a = heap.alloc_by_name("Derived").unwrap();
        let kid = heap.alloc_by_name("Base").unwrap();
        heap.set_child_by_name(a, "kid", Some(kid)).unwrap();
        let before = heap.live_bytes();
        assert!(before > 0);
        heap.delete_subtree(a);
        assert_eq!(heap.live_bytes(), 0);
        assert_eq!(heap.live_count(), 0);
    }

    #[test]
    #[should_panic(expected = "deleted node")]
    fn dead_node_access_panics() {
        let p = program();
        let mut heap = Heap::new(&p);
        let a = heap.alloc_by_name("Base").unwrap();
        heap.delete_subtree(a);
        let _ = heap.class_of(a);
    }

    #[test]
    fn reset_reuses_the_arena_with_identical_addresses() {
        let p = program();
        let mut heap = Heap::new(&p);
        let a = heap.alloc_by_name("Derived").unwrap();
        let b = heap.alloc_by_name("Base").unwrap();
        heap.set_child_by_name(a, "kid", Some(b)).unwrap();
        let addrs = (heap.addr_of(a), heap.addr_of(b));
        let snap = heap.snapshot(a);
        let pool_cap = heap.pool.capacity();

        heap.reset();
        assert!(heap.is_empty());
        assert_eq!(heap.live_bytes(), 0);
        let a2 = heap.alloc_by_name("Derived").unwrap();
        let b2 = heap.alloc_by_name("Base").unwrap();
        heap.set_child_by_name(a2, "kid", Some(b2)).unwrap();
        assert_eq!((heap.addr_of(a2), heap.addr_of(b2)), addrs);
        assert_eq!(heap.snapshot(a2), snap);
        assert_eq!(heap.pool.capacity(), pool_cap, "reset keeps capacity");
    }

    #[test]
    fn nan_snapshots_compare_equal() {
        let p = program();
        let mut heap = Heap::new(&p);
        let a = heap.alloc_by_name("Derived").unwrap();
        heap.set_by_name(a, "f", Value::Float(f64::NAN)).unwrap();
        let s1 = heap.snapshot(a);
        let s2 = heap.snapshot(a);
        assert_eq!(s1, s2, "NaN fields must not break snapshot equality");
        assert_ne!(
            SnapValue::Float(1.0),
            SnapValue::Float(2.0),
            "distinct floats still differ"
        );
    }
}
