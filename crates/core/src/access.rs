//! Access-path extraction and access automata (paper §3.2).
//!
//! Every top-level statement of a traversal gets an [`AccessSummary`]: four
//! automata over [`PathSym`] describing the tree and global locations the
//! statement may read or write (relative to the node the enclosing function
//! is invoked on), plus flat sets for locals and a may-return flag. Every
//! summary automaton is ε-free and trimmed ([`Trimmed`]): it is built in
//! the flat construction form [`Nfa`] and trimmed once, so a dependence
//! test searches no epsilon move and no dead state.
//!
//! Simple statements produce unions of primitive path automata. Traversing
//! calls are summarised by Algorithm 1: a labelled call graph over all
//! *concrete* functions transitively reachable under dynamic dispatch, with
//! one automaton state per function and a back edge whenever a function is
//! revisited (so unbounded recursion appears as loops). That graph depends
//! only on the dispatch key — the called slot and the receiver's static
//! type — so it is built and trimmed once per key, relative to the
//! receiver; a call's automaton is its receiver
//! path followed by a flat copy of its key's automaton.
//!
//! [`ProgramAccesses`] computes each of these once per program: a
//! statement's summary, a call's dispatch targets and automata, and the
//! conflict verdict of a pair of summaries.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::time::{Duration, Instant};

use grafter_automata::{Nfa, PathSym, Search, StateId, Trimmed};
use grafter_frontend::{
    ClassId, DataAccess, Expr, FieldId, GlobalId, LocalId, MethodId, NodePath, Program, Stmt,
    TraverseStmt,
};

use crate::explain::ConflictKind;

/// The automata alphabet symbol of a field.
pub fn field_sym(field: FieldId) -> PathSym {
    PathSym::Field(field.0)
}

/// The automata alphabet symbol of a global variable.
///
/// Globals live in a disjoint symbol range above all fields.
pub fn global_sym(program: &Program, global: GlobalId) -> PathSym {
    PathSym::Field(program.n_fields() as u32 + global.0)
}

/// Summary of the locations one top-level statement may touch.
///
/// Summaries compare and hash by structure, which is how
/// [`ProgramAccesses`] interns them: statements that touch the same
/// locations the same way (`G = 1;` and `G = 2;`) share one summary.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AccessSummary {
    /// On-tree reads, rooted at the traversed-node transition.
    pub tree_reads: Trimmed<PathSym>,
    /// On-tree writes.
    pub tree_writes: Trimmed<PathSym>,
    /// Off-tree (global) reads.
    pub global_reads: Trimmed<PathSym>,
    /// Off-tree (global) writes.
    pub global_writes: Trimmed<PathSym>,
    /// Locals read (conflated per variable — sound, locals are scalar or
    /// small structs).
    pub local_reads: Vec<LocalId>,
    /// Locals written.
    pub local_writes: Vec<LocalId>,
    /// Whether executing the statement may terminate the traversal.
    pub may_return: bool,
}

impl AccessSummary {
    /// The first conflict between this statement and a later statement
    /// `other` when both execute with the same `this` binding, or `None`
    /// if they touch no common location with at least one of them writing.
    ///
    /// Tree accesses are tested first, then globals, then locals; within
    /// each, write/read, write/write and read/write, in that order.
    /// `same_frame` enables local-variable conflicts; it is true only for
    /// statements originating from the same traversal copy in a merged
    /// function (inlined copies have disjoint frames).
    pub fn conflict(&self, other: &AccessSummary, same_frame: bool) -> Option<ConflictKind> {
        self.data_conflict(other, &mut Search::default())
            .or_else(|| (same_frame && self.shares_local(other)).then_some(ConflictKind::Local))
    }

    /// The first tree or global conflict of [`AccessSummary::conflict`],
    /// searching with `search`.
    fn data_conflict(&self, other: &AccessSummary, search: &mut Search) -> Option<ConflictKind> {
        let tests = [
            (
                &self.tree_writes,
                &other.tree_reads,
                ConflictKind::TreeWriteRead,
            ),
            (
                &self.tree_writes,
                &other.tree_writes,
                ConflictKind::TreeWriteWrite,
            ),
            (
                &self.tree_reads,
                &other.tree_writes,
                ConflictKind::TreeReadWrite,
            ),
            (
                &self.global_writes,
                &other.global_reads,
                ConflictKind::GlobalWriteRead,
            ),
            (
                &self.global_writes,
                &other.global_writes,
                ConflictKind::GlobalWriteWrite,
            ),
            (
                &self.global_reads,
                &other.global_writes,
                ConflictKind::GlobalReadWrite,
            ),
        ];
        tests
            .into_iter()
            .find(|(a, b, _)| a.intersects(b, search))
            .map(|(_, _, kind)| kind)
    }

    /// Whether the two statements touch a common local with at least one
    /// of them writing it.
    fn shares_local(&self, other: &AccessSummary) -> bool {
        let hit = |a: &[LocalId], b: &[LocalId]| a.iter().any(|x| b.contains(x));
        hit(&self.local_writes, &other.local_reads)
            || hit(&self.local_writes, &other.local_writes)
            || hit(&self.local_reads, &other.local_writes)
    }
}

/// The accesses of a statement being summarised, in construction form.
struct Collect {
    tree_reads: Nfa<PathSym>,
    tree_writes: Nfa<PathSym>,
    global_reads: Nfa<PathSym>,
    global_writes: Nfa<PathSym>,
    local_reads: Vec<LocalId>,
    local_writes: Vec<LocalId>,
    may_return: bool,
}

impl Collect {
    fn new() -> Self {
        Collect {
            tree_reads: Nfa::new(),
            tree_writes: Nfa::new(),
            global_reads: Nfa::new(),
            global_writes: Nfa::new(),
            local_reads: Vec::new(),
            local_writes: Vec::new(),
            may_return: false,
        }
    }

    fn finish(self) -> AccessSummary {
        AccessSummary {
            tree_reads: self.tree_reads.trim(),
            tree_writes: self.tree_writes.trim(),
            global_reads: self.global_reads.trim(),
            global_writes: self.global_writes.trim(),
            local_reads: self.local_reads,
            local_writes: self.local_writes,
            may_return: self.may_return,
        }
    }
}

/// Adds the path automaton of [`Nfa::from_path`] to `nfa`'s language.
fn add_word(nfa: &mut Nfa<PathSym>, path: &[PathSym], prefixes_accept: bool) -> StateId {
    let start = nfa.start();
    let last = nfa.add_path(start, path, prefixes_accept);
    nfa.set_accepting(last, true);
    last
}

/// Everything a dispatch of one slot on a node of one static type may
/// touch: Algorithm 1's call graph over the concrete functions the
/// dispatch reaches, with every statement of theirs attached at its
/// function's state. Tree paths are relative to the receiver (no `Root`).
struct DispatchAutomata {
    reads: Trimmed<PathSym>,
    writes: Trimmed<PathSym>,
    global_reads: Trimmed<PathSym>,
    global_writes: Trimmed<PathSym>,
}

/// The id [`ProgramAccesses`] interns a distinct summary under.
pub(crate) type SummaryId = u32;

/// A top-level statement: its method and its index in the method's body.
type StmtKey = (MethodId, usize);

/// A hash map keyed by tuples of program ids, hashed by [`IdHasher`].
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiply-rotate hasher (the Fx construction) for the memo keys and
/// the summary interner. The keys are tuples of dense ids the compiler
/// assigns (method, class, statement index, summary id) and summaries
/// made of those ids, so SipHash's resistance to chosen keys buys little
/// here and costs a summary's worth of rounds per lookup.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Every class's supertypes, itself included, as one bitset per class,
/// built once per program: the common-supertype tests of call grouping
/// and the concrete subtypes of a dispatch read these instead of walking
/// `supers`.
#[derive(Clone, Debug)]
pub(crate) struct Hierarchy {
    words: usize,
    up: Vec<u64>,
}

impl Hierarchy {
    /// The hierarchy of classes whose direct supertypes are `supers[c]`
    /// (several are allowed).
    pub(crate) fn new<'a>(supers: impl ExactSizeIterator<Item = &'a [ClassId]>) -> Self {
        let supers: Vec<&[ClassId]> = supers.collect();
        let words = supers.len().div_ceil(64).max(1);
        let mut up = vec![0u64; supers.len() * words];
        let mut stack = Vec::new();
        for c in 0..supers.len() {
            let row = &mut up[c * words..(c + 1) * words];
            stack.push(c);
            while let Some(x) = stack.pop() {
                if row[x / 64] & (1 << (x % 64)) == 0 {
                    row[x / 64] |= 1 << (x % 64);
                    stack.extend(supers[x].iter().map(|s| s.index()));
                }
            }
        }
        Hierarchy { words, up }
    }

    /// `class` and all its transitive supertypes, as a bitset.
    pub(crate) fn up(&self, class: ClassId) -> &[u64] {
        &self.up[class.index() * self.words..(class.index() + 1) * self.words]
    }

    /// Whether `sub` is `sup` or a transitive subtype of it
    /// ([`Program::is_subtype`]).
    fn is_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        let i = sup.index();
        self.up(sub)[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether the two classes have a common supertype, i.e. whether
    /// [`Program::least_common_ancestor`] of them is `Some`.
    pub(crate) fn share_supertype(&self, a: ClassId, b: ClassId) -> bool {
        self.up(a).iter().zip(self.up(b)).any(|(x, y)| x & y != 0)
    }
}

/// Cached per-statement access summaries for a whole program, the
/// dispatch targets and automata of its calls, and a memo of the conflicts
/// between summaries.
///
/// Call summaries depend on the *static receiver context* (the class whose
/// method contains the call), so statements are looked up by
/// `(method, stmt index)`. Each statement's summary is interned: equal
/// summaries get one id and are stored once, however many
/// statements share them. Dispatch automata are built once per
/// `(slot, static type)` key, whatever number of calls use the key.
///
/// The dependence graphs ask for conflicts by summary id, through a memo
/// of tree and global verdicts per ordered pair of ids: the automata of a
/// pair are intersected once per program however many statement pairs and
/// graphs share it (locals, which need the frame, are compared on top).
/// The product searches share one [`Search`] scratch, which also counts
/// their work.
pub struct ProgramAccesses<'p> {
    program: &'p Program,
    hierarchy: Hierarchy,
    stmt_ids: IdMap<StmtKey, SummaryId>,
    /// Distinct summaries by id; `interned` maps each back to its id.
    summaries: Vec<Rc<AccessSummary>>,
    interned: IdMap<Rc<AccessSummary>, SummaryId>,
    concrete: IdMap<ClassId, Rc<[ClassId]>>,
    resolved: IdMap<(ClassId, MethodId), Option<MethodId>>,
    dispatch: IdMap<(MethodId, ClassId), Rc<[MethodId]>>,
    dispatch_automata: IdMap<(MethodId, ClassId), Rc<DispatchAutomata>>,
    conflicts: IdMap<(SummaryId, SummaryId), Option<ConflictKind>>,
    search: Search,
    /// Wall time [`ProgramAccesses::summary`] spent building summaries.
    summary_time: Duration,
}

impl<'p> ProgramAccesses<'p> {
    /// Creates an empty cache over `program`.
    pub fn new(program: &'p Program) -> Self {
        ProgramAccesses {
            program,
            hierarchy: Hierarchy::new(program.classes.iter().map(|c| c.supers.as_slice())),
            stmt_ids: IdMap::default(),
            summaries: Vec::new(),
            interned: IdMap::default(),
            concrete: IdMap::default(),
            resolved: IdMap::default(),
            dispatch: IdMap::default(),
            dispatch_automata: IdMap::default(),
            conflicts: IdMap::default(),
            search: Search::default(),
            summary_time: Duration::ZERO,
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Summary for top-level statement `index` of `method`, computed on
    /// first request.
    pub fn summary(&mut self, method: MethodId, index: usize) -> &AccessSummary {
        let id = self.summary_id((method, index));
        &self.summaries[id as usize]
    }

    /// The interned summary id of a statement, computed on first request.
    pub(crate) fn summary_id(&mut self, key: StmtKey) -> SummaryId {
        if let Some(&id) = self.stmt_ids.get(&key) {
            return id;
        }
        let t0 = Instant::now();
        let id = self.stmt_summary(key);
        self.summary_time += t0.elapsed();
        id
    }

    /// The summary interned under `id`.
    pub(crate) fn summary_by_id(&self, id: SummaryId) -> &AccessSummary {
        &self.summaries[id as usize]
    }

    /// Number of distinct summaries interned so far.
    pub(crate) fn n_summaries(&self) -> usize {
        self.summaries.len()
    }

    /// Wall time spent building summaries so far (call automata included;
    /// a summary built inside another is counted once, in the outer one).
    pub(crate) fn summary_time(&self) -> Duration {
        self.summary_time
    }

    /// The product-search scratch, with its counts of searches run and
    /// state pairs expanded.
    pub(crate) fn search(&self) -> &Search {
        &self.search
    }

    /// The program's class hierarchy as supertype bitsets.
    pub(crate) fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The summary id of `key`, building and interning its summary unless
    /// the statement has one.
    fn stmt_summary(&mut self, key: StmtKey) -> SummaryId {
        if let Some(&id) = self.stmt_ids.get(&key) {
            return id;
        }
        let m = &self.program.methods[key.0.index()];
        let stmt = &m.body[key.1];
        let mut c = Collect::new();
        self.collect_stmt(stmt, m.class, &mut c);
        let summary = c.finish();
        let id = match self.interned.get(&summary) {
            Some(&id) => id,
            None => {
                let id = SummaryId::try_from(self.summaries.len()).expect("summary ids fit in u32");
                let summary = Rc::new(summary);
                self.summaries.push(Rc::clone(&summary));
                self.interned.insert(summary, id);
                id
            }
        };
        self.stmt_ids.insert(key, id);
        id
    }

    /// Every concrete type a node statically typed `class` may have:
    /// [`Program::concrete_subtypes`], computed once per class.
    pub(crate) fn concrete_subtypes(&mut self, class: ClassId) -> Rc<[ClassId]> {
        let (program, hierarchy) = (self.program, &self.hierarchy);
        let subtypes = self.concrete.entry(class).or_insert_with(|| {
            (0..program.classes.len() as u32)
                .map(ClassId)
                .filter(|&c| hierarchy.is_subtype(c, class))
                .collect()
        });
        Rc::clone(subtypes)
    }

    /// [`Program::resolve_virtual`], computed once per `(class, slot)`.
    pub(crate) fn resolve_virtual(&mut self, class: ClassId, slot: MethodId) -> Option<MethodId> {
        let program = self.program;
        *self
            .resolved
            .entry((class, slot))
            .or_insert_with(|| program.resolve_virtual(class, slot))
    }

    /// The concrete methods a call of `slot` on a node of static type
    /// `static_ty` may dispatch to: [`Program::concrete_subtypes`] in
    /// order, each resolved by [`Program::resolve_virtual`] (classes that
    /// do not resolve are left out). Resolved once per program.
    pub fn dispatch_targets(&mut self, slot: MethodId, static_ty: ClassId) -> Rc<[MethodId]> {
        if let Some(targets) = self.dispatch.get(&(slot, static_ty)) {
            return Rc::clone(targets);
        }
        let targets: Rc<[MethodId]> = self
            .concrete_subtypes(static_ty)
            .iter()
            .filter_map(|&concrete| self.resolve_virtual(concrete, slot))
            .collect();
        self.dispatch.insert((slot, static_ty), Rc::clone(&targets));
        targets
    }

    /// The first tree or global conflict between the summaries `first`
    /// and `second` (a later statement's), computed on first request for
    /// each ordered pair.
    fn data_conflict(&mut self, first: SummaryId, second: SummaryId) -> Option<ConflictKind> {
        if let Some(&kind) = self.conflicts.get(&(first, second)) {
            return kind;
        }
        let kind = self.summaries[first as usize]
            .data_conflict(&self.summaries[second as usize], &mut self.search);
        self.conflicts.insert((first, second), kind);
        kind
    }

    /// Whether summary `first` conflicts with a later `second`, for
    /// statements of different traversal copies (`[0]`) and of the same
    /// copy (`[1]`, where locals count too).
    pub(crate) fn conflicts_by_frame(&mut self, first: SummaryId, second: SummaryId) -> [bool; 2] {
        if self.data_conflict(first, second).is_some() {
            return [true; 2];
        }
        let (a, b) = (
            &self.summaries[first as usize],
            &self.summaries[second as usize],
        );
        [false, a.shares_local(b)]
    }

    /// The first conflict between statement `first` and a later statement
    /// `second` ([`AccessSummary::conflict`] on their summaries), from the
    /// memo of their summaries' verdicts.
    pub(crate) fn conflict(
        &mut self,
        first: StmtKey,
        second: StmtKey,
        same_frame: bool,
    ) -> Option<ConflictKind> {
        let (a, b) = (self.summary_id(first), self.summary_id(second));
        self.data_conflict(a, b).or_else(|| {
            let shares = self.summaries[a as usize].shares_local(&self.summaries[b as usize]);
            (same_frame && shares).then_some(ConflictKind::Local)
        })
    }

    fn collect_stmt(&mut self, stmt: &Stmt, class: ClassId, s: &mut Collect) {
        match stmt {
            Stmt::Traverse(call) => self.collect_call(call, class, s),
            Stmt::Assign { target, value } => {
                self.collect_expr(value, s);
                self.collect_access(target, true, s);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.collect_expr(cond, s);
                for st in then_branch.iter().chain(else_branch) {
                    self.collect_stmt(st, class, s);
                }
            }
            Stmt::LocalDef { local, init } => {
                if let Some(init) = init {
                    self.collect_expr(init, s);
                }
                push_unique(&mut s.local_writes, *local);
            }
            Stmt::New { target, class: _ } | Stmt::Delete { target } => {
                // A topology mutation writes the node location and any
                // possible sub-field of the (old or new) subtree, and reads
                // the path prefix leading there.
                let path = on_tree_syms(target, &[]);
                let last = add_word(&mut s.tree_writes, &path, false);
                // Every state on the loop accepts: the node and all
                // descendants are clobbered.
                s.tree_writes.add_transition(last, PathSym::Any, last);
                if path.len() > 1 {
                    add_word(&mut s.tree_reads, &path[..path.len() - 1], true);
                }
            }
            Stmt::Return => s.may_return = true,
            Stmt::PureStmt { args, .. } => {
                for a in args {
                    self.collect_expr(a, s);
                }
            }
        }
    }

    fn collect_expr(&self, expr: &Expr, s: &mut Collect) {
        match expr {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) => {}
            Expr::Read(access) => self.collect_access(access, false, s),
            Expr::Unary(_, e) => self.collect_expr(e, s),
            Expr::Binary(_, l, r) => {
                self.collect_expr(l, s);
                self.collect_expr(r, s);
            }
            Expr::PureCall(_, args) => {
                for a in args {
                    self.collect_expr(a, s);
                }
            }
        }
    }

    fn collect_access(&self, access: &DataAccess, is_write: bool, s: &mut Collect) {
        match access {
            DataAccess::OnTree { path, data } => {
                let syms = on_tree_syms(path, data);
                if is_write {
                    add_word(&mut s.tree_writes, &syms, false);
                    if syms.len() > 1 {
                        add_word(&mut s.tree_reads, &syms[..syms.len() - 1], true);
                    }
                } else {
                    add_word(&mut s.tree_reads, &syms, true);
                }
            }
            DataAccess::Local { local, .. } => {
                if is_write {
                    push_unique(&mut s.local_writes, *local);
                } else {
                    push_unique(&mut s.local_reads, *local);
                }
            }
            DataAccess::Global { global, members } => {
                let mut syms = vec![global_sym(self.program, *global)];
                syms.extend(members.iter().map(|&f| field_sym(f)));
                // An off-tree access ending at a non-primitive (struct)
                // value touches any member within it; `members` resolves to
                // a primitive here, so no wildcard suffix is needed unless
                // the access names the struct itself (writes to whole
                // struct are rejected by sema).
                if is_write {
                    add_word(&mut s.global_writes, &syms, false);
                    if syms.len() > 1 {
                        add_word(&mut s.global_reads, &syms[..syms.len() - 1], true);
                    }
                } else {
                    add_word(&mut s.global_reads, &syms, true);
                }
            }
        }
    }

    // ---- Algorithm 1: call automata ---------------------------------------

    /// Summarises a traversing call in the context of a method of `class`:
    /// the root transition, the receiver path (each step reads its child
    /// pointer), then the automata of the call's dispatch key. Argument
    /// expressions are evaluated in the caller's frame and contribute
    /// caller-level accesses.
    fn collect_call(&mut self, call: &TraverseStmt, class: ClassId, s: &mut Collect) {
        for a in &call.args {
            self.collect_expr(a, s);
        }
        let Some(static_ty) = self.program.path_target_type(class, &call.receiver) else {
            return;
        };
        let dispatch = self.dispatch_automata(call.slot, static_ty);
        let steps = receiver_syms(&call.receiver);
        let start = s.tree_reads.start();
        let root = s.tree_reads.add_path(start, &[PathSym::Root], false);
        let at = s.tree_reads.add_path(root, &steps, true);
        s.tree_reads.attach(at, &dispatch.reads);
        let start = s.tree_writes.start();
        let root = s.tree_writes.add_path(start, &[PathSym::Root], false);
        let at = s.tree_writes.add_path(root, &steps, false);
        s.tree_writes.attach(at, &dispatch.writes);
        let start = s.global_reads.start();
        s.global_reads.attach(start, &dispatch.global_reads);
        let start = s.global_writes.start();
        s.global_writes.attach(start, &dispatch.global_writes);
    }

    /// The automata of a dispatch of `slot` on static type `static_ty`,
    /// built and trimmed on first request.
    fn dispatch_automata(&mut self, slot: MethodId, static_ty: ClassId) -> Rc<DispatchAutomata> {
        if let Some(automata) = self.dispatch_automata.get(&(slot, static_ty)) {
            return Rc::clone(automata);
        }
        let mut builder = DispatchBuilder {
            reads: Nfa::new(),
            writes: Nfa::new(),
            global_reads: Nfa::new(),
            global_writes: Nfa::new(),
            fn_state: IdMap::default(),
            hubs: IdMap::default(),
            attached: HashSet::default(),
        };
        let from = (builder.reads.start(), builder.writes.start());
        builder.append_dispatch(self, slot, static_ty, from);
        let automata = Rc::new(DispatchAutomata {
            reads: builder.reads.trim(),
            writes: builder.writes.trim(),
            global_reads: builder.global_reads.trim(),
            global_writes: builder.global_writes.trim(),
        });
        self.dispatch_automata
            .insert((slot, static_ty), Rc::clone(&automata));
        automata
    }
}

/// Algorithm 1's call graph for one dispatch key, in construction form.
struct DispatchBuilder {
    reads: Nfa<PathSym>,
    writes: Nfa<PathSym>,
    global_reads: Nfa<PathSym>,
    global_writes: Nfa<PathSym>,
    /// Memo: one (reads, writes) state pair per concrete function — the
    /// paper's `FunctionToState`, guaranteeing termination and representing
    /// recursion as automaton loops.
    fn_state: IdMap<MethodId, (StateId, StateId)>,
    /// One (reads, writes) state pair per nested dispatch key, where the
    /// last receiver step of every call of that key lands. Calls sharing a
    /// key share its dispatch edges, so trimming copies the targets' edges
    /// once per key, not once per call.
    hubs: IdMap<(MethodId, ClassId), (StateId, StateId)>,
    /// The summaries attached so far, with the reads state of the
    /// function they were attached at (`StateId::MAX` for their globals).
    attached: HashSet<(SummaryId, StateId), BuildHasherDefault<IdHasher>>,
}

impl DispatchBuilder {
    /// Expands a virtual dispatch of `slot` on a node whose static type is
    /// `static_ty`, linking from `from` (a (reads, writes) state pair).
    fn append_dispatch(
        &mut self,
        accesses: &mut ProgramAccesses<'_>,
        slot: MethodId,
        static_ty: ClassId,
        from: (StateId, StateId),
    ) {
        for &target in accesses.dispatch_targets(slot, static_ty).iter() {
            let state = self.append_function(accesses, target);
            // Dispatch consumes no member access: link with epsilon.
            self.reads.add_epsilon(from.0, state.0);
            self.writes.add_epsilon(from.1, state.1);
        }
    }

    /// Returns the state pair of a concrete function, creating and filling
    /// it on first encounter.
    fn append_function(
        &mut self,
        accesses: &mut ProgramAccesses<'_>,
        method: MethodId,
    ) -> (StateId, StateId) {
        if let Some(&st) = self.fn_state.get(&method) {
            return st;
        }
        let st = (self.reads.add_state(), self.writes.add_state());
        self.fn_state.insert(method, st);
        for index in 0..accesses.program.methods[method.index()].body.len() {
            self.append_stmt(accesses, (method, index), st);
        }
        st
    }

    fn append_stmt(
        &mut self,
        accesses: &mut ProgramAccesses<'_>,
        key: StmtKey,
        at: (StateId, StateId),
    ) {
        let program = accesses.program;
        let m = &program.methods[key.0.index()];
        if let Stmt::Traverse(call) = &m.body[key.1] {
            // Argument accesses happen in the callee's caller frame (this
            // function); attach them at `at`.
            if !call.args.is_empty() {
                let mut args = Collect::new();
                for a in &call.args {
                    accesses.collect_expr(a, &mut args);
                }
                self.attach_summary(&args.finish(), at);
            }
            // Walk the receiver path, then dispatch.
            let steps = receiver_syms(&call.receiver);
            let static_ty = program.path_target_type(m.class, &call.receiver);
            match (static_ty, steps.split_last()) {
                (Some(static_ty), Some((last, steps))) => {
                    let reads = self.reads.add_path(at.0, steps, true);
                    let writes = self.writes.add_path(at.1, steps, false);
                    let hub = self.hub(accesses, call.slot, static_ty);
                    self.reads.add_transition(reads, *last, hub.0);
                    self.writes.add_transition(writes, *last, hub.1);
                }
                (Some(static_ty), None) => self.append_dispatch(accesses, call.slot, static_ty, at),
                (None, _) => {
                    self.reads.add_path(at.0, &steps, true);
                    self.writes.add_path(at.1, &steps, false);
                }
            }
        } else {
            // A statement equal to one attached already adds no word: its
            // tree accesses once per function, its global ones once.
            let id = accesses.stmt_summary(key);
            let summary = Rc::clone(&accesses.summaries[id as usize]);
            if self.attached.insert((id, at.0)) {
                attach_relative(&mut self.reads, &summary.tree_reads, at.0);
                attach_relative(&mut self.writes, &summary.tree_writes, at.1);
            }
            if self.attached.insert((id, StateId::MAX)) {
                self.attach_globals(&summary);
            }
        }
    }

    /// The state pair a call of `slot` on static type `static_ty` enters
    /// by its last receiver step (the reads side accepts: the step reads
    /// the child pointer), created and linked to the dispatch on first use.
    fn hub(
        &mut self,
        accesses: &mut ProgramAccesses<'_>,
        slot: MethodId,
        static_ty: ClassId,
    ) -> (StateId, StateId) {
        if let Some(&hub) = self.hubs.get(&(slot, static_ty)) {
            return hub;
        }
        let hub = (self.reads.add_state(), self.writes.add_state());
        self.reads.set_accepting(hub.0, true);
        self.hubs.insert((slot, static_ty), hub);
        self.append_dispatch(accesses, slot, static_ty, hub);
        hub
    }

    /// Attaches a statement's accesses at the function state pair `at`:
    /// its tree paths relative to the function's node, its global paths
    /// from the start.
    fn attach_summary(&mut self, summary: &AccessSummary, at: (StateId, StateId)) {
        attach_relative(&mut self.reads, &summary.tree_reads, at.0);
        attach_relative(&mut self.writes, &summary.tree_writes, at.1);
        self.attach_globals(summary);
    }

    fn attach_globals(&mut self, summary: &AccessSummary) {
        let start = self.global_reads.start();
        self.global_reads.attach(start, &summary.global_reads);
        let start = self.global_writes.start();
        self.global_writes.attach(start, &summary.global_writes);
    }
}

/// Attaches a statement-level on-tree automaton (whose words begin with
/// the traversed-node transition) into `target`, rebasing it at `state`:
/// each `Root` edge of its start becomes an epsilon from `state`, so the
/// attached accesses become relative to the function the statement
/// belongs to. (A trimmed on-tree automaton has `Root` edges only, and
/// only out of its start.)
fn attach_relative(target: &mut Nfa<PathSym>, stmt_automaton: &Trimmed<PathSym>, state: StateId) {
    if let Some(offset) = target.embed(stmt_automaton) {
        for &(sym, to) in stmt_automaton.edges(0) {
            debug_assert_eq!(sym, PathSym::Root, "on-tree words start at the node");
            target.add_epsilon(state, offset + to as usize);
        }
    }
}

/// The symbols of a receiver path's child steps.
fn receiver_syms(path: &NodePath) -> Vec<PathSym> {
    path.steps
        .iter()
        .map(|step| field_sym(step.field))
        .collect()
}

/// The symbol path of an on-tree access: `Root`, the child steps, then the
/// data member steps.
fn on_tree_syms(path: &NodePath, data: &[FieldId]) -> Vec<PathSym> {
    let mut syms = vec![PathSym::Root];
    syms.extend(path.fields().map(field_sym));
    syms.extend(data.iter().map(|&f| field_sym(f)));
    syms
}

fn push_unique(v: &mut Vec<LocalId>, x: LocalId) {
    if !v.contains(&x) {
        v.push(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafter_frontend::compile;

    fn fig2() -> Program {
        compile(
            r#"
            global int CHAR_WIDTH = 8;
            struct String { int Length; }
            struct BorderInfo { int Size; }
            tree class Element {
                child Element* Next;
                int Height = 0; int Width = 0;
                int MaxHeight = 0; int TotalWidth = 0;
                virtual traversal computeWidth() {}
                virtual traversal computeHeight() {}
            }
            tree class TextBox : public Element {
                String Text;
                traversal computeWidth() {
                    Next->computeWidth();
                    Width = Text.Length;
                    TotalWidth = Next.Width + Width;
                }
                traversal computeHeight() {
                    Next->computeHeight();
                    Height = Text.Length * (Width / CHAR_WIDTH) + 1;
                    MaxHeight = Height;
                    if (Next.Height > Height) { MaxHeight = Next.Height; }
                }
            }
            tree class Group : public Element {
                child Element* Content;
                BorderInfo Border;
                traversal computeWidth() {
                    Content->computeWidth();
                    Next->computeWidth();
                    Width = Content.Width + Border.Size * 2;
                    TotalWidth = Width + Next.Width;
                }
                traversal computeHeight() {
                    Content->computeHeight();
                    Next->computeHeight();
                    Height = Content.MaxHeight + Border.Size * 2;
                    MaxHeight = Height;
                    if (Next.Height > Height) { MaxHeight = Next.Height; }
                }
            }
            tree class End : public Element { }
            "#,
        )
        .expect("fig2 compiles")
    }

    #[test]
    fn simple_statement_reads_and_writes() {
        let p = fig2();
        let mut acc = ProgramAccesses::new(&p);
        let tb = p.class_by_name("TextBox").unwrap();
        let m = p.method_on_class(tb, "computeWidth").unwrap();
        // statement 1: `Width = Text.Length;`
        let s = acc.summary(m, 1).clone();
        let width = p.field_on_class(tb, "Width").unwrap();
        let text = p.field_on_class(tb, "Text").unwrap();
        let length = p
            .field_on_struct(p.struct_by_name("String").unwrap(), "Length")
            .unwrap();
        assert!(s.tree_writes.accepts(&[PathSym::Root, field_sym(width)]));
        assert!(s
            .tree_reads
            .accepts(&[PathSym::Root, field_sym(text), field_sym(length)]));
        assert!(!s.tree_reads.accepts(&[PathSym::Root, field_sym(width)]));
        assert!(!s.may_return);
    }

    #[test]
    fn global_reads_are_off_tree() {
        let p = fig2();
        let mut acc = ProgramAccesses::new(&p);
        let tb = p.class_by_name("TextBox").unwrap();
        let m = p.method_on_class(tb, "computeHeight").unwrap();
        // statement 1 reads CHAR_WIDTH.
        let s = acc.summary(m, 1).clone();
        let g = p.global_by_name("CHAR_WIDTH").unwrap();
        assert!(s.global_reads.accepts(&[global_sym(&p, g)]));
        assert!(s.global_writes.is_empty());
    }

    #[test]
    fn call_automata_cover_recursive_accesses() {
        let p = fig2();
        let mut acc = ProgramAccesses::new(&p);
        let group = p.class_by_name("Group").unwrap();
        let m = p.method_on_class(group, "computeWidth").unwrap();
        // statement 0: `Content->computeWidth();`
        let s = acc.summary(m, 0).clone();
        let content = p.field_on_class(group, "Content").unwrap();
        let next = p.field_on_class(group, "Next").unwrap();
        let width = p.field_on_class(group, "Width").unwrap();

        // The call writes Content.Width, Content.Next.Width (TextBox body
        // reached through dispatch), and arbitrarily deep Next chains.
        let w = |path: &[PathSym]| s.tree_writes.accepts(path);
        assert!(w(&[PathSym::Root, field_sym(content), field_sym(width)]));
        assert!(w(&[
            PathSym::Root,
            field_sym(content),
            field_sym(next),
            field_sym(width)
        ]));
        assert!(w(&[
            PathSym::Root,
            field_sym(content),
            field_sym(next),
            field_sym(next),
            field_sym(width)
        ]));
        // Nested Group content too (mutual recursion through the hierarchy).
        assert!(w(&[
            PathSym::Root,
            field_sym(content),
            field_sym(content),
            field_sym(width)
        ]));
        // But never writes anything outside the Content subtree.
        assert!(!w(&[PathSym::Root, field_sym(width)]));
        assert!(!w(&[PathSym::Root, field_sym(next), field_sym(width)]));
    }

    #[test]
    fn call_automata_include_global_reads_of_callees() {
        let p = fig2();
        let mut acc = ProgramAccesses::new(&p);
        let group = p.class_by_name("Group").unwrap();
        let m = p.method_on_class(group, "computeHeight").unwrap();
        // statement 0: `Content->computeHeight();` — TextBox::computeHeight
        // reads CHAR_WIDTH, so the call summary must include it.
        let s = acc.summary(m, 0).clone();
        let g = p.global_by_name("CHAR_WIDTH").unwrap();
        assert!(s.global_reads.accepts(&[global_sym(&p, g)]));
    }

    #[test]
    fn dependent_statements_conflict() {
        let p = fig2();
        let mut acc = ProgramAccesses::new(&p);
        let tb = p.class_by_name("TextBox").unwrap();
        let m = p.method_on_class(tb, "computeWidth").unwrap();
        let s1 = acc.summary(m, 1).clone(); // Width = Text.Length
        let s2 = acc.summary(m, 2).clone(); // TotalWidth = Next.Width + Width
        assert_eq!(
            s1.conflict(&s2, true),
            Some(ConflictKind::TreeWriteRead),
            "s2 reads Width written by s1"
        );
        assert_eq!(
            s2.conflict(&s1, true),
            Some(ConflictKind::TreeReadWrite),
            "conflict is symmetric"
        );
    }

    #[test]
    fn independent_traversals_do_not_conflict() {
        // incA touches only `a`, incB only `b` — no conflicts anywhere.
        let p = compile(
            r#"
            tree class Node {
                child Node* next;
                int a = 0; int b = 0;
                virtual traversal incA() {}
                virtual traversal incB() {}
            }
            tree class Cons : Node {
                traversal incA() { a = a + 1; this->next->incA(); }
                traversal incB() { b = b + 1; this->next->incB(); }
            }
            tree class End : Node { }
            "#,
        )
        .unwrap();
        let mut acc = ProgramAccesses::new(&p);
        let cons = p.class_by_name("Cons").unwrap();
        let ma = p.method_on_class(cons, "incA").unwrap();
        let mb = p.method_on_class(cons, "incB").unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let sa = acc.summary(ma, i).clone();
                let sb = acc.summary(mb, j).clone();
                assert_eq!(
                    sa.conflict(&sb, false),
                    None,
                    "incA[{i}] vs incB[{j}] must be independent"
                );
            }
        }
    }

    /// `new` and `delete`, whose write automata end in a wildcard loop.
    fn mutation() -> Program {
        compile(
            r#"
            tree class E { virtual traversal f() {} virtual traversal g() {} }
            tree class N : E {
                child E* kid;
                int x = 0;
                traversal f() { delete this->kid; this->kid = new E(); }
                traversal g() { x = static_cast<N*>(this->kid).x; }
            }
            "#,
        )
        .expect("mutation fixture compiles")
    }

    #[test]
    fn topology_mutation_conflicts_with_subtree_access() {
        let p = mutation();
        let mut acc = ProgramAccesses::new(&p);
        let n = p.class_by_name("N").unwrap();
        let mf = p.method_on_class(n, "f").unwrap();
        let mg = p.method_on_class(n, "g").unwrap();
        let del = acc.summary(mf, 0).clone();
        let read = acc.summary(mg, 0).clone();
        assert!(del.conflict(&read, false).is_some());
        let new = acc.summary(mf, 1).clone();
        assert!(new.conflict(&read, false).is_some());
    }

    /// Statements that conflict only through a local, so only when they
    /// share a frame.
    fn local_only() -> Program {
        compile("tree class A { int x = 0; traversal f() { int t = 1; x = t; } }")
            .expect("local fixture compiles")
    }

    /// Algorithm 1 as first written, kept as the oracle of the memo test:
    /// one call graph per call, statement automata attached through
    /// epsilon edges, dispatch resolved through `Program`, nothing trimmed,
    /// interned or shared between calls.
    mod reference {
        use super::*;
        use std::collections::HashMap;

        pub struct Summary {
            tree_reads: Nfa<PathSym>,
            tree_writes: Nfa<PathSym>,
            global_reads: Nfa<PathSym>,
            global_writes: Nfa<PathSym>,
            local_reads: Vec<LocalId>,
            local_writes: Vec<LocalId>,
        }

        impl Summary {
            fn empty() -> Self {
                Summary {
                    tree_reads: Nfa::new(),
                    tree_writes: Nfa::new(),
                    global_reads: Nfa::new(),
                    global_writes: Nfa::new(),
                    local_reads: Vec::new(),
                    local_writes: Vec::new(),
                }
            }

            /// [`AccessSummary::conflict`] on the epsilon automata.
            pub fn conflict(&self, other: &Summary, same_frame: bool) -> Option<ConflictKind> {
                let hit = |a: &[LocalId], b: &[LocalId]| a.iter().any(|x| b.contains(x));
                if self.tree_writes.intersects(&other.tree_reads) {
                    Some(ConflictKind::TreeWriteRead)
                } else if self.tree_writes.intersects(&other.tree_writes) {
                    Some(ConflictKind::TreeWriteWrite)
                } else if self.tree_reads.intersects(&other.tree_writes) {
                    Some(ConflictKind::TreeReadWrite)
                } else if self.global_writes.intersects(&other.global_reads) {
                    Some(ConflictKind::GlobalWriteRead)
                } else if self.global_writes.intersects(&other.global_writes) {
                    Some(ConflictKind::GlobalWriteWrite)
                } else if self.global_reads.intersects(&other.global_writes) {
                    Some(ConflictKind::GlobalReadWrite)
                } else if same_frame
                    && (hit(&self.local_writes, &other.local_reads)
                        || hit(&self.local_writes, &other.local_writes)
                        || hit(&self.local_reads, &other.local_writes))
                {
                    Some(ConflictKind::Local)
                } else {
                    None
                }
            }
        }

        /// The summary of top-level statement `index` of `method`.
        pub fn summary(p: &Program, method: MethodId, index: usize) -> Summary {
            let m = &p.methods[method.index()];
            let mut s = Summary::empty();
            stmt(p, &m.body[index], m.class, &mut s);
            s
        }

        fn stmt(p: &Program, stmt_: &Stmt, class: ClassId, s: &mut Summary) {
            match stmt_ {
                Stmt::Traverse(c) => call(p, c, class, s),
                Stmt::Assign { target, value } => {
                    expr(p, value, s);
                    access(p, target, true, s);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    expr(p, cond, s);
                    for st in then_branch.iter().chain(else_branch) {
                        stmt(p, st, class, s);
                    }
                }
                Stmt::LocalDef { local, init } => {
                    if let Some(init) = init {
                        expr(p, init, s);
                    }
                    push_unique(&mut s.local_writes, *local);
                }
                Stmt::New { target, .. } | Stmt::Delete { target } => {
                    let path = on_tree_syms(target, &[]);
                    let mut w = Nfa::from_path(&path, false);
                    let last = w.len() - 1;
                    w.add_transition(last, PathSym::Any, last);
                    s.tree_writes.union_in_place(&w);
                    if path.len() > 1 {
                        s.tree_reads
                            .union_in_place(&Nfa::from_path(&path[..path.len() - 1], true));
                    }
                }
                Stmt::Return => {}
                Stmt::PureStmt { args, .. } => {
                    for a in args {
                        expr(p, a, s);
                    }
                }
            }
        }

        fn expr(p: &Program, e: &Expr, s: &mut Summary) {
            match e {
                Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) => {}
                Expr::Read(a) => access(p, a, false, s),
                Expr::Unary(_, e) => expr(p, e, s),
                Expr::Binary(_, l, r) => {
                    expr(p, l, s);
                    expr(p, r, s);
                }
                Expr::PureCall(_, args) => {
                    for a in args {
                        expr(p, a, s);
                    }
                }
            }
        }

        fn access(p: &Program, a: &DataAccess, is_write: bool, s: &mut Summary) {
            let (syms, reads, writes) = match a {
                DataAccess::OnTree { path, data } => (
                    on_tree_syms(path, data),
                    &mut s.tree_reads,
                    &mut s.tree_writes,
                ),
                DataAccess::Local { local, .. } => {
                    let set = if is_write {
                        &mut s.local_writes
                    } else {
                        &mut s.local_reads
                    };
                    push_unique(set, *local);
                    return;
                }
                DataAccess::Global { global, members } => {
                    let mut syms = vec![global_sym(p, *global)];
                    syms.extend(members.iter().map(|&f| field_sym(f)));
                    (syms, &mut s.global_reads, &mut s.global_writes)
                }
            };
            if is_write {
                writes.union_in_place(&Nfa::from_path(&syms, false));
                if syms.len() > 1 {
                    reads.union_in_place(&Nfa::from_path(&syms[..syms.len() - 1], true));
                }
            } else {
                reads.union_in_place(&Nfa::from_path(&syms, true));
            }
        }

        struct Builder<'p> {
            p: &'p Program,
            reads: Nfa<PathSym>,
            writes: Nfa<PathSym>,
            global_reads: Nfa<PathSym>,
            global_writes: Nfa<PathSym>,
            fn_state: HashMap<MethodId, (StateId, StateId)>,
        }

        fn call(p: &Program, c: &TraverseStmt, class: ClassId, s: &mut Summary) {
            for a in &c.args {
                expr(p, a, s);
            }
            let mut b = Builder {
                p,
                reads: Nfa::new(),
                writes: Nfa::new(),
                global_reads: Nfa::new(),
                global_writes: Nfa::new(),
                fn_state: HashMap::new(),
            };
            let r0 = b.reads.add_state();
            b.reads.add_transition(0, PathSym::Root, r0);
            let w0 = b.writes.add_state();
            b.writes.add_transition(0, PathSym::Root, w0);
            let state = b.walk(&c.receiver, (r0, w0));
            let Some(static_ty) = p.path_target_type(class, &c.receiver) else {
                return;
            };
            b.dispatch(c.slot, static_ty, state);
            s.tree_reads.union_in_place(&b.reads);
            s.tree_writes.union_in_place(&b.writes);
            s.global_reads.union_in_place(&b.global_reads);
            s.global_writes.union_in_place(&b.global_writes);
        }

        impl Builder<'_> {
            fn walk(
                &mut self,
                path: &NodePath,
                mut state: (StateId, StateId),
            ) -> (StateId, StateId) {
                for step in &path.steps {
                    let rn = self.reads.add_state();
                    self.reads
                        .add_transition(state.0, field_sym(step.field), rn);
                    self.reads.set_accepting(rn, true);
                    let wn = self.writes.add_state();
                    self.writes
                        .add_transition(state.1, field_sym(step.field), wn);
                    state = (rn, wn);
                }
                state
            }

            fn dispatch(&mut self, slot: MethodId, static_ty: ClassId, from: (StateId, StateId)) {
                let targets: Vec<MethodId> = self
                    .p
                    .concrete_subtypes(static_ty)
                    .into_iter()
                    .filter_map(|c| self.p.resolve_virtual(c, slot))
                    .collect();
                for target in targets {
                    let state = self.function(target);
                    self.reads.add_epsilon(from.0, state.0);
                    self.writes.add_epsilon(from.1, state.1);
                }
            }

            fn function(&mut self, method: MethodId) -> (StateId, StateId) {
                if let Some(&st) = self.fn_state.get(&method) {
                    return st;
                }
                let st = (self.reads.add_state(), self.writes.add_state());
                self.fn_state.insert(method, st);
                let p = self.p;
                let m = &p.methods[method.index()];
                for (index, s) in m.body.iter().enumerate() {
                    let stmt_summary = match s {
                        Stmt::Traverse(c) => {
                            let mut args = Summary::empty();
                            for a in &c.args {
                                expr(p, a, &mut args);
                            }
                            self.attach(&args, st);
                            let state = self.walk(&c.receiver, st);
                            if let Some(static_ty) = p.path_target_type(m.class, &c.receiver) {
                                self.dispatch(c.slot, static_ty, state);
                            }
                            continue;
                        }
                        _ => summary(p, method, index),
                    };
                    self.attach(&stmt_summary, st);
                }
                st
            }

            fn attach(&mut self, s: &Summary, at: (StateId, StateId)) {
                attach_at(&mut self.reads, &s.tree_reads, at.0);
                attach_at(&mut self.writes, &s.tree_writes, at.1);
                self.global_reads.union_in_place(&s.global_reads);
                self.global_writes.union_in_place(&s.global_writes);
            }
        }

        /// Copies a statement automaton into `target`, replacing each
        /// `Root` edge with an epsilon from `state`.
        fn attach_at(target: &mut Nfa<PathSym>, a: &Nfa<PathSym>, state: StateId) {
            let offset = target.len();
            for st in 0..a.len() {
                let ns = target.add_state();
                target.set_accepting(ns, a.is_accepting(st));
            }
            for (from, sym, to) in a.transitions() {
                if *sym == PathSym::Root {
                    target.add_epsilon(state, to + offset);
                } else {
                    target.add_transition(from + offset, *sym, to + offset);
                }
            }
            for (from, to) in a.epsilons() {
                target.add_epsilon(from + offset, to + offset);
            }
        }
    }

    #[test]
    fn memoised_conflicts_equal_direct_ones() {
        // Verdicts without and with a conflict, pairs whose verdict
        // depends on `same_frame`, and statements sharing a summary.
        let (mut none, mut some, mut frame_dependent, mut shared) = (0, 0, 0, 0);
        let programs = [fig2(), mutation(), local_only(), interned()];
        for p in &programs {
            let stmts: Vec<(MethodId, usize)> = (0..p.methods.len())
                .flat_map(|m| (0..p.methods[m].body.len()).map(move |i| (MethodId(m as u32), i)))
                .collect();
            let oracle: Vec<reference::Summary> = stmts
                .iter()
                .map(|&(m, i)| reference::summary(p, m, i))
                .collect();
            let mut acc = ProgramAccesses::new(p);
            // The second round repeats every query and must be answered
            // from the memo, with the same verdicts.
            for round in 0..2 {
                for (ai, &a) in stmts.iter().enumerate() {
                    for (bi, &b) in stmts.iter().enumerate() {
                        let mut verdicts = [None; 2];
                        for same_frame in [false, true] {
                            let memo = acc.conflict(a, b, same_frame);
                            let direct = oracle[ai].conflict(&oracle[bi], same_frame);
                            assert_eq!(memo, direct, "{a:?} vs {b:?}, same frame {same_frame}");
                            let (ia, ib) = (acc.summary_id(a), acc.summary_id(b));
                            let by_frame = acc.conflicts_by_frame(ia, ib);
                            assert_eq!(by_frame[usize::from(same_frame)], direct.is_some());
                            let trimmed = acc
                                .summary_by_id(ia)
                                .conflict(acc.summary_by_id(ib), same_frame);
                            assert_eq!(trimmed, direct, "{a:?} vs {b:?}, same frame {same_frame}");
                            verdicts[usize::from(same_frame)] = memo;
                        }
                        if round == 0 {
                            for v in verdicts {
                                if v.is_some() {
                                    some += 1;
                                } else {
                                    none += 1;
                                }
                            }
                            frame_dependent += usize::from(verdicts[0] != verdicts[1]);
                        }
                    }
                }
                // One memo entry per ordered pair of distinct summaries
                // asked about, however many statements share them.
                let distinct = acc.n_summaries();
                assert!(distinct <= stmts.len());
                assert!(acc.conflicts.len() <= distinct * distinct);
            }
            shared += stmts.len() - acc.n_summaries();
        }
        assert!(none > 0 && some > 0 && frame_dependent > 0 && shared > 0);
    }

    /// Statements that differ only in constants share a summary.
    fn interned() -> Program {
        compile(
            r#"
            global int G = 0;
            tree class A {
                child A* kid;
                int x = 0;
                virtual traversal f() {}
            }
            tree class B : A {
                traversal f() { G = 1; x = G; G = 2; this->kid->f(); x = 3; this->kid->f(); }
            }
            "#,
        )
        .expect("interning fixture compiles")
    }

    #[test]
    fn equal_summaries_are_interned_once() {
        let p = interned();
        let mut acc = ProgramAccesses::new(&p);
        let b = p.class_by_name("B").unwrap();
        let f = p.method_on_class(b, "f").unwrap();
        let ids: Vec<SummaryId> = (0..6).map(|i| acc.summary_id((f, i))).collect();
        // `G = 1` and `G = 2`, and the two calls, share summaries.
        assert_eq!(ids[0], ids[2]);
        assert_eq!(ids[3], ids[5]);
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[1], ids[4]);
        assert_eq!(acc.n_summaries(), 4);
        // The two calls' verdict against `x = 3` is searched once.
        let before = acc.search().searches();
        assert_eq!(
            acc.conflict((f, 3), (f, 4), false),
            acc.conflict((f, 5), (f, 4), false)
        );
        let searched = acc.search().searches() - before;
        assert!(searched > 0);
        assert_eq!(
            acc.conflict((f, 3), (f, 4), false),
            acc.conflict((f, 5), (f, 4), false)
        );
        assert_eq!(acc.search().searches() - before, searched);
    }

    #[test]
    fn hierarchy_matches_the_program_on_the_case_studies() {
        for case in grafter_workloads_free_programs() {
            let h = Hierarchy::new(case.classes.iter().map(|c| c.supers.as_slice()));
            let n = case.classes.len() as u32;
            for a in (0..n).map(ClassId) {
                for b in (0..n).map(ClassId) {
                    assert_eq!(h.is_subtype(a, b), case.is_subtype(a, b));
                    assert_eq!(
                        h.share_supertype(a, b),
                        case.least_common_ancestor(&[a, b]).is_some()
                    );
                }
            }
        }
    }

    /// Programs with single and multiple inheritance.
    fn grafter_workloads_free_programs() -> Vec<Program> {
        let multi = compile(
            r#"
            tree class A { virtual traversal f() {} }
            tree class B { virtual traversal g() {} }
            tree class C : A, B { }
            tree class D : C { }
            tree class E : A { }
            tree class F { }
            "#,
        )
        .expect("multiple inheritance compiles");
        vec![fig2(), mutation(), multi]
    }

    #[test]
    fn return_sets_may_return() {
        let p = compile(
            r#"
            tree class A {
                bool stop = false;
                int x = 0;
                traversal f() {
                    if (stop) { return; }
                    x = 1;
                }
            }
            "#,
        )
        .unwrap();
        let mut acc = ProgramAccesses::new(&p);
        let a = p.class_by_name("A").unwrap();
        let m = p.method_on_class(a, "f").unwrap();
        assert!(acc.summary(m, 0).may_return);
        assert!(!acc.summary(m, 1).may_return);
    }
}
