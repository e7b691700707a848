//! Access-path extraction and access automata (paper §3.2).
//!
//! Every top-level statement of a traversal gets an [`AccessSummary`]: six
//! automata over [`PathSym`] describing the tree and global locations the
//! statement may read or write (relative to the node the enclosing function
//! is invoked on), plus flat sets for locals and a may-return flag.
//!
//! Simple statements produce unions of primitive path automata. Traversing
//! calls are summarised by Algorithm 1: a labelled call graph over all
//! *concrete* functions transitively reachable under dynamic dispatch, with
//! one automaton state per function and a back edge whenever a function is
//! revisited (so unbounded recursion appears as loops).
//!
//! [`ProgramAccesses`] computes each of these once per program: a
//! statement's summary, a call's dispatch targets, and a statement pair's
//! conflict verdict.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::time::{Duration, Instant};

use grafter_automata::{Nfa, PathSym, StateId};
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
#[derive(Clone, Debug)]
pub struct AccessSummary {
    /// On-tree reads, rooted at the traversed-node transition.
    pub tree_reads: Nfa<PathSym>,
    /// On-tree writes.
    pub tree_writes: Nfa<PathSym>,
    /// Off-tree (global) reads.
    pub global_reads: Nfa<PathSym>,
    /// Off-tree (global) writes.
    pub global_writes: Nfa<PathSym>,
    /// Locals read (conflated per variable — sound, locals are scalar or
    /// small structs).
    pub local_reads: Vec<LocalId>,
    /// Locals written.
    pub local_writes: Vec<LocalId>,
    /// Whether executing the statement may terminate the traversal.
    pub may_return: bool,
}

impl AccessSummary {
    fn empty() -> Self {
        AccessSummary {
            tree_reads: Nfa::new(),
            tree_writes: Nfa::new(),
            global_reads: Nfa::new(),
            global_writes: Nfa::new(),
            local_reads: Vec::new(),
            local_writes: Vec::new(),
            may_return: false,
        }
    }

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

/// A top-level statement: its method and its index in the method's body.
type StmtKey = (MethodId, usize);

/// A hash map keyed by tuples of program ids, hashed by [`IdHasher`].
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A multiply-rotate hasher (the Fx construction) for the memo keys, which
/// the conflict memo alone is asked once per statement pair of every
/// dependence graph. The keys are tuples of dense ids the compiler assigns
/// (method, class, statement index), not values a source can pick, so
/// SipHash's resistance to chosen keys buys nothing here.
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

/// Cached per-statement access summaries for a whole program, the
/// dispatch targets of its calls, and a memo of the conflicts between
/// statements.
///
/// Call summaries depend on the *static receiver context* (the class whose
/// method contains the call), so the cache key is `(method, stmt index)`.
/// The cache also serves the non-call statements that call automata
/// attach at their function's state, so each statement is summarised once
/// however many call automata reach it.
///
/// The same statement pairs recur across the fused functions of one
/// program, so the dependence graphs ask for conflicts through a memo of
/// `(statement, statement, same_frame)` verdicts: the automata of a pair
/// are intersected once however many graphs test it.
pub struct ProgramAccesses<'p> {
    program: &'p Program,
    cache: IdMap<StmtKey, AccessSummary>,
    dispatch: IdMap<(MethodId, ClassId), Rc<[MethodId]>>,
    conflicts: IdMap<(StmtKey, StmtKey, bool), Option<ConflictKind>>,
    /// Wall time [`ProgramAccesses::summary`] spent building summaries.
    summary_time: Duration,
}

impl<'p> ProgramAccesses<'p> {
    /// Creates an empty cache over `program`.
    pub fn new(program: &'p Program) -> Self {
        ProgramAccesses {
            program,
            cache: IdMap::default(),
            dispatch: IdMap::default(),
            conflicts: IdMap::default(),
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
        let key = (method, index);
        if !self.cache.contains_key(&key) {
            let t0 = Instant::now();
            self.ensure_summary(key);
            self.summary_time += t0.elapsed();
        }
        &self.cache[&key]
    }

    /// Wall time spent building summaries so far (call automata included;
    /// a summary built inside another is counted once, in the outer one).
    pub(crate) fn summary_time(&self) -> Duration {
        self.summary_time
    }

    /// Builds the summary of `key` into the cache unless it is there.
    fn ensure_summary(&mut self, key: StmtKey) {
        if !self.cache.contains_key(&key) {
            let m = &self.program.methods[key.0.index()];
            let mut summary = AccessSummary::empty();
            self.collect_stmt(&m.body[key.1], m.class, &mut summary);
            self.cache.insert(key, summary);
        }
    }

    /// The concrete methods a call of `slot` on a node of static type
    /// `static_ty` may dispatch to: [`Program::concrete_subtypes`] in
    /// order, each resolved by [`Program::resolve_virtual`] (classes that
    /// do not resolve are left out). Resolved once per program.
    pub fn dispatch_targets(&mut self, slot: MethodId, static_ty: ClassId) -> Rc<[MethodId]> {
        let program = self.program;
        let targets = self.dispatch.entry((slot, static_ty)).or_insert_with(|| {
            program
                .concrete_subtypes(static_ty)
                .into_iter()
                .filter_map(|concrete| program.resolve_virtual(concrete, slot))
                .collect()
        });
        Rc::clone(targets)
    }

    /// The first conflict between statement `first` and a later statement
    /// `second` ([`AccessSummary::conflict`] on their summaries), computed
    /// on first request for each `(first, second, same_frame)`.
    pub(crate) fn conflict(
        &mut self,
        first: StmtKey,
        second: StmtKey,
        same_frame: bool,
    ) -> Option<ConflictKind> {
        let key = (first, second, same_frame);
        if let Some(&kind) = self.conflicts.get(&key) {
            return kind;
        }
        self.summary(first.0, first.1);
        self.summary(second.0, second.1);
        let kind = self.cache[&first].conflict(&self.cache[&second], same_frame);
        self.conflicts.insert(key, kind);
        kind
    }

    fn collect_stmt(&mut self, stmt: &Stmt, class: ClassId, s: &mut AccessSummary) {
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
                let mut w = Nfa::from_path(&path, false);
                let last = w.len() - 1;
                w.add_transition(last, PathSym::Any, last);
                // Every state on the loop accepts: the node and all
                // descendants are clobbered.
                s.tree_writes.union_in_place(&w);
                if path.len() > 1 {
                    s.tree_reads
                        .union_in_place(&Nfa::from_path(&path[..path.len() - 1], true));
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

    fn collect_expr(&self, expr: &Expr, s: &mut AccessSummary) {
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

    fn collect_access(&self, access: &DataAccess, is_write: bool, s: &mut AccessSummary) {
        match access {
            DataAccess::OnTree { path, data } => {
                let syms = on_tree_syms(path, data);
                if is_write {
                    s.tree_writes.union_in_place(&Nfa::from_path(&syms, false));
                    if syms.len() > 1 {
                        s.tree_reads
                            .union_in_place(&Nfa::from_path(&syms[..syms.len() - 1], true));
                    }
                } else {
                    s.tree_reads.union_in_place(&Nfa::from_path(&syms, true));
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
                    s.global_writes
                        .union_in_place(&Nfa::from_path(&syms, false));
                    if syms.len() > 1 {
                        s.global_reads
                            .union_in_place(&Nfa::from_path(&syms[..syms.len() - 1], true));
                    }
                } else {
                    s.global_reads.union_in_place(&Nfa::from_path(&syms, true));
                }
            }
        }
    }

    // ---- Algorithm 1: call automata ---------------------------------------

    /// Summarises a traversing call in the context of a method of `class`.
    ///
    /// Builds the labelled call graph over all concrete functions reachable
    /// from the call (under dynamic dispatch), attaches every reachable
    /// statement's automata at the state of its function, and prefixes the
    /// receiver path. Argument expressions are evaluated in the caller's
    /// frame and contribute caller-level accesses.
    fn collect_call(&mut self, call: &TraverseStmt, class: ClassId, s: &mut AccessSummary) {
        for a in &call.args {
            self.collect_expr(a, s);
        }

        let mut builder = CallAutomataBuilder {
            program: self.program,
            accesses: self,
            reads: Nfa::new(),
            writes: Nfa::new(),
            global_reads: Nfa::new(),
            global_writes: Nfa::new(),
            fn_state: HashMap::new(),
        };

        // Root transition, then the receiver path.
        let r0 = builder.reads.add_state();
        builder.reads.add_transition(0, PathSym::Root, r0);
        let w0 = builder.writes.add_state();
        builder.writes.add_transition(0, PathSym::Root, w0);
        let mut state = (r0, w0);
        for step in &call.receiver.steps {
            let rn = builder.reads.add_state();
            builder
                .reads
                .add_transition(state.0, field_sym(step.field), rn);
            // Dispatching through a child pointer reads that pointer.
            builder.reads.set_accepting(rn, true);
            let wn = builder.writes.add_state();
            builder
                .writes
                .add_transition(state.1, field_sym(step.field), wn);
            state = (rn, wn);
        }

        let Some(static_ty) = builder.program.path_target_type(class, &call.receiver) else {
            return;
        };
        builder.append_dispatch(call.slot, static_ty, state);

        s.tree_reads.union_in_place(&builder.reads);
        s.tree_writes.union_in_place(&builder.writes);
        s.global_reads.union_in_place(&builder.global_reads);
        s.global_writes.union_in_place(&builder.global_writes);
    }
}

struct CallAutomataBuilder<'a, 'p> {
    program: &'p Program,
    accesses: &'a mut ProgramAccesses<'p>,
    reads: Nfa<PathSym>,
    writes: Nfa<PathSym>,
    global_reads: Nfa<PathSym>,
    global_writes: Nfa<PathSym>,
    /// Memo: one (reads, writes) state pair per concrete function — the
    /// paper's `FunctionToState`, guaranteeing termination and representing
    /// recursion as automaton loops.
    fn_state: HashMap<MethodId, (StateId, StateId)>,
}

impl CallAutomataBuilder<'_, '_> {
    /// Expands a virtual dispatch of `slot` on a node whose static type is
    /// `static_ty`, linking from `from` (a (reads, writes) state pair).
    fn append_dispatch(&mut self, slot: MethodId, static_ty: ClassId, from: (StateId, StateId)) {
        for &target in self.accesses.dispatch_targets(slot, static_ty).iter() {
            let state = self.append_function(target);
            // Dispatch consumes no member access: link with epsilon.
            self.reads.add_epsilon(from.0, state.0);
            self.writes.add_epsilon(from.1, state.1);
        }
    }

    /// Returns the state pair of a concrete function, creating and filling
    /// it on first encounter.
    fn append_function(&mut self, method: MethodId) -> (StateId, StateId) {
        if let Some(&st) = self.fn_state.get(&method) {
            return st;
        }
        let st = (self.reads.add_state(), self.writes.add_state());
        self.fn_state.insert(method, st);
        for index in 0..self.program.methods[method.index()].body.len() {
            self.append_stmt((method, index), st);
        }
        st
    }

    fn append_stmt(&mut self, key: StmtKey, at: (StateId, StateId)) {
        let m = &self.program.methods[key.0.index()];
        if let Stmt::Traverse(call) = &m.body[key.1] {
            // Argument accesses happen in the callee's caller frame (this
            // function); attach their tree parts at `at`.
            let mut args = AccessSummary::empty();
            for a in &call.args {
                self.accesses.collect_expr(a, &mut args);
            }
            attach_at(&mut self.reads, &args.tree_reads, at.0);
            attach_at(&mut self.writes, &args.tree_writes, at.1);
            self.global_reads.union_in_place(&args.global_reads);
            self.global_writes.union_in_place(&args.global_writes);

            // Walk the receiver path, then dispatch.
            let mut state = at;
            for step in &call.receiver.steps {
                let rn = self.reads.add_state();
                self.reads
                    .add_transition(state.0, field_sym(step.field), rn);
                self.reads.set_accepting(rn, true);
                let wn = self.writes.add_state();
                self.writes
                    .add_transition(state.1, field_sym(step.field), wn);
                state = (rn, wn);
            }
            if let Some(static_ty) = self.program.path_target_type(m.class, &call.receiver) {
                self.append_dispatch(call.slot, static_ty, state);
            }
        } else {
            self.accesses.ensure_summary(key);
            let summary = &self.accesses.cache[&key];
            attach_at(&mut self.reads, &summary.tree_reads, at.0);
            attach_at(&mut self.writes, &summary.tree_writes, at.1);
            self.global_reads.union_in_place(&summary.global_reads);
            self.global_writes.union_in_place(&summary.global_writes);
        }
    }
}

/// Attaches a statement-level on-tree automaton (whose paths begin with the
/// traversed-node transition) into `target`, rebasing it at `state`: the
/// `Root` edge is replaced by an epsilon from `state`, so the attached
/// accesses become relative to the function the statement belongs to.
fn attach_at(target: &mut Nfa<PathSym>, stmt_automaton: &Nfa<PathSym>, state: StateId) {
    if stmt_automaton.is_empty() {
        return;
    }
    let offset = target.len();
    // Absorb by re-adding states and transitions with an offset.
    for st in 0..stmt_automaton.len() {
        let ns = target.add_state();
        debug_assert_eq!(ns, offset + st);
        target.set_accepting(ns, stmt_automaton.is_accepting(st));
    }
    for st in 0..stmt_automaton.len() {
        for (sym, to) in stmt_automaton.transitions_from(st) {
            if *sym == PathSym::Root {
                // The traversed-node transition marks the start of an
                // on-tree path; in a statement automaton it can only occur
                // at a path head. Entering via `state` replaces it.
                target.add_epsilon(state, to + offset);
            } else {
                target.add_transition(st + offset, *sym, to + offset);
            }
        }
        for to in stmt_automaton.epsilons_from(st) {
            target.add_epsilon(st + offset, to + offset);
        }
    }
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
        assert!(s.global_writes.is_empty_language());
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

    #[test]
    fn memoised_conflicts_equal_direct_ones() {
        // Verdicts without and with a conflict, and pairs whose verdict
        // depends on `same_frame`.
        let (mut none, mut some, mut frame_dependent) = (0, 0, 0);
        for p in [fig2(), mutation(), local_only()] {
            let stmts: Vec<(MethodId, usize)> = (0..p.methods.len())
                .flat_map(|m| (0..p.methods[m].body.len()).map(move |i| (MethodId(m as u32), i)))
                .collect();
            let mut acc = ProgramAccesses::new(&p);
            // The second round repeats every query and must be answered
            // from the memo, with the same verdicts.
            for round in 0..2 {
                for &a in &stmts {
                    for &b in &stmts {
                        let mut verdicts = [None; 2];
                        for same_frame in [false, true] {
                            let memo = acc.conflict(a, b, same_frame);
                            let direct = acc.cache[&a].conflict(&acc.cache[&b], same_frame);
                            assert_eq!(memo, direct, "{a:?} vs {b:?}, same frame {same_frame}");
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
                assert_eq!(acc.conflicts.len(), 2 * stmts.len() * stmts.len());
            }
        }
        assert!(none > 0 && some > 0 && frame_dependent > 0);
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
