//! The fusion algorithm (paper §3.3) with type-specific partial fusion and
//! the termination cutoffs of §4.
//!
//! Fusion operates on *sequences of concrete functions* invoked on the same
//! tree node. For each new sequence `L`:
//!
//! 1. **outline + inline** — the bodies are concatenated into a merged
//!    statement list (each statement remembers which traversal copy it
//!    belongs to);
//! 2. **analyse** — a [`DepGraph`] is built from the access automata;
//! 3. **group** — traversing calls on the same child are greedily grouped,
//!    subject to dependence legality (condensation must stay acyclic) and
//!    the cutoffs (max group size, max occurrences of one function);
//! 4. **reorder** — a dependence-respecting schedule is produced in which
//!    grouped calls are adjacent (implicit code motion);
//! 5. **recurse** — every group becomes a dispatch *stub*: for each possible
//!    concrete type of the child, the group's virtual slots resolve to a
//!    concrete sequence which is fused in turn. Sequences are memoised, so
//!    re-encountering one (including the sequence currently being built)
//!    produces a (possibly recursive) call to the existing fused function —
//!    the step that makes fusion profitable and keeps it terminating.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grafter_frontend::{ClassId, FieldId, MethodId, NodePath, Program, Stmt, TraverseStmt};

use crate::access::ProgramAccesses;
use crate::depgraph::{DepGraph, GroupCall, MergedStmt};
use crate::explain::{
    BlockCause, CallSite, ConflictKind, EdgeEnd, FusionExplain, FusionVerdict, MissReason,
    PairExplain,
};
use crate::pipeline::FusionMetrics;

/// Index of a fused function within a [`FusedProgram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FusedFnId(pub u32);

/// Index of a dispatch stub within a [`FusedProgram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StubId(pub u32);

/// Tuning knobs of the fusion engine (paper §4).
///
/// The Engine API names this [`FusionOptions`]; both names refer to the
/// same struct. Every knob bounds the type-specific partial fusion
/// algorithm:
///
/// | Knob | Default | Effect |
/// |---|---|---|
/// | `max_group_size` | 8 | most calls on one child grouped into one dispatch |
/// | `max_occurrences` | 5 | how often one static function may repeat within a group |
/// | `grouping` | `true` | `false` disables fusion entirely (the unfused baseline) |
///
/// A fused function holds at most [`MAX_TRAVERSALS`] traversal copies,
/// because active flags are one 64-bit word: [`fuse`] rejects a fused
/// entry sequence or a `max_group_size` past that limit.
///
/// Construct the baseline with [`FuseOptions::unfused`], or tighten
/// cutoffs with struct-update syntax:
///
/// ```
/// use grafter::FusionOptions;
///
/// let tight = FusionOptions { max_group_size: 2, ..FusionOptions::default() };
/// assert!(tight.grouping);
/// assert!(!FusionOptions::unfused().grouping);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FuseOptions {
    /// Maximum number of calls on one child grouped into one dispatch
    /// ("limiting the length of a sequence of functions to fuse"). It
    /// bounds only the groups formed inside fused bodies: the entry
    /// sequence fuses whole, however long, up to [`MAX_TRAVERSALS`].
    pub max_group_size: usize,
    /// Maximum number of times one static function may appear in a group
    /// ("limiting the number of times any one static function can
    /// appear"). Bounds code growth under mutual recursion.
    pub max_occurrences: usize,
    /// When `false`, no call grouping is performed: the output is the
    /// unfused baseline expressed in the same runtime representation
    /// (one pass over the tree per entry traversal).
    pub grouping: bool,
}

/// The Engine API's name for [`FuseOptions`] (see
/// `Engine::builder().fusion(..)`).
pub type FusionOptions = FuseOptions;

impl Default for FuseOptions {
    fn default() -> Self {
        FuseOptions {
            max_group_size: 8,
            max_occurrences: 5,
            grouping: true,
        }
    }
}

impl FuseOptions {
    /// Options producing the unfused baseline.
    pub fn unfused() -> Self {
        FuseOptions {
            grouping: false,
            ..FuseOptions::default()
        }
    }
}

/// One member of a grouped traversing call: the position of its
/// [`Stmt::Traverse`] in the source program (see [`FusedProgram::call`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallPart {
    /// Which traversal copy of the enclosing fused function the call
    /// belongs to (its active flag index).
    pub traversal: usize,
    /// Index of the call in that traversal's body.
    pub index: usize,
}

/// An element of a fused function's scheduled body. Items name source
/// statements by position; [`FusedProgram::stmt`], [`FusedProgram::call`]
/// and [`FusedProgram::receiver`] resolve them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduledItem {
    /// A simple statement, guarded by its traversal's active flag.
    Stmt {
        /// Flag index of the traversal copy the statement came from (its
        /// locals refer to the frame of `traversal`).
        traversal: usize,
        /// Index of the statement in that traversal's body.
        index: usize,
    },
    /// A grouped traversing call, lowered to a dispatch through `stub`.
    Call {
        /// The stub dispatching to the fused child sequence.
        stub: StubId,
        /// The grouped calls in execution order; part `i` drives child
        /// flag `i`.
        parts: Vec<CallPart>,
    },
}

/// A fused function: the fusion of one sequence of concrete functions.
#[derive(Clone, Debug)]
pub struct FusedFn {
    /// The concrete functions fused, in order; element `i` is traversal
    /// copy `i`.
    pub seq: Vec<MethodId>,
    /// Static type of the traversed-node parameter (least common ancestor
    /// of the sequence's receiver classes).
    pub receiver_class: ClassId,
    /// The scheduled body.
    pub body: Vec<ScheduledItem>,
    /// Generated name, e.g. `_fuse__F3F4`.
    pub name: String,
}

/// A dispatch stub: maps each possible concrete receiver type to the fused
/// function for the correspondingly resolved sequence (the paper's
/// `__stubN` virtual methods).
#[derive(Clone, Debug)]
pub struct Stub {
    /// Static type the stub dispatches on.
    pub receiver_static: ClassId,
    /// The virtual slots of the grouped sequence.
    pub slots: Vec<MethodId>,
    /// Concrete type → fused function.
    pub targets: Vec<(ClassId, FusedFnId)>,
    /// Generated name, e.g. `__stub1`.
    pub name: String,
}

impl Stub {
    /// The fused function for a concrete receiver class, if resolvable.
    pub fn target_for(&self, class: ClassId) -> Option<FusedFnId> {
        self.targets
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, f)| f)
    }
}

/// Static fusion-coverage statistics, accumulated over every *pair* of
/// traversing calls that share a receiver path within one merged body —
/// the candidates fusion could in principle turn into a single child
/// visit. Counted once per distinct fused function (bodies are memoised),
/// so the numbers are static code properties, not dynamic visit counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionCoverage {
    /// Same-receiver call pairs grouped into one dispatch (a saved visit).
    pub fused_pairs: usize,
    /// Pairs that were *legal* to fuse in isolation — common dispatch
    /// supertype, condensation stays acyclic — but were left ungrouped
    /// (greedy order, cutoffs, or fusion disabled).
    pub missed_pairs: usize,
    /// Pairs no legal grouping could fuse (no common supertype, or a
    /// dependence cycle between them).
    pub blocked_pairs: usize,
}

impl FusionCoverage {
    /// All statically fusable same-receiver pairs, fused or not.
    pub fn candidate_pairs(&self) -> usize {
        self.fused_pairs + self.missed_pairs + self.blocked_pairs
    }
}

/// The output of fusion: a set of mutually recursive fused functions plus
/// the dispatch stubs connecting them, with a designated entry stub.
#[derive(Clone, Debug)]
pub struct FusedProgram {
    /// The source program (class/field/method tables are shared with the
    /// fused code, and — via `Arc` — with every heap laid out for it).
    pub program: Arc<Program>,
    /// All generated fused functions.
    pub functions: Vec<FusedFn>,
    /// All generated dispatch stubs.
    pub stubs: Vec<Stub>,
    /// The stubs to invoke on the tree root, in order. Fused output has a
    /// single entry covering the whole sequence; the unfused baseline has
    /// one entry per traversal (separate passes).
    pub entries: Vec<StubId>,
    /// The entry sequence's dispatch slots.
    pub entry_slots: Vec<MethodId>,
    /// Static coverage of the grouping stage: the per-category totals of
    /// `explain`, counted once when fusion ends.
    pub coverage: FusionCoverage,
    /// Per-pair fusability verdicts behind [`FusedProgram::coverage`]: one
    /// span-carrying record per candidate pair, with the reason it fused,
    /// was missed, or was blocked.
    pub explain: FusionExplain,
}

impl FusedProgram {
    /// The fused function table entry.
    pub fn function(&self, id: FusedFnId) -> &FusedFn {
        &self.functions[id.0 as usize]
    }

    /// The stub table entry.
    pub fn stub(&self, id: StubId) -> &Stub {
        &self.stubs[id.0 as usize]
    }

    /// Statement `index` of traversal copy `traversal` of `f`: what a
    /// [`ScheduledItem::Stmt`] names.
    pub fn stmt(&self, f: &FusedFn, traversal: usize, index: usize) -> &Stmt {
        &self.program.methods[f.seq[traversal].index()].body[index]
    }

    /// The traversing call a part of one of `f`'s grouped calls names.
    pub fn call(&self, f: &FusedFn, part: CallPart) -> &TraverseStmt {
        match self.stmt(f, part.traversal, part.index) {
            Stmt::Traverse(call) => call,
            _ => unreachable!("call parts name traversing calls"),
        }
    }

    /// The receiver path of one of `f`'s grouped calls. Grouped calls
    /// share the receiver's fields and may differ only in casts; this is
    /// the last part's.
    pub fn receiver(&self, f: &FusedFn, parts: &[CallPart]) -> &NodePath {
        let last = *parts.last().expect("a grouped call has a part");
        &self.call(f, last).receiver
    }

    /// Whether fusion achieved a single visit per child everywhere: the
    /// whole entry sequence starts as one pass and no fused function's body
    /// contains two grouped calls with the same receiver path.
    pub fn fully_fused(&self) -> bool {
        self.entries.len() == 1
            && self.functions.iter().all(|f| {
                let receivers: Vec<Vec<_>> = f
                    .body
                    .iter()
                    .filter_map(|item| match item {
                        ScheduledItem::Call { parts, .. } => {
                            Some(self.receiver(f, parts).fields().collect())
                        }
                        ScheduledItem::Stmt { .. } => None,
                    })
                    .collect();
                let mut uniq = receivers.clone();
                uniq.sort();
                uniq.dedup();
                uniq.len() == receivers.len()
            })
    }

    /// Total number of generated fused functions.
    pub fn n_functions(&self) -> usize {
        self.functions.len()
    }

    /// Compile-side fusion statistics.
    pub fn metrics(&self) -> FusionMetrics {
        FusionMetrics {
            functions: self.n_functions(),
            stubs: self.stubs.len(),
            passes: self.entries.len(),
            fully_fused: self.fully_fused(),
            fused_pairs: self.coverage.fused_pairs,
            missed_pairs: self.coverage.missed_pairs,
            blocked_pairs: self.coverage.blocked_pairs,
        }
    }
}

/// Where one fusion run's wall time went, stage by stage, plus the work
/// its conflict tests did. The engine lays the stages out as the
/// `fusion/*` spans of its compile trace and the counts as metadata of
/// its `fusion` span.
///
/// Nothing compares the wall times: two runs that fuse identically differ
/// there. The counts are deterministic: the same program, passes and
/// options always run the same searches.
#[derive(Clone, Copy, Debug, Default)]
pub struct FusionTimes {
    /// Building statement access summaries, call automata included.
    /// Summaries are built lazily while dependence graphs are built, so
    /// this is a sum over the run.
    pub summaries: Duration,
    /// The rest of building dependence graphs: conflict memo lookups, and
    /// automata intersections on misses. A sum over the run.
    pub conflicts: Duration,
    /// Greedy call grouping and scheduling.
    pub group: Duration,
    /// Coverage accounting and the explain verdict of each candidate pair.
    pub explain: Duration,
    /// Everything else: merging bodies, emitting scheduled bodies, stubs
    /// and names.
    pub emit: Duration,
    /// Automata intersection tests that ran a product search (a memo hit,
    /// or a test with an empty side, runs none).
    pub intersections: u64,
    /// Product state pairs those searches expanded.
    pub pairs_visited: u64,
    /// Functions expanded into the call automaton of Algorithm 1: each
    /// concrete function a call may reach, once.
    pub functions_expanded: u64,
    /// Construction automata trimmed: those of statement summaries, call
    /// arguments and dispatch keys.
    pub trims: u64,
}

impl FusionTimes {
    /// The stages as `(span name, wall time)`, in the order the engine
    /// lays them out.
    pub fn spans(&self) -> [(&'static str, Duration); 5] {
        [
            ("fusion/summaries", self.summaries),
            ("fusion/conflicts", self.conflicts),
            ("fusion/group", self.group),
            ("fusion/explain", self.explain),
            ("fusion/emit", self.emit),
        ]
    }
}

/// Most traversal copies one fused function may hold: active flags are
/// one `u64`.
pub const MAX_TRAVERSALS: usize = 64;

/// The active flags a run enters an entry stub of `parts` dispatch slots
/// with: every part active. A fused program has one entry covering the
/// whole sequence and the unfused baseline one single-part entry per
/// traversal, so the entries split the passes in order.
pub fn entry_flags(parts: usize) -> u64 {
    if parts >= MAX_TRAVERSALS {
        u64::MAX
    } else {
        (1u64 << parts) - 1
    }
}

/// An error reported by the fusion driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuseError {
    /// The requested root class does not exist.
    UnknownClass(String),
    /// A requested traversal does not exist on the root class.
    UnknownTraversal(String, String),
    /// A fused entry sequence (`what` is `"fused entry"`) or
    /// `max_group_size` would put more than [`MAX_TRAVERSALS`] traversal
    /// copies in one fused function.
    TooManyTraversals {
        /// What exceeds the limit.
        what: &'static str,
        /// Its traversal count.
        count: usize,
    },
}

impl fmt::Display for FuseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuseError::UnknownClass(c) => write!(f, "unknown tree class `{c}`"),
            FuseError::UnknownTraversal(c, t) => {
                write!(f, "no traversal `{t}` on class `{c}`")
            }
            FuseError::TooManyTraversals { what, count } => write!(
                f,
                "{what} of {count} traversals exceeds the limit of {MAX_TRAVERSALS} per fused \
                 function"
            ),
        }
    }
}

impl std::error::Error for FuseError {}

/// Fuses the traversal sequence `traversals`, invoked back-to-back on a
/// root of static type `root_class`.
///
/// This is the top-level driver corresponding to the paper's treatment of
/// consecutive traversal calls in `main` (Fig. 2, lines 51–52).
///
/// # Errors
///
/// Returns [`FuseError`] if the class or a traversal name does not
/// resolve, or if a fused function could exceed [`MAX_TRAVERSALS`].
pub fn fuse(
    program: &Program,
    root_class: &str,
    traversals: &[&str],
    opts: &FuseOptions,
) -> Result<FusedProgram, FuseError> {
    fuse_timed(program, root_class, traversals, opts).map(|(fused, _)| fused)
}

/// Like [`fuse`], but also reports where the run's wall time went — the
/// engine's compile trace builds on this.
///
/// # Errors
///
/// Same as [`fuse`].
pub fn fuse_timed(
    program: &Program,
    root_class: &str,
    traversals: &[&str],
    opts: &FuseOptions,
) -> Result<(FusedProgram, FusionTimes), FuseError> {
    let class = program
        .class_by_name(root_class)
        .ok_or_else(|| FuseError::UnknownClass(root_class.to_string()))?;
    let mut slots = Vec::new();
    for t in traversals {
        let m = program
            .method_on_class(class, t)
            .ok_or_else(|| FuseError::UnknownTraversal(root_class.to_string(), t.to_string()))?;
        slots.push(program.methods[m.index()].slot);
    }
    fuse_slots_timed(program, class, &slots, opts)
}

/// Fuses a sequence of dispatch slots on a root of static type `class`.
///
/// Like [`fuse`] but with resolved ids; useful when driving the compiler
/// programmatically.
///
/// # Errors
///
/// Returns [`FuseError::TooManyTraversals`] if a fused function could
/// exceed [`MAX_TRAVERSALS`].
pub fn fuse_slots(
    program: &Program,
    class: ClassId,
    slots: &[MethodId],
    opts: &FuseOptions,
) -> Result<FusedProgram, FuseError> {
    fuse_slots_timed(program, class, slots, opts).map(|(fused, _)| fused)
}

fn fuse_slots_timed(
    program: &Program,
    class: ClassId,
    slots: &[MethodId],
    opts: &FuseOptions,
) -> Result<(FusedProgram, FusionTimes), FuseError> {
    if opts.grouping && slots.len() > MAX_TRAVERSALS {
        return Err(FuseError::TooManyTraversals {
            what: "fused entry",
            count: slots.len(),
        });
    }
    if opts.max_group_size > MAX_TRAVERSALS {
        return Err(FuseError::TooManyTraversals {
            what: "max_group_size",
            count: opts.max_group_size,
        });
    }
    let mut fuser = Fuser {
        program,
        accesses: ProgramAccesses::new(program),
        opts: opts.clone(),
        functions: Vec::new(),
        fn_keys: HashMap::new(),
        stubs: Vec::new(),
        stub_keys: HashMap::new(),
        explain: FusionExplain::default(),
        times: FusionTimes::default(),
        lap_start: Instant::now(),
    };
    let entries = if opts.grouping && !slots.is_empty() {
        vec![fuser.stub_for(class, slots.to_vec())]
    } else {
        // Unfused baseline: each traversal is dispatched separately, so the
        // tree is walked once per traversal just like the original program.
        // An empty entry list takes this path in both modes: no entry, no
        // function.
        slots
            .iter()
            .map(|&slot| fuser.stub_for(class, vec![slot]))
            .collect()
    };
    fuser.charge(|t| &mut t.emit);
    let mut times = fuser.times;
    times.summaries = fuser.accesses.summary_time();
    times.conflicts = times.conflicts.saturating_sub(times.summaries);
    times.intersections = fuser.accesses.search().searches();
    times.pairs_visited = fuser.accesses.search().pairs_visited();
    times.functions_expanded = fuser.accesses.functions_expanded();
    times.trims = fuser.accesses.trims();
    let fused = FusedProgram {
        program: Arc::new(program.clone()),
        functions: fuser.functions,
        stubs: fuser.stubs,
        entries,
        entry_slots: slots.to_vec(),
        coverage: fuser.explain.totals(),
        explain: fuser.explain,
    };
    Ok((fused, times))
}

struct Fuser<'p> {
    program: &'p Program,
    accesses: ProgramAccesses<'p>,
    opts: FuseOptions,
    functions: Vec<FusedFn>,
    fn_keys: HashMap<Vec<MethodId>, FusedFnId>,
    stubs: Vec<Stub>,
    stub_keys: HashMap<(ClassId, Vec<MethodId>), StubId>,
    /// Per-pair verdicts, pushed in discovery order; the program's
    /// coverage is their totals.
    explain: FusionExplain,
    /// Stage times so far. Until the run ends, `conflicts` holds all of
    /// dependence-graph building, summaries included.
    times: FusionTimes,
    /// When the stage now running started.
    lap_start: Instant,
}

impl Fuser<'_> {
    /// Charges the wall time since the previous charge to `stage`.
    fn charge(&mut self, stage: fn(&mut FusionTimes) -> &mut Duration) {
        let now = Instant::now();
        *stage(&mut self.times) += now - self.lap_start;
        self.lap_start = now;
    }

    /// Returns the stub dispatching `slots` on static type `class`,
    /// creating it (and every fused function it needs) on first use.
    fn stub_for(&mut self, class: ClassId, slots: Vec<MethodId>) -> StubId {
        let key = (class, slots.clone());
        if let Some(&id) = self.stub_keys.get(&key) {
            return id;
        }
        let id = StubId(self.stubs.len() as u32);
        self.stubs.push(Stub {
            receiver_static: class,
            slots: slots.clone(),
            targets: Vec::new(),
            name: format!("__stub{}", self.stubs.len()),
        });
        self.stub_keys.insert(key, id);
        for &concrete in self.accesses.concrete_subtypes(class).iter() {
            let Some(seq) = slots
                .iter()
                .map(|&slot| self.accesses.resolve_virtual(concrete, slot))
                .collect::<Option<Vec<_>>>()
            else {
                continue;
            };
            let fid = self.fused_for(seq);
            self.stubs[id.0 as usize].targets.push((concrete, fid));
        }
        id
    }

    /// Returns the fused function for a sequence of concrete functions,
    /// generating it on first encounter. Re-entrant: a sequence that
    /// reaches itself recursively gets a recursive call through its own
    /// stub (the id is registered before the body is built).
    fn fused_for(&mut self, seq: Vec<MethodId>) -> FusedFnId {
        if let Some(&id) = self.fn_keys.get(&seq) {
            return id;
        }
        let id = FusedFnId(self.functions.len() as u32);
        let receiver_class = self
            .program
            .least_common_ancestor(
                &seq.iter()
                    .map(|m| self.program.methods[m.index()].class)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or_else(|| self.program.methods[seq[0].index()].class);
        let name = format!(
            "_fuse_{}",
            seq.iter().map(|m| format!("_F{}", m.0)).collect::<String>()
        );
        self.functions.push(FusedFn {
            seq: seq.clone(),
            receiver_class,
            body: Vec::new(),
            name,
        });
        self.fn_keys.insert(seq.clone(), id);

        let merged = DepGraph::merge_bodies(self.program, &seq);
        let calls = self.group_inputs(&seq, &merged);
        let (group_of, order) = if calls.iter().enumerate().all(|(i, c)| c.key == i) {
            // No two calls could group and no pair gets a verdict, so the
            // schedule is source order (what the dependence-respecting
            // schedule of singleton groups yields): skip the graph's one
            // conflict test per statement pair. A body with a same-receiver
            // pair still pays for a test per statement pair, however many
            // statements sit between the two calls.
            let identity: Vec<usize> = (0..merged.len()).collect();
            (identity.clone(), identity)
        } else {
            self.charge(|t| &mut t.emit);
            let graph = DepGraph::build(&mut self.accesses, &seq, &merged);
            // Building the summaries the graph asked for is taken out at
            // the end of the run.
            self.charge(|t| &mut t.conflicts);
            let (group_of, n_groups) = self.group_calls(&seq, &merged, &calls, &graph);
            let order = graph.schedule(&group_of, n_groups);
            debug_assert!(graph.order_is_valid(&order));
            self.charge(|t| &mut t.group);
            (group_of, order)
        };

        let body = self.emit_body(&seq, &merged, &group_of, &order);
        self.functions[id.0 as usize].body = body;
        id
    }

    /// The traversing calls of `merged` as call grouping sees them: the
    /// key of a call is the index of the first call with its receiver
    /// path, so calls that could group share one.
    fn group_inputs(&self, seq: &[MethodId], merged: &[MergedStmt]) -> Vec<GroupCall> {
        let mut keys: HashMap<Vec<FieldId>, usize> = HashMap::new();
        let mut calls = Vec::new();
        for (vertex, ms) in merged.iter().enumerate() {
            let Stmt::Traverse(call) = ms.stmt else {
                continue;
            };
            let next = calls.len();
            let key = *keys.entry(call.receiver.fields().collect()).or_insert(next);
            let owner = self.program.methods[seq[ms.traversal].index()].class;
            calls.push(GroupCall {
                vertex,
                key,
                slot: call.slot,
                ty: self.program.path_target_type(owner, &call.receiver),
            });
        }
        calls
    }

    /// Greedy call grouping ([`DepGraph::group_calls`]), then the
    /// coverage accounting and explain verdict of every same-receiver
    /// call pair.
    fn group_calls(
        &mut self,
        seq: &[MethodId],
        merged: &[MergedStmt],
        calls: &[GroupCall],
        graph: &DepGraph,
    ) -> (Vec<usize>, usize) {
        let n = merged.len();
        let mut group_of = graph.group_calls(calls, self.accesses.hierarchy(), &self.opts);
        self.charge(|t| &mut t.group);

        // Re-number groups densely in order of first appearance (before
        // coverage, so fused verdicts can name the dense group id the
        // scheduled body will use).
        let mut dense = vec![usize::MAX; n];
        let mut n_groups = 0;
        for g in group_of.iter_mut() {
            if dense[*g] == usize::MAX {
                dense[*g] = n_groups;
                n_groups += 1;
            }
            *g = dense[*g];
        }

        // Coverage accounting + explain: every same-receiver pair of
        // traversing calls is a static fusion candidate. Pairs landing in
        // the same group were fused; the rest are "blocked" if merging just
        // the two of them would be illegal (no common dispatch supertype, or
        // a dependence path between them that the merge would close into a
        // cycle) and "missed" otherwise. Each pair gets a span-carrying
        // verdict recording the specific reason.
        let program = self.program;
        let fn_name: Arc<str> = Arc::from(
            self.functions
                .last()
                .expect("group_calls runs for the function just registered")
                .name
                .as_str(),
        );
        // Each call's rendered receiver and call site, built on its first
        // pair and shared by the rest.
        let mut receivers: Vec<Option<Arc<str>>> = vec![None; calls.len()];
        let mut sites: Vec<Option<CallSite>> = vec![None; calls.len()];
        let method_name = |c: &GroupCall| program.methods[c.slot.index()].name.clone();
        let block_cause = |fuser: &mut Self, a: &GroupCall, b: &GroupCall| match (a.ty, b.ty) {
            (None, _) => Some(BlockCause::CrossHierarchy {
                method: method_name(a),
            }),
            (_, None) => Some(BlockCause::CrossHierarchy {
                method: method_name(b),
            }),
            (Some(x), Some(y)) if !fuser.accesses.hierarchy().share_supertype(x, y) => {
                Some(BlockCause::NoCommonSupertype {
                    left: program.classes[x.index()].name.clone(),
                    right: program.classes[y.index()].name.clone(),
                })
            }
            (Some(_), Some(_)) => graph
                .blocking_hop(a.vertex, b.vertex)
                .map(|hop| fuser.dependence_cycle(seq, merged, a.vertex, hop)),
        };
        let group = |c: &GroupCall| group_of[c.vertex];
        for (i, a) in calls.iter().enumerate() {
            for (j, b) in calls.iter().enumerate().skip(i + 1) {
                if a.key != b.key {
                    continue;
                }
                let verdict = if self.opts.grouping && group(a) == group(b) {
                    FusionVerdict::Fused { group: group(a) }
                } else if let Some(cause) = block_cause(self, a, b) {
                    FusionVerdict::Blocked { cause }
                } else {
                    let reason = if !self.opts.grouping {
                        MissReason::GroupingDisabled
                    } else {
                        let combined: Vec<&GroupCall> = calls
                            .iter()
                            .filter(|c| group(c) == group(a) || group(c) == group(b))
                            .collect();
                        let repeats = combined.iter().any(|c| {
                            combined.iter().filter(|d| d.slot == c.slot).count()
                                > self.opts.max_occurrences
                        });
                        if combined.len() > self.opts.max_group_size {
                            MissReason::GroupSizeCutoff {
                                limit: self.opts.max_group_size,
                            }
                        } else if repeats {
                            MissReason::OccurrenceCutoff {
                                limit: self.opts.max_occurrences,
                            }
                        } else {
                            MissReason::GreedyOrder
                        }
                    };
                    FusionVerdict::Missed { reason }
                };
                let receiver = receivers[i]
                    .get_or_insert_with(|| render_receiver(program, a.vertex, merged).into());
                let [left, right] = [(i, a), (j, b)].map(|(k, c)| {
                    sites[k]
                        .get_or_insert_with(|| call_site(program, merged, c.vertex))
                        .clone()
                });
                self.explain.pairs.push(PairExplain {
                    fused_fn: Arc::clone(&fn_name),
                    receiver: Arc::clone(receiver),
                    left,
                    right,
                    verdict,
                });
            }
        }
        self.charge(|t| &mut t.explain);

        (group_of, n_groups)
    }

    /// The blocked verdict of a pair whose merge would close a dependence
    /// cycle, naming the edge `u → hop` from [`DepGraph::blocking_hop`] by
    /// the memoised [`ProgramAccesses::conflict`] verdict that put it in
    /// the graph, or as a control edge when no data conflict did.
    fn dependence_cycle(
        &mut self,
        seq: &[MethodId],
        merged: &[MergedStmt],
        u: usize,
        hop: usize,
    ) -> BlockCause {
        let stmt = |w: usize| (seq[merged[w].traversal], merged[w].index);
        let same_frame = merged[u].traversal == merged[hop].traversal;
        let kind = self
            .accesses
            .conflict(stmt(u), stmt(hop), same_frame)
            .unwrap_or(ConflictKind::Control);
        BlockCause::DependenceCycle {
            kind,
            from: edge_end(self.program, merged, u),
            to: edge_end(self.program, merged, hop),
        }
    }

    /// Emits the scheduled body, turning each call group into a stub
    /// dispatch (recursing into `stub_for` / `fused_for`).
    fn emit_body(
        &mut self,
        seq: &[MethodId],
        merged: &[MergedStmt],
        group_of: &[usize],
        order: &[usize],
    ) -> Vec<ScheduledItem> {
        let mut emitted_groups: Vec<bool> = vec![false; merged.len() + 1];
        let mut body = Vec::new();
        for &v in order {
            let MergedStmt {
                traversal,
                index,
                stmt,
            } = merged[v];
            if !matches!(stmt, Stmt::Traverse(_)) {
                body.push(ScheduledItem::Stmt { traversal, index });
                continue;
            }
            let g = group_of[v];
            if emitted_groups[g] {
                continue;
            }
            emitted_groups[g] = true;
            // The members of the group, in merged order.
            let mut parts = Vec::new();
            let mut slots = Vec::new();
            let mut types = Vec::new();
            for w in (0..merged.len()).filter(|&w| group_of[w] == g) {
                let MergedStmt {
                    traversal,
                    index,
                    stmt: Stmt::Traverse(call),
                } = merged[w]
                else {
                    unreachable!("group members are traverses");
                };
                let owner = self.program.methods[seq[traversal].index()].class;
                if let Some(t) = self.program.path_target_type(owner, &call.receiver) {
                    types.push(t);
                }
                slots.push(call.slot);
                parts.push(CallPart { traversal, index });
            }
            let static_ty = self
                .program
                .least_common_ancestor(&types)
                .expect("grouping guarantees a common supertype");
            let stub = self.stub_for(static_ty, slots);
            body.push(ScheduledItem::Call { stub, parts });
        }
        body
    }
}

/// The explain record of one call site: the invoked slot's name plus the
/// source span of the `receiver->method(...)` statement.
fn call_site(program: &Program, merged: &[MergedStmt], v: usize) -> CallSite {
    let Stmt::Traverse(call) = merged[v].stmt else {
        unreachable!("call sites are traverses");
    };
    CallSite {
        method: program.methods[call.slot.index()].name.as_str().into(),
        span: call.span,
    }
}

/// Renders the receiver path of call vertex `v` as source-like text,
/// e.g. `this->left` or `(Inner*)this->kids`.
fn render_receiver(program: &Program, v: usize, merged: &[MergedStmt]) -> String {
    let Stmt::Traverse(call) = merged[v].stmt else {
        unreachable!("call sites are traverses");
    };
    let mut out = match call.receiver.base_cast {
        Some(c) => format!("({}*)this", program.classes[c.index()].name),
        None => "this".to_string(),
    };
    for f in call.receiver.fields() {
        out.push_str("->");
        out.push_str(&program.fields[f.index()].name);
    }
    out
}

/// Describes one endpoint of a named dependence edge.
fn edge_end(program: &Program, merged: &[MergedStmt], v: usize) -> EdgeEnd {
    let what = match merged[v].stmt {
        Stmt::Traverse(call) => {
            format!("call `{}`", program.methods[call.slot.index()].name)
        }
        _ => format!(
            "statement {} of traversal {}",
            merged[v].index, merged[v].traversal
        ),
    };
    EdgeEnd {
        traversal: merged[v].traversal,
        index: merged[v].index,
        what,
    }
}
