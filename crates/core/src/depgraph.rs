//! Dependence graphs for candidate fused functions (paper §3.2).
//!
//! A candidate fused function for a sequence `L` of concrete traversal
//! functions is (conceptually) the concatenation of their inlined bodies.
//! The dependence graph has one vertex per top-level statement; an edge
//! `u → v` (with `u` before `v` in the merged order) exists when
//!
//! 1. `u` and `v` may access the same memory location with at least one of
//!    them writing (tested by intersecting their access automata), or
//! 2. `u` and `v` come from the same traversal copy and either may `return`
//!    from it (control dependence).
//!
//! Statements from *different* inlined copies have disjoint local frames, so
//! local variables only induce dependences within a copy.
//!
//! Data conflicts come from a memo in [`ProgramAccesses`] keyed by interned
//! summary: statements with equal summaries share one verdict, and the
//! fused functions of one program share most of their pairs, so each pair
//! of distinct summaries is intersected once per program. Within one
//! graph, the verdicts of each pair of distinct summaries are cached in a
//! small table, so a long body of repeated statements costs one table read
//! per statement pair.
//!
//! Grouping calls into one dispatch (`DepGraph::group_calls`) is legal
//! exactly when the graph with the group condensed into one vertex stays
//! acyclic. The grouping decides that on reach sets over the body's calls
//! (a body has few calls), computed in one sweep over the graph and
//! updated when a merge commits, instead of condensing the whole graph
//! for every tentative merge.

use std::collections::VecDeque;

use grafter_frontend::{ClassId, MethodId, Program, Stmt};

use crate::access::{Hierarchy, ProgramAccesses};
use crate::fusion::FuseOptions;

/// One statement of a merged (outlined + inlined) function body.
#[derive(Clone, Copy, Debug)]
pub struct MergedStmt<'p> {
    /// Which element of the fused sequence the statement came from.
    pub traversal: usize,
    /// Statement index within that traversal's body.
    pub index: usize,
    /// The statement itself, borrowed from the program.
    pub stmt: &'p Stmt,
}

/// The dependence graph of a merged function body.
#[derive(Clone, Debug)]
pub struct DepGraph {
    /// `targets[offsets[u]..offsets[u + 1]]` = vertices that must stay
    /// after `u`, in ascending order.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

/// One traversing call of a merged body, as call grouping sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GroupCall {
    /// The call's vertex.
    pub vertex: usize,
    /// Calls group only with calls of equal key (their receiver path).
    pub key: usize,
    /// The dispatch slot, counted against `max_occurrences`.
    pub slot: MethodId,
    /// The receiver's static type, if the path resolves.
    pub ty: Option<ClassId>,
}

impl DepGraph {
    /// Builds the merged statement list for a sequence of concrete
    /// functions, all invoked on the same node.
    pub fn merge_bodies<'p>(program: &'p Program, seq: &[MethodId]) -> Vec<MergedStmt<'p>> {
        let mut merged = Vec::new();
        for (ti, &m) in seq.iter().enumerate() {
            for (si, stmt) in program.methods[m.index()].body.iter().enumerate() {
                merged.push(MergedStmt {
                    traversal: ti,
                    index: si,
                    stmt,
                });
            }
        }
        merged
    }

    /// Builds the dependence graph over `merged`, the statement list of the
    /// sequence `seq` (used to attribute statements to their methods for
    /// access summaries).
    pub fn build(
        accesses: &mut ProgramAccesses<'_>,
        seq: &[MethodId],
        merged: &[MergedStmt],
    ) -> DepGraph {
        let ids: Vec<u32> = merged
            .iter()
            .map(|ms| accesses.summary_id((seq[ms.traversal], ms.index)))
            .collect();
        // The body's distinct summaries, numbered densely.
        let mut local_of = vec![u32::MAX; accesses.n_summaries()];
        let mut distinct = Vec::new();
        let local: Vec<usize> = ids
            .iter()
            .map(|&id| {
                if local_of[id as usize] == u32::MAX {
                    local_of[id as usize] = distinct.len() as u32;
                    distinct.push(id);
                }
                local_of[id as usize] as usize
            })
            .collect();
        let k = distinct.len();
        let may_return: Vec<bool> = distinct
            .iter()
            .map(|&id| accesses.summary_by_id(id).may_return)
            .collect();
        // Per pair of distinct summaries: 0 until asked, then bit 7 plus
        // whether they conflict across traversal copies (bit 0) and within
        // one (bit 1).
        let mut verdicts = vec![0u8; k * k];
        let n = merged.len();
        let traversal: Vec<usize> = merged.iter().map(|ms| ms.traversal).collect();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for u in 0..n {
            let (lu, tu) = (local[u], traversal[u]);
            let row = &mut verdicts[lu * k..(lu + 1) * k];
            for v in (u + 1)..n {
                let lv = local[v];
                let same_frame = traversal[v] == tu;
                let control = same_frame && (may_return[lu] || may_return[lv]);
                let edge = control || {
                    if row[lv] == 0 {
                        let [across, within] =
                            accesses.conflicts_by_frame(distinct[lu], distinct[lv]);
                        row[lv] = 0x80 | u8::from(across) | (u8::from(within) << 1);
                    }
                    (row[lv] >> u8::from(same_frame)) & 1 != 0
                };
                if edge {
                    targets.push(v as u32);
                }
            }
            offsets.push(u32::try_from(targets.len()).expect("edge count fits in u32"));
        }
        DepGraph { offsets, targets }
    }

    /// Number of vertices.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Direct successors of `u`, ascending.
    pub fn succs(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The first hop of a shortest path `u → x → … → v` whose intermediate
    /// vertices avoid `v`, or `None` if no such path exists.
    ///
    /// This is the legality test for grouping the pair `u < v`: edges only
    /// point forward, so merging the two into one vertex closes a cycle
    /// exactly when such a path exists. The returned successor of `u` names
    /// the dependence edge that blocks the pair.
    pub fn blocking_hop(&self, u: usize, v: usize) -> Option<usize> {
        // Breadth-first from u's successors; `first[x]` is the successor of
        // u through which x was first reached. Vertices past v cannot reach
        // it, so the search stays below v.
        let mut first: Vec<Option<usize>> = vec![None; v];
        let mut queue = VecDeque::new();
        for &s in self.succs(u) {
            let s = s as usize;
            if s < v {
                first[s] = Some(s);
                queue.push_back(s);
            }
        }
        while let Some(x) = queue.pop_front() {
            for &s in self.succs(x) {
                let s = s as usize;
                if s == v {
                    return first[x];
                }
                if s < v && first[s].is_none() {
                    first[s] = first[x];
                    queue.push_back(s);
                }
            }
        }
        None
    }

    /// Greedy call grouping (paper §4): each ungrouped call in order opens
    /// a group and takes every later ungrouped call of its key while the
    /// cutoffs hold, the calls' static types share a supertype, and the
    /// graph with the group condensed stays acyclic. Returns each vertex's
    /// group, named by its first member (non-calls are singletons).
    ///
    /// Legality is decided on reach sets over the calls. With the current
    /// groups condensed, the graph is acyclic, so adding call `v` to group
    /// `G` closes a cycle exactly when a path `G → … → v` or `v → … → G`
    /// passes through a vertex outside `G ∪ {v}`: either only through
    /// non-calls (`long` below), or through another call's group (`down`
    /// and `up`, which always describe the condensed graph).
    pub(crate) fn group_calls(
        &self,
        calls: &[GroupCall],
        hierarchy: &Hierarchy,
        opts: &FuseOptions,
    ) -> Vec<usize> {
        let mut group_of: Vec<usize> = (0..self.len()).collect();
        if !opts.grouping {
            return group_of;
        }
        let mut reach = CallReach::new(self, calls);
        let mut grouped = vec![false; calls.len()];
        let mut members = Vec::new();
        let mut common = Vec::new();
        for u in 0..calls.len() {
            if grouped[u] {
                continue;
            }
            grouped[u] = true;
            members.clear();
            members.push(u);
            reach.open(u);
            common.clear();
            common.extend_from_slice(hierarchy.up(calls[u].ty.unwrap_or(ClassId(0))));
            for v in 0..calls.len() {
                if grouped[v] || calls[v].key != calls[u].key {
                    continue;
                }
                if members.len() + 1 > opts.max_group_size {
                    break;
                }
                let slot = calls[v].slot;
                let occurrences = members.iter().filter(|&&m| calls[m].slot == slot).count();
                if occurrences + 1 > opts.max_occurrences {
                    continue;
                }
                // The grouped calls need a common supertype to dispatch on.
                let Some(ty) = calls[v].ty else {
                    continue;
                };
                let up = hierarchy.up(ty);
                if !common.iter().zip(up).any(|(c, t)| c & t != 0) {
                    continue;
                }
                if reach.may_join(v) {
                    reach.join(v);
                    grouped[v] = true;
                    members.push(v);
                    common.iter_mut().zip(up).for_each(|(c, t)| *c &= t);
                    group_of[calls[v].vertex] = calls[u].vertex;
                }
            }
        }
        group_of
    }

    /// Topological order of the graph with `groups` condensed into single
    /// super-vertices, stable with respect to original position (Kahn's
    /// algorithm, smallest-available first: the ready groups are a bitset
    /// of their first members). Vertices in the same group come out
    /// consecutively, in original order.
    ///
    /// `group_of[v]` maps each vertex to its group id; every vertex belongs
    /// to exactly one group (singletons included).
    ///
    /// # Panics
    ///
    /// Panics if the condensed graph has a cycle — callers must only group
    /// calls whose condensation is legal (see [`DepGraph::blocking_hop`]).
    pub fn schedule(&self, group_of: &[usize], n_groups: usize) -> Vec<usize> {
        let n = self.len();
        assert_eq!(group_of.len(), n);
        // Members of each group, in original order.
        let mut starts = vec![0usize; n_groups + 1];
        for &g in group_of {
            starts[g + 1] += 1;
        }
        for g in 0..n_groups {
            starts[g + 1] += starts[g];
        }
        let mut next = starts[..n_groups].to_vec();
        let mut members = vec![0usize; n];
        for (v, &g) in group_of.iter().enumerate() {
            members[next[g]] = v;
            next[g] += 1;
        }
        let members_of = |g: usize| &members[starts[g]..starts[g + 1]];
        // Each group's distinct successor groups, found by a scan of its
        // members' edges with a marker per group holding the last group
        // that counted it (twice: for in-degrees, then as groups leave).
        let for_each_succ = |g: usize, mark: &mut [usize], f: &mut dyn FnMut(usize)| {
            for &u in members_of(g) {
                for &v in self.succs(u) {
                    let h = group_of[v as usize];
                    if h != g && mark[h] != g {
                        mark[h] = g;
                        f(h);
                    }
                }
            }
        };
        let mut mark = vec![usize::MAX; n_groups];
        let mut indeg = vec![0usize; n_groups];
        for g in 0..n_groups {
            for_each_succ(g, &mut mark, &mut |h| indeg[h] += 1);
        }
        mark.fill(usize::MAX);
        // The ready groups, as a bitset of their first members; the
        // lowest set bit is the next group.
        let mut ready = vec![0u64; n.div_ceil(64)];
        let mut lowest = 0;
        for g in (0..n_groups).filter(|&g| indeg[g] == 0) {
            set(&mut ready, members_of(g)[0]);
        }
        let mut order = Vec::with_capacity(n);
        let mut emitted = 0;
        while let Some(word) = (lowest..ready.len()).find(|&w| ready[w] != 0) {
            let first = word * 64 + ready[word].trailing_zeros() as usize;
            ready[word] &= ready[word] - 1;
            lowest = word;
            let g = group_of[first];
            order.extend_from_slice(members_of(g));
            emitted += 1;
            for_each_succ(g, &mut mark, &mut |h| {
                indeg[h] -= 1;
                if indeg[h] == 0 {
                    let first = members_of(h)[0];
                    set(&mut ready, first);
                    lowest = lowest.min(first / 64);
                }
            });
        }
        assert_eq!(
            emitted, n_groups,
            "condensed dependence graph must be acyclic"
        );
        order
    }

    /// Validates that `order` (a permutation of vertices) respects every
    /// edge. Used by tests and debug assertions.
    pub fn order_is_valid(&self, order: &[usize]) -> bool {
        let mut pos = vec![0usize; self.len()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        (0..self.len()).all(|u| self.succs(u).iter().all(|&v| pos[u] < pos[v as usize]))
    }
}

/// Reach sets over the calls of a body, as bitsets indexed by call, for
/// the graph with the committed groups condensed, plus the group being
/// formed.
struct CallReach {
    words: usize,
    /// Per call: the calls it reaches through non-call vertices only, by
    /// a path with at least one of them.
    long: Vec<u64>,
    /// Per call: the calls its group reaches, own group excluded.
    down: Vec<u64>,
    /// Per call: the calls that reach its group, own group excluded.
    up: Vec<u64>,
    /// The open group: a member, all members, and their joint `long`.
    first: usize,
    members: Vec<u64>,
    group_long: Vec<u64>,
    /// What the merged group reaches and what reaches it, while joining.
    reached: Vec<u64>,
    reaching: Vec<u64>,
}

impl CallReach {
    /// Reach sets with every call its own group, from a backward sweep
    /// over the vertices from the first call on, one 64-call word at a
    /// time: `near[x]` holds the first calls reached from `x` through
    /// non-calls, `far[x]` every call reached from `x`.
    fn new(graph: &DepGraph, calls: &[GroupCall]) -> Self {
        let words = calls.len().div_ceil(64).max(1);
        let mut reach = CallReach {
            words,
            long: vec![0; calls.len() * words],
            down: vec![0; calls.len() * words],
            up: vec![0; calls.len() * words],
            first: 0,
            members: vec![0; words],
            group_long: vec![0; words],
            reached: vec![0; words],
            reaching: vec![0; words],
        };
        let Some(base) = calls.first().map(|c| c.vertex) else {
            return reach;
        };
        let n = graph.len() - base;
        let mut index = vec![usize::MAX; n];
        for (i, call) in calls.iter().enumerate() {
            index[call.vertex - base] = i;
        }
        let (mut near, mut far) = (vec![0u64; n], vec![0u64; n]);
        for word in 0..words {
            // The bit of call `i` in this word, if it has one.
            let bit = |i: usize| if i / 64 == word { 1u64 << (i % 64) } else { 0 };
            for x in (0..n).rev() {
                let (mut near_x, mut far_x, mut long_x) = (0, 0, 0);
                for &s in graph.succs(base + x) {
                    let s = s as usize - base;
                    far_x |= far[s];
                    match index[s] {
                        usize::MAX => {
                            near_x |= near[s];
                            long_x |= near[s];
                        }
                        i => {
                            near_x |= bit(i);
                            far_x |= bit(i);
                        }
                    }
                }
                near[x] = near_x;
                far[x] = far_x;
                if index[x] != usize::MAX {
                    reach.long[index[x] * words + word] = long_x;
                }
            }
            for (i, call) in calls.iter().enumerate() {
                let far_i = far[call.vertex - base];
                reach.down[i * words + word] = far_i;
                for j in bits(&[far_i]) {
                    set(&mut reach.up[(word * 64 + j) * words..], i);
                }
            }
        }
        reach
    }

    fn row(v: &[u64], words: usize, i: usize) -> &[u64] {
        &v[i * words..(i + 1) * words]
    }

    /// Opens a group holding call `u` alone.
    fn open(&mut self, u: usize) {
        self.first = u;
        self.members.fill(0);
        set(&mut self.members, u);
        self.group_long
            .copy_from_slice(Self::row(&self.long, self.words, u));
    }

    /// Whether call `v` may join the open group without closing a cycle.
    /// A member's `down` and `up` are the group's. Calls join in order,
    /// so every member precedes `v`, and a path through non-calls only
    /// (which runs forward) can lead from the group to `v` but not back.
    fn may_join(&self, v: usize) -> bool {
        let (w, first) = (self.words, self.first);
        let meets = |a: &[u64], b: &[u64]| a.iter().zip(b).any(|(x, y)| x & y != 0);
        // G → non-calls → v.
        !has(&self.group_long, v)
            // G → … → c → … → v, or v → … → c → … → G, for a call c
            // outside both.
            && !meets(Self::row(&self.down, w, first), Self::row(&self.up, w, v))
            && !meets(Self::row(&self.down, w, v), Self::row(&self.up, w, first))
    }

    /// Commits call `v` to the open group: everything that reaches the
    /// merged group now reaches all it reaches, and the other way round.
    fn join(&mut self, v: usize) {
        let (w, first) = (self.words, self.first);
        set(&mut self.members, v);
        or_into(&mut self.group_long, Self::row(&self.long, w, v));
        for i in 0..w {
            let outside = !self.members[i];
            self.reached[i] = (self.down[first * w + i] | self.down[v * w + i]) & outside;
            self.reaching[i] = (self.up[first * w + i] | self.up[v * w + i]) & outside;
        }
        for x in bits(&self.reaching) {
            let row = &mut self.down[x * w..(x + 1) * w];
            or_into(row, &self.reached);
            or_into(row, &self.members);
        }
        for y in bits(&self.reached) {
            let row = &mut self.up[y * w..(y + 1) * w];
            or_into(row, &self.reaching);
            or_into(row, &self.members);
        }
        for m in bits(&self.members) {
            self.down[m * w..(m + 1) * w].copy_from_slice(&self.reached);
            self.up[m * w..(m + 1) * w].copy_from_slice(&self.reaching);
        }
    }
}

fn or_into(into: &mut [u64], from: &[u64]) {
    into.iter_mut().zip(from).for_each(|(a, b)| *a |= b);
}

fn set(bitset: &mut [u64], i: usize) {
    bitset[i / 64] |= 1 << (i % 64);
}

fn has(bitset: &[u64], i: usize) -> bool {
    bitset[i / 64] & (1 << (i % 64)) != 0
}

/// The indices of the set bits, ascending.
fn bits(bitset: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bitset.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafter_frontend::compile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dep_fixture() -> (Program, Vec<MethodId>) {
        let p = compile(
            r#"
            tree class Node {
                child Node* next;
                int a = 0; int b = 0;
                virtual traversal writeA() {}
                virtual traversal readA() {}
                virtual traversal touchB() {}
            }
            tree class Cons : Node {
                traversal writeA() { a = 1; this->next->writeA(); }
                traversal readA() { b = a; this->next->readA(); }
                traversal touchB() { b = b + 1; this->next->touchB(); }
            }
            tree class End : Node { }
            "#,
        )
        .unwrap();
        let cons = p.class_by_name("Cons").unwrap();
        let seq = vec![
            p.method_on_class(cons, "writeA").unwrap(),
            p.method_on_class(cons, "readA").unwrap(),
        ];
        (p, seq)
    }

    #[test]
    fn merge_bodies_concatenates_in_order() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[0].traversal, 0);
        assert_eq!(merged[3].traversal, 1);
        assert_eq!(merged[1].index, 1);
    }

    #[test]
    fn detects_cross_traversal_data_dependence() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // writeA's `a = 1` (0) is a source of readA's `b = a` (2).
        assert!(g.succs(0).contains(&2));
        // The recursive calls both touch `a` below: call (1) vs call (3).
        assert!(g.succs(1).contains(&3));
        // writeA's statement does not conflict with readA's call (the call
        // only touches descendants' fields, not this node's `a`)... it does:
        // readA's call reads next.a etc., writeA's stmt writes this.a — no
        // overlap.
        assert!(!g.succs(0).contains(&3));
    }

    #[test]
    fn independent_traversals_have_no_cross_edges() {
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
        let cons = p.class_by_name("Cons").unwrap();
        let seq = vec![
            p.method_on_class(cons, "incA").unwrap(),
            p.method_on_class(cons, "incB").unwrap(),
        ];
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        for u in 0..2 {
            for v in 2..4 {
                assert!(!g.succs(u).contains(&v), "{u} -> {v} should be absent");
            }
        }
        // Within incA, `a = a + 1` and the recursive call are independent
        // (the call only touches next's subtree).
        assert!(!g.succs(0).contains(&1));
    }

    #[test]
    fn control_dependence_pins_returns() {
        let p = compile(
            r#"
            tree class A {
                bool stop = false;
                int x = 0;
                int y = 0;
                traversal f() {
                    if (stop) { return; }
                    x = 1;
                    y = 2;
                }
            }
            "#,
        )
        .unwrap();
        let a = p.class_by_name("A").unwrap();
        let seq = vec![p.method_on_class(a, "f").unwrap()];
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // The conditional return pins both later statements.
        assert!(g.succs(0).contains(&1));
        assert!(g.succs(0).contains(&2));
        // But x=1 and y=2 stay mutually independent.
        assert!(!g.succs(1).contains(&2));
    }

    #[test]
    fn schedule_groups_consecutively_and_validly() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // Group the two calls (vertices 1 and 3) together if legal.
        assert_eq!(g.blocking_hop(1, 3), None);
        let group_of = vec![0, 1, 2, 1];
        let order = g.schedule(&group_of, 3);
        assert!(g.order_is_valid(&order), "order {order:?}");
        let p1 = order.iter().position(|&v| v == 1).unwrap();
        let p3 = order.iter().position(|&v| v == 3).unwrap();
        assert_eq!(p3, p1 + 1, "grouped calls are consecutive: {order:?}");
    }

    #[test]
    fn blocking_hop_detects_blocking_vertex() {
        let p = compile(
            r#"
            tree class Node {
                child Node* next;
                int a = 0;
                virtual traversal f() {}
                virtual traversal g() {}
            }
            tree class Cons : Node {
                traversal f() { this->next->f(); a = 1; }
                traversal g() { a = 2; this->next->g(); }
            }
            tree class End : Node { }
            "#,
        )
        .unwrap();
        let cons = p.class_by_name("Cons").unwrap();
        let seq = vec![
            p.method_on_class(cons, "f").unwrap(),
            p.method_on_class(cons, "g").unwrap(),
        ];
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // merged: 0 = call f, 1 = a=1, 2 = a=2, 3 = call g.
        // a=1 and a=2 conflict; both calls are on `next`.
        // Grouping the calls requires call(0) ... call(3) with a=1, a=2 in
        // between; 0→3 path through outside vertices does not exist (calls
        // touch only the next subtree, stores touch this.a).
        assert_eq!(g.blocking_hop(0, 3), None);
        // But a=1 (1) reaches a=2 (2) directly.
        assert!(g.succs(1).contains(&2));
    }

    /// Whether `v` is reachable from `u` by a non-empty path.
    fn reachable(g: &DepGraph, u: usize, v: usize) -> bool {
        let mut stack = vec![u];
        let mut seen = vec![false; g.len()];
        while let Some(x) = stack.pop() {
            for &s in g.succs(x) {
                let s = s as usize;
                if s == v {
                    return true;
                }
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    fn from_succs(succs: &[Vec<usize>]) -> DepGraph {
        let mut offsets = vec![0];
        let mut targets = Vec::new();
        for row in succs {
            targets.extend(row.iter().map(|&v| v as u32));
            offsets.push(targets.len() as u32);
        }
        DepGraph { offsets, targets }
    }

    /// A random forward DAG on `n` vertices.
    fn random_dag(rng: &mut StdRng, n: usize) -> Vec<Vec<usize>> {
        let density = rng.gen_range(0.05..0.6);
        (0..n)
            .map(|u| ((u + 1)..n).filter(|_| rng.gen_bool(density)).collect())
            .collect()
    }

    /// The condensed graph of `group_of` (ids below `n_groups`): each
    /// group's distinct successor groups, and each group's in-degree.
    fn condense(
        g: &DepGraph,
        group_of: &[usize],
        n_groups: usize,
    ) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut gsuccs: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        let mut indeg = vec![0usize; n_groups];
        for u in 0..g.len() {
            for &v in g.succs(u) {
                let (gu, gv) = (group_of[u], group_of[v as usize]);
                if gu != gv && !gsuccs[gu].contains(&gv) {
                    gsuccs[gu].push(gv);
                    indeg[gv] += 1;
                }
            }
        }
        (gsuccs, indeg)
    }

    /// Whether the graph stays acyclic with the vertices of each group of
    /// `group_of` condensed into one. Group ids must be below the vertex
    /// count.
    fn condensation_is_acyclic(g: &DepGraph, group_of: &[usize]) -> bool {
        let n_groups = g.len();
        let (gsuccs, mut indeg) = condense(g, group_of, n_groups);
        let mut ready: Vec<usize> = (0..n_groups).filter(|&g| indeg[g] == 0).collect();
        let mut seen = 0;
        while let Some(g) = ready.pop() {
            seen += 1;
            for &s in &gsuccs[g] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        seen == n_groups
    }

    /// The greedy as first written: it condenses the whole graph for
    /// every tentative merge and joins types by their ancestor lists.
    fn reference_group(
        g: &DepGraph,
        calls: &[GroupCall],
        supers: &[Vec<ClassId>],
        opts: &FuseOptions,
    ) -> Vec<usize> {
        let upward = |c: ClassId| {
            let mut out = vec![c];
            let mut stack = supers[c.index()].clone();
            while let Some(s) = stack.pop() {
                if !out.contains(&s) {
                    out.push(s);
                    stack.extend(supers[s.index()].iter().copied());
                }
            }
            out
        };
        let have_common = |types: &[ClassId]| {
            let mut common = upward(types[0]);
            for &t in &types[1..] {
                let up = upward(t);
                common.retain(|c| up.contains(c));
            }
            !common.is_empty()
        };
        let mut group_of: Vec<usize> = (0..g.len()).collect();
        let mut grouped = vec![false; calls.len()];
        for u in 0..calls.len() {
            if !opts.grouping {
                break;
            }
            if grouped[u] {
                continue;
            }
            grouped[u] = true;
            let mut members = vec![u];
            let mut types = vec![calls[u].ty.unwrap_or(ClassId(0))];
            for v in 0..calls.len() {
                if grouped[v] || calls[v].key != calls[u].key {
                    continue;
                }
                if members.len() + 1 > opts.max_group_size {
                    break;
                }
                let occurrences = members
                    .iter()
                    .filter(|&&m| calls[m].slot == calls[v].slot)
                    .count();
                if occurrences + 1 > opts.max_occurrences {
                    continue;
                }
                let Some(vt) = calls[v].ty else {
                    continue;
                };
                let mut tentative = types.clone();
                tentative.push(vt);
                if !have_common(&tentative) {
                    continue;
                }
                let (uv, vv) = (calls[u].vertex, calls[v].vertex);
                let saved = group_of[vv];
                group_of[vv] = group_of[uv];
                if condensation_is_acyclic(g, &group_of) {
                    grouped[v] = true;
                    members.push(v);
                    types = tentative;
                } else {
                    group_of[vv] = saved;
                }
            }
        }
        group_of
    }

    /// Kahn's algorithm as first written: it rescans the ready list for
    /// the group whose first member is earliest.
    fn reference_schedule(g: &DepGraph, group_of: &[usize], n_groups: usize) -> Vec<usize> {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for (v, &gr) in group_of.iter().enumerate() {
            members[gr].push(v);
        }
        let (gsuccs, mut indeg) = condense(g, group_of, n_groups);
        let mut ready: Vec<usize> = (0..n_groups).filter(|&g| indeg[g] == 0).collect();
        let mut order = Vec::new();
        while !ready.is_empty() {
            let (i, &gr) = ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &gr)| members[gr].first().copied().unwrap_or(usize::MAX))
                .unwrap();
            ready.remove(i);
            order.extend(members[gr].iter().copied());
            for &s in &gsuccs[gr] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        order
    }

    /// Numbers groups densely in order of first appearance.
    fn dense(group_of: &[usize]) -> (Vec<usize>, usize) {
        let mut ids = vec![usize::MAX; group_of.len()];
        let mut n = 0;
        let out = group_of
            .iter()
            .map(|&g| {
                if ids[g] == usize::MAX {
                    ids[g] = n;
                    n += 1;
                }
                ids[g]
            })
            .collect();
        (out, n)
    }

    #[test]
    fn reach_set_grouping_agrees_with_recondensation_on_random_bodies() {
        let mut rng = StdRng::seed_from_u64(11);
        let (mut merges, mut refused) = (0, 0);
        // Small bodies, then a few with more than 64 calls (several words
        // per reach set) and sparser edges.
        for case in 0..3030 {
            let n = if case < 3000 {
                rng.gen_range(2..16usize)
            } else {
                rng.gen_range(100..200usize)
            };
            let dag = if case < 3000 {
                random_dag(&mut rng, n)
            } else {
                (0..n)
                    .map(|u| ((u + 1)..n).filter(|_| rng.gen_bool(0.02)).collect())
                    .collect()
            };
            let g = from_succs(&dag);
            // A random hierarchy: each class may extend several earlier ones.
            let n_classes = rng.gen_range(1..6usize);
            let supers: Vec<Vec<ClassId>> = (0..n_classes)
                .map(|c| {
                    (0..c)
                        .filter(|_| rng.gen_bool(0.4))
                        .map(|s| ClassId(s as u32))
                        .collect()
                })
                .collect();
            let hierarchy = Hierarchy::new(supers.iter().map(Vec::as_slice));
            let mut calls = Vec::new();
            for vertex in 0..n {
                if rng.gen_bool(0.6) {
                    let (key, slot) = (rng.gen_range(0..2usize), rng.gen_range(0..3u32));
                    let typed = rng.gen_bool(0.85);
                    let ty = ClassId(rng.gen_range(0..n_classes as u32));
                    calls.push(GroupCall {
                        vertex,
                        key,
                        slot: MethodId(slot),
                        ty: typed.then_some(ty),
                    });
                }
            }
            let opts = FuseOptions {
                max_group_size: rng.gen_range(1..6usize),
                max_occurrences: rng.gen_range(1..4usize),
                grouping: true,
            };
            let expected = reference_group(&g, &calls, &supers, &opts);
            let got = g.group_calls(&calls, &hierarchy, &opts);
            assert_eq!(got, expected, "{g:?} {calls:?} {supers:?} {opts:?}");
            let (group_of, n_groups) = dense(&got);
            assert_eq!(
                g.schedule(&group_of, n_groups),
                reference_schedule(&g, &group_of, n_groups),
                "{g:?} {group_of:?}"
            );
            let grouped = (0..n).filter(|&v| got[v] != v).count();
            merges += grouped;
            // Same-key calls left apart although the cutoffs allowed more.
            refused += usize::from(grouped == 0 && calls.len() > 1);
        }
        assert!(
            merges > 1000 && refused > 100,
            "{merges} merges, {refused} bodies refused"
        );
    }

    #[test]
    fn blocking_hop_agrees_with_pair_condensation_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(2..12usize);
            let density = rng.gen_range(0.05..0.6);
            let succs: Vec<Vec<usize>> = (0..n)
                .map(|u| ((u + 1)..n).filter(|_| rng.gen_bool(density)).collect())
                .collect();
            let g = from_succs(&succs);
            for u in 0..n {
                for v in (u + 1)..n {
                    let mut pair: Vec<usize> = (0..n).collect();
                    pair[v] = u;
                    let hop = g.blocking_hop(u, v);
                    assert_eq!(
                        hop.is_none(),
                        condensation_is_acyclic(&g, &pair),
                        "pair ({u}, {v}) of {g:?}"
                    );
                    if let Some(h) = hop {
                        assert!(
                            g.succs(u).contains(&(h as u32)),
                            "hop {h} of ({u}, {v}) in {g:?}"
                        );
                        assert_ne!(h, v);
                        assert!(reachable(&g, h, v), "hop {h} of ({u}, {v}) in {g:?}");
                    }
                }
            }
        }
    }
}
