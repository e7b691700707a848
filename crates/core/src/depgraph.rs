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
//! Data conflicts come from a memo in [`ProgramAccesses`] that keeps each
//! `(statement, statement, same_frame)` verdict: the fused functions of
//! one program share most of their statement pairs, so each pair's
//! automata are intersected once per program, not once per graph.

use std::collections::VecDeque;

use grafter_frontend::{MethodId, Program, Stmt};

use crate::access::ProgramAccesses;

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
    /// `succs[u]` = vertices that must stay after `u`, in ascending order.
    succs: Vec<Vec<usize>>,
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
        let stmts: Vec<(MethodId, usize)> = merged
            .iter()
            .map(|ms| (seq[ms.traversal], ms.index))
            .collect();
        let may_return: Vec<bool> = stmts
            .iter()
            .map(|&(method, index)| accesses.summary(method, index).may_return)
            .collect();
        let n = merged.len();
        let mut succs = vec![Vec::new(); n];
        for u in 0..n {
            for v in (u + 1)..n {
                let same_frame = merged[u].traversal == merged[v].traversal;
                let control = same_frame && (may_return[u] || may_return[v]);
                if control || accesses.conflict(stmts[u], stmts[v], same_frame).is_some() {
                    succs[u].push(v);
                }
            }
        }
        DepGraph { succs }
    }

    /// Direct successors of `u`.
    pub fn succs(&self, u: usize) -> &[usize] {
        &self.succs[u]
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
        let mut first: Vec<Option<usize>> = vec![None; self.succs.len()];
        let mut queue = VecDeque::new();
        for &s in &self.succs[u] {
            if s < v {
                first[s] = Some(s);
                queue.push_back(s);
            }
        }
        while let Some(x) = queue.pop_front() {
            for &s in &self.succs[x] {
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

    /// Whether the graph stays acyclic with the vertices of each group of
    /// `group_of` condensed into one, i.e. whether [`DepGraph::schedule`]
    /// accepts the grouping. Group ids must be below the vertex count.
    pub fn condensation_is_acyclic(&self, group_of: &[usize]) -> bool {
        let n_groups = self.succs.len();
        let (gsuccs, mut indeg) = self.condense(group_of, n_groups);
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

    /// Topological order of the graph with `groups` condensed into single
    /// super-vertices, stable with respect to original position (Kahn's
    /// algorithm, smallest-available first). Vertices in the same group come
    /// out consecutively, in original order.
    ///
    /// `group_of[v]` maps each vertex to its group id; every vertex belongs
    /// to exactly one group (singletons included).
    ///
    /// # Panics
    ///
    /// Panics if the condensed graph has a cycle — callers must only group
    /// calls whose condensation is legal (see
    /// [`DepGraph::condensation_is_acyclic`] and [`DepGraph::blocking_hop`]).
    pub fn schedule(&self, group_of: &[usize], n_groups: usize) -> Vec<usize> {
        let n = self.succs.len();
        assert_eq!(group_of.len(), n);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for v in 0..n {
            members[group_of[v]].push(v);
        }
        let (gsuccs, mut indeg) = self.condense(group_of, n_groups);
        // Kahn, preferring the group whose first member is earliest.
        let mut ready: Vec<usize> = (0..n_groups).filter(|&g| indeg[g] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut emitted = 0;
        while !ready.is_empty() {
            let (i, &g) = ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &g)| members[g].first().copied().unwrap_or(usize::MAX))
                .expect("ready nonempty");
            ready.remove(i);
            order.extend(members[g].iter().copied());
            emitted += 1;
            for &s in &gsuccs[g] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(
            emitted, n_groups,
            "condensed dependence graph must be acyclic"
        );
        order
    }

    /// The condensed graph of `group_of` (ids below `n_groups`): each
    /// group's distinct successor groups, and each group's in-degree.
    fn condense(&self, group_of: &[usize], n_groups: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
        let mut gsuccs: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        let mut indeg = vec![0usize; n_groups];
        for (u, succs) in self.succs.iter().enumerate() {
            for &v in succs {
                let (gu, gv) = (group_of[u], group_of[v]);
                if gu != gv && !gsuccs[gu].contains(&gv) {
                    gsuccs[gu].push(gv);
                    indeg[gv] += 1;
                }
            }
        }
        (gsuccs, indeg)
    }

    /// Validates that `order` (a permutation of vertices) respects every
    /// edge. Used by tests and debug assertions.
    pub fn order_is_valid(&self, order: &[usize]) -> bool {
        let mut pos = vec![0usize; self.succs.len()];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        self.succs
            .iter()
            .enumerate()
            .all(|(u, succs)| succs.iter().all(|&v| pos[u] < pos[v]))
    }
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
        let mut seen = vec![false; g.succs.len()];
        while let Some(x) = stack.pop() {
            for &s in g.succs(x) {
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

    #[test]
    fn blocking_hop_agrees_with_pair_condensation_on_random_dags() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let n = rng.gen_range(2..12usize);
            let density = rng.gen_range(0.05..0.6);
            let succs = (0..n)
                .map(|u| ((u + 1)..n).filter(|_| rng.gen_bool(density)).collect())
                .collect();
            let g = DepGraph { succs };
            for u in 0..n {
                for v in (u + 1)..n {
                    let mut pair: Vec<usize> = (0..n).collect();
                    pair[v] = u;
                    let hop = g.blocking_hop(u, v);
                    assert_eq!(
                        hop.is_none(),
                        g.condensation_is_acyclic(&pair),
                        "pair ({u}, {v}) of {g:?}"
                    );
                    if let Some(h) = hop {
                        assert!(g.succs(u).contains(&h), "hop {h} of ({u}, {v}) in {g:?}");
                        assert_ne!(h, v);
                        assert!(reachable(&g, h, v), "hop {h} of ({u}, {v}) in {g:?}");
                    }
                }
            }
        }
    }
}
