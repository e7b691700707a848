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

use grafter_frontend::{MethodId, Program, Stmt};

use crate::access::{AccessSummary, ProgramAccesses};

/// One statement of a merged (outlined + inlined) function body.
#[derive(Clone, Debug)]
pub struct MergedStmt {
    /// Which element of the fused sequence the statement came from.
    pub traversal: usize,
    /// Statement index within that traversal's body.
    pub index: usize,
    /// The statement itself.
    pub stmt: Stmt,
}

/// The dependence graph of a merged function body.
#[derive(Clone, Debug)]
pub struct DepGraph {
    n: usize,
    /// `succs[u]` = vertices that must stay after `u`.
    succs: Vec<Vec<usize>>,
    /// `preds[v]` = vertices that must stay before `v`.
    preds: Vec<Vec<usize>>,
}

impl DepGraph {
    /// Builds the merged statement list for a sequence of concrete
    /// functions, all invoked on the same node.
    pub fn merge_bodies(program: &Program, seq: &[MethodId]) -> Vec<MergedStmt> {
        let mut merged = Vec::new();
        for (ti, &m) in seq.iter().enumerate() {
            for (si, stmt) in program.methods[m.index()].body.iter().enumerate() {
                merged.push(MergedStmt {
                    traversal: ti,
                    index: si,
                    stmt: stmt.clone(),
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
        let n = merged.len();
        let summaries: Vec<AccessSummary> = merged
            .iter()
            .map(|ms| accesses.summary(seq[ms.traversal], ms.index).clone())
            .collect();

        let mut g = DepGraph {
            n,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        };
        for u in 0..n {
            for v in (u + 1)..n {
                let same_frame = merged[u].traversal == merged[v].traversal;
                let control = same_frame && (summaries[u].may_return || summaries[v].may_return);
                if control || summaries[u].conflicts_with(&summaries[v], same_frame) {
                    g.succs[u].push(v);
                    g.preds[v].push(u);
                }
            }
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether there is a direct edge `u → v`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.succs[u].contains(&v)
    }

    /// Direct successors of `u`.
    pub fn succs(&self, u: usize) -> &[usize] {
        &self.succs[u]
    }

    /// Direct predecessors of `v`.
    pub fn preds(&self, v: usize) -> &[usize] {
        &self.preds[v]
    }

    /// Whether `v` is reachable from `u` by a non-empty path.
    pub fn reaches(&self, u: usize, v: usize) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![u];
        while let Some(x) = stack.pop() {
            for &s in &self.succs[x] {
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

    /// Whether `v` is reachable from `u` through at least one intermediate
    /// vertex that is *not* in `group`.
    ///
    /// This is the legality test for call grouping: merging the members of
    /// `group` into one vertex keeps the graph acyclic iff no member reaches
    /// another member through an outside vertex.
    pub fn reaches_outside(&self, u: usize, v: usize, group: &[usize]) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack: Vec<usize> = Vec::new();
        for &s in &self.succs[u] {
            if !group.contains(&s) {
                stack.push(s);
            }
        }
        while let Some(x) = stack.pop() {
            if seen[x] {
                continue;
            }
            seen[x] = true;
            if x == v {
                return true;
            }
            for &s in &self.succs[x] {
                if s == v {
                    return true;
                }
                if !group.contains(&s) && !seen[s] {
                    stack.push(s);
                }
            }
        }
        false
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
    /// calls whose condensation is legal (see [`DepGraph::reaches_outside`]).
    pub fn schedule(&self, group_of: &[usize], n_groups: usize) -> Vec<usize> {
        assert_eq!(group_of.len(), self.n);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for v in 0..self.n {
            members[group_of[v]].push(v);
        }
        // Build condensed edges and in-degrees.
        let mut gsuccs: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        let mut indeg = vec![0usize; n_groups];
        for u in 0..self.n {
            for &v in &self.succs[u] {
                let (gu, gv) = (group_of[u], group_of[v]);
                if gu != gv && !gsuccs[gu].contains(&gv) {
                    gsuccs[gu].push(gv);
                    indeg[gv] += 1;
                }
            }
        }
        // Kahn, preferring the group whose first member is earliest.
        let mut ready: Vec<usize> = (0..n_groups).filter(|&g| indeg[g] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
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

    /// Renders the graph in Graphviz DOT format, labelling vertices with
    /// their traversal index and statement kind — handy when inspecting why
    /// a grouping was rejected.
    pub fn to_dot(&self, merged: &[MergedStmt]) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph deps {\n  rankdir=TB;\n");
        for (v, ms) in merged.iter().enumerate() {
            let kind = match &ms.stmt {
                Stmt::Traverse(_) => "call",
                Stmt::Assign { .. } => "assign",
                Stmt::If { .. } => "if",
                Stmt::LocalDef { .. } => "local",
                Stmt::New { .. } => "new",
                Stmt::Delete { .. } => "delete",
                Stmt::Return => "return",
                Stmt::PureStmt { .. } => "pure",
            };
            let shape = if matches!(ms.stmt, Stmt::Traverse(_)) {
                "box"
            } else {
                "ellipse"
            };
            let _ = writeln!(
                out,
                "  v{v} [label=\"t{}#{} {kind}\", shape={shape}];",
                ms.traversal, ms.index
            );
        }
        for u in 0..self.n {
            for &v in &self.succs[u] {
                let _ = writeln!(out, "  v{u} -> v{v};");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Validates that `order` (a permutation of vertices) respects every
    /// edge. Used by tests and debug assertions.
    pub fn order_is_valid(&self, order: &[usize]) -> bool {
        let mut pos = vec![0usize; self.n];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        (0..self.n).all(|u| self.succs[u].iter().all(|&v| pos[u] < pos[v]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafter_frontend::compile;

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
        assert!(g.has_edge(0, 2));
        // The recursive calls both touch `a` below: call (1) vs call (3).
        assert!(g.has_edge(1, 3));
        // writeA's statement does not conflict with readA's call (the call
        // only touches descendants' fields, not this node's `a`)... it does:
        // readA's call reads next.a etc., writeA's stmt writes this.a — no
        // overlap.
        assert!(!g.has_edge(0, 3));
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
                assert!(!g.has_edge(u, v), "{u} -> {v} should be absent");
            }
        }
        // Within incA, `a = a + 1` and the recursive call are independent
        // (the call only touches next's subtree).
        assert!(!g.has_edge(0, 1));
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
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        // But x=1 and y=2 stay mutually independent.
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn schedule_groups_consecutively_and_validly() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // Group the two calls (vertices 1 and 3) together if legal.
        assert!(!g.reaches_outside(1, 3, &[1, 3]));
        let group_of = vec![0, 1, 2, 1];
        let order = g.schedule(&group_of, 3);
        assert!(g.order_is_valid(&order), "order {order:?}");
        let p1 = order.iter().position(|&v| v == 1).unwrap();
        let p3 = order.iter().position(|&v| v == 3).unwrap();
        assert_eq!(p3, p1 + 1, "grouped calls are consecutive: {order:?}");
    }

    #[test]
    fn dot_output_names_calls_and_statements() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        let dot = g.to_dot(&merged);
        assert!(dot.contains("digraph deps"));
        assert!(dot.contains("call"));
        assert!(dot.contains("assign"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn reaches_outside_detects_blocking_vertex() {
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
        assert!(!g.reaches_outside(0, 3, &[0, 3]));
        // But a=1 (1) reaches a=2 (2) directly.
        assert!(g.reaches(1, 2));
    }
}
