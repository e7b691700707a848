//! Case study 2 (§5.2): AST traversals for a simple imperative language.
//!
//! Twenty node types (Fig. 10) and six passes (Table 2): two de-sugaring
//! passes (`++`/`--` become assignments — real `new`/`delete` topology
//! mutation), constant propagation written as *two* cooperating traversals
//! (`propagateConstants` initiates `replaceVarRefs` on the statements that
//! follow a constant assignment; the replacement truncates at the next
//! reassignment via `return`), constant folding, and unused-branch removal
//! (deletes whole subtrees).
//!
//! Dynamic type tests use a `kind` tag field (set at construction) because
//! the language — like Grafter's — has no `instanceof`; conditional
//! initiation of `replaceVarRefs` uses the paper's §3.5 idiom of pushing
//! the condition into an unconditionally-invoked traversal that returns
//! immediately when disabled.

use grafter::pipeline::Compiled;
use grafter_frontend::Program;
use grafter_runtime::{Heap, NodeId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Statement kind tags.
pub mod kind {
    pub const STMT_ASSIGN: i64 = 1;
    pub const STMT_IF: i64 = 2;
    pub const STMT_INCR: i64 = 3;
    pub const STMT_DECR: i64 = 4;
    pub const STMT_RETURN: i64 = 6;
    pub const EXPR_CONST: i64 = 1;
    pub const EXPR_VAR: i64 = 2;
    pub const EXPR_BIN: i64 = 3;
    pub const EXPR_UN: i64 = 4;
    pub const OP_ADD: i64 = 0;
    pub const OP_SUB: i64 = 1;
    pub const OP_MUL: i64 = 2;
}

/// The AST program in the Grafter DSL.
pub const SOURCE: &str = include_str!("ast.gr");

/// The AST passes, in invocation order (Table 2). `replaceVarRefs` is
/// initiated internally by `propagateConstants`.
pub const PASSES: [&str; 5] = [
    "desugarIncr",
    "desugarDecr",
    "propagateConstants",
    "foldConstants",
    "removeUnusedBranches",
];

/// Root class the passes are invoked on.
pub const ROOT_CLASS: &str = "ProgramRoot";

/// Compiles the AST program.
///
/// # Panics
///
/// Panics if the embedded source fails to compile (a bug in this crate).
pub fn program() -> Program {
    compiled().into_program()
}

/// Compiles the workload through the staged pipeline, keeping the source
/// and any frontend warnings attached for later stages.
///
/// # Panics
///
/// Panics if the embedded source fails to compile (a bug in this crate).
pub fn compiled() -> Compiled {
    match Compiled::compile(SOURCE) {
        Ok(c) => c,
        Err(err) => panic!("ast program: {err}"),
    }
}

// ---- input generators ------------------------------------------------------

fn constant(heap: &mut Heap, v: i64) -> NodeId {
    let c = heap.alloc_by_name("ConstantExpr").unwrap();
    heap.set_by_name(c, "kind", Value::Int(kind::EXPR_CONST))
        .unwrap();
    heap.set_by_name(c, "Value", Value::Int(v)).unwrap();
    c
}

fn var_ref(heap: &mut Heap, var: i64) -> NodeId {
    let v = heap.alloc_by_name("VarRefExpr").unwrap();
    heap.set_by_name(v, "kind", Value::Int(kind::EXPR_VAR))
        .unwrap();
    heap.set_by_name(v, "VarId", Value::Int(var)).unwrap();
    v
}

fn binary(heap: &mut Heap, op: i64, lhs: NodeId, rhs: NodeId) -> NodeId {
    let b = heap.alloc_by_name("BinaryExpr").unwrap();
    heap.set_by_name(b, "kind", Value::Int(kind::EXPR_BIN))
        .unwrap();
    heap.set_by_name(b, "Op", Value::Int(op)).unwrap();
    heap.set_child_by_name(b, "Lhs", Some(lhs)).unwrap();
    heap.set_child_by_name(b, "Rhs", Some(rhs)).unwrap();
    b
}

fn random_expr(heap: &mut Heap, rng: &mut StdRng, depth: usize, n_vars: i64) -> NodeId {
    if depth == 0 || rng.gen_bool(0.35) {
        if rng.gen_bool(0.5) {
            constant(heap, rng.gen_range(-20..20))
        } else {
            var_ref(heap, rng.gen_range(0..n_vars))
        }
    } else if rng.gen_bool(0.15) {
        let operand = random_expr(heap, rng, depth - 1, n_vars);
        let u = heap.alloc_by_name("UnaryExpr").unwrap();
        heap.set_by_name(u, "kind", Value::Int(kind::EXPR_UN))
            .unwrap();
        heap.set_child_by_name(u, "Operand", Some(operand)).unwrap();
        u
    } else {
        let lhs = random_expr(heap, rng, depth - 1, n_vars);
        let rhs = random_expr(heap, rng, depth - 1, n_vars);
        binary(heap, rng.gen_range(0..3), lhs, rhs)
    }
}

fn assign(heap: &mut Heap, var: i64, rhs: NodeId) -> NodeId {
    let a = heap.alloc_by_name("AssignStmt").unwrap();
    heap.set_by_name(a, "kind", Value::Int(kind::STMT_ASSIGN))
        .unwrap();
    let lhs = var_ref(heap, var);
    heap.set_child_by_name(a, "Lhs", Some(lhs)).unwrap();
    heap.set_child_by_name(a, "Rhs", Some(rhs)).unwrap();
    a
}

fn stmt_list(heap: &mut Heap, stmts: Vec<NodeId>) -> NodeId {
    let mut list = heap.alloc_by_name("StmtListEnd").unwrap();
    for s in stmts.into_iter().rev() {
        let cell = heap.alloc_by_name("StmtListInner").unwrap();
        heap.set_child_by_name(cell, "S", Some(s)).unwrap();
        heap.set_child_by_name(cell, "Next", Some(list)).unwrap();
        list = cell;
    }
    list
}

fn random_stmt(heap: &mut Heap, rng: &mut StdRng, depth: usize, n_vars: i64) -> NodeId {
    let roll: f64 = rng.gen();
    if roll < 0.35 {
        // Half of the assignments are constant (seeds for propagation).
        let rhs = if rng.gen_bool(0.5) {
            constant(heap, rng.gen_range(-50..50))
        } else {
            random_expr(heap, rng, 2, n_vars)
        };
        assign(heap, rng.gen_range(0..n_vars), rhs)
    } else if roll < 0.55 {
        let s = if rng.gen_bool(0.5) {
            heap.alloc_by_name("IncrStmt").unwrap()
        } else {
            heap.alloc_by_name("DecrStmt").unwrap()
        };
        let k = if rng.gen_bool(0.5) {
            kind::STMT_INCR
        } else {
            kind::STMT_DECR
        };
        // kind matches the allocated class.
        let k = if heap.program().classes[heap.class_of_raw(s).index()].name == "IncrStmt" {
            kind::STMT_INCR
        } else {
            let _ = k;
            kind::STMT_DECR
        };
        heap.set_by_name(s, "kind", Value::Int(k)).unwrap();
        heap.set_by_name(s, "VarId", Value::Int(rng.gen_range(0..n_vars)))
            .unwrap();
        s
    } else if roll < 0.7 && depth > 0 {
        let cond = random_expr(heap, rng, 2, n_vars);
        let n_then = rng.gen_range(1..4);
        let n_else = rng.gen_range(0..3);
        let then_stmts = (0..n_then)
            .map(|_| random_stmt(heap, rng, depth - 1, n_vars))
            .collect();
        let else_stmts = (0..n_else)
            .map(|_| random_stmt(heap, rng, depth - 1, n_vars))
            .collect();
        let then_list = stmt_list(heap, then_stmts);
        let else_list = stmt_list(heap, else_stmts);
        let i = heap.alloc_by_name("IfStmt").unwrap();
        heap.set_by_name(i, "kind", Value::Int(kind::STMT_IF))
            .unwrap();
        heap.set_child_by_name(i, "Cond", Some(cond)).unwrap();
        heap.set_child_by_name(i, "Then", Some(then_list)).unwrap();
        heap.set_child_by_name(i, "Else", Some(else_list)).unwrap();
        i
    } else {
        let val = random_expr(heap, rng, 2, n_vars);
        let r = heap.alloc_by_name("ReturnStmt").unwrap();
        heap.set_by_name(r, "kind", Value::Int(kind::STMT_RETURN))
            .unwrap();
        heap.set_child_by_name(r, "Val", Some(val)).unwrap();
        r
    }
}

fn function(heap: &mut Heap, rng: &mut StdRng, id: i64, n_stmts: usize, n_vars: i64) -> NodeId {
    let stmts = (0..n_stmts)
        .map(|_| random_stmt(heap, rng, 2, n_vars))
        .collect();
    let body = stmt_list(heap, stmts);
    let f = heap.alloc_by_name("Function").unwrap();
    heap.set_by_name(f, "FuncId", Value::Int(id)).unwrap();
    heap.set_child_by_name(f, "Body", Some(body)).unwrap();
    f
}

fn program_of(heap: &mut Heap, funcs: Vec<NodeId>) -> NodeId {
    let mut list = heap.alloc_by_name("FunctionListEnd").unwrap();
    for f in funcs.into_iter().rev() {
        let cell = heap.alloc_by_name("FunctionListInner").unwrap();
        heap.set_child_by_name(cell, "F", Some(f)).unwrap();
        heap.set_child_by_name(cell, "Next", Some(list)).unwrap();
        list = cell;
    }
    let root = heap.alloc_by_name("ProgramRoot").unwrap();
    heap.set_child_by_name(root, "Funcs", Some(list)).unwrap();
    root
}

/// Builds a program of `n_funcs` replicated random functions (Fig. 11's
/// generator: "a function ... replicated in order to obtain bigger trees").
pub fn build_program(heap: &mut Heap, n_funcs: usize, seed: u64) -> NodeId {
    build_custom(heap, n_funcs, 12, 6, seed)
}

/// Fully parameterised random program builder (used by shrinking tests).
pub fn build_custom(
    heap: &mut Heap,
    n_funcs: usize,
    n_stmts: usize,
    n_vars: i64,
    seed: u64,
) -> NodeId {
    let mut rng = StdRng::seed_from_u64(seed);
    let funcs = (0..n_funcs)
        .map(|i| function(heap, &mut rng, i as i64, n_stmts, n_vars))
        .collect();
    program_of(heap, funcs)
}

/// Table 4 Prog1: a large number of normal-sized functions.
pub fn build_prog1(heap: &mut Heap, n_funcs: usize, seed: u64) -> NodeId {
    build_program(heap, n_funcs, seed)
}

/// Table 4 Prog2: one large function.
pub fn build_prog2(heap: &mut Heap, n_stmts: usize, seed: u64) -> NodeId {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = function(heap, &mut rng, 0, n_stmts, 6);
    program_of(heap, vec![f])
}

/// Table 4 Prog3: functions with long live ranges — each constant
/// assignment is followed by a long run of statements that use the
/// variable, so `replaceVarRefs` traversals stay active for a long time.
pub fn build_prog3(heap: &mut Heap, n_funcs: usize, range_len: usize, seed: u64) -> NodeId {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut funcs = Vec::new();
    for i in 0..n_funcs {
        let mut stmts = Vec::new();
        // Constant seed assignment, then a long live range of uses.
        let c = constant(heap, rng.gen_range(1..20));
        stmts.push(assign(heap, 0, c));
        for _ in 0..range_len {
            let lhs = var_ref(heap, 0);
            let rhs = random_expr(heap, &mut rng, 1, 4);
            let use_expr = binary(heap, kind::OP_ADD, lhs, rhs);
            stmts.push(assign(heap, rng.gen_range(1..5), use_expr));
        }
        let body = stmt_list(heap, stmts);
        let f = heap.alloc_by_name("Function").unwrap();
        heap.set_by_name(f, "FuncId", Value::Int(i as i64)).unwrap();
        heap.set_child_by_name(f, "Body", Some(body)).unwrap();
        funcs.push(f);
    }
    program_of(heap, funcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check_parity, fused_and_unfused, Entry, Experiment};

    #[test]
    fn program_compiles_with_20_types() {
        let p = program();
        assert_eq!(p.classes.len(), 20);
    }

    #[test]
    fn fused_equals_unfused_on_random_programs_and_prog_configs() {
        let seeded = [1, 7, 23].map(|seed| move |heap: &mut Heap| build_program(heap, 6, seed));
        let trees: [&(dyn Fn(&mut Heap) -> NodeId + Sync); 5] = [
            &seeded[0],
            &seeded[1],
            &seeded[2],
            &|heap| build_prog2(heap, 40, 5),
            &|heap| build_prog3(heap, 4, 20, 5),
        ];
        let entry = Entry::new(ROOT_CLASS, &PASSES);
        check_parity("ast", &compiled(), entry, &fused_and_unfused(), &trees);
    }

    #[test]
    fn desugaring_rewrites_incr_and_decr() {
        let p = program();
        let fp = grafter::fuse(&p, ROOT_CLASS, &PASSES, &grafter::FuseOptions::default()).unwrap();
        let mut heap = Heap::new(&p);
        let incr = heap.alloc_by_name("IncrStmt").unwrap();
        heap.set_by_name(incr, "kind", Value::Int(kind::STMT_INCR))
            .unwrap();
        heap.set_by_name(incr, "VarId", Value::Int(3)).unwrap();
        let body = stmt_list(&mut heap, vec![incr]);
        let f = heap.alloc_by_name("Function").unwrap();
        heap.set_child_by_name(f, "Body", Some(body)).unwrap();
        let root = program_of(&mut heap, vec![f]);

        let mut interp = grafter_runtime::Interp::new(&fp);
        interp.run(&mut heap, root, &[]).unwrap();

        // The IncrStmt was replaced by `v3 = v3 + 1`, which constant
        // folding cannot collapse (v3 is not constant).
        let funcs = heap.child_by_name(root, "Funcs").unwrap().unwrap();
        let f = heap.child_by_name(funcs, "F").unwrap().unwrap();
        let body = heap.child_by_name(f, "Body").unwrap().unwrap();
        let s = heap.child_by_name(body, "S").unwrap().unwrap();
        let class = &p.classes[heap.class_of_raw(s).index()].name;
        assert_eq!(class, "AssignStmt");
        assert_eq!(
            heap.get_by_name(s, "kind").unwrap(),
            Value::Int(kind::STMT_ASSIGN)
        );
        let rhs = heap.child_by_name(s, "Rhs").unwrap().unwrap();
        assert_eq!(
            heap.program().classes[heap.class_of_raw(rhs).index()].name,
            "BinaryExpr"
        );
    }

    #[test]
    fn constant_propagation_and_folding_collapse_branches() {
        let p = program();
        let fp = grafter::fuse(&p, ROOT_CLASS, &PASSES, &grafter::FuseOptions::default()).unwrap();
        let mut heap = Heap::new(&p);
        // x = 2; if (x - 2) { y = 1 } else { y = 2 }
        let two = constant(&mut heap, 2);
        let seed_assign = assign(&mut heap, 0, two);
        let cond_lhs = var_ref(&mut heap, 0);
        let cond_rhs = constant(&mut heap, 2);
        let cond = binary(&mut heap, kind::OP_SUB, cond_lhs, cond_rhs);
        let then_s = {
            let c = constant(&mut heap, 1);
            assign(&mut heap, 1, c)
        };
        let else_s = {
            let c = constant(&mut heap, 2);
            assign(&mut heap, 1, c)
        };
        let then_list = stmt_list(&mut heap, vec![then_s]);
        let else_list = stmt_list(&mut heap, vec![else_s]);
        let ifs = heap.alloc_by_name("IfStmt").unwrap();
        heap.set_by_name(ifs, "kind", Value::Int(kind::STMT_IF))
            .unwrap();
        heap.set_child_by_name(ifs, "Cond", Some(cond)).unwrap();
        heap.set_child_by_name(ifs, "Then", Some(then_list))
            .unwrap();
        heap.set_child_by_name(ifs, "Else", Some(else_list))
            .unwrap();
        let body = stmt_list(&mut heap, vec![seed_assign, ifs]);
        let f = heap.alloc_by_name("Function").unwrap();
        heap.set_child_by_name(f, "Body", Some(body)).unwrap();
        let root = program_of(&mut heap, vec![f]);

        let mut interp = grafter_runtime::Interp::new(&fp);
        interp.run(&mut heap, root, &[]).unwrap();

        // x propagated into the condition, folded to 0, so the Then branch
        // was deleted and replaced with an empty list.
        let funcs = heap.child_by_name(root, "Funcs").unwrap().unwrap();
        let f = heap.child_by_name(funcs, "F").unwrap().unwrap();
        let body = heap.child_by_name(f, "Body").unwrap().unwrap();
        let next = heap.child_by_name(body, "Next").unwrap().unwrap();
        let if_node = heap.child_by_name(next, "S").unwrap().unwrap();
        let cond = heap.child_by_name(if_node, "Cond").unwrap().unwrap();
        assert_eq!(
            heap.get_by_name(cond, "kind").unwrap(),
            Value::Int(kind::EXPR_CONST)
        );
        assert_eq!(heap.get_by_name(cond, "Value").unwrap(), Value::Int(0));
        let then_branch = heap.child_by_name(if_node, "Then").unwrap().unwrap();
        assert_eq!(
            heap.program().classes[heap.class_of_raw(then_branch).index()].name,
            "StmtListEnd",
            "false branch contents were removed"
        );
    }

    #[test]
    fn fusion_reduces_visits() {
        let exp = Experiment::new(compiled(), ROOT_CLASS, &PASSES, |heap| {
            build_program(heap, 30, 2)
        });
        let cmp = exp.compare();
        let n = cmp.normalized();
        assert!(n.visits < 0.95, "visit ratio {}", n.visits);
    }
}
