//! C++-like source rendering of fused programs (the paper's Fig. 6).
//!
//! Grafter was originally a source-to-source Clang tool; its output is a set
//! of global fused functions plus per-class virtual dispatch stubs driven by
//! an `active_flags` bitmask. This module renders a [`FusedProgram`] in that
//! style — useful for golden tests, documentation and inspecting fusion
//! decisions. Execution uses `grafter-runtime` instead.

use std::fmt::Write as _;

use grafter_frontend::{
    BinOp, DataAccess, Expr, LocalId, MethodId, NodePath, Program, Stmt, Ty, UnOp,
};

use crate::fusion::{FusedProgram, ScheduledItem};

/// Renders the whole fused program: every fused function, then every stub.
pub fn emit(fp: &FusedProgram) -> String {
    let mut out = String::new();
    for f in &fp.functions {
        emit_function(fp, f, &mut out);
        out.push('\n');
    }
    for stub in &fp.stubs {
        for &(class, target) in &stub.targets {
            let class_name = &fp.program.classes[class.index()].name;
            let fname = &fp.functions[target.0 as usize].name;
            let _ = writeln!(
                out,
                "void {class_name}::{}(unsigned int active_flags) {{ {fname}(({}*) this, active_flags); }}",
                stub.name,
                fp.program.classes[fp.functions[target.0 as usize].receiver_class.index()].name,
            );
        }
        out.push('\n');
    }
    out
}

fn emit_function(fp: &FusedProgram, f: &crate::fusion::FusedFn, out: &mut String) {
    let p = &fp.program;
    let recv = &p.classes[f.receiver_class.index()].name;
    let _ = writeln!(
        out,
        "void {}({recv}* _r, unsigned int active_flags) {{",
        f.name
    );
    // Per-traversal receiver aliases, cast to each original receiver type
    // (paper Fig. 6 lines 4-5).
    for (ti, &m) in f.seq.iter().enumerate() {
        let cls = &p.classes[p.methods[m.index()].class.index()].name;
        let _ = writeln!(out, "  {cls}* _r_f{ti} = ({cls}*)(_r);");
    }
    for item in &f.body {
        match item {
            &ScheduledItem::Stmt { traversal, index } => {
                let _ = writeln!(out, "  if (active_flags & 0b{:b}) {{", 1u64 << traversal);
                let stmt = fp.stmt(f, traversal, index);
                emit_stmt(p, f.seq[traversal], traversal, stmt, 2, out);
                let _ = writeln!(out, "  }}");
            }
            ScheduledItem::Call { stub, parts } => {
                let mask: u64 = parts.iter().fold(0, |m, part| m | (1u64 << part.traversal));
                let _ = writeln!(out, "  if (active_flags & 0b{mask:b}) /* call */ {{");
                let _ = writeln!(out, "    unsigned int call_flags = 0;");
                for part in parts.iter().rev() {
                    let _ = writeln!(out, "    call_flags <<= 1;");
                    let _ = writeln!(
                        out,
                        "    call_flags |= (0b1 & (active_flags >> {}));",
                        part.traversal
                    );
                }
                let receiver = fp.receiver(f, parts);
                let recv_str =
                    node_path_str(p, f.seq[parts[0].traversal], parts[0].traversal, receiver);
                let _ = writeln!(
                    out,
                    "    {recv_str}->{}(call_flags);",
                    fp.stubs[stub.0 as usize].name
                );
                let _ = writeln!(out, "  }}");
            }
        }
    }
    let _ = writeln!(out, "}}");
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_stmt(
    p: &Program,
    method: MethodId,
    traversal: usize,
    stmt: &Stmt,
    depth: usize,
    out: &mut String,
) {
    indent(out, depth);
    match stmt {
        Stmt::Traverse(call) => {
            // Only appears unfused inside if-bodies (never happens today —
            // traverses are top level) but handle it for completeness.
            let recv = node_path_str(p, method, traversal, &call.receiver);
            let name = &p.methods[call.slot.index()].name;
            let args = call
                .args
                .iter()
                .map(|a| expr_str(p, method, traversal, a))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "{recv}->{name}({args});");
        }
        Stmt::Assign { target, value } => {
            let _ = writeln!(
                out,
                "{} = {};",
                access_str(p, method, traversal, target),
                expr_str(p, method, traversal, value)
            );
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let _ = writeln!(out, "if ({}) {{", expr_str(p, method, traversal, cond));
            for s in then_branch {
                emit_stmt(p, method, traversal, s, depth + 1, out);
            }
            if else_branch.is_empty() {
                indent(out, depth);
                let _ = writeln!(out, "}}");
            } else {
                indent(out, depth);
                let _ = writeln!(out, "}} else {{");
                for s in else_branch {
                    emit_stmt(p, method, traversal, s, depth + 1, out);
                }
                indent(out, depth);
                let _ = writeln!(out, "}}");
            }
        }
        Stmt::LocalDef { local, init } => {
            let lv = &p.methods[method.index()].locals[local.index()];
            let ty = ty_str(p, lv.ty);
            match init {
                Some(e) => {
                    let _ = writeln!(
                        out,
                        "{ty} _t{traversal}_{} = {};",
                        lv.name,
                        expr_str(p, method, traversal, e)
                    );
                }
                None => {
                    let _ = writeln!(out, "{ty} _t{traversal}_{};", lv.name);
                }
            }
        }
        Stmt::New { target, class } => {
            let _ = writeln!(
                out,
                "{} = new {}();",
                node_path_str(p, method, traversal, target),
                p.classes[class.index()].name
            );
        }
        Stmt::Delete { target } => {
            let _ = writeln!(
                out,
                "delete {};",
                node_path_str(p, method, traversal, target)
            );
        }
        Stmt::Return => {
            let _ = writeln!(
                out,
                "active_flags &= ~(0b{:b}); /* return */",
                1u64 << traversal
            );
        }
        Stmt::PureStmt { pure, args } => {
            let args = args
                .iter()
                .map(|a| expr_str(p, method, traversal, a))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "{}({args});", p.pures[pure.index()].name);
        }
    }
}

fn ty_str(p: &Program, ty: Ty) -> String {
    match ty {
        Ty::Int => "int".into(),
        Ty::Float => "double".into(),
        Ty::Bool => "bool".into(),
        Ty::Struct(s) => p.structs[s.index()].name.clone(),
        Ty::Node(c) => format!("{}*", p.classes[c.index()].name),
    }
}

fn node_path_str(p: &Program, _method: MethodId, traversal: usize, path: &NodePath) -> String {
    let mut s = format!("_r_f{traversal}");
    if let Some(c) = path.base_cast {
        s = format!("(({}*)({s}))", p.classes[c.index()].name);
    }
    for step in &path.steps {
        let _ = write!(s, "->{}", p.fields[step.field.index()].name);
        if let Some(c) = step.cast_to {
            s = format!("(({}*)({s}))", p.classes[c.index()].name);
        }
    }
    s
}

fn access_str(p: &Program, method: MethodId, traversal: usize, access: &DataAccess) -> String {
    match access {
        DataAccess::OnTree { path, data } => {
            let mut s = node_path_str(p, method, traversal, path);
            let mut first = true;
            for f in data {
                // The node itself is always behind a pointer (`_r_fN` or a
                // child chain), so the first data field uses `->`; deeper
                // struct members are plain member accesses.
                let sep = if first { "->" } else { "." };
                let _ = write!(s, "{sep}{}", p.fields[f.index()].name);
                first = false;
            }
            s
        }
        DataAccess::Local { local, members } => {
            let mut s = local_str(p, method, traversal, *local);
            for f in members {
                let _ = write!(s, ".{}", p.fields[f.index()].name);
            }
            s
        }
        DataAccess::Global { global, members } => {
            let mut s = p.globals[global.index()].name.clone();
            for f in members {
                let _ = write!(s, ".{}", p.fields[f.index()].name);
            }
            s
        }
    }
}

fn local_str(p: &Program, method: MethodId, traversal: usize, local: LocalId) -> String {
    format!(
        "_t{traversal}_{}",
        p.methods[method.index()].locals[local.index()].name
    )
}

fn expr_str(p: &Program, method: MethodId, traversal: usize, expr: &Expr) -> String {
    match expr {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => format!("{v:?}"),
        Expr::Bool(v) => v.to_string(),
        Expr::Read(a) => access_str(p, method, traversal, a),
        Expr::Unary(op, e) => {
            let op = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            format!("{op}({})", expr_str(p, method, traversal, e))
        }
        Expr::Binary(op, l, r) => format!(
            "({} {} {})",
            expr_str(p, method, traversal, l),
            binop_str(*op),
            expr_str(p, method, traversal, r)
        ),
        Expr::PureCall(pure, args) => {
            let args = args
                .iter()
                .map(|a| expr_str(p, method, traversal, a))
                .collect::<Vec<_>>()
                .join(", ");
            format!("{}({args})", p.pures[pure.index()].name)
        }
    }
}

fn binop_str(op: BinOp) -> &'static str {
    op.symbol()
}
