//! Semantic analysis: name resolution, type checking and enforcement of the
//! Grafter language restrictions (paper §3.1).
//!
//! Produces the resolved [`Program`]. Restrictions enforced here include:
//!
//! - children are pointers to tree classes; data fields are primitives or
//!   plain structs,
//! - traversing calls appear only at the top level of a traversal body
//!   (never inside `if`), and their receiver is `this` or a descendant
//!   reached through child pointers / aliases,
//! - assignments write only data fields — tree topology changes only via
//!   `new` / `delete`,
//! - node aliases are single-assignment constants and are inlined away,
//! - pure functions are opaque and read-only,
//! - superclasses are declared before use; virtual overrides are linked to
//!   their dispatch slot.

use std::collections::{HashMap, HashSet};

use crate::ast::{self, Literal, Member, SurfaceExpr, SurfacePath, SurfaceStmt, TypeName};
use crate::diag::{DiagnosticBag, Span, Stage};
use crate::hir::*;

/// The most `class × field` entries a program may declare: its tree
/// classes times its fields, struct members included. The runtime lays
/// every class out as one row of a dense table of that many `u32` slots,
/// so the bound caps the table at 64 MiB.
pub const MAX_LAYOUT_ENTRIES: usize = 1 << 24;

/// Resolves and checks a surface program.
///
/// # Errors
///
/// Returns all diagnostics found. The returned program is only produced when
/// there are no errors.
pub fn check(surface: &ast::SurfaceProgram) -> Result<Program, DiagnosticBag> {
    check_with_warnings(surface).map(|(program, _)| program)
}

/// Like [`check`], but also hands back the warnings emitted on success.
///
/// # Errors
///
/// Returns all diagnostics (errors and warnings) when the program is
/// invalid.
pub fn check_with_warnings(
    surface: &ast::SurfaceProgram,
) -> Result<(Program, DiagnosticBag), DiagnosticBag> {
    let mut cx = Checker::default();
    cx.bound_layout(surface);
    if !cx.errors.has_errors() {
        cx.intern_signatures(surface);
    }
    if !cx.errors.has_errors() {
        cx.resolve_bodies(surface);
    }
    if !cx.errors.has_errors() {
        cx.warn_unused_pures();
    }
    cx.errors.into_result(cx.program)
}

#[derive(Default)]
struct Checker {
    program: Program,
    errors: DiagnosticBag,
    class_names: HashMap<String, ClassId>,
    struct_names: HashMap<String, StructId>,
    global_ids: HashMap<String, GlobalId>,
    pure_names: HashMap<String, PureId>,
    /// Declaration span of each pure, indexed by [`PureId`].
    pure_spans: Vec<Span>,
    /// Pures referenced by at least one resolved body.
    used_pures: HashSet<PureId>,
}

/// What a surface path resolved to.
enum Resolved {
    /// A tree node (possibly `this` itself), with its static type.
    Node(NodePath, ClassId),
    /// A data location, with its type.
    Data(DataAccess, Ty),
}

struct BodyCx {
    /// The class the method is declared in (`this`'s static type).
    class: ClassId,
    /// Locals of the method being resolved, params first.
    locals: Vec<LocalVar>,
    /// In-scope local names (block scoped).
    scopes: Vec<HashMap<String, LocalId>>,
    /// In-scope aliases (block scoped): name -> (inlined path, static type).
    alias_scopes: Vec<HashMap<String, (NodePath, ClassId)>>,
}

impl Checker {
    fn err(&mut self, message: impl Into<String>, span: Span) {
        self.errors.error(Stage::Sema, message, span);
    }

    /// Warns about pure functions declared but never called (they are
    /// opaque to fusion, so a stale declaration usually signals a program
    /// that forgot to invoke one of its passes' helpers).
    fn warn_unused_pures(&mut self) {
        for (i, p) in self.program.pures.iter().enumerate() {
            let pid = PureId(i as u32);
            if !self.used_pures.contains(&pid) {
                self.errors.warning(
                    Stage::Sema,
                    format!("pure function `{}` is never called", p.name),
                    self.pure_spans[i],
                );
            }
        }
    }

    /// Rejects a program past [`MAX_LAYOUT_ENTRIES`] before any of it is
    /// resolved.
    fn bound_layout(&mut self, surface: &ast::SurfaceProgram) {
        let classes = surface.classes.len();
        let members = surface.classes.iter().flat_map(|c| &c.members);
        let class_fields = members.filter(|m| !matches!(m, Member::Traversal(_)));
        let struct_members: usize = surface.structs.iter().map(|s| s.members.len()).sum();
        let fields = class_fields.count() + struct_members;
        let entries = classes.saturating_mul(fields);
        if entries > MAX_LAYOUT_ENTRIES {
            self.errors.error_global(
                Stage::Sema,
                format!(
                    "{classes} tree classes times {fields} fields make {entries} node-layout \
                     entries, past the limit of {MAX_LAYOUT_ENTRIES}"
                ),
            );
        }
    }

    // ---- phase A: signatures ----------------------------------------------

    fn intern_signatures(&mut self, surface: &ast::SurfaceProgram) {
        // Structs first (classes may use them as field types).
        for (i, st) in surface.structs.iter().enumerate() {
            let id = StructId(i as u32);
            if self.struct_names.insert(st.name.clone(), id).is_some() {
                self.err(format!("duplicate struct `{}`", st.name), st.span);
            }
            self.program.structs.push(Struct {
                name: st.name.clone(),
                members: Vec::new(),
            });
        }
        for (i, st) in surface.structs.iter().enumerate() {
            for (ty, name) in &st.members {
                let ty = match self.value_type(ty) {
                    Some(t) if t.is_primitive() => t,
                    _ => {
                        self.err(
                            format!("struct member `{}` must be a primitive", name),
                            st.span,
                        );
                        Ty::Int
                    }
                };
                let fid = FieldId(self.program.fields.len() as u32);
                self.program.fields.push(Field {
                    name: name.clone(),
                    owner: FieldOwner::Struct(StructId(i as u32)),
                    kind: FieldKind::Data(ty),
                    default: None,
                });
                self.program.structs[i].members.push(fid);
            }
        }

        // Globals.
        for g in &surface.globals {
            let ty = self.value_type(&g.ty).unwrap_or_else(|| {
                self.err(format!("unknown type for global `{}`", g.name), g.span);
                Ty::Int
            });
            let id = GlobalId(self.program.globals.len() as u32);
            if self.global_ids.insert(g.name.clone(), id).is_some() {
                self.err(format!("duplicate global `{}`", g.name), g.span);
            }
            if let Some(lit) = g.default {
                self.check_literal_type(lit, ty, g.span);
            }
            self.program.globals.push(GlobalVar {
                name: g.name.clone(),
                ty,
                default: g.default,
            });
        }

        // Pure function signatures.
        for p in &surface.pures {
            let ret = self.value_type(&p.return_type).unwrap_or_else(|| {
                self.err(format!("unknown return type of pure `{}`", p.name), p.span);
                Ty::Int
            });
            let params = p
                .params
                .iter()
                .map(|(t, _)| {
                    self.value_type(t).unwrap_or_else(|| {
                        self.err(
                            format!("unknown parameter type in pure `{}`", p.name),
                            p.span,
                        );
                        Ty::Int
                    })
                })
                .collect();
            let id = PureId(self.program.pures.len() as u32);
            if self.pure_names.insert(p.name.clone(), id).is_some() {
                self.err(format!("duplicate pure function `{}`", p.name), p.span);
            }
            self.pure_spans.push(p.span);
            self.program.pures.push(PureFn {
                name: p.name.clone(),
                return_type: ret,
                params,
            });
        }

        // Classes: declare names in order (supers must come first).
        for (i, cls) in surface.classes.iter().enumerate() {
            let id = ClassId(i as u32);
            if self.class_names.insert(cls.name.clone(), id).is_some() {
                self.err(format!("duplicate tree class `{}`", cls.name), cls.span);
            }
            self.program.classes.push(Class {
                name: cls.name.clone(),
                supers: Vec::new(),
                fields: Vec::new(),
                methods: Vec::new(),
            });
        }
        for (i, cls) in surface.classes.iter().enumerate() {
            let id = ClassId(i as u32);
            for sup in &cls.supers {
                match self.class_names.get(sup) {
                    Some(&sid) if sid.index() < i => {
                        self.program.classes[i].supers.push(sid);
                    }
                    Some(_) => self.err(
                        format!("superclass `{sup}` must be declared before `{}`", cls.name),
                        cls.span,
                    ),
                    None => self.err(format!("unknown superclass `{sup}`"), cls.span),
                }
            }
            self.intern_members(id, cls);
        }
    }

    fn intern_members(&mut self, id: ClassId, cls: &ast::TreeClass) {
        for m in &cls.members {
            match m {
                Member::Child { class, name, span } => {
                    let target = match self.class_names.get(class) {
                        Some(&c) => c,
                        None => {
                            self.err(
                                format!("unknown tree class `{class}` for child `{name}`"),
                                *span,
                            );
                            continue;
                        }
                    };
                    if self.program.field_on_class(id, name).is_some() {
                        self.err(format!("duplicate member `{name}`"), *span);
                    }
                    let fid = FieldId(self.program.fields.len() as u32);
                    self.program.fields.push(Field {
                        name: name.clone(),
                        owner: FieldOwner::Class(id),
                        kind: FieldKind::Child(target),
                        default: None,
                    });
                    self.program.classes[id.index()].fields.push(fid);
                }
                Member::Data {
                    ty,
                    name,
                    default,
                    span,
                } => {
                    let ty = match self.value_type(ty) {
                        Some(t) => t,
                        None => {
                            self.err(format!("unknown type of field `{name}`"), *span);
                            continue;
                        }
                    };
                    if let Ty::Node(_) = ty {
                        self.err(
                            format!("field `{name}`: tree-node fields must use `child`"),
                            *span,
                        );
                    }
                    if self.program.field_on_class(id, name).is_some() {
                        self.err(format!("duplicate member `{name}`"), *span);
                    }
                    if let Some(lit) = default {
                        self.check_literal_type(*lit, ty, *span);
                    }
                    let fid = FieldId(self.program.fields.len() as u32);
                    self.program.fields.push(Field {
                        name: name.clone(),
                        owner: FieldOwner::Class(id),
                        kind: FieldKind::Data(ty),
                        default: *default,
                    });
                    self.program.classes[id.index()].fields.push(fid);
                }
                Member::Traversal(t) => self.intern_method(id, t),
            }
        }
    }

    fn intern_method(&mut self, class: ClassId, t: &ast::TraversalDef) {
        let mut locals = Vec::new();
        for (ty, name) in &t.params {
            let ty = match self.value_type(ty) {
                Some(ty) if !matches!(ty, Ty::Node(_)) => ty,
                Some(_) => {
                    self.err(
                        format!("parameter `{name}`: traversal parameters are passed by value and cannot be tree nodes"),
                        t.span,
                    );
                    Ty::Int
                }
                None => {
                    self.err(format!("unknown type of parameter `{name}`"), t.span);
                    Ty::Int
                }
            };
            locals.push(LocalVar {
                name: name.clone(),
                ty,
                is_param: true,
            });
        }

        // Dispatch slot: an override links to the root-most declaration.
        let inherited = self.program.ancestors(class).into_iter().find_map(|a| {
            self.program.classes[a.index()]
                .methods
                .iter()
                .copied()
                .find(|&m| self.program.methods[m.index()].name == t.name)
        });
        let id = MethodId(self.program.methods.len() as u32);
        let slot = match inherited {
            Some(m) => {
                let base = self.program.methods[m.index()].clone();
                if !base.is_virtual {
                    self.err(
                        format!("`{}` overrides a non-virtual traversal", t.name),
                        t.span,
                    );
                }
                if base.n_params != t.params.len() {
                    self.err(
                        format!("`{}` overrides a traversal with a different arity", t.name),
                        t.span,
                    );
                }
                base.slot
            }
            None => id,
        };
        if self.program.classes[class.index()]
            .methods
            .iter()
            .any(|&m| self.program.methods[m.index()].name == t.name)
        {
            self.err(format!("duplicate traversal `{}`", t.name), t.span);
        }
        let n_params = locals.len();
        self.program.methods.push(Method {
            name: t.name.clone(),
            class,
            is_virtual: t.is_virtual || inherited.is_some(),
            locals,
            n_params,
            body: Vec::new(),
            slot,
        });
        self.program.classes[class.index()].methods.push(id);
    }

    fn value_type(&mut self, ty: &TypeName) -> Option<Ty> {
        match ty {
            TypeName::Int => Some(Ty::Int),
            TypeName::Float => Some(Ty::Float),
            TypeName::Bool => Some(Ty::Bool),
            TypeName::Named(name) => {
                if let Some(&st) = self.struct_names.get(name) {
                    Some(Ty::Struct(st))
                } else {
                    self.class_names.get(name).map(|&c| Some(Ty::Node(c)))?
                }
            }
        }
    }

    fn check_literal_type(&mut self, lit: Literal, ty: Ty, span: Span) {
        let ok = matches!(
            (lit, ty),
            (Literal::Int(_), Ty::Int)
                | (Literal::Int(_), Ty::Float)
                | (Literal::Float(_), Ty::Float)
                | (Literal::Bool(_), Ty::Bool)
        );
        if !ok {
            self.err("literal type does not match declared type", span);
        }
    }

    // ---- phase B: bodies ---------------------------------------------------

    fn resolve_bodies(&mut self, surface: &ast::SurfaceProgram) {
        for (ci, cls) in surface.classes.iter().enumerate() {
            for m in &cls.members {
                let Member::Traversal(t) = m else { continue };
                // Traversal names are unique within a class (checked in
                // phase A), so the name identifies the method.
                let Some(&mid) = self.program.classes[ci]
                    .methods
                    .iter()
                    .find(|&&mm| self.program.methods[mm.index()].name == t.name)
                else {
                    continue;
                };
                let method = &self.program.methods[mid.index()];
                let mut cx = BodyCx {
                    class: ClassId(ci as u32),
                    locals: method.locals.clone(),
                    scopes: vec![HashMap::new()],
                    alias_scopes: vec![HashMap::new()],
                };
                for (i, lv) in cx.locals.iter().enumerate() {
                    cx.scopes[0].insert(lv.name.clone(), LocalId(i as u32));
                }
                let body = self.resolve_block(&t.body, &mut cx, true);
                let method = &mut self.program.methods[mid.index()];
                method.body = body;
                method.locals = cx.locals;
            }
        }
    }

    fn resolve_block(
        &mut self,
        stmts: &[SurfaceStmt],
        cx: &mut BodyCx,
        top_level: bool,
    ) -> Vec<Stmt> {
        let mut out = Vec::new();
        for s in stmts {
            if let Some(stmt) = self.resolve_stmt(s, cx, top_level) {
                out.push(stmt);
            }
        }
        out
    }

    fn resolve_stmt(
        &mut self,
        stmt: &SurfaceStmt,
        cx: &mut BodyCx,
        top_level: bool,
    ) -> Option<Stmt> {
        match stmt {
            SurfaceStmt::Traverse {
                receiver,
                method,
                args,
                span,
            } => {
                if !top_level {
                    self.err(
                        "traversing calls may only appear at the top level of a traversal body",
                        *span,
                    );
                    return None;
                }
                let resolved = self.resolve_path(receiver, cx)?;
                let Resolved::Node(path, static_ty) = resolved else {
                    self.err("traversing call receiver must be a tree node", *span);
                    return None;
                };
                let Some(mid) = self.program.method_on_class(static_ty, method) else {
                    self.err(
                        format!(
                            "no traversal `{method}` on class `{}`",
                            self.program.classes[static_ty.index()].name
                        ),
                        *span,
                    );
                    return None;
                };
                let slot = self.program.methods[mid.index()].slot;
                let decl = &self.program.methods[mid.index()];
                if args.len() != decl.n_params {
                    self.err(
                        format!(
                            "traversal `{method}` expects {} argument(s), got {}",
                            decl.n_params,
                            args.len()
                        ),
                        *span,
                    );
                    return None;
                }
                let param_tys: Vec<Ty> =
                    decl.locals[..decl.n_params].iter().map(|l| l.ty).collect();
                let mut rargs = Vec::new();
                for (a, want) in args.iter().zip(param_tys) {
                    let (e, ty) = self.resolve_expr(a, cx)?;
                    self.require_assignable(ty, want, a.span());
                    rargs.push(e);
                }
                Some(Stmt::Traverse(TraverseStmt {
                    receiver: path,
                    slot,
                    args: rargs,
                    span: *span,
                }))
            }
            SurfaceStmt::Assign {
                target,
                value,
                span,
            } => {
                let resolved = self.resolve_path(target, cx)?;
                let Resolved::Data(access, ty) = resolved else {
                    self.err(
                        "assignments may only write data fields; use `new`/`delete` to change tree topology",
                        *span,
                    );
                    return None;
                };
                let (value, vty) = self.resolve_expr(value, cx)?;
                self.require_assignable(vty, ty, *span);
                Some(Stmt::Assign {
                    target: access,
                    value,
                })
            }
            SurfaceStmt::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let (cond, cty) = self.resolve_expr(cond, cx)?;
                if cty != Ty::Bool {
                    self.err("if condition must be a bool", *span);
                }
                cx.scopes.push(HashMap::new());
                cx.alias_scopes.push(HashMap::new());
                let then_branch = self.resolve_block(then_branch, cx, false);
                cx.alias_scopes.pop();
                cx.scopes.pop();
                cx.scopes.push(HashMap::new());
                cx.alias_scopes.push(HashMap::new());
                let else_branch = self.resolve_block(else_branch, cx, false);
                cx.alias_scopes.pop();
                cx.scopes.pop();
                Some(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            SurfaceStmt::LocalDef {
                ty,
                name,
                init,
                span,
            } => {
                let ty = match self.value_type(ty) {
                    Some(t) if !matches!(t, Ty::Node(_)) => t,
                    Some(_) => {
                        self.err(
                            format!("local `{name}`: use a `T* const` alias for tree nodes"),
                            *span,
                        );
                        return None;
                    }
                    None => {
                        self.err(format!("unknown type of local `{name}`"), *span);
                        return None;
                    }
                };
                if cx.lookup_local(name).is_some() || cx.lookup_alias(name).is_some() {
                    self.err(format!("`{name}` shadows an existing variable"), *span);
                }
                let id = LocalId(cx.locals.len() as u32);
                cx.locals.push(LocalVar {
                    name: name.clone(),
                    ty,
                    is_param: false,
                });
                cx.scopes.last_mut().unwrap().insert(name.clone(), id);
                let init = match init {
                    Some(e) => {
                        let (e, ety) = self.resolve_expr(e, cx)?;
                        self.require_assignable(ety, ty, *span);
                        Some(e)
                    }
                    None => None,
                };
                Some(Stmt::LocalDef { local: id, init })
            }
            SurfaceStmt::AliasDef {
                class,
                name,
                path,
                span,
            } => {
                let Some(&declared) = self.class_names.get(class) else {
                    self.err(format!("unknown tree class `{class}`"), *span);
                    return None;
                };
                let resolved = self.resolve_path(path, cx)?;
                let Resolved::Node(node_path, static_ty) = resolved else {
                    self.err("alias initialiser must be a tree node", *span);
                    return None;
                };
                if node_path.is_this() {
                    self.err("alias must refer to a descendant of `this`", *span);
                }
                if !self.program.is_subtype(static_ty, declared)
                    && !self.program.is_subtype(declared, static_ty)
                {
                    self.err(
                        format!(
                            "alias type `{class}` is unrelated to `{}`",
                            self.program.classes[static_ty.index()].name
                        ),
                        *span,
                    );
                }
                if cx.lookup_alias(name).is_some() || cx.lookup_local(name).is_some() {
                    self.err(format!("`{name}` shadows an existing variable"), *span);
                }
                cx.alias_scopes
                    .last_mut()
                    .unwrap()
                    .insert(name.clone(), (node_path, declared));
                // Aliases are inlined; they produce no statement.
                None
            }
            SurfaceStmt::New {
                target,
                class,
                span,
            } => {
                let Some(&cid) = self.class_names.get(class) else {
                    self.err(format!("unknown tree class `{class}`"), *span);
                    return None;
                };
                let resolved = self.resolve_path(target, cx)?;
                let Resolved::Node(path, _static_ty) = resolved else {
                    self.err("`new` must assign to a child field", *span);
                    return None;
                };
                if path.is_this() {
                    self.err("`new` cannot replace the traversed node itself", *span);
                    return None;
                }
                // The constructed type must be a subtype of the child's
                // declared (non-cast) static type.
                let last = path.steps.last().unwrap();
                let FieldKind::Child(declared) = self.program.fields[last.field.index()].kind
                else {
                    unreachable!("node path steps are child fields");
                };
                if !self.program.is_subtype(cid, declared) {
                    self.err(
                        format!(
                            "`new {class}()` does not produce a subtype of child type `{}`",
                            self.program.classes[declared.index()].name
                        ),
                        *span,
                    );
                }
                Some(Stmt::New {
                    target: path,
                    class: cid,
                })
            }
            SurfaceStmt::Delete { target, span } => {
                let resolved = self.resolve_path(target, cx)?;
                let Resolved::Node(path, _) = resolved else {
                    self.err("`delete` expects a tree node", *span);
                    return None;
                };
                if path.is_this() {
                    self.err("`delete` cannot delete the traversed node itself", *span);
                    return None;
                }
                Some(Stmt::Delete { target: path })
            }
            SurfaceStmt::Return { .. } => Some(Stmt::Return),
            SurfaceStmt::PureCall { name, args, span } => {
                let Some(&pid) = self.pure_names.get(name) else {
                    self.err(format!("unknown pure function `{name}`"), *span);
                    return None;
                };
                let rargs = self.resolve_pure_args(pid, args, cx, *span)?;
                Some(Stmt::PureStmt {
                    pure: pid,
                    args: rargs,
                })
            }
        }
    }

    fn resolve_pure_args(
        &mut self,
        pid: PureId,
        args: &[SurfaceExpr],
        cx: &mut BodyCx,
        span: Span,
    ) -> Option<Vec<Expr>> {
        self.used_pures.insert(pid);
        let want: Vec<Ty> = self.program.pures[pid.index()].params.clone();
        if want.len() != args.len() {
            self.err(
                format!(
                    "pure `{}` expects {} argument(s), got {}",
                    self.program.pures[pid.index()].name,
                    want.len(),
                    args.len()
                ),
                span,
            );
            return None;
        }
        let mut out = Vec::new();
        for (a, w) in args.iter().zip(want) {
            let (e, ty) = self.resolve_expr(a, cx)?;
            self.require_assignable(ty, w, a.span());
            out.push(e);
        }
        Some(out)
    }

    fn require_assignable(&mut self, from: Ty, to: Ty, span: Span) {
        let ok = from == to || matches!((from, to), (Ty::Int, Ty::Float) | (Ty::Float, Ty::Int));
        if !ok {
            self.err(
                format!("type mismatch: cannot use {from:?} where {to:?} is expected"),
                span,
            );
        }
    }

    // ---- paths and expressions ---------------------------------------------

    fn resolve_path(&mut self, path: &SurfacePath, cx: &mut BodyCx) -> Option<Resolved> {
        // Resolve the base to either a node path + static type, or a data
        // location + remaining member chain.
        let span = path.span;
        enum Base {
            Node(NodePath, ClassId),
            Data(DataAccess, Ty),
        }
        let base = match &path.base {
            ast::PathBase::This => Base::Node(NodePath::this(), cx.class),
            ast::PathBase::Cast { class, inner } => {
                let Some(&target) = self.class_names.get(class) else {
                    self.err(format!("unknown tree class `{class}` in cast"), span);
                    return None;
                };
                let inner = self.resolve_path(inner, cx)?;
                let Resolved::Node(mut np, static_ty) = inner else {
                    self.err("static_cast applies only to tree nodes", span);
                    return None;
                };
                if !self.program.is_subtype(target, static_ty)
                    && !self.program.is_subtype(static_ty, target)
                {
                    self.err(
                        format!(
                            "cast between unrelated classes `{class}` and `{}`",
                            self.program.classes[static_ty.index()].name
                        ),
                        span,
                    );
                }
                match np.steps.last_mut() {
                    Some(last) => last.cast_to = Some(target),
                    None => np.base_cast = Some(target),
                }
                Base::Node(np, target)
            }
            ast::PathBase::Ident(name) => {
                if let Some((np, ty)) = cx.lookup_alias(name) {
                    Base::Node(np.clone(), ty)
                } else if let Some(local) = cx.lookup_local(name) {
                    let ty = cx.locals[local.index()].ty;
                    Base::Data(
                        DataAccess::Local {
                            local,
                            members: Vec::new(),
                        },
                        ty,
                    )
                } else if let Some(fid) = self.program.field_on_class(cx.class, name) {
                    // Unqualified member access: `Width` means `this.Width`,
                    // `Next` means `this->Next`.
                    match self.program.fields[fid.index()].kind {
                        FieldKind::Child(c) => Base::Node(
                            NodePath {
                                base_cast: None,
                                steps: vec![PathStep {
                                    field: fid,
                                    cast_to: None,
                                }],
                            },
                            c,
                        ),
                        FieldKind::Data(ty) => Base::Data(
                            DataAccess::OnTree {
                                path: NodePath::this(),
                                data: vec![fid],
                            },
                            ty,
                        ),
                    }
                } else if let Some(&gid) = self.global_ids.get(name) {
                    let ty = self.program.globals[gid.index()].ty;
                    Base::Data(
                        DataAccess::Global {
                            global: gid,
                            members: Vec::new(),
                        },
                        ty,
                    )
                } else {
                    self.err(format!("unknown name `{name}`"), span);
                    return None;
                }
            }
        };

        // Apply `->` steps (child navigation) — only valid from a node.
        let (mut node, mut static_ty, mut data, mut data_ty) = match base {
            Base::Node(np, ty) => (Some(np), ty, None, Ty::Int),
            Base::Data(da, ty) => (None, ClassId(0), Some(da), ty),
        };
        for arrow in &path.arrows {
            let Some(np) = node.as_mut() else {
                self.err(
                    format!("`->{}` applied to a non-node value", arrow.name),
                    span,
                );
                return None;
            };
            let Some(fid) = self.program.field_on_class(static_ty, &arrow.name) else {
                self.err(
                    format!(
                        "no member `{}` on class `{}`",
                        arrow.name,
                        self.program.classes[static_ty.index()].name
                    ),
                    span,
                );
                return None;
            };
            match self.program.fields[fid.index()].kind {
                FieldKind::Child(c) => {
                    np.steps.push(PathStep {
                        field: fid,
                        cast_to: None,
                    });
                    static_ty = c;
                }
                FieldKind::Data(ty) => {
                    // `node->field` on a data field: treat like `.field`
                    // (C++ pointer-member access to data).
                    data = Some(DataAccess::OnTree {
                        path: np.clone(),
                        data: vec![fid],
                    });
                    data_ty = ty;
                    node = None;
                }
            }
        }

        // Apply `.` steps (data member accesses).
        for dot in &path.dots {
            match (&mut node, &mut data) {
                (Some(np), None) => {
                    let Some(fid) = self.program.field_on_class(static_ty, dot) else {
                        self.err(
                            format!(
                                "no data field `{dot}` on class `{}`",
                                self.program.classes[static_ty.index()].name
                            ),
                            span,
                        );
                        return None;
                    };
                    match self.program.fields[fid.index()].kind {
                        FieldKind::Data(ty) => {
                            data = Some(DataAccess::OnTree {
                                path: np.clone(),
                                data: vec![fid],
                            });
                            data_ty = ty;
                            node = None;
                        }
                        FieldKind::Child(_) => {
                            self.err(
                                format!("child field `{dot}` must be accessed with `->`"),
                                span,
                            );
                            return None;
                        }
                    }
                }
                (None, Some(access)) => {
                    let Ty::Struct(st) = data_ty else {
                        self.err(format!("`.{dot}` applied to a non-struct value"), span);
                        return None;
                    };
                    let Some(fid) = self.program.field_on_struct(st, dot) else {
                        self.err(
                            format!(
                                "no member `{dot}` on struct `{}`",
                                self.program.structs[st.index()].name
                            ),
                            span,
                        );
                        return None;
                    };
                    match access {
                        DataAccess::OnTree { data, .. } => data.push(fid),
                        DataAccess::Local { members, .. } => members.push(fid),
                        DataAccess::Global { members, .. } => members.push(fid),
                    }
                    data_ty = match self.program.fields[fid.index()].kind {
                        FieldKind::Data(t) => t,
                        FieldKind::Child(_) => unreachable!("struct members are data"),
                    };
                }
                _ => unreachable!("path resolution is node xor data"),
            }
        }

        Some(match (node, data) {
            (Some(np), None) => Resolved::Node(np, static_ty),
            (None, Some(da)) => Resolved::Data(da, data_ty),
            _ => unreachable!("path resolution is node xor data"),
        })
    }

    fn resolve_expr(&mut self, expr: &SurfaceExpr, cx: &mut BodyCx) -> Option<(Expr, Ty)> {
        match expr {
            SurfaceExpr::Literal(Literal::Int(v), _) => Some((Expr::Int(*v), Ty::Int)),
            SurfaceExpr::Literal(Literal::Float(v), _) => Some((Expr::Float(*v), Ty::Float)),
            SurfaceExpr::Literal(Literal::Bool(v), _) => Some((Expr::Bool(*v), Ty::Bool)),
            SurfaceExpr::Path(path) => {
                let resolved = self.resolve_path(path, cx)?;
                match resolved {
                    Resolved::Data(access, ty) => {
                        if matches!(ty, Ty::Struct(_)) {
                            self.err(
                                "struct values cannot be read whole; access a member",
                                path.span,
                            );
                        }
                        Some((Expr::Read(access), ty))
                    }
                    Resolved::Node(..) => {
                        self.err(
                            "tree nodes cannot be used as values in expressions",
                            path.span,
                        );
                        None
                    }
                }
            }
            SurfaceExpr::Unary { op, expr, span } => {
                let (e, ty) = self.resolve_expr(expr, cx)?;
                let rty = match op {
                    UnOp::Neg => {
                        if !matches!(ty, Ty::Int | Ty::Float) {
                            self.err("unary `-` needs a numeric operand", *span);
                        }
                        ty
                    }
                    UnOp::Not => {
                        if ty != Ty::Bool {
                            self.err("`!` needs a bool operand", *span);
                        }
                        Ty::Bool
                    }
                };
                Some((Expr::Unary(*op, Box::new(e)), rty))
            }
            SurfaceExpr::Binary { op, lhs, rhs, span } => {
                let (l, lt) = self.resolve_expr(lhs, cx)?;
                let (r, rt) = self.resolve_expr(rhs, cx)?;
                let numeric = |t: Ty| matches!(t, Ty::Int | Ty::Float);
                let rty = match op {
                    BinOp::And | BinOp::Or => {
                        if lt != Ty::Bool || rt != Ty::Bool {
                            self.err("logical operators need bool operands", *span);
                        }
                        Ty::Bool
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if lt != rt && !(numeric(lt) && numeric(rt)) {
                            self.err("cannot compare values of different types", *span);
                        }
                        Ty::Bool
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if !numeric(lt) || !numeric(rt) {
                            self.err("comparison needs numeric operands", *span);
                        }
                        Ty::Bool
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        if !numeric(lt) || !numeric(rt) {
                            self.err("arithmetic needs numeric operands", *span);
                        }
                        if lt == Ty::Float || rt == Ty::Float {
                            Ty::Float
                        } else {
                            Ty::Int
                        }
                    }
                };
                Some((Expr::Binary(*op, Box::new(l), Box::new(r)), rty))
            }
            SurfaceExpr::Call { name, args, span } => {
                let Some(&pid) = self.pure_names.get(name) else {
                    self.err(format!("unknown pure function `{name}`"), *span);
                    return None;
                };
                let rargs = self.resolve_pure_args(pid, args, cx, *span)?;
                let ret = self.program.pures[pid.index()].return_type;
                Some((Expr::PureCall(pid, rargs), ret))
            }
        }
    }
}

impl BodyCx {
    fn lookup_local(&self, name: &str) -> Option<LocalId> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(name).copied())
    }

    fn lookup_alias(&self, name: &str) -> Option<(NodePath, ClassId)> {
        self.alias_scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(name).cloned())
    }
}
