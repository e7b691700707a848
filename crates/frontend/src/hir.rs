//! Resolved program representation (high-level IR).
//!
//! Produced by [`crate::sema`] from the surface AST. All names are interned
//! into dense ids; node aliases are inlined into paths; virtual methods are
//! linked to the slot they override. This is the representation the fusion
//! compiler analyses and the interpreter's IR is lowered from.

use std::fmt;

use crate::ast::Literal;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a `usize` index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }
    };
}

id_type!(
    /// A tree class.
    ClassId
);
id_type!(
    /// A field: a child pointer, a data field, or a struct member.
    FieldId
);
id_type!(
    /// A traversal method definition (a concrete body in some class).
    MethodId
);
id_type!(
    /// A pure (opaque, read-only) function.
    PureId
);
id_type!(
    /// A global variable.
    GlobalId
);
id_type!(
    /// A local variable or parameter, scoped to one method body.
    LocalId
);
id_type!(
    /// A plain data struct.
    StructId
);

/// A value type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    Int,
    Float,
    Bool,
    /// An inline struct value.
    Struct(StructId),
    /// A tree-node pointer (only for child fields and aliases).
    Node(ClassId),
}

impl Ty {
    /// Whether the type is a primitive scalar.
    pub fn is_primitive(self) -> bool {
        matches!(self, Ty::Int | Ty::Float | Ty::Bool)
    }
}

/// What a field is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldKind {
    /// A child pointer with the given static type.
    Child(ClassId),
    /// A data field of the given type.
    Data(Ty),
}

/// Where a field is declared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldOwner {
    Class(ClassId),
    Struct(StructId),
}

/// A field declaration.
#[derive(Clone, Debug)]
pub struct Field {
    pub name: String,
    pub owner: FieldOwner,
    pub kind: FieldKind,
    /// Default value for data fields (zero-like if absent).
    pub default: Option<Literal>,
}

/// A tree class.
#[derive(Clone, Debug)]
pub struct Class {
    pub name: String,
    /// Direct superclasses (usually zero or one).
    pub supers: Vec<ClassId>,
    /// Fields declared directly in this class (children and data).
    pub fields: Vec<FieldId>,
    /// Methods declared directly in this class.
    pub methods: Vec<MethodId>,
}

/// A plain data struct.
#[derive(Clone, Debug)]
pub struct Struct {
    pub name: String,
    /// Member fields (primitives).
    pub members: Vec<FieldId>,
}

/// A pure, opaque function: Grafter only knows it is read-only.
#[derive(Clone, Debug)]
pub struct PureFn {
    pub name: String,
    pub return_type: Ty,
    pub params: Vec<Ty>,
}

/// A global variable (an off-tree location).
#[derive(Clone, Debug)]
pub struct GlobalVar {
    pub name: String,
    pub ty: Ty,
    pub default: Option<Literal>,
}

/// A local variable or parameter of a method.
#[derive(Clone, Debug)]
pub struct LocalVar {
    pub name: String,
    pub ty: Ty,
    /// `true` for the first `n_params` locals.
    pub is_param: bool,
}

/// A traversal method.
#[derive(Clone, Debug)]
pub struct Method {
    pub name: String,
    /// The class the method is declared in.
    pub class: ClassId,
    pub is_virtual: bool,
    /// Locals; the first `n_params` are the parameters, in order.
    pub locals: Vec<LocalVar>,
    pub n_params: usize,
    pub body: Vec<Stmt>,
    /// The root-most declaration this method overrides (itself if none).
    /// Methods with equal `slot` belong to the same dynamic-dispatch family.
    pub slot: MethodId,
}

/// One `->child` navigation step.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathStep {
    pub field: FieldId,
    /// A `static_cast` applied to the node reached by this step, changing
    /// its static type for subsequent member lookups.
    pub cast_to: Option<ClassId>,
}

/// A chain of child navigations starting at `this` (aliases are inlined).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodePath {
    /// A cast applied to `this` itself.
    pub base_cast: Option<ClassId>,
    pub steps: Vec<PathStep>,
}

impl NodePath {
    /// The path that is just `this`.
    pub fn this() -> Self {
        NodePath::default()
    }

    /// Whether the path refers to the traversed node itself.
    pub fn is_this(&self) -> bool {
        self.steps.is_empty()
    }

    /// The child fields traversed, ignoring casts.
    pub fn fields(&self) -> impl Iterator<Item = FieldId> + '_ {
        self.steps.iter().map(|s| s.field)
    }
}

/// A resolved data access (read or write target).
#[derive(Clone, Debug, PartialEq)]
pub enum DataAccess {
    /// `(this)(->c)*(.s)+` — on-tree, parameterised by the traversed node.
    OnTree { path: NodePath, data: Vec<FieldId> },
    /// A local variable (or parameter), possibly a struct member chain.
    Local {
        local: LocalId,
        members: Vec<FieldId>,
    },
    /// A global variable, possibly a struct member chain.
    Global {
        global: GlobalId,
        members: Vec<FieldId>,
    },
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// C-like spelling, for the code emitter.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// A resolved expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    Int(i64),
    Float(f64),
    Bool(bool),
    Read(DataAccess),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    PureCall(PureId, Vec<Expr>),
}

/// A traversing call: `receiver->method(args)`.
#[derive(Clone, Debug, PartialEq)]
pub struct TraverseStmt {
    pub receiver: NodePath,
    /// Dispatch slot (root-most declaration of the called virtual family).
    pub slot: MethodId,
    pub args: Vec<Expr>,
    /// Source span of the call site, so fusion verdicts can point back at
    /// the exact `receiver->method(...)` statement in diagnostics.
    pub span: crate::diag::Span,
}

/// A resolved statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    Traverse(TraverseStmt),
    Assign {
        target: DataAccess,
        value: Expr,
    },
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    LocalDef {
        local: LocalId,
        init: Option<Expr>,
    },
    New {
        target: NodePath,
        class: ClassId,
    },
    Delete {
        target: NodePath,
    },
    Return,
    PureStmt {
        pure: PureId,
        args: Vec<Expr>,
    },
}

/// A fully resolved Grafter program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub classes: Vec<Class>,
    pub structs: Vec<Struct>,
    pub fields: Vec<Field>,
    pub methods: Vec<Method>,
    pub pures: Vec<PureFn>,
    pub globals: Vec<GlobalVar>,
}

impl Program {
    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// Looks up a struct by name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.structs
            .iter()
            .position(|s| s.name == name)
            .map(|i| StructId(i as u32))
    }

    /// Looks up a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// All ancestors of a class (transitive supers), nearest first,
    /// excluding the class itself.
    pub fn ancestors(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut stack = self.classes[class.index()].supers.clone();
        while let Some(c) = stack.pop() {
            if !out.contains(&c) {
                out.push(c);
                stack.extend(self.classes[c.index()].supers.iter().copied());
            }
        }
        out
    }

    /// Whether `sub` is `sup` or a transitive subtype of it.
    pub fn is_subtype(&self, sub: ClassId, sup: ClassId) -> bool {
        sub == sup || self.ancestors(sub).contains(&sup)
    }

    /// Every concrete type a node statically typed `class` may have at
    /// runtime: the class itself plus all transitive subclasses, in id
    /// order. (All Grafter tree classes are instantiable.)
    pub fn concrete_subtypes(&self, class: ClassId) -> Vec<ClassId> {
        (0..self.classes.len() as u32)
            .map(ClassId)
            .filter(|&c| self.is_subtype(c, class))
            .collect()
    }

    /// Fields visible on a class: inherited ones first, then its own.
    pub fn all_fields(&self, class: ClassId) -> Vec<FieldId> {
        let mut out = Vec::new();
        let mut lineage = self.ancestors(class);
        lineage.reverse();
        lineage.push(class);
        for c in lineage {
            out.extend(self.classes[c.index()].fields.iter().copied());
        }
        out
    }

    /// Looks up a (possibly inherited) field by name on a class.
    ///
    /// Later (more derived) declarations shadow earlier ones.
    pub fn field_on_class(&self, class: ClassId, name: &str) -> Option<FieldId> {
        self.all_fields(class)
            .into_iter()
            .rev()
            .find(|&f| self.fields[f.index()].name == name)
    }

    /// Looks up a struct member field by name.
    pub fn field_on_struct(&self, st: StructId, name: &str) -> Option<FieldId> {
        self.structs[st.index()]
            .members
            .iter()
            .copied()
            .find(|&f| self.fields[f.index()].name == name)
    }

    /// Resolves a method *name* on a class, walking up the hierarchy.
    pub fn method_on_class(&self, class: ClassId, name: &str) -> Option<MethodId> {
        let mut lineage = vec![class];
        lineage.extend(self.ancestors(class));
        for c in lineage {
            if let Some(&m) = self.classes[c.index()]
                .methods
                .iter()
                .find(|&&m| self.methods[m.index()].name == name)
            {
                return Some(m);
            }
        }
        None
    }

    /// Resolves a dispatch `slot` for a *concrete* receiver class: the
    /// most-derived override of the slot's method family.
    pub fn resolve_virtual(&self, class: ClassId, slot: MethodId) -> Option<MethodId> {
        let name = &self.methods[slot.index()].name;
        let m = self.method_on_class(class, name)?;
        // Guard against unrelated same-named methods in disjoint hierarchies.
        if self.methods[m.index()].slot == self.methods[slot.index()].slot {
            Some(m)
        } else {
            None
        }
    }

    /// The static type reached by following `path` from a node of type
    /// `start` (respecting casts), or `None` if a step does not exist.
    pub fn path_target_type(&self, start: ClassId, path: &NodePath) -> Option<ClassId> {
        let mut ty = path.base_cast.unwrap_or(start);
        for step in &path.steps {
            let field = &self.fields[step.field.index()];
            match field.kind {
                FieldKind::Child(c) => ty = step.cast_to.unwrap_or(c),
                FieldKind::Data(_) => return None,
            }
        }
        Some(ty)
    }

    /// Joins a set of classes to their least common ancestor, if any.
    ///
    /// Used by the code generator to type the traversed-node parameter of a
    /// fused function (the paper's "lattice for the types traversed").
    pub fn least_common_ancestor(&self, classes: &[ClassId]) -> Option<ClassId> {
        let mut candidates: Option<Vec<ClassId>> = None;
        for &c in classes {
            let mut up = vec![c];
            up.extend(self.ancestors(c));
            candidates = Some(match candidates {
                None => up,
                Some(prev) => prev.into_iter().filter(|x| up.contains(x)).collect(),
            });
        }
        candidates.and_then(|c| c.into_iter().next())
    }

    /// Total number of member symbols (fields) — the automata alphabet size.
    pub fn n_fields(&self) -> usize {
        self.fields.len()
    }
}
