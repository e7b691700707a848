//! Frontend for the Grafter traversal language.
//!
//! Grafter (Sakka et al., PLDI 2019) lets programmers write tree traversals
//! in a restricted C++-like language (the paper's Fig. 3 grammar): annotated
//! *tree classes* whose recursive `child` fields may point to arbitrary other
//! tree types, *traversal methods* (possibly `virtual` and mutually
//! recursive), opaque *pure functions*, plain `struct` data types, and
//! top-level globals. This crate is a from-scratch implementation of that
//! language:
//!
//! - [`lexer`] / [`parser`] produce a surface [`ast`],
//! - [`sema`] resolves names, checks the Fig. 3 restrictions (traversal
//!   calls only at the top level of a body, single-assignment node aliases,
//!   assignments only to data fields, trivial constructors for `new`, ...)
//!   and produces the fully resolved [`hir::Program`] consumed by the
//!   `grafter` fusion compiler and the `grafter-runtime` interpreter.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     tree class Node {
//!         child Node* next;
//!         int value = 0;
//!         int sum = 0;
//!         virtual traversal computeSum() {}
//!     }
//!     tree class Cons : Node {
//!         traversal computeSum() {
//!             this->next->computeSum();
//!             this.sum = this.value + this->next.sum;
//!         }
//!     }
//!     tree class End : Node {
//!     }
//! "#;
//! let program = grafter_frontend::compile(src).expect("valid program");
//! assert_eq!(program.classes.len(), 3);
//! let node = program.class_by_name("Node").unwrap();
//! assert_eq!(program.concrete_subtypes(node).len(), 3);
//! ```

pub mod ast;
pub mod diag;
pub mod hir;
pub mod lexer;
pub mod parser;
pub mod sema;

pub use diag::{Diag, DiagnosticBag, Severity, Span, Stage};
pub use hir::{
    BinOp, ClassId, DataAccess, Expr, FieldId, FieldKind, GlobalId, LocalId, MethodId, NodePath,
    PathStep, Program, PureId, Stmt, StructId, TraverseStmt, Ty, UnOp,
};
pub use parser::MAX_NESTING;
pub use sema::MAX_LAYOUT_ENTRIES;

/// Parses and semantically checks a Grafter program.
///
/// # Errors
///
/// Returns a [`DiagnosticBag`] with every diagnostic collected during
/// lexing, parsing and semantic analysis if the program is not a valid
/// Grafter program.
pub fn compile(src: &str) -> Result<Program, DiagnosticBag> {
    compile_with_warnings(src).map(|(program, _)| program)
}

/// Like [`compile`], but also hands back the warnings emitted on success.
///
/// This is the entry point the `grafter::pipeline` layer builds on: one
/// [`DiagnosticBag`] carries errors and warnings from every frontend stage.
///
/// # Errors
///
/// Returns a [`DiagnosticBag`] with every diagnostic (errors and warnings)
/// if the program is not a valid Grafter program.
pub fn compile_with_warnings(src: &str) -> Result<(Program, DiagnosticBag), DiagnosticBag> {
    let surface = parser::parse(src)?;
    sema::check_with_warnings(&surface)
}
