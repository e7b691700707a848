//! Grafter: sound, fine-grained traversal fusion for heterogeneous trees.
//!
//! This crate reproduces the compiler described in Sakka, Sundararajah,
//! Newton and Kulkarni, *"Sound, Fine-Grained Traversal Fusion for
//! Heterogeneous Trees"*, PLDI 2019. Given a program in the Grafter
//! traversal language (see [`grafter_frontend`]) and a sequence of traversal
//! invocations on a tree root, it produces a set of mutually recursive
//! *fused* functions that perform the same work in fewer passes over the
//! tree:
//!
//! 1. [`access`] summarises every statement's reads and writes as finite
//!    automata over access paths (paper §3.2), including the call automata
//!    of Algorithm 1 that capture all accesses transitively reachable from a
//!    traversing call under dynamic dispatch and mutual recursion;
//! 2. [`depgraph`] intersects those automata to build the dependence graph
//!    of a candidate fused function, testing each statement pair once per
//!    program through a conflict memo in [`ProgramAccesses`] (which also
//!    builds each statement's summary and each call's dispatch targets
//!    once per program);
//! 3. [`fusion`] runs the fusion algorithm (outline → inline → reorder →
//!    group → recurse) with *type-specific partial fusion*: every sequence
//!    of concrete functions fuses independently, memoised so recursive
//!    encounters of a known sequence become recursive calls (§3.3), bounded
//!    by the cutoffs of §4;
//! 4. [`cpp`] renders the result as C++-like source (the paper's Fig. 6),
//!    while `grafter-runtime` executes it directly.
//!
//! # Example
//!
//! ```
//! use grafter::{FuseOptions, fuse};
//!
//! let src = r#"
//!     tree class Node {
//!         child Node* next;
//!         int a = 0; int b = 0;
//!         virtual traversal incA() {}
//!         virtual traversal incB() {}
//!     }
//!     tree class Cons : Node {
//!         traversal incA() { a = a + 1; this->next->incA(); }
//!         traversal incB() { b = b + 1; this->next->incB(); }
//!     }
//!     tree class End : Node { }
//! "#;
//! let program = grafter_frontend::compile(src).unwrap();
//! let fused = fuse(&program, "Node", &["incA", "incB"], &FuseOptions::default()).unwrap();
//! // The two independent traversals fuse into a single pass:
//! assert!(fused.fully_fused());
//! ```

#![forbid(unsafe_code)]

pub mod access;
pub mod cpp;
pub mod depgraph;
pub mod error;
pub mod explain;
pub mod fusion;
pub mod pipeline;

pub use access::{AccessSummary, ProgramAccesses};
pub use depgraph::{DepGraph, MergedStmt};
pub use error::Error;
pub use explain::{
    BlockCause, CallSite, ConflictKind, EdgeEnd, FusionExplain, FusionVerdict, MissReason,
    PairExplain,
};
pub use fusion::{
    entry_flags, fuse, fuse_slots, fuse_timed, CallPart, FuseError, FuseOptions, FusedFn,
    FusedFnId, FusedProgram, FusionCoverage, FusionOptions, FusionTimes, ScheduledItem, Stub,
    StubId, MAX_TRAVERSALS,
};
pub use grafter_frontend::{
    ClassId, Diag, DiagnosticBag, FieldId, FieldKind, Program, Severity, Stage, Ty,
};
pub use pipeline::{Compiled, Fused, FusionMetrics};
