//! The Grafter paper's four case studies (§5), expressed in the traversal
//! DSL, plus input generators and a measurement harness.
//!
//! | Module | Paper section | Content |
//! |---|---|---|
//! | [`render`] | §5.1 | 17-type render tree, 5 layout passes (Fig. 7/8, Table 2) |
//! | [`ast`] | §5.2 | 20-type AST, 6 compiler passes (Fig. 10, Table 2) |
//! | [`kdtree`] | §5.3 | MADNESS-style piecewise functions (Table 5/6) |
//! | [`fmm`] | §5.4 | fast-multipole-method two-pass kernel (Fig. 13) |
//! | [`harness`] | §5 prelude | fused/unfused measurement runner; tier-parity test harness |
//!
//! Every workload exposes its DSL source (`SOURCE`), the pass list
//! (`PASSES`), the root class, and deterministic input builders used by the
//! paper's tables and figures.

pub mod ast;
pub mod cases;
pub mod fmm;
pub mod harness;
pub mod kdtree;
pub mod render;

pub use cases::{case_studies, CaseStudy};
