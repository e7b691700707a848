//! The staged compile→fuse stages of the compiler.
//!
//! [`Compiled::compile`] turns DSL source into a [`Compiled`] program
//! (running lexer, parser and sema, with all diagnostics accumulated in
//! one [`DiagnosticBag`]); [`Compiled::fuse`] runs the fusion compiler and
//! yields a [`Fused`] artifact that can render C++ ([`Fused::render_cpp`])
//! or report compile-side fusion statistics ([`FusedProgram::metrics`],
//! reached through `Deref`).
//! Execution lives in `grafter_engine` — build an `Engine` from a
//! [`Compiled`] (or straight from source) and open per-request sessions.
//!
//! ```
//! use grafter::Compiled;
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
//! let fused = Compiled::compile(src)?.fuse_default("Node", &["incA", "incB"])?;
//! assert!(fused.metrics().fully_fused);
//! assert!(fused.render_cpp().contains("__stub0"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

use grafter_frontend::{Diag, DiagnosticBag, Program, Stage};

use crate::cpp;
use crate::error::Error;
use crate::fusion::{fuse, FuseError, FuseOptions, FusedProgram};

impl From<FuseError> for Diag {
    fn from(e: FuseError) -> Diag {
        Diag::error_global(Stage::Fuse, e.to_string())
    }
}

impl From<FuseError> for DiagnosticBag {
    fn from(e: FuseError) -> DiagnosticBag {
        DiagnosticBag::from(Diag::from(e))
    }
}

/// A semantically checked program, ready to fuse.
#[derive(Clone, Debug)]
pub struct Compiled {
    src: String,
    program: Program,
    warnings: DiagnosticBag,
}

impl Compiled {
    /// Compiles DSL source through lexing, parsing and semantic analysis
    /// (the Engine builder's compile step).
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`] (stage, span, rendered caret snippet)
    /// when any frontend stage reports an error; warnings ride along on
    /// success via [`Compiled::warnings`].
    pub fn compile(src: impl Into<String>) -> Result<Compiled, Error> {
        Self::compile_timed(src).map(|(c, _, _)| c)
    }

    /// Like [`Compiled::compile`], but also reports how long the parse
    /// (lexing included) and sema stages took — the engine's compile
    /// trace builds on this.
    ///
    /// # Errors
    ///
    /// Same as [`Compiled::compile`].
    pub fn compile_timed(
        src: impl Into<String>,
    ) -> Result<(Compiled, std::time::Duration, std::time::Duration), Error> {
        let src = src.into();
        let t0 = std::time::Instant::now();
        let surface = match grafter_frontend::parser::parse(&src) {
            Ok(surface) => surface,
            Err(bag) => return Err(Error::new(bag, &src)),
        };
        let parse = t0.elapsed();
        let t1 = std::time::Instant::now();
        match grafter_frontend::sema::check_with_warnings(&surface) {
            Ok((program, warnings)) => Ok((
                Compiled {
                    src,
                    program,
                    warnings,
                },
                parse,
                t1.elapsed(),
            )),
            Err(bag) => Err(Error::new(bag, &src)),
        }
    }

    /// The resolved program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The source text the program was compiled from.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// Warnings the frontend emitted while compiling.
    pub fn warnings(&self) -> &DiagnosticBag {
        &self.warnings
    }

    /// Consumes the stage into the bare [`Program`].
    pub fn into_program(self) -> Program {
        self.program
    }

    /// Fuses the traversal sequence `traversals` invoked back-to-back on a
    /// root of static type `root_class`.
    ///
    /// # Errors
    ///
    /// Returns a [`DiagnosticBag`] (stage `fuse`) if the class or a
    /// traversal name does not resolve, or if a fused function could
    /// exceed [`crate::MAX_TRAVERSALS`].
    pub fn fuse(
        &self,
        root_class: &str,
        traversals: &[&str],
        opts: &FuseOptions,
    ) -> Result<Fused, DiagnosticBag> {
        let fused = fuse(&self.program, root_class, traversals, opts)?;
        Ok(Fused {
            src: self.src.clone(),
            warnings: self.warnings.clone(),
            fused,
        })
    }

    /// [`Compiled::fuse`] with [`FuseOptions::default`].
    ///
    /// # Errors
    ///
    /// See [`Compiled::fuse`].
    pub fn fuse_default(
        &self,
        root_class: &str,
        traversals: &[&str],
    ) -> Result<Fused, DiagnosticBag> {
        self.fuse(root_class, traversals, &FuseOptions::default())
    }

    /// [`Compiled::fuse`] with [`FuseOptions::unfused`]: the baseline that
    /// walks the tree once per traversal.
    ///
    /// # Errors
    ///
    /// See [`Compiled::fuse`].
    pub fn fuse_unfused(
        &self,
        root_class: &str,
        traversals: &[&str],
    ) -> Result<Fused, DiagnosticBag> {
        self.fuse(root_class, traversals, &FuseOptions::unfused())
    }
}

/// Compile-side statistics of a fusion run (see [`FusedProgram::metrics`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FusionMetrics {
    /// Number of generated fused functions.
    pub functions: usize,
    /// Number of generated dispatch stubs.
    pub stubs: usize,
    /// Number of root entry passes (1 when the whole sequence fused into a
    /// single pass; one per traversal for the unfused baseline).
    pub passes: usize,
    /// Whether fusion achieved a single visit per child everywhere.
    pub fully_fused: bool,
    /// Same-receiver call pairs merged into one dispatch (static count,
    /// see [`crate::FusionCoverage`]).
    pub fused_pairs: usize,
    /// Statically fusable same-receiver pairs left unfused (legal but
    /// ungrouped; run `--explain` for the per-pair reasons).
    pub missed_pairs: usize,
    /// Same-receiver pairs no legal grouping could fuse (no common
    /// supertype, cross-hierarchy receiver, or a dependence cycle).
    pub blocked_pairs: usize,
}

impl fmt::Display for FusionMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} function(s), {} stub(s), {} pass(es), fully fused: {}, \
             coverage: {} fused / {} missed / {} blocked pair(s)",
            self.functions,
            self.stubs,
            self.passes,
            self.fully_fused,
            self.fused_pairs,
            self.missed_pairs,
            self.blocked_pairs
        )
    }
}

/// The output of the fusion stage: a fused program plus the context needed
/// to render, execute and report on it.
#[derive(Clone, Debug)]
pub struct Fused {
    src: String,
    warnings: DiagnosticBag,
    fused: FusedProgram,
}

impl Fused {
    /// Renders the fused program as C++-like source (the paper's Fig. 6).
    pub fn render_cpp(&self) -> String {
        cpp::emit(&self.fused)
    }

    /// The per-pair fusability verdicts of the fusion run (the `--explain`
    /// report).
    pub fn explain(&self) -> &crate::explain::FusionExplain {
        &self.fused.explain
    }

    /// The source program shared by the fused code.
    pub fn program(&self) -> &Program {
        &self.fused.program
    }

    /// The source text the pipeline started from.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// Warnings accumulated by earlier stages.
    pub fn warnings(&self) -> &DiagnosticBag {
        &self.warnings
    }

    /// The underlying fused program (for direct `Interp` construction or
    /// structural inspection).
    pub fn fused_program(&self) -> &FusedProgram {
        &self.fused
    }
}

impl std::ops::Deref for Fused {
    type Target = FusedProgram;

    fn deref(&self) -> &FusedProgram {
        &self.fused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
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
    "#;

    #[test]
    fn staged_flow_compiles_and_fuses() {
        let compiled = Compiled::compile(SRC).unwrap();
        assert!(compiled.warnings().is_empty());
        let fused = compiled.fuse_default("Node", &["incA", "incB"]).unwrap();
        let m = fused.metrics();
        assert!(m.fully_fused);
        assert_eq!(m.passes, 1);
        let unfused = compiled.fuse_unfused("Node", &["incA", "incB"]).unwrap();
        assert_eq!(unfused.metrics().passes, 2);
    }

    #[test]
    fn compile_errors_carry_stage() {
        let bag = Compiled::compile("tree class X { child Y* next; }")
            .unwrap_err()
            .into_bag();
        assert!(bag.has_errors());
        assert!(bag.iter().all(|d| d.stage == Stage::Sema), "{bag}");
    }

    #[test]
    fn fuse_errors_carry_stage() {
        let compiled = Compiled::compile(SRC).unwrap();
        let bag = compiled.fuse_default("Nope", &["incA"]).unwrap_err();
        assert_eq!(bag[0].stage, Stage::Fuse);
        assert!(bag[0].message.contains("unknown tree class"));
        let bag = compiled.fuse_default("Node", &["nope"]).unwrap_err();
        assert!(bag[0].message.contains("no traversal"));
    }

    #[test]
    fn frontend_warnings_ride_along() {
        let src = format!("pure int mystery(int x);\n{SRC}");
        let compiled = Compiled::compile(src).unwrap();
        assert_eq!(compiled.warnings().len(), 1);
        assert!(compiled.warnings()[0].message.contains("never called"));
        let fused = compiled.fuse_default("Node", &["incA"]).unwrap();
        assert_eq!(fused.warnings().len(), 1, "warnings survive fusion");
    }

    #[test]
    fn render_cpp_matches_direct_emit() {
        let fused = Compiled::compile(SRC)
            .unwrap()
            .fuse_default("Node", &["incA", "incB"])
            .unwrap();
        assert_eq!(fused.render_cpp(), cpp::emit(fused.fused_program()));
    }
}
