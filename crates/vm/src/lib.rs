//! `grafter-vm`: a bytecode compiler and register VM for fused traversals.
//!
//! The tree-walking interpreter in `grafter-runtime` executes a
//! [`grafter::FusedProgram`] by walking its statement trees, summing each
//! data access's member chain, scanning stub targets for the receiver's
//! class and allocating fresh frame vectors on every node visit —
//! faithful, but dominated by interpretive dispatch overhead. This crate
//! is the compiled execution tier:
//!
//! 1. [`lower`] compiles a fused program **once** into a flat [`Module`]:
//!    registers for locals and expression scratch, field accesses with
//!    their member addends folded (one read of the program's
//!    [`grafter_runtime::Layouts`] slot table at run time, a table the
//!    module shares with the engine's heaps), a jump table per dispatch
//!    stub keyed by the receiver's dynamic type, and a deduplicated
//!    constant pool. Only the fusion bookkeeping lowering
//!    cannot decide reaches the bytecode: active-flag guards a
//!    must-active analysis proves true are folded, and truncated call
//!    parts pass no placeholder arguments;
//! 2. the [`opt`] pipeline rewrites the module ([`OptLevel::O2`] by
//!    default, [`OptLevel::O0`] via [`lower_with`]/[`VmOptions`]):
//!    peephole fusion of hot adjacent pairs into superinstructions,
//!    register-window compaction, then per-entry-mask clones of the
//!    multi-traversal functions, which leave out what the traversal
//!    copies inactive at entry would guard — all observationally
//!    bit-identical to unoptimized code (same `Metrics`, cache traffic,
//!    errors), just fewer dispatch rounds;
//! 3. [`Vm`] executes the module with a single `match`-dispatch loop over
//!    the contiguous op vector, directly against the existing
//!    [`grafter_runtime::Heap`]; each activation runs the clone for its
//!    entry mask when there is one. Every memory access goes through the
//!    [`grafter_runtime::Machine`] the interpreter drives too, so the
//!    [`grafter_runtime::Metrics`] and the simulated
//!    [`grafter_cachesim::CacheHierarchy`] traffic are the interpreter's
//!    by construction — bit-identical counters, measurably less
//!    wall-clock per visit.
//!
//! Backend choice is one builder call away: [`Backend`] on
//! `grafter_engine::Engine::builder().backend(..)` selects the tier, and
//! the engine lowers exactly once at build.
//!
//! # Example
//!
//! ```
//! use grafter::{fuse, Compiled, FuseOptions};
//! use grafter_vm::{lower, Vm};
//! use grafter_runtime::{Heap, Interp};
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
//! let compiled = Compiled::compile(src)?;
//! let fused = fuse(compiled.program(), "Node", &["incA", "incB"], &FuseOptions::default())?;
//!
//! // Same tree, one tier apart.
//! let build = |heap: &mut Heap| {
//!     let end = heap.alloc_by_name("End").unwrap();
//!     let cons = heap.alloc_by_name("Cons").unwrap();
//!     heap.set_child_by_name(cons, "next", Some(end)).unwrap();
//!     cons
//! };
//! let mut h1 = Heap::new(compiled.program());
//! let mut h2 = Heap::new(compiled.program());
//! let (r1, r2) = (build(&mut h1), build(&mut h2));
//!
//! let mut interp = Interp::new(&fused);
//! interp.run(&mut h1, r1, &[]).unwrap();
//!
//! let module = lower(&fused);
//! let mut vm = Vm::new(&module);
//! vm.run(&mut h2, r2, &[]).unwrap();
//!
//! assert_eq!(interp.machine.metrics, vm.machine.metrics); // identical metrics, bit for bit
//! assert_eq!(h1.snapshot(r1), h2.snapshot(r2)); // identical trees
//!
//! // The lowered artifact is inspectable (grafterc --emit bytecode).
//! assert!(module.disassemble().contains("fn 0"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod exec;
mod lower;
mod module;
pub mod opt;
mod pipeline;

pub use exec::Vm;
pub use lower::{lower, lower_with, lowering_count, try_lower_with, LowerError};
pub use module::{Co, Module, Op, OpKind};
pub use opt::{optimize, OptLevel, OptReport, PassStat, VmOptions};
pub use pipeline::Backend;
