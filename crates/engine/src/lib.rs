//! Compile-once, run-many execution for fused Grafter traversals.
//!
//! Grafter's premise (PLDI 2019) is that traversal fusion is a
//! *compile-time* transformation whose payoff comes from executing the
//! fused artifact many times over many trees. This crate makes that the
//! default shape of the API:
//!
//! - [`Engine`] — immutable and `Send + Sync`, built exactly once via
//!   [`Engine::builder`]. Building compiles the DSL source, runs the
//!   fusion compiler, and (on [`Backend::Vm`]) lowers the bytecode
//!   [`Module`](grafter_vm::Module) — each exactly once. Wrap it in an
//!   [`Arc`](std::sync::Arc) and share it across every thread serving
//!   requests.
//! - [`Session`] — a cheap per-request handle from [`Engine::session`].
//!   Each session owns its [`Heap`](grafter_runtime::Heap), exposes tree
//!   construction, and [`Session::run`] executes the engine's program,
//!   returning a unified [`Report`].
//! - [`Engine::run_batch`] — fans independent inputs out across scoped
//!   `std::thread` workers (2 GiB reserved stacks each, spawned per call)
//!   and returns `Vec<Report>` in input order, deterministically. A panic
//!   in one input becomes that input's typed runtime error
//!   ([`Session::run_input`]).
//!
//! Errors are the typed [`grafter::Error`] (stage + span + rendered caret
//! snippet) rather than bare diagnostic bags.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use grafter_engine::{Backend, Engine};
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
//!
//! // Compile + fuse + lower exactly once.
//! let engine = Arc::new(
//!     Engine::builder()
//!         .source(src)
//!         .entry("Node", &["incA", "incB"])
//!         .backend(Backend::Vm)
//!         .build()?,
//! );
//! assert!(engine.fusion_metrics().fully_fused);
//!
//! // Run many: each request opens a session owning its heap.
//! let mut session = engine.session();
//! let end = session.alloc("End")?;
//! let cons = session.alloc("Cons")?;
//! session.set_child(cons, "next", Some(end))?;
//! let report = session.run(cons)?;
//! assert_eq!(report.metrics.visits, 2);
//!
//! // Or fan a batch out across worker threads, results in input order.
//! let reports = engine.run_batch(
//!     (0..8)
//!         .map(|_| {
//!             |heap: &mut grafter_runtime::Heap| {
//!                 let end = heap.alloc_by_name("End").unwrap();
//!                 let cons = heap.alloc_by_name("Cons").unwrap();
//!                 heap.set_child_by_name(cons, "next", Some(end)).unwrap();
//!                 cons
//!             }
//!         })
//!         .collect(),
//! )?;
//! assert_eq!(reports.len(), 8);
//! assert!(reports.iter().all(|r| *r == report));
//! # Ok::<(), grafter_engine::Error>(())
//! ```

#![forbid(unsafe_code)]

mod batch;
mod builder;
mod engine;
mod fingerprint;
mod report;
mod session;

pub use batch::BatchOptions;
pub use builder::EngineBuilder;
pub use engine::Engine;
pub use fingerprint::fnv1a;
pub use grafter::{Error, FusionMetrics, FusionOptions};
pub use grafter_obs::{BatchTrace, CompileTrace, Probe, RunTrace, TierProfile, TraceProbe};
pub use grafter_vm::{Backend, OptLevel};
pub use report::Report;
pub use session::Session;
