//! grafter-server: a long-running traversal service (`grafterd`) over
//! the compile-once Grafter engine, plus its load generator
//! (`grafter-load`).
//!
//! The daemon speaks a length-prefixed line protocol (`<len>\n<body>\n`,
//! JSON bodies) defined in [`proto`], keeps compiled engines resident in
//! the single-flight LRU [`cache`], and executes every request on a small
//! executor each [`Daemon`] owns: a fixed set of threads spawned when it
//! binds. Steady-state cached requests perform **zero** compiles and
//! **zero** thread spawns, which the `stats` method exposes for
//! end-to-end assertion.

#![forbid(unsafe_code)]

pub mod cache;
pub mod daemon;
mod executor;
pub mod proto;

pub use cache::{CacheStats, EngineCache};
pub use daemon::{Daemon, DaemonOptions, MAX_CONNECTIONS};
