//! Execution-tier selection.
//!
//! [`Backend`] names which tier runs a fused artifact; it is configured
//! once on `grafter_engine::Engine::builder().backend(..)`, which lowers
//! the bytecode module exactly once and shares the immutable artifact
//! across every session and thread.

use std::fmt;
use std::str::FromStr;

/// Which execution tier runs a fused artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The instrumented tree-walking interpreter (`grafter-runtime`).
    #[default]
    Interp,
    /// The bytecode register VM (`grafter-vm`).
    Vm,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Backend::Interp => "interp",
            Backend::Vm => "vm",
        })
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "interp" | "interpreter" => Ok(Backend::Interp),
            "vm" | "bytecode" => Ok(Backend::Vm),
            other => Err(format!("unknown backend `{other}` (expected interp|vm)")),
        }
    }
}
