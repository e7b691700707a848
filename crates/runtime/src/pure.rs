//! Registry of native implementations for `pure` functions.
//!
//! Grafter treats `pure` functions as opaque, read-only C++ (paper §3.1);
//! their bodies are never analysed. The runtime mirrors that: a pure
//! function is a native Rust closure registered by name, and each engine
//! resolves its program's pures to a [`Pures`] table once.

use std::collections::HashMap;

use crate::machine::Pures;
use crate::Value;

/// A native pure function.
pub type NativeFn = fn(&[Value]) -> Value;

/// Name → native function map a program's pures are resolved against.
#[derive(Clone, Default)]
pub struct PureRegistry {
    fns: HashMap<String, NativeFn>,
}

impl PureRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PureRegistry::default()
    }

    /// Creates a registry pre-populated with common math helpers:
    /// `sqrtf`, `powf`, `fabs`, `fmin`, `fmax`, `floorf`, `logf`, `expf`.
    pub fn with_math() -> Self {
        let mut r = PureRegistry::new();
        r.register("sqrtf", |a| Value::Float(a[0].as_f64().sqrt()));
        r.register("powf", |a| Value::Float(a[0].as_f64().powf(a[1].as_f64())));
        r.register("fabs", |a| Value::Float(a[0].as_f64().abs()));
        r.register("fmin", |a| Value::Float(a[0].as_f64().min(a[1].as_f64())));
        r.register("fmax", |a| Value::Float(a[0].as_f64().max(a[1].as_f64())));
        r.register("floorf", |a| Value::Float(a[0].as_f64().floor()));
        r.register("logf", |a| Value::Float(a[0].as_f64().ln()));
        r.register("expf", |a| Value::Float(a[0].as_f64().exp()));
        r
    }

    /// Registers (or replaces) a native function under `name`.
    pub fn register(&mut self, name: &str, f: NativeFn) {
        self.fns.insert(name.to_string(), f);
    }

    /// Looks up a native function.
    pub fn get(&self, name: &str) -> Option<NativeFn> {
        self.fns.get(name).copied()
    }

    /// Resolves the pures named `names`, in `PureId` order, to a table
    /// a [`Machine`](crate::Machine) calls by index.
    pub fn resolve<'n>(&self, names: impl IntoIterator<Item = &'n str>) -> Pures {
        Pures(
            names
                .into_iter()
                .map(|name| self.get(name).ok_or_else(|| name.into()))
                .collect(),
        )
    }
}

impl std::fmt::Debug for PureRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PureRegistry")
            .field("functions", &self.fns.keys().collect::<Vec<_>>())
            .finish()
    }
}
