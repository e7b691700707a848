//! The immutable, shareable engine: one compiled program, many runs.

use std::sync::Arc;

use grafter::{cpp, DiagnosticBag, FusedProgram, FusionMetrics};
use grafter_cachesim::CacheHierarchy;
use grafter_frontend::{ClassId, Program};
use grafter_obs::{ExecCounters, TierProfile};
use grafter_runtime::{Heap, Interp, Layouts, Machine, NodeId, Pures, RuntimeError, Value};
use grafter_vm::{Backend, Module, OptLevel, Vm};

use crate::builder::EngineBuilder;
use crate::session::Session;

/// A fused program compiled for execution, immutable after
/// [`EngineBuilder::build`].
///
/// The engine owns everything that is per-*program*: the fused functions,
/// the lowered bytecode module (VM backend, lowered exactly once), the
/// resolved pures, default entry arguments and the cache model
/// prototype. Everything per-*run* (the heap, counters, simulated
/// cache state) lives in [`Session`]s, so one `Arc<Engine>` serves any
/// number of threads concurrently — `Engine` is `Send + Sync` and two
/// sessions never share mutable state.
///
/// See the [crate docs](crate) for the end-to-end example.
pub struct Engine {
    pub(crate) src: String,
    pub(crate) fused: FusedProgram,
    pub(crate) fusion: FusionMetrics,
    /// Lowered exactly once at build for [`Backend::Vm`]; `None` on the
    /// interpreter tier.
    pub(crate) module: Option<Module>,
    pub(crate) backend: Backend,
    /// Bytecode optimization level the module was lowered at (set even on
    /// the interpreter tier, where it has no effect).
    pub(crate) opt_level: OptLevel,
    /// The layouts every session heap (beside the fused program's own
    /// `Arc<Program>`) and every run's executor share: `Arc` bumps, not
    /// layout recomputations, per run. On the VM tier they are the
    /// module's own.
    pub(crate) shared_layouts: Arc<Layouts>,
    /// Resolved once at build; each run's machine shares the table.
    pub(crate) pures: Pures,
    pub(crate) args: Vec<Vec<Value>>,
    /// Fresh-state cache prototype cloned into each session.
    pub(crate) cache: Option<CacheHierarchy>,
    pub(crate) warnings: DiagnosticBag,
    /// Observability sink (see [`EngineBuilder::probe`]); when attached,
    /// sessions record runtime profiles and report them here.
    pub(crate) probe: Option<Arc<dyn grafter_obs::Probe>>,
    /// Per-stage wall times of this engine's build, recorded
    /// unconditionally (a handful of `Instant` reads).
    pub(crate) compile_trace: grafter_obs::CompileTrace,
}

impl Engine {
    /// Starts configuring a new engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Opens a session: a per-request execution context owning its own
    /// heap, pre-configured with the engine's pures, entry arguments and
    /// cache model.
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Opens a session over an existing heap (e.g. a clone of a pre-built
    /// input tree, so repeated timed runs skip tree construction).
    pub fn session_on(&self, heap: Heap) -> Session<'_> {
        Session::on(self, heap)
    }

    /// The execution tier this engine was built for.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The bytecode optimization level the engine was built with
    /// (meaningful on [`Backend::Vm`]; the interpreter ignores it).
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Compile-side fusion statistics (computed once at build).
    pub fn fusion_metrics(&self) -> FusionMetrics {
        self.fusion
    }

    /// Warnings accumulated while building, deduplicated.
    pub fn warnings(&self) -> &DiagnosticBag {
        &self.warnings
    }

    /// Per-stage wall times of the build (parse/sema when built from
    /// source, fusion, lowering, each optimization pass).
    /// Always recorded; attaching a probe additionally delivers it to
    /// [`grafter_obs::Probe::on_compile`].
    pub fn compile_trace(&self) -> &grafter_obs::CompileTrace {
        &self.compile_trace
    }

    /// The attached observability probe, if any.
    pub fn probe(&self) -> Option<&Arc<dyn grafter_obs::Probe>> {
        self.probe.as_ref()
    }

    /// The DSL source the engine was built from.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The resolved source program (class/field/method tables) — the
    /// same shared instance every session heap references.
    pub fn program(&self) -> &Program {
        &self.fused.program
    }

    /// The program's node layouts and name indexes — the instance every
    /// session heap (and, on [`Backend::Vm`], the module) shares.
    pub fn layouts(&self) -> &Layouts {
        &self.shared_layouts
    }

    /// The fused program the engine executes.
    pub fn fused_program(&self) -> &FusedProgram {
        &self.fused
    }

    /// The per-pair fusability verdicts of the engine's fusion run: why
    /// each same-receiver candidate pair fused, was missed, or was blocked
    /// (render with [`grafter::FusionExplain::render_text`] over
    /// [`Engine::source`], or as JSON with
    /// [`grafter::FusionExplain::render_json`]).
    pub fn explain(&self) -> &grafter::FusionExplain {
        &self.fused.explain
    }

    /// The lowered bytecode module — `Some` exactly when the engine was
    /// built with [`Backend::Vm`].
    pub fn module(&self) -> Option<&Module> {
        self.module.as_ref()
    }

    /// Renders the fused program as C++-like source (the paper's Fig. 6).
    pub fn render_cpp(&self) -> String {
        cpp::emit(&self.fused)
    }

    /// A fresh heap laid out for this engine's program (what
    /// [`Engine::session`] starts from). The program and its layouts are
    /// shared, so this is two reference-count bumps and two empty vectors.
    pub fn new_heap(&self) -> Heap {
        Heap::with_shared(
            Arc::clone(&self.fused.program),
            Arc::clone(&self.shared_layouts),
        )
    }

    /// A fresh executor of the engine's tier for one run: a machine
    /// starting from the shared layouts' global frame and simulating
    /// `cache`.
    pub(crate) fn executor(&self, cache: Option<CacheHierarchy>) -> Executor<'_> {
        let mut machine = Machine::new(Arc::clone(&self.shared_layouts), self.pures.clone());
        machine.cache = cache;
        match &self.module {
            None => Executor::Interp(Interp::with_machine(&self.fused, machine)),
            Some(module) => Executor::Vm(Vm::with_machine(module, machine), module),
        }
    }
}

/// One run's executor on either tier: the one interface
/// [`Session::run`] drives.
pub(crate) enum Executor<'e> {
    Interp(Interp<'e>),
    Vm(Vm<'e>, &'e Module),
}

impl Executor<'_> {
    /// Runs the entry sequence on `root` with the entry `args`; a
    /// `probed` run also returns its profile.
    pub(crate) fn run(
        &mut self,
        heap: &mut Heap,
        root: NodeId,
        args: &[Vec<Value>],
        probed: bool,
    ) -> Result<Option<TierProfile>, RuntimeError> {
        match self {
            Executor::Interp(interp) if probed => {
                let class_visits = (0..)
                    .map(ClassId)
                    .zip(interp.run_probed(heap, root, args)?)
                    .filter(|&(_, n)| n > 0)
                    .map(|(c, n)| (heap.layouts().class_name(c).to_string(), n))
                    .collect();
                Ok(Some(TierProfile {
                    class_visits,
                    ..TierProfile::default()
                }))
            }
            Executor::Interp(interp) => interp.run(heap, root, args).map(|()| None),
            Executor::Vm(vm, module) if probed => {
                let mut counters = ExecCounters::new(module.n_functions(), module.n_ops());
                vm.run_probed(heap, root, args, &mut counters)?;
                Ok(Some(module.profile(&counters)))
            }
            Executor::Vm(vm, _) => vm.run(heap, root, args).map(|()| None),
        }
    }

    /// The machine that metered the last run: its counters, simulated
    /// cache (if any) and global frame.
    pub(crate) fn outcome(&self) -> &Machine {
        match self {
            Executor::Interp(Interp { machine, .. }) | Executor::Vm(Vm { machine, .. }, _) => {
                machine
            }
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("backend", &self.backend)
            .field("opt_level", &self.opt_level)
            .field("fusion", &self.fusion)
            .field("module", &self.module.as_ref().map(|m| m.n_ops()))
            .field("warnings", &self.warnings.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }
}
