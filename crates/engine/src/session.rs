//! Per-request execution contexts over a shared engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use grafter::{Diag, Error, Stage};
use grafter_cachesim::CacheHierarchy;
use grafter_obs::RunTrace;
use grafter_runtime::{Heap, NodeId, SnapValue, Value};

use crate::engine::Engine;
use crate::report::Report;

/// One request's execution context: a heap plus run configuration,
/// borrowed from a shared [`Engine`].
///
/// Sessions are cheap to open and independent of each other — each owns
/// its heap and (when attached) its simulated cache, so any number can
/// run concurrently against one `Arc<Engine>`. Pures, entry arguments and
/// the cache prototype come from the engine; [`Session::with_cache`]
/// attaches a cache model to one session.
///
/// Tree construction goes through the session's typed wrappers
/// ([`Session::alloc`], [`Session::set_child`], [`Session::set_field`])
/// or directly through [`Session::heap_mut`] for bulk builders.
pub struct Session<'e> {
    engine: &'e Engine,
    heap: Heap,
    cache: Option<CacheHierarchy>,
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e Engine) -> Self {
        Session::on(engine, engine.new_heap())
    }

    pub(crate) fn on(engine: &'e Engine, heap: Heap) -> Self {
        Session {
            engine,
            heap,
            cache: engine.cache.clone(),
        }
    }

    /// The engine this session runs against.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The session's heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable access to the session's heap (bulk tree builders).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Attaches (or replaces) a cache-model prototype for this session; a
    /// fresh clone simulates each run, and the run's [`Report`] carries
    /// its statistics.
    pub fn with_cache(mut self, cache: CacheHierarchy) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Allocates a node of `class`.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::Config`] error when the class name does not
    /// resolve.
    pub fn alloc(&mut self, class: &str) -> Result<NodeId, Error> {
        self.heap
            .alloc_by_name(class)
            .ok_or_else(|| self.config_error(format!("unknown tree class `{class}`")))
    }

    /// Sets child field `field` of `node` (`None` = null).
    ///
    /// # Errors
    ///
    /// A [`Stage::Config`] error, as grafterd's for an inline tree, when
    /// `field` is no child field of the node's class or cannot hold
    /// `child`'s class.
    pub fn set_child(
        &mut self,
        node: NodeId,
        field: &str,
        child: Option<NodeId>,
    ) -> Result<(), Error> {
        let heap = &self.heap;
        let child_class = child.map(|c| heap.class_of(c));
        let slot = heap
            .layouts()
            .child_slot(heap.program(), heap.class_of(node), field, child_class)
            .map_err(|message| self.config_error(message))?;
        self.heap.set(node, slot, Value::Ref(child));
        Ok(())
    }

    /// Sets data field `field` of `node` (dotted struct paths allowed,
    /// e.g. `"Text.Length"`).
    ///
    /// # Errors
    ///
    /// A [`Stage::Config`] error, as grafterd's for an inline tree, when
    /// `field` is no data field of the node's class.
    pub fn set_field(&mut self, node: NodeId, field: &str, value: Value) -> Result<(), Error> {
        let heap = &self.heap;
        let slot = heap
            .layouts()
            .data_slot(heap.program(), heap.class_of(node), field)
            .map_err(|message| self.config_error(message))?;
        self.heap.set(node, slot, value);
        Ok(())
    }

    /// Reads data field `field` of `node`.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::Config`] error when the field does not resolve
    /// on the node's class.
    pub fn get_field(&self, node: NodeId, field: &str) -> Result<Value, Error> {
        self.heap
            .get_by_name(node, field)
            .ok_or_else(|| self.config_error(format!("unknown field `{field}`")))
    }

    /// Runs an arbitrary tree builder against the session's heap and
    /// returns the root it produced.
    pub fn build_tree(&mut self, build: impl FnOnce(&mut Heap) -> NodeId) -> NodeId {
        build(&mut self.heap)
    }

    /// Clears the session's heap for the next input while keeping the
    /// arena's capacity, so a session serving many requests allocates
    /// only while its largest tree is still growing the pool.
    ///
    /// A reset session is observationally identical to a fresh one: the
    /// next tree gets the same simulated addresses, so `Report`s and
    /// snapshots are bit-identical to an un-pooled run. The session's
    /// cache model is kept.
    pub fn reset(&mut self) {
        self.heap.reset();
    }

    /// A value-semantics snapshot of the subtree under `root` (class name
    /// plus slot values per node, pre-order) — the heap-state fingerprint
    /// the differential and concurrency suites compare.
    pub fn snapshot(&self, root: NodeId) -> Vec<(String, Vec<SnapValue>)> {
        self.heap.snapshot(root)
    }

    /// Executes the engine's fused program on `root`, collecting a
    /// [`Report`].
    ///
    /// Can be called repeatedly (e.g. on a tree the previous run
    /// mutated); each run gets a fresh executor of the engine's tier:
    /// fresh counters, the layouts' initial global frame and, when a
    /// cache model is attached, a fresh simulated cache.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::Runtime`] [`Error`] on null dereferences,
    /// missing pure implementations or unresolvable dispatch — rendered
    /// identically for both backends.
    pub fn run(&mut self, root: NodeId) -> Result<Report, Error> {
        let engine = self.engine;
        let mut executor = engine.executor(self.cache.clone());
        // `wall` times the execution alone; executor setup and the
        // post-run globals readout stay outside the measured region.
        // Run-side profiling exists only when the engine has a probe; the
        // unprobed paths are exactly the pre-observability ones (the VM
        // hooks monomorphize away).
        let start = Instant::now();
        let profile = executor
            .run(&mut self.heap, root, &engine.args, engine.probe.is_some())
            .map_err(|e| Error::from_diag(e.into(), &engine.src))?;
        let wall = start.elapsed();
        let machine = executor.outcome();
        let globals = engine
            .layouts()
            .global_slot_names()
            .iter()
            .zip(machine.globals())
            .map(|(name, &value)| (name.to_string(), value))
            .collect();
        let trace = profile.map(|profile| {
            Box::new(RunTrace {
                tier: engine.backend.to_string(),
                wall,
                profile,
            })
        });
        if let (Some(probe), Some(trace)) = (&engine.probe, &trace) {
            probe.on_run(trace);
        }
        Ok(Report {
            backend: engine.backend,
            opt_level: engine.opt_level,
            fusion: engine.fusion,
            metrics: machine.metrics.clone(),
            cache: machine.cache.as_ref().map(CacheHierarchy::stats),
            globals,
            wall,
            trace,
        })
    }

    /// Serves one input: resets the session, builds the input's tree with
    /// `build` and runs the engine's program on it. This is what every
    /// batch worker and every grafterd job does per input.
    ///
    /// A panic in `build` or in the run does not unwind out of here: it
    /// becomes a typed [`Stage::Runtime`] error naming the panic
    /// (`worker panicked: ..`), and the session continues on a fresh heap,
    /// so the panic poisons nothing the next input sees.
    ///
    /// # Errors
    ///
    /// The run's own [`Error`]s, plus the panic error above.
    pub fn run_input(&mut self, build: impl FnOnce(&mut Heap) -> NodeId) -> Result<Report, Error> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.reset();
            let root = self.build_tree(build);
            self.run(root)
        }));
        outcome.unwrap_or_else(|payload| {
            self.heap = self.engine.new_heap();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let diag = Diag::error_global(Stage::Runtime, format!("worker panicked: {msg}"));
            Err(Error::from_diag(diag, &self.engine.src))
        })
    }

    fn config_error(&self, message: String) -> Error {
        Error::from_diag(Diag::error_global(Stage::Config, message), &self.engine.src)
    }
}
