//! Engine configuration and the build step that compiles everything once.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grafter::pipeline::Compiled;
use grafter::{fuse_timed, Error, FusionOptions};
use grafter_obs::{CompileTrace, Probe, Span};
use grafter_runtime::{Layouts, PureRegistry, Value};
use grafter_vm::{try_lower_with, Backend, OptLevel, VmOptions};

use crate::engine::Engine;
use grafter_cachesim::CacheHierarchy;

/// Configures and builds an [`Engine`].
///
/// Two inputs are required: the program (via [`EngineBuilder::source`] or
/// a pre-compiled [`EngineBuilder::compiled`] artifact) and the entry
/// sequence ([`EngineBuilder::entry`]). Everything else has defaults:
/// fusion on with the paper's cutoffs, the interpreter backend, math
/// pures, no entry arguments, no cache simulation.
///
/// [`EngineBuilder::build`] is the single compile-everything-once step:
/// frontend (when given source), fusion compiler, and — on
/// [`Backend::Vm`] — bytecode lowering each run exactly once, however
/// many sessions and threads the engine later serves.
#[derive(Default)]
pub struct EngineBuilder {
    source: Option<String>,
    compiled: Option<Compiled>,
    root: Option<String>,
    passes: Vec<String>,
    fusion: Option<FusionOptions>,
    backend: Backend,
    opt_level: OptLevel,
    pures: Option<PureRegistry>,
    args: Vec<Vec<Value>>,
    cache: Option<CacheHierarchy>,
    probe: Option<Arc<dyn Probe>>,
}

impl EngineBuilder {
    pub(crate) fn new() -> Self {
        EngineBuilder::default()
    }

    /// The DSL source to compile. Mutually exclusive with
    /// [`EngineBuilder::compiled`] (the compiled artifact wins).
    pub fn source(mut self, src: impl Into<String>) -> Self {
        self.source = Some(src.into());
        self
    }

    /// A pre-compiled frontend artifact (skips re-running the frontend
    /// when many engines share one program, e.g. fused + unfused pairs).
    pub fn compiled(mut self, compiled: Compiled) -> Self {
        self.compiled = Some(compiled);
        self
    }

    /// The entry sequence: traversals invoked back-to-back on a root of
    /// static type `root_class`.
    pub fn entry<S: AsRef<str>>(mut self, root_class: impl Into<String>, passes: &[S]) -> Self {
        self.root = Some(root_class.into());
        self.passes = passes.iter().map(|p| p.as_ref().to_string()).collect();
        self
    }

    /// Fusion knobs (defaults to [`FusionOptions::default`]; pass
    /// [`FusionOptions::unfused`] for the one-pass-per-traversal
    /// baseline).
    pub fn fusion(mut self, opts: FusionOptions) -> Self {
        self.fusion = Some(opts);
        self
    }

    /// The execution tier (default: [`Backend::Interp`]). On
    /// [`Backend::Vm`] the build lowers the bytecode module, once.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Bytecode optimization level of the VM tier (default
    /// [`OptLevel::O2`]; ignored by the interpreter backend).
    ///
    /// Whatever the level, execution stays observationally bit-identical
    /// — same snapshots, [`Report`](crate::Report) metrics and cache
    /// traffic — optimization only sheds dispatch overhead.
    pub fn opt_level(mut self, opt_level: OptLevel) -> Self {
        self.opt_level = opt_level;
        self
    }

    /// Replaces the default math pure registry for every session.
    pub fn pures(mut self, pures: PureRegistry) -> Self {
        self.pures = Some(pures);
        self
    }

    /// Per-traversal entry arguments for every session.
    pub fn args(mut self, args: Vec<Vec<Value>>) -> Self {
        self.args = args;
        self
    }

    /// Attaches a cache-hierarchy prototype: every session starts with a
    /// fresh clone and its report carries the simulated traffic.
    pub fn cache(mut self, cache: CacheHierarchy) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches an observability probe (e.g.
    /// [`grafter_obs::TraceProbe`]). The build delivers its
    /// [`CompileTrace`] to the probe, every session run records a runtime
    /// profile (per-function/per-block hit counters, opcode fire
    /// histograms, interpreter class-visit counts) delivered as a
    /// [`grafter_obs::RunTrace`], and batch runs report per-worker
    /// telemetry. Without a probe none of the run-side counters exist —
    /// the hooks monomorphize away and execution is bit-identical.
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Compiles, fuses and (for the VM tier) lowers — each exactly once —
    /// into an immutable, `Send + Sync` [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`Error`]: [`Stage::Config`] for builder misuse
    /// (no program, no entry), the originating stage for frontend or
    /// fusion failures, and [`Stage::Lower`] naming the exceeded limit for
    /// a program too large for the VM's bytecode.
    ///
    /// [`Stage::Config`]: grafter_frontend::Stage::Config
    /// [`Stage::Lower`]: grafter_frontend::Stage::Lower
    pub fn build(self) -> Result<Engine, Error> {
        let build_start = Instant::now();
        let mut spans: Vec<Span> = Vec::new();
        let compiled = match (self.compiled, self.source) {
            (Some(c), _) => c,
            (None, Some(src)) => {
                let t = build_start.elapsed();
                let (c, parse, sema) = Compiled::compile_timed(src)?;
                spans.push(Span {
                    name: "parse".to_string(),
                    start: t,
                    dur: parse,
                    meta: vec![("bytes".to_string(), c.source().len().to_string())],
                });
                spans.push(Span {
                    name: "sema".to_string(),
                    start: t + parse,
                    dur: sema,
                    meta: vec![("classes".to_string(), c.program().classes.len().to_string())],
                });
                c
            }
            (None, None) => {
                return Err(Error::config(
                    "engine needs a program: call `.source(..)` or `.compiled(..)`",
                ))
            }
        };
        let Some(root) = self.root else {
            return Err(Error::config(
                "engine needs an entry sequence: call `.entry(root_class, passes)`",
            ));
        };
        if self.passes.is_empty() {
            return Err(Error::config(
                "engine needs at least one entry traversal in `.entry(..)`",
            ));
        }

        let opts = self.fusion.unwrap_or_default();
        let passes: Vec<&str> = self.passes.iter().map(String::as_str).collect();
        let t = build_start.elapsed();
        let (fused, stage_times) = fuse_timed(compiled.program(), &root, &passes, &opts)
            .map_err(|e| Error::from_diag(e.into(), compiled.source()))?;
        let dur = build_start.elapsed() - t;
        spans.push(Span {
            name: "fusion".to_string(),
            start: t,
            dur,
            meta: vec![
                ("functions".to_string(), fused.n_functions().to_string()),
                ("stubs".to_string(), fused.stubs.len().to_string()),
                (
                    "fused_pairs".to_string(),
                    fused.coverage.fused_pairs.to_string(),
                ),
                (
                    "missed_pairs".to_string(),
                    fused.coverage.missed_pairs.to_string(),
                ),
                (
                    "blocked_pairs".to_string(),
                    fused.coverage.blocked_pairs.to_string(),
                ),
                (
                    "verdicts".to_string(),
                    fused.explain.pairs.len().to_string(),
                ),
                (
                    "intersections".to_string(),
                    stage_times.intersections.to_string(),
                ),
                (
                    "pairs_visited".to_string(),
                    stage_times.pairs_visited.to_string(),
                ),
                (
                    "functions_expanded".to_string(),
                    stage_times.functions_expanded.to_string(),
                ),
                ("trims".to_string(), stage_times.trims.to_string()),
            ],
        });
        // Fusion timed its own stages (`FusionTimes`); lay them out inside
        // the fusion span, as the optimizer passes sit in `lower`.
        let stages = stage_times.spans().map(|(name, dur)| Span {
            name: name.to_string(),
            start: Duration::ZERO,
            dur,
            meta: Vec::new(),
        });
        push_tail(&mut spans, t, t + dur, stages);
        let fusion = fused.metrics();
        // The compile-once step of the VM tier: lowering (and bytecode
        // optimization) happens here and nowhere else in the engine's
        // lifetime.
        let module = match self.backend {
            Backend::Interp => None,
            Backend::Vm => {
                let t = build_start.elapsed();
                let m = try_lower_with(
                    &fused,
                    &VmOptions {
                        opt_level: self.opt_level,
                    },
                )?;
                let dur = build_start.elapsed() - t;
                spans.push(Span {
                    name: "lower".to_string(),
                    start: t,
                    dur,
                    meta: vec![
                        ("ops".to_string(), m.n_ops().to_string()),
                        ("opt_level".to_string(), format!("{}", self.opt_level)),
                    ],
                });
                // Each optimization pass already timed itself
                // (`PassStat::wall_ns`).
                let passes = m.opt_report().passes.iter().map(|p| Span {
                    name: format!("opt/{}", p.pass),
                    start: Duration::ZERO,
                    dur: Duration::from_nanos(p.wall_ns),
                    meta: vec![
                        ("before".to_string(), p.before.to_string()),
                        ("after".to_string(), p.after.to_string()),
                        ("unit".to_string(), p.unit.to_string()),
                        ("rewrites".to_string(), p.rewrites.to_string()),
                        ("action".to_string(), p.action.to_string()),
                    ],
                });
                push_tail(&mut spans, t, t + dur, passes);
                Some(m)
            }
        };
        let mut warnings = compiled.warnings().clone();
        warnings.dedup();
        // Every session heap shares the fused program's own `Arc` (no
        // second program copy) and one set of layouts: the module's on the
        // VM tier, computed here on the interpreter's.
        let shared_layouts = match &module {
            Some(m) => Arc::clone(m.layouts()),
            None => Arc::new(Layouts::new(&fused.program)),
        };
        let names = fused.program.pures.iter().map(|p| p.name.as_str());
        let pures = self
            .pures
            .unwrap_or_else(PureRegistry::with_math)
            .resolve(names);
        let compile_trace = CompileTrace {
            spans,
            total: build_start.elapsed(),
        };
        if let Some(probe) = &self.probe {
            probe.on_compile(&compile_trace);
        }
        Ok(Engine {
            src: compiled.source().to_string(),
            fused,
            fusion,
            module,
            backend: self.backend,
            opt_level: self.opt_level,
            shared_layouts,
            pures,
            args: self.args,
            cache: self.cache,
            warnings,
            probe: self.probe,
            compile_trace,
        })
    }
}

/// Appends the spans of stages that timed themselves inside a parent span
/// running from `start` to `end`, laid out back to back at its tail.
fn push_tail(
    spans: &mut Vec<Span>,
    start: Duration,
    end: Duration,
    stages: impl IntoIterator<Item = Span>,
) {
    let first = spans.len();
    spans.extend(stages);
    let total: Duration = spans[first..].iter().map(|s| s.dur).sum();
    let mut cursor = end.checked_sub(total).unwrap_or(start);
    for span in &mut spans[first..] {
        span.start = cursor;
        cursor += span.dur;
    }
}
