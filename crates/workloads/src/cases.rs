//! The four case studies as uniform descriptors.
//!
//! Every tool that sweeps "all the workloads" — perfbench, the
//! `vm_compare` backend comparison, the backend differential tests —
//! reads this one matrix, so a change to a workload's entry sequence (or
//! to the kd-tree schedule selection) propagates to every driver at once
//! instead of requiring three copies to be edited in lockstep.

use grafter::pipeline::Compiled;
use grafter::FusionOptions;
use grafter_engine::{Backend, Engine, OptLevel};
use grafter_runtime::{Heap, NodeId, Value};

use crate::harness::Entry;
use crate::{ast, fmm, kdtree, render};

/// One case study's full entry configuration.
pub struct CaseStudy {
    /// Short name (`ast`, `render`, `kdtree`, `fmm`).
    pub name: &'static str,
    /// The workload compiled through the pipeline's frontend stage.
    pub compiled: Compiled,
    /// The workload's DSL source text (what `compiled` was built from) —
    /// lets drivers re-run the frontend, e.g. to trace parse/sema stages.
    pub source: &'static str,
    /// Root class of the entry sequence.
    pub root_class: &'static str,
    /// Entry traversal names, in invocation order.
    pub passes: Vec<&'static str>,
    /// Per-traversal entry arguments.
    pub args: Vec<Vec<Value>>,
    /// Deterministic input builder: `(heap, size, seed) -> root`.
    pub build: fn(&mut Heap, usize, u64) -> NodeId,
    /// Input size used by wall-clock benches.
    pub bench_size: usize,
    /// Smaller input size used by differential test suites.
    pub test_size: usize,
}

impl CaseStudy {
    /// Builds the benchmark-sized input tree (seed 42).
    pub fn build_bench(&self, heap: &mut Heap) -> NodeId {
        (self.build)(heap, self.bench_size, 42)
    }

    /// Builds the test-sized input tree (seed 42).
    pub fn build_test(&self, heap: &mut Heap) -> NodeId {
        (self.build)(heap, self.test_size, 42)
    }

    /// The case study's entry sequence, for
    /// [`check_parity`](crate::harness::check_parity).
    pub fn entry(&self) -> Entry<'_> {
        Entry {
            root_class: self.root_class,
            passes: &self.passes,
            args: &self.args,
        }
    }

    /// The case study's pre-wired engine builder (program, entry
    /// sequence, fusion options and arguments filled in) — the single
    /// place every `engine*` helper below goes through, so a new builder
    /// knob applies to all drivers at once.
    fn builder(&self, opts: FusionOptions, backend: Backend) -> grafter_engine::EngineBuilder {
        Engine::builder()
            .compiled(self.compiled.clone())
            .entry(self.root_class, &self.passes)
            .fusion(opts)
            .backend(backend)
            .args(self.args.clone())
    }

    /// Builds the case study's immutable [`Engine`] for `backend` with
    /// custom fusion options (entry sequence and arguments pre-wired).
    pub fn engine_with(&self, opts: FusionOptions, backend: Backend) -> Engine {
        self.builder(opts, backend)
            .build()
            .expect("case-study entry sequence resolves")
    }

    /// [`CaseStudy::engine_with`] with default (fused) options.
    pub fn engine(&self, backend: Backend) -> Engine {
        self.engine_with(FusionOptions::default(), backend)
    }

    /// [`CaseStudy::engine`] with an observability probe attached: the
    /// build delivers its compile trace and every session run records
    /// the tier's runtime profile (see `grafter_obs`).
    pub fn engine_probed(
        &self,
        backend: Backend,
        probe: std::sync::Arc<dyn grafter_engine::Probe>,
    ) -> Engine {
        self.builder(FusionOptions::default(), backend)
            .probe(probe)
            .build()
            .expect("case-study entry sequence resolves")
    }

    /// Builds the case study's VM-tier engine at a specific bytecode
    /// optimization level (the per-opt-level sweep of `vm_compare` and
    /// the opt differential suite).
    pub fn engine_opt(&self, opts: FusionOptions, opt_level: OptLevel) -> Engine {
        self.builder(opts, Backend::Vm)
            .opt_level(opt_level)
            .build()
            .expect("case-study entry sequence resolves")
    }
}

/// The four case studies of the paper's evaluation (§5), with the
/// kd-tree running its first equation's schedule.
pub fn case_studies() -> Vec<CaseStudy> {
    let schedules = kdtree::equation_schedules();
    let (_, schedule) = &schedules[0];
    vec![
        CaseStudy {
            name: "ast",
            compiled: ast::compiled(),
            source: ast::SOURCE,
            root_class: ast::ROOT_CLASS,
            passes: ast::PASSES.to_vec(),
            args: Vec::new(),
            build: ast::build_program,
            bench_size: 100,
            test_size: 20,
        },
        CaseStudy {
            name: "render",
            compiled: render::compiled(),
            source: render::SOURCE,
            root_class: render::ROOT_CLASS,
            passes: render::PASSES.to_vec(),
            args: Vec::new(),
            build: render::build_document,
            bench_size: 300,
            test_size: 30,
        },
        CaseStudy {
            name: "kdtree",
            compiled: kdtree::compiled(),
            source: kdtree::SOURCE,
            root_class: kdtree::ROOT_CLASS,
            passes: schedule.iter().map(|op| op.pass()).collect(),
            args: schedule.iter().map(|op| op.args()).collect(),
            build: kdtree::build_balanced,
            bench_size: 12,
            test_size: 8,
        },
        CaseStudy {
            name: "fmm",
            compiled: fmm::compiled(),
            source: fmm::SOURCE,
            root_class: fmm::ROOT_CLASS,
            passes: fmm::PASSES.to_vec(),
            args: Vec::new(),
            build: fmm::build_tree,
            bench_size: 20_000,
            test_size: 1_000,
        },
    ]
}
