//! The three workloads: their set-up, their seeded input pools with the
//! oracle's reference outputs, and their closed-loop request loops.
//!
//! - `compile`: every request builds a VM-O2 engine from a source variant
//!   no cache has seen, then runs one `test_size` tree through it — the
//!   grafterc and cache-miss path, dominated by fusion.
//! - `run`: engines are built in set-up; every request runs a pre-built
//!   `bench_size` tree — the paper's subject, the fused traversal itself.
//! - `serve`: an in-process grafterd answers `run` frames with generated
//!   `test_size` inputs from warmed engines — framing, decoding, cache
//!   lookup, server-side tree building and encoding around a short run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grafter::pipeline::{Compiled, Fused};
use grafter_engine::{Backend, Engine, EngineBuilder, FusionOptions, OptLevel, Report, Session};
use grafter_runtime::{Heap, Layouts, NodeId, PureRegistry, Value};
use grafter_server::proto::{render_run, InputSpec};
use grafter_vm::{lower_with, Module, Vm, VmOptions};
use grafter_workloads::CaseStudy;

use crate::calib::{median_walk_ms, scale, walk_ms, Request, Scaled, Walk, REFERENCE_MS};
use crate::oracle::{output_digest, report_digest, response_matches, Oracle, Tally};
use crate::serve::{is_ok, program_spec, Client, Rig, ServerStats};
use crate::stats::{median, Rng};
use crate::trace::Recorder;

/// Distinct inputs per program. Large enough that a per-program median
/// does not hinge on one input's shape.
pub const POOL: usize = 16;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Compile,
    Run,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Compile, Workload::Run, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Run => "run",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Reference walks timed before each request: enough for several per
    /// second even when one request takes a quarter of a second.
    pub fn walks_per_request(self) -> usize {
        match self {
            Workload::Compile => 4,
            Workload::Run | Workload::Serve => 1,
        }
    }

    /// Input size of every tree this workload runs.
    pub fn size(self, case: &CaseStudy) -> usize {
        match self {
            Workload::Run => case.bench_size,
            Workload::Compile | Workload::Serve => case.test_size,
        }
    }
}

/// The builder of `case` on the configuration the benchmark measures:
/// VM tier, O2, default fusion.
pub fn vm_builder(case: &CaseStudy, source: impl Into<String>) -> EngineBuilder {
    Engine::builder()
        .source(source)
        .entry(case.root_class, &case.passes)
        .fusion(FusionOptions::default())
        .backend(Backend::Vm)
        .opt_level(OptLevel::O2)
        .args(case.args.clone())
}

pub fn build_engine(case: &CaseStudy) -> Result<Engine, String> {
    vm_builder(case, case.source)
        .build()
        .map_err(|e| format!("{}: engine build failed: {e}", case.name))
}

/// Reference walks timed on each side of a set-up repetition.
const SETUP_WALKS: usize = 16;

/// Runs `f` [`SETUP_REPEATS`] times and returns the last result with the
/// median set-up time in seconds, each repetition scaled to the reference
/// speed by the walks timed just before and after it. Earlier results are
/// dropped before the next repetition starts its clock.
fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut kept = None;
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let before = median_walk_ms(SETUP_WALKS);
        let t = Instant::now();
        kept = Some(f()?);
        let dt = t.elapsed().as_secs_f64();
        let walk = (before + median_walk_ms(SETUP_WALKS)) / 2.0;
        secs.push(dt * REFERENCE_MS / walk);
    }
    Ok((
        kept.expect("at least one repetition"),
        median(&secs).expect("samples"),
    ))
}

/// The seeded generator seeds of every program's input pool.
fn pool_seeds(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Rng::new(seed);
    (0..4)
        .map(|_| (0..POOL).map(|_| rng.next_u64() % 1_000_000_007).collect())
        .collect()
}

/// The order requests arrive in: programs in shuffled blocks of four, so
/// every program gets an equal share however early the deadline cuts the
/// run, each request on a seeded draw from that program's pool.
pub struct Plan {
    rng: Rng,
    block: Vec<usize>,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        Plan {
            // Complemented: a stream apart from the pool seeds' `Rng::new(seed)`.
            rng: Rng::new(!seed),
            block: Vec::new(),
        }
    }

    /// `(program, pool index)` of the next request.
    pub fn next_request(&mut self) -> (usize, usize) {
        if self.block.is_empty() {
            self.block = self.rng.permutation(4);
        }
        let p = self.block.pop().expect("refilled above");
        (p, self.rng.below(POOL))
    }
}

/// What one measured phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// The requests that succeeded.
    pub requests: Vec<Request>,
    /// The reference walks timed between requests.
    pub walks: Vec<Walk>,
    pub tally: Tally,
    /// Error frames the daemon answered with.
    pub error_frames: u64,
    /// Daemon counter deltas over the phase (`serve` only).
    pub server: Option<ServerStats>,
}

impl Phase {
    /// Measured latencies in ms of the requests that succeeded, per
    /// program.
    pub fn latencies(&self) -> [Vec<f64>; 4] {
        let mut v: [Vec<f64>; 4] = Default::default();
        for r in &self.requests {
            v[r.program].push(r.ms);
        }
        v
    }

    /// The latencies of the phase's quieter half, scaled to the reference
    /// speed.
    pub fn scaled(&self) -> Scaled {
        scale(&self.requests, &self.walks)
    }
}

/// Issues requests back to back (a closed loop) until `seconds` elapse,
/// timing `walks` reference walks before each request.
fn closed_loop(
    seconds: f64,
    walks: usize,
    plan: &mut Plan,
    mut request: impl FnMut(u64, usize, usize) -> (Duration, bool),
) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut i = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        for _ in 0..walks {
            let at = start.elapsed().as_secs_f64();
            phase.walks.push(Walk { at, ms: walk_ms() });
        }
        let (p, k) = plan.next_request();
        let at = start.elapsed().as_secs_f64();
        let (dt, ok) = request(i, p, k);
        phase.tally.record(ok);
        if ok {
            phase.requests.push(Request {
                program: p,
                at,
                ms: dt.as_secs_f64() * 1e3,
            });
        }
        i += 1;
    }
    phase
}

/// One input of the layer sweep: the tree a workload runs for a program.
#[derive(Clone, Copy, Debug)]
pub struct LayerInput {
    pub size: usize,
    pub seed: u64,
    /// The oracle's reference output digest.
    pub digest: u64,
}

/// A workload ready to take requests.
pub trait Bench {
    /// Per program, the input the traced run's layer sweep uses.
    fn layer_inputs(&self) -> Vec<LayerInput>;

    /// Issues requests for `seconds`, recording spans when `rec` is given.
    fn measure(
        &mut self,
        seconds: f64,
        seed: u64,
        rec: Option<&mut Recorder>,
    ) -> Result<Phase, String>;
}

/// Computes the reference outputs of every pooled input, then sets
/// `workload` up; returns it with its median set-up time in seconds.
pub fn prepare<'c>(
    workload: Workload,
    cases: &'c [CaseStudy],
    oracles: &[Oracle],
    seed: u64,
) -> Result<(Box<dyn Bench + 'c>, f64), String> {
    let seeds = pool_seeds(seed);
    let digests: Vec<Vec<u64>> = cases
        .iter()
        .zip(oracles)
        .zip(&seeds)
        .map(|((case, oracle), seeds)| {
            seeds
                .iter()
                .map(|&s| oracle.digest(case, workload.size(case), s))
                .collect()
        })
        .collect();
    match workload {
        Workload::Compile => {
            // Ready to take requests: every program's build path has run
            // once (allocator and code warm).
            let ((), setup_s) = timed_setup(|| {
                for case in cases {
                    build_engine(case)?;
                }
                Ok(())
            })?;
            Ok((
                Box::new(CompileBench {
                    cases,
                    seeds,
                    digests,
                }),
                setup_s,
            ))
        }
        Workload::Run => {
            let (engines, setup_s) = timed_setup(|| {
                cases
                    .iter()
                    .map(build_engine)
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let pools = cases
                .iter()
                .zip(&engines)
                .zip(seeds.iter().zip(&digests))
                .map(|((case, engine), (seeds, digests))| {
                    seeds
                        .iter()
                        .zip(digests)
                        .map(|(&seed, &digest)| {
                            let mut heap = engine.new_heap();
                            let root = (case.build)(&mut heap, case.bench_size, seed);
                            RunInput {
                                heap,
                                root,
                                seed,
                                digest,
                            }
                        })
                        .collect()
                })
                .collect();
            Ok((
                Box::new(RunBench {
                    cases,
                    engines,
                    pools,
                }),
                setup_s,
            ))
        }
        Workload::Serve => {
            let (rig, setup_s) = timed_setup(|| ServeRig::start(cases, seed))?;
            let pools = serve_pools(cases, &seeds, &digests)?;
            Ok((Box::new(ServeBench { rig, cases, pools }), setup_s))
        }
    }
}

// ---- compile --------------------------------------------------------------

struct CompileBench<'c> {
    cases: &'c [CaseStudy],
    seeds: Vec<Vec<u64>>,
    digests: Vec<Vec<u64>>,
}

/// The source of request `i`: a comment suffix makes every request's
/// source distinct, so no engine cache can turn the build into a lookup.
fn variant(case: &CaseStudy, i: u64) -> String {
    format!("{}\n/* perfbench request {i} */", case.source)
}

/// One untraced `compile` request: `Engine::build`, then one run.
fn compile_request(case: &CaseStudy, src: String, seed: u64, digest: u64) -> (Duration, bool) {
    let t = Instant::now();
    let Ok(engine) = vm_builder(case, src).build() else {
        return (t.elapsed(), false);
    };
    let mut session = engine.session();
    let root = session.build_tree(|h| (case.build)(h, case.test_size, seed));
    let report = session.run(root);
    let dt = t.elapsed();
    let ok = report.is_ok_and(|r| output_digest(&session.snapshot(root), &r.globals) == digest);
    (dt, ok)
}

/// The final tree and globals of a stage-wise run.
type StagedOutput = (Heap, NodeId, Vec<(String, Value)>);

/// The work of `Engine::build` split into its public stage calls, each in
/// a span: `Compiled::compile_timed` (with its parse and sema stages),
/// `Compiled::fuse` and `grafter_vm::lower_with`.
pub fn staged_build(
    case: &CaseStudy,
    src: String,
    rec: &mut Recorder,
    id: u64,
) -> Option<(Fused, Module)> {
    let name = case.name;
    let compiled = rec.span("frontend.compile", name, id, |rec| {
        let t = Instant::now();
        let (c, parse, sema) = Compiled::compile_timed(src).ok()?;
        rec.child("frontend.parse", name, id, t, parse);
        rec.child("frontend.sema", name, id, t + parse, sema);
        Some(c)
    })?;
    let fused = rec.span("core.fuse", name, id, |_| {
        compiled
            .fuse(case.root_class, &case.passes, &FusionOptions::default())
            .ok()
    })?;
    let module = rec.span("vm.lower", name, id, |_| {
        lower_with(
            fused.fused_program(),
            &VmOptions {
                opt_level: OptLevel::O2,
            },
        )
    });
    Some((fused, module))
}

/// One traced `compile` request: the same work as [`compile_request`],
/// split into the public stage calls `Engine::build` makes, each in a span.
fn compile_request_traced(
    case: &CaseStudy,
    src: String,
    seed: u64,
    digest: u64,
    rec: &mut Recorder,
    id: u64,
) -> (Duration, bool) {
    let name = case.name;
    let t = Instant::now();
    let out = rec.span("request", name, id, |rec| -> Option<StagedOutput> {
        let (fused, module) = staged_build(case, src, rec, id)?;
        let fp = fused.fused_program();
        let (mut heap, root) = rec.span("runtime.tree_build", name, id, |_| {
            let layouts = Arc::new(Layouts::new(&fp.program));
            let mut heap = Heap::with_shared(Arc::clone(&fp.program), layouts);
            let root = (case.build)(&mut heap, case.test_size, seed);
            (heap, root)
        });
        let mut vm = Vm::with_pures(&module, PureRegistry::with_math());
        rec.span("vm.run", name, id, |_| vm.run(&mut heap, root, &case.args))
            .ok()?;
        let globals = fp
            .program
            .globals
            .iter()
            .map(|g| Some((g.name.clone(), vm.global(&g.name)?)))
            .collect::<Option<Vec<_>>>()?;
        Some((heap, root, globals))
    });
    let dt = t.elapsed();
    let ok = out.is_some_and(|(heap, root, globals)| {
        output_digest(&heap.snapshot(root), &globals) == digest
    });
    (dt, ok)
}

impl Bench for CompileBench<'_> {
    fn layer_inputs(&self) -> Vec<LayerInput> {
        self.cases
            .iter()
            .enumerate()
            .map(|(p, case)| LayerInput {
                size: case.test_size,
                seed: self.seeds[p][0],
                digest: self.digests[p][0],
            })
            .collect()
    }

    fn measure(
        &mut self,
        seconds: f64,
        seed: u64,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Phase, String> {
        let mut plan = Plan::new(seed);
        let walks = Workload::Compile.walks_per_request();
        Ok(closed_loop(seconds, walks, &mut plan, |i, p, k| {
            let case = &self.cases[p];
            let (seed, digest) = (self.seeds[p][k], self.digests[p][k]);
            let src = variant(case, i);
            match rec.as_deref_mut() {
                None => compile_request(case, src, seed, digest),
                Some(rec) => compile_request_traced(case, src, seed, digest, rec, i),
            }
        }))
    }
}

// ---- run ------------------------------------------------------------------

struct RunInput {
    heap: Heap,
    root: NodeId,
    seed: u64,
    digest: u64,
}

struct RunBench<'c> {
    cases: &'c [CaseStudy],
    engines: Vec<Engine>,
    pools: Vec<Vec<RunInput>>,
}

fn run_on(
    engine: &Engine,
    heap: Heap,
    root: NodeId,
) -> (Session<'_>, Result<Report, grafter_engine::Error>) {
    let mut session = engine.session_on(heap);
    let report = session.run(root);
    (session, report)
}

impl Bench for RunBench<'_> {
    fn layer_inputs(&self) -> Vec<LayerInput> {
        self.cases
            .iter()
            .zip(&self.pools)
            .map(|(case, pool)| LayerInput {
                size: case.bench_size,
                seed: pool[0].seed,
                digest: pool[0].digest,
            })
            .collect()
    }

    fn measure(
        &mut self,
        seconds: f64,
        seed: u64,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Phase, String> {
        let mut plan = Plan::new(seed);
        let walks = Workload::Run.walks_per_request();
        Ok(closed_loop(seconds, walks, &mut plan, |i, p, k| {
            let (engine, input) = (&self.engines[p], &self.pools[p][k]);
            let name = self.cases[p].name;
            // Copying the input tree stays outside the timer.
            let heap = input.heap.clone();
            let t = Instant::now();
            let (session, report) = match rec.as_deref_mut() {
                None => run_on(engine, heap, input.root),
                Some(rec) => rec.span("request", name, i, |rec| {
                    rec.span("vm.run", name, i, |_| run_on(engine, heap, input.root))
                }),
            };
            let dt = t.elapsed();
            let ok = report.is_ok_and(|r| {
                output_digest(&session.snapshot(input.root), &r.globals) == input.digest
            });
            (dt, ok)
        }))
    }
}

// ---- serve ----------------------------------------------------------------

/// A daemon with its cache warmed for all four programs, and the one
/// closed-loop connection that loads it and reads its counters. (With a
/// second connection, the client threads' reference walks would compete
/// with the daemon's threads for the 2-core host the benchmark was sized
/// on, and measure that contention instead of the host's speed.) The
/// client is declared first so it closes before the daemon drains.
pub struct ServeRig {
    client: Client,
    _daemon: Rig,
}

impl ServeRig {
    /// Binds the daemon and warms its engine cache with one request per
    /// program.
    pub fn start(cases: &[CaseStudy], seed: u64) -> Result<ServeRig, String> {
        let io = |e: std::io::Error| format!("serve set-up: {e}");
        let rig = Rig::start().map_err(io)?;
        let mut client = Client::connect(rig.addr).map_err(io)?;
        for case in cases {
            let body = render_run(&program_spec(case), &gen(case, case.test_size, seed));
            if !is_ok(&client.call(&body).map_err(io)?) {
                return Err(format!("serve set-up: warming {} failed", case.name));
            }
        }
        Ok(ServeRig {
            client,
            _daemon: rig,
        })
    }

    pub fn stats(&mut self) -> Result<ServerStats, String> {
        ServerStats::sample(&mut self.client).map_err(|e| format!("stats: {e}"))
    }

    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }
}

pub fn gen(case: &CaseStudy, size: usize, seed: u64) -> InputSpec {
    InputSpec::Gen {
        workload: case.name.to_string(),
        size,
        seed,
    }
}

struct ServeInput {
    seed: u64,
    digest: u64,
    body: String,
    /// [`report_digest`] of the in-process fused report on this input;
    /// `None` when that report itself disagreed with the oracle.
    expected: Option<u64>,
}

/// The fused VM engine's in-process report digest for an input, once its
/// full output has been checked against the oracle.
pub fn expected_report(
    engine: &Engine,
    case: &CaseStudy,
    size: usize,
    seed: u64,
    digest: u64,
) -> Option<u64> {
    let mut session = engine.session();
    let root = session.build_tree(|h| (case.build)(h, size, seed));
    let report = session.run(root).ok()?;
    if output_digest(&session.snapshot(root), &report.globals) != digest {
        return None;
    }
    report_digest(&grafter_obs::json::parse(&report.to_json()).ok()?)
}

fn serve_pools(
    cases: &[CaseStudy],
    seeds: &[Vec<u64>],
    digests: &[Vec<u64>],
) -> Result<Vec<Vec<ServeInput>>, String> {
    cases
        .iter()
        .zip(seeds.iter().zip(digests))
        .map(|(case, (seeds, digests))| {
            let engine = build_engine(case)?;
            let spec = program_spec(case);
            Ok(seeds
                .iter()
                .zip(digests)
                .map(|(&seed, &digest)| ServeInput {
                    seed,
                    digest,
                    body: render_run(&spec, &gen(case, case.test_size, seed)),
                    expected: expected_report(&engine, case, case.test_size, seed, digest),
                })
                .collect())
        })
        .collect()
}

struct ServeBench<'c> {
    rig: ServeRig,
    cases: &'c [CaseStudy],
    pools: Vec<Vec<ServeInput>>,
}

impl Bench for ServeBench<'_> {
    fn layer_inputs(&self) -> Vec<LayerInput> {
        self.cases
            .iter()
            .zip(&self.pools)
            .map(|(case, pool)| LayerInput {
                size: case.test_size,
                seed: pool[0].seed,
                digest: pool[0].digest,
            })
            .collect()
    }

    fn measure(
        &mut self,
        seconds: f64,
        seed: u64,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Phase, String> {
        let before = self.rig.stats()?;
        let (pools, cases, client) = (&self.pools, self.cases, &mut self.rig.client);
        let mut plan = Plan::new(seed);
        let mut error_frames = 0;
        let walks = Workload::Serve.walks_per_request();
        let mut phase = closed_loop(seconds, walks, &mut plan, |i, p, k| {
            let input = &pools[p][k];
            let t = Instant::now();
            let response = match rec.as_deref_mut() {
                None => client.call(&input.body),
                Some(rec) => rec.span("request", cases[p].name, i, |_| client.call(&input.body)),
            };
            let dt = t.elapsed();
            let ok = response.is_ok_and(|body| {
                error_frames += u64::from(!is_ok(&body));
                input.expected.is_some_and(|e| response_matches(&body, e))
            });
            (dt, ok)
        });
        phase.error_frames = error_frames;
        let delta = before.delta(&self.rig.stats()?);
        // Every request of the measured phase must hit the warmed cache:
        // a lowering, miss or pool spawn is a request that failed that.
        phase.tally.failed += delta.lowerings + delta.misses + delta.spawned;
        phase.server = Some(delta);
        Ok(phase)
    }
}
