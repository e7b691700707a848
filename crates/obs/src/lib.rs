//! Observability for the Grafter execution stack: a probe layer that is
//! *monomorphized away* when disabled.
//!
//! Two layers, deliberately separate:
//!
//! - **Hot-loop hooks** — [`ExecProbe`] is the compile-time switch the
//!   execution tiers are generic over. [`NoProbe`] (the default) has
//!   `ENABLED = false` and empty inline methods, so every hook guarded by
//!   `if P::ENABLED { .. }` constant-folds to nothing: the uninstrumented
//!   dispatch loop is *bit-identical machine code* to a build without the
//!   probe layer. [`ExecCounters`] is the recording implementation
//!   (dense per-site counters, one add per hook).
//! - **Sinks** — [`Probe`] is the user-facing trait wired through
//!   `Engine::builder().probe(..)`. Every method has a no-op default;
//!   [`TraceProbe`] is the everything-recorder behind `grafterc
//!   --profile`, collecting a [`CompileTrace`], per-run [`RunTrace`]s and
//!   per-batch [`BatchTrace`]s, and exporting them as Chrome trace-event
//!   JSON ([`TraceProbe::chrome_trace`], loadable in Perfetto /
//!   `chrome://tracing`) or a ranked text summary
//!   ([`TraceProbe::summary`]).
//!
//! The crate is a leaf: `std` only, so every layer of the stack (vm,
//! runtime, engine, tools) can depend on it without cycles. JSON is
//! hand-rolled both ways in the shared [`json`] module — a
//! [`json::JsonWriter`] and a [`json::parse`] — because the build
//! environment vendors no serde; the trace exporter ([`chrome`]),
//! `grafterc --json`, and the `grafter-server` wire protocol all speak
//! JSON through it.

pub mod chrome;
pub mod json;

use std::sync::Mutex;
use std::time::Duration;

// ---- hot-loop hooks ------------------------------------------------------

/// Compile-time execution hooks the VM dispatch loop is generic over.
///
/// `ENABLED` is an associated `const`: tiers guard every call with
/// `if P::ENABLED { probe.exec_op(pc) }`, which the compiler folds away
/// entirely for [`NoProbe`]. The recording implementation pays one
/// bounds-checked increment per hook.
pub trait ExecProbe {
    /// Whether this probe records anything (hooks are compiled out when
    /// `false`).
    const ENABLED: bool;

    /// One function activation is starting.
    #[inline(always)]
    fn enter_func(&mut self, _fidx: usize) {}

    /// The op at `pc` is about to execute.
    #[inline(always)]
    fn exec_op(&mut self, _pc: usize) {}
}

/// The disabled probe: zero-sized, `ENABLED = false`, every hook a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl ExecProbe for NoProbe {
    const ENABLED: bool = false;
}

/// Dense per-site counters for a probed VM run: one slot per lowered
/// function and one per bytecode pc. Aggregated into named
/// [`TierProfile`] rows by the module that owns the site tables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Activations per lowered function index.
    pub func_hits: Vec<u64>,
    /// Executions per bytecode pc.
    pub op_hits: Vec<u64>,
}

impl ExecCounters {
    /// Zeroed counters sized for a module with `n_funcs` functions and
    /// `n_ops` instructions.
    pub fn new(n_funcs: usize, n_ops: usize) -> Self {
        ExecCounters {
            func_hits: vec![0; n_funcs],
            op_hits: vec![0; n_ops],
        }
    }
}

impl ExecProbe for ExecCounters {
    const ENABLED: bool = true;

    #[inline(always)]
    fn enter_func(&mut self, fidx: usize) {
        self.func_hits[fidx] += 1;
    }

    #[inline(always)]
    fn exec_op(&mut self, pc: usize) {
        self.op_hits[pc] += 1;
    }
}

// ---- trace model ---------------------------------------------------------

/// One timed compile stage: name, offset from the start of the build, and
/// a few `key=value` size/delta annotations (op counts, rewrites, ...).
#[derive(Clone, Debug)]
pub struct Span {
    /// Stage name (`parse`, `sema`, `fusion`, its stages `fusion/summaries`,
    /// `fusion/conflicts`, `fusion/group`, `fusion/explain` and
    /// `fusion/emit`, then `lower`, `opt/peephole`, `opt/regs`).
    pub name: String,
    /// Offset of the stage start from the beginning of the build.
    pub start: Duration,
    /// Wall time the stage took.
    pub dur: Duration,
    /// Size deltas and other per-stage annotations.
    pub meta: Vec<(String, String)>,
}

/// Every compile-side stage of one `Engine` build, in execution order:
/// frontend (when the engine was built from source), fusion and its
/// stages, bytecode lowering and each optimizer pass.
#[derive(Clone, Debug, Default)]
pub struct CompileTrace {
    /// The stages, in execution order.
    pub spans: Vec<Span>,
    /// Wall time of the whole build.
    pub total: Duration,
}

impl CompileTrace {
    /// The span named `name`, if that stage ran.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Stage names in execution order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.spans.iter().map(|s| s.name.as_str()).collect()
    }
}

/// One named, aggregated profile row: per-opcode fire counts.
#[derive(Clone, Debug)]
pub struct OpFire {
    /// Disassembly mnemonic (`navcall`, `bin.c`, ...).
    pub name: String,
    /// How many times an op with this mnemonic executed.
    pub fires: u64,
    /// Whether the op is an optimizer-introduced superinstruction.
    pub superinstruction: bool,
}

/// The aggregated, named profile of one probed run on one tier. Which
/// rows are populated depends on the tier: the interpreter records class
/// visits, the VM records function hits, basic-block hits and the opcode
/// histogram.
#[derive(Clone, Debug, Default)]
pub struct TierProfile {
    /// Activations per function, named.
    pub func_hits: Vec<(String, u64)>,
    /// Entries per basic block (`fn/bN`), named.
    pub block_hits: Vec<(String, u64)>,
    /// Per-opcode (and per-superinstruction) fire histogram.
    pub op_fires: Vec<OpFire>,
    /// The same fires totalled by what they pay for (fusion bookkeeping,
    /// call/return, body work), in that order.
    pub op_kinds: Vec<(String, u64)>,
    /// Interpreter visits per dynamic receiver class.
    pub class_visits: Vec<(String, u64)>,
}

impl TierProfile {
    /// Whether the profile recorded anything at all.
    pub fn is_empty(&self) -> bool {
        self.func_hits.is_empty()
            && self.block_hits.is_empty()
            && self.op_fires.is_empty()
            && self.class_visits.is_empty()
    }
}

/// The runtime profile of one probed run, attached to the run's `Report`
/// and delivered to [`Probe::on_run`].
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// The tier that ran (`interp` or `vm`).
    pub tier: String,
    /// Wall time of the run.
    pub wall: Duration,
    /// The tier's aggregated counters.
    pub profile: TierProfile,
}

/// One batch worker's telemetry.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Inputs this worker processed.
    pub inputs: u64,
    /// Session resets this worker performed. A worker resets its one
    /// session before every input, so this equals `inputs`.
    pub resets: u64,
    /// Wall time spent building inputs and running them.
    pub busy: Duration,
    /// Wall time spent waiting (worker lifetime minus busy).
    pub idle: Duration,
}

/// Telemetry of one `run_batch` fan-out, delivered to
/// [`Probe::on_batch`].
#[derive(Clone, Debug)]
pub struct BatchTrace {
    /// Per-worker splits.
    pub workers: Vec<WorkerStats>,
    /// Wall time of the whole batch.
    pub wall: Duration,
}

// ---- sinks ---------------------------------------------------------------

/// The user-facing probe sink, wired through `Engine::builder().probe(..)`.
///
/// Every method has a no-op default implementation, so a probe can opt
/// into exactly the events it cares about; an engine with no probe
/// attached calls nothing and runs the fully uninstrumented paths.
pub trait Probe: Send + Sync {
    /// The engine finished building; every compile stage was timed.
    fn on_compile(&self, _trace: &CompileTrace) {}

    /// One probed run finished.
    fn on_run(&self, _trace: &RunTrace) {}

    /// One `run_batch` fan-out finished.
    fn on_batch(&self, _trace: &BatchTrace) {}
}

#[derive(Default)]
struct TraceStore {
    compile: Option<CompileTrace>,
    runs: Vec<RunTrace>,
    batches: Vec<BatchTrace>,
}

/// The everything-recorder: stores every compile/run/batch trace it is
/// handed (interior mutability, so one `Arc<TraceProbe>` serves engine
/// build and any number of concurrent sessions) and renders them as a
/// Chrome trace or a ranked text summary.
#[derive(Default)]
pub struct TraceProbe {
    store: Mutex<TraceStore>,
}

impl TraceProbe {
    /// An empty recorder.
    pub fn new() -> Self {
        TraceProbe::default()
    }

    /// The recorded compile trace, if a build completed.
    pub fn compile(&self) -> Option<CompileTrace> {
        self.store.lock().unwrap().compile.clone()
    }

    /// All recorded run traces, in completion order.
    pub fn runs(&self) -> Vec<RunTrace> {
        self.store.lock().unwrap().runs.clone()
    }

    /// All recorded batch traces, in completion order.
    pub fn batches(&self) -> Vec<BatchTrace> {
        self.store.lock().unwrap().batches.clone()
    }

    /// Renders everything recorded so far as Chrome trace-event JSON
    /// (open in Perfetto or `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        let store = self.store.lock().unwrap();
        chrome::render(store.compile.as_ref(), &store.runs, &store.batches)
    }

    /// Renders everything recorded so far as a ranked text summary.
    pub fn summary(&self) -> String {
        let store = self.store.lock().unwrap();
        chrome::summary(store.compile.as_ref(), &store.runs, &store.batches)
    }
}

impl Probe for TraceProbe {
    fn on_compile(&self, trace: &CompileTrace) {
        self.store.lock().unwrap().compile = Some(trace.clone());
    }

    fn on_run(&self, trace: &RunTrace) {
        self.store.lock().unwrap().runs.push(trace.clone());
    }

    fn on_batch(&self, trace: &BatchTrace) {
        self.store.lock().unwrap().batches.push(trace.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
        const _: () = assert!(!NoProbe::ENABLED);
        const _: () = assert!(ExecCounters::ENABLED);
    }

    #[test]
    fn counters_record_hits() {
        let mut c = ExecCounters::new(2, 4);
        c.enter_func(1);
        c.exec_op(3);
        c.exec_op(3);
        assert_eq!(c.func_hits, vec![0, 1]);
        assert_eq!(c.op_hits, vec![0, 0, 0, 2]);
    }

    #[test]
    fn trace_probe_is_send_sync_and_records() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceProbe>();

        let probe = TraceProbe::new();
        probe.on_compile(&CompileTrace {
            spans: vec![Span {
                name: "parse".into(),
                start: Duration::ZERO,
                dur: Duration::from_micros(5),
                meta: Vec::new(),
            }],
            total: Duration::from_micros(5),
        });
        probe.on_run(&RunTrace {
            tier: "vm".into(),
            wall: Duration::from_micros(9),
            profile: TierProfile::default(),
        });
        assert_eq!(probe.compile().unwrap().stage_names(), vec!["parse"]);
        assert_eq!(probe.runs().len(), 1);
        assert!(probe.batches().is_empty());
    }
}
