//! The unified result of one engine run.

use std::fmt;
use std::time::Duration;

use grafter::FusionMetrics;
use grafter_cachesim::HierarchyStats;
use grafter_obs::json::JsonWriter;
use grafter_runtime::{Metrics, Value};
use grafter_vm::{Backend, OptLevel};

/// Everything one run produced, in one struct.
///
/// Earlier API generations scattered this across four places:
/// compile-side [`FusionMetrics`] on the artifact, runtime [`Metrics`]
/// from the interpreter, cache statistics on the optional hierarchy, and
/// wall-clock measured by each caller. A `Report` carries all of them.
///
/// # Equality
///
/// `PartialEq` compares the *deterministic outcome* — backend, fusion
/// metrics, runtime counters and simulated cache traffic — and ignores
/// [`Report::wall`], which varies run to run, and [`Report::opt_level`],
/// which by the optimizer's bit-identity contract cannot change the
/// outcome (the differential suites assert exactly this by comparing
/// `O0`/`O2` reports). Two runs of the same program on identical
/// trees compare equal even across threads; this is what the concurrency
/// test suite asserts.
#[derive(Clone, Debug)]
pub struct Report {
    /// The execution tier that ran.
    pub backend: Backend,
    /// Bytecode optimization level of the engine's module (excluded from
    /// equality; meaningful on [`Backend::Vm`]).
    pub opt_level: OptLevel,
    /// Compile-side fusion statistics of the engine's program.
    pub fusion: FusionMetrics,
    /// The run's performance counters (visits, instructions, loads,
    /// stores).
    pub metrics: Metrics,
    /// Simulated cache traffic, when the engine/session attached a cache
    /// model.
    pub cache: Option<HierarchyStats>,
    /// Final values of the program's global variables after the run, one
    /// per global frame slot in declaration order (a struct global's
    /// members under dotted names, `P.x` then `P.y`) — how global
    /// accumulators (e.g. the kd-tree workload's `INTEGRAL`) surface
    /// without access to the executor.
    pub globals: Vec<(String, Value)>,
    /// Wall-clock time of the execution (excluded from equality).
    pub wall: Duration,
    /// Runtime profile of the run — `Some` exactly when the engine has a
    /// probe attached (excluded from equality: profiles describe *how*
    /// the run executed, not its deterministic outcome; the parity suite
    /// asserts probed and unprobed reports compare equal).
    pub trace: Option<Box<grafter_obs::RunTrace>>,
}

impl Report {
    /// Modelled runtime in cycles: instructions plus memory stalls when a
    /// cache was attached, bare instructions otherwise.
    pub fn cycles(&self) -> u64 {
        match &self.cache {
            Some(stats) => self.metrics.cycles(stats),
            None => self.metrics.instructions,
        }
    }

    /// The final value of global variable `name` after the run.
    pub fn global(&self, name: &str) -> Option<Value> {
        self.globals
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the report as one JSON object (what `grafterc --run
    /// --json` prints and what the `grafter-server` protocol streams).
    /// Built on the shared [`grafter_obs::json::JsonWriter`] with stable
    /// keys; durations are nanoseconds, and the `trace` key is non-null
    /// exactly when the run was probed.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(512);
        w.begin_obj();
        w.key("backend").str(&self.backend.to_string());
        w.key("opt_level").str(&self.opt_level.to_string());
        let f = &self.fusion;
        w.key("fusion").begin_obj();
        w.key("functions").num(f.functions);
        w.key("stubs").num(f.stubs);
        w.key("passes").num(f.passes);
        w.key("fully_fused").bool(f.fully_fused);
        w.key("fused_pairs").num(f.fused_pairs);
        w.key("missed_pairs").num(f.missed_pairs);
        w.key("blocked_pairs").num(f.blocked_pairs);
        w.end_obj();
        let m = &self.metrics;
        w.key("metrics").begin_obj();
        w.key("visits").num(m.visits);
        w.key("instructions").num(m.instructions);
        w.key("loads").num(m.loads);
        w.key("stores").num(m.stores);
        w.end_obj();
        w.key("cycles").num(self.cycles());
        match &self.cache {
            None => w.key("cache").null(),
            Some(c) => {
                w.key("cache").begin_obj();
                w.key("accesses").num(c.accesses);
                w.key("cycles").num(c.cycles);
                w.key("levels").begin_arr();
                for l in &c.levels {
                    w.begin_obj();
                    w.key("hits").num(l.hits);
                    w.key("misses").num(l.misses);
                    w.end_obj();
                }
                w.end_arr();
                w.end_obj()
            }
        };
        w.key("globals").begin_arr();
        for (name, value) in &self.globals {
            w.begin_obj();
            w.key("name").str(name);
            w.key("value");
            write_value(&mut w, value);
            w.end_obj();
        }
        w.end_arr();
        w.key("wall_ns").num(self.wall.as_nanos());
        match &self.trace {
            None => w.key("trace").null(),
            Some(t) => {
                w.key("trace").begin_obj();
                w.key("tier").str(&t.tier);
                w.key("wall_ns").num(t.wall.as_nanos());
                let named = |w: &mut JsonWriter, key: &str, rows: &[(String, u64)]| {
                    w.key(key).begin_arr();
                    for (name, n) in rows {
                        w.begin_obj();
                        w.key("name").str(name);
                        w.key("count").num(*n);
                        w.end_obj();
                    }
                    w.end_arr();
                };
                named(&mut w, "func_hits", &t.profile.func_hits);
                named(&mut w, "block_hits", &t.profile.block_hits);
                named(&mut w, "class_visits", &t.profile.class_visits);
                w.key("op_fires").begin_arr();
                for op in &t.profile.op_fires {
                    w.begin_obj();
                    w.key("name").str(&op.name);
                    w.key("fires").num(op.fires);
                    w.key("superinstruction").bool(op.superinstruction);
                    w.end_obj();
                }
                w.end_arr();
                w.end_obj()
            }
        };
        w.end_obj();
        w.finish()
    }
}

/// Writes a [`Value`] as a JSON literal (node refs become their id, null
/// refs `null`; non-finite floats fall back to a quoted string to keep
/// the document parseable).
fn write_value(w: &mut JsonWriter, v: &Value) {
    match v {
        Value::Int(i) => w.num(*i),
        Value::Float(x) => w.float(*x),
        Value::Bool(b) => w.bool(*b),
        Value::Ref(None) => w.null(),
        Value::Ref(Some(n)) => w.num(n.0),
    };
}

impl PartialEq for Report {
    /// Deterministic-outcome equality; see the type docs. `wall` and
    /// `opt_level` are intentionally ignored.
    fn eq(&self, other: &Self) -> bool {
        self.backend == other.backend
            && self.fusion == other.fusion
            && self.metrics == other.metrics
            && self.cache == other.cache
            && self.globals == other.globals
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.backend == Backend::Interp {
            write!(f, "[{}]", self.backend)?;
        } else {
            // The VM tier names the bytecode level its module was
            // optimized at.
            write!(f, "[{} {}]", self.backend, self.opt_level)?;
        }
        write!(
            f,
            " {} visit(s), {} instruction(s), {} load(s), {} store(s)",
            self.metrics.visits, self.metrics.instructions, self.metrics.loads, self.metrics.stores
        )?;
        if let Some(cache) = &self.cache {
            write!(f, ", {} cache access(es)", cache.accesses)?;
        }
        write!(f, ", {} cycle(s), {:?} wall", self.cycles(), self.wall)
    }
}
