//! The traced run's layer sweep. Per program it calls every layer the
//! three workloads cross — the stage-wise build, tree building, the fused
//! and the unfused run, request decoding and report encoding, and a daemon
//! round trip — on the workload's own input, so every workload's traced
//! run reports every layer. Run twice, it is also the determinism check:
//! its count metrics must repeat exactly.

use std::collections::BTreeMap;
use std::time::Instant;

use grafter_engine::FusionOptions;
use grafter_server::proto::{parse_request, render_run};
use grafter_workloads::CaseStudy;

use crate::oracle::{output_digest, response_matches, Tally};
use crate::serve::{is_ok, program_spec, ServerStats};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads::{
    build_engine, expected_report, gen, staged_build, vm_builder, LayerInput, ServeRig,
};

/// Rounds of tree building, runs, decode, encode and round trip per
/// program.
const ROUNDS: usize = 10;

/// What one sweep measured besides its spans.
#[derive(Debug, Default)]
pub struct Sweep {
    /// Count metrics by name. Deterministic: equal across sweeps.
    pub counts: BTreeMap<String, u64>,
    /// Metrics the sweep derives from its own timings on one input:
    /// `core.wall_ratio.{p}` and `server.overhead_ms.{p}`.
    pub derived: BTreeMap<String, f64>,
    /// Daemon counter deltas over the sweep's round trips.
    pub server: ServerStats,
    pub error_frames: u64,
    pub tally: Tally,
}

impl Sweep {
    /// Records a count, which every round must reproduce exactly.
    fn count(&mut self, name: String, value: u64) -> Result<(), String> {
        match self.counts.insert(name.clone(), value) {
            Some(old) if old != value => Err(format!(
                "count metric {name} changed between rounds: {old} then {value}"
            )),
            _ => Ok(()),
        }
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the sweep over `cases` on `inputs` (one per program), recording
/// spans with request ids from `first_id` on.
pub fn sweep(
    cases: &[CaseStudy],
    inputs: &[LayerInput],
    rec: &mut Recorder,
    first_id: u64,
) -> Result<Sweep, String> {
    let mut out = Sweep::default();
    let mut id = first_id;
    // Every build first: in-process lowerings count in the same
    // process-wide counter the daemon reports for the round trips below.
    let mut programs = Vec::with_capacity(cases.len());
    for (case, input) in cases.iter().zip(inputs) {
        let p = case.name;
        id += 1;
        let (fused, module) = rec
            .span("request", p, id, |rec| {
                staged_build(case, case.source.to_string(), rec, id)
            })
            .ok_or_else(|| format!("{p}: stage-wise build failed"))?;
        let f = fused.metrics();
        out.count(format!("core.functions.{p}"), f.functions as u64)?;
        out.count(format!("core.fused_pairs.{p}"), f.fused_pairs as u64)?;
        let candidates = f.fused_pairs + f.missed_pairs + f.blocked_pairs;
        out.count(format!("core.candidate_pairs.{p}"), candidates as u64)?;
        out.count(format!("vm.ops.{p}"), module.n_ops() as u64)?;
        let engine = build_engine(case)?;
        let unfused = vm_builder(case, case.source)
            .fusion(FusionOptions::unfused())
            .build()
            .map_err(|e| format!("{p}: unfused build failed: {e}"))?;
        let expected = expected_report(&engine, case, input.size, input.seed, input.digest);
        programs.push((engine, unfused, expected));
    }

    let mut rig = ServeRig::start(cases, 0)?;
    let before = rig.stats()?;
    for ((case, input), (engine, unfused, expected)) in cases.iter().zip(inputs).zip(&programs) {
        let p = case.name;
        let (size, seed) = (input.size, input.seed);
        let body = render_run(&program_spec(case), &gen(case, size, seed));
        let (mut overhead, mut fused_ms, mut unfused_ms) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            id += 1;
            rec.span("request", p, id, |rec| -> Result<(), String> {
                let mut session = engine.session();
                let t = Instant::now();
                let root = rec.span("runtime.tree_build", p, id, |_| {
                    session.build_tree(|h| (case.build)(h, size, seed))
                });
                let build_ms = ms(t);
                out.count(
                    format!("runtime.input_nodes.{p}"),
                    session.heap().live_count() as u64,
                )?;
                out.count(
                    format!("runtime.input_bytes.{p}"),
                    session.heap().live_bytes(),
                )?;
                let t = Instant::now();
                let report = rec.span("vm.run", p, id, |_| session.run(root));
                let run_ms = ms(t);
                fused_ms.push(run_ms);
                let report = report.map_err(|e| format!("{p}: fused run failed: {e}"))?;
                out.tally.record(
                    output_digest(&session.snapshot(root), &report.globals) == input.digest,
                );
                let m = &report.metrics;
                out.count(format!("vm.visits.{p}"), m.visits)?;
                out.count(format!("vm.instructions.{p}"), m.instructions)?;
                out.count(format!("vm.loads.{p}"), m.loads)?;
                out.count(format!("vm.stores.{p}"), m.stores)?;

                let mut base = unfused.session();
                let base_root = base.build_tree(|h| (case.build)(h, size, seed));
                let t = Instant::now();
                let base_report = rec.span("core.unfused_run", p, id, |_| base.run(base_root));
                unfused_ms.push(ms(t));
                let base_report =
                    base_report.map_err(|e| format!("{p}: unfused run failed: {e}"))?;
                out.count(
                    format!("core.unfused_visits.{p}"),
                    base_report.metrics.visits,
                )?;

                let t = Instant::now();
                let decoded = rec.span("server.decode", p, id, |_| parse_request(&body));
                let decode_ms = ms(t);
                out.tally.record(decoded.is_ok());
                let t = Instant::now();
                std::hint::black_box(rec.span("server.encode", p, id, |_| report.to_json()));
                let encode_ms = ms(t);

                // The same input over the wire: what the round trip costs
                // beyond these in-process stages is framing, queueing and
                // the cache lookup.
                let t = Instant::now();
                let response = rec.span("server.round_trip", p, id, |_| rig.client().call(&body));
                overhead.push(ms(t) - (decode_ms + build_ms + run_ms + encode_ms));
                let ok = response.is_ok_and(|body| {
                    out.error_frames += u64::from(!is_ok(&body));
                    expected.is_some_and(|e| response_matches(&body, e))
                });
                out.tally.record(ok);
                Ok(())
            })?;
        }
        let ratio = median(&fused_ms).unwrap_or(0.0) / median(&unfused_ms).unwrap_or(f64::NAN);
        out.derived.insert(format!("core.wall_ratio.{p}"), ratio);
        out.derived.insert(
            format!("server.overhead_ms.{p}"),
            median(&overhead).unwrap_or(0.0),
        );
    }
    out.server = before.delta(&rig.stats()?);
    out.count("server.lowerings".to_string(), out.server.lowerings)?;
    Ok(out)
}
