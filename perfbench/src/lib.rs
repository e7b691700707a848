//! The repository benchmark: end-to-end latency of the Grafter engine on
//! three workloads (`compile`, `run`, `serve`) over the paper's four case
//! studies, every output checked against the unfused interpreter, and a
//! separate traced run that breaks the time down by layer.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! the layer each metric should move.

pub mod calib;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use grafter_workloads::{case_studies, CaseStudy};

use crate::calib::{REFERENCE_MS, WINDOW_S};
use crate::metrics::PROGRAMS;
use crate::oracle::{Oracle, Tally};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workloads::{prepare, Bench, Phase, Workload, SETUP_REPEATS};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Seconds of requests before any measured phase, so that allocator
/// arenas and caches reach their steady state first (the first seconds of
/// a phase otherwise run up to a third slower).
pub const WARMUP_S: f64 = 3.0;

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The layer (per-layer metrics) or sample count (latencies).
    pub note: String,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Successful requests per program in the measured phase(s).
    pub samples: [usize; 4],
    /// Lines of context printed before the result (trace file, ratios).
    pub notes: Vec<String>,
}

fn sum_of_medians(phase: &Phase) -> f64 {
    phase.latencies().iter().filter_map(|l| median(l)).sum()
}

/// Runs one workload for the configured time and returns its metrics.
///
/// # Errors
///
/// Set-up failures, a determinism violation in the traced run and an
/// unreadable span file are errors; wrong outputs are counted in the
/// outcome's tally instead.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let cases = case_studies();
    let names: Vec<&str> = cases.iter().map(|c| c.name).collect();
    if names != PROGRAMS {
        return Err(format!("case studies changed: {names:?}"));
    }
    let oracles: Vec<Oracle> = cases.iter().map(Oracle::new).collect();
    let (mut bench, setup_s) = prepare(cfg.workload, &cases, &oracles, cfg.seed)?;
    // Requests before any measured phase, checked but not timed.
    let warmup = bench.measure(WARMUP_S, cfg.seed.wrapping_add(1), None)?;
    if cfg.trace {
        traced_run(cfg, &cases, bench.as_mut(), warmup.tally)
    } else {
        timed_run(cfg, bench.as_mut(), setup_s, warmup.tally)
    }
}

/// The untraced run: every end-to-end metric.
fn timed_run(
    cfg: &Config,
    bench: &mut dyn Bench,
    setup_s: f64,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let phase = bench.measure(cfg.seconds, cfg.seed, None)?;
    tally.absorb(phase.tally);
    let scaled = phase.scaled();
    let mut metrics = vec![Metric {
        name: "setup_s".to_string(),
        value: setup_s,
        unit: "s",
        note: format!("median of {SETUP_REPEATS} set-ups, scaled"),
    }];
    // Measured (unscaled) percentiles over every window are printed as
    // notes. They are not bounded metrics: on a host whose speed switches
    // between two levels, they move with the share of slow seconds.
    let mut notes = vec![format!(
        "latencies scaled to the reference walk ({REFERENCE_MS} ms) over the quieter {} of {} windows of {WINDOW_S} s, whose median walk took {:.4} ms",
        scaled.quiet, scaled.windows, scaled.walk_ms
    )];
    let measured = phase.latencies();
    for (p, (lat, raw)) in PROGRAMS.iter().zip(scaled.latencies.iter().zip(&measured)) {
        let none = || format!("no successful {p} request in a quiet window");
        metrics.push(Metric {
            name: format!("{p}_ms_p50"),
            value: median(lat).ok_or_else(none)?,
            unit: "ms",
            note: format!("n={} scaled", lat.len()),
        });
        let at = |pct| percentile(raw, pct).ok_or_else(none);
        notes.push(format!(
            "{p} measured p50 {:.4} ms, p90 {:.4} ms, n={} (unscaled, unbounded)",
            at(50.0)?,
            at(90.0)?,
            raw.len()
        ));
    }
    let counted: usize = scaled.latencies.iter().map(Vec::len).sum();
    metrics.push(Metric {
        name: "requests_per_s".to_string(),
        value: scaled.requests_per_s,
        unit: "1/s",
        note: format!("{counted} of {} requests, scaled", phase.tally.attempted),
    });
    metrics.push(Metric {
        name: "peak_rss_mb".to_string(),
        value: host::peak_rss_mb().ok_or("VmHWM unavailable")?,
        unit: "MB",
        note: "VmHWM".to_string(),
    });
    let error_rate = phase.tally.failed as f64 / phase.tally.attempted.max(1) as f64;
    notes.push(format!(
        "error_rate {error_rate} ({} failed of {} attempted)",
        phase.tally.failed, phase.tally.attempted
    ));
    Ok(Outcome {
        samples: scaled.latencies.each_ref().map(Vec::len),
        tally,
        metrics,
        notes,
    })
}

/// The traced run: half the time untraced, half traced on the same request
/// order, then two layer sweeps; every per-layer metric.
fn traced_run(
    cfg: &Config,
    cases: &[CaseStudy],
    bench: &mut dyn Bench,
    mut tally: Tally,
) -> Result<Outcome, String> {
    let half = cfg.seconds / 2.0;
    let untraced = bench.measure(half, cfg.seed, None)?;
    let mut rec = Recorder::new(Instant::now());
    let traced = bench.measure(half, cfg.seed, Some(&mut rec))?;
    let overhead_pct = 100.0 * (sum_of_medians(&traced) / sum_of_medians(&untraced) - 1.0);
    let inputs = bench.layer_inputs();
    let first = layers::sweep(cases, &inputs, &mut rec, 1 << 40)?;
    let second = layers::sweep(cases, &inputs, &mut rec, 1 << 41)?;
    if first.counts != second.counts {
        let diff: Vec<String> = first
            .counts
            .iter()
            .filter(|(k, v)| second.counts.get(*k) != Some(v))
            .map(|(k, v)| format!("{k}: {v} vs {:?}", second.counts.get(k)))
            .collect();
        return Err(format!(
            "count metrics differ across two sweeps with the same seed: {}",
            diff.join(", ")
        ));
    }

    let trace_path = cfg.out_dir.join(format!(
        "trace-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    std::fs::write(&trace_path, rec.chrome())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let written = std::fs::read_to_string(&trace_path).map_err(|e| e.to_string())?;
    let events = grafter_obs::json::parse(&written)
        .and_then(|doc| grafter_obs::json::validate_chrome_trace(&doc))
        .map_err(|e| {
            format!(
                "span file {} does not read back: {}",
                trace_path.display(),
                e.msg
            )
        })?;

    // The workload's own daemon counters when it has a daemon, else the
    // sweep's.
    let (server, error_frames) = match traced.server {
        Some(s) => (s, traced.error_frames),
        None => (first.server, first.error_frames),
    };
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, v) in &first.counts {
        values.insert(name.clone(), *v as f64);
    }
    values.extend(first.derived.clone());
    for p in PROGRAMS {
        for (family, span) in [
            ("frontend.parse_ms", "frontend.parse"),
            ("frontend.sema_ms", "frontend.sema"),
            ("core.fuse_ms", "core.fuse"),
            ("core.unfused_run_ms", "core.unfused_run"),
            ("vm.lower_ms", "vm.lower"),
            ("vm.run_ms", "vm.run"),
            ("runtime.tree_build_ms", "runtime.tree_build"),
            ("server.decode_ms", "server.decode"),
            ("server.encode_ms", "server.encode"),
            ("server.round_trip_ms", "server.round_trip"),
        ] {
            let v =
                median(&rec.self_ms(span, p)).ok_or_else(|| format!("no {span} span for {p}"))?;
            values.insert(format!("{family}.{p}"), v);
        }
        let visits =
            values[&format!("vm.visits.{p}")] / values[&format!("core.unfused_visits.{p}")];
        values.insert(format!("core.visits_ratio.{p}"), visits);
    }
    let lookups = server.hits + server.misses;
    values.insert("server.cache_lookups".to_string(), lookups as f64);
    values.insert(
        "server.cache_hit_ratio".to_string(),
        server.hits as f64 / lookups.max(1) as f64,
    );
    values.insert("server.error_frames".to_string(), error_frames as f64);
    values.insert("engine.pool_spawned".to_string(), server.spawned as f64);
    values.insert("trace.overhead_pct".to_string(), overhead_pct);

    let mut metrics = Vec::new();
    for (name, unit, layer) in metrics::per_layer() {
        let value = *values
            .get(&name)
            .ok_or_else(|| format!("metric {name} not measured"))?;
        metrics.push(Metric {
            name,
            value,
            unit,
            note: layer.to_string(),
        });
    }
    for t in [untraced.tally, traced.tally, first.tally, second.tally] {
        tally.absorb(t);
    }
    let (untraced_n, traced_n) = (untraced.latencies(), traced.latencies());
    let samples = std::array::from_fn(|p| untraced_n[p].len() + traced_n[p].len());
    Ok(Outcome {
        metrics,
        tally,
        samples,
        notes: vec![
            format!("span file {} ({events} events)", trace_path.display()),
            "ratios: core.visits_ratio base core.unfused_visits; core.wall_ratio base core.unfused_run_ms; \
             server.cache_hit_ratio base server.cache_lookups; core.fused_pairs base core.candidate_pairs"
                .to_string(),
            format!("trace.overhead_pct compares {} untraced with {} traced requests", untraced.tally.attempted, traced.tally.attempted),
        ],
    })
}
