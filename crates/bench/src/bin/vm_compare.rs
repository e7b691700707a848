//! Interp-vs-VM wall-clock comparison over the four case-study
//! workloads, fused and unfused, plus per-opt-level fused VM medians
//! (`O0` vs `O2`) and batch throughput of the fused VM engine at 1, 4
//! and 8 worker threads — recorded to `BENCH_vm.json` together with
//! per-stage compile wall times (parse/sema/fusion/lower/opt passes)
//! from each workload's engine build.
//!
//! Every configuration (backend × fusion × opt level) is one immutable
//! `grafter_engine::Engine`, built once — compile, fusion, bytecode
//! lowering and optimization are outside every measured region. For the
//! latency table the input tree is built once; every configuration runs
//! `--samples` times (default 5, plus one warmup round) on cloned heaps,
//! the configurations taking turns run by run so that a slow spell of
//! the host cannot skew the ratios between them, and reports the median
//! wall time. All configurations' `visits` are
//! cross-checked — a mismatch is a hard error, so the JSON can only ever
//! record a like-for-like comparison. The throughput section fans
//! `--batch-trees` identical trees (default 16) through
//! `Engine::run_batch` per worker count.
//!
//! ```text
//! cargo run --release --bin vm_compare [--samples N] [--batch-trees N] [--out PATH]
//! cargo run --release --bin vm_compare -- --samples 3 --check [--baseline PATH]
//! ```
//!
//! Every workload also gets one probed run per fusion mode, whose op
//! fires are printed split by what they pay for: fusion bookkeeping
//! (guards, inactive-part skips), call/return, and body work.
//!
//! `--check` is the CI perf-regression gate: instead of writing a new
//! JSON it measures the fused and unfused VM `O2` medians in the same run
//! and the fused-VM batch throughput at every recorded worker count, and
//! fails with exit code 1 when any workload regresses more than 25%
//! against the committed baseline (`--baseline`, default
//! `BENCH_vm.json`): its fused median, its fused/unfused ratio (against
//! the baseline's `fused.vm_ns / unfused.vm_ns`, a figure host speed
//! cancels out of) or a batch trees/sec figure. Before measuring
//! anything, the baseline itself is
//! strictly validated against the current case studies: a workload
//! missing from the baseline, a stale baseline workload the code no
//! longer has, an absent median key, or a missing/degenerate `batch`
//! array (wrong worker sweep, zero trees, non-finite trees/sec) is a
//! hard error rather than a silently skipped comparison (the
//! `grafter_bench::baseline` unit tests pin that contract). The
//! tolerance absorbs shared-runner noise at `--samples 3` while still
//! catching real regressions; `--inject-slowdown F` multiplies the
//! measured fused medians by `F` to prove the gate trips (used to
//! validate the CI job — an injected 2× slowdown must fail).

use std::fmt::Write as _;
use std::time::Instant;

use grafter::FusionOptions;
use grafter_bench::{arg_value, baseline};
use grafter_engine::{Backend, Engine, OptLevel};
use grafter_obs::ExecCounters;
use grafter_runtime::{with_stack, Heap, PureRegistry, RUN_STACK};
use grafter_vm::{OpKind, Vm};
use grafter_workloads::harness::{batch_throughput, Throughput};
use grafter_workloads::{case_studies, CaseStudy};

/// Worker-thread counts swept by the throughput experiment.
const BATCH_WORKERS: [usize; 3] = [1, 4, 8];

/// Allowed fused-median regression before `--check` fails (25%).
const CHECK_TOLERANCE: f64 = 1.25;

/// Median keys every baseline workload must record for `--check` to have
/// anything to gate against.
const REQUIRED_BASELINE_KEYS: &[&[&str]] = &[&["fused", "vm_ns"], &["unfused", "vm_ns"]];

struct Config {
    interp_ns: u128,
    vm_ns: u128,
    /// Fused-only: per-opt-level VM medians (`O0`, `O2`).
    opt_ns: Option<(u128, u128)>,
    visits: u64,
    /// VM op fires of one probed run, per kind (bookkeeping, call/return,
    /// body).
    op_kinds: Vec<(String, u64)>,
}

impl Config {
    fn speedup(&self) -> f64 {
        if self.vm_ns == 0 {
            1.0
        } else {
            self.interp_ns as f64 / self.vm_ns as f64
        }
    }
}

struct WorkloadRow {
    name: &'static str,
    fused: Config,
    unfused: Config,
    batch: Vec<Throughput>,
    /// Per-stage compile wall times (`(stage, ns)`, build order) of one
    /// fused VM build from source, plus the build's total — every stage
    /// from parse to the last optimizer pass appears.
    compile: (Vec<(String, u128)>, u128),
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Median wall time of `samples` runs of each engine on cloned heaps,
/// with the visit count (identical across runs). The engines take turns
/// run by run, so a slow spell of the host hits all of them alike and
/// ratios between them hold.
fn time_runs(
    samples: usize,
    engines: &[&Engine],
    heap: &Heap,
    root: grafter_runtime::NodeId,
) -> Vec<(u128, u64)> {
    let mut visits = vec![0; engines.len()];
    let mut times = vec![Vec::with_capacity(samples); engines.len()];
    for i in 0..=samples {
        for (e, engine) in engines.iter().enumerate() {
            let mut session = engine.session_on(heap.clone());
            let start = Instant::now();
            let report = session.run(root).expect("run succeeds");
            let elapsed = start.elapsed().as_nanos();
            visits[e] = report.metrics.visits;
            if i > 0 {
                // Round 0 is warmup.
                times[e].push(elapsed);
            }
        }
    }
    times.into_iter().map(median).zip(visits).collect()
}

/// One probed run of `engine`'s bytecode module: its op fires per kind.
fn op_kinds(
    engine: &Engine,
    case: &CaseStudy,
    heap: &Heap,
    root: grafter_runtime::NodeId,
) -> Vec<(String, u64)> {
    let module = engine.module().expect("vm engine has a module");
    let mut heap = heap.clone();
    let mut vm = Vm::with_pures(module, PureRegistry::with_math());
    let mut counters = ExecCounters::new(module.n_functions(), module.n_ops());
    vm.run_probed(&mut heap, root, &case.args, &mut counters)
        .expect("run succeeds");
    module.profile(&counters).op_kinds
}

fn workload(samples: usize, batch_trees: usize, case: &CaseStudy) -> WorkloadRow {
    let fused_opts = FusionOptions::default();
    let mut heap = Heap::new(case.compiled.program());
    let root = case.build_bench(&mut heap);
    // Every latency configuration, timed in turns: fused interp, VM-O2
    // and VM-O0, then unfused interp and VM-O2.
    let engines = [
        case.engine_with(fused_opts.clone(), Backend::Interp),
        case.engine_with(fused_opts.clone(), Backend::Vm),
        case.engine_opt(fused_opts.clone(), OptLevel::O0),
        case.engine_with(FusionOptions::unfused(), Backend::Interp),
        case.engine_with(FusionOptions::unfused(), Backend::Vm),
    ];
    let t = time_runs(samples, &engines.iter().collect::<Vec<_>>(), &heap, root);
    assert!(
        t[0].1 == t[1].1 && t[3].1 == t[4].1,
        "backends disagree on visit counts"
    );
    assert_eq!(t[2].1, t[1].1, "opt levels disagree on visit counts");
    let fused = Config {
        interp_ns: t[0].0,
        vm_ns: t[1].0,
        opt_ns: Some((t[2].0, t[1].0)),
        visits: t[1].1,
        op_kinds: op_kinds(&engines[1], case, &heap, root),
    };
    let unfused = Config {
        interp_ns: t[3].0,
        vm_ns: t[4].0,
        opt_ns: None,
        visits: t[4].1,
        op_kinds: op_kinds(&engines[4], case, &heap, root),
    };

    // Throughput: one shared fused VM engine, a batch of identical trees,
    // swept over worker counts.
    let engine = case.engine_with(fused_opts, Backend::Vm);
    let batch = BATCH_WORKERS
        .iter()
        .map(|&workers| {
            batch_throughput(
                &engine,
                &|heap| case.build_bench(heap),
                batch_trees,
                workers,
            )
        })
        .collect();
    // Compile-side stage timings: rebuild the fused VM engine from
    // *source* (the case studies' engines reuse a pre-compiled frontend
    // artifact, which would hide the parse/sema stages).
    let traced = Engine::builder()
        .source(case.source)
        .entry(case.root_class, &case.passes)
        .backend(Backend::Vm)
        .build()
        .expect("case-study entry sequence resolves");
    let trace = traced.compile_trace();
    let compile = (
        trace
            .spans
            .iter()
            .map(|s| (s.name.clone(), s.dur.as_nanos()))
            .collect(),
        trace.total.as_nanos(),
    );
    WorkloadRow {
        name: case.name,
        fused,
        unfused,
        batch,
        compile,
    }
}

fn json_config(c: &Config) -> String {
    let opt = match c.opt_ns {
        Some((o0, o2)) => format!(r#", "opt": {{"O0": {o0}, "O2": {o2}}}"#),
        None => String::new(),
    };
    format!(
        r#"{{"interp_ns": {}, "vm_ns": {}, "speedup": {:.3}, "visits": {}{}}}"#,
        c.interp_ns,
        c.vm_ns,
        c.speedup(),
        c.visits,
        opt
    )
}

fn json_compile((stages, total): &(Vec<(String, u128)>, u128)) -> String {
    let items = stages
        .iter()
        .map(|(name, ns)| format!(r#""{name}": {ns}"#))
        .collect::<Vec<_>>()
        .join(", ");
    format!(r#"{{"total_ns": {total}, "stages": {{{items}}}}}"#)
}

fn json_batch(batch: &[Throughput]) -> String {
    let items = batch
        .iter()
        .map(|t| {
            format!(
                r#"{{"workers": {}, "trees": {}, "wall_ns": {}, "trees_per_sec": {:.3}}}"#,
                t.workers,
                t.trees,
                t.wall.as_nanos(),
                t.trees_per_sec()
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{items}]")
}

/// The `--check` gate: strictly validate the committed baseline, then
/// measure the fused VM `O2` median of every workload and compare each
/// against it. Returns the number of regressed workload/tier pairs.
///
/// Validation runs first and panics on any mismatch — a renamed
/// workload, a stale baseline row or a missing median key must fail the
/// gate, not silently shrink what it compares.
fn check(samples: usize, baseline_path: &str, slowdown: f64) -> usize {
    let json = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline `{baseline_path}`: {e}"));
    let cases = case_studies();
    let expected: Vec<&str> = cases.iter().map(|c| c.name).collect();
    if let Err(problems) = baseline::validate(&json, &expected, REQUIRED_BASELINE_KEYS) {
        panic!(
            "baseline `{baseline_path}` fails validation (regenerate it with `vm_compare`):\n  {}",
            problems.join("\n  ")
        );
    }
    if let Err(problems) = baseline::validate_batch(&json, &expected, &BATCH_WORKERS) {
        panic!(
            "baseline `{baseline_path}` has invalid batch arrays (regenerate it with `vm_compare`):\n  {}",
            problems.join("\n  ")
        );
    }
    let mut regressed = 0;
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>9}   (tolerance: +{:.0}%)",
        "workload",
        "tier",
        "baseline",
        "measured",
        "ratio",
        (CHECK_TOLERANCE - 1.0) * 100.0
    );
    let mut verdict = |ratio: f64| {
        if ratio > CHECK_TOLERANCE {
            regressed += 1;
            "REGRESSED"
        } else {
            "ok"
        }
    };
    for case in &cases {
        let mut heap = Heap::new(case.compiled.program());
        let root = case.build_bench(&mut heap);
        let engine = case.engine_with(FusionOptions::default(), Backend::Vm);
        let unfused = case.engine_with(FusionOptions::unfused(), Backend::Vm);
        let base = |side: &str| {
            baseline::median_u128(&json, case.name, &[side, "vm_ns"])
                .expect("validate() guaranteed the key is present")
        };
        let (base_ns, base_unfused_ns) = (base("fused"), base("unfused"));
        let t = time_runs(samples, &[&engine, &unfused], &heap, root);
        let (measured, measured_unfused) = ((t[0].0 as f64 * slowdown) as u128, t[1].0);
        let ratio = measured as f64 / base_ns as f64;
        println!(
            "{:<10} {:<12} {:>12}ns {:>12}ns {:>8.2}x   {}",
            case.name,
            "vm",
            base_ns,
            measured,
            ratio,
            verdict(ratio)
        );
        // Ratio gate: fused over unfused, timed in turns in this run,
        // against the same ratio in the baseline.
        let base_ratio = base_ns as f64 / base_unfused_ns as f64;
        let fused_ratio = measured as f64 / measured_unfused as f64;
        let ratio = fused_ratio / base_ratio;
        println!(
            "{:<10} {:<12} {:>13.3}x {:>13.3}x {:>8.2}x   {}",
            case.name,
            "vm/unfused",
            base_ratio,
            fused_ratio,
            ratio,
            verdict(ratio)
        );
        // Batch-throughput gate: each recorded worker count must sustain
        // its baseline trees/sec within the same tolerance. Throughput
        // regresses *downward*, so the ratio is baseline over measured.
        for entry in baseline::batch_entries(&json, case.name)
            .expect("validate_batch() guaranteed the array is present")
        {
            let t = batch_throughput(
                &engine,
                &|heap| case.build_bench(heap),
                entry.trees,
                entry.workers,
            );
            let measured = t.trees_per_sec() / slowdown;
            let ratio = entry.trees_per_sec / measured;
            println!(
                "{:<10} {:<12} {:>12.1}/s {:>12.1}/s {:>8.2}x   {}",
                case.name,
                format!("batch x{}", entry.workers),
                entry.trees_per_sec,
                measured,
                ratio,
                verdict(ratio)
            );
        }
    }
    regressed
}

fn main() {
    let samples: usize = arg_value("--samples")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5)
        .max(1);
    let batch_trees: usize = arg_value("--batch-trees")
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
        .max(1);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_vm.json".to_string());

    if std::env::args().any(|a| a == "--check") {
        let baseline = arg_value("--baseline").unwrap_or_else(|| "BENCH_vm.json".to_string());
        let slowdown: f64 = arg_value("--inject-slowdown")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let regressed = with_stack(RUN_STACK, move || check(samples, &baseline, slowdown));
        if regressed > 0 {
            eprintln!(
                "perf check FAILED: {regressed} workload/tier pair(s) regressed >25% vs baseline"
            );
            std::process::exit(1);
        }
        println!(
            "perf check ok: no fused vm median, fused/unfused ratio or batch throughput \
             regressed >25% vs baseline"
        );
        return;
    }

    let rows = with_stack(RUN_STACK, move || {
        case_studies()
            .iter()
            .map(|case| workload(samples, batch_trees, case))
            .collect::<Vec<_>>()
    });

    println!(
        "{:<10} {:>14} {:>14} {:>9}   {:>14} {:>14} {:>9}",
        "workload",
        "interp fused",
        "vm fused",
        "speedup",
        "interp unfused",
        "vm unfused",
        "speedup"
    );
    for r in &rows {
        println!(
            "{:<10} {:>12}ns {:>12}ns {:>8.2}x   {:>12}ns {:>12}ns {:>8.2}x",
            r.name,
            r.fused.interp_ns,
            r.fused.vm_ns,
            r.fused.speedup(),
            r.unfused.interp_ns,
            r.unfused.vm_ns,
            r.unfused.speedup(),
        );
    }
    println!(
        "\n{:<10} {:>14} {:>14} {:>9}",
        "workload", "vm -O0", "vm -O2", "speedup"
    );
    for r in &rows {
        if let Some((o0, o2)) = r.fused.opt_ns {
            println!(
                "{:<10} {:>12}ns {:>12}ns {:>8.2}x",
                r.name,
                o0,
                o2,
                if o2 == 0 { 1.0 } else { o0 as f64 / o2 as f64 }
            );
        }
    }
    println!(
        "\n{:<10} {:<8} {}   (vm -O2 op fires of one probed run)",
        "workload",
        "fusion",
        OpKind::ALL
            .iter()
            .map(|k| format!("{:>14}", k.label()))
            .collect::<String>()
    );
    for r in &rows {
        for (mode, c) in [("fused", &r.fused), ("unfused", &r.unfused)] {
            println!(
                "{:<10} {:<8} {}",
                r.name,
                mode,
                c.op_kinds
                    .iter()
                    .map(|(_, n)| format!("{n:>14}"))
                    .collect::<String>()
            );
        }
    }
    println!(
        "\n{:<10} {:>6} {}",
        "workload",
        "trees",
        BATCH_WORKERS
            .iter()
            .map(|w| format!("{:>16}", format!("{w} worker(s)")))
            .collect::<String>()
    );
    for r in &rows {
        println!(
            "{:<10} {:>6} {}",
            r.name,
            batch_trees,
            r.batch
                .iter()
                .map(|t| format!("{:>12.1}/s", t.trees_per_sec()))
                .collect::<String>()
        );
    }

    let mut json = String::from("{\n  \"generated_by\": \"vm_compare\",\n");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"batch_trees\": {batch_trees},");
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"fused\": {}, \"unfused\": {}, \"batch\": {}, \
             \"compile\": {}}}{}",
            r.name,
            json_config(&r.fused),
            json_config(&r.unfused),
            json_batch(&r.batch),
            json_compile(&r.compile),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write BENCH_vm.json");
    println!("\nwrote {out}");
}
