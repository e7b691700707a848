//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload compile|run|serve [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the host fingerprint, one line per metric (name, value, unit,
//! sample count or layer) and, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any
//! output check failed, 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use grafter_obs::json::JsonWriter;
use perfbench::metrics::PROGRAMS;
use perfbench::workloads::Workload;
use perfbench::{host, Config, Outcome, DEFAULT_SEED};

/// Traversals recurse once per tree level: run on a thread with room for
/// the deepest input (reserved, not committed).
const STACK: usize = 1 << 30;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload compile|run|serve [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Config> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().ok()?,
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(Config {
        workload: workload?,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn fingerprint_line(
    cfg: &Config,
    outcome: &Outcome,
    fp: &host::Fingerprint,
    cpu: Option<usize>,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("nproc").num(fp.nproc);
    match cpu {
        Some(cpu) => w.key("pinned_cpu").num(cpu),
        None => w.key("pinned_cpu").str("none"),
    };
    w.key("cpu_model").str(&fp.cpu_model);
    w.key("rustc").str(&fp.rustc);
    w.key("git_rev").str(&fp.git_rev);
    w.key("workload").str(cfg.workload.name());
    w.key("seed").num(cfg.seed);
    w.key("seconds").float(cfg.seconds);
    w.key("trace").bool(cfg.trace);
    w.key("samples").begin_obj();
    for (p, n) in PROGRAMS.iter().zip(outcome.samples) {
        w.key(p).num(n);
    }
    w.end_obj();
    w.key("percentiles").begin_arr();
    w.str("p50").str("p90");
    w.end_arr();
    w.end_obj();
    format!("fingerprint {}", w.finish())
}

fn result_line(outcome: &Outcome) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.begin_obj();
    w.key("correct").bool(outcome.tally.failed == 0);
    w.key("attempted").num(outcome.tally.attempted);
    w.key("failed").num(outcome.tally.failed);
    w.key("metrics").begin_obj();
    for m in &outcome.metrics {
        w.key(&m.name).begin_obj();
        w.key("value").float(m.value);
        w.key("unit").str(m.unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

fn main() -> ExitCode {
    let Some(cfg) = parse_args() else {
        return usage();
    };
    // The host's CPU count is read before the pinning below narrows it.
    let fp = host::fingerprint();
    // Before any other thread starts, so that every thread inherits it.
    let cpu = host::pin_to_one_cpu();
    let (cfg, result) = grafter_runtime::with_stack(STACK, move || {
        let result = perfbench::run(&cfg);
        (cfg, result)
    });
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", fingerprint_line(&cfg, &outcome, &fp, cpu));
    for m in &outcome.metrics {
        println!("{:<30} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
