//! `grafterc` — command-line front door to the fusion compiler.
//!
//! Mirrors the original Grafter's Clang-tool usage: feed it a traversal
//! program (a file, or `-` for stdin), name the root class and the
//! traversal sequence, and it prints the fused artifact — as C++-like
//! source in the paper's Fig. 6 style (`--emit cpp`, the default) or as
//! the disassembled `grafter-vm` bytecode module (`--emit bytecode`).
//! Drives the `grafter_engine::Engine` API: one build compiles, fuses
//! and (on the VM tier) lowers exactly once; `--run` then executes the
//! artifact in a session.
//!
//! The whole CLI grammar lives in one declarative table ([`FLAGS`]):
//! `--help` is generated from it, and any flag it does not name is a
//! usage error (exit 2).
//!
//! ```text
//! grafterc <file.gr | -> --root <Class> --passes <t1,t2,...>
//!          [--unfused] [--explain] [--stats] [--backend interp|vm]
//!          [-O0|-O2] [--emit cpp|bytecode|none] [--disasm-blocks]
//!          [--run] [--json] [--profile] [--trace-out FILE]
//! ```
//!
//! `--backend` names the execution tier the artifact is being prepared
//! for: it selects the default `--emit` (the VM tier disassembles its
//! bytecode) and, with `--stats`/`--run`, that tier
//! compiles/executes. `-O{0,2}` picks the bytecode optimization level
//! (default `-O2`); the disassembly header lists what each optimizer
//! pass did, and `--stats` repeats those per-pass deltas on stderr so
//! they survive a piped or discarded stdout. `--disasm-blocks` switches
//! the bytecode emission to the per-basic-block view with CFG edges —
//! the blocks a `--profile` run on the VM counts entries of.
//! `--json` switches diagnostics (stderr) to a JSON array; the emitted
//! artifact stays on stdout. `--run` executes the program once on a
//! freshly allocated root-class node with null children — a smoke
//! execution that surfaces runtime failures. With `--run --json` the
//! run's `Report` is additionally serialized as one JSON object on
//! stdout (combine with `--emit none` for a pure-JSON stdout).
//!
//! `--explain` prints the fusability report on stdout: one verdict per
//! same-receiver candidate pair — fused, missed (with the grouping
//! reason) or blocked (with the specific cause and the dependence edge
//! that closes the cycle) — as caret-snippet text, or as one JSON
//! object with `--json`. Unless `--emit` is given explicitly,
//! `--explain` implies `--emit none` so stdout carries the report
//! alone.
//!
//! `--profile` attaches a `grafter_obs::TraceProbe`: the build records
//! per-stage compile spans, `--run` records the tier's runtime profile,
//! and a ranked text summary lands on stderr. `--trace-out FILE`
//! additionally writes the whole trace as Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`).
//!
//! Exit codes distinguish the failure stage:
//!
//! | Code | Meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | I/O failure (unreadable input) |
//! | 2 | usage error (bad flags) |
//! | 3 | compile-side failure (lex/parse/sema/fuse/lower) |
//! | 4 | runtime failure (`--run`) |

use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

use grafter::{Diag, DiagnosticBag, Error, FuseOptions, Stage};
use grafter_engine::{Backend, Engine, OptLevel, Probe, TraceProbe};

const EXIT_IO: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_COMPILE: u8 = 3;
const EXIT_RUNTIME: u8 = 4;

/// One entry of the CLI grammar: the flag, its value placeholder (`None`
/// for boolean switches) and the `--help` line.
struct FlagSpec {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

/// The whole flag table. Parsing, `--help` and the usage line are all
/// generated from this one list; a `--flag` not named here is a usage
/// error.
const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--root",
        value: Some("<Class>"),
        help: "root class of the entry sequence (required)",
    },
    FlagSpec {
        name: "--passes",
        value: Some("<t1,t2,...>"),
        help: "entry traversal names in invocation order, comma-separated (required)",
    },
    FlagSpec {
        name: "--unfused",
        value: None,
        help: "build the unfused baseline (one pass over the tree per traversal)",
    },
    FlagSpec {
        name: "--explain",
        value: None,
        help: "print per-pair fusability verdicts on stdout (JSON with --json)",
    },
    FlagSpec {
        name: "--stats",
        value: None,
        help: "print fusion metrics (and optimizer per-pass deltas) on stderr",
    },
    FlagSpec {
        name: "--backend",
        value: Some("interp|vm"),
        help: "execution tier the artifact targets (default interp)",
    },
    FlagSpec {
        name: "--emit",
        value: Some("cpp|bytecode|none"),
        help: "artifact on stdout (default cpp on interp, bytecode on vm)",
    },
    FlagSpec {
        name: "--disasm-blocks",
        value: None,
        help: "per-basic-block bytecode view with CFG edges (requires --emit bytecode)",
    },
    FlagSpec {
        name: "--run",
        value: None,
        help: "execute once on a fresh root-class node; report on stderr (stdout with --json)",
    },
    FlagSpec {
        name: "--json",
        value: None,
        help: "machine-readable output: JSON diagnostics, report and explain documents",
    },
    FlagSpec {
        name: "--profile",
        value: None,
        help: "attach a trace probe; ranked compile/run summary on stderr",
    },
    FlagSpec {
        name: "--trace-out",
        value: Some("FILE"),
        help: "write the probe's Chrome trace-event JSON to FILE (requires --profile)",
    },
    FlagSpec {
        name: "--help",
        value: None,
        help: "print this help and exit",
    },
];

/// The one-line usage string, generated from [`FLAGS`].
fn usage() -> String {
    let mut line = String::from("usage: grafterc <file.gr | -> [-O0|-O2]");
    for f in FLAGS {
        if f.name == "--help" {
            continue;
        }
        match f.value {
            Some(v) => {
                line.push_str(&format!(" [{} {v}]", f.name));
            }
            None => line.push_str(&format!(" [{}]", f.name)),
        }
    }
    line
}

/// The full `--help` text: usage line plus one aligned row per flag.
fn help() -> String {
    let mut out = usage();
    out.push_str("\n\noptions:\n");
    let width = FLAGS
        .iter()
        .map(|f| f.name.len() + f.value.map_or(0, |v| v.len() + 1))
        .max()
        .unwrap_or(0);
    for f in FLAGS {
        let left = match f.value {
            Some(v) => format!("{} {v}", f.name),
            None => f.name.to_string(),
        };
        out.push_str(&format!("  {left:<width$}  {}\n", f.help));
    }
    let levels = "-O0|-O2";
    out.push_str(&format!(
        "  {levels:<width$}  bytecode optimization level (default -O2)\n"
    ));
    out
}

/// Arguments parsed against [`FLAGS`]: the positional input path, the
/// `-O` level, and each recognised flag with its value (switches map to
/// `None`).
struct Cli {
    path: Option<String>,
    opt_level: Option<String>,
    seen: Vec<(&'static str, Option<String>)>,
}

impl Cli {
    /// Whether `name` was given.
    fn has(&self, name: &str) -> bool {
        self.seen.iter().any(|(n, _)| *n == name)
    }

    /// The value of `name`, when given (last occurrence wins).
    fn value(&self, name: &str) -> Option<&str> {
        self.seen
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

/// Parses `args` against the flag table. `Err` carries the usage
/// message to print before exiting with code 2.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        path: None,
        opt_level: None,
        seen: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(lvl) = a.strip_prefix("-O") {
            cli.opt_level = Some(lvl.to_string());
            continue;
        }
        if a == "-" || !a.starts_with('-') {
            if cli.path.is_some() {
                return Err(format!("unexpected extra input `{a}`"));
            }
            cli.path = Some(a.clone());
            continue;
        }
        let Some(spec) = FLAGS.iter().find(|f| f.name == a.as_str()) else {
            return Err(format!("unknown flag `{a}`"));
        };
        match spec.value {
            None => cli.seen.push((spec.name, None)),
            Some(placeholder) => match it.next() {
                Some(v) => cli.seen.push((spec.name, Some(v.clone()))),
                None => {
                    return Err(format!("{} expects a value {placeholder}", spec.name));
                }
            },
        }
    }
    Ok(cli)
}

/// Prints an [`Error`]'s diagnostics to stderr — rendered caret snippets
/// by default, a JSON array with `--json` — and picks the exit code from
/// its stage. In JSON mode `pending` (warnings held back so the whole
/// invocation emits exactly one parseable array) is merged in front.
fn report(err: &Error, pending: &DiagnosticBag, source: &str, path: &str, json: bool) -> ExitCode {
    if json {
        let mut all = pending.clone();
        all.merge(err.diagnostics().clone());
        all.dedup();
        eprintln!("{}", all.render_json(source));
    } else {
        for d in err.diagnostics().iter() {
            eprintln!("{path}:{}", d.render(source));
        }
    }
    if err.is_runtime() {
        ExitCode::from(EXIT_RUNTIME)
    } else {
        ExitCode::from(EXIT_COMPILE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if cli.has("--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(path) = cli.path.clone() else {
        eprintln!("{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    let source = if path == "-" {
        let mut buf = String::new();
        match std::io::stdin().read_to_string(&mut buf) {
            Ok(_) => buf,
            Err(e) => {
                eprintln!("error: cannot read stdin: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read `{path}`: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    };
    let json = cli.has("--json");
    let Some(root) = cli.value("--root").map(str::to_string) else {
        eprintln!("error: missing --root <Class>");
        return ExitCode::from(EXIT_USAGE);
    };
    let Some(passes) = cli.value("--passes").map(str::to_string) else {
        eprintln!("error: missing --passes <t1,t2,...>");
        return ExitCode::from(EXIT_USAGE);
    };
    let backend = match cli.value("--backend") {
        None => Backend::Interp,
        Some(s) => match s.parse::<Backend>() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    let opt_level = match cli.opt_level.as_deref() {
        None => OptLevel::O2,
        Some(lvl) => match lvl.parse::<OptLevel>() {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        },
    };
    let explain = cli.has("--explain");
    // The VM tier's natural artifact is its bytecode; the
    // interpreter walks the rendered (C++-style) program shape. With
    // --explain the report is the artifact unless --emit insists.
    let default_emit = if explain {
        "none"
    } else {
        match backend {
            Backend::Interp => "cpp",
            Backend::Vm => "bytecode",
        }
    };
    let emit = cli.value("--emit").unwrap_or(default_emit).to_string();
    if emit != "cpp" && emit != "bytecode" && emit != "none" {
        eprintln!("error: unknown --emit `{emit}` (expected cpp|bytecode|none)");
        return ExitCode::from(EXIT_USAGE);
    }
    let disasm_blocks = cli.has("--disasm-blocks");
    if disasm_blocks && emit != "bytecode" {
        eprintln!("error: --disasm-blocks requires `--emit bytecode` (the default on vm)");
        return ExitCode::from(EXIT_USAGE);
    }
    let pass_list: Vec<&str> = passes.split(',').map(str::trim).collect();
    let opts = if cli.has("--unfused") {
        FuseOptions::unfused()
    } else {
        FuseOptions::default()
    };
    let probe = cli.has("--profile").then(|| Arc::new(TraceProbe::new()));
    let trace_out = cli.value("--trace-out").map(str::to_string);
    if trace_out.is_some() && probe.is_none() {
        eprintln!("error: --trace-out requires --profile");
        return ExitCode::from(EXIT_USAGE);
    }

    // One build: compile + fuse + (vm) lower, each exactly once.
    let no_warnings = DiagnosticBag::new();
    let mut builder = Engine::builder()
        .source(source.as_str())
        .entry(root.as_str(), &pass_list)
        .fusion(opts)
        .backend(backend)
        .opt_level(opt_level);
    if let Some(p) = &probe {
        builder = builder.probe(Arc::clone(p) as Arc<dyn Probe>);
    }
    let engine = match builder.build() {
        Ok(engine) => engine,
        Err(err) => return report(&err, &no_warnings, &source, &path, json),
    };
    // In JSON mode warnings are held back and merged into the single
    // end-of-invocation array (one parseable document per run); rendered
    // mode streams them immediately. `pending` accumulates the build
    // warnings plus anything emission adds below.
    let mut pending = engine.warnings().clone();
    if !json {
        for w in pending.iter() {
            eprintln!("{path}:{}", w.render(&source));
        }
    }

    // Lower at most once even on the interp tier: reuse the engine's
    // cached module when it has one.
    let adhoc_module = if emit == "bytecode" && engine.module().is_none() {
        let opts = grafter_vm::VmOptions { opt_level };
        match grafter_vm::try_lower_with(engine.fused_program(), &opts) {
            Ok(module) => Some(module),
            Err(e) => return report(&e.into(), &pending, &source, &path, json),
        }
    } else {
        None
    };
    match emit.as_str() {
        "bytecode" => {
            let module = engine.module().or(adhoc_module.as_ref()).unwrap();
            if module.is_empty() {
                // Dispatch on the entry class resolves no concrete target
                // (e.g. no concrete subtype implements every pass):
                // without a diagnostic the empty module header below looks
                // like a compiler bug rather than a configuration problem.
                let warn = Diag::warning_global(
                    Stage::Config,
                    format!(
                        "bytecode module is empty: dispatch on `{root}` resolves no \
                         concrete implementation of the entry passes"
                    ),
                );
                if json {
                    pending.push(warn);
                } else {
                    eprintln!("{path}:{}", warn.render(&source));
                }
            }
            if disasm_blocks {
                print!("{}", module.disassemble_blocks());
            } else {
                print!("{}", module.disassemble());
            }
        }
        "cpp" => print!("{}", engine.render_cpp()),
        _ => {}
    }

    if explain {
        // The fusability report is stdout content: text by default, one
        // JSON object with --json (parseable by grafter_obs::json).
        if json {
            println!("{}", engine.explain().render_json(&source));
        } else {
            print!("{}", engine.explain().render_text(&source));
        }
    }

    if cli.has("--stats") {
        let m = engine.fusion_metrics();
        // Stats go to stderr so they survive a piped/discarded stdout
        // (the emitted artifact): the fusion summary line, then —
        // whenever a module was lowered — the optimizer's per-pass deltas.
        match engine.module().or(adhoc_module.as_ref()) {
            None => eprintln!(
                "fused {} traversal(s) on `{root}`: {m} [backend: interp]",
                pass_list.len()
            ),
            Some(module) => {
                eprintln!(
                    "fused {} traversal(s) on `{root}`: {m} [backend: {backend} {}, {} op(s), \
                     {} stub table(s)]",
                    pass_list.len(),
                    opt_level,
                    module.n_ops(),
                    module.n_stubs()
                );
                let report = module.opt_report();
                eprintln!(
                    "opt {}: {} rewrite(s)",
                    report.level,
                    report.total_rewrites()
                );
                for p in &report.passes {
                    eprintln!(
                        "  {:<9} {:>4} -> {:<4} {}(s) ({} {})",
                        p.pass, p.before, p.after, p.unit, p.rewrites, p.action
                    );
                }
            }
        }
    }

    if cli.has("--run") {
        let mut session = engine.session();
        let node = match session.alloc(&root) {
            Ok(node) => node,
            Err(err) => return report(&err, &pending, &source, &path, json),
        };
        match session.run(node) {
            // In JSON mode the run's whole Report (runtime profile
            // included when probed) is the machine-readable artifact.
            Ok(r) if json => println!("{}", r.to_json()),
            Ok(r) => eprintln!("run ok: {r}"),
            Err(err) => return report(&err, &pending, &source, &path, json),
        }
    }
    if let Some(probe) = &probe {
        eprint!("{}", probe.summary());
        if let Some(out) = &trace_out {
            if let Err(e) = std::fs::write(out, probe.chrome_trace()) {
                eprintln!("error: cannot write `{out}`: {e}");
                return ExitCode::from(EXIT_IO);
            }
        }
    }
    if json && !pending.is_empty() {
        eprintln!("{}", pending.render_json(&source));
    }
    ExitCode::SUCCESS
}
