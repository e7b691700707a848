//! `grafterc` CLI regressions: the `-O{0,2}` flags, the disassembly
//! header, and the empty-module diagnostic contract (`Module::is_empty`
//! carries the predicate; the warning path is exercised through the same
//! engine code the CLI drives — the zero-target state itself is only
//! constructible through `fuse_slots`, covered in
//! `crates/vm/tests/opt_differential.rs`).

use std::process::Command;

const LIST: &str = r#"
    tree class Node {
        child Node* next;
        int a = 0;
        virtual traversal inc() {}
    }
    tree class Cons : Node {
        traversal inc() { a = a + 1; this->next->inc(); }
    }
    tree class End : Node { }
"#;

fn grafterc(args: &[&str], stdin: &str) -> (String, String, Option<i32>) {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_grafterc"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("grafterc spawns");
    // A usage error exits before stdin is read; ignore the broken pipe.
    let _ = child.stdin.take().unwrap().write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("grafterc exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn emit_bytecode_defaults_to_o2_with_pass_deltas() {
    let (stdout, stderr, code) = grafterc(
        &["-", "--root", "Node", "--passes", "inc", "--backend", "vm"],
        LIST,
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("; opt: O2"));
    assert!(
        stdout.contains("peephole"),
        "per-pass deltas shown:\n{stdout}"
    );
    assert!(stdout.contains("navcall"), "superinstructions pretty-print");
    // A well-formed program draws no config warning.
    assert!(!stderr.contains("warning"), "spurious warning: {stderr}");
}

#[test]
fn opt_level_flags_select_the_level() {
    let (o0, _, code) = grafterc(
        &[
            "-",
            "--root",
            "Node",
            "--passes",
            "inc",
            "--backend",
            "vm",
            "-O0",
        ],
        LIST,
    );
    assert_eq!(code, Some(0));
    assert!(o0.contains("; opt: O0"));
    assert!(!o0.contains("navcall"), "O0 emits naive code:\n{o0}");

    let (_, stderr, code) = grafterc(&["-", "--root", "Node", "--passes", "inc", "-O9"], LIST);
    assert_eq!(code, Some(2), "unknown level is a usage error");
    assert!(stderr.contains("unknown opt level"));

    // `-O1` was removed with its passes: a usage error naming the levels.
    let (_, stderr, code) = grafterc(&["-", "--root", "Node", "--passes", "inc", "-O1"], LIST);
    assert_eq!(code, Some(2), "removed level is a usage error: {stderr}");
    assert!(stderr.contains("0|2"), "stderr names the levels: {stderr}");
}

/// Two independent passes over the same list: one fused pair under the
/// default options, so `--explain` always has a verdict to show.
const TWO_PASS: &str = r#"
    tree class Node {
        child Node* next;
        int a = 0; int b = 0;
        virtual traversal incA() {}
        virtual traversal incB() {}
    }
    tree class Cons : Node {
        traversal incA() { a = a + 1; this->next->incA(); }
        traversal incB() { b = b + 1; this->next->incB(); }
    }
    tree class End : Node { }
"#;

#[test]
fn help_lists_every_flag_and_exits_zero() {
    let (stdout, stderr, code) = grafterc(&["--help"], "");
    assert_eq!(code, Some(0), "stderr: {stderr}");
    for flag in [
        "--root",
        "--passes",
        "--unfused",
        "--explain",
        "--stats",
        "--backend",
        "--emit",
        "--disasm-blocks",
        "--run",
        "--json",
        "--profile",
        "--trace-out",
        "--help",
        "-O0|-O2",
    ] {
        assert!(stdout.contains(flag), "help misses `{flag}`:\n{stdout}");
    }
}

#[test]
fn unknown_flags_are_usage_errors_that_name_the_flag() {
    let (_, stderr, code) = grafterc(
        &["-", "--root", "Node", "--passes", "inc", "--explian"],
        LIST,
    );
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--explian"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn removed_jit_backend_is_a_usage_error_that_names_the_tiers() {
    let (_, stderr, code) = grafterc(
        &["-", "--root", "Node", "--passes", "inc", "--backend", "jit"],
        LIST,
    );
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("interp|vm"), "stderr: {stderr}");
}

#[test]
fn disasm_blocks_groups_the_bytecode_into_basic_blocks() {
    let (stdout, stderr, code) = grafterc(
        &[
            "-",
            "--root",
            "Node",
            "--passes",
            "inc",
            "--backend",
            "vm",
            "--disasm-blocks",
        ],
        LIST,
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("; basic-block view"), "{stdout}");
    assert!(stdout.contains("block(s))"), "{stdout}");
    assert!(stdout.contains("  b0  "), "{stdout}");
    assert!(stdout.contains("-> "), "block edges are listed:\n{stdout}");
}

/// `f` reads through `next` after its recursive call while `g` writes the
/// same field: merging the calls would close a dependence cycle, so the
/// pair is blocked and `--explain` renders caret snippets for it.
const DEP_CYCLE: &str = r#"
    tree class Node {
        child Node* next;
        int a = 0;
        int b = 0;
        virtual traversal f() {}
        virtual traversal g() {}
    }
    tree class Cons : Node {
        traversal f() {
            a = a + 1;
            this->next->f();
            b = this->next->a;
        }
        traversal g() {
            a = a * 2;
            this->next->g();
        }
    }
    tree class End : Node { }
"#;

#[test]
fn explain_prints_verdicts_and_suppresses_the_artifact() {
    let (stdout, stderr, code) = grafterc(
        &["-", "--root", "Node", "--passes", "f,g", "--explain"],
        DEP_CYCLE,
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.starts_with("fusion explain:"),
        "--explain implies --emit none, so the report leads:\n{stdout}"
    );
    assert!(stdout.contains("[blocked]"), "{stdout}");
    assert!(stdout.contains("dependence"), "{stdout}");
    assert!(
        stdout.contains('^'),
        "caret snippets point at call sites:\n{stdout}"
    );
    // An explicit --emit still wins over the implied suppression.
    let (stdout, _, code) = grafterc(
        &[
            "-",
            "--root",
            "Node",
            "--passes",
            "incA,incB",
            "--explain",
            "--emit",
            "cpp",
        ],
        TWO_PASS,
    );
    assert_eq!(code, Some(0));
    assert!(stdout.contains("__stub"), "cpp artifact emitted:\n{stdout}");
    assert!(stdout.contains("fusion explain:"), "{stdout}");
}

#[test]
fn explain_json_is_machine_parseable() {
    let (stdout, stderr, code) = grafterc(
        &[
            "-",
            "--root",
            "Node",
            "--passes",
            "incA,incB",
            "--explain",
            "--json",
        ],
        TWO_PASS,
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let doc = grafter_obs::json::parse(&stdout).expect("explain --json emits one JSON document");
    let fused = doc
        .get("totals")
        .and_then(|t| t.get("fused"))
        .and_then(|n| n.as_num())
        .unwrap();
    assert!(fused >= 1.0, "{stdout}");
    let pairs = doc.get("pairs").and_then(|p| p.as_arr()).unwrap();
    assert!(!pairs.is_empty());
    assert!(pairs[0].get("verdict").and_then(|v| v.as_str()).is_some());
}

#[test]
fn explain_json_names_blocking_reasons_on_the_ast_workload() {
    // The CI `explain-smoke` contract: on a real case study the JSON
    // report must parse with the obs parser and contain at least one
    // blocked verdict naming its blocking reason.
    let (stdout, stderr, code) = grafterc(
        &[
            "-",
            "--root",
            grafter_workloads::ast::ROOT_CLASS,
            "--passes",
            &grafter_workloads::ast::PASSES.join(","),
            "--explain",
            "--json",
        ],
        grafter_workloads::ast::SOURCE,
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let doc = grafter_obs::json::parse(&stdout).expect("one parseable JSON document");
    let pairs = doc.get("pairs").and_then(|p| p.as_arr()).unwrap();
    let blocked: Vec<_> = pairs
        .iter()
        .filter(|p| p.get("verdict").and_then(|v| v.as_str()) == Some("blocked"))
        .collect();
    assert!(!blocked.is_empty(), "ast workload has blocked pairs");
    let reason = blocked[0].get("reason").and_then(|r| r.as_str()).unwrap();
    assert!(!reason.is_empty(), "blocked verdicts name their cause");
}

#[test]
fn profile_lists_fusion_and_optimizer_stages() {
    let (_, stderr, code) = grafterc(
        &[
            "-",
            "--root",
            grafter_workloads::ast::ROOT_CLASS,
            "--passes",
            &grafter_workloads::ast::PASSES.join(","),
            "--backend",
            "vm",
            "--emit",
            "none",
            "--profile",
        ],
        grafter_workloads::ast::SOURCE,
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    for stage in [
        "fusion",
        "fusion/summaries",
        "fusion/conflicts",
        "fusion/group",
        "fusion/explain",
        "fusion/emit",
        "lower",
        "opt/peephole",
        "opt/regs",
        "opt/specialize",
    ] {
        assert!(
            stderr
                .lines()
                .any(|l| l.split_whitespace().nth(3) == Some(stage)),
            "`{stage}` missing from the profile:\n{stderr}"
        );
    }
}

#[test]
fn profile_reports_fusion_search_counts_that_repeat_across_builds() {
    let search_counts = || {
        let (_, stderr, code) = grafterc(
            &[
                "-",
                "--root",
                grafter_workloads::ast::ROOT_CLASS,
                "--passes",
                &grafter_workloads::ast::PASSES.join(","),
                "--backend",
                "vm",
                "--emit",
                "none",
                "--profile",
            ],
            grafter_workloads::ast::SOURCE,
        );
        assert_eq!(code, Some(0), "stderr: {stderr}");
        let fusion = stderr
            .lines()
            .find(|l| l.split_whitespace().nth(3) == Some("fusion"))
            .unwrap_or_else(|| panic!("no fusion span:\n{stderr}"))
            .to_string();
        ["intersections", "pairs_visited"].map(|key| {
            let value = fusion
                .split(['[', ']', ','])
                .filter_map(|kv| kv.trim().split_once('='))
                .find(|(k, _)| *k == key)
                .unwrap_or_else(|| panic!("`{key}` missing from `{fusion}`"))
                .1;
            value.parse::<u64>().unwrap()
        })
    };
    let first = search_counts();
    assert!(first[0] > 0 && first[1] >= first[0], "{first:?}");
    assert_eq!(search_counts(), first);
}

#[test]
fn stats_report_the_opt_level() {
    let (_, stderr, code) = grafterc(
        &[
            "-",
            "--root",
            "Node",
            "--passes",
            "inc",
            "--backend",
            "vm",
            "--stats",
            "--emit",
            "none",
        ],
        LIST,
    );
    assert_eq!(code, Some(0));
    assert!(stderr.contains("[backend: vm O2"), "stats: {stderr}");
}

/// A one-class program whose traversal `f` has body `body`.
fn nested_program(body: &str) -> String {
    format!("tree class A {{ int x = 0; traversal f() {{ {body} }} }}")
}

#[test]
fn nesting_past_the_cap_is_a_parse_error() {
    let parens = format!("x = {}1{};", "(".repeat(3_000), ")".repeat(3_000));
    let chain = format!("x = {};", vec!["1"; 30_000].join("+"));
    for body in [parens, chain] {
        let (_, stderr, code) = grafterc(
            &["-", "--root", "A", "--passes", "f"],
            &nested_program(&body),
        );
        assert_eq!(code, Some(3), "a compile error, not a crash: {stderr}");
        assert!(stderr.contains("error[parse]"), "{stderr}");
        assert!(stderr.contains("nesting"), "{stderr}");
    }
}

#[test]
fn programs_nested_to_the_cap_compile_and_run_on_both_tiers() {
    let cap = grafter_frontend::MAX_NESTING;
    let body = format!(
        "x = {parens_open}1{parens_close}; x = {chain}; {ifs_open}x = -x;{ifs_close}",
        parens_open = "(".repeat(cap),
        parens_close = ")".repeat(cap),
        chain = vec!["1"; cap + 1].join("+"),
        ifs_open = "if (x > 0) { ".repeat(cap - 1),
        ifs_close = " }".repeat(cap - 1),
    );
    let src = nested_program(&body);
    for backend in ["vm", "interp"] {
        let (_, stderr, code) = grafterc(
            &[
                "-",
                "--root",
                "A",
                "--passes",
                "f",
                "--backend",
                backend,
                "--emit",
                "none",
                "--run",
            ],
            &src,
        );
        assert_eq!(code, Some(0), "{backend}: {stderr}");
        assert!(stderr.contains("run ok"), "{backend}: {stderr}");
    }
}

#[test]
fn a_fused_entry_past_sixty_four_traversals_is_a_fuse_error_on_both_tiers() {
    let src =
        "global int G = 0; tree class N { traversal t() { if (G > 1000) { return; } G = G + 1; } }";
    let passes = vec!["t"; 65].join(",");
    for backend in ["interp", "vm"] {
        let args = [
            "-",
            "--root",
            "N",
            "--passes",
            &passes,
            "--backend",
            backend,
        ];
        let (_, stderr, code) = grafterc(&[&args[..], &["--emit", "none", "--run"]].concat(), src);
        assert_eq!(code, Some(3), "a compile error, not a miscompile: {stderr}");
        assert!(stderr.contains("error[fuse]"), "{stderr}");
        assert!(stderr.contains("65 traversals"), "{stderr}");
    }
}

#[test]
fn a_program_past_a_bytecode_limit_is_a_compile_error_on_the_vm_only() {
    // 70,000 distinct literals overflow the VM's 16-bit constant pool.
    let stmts: String = (1..=70_000).map(|i| format!("G = {i}; ")).collect();
    let src = format!("global int G = 0;\ntree class N {{ virtual traversal t() {{ {stmts} }} }}");
    let run = |backend: &str| {
        let args = ["-", "--root", "N", "--passes", "t", "--backend", backend];
        grafterc(&[&args[..], &["--emit", "none", "--run"]].concat(), &src)
    };
    let (_, stderr, code) = run("vm");
    assert_eq!(code, Some(3), "a compile error, not a miscompile: {stderr}");
    assert!(stderr.contains("error[lower]"), "{stderr}");
    assert!(stderr.contains("constant pool"), "{stderr}");
    let (_, stderr, code) = run("interp");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("run ok"), "{stderr}");
}

/// A program of `classes` tree classes, each declaring one field: a root
/// with a traversal and subclasses of it.
fn wide_source(classes: usize) -> String {
    let mut src =
        "tree class C0 { int f0 = 0; virtual traversal t() { f0 = f0 + 1; } }\n".to_string();
    for i in 1..classes {
        src += &format!("tree class C{i} : C0 {{ int f{i} = 0; }}\n");
    }
    src
}

#[test]
fn a_program_past_the_layout_bound_is_a_sema_error_on_both_tiers() {
    // 4,100 classes times 4,100 fields just pass 2^24 layout entries.
    let run = |src: &str, backend: &str| {
        let args = ["-", "--root", "C0", "--passes", "t", "--backend", backend];
        grafterc(&[&args[..], &["--emit", "none", "--run"]].concat(), src)
    };
    let past = wide_source(4_100);
    let within = wide_source(3_000);
    for backend in ["interp", "vm"] {
        let (_, stderr, code) = run(&past, backend);
        assert_eq!(code, Some(3), "{stderr}");
        assert!(stderr.contains("error[sema]"), "{stderr}");
        let bound = grafter_frontend::MAX_LAYOUT_ENTRIES.to_string();
        assert!(stderr.contains(&bound), "{stderr}");
        let (_, stderr, code) = run(&within, backend);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stderr.contains("run ok"), "{stderr}");
    }
}
