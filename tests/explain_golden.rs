//! Golden-file tests for the `--explain` report and the fused code: the
//! full text and JSON renderings of the report, the rendered C++ of the
//! fused program, and the VM-O2 bytecode disassembly of the fused and
//! unfused modules, for each of the paper's four case studies are pinned
//! under `tests/golden/`, so any change to verdict classification, span
//! resolution, report formatting, call grouping, schedule, lowering or
//! bytecode optimization shows up as a reviewable diff.
//!
//! Regenerate after an intentional change with
//! `BLESS=1 cargo test --test explain_golden`.

use std::fs;
use std::path::PathBuf;

use grafter_engine::{Backend, Engine, FusionOptions};
use grafter_workloads::case_studies;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden `{}` ({e}); run with BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden `{name}` drifted; rerun with BLESS=1 if the change is intended"
    );
}

#[test]
fn explain_text_and_json_match_goldens_on_all_case_studies() {
    for case in case_studies() {
        let engine = Engine::builder()
            .compiled(case.compiled.clone())
            .entry(case.root_class, &case.passes)
            .build()
            .unwrap();
        let explain = engine.explain();
        check_golden(
            &format!("{}.explain.txt", case.name),
            &explain.render_text(case.source),
        );
        check_golden(
            &format!("{}.explain.json", case.name),
            &explain.render_json(case.source),
        );
    }
}

#[test]
fn fused_cpp_matches_goldens_on_all_case_studies() {
    for case in case_studies() {
        let engine = Engine::builder()
            .compiled(case.compiled.clone())
            .entry(case.root_class, &case.passes)
            .build()
            .unwrap();
        check_golden(&format!("{}.fused.cpp", case.name), &engine.render_cpp());
    }
}

#[test]
fn o2_bytecode_matches_goldens_on_all_case_studies() {
    for case in case_studies() {
        for (label, opts) in [
            ("fused", FusionOptions::default()),
            ("unfused", FusionOptions::unfused()),
        ] {
            let engine = case.engine_with(opts, Backend::Vm);
            let module = engine.module().expect("the VM tier lowers a module");
            check_golden(
                &format!("{}.{label}.bytecode.txt", case.name),
                &module.disassemble(),
            );
        }
    }
}

#[test]
fn golden_totals_agree_with_compile_side_coverage() {
    // The pinned reports are not just stable — their headline counts are
    // exactly the `FusionCoverage` the fusion pass computed.
    for case in case_studies() {
        let engine = Engine::builder()
            .compiled(case.compiled.clone())
            .entry(case.root_class, &case.passes)
            .build()
            .unwrap();
        let totals = engine.explain().totals();
        let coverage = &engine.fused_program().coverage;
        assert_eq!(totals.fused_pairs, coverage.fused_pairs, "{}", case.name);
        assert_eq!(totals.missed_pairs, coverage.missed_pairs, "{}", case.name);
        assert_eq!(
            totals.blocked_pairs, coverage.blocked_pairs,
            "{}",
            case.name
        );
    }
}
