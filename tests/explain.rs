//! Fusability-explain tests: the coverage/explain invariant on the four
//! case studies, one minimal program per [`FusionVerdict`] variant, and
//! the text/JSON renderings.

use grafter::explain::{BlockCause, FusionVerdict, MissReason};
use grafter::{fuse, Compiled, FuseOptions, FusedProgram};
use grafter_obs::json;
use grafter_workloads::case_studies;

fn fused_with(src: &str, root: &str, passes: &[&str], opts: &FuseOptions) -> FusedProgram {
    let compiled = Compiled::compile(src).expect("test program compiles");
    fuse(compiled.program(), root, passes, opts).expect("test entry resolves")
}

/// Two independent same-receiver calls: fuses under default options,
/// missed (grouping disabled / cutoffs) under restricted ones.
const PAIR_SRC: &str = r#"
    tree class Node {
        child Node* next;
        int a = 0;
        virtual traversal go() {}
    }
    tree class Cons : Node {
        traversal go() { a = a + 1; this->next->go(); this->next->go(); }
    }
    tree class End : Node { }
"#;

#[test]
fn explain_totals_equal_coverage_on_case_studies() {
    for case in case_studies() {
        let passes: Vec<&str> = case.passes.clone();
        for opts in [FuseOptions::default(), FuseOptions::unfused()] {
            let fp = fuse(case.compiled.program(), case.root_class, &passes, &opts)
                .expect("case study resolves");
            assert_eq!(
                fp.explain.totals(),
                fp.coverage,
                "{}: explain totals must equal coverage counters",
                case.name
            );
            // Every verdict carries spans that land inside the source.
            for p in &fp.explain.pairs {
                for site in [&p.left, &p.right] {
                    assert!(
                        site.span.start < site.span.end && site.span.end <= case.source.len(),
                        "{}: span {:?} of `{}` out of bounds",
                        case.name,
                        site.span,
                        site.method
                    );
                    let text = &case.source[site.span.start..site.span.end];
                    assert!(
                        text.contains(&*site.method),
                        "{}: span text {text:?} does not name `{}`",
                        case.name,
                        site.method
                    );
                }
            }
        }
    }
}

#[test]
fn fused_verdict_with_group_and_spans() {
    let fp = fused_with(PAIR_SRC, "Node", &["go"], &FuseOptions::default());
    assert!(fp.coverage.fused_pairs >= 1);
    let pair = fp
        .explain
        .pairs
        .iter()
        .find(|p| matches!(p.verdict, FusionVerdict::Fused { .. }))
        .expect("one fused pair");
    assert_eq!(&*pair.receiver, "this->next");
    assert_eq!(&*pair.left.method, "go");
    let text = &PAIR_SRC[pair.left.span.start..pair.left.span.end];
    assert!(text.contains("this->next->go()"), "span text: {text:?}");
    assert_eq!(fp.explain.totals(), fp.coverage);
}

#[test]
fn missed_verdict_when_grouping_disabled() {
    let fp = fused_with(PAIR_SRC, "Node", &["go"], &FuseOptions::unfused());
    assert!(fp.coverage.missed_pairs >= 1);
    let pair = &fp.explain.pairs[0];
    assert_eq!(
        pair.verdict,
        FusionVerdict::Missed {
            reason: MissReason::GroupingDisabled
        }
    );
    assert_eq!(pair.verdict.slug(), "grouping-disabled");
    let text = &PAIR_SRC[pair.right.span.start..pair.right.span.end];
    assert!(text.contains("this->next->go()"), "span text: {text:?}");
    assert_eq!(fp.explain.totals(), fp.coverage);
}

#[test]
fn missed_verdict_on_group_size_cutoff() {
    let opts = FuseOptions {
        max_group_size: 1,
        ..FuseOptions::default()
    };
    let fp = fused_with(PAIR_SRC, "Node", &["go"], &opts);
    let pair = fp
        .explain
        .pairs
        .iter()
        .find(|p| matches!(p.verdict, FusionVerdict::Missed { .. }))
        .expect("a missed pair");
    assert_eq!(
        pair.verdict,
        FusionVerdict::Missed {
            reason: MissReason::GroupSizeCutoff { limit: 1 }
        }
    );
    assert_eq!(pair.verdict.slug(), "group-size-cutoff");
    assert_eq!(fp.explain.totals(), fp.coverage);
}

#[test]
fn missed_verdict_on_occurrence_cutoff() {
    let opts = FuseOptions {
        max_occurrences: 1,
        ..FuseOptions::default()
    };
    let fp = fused_with(PAIR_SRC, "Node", &["go"], &opts);
    let pair = fp
        .explain
        .pairs
        .iter()
        .find(|p| matches!(p.verdict, FusionVerdict::Missed { .. }))
        .expect("a missed pair");
    assert_eq!(
        pair.verdict,
        FusionVerdict::Missed {
            reason: MissReason::OccurrenceCutoff { limit: 1 }
        }
    );
    assert_eq!(pair.verdict.slug(), "occurrence-cutoff");
    assert_eq!(fp.explain.totals(), fp.coverage);
}

#[test]
fn blocked_verdict_on_no_common_supertype() {
    // `Both` inherits two unrelated hierarchies; the two casted self-calls
    // share the receiver path `this` but dispatch on `A` vs `B`, which
    // have no common supertype.
    let src = r#"
        tree class A { virtual traversal fa() {} }
        tree class B { virtual traversal fb() {} }
        tree class Both : A, B {
            traversal go() {
                static_cast<A*>(this)->fa();
                static_cast<B*>(this)->fb();
            }
        }
    "#;
    let fp = fused_with(src, "Both", &["go"], &FuseOptions::default());
    assert!(fp.coverage.blocked_pairs >= 1);
    let pair = fp
        .explain
        .pairs
        .iter()
        .find(|p| matches!(p.verdict, FusionVerdict::Blocked { .. }))
        .expect("a blocked pair");
    assert_eq!(
        pair.verdict,
        FusionVerdict::Blocked {
            cause: BlockCause::NoCommonSupertype {
                left: "A".to_string(),
                right: "B".to_string(),
            }
        }
    );
    assert_eq!(pair.verdict.slug(), "no-common-supertype");
    let text = &src[pair.left.span.start..pair.left.span.end];
    assert!(text.contains("fa()"), "span text: {text:?}");
    assert_eq!(fp.explain.totals(), fp.coverage);
}

#[test]
fn blocked_verdict_on_dependence_cycle() {
    // `f`'s recursive call writes `a` throughout the `next` subtree; the
    // read of `this->next->a` after it depends on the call, and `g`'s
    // call (writing the same locations) depends on that read — merging
    // the two calls would close a cycle through the read.
    let src = r#"
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
    let fp = fused_with(src, "Node", &["f", "g"], &FuseOptions::default());
    assert!(fp.coverage.blocked_pairs >= 1, "{:?}", fp.coverage);
    let pair = fp
        .explain
        .pairs
        .iter()
        .find(|p| matches!(p.verdict, FusionVerdict::Blocked { .. }))
        .expect("a blocked pair");
    let FusionVerdict::Blocked {
        cause: BlockCause::DependenceCycle { from, to, .. },
    } = &pair.verdict
    else {
        panic!("expected a dependence cycle, got {:?}", pair.verdict);
    };
    assert_eq!(pair.verdict.slug(), "dependence-cycle");
    assert!(from.what.contains('`') || from.what.contains("statement"));
    assert!(to.what.contains('`') || to.what.contains("statement"));
    let text = &src[pair.left.span.start..pair.left.span.end];
    assert!(text.contains("->f()"), "span text: {text:?}");
    let text = &src[pair.right.span.start..pair.right.span.end];
    assert!(text.contains("->g()"), "span text: {text:?}");
    assert_eq!(fp.explain.totals(), fp.coverage);
}

#[test]
fn render_text_has_caret_snippets() {
    let fp = fused_with(PAIR_SRC, "Node", &["go"], &FuseOptions::unfused());
    let text = fp.explain.render_text(PAIR_SRC);
    assert!(text.contains("fusion explain:"), "{text}");
    assert!(text.contains("[missed]"), "{text}");
    assert!(text.contains('^'), "caret snippet expected: {text}");
    assert!(text.contains("warning[fuse]"), "{text}");
}

#[test]
fn render_json_parses_and_matches_totals() {
    let fp = fused_with(PAIR_SRC, "Node", &["go"], &FuseOptions::default());
    let doc = json::parse(&fp.explain.render_json(PAIR_SRC)).expect("valid JSON");
    let totals = doc.get("totals").expect("totals object");
    assert_eq!(
        totals.get("fused").and_then(|v| v.as_num()),
        Some(fp.coverage.fused_pairs as f64)
    );
    assert_eq!(
        totals.get("missed").and_then(|v| v.as_num()),
        Some(fp.coverage.missed_pairs as f64)
    );
    assert_eq!(
        totals.get("blocked").and_then(|v| v.as_num()),
        Some(fp.coverage.blocked_pairs as f64)
    );
    let pairs = doc.get("pairs").and_then(|v| v.as_arr()).expect("pairs");
    assert_eq!(pairs.len(), fp.explain.pairs.len());
    for p in pairs {
        assert!(p.get("verdict").and_then(|v| v.as_str()).is_some());
        assert!(p.get("reason").and_then(|v| v.as_str()).is_some());
        let span = p.get("left").and_then(|l| l.get("span")).expect("span");
        assert!(span.get("line").and_then(|v| v.as_num()).unwrap() >= 1.0);
    }
}
