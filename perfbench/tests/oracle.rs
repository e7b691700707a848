//! The output oracle must count a wrong result as a failed request.

use grafter_obs::json::parse;
use grafter_runtime::{SnapValue, Value};
use grafter_workloads::case_studies;
use perfbench::oracle::{output_digest, report_digest, response_matches, Oracle, Tally};
use perfbench::workloads::build_engine;

#[test]
fn corrupted_outputs_are_counted_as_failed() {
    let cases = case_studies();
    let case = cases.iter().find(|c| c.name == "fmm").expect("fmm case");
    let (size, seed) = (case.test_size, 7);
    let reference = Oracle::new(case).digest(case, size, seed);

    let engine = build_engine(case).expect("fmm builds");
    let mut session = engine.session();
    let root = session.build_tree(|h| (case.build)(h, size, seed));
    let report = session.run(root).expect("fmm runs");
    let snapshot = session.snapshot(root);

    let mut tally = Tally::default();
    tally.record(output_digest(&snapshot, &report.globals) == reference);
    assert_eq!(
        tally,
        Tally {
            attempted: 1,
            failed: 0
        },
        "fused VM agrees with the oracle"
    );

    // One float in the final tree, off by one ulp.
    let mut tree = snapshot.clone();
    let slot = tree
        .iter_mut()
        .flat_map(|(_, slots)| slots.iter_mut())
        .find(|v| matches!(v, SnapValue::Float(_)))
        .expect("fmm nodes carry floats");
    if let SnapValue::Float(x) = slot {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }
    tally.record(output_digest(&tree, &report.globals) == reference);

    // One extra global.
    let mut globals = report.globals.clone();
    globals.push(("bogus".to_string(), Value::Int(0)));
    tally.record(output_digest(&snapshot, &globals) == reference);
    assert_eq!(
        tally,
        Tally {
            attempted: 3,
            failed: 2
        }
    );

    // The wire form: the same report matches, a report with one counter
    // changed, or an error frame, does not.
    let json = report.to_json();
    let expected = report_digest(&parse(&json).expect("report json")).expect("digest");
    let ok_body = format!("{{\"ok\":true,\"report\":{json}}}");
    assert!(response_matches(&ok_body, expected));
    let visits = format!("\"visits\":{}", report.metrics.visits);
    let wrong = ok_body.replacen(
        &visits,
        &format!("\"visits\":{}", report.metrics.visits + 1),
        1,
    );
    assert_ne!(wrong, ok_body);
    assert!(!response_matches(&wrong, expected));
    assert!(!response_matches(
        "{\"ok\":false,\"error\":{\"stage\":\"runtime\",\"message\":\"x\"}}",
        expected
    ));
}
