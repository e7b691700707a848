//! Every metric the benchmark prints is declared in `BENCHMARK.json`, with
//! the same unit, under a name of the allowed shape — and nothing else is.

use grafter_obs::json::{parse, Json};
use perfbench::metrics::{end_to_end, per_layer};

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry lacks `{f}`"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");

    let printed: Vec<(String, String)> = end_to_end()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), printed);

    let printed: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u, _)| (n, u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "per_layer"), printed);

    for (name, _) in end_to_end()
        .into_iter()
        .chain(per_layer().into_iter().map(|(n, u, _)| (n, u)))
    {
        assert!(well_formed(&name), "metric name `{name}`");
    }
}
