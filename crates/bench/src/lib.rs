//! Shared driver code for the benchmark binaries that regenerate every
//! table and figure of the Grafter paper's evaluation (§5).
//!
//! Each binary prints the same *rows/series* the paper reports: metrics of
//! the fused implementation normalised to the unfused baseline (y-axis of
//! Figs. 9, 11, 12, 13; the ratio columns of Tables 3, 4 and 6), plus the
//! baseline runtime the figures print in parentheses.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `figure9`  | Fig. 9a (Grafter) / Fig. 9b (TreeFuser) — render tree sweep |
//! | `table3`   | Table 3 — Doc1/Doc2/Doc3 render configurations |
//! | `figure11` | Fig. 11 — AST pass sweep over #functions |
//! | `table4`   | Table 4 — Prog1/Prog2/Prog3 AST configurations |
//! | `figure12` | Fig. 12 — kd-tree equation-1 sweep over tree depth |
//! | `table6`   | Table 6 — the three piecewise-function equations |
//! | `figure13` | Fig. 13 — FMM sweep over #points |

use grafter_workloads::harness::{Comparison, Normalized};

/// One printed row of an experiment table.
pub struct Row {
    /// x-axis value or configuration name.
    pub label: String,
    /// Fused / unfused ratios.
    pub norm: Normalized,
    /// Unfused (baseline) modelled runtime in cycles.
    pub base_cycles: u64,
    /// Live tree size in bytes.
    pub tree_bytes: u64,
}

impl Row {
    /// Builds a row from a comparison.
    pub fn from_comparison(label: impl Into<String>, cmp: &Comparison) -> Row {
        Row {
            label: label.into(),
            norm: cmp.normalized(),
            base_cycles: cmp.unfused.cycles,
            tree_bytes: cmp.unfused.tree_bytes,
        }
    }
}

/// Prints a table in the paper's normalised-metric format.
pub fn print_table(title: &str, x_axis: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>8} {:>12} {:>9} {:>9} {:>9} {:>14} {:>10}",
        x_axis, "visits", "instructions", "L2 miss", "L3 miss", "runtime", "base (cycles)", "tree"
    );
    for row in rows {
        println!(
            "{:<22} {:>8.3} {:>12.3} {:>9.3} {:>9.3} {:>9.3} {:>14} {:>10}",
            row.label,
            row.norm.visits,
            row.norm.instructions,
            row.norm.l2_misses,
            row.norm.l3_misses,
            row.norm.runtime,
            row.base_cycles,
            human_bytes(row.tree_bytes),
        );
    }
    println!("(all metric columns are fused / unfused; < 1.0 means fusion wins)");
}

/// Formats a byte count in human units.
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.1}MB", bytes as f64 / (1 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1}KB", bytes as f64 / (1 << 10) as f64)
    } else {
        format!("{bytes}B")
    }
}

/// Parses `--key value` style options from argv.
pub fn arg_value(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare flag is present.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Reading and strictly validating the committed `BENCH_vm.json` baseline
/// the `vm_compare --check` perf gate compares against.
///
/// The baseline is written by `vm_compare` itself and read here with the
/// shared `grafter_obs::json` parser. The gate's correctness depends on *strictness*: a workload renamed in either the
/// code or the committed file, or a median key that was never recorded,
/// must fail the gate loudly instead of silently skipping the comparison
/// ([`validate`](baseline::validate) is the single place that contract
/// is enforced, and the unit tests below pin it).
pub mod baseline {
    use grafter_obs::json::{parse, Json};

    /// One recorded batch-throughput entry of a baseline workload row.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct BatchEntry {
        /// Worker-thread count the entry was measured at.
        pub workers: usize,
        /// Trees per batch the entry was measured with.
        pub trees: usize,
        /// Recorded sustained throughput.
        pub trees_per_sec: f64,
    }

    /// The rows of the baseline's `"workloads"` array.
    fn rows(doc: &Json) -> &[Json] {
        doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
    }

    /// `workload`'s row of the baseline.
    fn row<'d>(doc: &'d Json, workload: &str) -> Option<&'d Json> {
        rows(doc)
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(workload))
    }

    /// The `"batch"` throughput entries of `workload`'s baseline row.
    pub fn batch_entries(json: &str, workload: &str) -> Option<Vec<BatchEntry>> {
        let doc = parse(json).ok()?;
        row(&doc, workload)?
            .get("batch")?
            .as_arr()?
            .iter()
            .map(|e| {
                Some(BatchEntry {
                    workers: e.get("workers")?.as_num()? as usize,
                    trees: e.get("trees")?.as_num()? as usize,
                    trees_per_sec: e.get("trees_per_sec")?.as_num()?,
                })
            })
            .collect()
    }

    /// Strictly validates every expected workload's `"batch"` array: it
    /// must exist, sweep exactly `expected_workers` (in order), and
    /// record positive finite throughput at a positive tree count.
    ///
    /// # Errors
    ///
    /// Returns the full list of violation messages (never a silent skip).
    pub fn validate_batch(
        json: &str,
        expected: &[&str],
        expected_workers: &[usize],
    ) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        for want in expected {
            let Some(entries) = batch_entries(json, want) else {
                problems.push(format!(
                    "baseline workload `{want}` has no parseable `batch` array"
                ));
                continue;
            };
            let workers: Vec<usize> = entries.iter().map(|e| e.workers).collect();
            if workers != expected_workers {
                problems.push(format!(
                    "baseline workload `{want}` sweeps workers {workers:?}, expected {expected_workers:?}"
                ));
            }
            for e in &entries {
                if e.trees == 0 {
                    problems.push(format!(
                        "baseline workload `{want}` batch entry at {} worker(s) has zero trees",
                        e.workers
                    ));
                }
                if !(e.trees_per_sec.is_finite() && e.trees_per_sec > 0.0) {
                    problems.push(format!(
                        "baseline workload `{want}` batch entry at {} worker(s) has invalid trees_per_sec {}",
                        e.workers, e.trees_per_sec
                    ));
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// All workload names recorded in the baseline JSON, in file order
    /// (none when the file does not parse).
    pub fn workload_names(json: &str) -> Vec<String> {
        let Ok(doc) = parse(json) else {
            return Vec::new();
        };
        rows(&doc)
            .iter()
            .filter_map(|r| r.get("name")?.as_str().map(str::to_string))
            .collect()
    }

    /// An integer median of `workload`'s row by key path, e.g.
    /// `["fused", "vm_ns"]` or `["fused", "opt", "O0"]`.
    pub fn median_u128(json: &str, workload: &str, keys: &[&str]) -> Option<u128> {
        let doc = parse(json).ok()?;
        let mut value = row(&doc, workload)?;
        for key in keys {
            value = value.get(key)?;
        }
        let n = value.as_num()?;
        (n >= 0.0 && n.fract() == 0.0).then_some(n as u128)
    }

    /// Strictly validates the baseline against the expected workload set
    /// and the required median key paths, returning every violation:
    /// workloads missing from the baseline, stale baseline workloads the
    /// expected set no longer contains, and absent keys.
    ///
    /// # Errors
    ///
    /// Returns the full list of violation messages (never a silent skip).
    pub fn validate(
        json: &str,
        expected: &[&str],
        required_keys: &[&[&str]],
    ) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        let found = workload_names(json);
        for want in expected {
            if !found.iter().any(|n| n == want) {
                problems.push(format!("baseline is missing workload `{want}`"));
            }
        }
        for have in &found {
            if !expected.contains(&have.as_str()) {
                problems.push(format!(
                    "baseline has stale workload `{have}` (not in the current case studies)"
                ));
            }
        }
        for want in expected {
            if !found.iter().any(|n| n == want) {
                continue; // already reported above
            }
            for keys in required_keys {
                if median_u128(json, want, keys).is_none() {
                    problems.push(format!(
                        "baseline workload `{want}` is missing key `{}`",
                        keys.join(".")
                    ));
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const GOOD: &str = r#"{
          "workloads": [
            {"name": "ast", "fused": {"interp_ns": 9, "vm_ns": 3, "opt": {"O0": 4, "O2": 2}}, "unfused": {"vm_ns": 7}},
            {"name": "fmm", "fused": {"interp_ns": 90, "vm_ns": 30, "opt": {"O0": 40, "O2": 20}}, "unfused": {"vm_ns": 70}}
          ]
        }"#;

        #[test]
        fn extracts_names_and_medians() {
            assert_eq!(workload_names(GOOD), vec!["ast", "fmm"]);
            assert_eq!(median_u128(GOOD, "ast", &["fused", "vm_ns"]), Some(3));
            assert_eq!(median_u128(GOOD, "ast", &["unfused", "vm_ns"]), Some(7));
            assert_eq!(median_u128(GOOD, "fmm", &["fused", "opt", "O2"]), Some(20));
            assert_eq!(median_u128(GOOD, "fmm", &["fused", "opt", "O0"]), Some(40));
        }

        #[test]
        fn fused_lookup_stays_inside_the_row_and_fused_object() {
            // `ast` has no opt key here; the lookup must not drift into
            // `fmm`'s fused object or into ast's unfused object.
            let json = r#"{"workloads": [
                {"name": "ast", "fused": {"vm_ns": 3}, "unfused": {"vm_ns": 7, "opt": {"O2": 9}}},
                {"name": "fmm", "fused": {"vm_ns": 30, "opt": {"O0": 40, "O2": 20}}}
            ]}"#;
            assert_eq!(median_u128(json, "ast", &["fused", "opt", "O2"]), None);
            assert_eq!(median_u128(json, "ast", &["fused", "vm_ns"]), Some(3));
        }

        #[test]
        fn validate_accepts_a_complete_baseline() {
            let required: &[&[&str]] = &[
                &["fused", "vm_ns"],
                &["fused", "opt", "O0"],
                &["fused", "opt", "O2"],
                &["unfused", "vm_ns"],
            ];
            assert!(validate(GOOD, &["ast", "fmm"], required).is_ok());
        }

        #[test]
        fn validate_fails_on_missing_workload() {
            // A workload renamed in the code ("render" here) must fail the
            // gate, not silently skip its regression comparison.
            let problems = validate(GOOD, &["ast", "render"], &[&["fused", "vm_ns"]]).unwrap_err();
            assert!(problems
                .iter()
                .any(|p| p.contains("missing workload `render`")));
            // The stale leftover under the old name is reported too.
            assert!(problems.iter().any(|p| p.contains("stale workload `fmm`")));
        }

        const WITH_BATCH: &str = r#"{
          "workloads": [
            {"name": "ast", "fused": {"vm_ns": 3}, "unfused": {"vm_ns": 7},
             "batch": [{"workers": 1, "trees": 16, "wall_ns": 100, "trees_per_sec": 1000.5},
                       {"workers": 4, "trees": 16, "wall_ns": 40, "trees_per_sec": 2500.25}]}
          ]
        }"#;

        #[test]
        fn batch_entries_parse_workers_trees_and_throughput() {
            let entries = batch_entries(WITH_BATCH, "ast").expect("parses");
            assert_eq!(entries.len(), 2);
            assert_eq!(entries[0].workers, 1);
            assert_eq!(entries[0].trees, 16);
            assert!((entries[0].trees_per_sec - 1000.5).abs() < 1e-9);
            assert_eq!(entries[1].workers, 4);
            assert!((entries[1].trees_per_sec - 2500.25).abs() < 1e-9);
            assert!(batch_entries(WITH_BATCH, "nope").is_none());
        }

        #[test]
        fn validate_batch_accepts_the_expected_sweep() {
            assert!(validate_batch(WITH_BATCH, &["ast"], &[1, 4]).is_ok());
        }

        #[test]
        fn validate_batch_fails_on_missing_array_or_wrong_sweep() {
            // GOOD has no batch arrays at all.
            let problems = validate_batch(GOOD, &["ast"], &[1, 4]).unwrap_err();
            assert!(problems[0].contains("no parseable `batch` array"));
            // A worker sweep that drifted from the code's is a violation.
            let problems = validate_batch(WITH_BATCH, &["ast"], &[1, 4, 8]).unwrap_err();
            assert!(problems[0].contains("sweeps workers"));
        }

        #[test]
        fn validate_batch_fails_on_degenerate_entries() {
            let bad = r#"{"workloads": [
                {"name": "ast", "batch": [{"workers": 1, "trees": 0, "wall_ns": 0, "trees_per_sec": 0.0}]}
            ]}"#;
            let problems = validate_batch(bad, &["ast"], &[1]).unwrap_err();
            assert!(problems.iter().any(|p| p.contains("zero trees")));
            assert!(problems.iter().any(|p| p.contains("invalid trees_per_sec")));
        }

        #[test]
        fn validate_fails_on_missing_key() {
            let no_opt = r#"{"workloads": [
                {"name": "ast", "fused": {"vm_ns": 3}, "unfused": {"vm_ns": 7}}
            ]}"#;
            let required: &[&[&str]] = &[&["fused", "vm_ns"], &["fused", "opt", "O0"]];
            let problems = validate(no_opt, &["ast"], required).unwrap_err();
            assert_eq!(problems.len(), 1);
            assert!(problems[0].contains("missing key `fused.opt.O0`"));
        }
    }
}
