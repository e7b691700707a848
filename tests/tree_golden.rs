//! Golden tests for the case studies' input trees: for each of the four
//! case studies, at its test and bench sizes with seed 42, the node
//! count, the live bytes, an FNV-1a digest of the tree's snapshot and an
//! FNV-1a digest of every node's simulated address (in allocation order)
//! are pinned in `tests/golden/trees.txt`.
//!
//! Perfbench's oracle and the differential suites build their reference
//! trees with the same generators they test against, so a change to how
//! a tree is built (field resolution, slot layout, allocation order)
//! would slip past them; it shows up here instead.
//!
//! Regenerate after an intentional change with
//! `BLESS=1 cargo test --test tree_golden`.

use std::fs;
use std::path::PathBuf;

use grafter_engine::fnv1a;
use grafter_runtime::{Heap, NodeId, SnapValue};
use grafter_workloads::case_studies;

const SEED: u64 = 42;

/// The snapshot as bytes: each node's class name, a NUL, then one tag
/// byte and eight little-endian bytes per slot.
fn snapshot_bytes(snapshot: &[(String, Vec<SnapValue>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (class, slots) in snapshot {
        out.extend_from_slice(class.as_bytes());
        out.push(0);
        for v in slots {
            let (tag, bits) = match *v {
                SnapValue::Int(i) => (b'i', i as u64),
                SnapValue::Float(f) => (b'f', f.to_bits()),
                SnapValue::Bool(b) => (b'b', b as u64),
                SnapValue::Null => (b'n', 0),
                SnapValue::Child(c) => (b'c', c as u64),
            };
            out.push(tag);
            out.extend_from_slice(&bits.to_le_bytes());
        }
    }
    out
}

fn tree_line(name: &str, label: &str, heap: &Heap, root: NodeId, size: usize) -> String {
    let addrs: Vec<u8> = (0..heap.len() as u32)
        .flat_map(|i| heap.addr_of(NodeId(i)).to_le_bytes())
        .collect();
    format!(
        "{name} {label}={size} seed={SEED} nodes={} live_bytes={} snapshot={:016x} addrs={:016x}\n",
        heap.len(),
        heap.live_bytes(),
        fnv1a(&snapshot_bytes(&heap.snapshot(root))),
        fnv1a(&addrs),
    )
}

#[test]
fn case_study_trees_match_goldens_at_test_and_bench_size() {
    let mut actual = String::new();
    for case in case_studies() {
        for (label, size) in [
            ("test_size", case.test_size),
            ("bench_size", case.bench_size),
        ] {
            let mut heap = Heap::new(case.compiled.program());
            let root = (case.build)(&mut heap, size, SEED);
            actual.push_str(&tree_line(case.name, label, &heap, root, size));
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trees.txt");
    if std::env::var_os("BLESS").is_some() {
        fs::write(&path, &actual).unwrap();
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
        "case-study trees drifted; rerun with BLESS=1 if the change is intended"
    );
}
