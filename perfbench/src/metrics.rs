//! The benchmark's metric names and units — the single list the output,
//! `BENCHMARK.json` and the name test all agree on.

/// The four case studies, in `grafter_workloads::case_studies()` order.
pub const PROGRAMS: [&str; 4] = ["ast", "render", "kdtree", "fmm"];

/// Per-program layer metrics, `(family, unit, layer)`; the reported name
/// is `{family}.{program}`.
pub const PER_PROGRAM_LAYER: &[(&str, &str, &str)] = &[
    ("frontend.parse_ms", "ms", "frontend"),
    ("frontend.sema_ms", "ms", "frontend"),
    ("core.fuse_ms", "ms", "core"),
    ("core.functions", "count", "core"),
    ("core.fused_pairs", "count", "core"),
    ("core.candidate_pairs", "count", "core"),
    ("core.visits_ratio", "ratio", "core"),
    ("core.unfused_visits", "count", "core"),
    ("core.wall_ratio", "ratio", "core"),
    ("core.unfused_run_ms", "ms", "core"),
    ("vm.lower_ms", "ms", "vm"),
    ("vm.ops", "count", "vm"),
    ("vm.run_ms", "ms", "vm"),
    ("vm.visits", "count", "vm"),
    ("vm.instructions", "count", "vm"),
    ("vm.loads", "count", "vm"),
    ("vm.stores", "count", "vm"),
    ("runtime.tree_build_ms", "ms", "runtime"),
    ("runtime.input_nodes", "count", "runtime"),
    ("runtime.input_bytes", "bytes", "runtime"),
    ("server.decode_ms", "ms", "server"),
    ("server.encode_ms", "ms", "server"),
    ("server.round_trip_ms", "ms", "server"),
    ("server.overhead_ms", "ms", "server"),
];

/// Layer metrics over all programs, `(name, unit, layer)`.
pub const GLOBAL_LAYER: &[(&str, &str, &str)] = &[
    ("server.cache_hit_ratio", "ratio", "server"),
    ("server.cache_lookups", "count", "server"),
    ("server.lowerings", "count", "server"),
    ("server.error_frames", "count", "server"),
    ("engine.pool_spawned", "count", "engine"),
    ("trace.overhead_pct", "%", "benchmark"),
];

/// The end-to-end metrics, `(name, unit)`, every one reported by every
/// workload of an untraced run.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut v = vec![("setup_s".to_string(), "s")];
    for p in PROGRAMS {
        v.push((format!("{p}_ms_p50"), "ms"));
    }
    v.push(("requests_per_s".to_string(), "1/s"));
    v.push(("peak_rss_mb".to_string(), "MB"));
    v
}

/// The per-layer metrics, `(name, unit, layer)`, every one reported by
/// every workload of a traced run.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v = Vec::new();
    for &(family, unit, layer) in PER_PROGRAM_LAYER {
        for p in PROGRAMS {
            v.push((format!("{family}.{p}"), unit, layer));
        }
    }
    for &(name, unit, layer) in GLOBAL_LAYER {
        v.push((name.to_string(), unit, layer));
    }
    v
}
