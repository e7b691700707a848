//! End-to-end protocol tests against a live in-process daemon: every
//! edge case a hostile or buggy client can produce must fail *typed* —
//! the connection (and always the daemon) survives, sessions don't leak,
//! and subsequent requests work.

use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use grafter_engine::{fnv1a, Backend, FusionOptions, OptLevel};
use grafter_obs::json::{parse, Json};
use grafter_runtime::Value;
use grafter_server::proto::{
    render_bare, render_explain, render_run, render_run_batch, write_frame, FrameReader, Incoming,
    InputSpec, ProgramSpec, TreeSpec, MAX_BODY, MAX_PASSES,
};
use grafter_server::{Daemon, DaemonOptions, MAX_CONNECTIONS};

const SRC: &str = "tree class N { int a = 0; virtual traversal t() { a = a + 1; } }";

fn program() -> ProgramSpec {
    ProgramSpec {
        source: SRC.to_string(),
        root: "N".to_string(),
        passes: vec!["t".to_string()],
        backend: Backend::Vm,
        opt_level: OptLevel::default(),
        fusion: FusionOptions::default(),
        args: Vec::new(),
    }
}

fn leaf() -> InputSpec {
    InputSpec::Tree(TreeSpec {
        class: "N".to_string(),
        fields: vec![("a".to_string(), Value::Int(0))],
        children: Vec::new(),
    })
}

/// A daemon serving on an ephemeral port until `shutdown` flips.
fn spawn_daemon() -> (SocketAddr, Arc<AtomicBool>, thread::JoinHandle<()>) {
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            cache_capacity: 8,
            workers: 2,
        },
    )
    .expect("bind ephemeral port");
    let addr = daemon.local_addr().expect("resolved address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = thread::spawn(move || daemon.serve(&flag).expect("serve"));
    (addr, shutdown, handle)
}

struct Client {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: FrameReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        }
    }

    /// Writes raw bytes (deliberately malformed frames).
    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send raw");
        self.writer.flush().expect("flush raw");
    }

    fn recv(&mut self) -> Json {
        loop {
            match self.reader.read_frame().expect("read response frame") {
                Incoming::Frame(body) => return parse(&body).expect("parse response"),
                Incoming::Idle => {}
                Incoming::Closed => panic!("daemon closed the connection"),
            }
        }
    }

    fn call(&mut self, body: &str) -> Json {
        write_frame(&mut self.writer, body).expect("send frame");
        self.recv()
    }
}

fn is_ok(doc: &Json) -> bool {
    matches!(doc.get("ok"), Some(Json::Bool(true)))
}

fn error_stage(doc: &Json) -> &str {
    doc.get("error")
        .and_then(|e| e.get("stage"))
        .and_then(Json::as_str)
        .expect("error stage")
}

/// Extracts a response's `fusion` coverage object as (fused, missed,
/// blocked), asserting all three keys are present numbers.
fn fusion_counts(doc: &Json) -> (u64, u64, u64) {
    let f = doc.get("fusion").expect("fusion object");
    let n = |key: &str| f.get(key).and_then(Json::as_num).expect(key) as u64;
    (n("fused"), n("missed"), n("blocked"))
}

#[test]
fn ping_run_and_batch_round_trip() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let pong = client.call(&render_bare("ping"));
    assert!(is_ok(&pong));

    let report = client.call(&render_run(&program(), &leaf()));
    assert!(is_ok(&report), "run failed: {report:?}");
    let visits = report
        .get("report")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get("visits"))
        .and_then(Json::as_num)
        .expect("report.metrics.visits");
    assert_eq!(visits as u64, 1, "one leaf, one visit");
    // Single-pass program: the run's fusion coverage object is present
    // with all-zero pair counts.
    assert_eq!(fusion_counts(&report), (0, 0, 0));

    // A batch streams back ordered chunks then a done frame.
    let inputs: Vec<InputSpec> = (0..5).map(|_| leaf()).collect();
    write_frame(
        &mut client.writer,
        &render_run_batch(&program(), &inputs, 4),
    )
    .expect("send batch");
    let mut seen = 0;
    let mut last_first = None;
    loop {
        let frame = client.recv();
        assert!(is_ok(&frame), "batch frame failed: {frame:?}");
        if matches!(frame.get("done"), Some(Json::Bool(true))) {
            assert_eq!(
                frame.get("total").and_then(Json::as_num).map(|n| n as u64),
                Some(5)
            );
            break;
        }
        let first = frame.get("first").and_then(Json::as_num).expect("first") as usize;
        if let Some(prev) = last_first {
            assert!(first > prev, "chunks must arrive in input order");
        }
        last_first = Some(first);
        seen += frame
            .get("results")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
    }
    assert_eq!(seen, 5);

    let stats = client.call(&render_bare("stats"));
    assert!(is_ok(&stats));
    // Stats aggregate coverage over resident engines; only the one
    // zero-pair engine is cached here.
    assert_eq!(fusion_counts(&stats), (0, 0, 0));
    let misses = stats
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_num)
        .expect("cache.misses");
    assert_eq!(misses as u64, 1, "run and batch share one cached engine");
    let pool = stats.get("pool").expect("pool stats");
    let busy = pool.get("busy").and_then(Json::as_num).expect("pool.busy");
    let idle = pool.get("idle").and_then(Json::as_num).expect("pool.idle");
    let threads = pool
        .get("threads")
        .and_then(Json::as_num)
        .expect("pool.threads");
    assert_eq!(
        busy + idle,
        threads,
        "busy and idle gauges partition the pool"
    );

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn malformed_json_and_unknown_method_are_typed_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let resp = client.call("this is not json");
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");

    let resp = client.call("{\"method\":\"teleport\"}");
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");

    // Schema violation inside a known method.
    let resp = client.call("{\"method\":\"run\"}");
    assert!(!is_ok(&resp));

    // A compile error is typed with its pipeline stage.
    let mut bad = program();
    bad.source = "tree class N { this does not parse }".to_string();
    let resp = client.call(&render_run(&bad, &leaf()));
    assert!(!is_ok(&resp));
    assert_ne!(
        error_stage(&resp),
        "proto",
        "compile errors carry their stage"
    );

    // The same connection still works.
    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn oversized_body_is_refused_but_connection_survives() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let huge = "x".repeat(MAX_BODY + 1);
    let mut frame = Vec::with_capacity(huge.len() + 16);
    frame.extend_from_slice(format!("{}\n", huge.len()).as_bytes());
    frame.extend_from_slice(huge.as_bytes());
    frame.push(b'\n');
    client.send_raw(&frame);

    let resp = client.recv();
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");
    assert!(
        resp.get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("message")
            .contains("cap"),
        "error names the body cap"
    );

    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn bad_utf8_body_is_typed_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    client.send_raw(b"4\n\xff\xfeab\n");
    let resp = client.recv();
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");

    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn mid_stream_disconnect_does_not_kill_the_daemon() {
    let (addr, shutdown, handle) = spawn_daemon();

    // Kick off a batch big enough for several chunk frames, read one
    // frame, then vanish.
    {
        let mut client = Client::connect(addr);
        let inputs: Vec<InputSpec> = (0..40).map(|_| leaf()).collect();
        write_frame(
            &mut client.writer,
            &render_run_batch(&program(), &inputs, 4),
        )
        .expect("send batch");
        let first = client.recv();
        assert!(is_ok(&first));
        // Dropped here: mid-stream disconnect.
    }

    // The daemon keeps serving: a fresh connection completes a full
    // batch with every result accounted for.
    let mut client = Client::connect(addr);
    let inputs: Vec<InputSpec> = (0..10).map(|_| leaf()).collect();
    write_frame(
        &mut client.writer,
        &render_run_batch(&program(), &inputs, 4),
    )
    .expect("send batch");
    let mut seen = 0;
    loop {
        let frame = client.recv();
        assert!(is_ok(&frame));
        if matches!(frame.get("done"), Some(Json::Bool(true))) {
            break;
        }
        seen += frame
            .get("results")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
    }
    assert_eq!(seen, 10, "post-disconnect batches are complete");

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn unknown_workload_and_oversized_gen_are_config_errors() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let resp = client.call(&render_run(
        &program(),
        &InputSpec::Gen {
            workload: "btree".to_string(),
            size: 8,
            seed: 1,
        },
    ));
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "config");

    // A kdtree depth that would OOM the daemon is refused up front.
    let resp = client.call(&render_run(
        &program(),
        &InputSpec::Gen {
            workload: "kdtree".to_string(),
            size: 48,
            seed: 1,
        },
    ));
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "config");

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn shutdown_waits_for_a_partially_received_request() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);
    let body = render_bare("ping");

    // Send only the length header, flip shutdown, then finish the frame
    // within the grace period: the in-flight request must still be
    // answered before the daemon exits.
    client.send_raw(format!("{}\n", body.len()).as_bytes());
    thread::sleep(Duration::from_millis(120));
    shutdown.store(true, Ordering::SeqCst);
    thread::sleep(Duration::from_millis(120));
    client.send_raw(format!("{body}\n").as_bytes());

    let resp = client.recv();
    assert!(is_ok(&resp), "in-flight request answered during drain");

    handle.join().expect("daemon drains and exits");
}

/// The `explain` method compiles (or reuses) the program's engine and
/// returns its per-pair verdicts; a subsequent `run` and `stats` report
/// matching coverage counts.
#[test]
fn explain_round_trips_verdicts_and_matches_run_coverage() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    // Two independent same-receiver calls: one pair per recursion depth,
    // all fused under default options.
    let mut fusable = program();
    fusable.source = "tree class Node { child Node* next; int a = 0; virtual traversal go() {} } \
                      tree class Cons : Node { traversal go() { a = a + 1; this->next->go(); \
                      this->next->go(); } } \
                      tree class End : Node { }"
        .to_string();
    fusable.root = "Node".to_string();
    fusable.passes = vec!["go".to_string()];

    let resp = client.call(&render_explain(&fusable));
    assert!(is_ok(&resp), "explain failed: {resp:?}");
    let explain = resp.get("explain").expect("explain document");
    let totals = explain.get("totals").expect("totals");
    let fused = totals.get("fused").and_then(Json::as_num).expect("fused") as u64;
    assert!(fused >= 1, "the pair program fuses at least one pair");
    let pairs = explain.get("pairs").and_then(Json::as_arr).expect("pairs");
    assert!(!pairs.is_empty());
    for p in pairs {
        assert!(p.get("verdict").and_then(Json::as_str).is_some());
        assert!(p.get("reason").and_then(Json::as_str).is_some());
        assert!(p.get("left").and_then(|l| l.get("span")).is_some());
    }

    // A run on the same program reports the same coverage, and the
    // explain-built engine is reused (same cache key).
    let report = client.call(&render_run(
        &fusable,
        &InputSpec::Tree(TreeSpec {
            class: "End".to_string(),
            fields: Vec::new(),
            children: Vec::new(),
        }),
    ));
    assert!(is_ok(&report), "run failed: {report:?}");
    let (run_fused, run_missed, run_blocked) = fusion_counts(&report);
    assert_eq!(run_fused, fused);

    let stats = client.call(&render_bare("stats"));
    assert!(is_ok(&stats));
    let misses = stats
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_num)
        .expect("cache.misses");
    assert_eq!(misses as u64, 1, "explain and run share one cached engine");
    assert_eq!(fusion_counts(&stats), (run_fused, run_missed, run_blocked));

    // Explain on a broken program is a typed compile error.
    let mut bad = program();
    bad.source = "tree class N { nonsense }".to_string();
    let resp = client.call(&render_explain(&bad));
    assert!(!is_ok(&resp));
    assert_ne!(error_stage(&resp), "proto");

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

/// Old clients may still send a `"parallel"` object on `run`; the daemon
/// ignores it like any other unknown key, so the report is the one the
/// same body gets without it.
#[test]
fn parallel_field_from_old_clients_is_ignored() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let case = grafter_workloads::case_studies()
        .into_iter()
        .find(|c| c.name == "kdtree")
        .expect("kdtree case");
    let program = ProgramSpec {
        source: case.source.to_string(),
        root: case.root_class.to_string(),
        passes: case.passes.iter().map(|s| (*s).to_string()).collect(),
        backend: Backend::Vm,
        opt_level: OptLevel::default(),
        fusion: FusionOptions::default(),
        args: case.args.clone(),
    };
    let input = InputSpec::Gen {
        workload: "kdtree".to_string(),
        size: 8,
        seed: 42,
    };
    let body = render_run(&program, &input);
    let old_body = format!(
        "{},\"parallel\":{{\"workers\":2}}}}",
        body.strip_suffix('}').expect("run body is one JSON object")
    );

    let plain = client.call(&body);
    assert!(is_ok(&plain), "run failed: {plain:?}");
    let old = client.call(&old_body);
    assert!(is_ok(&old), "run with `parallel` failed: {old:?}");
    // Equal everywhere except wall time.
    let report = |doc: &Json| {
        let mut r = doc.get("report").expect("report").clone();
        if let Json::Obj(map) = &mut r {
            map.remove("wall_ns");
        }
        r
    };
    assert_eq!(report(&plain), report(&old));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn nesting_bomb_is_a_typed_proto_error_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    // ~600 KB, well under the body cap, nested far deeper than any stack
    // could recurse through.
    let depth = 300_000;
    let bomb = format!(
        "{{\"method\":\"ping\",\"x\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    assert!(bomb.len() < MAX_BODY);
    let resp = client.call(&bomb);
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");

    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn removed_jit_backend_is_a_config_error() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let body = render_run(&program(), &leaf());
    assert!(body.contains("\"backend\":\"vm\""), "{body}");
    let resp = client.call(&body.replace("\"backend\":\"vm\"", "\"backend\":\"jit\""));
    assert!(!is_ok(&resp), "`jit` still runs: {resp:?}");
    assert_eq!(error_stage(&resp), "config");

    assert!(is_ok(&client.call(&body)));

    // `O1` was removed with its optimizer passes.
    assert!(body.contains("\"opt_level\":\"O2\""), "{body}");
    let resp = client.call(&body.replace("\"opt_level\":\"O2\"", "\"opt_level\":\"O1\""));
    assert!(!is_ok(&resp), "`O1` still runs: {resp:?}");
    assert_eq!(error_stage(&resp), "config");

    assert!(is_ok(&client.call(&body)));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn hostile_numbers_are_typed_errors_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    // Each template swaps one number of a well-formed request for `{x}`.
    let run = render_run(&program(), &leaf());
    let with_float_arg = ProgramSpec {
        args: vec![vec![Value::Float(0.5)]],
        ..program()
    };
    let float_run = render_run(&with_float_arg, &leaf());
    let gen = InputSpec::Gen {
        workload: "ast".to_string(),
        size: 8,
        seed: 7,
    };
    let batch = render_run_batch(&program(), &[gen], 4);
    let template = |body: &str, from: &str, to: &str| {
        assert!(body.contains(from), "`{from}` not in {body}");
        body.replace(from, to)
    };
    let cutoffs = ["0", "17", "1e9", "-1", "1.5", "1e999"];
    let counts = ["-1", "1.5", "1e999", "1e300"];
    let cases = [
        (
            template(&run, "\"max_group_size\":8", "\"max_group_size\":{x}"),
            &cutoffs[..],
            "config",
        ),
        (
            template(&run, "\"max_occurrences\":5", "\"max_occurrences\":{x}"),
            &cutoffs[..],
            "config",
        ),
        (
            template(&batch, "\"size\":8", "\"size\":{x}"),
            &counts[..],
            "proto",
        ),
        (
            template(&batch, "\"seed\":7", "\"seed\":{x}"),
            &counts[..],
            "proto",
        ),
        (
            template(&batch, "\"window\":4", "\"window\":{x}"),
            &counts[..],
            "proto",
        ),
        (
            template(&run, "{\"i\":0}", "{\"i\":{x}}"),
            &["9223372036854775808", "-1e300", "1.5", "1e999"][..],
            "proto",
        ),
        (
            template(&float_run, "{\"f\":0.5}", "{\"f\":{x}}"),
            &["1e999", "-1e999"][..],
            "proto",
        ),
    ];
    for (body, values, stage) in cases {
        for x in values {
            let resp = client.call(&body.replace("{x}", x));
            assert!(!is_ok(&resp), "{x} accepted in {body}");
            assert_eq!(error_stage(&resp), stage, "{x}: {resp:?}");
            assert!(is_ok(&client.call(&render_bare("ping"))));
        }
    }

    // The range ends are still accepted.
    for body in [
        template(&run, "\"max_group_size\":8", "\"max_group_size\":16"),
        template(&run, "\"max_occurrences\":5", "\"max_occurrences\":1"),
        template(&run, "{\"i\":0}", "{\"i\":-9007199254740992}"),
    ] {
        let resp = client.call(&body);
        assert!(is_ok(&resp), "{body}: {resp:?}");
    }

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn deeply_nested_sources_are_typed_parse_errors_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let traversal =
        |body: String| format!("tree class N {{ int a = 0; virtual traversal t() {{ {body} }} }}");
    for source in [
        traversal(format!(
            "a = {}1{};",
            "(".repeat(30_000),
            ")".repeat(30_000)
        )),
        // Binary chains build left-nested trees without the parser
        // recursing; a 200k-term chain aborted the daemon before the cap.
        traversal(format!("a = {};", vec!["1"; 200_000].join("+"))),
        traversal(format!(
            "{}a = 1;{}",
            "if (a == 0) { ".repeat(20_000),
            " }".repeat(20_000)
        )),
    ] {
        assert!(source.len() < MAX_BODY);
        let spec = ProgramSpec {
            source,
            ..program()
        };
        let resp = client.call(&render_run(&spec, &leaf()));
        assert!(!is_ok(&resp), "{resp:?}");
        assert_eq!(error_stage(&resp), "parse", "{resp:?}");
        assert!(is_ok(&client.call(&render_bare("ping"))));
    }

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn sources_past_a_bytecode_limit_are_typed_lower_errors_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    // 70,000 locals need more registers than the bytecode numbers; the
    // same program twice also proves the failed build freed its cache
    // slot instead of leaving the second request waiting on it.
    let locals: String = (0..70_000).map(|i| format!("int l{i}; ")).collect();
    let spec = ProgramSpec {
        source: format!("tree class N {{ int a = 0; virtual traversal t() {{ {locals} }} }}"),
        ..program()
    };
    assert!(spec.source.len() < MAX_BODY);
    for _ in 0..2 {
        let resp = client.call(&render_run(&spec, &leaf()));
        assert!(!is_ok(&resp), "{resp:?}");
        assert_eq!(error_stage(&resp), "lower", "{resp:?}");
    }
    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn sources_past_the_layout_bound_are_typed_sema_errors_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    // 4,100 one-field classes need 4,100 x 4,100 layout entries, past
    // the 2^24 bound; a wider program could ask for gigabytes.
    let mut source =
        "tree class N { int a = 0; virtual traversal t() { a = a + 1; } }\n".to_string();
    for i in 1..4_100 {
        source += &format!("tree class C{i} : N {{ int f{i} = 0; }}\n");
    }
    let spec = ProgramSpec {
        source,
        ..program()
    };
    assert!(spec.source.len() < MAX_BODY);
    let resp = client.call(&render_run(&spec, &leaf()));
    assert!(!is_ok(&resp), "{resp:?}");
    assert_eq!(error_stage(&resp), "sema", "{resp:?}");
    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn sources_sharing_a_hash_get_their_own_engines() {
    // Two programs whose source texts share an FNV-1a hash, found by a
    // collision search: a cache keyed by the hash would answer the second
    // request with the first program's engine.
    let sources = [
        "global int G = 0;\ntree class N {\n  traversal t() { G = 1; }\n}\n/* 653afe09b6d9be5c */\n",
        "global int G = 0;\ntree class N {\n  traversal t() { G = 2; }\n}\n/* c33e30d1c83afe37 */\n",
    ];
    assert_eq!(fnv1a(sources[0].as_bytes()), fnv1a(sources[1].as_bytes()));

    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);
    let node = InputSpec::Tree(TreeSpec {
        class: "N".to_string(),
        fields: Vec::new(),
        children: Vec::new(),
    });
    for (source, g) in sources.into_iter().zip([1.0, 2.0]) {
        let spec = ProgramSpec {
            source: source.to_string(),
            ..program()
        };
        let resp = client.call(&render_run(&spec, &node));
        assert!(is_ok(&resp), "{resp:?}");
        let globals = resp
            .get("report")
            .and_then(|r| r.get("globals"))
            .and_then(Json::as_arr)
            .expect("report.globals");
        assert_eq!(globals[0].get("value").and_then(Json::as_num), Some(g));
    }
    let stats = client.call(&render_bare("stats"));
    let misses = stats
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_num)
        .expect("cache.misses");
    assert_eq!(misses as u64, 2, "one compile per program");

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn inline_trees_naming_unknown_classes_or_fields_are_config_errors() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let unknown_class = TreeSpec {
        class: "NoSuchClass".to_string(),
        fields: Vec::new(),
        children: Vec::new(),
    };
    let unknown_field = TreeSpec {
        class: "N".to_string(),
        fields: vec![("nope".to_string(), Value::Int(1))],
        children: Vec::new(),
    };
    let unknown_child = TreeSpec {
        class: "N".to_string(),
        fields: Vec::new(),
        children: vec![("kid".to_string(), None)],
    };
    for tree in [unknown_class, unknown_field, unknown_child] {
        let resp = client.call(&render_run(&program(), &InputSpec::Tree(tree)));
        assert!(!is_ok(&resp), "{resp:?}");
        assert_eq!(error_stage(&resp), "config", "{resp:?}");
        let message = resp
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("error message");
        assert!(message.contains("unknown"), "{message}");
        assert!(!message.contains("panicked"), "{message}");
        assert!(is_ok(&client.call(&render_bare("ping"))));
    }
    // The same program still runs a well-formed tree.
    assert!(is_ok(&client.call(&render_run(&program(), &leaf()))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

/// Whether a fresh connection's `ping` gets a pong. A refused connection
/// answers with an error frame and closes; a ping that races the close
/// may instead see the connection reset.
fn fresh_ping_succeeds(addr: SocketAddr) -> bool {
    let mut client = Client::connect(addr);
    if write_frame(&mut client.writer, &render_bare("ping")).is_err() {
        return false;
    }
    loop {
        match client.reader.read_frame() {
            Ok(Incoming::Frame(body)) => return is_ok(&parse(&body).expect("parse response")),
            Ok(Incoming::Idle) => {}
            Ok(Incoming::Closed) | Err(_) => return false,
        }
    }
}

#[test]
fn connections_past_the_cap_get_an_error_frame_and_are_closed() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut held: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| Client::connect(addr))
        .collect();
    // A pong on each proves the daemon serves all of them at once.
    for client in &mut held {
        assert!(is_ok(&client.call(&render_bare("ping"))));
    }

    // The next connection gets one `proto` error frame, then EOF.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut refused = FrameReader::new(stream);
    let Ok(Incoming::Frame(body)) = refused.read_frame() else {
        panic!("no refusal frame within 10 s");
    };
    let refusal = parse(&body).expect("parse refusal");
    assert_eq!(error_stage(&refusal), "proto", "{refusal:?}");
    assert!(
        matches!(refused.read_frame(), Ok(Incoming::Closed)),
        "a refused connection is closed"
    );

    // Closing a held connection frees its slot once the daemon sees the
    // close; until then a fresh connection may still be refused.
    drop(held.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    while !fresh_ping_succeeds(addr) {
        assert!(
            Instant::now() < deadline,
            "a closed connection's slot was never freed"
        );
        thread::sleep(Duration::from_millis(20));
    }
    // The held connections were never disturbed.
    assert!(is_ok(&held[0].call(&render_bare("ping"))));

    drop(held);
    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("daemon drains and exits");
}

/// A three-class list program whose `go` visits every cell, entered with
/// `passes` copies of `go`.
fn list_program(passes: usize) -> ProgramSpec {
    ProgramSpec {
        source: "tree class Node { child Node* next; int a = 0; virtual traversal go() {} } \
                 tree class Cons : Node { traversal go() { a = a + 1; this->next->go(); } } \
                 tree class End : Node { }"
            .to_string(),
        root: "Node".to_string(),
        passes: vec!["go".to_string(); passes],
        ..program()
    }
}

/// An inline list of `len` cells.
fn list(len: usize) -> InputSpec {
    let mut tree = TreeSpec {
        class: "End".to_string(),
        fields: Vec::new(),
        children: Vec::new(),
    };
    for _ in 0..len {
        tree = TreeSpec {
            class: "Cons".to_string(),
            fields: Vec::new(),
            children: vec![("next".to_string(), Some(tree))],
        };
    }
    InputSpec::Tree(tree)
}

/// Sends one `run_batch` and collects its results, checking that chunks
/// arrive numbered in order, each starting where the previous one ended,
/// and that the done frame counts every result.
fn batch_results(client: &mut Client, body: &str) -> Vec<Json> {
    write_frame(&mut client.writer, body).expect("send batch");
    let mut results = Vec::new();
    let mut chunk = 0;
    loop {
        let frame = client.recv();
        assert!(is_ok(&frame), "batch frame failed: {frame:?}");
        let num = |key: &str| frame.get(key).and_then(Json::as_num).map(|n| n as usize);
        if matches!(frame.get("done"), Some(Json::Bool(true))) {
            assert_eq!(num("total"), Some(results.len()));
            return results;
        }
        assert_eq!(num("chunk"), Some(chunk));
        assert_eq!(num("first"), Some(results.len()), "chunks in input order");
        results.extend_from_slice(
            frame
                .get("results")
                .and_then(Json::as_arr)
                .expect("results"),
        );
        chunk += 1;
    }
}

/// A report without its wall time, which differs run to run.
fn without_wall(report: &Json) -> Json {
    let mut r = report.clone();
    if let Json::Obj(map) = &mut r {
        map.remove("wall_ns");
    }
    r
}

#[test]
fn streamed_batches_arrive_in_order_with_bounded_window() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);
    let program = list_program(1);
    // Lists of 1..=17 cells: every input's report is different.
    let inputs: Vec<InputSpec> = (1..=17).map(list).collect();
    let singles: Vec<Json> = inputs
        .iter()
        .map(|input| {
            let resp = client.call(&render_run(&program, input));
            assert!(is_ok(&resp), "run failed: {resp:?}");
            without_wall(resp.get("report").expect("report"))
        })
        .collect();
    for window in [1, 2, 7] {
        let results = batch_results(&mut client, &render_run_batch(&program, &inputs, window));
        assert_eq!(results.len(), inputs.len(), "window={window}");
        for (i, (result, single)) in results.iter().zip(&singles).enumerate() {
            assert_eq!(&without_wall(result), single, "window={window} input {i}");
        }
    }

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn fresh_connections_are_served_without_an_accept_delay() {
    let (addr, shutdown, handle) = spawn_daemon();
    // One connection after another, each closed before the next opens:
    // a polling acceptor makes each one wait out its sleep.
    let mut waits: Vec<Duration> = (0..10)
        .map(|_| {
            let start = Instant::now();
            let mut client = Client::connect(addr);
            assert!(is_ok(&client.call(&render_bare("ping"))));
            start.elapsed()
        })
        .collect();
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median connect-to-pong {median:?} (all: {waits:?})"
    );

    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("daemon thread");
}

#[test]
fn passes_past_the_cap_are_config_errors_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    for passes in [MAX_PASSES + 1, 1024] {
        let start = Instant::now();
        let resp = client.call(&render_run(&list_program(passes), &list(2)));
        assert!(!is_ok(&resp), "{passes} passes accepted");
        assert_eq!(error_stage(&resp), "config", "{resp:?}");
        // Refused before compiling: 1,024 passes take minutes to fuse.
        assert!(start.elapsed() < Duration::from_secs(5), "{passes} passes");
        assert!(is_ok(&client.call(&render_bare("ping"))));
    }
    let resp = client.call(&render_run(&list_program(MAX_PASSES), &list(2)));
    assert!(
        is_ok(&resp),
        "{MAX_PASSES} passes must still build: {resp:?}"
    );
    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn a_batch_of_ten_thousand_leaves_streams_back_in_input_order() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let inputs: Vec<InputSpec> = (0..10_000).map(|_| leaf()).collect();
    let results = batch_results(&mut client, &render_run_batch(&program(), &inputs, 3));
    assert_eq!(results.len(), 10_000);
    assert!(results.iter().all(|r| r.get("metrics").is_some()));
    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

/// The `pool` object of a `stats` response as (threads, spawned_total,
/// jobs_executed), checking that its busy and idle gauges add up.
fn executor_stats(client: &mut Client) -> (u64, u64, u64) {
    let stats = client.call(&render_bare("stats"));
    let pool = stats.get("pool").expect("pool stats");
    let num = |key: &str| pool.get(key).and_then(Json::as_num).expect(key) as u64;
    assert_eq!(num("busy") + num("idle"), num("threads"), "{pool:?}");
    (num("threads"), num("spawned_total"), num("jobs_executed"))
}

#[test]
fn executor_width_is_fixed_and_every_request_is_counted_as_jobs() {
    let (addr, shutdown, handle) = spawn_daemon();
    let (_, _, before) = executor_stats(&mut Client::connect(addr));
    // Each of three connections sends a run and then a batch, for batches
    // of 0, 1 and 5 inputs: 3 + 0 + 1 + 2 jobs on the daemon's two threads.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            thread::spawn(move || {
                let mut client = Client::connect(addr);
                for inputs in [0, 1, 5] {
                    assert!(is_ok(&client.call(&render_run(&program(), &leaf()))));
                    let batch: Vec<InputSpec> = (0..inputs).map(|_| leaf()).collect();
                    let results =
                        batch_results(&mut client, &render_run_batch(&program(), &batch, 4));
                    assert_eq!(results.len(), inputs);
                    let (threads, spawned, _) = executor_stats(&mut client);
                    assert_eq!((threads, spawned), (2, 2), "no thread per request");
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let (threads, spawned, after) = executor_stats(&mut Client::connect(addr));
    assert_eq!((threads, spawned), (2, 2));
    assert_eq!(
        after - before,
        3 * (3 + 3),
        "one job per run, min(2, inputs) per batch"
    );

    shutdown.store(true, Ordering::SeqCst);
    handle.join().expect("daemon thread");
}
