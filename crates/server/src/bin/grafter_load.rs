//! grafter-load — the grafterd load generator.
//!
//! ```text
//! grafter-load --addr HOST:PORT [--smoke] [--clients N] [--out PATH]
//! ```
//!
//! Drives all four paper case studies against a running daemon in three
//! phases:
//!
//! 1. **Warm**: compiles every case's engine (cache misses) and runs one
//!    batch per case.
//! 2. **Uncached**: per-case source variants (a comment suffix changes
//!    the source hash) force fresh compiles — the mixed cached/uncached
//!    traffic a real service sees.
//! 3. **Steady**: concurrent clients hammer the *cached* engines with
//!    single runs and streamed batches, measuring per-request latency.
//!
//! After the steady phase the daemon's `stats` method must show **zero**
//! new lowerings and **zero** new executor threads (`pool.spawned_total`)
//! — cached requests neither compile nor spawn. A violation exits 1.
//!
//! Results (p50/p99 latency, sustained trees/sec per case) land in
//! `BENCH_server.json`.

use std::io::{self, BufWriter};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Instant;

use grafter_obs::json::{parse, Json, JsonWriter};
use grafter_server::proto::{
    render_bare, render_run, render_run_batch, write_frame, FrameReader, Incoming, InputSpec,
    ProgramSpec,
};
use grafter_workloads::case_studies;

/// Reorder window requested for streamed batches.
const WINDOW: usize = 8;

struct Shape {
    /// Concurrent clients per case in the steady phase.
    clients: usize,
    /// Single `run` requests per client.
    runs_per_client: usize,
    /// Inputs per `run_batch` request (one per client).
    batch: usize,
    /// Fresh-compile source variants per case in the uncached phase.
    variants: usize,
    /// Whether to use each case's bench-sized input (smoke uses the
    /// smaller test size).
    bench_sized: bool,
}

impl Shape {
    fn smoke() -> Shape {
        Shape {
            clients: 2,
            runs_per_client: 8,
            batch: 8,
            variants: 2,
            bench_sized: false,
        }
    }

    fn full() -> Shape {
        Shape {
            clients: 4,
            runs_per_client: 40,
            batch: 16,
            variants: 3,
            bench_sized: true,
        }
    }

    /// The generated-input size for `case` — the `size` parameter is
    /// per-workload (node count for ast/render, tree *depth* for kdtree,
    /// point count for fmm), so it must come from the case matrix.
    fn size_for(&self, case: &grafter_workloads::CaseStudy) -> usize {
        if self.bench_sized {
            case.bench_size
        } else {
            case.test_size
        }
    }
}

/// One framed connection to the daemon.
struct Client {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: FrameReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// One request, one response frame.
    fn call(&mut self, body: &str) -> io::Result<Json> {
        write_frame(&mut self.writer, body)?;
        self.read_body()
    }

    /// One `run_batch` request; reads chunk frames until the `done`
    /// frame, returning (results seen, done-frame total).
    fn call_batch(&mut self, body: &str) -> io::Result<(usize, usize)> {
        write_frame(&mut self.writer, body)?;
        let mut seen = 0usize;
        loop {
            let frame = self.read_body()?;
            expect_ok(&frame)?;
            if matches!(frame.get("done"), Some(Json::Bool(true))) {
                let total = frame.get("total").and_then(Json::as_num).unwrap_or(0.0);
                return Ok((seen, total as usize));
            }
            seen += frame
                .get("results")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
        }
    }

    fn read_body(&mut self) -> io::Result<Json> {
        loop {
            match self.reader.read_frame() {
                Ok(Incoming::Frame(body)) => {
                    return parse(&body).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unparseable response: {e}"),
                        )
                    })
                }
                Ok(Incoming::Idle) => {}
                Ok(Incoming::Closed) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("protocol error: {e:?}"),
                    ))
                }
            }
        }
    }
}

fn expect_ok(body: &Json) -> io::Result<()> {
    if matches!(body.get("ok"), Some(Json::Bool(true))) {
        return Ok(());
    }
    let msg = body
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("daemon reported failure");
    Err(io::Error::other(msg.to_string()))
}

/// Daemon-side counters sampled via the `stats` method.
#[derive(Clone, Copy, Debug, Default)]
struct StatsSample {
    lowerings: u64,
    spawned: u64,
    cache_hits: u64,
    cache_misses: u64,
    single_flight_waits: u64,
}

fn sample_stats(client: &mut Client) -> io::Result<StatsSample> {
    let body = client.call(&render_bare("stats"))?;
    expect_ok(&body)?;
    let num = |doc: &Json, path: &[&str]| -> u64 {
        let mut cur = doc.clone();
        for key in path {
            match cur.get(key) {
                Some(next) => cur = next.clone(),
                None => return 0,
            }
        }
        cur.as_num().unwrap_or(0.0) as u64
    };
    Ok(StatsSample {
        lowerings: num(&body, &["lowerings"]),
        spawned: num(&body, &["pool", "spawned_total"]),
        cache_hits: num(&body, &["cache", "hits"]),
        cache_misses: num(&body, &["cache", "misses"]),
        single_flight_waits: num(&body, &["cache", "single_flight_waits"]),
    })
}

fn program_for(case: &grafter_workloads::CaseStudy) -> ProgramSpec {
    ProgramSpec {
        source: case.source.to_string(),
        root: case.root_class.to_string(),
        passes: case.passes.iter().map(|p| (*p).to_string()).collect(),
        // The VM backend *lowers* at compile time, which is exactly what
        // the steady-phase zero-lowerings assertion watches.
        backend: grafter_engine::Backend::Vm,
        opt_level: Default::default(),
        fusion: Default::default(),
        args: case.args.clone(),
    }
}

/// A distinct-but-equivalent program: the comment changes the source
/// hash (a cache miss and fresh compile), nothing else.
fn variant_of(program: &ProgramSpec, k: usize) -> ProgramSpec {
    let mut p = program.clone();
    p.source = format!("{}\n/* load variant {k} */", p.source);
    p
}

fn gen_input(case: &grafter_workloads::CaseStudy, size: usize, seed: u64) -> InputSpec {
    InputSpec::Gen {
        workload: case.name.to_string(),
        size,
        seed,
    }
}

/// Per-case steady-phase measurements.
struct CaseResult {
    name: String,
    requests: usize,
    trees: usize,
    p50_us: f64,
    p99_us: f64,
    trees_per_sec: f64,
}

fn percentile(sorted_ns: &[u128], pct: usize) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = (sorted_ns.len() - 1) * pct / 100;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Runs the steady phase for one case: `clients` concurrent connections,
/// each issuing single runs then one streamed batch, all against the
/// already-cached engine.
fn steady_case(
    addr: &str,
    case: &grafter_workloads::CaseStudy,
    shape: &Shape,
) -> io::Result<CaseResult> {
    let program = program_for(case);
    let start = Instant::now();
    let outcomes = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..shape.clients {
            let program = &program;
            handles.push(scope.spawn(move || -> io::Result<(Vec<u128>, usize)> {
                let mut client = Client::connect(addr)?;
                let mut latencies = Vec::new();
                let mut trees = 0usize;
                for r in 0..shape.runs_per_client {
                    let seed = (c * shape.runs_per_client + r) as u64;
                    let body = render_run(program, &gen_input(case, shape.size_for(case), seed));
                    let t = Instant::now();
                    let response = client.call(&body)?;
                    latencies.push(t.elapsed().as_nanos());
                    expect_ok(&response)?;
                    trees += 1;
                }
                let inputs: Vec<InputSpec> = (0..shape.batch)
                    .map(|i| gen_input(case, shape.size_for(case), 1_000 + i as u64))
                    .collect();
                let body = render_run_batch(program, &inputs, WINDOW);
                let t = Instant::now();
                let (seen, total) = client.call_batch(&body)?;
                latencies.push(t.elapsed().as_nanos());
                if seen != shape.batch || total != shape.batch {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("batch returned {seen}/{total}, expected {}", shape.batch),
                    ));
                }
                trees += shape.batch;
                Ok((latencies, trees))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let wall = start.elapsed();

    let mut latencies: Vec<u128> = Vec::new();
    let mut trees = 0usize;
    for (lat, t) in outcomes {
        latencies.extend(lat);
        trees += t;
    }
    latencies.sort_unstable();
    Ok(CaseResult {
        name: case.name.to_string(),
        requests: latencies.len(),
        trees,
        p50_us: percentile(&latencies, 50),
        p99_us: percentile(&latencies, 99),
        trees_per_sec: trees as f64 / wall.as_secs_f64().max(1e-9),
    })
}

fn usage() -> ! {
    eprintln!("usage: grafter-load --addr HOST:PORT [--smoke] [--clients N] [--out PATH]");
    std::process::exit(2)
}

fn run(addr: &str, shape: &Shape, smoke: bool, out: &str) -> io::Result<bool> {
    let cases = case_studies();
    let mut control = Client::connect(addr)?;

    // Warm phase: compile every case's engine and run one batch per case.
    for case in &cases {
        let program = program_for(case);
        let body = render_run(&program, &gen_input(case, shape.size_for(case), 1));
        expect_ok(&control.call(&body)?)?;
        let inputs: Vec<InputSpec> = (0..shape.batch)
            .map(|i| gen_input(case, shape.size_for(case), i as u64))
            .collect();
        let (seen, _) = control.call_batch(&render_run_batch(&program, &inputs, WINDOW))?;
        if seen != shape.batch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "warm batch short",
            ));
        }
    }
    let after_warm = sample_stats(&mut control)?;

    // Uncached phase: distinct sources must compile (cache misses).
    let mut uncached: Vec<u128> = Vec::new();
    for case in &cases {
        let program = program_for(case);
        for k in 0..shape.variants {
            let variant = variant_of(&program, k);
            let body = render_run(&variant, &gen_input(case, shape.size_for(case), k as u64));
            let t = Instant::now();
            expect_ok(&control.call(&body)?)?;
            uncached.push(t.elapsed().as_nanos());
        }
    }
    uncached.sort_unstable();
    let after_uncached = sample_stats(&mut control)?;
    if after_uncached.cache_misses <= after_warm.cache_misses {
        eprintln!("grafter-load: variant programs did not miss the cache");
        return Ok(false);
    }

    // Steady phase: cached engines only. Zero compiles, zero spawns.
    let before = sample_stats(&mut control)?;
    let mut results = Vec::new();
    for case in &cases {
        results.push(steady_case(addr, case, shape)?);
    }
    let after = sample_stats(&mut control)?;

    let lowerings_delta = after.lowerings - before.lowerings;
    let spawned_delta = after.spawned - before.spawned;
    let mut ok = true;
    if lowerings_delta != 0 {
        eprintln!("grafter-load: steady phase performed {lowerings_delta} lowerings (want 0)");
        ok = false;
    }
    if spawned_delta != 0 {
        eprintln!("grafter-load: steady phase spawned {spawned_delta} executor threads (want 0)");
        ok = false;
    }
    if after.cache_hits <= before.cache_hits {
        eprintln!("grafter-load: steady phase did not hit the engine cache");
        ok = false;
    }

    let mut w = JsonWriter::with_capacity(1024);
    w.begin_obj();
    w.key("bench").str("server");
    w.key("smoke").bool(smoke);
    w.key("clients").num(shape.clients);
    w.key("window").num(WINDOW);
    w.key("bench_sized").bool(shape.bench_sized);
    w.key("steady").begin_obj();
    w.key("lowerings_delta").num(lowerings_delta);
    w.key("spawned_delta").num(spawned_delta);
    w.key("cache_hits")
        .num(after.cache_hits - before.cache_hits);
    w.end_obj();
    w.key("uncached").begin_obj();
    w.key("requests").num(uncached.len());
    w.key("p50_us").float(percentile(&uncached, 50));
    w.key("p99_us").float(percentile(&uncached, 99));
    w.end_obj();
    w.key("single_flight_waits").num(after.single_flight_waits);
    w.key("cases").begin_arr();
    for r in &results {
        w.begin_obj();
        w.key("name").str(&r.name);
        w.key("requests").num(r.requests);
        w.key("trees").num(r.trees);
        w.key("p50_us").float(r.p50_us);
        w.key("p99_us").float(r.p99_us);
        w.key("trees_per_sec").float(r.trees_per_sec);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    std::fs::write(out, format!("{}\n", w.finish()))?;

    for r in &results {
        println!(
            "{:>8}: {} requests, p50 {:.1} us, p99 {:.1} us, {:.0} trees/sec",
            r.name, r.requests, r.p50_us, r.p99_us, r.trees_per_sec
        );
    }
    println!(
        "steady: lowerings_delta={lowerings_delta} spawned_delta={spawned_delta} -> {}",
        if ok { "ok" } else { "VIOLATION" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut smoke = false;
    let mut clients: Option<usize> = None;
    let mut out = "BENCH_server.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = Some(value()),
            "--smoke" => smoke = true,
            "--clients" => match value().parse() {
                Ok(n) if n > 0 => clients = Some(n),
                _ => usage(),
            },
            "--out" => out = value(),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(addr) = addr else { usage() };
    let mut shape = if smoke { Shape::smoke() } else { Shape::full() };
    if let Some(c) = clients {
        shape.clients = c;
    }

    match run(&addr, &shape, smoke, &out) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("grafter-load: {e}");
            ExitCode::FAILURE
        }
    }
}
