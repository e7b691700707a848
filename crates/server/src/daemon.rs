//! The grafterd connection loop: accept, serve, drain, exit.
//!
//! One thread per connection, at most [`MAX_CONNECTIONS`] at once
//! (requests within a connection are sequential; concurrency comes from
//! concurrent connections), all execution routed through the engine
//! crate's persistent worker pool —
//! the daemon itself never runs a traversal on a connection thread, so
//! connection stacks stay small while traversal recursion gets the
//! pool's 2 GiB reserved stacks, and per-input `catch_unwind` isolation
//! applies to every request shape.
//!
//! Shutdown is cooperative: when the shutdown flag flips (SIGTERM in the
//! binary, a test hook here), the acceptor stops taking connections and
//! every connection finishes its **in-flight** request — including a
//! partially received frame, within a grace period — before closing.
//! [`Daemon::serve`] returns only after the last connection thread
//! exits, so the process can exit 0 with no lost responses.

use std::io::{self, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use grafter_engine::{pool_stats, BatchOptions, Engine, Error, Report};
use grafter_obs::json::JsonWriter;
use grafter_runtime::{Heap, NodeId};
use grafter_vm::lowering_count;
use grafter_workloads::case_studies;

use crate::cache::EngineCache;
use crate::proto::{
    build_tree_spec, parse_request, render_error, resolve_tree_spec, write_frame, AppError,
    FrameReader, Incoming, InputSpec, ProgramSpec, ProtoError, Request,
};

/// Results per streamed `run_batch` response frame.
const CHUNK: usize = 16;

/// Connection-thread stack: big enough for deep JSON recursion, small
/// next to the pool's traversal stacks (which do the actual running).
const CONN_STACK: usize = 64 << 20;

/// How long a connection waits on a *partially received* frame after
/// shutdown begins before giving up on the peer.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// Poll quantum for the acceptor and connection read timeouts.
const POLL: Duration = Duration::from_millis(50);

/// Open connections the daemon serves at once. A connection past the cap
/// gets one `proto` error frame and is closed, so idle clients cannot
/// make the daemon spawn connection threads without bound.
pub const MAX_CONNECTIONS: usize = 64;

/// Daemon tuning.
#[derive(Clone, Debug)]
pub struct DaemonOptions {
    /// Ready engines kept resident (LRU beyond this).
    pub cache_capacity: usize,
    /// Worker-pool width used for batch requests.
    pub workers: usize,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        DaemonOptions {
            cache_capacity: 32,
            workers: thread::available_parallelism().map_or(4, usize::from),
        }
    }
}

/// A bound (not yet serving) grafterd instance.
pub struct Daemon {
    listener: TcpListener,
    cache: EngineCache,
    opts: DaemonOptions,
}

impl Daemon {
    /// Binds the listening socket (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission).
    pub fn bind(addr: impl ToSocketAddrs, opts: DaemonOptions) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        Ok(Daemon {
            listener,
            cache: EngineCache::new(opts.cache_capacity),
            opts,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` socket errors.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `shutdown` becomes true, then drains: stops
    /// accepting, lets every connection finish its in-flight request,
    /// and returns once all connection threads exited.
    ///
    /// At most [`MAX_CONNECTIONS`] connections are served at once; one
    /// more is refused with a `proto` error frame. If the OS cannot spawn
    /// a connection's thread, that connection is dropped and the daemon
    /// keeps accepting.
    ///
    /// # Errors
    ///
    /// Propagates acceptor socket errors (per-connection I/O errors only
    /// close that connection).
    pub fn serve(&self, shutdown: &AtomicBool) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let open = AtomicUsize::new(0);
        thread::scope(|scope| {
            while !shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        // Only this thread adds connections, so the count
                        // cannot pass the cap between check and add.
                        if open.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                            refuse(stream);
                            continue;
                        }
                        let slot = ConnSlot::take(&open);
                        // A failed spawn drops the closure, and with it the
                        // stream (closing the connection) and its slot.
                        let _ = thread::Builder::new()
                            .name("grafterd-conn".to_string())
                            .stack_size(CONN_STACK)
                            .spawn_scoped(scope, move || {
                                let _slot = slot;
                                // A connection failing (I/O, desync) only
                                // drops that connection.
                                let _ = self.handle_conn(stream, shutdown);
                            });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
            // Scope exit joins every connection thread: the drain.
        })
    }

    fn handle_conn(&self, stream: TcpStream, shutdown: &AtomicBool) -> io::Result<()> {
        stream.set_read_timeout(Some(POLL))?;
        stream.set_nodelay(true)?;
        let mut reader = FrameReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        let mut grace_left = SHUTDOWN_GRACE;
        loop {
            match reader.read_frame() {
                Ok(Incoming::Frame(body)) => {
                    grace_left = SHUTDOWN_GRACE;
                    if self.handle_request(&body, &mut writer).is_err() {
                        // The peer vanished mid-response; nothing left to
                        // say to it.
                        return Ok(());
                    }
                }
                Ok(Incoming::Idle) => {
                    if shutdown.load(Ordering::SeqCst) {
                        if !reader.mid_frame() {
                            // Drained: no in-flight request on this
                            // connection.
                            return Ok(());
                        }
                        // A request is partially received; give the peer
                        // a bounded grace to finish it.
                        grace_left = grace_left.saturating_sub(POLL);
                        if grace_left.is_zero() {
                            return Ok(());
                        }
                    }
                }
                Ok(Incoming::Closed) => return Ok(()),
                Err(ProtoError::Oversized(len)) => {
                    let body = render_error(
                        "proto",
                        &format!(
                            "body of {len} bytes exceeds the {} byte cap",
                            crate::proto::MAX_BODY
                        ),
                    );
                    write_frame(&mut writer, &body)?;
                }
                Err(ProtoError::BadUtf8) => {
                    write_frame(
                        &mut writer,
                        &render_error("proto", "body is not valid UTF-8"),
                    )?;
                }
                Err(ProtoError::Fatal(msg)) => {
                    // Framing desynced; answer if possible, then close.
                    let _ = write_frame(&mut writer, &render_error("proto", &msg));
                    return Ok(());
                }
                Err(ProtoError::Io(_)) => return Ok(()),
            }
        }
    }

    /// Dispatches one parsed frame. `Err` means the *transport* failed
    /// (close the connection); request-level failures are answered with
    /// typed error frames and return `Ok`.
    fn handle_request(&self, body: &str, writer: &mut impl Write) -> io::Result<()> {
        let request = match parse_request(body) {
            Ok(r) => r,
            Err(e) => return write_frame(writer, &render_error(&e.stage, &e.message)),
        };
        match request {
            Request::Ping => {
                let mut w = JsonWriter::new();
                w.begin_obj();
                w.key("ok").bool(true);
                w.key("pong").bool(true);
                w.end_obj();
                write_frame(writer, &w.finish())
            }
            Request::Stats => write_frame(writer, &self.stats_body()),
            Request::Explain { program } => {
                let engine = match self.engine_for(&program) {
                    Ok(e) => e,
                    Err(e) => return write_frame(writer, &render_error(&e.stage, &e.message)),
                };
                let mut w = JsonWriter::with_capacity(1024);
                w.begin_obj();
                w.key("ok").bool(true);
                w.key("explain")
                    .raw(&engine.explain().render_json(engine.source()));
                w.end_obj();
                write_frame(writer, &w.finish())
            }
            Request::Run { program, input } => {
                let engine = match self.engine_for(&program) {
                    Ok(e) => e,
                    Err(e) => return write_frame(writer, &render_error(&e.stage, &e.message)),
                };
                let builder = match make_builder(input, &engine) {
                    Ok(b) => b,
                    Err(e) => return write_frame(writer, &render_error(&e.stage, &e.message)),
                };
                // Routed through the pool: pooled session, 2 GiB stack,
                // per-input catch_unwind — even for a single run.
                let mut results =
                    engine.try_run_batch(vec![builder], &BatchOptions::with_workers(1));
                let result = results.pop().expect("one input, one result");
                let body = match result {
                    Ok(report) => {
                        let mut w = JsonWriter::with_capacity(512);
                        w.begin_obj();
                        w.key("ok").bool(true);
                        w.key("report").raw(&report.to_json());
                        // Pair coverage of the engine this run executed on,
                        // so clients see fusion quality without a separate
                        // `explain` round trip.
                        let c = &engine.fused_program().coverage;
                        write_fusion(&mut w, c.fused_pairs, c.missed_pairs, c.blocked_pairs);
                        w.end_obj();
                        w.finish()
                    }
                    Err(e) => engine_error_body(&e),
                };
                write_frame(writer, &body)
            }
            Request::RunBatch {
                program,
                inputs,
                window,
            } => {
                let engine = match self.engine_for(&program) {
                    Ok(e) => e,
                    Err(e) => return write_frame(writer, &render_error(&e.stage, &e.message)),
                };
                let total = inputs.len();
                let mut builders = Vec::with_capacity(total);
                for input in inputs {
                    match make_builder(input, &engine) {
                        Ok(b) => builders.push(b),
                        Err(e) => return write_frame(writer, &render_error(&e.stage, &e.message)),
                    }
                }
                let opts = BatchOptions::with_workers(self.opts.workers.min(total.max(1)));

                // Stream input-ordered chunks; TCP write stalls propagate
                // through the sink into the batch window (backpressure).
                let broken = {
                    let mut chunk = ChunkState::new(writer);
                    engine.run_batch_streamed(builders, &opts, window, |i, result| {
                        chunk.push(i, &result);
                    });
                    chunk.finish()
                };
                if broken {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "peer vanished mid-stream",
                    ));
                }
                let mut w = JsonWriter::new();
                w.begin_obj();
                w.key("ok").bool(true);
                w.key("done").bool(true);
                w.key("total").num(total);
                w.end_obj();
                write_frame(writer, &w.finish())
            }
        }
    }

    /// The cached (or freshly compiled, single-flight) engine for a spec.
    fn engine_for(&self, program: &ProgramSpec) -> Result<Arc<Engine>, AppError> {
        let key = program.key();
        self.cache
            .get_or_build(&key, || {
                Engine::builder()
                    .source(program.source.clone())
                    .entry(program.root.clone(), &program.passes)
                    .fusion(program.fusion.clone())
                    .backend(program.backend)
                    .opt_level(program.opt_level)
                    .args(program.args.clone())
                    .build()
            })
            .map_err(|e| AppError {
                stage: e.stage().to_string(),
                message: e.to_string(),
            })
    }

    fn stats_body(&self) -> String {
        let cache = self.cache.stats();
        let pool = pool_stats();
        // Fusion pair coverage aggregated over the resident engines: how
        // well the programs this daemon currently serves fused.
        let (mut fused, mut missed, mut blocked) = (0usize, 0usize, 0usize);
        self.cache.for_each_ready(|e| {
            let c = &e.fused_program().coverage;
            fused += c.fused_pairs;
            missed += c.missed_pairs;
            blocked += c.blocked_pairs;
        });
        let mut w = JsonWriter::with_capacity(256);
        w.begin_obj();
        w.key("ok").bool(true);
        w.key("lowerings").num(lowering_count());
        write_fusion(&mut w, fused, missed, blocked);
        w.key("cache").begin_obj();
        w.key("size").num(cache.size);
        w.key("hits").num(cache.hits);
        w.key("misses").num(cache.misses);
        w.key("evictions").num(cache.evictions);
        w.key("single_flight_waits").num(cache.single_flight_waits);
        w.end_obj();
        w.key("pool").begin_obj();
        w.key("threads").num(pool.threads);
        w.key("spawned_total").num(pool.spawned_total);
        w.key("jobs_executed").num(pool.jobs_executed);
        w.key("busy").num(pool.busy);
        w.key("idle").num(pool.idle);
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}

/// One open connection's share of [`MAX_CONNECTIONS`], given back when
/// the connection's thread ends (or its spawn fails), panics included.
struct ConnSlot<'a>(&'a AtomicUsize);

impl<'a> ConnSlot<'a> {
    fn take(open: &'a AtomicUsize) -> ConnSlot<'a> {
        open.fetch_add(1, Ordering::SeqCst);
        ConnSlot(open)
    }
}

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers a connection past [`MAX_CONNECTIONS`] with one error frame and
/// closes it. The write is bounded so a peer that never reads cannot
/// stall the acceptor.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(POLL));
    let message = format!("server is at its cap of {MAX_CONNECTIONS} open connections");
    let _ = write_frame(&mut stream, &render_error("proto", &message));
}

/// Accumulates streamed results and frames them every [`CHUNK`] inputs.
struct ChunkState<'w, W: Write> {
    writer: &'w mut W,
    first: usize,
    chunk_no: usize,
    results: Vec<String>,
    broken: bool,
}

impl<'w, W: Write> ChunkState<'w, W> {
    fn new(writer: &'w mut W) -> ChunkState<'w, W> {
        ChunkState {
            writer,
            first: 0,
            chunk_no: 0,
            results: Vec::with_capacity(CHUNK),
            broken: false,
        }
    }

    fn push(&mut self, i: usize, result: &Result<Report, Error>) {
        if self.results.is_empty() {
            self.first = i;
        }
        self.results.push(match result {
            Ok(report) => report.to_json(),
            Err(e) => {
                let mut w = JsonWriter::new();
                w.begin_obj();
                w.key("error").begin_obj();
                w.key("stage").str(&e.stage().to_string());
                w.key("message").str(&e.to_string());
                w.end_obj();
                w.end_obj();
                w.finish()
            }
        });
        if self.results.len() >= CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.results.is_empty() || self.broken {
            self.results.clear();
            return;
        }
        let mut w = JsonWriter::with_capacity(256 + 512 * self.results.len());
        w.begin_obj();
        w.key("ok").bool(true);
        w.key("chunk").num(self.chunk_no);
        w.key("first").num(self.first);
        w.key("results").begin_arr();
        for r in &self.results {
            w.raw(r);
        }
        w.end_arr();
        w.end_obj();
        // A dead peer cannot abort the batch (the engine owns it); mark
        // the stream broken and drop the remaining output.
        if write_frame(self.writer, &w.finish()).is_err() {
            self.broken = true;
        }
        self.chunk_no += 1;
        self.results.clear();
    }

    /// Flushes the final partial chunk and reports whether the peer
    /// vanished mid-stream.
    fn finish(mut self) -> bool {
        self.flush();
        self.broken
    }
}

/// Resolves an input spec into a `Send` tree builder for the batch API.
/// Unknown workloads, oversized generators and inline trees naming
/// classes or fields `engine`'s program lacks fail fast here, as typed
/// config errors, before anything is queued.
fn make_builder(input: InputSpec, engine: &Engine) -> Result<Builder, AppError> {
    // Generator sizes are capped so one request cannot OOM-abort the
    // whole daemon (allocation failure aborts, catch_unwind can't help).
    // kdtree's `size` is a tree *depth* — 2^size nodes — so its cap is
    // far lower than the node/point-count workloads'.
    const MAX_GEN_SIZE: usize = 1 << 22;
    const MAX_KD_DEPTH: usize = 24;
    match input {
        InputSpec::Gen {
            workload,
            size,
            seed,
        } => {
            let build = *gen_builders()
                .iter()
                .find(|(name, _)| *name == workload)
                .map(|(_, build)| build)
                .ok_or_else(|| {
                    AppError::config(format!(
                        "unknown workload `{workload}` (expected ast|render|kdtree|fmm)"
                    ))
                })?;
            let cap = if workload == "kdtree" {
                MAX_KD_DEPTH
            } else {
                MAX_GEN_SIZE
            };
            if size > cap {
                return Err(AppError::config(format!(
                    "gen size {size} for `{workload}` exceeds the cap of {cap}"
                )));
            }
            Ok(Box::new(move |heap: &mut Heap| build(heap, size, seed)))
        }
        InputSpec::Tree(spec) => {
            let tree = resolve_tree_spec(engine.program(), &spec)?;
            Ok(Box::new(move |heap: &mut Heap| {
                build_tree_spec(heap, &tree)
            }))
        }
    }
}

type Builder = Box<dyn FnOnce(&mut Heap) -> NodeId + Send>;

type GenBuilder = fn(&mut Heap, usize, u64) -> NodeId;

/// The workload-name → tree-builder table, resolved once: constructing a
/// [`grafter_workloads::CaseStudy`] compiles its DSL frontend (~ms), far
/// too slow to repeat per request.
fn gen_builders() -> &'static [(String, GenBuilder)] {
    static TABLE: std::sync::OnceLock<Vec<(String, GenBuilder)>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        case_studies()
            .into_iter()
            .map(|c| (c.name.to_string(), c.build))
            .collect()
    })
}

fn engine_error_body(e: &Error) -> String {
    render_error(&e.stage().to_string(), &e.to_string())
}

/// Writes the protocol's `fusion` coverage object
/// (`{"fused":..,"missed":..,"blocked":..}`) under the current key.
fn write_fusion(w: &mut JsonWriter, fused: usize, missed: usize, blocked: usize) {
    w.key("fusion").begin_obj();
    w.key("fused").num(fused);
    w.key("missed").num(missed);
    w.key("blocked").num(blocked);
    w.end_obj();
}
