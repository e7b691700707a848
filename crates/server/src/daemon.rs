//! The grafterd connection loop: accept, serve, drain, exit.
//!
//! One thread per connection, at most [`MAX_CONNECTIONS`] at once
//! (requests within a connection are sequential; concurrency comes from
//! concurrent connections). Connection threads parse, look up engines
//! and write frames; every traversal runs on the daemon's own executor
//! (`executor.rs`), a fixed set of threads with 2 GiB reserved stacks
//! spawned in [`Daemon::bind`]. So connection stacks stay small, serving
//! spawns no thread per request, and every request shape gets the
//! per-input panic isolation of
//! [`Session::run_input`](grafter_engine::Session::run_input). A `run` is
//! one job; a `run_batch` is `min(workers, inputs)` jobs that claim its
//! inputs in order and hand results back through a bounded window.
//!
//! Shutdown is cooperative: when the shutdown flag flips (SIGTERM in the
//! binary, a test hook here), the acceptor stops taking connections and
//! every connection finishes its **in-flight** request — including a
//! partially received frame, within a grace period — before closing.
//! [`Daemon::serve`] returns only after the last connection thread
//! exits, so the process can exit 0 with no lost responses.

use std::io::{self, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use grafter_engine::{Engine, Error, Report};
use grafter_obs::json::JsonWriter;
use grafter_runtime::{Heap, NodeId};
use grafter_vm::lowering_count;
use grafter_workloads::case_studies;

use crate::cache::EngineCache;
use crate::executor::Executor;
use crate::proto::{
    build_tree_spec, parse_request, render_error, resolve_tree_spec, write_frame, AppError,
    FrameReader, Incoming, InputSpec, ProgramSpec, ProtoError, Request,
};

/// Results per streamed `run_batch` response frame.
const CHUNK: usize = 16;

/// Connection-thread stack: big enough for deep JSON recursion, small
/// next to the executor's traversal stacks (which do the actual running).
const CONN_STACK: usize = 64 << 20;

/// How long a connection waits on a *partially received* frame after
/// shutdown begins before giving up on the peer.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// Poll quantum for the shutdown flag and connection read timeouts.
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
    /// Executor threads (at least one), spawned in [`Daemon::bind`]. All
    /// requests share them, and one batch runs on at most this many.
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

/// A bound (not yet serving) grafterd instance. Dropping it stops its
/// executor threads.
pub struct Daemon {
    listener: TcpListener,
    cache: EngineCache,
    executor: Executor,
}

impl Daemon {
    /// Binds the listening socket (use port 0 for an ephemeral port) and
    /// spawns the executor's threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission) and thread
    /// spawn failures.
    pub fn bind(addr: impl ToSocketAddrs, opts: DaemonOptions) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        Ok(Daemon {
            listener,
            cache: EngineCache::new(opts.cache_capacity),
            executor: Executor::new(opts.workers)?,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
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
        let mut wake_addr = self.listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let open = AtomicUsize::new(0);
        let accepting = AtomicBool::new(true);
        thread::scope(|scope| {
            // `accept` blocks, so a new connection is served the moment it
            // arrives; once the flag flips, this waker connects to unblock
            // the acceptor, which then sees the flag and stops.
            scope.spawn(|| {
                while accepting.load(Ordering::SeqCst) {
                    if shutdown.load(Ordering::SeqCst) && TcpStream::connect(wake_addr).is_ok() {
                        return;
                    }
                    thread::sleep(POLL);
                }
            });
            let result = loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _peer)) => stream,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => break Err(e),
                };
                if shutdown.load(Ordering::SeqCst) {
                    break Ok(());
                }
                // Only this thread adds connections, so the count cannot
                // pass the cap between check and add.
                if open.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    refuse(stream);
                    continue;
                }
                let slot = ConnSlot::take(&open);
                // A failed spawn drops the closure, and with it the stream
                // (closing the connection) and its slot.
                let _ = thread::Builder::new()
                    .name("grafterd-conn".to_string())
                    .stack_size(CONN_STACK)
                    .spawn_scoped(scope, move || {
                        let _slot = slot;
                        // A connection failing (I/O, desync) only drops
                        // that connection.
                        let _ = self.handle_conn(stream, shutdown);
                    });
            };
            accepting.store(false, Ordering::SeqCst);
            result
            // Scope exit joins the waker and every connection thread: the
            // drain.
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
                let (reply, result) = mpsc::channel();
                let job_engine = Arc::clone(&engine);
                self.executor.spawn(move || {
                    let _ = reply.send(job_engine.session().run_input(builder));
                });
                let body = match result.recv().expect("a run job always replies") {
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
                let batch = Arc::new(Batch {
                    engine,
                    inputs: Mutex::new(builders.into_iter().enumerate()),
                    window: Window::new(window),
                });
                // Each job holds a sender; the channel closes once every
                // job has finished.
                let (job_done, jobs_finished) = mpsc::channel::<()>();
                for _ in 0..self.executor.width().min(total) {
                    let (batch, job_done) = (Arc::clone(&batch), job_done.clone());
                    self.executor.spawn(move || {
                        batch.participate();
                        drop(job_done);
                    });
                }
                drop(job_done);

                // Stream input-ordered chunks; TCP write stalls propagate
                // through this loop into the batch window (backpressure).
                let mut chunk = ChunkState::new(writer);
                for _ in 0..total {
                    chunk.push(&batch.window.take_next());
                }
                let broken = chunk.finish();
                let _ = jobs_finished.recv();
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
        w.key("pool");
        self.executor.write_stats(&mut w);
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

/// One `run_batch` request, shared by its participation jobs and its
/// connection thread.
struct Batch {
    engine: Arc<Engine>,
    /// Unclaimed inputs with their positions, claimed in ascending order.
    inputs: Mutex<std::iter::Enumerate<std::vec::IntoIter<Builder>>>,
    window: Window,
}

impl Batch {
    /// One participation job: run inputs on one session until none are
    /// left, handing each result to the window.
    fn participate(&self) {
        // The closure drops the input lock before the input runs; a guard
        // in the `while let` scrutinee would live through the loop body.
        let claim = || self.inputs.lock().expect("batch input lock").next();
        let mut session = None;
        while let Some((i, build)) = claim() {
            let result = session
                .get_or_insert_with(|| self.engine.session())
                .run_input(build);
            self.window.deposit(i, result);
        }
    }
}

/// The bounded reorder buffer between a batch's jobs and its connection
/// thread.
///
/// A job deposits result `i` only once `i` is within the window's width
/// of the next index the connection thread will take, and blocks before
/// that (backpressure); the connection thread takes results strictly in
/// input order. So at most `width` finished results wait at any time,
/// result `i` in slot `i % width`. Deadlock-free for any width: inputs
/// are claimed in ascending order, so the job holding the next index to
/// take is never the one made to wait.
struct Window {
    state: Mutex<WindowState>,
    /// Signals jobs blocked on the window (a result was taken).
    space: Condvar,
    /// Signals the connection thread (a result landed).
    ready: Condvar,
}

struct WindowState {
    slots: Vec<Option<Result<Report, Error>>>,
    next_take: usize,
}

impl Window {
    fn new(width: usize) -> Window {
        Window {
            state: Mutex::new(WindowState {
                slots: (0..width.max(1)).map(|_| None).collect(),
                next_take: 0,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
        }
    }

    fn deposit(&self, i: usize, result: Result<Report, Error>) {
        let mut state = self.state.lock().expect("window lock");
        let width = state.slots.len();
        while i >= state.next_take + width {
            state = self.space.wait(state).expect("window wait");
        }
        state.slots[i % width] = Some(result);
        self.ready.notify_all();
    }

    /// Blocks until the result of input `next_take` landed, and takes it.
    fn take_next(&self) -> Result<Report, Error> {
        let mut state = self.state.lock().expect("window lock");
        let width = state.slots.len();
        loop {
            let slot = state.next_take % width;
            if let Some(result) = state.slots[slot].take() {
                state.next_take += 1;
                self.space.notify_all();
                return result;
            }
            state = self.ready.wait(state).expect("window wait");
        }
    }
}

/// Accumulates streamed results and frames them every [`CHUNK`] inputs.
struct ChunkState<'w, W: Write> {
    writer: &'w mut W,
    chunk_no: usize,
    results: Vec<String>,
    broken: bool,
}

impl<'w, W: Write> ChunkState<'w, W> {
    fn new(writer: &'w mut W) -> ChunkState<'w, W> {
        ChunkState {
            writer,
            chunk_no: 0,
            results: Vec::with_capacity(CHUNK),
            broken: false,
        }
    }

    /// Adds the result of the next input in input order.
    fn push(&mut self, result: &Result<Report, Error>) {
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
        // Every chunk but the last is full.
        w.key("first").num(self.chunk_no * CHUNK);
        w.key("results").begin_arr();
        for r in &self.results {
            w.raw(r);
        }
        w.end_arr();
        w.end_obj();
        // A dead peer cannot abort the batch (its jobs are running); mark
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
            let tree = resolve_tree_spec(engine.program(), engine.layouts(), &spec)?;
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
