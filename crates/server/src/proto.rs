//! The grafterd wire protocol.
//!
//! # Framing
//!
//! One frame per message, in both directions:
//!
//! ```text
//! <len>\n<body>\n
//! ```
//!
//! where `<len>` is the body's byte length in ASCII decimal and `<body>`
//! is UTF-8 JSON. The trailing newline is part of the frame (it makes
//! `nc` sessions readable) but not counted in `<len>`. Bodies are capped
//! at [`MAX_BODY`]; a frame declaring more gets a typed error and is
//! drained (up to [`DRAIN_CAP`], beyond which the connection closes —
//! the peer is either broken or hostile).
//!
//! # Requests
//!
//! The body is one JSON object with a `"method"` key:
//!
//! - `{"method":"ping"}` — liveness check.
//! - `{"method":"stats"}` — compile and cache counters, the daemon's
//!   executor counters (`pool`: `threads`, `spawned_total`,
//!   `jobs_executed`, `busy`, `idle`), plus a `fusion` object
//!   aggregating pair coverage over the resident engines.
//! - `{"method":"explain","program":P}` — compiles (or reuses) the
//!   program's engine and returns its per-pair fusability verdicts as
//!   the `explain` document (`totals` + `pairs`).
//! - `{"method":"run","program":P,"input":I}` — one traversal run.
//! - `{"method":"run_batch","program":P,"inputs":[I...],"window":W}` —
//!   a batch; responses stream back as input-ordered chunks.
//!
//! A program spec `P` is `{"source":S,"root":C,"passes":[..],
//! "backend":"vm","opt_level":"O2","fusion":{..},"args":[[..]..]}`
//! (everything but `source`, `root` and `passes` optional). An input
//! spec `I` is either a generator reference
//! `{"gen":{"workload":"ast","size":64,"seed":7}}` into the four paper
//! case studies, or an inline tree
//! `{"tree":{"class":C,"fields":{..},"children":{..}}}`, whose names are
//! resolved against the program before the run is queued (a name that
//! does not resolve is a `config` error). Leaf values are tagged —
//! `{"i":1}`, `{"f":2.5}`, `{"b":true}` — because JSON numbers alone
//! cannot distinguish the DSL's int and float types.
//!
//! A program may list at most [`MAX_PASSES`] passes, or the request gets
//! a `config` error before anything compiles.
//!
//! Numbers are checked, never cast. The fusion cutoffs
//! (`max_group_size`, `max_occurrences`) must be integers in `1..=16`,
//! or the request gets a `config` error. `size`, `seed` and `window`
//! must be non-negative integers up to 2^53, an `{"i":..}` an integer of
//! magnitude at most 2^53 and an `{"f":..}` finite, or the request gets
//! a `proto` error.
//!
//! # Responses
//!
//! `{"ok":true,...}` or `{"ok":false,"error":{"stage":S,"message":M}}`
//! where `S` is a pipeline stage name (`parse`, `sema`, `fuse`,
//! `lower`, `runtime`, `config`) or `proto` for transport-level faults.

use std::io::{self, Read, Write};
use std::ops::RangeInclusive;

use grafter::{ClassId, Program};
use grafter_engine::{Backend, FusionOptions, OptLevel};
use grafter_obs::json::{parse, Json, JsonWriter};
use grafter_runtime::{Heap, Layouts, NodeId, Value};

/// Hard cap on one frame's body, request or response chunk.
pub const MAX_BODY: usize = 8 << 20;

/// An oversized frame declaring up to this much is drained (typed error,
/// connection survives); beyond it the connection closes.
pub const DRAIN_CAP: usize = 64 << 20;

/// Longest accepted length header (digits before the newline).
const MAX_LEN_DIGITS: usize = 12;

/// A protocol-level fault while reading one frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Body length over [`MAX_BODY`]; the frame was drained and the
    /// connection is still usable.
    Oversized(usize),
    /// Body length over [`DRAIN_CAP`] (or the stream desynced): the
    /// caller must close the connection.
    Fatal(String),
    /// Frame body was not valid UTF-8; the frame was consumed.
    BadUtf8,
    /// Transport error (includes EOF mid-frame).
    Io(io::Error),
}

/// One `read_frame` outcome.
#[derive(Debug)]
pub enum Incoming {
    /// A complete frame body.
    Frame(String),
    /// The read timed out; call again. [`FrameReader::mid_frame`] tells
    /// whether a partial frame (an in-flight request) is pending.
    Idle,
    /// Clean EOF at a frame boundary.
    Closed,
}

/// Incremental frame reader over a (possibly read-timeout) byte stream.
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    /// Bytes of an oversized frame still to discard (plus its trailing
    /// newline), and the declared length to report once drained.
    drain: Option<(usize, usize)>,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            drain: None,
        }
    }

    /// Whether a partially received frame is buffered (an in-flight
    /// request the daemon should wait out before shutting the
    /// connection down).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty() || self.drain.is_some()
    }

    /// Reads the next frame. [`Incoming::Idle`] on a read timeout (state
    /// is kept; call again), [`Incoming::Closed`] on EOF between frames.
    pub fn read_frame(&mut self) -> Result<Incoming, ProtoError> {
        loop {
            if let Some((left, declared)) = self.drain {
                let eat = left.min(self.buf.len());
                self.buf.drain(..eat);
                if eat < left {
                    self.drain = Some((left - eat, declared));
                    match self.fill()? {
                        Fill::Got => continue,
                        Fill::Timeout => return Ok(Incoming::Idle),
                        Fill::Eof => {
                            return Err(ProtoError::Io(io::Error::new(
                                io::ErrorKind::UnexpectedEof,
                                "eof while draining oversized frame",
                            )))
                        }
                    }
                }
                self.drain = None;
                return Err(ProtoError::Oversized(declared));
            }

            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let len = parse_len(&self.buf[..nl])?;
                if len > MAX_BODY {
                    if len > DRAIN_CAP {
                        return Err(ProtoError::Fatal(format!(
                            "frame of {len} bytes exceeds the drain cap"
                        )));
                    }
                    // Discard header + body + trailing newline, then
                    // report the refusal.
                    self.buf.drain(..=nl);
                    self.drain = Some((len + 1, len));
                    continue;
                }
                let need = nl + 1 + len + 1;
                if self.buf.len() >= need {
                    if self.buf[need - 1] != b'\n' {
                        return Err(ProtoError::Fatal(
                            "frame body not newline-terminated".to_string(),
                        ));
                    }
                    let body = self.buf[nl + 1..need - 1].to_vec();
                    self.buf.drain(..need);
                    return match String::from_utf8(body) {
                        Ok(s) => Ok(Incoming::Frame(s)),
                        Err(_) => Err(ProtoError::BadUtf8),
                    };
                }
            } else if self.buf.len() > MAX_LEN_DIGITS {
                return Err(ProtoError::Fatal("length header too long".to_string()));
            }

            match self.fill()? {
                Fill::Got => {}
                Fill::Timeout => return Ok(Incoming::Idle),
                Fill::Eof if self.buf.is_empty() => return Ok(Incoming::Closed),
                Fill::Eof => {
                    return Err(ProtoError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof mid-frame",
                    )))
                }
            }
        }
    }

    fn fill(&mut self) -> Result<Fill, ProtoError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(Fill::Got);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Fill::Timeout)
                }
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }
}

enum Fill {
    Got,
    Timeout,
    Eof,
}

fn parse_len(header: &[u8]) -> Result<usize, ProtoError> {
    if header.is_empty() || header.len() > MAX_LEN_DIGITS {
        return Err(ProtoError::Fatal("bad length header".to_string()));
    }
    let mut len: usize = 0;
    for &b in header {
        if !b.is_ascii_digit() {
            return Err(ProtoError::Fatal(format!(
                "non-digit in length header: 0x{b:02x}"
            )));
        }
        len = len * 10 + usize::from(b - b'0');
    }
    Ok(len)
}

/// Writes one frame: `<len>\n<body>\n`.
///
/// # Errors
///
/// Propagates transport errors from the underlying writer.
pub fn write_frame(w: &mut impl Write, body: &str) -> io::Result<()> {
    write!(w, "{}\n{body}\n", body.len())?;
    w.flush()
}

// ---------------------------------------------------------------------
// Request schema
// ---------------------------------------------------------------------

/// A parsed request.
#[derive(Debug)]
pub enum Request {
    Ping,
    Stats,
    /// Per-pair fusability verdicts of a program, without running it.
    Explain {
        program: ProgramSpec,
    },
    Run {
        program: ProgramSpec,
        input: InputSpec,
    },
    RunBatch {
        program: ProgramSpec,
        inputs: Vec<InputSpec>,
        /// Reorder/backpressure window for the streamed response.
        window: usize,
    },
}

/// Everything that determines the engine a request runs on.
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    pub source: String,
    pub root: String,
    pub passes: Vec<String>,
    pub backend: Backend,
    pub opt_level: OptLevel,
    pub fusion: FusionOptions,
    pub args: Vec<Vec<Value>>,
}

impl ProgramSpec {
    /// The engine-cache key of this spec.
    pub fn key(&self) -> EngineKey {
        EngineKey {
            source: self.source.clone(),
            root: self.root.clone(),
            passes: self.passes.clone(),
            fusion: self.fusion.clone(),
            backend: self.backend,
            opt_level: self.opt_level,
            args: canon_args(&self.args),
        }
    }
}

/// Everything that determines a [`ProgramSpec`]'s engine, compared
/// exactly: the key of the daemon's engine cache. Two specs share an
/// engine only when every field is equal, so no hash collision can hand
/// one program another's engine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EngineKey {
    source: String,
    root: String,
    /// In call order: order decides what fusion groups.
    passes: Vec<String>,
    fusion: FusionOptions,
    backend: Backend,
    opt_level: OptLevel,
    /// The entry arguments in [`canon_args`] form.
    args: String,
}

/// Canonical text form of entry arguments (the engine key's form):
/// floats print in Rust's shortest round-trip form, so equal values — and
/// only equal values — canonicalize equally.
pub fn canon_args(args: &[Vec<Value>]) -> String {
    let mut out = String::new();
    for (i, pass) in args.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        for (j, v) in pass.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                Value::Int(n) => out.push_str(&format!("i{n}")),
                Value::Float(x) => out.push_str(&format!("f{x}")),
                Value::Bool(b) => out.push_str(&format!("b{b}")),
                Value::Ref(r) => out.push_str(&format!("r{:?}", r.map(|n| n.0))),
            }
        }
    }
    out
}

/// One input of a run/batch request.
#[derive(Clone, Debug)]
pub enum InputSpec {
    /// A tree from one of the paper's workload generators, built
    /// server-side (`size` nodes-ish, deterministic in `seed`).
    Gen {
        workload: String,
        size: usize,
        seed: u64,
    },
    /// An inline tree shipped over the wire.
    Tree(TreeSpec),
}

/// An inline tree: class, scalar fields, children (recursively).
#[derive(Clone, Debug)]
pub struct TreeSpec {
    pub class: String,
    pub fields: Vec<(String, Value)>,
    pub children: Vec<(String, Option<TreeSpec>)>,
}

/// An inline tree whose names [`resolve_tree_spec`] resolved to slots of
/// a program's layouts, so that building it cannot fail.
#[derive(Clone, Debug)]
pub struct ResolvedTree {
    class: ClassId,
    /// Data fields as the slot they write.
    fields: Vec<(usize, Value)>,
    /// Child fields as their slot.
    children: Vec<(usize, Option<ResolvedTree>)>,
}

/// Resolves an inline tree's class, data-field and child-field names
/// through `layouts`' name indexes (those of `program`), before any run
/// is queued.
///
/// # Errors
///
/// A `config` [`AppError`] naming the first class or field that does not
/// resolve, or a child whose class the child field cannot hold.
pub fn resolve_tree_spec(
    program: &Program,
    layouts: &Layouts,
    spec: &TreeSpec,
) -> Result<ResolvedTree, AppError> {
    let class = layouts
        .class_by_name(&spec.class)
        .ok_or_else(|| AppError::config(format!("unknown tree class `{}`", spec.class)))?;
    let mut fields = Vec::with_capacity(spec.fields.len());
    for (name, value) in &spec.fields {
        let slot = layouts.data_slot(program, class, name);
        fields.push((slot.map_err(AppError::config)?, *value));
    }
    let mut children = Vec::with_capacity(spec.children.len());
    for (name, child) in &spec.children {
        let child = match child {
            Some(c) => Some(resolve_tree_spec(program, layouts, c)?),
            None => None,
        };
        let slot = layouts.child_slot(program, class, name, child.as_ref().map(|t| t.class));
        children.push((slot.map_err(AppError::config)?, child));
    }
    Ok(ResolvedTree {
        class,
        fields,
        children,
    })
}

/// Materializes a resolved inline tree into `heap` (laid out for the
/// program it was resolved against), returning the root.
pub fn build_tree_spec(heap: &mut Heap, tree: &ResolvedTree) -> NodeId {
    let node = heap.alloc(tree.class);
    for &(slot, value) in &tree.fields {
        heap.set(node, slot, value);
    }
    for (slot, child) in &tree.children {
        let child = child.as_ref().map(|c| build_tree_spec(heap, c));
        heap.set(node, *slot, Value::Ref(child));
    }
    node
}

/// A request-level failure, rendered as `{"ok":false,"error":{...}}`.
#[derive(Debug)]
pub struct AppError {
    pub stage: String,
    pub message: String,
}

impl AppError {
    pub fn proto(message: impl Into<String>) -> AppError {
        AppError {
            stage: "proto".to_string(),
            message: message.into(),
        }
    }

    pub fn config(message: impl Into<String>) -> AppError {
        AppError {
            stage: "config".to_string(),
            message: message.into(),
        }
    }
}

/// 2^53: every integer up to this magnitude is exact in a JSON number
/// (an `f64`), and no request integer may go past it.
const MAX_EXACT_INT: i64 = 1 << 53;

/// The fusion cutoffs a request may ask for, up to `ablation`'s largest
/// sweep value. Fusion time grows steeply with the cutoffs, so a larger
/// one would hold a connection thread and its single-flight compile.
const FUSION_CUTOFFS: RangeInclusive<i64> = 1..=16;

/// The most entries a program's `passes` array may have. Like the
/// cutoffs, fusion time grows steeply with the entry sequence's length,
/// so a longer one would hold a connection thread and its single-flight
/// compile. The case studies' longest sequence is 10.
pub const MAX_PASSES: usize = 32;

/// The number at `key` of `doc` (`None` when the key is absent), checked
/// rather than cast: `as` would saturate `1e999` and 2^63, and wrap `-1`
/// and truncate `1.5` without a word. It must be finite and, with
/// `ints`, an integer inside that range.
fn number(doc: &Json, key: &str, ints: Option<RangeInclusive<i64>>) -> Result<Option<f64>, String> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    let x = v
        .as_num()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("`{key}` must be a finite number"))?;
    if let Some(range) = ints {
        let (lo, hi) = (*range.start(), *range.end());
        if x.fract() != 0.0 || x < lo as f64 || x > hi as f64 {
            return Err(format!(
                "`{key}` must be an integer in {lo}..={hi}, not {x}"
            ));
        }
    }
    Ok(Some(x))
}

/// Parses one request body.
///
/// # Errors
///
/// Malformed JSON and schema violations come back as [`AppError`]s (the
/// connection survives; only this request fails).
pub fn parse_request(body: &str) -> Result<Request, AppError> {
    let doc = parse(body).map_err(|e| AppError::proto(format!("malformed JSON: {}", e.msg)))?;
    let method = doc
        .get("method")
        .and_then(Json::as_str)
        .ok_or_else(|| AppError::proto("missing string `method`"))?;
    match method {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "explain" => {
            let program = parse_program(&doc)?;
            Ok(Request::Explain { program })
        }
        "run" => {
            let program = parse_program(&doc)?;
            let input = parse_input(
                doc.get("input")
                    .ok_or_else(|| AppError::proto("run: missing `input`"))?,
            )?;
            Ok(Request::Run { program, input })
        }
        "run_batch" => {
            let program = parse_program(&doc)?;
            let inputs = doc
                .get("inputs")
                .and_then(Json::as_arr)
                .ok_or_else(|| AppError::proto("run_batch: missing array `inputs`"))?
                .iter()
                .map(parse_input)
                .collect::<Result<Vec<_>, _>>()?;
            let window = number(&doc, "window", Some(0..=MAX_EXACT_INT))
                .map_err(AppError::proto)?
                .map_or(8, |w| w as usize)
                .clamp(1, 64);
            Ok(Request::RunBatch {
                program,
                inputs,
                window,
            })
        }
        other => Err(AppError::proto(format!("unknown method `{other}`"))),
    }
}

fn parse_program(doc: &Json) -> Result<ProgramSpec, AppError> {
    let p = doc
        .get("program")
        .ok_or_else(|| AppError::proto("missing `program`"))?;
    let source = p
        .get("source")
        .and_then(Json::as_str)
        .ok_or_else(|| AppError::proto("program: missing string `source`"))?
        .to_string();
    let root = p
        .get("root")
        .and_then(Json::as_str)
        .ok_or_else(|| AppError::proto("program: missing string `root`"))?
        .to_string();
    let passes = p
        .get("passes")
        .and_then(Json::as_arr)
        .ok_or_else(|| AppError::proto("program: missing array `passes`"))?;
    if passes.len() > MAX_PASSES {
        return Err(AppError::config(format!(
            "program: {} passes exceed the cap of {MAX_PASSES}",
            passes.len()
        )));
    }
    let passes = passes
        .iter()
        .map(|x| {
            x.as_str()
                .map(str::to_string)
                .ok_or_else(|| AppError::proto("program: passes must be strings"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let backend = match p.get("backend").and_then(Json::as_str) {
        None => Backend::Vm,
        Some(s) => s.parse().map_err(AppError::config)?,
    };
    let opt_level = match p.get("opt_level").and_then(Json::as_str) {
        None => OptLevel::default(),
        Some(s) => s.parse().map_err(AppError::config)?,
    };
    let mut fusion = FusionOptions::default();
    if let Some(f) = p.get("fusion") {
        let cutoff = |key: &str| number(f, key, Some(FUSION_CUTOFFS)).map_err(AppError::config);
        if let Some(n) = cutoff("max_group_size")? {
            fusion.max_group_size = n as usize;
        }
        if let Some(n) = cutoff("max_occurrences")? {
            fusion.max_occurrences = n as usize;
        }
        if let Some(Json::Bool(g)) = f.get("grouping") {
            fusion.grouping = *g;
        }
    }
    let args = match p.get("args") {
        None => Vec::new(),
        Some(a) => a
            .as_arr()
            .ok_or_else(|| AppError::proto("program: `args` must be an array"))?
            .iter()
            .map(|pass| {
                pass.as_arr()
                    .ok_or_else(|| AppError::proto("program: each args entry must be an array"))?
                    .iter()
                    .map(parse_value)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(ProgramSpec {
        source,
        root,
        passes,
        backend,
        opt_level,
        fusion,
        args,
    })
}

fn parse_input(doc: &Json) -> Result<InputSpec, AppError> {
    if let Some(gen) = doc.get("gen") {
        let workload = gen
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| AppError::proto("gen: missing string `workload`"))?
            .to_string();
        let count = |key: &str| number(gen, key, Some(0..=MAX_EXACT_INT)).map_err(AppError::proto);
        let size =
            count("size")?.ok_or_else(|| AppError::proto("gen: missing number `size`"))? as usize;
        let seed = count("seed")?.map_or(42, |s| s as u64);
        return Ok(InputSpec::Gen {
            workload,
            size,
            seed,
        });
    }
    if let Some(tree) = doc.get("tree") {
        return Ok(InputSpec::Tree(parse_tree(tree)?));
    }
    Err(AppError::proto("input needs `gen` or `tree`"))
}

fn parse_tree(doc: &Json) -> Result<TreeSpec, AppError> {
    let class = doc
        .get("class")
        .and_then(Json::as_str)
        .ok_or_else(|| AppError::proto("tree: missing string `class`"))?
        .to_string();
    let mut fields = Vec::new();
    if let Some(Json::Obj(map)) = doc.get("fields") {
        for (name, v) in map {
            fields.push((name.clone(), parse_value(v)?));
        }
        // The parser's map loses wire order; field *values* are
        // order-independent, but sort for determinism anyway.
        fields.sort_by(|a, b| a.0.cmp(&b.0));
    }
    let mut children = Vec::new();
    if let Some(Json::Obj(map)) = doc.get("children") {
        for (name, c) in map {
            let child = match c {
                Json::Null => None,
                other => Some(parse_tree(other)?),
            };
            children.push((name.clone(), child));
        }
        // Child order decides allocation order (hence simulated
        // addresses); canonical name order keeps it deterministic
        // regardless of the parser's map iteration order.
        children.sort_by(|a, b| a.0.cmp(&b.0));
    }
    Ok(TreeSpec {
        class,
        fields,
        children,
    })
}

fn parse_value(doc: &Json) -> Result<Value, AppError> {
    let int = number(doc, "i", Some(-MAX_EXACT_INT..=MAX_EXACT_INT)).map_err(AppError::proto)?;
    if let Some(n) = int {
        return Ok(Value::Int(n as i64));
    }
    if let Some(x) = number(doc, "f", None).map_err(AppError::proto)? {
        return Ok(Value::Float(x));
    }
    if let Some(Json::Bool(b)) = doc.get("b") {
        return Ok(Value::Bool(*b));
    }
    Err(AppError::proto(
        "value must be tagged: {\"i\":..}, {\"f\":..} or {\"b\":..}",
    ))
}

// ---------------------------------------------------------------------
// Wire rendering (used by the client side: grafter-load and tests)
// ---------------------------------------------------------------------

fn write_value_spec(w: &mut JsonWriter, v: &Value) {
    w.begin_obj();
    match v {
        Value::Int(n) => w.key("i").num(*n),
        Value::Float(x) => w.key("f").float(*x),
        Value::Bool(b) => w.key("b").bool(*b),
        Value::Ref(_) => w.key("i").num(0),
    };
    w.end_obj();
}

fn write_program(w: &mut JsonWriter, p: &ProgramSpec) {
    w.key("program").begin_obj();
    w.key("source").str(&p.source);
    w.key("root").str(&p.root);
    w.key("passes").begin_arr();
    for pass in &p.passes {
        w.str(pass);
    }
    w.end_arr();
    w.key("backend").str(&p.backend.to_string());
    w.key("opt_level").str(&format!("{:?}", p.opt_level));
    w.key("fusion").begin_obj();
    w.key("max_group_size").num(p.fusion.max_group_size);
    w.key("max_occurrences").num(p.fusion.max_occurrences);
    w.key("grouping").bool(p.fusion.grouping);
    w.end_obj();
    if !p.args.is_empty() {
        w.key("args").begin_arr();
        for pass in &p.args {
            w.begin_arr();
            for v in pass {
                write_value_spec(w, v);
            }
            w.end_arr();
        }
        w.end_arr();
    }
    w.end_obj();
}

fn write_input(w: &mut JsonWriter, input: &InputSpec) {
    w.begin_obj();
    match input {
        InputSpec::Gen {
            workload,
            size,
            seed,
        } => {
            w.key("gen").begin_obj();
            w.key("workload").str(workload);
            w.key("size").num(*size);
            w.key("seed").num(*seed);
            w.end_obj();
        }
        InputSpec::Tree(tree) => {
            w.key("tree");
            write_tree(w, tree);
        }
    }
    w.end_obj();
}

fn write_tree(w: &mut JsonWriter, tree: &TreeSpec) {
    w.begin_obj();
    w.key("class").str(&tree.class);
    if !tree.fields.is_empty() {
        w.key("fields").begin_obj();
        for (name, v) in &tree.fields {
            w.key(name);
            write_value_spec(w, v);
        }
        w.end_obj();
    }
    if !tree.children.is_empty() {
        w.key("children").begin_obj();
        for (name, child) in &tree.children {
            w.key(name);
            match child {
                None => {
                    w.null();
                }
                Some(c) => write_tree(w, c),
            }
        }
        w.end_obj();
    }
    w.end_obj();
}

/// Renders a `run` request body.
pub fn render_run(program: &ProgramSpec, input: &InputSpec) -> String {
    let mut w = JsonWriter::with_capacity(program.source.len() + 256);
    w.begin_obj();
    w.key("method").str("run");
    write_program(&mut w, program);
    w.key("input");
    write_input(&mut w, input);
    w.end_obj();
    w.finish()
}

/// Renders a `run_batch` request body.
pub fn render_run_batch(program: &ProgramSpec, inputs: &[InputSpec], window: usize) -> String {
    let mut w = JsonWriter::with_capacity(program.source.len() + 256 + 64 * inputs.len());
    w.begin_obj();
    w.key("method").str("run_batch");
    write_program(&mut w, program);
    w.key("inputs").begin_arr();
    for input in inputs {
        write_input(&mut w, input);
    }
    w.end_arr();
    w.key("window").num(window);
    w.end_obj();
    w.finish()
}

/// Renders an `explain` request body.
pub fn render_explain(program: &ProgramSpec) -> String {
    let mut w = JsonWriter::with_capacity(program.source.len() + 128);
    w.begin_obj();
    w.key("method").str("explain");
    write_program(&mut w, program);
    w.end_obj();
    w.finish()
}

/// Renders a bare `{"method":M}` request body (`ping`, `stats`).
pub fn render_bare(method: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("method").str(method);
    w.end_obj();
    w.finish()
}

/// Renders the error response body for a failed request.
pub fn render_error(stage: &str, message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("ok").bool(false);
    w.key("error").begin_obj();
    w.key("stage").str(stage);
    w.key("message").str(message);
    w.end_obj();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"method\":\"ping\"}").unwrap();
        write_frame(&mut wire, "{}").unwrap();
        let mut reader = FrameReader::new(wire.as_slice());
        match reader.read_frame().unwrap() {
            Incoming::Frame(b) => assert_eq!(b, "{\"method\":\"ping\"}"),
            other => panic!("expected frame, got {other:?}"),
        }
        match reader.read_frame().unwrap() {
            Incoming::Frame(b) => assert_eq!(b, "{}"),
            other => panic!("expected frame, got {other:?}"),
        }
        assert!(matches!(reader.read_frame().unwrap(), Incoming::Closed));
    }

    #[test]
    fn oversized_frame_is_drained_and_reported() {
        let body = "x".repeat(MAX_BODY + 1);
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        write_frame(&mut wire, "{}").unwrap();
        let mut reader = FrameReader::new(wire.as_slice());
        match reader.read_frame() {
            Err(ProtoError::Oversized(n)) => assert_eq!(n, MAX_BODY + 1),
            other => panic!("expected oversized, got {other:?}"),
        }
        // The connection survives: the next frame parses.
        assert!(matches!(reader.read_frame().unwrap(), Incoming::Frame(b) if b == "{}"));
    }

    #[test]
    fn absurd_frame_is_fatal() {
        let wire = format!("{}\n", DRAIN_CAP + 1);
        let mut reader = FrameReader::new(wire.as_bytes());
        assert!(matches!(reader.read_frame(), Err(ProtoError::Fatal(_))));
    }

    #[test]
    fn bad_utf8_body_is_typed_not_fatal() {
        let mut wire: Vec<u8> = b"4\n".to_vec();
        wire.extend_from_slice(&[0xff, 0xfe, 0x61, 0x62]);
        wire.push(b'\n');
        wire.extend_from_slice(b"2\n{}\n");
        let mut reader = FrameReader::new(wire.as_slice());
        assert!(matches!(reader.read_frame(), Err(ProtoError::BadUtf8)));
        assert!(matches!(reader.read_frame().unwrap(), Incoming::Frame(b) if b == "{}"));
    }

    #[test]
    fn non_digit_length_header_is_fatal() {
        let mut reader = FrameReader::new(&b"12abc\n{}\n"[..]);
        assert!(matches!(reader.read_frame(), Err(ProtoError::Fatal(_))));
    }

    fn tiny_program() -> ProgramSpec {
        ProgramSpec {
            source: "tree class N { int a = 0; virtual traversal t() {} }".to_string(),
            root: "N".to_string(),
            passes: vec!["t".to_string()],
            backend: Backend::Vm,
            opt_level: OptLevel::O2,
            fusion: FusionOptions::default(),
            args: vec![vec![Value::Float(2.5), Value::Int(3)]],
        }
    }

    #[test]
    fn requests_round_trip_through_render_and_parse() {
        let program = tiny_program();
        let input = InputSpec::Tree(TreeSpec {
            class: "N".to_string(),
            fields: vec![("a".to_string(), Value::Int(7))],
            children: Vec::new(),
        });
        let body = render_run(&program, &input);
        match parse_request(&body).expect("round-trips") {
            Request::Run {
                program: p,
                input: InputSpec::Tree(t),
            } => {
                assert_eq!(p.source, program.source);
                assert_eq!(p.key(), program.key());
                assert_eq!(t.class, "N");
                assert_eq!(t.fields, vec![("a".to_string(), Value::Int(7))]);
            }
            other => panic!("wrong parse: {other:?}"),
        }

        let body = render_run_batch(
            &program,
            &[
                InputSpec::Gen {
                    workload: "ast".to_string(),
                    size: 64,
                    seed: 7,
                },
                input,
            ],
            5,
        );
        match parse_request(&body).expect("round-trips") {
            Request::RunBatch { inputs, window, .. } => {
                assert_eq!(inputs.len(), 2);
                assert_eq!(window, 5);
                assert!(
                    matches!(&inputs[0], InputSpec::Gen { workload, size, seed } if workload == "ast" && *size == 64 && *seed == 7)
                );
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn schema_violations_are_typed() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"method\":\"teleport\"}").is_err());
        assert!(parse_request("{\"method\":\"run\"}").is_err());
        let e = parse_request("{}").unwrap_err();
        assert_eq!(e.stage, "proto");
    }

    #[test]
    fn keys_distinguish_every_field() {
        let base = tiny_program();
        assert_eq!(base.key(), tiny_program().key());
        let variants = [
            ProgramSpec {
                source: format!("{} ", base.source),
                ..tiny_program()
            },
            ProgramSpec {
                root: "M".to_string(),
                ..tiny_program()
            },
            // Pass *order* is part of the identity: it decides fusion groups.
            ProgramSpec {
                passes: vec!["t".to_string(), "u".to_string()],
                ..tiny_program()
            },
            ProgramSpec {
                passes: vec!["u".to_string(), "t".to_string()],
                ..tiny_program()
            },
            ProgramSpec {
                backend: Backend::Interp,
                ..tiny_program()
            },
            ProgramSpec {
                opt_level: OptLevel::O0,
                ..tiny_program()
            },
            ProgramSpec {
                fusion: FusionOptions::unfused(),
                ..tiny_program()
            },
            ProgramSpec {
                fusion: FusionOptions {
                    max_group_size: 2,
                    ..FusionOptions::default()
                },
                ..tiny_program()
            },
            ProgramSpec {
                fusion: FusionOptions {
                    max_occurrences: 2,
                    ..FusionOptions::default()
                },
                ..tiny_program()
            },
            ProgramSpec {
                args: vec![vec![Value::Float(2.5), Value::Int(4)]],
                ..tiny_program()
            },
        ];
        for (i, a) in variants.iter().enumerate() {
            assert_ne!(a.key(), base.key(), "variant {i}");
            for b in &variants[i + 1..] {
                assert_ne!(a.key(), b.key());
            }
        }
    }

    #[test]
    fn inline_trees_resolve_against_the_program() {
        let compiled = grafter::Compiled::compile(
            "struct Box { int w; int h; }
             tree class N { child N* next; Box size; int a = 0; virtual traversal t() {} }
             tree class M : N { }
             tree class Other { int b = 0; }",
        )
        .unwrap();
        let program = compiled.program();
        let layouts = Layouts::new(program);
        let spec =
            |class: &str, fields: &[(&str, i64)], children: Vec<(&str, Option<TreeSpec>)>| {
                TreeSpec {
                    class: class.to_string(),
                    fields: fields
                        .iter()
                        .map(|&(f, v)| (f.to_string(), Value::Int(v)))
                        .collect(),
                    children: children
                        .into_iter()
                        .map(|(f, c)| (f.to_string(), c))
                        .collect(),
                }
            };

        let tree = spec(
            "M",
            &[("a", 1), ("size.h", 7)],
            vec![("next", Some(spec("N", &[], Vec::new())))],
        );
        let resolved = resolve_tree_spec(program, &layouts, &tree).unwrap();
        let mut heap = Heap::new(program);
        let root = build_tree_spec(&mut heap, &resolved);
        assert_eq!(heap.get_by_name(root, "a"), Some(Value::Int(1)));
        assert_eq!(heap.get_by_name(root, "size.h"), Some(Value::Int(7)));
        assert_eq!(heap.get_by_name(root, "size.w"), Some(Value::Int(0)));
        let kid = heap.child_by_name(root, "next").unwrap().unwrap();
        assert_eq!(heap.class_of(kid), program.class_by_name("N").unwrap());

        for (tree, needle) in [
            (spec("Nope", &[], Vec::new()), "unknown tree class `Nope`"),
            (spec("N", &[("b", 1)], Vec::new()), "unknown field `b`"),
            (
                spec("N", &[("size.d", 1)], Vec::new()),
                "unknown field `size.d`",
            ),
            (spec("N", &[("a.w", 1)], Vec::new()), "unknown field `a.w`"),
            (
                spec("N", &[("next", 1)], Vec::new()),
                "unknown field `next`",
            ),
            (spec("N", &[], vec![("a", None)]), "unknown child field `a`"),
            (
                spec(
                    "N",
                    &[],
                    vec![("next", Some(spec("Other", &[], Vec::new())))],
                ),
                "holds a `Other`, not a `N`",
            ),
            (
                spec(
                    "N",
                    &[],
                    vec![("next", Some(spec("Gone", &[], Vec::new())))],
                ),
                "unknown tree class `Gone`",
            ),
        ] {
            let err = resolve_tree_spec(program, &layouts, &tree).unwrap_err();
            assert_eq!(err.stage, "config");
            assert!(err.message.contains(needle), "{}", err.message);
        }
    }
}
