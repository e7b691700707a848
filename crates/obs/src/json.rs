//! The workspace's hand-rolled JSON machinery: a writer, a minimal
//! parser, and a Chrome trace-event schema check.
//!
//! The build environment vendors no serde, so everything that speaks
//! JSON — the Chrome trace exporter ([`crate::chrome`]), `grafterc
//! --json` (diagnostics and `Report` serialization), and the
//! `grafter-server` wire protocol — shares this one module instead of
//! each growing another copy:
//!
//! - [`JsonWriter`] is a streaming writer with automatic comma
//!   management (and [`escape`] for string contents).
//! - [`parse`] turns a JSON document into a [`Json`] tree (numbers kept
//!   as `f64`, which is enough for microsecond timestamps at trace
//!   scale and for the server protocol's sizes/seeds).
//! - [`validate_chrome_trace`] checks the shape Perfetto requires —
//!   a top-level `traceEvents` array whose events carry
//!   `name`/`ph`/`pid`, with `ts` and `dur` on every complete (`"X"`)
//!   event.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Escapes `s` as the inside of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A streaming JSON writer with automatic comma management.
///
/// Containers nest via [`JsonWriter::begin_obj`] / [`JsonWriter::begin_arr`];
/// inside an object every value is preceded by a [`JsonWriter::key`], inside
/// an array values follow each other directly. The writer inserts the commas,
/// so callers never thread `if i > 0` through their emission loops. Output is
/// compact (no whitespace), matching what the parser half of this module and
/// every external consumer (Perfetto, `python3 -m json`) accept.
///
/// ```
/// use grafter_obs::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_obj();
/// w.key("xs").begin_arr();
/// w.num(1);
/// w.num(2);
/// w.end_arr();
/// w.key("ok").bool(true);
/// w.end_obj();
/// assert_eq!(w.finish(), r#"{"xs":[1,2],"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// Per-open-container count of items written so far.
    items: Vec<usize>,
    /// Whether the next value completes a `key(..)` (no comma, no count).
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// An empty writer with `n` bytes of output pre-allocated.
    pub fn with_capacity(n: usize) -> Self {
        JsonWriter {
            buf: String::with_capacity(n),
            ..JsonWriter::default()
        }
    }

    /// Comma bookkeeping before a value (or container opening) begins.
    fn pad_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(n) = self.items.last_mut() {
            if *n > 0 {
                self.buf.push(',');
            }
            *n += 1;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.pad_value();
        self.buf.push('{');
        self.items.push(0);
        self
    }

    /// Closes the innermost object (`}`).
    pub fn end_obj(&mut self) -> &mut Self {
        self.items.pop();
        self.buf.push('}');
        self
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.pad_value();
        self.buf.push('[');
        self.items.push(0);
        self
    }

    /// Closes the innermost array (`]`).
    pub fn end_arr(&mut self) -> &mut Self {
        self.items.pop();
        self.buf.push(']');
        self
    }

    /// Writes an object key (escaped); the next write is its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        if let Some(n) = self.items.last_mut() {
            if *n > 0 {
                self.buf.push(',');
            }
            *n += 1;
        }
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
        self.after_key = true;
        self
    }

    /// Writes a string value (escaped).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.pad_value();
        self.buf.push('"');
        self.buf.push_str(&escape(s));
        self.buf.push('"');
        self
    }

    /// Writes an integer value (any type formatting as a plain decimal).
    pub fn num(&mut self, n: impl fmt::Display) -> &mut Self {
        self.pad_value();
        let _ = write!(self.buf, "{n}");
        self
    }

    /// Writes a float value; non-finite floats become quoted strings to
    /// keep the document parseable (JSON has no NaN/Inf literals).
    pub fn float(&mut self, x: f64) -> &mut Self {
        self.pad_value();
        if x.is_finite() {
            let _ = write!(self.buf, "{x}");
        } else {
            let _ = write!(self.buf, "\"{x}\"");
        }
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.pad_value();
        self.buf.push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.pad_value();
        self.buf.push_str("null");
        self
    }

    /// Writes a pre-rendered JSON fragment as one value, verbatim.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.pad_value();
        self.buf.push_str(json);
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse or validation failure, with a byte offset for parse errors.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input (0 for schema errors).
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`parse`] accepts.
///
/// The parser recurses once per level, and so do the recursive walks of
/// a parsed [`Json`] (its drop, and the wire protocol's inline-tree
/// decoding). A frame of a few hundred kilobytes nested a few hundred
/// thousand levels deep would otherwise overflow the parsing thread's
/// stack, which aborts the process instead of failing the request. No
/// document this workspace writes comes near the cap.
pub const MAX_DEPTH: usize = 1024;

struct Parser<'s> {
    src: &'s str,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn err<T>(&self, msg: &str) -> Result<T, JsonError> {
        Err(JsonError {
            msg: msg.to_string(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn eat_lit(&mut self, lit: &str, val: Json) -> Result<Json, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(val)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    /// Parses one value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.err(&format!("nesting deeper than {MAX_DEPTH} levels"))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` as one slice. Both
            // are ASCII, so the run starts and ends on char boundaries.
            let run = self.src.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.src.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                // Surrogate pairs are not needed for the
                                // identifiers this crate emits.
                                Some(c) => {
                                    out.push(c);
                                    self.pos += 4;
                                }
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        match self.src[start..self.pos].parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err("bad number"),
        }
    }
}

/// Parses a JSON document, requiring it to be fully consumed.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src, pos: 0 };
    let val = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing data after document");
    }
    Ok(val)
}

fn schema_err(msg: impl Into<String>) -> JsonError {
    JsonError {
        msg: msg.into(),
        at: 0,
    }
}

/// Checks that `doc` has the shape of a Chrome trace-event document:
/// a top-level object with a `traceEvents` array, every event an object
/// with string `name`/`ph` and numeric `pid`, and `ts`/`dur` present and
/// non-negative on every complete (`"X"`) event. Returns the number of
/// events on success.
pub fn validate_chrome_trace(doc: &Json) -> Result<usize, JsonError> {
    let events = doc
        .get("traceEvents")
        .ok_or_else(|| schema_err("missing traceEvents"))?
        .as_arr()
        .ok_or_else(|| schema_err("traceEvents is not an array"))?;
    for (i, ev) in events.iter().enumerate() {
        let fail = |what: &str| schema_err(format!("event {i}: {what}"));
        if !matches!(ev, Json::Obj(_)) {
            return Err(fail("not an object"));
        }
        let name = ev.get("name").and_then(Json::as_str);
        if name.map_or(true, str::is_empty) {
            return Err(fail("missing name"));
        }
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing ph"))?;
        if ev.get("pid").and_then(Json::as_num).is_none() {
            return Err(fail("missing pid"));
        }
        if ph == "X" {
            for field in ["ts", "dur"] {
                match ev.get(field).and_then(Json::as_num) {
                    Some(n) if n >= 0.0 => {}
                    _ => return Err(fail(&format!("complete event missing {field}"))),
                }
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, -2.5, "x\n", true, null], "b": {"c": 3e2}}"#).unwrap();
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_num(),
            Some(300.0)
        );
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} junk").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn validates_trace_shape() {
        let good =
            parse(r#"{"traceEvents":[{"name":"parse","ph":"X","pid":1,"tid":1,"ts":0,"dur":5}]}"#)
                .unwrap();
        assert_eq!(validate_chrome_trace(&good), Ok(1));

        let no_dur =
            parse(r#"{"traceEvents":[{"name":"parse","ph":"X","pid":1,"ts":0}]}"#).unwrap();
        assert!(validate_chrome_trace(&no_dur).is_err());

        let no_events = parse(r#"{"displayTimeUnit":"ms"}"#).unwrap();
        assert!(validate_chrome_trace(&no_events).is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let doc = parse(r#""Aé""#).unwrap();
        assert_eq!(doc.as_str(), Some("Aé"));
    }

    #[test]
    fn strings_mixing_runs_escapes_and_multibyte_utf8_decode_exactly() {
        let run = "plain ascii, é ü €, 😀 and 𝄞 ".repeat(200);
        let src = format!(r#""{run}\"\\\/\n\r\t\b\f\u0041\u00e9\u20ac{run}x\\""#);
        let want = format!("{run}\"\\/\n\r\t\u{8}\u{c}Aé€{run}x\\");
        assert_eq!(parse(&src), Ok(Json::Str(want)));
        // Runs end exactly at quotes and escapes, including at the edges.
        assert_eq!(parse(r#""""#), Ok(Json::Str(String::new())));
        assert_eq!(parse(r#""\n""#), Ok(Json::Str("\n".to_string())));
        assert_eq!(parse(r#""é\"""#), Ok(Json::Str("é\"".to_string())));
        assert!(parse(r#""unterminated é"#).is_err());
        assert!(parse(r#""bad \q escape""#).is_err());
        assert!(parse(r#""short \u00""#).is_err());
    }

    #[test]
    fn megabyte_strings_decode_in_linear_time() {
        let body = "0123456789abcdeé".repeat(1 << 16);
        assert!(body.len() > 1 << 20);
        let src = format!("[\"{body}\"]");
        let start = std::time::Instant::now();
        let doc = parse(&src).unwrap();
        let took = start.elapsed();
        assert_eq!(doc.as_arr().unwrap()[0].as_str(), Some(body.as_str()));
        // Linear decoding takes milliseconds even unoptimized; a decoder
        // that rescans the rest of the input per character takes minutes.
        assert!(
            took < std::time::Duration::from_secs(2),
            "1 MiB string took {took:?}"
        );
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + "0" + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(parse(&nested(open, close, MAX_DEPTH)).is_ok());
            // One level past the cap fails, and so does a bomb far past
            // it, without exhausting the stack.
            for depth in [MAX_DEPTH + 1, 300_000] {
                let err = parse(&nested(open, close, depth)).unwrap_err();
                assert!(err.msg.contains("nesting deeper than"), "{err}");
            }
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn writer_manages_commas_and_nesting() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("a").num(1u64);
        w.key("b").begin_arr();
        w.str("x\n");
        w.null();
        w.bool(false);
        w.begin_obj();
        w.key("c").float(2.5);
        w.end_obj();
        w.end_arr();
        w.key("d").raw("{\"pre\":1}");
        w.end_obj();
        let doc = w.finish();
        assert_eq!(
            doc,
            r#"{"a":1,"b":["x\n",null,false,{"c":2.5}],"d":{"pre":1}}"#
        );
        // The writer's output must satisfy this module's own parser.
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn writer_quotes_non_finite_floats() {
        let mut w = JsonWriter::new();
        w.begin_arr();
        w.float(f64::NAN);
        w.float(f64::INFINITY);
        w.end_arr();
        let doc = w.finish();
        assert_eq!(doc, r#"["NaN","inf"]"#);
        assert!(parse(&doc).is_ok());
    }
}
