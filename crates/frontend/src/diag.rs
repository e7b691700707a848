//! Unified diagnostics and source locations for every pipeline stage.
//!
//! All stages of the compile→fuse→execute pipeline report problems through
//! one pair of types: a [`Diag`] is a single message with a [`Severity`],
//! the [`Stage`] that produced it, and an optional source [`Span`]; a
//! [`DiagnosticBag`] accumulates them across stages. The frontend (lexer,
//! parser, sema) fills bags directly; the fusion compiler and the runtime
//! convert their structured errors (`FuseError`, `RuntimeError`) into
//! [`Diag`]s when surfaced through the `grafter::pipeline` API, so callers
//! handle a single error type end to end.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::ops::Index;

use grafter_obs::json::escape as escape_json;

/// A half-open byte range into the source text.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }

    /// Computes 1-based `(line, column)` of the span start within `src`.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in src.char_indices() {
            if i >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// How serious a diagnostic is.
///
/// Errors abort the pipeline stage that produced them; warnings are carried
/// along with a successful result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// The pipeline stage a diagnostic originated from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Tokenisation of the source text.
    Lex,
    /// Parsing tokens into the surface AST.
    Parse,
    /// Name resolution, type checking and language restrictions.
    Sema,
    /// The fusion compiler.
    Fuse,
    /// Lowering a fused program to VM bytecode.
    Lower,
    /// Interpretation of a fused program.
    Runtime,
    /// Engine/session configuration (builder misuse, bad entry points).
    Config,
}

impl Stage {
    /// Whether the stage runs before execution (lex/parse/sema/fuse/lower
    /// and engine configuration). Runtime failures are the complement.
    pub fn is_compile(&self) -> bool {
        !matches!(self, Stage::Runtime)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Lex => f.write_str("lex"),
            Stage::Parse => f.write_str("parse"),
            Stage::Sema => f.write_str("sema"),
            Stage::Fuse => f.write_str("fuse"),
            Stage::Lower => f.write_str("lower"),
            Stage::Runtime => f.write_str("runtime"),
            Stage::Config => f.write_str("config"),
        }
    }
}

/// A single diagnostic from any pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Diag {
    /// Whether this is an error or a warning.
    pub severity: Severity,
    /// The stage that produced the diagnostic.
    pub stage: Stage,
    /// Human-readable message, lowercase, no trailing punctuation.
    pub message: String,
    /// Source range the message refers to, when known.
    pub span: Option<Span>,
}

impl Diag {
    /// Creates an error attached to a source span.
    pub fn error(stage: Stage, message: impl Into<String>, span: Span) -> Self {
        Diag {
            severity: Severity::Error,
            stage,
            message: message.into(),
            span: Some(span),
        }
    }

    /// Creates an error with no particular location.
    pub fn error_global(stage: Stage, message: impl Into<String>) -> Self {
        Diag {
            severity: Severity::Error,
            stage,
            message: message.into(),
            span: None,
        }
    }

    /// Creates a warning attached to a source span.
    pub fn warning(stage: Stage, message: impl Into<String>, span: Span) -> Self {
        Diag {
            severity: Severity::Warning,
            stage,
            message: message.into(),
            span: Some(span),
        }
    }

    /// Creates a warning with no particular location.
    pub fn warning_global(stage: Stage, message: impl Into<String>) -> Self {
        Diag {
            severity: Severity::Warning,
            stage,
            message: message.into(),
            span: None,
        }
    }

    /// Whether the diagnostic is an error.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Renders the diagnostic with `line:col` resolved against `src`.
    ///
    /// Spanned diagnostics additionally get a source-line excerpt with a
    /// caret run underlining the offending range:
    ///
    /// ```text
    /// 2:11: error[sema]: unknown tree class `Missing`
    ///   |
    /// 2 |     child Missing* c;
    ///   |           ^^^^^^^
    /// ```
    pub fn render(&self, src: &str) -> String {
        match self.span {
            Some(span) => {
                let (line, col) = span.line_col(src);
                let mut out = format!(
                    "{line}:{col}: {}[{}]: {}",
                    self.severity, self.stage, self.message
                );
                if let Some(text) = src.lines().nth(line - 1) {
                    let gutter = line.to_string();
                    let pad = " ".repeat(gutter.len());
                    // Caret run covering the span, clamped to the line
                    // end — measured in chars (the units of `col` and
                    // `indent`), not span bytes.
                    let line_chars = text.chars().count();
                    let avail = line_chars.saturating_sub(col - 1).max(1);
                    let span_chars = src
                        .get(span.start..span.end.min(src.len()))
                        .map(|covered| covered.chars().count())
                        .unwrap_or_else(|| span.end.saturating_sub(span.start));
                    let width = span_chars.clamp(1, avail);
                    let indent = " ".repeat(col - 1);
                    let carets = "^".repeat(width);
                    out.push_str(&format!(
                        "\n{pad} |\n{gutter} | {text}\n{pad} | {indent}{carets}"
                    ));
                }
                out
            }
            None => format!("{}[{}]: {}", self.severity, self.stage, self.message),
        }
    }

    /// Renders the diagnostic as one JSON object (`line`/`col` resolved
    /// against `src`; `span` is `null` for global diagnostics).
    pub fn render_json(&self, src: &str) -> String {
        let span = match self.span {
            Some(s) => {
                let (line, col) = s.line_col(src);
                format!(
                    r#"{{"start": {}, "end": {}, "line": {line}, "col": {col}}}"#,
                    s.start, s.end
                )
            }
            None => "null".to_string(),
        };
        format!(
            r#"{{"severity": "{}", "stage": "{}", "message": "{}", "span": {span}}}"#,
            self.severity,
            self.stage,
            escape_json(&self.message)
        )
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.stage, self.message)
    }
}

impl Error for Diag {}

/// An ordered accumulation of diagnostics across pipeline stages.
///
/// This is the single error type of the `grafter::pipeline` API: every
/// stage either succeeds (possibly leaving warnings behind) or hands back
/// the bag with at least one error in it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiagnosticBag {
    diags: Vec<Diag>,
}

impl DiagnosticBag {
    /// Creates an empty bag.
    pub fn new() -> Self {
        DiagnosticBag::default()
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, diag: Diag) {
        self.diags.push(diag);
    }

    /// Adds an error attached to a source span.
    pub fn error(&mut self, stage: Stage, message: impl Into<String>, span: Span) {
        self.push(Diag::error(stage, message, span));
    }

    /// Adds an error with no particular location.
    pub fn error_global(&mut self, stage: Stage, message: impl Into<String>) {
        self.push(Diag::error_global(stage, message));
    }

    /// Adds a warning attached to a source span.
    pub fn warning(&mut self, stage: Stage, message: impl Into<String>, span: Span) {
        self.push(Diag::warning(stage, message, span));
    }

    /// Number of diagnostics collected.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether no diagnostics were collected.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether at least one collected diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(Diag::is_error)
    }

    /// Iterates over the collected diagnostics in emission order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diag> {
        self.diags.iter()
    }

    /// The collected diagnostics as a slice.
    pub fn diags(&self) -> &[Diag] {
        &self.diags
    }

    /// Moves every diagnostic of `other` into `self`.
    pub fn merge(&mut self, other: DiagnosticBag) {
        self.diags.extend(other.diags);
    }

    /// Removes exact duplicates, keeping the first occurrence of each
    /// diagnostic in emission order.
    ///
    /// Pipelines that run a pass twice over the same program (e.g. fusing
    /// both the fused artifact and the unfused baseline) accumulate the
    /// same warnings once per pass; collapsing them keeps reports
    /// readable.
    pub fn dedup(&mut self) {
        let mut seen = HashSet::new();
        self.diags.retain(|d| seen.insert(d.clone()));
    }

    /// `Ok(value)` when the bag holds no errors, `Err(self)` otherwise.
    ///
    /// The success path keeps any warnings in the caller's hands via the
    /// returned pair.
    pub fn into_result<T>(self, value: T) -> Result<(T, DiagnosticBag), DiagnosticBag> {
        if self.has_errors() {
            Err(self)
        } else {
            Ok((value, self))
        }
    }

    /// Renders every diagnostic with `line:col` resolved against `src`,
    /// one block per diagnostic (spanned diagnostics include their caret
    /// snippet).
    pub fn render(&self, src: &str) -> String {
        self.diags
            .iter()
            .map(|d| d.render(src))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Renders the whole bag as a JSON array of diagnostic objects (the
    /// `grafterc --json` output format).
    pub fn render_json(&self, src: &str) -> String {
        if self.diags.is_empty() {
            return "[]".to_string();
        }
        let items = self
            .diags
            .iter()
            .map(|d| format!("  {}", d.render_json(src)))
            .collect::<Vec<_>>()
            .join(",\n");
        format!("[\n{items}\n]")
    }
}

impl Index<usize> for DiagnosticBag {
    type Output = Diag;

    fn index(&self, index: usize) -> &Diag {
        &self.diags[index]
    }
}

impl Extend<Diag> for DiagnosticBag {
    fn extend<I: IntoIterator<Item = Diag>>(&mut self, iter: I) {
        self.diags.extend(iter);
    }
}

impl FromIterator<Diag> for DiagnosticBag {
    fn from_iter<I: IntoIterator<Item = Diag>>(iter: I) -> Self {
        DiagnosticBag {
            diags: iter.into_iter().collect(),
        }
    }
}

impl From<Diag> for DiagnosticBag {
    fn from(diag: Diag) -> Self {
        DiagnosticBag { diags: vec![diag] }
    }
}

impl From<Vec<Diag>> for DiagnosticBag {
    fn from(diags: Vec<Diag>) -> Self {
        DiagnosticBag { diags }
    }
}

impl IntoIterator for DiagnosticBag {
    type Item = Diag;
    type IntoIter = std::vec::IntoIter<Diag>;

    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

impl<'a> IntoIterator for &'a DiagnosticBag {
    type Item = &'a Diag;
    type IntoIter = std::slice::Iter<'a, Diag>;

    fn into_iter(self) -> Self::IntoIter {
        self.diags.iter()
    }
}

impl fmt::Display for DiagnosticBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl Error for DiagnosticBag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_tracks_errors_and_warnings() {
        let mut bag = DiagnosticBag::new();
        assert!(bag.is_empty() && !bag.has_errors());
        bag.warning(Stage::Sema, "unused traversal", Span::new(0, 3));
        assert!(!bag.has_errors(), "warnings alone are not errors");
        bag.error(Stage::Parse, "expected `;`", Span::new(4, 5));
        assert!(bag.has_errors());
        assert_eq!(bag.len(), 2);
        assert_eq!(bag[1].stage, Stage::Parse);
    }

    #[test]
    fn into_result_splits_on_errors() {
        let mut ok = DiagnosticBag::new();
        ok.warning(Stage::Lex, "odd spacing", Span::new(0, 1));
        assert!(ok.into_result(42).is_ok());

        let bad: DiagnosticBag = Diag::error_global(Stage::Fuse, "unknown tree class `X`").into();
        assert!(bad.into_result(42).is_err());
    }

    #[test]
    fn render_includes_stage_position_and_caret() {
        let src = "ab\ncd";
        let d = Diag::error(Stage::Lex, "unexpected character", Span::new(3, 4));
        assert_eq!(
            d.render(src),
            "2:1: error[lex]: unexpected character\n  |\n2 | cd\n  | ^"
        );
        let g = Diag::error_global(Stage::Runtime, "null child dereferenced");
        assert_eq!(g.render(src), "error[runtime]: null child dereferenced");
    }

    #[test]
    fn caret_clamps_to_the_source_line() {
        let src = "tree class X {\n    child Missing* c;\n}";
        let start = src.find("Missing").unwrap();
        let d = Diag::error(
            Stage::Sema,
            "unknown tree class `Missing`",
            Span::new(start, start + "Missing".len()),
        );
        let rendered = d.render(src);
        assert!(rendered.starts_with("2:11: error[sema]:"), "{rendered}");
        assert!(rendered.contains("2 |     child Missing* c;"), "{rendered}");
        assert!(rendered.contains("  |           ^^^^^^^"), "{rendered}");

        // A span that runs past the end of its line clamps its caret run.
        let d = Diag::error(
            Stage::Parse,
            "unterminated",
            Span::new(start, src.len() + 100),
        );
        let carets = d.render(src);
        let last = carets.lines().last().unwrap();
        assert_eq!(last.matches('^').count(), "Missing* c;".len(), "{carets}");
    }

    #[test]
    fn caret_width_counts_chars_not_bytes() {
        // '€' is 3 bytes but 1 column; the caret run must be 1 wide.
        let src = "a€b";
        let start = src.find('€').unwrap();
        let d = Diag::error(
            Stage::Lex,
            "unexpected character",
            Span::new(start, start + 3),
        );
        let last = d.render(src).lines().last().unwrap().to_string();
        assert_eq!(last.matches('^').count(), 1, "{last}");
    }

    #[test]
    fn dedup_removes_exact_duplicates_only() {
        let mut bag = DiagnosticBag::new();
        bag.warning(Stage::Sema, "pure `f` never called", Span::new(0, 4));
        bag.warning(Stage::Sema, "pure `f` never called", Span::new(0, 4));
        bag.warning(Stage::Sema, "pure `g` never called", Span::new(5, 9));
        bag.error_global(Stage::Fuse, "unknown tree class `X`");
        bag.error_global(Stage::Fuse, "unknown tree class `X`");
        bag.dedup();
        assert_eq!(bag.len(), 3);
        assert_eq!(bag[0].message, "pure `f` never called");
        assert_eq!(bag[1].message, "pure `g` never called");
        assert_eq!(bag[2].stage, Stage::Fuse);
    }

    #[test]
    fn json_rendering_escapes_and_locates() {
        let src = "ab\ncd";
        let d = Diag::error(Stage::Lex, "unexpected `\"`\n(literal)", Span::new(3, 4));
        let json = d.render_json(src);
        assert_eq!(
            json,
            r#"{"severity": "error", "stage": "lex", "message": "unexpected `\"`\n(literal)", "span": {"start": 3, "end": 4, "line": 2, "col": 1}}"#
        );
        let g = Diag::warning_global(Stage::Config, "no entry configured");
        assert!(g.render_json(src).ends_with(r#""span": null}"#));

        let mut bag = DiagnosticBag::new();
        assert_eq!(bag.render_json(src), "[]");
        bag.push(d);
        bag.push(g);
        let arr = bag.render_json(src);
        assert!(arr.starts_with("[\n") && arr.ends_with("\n]"), "{arr}");
        assert_eq!(arr.matches("\"severity\"").count(), 2);
    }
}
