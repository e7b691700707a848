//! Chrome trace-event rendering and the ranked text summary.
//!
//! The JSON writer targets the trace-event format's "JSON object" flavor:
//! `{"displayTimeUnit": "ms", "traceEvents": [...]}` with complete
//! (`"ph": "X"`) events carrying microsecond `ts`/`dur`. Perfetto and
//! `chrome://tracing` both load it directly. Compile stages render on one
//! track (`tid` 1), runs and batch workers on tracks of their own, and
//! profile rows ride along as `args` on the run events so nothing needs a
//! second file.

use crate::json::JsonWriter;
use crate::{BatchTrace, CompileTrace, RunTrace, TierProfile};
use std::fmt::Write as _;
use std::time::Duration;

/// Escapes `s` as the inside of a JSON string literal (re-exported from
/// the shared [`crate::json`] machinery for existing callers).
pub use crate::json::escape;

fn us(d: Duration) -> u128 {
    d.as_micros()
}

struct Events {
    out: Vec<String>,
}

impl Events {
    fn complete(
        &mut self,
        name: &str,
        cat: &str,
        tid: u32,
        ts: u128,
        dur: u128,
        args: &[(String, String)],
    ) {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("name").str(name);
        w.key("cat").str(cat);
        w.key("ph").str("X");
        w.key("pid").num(1);
        w.key("tid").num(tid);
        w.key("ts").num(ts);
        w.key("dur").num(dur);
        if !args.is_empty() {
            w.key("args").begin_obj();
            for (k, v) in args {
                w.key(k).str(v);
            }
            w.end_obj();
        }
        w.end_obj();
        self.out.push(w.finish());
    }

    fn thread_name(&mut self, tid: u32, name: &str) {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("name").str("thread_name");
        w.key("ph").str("M");
        w.key("pid").num(1);
        w.key("tid").num(tid);
        w.key("args").begin_obj();
        w.key("name").str(name);
        w.end_obj();
        w.end_obj();
        self.out.push(w.finish());
    }
}

fn top<T: Copy>(rows: &[(String, T)], n: usize, count: impl Fn(T) -> u64) -> Vec<(&str, u64)> {
    let mut v: Vec<(&str, u64)> = rows
        .iter()
        .map(|(name, c)| (name.as_str(), count(*c)))
        .collect();
    v.retain(|&(_, c)| c > 0);
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    v.truncate(n);
    v
}

fn profile_args(p: &TierProfile) -> Vec<(String, String)> {
    let mut args = Vec::new();
    for (name, hits) in top(&p.func_hits, 8, |c| c) {
        args.push((format!("fn {name}"), hits.to_string()));
    }
    for (name, hits) in top(&p.block_hits, 8, |c| c) {
        args.push((format!("block {name}"), hits.to_string()));
    }
    let fires: Vec<(String, u64)> = p
        .op_fires
        .iter()
        .map(|f| (f.name.clone(), f.fires))
        .collect();
    for (name, n) in top(&fires, 10, |c| c) {
        args.push((format!("op {name}"), n.to_string()));
    }
    for (name, visits) in top(&p.class_visits, 8, |c| c) {
        args.push((format!("class {name}"), visits.to_string()));
    }
    args
}

/// Renders the recorded traces as Chrome trace-event JSON.
pub fn render(compile: Option<&CompileTrace>, runs: &[RunTrace], batches: &[BatchTrace]) -> String {
    let mut ev = Events { out: Vec::new() };
    ev.thread_name(1, "compile");

    if let Some(ct) = compile {
        if !ct.spans.is_empty() {
            // One envelope event spanning the whole build.
            ev.complete("compile", "compile", 1, 0, us(ct.total).max(1), &[]);
        }
        for span in &ct.spans {
            ev.complete(
                &span.name,
                "compile",
                1,
                us(span.start),
                us(span.dur).max(1),
                &span.meta,
            );
        }
    }

    // Runs and batches each get a track; offsets are synthetic (events are
    // laid end to end) because the probe records durations, not absolute
    // timestamps.
    let mut tid = 2u32;
    let mut cursor: u128 = 0;
    if !runs.is_empty() {
        ev.thread_name(tid, "runs");
        for (i, run) in runs.iter().enumerate() {
            let args = profile_args(&run.profile);
            ev.complete(
                &format!("run#{i} [{}]", run.tier),
                "run",
                tid,
                cursor,
                us(run.wall).max(1),
                &args,
            );
            cursor += us(run.wall).max(1);
        }
        tid += 1;
    }
    for (bi, batch) in batches.iter().enumerate() {
        for w in &batch.workers {
            ev.thread_name(tid, &format!("batch#{bi} worker {}", w.worker));
            let args = vec![
                ("inputs".to_string(), w.inputs.to_string()),
                ("resets".to_string(), w.resets.to_string()),
                ("idle_us".to_string(), us(w.idle).to_string()),
            ];
            ev.complete("busy", "batch", tid, 0, us(w.busy).max(1), &args);
            tid += 1;
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in ev.out.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

fn pct(part: Duration, whole: Duration) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        100.0 * part.as_secs_f64() / whole.as_secs_f64()
    }
}

fn ranked_lines(out: &mut String, label: &str, rows: Vec<(&str, u64)>) {
    if rows.is_empty() {
        return;
    }
    let total: u64 = rows.iter().map(|&(_, c)| c).sum();
    let _ = writeln!(out, "  {label}:");
    for (name, c) in rows {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * c as f64 / total as f64
        };
        let _ = writeln!(out, "    {c:>12}  {share:5.1}%  {name}");
    }
}

/// Renders the recorded traces as a ranked, human-readable text summary.
pub fn summary(
    compile: Option<&CompileTrace>,
    runs: &[RunTrace],
    batches: &[BatchTrace],
) -> String {
    let mut out = String::new();

    if let Some(ct) = compile {
        let _ = writeln!(
            out,
            "compile ({:.3} ms total)",
            ct.total.as_secs_f64() * 1e3
        );
        let mut spans: Vec<_> = ct.spans.iter().collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.dur));
        for span in spans {
            let mut meta = String::new();
            if !span.meta.is_empty() {
                let parts: Vec<String> =
                    span.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
                meta = format!("  [{}]", parts.join(", "));
            }
            let _ = writeln!(
                out,
                "  {:>10.3} ms  {:5.1}%  {}{}",
                span.dur.as_secs_f64() * 1e3,
                pct(span.dur, ct.total),
                span.name,
                meta
            );
        }
    }

    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(
            out,
            "run#{i} [{}] ({:.3} ms)",
            run.tier,
            run.wall.as_secs_f64() * 1e3
        );
        let p = &run.profile;
        ranked_lines(&mut out, "hottest functions", top(&p.func_hits, 10, |c| c));
        ranked_lines(&mut out, "hottest blocks", top(&p.block_hits, 10, |c| c));
        let fires: Vec<(String, u64)> = p
            .op_fires
            .iter()
            .map(|f| {
                let name = if f.superinstruction {
                    format!("{} (super)", f.name)
                } else {
                    f.name.clone()
                };
                (name, f.fires)
            })
            .collect();
        ranked_lines(&mut out, "opcode fires", top(&fires, 15, |c| c));
        let kinds = p.op_kinds.iter().map(|(k, n)| (k.as_str(), *n)).collect();
        ranked_lines(&mut out, "opcode fires by kind", kinds);
        ranked_lines(&mut out, "class visits", top(&p.class_visits, 10, |c| c));
    }

    for (bi, batch) in batches.iter().enumerate() {
        let _ = writeln!(
            out,
            "batch#{bi} ({:.3} ms, {} worker(s))",
            batch.wall.as_secs_f64() * 1e3,
            batch.workers.len()
        );
        for w in &batch.workers {
            let _ = writeln!(
                out,
                "  worker {:>2}: {:>6} input(s), {:>6} reset(s), busy {:.3} ms, idle {:.3} ms",
                w.worker,
                w.inputs,
                w.resets,
                w.busy.as_secs_f64() * 1e3,
                w.idle.as_secs_f64() * 1e3
            );
        }
    }

    if out.is_empty() {
        out.push_str("(no trace recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpFire, RunTrace, Span, TierProfile};

    fn sample_compile() -> CompileTrace {
        CompileTrace {
            spans: vec![
                Span {
                    name: "parse".into(),
                    start: Duration::ZERO,
                    dur: Duration::from_micros(40),
                    meta: vec![("decls".into(), "7".into())],
                },
                Span {
                    name: "fusion".into(),
                    start: Duration::from_micros(40),
                    dur: Duration::from_micros(60),
                    meta: Vec::new(),
                },
            ],
            total: Duration::from_micros(100),
        }
    }

    #[test]
    fn render_is_valid_chrome_trace() {
        let runs = vec![RunTrace {
            tier: "vm".into(),
            wall: Duration::from_micros(123),
            profile: TierProfile {
                func_hits: vec![("main".into(), 1)],
                block_hits: Vec::new(),
                op_fires: vec![OpFire {
                    name: "navcall".into(),
                    fires: 42,
                    superinstruction: true,
                }],
                op_kinds: Vec::new(),
                class_visits: Vec::new(),
            },
        }];
        let json = render(Some(&sample_compile()), &runs, &[]);
        let parsed = crate::json::parse(&json).expect("trace must parse");
        crate::json::validate_chrome_trace(&parsed).expect("trace must validate");
        assert!(json.contains("\"parse\""));
        assert!(json.contains("run#0 [vm]"));
    }

    #[test]
    fn summary_ranks_by_duration() {
        let text = summary(Some(&sample_compile()), &[], &[]);
        let fusion = text.find("fusion").unwrap();
        let parse = text.find("parse").unwrap();
        assert!(fusion < parse, "slower stage should rank first:\n{text}");
    }
}
