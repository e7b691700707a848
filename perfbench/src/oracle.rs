//! The output oracle. Every request's result is reduced to a digest and
//! compared, outside the request timer, with the digest the unfused
//! interpreter produces on the same input — an independent tier running
//! the unfused program, so neither fusion nor the VM checks itself.

use grafter_engine::{fnv1a, Backend, Engine, FusionOptions};
use grafter_obs::json::{parse, Json};
use grafter_runtime::{SnapValue, Value};
use grafter_workloads::CaseStudy;

fn push_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Bool(b) => buf.extend_from_slice(&[3, u8::from(*b)]),
        Value::Ref(r) => {
            buf.push(4);
            buf.extend_from_slice(&r.map_or(u64::MAX, |n| u64::from(n.0)).to_le_bytes());
        }
    }
}

/// Digest of a run's observable output: the final tree (`Session::snapshot`)
/// and the final globals (`Report::globals`). Floats hash by bit pattern,
/// matching the snapshot's own bit-level equality.
pub fn output_digest(snapshot: &[(String, Vec<SnapValue>)], globals: &[(String, Value)]) -> u64 {
    let mut buf = Vec::with_capacity(snapshot.len() * 64);
    for (class, slots) in snapshot {
        buf.extend_from_slice(class.as_bytes());
        buf.push(0);
        for v in slots {
            match v {
                SnapValue::Int(i) => push_value(&mut buf, &Value::Int(*i)),
                SnapValue::Float(x) => push_value(&mut buf, &Value::Float(*x)),
                SnapValue::Bool(b) => push_value(&mut buf, &Value::Bool(*b)),
                SnapValue::Null => buf.push(5),
                SnapValue::Child(c) => {
                    buf.push(6);
                    buf.extend_from_slice(&(*c as u64).to_le_bytes());
                }
            }
        }
    }
    buf.push(0xff);
    for (name, v) in globals {
        buf.extend_from_slice(name.as_bytes());
        buf.push(0);
        push_value(&mut buf, v);
    }
    fnv1a(&buf)
}

/// Digest of the deterministic part of an encoded run report
/// (`Report::to_json`): its four runtime counters and its globals. Used
/// where only the wire form of a result is available.
pub fn report_digest(report: &Json) -> Option<u64> {
    let mut buf = Vec::new();
    let metrics = report.get("metrics")?;
    for key in ["visits", "instructions", "loads", "stores"] {
        buf.extend_from_slice(&metrics.get(key)?.as_num()?.to_bits().to_le_bytes());
    }
    for g in report.get("globals")?.as_arr()? {
        buf.extend_from_slice(g.get("name")?.as_str()?.as_bytes());
        buf.push(0);
        match g.get("value")? {
            Json::Num(x) => buf.extend_from_slice(&x.to_bits().to_le_bytes()),
            Json::Str(s) => buf.extend_from_slice(s.as_bytes()),
            Json::Bool(b) => buf.push(u8::from(*b)),
            Json::Null => buf.push(0xfe),
            _ => return None,
        }
        buf.push(0xff);
    }
    Some(fnv1a(&buf))
}

/// Whether a `run` response body is a success whose report matches the
/// expected [`report_digest`].
pub fn response_matches(body: &str, expected: u64) -> bool {
    let Ok(doc) = parse(body) else { return false };
    matches!(doc.get("ok"), Some(Json::Bool(true)))
        && doc.get("report").and_then(report_digest) == Some(expected)
}

/// The unfused interpreter engine of one program: the reference every
/// fused VM result is compared with.
pub struct Oracle {
    engine: Engine,
}

impl Oracle {
    pub fn new(case: &CaseStudy) -> Oracle {
        Oracle {
            engine: case.engine_with(FusionOptions::unfused(), Backend::Interp),
        }
    }

    /// The reference [`output_digest`] of `case` on the input generated
    /// from `(size, seed)`.
    pub fn digest(&self, case: &CaseStudy, size: usize, seed: u64) -> u64 {
        let mut session = self.engine.session();
        let root = session.build_tree(|h| (case.build)(h, size, seed));
        let report = session
            .run(root)
            .expect("the reference interpreter runs every generated input");
        output_digest(&session.snapshot(root), &report.globals)
    }
}

/// Requests attempted and requests that failed or produced a wrong output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}
