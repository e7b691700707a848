//! The traced run's span recorder: a span (name, start, end, parent span,
//! request id) around each public call the benchmark makes into a layer,
//! kept in memory and written out as a Chrome trace when the run ends.

use std::time::{Duration, Instant};

use grafter_obs::{CompileTrace, Span};

/// One recorded span. `name` is the layer call (`vm.run`, `core.fuse`, ...).
struct SpanRec {
    name: &'static str,
    program: &'static str,
    request: u64,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose span offsets count from `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span; spans opened within `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        program: &'static str,
        request: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(SpanRec {
            name,
            program,
            request,
            parent: self.open.last().copied(),
            start: start - self.origin,
            dur: Duration::ZERO,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur = start.elapsed();
        out
    }

    /// Records a stage a public call timed itself (e.g. the parse and sema
    /// durations `Compiled::compile_timed` returns) as a child of the
    /// innermost open span.
    pub fn child(
        &mut self,
        name: &'static str,
        program: &'static str,
        request: u64,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(SpanRec {
            name,
            program,
            request,
            parent: self.open.last().copied(),
            start: start - self.origin,
            dur,
        });
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover (children of one span never overlap: they are
    /// sequential calls on one thread).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur.saturating_sub(c))
            .collect()
    }

    /// Self times in ms of every span named `name` on `program`.
    pub fn self_ms(&self, name: &str, program: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name && s.program == program)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect()
    }

    /// The spans as a Chrome trace-event document, rendered by the
    /// `grafter_obs` writer; parent and request ids ride along as args.
    pub fn chrome(&self) -> String {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| Span {
                name: format!("{} [{}]", s.name, s.program),
                start: s.start,
                dur: s.dur,
                meta: vec![
                    ("span".to_string(), i.to_string()),
                    (
                        "parent".to_string(),
                        s.parent
                            .map_or_else(|| "none".to_string(), |p| p.to_string()),
                    ),
                    ("request".to_string(), s.request.to_string()),
                    ("layer".to_string(), s.name.to_string()),
                    ("program".to_string(), s.program.to_string()),
                ],
            })
            .collect();
        let trace = CompileTrace {
            spans,
            total: self.origin.elapsed(),
        };
        grafter_obs::chrome::render(Some(&trace), &[], &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("outer", "p", 0, |rec| {
            let t = Instant::now();
            rec.child("inner", "p", 0, t, Duration::from_millis(3));
            std::thread::sleep(Duration::from_millis(5));
        });
        let times = rec.self_times();
        assert!(times[0] >= Duration::from_millis(2));
        assert!(times[0] < rec.spans[0].dur);
        assert_eq!(times[1], Duration::from_millis(3));
        assert_eq!(rec.spans[1].parent, Some(0));
        let doc = grafter_obs::json::parse(&rec.chrome()).expect("trace parses");
        assert!(grafter_obs::json::validate_chrome_trace(&doc).is_ok());
    }
}
