//! The benchmark's own spans: recorded in memory around each public call
//! into a layer, folded into self times, and written out as a Chrome trace
//! when the run ends. Spans inside the program are a later change.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one program execution.
    pub exec: u32,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// `(span, is_end)` in the order the marks happened, so the exported
    /// trace nests even where two marks read the same nanosecond.
    log: Vec<(usize, bool)>,
    open: Vec<usize>,
    exec: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            log: Vec::new(),
            open: Vec::new(),
            exec: 0,
        }
    }

    /// Start the id of the next program execution.
    pub fn next_exec(&mut self) {
        self.exec += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// span's duration in seconds.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            exec: self.exec,
        });
        self.log.push((idx, false));
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        self.log.push((idx, true));
        (r, (end_ns - start_ns) as f64 / 1e9)
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part its child spans cover, summed over all spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut self_ns: Vec<i64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as i64)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p] -= (s.end_ns - s.start_ns) as i64;
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
    }
    by_name
}

/// Chrome trace-event JSON (`B`/`E` pairs on one thread), in the format
/// `cinterp::validate_chrome_trace` checks.
pub fn chrome_trace_json(rec: &Recorder) -> String {
    let events = rec
        .log
        .iter()
        .map(|&(i, end)| {
            let s = &rec.spans[i];
            let ts = if end { s.end_ns } else { s.start_ns };
            let mut fields = vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("cat".to_string(), Value::Str("purebench".to_string())),
                (
                    "ph".to_string(),
                    Value::Str(if end { "E" } else { "B" }.to_string()),
                ),
                ("ts".to_string(), Value::Num(ts as f64 / 1000.0)),
                ("pid".to_string(), Value::Num(1.0)),
                ("tid".to_string(), Value::Num(1.0)),
            ];
            if !end {
                fields.push((
                    "args".to_string(),
                    Value::Object(vec![
                        ("exec".to_string(), Value::Num(s.exec as f64)),
                        ("span".to_string(), Value::Num(i as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                    ]),
                ));
            }
            Value::Object(fields)
        })
        .collect();
    let root = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string(&root).expect("trace JSON renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            exec: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_on_a_hand_built_tree() {
        // exec 0..100 { compile 10..40 { parse 15..25 }, run 50..90 }, run 100..130
        let spans = vec![
            span("exec", 0, 100_000_000_000, None),
            span("compile", 10_000_000_000, 40_000_000_000, Some(0)),
            span("parse", 15_000_000_000, 25_000_000_000, Some(1)),
            span("run", 50_000_000_000, 90_000_000_000, Some(0)),
            span("run", 100_000_000_000, 130_000_000_000, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["exec"], 30.0);
        assert_eq!(t["compile"], 20.0);
        assert_eq!(t["parse"], 10.0);
        assert_eq!(t["run"], 70.0);
    }

    #[test]
    fn recorded_spans_nest_and_export_a_valid_trace() {
        let mut rec = Recorder::new();
        rec.next_exec();
        let ((), outer) = rec.scope("exec", |rec| {
            rec.scope("compile", |rec| {
                rec.scope("parse", |_| ());
            });
            rec.scope("run", |_| ());
        });
        assert!(outer >= 0.0);
        let parents: Vec<_> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        assert!(rec.spans.iter().all(|s| s.exec == 1));
        let stats = cinterp::validate_chrome_trace(&chrome_trace_json(&rec)).expect("valid");
        assert_eq!(stats.spans, 4);
        assert!(stats.has_name("parse"));
    }
}
