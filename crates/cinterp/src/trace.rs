//! Trace sessions and Chrome trace-event export over
//! [`machine::omprt::instrument`].
//!
//! # Hot-path discipline
//!
//! Probe sites pay **one relaxed atomic load and one predictable branch**
//! when tracing is off — the same cost profile as the interpreter's
//! `fuel_local == 0` check, and nothing else: no clock read, no lock, no
//! allocation. When tracing is on, events land in **per-worker buffers**
//! (each thread appends to its own `Vec` behind an uncontended lock, the
//! Tally-shard discipline) and are merged only at joins and session end —
//! never on the dispatch path. See the [`instrument`] module docs for the
//! mechanism.
//!
//! # Sessions
//!
//! A [`TraceSession`] brackets one traced run: `start()` resets every
//! buffer, histogram and gauge and flips the process-wide switch;
//! `finish()` flips it back and drains the merged event stream. Sessions
//! are serialized on a global lock (the switch, buffers and metrics are
//! process-global), so concurrent tests cannot interleave their events.
//!
//! # Export format
//!
//! [`chrome_trace_json`] renders the drained events in Chrome
//! trace-event format — an object with a `traceEvents` array of
//! `B`/`E`/`i` phase records (`ts` in microseconds, one `pid`, the
//! instrumentation layer's stable thread ids as `tid`) — loadable in
//! `chrome://tracing` and Perfetto. [`validate_chrome_trace`] is the
//! structural checker the tests and `purec trace-check` use: every `B`
//! must close with a matching `E` on the same `tid` (LIFO nesting) and
//! timestamps must be non-decreasing per `tid`.

pub use machine::omprt::instrument;

use machine::omprt::instrument::{Event, EventKind, MetricsSnapshot};
use parking_lot::{Mutex, MutexGuard};
use serde_json::Value;
use std::collections::BTreeMap;

/// Serializes trace sessions (the underlying switch/buffers/metrics are
/// process-global).
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// One tracing session: RAII over the process-wide instrumentation
/// switch. Dropping the session (or calling [`TraceSession::finish`])
/// always flips the switch back off.
pub struct TraceSession {
    _guard: MutexGuard<'static, ()>,
}

/// Everything a finished session captured.
pub struct TraceData {
    /// Merged event stream, sorted by timestamp.
    pub events: Vec<Event>,
    /// Histograms and gauges accumulated during the session.
    pub metrics: MetricsSnapshot,
    /// Events discarded because a per-thread buffer overflowed.
    pub dropped: u64,
}

impl TraceSession {
    /// Begin a session: blocks until no other session is live, clears
    /// all buffers and metrics, then enables every probe site.
    pub fn start() -> TraceSession {
        let guard = SESSION_LOCK.lock();
        // Pin the trace epoch before enabling, so no probe can ever
        // observe a zero timestamp.
        let _ = instrument::now_ns();
        instrument::clear_events();
        instrument::reset_metrics();
        instrument::set_enabled(true);
        TraceSession { _guard: guard }
    }

    /// End the session and drain everything it captured.
    pub fn finish(self) -> TraceData {
        instrument::set_enabled(false);
        TraceData {
            events: instrument::drain_events(),
            metrics: instrument::metrics_snapshot(),
            dropped: instrument::dropped_events(),
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // Runs after a normal `finish` too (double-disable is harmless);
        // what matters is that a session abandoned on an unwind path
        // still switches the probes off.
        instrument::set_enabled(false);
    }
}

/// Render a session's events as Chrome trace-event JSON: an object with
/// a `traceEvents` array (`ph` ∈ `B`/`E`/`i`, `ts` in microseconds,
/// `pid` 1, the instrumentation thread id as `tid`), loadable in
/// `chrome://tracing` / Perfetto.
pub fn chrome_trace_json(data: &TraceData) -> String {
    let mut events = Vec::with_capacity(data.events.len());
    for e in &data.events {
        let ph = match e.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        };
        let mut fields = vec![
            ("name".to_string(), Value::Str(e.name.to_string())),
            ("cat".to_string(), Value::Str(category(e.name).to_string())),
            ("ph".to_string(), Value::Str(ph.to_string())),
            ("ts".to_string(), Value::Num(e.ts_ns as f64 / 1000.0)),
            ("pid".to_string(), Value::Num(1.0)),
            ("tid".to_string(), Value::Num(e.tid as f64)),
        ];
        if e.kind == EventKind::Instant {
            // Instant scope: thread-local.
            fields.push(("s".to_string(), Value::Str("t".to_string())));
        }
        if e.kind != EventKind::End {
            fields.push((
                "args".to_string(),
                Value::Object(vec![("arg".to_string(), Value::Num(e.arg as f64))]),
            ));
        }
        events.push(Value::Object(fields));
    }
    let root = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        (
            "otherData".to_string(),
            Value::Object(vec![(
                "droppedEvents".to_string(),
                Value::Num(data.dropped as f64),
            )]),
        ),
    ]);
    serde_json::to_string(&root).expect("trace JSON renders")
}

/// Perfetto category for a probe name (the prefix before the first dot).
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Structural summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total records in `traceEvents`.
    pub events: usize,
    /// Matched `B`/`E` pairs.
    pub spans: usize,
    /// Instant records.
    pub instants: usize,
    /// Distinct event names, sorted.
    pub names: Vec<String>,
}

impl TraceStats {
    /// Whether any record carries this exact name.
    pub fn has_name(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }
}

/// Structurally validate Chrome trace-event JSON: parseable, every `B`
/// closed by a matching same-name `E` on the same `tid` (LIFO nesting,
/// none left open), and `ts` non-decreasing per `tid`.
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("unparseable: {e}"))?;
    let events = root
        .as_object()
        .and_then(|fields| {
            fields
                .iter()
                .find(|(k, _)| k == "traceEvents")
                .map(|(_, v)| v)
        })
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;

    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut names: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev.as_object().ok_or(format!("event {i}: not an object"))?;
        let field = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let name = field("name")
            .and_then(|v| v.as_str())
            .ok_or(format!("event {i}: missing name"))?
            .to_string();
        let ph = field("ph")
            .and_then(|v| v.as_str())
            .ok_or(format!("event {i}: missing ph"))?
            .to_string();
        let ts = field("ts")
            .and_then(|v| v.as_f64())
            .ok_or(format!("event {i}: missing ts"))?;
        let tid = field("tid")
            .and_then(|v| v.as_f64())
            .ok_or(format!("event {i}: missing tid"))? as i64;
        if let Some(prev) = last_ts.get(&tid) {
            if ts < *prev {
                return Err(format!(
                    "event {i} ({name}): ts {ts} < {prev} on tid {tid} — not monotonic"
                ));
            }
        }
        last_ts.insert(tid, ts);
        if !names.contains(&name) {
            names.push(name.clone());
        }
        match ph.as_str() {
            "B" => stacks.entry(tid).or_default().push(name),
            "E" => {
                let open = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or(format!("event {i} ({name}): E with no open B on tid {tid}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E({name}) closes B({open}) on tid {tid} — misnested"
                    ));
                }
                spans += 1;
            }
            "i" => instants += 1,
            other => return Err(format!("event {i} ({name}): unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span {open:?} never closed"));
        }
    }
    names.sort();
    Ok(TraceStats {
        events: events.len(),
        spans,
        instants,
        names,
    })
}

/// Render a [`MetricsSnapshot`] as a JSON value: histograms as
/// `{count, p50, p99, max, buckets: [[bit_length, count], …]}` (bucket
/// upper bound `2^bit_length − 1` in the series' unit), gauges as
/// `{samples, mean, max}`.
pub fn metrics_json(m: &MetricsSnapshot) -> Value {
    let hists: Vec<(String, Value)> = m
        .hists
        .iter()
        .map(|(name, h)| {
            let buckets: Vec<Value> = h
                .nonzero()
                .into_iter()
                .map(|(bits, count)| {
                    Value::Array(vec![Value::Num(bits as f64), Value::Num(count as f64)])
                })
                .collect();
            (
                name.to_string(),
                Value::Object(vec![
                    ("count".to_string(), Value::Num(h.count() as f64)),
                    ("p50".to_string(), Value::Num(h.quantile_upper(0.5) as f64)),
                    ("p99".to_string(), Value::Num(h.quantile_upper(0.99) as f64)),
                    ("buckets".to_string(), Value::Array(buckets)),
                ]),
            )
        })
        .collect();
    let gauges: Vec<(String, Value)> = m
        .gauges
        .iter()
        .map(|(name, g)| {
            (
                name.to_string(),
                Value::Object(vec![
                    ("samples".to_string(), Value::Num(g.count as f64)),
                    ("mean".to_string(), Value::Num(g.mean())),
                    ("max".to_string(), Value::Num(g.max as f64)),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("histograms".to_string(), Value::Object(hists)),
        ("gauges".to_string(), Value::Object(gauges)),
    ])
}

/// Render a [`crate::CounterSnapshot`] as a JSON object with one field
/// per counter — the machine-readable face of `--stats`, kept exhaustive
/// by construction (a new counter that misses this list is a compile
/// error only if it is also added here; the round-trip test pins the
/// field count to [`crate::CounterSnapshot`]'s).
pub fn counters_json(c: &crate::CounterSnapshot) -> Value {
    let n = |v: u64| Value::Num(v as f64);
    Value::Object(vec![
        ("flops".to_string(), n(c.flops)),
        ("int_ops".to_string(), n(c.int_ops)),
        ("loads".to_string(), n(c.loads)),
        ("stores".to_string(), n(c.stores)),
        ("calls".to_string(), n(c.calls)),
        ("branches".to_string(), n(c.branches)),
        ("memo_hits".to_string(), n(c.memo_hits)),
        ("memo_misses".to_string(), n(c.memo_misses)),
        ("memo_evictions".to_string(), n(c.memo_evictions)),
        ("futures_spawned".to_string(), n(c.futures_spawned)),
        ("futures_inlined".to_string(), n(c.futures_inlined)),
        ("futures_helped".to_string(), n(c.futures_helped)),
        ("tasks_stolen".to_string(), n(c.tasks_stolen)),
        ("local_pushes".to_string(), n(c.local_pushes)),
        ("insns_folded".to_string(), n(c.insns_folded)),
        ("insns_fused".to_string(), n(c.insns_fused)),
        ("race_static_skips".to_string(), n(c.race_static_skips)),
        ("race_dyn_iters".to_string(), n(c.race_dyn_iters)),
        ("regions_forked".to_string(), n(c.regions_forked)),
        ("regions_inline".to_string(), n(c.regions_inline)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_captures_and_exports_well_formed_json() {
        let session = TraceSession::start();
        {
            let _outer = instrument::span("test.region", 4);
            instrument::instant("test.point", 9);
            let _inner = instrument::span("test.chunk", 0);
        }
        let mut data = session.finish();
        // Other tests of this binary run programs meanwhile and may hold
        // a span open across the drain: keep what this test recorded.
        data.events.retain(|e| e.name.starts_with("test."));
        assert!(data.events.len() >= 5);
        let json = chrome_trace_json(&data);
        let stats = validate_chrome_trace(&json).expect("well-formed");
        assert_eq!(stats.events, data.events.len());
        assert!(stats.spans >= 2);
        assert!(stats.instants >= 1);
        assert!(stats.has_name("test.region"));
        assert!(stats.has_name("test.point"));
    }

    #[test]
    fn sessions_reset_state_between_runs() {
        let session = TraceSession::start();
        instrument::instant("test.stale", 1);
        let first = session.finish();
        assert!(first.events.iter().any(|e| e.name == "test.stale"));
        let session = TraceSession::start();
        let second = session.finish();
        assert!(
            !second.events.iter().any(|e| e.name == "test.stale"),
            "a new session must not inherit the previous session's events"
        );
    }

    #[test]
    fn dropped_session_switches_probes_off() {
        {
            let _session = TraceSession::start();
            assert!(instrument::enabled());
        }
        assert!(!instrument::enabled(), "drop must disable instrumentation");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        let no_e = r#"{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(no_e)
            .unwrap_err()
            .contains("never closed"));
        let misnested = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":0},
            {"name":"b","ph":"B","ts":2,"pid":1,"tid":0},
            {"name":"a","ph":"E","ts":3,"pid":1,"tid":0},
            {"name":"b","ph":"E","ts":4,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(misnested)
            .unwrap_err()
            .contains("misnested"));
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"i","ts":5,"pid":1,"tid":0},
            {"name":"b","ph":"i","ts":4,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("monotonic"));
        let stray_e = r#"{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":1,"tid":0}]}"#;
        assert!(validate_chrome_trace(stray_e)
            .unwrap_err()
            .contains("no open B"));
        // Same names on different tids are independent stacks.
        let cross_tid = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":1,"tid":0},
            {"name":"a","ph":"B","ts":2,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":3,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":4,"pid":1,"tid":0}]}"#;
        assert_eq!(validate_chrome_trace(cross_tid).unwrap().spans, 2);
    }

    #[test]
    fn counters_json_is_exhaustive() {
        let c = crate::CounterSnapshot::default();
        let v = counters_json(&c);
        let fields = v.as_object().unwrap().len();
        // One JSON field per CounterSnapshot counter that has a producer
        // (`icache_hits` has none); bump both together.
        assert_eq!(fields, 20, "counters_json drifted from CounterSnapshot");
    }
}
