//! Process-wide probe infrastructure: span events, latency histograms and
//! sampled gauges for the runtime (pool, deques, futures, schedules) and
//! everything layered on top of it (the interpreter's regions, memo caches
//! and fuel governor hang their probes on this module via
//! `cinterp::trace`).
//!
//! # Hot-path discipline (zero overhead when off)
//!
//! Every probe site compiles to **one relaxed atomic load and one
//! predictable branch** when instrumentation is disabled — the same
//! discipline as the interpreter's `fuel_local == 0` check. No probe ever
//! takes a lock, allocates, or reads the clock unless [`enabled`] returned
//! `true`.
//!
//! When enabled, the event path follows the Tally-shard discipline from
//! McKenney: each thread appends to its **own** buffer (a per-thread
//! `Mutex<Vec<Event>>` that is only ever contended at drain time, so the
//! owning thread's `lock()` is an uncontended CAS), and buffers are merged
//! only at session end by [`drain_events`]. Histograms and gauges are
//! plain atomic adds on log2 buckets — wait-free.
//!
//! Sessions (enable → run → disable → drain → export) are serialized one
//! level up by `cinterp::trace::TraceSession`; this module only provides
//! the mechanism.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant as StdInstant;

// ---------------------------------------------------------------------------
// Master switch + clock
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is instrumentation live? One relaxed load — this is the *only* cost a
/// probe site pays when tracing is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flip the master switch. `SeqCst` so a session start/stop is totally
/// ordered against the relaxed probe loads that straddle it (a probe may
/// observe the old value briefly; sessions tolerate that by draining
/// after disable).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn epoch() -> &'static StdInstant {
    static EPOCH: OnceLock<StdInstant> = OnceLock::new();
    EPOCH.get_or_init(StdInstant::now)
}

/// Nanoseconds since the process-wide trace epoch (first use).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Span events
// ---------------------------------------------------------------------------

/// Event flavour, mapping 1:1 onto Chrome trace-event phases
/// (`B`/`E`/`i`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opens (`ph: "B"`).
    Begin,
    /// Span closes (`ph: "E"`).
    End,
    /// Point event (`ph: "i"`).
    Instant,
}

/// One trace record. Names are interned `&'static str` so recording never
/// allocates; `arg` carries one site-defined integer (iteration count,
/// future id, byte size, …).
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub ts_ns: u64,
    pub tid: u32,
    pub kind: EventKind,
    pub name: &'static str,
    pub arg: u64,
}

/// Per-thread buffer cap; beyond it events are counted as dropped rather
/// than grow without bound on a long traced run.
const BUF_CAP: usize = 1 << 20;

struct ThreadBuf {
    tid: u32,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static BUF: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        REGISTRY.lock().push(Arc::clone(&buf));
        buf
    };
}

/// Small stable id for the calling thread (assigned on first probe; the
/// main thread is almost always 0). Also what the Chrome export uses as
/// `tid`.
pub fn thread_trace_id() -> u32 {
    BUF.with(|b| b.tid)
}

#[inline]
fn record(kind: EventKind, name: &'static str, arg: u64) {
    let ts_ns = now_ns();
    BUF.with(|b| {
        let mut ev = b.events.lock();
        if ev.len() < BUF_CAP {
            ev.push(Event {
                ts_ns,
                tid: b.tid,
                kind,
                name,
                arg,
            });
        } else {
            b.dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Record a point event (no-op unless enabled).
#[inline(always)]
pub fn instant(name: &'static str, arg: u64) {
    if enabled() {
        record(EventKind::Instant, name, arg);
    }
}

/// Open a span; the returned guard closes it on drop (RAII, so spans stay
/// balanced across `?`/unwind paths). When disabled this is the one-branch
/// no-op and the guard is inert.
#[inline(always)]
#[must_use = "dropping the guard immediately closes the span"]
pub fn span(name: &'static str, arg: u64) -> SpanGuard {
    if enabled() {
        record(EventKind::Begin, name, arg);
        SpanGuard { name: Some(name) }
    } else {
        SpanGuard { name: None }
    }
}

/// RAII guard for [`span`]. The `End` is recorded even if the switch
/// flipped off mid-span, so every recorded `B` gets its `E`; stale events
/// recorded after a drain are discarded by the next [`clear_events`].
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            record(EventKind::End, name, 0);
        }
    }
}

/// Drain every thread's buffer into one vector sorted by timestamp.
/// Called once per session, after [`set_enabled`]`(false)`.
pub fn drain_events() -> Vec<Event> {
    let mut all = Vec::new();
    for buf in REGISTRY.lock().iter() {
        all.append(&mut buf.events.lock());
    }
    all.sort_by_key(|e| (e.ts_ns, e.tid));
    all
}

/// Discard all buffered events and reset drop counts (session start).
pub fn clear_events() {
    for buf in REGISTRY.lock().iter() {
        buf.events.lock().clear();
        buf.dropped.store(0, Ordering::Relaxed);
    }
}

/// Events discarded because a per-thread buffer hit [`BUF_CAP`].
pub fn dropped_events() -> u64 {
    REGISTRY
        .lock()
        .iter()
        .map(|b| b.dropped.load(Ordering::Relaxed))
        .sum()
}

// ---------------------------------------------------------------------------
// Metrics: log2 histograms + sampled gauges
// ---------------------------------------------------------------------------

/// Log2-bucketed histogram: bucket `i` counts samples whose bit length is
/// `i` (value in `[2^(i-1), 2^i)`; bucket 0 is the value 0). Recording is
/// one wait-free atomic add.
pub struct Hist {
    buckets: [AtomicU64; 64],
}

impl Hist {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Hist {
            buckets: [ZERO; 64],
        }
    }

    /// Record one sample (no-op unless [`enabled`]).
    #[inline(always)]
    pub fn record(&self, value: u64) {
        if enabled() {
            let idx = (64 - value.leading_zeros()).min(63) as usize;
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Point-in-time copy of a [`Hist`].
#[derive(Clone, Debug)]
pub struct HistSnapshot {
    /// `buckets[i]` counts samples with bit length `i` (upper bound
    /// `2^i - 1`).
    pub buckets: [u64; 64],
}

impl HistSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound (in the sample's unit) of the bucket containing the
    /// `q`-quantile sample, e.g. `quantile_upper(0.99)` for a p99 bound.
    /// Returns 0 for an empty histogram.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match i {
                    0 => 0,
                    63 => u64::MAX, // top bucket is clamped
                    _ => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }

    /// `(bit_length, count)` for every non-empty bucket.
    pub fn nonzero(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u32, c))
            .collect()
    }
}

/// Sampled gauge: tracks count/sum/max of sampled values (depths, queue
/// lengths, byte sizes). Wait-free adds; the mean is `sum/count`.
pub struct Gauge {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    const fn new() -> Self {
        Gauge {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (no-op unless [`enabled`]).
    #[inline(always)]
    pub fn sample(&self, value: u64) {
        if enabled() {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> GaugeSnapshot {
        GaugeSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of a [`Gauge`].
#[derive(Clone, Copy, Debug)]
pub struct GaugeSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl GaugeSnapshot {
    /// Mean sampled value (0 when never sampled).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The process-wide metrics registry: every named histogram and gauge the
/// runtime records into. Fixed set — probe sites reference fields
/// directly, so a typo is a compile error, not a silent new series.
pub struct Metrics {
    /// Task enqueue → claim latency (ns), pool injector + worker deques.
    pub queue_wait_ns: Hist,
    /// Successful steal-scan latency (ns): start of the victim scan in
    /// `find_task` to the steal that yielded a task.
    pub steal_latency_ns: Hist,
    /// Parallel-region duration (ns), fork to join.
    pub region_duration_ns: Hist,
    /// Future `wait()` blocking time (ns) when the value was not ready.
    pub await_wait_ns: Hist,
    /// Worker deque depth sampled at local push.
    pub deque_depth: Gauge,
    /// Injector queue length sampled at injector push.
    pub injector_len: Gauge,
    /// Idle (parked) workers sampled at wake notification.
    pub idle_sleepers: Gauge,
    /// Exposed-task counter sampled at future spawn.
    pub exposed_tasks: Gauge,
    /// Interpreter frame-arena bytes sampled at the region join.
    pub arena_bytes: Gauge,
    /// Interpreter spill-stack bytes sampled at the region join.
    pub spill_bytes: Gauge,
    /// Live heap bytes sampled just before storage is released: at each
    /// `free` outside a region and at the outermost region's join.
    pub heap_live_bytes: Gauge,
    /// `free`s a region deferred, sampled when its join reclaims them.
    pub heap_deferred_frees: Gauge,
}

static METRICS: Metrics = Metrics {
    queue_wait_ns: Hist::new(),
    steal_latency_ns: Hist::new(),
    region_duration_ns: Hist::new(),
    await_wait_ns: Hist::new(),
    deque_depth: Gauge::new(),
    injector_len: Gauge::new(),
    idle_sleepers: Gauge::new(),
    exposed_tasks: Gauge::new(),
    arena_bytes: Gauge::new(),
    spill_bytes: Gauge::new(),
    heap_live_bytes: Gauge::new(),
    heap_deferred_frees: Gauge::new(),
};

/// The process-wide [`Metrics`] registry.
#[inline(always)]
pub fn metrics() -> &'static Metrics {
    &METRICS
}

/// Reset every histogram and gauge (session start).
pub fn reset_metrics() {
    let m = metrics();
    m.queue_wait_ns.reset();
    m.steal_latency_ns.reset();
    m.region_duration_ns.reset();
    m.await_wait_ns.reset();
    m.deque_depth.reset();
    m.injector_len.reset();
    m.idle_sleepers.reset();
    m.exposed_tasks.reset();
    m.arena_bytes.reset();
    m.spill_bytes.reset();
    m.heap_live_bytes.reset();
    m.heap_deferred_frees.reset();
}

/// Named snapshot of the whole registry, for `--stats` / `--stats-json`.
pub fn metrics_snapshot() -> MetricsSnapshot {
    let m = metrics();
    MetricsSnapshot {
        hists: vec![
            ("queue_wait_ns", m.queue_wait_ns.snapshot()),
            ("steal_latency_ns", m.steal_latency_ns.snapshot()),
            ("region_duration_ns", m.region_duration_ns.snapshot()),
            ("await_wait_ns", m.await_wait_ns.snapshot()),
        ],
        gauges: vec![
            ("deque_depth", m.deque_depth.snapshot()),
            ("injector_len", m.injector_len.snapshot()),
            ("idle_sleepers", m.idle_sleepers.snapshot()),
            ("exposed_tasks", m.exposed_tasks.snapshot()),
            ("arena_bytes", m.arena_bytes.snapshot()),
            ("spill_bytes", m.spill_bytes.snapshot()),
            ("heap_live_bytes", m.heap_live_bytes.snapshot()),
            ("heap_deferred_frees", m.heap_deferred_frees.snapshot()),
        ],
    }
}

/// Everything [`metrics_snapshot`] captured, with stable series names.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    pub hists: Vec<(&'static str, HistSnapshot)>,
    pub gauges: Vec<(&'static str, GaugeSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    // Instrumentation state is process-global; tests that flip the switch
    // must not overlap (other suites in this binary never enable it).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = TEST_LOCK.lock();
        set_enabled(false);
        clear_events();
        let my_tid = thread_trace_id();
        instant("test.off", 1);
        {
            let _s = span("test.off.span", 2);
        }
        let mine: Vec<_> = drain_events()
            .into_iter()
            .filter(|e| e.tid == my_tid)
            .collect();
        assert!(mine.is_empty(), "disabled probes must be silent: {mine:?}");
    }

    #[test]
    fn spans_balance_and_timestamps_are_monotonic() {
        let _g = TEST_LOCK.lock();
        set_enabled(true);
        clear_events();
        let my_tid = thread_trace_id();
        {
            let _outer = span("test.outer", 0);
            instant("test.mid", 7);
            let _inner = span("test.inner", 1);
        }
        set_enabled(false);
        let mine: Vec<_> = drain_events()
            .into_iter()
            .filter(|e| e.tid == my_tid)
            .collect();
        let names: Vec<_> = mine.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            names,
            vec![
                (EventKind::Begin, "test.outer"),
                (EventKind::Instant, "test.mid"),
                (EventKind::Begin, "test.inner"),
                (EventKind::End, "test.inner"),
                (EventKind::End, "test.outer"),
            ]
        );
        let mut depth = 0i64;
        for w in mine.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
        for e in &mine {
            match e.kind {
                EventKind::Begin => depth += 1,
                EventKind::End => depth -= 1,
                EventKind::Instant => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn hist_buckets_by_bit_length() {
        let _g = TEST_LOCK.lock();
        set_enabled(true);
        let h = Hist::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        h.record(u64::MAX); // bucket 63 (clamped)
        set_enabled(false);
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 2);
        assert_eq!(s.buckets[11], 1);
        assert_eq!(s.buckets[63], 1);
        assert_eq!(s.quantile_upper(0.5), 3);
        assert_eq!(s.quantile_upper(1.0), u64::MAX);
        assert_eq!(s.nonzero(), vec![(0, 1), (1, 1), (2, 2), (11, 1), (63, 1)]);
    }

    #[test]
    fn future_lifecycle_probes_fire() {
        use crate::omprt::{global_pool, PureFuture};
        let _g = TEST_LOCK.lock();
        let pool = global_pool(2);
        set_enabled(true);
        clear_events();
        // Direct spawn (mechanism, not the capacity-gated policy): the
        // task is enqueued and claimed by a worker or by the helping
        // await, so spawn/claim/await probes must fire regardless of
        // host width.
        let fut = PureFuture::spawn(&pool, false, || 41 + 1);
        let (v, _report) = fut.wait();
        set_enabled(false);
        assert_eq!(v, 42);
        let names: Vec<&str> = drain_events().iter().map(|e| e.name).collect();
        for expected in ["future.spawn", "future.claim", "future.await"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
    }

    #[test]
    fn gauge_tracks_count_sum_max() {
        let _g = TEST_LOCK.lock();
        set_enabled(true);
        let g = Gauge::new();
        g.sample(4);
        g.sample(10);
        g.sample(1);
        set_enabled(false);
        g.sample(100); // disabled: ignored
        let s = g.snapshot();
        assert_eq!((s.count, s.sum, s.max), (3, 15, 10));
        assert!((s.mean() - 5.0).abs() < 1e-9);
    }
}
