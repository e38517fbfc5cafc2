//! Loop scheduling policies: `static`, `static,chunk`, `dynamic,chunk`,
//! `guided` — the subset of OpenMP `schedule(...)` clauses the paper's
//! evaluation uses.
//!
//! A region ([`parallel_for_pooled`] / [`parallel_for_state_pooled`])
//! routes its per-thread work items through the persistent process-wide
//! [`crate::omprt::pool::ThreadPool`] as one [`TaskGroup`] generation —
//! the paper's pinned-worker execution model, without a thread spawn per
//! region. The forking thread is thread 0 of the team: its join claims
//! and runs shares like any worker, so an `nthreads` region occupies
//! `nthreads − 1` pool workers plus its caller.
//!
//! The caller decides a region's width and the scheduler never
//! second-guesses it: `nthreads` is honoured as given (1, or `n <= 1`,
//! is the sequential path), with no size heuristic of its own. Whether a
//! region is worth forking is policy of the caller that knows what an
//! iteration costs — the bytecode VM runs a region whose work is below
//! `cinterp::REGION_INLINE_WORK` at width 1 — while the `region_launch_us`
//! probe and the native references call these functions directly.

use crate::omprt::instrument;
use crate::omprt::pool::{global_pool, TaskGroup, ThreadPool};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// OpenMP loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OmpSchedule {
    /// Contiguous near-equal chunks, one per thread (`schedule(static)`).
    Static,
    /// Round-robin chunks of the given size (`schedule(static, c)`).
    StaticChunk(u64),
    /// Threads grab chunks of the given size from a shared counter
    /// (`schedule(dynamic, c)`); the satellite application's fix.
    Dynamic(u64),
    /// Exponentially shrinking chunks with a minimum (`schedule(guided)`).
    Guided(u64),
}

impl fmt::Display for OmpSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmpSchedule::Static => write!(f, "static"),
            OmpSchedule::StaticChunk(c) => write!(f, "static,{c}"),
            OmpSchedule::Dynamic(c) => write!(f, "dynamic,{c}"),
            OmpSchedule::Guided(c) => write!(f, "guided,{c}"),
        }
    }
}

impl OmpSchedule {
    /// The chunks thread `tid` of `nthreads` executes for `n` iterations
    /// under a *static* policy, as `(start, end)` half-open ranges.
    /// Dynamic/guided schedules are execution-order dependent and handled
    /// by [`parallel_for_pooled`] directly.
    pub fn static_chunks(&self, n: u64, nthreads: u64, tid: u64) -> Vec<(u64, u64)> {
        assert!(nthreads > 0 && tid < nthreads);
        match *self {
            OmpSchedule::Static => {
                // libgomp: first `rem` threads get `base+1` iterations.
                let base = n / nthreads;
                let rem = n % nthreads;
                let (start, len) = if tid < rem {
                    (tid * (base + 1), base + 1)
                } else {
                    (rem * (base + 1) + (tid - rem) * base, base)
                };
                if len == 0 {
                    vec![]
                } else {
                    vec![(start, start + len)]
                }
            }
            OmpSchedule::StaticChunk(c) => {
                let c = c.max(1);
                let mut out = Vec::new();
                let mut start = tid * c;
                while start < n {
                    out.push((start, (start + c).min(n)));
                    start += nthreads * c;
                }
                out
            }
            OmpSchedule::Dynamic(_) | OmpSchedule::Guided(_) => {
                panic!("dynamic/guided schedules have no static chunk assignment")
            }
        }
    }
}

/// RAII fork-to-join stopwatch feeding the `region_duration_ns`
/// histogram; inert (one branch) when instrumentation is off.
struct RegionTimer {
    start_ns: u64,
}

impl RegionTimer {
    #[inline(always)]
    fn start() -> Self {
        RegionTimer {
            // 0 means "instrumentation off" (`max(1)` keeps a genuine
            // first-nanosecond timestamp from aliasing it).
            start_ns: if instrument::enabled() {
                instrument::now_ns().max(1)
            } else {
                0
            },
        }
    }
}

impl Drop for RegionTimer {
    fn drop(&mut self) {
        if self.start_ns != 0 {
            instrument::metrics()
                .region_duration_ns
                .record(instrument::now_ns().saturating_sub(self.start_ns));
        }
    }
}

/// Execute `body(i)` for every `i` in `0..n` on `nthreads` threads of the
/// persistent process-wide [`ThreadPool`] under the given schedule. The
/// body must be `Sync` (data-race freedom is the *caller's* obligation —
/// exactly what the purity verification guarantees for transformed
/// programs).
pub fn parallel_for_pooled<F>(n: u64, nthreads: usize, schedule: OmpSchedule, body: F)
where
    F: Fn(u64) + Sync,
{
    parallel_for_state_pooled(n, nthreads, schedule, |_| (), |(), i| body(i));
}

/// [`parallel_for_pooled`] with **worker-scoped state**: each of the
/// `nthreads` workers builds one `S` via `init(tid)` before its first
/// iteration, threads it mutably through every iteration it executes,
/// and hands it back in the returned `Vec` once the loop joins.
///
/// This is the frame/arena handoff the bytecode interpreter relies on: a
/// worker's private frame arena, operation tally and memo-cache shard
/// live in `S`, are **reused across all iterations that worker runs**
/// (no per-iteration allocation), and are merged by the caller exactly
/// once at the join — turning per-op shared-atomic traffic and memo-lock
/// contention into a single merge per worker per region.
///
/// The returned vector has one entry per worker that was started (a
/// single entry on the sequential fast path); workers that happened to
/// execute zero iterations still return their freshly-`init`ed state.
/// The `nthreads` work items are submitted to the shared pool as one
/// [`TaskGroup`] generation and joined with `join_group`; a panic in
/// `init`/`body` resurfaces at that join.
///
/// The join helps (see [`ThreadPool::wait_group`]): the forking thread
/// runs shares itself instead of sleeping through the region, and nested
/// regions are safe on a finite pool for the same reason.
pub fn parallel_for_state_pooled<S, G, F>(
    n: u64,
    nthreads: usize,
    schedule: OmpSchedule,
    init: G,
    body: F,
) -> Vec<S>
where
    S: Send,
    G: Fn(usize) -> S + Sync,
    F: Fn(&mut S, u64) + Sync,
{
    let nthreads = nthreads.max(1);
    let _timer = RegionTimer::start();
    if nthreads == 1 || n <= 1 {
        return vec![run_sequential(n, &init, &body)];
    }
    let pool = global_pool(nthreads);
    let group = pool.group();
    let next = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<S>>> = (0..nthreads).map(|_| Mutex::new(None)).collect();

    // The submitted tasks borrow `init`/`body`/`next`/`slots` from this
    // stack frame; the guard guarantees we never unwind past those
    // borrows with a task still in flight, which is what makes the
    // lifetime erasure below sound.
    let mut guard = GroupWaitGuard {
        pool: &pool,
        group: &group,
        armed: true,
    };
    for tid in 0..nthreads {
        let task: Box<dyn FnOnce() + Send + '_> = {
            let (next, init, body, slots) = (&next, &init, &body, &slots);
            Box::new(move || {
                let state = worker_share(tid, n, nthreads, schedule, next, init, body);
                *slots[tid].lock() = Some(state);
            })
        };
        // SAFETY: the task only borrows locals of this frame, and every
        // submitted task is guaranteed to finish (or be panic-caught)
        // before this frame is left: `join_group` waits for the whole
        // generation before returning *or* re-raising a task panic, and
        // `guard` waits on any other unwind path.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        pool.submit_to(&group, task);
    }
    guard.armed = false;
    pool.join_group(&group);
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("pooled worker completed"))
        .collect()
}

/// Last-resort cleanup for [`parallel_for_state_pooled`]: if anything
/// unwinds between the first `submit_to` and the normal `join_group`,
/// block until the generation drains so no task outlives the borrows it
/// captured. (Waits without re-raising — we are already unwinding.)
struct GroupWaitGuard<'a> {
    pool: &'a ThreadPool,
    group: &'a TaskGroup,
    armed: bool,
}

impl Drop for GroupWaitGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.pool.wait_group(self.group);
        }
    }
}

/// The sequential fast path (`nthreads == 1` or `n <= 1`).
fn run_sequential<S, G, F>(n: u64, init: &G, body: &F) -> S
where
    G: Fn(usize) -> S,
    F: Fn(&mut S, u64),
{
    let mut state = init(0);
    for i in 0..n {
        body(&mut state, i);
    }
    state
}

/// One worker's share of a region under `schedule`: its static chunks,
/// or the dynamic/guided claiming loop over the shared `next` counter.
fn worker_share<S, G, F>(
    tid: usize,
    n: u64,
    nthreads: usize,
    schedule: OmpSchedule,
    next: &AtomicU64,
    init: &G,
    body: &F,
) -> S
where
    G: Fn(usize) -> S,
    F: Fn(&mut S, u64),
{
    // One span per worker per region: its whole chunk share, on the
    // thread that executed it (pool worker or the forking caller).
    let _span = instrument::span("region.worker", tid as u64);
    let mut state = init(tid);
    match schedule {
        OmpSchedule::Static | OmpSchedule::StaticChunk(_) => {
            for (s, e) in schedule.static_chunks(n, nthreads as u64, tid as u64) {
                for i in s..e {
                    body(&mut state, i);
                }
            }
        }
        OmpSchedule::Dynamic(chunk) => {
            let chunk = chunk.max(1);
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for i in start..end {
                    body(&mut state, i);
                }
            }
        }
        OmpSchedule::Guided(min_chunk) => {
            let min_chunk = min_chunk.max(1);
            loop {
                // Chunk ≈ remaining / nthreads, floored at min.
                let cur = next.load(Ordering::Relaxed);
                if cur >= n {
                    break;
                }
                let remaining = n - cur;
                let chunk = (remaining / nthreads as u64).max(min_chunk);
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for i in start..end {
                    body(&mut state, i);
                }
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn static_chunks_partition_range() {
        for n in [0u64, 1, 7, 64, 100, 4096] {
            for nthreads in [1u64, 2, 3, 8, 64] {
                let mut all: Vec<(u64, u64)> = Vec::new();
                for tid in 0..nthreads {
                    all.extend(OmpSchedule::Static.static_chunks(n, nthreads, tid));
                }
                all.sort_unstable();
                let total: u64 = all.iter().map(|(s, e)| e - s).sum();
                assert_eq!(total, n);
                // Chunks are disjoint and contiguous.
                let mut pos = 0;
                for (s, e) in all {
                    assert_eq!(s, pos);
                    pos = e;
                }
            }
        }
    }

    #[test]
    fn static_balance_is_within_one_iteration() {
        let n = 103u64;
        let t = 8u64;
        let sizes: Vec<u64> = (0..t)
            .map(|tid| {
                OmpSchedule::Static
                    .static_chunks(n, t, tid)
                    .iter()
                    .map(|(s, e)| e - s)
                    .sum()
            })
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    fn static_chunk_round_robins() {
        let chunks = OmpSchedule::StaticChunk(2).static_chunks(10, 2, 0);
        assert_eq!(chunks, vec![(0, 2), (4, 6), (8, 10)]);
        let chunks1 = OmpSchedule::StaticChunk(2).static_chunks(10, 2, 1);
        assert_eq!(chunks1, vec![(2, 4), (6, 8)]);
    }

    #[test]
    fn parallel_sum_matches_sequential() {
        let n = 10_000u64;
        let total = AtomicU64::new(0);
        parallel_for_pooled(n, 8, OmpSchedule::Dynamic(16), |i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn dynamic_handles_imbalanced_work() {
        // Tail-heavy cost: dynamic,1 must still terminate and cover all.
        let n = 256u64;
        let done = AtomicU64::new(0);
        parallel_for_pooled(n, 8, OmpSchedule::Dynamic(1), |i| {
            if i > 240 {
                std::thread::yield_now();
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), n);
    }

    #[test]
    fn single_thread_runs_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        parallel_for_pooled(16, 1, OmpSchedule::Dynamic(4), |i| {
            order.lock().unwrap().push(i);
        });
        let o = order.into_inner().unwrap();
        assert_eq!(o, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn pooled_covers_every_iteration_exactly_once() {
        for sched in [
            OmpSchedule::Static,
            OmpSchedule::StaticChunk(3),
            OmpSchedule::Dynamic(1),
            OmpSchedule::Dynamic(7),
            OmpSchedule::Guided(2),
        ] {
            for (n, t) in [(0u64, 4usize), (1, 4), (17, 4), (100, 7), (64, 16), (5, 16)] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                parallel_for_pooled(n, t, sched, |i| {
                    hits[i as usize].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "iteration {i} under {sched}");
                }
            }
        }
    }

    #[test]
    fn pooled_state_covers_and_follows_static_chunks() {
        for sched in [
            OmpSchedule::Static,
            OmpSchedule::StaticChunk(3),
            OmpSchedule::Dynamic(2),
            OmpSchedule::Guided(1),
        ] {
            let states = parallel_for_state_pooled(
                1000,
                6,
                sched,
                |tid| (tid, 0u64, Vec::new()),
                |s, i| {
                    s.1 += i;
                    s.2.push(i);
                },
            );
            assert_eq!(states.len(), 6, "{sched}");
            let total: u64 = states.iter().map(|s| s.1).sum();
            assert_eq!(total, 1000 * 999 / 2, "{sched}");
            let mut all: Vec<u64> = states.iter().flat_map(|s| s.2.iter().copied()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..1000).collect::<Vec<_>>(), "{sched}");
            // Worker ids are handed through, one state per `tid` in order.
            let tids: Vec<usize> = states.iter().map(|s| s.0).collect();
            assert_eq!(tids, (0..6).collect::<Vec<_>>());
            // Static schedules: worker `tid` sees exactly the iterations
            // of its `static_chunks`, in order.
            if matches!(sched, OmpSchedule::Static | OmpSchedule::StaticChunk(_)) {
                for (tid, _, seen) in &states {
                    let want: Vec<u64> = sched
                        .static_chunks(1000, 6, *tid as u64)
                        .into_iter()
                        .flat_map(|(s, e)| s..e)
                        .collect();
                    assert_eq!(seen, &want, "{sched} tid {tid}");
                }
            }
        }
    }

    #[test]
    fn pooled_sequential_fast_path_returns_single_state() {
        let states =
            parallel_for_state_pooled(10, 1, OmpSchedule::Dynamic(4), |_| 0u64, |s, i| *s += i);
        assert_eq!(states, vec![45]);
        let states =
            parallel_for_state_pooled(1, 8, OmpSchedule::Static, |_| 0u64, |s, i| *s += i + 7);
        assert_eq!(states, vec![7]);
    }

    #[test]
    fn pooled_nested_regions_complete() {
        // Outer pooled region whose every iteration runs an inner pooled
        // region: exercises the worker-side helping join on the shared
        // global pool.
        let total = AtomicU64::new(0);
        parallel_for_pooled(8, 4, OmpSchedule::Dynamic(1), |_i| {
            parallel_for_pooled(16, 4, OmpSchedule::Static, |j| {
                total.fetch_add(j, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * (16 * 15 / 2));
    }

    #[test]
    fn pooled_body_panic_propagates_after_region_drains() {
        let ran = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_pooled(64, 4, OmpSchedule::Dynamic(1), |i| {
                if i == 13 {
                    panic!("iteration boom");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "body panic must resurface at the join");
        // Every non-panicking iteration still executed (the region drains
        // before the panic is re-raised — no task left in flight).
        assert_eq!(ran.load(Ordering::Relaxed), 63);
    }
}
