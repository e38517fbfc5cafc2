//! Pure-call futures: task-level parallelism for independent pure calls.
//!
//! The paper's headline claim is that the `pure` keyword lets the
//! compiler *automatically parallelize pure function calls* — not only
//! loops. This module is the runtime half of that promise: a verified
//! pure call whose result is not needed yet can run as a **future** on
//! the persistent [`ThreadPool`] while the caller keeps executing, and
//! is *forced* at the first use of its result.
//!
//! Five disciplines keep this safe and fast on a finite pool:
//!
//! * **Local spawning** — a *worker* that spawns a future pushes it onto
//!   its **own deque** (one release fence, no lock, no contention); idle
//!   siblings steal the oldest entry, which in divide-and-conquer
//!   recursion is the *largest* pending subtree. External (non-worker)
//!   spawns go through the pool's injector.
//! * **Exposure throttle** — a worker stops spawning once
//!   [`LOCAL_QUEUE_LIMIT`] of its pushed futures sit unclaimed
//!   ([`spawn_capacity`], the admission policy the engines consult,
//!   trips and the call runs **inline**; a 1-hardware-thread host
//!   admits no task parallelism at all). The exposed count —
//!   pushed, not yet claimed by an executor, not yet revoked by an
//!   awaiter — is the *right* granularity signal: it measures
//!   parallelism this worker has offered that nobody has taken — once
//!   siblings stop stealing, recursion bottoms out inline at the cost of
//!   two relaxed loads per call. (The raw deque length would not do:
//!   revoked entries linger as no-op pops, and thieves popping them
//!   would re-admit spawns at the churn rate.) Injector spawns keep the
//!   coarser pool-wide throttle ([`SATURATION_FACTOR`] × width).
//! * **Await-time cancellation** — before waiting, an awaiter tries to
//!   *revoke* its future with one CAS ([`PureFuture::cancel`]): if no
//!   worker has claimed the task yet, the caller runs the call inline
//!   (no result cell, no cross-thread marshalling) and the queued entry
//!   becomes a no-op pop. Spawned subtrees therefore stay stealable for
//!   their whole spawn-to-await window, yet the bottomed-out recursion
//!   (nobody idle, nothing stolen) pays only push + CAS per call.
//! * **Helping awaits** — [`PureFuture::wait`] never just blocks: the
//!   awaiter claims queued tasks until its future completes, via
//!   [`ThreadPool::join_group`] — a pool worker from its own deque first
//!   (usually the awaited future itself, still unstolen), then the
//!   injector, then steals; the external caller of the run (thread 0 of
//!   the team) from the injector, then steals. A fully occupied pool
//!   whose workers all await nested futures therefore always makes
//!   progress, and the caller runs a share of the recursion it started
//!   instead of sleeping through it.
//! * **Ownership** — the spawned closure owns everything it touches
//!   (`'static`), so an await abandoned by an unwinding caller leaves a
//!   detached task that finishes harmlessly; no lifetime erasure is
//!   needed (unlike the region path, which borrows the caller's frame).
//!
//! Each future is its own single-task [`TaskGroup`] generation: the
//! await waits for exactly that task, and a panic inside the closure
//! re-raises at the await (never at drop) — including panics in tasks
//! that were *stolen* by another worker.

use crate::omprt::instrument;
use crate::omprt::pool::{worker_index, TaskGroup, ThreadPool};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Outstanding-task multiple beyond which **injector** spawns fall back
/// to inline execution: with `w` requested workers, at most
/// `SATURATION_FACTOR * w` submitted-but-unfinished tasks are allowed
/// before external spawn sites stop enqueueing.
pub const SATURATION_FACTOR: usize = 2;

/// Exposed-task budget at which a **worker** stops spawning futures and
/// runs the call inline instead: at most this many of a worker's pushed
/// futures may sit unclaimed-and-unrevoked at once. Deep enough that a
/// thief always finds the next subtree queued, shallow enough that leaf
/// calls never pay spawn overhead once every sibling is busy.
pub const LOCAL_QUEUE_LIMIT: usize = 8;

/// Executor id of a thread that is no pool worker — the external caller
/// that claimed the task while helping at a join. Also the initial value
/// (read only after the task ran, so the two never alias).
const EXEC_EXTERNAL: usize = usize::MAX;

/// Claim states of a future's task: enqueued and up for grabs, claimed
/// by the worker about to run it, or revoked by the awaiting caller.
const STATE_QUEUED: u8 = 0;
const STATE_CLAIMED: u8 = 1;
const STATE_CANCELLED: u8 = 2;

/// What one await learned about its future's scheduling: whether the
/// awaiter *helped* (executed queued tasks while waiting) and whether
/// the task was *stolen* (executed by a different thread than the worker
/// that pushed it onto its local deque).
#[derive(Debug, Clone, Copy, Default)]
pub struct FutureReport {
    pub helped: bool,
    pub stolen: bool,
}

/// State shared between a future's handle and its queued task, in one
/// allocation (spawn is the hot path — one `Arc` beats three): the
/// claim state ([`STATE_QUEUED`] / [`STATE_CLAIMED`] /
/// [`STATE_CANCELLED`], the cancellation handshake), the executor
/// attribution, and the cell the result lands in.
struct FutureShared<T> {
    state: AtomicU8,
    executed_by: AtomicUsize,
    cell: Mutex<Option<T>>,
}

/// One in-flight pure call: a single-task generation on the shared pool
/// plus the cell its result lands in.
pub struct PureFuture<T> {
    pool: Arc<ThreadPool>,
    group: TaskGroup,
    shared: Arc<FutureShared<T>>,
    /// Worker index that pushed this task onto its own deque (`None`
    /// for injector submits).
    pusher: Option<usize>,
    /// The pushing worker's exposed-task counter (local pushes only);
    /// decremented once, by whichever of claim/cancel wins.
    exposure: Option<Arc<AtomicUsize>>,
}

/// Host hardware parallelism, cached (the spawn throttle consults it on
/// every spawn attempt).
fn hardware_width() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Whether a spawn would be accepted right now — the engines' cheap
/// pre-check before marshalling arguments. Every spawn is subject to
/// the pool-wide saturation throttle: `pending` (queued *and* running)
/// below [`SATURATION_FACTOR`] × the *effective* width — the requested
/// `--threads`, clamped to the host's hardware parallelism, because
/// exposing more in-flight tasks than the machine can physically run
/// buys nothing and costs a queue round trip per task (asking for 4
/// threads on a 1-core box must not pay 4-way spawn overhead). A worker
/// of `pool` is additionally subject to its own exposed-task budget,
/// which stops any one worker from hoarding offers nobody takes.
///
/// This runs at every spawn site of every thread, and nearly always
/// answers "inline": it reads one thread-local, this worker's own
/// exposure counter and the pool's pending counter, and writes nothing
/// shared — in particular no reference count.
pub fn spawn_capacity(pool: &ThreadPool, width: usize) -> bool {
    capacity_at(hardware_width(), pool, width)
}

/// [`spawn_capacity`] on a host of `hw` hardware threads.
fn capacity_at(hw: usize, pool: &ThreadPool, width: usize) -> bool {
    if hw == 1 {
        // A single hardware thread can never run tasks in parallel:
        // every spawn would be a queue round trip for nothing (the
        // oversubscribed workers would churn tasks at timeslice speed).
        // Spawn sites degrade to plain inline calls.
        return false;
    }
    if pool.local_depth().is_some_and(|d| d >= LOCAL_QUEUE_LIMIT) {
        return false;
    }
    pool.pending_tasks() < width.clamp(1, hw).saturating_mul(SATURATION_FACTOR)
}

impl<T: Send + 'static> PureFuture<T> {
    /// Run `f` as a future on `pool`. This is the *mechanism* — it
    /// always enqueues; admission *policy* is the caller's, via
    /// [`spawn_capacity`] (the engines consult it before marshalling
    /// arguments and fall back to a plain inline call when it trips).
    /// `steal = false` routes the spawn through the shared injector
    /// instead of the spawning worker's deque. Every engine passes
    /// `true`; the parameter (and `submit_to_shared` under it) survives
    /// PR 13 only because the frozen `purebench/src/layers.rs` calls
    /// `PureFuture::spawn(&pool, true, …)` — a later benchmark PR can
    /// drop it.
    pub fn spawn<F>(pool: &Arc<ThreadPool>, steal: bool, f: F) -> PureFuture<T>
    where
        F: FnOnce() -> T + Send + 'static,
    {
        let group = pool.group();
        let shared = Arc::new(FutureShared {
            state: AtomicU8::new(STATE_QUEUED),
            executed_by: AtomicUsize::new(EXEC_EXTERNAL),
            cell: Mutex::new(None),
        });
        let pusher = if steal { pool.current_worker() } else { None };
        // Exposure accounting: a locally-pushed future counts against
        // its worker's exposed-task budget until it is claimed or
        // revoked — exactly one of the two CASes below wins, and the
        // winner releases the budget slot.
        let exposure = if pusher.is_some() {
            let h = pool.exposure_handle().expect("pusher is a worker");
            let prev = h.fetch_add(1, Ordering::Relaxed);
            instrument::metrics().exposed_tasks.sample(prev as u64 + 1);
            Some(h)
        } else {
            None
        };
        instrument::instant(
            "future.spawn",
            pusher.map_or(u64::MAX, |p| p as u64), // MAX: injector submit
        );
        let sh = Arc::clone(&shared);
        let claim_exposure = exposure.clone();
        let task = move || {
            // Claim the task; a future the awaiter already revoked
            // (it ran the call inline) degenerates to a no-op pop.
            if sh
                .state
                .compare_exchange(
                    STATE_QUEUED,
                    STATE_CLAIMED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_err()
            {
                return;
            }
            if let Some(h) = &claim_exposure {
                h.fetch_sub(1, Ordering::Relaxed);
            }
            let executor = worker_index().unwrap_or(EXEC_EXTERNAL);
            instrument::instant("future.claim", executor as u64);
            sh.executed_by.store(executor, Ordering::Relaxed);
            *sh.cell.lock() = Some(f());
        };
        if pusher.is_some() {
            pool.submit_to(&group, task);
        } else {
            pool.submit_to_shared(&group, task);
        }
        PureFuture {
            pool: Arc::clone(pool),
            group,
            shared,
            pusher,
            exposure,
        }
    }

    /// Try to revoke the future before anyone claims it — the awaiter's
    /// fast path. `Ok(())` means the queued task will never run the
    /// call: the caller owns it again and executes it **inline** (a
    /// plain call, no future machinery), while the revoked queue entry
    /// degenerates to a no-op pop whenever a worker reaches it. `Err`
    /// hands the future back: some worker already claimed (or finished)
    /// it, so the caller must [`PureFuture::wait`].
    ///
    /// This is what makes deque spawning affordable when nobody steals:
    /// every spawn stays *available* to idle siblings between push and
    /// await, but un-stolen work never pays for result marshalling —
    /// the common bottomed-out case costs one CAS.
    pub fn cancel(self) -> Result<(), Self> {
        if self
            .shared
            .state
            .compare_exchange(
                STATE_QUEUED,
                STATE_CANCELLED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            if let Some(h) = &self.exposure {
                h.fetch_sub(1, Ordering::Relaxed);
            }
            instrument::instant("future.cancel", self.pusher.map_or(u64::MAX, |p| p as u64));
            Ok(())
        } else {
            Err(self)
        }
    }

    /// Whether this future went onto the spawning worker's own deque
    /// (`false`: injector submit, or spawned from an external thread).
    pub fn pushed_local(&self) -> bool {
        self.pusher.is_some()
    }

    /// Whether the spawned task has already finished.
    pub fn is_ready(&self) -> bool {
        self.group.is_complete()
    }

    /// Force the future: *help* — claim queued tasks — until the result
    /// is available. Returns the value and a [`FutureReport`]: `helped`
    /// means the await executed at least one queued task while waiting
    /// (an await that merely parked reports `false`); `stolen` means a
    /// locally-pushed task ended up executed by a *different* thread
    /// (a sibling worker or the helping caller) — the deque's steal path
    /// actually migrated it. A panic from the closure re-raises here.
    pub fn wait(self) -> (T, FutureReport) {
        // Only a wait that actually has to block (or help) counts toward
        // the await-wait histogram; an already-finished future is free.
        let wait_start_ns = if instrument::enabled() && !self.group.is_complete() {
            instrument::now_ns().max(1)
        } else {
            0
        };
        let _span = instrument::span("future.await", 0);
        let helped = self.pool.join_group(&self.group);
        if wait_start_ns != 0 {
            instrument::metrics()
                .await_wait_ns
                .record(instrument::now_ns().saturating_sub(wait_start_ns));
        }
        let executed = self.shared.executed_by.load(Ordering::Relaxed);
        let stolen = self.pusher.is_some_and(|p| executed != p);
        if stolen {
            instrument::instant("future.stolen", executed as u64);
        }
        let v = self
            .shared
            .cell
            .lock()
            .take()
            .expect("future task stored its result");
        (v, FutureReport { helped, stolen })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::omprt::pool::tests::{announcing_start, block_workers, spin_until_complete};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Spawn `f` and return once a **worker** is running it — the
    /// external thread claims tasks only inside an await, so a future
    /// that started before its await began is not on the caller. Tests
    /// that need "this closure ran on a worker" go through here.
    fn spawn_on_worker<T, F>(pool: &Arc<ThreadPool>, f: F) -> PureFuture<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (f, wait_started) = announcing_start(f);
        let fut = PureFuture::spawn(pool, true, f);
        wait_started();
        fut
    }

    #[test]
    fn spawn_and_wait_returns_value() {
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        let fut = PureFuture::spawn(&pool, true, || 6 * 7);
        // Spawned from this (non-worker) thread: injector, not a deque.
        assert!(!fut.pushed_local());
        let (v, report) = fut.wait();
        assert_eq!(v, 42);
        assert!(!report.stolen, "injector submits are never steals");

        // With every worker parked, the await itself must run the call:
        // the awaiting caller is a thread of the team, not a sleeper.
        let release = block_workers(&pool);
        let me = std::thread::current().id();
        let fut = PureFuture::spawn(&pool, true, move || std::thread::current().id() == me);
        let (ran_here, report) = fut.wait();
        assert!(ran_here && report.helped);
        assert!(!report.stolen);
        drop(release);
    }

    /// The admission policy on a 2-wide host: a saturated pool (pending
    /// at the width cap) refuses capacity.
    #[test]
    fn spawn_capacity_trips_on_saturation() {
        let pool = Arc::new(ThreadPool::new(1, 1, 1));
        assert!(capacity_at(2, &pool, 2), "an idle pool has room");
        // Block the lone worker and fill the backlog allowance.
        let gate = Arc::new(AtomicU64::new(0));
        let mut futs = Vec::new();
        for _ in 0..2 * SATURATION_FACTOR {
            let g = Arc::clone(&gate);
            futs.push(PureFuture::spawn(&pool, true, move || {
                while g.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                1u64
            }));
        }
        assert!(
            !capacity_at(2, &pool, 2),
            "a full backlog must refuse capacity"
        );
        // Width is clamped to the hardware: 64 requested threads on a
        // 2-wide host expose no more than 2 threads' worth of tasks.
        assert!(!capacity_at(2, &pool, 64));
        assert!(capacity_at(64, &pool, 64));
        gate.store(1, Ordering::Release);
        let total: u64 = futs.into_iter().map(|f| f.wait().0).sum();
        assert_eq!(total, 2 * SATURATION_FACTOR as u64);
    }

    #[test]
    fn nested_await_from_worker_helps() {
        // One worker, and the external thread stays out (it awaits only
        // once the outer future is done): the outer future's await of
        // the inner future can only complete because the awaiting worker
        // helps (pops the inner task back off its own deque and runs it).
        let pool = Arc::new(ThreadPool::new(1, 1, 1));
        let p2 = Arc::clone(&pool);
        let fut = spawn_on_worker(&pool, move || {
            let inner = PureFuture::spawn(&p2, true, || 10u64);
            assert!(inner.pushed_local(), "worker spawns push locally");
            let (v, report) = inner.wait();
            assert!(
                report.helped,
                "a worker await with the task queued must help"
            );
            assert!(!report.stolen, "nobody else could have taken it");
            v + 1
        });
        spin_until_complete(&fut.group);
        assert_eq!(fut.wait().0, 11);
    }

    /// The exposure budget: a worker with [`LOCAL_QUEUE_LIMIT`]
    /// unclaimed offers outstanding gets no more capacity, and awaiting
    /// them (revoking, here — nobody else can claim them) restores it.
    #[test]
    fn exposure_budget_caps_worker_spawns() {
        let pool = Arc::new(ThreadPool::new(1, 1, 1));
        let p2 = Arc::clone(&pool);
        let fut = spawn_on_worker(&pool, move || {
            // The lone worker is executing *this* closure and the
            // external thread is not awaiting yet, so nothing claims its
            // pushes while it spawns.
            let mut futs = Vec::new();
            for i in 0..LOCAL_QUEUE_LIMIT as u64 {
                futs.push((i, PureFuture::spawn(&p2, true, move || i * 2)));
            }
            assert_eq!(p2.local_depth(), Some(LOCAL_QUEUE_LIMIT));
            assert!(
                !spawn_capacity(&p2, 64),
                "a full exposure budget must refuse capacity"
            );
            for (i, f) in futs {
                match f.cancel() {
                    Ok(()) => {}
                    Err(f) => assert_eq!(f.wait().0, i * 2),
                }
            }
            assert_eq!(p2.local_depth(), Some(0), "awaits restore the budget");
            7u64
        });
        spin_until_complete(&fut.group);
        assert_eq!(fut.wait().0, 7);
    }

    /// Cancellation: an unclaimed future is revoked (the caller runs the
    /// call inline), a finished one is handed back for a normal wait —
    /// and the revoked queue entry never runs the closure.
    #[test]
    fn cancel_revokes_unclaimed_futures_only() {
        let pool = Arc::new(ThreadPool::new(1, 1, 1));
        let ran = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let r2 = Arc::clone(&ran);
        let outer = spawn_on_worker(&pool, move || {
            // Locally pushed, never stolen (the lone worker is busy right
            // here and the external thread is not awaiting yet): cancel
            // must win, and the closure must never run.
            let r3 = Arc::clone(&r2);
            let fut = PureFuture::spawn(&p2, true, move || {
                r3.fetch_add(1, Ordering::Relaxed);
                7u64
            });
            let cancelled = fut.cancel().is_ok();
            (cancelled, r2)
        });
        spin_until_complete(&outer.group);
        let ((cancelled, ran2), _) = outer.wait();
        assert!(cancelled, "unclaimed local future must be revocable");
        // Drain the zombie entry; the closure still must not run.
        pool.join();
        assert_eq!(ran2.load(Ordering::Relaxed), 0, "revoked closure ran");

        // A completed future refuses cancellation and waits normally.
        let fut = PureFuture::spawn(&pool, true, || 9u64);
        while !fut.is_ready() {
            std::thread::yield_now();
        }
        match fut.cancel() {
            Ok(()) => panic!("a claimed future must not cancel"),
            Err(fut) => assert_eq!(fut.wait().0, 9),
        }
    }

    #[test]
    fn panic_in_future_reraises_at_wait() {
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        let fut = PureFuture::spawn(&pool, true, || -> u64 { panic!("future boom") });
        let r = catch_unwind(AssertUnwindSafe(|| fut.wait()));
        assert!(r.is_err(), "closure panic must surface at the await");
        // The pool survives.
        let ok = PureFuture::spawn(&pool, true, || 5u64);
        assert_eq!(ok.wait().0, 5);
    }

    /// A future pushed onto a blocked worker's deque is stolen — by the
    /// idle sibling or by the helping caller, whoever scans first; the
    /// report says so either way, and a panicking stolen task still
    /// re-raises at the await.
    #[test]
    fn stolen_future_is_reported_and_its_panic_surfaces() {
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        let p2 = Arc::clone(&pool);
        let outcome = spawn_on_worker(&pool, move || {
            let good = PureFuture::spawn(&p2, true, || 21u64);
            let bad = PureFuture::spawn(&p2, true, || -> u64 { panic!("stolen boom") });
            assert!(good.pushed_local() && bad.pushed_local());
            // Refuse to pop: only steals can run them.
            while !(good.is_ready() && bad.is_ready()) {
                std::thread::yield_now();
            }
            let (v, report) = good.wait();
            assert!(report.stolen, "someone else must have stolen it");
            let panicked = catch_unwind(AssertUnwindSafe(|| bad.wait())).is_err();
            (v, panicked)
        });
        let ((v, panicked), _) = outcome.wait();
        assert_eq!(v, 21);
        assert!(panicked, "stolen task's panic must re-raise at the await");
    }

    #[test]
    fn no_steal_mode_routes_worker_spawns_through_the_injector() {
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        let p2 = Arc::clone(&pool);
        let fut = PureFuture::spawn(&pool, false, move || {
            let inner = PureFuture::spawn(&p2, false, || 3u64);
            assert!(!inner.pushed_local(), "steal = false must use the injector");
            inner.wait().0
        });
        assert_eq!(fut.wait().0, 3);
    }

    #[test]
    fn deep_recursive_spawns_complete_on_a_tiny_pool() {
        // Recursive spawner: every level spawns its left child (policy
        // permitting, like the engines) and computes the right inline.
        fn tree(pool: &Arc<ThreadPool>, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let p = Arc::clone(pool);
            if spawn_capacity(pool, 2) || n > 12 {
                let fut = PureFuture::spawn(pool, true, move || tree(&p, n - 1));
                let right = tree(pool, n - 2);
                let left = match fut.cancel() {
                    Ok(()) => tree(pool, n - 1),
                    Err(fut) => fut.wait().0,
                };
                left + right
            } else {
                tree(pool, n - 1) + tree(pool, n - 2)
            }
        }
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        assert_eq!(tree(&pool, 15), 610); // fib(15)
    }

    /// A future the caller runs while helping may itself spawn and await
    /// a nested future: the nested await helps on the same thread.
    #[test]
    fn caller_run_future_awaits_a_nested_future_without_deadlock() {
        let pool = Arc::new(ThreadPool::new(1, 1, 1));
        let release = block_workers(&pool);
        let p2 = Arc::clone(&pool);
        let fut = PureFuture::spawn(&pool, true, move || {
            let inner = PureFuture::spawn(&p2, true, || 10u64);
            assert!(!inner.pushed_local(), "the caller owns no deque");
            inner.wait().0 + 1
        });
        let (v, report) = fut.wait();
        assert_eq!(v, 11);
        assert!(report.helped);
        drop(release);
    }

    /// One hardware thread admits nothing — not even on an idle pool,
    /// from the caller or from a worker, at any requested width.
    #[test]
    fn one_hardware_thread_admits_nothing() {
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        let p2 = Arc::clone(&pool);
        let from_worker =
            spawn_on_worker(&pool, move || [1, 2, 64].map(|w| capacity_at(1, &p2, w)));
        assert_eq!(from_worker.wait().0, [false; 3]);
        for width in [1, 2, 64] {
            assert!(!capacity_at(1, &pool, width));
            assert!(capacity_at(2, &pool, width), "the same pool, 2-wide");
        }
    }
}
