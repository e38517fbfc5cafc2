//! A persistent worker pool with socket-aware virtual pinning and
//! per-worker work-stealing deques.
//!
//! The paper pins threads with `numactl` so the OS cannot migrate them
//! between the four Opteron sockets. Our pool reproduces the *assignment*:
//! each worker is labelled with a virtual core and socket, filling socket 0
//! completely before spilling onto socket 1 (the `numactl` **compact**
//! policy the paper's runs use — see [`ThreadPool::new`]), which the NUMA
//! cost model and the interpreter's first-touch accounting use.
//!
//! ## Task routing: deques + injector
//!
//! Work distribution is Chase–Lev style ([`crate::omprt::deque`]):
//!
//! * every worker owns a **deque** — tasks submitted *from* a pool worker
//!   (nested regions, pure-call futures) push onto the submitting worker's
//!   own deque (LIFO local pop, one release fence, no lock, no wakeup
//!   unless someone is idle);
//! * external threads submit through a single **injector** queue;
//! * a worker looks for work in that order — own deque (newest first),
//!   injector, then **steals** the oldest task from a sibling's deque
//!   (rotating victim order, so thieves don't convoy on worker 0).
//!
//! This replaces the previous single shared channel: divide-and-conquer
//! pure code used to serialize every spawn on one queue's lock; now a
//! worker spawning recursively touches only its own deque and the steal
//! path migrates whole subtrees (FIFO end = biggest pending subtree).
//!
//! ## Completion tracking
//!
//! Two layers, unchanged from the channel era:
//!
//! * the **pool counter** covers every task ever submitted — it is what
//!   [`ThreadPool::join`] and `Drop` wait on;
//! * a [`TaskGroup`] is a per-region *generation*: tasks submitted through
//!   [`ThreadPool::submit_to`] additionally count against their group, and
//!   [`ThreadPool::join_group`] waits for that group alone. This is what
//!   lets nested parallel regions share one process-wide pool — an inner
//!   region's join does not wait for (or wake on) unrelated outer tasks.
//!
//! ## Invariants
//!
//! * Workers are panic-safe: a panicking task is caught, its pool/group
//!   counters are still decremented (a panic must never leave `join`
//!   waiting forever — stolen tasks included), and the payload re-raises
//!   on the joining thread.
//! * A group join **helps** whoever issues it — a pool worker (a nested
//!   region, a future await: own deque, injector, then steals) or an
//!   external caller (injector, then steals) — until its group completes.
//!   A pool of N workers can therefore execute arbitrarily nested regions
//!   and futures without deadlock, and the caller of a `T`-thread run is
//!   itself thread 0 of the team: [`global_pool`] sizes the pool at
//!   `T − 1` workers, so `--threads T` means `T` running threads.
//! * A group's tasks are all enqueued before its join begins (regions
//!   submit everything first; each future is a single-task group), so a
//!   joiner — worker or external — that scans *every* queue empty may
//!   park on the group condvar: the group's outstanding tasks are all in
//!   flight on other threads, and `finish_one` notifies under the lock.
//! * Idle workers park on a condvar; every enqueue bumps a `queued`
//!   counter (`SeqCst`) and wakes sleepers when the sleeper count
//!   (`SeqCst`) is non-zero — the two total-ordered accesses make the
//!   check-then-park race impossible.

use crate::omprt::deque::{Steal, Task, WorkDeque};
use crate::omprt::instrument;
use parking_lot::{Condvar, Mutex, RwLock};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

type PanicPayload = Box<dyn Any + Send + 'static>;

thread_local! {
    /// The owning pool (weak, so a superseded global pool can drop) and
    /// worker index of this thread, when it is a pool worker.
    static WORKER_CTX: RefCell<Option<(Weak<PoolCore>, usize)>> = const { RefCell::new(None) };
}

/// Virtual placement of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub worker: usize,
    pub core: usize,
    pub socket: usize,
}

/// Completion state shared by the pool and by each task group: an
/// outstanding-task counter, a condvar for parked joiners, and the first
/// panic payload caught from a member task.
struct Completion {
    pending: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    panic: Mutex<Option<PanicPayload>>,
}

impl Completion {
    fn new() -> Self {
        Completion {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn record_panic(&self, p: PanicPayload) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(p);
        }
    }

    /// Decrement `pending`; wake joiners when it reaches zero. The notify
    /// happens under the lock so a joiner that observed `pending != 0`
    /// cannot park between our decrement and our wakeup.
    fn finish_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    /// Block until `pending == 0` without helping (pool-wide `join` and
    /// `Drop`).
    fn wait(&self) {
        let mut guard = self.lock.lock();
        while self.pending.load(Ordering::Acquire) != 0 {
            self.cv.wait(&mut guard);
        }
    }

    /// Re-raise the first recorded panic, if any.
    fn rethrow(&self) {
        if let Some(p) = self.panic.lock().take() {
            resume_unwind(p);
        }
    }
}

/// One *generation* of tasks (typically: one parallel region). Obtained
/// from [`ThreadPool::group`]; joined with [`ThreadPool::join_group`].
pub struct TaskGroup {
    shared: Arc<Completion>,
}

impl TaskGroup {
    /// Whether every task of this generation has finished (a group with
    /// no submissions yet is trivially complete).
    pub fn is_complete(&self) -> bool {
        self.shared.pending.load(Ordering::Acquire) == 0
    }
}

/// True on threads owned by any [`ThreadPool`].
pub fn on_worker_thread() -> bool {
    worker_index().is_some()
}

/// Worker index of the current thread within the pool that owns it (any
/// pool — used by the futures layer to attribute *where* a task ran).
pub fn worker_index() -> Option<usize> {
    WORKER_CTX.with(|c| c.borrow().as_ref().map(|(_, i)| *i))
}

/// Work-stealing statistics of one pool (monotonic totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks a worker claimed from a *sibling's* deque.
    pub tasks_stolen: u64,
    /// Tasks pushed onto the submitting worker's own deque.
    pub local_pushes: u64,
}

/// When instrumentation is live, wrap a task so the enqueue → claim
/// latency lands in the `queue_wait_ns` histogram. One branch when off;
/// the task is passed through untouched.
#[inline]
fn stamp_queue_wait(task: Task) -> Task {
    if instrument::enabled() {
        let enqueued_ns = instrument::now_ns();
        Box::new(move || {
            instrument::metrics()
                .queue_wait_ns
                .record(instrument::now_ns().saturating_sub(enqueued_ns));
            task();
        })
    } else {
        task
    }
}

/// Shared state of one pool: the queues, the sleep protocol and the
/// pool-wide completion counter.
struct PoolCore {
    /// External-submission queue — the only queue non-worker threads
    /// touch.
    injector: Mutex<VecDeque<Task>>,
    /// One Chase–Lev deque per worker.
    deques: Vec<WorkDeque>,
    /// Per-worker count of *exposed* futures: pushed onto that worker's
    /// deque and neither claimed by an executor nor revoked by their
    /// awaiter yet. This — not the raw deque length — is the spawn
    /// throttle's signal: revoked entries linger in the deque as no-op
    /// pops, and counting them (or missing claimed-but-queued ones)
    /// would let spawn admission churn with the thieves' pop rate.
    exposed: Vec<Arc<AtomicUsize>>,
    /// Tasks currently sitting in the injector or any deque (not yet
    /// claimed). The idle-parking signal; `SeqCst` pairs with
    /// `idle_sleepers` (see module docs).
    queued: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    idle_sleepers: AtomicUsize,
    shutdown: AtomicBool,
    shared: Completion,
    steals: AtomicU64,
    local_pushes: AtomicU64,
}

impl PoolCore {
    /// Wake one idle worker after an enqueue — one task needs one
    /// thief, and waking the whole herd just to race for a single entry
    /// costs a context switch per loser. One `SeqCst` load in the
    /// common (nobody idle) case. Safe with `notify_one`: a woken
    /// worker that finds nothing re-checks `queued` under the lock
    /// before re-parking, so a task can never strand while every worker
    /// sleeps.
    fn notify_idle(&self) {
        let sleepers = self.idle_sleepers.load(Ordering::SeqCst);
        instrument::metrics().idle_sleepers.sample(sleepers as u64);
        if sleepers > 0 {
            let _g = self.idle_lock.lock();
            self.idle_cv.notify_one();
        }
    }

    fn enqueue_injector(&self, task: Task) {
        let task = stamp_queue_wait(task);
        {
            let mut q = self.injector.lock();
            q.push_back(task);
            instrument::metrics().injector_len.sample(q.len() as u64);
        }
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.notify_idle();
    }

    /// Owner-side push onto worker `index`'s deque. Must only be called
    /// from that worker's thread (the deque's owner contract).
    fn enqueue_local(&self, index: usize, task: Task) {
        let task = stamp_queue_wait(task);
        self.deques[index].push(task);
        instrument::metrics()
            .deque_depth
            .sample(self.deques[index].len() as u64);
        self.local_pushes.fetch_add(1, Ordering::Relaxed);
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.notify_idle();
    }

    /// Claim one task: own deque first (when `index` names a worker of
    /// this pool), then the injector, then steal from siblings in
    /// rotating order. A `Retry` from a victim means a race was lost to
    /// concurrent progress — spin on that victim until it is decidably
    /// empty or yields a task.
    fn find_task(&self, index: Option<usize>) -> Option<Task> {
        if let Some(i) = index {
            if let Some(t) = self.deques[i].pop() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(t);
        }
        // Widen the owner-vs-stealer race window before scanning victims.
        #[cfg(feature = "fault-inject")]
        crate::fault::steal_jitter();
        // Steal-scan start; 0 means "instrumentation off" (`max(1)`
        // keeps a first-nanosecond timestamp from aliasing it).
        let scan_start_ns = if instrument::enabled() {
            instrument::now_ns().max(1)
        } else {
            0
        };
        let n = self.deques.len();
        let start = index.map_or(0, |i| i + 1);
        for off in 0..n {
            let victim = (start + off) % n;
            if Some(victim) == index {
                continue;
            }
            loop {
                match self.deques[victim].steal() {
                    Steal::Task(t) => {
                        if scan_start_ns != 0 {
                            instrument::metrics()
                                .steal_latency_ns
                                .record(instrument::now_ns().saturating_sub(scan_start_ns));
                            instrument::instant("pool.steal", victim as u64);
                        }
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        self.queued.fetch_sub(1, Ordering::SeqCst);
                        return Some(t);
                    }
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
        }
        None
    }

    /// Execute one task with panic containment: the payload is recorded
    /// for `join` and the pool counter is **always** decremented — a
    /// panicking task (stolen or not) must never leave a joiner waiting
    /// forever.
    fn run_task(&self, task: Task) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
            self.shared.record_panic(p);
        }
        self.shared.finish_one();
    }
}

/// Main loop of worker `index`: claim work; otherwise park on the idle
/// condvar until an enqueue (or shutdown) wakes it.
fn worker_loop(core: Arc<PoolCore>, index: usize) {
    WORKER_CTX.with(|c| *c.borrow_mut() = Some((Arc::downgrade(&core), index)));
    loop {
        if let Some(task) = core.find_task(Some(index)) {
            core.run_task(task);
            continue;
        }
        if core.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Park. The sleeper count is raised under the idle lock and the
        // re-check of `queued` happens before waiting, so an enqueue
        // that missed the sleeper in `notify_idle` is seen here (both
        // counters are SeqCst — one side always observes the other).
        let mut guard = core.idle_lock.lock();
        core.idle_sleepers.fetch_add(1, Ordering::SeqCst);
        if core.queued.load(Ordering::SeqCst) == 0 && !core.shutdown.load(Ordering::SeqCst) {
            core.idle_cv.wait(&mut guard);
        }
        core.idle_sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Native stack of every thread that runs interpreted code: each pool
/// worker and the thread `purec` runs a program on. The interpreters
/// recurse on the native stack, one group of frames per interpreted
/// call, so this constant — not the platform's 2 MB thread default or
/// the 8 MB main-thread limit — is what bounds the call depth a run can
/// reach without overflowing (`cinterp::MAX_CALL_DEPTH` is derived from
/// it). The pages are reserved, not touched: a thread pays for the
/// depth it uses.
pub const STACK_SIZE: usize = 64 << 20;

/// Persistent thread pool with deterministic worker → socket placement
/// and per-worker work-stealing deques.
pub struct ThreadPool {
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
    placements: Vec<Placement>,
}

impl ThreadPool {
    /// Create a pool of `nthreads` workers distributed over `sockets`
    /// sockets with `cores_per_socket` cores each, filling socket 0 first
    /// (the `numactl` compact policy used in the paper's runs).
    pub fn new(nthreads: usize, sockets: usize, cores_per_socket: usize) -> Self {
        let nthreads = nthreads.max(1);
        let core = Arc::new(PoolCore {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..nthreads).map(|_| WorkDeque::new()).collect(),
            exposed: (0..nthreads)
                .map(|_| Arc::new(AtomicUsize::new(0)))
                .collect(),
            queued: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            idle_sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            shared: Completion::new(),
            steals: AtomicU64::new(0),
            local_pushes: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(nthreads);
        let mut placements = Vec::with_capacity(nthreads);
        for w in 0..nthreads {
            let vcore = w % (sockets * cores_per_socket).max(1);
            let socket = vcore / cores_per_socket.max(1);
            placements.push(Placement {
                worker: w,
                core: vcore,
                socket,
            });
            let core = Arc::clone(&core);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("omprt-{w}"))
                    .stack_size(STACK_SIZE)
                    .spawn(move || worker_loop(core, w))
                    .expect("spawn pool worker"),
            );
        }
        ThreadPool {
            core,
            workers,
            placements,
        }
    }

    pub fn len(&self) -> usize {
        self.workers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Placement table (worker index → virtual core/socket).
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of submitted tasks not yet finished (queued **or** running)
    /// across every generation — the saturation signal external future
    /// spawns throttle on.
    pub fn pending_tasks(&self) -> usize {
        self.core.shared.pending.load(Ordering::Acquire)
    }

    /// Work-stealing statistics (monotonic process-lifetime totals).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks_stolen: self.core.steals.load(Ordering::Relaxed),
            local_pushes: self.core.local_pushes.load(Ordering::Relaxed),
        }
    }

    /// Worker index of the current thread **within this pool**, or
    /// `None` when called from an external thread (or a worker of a
    /// different pool). Spawn admission asks this at every spawn site, so
    /// it compares allocation addresses instead of upgrading the `Weak`:
    /// no reference count — a cache line every thread would write — is
    /// touched. The `Weak` keeps its allocation from being reused, and
    /// `self.core` is alive, so equal addresses mean the same pool.
    pub fn current_worker(&self) -> Option<usize> {
        WORKER_CTX.with(|c| {
            let b = c.borrow();
            let (weak, i) = b.as_ref()?;
            std::ptr::eq(weak.as_ptr(), Arc::as_ptr(&self.core)).then_some(*i)
        })
    }

    /// Number of *exposed* futures of the current worker — pushed onto
    /// its deque, not yet claimed by any executor nor revoked by their
    /// awaiter — when this thread is a worker of this pool. The local
    /// spawn throttle's signal.
    pub fn local_depth(&self) -> Option<usize> {
        self.current_worker()
            .map(|i| self.core.exposed[i].load(Ordering::Relaxed))
    }

    /// Exposure counter of the current worker, for the futures layer:
    /// incremented at local spawn, decremented exactly once per future
    /// at claim or at cancellation.
    pub(crate) fn exposure_handle(&self) -> Option<Arc<AtomicUsize>> {
        self.current_worker()
            .map(|i| Arc::clone(&self.core.exposed[i]))
    }

    /// Number of distinct sockets the first `n` workers span.
    pub fn sockets_spanned(&self, n: usize) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for p in self.placements.iter().take(n) {
            set.insert(p.socket);
        }
        set.len().max(1)
    }

    /// Route a raw task: the submitting worker's own deque when called
    /// from a worker of this pool, the injector otherwise. The pool
    /// counter has already been incremented by the caller.
    fn push_task(&self, task: Task, allow_local: bool) {
        match if allow_local {
            self.current_worker()
        } else {
            None
        } {
            Some(i) => self.core.enqueue_local(i, task),
            None => self.core.enqueue_injector(task),
        }
    }

    /// Submit one task. From a pool worker this pushes onto the worker's
    /// own deque (stolen by idle siblings); from any other thread it
    /// goes through the shared injector.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.core.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.push_task(Box::new(f), true);
    }

    /// Open a new task generation (one parallel region's worth of tasks).
    pub fn group(&self) -> TaskGroup {
        TaskGroup {
            shared: Arc::new(Completion::new()),
        }
    }

    /// Submit one task counted against `group` (and against the pool),
    /// routed like [`ThreadPool::submit`] — local deque from a worker,
    /// injector otherwise. A panic in `f` is caught, recorded on the
    /// group, and re-raised by [`ThreadPool::join_group`].
    pub fn submit_to<F: FnOnce() + Send + 'static>(&self, group: &TaskGroup, f: F) {
        self.submit_grouped(group, f, true);
    }

    /// [`ThreadPool::submit_to`] forced through the shared injector even
    /// from a pool worker: what `PureFuture::spawn(_, false, _)` uses
    /// (see there for why it still exists).
    pub fn submit_to_shared<F: FnOnce() + Send + 'static>(&self, group: &TaskGroup, f: F) {
        self.submit_grouped(group, f, false);
    }

    fn submit_grouped<F: FnOnce() + Send + 'static>(
        &self,
        group: &TaskGroup,
        f: F,
        allow_local: bool,
    ) {
        group.shared.pending.fetch_add(1, Ordering::AcqRel);
        let gs = Arc::clone(&group.shared);
        self.core.shared.pending.fetch_add(1, Ordering::AcqRel);
        self.push_task(
            Box::new(move || {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                    // Injected panics land inside the task's unwind scope,
                    // so they are recorded on the group exactly like a
                    // genuine task panic.
                    #[cfg(feature = "fault-inject")]
                    crate::fault::maybe_panic();
                    f()
                })) {
                    gs.record_panic(p);
                }
                gs.finish_one();
            }),
            allow_local,
        );
    }

    /// Wait until every task of `group` has completed, without re-raising
    /// panics. The joiner *helps*: it claims queued tasks — own deque
    /// when it is a worker of this pool, then the injector, then steals;
    /// every claim is global progress — instead of blocking. Nested
    /// regions and futures therefore cannot deadlock a fully-occupied
    /// pool, and an external caller executes its own share of the region
    /// it forked instead of sleeping through it. Once every queue scans
    /// empty, the joiner parks on the group's condvar rather than burning
    /// a core through the stragglers' tail: every task of this group was
    /// enqueued before the join began, so after an all-queues-empty
    /// observation the group's outstanding tasks are all *in flight* on
    /// other threads — parking cannot strand a group task in a queue, and
    /// `finish_one` notifies under the lock. The argument is the same for
    /// a worker, for an external thread and for a worker of a *different*
    /// pool (the latter two just have no own deque here).
    ///
    /// Returns whether this join actually *helped* — executed at least
    /// one queued task while waiting.
    pub fn wait_group(&self, group: &TaskGroup) -> bool {
        let me = self.current_worker();
        let mut helped = false;
        let mut idle_polls = 0u32;
        while group.shared.pending.load(Ordering::Acquire) != 0 {
            match self.core.find_task(me) {
                Some(task) => {
                    self.core.run_task(task);
                    helped = true;
                    idle_polls = 0;
                }
                None if idle_polls < 64 => {
                    idle_polls += 1;
                    std::thread::yield_now();
                }
                None => {
                    let mut guard = group.shared.lock.lock();
                    if group.shared.pending.load(Ordering::Acquire) != 0 {
                        group.shared.cv.wait(&mut guard);
                    }
                    drop(guard);
                    idle_polls = 0;
                }
            }
        }
        helped
    }

    /// [`ThreadPool::wait_group`], then re-raise the first panic any task
    /// of the group produced. Returns [`ThreadPool::wait_group`]'s
    /// helped flag.
    pub fn join_group(&self, group: &TaskGroup) -> bool {
        let helped = self.wait_group(group);
        group.shared.rethrow();
        helped
    }

    /// Block until every submitted task has completed, then re-raise the
    /// first panic a task produced (if any). Never hangs on a panicking
    /// task: workers decrement the counter on the unwind path too.
    pub fn join(&self) {
        self.core.shared.wait();
        self.core.shared.rethrow();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Wait without re-raising: panicking inside `drop` would abort.
        // Every queue is empty once pending reaches zero, so workers
        // observe the shutdown flag on their next idle pass.
        self.core.shared.wait();
        self.core.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.core.idle_lock.lock();
            self.core.idle_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide pool
// ---------------------------------------------------------------------------

/// The process-wide pool behind `parallel_for_pooled` regions. Created
/// lazily on first use and grown (replaced by a larger pool) when a region
/// requests more threads than the current pool plus its caller supply;
/// regions hold an
/// `Arc`, so a superseded pool drains its in-flight work before its
/// workers exit. Placement uses the paper machine's 4 × 16 geometry.
static GLOBAL_POOL: RwLock<Option<Arc<ThreadPool>>> = RwLock::new(None);

/// Shared persistent pool behind an `nthreads`-thread run. The thread
/// that forks a region or awaits a future is thread 0 of the team (its
/// join helps, see [`ThreadPool::wait_group`]), so the pool holds at
/// least `nthreads − 1` workers — and never fewer than one.
pub fn global_pool(nthreads: usize) -> Arc<ThreadPool> {
    let workers = nthreads.saturating_sub(1).max(1);
    {
        let g = GLOBAL_POOL.read();
        if let Some(p) = g.as_ref() {
            if p.len() >= workers {
                return Arc::clone(p);
            }
        }
    }
    let mut g = GLOBAL_POOL.write();
    if let Some(p) = g.as_ref() {
        if p.len() >= workers {
            return Arc::clone(p);
        }
    }
    let p = Arc::new(ThreadPool::new(workers, 4, 16));
    *g = Some(Arc::clone(&p));
    p
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    /// Wrap `f` so that it announces its own start, and return with it a
    /// function that spins until that announcement.
    pub(crate) fn announcing_start<T, F>(f: F) -> (impl FnOnce() -> T + Send, impl FnOnce())
    where
        F: FnOnce() -> T + Send,
    {
        let started = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&started);
        let wrapped = move || {
            s.store(true, Ordering::Release);
            f()
        };
        let wait_started = move || {
            while !started.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        (wrapped, wait_started)
    }

    /// Submit `f` to `group` and return once a **worker** is running it.
    /// An external thread claims tasks only inside a join, so a task that
    /// started before the submitter's join began cannot be on the caller —
    /// tests that need "this closure ran on a worker" go through here
    /// instead of assuming the caller sleeps.
    pub(crate) fn submit_to_worker<F>(pool: &ThreadPool, group: &TaskGroup, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let (f, wait_started) = announcing_start(f);
        pool.submit_to(group, f);
        wait_started();
    }

    /// Park every worker of `pool` on a channel receive; they resume when
    /// the returned sender is dropped. Until then only a helping joiner
    /// can execute tasks.
    pub(crate) fn block_workers(pool: &ThreadPool) -> mpsc::Sender<()> {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let idle = pool.group();
        for _ in 0..pool.len() {
            let rx = Arc::clone(&rx);
            submit_to_worker(pool, &idle, move || {
                // Errors once the sender is dropped: the release signal.
                let _ = rx.lock().unwrap().recv();
            });
        }
        tx
    }

    /// Spin (without joining, so without helping) until `group` is done.
    pub(crate) fn spin_until_complete(group: &TaskGroup) {
        while !group.is_complete() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn executes_all_tasks() {
        let pool = ThreadPool::new(4, 4, 16);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn join_with_no_tasks_returns() {
        let pool = ThreadPool::new(2, 1, 2);
        pool.join();
        pool.join();
    }

    #[test]
    fn placements_fill_sockets_compactly() {
        let pool = ThreadPool::new(64, 4, 16);
        assert_eq!(pool.len(), 64);
        assert_eq!(pool.placements()[0].socket, 0);
        assert_eq!(pool.placements()[15].socket, 0);
        assert_eq!(pool.placements()[16].socket, 1);
        assert_eq!(pool.placements()[63].socket, 3);
        assert_eq!(pool.sockets_spanned(8), 1);
        assert_eq!(pool.sockets_spanned(16), 1);
        assert_eq!(pool.sockets_spanned(17), 2);
        assert_eq!(pool.sockets_spanned(64), 4);
    }

    #[test]
    fn reuse_across_generations() {
        let pool = ThreadPool::new(4, 1, 4);
        let counter = Arc::new(AtomicU64::new(0));
        for _round in 0..5 {
            for _ in 0..20 {
                let c = Arc::clone(&counter);
                pool.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.join();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    /// Regression: a panicking task used to kill its worker *before* the
    /// pending counter was decremented, so `join` hung forever. Now the
    /// unwind is caught, the counter always reaches zero, and the panic
    /// resurfaces on the joining thread — after which the pool is still
    /// fully usable.
    #[test]
    fn join_propagates_task_panic_and_pool_survives() {
        let pool = ThreadPool::new(2, 1, 2);
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        pool.submit(|| panic!("task boom"));
        let joined = catch_unwind(AssertUnwindSafe(|| pool.join()));
        let payload = joined.expect_err("join must re-raise the task panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "task boom");
        // The panic is consumed: the pool keeps working and joins cleanly.
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(10, Ordering::Relaxed);
        });
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 11);
    }

    #[test]
    fn group_join_waits_for_its_generation_only() {
        let pool = ThreadPool::new(2, 1, 2);
        let counter = Arc::new(AtomicU64::new(0));
        let g1 = pool.group();
        let g2 = pool.group();
        // A long-running task in another generation must not block g1.
        // It is pinned to a worker first: the helping join below must not
        // pick up a task only this thread can release.
        let gate = Arc::new(AtomicU64::new(0));
        let gate2 = Arc::clone(&gate);
        submit_to_worker(&pool, &g2, move || {
            while gate2.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
        });
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.submit_to(&g1, move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.join_group(&g1);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        gate.store(1, Ordering::Release);
        pool.join_group(&g2);
    }

    #[test]
    fn group_join_propagates_panic() {
        let pool = ThreadPool::new(2, 1, 2);
        let g = pool.group();
        pool.submit_to(&g, || panic!("group boom"));
        let joined = catch_unwind(AssertUnwindSafe(|| pool.join_group(&g)));
        assert!(joined.is_err());
        // The pool-level join stays clean: group panics belong to groups.
        pool.join();
    }

    /// Nested generations on a single-worker pool: without the helping
    /// join this deadlocks (the lone worker would block waiting for a
    /// subtask that can only run on itself). The inner submits land on
    /// the worker's own deque and its helping join pops them back. The
    /// external thread stays out of it (no join until the outer task is
    /// done), so the worker's own help is the only way through.
    #[test]
    fn nested_group_join_from_worker_helps_instead_of_deadlocking() {
        let pool = Arc::new(ThreadPool::new(1, 1, 1));
        let outer = pool.group();
        let result = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let r2 = Arc::clone(&result);
        submit_to_worker(&pool, &outer, move || {
            let inner = p2.group();
            for _ in 0..4 {
                let r = Arc::clone(&r2);
                p2.submit_to(&inner, move || {
                    r.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert!(p2.join_group(&inner), "the worker's join must help");
            r2.fetch_add(100, Ordering::Relaxed);
        });
        spin_until_complete(&outer);
        pool.join_group(&outer);
        assert_eq!(result.load(Ordering::Relaxed), 104);
        assert!(pool.stats().local_pushes >= 4, "{:?}", pool.stats());
    }

    /// The helping join's parking path: the joining worker scans every
    /// queue empty, then must *park* (not spin) while the group's last
    /// task straggles on another worker — and still wake at completion.
    #[test]
    fn worker_join_parks_through_straggler_tail() {
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        let outer = pool.group();
        let done = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let d2 = Arc::clone(&done);
        submit_to_worker(&pool, &outer, move || {
            let inner = p2.group();
            let d3 = Arc::clone(&d2);
            p2.submit_to(&inner, move || {
                std::thread::sleep(std::time::Duration::from_millis(40));
                d3.fetch_add(1, Ordering::Relaxed);
            });
            // Let the second worker steal the inner task, so this join
            // sees empty queues with one in-flight straggler and must
            // take the parked path (spin budget << 40ms of sleeping).
            std::thread::sleep(std::time::Duration::from_millis(5));
            p2.join_group(&inner);
            d2.fetch_add(10, Ordering::Relaxed);
        });
        pool.join_group(&outer);
        assert_eq!(done.load(Ordering::Relaxed), 11);
    }

    /// Local pushes from a busy worker are stolen by its idle siblings:
    /// one worker floods its own deque while blocked, the others must
    /// drain it through the steal path (the external thread joins only
    /// afterwards, so every thief is a worker).
    #[test]
    fn idle_workers_steal_from_a_busy_sibling() {
        let pool = Arc::new(ThreadPool::new(4, 1, 4));
        let before = pool.stats();
        let outer = pool.group();
        let executed = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let e2 = Arc::clone(&executed);
        submit_to_worker(&pool, &outer, move || {
            let inner = p2.group();
            for _ in 0..32 {
                let e = Arc::clone(&e2);
                p2.submit_to(&inner, move || {
                    e.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            }
            // Hold this worker hostage until the siblings finish the
            // inner generation: every inner task they ran was a steal.
            while !inner.is_complete() {
                std::thread::yield_now();
            }
            p2.join_group(&inner);
        });
        spin_until_complete(&outer);
        pool.join_group(&outer);
        assert_eq!(executed.load(Ordering::Relaxed), 32);
        let after = pool.stats();
        assert!(
            after.tasks_stolen > before.tasks_stolen,
            "siblings must have stolen: {before:?} -> {after:?}"
        );
        assert!(after.local_pushes >= before.local_pushes + 32);
    }

    /// Regression (work-stealing rework): a panic inside a task that was
    /// *stolen* from a worker's deque — by the sibling worker or by the
    /// helping caller, whoever gets there first — must re-raise at the
    /// group join — not kill the thief, not hang the owner — and the pool
    /// must stay fully usable afterwards.
    #[test]
    fn panic_in_stolen_task_reraises_at_join_and_pool_survives() {
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        let outer = pool.group();
        let p2 = Arc::clone(&pool);
        let saw_panic = Arc::new(AtomicU64::new(0));
        let sp = Arc::clone(&saw_panic);
        submit_to_worker(&pool, &outer, move || {
            let inner = p2.group();
            // Local push; this worker then refuses to pop, so only a
            // steal can run it.
            p2.submit_to(&inner, || panic!("stolen boom"));
            while !inner.is_complete() {
                std::thread::yield_now();
            }
            let joined = catch_unwind(AssertUnwindSafe(|| p2.join_group(&inner)));
            if joined.is_err() {
                sp.fetch_add(1, Ordering::Relaxed);
            }
        });
        pool.join_group(&outer);
        assert_eq!(
            saw_panic.load(Ordering::Relaxed),
            1,
            "stolen task's panic must re-raise at the group join"
        );
        assert!(pool.stats().tasks_stolen >= 1, "{:?}", pool.stats());
        // The pool survives: a fresh generation completes cleanly.
        let g = pool.group();
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        pool.submit_to(&g, move || {
            c.fetch_add(7, Ordering::Relaxed);
        });
        pool.join_group(&g);
        assert_eq!(counter.load(Ordering::Relaxed), 7);
        pool.join();
    }

    #[test]
    fn submit_to_shared_bypasses_the_local_deque() {
        let pool = Arc::new(ThreadPool::new(2, 1, 2));
        let before = pool.stats().local_pushes;
        let outer = pool.group();
        let p2 = Arc::clone(&pool);
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        pool.submit_to_shared(&outer, move || {
            let inner = p2.group();
            for _ in 0..8 {
                let c = Arc::clone(&c2);
                p2.submit_to_shared(&inner, move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            p2.join_group(&inner);
        });
        pool.join_group(&outer);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert_eq!(
            pool.stats().local_pushes,
            before,
            "shared submits must not touch the deques"
        );
    }

    #[test]
    fn global_pool_is_shared_and_grows() {
        // The caller is thread 0 of an n-thread team: n − 1 workers.
        let a = global_pool(2);
        assert!(!a.is_empty());
        let b = global_pool(1);
        assert!(Arc::ptr_eq(&a, &b) || !b.is_empty());
        let same = global_pool(a.len() + 1);
        assert!(same.len() >= a.len());
        let c = global_pool(same.len() + 2);
        assert!(c.len() > same.len());
        let group = c.group();
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let k = Arc::clone(&counter);
            c.submit_to(&group, move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        c.join_group(&group);
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    // -- the external joiner is thread 0 of the team -------------------------

    /// With its only worker parked on a channel, a 1-worker pool still
    /// completes a 2-task group: the external joiner ran the tasks.
    #[test]
    fn external_joiner_runs_tasks_when_the_worker_is_blocked() {
        let pool = ThreadPool::new(1, 1, 1);
        let release = block_workers(&pool);
        let g = pool.group();
        let me = std::thread::current().id();
        let ran_here = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let r = Arc::clone(&ran_here);
            pool.submit_to(&g, move || {
                if std::thread::current().id() == me {
                    r.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        assert!(pool.join_group(&g), "the join must report that it helped");
        assert_eq!(ran_here.load(Ordering::Relaxed), 2);
        drop(release);
        pool.join();
    }

    /// A panic in a task *run by the caller* surfaces at `join_group` and
    /// nowhere earlier — `wait_group`, which executes the task on this
    /// very thread, returns normally — and the pool stays reusable.
    #[test]
    fn panic_in_caller_run_task_reraises_at_join_only() {
        let pool = ThreadPool::new(1, 1, 1);
        let release = block_workers(&pool);
        let g = pool.group();
        let counter = Arc::new(AtomicU64::new(0));
        pool.submit_to(&g, || panic!("caller boom"));
        let c = Arc::clone(&counter);
        pool.submit_to(&g, move || {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert!(pool.wait_group(&g), "the caller ran both tasks");
        assert_eq!(
            counter.load(Ordering::Relaxed),
            1,
            "the sibling task still ran"
        );
        let payload = catch_unwind(AssertUnwindSafe(|| pool.join_group(&g)))
            .expect_err("join_group must re-raise the task panic");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("caller boom"));
        // Consumed: the same group joins cleanly now, and so does a fresh
        // one — on the caller, then (worker released) on whoever claims it.
        pool.join_group(&g);
        let mut release = Some(release);
        for _ in 0..2 {
            let g2 = pool.group();
            let c = Arc::clone(&counter);
            pool.submit_to(&g2, move || {
                c.fetch_add(10, Ordering::Relaxed);
            });
            pool.join_group(&g2);
            release.take();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 21);
        pool.join();
    }

    /// A task the caller runs while helping may itself fork and join a
    /// nested generation: the nested join helps on the same thread.
    #[test]
    fn caller_run_task_joins_a_nested_group_without_deadlock() {
        let pool = Arc::new(ThreadPool::new(1, 1, 1));
        let release = block_workers(&pool);
        let outer = pool.group();
        let total = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let t2 = Arc::clone(&total);
        pool.submit_to(&outer, move || {
            let inner = p2.group();
            for i in 1..=4 {
                let t = Arc::clone(&t2);
                p2.submit_to(&inner, move || {
                    t.fetch_add(i, Ordering::Relaxed);
                });
            }
            assert!(p2.join_group(&inner));
            t2.fetch_add(100, Ordering::Relaxed);
        });
        pool.join_group(&outer);
        assert_eq!(total.load(Ordering::Relaxed), 110);
        assert_eq!(pool.stats().local_pushes, 0, "the caller owns no deque");
        drop(release);
        pool.join();
    }
}
