//! The bytecode VM: third (and fastest) execution tier.
//!
//! Executes the flat instruction arrays produced by [`crate::bytecode`]
//! over NaN-boxed [`Packed`] operands. Five structural choices give this
//! tier its speed over the resolved tree-walker:
//!
//! * **Flat dispatch** — one `loop { match op }` over a contiguous
//!   `Vec<Insn>` replaces recursive `exec`/`eval` descent through
//!   `Box`-linked trees; jumps assign the program counter.
//! * **NaN-boxed frames** — locals, operands and globals are single
//!   `u64` words ([`crate::value::Packed`]), so frames are half the size
//!   of `Scalar` frames and a parallel iteration's private frame setup
//!   is one flat `u64` copy out of a shared snapshot.
//! * **Bump-arena frames** — call frames live in one growing
//!   `Vec<Packed>` per VM (extend on call, truncate on return) instead
//!   of a fresh `Vec` allocation per call; each parallel **worker** owns
//!   one arena reused across every iteration it executes, and regions
//!   run on the persistent process-wide thread pool
//!   ([`machine::parallel_for_state_pooled`]).
//! * **Thread-local accounting** — executed-operation counters are plain
//!   [`Tally`] fields flushed into the shared atomics once per worker at
//!   region join (and once at run end), and the pure-call memo cache is
//!   a per-worker **shard** over a frozen snapshot of the parent's
//!   entries, merged at join — no lock traffic inside the loop.
//! * **A dispatch pays for the statement, not for the bookkeeping** —
//!   the statement tick rides on the statement's first instruction
//!   ([`Insn::tick`], set by `crate::opt`) instead of being a dispatch
//!   of its own; the fast paths (int · int, float · float on `+ − × ÷`,
//!   the tick's count and compares, `++`, loads and stores) are
//!   `#[inline(always)]` into the loop, and everything else — mixed
//!   operands, pointer arithmetic, race tracking, the memory-ceiling
//!   arithmetic, every error constructor, every arm no inner loop lives
//!   in — sits behind one `#[inline(never)]` call. An int past ±2⁴⁷ is
//!   still an int: a spilled `Scalar::I` resolves through the pool to the
//!   same `int_binop`, and its result is spilled once.
//!
//! One policy lives here and nowhere else: **a region forks only when its
//! work can repay the fork.** Lowering gives every region a per-iteration
//! dispatch bound (`BRegion::work`: the body's length when it is
//! straight-line, unbounded otherwise), and the launch protocol
//! ([`region::launch`]) runs a region of `n` iterations with `n × work`
//! below [`REGION_INLINE_WORK`] on the caller — the `--threads 1` path,
//! OpenMP `if` semantics — and every other region at `--threads`. The
//! oracles supply no bound and fork every region; the choice changes no
//! observable but
//! `regions_forked`/`regions_inline` and the trace's worker spans.
//!
//! Observable behaviour (exit code, output, executed-op counters modulo
//! memo statistics, error messages) is bit-identical to the resolved
//! engine, which serves as this tier's differential oracle exactly as the
//! legacy tree-walker served the resolved engine. One documented
//! scheduling difference: memo shards mean parallel workers do not see
//! each other's in-flight inserts, so `memo_hits`/`memo_misses` may split
//! differently across a parallel region than under the resolved engine's
//! single locked cache (the differential tests compare counters modulo
//! memo for exactly this reason).

use crate::builtins::{call_builtin, format_printf};
use crate::bytecode::{
    binop_decode, coerce_decode, BFunc, BRegion, BSpawn, BytecodeProgram, Insn, Op,
};
use crate::cache::{ClockCache, MemoKey};
use crate::interp::{
    check_call_depth, next_fuel_block, InterpOptions, RunResult, RuntimeError, Trap,
};
use crate::ops::{self, Coerce, Counted};
use crate::region::{self, Launch, Worker as _};
use crate::resolve::{MemoCache, MEMO_CAPACITY};
use crate::value::{
    Counters, FuelBudget, GlobalTable, Memory, Packed, Ptr, Scalar, SpillPool, Tally, TrackSets,
};
use cfront::ast::BinOp;
use cfront::intern::Symbol;
use cfront::span::Span;
use machine::omprt::instrument;
use machine::{global_pool, PureFuture, ThreadPool};
use parking_lot::Mutex;
use std::sync::Arc;

type RtResult<T> = Result<T, RuntimeError>;

/// The work, in dispatches (`n × BRegion::work`), below which a region
/// runs on the caller instead of forking. Break-even is where the work
/// the other `T − 1` threads take off the caller, `work × (T − 1)/T`,
/// pays for the launch: `launch ÷ ns per dispatch × T/(T − 1)`. On a
/// 2-CPU x86-64 host the pool's bare launch (`region_launch_us`) is
/// 2.3 µs, and a VM fork adds a child VM per worker, the frame copy and
/// the join's merge — ≈ 8 µs in all — at ≈ 9 ns a dispatch: 900
/// dispatches, × 2 at T = 2, ≈ 1 800. Measured there, a 4-dispatch body
/// loses on two threads at 256 iterations and breaks even at about 512:
/// 2 048 dispatches.
pub const REGION_INLINE_WORK: u64 = 2048;

/// Integer semantics of a binary operator: wrapping arithmetic,
/// `Err(message)` for a zero divisor. The VM's inline int paths call it
/// directly; it is also the integer half of [`ops::binop`], which every
/// other route (the slow halves here, the two oracles, the constant
/// folder) answers through.
#[inline(always)]
pub(crate) fn int_arith(op: BinOp, a: i64, b: i64) -> Result<i64, &'static str> {
    use BinOp::*;
    Ok(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                return Err("integer division by zero");
            }
            a.wrapping_div(b)
        }
        Rem => {
            if b == 0 {
                return Err("integer modulo by zero");
            }
            a.wrapping_rem(b)
        }
        Shl => a.wrapping_shl(b as u32),
        Shr => a.wrapping_shr(b as u32),
        Lt => i64::from(a < b),
        Gt => i64::from(a > b),
        Le => i64::from(a <= b),
        Ge => i64::from(a >= b),
        Eq => i64::from(a == b),
        Ne => i64::from(a != b),
        BitAnd => a & b,
        BitXor => a ^ b,
        BitOr => a | b,
        And | Or => unreachable!("lowered to jumps"),
    })
}

/// `+1` or `-1` of an `IncDec*` flags word.
#[inline(always)]
fn incdec_delta(flags: u32) -> i64 {
    if flags & 1 != 0 {
        1
    } else {
        -1
    }
}

// Error construction never happens on a path worth inlining: one call
// keeps the `String`, the `format!` machinery and the 40-byte error value
// out of the dispatch loop's frame.

#[cold]
#[inline(never)]
fn error_at(msg: &'static str, span: Span) -> RuntimeError {
    RuntimeError::at(msg, span)
}

#[cold]
#[inline(never)]
fn memory_limit_error(heap: u64, local: u64, limit: u64, span: Span) -> RuntimeError {
    RuntimeError::trap_at(
        Trap::MemoryLimit,
        format!(
            "memory limit exceeded: {heap} heap + {local} \
             interpreter bytes over the {limit}-byte cap"
        ),
        span,
    )
}

#[cold]
#[inline(never)]
fn mem_error(e: crate::value::MemError, span: Span) -> RuntimeError {
    RuntimeError::from_mem(e, span)
}

// ---------------------------------------------------------------------------
// Sharded pure-call memo cache
// ---------------------------------------------------------------------------

/// Bound on one worker's private memo shard. Kept below the process-wide
/// [`MEMO_CAPACITY`] so the state a region join must merge (and a
/// `freeze` must clone) stays small even on memo-heavy workloads.
pub(crate) const SHARD_CAPACITY: usize = MEMO_CAPACITY / 4;

/// The memo table type of the VM: every shard and every snapshot.
type Memo = ClockCache<MemoKey, Scalar>;

/// Per-worker view of the pure-call memo cache: a read-only frozen
/// snapshot shared by `Arc` plus a private bounded write shard, both
/// [`ClockCache`]s (so a long run recycles cold entries instead of
/// refusing new ones, and an entry is stored once, in its slot, in either
/// of them). Lookups probe the shard, then [`ClockCache::peek`] the
/// snapshot — no lock either way, and no write to the shared one. At a
/// parallel-region join the parent absorbs every worker's shard (see
/// [`MemoShard::absorb`]); a future hands its shard back by move.
/// Entering a region freezes the parent's merged view for the children.
pub(crate) struct MemoShard {
    frozen: Arc<Memo>,
    local: Memo,
}

impl MemoShard {
    fn new() -> Self {
        Self::with_frozen(Arc::new(ClockCache::new(MEMO_CAPACITY)))
    }

    fn with_frozen(frozen: Arc<Memo>) -> Self {
        MemoShard {
            frozen,
            local: ClockCache::new(SHARD_CAPACITY),
        }
    }

    #[inline]
    fn get(&mut self, key: &MemoKey) -> Option<Scalar> {
        if let Some(v) = self.local.get(key) {
            return Some(v);
        }
        self.frozen.peek(key)
    }

    /// Insert a result; returns `true` when a cold entry was evicted to
    /// make room (callers count it into `Tally::memo_evictions`).
    fn insert(&mut self, key: MemoKey, v: Scalar) -> bool {
        if !matches!(v, Scalar::I(_) | Scalar::F(_)) {
            return false;
        }
        self.local.insert(key, v)
    }

    /// Merged read-only snapshot handed to parallel children (region
    /// workers and spawned futures). The local shard is *promoted* into
    /// the shared `Arc` — but only once it has grown past a fraction of
    /// the frozen table, so spawn-heavy workloads don't clone the whole
    /// table per spawn site: a child may miss the most recent handful of
    /// inserts, which is already true of sibling shards (memo contents
    /// are best-effort; the differential projection excludes memo
    /// counts). Amortized, each entry is cloned O(1) times, and a clone
    /// is two flat vectors (slots and index). The frozen table holds at
    /// most [`MEMO_CAPACITY`] entries: promotion past the cap drops the
    /// excess (best-effort, like sibling-shard invisibility), so it never
    /// evicts and its reference bits are never read.
    fn freeze(&mut self) -> Arc<Memo> {
        if self.local.len() * 4 > self.frozen.len() + 64 {
            let mut merged = (*self.frozen).clone();
            for (k, v) in self.local.iter() {
                if merged.len() >= MEMO_CAPACITY {
                    break;
                }
                merged.insert(*k, *v);
            }
            self.frozen = Arc::new(merged);
            self.local = ClockCache::new(SHARD_CAPACITY);
        }
        Arc::clone(&self.frozen)
    }

    /// Fold a worker's shard back in at a region or future join; returns
    /// the number of entries evicted to make room. Into an empty view
    /// (nothing local, nothing frozen) the worker's table is adopted as
    /// it is, [`ClockCache::refilled`]: what inserting its entries one by
    /// one would build. Otherwise its entries are read where they lie.
    fn absorb(&mut self, other: Memo) -> u64 {
        if self.local.len() == 0 && self.frozen.len() == 0 {
            self.local = other.refilled();
            return 0;
        }
        let mut evicted = 0;
        for (k, v) in other.iter() {
            // Keep an existing entry (or-insert semantics: the local
            // value is at least as fresh as the worker's).
            if self.local.get(k).is_some() || self.frozen.peek(k).is_some() {
                continue;
            }
            if self.local.insert(*k, *v) {
                evicted += 1;
            }
        }
        evicted
    }
}

// ---------------------------------------------------------------------------
// VM state
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct VmShared {
    mem: Memory,
    counters: Arc<Counters>,
    /// Globals live in a lock-free [`GlobalTable`]: NaN-boxed words in
    /// atomic slots whose overflow entries sit in a *shared* append-only
    /// spill (per-VM [`SpillPool`] indices must never travel between
    /// VMs, shared-table indices are valid everywhere). Loads and stores
    /// are single atomic accesses; compound assigns and `++`/`--` go
    /// through a CAS loop so concurrent RMWs on one global cannot tear.
    globals: Arc<GlobalTable>,
    output: Arc<Mutex<String>>,
    /// One instruction budget shared by every thread of the run
    /// (region workers and pure-call futures included).
    fuel: Option<Arc<FuelBudget>>,
    opts: InterpOptions,
}

struct Vm<'p> {
    /// The program, **borrowed** for the VM's lifetime: the call path
    /// (`call_user` → `exec` → `exec_spawn`) reads it through this plain
    /// reference, so no reference count — one cache line shared by every
    /// thread of the run — is touched per call. The `Arc` behind it is
    /// cloned only where a `'static` task needs to own the program: once
    /// per future actually spawned.
    prog: &'p Arc<BytecodeProgram>,
    s: VmShared,
    /// Operand stack.
    stack: Vec<Packed>,
    /// Bump arena of call frames: extend on call, truncate on return.
    arena: Vec<Packed>,
    /// This VM's NaN-box overflow pool (single-owner, lock-free).
    spill: SpillPool,
    /// Entries below this index are an immutable prefix inherited from
    /// the parent VM of a parallel region; never truncated or compacted.
    spill_floor: usize,
    depth: usize,
    steps: u64,
    /// Locally-held fuel (dispatches left before a shared-budget
    /// refill); `u64::MAX` when no budget is configured, so the hot
    /// path is one predictable branch plus a decrement.
    fuel_local: u64,
    tally: Tally,
    memo: Option<MemoShard>,
    track: Option<TrackSets>,
    /// In-flight pure-call futures, keyed by *absolute* arena index of
    /// their target slot (the spawn analysis guarantees every batch is
    /// forced before its frame is left, so on success paths entries
    /// never dangle and the tail of this list always belongs to the
    /// innermost open batch). Entries carry plain `Scalar`s, never
    /// `Packed` words, so spill compaction stays oblivious to them.
    pending: PendingFutures,
    /// Cached handle of the process-wide pool (pure-call futures).
    futures_pool: Option<Arc<ThreadPool>>,
}

/// One in-flight pure call of this VM. `fid`/`args` duplicate what the
/// queued task owns so that a future revoked at its await
/// ([`PureFuture::cancel`]) can run as a plain inline call on this VM —
/// no child VM, no state merge.
struct VmPending {
    abs: usize,
    coerce: Coerce,
    fid: u32,
    args: Vec<Scalar>,
    fut: PureFuture<VmFutureOut>,
}

/// The VM's in-flight future list. On error paths — an await that
/// propagates a failure, a region worker whose iteration failed
/// mid-batch, or a VM abandoned with spawns in flight — the remaining
/// futures must be waited out, not leaked: an orphaned task would keep
/// occupying (and saturating) the *shared* process-wide pool after the
/// run failed, and a reused region-worker VM would find stale entries
/// whose slot indices alias the next iteration's frame. `Drop` covers
/// the abandonment paths; [`PendingFutures::drain`] the reuse path.
#[derive(Default)]
struct PendingFutures(Vec<VmPending>);

impl PendingFutures {
    /// Wait out every in-flight future, discarding results (error
    /// paths only — the run has already failed).
    fn drain(&mut self) {
        for p in self.0.drain(..) {
            let _ = p.fut.wait();
        }
    }
}

impl Drop for PendingFutures {
    fn drop(&mut self) {
        self.drain();
    }
}

/// What a spawned pure call hands back at its join: the value (or the
/// runtime error), the worker's private op tally, and its memo shard's
/// write table, moved out of the child — merged into the awaiting VM
/// exactly like a parallel-region worker's state is merged at region
/// join.
struct VmFutureOut {
    value: RtResult<Scalar>,
    tally: Tally,
    memo_local: Option<Memo>,
}

/// Execute one spawned pure call on its own child VM (fresh arena,
/// spill pool and tally; frozen memo snapshot; the spawner's call
/// `depth`, so the stack-overflow guard trips exactly where the inline
/// call would have). The callee is const-like — it touches no globals
/// and no `Memory` — so this is observationally the inline call, minus
/// *where* it runs.
fn run_future_task(
    prog: Arc<BytecodeProgram>,
    shared: VmShared,
    frozen: Option<Arc<Memo>>,
    fid: u32,
    args: Vec<Scalar>,
    depth: usize,
) -> VmFutureOut {
    let mut vm = Vm::new(&prog, shared);
    vm.memo = frozen.map(MemoShard::with_frozen);
    vm.depth = depth;
    for a in &args {
        let p = vm.pack(*a);
        vm.stack.push(p);
    }
    let value = match vm.call_user(fid, args.len(), Span::DUMMY) {
        Ok(()) => {
            let v = vm.pop();
            Ok(vm.unpack(v))
        }
        Err(e) => Err(e),
    };
    vm.refund_fuel();
    VmFutureOut {
        value,
        tally: vm.tally,
        memo_local: vm.memo.take().map(|m| m.local),
    }
}

/// Execute a bytecode program's entry function to completion.
pub(crate) fn run_vm(
    prog: &Arc<BytecodeProgram>,
    entry: &str,
    opts: InterpOptions,
) -> RtResult<RunResult> {
    let shared = VmShared {
        mem: Memory::with_limit(opts.max_memory_bytes),
        counters: Arc::new(Counters::new()),
        globals: Arc::new(GlobalTable::new(prog.nglobals)),
        output: Arc::new(Mutex::new(String::new())),
        fuel: opts.fuel.map(|f| Arc::new(FuelBudget::new(f))),
        opts,
    };
    let mut vm = Vm::new(prog, shared.clone());
    vm.memo =
        (opts.memo && prog.funcs.iter().any(|f| f.summary.spawn_heavy())).then(MemoShard::new);

    // Global initialisers run on an empty frame.
    vm.exec(&prog.global_code, 0, 0)?;
    debug_assert!(vm.stack.is_empty() || vm.stack.len() == 1);
    vm.stack.clear();

    let exit = match prog.by_name.get(entry) {
        Some(&fid) => {
            vm.call_user(fid, 0, Span::DUMMY)?;
            vm.stack.pop().expect("entry result")
        }
        None => {
            // Mirror the other engines: unknown entry falls through to
            // the builtin table, then errors.
            vm.tally.calls += 1;
            let v = call_builtin(entry, &[], &shared.mem, &shared.output, Span::DUMMY)?;
            vm.pack(v)
        }
    };
    let exit_code = vm.to_i64(exit);
    // Single flush of the root tally into the shared atomics.
    vm.tally.flush(&shared.counters);
    let output = shared.output.lock().clone();
    let counters = shared.counters.snapshot();
    Ok(RunResult {
        exit_code,
        output,
        counters,
        heap: shared.mem.stats(),
    })
}

impl<'p> Vm<'p> {
    fn new(prog: &'p Arc<BytecodeProgram>, s: VmShared) -> Self {
        let fuel_local = if s.fuel.is_some() { 0 } else { u64::MAX };
        Vm {
            prog,
            s,
            stack: Vec::with_capacity(32),
            arena: Vec::with_capacity(64),
            spill: SpillPool::new(),
            spill_floor: 0,
            depth: 0,
            steps: 0,
            fuel_local,
            tally: Tally::new(),
            memo: None,
            track: None,
            pending: PendingFutures::default(),
            futures_pool: None,
        }
    }

    /// Slow path of the dispatch loop's tick ([`next_fuel_block`]).
    #[cold]
    fn refill_fuel(&mut self, span: Span) -> RtResult<()> {
        self.fuel_local = next_fuel_block(&self.s.fuel, span)?;
        if self.s.fuel.is_some() {
            instrument::instant("fuel.refill", self.fuel_local);
        }
        Ok(())
    }

    /// Sampled memo-hit probe: hits are far too frequent for one event
    /// each (a memo-heavy run would blow the event buffers and the
    /// traced-overhead budget), so every 64th hit per worker emits one
    /// instant carrying the running total. One branch when tracing is
    /// off, like every probe site.
    #[inline(always)]
    fn probe_memo_hit(&self) {
        if instrument::enabled() && self.tally.memo_hits.is_multiple_of(64) {
            instrument::instant("memo.hit", self.tally.memo_hits);
        }
    }

    /// Compact the spill pool down to its live entries. Sound only at a
    /// statement boundary (or region entry): every live spill reference
    /// is then a word in `arena` or `stack` — region frame snapshots and
    /// memo entries hold unpacked `Scalar`s, and the spill words of
    /// globals and heap cells refer to their own overflow tables.
    /// The inherited `spill_floor` prefix is kept verbatim (a parallel
    /// child's frame template references it by index every iteration).
    fn compact_spills(&mut self) {
        let floor = self.spill_floor;
        let mut fresh = self.spill.prefix(floor);
        fresh.reserve(64);
        for word in self.arena.iter_mut().chain(self.stack.iter_mut()) {
            if let Some(idx) = word.spill_index() {
                if idx >= floor {
                    let v = self.spill.get_entry(idx);
                    *word = Packed::from_spill_index(fresh.len());
                    fresh.push(v);
                }
            }
        }
        self.spill.replace_entries(fresh);
    }

    #[inline]
    fn pack(&self, v: Scalar) -> Packed {
        Packed::pack(v, &self.spill)
    }

    #[inline]
    fn unpack(&self, p: Packed) -> Scalar {
        p.unpack(&self.spill)
    }

    #[inline]
    fn truthy(&self, p: Packed) -> bool {
        if let Some(i) = p.as_inline_int() {
            return i != 0;
        }
        match self.unpack(p) {
            Scalar::I(v) => v != 0,
            Scalar::F(f) => f != 0.0,
            Scalar::P(_) => true,
            Scalar::Null | Scalar::Uninit => false,
        }
    }

    #[inline]
    fn to_i64(&self, p: Packed) -> i64 {
        if let Some(i) = p.as_inline_int() {
            return i;
        }
        self.unpack(p).as_i64()
    }

    #[inline]
    fn pop(&mut self) -> Packed {
        self.stack.pop().expect("operand stack underflow")
    }

    // -- memory with tallies --------------------------------------------------

    /// Race-check bookkeeping of one access. Tracking is on only during
    /// the dynamic race check ([`region::launch`]), so the hash-set insert
    /// stays out of the dispatch loop's code.
    #[cold]
    #[inline(never)]
    fn track_access(&mut self, p: Ptr, write: bool) {
        if let Some(t) = &mut self.track {
            t.heap(p, write);
        }
    }

    /// [`Self::track_access`] for global slot `slot`.
    #[cold]
    #[inline(never)]
    fn track_global(&mut self, slot: u32, write: bool) {
        if let Some(t) = &mut self.track {
            t.global(slot as usize, write);
        }
    }

    /// A heap cell's word onto the operand stack: heap cells hold the
    /// same NaN-boxed words as frames, so only a spill-tagged cell (a wide
    /// value in its allocation's side table) converts, into this VM's
    /// spill pool.
    #[inline(always)]
    fn mem_load(&mut self, p: Ptr, span: impl Fn() -> Span) -> RtResult<Packed> {
        self.tally.loads += 1;
        if self.track.is_some() {
            self.track_access(p, false);
        }
        let pool = &self.spill;
        self.s
            .mem
            .load_word(p, |v| Packed::pack(v, pool))
            .map_err(|e| mem_error(e, span()))
    }

    /// An operand-stack word into a heap cell; a word referring to this
    /// VM's spill pool goes to the allocation's side table instead.
    #[inline(always)]
    fn mem_store(&mut self, p: Ptr, v: Packed, span: impl Fn() -> Span) -> RtResult<()> {
        self.tally.stores += 1;
        if self.track.is_some() {
            self.track_access(p, true);
        }
        let pool = &self.spill;
        self.s
            .mem
            .store_word(p, v, |w| w.unpack(pool))
            .map_err(|e| mem_error(e, span()))
    }

    /// Packed word → pointer for an indexing operation, with the shared
    /// "indexing a non-pointer value" error (`PtrIndex`, `LoadIdxLL`,
    /// `StoreIdxLL`).
    #[inline(always)]
    fn index_ptr(&self, v: Packed, span: impl Fn() -> Span) -> RtResult<Ptr> {
        self.expect_ptr(v, "indexing a non-pointer value", span)
    }

    /// Packed word → pointer; `None` when it holds anything else.
    #[inline(always)]
    fn as_ptr(&self, v: Packed) -> Option<Ptr> {
        v.as_inline_ptr().or_else(|| self.spilled_ptr(v))
    }

    /// Packed word → pointer, or the error `"{what} {value:?}"`.
    #[inline(always)]
    fn expect_ptr(&self, v: Packed, what: &'static str, span: impl Fn() -> Span) -> RtResult<Ptr> {
        match self.as_ptr(v) {
            Some(p) => Ok(p),
            None => Err(self.not_a_pointer(what, v, span())),
        }
    }

    /// A pointer too big for an inline word; `None` when the word is no
    /// pointer at all.
    #[cold]
    #[inline(never)]
    fn spilled_ptr(&self, v: Packed) -> Option<Ptr> {
        match self.unpack(v) {
            Scalar::P(p) => Some(p),
            _ => None,
        }
    }

    #[cold]
    #[inline(never)]
    fn not_a_pointer(&self, what: &str, v: Packed, span: Span) -> RuntimeError {
        RuntimeError::at(format!("{what} {:?}", self.unpack(v)), span)
    }

    /// Pop a value that the compiler guarantees is a pointer (produced by
    /// a `Ptr*` place instruction).
    #[inline(always)]
    fn pop_ptr(&mut self) -> Ptr {
        let v = self.pop();
        self.as_ptr(v)
            .unwrap_or_else(|| unreachable!("compiler emitted a non-pointer place: {v:?}"))
    }

    #[inline]
    fn coerce_packed(&self, c: Coerce, v: Packed) -> Packed {
        match c {
            Coerce::None => v,
            Coerce::ToFloat => match v.as_inline_int() {
                Some(i) => Packed::pack_f64(i as f64, &self.spill),
                None if v.as_inline_float().is_some() => v,
                None => self.coerce_slow(c, v),
            },
            Coerce::ToInt => match v.as_inline_float() {
                Some(f) => Packed::pack_i64(f as i64, &self.spill),
                None if v.as_inline_int().is_some() => v,
                None => self.coerce_slow(c, v),
            },
        }
    }

    /// Coercion of what is neither an inline int nor an inline float:
    /// spilled numbers convert, everything else passes.
    #[inline(never)]
    fn coerce_slow(&self, c: Coerce, v: Packed) -> Packed {
        match c.convert(self.unpack(v)) {
            Some(out) => self.pack(out),
            None => v,
        }
    }

    // -- operators ------------------------------------------------------------
    //
    // Fast paths are `#[inline(always)]` and hold only what the common
    // cases execute: int · int through `int_binop` (inline words, or wide
    // ints read out of the spill pool), inline float · inline float on
    // `+ − × ÷`. Everything else — pointers, mixed types, `Null` and
    // `Uninit` operands, error construction — sits behind one
    // `#[inline(never)]` call, so the dispatch loop pays no call, no
    // prologue and no `Result` round trip through memory for the
    // statement `a = a + b`.

    /// Integer operator on two `i64`s, inline or resolved through the
    /// spill pool alike ([`int_arith`], the table [`ops::binop`] calls);
    /// a wide result is spilled here, once.
    #[inline(always)]
    fn int_binop(
        &mut self,
        op: BinOp,
        a: i64,
        b: i64,
        span: impl Fn() -> Span,
    ) -> RtResult<Packed> {
        match int_arith(op, a, b) {
            Ok(out) => {
                self.tally.int_ops += 1;
                Ok(Packed::pack_i64(out, &self.spill))
            }
            Err(msg) => Err(error_at(msg, span())),
        }
    }

    /// `v` as an int operand: an inline word, or a wide int (past ±2⁴⁷
    /// it lives in the spill pool, and is still an int).
    #[inline(always)]
    fn int_operand(&self, v: Packed) -> Option<i64> {
        v.as_inline_int().or_else(|| self.spill.int_at(v))
    }

    #[inline(always)]
    fn binop(
        &mut self,
        op: BinOp,
        l: Packed,
        r: Packed,
        span: impl Fn() -> Span,
    ) -> RtResult<Packed> {
        // Inline ints first, then floats, then wide ints — the three
        // tests in the order programs meet them, with one copy of the
        // int operators behind the first and the last.
        let ints = match (l.as_inline_int(), r.as_inline_int()) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => {
                if let (Some(a), Some(b)) = (l.as_inline_float(), r.as_inline_float()) {
                    let out = match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                        _ => return self.binop_slow(op, l, r, span()),
                    };
                    self.tally.flops += 1;
                    return Ok(Packed::pack_f64(out, &self.spill));
                }
                self.int_operand(l).zip(self.int_operand(r))
            }
        };
        match ints {
            Some((a, b)) => self.int_binop(op, a, b, span),
            None => self.binop_slow(op, l, r, span()),
        }
    }

    #[inline(never)]
    fn binop_slow(&mut self, op: BinOp, l: Packed, r: Packed, span: Span) -> RtResult<Packed> {
        let lv = self.unpack(l);
        let rv = self.unpack(r);
        let s = self.apply_binop(op, lv, rv, span)?;
        Ok(self.pack(s))
    }

    /// `frame slot <op> constant`, the rhs of the `*LC` forms and of a
    /// constant affine bound.
    #[inline(always)]
    fn binop_const(
        &mut self,
        op: BinOp,
        x: Packed,
        cv: Scalar,
        span: impl Fn() -> Span,
    ) -> RtResult<Packed> {
        if let (Some(a), Scalar::I(b)) = (self.int_operand(x), cv) {
            return self.int_binop(op, a, b, span);
        }
        self.binop_const_slow(op, x, cv, span())
    }

    #[inline(never)]
    fn binop_const_slow(
        &mut self,
        op: BinOp,
        x: Packed,
        cv: Scalar,
        span: Span,
    ) -> RtResult<Packed> {
        let xv = self.unpack(x);
        let s = self.apply_binop(op, xv, cv, span)?;
        Ok(self.pack(s))
    }

    /// Book an [`ops`] result on this VM's tally.
    #[inline]
    fn counted(&mut self, (v, counted): (Scalar, Counted)) -> Scalar {
        match counted {
            Counted::None => {}
            Counted::Int => self.tally.int_ops += 1,
            Counted::Float => self.tally.flops += 1,
        }
        v
    }

    /// [`ops::binop`] with this VM's error type and tally.
    #[inline(never)]
    fn apply_binop(&mut self, op: BinOp, lv: Scalar, rv: Scalar, span: Span) -> RtResult<Scalar> {
        match ops::binop(op, lv, rv) {
            Ok(out) => Ok(self.counted(out)),
            Err(msg) => Err(error_at(msg, span)),
        }
    }

    /// `++`/`--` value transition (shared by the three `IncDec*` ops and
    /// `AffineNext`).
    #[inline(always)]
    fn incdec(&mut self, old: Packed, flags: u32) -> Packed {
        match old.as_inline_int() {
            Some(i) => {
                self.tally.int_ops += 1;
                Packed::pack_i64(i.wrapping_add(incdec_delta(flags)), &self.spill)
            }
            None => self.incdec_slow(old, flags),
        }
    }

    #[inline(never)]
    fn incdec_slow(&mut self, old: Packed, flags: u32) -> Packed {
        let new = self.counted(ops::incdec(self.unpack(old), incdec_delta(flags)));
        self.pack(new)
    }

    /// Arithmetic negate of anything but an inline int.
    #[inline(never)]
    fn neg_slow(&mut self, v: Packed) -> Packed {
        let out = self.counted(ops::neg(self.unpack(v)));
        self.pack(out)
    }

    // -- calls ----------------------------------------------------------------

    fn call_user(&mut self, fid: u32, nargs: usize, span: Span) -> RtResult<()> {
        self.tally.calls += 1;
        check_call_depth(&self.s.opts, self.depth, span)?;
        let prog: &'p BytecodeProgram = self.prog;
        let func = &prog.funcs[fid as usize];

        // Bind (coerced) arguments into a fresh arena frame.
        let fbase = self.arena.len();
        self.arena.resize(fbase + func.frame_size, Packed::UNINIT);
        let argbase = self.stack.len() - nargs;
        for (i, &(slot, co)) in func.params.iter().enumerate() {
            if i >= nargs {
                break;
            }
            let v = self.coerce_packed(co, self.stack[argbase + i]);
            self.arena[fbase + slot as usize] = v;
        }
        self.stack.truncate(argbase);

        // Pure-call memoization against this worker's shard: const ∧
        // heavy callees only (a probe costs more than a leaf's body), the
        // key built in place from the bound parameter slots.
        let memo_key = if func.summary.spawn_heavy() && self.memo.is_some() {
            let nkey = func.params.len().min(func.frame_size);
            let spill = &self.spill;
            let bound = self.arena[fbase..fbase + nkey].iter();
            MemoKey::new(fid, bound.map(|v| v.unpack(spill)))
        } else {
            None
        };
        if let (Some(shard), Some(key)) = (&mut self.memo, &memo_key) {
            if let Some(v) = shard.get(key) {
                self.tally.memo_hits += 1;
                self.probe_memo_hit();
                self.arena.truncate(fbase);
                let v = self.pack(v);
                self.stack.push(v);
                return Ok(());
            }
            self.tally.memo_misses += 1;
        }

        self.depth += 1;
        let result = self.exec(func, fbase, 0);
        self.depth -= 1;
        self.arena.truncate(fbase);
        let result = result?;
        if let Some(key) = memo_key {
            let v = self.unpack(result);
            if let Some(shard) = &mut self.memo {
                if shard.insert(key, v) {
                    self.tally.memo_evictions += 1;
                }
            }
        }
        self.stack.push(result);
        Ok(())
    }

    /// Entry of an inlined leaf call ([`Op::InlineCall`]): everything
    /// [`Self::call_user`] does before the callee's first instruction,
    /// with the callee's frame a run of the caller's own slots — the call
    /// is counted, the depth checked as if the enclosing inlined calls
    /// were open frames, the arguments popped and bound through the
    /// callee's parameter coercions, every other callee slot reset to
    /// what a fresh frame holds. One call away from the dispatch loop: its
    /// locals would otherwise widen every `exec` frame.
    #[inline(never)]
    fn enter_inlined(&mut self, f: &BFunc, base: usize, pc: usize) -> RtResult<()> {
        let ic = &f.inlines[f.code[pc].a as usize];
        self.tally.calls += 1;
        self.tally.insns_fused += 1;
        check_call_depth(&self.s.opts, self.depth + ic.depth as usize, f.spans[pc])?;
        let prog: &'p BytecodeProgram = self.prog;
        let callee = &prog.funcs[ic.fid as usize];
        let fbase = base + ic.slot_base as usize;
        let argbase = self.stack.len() - ic.nargs as usize;
        // A fresh frame reads `Uninit` wherever no argument lands.
        self.arena[fbase..fbase + callee.frame_size].fill(Packed::UNINIT);
        for (&(slot, co), i) in callee.params.iter().zip(argbase..self.stack.len()) {
            let v = self.coerce_packed(co, self.stack[i]);
            self.arena[fbase + slot as usize] = v;
        }
        self.stack.truncate(argbase);
        Ok(())
    }

    // -- pure-call futures ----------------------------------------------------

    #[inline]
    fn futures_on(&self) -> bool {
        self.s.opts.futures && self.s.opts.threads > 1 && self.track.is_none()
    }

    /// The process-wide pool, fetched once per VM and handed out by
    /// reference: the admission pre-check runs at every spawn site and
    /// must not bump the pool's reference count.
    fn futures_pool(&mut self) -> &Arc<ThreadPool> {
        let threads = self.s.opts.threads;
        self.futures_pool
            .get_or_insert_with(|| global_pool(threads))
    }

    /// Fold a finished future into this VM: tally, memo inserts, then
    /// the (coerced) value into the target slot — or its error.
    fn absorb_future(&mut self, out: VmFutureOut, abs: usize, coerce: Coerce) -> RtResult<()> {
        self.tally.merge(&out.tally);
        if let (Some(local), Some(mine)) = (out.memo_local, &mut self.memo) {
            let evicted = mine.absorb(local);
            self.tally.memo_evictions += evicted;
        }
        let v = out.value?;
        let pv = self.pack(coerce.apply(v));
        self.arena[abs] = pv;
        Ok(())
    }

    /// Execute one `SpawnPure`: arguments are already on the operand
    /// stack (evaluated eagerly, original program order).
    fn exec_spawn(&mut self, sp: BSpawn, base: usize, span: Span) -> RtResult<()> {
        let nargs = sp.nargs as usize;
        let abs = base + sp.slot as usize;
        let mut throttled = false;
        if self.futures_on() {
            // The throttle is THE hot case once every worker is busy
            // (the granularity governor of the recursion), so it is
            // checked before any argument marshalling: the hardware-
            // clamped pool-wide pending cap, plus — from a pool worker
            // — its own exposed-task budget (a handful of relaxed
            // loads and no shared write, see machine::spawn_capacity)
            // — then the call runs inline on this VM like a plain call
            // statement.
            let threads = self.s.opts.threads;
            throttled = !machine::spawn_capacity(self.futures_pool(), threads);
        }
        if !self.futures_on() || throttled {
            // Exactly the original call statement: call, coerce, store.
            if throttled {
                self.tally.futures_inlined += 1;
                instrument::instant("future.inline", sp.fid as u64);
            }
            self.call_user(sp.fid, nargs, span)?;
            let v = self.pop();
            let v = self.coerce_packed(sp.coerce, v);
            self.arena[abs] = v;
            return Ok(());
        }
        // Take the arguments off the stack as owned scalars.
        let argbase = self.stack.len() - nargs;
        let mut args = Vec::with_capacity(nargs);
        for v in &self.stack[argbase..] {
            args.push(v.unpack(&self.spill));
        }
        self.stack.truncate(argbase);
        let func = &self.prog.funcs[sp.fid as usize];
        // Memo pre-check: a hit never spawns (mirrors `call_user`'s hit
        // path via the shared key builder; a spawn site's callee is const
        // ∧ heavy by construction, which is the memo's admission rule).
        debug_assert!(func.summary.spawn_heavy());
        if let Some(shard) = &mut self.memo {
            let key = MemoCache::key_for_call(&func.params, func.frame_size, sp.fid, &args);
            if let Some(v) = key.and_then(|key| shard.get(&key)) {
                self.tally.calls += 1;
                self.tally.memo_hits += 1;
                self.probe_memo_hit();
                let pv = self.pack(sp.coerce.apply(v));
                self.arena[abs] = pv;
                return Ok(());
            }
        }
        let frozen = self.memo.as_mut().map(|m| m.freeze());
        // The task is `'static`: it owns its handle on the program.
        let prog = Arc::clone(self.prog);
        let shared = self.s.clone();
        let fid = sp.fid;
        let depth = self.depth;
        let args_kept = args.clone();
        let task = move || run_future_task(prog, shared, frozen, fid, args, depth);
        let fut = PureFuture::spawn(self.futures_pool(), true, task);
        self.tally.futures_spawned += 1;
        if fut.pushed_local() {
            self.tally.local_pushes += 1;
        }
        self.pending.0.push(VmPending {
            abs,
            coerce: sp.coerce,
            fid,
            args: args_kept,
            fut,
        });
        Ok(())
    }

    /// One statement/iteration tick: step accounting, spill compaction
    /// at the safe point, memory ceiling. Run by [`Op::Step`], by an
    /// instruction that carries a fused tick ([`Insn::tick`]) and once per
    /// iteration by `AffineHead`/`AffineNext`. Inline: the count, the
    /// limit compare and the spill-pressure compare; `span` is only
    /// evaluated when the tick traps.
    #[inline(always)]
    fn step_tick(&mut self, span: impl Fn() -> Span) -> RtResult<()> {
        self.steps += 1;
        if self.steps > self.s.opts.max_steps {
            return Err(error_at("step limit exceeded (infinite loop?)", span()));
        }
        // Statement boundaries are compaction safe points: the pool's
        // live set is exactly the spill-tagged words in the arena and
        // operand stack.
        let live = self.arena.len() + self.stack.len();
        if self.spill.len() - self.spill_floor > 1024 + 4 * live {
            self.compact_spills();
        }
        if let Some(limit) = self.s.mem.limit_bytes() {
            if let Some((heap, local)) = self.memory_overshoot(limit, live) {
                return Err(memory_limit_error(heap, local, limit, span()));
            }
        }
        Ok(())
    }

    /// Memory ceiling at statement granularity: heap bytes are charged
    /// exactly at `try_alloc`, while this VM's arena/stack/spill growth is
    /// folded in here (at most one statement of overshoot). Returns the
    /// `(heap, interpreter)` bytes when together they exceed `limit`.
    #[inline(never)]
    fn memory_overshoot(&self, limit: u64, live: usize) -> Option<(u64, u64)> {
        let local = 8 * (live + self.spill.len()) as u64;
        let heap = self.s.mem.used_bytes().unwrap_or(0);
        (heap.saturating_add(local) > limit).then_some((heap, local))
    }

    /// Branch-counted bound check shared by `AffineHead`/`AffineNext`:
    /// `frame[a & 0xFFFF] <lt|le> ub` with the rhs re-read every time
    /// (slot or const per `b & 2`), exactly the counter effects of the
    /// literal loop's condition evaluation.
    #[inline(always)]
    fn affine_cond(
        &mut self,
        f: &BFunc,
        base: usize,
        insn: Insn,
        span: impl Fn() -> Span + Copy,
    ) -> RtResult<bool> {
        self.tally.branches += 1;
        let op = if insn.b & 1 != 0 {
            BinOp::Le
        } else {
            BinOp::Lt
        };
        let x = self.arena[base + (insn.a & 0xFFFF) as usize];
        let out = if insn.b & 2 != 0 {
            self.binop_const(op, x, f.consts[(insn.a >> 16) as usize], span)?
        } else {
            let y = self.arena[base + (insn.a >> 16) as usize];
            self.binop(op, x, y, span)?
        };
        Ok(self.truthy(out))
    }

    // -- dispatch loop --------------------------------------------------------

    /// Run `f`'s code from `pc` with the current frame at `arena[base..]`
    /// until a `Ret` (function result) or `RegionEnd` (iteration end).
    ///
    /// Dispatch uses the *prefetched-opcode* arrangement: `insn` is a
    /// loop-carried register reloaded at the bottom of the loop and at
    /// every taken branch, so the fetch of the next instruction issues
    /// before the dispatch branch of the current one retires. Measured
    /// A/B against fetching at the top of the loop: ~4-5% faster on the
    /// dispatch-bound varaccess bench, within noise on matmul64 /
    /// arraysum / heat (see README tier-3.5 notes).
    ///
    /// What is in this function and what is not decides both its speed
    /// and its native frame — one `exec` frame per interpreted call. In:
    /// the arms a loop body executes, with their fast paths inlined
    /// (`binop`, `int_binop`, `step_tick`, `incdec`, `affine_cond`,
    /// `mem_load`, `mem_store`, `pop_ptr`). Out, behind one call each:
    /// every slow path (`binop_slow`, spilled pointers, race tracking,
    /// the memory-ceiling arithmetic), every error constructor, and the
    /// arms no inner loop lives in ([`Self::exec_rare`]: strings, printf,
    /// builtins, allocation, regions, futures, global RMWs, error ops).
    fn exec(&mut self, f: &BFunc, base: usize, mut pc: usize) -> RtResult<Packed> {
        let mut insn = f.code[pc];
        loop {
            // This instruction's span, looked up only where an arm fails
            // (`pc` itself is reassigned by the jumping arms).
            let at = pc;
            let span = move || f.spans[at];
            // Fuel check: one predictable branch and a decrement per
            // dispatch; refills (and the only shared-atomic traffic)
            // happen once per FUEL_BLOCK dispatches in the cold path.
            if self.fuel_local == 0 {
                self.refill_fuel(span())?;
            }
            self.fuel_local -= 1;
            // A second predictable branch: the statement tick of a
            // `Step` the optimizer deleted rides on this instruction.
            if insn.tick {
                self.tally.insns_fused += 1;
                self.step_tick(move || f.tick_span(at))?;
            }
            match insn.op {
                Op::Step => self.step_tick(span)?,
                Op::Const => {
                    let v = self.pack(f.consts[insn.a as usize]);
                    self.stack.push(v);
                }
                Op::LoadLocal => {
                    let v = self.arena[base + insn.a as usize];
                    self.stack.push(v);
                }
                Op::LoadGlobal => {
                    if self.track.is_some() {
                        self.track_global(insn.a, false);
                    }
                    let v = self.s.globals.load(insn.a as usize);
                    let v = self.pack(v);
                    self.stack.push(v);
                }
                Op::StoreLocal => {
                    let v = *self.stack.last().expect("operand stack underflow");
                    self.arena[base + insn.a as usize] = v;
                }
                Op::StoreGlobal => {
                    if self.track.is_some() {
                        self.track_global(insn.a, true);
                    }
                    let v = *self.stack.last().expect("operand stack underflow");
                    let v = self.unpack(v);
                    self.s.globals.store(insn.a as usize, v);
                }
                Op::StoreLocalPop => {
                    let v = self.pop();
                    self.arena[base + insn.a as usize] = v;
                }
                Op::StoreGlobalPop => {
                    if self.track.is_some() {
                        self.track_global(insn.a, true);
                    }
                    let v = self.pop();
                    let v = self.unpack(v);
                    self.s.globals.store(insn.a as usize, v);
                }
                Op::Dup => {
                    let v = *self.stack.last().expect("operand stack underflow");
                    self.stack.push(v);
                }
                Op::Pop => {
                    self.pop();
                }
                Op::UnaryNeg => {
                    let v = self.pop();
                    let out = match v.as_inline_int() {
                        Some(i) => {
                            self.tally.int_ops += 1;
                            Packed::pack_i64(i.wrapping_neg(), &self.spill)
                        }
                        None => self.neg_slow(v),
                    };
                    self.stack.push(out);
                }
                Op::UnaryNot => {
                    let v = self.pop();
                    let out = Packed::pack_i64(i64::from(!self.truthy(v)), &self.spill);
                    self.stack.push(out);
                }
                Op::DerefLoad => {
                    let v = self.pop();
                    let p = self.expect_ptr(v, "dereference of non-pointer", span)?;
                    let v = self.mem_load(p, span)?;
                    self.stack.push(v);
                }
                Op::Binary => {
                    let r = self.pop();
                    let l = self.pop();
                    let out = self.binop(binop_decode(insn.a), l, r, span)?;
                    self.stack.push(out);
                }
                Op::BinLL => {
                    let x = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let y = self.arena[base + (insn.a >> 16) as usize];
                    let out = self.binop(binop_decode(insn.b), x, y, span)?;
                    self.stack.push(out);
                }
                Op::BinLC => {
                    let x = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let cv = f.consts[(insn.a >> 16) as usize];
                    let out = self.binop_const(binop_decode(insn.b), x, cv, span)?;
                    self.stack.push(out);
                }
                Op::PtrIndex => {
                    let iv = self.pop();
                    let bv = self.pop();
                    let i = self.to_i64(iv);
                    let p = self.index_ptr(bv, span)?;
                    let out = Packed::pack_ptr(p.offset(i), &self.spill);
                    self.stack.push(out);
                }
                Op::PtrDeref => {
                    let v = self.pop();
                    if self.as_ptr(v).is_none() {
                        return Err(error_at("dereference of non-pointer", span()));
                    }
                    self.stack.push(v);
                }
                Op::PtrMember => {
                    let v = self.pop();
                    let Some(p) = self.as_ptr(v) else {
                        return Err(error_at("member access on non-struct", span()));
                    };
                    let out = Packed::pack_ptr(p.offset(insn.a as i64), &self.spill);
                    self.stack.push(out);
                }
                Op::LoadMem => {
                    let p = self.pop_ptr();
                    let v = self.mem_load(p, span)?;
                    self.stack.push(v);
                }
                Op::StoreMem => {
                    let p = self.pop_ptr();
                    let v = self.pop();
                    self.mem_store(p, v, span)?;
                    if insn.b == 0 {
                        self.stack.push(v);
                    }
                }
                Op::CompoundLocal => {
                    let rv = self.pop();
                    let old = self.arena[base + insn.a as usize];
                    let res = self.binop(binop_decode(insn.b & 0xFF), old, rv, span)?;
                    self.arena[base + insn.a as usize] = res;
                    if insn.b & 0x100 == 0 {
                        self.stack.push(res);
                    }
                }
                Op::CompoundMem => {
                    let p = self.pop_ptr();
                    let rv = self.pop();
                    let old = self.mem_load(p, span)?;
                    let res = self.binop(binop_decode(insn.a), old, rv, span)?;
                    self.mem_store(p, res, span)?;
                    if insn.b == 0 {
                        self.stack.push(res);
                    }
                }
                Op::IncDecLocal => {
                    let old = self.arena[base + insn.a as usize];
                    let new = self.incdec(old, insn.b);
                    self.arena[base + insn.a as usize] = new;
                    if insn.b & 4 == 0 {
                        self.stack.push(if insn.b & 2 != 0 { new } else { old });
                    }
                }
                Op::IncDecMem => {
                    let p = self.pop_ptr();
                    let old = self.mem_load(p, span)?;
                    let new = self.incdec(old, insn.b);
                    self.mem_store(p, new, span)?;
                    if insn.b & 4 == 0 {
                        self.stack.push(if insn.b & 2 != 0 { new } else { old });
                    }
                }
                Op::Coerce => {
                    let v = self.pop();
                    let out = self.coerce_packed(coerce_decode(insn.a), v);
                    self.stack.push(out);
                }
                Op::Jump => {
                    pc = insn.a as usize;
                    insn = f.code[pc];
                    continue;
                }
                Op::JumpIfFalse => {
                    let v = self.pop();
                    if !self.truthy(v) {
                        pc = insn.a as usize;
                        insn = f.code[pc];
                        continue;
                    }
                }
                Op::JumpIfTrue => {
                    let v = self.pop();
                    if self.truthy(v) {
                        pc = insn.a as usize;
                        insn = f.code[pc];
                        continue;
                    }
                }
                Op::BumpBranch => self.tally.branches += 1,
                Op::Truthy => {
                    let v = self.pop();
                    let out = Packed::pack_i64(i64::from(self.truthy(v)), &self.spill);
                    self.stack.push(out);
                }
                Op::CallUser => {
                    self.call_user(insn.a, insn.b as usize, span())?;
                }
                Op::LoadIdxLL => {
                    let bv = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let iv = self.arena[base + (insn.a >> 16) as usize];
                    let i = self.to_i64(iv);
                    let p = self.index_ptr(bv, span)?;
                    let v = self.mem_load(p.offset(i), span)?;
                    self.stack.push(v);
                }
                Op::StoreIdxLL => {
                    let bv = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let iv = self.arena[base + (insn.a >> 16) as usize];
                    let i = self.to_i64(iv);
                    let p = self.index_ptr(bv, span)?;
                    let v = if insn.b == 0 {
                        *self.stack.last().expect("operand stack underflow")
                    } else {
                        self.pop()
                    };
                    self.mem_store(p.offset(i), v, span)?;
                }
                Op::CompoundIdxLL => {
                    let rv = self.pop();
                    let bv = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let iv = self.arena[base + (insn.a >> 16) as usize];
                    let i = self.to_i64(iv);
                    let p = self.index_ptr(bv, span)?.offset(i);
                    let old = self.mem_load(p, span)?;
                    let res = self.binop(binop_decode(insn.b & 0xFF), old, rv, span)?;
                    self.mem_store(p, res, span)?;
                    if insn.b & 0x100 == 0 {
                        self.stack.push(res);
                    }
                }
                Op::RegionEnd => return Ok(Packed::ZERO),
                Op::Ret => return Ok(self.pop()),

                // ---- tier-3.5 superinstructions (emitted only by
                // `crate::opt`). Each replicates the exact counted
                // effects of the sequence it replaced; `insns_folded` /
                // `insns_fused` record the dispatches it eliminated.
                Op::ConstFold => {
                    self.tally.int_ops += (insn.b & 0xFF) as u64;
                    self.tally.flops += ((insn.b >> 8) & 0xFF) as u64;
                    self.tally.insns_folded += (insn.b >> 16) as u64;
                    let v = self.pack(f.consts[insn.a as usize]);
                    self.stack.push(v);
                }
                Op::ConstStore => {
                    self.tally.insns_fused += 1;
                    let v = self.pack(f.consts[insn.a as usize]);
                    self.arena[base + insn.b as usize] = v;
                }
                Op::BinLLStore => {
                    self.tally.insns_fused += 1;
                    let x = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let y = self.arena[base + (insn.a >> 16) as usize];
                    let out = self.binop(binop_decode(insn.b & 0xFF), x, y, span)?;
                    self.arena[base + (insn.b >> 16) as usize] = out;
                }
                Op::BinLCStore => {
                    self.tally.insns_fused += 1;
                    let x = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let cv = f.consts[(insn.a >> 16) as usize];
                    let out = self.binop_const(binop_decode(insn.b & 0xFF), x, cv, span)?;
                    self.arena[base + (insn.b >> 16) as usize] = out;
                }
                Op::LoadIdxLLStore => {
                    self.tally.insns_fused += 1;
                    let bv = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let iv = self.arena[base + (insn.a >> 16) as usize];
                    let i = self.to_i64(iv);
                    let p = self.index_ptr(bv, span)?;
                    let v = self.mem_load(p.offset(i), span)?;
                    self.arena[base + insn.b as usize] = v;
                }
                Op::LoadIdxLC => {
                    self.tally.insns_fused += 3;
                    let bv = self.arena[base + (insn.a & 0xFFFF) as usize];
                    // The fusion pass only forms this with an integer
                    // index constant.
                    let i = f.consts[(insn.a >> 16) as usize].as_i64();
                    let p = self.index_ptr(bv, span)?;
                    let v = self.mem_load(p.offset(i), span)?;
                    self.stack.push(v);
                }
                Op::StoreIdxLC => {
                    self.tally.insns_fused += 3;
                    let bv = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let i = f.consts[(insn.a >> 16) as usize].as_i64();
                    let p = self.index_ptr(bv, span)?;
                    let v = if insn.b == 0 {
                        *self.stack.last().expect("operand stack underflow")
                    } else {
                        self.pop()
                    };
                    self.mem_store(p.offset(i), v, span)?;
                }
                Op::BrCmpLL => {
                    self.tally.insns_fused += 1 + ((insn.b >> 5) & 1) as u64;
                    if insn.b & 0x20 != 0 {
                        self.tally.branches += 1;
                    }
                    let x = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let y = self.arena[base + (insn.a >> 16) as usize];
                    let out = self.binop(binop_decode(insn.b & 0xF), x, y, span)?;
                    if self.truthy(out) == ((insn.b >> 4) & 1 == 1) {
                        pc = (insn.b >> 6) as usize;
                        insn = f.code[pc];
                        continue;
                    }
                }
                Op::BrCmpLC => {
                    self.tally.insns_fused += 1 + ((insn.b >> 5) & 1) as u64;
                    if insn.b & 0x20 != 0 {
                        self.tally.branches += 1;
                    }
                    let x = self.arena[base + (insn.a & 0xFFFF) as usize];
                    let cv = f.consts[(insn.a >> 16) as usize];
                    let out = self.binop_const(binop_decode(insn.b & 0xF), x, cv, span)?;
                    if self.truthy(out) == ((insn.b >> 4) & 1 == 1) {
                        pc = (insn.b >> 6) as usize;
                        insn = f.code[pc];
                        continue;
                    }
                }
                Op::RetLocal => {
                    self.tally.insns_fused += 1;
                    return Ok(self.arena[base + insn.a as usize]);
                }
                Op::AffineHead => {
                    // Entry check, once per loop: tick + branch + bound.
                    self.step_tick(span)?;
                    if !self.affine_cond(f, base, insn, span)? {
                        pc = (insn.b >> 2) as usize;
                        insn = f.code[pc];
                        continue;
                    }
                }
                Op::AffineNext => {
                    // Back-edge: increment, tick, branch, re-check — the
                    // exact counter order the literal `IncDecLocal; Jump;
                    // Step; BrCmp` sequence observes at any trap instant.
                    let islot = base + (insn.a & 0xFFFF) as usize;
                    let old = self.arena[islot];
                    let new = self.incdec(old, 1);
                    self.arena[islot] = new;
                    self.step_tick(span)?;
                    if self.affine_cond(f, base, insn, span)? {
                        pc = (insn.b >> 2) as usize;
                        insn = f.code[pc];
                        continue;
                    }
                }
                // Emitted only by `crate::opt`'s inliner; last, so the arms
                // above sit where they sat before it existed.
                Op::InlineCall => self.enter_inlined(f, base, pc)?,
                _ => {
                    pc = self.exec_rare(f, base, pc, insn)?;
                    insn = f.code[pc];
                    continue;
                }
            }
            pc += 1;
            insn = f.code[pc];
        }
    }

    /// The arms no inner loop lives in, out of [`Self::exec`]'s way: each
    /// builds strings, vectors or error values, or calls into the runtime,
    /// and together they were three quarters of `exec`'s native frame.
    /// Returns the next `pc`.
    #[inline(never)]
    fn exec_rare(&mut self, f: &BFunc, base: usize, pc: usize, insn: Insn) -> RtResult<usize> {
        let span = f.spans[pc];
        match insn.op {
            Op::StrNew => {
                let s = Arc::clone(&f.strings[insn.a as usize]);
                let n = s.chars().count();
                let p = self
                    .s
                    .mem
                    .try_alloc(n + 1)
                    .map_err(|e| RuntimeError::from_mem(e, span))?;
                for (i, ch) in s.chars().enumerate() {
                    let v = self.pack(Scalar::I(ch as i64));
                    self.mem_store(p.offset(i as i64), v, || span)?;
                }
                let nul = self.pack(Scalar::I(0));
                self.mem_store(p.offset(n as i64), nul, || span)?;
                let v = self.pack(Scalar::P(p));
                self.stack.push(v);
            }
            Op::PushUninit => self.stack.push(Packed::UNINIT),
            Op::UnaryBitNot => {
                let v = self.pop();
                let out = Packed::pack_i64(!self.to_i64(v), &self.spill);
                self.stack.push(out);
            }
            Op::LoadIdxConst => {
                let p = self.pop_ptr();
                let v = self.mem_load(p.offset(insn.a as i64), || span)?;
                self.stack.push(v);
            }
            Op::SkipUnlessPtr => {
                let top = *self.stack.last().expect("operand stack underflow");
                if self.as_ptr(top).is_none() {
                    self.pop();
                    return Ok(insn.a as usize);
                }
            }
            Op::StoreIdxConst => {
                let v = self.pop();
                let p = self.pop_ptr();
                self.mem_store(p.offset(insn.a as i64), v, || span)?;
            }
            Op::CompoundGlobal => {
                if self.track.is_some() {
                    self.track_global(insn.a, false);
                    self.track_global(insn.a, true);
                }
                let rv = self.pop();
                let rv = self.unpack(rv);
                let op = binop_decode(insn.b & 0xFF);
                // One atomic RMW — the old read-guard/write-guard
                // pair let a concurrent RMW slip between the two and
                // lose an update. The CAS may retry `apply_binop`;
                // the tally snapshot keeps it counted exactly once.
                let globals = Arc::clone(&self.s.globals);
                let saved_tally = self.tally;
                let (_, res) = globals.rmw(insn.a as usize, |old| {
                    self.tally = saved_tally;
                    self.apply_binop(op, old, rv, span)
                })?;
                if insn.b & 0x100 == 0 {
                    let res = self.pack(res);
                    self.stack.push(res);
                }
            }
            Op::IncDecGlobal => {
                if self.track.is_some() {
                    self.track_global(insn.a, false);
                    self.track_global(insn.a, true);
                }
                // Atomic `++`/`--` via CAS (same torn-RMW fix as
                // `CompoundGlobal`); tally snapshot absorbs retries.
                let globals = Arc::clone(&self.s.globals);
                let saved_tally = self.tally;
                let (old, new) = globals.rmw(insn.a as usize, |old| {
                    self.tally = saved_tally;
                    Ok::<_, RuntimeError>(self.counted(ops::incdec(old, incdec_delta(insn.b))))
                })?;
                if insn.b & 4 == 0 {
                    let out = self.pack(if insn.b & 2 != 0 { new } else { old });
                    self.stack.push(out);
                }
            }
            Op::CallBuiltin => {
                self.tally.calls += 1;
                let nargs = insn.b as usize;
                let argbase = self.stack.len() - nargs;
                let mut args = Vec::with_capacity(nargs);
                for v in &self.stack[argbase..] {
                    args.push(v.unpack(&self.spill));
                }
                self.stack.truncate(argbase);
                let name = self.prog.interner.resolve(Symbol(insn.a));
                let v = call_builtin(name, &args, &self.s.mem, &self.s.output, span)?;
                let v = self.pack(v);
                self.stack.push(v);
            }
            Op::Printf => {
                let nargs = insn.b as usize;
                let argbase = self.stack.len() - nargs;
                let mut args = Vec::with_capacity(nargs);
                for v in &self.stack[argbase..] {
                    args.push(v.unpack(&self.spill));
                }
                self.stack.truncate(argbase);
                let fmt: String = if insn.a != u32::MAX {
                    f.strings[insn.a as usize].to_string()
                } else {
                    let fv = self.pop();
                    let mut p = match self.unpack(fv) {
                        Scalar::P(p) => p,
                        _ => return Err(RuntimeError::at("printf format is not a string", span)),
                    };
                    let mut s = String::new();
                    loop {
                        let ch = self.mem_load(p, || span)?;
                        match self.unpack(ch) {
                            Scalar::I(0) => break,
                            Scalar::I(c) => {
                                s.push(char::from_u32(c as u32).unwrap_or('?'));
                                p = p.offset(1);
                            }
                            _ => break,
                        }
                    }
                    s
                };
                let rendered = format_printf(&fmt, &args, &self.s.mem);
                self.s.output.lock().push_str(&rendered);
                let out = Packed::pack_i64(rendered.len() as i64, &self.spill);
                self.stack.push(out);
            }
            Op::AllocArray => {
                let ndims = insn.a as usize;
                let dimbase = self.stack.len() - ndims;
                let mut dims = Vec::with_capacity(ndims);
                for i in 0..ndims {
                    let v = self.stack[dimbase + i];
                    dims.push(self.to_i64(v).max(0) as usize);
                }
                self.stack.truncate(dimbase);
                let p = self
                    .s
                    .mem
                    .try_alloc_array(&dims)
                    .map_err(|e| RuntimeError::from_mem(e, span))?;
                let out = self.pack(Scalar::P(p));
                self.stack.push(out);
            }
            Op::AllocStruct => {
                let p = self
                    .s
                    .mem
                    .try_alloc(insn.a as usize)
                    .map_err(|e| RuntimeError::from_mem(e, span))?;
                let out = self.pack(Scalar::P(p));
                self.stack.push(out);
            }
            Op::SpawnPure => {
                let sp = f.spawns[insn.a as usize];
                self.exec_spawn(sp, base, span)?;
            }
            Op::AwaitSlot => self.await_slot(base + insn.a as usize, span)?,
            Op::OmpRegion => {
                let r = f.regions[insn.a as usize];
                self.region(f, base, &r)?;
                return Ok(r.end as usize + 1);
            }
            Op::Err => return Err(RuntimeError::at(f.errs[insn.a as usize].clone(), span)),
            Op::MemberUnknownErr => {
                let v = self.pop();
                let msg = match self.unpack(v) {
                    Scalar::P(_) => f.errs[insn.a as usize].clone(),
                    _ => "member access on non-struct".to_string(),
                };
                return Err(RuntimeError::at(msg, span));
            }
            other => unreachable!("{other:?} is dispatched by exec"),
        }
        Ok(pc + 1)
    }

    /// Force the future pending on absolute arena slot `abs`, if any
    /// ([`Op::AwaitSlot`]). No entry: the spawn resolved inline (futures
    /// off, memo hit, or saturation) — the slot is already set.
    fn await_slot(&mut self, abs: usize, span: Span) -> RtResult<()> {
        let Some(pos) = self.pending.0.iter().rposition(|p| p.abs == abs) else {
            return Ok(());
        };
        let p = self.pending.0.remove(pos);
        let res = match p.fut.cancel() {
            Ok(()) => {
                // Nobody claimed the task between spawn and await: revoke
                // it and run the call inline on this VM — the spawn costs
                // one push and two CASes, nothing more. (Still counted
                // only in futures_spawned; futures_inlined is reserved
                // for sites the admission throttle bounced.)
                let nargs = p.args.len();
                for a in &p.args {
                    let v = self.pack(*a);
                    self.stack.push(v);
                }
                self.call_user(p.fid, nargs, span).map(|()| {
                    let v = self.pop();
                    let v = self.coerce_packed(p.coerce, v);
                    self.arena[p.abs] = v;
                })
            }
            Err(fut) => {
                let (out, report) = fut.wait();
                if report.helped {
                    self.tally.futures_helped += 1;
                    instrument::instant("future.help", p.fid as u64);
                }
                if report.stolen {
                    self.tally.tasks_stolen += 1;
                }
                self.absorb_future(out, p.abs, p.coerce)
            }
        };
        if res.is_err() {
            // Drain the batch's (and any outer frame's) remaining futures
            // before failing, like the resolved engine's exec_await: no
            // task may outlive the run on the shared pool.
            self.pending.drain();
        }
        res
    }

    // -- parallel regions -----------------------------------------------------

    /// Launch an `omp parallel for` region ([`region::launch`]); its
    /// workers are child VMs started from a [`VmFrame`].
    fn region(&mut self, f: &BFunc, base: usize, r: &BRegion) -> RtResult<()> {
        let ubv = self.pop();
        let lbv = self.pop();
        let launch = Launch {
            lb: self.to_i64(lbv),
            ub: self.to_i64(ubv) - i64::from(!r.ub_inclusive),
            schedule: r.schedule,
            verdict: r.verdict,
            span: r.span,
            body_span: r.body_span,
            work: r.work,
        };
        region::launch(self, &launch, |vm: &mut Self| {
            // Compact first so the workers inherit only live spill entries
            // (usually none), then snapshot the frame: one flat u64
            // template each worker copies per iteration.
            if vm.spill.len() > vm.spill_floor {
                vm.compact_spills();
            }
            VmFrame {
                prog: vm.prog,
                shared: vm.s.clone(),
                f,
                frame: vm.arena[base..base + f.frame_size].to_vec(),
                spill_prefix: vm.spill.entries_snapshot(),
                frozen: vm.memo.as_mut().map(|m| m.freeze()),
                iter_slot: r.iter_slot as usize,
                body_start: r.body_start as usize,
            }
        })
    }
}

/// A region's launching frame as the VM's workers start every iteration
/// from it: the frame's words, the spill entries they may name (each
/// worker's immutable prefix) and a frozen view of the memo shard.
struct VmFrame<'a, 'p> {
    prog: &'p Arc<BytecodeProgram>,
    shared: VmShared,
    f: &'a BFunc,
    frame: Vec<Packed>,
    spill_prefix: Vec<Scalar>,
    frozen: Option<Arc<Memo>>,
    iter_slot: usize,
    body_start: usize,
}

impl<'p> region::Snapshot for VmFrame<'_, 'p> {
    type Worker = Vm<'p>;

    /// One child VM — arena, spill pool, tally and memo shard — reused
    /// across every iteration its thread executes. It inherits the frozen
    /// memo view, and the parent's spill entries as an immutable prefix
    /// so the spill references inside the frame stay resolvable.
    fn worker(&self) -> Vm<'p> {
        let mut vm = Vm::new(self.prog, self.shared.clone());
        vm.memo = self.frozen.clone().map(MemoShard::with_frozen);
        vm.spill = SpillPool::with_entries(self.spill_prefix.clone());
        vm.spill_floor = self.spill_prefix.len();
        vm
    }

    fn run(&self, vm: &mut Vm<'p>, i: i64) -> RtResult<()> {
        vm.stack.clear();
        vm.arena.clear();
        vm.arena.extend_from_slice(&self.frame);
        vm.spill.truncate(vm.spill_floor);
        vm.arena[self.iter_slot] = Packed::pack_i64(i, &vm.spill);
        vm.steps = 0;
        vm.depth = 0;
        let res = vm.exec(self.f, 0, self.body_start);
        if res.is_err() {
            // An iteration that failed mid-batch leaves futures in
            // flight, whose slots the next iteration's frame would alias.
            vm.pending.drain();
        }
        res.map(drop)
    }
}

impl region::Worker for Vm<'_> {
    fn env(&self) -> (&InterpOptions, &Arc<Counters>, &Memory) {
        (&self.s.opts, &self.s.counters, &self.s.mem)
    }

    fn track(&mut self) -> &mut Option<TrackSets> {
        &mut self.track
    }

    /// Hand unused local fuel back (a retiring region worker or future
    /// child, a launching parent), so it is not silently burned.
    fn refund_fuel(&mut self) {
        if let Some(budget) = &self.s.fuel {
            budget.refund(std::mem::take(&mut self.fuel_local));
        }
    }

    /// The one merge of a worker's tally and memo inserts.
    fn absorb(&mut self, w: Self) {
        self.tally.merge(&w.tally);
        if instrument::enabled() {
            instrument::metrics()
                .arena_bytes
                .sample((w.arena.capacity() * std::mem::size_of::<Packed>()) as u64);
            instrument::metrics()
                .spill_bytes
                .sample((w.spill.len() * std::mem::size_of::<Scalar>()) as u64);
        }
        if let (Some(theirs), Some(mine)) = (w.memo, &mut self.memo) {
            let evicted = mine.absorb(theirs.local);
            if evicted > 0 {
                instrument::instant("memo.evict", evicted);
            }
            self.tally.memo_evictions += evicted;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::interp::{Engine, InterpOptions, Program};
    use crate::value::SPILL_PUSHES;
    use cfront::parser::parse;
    use std::collections::HashSet;

    fn program(src: &str) -> Program {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        Program::new(&r.unit)
    }

    fn program_with_pure(src: &str, pure_fns: &[&str]) -> Program {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        let set: HashSet<String> = pure_fns.iter().map(|s| s.to_string()).collect();
        Program::with_pure_set(&r.unit, &set)
    }

    /// A fixed key sequence through one shard life cycle — a hot set, a
    /// `freeze`, twice the shard capacity of cold keys on the child, one
    /// `absorb`, then the hot set and both ends of the cold range again —
    /// with its hits, misses and evictions written down from the build
    /// whose key was `(u32, Vec<(u8, u64)>)` under SipHash: CLOCK, the
    /// capacities, `freeze`'s promotion rule and `absorb`'s or-insert
    /// rule decide them; the key representation and the hasher must not.
    #[test]
    fn memo_counts_of_a_fixed_key_sequence_are_pinned() {
        use super::{MemoKey, MemoShard, SHARD_CAPACITY};
        use crate::value::Scalar;
        #[derive(Default)]
        struct Counts {
            hits: u64,
            misses: u64,
            evictions: u64,
        }
        impl Counts {
            fn probe(&mut self, shard: &mut MemoShard, k: i64) {
                let args = [Scalar::I(k), Scalar::F(k as f64 / 2.0)];
                let key = MemoKey::new(7, args.into_iter()).expect("scalar arguments");
                match shard.get(&key) {
                    Some(v) => {
                        assert_eq!(v, Scalar::I(k * 3), "a hit returns its own key's value");
                        self.hits += 1;
                    }
                    None => {
                        self.misses += 1;
                        self.evictions += u64::from(shard.insert(key, Scalar::I(k * 3)));
                    }
                }
            }
        }
        const HOT: i64 = 256;
        let cold = 2 * SHARD_CAPACITY as i64;
        let mut c = Counts::default();
        let mut parent = MemoShard::new();
        for _ in 0..3 {
            for k in 0..HOT {
                c.probe(&mut parent, k);
            }
        }
        let mut child = MemoShard::with_frozen(parent.freeze());
        for k in 0..cold {
            c.probe(&mut child, 1_000_000 + k);
            if k % 8 == 0 {
                c.probe(&mut child, k % HOT);
            }
        }
        c.evictions += parent.absorb(child.local);
        for k in 0..HOT {
            c.probe(&mut parent, k);
        }
        for k in (cold - 64..cold).chain(0..64) {
            c.probe(&mut parent, 1_000_000 + k);
        }
        // As counted at 1d30a2c.
        assert_eq!((c.hits, c.misses, c.evictions), (4928, 33088, 16448));
    }

    /// Wide ints stay ints: once `varaccess`'s recurrences pass ±2⁴⁷
    /// (after ≈ 70 iterations) every operand is a spill-pool reference
    /// and every result is spilled — once. `compact_spills` rebuilds the
    /// pool without going through `spill`, so the thread's push count is
    /// exactly the number of wide results.
    #[test]
    fn a_wide_result_is_spilled_once() {
        let n = 1_000;
        let src = format!(
            "int main() {{\n\
                 int a = 0; int b = 1; int c = 2; int d = 3; int e = 4;\n\
                 for (int i = 0; i < {n}; i++) {{\n\
                     a = a + b; b = b ^ c; c = c + d;\n\
                     d = d + e; e = e + a; a = a - d;\n\
                 }}\n\
                 return a & 255;\n\
             }}\n"
        );
        // The same recurrences natively, counting results that do not
        // fit the 48-bit inline payload.
        let mut wide = 0u64;
        let mut count = |v: i64| {
            wide += u64::from(!(-(1i64 << 47)..1i64 << 47).contains(&v));
            v
        };
        let (mut a, mut b, mut c, mut d, mut e) = (0i64, 1i64, 2i64, 3i64, 4i64);
        for _ in 0..n {
            a = count(a.wrapping_add(b));
            b = count(b ^ c);
            c = count(c.wrapping_add(d));
            d = count(d.wrapping_add(e));
            e = count(e.wrapping_add(a));
            a = count(a.wrapping_sub(d));
        }
        assert!(wide > 5_000, "the loop must live on the wide path: {wide}");
        let prog = program(&src);
        for opt_level in [0u8, 2] {
            let before = SPILL_PUSHES.with(|p| p.get());
            let run = prog
                .run(InterpOptions {
                    opt_level,
                    ..Default::default()
                })
                .expect("runs");
            let pushes = SPILL_PUSHES.with(|p| p.get()) - before;
            assert_eq!(run.exit_code, a & 255, "level {opt_level}");
            assert_eq!(pushes, wide, "level {opt_level}");
        }
    }

    /// A zero divisor under a wide dividend — the int path reached
    /// through the spill pool — fails with the resolved engine's message
    /// and span, in every instruction form that can carry the operator.
    #[test]
    fn wide_division_by_zero_fails_like_the_resolved_engine() {
        for (what, stmt, want) in [
            (
                "Binary",
                "return (x + 0) / (z + 0);",
                "integer division by zero",
            ),
            ("BinLL", "return x / z;", "integer division by zero"),
            ("BinLC", "return x % 0;", "integer modulo by zero"),
            (
                "BinLLStore",
                "x = x % z; return x;",
                "integer modulo by zero",
            ),
            (
                "CompoundLocal",
                "x /= z; return x;",
                "integer division by zero",
            ),
            (
                "CompoundIdxLL",
                "a[i] = x; a[i] %= z; return 0;",
                "integer modulo by zero",
            ),
        ] {
            let src = format!(
                "int main() {{\n\
                     int* a = (int*) malloc(4 * sizeof(int));\n\
                     int i = 1;\n\
                     int x = 1;\n\
                     for (int k = 0; k < 50; k++) x = x * 2;\n\
                     int z = 0;\n\
                     {stmt}\n\
                 }}\n"
            );
            let prog = program(&src);
            let oracle = prog
                .run(InterpOptions {
                    engine: Engine::Resolved,
                    ..Default::default()
                })
                .expect_err("resolved traps");
            assert_eq!(oracle.message, want, "{what}");
            for opt_level in [0u8, 2] {
                let e = prog
                    .run(InterpOptions {
                        opt_level,
                        ..Default::default()
                    })
                    .expect_err("the VM traps");
                assert_eq!(e.message, oracle.message, "{what} level {opt_level}");
                assert_eq!(e.span, oracle.span, "{what} level {opt_level}");
            }
        }
    }

    /// `++`, `--` and unary `-` wrap like `+` and `-` do, in debug and
    /// release builds alike, on all three engines and both bytecode
    /// levels (a debug build used to panic with "attempt to add with
    /// overflow" / "attempt to negate with overflow").
    #[test]
    fn incdec_and_negate_wrap_at_the_int64_edges() {
        for (src, want) in [
            (
                "int main() { int x = 9223372036854775807; x++; return x == -9223372036854775807 - 1; }",
                1,
            ),
            (
                "int main() { int x = -9223372036854775807 - 1; --x; return x == 9223372036854775807; }",
                1,
            ),
            (
                "int main() { int x = -9223372036854775807 - 1; int y = -x; return y == x; }",
                1,
            ),
            (
                "int g; int main() { g = 9223372036854775807; g++; return g < 0; }",
                1,
            ),
            (
                "int main() { int* p = (int*) malloc(8); p[0] = 9223372036854775807; \
                 p[0]++; return p[0] < 0; }",
                1,
            ),
            (
                "int main() { return -(-9223372036854775807 - 1) < 0; }",
                1,
            ),
        ] {
            let prog = program(src);
            for opt_level in [0u8, 2] {
                let opts = InterpOptions {
                    opt_level,
                    ..Default::default()
                };
                let vm = prog.run(opts).expect("VM runs");
                assert_eq!(vm.exit_code, want, "vm level {opt_level}: {src}");
                let resolved = prog.run_resolved(opts).expect("resolved runs");
                let legacy = prog.run_legacy(opts).expect("legacy runs");
                assert_eq!(resolved.exit_code, want, "resolved: {src}");
                assert_eq!(legacy.exit_code, want, "legacy: {src}");
                assert_eq!(vm.counters.without_memo(), resolved.counters.without_memo());
                assert_eq!(resolved.counters.without_memo(), legacy.counters);
            }
        }
    }

    /// Hammer a shared global with `+=`, `++` and a float `+=` from a
    /// `dynamic,1` region on 8 threads. Regression for the torn global
    /// RMW: each engine used to take a read guard, compute, then take a
    /// *separate* write guard, so two workers could both read `g == k`
    /// and both store `k + 1` — a lost update that made the VM diverge
    /// from the oracle engines nondeterministically. Now the VM does a
    /// CAS loop on its lock-free global words, and the resolved/legacy
    /// engines hold one write guard across the whole RMW, so the final
    /// value is exact on every engine.
    #[test]
    fn parallel_global_rmw_never_tears() {
        let src = "\
int g;
double h;
int main() {
#pragma omp parallel for schedule(dynamic,1)
    for (int i = 0; i < 300; i++) { g += 1; g++; h += 0.5; }
    return (g + (int) h) % 251;
}
";
        let prog = program(src);
        let expect = (300 * 2 + 150) % 251;
        let seq = prog.run(InterpOptions::default()).expect("seq");
        assert_eq!(seq.exit_code, expect, "sequential baseline");
        for rep in 0..4 {
            let opts = InterpOptions {
                threads: 8,
                ..Default::default()
            };
            let vm = prog.run(opts).expect("vm runs");
            assert_eq!(vm.exit_code, expect, "vm rep={rep}");
            let resolved = prog
                .run(InterpOptions {
                    engine: Engine::Resolved,
                    ..opts
                })
                .expect("resolved runs");
            assert_eq!(resolved.exit_code, expect, "resolved rep={rep}");
            let legacy = prog.run_legacy(opts).expect("legacy runs");
            assert_eq!(legacy.exit_code, expect, "legacy rep={rep}");
        }
    }

    /// A nested-region program is observably identical (exit, output,
    /// counters modulo memo) on 1 and 4 threads and across engines.
    #[test]
    fn nested_regions_match_across_threads_and_engines() {
        let src = "\
int main() {
    int acc = 0;
    int* a = (int*) malloc(64 * sizeof(int));
#pragma omp parallel for schedule(dynamic,2)
    for (int i = 0; i < 8; i++) {
#pragma omp parallel for schedule(static)
        for (int j = 0; j < 8; j++) {
            a[i * 8 + j] = i * 100 + j * j;
        }
    }
    for (int k = 0; k < 64; k++) acc += a[k] % 17;
    printf(\"acc=%d\\n\", acc);
    return acc % 113;
}
";
        let prog = program(src);
        let seq = prog.run(InterpOptions::default()).expect("sequential run");
        for engine in [Engine::Bytecode, Engine::Resolved] {
            let par = prog
                .run(InterpOptions {
                    threads: 4,
                    engine,
                    ..Default::default()
                })
                .expect("parallel run");
            assert_eq!(par.exit_code, seq.exit_code, "{engine:?}");
            assert_eq!(par.output, seq.output, "{engine:?}");
            assert_eq!(
                par.counters.without_memo(),
                seq.counters.without_memo(),
                "{engine:?}"
            );
        }
    }

    const FIB_LOCALS: &str = "\
pure int fib(int n) { if (n < 2) return n; int a = fib(n - 1); int b = fib(n - 2); return a + b; }
int main() { int l = fib(16); int r = fib(15); return (l + r) % 251; }
";

    /// Futures on vs off, VM vs resolved vs legacy: identical exit code
    /// and — with memo off, where op totals are deterministic — identical
    /// executed-op counters modulo the memo/futures bookkeeping.
    #[test]
    fn futures_match_sequential_on_tree_recursion() {
        let prog = program_with_pure(FIB_LOCALS, &["fib"]);
        assert_eq!(prog.resolved().spawn_sites().len(), 2);
        let opt = |threads: usize, futures: bool| InterpOptions {
            threads,
            futures,
            memo: false,
            ..Default::default()
        };
        let seq = prog.run(opt(1, false)).expect("sequential");
        let legacy = prog.run_legacy(opt(1, false)).expect("legacy");
        assert_eq!(seq.exit_code, (987 + 610) % 251);
        assert_eq!(seq.counters.without_memo(), legacy.counters.without_memo());
        for threads in [2usize, 4] {
            let fut = prog.run(opt(threads, true)).expect("futures VM");
            assert_eq!(fut.exit_code, seq.exit_code, "threads={threads}");
            assert_eq!(
                fut.counters.without_memo(),
                seq.counters.without_memo(),
                "threads={threads}"
            );
            assert!(
                fut.counters.futures_spawned + fut.counters.futures_inlined > 0,
                "futures path must engage: {:?}",
                fut.counters
            );
            let res = prog
                .run(InterpOptions {
                    engine: Engine::Resolved,
                    ..opt(threads, true)
                })
                .expect("futures resolved");
            assert_eq!(res.exit_code, seq.exit_code, "threads={threads}");
            assert_eq!(
                res.counters.without_memo(),
                seq.counters.without_memo(),
                "threads={threads}"
            );
        }
    }

    /// With memo on, a hit must never spawn: fib's memoized run sees at
    /// most one executed body per distinct argument, futures or not.
    #[test]
    fn memo_hit_never_spawns() {
        let prog = program_with_pure(FIB_LOCALS, &["fib"]);
        let r = prog
            .run(InterpOptions {
                threads: 4,
                ..Default::default()
            })
            .expect("memoized futures run");
        assert_eq!(r.exit_code, (987 + 610) % 251);
        // Every distinct argument misses once somewhere; futures and
        // shards may split the work, but the spawn count can never
        // exceed the distinct-argument count (0..=16 plus the two main
        // calls) — a hit resolves at the spawn site without a task.
        assert!(
            r.counters.futures_spawned <= r.counters.memo_misses,
            "{:?}",
            r.counters
        );
    }

    /// Futures spawned *inside* a pool-routed parallel region: the
    /// worker's await helps instead of deadlocking the finite pool.
    #[test]
    fn futures_inside_parallel_regions_complete_and_match() {
        let src = "\
pure int tree(int n, int s) {
    if (n < 2) return n + s % 3;
    int a = tree(n - 1, s);
    int b = tree(n - 2, s + 1);
    return a + b;
}
int main() {
    int* out = (int*) malloc(24 * sizeof(int));
#pragma omp parallel for schedule(dynamic,2)
    for (int i = 0; i < 24; i++) out[i] = tree(8 + i % 4, i);
    int acc = 0;
    for (int i = 0; i < 24; i++) acc += out[i];
    printf(\"acc=%d\\n\", acc);
    return acc % 113;
}
";
        let prog = program_with_pure(src, &["tree"]);
        assert!(!prog.resolved().spawn_sites().is_empty());
        let opt = |futures: bool| InterpOptions {
            threads: 4,
            futures,
            memo: false,
            ..Default::default()
        };
        let base = prog.run(opt(false)).expect("no-futures");
        let fut = prog.run(opt(true)).expect("futures");
        assert_eq!(fut.exit_code, base.exit_code);
        assert_eq!(fut.output, base.output);
        assert_eq!(fut.counters.without_memo(), base.counters.without_memo());
        let legacy = prog.run_legacy(opt(true)).expect("legacy");
        assert_eq!(legacy.exit_code, base.exit_code);
        assert_eq!(legacy.output, base.output);
    }

    /// A runtime error inside a spawned pure call surfaces at the join
    /// as a `RuntimeError` (not a hang, not a panic), on both engines.
    #[test]
    fn future_error_propagates_at_await() {
        let src = "\
pure int bad(int n) {
    int acc = 0;
    for (int i = 0; i < 4; i++) acc += i / (n - n);
    return acc;
}
int main() { int a = bad(7); int b = bad(9); return a + b; }
";
        let prog = program_with_pure(src, &["bad"]);
        assert_eq!(prog.resolved().spawn_sites(), vec![("main", 1)]);
        for engine in [Engine::Bytecode, Engine::Resolved] {
            for futures in [false, true] {
                let err = prog
                    .run(InterpOptions {
                        threads: 4,
                        engine,
                        futures,
                        ..Default::default()
                    })
                    .expect_err("division by zero must error");
                assert!(
                    err.message.contains("division by zero"),
                    "{engine:?} futures={futures}: {}",
                    err.message
                );
            }
        }
    }

    /// A runtime error raised inside a pool-routed region surfaces as a
    /// `RuntimeError` (not a hang, not a panic) — and the shared pool
    /// keeps working afterwards.
    #[test]
    fn pooled_region_error_propagates() {
        let src = "\
int main() {
    int* a = (int*) malloc(4 * sizeof(int));
#pragma omp parallel for schedule(dynamic,1)
    for (int i = 0; i < 16; i++) {
        a[i] = i;
    }
    return 0;
}
";
        let prog = program(src);
        let err = prog
            .run(InterpOptions {
                threads: 4,
                ..Default::default()
            })
            .expect_err("out-of-bounds store must error");
        assert!(
            err.message.contains("out of bounds"),
            "unexpected error: {}",
            err.message
        );
        // The pool survives a failed region: a healthy program still runs.
        let ok = program("int main() { return 7; }")
            .run(InterpOptions {
                threads: 4,
                ..Default::default()
            })
            .expect("pool still healthy");
        assert_eq!(ok.exit_code, 7);
    }
}
