//! Runtime values and the shared memory model of the interpreter.
//!
//! Memory is slot-based: every scalar occupies one 8-byte heap cell and
//! `sizeof(T) == 8` for every scalar type, so `malloc(3 * sizeof(int))`
//! yields three cells and pointer arithmetic is element-wise. This keeps
//! the machine model uniform (LP64-slot) without altering any program the
//! evaluation uses.
//!
//! A cell holds the same NaN-boxed word ([`Packed`]) as the bytecode VM's
//! frames and the [`GlobalTable`]: one codec, [`Packed::try_inline`],
//! decides what fits a word everywhere. Frames, globals and the heap
//! differ only in where a too-wide value goes — the VM's [`SpillPool`],
//! the globals' shared overflow table, and for a heap cell its
//! allocation's own side table, one entry per cell (see [`Allocation`]).
//!
//! Allocations are individually `Sync`: verified-pure parallel loops
//! write *disjoint* slots (that is exactly what the purity pass +
//! dependence analysis guarantee), so slot accesses go through
//! `UnsafeCell` without per-access locking. A race-check mode in the
//! interpreter validates disjointness on small runs before anything is
//! executed in parallel.
//!
//! The allocation *table* itself is a lock-free segmented array
//! ([`AppendTable`]): `load`/`store` resolve an allocation id with three
//! `Acquire` loads and **zero** lock acquisitions, while `alloc`
//! serializes writers on a mutex that readers never touch. See the
//! `AppendTable` docs for the publication protocol and its invariants.
//!
//! Allocation **ids** are append-only and never reused; allocation
//! **storage** is not: `free` gives the cells, the side table and the
//! `Box<Allocation>` back to the host and refunds the byte budget,
//! leaving the id pointing at one shared tombstone so a dangling `Ptr`
//! keeps failing with the same diagnostics. Reclamation happens at once
//! when no `omp parallel for` region is in flight and at the outermost
//! region's join otherwise — see [`Memory::free`] and
//! [`Memory::enter_region`].

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::HashSet;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A typed pointer: allocation id + element index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ptr {
    pub alloc: u32,
    pub index: i64,
}

impl Ptr {
    pub fn offset(self, delta: i64) -> Ptr {
        Ptr {
            alloc: self.alloc,
            index: self.index + delta,
        }
    }
}

/// One runtime scalar slot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Scalar {
    #[default]
    Uninit,
    I(i64),
    F(f64),
    P(Ptr),
    Null,
}

impl Scalar {
    pub fn as_i64(self) -> i64 {
        match self {
            Scalar::I(v) => v,
            Scalar::F(v) => v as i64,
            Scalar::Null => 0,
            Scalar::Uninit => 0,
            Scalar::P(_) => 1, // pointers are truthy
        }
    }

    pub fn as_f64(self) -> f64 {
        match self {
            Scalar::I(v) => v as f64,
            Scalar::F(v) => v,
            _ => 0.0,
        }
    }

    pub fn truthy(self) -> bool {
        match self {
            Scalar::I(v) => v != 0,
            Scalar::F(v) => v != 0.0,
            Scalar::P(_) => true,
            Scalar::Null | Scalar::Uninit => false,
        }
    }

    pub fn is_float(self) -> bool {
        matches!(self, Scalar::F(_))
    }
}

/// One heap cell: a NaN-boxed [`Packed`] word.
type Cell = UnsafeCell<u64>;

/// One entry of an allocation's side table: the 64 bits of the wide
/// value of the cell with the same index that its spill word has no room
/// for (see [`wide_parts`]), uninitialised until that cell's first wide
/// store.
type SideEntry = UnsafeCell<MaybeUninit<u64>>;

/// Bytes one heap cell takes, and what `--max-memory` charges a slot:
/// the cap is the cells' physical size (a wide value's side entry is
/// bounded by the allocation's length, freed with it and not charged).
const CELL_BYTES: u64 = std::mem::size_of::<Cell>() as u64;

/// What kind of wide value a cell's spill word announces: bits 32–33 of
/// its payload. A pointer keeps its alloc id in bits 0–31.
const WIDE_KIND: u64 = 3 << 32;
const WIDE_INT: u64 = 0;
const WIDE_FLOAT: u64 = 1 << 32;
const WIDE_PTR: u64 = 2 << 32;

/// A wide value as its cell's spill word and its side entry: the int's or
/// float's 64 bits, or a pointer's index, go to the entry.
fn wide_parts(v: Scalar) -> (u64, u64) {
    let spill = TAG_SPILL << 48;
    match v {
        Scalar::I(i) => (spill | WIDE_INT, i as u64),
        Scalar::F(f) => (spill | WIDE_FLOAT, f.to_bits()),
        Scalar::P(p) => (spill | WIDE_PTR | u64::from(p.alloc), p.index as u64),
        Scalar::Null | Scalar::Uninit => unreachable!("null and uninit always fit a word"),
    }
}

/// The wide value a cell's spill word and its side entry make up.
fn wide_value(word: Packed, entry: u64) -> Scalar {
    match word.0 & WIDE_KIND {
        WIDE_INT => Scalar::I(entry as i64),
        WIDE_FLOAT => Scalar::F(f64::from_bits(entry)),
        _ => Scalar::P(Ptr {
            alloc: word.0 as u32,
            index: entry as i64,
        }),
    }
}

/// One allocation: a fixed-size vector of 8-byte cells with interior
/// mutability.
///
/// A value that does not fit a word inline (an int past ±2⁴⁷, a pointer
/// with alloc id ≥ 2²⁴ or |index| ≥ 2²³, a tag-window NaN) goes to the
/// allocation's **side table**, a dense array of one 8-byte entry per
/// cell: the cell holds a spill word naming the value's kind, and the
/// entry the 64 bits the word has no room for. The protocol:
///
/// * the table is one null pointer until the first wide store, which
///   allocates all `len` entries, uninitialised, and publishes them
///   with a compare-and-swap (a racing first store frees its own copy
///   and uses the winner's);
/// * a wide store writes the slot's entry *before* the cell's spill
///   word, so whoever reads the word finds its entry;
/// * entries are never removed before the allocation is reclaimed — a
///   cell that goes back to an inline value leaves its entry unread
///   until the slot's next wide store overwrites it — so no store grows
///   the table past `len` entries;
/// * the table is dropped with the `Box<Allocation>`.
///
/// Entries are accessed like cells, without a lock, under the same
/// distinct-slots argument.
pub struct Allocation {
    slots: Vec<Cell>,
    freed: AtomicU64,
    /// The side table's first entry (`slots.len()` of them), or null.
    side: AtomicPtr<SideEntry>,
}

// SAFETY: concurrent access to *distinct* slots is sound; access to the
// same slot from multiple threads without synchronization is excluded by
// the purity/dependence verification (and validated by race-check mode).
// A side entry belongs to its slot and is accessed only with it.
unsafe impl Sync for Allocation {}
unsafe impl Send for Allocation {}

/// What the table entry of every reclaimed allocation points at: no
/// slots, freed flag set, never dropped. The freed check of every access
/// and `free`'s flag swap therefore answer a reclaimed id exactly as
/// they answered a flagged one.
static TOMBSTONE: Allocation = Allocation {
    slots: Vec::new(),
    freed: AtomicU64::new(1),
    side: AtomicPtr::new(std::ptr::null_mut()),
};

impl Allocation {
    /// `len` cells all holding `fill`; `None` when the host cannot
    /// supply the storage (absurd sizes included — never a panic).
    fn try_new(len: usize, fill: Packed) -> Option<Self> {
        let mut slots = Vec::new();
        slots.try_reserve_exact(len).ok()?;
        slots.resize_with(len, || UnsafeCell::new(fill.0));
        Some(Allocation {
            slots,
            freed: AtomicU64::new(0),
            side: AtomicPtr::new(std::ptr::null_mut()),
        })
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn is_freed(&self) -> bool {
        self.freed.load(Ordering::Acquire) != 0
    }

    /// The word in cell `i` (`i < len`, checked by the caller).
    #[inline(always)]
    fn word(&self, i: usize) -> Packed {
        // SAFETY: see the `Sync` justification above.
        Packed(unsafe { *self.slots[i].get() })
    }

    #[inline(always)]
    fn set_word(&self, i: usize, w: u64) {
        // SAFETY: see the `Sync` justification above.
        unsafe { *self.slots[i].get() = w };
    }

    /// The side table, once the first wide store has published it.
    fn side(&self) -> Option<&[SideEntry]> {
        let side = self.side.load(Ordering::Acquire);
        // SAFETY: a non-null `side` is the boxed slice of `slots.len()`
        // entries that `side_table` published; only `drop` frees it.
        (!side.is_null()).then(|| unsafe { std::slice::from_raw_parts(side, self.slots.len()) })
    }

    /// The value of cell `i`, side entry included.
    fn value(&self, i: usize) -> Scalar {
        let w = self.word(i);
        w.decode(|_| self.side_value(i, w))
    }

    /// The wide value of cell `i`, whose spill word is `w`.
    #[inline]
    fn side_value(&self, i: usize, w: Packed) -> Scalar {
        let side = self
            .side()
            .expect("the side table of a spill-tagged cell is published before the cell's word");
        // SAFETY: see the `Sync` justification above; the entry was
        // written before the cell's spill word, so it is initialised.
        wide_value(w, unsafe { (*side[i].get()).assume_init() })
    }

    /// Cell `i`'s wide value (`w` is its spill word), handed to `wide`.
    /// Out of line, like [`Allocation::store_wide`]: the VM's dispatch
    /// loop keeps only the inline-word path.
    #[inline(never)]
    fn load_wide(&self, i: usize, w: Packed, wide: impl FnOnce(Scalar) -> Packed) -> Packed {
        wide(self.side_value(i, w))
    }

    /// Store the value `wide` reads from the VM word `w` into cell `i`.
    #[inline(never)]
    fn store_wide(
        &self,
        i: usize,
        w: Packed,
        wide: impl FnOnce(Packed) -> Scalar,
    ) -> Result<(), MemError> {
        self.set_value(i, wide(w))
    }

    /// Store `v` into cell `i`: inline when it fits a word, else through
    /// the side table, entry first. Fails only when the host cannot
    /// supply the table.
    fn set_value(&self, i: usize, v: Scalar) -> Result<(), MemError> {
        match Packed::try_inline(v) {
            Some(w) => self.set_word(i, w.0),
            None => {
                let side = match self.side() {
                    Some(side) => side,
                    None => self.side_table()?,
                };
                let (word, entry) = wide_parts(v);
                // SAFETY: see the `Sync` justification above.
                unsafe { *side[i].get() = MaybeUninit::new(entry) };
                self.set_word(i, word);
            }
        }
        Ok(())
    }

    /// Create and publish the side table (the first wide store).
    #[cold]
    #[inline(never)]
    fn side_table(&self) -> Result<&[SideEntry], MemError> {
        let len = self.slots.len();
        let mut entries: Vec<SideEntry> = Vec::new();
        if entries.try_reserve_exact(len).is_err() {
            let bytes = len.saturating_mul(std::mem::size_of::<SideEntry>());
            return Err(MemError::at_limit(format!(
                "memory limit exceeded: the host cannot supply {bytes} bytes"
            )));
        }
        // Entries start uninitialised (see `SideEntry`).
        entries.resize_with(len, || UnsafeCell::new(MaybeUninit::uninit()));
        let fresh = Box::into_raw(entries.into_boxed_slice()).cast::<SideEntry>();
        if self
            .side
            .compare_exchange(
                std::ptr::null_mut(),
                fresh,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            // SAFETY: `fresh` lost the race and was never published.
            drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(fresh, len)) });
        }
        Ok(self
            .side()
            .expect("a side table is published by the allocation's first wide store"))
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        let side = *self.side.get_mut();
        if !side.is_null() {
            // SAFETY: the boxed slice of `slots.len()` entries that
            // `side_table` published; nothing else can reach it once the
            // allocation is being dropped.
            let len = self.slots.len();
            drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(side, len)) });
        }
    }
}

/// Which access failed, for the out-of-bounds message.
#[derive(Clone, Copy)]
enum Access {
    Load,
    Store,
}

// Error construction is off every access's inlined fast path.

#[cold]
#[inline(never)]
fn invalid_allocation(id: u32) -> MemError {
    MemError::new(format!("invalid allocation {id}"))
}

#[cold]
#[inline(never)]
fn use_after_free() -> MemError {
    MemError::new("use after free")
}

#[cold]
#[inline(never)]
fn bad_index(index: i64, len: usize, access: Access) -> MemError {
    let what = match access {
        Access::Load => "load",
        Access::Store => "store",
    };
    match usize::try_from(index) {
        Err(_) => MemError::new(format!("negative index {index}")),
        Ok(idx) => MemError::new(format!("{what} out of bounds at index {idx} (len {len})")),
    }
}

// ---------------------------------------------------------------------------
// Lock-free append-only table (the heap's allocation index + global spill)
// ---------------------------------------------------------------------------

/// Number of segments in an [`AppendTable`]; segment `k` holds
/// `SEG0_CAP << k` entries, so total capacity is `SEG0_CAP * (2^26 - 1)`
/// = 4 294 967 232 — every index fits a `u32` with no wraparound.
const SEG_COUNT: usize = 26;
const SEG0_CAP: usize = 64;

/// Capacity of an [`AppendTable`] (and therefore the maximum number of
/// live-or-freed allocations a [`Memory`] can index).
const TABLE_CAPACITY: usize = SEG0_CAP * ((1 << SEG_COUNT) - 1);

/// Segment index and in-segment offset of entry `i`.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let bucket = i / SEG0_CAP + 1;
    let k = (usize::BITS - 1 - bucket.leading_zeros()) as usize;
    (k, i - SEG0_CAP * ((1 << k) - 1))
}

/// A concurrent append-only table with **lock-free reads**: a segmented
/// pointer array whose segments are allocated on demand and never move,
/// so an entry's address is stable for the table's lifetime and `get`
/// needs no lock, no reference-count traffic and no retry loop.
///
/// Publication protocol (the scheme's entire correctness argument):
///
/// * writers are serialized by `writer`; a push boxes the value, stores
///   the pointer into its slot (`Release`), then bumps the published
///   `len` (`Release`);
/// * readers bounds-check against `len` (`Acquire`) **first** — any
///   index below it has its segment pointer and slot pointer fully
///   published by the corresponding `Release` stores;
/// * indices are never removed or reused, and an entry is replaced at
///   most once, by the table's tombstone, through the `unsafe`
///   [`AppendTable::retire`] — whose caller guarantees no reader can
///   hold or be fetching the entry — so a `&T` handed out by `get`
///   stays valid for as long as its holder may use it. A table built
///   with [`AppendTable::new`] has no tombstone and is append-only (the
///   global spill table).
pub(crate) struct AppendTable<T> {
    /// Pointer to the first slot of segment `k` (null until allocated).
    segs: [AtomicPtr<AtomicPtr<T>>; SEG_COUNT],
    /// Published entry count; entries `0..len` are fully visible.
    len: AtomicUsize,
    /// Serializes `push` (readers never touch it).
    writer: Mutex<()>,
    /// The never-dropped entry `retire` swaps in (null: no `retire`).
    tombstone: *mut T,
}

// SAFETY: shared access is mediated by the atomics above; `T` itself is
// only shared by reference, and `tombstone` is either null or a
// `&'static T` that is only ever read.
unsafe impl<T: Send + Sync> Send for AppendTable<T> {}
unsafe impl<T: Send + Sync> Sync for AppendTable<T> {}

impl<T> AppendTable<T> {
    pub(crate) fn new() -> Self {
        AppendTable {
            segs: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicUsize::new(0),
            writer: Mutex::new(()),
            tombstone: std::ptr::null_mut(),
        }
    }

    /// A table whose entries can be [`retire`](Self::retire)d: a retired
    /// index resolves to `tombstone` from then on.
    pub(crate) fn with_tombstone(tombstone: &'static T) -> Self {
        let mut table = Self::new();
        table.tombstone = tombstone as *const T as *mut T;
        table
    }

    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Append `value`; returns its index, or `None` when the table is
    /// full (the checked id conversion — callers turn this into an error
    /// instead of silently aliasing entry 0).
    pub(crate) fn push(&self, value: T) -> Option<usize> {
        let _g = self.writer.lock();
        let n = self.len.load(Ordering::Relaxed);
        if n >= TABLE_CAPACITY {
            return None;
        }
        let (k, off) = locate(n);
        let mut seg = self.segs[k].load(Ordering::Relaxed);
        if seg.is_null() {
            let fresh: Box<[AtomicPtr<T>]> = (0..SEG0_CAP << k)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect();
            seg = Box::into_raw(fresh) as *mut AtomicPtr<T>;
            self.segs[k].store(seg, Ordering::Release);
        }
        let boxed = Box::into_raw(Box::new(value));
        // SAFETY: `off < SEG0_CAP << k` by construction of `locate`.
        unsafe { (*seg.add(off)).store(boxed, Ordering::Release) };
        self.len.store(n + 1, Ordering::Release);
        Some(n)
    }

    /// Lock-free entry lookup.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len.load(Ordering::Acquire) {
            return None;
        }
        let (k, off) = locate(i);
        let seg = self.segs[k].load(Ordering::Acquire);
        debug_assert!(!seg.is_null(), "published index without a segment");
        // SAFETY: `i < len` ⇒ the slot's pointer was published before
        // `len` (Release/Acquire pairing on `len`); it is the boxed
        // entry, freed only by `retire` (whose contract excludes this
        // reader) or by the table's drop, or the `'static` tombstone.
        unsafe { Some(&*(*seg.add(off)).load(Ordering::Acquire)) }
    }

    /// Replace entry `i` with the tombstone and hand back the value it
    /// held (`None`: out of range or already retired).
    ///
    /// # Safety
    ///
    /// No reference obtained from `get(i)` may still be in use, and no
    /// other thread may call `get(i)` while this call runs: the returned
    /// box is the storage those references point into.
    pub(crate) unsafe fn retire(&self, i: usize) -> Option<Box<T>> {
        assert!(!self.tombstone.is_null(), "retire on an append-only table");
        if i >= self.len.load(Ordering::Acquire) {
            return None;
        }
        let (k, off) = locate(i);
        let seg = self.segs[k].load(Ordering::Acquire);
        // SAFETY: `i < len` ⇒ segment and slot are published (as in
        // `get`); a non-tombstone pointer is the box `push` leaked, and
        // the caller guarantees nobody else can reach it any more.
        unsafe {
            let old = (*seg.add(off)).swap(self.tombstone, Ordering::AcqRel);
            (old != self.tombstone).then(|| Box::from_raw(old))
        }
    }
}

impl<T> Drop for AppendTable<T> {
    fn drop(&mut self) {
        let n = *self.len.get_mut();
        for k in 0..SEG_COUNT {
            let seg = *self.segs[k].get_mut();
            if seg.is_null() {
                continue;
            }
            let cap = SEG0_CAP << k;
            let start = SEG0_CAP * ((1 << k) - 1);
            // SAFETY: reconstructing exactly the boxed slice `push`
            // leaked, and the boxed entries published below `len` —
            // minus the retired ones, whose boxes `retire` already gave
            // away and whose slots hold the never-dropped tombstone.
            unsafe {
                let slice = std::slice::from_raw_parts_mut(seg, cap);
                for (j, slot) in slice.iter_mut().enumerate() {
                    let entry = *slot.get_mut();
                    if start + j < n && entry != self.tombstone {
                        drop(Box::from_raw(entry));
                    }
                }
                drop(Box::from_raw(slice as *mut [AtomicPtr<T>]));
            }
        }
    }
}

/// What the clones of a [`Memory`] share besides the table: the byte
/// accounting and the deferred-reclamation state.
///
/// `live` is charged at `try_alloc` and refunded when an allocation's
/// storage is **reclaimed** (not when `free` is called — the two differ
/// while a region is in flight), so it is the heap's physical footprint
/// at every instant and `cap` bounds *live* bytes: a loop of balanced
/// `malloc`/`free` pairs never accumulates charge. One atomic total is
/// shared by the whole execution (parallel regions and futures
/// included).
struct HeapState {
    live: AtomicU64,
    peak: AtomicU64,
    cap: Option<u64>,
    frees: AtomicU64,
    /// `omp parallel for` regions in flight (nesting and concurrent
    /// inner regions both count). Nonzero ⇒ `free` defers.
    regions: AtomicUsize,
    /// Ids freed while `regions > 0`, reclaimed when it returns to 0.
    retired: Mutex<Vec<u32>>,
}

/// Whole-run heap totals ([`Memory::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Allocation ids issued (statics and string literals included).
    pub allocations: u64,
    /// Successful `free` calls.
    pub frees: u64,
    /// High-water mark of live heap bytes.
    pub peak_live_bytes: u64,
}

/// The program heap + statics. Cloning the handle shares the memory
/// (and its byte accounting).
#[derive(Clone)]
pub struct Memory {
    allocs: Arc<AppendTable<Allocation>>,
    heap: Arc<HeapState>,
}

/// One `omp parallel for` region in flight on a [`Memory`]
/// ([`Memory::enter_region`]); dropping the outermost one reclaims what
/// was freed meanwhile.
#[must_use = "the region ends when the guard drops"]
pub struct RegionGuard<'m>(&'m Memory);

impl Drop for RegionGuard<'_> {
    fn drop(&mut self) {
        let heap = &self.0.heap;
        // AcqRel: the decrement that reaches 0 must see every worker's
        // last heap access (ordered before the join that precedes this
        // drop) before the storage goes away.
        if heap.regions.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let retired = std::mem::take(&mut *heap.retired.lock());
        if retired.is_empty() {
            return;
        }
        // Gauges read the footprint the region built up, before it goes.
        let metrics = machine::omprt::instrument::metrics();
        metrics.heap_deferred_frees.sample(retired.len() as u64);
        metrics
            .heap_live_bytes
            .sample(heap.live.load(Ordering::Relaxed));
        for id in retired {
            // SAFETY: the count just returned to 0, so every region has
            // joined: the dropping thread is the only one running
            // program code, and it holds no `&Allocation` here.
            unsafe { self.0.reclaim(id) };
        }
    }
}

/// Errors surfaced by memory operations (out-of-bounds, use-after-free…).
/// `limit` marks the configured memory ceiling firing — a governable
/// resource trap ([`crate::Trap::MemoryLimit`]) rather than a program
/// bug — so engines can attach the trap kind when converting to a
/// runtime error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemError {
    pub message: String,
    pub limit: bool,
}

impl MemError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        MemError {
            message: message.into(),
            limit: false,
        }
    }

    pub(crate) fn at_limit(message: String) -> Self {
        MemError {
            message,
            limit: true,
        }
    }
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory error: {}", self.message)
    }
}

impl Memory {
    pub fn new() -> Self {
        Self::with_limit(None)
    }

    /// A heap whose live allocation footprint is capped at `max_bytes`
    /// (`None` = unlimited).
    pub fn with_limit(max_bytes: Option<u64>) -> Self {
        Memory {
            allocs: Arc::new(AppendTable::with_tombstone(&TOMBSTONE)),
            heap: Arc::new(HeapState {
                live: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                cap: max_bytes,
                frees: AtomicU64::new(0),
                regions: AtomicUsize::new(0),
                retired: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Live bytes charged right now, when a cap is configured.
    pub fn used_bytes(&self) -> Option<u64> {
        self.heap
            .cap
            .map(|_| self.heap.live.load(Ordering::Relaxed))
    }

    /// The configured byte ceiling, if any.
    pub fn limit_bytes(&self) -> Option<u64> {
        self.heap.cap
    }

    /// Whole-run totals for `--stats`.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            allocations: self.allocs.len() as u64,
            frees: self.heap.frees.load(Ordering::Relaxed),
            peak_live_bytes: self.heap.peak.load(Ordering::Relaxed),
        }
    }

    /// Allocate `len` uninitialised slots; returns a pointer to element
    /// 0. Errors when the allocation-id space is exhausted — the id is a
    /// **checked** conversion, so a pathological program gets a
    /// diagnostic instead of a pointer silently aliasing allocation 0 —
    /// or, as `MemError::limit`, when the configured byte ceiling would
    /// be exceeded or the host cannot supply the storage.
    pub fn try_alloc(&self, len: usize) -> Result<Ptr, MemError> {
        self.alloc_filled(len, Packed::UNINIT)
    }

    /// [`Memory::try_alloc`] with every slot holding integer 0
    /// (`calloc`).
    pub fn try_alloc_zeroed(&self, len: usize) -> Result<Ptr, MemError> {
        self.alloc_filled(len, Packed::ZERO)
    }

    /// A declared array in the nested spine-of-pointers layout: `T a[2][3]`
    /// is two slots of pointers to three-slot rows; no dimension at all
    /// is one slot.
    pub fn try_alloc_array(&self, dims: &[usize]) -> Result<Ptr, MemError> {
        match dims {
            [] => self.try_alloc(1),
            [n] => self.try_alloc(*n),
            [first, rest @ ..] => {
                let spine = self.try_alloc(*first)?;
                for i in 0..*first {
                    let sub = self.try_alloc_array(rest)?;
                    self.store(spine.offset(i as i64), Scalar::P(sub))
                        .expect("fresh spine in bounds");
                }
                Ok(spine)
            }
        }
    }

    fn alloc_filled(&self, len: usize, fill: Packed) -> Result<Ptr, MemError> {
        let slots = len.max(1);
        let bytes = (slots as u64).saturating_mul(CELL_BYTES);
        #[cfg(feature = "fault-inject")]
        if machine::fault::should_fail_alloc() {
            return Err(MemError::at_limit(format!(
                "memory limit exceeded: injected allocation failure ({bytes} bytes requested)"
            )));
        }
        let heap = &*self.heap;
        // Optimistic charge; every failure below rolls it back so
        // concurrent allocations racing the ceiling do not eat budget
        // they never got.
        let before = heap.live.fetch_add(bytes, Ordering::Relaxed);
        let refused = |e: MemError| {
            heap.live.fetch_sub(bytes, Ordering::Relaxed);
            e
        };
        if let Some(cap) = heap.cap {
            if before.saturating_add(bytes) > cap {
                return Err(refused(MemError::at_limit(format!(
                    "memory limit exceeded: requested {bytes} bytes with {before} of {cap} in use"
                ))));
            }
        }
        let allocation = Allocation::try_new(slots, fill).ok_or_else(|| {
            refused(MemError::at_limit(format!(
                "memory limit exceeded: the host cannot supply {bytes} bytes"
            )))
        })?;
        let id = self.allocs.push(allocation).ok_or_else(|| {
            refused(MemError::new(format!(
                "allocation id space exhausted ({TABLE_CAPACITY} allocations)"
            )))
        })?;
        heap.peak
            .fetch_max(before.saturating_add(bytes), Ordering::Relaxed);
        Ok(Ptr {
            alloc: id as u32,
            index: 0,
        })
    }

    /// [`Memory::try_alloc`], panicking on id-space exhaustion. Every
    /// allocation costs at least one interpreter step, and the table
    /// holds > 4 × 10⁹ entries, so the panic is unreachable under the
    /// interpreter's step limit; it exists so the exhaustion case is loud
    /// rather than an aliased pointer.
    pub fn alloc(&self, len: usize) -> Ptr {
        self.try_alloc(len)
            .expect("allocation id space exhausted (u32 ids)")
    }

    /// Mark one `omp parallel for` region in flight until the guard
    /// drops. The region protocol (`crate::region::launch`) wraps every
    /// launch — at every thread count, 1 included — in one of these: while any is alive, `free`
    /// only flags the allocation and queues its id, because another
    /// iteration may be mid-access on the same `&Allocation`; the
    /// outermost guard's drop, after the join, reclaims the queue.
    pub fn enter_region(&self) -> RegionGuard<'_> {
        self.heap.regions.fetch_add(1, Ordering::AcqRel);
        RegionGuard(self)
    }

    /// Free an allocation: its slots become inaccessible at once, and
    /// its storage goes back to the host (and its bytes back to the
    /// budget) now — or, inside a region, at the outermost region's
    /// join.
    ///
    /// Reclaiming at once is sound because code that uses one `Memory`
    /// from several threads does so under [`Memory::enter_region`]:
    /// with no region in flight the caller is the only thread running
    /// program code (pure-call futures run cacheable functions only,
    /// and those perform no memory operation at all).
    pub fn free(&self, p: Ptr) -> Result<(), MemError> {
        let a = self
            .allocs
            .get(p.alloc as usize)
            .ok_or_else(|| MemError::new(format!("free of invalid allocation {}", p.alloc)))?;
        if p.index != 0 {
            return Err(MemError::new("free of interior pointer"));
        }
        if a.freed.swap(1, Ordering::AcqRel) != 0 {
            return Err(MemError::new("double free"));
        }
        let heap = &*self.heap;
        heap.frees.fetch_add(1, Ordering::Relaxed);
        if heap.regions.load(Ordering::Acquire) == 0 {
            machine::omprt::instrument::metrics()
                .heap_live_bytes
                .sample(heap.live.load(Ordering::Relaxed));
            // SAFETY: no region in flight ⇒ no other thread runs program
            // code (see above), and `a` is not used past this point.
            unsafe { self.reclaim(p.alloc) };
        } else {
            heap.retired.lock().push(p.alloc);
        }
        Ok(())
    }

    /// Give allocation `id`'s storage back and refund its bytes.
    ///
    /// # Safety
    ///
    /// As [`AppendTable::retire`]: no thread may hold or be fetching a
    /// reference to the allocation.
    unsafe fn reclaim(&self, id: u32) {
        // SAFETY: forwarded to the caller.
        if let Some(a) = unsafe { self.allocs.retire(id as usize) } {
            self.heap
                .live
                .fetch_sub(CELL_BYTES * a.len() as u64, Ordering::Relaxed);
        }
    }

    /// Resolve `p` to its allocation and cell index — the hot path of
    /// every heap access, inlined into it. Zero locks: the id resolves
    /// through [`AppendTable::get`] and the freed flag is an atomic load
    /// (set on a freed allocation and on the tombstone a reclaimed id
    /// resolves to alike); every error is built out of line.
    #[inline(always)]
    fn cell(&self, p: Ptr, access: Access) -> Result<(&Allocation, usize), MemError> {
        let Some(a) = self.allocs.get(p.alloc as usize) else {
            return Err(invalid_allocation(p.alloc));
        };
        if a.is_freed() {
            return Err(use_after_free());
        }
        match usize::try_from(p.index) {
            Ok(i) if i < a.slots.len() => Ok((a, i)),
            _ => Err(bad_index(p.index, a.len(), access)),
        }
    }

    pub fn load(&self, p: Ptr) -> Result<Scalar, MemError> {
        let (a, i) = self.cell(p, Access::Load)?;
        Ok(a.value(i))
    }

    pub fn store(&self, p: Ptr, v: Scalar) -> Result<(), MemError> {
        let (a, i) = self.cell(p, Access::Store)?;
        a.set_value(i, v)
    }

    /// The word in `p`'s cell, as the VM's operand stack holds it: an
    /// inline word as it is, and a wide value (a spill-tagged cell) as
    /// `wide` files it in the caller's own overflow storage. Either way
    /// the pointer is resolved once.
    ///
    /// Inlined into the VM's dispatch loop in optimised builds. In
    /// unoptimised ones it stays a call: there every inlined copy would
    /// keep its own temporaries in `Vm::exec`'s frame, one frame per
    /// interpreted call.
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub(crate) fn load_word(
        &self,
        p: Ptr,
        wide: impl FnOnce(Scalar) -> Packed,
    ) -> Result<Packed, MemError> {
        let (a, i) = self.cell(p, Access::Load)?;
        let w = a.word(i);
        Ok(match w.spill_index() {
            None => w,
            Some(_) => a.load_wide(i, w, wide),
        })
    }

    /// Store `w` into `p`'s cell: an inline word as it is, and a
    /// reference into the caller's overflow storage as the value `wide`
    /// reads from it, which goes to the side table. Inlined as
    /// [`Memory::load_word`] is.
    #[cfg_attr(not(debug_assertions), inline(always))]
    pub(crate) fn store_word(
        &self,
        p: Ptr,
        w: Packed,
        wide: impl FnOnce(Packed) -> Scalar,
    ) -> Result<(), MemError> {
        let (a, i) = self.cell(p, Access::Store)?;
        match w.spill_index() {
            None => {
                a.set_word(i, w.0);
                Ok(())
            }
            Some(_) => a.store_wide(i, w, wide),
        }
    }

    pub fn alloc_len(&self, p: Ptr) -> Option<usize> {
        self.allocs.get(p.alloc as usize).map(|a| a.len())
    }

    pub fn allocation_count(&self) -> usize {
        self.allocs.len()
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// NaN-boxed scalars (the bytecode VM's value representation)
// ---------------------------------------------------------------------------

/// NaN-box tag prefixes (top 16 bits of the packed word).
///
/// All tags live inside the IEEE-754 negative quiet-NaN space
/// (`0xFFF9..=0xFFFD` prefixes): every bit pattern whose top 16 bits fall
/// *outside* that window is a plain `f64`. The two NaN patterns hardware
/// actually produces — the positive and negative canonical quiet NaNs,
/// `0x7FF8…` and `0xFFF8…` — stay representable as raw floats; the tag
/// window only occupies payload-carrying negative NaNs that no float
/// operation in the interpreter can generate.
const TAG_INT: u64 = 0xFFF9;
const TAG_PTR: u64 = 0xFFFA;
const TAG_SPILL: u64 = 0xFFFB;
const TAG_NULL: u64 = 0xFFFC;
const TAG_UNINIT: u64 = 0xFFFD;

const PAYLOAD_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;

#[cfg(test)]
thread_local! {
    /// Values this thread has spilled, over all pools (unit tests count
    /// the spills of a 1-thread run with it).
    pub(crate) static SPILL_PUSHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Overflow side-pool for [`Scalar`]s that do not fit a packed word
/// inline: integers beyond 48 bits, pointers with huge alloc ids or
/// offsets, and float bit patterns that collide with the tag window.
/// A [`Packed`] spill word carries its entry's index.
///
/// The pool is **single-owner** (one per VM instance, `RefCell` inside —
/// no locking): packed words never travel between VMs, so a spill index
/// is only ever resolved against the pool that produced it. A parallel
/// region hands its frame snapshot to children by cloning the parent's
/// entries as an immutable *prefix* of each child pool (`floor` in the
/// VM), below which children never truncate or compact.
///
/// The pool's existence is what makes the `pack ∘ unpack` round trip
/// *bit-exact for every `Scalar`*, not just for the inline range; the VM
/// bounds its growth by compacting live entries (the live set is exactly
/// the spill-tagged words in its frame arena and operand stack) at
/// statement boundaries.
#[derive(Default)]
pub struct SpillPool {
    entries: std::cell::RefCell<Vec<Scalar>>,
}

impl SpillPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// A pool whose initial entries are a snapshot of another pool
    /// (parallel-region prefix handoff).
    pub fn with_entries(entries: Vec<Scalar>) -> Self {
        SpillPool {
            entries: std::cell::RefCell::new(entries),
        }
    }

    /// The slow half of every `pack_*`: out of line, so a packing site
    /// inlines to the fit test and one call. Not `#[cold]` — a loop whose
    /// values live past ±2⁴⁷ takes it on every result.
    #[inline(never)]
    fn spill(&self, v: Scalar) -> Packed {
        self.push(v)
    }

    /// [`Self::spill`] for a wide int, which arrives in a register: a
    /// 24-byte `Scalar` argument travels through the caller's stack and
    /// is read back with one 16-byte load that no single store can
    /// forward to — a stall on every result of a wide-int loop.
    #[inline(never)]
    fn spill_int(&self, i: i64) -> Packed {
        self.push(Scalar::I(i))
    }

    #[inline(always)]
    fn push(&self, v: Scalar) -> Packed {
        #[cfg(test)]
        SPILL_PUSHES.with(|n| n.set(n.get() + 1));
        let mut g = self.entries.borrow_mut();
        let idx = g.len() as u64;
        assert!(idx <= PAYLOAD_MASK, "NaN-box spill pool exhausted");
        g.push(v);
        Packed((TAG_SPILL << 48) | idx)
    }

    fn get(&self, idx: u64) -> Scalar {
        self.entries.borrow()[idx as usize]
    }

    /// The int behind `v`, when `v` is a spill reference to one: a wide
    /// int's way back onto the VM's int path.
    #[inline]
    pub(crate) fn int_at(&self, v: Packed) -> Option<i64> {
        match self.entries.borrow()[v.spill_index()?] {
            Scalar::I(i) => Some(i),
            _ => None,
        }
    }

    /// Direct entry access (compaction).
    pub(crate) fn get_entry(&self, idx: usize) -> Scalar {
        self.entries.borrow()[idx]
    }

    /// Number of spilled values (0 on non-overflowing workloads).
    pub fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.borrow().is_empty()
    }

    /// Drop every entry at or above `n` (per-iteration reset of a
    /// parallel child's scratch region).
    pub fn truncate(&self, n: usize) {
        self.entries.borrow_mut().truncate(n);
    }

    /// Snapshot of all entries (region prefix handoff).
    pub fn entries_snapshot(&self) -> Vec<Scalar> {
        self.entries.borrow().clone()
    }

    /// Clone of the first `n` entries only (compaction keeps the
    /// inherited prefix without copying the garbage above it).
    pub(crate) fn prefix(&self, n: usize) -> Vec<Scalar> {
        self.entries.borrow()[..n].to_vec()
    }

    /// Replace the entries wholesale (compaction).
    pub(crate) fn replace_entries(&self, entries: Vec<Scalar>) {
        *self.entries.borrow_mut() = entries;
    }
}

/// A [`Scalar`] NaN-boxed into a single `u64` word.
///
/// | pattern (top 16 bits) | meaning                                     |
/// |-----------------------|---------------------------------------------|
/// | anything ∉ `FFF9–FFFD`| `F`: the word is the raw `f64` bit pattern  |
/// | `FFF9`                | `I`: 48-bit sign-extended integer payload   |
/// | `FFFA`                | `P`: 24-bit alloc id + 24-bit signed index  |
/// | `FFFB`                | spill: payload indexes the [`SpillPool`]    |
/// | `FFFC`                | `Null`                                      |
/// | `FFFD`                | `Uninit`                                    |
///
/// Frames and operand stacks of the bytecode VM are `Vec<Packed>`: half
/// the size of a `Vec<Scalar>` frame, and a parallel region's private
/// frame setup becomes a flat `u64` memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packed(u64);

impl Packed {
    pub const UNINIT: Packed = Packed(TAG_UNINIT << 48);
    pub const NULL: Packed = Packed(TAG_NULL << 48);
    pub const ZERO: Packed = Packed(TAG_INT << 48);

    /// Raw word (tests / diagnostics).
    pub fn bits(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn pack(v: Scalar, pool: &SpillPool) -> Packed {
        match v {
            Scalar::I(i) => Self::pack_i64(i, pool),
            Scalar::F(f) => Self::pack_f64(f, pool),
            Scalar::P(p) => Self::pack_ptr(p, pool),
            Scalar::Null => Packed::NULL,
            Scalar::Uninit => Packed::UNINIT,
        }
    }

    #[inline]
    pub fn pack_i64(i: i64, pool: &SpillPool) -> Packed {
        match Self::try_inline(Scalar::I(i)) {
            Some(p) => p,
            None => pool.spill_int(i),
        }
    }

    #[inline]
    pub fn pack_f64(f: f64, pool: &SpillPool) -> Packed {
        match Self::try_inline(Scalar::F(f)) {
            Some(p) => p,
            // A NaN bit pattern colliding with the tag window: unreachable
            // through arithmetic, but representable via the fallback.
            None => pool.spill(Scalar::F(f)),
        }
    }

    #[inline]
    pub fn pack_ptr(p: Ptr, pool: &SpillPool) -> Packed {
        match Self::try_inline(Scalar::P(p)) {
            Some(w) => w,
            None => pool.spill(Scalar::P(p)),
        }
    }

    #[inline]
    pub fn unpack(self, pool: &SpillPool) -> Scalar {
        self.decode(|idx| pool.get(idx))
    }

    /// The one decoder: the value of an inline word, and
    /// `spilled(payload)` for a spill reference — the only part the VM's
    /// pool, the globals' table and a heap cell's side table answer
    /// differently.
    #[inline(always)]
    fn decode(self, spilled: impl FnOnce(u64) -> Scalar) -> Scalar {
        match self.0 >> 48 {
            TAG_INT => Scalar::I(((self.0 << 16) as i64) >> 16),
            TAG_PTR => Scalar::P(Ptr {
                alloc: ((self.0 >> 24) & 0xFF_FFFF) as u32,
                index: ((self.0 << 40) as i64) >> 40,
            }),
            TAG_SPILL => spilled(self.0 & PAYLOAD_MASK),
            TAG_NULL => Scalar::Null,
            TAG_UNINIT => Scalar::Uninit,
            _ => Scalar::F(f64::from_bits(self.0)),
        }
    }

    /// Inline integer payload, if this word is an inline-tagged int.
    /// (Spilled big integers return `None` and take the general path.)
    #[inline]
    pub fn as_inline_int(self) -> Option<i64> {
        if self.0 >> 48 == TAG_INT {
            Some(((self.0 << 16) as i64) >> 16)
        } else {
            None
        }
    }

    /// Inline pointer payload, if this word is an inline-tagged pointer.
    #[inline]
    pub fn as_inline_ptr(self) -> Option<Ptr> {
        if self.0 >> 48 == TAG_PTR {
            Some(Ptr {
                alloc: ((self.0 >> 24) & 0xFF_FFFF) as u32,
                index: ((self.0 << 40) as i64) >> 40,
            })
        } else {
            None
        }
    }

    /// The float, when the word is a raw (untagged) float.
    #[inline]
    pub fn as_inline_float(self) -> Option<f64> {
        if (TAG_INT..=TAG_UNINIT).contains(&(self.0 >> 48)) {
            None
        } else {
            Some(f64::from_bits(self.0))
        }
    }

    /// Index into the spill pool, when this word is a spill reference
    /// (compaction support).
    #[inline]
    pub(crate) fn spill_index(self) -> Option<usize> {
        if self.0 >> 48 == TAG_SPILL {
            Some((self.0 & PAYLOAD_MASK) as usize)
        } else {
            None
        }
    }

    /// Build a spill reference to `idx` (compaction support).
    #[inline]
    pub(crate) fn from_spill_index(idx: usize) -> Packed {
        debug_assert!(idx as u64 <= PAYLOAD_MASK);
        Packed((TAG_SPILL << 48) | idx as u64)
    }

    /// Pack `v` if it fits a word without a spill pool; `None` when the
    /// value needs overflow storage. This is the **single home** of the
    /// inline-fit predicates (48-bit int range, NaN tag window, 24/24-bit
    /// pointer payload): `pack_i64`/`pack_f64`/`pack_ptr` route through
    /// it and only add the per-VM [`SpillPool`] fallback, [`GlobalTable`]
    /// pairs it with its *shared* overflow table and a heap cell with its
    /// allocation's side table — so the three spill paths can never
    /// disagree on what fits inline.
    #[inline]
    fn try_inline(v: Scalar) -> Option<Packed> {
        match v {
            Scalar::I(i) if (i << 16) >> 16 == i => {
                Some(Packed((TAG_INT << 48) | (i as u64 & PAYLOAD_MASK)))
            }
            Scalar::F(f) => {
                let bits = f.to_bits();
                let tag = bits >> 48;
                if (TAG_INT..=TAG_UNINIT).contains(&tag) {
                    None
                } else {
                    Some(Packed(bits))
                }
            }
            Scalar::P(p) if p.alloc < (1 << 24) && (p.index << 40) >> 40 == p.index => Some(
                Packed((TAG_PTR << 48) | ((p.alloc as u64) << 24) | (p.index as u64 & 0xFF_FFFF)),
            ),
            Scalar::Null => Some(Packed::NULL),
            Scalar::Uninit => Some(Packed::UNINIT),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-free global-variable table (the bytecode VM's globals)
// ---------------------------------------------------------------------------

/// Program globals as NaN-boxed words in `AtomicU64` slots: `load` and
/// `store` are single atomic accesses (no lock, no tear — a torn
/// `Scalar` write under the old `RwLock<Vec<Scalar>>` scheme could
/// interleave discriminant and payload), and read-modify-writes go
/// through a CAS loop ([`GlobalTable::rmw`]) so concurrent `g += 1` from
/// a parallel region never loses an update.
///
/// Values that do not fit a packed word inline (ints beyond 48 bits,
/// huge pointers, tag-window NaN patterns) overflow into a **shared**
/// append-only [`AppendTable`] — unlike a per-VM [`SpillPool`], its
/// indices are stable and meaningful across every thread, so a spill
/// word published by one worker resolves correctly on any other.
/// Entries are immutable once published; a store that repeats the slot's
/// current overflow value reuses its entry, and only overflow stores of
/// *changing* values append (bounded in practice: only |int| ≥ 2⁴⁷,
/// alloc ids ≥ 2²⁴, |index| ≥ 2²³ or payload-NaN bit patterns spill, and
/// each append costs an interpreter step).
pub struct GlobalTable {
    words: Box<[AtomicU64]>,
    spill: AppendTable<Scalar>,
}

/// Bit-exact scalar identity (floats by bit pattern, so tag-window NaNs
/// compare equal to themselves — `PartialEq` would say `NaN != NaN`).
fn scalar_identical(a: Scalar, b: Scalar) -> bool {
    match (a, b) {
        (Scalar::F(x), Scalar::F(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

impl GlobalTable {
    pub fn new(nglobals: usize) -> Self {
        GlobalTable {
            words: (0..nglobals)
                .map(|_| AtomicU64::new(Packed::UNINIT.0))
                .collect(),
            spill: AppendTable::new(),
        }
    }

    #[inline]
    fn unpack_word(&self, bits: u64) -> Scalar {
        Packed(bits).decode(|idx| {
            *self
                .spill
                .get(idx as usize)
                .expect("published global spill index")
        })
    }

    #[inline]
    fn pack_word(&self, v: Scalar) -> u64 {
        match Packed::try_inline(v) {
            Some(p) => p.0,
            None => {
                let idx = self.spill.push(v).expect("global spill table exhausted");
                debug_assert!(idx as u64 <= PAYLOAD_MASK);
                (TAG_SPILL << 48) | idx as u64
            }
        }
    }

    /// Lock-free global read.
    #[inline]
    pub fn load(&self, i: usize) -> Scalar {
        self.unpack_word(self.words[i].load(Ordering::Acquire))
    }

    /// Lock-free global write. An overflow value identical to the slot's
    /// current one reuses the existing spill entry instead of appending —
    /// a loop re-storing the same spill-class value must not grow the
    /// append-only table (skipping the store of an equal value is an
    /// idempotent, valid serialization under races).
    #[inline]
    pub fn store(&self, i: usize, v: Scalar) {
        let bits = match Packed::try_inline(v) {
            Some(p) => p.0,
            None => {
                let cur = self.words[i].load(Ordering::Acquire);
                if cur >> 48 == TAG_SPILL {
                    if let Some(e) = self.spill.get((cur & PAYLOAD_MASK) as usize) {
                        if scalar_identical(*e, v) {
                            return;
                        }
                    }
                }
                let idx = self.spill.push(v).expect("global spill table exhausted");
                debug_assert!(idx as u64 <= PAYLOAD_MASK);
                (TAG_SPILL << 48) | idx as u64
            }
        };
        self.words[i].store(bits, Ordering::Release);
    }

    /// Atomic read-modify-write: compute `f(old)` and publish it with a
    /// compare-and-swap, retrying on interference. `f` may run more than
    /// once under contention (callers with side effects snapshot/restore
    /// them per attempt); bit-equality of words implies value equality —
    /// inline words encode the value itself and spill indices are
    /// append-only — so a successful CAS means no update was lost.
    /// Returns `(old, new)`.
    ///
    /// Known cost, accepted: when `new` is spill-class (|int| ≥ 2⁴⁷,
    /// oversized pointer, tag-window NaN), a *failed* CAS attempt
    /// orphans the spill entry it packed (append-only tables reclaim
    /// nothing). The leak is bounded by the number of contended RMWs on
    /// spill-class globals — each retry means another thread's update
    /// landed — and such values are unreachable for counter-style
    /// globals within the interpreter's step limit.
    #[inline]
    pub fn rmw<E>(
        &self,
        i: usize,
        mut f: impl FnMut(Scalar) -> Result<Scalar, E>,
    ) -> Result<(Scalar, Scalar), E> {
        loop {
            let bits = self.words[i].load(Ordering::Acquire);
            let old = self.unpack_word(bits);
            let new = f(old)?;
            // A value-preserving RMW reuses the current word (and its
            // spill entry, if any) instead of packing a duplicate.
            let new_bits = if scalar_identical(new, old) {
                bits
            } else {
                self.pack_word(new)
            };
            if self.words[i]
                .compare_exchange(bits, new_bits, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Ok((old, new));
            }
        }
    }
}

/// One iteration's tracked access sets (race-check mode). Every engine
/// fills one of these per iteration; overlap detection is shared in
/// [`RaceAccumulator`]. A heap cell is keyed `(alloc, index)`, a global
/// slot `(GLOBALS_KEY, slot)`.
#[derive(Debug, Default)]
pub(crate) struct TrackSets {
    reads: HashSet<(u32, i64)>,
    writes: HashSet<(u32, i64)>,
}

/// The allocation id under which global slots are tracked: past every id
/// the heap's table can hand out, so no pointer aliases a global.
const GLOBALS_KEY: u32 = u32::MAX;
const _: () = assert!(TABLE_CAPACITY <= GLOBALS_KEY as usize);

impl TrackSets {
    /// One access to the heap cell `p`.
    pub(crate) fn heap(&mut self, p: Ptr, write: bool) {
        self.insert((p.alloc, p.index), write);
    }

    /// One access to global slot `slot`.
    pub(crate) fn global(&mut self, slot: usize, write: bool) {
        self.insert((GLOBALS_KEY, slot as i64), write);
    }

    fn insert(&mut self, key: (u32, i64), write: bool) {
        let set = if write {
            &mut self.writes
        } else {
            &mut self.reads
        };
        set.insert(key);
    }
}

fn describe_slot((alloc, index): (u32, i64)) -> String {
    if alloc == GLOBALS_KEY {
        format!("global slot {index}")
    } else {
        format!("slot ({alloc}, {index})")
    }
}

/// Accumulates iteration access sets across a parallel region and
/// reports the first write/write or write/read overlap — race-check
/// mode's detection rule, applied by the one dynamic check every engine
/// runs (`crate::region`).
#[derive(Debug, Default)]
pub(crate) struct RaceAccumulator {
    writes: HashSet<(u32, i64)>,
    reads: HashSet<(u32, i64)>,
}

impl RaceAccumulator {
    /// Fold one iteration's sets in; `Err` carries the diagnostic.
    pub(crate) fn absorb(&mut self, t: TrackSets) -> Result<(), String> {
        for w in &t.writes {
            if self.writes.contains(w) || self.reads.contains(w) {
                return Err(format!(
                    "race detected: {} accessed by multiple iterations",
                    describe_slot(*w)
                ));
            }
        }
        for r in &t.reads {
            if self.writes.contains(r) {
                return Err(format!(
                    "race detected: {} written by one iteration and read by another",
                    describe_slot(*r)
                ));
            }
        }
        self.writes.extend(t.writes);
        self.reads.extend(t.reads);
        Ok(())
    }
}

/// Fuel granted to an engine thread per refill from the shared
/// [`FuelBudget`]. Large enough that the shared CAS is off the hot path
/// (one refill per 4096 dispatches), small enough that an infinite loop
/// under `--fuel N` overshoots N by at most one block per live thread.
pub const FUEL_BLOCK: u64 = 4096;

/// One instruction budget shared by every thread of a run: engines hold
/// fuel locally (a plain counter decremented per dispatch) and refill it
/// in [`FUEL_BLOCK`]-sized grants from this shared pool, so parallel
/// regions and pure-call futures all drain the same budget. A grant of 0
/// means the budget is exhausted ([`crate::Trap::FuelExhausted`]).
/// Finishing children refund unused local fuel so a fast worker's block
/// stays available to its siblings.
#[derive(Debug)]
pub struct FuelBudget {
    remaining: AtomicU64,
}

impl FuelBudget {
    pub fn new(total: u64) -> Self {
        FuelBudget {
            remaining: AtomicU64::new(total),
        }
    }

    /// Take up to [`FUEL_BLOCK`] units; returns the grant (0 = exhausted).
    pub fn take_block(&self) -> u64 {
        let mut cur = self.remaining.load(Ordering::Relaxed);
        loop {
            let grant = cur.min(FUEL_BLOCK);
            if grant == 0 {
                return 0;
            }
            match self.remaining.compare_exchange_weak(
                cur,
                cur - grant,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return grant,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Return unused local fuel to the shared pool.
    pub fn refund(&self, n: u64) {
        if n > 0 {
            self.remaining.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }
}

/// Per-thread executed-operation tallies: the lock-free counterpart of
/// [`Counters`]. The VM bumps plain fields on its own thread and flushes
/// the totals into the shared atomics **once** — at parallel-region join
/// for worker tallies, and at run end for the root — instead of paying a
/// shared `fetch_add` per executed operation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub flops: u64,
    pub int_ops: u64,
    pub loads: u64,
    pub stores: u64,
    pub calls: u64,
    pub branches: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub futures_spawned: u64,
    pub futures_inlined: u64,
    pub futures_helped: u64,
    pub tasks_stolen: u64,
    pub local_pushes: u64,
    pub memo_evictions: u64,
    /// Dispatches eliminated by constant folding that executed as part
    /// of a `ConstFold` compensation (tier-3.5 optimizer bookkeeping).
    pub insns_folded: u64,
    /// Dispatches eliminated by superinstruction fusion that executed
    /// as part of a fused instruction (tier-3.5 optimizer bookkeeping).
    pub insns_fused: u64,
}

impl Tally {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold another tally in (region join).
    pub fn merge(&mut self, other: &Tally) {
        self.flops += other.flops;
        self.int_ops += other.int_ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.calls += other.calls;
        self.branches += other.branches;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.futures_spawned += other.futures_spawned;
        self.futures_inlined += other.futures_inlined;
        self.futures_helped += other.futures_helped;
        self.tasks_stolen += other.tasks_stolen;
        self.local_pushes += other.local_pushes;
        self.memo_evictions += other.memo_evictions;
        self.insns_folded += other.insns_folded;
        self.insns_fused += other.insns_fused;
    }

    /// Flush into the shared atomics (once per thread per join point).
    pub fn flush(&self, c: &Counters) {
        c.flops.fetch_add(self.flops, Ordering::Relaxed);
        c.int_ops.fetch_add(self.int_ops, Ordering::Relaxed);
        c.loads.fetch_add(self.loads, Ordering::Relaxed);
        c.stores.fetch_add(self.stores, Ordering::Relaxed);
        c.calls.fetch_add(self.calls, Ordering::Relaxed);
        c.branches.fetch_add(self.branches, Ordering::Relaxed);
        c.memo_hits.fetch_add(self.memo_hits, Ordering::Relaxed);
        c.memo_misses.fetch_add(self.memo_misses, Ordering::Relaxed);
        c.futures_spawned
            .fetch_add(self.futures_spawned, Ordering::Relaxed);
        c.futures_inlined
            .fetch_add(self.futures_inlined, Ordering::Relaxed);
        c.futures_helped
            .fetch_add(self.futures_helped, Ordering::Relaxed);
        c.tasks_stolen
            .fetch_add(self.tasks_stolen, Ordering::Relaxed);
        c.local_pushes
            .fetch_add(self.local_pushes, Ordering::Relaxed);
        c.memo_evictions
            .fetch_add(self.memo_evictions, Ordering::Relaxed);
        c.insns_folded
            .fetch_add(self.insns_folded, Ordering::Relaxed);
        c.insns_fused.fetch_add(self.insns_fused, Ordering::Relaxed);
    }
}

/// Relaxed atomic counters for executed-operation accounting (the paper's
/// perf analysis: 47.5 G vs 87.8 G instructions, Sect. 4.3.2).
#[derive(Debug, Default)]
pub struct Counters {
    pub flops: AtomicU64,
    pub int_ops: AtomicU64,
    pub loads: AtomicU64,
    pub stores: AtomicU64,
    pub calls: AtomicU64,
    pub branches: AtomicU64,
    /// Pure-call memoization cache hits (resolved engine only).
    pub memo_hits: AtomicU64,
    /// Pure-call memoization cache misses (consults that executed).
    pub memo_misses: AtomicU64,
    /// Pure-call futures submitted to the worker pool (including
    /// futures later revoked at their await and run inline — the
    /// cancellation fast path).
    pub futures_spawned: AtomicU64,
    /// Spawn sites that executed inline because the admission throttle
    /// refused capacity (with futures disabled, spawn sites run as
    /// plain calls and are not counted here). Disjoint from
    /// `futures_spawned`: every spawn site lands in exactly one.
    pub futures_inlined: AtomicU64,
    /// Awaits issued from a pool worker that had to *help* (claim queued
    /// tasks) because the future was still in flight.
    pub futures_helped: AtomicU64,
    /// Futures executed by a *different* worker than the one that pushed
    /// them onto its local deque — the work-stealing path engaging.
    pub tasks_stolen: AtomicU64,
    /// Futures pushed onto the spawning worker's own deque (vs routed
    /// through the shared injector).
    pub local_pushes: AtomicU64,
    /// Entries displaced from the bounded memo caches (CLOCK eviction) —
    /// non-zero only once a cache ran at capacity.
    pub memo_evictions: AtomicU64,
    /// Dispatches the tier-3.5 optimizer's constant folding eliminated,
    /// counted as the folded `ConstFold` compensations execute.
    pub insns_folded: AtomicU64,
    /// Dispatches eliminated by superinstruction fusion, counted as the
    /// fused instructions execute.
    pub insns_fused: AtomicU64,
    /// Parallel regions whose dynamic race check was skipped because the
    /// static analyzer proved the iterations independent.
    pub race_static_skips: AtomicU64,
    /// Iterations executed by the dynamic race check (the O(n) pre-pass;
    /// zero when every checked region was statically proven).
    pub race_dyn_iters: AtomicU64,
    /// Region launches handed to the scheduler at `--threads`, and those
    /// run on the caller: too small to repay a fork
    /// (`crate::REGION_INLINE_WORK`, VM only) or consumed whole by the
    /// dynamic race check.
    pub regions_forked: AtomicU64,
    pub regions_inline: AtomicU64,
}

impl Counters {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn total(&self) -> u64 {
        self.flops.load(Ordering::Relaxed)
            + self.int_ops.load(Ordering::Relaxed)
            + self.loads.load(Ordering::Relaxed)
            + self.stores.load(Ordering::Relaxed)
            + self.calls.load(Ordering::Relaxed)
            + self.branches.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            flops: self.flops.load(Ordering::Relaxed),
            int_ops: self.int_ops.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            branches: self.branches.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            futures_spawned: self.futures_spawned.load(Ordering::Relaxed),
            futures_inlined: self.futures_inlined.load(Ordering::Relaxed),
            futures_helped: self.futures_helped.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            local_pushes: self.local_pushes.load(Ordering::Relaxed),
            memo_evictions: self.memo_evictions.load(Ordering::Relaxed),
            insns_folded: self.insns_folded.load(Ordering::Relaxed),
            insns_fused: self.insns_fused.load(Ordering::Relaxed),
            icache_hits: 0,
            race_static_skips: self.race_static_skips.load(Ordering::Relaxed),
            race_dyn_iters: self.race_dyn_iters.load(Ordering::Relaxed),
            regions_forked: self.regions_forked.load(Ordering::Relaxed),
            regions_inline: self.regions_inline.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    pub flops: u64,
    pub int_ops: u64,
    pub loads: u64,
    pub stores: u64,
    pub calls: u64,
    pub branches: u64,
    /// Pure-call memo cache hits/misses (zero on the legacy engine).
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// Pure-call future statistics (zero on the legacy engine and on
    /// runs with futures disabled) — scheduling-dependent bookkeeping,
    /// excluded from the differential projection like the memo stats.
    pub futures_spawned: u64,
    pub futures_inlined: u64,
    pub futures_helped: u64,
    /// Work-stealing statistics of this run's futures: how many were
    /// pushed onto the spawning worker's own deque, and how many of
    /// those a *different* worker ended up executing. Scheduling-
    /// dependent like the other futures stats — excluded from the
    /// differential projection.
    pub tasks_stolen: u64,
    pub local_pushes: u64,
    /// Bounded-memo-cache evictions — cache-management bookkeeping like
    /// the hit/miss split, excluded from the differential projection.
    pub memo_evictions: u64,
    /// Tier-3.5 optimizer bookkeeping: dispatches eliminated by folding
    /// and fusion. Nonzero only on optimized bytecode runs — excluded
    /// from the differential projection (the executed-op counters
    /// themselves stay exact under optimization).
    pub insns_folded: u64,
    pub insns_fused: u64,
    /// Always 0: no producer since PR 13, still read by purebench.
    pub icache_hits: u64,
    /// Race-check bookkeeping (`--race-check` only): regions whose
    /// dynamic pre-pass was skipped on a static Independent verdict, and
    /// iterations the dynamic pre-pass did execute. Excluded from the
    /// differential projection like the other bookkeeping stats.
    pub race_static_skips: u64,
    pub race_dyn_iters: u64,
    /// The launch decision per region — forked, or run on the caller
    /// because its work is below `crate::REGION_INLINE_WORK` (VM only:
    /// the oracles fork every launch) or the race check consumed it
    /// whole. Excluded from the differential projection.
    pub regions_forked: u64,
    pub regions_inline: u64,
}

impl CounterSnapshot {
    /// Executed-operation total; memo statistics are bookkeeping, not
    /// executed operations, so they are excluded.
    pub fn total(&self) -> u64 {
        self.flops + self.int_ops + self.loads + self.stores + self.calls + self.branches
    }

    /// Copy with the memo *and* futures statistics zeroed — the
    /// "counters modulo cache hits and future scheduling" projection the
    /// differential tests compare on. Memo hit/miss splits depend on
    /// shard scheduling; spawn/inline/help splits depend on pool
    /// saturation at spawn time — neither is an executed operation of
    /// the program, and the executed-op counters themselves stay exact.
    pub fn without_memo(&self) -> CounterSnapshot {
        CounterSnapshot {
            memo_hits: 0,
            memo_misses: 0,
            futures_spawned: 0,
            futures_inlined: 0,
            futures_helped: 0,
            tasks_stolen: 0,
            local_pushes: 0,
            memo_evictions: 0,
            insns_folded: 0,
            insns_fused: 0,
            race_static_skips: 0,
            race_dyn_iters: 0,
            regions_forked: 0,
            regions_inline: 0,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_load_store_round_trip() {
        let m = Memory::new();
        let p = m.alloc(4);
        m.store(p, Scalar::I(42)).unwrap();
        m.store(p.offset(3), Scalar::F(2.5)).unwrap();
        assert_eq!(m.load(p).unwrap(), Scalar::I(42));
        assert_eq!(m.load(p.offset(3)).unwrap(), Scalar::F(2.5));
        assert_eq!(m.load(p.offset(1)).unwrap(), Scalar::Uninit);
    }

    #[test]
    fn out_of_bounds_is_error_not_ub() {
        let m = Memory::new();
        let p = m.alloc(2);
        assert!(m.load(p.offset(2)).is_err());
        assert!(m.store(p.offset(-1), Scalar::I(0)).is_err());
    }

    #[test]
    fn use_after_free_detected() {
        let m = Memory::new();
        let p = m.alloc(2);
        m.free(p).unwrap();
        assert!(m.load(p).is_err());
        assert!(m.free(p).is_err(), "double free must be detected");
    }

    #[test]
    fn interior_free_rejected() {
        let m = Memory::new();
        let p = m.alloc(4);
        assert!(m.free(p.offset(1)).is_err());
    }

    #[test]
    fn shared_across_clones() {
        let m = Memory::new();
        let m2 = m.clone();
        let p = m.alloc(1);
        m2.store(p, Scalar::I(7)).unwrap();
        assert_eq!(m.load(p).unwrap(), Scalar::I(7));
    }

    #[test]
    fn parallel_disjoint_writes() {
        let m = Memory::new();
        let p = m.alloc(1024);
        machine::parallel_for_pooled(1024, 8, machine::OmpSchedule::Dynamic(16), |i| {
            m.store(p.offset(i as i64), Scalar::I(i as i64 * 2))
                .unwrap();
        });
        for i in 0..1024 {
            assert_eq!(m.load(p.offset(i)).unwrap(), Scalar::I(i * 2));
        }
    }

    #[test]
    fn memory_cap_boundary_is_exact() {
        // Cap = 4 allocations of 2 slots (16 bytes each). The allocation
        // that lands exactly on the cap must succeed; the next one — even
        // a single slot — must trap, and must not eat budget.
        let m = Memory::with_limit(Some(64));
        for _ in 0..4 {
            m.try_alloc(2).expect("within the cap");
        }
        assert_eq!(m.used_bytes(), Some(64));
        let err = m.try_alloc(1).unwrap_err();
        assert!(err.limit, "ceiling overshoot is a limit error");
        assert!(
            err.message.contains("requested 8 bytes") && err.message.contains("64 of 64"),
            "message names requested bytes and cap: {}",
            err.message
        );
        assert_eq!(
            m.used_bytes(),
            Some(64),
            "failed alloc rolled back its charge"
        );
        assert_eq!(m.limit_bytes(), Some(64));
    }

    // A heap cell is one NaN-boxed word, and the cap charges exactly its
    // physical size.
    const _: () = assert!(CELL_BYTES == 8, "a heap cell is an 8-byte word");

    #[test]
    fn memory_cap_charges_slot_bytes() {
        // len is rounded up to one slot minimum and charged at 8 bytes a
        // slot — a 7-byte cap cannot satisfy even malloc(0).
        let m = Memory::with_limit(Some(7));
        assert!(m.try_alloc(0).unwrap_err().limit);
        assert_eq!(m.used_bytes(), Some(0));
        assert!(Memory::with_limit(Some(8)).try_alloc(0).is_ok());
    }

    #[test]
    fn unlimited_memory_reports_no_usage() {
        let m = Memory::new();
        m.try_alloc(1024).unwrap();
        assert_eq!(m.used_bytes(), None);
        assert_eq!(m.limit_bytes(), None);
    }

    /// Has `p`'s table entry been swapped for the tombstone?
    fn reclaimed(m: &Memory, p: Ptr) -> bool {
        std::ptr::eq(
            m.allocs.get(p.alloc as usize).expect("issued id"),
            &TOMBSTONE,
        )
    }

    /// The four diagnostics a dead allocation must keep giving.
    fn dead_allocation_messages(m: &Memory, p: Ptr) -> [String; 4] {
        [
            m.load(p).unwrap_err().message,
            m.store(p, Scalar::I(1)).unwrap_err().message,
            m.free(p).unwrap_err().message,
            m.free(p.offset(1)).unwrap_err().message,
        ]
    }

    /// `p`'s side table: its first entry, null before the first wide
    /// store.
    fn side_table_of(m: &Memory, p: Ptr) -> *const SideEntry {
        let a = m.allocs.get(p.alloc as usize).expect("issued id");
        a.side.load(Ordering::Acquire)
    }

    /// The raw word in `p`'s cell.
    fn cell_word(m: &Memory, p: Ptr) -> u64 {
        let (a, i) = m.cell(p, Access::Load).expect("a live cell");
        a.word(i).bits()
    }

    #[test]
    fn changing_wide_values_keep_one_side_entry_per_slot() {
        let m = Memory::new();
        let p = m.alloc(4);
        m.store(p.offset(1), Scalar::I(7)).unwrap();
        assert!(
            side_table_of(&m, p).is_null(),
            "inline values need no side table"
        );
        m.store(p, Scalar::I(1 << 47)).unwrap();
        let table = side_table_of(&m, p);
        assert!(!table.is_null(), "the first wide store creates the table");
        for k in 0..10_000i64 {
            let v = match k % 6 {
                0 => Scalar::I((1 << 47) + k),
                1 => Scalar::I(-(1 << 47) - 1 - k),
                2 => Scalar::P(Ptr {
                    alloc: 3,
                    index: (1 << 23) + k,
                }),
                3 => Scalar::F(f64::from_bits(0xFFF9_0000_0000_0000 | k as u64)),
                4 => Scalar::P(Ptr {
                    alloc: u32::MAX - k as u32,
                    index: -k,
                }),
                // Back to an inline value: the slot's entry stays, and
                // the next wide store overwrites it.
                _ => Scalar::I(k),
            };
            m.store(p, v).unwrap();
            let back = m.load(p).unwrap();
            assert!(scalar_identical(back, v), "{v:?} read back as {back:?}");
            assert_eq!(m.load(p.offset(1)).unwrap(), Scalar::I(7));
        }
        assert_eq!(side_table_of(&m, p), table, "the table never moves");
        m.store(p, Scalar::I(1 << 50)).unwrap();
        let wide_cells = (0..4)
            .filter(|&i| cell_word(&m, p.offset(i)) >> 48 == TAG_SPILL)
            .count();
        assert_eq!(wide_cells, 1, "one slot, one entry");
        let flagged = {
            let _region = m.enter_region();
            m.free(p).unwrap();
            assert_eq!(
                side_table_of(&m, p),
                table,
                "a flagged cell keeps its table"
            );
            dead_allocation_messages(&m, p)
        };
        assert!(
            reclaimed(&m, p),
            "the join drops the allocation and its table"
        );
        assert!(side_table_of(&m, p).is_null());
        assert_eq!(dead_allocation_messages(&m, p), flagged);
        assert_eq!(
            flagged,
            [
                "use after free",
                "use after free",
                "double free",
                "free of interior pointer"
            ]
        );
    }

    #[test]
    fn racing_first_wide_stores_share_one_side_table() {
        let m = Memory::new();
        let p = m.alloc(4);
        let a = m.allocs.get(p.alloc as usize).expect("issued id");
        // Two first wide stores that both found no table: the second's
        // compare-and-swap loses, and it must file its value in the
        // first one's table.
        let winner = a.side_table().expect("a small table").as_ptr();
        let loser = a.side_table().expect("a small table").as_ptr();
        assert_eq!(loser, winner);
        assert_eq!(side_table_of(&m, p), winner);
        a.set_value(1, Scalar::I(1 << 60))
            .expect("a published table");
        assert_eq!(m.load(p.offset(1)).unwrap(), Scalar::I(1 << 60));
    }

    #[test]
    fn words_round_trip_and_spill_words_name_the_side_table() {
        let m = Memory::new();
        let pool = SpillPool::new();
        let p = m.alloc(2);
        let w = Packed::pack_f64(-0.0, &pool);
        m.store_word(p, w, |_| unreachable!("inline")).unwrap();
        assert_eq!(m.load_word(p, |_| unreachable!("inline")).unwrap(), w);
        assert_eq!(m.load(p).unwrap().as_f64().to_bits(), (-0.0f64).to_bits());
        // A pool reference is filed by value, and comes back as a
        // reference into whatever pool the reader hands in.
        let min = Packed::pack_i64(i64::MIN, &pool);
        m.store_word(p.offset(1), min, |w| w.unpack(&pool)).unwrap();
        m.store(p, Scalar::I(i64::MAX)).unwrap();
        assert_eq!(cell_word(&m, p.offset(1)), TAG_SPILL << 48 | WIDE_INT);
        assert_eq!(m.load(p.offset(1)).unwrap(), Scalar::I(i64::MIN));
        let reader = SpillPool::new();
        let back = m
            .load_word(p.offset(1), |v| Packed::pack(v, &reader))
            .unwrap();
        assert_eq!(back.unpack(&reader), Scalar::I(i64::MIN));
        assert_eq!(
            m.load(p).unwrap(),
            Scalar::I(i64::MAX),
            "entries are indexed by slot"
        );
        assert_eq!(
            m.load_word(p.offset(2), |_| unreachable!())
                .unwrap_err()
                .message,
            "load out of bounds at index 2 (len 2)"
        );
        assert_eq!(
            m.store_word(p.offset(-1), min, |_| unreachable!())
                .unwrap_err()
                .message,
            "negative index -1"
        );
        assert_eq!(
            m.store(p.offset(5), Scalar::I(1 << 60))
                .unwrap_err()
                .message,
            "store out of bounds at index 5 (len 2)"
        );
    }

    #[test]
    fn free_outside_a_region_reclaims_at_once() {
        let m = Memory::with_limit(Some(1 << 20));
        let keep = m.alloc(2);
        let before = m.used_bytes();
        let p = m.alloc(32);
        assert_eq!(m.used_bytes(), Some(16 + 256));
        m.free(p).unwrap();
        assert!(reclaimed(&m, p), "storage released by the free itself");
        assert!(!reclaimed(&m, keep));
        assert_eq!(m.used_bytes(), before, "bytes refunded");
        // Ids are never reused: the next allocation gets a fresh one.
        assert_eq!(m.alloc(1).alloc, p.alloc + 1);
        assert_eq!(
            m.stats(),
            HeapStats {
                allocations: 3,
                frees: 1,
                peak_live_bytes: 16 + 256,
            }
        );
    }

    #[test]
    fn free_inside_nested_regions_reclaims_at_the_outermost_join() {
        let m = Memory::with_limit(Some(1 << 20));
        let p = m.alloc(8);
        let q = m.alloc(8);
        let charged = m.used_bytes();
        let outer = m.enter_region();
        m.free(p).unwrap();
        {
            let _inner = m.enter_region();
            m.free(q).unwrap();
        }
        // Inner join: a sibling of the outer region may still hold either.
        assert!(!reclaimed(&m, p) && !reclaimed(&m, q));
        assert_eq!(m.used_bytes(), charged, "no refund while deferred");
        let flagged = dead_allocation_messages(&m, p);
        drop(outer);
        assert!(reclaimed(&m, p) && reclaimed(&m, q));
        assert_eq!(m.used_bytes(), Some(0));
        assert_eq!(
            dead_allocation_messages(&m, p),
            flagged,
            "a reclaimed id answers like a flagged one"
        );
        assert_eq!(
            flagged,
            [
                "use after free",
                "use after free",
                "double free",
                "free of interior pointer"
            ]
        );
        assert_eq!(m.stats().frees, 2, "failed frees are not counted");
    }

    #[test]
    fn balanced_pairs_run_under_a_cap_below_their_cumulative_bytes() {
        let m = Memory::with_limit(Some(1024));
        for k in 0..10_000 {
            let p = m.try_alloc(32).expect("live set is one block");
            m.store(p, Scalar::I(k)).unwrap();
            m.free(p).unwrap();
        }
        assert_eq!(m.used_bytes(), Some(0));
        // The same loop inside a region defers every refund: it traps
        // at the 5th block whatever the thread count.
        let _region = m.enter_region();
        for _ in 0..4 {
            m.free(m.try_alloc(32).unwrap()).unwrap();
        }
        assert!(m.try_alloc(32).unwrap_err().limit);
    }

    #[test]
    fn absurd_sizes_are_limit_errors_not_panics() {
        for m in [Memory::new(), Memory::with_limit(Some(1 << 20))] {
            for len in [usize::MAX, usize::MAX / 8, 1 << 60] {
                let e = m.try_alloc(len).unwrap_err();
                assert!(e.limit, "{}", e.message);
                assert!(m.try_alloc_zeroed(len).unwrap_err().limit);
            }
            assert_eq!(m.stats().peak_live_bytes, 0, "refused charges rolled back");
            assert_eq!(m.try_alloc(1).unwrap().alloc, 0, "no id was issued");
        }
    }

    #[test]
    fn zeroed_allocation_holds_integer_zero() {
        let m = Memory::new();
        let p = m.try_alloc_zeroed(5).unwrap();
        for i in 0..5 {
            assert_eq!(m.load(p.offset(i)).unwrap(), Scalar::I(0));
        }
    }

    #[test]
    fn append_table_drop_skips_retired_entries() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        static TOMB: Counted = Counted;
        let t = AppendTable::with_tombstone(&TOMB);
        for _ in 0..100 {
            t.push(Counted).unwrap();
        }
        for i in (0..100).step_by(3) {
            // SAFETY: single-threaded, no reference from `get` is held.
            let entry = unsafe { t.retire(i) };
            assert!(entry.is_some());
            assert!(std::ptr::eq(t.get(i).unwrap(), &TOMB));
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 34);
        // SAFETY: as above.
        assert!(unsafe { t.retire(0) }.is_none(), "retired once only");
        assert!(unsafe { t.retire(100) }.is_none(), "out of range");
        drop(t);
        assert_eq!(
            DROPS.load(Ordering::Relaxed),
            100,
            "every pushed entry dropped exactly once, the tombstone never"
        );
    }

    #[test]
    fn frees_racing_readers_under_a_region_guard() {
        // Four threads hammer the live allocations while a fifth frees
        // the others; nothing is reclaimed until the guard drops.
        const LIVE: usize = 64;
        const DOOMED: usize = 512;
        let m = Memory::with_limit(Some(1 << 30));
        let live: Vec<Ptr> = (0..LIVE).map(|_| m.alloc(16)).collect();
        let doomed: Vec<Ptr> = (0..DOOMED).map(|_| m.alloc(16)).collect();
        let charged = m.used_bytes();
        let start = std::sync::Barrier::new(5);
        let region = m.enter_region();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (m, live, doomed, start) = (&m, &live, &doomed, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..200i64 {
                        for (i, &p) in live.iter().enumerate() {
                            // Slot t of every live allocation is this thread's.
                            let mine = p.offset(t as i64);
                            m.store(mine, Scalar::I(round + i as i64)).unwrap();
                            assert_eq!(m.load(mine).unwrap(), Scalar::I(round + i as i64));
                        }
                        // A racing read of a doomed allocation sees its
                        // slots or the freed flag, never freed storage.
                        let d = doomed[(round as usize * 7 + t) % DOOMED];
                        if let Err(e) = m.load(d) {
                            assert_eq!(e.message, "use after free");
                        }
                    }
                });
            }
            let (m, doomed, start) = (&m, &doomed, &start);
            s.spawn(move || {
                start.wait();
                for &p in doomed {
                    m.free(p).unwrap();
                }
            });
        });
        assert!(doomed.iter().all(|&p| !reclaimed(&m, p)));
        assert_eq!(m.used_bytes(), charged);
        drop(region);
        assert!(doomed.iter().all(|&p| reclaimed(&m, p)));
        assert!(live.iter().all(|&p| !reclaimed(&m, p)));
        assert_eq!(m.used_bytes(), Some((LIVE * 16 * 8) as u64));
        for (i, &p) in live.iter().enumerate() {
            for t in 0..4 {
                assert_eq!(m.load(p.offset(t)).unwrap(), Scalar::I(199 + i as i64));
            }
        }
    }

    #[test]
    fn fuel_budget_grants_blocks_and_refunds() {
        let b = FuelBudget::new(FUEL_BLOCK + 100);
        assert_eq!(b.take_block(), FUEL_BLOCK);
        assert_eq!(b.take_block(), 100, "final partial block granted");
        assert_eq!(b.take_block(), 0, "exhausted budget grants zero");
        b.refund(25);
        assert_eq!(b.take_block(), 25);
        assert_eq!(b.remaining(), 0);
        b.refund(0);
        assert_eq!(b.take_block(), 0);
    }

    #[test]
    fn append_table_spans_segments() {
        // 300 entries cross the 64-entry and 128-entry segments into the
        // third — every id must keep resolving to its own entry.
        let t: AppendTable<usize> = AppendTable::new();
        for i in 0..300 {
            assert_eq!(t.push(i * 7), Some(i));
        }
        assert_eq!(t.len(), 300);
        for i in 0..300 {
            assert_eq!(t.get(i), Some(&(i * 7)), "entry {i}");
        }
        assert_eq!(t.get(300), None);
    }

    #[test]
    fn locate_maps_segment_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(
            locate(TABLE_CAPACITY - 1),
            (SEG_COUNT - 1, (SEG0_CAP << (SEG_COUNT - 1)) - 1)
        );
        // The id space tops out below u32::MAX: a full table can never
        // produce an id that truncates back onto allocation 0.
        assert!(TABLE_CAPACITY - 1 <= u32::MAX as usize);
    }

    #[test]
    fn concurrent_alloc_and_access_race_free() {
        // Workers allocate and immediately use their own allocations while
        // others do the same: exercises lock-free reads racing table
        // growth across segment boundaries.
        let m = Memory::new();
        machine::parallel_for_pooled(256, 8, machine::OmpSchedule::Dynamic(4), |i| {
            let p = m.alloc(4);
            m.store(p, Scalar::I(i as i64)).unwrap();
            m.store(p.offset(3), Scalar::F(i as f64)).unwrap();
            assert_eq!(m.load(p).unwrap(), Scalar::I(i as i64));
            assert_eq!(m.load(p.offset(3)).unwrap(), Scalar::F(i as f64));
        });
        assert_eq!(m.allocation_count(), 256);
    }

    #[test]
    fn global_table_round_trips_inline_and_spill() {
        let g = GlobalTable::new(4);
        assert_eq!(g.load(0), Scalar::Uninit);
        let cases = [
            Scalar::I(42),
            Scalar::I(i64::MAX),
            Scalar::I(i64::MIN),
            Scalar::F(2.5),
            Scalar::F(f64::NEG_INFINITY),
            Scalar::F(f64::from_bits(0xFFF9_0000_0000_0001)),
            Scalar::P(Ptr {
                alloc: 3,
                index: -2,
            }),
            Scalar::P(Ptr {
                alloc: 1 << 24,
                index: 1 << 23,
            }),
            Scalar::Null,
            Scalar::Uninit,
        ];
        for v in cases {
            g.store(1, v);
            match (v, g.load(1)) {
                (Scalar::F(a), Scalar::F(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn global_store_reuses_spill_entry_for_unchanged_value() {
        let g = GlobalTable::new(2);
        for _ in 0..100 {
            g.store(0, Scalar::I(1 << 50));
        }
        assert_eq!(g.load(0), Scalar::I(1 << 50));
        assert_eq!(
            g.spill.len(),
            1,
            "unchanged overflow stores must not append"
        );
        // A value-preserving RMW also reuses the word.
        for _ in 0..50 {
            g.rmw::<()>(0, Ok).unwrap();
        }
        assert_eq!(g.spill.len(), 1);
        // A *changing* overflow value appends (documented trade-off).
        g.store(0, Scalar::I((1 << 50) + 1));
        assert_eq!(g.spill.len(), 2);
    }

    #[test]
    fn global_rmw_loses_no_updates() {
        let g = Arc::new(GlobalTable::new(1));
        g.store(0, Scalar::I(0));
        machine::parallel_for_pooled(4000, 8, machine::OmpSchedule::Dynamic(1), |_| {
            g.rmw::<()>(0, |old| Ok(Scalar::I(old.as_i64() + 1)))
                .unwrap();
        });
        assert_eq!(g.load(0), Scalar::I(4000));
    }

    #[test]
    fn global_rmw_error_aborts_without_store() {
        let g = GlobalTable::new(1);
        g.store(0, Scalar::I(5));
        let r = g.rmw(0, |_| Err::<Scalar, &str>("division by zero"));
        assert_eq!(r, Err("division by zero"));
        assert_eq!(g.load(0), Scalar::I(5));
    }

    #[test]
    fn scalar_conversions() {
        assert_eq!(Scalar::I(3).as_f64(), 3.0);
        assert_eq!(Scalar::F(2.9).as_i64(), 2);
        assert!(Scalar::I(1).truthy());
        assert!(!Scalar::I(0).truthy());
        assert!(!Scalar::Null.truthy());
        assert!(Scalar::P(Ptr::default()).truthy());
        assert!(!Scalar::Uninit.truthy());
    }

    #[test]
    fn packed_round_trips_inline_values() {
        let pool = SpillPool::new();
        let cases = [
            Scalar::Uninit,
            Scalar::Null,
            Scalar::I(0),
            Scalar::I(1),
            Scalar::I(-1),
            Scalar::I((1 << 47) - 1),
            Scalar::I(-(1 << 47)),
            Scalar::F(0.0),
            Scalar::F(-0.0),
            Scalar::F(3.5),
            Scalar::F(f64::INFINITY),
            Scalar::F(f64::NEG_INFINITY),
            Scalar::F(f64::MIN_POSITIVE),
            Scalar::P(Ptr { alloc: 0, index: 0 }),
            Scalar::P(Ptr {
                alloc: (1 << 24) - 1,
                index: (1 << 23) - 1,
            }),
            Scalar::P(Ptr {
                alloc: 7,
                index: -(1 << 23),
            }),
        ];
        for v in cases {
            let p = Packed::pack(v, &pool);
            match v {
                // -0.0 == 0.0 under PartialEq; compare float bits instead.
                Scalar::F(f) => assert_eq!(
                    match p.unpack(&pool) {
                        Scalar::F(g) => g.to_bits(),
                        other => panic!("float round-tripped to {other:?}"),
                    },
                    f.to_bits()
                ),
                _ => assert_eq!(p.unpack(&pool), v, "{v:?}"),
            }
        }
        assert!(pool.is_empty(), "inline cases must not spill");
    }

    #[test]
    fn packed_round_trips_via_spill_pool() {
        let pool = SpillPool::new();
        let cases = [
            Scalar::I(i64::MAX),
            Scalar::I(i64::MIN),
            Scalar::I(1 << 47),
            Scalar::I(-(1 << 47) - 1),
            Scalar::P(Ptr {
                alloc: 1 << 24,
                index: 3,
            }),
            Scalar::P(Ptr {
                alloc: 2,
                index: 1 << 23,
            }),
            // A payload NaN inside the tag window: unreachable via
            // arithmetic, still bit-exact through the pool.
            Scalar::F(f64::from_bits(0xFFF9_0000_0000_0001)),
        ];
        for v in cases {
            let p = Packed::pack(v, &pool);
            match (v, p.unpack(&pool)) {
                (Scalar::F(a), Scalar::F(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
        assert_eq!(pool.len(), cases.len());
    }

    #[test]
    fn packed_canonical_nans_stay_inline() {
        let pool = SpillPool::new();
        // The only NaNs reachable by interpreter arithmetic.
        for bits in [0x7FF8_0000_0000_0000u64, 0xFFF8_0000_0000_0000u64] {
            let p = Packed::pack(Scalar::F(f64::from_bits(bits)), &pool);
            assert_eq!(p.bits(), bits);
            match p.unpack(&pool) {
                Scalar::F(f) => assert_eq!(f.to_bits(), bits),
                other => panic!("{other:?}"),
            }
        }
        assert!(pool.is_empty());
    }

    #[test]
    fn tally_flushes_once_into_shared_counters() {
        let c = Counters::new();
        let mut t = Tally::new();
        t.flops += 3;
        t.loads += 2;
        t.memo_hits += 1;
        let mut t2 = Tally::new();
        t2.int_ops += 5;
        t.merge(&t2);
        t.flush(&c);
        let s = c.snapshot();
        assert_eq!(s.flops, 3);
        assert_eq!(s.int_ops, 5);
        assert_eq!(s.loads, 2);
        assert_eq!(s.memo_hits, 1);
        assert_eq!(s.total(), 10);
    }

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        Counters::bump(&c.flops);
        Counters::bump(&c.flops);
        Counters::bump(&c.stores);
        let s = c.snapshot();
        assert_eq!(s.flops, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.total(), 3);
    }
}
