//! What the memo costs in memory: the peak live heap bytes of a 1-thread
//! run of a cold collatz loop over 4 × the VM's shard capacity of keys
//! (`memo_reuse`'s cold phase, as an `omp parallel for` with a dynamic
//! schedule), with the memo on less the same run with `memo: false`.
//! Counted with a `#[global_allocator]` (this file is its own test binary,
//! and its one test runs on one thread).
//!
//! The region's one worker fills a full shard. When a shard was a slot
//! vector plus a `HashMap` index that copied every key, and the join
//! copied the worker's shard into a `Vec` and then inserted it into the
//! launching thread's shard, the difference read 7 422 048 bytes. One
//! table of 72-byte slots and an index of 8-byte buckets, adopted whole
//! by the launching thread's empty shard at the join, reads 1 441 880:
//! 16 384 slots and 32 768 buckets make 1 441 792 of it.

use pure_c::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every request is handed to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak live bytes above the starting level of one run of `prog`.
fn peak_bytes(prog: &Program, memo: bool) -> u64 {
    let opts = InterpOptions {
        threads: 1,
        memo,
        ..InterpOptions::default()
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let done = prog.run(opts).expect("runs");
    assert_eq!(done.counters.memo_misses, if memo { KEYS } else { 0 });
    PEAK.load(Ordering::Relaxed) - before
}

/// Four shards' worth of distinct keys, each called once.
const KEYS: u64 = pure_c::cinterp::resolve::MEMO_CAPACITY as u64;

#[test]
fn the_memo_of_a_cold_loop_stays_under_its_byte_ceiling() {
    let src = format!(
        "pure int collatz(int n) {{\n\
             int steps = 0;\n\
             while (n != 1 && steps < 8) {{\n\
                 if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;\n\
                 steps = steps + 1;\n\
             }}\n\
             return steps;\n\
         }}\n\
         int main() {{\n\
             int* out = (int*) malloc({KEYS} * sizeof(int));\n\
         #pragma omp parallel for schedule(dynamic,64)\n\
             for (int i = 0; i < {KEYS}; i++)\n\
                 out[i] = collatz(10000 + (i * 40503) % {KEYS});\n\
             int acc = 0;\n\
             for (int i = 0; i < {KEYS}; i++) acc = (acc + out[i]) % 1000003;\n\
             return acc % 251;\n\
         }}\n"
    );
    let parsed = parse(&src);
    assert!(!parsed.diags.has_errors());
    let pure: HashSet<String> = ["collatz".to_string()].into();
    let prog = Program::with_pure_set(&parsed.unit, &pure);
    prog.bytecode_at(2);
    let off = peak_bytes(&prog, false);
    let on = peak_bytes(&prog, true);
    let memo = on.saturating_sub(off);
    assert!(
        memo <= 1_441_880,
        "the memo's peak is {memo} bytes ({on} with it, {off} without)"
    );
}
