//! A memo probe allocates nothing: the key is a `Copy` value built on the
//! stack from the bound arguments, a hit copies a `Scalar` out, a miss
//! moves the key into a slot that already exists or into amortized `Vec`
//! and table growth. Counted with a `#[global_allocator]` around whole
//! runs (this file is its own test binary, and its one test runs on one
//! thread): at 1d30a2c every probe built two `Vec`s and every miss cloned
//! one of them.

use pure_c::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is handed to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, memo hits, memo misses)` of one sequential run of a
/// loop that calls a const ∧ heavy function `calls` times over `keys`
/// distinct arguments.
fn run(calls: u64, keys: u64) -> (u64, u64, u64) {
    let src = format!(
        "pure int weigh(int n) {{\n\
             int s = 0;\n\
             for (int i = 0; i < n % 5 + 2; i++) s += i * n;\n\
             return s % 97;\n\
         }}\n\
         int main() {{\n\
             int acc = 0;\n\
             for (int c = 0; c < {calls}; c++) acc += weigh(c % {keys});\n\
             return acc % 100;\n\
         }}\n"
    );
    let parsed = parse(&src);
    assert!(!parsed.diags.has_errors());
    let pure: HashSet<String> = ["weigh".to_string()].into();
    let prog = Program::with_pure_set(&parsed.unit, &pure);
    assert_eq!(prog.resolved().spawn_heavy_functions(), vec!["weigh"]);
    prog.bytecode_at(2);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let done = prog.run(InterpOptions::default()).expect("runs");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (
        allocations,
        done.counters.memo_hits,
        done.counters.memo_misses,
    )
}

#[test]
fn a_memo_probe_allocates_nothing() {
    // Twice the hits, not one allocation more.
    let (base, hits, misses) = run(2_000, 50);
    assert_eq!((hits, misses), (1_950, 50));
    let (doubled, hits, misses) = run(4_000, 50);
    assert_eq!((hits, misses), (3_950, 50));
    assert_eq!(doubled, base, "a hit allocated");
    // Twice the misses (each one an insert): only the slot vector and
    // the index table grow, by doubling.
    let (base, _, misses) = run(3_000, 3_000);
    assert_eq!(misses, 3_000);
    let (doubled, _, misses) = run(6_000, 6_000);
    assert_eq!(misses, 6_000);
    assert!(
        doubled - base <= 8,
        "3 000 more misses allocated {} times more",
        doubled - base
    );
}
