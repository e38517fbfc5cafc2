//! A warm Fourier–Motzkin solve allocates nothing: a [`DenseSystem`]'s
//! rows sit in one flat buffer, a question appends its rows and truncates
//! them again, and the elimination pass runs in the system's own scratch
//! (row buffers, index lists, sign counts), which keeps its capacity
//! between passes. Counted with a `#[global_allocator]` whose counter is
//! per thread, so the tests of this binary can run side by side.
//!
//! The second test pins one dependence pass over the SCoPs of
//! `heavy_unit(9)`. While every question cloned its system (names, one
//! `Vec` per row) and every subscript was renamed by `format!` into a
//! `BTreeMap`, that pass made 16 233 allocations for its 264 solves, and
//! the 128 SCoPs of the 64-group unit made 114 845 for 1 868 — about 61
//! per solve.

use cfront::ast::StmtKind;
use polyhedral::fourier_motzkin::DenseSystem;
use polyhedral::{analyze, extract_scop, AffineExpr, Constraint, IterTypes, Rel, Scop};
use pure_c::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every request is handed to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

include!("support/heavy_unit.rs");

fn v(name: &str) -> AffineExpr {
    AffineExpr::var(name)
}

fn k(x: i64) -> AffineExpr {
    AffineExpr::constant(x)
}

#[test]
fn a_warm_solve_allocates_nothing() {
    // A flow dependence of `a[i][j] = a[i-1][j] + …` in an `n`-bounded
    // nest, carried at level 0: what `deps` asks about.
    let names = ["i__s", "j__s", "i__d", "j__d", "n"];
    let mut sys = DenseSystem::new(names.map(String::from));
    for it in &names[..4] {
        sys.push(&Constraint::ge(&v(it), &k(1)));
        sys.push(&Constraint::lt(&v(it), &v("n")));
    }
    sys.push(&Constraint::eq(&v("i__s"), &v("i__d").sub(&k(1))));
    sys.push(&Constraint::eq(&v("j__s"), &v("j__d")));
    sys.push(&Constraint::ge(&v("i__d").sub(&v("i__s")), &k(1)));
    // The distance rows `d = dst - src` of both levels.
    let dist = |it: &str| {
        let mut row = vec![0; sys.width()];
        row[sys.column(&format!("{it}__d")).unwrap()] = 1;
        row[sys.column(&format!("{it}__s")).unwrap()] = -1;
        row
    };
    let (di, dj) = (dist("i"), dist("j"));

    let mut solves = 0;
    let warm = (
        sys.satisfiable(&mut solves),
        sys.bounds_of(&di, 64, &mut solves),
        sys.bounds_of(&dj, 64, &mut solves),
    );
    assert_eq!(warm, (true, (Some(1), Some(1)), (Some(0), Some(0))));
    let rows = sys.len();

    let before = allocations();
    for _ in 0..500 {
        assert!(sys.satisfiable(&mut solves));
        assert_eq!(sys.bounds_of(&di, 64, &mut solves), (Some(1), Some(1)));
        assert_eq!(sys.bounds_of(&dj, 64, &mut solves), (Some(0), Some(0)));
        // Level 0's `d = 0` row, appended and truncated again.
        sys.push_row(Rel::Eq, di.iter().copied());
        assert!(!sys.satisfiable(&mut solves));
        sys.truncate(rows);
    }
    assert_eq!(allocations() - before, 0, "a warm solve allocated");
    assert_eq!(solves, 3 + 500 * 4);
}

/// The SCoPs polycc meets in `src`: the flagged nests of the PC-CC unit.
fn flagged_scops(src: &str) -> Vec<Scop> {
    let pcc = run_pc_cc(src, PcCcOptions::default()).expect("PC-CC");
    let globals = IterTypes::of_globals(&pcc.unit);
    let mut scops = Vec::new();
    for f in pcc.unit.functions() {
        let types = globals.in_function(f);
        for s in f.body.iter().flat_map(|b| &b.stmts) {
            s.walk(&mut |st| {
                if matches!(st.kind, StmtKind::For { scop: true, .. }) {
                    scops.extend(extract_scop(st, &types));
                }
            });
        }
    }
    scops
}

#[test]
fn one_dependence_pass_over_the_heavy_unit_allocates_a_pinned_count() {
    let scops = flagged_scops(&heavy_unit(9));
    assert_eq!(scops.len(), 18);
    let before = allocations();
    let (mut solves, mut deps) = (0, 0);
    for scop in &scops {
        let found = analyze(scop);
        solves += found.fm_solves;
        deps += found.deps.len();
    }
    let allocated = allocations() - before;
    assert_eq!((solves, deps), (264, 69));
    assert_eq!(
        allocated, 1113,
        "{allocated} allocations for {solves} solves"
    );
}
