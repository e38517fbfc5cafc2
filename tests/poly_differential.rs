//! The polyhedral stage against the literal build on generated programs
//! (through the differential matrix, `tests/support/matrix.rs`), and the
//! pins only this file makes: the compensation contract across
//! poly/no-poly — exit code, output, flops and stores are equal; loads
//! may *shrink* (row-pointer hoisting loads an invariant row once per
//! outer iteration instead of once per inner one) but never grow;
//! control-flow bookkeeping (int_ops, branches) may differ because the
//! transformed nest executes a different loop skeleton. Fuel: poly fuel ≤
//! literal fuel + 3 × the hoisted-bound declarations (`int __pc_ubK =
//! …;`) the poly build executes, each three dispatches the literal build
//! does not run (`tests/resource_limits.rs` pins the four apps against
//! it). Both builds run every canonical `for` on the same fused back
//! edge, so the gap is what the transform buys.

#[path = "support/matrix.rs"]
mod matrix;

#[path = "support/entries.rs"]
mod entries;

use proptest::prelude::*;
use pure_c::prelude::*;

/// A generated program with a guaranteed-affine `omp parallel for` nest
/// (routed through the transformer as an implicit SCoP), a second affine
/// nest reading the first, verified-pure tree-recursive calls in
/// spawnable batches, and a printf/exit-code observable.
fn poly_source(n: usize, c1: i64, c2: i64, m: usize, sched: usize) -> String {
    let sched = [
        "",
        " schedule(static)",
        " schedule(static,3)",
        " schedule(dynamic,2)",
        " schedule(guided,1)",
    ][sched % 5];
    format!(
        "pure int leaf(int x) {{\n\
             int acc = 0;\n\
             for (int i = 0; i < (x % 5) + 2; i++) acc += i * x;\n\
             return acc % 97;\n\
         }}\n\
         pure int tree(int n, int s) {{\n\
             if (n < 2) return leaf(n + s);\n\
             int a = tree(n - 1, s);\n\
             int b = tree(n - 2, s + 1);\n\
             return a + b;\n\
         }}\n\
         int main() {{\n\
             int* a = (int*) malloc({n} * sizeof(int));\n\
             int* b = (int*) malloc({n} * sizeof(int));\n\
             int* out = (int*) malloc({m} * sizeof(int));\n\
         #pragma omp parallel for{sched}\n\
             for (int i = 0; i < {n}; i++)\n\
                 a[i] = i * {c2} + {c1};\n\
         #pragma omp parallel for{sched}\n\
             for (int j = 0; j < {n}; j++)\n\
                 b[j] = a[j] + j;\n\
             for (int k = 0; k < {m}; k++) {{\n\
                 out[k] = tree(3 + k % 3, k) + leaf(k + {c1});\n\
             }}\n\
             int acc = 0;\n\
             for (int i = 0; i < {n}; i++) acc += b[i] % 31;\n\
             for (int k = 0; k < {m}; k++) acc += out[k] % 31;\n\
             printf(\"acc=%d\\n\", acc);\n\
             return (acc % 113 + 113) % 113;\n\
         }}"
    )
}

/// `src` with the polyhedral stage off.
fn literal(src: &str) -> purec::ChainOutput {
    let no_poly = ChainOptions {
        no_poly: true,
        ..Default::default()
    };
    compile(src, no_poly).expect("no-poly chain compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// poly == no-poly == resolved == legacy: generated programs with
    /// implicit-SCoP parallel nests, pure-call spawns and all four omp
    /// schedules meet every engine leg of the matrix, and the poly and
    /// literal builds agree on the data counters (flops, loads, stores),
    /// sequentially and with 4 threads.
    #[test]
    fn poly_matches_no_poly_and_oracles(
        n in 16usize..48,
        c1 in -20i64..50,
        c2 in 1i64..40,
        m in 4usize..10,
        sched in 0usize..5,
    ) {
        let src = poly_source(n, c1, c2, m, sched);
        let poly = compile(&src, ChainOptions::default()).expect("poly chain compiles");
        prop_assert!(
            poly.regions_transformed >= 1,
            "the affine nest must be transformed:\n{}",
            poly.text
        );
        prop_assert_eq!(literal(&src).regions_transformed, 0);
        let report = matrix::check(&matrix::Entry::generated(&src));
        prop_assert!(report.failures.is_empty(), "{}\n{}", report, src);
        for threads in [1usize, 4] {
            let vm = |poly| report.work[&matrix::Leg::Run(matrix::Engine::Vm(2), poly, threads)].counters;
            let (p, l) = (vm(true), vm(false));
            prop_assert_eq!(
                (p.flops, p.loads, p.stores),
                (l.flops, l.loads, l.stores),
                "threads={}",
                threads
            );
        }
    }

    /// A bare-body nest is flagged and transformed like any other,
    /// without changing observables relative to the literal build.
    #[test]
    fn bare_body_nest_matches_no_poly(
        n in 16usize..48,
        c in 1i64..40,
    ) {
        // The nest hangs directly off an `if`.
        let src = format!(
            "int main() {{\n\
                 int* a = (int*) malloc({n} * sizeof(int));\n\
                 int go = 1;\n\
                 if (go)\n\
                     for (int i = 0; i < {n}; i++)\n\
                         a[i] = i * {c} + 1;\n\
                 int acc = 0;\n\
                 for (int i = 0; i < {n}; i++) acc += a[i] % 29;\n\
                 printf(\"acc=%d\\n\", acc);\n\
                 return acc % 113;\n\
             }}"
        );
        let poly = compile(&src, ChainOptions::default()).expect("chain compiles");
        let nopoly = literal(&src);
        prop_assert!(
            poly.regions_transformed >= 1,
            "bare-body nest must be transformed:\n{}",
            poly.text
        );
        for threads in [1usize, 4] {
            let opts = InterpOptions { threads, memo: false, ..Default::default() };
            let u = poly.program().run(opts).expect("poly runs");
            let l = nopoly.program().run(opts).expect("literal runs");
            prop_assert_eq!(u.exit_code, l.exit_code, "threads={}", threads);
            prop_assert_eq!(&u.output, &l.output, "threads={}", threads);
        }
    }

    /// The poly fuel contract with no allowance: these nests hoist no
    /// bound, so any fuel budget sufficient for the literal build is
    /// sufficient for the poly build — and a poly fuel trap implies the
    /// literal build would have trapped too.
    #[test]
    fn poly_fuel_trap_implies_literal_trap(
        n in 16usize..64,
        c1 in -20i64..50,
        c2 in 1i64..40,
        fuel in 1u64..6000,
    ) {
        let src = poly_source(n, c1, c2, 4, 0);
        let poly = compile(&src, ChainOptions::default()).expect("poly chain compiles");
        prop_assert!(poly.regions_transformed >= 1);
        let at = |prog: &Program| prog.run(InterpOptions {
            fuel: Some(fuel),
            memo: false,
            ..Default::default()
        });
        let literal = at(&literal(&src).program());
        let fast = at(&poly.program());
        match (&literal, &fast) {
            // Literal finished within budget -> poly must finish too.
            (Ok(l), f) => {
                let f = f.as_ref().expect("poly burns no more fuel than literal");
                prop_assert_eq!(f.exit_code, l.exit_code);
                prop_assert_eq!(&f.output, &l.output);
            }
            // Poly trapped on fuel -> so must the literal build.
            (Err(l), Err(f)) => {
                prop_assert_eq!(f.trap, Some(Trap::FuelExhausted));
                prop_assert_eq!(l.trap, Some(Trap::FuelExhausted));
            }
            (Err(_), Ok(_)) => {} // the transformation saved enough fuel: fine.
        }
    }

    /// Resource traps survive the polyhedral stage verbatim: a tripped
    /// memory cap and a tripped call-depth cap produce the same trap kind
    /// and message in the poly and literal builds, across all tiers.
    #[test]
    fn poly_preserves_resource_traps(cap in 1u64..64) {
        let src = poly_source(24, 3, 5, 4, 0);
        let poly = compile(&src, ChainOptions::default()).expect("poly chain compiles");
        let nopoly = literal(&src);
        prop_assert!(poly.regions_transformed >= 1);
        let cases = [
            InterpOptions {
                max_memory_bytes: Some(cap),
                ..Default::default()
            },
            InterpOptions {
                max_call_depth: Some(1 + cap as usize % 3),
                ..Default::default()
            },
        ];
        for opts in cases {
            // The structured trap *kind* is identical across builds and
            // tiers (messages embed engine- and build-specific details
            // like frame sizes, so only the kind is load-bearing).
            let l = nopoly.program().run(opts).expect_err("literal build traps");
            let f = poly.program().run(opts).expect_err("poly build traps");
            prop_assert_eq!(f.trap, l.trap);
            let r = poly.program().run_resolved(opts).expect_err("resolved traps");
            prop_assert_eq!(r.trap, f.trap);
            let g = poly.program().run_legacy(opts).expect_err("legacy traps");
            prop_assert_eq!(g.trap, f.trap);
        }
    }
}

/// The paper's two figure applications end-to-end: matmul (fig. 3) and
/// heat (fig. 7) under the poly and literal builds, sequentially and with
/// 4 threads: the same output, flops and stores, no more loads, and fewer
/// branches for the transformed build, whose three engines agree on every
/// executed-op counter.
#[test]
fn matmul_and_heat_poly_match_no_poly() {
    for src in [
        apps::matmul::c_source(24),
        apps::matmul::c_source_inline(24),
        apps::heat::c_source(16, 3),
    ] {
        let poly = compile(&src, ChainOptions::default()).expect("poly chain compiles");
        let nopoly = literal(&src);
        assert!(poly.regions_transformed >= 1, "{}", poly.text);
        let pp = poly.program();
        let pn = nopoly.program();
        for threads in [1usize, 4] {
            let opts = InterpOptions {
                threads,
                memo: false,
                ..Default::default()
            };
            let fast = pp.run(opts).expect("poly runs");
            let literal = pn.run(opts).expect("literal runs");
            assert_eq!(fast.exit_code, literal.exit_code, "threads={threads}");
            assert_eq!(fast.output, literal.output, "threads={threads}");
            assert_eq!(fast.counters.flops, literal.counters.flops);
            // Row-pointer hoisting loads each invariant row once per
            // outer iteration instead of once per inner one, so the
            // poly build may do strictly fewer loads — never more.
            assert!(
                fast.counters.loads <= literal.counters.loads,
                "threads={threads}: poly {} vs literal {} loads",
                fast.counters.loads,
                literal.counters.loads
            );
            assert_eq!(fast.counters.stores, literal.counters.stores);
            // The schedule-aware skeleton must dispatch less often: fewer
            // counted branches than the literal loop shape.
            assert!(
                fast.counters.branches < literal.counters.branches,
                "threads={threads}: poly {} vs literal {} branches",
                fast.counters.branches,
                literal.counters.branches
            );
            // Tiers agree within the poly build.
            let res = pp.run_resolved(opts).expect("resolved runs");
            assert_eq!(
                res.counters.without_memo(),
                fast.counters.without_memo(),
                "threads={threads}"
            );
            let leg = pp.run_legacy(opts).expect("legacy runs");
            assert_eq!(
                leg.counters.without_memo(),
                fast.counters.without_memo(),
                "threads={threads}"
            );
        }
    }
}

/// A pointer table updated inside the loop that reads through it
/// (`a[i] = rows[i]; x[i] = a[i - 1][0];`): the rank-1 store and the
/// rank-2 read conflict, so the nest stays sequential and the poly build
/// prints what the literal build prints at every thread count. (Emitted
/// under `omp parallel for`, every chunk's first iteration read a row
/// pointer the previous chunk had not installed yet: 19999400 at 4
/// threads.)
#[test]
fn row_pointer_table_nest_stays_sequential_and_matches_literal() {
    let src = include_str!("../examples/schedules/rowptr.c").replace("N 64", "N 200000");
    let poly = compile(&src, ChainOptions::default()).expect("poly chain compiles");
    let nopoly = literal(&src);
    assert!(
        poly.schedules[2].contains("sequential"),
        "{:?}",
        poly.schedules
    );
    for threads in [1usize, 4] {
        let opts = InterpOptions {
            threads,
            ..Default::default()
        };
        let literal = nopoly.program().run(opts).expect("literal runs");
        assert_eq!(literal.output, "19999700\n", "threads={threads}");
        let vm = poly.program().run(opts).expect("poly VM runs");
        let resolved = poly
            .program()
            .run_resolved(opts)
            .expect("poly resolved runs");
        assert_eq!(vm.output, literal.output, "threads={threads}");
        assert_eq!(resolved.output, literal.output, "threads={threads}");
    }
}

/// Pointer walks stay as written (`examples/analysis/pointer_walk.c`,
/// whose stdout the matrix checks on every leg): polycc once took `p`
/// for an integer iterator and emitted `for (int t1 = a; …) … *t1`.
#[test]
fn pointer_walks_match_their_indexed_twin_on_every_engine() {
    let src = include_str!("../examples/analysis/pointer_walk.c");
    let poly = compile(src, ChainOptions::default()).expect("poly chain compiles");
    for walk in [
        "for (p = a; p < a + n; p++)",
        "for (p = a; p <= a + n - 1; p++)",
        "for (p = a; p != a + n; p++)",
    ] {
        assert!(
            poly.text.contains(walk),
            "{walk} must stay as written:\n{}",
            poly.text
        );
    }
    assert!(!poly.text.contains("int t1 = a"), "{}", poly.text);
}

/// The [`BLIND_SPOT`] programs on every engine leg of the matrix: the
/// poly build prints what the literal build prints (their GCC legs are
/// `gcc_oracle`'s).
#[test]
fn blind_spot_programs_agree_across_the_differential_class() {
    matrix::run(entries::blind_spot(), matrix::engine_legs);
}

/// The [`BRACELESS_OMP`] programs on every engine leg of the matrix: a
/// braceless `omp parallel for` body stays inside its `if`/`for` on the
/// poly and the literal build.
#[test]
fn braceless_parallel_bodies_agree_across_the_differential_class() {
    matrix::run(entries::braceless(), matrix::engine_legs);
}

/// A small generated family around the blind spot, seeded and
/// deterministic: a producer nest and its consumer, or one nest that
/// reads and then writes; a pure call reading at offset −1, 0 or +1; the
/// read reaching its array through an argument, a global or an alias.
/// Each of the 18 members meets every engine leg of the matrix. (With
/// fusion, the three producer members at offset +1 printed another
/// number at one thread.)
#[test]
fn generated_blind_spot_family_matches_no_poly() {
    for src in blind_spot_family() {
        let report = matrix::check(&matrix::Entry::generated(&src));
        assert!(report.failures.is_empty(), "{report}\n{src}");
    }
}

include!("support/corpus.rs");
