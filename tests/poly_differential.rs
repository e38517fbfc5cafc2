//! Differential tests for the schedule-aware execution path: programs
//! compiled through the polyhedral stage (transformed nests, hoisted
//! bounds and row pointers) must be
//! observably identical to the same source compiled with `--no-poly`
//! (every nest literal), and — within the poly build — the bytecode VM,
//! the resolved-IR engine and the legacy tree-walking oracle must agree
//! bit-for-bit on executed-op counters.
//!
//! The compensation contract across poly/no-poly: exit code, output,
//! flops and stores are equal; loads may *shrink* (row-pointer hoisting
//! loads an invariant row once per outer iteration instead of once per
//! inner one) but never grow; control-flow bookkeeping (int_ops,
//! branches) may differ because the transformed nest executes a
//! different loop skeleton. Fuel: poly fuel ≤ literal fuel + 3 × the
//! hoisted-bound declarations (`int __pc_ubK = …;`) the poly build
//! executes, each three dispatches the literal build does not run
//! (`tests/resource_limits.rs` pins the four apps against it). Both
//! builds run every canonical `for` on the same fused back edge, so the
//! gap is what the transform buys.

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

fn compile_pair(src: &str) -> (purec::ChainOutput, purec::ChainOutput) {
    let poly = compile(src, ChainOptions::default()).expect("poly chain compiles");
    let nopoly = compile(
        src,
        ChainOptions {
            no_poly: true,
            ..Default::default()
        },
    )
    .expect("no-poly chain compiles");
    (poly, nopoly)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// poly == no-poly == resolved == legacy: on generated programs with
    /// implicit-SCoP parallel nests, pure-call spawns and all four omp
    /// schedules, the poly and literal builds agree on exit code, output
    /// and data counters — and within the poly build, all three engines
    /// agree on every executed-op counter — sequentially and with 4
    /// threads.
    #[test]
    fn poly_matches_no_poly_and_oracles(
        n in 16usize..48,
        c1 in -20i64..50,
        c2 in 1i64..40,
        m in 4usize..10,
        sched in 0usize..5,
    ) {
        let src = poly_source(n, c1, c2, m, sched);
        let (poly, nopoly) = compile_pair(&src);
        prop_assert!(
            poly.regions_transformed >= 1,
            "the affine nest must be transformed:\n{}",
            poly.text
        );
        prop_assert_eq!(nopoly.regions_transformed, 0);
        let pp = poly.program();
        let pn = nopoly.program();
        for threads in [1usize, 4] {
            let opts = InterpOptions { threads, memo: false, ..Default::default() };
            let vm_p = pp.run(opts).expect("poly VM runs");
            let vm_n = pn.run(opts).expect("no-poly VM runs");
            // Across builds: observables and data counters.
            prop_assert_eq!(vm_p.exit_code, vm_n.exit_code, "threads={}", threads);
            prop_assert_eq!(&vm_p.output, &vm_n.output, "threads={}", threads);
            prop_assert_eq!(vm_p.counters.flops, vm_n.counters.flops, "threads={}", threads);
            prop_assert_eq!(vm_p.counters.loads, vm_n.counters.loads, "threads={}", threads);
            prop_assert_eq!(vm_p.counters.stores, vm_n.counters.stores, "threads={}", threads);
            // Within the poly build: all three tiers bit-identical.
            let res_p = pp.run_resolved(opts).expect("poly resolved runs");
            prop_assert_eq!(res_p.exit_code, vm_p.exit_code, "threads={}", threads);
            prop_assert_eq!(&res_p.output, &vm_p.output, "threads={}", threads);
            prop_assert_eq!(
                res_p.counters.without_memo(),
                vm_p.counters.without_memo(),
                "threads={}",
                threads
            );
            let leg_p = pp.run_legacy(opts).expect("poly legacy runs");
            prop_assert_eq!(leg_p.exit_code, vm_p.exit_code, "threads={}", threads);
            prop_assert_eq!(&leg_p.output, &vm_p.output, "threads={}", threads);
            prop_assert_eq!(
                leg_p.counters.without_memo(),
                vm_p.counters.without_memo(),
                "threads={}",
                threads
            );
            // And the no-poly build's tiers agree with each other too.
            let res_n = pn.run_resolved(opts).expect("no-poly resolved runs");
            prop_assert_eq!(
                res_n.counters.without_memo(),
                vm_n.counters.without_memo(),
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
        let nopoly = compile(
            &src,
            ChainOptions {
                no_poly: true,
                ..Default::default()
            },
        )
        .expect("no-poly chain compiles");
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
        let (poly, nopoly) = compile_pair(&src);
        prop_assert!(poly.regions_transformed >= 1);
        let at = |prog: &Program| prog.run(InterpOptions {
            fuel: Some(fuel),
            memo: false,
            ..Default::default()
        });
        let literal = at(&nopoly.program());
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
        let (poly, nopoly) = compile_pair(&src);
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
/// heat (fig. 7) produce bit-identical output under the poly and literal
/// builds, sequentially and with 4 threads, with the transformed build
/// burning strictly fewer dispatches.
#[test]
fn matmul_and_heat_poly_match_no_poly() {
    for src in [
        apps::matmul::c_source(24),
        apps::matmul::c_source_inline(24),
        apps::heat::c_source(16, 3),
    ] {
        let (poly, nopoly) = compile_pair(&src);
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
    let (poly, nopoly) = compile_pair(&src);
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

/// Iterating pointers beside their indexed twin
/// (`examples/analysis/pointer_walk.c`): `for (p = a; p < a + n; p++)
/// *q++ = sq(*p)` with the end tested by `<`, `<=` and `!=` prints the
/// twin's digest on all three engines, poly and literal, at 1 and 4
/// threads. (`<` on two pointers compared "truthiness", so the walk ran
/// zero times on every engine alike; and polycc took `p` for an integer
/// iterator and emitted `for (int t1 = a; …) … *t1`.)
#[test]
fn pointer_walks_match_their_indexed_twin_on_every_engine() {
    let src = include_str!("../examples/analysis/pointer_walk.c");
    let (poly, nopoly) = compile_pair(src);
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
    let digest = "95515";
    let expected = ["indexed", "lt     ", "le     ", "ne     "]
        .map(|form| format!("{form} {digest}\n"))
        .concat();
    for (build, out) in [("poly", &poly), ("literal", &nopoly)] {
        let prog = out.program();
        for threads in [1usize, 4] {
            // The legacy oracle has no memo cache: a hit on `sq` would
            // skip the multiply it counts.
            let opts = InterpOptions {
                threads,
                memo: false,
                ..Default::default()
            };
            let cell = format!("{build}, {threads} threads");
            let vm = prog.run(opts).unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(vm.output, expected, "{cell}");
            assert_eq!(vm.exit_code, 0, "{cell}");
            for (engine, run) in [
                ("resolved", prog.run_resolved(opts)),
                ("legacy", prog.run_legacy(opts)),
            ] {
                let run = run.unwrap_or_else(|e| panic!("{cell}, {engine}: {e}"));
                assert_eq!(run.output, expected, "{cell}, {engine}");
                assert_eq!(
                    run.counters.without_memo(),
                    vm.counters.without_memo(),
                    "{cell}, {engine}"
                );
            }
        }
    }
}

/// Every run of the differential class on one program: the three engines,
/// the optimizer on and off, the poly and literal builds, one thread and
/// four. Each must print `stdout`.
fn assert_whole_class(name: &str, src: &str, stdout: &str) {
    let (poly, nopoly) = compile_pair(src);
    for (build, out) in [("poly", &poly), ("literal", &nopoly)] {
        let prog = out.program();
        for threads in [1usize, 4] {
            for opt_level in [0u8, 2] {
                let opts = InterpOptions {
                    threads,
                    opt_level,
                    ..Default::default()
                };
                for (engine, run) in [
                    ("vm", prog.run(opts)),
                    ("resolved", prog.run_resolved(opts)),
                    ("legacy", prog.run_legacy(opts)),
                ] {
                    let cell =
                        format!("{name}: {build}, {engine}, {threads} threads, O{opt_level}");
                    let run = run.unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert_eq!(run.output, stdout, "{cell}:\n{}", out.text);
                }
            }
        }
    }
}

/// The programs the model once compiled wrong because it could not see
/// what a pure call reads ([`BLIND_SPOT`]) run the whole differential
/// class and print their recorded output everywhere.
#[test]
fn blind_spot_programs_agree_across_the_differential_class() {
    for (name, src, stdout, _) in BLIND_SPOT {
        assert_whole_class(name, src, stdout);
    }
}

/// A user parallel loop that is the braceless body of an `if` or a `for`
/// ([`BRACELESS_OMP`]) runs inside it on the whole differential class and
/// prints GCC's output everywhere.
#[test]
fn braceless_parallel_bodies_agree_across_the_differential_class() {
    for (name, src, stdout) in BRACELESS_OMP {
        assert_whole_class(name, src, stdout);
    }
}

/// A small generated family around the blind spot, seeded and
/// deterministic: a producer nest and its consumer, or one nest that
/// reads and then writes; a pure call reading at offset −1, 0 or +1; the
/// read reaching its array through an argument, a global or an alias.
/// Each of the 18 members prints the literal build's output under poly,
/// at one thread and at four. (With fusion, the three producer members
/// at offset +1 printed another number at one thread.)
#[test]
fn generated_blind_spot_family_matches_no_poly() {
    for src in blind_spot_family() {
        let (poly, nopoly) = compile_pair(&src);
        for threads in [1usize, 4] {
            let opts = InterpOptions {
                threads,
                ..Default::default()
            };
            let fast = poly.program().run(opts).expect("poly runs");
            let literal = nopoly.program().run(opts).expect("literal runs");
            assert_eq!(
                (&fast.output, fast.exit_code),
                (&literal.output, literal.exit_code),
                "{threads} threads:\n{src}\npoly text:\n{}",
                poly.text
            );
        }
    }
}

include!("support/corpus.rs");
