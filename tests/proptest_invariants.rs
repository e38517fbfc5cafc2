//! Property-based tests over the core data structures and invariants
//! (DESIGN.md §6): printer/parser round trips, Fourier–Motzkin vs brute
//! force, omprt schedule partitioning, parallel-equals-sequential
//! execution, and purity-verdict stability under reformatting.

#[path = "support/matrix.rs"]
mod matrix;

use matrix::{Entry, Expect};
use proptest::prelude::*;
use pure_c::prelude::*;

/// `entry` meets every leg it runs.
fn meets(entry: Entry) -> matrix::Report {
    let report = matrix::check(&entry);
    prop_assert!(report.failures.is_empty(), "{}\n{}", report, entry.source);
    report
}

/// The engines' default options with the memo off, as an entry has them.
fn unlimited_interp() -> InterpOptions {
    InterpOptions {
        memo: false,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Printer ∘ parser round trips
// ---------------------------------------------------------------------------

/// Generator for well-formed C expressions of bounded depth.
fn arb_expr(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0i64..1000).prop_map(|v| v.to_string()),
        "[a-d]".prop_map(|s| s),
        Just("x".to_string()),
    ];
    leaf.prop_recursive(depth, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} < {b})")),
            inner.clone().prop_map(|a| format!("(-{a})")),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(c, t, e)| format!("({c} ? {t} : {e})")),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print ∘ parse is a fixed point on expressions.
    #[test]
    fn expr_print_parse_fixed_point(src in arb_expr(4)) {
        let e1 = cfront::parse_expr_str(&src).expect("generated expr parses");
        let printed = cfront::print_expr(&e1);
        let e2 = cfront::parse_expr_str(&printed).expect("printed expr reparses");
        prop_assert_eq!(cfront::print_expr(&e2), printed);
    }

    /// Whole-program canonical form is a fixed point of parse ∘ print.
    #[test]
    fn unit_print_parse_fixed_point(n in 1usize..24, lit in 0i64..500) {
        let src = format!(
            "pure int f(pure int* a, int k) {{ return a[k] + {lit}; }}\n\
             int main() {{\n\
                 int buf[{n}];\n\
                 for (int i = 0; i < {n}; i++) buf[i] = i * {lit};\n\
                 return buf[{m}];\n\
             }}",
            m = n - 1
        );
        let once = print_unit(&parse(&src).unit);
        let twice = print_unit(&parse(&once).unit);
        prop_assert_eq!(once, twice);
    }

    /// Purity verdicts are invariant under whitespace/comment mutation.
    #[test]
    fn purity_verdict_stable_under_reformatting(pad in 0usize..6, cmt in any::<bool>()) {
        let spacer = " ".repeat(pad + 1);
        let comment = if cmt { "/* noise */" } else { "" };
        let src_a = "int g;\npure int f(int x) { g = x; return x; }\nint main() { return 0; }";
        let src_b = format!(
            "int g;{comment}\npure{spacer}int f(int x){spacer}{{ g{spacer}={spacer}x; return x; }}\nint main() {{ return 0; }}"
        );
        let a = run_pc_cc(src_a, PcCcOptions::default()).is_err();
        let b = run_pc_cc(&src_b, PcCcOptions::default()).is_err();
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------------
// Fourier–Motzkin vs exhaustive enumeration
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// FM never reports "empty" when an integer point exists in a box.
    #[test]
    fn fm_is_sound_vs_brute_force(
        coeffs in proptest::collection::vec((-3i64..=3, -3i64..=3, -6i64..=6, any::<bool>()), 1..5)
    ) {
        use polyhedral::{AffineExpr, Constraint, ConstraintSystem};
        let mut sys = ConstraintSystem::new();
        for (a, b, c, eq) in &coeffs {
            let mut e = AffineExpr::constant(*c);
            e = e.add(&AffineExpr::term("x", *a));
            e = e.add(&AffineExpr::term("y", *b));
            if *eq {
                sys.push(Constraint::eq0(e));
            } else {
                sys.push(Constraint::ge0(e));
            }
        }
        let brute = !sys
            .enumerate_points(&["x".to_string(), "y".to_string()], -10, 10)
            .is_empty();
        if brute {
            prop_assert!(sys.is_satisfiable(), "FM missed an integer point of {sys}");
        }
    }
}

// ---------------------------------------------------------------------------
// omprt schedules
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Static chunk assignments partition 0..n exactly.
    #[test]
    fn static_chunks_partition(n in 0u64..10_000, threads in 1u64..96, chunk in 1u64..64) {
        for sched in [OmpSchedule::Static, OmpSchedule::StaticChunk(chunk)] {
            let mut all: Vec<(u64, u64)> = Vec::new();
            for tid in 0..threads {
                all.extend(sched.static_chunks(n, threads, tid));
            }
            all.sort_unstable();
            let covered: u64 = all.iter().map(|(s, e)| e - s).sum();
            prop_assert_eq!(covered, n);
            let mut pos = 0;
            for (s, e) in all {
                prop_assert_eq!(s, pos, "gap or overlap under {}", sched);
                prop_assert!(e > s);
                pos = e;
            }
        }
    }

    /// parallel_for executes every iteration exactly once for any schedule.
    #[test]
    fn parallel_for_exactly_once(
        n in 0u64..512,
        threads in 1usize..9,
        sched_pick in 0usize..4,
        chunk in 1u64..16,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let sched = match sched_pick {
            0 => OmpSchedule::Static,
            1 => OmpSchedule::StaticChunk(chunk),
            2 => OmpSchedule::Dynamic(chunk),
            _ => OmpSchedule::Guided(chunk),
        };
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_pooled(n, threads, sched, |i| {
            hits[i as usize].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            prop_assert_eq!(h.load(Ordering::Relaxed), 1, "iteration {} under {}", i, sched);
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end: transformed parallel execution equals sequential
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random small matmul sizes, the transformed program yields the
    /// same output at any thread count (data-race freedom in practice).
    #[test]
    fn transformed_matmul_thread_invariant(n in 2usize..14, threads in 2usize..9) {
        let src = apps::matmul::c_source(n);
        let run = |t: usize| {
            purec::compile_and_run(
                &src,
                ChainOptions::default(),
                InterpOptions { threads: t, ..Default::default() },
            )
            .expect("runs")
            .1
            .output
        };
        prop_assert_eq!(run(1), run(threads));
    }

    /// Native matmul: par == seq for arbitrary seeds and schedules.
    #[test]
    fn native_matmul_par_equals_seq(seed in 0u64..1000, threads in 1usize..9) {
        let a = apps::matmul::Matrix::random(21, seed);
        let bt = apps::matmul::Matrix::random(21, seed ^ 0xABCD);
        let seq = apps::matmul::matmul_seq(&a, &bt);
        let par = apps::matmul::matmul_par(&a, &bt, threads, OmpSchedule::Dynamic(2));
        prop_assert_eq!(seq.max_abs_diff(&par), 0.0);
    }
}

// ---------------------------------------------------------------------------
// Differential: bytecode VM vs resolved-IR interpreter vs legacy walker
// ---------------------------------------------------------------------------

/// Build a generated-but-well-formed C program exercising scalars, arrays,
/// floats, same-named struct fields, globals, calls and a parallel loop
/// whose body calls a `pure` function owning per-call scratch memory
/// (balanced `malloc`/`free`, so every region defers and then reclaims),
/// then a straight-line parallel loop too small to fork (the VM runs it
/// on the caller; the oracles fork it).
fn differential_source(n: usize, c1: i64, c2: i64, op1: usize, op2: usize, sched: usize) -> String {
    let ops = ["+", "-", "*", "^", "|", "&"];
    let op1 = ops[op1 % ops.len()];
    let op2 = ops[op2 % ops.len()];
    let sched = [
        "",
        " schedule(static)",
        " schedule(static,3)",
        " schedule(dynamic,2)",
        " schedule(guided,1)",
    ][sched % 5];
    format!(
        "int g;\n\
         struct s1 {{ int v; int w; }};\n\
         struct s2 {{ int pad[3]; int w; }};\n\
         int helper(int x, int y) {{ int t = x {op1} y; if (t < 0) t = -t; return t % 97; }}\n\
         float fhelper(float x) {{ return x * 0.5f + 3.0f; }}\n\
         pure int scratch(int x, int m) {{\n\
             int* s = (int*) malloc(m * sizeof(int));\n\
             for (int j = 0; j < m; j++) s[j] = (x + j) % 5;\n\
             int t = 0;\n\
             for (int j = 0; j < m; j++) t += s[j];\n\
             free(s);\n\
             return t;\n\
         }}\n\
         int main() {{\n\
             int acc = 0;\n\
             g = {c1};\n\
             struct s1 p;\n\
             struct s2 q;\n\
             p.w = {c2};\n\
             q.w = {c1} + 2;\n\
             int* a = (int*) malloc({n} * sizeof(int));\n\
             float* b = (float*) malloc({n} * sizeof(float));\n\
         #pragma omp parallel for{sched}\n\
             for (int i = 0; i < {n}; i++) {{\n\
                 a[i] = helper(i, {c2}) + (i {op2} {c1});\n\
                 a[i] += i % 7 + scratch(i, 2 + i % 4);\n\
                 b[i] = fhelper(i);\n\
             }}\n\
         #pragma omp parallel for{sched}\n\
             for (int i = 0; i < {n}; i++) a[i] = (a[i] {op1} {c2}) % 1000 + (i < {c1} && g > 0);\n\
             for (int i = 0; i < {n}; i++) {{ acc += a[i] % 31; acc += (int) b[i]; }}\n\
             acc += p.w * 10 + q.w + g;\n\
             printf(\"acc=%d g=%d\\n\", acc, g);\n\
             return acc % 113;\n\
         }}"
    )
}

/// Generated program with a *nested* parallel region (outer and inner
/// schedules drawn independently) plus a read-only global in the body.
fn nested_region_source(outer: usize, inner: usize, c: i64, so: usize, si: usize) -> String {
    let scheds = [
        "",
        " schedule(static)",
        " schedule(static,2)",
        " schedule(dynamic,1)",
        " schedule(guided,1)",
    ];
    let so = scheds[so % scheds.len()];
    let si = scheds[si % scheds.len()];
    let total = outer * inner;
    format!(
        "int g;\n\
         int main() {{\n\
             int acc = 0;\n\
             g = {c};\n\
             int* a = (int*) malloc({total} * sizeof(int));\n\
         #pragma omp parallel for{so}\n\
             for (int i = 0; i < {outer}; i++) {{\n\
         #pragma omp parallel for{si}\n\
                 for (int j = 0; j < {inner}; j++) {{\n\
                     a[i * {inner} + j] = (i + 1) * (j + 2) + g;\n\
                 }}\n\
             }}\n\
             for (int k = 0; k < {total}; k++) acc += a[k] % 23;\n\
             printf(\"acc=%d\\n\", acc);\n\
             return acc % 113;\n\
         }}"
    )
}

/// Generated program whose values straddle the NaN-box inline range
/// (±2⁴⁷): an LCG multiply, shifts, `++`/`--` walking across the
/// boundary and back, `++` at `INT64_MAX` and unary minus at
/// `INT64_MIN` (both wrap), wide operands reaching the stack (`Binary`),
/// frame (`BinLL`/`BinLC` and their `*Store` forms), compound
/// (`CompoundLocal`, `CompoundIdxLL`) and compare-and-branch (`BrCmpLL`
/// / `BrCmpLC`) instruction forms, two canonical loops (on the fused
/// `AffineHead`/`AffineNext` pair) whose bound and iterator are both
/// wide, int ↔ float coercions of wide values, and a
/// parallel region that reads a wide local through the inherited spill
/// prefix.
fn wide_value_source(d: i64, neg: bool, n: usize, sh: u32, inc: i64, sched: usize) -> String {
    let sched = [
        "",
        " schedule(static)",
        " schedule(static,3)",
        " schedule(dynamic,2)",
        " schedule(guided,1)",
    ][sched % 5];
    let sign = if neg { "-" } else { "" };
    format!(
        "int g;\n\
         int main() {{\n\
             int* a = (int*) malloc(8 * sizeof(int));\n\
             for (int i = 0; i < 8; i++) a[i] = i;\n\
             int acc = 0;\n\
             int m = 6364136223846793005;\n\
             int x = {sign}(140737488355328 + {d});\n\
             int edge = {sign}140737488355327 - {sign}{n};\n\
             for (int k = 0; k < 2 * {n}; k++) {{ edge++; acc = acc ^ edge; --edge; edge++; }}\n\
             for (int k = 0; k < 2 * {n}; k++) {{ edge--; acc = acc + edge; }}\n\
             int big = 9223372036854775807;\n\
             big++;\n\
             acc ^= big;\n\
             int flipped = -big;\n\
             acc ^= flipped + 1;\n\
             for (int k = 0; k < {n}; k++) {{\n\
                 int j = k & 7;\n\
                 x = x * m + {inc};\n\
                 acc = acc + (x >> {sh});\n\
                 acc ^= x << ({sh} & 7);\n\
                 a[j] = x;\n\
                 a[j] += acc;\n\
                 a[j] -= -x;\n\
                 if (x < edge) acc = acc + 1;\n\
                 if (x > 140737488355328) acc = acc - 3;\n\
                 if (x <= -140737488355329) acc = acc * 3;\n\
                 x = x + m;\n\
                 x = x ^ 140737488355328;\n\
                 acc = acc + x / 7 + x % 1000003;\n\
                 double f = x;\n\
                 acc = acc + (int) (f / 1024.0);\n\
             }}\n\
             int ub = {sign}140737488355328 + 3;\n\
             int lo = ub - 6;\n\
             for (int i = lo; i < ub; i++) acc = acc + i;\n\
             for (int i = lo; i <= 140737488355330; i++) {{ acc = acc ^ i; if (i > lo + 7) break; }}\n\
         #pragma omp parallel for{sched}\n\
             for (int i = 0; i < 8; i++) a[i] = a[i] + x + i * m;\n\
             for (int i = 0; i < 8; i++) acc ^= a[i];\n\
             g = acc;\n\
             g += x;\n\
             printf(\"acc=%d x=%d g=%d\\n\", acc, x, g);\n\
             return acc & 127;\n\
         }}"
    )
}

/// Wide values written from a parallel region: every iteration stores a
/// wide int (past ±2⁴⁷ for all but a few `i`) and a far pointer (index
/// past 2²³) into its own two cells of one shared allocation, and a
/// sequential tail reads them back, subtracts the offsets and counts the
/// cells that do not hold what their iteration wrote (`bad`). `n` is
/// large enough for the VM to fork the region at 4 threads.
fn wide_region_source(n: usize, d: i64, neg: bool, sched: usize) -> String {
    let sched = [
        "",
        " schedule(static)",
        " schedule(static,3)",
        " schedule(dynamic,2)",
        " schedule(guided,1)",
    ][sched % 5];
    let sign = if neg { "-" } else { "" };
    format!(
        "int main() {{\n\
             int m = 6364136223846793005;\n\
             int* base = (int*) malloc(4 * sizeof(int));\n\
             int** cells = (int**) malloc(2 * {n} * sizeof(int*));\n\
         #pragma omp parallel for{sched}\n\
             for (int i = 0; i < {n}; i++) {{\n\
                 cells[2 * i] = (int*) ({sign}140737488355328 + {d} + i * m);\n\
                 cells[2 * i + 1] = base + (1 << 24) + i;\n\
             }}\n\
             int acc = 0;\n\
             int bad = 0;\n\
             for (int i = 0; i < {n}; i++) {{\n\
                 int w = (int) cells[2 * i] - i * m;\n\
                 int off = cells[2 * i + 1] - base - (1 << 24);\n\
                 if (w != {sign}140737488355328 + {d}) bad = bad + 1;\n\
                 if (off != i) bad = bad + 1;\n\
                 acc = acc * 3 + w + off * 7;\n\
             }}\n\
             printf(\"acc=%d bad=%d\\n\", acc, bad);\n\
             return acc & 127;\n\
         }}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Heap cells written wide from inside a region (each value in its
    /// allocation's side table) read back alike on every engine: the VM
    /// at levels 0–2, the resolved engine and the legacy oracle agree on
    /// exit code, output and executed-op counters at 1 and 4 threads,
    /// under each of the five schedules.
    #[test]
    fn wide_cells_written_in_a_region_match_across_engines(
        n in 200usize..400,
        d in -3i64..4,
        neg in any::<bool>(),
    ) {
        for sched in 0..5 {
            let src = wide_region_source(n, d, neg, sched);
            let parsed = parse(&src);
            prop_assert!(!parsed.diags.has_errors(), "{}", parsed.diags.render_all(&src));
            let prog = Program::new(&parsed.unit);
            for threads in [1usize, 4] {
                let at = |opt_level: u8| InterpOptions { threads, opt_level, ..Default::default() };
                let legacy = prog.run_legacy(at(2)).expect("legacy runs");
                let resolved = prog.run_resolved(at(2)).expect("resolved runs");
                prop_assert!(legacy.output.ends_with(" bad=0\n"), "{}", legacy.output);
                prop_assert_eq!(resolved.exit_code, legacy.exit_code, "threads={} sched={}", threads, sched);
                prop_assert_eq!(&resolved.output, &legacy.output, "threads={} sched={}", threads, sched);
                prop_assert_eq!(resolved.counters.without_memo(), legacy.counters.without_memo(), "threads={} sched={}", threads, sched);
                for level in [0u8, 1, 2] {
                    let vm = prog.run(at(level)).expect("VM runs");
                    prop_assert_eq!(vm.counters.regions_forked, 1, "the region forks");
                    prop_assert_eq!(vm.exit_code, resolved.exit_code, "threads={} sched={} level={}", threads, sched, level);
                    prop_assert_eq!(&vm.output, &resolved.output, "threads={} sched={} level={}", threads, sched, level);
                    prop_assert_eq!(
                        vm.counters.without_memo(),
                        resolved.counters.without_memo(),
                        "threads={} sched={} level={}",
                        threads,
                        sched,
                        level
                    );
                }
            }
        }
    }
}

/// A seeded program of single-`return` leaf functions three levels deep
/// (the inliner's whole input language): 1–6 parameters each — `int`,
/// `float`, `int*`, `float*` — read zero to a few times, int/float
/// mixes with casts, a ternary, nested leaf calls, now and then a `/`
/// whose divisor can be zero; called from a sequential and from a
/// parallel loop. (No call is an argument short: the legacy oracle binds
/// parameters by name and calls that an unknown variable — `opt.rs` and
/// `tests/cli.rs` compare that case on the engines that agree on it.) The seed only picks shapes: every
/// program terminates, and the only runtime error it can raise is a
/// division by zero.
fn leaf_program(seed: u64) -> String {
    struct Gen(u64);
    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Ty {
        Int,
        Float,
        IntPtr,
        FloatPtr,
    }
    impl Ty {
        fn c(self) -> &'static str {
            match self {
                Ty::Int => "int",
                Ty::Float => "float",
                Ty::IntPtr => "int*",
                Ty::FloatPtr => "float*",
            }
        }
    }
    struct Leaf {
        name: String,
        ret: Ty,
        params: Vec<Ty>,
    }
    /// An expression over the parameters `scope` (named `a0`, `a1`, …) and
    /// calls to `callees`.
    fn expr(g: &mut Gen, scope: &[Ty], callees: &[Leaf], depth: u32) -> String {
        let scalar = |g: &mut Gen| -> String {
            let k = g.below(scope.len() as u64) as usize;
            match (scope[k], g.below(3)) {
                (Ty::Int | Ty::Float, 0 | 1) => format!("a{k}"),
                (Ty::IntPtr | Ty::FloatPtr, 0 | 1) => format!("a{k}[{}]", g.below(4)),
                (_, _) if g.below(2) == 0 => format!("{}", g.below(9)),
                _ => format!("{}.5f", g.below(4)),
            }
        };
        if depth == 0 {
            return scalar(g);
        }
        match g.below(12) {
            0..=4 => {
                let op = ["+", "-", "*", "+", "<"][g.below(5) as usize];
                let (l, r) = (
                    expr(g, scope, callees, depth - 1),
                    expr(g, scope, callees, depth - 1),
                );
                format!("({l} {op} {r})")
            }
            5 => {
                let (l, r) = (expr(g, scope, callees, depth - 1), scalar(g));
                format!("({l} / ({r} - {}))", g.below(3))
            }
            6 => {
                let c = expr(g, scope, callees, depth - 1);
                let (t, e) = (expr(g, scope, callees, depth - 1), scalar(g));
                format!("({c} ? {t} : {e})")
            }
            7 => {
                let cast = ["(int)", "(float)", "-"][g.below(3) as usize];
                format!("({cast} {})", expr(g, scope, callees, depth - 1))
            }
            8..=10 if !callees.is_empty() => {
                let f = &callees[g.below(callees.len() as u64) as usize];
                let mut args = Vec::new();
                for &want in &f.params {
                    let arg = match want {
                        Ty::Int | Ty::Float => expr(g, scope, callees, depth - 1),
                        // A pointer of the right type from the scope, or
                        // the call is not made.
                        ptr => match scope.iter().position(|&t| t == ptr) {
                            Some(k) => format!("a{k}"),
                            None => return scalar(g),
                        },
                    };
                    args.push(arg);
                }
                format!("{}({})", f.name, args.join(", "))
            }
            _ => scalar(g),
        }
    }
    let mut g = Gen(seed);
    let mut out = String::new();
    let mut leaves: Vec<Leaf> = Vec::new();
    for level in 0..3 {
        let first = leaves.len();
        for k in 0..2 {
            let nparams = 1 + g.below(6) as usize;
            let params: Vec<Ty> = (0..nparams)
                .map(|_| {
                    [
                        Ty::Int,
                        Ty::Int,
                        Ty::Float,
                        Ty::Float,
                        Ty::IntPtr,
                        Ty::FloatPtr,
                    ][g.below(6) as usize]
                })
                .collect();
            let ret = if g.below(2) == 0 { Ty::Int } else { Ty::Float };
            // A level calls the levels below it: nesting two deep.
            let body = expr(&mut g, &params, &leaves[..first], 3);
            let name = format!("l{level}_{k}");
            let sig: Vec<String> = params
                .iter()
                .enumerate()
                .map(|(i, t)| format!("{} a{i}", t.c()))
                .collect();
            out.push_str(&format!(
                "{} {name}({}) {{ return {body}; }}\n",
                ret.c(),
                sig.join(", ")
            ));
            leaves.push(Leaf { name, ret, params });
        }
    }
    // `main` sees `i`, `ia[i % 8]`, `fa[i % 8]`, `ia` and `fa`.
    let call = |g: &mut Gen, f: &Leaf| -> String {
        let args: Vec<String> = f
            .params
            .iter()
            .map(|t| match (t, g.below(2)) {
                (Ty::Int, 0) => "i".to_string(),
                (Ty::Int, _) => "ia[i % 8]".to_string(),
                (Ty::Float, 0) => "fa[i % 8]".to_string(),
                (Ty::Float, _) => format!("i * 0.25f + {}", g.below(3)),
                (Ty::IntPtr, _) => "ia".to_string(),
                (Ty::FloatPtr, _) => "fa".to_string(),
            })
            .collect();
        let cast = if f.ret == Ty::Float { "(int) " } else { "" };
        format!("{cast}{}({})", f.name, args.join(", "))
    };
    let n = 6 + g.below(20);
    let seq: Vec<String> = (0..3)
        .map(|_| {
            let f = &leaves[g.below(6) as usize];
            call(&mut g, f)
        })
        .collect();
    let par: Vec<String> = (0..2)
        .map(|_| {
            let f = &leaves[2 + g.below(4) as usize];
            call(&mut g, f)
        })
        .collect();
    out.push_str(&format!(
        "int main() {{\n\
             int* ia = (int*) malloc(8 * sizeof(int));\n\
             float* fa = (float*) malloc(8 * sizeof(float));\n\
             for (int i = 0; i < 8; i++) {{ ia[i] = i * 3 - 4; fa[i] = i * 0.5f + 1.0f; }}\n\
             int acc = 0;\n\
             for (int i = 0; i < {n}; i++) acc += ({}) % 1000 + ({}) % 7 - ({}) % 3;\n\
             int* out = (int*) malloc({n} * sizeof(int));\n\
         #pragma omp parallel for schedule(dynamic,2)\n\
             for (int i = 0; i < {n}; i++) out[i] = ({}) % 1000 + ({}) % 5;\n\
             for (int i = 0; i < {n}; i++) acc += out[i];\n\
             printf(\"acc=%d\\n\", acc);\n\
             return (acc % 100 + 100) % 100;\n\
         }}\n",
        seq[0], seq[1], seq[2], par[0], par[1]
    ));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wide values are in the differential class: on programs that live
    /// on both sides of the ±2⁴⁷ inline boundary every engine leg of the
    /// matrix (the VM raw and optimized, the resolved engine, the legacy
    /// oracle) agrees on exit code, output and executed-op counters,
    /// sequentially and on 4 threads, and so does the VM at level 1.
    #[test]
    fn wide_values_match_across_engines_and_levels(
        d in -3i64..4,
        neg in any::<bool>(),
        n in 1usize..12,
        sh in 0u32..40,
        inc in 1i64..1000,
        sched in 0usize..5,
    ) {
        let src = wide_value_source(d, neg, n, sh, inc, sched);
        let report = meets(Entry::generated(&src).raw(&[]));
        let prog = Program::new(&parse(&src).unit);
        for threads in [1usize, 4] {
            let folded = prog
                .run(InterpOptions { threads, opt_level: 1, ..Default::default() })
                .expect("level-1 VM runs");
            let leg = matrix::Leg::Run(matrix::Engine::Vm(0), true, threads);
            prop_assert_eq!(&report.seen[&leg], &matrix::Observed::Exit(folded.output, folded.exit_code & 0xFF));
            prop_assert_eq!(report.work[&leg].counters, folded.counters.without_memo(), "threads={}", threads);
        }
    }

    /// The three execution tiers are bit-identical on generated programs, on
    /// every engine leg of the differential matrix — exit code, captured
    /// output, executed-op counters (modulo memo bookkeeping) and heap
    /// totals — sequentially and with 4 threads, across `static`,
    /// `static,c`, `dynamic,c` and `guided,c` schedules: bytecode VM ==
    /// resolved-IR engine == legacy tree-walking oracle.
    #[test]
    fn bytecode_and_resolved_match_legacy_oracle(
        n in 4usize..48,
        c1 in -20i64..50,
        c2 in 1i64..40,
        op1 in 0usize..6,
        op2 in 0usize..6,
        sched in 0usize..5,
    ) {
        let src = differential_source(n, c1, c2, op1, op2, sched);
        meets(Entry::generated(&src).raw(&[]));
    }

    /// Dangling pointers fail alike everywhere: use after free, double
    /// free and interior free — with the block freed sequentially or by
    /// one iteration *inside* a region and misused after the join, when its
    /// storage is already reclaimed — give the same error, text and span, on
    /// every engine leg of the matrix, sequentially and on 4 threads.
    #[test]
    fn dangling_pointers_fail_alike_on_every_engine(
        n in 4usize..40,
        m in 2usize..9,
        k in 0usize..40,
        sched in 0usize..5,
        fault in 0usize..6,
    ) {
        let (freed_in_region, misuse, want) = [
            (false, "free(v); acc += v[0];", "use after free"),
            (false, "free(v); free(v);", "double free"),
            (true, "acc += v[0];", "use after free"),
            (true, "free(v);", "double free"),
            (false, "free(v + 1);", "free of interior pointer"),
            (true, "v[1] = 3;", "use after free"),
        ][fault];
        let sched = ["", " schedule(static)", " schedule(static,3)", " schedule(dynamic,2)",
            " schedule(guided,1)"][sched];
        let region_free = if freed_in_region {
            format!("if (i == {}) free(v);", k % n)
        } else {
            String::new()
        };
        let src = format!(
            "int main() {{\n\
                 int acc = 0;\n\
                 int* v = (int*) malloc({m} * sizeof(int));\n\
                 int* a = (int*) malloc({n} * sizeof(int));\n\
                 v[0] = 7;\n\
             #pragma omp parallel for{sched}\n\
                 for (int i = 0; i < {n}; i++) {{\n\
                     a[i] = i * 2;\n\
                     {region_free}\n\
                 }}\n\
                 {misuse}\n\
                 return acc + a[0];\n\
             }}"
        );
        let report = meets(Entry::generated(&src).raw(&[]).or_error());
        let leg = matrix::Leg::Run(matrix::Engine::Vm(2), true, 1);
        let matrix::Observed::Error(message, _, trap) = &report.seen[&leg] else {
            panic!("the misuse ran: {:?}", report.seen[&leg]);
        };
        prop_assert!(message.ends_with(want), "{}", message);
        prop_assert_eq!(*trap, None, "a program bug is not a governance trap");
    }

    /// Nested parallel regions on the shared pool (a worker joining an
    /// inner generation helps instead of blocking): VM == resolved ==
    /// legacy on every engine leg of the matrix, for independently drawn
    /// outer and inner schedules.
    #[test]
    fn pooled_nested_regions_match_oracles(
        outer in 2usize..8,
        inner in 2usize..8,
        c in 1i64..30,
        so in 0usize..5,
        si in 0usize..5,
    ) {
        let src = nested_region_source(outer, inner, c, so, si);
        meets(Entry::generated(&src).raw(&[]));
    }

    /// Pure-call futures differential: on a generated program whose
    /// verified-pure, tree-recursive function is called in spawnable
    /// batches — at top level *and* inside a parallel region — the
    /// bytecode VM and resolved engine with futures on must match the
    /// no-futures runs and the legacy oracle bit-for-bit on exit code
    /// and output, and (memo off, where op totals are deterministic) on
    /// executed-op counters modulo the memo/futures bookkeeping,
    /// sequentially and on 4 threads across schedules.
    #[test]
    fn futures_match_no_futures_and_oracles(
        depth in 5usize..10,
        m in 4usize..16,
        c in 1i64..40,
        sched in 0usize..5,
    ) {
        let sched = [
            "",
            " schedule(static)",
            " schedule(static,2)",
            " schedule(dynamic,1)",
            " schedule(guided,1)",
        ][sched];
        let src = format!(
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
                 int* out = (int*) malloc({m} * sizeof(int));\n\
             #pragma omp parallel for{sched}\n\
                 for (int i = 0; i < {m}; i++) {{\n\
                     int l = tree(4 + i % 3, i);\n\
                     int r = tree(3 + i % 2, i + 1);\n\
                     out[i] = l + r;\n\
                 }}\n\
                 int acc = 0;\n\
                 for (int i = 0; i < {m}; i++) acc += out[i];\n\
                 int p = tree({depth}, {c});\n\
                 int q = tree({depth} - 1, {c} + 1);\n\
                 acc += p - q;\n\
                 printf(\"acc=%d\\n\", acc);\n\
                 return (acc % 113 + 113) % 113;\n\
             }}"
        );
        let parsed = parse(&src);
        prop_assert!(!parsed.diags.has_errors(), "{}", parsed.diags.render_all(&src));
        let pure_set: std::collections::HashSet<String> =
            ["leaf", "tree"].iter().map(|s| s.to_string()).collect();
        let prog = Program::with_pure_set(&parsed.unit, &pure_set);
        prop_assert!(!prog.resolved().spawn_sites().is_empty());
        for threads in [1usize, 4] {
            let opt = |futures: bool| InterpOptions {
                threads,
                futures,
                memo: false,
                ..Default::default()
            };
            let base = prog.run(opt(false)).expect("no-futures VM runs");
            let fut = prog.run(opt(true)).expect("futures VM runs");
            prop_assert_eq!(fut.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&fut.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                fut.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            let res_fut = prog.run_resolved(opt(true)).expect("futures resolved runs");
            prop_assert_eq!(res_fut.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&res_fut.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                res_fut.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            let legacy = prog.run_legacy(opt(true)).expect("legacy runs");
            prop_assert_eq!(legacy.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&legacy.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                legacy.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            // Memoized runs agree on observables (counters are
            // scheduling-dependent under memo and not compared).
            let memo_fut = prog
                .run(InterpOptions { memo: true, ..opt(true) })
                .expect("memoized futures VM runs");
            prop_assert_eq!(memo_fut.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&memo_fut.output, &base.output, "threads={}", threads);
        }
    }

    /// Expression-level spawns: a tree-recursive pure function whose
    /// recursive calls sit *inside* `return` expressions (no locals —
    /// sites exist only through the hoisting pass), called at top level,
    /// inside a parallel region, and from a compound-assign value. The
    /// bytecode VM and resolved engine with futures on must match the
    /// no-futures runs and the legacy oracle (which executes the
    /// original, un-hoisted AST) bit-for-bit on exit code and output,
    /// and (memo off) on executed-op counters modulo the memo/futures/
    /// steal bookkeeping, sequentially and on 4 threads across
    /// schedules.
    #[test]
    fn expression_spawns_match_no_futures_and_oracles(
        depth in 5usize..10,
        m in 4usize..14,
        c in 1i64..40,
        sched in 0usize..5,
    ) {
        let sched = [
            "",
            " schedule(static)",
            " schedule(static,2)",
            " schedule(dynamic,1)",
            " schedule(guided,1)",
        ][sched];
        let src = format!(
            "pure int leaf(int x) {{\n\
                 int acc = 0;\n\
                 for (int i = 0; i < (x % 5) + 2; i++) acc += i * x;\n\
                 return acc % 97;\n\
             }}\n\
             pure int tree(int n, int s) {{\n\
                 if (n < 2) return leaf(n + s);\n\
                 return tree(n - 1, s) + tree(n - 2, s + 1);\n\
             }}\n\
             int main() {{\n\
                 int* out = (int*) malloc({m} * sizeof(int));\n\
             #pragma omp parallel for{sched}\n\
                 for (int i = 0; i < {m}; i++) {{\n\
                     out[i] = tree(4 + i % 3, i) + tree(3 + i % 2, i + 1);\n\
                 }}\n\
                 int acc = 0;\n\
                 for (int i = 0; i < {m}; i++) acc += out[i];\n\
                 acc += tree({depth}, {c}) - tree({depth} - 1, {c} + 1);\n\
                 printf(\"acc=%d\\n\", acc);\n\
                 return (acc % 113 + 113) % 113;\n\
             }}"
        );
        let parsed = parse(&src);
        prop_assert!(!parsed.diags.has_errors(), "{}", parsed.diags.render_all(&src));
        let pure_set: std::collections::HashSet<String> =
            ["leaf", "tree"].iter().map(|s| s.to_string()).collect();
        let prog = Program::with_pure_set(&parsed.unit, &pure_set);
        // The expression-level sites must exist in `tree` itself (its
        // body has no statement-shaped candidates at all).
        let sites = prog.resolved().spawn_sites();
        prop_assert!(
            sites.iter().any(|(f, n)| *f == "tree" && *n > 0),
            "no expression spawn site in tree: {sites:?}"
        );
        for threads in [1usize, 4] {
            let opt = |futures: bool| InterpOptions {
                threads,
                futures,
                memo: false,
                ..Default::default()
            };
            let base = prog.run(opt(false)).expect("no-futures VM runs");
            let fut = prog.run(opt(true)).expect("futures VM runs");
            prop_assert_eq!(fut.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&fut.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                fut.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            let res_fut = prog.run_resolved(opt(true)).expect("futures resolved runs");
            prop_assert_eq!(res_fut.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&res_fut.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                res_fut.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            let legacy = prog.run_legacy(opt(true)).expect("legacy runs");
            prop_assert_eq!(legacy.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&legacy.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                legacy.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            // Memoized runs agree on observables (counters are
            // scheduling-dependent under memo and not compared).
            let memo_fut = prog
                .run(InterpOptions { memo: true, ..opt(true) })
                .expect("memoized futures VM runs");
            prop_assert_eq!(memo_fut.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&memo_fut.output, &base.output, "threads={}", threads);
        }
    }

    /// Speculative purity inference as a drop-in for annotations: on a
    /// generated program whose helper functions are pure-shaped, deleting
    /// every `pure` keyword and re-deriving the set via
    /// `PcCcOptions::infer_pure` must yield the same verified pure set,
    /// the same transformed program text, and bit-identical observable
    /// behaviour (exit code, output, executed-op counters modulo memo
    /// bookkeeping) across the bytecode VM, the resolved engine and the
    /// legacy oracle, sequentially and with 4 threads.
    #[test]
    fn inferred_pure_matches_annotated_and_oracles(
        depth in 4usize..8,
        m in 4usize..12,
        c in 1i64..40,
    ) {
        let src = format!(
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
                 int* out = (int*) malloc({m} * sizeof(int));\n\
                 for (int i = 0; i < {m}; i++) {{\n\
                     out[i] = tree(3 + i % 3, i) + leaf(i + {c});\n\
                 }}\n\
                 int acc = 0;\n\
                 for (int i = 0; i < {m}; i++) acc += out[i];\n\
                 acc += tree({depth}, {c});\n\
                 printf(\"acc=%d\\n\", acc);\n\
                 return (acc % 113 + 113) % 113;\n\
             }}"
        );
        let plain = src.replace("pure ", "");
        prop_assert!(!plain.contains("pure"));
        let ann = compile(&src, ChainOptions::default()).expect("annotated chain");
        let inf = compile(
            &plain,
            ChainOptions {
                pc_cc: PcCcOptions {
                    infer_pure: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("inferred chain");
        prop_assert_eq!(ann.verified_pure_set(), inf.verified_pure_set());
        prop_assert_eq!(&ann.text, &inf.text, "transformed programs diverge");
        let pa = ann.program();
        let pi = inf.program();
        for threads in [1usize, 4] {
            let opts = InterpOptions {
                threads,
                memo: false,
                ..Default::default()
            };
            let base = pa.run(opts).expect("annotated VM runs");
            let vm = pi.run(opts).expect("inferred VM runs");
            prop_assert_eq!(vm.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&vm.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                vm.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            let resolved = pi.run_resolved(opts).expect("inferred resolved runs");
            prop_assert_eq!(resolved.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&resolved.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                resolved.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            let legacy = pi.run_legacy(opts).expect("inferred legacy runs");
            prop_assert_eq!(legacy.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&legacy.output, &base.output, "threads={}", threads);
            prop_assert_eq!(
                legacy.counters.without_memo(),
                base.counters.without_memo(),
                "threads={}",
                threads
            );
            // Memoized inferred run agrees on observables (memo is only
            // legal because inference verified the functions).
            let memo = pi
                .run(InterpOptions { memo: true, ..opts })
                .expect("inferred memoized VM runs");
            prop_assert_eq!(memo.exit_code, base.exit_code, "threads={}", threads);
            prop_assert_eq!(&memo.output, &base.output, "threads={}", threads);
        }
    }

    /// Generated leaves through the differential class: the default
    /// bytecode (every called leaf inlined), the raw bytecode and both
    /// oracles (which inline nothing) agree on every engine leg of the
    /// matrix — exit code, output, error text and span, executed-op
    /// counters — at 1 and 4 threads. A leaf is never memoized: with the
    /// memo on, no engine probes the cache (no function here is const ∧
    /// heavy), and the VM shows what it shows with the memo off.
    #[test]
    fn generated_leaves_match_across_levels_and_oracles(seed in any::<u64>()) {
        let src = leaf_program(seed);
        let parsed = parse(&src);
        prop_assert!(!parsed.diags.has_errors(), "{}\n{}", parsed.diags.render_all(&src), src);
        // Every leaf is handed over as verified pure: the scalar ones are
        // const (and would have been memoized before admission asked for
        // heavy), the pointer ones pure.
        let pure: std::collections::HashSet<String> = parsed
            .unit
            .functions()
            .filter(|f| f.name != "main")
            .map(|f| f.name.clone())
            .collect();
        let prog = Program::with_pure_set(&parsed.unit, &pure);
        prop_assert!(prog.resolved().spawn_heavy_functions().is_empty());
        let inlined = prog.bytecode_at(2).inlined_functions().len();
        prop_assert!(inlined >= 2, "{} inlined in\n{}", inlined, src);
        let names: Vec<&str> = pure.iter().map(String::as_str).collect();
        let report = meets(Entry::generated(&src).raw(&names).or_error());
        for threads in [1usize, 4] {
            let memo = prog.run(InterpOptions { threads, ..Default::default() });
            let memo = memo.map(|r| (r.output, r.exit_code & 0xFF, r.counters.memo_hits + r.counters.memo_misses));
            let leg = matrix::Leg::Run(matrix::Engine::Vm(2), true, threads);
            match (&report.seen[&leg], memo) {
                (matrix::Observed::Exit(out, code), Ok(memo)) => {
                    prop_assert_eq!((out, *code, 0), (&memo.0, memo.1, memo.2), "threads={}\n{}", threads, src)
                }
                (matrix::Observed::Error(msg, ..), Err(e)) => {
                    prop_assert_eq!(msg, &e.message);
                    prop_assert_eq!(msg.as_str(), "integer division by zero");
                }
                (seen, memo) => prop_assert!(false, "threads={}: {:?} with the memo off, {:?} on\n{}", threads, seen, memo.map(|m| m.1), src),
            }
        }
    }

    /// Chain-compiled matmul (purity verified ⇒ memoization active): the
    /// bytecode VM and the resolved engine, each with and without memo,
    /// and the legacy oracle all agree on observable behaviour.
    #[test]
    fn memoized_chain_output_matches_oracle(n in 2usize..10, threads in 1usize..5) {
        let src = apps::matmul::c_source(n);
        let out = purec::compile(&src, ChainOptions::default()).expect("chain");
        let prog = out.program();
        let opts = InterpOptions { threads, ..Default::default() };
        let vm_memo = prog.run(opts).expect("VM memoized run");
        let vm_plain = prog
            .run(InterpOptions { memo: false, ..opts })
            .expect("VM memo-off run");
        let memoized = prog.run_resolved(opts).expect("memoized run");
        let plain = prog
            .run_resolved(InterpOptions { memo: false, ..opts })
            .expect("memo-off run");
        let legacy = prog.run_legacy(opts).expect("oracle run");
        prop_assert_eq!(&vm_memo.output, &legacy.output);
        prop_assert_eq!(vm_memo.exit_code, legacy.exit_code);
        prop_assert_eq!(&memoized.output, &legacy.output);
        prop_assert_eq!(memoized.exit_code, legacy.exit_code);
        // Without memo the VM and the resolved engine are exactly the
        // oracle.
        prop_assert_eq!(vm_plain.counters.without_memo(), legacy.counters.without_memo());
        prop_assert_eq!(vm_plain.counters.memo_hits, 0);
        prop_assert_eq!(plain.counters.without_memo(), legacy.counters.without_memo());
        prop_assert_eq!(plain.counters.memo_hits, 0);
    }
}

// ---------------------------------------------------------------------------
// Resource governance (fuel / memory / depth limits)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Resource governance is observably free when the limits never
    /// fire: with fuel, memory and call-depth caps set far above what
    /// the generated program needs, every engine leg of the matrix shows
    /// and does exactly what it does unlimited (exit code, output,
    /// executed-op counters modulo memo bookkeeping, heap totals) — and the
    /// tiers still agree with each other — sequentially and with 4
    /// threads, across all schedules.
    #[test]
    fn generous_limits_do_not_change_observables(
        n in 4usize..40,
        c1 in -20i64..50,
        c2 in 1i64..40,
        op1 in 0usize..6,
        op2 in 0usize..6,
        sched in 0usize..5,
    ) {
        let src = differential_source(n, c1, c2, op1, op2, sched);
        let unlimited = meets(Entry::generated(&src).raw(&[]));
        let governed = InterpOptions {
            fuel: Some(1 << 40),
            max_memory_bytes: Some(1 << 40),
            max_call_depth: Some(1 << 16),
            ..unlimited_interp()
        };
        let governed = meets(Entry::generated(&src).raw(&[]).interp(governed));
        prop_assert_eq!(governed.seen, unlimited.seen);
        prop_assert_eq!(governed.work, unlimited.work);
    }
}

/// A region too small to repay a fork runs on the caller — and shows
/// nothing of it. Each program below is an entry of the differential
/// matrix, run as parsed (no chain, so every region's verdict is
/// `Unknown`): on every engine leg (the VM at 1 and 4 threads runs the
/// region inline or forks it, the oracles fork every launch), and on the
/// VM and the resolved engine at 2 threads, it shows the same exit code,
/// stdout, executed operations and heap totals as the VM on one thread,
/// or the same trap. Each is run with its trigger off (where the VM must
/// report the region inline) and on. A resource trap is compared by its kind and
/// place: its message reports the heap at the trap (the bytes in use),
/// which depends on which of the region's frees landed first.
#[test]
fn an_inline_region_is_observably_the_region() {
    // The VM's regions forked and run inline, on one thread.
    let decisions = |src: &str, opts: InterpOptions| {
        let prog = Program::new(&parse(src).unit);
        let run = prog.run(InterpOptions { threads: 1, ..opts });
        run.map(|r| (r.counters.regions_forked, r.counters.regions_inline))
    };
    let vm1 = matrix::Leg::Run(matrix::Engine::Vm(2), true, 1);
    let check = |what: &str, src: &str, opts: InterpOptions, expect: Expect| {
        let entry = Entry::new(what, src, expect).raw(&[]).interp(opts).skip(
            matrix::gcc_legs,
            "the options under test (caps, the race check) are the interpreter's",
        );
        let report = matrix::check(&entry);
        assert!(report.failures.is_empty(), "{report}");
        // On one thread the VM runs the region inline, and the legs then
        // compare the inline run with the forked ones.
        if let Ok((_, inline)) = decisions(src, opts) {
            assert!(inline > 0, "{what}: nothing ran inline");
        }
        // The matrix compares the engines within a thread count; the
        // inline run does what the forked ones do at every count.
        let prog = Program::new(&parse(src).unit);
        let two = InterpOptions { threads: 2, ..opts };
        let mut works: Vec<Option<matrix::Work>> =
            report.work.values().copied().map(Some).collect();
        for run in [prog.run(two), prog.run_resolved(two)] {
            let (seen, work) = matrix::observed(run);
            let first = &report.seen[&vm1];
            let meets = matrix::meets(&entry.expect, &seen, src, first);
            assert!(meets, "{what}: 2 threads show {seen:?}, 1 shows {first:?}");
            works.push(work);
        }
        let inline = report.work.get(&vm1).copied();
        assert!(works.iter().all(|w| *w == inline), "{what}: {works:?}");
        report
    };
    let plain = InterpOptions {
        memo: false,
        ..Default::default()
    };
    let runs = Expect::Agree { exits: true };
    let trap = |trap, message, at| Expect::Trap {
        trap,
        message,
        at: Some(at),
    };

    // A division by zero at iteration 37 of 64.
    let div = |k: i64| {
        format!(
            "int main() {{\n\
                 int* a = (int*) malloc(64 * sizeof(int));\n\
             #pragma omp parallel for\n\
                 for (int i = 0; i < 64; i++) a[i] = 6400 / (i - {k});\n\
                 printf(\"%d\\n\", a[63]);\n\
                 return a[0] % 100;\n\
             }}\n"
        )
    };
    check("div", &div(70), plain, runs.clone());
    let by_zero = trap(None, "integer division by zero", "6400 / (i - 37)");
    check("div by zero", &div(37), plain, by_zero);

    // A `malloc` past `--max-memory` inside the region; a `free` there is
    // reclaimed at the join, so the region's peak is all 16 blocks.
    let scratch = "int main() {\n\
                       int* a = (int*) malloc(16 * sizeof(int));\n\
                   #pragma omp parallel for\n\
                       for (int i = 0; i < 16; i++) {\n\
                           int* p = (int*) malloc(1024);\n\
                           p[0] = i * i;\n\
                           a[i] = p[0];\n\
                           free(p);\n\
                       }\n\
                       return a[15] % 100;\n\
                   }\n";
    let capped = |cap| InterpOptions {
        max_memory_bytes: Some(cap),
        ..plain
    };
    let fits = check("scratch", scratch, capped(1 << 20), runs.clone());
    let work = fits.work[&vm1];
    assert_eq!(fits.seen[&vm1], matrix::Observed::Exit(String::new(), 25));
    assert_eq!((work.frees, work.peak_live_bytes), (16, 128 + 16 * 1024));
    let over = trap(
        Some(Trap::MemoryLimit),
        "memory limit exceeded",
        "malloc(1024)",
    );
    check("scratch capped", scratch, capped(8 * 1024), over);

    // `--race-check` on an Unknown verdict: the dynamic check runs the
    // region's first iterations, up to the cap, and catches the race;
    // the region runs the rest.
    let race = |rhs: &str| {
        format!(
            "int main() {{\n\
                 int* a = (int*) malloc(32 * sizeof(int));\n\
                 for (int i = 0; i < 32; i++) a[i] = i;\n\
             #pragma omp parallel for\n\
                 for (int i = 0; i < 32; i++) a[i] = {rhs};\n\
                 return a[31] % 100;\n\
             }}\n"
        )
    };
    let checked = InterpOptions {
        race_check: true,
        ..plain
    };
    // The validated iterations are the run's, not a rehearsal: checked,
    // a race-free program is the unchecked one — exit code, output,
    // executed operations and the heap's frees and peak (the checked
    // iterations' frees wait for the region's join too) — with every
    // iteration under the cap, and with a cap that leaves most of them
    // to the region.
    let unchecked = check("race-free", &race("a[i] + 1"), plain, runs.clone());
    assert_eq!(
        unchecked.seen[&vm1],
        matrix::Observed::Exit(String::new(), 32)
    );
    let scratch_unchecked = fits;
    for cap in [None, Some(4)] {
        let opts = InterpOptions {
            race_check_cap: cap,
            ..checked
        };
        let run = check("race-free checked", &race("a[i] + 1"), opts, runs.clone());
        assert_eq!(
            (run.seen, run.work),
            (unchecked.seen.clone(), unchecked.work.clone())
        );
        let opts = InterpOptions {
            race_check: true,
            race_check_cap: cap,
            ..capped(1 << 20)
        };
        let run = check("scratch checked", scratch, opts, runs.clone());
        let want = (&scratch_unchecked.seen, &scratch_unchecked.work);
        assert_eq!((&run.seen, &run.work), want, "cap {cap:?}");
    }
    let racy = trap(None, "race detected", "a[i] = a[(i + 1) % 32] + 1");
    check("racy", &race("a[(i + 1) % 32] + 1"), checked, racy);

    // A tiny region inside a forked one (its body holds the region): 8
    // inline launches under one fork, and a trap from the inner one.
    let nested = |k: i64| {
        format!(
            "int main() {{\n\
                 int* a = (int*) malloc(64 * sizeof(int));\n\
             #pragma omp parallel for schedule(dynamic,1)\n\
                 for (int i = 0; i < 8; i++) {{\n\
             #pragma omp parallel for\n\
                     for (int j = 0; j < 8; j++) a[i * 8 + j] = 640 / (i * 8 + j - {k});\n\
                 }}\n\
                 int acc = 0;\n\
                 for (int i = 0; i < 64; i++) acc += a[i];\n\
                 printf(\"acc=%d\\n\", acc);\n\
                 return 0;\n\
             }}\n"
        )
    };
    check("nested", &nested(99), plain, runs.clone());
    assert_eq!(decisions(&nested(99), plain).expect("nested runs"), (1, 8));
    let by_zero = trap(None, "integer division by zero", "640 / (i * 8 + j - 45)");
    check("nested trap", &nested(45), plain, by_zero);
}

/// A scalar global is shared memory too: every engine's dynamic race
/// check tracks its slot next to the heap cells, so a loop accumulating
/// into one is a race however the update is spelled, at any thread count.
#[test]
fn race_check_sees_scalar_globals() {
    for update in ["g = g + i", "g += i", "g++"] {
        let src = format!(
            "int g;\n\
             int main() {{\n\
             #pragma omp parallel for\n\
                 for (int i = 0; i < 8; i++) {update};\n\
                 printf(\"%d\\n\", g);\n\
                 return 0;\n\
             }}\n"
        );
        let prog = Program::new(&parse(&src).unit);
        for threads in [1, 2] {
            let opts = InterpOptions {
                threads,
                race_check: true,
                ..Default::default()
            };
            for (engine, run) in [
                ("vm", prog.run(opts)),
                ("resolved", prog.run_resolved(opts)),
                ("legacy", prog.run_legacy(opts)),
            ] {
                let err = run.expect_err(&format!("{update}: {engine} at {threads}"));
                assert!(
                    err.message.contains("race detected: global slot 0"),
                    "{update}: {engine} at {threads}: {}",
                    err.message
                );
            }
        }
    }
}

/// `--fuel` stays an exact ruler across an inline region at every thread
/// count: the parent hands its unused grant back before the region's
/// sequential child runs, so five 400-iteration regions complete under
/// 10 032 — the count of the same program on one thread — and trap one
/// unit below, on 1, 2 and 4 threads. (Forked, the same run needed more
/// on two threads: each worker holds a grant of its own.)
#[test]
fn fuel_one_short_of_an_inline_region_traps_at_every_thread_count() {
    let src = "int main() {\n\
                   int* a = (int*) malloc(400 * sizeof(int));\n\
                   for (int r = 0; r < 5; r++) {\n\
               #pragma omp parallel for\n\
                       for (int i = 0; i < 400; i++) a[i] = a[i] + i * r;\n\
                   }\n\
                   return a[399] % 100;\n\
               }\n";
    let parsed = parse(src);
    let prog = Program::new(&parsed.unit);
    let run = |threads: usize, fuel: u64| {
        prog.run(InterpOptions {
            threads,
            fuel: Some(fuel),
            ..Default::default()
        })
    };
    for threads in [1usize, 2, 4] {
        let done = run(threads, 10_032).unwrap_or_else(|e| panic!("threads={threads}: {e}"));
        assert_eq!(done.counters.regions_inline, 5, "threads={threads}");
        let short = run(threads, 10_031).expect_err("one unit short");
        assert_eq!(short.trap, Some(Trap::FuelExhausted), "threads={threads}");
    }
}

/// The oracles hold no idle fuel grant through a region either: the
/// launching thread hands its grant back before the workers run, so on
/// one thread the program above completes under its exact statement count
/// and traps one unit below, on the resolved engine and the legacy walker
/// alike.
#[test]
fn fuel_one_short_of_a_region_traps_on_the_oracles() {
    let src = "int main() {\n\
                   int* a = (int*) malloc(400 * sizeof(int));\n\
                   for (int r = 0; r < 5; r++) {\n\
               #pragma omp parallel for\n\
                       for (int i = 0; i < 400; i++) a[i] = a[i] + i * r;\n\
                   }\n\
                   return a[399] % 100;\n\
               }\n";
    let prog = Program::new(&parse(src).unit);
    let at = |fuel: u64| InterpOptions {
        fuel: Some(fuel),
        ..Default::default()
    };
    for (engine, run) in [
        (
            "resolved",
            Program::run_resolved as fn(&Program, InterpOptions) -> _,
        ),
        ("legacy", Program::run_legacy),
    ] {
        let done = run(&prog, at(2014)).unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(done.exit_code, 90, "{engine}");
        let short = run(&prog, at(2013)).expect_err("one unit short");
        assert_eq!(short.trap, Some(Trap::FuelExhausted), "{engine}");
    }
}

/// Every engine launches a region through one protocol
/// (`cinterp::region`): the static verdict, the dynamic race check, the
/// heap region, the fuel handback and the launch itself. On the three
/// engines at 1, 4, 8 and 16 threads, each case shows the same exit code
/// and output, or the same error message and span, and the same
/// race-check counters; `regions_forked + regions_inline` is the number
/// of launches (the VM runs some inline, the oracles fork every launch the
/// check left iterations to).
#[test]
fn one_region_protocol_on_every_engine() {
    // Four launches: a 64-iteration region and three of three iterations.
    let clean = "int main() {\n\
                     int* a = (int*) malloc(64 * sizeof(int));\n\
                 #pragma omp parallel for schedule(dynamic,1)\n\
                     for (int i = 0; i < 64; i++) a[i] = i * 3;\n\
                     for (int r = 0; r < 3; r++) {\n\
                 #pragma omp parallel for\n\
                         for (int i = 0; i < 3; i++) a[i] = a[i] + r;\n\
                     }\n\
                     int acc = 0;\n\
                     for (int i = 0; i < 64; i++) acc += a[i];\n\
                     printf(\"acc=%d\\n\", acc);\n\
                     return acc % 100;\n\
                 }\n";
    let racy = "int main() {\n\
                    int* a = (int*) malloc(64 * sizeof(int));\n\
                    a[0] = 1;\n\
                #pragma omp parallel for\n\
                    for (int i = 1; i < 64; i++) a[i] = a[i - 1] + 1;\n\
                    return a[63] % 100;\n\
                }\n";
    // A division by zero in the third iteration: inside the dynamic check.
    let trap = "int main() {\n\
                    int* a = (int*) malloc(64 * sizeof(int));\n\
                #pragma omp parallel for\n\
                    for (int i = 0; i < 64; i++) a[i] = 640 / (i - 2);\n\
                    return a[63] % 100;\n\
                }\n";
    type Seen = Result<(i64, String, [u64; 3]), (String, cfront::Span)>;
    let run = |prog: &Program, opts: InterpOptions| -> Seen {
        let mut seen = None;
        for threads in [1usize, 4, 8, 16] {
            let at = InterpOptions { threads, ..opts };
            for (engine, run) in [
                ("vm", prog.run(at)),
                ("resolved", prog.run_resolved(at)),
                ("legacy", prog.run_legacy(at)),
            ] {
                let got: Seen = run
                    .map(|r| {
                        let c = r.counters;
                        let launches = c.regions_forked + c.regions_inline;
                        let race = [c.race_static_skips, c.race_dyn_iters, launches];
                        (r.exit_code, r.output, race)
                    })
                    .map_err(|e| (e.message, e.span));
                let want = seen.get_or_insert_with(|| got.clone());
                assert_eq!(&got, want, "{engine} at {threads} threads");
            }
        }
        seen.expect("ran")
    };
    let with_verdicts = |src: &str| {
        let mut unit = parse(src).unit;
        cfront::visit::number_loops(&mut unit);
        let report = analysis::analyze_unit(
            &unit,
            &PureSet::seeded(),
            &analysis::AnalysisOptions::default(),
        );
        let verdicts = report.loops.iter().map(|l| (l.id, l.verdict)).collect();
        let none = std::collections::HashSet::new();
        let verdicts_only = Program::with_pure_set_and_verdicts(&unit, &none, &verdicts);
        (verdicts_only, Program::new(&unit), report.loops)
    };
    let checked = |cap| InterpOptions {
        race_check: true,
        race_check_cap: cap,
        ..Default::default()
    };

    let (independent, unknown, loops) = with_verdicts(clean);
    assert!(loops
        .iter()
        .all(|l| l.verdict == analysis::LoopVerdict::Independent));
    let counts = |seen: Seen| seen.map(|(_, out, race)| (out, race));
    let out = || "acc=6057\n".to_string();
    // Unchecked, and Independent: the check is skipped, four launches.
    assert_eq!(
        counts(run(&unknown, Default::default())),
        Ok((out(), [0, 0, 4]))
    );
    assert_eq!(
        counts(run(&independent, checked(None))),
        Ok((out(), [4, 0, 4]))
    );
    // Unknown: the check consumes every region whole under the default cap
    // (each counts as a launch run inline); under a cap of 4 it consumes
    // the three-iteration ones and leaves 60 iterations to the first.
    assert_eq!(
        counts(run(&unknown, checked(None))),
        Ok((out(), [0, 73, 4]))
    );
    assert_eq!(
        counts(run(&unknown, checked(Some(4)))),
        Ok((out(), [0, 13, 4]))
    );

    // A `private` clause and a dynamic schedule of one, and a float store
    // converted back on the read: one launch each, the exit code the same
    // at every thread count, checked or not.
    let private_dynamic = "int main() {\n\
                               int* out = (int*) malloc(100 * sizeof(int));\n\
                           #pragma omp parallel for private(x) schedule(dynamic,1)\n\
                               for (int i = 0; i < 100; i++)\n\
                                   out[i] = i;\n\
                               int acc = 0;\n\
                               for (int i = 0; i < 100; i++) acc += out[i];\n\
                               return acc == 4950 ? 1 : 0;\n\
                           }\n";
    let floats = "int main() {\n\
                      float* out = (float*) malloc(256 * sizeof(float));\n\
                  #pragma omp parallel for\n\
                      for (int i = 0; i < 256; i++)\n\
                          out[i] = i * 2;\n\
                      int total = 0;\n\
                      for (int i = 0; i < 256; i++) total += (int) out[i];\n\
                      return total == 65280 ? 7 : 0;\n\
                  }\n";
    for (src, exit, n) in [(private_dynamic, 1, 100), (floats, 7, 256)] {
        let (_, unknown, _) = with_verdicts(src);
        let ran = |opts| run(&unknown, opts).map(|(code, _, race)| (code, race));
        assert_eq!(ran(Default::default()), Ok((exit, [0, 0, 1])));
        assert_eq!(ran(checked(None)), Ok((exit, [0, n, 1])));
        assert_eq!(ran(checked(Some(4))), Ok((exit, [0, 4, 1])));
    }

    // Racy: the static verdict fails before any iteration, at the loop;
    // the dynamic check finds the race at the body, whether it checks
    // the first four iterations or all of them.
    let (racy_verdict, racy_unknown, loops) = with_verdicts(racy);
    assert!(loops
        .iter()
        .all(|l| l.verdict == analysis::LoopVerdict::Racy));
    let (msg, at_loop) = run(&racy_verdict, checked(None)).unwrap_err();
    assert!(msg.contains("static race analysis rejected"), "{msg}");
    let (msg, at_body) = run(&racy_unknown, checked(Some(4))).unwrap_err();
    assert!(msg.contains("race detected"), "{msg}");
    assert!(at_loop.start < at_body.start, "{at_loop:?} {at_body:?}");
    assert_eq!(run(&racy_unknown, checked(None)), Err((msg, at_body)));

    // A trap inside a checked iteration is the region's trap.
    let (_, trap_unknown, _) = with_verdicts(trap);
    let (msg, _) = run(&trap_unknown, checked(Some(4))).unwrap_err();
    assert!(msg.contains("integer division by zero"), "{msg}");
    assert_eq!(
        run(&trap_unknown, checked(Some(4))),
        run(&trap_unknown, Default::default())
    );
}

// ---------------------------------------------------------------------------
// Tier-3.5 bytecode optimizer differential
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The optimizer is observably the identity: on generated programs
    /// (scalars, floats, arrays, structs, globals, calls, a parallel
    /// region across all schedules) the VM's optimized and raw legs of the
    /// matrix match each other and the resolved and legacy oracles on exit
    /// code, output and executed-op counters, sequentially and with 4
    /// threads, and so does level 1. Only the `insns_folded` /
    /// `insns_fused` bookkeeping (zeroed by `without_memo`) may differ, and
    /// the raw bytecode folds and fuses nothing.
    #[test]
    fn optimizer_levels_match_raw_and_oracles(
        n in 4usize..40,
        c1 in -20i64..50,
        c2 in 1i64..40,
        op1 in 0usize..6,
        op2 in 0usize..6,
        sched in 0usize..5,
    ) {
        let src = differential_source(n, c1, c2, op1, op2, sched);
        let report = meets(Entry::generated(&src).raw(&[]));
        let prog = Program::new(&parse(&src).unit);
        for threads in [1usize, 4] {
            let at = |opt_level: u8| InterpOptions { threads, opt_level, ..Default::default() };
            let raw = prog.run(at(0)).expect("raw VM runs");
            let folded = prog.run(at(1)).expect("level-1 VM runs");
            let leg = matrix::Leg::Run(matrix::Engine::Vm(0), true, threads);
            prop_assert_eq!(&report.seen[&leg], &matrix::Observed::Exit(folded.output, folded.exit_code & 0xFF));
            prop_assert_eq!(report.work[&leg].counters, folded.counters.without_memo(), "threads={}", threads);
            prop_assert_eq!((raw.counters.insns_folded, raw.counters.insns_fused), (0, 0));
        }
    }

    /// Pure-call futures + memoization under the optimizer: optimized and raw runs agree on exit code and output
    /// with spawns active (memo on and off), and with memo off they
    /// agree on executed-op counters exactly, sequentially and with 4
    /// threads across schedules.
    #[test]
    fn optimizer_preserves_spawn_observables(
        depth in 5usize..9,
        m in 4usize..12,
        c in 1i64..40,
        sched in 0usize..5,
    ) {
        let sched = [
            "",
            " schedule(static)",
            " schedule(static,2)",
            " schedule(dynamic,1)",
            " schedule(guided,1)",
        ][sched];
        let src = format!(
            "pure int leaf(int x) {{\n\
                 int acc = 0;\n\
                 for (int i = 0; i < (x % 5) + 2; i++) acc += i * x;\n\
                 return acc % 97;\n\
             }}\n\
             pure int tree(int n, int s) {{\n\
                 if (n < 2) return leaf(n + s);\n\
                 return tree(n - 1, s) + tree(n - 2, s + 1);\n\
             }}\n\
             int main() {{\n\
                 int* out = (int*) malloc({m} * sizeof(int));\n\
             #pragma omp parallel for{sched}\n\
                 for (int i = 0; i < {m}; i++) {{\n\
                     out[i] = tree(4 + i % 3, i) + tree(3 + i % 2, i + 1);\n\
                 }}\n\
                 int acc = 0;\n\
                 for (int i = 0; i < {m}; i++) acc += out[i];\n\
                 acc += tree({depth}, {c});\n\
                 printf(\"acc=%d\\n\", acc);\n\
                 return (acc % 113 + 113) % 113;\n\
             }}"
        );
        let parsed = parse(&src);
        prop_assert!(!parsed.diags.has_errors(), "{}", parsed.diags.render_all(&src));
        let pure_set: std::collections::HashSet<String> =
            ["leaf", "tree"].iter().map(|s| s.to_string()).collect();
        let prog = Program::with_pure_set(&parsed.unit, &pure_set);
        for threads in [1usize, 4] {
            let at = |opt_level: u8, memo: bool| InterpOptions {
                threads,
                opt_level,
                memo,
                ..Default::default()
            };
            let raw = prog.run(at(0, false)).expect("raw VM runs");
            let opt = prog.run(at(2, false)).expect("optimized VM runs");
            prop_assert_eq!(opt.exit_code, raw.exit_code, "threads={}", threads);
            prop_assert_eq!(&opt.output, &raw.output, "threads={}", threads);
            prop_assert_eq!(
                opt.counters.without_memo(),
                raw.counters.without_memo(),
                "threads={}",
                threads
            );
            // Memo on: hits never change what the program computes, at
            // either level.
            let raw_memo = prog.run(at(0, true)).expect("raw memoized runs");
            let opt_memo = prog.run(at(2, true)).expect("optimized memoized runs");
            prop_assert_eq!(opt_memo.exit_code, raw.exit_code, "threads={}", threads);
            prop_assert_eq!(&opt_memo.output, &raw.output, "threads={}", threads);
            prop_assert_eq!(raw_memo.exit_code, raw.exit_code, "threads={}", threads);
            prop_assert_eq!(&raw_memo.output, &raw.output, "threads={}", threads);
        }
    }

    /// Structured traps survive optimization verbatim: a runtime divide
    /// by zero, a tripped memory cap and a tripped call-depth cap each
    /// produce the same error message and trap kind at every
    /// optimization level.
    #[test]
    fn optimizer_preserves_traps(d in 3i64..40, cap in 1u64..64) {
        let div_src = format!(
            "int main() {{\n\
                 int z = {d};\n\
                 for (int i = 0; i < {d}; i++) z = z - 1;\n\
                 return 100 / z;\n\
             }}"
        );
        let mem_src = "int main() {\n\
                 int* p = (int*) malloc(4096 * sizeof(int));\n\
                 for (int i = 0; i < 4096; i++) p[i] = i;\n\
                 return p[7];\n\
             }"
        .to_string();
        let depth_src = "int down(int n) { if (n == 0) return 0; return down(n - 1) + 1; }\n\
             int main() { return down(4000); }"
            .to_string();
        let cases: [(String, InterpOptions); 3] = [
            (div_src, InterpOptions::default()),
            (
                mem_src,
                InterpOptions {
                    max_memory_bytes: Some(cap),
                    ..Default::default()
                },
            ),
            (
                depth_src,
                InterpOptions {
                    max_call_depth: Some(cap as usize),
                    ..Default::default()
                },
            ),
        ];
        for (src, base) in cases {
            let parsed = parse(&src);
            prop_assert!(!parsed.diags.has_errors(), "{}", parsed.diags.render_all(&src));
            let prog = Program::new(&parsed.unit);
            let raw = prog
                .run(InterpOptions { opt_level: 0, ..base })
                .expect_err("raw run traps");
            for level in [1u8, 2] {
                let e = prog
                    .run(InterpOptions { opt_level: level, ..base })
                    .expect_err("optimized run traps");
                prop_assert_eq!(&e.message, &raw.message, "level={}", level);
                prop_assert_eq!(e.trap, raw.trap, "level={}", level);
            }
        }
    }

    /// Fuel monotonicity: level-1 optimization only ever *removes*
    /// dispatches, so any fuel budget sufficient for the raw bytecode is
    /// sufficient for the optimized bytecode, and a fuel trap at level 1
    /// implies the raw program would have trapped too.
    #[test]
    fn optimized_fuel_trap_implies_raw_trap(
        n in 4usize..32,
        c1 in -20i64..50,
        c2 in 1i64..40,
        fuel in 1u64..4000,
    ) {
        let src = differential_source(n, c1, c2, 0, 1, 0);
        let parsed = parse(&src);
        prop_assert!(!parsed.diags.has_errors(), "{}", parsed.diags.render_all(&src));
        let prog = Program::new(&parsed.unit);
        let at = |opt_level: u8| InterpOptions {
            fuel: Some(fuel),
            opt_level,
            ..Default::default()
        };
        let raw = prog.run(at(0));
        let opt = prog.run(at(1));
        match (&raw, &opt) {
            // Raw finished within budget -> level 1 must finish too.
            (Ok(r), o) => {
                let o = o.as_ref().expect("level 1 burns no more fuel than raw");
                prop_assert_eq!(o.exit_code, r.exit_code);
                prop_assert_eq!(&o.output, &r.output);
            }
            // Level 1 trapped on fuel -> so must raw.
            (Err(r), Err(o)) => {
                prop_assert_eq!(r.trap, Some(Trap::FuelExhausted));
                prop_assert_eq!(o.trap, Some(Trap::FuelExhausted));
            }
            (Err(_), Ok(_)) => {} // optimization saved enough fuel: fine.
        }
    }
}

// ---------------------------------------------------------------------------
// Observability: tracing must not change observables
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tracing layer is observably free: with a [`cinterp::TraceSession`]
    /// live (every probe site armed, per-thread buffers recording), every
    /// engine produces bit-identical exit code, output and executed-op
    /// counters (modulo scheduling-dependent bookkeeping, zeroed by
    /// `without_memo`) to its untraced run — sequentially and with 4
    /// threads, across generated programs with parallel regions.
    #[test]
    fn tracing_does_not_change_observables(
        n in 4usize..40,
        c1 in -20i64..50,
        c2 in 1i64..40,
        op1 in 0usize..6,
        op2 in 0usize..6,
        sched in 0usize..5,
    ) {
        let src = differential_source(n, c1, c2, op1, op2, sched);
        let parsed = parse(&src);
        prop_assert!(!parsed.diags.has_errors(), "{}", parsed.diags.render_all(&src));
        let prog = Program::new(&parsed.unit);
        for threads in [1usize, 4] {
            let opts = InterpOptions { threads, ..Default::default() };
            let off_vm = prog.run(opts).expect("VM untraced");
            let off_res = prog.run_resolved(opts).expect("resolved untraced");
            let off_legacy = prog.run_legacy(opts).expect("legacy untraced");

            let session = cinterp::TraceSession::start();
            let on_vm = prog.run(opts).expect("VM traced");
            let on_res = prog.run_resolved(opts).expect("resolved traced");
            let on_legacy = prog.run_legacy(opts).expect("legacy traced");
            // (Structural validation of the exported JSON lives in the
            // fault-hammer suite, which controls test concurrency; other
            // tests of this binary may hold spans open while we drain.)
            let _ = session.finish();

            for (on, off, tier) in [
                (&on_vm, &off_vm, "vm"),
                (&on_res, &off_res, "resolved"),
                (&on_legacy, &off_legacy, "legacy"),
            ] {
                prop_assert_eq!(
                    on.exit_code, off.exit_code,
                    "threads={} tier={}", threads, tier
                );
                prop_assert_eq!(&on.output, &off.output, "threads={} tier={}", threads, tier);
                prop_assert_eq!(
                    on.counters.without_memo(),
                    off.counters.without_memo(),
                    "threads={} tier={}",
                    threads,
                    tier
                );
            }
        }
    }
}
