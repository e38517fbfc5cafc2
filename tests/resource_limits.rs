//! Resource-governance trap paths: fuel exhaustion, memory caps and
//! call-depth limits must convert runaway executions into structured
//! [`cinterp::Trap`]s on every engine — including from inside parallel
//! regions and with pure-call futures in flight — and must leave the
//! process-wide worker pool fully reusable afterwards. A spin, an
//! allocation bomb and a deep recursion trap on every leg of the
//! differential matrix (their entries in `tests/support/entries.rs`). The
//! exact dispatch counts of the `--fuel` ruler are pinned here.

#[path = "support/matrix.rs"]
mod matrix;

#[path = "support/entries.rs"]
mod entries;

use cinterp::Trap;
use matrix::{Entry, Expect};
use pure_c::prelude::*;

fn program(src: &str) -> Program {
    let parsed = parse(src);
    assert!(
        !parsed.diags.has_errors(),
        "{}",
        parsed.diags.render_all(src)
    );
    Program::new(&parsed.unit)
}

/// The meter brackets real work: a 20 000-iteration loop traps under a
/// small budget and completes untouched under a generous one, with the
/// same observables as an unlimited run.
#[test]
fn fuel_threshold_brackets_loop_cost() {
    let src = "\
int main() {
    int acc = 0;
    for (int i = 0; i < 20000; i++) acc += i % 7;
    printf(\"acc=%d\\n\", acc);
    return acc % 113;
}";
    let prog = program(src);
    let starved = prog
        .run(InterpOptions {
            fuel: Some(1_000),
            ..Default::default()
        })
        .expect_err("1k fuel cannot cover 20k iterations");
    assert_eq!(starved.trap, Some(Trap::FuelExhausted));
    let unlimited = prog.run(InterpOptions::default()).expect("unlimited run");
    let generous = prog
        .run(InterpOptions {
            fuel: Some(100_000_000),
            ..Default::default()
        })
        .expect("generous fuel covers the loop");
    assert_eq!(generous.exit_code, unlimited.exit_code);
    assert_eq!(generous.output, unlimited.output);
    assert_eq!(
        generous.counters.without_memo(),
        unlimited.counters.without_memo()
    );
}

/// The `--fuel` ruler read from both sides: on one thread the run at
/// `opt_level` completes — with the unlimited run's exit code — under a
/// budget of `dispatches`, and traps one unit below.
fn assert_dispatches(prog: &Program, opt_level: u8, dispatches: u64, cell: &str) {
    let with_fuel = |fuel| {
        prog.run(InterpOptions {
            threads: 1,
            opt_level,
            fuel,
            ..Default::default()
        })
    };
    let unlimited = with_fuel(None).expect("unlimited run");
    let exact = with_fuel(Some(dispatches))
        .unwrap_or_else(|e| panic!("{cell}: more than {dispatches} dispatches: {e}"));
    assert_eq!(exact.exit_code, unlimited.exit_code, "{cell}");
    let starved = with_fuel(Some(dispatches - 1))
        .err()
        .unwrap_or_else(|| panic!("{cell}: fewer than {dispatches} dispatches"));
    assert_eq!(starved.trap, Some(Trap::FuelExhausted), "{cell}: {starved}");
}

/// `fuel` is an exact ruler on one thread: a run completes iff its
/// budget covers its dispatch count. Each cell below pins that count for
/// one loop under one build — chain + optimizer, chain raw, `no_poly` +
/// optimizer, `no_poly` raw — so "the VM got cheaper to dispatch" and
/// "the optimizer pays" are facts a test states without a clock. A
/// canonical `for` runs on the fused `AffineHead`/`AffineNext` pair
/// whoever built it, so `varaccess`, which polycc leaves as it is, costs
/// the same with and without the polyhedral stage. A change that lowers
/// a count edits one literal here and says so; one that raises it fails
/// naming the cell.
#[test]
fn dispatch_counts_are_pinned() {
    fn varaccess(n: u64) -> String {
        format!(
            "int main() {{\n\
                 int a = 0; int b = 1; int c = 2; int d = 3; int e = 4;\n\
                 for (int i = 0; i < {n}; i++) {{\n\
                     a = a + b; b = b ^ c; c = c + d;\n\
                     d = d + e; e = e + a; a = a - d;\n\
                 }}\n\
                 return a & 255;\n\
             }}\n"
        )
    }
    fn arraysum(r: u64) -> String {
        format!(
            "int main() {{\n\
                 int* a = (int*) malloc(64 * sizeof(int));\n\
                 for (int i = 0; i < 64; i++) a[i] = i * 3 + 1;\n\
                 int acc = 0;\n\
                 for (int r = 0; r < {r}; r++) {{\n\
                     for (int i = 0; i < 64; i++) {{\n\
                         int v = a[i];\n\
                         a[i] = v + r;\n\
                         a[i] += r & 7;\n\
                         acc = acc + v;\n\
                     }}\n\
                 }}\n\
                 return acc & 255;\n\
             }}\n"
        )
    }
    fn pin(src: &str, what: &str, no_poly: bool, opt_level: u8, dispatches: u64) {
        let cell = format!(
            "{what} {} {}",
            if no_poly { "no_poly" } else { "chain" },
            if opt_level == 0 { "raw" } else { "opt" }
        );
        let chain = ChainOptions {
            no_poly,
            ..Default::default()
        };
        let prog = compile(src, chain).expect("chain").program();
        assert_dispatches(&prog, opt_level, dispatches, &cell);
    }
    for n in [1_000u64, 2_000] {
        let (src, what) = (varaccess(n), format!("varaccess n={n}"));
        pin(&src, &what, false, 2, 8 * n + 17);
        pin(&src, &what, false, 0, 20 * n + 30);
        pin(&src, &what, true, 2, 8 * n + 17);
        pin(&src, &what, true, 0, 20 * n + 30);
    }
    for (r, opt, raw) in [(10u64, 6_785u64, 10_077u64), (20, 13_235, 19_747)] {
        let (src, what) = (arraysum(r), format!("arraysum 64x{r}"));
        pin(&src, &what, false, 2, opt);
        pin(&src, &what, false, 0, raw);
    }
}

/// What the polyhedral stage buys the paper's four programs on this
/// interpreter, on the same ruler: each app's dispatch count through the
/// chain and under `no_poly`, optimized, at a size a debug build runs in
/// a fraction of a second. Since every canonical `for` gets the fused
/// back edge by its shape, the gap is the transform's own work: heat's
/// transformed stencil nests and matmul's hoisted row pointer pay, while
/// satellite's and lama's nests are the literal loops again plus the
/// bounds polycc hoisted.
///
/// The poly fuel contract: poly fuel ≤ literal fuel + 3 × the
/// hoisted-bound declarations (`int __pc_ubK = n - 1;`) the poly build
/// executes. Each such declaration is three dispatches the literal build
/// does not run; the transformed loops themselves run on the same fused
/// back edge as the literal ones. The derivation is checked exactly: the literal
/// source with the hoisted declarations written into it runs in the poly
/// count for satellite (three, each run once) and lama (two).
#[test]
fn what_the_polyhedral_stage_buys_the_four_apps_is_pinned() {
    fn chain(src: &str, no_poly: bool) -> Program {
        let opts = ChainOptions {
            no_poly,
            ..Default::default()
        };
        compile(src, opts).expect("chain").program()
    }
    // (cell, source, poly, literal, hoisted-bound declarations executed):
    // matmul's one sits in `dot`, which runs once per element of C.
    let cells = [
        (
            "matmul 16",
            apps::matmul::c_source(16),
            37_857,
            38_529,
            16 * 16,
        ),
        ("heat 10x2", apps::heat::c_source(10, 2), 7_188, 9_762, 0),
        (
            "satellite 8x8",
            apps::satellite::c_source(8, 8),
            67_057,
            67_048,
            3,
        ),
        ("lama 64x7", apps::lama::c_source(64, 7), 23_680, 23_674, 2),
    ];
    for (cell, src, poly, literal, hoisted) in &cells {
        assert_dispatches(&chain(src, false), 2, *poly, &format!("{cell} chain"));
        assert_dispatches(&chain(src, true), 2, *literal, &format!("{cell} no_poly"));
        assert!(poly <= &(literal + 3 * hoisted), "{cell}");
    }
    let with_hoists = [
        (
            apps::satellite::c_source(8, 8),
            "int npix = 64;\n",
            "int __pc_ub1 = npix - 1; int __pc_ub2 = npix - 1; int __pc_ub3 = npix - 1;\n",
            67_057,
        ),
        (
            apps::lama::c_source(64, 7),
            "int maxnnz = 7;\n",
            "int __pc_ub1 = rows - 1; int __pc_ub2 = rows - 1;\n",
            23_680,
        ),
    ];
    for (src, after, decls, poly) in with_hoists {
        assert!(src.contains(after));
        let src = src.replacen(after, &format!("{after}{decls}"), 1);
        assert_dispatches(&chain(&src, true), 2, poly, after);
    }
}

/// Which regions fork is decided per launch from the trip count and the
/// body's dispatch bound (`n × work < cinterp::REGION_INLINE_WORK` runs
/// on the caller), so the split is an exact count, the same at every
/// thread count. Predicted before the first run:
/// * `region_churn`'s program (3 000 regions of 64 four-dispatch
///   iterations, after one 64-iteration two-dispatch initialisation
///   region): all 3 001 inline;
/// * `--demo matmul`: its 64 row-initialisation regions inline, the
///   product (an inner loop) forks;
/// * `--demo heat`: 32 initialisation regions inline, all 20 stencil and
///   copy regions (inner loops) fork;
/// * a 64-iteration region holding an inner loop, a user call that stays a
///   call, or a nested region forks — the nested region's 64 two-iteration
///   launches run inline;
/// * a four-dispatch body forks at 512 iterations (2 048 dispatches, the
///   constant) and runs inline at 511.
#[test]
fn region_launch_decisions_are_pinned() {
    fn regions(src: &str, threads: usize) -> (u64, u64) {
        let prog = compile(src, ChainOptions::default())
            .unwrap_or_else(|d| panic!("{}", d.render_all(src)))
            .program();
        let run = prog
            .run(InterpOptions {
                threads,
                ..Default::default()
            })
            .unwrap_or_else(|e| panic!("{e}\n{src}"));
        (run.counters.regions_forked, run.counters.regions_inline)
    }
    fn churn(regions: u64, width: u64) -> String {
        format!(
            "int main() {{\n\
                 double* a = (double*) malloc({width} * sizeof(double));\n\
                 for (int i = 0; i < {width}; i++) a[i] = i;\n\
                 for (int r = 0; r < {regions}; r++) {{\n\
             #pragma omp parallel for schedule(static)\n\
                     for (int i = 0; i < {width}; i++) a[i] = a[i] + 1.0;\n\
                 }}\n\
                 return ((int) a[0]) % 251;\n\
             }}\n"
        )
    }
    let body = |stmt: &str| {
        format!(
            "int twice(int x) {{ int y = x; return 2 * y; }}\n\
             int main() {{\n\
                 int* a = (int*) malloc(128 * sizeof(int));\n\
             #pragma omp parallel for\n\
                 for (int i = 0; i < 64; i++) {{ {stmt} }}\n\
                 return a[7] % 251;\n\
             }}\n"
        )
    };
    assert_eq!(cinterp::REGION_INLINE_WORK, 2048);
    let cells = [
        ("region_churn", churn(3000, 64), (0, 3001)),
        ("demo matmul", apps::matmul::c_source(64), (1, 64)),
        ("demo heat", apps::heat::c_source(32, 10), (20, 32)),
        (
            "inner loop",
            body("int s = 0; for (int k = 0; k < i % 3; k++) s += k; a[i] = s;"),
            (1, 0),
        ),
        ("user call", body("a[i] = twice(i);"), (1, 0)),
        (
            "nested region",
            body(
                "\n#pragma omp parallel for\n\
                 for (int j = 0; j < 2; j++) a[2 * i + j] = j;\n",
            ),
            (1, 64),
        ),
        // Past the initialisation region (1 inline either way).
        ("work 2 048", churn(1, 512), (1, 1)),
        ("work 2 044", churn(1, 511), (0, 2)),
    ];
    for (what, src, want) in &cells {
        for threads in [1, 2] {
            assert_eq!(regions(src, threads), *want, "{what}, threads={threads}");
        }
    }
}

/// The paper's inner loop, `res += mult(a[i], b[i])`, on the same ruler.
/// With the call a call it cost seven dispatches an element (`LoadIdxLL,
/// LoadIdxLL, CallUser, BinLL·tick, Ret, CompoundLocal, AffineNext`) and
/// the memo probe on top: the program below — a six-dispatch init loop
/// and the dot product — ran in 13·n + 29 with the memo off at 1d30a2c.
/// Inlined it is six (the call and its `Ret` become one `InlineCall`),
/// 12·n + 28 for the program, and the memo is not asked about a leaf, so
/// memo-on and memo-off are the same run (the parent's memo-on run was
/// shorter, 2 875 at n = 256: fifteen distinct keys, and a hit skipped
/// the body it cost more than). `--no-opt` inlines nothing and keeps the
/// raw count, 16·n + 42.
#[test]
fn the_papers_leaf_call_costs_six_dispatches_an_element() {
    fn dot(n: u64) -> String {
        format!(
            "pure float mult(float a, float b) {{ return a * b; }}\n\
             pure float dot(pure float* a, pure float* b, int n) {{\n\
                 float res = 0.0f;\n\
                 for (int i = 0; i < n; i++) res += mult(a[i], b[i]);\n\
                 return res;\n\
             }}\n\
             int main() {{\n\
                 float* a = (float*) malloc({n} * sizeof(float));\n\
                 float* b = (float*) malloc({n} * sizeof(float));\n\
                 for (int i = 0; i < {n}; i++) {{ a[i] = i % 5; b[i] = i % 3; }}\n\
                 return (int) dot((pure float*) a, (pure float*) b, {n}) % 251;\n\
             }}\n"
        )
    }
    for n in [256u64, 512] {
        let out = compile(&dot(n), ChainOptions::default()).expect("chain");
        let prog = out.program();
        assert_eq!(prog.resolved().cacheable_functions(), vec!["mult"]);
        let opt = prog.bytecode_at(2);
        assert_eq!(opt.inlined_functions(), vec!["mult"]);
        for memo in [true, false] {
            let run = |opt_level: u8, fuel: Option<u64>| {
                prog.run(InterpOptions {
                    opt_level,
                    fuel,
                    memo,
                    ..Default::default()
                })
            };
            for (opt_level, dispatches) in [(2, 12 * n + 28), (0, 16 * n + 42)] {
                let cell = format!("dot n={n} memo={memo} level {opt_level}");
                let done = run(opt_level, Some(dispatches))
                    .unwrap_or_else(|e| panic!("{cell}: more than {dispatches}: {e}"));
                assert_eq!(done.counters.memo_hits + done.counters.memo_misses, 0);
                let starved = run(opt_level, Some(dispatches - 1)).err();
                let starved = starved.unwrap_or_else(|| panic!("{cell}: fewer than {dispatches}"));
                assert_eq!(starved.trap, Some(Trap::FuelExhausted), "{cell}");
            }
        }
    }
}

/// The optimizer's books balance: every dispatch the default build no
/// longer makes is counted — `fuel(raw) − fuel(opt) = insns_folded +
/// insns_fused` (README's *raw = default + folded + fused*), measured
/// with the `--fuel` ruler on 1 thread over the checked-in programs and
/// the paper's four applications. The raw count is bisected; the
/// optimized one is then predicted and checked from both sides.
#[test]
fn optimizer_books_balance_over_the_corpus() {
    let example = |name: &str| {
        let path = format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    // Every `.c` under examples/ but spin.c (never ends) and
    // schedules/fig03_matmul.c (a second per debug-build run; the matmul
    // demo below is the same nest), with the two long loops cut short.
    let (scratch, churn) = (example("scratch_pure.c"), example("churn.c"));
    assert!(scratch.contains("int n = 20000;") && churn.contains("k < 50000;"));
    let mut corpus: Vec<(String, String)> = [
        "schedules/fig02_skew.c",
        "schedules/fig07_heat.c",
        "schedules/rowptr.c",
        "analysis/clean.c",
        "analysis/infer_pure.c",
        "analysis/pointer_walk.c",
        "analysis/racy.c",
        "analysis/reduction.c",
        "analysis/rowptr.c",
        "analysis/uninit.c",
    ]
    .iter()
    .map(|name| (name.to_string(), example(name)))
    .collect();
    corpus.push((
        "scratch_pure.c (n = 200)".to_string(),
        scratch.replace("int n = 20000;", "int n = 200;"),
    ));
    corpus.push((
        "churn.c (500 pairs)".to_string(),
        churn.replace("k < 50000;", "k < 500;"),
    ));
    corpus.push(("demo matmul 12".to_string(), apps::matmul::c_source(12)));
    corpus.push(("demo heat 8x3".to_string(), apps::heat::c_source(8, 3)));
    corpus.push((
        "demo satellite 6x6".to_string(),
        apps::satellite::c_source(6, 6),
    ));
    corpus.push(("demo lama 32x5".to_string(), apps::lama::c_source(32, 5)));

    for (name, src) in &corpus {
        let prog = compile(src, ChainOptions::default())
            .unwrap_or_else(|d| panic!("{name}: {}", d.render_all(src)))
            .program();
        let run = |opt_level: u8, fuel: Option<u64>| {
            prog.run(InterpOptions {
                threads: 1,
                opt_level,
                fuel,
                ..Default::default()
            })
        };
        let opt = run(2, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        let raw = run(0, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(raw.exit_code, opt.exit_code, "{name}");
        assert_eq!(
            raw.counters.insns_folded + raw.counters.insns_fused,
            0,
            "{name}"
        );
        // Smallest budget the raw run completes under = its dispatches.
        let (mut lo, mut hi) = (1u64, 64);
        while run(0, Some(hi)).is_err() {
            (lo, hi) = (hi + 1, hi * 4);
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if run(0, Some(mid)).is_ok() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let saved = opt.counters.insns_folded + opt.counters.insns_fused;
        assert!(saved > 0 && saved < lo, "{name}: raw {lo}, saved {saved}");
        let cell = format!("{name}: raw {lo} − folded/fused {saved}");
        assert_dispatches(&prog, 2, lo - saved, &cell);
    }
}

/// `free` refunds the budget: 50 000 balanced `malloc(256)`/`free` pairs
/// (12.8 MB cumulative, 256 bytes live) run to their own exit code under
/// a 100 kB cap on every engine.
#[test]
fn balanced_churn_completes_under_a_cap_below_its_cumulative_bytes() {
    let prog = program(include_str!("../examples/churn.c"));
    let opts = InterpOptions {
        max_memory_bytes: Some(100_000),
        ..Default::default()
    };
    for (name, res) in [
        ("vm", prog.run(opts)),
        ("resolved", prog.run_resolved(opts)),
        ("legacy", prog.run_legacy(opts)),
    ] {
        let run = res.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(run.exit_code, 25_000 % 101, "{name}");
        assert_eq!(run.heap.frees, 50_000, "{name}");
        assert_eq!(run.heap.peak_live_bytes, 256, "{name}");
    }
}

/// Frees issued inside a region are refunded at its join — never
/// earlier, whatever the thread count — so a memory trap's verdict does
/// not depend on `threads`: 8 regions of 64 × 1 KiB scratch complete
/// under a cap that holds one region's worth and trap under one that
/// does not, on 1 and on 4 threads, on every engine.
#[test]
fn in_region_frees_are_refunded_at_the_join_for_every_thread_count() {
    let prog = program(
        "\
int main() {
    int* out = (int*) malloc(64 * sizeof(int));
    for (int r = 0; r < 8; r++) {
#pragma omp parallel for schedule(dynamic,1)
        for (int i = 0; i < 64; i++) {
            int* p = (int*) malloc(128 * sizeof(int));
            p[0] = i + r;
            out[i] = p[0];
            free(p);
        }
    }
    return out[63];
}",
    );
    for threads in [1usize, 4] {
        for (cap, fits) in [(100_000u64, true), (40_000, false)] {
            let opts = InterpOptions {
                threads,
                max_memory_bytes: Some(cap),
                ..Default::default()
            };
            for (name, res) in [
                ("vm", prog.run(opts)),
                ("resolved", prog.run_resolved(opts)),
                ("legacy", prog.run_legacy(opts)),
            ] {
                let at = format!("{name}, threads={threads}, cap={cap}");
                match res {
                    Ok(run) => {
                        assert!(fits, "{at}: one region's scratch exceeds the cap");
                        assert_eq!(run.exit_code, 63 + 7, "{at}");
                        assert_eq!(run.heap.peak_live_bytes, 512 + 64 * 1024, "{at}");
                    }
                    Err(e) => {
                        assert!(!fits, "{at}: {e}");
                        assert_eq!(e.trap, Some(Trap::MemoryLimit), "{at}: {e}");
                    }
                }
            }
        }
    }
}

/// [`INFINITE_LOOP`] under a 10 000-dispatch budget traps on fuel on
/// every engine leg.
#[test]
fn infinite_loop_traps_on_fuel_in_every_engine() {
    matrix::run(vec![entries::infinite_loop()], |_| true);
}

/// [`ALLOC_BOMB`] under a 1 MiB cap traps on memory on every engine leg
/// (the VM's legs at the statement after the allocation: a known
/// divergence).
#[test]
fn alloc_bomb_traps_on_memory_limit_in_every_engine() {
    matrix::run(vec![entries::alloc_bomb()], |_| true);
}

/// [`DEEP_RECURSION`] under a 2 000-call cap traps on depth, at the
/// recursive call, on every engine leg.
#[test]
fn deep_recursion_traps_on_depth_limit_in_every_engine() {
    matrix::run(vec![entries::deep_recursion()], |_| true);
}

/// Without an explicit cap the legacy 512-frame guard still fires with
/// its historical message — and no trap classification.
#[test]
fn default_depth_guard_is_unchanged() {
    let expect = Expect::Trap {
        trap: None,
        message: "call stack overflow",
        at: Some("rec(n - 1)"),
    };
    let entry = Entry::new("deep recursion", DEEP_RECURSION, expect).raw(&[]);
    let report = matrix::check(&entry.skip(matrix::gcc_legs, "the guard is the interpreter's"));
    assert!(report.failures.is_empty(), "{report}");
}

const PARALLEL_SPIN: &str = "\
int main() {
    int n = 8;
    int* a = (int*) malloc(8 * sizeof(int));
#pragma omp parallel for schedule(dynamic,1)
    for (int i = 0; i < n; i++) {
        int acc = 0;
        for (int j = 0; j < 100000; j++) acc += j % 5;
        a[i] = acc;
    }
    return a[0] % 100;
}";

const PARALLEL_CLEAN: &str = "\
int main() {
    int n = 16;
    int* a = (int*) malloc(16 * sizeof(int));
#pragma omp parallel for schedule(static,2)
    for (int i = 0; i < n; i++) a[i] = (i + 1) * 3;
    int acc = 0;
    for (int i = 0; i < n; i++) acc += a[i];
    printf(\"acc=%d\\n\", acc);
    return acc % 113;
}";

/// A trap raised inside a parallel region unwinds through the region
/// join, cancels the sibling iterations, and leaves the process-wide
/// pool reusable: a second program runs on the same pool in-process.
#[test]
fn trap_in_parallel_region_leaves_pool_reusable() {
    let spin = program(PARALLEL_SPIN);
    let clean = program(PARALLEL_CLEAN);
    for _ in 0..3 {
        for (name, res) in [
            (
                "vm",
                spin.run(InterpOptions {
                    threads: 4,
                    fuel: Some(20_000),
                    ..Default::default()
                }),
            ),
            (
                "resolved",
                spin.run_resolved(InterpOptions {
                    threads: 4,
                    fuel: Some(20_000),
                    ..Default::default()
                }),
            ),
        ] {
            let err = res.expect_err("the region must run out of fuel");
            assert_eq!(err.trap, Some(Trap::FuelExhausted), "{name}: {err}");
        }
        // Same process-wide pool, next program: must run to completion.
        let ok = clean
            .run(InterpOptions {
                threads: 4,
                ..Default::default()
            })
            .expect("pool must be reusable after a trap");
        assert_eq!(ok.output, "acc=408\n");
    }
}

/// Memory traps inside a parallel region behave the same way.
#[test]
fn memory_trap_in_parallel_region_leaves_pool_reusable() {
    let src = "\
int main() {
    int n = 8;
    int* out = (int*) malloc(8 * sizeof(int));
#pragma omp parallel for schedule(dynamic,1)
    for (int i = 0; i < n; i++) {
        int* p = (int*) malloc(65536 * sizeof(int));
        p[0] = i;
        out[i] = p[0];
    }
    return out[0];
}";
    let bomb = program(src);
    let err = bomb
        .run(InterpOptions {
            threads: 4,
            max_memory_bytes: Some(1 << 19),
            ..Default::default()
        })
        .expect_err("the region allocations must exceed the cap");
    assert_eq!(err.trap, Some(Trap::MemoryLimit), "{err}");
    let clean = program(PARALLEL_CLEAN);
    let ok = clean
        .run(InterpOptions {
            threads: 4,
            ..Default::default()
        })
        .expect("pool must be reusable after a memory trap");
    assert_eq!(ok.output, "acc=408\n");
}

/// A fuel trap with pure-call futures pending (spawned, not yet awaited)
/// must cancel or drain them and leave the pool reusable.
#[test]
fn trap_with_pending_futures_leaves_pool_reusable() {
    let src = "\
pure int leaf(int x) {
    int acc = 0;
    for (int i = 0; i < (x % 5) + 2; i++) acc += i * x;
    return acc % 97;
}
pure int tree(int n, int s) {
    if (n < 2) return leaf(n + s);
    int a = tree(n - 1, s);
    int b = tree(n - 2, s + 1);
    return a + b;
}
int main() {
    int acc = 0;
    for (int r = 0; r < 50; r++) {
        int p = tree(12, r);
        int q = tree(11, r + 1);
        acc += p - q;
    }
    printf(\"acc=%d\\n\", acc);
    return (acc % 113 + 113) % 113;
}";
    let parsed = parse(src);
    assert!(!parsed.diags.has_errors());
    let pure_set: std::collections::HashSet<String> =
        ["leaf", "tree"].iter().map(|s| s.to_string()).collect();
    let prog = cinterp::Program::with_pure_set(&parsed.unit, &pure_set);
    assert!(
        !prog.resolved().spawn_sites().is_empty(),
        "the program must actually spawn futures"
    );
    let reference = prog
        .run(InterpOptions {
            threads: 4,
            futures: true,
            memo: false,
            ..Default::default()
        })
        .expect("unlimited reference run");
    for engine_run in [Program::run, Program::run_resolved] {
        let err = engine_run(
            &prog,
            InterpOptions {
                threads: 4,
                futures: true,
                memo: false,
                fuel: Some(5_000),
                ..Default::default()
            },
        )
        .expect_err("the futures workload must exhaust 5k fuel");
        assert_eq!(err.trap, Some(Trap::FuelExhausted), "{err}");
        // The pool survives with no stuck tasks: the same program runs
        // clean immediately afterwards.
        let ok = engine_run(
            &prog,
            InterpOptions {
                threads: 4,
                futures: true,
                memo: false,
                ..Default::default()
            },
        )
        .expect("pool must be reusable after a trap with futures in flight");
        assert_eq!(ok.output, reference.output);
        assert_eq!(ok.exit_code, reference.exit_code);
    }
}

/// Fuel accounting is engine-agnostic enough that all three tiers trap
/// (rather than complete) under the same starved budget, and none of
/// them classifies a *successful* run as trapped.
#[test]
fn traps_do_not_leak_into_successful_runs() {
    let governed = InterpOptions {
        fuel: Some(100_000_000),
        max_memory_bytes: Some(1 << 30),
        max_call_depth: Some(10_000),
        memo: false,
        ..Default::default()
    };
    let entry = Entry::output("parallel clean", PARALLEL_CLEAN, "acc=408\n", 408 % 113);
    let entry = entry.raw(&[]).interp(governed);
    let report = matrix::check(&entry.skip(matrix::gcc_legs, "the limits are the interpreter's"));
    assert!(report.failures.is_empty(), "{report}");
}

include!("support/corpus.rs");
