//! `bench_interp` — records the interpreter-dispatch perf **trajectory**.
//!
//! Runs the variable-access microbench, chain-compiled matmul 64³, a
//! small heat stencil, the fib memo kernel, and a parallel memoized fib
//! loop on the execution tiers — resolved-IR engine and bytecode VM by
//! default, plus the legacy tree-walker when built with
//! `--features legacy-oracle` — then **appends** a timestamped entry to
//! `BENCH_interp.json` so the file accumulates the history across PRs
//! instead of overwriting it.
//!
//! ```text
//! cargo run --release -p bench-harness --bin bench_interp [out.json]
//! BENCH_QUICK=1 ...         # smaller sizes, 1 rep (CI smoke)
//! ```
//!
//! Every gate is evaluated **before** the entry is appended, and the
//! entry is stamped with `gates_passed` and the names of the
//! `failed_gates`, so a failing run is recorded as failing.
//! The run exits non-zero when the bytecode VM fails to beat the
//! resolved engine on the dispatch-bound `varaccess` case — the CI bench
//! smoke turns a dispatch regression into a red build. The
//! `region_heavy` case (many small parallel regions) records the
//! region-launch cost in the trajectory, and `malloc_churn` (balanced
//! `malloc`/`free` pairs, run first) the heap's resident-set cost.
//! The `fib_futures` (statement-level spawn batches) and `treesum_expr`
//! (expression-level spawns over the work-stealing deques) cases gate
//! the pure-call futures subsystem: on a host with ≥ 4 CPUs each
//! memo-off divide-and-conquer benchmark must run ≥ 2× faster with
//! futures on 4 threads than sequentially (≥ 1× on 2–3 CPUs;
//! unenforceable and skipped on 1). `treesum_expr` also records the
//! futures run's `local_pushes`/`tasks_stolen` counters. Legs that
//! oversubscribe the host (more threads than CPUs) are recorded, not
//! gated. Entries are
//! appended with the git commit, the parallel thread count and the host
//! CPU count so the trajectory stays attributable.

use cfront::parser::parse;
use cinterp::{Engine, InterpOptions, Program, RunResult};
use purec::chain::{compile, ChainOptions};
use serde_json::Value;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Newest mtime of any `.rs` / `Cargo.toml` under `dir` (skipping
/// `target/` and dot-dirs) — the freshness reference for the guard below.
fn newest_source_mtime(dir: &std::path::Path, newest: &mut SystemTime) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            newest_source_mtime(&path, newest);
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(m) = e.metadata().and_then(|m| m.modified()) {
                *newest = (*newest).max(m);
            }
        }
    }
}

/// A trajectory entry timed from a binary older than the workspace
/// sources attributes the *old* code's numbers to the current commit.
/// Refuse to run stale; `BENCH_ALLOW_STALE=1` overrides (e.g. when only
/// comments changed).
fn refuse_stale_binary() {
    if std::env::var_os("BENCH_ALLOW_STALE").is_some() {
        return;
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut newest = SystemTime::UNIX_EPOCH;
    newest_source_mtime(&root.join("crates"), &mut newest);
    newest_source_mtime(&root.join("src"), &mut newest);
    if let Ok(m) = std::fs::metadata(root.join("Cargo.toml")).and_then(|m| m.modified()) {
        newest = newest.max(m);
    }
    let exe = std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified());
    match exe {
        Ok(exe) if exe >= newest => {}
        _ => {
            eprintln!(
                "bench_interp: this binary is older than the workspace sources — the \
                 trajectory entry would attribute stale numbers to the current commit.\n\
                 Rebuild first (`cargo build --release --workspace`) or set \
                 BENCH_ALLOW_STALE=1 to run anyway."
            );
            std::process::exit(3);
        }
    }
}

/// `key` (`VmRSS` / `VmHWM`) of this process in kB, 0 where `/proc` is
/// not available.
fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(key))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

struct BenchCase {
    name: &'static str,
    program: Program,
    /// (label, options, uses_legacy_engine)
    variants: Vec<(&'static str, InterpOptions, bool)>,
}

fn time_run(program: &Program, opts: InterpOptions, legacy: bool, reps: u32) -> (f64, RunResult) {
    let run_once = |program: &Program| -> RunResult {
        if legacy {
            #[cfg(feature = "legacy-oracle")]
            {
                return program.run_legacy(opts).expect("benchmark program runs");
            }
            #[cfg(not(feature = "legacy-oracle"))]
            unreachable!("legacy variants are only constructed with the feature on");
        }
        program.run(opts).expect("benchmark program runs")
    };
    // One warm-up, then best-of-`reps` wall time.
    let warm = run_once(program);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run_once(program);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(r.exit_code, warm.exit_code, "nondeterministic benchmark");
        best = best.min(dt);
    }
    (best, warm)
}

fn plain(src: &str) -> Program {
    let r = parse(src);
    assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
    Program::new(&r.unit)
}

fn chain(src: &str) -> Program {
    compile(src, ChainOptions::default())
        .expect("chain ok")
        .program()
}

/// Wall time the always-on dataflow-lint pass adds to a chain compile,
/// isolated by differencing `analyze_unit` with and without lints over
/// the lowered unit (best-of-N to shed scheduler noise).
fn lint_overhead_secs(out: &purec::chain::ChainOutput) -> f64 {
    let parsed = parse(&out.text);
    let mut verified = purec_core::PureSet::seeded();
    for name in &out.declared_pure {
        verified.insert(name.clone());
    }
    let time = |opts: &analysis::AnalysisOptions| {
        let mut best = f64::INFINITY;
        for _ in 0..20 {
            let t0 = Instant::now();
            let _ = analysis::analyze_unit(&parsed.unit, &verified, opts);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let full = time(&analysis::AnalysisOptions::default());
    let race_only = time(&analysis::AnalysisOptions {
        no_lints: true,
        ..Default::default()
    });
    (full - race_only).max(0.0)
}

fn varaccess_source(iters: u64) -> String {
    format!(
        "int main() {{\n\
             int a = 0; int b = 1; int c = 2; int d = 3; int e = 4;\n\
             for (int i = 0; i < {iters}; i++) {{\n\
                 a = a + b; b = b ^ c; c = c + d;\n\
                 d = d + e; e = e + a; a = a - d;\n\
             }}\n\
             return a & 255;\n\
         }}"
    )
}

/// Region-heavy workload: many *small* parallel regions inside a
/// sequential loop — the region-launch overhead microbench. Each region
/// submits `threads` tasks to the already-running workers of the
/// persistent pool; the launch cost, not the loop body, dominates here.
fn region_heavy_source(regions: usize, width: usize) -> String {
    format!(
        "int main() {{\n\
             double* a = (double*) malloc({width} * sizeof(double));\n\
             for (int i = 0; i < {width}; i++) a[i] = i;\n\
             for (int r = 0; r < {regions}; r++) {{\n\
         #pragma omp parallel for schedule(static)\n\
                 for (int i = 0; i < {width}; i++) a[i] = a[i] + 1.0;\n\
             }}\n\
             double acc = 0;\n\
             for (int i = 0; i < {width}; i++) acc = acc + a[i];\n\
             return ((int) acc) % 251;\n\
         }}"
    )
}

/// Array-heavy loops: the fused load-index/store-index/compound-index
/// superinstruction workload (`a[i]`, `a[i] = x`, `a[i] += x` with base
/// and index in frame slots).
fn arraysum_source(n: usize, iters: usize) -> String {
    format!(
        "int main() {{\n\
             int* a = (int*) malloc({n} * sizeof(int));\n\
             for (int i = 0; i < {n}; i++) a[i] = i * 3 + 1;\n\
             int acc = 0;\n\
             for (int r = 0; r < {iters}; r++) {{\n\
                 for (int i = 0; i < {n}; i++) {{\n\
                     int v = a[i];\n\
                     a[i] = v + r;\n\
                     a[i] += r & 7;\n\
                     acc = acc + v;\n\
                 }}\n\
             }}\n\
             return acc & 255;\n\
         }}"
    )
}

/// The tree-recursive, memo-off divide-and-conquer benchmark of the
/// pure-call futures subsystem: fib with explicit locals, so the two
/// recursive calls form a spawn batch (spawn left, inline right, await).
fn fib_futures_source(n: usize) -> String {
    format!(
        "pure int fib(int n) {{\n\
             if (n < 2) return n;\n\
             int a = fib(n - 1);\n\
             int b = fib(n - 2);\n\
             return a + b;\n\
         }}\n\
         int main() {{ return fib({n}) % 251; }}\n"
    )
}

/// The expression-level divide-and-conquer benchmark: a balanced binary
/// tree sum whose recursive calls sit *inside* the `return` expression —
/// no locals, no statement-level sites. Spawns exist only because the
/// hoisting pass introduces temps; scaling exists only because the
/// work-stealing deques migrate the subtrees.
fn treesum_source(depth: usize) -> String {
    format!(
        "pure int tsum(int n, int v) {{\n\
             if (n == 0) return (v % 13) + 1;\n\
             return tsum(n - 1, v * 2 + 1) + tsum(n - 1, v * 2 + 2);\n\
         }}\n\
         int main() {{ return tsum({depth}, 1) % 251; }}\n"
    )
}

/// Parallel loop over a memoized pure function: the workload where the
/// resolved engine's single locked memo cache serializes workers and the
/// VM's per-worker shards do not.
fn fib_parallel_source(n: usize, fib: u64) -> String {
    format!(
        "pure int fib(int n) {{ if (n < 2) return n; return fib(n - 1) + fib(n - 2); }}\n\
         int main() {{\n\
             int* out = (int*) malloc({n} * sizeof(int));\n\
         #pragma omp parallel for schedule(dynamic,4)\n\
             for (int i = 0; i < {n}; i++) out[i] = fib({fib} + i % 5);\n\
             int acc = 0;\n\
             for (int i = 0; i < {n}; i++) acc += out[i];\n\
             return acc % 251;\n\
         }}"
    )
}

/// Engine-tier variants for one case: legacy (feature-gated), resolved,
/// bytecode — all sharing `base` options.
#[cfg_attr(not(feature = "legacy-oracle"), allow(unused_mut))]
fn tier_variants(base: InterpOptions) -> Vec<(&'static str, InterpOptions, bool)> {
    let mut v = vec![
        (
            "resolved",
            InterpOptions {
                engine: Engine::Resolved,
                ..base
            },
            false,
        ),
        (
            "bytecode",
            InterpOptions {
                engine: Engine::Bytecode,
                ..base
            },
            false,
        ),
    ];
    #[cfg(feature = "legacy-oracle")]
    v.insert(0, ("legacy", base, true));
    v
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

/// Gate verdicts of one run, collected so that the trajectory entry can
/// be stamped with them before it is written.
#[derive(Default)]
struct Gates {
    /// Names of the gates that failed, in evaluation order.
    failed: Vec<String>,
}

impl Gates {
    /// Record one gate: print its measurement line, prefixed `FAIL:` when
    /// `ok` is false. A NaN measurement compares false, so a missing case
    /// fails its gate.
    fn check(&mut self, name: String, ok: bool, line: String) {
        if ok {
            eprintln!("{line}");
        } else {
            eprintln!("FAIL: {line}");
            self.failed.push(name);
        }
    }
}

/// Thread count of every parallel variant — also recorded in each
/// trajectory entry, so the two can never drift apart.
const BENCH_THREADS: usize = 4;

fn main() {
    refuse_stale_binary();
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interp.json".to_string());
    let quick = std::env::var_os("BENCH_QUICK").is_some();
    // Best-of-3 even in quick mode: the CI gate compares wall times, and
    // a single preempted rep on a shared runner must not flip it.
    let reps = 3;
    let var_iters = if quick { 20_000 } else { 500_000 };
    let fib_n = if quick { 18 } else { 24 };
    let par_iters = if quick { 64 } else { 512 };
    let par_fib = if quick { 14 } else { 18 };
    let region_count = if quick { 100 } else { 600 };
    let arr_n = if quick { 256 } else { 1024 };
    let arr_iters = if quick { 40 } else { 400 };
    // The futures cases keep their full size in quick mode: the gate
    // asks whether pure calls run *in parallel*, and a run of a few
    // milliseconds is shorter than the OS scheduler's own balancing
    // period (a woken worker first lands on its waker's CPU and only a
    // later tick spreads the two), so it would time thread placement,
    // not the runtime. ~50–150 ms per run is past that.
    let fut_fib = 27;
    let tree_depth = 19;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let seq = InterpOptions::default();
    let par4 = InterpOptions {
        threads: BENCH_THREADS,
        ..seq
    };
    let mut fib_variants = tier_variants(seq);
    fib_variants.insert(
        fib_variants.len() - 1,
        (
            "resolved_memo_off",
            InterpOptions {
                memo: false,
                engine: Engine::Resolved,
                ..seq
            },
            false,
        ),
    );
    fib_variants.push((
        "bytecode_memo_off",
        InterpOptions {
            memo: false,
            engine: Engine::Bytecode,
            ..seq
        },
        false,
    ));

    // Tier variants plus the tier-3.5 optimizer A/B: `bytecode` runs the
    // default optimized bytecode, `bytecode_noopt` the raw lowering
    // (`purec --no-opt`). Their ratio is the optimizer's win, recorded
    // per entry and gated below.
    let with_noopt = |base: InterpOptions| {
        let mut v = tier_variants(base);
        v.push((
            "bytecode_noopt",
            InterpOptions {
                engine: Engine::Bytecode,
                opt_level: 0,
                ..base
            },
            false,
        ));
        v
    };

    // The static analyzer rides along with every chain compile (race
    // verdicts + always-on lints). Time the matmul64 lowering end to end
    // (best-of-3), record the analyzer's share in the trajectory entry,
    // and gate the lint pass below at <5% of the compile.
    let matmul_src = apps::matmul::c_source(64);
    let mut matmul_compile_secs = f64::INFINITY;
    let mut matmul_out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let out = compile(&matmul_src, ChainOptions::default()).expect("chain ok");
        let dt = t0.elapsed().as_secs_f64();
        if dt < matmul_compile_secs {
            matmul_compile_secs = dt;
            matmul_out = Some(out);
        }
    }
    let matmul_out = matmul_out.expect("at least one compile");
    let matmul_analysis_secs = matmul_out.analysis_micros as f64 / 1e6;
    let matmul_lint_secs = lint_overhead_secs(&matmul_out);

    let cases = vec![
        // Balanced malloc/free pairs with a live set of one block. Runs
        // first so the process high-water mark it moves is its own.
        BenchCase {
            name: "malloc_churn",
            program: plain(include_str!("../../../../examples/churn.c")),
            variants: vec![("bytecode", seq, false)],
        },
        BenchCase {
            name: "varaccess",
            program: plain(&varaccess_source(var_iters)),
            variants: with_noopt(seq),
        },
        BenchCase {
            name: "matmul64",
            program: matmul_out.program(),
            variants: with_noopt(seq),
        },
        BenchCase {
            name: "heat24x4",
            program: chain(&apps::heat::c_source(24, 4)),
            variants: tier_variants(seq),
        },
        BenchCase {
            name: "fib_memo",
            program: chain(&format!(
                "pure int fib(int n) {{ if (n < 2) return n; return fib(n - 1) + fib(n - 2); }}\n\
                 int main() {{ return fib({fib_n}) % 251; }}\n"
            )),
            variants: fib_variants,
        },
        BenchCase {
            name: "fib_parallel_memo",
            program: chain(&fib_parallel_source(par_iters, par_fib)),
            variants: tier_variants(par4)
                .into_iter()
                .filter(|(_, _, legacy)| !legacy)
                .collect(),
        },
        // Array-heavy loops: exercises the fused load-index/store-index
        // superinstructions (delta shows as the bytecode-vs-resolved
        // ratio in the trajectory).
        BenchCase {
            name: "arraysum",
            program: plain(&arraysum_source(arr_n, arr_iters)),
            variants: with_noopt(seq),
        },
        // The pure-call futures A/B: memo-off divide-and-conquer fib.
        // `bytecode_seq` is the sequential baseline, `*_nofutures` the
        // same thread count with spawn sites forced inline, `*_futures`
        // the full subsystem. Gated below on multi-core hosts.
        BenchCase {
            name: "fib_futures",
            program: chain(&fib_futures_source(fut_fib)),
            variants: vec![
                (
                    "bytecode_seq",
                    InterpOptions {
                        memo: false,
                        futures: false,
                        ..seq
                    },
                    false,
                ),
                (
                    "bytecode_nofutures",
                    InterpOptions {
                        memo: false,
                        futures: false,
                        ..par4
                    },
                    false,
                ),
                (
                    "bytecode_futures",
                    InterpOptions {
                        memo: false,
                        ..par4
                    },
                    false,
                ),
                (
                    "resolved_futures",
                    InterpOptions {
                        memo: false,
                        engine: Engine::Resolved,
                        ..par4
                    },
                    false,
                ),
            ],
        },
        // The expression-spawn A/B: memo-off balanced tree sum whose
        // spawn sites exist only through temp hoisting. Gated below like
        // fib_futures; the futures run's steal counters are recorded
        // per entry.
        BenchCase {
            name: "treesum_expr",
            program: chain(&treesum_source(tree_depth)),
            variants: vec![
                (
                    "bytecode_seq",
                    InterpOptions {
                        memo: false,
                        futures: false,
                        ..seq
                    },
                    false,
                ),
                (
                    "bytecode_nofutures",
                    InterpOptions {
                        memo: false,
                        futures: false,
                        ..par4
                    },
                    false,
                ),
                (
                    "bytecode_futures",
                    InterpOptions {
                        memo: false,
                        ..par4
                    },
                    false,
                ),
            ],
        },
        // Region-launch overhead on 4 threads (recorded, not gated).
        BenchCase {
            name: "region_heavy",
            program: plain(&region_heavy_source(region_count, 64)),
            variants: vec![("bytecode_pool", par4, false)],
        },
    ];

    let mut bench_values: Vec<Value> = Vec::new();
    let mut tier_speedups: Vec<(String, f64)> = Vec::new();
    let mut opt_speedups: Vec<(String, f64)> = Vec::new();
    let mut futures_speedup = f64::NAN;
    let mut treesum_speedup = f64::NAN;
    for case in &cases {
        let mut fields: Vec<(String, Value)> =
            vec![("name".to_string(), Value::Str(case.name.to_string()))];
        let mut times: Vec<(&str, f64)> = Vec::new();
        let mut exit: Option<i64> = None;
        let (rss_before, hwm_before) = (proc_status_kb("VmRSS:"), proc_status_kb("VmHWM:"));
        for (label, opts, legacy) in &case.variants {
            let (secs, run) = time_run(&case.program, *opts, *legacy, reps);
            // Every tier must agree on the program's result — a
            // divergence is a red bench, not a quietly wrong entry.
            if let Some(prev) = exit {
                assert_eq!(
                    prev, run.exit_code,
                    "{}: tier '{label}' disagrees on exit code",
                    case.name
                );
            }
            exit = Some(run.exit_code);
            times.push((label, secs));
            // treesum_expr records where its futures ran: how many went
            // onto a worker's own deque, and how many of those a
            // sibling stole (warm-up run's counters).
            if case.name == "treesum_expr" && *label == "bytecode_futures" {
                fields.push((
                    "local_pushes".to_string(),
                    num(run.counters.local_pushes as f64),
                ));
                fields.push((
                    "tasks_stolen".to_string(),
                    num(run.counters.tasks_stolen as f64),
                ));
            }
            eprintln!(
                "{:<18} {:<18} {:>10.3} ms  (exit {})",
                case.name,
                label,
                secs * 1e3,
                run.exit_code
            );
        }
        fields.push((
            "exit_code".to_string(),
            num(exit.expect("at least one variant ran") as f64),
        ));
        for (label, secs) in &times {
            fields.push((format!("{label}_ms"), num((secs * 1e6).round() / 1e3)));
        }
        // Resident-set cost of the case (recorded, not gated): what it
        // left behind, and how far it pushed the process peak — the
        // latter reads 0 once an earlier case peaked higher.
        let rss_delta = proc_status_kb("VmRSS:") as f64 - rss_before as f64;
        fields.push(("rss_delta_kb".to_string(), num(rss_delta)));
        fields.push((
            "rss_peak_delta_kb".to_string(),
            num((proc_status_kb("VmHWM:") - hwm_before) as f64),
        ));
        let get = |l: &str| times.iter().find(|(x, _)| *x == l).map(|(_, t)| *t);
        if let (Some(legacy), Some(resolved)) = (get("legacy"), get("resolved")) {
            fields.push((
                "speedup_resolved_vs_legacy".to_string(),
                num(legacy / resolved),
            ));
        }
        if let (Some(resolved), Some(bytecode)) = (get("resolved"), get("bytecode")) {
            let s = resolved / bytecode;
            fields.push(("speedup_bytecode_vs_resolved".to_string(), num(s)));
            tier_speedups.push((case.name.to_string(), s));
        }
        if let (Some(noopt), Some(bytecode)) = (get("bytecode_noopt"), get("bytecode")) {
            // The tier-3.5 optimizer A/B column.
            let s = noopt / bytecode;
            fields.push(("speedup_opt_vs_noopt".to_string(), num(s)));
            opt_speedups.push((case.name.to_string(), s));
        }
        if let (Some(sequential), Some(fut)) = (get("bytecode_seq"), get("bytecode_futures")) {
            let s = sequential / fut;
            fields.push(("speedup_futures_vs_seq".to_string(), num(s)));
            if case.name == "fib_futures" {
                futures_speedup = s;
            }
            if case.name == "treesum_expr" {
                treesum_speedup = s;
            }
        }
        bench_values.push(Value::Object(fields));
    }

    // Polyhedral A/B: the same source lowered twice — the default chain
    // (polycc schedules + schedule-aware AffineFor bytecode with hoisted
    // bounds) versus `--no-poly` (literal loop skeletons). Both the
    // compile and the run are timed: the run ratio is the tier's perf
    // claim (`speedup_poly_vs_literal`, gated below), the compile delta
    // is the transform's budget (the bounded Fourier–Motzkin
    // elimination keeps it small, and the gate below keeps it bounded).
    // matmul uses the inline triple-loop variant: with no pure-call
    // boundary in the product nest, the schedule-aware skeleton *and*
    // the hoisted row pointers both land in the hot loop, which is
    // where the wall-clock win lives (the pure-call variant is
    // call-dominated and measures the runtime, not the schedules).
    let poly_cases: Vec<(&str, String)> = vec![
        (
            "matmul128_poly",
            apps::matmul::c_source_inline(if quick { 48 } else { 128 }),
        ),
        (
            "heat_poly",
            apps::heat::c_source(if quick { 32 } else { 48 }, if quick { 2 } else { 4 }),
        ),
    ];
    let mut poly_fields: Vec<(String, Value)> = Vec::new();
    let mut poly_seq_speedups: Vec<(&str, f64)> = Vec::new();
    let mut poly_par_speedups: Vec<(&str, f64)> = Vec::new();
    let mut poly_compile_deltas: Vec<(&str, f64)> = Vec::new();
    for (name, src) in &poly_cases {
        let compile_best = |opts: ChainOptions| {
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..3 {
                let t0 = Instant::now();
                let o = compile(src, opts.clone()).expect("chain ok");
                let dt = t0.elapsed().as_secs_f64();
                if dt < best {
                    best = dt;
                    out = Some(o);
                }
            }
            (best, out.expect("at least one compile"))
        };
        let (poly_compile, poly_out) = compile_best(ChainOptions::default());
        let (lit_compile, lit_out) = compile_best(ChainOptions {
            no_poly: true,
            ..Default::default()
        });
        assert!(
            poly_out.regions_transformed >= 1,
            "{name}: polyhedral tier transformed nothing"
        );
        assert_eq!(lit_out.regions_transformed, 0, "{name}: --no-poly leaked");
        let poly_prog = poly_out.program();
        let lit_prog = lit_out.program();
        for (leg, opts) in [("", seq), ("_par4", par4)] {
            let (poly_t, pr) = time_run(&poly_prog, opts, false, reps);
            let (lit_t, lr) = time_run(&lit_prog, opts, false, reps);
            assert_eq!(
                pr.exit_code, lr.exit_code,
                "{name}{leg}: poly and literal builds disagree"
            );
            let s = lit_t / poly_t;
            poly_fields.push((format!("{name}{leg}_ms"), num((poly_t * 1e6).round() / 1e3)));
            poly_fields.push((
                format!("{name}{leg}_literal_ms"),
                num((lit_t * 1e6).round() / 1e3),
            ));
            poly_fields.push((format!("{name}{leg}_speedup_poly_vs_literal"), num(s)));
            if leg.is_empty() {
                poly_seq_speedups.push((name, s));
            } else {
                poly_par_speedups.push((name, s));
            }
            eprintln!(
                "{:<18} {:<18} {:>10.3} ms  (literal {:.3} ms, speedup {:.2}x)",
                name,
                if leg.is_empty() {
                    "poly_vs_literal"
                } else {
                    "poly_vs_lit_par4"
                },
                poly_t * 1e3,
                lit_t * 1e3,
                s
            );
        }
        let delta = (poly_compile - lit_compile).max(0.0);
        poly_fields.push((
            format!("{name}_compile_ms"),
            num((poly_compile * 1e6).round() / 1e3),
        ));
        poly_fields.push((
            format!("{name}_poly_compile_delta_ms"),
            num((delta * 1e6).round() / 1e3),
        ));
        poly_compile_deltas.push((name, delta));
        eprintln!(
            "{:<18} {:<18} {:>10.3} ms  (compile; transform share {:.3} ms)",
            name,
            "chain_compile",
            poly_compile * 1e3,
            delta * 1e3
        );
    }

    // Traced-vs-untraced A/B: the observability layer's overhead budget.
    // The probes are compiled in unconditionally, so their *disabled*
    // cost (one relaxed load + branch per site) is already pinned by the
    // tier floors above — a disabled-probe regression would sink
    // varaccess below its 1.5× floor. What is measured here is the
    // *enabled* cost: the same program and options under a live
    // [`cinterp::TraceSession`], gated below at < 15% overhead.
    let mut traced_ratios: Vec<(&str, f64)> = Vec::new();
    let mut traced_fields: Vec<(String, Value)> = Vec::new();
    let traced_cases = [
        ("varaccess", plain(&varaccess_source(var_iters))),
        ("matmul64", matmul_out.program()),
    ];
    for (name, program) in &traced_cases {
        let (untraced, _) = time_run(program, seq, false, reps);
        let session = cinterp::TraceSession::start();
        let (traced, _) = time_run(program, seq, false, reps);
        let data = session.finish();
        // The captured trace must stay structurally sound under bench
        // loads (and must not have overflowed the per-thread buffers).
        cinterp::validate_chrome_trace(&cinterp::chrome_trace_json(&data))
            .unwrap_or_else(|e| panic!("{name}: traced bench produced invalid trace: {e}"));
        assert_eq!(data.dropped, 0, "{name}: trace buffers overflowed");
        let ratio = traced / untraced;
        traced_ratios.push((name, ratio));
        traced_fields.push((
            format!("{name}_untraced_ms"),
            num((untraced * 1e6).round() / 1e3),
        ));
        traced_fields.push((
            format!("{name}_traced_ms"),
            num((traced * 1e6).round() / 1e3),
        ));
        traced_fields.push((format!("{name}_ratio"), num(ratio)));
        eprintln!(
            "{:<18} {:<18} {:>10.3} ms  (untraced {:.3} ms, ratio {:.3}x)",
            name,
            "bytecode_traced",
            traced * 1e3,
            untraced * 1e3,
            ratio
        );
    }

    // Gates are evaluated *before* the entry is written, and the entry
    // carries their verdict (`gates_passed`, `failed_gates`): a failing
    // run is still recorded — it is a data point — but never as a good
    // one. The process exits non-zero after the write.
    let mut gates = Gates::default();

    // CI smoke: the VM must beat the resolved engine where dispatch
    // dominates; a regression here fails the build. The floors *rose*
    // when the tier-3.5 optimizer landed (pre-optimizer the varaccess
    // gate was 1.0×; measured post-optimizer quick-mode ratios sit well
    // above these, the slack absorbs shared-runner noise). A missing
    // case yields no entry and fails via `required`.
    const TIER_FLOORS: &[(&str, f64)] = &[("varaccess", 1.5), ("matmul64", 1.3), ("arraysum", 1.3)];
    for (name, floor) in TIER_FLOORS {
        let s = tier_speedups
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(f64::NAN);
        gates.check(
            format!("tier_floor:{name}"),
            s >= *floor,
            format!("{name} bytecode speedup vs resolved: {s:.2}x (floor {floor:.2}x)"),
        );
    }
    // The optimizer itself must pay for its dispatch savings: optimized
    // bytecode may not lose to the raw lowering on the A/B cases. The
    // dispatch-bound cases get a tight floor (small tolerance for
    // wall-clock noise on shared runners); matmul64 is bound by counted
    // float ops and the memo machinery, so its optimizer win is ~1.0× in
    // the noise band — its floor only catches a catastrophic regression.
    const OPT_FLOORS: &[(&str, f64)] =
        &[("varaccess", 0.95), ("matmul64", 0.80), ("arraysum", 0.95)];
    for (name, floor) in OPT_FLOORS {
        let s = opt_speedups
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(f64::NAN);
        gates.check(
            format!("opt_floor:{name}"),
            s >= *floor,
            format!("{name} optimizer speedup vs --no-opt: {s:.2}x (floor {floor:.2}x)"),
        );
    }

    // CI smoke: the always-on dataflow-lint pass must stay cheap — under
    // 5% of the end-to-end matmul64 lowering. (The race-verdict tier
    // pays for itself by letting the engines skip the dynamic race
    // pre-pass; the lints are pure overhead and get the hard gate.)
    let lint_frac = matmul_lint_secs / matmul_compile_secs;
    gates.check(
        "lint_share".to_string(),
        lint_frac < 0.05,
        format!(
            "matmul64 compile {:.0}us, analysis {:.0}us, lint {:.0}us = {:.1}% (cap 5%)",
            matmul_compile_secs * 1e6,
            matmul_analysis_secs * 1e6,
            matmul_lint_secs * 1e6,
            lint_frac * 100.0
        ),
    );

    // CI smoke: pure-call futures must actually parallelize the two
    // divide-and-conquer benchmarks — statement-level sites
    // (fib_futures) and expression-level sites over the work-stealing
    // deques (treesum_expr). The bar depends on the host's CPU budget —
    // the subsystem cannot conjure cores: ≥ 2× on ≥ 4 CPUs, ≥ 1× on
    // 2–3 CPUs (four threads share them), and on a single CPU the
    // number is recorded but not gated.
    let required = match host_cpus {
        0..=1 => None,
        2..=3 => Some(1.0),
        _ => Some(2.0),
    };
    for (case, speedup) in [
        ("fib_futures", futures_speedup),
        ("treesum_expr", treesum_speedup),
    ] {
        match required {
            Some(bar) => gates.check(
                format!("futures_vs_seq:{case}"),
                speedup >= bar,
                format!(
                    "{case} speedup with futures on 4 threads: {speedup:.2}x \
                     (gate {bar:.1}x, {host_cpus} CPUs)"
                ),
            ),
            None => eprintln!(
                "{case} speedup with futures on 4 threads: {speedup:.2}x \
                 (not gated: single-CPU host)"
            ),
        }
    }

    // CI smoke: the schedule-aware lowering must beat the literal
    // skeletons. Single-threaded matmul gets the hard floor (the
    // AffineFor index streams and hoisted bounds shave dispatches even
    // with no parallelism in play); heat's stencil is load-bound, so
    // its single-threaded floor only catches a real regression. The
    // parallel legs additionally exercise the fused regions (fewer join
    // barriers) but depend on the host's CPU budget: a leg that
    // oversubscribes the host (a ~1 ms region on 4 threads over 2 CPUs
    // times the OS scheduler, not the lowering) is recorded, not gated.
    const POLY_SEQ_FLOORS: &[(&str, f64)] = &[("matmul128_poly", 1.15), ("heat_poly", 0.95)];
    for (name, floor) in POLY_SEQ_FLOORS {
        let s = poly_seq_speedups
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or(f64::NAN);
        gates.check(
            format!("poly_vs_literal:{name}"),
            s >= *floor,
            format!("{name} poly speedup vs literal (1 thread): {s:.2}x (floor {floor:.2}x)"),
        );
    }
    for (name, s) in &poly_par_speedups {
        if BENCH_THREADS > host_cpus {
            eprintln!(
                "{name} poly speedup vs literal (4 threads): {s:.2}x \
                 (not gated: {host_cpus} CPUs)"
            );
        } else {
            gates.check(
                format!("poly_vs_literal_par4:{name}"),
                *s >= 0.95,
                format!("{name} poly speedup vs literal (4 threads): {s:.2}x (floor 0.95x)"),
            );
        }
    }
    // CI smoke: the transform itself must stay cheap — the bounded
    // Fourier–Motzkin elimination caps the constraint blow-up, and this
    // gate pins the resulting compile-time budget: the polyhedral share
    // of the chain compile stays under 250 ms even on the 128³ nest.
    const POLY_COMPILE_CAP_SECS: f64 = 0.25;
    for (name, delta) in &poly_compile_deltas {
        gates.check(
            format!("poly_compile_cap:{name}"),
            *delta < POLY_COMPILE_CAP_SECS,
            format!(
                "{name} polyhedral compile share: {:.1} ms (cap {:.0} ms)",
                delta * 1e3,
                POLY_COMPILE_CAP_SECS * 1e3
            ),
        );
    }

    // CI smoke: a live trace session must stay cheap — every probe is
    // one branch plus a buffered append, so a traced run may cost at
    // most 15% over the probes-off run. (The probes-*off* cost has no
    // separate gate: it is folded into the tier floors above.)
    const TRACED_CEILING: f64 = 1.15;
    for (name, ratio) in &traced_ratios {
        gates.check(
            format!("traced_ceiling:{name}"),
            *ratio <= TRACED_CEILING,
            format!("{name} traced-vs-untraced ratio: {ratio:.3}x (ceiling {TRACED_CEILING:.2}x)"),
        );
    }

    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    // Attribution: the commit of the tree the bench ran on, the thread
    // count the parallel cases used, and the host's CPU budget.
    let git_commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let entry = Value::Object(vec![
        ("unix_time".to_string(), num(unix_time as f64)),
        ("git_commit".to_string(), Value::Str(git_commit)),
        ("threads".to_string(), num(BENCH_THREADS as f64)),
        ("host_cpus".to_string(), num(host_cpus as f64)),
        ("quick".to_string(), Value::Bool(quick)),
        (
            "gates_passed".to_string(),
            Value::Bool(gates.failed.is_empty()),
        ),
        (
            "failed_gates".to_string(),
            Value::Array(gates.failed.iter().cloned().map(Value::Str).collect()),
        ),
        // Static-analysis share of the matmul64 chain compile (the race
        // verdict + lint pass runs on every compile, so its wall time is
        // part of the trajectory).
        (
            "matmul64_compile_ms".to_string(),
            num((matmul_compile_secs * 1e6).round() / 1e3),
        ),
        (
            "matmul64_analysis_ms".to_string(),
            num((matmul_analysis_secs * 1e6).round() / 1e3),
        ),
        (
            "matmul64_lint_ms".to_string(),
            num((matmul_lint_secs * 1e6).round() / 1e3),
        ),
        // Tracing overhead A/B (live TraceSession vs probes-off) on the
        // dispatch-bound and memo-bound cases.
        // Polyhedral A/B (default chain vs --no-poly) on the two figure
        // workloads: run-time speedups per leg plus the transform's
        // compile-time share.
        ("poly_ab".to_string(), Value::Object(poly_fields)),
        ("traced_ab".to_string(), Value::Object(traced_fields)),
        ("benchmarks".to_string(), Value::Array(bench_values)),
    ]);

    // Trajectory: append to the existing history. A pre-trajectory file
    // (top-level "benchmarks") is migrated into entry 0.
    let mut entries: Vec<Value> = Vec::new();
    if let Ok(prior) = std::fs::read_to_string(&out_path) {
        if let Ok(v) = serde_json::from_str::<Value>(&prior) {
            if let Some(fields) = v.as_object() {
                if let Some((_, Value::Array(prev))) = fields.iter().find(|(k, _)| k == "entries") {
                    entries = prev.clone();
                } else if fields.iter().any(|(k, _)| k == "benchmarks") {
                    entries.push(v.clone());
                }
            }
        }
    }
    entries.push(entry);
    let doc = Value::Object(vec![
        (
            "note".to_string(),
            Value::Str(
                "interpreter-dispatch trajectory: one timestamped entry per \
                 `cargo run --release -p bench-harness --bin bench_interp` \
                 (best-of-N wall times); engines: legacy tree-walker (feature \
                 legacy-oracle), resolved-IR engine, bytecode VM"
                    .to_string(),
            ),
        ),
        ("entries".to_string(), Value::Array(entries)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("render json");
    std::fs::write(&out_path, json + "\n").expect("write BENCH_interp.json");
    println!("wrote {out_path}");
    if !gates.failed.is_empty() {
        eprintln!(
            "bench_interp: {} gate(s) failed (recorded in the entry): {}",
            gates.failed.len(),
            gates.failed.join(", ")
        );
        std::process::exit(1);
    }
}
