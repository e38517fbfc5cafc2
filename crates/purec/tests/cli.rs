//! The `purec` binary driven as a user drives it: flag parsing, exit
//! codes and the stdout/stderr contract of `--run`.

use std::path::PathBuf;
use std::process::{Command, Output};

const OPTMIX: &str = "\
int g;
pure int sq(int x) { return x * x; }
int main() {
    g = 3;
    int acc = 2 + 3 * 4;
    int* a = (int*) malloc(64 * sizeof(int));
#pragma omp parallel for schedule(static)
    for (int i = 0; i < 64; i++) a[i] = sq(i % 8) + i * g;
    for (int i = 0; i < 64; i++) acc += a[i] % 31;
    printf(\"acc=%d\\n\", acc);
    return acc % 113;
}
";

fn purec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_purec"))
        .args(args)
        .output()
        .expect("purec starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Write `source` where the binary can read it.
fn source_path(name: &str, source: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, source).expect("write test program");
    path.to_string_lossy().into_owned()
}

/// The mixed workload (global, pure call, fold, parallel region, printf).
fn optmix_path(name: &str) -> String {
    source_path(name, OPTMIX)
}

/// A program checked in under `examples/`.
fn example(name: &str) -> String {
    format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn removed_flags_are_rejected_with_usage() {
    let src = optmix_path("optmix_removed.c");
    for flag in [
        "--no-pool",
        "--no-steal",
        "--pgo",
        "--profile-pairs",
        "--poly-unmarked",
        "--tile-size",
    ] {
        let out = purec(&[&src, "--run", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        assert!(out.stdout.is_empty(), "{flag} must not run the program");
        assert!(stderr(&out).starts_with("usage: purec"), "{flag}");
    }
}

#[test]
fn output_is_independent_of_optimizer_and_threads() {
    let src = optmix_path("optmix_ab.c");
    let base = purec(&[&src, "--run"]);
    assert!(String::from_utf8_lossy(&base.stdout).starts_with("acc="));
    for extra in [&["--no-opt"][..], &["--threads", "4"]] {
        let mut args = vec![src.as_str(), "--run"];
        args.extend_from_slice(extra);
        let out = purec(&args);
        assert_eq!(out.stdout, base.stdout, "{extra:?}");
        assert_eq!(out.status.code(), base.status.code(), "{extra:?}");
    }
}

#[test]
fn dump_bytecode_shows_the_two_passes_unless_no_opt() {
    let src = optmix_path("optmix_dump.c");
    let rewritten = |dump: &str| {
        ["ConstFold", "BrCmp", "BinLLStore"]
            .iter()
            .any(|op| dump.contains(op))
    };
    let on = stderr(&purec(&[&src, "--run", "--dump-bytecode"]));
    let off = stderr(&purec(&[&src, "--run", "--dump-bytecode", "--no-opt"]));
    assert!(on.contains("total "), "no dump on stderr:\n{on}");
    assert!(rewritten(&on), "optimizer rewrote nothing:\n{on}");
    assert!(!rewritten(&off), "--no-opt dump is not raw:\n{off}");
    // The hoisting opcode is gone (spelled in halves so a grep for the
    // removed name over the sources stays empty).
    let hoist_op = concat!("LoadG", "Store");
    assert!(!on.contains(hoist_op) && !off.contains(hoist_op));

    // The statement tick rides on the statement: under the default each
    // of the six statements of the `varaccess` loop body is one ticked
    // (`+t`) `BinLLStore` and the only `Step` left between `AffineHead`
    // and `AffineNext` is the block's own (a `Step` in front of a `Step`
    // stays); `--no-opt` has all seven `Step`s and no tick anywhere.
    let varaccess = source_path(
        "varaccess_dump.c",
        "int main() {\n\
             int a = 0; int b = 1; int c = 2; int d = 3; int e = 4;\n\
             for (int i = 0; i < 1000; i++) {\n\
                 a = a + b; b = b ^ c; c = c + d;\n\
                 d = d + e; e = e + a; a = a - d;\n\
             }\n\
             return a & 255;\n\
         }\n",
    );
    let loop_body = |dump: &str| -> Vec<String> {
        dump.lines()
            .skip_while(|l| !l.contains("AffineHead"))
            .skip(1)
            .take_while(|l| !l.contains("AffineNext"))
            .map(str::to_string)
            .collect()
    };
    let count = |body: &[String], what: &str| body.iter().filter(|l| l.contains(what)).count();
    let on = stderr(&purec(&[&varaccess, "--run", "--dump-bytecode"]));
    let body = loop_body(&on);
    assert_eq!(body.len(), 7, "{on}");
    assert_eq!(count(&body, "+t BinLLStore"), 6, "{on}");
    assert_eq!(count(&body, " Step "), 1, "{on}");
    assert!(
        body[0].contains(" Step "),
        "the block's tick comes first:\n{on}"
    );
    assert!(on.contains("insns, 13 ticked"), "{on}");
    let off = stderr(&purec(&[
        &varaccess,
        "--run",
        "--dump-bytecode",
        "--no-opt",
    ]));
    let body = loop_body(&off);
    assert_eq!(count(&body, " Step "), 7, "{off}");
    assert!(!off.contains("+t "), "{off}");
    assert!(off.contains("insns, 0 ticked"), "{off}");
}

#[test]
fn fuel_exhaustion_exits_97() {
    let out = purec(&[&example("spin.c"), "--run", "--fuel", "1000"]);
    assert_eq!(out.status.code(), Some(97), "{}", stderr(&out));
}

/// `--max-depth` traps, never aborts: a runaway recursion inside a
/// parallel region — so pool workers, not only the program's thread, take
/// it — hits the deepest admissible limit and exits 99 on both engines;
/// one more is refused at the command line, because the native stack
/// (`machine::STACK_SIZE`, the same for every thread that runs program
/// code) is not sure to hold it.
#[test]
fn max_depth_traps_at_the_ceiling_and_is_refused_above_it() {
    let src = source_path(
        "deep_in_region.c",
        "int rec(int n) {\n\
             if (n <= 0) return 0;\n\
             return 1 + rec(n - 1);\n\
         }\n\
         int main() {\n\
             int* a = (int*) malloc(4 * sizeof(int));\n\
         #pragma omp parallel for schedule(static,1)\n\
             for (int i = 0; i < 4; i++) a[i] = rec(1000000);\n\
             return a[3] % 100;\n\
         }\n",
    );
    let ceiling = cinterp::MAX_CALL_DEPTH.to_string();
    let above = (cinterp::MAX_CALL_DEPTH + 1).to_string();
    for engine in ["vm", "resolved"] {
        let run = |depth: &str| {
            purec(&[
                &src,
                "--run",
                "--threads",
                "4",
                "--engine",
                engine,
                "--max-depth",
                depth,
            ])
        };
        let out = run(&ceiling);
        assert_eq!(out.status.code(), Some(99), "{engine}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("call depth limit exceeded ({ceiling})")),
            "{engine}: {}",
            stderr(&out)
        );
        let out = run(&above);
        assert_eq!(out.status.code(), Some(2), "{engine}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{engine}: must not run the program");
        assert!(
            stderr(&out).contains("--max-depth") && stderr(&out).contains(&ceiling),
            "{engine}: {}",
            stderr(&out)
        );
    }
}

/// `free` refunds `--max-memory`: the balanced loop cycles 12.8 MB
/// through a 100 kB cap and still exits with its own code.
#[test]
fn balanced_churn_runs_under_a_small_memory_cap() {
    let churn = example("churn.c");
    for engine in ["vm", "resolved"] {
        let out = purec(&[
            &churn,
            "--run",
            "--engine",
            engine,
            "--max-memory",
            "100000",
        ]);
        assert_eq!(
            out.status.code(),
            Some(25_000 % 101),
            "{engine}: {}",
            stderr(&out)
        );
    }
    let out = purec(&[&churn, "--run", "--stats"]);
    assert!(
        stderr(&out).contains("heap: allocations 50000, frees 50000, peak live bytes 256"),
        "{}",
        stderr(&out)
    );
}

/// An allocation no host can satisfy is a memory trap (exit 98), not a
/// `capacity overflow` panic (exit 101) — capped or not.
#[test]
fn absurd_allocation_sizes_exit_98() {
    let malloc = source_path(
        "absurd_malloc.c",
        "int main() { long n = 1000000000; double* a = (double*) malloc(n * n * 8); \
         a[0] = 1.0; return 0; }",
    );
    let calloc = source_path(
        "absurd_calloc.c",
        "int main() { int* a = (int*) calloc(4000000000, 4000000000); a[0] = 1; return 0; }",
    );
    for src in [&malloc, &calloc] {
        for extra in [
            &[][..],
            &["--max-memory", "1000000"],
            &["--engine", "resolved"],
        ] {
            let mut args = vec![src.as_str(), "--run"];
            args.extend_from_slice(extra);
            let out = purec(&args);
            assert_eq!(out.status.code(), Some(98), "{args:?}: {}", stderr(&out));
            assert!(stderr(&out).contains("memory limit exceeded"), "{args:?}");
        }
    }
}

/// The pure-scratch idiom (a `pure` callee that mallocs, uses and frees
/// per-call scratch, called from a parallel loop) prints the same under
/// every thread count and engine. The example's text runs at a tenth of
/// its size (20 000 calls, not 200 000): the debug binary is slow. (At
/// full size it is GCC's alone in `tests/matrix.rs`: one engine leg
/// there takes 18 s in a debug build.)
#[test]
fn scratch_pure_is_independent_of_threads_and_engine() {
    let full = std::fs::read_to_string(example("scratch_pure.c")).expect("read example");
    assert!(full.contains("int n = 20000;"));
    let src = source_path(
        "scratch_pure_small.c",
        &full.replace("int n = 20000;", "int n = 2000;"),
    );
    let base = purec(&[&src, "--run", "--threads", "1"]);
    assert_eq!(String::from_utf8_lossy(&base.stdout), "total=920017\n");
    for extra in [&["--threads", "4"][..], &["--engine", "resolved"]] {
        let mut args = vec![src.as_str(), "--run"];
        args.extend_from_slice(extra);
        let out = purec(&args);
        assert_eq!(out.stdout, base.stdout, "{extra:?}");
        assert_eq!(out.status.code(), base.status.code(), "{extra:?}");
    }
}

/// Heap cells are 8-byte words, and what a word cannot carry inline (ints
/// past ±2⁴⁷, pointers with an index past 2²³) lives in the allocation's
/// side table: written by a parallel region and read after its join, the
/// example's wide ints, far pointers and `-0.0` reach the binary's stdout
/// and exit code. (Every engine, thread count and optimizer level prints
/// the same: `tests/matrix.rs`, where GCC's 32-bit `int` disagrees.)
#[test]
fn wide_heap_values_are_independent_of_threads_optimizer_and_engine() {
    let src = example("wide_heap.c");
    let base = purec(&[&src, "--run"]);
    assert_eq!(
        String::from_utf8_lossy(&base.stdout),
        "wide[0]=-18014398509481984 wide[255]=17873661021126401 mix=8178864779180441472\n\
         offsets=32640 negative_zeros=256\n"
    );
    assert_eq!(base.status.code(), Some(10));
}

/// Reclaiming storage does not blunt the diagnostics: reading a freed
/// block is still a plain runtime error (exit 1) naming the bug.
#[test]
fn use_after_free_still_exits_1() {
    let src = source_path(
        "uaf.c",
        "int main() { int* p = (int*) malloc(64); p[0] = 1; free(p); return p[0]; }",
    );
    let out = purec(&[&src, "--run"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("use after free"), "{}", stderr(&out));
}

/// The chain's counts are rendered from one table: the compile-only
/// `--stats` line, the `--run --stats` line and the `chain` object of
/// `--stats-json` carry the same fields with the same values. So are the
/// effect summaries and what they decide: the `const` / `heavy` /
/// `memoized` / `inlined` sets of the run line and the `functions` object
/// of `--stats-json`.
#[test]
fn stats_lines_and_stats_json_agree_on_the_chain_fields() {
    let json_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("heat_stats.json");
    let json_arg = json_path.to_string_lossy().into_owned();
    let compile_only = stderr(&purec(&["--demo", "heat", "--stats"]));
    let ran = stderr(&purec(&[
        "--demo",
        "heat",
        "--run",
        "--stats",
        "--stats-json",
        &json_arg,
    ]));
    let chain_half = compile_only.trim_end();
    assert!(
        chain_half.contains("; parallel 3; skewed 0; tiled 0; ")
            && chain_half.ends_with("; fm solves 30; calls reinserted 3"),
        "{chain_half}"
    );
    assert!(
        ran.starts_with(&format!("{chain_half}; spawn sites ")),
        "run line does not start with the compile-only line:\n{ran}"
    );

    let text = std::fs::read_to_string(&json_path).expect("--stats-json wrote a file");
    let root: serde_json::Value = serde_json::from_str(&text).expect("stats JSON parses");
    let chain = root
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "chain"))
        .and_then(|(_, v)| v.as_object())
        .expect("chain object");
    let labels = [
        ("scops_marked", "scops"),
        ("regions_transformed", "transformed"),
        ("regions_parallelized", "parallel"),
        ("regions_skewed", "skewed"),
        ("regions_tiled", "tiled"),
        ("rows_hoisted", "rows hoisted"),
        ("fm_solves", "fm solves"),
        ("calls_reinserted", "calls reinserted"),
    ];
    // Field for field, in order: `analysis_micros` is gone and
    // `spawn_sites` (a property of the lowered program) comes last.
    let fields: Vec<&str> = chain_half.split("; ").skip(1).collect();
    assert_eq!(fields.len(), labels.len(), "{chain_half}");
    assert_eq!(chain.len(), labels.len() + 1, "{text}");
    for (i, (key, label)) in labels.iter().enumerate() {
        let (json_key, value) = &chain[i];
        assert_eq!(json_key, key);
        let value = value.as_f64().expect("a count");
        assert_eq!(fields[i], format!("{label} {value}"), "chain.{key}");
    }
    assert_eq!(chain[labels.len()].0, "spawn_sites");

    // The run's counters likewise: every `group {field: value}` of the
    // run line is the `counters` object's `prefix + field`, and together
    // they are all of it.
    let counters = root
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "counters"))
        .and_then(|(_, v)| v.as_object())
        .expect("counters object");
    let mut compared = 0;
    for (group, prefix) in [
        ("ops", ""),
        ("memo", "memo_"),
        ("futures", "futures_"),
        ("steals", ""),
        ("opt", "insns_"),
        ("race", "race_"),
        ("regions", "regions_"),
    ] {
        let from = ran
            .find(&format!("; {group} {{"))
            .unwrap_or_else(|| panic!("no {group} group in:\n{ran}"));
        let body = &ran[from + group.len() + 4..];
        for field in body[..body.find('}').expect("a group")].split(", ") {
            let (name, value) = field.split_once(": ").expect("name: value");
            if group == "opt" && name == "level" {
                continue; // the run's setting, not a counter
            }
            let key = format!("{prefix}{name}");
            let (_, json) = counters
                .iter()
                .find(|(k, _)| *k == key)
                .unwrap_or_else(|| panic!("no counters.{key} in {text}"));
            assert_eq!(
                json.as_f64().map(|v| v.to_string()),
                Some(value.to_string())
            );
            compared += 1;
        }
    }
    assert_eq!(compared, counters.len(), "{text}");
    // Heat's 32 row-initialisation regions are too small to fork; its 20
    // stencil and copy regions hold an inner loop and do.
    assert!(ran.contains("; regions {forked: 20, inline: 32}"), "{ran}");

    // One function per cell of the lattice: the two renderings agree on
    // every one of them.
    let ran = stderr(&purec(&[
        &example("effects.c"),
        "--run",
        "--stats",
        "--stats-json",
        &json_arg,
    ]));
    let set = |label: &str| -> String {
        let from = ran
            .find(label)
            .unwrap_or_else(|| panic!("no {label} in:\n{ran}"));
        let list = &ran[from + label.len()..];
        list[..list.find(']').expect("a list")].to_string()
    };
    let (konst, heavy) = (set("; spawn sites 4; const ["), set("; heavy ["));
    let (memoized, inlined) = (set("; memoized ["), set("; inlined ["));
    assert_eq!(
        konst,
        r#""twice", "tri", "fib", "is_even", "is_odd", "wrap""#
    );
    // Memoized is const ∧ heavy; inlining asks for shape, not purity:
    // the const leaf and the three pure-not-const one-`return` leaves.
    assert_eq!(memoized, r#""tri", "fib", "is_even", "is_odd", "wrap""#);
    assert_eq!(inlined, r#""twice", "scaled", "first", "via_scaled""#);
    let text = std::fs::read_to_string(&json_path).expect("--stats-json wrote a file");
    let root: serde_json::Value = serde_json::from_str(&text).expect("stats JSON parses");
    let functions = root
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "functions"))
        .and_then(|(_, v)| v.as_object())
        .expect("functions object");
    assert_eq!(functions.len(), 13, "{text}");
    for (name, summary) in functions {
        let field = |key: &str| {
            let fields = summary.as_object().expect("a summary");
            let (_, v) = fields.iter().find(|(k, _)| k == key).expect(key);
            v.as_str().expect("a word").to_string()
        };
        let quoted = format!("\"{name}\"");
        assert_eq!(field("class") == "const", konst.contains(&quoted), "{name}");
        assert_eq!(field("cost") == "heavy", heavy.contains(&quoted), "{name}");
        assert!(["const", "pure", "impure"].contains(&field("class").as_str()));
        let call = match (inlined.contains(&quoted), memoized.contains(&quoted)) {
            (true, false) => "inlined",
            (false, true) => "memoized",
            (false, false) => "plain",
            (true, true) => panic!("{name}: a heavy function is never inlined"),
        };
        assert_eq!(field("call"), call, "{name}");
    }
    // Neither oracle inlines: the resolved engine's line says so.
    let ran = stderr(&purec(&[
        &example("effects.c"),
        "--run",
        "--stats",
        "--engine",
        "resolved",
    ]));
    assert!(ran.contains("; inlined []; exit 45; "), "{ran}");
}

/// An inlined leaf call traps where the call did, says what the call said
/// and costs the counters what the call cost — on the default bytecode,
/// on `--no-opt` (which inlines nothing) and on the resolved engine, at 1
/// and 4 threads.
#[test]
fn an_inlined_call_traps_and_prints_like_the_call() {
    // Every configuration of one program agrees on exit code, stdout and
    // the `purec:` error line; returns them.
    let agree = |name: &str, source: &str, extra: &[&str]| -> (Option<i32>, String, String) {
        let src = source_path(name, source);
        let mut seen: Option<(Option<i32>, String, String)> = None;
        for config in [&[][..], &["--no-opt"], &["--engine", "resolved"]] {
            for threads in ["1", "4"] {
                let mut args = vec![src.as_str(), "--run", "--threads", threads];
                args.extend_from_slice(config);
                args.extend_from_slice(extra);
                let out = purec(&args);
                let error = stderr(&out).lines().next().unwrap_or("").to_string();
                let got = (
                    out.status.code(),
                    String::from_utf8_lossy(&out.stdout).into_owned(),
                    error,
                );
                match &seen {
                    None => seen = Some(got),
                    Some(first) => assert_eq!(&got, first, "{name} {args:?}"),
                }
            }
        }
        seen.expect("six runs")
    };

    // A leaf called exactly at the depth cap: `down(5)` opens six frames
    // under `main`'s, and `sq` is called from the deepest.
    let deep = "pure int sq(int x) { return x * x; }\n\
                int down(int n) { if (n == 0) return sq(3); return down(n - 1); }\n\
                int main() { printf(\"%d\\n\", down(5)); return 0; }\n";
    let (code, out, err) = agree("inline_depth7.c", deep, &["--max-depth", "7"]);
    assert_eq!((code, out.as_str()), (Some(99), ""), "{err}");
    assert!(err.contains("call depth limit exceeded (7)"), "{err}");
    let (code, out, _) = agree("inline_depth8.c", deep, &["--max-depth", "8"]);
    assert_eq!((code, out.as_str()), (Some(0), "9\n"));
    let dump = stderr(&purec(&[
        &source_path("inline_depth_dump.c", deep),
        "--run",
        "--dump-bytecode",
    ]));
    assert!(
        dump.contains("fn sq (frame 1, 4 insns, const, inlined at 1 site)"),
        "{dump}"
    );

    // A division by zero inside the inlined body is the callee's error,
    // at the callee's span.
    let (code, _, err) = agree(
        "inline_div0.c",
        "int ratio(int a, int b) { return a / b; }\n\
         int main() { int z = 0; return ratio(7, z); }\n",
        &[],
    );
    assert_eq!(code, Some(1));
    assert!(err.contains("integer division by zero"), "{err}");

    // Arguments are evaluated once, left to right, also when the callee
    // ignores one; a missing argument reads as uninitialized, exactly as
    // the call read it; parameters and the return value coerce.
    let (code, out, _) = agree(
        "inline_args.c",
        "int calls;\n\
         int g() { calls = calls + 1; return 10 * calls; }\n\
         int first(int a, int b) { return a; }\n\
         int pair(int a, int b) { return a * 100 + b; }\n\
         int lonely(int a, int b) { return a + 1; }\n\
         float half(int x) { return x / 2; }\n\
         int t(float x) { return x * 2.5f; }\n\
         int main() {\n\
             int i = 1;\n\
             int p = pair(i++, g());\n\
             int f = first(i++, g());\n\
             printf(\"%d %d %d %d\\n\", p, f, i, calls);\n\
             printf(\"%d\\n\", lonely(4));\n\
             printf(\"%.2f %d\\n\", half(7), t(1.5f));\n\
             return 0;\n\
         }\n",
        &[],
    );
    assert_eq!(code, Some(0));
    assert_eq!(out, "110 2 3 2\n5\n3.00 3\n");

    // Inside a parallel loop the callee's slots live in the frame every
    // iteration copies: same output at 1 and 4 threads.
    let (code, out, _) = agree(
        "inline_region.c",
        "pure int mix(int a, int b) { return a * 31 + (b ^ 5); }\n\
         int main() {\n\
             int* v = (int*) malloc(64 * sizeof(int));\n\
         #pragma omp parallel for\n\
             for (int i = 0; i < 64; i++) v[i] = mix(i, mix(i + 1, 2));\n\
             int acc = 0;\n\
             for (int i = 0; i < 64; i++) acc += v[i] % 97;\n\
             printf(\"acc=%d\\n\", acc);\n\
             return 0;\n\
         }\n",
        &[],
    );
    assert_eq!((code, out.as_str()), (Some(0), "acc=3070\n"));
}

/// A region too small to fork runs on the caller and says nothing of it:
/// a division by zero at its 37th iteration exits 1 with the same stdout
/// and the same `purec:` error line, span included, on the VM at 1, 2 and
/// 4 threads and on the resolved engine, which forks every region.
#[test]
fn an_inline_region_traps_and_prints_like_the_region() {
    let src = source_path(
        "inline_region_div0.c",
        "int main() {\n\
             int* a = (int*) malloc(64 * sizeof(int));\n\
             printf(\"before\\n\");\n\
         #pragma omp parallel for\n\
             for (int i = 0; i < 64; i++) a[i] = 6400 / (i - 37);\n\
             printf(\"after %d\\n\", a[0]);\n\
             return 0;\n\
         }\n",
    );
    let mut seen: Option<(Option<i32>, Vec<u8>, String)> = None;
    for engine in ["vm", "resolved"] {
        for threads in ["1", "2", "4"] {
            let args = [&src, "--run", "--engine", engine, "--threads", threads];
            let out = purec(&args);
            let error = stderr(&out).lines().next().unwrap_or("").to_string();
            let got = (out.status.code(), out.stdout, error);
            match &seen {
                None => seen = Some(got),
                Some(first) => assert_eq!(&got, first, "{args:?}"),
            }
        }
    }
    let (code, stdout, error) = seen.expect("six runs");
    assert_eq!((code, stdout.as_slice()), (Some(1), &b""[..]));
    assert!(error.contains("integer division by zero"), "{error}");
    // ...and the VM did run it inline.
    let stats = stderr(&purec(&[
        &source_path(
            "inline_region_ok.c",
            "int main() {\n\
                 int* a = (int*) malloc(64 * sizeof(int));\n\
             #pragma omp parallel for\n\
                 for (int i = 0; i < 64; i++) a[i] = 6400 / (i + 1);\n\
                 return a[63];\n\
             }\n",
        ),
        "--run",
        "--threads",
        "2",
        "--stats",
    ]));
    assert!(
        stats.contains("; regions {forked: 0, inline: 1}"),
        "{stats}"
    );
}

/// `--fuel` is exact on one thread: one unit short of what a run with
/// inlined calls burns exits 97 — on both bytecode levels, each against
/// its own count.
#[test]
fn fuel_one_short_of_an_inlined_run_exits_97() {
    let src = source_path(
        "inline_fuel.c",
        "pure int sq(int x) { return x * x; }\n\
         int main() { int s = 0; for (int i = 0; i < 50; i++) s += sq(i); return s % 100; }\n",
    );
    for level in [&[][..], &["--no-opt"]] {
        let run = |fuel: u64| {
            let fuel = fuel.to_string();
            let mut args = vec![src.as_str(), "--run", "--fuel", &fuel];
            args.extend_from_slice(level);
            purec(&args).status.code()
        };
        let (mut lo, mut hi) = (0u64, 10_000u64);
        assert_eq!(run(hi), Some(25), "{level:?}");
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if run(mid) == Some(25) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        assert_eq!(run(lo - 1), Some(97), "{level:?} fuel {}", lo - 1);
    }
}

/// The three programs the verifier used to accept (a block-scoped shadow
/// of a global, a `static` local, Listing 5 through a global) are
/// refused: `check` exits 1 naming all three rules, and compiling prints
/// no text at all — no `omp` pragma for their loops reaches stdout.
#[test]
fn purity_holes_exit_1_with_the_pure_codes() {
    let holes = example("analysis/purity_holes.c");
    let check = purec(&["check", &holes]);
    assert_eq!(check.status.code(), Some(1));
    let report = String::from_utf8_lossy(&check.stdout).into_owned();
    for code in [
        "PureGlobalWrite",
        "PureStaticLocal",
        "PureParamWrittenInLoop",
    ] {
        assert!(
            report.contains(&format!("error[{code}]")),
            "{code}:\n{report}"
        );
    }
    for args in [
        vec![holes.as_str()],
        vec![holes.as_str(), "--run", "--race-check"],
    ] {
        let out = purec(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed program text");
        assert!(
            stderr(&out).contains("error[PureGlobalWrite]"),
            "{}",
            stderr(&out)
        );
    }
    // Its two-statement sibling compiles — and is caught at run time.
    let feedback = example("analysis/global_feedback.c");
    let out = purec(&[&feedback, "--run", "--threads", "4", "--race-check"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("race detected"), "{}", stderr(&out));
}

/// A builtin's error is a runtime error of the program (exit 1), never a
/// panic of `purec` (exit 101).
#[test]
fn builtin_errors_exit_1_not_101() {
    let src = source_path("free3.c", "int main() { free(3); return 0; }");
    for engine in ["vm", "resolved"] {
        let out = purec(&[&src, "--run", "--engine", engine]);
        assert_eq!(out.status.code(), Some(1), "{engine}: {}", stderr(&out));
        assert!(stderr(&out).contains("free of non-pointer"), "{engine}");
    }
}

/// An `omp parallel for` whose condition does not test its iterator is
/// refused when the engine reaches it (C would loop forever; both
/// engines used to read the bound, ignore the left side and run five
/// iterations).
#[test]
fn omp_loop_condition_must_test_its_iterator() {
    let src = source_path(
        "omp_wrong_iter.c",
        "int main() {\n    int s = 0;\n    int j = 0;\n#pragma omp parallel for\n    \
         for (int i = 0; j < 5; i++) s = 5;\n    printf(\"s=%d\\n\", s);\n    return 0;\n}\n",
    );
    for engine in ["vm", "resolved"] {
        let out = purec(&[&src, "--run", "--engine", engine]);
        assert_eq!(out.status.code(), Some(1), "{engine}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{engine} ran the loop");
        assert!(
            stderr(&out).contains("parallel loop condition must test its iterator"),
            "{engine}: {}",
            stderr(&out)
        );
    }
}

/// `i = i + 1` is a unit step to the engines as it is to polycc and the
/// analyzer (with `--no-poly` the engine meets the user's own header).
#[test]
fn omp_loop_step_may_be_spelled_i_equals_i_plus_1() {
    let src = source_path(
        "omp_long_step.c",
        "int main() {\n    int* a = (int*) malloc(8 * sizeof(int));\n#pragma omp parallel for\n    \
         for (int i = 0; i < 8; i = i + 1) a[i] = i * i;\n    \
         printf(\"last=%d\\n\", a[7]);\n    return 0;\n}\n",
    );
    for engine in ["vm", "resolved"] {
        for poly in [&[][..], &["--no-poly"]] {
            let mut args = vec![src.as_str(), "--run", "--engine", engine, "--threads", "4"];
            args.extend_from_slice(poly);
            let out = purec(&args);
            assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
            assert_eq!(out.stdout, b"last=49\n", "{args:?}");
        }
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `--emit-marked` stops after PC-CC and prints its unit: each SCoP it
/// flagged between the paper's markers, a bare-body one inside braces,
/// and the pure calls as their placeholders.
#[test]
fn emit_marked_prints_the_scop_marks() {
    let src = source_path(
        "emit_marked.c",
        "pure int sq(int x) { return x * x; }\n\
         int main(int argc, char** argv) {\n\
             int a[16];\n\
             for (int i = 0; i < 16; i++) a[i] = sq(i);\n\
             if (argc > 0)\n\
                 for (int i = 0; i < 16; i++) a[i] = a[i] + 1;\n\
             return a[15] % 100;\n\
         }\n",
    );
    let out = purec(&[&src, "--emit-marked", "--stats"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "pure int sq(int x) {\n    return x * x;\n}\n\n\
         int main(int argc, char** argv) {\n    int a[16];\n\
         #pragma scop\n    for (int i = 0; i < 16; i++)\n        a[i] = tmpConst_sq_0;\n\
         #pragma endscop\n    if (argc > 0)\n    {\n\
         #pragma scop\n        for (int i = 0; i < 16; i++)\n            a[i] = a[i] + 1;\n\
         #pragma endscop\n    }\n    return a[15] % 100;\n}\n"
    );
    assert_eq!(
        stderr(&out),
        "purec: 1 pure function(s), 2 scop(s) marked, 1 call(s) substituted\n"
    );
    // The compiled text carries no marker, and both nests are parallel.
    let text = stdout(&purec(&[&src]));
    assert!(!text.contains("scop"), "{text}");
    assert_eq!(
        text.matches("#pragma omp parallel for").count(),
        2,
        "{text}"
    );
}

/// `--no-alloc-pure` is ablation A1: without `malloc` in the registry,
/// matmul's allocation calls stay calls in PC-CC's output.
#[test]
fn no_alloc_pure_keeps_the_allocations_out_of_the_scops() {
    let marked = |extra: &[&str]| {
        let mut args = vec!["--demo", "matmul", "--emit-marked", "--stats"];
        args.extend(extra);
        let out = purec(&args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        (stdout(&out), stderr(&out))
    };
    let (with, with_stats) = marked(&[]);
    let (without, without_stats) = marked(&["--no-alloc-pure"]);
    assert!(with.contains("A[i] = (float*)tmpConst_malloc_1;"), "{with}");
    assert!(
        without.contains("A[i] = (float*)malloc(64 * sizeof(float));"),
        "{without}"
    );
    assert!(
        with_stats.ends_with("5 call(s) substituted\n"),
        "{with_stats}"
    );
    assert!(
        without_stats.ends_with("2 call(s) substituted\n"),
        "{without_stats}"
    );
}

/// `--tile N` tiles by hand without changing what the program prints. A
/// band that fits in one tile is left as it is: heat's nests are 32 and
/// 30 long, so `--tile 32` prints the default text (it once put all three
/// pragmas on `for (int t1t = 0; t1t <= 0; t1t++)`). An edge outside
/// `2..=65536` is refused like a malformed one: below 2 it tiled nothing,
/// and above `int` it printed constants a C compiler truncates. `--sica`
/// is gone.
#[test]
fn tile_transforms_without_changing_the_output() {
    let run = |extra: &[&str]| {
        let mut args = vec!["--demo", "matmul", "--run"];
        args.extend(extra);
        stdout(&purec(&args))
    };
    assert_eq!(run(&[]), "checksum=-1514496.0\n");
    assert_eq!(run(&["--tile", "8"]), run(&[]));
    assert!(stdout(&purec(&["--demo", "matmul", "--tile", "8"])).contains("t1t"));

    let heat = stdout(&purec(&["--demo", "heat"]));
    assert_eq!(stdout(&purec(&["--demo", "heat", "--tile", "32"])), heat);

    let fig02 = example("schedules/fig02_skew.c");
    let out = purec(&[&fig02, "--tile", "32", "--dump-schedule"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("schedule=[[1,0] [1,1]] band=2 parallel tiled skewed"),
        "{}",
        stderr(&out)
    );
    for edge in ["eight", "-4", "0", "1", "65537", "1000000000000"] {
        let out = purec(&["--demo", "matmul", "--tile", edge]);
        assert_eq!(out.status.code(), Some(2), "--tile {edge}");
        assert!(out.stdout.is_empty(), "--tile {edge}");
        assert!(stderr(&out).starts_with("usage: purec"), "--tile {edge}");
    }
    for edge in ["2", "65536"] {
        let out = purec(&["--demo", "matmul", "--tile", edge, "--run"]);
        assert_eq!(stdout(&out), "checksum=-1514496.0\n", "--tile {edge}");
    }
    let out = purec(&["--demo", "matmul", "--sica"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("usage: purec"));
}

/// `--no-omp` keeps the transformation and drops every OpenMP pragma, so
/// nothing runs as a parallel region.
#[test]
fn no_omp_transforms_without_pragmas() {
    let text = stdout(&purec(&["--demo", "matmul", "--no-omp"]));
    assert!(!text.contains("#pragma omp"), "{text}");
    assert!(text.contains("for (int t1 = 0;"), "{text}");
    let out = purec(&[
        "--demo",
        "matmul",
        "--no-omp",
        "--run",
        "--threads",
        "2",
        "--stats",
    ]);
    assert_eq!(stdout(&out), "checksum=-1514496.0\n");
    let stats = stderr(&out);
    assert!(stats.contains("parallel 0;"), "{stats}");
    assert!(stats.contains("regions {forked: 0, inline: 0}"), "{stats}");
}

/// The memo at two threads, from the binary: 65 536 distinct keys from a
/// dynamic schedule are four shards' worth, so the run evicts, and it
/// prints and exits as `--no-memo` does ([`COLLATZ_EVICT`]).
#[test]
fn the_memo_evicts_at_two_threads_and_prints_what_no_memo_prints() {
    let src = source_path("collatz_evict.c", COLLATZ_EVICT);
    let on = purec(&[&src, "--run", "--threads", "2", "--stats"]);
    let off = purec(&[&src, "--run", "--threads", "2", "--no-memo"]);
    assert_eq!(
        (stdout(&on), on.status.code()),
        (stdout(&off), off.status.code())
    );
    let stats = stderr(&on);
    let evictions = stats
        .split_once("evictions: ")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no evictions count: {stats}"));
    assert!(evictions > 0, "{stats}");
}

/// A recursive `pure int fib` ([`FIB_FUT`]) is memoized, hits its memo,
/// and its futures reach the trace; with the keyword stripped,
/// `--infer-pure` runs it exactly as the annotated program runs.
#[test]
fn a_recursive_pure_function_is_memoized_traced_and_inferred() {
    let src = source_path("fib_fut.c", FIB_FUT);
    let out = purec(&[&src, "--run", "--threads", "4", "--stats"]);
    let stats = stderr(&out);
    assert!(stats.contains(r#"memoized ["fib"]"#), "{stats}");
    let hits = stats
        .split_once("memo {hits: ")
        .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<u64>().ok());
    assert!(hits.is_some_and(|h| h > 0), "{stats}");
    let plain = source_path("fib_plain.c", &FIB_FUT.replace("pure int", "int"));
    let inferred = purec(&[&plain, "--run", "--threads", "4", "--infer-pure"]);
    assert_eq!(stdout(&inferred), stdout(&out));
    let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fib_trace.json");
    let trace = trace.to_string_lossy().into_owned();
    let traced = purec(&[&src, "--run", "--threads", "4", "--trace", &trace]);
    assert_eq!(traced.status.code(), Some(0), "{}", stderr(&traced));
    let names = stdout(&purec(&["trace-check", &trace]));
    assert!(names.contains("future."), "{names}");
}

/// What the polyhedral stage does to CI's triple nest ([`POLY_MM`]) shows
/// in the binary's dumps: a parallel depth-3 region, the fused
/// `AffineHead`/`AffineNext` back edge with and without `--no-poly`, and
/// `__pc_row` pointers only in the default text; loops whose header is
/// not canonical ([`POLY_LITERAL`]) get no `AffineHead`.
#[test]
fn the_polyhedral_stage_shows_in_the_dumps() {
    let mm = source_path("poly_mm.c", POLY_MM);
    let schedule = stderr(&purec(&[&mm, "--dump-schedule"]));
    assert!(
        schedule.contains("parallel") && schedule.contains("depth=3"),
        "{schedule}"
    );
    for build in [&[][..], &["--no-poly"]] {
        let mut args = vec![mm.as_str(), "--run", "--dump-bytecode"];
        args.extend_from_slice(build);
        let dump = stderr(&purec(&args));
        assert!(
            dump.contains("AffineHead") || dump.contains("AffineNext"),
            "{build:?}"
        );
    }
    assert!(stdout(&purec(&[&mm])).contains("__pc_row"));
    assert!(!stdout(&purec(&[&mm, "--no-poly"])).contains("__pc_row"));
    let literal = source_path("poly_literal.c", POLY_LITERAL);
    let dump = stderr(&purec(&[&literal, "--run", "--dump-bytecode"]));
    assert!(dump.contains("fn main"), "{dump}");
    assert!(
        !dump.contains("AffineHead") && !dump.contains("AffineNext"),
        "{dump}"
    );
}

include!("../../../tests/support/corpus.rs");
