//! `purebench` — the repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! purebench --workload NAME --seed N --seconds S --trace 0|1   one run, result as the last line
//! purebench --all [--seed N] [--seconds S] [--quick]           every workload, both kinds of run
//! purebench --check-repeat [...]                               --all twice, compared
//! ```

mod heavy;
mod layers;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use measure::Outcome;
use metrics::{END_TO_END, PER_LAYER};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::SystemTime;

const USAGE: &str = "\
usage: purebench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--trace-out FILE]
       purebench --all [--check-repeat] [--seed N] [--seconds S] [--quick]
workloads: paper_apps poly_nest dispatch_scalar futures_dnc memo_reuse compile_heavy region_churn";

fn usage(problem: &str) -> ! {
    eprintln!("purebench: {problem}\n{USAGE}");
    exit(2)
}

struct Args {
    workload: Option<String>,
    all: bool,
    check_repeat: bool,
    quick: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        all: false,
        check_repeat: false,
        quick: false,
        seed: 1,
        seconds: None,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => {
                a.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"))
            }
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or(f64::NAN);
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds takes a number in (0, 600]");
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value())),
            "--all" => a.all = true,
            "--check-repeat" => a.check_repeat = true,
            "--quick" => a.quick = true,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            usage(&format!("unknown workload {w}"));
        }
    }
    a
}

/// Newest mtime of any `.rs` / `Cargo.toml` under `dir`, skipping build
/// output and dot-directories.
fn newest_source_mtime(dir: &Path, newest: &mut SystemTime) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                newest_source_mtime(&path, newest);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(m) = e.metadata().and_then(|m| m.modified()) {
                *newest = (*newest).max(m);
            }
        }
    }
}

/// Numbers from a binary older than the sources would be attributed to code
/// that did not produce them. `cargo run` rebuilds first and never trips
/// this; a binary started by path can. `BENCH_ALLOW_STALE=1` overrides.
fn refuse_stale_binary() {
    if std::env::var_os("BENCH_ALLOW_STALE").is_some() {
        return;
    }
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut newest = SystemTime::UNIX_EPOCH;
    for dir in [
        here.join("src"),
        here.join("../crates"),
        here.join("../src"),
    ] {
        newest_source_mtime(&dir, &mut newest);
    }
    for manifest in [here.join("Cargo.toml"), here.join("../Cargo.toml")] {
        if let Ok(m) = std::fs::metadata(manifest).and_then(|m| m.modified()) {
            newest = newest.max(m);
        }
    }
    let built = std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified());
    if !matches!(built, Ok(built) if built >= newest) {
        eprintln!(
            "purebench: this binary is older than the workspace sources; rebuild \
             (`cargo run --release --manifest-path purebench/Cargo.toml -- ...`) \
             or set BENCH_ALLOW_STALE=1"
        );
        exit(3);
    }
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Print one run: every metric by name with its unit, then the result
/// object as the last line. Returns whether the run was correct.
fn report(outcome: &Outcome) -> bool {
    let Outcome { readings, tally } = outcome;
    for r in readings {
        let (unit, better) = metrics::describe(r.name);
        println!(
            "{:<36} {:>16.6} {unit:<7} ({better} is better)",
            r.name, r.value
        );
    }
    if let Some(why) = &tally.first_failure {
        println!("first failure: {why}");
    }
    // A failed run is missing every timing, so a metric that could not be
    // measured makes the run incorrect.
    let correct = tally.failed == 0 && readings.iter().all(|r| r.value.is_finite());
    let result = object([
        ("correct", Value::Bool(correct)),
        ("attempted", num(tally.attempted.max(1) as f64)),
        ("failed", num(tally.failed as f64)),
        (
            "metrics",
            object(readings.iter().map(|r| {
                let (unit, _) = metrics::describe(r.name);
                (
                    r.name,
                    object([("value", num(r.value)), ("unit", text(unit))]),
                )
            })),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result renders")
    );
    correct
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// The result of one child run of `--all`, parsed once.
#[derive(Default)]
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    values: BTreeMap<String, f64>,
}

fn child(args: &Args, workload: &str, seconds: f64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if trace {
        cmd.args(["--trace-out", &format!("purebench_trace.{workload}.json")]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child; nothing is left running.
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = serde_json::from_str::<Value>(last).ok();
    let run = parsed.as_ref().and_then(|result| {
        let metrics = field(result, "metrics")?.as_object()?;
        Some(Run {
            correct: field(result, "correct")?.as_bool()?,
            attempted: field(result, "attempted")?.as_f64()?,
            failed: field(result, "failed")?.as_f64()?,
            values: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), field(m, "value")?.as_f64()?)))
                .collect(),
        })
    });
    run.ok_or_else(|| {
        format!(
            "{workload} (trace {}) gave no result, exit {:?}:\n{stdout}{}",
            trace as u8,
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// One set of runs: per workload, the untraced and the traced run.
struct Set {
    runs: Vec<(&'static str, Run, Run)>,
    ok: bool,
}

impl Set {
    /// NaN for a metric a run did not report, which fails every comparison.
    fn value(&self, workload: &str, traced: bool, metric: &str) -> f64 {
        self.runs
            .iter()
            .find(|(w, _, _)| *w == workload)
            .and_then(|(_, e2e, layers)| if traced { layers } else { e2e }.values.get(metric))
            .copied()
            .unwrap_or(f64::NAN)
    }
}

fn run_set(args: &Args, seconds: f64) -> Set {
    let mut set = Set {
        runs: Vec::new(),
        ok: true,
    };
    for w in workloads::NAMES {
        let mut one = |trace| {
            eprintln!("purebench: {w}, trace {} ...", trace as u8);
            let run = child(args, w, seconds, trace).unwrap_or_else(|e| {
                eprintln!("purebench: {e}");
                Run::default()
            });
            set.ok &= run.correct;
            run
        };
        let runs = (one(false), one(true));
        set.runs.push((w, runs.0, runs.1));
    }
    set
}

fn print_table(set: &Set, traced: bool, names: impl Iterator<Item = (&'static str, &'static str)>) {
    print!("{:<34} {:<7}", "metric", "unit");
    for w in workloads::NAMES {
        print!(" {w:>15}");
    }
    println!();
    for (name, unit) in names {
        print!("{name:<34} {unit:<7}");
        for w in workloads::NAMES {
            let v = set.value(w, traced, name);
            if v.fract() == 0.0 && v.abs() < 1e15 {
                print!(" {v:>15.0}");
            } else {
                print!(" {v:>15.6}");
            }
        }
        println!();
    }
    println!();
}

fn tool_version(tool: &str, args: &[&str]) -> String {
    Command::new(tool)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn set_json(set: &Set) -> Value {
    object(set.runs.iter().map(|(w, e2e, layers)| {
        let vals = |r: &Run| object(r.values.iter().map(|(n, v)| (n.as_str(), num(*v))));
        (
            *w,
            object([
                ("correct", Value::Bool(e2e.correct)),
                ("attempted", num(e2e.attempted)),
                ("failed", num(e2e.failed)),
                ("traced_correct", Value::Bool(layers.correct)),
                ("end_to_end", vals(e2e)),
                ("per_layer", vals(layers)),
            ]),
        )
    }))
}

/// `--all` and `--check-repeat`. Results are written before the exit status
/// is decided and carry `"ok": false` on any failure.
fn run_all(args: &Args) -> bool {
    let seconds = args.seconds.unwrap_or(if args.quick { 0.3 } else { 6.0 });
    let mut sets = vec![run_set(args, seconds)];
    if args.check_repeat {
        sets.push(run_set(args, seconds));
    }
    let mut ok = sets.iter().all(|s| s.ok);

    let first = &sets[0];
    print_table(first, false, END_TO_END.iter().map(|m| (m.name, m.unit)));
    print_table(first, true, PER_LAYER.iter().map(|m| (m.name, m.unit)));

    if let [a, b] = &sets[..] {
        println!(
            "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "first", "second", "diff", "bound"
        );
        for w in workloads::NAMES {
            for m in END_TO_END {
                let (x, y) = (a.value(w, false, m.name), b.value(w, false, m.name));
                let diff = (y - x) / x;
                let within = diff.abs() <= m.bound;
                ok &= within;
                println!(
                    "{w:<16} {:<12} {x:>14.6} {y:>14.6} {:>+8.2}% {:>6.0}%{}",
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0,
                    if within { "" } else { "  EXCEEDED" }
                );
            }
            // The compiler-determinism check: exact counts repeat exactly.
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let (x, y) = (a.value(w, true, m.name), b.value(w, true, m.name));
                if x != y {
                    ok = false;
                    println!("{w:<16} {} differs between the sets: {x} vs {y}", m.name);
                }
            }
        }
        println!();
    }

    let sizes = workloads::NAMES.iter().map(|w| {
        let built = workloads::build(w, args.seed, args.quick).expect("a listed workload");
        (*w, text(built.sizes))
    });
    let results = object([
        ("ok", Value::Bool(ok)),
        (
            "provenance",
            object([
                (
                    "git_commit",
                    text(tool_version("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", text(tool_version("rustc", &["--version"]))),
                ("seed", num(args.seed as f64)),
                ("seconds_per_run", num(seconds)),
                ("quick", Value::Bool(args.quick)),
                ("threads", num(measure::bench_threads() as f64)),
                ("host_cpus", num(measure::host_cpus() as f64)),
                ("sizes", object(sizes)),
            ]),
        ),
        ("sets", Value::Array(sets.iter().map(set_json).collect())),
    ]);
    let rendered = serde_json::to_string_pretty(&results).expect("results render");
    match std::fs::write("purebench_results.json", rendered) {
        Ok(()) => println!("wrote purebench_results.json and purebench_trace.<workload>.json"),
        Err(e) => {
            eprintln!("purebench: cannot write purebench_results.json: {e}");
            ok = false;
        }
    }
    println!("{}", if ok { "ok" } else { "FAILED" });
    ok
}

fn main() {
    let args = parse_args();
    refuse_stale_binary();
    let ok = if args.all || args.check_repeat {
        run_all(&args)
    } else {
        let Some(workload) = &args.workload else {
            usage("give --workload NAME or --all");
        };
        let seconds = args.seconds.unwrap_or(10.0);
        let outcome = if args.trace {
            layers::run(
                workload,
                args.seed,
                seconds,
                args.quick,
                args.trace_out.as_deref(),
            )
        } else {
            measure::run(workload, args.seed, seconds, args.quick)
        };
        report(&outcome)
    };
    exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--quick` smoke: every workload, both kinds of run, every metric
    /// name of the tables, nothing failed.
    #[test]
    fn quick_runs_report_every_metric_on_every_workload() {
        for name in workloads::NAMES {
            let e2e = measure::run(name, 1, 0.05, true);
            let names: Vec<_> = e2e.readings.iter().map(|r| r.name).collect();
            assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
            assert!(report(&e2e), "{name}: {:?}", e2e.tally.first_failure);

            let layers = layers::run(name, 1, 0.05, true, None);
            let names: Vec<_> = layers.readings.iter().map(|r| r.name).collect();
            assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
            assert!(report(&layers), "{name}: {:?}", layers.tally.first_failure);
        }
    }
}
