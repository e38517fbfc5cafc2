//! The untraced measurement: one closed-loop client executing the workload
//! source → exit, over and over, for the run's seconds.

use crate::metrics::Reading;
use crate::stats::median;
use crate::workloads::{self, ProgramSpec, Workload};
use cinterp::{InterpOptions, Program, RunResult, RuntimeError};
use purec::chain::{compile, ChainOptions, ChainOutput};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `T`: interpreter threads of the parallel leg.
pub fn bench_threads() -> usize {
    host_cpus().min(4)
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// What one [`calibrate`] call takes on a quiet core of the class of host
/// the baseline was taken on. Only fixes the scale of the reported seconds.
pub const CAL_NOMINAL_S: f64 = 0.010;

/// Time a fixed piece of native work: a toy interpreter loop (a dispatch
/// `match`, loads and stores into an 8 KB array, a multiply) that shares no
/// code with the system under test but loads a core the way the VM does.
///
/// This host's speed swings by a quarter over minutes (a neighbour on the
/// sibling hardware thread: a serial ALU chain does not feel it, anything
/// with instruction-level parallelism does). Wall-clock medians of identical
/// runs ten minutes apart differ by 15-35 %, far beyond any bound. Dividing a
/// timed section by the calibration time measured next to it takes most of
/// that out (probe: spread over 16 chunks of 23 samples 14-31 % raw, 5-7 %
/// scaled).
pub fn calibrate() -> f64 {
    const PROGRAM: [u8; 8] = [0, 1, 2, 3, 1, 0, 2, 4];
    let mut mem = [0u64; 1024];
    let mut acc = 1u64;
    let ((), s) = timed(|| {
        for i in 0..6_000_000u64 {
            match black_box(PROGRAM[(i & 7) as usize]) {
                0 => acc = acc.wrapping_add(mem[(acc & 1023) as usize]),
                1 => mem[(i & 1023) as usize] = acc,
                2 => acc ^= acc >> 3,
                3 => acc = acc.wrapping_mul(31),
                _ => acc = acc.wrapping_add(i),
            }
        }
    });
    black_box(acc);
    s
}

/// `VmHWM` of this process in kB (0 where `/proc` is missing).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Program runs attempted and failed. A run fails on `Err`, a trap, or an
/// exit code / stdout other than the reference.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// Count one run and compare it with the program's reference.
    pub fn check(&mut self, p: &ProgramSpec, r: &Result<RunResult, RuntimeError>) -> bool {
        self.attempted += 1;
        match r {
            Ok(r) if r.exit_code == p.expect_exit && r.output == p.expect_stdout => true,
            Ok(r) => {
                self.fail(format!(
                    "{}: exit {} stdout {:?}, reference exit {} stdout {:?}",
                    p.name, r.exit_code, r.output, p.expect_exit, p.expect_stdout
                ));
                false
            }
            Err(e) => {
                self.fail(format!("{}: {}", p.name, e.message));
                false
            }
        }
    }
}

/// Chain compile of one program; an error counts as a failed run.
pub fn compile_program(p: &ProgramSpec, tally: &mut Tally) -> Option<ChainOutput> {
    match compile(&p.source, ChainOptions::default()) {
        Ok(out) => Some(out),
        Err(d) => {
            tally.attempted += 1;
            tally.fail(format!(
                "{}: compile failed:\n{}",
                p.name,
                d.render_all(&p.source)
            ));
            None
        }
    }
}

/// `Program` build plus the optimizer run `Program::run` would do lazily.
fn build_program(out: &ChainOutput) -> Program {
    let prog = out.program();
    prog.bytecode_at(2);
    prog
}

/// One execution of the workload: every program compiled, built and run
/// once, at the workload's thread count. Times are wall clock; `host_speed`
/// is the mean calibration time around the programs over the nominal one,
/// the factor the reported seconds are divided by.
struct Sample {
    compile_s: f64,
    run_s: f64,
    host_speed: f64,
}

fn execute(w: &Workload, opts: InterpOptions, tally: &mut Tally) -> Option<Sample> {
    let (mut compile_s, mut run_s) = (0.0, 0.0);
    let mut cal_s = calibrate();
    let mut ok = true;
    for p in &w.programs {
        let (out, s) = timed(|| compile_program(p, tally));
        let Some(out) = out else {
            ok = false;
            continue;
        };
        let (prog, build_s) = timed(|| build_program(&out));
        compile_s += s + build_s;
        let (r, s) = timed(|| prog.run(opts));
        ok &= tally.check(p, &r);
        run_s += s;
        cal_s += calibrate();
    }
    ok.then_some(Sample {
        compile_s,
        run_s,
        host_speed: cal_s / (w.programs.len() + 1) as f64 / CAL_NOMINAL_S,
    })
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct Outcome {
    pub readings: Vec<Reading>,
    pub tally: Tally,
}

pub fn run(name: &str, seed: u64, seconds: f64, quick: bool) -> Outcome {
    let t = bench_threads();
    let mut tally = Tally::default();

    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let cal_before = calibrate();
        let (made, setup_s) = timed(|| {
            let w = workloads::build(name, seed, quick).expect("workload name was checked");
            machine::omprt::global_pool(t);
            let opts = w.measured_opts(t);
            // The warm-up execution is checked like any other but is not a
            // sample.
            execute(&w, opts, &mut tally);
            (w, opts)
        });
        let host_speed = (cal_before + calibrate()) / 2.0 / CAL_NOMINAL_S;
        setups.push(setup_s / host_speed);
        ready = Some(made);
    }
    let (w, opts) = ready.expect("SETUPS > 0");

    let mut samples = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut executions = 0;
    while Instant::now() < deadline || executions < 3 {
        samples.extend(execute(&w, opts, &mut tally));
        executions += 1;
    }

    let med = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let readings = vec![
        Reading::new("e2e_s", med(|s| (s.compile_s + s.run_s) / s.host_speed)),
        Reading::new("compile_s", med(|s| s.compile_s / s.host_speed)),
        Reading::new("run_s", med(|s| s.run_s / s.host_speed)),
        Reading::new("peak_rss_mb", peak_rss_kb() as f64 / 1024.0),
        Reading::new("setup_s", median(&setups)),
    ];
    println!(
        "{name}: seed {seed}, {} threads (T {t}, {} cpus), {} samples, sizes: {}",
        opts.threads,
        host_cpus(),
        samples.len(),
        w.sizes
    );
    println!(
        "wall clock: e2e {:.6} s, host speed {:.3} x nominal (the seconds below are divided by it)",
        med(|s| s.compile_s + s.run_s),
        med(|s| s.host_speed)
    );
    Outcome { readings, tally }
}
