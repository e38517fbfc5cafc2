//! The traced pass: per-layer times and counts, taken from outside by timing
//! calls into each layer's public functions and recording the benchmark's
//! own spans around them. End-to-end metrics are never taken from here.
//!
//! One repetition does, for every program of the workload,
//!
//! ```text
//! exec   { compile, build { opt.optimize }, run }      the real calls
//! stages { pc_cc, polycc, lex, parse, analyze, check,  each stage again, alone,
//!          resolve.lower, bytecode.compile }           on the same input
//! variants { run.seq, run.o0, run.memo_off, run.futures_off, run.resolved }
//! ```
//!
//! and then `run.traced` for all of them inside one `cinterp::TraceSession`.
//! Repetitions interleave every timing with every other; a metric is the
//! median over repetitions of its per-repetition sum over programs. Exact
//! counts are taken once, on the first repetition.

use crate::measure::{
    bench_threads, calibrate, compile_program, host_cpus, peak_rss_kb, timed, Outcome, Tally,
    CAL_NOMINAL_S,
};
use crate::metrics::{Reading, PER_LAYER};
use crate::spans::{chrome_trace_json, self_times, Recorder};
use crate::stats::{iqr_rel, median, percentile, sorted};
use crate::workloads::{self, ProgramSpec};
use analysis::{analyze_unit, AnalysisOptions, LoopVerdict};
use cinterp::{
    BytecodeProgram, Engine, InterpOptions, Program, RunResult, RuntimeError, TraceSession, Trap,
};
use machine::omprt::{global_pool, parallel_for_pooled, OmpSchedule, PureFuture};
use polyhedral::{run_polycc, PolyccOptions, RegionOutcome};
use purec_core::{run_pc_cc, PcCcOptions, PureSet};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions: at least `MIN_REPS`, then as many as the run's seconds
/// allow, up to `MAX_REPS`.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 9;
/// The resolved engine is the oracle, several times slower than the VM; its
/// speed is recorded from the first repetitions only.
const RESOLVED_REPS: usize = 3;
const PROBE_ITERS: u32 = 1000;

/// Smallest `InterpOptions::fuel` for which the `threads: 1` run completes:
/// the sequential VM traps on the dispatch after its budget is gone, so
/// this is its exact dispatch count. `None` if the run fails otherwise.
pub fn fuel_burned(prog: &Program, opts: InterpOptions, hint: u64) -> Option<u64> {
    let completes = |fuel: u64| -> Option<bool> {
        let opts = InterpOptions {
            fuel: Some(fuel),
            threads: 1,
            ..opts
        };
        match prog.run(opts) {
            Ok(_) => Some(true),
            Err(e) if e.trap == Some(Trap::FuelExhausted) => Some(false),
            Err(_) => None,
        }
    };
    let (mut lo, mut hi) = (0, hint.max(1));
    while !completes(hi)? {
        lo = hi;
        hi = hi.checked_mul(2)?;
    }
    // Invariant: `lo` traps (or is 0), `hi` completes.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if completes(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Named sums: times of one repetition, or the first repetition's counts.
#[derive(Default)]
struct Sums(BTreeMap<&'static str, f64>);

impl Sums {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

struct Pass {
    rec: Recorder,
    tally: Tally,
    counts: Sums,
    /// Threads of the workload's measured leg.
    primary: usize,
    opts: InterpOptions,
}

/// A timed, checked run inside a span.
fn checked_run(
    rec: &mut Recorder,
    tally: &mut Tally,
    span: &'static str,
    p: &ProgramSpec,
    prog: &Program,
    opts: InterpOptions,
) -> (Result<RunResult, RuntimeError>, f64) {
    let (r, s) = rec.scope(span, |_| prog.run(opts));
    tally.check(p, &r);
    (r, s)
}

impl Pass {
    /// Everything one repetition does with one program. Returns the built
    /// program for the traced session.
    fn program(&mut self, rep: usize, p: &ProgramSpec, sums: &mut Sums) -> Option<Program> {
        let Pass {
            rec, tally, counts, ..
        } = self;
        let first = rep == 0;
        let base = self.opts;
        let primary = InterpOptions {
            threads: self.primary,
            ..base
        };
        rec.next_exec();

        // exec: the real calls, as the untraced measurement makes them.
        let (done, exec_s) = rec.scope("exec", |rec| {
            let (out, compile_s) = rec.scope("compile", |_| compile_program(p, tally));
            let out = out?;
            sums.add("purec.compile_s", compile_s);
            let ((prog, optimize_s), _) = rec.scope("build", |rec| {
                let prog = out.program();
                let ((), optimize_s) = rec.scope("opt.optimize", |_| {
                    prog.bytecode_at(2);
                });
                (prog, optimize_s)
            });
            sums.add("cinterp.opt.optimize_s", optimize_s);
            let rss_before = peak_rss_kb();
            let (r, run_s) = checked_run(rec, tally, "run", p, &prog, primary);
            sums.add("_run_s", run_s);
            // The two phases of `memo_reuse`; no other workload has them.
            let phase = |name| if p.name == name { run_s } else { 0.0 };
            sums.add("cinterp.cache.hot_s", phase("hot"));
            sums.add("cinterp.cache.cold_s", phase("cold"));
            if first {
                counts.add("_rss_delta_kb", (peak_rss_kb() - rss_before) as f64);
                counts.add("_mallocs", p.mallocs as f64);
            }
            Some((out, prog, r))
        });
        let (out, prog, r) = done?;
        sums.add("_e2e_s", exec_s);
        if let (true, Ok(r)) = (first, &r) {
            let c = &r.counters;
            for (name, v) in [
                ("cinterp.cache.memo_hits", c.memo_hits),
                ("cinterp.cache.memo_misses", c.memo_misses),
                ("cinterp.cache.memo_evictions", c.memo_evictions),
                ("cinterp.spawn.futures_spawned", c.futures_spawned),
                ("cinterp.spawn.futures_inlined", c.futures_inlined),
                ("cinterp.spawn.futures_helped", c.futures_helped),
                ("machine.omprt.tasks_stolen", c.tasks_stolen),
                ("machine.omprt.local_pushes", c.local_pushes),
            ] {
                counts.add(name, v as f64);
            }
            println!(
                "{}: memo {} hits {} misses {} evictions, futures {} spawned {} inlined",
                p.name,
                c.memo_hits,
                c.memo_misses,
                c.memo_evictions,
                c.futures_spawned,
                c.futures_inlined
            );
        }

        // stages: each compile stage again, alone, from outside.
        rec.scope("stages", |rec| {
            let mut count = |name, v: usize| {
                if first {
                    counts.add(name, v as f64);
                }
            };
            count("cprep.src_bytes", p.source.len());
            count("purec.text_bytes", out.text.len());

            let (pcc, s) = rec.scope("pc_cc", |_| run_pc_cc(&p.source, PcCcOptions::default()));
            sums.add("core.pc_cc_s", s);
            let pcc = pcc.expect("chain::compile accepted this source");
            count("core.pure_fns", pcc.declared_pure.len());
            count("core.scops_marked", pcc.scops_marked);
            count("core.loops_skipped_impure", pcc.loops_skipped_impure);
            count("core.diags", pcc.diags.len());

            let mut unit = pcc.unit;
            let (report, s) = rec.scope("polycc", |_| {
                run_polycc(&mut unit, PolyccOptions::default())
            });
            sums.add("polyhedral.polycc_s", s);
            let flagged =
                |f: fn(&RegionOutcome) -> bool| report.regions.iter().filter(|r| f(r)).count();
            count("polyhedral.regions_transformed", report.transformed_count());
            count(
                "polyhedral.regions_parallelized",
                report.parallelized_count(),
            );
            count(
                "polyhedral.regions_skewed",
                flagged(|r| matches!(r, RegionOutcome::Transformed { skewed: true, .. })),
            );
            count("polyhedral.regions_tiled", report.tiled_count());
            count("polyhedral.regions_fused", report.fused);
            count("polyhedral.rows_hoisted", report.rows_hoisted);
            count(
                "polyhedral.regions_skipped",
                flagged(|r| matches!(r, RegionOutcome::Skipped { .. })),
            );

            let ((tokens, _), s) = rec.scope("lex", |_| cfront::lexer::lex(&out.text));
            sums.add("cfront.lex_s", s);
            count("cfront.tokens", tokens.len());
            let (parsed, s) = rec.scope("parse", |_| cfront::parser::parse(&out.text));
            sums.add("cfront.parse_s", s);
            count("cfront.ast_items", parsed.unit.items.len());

            let mut verified = PureSet::seeded();
            for name in &out.declared_pure {
                verified.insert(name.clone());
            }
            let (report, s) = rec.scope("analyze", |_| {
                analyze_unit(&out.unit, &verified, &AnalysisOptions::default())
            });
            sums.add("analysis.analyze_s", s);
            let verdicts = |v| report.loops.iter().filter(|l| l.verdict == v).count();
            count(
                "analysis.loops_independent",
                verdicts(LoopVerdict::Independent),
            );
            count("analysis.loops_racy", verdicts(LoopVerdict::Racy));
            count("analysis.loops_unknown", verdicts(LoopVerdict::Unknown));
            count("analysis.diags", report.diags.len());

            let (_, s) = rec.scope("check", |_| {
                purec::check_source(&p.source, &purec::CheckOptions::default())
            });
            sums.add("purec.check_s", s);

            let pure = out.verified_pure_set();
            let (resolved, s) = rec.scope("resolve.lower", |_| {
                cinterp::resolve::lower_unit(&out.unit, &pure, &out.verdicts)
            });
            sums.add("cinterp.resolve.lower_s", s);
            count(
                "cinterp.resolve.cacheable_fns",
                resolved.cacheable_functions().len(),
            );
            count(
                "cinterp.resolve.spawn_sites",
                resolved.spawn_sites().iter().map(|(_, n)| n).sum(),
            );
            count(
                "cinterp.resolve.spawn_heavy_fns",
                resolved.spawn_heavy_functions().len(),
            );
            let (raw, s) = rec.scope("bytecode.compile", |_| BytecodeProgram::compile(&resolved));
            sums.add("cinterp.bytecode.compile_s", s);
            count("cinterp.bytecode.insns_raw", raw.insn_count());
            count("cinterp.opt.insns_opt", prog.bytecode_at(2).insn_count());
        });

        // variants: the same program with one mechanism switched.
        let seq_opts = InterpOptions { threads: 1, ..base };
        let (seq, s) = checked_run(rec, tally, "run.seq", p, &prog, seq_opts);
        sums.add("cinterp.vm.run_seq_s", s);
        if let (true, Ok(seq)) = (first, &seq) {
            let c = &seq.counters;
            for (name, v) in [
                ("cinterp.vm.ops_executed", c.total()),
                ("cinterp.vm.flops", c.flops),
                ("cinterp.vm.int_ops", c.int_ops),
                ("cinterp.vm.loads", c.loads),
                ("cinterp.vm.stores", c.stores),
                ("cinterp.vm.calls", c.calls),
                ("cinterp.vm.branches", c.branches),
                ("cinterp.opt.insns_folded", c.insns_folded),
                ("cinterp.opt.insns_fused", c.insns_fused),
                ("cinterp.opt.icache_hits", c.icache_hits),
            ] {
                counts.add(name, v as f64);
            }
            let (fuel, _) = rec.scope("fuel.bisect", |_| fuel_burned(&prog, base, c.total()));
            match fuel {
                Some(fuel) => counts.add("cinterp.vm.fuel_burned", fuel as f64),
                None => tally.fail(format!("{}: fuel bisection did not converge", p.name)),
            }
        }
        let o0 = InterpOptions {
            opt_level: 0,
            ..primary
        };
        let memo_off = InterpOptions {
            memo: false,
            ..primary
        };
        let futures_off = InterpOptions {
            futures: false,
            ..primary
        };
        for (span, metric, opts) in [
            ("run.o0", "cinterp.opt.run_o0_s", o0),
            ("run.memo_off", "cinterp.cache.run_memo_off_s", memo_off),
            (
                "run.futures_off",
                "cinterp.spawn.run_futures_off_s",
                futures_off,
            ),
        ] {
            let (_, s) = checked_run(rec, tally, span, p, &prog, opts);
            sums.add(metric, s);
        }
        if rep < RESOLVED_REPS {
            let opts = InterpOptions {
                engine: Engine::Resolved,
                ..primary
            };
            let (_, s) = checked_run(rec, tally, "run.resolved", p, &prog, opts);
            sums.add("cinterp.resolve.run_s", s);
        }
        Some(prog)
    }
}

/// Mean cost in microseconds of `PROBE_ITERS` calls of `f`.
fn probe_us(mut f: impl FnMut()) -> f64 {
    let ((), s) = timed(|| (0..PROBE_ITERS).for_each(|_| f()));
    s * 1e6 / PROBE_ITERS as f64
}

pub fn run(name: &str, seed: u64, seconds: f64, quick: bool, trace_out: Option<&Path>) -> Outcome {
    let t = bench_threads();
    let w = workloads::build(name, seed, quick).expect("workload name was checked");
    let pool = global_pool(t);
    let mut pass = Pass {
        rec: Recorder::new(),
        tally: Tally::default(),
        counts: Sums::default(),
        primary: w.measured_opts(t).threads,
        opts: w.opts,
    };
    let traced_opts = InterpOptions {
        threads: pass.primary,
        ..pass.opts
    };

    // Per metric, one value per repetition.
    let mut times: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut session = None;
    let mut rep = 0;
    while rep < MIN_REPS || (rep < MAX_REPS && Instant::now() < deadline) {
        let mut sums = Sums::default();
        let progs: Vec<(&ProgramSpec, Program)> = w
            .programs
            .iter()
            .filter_map(|p| Some((p, pass.program(rep, p, &mut sums)?)))
            .collect();

        // One session of the runtime's own tracing around all programs: its
        // histograms, and what switching it on costs a run.
        let trace = TraceSession::start();
        for (p, prog) in &progs {
            let (_, s) = checked_run(
                &mut pass.rec,
                &mut pass.tally,
                "run.traced",
                p,
                prog,
                traced_opts,
            );
            sums.add("_run_traced_s", s);
        }
        session = Some(trace.finish());
        sums.add("_cal_s", calibrate());

        for (name, v) in sums.0 {
            times.entry(name).or_default().push(v);
        }
        rep += 1;
    }
    let session = session.expect("MIN_REPS > 0");

    let region_launch_us = probe_us(|| {
        parallel_for_pooled(t as u64, t, OmpSchedule::Static, |_| {});
    });
    let future_roundtrip_us = probe_us(|| {
        PureFuture::spawn(&pool, true, || 1u64).wait();
    });

    let Pass {
        rec,
        mut tally,
        counts,
        ..
    } = pass;
    let trace_json = chrome_trace_json(&rec);
    if let Err(e) = cinterp::validate_chrome_trace(&trace_json) {
        tally.fail(format!("the benchmark's own trace does not validate: {e}"));
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, &trace_json) {
            tally.fail(format!("cannot write {}: {e}", path.display()));
        }
    }

    let med = |name: &str| times.get(name).map_or(f64::NAN, |v| median(v));
    let c = |name: &str| counts.get(name);
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let hist = |name: &str| {
        let series = &session.metrics.hists;
        &series.iter().find(|(n, _)| *n == name).expect("series").1
    };
    let gauge_max = |name: &str| {
        let series = &session.metrics.gauges;
        series
            .iter()
            .find(|(n, _)| *n == name)
            .expect("series")
            .1
            .max as f64
    };
    let e2e = sorted(times.get("_e2e_s").map(Vec::as_slice).unwrap_or_default());
    let stage_sum: f64 = [
        "core.pc_cc_s",
        "polyhedral.polycc_s",
        "cfront.parse_s",
        "analysis.analyze_s",
    ]
    .iter()
    .map(|n| med(n))
    .sum();
    let hits = c("cinterp.cache.memo_hits");
    let spawned = c("cinterp.spawn.futures_spawned");
    let regions = hist("region_duration_ns");
    let queue_wait = hist("queue_wait_ns");
    let await_wait = hist("await_wait_ns");
    let seq_ns = med("cinterp.vm.run_seq_s") * 1e9;

    let mut vals: BTreeMap<&'static str, f64> = counts.0.clone();
    for (name, v) in &times {
        vals.insert(name, median(v));
    }
    vals.extend([
        (
            "cfront.mtokens_per_s",
            ratio(c("cfront.tokens") / 1e6, med("cfront.lex_s")),
        ),
        ("purec.lower_glue_s", med("purec.compile_s") - stage_sum),
        (
            "cinterp.opt.run_gain",
            ratio(med("cinterp.opt.run_o0_s"), med("_run_s")),
        ),
        (
            "cinterp.vm.ns_per_op",
            ratio(seq_ns, c("cinterp.vm.ops_executed")),
        ),
        (
            "cinterp.vm.ns_per_fuel",
            ratio(seq_ns, c("cinterp.vm.fuel_burned")),
        ),
        (
            "cinterp.vm.speedup_par",
            ratio(med("cinterp.vm.run_seq_s"), med("_run_s")),
        ),
        (
            "cinterp.cache.hit_share",
            ratio(hits, hits + c("cinterp.cache.memo_misses")),
        ),
        (
            "cinterp.spawn.spawn_share",
            ratio(spawned, spawned + c("cinterp.spawn.futures_inlined")),
        ),
        ("machine.omprt.region_launch_us", region_launch_us),
        ("machine.omprt.future_roundtrip_us", future_roundtrip_us),
        ("machine.omprt.regions", regions.count() as f64),
        (
            "machine.omprt.region_ns_p50",
            regions.quantile_upper(0.5) as f64,
        ),
        (
            "machine.omprt.region_ns_p99",
            regions.quantile_upper(0.99) as f64,
        ),
        (
            "machine.omprt.queue_wait_ns_p50",
            queue_wait.quantile_upper(0.5) as f64,
        ),
        (
            "machine.omprt.queue_wait_ns_p99",
            queue_wait.quantile_upper(0.99) as f64,
        ),
        (
            "machine.omprt.steal_ns_p50",
            hist("steal_latency_ns").quantile_upper(0.5) as f64,
        ),
        ("machine.omprt.await_waits", await_wait.count() as f64),
        (
            "machine.omprt.await_wait_ns_p50",
            await_wait.quantile_upper(0.5) as f64,
        ),
        (
            "machine.omprt.steal_share",
            ratio(
                c("machine.omprt.tasks_stolen"),
                c("machine.omprt.local_pushes"),
            ),
        ),
        ("cinterp.value.arena_bytes_max", gauge_max("arena_bytes")),
        ("cinterp.value.spill_bytes_max", gauge_max("spill_bytes")),
        (
            "cinterp.value.rss_kb_per_malloc",
            ratio(c("_rss_delta_kb"), c("_mallocs")),
        ),
        (
            "cinterp.trace.overhead_ratio",
            ratio(med("_run_traced_s"), med("_run_s")),
        ),
        ("cinterp.trace.events", session.events.len() as f64),
        ("cinterp.trace.dropped_events", session.dropped as f64),
        ("harness.samples", e2e.len() as f64),
        ("harness.e2e_p75_s", percentile(&e2e, 0.75)),
        ("harness.e2e_min_s", percentile(&e2e, 0.0)),
        ("harness.e2e_iqr_rel", iqr_rel(&e2e)),
        ("harness.threads", t as f64),
        ("harness.host_cpus", host_cpus() as f64),
        ("harness.host_speed", med("_cal_s") / CAL_NOMINAL_S),
    ]);
    // Names starting with `_` are working values; any other must be a row
    // of the table (`describe` panics on a name that is not).
    for name in vals.keys().filter(|n| !n.starts_with('_')) {
        crate::metrics::describe(name);
    }

    println!(
        "{name}: seed {seed}, T {t} of {} cpus, {rep} repetitions, sizes: {}",
        host_cpus(),
        w.sizes
    );
    println!("self time by span, all repetitions:");
    for (span, s) in self_times(&rec.spans) {
        println!("  {span:<18} {s:>10.6} s");
    }
    let readings = PER_LAYER
        .iter()
        // Every program reports every count on a run that succeeds, so a
        // missing value is a failed run; it reads NaN and fails the result.
        .map(|m| Reading::new(m.name, vals.get(m.name).copied().unwrap_or(f64::NAN)))
        .collect();
    Outcome { readings, tally }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop_program(iters: u32) -> Program {
        let src = format!(
            "int main() {{ int a = 0; for (int i = 0; i < {iters}; i++) a = a + i; return a & 127; }}"
        );
        Program::new(&cfront::parser::parse(&src).unit)
    }

    fn run_with(prog: &Program, fuel: u64) -> Result<RunResult, RuntimeError> {
        prog.run(InterpOptions {
            fuel: Some(fuel),
            ..Default::default()
        })
    }

    /// The bisection result is the dispatch count: it completes, one less
    /// traps, and it grows by the same whole number of dispatches with every
    /// ten iterations added.
    #[test]
    fn fuel_bisection_finds_the_dispatch_count_of_a_small_loop() {
        let fuel: Vec<u64> = [10, 20, 30]
            .into_iter()
            .map(|iters| {
                let prog = loop_program(iters);
                let f = fuel_burned(&prog, InterpOptions::default(), 1).expect("converges");
                assert!(run_with(&prog, f).is_ok());
                let starved = run_with(&prog, f - 1).expect_err("one dispatch short");
                assert_eq!(starved.trap, Some(Trap::FuelExhausted));
                f
            })
            .collect();
        let per_ten = fuel[1] - fuel[0];
        assert_eq!(fuel[2] - fuel[1], per_ten);
        assert!(per_ten >= 10 && per_ten.is_multiple_of(10), "{fuel:?}");
        // The hint only changes where the search starts.
        let prog = loop_program(10);
        for hint in [0, 7, 1 << 20] {
            assert_eq!(
                fuel_burned(&prog, InterpOptions::default(), hint),
                Some(fuel[0])
            );
        }
    }

    #[test]
    fn fuel_bisection_gives_up_on_a_program_that_fails_otherwise() {
        let prog = Program::new(&cfront::parser::parse("int main() { return 1 / 0; }").unit);
        assert_eq!(fuel_burned(&prog, InterpOptions::default(), 1), None);
    }
}
