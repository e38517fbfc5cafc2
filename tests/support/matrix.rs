//! The differential matrix: programs × legs, as data, with one runner.
//!
//! A [`Leg`] is one way of running a program: an engine (the bytecode
//! VM at optimizer levels 2 and 0, the resolved-IR engine, the legacy
//! tree-walker) on the poly or the `--no-poly` build at one and at four
//! threads, the VM with a trace session live, and GCC — the compiler the
//! paper hands its text to — on the default, `--no-poly`, `--tile 8` and
//! `--tile 32` text and on the original source with `-Dpure=`, at
//! `OMP_NUM_THREADS` 1, 2 and 4. An [`Entry`] is a program, the limits it
//! runs under and what every leg must show: an exit code and stdout, a
//! trap, or a rejection. A leg an entry cannot meet is named in one of
//! its [`Exemption`]s with a written reason; a known divergence also
//! records what the exempted legs show today, so the change that mends
//! it has to delete it.
//!
//! Within one build and thread count the engines must also agree on the
//! executed-op counters (`without_memo`) and the heap's totals, and the
//! traced run on the untraced one's; every `#pragma omp` of a text GCC
//! builds must head a loop. [`run`] checks entries on the legs a test
//! takes, prints the program × leg table (`cargo test --test matrix --
//! --nocapture` shows it) and panics once with every failure, each
//! naming its program and its leg; [`check`] does one entry on every leg
//! and returns its report.

#![allow(dead_code)] // each includer uses its own part

use cfront::diag::Code;
use cfront::span::Span;
use cinterp::{CounterSnapshot, RunResult, RuntimeError};
use pure_c::prelude::*;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// An engine; the VM with its optimizer level (the VM's alone:
/// `InterpOptions::opt_level` is read by no other engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    Vm(u8),
    Resolved,
    Legacy,
}

/// What GCC builds: the chain's text under some options, or the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Text {
    Default,
    NoPoly,
    Tile8,
    Tile32,
    /// The source as written, with `-Dpure=` (paper Sect. 3: dropping the
    /// keyword leaves standard C).
    Original,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Leg {
    /// An engine on the poly (`true`) or the literal build, at a thread
    /// count.
    Run(Engine, bool, usize),
    /// The VM at `O2` on the poly build at four threads, with a
    /// `cinterp::TraceSession` live.
    Traced,
    /// GCC's build of a text at an `OMP_NUM_THREADS`.
    Gcc(Text, usize),
}

impl Leg {
    /// Every leg, in table order.
    pub fn all() -> Vec<Leg> {
        let engines = [
            Engine::Vm(2),
            Engine::Vm(0),
            Engine::Resolved,
            Engine::Legacy,
        ];
        let mut legs = Vec::new();
        for poly in [true, false] {
            for threads in [1, 4] {
                legs.extend(engines.map(|e| Leg::Run(e, poly, threads)));
            }
        }
        legs.push(Leg::Traced);
        for text in [
            Text::Default,
            Text::NoPoly,
            Text::Tile8,
            Text::Tile32,
            Text::Original,
        ] {
            legs.extend([1, 2, 4].map(|threads| Leg::Gcc(text, threads)));
        }
        legs
    }
}

impl fmt::Display for Leg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Leg::Run(engine, poly, threads) => {
                let engine = match engine {
                    Engine::Vm(opt) => format!("vm O{opt}"),
                    Engine::Resolved => "resolved".into(),
                    Engine::Legacy => "legacy".into(),
                };
                let build = if *poly { "poly" } else { "literal" };
                write!(f, "{engine} {build} {threads}t")
            }
            Leg::Traced => write!(f, "vm O2 traced poly 4t"),
            Leg::Gcc(text, threads) => write!(f, "gcc {text:?} {threads}t"),
        }
    }
}

/// What every leg of an entry must show.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// The run ends with this stdout and exit code (modulo 256, as a
    /// process reports it).
    Output(String, i64),
    /// The run stops with a runtime error of this trap kind (`None`: a
    /// plain error), whose message holds `message` and whose span starts
    /// at the first occurrence of `at` in the source. A fuel trap has no
    /// `at`: each engine meters its own unit, so where the budget runs
    /// out is its own.
    Trap {
        trap: Option<Trap>,
        message: &'static str,
        at: Option<&'static str>,
    },
    /// The chain refuses the program with (at least) these codes, and
    /// GCC refuses the original source. A GCC leg on a text the chain
    /// refuses has nothing to build and does not run.
    Rejected(Vec<Code>),
    /// What the first leg that runs shows, on every leg (generated
    /// programs): the same stdout and exit code, or, unless `exits`, the
    /// same error. A rejection agrees with nothing.
    Agree { exits: bool },
}

/// Legs an entry does not meet, and why.
#[derive(Clone)]
pub struct Exemption {
    pub legs: fn(&Leg) -> bool,
    pub reason: &'static str,
    /// A known divergence: the ROADMAP item whose change removes it, and
    /// what the exempted legs show today. They must go on showing it; a
    /// leg that shows anything else fails, naming the item, so the change
    /// deletes this exemption. Without it, the exempted legs do not run.
    pub today: Option<(&'static str, Expect)>,
}

#[derive(Clone)]
pub struct Entry {
    pub name: String,
    pub source: String,
    /// `Some(pure)`: the engines run the program as parsed, with no
    /// chain, taking the functions `pure` names as verified pure: no
    /// polycc, no race verdicts (every region is `Unknown`), and the
    /// literal legs are the poly ones. GCC still builds the chain's texts.
    pub raw: Option<HashSet<String>>,
    /// The limits every engine leg runs under (the thread count and the
    /// optimizer level are the leg's). The memo is off unless an entry
    /// turns it on: the legacy walker has no memo cache, and a hit skips
    /// work the counters count.
    pub interp: InterpOptions,
    pub expect: Expect,
    pub exempt: Vec<Exemption>,
}

impl Entry {
    pub fn new(name: impl Into<String>, source: impl Into<String>, expect: Expect) -> Entry {
        Entry {
            name: name.into(),
            source: source.into(),
            raw: None,
            interp: InterpOptions {
                memo: false,
                ..Default::default()
            },
            expect,
            exempt: Vec::new(),
        }
    }

    /// An entry that ends with `stdout` and `exit_code`.
    pub fn output(name: &str, source: impl Into<String>, stdout: &str, exit_code: i64) -> Entry {
        Entry::new(name, source, Expect::Output(stdout.into(), exit_code))
    }

    /// A generated program: every leg ends as the first one does, with
    /// the same stdout and exit code.
    /// GCC's legs do not run, for cost: a proptest makes hundreds of
    /// cases, and four or five GCC builds take 0.4 s a case. Nor does the
    /// traced leg: a trace session is the process's, so it would trace
    /// (and slow) the runs of every test beside it, and
    /// `proptest_invariants::tracing_does_not_change_observables` traces
    /// generated programs on every engine.
    pub fn generated(source: &str) -> Entry {
        let reason = "cost: 0.4 s a generated case; tests/matrix.rs builds the corpus";
        let traced = "a trace session would trace every test of the binary";
        Entry::new("generated", source, Expect::Agree { exits: true })
            .skip(gcc_legs, reason)
            .skip(|leg| *leg == Leg::Traced, traced)
    }

    /// A generated program that may stop with an error: every leg then
    /// stops with the same one.
    pub fn or_error(self) -> Entry {
        let expect = Expect::Agree { exits: false };
        Entry { expect, ..self }
    }

    pub fn interp(self, interp: InterpOptions) -> Entry {
        Entry { interp, ..self }
    }

    /// Run the engines on the parsed unit, `pure` taken as verified.
    pub fn raw(self, pure: &[&str]) -> Entry {
        let raw = Some(pure.iter().map(|f| f.to_string()).collect());
        Entry { raw, ..self }
    }

    /// `legs` are not run, for `reason`.
    pub fn skip(mut self, legs: fn(&Leg) -> bool, reason: &'static str) -> Entry {
        let today = None;
        self.exempt.push(Exemption {
            legs,
            reason,
            today,
        });
        self
    }

    /// `legs` show `today` instead of the expectation until ROADMAP item
    /// `item` lands.
    pub fn diverges(
        mut self,
        legs: fn(&Leg) -> bool,
        item: &'static str,
        reason: &'static str,
        today: Expect,
    ) -> Entry {
        let today = Some((item, today));
        self.exempt.push(Exemption {
            legs,
            reason,
            today,
        });
        self
    }

    fn exemption(&self, leg: &Leg) -> Option<&Exemption> {
        self.exempt.iter().find(|e| (e.legs)(leg))
    }

    fn skips(&self, leg: &Leg) -> bool {
        self.exemption(leg).is_some_and(|e| e.today.is_none())
    }
}

/// What one leg showed.
#[derive(Debug, Clone, PartialEq)]
pub enum Observed {
    /// Stdout and the exit code modulo 256.
    Exit(String, i64),
    Error(String, Span, Option<Trap>),
    /// The chain refused the program (its codes), or GCC did (none).
    Rejected(Vec<Code>),
    /// GCC's build did not start, or a native run did not end normally.
    Broken(String),
}

/// What an engine run did besides what it showed: its executed-op
/// counters (without the memo's and the scheduler's bookkeeping) and its
/// heap's frees and peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    pub counters: CounterSnapshot,
    pub frees: u64,
    pub peak_live_bytes: u64,
}

/// One entry's outcome: a mark per leg in [`Leg::all`] order (`.` meets
/// the expectation, `X` fails, `-` exempt or a GCC leg with no text to
/// build, `k` a known divergence still showing what it showed, blank: a
/// leg the test does not take, or a GCC leg without `cc`), what each leg
/// that ran showed and did, and every failure.
pub struct Report {
    pub name: String,
    pub marks: String,
    pub seen: HashMap<Leg, Observed>,
    pub work: HashMap<Leg, Work>,
    pub failures: Vec<String>,
    pub elapsed: Duration,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.failures.join("\n"))
    }
}

/// The compiler the paper handed its output to, if this host has one.
pub fn have_cc() -> bool {
    static HAVE: OnceLock<bool> = OnceLock::new();
    *HAVE.get_or_init(|| Command::new("cc").arg("--version").output().is_ok())
}

/// Does `seen` meet `want` for a program whose source is `source`?
/// Under [`Expect::Agree`], `first` is what the first leg showed.
pub fn meets(want: &Expect, seen: &Observed, source: &str, first: &Observed) -> bool {
    match (want, seen) {
        (Expect::Output(stdout, code), Observed::Exit(out, exit)) => {
            (out, *exit) == (stdout, code & 0xFF)
        }
        (Expect::Trap { trap, message, at }, Observed::Error(msg, span, kind)) => {
            kind == trap
                && msg.contains(message)
                && at.is_none_or(|at| source.find(at) == Some(span.start as usize))
        }
        // GCC's refusal has no codes.
        (Expect::Rejected(codes), Observed::Rejected(seen)) => {
            seen.is_empty() || codes.iter().all(|c| seen.contains(c))
        }
        // An error agrees by its message, its trap kind and where it
        // points (its span's start), as an `Expect::Trap` would.
        (Expect::Agree { exits: false }, Observed::Error(msg, span, trap)) => {
            matches!(first, Observed::Error(m, s, t) if (m, s.start, t) == (msg, span.start, trap))
        }
        (Expect::Agree { .. }, Observed::Exit(..)) => first == seen,
        _ => false,
    }
}

/// Every entry on the legs `legs` selects, one entry per worker at a
/// time: prints the table and panics with every failure. One worker more
/// than the host has CPUs, since a worker waits on GCC's processes part
/// of the time.
pub fn run(entries: Vec<Entry>, legs: fn(&Leg) -> bool) {
    let workers = std::thread::available_parallelism().map_or(3, |n| (n.get() + 1).clamp(2, 5));
    let next = AtomicUsize::new(0);
    let reports: Mutex<HashMap<usize, Report>> = Mutex::new(HashMap::new());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = entries.get(k) else { break };
                let report = check_legs(entry, legs);
                reports.lock().expect("reports").insert(k, report);
            });
        }
    });
    let mut reports = reports.into_inner().expect("reports");
    let reports: Vec<Report> = (0..entries.len())
        .filter_map(|k| reports.remove(&k))
        .collect();
    let width = reports.iter().map(|r| r.name.len()).max().unwrap_or(0);
    println!("columns:");
    for (k, leg) in Leg::all().iter().enumerate() {
        println!("  {k:>2} {leg}");
    }
    let ruler: String = (0..Leg::all().len())
        .map(|k| (b'0' + (k % 10) as u8) as char)
        .collect();
    println!(
        "cells: . meets the expectation, X fails, - exempt or no text to build, \
         k known divergence, blank: not this test's leg, or no cc"
    );
    println!("{:width$}  {ruler}", "");
    for r in &reports {
        println!(
            "{:width$}  {}  {} ms",
            r.name,
            r.marks,
            r.elapsed.as_millis()
        );
    }
    let failures: Vec<&str> = reports
        .iter()
        .flat_map(|r| &r.failures)
        .map(String::as_str)
        .collect();
    assert!(
        failures.is_empty(),
        "{} failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// One entry on every leg.
pub fn check(entry: &Entry) -> Report {
    check_legs(entry, |_| true)
}

/// One entry on the legs `legs` selects, on a thread with the stack
/// `purec` gives its program: the tree-walking engines recurse on the
/// native stack.
fn check_legs(entry: &Entry, legs: fn(&Leg) -> bool) -> Report {
    std::thread::scope(|s| {
        let worker = std::thread::Builder::new().stack_size(machine::STACK_SIZE);
        let run = worker.spawn_scoped(s, || check_here(entry, legs));
        run.expect("spawn a matrix thread")
            .join()
            .expect("the matrix thread")
    })
}

fn check_here(entry: &Entry, legs: fn(&Leg) -> bool) -> Report {
    let started = Instant::now();
    let mut report = Report {
        name: entry.name.clone(),
        marks: String::new(),
        seen: HashMap::new(),
        work: HashMap::new(),
        failures: Vec::new(),
        elapsed: Duration::ZERO,
    };
    let mut made = Made::new(entry);
    let mut first: Option<Observed> = None;
    let name = &entry.name;
    for leg in Leg::all() {
        let exemption = entry.exemption(&leg);
        if !legs(&leg) || matches!(leg, Leg::Gcc(..)) && !have_cc() {
            report.marks.push(' ');
            continue;
        }
        if entry.skips(&leg) || made.nothing_to_build(leg) {
            report.marks.push('-');
            continue;
        }
        let (seen, work) = made.observe(leg, &report);
        if let Some(work) = work {
            report.work.insert(leg, work);
        }
        let first = first.get_or_insert_with(|| seen.clone());
        let mark = match exemption.and_then(|e| e.today.as_ref()) {
            Some((_, today)) if meets(today, &seen, &entry.source, first) => 'k',
            Some((item, today)) => {
                report.failures.push(format!(
                    "{name}: {leg}: the known divergence ({item}) shows {seen:?}, not {today:?}; \
                     if {item} landed, delete this exemption"
                ));
                'X'
            }
            None if meets(&entry.expect, &seen, &entry.source, first) => '.',
            None => {
                let want = &entry.expect;
                report
                    .failures
                    .push(format!("{name}: {leg}: expected {want:?}, got {seen:?}"));
                'X'
            }
        };
        report.marks.push(mark);
        report.seen.insert(leg, seen);
    }
    if !entry.interp.memo {
        agree_on_work(&mut report);
    }
    // The texts GCC builds for this entry (on a host with `cc` or not).
    for text in [Text::Default, Text::NoPoly, Text::Tile8, Text::Tile32] {
        let builds = |t: &usize| legs(&Leg::Gcc(text, *t)) && !entry.skips(&Leg::Gcc(text, *t));
        if ![1, 2, 4].iter().any(builds) {
            continue;
        }
        if let Ok(out) = made.build(text) {
            if let Err(why) = omp_pragmas_head_loops(&out.text) {
                let text_of = &out.text;
                report
                    .failures
                    .push(format!("{name}: {text:?} text: {why}:\n{text_of}"));
            }
        }
    }
    report.elapsed = started.elapsed();
    report
}

/// Within a build and a thread count every engine leg did the same work
/// as the VM at `O2`, and the traced run as the untraced one.
fn agree_on_work(report: &mut Report) {
    let vm = |poly, threads| Leg::Run(Engine::Vm(2), poly, threads);
    let mut pairs = vec![(vm(true, 4), Leg::Traced)];
    for leg in Leg::all() {
        if let Leg::Run(engine, poly, threads) = leg {
            if engine != Engine::Vm(2) {
                pairs.push((vm(poly, threads), leg));
            }
        }
    }
    for (a, b) in pairs {
        if let (Some(x), Some(y)) = (report.work.get(&a), report.work.get(&b)) {
            if x != y {
                let name = &report.name;
                let why = "executed-op counters or heap totals differ from";
                report
                    .failures
                    .push(format!("{name}: {b}: {why} {a}:\n  {x:?}\n  {y:?}"));
            }
        }
    }
}

/// What an engine run showed, and did when it ended normally.
pub fn observed(run: Result<RunResult, RuntimeError>) -> (Observed, Option<Work>) {
    match run {
        Ok(r) => {
            let (frees, peak_live_bytes) = (r.heap.frees, r.heap.peak_live_bytes);
            let counters = r.counters.without_memo();
            let work = Work {
                counters,
                frees,
                peak_live_bytes,
            };
            (Observed::Exit(r.output, r.exit_code & 0xFF), Some(work))
        }
        Err(e) => (Observed::Error(e.message, e.span, e.trap), None),
    }
}

/// What one entry's legs share, each made once: the chain's builds, the
/// engines' programs, GCC's builds and their runs.
struct Made<'a> {
    entry: &'a Entry,
    builds: HashMap<Text, Result<purec::ChainOutput, Vec<Code>>>,
    programs: HashMap<bool, Program>,
    /// Whether the literal build is the poly build (polycc changed
    /// nothing): then a literal leg is its poly twin's run.
    literal_is_poly: Option<bool>,
    natives: HashMap<String, Result<PathBuf, String>>,
    native_runs: HashMap<(String, usize), Observed>,
}

impl<'a> Made<'a> {
    fn new(entry: &'a Entry) -> Self {
        Made {
            entry,
            builds: HashMap::new(),
            programs: HashMap::new(),
            literal_is_poly: None,
            natives: HashMap::new(),
            native_runs: HashMap::new(),
        }
    }

    /// The chain's output for `text` (not [`Text::Original`]).
    fn build(&mut self, text: Text) -> &Result<purec::ChainOutput, Vec<Code>> {
        let entry = self.entry;
        self.builds.entry(text).or_insert_with(|| {
            let mut opts = ChainOptions::default();
            match text {
                Text::NoPoly => opts.no_poly = true,
                Text::Tile8 => opts.polycc.tile = Some(8),
                Text::Tile32 => opts.polycc.tile = Some(32),
                Text::Default | Text::Original => {}
            }
            compile(&entry.source, opts).map_err(|d| d.items().iter().map(|d| d.code).collect())
        })
    }

    /// A GCC leg on a text the chain refuses, as the entry expects.
    fn nothing_to_build(&mut self, leg: Leg) -> bool {
        match leg {
            Leg::Gcc(Text::Original, _) | Leg::Run(..) | Leg::Traced => false,
            Leg::Gcc(text, _) => {
                matches!(self.entry.expect, Expect::Rejected(_)) && self.build(text).is_err()
            }
        }
    }

    fn literal_is_poly(&mut self) -> bool {
        if self.entry.raw.is_some() {
            return true;
        }
        if let Some(same) = self.literal_is_poly {
            return same;
        }
        let key = |out: &purec::ChainOutput| {
            let unit = format!("{:?} {:?}", out.unit, out.declared_pure);
            (unit, out.verdicts.clone())
        };
        let poly = self.build(Text::Default).as_ref().ok().map(key);
        let literal = self.build(Text::NoPoly).as_ref().ok().map(key);
        let same = poly.is_some() && poly == literal;
        self.literal_is_poly = Some(same);
        same
    }

    /// The program the engine legs of the poly or the literal build run.
    fn program(&mut self, poly: bool) -> Result<&Program, Vec<Code>> {
        if !self.programs.contains_key(&poly) {
            let prog = if let Some(pure) = &self.entry.raw {
                let parsed = parse(&self.entry.source);
                if parsed.diags.has_errors() {
                    return Err(parsed.diags.items().iter().map(|d| d.code).collect());
                }
                Program::with_pure_set(&parsed.unit, pure)
            } else {
                match self.build(if poly { Text::Default } else { Text::NoPoly }) {
                    Ok(out) => out.program(),
                    Err(codes) => return Err(codes.clone()),
                }
            };
            self.programs.insert(poly, prog);
        }
        Ok(&self.programs[&poly])
    }

    fn observe(&mut self, leg: Leg, report: &Report) -> (Observed, Option<Work>) {
        let (engine, poly, threads) = match leg {
            Leg::Gcc(text, threads) => return (self.native(text, threads), None),
            Leg::Traced => (Engine::Vm(2), true, 4),
            Leg::Run(engine, poly, threads) => (engine, poly, threads),
        };
        let twin = Leg::Run(engine, true, threads);
        if !poly && self.literal_is_poly() {
            if let Some(seen) = report.seen.get(&twin) {
                return (seen.clone(), report.work.get(&twin).copied());
            }
        }
        let opt_level = if let Engine::Vm(opt) = engine { opt } else { 2 };
        let opts = InterpOptions {
            threads,
            opt_level,
            ..self.entry.interp
        };
        let prog = match self.program(poly) {
            Ok(prog) => prog,
            Err(codes) => return (Observed::Rejected(codes), None),
        };
        let run = match (leg, engine) {
            (Leg::Traced, _) => {
                let session = cinterp::TraceSession::start();
                let run = prog.run(opts);
                // Other threads may hold spans open: the data is not read.
                let _ = session.finish();
                run
            }
            (_, Engine::Vm(_)) => prog.run(opts),
            (_, Engine::Resolved) => prog.run_resolved(opts),
            (_, Engine::Legacy) => prog.run_legacy(opts),
        };
        observed(run)
    }

    /// GCC's build of `text` run at `threads`; one build and one run per
    /// distinct text.
    fn native(&mut self, text: Text, threads: usize) -> Observed {
        let source = match text {
            Text::Original => self.entry.source.clone(),
            _ => match self.build(text) {
                Ok(out) => out.text.clone(),
                Err(codes) => return Observed::Rejected(codes.clone()),
            },
        };
        let key = (source, threads);
        if let Some(seen) = self.native_runs.get(&key) {
            return seen.clone();
        }
        let name = &self.entry.name;
        let exe = self.natives.entry(key.0.clone());
        let seen = match exe.or_insert_with(|| gcc(name, &key.0, text == Text::Original)) {
            Ok(exe) => run_native(exe, threads),
            Err(why) if why.is_empty() => Observed::Rejected(Vec::new()),
            Err(why) => Observed::Broken(why.clone()),
        };
        self.native_runs.insert(key, seen.clone());
        seen
    }
}

/// Build `source` with `cc -std=c11 -O1 -fopenmp`: the chain's text under
/// `-Werror=unknown-pragmas` (it must hold no pragma GCC does not know),
/// the original source with `-Dpure=`. `Err("")` when GCC refuses it.
fn gcc(name: &str, source: &str, original: bool) -> Result<PathBuf, String> {
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("matrix");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let k = BUILDS.fetch_add(1, Ordering::Relaxed);
    let exe = dir.join(format!("{stem}_{}_{k}", std::process::id()));
    let c_file = exe.with_extension("c");
    std::fs::write(&c_file, source).map_err(|e| format!("{}: {e}", c_file.display()))?;
    let flag = if original {
        "-Dpure="
    } else {
        "-Werror=unknown-pragmas"
    };
    let out = Command::new("cc")
        .args(["-std=c11", "-O1", "-fopenmp", flag])
        .arg(&c_file)
        .arg("-o")
        .arg(&exe)
        .arg("-lm")
        .output()
        .map_err(|e| format!("cc does not start: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    match (out.status.success(), stderr.contains("error")) {
        (true, _) => Ok(exe),
        (false, true) => Err(String::new()),
        (false, false) => Err(format!("cc failed: {stderr}")),
    }
}

/// Run a native build at `threads` OpenMP threads.
fn run_native(exe: &Path, threads: usize) -> Observed {
    let out = Command::new(exe)
        .env("OMP_NUM_THREADS", threads.to_string())
        // Many tiny regions spin-waiting at each join on a busy host cost
        // seconds; the answer does not depend on the policy.
        .env("OMP_WAIT_POLICY", "passive")
        .output();
    match out {
        Ok(out) => match out.status.code() {
            Some(code) => {
                Observed::Exit(String::from_utf8_lossy(&out.stdout).into(), i64::from(code))
            }
            None => Observed::Broken(format!("the native build ended by {}", out.status)),
        },
        Err(e) => Observed::Broken(format!("the native build does not start: {e}")),
    }
}

/// GCC's legs.
pub fn gcc_legs(leg: &Leg) -> bool {
    matches!(leg, Leg::Gcc(..))
}

/// GCC's legs at more than one thread.
pub fn gcc_parallel_legs(leg: &Leg) -> bool {
    matches!(leg, Leg::Gcc(_, threads) if *threads > 1)
}

/// Every engine leg, the traced one included.
pub fn engine_legs(leg: &Leg) -> bool {
    !gcc_legs(leg)
}

/// The legacy tree-walker's legs.
pub fn legacy_legs(leg: &Leg) -> bool {
    matches!(leg, Leg::Run(Engine::Legacy, ..))
}

/// Every `#pragma omp` line of emitted text heads a loop: the next line
/// is a `for`, never another pragma (GCC stops at "for statement expected
/// before '#pragma'"), and a `for` with constant bounds has at least two
/// iterations (a parallel loop of one runs on one thread).
pub fn omp_pragmas_head_loops(text: &str) -> Result<(), String> {
    let mut lines = text.lines().map(str::trim);
    while let Some(line) = lines.next() {
        if !line.starts_with("#pragma omp") {
            continue;
        }
        let next = lines.next().unwrap_or_default();
        if !next.starts_with("for (") {
            return Err(format!("`{line}` is followed by `{next}`"));
        }
        if let Some(trips) = constant_trip_count(next).filter(|t| *t < 2) {
            return Err(format!(
                "`{line}` heads a loop of {trips} iteration(s), `{next}`"
            ));
        }
    }
    Ok(())
}

/// The trip count of `for (T i = lo; i < hi; i++)` (or `<=`) when `lo`
/// and `hi` are integer literals.
fn constant_trip_count(header: &str) -> Option<i64> {
    let mut parts = header.strip_prefix("for (")?.splitn(3, ';');
    let lo: i64 = parts.next()?.rsplit_once('=')?.1.trim().parse().ok()?;
    let cond = parts.next()?;
    let (hi, inclusive) = match cond.split_once("<=") {
        Some((_, hi)) => (hi, 1),
        None => (cond.split_once('<')?.1, 0),
    };
    let hi: i64 = hi.trim().parse().ok()?;
    Some(hi - lo + inclusive)
}
