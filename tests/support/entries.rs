//! The entries of the differential matrix (`tests/support/matrix.rs`):
//! the checked-in examples, the constants of `tests/support/corpus.rs`
//! and the paper's four applications, in groups. Each group's legs run
//! in one test: [`examples`] and [`rest`] in `tests/matrix.rs`; the
//! [`apps`] in `chain_integration` (one test an app) but for their
//! `--no-poly` and tiled GCC legs, which are `gcc_oracle`'s;
//! [`operator_table`] and [`nested_omp`] in `gcc_oracle`; the
//! [`blind_spot`] and [`braceless`] programs' engine legs in
//! `poly_differential` and their GCC legs in `gcc_oracle`; the three
//! trap programs in `resource_limits`.
//!
//! A module of the test that includes it, beside `mod matrix` and after
//! `include!("support/corpus.rs")`, whose constants it reads.

#![allow(dead_code)] // each includer runs its own groups

use super::*;
use cfront::diag::Code;
use matrix::{engine_legs, gcc_legs, gcc_parallel_legs, legacy_legs};
use matrix::{Engine, Entry, Expect, Leg, Text};
use pure_c::prelude::*;

/// What each checked-in example prints and returns, on every leg.
/// `spin.c`, `analysis/purity_holes.c` and the examples of
/// [`KNOWN_DIVERGENCES`] have entries of their own below.
const EXAMPLES: [(&str, &str, i64); 14] = [
    ("analysis/clean.c", "", 0),
    ("analysis/global_feedback.c", "", 99),
    ("analysis/infer_pure.c", "", 0),
    (
        "analysis/pointer_walk.c",
        "indexed 95515\nlt      95515\nle      95515\nne      95515\n",
        0,
    ),
    ("analysis/racy.c", "", 100),
    ("analysis/rowptr.c", "", 62),
    ("analysis/uninit.c", "", 1),
    ("churn.c", "", 53),
    ("effects.c", "144 55 28 18 4\n", 45),
    ("schedules/fig02_skew.c", "a=299759591197780213760.0\n", 0),
    ("schedules/fig03_matmul.c", "checksum=-1514496.0\n", 0),
    ("schedules/fig07_heat.c", "heat=143.750\n", 0),
    ("schedules/rowptr.c", "1\n", 0),
    ("scratch_pure.c", "total=199937\n", 58),
];

/// `entry` without GCC's tiled legs, for cost: a small hand-written
/// program's two tiled builds take 0.2 s of its 0.5 s, and tiling is
/// built on the examples, the apps and `loop_hints/*`.
fn untiled(entry: Entry) -> Entry {
    entry.skip(
        |leg| matches!(leg, Leg::Gcc(Text::Tile8 | Text::Tile32, _)),
        "cost: two tiled GCC builds, 0.2 s",
    )
}

/// `limits` with the memo off, as [`Entry::new`] has it.
fn limits(limits: InterpOptions) -> InterpOptions {
    InterpOptions {
        memo: false,
        ..limits
    }
}

fn trap(trap: Trap, message: &'static str, at: Option<&'static str>) -> Expect {
    let trap = Some(trap);
    Expect::Trap { trap, message, at }
}

fn example_entry(name: &str, source: String) -> Entry {
    if let Some(d) = KNOWN_DIVERGENCES.iter().find(|d| d.0 == name) {
        return divergence(d, source);
    }
    if name == "spin.c" {
        let fuel = limits(InterpOptions {
            fuel: Some(1000),
            ..Default::default()
        });
        return Entry::new(
            name,
            source,
            trap(Trap::FuelExhausted, "fuel exhausted", None),
        )
        .interp(fuel)
        .skip(gcc_legs, "spins forever natively");
    }
    if name == "analysis/purity_holes.c" {
        let codes = vec![Code::PureGlobalWrite, Code::PureStaticLocal];
        return Entry::new(name, source, Expect::Rejected(codes)).skip(
            |leg| matches!(leg, Leg::Gcc(Text::Original, _)),
            "`pure` is the chain's rule: with the keyword defined away GCC builds the program",
        );
    }
    let (_, stdout, exit_code) = EXAMPLES
        .iter()
        .find(|(n, ..)| *n == name)
        .unwrap_or_else(|| panic!("{name}: add its stdout and exit code to EXAMPLES"));
    let entry = Entry::output(name, source, stdout, *exit_code);
    match name {
        "analysis/racy.c" => entry.skip(
            gcc_parallel_legs,
            "OpenMP makes `t` shared: the racy corpus races under GCC at two threads",
        ),
        "analysis/global_feedback.c" => entry.skip(
            |leg| matches!(leg, Leg::Run(_, _, 4) | Leg::Traced) || gcc_parallel_legs(leg),
            "Listing 5 through a global: each iteration reads the cell the one before wrote",
        ),
        // As `purec --run --max-memory 100000`: 50 000 balanced
        // `malloc(256)`/`free` pairs under a cap below their 12.8 MB.
        "churn.c" => entry
            .interp(limits(InterpOptions { max_memory_bytes: Some(100_000), ..Default::default() }))
            .skip(
                |leg| engine_legs(leg) && !matches!(leg, Leg::Run(Engine::Vm(2), ..)),
                "cost: the other 12 engine legs take 4.8 s of the entry's 6 s; resource_limits::\
                 balanced_churn_completes_under_a_cap_below_its_cumulative_bytes runs the three engines",
            ),
        "scratch_pure.c" => entry.skip(
            |leg| engine_legs(leg) || matches!(leg, Leg::Gcc(Text::Tile8 | Text::Tile32, _)),
            "cost: 18 s an engine leg (310 s for the 17), 0.75 s a tiled text under GCC; \
             crates/purec/tests/cli.rs runs the binary on a tenth of it",
        ),
        "schedules/fig03_matmul.c" => entry.skip(
            |leg| engine_legs(leg) && *leg != Leg::Run(Engine::Vm(2), true, 4),
            "cost: the other 16 engine legs take 18 s (the VM's 0.3-0.5 s each, the legacy \
             walker's 2.5 s); app/matmul(16) is the same nest on every leg",
        ),
        _ => entry,
    }
}

/// GCC's output is the expectation; every engine leg shows `today`.
fn divergence(&(name, _, (stdout, code), item, today): &Divergence, source: String) -> Entry {
    let today = Expect::Output(today.0.into(), today.1);
    let why = "every engine disagrees with GCC";
    let entry = Entry::output(name, source, stdout, code).diverges(engine_legs, item, why, today);
    if name != "analysis/reduction.c" {
        return entry;
    }
    entry.skip(
        gcc_parallel_legs,
        "an unsynchronised `sum = sum + a[i]` is a data race under GCC at two threads",
    )
}

/// Every checked-in example.
pub fn examples() -> Vec<Entry> {
    example_programs()
        .into_iter()
        .map(|(name, source)| example_entry(&name, source))
        .collect()
}

pub fn apps() -> Vec<Entry> {
    vec![matmul(), heat(), satellite(), lama()]
}

/// matmul(16) prints the checksum the native Rust kernel computes.
pub fn matmul() -> Entry {
    let checksum = format!("checksum={:.1}\n", apps::matmul::c_source_checksum(16));
    Entry::output("app/matmul(16)", apps::matmul::c_source(16), &checksum, 0)
}

pub fn heat() -> Entry {
    let source = apps::heat::c_source(32, 10);
    Entry::output("app/heat(32,10)", source, "heat=235.007\n", 0).skip(
        legacy_legs,
        "cost: the legacy legs take 1.4 s of the entry's 2.9 s; \
         schedules/fig07_heat.c is the same stencil on every leg",
    )
}

pub fn satellite() -> Entry {
    let source = apps::satellite::c_source(16, 16);
    Entry::output("app/satellite(16,16)", source, "aod=77.091\n", 0)
}

pub fn lama() -> Entry {
    Entry::output(
        "app/lama(256,9)",
        apps::lama::c_source(256, 9),
        "spmv=855.050\n",
        0,
    )
}

pub fn blind_spot() -> Vec<Entry> {
    let entry = |&(name, source, stdout, _): &(&str, &str, &str, _)| {
        let code = stdout.trim().parse::<i64>().expect("a number");
        untiled(Entry::output(name, source, stdout, code))
    };
    BLIND_SPOT.iter().map(entry).collect()
}

pub fn braceless() -> Vec<Entry> {
    let entry = |&(name, source, stdout): &(&str, &str, &str)| {
        untiled(Entry::output(name, source, stdout, 0))
    };
    BRACELESS_OMP.iter().map(entry).collect()
}

pub fn operator_table() -> Entry {
    let stdout = OPERATOR_TABLE_STDOUT;
    untiled(Entry::output("operator_table.c", OPERATOR_TABLE, stdout, 3))
}

pub fn nested_omp() -> Entry {
    untiled(Entry::output("nested_omp.c", NESTED_OMP, "acc=2656.0\n", 0))
}

/// The entries no other group holds: the known divergences that are no
/// example, the user-pragma and loop-hint programs, the two-`schedule`
/// header and CI's programs.
pub fn rest() -> Vec<Entry> {
    let mut entries = Vec::new();
    for d in &KNOWN_DIVERGENCES {
        if let Some(source) = d.1 {
            entries.push(untiled(divergence(d, source.to_string())));
        }
    }
    for (name, source, stdout, _) in USER_PRAGMAS {
        entries.push(untiled(Entry::output(name, source, stdout, 0)));
    }
    for (name, hint) in LOOP_HINTS {
        entries.push(Entry::output(name, loop_hint_source(hint), "4032\n", 0));
    }
    let memo = InterpOptions::default();
    let two_schedules = Expect::Rejected(vec![Code::OmpDuplicateSchedule]);
    entries.extend([
        Entry::new("two_schedules.c", TWO_SCHEDULES, two_schedules),
        Entry::output("ci/fib_fut.c", FIB_FUT, "fib=17711\n", 0)
            .interp(memo)
            .skip(
                legacy_legs,
                "the legacy walker has no memo cache, which this entry is for: it makes all \
             57 313 calls, 1.7 s of the entry's 2 s",
            ),
        Entry::output("ci/tsum.c", TSUM, "tsum=458752\n", 0).skip(
            legacy_legs,
            "cost: 2 s a legacy leg (its 131 071 calls), 8 s of the entry's 11 s",
        ),
        untiled(Entry::output(
            "ci/collatz_evict.c",
            COLLATZ_EVICT,
            "acc=956852\n",
            40,
        ))
        .interp(memo)
        .skip(
            engine_legs,
            "cost: 4.5 s an engine leg; crates/purec/tests/cli.rs runs it through the binary \
             at two threads, with the memo (evicting) and without",
        ),
        untiled(Entry::output(
            "ci/poly_mm.c",
            POLY_MM,
            "checksum=-18176.0\n",
            0,
        ))
        .skip(
            legacy_legs,
            "cost: the legacy legs take 1.1 s of the entry's 2.3 s; \
             app/matmul(16) is a product nest on every leg",
        ),
        Entry::output("ci/poly_literal.c", POLY_LITERAL, "3008\n", 0),
    ]);
    entries
}

/// [`INFINITE_LOOP`] under a 10 000-dispatch budget.
pub fn infinite_loop() -> Entry {
    let fuel = limits(InterpOptions {
        fuel: Some(10_000),
        ..Default::default()
    });
    let spins = trap(Trap::FuelExhausted, "fuel exhausted", None);
    Entry::new("limits/infinite_loop.c", INFINITE_LOOP, spins)
        .interp(fuel)
        .skip(gcc_legs, "spins forever natively")
}

/// [`ALLOC_BOMB`] under a 1 MiB cap.
pub fn alloc_bomb() -> Entry {
    let memory = limits(InterpOptions {
        max_memory_bytes: Some(1 << 20),
        ..Default::default()
    });
    let out_of = |at| trap(Trap::MemoryLimit, "memory limit exceeded", Some(at));
    Entry::new("limits/alloc_bomb.c", ALLOC_BOMB, out_of("malloc(4096"))
        .interp(memory)
        .diverges(
            |leg| matches!(leg, Leg::Run(Engine::Vm(_), ..) | Leg::Traced),
            "V",
            "the VM puts the trap at the statement after the allocation",
            out_of("p[0] = i"),
        )
        .skip(gcc_legs, "allocates 16 GB natively")
}

/// [`DEEP_RECURSION`] under a 2 000-call cap.
pub fn deep_recursion() -> Entry {
    let depth = limits(InterpOptions {
        max_call_depth: Some(2_000),
        ..Default::default()
    });
    let too_deep = trap(
        Trap::DepthLimit,
        "call depth limit exceeded",
        Some("rec(n - 1)"),
    );
    Entry::new("limits/deep_recursion.c", DEEP_RECURSION, too_deep)
        .interp(depth)
        .skip(
            gcc_legs,
            "a call depth limit is the interpreter's: natively the stack decides",
        )
}

/// What [`OPERATOR_TABLE`] prints under GCC 12 and on every engine.
const OPERATOR_TABLE_STDOUT: &str = "\
int   10 4 21 2 1
neg   -2 -1 -4 7
bits  56 3 3 4 7 -8
cmp   0 1 0 1 0 1
logic 1 0 1 0 0
wide  844424930131982 281474976710652 1688849860263951 1 281474976710652
wbits 70368744177664 1125899906842660 1 844424930131980 844424930131981
wcmp  0 1 0 1 0 1
mixed 562949953421324 1688849860263951 1 0
float 3.000000 2.000000 1.250000 5.000000 -2.500000
fcmp  0 1 0 1 0 1
fint  9.500000 4.500000 6.000000 1 0
ptr   4 4 1 3
pcmp  1 0 1 0 0 1
pself 0 1 1 1
deref 4 16 9
fmt   ff 7|10|FF|4294967289|4464 -56 65529|2000000000005 18446462598732840951 10000000000000011
fmt   [   42] [7   |] [1e+20] [00003] [   3.142] [0.0001] [ab|    cd]
fmt   [+7] [-7] [003] [0xff] [+2.5  |] [he] [  -7] [5.629500e+14] [1E-10] [0.833]
step  8 2 562949953421318 3.500000 3 4
";
