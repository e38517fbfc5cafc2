//! GCC, the compiler the paper hands its output to, as the oracle: the
//! GCC legs of some groups of the differential matrix
//! (`tests/support/entries.rs`). Each builds a text with `cc -std=c11
//! -O1 -fopenmp -Werror=unknown-pragmas` and runs it at
//! `OMP_NUM_THREADS` 1, 2 and 4 against the stdout and exit code every
//! engine leg meets. Without `cc` on the host the GCC legs do not run and
//! these tests check nothing but the texts' pragmas.

#[path = "support/matrix.rs"]
mod matrix;

#[path = "support/entries.rs"]
mod entries;

use matrix::{gcc_legs, Leg, Text};
use pure_c::prelude::*;

/// [`OPERATOR_TABLE`] and [`NESTED_OMP`] on every leg: the default text
/// and the `-Dpure=` original under GCC print what the engines print.
#[test]
fn emitted_text_and_original_source_agree_with_the_vm_under_cc() {
    let entries = vec![entries::operator_table(), entries::nested_omp()];
    matrix::run(entries, |_| true);
}

/// The `--tile 8` and `--tile 32` builds of the four apps and the
/// `schedules/` examples print what their untiled runs print on the VM
/// at two threads (no engine leg runs a tiled build), and the apps'
/// tiled texts do under GCC, with every pragma heading its loop. (The
/// examples' tiled texts are `tests/matrix.rs`'s.)
#[test]
fn every_tiling_builds_and_agrees_with_the_vm_under_cc() {
    let mut entries = entries::examples();
    entries.retain(|e| e.name.starts_with("schedules/"));
    entries.extend(entries::apps());
    for entry in &entries {
        for tile in [8, 32] {
            let mut opts = ChainOptions::default();
            opts.polycc.tile = Some(tile);
            let two = InterpOptions {
                threads: 2,
                ..Default::default()
            };
            let (_, run) = compile_and_run(&entry.source, opts, two).expect("tiled build runs");
            let seen = matrix::Expect::Output(run.output, run.exit_code);
            assert_eq!(seen, entry.expect, "{}, tile {tile}", entry.name);
        }
    }
    let tiled = |leg: &Leg| matches!(leg, Leg::Gcc(Text::Tile8 | Text::Tile32, _));
    matrix::run(entries::apps(), tiled);
}

/// The literal (`--no-poly`) text of the four apps is standard C too:
/// it builds under `-Werror=unknown-pragmas` and prints the recorded
/// output.
#[test]
fn no_poly_text_builds_clean_and_agrees_with_the_vm_under_cc() {
    let no_poly = |leg: &Leg| matches!(leg, Leg::Gcc(Text::NoPoly, _));
    matrix::run(entries::apps(), no_poly);
}

/// The [`BLIND_SPOT`] programs' texts (default, `--no-poly`, original)
/// under GCC print what their literal build prints.
#[test]
fn blind_spot_text_agrees_with_the_literal_build_under_cc() {
    matrix::run(entries::blind_spot(), gcc_legs);
}

/// A braceless `omp parallel for` body ([`BRACELESS_OMP`]) stays inside
/// its `if`/`for` in the text GCC builds.
#[test]
fn braceless_parallel_bodies_agree_with_gcc() {
    matrix::run(entries::braceless(), gcc_legs);
}

include!("support/corpus.rs");
