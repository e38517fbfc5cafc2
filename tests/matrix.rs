//! Every program of the corpus on every leg of the differential class
//! (`tests/support/matrix.rs`): the checked-in examples, the constants
//! of `tests/support/corpus.rs` and the paper's four applications, each
//! on the three engines, the optimizer on and off, the poly and literal
//! builds, one and four threads, traced, and under GCC. The entries are
//! `tests/support/entries.rs`'s; this test runs the examples and the
//! group no other test runs (the apps, the blind-spot and braceless
//! programs, the operator table, the nested pragma and the trap programs
//! run under `chain_integration`, `gcc_oracle`, `poly_differential` and
//! `resource_limits`). The table is printed on every run; `--
//! --nocapture` shows it. A leg subset taken for cost states the time
//! the skipped legs took in a debug build on a 2-CPU host.

#[path = "support/matrix.rs"]
mod matrix;

#[path = "support/entries.rs"]
mod entries;

#[test]
fn every_program_meets_every_leg() {
    let mut entries = entries::examples();
    entries.extend(entries::rest());
    matrix::run(entries, |_| true);
}

include!("support/corpus.rs");
