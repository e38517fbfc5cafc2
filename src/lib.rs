//! # pure-c — *Pure Functions in C: A Small Keyword for Automatic
//! Parallelization*, reproduced in Rust
//!
//! A from-scratch reproduction of the compiler chain of Süß et al.
//! (CLUSTER 2017 / IJPP 2020): the `pure` keyword for C, a verifying
//! purity pass, a PluTo-style polyhedral parallelizer, a mini OpenMP
//! runtime, a C interpreter for validation, the machine model of the
//! paper's 4×Opteron-6272 testbed, and the four evaluation applications.
//!
//! ```
//! use pure_c::prelude::*;
//!
//! let src = "
//! pure float mult(float a, float b) { return a * b; }
//! int main() {
//!     float* acc = (float*) malloc(64 * sizeof(float));
//!     for (int i = 0; i < 64; i++) acc[i] = mult(i, 2.0f);
//!     return 0;
//! }";
//! let out = compile(src, ChainOptions::default()).unwrap();
//! assert!(out.text.contains("#pragma omp parallel for"));
//! assert!(!out.text.contains("pure"));
//! ```
//!
//! See `README.md` for the system inventory and the flag reference,
//! `BENCHMARK.json` with `purebench/README.md` for the end-to-end and
//! per-layer measurements (`cargo run --release --example figures`
//! prints the paper's Figs. 3–11); `BENCH_interp.json` is the frozen
//! interpreter trajectory of PRs 1–10, which nothing appends to.

pub use apps;
pub use cfront;
pub use cinterp;
pub use cprep;
pub use machine;
pub use polyhedral;
pub use purec_core;

/// The most common entry points, re-exported flat.
pub mod prelude {
    pub use apps::{all_figures, Figure, Series, CORES};
    pub use cfront::{parse, print_unit, Diagnostics};
    pub use cinterp::{InterpOptions, Program, Trap};
    pub use machine::{parallel_for_pooled, Machine, OmpSchedule};
    pub use polyhedral::PolyccOptions;
    pub use purec::chain::{compile, compile_and_run, ChainOptions};
    pub use purec_core::{run_pc_cc, PcCcOptions, PureSet};
}
