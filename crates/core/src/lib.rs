//! # purec-core — the paper's contribution: verified `pure` functions for C
//!
//! This crate implements the compiler pass of *Pure Functions in C: A Small
//! Keyword for Automatic Parallelization* (Süß et al.): a semantic analysis
//! that **verifies** `pure`-marked functions are side-effect-free (unlike
//! GCC's advisory `__attribute__((pure))`), flags parallelizable loop nests
//! as SCoPs, substitutes pure calls by constants so a polyhedral
//! transformer can handle the loops, and finally lowers the extension back
//! to standard C.
//!
//! Pipeline stages (Fig. 1 of the paper):
//!
//! | Stage | Module | Paper name |
//! |-------|--------|------------|
//! | strip system includes | [`cprep`] | PC-PrePro |
//! | resolve includes/macros | [`cprep`] | GCC -E |
//! | purity verification | [`purity`] | PC-CC |
//! | SCoP marking + the model's assumptions (Listing 5) | [`scop`] | PC-CC |
//! | call substitution | [`subst`] | PC-CC |
//! | *(polyhedral transform — crate `polyhedral`)* | — | polycc |
//! | call reinsertion + lowering | [`subst`], [`lower`] | PC-CC |
//! | reinsert system includes | [`cprep`] | PC-PosPro |
//!
//! ```
//! use purec_core::pipeline::{run_pc_cc, PcCcOptions};
//!
//! let src = "
//! pure float mult(float a, float b) { return a * b; }
//! int main() {
//!     float acc[16];
//!     for (int i = 0; i < 16; i++) acc[i] = mult(i, 2.0f);
//!     return 0;
//! }";
//! let out = run_pc_cc(src, PcCcOptions::default()).unwrap();
//! assert!(out.pure_set.contains("mult"));
//! assert_eq!(out.scops_marked, 1);
//! ```

pub mod lower;
pub mod pipeline;
pub mod purity;
pub mod scop;
pub mod stdfns;
pub mod subst;

pub use lower::{lower_pure, LowerStats};
pub use pipeline::{
    finish, run_pc_cc, verified_pure_set, FinishedProgram, PcCcOptions, PcCcOutput,
};
pub use purity::{
    global_reads, infer_pure, verify_unit, GlobalReads, InferenceReport, PurityReport,
};
pub use scop::{
    mark_scops, nest_hazards, pure_call_read_bases, unverified_calls, AliasGroups, Hazard,
    ScopReport,
};
pub use stdfns::{PureSet, ALLOC_FNS, PURE_STDLIB};
pub use subst::{reinsert_calls, rename_iterators, substitute_calls, SubstMap};
