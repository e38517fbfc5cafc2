//! # polyhedral — a PluTo-style polyhedral loop transformer
//!
//! Substrate crate reproducing the parallelization back end of
//! *Pure Functions in C* (Süß et al.): the role played by
//! PluTo + Clan + ClooG + ISL in the original compiler chain.
//!
//! Pipeline: [`extract`] builds the SCoP model from a marked loop nest,
//! [`deps`] computes dependence polyhedra and distance bounds via
//! Fourier–Motzkin ([`fourier_motzkin`]), [`schedule`] searches legal
//! permutable hyperplane bands (skewing when needed — the paper's Fig. 2),
//! [`codegen`] emits the transformed (optionally tiled) nest with its
//! OpenMP pragma, and [`polycc`] drives the whole stage over the loop
//! nests PC-CC flagged as SCoPs.

pub mod affine;
pub mod codegen;
pub mod deps;
pub mod extract;
pub mod fourier_motzkin;
pub mod model;
pub mod polycc;
pub mod schedule;
pub mod set;

pub use affine::AffineExpr;
pub use codegen::{generate, Generated};
pub use deps::{analyze, parallel_levels, DepAnalysis, DepKind, Dependence, DistBound};
pub use extract::{extract_scop, IterTypes};
pub use model::{Access, LoopDim, PolyStmt, Scop};
pub use polycc::{
    hoist_row_pointers, run_polycc, transform_regions, PolyccOptions, PolyccReport, RegionOutcome,
};
pub use schedule::{compute_schedule, Transform};
pub use set::{Constraint, ConstraintSystem, Rel};
