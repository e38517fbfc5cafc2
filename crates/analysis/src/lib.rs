//! # analysis — static race & purity analyzer (`purec check`)
//!
//! Runs over one translation unit and produces
//! [`cfront::diag::Diagnostic`]s with stable codes. `purec check` gives
//! it the source as written; the chain gives it the unit polycc
//! transformed, with the pure calls reinserted and before invariant rows
//! are hoisted, so every loop is judged by the subscripts the transform
//! produced:
//!
//! 1. **Static race detection** ([`race`]) for `#pragma omp parallel for`
//!    bodies. Variables are classified iteration-private (loop iterators,
//!    `private(...)` clause entries, body-declared locals) vs shared;
//!    shared scalar writes that are not reduction-shaped are flagged as
//!    definite races ([`Code::RaceSharedWrite`]); affine array subscripts
//!    go through the [`polyhedral`] dependence test and a level-0-carried
//!    dependence is a definite race ([`Code::RaceLoopCarried`]); anything
//!    non-affine degrades to a conservative warning
//!    ([`Code::RaceUnprovable`]). Each analyzed loop gets a three-valued
//!    [`LoopVerdict`]: the engines skip the O(n) dynamic race pre-pass
//!    entirely for `Independent` loops, hard-error on `Racy` ones under
//!    `--race-check`, and fall back to the dynamic check for `Unknown`.
//! 2. **Purity inference** — [`purec_core::infer_pure`] run speculatively
//!    over unannotated functions; inferable ones get a note-level "could
//!    be declared pure" diagnostic ([`Code::PureInferrable`]), blocked
//!    ones a note with the blocking reason
//!    ([`Code::PureInferenceBlocked`]).
//! 3. **Dataflow lints** ([`lints`]) — definite-assignment
//!    ([`Code::LintUninitRead`]), unused variables
//!    ([`Code::LintUnusedVar`]) and dead stores ([`Code::LintDeadStore`]),
//!    all tuned for zero false positives over the repo's corpus: anything
//!    shadowed, address-taken, aggregate or control-flow-dependent in a
//!    way the straight-line walk cannot prove is simply skipped.
//!
//! The crate is deliberately independent of `cinterp`: the verdict type
//! is `cfront`'s, which both crates share, so `purec` hands the
//! analyzer's verdicts to the engines as they are.

pub mod lints;
pub mod race;

use cfront::ast::{LoopId, TranslationUnit};
use cfront::diag::{Code, Diagnostics};
use purec_core::PureSet;

pub use cfront::ast::LoopVerdict;

/// Per-loop result. The chain numbers the unit's loops before it analyzes
/// them, and row hoisting and `pure` lowering move loops without renumbering
/// them, so `id` names the same loop in the unit the engines lower.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// The `for` statement's [`LoopId`] (`LoopId::NONE` in a unit that was
    /// never numbered).
    pub id: LoopId,
    pub verdict: LoopVerdict,
}

/// What to run. Race analysis and lints always run; inference notes
/// are opt-in because they are advisory (`purec check --infer-pure`).
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// Emit [`Code::PureInferrable`] / [`Code::PureInferenceBlocked`]
    /// notes for unannotated functions.
    pub infer_pure: bool,
}

/// Everything the analyzer produces in one pass.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// All diagnostics, in source order per pass.
    pub diags: Diagnostics,
    /// One entry per analyzed `omp parallel for` loop.
    pub loops: Vec<LoopReport>,
    /// Functions that could be declared `pure` as written (only
    /// populated when [`AnalysisOptions::infer_pure`] is set).
    pub inferred_pure: Vec<String>,
    /// Full Fourier–Motzkin elimination passes the dependence tests took
    /// (see [`polyhedral::DepAnalysis`]) — the pass's exact work count.
    pub fm_solves: usize,
}

/// Run the full analysis over a translation unit. `pure_set` is the
/// verified registry (builtins + declared-pure user functions) the race
/// analyzer uses to discount side-effect-free calls.
pub fn analyze_unit(
    unit: &TranslationUnit,
    pure_set: &PureSet,
    opts: &AnalysisOptions,
) -> AnalysisReport {
    let mut report = AnalysisReport::default();

    // `unit` may be the lowered text, where `pure` is gone: what each
    // pure function reads through a global is re-derived by name.
    let reads = purec_core::global_reads(unit, pure_set);
    let globals = polyhedral::IterTypes::of_globals(unit);
    for f in unit.functions() {
        race::analyze_function(f, &globals.in_function(f), pure_set, &reads, &mut report);
    }

    if opts.infer_pure {
        let inf = purec_core::infer_pure(unit, pure_set);
        for name in &inf.inferred {
            let span = unit.find_function(name).map(|f| f.span).unwrap_or_default();
            report.diags.note(
                Code::PureInferrable,
                span,
                format!("function '{name}' could be declared pure (passes all PC-CC rules)"),
            );
        }
        for (name, why) in &inf.blocked {
            report.diags.note(
                Code::PureInferenceBlocked,
                why.span,
                format!("function '{name}' cannot be pure: {}", why.message),
            );
        }
        report.inferred_pure = inf.inferred;
    }

    for f in unit.functions() {
        if f.is_definition() {
            lints::lint_function(f, unit, &mut report.diags);
        }
    }

    report
}
