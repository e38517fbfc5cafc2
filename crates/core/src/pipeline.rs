//! PC-CC orchestration: the syntactical + semantical analysis stage of the
//! extended compiler chain (Fig. 1), from raw source text to a marked,
//! substituted translation unit ready for the polyhedral transformer.
//!
//! ```text
//! C file ─PC-PrePro/GCC-E─► preprocess ─► parse ─► purity verify
//!        ─► SCoP marking ─► pure-call substitution ─► (polycc …)
//! ```
//!
//! The inverse stages ([`finish`]) run after the polyhedral transformer:
//! placeholder reinsertion with iterator adaptation, `pure` lowering, and
//! PC-PosPro (system include reinsertion).

use crate::lower::{lower_pure, LowerStats};
use crate::purity::{verify_unit, PurityReport};
use crate::scop::{mark_scops, ScopReport};
use crate::stdfns::PureSet;
use crate::subst::{reinsert_calls, substitute_calls, SubstMap};
use cfront::ast::TranslationUnit;
use cfront::diag::{Code, Diagnostics};
use cfront::parser::parse;
use cfront::printer::print_unit;
use cprep::{postprocess, preprocess, IncludeMap};
use std::collections::HashMap;

/// Everything PC-CC produces for the downstream stages.
#[derive(Debug)]
pub struct PcCcOutput {
    /// Unit with scop markers and `tmpConst_*` placeholders.
    pub unit: TranslationUnit,
    /// Verified pure registry (builtins + user functions).
    pub pure_set: PureSet,
    /// Placeholder → original call map.
    pub subst: SubstMap,
    /// System includes stripped by PC-PrePro, for PC-PosPro.
    pub system_includes: Vec<String>,
    /// Number of scop regions marked / loops skipped as impure.
    pub scops_marked: usize,
    pub loops_skipped_impure: usize,
    /// Functions declared pure in source order.
    pub declared_pure: Vec<String>,
    /// All diagnostics (warnings/notes) from successful runs.
    pub diags: Diagnostics,
}

/// Purity verdicts as the set of user-function names the interpreter
/// consumes (`cinterp::Program::with_pure_set`). A successful PC-CC run
/// means every declared-pure function *verified*, so downstream stages
/// may apply pure-call optimizations (e.g. the interpreter's memo cache)
/// to exactly these names. Single source of truth for that contract —
/// `PcCcOutput::verified_pure_set` and `purec`'s `ChainOutput` both
/// delegate here.
pub fn verified_pure_set(declared_pure: &[String]) -> std::collections::HashSet<String> {
    declared_pure.iter().cloned().collect()
}

impl PcCcOutput {
    /// See [`verified_pure_set`].
    pub fn verified_pure_set(&self) -> std::collections::HashSet<String> {
        verified_pure_set(&self.declared_pure)
    }
}

/// Options for the PC-CC stage.
#[derive(Debug, Clone)]
pub struct PcCcOptions {
    /// The seeded registry; swap in [`PureSet::seeded_without_alloc`] for
    /// ablation A1.
    pub seed: PureSet,
    /// Local headers visible to `#include "..."`.
    pub includes: IncludeMap,
    /// Treat *inferred*-pure functions as verified: after declared-pure
    /// verification, run [`crate::purity::infer_pure`] and add the
    /// survivors to the pure set / `declared_pure`, widening memoization,
    /// spawn and SCoP eligibility to unannotated functions that happen to
    /// satisfy the PC-CC rules. Off by default (the paper's contract is
    /// opt-in `pure`); differential-tested against the default.
    pub infer_pure: bool,
}

impl Default for PcCcOptions {
    fn default() -> Self {
        PcCcOptions {
            seed: PureSet::seeded(),
            includes: IncludeMap::new(),
            infer_pure: false,
        }
    }
}

/// Run PC-PrePro + GCC-E + PC-CC. Errors abort with the collected
/// diagnostics, mirroring a compiler error exit.
pub fn run_pc_cc(source: &str, opts: PcCcOptions) -> Result<PcCcOutput, Diagnostics> {
    // Preprocess.
    let pp = preprocess(source, &opts.includes);
    if pp.diags.has_errors() {
        return Err(pp.diags);
    }
    let mut diags = pp.diags;

    // Parse.
    let parsed = parse(&pp.text);
    if parsed.diags.has_errors() {
        diags.extend(parsed.diags);
        return Err(diags);
    }
    diags.extend(parsed.diags);
    let mut unit = parsed.unit;

    // Purity verification.
    let PurityReport {
        mut pure_set,
        diags: purity_diags,
        mut declared_pure,
        mut global_reads,
    } = verify_unit(&unit, opts.seed);
    if purity_diags.has_errors() {
        diags.extend(purity_diags);
        return Err(diags);
    }
    diags.extend(purity_diags);

    // Optional speculative inference: unannotated functions that pass the
    // PC-CC rules join the verified set (and therefore the memo/spawn
    // contract via `verified_pure_set`).
    if opts.infer_pure {
        let inferred = crate::purity::infer_pure(&unit, &pure_set).inferred;
        for name in inferred {
            let span = unit
                .find_function(&name)
                .map(|f| f.span)
                .unwrap_or_default();
            diags.note(
                Code::PureInferrable,
                span,
                format!("function '{name}' verified as pure by inference"),
            );
            pure_set.insert(name.clone());
            declared_pure.push(name);
        }
        // The inferred functions' reads were not part of the report.
        global_reads = crate::purity::global_reads(&unit, &pure_set);
    }

    // SCoP marking (includes the Listing-5 caller-side check).
    let ScopReport {
        marked,
        skipped_impure,
        diags: scop_diags,
    } = mark_scops(&mut unit, &pure_set, &global_reads);
    if scop_diags.has_errors() {
        diags.extend(scop_diags);
        return Err(diags);
    }
    diags.extend(scop_diags);

    // Pure-call substitution for the polyhedral stage.
    let subst = substitute_calls(&mut unit, &pure_set);

    Ok(PcCcOutput {
        unit,
        pure_set,
        subst,
        system_includes: pp.system_includes,
        scops_marked: marked,
        loops_skipped_impure: skipped_impure,
        declared_pure,
        diags,
    })
}

/// Result of [`finish`].
#[derive(Debug)]
pub struct FinishedProgram {
    /// Final C text (standard C: `pure` lowered, includes restored).
    pub text: String,
    /// The lowered unit (for interpretation / inspection).
    pub unit: TranslationUnit,
    pub lower_stats: LowerStats,
    pub calls_reinserted: usize,
}

/// Post-polyhedral stages: reinsert substituted calls (adapting iterator
/// names via `iter_map`), lower `pure` to standard C, pretty-print, and
/// reattach system includes (PC-PosPro).
pub fn finish(
    mut unit: TranslationUnit,
    subst: &SubstMap,
    iter_map: &HashMap<String, cfront::ast::Expr>,
    system_includes: &[String],
) -> FinishedProgram {
    let calls_reinserted = reinsert_calls(&mut unit, subst, |_| Some(iter_map));
    let lower_stats = lower_pure(&mut unit);
    let body = print_unit(&unit);
    let text = postprocess(&body, system_includes);
    FinishedProgram {
        text,
        unit,
        lower_stats,
        calls_reinserted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MATMUL_SRC: &str = "\
#include <stdio.h>
#include <stdlib.h>
#define N 64

float **A, **Bt, **C;

pure float mult(float a, float b) {
    return a * b;
}

pure float dot(pure float* a, pure float* b, int size) {
    float res = 0.0f;
    for (int i = 0; i < size; ++i)
        res += mult(a[i], b[i]);
    return res;
}

int main(int argc, char** argv) {
    for (int i = 0; i < N; ++i)
        for (int j = 0; j < N; ++j)
            C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], N);
    return 0;
}
";

    #[test]
    fn full_pc_cc_on_matmul() {
        let out = run_pc_cc(MATMUL_SRC, PcCcOptions::default()).expect("pipeline ok");
        assert_eq!(out.system_includes, vec!["stdio.h", "stdlib.h"]);
        assert_eq!(out.declared_pure, vec!["mult", "dot"]);
        // Two scops: the dot-loop in main and the accumulate loop in `dot`
        // itself (it calls only pure `mult`).
        assert!(out.scops_marked >= 1);
        assert!(!out.subst.is_empty());
        assert!(out.pure_set.contains("dot"));
    }

    #[test]
    fn finish_produces_standard_c() {
        let out = run_pc_cc(MATMUL_SRC, PcCcOptions::default()).unwrap();
        let finished = finish(out.unit, &out.subst, &HashMap::new(), &out.system_includes);
        assert!(finished.text.starts_with("#include <stdio.h>"));
        assert!(!finished.text.contains("pure "), "{}", finished.text);
        assert!(!finished.text.contains("tmpConst_"), "{}", finished.text);
        assert!(finished.calls_reinserted >= 1);
        // The result must be reparseable standard C.
        let reparsed = cfront::parser::parse(&finished.text);
        assert!(
            !reparsed.diags.has_errors(),
            "{}",
            reparsed.diags.render_all(&finished.text)
        );
    }

    #[test]
    fn pipeline_rejects_impure_violation() {
        let src = "\
int counter;
pure int bad(int x) { counter = x; return x; }
int main() { return 0; }
";
        let err = run_pc_cc(src, PcCcOptions::default()).unwrap_err();
        assert!(err.has_errors());
    }

    #[test]
    fn pipeline_rejects_listing5() {
        let src = "\
pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }
int main() {
    int array[100];
    for (int i = 1; i < 100; i++)
        array[i] = func((pure int*)array, i);
    return 0;
}
";
        let err = run_pc_cc(src, PcCcOptions::default()).unwrap_err();
        assert!(err.has_code(cfront::diag::Code::PureParamWrittenInLoop));
    }

    #[test]
    fn ablation_seed_changes_marking() {
        let src = "\
float** A;
int main() {
    for (int i = 0; i < 8; i++) A[i] = (float*) malloc(8);
    return 0;
}
";
        let with = run_pc_cc(src, PcCcOptions::default()).unwrap();
        assert_eq!(with.scops_marked, 1);
        let without = run_pc_cc(
            src,
            PcCcOptions {
                seed: PureSet::seeded_without_alloc(),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(without.scops_marked, 0);
    }

    #[test]
    fn macros_resolve_before_analysis() {
        let out = run_pc_cc(MATMUL_SRC, PcCcOptions::default()).unwrap();
        let text = print_unit(&out.unit);
        assert!(text.contains("64"), "{text}");
        assert!(!text.contains("N)"), "macro N must be expanded: {text}");
    }
}
