//! The complete extended compiler chain (paper Fig. 1), assembled:
//!
//! ```text
//! source ─PC-PrePro/GCC-E─► purec_core::run_pc_cc   (verify + mark + subst)
//!        ─polycc──────────► polyhedral::transform_regions (analyze + transform)
//!        ─PC-CC⁻¹─────────► reinsert calls (adapted iterators), number loops
//!        ─race analysis───► analysis::analyze_unit  (one verdict per loop id)
//!        ─polycc──────────► polyhedral::hoist_row_pointers
//!        ─lower───────────► pure → const / removed ──► unit ──► engines
//!        ─PC-PosPro───────► print + system includes ──► text ──► GCC
//! ```
//!
//! The result is standard C with OpenMP pragmas, plus everything needed to
//! *run* it: the unit the text is printed from executes on the interpreter
//! with the omprt parallel runtime, and nothing reads the text back.

use analysis::AnalysisOptions;
use cfront::ast::TranslationUnit;
use cfront::diag::Diagnostics;
use cinterp::{InterpOptions, Program, RunResult, RuntimeError, VerdictMap};
use polyhedral::{
    hoist_row_pointers, transform_regions, PolyccOptions, PolyccReport, RegionOutcome,
};
use purec_core::{finish, run_pc_cc, PcCcOptions};
use std::collections::HashMap;

/// Options for a full chain run.
#[derive(Debug, Clone, Default)]
pub struct ChainOptions {
    pub pc_cc: PcCcOptions,
    pub polycc: PolyccOptions,
    /// Skip the polyhedral stage entirely (`--no-poly`): every loop
    /// executes literally, and lowering clears the SCoP flags PC-CC set.
    pub no_poly: bool,
}

/// Everything the chain produced.
#[derive(Debug)]
pub struct ChainOutput {
    /// Final standard-C text (what would be handed to GCC), printed from
    /// `unit`.
    pub text: String,
    /// The final unit, which the interpreter executes as it is.
    pub unit: TranslationUnit,
    /// Functions verified pure, in declaration order.
    pub declared_pure: Vec<String>,
    /// Nests PC-CC flagged as SCoPs: every call verified pure, and none
    /// of the hazards of the per-name model ([`purec_core::nest_hazards`]).
    pub scops_marked: usize,
    pub regions_transformed: usize,
    pub regions_parallelized: usize,
    pub regions_skewed: usize,
    pub regions_tiled: usize,
    /// Invariant row pointers strength-reduced out of inner loops
    /// (`T* __pc_rowK = X[e];` hoisted to the level where `e` settles).
    pub rows_hoisted: usize,
    /// Full Fourier–Motzkin elimination passes of this compile: polycc's
    /// dependence analyses plus the race analyzer's — the exact work
    /// count of the two stages (see [`polyhedral::DepAnalysis`]).
    pub fm_solves: usize,
    /// One human-readable line per region outcome — the transform matrix,
    /// band width and per-region flags — for `--dump-schedule`.
    pub schedules: Vec<String>,
    pub calls_reinserted: usize,
    /// Non-fatal diagnostics accumulated across stages.
    pub diags: Diagnostics,
    /// Static race verdicts for every `omp parallel for` in `unit`, keyed
    /// by the `for` statement's [`cfront::ast::LoopId`]. `Independent` lets
    /// the engines skip the dynamic race pre-pass; `Racy` is a hard error
    /// under `--race-check`; `Unknown` falls back to the dynamic check.
    pub verdicts: VerdictMap,
}

/// Run the whole chain on annotated C source.
///
/// When a [`cinterp::TraceSession`] is active, each pipeline phase is
/// recorded as a span (`phase.parse`, `phase.opt`, `phase.lower`,
/// `phase.analysis`) so compile time shows up alongside run time in the
/// exported Chrome trace.
pub fn compile(source: &str, opts: ChainOptions) -> Result<ChainOutput, Diagnostics> {
    use cinterp::trace::instrument;

    // PC-PrePro + GCC-E + PC-CC.
    let parse_span = instrument::span("phase.parse", source.len() as u64);
    let pcc = run_pc_cc(source, opts.pc_cc)?;
    drop(parse_span);
    let mut diags = pcc.diags;
    let mut unit = pcc.unit;

    // polycc, first half: model, schedule and replace the regions.
    let opt_span = instrument::span("phase.opt", 0);
    let mut report = if opts.no_poly {
        PolyccReport::default()
    } else {
        transform_regions(&mut unit, opts.polycc)
    };
    drop(opt_span);
    diags.extend(std::mem::take(&mut report.diags));

    let regions_transformed = report.transformed_count();
    let regions_parallelized = report.parallelized_count();
    let regions_skewed = report
        .regions
        .iter()
        .filter(|r| matches!(r, RegionOutcome::Transformed { skewed: true, .. }))
        .count();
    let regions_tiled = report.tiled_count();
    let schedules = render_schedules(&report);

    // Reinsert placeholders per region with that region's iterator map;
    // anything not covered by a transformed region maps identically. Then
    // number the loops: the passes below move loops but never clone them,
    // so an id names one loop from the analysis to the engines.
    let lower_span = instrument::span("phase.lower", 0);
    let per_placeholder = report.placeholder_iter_maps();
    let calls_reinserted =
        purec_core::reinsert_calls(&mut unit, &pcc.subst, |p| per_placeholder.get(p));
    cfront::visit::number_loops(&mut unit);
    drop(lower_span);

    // Static race analysis + lints, on the transformed unit with its pure
    // calls back and before any row is hoisted: each loop is judged once,
    // by the subscripts the transform produced, not through the
    // `__pc_rowK` pointers that rename them below. The diagnostics are
    // advisory at compile time; Racy verdicts only become hard errors
    // under `--race-check` at run time.
    let analysis_span = instrument::span("phase.analysis", 0);
    let analysis = analysis::analyze_unit(&unit, &pcc.pure_set, &AnalysisOptions::default());
    drop(analysis_span);
    diags.extend(analysis.diags);
    let verdicts = analysis.loops.iter().map(|l| (l.id, l.verdict)).collect();

    // polycc, second half: strength-reduce invariant rows.
    if !opts.no_poly {
        let _opt_span = instrument::span("phase.opt", 0);
        hoist_row_pointers(&mut unit, &mut report);
    }

    // Lowering + PC-PosPro (via purec_core::finish with an empty global
    // map — all placeholders were already handled above).
    let lower_span = instrument::span("phase.lower", 0);
    let finished = finish(unit, &pcc.subst, &HashMap::new(), &pcc.system_includes);
    drop(lower_span);

    Ok(ChainOutput {
        text: finished.text,
        unit: finished.unit,
        declared_pure: pcc.declared_pure,
        scops_marked: pcc.scops_marked,
        regions_transformed,
        regions_parallelized,
        regions_skewed,
        regions_tiled,
        rows_hoisted: report.rows_hoisted,
        fm_solves: report.fm_solves + analysis.fm_solves,
        schedules,
        calls_reinserted,
        diags,
        verdicts,
    })
}

/// Render one summary line per region outcome for `--dump-schedule`.
fn render_schedules(report: &PolyccReport) -> Vec<String> {
    report
        .regions
        .iter()
        .enumerate()
        .map(|(k, r)| match r {
            RegionOutcome::Transformed {
                depth,
                parallelized,
                tiled,
                skewed,
                transform,
                ..
            } => {
                let rows: Vec<String> = transform
                    .matrix
                    .iter()
                    .map(|row| {
                        let cells: Vec<String> = row.iter().map(i64::to_string).collect();
                        format!("[{}]", cells.join(","))
                    })
                    .collect();
                format!(
                    "region {k}: depth={depth} schedule=[{}] band={}{}{}{}",
                    rows.join(" "),
                    transform.band,
                    if *parallelized {
                        " parallel"
                    } else {
                        " sequential"
                    },
                    if *tiled { " tiled" } else { "" },
                    if *skewed { " skewed" } else { "" },
                )
            }
            RegionOutcome::Skipped { reason } => format!("region {k}: skipped ({reason})"),
        })
        .collect()
}

impl ChainOutput {
    /// The chain's counts as (`--stats-json` key, `--stats` label, value)
    /// rows: both `--stats` lines and the `chain` object of
    /// `--stats-json` are rendered from this one table, so they cannot
    /// disagree on which fields exist.
    pub fn stats(&self) -> [(&'static str, &'static str, usize); 8] {
        [
            ("scops_marked", "scops", self.scops_marked),
            (
                "regions_transformed",
                "transformed",
                self.regions_transformed,
            ),
            (
                "regions_parallelized",
                "parallel",
                self.regions_parallelized,
            ),
            ("regions_skewed", "skewed", self.regions_skewed),
            ("regions_tiled", "tiled", self.regions_tiled),
            ("rows_hoisted", "rows hoisted", self.rows_hoisted),
            ("fm_solves", "fm solves", self.fm_solves),
            (
                "calls_reinserted",
                "calls reinserted",
                self.calls_reinserted,
            ),
        ]
    }

    /// Purity verdicts in the form the interpreter consumes; delegates to
    /// [`purec_core::verified_pure_set`] (the single statement of the
    /// declared-implies-verified contract).
    pub fn verified_pure_set(&self) -> std::collections::HashSet<String> {
        purec_core::verified_pure_set(&self.declared_pure)
    }

    /// Build an executable [`Program`] from the transformed unit, passing
    /// the purity verdicts through so the resolved-IR engine can memoize
    /// verified-pure calls, and the static race verdicts so the engines
    /// can skip (or statically fail) the dynamic race check.
    pub fn program(&self) -> Program {
        Program::with_pure_set_and_verdicts(&self.unit, &self.verified_pure_set(), &self.verdicts)
    }
}

/// Compile and execute on the interpreter (for validation at reduced
/// problem sizes). Purity verdicts flow from the PC-CC stage into the
/// interpreter, enabling its pure-call memo cache.
pub fn compile_and_run(
    source: &str,
    chain_opts: ChainOptions,
    interp_opts: InterpOptions,
) -> Result<(ChainOutput, RunResult), ChainError> {
    let out = compile(source, chain_opts).map_err(ChainError::Compile)?;
    let result = out
        .program()
        .run(interp_opts)
        .map_err(ChainError::Runtime)?;
    Ok((out, result))
}

/// Error of [`compile_and_run`].
#[derive(Debug)]
pub enum ChainError {
    Compile(Diagnostics),
    Runtime(RuntimeError),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Compile(d) => write!(f, "compile failed with {} error(s)", d.error_count()),
            ChainError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_chain_end_to_end() {
        let src = apps::matmul::c_source(12);
        let out = compile(&src, ChainOptions::default()).expect("chain");
        assert!(out.regions_parallelized >= 1, "{}", out.text);
        assert!(
            out.text.contains("#pragma omp parallel for"),
            "{}",
            out.text
        );
        assert!(!out.text.contains("pure "), "{}", out.text);
        assert!(!out.text.contains("tmpConst"), "{}", out.text);
        assert!(out.text.starts_with("#include <stdio.h>"));
        // dot's reduction loop is transformed but sequential.
        assert!(out.regions_transformed >= out.regions_parallelized);
    }

    #[test]
    fn matmul_transformed_computes_same_checksum() {
        let n = 10;
        let src = apps::matmul::c_source(n);

        // Original program, interpreted sequentially.
        let orig = cfront::parser::parse(&src);
        // The raw source still has `pure`; strip via the chain's lowering
        // by running the full interpreter on the ORIGINAL through PC-CC
        // with no transformation: simplest honest check is chain-vs-chain
        // with threads 1 vs threads 8.
        assert!(!orig.diags.has_errors());

        let (out, seq) = compile_and_run(
            &src,
            ChainOptions::default(),
            InterpOptions {
                threads: 1,
                ..Default::default()
            },
        )
        .expect("seq run");
        let (_, par) = compile_and_run(
            &src,
            ChainOptions::default(),
            InterpOptions {
                threads: 8,
                ..Default::default()
            },
        )
        .expect("par run");
        assert_eq!(seq.output, par.output, "parallel must equal sequential");
        // Cross-check against the native Rust implementation.
        let expected = apps::matmul::c_source_checksum(n);
        let line = format!("checksum={expected:.1}\n");
        assert_eq!(seq.output, line, "transformed C: {}", out.text);
    }

    #[test]
    fn satellite_chain_parallelizes_pixel_loop() {
        let src = apps::satellite::c_source(6, 6);
        let out = compile(&src, ChainOptions::default()).expect("chain");
        assert!(out.regions_parallelized >= 1);
        let (_, run) = compile_and_run(
            &src,
            ChainOptions::default(),
            InterpOptions {
                threads: 4,
                race_check: true,
                ..Default::default()
            },
        )
        .expect("runs in parallel with race check");
        assert!(run.output.starts_with("aod="), "{}", run.output);
    }

    #[test]
    fn lama_chain_runs_and_matches_across_threads() {
        let src = apps::lama::c_source(48, 7);
        let (_, seq) =
            compile_and_run(&src, ChainOptions::default(), InterpOptions::default()).expect("seq");
        let (_, par) = compile_and_run(
            &src,
            ChainOptions::default(),
            InterpOptions {
                threads: 8,
                ..Default::default()
            },
        )
        .expect("par");
        assert_eq!(seq.output, par.output);
        assert!(seq.output.starts_with("spmv="));
    }

    #[test]
    fn heat_chain_transforms_children_of_time_loop() {
        let src = apps::heat::c_source(12, 3);
        let out = compile(&src, ChainOptions::default()).expect("chain");
        // Time loop stays; spatial nests are parallelized.
        assert!(
            out.text.contains("for (int t = 0; t < 3; t++)"),
            "{}",
            out.text
        );
        assert!(out.regions_parallelized >= 2, "{}", out.text);
        let (_, seq) =
            compile_and_run(&src, ChainOptions::default(), InterpOptions::default()).expect("seq");
        let (_, par) = compile_and_run(
            &src,
            ChainOptions::default(),
            InterpOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .expect("par");
        assert_eq!(seq.output, par.output);
    }

    #[test]
    fn listing5_program_is_rejected_by_the_chain() {
        let src = "\
pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }
int main() {
    int array[100];
    for (int i = 1; i < 100; i++)
        array[i] = func((pure int*)array, i);
    return 0;
}
";
        let err = compile(src, ChainOptions::default()).unwrap_err();
        assert!(err.has_code(cfront::diag::Code::PureParamWrittenInLoop));
    }
}
