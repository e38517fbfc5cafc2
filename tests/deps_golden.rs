//! Every dependence the chain's two dependence tests compute, pinned.
//!
//! `tests/golden/deps.txt` holds, per program, the Fourier–Motzkin work
//! count of polycc and of the race analyzer, then every SCoP either stage
//! can meet with its `Dependence` lines and its own `fm_solves`:
//! - `polycc`: every loop of the PC-CC unit (pure calls replaced by
//!   `tmpConst_*` placeholders) that models as a SCoP;
//! - `race`: every loop of the transformed unit, calls reinserted, with
//!   each verified-pure call replaced by a fresh `__purechk` read, as the
//!   race analyzer probes it.
//!
//! The corpus is `examples/schedules`, the four demo applications at
//! their `--demo` sizes, `matmul_inline(8)`, `heavy_unit(9)`, the
//! blind-spot programs and the 18-member blind-spot family. The file was
//! generated before the dependence test moved to flat integer rows and a
//! reused scratch, and is checked in unchanged: that rewrite must give
//! the same dependences, distance bounds and solve counts.
//!
//! To regenerate it after an intended change, run this test with
//! `DEPS_GOLDEN_WRITE=1` and review the diff.

use cfront::ast::{ExprKind, Stmt, StmtKind, TranslationUnit};
use polyhedral::{analyze, extract_scop, transform_regions, DepAnalysis, IterTypes};
use pure_c::prelude::*;
use std::fmt::Write;
use std::path::Path;

include!("support/corpus.rs");
include!("support/heavy_unit.rs");

fn corpus() -> Vec<(String, String)> {
    let mut corpus: Vec<(String, String)> = example_programs()
        .into_iter()
        .filter(|(name, _)| name.starts_with("schedules/"))
        .collect();
    corpus.push(("demo:matmul".into(), apps::matmul::c_source(64)));
    corpus.push(("demo:heat".into(), apps::heat::c_source(32, 10)));
    corpus.push(("demo:satellite".into(), apps::satellite::c_source(16, 16)));
    corpus.push(("demo:lama".into(), apps::lama::c_source(256, 9)));
    corpus.push(("matmul_inline(8)".into(), apps::matmul::c_source_inline(8)));
    corpus.push(("support:heavy_unit(9)".into(), heavy_unit(9)));
    for (name, src, _, _) in BLIND_SPOT {
        corpus.push((name.to_string(), src.to_string()));
    }
    for (k, src) in blind_spot_family().into_iter().enumerate() {
        corpus.push((format!("blind_spot_family[{k}]"), src));
    }
    corpus
}

/// Analyze every loop of `unit` that models as a SCoP, after `probe`
/// rewrites a copy of it, and render one block per SCoP.
fn render_loops(view: &str, unit: &TranslationUnit, probe: &dyn Fn(&mut Stmt), out: &mut String) {
    let globals = IterTypes::of_globals(unit);
    for f in unit.functions() {
        let types = globals.in_function(f);
        let mut ordinal = 0;
        for s in f.body.iter().flat_map(|b| &b.stmts) {
            s.walk(&mut |st| {
                if !matches!(st.kind, StmtKind::For { .. }) {
                    return;
                }
                ordinal += 1;
                let mut st = st.clone();
                probe(&mut st);
                let Ok(scop) = extract_scop(&st, &types) else {
                    return;
                };
                let DepAnalysis { deps, fm_solves } = analyze(&scop);
                writeln!(
                    out,
                    "  {view} {}#{ordinal} {scop}: fm_solves {fm_solves}",
                    f.name
                )
                .unwrap();
                for d in &deps {
                    writeln!(out, "    {d}").unwrap();
                }
            });
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    for (name, src) in corpus() {
        let chain = compile(&src, ChainOptions::default())
            .unwrap_or_else(|e| panic!("{name} must compile: {e:?}"));
        // The chain's first three steps, as `purec::chain::compile` takes
        // them, so each stage's own count can be read.
        let pcc = run_pc_cc(&src, PcCcOptions::default()).expect("PC-CC");
        let mut unit = pcc.unit.clone();
        let report = transform_regions(&mut unit, PolyccOptions::default());
        let maps = report.placeholder_iter_maps();
        purec_core::reinsert_calls(&mut unit, &pcc.subst, |p| maps.get(p));
        cfront::visit::number_loops(&mut unit);
        let race = analysis::analyze_unit(&unit, &pcc.pure_set, &Default::default());
        assert_eq!(
            report.fm_solves + race.fm_solves,
            chain.fm_solves,
            "{name}: the stages' counts must add up to the chain's"
        );
        writeln!(
            out,
            "{name}: polycc fm_solves {}, race fm_solves {}",
            report.fm_solves, race.fm_solves
        )
        .unwrap();

        render_loops("polycc", &pcc.unit, &|_| {}, &mut out);
        let pure_set = &pcc.pure_set;
        let purechk = |st: &mut Stmt| {
            let mut counter = 0usize;
            cfront::visit::visit_exprs_mut(st, &mut |e| {
                if matches!(e.as_direct_call(), Some((callee, _)) if pure_set.contains(callee)) {
                    counter += 1;
                    e.kind = ExprKind::Ident(format!("__purechk{counter}"));
                }
            });
        };
        render_loops("race", &unit, &purechk, &mut out);
    }
    out
}

#[test]
fn dependences_match_the_golden_of_the_parent_commit() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/deps.txt");
    let actual = render();
    if std::env::var_os("DEPS_GOLDEN_WRITE").is_some() {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let moved: Vec<(usize, &str, &str)> = golden
        .lines()
        .zip(actual.lines())
        .enumerate()
        .filter(|(_, (g, a))| g != a)
        .map(|(k, (g, a))| (k + 1, g, a))
        .take(5)
        .collect();
    assert!(
        golden == actual,
        "dependences moved (first differing lines: {moved:?}; {} golden lines, {} now)",
        golden.lines().count(),
        actual.lines().count()
    );
}
