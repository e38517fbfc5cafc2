//! Golden tests for `purec check` over the `examples/analysis/` corpus.
//!
//! Every corpus file annotates the lines it expects diagnostics on with
//! `// expect: <Code>`; the runner asserts the checker produces *exactly*
//! those (code, line) pairs — no false positives, no missed findings —
//! and pins each new stable code to a concrete program shape.

use analysis::LoopVerdict;
use cfront::diag::Code;
use cfront::span::LineMap;
use purec::chain::{compile, ChainOptions};
use purec::check::{check_source, CheckOptions};
use std::collections::BTreeMap;
use std::path::Path;

/// Parse `// expect: Code` annotations into a (line, code) multiset.
fn expected_codes(source: &str) -> BTreeMap<(usize, String), usize> {
    let mut out = BTreeMap::new();
    for (idx, line) in source.lines().enumerate() {
        if let Some(pos) = line.find("// expect:") {
            let code = line[pos + "// expect:".len()..].trim().to_string();
            assert!(
                !code.is_empty(),
                "empty expect annotation on line {}",
                idx + 1
            );
            *out.entry((idx + 1, code)).or_insert(0) += 1;
        }
    }
    out
}

fn actual_codes(outcome: &purec::check::CheckOutcome) -> BTreeMap<(usize, String), usize> {
    let map = LineMap::new(&outcome.text);
    let mut out = BTreeMap::new();
    for d in outcome.diags.items() {
        let line = map.line_col(d.span.start).line as usize;
        *out.entry((line, d.code.to_string())).or_insert(0) += 1;
    }
    out
}

fn run_corpus_file(name: &str, infer_pure: bool) -> purec::check::CheckOutcome {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/analysis")
        .join(name);
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    let outcome = check_source(
        &source,
        &CheckOptions {
            infer_pure,
            ..Default::default()
        },
    );
    assert_eq!(
        expected_codes(&source),
        actual_codes(&outcome),
        "diagnostic mismatch for {name}; rendered:\n{}",
        outcome.render()
    );
    outcome
}

#[test]
fn racy_loops_are_rejected_with_spanned_errors() {
    let outcome = run_corpus_file("racy.c", false);
    assert!(outcome.has_errors(), "racy.c must exit non-zero");
    assert_eq!(outcome.diags.error_count(), 2);
}

#[test]
fn row_pointer_table_updated_in_the_loop_is_a_carried_race() {
    // A rank-1 store `a[i] = …` against a rank-2 read `a[i - 1][0]`.
    let outcome = run_corpus_file("rowptr.c", false);
    assert!(outcome.has_errors(), "rowptr.c must exit non-zero");
    assert_eq!(outcome.diags.error_count(), 1);
    let message = &outcome.diags.items()[0].message;
    assert!(
        message.contains("flow dependence on 'a' (distance 1)"),
        "{message}"
    );
}

#[test]
fn reduction_loop_warns_but_passes() {
    let outcome = run_corpus_file("reduction.c", false);
    assert!(!outcome.has_errors(), "reductions are warnings, not errors");
}

#[test]
fn inferable_and_blocked_functions_are_noted() {
    let outcome = run_corpus_file("infer_pure.c", true);
    assert!(!outcome.has_errors());
    assert_eq!(outcome.inferred_pure, vec!["square".to_string()]);
    // Without --infer-pure the same file is silent.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/analysis/infer_pure.c");
    let source = std::fs::read_to_string(path).unwrap();
    let quiet = check_source(&source, &CheckOptions::default());
    assert!(quiet.diags.is_empty(), "{}", quiet.render());
}

#[test]
fn dataflow_lints_fire_with_exact_spans() {
    let outcome = run_corpus_file("uninit.c", false);
    assert!(!outcome.has_errors(), "lints are warnings");
    assert_eq!(outcome.diags.len(), 3);
}

/// A clause the runtime does not model is named on the loop's pragma
/// line, with the reason the parser found: each unknown clause, then the
/// schedules (an unknown kind, a chunk that is no constant). A second
/// `schedule` is no warning but the parser's error, as it is GCC's, at
/// the same position for `check` and for the compile.
#[test]
fn clauses_the_runtime_ignores_are_named_on_the_pragma_line() {
    let source = "int a[64];\n\
                  int main() {\n\
                  #pragma omp parallel for reduction(+:s) schedule(runtime) nowait\n\
                  for (int i = 0; i < 64; i++) a[i] = i;\n\
                  int n = 4;\n\
                  #pragma omp parallel for schedule(dynamic, n)\n\
                  for (int i = 0; i < 64; i++) a[i] = i + n;\n\
                  return 0;\n\
                  }\n";
    let outcome = check_source(source, &CheckOptions::default());
    let map = LineMap::new(&outcome.text);
    let seen: Vec<(usize, String, &str)> = outcome
        .diags
        .items()
        .iter()
        .map(|d| {
            let line = map.line_col(d.span.start).line as usize;
            (line, d.code.to_string(), d.message.as_str())
        })
        .collect();
    assert_eq!(
        seen,
        [
            (
                3,
                "OmpUnknownClause".to_string(),
                "unrecognized OpenMP clause 'reduction' is ignored by the runtime"
            ),
            (
                3,
                "OmpUnknownClause".to_string(),
                "unrecognized OpenMP clause 'nowait' is ignored by the runtime"
            ),
            (
                3,
                "OmpUnknownSchedule".to_string(),
                "unknown schedule kind 'runtime' degrades to schedule(static)"
            ),
            (
                6,
                "OmpUnknownSchedule".to_string(),
                "schedule chunk 'n' is not an integer constant; the loop runs schedule(static)"
            ),
        ]
    );
    let twice = source.replace(
        "schedule(dynamic, n)",
        "schedule(dynamic, n) schedule(static)",
    );
    let outcome = check_source(&twice, &CheckOptions::default());
    let errors: Vec<_> = outcome
        .diags
        .items()
        .iter()
        .map(|d| (d.code, d.span, d.message.as_str()))
        .collect();
    let span = errors.first().map(|e| e.1).expect("an error");
    assert_eq!(map.line_col(span.start).line, 6);
    assert_eq!(
        errors,
        [(
            Code::OmpDuplicateSchedule,
            span,
            "too many 'schedule' clauses: a second 'schedule(static)' after the first"
        )]
    );
    let compiled = compile(&twice, ChainOptions::default()).expect_err("rejected");
    let spans: Vec<_> = compiled.items().iter().map(|d| (d.code, d.span)).collect();
    assert_eq!(spans, [(Code::OmpDuplicateSchedule, span)]);
}

#[test]
fn clean_file_produces_zero_diagnostics() {
    let outcome = run_corpus_file("clean.c", false);
    assert!(outcome.diags.is_empty(), "{}", outcome.render());
}

/// Pointer walks are left sequential, not miscompiled: nothing for the
/// checker to say (at the parent commit it said nothing either, about a
/// program polycc had just turned into `for (int t1 = a; …)`).
#[test]
fn pointer_walks_produce_zero_diagnostics() {
    let outcome = run_corpus_file("pointer_walk.c", false);
    assert!(outcome.diags.is_empty(), "{}", outcome.render());
}

#[test]
fn clean_parallel_loop_gets_independent_verdict() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/analysis/clean.c");
    let source = std::fs::read_to_string(path).unwrap();
    let parsed = cfront::parser::parse(&source);
    assert!(!parsed.diags.has_errors());
    let report = analysis::analyze_unit(
        &parsed.unit,
        &purec_core::PureSet::seeded(),
        &analysis::AnalysisOptions::default(),
    );
    assert_eq!(report.loops.len(), 1);
    assert_eq!(report.loops[0].verdict, LoopVerdict::Independent);
}

#[test]
fn racy_corpus_verdicts_are_racy() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/analysis/racy.c");
    let source = std::fs::read_to_string(path).unwrap();
    let parsed = cfront::parser::parse(&source);
    let report = analysis::analyze_unit(
        &parsed.unit,
        &purec_core::PureSet::seeded(),
        &analysis::AnalysisOptions::default(),
    );
    assert_eq!(report.loops.len(), 2);
    assert!(report.loops.iter().all(|l| l.verdict == LoopVerdict::Racy));
}

#[test]
fn json_output_is_one_object_per_line_with_spans() {
    let outcome = run_corpus_file("uninit.c", false);
    let json = outcome.render_json();
    let lines: Vec<&str> = json.lines().collect();
    assert_eq!(lines.len(), 3);
    for line in lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
        let obj = v.as_object().expect("object");
        for key in ["severity", "code", "message", "line", "col", "start", "end"] {
            assert!(
                obj.iter().any(|(k, _)| k.as_str() == key),
                "missing key {key} in {line}"
            );
        }
    }
}

/// A/B proof that an `Independent` verdict actually skips the O(n)
/// dynamic race check: the chain-compiled program (verdicts wired in)
/// must count static skips and zero dynamic iterations, while the same
/// unit rebuilt *without* verdicts must fall back to the dynamic check —
/// with bit-identical output either way.
#[test]
fn independent_verdict_skips_dynamic_race_check() {
    for src in [apps::matmul::c_source(16), apps::heat::c_source(16, 2)] {
        let opts = cinterp::InterpOptions {
            threads: 4,
            race_check: true,
            ..Default::default()
        };
        let (out, run) =
            purec::compile_and_run(&src, purec::ChainOptions::default(), opts).expect("chain runs");
        assert!(
            out.verdicts
                .values()
                .any(|v| *v == analysis::LoopVerdict::Independent),
            "no Independent verdict: {:?}",
            out.verdicts
        );
        assert!(run.counters.race_static_skips > 0, "no static skip counted");
        assert_eq!(run.counters.race_dyn_iters, 0, "dynamic check still ran");
        // B side: same unit, no verdicts -> every region is Unknown and
        // the dynamic pre-pass runs.
        let prog = cinterp::Program::with_pure_set(&out.unit, &out.verified_pure_set());
        let run_b = prog.run(opts).expect("verdict-free run");
        assert_eq!(run_b.counters.race_static_skips, 0);
        assert!(
            run_b.counters.race_dyn_iters > 0,
            "dynamic check skipped without a verdict"
        );
        assert_eq!(run.output, run_b.output);
        assert_eq!(run.exit_code, run_b.exit_code);
    }
}

/// Zero false positives over every non-corpus example and demo source:
/// the always-on passes must stay silent on code that is known-good.
#[test]
fn demo_sources_check_clean_of_errors() {
    for (name, src) in [
        ("matmul", apps::matmul::c_source(8)),
        ("heat", apps::heat::c_source(8, 2)),
        ("satellite", apps::satellite::c_source(4, 4)),
        ("lama", apps::lama::c_source(16, 3)),
        (
            "spin",
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/spin.c"))
                .unwrap(),
        ),
    ] {
        let outcome = check_source(&src, &CheckOptions::default());
        assert!(
            !outcome.has_errors(),
            "false positive on {name}:\n{}",
            outcome.render()
        );
    }
}

/// The three shapes the scattered walkers used to verify pure (a
/// block-scoped shadow of a global, a `static` local, Listing 5 through
/// a global): each is a spanned `Pure*` error now.
#[test]
fn purity_holes_are_rejected_with_spanned_errors() {
    let outcome = run_corpus_file("purity_holes.c", false);
    assert_eq!(outcome.diags.error_count(), 3, "{}", outcome.render());
}

/// Listing 6 with two copies of the array's pointer: neither copy was
/// assigned from the other, only both from `array`.
const TWO_COPIES: &str = "\
int array[100];
int main() {
    int* p = array;
    int* q = array;
#pragma omp parallel for
    for (int i = 1; i < 100; i++)
        p[i] = q[i - 1] + 1;
    return p[99];
}
";

/// Listing 5 through a global, split over two statements: the
/// per-assignment rule lets it through (as it does Listing 6), so the
/// verdict must be `Unknown` and the dynamic checker must refuse it. The
/// same holds for [`TWO_COPIES`], whose warning names the root that
/// joins the two names.
#[test]
fn global_read_feedback_is_unknown_statically_and_a_race_dynamically() {
    let outcome = run_corpus_file("global_feedback.c", false);
    assert!(!outcome.has_errors(), "{}", outcome.render());
    let copies = check_source(TWO_COPIES, &CheckOptions::default());
    let messages: Vec<&str> = copies.diags.items().iter().map(|d| &*d.message).collect();
    assert!(
        matches!(messages[..], [m] if m.contains(
            "'p' and 'q' may alias (a chain of assignments joins both pointer values to the common root 'array')"
        )),
        "{messages:?}"
    );
    for src in [outcome.text.as_str(), TWO_COPIES] {
        let out = purec::compile(src, purec::ChainOptions::default()).expect("compiles");
        assert_eq!(
            out.verdicts.values().collect::<Vec<_>>(),
            [&analysis::LoopVerdict::Unknown],
            "{src}"
        );
        let err = out
            .program()
            .run(cinterp::InterpOptions {
                threads: 4,
                race_check: true,
                ..Default::default()
            })
            .expect_err("the dynamic check must catch the feedback");
        assert!(err.message.contains("race detected"), "{err}");
    }
}

include!("support/corpus.rs");

/// `Independent` ⇒ the dynamic race checker finds nothing: for every
/// checked-in program and blind-spot program whose parallel loops the
/// analyzer *all* calls
/// `Independent`, the same unit rebuilt *without* verdicts and run with
/// the dynamic check on, cap off, must complete. (At the parent commit
/// `global_feedback.c` was `Independent` statically and a detected race
/// dynamically.)
#[test]
fn independent_verdicts_agree_with_the_dynamic_checker() {
    // One region of the scratch workload is enough here.
    let mut corpus: Vec<(String, String)> = example_programs()
        .into_iter()
        .map(|(name, src)| (name, src.replace("int n = 20000;", "int n = 200;")))
        .collect();
    corpus.push(("demo matmul".into(), apps::matmul::c_source(12)));
    corpus.push(("demo heat".into(), apps::heat::c_source(8, 3)));
    corpus.push(("demo satellite".into(), apps::satellite::c_source(6, 6)));
    corpus.push(("demo lama".into(), apps::lama::c_source(32, 5)));
    corpus.extend(
        BLIND_SPOT
            .iter()
            .map(|&(name, src, ..)| (name.to_string(), src.to_string())),
    );

    let mut checked = 0;
    for (name, src) in &corpus {
        let Ok(out) = purec::compile(src, purec::ChainOptions::default()) else {
            assert!(name.ends_with("purity_holes.c"), "{name} must compile");
            continue;
        };
        let all_independent = !out.verdicts.is_empty()
            && out
                .verdicts
                .values()
                .all(|v| *v == analysis::LoopVerdict::Independent);
        if !all_independent {
            continue;
        }
        let run = cinterp::Program::with_pure_set(&out.unit, &out.verified_pure_set()).run(
            cinterp::InterpOptions {
                threads: 2,
                race_check: true,
                race_check_cap: Some(0),
                ..Default::default()
            },
        );
        let run = run.unwrap_or_else(|e| panic!("{name}: Independent statically, but: {e}"));
        assert!(
            run.counters.race_dyn_iters > 0,
            "{name}: nothing was checked"
        );
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} programs were all-Independent");
}
