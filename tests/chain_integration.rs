//! Integration tests spanning the whole workspace: what the chain emits
//! for the evaluation applications and the corpus — standard C, parallel
//! loops it can prove independent, pragmas that head their loops, and a
//! text that reparses to the unit the engines run; and, on the legs of
//! the differential matrix (`tests/support/entries.rs`), that each app's
//! transformed build computes what its original computes, on every
//! engine and under GCC.

#[path = "support/matrix.rs"]
mod matrix;

#[path = "support/entries.rs"]
mod entries;

use pure_c::prelude::*;

/// Every `#pragma omp` line of `text` heads a loop with work for two
/// threads.
fn assert_omp_pragmas_head_loops(what: &str, text: &str) {
    if let Err(why) = matrix::omp_pragmas_head_loops(text) {
        panic!("{what}: {why}:\n{text}");
    }
}

#[test]
fn transformed_output_is_standard_c_for_all_apps() {
    for src in [
        apps::matmul::c_source(12),
        apps::heat::c_source(10, 2),
        apps::satellite::c_source(6, 6),
        apps::lama::c_source(32, 5),
    ] {
        let out = compile(&src, ChainOptions::default()).expect("chain");
        assert!(!out.text.contains("pure "), "{}", out.text);
        assert!(!out.text.contains("tmpConst"), "{}", out.text);
        assert!(
            out.text.contains("#pragma omp parallel for"),
            "{}",
            out.text
        );
        let reparsed = parse(&out.text);
        assert!(!reparsed.diags.has_errors());
        // No `pure` anywhere in the reparsed unit.
        for f in reparsed.unit.functions() {
            assert!(!f.is_pure);
        }
    }
}

#[test]
fn race_check_passes_for_all_transformed_apps() {
    for src in [
        apps::matmul::c_source(8),
        apps::heat::c_source(8, 2),
        apps::satellite::c_source(4, 4),
        apps::lama::c_source(24, 5),
    ] {
        let result = compile_and_run(
            &src,
            ChainOptions::default(),
            InterpOptions {
                threads: 4,
                race_check: true,
                ..Default::default()
            },
        );
        assert!(
            result.is_ok(),
            "race check must pass: {:?}",
            result.err().map(|e| e.to_string())
        );
    }
}

/// The pragma lines a user writes over a loop reach the default and the
/// `--no-poly` text as GCC reads them: a header's comment is no clause,
/// a run of loop hints stays right above its `for` ([`USER_PRAGMAS`]), a
/// header nested in a sequential loop keeps its clause ([`NESTED_OMP`]); a
/// braceless parallel body keeps its one header ([`BRACELESS_OMP`]); and
/// the literal build adds no header to the blind-spot programs.
#[test]
fn user_pragmas_reach_both_texts_over_their_loops() {
    let no_poly = ChainOptions {
        no_poly: true,
        ..Default::default()
    };
    for (build, opts) in [("default", ChainOptions::default()), ("no-poly", no_poly)] {
        let text = |name: &str, src: &str| {
            compile(src, opts.clone())
                .unwrap_or_else(|d| panic!("{name}, {build}: {}", d.render_all(src)))
                .text
        };
        let nested: (&str, &str, &str, &[&str]) = (
            "nested_omp.c",
            NESTED_OMP,
            "",
            &["#pragma omp parallel for schedule(dynamic,4)"],
        );
        for (name, src, _, pragmas) in USER_PRAGMAS.into_iter().chain([nested]) {
            let text = text(name, src);
            let lines: Vec<&str> = text.lines().map(str::trim).collect();
            let at = lines
                .windows(pragmas.len())
                .position(|w| w == pragmas)
                .unwrap_or_else(|| panic!("{name}, {build}: no {pragmas:?}:\n{text}"));
            assert!(
                lines[at + pragmas.len()].starts_with("for ("),
                "{name}, {build}:\n{text}"
            );
        }
        for (name, src, _) in BRACELESS_OMP {
            let text = text(name, src);
            assert_eq!(
                text.matches("#pragma omp").count(),
                1,
                "{name}, {build}:\n{text}"
            );
        }
        if build == "no-poly" {
            for (name, src, ..) in BLIND_SPOT {
                let text = text(name, src);
                assert!(!text.contains("#pragma omp"), "{name}, {build}:\n{text}");
            }
        }
    }
}

/// An app's original against its transformed build: every engine leg
/// (poly and literal, 1 and 4 threads, traced) and GCC on the default
/// text and the `-Dpure=` original. The `--no-poly` and tiled texts are
/// `gcc_oracle`'s legs.
fn original_and_transformed(leg: &matrix::Leg) -> bool {
    use matrix::{Leg, Text};
    !matches!(leg, Leg::Gcc(Text::NoPoly | Text::Tile8 | Text::Tile32, _))
}

/// The transformed build on thread counts no engine leg of the matrix
/// runs prints what every leg prints.
fn at_threads(entry: &matrix::Entry, counts: &[usize]) {
    for &threads in counts {
        let opts = InterpOptions {
            threads,
            ..Default::default()
        };
        let (_, run) = compile_and_run(&entry.source, ChainOptions::default(), opts)
            .expect("transformed runs");
        let seen = matrix::Expect::Output(run.output, run.exit_code);
        assert_eq!(seen, entry.expect, "{}: {threads} threads", entry.name);
    }
}

/// matmul(16) prints the checksum the native Rust kernel computes
/// (`apps::matmul::c_source_checksum`) on the poly and the literal
/// build of every engine at 1 and 4 threads (the VM's transformed build
/// at 2 and 8 too), and under GCC from its default text and its `-Dpure=`
/// original at 1, 2 and 4 threads.
#[test]
fn matmul_original_equals_transformed_across_threads() {
    at_threads(&entries::matmul(), &[2, 8]);
    matrix::run(vec![entries::matmul()], original_and_transformed);
}

/// heat(32, 10): the transformed build and the original agree, as for
/// matmul.
#[test]
fn heat_original_equals_transformed() {
    matrix::run(vec![entries::heat()], original_and_transformed);
}

/// satellite(16, 16): the transformed build and the original agree, as
/// for matmul.
#[test]
fn satellite_original_equals_transformed() {
    matrix::run(vec![entries::satellite()], original_and_transformed);
}

/// lama(256, 9): the transformed build and the original agree, as for
/// matmul, on 8 threads too.
#[test]
fn lama_original_equals_transformed() {
    at_threads(&entries::lama(), &[8]);
    matrix::run(vec![entries::lama()], original_and_transformed);
}

#[test]
fn instruction_counters_show_call_overhead() {
    // The interpreted analogue of the paper's 87.8G vs 47.5G comparison:
    // the pure (extracted-call) heat program executes more calls than an
    // inlined-by-hand version.
    let n = 12;
    let extracted = apps::heat::c_source(n, 2);
    let (_, with_calls) = compile_and_run(
        &extracted,
        ChainOptions::default(),
        InterpOptions::default(),
    )
    .expect("runs");
    // Inlined variant: the stencil expression written out in the loop.
    let inlined = format!(
        "float **cur, **nxt;\n\
         int main() {{\n\
             cur = (float**) malloc({n} * sizeof(float*));\n\
             nxt = (float**) malloc({n} * sizeof(float*));\n\
             for (int i = 0; i < {n}; i++) {{\n\
                 cur[i] = (float*) malloc({n} * sizeof(float));\n\
                 nxt[i] = (float*) malloc({n} * sizeof(float));\n\
                 for (int j = 0; j < {n}; j++) {{ cur[i][j] = 0.0f; nxt[i][j] = 0.0f; }}\n\
             }}\n\
             cur[{mid}][0] = 100.0f;\n\
             for (int t = 0; t < 2; t++) {{\n\
                 for (int i = 1; i < {nm1}; i++)\n\
                     for (int j = 1; j < {nm1}; j++)\n\
                         nxt[i][j] = 0.25f * (cur[i - 1][j] + cur[i + 1][j] + cur[i][j - 1] + cur[i][j + 1]);\n\
                 for (int i = 1; i < {nm1}; i++)\n\
                     for (int j = 1; j < {nm1}; j++)\n\
                         cur[i][j] = nxt[i][j];\n\
                 cur[{mid}][0] = 100.0f;\n\
             }}\n\
             return 0;\n\
         }}\n",
        mid = n / 2,
        nm1 = n - 1,
    );
    let (_, inl) = compile_and_run(&inlined, ChainOptions::default(), InterpOptions::default())
        .expect("inlined runs");
    assert!(
        with_calls.counters.calls > inl.counters.calls + 100,
        "extracted version must execute more calls: {} vs {}",
        with_calls.counters.calls,
        inl.counters.calls
    );
}

#[test]
fn pipeline_rejects_each_purity_violation_class() {
    use cfront::diag::Code;
    let cases: &[(&str, Code)] = &[
        (
            "int g;\npure int f(int x) { g = x; return x; }\nint main() { return 0; }",
            Code::PureGlobalWrite,
        ),
        (
            "void imp();\npure int f(int x) { imp(); return x; }\nint main() { return 0; }",
            Code::PureCallsImpure,
        ),
        (
            "pure void f(int* p, int v) { p[0] = v; }\nint main() { return 0; }",
            Code::PureWritesExternal,
        ),
        (
            "pure void f(int* p) { free(p); }\nint main() { return 0; }",
            Code::PureFreesForeign,
        ),
        (
            "int* g;\npure void f() { int* q = g; }\nint main() { return 0; }",
            Code::PureAssignsExternalPtrWithoutCast,
        ),
    ];
    for (src, code) in cases {
        let err = compile(src, ChainOptions::default()).unwrap_err();
        assert!(err.has_code(*code), "expected {code:?} for:\n{src}");
    }
}

include!("support/heavy_unit.rs");

/// The polyhedral stage's exact work count: full Fourier–Motzkin
/// elimination passes per compile (polycc + race analysis). A distance
/// bound is one projection pass; when it was a bisection of feasibility
/// probes the same two compiles took 366 and 3 495 passes — a return to
/// that fails here without a clock.
#[test]
fn fm_solves_per_compile_are_pinned() {
    let matmul = compile(&apps::matmul::c_source_inline(8), ChainOptions::default())
        .expect("matmul compiles");
    assert_eq!(matmul.fm_solves, 42);
    // Exact: a new kind of access pair moves it on purpose, and so does
    // `tests/golden/deps.txt`, which lists every solve per SCoP.
    let heavy = compile(&heavy_unit(9), ChainOptions::default()).expect("heavy unit compiles");
    assert_eq!(heavy.regions_skewed, 3, "the stencil groups need skewing");
    assert_eq!(heavy.fm_solves, 375);
}

/// The chain judges each loop before polycc hoists invariant rows into
/// `__pc_rowK` pointers, so every parallel loop it emits for the schedule
/// corpus, the four applications, `heavy_unit(9)`, the blind-spot
/// programs and the braceless parallel bodies is `Independent`, and no
/// diagnostic names a
/// compiler-generated identifier. The pinned pragma counts say, from the
/// text, that no nest with a hazard of the model got one, and every
/// pragma heads a loop with work for two threads. (Judged on the
/// hoisted text, the Fig. 2 kernel and `heavy_unit(9)` were 1 of 2 and 15
/// of 18, with a warning that `__pc_row1` and `__pc_row2` may alias; and
/// while fusion merged `rowptr.c`'s first two nests, their one loop was
/// `Racy`.)
#[test]
fn every_emitted_parallel_loop_is_independent() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/schedules");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/schedules")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    files.sort();
    let mut corpus: Vec<(String, String, usize)> = files
        .iter()
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let loops = match name.as_str() {
                "fig02_skew.c" | "fig03_matmul.c" | "rowptr.c" => 2,
                "fig07_heat.c" => 3,
                other => panic!("{other}: pin its parallel loop count here"),
            };
            let src = std::fs::read_to_string(p).expect("schedule source");
            (name, src, loops)
        })
        .collect();
    corpus.extend([
        ("matmul".into(), apps::matmul::c_source(64), 2),
        ("heat".into(), apps::heat::c_source(32, 10), 3),
        ("satellite".into(), apps::satellite::c_source(16, 16), 2),
        ("lama".into(), apps::lama::c_source(256, 9), 1),
        ("heavy_unit(9)".into(), heavy_unit(9), 18),
    ]);
    corpus.extend(
        BLIND_SPOT
            .iter()
            .map(|&(name, src, _, loops)| (name.to_string(), src.to_string(), loops)),
    );
    corpus.extend(
        BRACELESS_OMP
            .iter()
            .map(|&(name, src, _)| (name.to_string(), src.to_string(), 1)),
    );
    for (name, src, loops) in corpus {
        let name = name.as_str();
        let out = compile(&src, ChainOptions::default()).expect(name);
        let emitted = out.text.matches("#pragma omp parallel for").count();
        assert_eq!((emitted, out.verdicts.len()), (loops, loops), "{name}");
        assert_omp_pragmas_head_loops(name, &out.text);
        assert!(
            out.verdicts
                .values()
                .all(|v| *v == analysis::LoopVerdict::Independent),
            "{name}: {:?}",
            out.verdicts
        );
        let generated: Vec<&str> = out
            .diags
            .items()
            .iter()
            .map(|d| d.message.as_str())
            .filter(|m| m.contains("__pc_"))
            .collect();
        assert!(generated.is_empty(), "{name}: {generated:?}");
    }
}

include!("support/corpus.rs");

/// `unit`'s items as text with every span, loop id and `affine` flag
/// erased — the three things the printed C does not carry — and without
/// the `#include` lines, which reparse as pragma items.
fn erased_items(unit: &cfront::TranslationUnit) -> Vec<String> {
    fn erase(text: &str, open: &str, close: char) -> String {
        let mut out = String::with_capacity(text.len());
        let mut rest = text;
        while let Some(k) = rest.find(open) {
            out.push_str(&rest[..k]);
            out.push('_');
            let tail = &rest[k + open.len()..];
            rest = &tail[tail.find(close).expect("closed") + 1..];
        }
        out.push_str(rest);
        out
    }
    unit.items
        .iter()
        .filter(|i| !matches!(i, cfront::Item::Pragma(p) if p.starts_with("include")))
        .map(|i| {
            let text = erase(&format!("{i:?}"), "Span {", '}');
            erase(&text, "LoopId(", ')').replace("affine: true", "affine: false")
        })
        .collect()
}

/// The text is a view of the unit the engines run: reparsed, it is that
/// unit again up to spans, loop ids and `affine` flags, over every example
/// program the chain accepts, the four applications, `heavy_unit(9)`, and
/// matmul tiled (so the `__pc_*` helper items print too).
/// Every loop of the unit has its own id, and every pragma heads a loop.
#[test]
fn the_text_reparses_to_the_unit_the_engines_run() {
    let mut tiled = ChainOptions::default();
    tiled.polycc.tile = Some(8);
    let mut inputs: Vec<(String, String, ChainOptions)> = example_programs()
        .into_iter()
        .map(|(name, src)| (name, src, ChainOptions::default()))
        .collect();
    inputs.extend([
        (
            "matmul".into(),
            apps::matmul::c_source(64),
            ChainOptions::default(),
        ),
        (
            "heat".into(),
            apps::heat::c_source(32, 10),
            ChainOptions::default(),
        ),
        (
            "satellite".into(),
            apps::satellite::c_source(16, 16),
            ChainOptions::default(),
        ),
        (
            "lama".into(),
            apps::lama::c_source(256, 9),
            ChainOptions::default(),
        ),
        (
            "heavy_unit(9)".into(),
            heavy_unit(9),
            ChainOptions::default(),
        ),
        ("matmul tile=8".into(), apps::matmul::c_source(64), tiled),
    ]);
    let mut checked = 0;
    for (name, src, opts) in inputs {
        let Ok(out) = compile(&src, opts) else {
            continue; // a program the purity check refuses has no text
        };
        let reparsed = parse(&out.text);
        assert!(!reparsed.diags.has_errors(), "{name}: {}", out.text);
        assert_omp_pragmas_head_loops(&name, &out.text);
        let (want, got) = (erased_items(&out.unit), erased_items(&reparsed.unit));
        assert_eq!(want.len(), got.len(), "{name}: item count");
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w, g, "{name}");
        }
        let mut ids = Vec::new();
        for f in out.unit.functions() {
            for s in f.body.iter().flat_map(|b| &b.stmts) {
                s.walk(&mut |s| {
                    if let cfront::StmtKind::For { id, .. } = s.kind {
                        ids.push(id);
                    }
                });
            }
        }
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len(), "{name}: {ids:?}");
        assert!(
            !distinct.contains(&cfront::LoopId::NONE),
            "{name}: unnumbered loop"
        );
        checked += 1;
    }
    assert!(checked >= 20, "only {checked} programs compiled");
}
