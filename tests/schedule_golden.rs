//! Golden schedule snapshots: each C file in `examples/schedules/`
//! carries `// expect:` annotations, one per polyhedral region, in
//! region order. The file is compiled through the full chain and every
//! annotation's tokens must appear in the corresponding line of the
//! schedule dump (the `--dump-schedule` rendering). This pins the
//! figure-level outcomes from the paper — which nests tile, which
//! parallelize, which are rejected — against regressions in the
//! dependence test, scheduler, or codegen.

use pure_c::prelude::*;
use std::fs;
use std::path::Path;

/// Parse `// options: key=value ...` (at most one line per file) and
/// `// expect: ...` annotations in file order.
fn parse_annotations(src: &str) -> (ChainOptions, Vec<String>) {
    let mut opts = ChainOptions::default();
    let mut expects = Vec::new();
    for line in src.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("// options:") {
            for kv in rest.split_whitespace() {
                match kv.split_once('=') {
                    Some(("tile", v)) => {
                        opts.polycc.tile = Some(v.parse().expect("tile value"));
                    }
                    _ => panic!("unknown option {kv:?}"),
                }
            }
        } else if let Some(rest) = line.strip_prefix("// expect:") {
            expects.push(rest.trim().to_string());
        }
    }
    (opts, expects)
}

fn check_file(path: &Path) {
    let src = fs::read_to_string(path).expect("read corpus file");
    let (opts, expects) = parse_annotations(&src);
    assert!(
        !expects.is_empty(),
        "{}: corpus file has no // expect: annotations",
        path.display()
    );
    let out = compile(&src, opts).expect("chain");
    assert_eq!(
        out.schedules.len(),
        expects.len(),
        "{}: annotation count must match region count; schedule dump:\n{}",
        path.display(),
        out.schedules.join("\n")
    );
    for (k, (expect, line)) in expects.iter().zip(&out.schedules).enumerate() {
        // `skipped` regions render their reason in parentheses; token
        // matching keeps the annotations stable across wording tweaks.
        for token in expect.split_whitespace() {
            assert!(
                line.contains(token),
                "{}: region {k}: expected token {token:?} in {line:?}",
                path.display()
            );
        }
    }
    // Snapshots must stay executable: run the transformed unit, race
    // check on, to make sure the pinned schedules describe a live program
    // whose parallel loops are parallel.
    let (_, run) = compile_and_run(
        &src,
        parse_annotations(&src).0,
        InterpOptions {
            threads: 4,
            race_check: true,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("{}: transformed program fails: {e}", path.display()));
    assert_eq!(run.exit_code, 0, "{}", path.display());
}

#[test]
fn schedule_corpus_matches_annotations() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/schedules");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .expect("examples/schedules exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 2,
        "corpus must hold the fig03/fig07 snapshots"
    );
    for f in &files {
        check_file(f);
    }
}

#[test]
fn fig03_matmul_product_nest_is_parallel_and_tiled() {
    // Belt and braces for the headline figure: independent of the
    // annotation mechanism, the matmul product nest must come out as a
    // depth-2 parallel band when tiling is requested.
    let src = fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/schedules/fig03_matmul.c"),
    )
    .expect("read fig03");
    let (opts, _) = parse_annotations(&src);
    let out = compile(&src, opts).expect("chain");
    assert!(
        out.schedules
            .iter()
            .any(|l| l.contains("depth=2") && l.contains("parallel") && l.contains("tiled")),
        "schedule dump:\n{}",
        out.schedules.join("\n")
    );
    assert!(out.regions_tiled >= 1);
    assert!(out.regions_parallelized >= 1);
}
