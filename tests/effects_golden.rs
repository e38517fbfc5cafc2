//! The effect summary of every checked-in program, pinned.
//!
//! `tests/golden/effects.txt` lists `(program, function, class, cost,
//! spawn sites)` for every `.c` under `examples/`, the four demo
//! applications and the `compile_heavy`-shaped unit. It was generated at
//! commit 1e37342 — before `cinterp::effects` existed — from the three
//! accessors the old `CacheScan` / `mark_cacheable` / `mark_spawn_heavy`
//! walkers fed (`cacheable_functions`, `spawn_heavy_functions`,
//! `spawn_sites`) and is checked in unchanged: the one-summary refactor's
//! equivalence proof now that the old code is gone.

use purec::chain::{compile, ChainOptions};
use std::path::Path;

include!("support/corpus.rs");
include!("support/heavy_unit.rs");

fn corpus() -> Vec<(String, String)> {
    let mut corpus = example_programs();
    corpus.push(("demo:matmul".into(), apps::matmul::c_source(12)));
    corpus.push(("demo:heat".into(), apps::heat::c_source(8, 3)));
    corpus.push(("demo:satellite".into(), apps::satellite::c_source(6, 6)));
    corpus.push(("demo:lama".into(), apps::lama::c_source(32, 5)));
    corpus.push(("support:heavy_unit(3)".into(), heavy_unit(3)));
    corpus
}

/// One line per function definition, in definition order.
fn render() -> String {
    let mut out = String::new();
    for (name, src) in corpus() {
        // The three programs of `purity_holes.c` are the ones the
        // verifier must reject; they have no lowered form to summarize.
        let Ok(chain) = compile(&src, ChainOptions::default()) else {
            assert_eq!(name, "analysis/purity_holes.c", "{name} must compile");
            continue;
        };
        let verified = chain.verified_pure_set();
        let program = chain.program();
        let resolved = program.resolved();
        let (konst, heavy, sites) = (
            resolved.cacheable_functions(),
            resolved.spawn_heavy_functions(),
            resolved.spawn_sites(),
        );
        for f in chain.unit.functions().filter(|f| f.is_definition()) {
            let f = f.name.as_str();
            let is_const = konst.contains(&f);
            let class = match (is_const, verified.contains(f)) {
                (true, _) => "const",
                (false, true) => "pure",
                (false, false) => "impure",
            };
            // The old walkers knew a cost only for const functions.
            let cost = match (is_const, heavy.contains(&f)) {
                (true, true) => "heavy",
                (true, false) => "leaf",
                (false, _) => "-",
            };
            let n = sites.iter().find(|(g, _)| *g == f).map_or(0, |(_, n)| *n);
            out.push_str(&format!("{name} {f} {class} {cost} {n}\n"));
        }
    }
    out
}

#[test]
fn effect_summaries_match_the_golden_of_the_parent_commit() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/effects.txt");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let actual = render();
    assert!(
        golden == actual,
        "effect summaries moved; golden:\n{golden}\nactual:\n{actual}"
    );
}
