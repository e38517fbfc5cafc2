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

use cfront::ast::{Function, Stmt, StmtKind};
use cinterp::{Cost, InterpOptions, Summary};
use purec::chain::{compile, ChainOptions};
use std::collections::{HashMap, HashSet};
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

/// What each consumer does with a function is a function of its
/// [`Summary`] and the one-`return` shape alone, over every function of
/// the corpus: the inliner takes exactly the called leaves whose body is
/// one `return` over such leaves — recomputed here from the AST, not read
/// back from the pass — so two functions with equal records get equal
/// treatment; the memo cache and the spawn pass admit on one predicate
/// (const ∧ heavy), so a program without such a function has no spawn
/// site and never probes the cache.
#[test]
fn every_consumer_decides_from_the_summary_and_the_shape() {
    fn one_return(f: &Function) -> bool {
        let body = &f.body.as_ref().expect("a definition").stmts;
        matches!(
            body.as_slice(),
            [Stmt {
                kind: StmtKind::Return(_),
                ..
            }]
        )
    }
    fn callees<'a>(f: &'a Function, defined: &HashMap<&str, &Function>) -> Vec<&'a str> {
        let mut out = Vec::new();
        for s in &f.body.as_ref().expect("a definition").stmts {
            s.walk_exprs(&mut |e| {
                if let Some((name, _)) = e.as_direct_call() {
                    if defined.contains_key(name) {
                        out.push(name);
                    }
                }
            });
        }
        out
    }
    /// Leaf ⇒ acyclic, so the recursion ends.
    fn shape(
        f: &Function,
        defined: &HashMap<&str, &Function>,
        summaries: &HashMap<&str, Summary>,
    ) -> bool {
        summaries[f.name.as_str()].cost == Cost::Leaf
            && one_return(f)
            && callees(f, defined)
                .iter()
                .all(|g| shape(defined[g], defined, summaries))
    }
    // Programs a debug build runs in well under a second.
    let slow = [
        "spin.c",
        "churn.c",
        "scratch_pure.c",
        "schedules/fig03_matmul.c",
    ];
    let (mut inlined_somewhere, mut memoized_somewhere) = (0, 0);
    for (name, src) in corpus() {
        let Ok(chain) = compile(&src, ChainOptions::default()) else {
            continue;
        };
        let program = chain.program();
        let resolved = program.resolved();
        let summaries: HashMap<&str, Summary> = resolved.summaries().collect();
        let defs: Vec<&Function> = chain
            .unit
            .functions()
            .filter(|f| f.is_definition())
            .collect();
        let defined: HashMap<&str, &Function> =
            defs.iter().map(|f| (f.name.as_str(), *f)).collect();
        let called: HashSet<&str> = defs.iter().flat_map(|f| callees(f, &defined)).collect();

        let expected: Vec<&str> = defs
            .iter()
            .filter(|f| called.contains(f.name.as_str()) && shape(f, &defined, &summaries))
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(
            program.bytecode_at(2).inlined_functions(),
            expected,
            "{name}"
        );
        assert!(
            program.bytecode_at(0).inlined_functions().is_empty(),
            "{name}"
        );
        inlined_somewhere += expected.len();
        // Equal records, equal treatment.
        let mut treatment: HashMap<(Summary, bool), bool> = HashMap::new();
        for f in defs.iter().filter(|f| called.contains(f.name.as_str())) {
            let record = (summaries[f.name.as_str()], shape(f, &defined, &summaries));
            let inlined = expected.contains(&f.name.as_str());
            assert_eq!(
                *treatment.entry(record).or_insert(inlined),
                inlined,
                "{name}"
            );
        }

        let admitted = resolved.spawn_heavy_functions();
        memoized_somewhere += admitted.len();
        if admitted.is_empty() {
            assert!(resolved.spawn_sites().is_empty(), "{name}");
        }
        if slow.contains(&name.as_str()) {
            continue;
        }
        for opts in [
            InterpOptions::default(),
            InterpOptions {
                threads: 4,
                ..Default::default()
            },
        ] {
            for run in [program.run(opts), program.run_resolved(opts)]
                .into_iter()
                .flatten()
            {
                let probes = run.counters.memo_hits + run.counters.memo_misses;
                assert!(
                    probes == 0 || !admitted.is_empty(),
                    "{name}: {probes} probes"
                );
            }
        }
    }
    assert!(inlined_somewhere >= 8 && memoized_somewhere >= 5);
}
