//! The OpenMP canonical loop header has one recogniser
//! (`cfront::omp::canonical_for`); this is its table — one row per
//! accepted spelling and per `HeaderError` — and the check that its
//! consumers agree on every row: polycc's extractor models the loop ⇔
//! the lowering accepts the header ⇔ the VM, the resolved engine and
//! the legacy tree-walker run it. (At the parent commit the extractor
//! refused `for (int i = 0; j < 8; i++)` while every engine ran it
//! eight times, and accepted `i = i + 1` while every engine refused it.)

use cfront::ast::{Stmt, StmtKind};
use cfront::omp::{canonical_for, HeaderError};
use pure_c::prelude::*;

/// `(header, why it is not canonical)`.
fn rows() -> Vec<(&'static str, Option<HeaderError<'static>>)> {
    use HeaderError::*;
    vec![
        ("int i = 0; i < 8; i++", None),
        ("int i = 0; i <= 7; ++i", None),
        ("int i = 0; i < 8; i += 1", None),
        ("int i = 0; i < 8; i = i + 1", None),
        ("int i = 0; i < 8; i = 1 + i", None),
        ("k = 0; k < 8; k++", None),
        ("int i = 0, m = 0; i < 8; i++", Some(MultipleDeclarators)),
        ("int i; i < 8; i++", Some(UninitializedIterator)),
        ("k += 0; k < 8; k++", Some(InitNotAssignment)),
        ("a[0] = 0; k < 8; k++", Some(InitTargetNotVariable)),
        ("; k < 8; k++", Some(NoInit)),
        ("int i = 0; ; i++", Some(NoCondition)),
        ("int i = 0; i; i++", Some(ConditionNotComparison)),
        ("int i = 0; j < 8; i++", Some(ConditionNotOnIterator("i"))),
        ("int i = 0; 8 > i; i++", Some(ConditionNotOnIterator("i"))),
        ("int i = 0; i != 8; i++", Some(ConditionNotLess)),
        ("int i = 7; i > 0; i++", Some(ConditionNotLess)),
        ("int i = 0; i < 8; ", Some(NoStep)),
        ("int i = 0; i < 8; i += 2", Some(NonUnitStep("i"))),
        ("int i = 0; i < 8; i = i + 2", Some(NonUnitStep("i"))),
        ("int i = 0; i < 8; i--", Some(NonUnitStep("i"))),
        ("int i = 0; i < 8; j++", Some(NonUnitStep("i"))),
    ]
}

fn program(header: &str) -> String {
    format!(
        "int main() {{\n\
             int* a = (int*) malloc(8 * sizeof(int));\n\
             int j = 0;\n\
             int k = 0;\n\
         #pragma omp parallel for\n\
             for ({header}) a[j] = 1;\n\
             return a[0];\n\
         }}\n"
    )
}

fn the_loop(unit: &cfront::ast::TranslationUnit) -> &Stmt {
    let main = unit.functions().next().expect("main");
    main.body
        .iter()
        .flat_map(|b| &b.stmts)
        .find(|s| matches!(s.kind, StmtKind::For { .. }))
        .expect("a for")
}

#[test]
fn every_consumer_agrees_on_every_header() {
    for (header, why_not) in rows() {
        let src = program(header);
        let parsed = parse(&src);
        assert!(!parsed.diags.has_errors(), "{header}");
        let unit = parsed.unit;
        let for_stmt = the_loop(&unit);

        // The recogniser itself.
        assert_eq!(canonical_for(for_stmt).err(), why_not, "{header}");

        // polycc's extractor (the bounds and the one subscript are
        // affine and every iterator is an `int`, so the header decides).
        let globals = polyhedral::IterTypes::of_globals(&unit);
        let types = globals.in_function(unit.functions().next().expect("main"));
        let extracted = polyhedral::extract_scop(for_stmt, &types);
        assert_eq!(extracted.is_ok(), why_not.is_none(), "extract: {header}");

        // Lowering and the three engines: `a[0] = 1` or one error text.
        let prog = Program::new(&unit);
        let opts = InterpOptions::default();
        let outcomes = [
            prog.run(opts),
            prog.run_resolved(opts),
            prog.run_legacy(opts),
        ]
        .map(|run| run.map(|r| r.exit_code).map_err(|e| e.message));
        assert!(
            outcomes.iter().all(|o| o == &outcomes[0]),
            "{header}: {outcomes:?}"
        );
        match why_not {
            None => assert_eq!(outcomes[0], Ok(1), "{header}"),
            Some(_) => {
                let message = outcomes[0].clone().expect_err(header);
                assert!(message.contains("parallel loop"), "{header}: {message}");
            }
        }
    }
}

/// The extractor takes only an integer for an iterator: one declared so
/// in the init, or one every declaration of which in the function is.
#[test]
fn extractor_admits_integer_iterators_only() {
    let cases = [
        (
            "void f(int* a, int n) { for (int i = 0; i < n; i++) a[0] = 0; }",
            true,
        ),
        (
            "void f(int* a, int n) { for (long i = 0; i < n; i++) a[0] = 0; }",
            true,
        ),
        (
            "void f(int* a, int n) { for (float i = 0; i < n; i++) a[0] = 0; }",
            false,
        ),
        (
            "void f(int* a, int n) { for (int* p = a; p < a + n; p++) a[0] = 0; }",
            false,
        ),
        (
            "void f(int* a, int n, int i) { for (i = 0; i < n; i++) a[0] = 0; }",
            true,
        ),
        (
            "void f(int* a, int n) { int i; for (i = 0; i < n; i++) a[0] = 0; }",
            true,
        ),
        (
            "void f(int* a, int n, int* i) { for (i = a; i < a + n; i++) a[0] = 0; }",
            false,
        ),
        // Declared twice in the function, once as a pointer.
        (
            "void f(int* a, int n, int i) { for (i = 0; i < n; i++) a[0] = 0; { int* i = a; } }",
            false,
        ),
        // Never seen declared.
        (
            "void f(int* a, int n) { for (g = 0; g < n; g++) a[0] = 0; }",
            false,
        ),
    ];
    for (src, admitted) in cases {
        let unit = parse(src).unit;
        let f = unit.functions().next().expect("f");
        let globals = polyhedral::IterTypes::of_globals(&unit);
        let types = globals.in_function(f);
        let extracted = polyhedral::extract_scop(the_loop(&unit), &types);
        assert_eq!(extracted.is_ok(), admitted, "{src}");
        if !admitted {
            let diags = extracted.unwrap_err();
            let message = &diags.items()[0].message;
            assert!(
                message.contains("is not an integer variable"),
                "{src}: {message}"
            );
        }
    }
    // A global iterator is seen through the unit's declarations.
    let unit = parse("int g; void f(int* a) { for (g = 0; g < 4; g++) a[g] = 0; }").unit;
    let f = unit.functions().next().expect("f");
    let globals = polyhedral::IterTypes::of_globals(&unit);
    let types = globals.in_function(f);
    assert!(polyhedral::extract_scop(the_loop(&unit), &types).is_ok());
}
