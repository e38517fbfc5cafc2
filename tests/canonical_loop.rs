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

/// The bytecode tier lowers a `for` by its header's shape alone: a local
/// iterator compared `<` / `<=` against a local or a literal and stepped
/// by `++` gets the fused `AffineHead`/`AffineNext` pair at every opt
/// level, whatever the iterator's type, whoever wrote the loop and
/// whatever the body does to the iterator or the bound (the pair re-reads
/// both on every iteration). A global iterator or an `i += 1` step keeps
/// the literal lowering. Either way the VM, raw and optimized, agrees
/// with the resolved engine and the legacy tree-walker on exit code,
/// output and executed-op counters.
#[test]
fn a_loop_is_lowered_by_its_shape() {
    // (what, declarations, loop, fused back edge)
    let rows = [
        (
            "char",
            "char n = 9;",
            "for (char c = 1; c < n; c++) s = s + c;",
            true,
        ),
        (
            "short",
            "short n = 9;",
            "for (short c = 1; c <= n; ++c) s = s + c;",
            true,
        ),
        (
            "unsigned char",
            "unsigned char n = 9;",
            "for (unsigned char c = 1; c < n; c++) s = s + c;",
            true,
        ),
        (
            "long",
            "long n = 9;",
            "for (long c = 1; c < n; c++) s = s + c;",
            true,
        ),
        (
            "float",
            "float n = 6.5;",
            "for (float f = 0.25; f < n; f++) s = s + (int) (f * 4.0);",
            true,
        ),
        (
            "double",
            "double n = 6.5;",
            "for (double f = 0.5; f <= n; f++) s = s + (int) (f * 2.0);",
            true,
        ),
        (
            "int*",
            "int* e = a + 8;",
            "for (int* p = a; p < e; p++) s = s + *p;",
            true,
        ),
        (
            "literal bound",
            "",
            "for (int i = 0; i < 8; i++) s = s + a[i];",
            true,
        ),
        (
            "body writes the iterator",
            "int n = 12;",
            "for (int i = 0; i < n; i++) { s = s + i; if (i == 3) i = i + 2; }",
            true,
        ),
        (
            "body writes the bound",
            "int n = 12;",
            "for (int i = 0; i < n; i++) { s = s + i; n = n - 1; }",
            true,
        ),
        (
            "break and continue",
            "int n = 12;",
            "for (int i = 0; i < n; i++) { if (i == 2) continue; if (i == 6) break; s = s + i; }",
            true,
        ),
        (
            "no init",
            "int n = 9; int i = 2;",
            "for (; i < n; i++) s = s + i;",
            true,
        ),
        (
            "global iterator",
            "int n = 9;",
            "for (g = 0; g < n; g++) s = s + g;",
            false,
        ),
        (
            "step i += 1",
            "int n = 9;",
            "for (int i = 0; i < n; i += 1) s = s + i;",
            false,
        ),
    ];
    for (what, decls, the_loop, fused) in rows {
        let src = format!(
            "int g;\n\
             int main() {{\n\
                 int* a = (int*) malloc(8 * sizeof(int));\n\
                 for (int k = 0; k < 8; k += 1) a[k] = k * 3 + 1;\n\
                 int s = 0;\n\
                 {decls}\n\
                 {the_loop}\n\
                 printf(\"s=%d\\n\", s);\n\
                 return s & 255;\n\
             }}\n"
        );
        let parsed = parse(&src);
        assert!(
            !parsed.diags.has_errors(),
            "{what}: {}",
            parsed.diags.render_all(&src)
        );
        let prog = Program::new(&parsed.unit);
        for level in [0u8, 2] {
            let dump = prog.bytecode_at(level).dump();
            assert_eq!(
                dump.contains("AffineNext"),
                fused,
                "{what} level {level}:\n{dump}"
            );
        }
        let at = |opt_level: u8| InterpOptions {
            opt_level,
            ..Default::default()
        };
        let legacy = prog.run_legacy(at(2)).expect("legacy runs");
        let resolved = prog.run_resolved(at(2)).expect("resolved runs");
        assert_eq!(resolved.exit_code, legacy.exit_code, "{what}");
        assert_eq!(resolved.output, legacy.output, "{what}");
        assert_eq!(
            resolved.counters.without_memo(),
            legacy.counters.without_memo(),
            "{what}"
        );
        for level in [0u8, 2] {
            let vm = prog.run(at(level)).expect("VM runs");
            assert_eq!(vm.exit_code, resolved.exit_code, "{what} level {level}");
            assert_eq!(vm.output, resolved.output, "{what} level {level}");
            assert_eq!(
                vm.counters.without_memo(),
                resolved.counters.without_memo(),
                "{what} level {level}"
            );
        }
    }
}
