//! Final lowering of the `pure` extension back to standard C (Sect. 3.2,
//! last paragraph): the keyword would be a syntax error for GCC, so
//!
//! * `pure` pointer qualifiers (parameters, locals, casts) are replaced by
//!   `const` — similar but weaker semantics;
//! * the `pure` prefix on functions is removed entirely — C has no
//!   equivalent keyword (`const` would bind to the return type);
//! * the SCoP flag PC-CC set on a loop is cleared, so no final text
//!   carries a `#pragma scop` marker.
//!
//! Lowering never changes program behaviour; it only removes the extension.

use cfront::ast::*;
use cfront::visit::{visit_stmts_mut, visit_types_mut};

/// Statistics from one lowering run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LowerStats {
    pub functions_unmarked: usize,
    pub pointers_consted: usize,
}

/// Lower `pure` constructs in-place.
pub fn lower_pure(unit: &mut TranslationUnit) -> LowerStats {
    let mut stats = LowerStats::default();
    for item in &mut unit.items {
        match item {
            Item::Function(f) => {
                if f.is_pure {
                    f.is_pure = false;
                    stats.functions_unmarked += 1;
                }
                for p in &mut f.params {
                    lower_type(&mut p.ty, &mut stats);
                }
                lower_type(&mut f.ret, &mut stats);
                if let Some(body) = &mut f.body {
                    for stmt in &mut body.stmts {
                        visit_types_mut(stmt, &mut |ty| lower_type(ty, &mut stats));
                        visit_stmts_mut(stmt, &mut |s| {
                            if let StmtKind::For { scop, .. } = &mut s.kind {
                                *scop = false;
                            }
                        });
                    }
                }
            }
            Item::Decl(d) => {
                for dec in &mut d.declarators {
                    lower_type(&mut dec.ty, &mut stats);
                }
            }
            Item::Typedef(t) => lower_type(&mut t.ty, &mut stats),
            Item::Struct(s) => {
                for f in &mut s.fields {
                    lower_type(&mut f.ty, &mut stats);
                }
            }
            Item::Pragma(_) => {}
        }
    }
    stats
}

fn lower_type(ty: &mut Type, stats: &mut LowerStats) {
    if ty.pure_qual {
        ty.pure_qual = false;
        // `pure T*` → `const T*`: write protection of the pointee.
        ty.base_const = true;
        stats.pointers_consted += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::parser::parse;
    use cfront::printer::print_unit;

    fn lower(src: &str) -> (String, LowerStats) {
        let mut unit = parse(src).unit;
        let stats = lower_pure(&mut unit);
        (print_unit(&unit), stats)
    }

    #[test]
    fn listing7_lowers_to_listing8_signature() {
        // Paper Listing 8: `pure float dot(pure float* a, ...)` becomes
        // `float dot(const float* a, ...)`.
        let (out, stats) =
            lower("pure float dot(pure float* a, pure float* b, int size) { return a[0] * b[0]; }");
        assert!(
            out.contains("float dot(const float* a, const float* b, int size)"),
            "{out}"
        );
        assert!(!out.contains("pure"), "{out}");
        assert_eq!(stats.functions_unmarked, 1);
        assert_eq!(stats.pointers_consted, 2);
    }

    #[test]
    fn pure_casts_become_const_casts() {
        let (out, _) = lower(
            "float** A;\n\
             float dot(const float* a);\n\
             int main() { float x = dot((pure float*)A[0]); return 0; }",
        );
        assert!(out.contains("(const float*)A[0]"), "{out}");
        assert!(!out.contains("pure"));
    }

    #[test]
    fn pure_locals_become_const_locals() {
        let (out, _) = lower(
            "int* g;\n\
             pure int f(void) { pure int* p = (pure int*)g; return p[0]; }",
        );
        assert!(out.contains("const int* p = (const int*)g;"), "{out}");
    }

    #[test]
    fn lowered_output_reparses_without_pure() {
        let (out, _) = lower(
            "pure float mult(float a, float b) { return a * b; }\n\
             int main() { return 0; }",
        );
        let r = parse(&out);
        assert!(!r.diags.has_errors());
        for f in r.unit.functions() {
            assert!(!f.is_pure);
        }
    }

    #[test]
    fn lowering_is_idempotent() {
        let src = "pure int f(pure int* p) { return p[0]; }";
        let mut unit = parse(src).unit;
        lower_pure(&mut unit);
        let once = print_unit(&unit);
        let stats = lower_pure(&mut unit);
        assert_eq!(stats, LowerStats::default());
        assert_eq!(print_unit(&unit), once);
    }

    #[test]
    fn plain_code_is_untouched() {
        let src = "int add(int a, int b) {\n    return a + b;\n}\n";
        let (out, stats) = lower(src);
        assert_eq!(out, src);
        assert_eq!(stats, LowerStats::default());
    }
}
