//! SCoP marking — the second half of PC-CC (Sect. 3.2/3.4).
//!
//! Every `for`-loop nest whose calls are all verified pure
//! ([`unverified_calls`] finds none) gets its `scop` flag set — the mark
//! the paper writes as `#pragma scop` / `#pragma endscop`, and the one
//! the call substitution and the polyhedral transformer read. Before
//! marking, the pass runs the caller-side safety check of Listing 5: if
//! an assignment's target is something a pure call on its right-hand
//! side may read — it is mentioned in the call's arguments, or
//! it is a global the callee reads ([`pure_call_read_bases`]) — the
//! program is rejected (`PureParamWrittenInLoop`): the call's result
//! feeding back into its own input would make the iteration order
//! observable.
//!
//! The check compares variable *names* only; the alias deception of
//! Listing 6 is accepted, which the paper documents as a limitation.

use crate::purity::GlobalReads;
use crate::stdfns::PureSet;
use cfront::ast::*;
use cfront::diag::{Code, Diagnostics};
use cfront::span::Span;
use cfront::visit::visit_stmts_mut_pruned;
use std::collections::BTreeSet;

/// The one definition of "all calls verified pure": every call in the
/// subtree that `is_pure` does not vouch for, as `(callee, span)` — an
/// indirect call is never vouched for, the synthetic `__initlist` marker
/// is not a call. Empty means the subtree qualifies.
pub fn unverified_calls<'a>(
    stmt: &'a Stmt,
    is_pure: &dyn Fn(&str) -> bool,
) -> Vec<(&'a str, Span)> {
    let mut out = Vec::new();
    stmt.walk_exprs(&mut |e| {
        if let ExprKind::Call { callee, .. } = &e.kind {
            match callee.as_ident() {
                Some(name) if name == "__initlist" || is_pure(name) => {}
                Some(name) => out.push((name, e.span)),
                None => out.push(("(indirect)", e.span)),
            }
        }
    });
    out
}

/// The names through which a call to verified-pure `callee` may read
/// memory its caller can write — reads the placeholder that stands in
/// for the call hides from the dependence test: every identifier in the
/// argument list (a pointer the callee dereferences, or a subscript the
/// argument itself loads) and every global the callee may read.
pub fn pure_call_read_bases<'a>(
    callee: &str,
    args: &'a [Expr],
    reads: &'a GlobalReads,
) -> BTreeSet<&'a str> {
    let mut bases: BTreeSet<&str> = reads
        .get(callee)
        .into_iter()
        .flatten()
        .map(String::as_str)
        .collect();
    for arg in args {
        arg.walk(&mut |e| bases.extend(e.as_ident()));
    }
    bases
}

/// Outcome of SCoP marking over a translation unit.
#[derive(Debug, Default)]
pub struct ScopReport {
    /// Number of loop nests flagged as SCoPs.
    pub marked: usize,
    /// Number of loop nests skipped because they call impure functions.
    pub skipped_impure: usize,
    pub diags: Diagnostics,
}

/// Flag the outermost candidate nest wherever a `for` sits — a block item
/// or the bare body of an `if`, `while` or `for` — and look for candidates
/// inside every loop that is not one. Returns the report; on error
/// (`PureParamWrittenInLoop`) the unit is left partially marked and callers
/// must abort, mirroring the paper's compile error.
pub fn mark_scops(
    unit: &mut TranslationUnit,
    pure_set: &PureSet,
    reads: &GlobalReads,
) -> ScopReport {
    let mut report = ScopReport::default();
    let pure = Verified { pure_set, reads };
    for item in &mut unit.items {
        let Item::Function(f) = item else { continue };
        let Some(body) = &mut f.body else { continue };
        for stmt in &mut body.stmts {
            visit_stmts_mut_pruned(stmt, &mut |s| {
                if !matches!(s.kind, StmtKind::For { .. })
                    || !loop_nest_is_candidate(s, pure, &mut report)
                {
                    return true;
                }
                if let StmtKind::For { scop, .. } = &mut s.kind {
                    *scop = true;
                }
                report.marked += 1;
                false
            });
        }
    }
    report
}

/// What the verifier established: which functions are pure, and what
/// each may read through a global.
#[derive(Clone, Copy)]
struct Verified<'a> {
    pure_set: &'a PureSet,
    reads: &'a GlobalReads,
}

/// A loop nest qualifies when every function called anywhere inside is in
/// the pure registry, and the Listing-5 check passes.
fn loop_nest_is_candidate(stmt: &Stmt, pure: Verified, report: &mut ScopReport) -> bool {
    if !unverified_calls(stmt, &|name| pure.pure_set.contains(name)).is_empty() {
        report.skipped_impure += 1;
        return false;
    }
    let errors_before = report.diags.error_count();
    check_listing5(stmt, pure, &mut report.diags);
    // The paper *errors out* on the Listing-5 violation rather than merely
    // skipping the loop; on error the caller aborts the pipeline anyway.
    report.diags.error_count() == errors_before
}

/// Listing 5: an assignment must not feed a pure call's input back into
/// its own target — `array[i] = func(array, i)` makes the call's input
/// depend on the iteration order, and so does `g[i] = f(i)` when `f`
/// reads the global `g`. The check is per assignment statement (the
/// paper's "appears on the left-hand side of an assignment operator");
/// writes to the same array in *other* statements of the nest are the
/// legal double-buffer/copy patterns the evaluation programs use.
fn check_listing5(stmt: &Stmt, pure: Verified, diags: &mut Diagnostics) {
    stmt.walk_exprs(&mut |e| {
        let ExprKind::Assign(_, lhs, rhs) = &e.kind else {
            return;
        };
        let Some(target) = lhs.lvalue_root() else {
            return;
        };
        // Iterator variables are incremented by the loop itself; passing
        // them as scalar arguments is the normal pattern.
        if is_iterator_like(stmt, target) {
            return;
        }
        rhs.walk(&mut |sub| {
            let Some((name, args)) = sub.as_direct_call() else {
                return;
            };
            if !pure.pure_set.contains(name) || name == "__initlist" {
                return;
            }
            if !pure_call_read_bases(name, args, pure.reads).contains(target) {
                return;
            }
            let what = match pure.reads.get(name) {
                Some(globals) if globals.contains(target) => format!("global '{target}' read by"),
                _ => format!("argument '{target}' of"),
            };
            diags.error(
                Code::PureParamWrittenInLoop,
                e.span,
                format!(
                    "{what} pure function '{name}' is also assigned in \
                     this loop nest — the call's input depends on the iteration order \
                     (see paper Listing 5)"
                ),
            );
        });
    });
}

/// Is `name` one of the loop iterators of the nest rooted at `stmt`?
fn is_iterator_like(stmt: &Stmt, name: &str) -> bool {
    let mut found = false;
    stmt.walk(&mut |s| {
        if let StmtKind::For { init, step, .. } = &s.kind {
            found |= init.bound_names().any(|n| n == name);
            if let Some(se) = step {
                let mut root = None;
                match &se.kind {
                    ExprKind::Unary(op, inner) if op.writes_operand() => {
                        root = inner.as_ident();
                    }
                    ExprKind::Assign(_, lhs, _) => root = lhs.as_ident(),
                    _ => {}
                }
                if root == Some(name) {
                    found = true;
                }
            }
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::purity::verify_unit;
    use cfront::parser::parse;

    /// `scop` flags of every `for` in the unit, outside-in.
    fn scop_flags(unit: &TranslationUnit) -> Vec<bool> {
        let mut flags = Vec::new();
        for f in unit.functions() {
            for s in f.body.iter().flat_map(|b| &b.stmts) {
                s.walk(&mut |s| {
                    if let StmtKind::For { scop, .. } = s.kind {
                        flags.push(scop);
                    }
                });
            }
        }
        flags
    }

    fn run(src: &str) -> (TranslationUnit, ScopReport) {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        let mut unit = r.unit;
        let purity = verify_unit(&unit, PureSet::seeded());
        assert!(purity.ok(), "{:?}", purity.diags.items());
        let report = mark_scops(&mut unit, &purity.pure_set, &purity.global_reads);
        (unit, report)
    }

    #[test]
    fn matmul_loop_is_marked() {
        let (unit, report) = run("float **A, **Bt, **C;\n\
             pure float dot(pure float* a, pure float* b, int size) { return a[0] * b[0]; }\n\
             int main() {\n\
                 for (int i = 0; i < 4096; ++i)\n\
                     for (int j = 0; j < 4096; ++j)\n\
                         C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], 4096);\n\
                 return 0;\n\
             }");
        assert_eq!(report.marked, 1);
        assert!(!report.diags.has_errors());
        assert_eq!(scop_flags(&unit), [true, false]);
    }

    #[test]
    fn loop_calling_impure_function_is_not_marked() {
        let (_, report) = run("void log_step(int i);\n\
             int main() {\n\
                 for (int i = 0; i < 10; i++) log_step(i);\n\
                 return 0;\n\
             }");
        assert_eq!(report.marked, 0);
        assert_eq!(report.skipped_impure, 1);
    }

    #[test]
    fn listing5_feedback_through_pure_call_is_error() {
        let r = parse(
            "pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }\n\
             int main() {\n\
                 int array[100];\n\
                 for (int i = 1; i < 100; i++)\n\
                     array[i] = func((pure int*)array, i);\n\
                 return 0;\n\
             }",
        );
        assert!(!r.diags.has_errors());
        let mut unit = r.unit;
        let purity = verify_unit(&unit, PureSet::seeded());
        assert!(purity.ok());
        let report = mark_scops(&mut unit, &purity.pure_set, &purity.global_reads);
        assert!(report.diags.has_code(Code::PureParamWrittenInLoop));
    }

    #[test]
    fn listing6_alias_deceives_the_check() {
        // Documented limitation: the alias hides the hazard.
        let r = parse(
            "pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }\n\
             int main() {\n\
                 int array[100];\n\
                 int* alias = array;\n\
                 for (int i = 1; i < 100; i++)\n\
                     alias[i] = func((pure int*)array, i);\n\
                 return 0;\n\
             }",
        );
        let mut unit = r.unit;
        let purity = verify_unit(&unit, PureSet::seeded());
        let report = mark_scops(&mut unit, &purity.pure_set, &purity.global_reads);
        // No error, loop marked — exactly the deception of Listing 6.
        assert!(!report.diags.has_errors());
        assert_eq!(report.marked, 1);
    }

    #[test]
    fn iterator_argument_is_not_a_hazard() {
        let (_, report) = run("pure int f(int i) { return i * 2; }\n\
             int main() {\n\
                 int out[10];\n\
                 for (int i = 0; i < 10; i++) out[i] = f(i);\n\
                 return 0;\n\
             }");
        assert!(!report.diags.has_errors());
        assert_eq!(report.marked, 1);
    }

    #[test]
    fn plain_affine_loop_without_calls_is_marked() {
        let (_, report) = run("int main() {\n\
                 float a[64][64];\n\
                 for (int i = 0; i < 64; i++)\n\
                     for (int j = 0; j < 64; j++)\n\
                         a[i][j] = i + j;\n\
                 return 0;\n\
             }");
        assert_eq!(report.marked, 1);
    }

    #[test]
    fn malloc_init_loop_is_marked_as_pure() {
        // The Fig. 3 artifact: the allocation loop qualifies because malloc
        // is in the seeded registry.
        let (_, report) = run("float** A;\n\
             int main() {\n\
                 for (int i = 0; i < 4096; i++)\n\
                     A[i] = (float*) malloc(4096 * sizeof(float));\n\
                 return 0;\n\
             }");
        assert_eq!(report.marked, 1);
    }

    #[test]
    fn malloc_loop_not_marked_without_alloc_rule() {
        // Ablation A1: withdrawing malloc from the registry demotes the loop.
        let r = parse(
            "float** A;\n\
             int main() {\n\
                 for (int i = 0; i < 8; i++) A[i] = (float*) malloc(8);\n\
                 return 0;\n\
             }",
        );
        let mut unit = r.unit;
        let set = PureSet::seeded_without_alloc();
        let report = mark_scops(&mut unit, &set, &GlobalReads::new());
        assert_eq!(report.marked, 0);
        assert_eq!(report.skipped_impure, 1);
    }

    #[test]
    fn only_outermost_loop_of_nest_is_wrapped() {
        let (unit, report) = run("int main() {\n\
                 int a[8][8];\n\
                 for (int i = 0; i < 8; i++)\n\
                     for (int j = 0; j < 8; j++)\n\
                         a[i][j] = 0;\n\
                 return 0;\n\
             }");
        assert_eq!(report.marked, 1);
        assert_eq!(scop_flags(&unit), [true, false]);
    }

    #[test]
    fn two_sibling_loops_both_marked() {
        let (unit, report) = run("int main() {\n\
                 int a[8];\n\
                 for (int i = 0; i < 8; i++) a[i] = i;\n\
                 for (int j = 0; j < 8; j++) a[j] = a[j] * 2;\n\
                 return 0;\n\
             }");
        assert_eq!(report.marked, 2);
        assert_eq!(scop_flags(&unit), [true, true]);
    }
}
