//! SCoP marking — the second half of PC-CC (Sect. 3.2/3.4).
//!
//! Every `for`-loop nest whose calls are all verified pure
//! ([`unverified_calls`] finds none) and whose accesses the polyhedral
//! model can be trusted on ([`nest_hazards`] finds none) gets its `scop`
//! flag set — the mark the paper writes as `#pragma scop` /
//! `#pragma endscop`, and the one the call substitution and the
//! polyhedral transformer read.
//!
//! The model keys dependences by base *name* and sees each pure call as
//! an opaque `tmpConst_*` placeholder, so three things must not happen in
//! a nest it is handed:
//!
//! 1. **Listing 5** — an assignment's target is something a pure call on
//!    its own right-hand side may read (it is mentioned in the call's
//!    arguments, or it is a global the callee reads:
//!    [`pure_call_read_bases`]). The paper rejects the program
//!    (`PureParamWrittenInLoop`): the call's result feeding back into its
//!    own input would make the iteration order observable.
//! 2. **A call reads what the nest writes** — a pure call's read base is,
//!    or may alias, a base the nest writes through a pointer. The
//!    placeholder hides that flow dependence, across statements too.
//! 3. **Two names, one array** — two distinct accessed bases may alias
//!    ([`AliasGroups`]), and one of them is written: the per-name test
//!    calls them disjoint. Listing 6 is the paper's example: it deceives
//!    the per-assignment rule of hazard 1, so it still compiles, but its
//!    nest is no longer a SCoP.
//!
//! Hazards 2 and 3 are not errors: such a nest is simply not a SCoP, and
//! the nests inside it are judged on their own. The race analyzer
//! (`analysis::race`) runs the same walk on every `omp parallel for`.

use crate::purity::GlobalReads;
use crate::stdfns::PureSet;
use cfront::ast::*;
use cfront::diag::{Code, Diagnostics};
use cfront::span::Span;
use cfront::visit::visit_stmts_mut_pruned;
use std::collections::{BTreeSet, HashMap};

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

/// Which names of one function body may hold the same pointer value: a
/// flow-insensitive union-find over names, joined whenever one name is
/// initialized or assigned from an expression whose pointer value could
/// derive from another (`int* q = a;`, `p = buf + off;`). The dependence
/// test keys accesses by base name, so any group with two members makes
/// per-name disjointness unsound for that pair.
#[derive(Debug, Default)]
pub struct AliasGroups {
    parent: HashMap<String, String>,
}

impl AliasGroups {
    /// Union every declared or assigned name with the pointer-value bases
    /// of its initializer, across the whole function body (deep walk).
    pub fn of_function(body: &Block) -> AliasGroups {
        let mut g = AliasGroups::default();
        let mut join = |name: &str, rhs: &Expr| {
            let mut bases = BTreeSet::new();
            pointer_value_bases(rhs, &mut bases);
            // In name order, so a group's root (which diagnostics name)
            // does not depend on the walk.
            for base in bases {
                g.union(name, base);
            }
        };
        for s in &body.stmts {
            s.walk(&mut |s| {
                let decl = match &s.kind {
                    StmtKind::Decl(d) => d,
                    StmtKind::For { init, .. } => match init.as_ref() {
                        ForInit::Decl(d) => d,
                        _ => return,
                    },
                    _ => return,
                };
                for dec in &decl.declarators {
                    if let Some(init) = &dec.init {
                        join(&dec.name, init);
                    }
                }
            });
            s.walk_exprs(&mut |e| {
                if let ExprKind::Assign(_, lhs, rhs) = &e.kind {
                    if let Some(name) = lhs.as_ident() {
                        join(name, rhs);
                    }
                }
            });
        }
        g
    }

    /// The root of `name`'s group — the name diagnostics cite.
    pub fn find<'a>(&'a self, name: &'a str) -> &'a str {
        let mut cur = name;
        while let Some(p) = self.parent.get(cur) {
            cur = p;
        }
        cur
    }

    fn union(&mut self, a: &str, b: &str) {
        let ra = self.find(a).to_string();
        let rb = self.find(b).to_string();
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    pub fn may_alias(&self, a: &str, b: &str) -> bool {
        a == b || self.find(a) == self.find(b)
    }
}

/// Names whose pointer value could flow out of `e`: the bases reachable
/// through casts, unary ops, `+`/`-` arithmetic, subscripts, member
/// access, ternary arms and comma tails. Over-approximates (a scalar
/// operand lands in the set too), which only ever costs precision, never
/// soundness — calls are the one deliberate omission, since `malloc` and
/// verified-pure callees return values that cannot write-alias caller
/// state.
fn pointer_value_bases<'a>(e: &'a Expr, out: &mut BTreeSet<&'a str>) {
    match &e.kind {
        ExprKind::Ident(n) => {
            out.insert(n);
        }
        ExprKind::Cast(_, inner) | ExprKind::Unary(_, inner) => pointer_value_bases(inner, out),
        ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) => {
            pointer_value_bases(l, out);
            pointer_value_bases(r, out);
        }
        ExprKind::Index(base, _) => pointer_value_bases(base, out),
        ExprKind::Ternary(_, t, f) => {
            pointer_value_bases(t, out);
            pointer_value_bases(f, out);
        }
        ExprKind::Comma(_, r) => pointer_value_bases(r, out),
        ExprKind::Member { base, .. } => pointer_value_bases(base, out),
        _ => {}
    }
}

/// One way a nest breaks what the per-name dependence model, with pure
/// calls opaque, assumes (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hazard<'a> {
    /// Listing 5: the assignment at `span` writes `target`, which the
    /// pure call to `callee` on its own right-hand side may read.
    Feedback {
        span: Span,
        target: &'a str,
        callee: &'a str,
    },
    /// The pure call to `callee` at `span` may read `base`, which is —
    /// or may alias — `written`, a base the nest writes through a
    /// pointer. Once per callee and base.
    CallReadsWritten {
        span: Span,
        callee: &'a str,
        base: &'a str,
        written: &'a str,
    },
    /// `written` (written through a pointer in the nest) and `other`
    /// (accessed in it) are distinct names that may alias. Once per pair.
    AliasedPair { written: &'a str, other: &'a str },
}

/// Every [`Hazard`] of the loop nest `nest`, header included: Listing-5
/// feedback first, in walk order, then the calls that read what the nest
/// writes, in walk order, then the aliasing pairs in name order.
/// `aliases` are the groups of the enclosing function.
pub fn nest_hazards<'a>(
    nest: &'a Stmt,
    pure_set: &PureSet,
    reads: &'a GlobalReads,
    aliases: &AliasGroups,
) -> Vec<Hazard<'a>> {
    let mut out = Vec::new();
    let pure_calls = |e: &'a Expr| {
        e.as_direct_call()
            .filter(|(name, _)| *name != "__initlist" && pure_set.contains(name))
    };

    // Iterator variables are written by the loops themselves; passing one
    // as a scalar argument is the normal pattern, not feedback.
    let mut iterators: BTreeSet<&str> = BTreeSet::new();
    nest.walk(&mut |s| {
        if let StmtKind::For { init, step, .. } = &s.kind {
            iterators.extend(init.bound_names());
            match step.as_ref().map(|e| &e.kind) {
                Some(ExprKind::Unary(op, inner)) if op.writes_operand() => {
                    iterators.extend(inner.as_ident())
                }
                Some(ExprKind::Assign(_, lhs, _)) => iterators.extend(lhs.as_ident()),
                _ => {}
            }
        }
    });

    // Listing 5, per assignment (the paper's "appears on the left-hand
    // side of an assignment operator"): writes to the same array in
    // *other* statements are hazard 2's business.
    nest.walk_exprs(&mut |e| {
        let ExprKind::Assign(_, lhs, rhs) = &e.kind else {
            return;
        };
        let Some(target) = lhs.lvalue_root().filter(|t| !iterators.contains(t)) else {
            return;
        };
        rhs.walk(&mut |sub| {
            if let Some((callee, args)) = pure_calls(sub) {
                if pure_call_read_bases(callee, args, reads).contains(target) {
                    out.push(Hazard::Feedback {
                        span: e.span,
                        target,
                        callee,
                    });
                }
            }
        });
    });

    // What the nest writes through a pointer, and what it accesses.
    let mut written: BTreeSet<&str> = BTreeSet::new();
    let mut accessed: BTreeSet<&str> = BTreeSet::new();
    nest.walk_exprs(&mut |e| match &e.kind {
        ExprKind::Assign(_, lhs, _) if lhs.writes_through_pointer() => {
            pointer_value_bases(lhs, &mut written);
        }
        ExprKind::Unary(op, inner) if op.writes_operand() && inner.writes_through_pointer() => {
            pointer_value_bases(inner, &mut written);
        }
        ExprKind::Index(base, _) => pointer_value_bases(base, &mut accessed),
        ExprKind::Unary(UnOp::Deref, inner) => pointer_value_bases(inner, &mut accessed),
        _ => {}
    });
    if written.is_empty() {
        return out;
    }
    accessed.extend(&written);

    // A pure call may read any memory its pointer arguments reach, and
    // the globals it reads: a read of a written base is a flow
    // dependence the placeholder erases.
    let mut flagged: BTreeSet<(&str, &str)> = BTreeSet::new();
    nest.walk_exprs(&mut |e| {
        let Some((callee, args)) = pure_calls(e) else {
            return;
        };
        for base in pure_call_read_bases(callee, args, reads) {
            // Name the base itself when it is written, else an alias.
            let hit = written
                .get(base)
                .or_else(|| written.iter().find(|w| aliases.may_alias(base, w)));
            if let Some(&w) = hit {
                if flagged.insert((callee, base)) {
                    out.push(Hazard::CallReadsWritten {
                        span: e.span,
                        callee,
                        base,
                        written: w,
                    });
                }
            }
        }
    });

    // Two distinct names that may hold the same pointer value (`int* q =
    // a;`, or `p = a; q = a;` where neither was assigned from the other)
    // defeat the per-name test whenever one of them is written.
    let mut pairs: BTreeSet<(&str, &str)> = BTreeSet::new();
    for &w in &written {
        for &o in &accessed {
            if w != o && aliases.may_alias(w, o) && pairs.insert((w.min(o), w.max(o))) {
                out.push(Hazard::AliasedPair {
                    written: w,
                    other: o,
                });
            }
        }
    }
    out
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
    for item in &mut unit.items {
        let Item::Function(f) = item else { continue };
        let Some(body) = &mut f.body else { continue };
        let pure = Verified {
            pure_set,
            reads,
            aliases: &AliasGroups::of_function(body),
        };
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

/// What the verifier established: which functions are pure and what each
/// may read through a global — and which names of the function at hand
/// may alias.
#[derive(Clone, Copy)]
struct Verified<'a> {
    pure_set: &'a PureSet,
    reads: &'a GlobalReads,
    aliases: &'a AliasGroups,
}

/// A loop nest qualifies when every function called anywhere inside is in
/// the pure registry and [`nest_hazards`] finds nothing. Listing-5
/// feedback is an error; the other hazards only disqualify the nest.
fn loop_nest_is_candidate(stmt: &Stmt, pure: Verified, report: &mut ScopReport) -> bool {
    if !unverified_calls(stmt, &|name| pure.pure_set.contains(name)).is_empty() {
        report.skipped_impure += 1;
        return false;
    }
    let hazards = nest_hazards(stmt, pure.pure_set, pure.reads, pure.aliases);
    for h in &hazards {
        let Hazard::Feedback {
            span,
            target,
            callee,
        } = *h
        else {
            continue;
        };
        let what = match pure.reads.get(callee) {
            Some(globals) if globals.contains(target) => format!("global '{target}' read by"),
            _ => format!("argument '{target}' of"),
        };
        // The paper *errors out* on the Listing-5 violation rather than
        // merely skipping the loop; on error the caller aborts the
        // pipeline anyway.
        report.diags.error(
            Code::PureParamWrittenInLoop,
            span,
            format!(
                "{what} pure function '{callee}' is also assigned in \
                 this loop nest — the call's input depends on the iteration order \
                 (see paper Listing 5)"
            ),
        );
    }
    hazards.is_empty()
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
    fn listing6_alias_is_no_error_and_no_scop() {
        // The alias still slips past Listing 5's per-assignment rule (no
        // error), but `alias` and `array` are one array to the hazard
        // walk: the nest is not handed to the per-name model.
        let (unit, report) = run(
            "pure int func(pure int* a, int idx) { return a[idx - 1] + a[idx]; }\n\
             int main() {\n\
                 int array[100];\n\
                 int* alias = array;\n\
                 for (int i = 1; i < 100; i++)\n\
                     alias[i] = func((pure int*)array, i);\n\
                 return 0;\n\
             }",
        );
        assert!(!report.diags.has_errors());
        assert_eq!((report.marked, report.skipped_impure), (0, 0));
        assert_eq!(scop_flags(&unit), [false]);
    }

    #[test]
    fn a_call_reading_what_another_statement_writes_is_no_scop() {
        // Listing 5 split over two statements, and the same through a
        // global the callee reads: no assignment feeds its own call, but
        // the placeholder would hide the read of `a` / `g`.
        for src in [
            "pure int f(pure int* v, int i) { return v[i + 1]; }\n\
             int main() {\n\
                 int a[100], b[100];\n\
                 for (int i = 0; i < 99; i++) { b[i] = f((pure int*)a, i); a[i] = 0; }\n\
                 return 0;\n\
             }",
            "int g[100];\n\
             pure int f(int i) { return g[i + 1]; }\n\
             int main() {\n\
                 int b[100];\n\
                 for (int i = 0; i < 99; i++) { b[i] = f(i); g[i] = 0; }\n\
                 return 0;\n\
             }",
        ] {
            let (unit, report) = run(src);
            assert!(!report.diags.has_errors(), "{src}");
            assert_eq!(report.marked, 0, "{src}");
            assert_eq!(scop_flags(&unit), [false], "{src}");
        }
    }

    #[test]
    fn a_hazard_nest_hands_its_inner_nests_to_the_check() {
        // The heat shape: the time loop's stencil call reads `cur`, which
        // its copy nest writes — the time loop is no SCoP, each spatial
        // nest is.
        let (unit, report) = run("float *cur, *nxt;\n\
             pure float avg(pure float* r, int j) { return r[j - 1] + r[j + 1]; }\n\
             int main() {\n\
                 for (int t = 0; t < 4; t++) {\n\
                     for (int j = 1; j < 63; j++) nxt[j] = avg((pure float*)cur, j);\n\
                     for (int j = 1; j < 63; j++) cur[j] = nxt[j];\n\
                 }\n\
                 return 0;\n\
             }");
        assert_eq!((report.marked, report.skipped_impure), (2, 0));
        assert_eq!(scop_flags(&unit), [false, true, true]);
    }

    #[test]
    fn hazards_are_reported_once_each_in_a_fixed_order() {
        let r = parse(
            "int g[64];\n\
             pure int f(pure int* v, int i) { return v[i] + g[i]; }\n\
             int main() {\n\
                 int a[64], b[64];\n\
                 int* p = a;\n\
                 for (int i = 0; i < 64; i++) { b[i] = f((pure int*)a, i) + f((pure int*)a, i) + a[i]; p[i] = 1; g[i] = 2; }\n\
                 return 0;\n\
             }",
        );
        let purity = verify_unit(&r.unit, PureSet::seeded());
        let f = r.unit.find_function("main").expect("main");
        let body = f.body.as_ref().expect("a body");
        let aliases = AliasGroups::of_function(body);
        assert!(aliases.may_alias("p", "a") && !aliases.may_alias("a", "b"));
        let nest = &body.stmts[2];
        let hazards = nest_hazards(nest, &purity.pure_set, &purity.global_reads, &aliases);
        let names: Vec<String> = hazards
            .iter()
            .map(|h| match h {
                Hazard::Feedback { target, .. } => format!("feedback {target}"),
                Hazard::CallReadsWritten { base, written, .. } => format!("read {base}~{written}"),
                Hazard::AliasedPair { written, other } => format!("alias {written}~{other}"),
            })
            .collect();
        assert_eq!(names, ["read a~p", "read g~g", "alias p~a"], "{hazards:?}");
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
