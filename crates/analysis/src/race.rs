//! Static race detection for `#pragma omp parallel for` loops.
//!
//! Mirrors the interpreter's pragma/loop pairing exactly (a pragma that
//! parses as `omp parallel for`, optionally followed by more pragmas,
//! then a `for` statement), so every loop the engines would run in
//! parallel gets a verdict, keyed by the `for` statement's span.
//!
//! Per loop, the analysis is a two-tier ladder:
//!
//! 1. **Scalar screening** — every write in the body is classified by
//!    its lvalue root. Roots that are iteration-private (the nest's
//!    iterators, `private(...)` clause entries, body-declared locals)
//!    are fine. A shared scalar updated in reduction shape
//!    (`x += e`, `x = x op e`, `x++`) degrades the verdict to
//!    `Unknown` with a [`Code::RaceSharedReduction`] warning (the
//!    dynamic check still guards it); any other shared scalar write is
//!    a definite race ([`Code::RaceSharedWrite`], verdict `Racy`) with
//!    a fix-it suggesting a `private(...)` clause.
//! 2. **Memory writes** (through pointers/subscripts) go to the
//!    polyhedral dependence test. That test assumes distinct base names
//!    never alias and cannot see through calls, so two screens guard it
//!    (paper Listing 6 is the counterexample for both):
//!    a name assigned from another pointer's value (`int* q = a;`)
//!    aliases it, and a verified-pure callee — while unable to *write*
//!    caller state — may still *read* its pointer arguments and any
//!    global, a flow dependence against the loop's writes. Any base a
//!    pure call may read ([`purec_core::pure_call_read_bases`])
//!    that equals or aliases a written base, or any aliasing pair of
//!    distinct accessed bases with one side written, degrades the
//!    verdict to `Unknown` ([`Code::RaceUnprovable`]) and leaves the
//!    dynamic check on. Past the screens, calls to verified-pure
//!    functions are substituted by fresh placeholder reads, then
//!    [`polyhedral::extract_scop`] + [`polyhedral::deps::analyze`] +
//!    [`polyhedral::parallel_levels`] decide. A dependence carried at
//!    the parallel level is a definite race
//!    ([`Code::RaceLoopCarried`]); a non-affine nest degrades to
//!    `Unknown` ([`Code::RaceUnprovable`]).
//!
//! The ladder only ever *downgrades*: `Independent` → `Unknown` →
//! `Racy`, so one definite race wins over any number of unknowns.

use crate::{AnalysisReport, LoopReport, LoopVerdict};
use cfront::ast::*;
use cfront::diag::Code;
use cfront::omp::{paired_omp_loops, Paired};
use cfront::span::Span;
use machine::{parse_omp_parallel_for_clauses, OmpClauses};
use polyhedral::IterTypes;
use purec_core::{GlobalReads, PureSet};
use std::collections::{HashMap, HashSet};

/// Walk one function body, pairing omp pragmas with their loops the same
/// way the interpreter's lowering does ([`paired_omp_loops`]), and
/// recursing everywhere else. Alias groups are computed once from the
/// whole body so a `int* q = a;` at function scope is visible inside
/// every nested loop; `types` is the function's integer-iterator table.
pub fn analyze_function(
    f: &Function,
    types: &IterTypes,
    pure_set: &PureSet,
    reads: &GlobalReads,
    report: &mut AnalysisReport,
) {
    let Some(body) = &f.body else { return };
    let cx = Context {
        pure_set,
        reads,
        aliases: &collect_alias_groups(body),
        types,
    };
    analyze_block_with(body, cx, report);
}

/// What holds for a whole function body.
#[derive(Clone, Copy)]
struct Context<'a> {
    /// The verified registry.
    pure_set: &'a PureSet,
    /// What each pure function may read through a global.
    reads: &'a GlobalReads,
    aliases: &'a AliasGroups,
    types: &'a IterTypes<'a>,
}

fn analyze_block_with(b: &Block, cx: Context, report: &mut AnalysisReport) {
    for item in paired_omp_loops(&b.stmts, parse_omp_parallel_for_clauses) {
        match item {
            Paired::OmpFor {
                clauses,
                pragma,
                for_stmt,
            } => {
                analyze_omp_loop(pragma.span, &clauses, for_stmt, cx, report);
                recurse(for_stmt, cx, report);
            }
            Paired::Plain(s) => recurse(s, cx, report),
        }
    }
}

fn recurse(s: &Stmt, cx: Context, report: &mut AnalysisReport) {
    match &s.kind {
        StmtKind::Block(b) => analyze_block_with(b, cx, report),
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            recurse(then_branch, cx, report);
            if let Some(e) = else_branch {
                recurse(e, cx, report);
            }
        }
        StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. }
        | StmtKind::For { body, .. } => recurse(body, cx, report),
        _ => {}
    }
}

fn analyze_omp_loop(
    pragma_span: Span,
    clauses: &OmpClauses,
    for_stmt: &Stmt,
    Context {
        pure_set,
        reads,
        aliases,
        types,
    }: Context,
    report: &mut AnalysisReport,
) {
    // Clause hygiene: the runtime silently ignores what it does not
    // understand, so surface that here.
    for c in &clauses.unknown_clauses {
        report.diags.warning(
            Code::OmpUnknownClause,
            pragma_span,
            format!("unrecognized OpenMP clause '{c}' is ignored by the runtime"),
        );
    }
    if let Some(k) = &clauses.unknown_schedule {
        report.diags.warning(
            Code::OmpUnknownSchedule,
            pragma_span,
            format!("unknown schedule kind '{k}' degrades to schedule(static)"),
        );
    }

    // Undo hoisted row-pointer copies so the screens and the dependence
    // test see the original subscript streams (`p[j]` → `base[i][j]`).
    let resolved = resolve_pointer_copies(for_stmt);
    let for_stmt = resolved.as_ref().unwrap_or(for_stmt);

    let mut verdict = LoopVerdict::Independent;
    let downgrade = |v: &mut LoopVerdict, to: LoopVerdict| {
        if (to == LoopVerdict::Racy)
            || (to == LoopVerdict::Unknown && *v == LoopVerdict::Independent)
        {
            *v = to;
        }
    };

    // Iteration-private names: clause list + every iterator assigned by a
    // `for` init in the nest + everything declared inside the body.
    let mut privates: HashSet<String> = clauses.privates.iter().cloned().collect();
    collect_nest_iterators(for_stmt, &mut privates);
    collect_body_decls(for_stmt, &mut privates);

    let body = match &for_stmt.kind {
        StmtKind::For { body, .. } => body.as_ref(),
        _ => return,
    };

    // Tier 1: scalar screening + call screening over the body.
    let mut reduction_names: HashSet<String> = HashSet::new();
    let mut memory_writes = false;
    let mut scalar_events: Vec<(String, Span, bool)> = Vec::new(); // (name, span, reduction_shaped)
    body.walk_exprs(&mut |e| match &e.kind {
        ExprKind::Assign(op, lhs, rhs) => {
            if lhs.writes_through_pointer() {
                memory_writes = true;
            } else if let Some(name) = lhs.as_ident() {
                if !privates.contains(name) {
                    let red = *op != AssignOp::Assign || rhs_is_reduction(name, rhs);
                    scalar_events.push((name.to_string(), e.span, red));
                }
            }
        }
        ExprKind::Unary(op, inner) if op.writes_operand() => {
            if inner.writes_through_pointer() {
                memory_writes = true;
            } else if let Some(name) = inner.as_ident() {
                if !privates.contains(name) {
                    // `x++` is `x = x + 1`: reduction-shaped.
                    scalar_events.push((name.to_string(), e.span, true));
                }
            }
        }
        _ => {}
    });

    let mut reported: HashSet<(String, bool)> = HashSet::new();
    for (name, span, red) in scalar_events {
        if !reported.insert((name.clone(), red)) {
            continue;
        }
        if red {
            report.diags.warning(
                Code::RaceSharedReduction,
                span,
                format!(
                    "shared scalar '{name}' is updated as a reduction across iterations; \
                     the transform does not privatize reductions, so the dynamic race \
                     check stays on for this loop"
                ),
            );
            reduction_names.insert(name);
            downgrade(&mut verdict, LoopVerdict::Unknown);
        } else {
            report.diags.error(
                Code::RaceSharedWrite,
                span,
                format!(
                    "data race: scalar '{name}' is shared across iterations but written \
                     inside the parallel loop; add it to a private({name}) clause or \
                     declare it inside the loop body"
                ),
            );
            downgrade(&mut verdict, LoopVerdict::Racy);
        }
    }

    // Calls to anything not verified pure poison the analysis (the paper's
    // point: without `pure`, a call makes the loop non-analyzable).
    let mut seen_callees = HashSet::new();
    for (callee, span) in purec_core::unverified_calls(body, &|name| pure_set.contains(name)) {
        if seen_callees.insert(callee) {
            report.diags.warning(
                Code::RaceUnprovable,
                span,
                format!(
                    "cannot prove independence: call to '{callee}' is not verified pure; \
                     falling back to the dynamic race check"
                ),
            );
        }
        downgrade(&mut verdict, LoopVerdict::Unknown);
    }

    // Alias & pure-call-read screens (paper Listing 6): the dependence
    // test treats distinct base names as disjoint and never sees what a
    // callee dereferences, so both holes must be closed *before* it can
    // be trusted. Conservative by construction — these only downgrade to
    // `Unknown`, handing the loop back to the dynamic check.
    if memory_writes && verdict != LoopVerdict::Racy {
        let mut written: HashSet<String> = HashSet::new();
        let mut accessed: HashSet<String> = HashSet::new();
        body.walk_exprs(&mut |e| match &e.kind {
            ExprKind::Assign(_, lhs, _) if lhs.writes_through_pointer() => {
                pointer_value_bases(lhs, &mut written);
            }
            ExprKind::Unary(op, inner) if op.writes_operand() && inner.writes_through_pointer() => {
                pointer_value_bases(inner, &mut written);
            }
            ExprKind::Index(base, _) => {
                pointer_value_bases(base, &mut accessed);
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                pointer_value_bases(inner, &mut accessed);
            }
            _ => {}
        });
        accessed.extend(written.iter().cloned());

        // Screen A: a verified-pure callee may *read* any memory its
        // pointer arguments reach, and any global; if such a base is (or
        // aliases) a base the loop writes, that read is a flow dependence
        // the substituted placeholder erases.
        let mut flagged: HashSet<(&str, &str)> = HashSet::new();
        body.walk_exprs(&mut |e| {
            if let Some((callee, args)) = e.as_direct_call() {
                if pure_set.contains(callee) {
                    for b in purec_core::pure_call_read_bases(callee, args, reads) {
                        for w in &written {
                            if aliases.may_alias(b, w) && flagged.insert((callee, b)) {
                                report.diags.warning(
                                    Code::RaceUnprovable,
                                    e.span,
                                    format!(
                                        "cannot prove independence: pure call '{callee}' may \
                                         read memory written by the loop through '{b}'{}; the \
                                         callee's subscripts are invisible to the dependence \
                                         test, falling back to the dynamic race check",
                                        if b == w {
                                            String::new()
                                        } else {
                                            format!(" (aliases '{w}')")
                                        }
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        });
        if !flagged.is_empty() {
            downgrade(&mut verdict, LoopVerdict::Unknown);
        }

        // Screen B: two distinct base names that may hold the same
        // pointer value (`int* q = a;`) defeat the per-name dependence
        // test whenever one of them is written.
        let mut pair_flagged: HashSet<(String, String)> = HashSet::new();
        for w in &written {
            for o in &accessed {
                if w != o && aliases.may_alias(w, o) {
                    let key = if w < o {
                        (w.clone(), o.clone())
                    } else {
                        (o.clone(), w.clone())
                    };
                    if pair_flagged.insert(key) {
                        report.diags.warning(
                            Code::RaceUnprovable,
                            for_stmt.span,
                            format!(
                                "cannot prove independence: '{w}' and '{o}' may alias (one \
                                 was assigned from the other's value), defeating the \
                                 per-name dependence test; falling back to the dynamic \
                                 race check"
                            ),
                        );
                    }
                    downgrade(&mut verdict, LoopVerdict::Unknown);
                }
            }
        }
    }

    // Tier 2: memory writes need the dependence test.
    if memory_writes && verdict != LoopVerdict::Racy {
        // Calls to verified-pure functions become fresh placeholder
        // reads so the SCoP extractor sees an affine body. A pure callee
        // cannot write caller-visible state, but it CAN read through its
        // pointer arguments and globals — reads the placeholder erases;
        // Screen A above has already downgraded any loop where that
        // matters.
        let mut probe = for_stmt.clone();
        let mut counter = 0usize;
        cfront::visit::visit_exprs_mut(&mut probe, &mut |e| {
            if matches!(e.as_direct_call(), Some((callee, _)) if pure_set.contains(callee)) {
                counter += 1;
                e.kind = ExprKind::Ident(format!("__purechk{counter}"));
            }
        });
        match polyhedral::extract_scop(&probe, types) {
            Ok(scop) => {
                let polyhedral::DepAnalysis { deps, fm_solves } = polyhedral::analyze(&scop);
                report.fm_solves += fm_solves;
                let levels = polyhedral::parallel_levels(&scop, &deps);
                if !levels.first().copied().unwrap_or(false) {
                    let mut blocking = false;
                    let mut named: HashSet<&str> = HashSet::new();
                    for d in &deps {
                        if d.level == Some(0)
                            && !reduction_names.contains(&d.array)
                            && !privates.contains(&d.array)
                        {
                            blocking = true;
                            if named.insert(d.array.as_str()) {
                                report.diags.error(
                                    Code::RaceLoopCarried,
                                    for_stmt.span,
                                    format!(
                                        "data race: loop-carried {} dependence on '{}' \
                                         (distance {}) — iterations are not independent",
                                        d.kind,
                                        d.array,
                                        d.dist.first().map(|b| b.to_string()).unwrap_or_default()
                                    ),
                                );
                            }
                        }
                    }
                    if blocking {
                        downgrade(&mut verdict, LoopVerdict::Racy);
                    } else {
                        downgrade(&mut verdict, LoopVerdict::Unknown);
                    }
                }
            }
            Err(why) => {
                let detail = why
                    .items()
                    .first()
                    .map(|d| d.message.clone())
                    .unwrap_or_else(|| "not a static control part".into());
                report.diags.warning(
                    Code::RaceUnprovable,
                    for_stmt.span,
                    format!(
                        "cannot prove independence: {detail}; falling back to the \
                         dynamic race check"
                    ),
                );
                downgrade(&mut verdict, LoopVerdict::Unknown);
            }
        }
    }

    report.loops.push(LoopReport {
        span: for_stmt.span,
        verdict,
    });
}

/// `x = x op e` / `x = e op x` with an arithmetic/bitwise `op`.
fn rhs_is_reduction(name: &str, rhs: &Expr) -> bool {
    match &rhs.kind {
        ExprKind::Binary(op, l, r) => {
            matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor
            ) && (l.as_ident() == Some(name) || r.as_ident() == Some(name))
        }
        _ => false,
    }
}

/// Every iterator assigned/declared by a `for` init anywhere in the nest
/// (covers inner loops whose iterators are declared at function scope).
fn collect_nest_iterators(s: &Stmt, out: &mut HashSet<String>) {
    s.walk(&mut |s| {
        if let StmtKind::For { init, .. } = &s.kind {
            out.extend(init.bound_names().map(String::from));
        }
    });
}

/// Every name declared inside the loop (body-local ⇒ iteration-private).
fn collect_body_decls(s: &Stmt, out: &mut HashSet<String>) {
    s.walk(&mut |s| {
        if let StmtKind::Decl(d) = &s.kind {
            for dec in &d.declarators {
                out.insert(dec.name.clone());
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Row-pointer copy propagation: substitute single-assignment pointer
// locals (`T* p = base[i];`) back into their uses before analysis. The
// polyhedral stage hoists exactly this shape out of inner loops; without
// the substitution the per-name dependence test loses the subscript
// stream behind `p` and the alias screen flags `p` against its own base,
// demoting nests that were provably independent before the hoist.
// ---------------------------------------------------------------------------

/// `base[e1][e2]…` chains over a plain identifier, with side-effect-free
/// subscripts — the only initializer shape whose value can be re-derived
/// at every use site.
fn stable_lvalue_path(e: &Expr, subscript_ids: &mut HashSet<String>) -> Option<String> {
    match &e.kind {
        ExprKind::Ident(n) => Some(n.clone()),
        ExprKind::Index(base, sub) => {
            if !side_effect_free(sub) {
                return None;
            }
            sub.walk(&mut |s| {
                if let ExprKind::Ident(n) = &s.kind {
                    subscript_ids.insert(n.clone());
                }
            });
            stable_lvalue_path(base, subscript_ids)
        }
        _ => None,
    }
}

fn side_effect_free(e: &Expr) -> bool {
    let mut ok = true;
    e.walk(&mut |s| match &s.kind {
        ExprKind::Call { .. } | ExprKind::Assign(..) => ok = false,
        ExprKind::Unary(op, _) if op.writes_operand() => ok = false,
        _ => {}
    });
    ok
}

/// Writes inside the loop, split by what they can invalidate. A for
/// header's update of its *own* declared iterator is iteration structure,
/// not a body write — the copies under it re-execute each iteration.
#[derive(Default)]
struct LoopWrites {
    /// Names assigned / inc-dec'd / address-taken directly.
    direct: HashSet<String>,
    /// Bases stored through exactly one subscript (`X[e] = …` moves a
    /// row; `X[a][b] = …` does not).
    row: HashSet<String>,
}

fn collect_loop_writes(s: &Stmt, out: &mut LoopWrites) {
    let record = |e: &Expr, out: &mut LoopWrites, skip: Option<&str>| {
        e.walk(&mut |w| {
            let target = match &w.kind {
                ExprKind::Assign(_, lhs, _) => Some(&**lhs),
                ExprKind::Unary(op, inner) if op.writes_operand() => Some(&**inner),
                ExprKind::Unary(UnOp::AddrOf, inner) => {
                    // Escaped addresses defeat the value-tracking
                    // entirely: root through every subscript level.
                    let mut bases = HashSet::new();
                    pointer_value_bases(inner, &mut bases);
                    for b in bases {
                        out.direct.insert(b.clone());
                        out.row.insert(b);
                    }
                    None
                }
                _ => None,
            };
            if let Some(t) = target {
                match &t.kind {
                    ExprKind::Ident(n) if Some(n.as_str()) != skip => {
                        out.direct.insert(n.clone());
                    }
                    ExprKind::Index(b, _) => {
                        if let ExprKind::Ident(n) = &b.kind {
                            out.row.insert(n.clone());
                        }
                    }
                    _ => {}
                }
            }
        });
    };
    match &s.kind {
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            let own = init.bound_names().next();
            if let ForInit::Expr(Some(e)) = init.as_ref() {
                record(e, out, None);
            }
            if let Some(c) = cond {
                record(c, out, own);
            }
            if let Some(st) = step {
                record(st, out, own);
            }
            collect_loop_writes(body, out);
        }
        StmtKind::Block(b) => {
            for s in &b.stmts {
                collect_loop_writes(s, out);
            }
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            record(cond, out, None);
            collect_loop_writes(then_branch, out);
            if let Some(e) = else_branch {
                collect_loop_writes(e, out);
            }
        }
        StmtKind::While { cond, body } | StmtKind::DoWhile { cond, body } => {
            record(cond, out, None);
            collect_loop_writes(body, out);
        }
        StmtKind::Decl(d) => {
            for dec in &d.declarators {
                if let Some(init) = &dec.init {
                    record(init, out, None);
                }
            }
        }
        StmtKind::Expr(Some(e)) | StmtKind::Return(Some(e)) => record(e, out, None),
        _ => {}
    }
}

struct PointerCopy {
    name: String,
    init: Expr,
    /// Nest iterators in scope at the declaration point.
    scope: HashSet<String>,
}

fn collect_pointer_copies(s: &Stmt, scope: &mut Vec<String>, out: &mut Vec<PointerCopy>) {
    match &s.kind {
        StmtKind::Decl(d) => {
            // Single-declarator statements only: removal stays trivial.
            if let [dec] = d.declarators.as_slice() {
                if !dec.ty.ptr.is_empty() && dec.array_dims.is_empty() {
                    if let Some(init) = &dec.init {
                        let mut subs = HashSet::new();
                        if stable_lvalue_path(init, &mut subs).is_some() {
                            out.push(PointerCopy {
                                name: dec.name.clone(),
                                init: init.clone(),
                                scope: scope.iter().cloned().collect(),
                            });
                        }
                    }
                }
            }
        }
        StmtKind::For { init, body, .. } => {
            let mut pushed = 0;
            if let ForInit::Decl(d) = init.as_ref() {
                for dec in &d.declarators {
                    scope.push(dec.name.clone());
                    pushed += 1;
                }
            }
            collect_pointer_copies(body, scope, out);
            scope.truncate(scope.len() - pushed);
        }
        StmtKind::Block(b) => {
            for s in &b.stmts {
                collect_pointer_copies(s, scope, out);
            }
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_pointer_copies(then_branch, scope, out);
            if let Some(e) = else_branch {
                collect_pointer_copies(e, scope, out);
            }
        }
        StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
            collect_pointer_copies(body, scope, out);
        }
        _ => {}
    }
}

/// Substitute every sound pointer copy back into its uses and drop the
/// declarations, returning the rewritten loop — or `None` when the loop
/// holds no such copy (the common case; avoids the clone).
fn resolve_pointer_copies(for_stmt: &Stmt) -> Option<Stmt> {
    let mut cands = Vec::new();
    collect_pointer_copies(for_stmt, &mut Vec::new(), &mut cands);
    if cands.is_empty() {
        return None;
    }
    let mut writes = LoopWrites::default();
    collect_loop_writes(for_stmt, &mut writes);
    let mut all_iters: HashSet<String> = HashSet::new();
    for_stmt.walk(&mut |s| {
        if let StmtKind::For { init, .. } = &s.kind {
            if let ForInit::Decl(d) = init.as_ref() {
                for dec in &d.declarators {
                    all_iters.insert(dec.name.clone());
                }
            }
        }
    });
    let cand_names: HashSet<String> = cands.iter().map(|c| c.name.clone()).collect();
    let sound: Vec<&PointerCopy> = cands
        .iter()
        .filter(|c| {
            let mut subs = HashSet::new();
            let base = stable_lvalue_path(&c.init, &mut subs).expect("pre-screened");
            // The copy itself must stay single-assignment, its base's
            // rows must not move, its subscripts must be stable between
            // declaration and use (an iterator qualifies only when the
            // copy lives inside that iterator's loop), and chains of
            // copies are left alone.
            !writes.direct.contains(&c.name)
                && !writes.direct.contains(&base)
                && !writes.row.contains(&base)
                && !cand_names.contains(&base)
                && subs.iter().all(|id| {
                    !writes.direct.contains(id)
                        && (!all_iters.contains(id) || c.scope.contains(id))
                        && !cand_names.contains(id)
                })
        })
        .collect();
    if sound.is_empty() {
        return None;
    }
    let mut resolved = for_stmt.clone();
    for c in &sound {
        cfront::visit::visit_exprs_mut(&mut resolved, &mut |e| {
            if matches!(&e.kind, ExprKind::Ident(n) if *n == c.name) {
                let span = e.span;
                *e = c.init.clone();
                // keep original use-site spans for diagnostics
                fn respan(e: &mut Expr, span: Span) {
                    e.span = span;
                    if let ExprKind::Index(b, s) = &mut e.kind {
                        respan(b, span);
                        respan(s, span);
                    }
                }
                respan(e, span);
            }
        });
    }
    let resolved_names: HashSet<&str> = sound.iter().map(|c| c.name.as_str()).collect();
    fn drop_decls(s: &mut Stmt, names: &HashSet<&str>) {
        match &mut s.kind {
            StmtKind::Block(b) => {
                b.stmts.retain(|s| {
                    !matches!(&s.kind, StmtKind::Decl(d)
                        if matches!(d.declarators.as_slice(),
                            [dec] if names.contains(dec.name.as_str())))
                });
                for s in &mut b.stmts {
                    drop_decls(s, names);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                drop_decls(then_branch, names);
                if let Some(e) = else_branch {
                    drop_decls(e, names);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => drop_decls(body, names),
            _ => {}
        }
    }
    drop_decls(&mut resolved, &resolved_names);
    Some(resolved)
}

// ---------------------------------------------------------------------------
// Alias groups: a flow-insensitive union-find over names, joined whenever
// one name is initialized or assigned from an expression whose pointer
// value could derive from another (`int* q = a;`, `p = buf + off;`). The
// polyhedral test keys dependences by base name, so any group with two
// members makes per-name disjointness unsound for that pair.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
pub(crate) struct AliasGroups {
    parent: HashMap<String, String>,
}

impl AliasGroups {
    fn find<'a>(&'a self, name: &'a str) -> &'a str {
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

    fn may_alias(&self, a: &str, b: &str) -> bool {
        a == b || self.find(a) == self.find(b)
    }
}

/// Union every declared/assigned name with the pointer-value bases of its
/// initializer, across the whole function body (deep walk).
fn collect_alias_groups(b: &Block) -> AliasGroups {
    let mut g = AliasGroups::default();
    let join = |g: &mut AliasGroups, name: &str, rhs: &Expr| {
        let mut bases = HashSet::new();
        pointer_value_bases(rhs, &mut bases);
        for base in &bases {
            g.union(name, base);
        }
    };
    for s in &b.stmts {
        s.walk(&mut |s| match &s.kind {
            StmtKind::Decl(d) => {
                for dec in &d.declarators {
                    if let Some(init) = &dec.init {
                        join(&mut g, &dec.name, init);
                    }
                }
            }
            StmtKind::For { init, .. } => {
                if let ForInit::Decl(d) = init.as_ref() {
                    for dec in &d.declarators {
                        if let Some(init) = &dec.init {
                            join(&mut g, &dec.name, init);
                        }
                    }
                }
            }
            _ => {}
        });
        s.walk_exprs(&mut |e| {
            if let ExprKind::Assign(_, lhs, rhs) = &e.kind {
                if let Some(name) = lhs.as_ident() {
                    join(&mut g, name, rhs);
                }
            }
        });
    }
    g
}

/// Names whose pointer value could flow out of `e`: the bases reachable
/// through casts, unary ops, `+`/`-` arithmetic, subscripts, member
/// access, ternary arms and comma tails. Over-approximates (a scalar
/// operand lands in the set too), which only ever costs precision, never
/// soundness — calls are the one deliberate omission, since `malloc` and
/// verified-pure callees return values that cannot write-alias caller
/// state.
fn pointer_value_bases(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Ident(n) => {
            out.insert(n.clone());
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
