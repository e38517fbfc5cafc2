//! Static race detection for `#pragma omp parallel for` loops.
//!
//! Every `for` with an OpenMP header (`StmtKind::For { omp, .. }`, the
//! field the engines run as a region) gets a verdict, keyed by its
//! [`LoopId`].
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
//!    never alias and cannot see through calls, so the loop first runs
//!    the walk that decides SCoP candidacy too,
//!    [`purec_core::nest_hazards`] with the function's
//!    [`purec_core::AliasGroups`] (paper Listing 6 is the counterexample
//!    it closes): a pure call that may read a base the loop writes, or
//!    two distinct accessed bases that may alias with one side written,
//!    degrades the verdict to `Unknown` ([`Code::RaceUnprovable`]) and
//!    leaves the dynamic check on. Every `omp parallel for` is judged,
//!    polycc's included, as an independent cross-check of the
//!    transform. Past the screens, calls to verified-pure
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
use cfront::span::Span;
use polyhedral::IterTypes;
use purec_core::{AliasGroups, GlobalReads, Hazard, PureSet};
use std::collections::HashSet;

/// Judge every `omp parallel for` loop of one function body, a loop
/// before the loops nested in it. Alias groups are computed once from the
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
        aliases: &AliasGroups::of_function(body),
        types,
    };
    for stmt in &body.stmts {
        stmt.walk(&mut |s| {
            if let StmtKind::For {
                omp: Some(header), ..
            } = &s.kind
            {
                analyze_omp_loop(header, s, cx, report);
            }
        });
    }
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

fn analyze_omp_loop(
    header: &OmpFor,
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
    // model, so surface that here, each clause with the parser's reason:
    // the unknown clauses first, then the schedules.
    let (clauses, schedules): (Vec<_>, Vec<_>) = header
        .other
        .iter()
        .partition(|c| c.unmodelled == Unmodelled::Clause);
    for c in clauses.into_iter().chain(schedules) {
        let args = c.args.as_deref().unwrap_or_default();
        let (kind, chunk) = args.split_once(',').unwrap_or((args, ""));
        let (code, message) = match c.unmodelled {
            Unmodelled::Clause => (
                Code::OmpUnknownClause,
                format!("unrecognized OpenMP clause '{}' is ignored by the runtime", c.name),
            ),
            Unmodelled::ScheduleKind => (
                Code::OmpUnknownSchedule,
                format!("unknown schedule kind '{}' degrades to schedule(static)", kind.trim()),
            ),
            Unmodelled::ScheduleChunk => (
                Code::OmpUnknownSchedule,
                format!(
                    "schedule chunk '{}' is not an integer constant; the loop runs schedule(static)",
                    chunk.trim()
                ),
            ),
        };
        report.diags.warning(code, header.span, message);
    }

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
    let mut privates: HashSet<String> = header.private.iter().cloned().collect();
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

    // The model's assumptions (paper Listing 6): the dependence test
    // treats distinct base names as disjoint and never sees what a
    // callee dereferences, so both holes must be closed *before* it can
    // be trusted. Conservative by construction — these only downgrade to
    // `Unknown`, handing the loop back to the dynamic check.
    if memory_writes && verdict != LoopVerdict::Racy {
        for hazard in purec_core::nest_hazards(for_stmt, pure_set, reads, aliases) {
            let (span, message) = match hazard {
                // Listing 5 is PC-CC's error; its pointer shape is a
                // call reading what the loop writes too.
                Hazard::Feedback { .. } => continue,
                Hazard::CallReadsWritten {
                    span,
                    callee,
                    base,
                    written,
                } => (
                    span,
                    format!(
                        "cannot prove independence: pure call '{callee}' may read memory \
                         written by the loop through '{base}'{}; the callee's subscripts are \
                         invisible to the dependence test, falling back to the dynamic race \
                         check",
                        if base == written {
                            String::new()
                        } else {
                            format!(" (aliases '{written}')")
                        }
                    ),
                ),
                Hazard::AliasedPair { written, other } => (
                    for_stmt.span,
                    format!(
                        "cannot prove independence: '{written}' and '{other}' may alias (a \
                         chain of assignments joins both pointer values to the common root \
                         '{}'), defeating the per-name dependence test; falling back to the \
                         dynamic race check",
                        aliases.find(written)
                    ),
                ),
            };
            report.diags.warning(Code::RaceUnprovable, span, message);
            downgrade(&mut verdict, LoopVerdict::Unknown);
        }
    }

    // Tier 2: memory writes need the dependence test.
    if memory_writes && verdict != LoopVerdict::Racy {
        // Calls to verified-pure functions become fresh placeholder
        // reads so the SCoP extractor sees an affine body. A pure callee
        // cannot write caller-visible state, but it CAN read through its
        // pointer arguments and globals — reads the placeholder erases;
        // the hazard walk above has already downgraded any loop where that
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

    let id = match for_stmt.kind {
        StmtKind::For { id, .. } => id,
        _ => LoopId::NONE,
    };
    report.loops.push(LoopReport { id, verdict });
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
