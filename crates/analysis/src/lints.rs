//! Dataflow lints: definite-assignment, unused-variable and dead-store.
//!
//! All three share one event stream: a pre-order walk of the function
//! body that emits `Read` / `Write` / `AddrOf` events per scalar name in
//! approximate evaluation order (assignment RHS before LHS, `for` init
//! before cond before body before step, `do`-body before its cond).
//!
//! The walk is straight-line — it does not join branches — so the lints
//! restrict themselves to facts that are true on *every* path:
//!
//! - [`Code::LintUnusedVar`] — the name produces no events at all.
//! - [`Code::LintDeadStore`] — only `Write` events, never a `Read`.
//! - [`Code::LintUninitRead`] — declared without an initializer and the
//!   *first* event is a `Read`: whatever path reaches that read, no
//!   textually-earlier write exists, so the read is uninitialized.
//!
//! Anything the walk cannot be sure about is skipped outright: names
//! declared more than once (shadowing), parameters, globals, arrays,
//! and anything address-taken (`&x` may initialize or read through the
//! pointer).

use cfront::ast::*;
use cfront::diag::{Code, Diagnostics};
use cfront::span::Span;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Read(Span),
    Write(Span),
    AddrOf,
}

/// Lint one function definition against `unit` (for the global names).
pub fn lint_function(f: &Function, unit: &TranslationUnit, diags: &mut Diagnostics) {
    let body = match &f.body {
        Some(b) => b,
        None => return,
    };

    let globals: HashSet<&str> = unit.global_variables().into_iter().collect();
    let params: HashSet<&str> = f.params.iter().filter_map(|p| p.name.as_deref()).collect();

    // Candidate locals: scalar (non-array) names declared exactly once.
    let mut decl_count: HashMap<&str, usize> = HashMap::new();
    let mut decls: Vec<(&Declarator, Span)> = Vec::new();
    for s in &body.stmts {
        collect_decls(s, &mut decl_count, &mut decls);
    }
    let candidates: HashMap<&str, &Declarator> = decls
        .iter()
        .filter(|(d, _)| {
            !d.is_array()
                && decl_count.get(d.name.as_str()) == Some(&1)
                && !globals.contains(d.name.as_str())
                && !params.contains(d.name.as_str())
        })
        .map(|(d, _)| (d.name.as_str(), *d))
        .collect();
    if candidates.is_empty() {
        return;
    }

    let mut events: Vec<(String, Event)> = Vec::new();
    for s in &body.stmts {
        stmt_events(s, &mut events);
    }

    let mut by_name: HashMap<&str, Vec<Event>> = HashMap::new();
    for (name, ev) in &events {
        if candidates.contains_key(name.as_str()) {
            by_name.entry(name.as_str()).or_default().push(*ev);
        }
    }

    let mut names: Vec<&str> = candidates.keys().copied().collect();
    names.sort_by_key(|n| candidates[n].span.start);
    for name in names {
        let d = candidates[name];
        let evs = by_name.get(name).map(Vec::as_slice).unwrap_or(&[]);
        if evs.iter().any(|e| matches!(e, Event::AddrOf)) {
            continue;
        }
        // Events emitted by the declarator's own initializer count as the
        // initial write; `collect_decls`/`stmt_events` keep that ordering.
        if evs.is_empty() {
            diags.warning(
                Code::LintUnusedVar,
                d.span,
                format!("unused variable '{name}'"),
            );
            continue;
        }
        if !evs.iter().any(|e| matches!(e, Event::Read(_))) {
            let span = evs
                .iter()
                .find_map(|e| match e {
                    Event::Write(s) => Some(*s),
                    _ => None,
                })
                .unwrap_or(d.span);
            diags.warning(
                Code::LintDeadStore,
                span,
                format!("value stored to '{name}' is never read"),
            );
            continue;
        }
        if d.init.is_none() {
            if let Some(Event::Read(span)) = evs.first() {
                diags.warning(
                    Code::LintUninitRead,
                    *span,
                    format!("variable '{name}' is read before it is assigned"),
                );
            }
        }
    }
}

fn collect_decls<'a>(
    s: &'a Stmt,
    count: &mut HashMap<&'a str, usize>,
    decls: &mut Vec<(&'a Declarator, Span)>,
) {
    s.walk(&mut |s| {
        let d = match &s.kind {
            StmtKind::Decl(d) => d,
            StmtKind::For { init, .. } => match init.as_ref() {
                ForInit::Decl(d) => d,
                _ => return,
            },
            _ => return,
        };
        for dec in &d.declarators {
            *count.entry(dec.name.as_str()).or_insert(0) += 1;
            decls.push((dec, s.span));
        }
    });
}

// ---------------------------------------------------------------------------
// Event stream
// ---------------------------------------------------------------------------

fn stmt_events(s: &Stmt, out: &mut Vec<(String, Event)>) {
    match &s.kind {
        StmtKind::Decl(d) => decl_events(d, out),
        StmtKind::Expr(Some(e)) | StmtKind::Return(Some(e)) => expr_events(e, out),
        StmtKind::Block(b) => {
            for s in &b.stmts {
                stmt_events(s, out);
            }
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expr_events(cond, out);
            stmt_events(then_branch, out);
            if let Some(e) = else_branch {
                stmt_events(e, out);
            }
        }
        StmtKind::While { cond, body } => {
            expr_events(cond, out);
            stmt_events(body, out);
        }
        StmtKind::DoWhile { body, cond } => {
            stmt_events(body, out);
            expr_events(cond, out);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            match init.as_ref() {
                ForInit::Decl(d) => decl_events(d, out),
                ForInit::Expr(Some(e)) => expr_events(e, out),
                ForInit::Expr(None) => {}
            }
            if let Some(c) = cond {
                expr_events(c, out);
            }
            stmt_events(body, out);
            if let Some(st) = step {
                expr_events(st, out);
            }
        }
        _ => {}
    }
}

fn decl_events(d: &Declaration, out: &mut Vec<(String, Event)>) {
    for dec in &d.declarators {
        for dim in &dec.array_dims {
            expr_events(dim, out);
        }
        if let Some(init) = &dec.init {
            expr_events(init, out);
            out.push((dec.name.clone(), Event::Write(dec.span)));
        }
    }
}

fn expr_events(e: &Expr, out: &mut Vec<(String, Event)>) {
    match &e.kind {
        ExprKind::Ident(n) => out.push((n.clone(), Event::Read(e.span))),
        ExprKind::Assign(op, lhs, rhs) => {
            expr_events(rhs, out);
            match (&lhs.kind, op) {
                (ExprKind::Ident(n), AssignOp::Assign) => {
                    out.push((n.clone(), Event::Write(e.span)));
                }
                (ExprKind::Ident(n), _) => {
                    // Compound assignment reads the old value first.
                    out.push((n.clone(), Event::Read(lhs.span)));
                    out.push((n.clone(), Event::Write(e.span)));
                }
                _ => expr_events(lhs, out),
            }
        }
        ExprKind::Unary(op, inner) if op.writes_operand() => match &inner.kind {
            ExprKind::Ident(n) => {
                out.push((n.clone(), Event::Read(inner.span)));
                out.push((n.clone(), Event::Write(e.span)));
            }
            _ => expr_events(inner, out),
        },
        ExprKind::Unary(UnOp::AddrOf, inner) => {
            if let Some(root) = inner.lvalue_root() {
                out.push((root.to_string(), Event::AddrOf));
            }
            if !matches!(inner.kind, ExprKind::Ident(_)) {
                expr_events(inner, out);
            }
        }
        ExprKind::Unary(_, inner) | ExprKind::Cast(_, inner) | ExprKind::SizeofExpr(inner) => {
            expr_events(inner, out);
        }
        ExprKind::Binary(_, l, r) | ExprKind::Comma(l, r) | ExprKind::Index(l, r) => {
            expr_events(l, out);
            expr_events(r, out);
        }
        ExprKind::Ternary(c, t, f) => {
            expr_events(c, out);
            expr_events(t, out);
            expr_events(f, out);
        }
        ExprKind::Call { callee, args } => {
            // The callee name is a function, not a local — skip the ident.
            if !matches!(callee.kind, ExprKind::Ident(_)) {
                expr_events(callee, out);
            }
            for a in args {
                expr_events(a, out);
            }
        }
        ExprKind::Member { base, .. } => expr_events(base, out),
        _ => {}
    }
}
