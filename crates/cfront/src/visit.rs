//! Mutable AST visitors used by the transformation stages (call substitution,
//! `pure` lowering, bound hoisting), plus a read-only symbol-collection
//! pass feeding the [`crate::intern::Interner`].

use crate::ast::*;
use crate::intern::Interner;

/// Intern every name a later resolution pass will look up: function names,
/// parameter/variable declarators, struct names and fields, and all
/// identifiers / member names / called functions appearing in expressions.
/// Pre-seeding the interner this way lets the `cinterp` resolver hand out
/// dense `u32` symbols without rehashing strings on the execution path.
pub fn collect_symbols(unit: &TranslationUnit, interner: &mut Interner) {
    let intern_expr = |interner: &mut Interner, e: &Expr| {
        e.walk(&mut |e| match &e.kind {
            ExprKind::Ident(name) => {
                interner.intern(name);
            }
            ExprKind::Member { member, .. } => {
                interner.intern(member);
            }
            _ => {}
        });
    };
    let intern_decl = |interner: &mut Interner, d: &Declaration| {
        for dec in &d.declarators {
            interner.intern(&dec.name);
        }
    };
    for item in &unit.items {
        match item {
            Item::Function(f) => {
                interner.intern(&f.name);
                for p in &f.params {
                    if let Some(name) = &p.name {
                        interner.intern(name);
                    }
                }
                if let Some(body) = &f.body {
                    for stmt in &body.stmts {
                        stmt.walk(&mut |s| {
                            if let StmtKind::Decl(d) = &s.kind {
                                intern_decl(interner, d);
                            }
                            if let StmtKind::For { init, .. } = &s.kind {
                                if let ForInit::Decl(d) = init.as_ref() {
                                    intern_decl(interner, d);
                                }
                            }
                        });
                        stmt.walk_exprs(&mut |e| intern_expr(interner, e));
                    }
                }
            }
            Item::Decl(d) => {
                intern_decl(interner, d);
                for dec in &d.declarators {
                    if let Some(init) = &dec.init {
                        intern_expr(interner, init);
                    }
                }
            }
            Item::Struct(s) => {
                interner.intern(&s.name);
                for field in &s.fields {
                    interner.intern(&field.name);
                }
            }
            Item::Typedef(t) => {
                interner.intern(&t.name);
            }
            Item::Pragma(_) => {}
        }
    }
}

/// Walk every expression in a statement subtree with a mutable closure.
/// Traversal is outside-in; the closure may rewrite nodes in place.
pub fn visit_exprs_mut(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Expr)) {
    visit_exprs_mut_pruned(stmt, &mut |e| {
        f(e);
        true
    });
}

/// [`visit_exprs_mut`] that goes below an expression only when `f`
/// returns true for it (after any rewrite `f` made).
pub fn visit_exprs_mut_pruned(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Expr) -> bool) {
    match &mut stmt.kind {
        StmtKind::Decl(d) => {
            for dec in &mut d.declarators {
                for dim in &mut dec.array_dims {
                    visit_expr_mut_pruned(dim, f);
                }
                if let Some(init) = &mut dec.init {
                    visit_expr_mut_pruned(init, f);
                }
            }
        }
        StmtKind::Expr(Some(e)) | StmtKind::Return(Some(e)) => visit_expr_mut_pruned(e, f),
        StmtKind::Expr(None) | StmtKind::Return(None) => {}
        StmtKind::Block(b) => {
            for s in &mut b.stmts {
                visit_exprs_mut_pruned(s, f);
            }
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            visit_expr_mut_pruned(cond, f);
            visit_exprs_mut_pruned(then_branch, f);
            if let Some(e) = else_branch {
                visit_exprs_mut_pruned(e, f);
            }
        }
        StmtKind::While { cond, body } => {
            visit_expr_mut_pruned(cond, f);
            visit_exprs_mut_pruned(body, f);
        }
        StmtKind::DoWhile { body, cond } => {
            visit_exprs_mut_pruned(body, f);
            visit_expr_mut_pruned(cond, f);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            match init.as_mut() {
                ForInit::Decl(d) => {
                    for dec in &mut d.declarators {
                        if let Some(i) = &mut dec.init {
                            visit_expr_mut_pruned(i, f);
                        }
                    }
                }
                ForInit::Expr(Some(e)) => visit_expr_mut_pruned(e, f),
                ForInit::Expr(None) => {}
            }
            if let Some(c) = cond {
                visit_expr_mut_pruned(c, f);
            }
            if let Some(s) = step {
                visit_expr_mut_pruned(s, f);
            }
            visit_exprs_mut_pruned(body, f);
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Pragma(_) => {}
    }
}

/// Walk an expression tree with a mutable closure, outside-in.
pub fn visit_expr_mut(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    visit_expr_mut_pruned(e, &mut |e| {
        f(e);
        true
    });
}

/// [`visit_expr_mut`] that goes below a node only when `f` returns true
/// for it.
fn visit_expr_mut_pruned(e: &mut Expr, f: &mut dyn FnMut(&mut Expr) -> bool) {
    if !f(e) {
        return;
    }
    match &mut e.kind {
        ExprKind::IntLit(_)
        | ExprKind::FloatLit { .. }
        | ExprKind::StrLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::Ident(_)
        | ExprKind::SizeofType(_) => {}
        ExprKind::Unary(_, inner) | ExprKind::Cast(_, inner) | ExprKind::SizeofExpr(inner) => {
            visit_expr_mut_pruned(inner, f)
        }
        ExprKind::Binary(_, l, r) | ExprKind::Comma(l, r) | ExprKind::Assign(_, l, r) => {
            visit_expr_mut_pruned(l, f);
            visit_expr_mut_pruned(r, f);
        }
        ExprKind::Ternary(c, t, els) => {
            visit_expr_mut_pruned(c, f);
            visit_expr_mut_pruned(t, f);
            visit_expr_mut_pruned(els, f);
        }
        ExprKind::Call { callee, args } => {
            visit_expr_mut_pruned(callee, f);
            for a in args {
                visit_expr_mut_pruned(a, f);
            }
        }
        ExprKind::Index(b, i) => {
            visit_expr_mut_pruned(b, f);
            visit_expr_mut_pruned(i, f);
        }
        ExprKind::Member { base, .. } => visit_expr_mut_pruned(base, f),
    }
}

/// Walk every statement in a function body with a mutable closure
/// (outside-in). The closure may rewrite statement kinds in place.
pub fn visit_stmts_mut(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Stmt)) {
    visit_stmts_mut_pruned(stmt, &mut |s| {
        f(s);
        true
    });
}

/// [`visit_stmts_mut`] that goes below a statement only when `f` returns
/// true for it (after any rewrite `f` made).
pub fn visit_stmts_mut_pruned(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Stmt) -> bool) {
    if !f(stmt) {
        return;
    }
    match &mut stmt.kind {
        StmtKind::Block(b) => {
            for s in &mut b.stmts {
                visit_stmts_mut_pruned(s, f);
            }
        }
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            visit_stmts_mut_pruned(then_branch, f);
            if let Some(e) = else_branch {
                visit_stmts_mut_pruned(e, f);
            }
        }
        StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. }
        | StmtKind::For { body, .. } => visit_stmts_mut_pruned(body, f),
        _ => {}
    }
}

/// Number every `for` of the unit 1, 2, … in item order, outside-in. The
/// passes that run afterwards move loops but never clone them, so each id
/// keeps naming one loop.
pub fn number_loops(unit: &mut TranslationUnit) {
    let mut next = 0;
    for item in &mut unit.items {
        let Item::Function(f) = item else { continue };
        let Some(body) = &mut f.body else { continue };
        for s in &mut body.stmts {
            visit_stmts_mut(s, &mut |s| {
                if let StmtKind::For { id, .. } = &mut s.kind {
                    next += 1;
                    *id = LoopId(next);
                }
            });
        }
    }
}

/// Walk all types mentioned in a statement subtree (declarations and casts).
pub fn visit_types_mut(stmt: &mut Stmt, f: &mut dyn FnMut(&mut Type)) {
    visit_stmts_mut(stmt, &mut |s| {
        if let StmtKind::Decl(d) = &mut s.kind {
            for dec in &mut d.declarators {
                f(&mut dec.ty);
            }
        }
        if let StmtKind::For { init, .. } = &mut s.kind {
            if let ForInit::Decl(d) = init.as_mut() {
                for dec in &mut d.declarators {
                    f(&mut dec.ty);
                }
            }
        }
    });
    visit_exprs_mut(stmt, &mut |e| {
        if let ExprKind::Cast(ty, _) = &mut e.kind {
            f(ty);
        }
        if let ExprKind::SizeofType(ty) = &mut e.kind {
            f(ty);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::printer::print_unit;

    #[test]
    fn rewrite_calls_to_constants() {
        let src = "void f() { for (int i = 0; i < 4; i++) a[i] = g(i) + h(i); }";
        let mut unit = parse(src).unit;
        for func in unit.functions_mut() {
            if let Some(body) = &mut func.body {
                for s in &mut body.stmts {
                    visit_exprs_mut(s, &mut |e| {
                        if let Some((name, _)) = e.as_direct_call() {
                            if name == "g" || name == "h" {
                                let replacement = format!("tmpConst_{name}");
                                *e = Expr::ident(replacement);
                            }
                        }
                    });
                }
            }
        }
        let out = print_unit(&unit);
        assert!(out.contains("tmpConst_g + tmpConst_h"), "{out}");
        assert!(!out.contains("g(i)"));
    }

    #[test]
    fn visit_types_reaches_casts_and_decls() {
        let src = "void f() { pure int* p = (pure int*)q; }";
        let mut unit = parse(src).unit;
        let mut count = 0;
        for func in unit.functions_mut() {
            if let Some(body) = &mut func.body {
                for s in &mut body.stmts {
                    visit_types_mut(s, &mut |ty| {
                        if ty.pure_qual {
                            count += 1;
                        }
                    });
                }
            }
        }
        assert_eq!(count, 2); // declaration type + cast type
    }

    #[test]
    fn visit_stmts_counts_nested() {
        let src = "void f() { if (a) { for (;;) x = 1; } else y = 2; }";
        let mut unit = parse(src).unit;
        let mut n = 0;
        for func in unit.functions_mut() {
            if let Some(body) = &mut func.body {
                for s in &mut body.stmts {
                    visit_stmts_mut(s, &mut |_| n += 1);
                }
            }
        }
        // if + block + for + x=1 + y=2
        assert_eq!(n, 5);
    }
}
