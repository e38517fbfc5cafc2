//! The OpenMP canonical loop check.
//!
//! `#pragma omp parallel for` applies to a `for` in *canonical form*
//! (OpenMP 5.0 §2.9.1), here with unit positive stride:
//! `for (T i = lb; i < b; i++)`. polycc's extractor, the static race
//! analyzer and the three engines all have to agree on which loops
//! those are; this module is the one recogniser. Which loop a header
//! sits on is not a question: the parser makes the header a field of
//! its `for` (`StmtKind::For { omp, .. }`). What a consumer adds on top
//! — affine bounds, slots, evaluation — is its own.

use crate::ast::*;

/// A `for` statement in canonical form, taken apart.
#[derive(Debug, Clone, Copy)]
pub struct CanonicalFor<'a> {
    pub iter: &'a str,
    /// The iterator's type when the init declares it (`for (int i = …`);
    /// `None` when the init assigns a variable declared elsewhere.
    pub declared: Option<&'a Type>,
    pub lb: &'a Expr,
    /// Right-hand side of the condition.
    pub bound: &'a Expr,
    /// `i <= bound` rather than `i < bound`.
    pub inclusive: bool,
    pub body: &'a Stmt,
}

/// Why a statement is not a canonical loop. Each consumer renders these
/// in its own words (a compile-time diagnostic, a runtime error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError<'a> {
    NotAFor,
    MultipleDeclarators,
    /// `for (int i; …`.
    UninitializedIterator,
    /// The init expression is not an assignment (`for (f(); …`).
    InitNotAssignment,
    /// The init assigns something other than a plain variable.
    InitTargetNotVariable,
    NoInit,
    NoCondition,
    /// The condition is not a binary comparison at all.
    ConditionNotComparison,
    /// The condition's left side is not the iterator.
    ConditionNotOnIterator(&'a str),
    /// A comparison other than `<` / `<=`.
    ConditionNotLess,
    NoStep,
    /// Anything but `i++`, `++i`, `i += 1`, `i = i + 1`.
    NonUnitStep(&'a str),
}

/// Take a `for` statement apart if its header is canonical.
pub fn canonical_for(stmt: &Stmt) -> Result<CanonicalFor<'_>, HeaderError<'_>> {
    let StmtKind::For {
        init,
        cond,
        step,
        body,
        ..
    } = &stmt.kind
    else {
        return Err(HeaderError::NotAFor);
    };
    let (iter, declared, lb) = match init.as_ref() {
        ForInit::Decl(d) => match d.declarators.as_slice() {
            [dec] => {
                let lb = dec
                    .init
                    .as_ref()
                    .ok_or(HeaderError::UninitializedIterator)?;
                (dec.name.as_str(), Some(&dec.ty), lb)
            }
            _ => return Err(HeaderError::MultipleDeclarators),
        },
        ForInit::Expr(Some(e)) => match &e.kind {
            ExprKind::Assign(AssignOp::Assign, lhs, rhs) => {
                let name = lhs.as_ident().ok_or(HeaderError::InitTargetNotVariable)?;
                (name, None, rhs.as_ref())
            }
            _ => return Err(HeaderError::InitNotAssignment),
        },
        ForInit::Expr(None) => return Err(HeaderError::NoInit),
    };
    let (bound, inclusive) = match cond.as_ref().map(|c| &c.kind) {
        None => return Err(HeaderError::NoCondition),
        Some(ExprKind::Binary(op, l, r)) => {
            if l.as_ident() != Some(iter) {
                return Err(HeaderError::ConditionNotOnIterator(iter));
            }
            match op {
                BinOp::Lt => (r.as_ref(), false),
                BinOp::Le => (r.as_ref(), true),
                _ => return Err(HeaderError::ConditionNotLess),
            }
        }
        Some(_) => return Err(HeaderError::ConditionNotComparison),
    };
    let step = step.as_ref().ok_or(HeaderError::NoStep)?;
    let is_iter = |e: &Expr| e.as_ident() == Some(iter);
    let is_one = |e: &Expr| matches!(e.kind, ExprKind::IntLit(1));
    let unit = match &step.kind {
        ExprKind::Unary(UnOp::PreInc | UnOp::PostInc, target) => is_iter(target),
        ExprKind::Assign(AssignOp::Add, lhs, rhs) => is_iter(lhs) && is_one(rhs),
        ExprKind::Assign(AssignOp::Assign, lhs, rhs) => {
            is_iter(lhs)
                && matches!(&rhs.kind, ExprKind::Binary(BinOp::Add, a, b)
                    if (is_iter(a) && is_one(b)) || (is_one(a) && is_iter(b)))
        }
        _ => false,
    };
    if !unit {
        return Err(HeaderError::NonUnitStep(iter));
    }
    Ok(CanonicalFor {
        iter,
        declared,
        lb,
        bound,
        inclusive,
        body,
    })
}

impl ForInit {
    /// The names this init binds as loop iterators: every declarator of
    /// a declaration, or the plain variable a `x = e` init assigns.
    /// Looser than [`canonical_for`] on purpose — this is "which names
    /// does the nest treat as its own", for loops of any shape.
    pub fn bound_names(&self) -> impl Iterator<Item = &str> {
        let (decls, assigned) = match self {
            ForInit::Decl(d) => (d.declarators.as_slice(), None),
            ForInit::Expr(Some(Expr {
                kind: ExprKind::Assign(AssignOp::Assign, lhs, _),
                ..
            })) => (&[][..], lhs.as_ident()),
            ForInit::Expr(_) => (&[][..], None),
        };
        decls.iter().map(|d| d.name.as_str()).chain(assigned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn body_of(src: &str) -> Vec<Stmt> {
        let unit = parse(src).unit;
        let f = unit.functions().next().expect("a function");
        f.body.clone().expect("a body").stmts
    }

    #[test]
    fn a_non_loop_is_not_a_canonical_loop() {
        let stmts = body_of("void f() { int x; }");
        assert_eq!(canonical_for(&stmts[0]).unwrap_err(), HeaderError::NotAFor);
    }

    #[test]
    fn bound_names_are_the_declared_or_assigned_variables() {
        let names = |src: &str| -> Vec<String> {
            let stmts = body_of(src);
            let StmtKind::For { init, .. } = &stmts.last().expect("a for").kind else {
                panic!("not a for: {src}");
            };
            init.bound_names().map(String::from).collect()
        };
        assert_eq!(
            names("void f() { for (int i = 0, j = 1; ; ) ; }"),
            ["i", "j"]
        );
        assert_eq!(names("void f() { int i; for (i = 0; ; ) ; }"), ["i"]);
        // Neither a compound assignment nor a subscripted target binds.
        assert!(names("void f() { int i; for (i += 1; ; ) ; }").is_empty());
        assert!(names("void f(int* a) { for (a[0] = 0; ; ) ; }").is_empty());
        assert!(names("void f() { for (; ; ) ; }").is_empty());
    }
}
