//! AST → SCoP extraction (the Clan stage of the PluTo stack).
//!
//! Walks a `for`-nest PC-CC flagged as a SCoP and builds
//! the polyhedral model. Anything outside the affine subset produces a
//! [`Code::PolyNonAffine`] / [`Code::PolyUnsupported`] diagnostic and the
//! nest is left untransformed — mirroring PluTo, which simply refuses such
//! loops (the paper leans on this: without `pure`, calls make loops
//! non-analyzable).

use crate::affine::AffineExpr;
use crate::model::{Access, LoopDim, PolyStmt, Scop};
use cfront::ast::*;
use cfront::diag::{Code, Diagnostics};
use cfront::omp::{canonical_for, CanonicalFor, HeaderError};
use std::collections::{BTreeSet, HashMap};

/// Try to extract a SCoP from a for-statement. On failure, diagnostics
/// explain why (non-affine bound, unsupported statement form, …).
pub fn extract_scop(for_stmt: &Stmt, types: &IterTypes) -> Result<Scop, Diagnostics> {
    let mut diags = Diagnostics::new();
    let mut loops: Vec<LoopDim> = Vec::new();
    let mut cur = for_stmt;

    // Peel the perfect nest.
    while let StmtKind::For { body, .. } = &cur.kind {
        match extract_loop_dim(cur, types) {
            Ok(dim) => loops.push(dim),
            Err(msg) => {
                diags.error(Code::PolyNonAffine, cur.span, msg);
                return Err(diags);
            }
        }

        // Descend: body is either another `for` (possibly wrapped in a
        // single-statement block) or the innermost statement list.
        let inner = unwrap_single_for(body);
        match inner {
            Some(next_for) => cur = next_for,
            None => {
                let stmts = innermost_statements(body);
                let iters: BTreeSet<&str> = loops.iter().map(|l| l.name.as_str()).collect();
                let mut poly_stmts = Vec::new();
                for (id, s) in stmts.iter().enumerate() {
                    match extract_stmt(s, id, &iters) {
                        Ok(ps) => poly_stmts.push(ps),
                        Err(msg) => {
                            diags.error(Code::PolyUnsupported, s.span, msg);
                            return Err(diags);
                        }
                    }
                }
                if poly_stmts.is_empty() {
                    diags.error(
                        Code::PolyUnsupported,
                        body.span,
                        "loop body has no analyzable statements",
                    );
                    return Err(diags);
                }
                let params = collect_params(&loops, &poly_stmts);
                return Ok(Scop {
                    loops,
                    stmts: poly_stmts,
                    params,
                });
            }
        }
    }

    diags.error(Code::PolyUnsupported, for_stmt.span, "not a for-loop nest");
    Err(diags)
}

/// If `body` is exactly one nested `for` (directly or as the only statement
/// of a block), return it. A loop with an OpenMP header of its own is the
/// user's parallel loop, not a level of this nest: it stays a statement
/// of the body, which no nest models.
fn unwrap_single_for(body: &Stmt) -> Option<&Stmt> {
    match &body.kind {
        StmtKind::For { omp: None, .. } => Some(body),
        StmtKind::Block(b) => {
            let non_empty: Vec<&Stmt> = b
                .stmts
                .iter()
                .filter(|s| !matches!(s.kind, StmtKind::Expr(None)))
                .collect();
            match non_empty.as_slice() {
                [single] if matches!(single.kind, StmtKind::For { omp: None, .. }) => Some(single),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The innermost statement list (flattening one block level).
fn innermost_statements(body: &Stmt) -> Vec<&Stmt> {
    match &body.kind {
        StmtKind::Block(b) => b
            .stmts
            .iter()
            .filter(|s| !matches!(s.kind, StmtKind::Expr(None)))
            .collect(),
        _ => vec![body],
    }
}

/// Which names may stand for an integer loop iterator when a `for` init
/// *assigns* rather than declares (`int i; … for (i = 0; …)`): those
/// whose every declaration — among the unit's globals, the function's
/// parameters and its locals at any depth — is a plain integer.
/// Scope-blind on purpose: one pointer, array or floating declaration of
/// the name anywhere in the function disqualifies it, and a name never
/// seen declared is not admitted. The empty table admits only iterators
/// declared in their own `for` init, whose type is in hand.
#[derive(Debug, Default)]
pub struct IterTypes<'g> {
    /// Name → "every declaration seen of it is a plain integer".
    names: HashMap<String, bool>,
    /// The unit's table, when this one is a function's.
    globals: Option<&'g IterTypes<'g>>,
}

impl<'g> IterTypes<'g> {
    pub fn of_globals(unit: &TranslationUnit) -> Self {
        let mut types = IterTypes::default();
        for item in &unit.items {
            if let Item::Decl(d) = item {
                types.declare(d);
            }
        }
        types
    }

    /// One function's parameters and locals, over this table (the
    /// globals).
    pub fn in_function(&'g self, f: &Function) -> IterTypes<'g> {
        let mut types = IterTypes {
            names: HashMap::new(),
            globals: Some(self),
        };
        for p in &f.params {
            if let Some(name) = &p.name {
                types.note(name, integer_scalar(&p.ty, &[]));
            }
        }
        for s in f.body.iter().flat_map(|b| &b.stmts) {
            s.walk(&mut |s| match &s.kind {
                StmtKind::Decl(d) => types.declare(d),
                StmtKind::For { init, .. } => {
                    if let ForInit::Decl(d) = init.as_ref() {
                        types.declare(d);
                    }
                }
                _ => {}
            });
        }
        types
    }

    fn declare(&mut self, d: &Declaration) {
        for dec in &d.declarators {
            self.note(&dec.name, integer_scalar(&dec.ty, &dec.array_dims));
        }
    }

    fn note(&mut self, name: &str, integer: bool) {
        match self.names.get_mut(name) {
            Some(all) => *all &= integer,
            None => {
                self.names.insert(name.to_string(), integer);
            }
        }
    }

    fn admits(&self, name: &str) -> bool {
        let global = self.globals.and_then(|g| g.names.get(name));
        let mut seen = self.names.get(name).into_iter().chain(global);
        seen.next()
            .is_some_and(|first| *first && seen.all(|ok| *ok))
    }
}

fn integer_scalar(ty: &Type, array_dims: &[Expr]) -> bool {
    !ty.is_pointer() && ty.base.is_integer() && array_dims.is_empty()
}

/// One `for` of the nest as a unit-stride [`LoopDim`]: a canonical
/// header ([`canonical_for`], rendered here in the extractor's words)
/// over an integer iterator, with both bounds affine.
fn extract_loop_dim(stmt: &Stmt, types: &IterTypes) -> Result<LoopDim, String> {
    let CanonicalFor {
        iter,
        declared,
        lb,
        bound,
        inclusive,
        ..
    } = canonical_for(stmt).map_err(|e| match e {
        HeaderError::NotAFor => "not a for-loop nest".to_string(),
        HeaderError::MultipleDeclarators => "multiple declarators in loop init".into(),
        HeaderError::UninitializedIterator => "loop iterator lacks an initial value".into(),
        HeaderError::InitNotAssignment => "unsupported loop init expression".into(),
        HeaderError::InitTargetNotVariable => "loop init must assign a simple variable".into(),
        HeaderError::NoInit => "loop without init is not affine".into(),
        HeaderError::NoCondition => "loop without condition is not affine".into(),
        HeaderError::ConditionNotComparison => "unsupported loop condition".into(),
        HeaderError::ConditionNotOnIterator(i) => {
            format!("loop condition must test iterator '{i}'")
        }
        HeaderError::ConditionNotLess => "only < / <= loop conditions are supported".into(),
        HeaderError::NoStep => "loop without step".into(),
        HeaderError::NonUnitStep(i) => format!("loop over '{i}' must have unit stride"),
    })?;
    let integer = match declared {
        Some(ty) => integer_scalar(ty, &[]),
        None => types.admits(iter),
    };
    if !integer {
        return Err(format!("loop iterator '{iter}' is not an integer variable"));
    }
    let lb =
        AffineExpr::from_ast(lb).ok_or_else(|| format!("non-affine lower bound for '{iter}'"))?;
    let bound = AffineExpr::from_ast(bound)
        .ok_or_else(|| format!("non-affine upper bound for '{iter}'"))?;
    let ub = if inclusive {
        bound
    } else {
        bound.sub(&AffineExpr::constant(1))
    };
    Ok(LoopDim {
        name: iter.to_string(),
        lb,
        ub,
    })
}

/// Extract reads/writes of one innermost statement.
fn extract_stmt(stmt: &Stmt, id: usize, iters: &BTreeSet<&str>) -> Result<PolyStmt, String> {
    let StmtKind::Expr(Some(e)) = &stmt.kind else {
        return Err("only assignment statements are supported inside a scop nest".into());
    };
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    collect_accesses(e, iters, &mut writes, &mut reads)?;
    Ok(PolyStmt {
        id,
        writes,
        reads,
        ast: stmt.clone(),
    })
}

/// Recursive access collection. Assignment LHS → writes; everything else →
/// reads. Compound assignments read their target as well.
fn collect_accesses(
    e: &Expr,
    iters: &BTreeSet<&str>,
    writes: &mut Vec<Access>,
    reads: &mut Vec<Access>,
) -> Result<(), String> {
    match &e.kind {
        ExprKind::Assign(op, lhs, rhs) => {
            let acc = access_of(lhs, iters)?
                .ok_or("assignment target is not an array or scalar access")?;
            if *op != AssignOp::Assign {
                reads.push(acc.clone());
            }
            writes.push(acc);
            // Subscript expressions of the LHS are reads too.
            collect_index_reads(lhs, iters, reads)?;
            collect_accesses(rhs, iters, writes, reads)
        }
        ExprKind::Unary(op, inner) if op.writes_operand() => {
            let acc = access_of(inner, iters)?
                .ok_or("increment target is not an array or scalar access")?;
            reads.push(acc.clone());
            writes.push(acc);
            Ok(())
        }
        ExprKind::Index(..) => {
            if let Some(acc) = access_of(e, iters)? {
                reads.push(acc);
            }
            collect_index_reads(e, iters, reads)
        }
        ExprKind::Ident(name) => {
            // Scalar read; iterators and placeholders are not memory.
            if !iters.contains(name.as_str()) {
                reads.push(Access {
                    array: name.clone(),
                    indices: vec![],
                });
            }
            Ok(())
        }
        ExprKind::Binary(_, l, r) | ExprKind::Comma(l, r) => {
            collect_accesses(l, iters, writes, reads)?;
            collect_accesses(r, iters, writes, reads)
        }
        ExprKind::Ternary(c, t, f) => {
            collect_accesses(c, iters, writes, reads)?;
            collect_accesses(t, iters, writes, reads)?;
            collect_accesses(f, iters, writes, reads)
        }
        ExprKind::Unary(_, inner) | ExprKind::Cast(_, inner) => {
            collect_accesses(inner, iters, writes, reads)
        }
        ExprKind::Call { args, .. } => {
            // Calls inside scops are only the substituted placeholders'
            // arguments in degenerate cases; treat arguments as reads.
            for a in args {
                collect_accesses(a, iters, writes, reads)?;
            }
            Ok(())
        }
        ExprKind::Member { .. } => Err("struct accesses are not affine".into()),
        _ => Ok(()),
    }
}

/// Subscripts of an index chain are reads (e.g. `a[b[i]]` reads `b`).
fn collect_index_reads(
    e: &Expr,
    iters: &BTreeSet<&str>,
    reads: &mut Vec<Access>,
) -> Result<(), String> {
    if let ExprKind::Index(base, idx) = &e.kind {
        let mut dummy_writes = Vec::new();
        collect_accesses(idx, iters, &mut dummy_writes, reads)?;
        collect_index_reads(base, iters, reads)?;
    }
    Ok(())
}

/// Interpret an lvalue as an array access with affine subscripts.
/// `a[i][j]` → `Access { a, [i, j] }`; plain `x` → scalar access.
fn access_of(e: &Expr, _iters: &BTreeSet<&str>) -> Result<Option<Access>, String> {
    match &e.kind {
        ExprKind::Ident(name) => Ok(Some(Access {
            array: name.clone(),
            indices: vec![],
        })),
        ExprKind::Index(..) => {
            let mut indices = Vec::new();
            let mut cur = e;
            loop {
                match &cur.kind {
                    ExprKind::Index(base, idx) => {
                        let aff = AffineExpr::from_ast(idx)
                            .ok_or_else(|| "non-affine array subscript".to_string())?;
                        indices.push(aff);
                        cur = base;
                    }
                    ExprKind::Ident(name) => {
                        indices.reverse();
                        return Ok(Some(Access {
                            array: name.clone(),
                            indices,
                        }));
                    }
                    ExprKind::Cast(_, inner) => cur = inner,
                    _ => return Err("array base must be a simple variable".into()),
                }
            }
        }
        ExprKind::Cast(_, inner) => access_of(inner, _iters),
        ExprKind::Unary(UnOp::Deref, inner) => {
            // `*p` ≈ `p[0]`.
            match access_of(inner, _iters)? {
                Some(mut acc) => {
                    acc.indices.push(AffineExpr::constant(0));
                    Ok(Some(acc))
                }
                None => Ok(None),
            }
        }
        _ => Ok(None),
    }
}

/// Parameters = names in bounds/subscripts that are not loop iterators.
fn collect_params(loops: &[LoopDim], stmts: &[PolyStmt]) -> BTreeSet<String> {
    let iters: BTreeSet<&str> = loops.iter().map(|l| l.name.as_str()).collect();
    let mut params = BTreeSet::new();
    let mut note = |e: &AffineExpr| {
        for v in e.vars() {
            if !iters.contains(v) {
                params.insert(v.to_string());
            }
        }
    };
    for l in loops {
        note(&l.lb);
        note(&l.ub);
    }
    for s in stmts {
        for a in s.writes.iter().chain(&s.reads) {
            for ix in &a.indices {
                note(ix);
            }
        }
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::parser::parse;

    /// Parse a function and return its first for-loop statement.
    fn first_for(src: &str) -> Stmt {
        let unit = parse(src).unit;
        for f in unit.functions() {
            if let Some(body) = &f.body {
                for s in &body.stmts {
                    let mut found = None;
                    s.walk(&mut |st| {
                        if found.is_none() && matches!(st.kind, StmtKind::For { .. }) {
                            found = Some(st.clone());
                        }
                    });
                    if let Some(f) = found {
                        return f;
                    }
                }
            }
        }
        panic!("no for loop in source");
    }

    #[test]
    fn extracts_matmul_nest() {
        let s = first_for(
            "float **C;\nvoid f() {\n\
             for (int i = 0; i < 4096; ++i)\n\
                 for (int j = 0; j < 4096; ++j)\n\
                     C[i][j] = tmpConst_dot_0;\n}",
        );
        let scop = extract_scop(&s, &IterTypes::default()).expect("scop");
        assert_eq!(scop.depth(), 2);
        assert_eq!(scop.loops[0].name, "i");
        assert_eq!(scop.loops[1].ub, AffineExpr::constant(4095));
        assert_eq!(scop.stmts.len(), 1);
        assert_eq!(scop.stmts[0].writes.len(), 1);
        assert_eq!(scop.stmts[0].writes[0].array, "C");
        assert_eq!(scop.stmts[0].writes[0].indices.len(), 2);
        // The placeholder reads as a scalar.
        assert!(scop.stmts[0]
            .reads
            .iter()
            .any(|a| a.array == "tmpConst_dot_0"));
        assert_eq!(scop.constant_trip_count(), Some(4096 * 4096));
    }

    #[test]
    fn extracts_parametric_bounds() {
        let s = first_for("void f(int n, float* a) { for (int i = 0; i <= n - 1; i++) a[i] = 0; }");
        let scop = extract_scop(&s, &IterTypes::default()).unwrap();
        assert_eq!(scop.depth(), 1);
        assert!(scop.params.contains("n"));
        assert_eq!(scop.constant_trip_count(), None);
    }

    #[test]
    fn extracts_stencil_accesses() {
        let s = first_for(
            "void f(float** a, float** b) {\n\
             for (int i = 1; i < 63; i++)\n\
                 for (int j = 1; j < 63; j++)\n\
                     b[i][j] = a[i - 1][j] + a[i + 1][j] + a[i][j - 1] + a[i][j + 1];\n}",
        );
        let scop = extract_scop(&s, &IterTypes::default()).unwrap();
        let reads: Vec<String> = scop.stmts[0].reads.iter().map(|a| a.to_string()).collect();
        assert!(reads.contains(&"a[i - 1][j]".to_string()), "{reads:?}");
        assert!(reads.contains(&"a[i][j + 1]".to_string()), "{reads:?}");
        assert_eq!(scop.stmts[0].writes[0].to_string(), "b[i][j]");
    }

    #[test]
    fn compound_assignment_reads_target() {
        let s = first_for("void f(float* r) { for (int i = 0; i < 8; i++) r[0] += i; }");
        let scop = extract_scop(&s, &IterTypes::default()).unwrap();
        let st = &scop.stmts[0];
        assert_eq!(st.writes[0].to_string(), "r[0]");
        assert!(st.reads.iter().any(|a| a.to_string() == "r[0]"));
    }

    #[test]
    fn scalar_reduction_detected() {
        let s = first_for(
            "void f(float* a) { float res; for (int i = 0; i < 8; i++) res = res + a[i]; }",
        );
        let scop = extract_scop(&s, &IterTypes::default()).unwrap();
        let st = &scop.stmts[0];
        assert!(st
            .writes
            .iter()
            .any(|a| a.array == "res" && a.indices.is_empty()));
        assert!(st.reads.iter().any(|a| a.array == "res"));
    }

    #[test]
    fn rejects_non_affine_subscript() {
        let s = first_for("void f(float* a) { for (int i = 0; i < 8; i++) a[i * i] = 0; }");
        let err = extract_scop(&s, &IterTypes::default()).unwrap_err();
        assert!(err.has_code(Code::PolyNonAffine) || err.has_code(Code::PolyUnsupported));
    }

    #[test]
    fn rejects_non_unit_stride() {
        let s = first_for("void f(float* a) { for (int i = 0; i < 8; i += 2) a[i] = 0; }");
        assert!(extract_scop(&s, &IterTypes::default()).is_err());
    }

    #[test]
    fn rejects_imperfect_nest_with_interleaved_stmt() {
        let s = first_for(
            "void f(float** a, float* s) {\n\
             for (int i = 0; i < 8; i++) {\n\
                 s[i] = 0;\n\
                 for (int j = 0; j < 8; j++) a[i][j] = 1;\n\
             }\n}",
        );
        // Two innermost statements where one is a for → unsupported form.
        assert!(extract_scop(&s, &IterTypes::default()).is_err());
    }

    #[test]
    fn multiple_innermost_statements_allowed() {
        let s = first_for(
            "void f(float** a, float** b) {\n\
             for (int i = 0; i < 8; i++)\n\
                 for (int j = 0; j < 8; j++) {\n\
                     a[i][j] = i;\n\
                     b[i][j] = a[i][j] * 2;\n\
                 }\n}",
        );
        let scop = extract_scop(&s, &IterTypes::default()).unwrap();
        assert_eq!(scop.stmts.len(), 2);
        assert_eq!(scop.stmts[1].id, 1);
    }

    #[test]
    fn indirect_subscript_is_rejected() {
        // ELL-style indirect addressing must be refused (the paper's LAMA
        // loop is only parallelizable because the indirection is hidden
        // inside the pure function).
        let s =
            first_for("void f(float* a, int* idx) { for (int i = 0; i < 8; i++) a[idx[i]] = 0; }");
        assert!(extract_scop(&s, &IterTypes::default()).is_err());
    }

    #[test]
    fn pointer_deref_is_zero_index() {
        let s = first_for("void f(float* p) { for (int i = 0; i < 8; i++) *p = i; }");
        let scop = extract_scop(&s, &IterTypes::default()).unwrap();
        assert_eq!(scop.stmts[0].writes[0].to_string(), "p[0]");
    }

    #[test]
    fn le_condition_inclusive_bound() {
        let s = first_for("void f(float* a) { for (int i = 0; i <= 7; i++) a[i] = 0; }");
        let scop = extract_scop(&s, &IterTypes::default()).unwrap();
        assert_eq!(scop.loops[0].ub, AffineExpr::constant(7));
    }
}
