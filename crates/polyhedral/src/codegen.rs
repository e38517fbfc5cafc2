//! Loop code generation from a transformed iteration space — the ClooG
//! stage of the PluTo stack, plus the OpenMP header the paper's chain
//! relies on (`#pragma omp parallel for`, Listing 8: the parallel level's
//! `omp` field; the listing's `private(...)` clause is implied by
//! declaring each iterator in its own for-init).
//!
//! Bounds are derived by successive Fourier–Motzkin projection of the
//! t-space domain: for each new iterator (outermost first) the constraints
//! involving it — after inner iterators are eliminated — become `max(...)`
//! lower and `min(...)` upper bound expressions. Non-unit coefficients
//! (tile loops) emit `__pc_floord`/`__pc_ceild` helper calls, mirroring
//! ClooG's `floord`/`ceild`.

use crate::affine::AffineExpr;
use crate::fourier_motzkin::eliminate;
use crate::model::Scop;
use crate::polycc::PolyccOptions;
use crate::schedule::Transform;
use crate::set::{Constraint, ConstraintSystem, Rel};
use cfront::ast::*;
use cfront::diag::{Code, Diagnostics};
use cfront::span::Span;
use cfront::visit::visit_exprs_mut;
use std::collections::HashMap;

/// Generated code plus the iterator adaptation map for call reinsertion.
#[derive(Debug)]
pub struct Generated {
    /// Replacement statements: the transformed nest.
    pub stmts: Vec<Stmt>,
    /// Original iterator name → expression over the new iterators.
    pub iter_map: HashMap<String, Expr>,
    /// Did a level of the nest get an OpenMP header?
    pub parallelized: bool,
    /// Was the nest tiled?
    pub tiled: bool,
    /// Did codegen need the `__pc_floord`/`__pc_ceild`/`__pc_max`/`__pc_min`
    /// helpers? The driver injects their C definitions when true.
    pub needs_helpers: bool,
}

/// Names of the generated iterators, PluTo-style (`t1`, `t2`, …; tile
/// iterators get `t1t`, `t2t`, …).
fn point_iter(k: usize) -> String {
    format!("t{}", k + 1)
}

fn tile_iter(k: usize) -> String {
    format!("t{}t", k + 1)
}

/// Generate the transformed loop nest; its OpenMP header, if it gets one,
/// carries `schedule`.
pub fn generate(
    scop: &Scop,
    transform: &Transform,
    opts: PolyccOptions,
    schedule: Option<ScheduleClause>,
) -> Result<Generated, Diagnostics> {
    let n = scop.depth();
    let mut diags = Diagnostics::new();
    if transform.depth() != n {
        diags.error(
            Code::PolyUnsupported,
            Span::DUMMY,
            "transform rank does not match nest depth",
        );
        return Err(diags);
    }

    let Some(inverse) = transform.inverse() else {
        diags.error(
            Code::PolyUnsupported,
            Span::DUMMY,
            "transformation matrix is not unimodular",
        );
        return Err(diags);
    };

    // old_i = Σ inverse[i][k] · t_k
    let mut iter_map: HashMap<String, Expr> = HashMap::new();
    let mut iter_affine: HashMap<String, AffineExpr> = HashMap::new();
    for (i, dim) in scop.loops.iter().enumerate() {
        let mut e = AffineExpr::constant(0);
        for (k, &coeff) in inverse[i].iter().enumerate().take(n) {
            e = e.add(&AffineExpr::term(point_iter(k), coeff));
        }
        iter_map.insert(dim.name.clone(), e.to_ast());
        iter_affine.insert(dim.name.clone(), e);
    }

    // Domain constraints in t-space.
    let mut tsys = ConstraintSystem::new();
    for c in &scop.domain().constraints {
        let mut e = AffineExpr::constant(c.expr.konst);
        for (name, &coeff) in &c.expr.coeffs {
            match iter_affine.get(name) {
                Some(sub) => e = e.add(&sub.scale(coeff)),
                None => e = e.add(&AffineExpr::term(name.clone(), coeff)), // parameter
            }
        }
        tsys.push(Constraint {
            expr: e,
            rel: c.rel,
        });
    }

    // Tiling: only across a full permutable band, and only when one of its
    // dimensions spans more than one tile — tiling a band that fits in one
    // tile only wraps it in loops of one iteration.
    let tile = opts.tile.filter(|b| {
        (2..=PolyccOptions::MAX_TILE).contains(b)
            && transform.band == n
            && (0..n).any(|k| trip_count(scop, transform, k).is_none_or(|len| len > i128::from(*b)))
    });
    let tiled = tile.is_some();

    // Loop order outermost → innermost.
    let mut order: Vec<String> = Vec::new();
    if let Some(b) = tile {
        for k in 0..n {
            order.push(tile_iter(k));
        }
        for k in 0..n {
            order.push(point_iter(k));
        }
        // Tile constraints: b·Tk <= tk <= b·Tk + b - 1.
        for k in 0..n {
            let t = AffineExpr::var(point_iter(k));
            let bt = AffineExpr::term(tile_iter(k), b);
            tsys.push(Constraint::ge(&t, &bt));
            let mut hi = bt;
            hi.konst += b - 1;
            tsys.push(Constraint::le(&t, &hi));
        }
    } else {
        for k in 0..n {
            order.push(point_iter(k));
        }
    }

    // Successive projection: bounds for order[d] come from the system with
    // all deeper iterators eliminated.
    let mut projected: Vec<ConstraintSystem> = vec![ConstraintSystem::new(); order.len()];
    {
        let mut sys = tsys.clone();
        for d in (0..order.len()).rev() {
            projected[d] = sys.clone();
            sys = match eliminate(&sys, &order[d]) {
                Ok(next) => next,
                Err(reason) => {
                    diags.error(Code::PolyUnsupported, Span::DUMMY, reason);
                    return Err(diags);
                }
            };
        }
    }

    let mut needs_helpers = false;

    // Build bound expressions per level.
    struct Level {
        var: String,
        lb: Expr,
        ub: Expr,
    }
    let mut levels: Vec<Level> = Vec::new();
    for (d, var) in order.iter().enumerate() {
        // Only constraints whose deepest variable is `var`.
        let deeper: Vec<&String> = order[d + 1..].iter().collect();
        let mut lbs: Vec<Expr> = Vec::new();
        let mut ubs: Vec<Expr> = Vec::new();
        for c in &projected[d].constraints {
            let a = c.expr.coeff(var);
            if a == 0 || deeper.iter().any(|dv| c.expr.coeff(dv) != 0) {
                continue;
            }
            let mut rest = c.expr.clone();
            rest.coeffs.remove(var);
            match c.rel {
                Rel::Ge => {
                    if a > 0 {
                        // a·v + rest >= 0  ⇒  v >= ceild(-rest, a)
                        lbs.push(div_expr(rest.neg(), a, true, &mut needs_helpers));
                    } else {
                        // v <= floord(rest, -a)
                        ubs.push(div_expr(rest, -a, false, &mut needs_helpers));
                    }
                }
                Rel::Eq => {
                    lbs.push(div_expr(rest.neg(), a.abs(), true, &mut needs_helpers));
                    ubs.push(div_expr(rest.neg(), a.abs(), false, &mut needs_helpers));
                }
            }
        }
        if lbs.is_empty() || ubs.is_empty() {
            diags.error(
                Code::PolyUnsupported,
                Span::DUMMY,
                format!("could not derive bounds for generated iterator {var}"),
            );
            return Err(diags);
        }
        let lb = fold_minmax(lbs, "__pc_max", &mut needs_helpers);
        let ub = fold_minmax(ubs, "__pc_min", &mut needs_helpers);
        levels.push(Level {
            var: var.clone(),
            lb,
            ub,
        });
    }

    // Innermost body: original statements with renamed iterators.
    let mut body_stmts: Vec<Stmt> = Vec::new();
    for ps in &scop.stmts {
        let mut s = ps.ast.clone();
        visit_exprs_mut(&mut s, &mut |e| {
            if let ExprKind::Ident(name) = &e.kind {
                if let Some(rep) = iter_map.get(name) {
                    let span = e.span;
                    *e = rep.clone();
                    e.span = span;
                }
            }
        });
        body_stmts.push(s);
    }

    // Assemble nest innermost-out.
    let mut current: Stmt = if body_stmts.len() == 1 {
        body_stmts.pop().expect("one statement")
    } else {
        Stmt::new(
            StmtKind::Block(Block {
                stmts: body_stmts,
                span: Span::DUMMY,
            }),
            Span::DUMMY,
        )
    };

    // Which levels are parallel?
    let level_parallel = |lvl: usize| -> bool {
        if tiled {
            // Tile loops first (parallel iff no dependence moves along
            // their band dim), then point loops (parallel within a tile
            // iff dim parallel).
            if lvl < n {
                transform.tile_parallel[lvl]
            } else {
                transform.parallel[lvl - n]
            }
        } else {
            transform.parallel[lvl]
        }
    };
    // The pragma goes on the outermost parallel level with work for two
    // threads: a level whose constant bounds admit one iteration (the one
    // tile of a short dimension) is passed over.
    let single_iteration = |level: &Level| {
        matches!((&level.lb.kind, &level.ub.kind),
            (ExprKind::IntLit(lo), ExprKind::IntLit(hi)) if hi <= lo)
    };
    let omp_level = if opts.omp {
        (0..order.len()).find(|&l| level_parallel(l) && !single_iteration(&levels[l]))
    } else {
        None
    };

    for (lvl, level) in levels.iter().enumerate().rev() {
        let for_stmt = Stmt::new(
            StmtKind::For {
                init: Box::new(ForInit::Decl(Declaration {
                    storage: vec![],
                    declarators: vec![Declarator {
                        name: level.var.clone(),
                        ty: Type::int(),
                        array_dims: vec![],
                        init: Some(level.lb.clone()),
                        span: Span::DUMMY,
                    }],
                    span: Span::DUMMY,
                })),
                cond: Some(Expr::binary(
                    BinOp::Le,
                    Expr::ident(level.var.clone()),
                    level.ub.clone(),
                )),
                step: Some(Expr::new(
                    ExprKind::Unary(UnOp::PostInc, Box::new(Expr::ident(level.var.clone()))),
                    Span::DUMMY,
                )),
                body: Box::new(current),
                id: LoopId::NONE,
                affine: true,
                scop: false,
                // No `private(...)`: every inner iterator is declared in
                // its own for-init, which makes it private already — and
                // naming a variable not yet declared is an error to a C
                // compiler.
                omp: (Some(lvl) == omp_level).then(|| Box::new(OmpFor::parallel_for(schedule))),
            },
            Span::DUMMY,
        );

        current = if lvl > 0 && Some(lvl) == omp_level {
            // A parallel level under an outer loop stands in a block of
            // its own: every engine steps the block and the text prints its
            // braces, and both the dispatch counts and the text of such
            // nests are pinned.
            Stmt::new(
                StmtKind::Block(Block {
                    stmts: vec![for_stmt],
                    span: Span::DUMMY,
                }),
                Span::DUMMY,
            )
        } else {
            for_stmt
        };
    }

    Ok(Generated {
        stmts: vec![current],
        iter_map,
        parallelized: omp_level.is_some(),
        tiled,
        needs_helpers,
    })
}

/// The number of values new iterator `k` takes when every bound of the
/// nest is a constant (the nest is a box, and `t_k` a linear form over
/// it), or `None` when a bound is symbolic. Wide, so that no bound the
/// source can write overflows it.
fn trip_count(scop: &Scop, transform: &Transform, k: usize) -> Option<i128> {
    let (mut lo, mut hi) = (0, 0);
    for (dim, &m) in scop.loops.iter().zip(&transform.matrix[k]) {
        if !dim.lb.is_constant() || !dim.ub.is_constant() {
            return None;
        }
        let m = i128::from(m);
        let (a, b) = (m * i128::from(dim.lb.konst), m * i128::from(dim.ub.konst));
        lo += a.min(b);
        hi += a.max(b);
    }
    Some(hi - lo + 1)
}

/// `expr / a` rounded up (`ceil`) or down (`floor`). Unit divisors emit the
/// expression directly; otherwise a `__pc_ceild`/`__pc_floord` helper call.
fn div_expr(e: AffineExpr, a: i64, ceil: bool, needs_helpers: &mut bool) -> Expr {
    debug_assert!(a > 0);
    if a == 1 {
        return e.to_ast();
    }
    *needs_helpers = true;
    let name = if ceil { "__pc_ceild" } else { "__pc_floord" };
    Expr::call(name, vec![e.to_ast(), Expr::int(a)])
}

/// Fold multiple bound expressions with `__pc_max`/`__pc_min`.
fn fold_minmax(mut exprs: Vec<Expr>, helper: &str, needs_helpers: &mut bool) -> Expr {
    // Deduplicate structurally identical bounds.
    let mut uniq: Vec<Expr> = Vec::new();
    for e in exprs.drain(..) {
        if !uniq.contains(&e) {
            uniq.push(e);
        }
    }
    let mut it = uniq.into_iter();
    let first = it.next().expect("at least one bound");
    it.fold(first, |acc, e| {
        *needs_helpers = true;
        Expr::call(helper, vec![acc, e])
    })
}

/// C definitions of the codegen helpers, which polycc puts first in the
/// unit when [`Generated::needs_helpers`] is set. Written as the printer
/// prints them.
pub const HELPER_DEFS: &str = "\
int __pc_floord(int n, int d) {
    if (n >= 0)
        return n / d;
    return -((-n + d - 1) / d);
}

int __pc_ceild(int n, int d) {
    if (n >= 0)
        return (n + d - 1) / d;
    return -(-n / d);
}

int __pc_max(int a, int b) {
    return a > b ? a : b;
}

int __pc_min(int a, int b) {
    return a < b ? a : b;
}
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::analyze;
    use crate::extract::{extract_scop, IterTypes};
    use crate::schedule::compute_schedule;
    use cfront::parser::parse;
    use cfront::printer::print_stmt;

    #[test]
    fn helper_defs_print_as_written() {
        let parsed = parse(HELPER_DEFS);
        assert!(!parsed.diags.has_errors());
        assert_eq!(cfront::printer::print_unit(&parsed.unit), HELPER_DEFS);
    }

    fn scop_of(src: &str) -> Scop {
        let unit = parse(src).unit;
        let mut found: Option<Stmt> = None;
        for f in unit.functions() {
            if let Some(body) = &f.body {
                for s in &body.stmts {
                    s.walk(&mut |st| {
                        if found.is_none() && matches!(st.kind, StmtKind::For { .. }) {
                            found = Some(st.clone());
                        }
                    });
                }
            }
        }
        extract_scop(&found.expect("for"), &IterTypes::default()).expect("scop")
    }

    fn print_all(g: &Generated) -> String {
        g.stmts.iter().map(print_stmt).collect::<Vec<_>>().join("")
    }

    #[test]
    fn matmul_generates_parallel_t1_t2() {
        let scop = scop_of(
            "float** C;\nvoid f() {\n\
             for (int i = 0; i < 4096; i++)\n\
                 for (int j = 0; j < 4096; j++)\n\
                     C[i][j] = tmpConst_dot_0;\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        let g = generate(&scop, &t, PolyccOptions::default(), None).expect("codegen");
        let out = print_all(&g);
        assert!(g.parallelized);
        // The pragma sits on the t1 loop; t2 is private by being declared
        // in its own for-init, not by a clause.
        assert!(
            out.contains("#pragma omp parallel for\nfor (int t1 = 0; t1 <= 4095; t1++)"),
            "{out}"
        );
        assert!(out.contains("for (int t2 = 0; t2 <= 4095; t2++)"), "{out}");
        assert!(!out.contains("private("), "{out}");
        assert!(out.contains("C[t1][t2] = tmpConst_dot_0;"), "{out}");
        // Iterator map points i→t1, j→t2.
        assert_eq!(cfront::printer::print_expr(&g.iter_map["i"]), "t1");
        assert_eq!(cfront::printer::print_expr(&g.iter_map["j"]), "t2");
    }

    #[test]
    fn fig2_skewed_codegen_bounds() {
        let scop = scop_of(
            "void f(float** a) {\n\
             for (int i = 1; i < 64; i++)\n\
                 for (int j = 1; j < 63; j++)\n\
                     a[i][j] = a[i - 1][j] + a[i - 1][j + 1];\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        assert!(t.skewed);
        let g = generate(&scop, &t, PolyccOptions::default(), None).expect("codegen");
        let out = print_all(&g);
        // t1 = i ∈ [1,63]; t2 = i + j ∈ [t1+1, t1+62].
        assert!(out.contains("for (int t1 = 1; t1 <= 63; t1++)"), "{out}");
        assert!(out.contains("t1 + 1"), "{out}");
        assert!(out.contains("t1 + 62"), "{out}");
        // Statement indices adapt: i→t1, j→t2−t1.
        assert!(
            out.contains("a[t1][t2 - t1]") || out.contains("a[t1][-t1 + t2]"),
            "{out}"
        );
        // Inner loop is the parallel one (wavefront).
        assert!(out.contains("#pragma omp parallel for"), "{out}");
    }

    #[test]
    fn tiled_matmul_has_four_loops_and_helpers() {
        let scop = scop_of(
            "float** C;\nvoid f() {\n\
             for (int i = 0; i < 4096; i++)\n\
                 for (int j = 0; j < 4096; j++)\n\
                     C[i][j] = tmpConst_dot_0;\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        let g = generate(
            &scop,
            &t,
            PolyccOptions {
                tile: Some(32),
                omp: true,
            },
            None,
        )
        .expect("codegen");
        assert!(g.tiled);
        assert!(g.needs_helpers);
        let out = print_all(&g);
        assert!(out.contains("t1t"), "{out}");
        assert!(out.contains("t2t"), "{out}");
        // Constant tile bounds fold at compile time (normalize() performs
        // the floord); the point loops keep max/min clamps.
        assert!(
            out.contains("__pc_max") && out.contains("__pc_min"),
            "{out}"
        );
        assert!(out.contains("32 * t1t"), "{out}");
        // Parallel pragma lands on the outermost (tile) loop.
        assert!(
            out.contains("#pragma omp parallel for\nfor (int t1t = "),
            "{out}"
        );
        assert!(!out.contains("private("), "{out}");
    }

    fn generate_tiled(src: &str, tile: i64) -> (Generated, String) {
        let scop = scop_of(src);
        let t = compute_schedule(&scop, &analyze(&scop).deps);
        let opts = PolyccOptions {
            tile: Some(tile),
            omp: true,
        };
        let g = generate(&scop, &t, opts, None).expect("codegen");
        let out = print_all(&g);
        (g, out)
    }

    #[test]
    fn a_band_within_one_tile_is_not_tiled() {
        let src = "float** C;\nvoid f() {\n\
                   for (int i = 0; i < 64; i++)\n\
                       for (int j = 0; j < 64; j++)\n\
                           C[i][j] = tmpConst_dot_0;\n}";
        let (g, out) = generate_tiled(src, 64);
        assert!(!g.tiled && !g.needs_helpers, "{out}");
        assert!(
            out.contains("#pragma omp parallel for\nfor (int t1 = 0; t1 <= 63; t1++)"),
            "{out}"
        );
        // One dimension longer than a tile is enough; a symbolic one too.
        assert!(generate_tiled(&src.replace("j < 64", "j < 65"), 64).0.tiled);
        let symbolic = "void f(int n, float* a) { for (int i = 0; i < n; i++) a[i] = 0; }";
        assert!(generate_tiled(symbolic, 64).0.tiled);
    }

    #[test]
    fn the_pragma_passes_over_a_one_tile_loop() {
        let src = "float** C;\nvoid f() {\n\
                   for (int i = 0; i < 16; i++)\n\
                       for (int j = 0; j < 100; j++)\n\
                           C[i][j] = tmpConst_dot_0;\n}";
        let (g, out) = generate_tiled(src, 32);
        assert!(g.tiled && g.parallelized, "{out}");
        assert!(out.contains("for (int t1t = 0; t1t <= 0; t1t++)"), "{out}");
        assert!(
            out.contains("#pragma omp parallel for\n    for (int t2t = 0; t2t <= 3; t2t++)"),
            "{out}"
        );
        assert_eq!(out.matches("#pragma").count(), 1, "{out}");
    }

    #[test]
    fn an_edge_outside_the_bound_tiles_nothing() {
        let src = "void f(int n, float* a) { for (int i = 0; i < n; i++) a[i] = 0; }";
        for tile in [-4, 0, 1, PolyccOptions::MAX_TILE + 1] {
            assert!(!generate_tiled(src, tile).0.tiled, "{tile}");
        }
        let (g, out) = generate_tiled(src, PolyccOptions::MAX_TILE);
        assert!(g.tiled, "{out}");
    }

    #[test]
    fn sequential_reduction_gets_no_pragma() {
        let scop = scop_of(
            "void f(float* a) { float res; for (int i = 0; i < 8; i++) res = res + a[i]; }",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        let g = generate(&scop, &t, PolyccOptions::default(), None).expect("codegen");
        assert!(!g.parallelized);
        let out = print_all(&g);
        assert!(!out.contains("omp parallel"), "{out}");
        assert!(out.contains("for (int t1 = 0; t1 <= 7; t1++)"), "{out}");
    }

    #[test]
    fn parametric_bounds_survive_codegen() {
        let scop = scop_of("void f(int n, float* a) { for (int i = 0; i < n; i++) a[i] = 0; }");
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        let g = generate(&scop, &t, PolyccOptions::default(), None).expect("codegen");
        let out = print_all(&g);
        assert!(out.contains("t1 <= n - 1"), "{out}");
    }

    #[test]
    fn generated_code_reparses() {
        let scop = scop_of(
            "float** C;\nvoid f() {\n\
             for (int i = 0; i < 64; i++)\n\
                 for (int j = 0; j < 64; j++)\n\
                     C[i][j] = tmpConst_dot_0;\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        for tile in [None, Some(16)] {
            let g = generate(&scop, &t, PolyccOptions { tile, omp: true }, None).expect("codegen");
            let src = format!("void wrapper() {{\n{}\n}}", print_all(&g));
            let r = parse(&src);
            assert!(
                !r.diags.has_errors(),
                "{}:\n{src}",
                r.diags.render_all(&src)
            );
        }
    }
}

#[cfg(test)]
mod codegen_proptests {
    use super::*;
    use crate::deps::analyze;
    use crate::extract::{extract_scop, IterTypes};
    use crate::schedule::compute_schedule;
    use cfront::parser::parse;
    use proptest::prelude::*;

    /// Generated code for a randomly sized 2-D parallel nest must
    /// enumerate exactly the same iteration points as the original
    /// (checked by interpreting both bound structures symbolically via
    /// constant folding — here: counting points with the domain).
    fn scop_for(n: i64, m: i64) -> crate::model::Scop {
        let src = format!(
            "float** C;\nvoid f() {{\n\
             for (int i = 0; i < {n}; i++)\n\
                 for (int j = 0; j < {m}; j++)\n\
                     C[i][j] = tmpConst_k_0;\n}}"
        );
        let unit = parse(&src).unit;
        let mut found: Option<cfront::ast::Stmt> = None;
        for f in unit.functions() {
            if let Some(body) = &f.body {
                for s in &body.stmts {
                    s.walk(&mut |st| {
                        if found.is_none() && matches!(st.kind, cfront::ast::StmtKind::For { .. }) {
                            found = Some(st.clone());
                        }
                    });
                }
            }
        }
        extract_scop(&found.unwrap(), &IterTypes::default()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn generated_nest_preserves_trip_count(n in 1i64..40, m in 1i64..40, tile in prop::option::of(2i64..16)) {
            let scop = scop_for(n, m);
            let deps = analyze(&scop).deps;
            let t = compute_schedule(&scop, &deps);
            let g = generate(
                &scop,
                &t,
                PolyccOptions { tile, omp: true },
                None,
            )
            .expect("codegen");
            // The generated code must reparse as valid C.
            let wrapped = format!("void w() {{\n{}\n}}",
                g.stmts.iter().map(cfront::print_stmt).collect::<String>());
            let r = parse(&wrapped);
            prop_assert!(!r.diags.has_errors(), "{}", r.diags.render_all(&wrapped));
            // And the domain's trip count is preserved by the transform
            // (unimodular ⇒ bijection on integer points).
            prop_assert_eq!(scop.constant_trip_count(), Some((n * m) as u64));
        }
    }
}
