//! `polycc` — the driver entry of the polyhedral stage (what the PluTo
//! distribution's `polycc` script does): find the loop nests PC-CC flagged
//! as SCoPs (`StmtKind::For { scop: true, .. }`, wherever they sit), then
//! model, analyze, schedule, and replace them with transformed, annotated
//! loop nests. A flagged nest's own OpenMP header (the user's, a field
//! of the loop) moves to the parallel level polycc generates. polycc
//! judges no nest's candidacy itself: an unflagged
//! loop, a user `#pragma scop` line included, is left as it is. PC-CC
//! flags only nests the per-name model can be trusted on
//! (`purec_core::nest_hazards`: no pure call reads what the nest writes,
//! no two accessed names alias), so the dependence test is exact on
//! every nest polycc sees — and polycc moves no nest across another,
//! since nothing would check what the calls between them read.
//!
//! Imperfect nests degrade gracefully: if the flagged loop itself cannot be
//! modelled (e.g. an allocation loop whose body holds `malloc` rows and an
//! init nest), the driver keeps the loop sequential
//! and recurses into its children, transforming every inner nest it *can*
//! model — which is exactly the behaviour the paper's evaluation relies on.

use crate::codegen::{generate, Generated, HELPER_DEFS};
use crate::deps::{analyze, DepAnalysis};
use crate::extract::{extract_scop, IterTypes};
use crate::schedule::{compute_schedule, Transform};
use cfront::ast::*;
use cfront::diag::Diagnostics;
use cfront::printer::print_expr;
use cfront::visit::visit_exprs_mut_pruned;
use std::collections::{HashMap, HashSet};

/// Options for the whole polyhedral stage: how the flagged nests are
/// transformed, never which nests are.
#[derive(Debug, Clone, Copy)]
pub struct PolyccOptions {
    /// Rectangular tile edge for a full permutable band (`--tile N`),
    /// honoured when it lies in `2..=`[`Self::MAX_TILE`]. A band none of
    /// whose dimensions spans more than one tile is left untiled.
    pub tile: Option<i64>,
    /// Give the outermost parallel loop that has work for more than one
    /// thread an `omp parallel for` header.
    pub omp: bool,
}

impl PolyccOptions {
    /// The largest tile edge `b`. A tiled nest prints the constants `b` and
    /// `b − 1` and the point-loop bound `b·T + b − 1`, which lies within
    /// `b − 1` of the loop's own bound; with `b ≤ 2¹⁶` all three fit in C
    /// `int` for every loop whose bounds lie 2¹⁶ inside `int`'s range.
    pub const MAX_TILE: i64 = 1 << 16;
}

impl Default for PolyccOptions {
    fn default() -> Self {
        PolyccOptions {
            tile: None,
            omp: true,
        }
    }
}

/// What happened to one marked region.
#[derive(Debug)]
pub enum RegionOutcome {
    Transformed {
        depth: usize,
        parallelized: bool,
        tiled: bool,
        skewed: bool,
        /// Original iterator → new-iterator expression, for reinsertion of
        /// the substituted pure calls in this region.
        iter_map: HashMap<String, Expr>,
        /// `tmpConst_*` placeholders appearing in the region.
        placeholders: Vec<String>,
        transform: Transform,
    },
    /// Left sequential (model extraction failed); children may still have
    /// been transformed (they appear as separate outcomes).
    Skipped { reason: String },
}

/// Report of a `polycc` run.
#[derive(Debug, Default)]
pub struct PolyccReport {
    pub regions: Vec<RegionOutcome>,
    /// Always 0: polycc fuses no nests (see `finish_block`). The field
    /// stays only while purebench's layer table reads it.
    pub fused: usize,
    /// Loop bounds hoisted to `__pc_ub*` temporaries ahead of their nests.
    pub hoisted: usize,
    /// Invariant row pointers hoisted to `__pc_row*` temporaries out of
    /// inner loops (strength reduction of two-level subscript streams).
    pub rows_hoisted: usize,
    /// True when any generated code uses the `__pc_*` helpers, whose
    /// definitions [`transform_regions`] then puts first in the unit.
    pub needs_helpers: bool,
    /// Full Fourier–Motzkin elimination passes the dependence analyses of
    /// this run took — the stage's exact work count.
    pub fm_solves: usize,
    pub diags: Diagnostics,
}

impl PolyccReport {
    pub fn transformed_count(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| matches!(r, RegionOutcome::Transformed { .. }))
            .count()
    }

    pub fn parallelized_count(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    RegionOutcome::Transformed {
                        parallelized: true,
                        ..
                    }
                )
            })
            .count()
    }

    pub fn tiled_count(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| matches!(r, RegionOutcome::Transformed { tiled: true, .. }))
            .count()
    }

    /// Merge all per-region iterator maps keyed by placeholder name.
    pub fn placeholder_iter_maps(&self) -> HashMap<String, HashMap<String, Expr>> {
        let mut out = HashMap::new();
        for r in &self.regions {
            if let RegionOutcome::Transformed {
                iter_map,
                placeholders,
                ..
            } = r
            {
                for p in placeholders {
                    out.insert(p.clone(), iter_map.clone());
                }
            }
        }
        out
    }
}

/// Run the polyhedral stage over a marked translation unit: the two
/// halves, [`transform_regions`] then [`hoist_row_pointers`], back to back.
pub fn run_polycc(unit: &mut TranslationUnit, opts: PolyccOptions) -> PolyccReport {
    let mut report = transform_regions(unit, opts);
    hoist_row_pointers(unit, &mut report);
    report
}

/// The first half of the stage: model, schedule and replace every marked
/// region (bound-hoisting the results). Every loop of a
/// replacement is built `affine`; when one calls a `__pc_*` helper, the
/// helpers' definitions ([`HELPER_DEFS`]) become the unit's first items.
pub fn transform_regions(unit: &mut TranslationUnit, opts: PolyccOptions) -> PolyccReport {
    let mut report = PolyccReport::default();
    let globals = IterTypes::of_globals(unit);
    for item in &mut unit.items {
        let Item::Function(f) = item else { continue };
        let types = globals.in_function(f);
        let Some(body) = &mut f.body else { continue };
        let cx = Cx {
            opts,
            types: &types,
        };
        process_block(body, cx, &mut report);
    }
    if report.needs_helpers {
        let helpers = cfront::parser::parse(HELPER_DEFS).unit.items;
        unit.items.splice(0..0, helpers);
    }
    report
}

/// The second half of the stage: strength-reduce invariant rows out of
/// every transformed nest, counted in `report.rows_hoisted`. Transformed
/// nests are identifiable by their `affine` flag wherever they ended up,
/// so a whole-unit sweep needs no state from the region walk. A call's
/// arguments are opaque to every walk of the hoist: the pure calls were
/// `tmpConst_*` placeholders while the regions were transformed, and the
/// hoist emits the same text on either side of their reinsertion.
pub fn hoist_row_pointers(unit: &mut TranslationUnit, report: &mut PolyccReport) {
    let rows = row_pointer_globals(unit);
    if rows.is_empty() {
        return;
    }
    for item in &mut unit.items {
        let Item::Function(f) = item else { continue };
        let Some(body) = &mut f.body else { continue };
        hoist_rows_below(&mut body.stmts, &rows, report);
    }
}

/// [`hoist_rows`] on this list and on every list below it outside the
/// transformed nests: nests can sit at any block depth (e.g. spatial nests
/// transformed inside a rejected time loop), and the loops inside a nest
/// are its own.
fn hoist_rows_below(stmts: &mut [Stmt], rows: &HashMap<String, Type>, report: &mut PolyccReport) {
    hoist_rows(stmts, rows, report);
    for s in stmts {
        match &mut s.kind {
            StmtKind::For { affine: true, .. } => {}
            StmtKind::Block(b) => hoist_rows_below(&mut b.stmts, rows, report),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                hoist_rows_below(std::slice::from_mut(&mut **then_branch), rows, report);
                if let Some(e) = else_branch {
                    hoist_rows_below(std::slice::from_mut(&mut **e), rows, report);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => {
                hoist_rows_below(std::slice::from_mut(&mut **body), rows, report)
            }
            _ => {}
        }
    }
}

/// What the region walk carries down one function body.
#[derive(Clone, Copy)]
struct Cx<'a> {
    opts: PolyccOptions,
    /// Which assigned (not declared) iterators of this function are
    /// integers.
    types: &'a IterTypes<'a>,
}

/// Transform the SCoP-flagged nest `loop_stmt`: `Some` replacement
/// statements, or `None` when the loop stays (its children possibly
/// transformed in place). The user's OpenMP header on the nest moves to
/// the replacement's parallel level, carrying its schedule, so the output
/// never holds two headers for one loop; a nest the user asserted
/// parallel whose replacement stayed sequential keeps its literal loop
/// and header, so parallelism is never silently lost.
fn place_nest(loop_stmt: &mut Stmt, cx: Cx, report: &mut PolyccReport) -> Option<Vec<Stmt>> {
    let StmtKind::For { omp, .. } = &mut loop_stmt.kind else {
        return None;
    };
    let Some(user) = omp.take() else {
        return transform_nest(loop_stmt, None, cx, report);
    };
    let snapshot = (report.regions.len(), report.needs_helpers);
    match transform_nest(loop_stmt, user.schedule, cx, report) {
        Some(stmts)
            if matches!(
                report.regions.last(),
                Some(RegionOutcome::Transformed {
                    parallelized: true,
                    ..
                })
            ) =>
        {
            return Some(stmts)
        }
        Some(_) => {
            report.regions.truncate(snapshot.0);
            report.needs_helpers = snapshot.1;
            report.regions.push(RegionOutcome::Skipped {
                reason: "user-parallel nest not auto-parallelized; kept literal".into(),
            });
            descend(loop_stmt, cx, report);
        }
        None => {}
    }
    if let StmtKind::For { omp, .. } = &mut loop_stmt.kind {
        *omp = Some(user);
    }
    None
}

/// Replace every SCoP-flagged nest of a block with transformed code,
/// then bound-hoist the resulting nests.
fn process_block(block: &mut Block, cx: Cx, report: &mut PolyccReport) {
    let mut i = 0;
    while i < block.stmts.len() {
        if !matches!(block.stmts[i].kind, StmtKind::For { scop: true, .. }) {
            descend(&mut block.stmts[i], cx, report);
            i += 1;
            continue;
        }
        if let Some(StmtKind::Pragma(hint)) = i.checked_sub(1).map(|p| &block.stmts[p].kind) {
            // `#pragma GCC ivdep` and its kin must head their loop as GCC
            // reads it, so a header or a hoisted bound cannot go between
            // them: the nest stays as written.
            report.regions.push(RegionOutcome::Skipped {
                reason: format!("under `#{hint}`, kept as written"),
            });
            if let StmtKind::For { scop, .. } = &mut block.stmts[i].kind {
                *scop = false;
            }
            i += 1;
            continue;
        }
        match place_nest(&mut block.stmts[i], cx, report) {
            Some(stmts) => {
                let count = stmts.len();
                block.stmts.splice(i..=i, stmts);
                i += count;
            }
            None => i += 1,
        }
    }
    finish_block(&mut block.stmts, report);
}

/// The post-pass over a finished statement list: hoist the non-trivial
/// loop bounds of its transformed nests. Each nest stays where it was:
/// the nests around it were judged apart, and a pure call's reads — a
/// `tmpConst_*` placeholder to the model — are visible to no test that
/// could move one across another.
fn finish_block(stmts: &mut Vec<Stmt>, report: &mut PolyccReport) {
    hoist_bounds(stmts, report);
}

fn descend(stmt: &mut Stmt, cx: Cx, report: &mut PolyccReport) {
    match &mut stmt.kind {
        StmtKind::Block(b) => process_block(b, cx, report),
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            process_body(then_branch, cx, report);
            if let Some(e) = else_branch {
                process_body(e, cx, report);
            }
        }
        StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. }
        | StmtKind::For { body, .. } => process_body(body, cx, report),
        _ => {}
    }
}

/// The body of an `if`, `while` or `for`. A flagged nest hanging there
/// bare (`if (c) for …`) is replaced by a block of its transformed code.
fn process_body(body: &mut Stmt, cx: Cx, report: &mut PolyccReport) {
    if !matches!(body.kind, StmtKind::For { scop: true, .. }) {
        return descend(body, cx, report);
    }
    if let Some(mut stmts) = place_nest(body, cx, report) {
        finish_block(&mut stmts, report);
        let span = body.span;
        *body = Stmt::new(StmtKind::Block(Block { stmts, span }), span);
    }
}

/// Transform one marked nest. Returns the replacement statements, or `None`
/// to keep the original loop (possibly with transformed children, already
/// rewritten in-place through `loop_stmt`).
fn transform_nest(
    loop_stmt: &mut Stmt,
    schedule: Option<ScheduleClause>,
    cx: Cx,
    report: &mut PolyccReport,
) -> Option<Vec<Stmt>> {
    let Cx { opts, types } = cx;
    // The mark is consumed: a nest kept as it is leaves polycc unflagged.
    if let StmtKind::For { scop, .. } = &mut loop_stmt.kind {
        *scop = false;
    }
    match extract_scop(loop_stmt, types) {
        Ok(scop) => {
            let DepAnalysis { deps, fm_solves } = analyze(&scop);
            report.fm_solves += fm_solves;
            let transform = compute_schedule(&scop, &deps);
            match generate(&scop, &transform, opts, schedule) {
                Ok(Generated {
                    stmts,
                    iter_map,
                    parallelized,
                    tiled,
                    needs_helpers,
                }) => {
                    report.needs_helpers |= needs_helpers;
                    let placeholders = collect_placeholders(&stmts);
                    report.regions.push(RegionOutcome::Transformed {
                        depth: scop.depth(),
                        parallelized,
                        tiled,
                        skewed: transform.skewed,
                        iter_map,
                        placeholders,
                        transform,
                    });
                    Some(stmts)
                }
                Err(diags) => {
                    let reason = diags
                        .items()
                        .first()
                        .map(|d| d.message.clone())
                        .unwrap_or_else(|| "code generation failed".into());
                    report.diags.extend(diags);
                    report.regions.push(RegionOutcome::Skipped { reason });
                    None
                }
            }
        }
        Err(diags) => {
            // Imperfect / non-affine: keep the loop sequential but try the
            // children (a time loop over two sweeps, an allocation loop).
            let reason = diags
                .items()
                .first()
                .map(|d| d.message.clone())
                .unwrap_or_else(|| "not a static control part".into());
            report.regions.push(RegionOutcome::Skipped { reason });
            let StmtKind::For { body, .. } = &mut loop_stmt.kind else {
                return None;
            };
            // The nests directly inside a SCoP are SCoPs too.
            let children = match &mut body.kind {
                StmtKind::Block(b) => &mut b.stmts[..],
                _ => std::slice::from_mut(&mut **body),
            };
            for child in children {
                if let StmtKind::For { scop, .. } = &mut child.kind {
                    *scop = true;
                }
            }
            process_body(body, cx, report);
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Bound hoisting: evaluate non-trivial loop bounds once, ahead of the nest
// ---------------------------------------------------------------------------

/// Only expressions we generated ourselves are hoisted: affine arithmetic
/// over identifiers and the pure `__pc_*` division/minmax helpers. Anything
/// else (user calls, side effects) stays in place.
fn hoistable_expr(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::Ident(_) => true,
        ExprKind::Unary(UnOp::Neg, inner) => hoistable_expr(inner),
        ExprKind::Binary(_, l, r) => hoistable_expr(l) && hoistable_expr(r),
        ExprKind::Call { callee, args } => {
            matches!(&callee.kind, ExprKind::Ident(n) if n.starts_with("__pc_"))
                && args.iter().all(hoistable_expr)
        }
        _ => false,
    }
}

fn expr_idents(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Ident(n) => {
            out.insert(n.clone());
        }
        ExprKind::Unary(_, inner) => expr_idents(inner, out),
        ExprKind::Binary(_, l, r) => {
            expr_idents(l, out);
            expr_idents(r, out);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                expr_idents(a, out);
            }
        }
        _ => {}
    }
}

/// Base identifier written through an assignment target.
fn written_base(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Ident(n) => Some(n),
        ExprKind::Index(base, _) => written_base(base),
        ExprKind::Member { base, .. } => written_base(base),
        ExprKind::Unary(_, inner) => written_base(inner),
        _ => None,
    }
}

/// Does the subtree write any of `names`? (Assignments and inc/dec.)
fn writes_any(stmt: &Stmt, names: &HashSet<String>) -> bool {
    let mut hit = false;
    stmt.walk_exprs(&mut |e| {
        let target = match &e.kind {
            ExprKind::Assign(_, lhs, _) => written_base(lhs),
            ExprKind::Unary(UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec, t) => {
                written_base(t)
            }
            _ => None,
        };
        if let Some(n) = target {
            if names.contains(n) {
                hit = true;
            }
        }
    });
    hit
}

fn int_decl(name: &str, init: Expr, span: cfront::span::Span) -> Stmt {
    Stmt::new(
        StmtKind::Decl(Declaration {
            storage: vec![],
            declarators: vec![Declarator {
                name: name.to_string(),
                ty: Type::int(),
                array_dims: vec![],
                init: Some(init),
                span,
            }],
            span,
        }),
        span,
    )
}

/// Hoist the non-trivial upper bounds of every transformed nest in this
/// statement list: `for (t <= __pc_min(...))` becomes
/// `int __pc_ubK = __pc_min(...); for (t <= __pc_ubK)`, evaluated once per
/// entry of the enclosing loop level instead of once per iteration — and
/// the resulting `iter <= local` condition is what the VM's affine opcode
/// fast path requires. A nest's declarations go just before it (no
/// pragma heads a transformed nest: [`process_block`] keeps those as
/// written).
fn hoist_bounds(stmts: &mut Vec<Stmt>, report: &mut PolyccReport) {
    let mut i = 0;
    while i < stmts.len() {
        if !matches!(stmts[i].kind, StmtKind::For { affine: true, .. }) {
            i += 1;
            continue;
        }
        let mut decls = Vec::new();
        hoist_for(&mut stmts[i], &mut decls, report);
        let n = decls.len();
        stmts.splice(i..i, decls);
        i += n + 1;
    }
}

/// Hoist this For's own bound into `decls` (emitted before the loop),
/// then recurse into the body, where inner bounds land just inside the
/// enclosing loop (their outer iterators are in scope there).
fn hoist_for(stmt: &mut Stmt, decls: &mut Vec<Stmt>, report: &mut PolyccReport) {
    let mut replacement: Option<(Expr, String)> = None;
    if let StmtKind::For {
        cond: Some(c),
        body,
        ..
    } = &stmt.kind
    {
        if let ExprKind::Binary(BinOp::Le | BinOp::Lt, _, rhs) = &c.kind {
            if !matches!(rhs.kind, ExprKind::Ident(_) | ExprKind::IntLit(_)) && hoistable_expr(rhs)
            {
                let mut names = HashSet::new();
                expr_idents(rhs, &mut names);
                if !writes_any(body, &names) {
                    report.hoisted += 1;
                    let name = format!("__pc_ub{}", report.hoisted);
                    replacement = Some(((**rhs).clone(), name));
                }
            }
        }
    }
    if let Some((ub, name)) = replacement {
        decls.push(int_decl(&name, ub, stmt.span));
        if let StmtKind::For { cond: Some(c), .. } = &mut stmt.kind {
            if let ExprKind::Binary(_, _, rhs) = &mut c.kind {
                **rhs = Expr::new(ExprKind::Ident(name), rhs.span);
            }
        }
    }
    if let StmtKind::For { body, .. } = &mut stmt.kind {
        let span = body.span;
        hoist_in_body(body, span, report);
    }
}

/// Recurse into a loop body of a transformed nest, where every loop is
/// `affine`: a nested For in a block gets its hoisted decls inserted in
/// that block, just before it; a bare one becomes a block of its decls
/// and itself.
fn hoist_in_body(body: &mut Stmt, span: cfront::span::Span, report: &mut PolyccReport) {
    match &mut body.kind {
        StmtKind::Block(b) => hoist_bounds(&mut b.stmts, report),
        StmtKind::For { .. } => {
            let mut decls = Vec::new();
            hoist_for(body, &mut decls, report);
            if !decls.is_empty() {
                let inner = std::mem::replace(body, Stmt::new(StmtKind::Expr(None), span));
                let mut stmts = decls;
                stmts.push(inner);
                *body = Stmt::new(StmtKind::Block(Block { stmts, span }), span);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Row-pointer strength reduction: hoist invariant row loads out of inner loops
// ---------------------------------------------------------------------------

/// Global `T**` declarations eligible for row-pointer hoisting, mapped to
/// their row type (`T*`). Only plain pointer-to-pointer globals qualify:
/// their row table can change only through a direct one-level store
/// (`X[e] = …`) or a store to `X` itself, both of which
/// [`row_unsafe_bases`] detects — element stores through `X[a][b]` cannot
/// move a row.
fn row_pointer_globals(unit: &TranslationUnit) -> HashMap<String, Type> {
    let mut rows = HashMap::new();
    for item in &unit.items {
        let Item::Decl(d) = item else { continue };
        for decl in &d.declarators {
            if decl.ty.ptr.len() >= 2 && decl.array_dims.is_empty() {
                let mut row = decl.ty.clone();
                row.ptr.pop();
                rows.insert(decl.name.clone(), row);
            }
        }
    }
    rows
}

/// Descend below `e` unless it is a call: the row hoist leaves call
/// arguments alone (see [`hoist_row_pointers`]).
fn outside_calls(e: &Expr) -> bool {
    !matches!(e.kind, ExprKind::Call { .. })
}

/// Bases whose rows may move inside this nest: assigned directly, written
/// through a one-level subscript, inc/decremented, or address-taken.
fn row_unsafe_bases(nest: &Stmt) -> HashSet<String> {
    let mut bad = HashSet::new();
    nest.walk_exprs_pruned(&mut |e| {
        let target = match &e.kind {
            ExprKind::Assign(_, lhs, _) => match &lhs.kind {
                ExprKind::Ident(n) => Some(n.as_str()),
                ExprKind::Index(b, _) => match &b.kind {
                    ExprKind::Ident(n) => Some(n.as_str()),
                    _ => None,
                },
                _ => None,
            },
            ExprKind::Unary(
                UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec | UnOp::AddrOf,
                t,
            ) => written_base(t),
            _ => None,
        };
        if let Some(n) = target {
            bad.insert(n.to_string());
        }
        outside_calls(e)
    });
    bad
}

/// Two-level references `X[sub][…]` appearing anywhere under `stmt` whose
/// base qualifies for hoisting, keyed by the printed form of `X[sub]`.
fn collect_row_refs(
    stmt: &Stmt,
    rows: &HashMap<String, Type>,
    bad: &HashSet<String>,
    out: &mut Vec<(String, Expr)>,
) {
    stmt.walk_exprs_pruned(&mut |e| {
        if let ExprKind::Index(row_ref, _) = &e.kind {
            if let ExprKind::Index(xb, sub) = &row_ref.kind {
                if let ExprKind::Ident(x) = &xb.kind {
                    if rows.contains_key(x) && !bad.contains(x) && hoistable_expr(sub) {
                        let key = print_expr(row_ref);
                        if !out.iter().any(|(k, _)| k == &key) {
                            out.push((key, (**row_ref).clone()));
                        }
                    }
                }
            }
        }
        outside_calls(e)
    });
}

/// Collect row references only from loops *nested below* this body — a
/// reference in the body's own statements iterates with the current level
/// and gains nothing from a hoist here.
fn collect_nested_row_refs(
    body: &Stmt,
    rows: &HashMap<String, Type>,
    bad: &HashSet<String>,
    out: &mut Vec<(String, Expr)>,
) {
    match &body.kind {
        StmtKind::Block(b) => {
            for s in &b.stmts {
                collect_nested_row_refs(s, rows, bad, out);
            }
        }
        StmtKind::For { .. } => collect_row_refs(body, rows, bad, out),
        _ => {}
    }
}

fn for_iter_names(stmt: &Stmt, out: &mut HashSet<String>) {
    if let StmtKind::For { init, .. } = &stmt.kind {
        out.extend(init.bound_names().map(String::from));
    }
}

/// Hoist every row reference whose subscript is fully available at this
/// loop level into a `T* __pc_rowK = X[sub];` declaration at the top of
/// the body, rewrite the uses, then recurse into the nested loops.
fn hoist_rows_for(
    stmt: &mut Stmt,
    scope: &HashSet<String>,
    all_iters: &HashSet<String>,
    rows: &HashMap<String, Type>,
    bad: &HashSet<String>,
    report: &mut PolyccReport,
) {
    let mut scope = scope.clone();
    for_iter_names(stmt, &mut scope);
    let StmtKind::For { body, .. } = &mut stmt.kind else {
        return;
    };
    let mut cands = Vec::new();
    collect_nested_row_refs(body, rows, bad, &mut cands);
    let mut decls: Vec<Stmt> = Vec::new();
    for (key, row_ref) in cands {
        let ExprKind::Index(xb, sub) = &row_ref.kind else {
            continue;
        };
        let ExprKind::Ident(x) = &xb.kind else {
            continue;
        };
        let mut ids = HashSet::new();
        expr_idents(sub, &mut ids);
        // Every nest iterator the subscript mentions must already be in
        // scope here; deeper candidates hoist at their own level.
        if !ids
            .iter()
            .all(|n| !all_iters.contains(n) || scope.contains(n))
        {
            continue;
        }
        let row_ty = rows[x].clone();
        report.rows_hoisted += 1;
        let name = format!("__pc_row{}", report.rows_hoisted);
        visit_exprs_mut_pruned(body, &mut |e| {
            if print_expr(e) == key {
                *e = Expr::new(ExprKind::Ident(name.clone()), e.span);
            }
            outside_calls(e)
        });
        let span = row_ref.span;
        decls.push(Stmt::new(
            StmtKind::Decl(Declaration {
                storage: vec![],
                declarators: vec![Declarator {
                    name,
                    ty: row_ty,
                    array_dims: vec![],
                    init: Some(row_ref),
                    span,
                }],
                span,
            }),
            span,
        ));
    }
    if !decls.is_empty() {
        let span = body.span;
        match &mut body.kind {
            StmtKind::Block(b) => {
                for (off, d) in decls.into_iter().enumerate() {
                    b.stmts.insert(off, d);
                }
            }
            _ => {
                let inner = std::mem::replace(body.as_mut(), Stmt::new(StmtKind::Expr(None), span));
                let mut stmts = decls;
                stmts.push(inner);
                **body = Stmt::new(StmtKind::Block(Block { stmts, span }), span);
            }
        }
    }
    hoist_rows_in_body(body, &scope, all_iters, rows, bad, report);
}

fn hoist_rows_in_body(
    body: &mut Stmt,
    scope: &HashSet<String>,
    all_iters: &HashSet<String>,
    rows: &HashMap<String, Type>,
    bad: &HashSet<String>,
    report: &mut PolyccReport,
) {
    match &mut body.kind {
        StmtKind::Block(b) => {
            for s in &mut b.stmts {
                hoist_rows_in_body(s, scope, all_iters, rows, bad, report);
            }
        }
        StmtKind::For { .. } => hoist_rows_for(body, scope, all_iters, rows, bad, report),
        _ => {}
    }
}

/// Strength-reduce every transformed (`affine`) nest in this list:
/// invariant row pointers load once at the level where their subscript
/// settles instead of once per inner iteration.
fn hoist_rows(stmts: &mut [Stmt], rows: &HashMap<String, Type>, report: &mut PolyccReport) {
    for nest in stmts {
        if !matches!(nest.kind, StmtKind::For { affine: true, .. }) {
            continue;
        }
        let bad = row_unsafe_bases(nest);
        let mut all_iters = HashSet::new();
        nest.walk(&mut |s| for_iter_names(s, &mut all_iters));
        hoist_rows_for(nest, &HashSet::new(), &all_iters, rows, &bad, report);
    }
}

/// All `tmpConst_*` identifiers appearing in a statement list.
fn collect_placeholders(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    for s in stmts {
        s.walk_exprs(&mut |e| {
            if let ExprKind::Ident(name) = &e.kind {
                if name.starts_with("tmpConst_") && !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::parser::parse;
    use cfront::printer::print_unit;
    use cfront::visit::visit_stmts_mut;

    /// polycc on `src` as PC-CC marked it.
    fn run(src: &str, opts: PolyccOptions) -> (TranslationUnit, PolyccReport) {
        let mut unit = purec_core::run_pc_cc(src, Default::default())
            .expect("PC-CC accepts the source")
            .unit;
        let report = run_polycc(&mut unit, opts);
        (unit, report)
    }

    /// polycc on `src` as parsed, with no loop marked.
    fn run_unmarked(src: &str) -> (TranslationUnit, PolyccReport) {
        let mut unit = parse(src).unit;
        let report = run_polycc(&mut unit, PolyccOptions::default());
        (unit, report)
    }

    const MARKED_MATMUL: &str = "\
float **A, **Bt, **C;
int main() {
    for (int i = 0; i < 4096; i++)
        for (int j = 0; j < 4096; j++)
            C[i][j] = tmpConst_dot_0;
    return 0;
}
";

    #[test]
    fn transforms_marked_matmul() {
        let (unit, report) = run(MARKED_MATMUL, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        assert_eq!(report.parallelized_count(), 1);
        let out = print_unit(&unit);
        assert!(!out.contains("scop"), "{out}");
        assert!(
            out.contains("#pragma omp parallel for\n    for (int t1 = 0; t1 <= 4095; t1++)"),
            "{out}"
        );
        assert!(!out.contains("private("), "{out}");
        // The invariant row `C[t1]` is strength-reduced out of the inner
        // loop; the store goes through the hoisted pointer.
        assert!(out.contains("float* __pc_row1 = C[t1];"), "{out}");
        assert!(out.contains("__pc_row1[t2]"), "{out}");
        assert_eq!(report.rows_hoisted, 1);
        // Placeholder recorded with its iterator map.
        let maps = report.placeholder_iter_maps();
        let m = &maps["tmpConst_dot_0"];
        assert_eq!(cfront::printer::print_expr(&m["i"]), "t1");
    }

    /// A loop hint heads its `for` as GCC reads it: a nest under one is
    /// kept as written, and `--dump-schedule` says why.
    #[test]
    fn a_nest_under_a_loop_hint_is_kept_as_written() {
        for hint in ["GCC ivdep", "GCC unroll 4", "omp simd"] {
            let src = format!(
                "int a[64];\nint main() {{\n    int n = 64;\n#pragma {hint}\n\
                 \x20   for (int i = 0; i < n; i++) a[i] = 2 * i;\n    return a[7];\n}}\n"
            );
            let (unit, report) = run(&src, PolyccOptions::default());
            assert_eq!(report.transformed_count(), 0, "{hint}");
            let reason = format!("under `#pragma {hint}`, kept as written");
            assert!(
                matches!(&report.regions[..], [RegionOutcome::Skipped { reason: r }] if *r == reason),
                "{hint}: {:?}",
                report.regions
            );
            let out = print_unit(&unit);
            let written = format!("#pragma {hint}\n    for (int i = 0; i < n; i++)");
            assert!(
                out.contains(&written) && !out.contains("omp parallel"),
                "{out}"
            );
        }
    }

    #[test]
    fn unmarked_loops_are_untouched() {
        let src = "int main() { float a[8]; for (int i = 0; i < 8; i++) a[i] = i; return 0; }";
        let (unit, report) = run_unmarked(src);
        assert_eq!(report.transformed_count(), 0);
        let out = print_unit(&unit);
        assert!(out.contains("for (int i = 0; i < 8; i++)"), "{out}");
    }

    #[test]
    fn imperfect_time_loop_transforms_children() {
        // A time loop over two sweeps whose call reads nothing the nest
        // writes (with one that did, PC-CC would not flag the time loop).
        let src = "\
int main() {
    float a[64][64], b[64][64];
    for (int t = 0; t < 200; t++) {
        for (int i = 1; i < 63; i++)
            for (int j = 1; j < 63; j++)
                b[i][j] = tmpConst_stencil_0;
        for (int i2 = 1; i2 < 63; i2++)
            for (int j2 = 1; j2 < 63; j2++)
                a[i2][j2] = b[i2][j2];
    }
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        // The time loop is skipped, both children transformed.
        assert_eq!(report.transformed_count(), 2);
        assert!(matches!(report.regions[0], RegionOutcome::Skipped { .. }));
        let out = print_unit(&unit);
        assert!(out.contains("for (int t = 0; t < 200; t++)"), "{out}");
        assert_eq!(out.matches("#pragma omp parallel for").count(), 2, "{out}");
    }

    #[test]
    fn sequential_nest_stays_sequential_but_transformed() {
        let src = "\
void f(float* a) {
    float res;
    for (int i = 0; i < 64; i++)
        res = res + a[i];
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        assert_eq!(report.parallelized_count(), 0);
        let out = print_unit(&unit);
        assert!(!out.contains("omp parallel"), "{out}");
    }

    #[test]
    fn fig2_region_is_skewed() {
        let src = "\
void f(float** a) {
    for (int i = 1; i < 64; i++)
        for (int j = 1; j < 63; j++)
            a[i][j] = a[i - 1][j] + a[i - 1][j + 1];
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        let skewed = report
            .regions
            .iter()
            .any(|r| matches!(r, RegionOutcome::Transformed { skewed: true, .. }));
        assert!(skewed);
        let out = print_unit(&unit);
        assert!(out.contains("t2 - t1") || out.contains("-t1 + t2"), "{out}");
    }

    #[test]
    fn multiple_regions_in_one_function() {
        let src = "\
int main() {
    float a[32], b[32];
    for (int i = 0; i < 32; i++) a[i] = tmpConst_f_0;
    b[0] = a[0];
    for (int j = 0; j < 32; j++) b[j] = tmpConst_g_1;
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 2);
        let maps = report.placeholder_iter_maps();
        assert!(maps.contains_key("tmpConst_f_0"));
        assert!(maps.contains_key("tmpConst_g_1"));
        let out = print_unit(&unit);
        assert!(out.contains("b[0] = a[0];"), "{out}");
    }

    /// `affine` flags of every `for` in the unit, outside-in.
    fn affine_flags(unit: &TranslationUnit) -> Vec<bool> {
        let mut flags = Vec::new();
        for f in unit.functions() {
            for s in f.body.iter().flat_map(|b| &b.stmts) {
                s.walk(&mut |s| {
                    if let StmtKind::For { affine, .. } = s.kind {
                        flags.push(affine);
                    }
                });
            }
        }
        flags
    }

    #[test]
    fn every_generated_loop_is_affine() {
        let (unit, report) = run(MARKED_MATMUL, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        assert_eq!(affine_flags(&unit), [true, true]);
        // The flag is not text: the printed nest reparses as plain loops.
        let out = print_unit(&unit);
        assert!(!out.contains("affine"), "{out}");
        assert_eq!(affine_flags(&parse(&out).unit), [false, false]);
        // A loop polycc leaves alone stays plain.
        let src = "int main() { float a[8]; for (int i = 0; i < 8; i++) a[i] = i; return 0; }";
        assert_eq!(affine_flags(&run_unmarked(src).0), [false]);
    }

    #[test]
    fn adjacent_nests_are_transformed_apart() {
        // A producer and its consumer stay two nests, two regions: no pass
        // moves one nest across another.
        let src = "\
int main() {
    float a[32], b[32];
    for (int i = 0; i < 32; i++) a[i] = i;
    for (int j = 0; j < 32; j++) b[j] = a[j];
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!((report.parallelized_count(), report.fused), (2, 0));
        let out = print_unit(&unit);
        assert_eq!(out.matches("#pragma omp parallel for").count(), 2, "{out}");
    }

    #[test]
    fn user_omp_pragma_is_consumed_and_schedule_carried() {
        // A user `omp parallel for` header on a flagged nest moves to the
        // replacement: it must not stay as a duplicate, and its schedule
        // goes with it, as a value the printer spells `kind,chunk`.
        let src = "\
int main() {
    float a[64];
#pragma omp parallel for schedule(dynamic, 4)
    for (int i = 0; i < 64; i++) a[i] = i;
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        assert_eq!(report.parallelized_count(), 1);
        let out = print_unit(&unit);
        assert_eq!(
            out.matches("#pragma omp parallel for").count(),
            1,
            "user pragma must be consumed, not duplicated: {out}"
        );
        assert!(out.contains("schedule(dynamic,4)"), "{out}");
    }

    #[test]
    fn a_user_header_polycc_cannot_honour_keeps_its_literal_loop() {
        // The nest carries a dependence (and under `omp: false` polycc
        // emits no header at all), so the replacement would run
        // sequentially: the user's loop and header stay as written and the
        // region is reported skipped, so no parallelism is lost silently.
        let src = "\
int main() {
    float a[64];
#pragma omp parallel for schedule(dynamic,2)
    for (int i = 1; i < 64; i++) a[i] = a[i - 1] + 1.0;
    return 0;
}
";
        for omp in [true, false] {
            let (unit, report) = run(src, PolyccOptions { tile: None, omp });
            assert!(
                matches!(report.regions[..], [RegionOutcome::Skipped { .. }]),
                "{:?}",
                report.regions
            );
            let out = print_unit(&unit);
            assert!(
                out.contains(
                    "#pragma omp parallel for schedule(dynamic,2)\n    for (int i = 1; i < 64; i++)"
                ),
                "{out}"
            );
        }
    }

    #[test]
    fn user_omp_pragma_inside_a_sequential_loop_is_consumed_too() {
        // The outer `r` loop cannot be modelled (its body is a loop with a
        // header of its own), so the inner nest is transformed as a child:
        // its user header goes the same way as one on a top-level nest.
        // Two pragmas in front of one `for` is text GCC rejects.
        let src = "\
int main() {
    float a[64];
    for (int r = 0; r < 10; r++) {
#pragma omp parallel for schedule(dynamic,4)
        for (int i = 0; i < 64; i++) a[i] = a[i] + 1.0;
    }
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.parallelized_count(), 1);
        let out = print_unit(&unit);
        assert_eq!(out.matches("omp parallel for").count(), 1, "{out}");
        assert!(
            out.contains("#pragma omp parallel for schedule(dynamic,4)\n"),
            "{out}"
        );
    }

    #[test]
    fn user_omp_pair_is_transformed_once_marked() {
        // The paper's input form — `omp parallel for` with no scop markers —
        // is transformed once PC-CC has flagged the nest, and only then.
        let src = "\
int main() {
    float a[128];
#pragma omp parallel for
    for (int i = 0; i < 128; i++) a[i] = i;
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        assert_eq!(report.parallelized_count(), 1);
        assert_eq!(affine_flags(&unit), [true]);
        let out = print_unit(&unit);
        assert!(out.contains("t1"), "nest must be rewritten: {out}");
        assert_eq!(out.matches("omp parallel for").count(), 1, "{out}");
        let (_, unmarked) = run_unmarked(src);
        assert_eq!(unmarked.transformed_count(), 0);
    }

    #[test]
    fn bare_body_nest_is_transformed_into_a_block() {
        // A loop hanging directly off an `if` is flagged like any other
        // nest, and its replacement becomes the branch's block.
        let src = "\
int main(int argc) {
    float a[64];
    if (argc > 1)
        for (int i = 0; i < 64; i++)
            a[i] = i;
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        assert_eq!(affine_flags(&unit), [true]);
        let out = print_unit(&unit);
        assert!(
            out.contains("if (argc > 1)\n    {\n#pragma omp parallel for"),
            "{out}"
        );
        assert!(!out.contains("scop"), "{out}");
    }

    #[test]
    fn bare_body_nest_with_an_unverified_call_is_left_alone() {
        let src = "\
float mystery(int i);
int main(int argc) {
    float a[64];
    if (argc > 1)
        for (int i = 0; i < 64; i++)
            a[i] = mystery(i);
    return 0;
}
";
        let (_, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 0);
    }

    #[test]
    fn non_trivial_bounds_are_hoisted() {
        // Tiled codegen produces `__pc_min(...)` upper bounds; the hoist
        // pass must evaluate them once ahead of the nest, leaving the
        // `iter <= local` shape the VM's affine fast path requires.
        let src = "\
float **A, **Bt, **C;
int main() {
    for (int i = 0; i < 4096; i++)
        for (int j = 0; j < 4096; j++)
            C[i][j] = tmpConst_dot_0;
    return 0;
}
";
        let opts = PolyccOptions {
            tile: Some(32),
            ..Default::default()
        };
        let (unit, report) = run(src, opts);
        assert_eq!(report.transformed_count(), 1);
        assert!(report.hoisted > 0, "tiled bounds must hoist");
        let out = print_unit(&unit);
        assert!(out.contains("int __pc_ub"), "{out}");
        assert!(
            !out.contains("<= __pc_min") || out.contains("__pc_ub"),
            "point-loop bounds must read the hoisted temporary: {out}"
        );
    }

    #[test]
    fn invariant_rows_are_hoisted_per_level() {
        // Both `B[i]` and `A[i]` settle at the outer level; each becomes
        // one `__pc_row` pointer loaded once per outer iteration, and no
        // two-level subscript survives in the inner body.
        let src = "\
float **A, **B;
int main() {
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
            B[i][j] = A[i][j] + 1.0f;
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        assert_eq!(report.rows_hoisted, 2);
        let out = print_unit(&unit);
        assert!(out.contains("float* __pc_row1 = B[t1];"), "{out}");
        assert!(out.contains("float* __pc_row2 = A[t1];"), "{out}");
        assert!(
            out.contains("__pc_row1[t2] = __pc_row2[t2] + 1.0f;"),
            "{out}"
        );
    }

    #[test]
    fn row_hoist_leaves_call_arguments_alone() {
        // The chain hoists after the pure calls are back: `X[i][j]` is
        // the call's business, exactly as when the call was a
        // placeholder, while the store's row `Y[i]` still settles at the
        // outer level.
        let src = "\
float **X, **Y;
float f(float x);
int main() {
    for (int i = 0; i < 8; i++)
        for (int j = 0; j < 8; j++)
            Y[i][j] = f(X[i][j]);
    return 0;
}
";
        let mut unit = parse(src).unit;
        // Hand the nest to the hoist as if polycc had built it.
        let Some(Item::Function(main)) = unit.items.last_mut() else {
            panic!("main is the last item");
        };
        visit_stmts_mut(&mut main.body.as_mut().unwrap().stmts[0], &mut |s| {
            if let StmtKind::For { affine, .. } = &mut s.kind {
                *affine = true;
            }
        });
        let mut report = PolyccReport::default();
        hoist_row_pointers(&mut unit, &mut report);
        assert_eq!(report.rows_hoisted, 1);
        let out = print_unit(&unit);
        assert!(out.contains("float* __pc_row1 = Y[i];"), "{out}");
        assert!(out.contains("__pc_row1[j] = f(X[i][j]);"), "{out}");
    }

    #[test]
    fn row_store_blocks_row_hoisting() {
        // `A[j] = spare` can retarget any row of `A` mid-nest, so the
        // two-level stream `A[i][j]` must keep reloading its row — the
        // base is disqualified for the whole nest even though the nest
        // still transforms (sequentially).
        let src = "\
float **A;
float *spare;
int main() {
    for (int i = 0; i < 64; i++)
        for (int j = 0; j < 64; j++)
        {
            A[i][j] = 1.0f;
            A[j] = spare;
        }
    return 0;
}
";
        let (unit, report) = run(src, PolyccOptions::default());
        assert_eq!(report.transformed_count(), 1);
        assert_eq!(report.rows_hoisted, 0);
        let out = print_unit(&unit);
        assert!(!out.contains("__pc_row"), "{out}");
        assert!(out.contains("A[t1][t2]"), "{out}");
    }
}
