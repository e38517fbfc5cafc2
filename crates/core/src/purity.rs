//! The purity verifier — the additional compiler pass of the paper
//! (Sect. 3.2), which *proves* that functions marked `pure` have no
//! side-effects, unlike GCC's advisory `__attribute__((pure))`.
//!
//! Enforced rules (with the listing that motivates each):
//!
//! * a pure function may only call functions in the pure registry,
//!   including itself (Listing 2, line 14 rejects `func1()`);
//! * writes must stay inside the function's scope: assignments whose target
//!   roots at a global or at pointer parameters are side-effects
//!   (Listing 2 / Listing 4);
//! * external pointer data may be *read* after being cast to a `pure`
//!   pointer and bound to a `pure`-declared local (Listing 3); binding an
//!   external pointer to a plain local pointer is rejected (Listing 2,
//!   line 11; Listing 4, line 4);
//! * `pure` pointers are assign-once and their pointees are immutable;
//! * `free` may only release memory `malloc`ed in the same function;
//! * `malloc`/`free`/math builtins are allowed per the seeded registry;
//! * a name means what C says it means: bindings live on a scope stack
//!   pushed at every block and `for`, so a block-scoped `int g` stops
//!   shadowing the global `g` where its block ends;
//! * a `static` local is not local: it is state that outlives the call,
//!   shared by every caller (`PureStaticLocal`);
//! * what a pure function *reads* through a global is part of its
//!   interface: `FnChecker` — the one walker that sees every read,
//!   write and call of a function together with what each name is bound
//!   to — exports it as [`GlobalReads`], and the caller-side hazard walk
//!   ([`crate::scop::nest_hazards`], which SCoP marking and
//!   `analysis::race` share) treats those globals like pointer arguments
//!   ([`crate::scop::pure_call_read_bases`]).

use crate::stdfns::PureSet;
use cfront::ast::*;
use cfront::diag::{Code, Diagnostic, Diagnostics};
use cfront::span::Span;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Per verified function, the globals it may read — directly or through
/// the verified functions it calls.
pub type GlobalReads = HashMap<String, BTreeSet<String>>;

/// Result of verifying a translation unit.
#[derive(Debug)]
pub struct PurityReport {
    /// Final registry: builtins + every *verified* pure function.
    pub pure_set: PureSet,
    pub diags: Diagnostics,
    /// Functions declared pure, in source order (verified or not).
    pub declared_pure: Vec<String>,
    /// What each pure definition may read through a global.
    pub global_reads: GlobalReads,
}

impl PurityReport {
    pub fn ok(&self) -> bool {
        !self.diags.has_errors()
    }
}

/// Verify all `pure`-declared functions in `unit` against the given seeded
/// registry (normally [`PureSet::seeded`]).
pub fn verify_unit(unit: &TranslationUnit, seed: PureSet) -> PurityReport {
    let mut pure_set = seed;
    let mut declared_pure = Vec::new();

    // Phase 1 — registration. Every function *declared* pure enters the
    // hashset first, so pure functions may call each other and themselves
    // regardless of source order.
    for f in unit.functions() {
        if f.is_pure {
            if !pure_set.contains(&f.name) {
                declared_pure.push(f.name.clone());
            }
            pure_set.insert(f.name.clone());
        }
    }

    // Phase 2 — verification of each pure definition.
    let (diags, global_reads) = check_definitions(unit, &pure_set, |f| f.is_pure);

    PurityReport {
        pure_set,
        diags,
        declared_pure,
        global_reads,
    }
}

/// [`PurityReport::global_reads`] for a unit whose pure functions are
/// known only by name — the lowered text, where the `pure` keyword is
/// gone: every definition `pure` names is walked for what it reads.
pub fn global_reads(unit: &TranslationUnit, pure: &PureSet) -> GlobalReads {
    check_definitions(unit, pure, |f| pure.contains(&f.name)).1
}

fn global_names(unit: &TranslationUnit) -> HashSet<String> {
    let names = unit.global_variables().into_iter();
    names.map(str::to_string).collect()
}

/// Run the checker over every definition `select` picks: the
/// diagnostics, and what each checked function may read through a global
/// — directly or through a checked function it calls (a least fixpoint;
/// a unit's pure functions are few).
fn check_definitions(
    unit: &TranslationUnit,
    pure_set: &PureSet,
    select: impl Fn(&Function) -> bool,
) -> (Diagnostics, GlobalReads) {
    let globals = global_names(unit);
    let mut diags = Diagnostics::new();
    let mut reads = GlobalReads::new();
    let mut calls = Vec::new();
    for f in unit.functions().filter(|f| f.is_definition() && select(f)) {
        let mut checker = FnChecker::new(f, pure_set, &globals);
        checker.check();
        diags.extend(checker.diags);
        reads
            .entry(f.name.clone())
            .or_default()
            .extend(checker.reads);
        calls.push((&f.name, checker.calls));
    }
    loop {
        let mut grew = false;
        for (name, callees) in &calls {
            let inherited: Vec<String> = callees
                .iter()
                .filter_map(|c| reads.get(c))
                .flatten()
                .filter(|g| !reads[*name].contains(*g))
                .cloned()
                .collect();
            grew |= !inherited.is_empty();
            reads.get_mut(*name).expect("checked").extend(inherited);
        }
        if !grew {
            return (diags, reads);
        }
    }
}

/// Result of speculative purity inference ([`infer_pure`]).
#[derive(Debug, Default)]
pub struct InferenceReport {
    /// Unannotated function definitions that pass the PC-CC rules as
    /// written (in source order) — each "could be declared `pure`".
    pub inferred: Vec<String>,
    /// Candidates that failed, with the first blocking diagnostic
    /// (the reason the function cannot be declared pure today).
    pub blocked: Vec<(String, Diagnostic)>,
}

/// Run the PC-CC rules *speculatively* over every unannotated function
/// definition in `unit` (`main` excluded): which of them could be
/// declared `pure` as written? `base` is the registry the declared
/// functions already verified against (builtins + verified user
/// functions).
///
/// Inference computes the greatest fixpoint: all candidates enter the
/// trial registry optimistically (so mutually recursive pairs can admit
/// each other, mirroring the two-phase registration of [`verify_unit`]),
/// then failing candidates are evicted and the survivors re-checked
/// until the set is stable. The checker only *consults* the registry for
/// calls, so eviction can never turn a failing body into a passing one —
/// the loop terminates and the survivors are sound.
pub fn infer_pure(unit: &TranslationUnit, base: &PureSet) -> InferenceReport {
    let globals = global_names(unit);
    let candidates: Vec<&Function> = unit
        .functions()
        .filter(|f| f.is_definition() && !f.is_pure && f.name != "main" && !base.contains(&f.name))
        .collect();

    let mut trial = base.clone();
    for f in &candidates {
        trial.insert(f.name.clone());
    }

    let mut alive: HashSet<String> = candidates.iter().map(|f| f.name.clone()).collect();
    let mut blocked: HashMap<String, Diagnostic> = HashMap::new();
    loop {
        let mut evicted = false;
        for f in &candidates {
            if !alive.contains(&f.name) {
                continue;
            }
            let failed = {
                let mut checker = FnChecker::new(f, &trial, &globals);
                checker.check();
                if checker.diags.has_errors() {
                    Some(checker.diags.items().first().cloned())
                } else {
                    None
                }
            };
            if let Some(first) = failed {
                alive.remove(&f.name);
                trial.remove(&f.name);
                if let Some(first) = first {
                    blocked.insert(f.name.clone(), first);
                }
                evicted = true;
            }
        }
        if !evicted {
            break;
        }
    }

    InferenceReport {
        inferred: candidates
            .iter()
            .filter(|f| alive.contains(&f.name))
            .map(|f| f.name.clone())
            .collect(),
        blocked: candidates
            .iter()
            .filter_map(|f| blocked.remove(&f.name).map(|d| (f.name.clone(), d)))
            .collect(),
    }
}

/// What a name refers to inside the function being checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding {
    /// By-value scalar parameter (writes are local copies — harmless).
    ScalarParam,
    /// Pointer parameter without `pure` (reads ok, any write rejected).
    PtrParam,
    /// Pointer parameter with `pure` (assign-once, pointee immutable).
    PurePtrParam,
    /// Local non-pointer variable.
    LocalScalar,
    /// Local pointer (may hold locally allocated memory).
    LocalPtr,
    /// Local pointer declared `pure` (assign-once, pointee immutable).
    PureLocalPtr,
    /// Local aggregate (struct value or fixed array) — fully local storage.
    LocalAggregate,
    Global,
}

/// A name bound inside the function being checked.
#[derive(Debug, Clone, Copy)]
struct Var {
    binding: Binding,
    /// Pure pointer that has received its single assignment.
    assigned: bool,
    /// Pointer whose value came from `malloc` in this function.
    malloced: bool,
}

impl From<Binding> for Var {
    fn from(binding: Binding) -> Self {
        Var {
            binding,
            assigned: false,
            malloced: false,
        }
    }
}

struct FnChecker<'a> {
    func: &'a Function,
    pure_set: &'a PureSet,
    globals: &'a HashSet<String>,
    /// Innermost scope last: parameters, then one map per open block or
    /// `for` header.
    scopes: Vec<HashMap<String, Var>>,
    /// Globals mentioned anywhere but as the callee of a call.
    reads: BTreeSet<String>,
    /// Direct callees.
    calls: BTreeSet<String>,
    diags: Diagnostics,
}

impl<'a> FnChecker<'a> {
    fn new(func: &'a Function, pure_set: &'a PureSet, globals: &'a HashSet<String>) -> Self {
        let mut params = HashMap::new();
        for p in &func.params {
            let Some(name) = &p.name else { continue };
            let var = if !p.ty.is_pointer() {
                Var::from(Binding::ScalarParam)
            } else if p.ty.pure_qual {
                // A pure pointer param arrives already bound.
                Var {
                    assigned: true,
                    ..Var::from(Binding::PurePtrParam)
                }
            } else {
                Var::from(Binding::PtrParam)
            };
            params.insert(name.clone(), var);
        }
        FnChecker {
            func,
            pure_set,
            globals,
            scopes: vec![params],
            reads: BTreeSet::new(),
            calls: BTreeSet::new(),
            diags: Diagnostics::new(),
        }
    }

    fn check(&mut self) {
        let body = self.func.body.as_ref().expect("definition has body");
        for stmt in &body.stmts {
            self.check_stmt(stmt);
        }
    }

    /// The innermost declaration of `name`, if the function has one.
    fn var(&self, name: &str) -> Option<&Var> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn var_mut(&mut self, name: &str) -> Option<&mut Var> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }

    /// Anything the function did not declare — a global or an unknown
    /// identifier — is external.
    fn binding_of(&self, name: &str) -> Binding {
        self.var(name).map_or(Binding::Global, |v| v.binding)
    }

    fn is_malloced(&self, name: &str) -> bool {
        self.var(name).is_some_and(|v| v.malloced)
    }

    fn set_malloced(&mut self, name: &str) {
        if let Some(v) = self.var_mut(name) {
            v.malloced = true;
        }
    }

    /// Check `body` inside a scope of its own.
    fn scoped(&mut self, body: impl FnOnce(&mut Self)) {
        self.scopes.push(HashMap::new());
        body(self);
        self.scopes.pop();
    }

    // -- statements ---------------------------------------------------------

    fn check_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Decl(d) => self.check_declaration(d),
            StmtKind::Expr(Some(e)) => self.check_expr(e),
            StmtKind::Expr(None) => {}
            StmtKind::Block(b) => self.scoped(|c| {
                for s in &b.stmts {
                    c.check_stmt(s);
                }
            }),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_expr(cond);
                self.check_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.check_stmt(e);
                }
            }
            StmtKind::While { cond, body } => {
                self.check_expr(cond);
                self.check_stmt(body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.check_stmt(body);
                self.check_expr(cond);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => self.scoped(|c| {
                match init.as_ref() {
                    ForInit::Decl(d) => c.check_declaration(d),
                    ForInit::Expr(Some(e)) => c.check_expr(e),
                    ForInit::Expr(None) => {}
                }
                if let Some(cond) = cond {
                    c.check_expr(cond);
                }
                if let Some(s) = step {
                    c.check_expr(s);
                }
                c.check_stmt(body);
            }),
            StmtKind::Return(Some(e)) => self.check_expr(e),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Pragma(_) => {}
        }
    }

    fn check_declaration(&mut self, d: &Declaration) {
        for dec in &d.declarators {
            if d.storage.iter().any(|k| k == "static") {
                self.diags.error(
                    Code::PureStaticLocal,
                    dec.span,
                    format!(
                        "pure function '{}' declares static local '{}' — state that \
                         outlives the call, shared by every caller",
                        self.func.name, dec.name
                    ),
                );
            }
            let binding = if dec.is_array() {
                Binding::LocalAggregate
            } else if dec.ty.is_pointer() {
                if dec.ty.pure_qual {
                    Binding::PureLocalPtr
                } else {
                    Binding::LocalPtr
                }
            } else if matches!(dec.ty.base, BaseType::Struct(_)) {
                Binding::LocalAggregate
            } else {
                Binding::LocalScalar
            };
            let declared = Var {
                assigned: dec.ty.pure_qual && dec.init.is_some(),
                ..Var::from(binding)
            };
            self.scopes
                .last_mut()
                .expect("parameter scope")
                .insert(dec.name.clone(), declared);

            if let Some(init) = &dec.init {
                self.check_expr(init);
                if dec.ty.is_pointer() && !dec.is_array() {
                    self.check_pointer_binding(
                        &dec.name,
                        binding,
                        init,
                        dec.span,
                        dec.ty.pure_qual,
                    );
                }
            }
        }
    }

    // -- expressions ---------------------------------------------------------

    /// Vet every call, assignment and increment in `e`, and record the
    /// globals it mentions.
    fn check_expr(&mut self, e: &Expr) {
        match &e.kind {
            // A target is walked like any other expression first: its
            // subscripts are reads (and may hide calls or writes).
            ExprKind::Assign(_, lhs, rhs) => {
                self.check_expr(rhs);
                self.check_expr(lhs);
                self.check_write(lhs, rhs, e.span);
            }
            ExprKind::Unary(op, inner) if op.writes_operand() => {
                self.check_expr(inner);
                self.check_write(inner, &Expr::int(1), e.span);
            }
            ExprKind::Ident(name) if self.var(name).is_none() && self.globals.contains(name) => {
                self.reads.insert(name.clone());
            }
            ExprKind::Call { callee, args } => {
                self.check_call(callee, args, e.span);
                for a in args {
                    self.check_expr(a);
                }
            }
            ExprKind::Unary(_, inner) | ExprKind::Cast(_, inner) | ExprKind::SizeofExpr(inner) => {
                self.check_expr(inner)
            }
            ExprKind::Binary(_, l, r) | ExprKind::Comma(l, r) => {
                self.check_expr(l);
                self.check_expr(r);
            }
            ExprKind::Ternary(c, t, f) => {
                self.check_expr(c);
                self.check_expr(t);
                self.check_expr(f);
            }
            ExprKind::Index(b, i) => {
                self.check_expr(b);
                self.check_expr(i);
            }
            ExprKind::Member { base, .. } => self.check_expr(base),
            _ => {}
        }
    }

    fn check_call(&mut self, callee: &Expr, args: &[Expr], span: Span) {
        let Some(name) = callee.as_ident() else {
            self.diags.error(
                Code::PureUnknownCallee,
                span,
                "indirect calls are not allowed in pure functions",
            );
            return;
        };
        if name == "__initlist" {
            return; // synthetic initializer marker
        }
        self.calls.insert(name.to_string());
        if !self.pure_set.contains(name) {
            self.diags.error(
                Code::PureCallsImpure,
                span,
                format!(
                    "pure function '{}' calls '{}', which is not verified pure",
                    self.func.name, name
                ),
            );
            return;
        }
        if name == "free" {
            self.check_free(args, span);
        }
    }

    /// `free(p)` is only allowed when `p` was `malloc`ed in this function.
    fn check_free(&mut self, args: &[Expr], span: Span) {
        let rooted = args.first().and_then(|a| a.lvalue_root());
        match rooted {
            Some(name) if self.is_malloced(name) => {}
            Some(name) => {
                self.diags.error(
                    Code::PureFreesForeign,
                    span,
                    format!(
                        "pure function '{}' frees '{}', which was not allocated in its scope",
                        self.func.name, name
                    ),
                );
            }
            None => {
                self.diags.error(
                    Code::PureFreesForeign,
                    span,
                    "free() of a non-variable expression in a pure function",
                );
            }
        }
    }

    /// Vet a write to `lhs` (assignment target or ++/-- operand).
    fn check_write(&mut self, lhs: &Expr, rhs: &Expr, span: Span) {
        let Some(root) = lhs.lvalue_root() else {
            self.diags.error(
                Code::PureWritesExternal,
                span,
                "assignment target is not a recognisable lvalue in a pure function",
            );
            return;
        };
        let root = root.to_string();
        let through = lhs.writes_through_pointer();
        let binding = self.binding_of(&root);

        match binding {
            Binding::Global => {
                self.diags.error(
                    Code::PureGlobalWrite,
                    span,
                    format!(
                        "pure function '{}' writes global '{}' — a side-effect",
                        self.func.name, root
                    ),
                );
            }
            Binding::PtrParam if through => {
                self.diags.error(
                    Code::PureWritesExternal,
                    span,
                    format!(
                        "pure function '{}' writes through pointer parameter '{}'",
                        self.func.name, root
                    ),
                );
            }
            Binding::PtrParam => {
                // Rebinding the (by-value) pointer itself is a local effect,
                // but it must not capture external data without the pure
                // cast discipline.
                self.check_pointer_binding(&root, binding, rhs, span, false);
            }
            Binding::PurePtrParam | Binding::PureLocalPtr => {
                if through {
                    self.diags.error(
                        Code::PureWritesExternal,
                        span,
                        format!("pure pointer '{root}' is write-protected (its content cannot be modified)"),
                    );
                } else if self.var(&root).is_some_and(|v| v.assigned) {
                    self.diags.error(
                        Code::PurePointerReassigned,
                        span,
                        format!("pure pointer '{root}' may only be assigned once"),
                    );
                } else {
                    if let Some(v) = self.var_mut(&root) {
                        v.assigned = true;
                    }
                    self.check_pointer_binding(&root, binding, rhs, span, true);
                }
            }
            Binding::LocalPtr if !through => {
                self.check_pointer_binding(&root, binding, rhs, span, false);
            }
            Binding::ScalarParam
            | Binding::LocalScalar
            | Binding::LocalAggregate
            | Binding::LocalPtr => {
                // Local storage — writes allowed. (LocalPtr write-through is
                // legal only for locally allocated memory; foreign data can
                // only have entered it through a rejected binding, so by
                // induction the pointee is local.)
            }
        }
    }

    /// Enforce the pointer-binding discipline of Listings 2–4 when a pointer
    /// variable receives a value. `lhs_is_pure` says whether the receiving
    /// variable is pure-qualified.
    fn check_pointer_binding(
        &mut self,
        lhs_name: &str,
        lhs_binding: Binding,
        rhs: &Expr,
        span: Span,
        lhs_is_pure: bool,
    ) {
        let lhs_is_pure =
            lhs_is_pure || matches!(lhs_binding, Binding::PureLocalPtr | Binding::PurePtrParam);

        // A top-level `(pure T*)` cast blesses the binding — but only when
        // the receiving pointer is itself pure (Listing 3).
        let (stripped, has_pure_cast) = strip_casts(rhs);

        // `malloc`/`calloc` results and calls to pure functions produce
        // fresh or pure data — always fine.
        if let Some((callee, _)) = stripped.as_direct_call() {
            if callee == "malloc" || callee == "calloc" {
                self.set_malloced(lhs_name);
                return;
            }
            if self.pure_set.contains(callee) {
                return;
            }
            // Impure call already reported by check_expr.
            return;
        }

        // Address-of a local is local data.
        if let ExprKind::Unary(UnOp::AddrOf, inner) = &stripped.kind {
            if let Some(r) = inner.lvalue_root() {
                if !matches!(self.binding_of(r), Binding::Global) {
                    return;
                }
            }
        }

        let Some(src_root) = stripped.lvalue_root() else {
            // Arithmetic on pointers etc. — fall back to the identifier
            // roots of the whole expression: any external pointer source
            // requires the pure-cast discipline.
            let mut bad: Option<String> = None;
            stripped.walk(&mut |e| {
                if bad.is_some() {
                    return;
                }
                if let Some(name) = e.as_ident() {
                    if matches!(
                        self.binding_of(name),
                        Binding::Global | Binding::PtrParam | Binding::PurePtrParam
                    ) {
                        bad = Some(name.to_string());
                    }
                }
            });
            if let Some(name) = bad {
                if !(lhs_is_pure && has_pure_cast) {
                    self.report_bad_binding(lhs_name, &name, span, lhs_is_pure, has_pure_cast);
                }
            }
            return;
        };

        match self.binding_of(src_root) {
            Binding::Global => {
                if !(lhs_is_pure && has_pure_cast) {
                    self.report_bad_binding(lhs_name, src_root, span, lhs_is_pure, has_pure_cast);
                }
            }
            Binding::PtrParam => {
                // Non-pure pointer parameters hold external data too: they
                // require the same discipline as globals.
                if !(lhs_is_pure && has_pure_cast) {
                    self.report_bad_binding(lhs_name, src_root, span, lhs_is_pure, has_pure_cast);
                }
            }
            Binding::PurePtrParam | Binding::PureLocalPtr => {
                // Pure sources may flow to pure targets freely (Listing 2,
                // line 10: `pure int* ptr = p1;`). To a *plain* pointer they
                // would lose the write protection.
                if !lhs_is_pure {
                    self.diags.error(
                        Code::PureAssignsExternalPtrWithoutCast,
                        span,
                        format!(
                            "pure pointer '{src_root}' may not be assigned to non-pure pointer '{lhs_name}'"
                        ),
                    );
                }
            }
            _ => {
                // Local source: propagate malloc provenance.
                if self.is_malloced(src_root) {
                    self.set_malloced(lhs_name);
                }
            }
        }
    }

    fn report_bad_binding(
        &mut self,
        lhs: &str,
        src: &str,
        span: Span,
        lhs_is_pure: bool,
        has_cast: bool,
    ) {
        let why = match (lhs_is_pure, has_cast) {
            (false, _) => format!("'{lhs}' must be declared pure to receive external data"),
            (true, false) => format!("assignment to '{lhs}' requires a (pure T*) cast"),
            _ => unreachable!("valid bindings are not reported"),
        };
        self.diags.error(
            Code::PureAssignsExternalPtrWithoutCast,
            span,
            format!(
                "pure function '{}' binds external pointer '{src}': {why}",
                self.func.name
            ),
        );
    }
}

/// Strip casts off an expression; reports whether any stripped cast was a
/// `pure` pointer cast.
fn strip_casts(e: &Expr) -> (&Expr, bool) {
    let mut cur = e;
    let mut pure_cast = false;
    while let ExprKind::Cast(ty, inner) = &cur.kind {
        if ty.pure_qual {
            pure_cast = true;
        }
        cur = inner;
    }
    (cur, pure_cast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::parser::parse;

    fn verify(src: &str) -> PurityReport {
        let r = parse(src);
        assert!(
            !r.diags.has_errors(),
            "parse failed: {}",
            r.diags.render_all(src)
        );
        verify_unit(&r.unit, PureSet::seeded())
    }

    // ---- Listing 2: the canonical valid/invalid operations -----------------

    #[test]
    fn listing2_valid_body_verifies() {
        let report = verify(
            "int* globalPtr;\n\
             pure int* func2(pure int* p1, int p2) {\n\
                 int a = p2;\n\
                 int b = a + 42;\n\
                 int* c = (int*) malloc(3 * sizeof(int));\n\
                 pure int* ptr = p1;\n\
                 pure int* extPtr2;\n\
                 extPtr2 = (pure int*) globalPtr;\n\
                 pure int* extPtr3;\n\
                 extPtr3 = (pure int*) func2(p1, p2);\n\
                 return c;\n\
             }",
        );
        assert!(report.ok(), "{:?}", report.diags.items());
        assert!(report.pure_set.contains("func2"));
    }

    #[test]
    fn listing2_global_ptr_to_plain_local_rejected() {
        // int* extPtr1 = globalPtr;   // invalid
        let report = verify(
            "int* globalPtr;\n\
             pure int* f(pure int* p1, int p2) {\n\
                 int* extPtr1 = globalPtr;\n\
                 return 0;\n\
             }",
        );
        assert!(!report.ok());
        assert!(report
            .diags
            .has_code(Code::PureAssignsExternalPtrWithoutCast));
    }

    #[test]
    fn listing2_impure_call_rejected() {
        let report = verify(
            "void func1();\n\
             pure int f(int x) { func1(); return x; }",
        );
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PureCallsImpure));
    }

    #[test]
    fn self_recursion_is_allowed() {
        let report =
            verify("pure int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }");
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    #[test]
    fn mutual_recursion_between_pure_functions_allowed() {
        let report = verify(
            "pure int is_odd(int n);\n\
             pure int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }\n\
             pure int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }",
        );
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    // ---- Listing 4: assignment discipline ----------------------------------

    #[test]
    fn listing4_plain_rebinding_of_external_rejected() {
        let report = verify(
            "int* extPtr;\n\
             pure void f() {\n\
                 pure int* intPtr = (pure int*) extPtr;\n\
                 intPtr = extPtr;\n\
             }",
        );
        assert!(!report.ok());
        // Reassignment of a pure pointer (assign-once) fires.
        assert!(report.diags.has_code(Code::PurePointerReassigned));
    }

    #[test]
    fn local_struct_member_write_is_valid() {
        let report = verify(
            "struct datatype { int storage; };\n\
             pure int f(int data) {\n\
                 struct datatype intStruct;\n\
                 intStruct.storage = data;\n\
                 return intStruct.storage;\n\
             }",
        );
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    /// The three canonical rejection classes, each on a function that
    /// would otherwise look spawnable (recursive, scalar in/out): a
    /// global write, an I/O builtin, and a call to an unverified
    /// function must each fail verification — keeping the function out
    /// of the verified set, hence out of the interpreter's memo *and*
    /// spawn-site analyses (which only consider verified-pure
    /// functions; see `cinterp::spawn`'s companion test).
    #[test]
    fn rejected_bodies_stay_out_of_the_pure_set() {
        // (1) Global write.
        let w = verify(
            "int g;\n\
             pure int f(int n) { g = n; if (n < 2) return n; return f(n - 1); }",
        );
        assert!(!w.ok());
        assert!(w.diags.has_code(Code::PureGlobalWrite));
        assert!(!w.declared_pure.is_empty() && !w.diags.items().is_empty());

        // (2) I/O builtin: printf is not in the seeded pure registry.
        let io = verify("pure int f(int n) { printf(\"%d\\n\", n); return n; }");
        assert!(!io.ok());
        assert!(io.diags.has_code(Code::PureCallsImpure));

        // (3) Call to a function that is not verified pure.
        let call = verify(
            "int ticker(int n);\n\
             pure int f(int n) { if (n < 2) return n; return f(n - 1) + ticker(n); }",
        );
        assert!(!call.ok());
        assert!(call.diags.has_code(Code::PureCallsImpure));
    }

    #[test]
    fn global_scalar_write_rejected() {
        let report = verify("int counter;\npure int f(int x) { counter = x; return x; }");
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PureGlobalWrite));
    }

    #[test]
    fn global_increment_rejected() {
        let report = verify("int counter;\npure int f(int x) { counter++; return x; }");
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PureGlobalWrite));
    }

    #[test]
    fn write_through_pointer_param_rejected() {
        let report = verify("pure void f(int* out, int v) { out[0] = v; }");
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PureWritesExternal));
        let report2 = verify("pure void f(int* out, int v) { *out = v; }");
        assert!(report2.diags.has_code(Code::PureWritesExternal));
    }

    #[test]
    fn write_through_pure_pointer_rejected() {
        let report = verify("pure void f(pure int* a) { a[0] = 1; }");
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PureWritesExternal));
    }

    #[test]
    fn scalar_param_writes_are_local_copies() {
        let report = verify("pure int f(int x) { x = x + 1; return x; }");
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    #[test]
    fn local_malloc_write_and_free_are_valid() {
        let report = verify(
            "pure int f(int n) {\n\
                 int* buf = (int*) malloc(n * sizeof(int));\n\
                 buf[0] = 42;\n\
                 int v = buf[0];\n\
                 free(buf);\n\
                 return v;\n\
             }",
        );
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    #[test]
    fn freeing_parameter_rejected() {
        let report = verify("pure void f(int* p) { free(p); }");
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PureFreesForeign));
    }

    #[test]
    fn freeing_global_rejected() {
        let report = verify("int* g;\npure void f() { free(g); }");
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PureFreesForeign));
    }

    #[test]
    fn malloc_provenance_flows_through_local_copies() {
        let report = verify(
            "pure void f(int n) {\n\
                 int* a = (int*) malloc(n);\n\
                 int* b = a;\n\
                 free(b);\n\
             }",
        );
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    #[test]
    fn pure_param_to_pure_local_without_cast_ok() {
        // Listing 2, line 10: pure int* ptr = p1;
        let report = verify("pure int f(pure int* p1) { pure int* ptr = p1; return ptr[0]; }");
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    #[test]
    fn pure_param_to_plain_local_rejected() {
        let report = verify("pure int f(pure int* p1) { int* q = p1; return q[0]; }");
        assert!(!report.ok());
        assert!(report
            .diags
            .has_code(Code::PureAssignsExternalPtrWithoutCast));
    }

    #[test]
    fn reading_globals_is_allowed() {
        // GCC's pure attribute semantics: reads of globals are fine.
        let report = verify("int N;\npure int f(int x) { return x + N; }");
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    #[test]
    fn math_builtins_are_callable() {
        let report = verify("pure float f(float x) { return sqrtf(x) + sinf(x); }");
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    #[test]
    fn matmul_listing7_functions_verify() {
        let report = verify(
            "pure float mult(float a, float b) { return a * b; }\n\
             pure float dot(pure float* a, pure float* b, int size) {\n\
                 float res = 0.0f;\n\
                 for (int i = 0; i < size; ++i) res += mult(a[i], b[i]);\n\
                 return res;\n\
             }",
        );
        assert!(report.ok(), "{:?}", report.diags.items());
        assert!(report.pure_set.contains("mult"));
        assert!(report.pure_set.contains("dot"));
        assert_eq!(report.declared_pure, vec!["mult", "dot"]);
    }

    #[test]
    fn impure_functions_are_not_checked() {
        // Writing globals in a non-pure function is normal C.
        let report = verify("int g;\nvoid setter(int v) { g = v; }");
        assert!(report.ok());
        assert!(!report.pure_set.contains("setter"));
    }

    #[test]
    fn indirect_call_rejected() {
        // Calls through anything but a plain identifier are not verifiable.
        let report = verify("pure int f(pure int* p, int x) { return p[0](x); }");
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PureUnknownCallee));
    }

    #[test]
    fn pure_local_ptr_assign_once_enforced() {
        let report = verify(
            "int* g;\n\
             pure void f() {\n\
                 pure int* p;\n\
                 p = (pure int*) g;\n\
                 p = (pure int*) g;\n\
             }",
        );
        assert!(!report.ok());
        assert!(report.diags.has_code(Code::PurePointerReassigned));
    }

    // ---- scoping, storage classes, and what a function reads ---------------

    #[test]
    fn block_scoped_declaration_ends_with_its_block() {
        let report = verify(
            "int g;\n\
             pure int f(int n) { { int g = 1; n = n + g; } g = g + n; return g; }",
        );
        assert!(report.diags.has_code(Code::PureGlobalWrite));
        // A `for` header is a scope too.
        let report = verify(
            "int i;\n\
             pure int f(int n) { for (int i = 0; i < n; i++) n--; i = n; return n; }",
        );
        assert!(report.diags.has_code(Code::PureGlobalWrite));
        // Inside its block the local wins, and reads of it are not reads
        // of the global.
        let report = verify(
            "int g;\n\
             pure int f(int n) { { int g = 1; g = g + n; n = g; } return n; }",
        );
        assert!(report.ok(), "{:?}", report.diags.items());
        assert!(report.global_reads["f"].is_empty());
    }

    #[test]
    fn malloc_provenance_and_assign_once_are_per_declaration() {
        // The inner `p` was malloced; the parameter `p` was not.
        let report =
            verify("pure void f(int* p) { { int* p = (int*) malloc(8); free(p); } free(p); }");
        assert!(report.diags.has_code(Code::PureFreesForeign));
        assert_eq!(report.diags.error_count(), 1);
        // The inner pure pointer was assigned; the outer one not yet.
        let report = verify(
            "int* g;\n\
             pure void f() {\n\
                 pure int* p;\n\
                 { pure int* p = (pure int*) g; }\n\
                 p = (pure int*) g;\n\
             }",
        );
        assert!(report.ok(), "{:?}", report.diags.items());
    }

    #[test]
    fn static_locals_are_state() {
        let report = verify("pure int next(int x) { static int n = 0; n = n + 1; return x + n; }");
        assert!(report.diags.has_code(Code::PureStaticLocal));
        // Nor can it be inferred pure.
        let unit = parse("int next(int x) { static int n = 0; n = n + 1; return x + n; }").unit;
        let inf = infer_pure(&unit, &PureSet::seeded());
        assert!(inf.inferred.is_empty());
        assert_eq!(inf.blocked[0].1.code, Code::PureStaticLocal);
    }

    #[test]
    fn assignment_targets_are_walked_like_any_expression() {
        let report = verify(
            "int tick(int i);\n\
             pure int f(int n) { int a[4]; a[tick(n)] = 1; return a[0]; }",
        );
        assert!(report.diags.has_code(Code::PureCallsImpure));
        let report = verify(
            "int g;\n\
             pure int f(int n) { int a[4]; a[g++] = n; return a[0]; }",
        );
        assert!(report.diags.has_code(Code::PureGlobalWrite));
    }

    #[test]
    fn global_reads_are_exported_closed_over_callees() {
        let src = "int n; int table[8]; int unused;\n\
             pure int leaf(int i) { return table[i]; }\n\
             pure int mid(int i) { int t[2]; t[n] = leaf(i); return t[0]; }\n\
             pure int top(int i) { return mid(i) + top(i - 1); }\n\
             pure int none(int unused) { return unused; }";
        let report = verify(src);
        assert!(report.ok(), "{:?}", report.diags.items());
        let reads = |f: &str| report.global_reads[f].iter().cloned().collect::<Vec<_>>();
        assert_eq!(reads("leaf"), ["table"]);
        assert_eq!(reads("mid"), ["n", "table"]);
        assert_eq!(reads("top"), ["n", "table"]);
        assert!(reads("none").is_empty());
        // The same facts from the names alone (the lowered text).
        let unit = parse(&src.replace("pure ", "")).unit;
        let mut pure = PureSet::seeded();
        for f in ["leaf", "mid", "top", "none"] {
            pure.insert(f);
        }
        assert_eq!(global_reads(&unit, &pure), report.global_reads);
    }
}
