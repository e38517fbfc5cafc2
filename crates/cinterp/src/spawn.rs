//! Spawn-site analysis: finds independent pure calls worth running as
//! futures and rewrites them into `SpawnPure`/`AwaitSlots` batches.
//!
//! This is the compiler half of the paper's "automatic parallelization
//! of pure function calls": the loop path (`omp parallel for`) covers
//! data parallelism, and this pass covers **task** parallelism — runs of
//! consecutive statements of the shape
//!
//! ```c
//! int a = f(x);      // const and heavy (see `crate::effects`)
//! int b = g(y);      // independent of `a`
//! use(a, b);         // join point: both results forced here
//! ```
//!
//! become *spawn `f`, run `g` inline, await `f`* — the divide-and-conquer
//! shape that lets a tree-recursive pure function occupy every worker.
//!
//! ## What qualifies
//!
//! A statement is **spawnable** when it assigns the result of a direct
//! call to a local scalar slot (`T a = f(args);` with one declarator, or
//! `a = f(args);`), and
//!
//! * the callee's [`crate::effects::Summary`] is **const ∧ heavy** — the
//!   lattice, the safety argument and the granularity heuristic are
//!   stated once, in [`crate::effects`];
//! * its argument expressions do not mention (read *or* write) the
//!   target slot of any earlier statement in the same batch — arguments
//!   are evaluated eagerly by the spawning thread in original program
//!   order, so only dependence on *pending* results forces a join.
//!
//! A maximal run of such statements forms a **batch**. Batches of one
//! are left untouched (spawn-then-immediately-await is pure overhead);
//! in a batch of `k ≥ 2` the first `k − 1` calls spawn and the last runs
//! inline on the spawning thread (it would otherwise idle-wait), then an
//! `AwaitSlots` join forces the spawned slots — before the next
//! dependent statement, which is what makes the rewrite safe under
//! arbitrary following control flow. Between spawn and await the target
//! slot is simply not yet written; the engines keep the in-flight handle
//! in a side list keyed by `(frame, slot)`, so no frame-word tagging is
//! needed and every other slot access stays on its fast path.
//!
//! ## Expression-level spawns: temp introduction
//!
//! Statement-shaped sites alone miss the paper's canonical
//! divide-and-conquer shape, `return f(n - 1) + f(n - 2);` — no local,
//! no statement boundary, nothing to batch. A **hoisting pre-pass**
//! therefore runs before batching: every heavy pure call that sits in
//! an *unconditionally evaluated* position of a statement's expression
//! (binary operands outside `&&`/`||` right sides and ternary branches,
//! call arguments, `return` values, `if` conditions, assignment values,
//! index expressions) and whose arguments are **transparent**
//! ([`crate::effects::transparent`]: literals, locals, arithmetic, casts,
//! calls to const functions — no loads, globals, or side effects) is
//! hoisted into a fresh frame slot:
//!
//! ```c
//! return f(a) + f(b);   ⇒   t1 = f(a); t2 = f(b); return t1 + t2;
//! ```
//!
//! The residual statement reads the temps; the ordinary batch pass then
//! turns the temp runs into `SpawnPure`/`AwaitSlots`. Hoisting is sound
//! because the callee is const-like (commutes with everything else in
//! the statement), the arguments are transparent (their value cannot be
//! changed by any earlier part of the statement — enforced by rejecting
//! calls whose arguments mention a slot the statement writes), and the
//! position is unconditional (the call was going to execute anyway, so
//! executed-op counters and termination behaviour are unchanged).
//! Conditional positions — `&&`/`||` right operands, ternary branches,
//! loop conditions and steps — are never hoisted from.
//!
//! One observable caveat, shared with the memo cache: *which* runtime
//! error surfaces can change when several batched calls fail (the batch
//! runs all of them; sequential execution would stop at the first), and
//! hoisting can surface a failing call's error ahead of an earlier
//! subexpression's. For programs that do not error, behaviour is
//! bit-identical — the differential suites assert exactly that.

use crate::effects::{transparent, Summary};
use crate::ops::Coerce;
use crate::resolve::{
    RDeclKind, RExpr, RExprKind, RPlace, RPlaceKind, RSpawn, RStmt, RStmtKind, ResolvedProgram,
    SlotRef,
};
use cfront::intern::Interner;

/// Run the pass over a lowered program whose functions carry their
/// summaries: hoist expression-level heavy const calls into temps, then
/// rewrite every function body (including parallel-region bodies) into
/// spawn batches.
pub(crate) fn analyze(prog: &mut ResolvedProgram) {
    let summaries: Vec<Summary> = prog.funcs.iter().map(|f| f.summary).collect();
    if !summaries.iter().any(|s| s.spawn_heavy()) {
        return; // nothing worth a future ⇒ no sites
    }
    for f in &mut prog.funcs {
        let mut hoister = Hoister {
            summaries: &summaries,
            interner: &prog.interner,
            next_slot: f.frame_size as u32,
        };
        let body = hoister.hoist_stmts(std::mem::take(&mut f.body));
        f.frame_size = hoister.next_slot as usize;
        f.body = rewrite_stmts(body, &summaries);
    }
}

// ---------------------------------------------------------------------------
// Expression-level hoisting (temp introduction)
// ---------------------------------------------------------------------------

/// The hoisting pre-pass: pulls heavy pure calls out of expressions
/// into fresh frame slots so the batch pass below can spawn them. See
/// the module docs for the soundness argument.
struct Hoister<'a> {
    summaries: &'a [Summary],
    interner: &'a Interner,
    /// Next free frame slot of the function being rewritten; becomes
    /// its new `frame_size`.
    next_slot: u32,
}

impl Hoister<'_> {
    fn hoist_stmts(&mut self, stmts: Vec<RStmt>) -> Vec<RStmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            self.hoist_stmt(s, &mut out);
        }
        out
    }

    /// Rewrite one statement, appending `[temps…, residual]` to `out`.
    fn hoist_stmt(&mut self, mut s: RStmt, out: &mut Vec<RStmt>) {
        // Local slots the statement's own expressions assign (or bind):
        // a hoist whose arguments mention one could read a value the
        // statement changes.
        let mut written: Vec<u32> = Vec::new();
        s.each_expr(&mut |root| root.walk(&mut |n| written.extend(n.written_local())));
        match &mut s.kind {
            RStmtKind::Return(Some(e)) => {
                // A lone direct `return f(x);` gains nothing from a
                // temp (a batch of one never spawns) — hoist only
                // inside its arguments, like the Expr/Decl arms.
                let direct = matches!(e.kind, RExprKind::CallUser { .. });
                self.hoist_expr(e, &written, direct, out);
            }
            RStmtKind::Expr(Some(e)) => {
                // `slot = f(args)` as a whole is already a batch
                // candidate — leave the direct value to the batcher and
                // only hoist from inside the arguments.
                let direct = matches!(
                    &e.kind,
                    RExprKind::Assign { op: None, place, value }
                        if matches!(place.kind, RPlaceKind::Local(_))
                            && matches!(value.kind, RExprKind::CallUser { .. })
                );
                self.hoist_expr(e, &written, direct, out);
            }
            // Array decls are not hoisted from, but their writes still
            // poison later inits of the same statement.
            RStmtKind::Decl(decls) => {
                written.extend(decls.iter().filter_map(|d| match d.target {
                    SlotRef::Local(slot) => Some(slot),
                    SlotRef::Global(_) => None,
                }));
                // A single scalar `T slot = f(args);` is the batcher's
                // own shape — hoist only inside the arguments.
                let direct = decls.len() == 1;
                for d in decls {
                    if let RDeclKind::Scalar { init: Some(e), .. } = &mut d.kind {
                        let direct = direct
                            && matches!(d.target, SlotRef::Local(_))
                            && matches!(e.kind, RExprKind::CallUser { .. });
                        self.hoist_expr(e, &written, direct, out);
                    }
                }
            }
            // The condition evaluates unconditionally at statement
            // entry; the branches are separate statements.
            RStmtKind::If { cond, .. } => self.hoist_expr(cond, &written, false, out),
            // Loop conditions and steps re-evaluate per iteration — no
            // statement boundary to hoist to; only bodies are rewritten.
            _ => {}
        }
        s.map_bodies(&mut |body| self.hoist_stmts(body));
        out.push(s);
    }

    /// Walk the unconditionally evaluated positions of `e`, replacing
    /// each hoistable heavy pure call with a fresh temp slot read and
    /// appending `temp = call;` to `out`. `direct` marks a root the
    /// batch pass already matches whole (its *arguments* are still
    /// visited).
    fn hoist_expr(&mut self, e: &mut RExpr, written: &[u32], direct: bool, out: &mut Vec<RStmt>) {
        match &mut e.kind {
            RExprKind::CallUser { fid, args } => {
                let hoistable = !direct
                    && self.summaries[*fid as usize].spawn_heavy()
                    && args
                        .iter()
                        .all(|a| transparent(a, self.interner, self.summaries))
                    && !args.iter().any(|a| mentions_slot(a, written));
                if hoistable {
                    let slot = self.next_slot;
                    self.next_slot += 1;
                    let span = e.span;
                    let call = std::mem::replace(
                        e,
                        RExpr {
                            kind: RExprKind::Local(slot),
                            span,
                        },
                    );
                    out.push(RStmt {
                        kind: RStmtKind::Expr(Some(RExpr {
                            kind: RExprKind::Assign {
                                op: None,
                                place: RPlace {
                                    kind: RPlaceKind::Local(slot),
                                    span,
                                },
                                value: Box::new(call),
                            },
                            span,
                        })),
                        span,
                    });
                } else {
                    for a in args {
                        self.hoist_expr(a, written, false, out);
                    }
                }
            }
            RExprKind::Binary(op, l, r) => {
                use cfront::ast::BinOp;
                if matches!(op, BinOp::And | BinOp::Or) {
                    // Only the left side evaluates unconditionally.
                    self.hoist_expr(l, written, false, out);
                } else {
                    self.hoist_expr(l, written, false, out);
                    self.hoist_expr(r, written, false, out);
                }
            }
            RExprKind::Unary(_, inner) | RExprKind::Cast(_, inner) => {
                self.hoist_expr(inner, written, false, out)
            }
            // Branches are conditional; only the test is hoistable.
            RExprKind::Ternary(c, _, _) => self.hoist_expr(c, written, false, out),
            RExprKind::Assign { place, value, .. } => {
                self.hoist_expr(value, written, false, out);
                self.hoist_place(place, written, out);
            }
            RExprKind::Comma(l, r) => {
                self.hoist_expr(l, written, false, out);
                self.hoist_expr(r, written, false, out);
            }
            RExprKind::CallBuiltin { args, .. } => {
                for a in args {
                    self.hoist_expr(a, written, false, out);
                }
            }
            RExprKind::Printf { fmt_expr, args, .. } => {
                if let Some(f) = fmt_expr {
                    self.hoist_expr(f, written, false, out);
                }
                for a in args {
                    self.hoist_expr(a, written, false, out);
                }
            }
            RExprKind::Load(place) => self.hoist_place(place, written, out),
            RExprKind::IncDec(_, place) | RExprKind::AddrOf(place) => {
                self.hoist_place(place, written, out)
            }
            RExprKind::Int(_)
            | RExprKind::Float(_)
            | RExprKind::Str(_)
            | RExprKind::Local(_)
            | RExprKind::Global(_)
            | RExprKind::Unknown(_)
            | RExprKind::IndirectCall
            | RExprKind::InitList(_) => {}
        }
    }

    fn hoist_place(&mut self, p: &mut RPlace, written: &[u32], out: &mut Vec<RStmt>) {
        match &mut p.kind {
            RPlaceKind::Index(base, idx) => {
                self.hoist_expr(base, written, false, out);
                self.hoist_expr(idx, written, false, out);
            }
            RPlaceKind::Deref(inner) => self.hoist_expr(inner, written, false, out),
            RPlaceKind::Member { base, .. } | RPlaceKind::MemberUnknown { base, .. } => {
                self.hoist_expr(base, written, false, out)
            }
            RPlaceKind::Local(_)
            | RPlaceKind::Global(_)
            | RPlaceKind::Unknown(_)
            | RPlaceKind::NotLvalue => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Batch rewriting
// ---------------------------------------------------------------------------

/// Match `T slot = f(args);` (single declarator) or `slot = f(args);`
/// against a heavy const callee: the spawn the statement would become.
/// The statement is not consumed; the arguments are a copy.
fn spawnable(s: &RStmt, summaries: &[Summary]) -> Option<RSpawn> {
    let (slot, coerce, init) = match &s.kind {
        RStmtKind::Decl(decls) if decls.len() == 1 => {
            let d = &decls[0];
            let SlotRef::Local(slot) = d.target else {
                return None;
            };
            let RDeclKind::Scalar {
                init: Some(init),
                coerce,
            } = &d.kind
            else {
                return None;
            };
            (slot, *coerce, init)
        }
        RStmtKind::Expr(Some(e)) => {
            let RExprKind::Assign {
                op: None,
                place,
                value,
            } = &e.kind
            else {
                return None;
            };
            let RPlaceKind::Local(slot) = place.kind else {
                return None;
            };
            (slot, Coerce::None, value.as_ref())
        }
        _ => return None,
    };
    match &init.kind {
        RExprKind::CallUser { fid, args } if summaries[*fid as usize].spawn_heavy() => {
            Some(RSpawn {
                slot,
                fid: *fid,
                coerce,
                args: args.clone(),
            })
        }
        _ => None,
    }
}

/// Whether `e` mentions any of `slots` — as a read **or** a write.
/// Arguments run eagerly on the spawning thread, so any reference to a
/// still-pending slot (whose value only lands at the await) is a
/// dependence that ends the batch.
fn mentions_slot(e: &RExpr, slots: &[u32]) -> bool {
    let mut hit = false;
    e.walk(&mut |n| hit |= n.named_local().is_some_and(|s| slots.contains(&s)));
    hit
}

/// Rewrite one statement list: batch maximal runs of independent
/// spawnable statements, recurse into nested statements otherwise.
fn rewrite_stmts(stmts: Vec<RStmt>, summaries: &[Summary]) -> Vec<RStmt> {
    let mut out = Vec::with_capacity(stmts.len());
    let mut stmts = stmts.into_iter().peekable();
    while let Some(mut s) = stmts.next() {
        let Some(first) = spawnable(&s, summaries) else {
            s.map_bodies(&mut |body| rewrite_stmts(body, summaries));
            out.push(s);
            continue;
        };
        // Grow the batch while statements stay spawnable and independent
        // of every earlier target in it.
        let mut slots = vec![first.slot];
        let mut batch = vec![(first, s)];
        while let Some(next) = stmts.peek().and_then(|s| spawnable(s, summaries)) {
            if slots.contains(&next.slot) || next.args.iter().any(|a| mentions_slot(a, &slots)) {
                break;
            }
            slots.push(next.slot);
            batch.push((next, stmts.next().expect("peeked")));
        }
        // Spawn the first k−1 calls, run the last inline (the spawning
        // thread would otherwise idle at the join), then force the
        // spawned slots in order. A lone spawn would be awaited
        // immediately — pure overhead — so a batch of one stays as it is.
        let (_, tail) = batch.pop().expect("the first candidate");
        let tail_span = tail.span;
        slots.pop();
        out.extend(batch.into_iter().map(|(spawn, s)| RStmt {
            kind: RStmtKind::SpawnPure(Box::new(spawn)),
            span: s.span,
        }));
        out.push(tail);
        if !slots.is_empty() {
            out.push(RStmt {
                kind: RStmtKind::AwaitSlots(slots),
                span: tail_span,
            });
        }
    }
    out
}

/// Count the spawn sites in a statement tree (introspection).
pub(crate) fn count_spawns(stmts: &[RStmt]) -> usize {
    let mut n = 0;
    for s in stmts {
        s.walk(&mut |s| n += usize::from(matches!(s.kind, RStmtKind::SpawnPure(_))));
    }
    n
}

#[cfg(test)]
mod tests {
    use crate::interp::Program;
    use cfront::parser::parse;
    use std::collections::HashSet;

    fn program_with_pure(src: &str, pure_fns: &[&str]) -> Program {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        let set: HashSet<String> = pure_fns.iter().map(|s| s.to_string()).collect();
        Program::with_pure_set(&r.unit, &set)
    }

    const FIB_LOCALS: &str = "\
pure int fib(int n) { if (n < 2) return n; int a = fib(n - 1); int b = fib(n - 2); return a + b; }
int main() { int l = fib(12); int r = fib(11); return (l + r) % 251; }
";

    #[test]
    fn tree_recursion_produces_spawn_sites() {
        let prog = program_with_pure(FIB_LOCALS, &["fib"]);
        let resolved = prog.resolved();
        assert_eq!(resolved.spawn_heavy_functions(), vec!["fib"]);
        let mut sites = resolved.spawn_sites();
        sites.sort_unstable();
        // One spawn in fib's body (a spawns, b inlines) and one in main.
        assert_eq!(sites, vec![("fib", 1), ("main", 1)]);
    }

    #[test]
    fn no_pure_set_means_no_spawn_sites() {
        let r = parse(FIB_LOCALS);
        let prog = Program::new(&r.unit);
        assert!(prog.resolved().spawn_sites().is_empty());
        assert!(prog.resolved().spawn_heavy_functions().is_empty());
    }

    /// A callee that failed purity verification (here: never verified)
    /// must not become a spawn site even if it is assigned to locals in
    /// a batch-shaped run.
    #[test]
    fn unverified_callee_is_not_a_spawn_site() {
        let src = "\
int g;
int shady(int n) { g = g + n; if (n < 2) return n; return shady(n - 1); }
int main() { int a = shady(9); int b = shady(8); return a + b + g; }
";
        let prog = program_with_pure(src, &[]);
        assert!(prog.resolved().spawn_sites().is_empty());
        // Even when *declared* in a pure set, a global-writing function
        // is not const-like, hence not cacheable, hence never spawned.
        let prog2 = program_with_pure(src, &["shady"]);
        assert!(prog2.resolved().cacheable_functions().is_empty());
        assert!(prog2.resolved().spawn_sites().is_empty());
    }

    /// Straight-line leaves fail the granularity heuristic.
    #[test]
    fn tiny_leaves_are_not_spawn_worthy() {
        let src = "\
pure int tiny(int x) { return x * 2 + 1; }
int main() { int a = tiny(3); int b = tiny(4); return a + b; }
";
        let prog = program_with_pure(src, &["tiny"]);
        assert_eq!(prog.resolved().cacheable_functions(), vec!["tiny"]);
        assert!(prog.resolved().spawn_heavy_functions().is_empty());
        assert!(prog.resolved().spawn_sites().is_empty());
    }

    /// A looping pure function qualifies, and a wrapper calling it
    /// inherits heaviness transitively.
    #[test]
    fn loops_and_wrappers_are_heavy() {
        let src = "\
pure int looper(int n) { int acc = 0; for (int i = 0; i < n; i++) acc += i; return acc; }
pure int wrap(int n) { return looper(n + 1); }
int main() { int a = wrap(10); int b = looper(20); return a + b; }
";
        let prog = program_with_pure(src, &["looper", "wrap"]);
        let mut heavy = prog.resolved().spawn_heavy_functions();
        heavy.sort_unstable();
        assert_eq!(heavy, vec!["looper", "wrap"]);
        assert_eq!(prog.resolved().spawn_sites(), vec![("main", 1)]);
    }

    /// A dependent read splits the batch: `b = f(a)` must not join the
    /// batch that spawned `a`.
    #[test]
    fn dependent_reads_end_the_batch() {
        let src = "\
pure int f(int n) { int acc = 0; for (int i = 0; i < n; i++) acc += i; return acc; }
int main() {
    int a = f(10);
    int b = f(a);
    int c = f(12);
    int d = f(13);
    return a + b + c + d;
}
";
        let prog = program_with_pure(src, &["f"]);
        // `b = f(a)` depends on `a`, so `a` ends up a lone (unspawned)
        // statement; `b`, `c`, `d` are mutually independent and form one
        // batch — two spawns plus the inline tail `d`.
        assert_eq!(prog.resolved().spawn_sites(), vec![("main", 2)]);
    }

    const FIB_EXPR: &str = "\
pure int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { return (fib(12) + fib(11)) % 251; }
";

    /// The paper's canonical shape, with no explicit locals: both
    /// recursive calls sit inside the `return` expression. The hoist
    /// pass introduces temps, and the batcher spawns one per site.
    #[test]
    fn expression_level_calls_become_spawn_sites() {
        let prog = program_with_pure(FIB_EXPR, &["fib"]);
        let resolved = prog.resolved();
        assert_eq!(resolved.spawn_heavy_functions(), vec!["fib"]);
        let mut sites = resolved.spawn_sites();
        sites.sort_unstable();
        // `return fib(n-1)+fib(n-2)` hoists into a batch of two (one
        // spawn + inline tail) in fib, and `fib(12)+fib(11)` likewise
        // in main.
        assert_eq!(sites, vec![("fib", 1), ("main", 1)]);
    }

    /// Expression spawns execute identically with futures on and off,
    /// across engines and against the legacy oracle (which runs the
    /// original, un-hoisted AST).
    #[test]
    fn expression_spawns_match_inline_and_oracle() {
        let prog = program_with_pure(FIB_EXPR, &["fib"]);
        let opt = |threads: usize, futures: bool| crate::interp::InterpOptions {
            threads,
            futures,
            memo: false,
            ..Default::default()
        };
        let seq = prog.run(opt(1, false)).expect("sequential");
        assert_eq!(seq.exit_code, 144 + 89);
        let legacy = prog.run_legacy(opt(1, false)).expect("legacy");
        assert_eq!(seq.counters.without_memo(), legacy.counters.without_memo());
        for threads in [2usize, 4] {
            let fut = prog.run(opt(threads, true)).expect("futures VM");
            assert_eq!(fut.exit_code, seq.exit_code, "threads={threads}");
            assert_eq!(
                fut.counters.without_memo(),
                seq.counters.without_memo(),
                "threads={threads}"
            );
            assert!(
                fut.counters.futures_spawned + fut.counters.futures_inlined > 0,
                "expression sites must engage: {:?}",
                fut.counters
            );
            let res = prog
                .run(crate::interp::InterpOptions {
                    engine: crate::interp::Engine::Resolved,
                    ..opt(threads, true)
                })
                .expect("futures resolved");
            assert_eq!(res.exit_code, seq.exit_code, "threads={threads}");
            assert_eq!(
                res.counters.without_memo(),
                seq.counters.without_memo(),
                "threads={threads}"
            );
        }
    }

    /// Conditionally evaluated positions never hoist: `&&`/`||` right
    /// operands and ternary branches must stay where they are (hoisting
    /// would execute calls the program may never reach).
    #[test]
    fn conditional_positions_are_not_hoisted() {
        let src = "\
pure int f(int n) { if (n < 2) return n; return f(n - 1) + f(n - 2); }
int main() {
    int a = 0;
    if (a > 0 && f(30) > 0) a = 1;
    int b = a ? f(31) : 0;
    int c = a > 0 || f(5) > 0;
    return a + b + c;
}
";
        let prog = program_with_pure(src, &["f"]);
        // f's own body still gets its expression batch; main must not.
        assert_eq!(prog.resolved().spawn_sites(), vec![("f", 1)]);
        let r = prog
            .run(crate::interp::InterpOptions {
                threads: 4,
                ..Default::default()
            })
            .expect("runs");
        // a == 0, so neither guarded call executes: b == 0, c == 1.
        assert_eq!(r.exit_code, 1);
    }

    /// Arguments that mention a slot the same statement writes cannot
    /// be hoisted ahead of it (`int a = ..., b = f(a);` — `a` is bound
    /// mid-statement).
    #[test]
    fn same_statement_writes_block_hoisting() {
        let src = "\
pure int f(int n) { int acc = 0; for (int i = 0; i < n; i++) acc += i; return acc; }
int main() {
    int a = 3, b = f(a) + f(4);
    return a + b;
}
";
        let prog = program_with_pure(src, &["f"]);
        assert!(prog.resolved().spawn_sites().is_empty());
        let r = prog
            .run(crate::interp::InterpOptions {
                threads: 4,
                ..Default::default()
            })
            .expect("runs");
        assert_eq!(r.exit_code, 3 + 3 + 6);
    }

    /// Hoisted temps from *different statements* merge into one batch:
    /// a statement-level site followed by an expression-level site.
    #[test]
    fn expression_and_statement_sites_batch_together() {
        let src = "\
pure int f(int n) { int acc = 0; for (int i = 0; i < n; i++) acc += i; return acc; }
int main() {
    int a = f(10);
    return a + f(11) + f(12);
}
";
        let prog = program_with_pure(src, &["f"]);
        // `a = f(10)` plus the two hoisted temps form one batch of
        // three: two spawns, one inline tail.
        assert_eq!(prog.resolved().spawn_sites(), vec![("main", 2)]);
        let r = prog
            .run(crate::interp::InterpOptions {
                threads: 4,
                memo: false,
                ..Default::default()
            })
            .expect("runs");
        assert_eq!(r.exit_code, 45 + 55 + 66);
    }

    /// Spawn sites inside a parallel-region body are found too.
    #[test]
    fn spawn_sites_inside_parallel_regions() {
        let src = "\
pure int f(int n) { if (n < 2) return n; int a = f(n - 1); int b = f(n - 2); return a + b; }
int main() {
    int* out = (int*) malloc(8 * sizeof(int));
#pragma omp parallel for
    for (int i = 0; i < 8; i++) {
        int l = f(i + 3);
        int r = f(i + 2);
        out[i] = l + r;
    }
    int acc = 0;
    for (int i = 0; i < 8; i++) acc += out[i];
    return acc % 251;
}
";
        let prog = program_with_pure(src, &["f"]);
        let mut sites = prog.resolved().spawn_sites();
        sites.sort_unstable();
        assert_eq!(sites, vec![("f", 1), ("main", 1)]);
    }
}
