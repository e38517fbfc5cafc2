//! One walk of the lowered IR, one effect summary per function.
//!
//! Everything downstream of lowering that asks "what may this code
//! touch?" — the memo cache, the spawn-site pass, `--stats` — reads the
//! [`Summary`] this module stores on every [`RFunc`], and every pass that
//! needs to look *inside* an expression or statement goes through the
//! traversal primitives here ([`RExpr::each_child`] / [`RExpr::walk`],
//! [`RStmt::each_part`] / [`RStmt::walk`], [`RStmt::map_bodies`]). The
//! only classification of an expression node is [`effect_of`], a
//! wildcard-free `match`: a new [`RExprKind`] is one compile error here
//! instead of a silent default in six private recursions.
//!
//! # The lattice: const ⊂ pure ⊂ impure
//!
//! In the terms of GCC's function attributes (`c_ffi_pure` /
//! `c_ffi_const`):
//!
//! * **pure** — verified side-effect-free by `purec_core::purity`. The
//!   verifier (matching GCC `pure`) still lets such a function *read*
//!   global memory and read through `pure` pointer parameters, and both
//!   can change between two calls: a pure call is CSE-able only between
//!   writes. It may be called from a parallel loop, not cached.
//! * **const** — pure, and its value is a function of its by-value
//!   scalar arguments alone: memoizable and spawnable anywhere.
//! * **impure** — everything the verifier did not vouch for.
//!
//! ## Safety argument (why const ⇒ cacheable and spawnable)
//!
//! A function is [`Class::Const`] when, as a greatest fixpoint over the
//! call graph (so self and mutual recursion stay const), it
//!
//! 1. is verified pure by the purity pass (no side effects, proven);
//! 2. takes only by-value scalar parameters (so the key `(fn, coerced
//!    args)` fully determines the input state and the cached value
//!    aliases nothing);
//! 3. has no node that *reaches outside* ([`Effect::Outside`]): no
//!    global, no memory operation at all (arrays, structs, string
//!    literals, derefs, `&`, allocation), no I/O, nothing unresolved —
//!    and declares no array or struct and opens no parallel region — so
//!    the result cannot observe mutable state and skipping the body
//!    cannot skip an observable effect;
//! 4. calls only other const functions or math builtins (the entries of
//!    [`crate::builtins::math_builtin`], which receive scalars and
//!    nothing else).
//!
//! Under 1–4 a call's value is a pure function of its key. Skipping the
//! body on a memo hit changes nothing observable except the
//! executed-operation counters (the `modulo cache hits` caveat the
//! differential tests allow), and running the body on another thread at
//! the spawn point is observationally identical to running it inline at
//! the call point.
//!
//! # Cost: leaf | heavy
//!
//! A function is [`Cost::Heavy`] when it contains a loop (or a parallel
//! region), sits on a call-graph cycle, or calls a heavy function. The
//! cost decides what a call is worth, wherever that is asked:
//!
//! * **`spawn_heavy` ≡ const ∧ heavy** is the one admission predicate of
//!   the memo cache *and* of the spawn-site pass. A mechanism pays only
//!   where its overhead is small against the work it saves: a future's
//!   spawn/join and a cache probe both dwarf a straight-line leaf (a hit
//!   on the paper's one-multiply `mult` cost several times the multiply).
//! * **Leaf** with a body of exactly one `return` is the shape the
//!   bytecode optimizer inlines (`crate::opt`) — whatever its class,
//!   since inlining reorders nothing. Leaf ⇒ acyclic, so the expansion
//!   terminates.

use crate::builtins::math_builtin;
use crate::ops::Coerce;
use crate::resolve::{RDeclKind, RExpr, RExprKind, RFunc, RPlace, RPlaceKind, RStmt, RStmtKind};
use cfront::ast::UnOp;
use cfront::intern::Interner;
use std::collections::HashSet;

/// What the purity verifier and the lowered body together allow a caller
/// to assume about a function (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Class {
    /// Value depends on the scalar arguments alone.
    Const,
    /// Verified side-effect-free, but may read memory or globals.
    Pure,
    /// Not verified.
    #[default]
    Impure,
}

/// Coarse size of a call, for granularity decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Cost {
    /// Straight-line, and so is everything it calls.
    #[default]
    Leaf,
    /// Loops, recurses, or calls a function that does.
    Heavy,
}

/// The one effect-and-cost record of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Summary {
    pub class: Class,
    pub cost: Cost,
}

impl Summary {
    /// Value depends on the arguments alone: the class memoization and
    /// futures need (whether they pay is [`Self::spawn_heavy`]).
    #[inline]
    pub fn is_const(self) -> bool {
        self.class == Class::Const
    }

    /// Worth a memo probe or a future: const, and coarse enough for the
    /// mechanism's overhead to be small against the body it saves. The
    /// one admission predicate of the memo cache and the spawn pass.
    #[inline]
    pub fn spawn_heavy(self) -> bool {
        self.is_const() && self.cost == Cost::Heavy
    }
}

// ---------------------------------------------------------------------------
// Traversal primitives
// ---------------------------------------------------------------------------

impl RPlace {
    fn each_child<'a>(&'a self, f: &mut dyn FnMut(&'a RExpr)) {
        match &self.kind {
            RPlaceKind::Index(base, idx) => {
                f(base);
                f(idx);
            }
            RPlaceKind::Deref(base)
            | RPlaceKind::Member { base, .. }
            | RPlaceKind::MemberUnknown { base, .. } => f(base),
            RPlaceKind::Local(_)
            | RPlaceKind::Global(_)
            | RPlaceKind::Unknown(_)
            | RPlaceKind::NotLvalue => {}
        }
    }

    fn local(&self) -> Option<u32> {
        match self.kind {
            RPlaceKind::Local(slot) => Some(slot),
            _ => None,
        }
    }
}

impl RExpr {
    /// The direct sub-expressions in evaluation-independent source order,
    /// with places looked through (`a[i] = v` has children `a`, `i`, `v`).
    pub(crate) fn each_child<'a>(&'a self, f: &mut dyn FnMut(&'a RExpr)) {
        match &self.kind {
            RExprKind::Int(_)
            | RExprKind::Float(_)
            | RExprKind::Str(_)
            | RExprKind::Local(_)
            | RExprKind::Global(_)
            | RExprKind::Unknown(_)
            | RExprKind::IndirectCall => {}
            RExprKind::Unary(_, inner) | RExprKind::Cast(_, inner) => f(inner),
            RExprKind::Binary(_, l, r) | RExprKind::Comma(l, r) => {
                f(l);
                f(r);
            }
            RExprKind::Assign { place, value, .. } => {
                place.each_child(f);
                f(value);
            }
            RExprKind::IncDec(_, place) | RExprKind::AddrOf(place) | RExprKind::Load(place) => {
                place.each_child(f)
            }
            RExprKind::Ternary(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            RExprKind::CallUser { args, .. }
            | RExprKind::CallBuiltin { args, .. }
            | RExprKind::InitList(args) => args.iter().for_each(f),
            RExprKind::Printf { fmt_expr, args, .. } => {
                if let Some(fmt) = fmt_expr {
                    f(fmt);
                }
                args.iter().for_each(f);
            }
        }
    }

    /// This node and every node below it, outside-in.
    pub(crate) fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a RExpr)) {
        f(self);
        self.each_child(&mut |c| c.walk(f));
    }

    /// The local slot this node assigns or increments, if any.
    pub(crate) fn written_local(&self) -> Option<u32> {
        match &self.kind {
            RExprKind::Assign { place, .. } | RExprKind::IncDec(_, place) => place.local(),
            _ => None,
        }
    }

    /// The local slot this node names — as a read, a write target, or the
    /// operand of `&`.
    pub(crate) fn named_local(&self) -> Option<u32> {
        match &self.kind {
            RExprKind::Local(slot) => Some(*slot),
            RExprKind::Assign { place, .. }
            | RExprKind::IncDec(_, place)
            | RExprKind::AddrOf(place)
            | RExprKind::Load(place) => place.local(),
            _ => None,
        }
    }
}

impl RStmt {
    /// The expressions and the statements directly inside this statement,
    /// in source order.
    pub(crate) fn each_part<'a>(
        &'a self,
        on_expr: &mut dyn FnMut(&'a RExpr),
        on_stmt: &mut dyn FnMut(&'a RStmt),
    ) {
        match &self.kind {
            RStmtKind::Decl(decls) => {
                for d in decls {
                    match &d.kind {
                        RDeclKind::Array { dims, init } => {
                            dims.iter().chain(init).for_each(&mut *on_expr)
                        }
                        RDeclKind::Scalar { init, .. } => init.iter().for_each(&mut *on_expr),
                        RDeclKind::Struct { .. } => {}
                    }
                }
            }
            RStmtKind::Expr(e) | RStmtKind::Return(e) => e.iter().for_each(on_expr),
            RStmtKind::Block(stmts) => stmts.iter().for_each(on_stmt),
            RStmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                on_expr(cond);
                on_stmt(then_branch);
                else_branch.iter().for_each(|e| on_stmt(e));
            }
            RStmtKind::While { cond, body } => {
                on_expr(cond);
                on_stmt(body);
            }
            RStmtKind::DoWhile { body, cond } => {
                on_stmt(body);
                on_expr(cond);
            }
            RStmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                init.iter().for_each(|i| on_stmt(i));
                cond.iter().chain(step).for_each(on_expr);
                on_stmt(body);
            }
            RStmtKind::OmpFor(of) => {
                if let Ok(h) = &of.header {
                    on_expr(&h.lb);
                    on_expr(&h.ub);
                    on_stmt(&h.body);
                }
            }
            RStmtKind::SpawnPure(sp) => sp.args.iter().for_each(on_expr),
            RStmtKind::Break | RStmtKind::Continue | RStmtKind::Nop | RStmtKind::AwaitSlots(_) => {}
        }
    }

    /// This statement and every statement nested in it, outside-in.
    pub(crate) fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a RStmt)) {
        f(self);
        self.each_part(&mut |_| {}, &mut |s| s.walk(f));
    }

    /// Every expression *root* directly inside this statement (not the
    /// ones of nested statements).
    pub(crate) fn each_expr<'a>(&'a self, f: &mut dyn FnMut(&'a RExpr)) {
        self.each_part(f, &mut |_| {});
    }

    /// Map every nested statement list by value, in place: a block's
    /// statements as they are, a single-statement child (branch, loop
    /// body, region body) as a list of one that is wrapped in a block
    /// only if the mapping grew it. Headers (conditions, `for` init and
    /// step, region bounds) are left alone.
    pub(crate) fn map_bodies(&mut self, f: &mut dyn FnMut(Vec<RStmt>) -> Vec<RStmt>) {
        let mut child = |s: &mut RStmt| {
            let span = s.span;
            let nop = RStmt {
                kind: RStmtKind::Nop,
                span,
            };
            let mut mapped = f(vec![std::mem::replace(s, nop)]);
            *s = if mapped.len() == 1 {
                mapped.pop().expect("one statement")
            } else {
                RStmt {
                    kind: RStmtKind::Block(mapped),
                    span,
                }
            };
        };
        match &mut self.kind {
            RStmtKind::Block(stmts) => *stmts = f(std::mem::take(stmts)),
            RStmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                child(then_branch);
                if let Some(e) = else_branch {
                    child(e);
                }
            }
            RStmtKind::While { body, .. }
            | RStmtKind::DoWhile { body, .. }
            | RStmtKind::For { body, .. } => child(body),
            RStmtKind::OmpFor(of) => {
                if let Ok(h) = &mut of.header {
                    child(&mut h.body);
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Node classification
// ---------------------------------------------------------------------------

/// What evaluating one expression node (its children aside) can touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Scalar arithmetic over its operands: literals, local reads,
    /// operators, casts, `?:`, and the call *edge* to a user function
    /// (what the callee does is its own summary).
    Scalar,
    /// Stays inside the frame but is not order-independent: a write to a
    /// local, a `,` sequence, a math builtin.
    Local,
    /// Reaches outside the frame: globals, memory, I/O, anything
    /// unresolved.
    Outside,
}

/// The only classification of an expression node. Every consumer's
/// notion of "effect-free" is a predicate over this.
// (The second lint is the first one's name when exactly one variant is
// left to the wildcard.)
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub(crate) fn effect_of(e: &RExpr, interner: &Interner) -> Effect {
    match &e.kind {
        RExprKind::Int(_)
        | RExprKind::Float(_)
        | RExprKind::Local(_)
        | RExprKind::Binary(..)
        | RExprKind::Ternary(..)
        | RExprKind::Cast(..)
        | RExprKind::CallUser { .. } => Effect::Scalar,
        RExprKind::Unary(op, _) if *op == UnOp::Deref => Effect::Outside,
        RExprKind::Unary(..) => Effect::Scalar,
        RExprKind::Comma(..) => Effect::Local,
        RExprKind::Assign { place, .. } | RExprKind::IncDec(_, place) => match place.local() {
            Some(_) => Effect::Local,
            None => Effect::Outside,
        },
        RExprKind::CallBuiltin { name, .. } => match math_builtin(interner.resolve(*name)) {
            Some(_) => Effect::Local,
            None => Effect::Outside,
        },
        RExprKind::Global(_)
        | RExprKind::Str(_)
        | RExprKind::Unknown(_)
        | RExprKind::AddrOf(_)
        | RExprKind::Load(_)
        | RExprKind::Printf { .. }
        | RExprKind::IndirectCall
        | RExprKind::InitList(_) => Effect::Outside,
    }
}

/// Whether evaluating `e` is order-independent and effect-free: every
/// node is scalar arithmetic and every callee is const. Its value cannot
/// be changed by, and its evaluation cannot be observed from, any other
/// part of the statement it sits in.
pub(crate) fn transparent(e: &RExpr, interner: &Interner, summaries: &[Summary]) -> bool {
    let mut ok = true;
    e.walk(&mut |n| {
        ok &= effect_of(n, interner) == Effect::Scalar
            && match n.kind {
                RExprKind::CallUser { fid, .. } => summaries[fid as usize].is_const(),
                _ => true,
            };
    });
    ok
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

/// What one pass over a function body sees.
struct BodyFacts {
    /// The purity pass vouches for the function.
    verified: bool,
    /// Verified, scalar parameters, and nothing in the body reaches
    /// outside the frame (callees aside).
    const_like: bool,
    /// Contains a loop or a parallel region.
    loops: bool,
    /// User functions called, deduplicated.
    calls: Vec<u32>,
}

fn body_facts(f: &RFunc, verified: bool, interner: &Interner) -> BodyFacts {
    let mut facts = BodyFacts {
        verified,
        const_like: verified && f.params.iter().all(|(_, c)| *c != Coerce::None),
        loops: false,
        calls: Vec::new(),
    };
    for s in &f.body {
        s.walk(&mut |s| {
            match &s.kind {
                RStmtKind::While { .. } | RStmtKind::DoWhile { .. } | RStmtKind::For { .. } => {
                    facts.loops = true
                }
                // A region shares memory between its iterations.
                RStmtKind::OmpFor(_) => {
                    facts.loops = true;
                    facts.const_like = false;
                }
                // Arrays and structs are memory.
                RStmtKind::Decl(decls) => {
                    facts.const_like &= decls
                        .iter()
                        .all(|d| matches!(d.kind, RDeclKind::Scalar { .. }));
                }
                // A spawn site stands for the call it was rewritten from.
                RStmtKind::SpawnPure(sp) => facts.calls.push(sp.fid),
                _ => {}
            }
            s.each_expr(&mut |root| {
                root.walk(&mut |n| {
                    facts.const_like &= effect_of(n, interner) != Effect::Outside;
                    if let RExprKind::CallUser { fid, .. } = n.kind {
                        facts.calls.push(fid);
                    }
                });
            });
        });
    }
    facts.calls.sort_unstable();
    facts.calls.dedup();
    facts
}

/// Tarjan's strongly connected components over the call graph; a
/// component is finished — and summarized — after every component it
/// calls into.
struct CallGraph<'a> {
    facts: &'a [BodyFacts],
    /// Discovery index, `u32::MAX` while unvisited.
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    next: u32,
    out: Vec<Summary>,
}

impl CallGraph<'_> {
    fn visit(&mut self, v: u32) {
        let vi = v as usize;
        self.index[vi] = self.next;
        self.low[vi] = self.next;
        self.next += 1;
        self.stack.push(v);
        self.on_stack[vi] = true;
        let facts = self.facts;
        for &w in &facts[vi].calls {
            let wi = w as usize;
            if self.index[wi] == u32::MAX {
                self.visit(w);
                self.low[vi] = self.low[vi].min(self.low[wi]);
            } else if self.on_stack[wi] {
                self.low[vi] = self.low[vi].min(self.index[wi]);
            }
        }
        if self.low[vi] != self.index[vi] {
            return;
        }
        // `v` roots a component: everything above it on the stack. A call
        // out of it lands in a component that is already summarized.
        let at = self.stack.iter().rposition(|&w| w == v).expect("on stack");
        let members = self.stack.split_off(at);
        for &m in &members {
            self.on_stack[m as usize] = false;
        }
        let inside = |w: &u32| members.contains(w);
        let cyclic = members.len() > 1 || facts[vi].calls.contains(&v);
        let callees = || {
            members
                .iter()
                .flat_map(|&m| facts[m as usize].calls.iter())
                .filter(|w| !inside(w))
                .map(|&w| self.out[w as usize])
        };
        // Greatest fixpoint: members of a cycle call each other, so they
        // are const together or not at all.
        let konst = members.iter().all(|&m| facts[m as usize].const_like)
            && callees().all(Summary::is_const);
        let heavy = cyclic
            || members.iter().any(|&m| facts[m as usize].loops)
            || callees().any(|s| s.cost == Cost::Heavy);
        let cost = if heavy { Cost::Heavy } else { Cost::Leaf };
        for &m in &members {
            let class = match (facts[m as usize].verified, konst) {
                (false, _) => Class::Impure,
                (true, true) => Class::Const,
                (true, false) => Class::Pure,
            };
            self.out[m as usize] = Summary { class, cost };
        }
    }
}

/// Summarize every function of a lowered program: one pass per body, one
/// pass over the call graph. `pure_fns` are the names the purity pass
/// verified.
pub(crate) fn summarize(
    funcs: &[RFunc],
    interner: &Interner,
    pure_fns: &HashSet<String>,
) -> Vec<Summary> {
    let facts: Vec<BodyFacts> = funcs
        .iter()
        .map(|f| body_facts(f, pure_fns.contains(interner.resolve(f.name)), interner))
        .collect();
    let n = funcs.len();
    let mut graph = CallGraph {
        facts: &facts,
        index: vec![u32::MAX; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: vec![Summary::default(); n],
    };
    for v in 0..n as u32 {
        if graph.index[v as usize] == u32::MAX {
            graph.visit(v);
        }
    }
    graph.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Program;
    use cfront::ast::BinOp;
    use cfront::parser::parse;
    use cfront::span::Span;

    fn x(kind: RExprKind) -> RExpr {
        RExpr {
            kind,
            span: Span::DUMMY,
        }
    }

    fn b(kind: RExprKind) -> Box<RExpr> {
        Box::new(x(kind))
    }

    fn place(kind: RPlaceKind) -> RPlace {
        RPlace {
            kind,
            span: Span::DUMMY,
        }
    }

    /// `Hoister::transparent` as it stood before this module existed.
    fn old_transparent(e: &RExpr, cacheable: &[bool]) -> bool {
        match &e.kind {
            RExprKind::Int(_) | RExprKind::Float(_) | RExprKind::Local(_) => true,
            RExprKind::Unary(op, inner) => {
                !matches!(op, UnOp::Deref) && old_transparent(inner, cacheable)
            }
            RExprKind::Binary(_, l, r) => {
                old_transparent(l, cacheable) && old_transparent(r, cacheable)
            }
            RExprKind::Ternary(c, t, f) => {
                old_transparent(c, cacheable)
                    && old_transparent(t, cacheable)
                    && old_transparent(f, cacheable)
            }
            RExprKind::Cast(_, inner) => old_transparent(inner, cacheable),
            RExprKind::CallUser { fid, args } => {
                cacheable[*fid as usize] && args.iter().all(|a| old_transparent(a, cacheable))
            }
            _ => false,
        }
    }

    /// One expression per `RExprKind` (and per sub-case that classifies
    /// differently): its effect, and `transparent` ⇔ the old predicate.
    #[test]
    fn every_node_kind_is_classified_and_transparent_is_the_old_predicate() {
        let mut interner = Interner::new();
        let (sqrt, malloc, unknown) = (
            interner.intern("sqrt"),
            interner.intern("malloc"),
            interner.intern("mystery"),
        );
        let one = || b(RExprKind::Int(1));
        let local = || place(RPlaceKind::Local(0));
        let memory = || place(RPlaceKind::Index(one(), one()));
        use Effect::*;
        let table = [
            (RExprKind::Int(1), Scalar),
            (RExprKind::Float(1.0), Scalar),
            (RExprKind::Local(0), Scalar),
            (RExprKind::Unary(UnOp::Neg, one()), Scalar),
            (RExprKind::Unary(UnOp::Deref, one()), Outside),
            (RExprKind::Binary(BinOp::Add, one(), one()), Scalar),
            (RExprKind::Ternary(one(), one(), one()), Scalar),
            (RExprKind::Cast(Coerce::ToInt, one()), Scalar),
            (
                RExprKind::CallUser {
                    fid: 0, // const
                    args: vec![x(RExprKind::Local(0))],
                },
                Scalar,
            ),
            (
                RExprKind::CallUser {
                    fid: 1, // pure, not const
                    args: vec![],
                },
                Scalar,
            ),
            (RExprKind::Comma(one(), one()), Local),
            (
                RExprKind::Assign {
                    op: None,
                    place: local(),
                    value: one(),
                },
                Local,
            ),
            (
                RExprKind::Assign {
                    op: Some(BinOp::Add),
                    place: memory(),
                    value: one(),
                },
                Outside,
            ),
            (RExprKind::IncDec(UnOp::PreInc, local()), Local),
            (
                RExprKind::IncDec(UnOp::PostDec, place(RPlaceKind::Global(0))),
                Outside,
            ),
            (
                RExprKind::CallBuiltin {
                    name: sqrt,
                    args: vec![x(RExprKind::Float(4.0))],
                },
                Local,
            ),
            (
                RExprKind::CallBuiltin {
                    name: malloc,
                    args: vec![x(RExprKind::Int(8))],
                },
                Outside,
            ),
            (RExprKind::Global(0), Outside),
            (RExprKind::Str("s".into()), Outside),
            (RExprKind::Unknown(unknown), Outside),
            (RExprKind::AddrOf(memory()), Outside),
            (RExprKind::Load(memory()), Outside),
            (
                RExprKind::Printf {
                    fmt: Some("%d".into()),
                    fmt_expr: None,
                    args: vec![x(RExprKind::Int(1))],
                },
                Outside,
            ),
            (RExprKind::IndirectCall, Outside),
            (RExprKind::InitList(vec![x(RExprKind::Int(1))]), Outside),
        ];
        let summaries = [
            Summary {
                class: Class::Const,
                cost: Cost::Leaf,
            },
            Summary {
                class: Class::Pure,
                cost: Cost::Leaf,
            },
        ];
        let cacheable = [true, false];
        for (kind, effect) in table {
            let e = x(kind);
            assert_eq!(effect_of(&e, &interner), effect, "{e:?}");
            assert_eq!(
                transparent(&e, &interner, &summaries),
                old_transparent(&e, &cacheable),
                "{e:?}"
            );
            // One level up, too: an operand poisons its operator.
            let nested = x(RExprKind::Binary(BinOp::Mul, one(), Box::new(e)));
            assert_eq!(
                transparent(&nested, &interner, &summaries),
                old_transparent(&nested, &cacheable),
                "{nested:?}"
            );
        }
    }

    /// Places are looked through: `a[i] = v` has three children.
    #[test]
    fn walk_sees_the_expressions_inside_places() {
        let e = x(RExprKind::Assign {
            op: None,
            place: place(RPlaceKind::Index(
                b(RExprKind::Local(1)),
                b(RExprKind::Local(2)),
            )),
            value: b(RExprKind::Local(3)),
        });
        let mut seen = Vec::new();
        e.walk(&mut |n| seen.extend(n.named_local()));
        assert_eq!(seen, [1, 2, 3]);
        assert_eq!(e.written_local(), None);
    }

    fn summaries_of(src: &str, pure_fns: &[&str]) -> Vec<(String, Summary)> {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        let set: HashSet<String> = pure_fns.iter().map(|s| s.to_string()).collect();
        let prog = Program::with_pure_set(&r.unit, &set);
        let out = prog.resolved().summaries();
        out.map(|(name, s)| (name.to_string(), s)).collect()
    }

    fn summary(all: &[(String, Summary)], name: &str) -> (Class, Cost) {
        let (_, s) = all.iter().find(|(n, _)| n == name).expect(name);
        (s.class, s.cost)
    }

    #[test]
    fn mutual_recursion_stays_const_and_is_heavy() {
        let all = summaries_of(
            "pure int is_odd(int n);
pure int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
pure int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
pure int leaf(int n) { return n + 1; }
pure int wrap(int n) { return is_even(n) + leaf(n); }
int main() { return wrap(4); }",
            &["is_even", "is_odd", "leaf", "wrap"],
        );
        assert_eq!(summary(&all, "is_even"), (Class::Const, Cost::Heavy));
        assert_eq!(summary(&all, "is_odd"), (Class::Const, Cost::Heavy));
        assert_eq!(summary(&all, "leaf"), (Class::Const, Cost::Leaf));
        // Heavy by inheritance.
        assert_eq!(summary(&all, "wrap"), (Class::Const, Cost::Heavy));
        assert_eq!(summary(&all, "main"), (Class::Impure, Cost::Heavy));
    }

    #[test]
    fn a_caller_of_an_impure_callee_falls_to_pure() {
        let all = summaries_of(
            "int tick;
int bump() { tick++; return tick; }
int f(int x) { return x + bump(); }
int g(int x) { return f(x) + 1; }
int main() { return g(1); }",
            &["f", "g"],
        );
        assert_eq!(summary(&all, "bump"), (Class::Impure, Cost::Leaf));
        assert_eq!(summary(&all, "f"), (Class::Pure, Cost::Leaf));
        // …and so does every caller above it.
        assert_eq!(summary(&all, "g"), (Class::Pure, Cost::Leaf));
    }

    #[test]
    fn a_region_or_an_array_in_the_body_falls_to_pure() {
        let all = summaries_of(
            "pure int region(int n) {
    int acc = 0;
#pragma omp parallel for
    for (int i = 0; i < n; i++) acc = i;
    return acc;
}
pure int array(int n) { int a[4]; a[0] = n; return a[0]; }
pure int scalar(int n) { int a = n; return a; }
int main() { return region(2) + array(1) + scalar(1); }",
            &["region", "array", "scalar"],
        );
        assert_eq!(summary(&all, "region"), (Class::Pure, Cost::Heavy));
        assert_eq!(summary(&all, "array"), (Class::Pure, Cost::Leaf));
        assert_eq!(summary(&all, "scalar"), (Class::Const, Cost::Leaf));
    }

    /// malloc/free-owning pure functions stay pure-but-not-const.
    #[test]
    fn scratch_owning_function_is_pure_but_not_const() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scratch_pure.c");
        let src = std::fs::read_to_string(path).expect("examples/scratch_pure.c");
        let all = summaries_of(&src, &["work"]);
        assert_eq!(summary(&all, "work"), (Class::Pure, Cost::Heavy));
    }
}
