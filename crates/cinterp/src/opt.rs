//! Tier-3.5: the bytecode optimizer.
//!
//! Rewrites the flat `Vec<Insn>` arrays produced by [`crate::bytecode`]
//! between lowering and [`crate::vm`] execution. Three passes — the ones
//! whose removal changes the dispatch count of a benchmark workload —
//! and, last at level 2, one rule that moves the statement tick:
//!
//! * **Level ≥ 2, first — leaf-call inlining.** A `CallUser` whose callee
//!   is [`Cost::Leaf`] with a body of exactly one `return <expr>` becomes
//!   that expression in the caller's code, transitively over such callees
//!   up to [`MAX_INLINE_INSNS`] instructions a body (leaf ⇒ acyclic, so
//!   it terminates). In place of the call stands [`Op::InlineCall`], which
//!   *compensates* what the call did besides running the body: `calls +=
//!   1`, the call-depth check (asked `depth + enclosing inlined calls`,
//!   with the call's span — a leaf called at `--max-depth` still traps),
//!   and the binding of the arguments, coerced by the callee's
//!   parameters, into a run of fresh caller slots; it counts one
//!   `insns_fused`, the callee's `Ret`. The callee's `Step` comes along,
//!   so `steps` and the step-limit trap land where they did, and every
//!   instruction keeps its span, so an error inside the body is the
//!   callee's. Nothing is reordered: the pass needs shape, not purity.
//!   It runs first so that folding and fusion see through the former
//!   call (`LoadIdxLL, LoadIdxLL, CallUser(mult)` ends as two loads
//!   feeding one ticked multiply). Neither oracle engine inlines.
//! * **Level ≥ 1 — window constant folding, to a fixpoint.**
//!   Block-local `Const`/`ConstFold` chains feeding `Binary`, unary
//!   operators and `Coerce` collapse to one [`Op::ConstFold`] that
//!   *compensates* the executed-op counters the folded instructions
//!   would have bumped, so the counters stay bit-identical and fuel (one
//!   burn per dispatch) can only go down.
//! * **Level ≥ 2 — superinstruction fusion.** Adjacent instruction
//!   windows fuse into the `BinLL`/`BinLC`, `*Store`, `BrCmp*`,
//!   `LoadIdxLC`/`StoreIdxLC` and `RetLocal` superinstructions, each
//!   replicating the exact counted effects of its components and bumping
//!   `insns_fused` by the dispatches it saved.
//! * **Level ≥ 2, last — tick fusion.** `[Step, X]` becomes `X` with
//!   [`Insn::tick`] set whenever `X` is neither a block leader nor itself
//!   a `Step`: the VM runs the statement tick (same `steps` count, same
//!   compaction and memory-ceiling checks, the deleted `Step`'s span on
//!   the trap path) and then `X`, in one dispatch, and counts one
//!   `insns_fused` per fused tick executed. A `Step` in front of a leader
//!   (loop tops entered from two sides) or in front of another `Step` (a
//!   block's own tick before its first statement's) stays a dispatch.
//!
//! **Invariant:** on the same input, optimized bytecode produces the
//! same exit code, output, error message — call-depth, step-limit and
//! fuel traps included — and executed-op counters
//! (`flops`/`int_ops`/`loads`/`stores`/`calls`/`branches`) as the raw
//! bytecode — only the `insns_folded`/`insns_fused` bookkeeping (zeroed
//! by `CounterSnapshot::without_memo`) differs, and it balances: *raw
//! dispatches = optimized dispatches + folded + fused*. Folding never
//! folds an operation that could fail at runtime (`Div`/`Rem` by a zero
//! constant, bitwise on float), so error behaviour survives verbatim.
//! One quantity does move: an inlined callee's frame is part of its
//! caller's for the caller's whole life, so the *interpreter bytes* a
//! memory-ceiling trap reports can differ by those slots.

use crate::bytecode::{binop_decode, coerce_decode, BFunc, BInline, BytecodeProgram, Insn, Op};
use crate::effects::Cost;
use crate::ops::{self, Counted};
use crate::value::Scalar;
use cfront::ast::BinOp;

/// Iteration bound of the level-1 fixpoint (each round strictly shrinks
/// the code or changes no instruction, so this is a safety net).
const MAX_ROUNDS: usize = 8;

/// Longest body — callees already expanded into it — that is inlined at
/// a call site. `stencil_avg` of the heat application is 13 instructions;
/// past a few dozen the call's own cost (four dispatches and a frame) is
/// small against the body's and copying it per site only grows the code.
const MAX_INLINE_INSNS: usize = 48;

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Optimize a freshly-compiled program at `level` (0 = identity,
/// 1 = constant folding, 2 = leaf-call inlining first, then folding,
/// superinstruction and tick fusion).
pub(crate) fn optimize_program(prog: &BytecodeProgram, level: u8) -> BytecodeProgram {
    if level == 0 {
        return prog.clone();
    }
    let mut out = BytecodeProgram {
        funcs: if level >= 2 {
            inline_leaf_calls(&prog.funcs)
        } else {
            prog.funcs.clone()
        },
        by_name: prog.by_name.clone(),
        global_code: prog.global_code.clone(),
        nglobals: prog.nglobals,
        interner: prog.interner.clone(),
    };
    for f in out
        .funcs
        .iter_mut()
        .chain(std::iter::once(&mut out.global_code))
    {
        optimize_func(f, level);
        f.size_regions();
    }
    debug_assert!(
        check_targets(&out),
        "optimizer produced an out-of-bounds target"
    );
    out
}

/// Debug-build sanity: every jump target and region bound lands inside
/// its function and regions still point at `RegionEnd`.
fn check_targets(prog: &BytecodeProgram) -> bool {
    prog.funcs
        .iter()
        .chain(std::iter::once(&prog.global_code))
        .all(|f| {
            f.code.len() == f.spans.len()
                && f.code.iter().all(|i| {
                    jump_target(i).is_none_or(|t| t < f.code.len())
                        && (i.op != Op::InlineCall || (i.a as usize) < f.inlines.len())
                })
                && f.regions.iter().all(|r| {
                    (r.body_start as usize) < f.code.len()
                        && f.code[r.end as usize].op == Op::RegionEnd
                })
        })
}

fn optimize_func(f: &mut BFunc, level: u8) {
    for _ in 0..MAX_ROUNDS {
        if !fold_windows(f) {
            break;
        }
    }
    if level >= 2 {
        fuse_superinstructions(f);
        fuse_ticks(f);
    }
}

// ---------------------------------------------------------------------------
// CFG helpers
// ---------------------------------------------------------------------------

/// Absolute jump target carried by an instruction, if any.
pub(crate) fn jump_target(insn: &Insn) -> Option<usize> {
    match insn.op {
        Op::Jump | Op::JumpIfFalse | Op::JumpIfTrue | Op::SkipUnlessPtr => Some(insn.a as usize),
        Op::BrCmpLL | Op::BrCmpLC => Some((insn.b >> 6) as usize),
        Op::AffineHead | Op::AffineNext => Some((insn.b >> 2) as usize),
        _ => None,
    }
}

fn set_jump_target(insn: &mut Insn, t: usize) {
    match insn.op {
        Op::Jump | Op::JumpIfFalse | Op::JumpIfTrue | Op::SkipUnlessPtr => insn.a = t as u32,
        Op::BrCmpLL | Op::BrCmpLC => insn.b = (insn.b & 0x3F) | ((t as u32) << 6),
        Op::AffineHead | Op::AffineNext => insn.b = (insn.b & 0x3) | ((t as u32) << 2),
        _ => unreachable!("not a jump"),
    }
}

/// Does this instruction end its basic block? (Conditional jumps end a
/// block too — they have a fall-through successor.)
fn ends_block(op: Op) -> bool {
    matches!(
        op,
        Op::Jump
            | Op::JumpIfFalse
            | Op::JumpIfTrue
            | Op::SkipUnlessPtr
            | Op::BrCmpLL
            | Op::BrCmpLC
            | Op::Ret
            | Op::RetLocal
            | Op::Err
            | Op::MemberUnknownErr
            | Op::RegionEnd
            | Op::OmpRegion
            | Op::AffineHead
            | Op::AffineNext
    )
}

/// Basic-block leaders: entry, every jump target, every instruction
/// after a block-ender, and region body entries (entered by workers,
/// not by a jump).
fn leaders(f: &BFunc) -> Vec<bool> {
    let n = f.code.len();
    let mut lead = vec![false; n];
    if n == 0 {
        return lead;
    }
    lead[0] = true;
    for (pc, insn) in f.code.iter().enumerate() {
        if let Some(t) = jump_target(insn) {
            lead[t] = true;
        }
        if ends_block(insn.op) && pc + 1 < n {
            lead[pc + 1] = true;
        }
    }
    for r in &f.regions {
        lead[r.body_start as usize] = true;
        lead[r.end as usize] = true;
        if (r.end as usize) + 1 < n {
            lead[r.end as usize + 1] = true;
        }
    }
    lead
}

/// Remove every instruction whose `keep` flag is false, remapping jump
/// targets, region descriptors, spans and tick spans. A dropped index
/// maps to the next kept instruction (sound: passes only drop
/// instructions whose effect, on every path reaching them, is nothing or
/// is carried by that next instruction). Returns whether anything moved.
fn compact(f: &mut BFunc, keep: &[bool]) -> bool {
    let n = f.code.len();
    if keep.iter().all(|&k| k) {
        return false;
    }
    // map[old] = new index of the first kept instruction at-or-after old.
    let mut map = vec![0u32; n + 1];
    let mut new_len = 0u32;
    for i in 0..n {
        map[i] = new_len;
        if keep[i] {
            new_len += 1;
        }
    }
    map[n] = new_len;
    let mut code = Vec::with_capacity(new_len as usize);
    let mut spans = Vec::with_capacity(new_len as usize);
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if keep[i] {
            let mut insn = f.code[i];
            if let Some(t) = jump_target(&insn) {
                set_jump_target(&mut insn, map[t] as usize);
            }
            code.push(insn);
            spans.push(f.spans[i]);
        }
    }
    for r in &mut f.regions {
        debug_assert!(keep[r.end as usize]);
        r.body_start = map[r.body_start as usize];
        r.end = map[r.end as usize];
    }
    for (pc, _) in &mut f.tick_spans {
        debug_assert!(keep[*pc as usize]);
        *pc = map[*pc as usize];
    }
    f.code = code;
    f.spans = spans;
    true
}

// ---------------------------------------------------------------------------
// Pass: leaf-call inlining
// ---------------------------------------------------------------------------

/// What moving an instruction out of its function — into another frame,
/// another constant pool, another place in the code — has to rewrite.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reloc {
    /// Nothing: operands are immediates, global or program-wide indices.
    Plain,
    /// `a` indexes the constant pool.
    Const,
    /// `a` is a frame slot.
    Slot,
    /// `a` packs two frame slots.
    SlotPair,
    /// `a` packs a frame slot and a constant index.
    SlotConst,
    /// An absolute jump target ([`jump_target`]).
    Jump,
    /// `a` indexes the inline table.
    Inline,
    /// Not movable: a call that would stay a call (its depth check counts
    /// real frames), a return, side tables the pass does not merge
    /// (strings, messages, regions, spawns), and everything only a later
    /// pass emits.
    Fixed,
}

#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn reloc_of(op: Op) -> Reloc {
    match op {
        Op::Step
        | Op::LoadGlobal
        | Op::StoreGlobal
        | Op::StoreGlobalPop
        | Op::Dup
        | Op::Pop
        | Op::PushUninit
        | Op::UnaryNeg
        | Op::UnaryNot
        | Op::UnaryBitNot
        | Op::DerefLoad
        | Op::Binary
        | Op::PtrIndex
        | Op::PtrDeref
        | Op::PtrMember
        | Op::LoadMem
        | Op::StoreMem
        | Op::LoadIdxConst
        | Op::StoreIdxConst
        | Op::CompoundGlobal
        | Op::CompoundMem
        | Op::IncDecGlobal
        | Op::IncDecMem
        | Op::Coerce
        | Op::BumpBranch
        | Op::Truthy
        | Op::CallBuiltin => Reloc::Plain,
        Op::Const => Reloc::Const,
        Op::LoadLocal
        | Op::StoreLocal
        | Op::StoreLocalPop
        | Op::CompoundLocal
        | Op::IncDecLocal => Reloc::Slot,
        Op::BinLL | Op::LoadIdxLL | Op::StoreIdxLL | Op::CompoundIdxLL => Reloc::SlotPair,
        Op::BinLC => Reloc::SlotConst,
        Op::Jump | Op::JumpIfFalse | Op::JumpIfTrue | Op::SkipUnlessPtr => Reloc::Jump,
        Op::InlineCall => Reloc::Inline,
        Op::CallUser
        | Op::Ret
        | Op::StrNew
        | Op::Printf
        | Op::AllocArray
        | Op::AllocStruct
        | Op::OmpRegion
        | Op::SpawnPure
        | Op::AwaitSlot
        | Op::RegionEnd
        | Op::Err
        | Op::MemberUnknownErr
        | Op::ConstFold
        | Op::ConstStore
        | Op::BinLLStore
        | Op::BinLCStore
        | Op::LoadIdxLLStore
        | Op::LoadIdxLC
        | Op::StoreIdxLC
        | Op::BrCmpLL
        | Op::BrCmpLC
        | Op::RetLocal
        | Op::AffineHead
        | Op::AffineNext => Reloc::Fixed,
    }
}

/// The part of an (expanded) function that a call site receives in place
/// of the call: the `Step` of its one `return` and the expression, up to
/// but without the `Ret`. `None` when the function is not inlined: not a
/// leaf, not one `return`, too long, or holding an instruction that
/// cannot move — a leaf callee that stayed a call included.
fn inline_body(f: &BFunc) -> Option<&[Insn]> {
    if f.summary.cost != Cost::Leaf || !f.one_return {
        return None;
    }
    // `Step <expr> Ret`, then the fall-off-the-end `Const 0; Ret`.
    let body = &f.code[..f.code.len().checked_sub(3)?];
    (f.code[body.len()].op == Op::Ret
        && body.len() <= MAX_INLINE_INSNS
        && body.iter().all(|i| reloc_of(i.op) != Reloc::Fixed))
    .then_some(body)
}

/// Replace every call of a leaf whose body is one `return <expr>` by that
/// body, transitively: [`Op::InlineCall`] (the call's count, depth check
/// and argument binding), then the callee's code on a run of fresh
/// caller slots. Nothing is reordered — arguments are evaluated where
/// they were, the callee's `Step` ticks where it did, every instruction
/// keeps its span — so the pass asks for shape, not purity.
fn inline_leaf_calls(raw: &[BFunc]) -> Vec<BFunc> {
    let mut done: Vec<Option<BFunc>> = vec![None; raw.len()];
    for fid in 0..raw.len() {
        expand(raw, &mut done, fid);
    }
    done.into_iter()
        .map(|f| f.expect("expand() fills in every function it is called on"))
        .collect()
}

/// Expand function `fid`, its inlinable callees first. Those are leaves,
/// and a leaf calls only leaves, none of them on a cycle: the recursion
/// is over an acyclic graph.
fn expand(raw: &[BFunc], done: &mut [Option<BFunc>], fid: usize) {
    if done[fid].is_some() {
        return;
    }
    for insn in &raw[fid].code {
        let callee = insn.a as usize;
        if insn.op == Op::CallUser && raw[callee].summary.cost == Cost::Leaf {
            expand(raw, done, callee);
        }
    }
    done[fid] = Some(expand_calls(&raw[fid], done));
}

/// Copy `f`, replacing each call of an inlinable (already expanded)
/// callee by [`Op::InlineCall`] and the callee's body.
fn expand_calls(f: &BFunc, done: &[Option<BFunc>]) -> BFunc {
    // Every site's callee frame starts at the caller's first free slot:
    // two sites are live together only when one is nested in the other's
    // body, and then the inner one sits inside the callee's own (already
    // expanded) frame.
    let slot_base = f.frame_size;
    let mut out = BFunc {
        code: Vec::with_capacity(f.code.len()),
        spans: Vec::with_capacity(f.code.len()),
        ..f.clone()
    };
    // Where each of `f`'s instructions lands, and which of the new
    // instructions are `f`'s own (their jump targets go through `map`;
    // a spliced body's are placed as it is copied).
    let mut map = Vec::with_capacity(f.code.len() + 1);
    let mut own = Vec::with_capacity(f.code.len());
    for (pc, &insn) in f.code.iter().enumerate() {
        map.push(out.code.len() as u32);
        let site = (insn.op == Op::CallUser)
            .then(|| done[insn.a as usize].as_ref())
            .flatten()
            .and_then(|callee| Some((callee, inline_body(callee)?)))
            // The packed operand forms address 16-bit slots and constants.
            .filter(|(callee, _)| {
                slot_base + callee.frame_size <= 0x1_0000
                    && out.consts.len() + callee.consts.len() <= 0x1_0000
            });
        let Some((callee, body)) = site else {
            own.push(out.code.len());
            out.code.push(insn);
            out.spans.push(f.spans[pc]);
            continue;
        };
        out.frame_size = out.frame_size.max(slot_base + callee.frame_size);
        // The callee's own inlined calls come along, one level deeper.
        let inline_base = out.inlines.len() as u32;
        out.inlines.push(BInline {
            fid: insn.a,
            nargs: insn.b,
            slot_base: slot_base as u32,
            depth: 0,
        });
        out.inlines.extend(callee.inlines.iter().map(|ic| BInline {
            slot_base: ic.slot_base + slot_base as u32,
            depth: ic.depth + 1,
            ..*ic
        }));
        out.code.push(Insn::new(Op::InlineCall, inline_base, 0));
        out.spans.push(f.spans[pc]);
        let body_start = out.code.len() as u32;
        for (&insn, &span) in body.iter().zip(&callee.spans) {
            let mut insn = insn;
            let slot = |s: u32| s + slot_base as u32;
            let mut constant = |c: u32| {
                intern_const(&mut out, callee.consts[c as usize]).expect("pools hold numbers")
            };
            match reloc_of(insn.op) {
                Reloc::Plain => {}
                Reloc::Const => insn.a = constant(insn.a),
                Reloc::Slot => insn.a = slot(insn.a),
                Reloc::SlotPair => insn.a = slot(insn.a & 0xFFFF) | slot(insn.a >> 16) << 16,
                Reloc::SlotConst => insn.a = slot(insn.a & 0xFFFF) | constant(insn.a >> 16) << 16,
                Reloc::Jump => insn.a += body_start,
                Reloc::Inline => insn.a += inline_base + 1,
                Reloc::Fixed => unreachable!(
                    "inline_body admitted an instruction that cannot move: {:?}",
                    insn.op
                ),
            }
            out.code.push(insn);
            out.spans.push(span);
        }
    }
    map.push(out.code.len() as u32);
    for at in own {
        if let Some(t) = jump_target(&out.code[at]) {
            set_jump_target(&mut out.code[at], map[t] as usize);
        }
    }
    for r in &mut out.regions {
        r.body_start = map[r.body_start as usize];
        r.end = map[r.end as usize];
    }
    out
}

// ---------------------------------------------------------------------------
// Constant evaluation
// ---------------------------------------------------------------------------

/// `l <op> r` on two numeric constants, answered by [`ops::binop`] — the
/// table the VM's slow half calls — as the value and the counter
/// compensation; `None` when the operation must stay at runtime (a
/// non-numeric operand, or an error path: division by a zero constant,
/// bitwise on float).
fn eval_binop(op: BinOp, l: Scalar, r: Scalar) -> Option<(Scalar, Comp)> {
    let numeric = |s| matches!(s, Scalar::I(_) | Scalar::F(_));
    if !numeric(l) || !numeric(r) {
        return None;
    }
    let (out, counted) = ops::binop(op, l, r).ok()?;
    Some((out, Comp::of(counted)))
}

/// Find-or-append a constant in the pool, comparing by tagged bit
/// pattern (distinguishes `I` from `F`, `-0.0` from `0.0`, NaN-safe).
fn intern_const(f: &mut BFunc, v: Scalar) -> Option<u32> {
    fn key(s: Scalar) -> Option<(u8, u64)> {
        match s {
            Scalar::I(i) => Some((0, i as u64)),
            Scalar::F(x) => Some((1, x.to_bits())),
            _ => None,
        }
    }
    let k = key(v)?;
    if let Some(i) = f.consts.iter().position(|&c| key(c) == Some(k)) {
        return Some(i as u32);
    }
    f.consts.push(v);
    Some((f.consts.len() - 1) as u32)
}

/// `ConstFold` compensation: counters the folded instructions would
/// have bumped, plus the dispatches eliminated.
#[derive(Clone, Copy, Default)]
struct Comp {
    int_ops: u32,
    flops: u32,
    saved: u32,
}

impl Comp {
    /// The one executed-op count an [`ops`] result names.
    fn of(counted: Counted) -> Comp {
        Comp {
            int_ops: u32::from(counted == Counted::Int),
            flops: u32::from(counted == Counted::Float),
            saved: 0,
        }
    }

    fn encode(self) -> Option<u32> {
        if self.int_ops > 0xFF || self.flops > 0xFF || self.saved > 0xFFFF {
            return None;
        }
        Some(self.int_ops | (self.flops << 8) | (self.saved << 16))
    }

    fn decode(b: u32) -> Comp {
        Comp {
            int_ops: b & 0xFF,
            flops: (b >> 8) & 0xFF,
            saved: b >> 16,
        }
    }

    fn add(self, o: Comp) -> Comp {
        Comp {
            int_ops: self.int_ops + o.int_ops,
            flops: self.flops + o.flops,
            saved: self.saved + o.saved,
        }
    }
}

/// A `Const` or `ConstFold` instruction viewed as "push this known
/// constant, with this counter compensation".
fn const_like(f: &BFunc, insn: &Insn) -> Option<(Scalar, Comp)> {
    match insn.op {
        Op::Const => Some((f.consts[insn.a as usize], Comp::default())),
        Op::ConstFold => Some((f.consts[insn.a as usize], Comp::decode(insn.b))),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Pass: window constant folding
// ---------------------------------------------------------------------------

/// Fold constant windows inside basic blocks: `Const/ConstFold` chains
/// feeding `Binary`, unary operators and `Coerce` collapse to a single
/// `ConstFold` carrying the summed counter compensation. Window
/// followers must not be leaders (a jump could land mid-pattern and
/// observe the intermediate stack).
fn fold_windows(f: &mut BFunc) -> bool {
    let lead = leaders(f);
    let n = f.code.len();
    let mut keep = vec![true; n];
    let mut changed = false;
    let mut i = 0;
    while i < n {
        if !keep[i] {
            i += 1;
            continue;
        }
        // [const, const, Binary] -> ConstFold
        if i + 2 < n && !lead[i + 1] && !lead[i + 2] && f.code[i + 2].op == Op::Binary {
            if let (Some((lv, lc)), Some((rv, rc))) =
                (const_like(f, &f.code[i]), const_like(f, &f.code[i + 1]))
            {
                let op = binop_decode(f.code[i + 2].a);
                if let Some((out, oc)) = eval_binop(op, lv, rv) {
                    let comp = lc.add(rc).add(oc).add(Comp {
                        saved: 2,
                        ..Comp::default()
                    });
                    if let (Some(b), Some(cidx)) = (comp.encode(), intern_const(f, out)) {
                        f.code[i] = Insn::new(Op::ConstFold, cidx, b);
                        keep[i + 1] = false;
                        keep[i + 2] = false;
                        changed = true;
                        i += 3;
                        continue;
                    }
                }
            }
        }
        // [const, unary/Coerce] -> ConstFold
        if i + 1 < n && !lead[i + 1] {
            if let Some((v, c)) = const_like(f, &f.code[i]) {
                let next = f.code[i + 1];
                let folded: Option<(Scalar, Comp)> = match (next.op, v) {
                    (Op::UnaryNeg, Scalar::I(_) | Scalar::F(_)) => {
                        let (out, counted) = ops::neg(v);
                        Some((out, Comp::of(counted)))
                    }
                    (Op::UnaryNot, Scalar::I(x)) => {
                        Some((Scalar::I(i64::from(x == 0)), Comp::default()))
                    }
                    (Op::UnaryBitNot, Scalar::I(x)) => Some((Scalar::I(!x), Comp::default())),
                    (Op::Truthy, Scalar::I(x)) => {
                        Some((Scalar::I(i64::from(x != 0)), Comp::default()))
                    }
                    (Op::Truthy, Scalar::F(x)) => {
                        Some((Scalar::I(i64::from(x != 0.0)), Comp::default()))
                    }
                    (Op::Coerce, _) => Some((coerce_decode(next.a).apply(v), Comp::default())),
                    _ => None,
                };
                if let Some((out, oc)) = folded {
                    let comp = c.add(oc).add(Comp {
                        saved: 1,
                        ..Comp::default()
                    });
                    if let (Some(b), Some(cidx)) = (comp.encode(), intern_const(f, out)) {
                        f.code[i] = Insn::new(Op::ConstFold, cidx, b);
                        keep[i + 1] = false;
                        changed = true;
                        i += 2;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    // A ConstFold with an all-zero compensation is just a Const.
    for insn in &mut f.code {
        if insn.op == Op::ConstFold && insn.b == 0 {
            insn.op = Op::Const;
            changed = true;
        }
    }
    compact(f, &keep);
    changed
}

// ---------------------------------------------------------------------------
// Pass: superinstruction fusion
// ---------------------------------------------------------------------------

/// Fuse adjacent windows into superinstructions. Runs a few rounds so a
/// first-round product (`BinLL` formed from loads) can anchor a
/// second-round pattern (`BinLL` + branch → `BrCmpLL`). Windows never
/// cross block boundaries: every follower must not be a leader.
fn fuse_superinstructions(f: &mut BFunc) {
    for _ in 0..4 {
        if !fuse_round(f) {
            break;
        }
    }
}

fn fuse_round(f: &mut BFunc) -> bool {
    let lead = leaders(f);
    let n = f.code.len();
    let mut keep = vec![true; n];
    let mut changed = false;
    let mut i = 0;
    while i < n {
        if !keep[i] {
            i += 1;
            continue;
        }
        let cur = f.code[i];
        let follower = |k: usize| i + k < n && !lead[i + k];

        // [BumpBranch, BinLL/BinLC, JumpIf*] → BrCmp with the bump bit:
        // the for/while condition shape.
        if cur.op == Op::BumpBranch && follower(1) && follower(2) {
            let b1 = f.code[i + 1];
            let b2 = f.code[i + 2];
            if matches!(b1.op, Op::BinLL | Op::BinLC)
                && matches!(b2.op, Op::JumpIfFalse | Op::JumpIfTrue)
                && b1.b <= 0xF
                && (b2.a as usize) < (1 << 26)
            {
                let sense = (b2.op == Op::JumpIfTrue) as u32;
                let op = if b1.op == Op::BinLL {
                    Op::BrCmpLL
                } else {
                    Op::BrCmpLC
                };
                f.code[i] = Insn::new(op, b1.a, (b2.a << 6) | (1 << 5) | (sense << 4) | b1.b);
                keep[i + 1] = false;
                keep[i + 2] = false;
                changed = true;
                i += 3;
                continue;
            }
        }

        // [BinLL/BinLC, JumpIf*] → BrCmp; [BinLL/BinLC, StoreLocalPop] →
        // Bin*Store.
        if matches!(cur.op, Op::BinLL | Op::BinLC) && follower(1) {
            let b2 = f.code[i + 1];
            if matches!(b2.op, Op::JumpIfFalse | Op::JumpIfTrue)
                && cur.b <= 0xF
                && (b2.a as usize) < (1 << 26)
            {
                let sense = (b2.op == Op::JumpIfTrue) as u32;
                let op = if cur.op == Op::BinLL {
                    Op::BrCmpLL
                } else {
                    Op::BrCmpLC
                };
                f.code[i] = Insn::new(op, cur.a, (b2.a << 6) | (sense << 4) | cur.b);
                keep[i + 1] = false;
                changed = true;
                i += 2;
                continue;
            }
            if b2.op == Op::StoreLocalPop && b2.a < 0x1_0000 && cur.b <= 0xFF {
                let op = if cur.op == Op::BinLL {
                    Op::BinLLStore
                } else {
                    Op::BinLCStore
                };
                f.code[i] = Insn::new(op, cur.a, cur.b | (b2.a << 16));
                keep[i + 1] = false;
                changed = true;
                i += 2;
                continue;
            }
        }

        // [LoadLocal, Const, PtrIndex, LoadMem/StoreMem] → LoadIdxLC /
        // StoreIdxLC: the local-base/const-index element access.
        if cur.op == Op::LoadLocal && follower(1) && follower(2) && follower(3) {
            let c = f.code[i + 1];
            let px = f.code[i + 2];
            let m = f.code[i + 3];
            if c.op == Op::Const
                && px.op == Op::PtrIndex
                && cur.a < 0x1_0000
                && c.a < 0x1_0000
                && matches!(f.consts[c.a as usize], Scalar::I(_))
            {
                let fused = match m.op {
                    Op::LoadMem => Some((Op::LoadIdxLC, 0)),
                    Op::StoreMem => Some((Op::StoreIdxLC, m.b)),
                    _ => None,
                };
                if let Some((op, b)) = fused {
                    f.code[i] = Insn::new(op, cur.a | (c.a << 16), b);
                    keep[i + 1] = false;
                    keep[i + 2] = false;
                    keep[i + 3] = false;
                    changed = true;
                    i += 4;
                    continue;
                }
            }
        }

        // [LoadLocal, LoadLocal/Const, Binary] → BinLL/BinLC;
        // [LoadLocal, Ret] → RetLocal.
        if cur.op == Op::LoadLocal && follower(1) {
            let b2 = f.code[i + 1];
            if b2.op == Op::LoadLocal
                && follower(2)
                && f.code[i + 2].op == Op::Binary
                && cur.a < 0x1_0000
                && b2.a < 0x1_0000
            {
                f.code[i] = Insn::new(Op::BinLL, cur.a | (b2.a << 16), f.code[i + 2].a);
                keep[i + 1] = false;
                keep[i + 2] = false;
                changed = true;
                i += 3;
                continue;
            }
            if b2.op == Op::Const
                && follower(2)
                && f.code[i + 2].op == Op::Binary
                && cur.a < 0x1_0000
                && b2.a < 0x1_0000
            {
                f.code[i] = Insn::new(Op::BinLC, cur.a | (b2.a << 16), f.code[i + 2].a);
                keep[i + 1] = false;
                keep[i + 2] = false;
                changed = true;
                i += 3;
                continue;
            }
            if b2.op == Op::Ret {
                f.code[i] = Insn::new(Op::RetLocal, cur.a, 0);
                keep[i + 1] = false;
                changed = true;
                i += 2;
                continue;
            }
        }

        // [Const, StoreLocalPop] → ConstStore (declaration inits).
        if cur.op == Op::Const && follower(1) && f.code[i + 1].op == Op::StoreLocalPop {
            f.code[i] = Insn::new(Op::ConstStore, cur.a, f.code[i + 1].a);
            keep[i + 1] = false;
            changed = true;
            i += 2;
            continue;
        }

        // [LoadIdxLL, StoreLocalPop] → LoadIdxLLStore (`x = a[i]`).
        if cur.op == Op::LoadIdxLL && follower(1) && f.code[i + 1].op == Op::StoreLocalPop {
            f.code[i] = Insn::new(Op::LoadIdxLLStore, cur.a, f.code[i + 1].a);
            keep[i + 1] = false;
            changed = true;
            i += 2;
            continue;
        }

        i += 1;
    }
    compact(f, &keep);
    changed
}

// ---------------------------------------------------------------------------
// Pass: tick fusion
// ---------------------------------------------------------------------------

/// `[Step, X] → X·tick`: delete the dispatch that does nothing but count
/// and let its tick ride on the next instruction. `X` must not be a
/// leader — another path would reach it without having passed the `Step`
/// and gain a tick — and must not be a `Step` (a tick carries one span).
/// Jump targets and region `body_start`s that pointed at the `Step` land
/// on `X` through [`compact`], so every path that ticked still ticks
/// exactly once. Runs once, after the last fusion round: no later window
/// may separate a ticked instruction from its place.
fn fuse_ticks(f: &mut BFunc) {
    let lead = leaders(f);
    let n = f.code.len();
    let mut keep = vec![true; n];
    for i in 0..n.saturating_sub(1) {
        if f.code[i].op == Op::Step && f.code[i + 1].op != Op::Step && !lead[i + 1] {
            keep[i] = false;
            f.code[i + 1].tick = true;
            f.tick_spans.push((i as u32 + 1, f.spans[i]));
        }
    }
    compact(f, &keep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{InterpOptions, Program};
    use cfront::parser::parse;

    fn program(src: &str) -> Program {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        Program::new(&r.unit)
    }

    fn opts(level: u8) -> InterpOptions {
        InterpOptions {
            opt_level: level,
            ..Default::default()
        }
    }

    fn insn_count(p: &BytecodeProgram) -> usize {
        p.funcs
            .iter()
            .chain(std::iter::once(&p.global_code))
            .map(|f| f.code.len())
            .sum()
    }

    fn count_op(p: &BytecodeProgram, op: Op) -> usize {
        p.funcs
            .iter()
            .chain(std::iter::once(&p.global_code))
            .flat_map(|f| f.code.iter())
            .filter(|i| i.op == op)
            .count()
    }

    /// Run `src` at levels 0/1/2 and assert the observables the optimizer
    /// must preserve: exit code, output and every executed-op counter.
    fn assert_equivalent(src: &str) -> Program {
        let prog = program(src);
        let raw = prog.run(opts(0)).expect("raw run");
        for level in [1u8, 2] {
            let o = prog.run(opts(level)).expect("optimized run");
            assert_eq!(o.exit_code, raw.exit_code, "exit @ level {level}");
            assert_eq!(o.output, raw.output, "output @ level {level}");
            assert_eq!(
                o.counters.without_memo(),
                raw.counters.without_memo(),
                "counters @ level {level}"
            );
        }
        prog
    }

    /// Smallest budget in `1..=hi` under which `completes` holds (it is
    /// monotone: a run that fits a budget fits every larger one).
    fn smallest_budget(hi: u64, completes: impl Fn(u64) -> bool) -> u64 {
        assert!(
            completes(hi),
            "program does not finish inside the search bound"
        );
        let (mut lo, mut hi) = (0u64, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if completes(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Smallest fuel budget at which the program completes (threads=1, so
    /// the trap point is exact: one unit per dispatched instruction).
    fn min_fuel(prog: &Program, level: u8) -> u64 {
        smallest_budget(1 << 22, |fuel| {
            prog.run(InterpOptions {
                fuel: Some(fuel),
                ..opts(level)
            })
            .is_ok()
        })
    }

    /// The statement ticks a run performs (threads = 1): the smallest
    /// `max_steps` it completes under.
    fn steps_of(prog: &Program, level: u8) -> u64 {
        smallest_budget(1 << 20, |max_steps| {
            prog.run(InterpOptions {
                max_steps,
                ..opts(level)
            })
            .is_ok()
        })
    }

    #[test]
    fn folding_shrinks_code_and_compensates_counters() {
        let src = "\
int main() {
    int a = 2 + 3 * 4;        // folded to 14 at compile time
    int b = (a + 1) - (10 / 2); // partially foldable
    float f = 1.5 * 2.0;      // float fold must compensate flops
    return a + b + (int)f;
}
";
        let prog = assert_equivalent(src);
        let raw = prog.bytecode_at(0);
        let opt = prog.bytecode_at(1);
        assert!(
            insn_count(&opt) < insn_count(&raw),
            "level 1 must shrink: {} -> {}",
            insn_count(&raw),
            insn_count(&opt)
        );
        assert!(count_op(&opt, Op::ConstFold) > 0, "expected ConstFold");
        let r = prog.run(opts(1)).expect("runs");
        assert!(r.counters.insns_folded > 0, "{:?}", r.counters);
        assert_eq!(prog.run(opts(0)).unwrap().counters.insns_folded, 0);
    }

    #[test]
    fn level_one_shrinks_code_and_preserves_result() {
        let src = "\
int main() {
    int dead = 123;          // never read again after the overwrite
    dead = 456;              // also dead: overwritten before use
    dead = 7;
    int keep = dead + 1;
    return keep;
}
";
        let prog = assert_equivalent(src);
        assert!(insn_count(&prog.bytecode_at(1)) < insn_count(&prog.bytecode_at(0)));
        assert_eq!(prog.run(opts(2)).unwrap().exit_code, 8);
    }

    /// Loops whose header is not canonical (`i += 1`, a `while`) keep the
    /// literal lowering, whose compare-and-branch the optimizer fuses.
    #[test]
    fn fusion_emits_superinstructions() {
        let src = "\
int main() {
    int arr[64];
    int acc = 0;
    for (int i = 0; i < 64; i += 1) arr[i] = i * 3;
    int i = 0;
    while (i < 64) { acc = acc + arr[i]; i++; }
    return acc % 251;
}
";
        let prog = assert_equivalent(src);
        let opt = prog.bytecode_at(2);
        assert_eq!(count_op(&opt, Op::AffineNext), 0, "{}", opt.dump());
        assert_eq!(count_op(&opt, Op::BrCmpLC), 2, "{}", opt.dump());
        let fused = count_op(&opt, Op::BrCmpLC)
            + count_op(&opt, Op::BrCmpLL)
            + count_op(&opt, Op::BinLLStore)
            + count_op(&opt, Op::BinLCStore)
            + count_op(&opt, Op::ConstStore)
            + count_op(&opt, Op::LoadIdxLLStore)
            + count_op(&opt, Op::RetLocal);
        assert!(fused > 0, "no superinstructions in:\n{}", opt.dump());
        let r = prog.run(opts(2)).expect("runs");
        assert!(r.counters.insns_fused > 0, "{:?}", r.counters);
    }

    #[test]
    fn optimized_fuel_never_exceeds_raw() {
        let src = "\
int main() {
    int acc = 0;
    for (int i = 0; i < 200; i++) acc += i * 2 + 1;
    return acc % 251;
}
";
        let prog = program(src);
        let f0 = min_fuel(&prog, 0);
        let f1 = min_fuel(&prog, 1);
        let f2 = min_fuel(&prog, 2);
        assert!(f1 <= f0, "level 1 must not burn more fuel: {f1} vs {f0}");
        assert!(f2 <= f0, "level 2 must not burn more fuel: {f2} vs {f0}");
        assert!(f2 < f1, "fusion should save dispatches: {f2} vs {f1}");
    }

    #[test]
    fn runtime_errors_survive_verbatim() {
        let src = "\
int main() {
    int d = 0;
    for (int i = 0; i < 5; i++) d = i - 1;
    return 10 / (d - 2);   // d == 3 at exit -> 10 / 1
}
";
        // A genuinely trapping program: runtime divide by zero.
        let trap_src = "\
int main() {
    int z = 7;
    for (int i = 0; i < 7; i++) z = z - 1;
    return 100 / z;
}
";
        assert_equivalent(src);
        let prog = program(trap_src);
        let e0 = prog.run(opts(0)).expect_err("raw traps");
        for level in [1u8, 2] {
            let e = prog.run(opts(level)).expect_err("optimized traps");
            assert_eq!(e.message, e0.message, "level {level}");
            assert_eq!(e.span, e0.span, "level {level}");
        }
    }

    #[test]
    fn constant_division_by_zero_is_not_folded() {
        let src = "int main() { int kaboom = 1 / 0; return kaboom; }";
        let prog = program(src);
        let e0 = prog.run(opts(0)).expect_err("raw traps");
        let e2 = prog.run(opts(2)).expect_err("optimized traps");
        assert_eq!(e0.message, e2.message);
        assert_eq!(e0.span, e2.span);
    }

    #[test]
    fn optimizer_preserves_parallel_regions_and_output() {
        let src = "\
int data[256];
int main() {
    #pragma omp parallel for
    for (int i = 0; i < 256; i++) data[i] = i * i % 17;
    int acc = 0;
    for (int i = 0; i < 256; i++) acc += data[i];
    printf(\"acc=%d\\n\", acc);
    return acc % 251;
}
";
        let prog = program(src);
        for threads in [1usize, 4] {
            let raw = prog
                .run(InterpOptions { threads, ..opts(0) })
                .expect("raw runs");
            for level in [1u8, 2] {
                let o = prog
                    .run(InterpOptions {
                        threads,
                        ..opts(level)
                    })
                    .expect("optimized runs");
                assert_eq!(
                    o.exit_code, raw.exit_code,
                    "threads {threads} level {level}"
                );
                assert_eq!(o.output, raw.output, "threads {threads} level {level}");
                assert_eq!(
                    o.counters.without_memo(),
                    raw.counters.without_memo(),
                    "threads {threads} level {level}"
                );
            }
        }
    }

    // -- tick fusion ---------------------------------------------------------

    fn main_of(p: &BytecodeProgram) -> &BFunc {
        &p.funcs[p.by_name["main"] as usize]
    }

    /// Every ticked instruction has exactly one tick span and vice versa.
    fn assert_tick_table_matches(f: &BFunc) {
        let ticked: Vec<u32> = (0..f.code.len() as u32)
            .filter(|&pc| f.code[pc as usize].tick)
            .collect();
        let table: Vec<u32> = f.tick_spans.iter().map(|&(pc, _)| pc).collect();
        assert_eq!(ticked, table, "{}", f.name);
    }

    #[test]
    fn an_instruction_stays_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Insn>(), 12);
    }

    #[test]
    fn level_two_moves_the_tick_onto_the_statement() {
        let prog = assert_equivalent(
            "int main() { int a = 1; int b = 2; a = a + b; b = b ^ a; return a + b; }",
        );
        let raw = prog.bytecode_at(0);
        assert_eq!(count_op(&raw, Op::Step), 5);
        assert!(raw.funcs.iter().all(|f| f.code.iter().all(|i| !i.tick)));
        // Level 1 folds constants and leaves every `Step` a dispatch.
        assert_eq!(count_op(&prog.bytecode_at(1), Op::Step), 5);
        let opt = prog.bytecode_at(2);
        assert_eq!(count_op(&opt, Op::Step), 0, "{}", opt.dump());
        let main = main_of(&opt);
        assert_eq!(main.code.iter().filter(|i| i.tick).count(), 5);
        assert_tick_table_matches(main);
        assert_eq!(steps_of(&prog, 2), steps_of(&prog, 0));
        // The books balance: what level 2 no longer dispatches, it counts.
        let r = prog.run(opts(2)).expect("runs");
        assert_eq!(
            min_fuel(&prog, 0) - min_fuel(&prog, 2),
            r.counters.insns_folded + r.counters.insns_fused
        );
    }

    /// `if … else …; next`: the jump over the else branch targets the
    /// `Step` of `next`. After fusion it lands on the ticked instruction,
    /// so the taken and the fall-through path both tick `next` once.
    #[test]
    fn a_jump_to_a_fused_step_lands_on_the_ticked_instruction() {
        let src = "\
int main() {
    int x = 0;
    int y = 0;
    for (int i = 0; i < 10; i++) {
        if (i & 1) x = x + i; else x = x - 1;
        y = y + x;
    }
    return (x + y) & 255;
}
";
        let prog = assert_equivalent(src);
        let opt = prog.bytecode_at(2);
        let main = main_of(&opt);
        assert_tick_table_matches(main);
        let over_else = main
            .code
            .iter()
            .filter(|i| i.op == Op::Jump)
            .map(|i| i.a as usize)
            .find(|&t| main.code[t].op == Op::BinLLStore)
            .unwrap_or_else(|| panic!("no jump onto `y = y + x`:\n{}", opt.dump()));
        assert!(main.code[over_else].tick, "{}", opt.dump());
        assert_ne!(main.code[over_else - 1].op, Op::Step, "{}", opt.dump());
        assert_eq!(steps_of(&prog, 2), steps_of(&prog, 0));
    }

    #[test]
    fn a_region_body_that_began_with_a_step_begins_with_the_ticked_instruction() {
        let src = "\
int main() {
    int* a = (int*) malloc(32 * sizeof(int));
#pragma omp parallel for
    for (int i = 0; i < 32; i++) a[i] = i * 3;
    int acc = 0;
    for (int i = 0; i < 32; i++) acc += a[i];
    return acc & 255;
}
";
        let prog = program(src);
        let raw = prog.bytecode_at(0);
        let raw_main = main_of(&raw);
        let body = raw_main.regions[0].body_start as usize;
        assert_eq!(raw_main.code[body].op, Op::Step);
        let opt = prog.bytecode_at(2);
        let main = main_of(&opt);
        let body = main.regions[0].body_start as usize;
        assert!(main.code[body].tick, "{}", opt.dump());
        assert_ne!(main.code[body].op, Op::Step);
        assert_tick_table_matches(main);
        for threads in [1usize, 4] {
            let at = |level| InterpOptions {
                threads,
                ..opts(level)
            };
            let r0 = prog.run(at(0)).expect("raw runs");
            let r2 = prog.run(at(2)).expect("optimized runs");
            assert_eq!(r2.exit_code, r0.exit_code, "threads {threads}");
            assert_eq!(r2.counters.without_memo(), r0.counters.without_memo());
        }
        // Each iteration is one tick on a fresh counter: a cap of zero
        // traps in the body on both, with the body statement's span.
        let trap = |level| {
            prog.run(InterpOptions {
                max_steps: 0,
                ..opts(level)
            })
            .expect_err("no statement may run")
        };
        assert_eq!(trap(2).message, trap(0).message);
        assert_eq!(trap(2).span, trap(0).span);
    }

    /// A block's own tick and its first statement's are two `Step`s in a
    /// row: the second rides on the statement, the first stays a
    /// dispatch. A `Step` in front of a leader (the top of a `while`,
    /// entered from above and from the back edge) stays too — fusing it
    /// would tick every iteration.
    #[test]
    fn a_step_before_a_step_or_a_leader_stays() {
        let src = "\
int main() {
    int x = 0;
    { x = x + 1; }
    while (x < 9) x = x + 2;
    return x;
}
";
        let prog = assert_equivalent(src);
        let opt = prog.bytecode_at(2);
        let main = main_of(&opt);
        assert_tick_table_matches(main);
        let steps: Vec<usize> = (0..main.code.len())
            .filter(|&pc| main.code[pc].op == Op::Step)
            .collect();
        assert_eq!(steps.len(), 2, "{}", opt.dump());
        // The block's: followed by its first statement, now ticked.
        let block = steps[0];
        assert!(main.code[block + 1].tick && main.code[block + 1].op == Op::BinLCStore);
        // The while statement's: followed by the un-ticked loop top that
        // the back edge jumps to.
        let top = steps[1] + 1;
        assert!(!main.code[top].tick, "{}", opt.dump());
        assert!(main
            .code
            .iter()
            .any(|i| i.op == Op::Jump && i.a as usize == top));
        assert_eq!(steps_of(&prog, 2), steps_of(&prog, 0));
    }

    /// The step limit and the memory ceiling fire at the same statement,
    /// with the same message **and span**, whether the tick is a `Step`
    /// dispatch or rides on the statement's first instruction.
    #[test]
    fn a_fused_tick_traps_where_the_step_did() {
        let src = "\
int main() {
    int a = 1;
    int b = 2;
    for (int i = 0; i < 50; i++) {
        a = a + b;
        b = b ^ a;
    }
    return a & 255;
}
";
        let prog = program(src);
        let total = steps_of(&prog, 0);
        assert_eq!(steps_of(&prog, 2), total);
        for k in 0..total {
            let trap = |level| {
                prog.run(InterpOptions {
                    max_steps: k,
                    ..opts(level)
                })
                .expect_err("below the step count")
            };
            let (e0, e2) = (trap(0), trap(2));
            assert_eq!(e2.message, e0.message, "max_steps {k}");
            assert_eq!(e2.span, e0.span, "max_steps {k}");
        }
        // An array the heap admits and a frame that tips the total over
        // the cap: the statement after the allocation traps.
        let mem_src = "\
int main() {
    int* p = (int*) malloc(100 * sizeof(int));
    int x = 1;
    x = x + 1;
    return x;
}
";
        let prog = program(mem_src);
        let trap = |level| {
            prog.run(InterpOptions {
                max_memory_bytes: Some(808),
                ..opts(level)
            })
            .expect_err("frame + heap exceed the cap")
        };
        let (e0, e2) = (trap(0), trap(2));
        assert_eq!(e0.trap, Some(crate::interp::Trap::MemoryLimit));
        assert!(e0.message.contains("interpreter bytes"), "{}", e0.message);
        assert_eq!(e2.message, e0.message);
        assert_eq!(e2.span, e0.span);
        assert_eq!(e2.trap, e0.trap);
    }

    // -- leaf-call inlining --------------------------------------------------

    fn func<'a>(p: &'a BytecodeProgram, name: &str) -> &'a BFunc {
        &p.funcs[p.by_name[name] as usize]
    }

    fn ops_of(f: &BFunc, op: Op) -> usize {
        f.code.iter().filter(|i| i.op == op).count()
    }

    /// The same trap — message, span, kind — from the raw bytecode, the
    /// optimized bytecode and the resolved engine.
    fn assert_same_trap(prog: &Program, o: InterpOptions) -> crate::interp::RuntimeError {
        let at = |level| InterpOptions {
            opt_level: level,
            ..o
        };
        let e0 = prog.run(at(0)).expect_err("raw traps");
        let e2 = prog.run(at(2)).expect_err("optimized traps");
        let er = prog.run_resolved(o).expect_err("resolved traps");
        for e in [&e2, &er] {
            assert_eq!(e.message, e0.message);
            assert_eq!(e.span, e0.span);
            assert_eq!(e.trap, e0.trap);
        }
        e0
    }

    /// The paper's inner loop: `res += mult(a[i], b[i])`. The call becomes
    /// `InlineCall` plus the callee's ticked multiply; the counters, the
    /// step count and the books come out as the call left them.
    #[test]
    fn the_papers_leaf_call_is_its_body() {
        let src = "\
float mult(float a, float b) { return a * b; }
float dot(float* a, float* b, int n) {
    float res = 0.0f;
    for (int i = 0; i < n; i++) res += mult(a[i], b[i]);
    return res;
}
int main() {
    float* a = (float*) malloc(16 * sizeof(float));
    float* b = (float*) malloc(16 * sizeof(float));
    for (int i = 0; i < 16; i++) { a[i] = i; b[i] = 16 - i; }
    return (int) dot(a, b, 16) % 251;
}
";
        let prog = assert_equivalent(src);
        let raw = prog.bytecode_at(0);
        assert_eq!(ops_of(func(&raw, "dot"), Op::CallUser), 1);
        assert!(raw.funcs.iter().all(|f| f.inlines.is_empty()));
        // Level 1 folds; only level 2 inlines.
        assert_eq!(ops_of(func(&prog.bytecode_at(1), "dot"), Op::CallUser), 1);
        let opt = prog.bytecode_at(2);
        let dot = func(&opt, "dot");
        assert_eq!(ops_of(dot, Op::CallUser), 0, "{}", opt.dump());
        assert_eq!(ops_of(dot, Op::InlineCall), 1, "{}", opt.dump());
        assert_eq!(opt.inlined_functions(), vec!["mult"]);
        // The callee's frame is two fresh slots past the caller's own.
        let raw_frame = func(&raw, "dot").frame_size;
        assert_eq!(dot.frame_size, raw_frame + 2);
        assert_eq!(dot.inlines[0].slot_base as usize, raw_frame);
        // The callee's `Step` came along and rides on its multiply.
        let at = dot
            .code
            .iter()
            .position(|i| i.op == Op::InlineCall)
            .unwrap();
        assert!(dot.code[at + 1].tick && dot.code[at + 1].op == Op::BinLL);
        assert_tick_table_matches(dot);
        assert_eq!(steps_of(&prog, 2), steps_of(&prog, 0));
        let r = prog.run(opts(2)).expect("runs");
        assert_eq!(
            min_fuel(&prog, 0) - min_fuel(&prog, 2),
            r.counters.insns_folded + r.counters.insns_fused
        );
    }

    /// Inlining is transitive over leaves, and the depth check of a call
    /// nested in an inlined body asks as if the enclosing calls were open
    /// frames: every `max_call_depth` traps (or not) on the same call.
    #[test]
    fn nested_leaves_inline_and_keep_their_depth() {
        let src = "\
int h(int x) { return x + 1; }
int g(int x) { return h(x) * 2; }
int f(int x, int y) { return g(x) + h(y); }
int main() { return f(3, 4); }
";
        let prog = assert_equivalent(src);
        let opt = prog.bytecode_at(2);
        let main = main_of(&opt);
        assert_eq!(ops_of(main, Op::CallUser), 0, "{}", opt.dump());
        let depths: Vec<(u32, u32)> = main.inlines.iter().map(|i| (i.fid, i.depth)).collect();
        let id = |name: &str| opt.by_name[name];
        assert_eq!(
            depths,
            vec![(id("f"), 0), (id("g"), 1), (id("h"), 2), (id("h"), 1)]
        );
        // `g`'s frame sits after `f`'s, `h`'s after `g`'s; the second `h`
        // reuses the slot the first `g` has left.
        let bases: Vec<u32> = main.inlines.iter().map(|i| i.slot_base).collect();
        assert_eq!(bases, vec![0, 2, 3, 2]);
        assert_eq!(main.frame_size, 4);
        assert_eq!(prog.run(opts(2)).unwrap().exit_code, 13);
        // main is depth 0; f needs 1 open frame, g 2, h 3.
        for cap in 1..=3 {
            let e = assert_same_trap(
                &prog,
                InterpOptions {
                    max_call_depth: Some(cap),
                    ..Default::default()
                },
            );
            assert_eq!(e.trap, Some(crate::interp::Trap::DepthLimit), "cap {cap}");
        }
        let o = InterpOptions {
            max_call_depth: Some(4),
            ..Default::default()
        };
        assert_eq!(prog.run(o).unwrap().exit_code, 13);
    }

    /// What is not one `return` of a leaf stays a call — and so does a
    /// leaf that calls one, because a real call inside an inlined body
    /// would run one frame shallower than it did.
    #[test]
    fn only_the_one_return_leaf_shape_is_inlined() {
        let src = "\
int two(int x) { int t = x * 2; return t + 1; }
int over_two(int x) { return two(x) + 1; }
int loops(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
int over_loops(int n) { return loops(n) + 1; }
int rec(int n) { return n <= 0 ? 0 : 1 + rec(n - 1); }
int big(int x) {
    return x+1+x+2+x+3+x+4+x+5+x+6+x+7+x+8+x+9+x+10+x+11+x+12+x+13+x+14+x+15+x+16+x+17;
}
int tern(int x) { return x > 2 ? x * 3 : -x; }
int main() { return two(1) + over_two(2) + over_loops(3) + rec(4) + big(5) + tern(6) + tern(1); }
";
        let prog = assert_equivalent(src);
        let opt = prog.bytecode_at(2);
        assert_eq!(opt.inlined_functions(), vec!["tern"], "{}", opt.dump());
        assert!(func(&opt, "big").code.len() - 3 > MAX_INLINE_INSNS);
        // The ternary's jumps moved with it: both arms land past the body.
        assert_eq!(ops_of(main_of(&opt), Op::CallUser), 5, "{}", opt.dump());
    }

    /// An error inside an inlined body is the callee's, at the callee's
    /// span; the statement tick of its `return` traps with that span too.
    #[test]
    fn an_inlined_body_fails_where_the_callee_did() {
        let src = "\
int ratio(int a, int b) { return a / b; }
int main() {
    int s = 0;
    for (int i = 3; i >= 0; i--) s += ratio(12, i);
    return s;
}
";
        let prog = program(src);
        assert_eq!(prog.bytecode_at(2).inlined_functions(), vec!["ratio"]);
        let e = assert_same_trap(&prog, InterpOptions::default());
        assert_eq!(e.message, "integer division by zero");
        assert_eq!(&src[e.span.start as usize..e.span.end as usize], "a / b");
        let total = steps_of(&prog_without_trap(), 0);
        assert_eq!(steps_of(&prog_without_trap(), 2), total);
        for k in 0..total {
            assert_same_trap(
                &prog_without_trap(),
                InterpOptions {
                    max_steps: k,
                    ..Default::default()
                },
            );
        }
        fn prog_without_trap() -> Program {
            program(
                "int ratio(int a, int b) { return a / b; }\n\
                 int main() { int s = 0; for (int i = 3; i > 0; i--) s += ratio(12, i); return s; }",
            )
        }
    }

    /// Binding is the call's binding: arguments once and in order, the
    /// parameter coercions, `Uninit` for a missing argument, extra ones
    /// dropped, a parameter the body writes, the return coercion.
    #[test]
    fn inlined_arguments_bind_like_call_arguments() {
        let src = "\
int calls;
int g() { calls = calls + 1; return 10 * calls; }
int first(int a, int b) { return a; }
int pair(int a, int b) { return a * 100 + b; }
int lonely(int a, int b) { return a + 1; }
int bump(int x) { return x++ + x; }
float half(int x) { return x / 2; }
int t(float x) { return x * 2.5f; }
int seeded = 40;
int from_global = 2;
int main() {
    int i = 1;
    int p = pair(i++, g());
    int f = first(i++, g());
    printf(\"%d %d %d %d\\n\", p, f, i, calls);
    printf(\"%d %d\\n\", lonely(4), first(1, 2, 3));
    printf(\"%d %.2f %d\\n\", bump(5), half(7), t(1.5f));
    return seeded + from_global;
}
";
        let prog = assert_equivalent(src);
        let opt = prog.bytecode_at(2);
        assert_eq!(
            opt.inlined_functions(),
            vec!["first", "pair", "lonely", "bump", "half", "t"]
        );
        let r = prog.run(opts(2)).expect("runs");
        assert_eq!(r.output, "110 2 3 2\n5 1\n11 3.00 3\n");
        let resolved = prog.run_resolved(opts(2)).expect("runs");
        assert_eq!(resolved.output, r.output);
        assert_eq!(resolved.counters.without_memo(), r.counters.without_memo());
    }

    /// Global initialisers run on an empty frame: a leaf called from one
    /// stays a call.
    #[test]
    fn global_initialisers_keep_their_calls() {
        let src = "\
int sq(int x) { return x * x; }
int nine = sq(3);
int main() { return nine + sq(2); }
";
        let prog = assert_equivalent(src);
        let opt = prog.bytecode_at(2);
        assert_eq!(ops_of(&opt.global_code, Op::CallUser), 1);
        assert_eq!(ops_of(main_of(&opt), Op::InlineCall), 1);
        assert_eq!(prog.run(opts(2)).unwrap().exit_code, 13);
    }

    /// Inside a parallel region the callee's slots are part of the frame
    /// each iteration copies.
    #[test]
    fn inlined_calls_in_a_region_agree_across_threads_and_levels() {
        let src = "\
int mix(int a, int b) { return a * 31 + (b ^ 5); }
int main() {
    int* v = (int*) malloc(64 * sizeof(int));
#pragma omp parallel for
    for (int i = 0; i < 64; i++) v[i] = mix(i, mix(i + 1, 2));
    int acc = 0;
    for (int i = 0; i < 64; i++) acc += v[i] % 97;
    return acc % 251;
}
";
        let prog = program(src);
        assert_eq!(ops_of(main_of(&prog.bytecode_at(2)), Op::InlineCall), 2);
        let raw = prog.run(opts(0)).expect("raw runs");
        assert_eq!(raw.exit_code, 3070 % 251);
        for threads in [1usize, 4] {
            let o = prog
                .run(InterpOptions { threads, ..opts(2) })
                .expect("optimized runs");
            assert_eq!(o.exit_code, raw.exit_code, "threads {threads}");
            assert_eq!(o.counters.without_memo(), raw.counters.without_memo());
        }
    }

    #[test]
    fn pointer_and_struct_programs_survive_optimization() {
        assert_equivalent(
            "\
struct P { int x; int y; };
int main() {
    struct P p;
    p.x = 3; p.y = 4;
    int *q = &p.x;
    *q = *q + 10;
    int arr[8];
    for (int i = 0; i < 8; i++) arr[i] = p.x + i;
    int s = 0;
    for (int i = 0; i < 8; i++) s += arr[i];
    return (s + p.y) % 251;
}
",
        );
    }
}
