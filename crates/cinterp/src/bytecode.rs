//! Bytecode lowering: flattens the resolved IR ([`crate::resolve`]) into
//! contiguous instruction arrays for the stack VM ([`crate::vm`]).
//!
//! The resolved engine removed name lookup from the hot path but still
//! *walks trees*: every statement and expression dispatch chases a `Box`
//! pointer, carries a `Span`, and threads a `Result` through a deep Rust
//! call stack. This pass flattens each function **once** into a
//! `Vec<Insn>` — a fixed 12-byte instruction of one opcode, a statement
//! tick flag and two `u32` operands — so execution becomes a linear
//! fetch/dispatch loop:
//!
//! * **No recursion on the hot path** — control flow is absolute `u32`
//!   jump targets (`Jump`, `JumpIfFalse`, `JumpIfTrue`) instead of
//!   recursive `exec`/`eval` calls; only user-function calls and nested
//!   parallel regions recurse.
//! * **Indices instead of `Box` pointers** — literals, strings, error
//!   messages and parallel-region headers live in per-function side
//!   tables addressed by `u32` operand; the instruction stream is one
//!   contiguous allocation with ideal locality.
//! * **Side tables keep the cold data out of line** — a parallel `Span`
//!   array (`spans[pc]`) is consulted only when raising an error or
//!   ticking the step limit, so the hot loop never touches it.
//!
//! ## Semantics contract
//!
//! The compiled form preserves the resolved engine's observable behaviour
//! **exactly**: evaluation order (values before places, left before
//! right), executed-operation counter bumps (`flops`/`int_ops`/`loads`/
//! `stores`/`calls`/`branches` tick at the same operations), statement
//! step accounting (a `Step` instruction wherever `exec()` ticked), and
//! runtime error messages. The differential proptests assert bytecode ==
//! resolved == legacy on exit code, output and counters.
//!
//! `#pragma omp parallel for` regions compile to `[lb][ub][OmpRegion]
//! body… [RegionEnd]`: the parent evaluates the bounds inline, the
//! `OmpRegion` instruction hands the body range to the parallel runtime
//! (each worker re-enters the code at `body_start`), and the parent
//! resumes after `RegionEnd`. `break`/`continue`/`return` that would
//! escape a region body jump to its `RegionEnd` — the iteration ends,
//! mirroring the resolved engine discarding the child's control flow.

use crate::effects::Summary;
use crate::ops::Coerce;
use crate::resolve::{
    RDecl, RDeclKind, RExpr, RExprKind, ROmpFor, RPlace, RPlaceKind, RSpawn, RStmt, RStmtKind,
    ResolvedProgram, SlotRef,
};
use crate::value::Scalar;
use cfront::ast::{BinOp, UnOp};
use cfront::intern::Interner;
use cfront::span::Span;
use machine::OmpSchedule;
use std::collections::HashMap;
use std::sync::Arc;

/// One VM instruction: opcode plus two `u32` operands. Jump targets are
/// absolute instruction indices; other operands index side tables
/// (constants, strings, regions, error messages) or carry immediates
/// (slots, arities, binop codes).
///
/// `tick` sits in padding the struct already had (the size stays 12
/// bytes): when set, the statement tick of a deleted [`Op::Step`] rides
/// on this instruction — the VM runs the tick, then the instruction, in
/// one dispatch. Only `crate::opt` sets it; the lowerer never does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Insn {
    pub(crate) op: Op,
    pub(crate) tick: bool,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

impl Insn {
    pub(crate) fn new(op: Op, a: u32, b: u32) -> Insn {
        Insn {
            op,
            tick: false,
            a,
            b,
        }
    }
}

/// Opcodes of the stack VM. Stack effects are noted as `pops → pushes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Op {
    /// Statement boundary: tick the step limit (span = owning statement).
    /// The raw lowering emits one per statement; at optimization level 2
    /// most of them are deleted and their tick rides on the following
    /// instruction ([`Insn::tick`]).
    Step,
    /// `0 → 1` push `consts[a]`.
    Const,
    /// `0 → 1` allocate string `strings[a]` (one char per slot + NUL,
    /// counted stores), push its pointer.
    StrNew,
    /// `0 → 1` push frame slot `a`.
    LoadLocal,
    /// `0 → 1` push global `a`.
    LoadGlobal,
    /// `0 → 0` (peeks) store stack top into frame slot `a`, keep value.
    StoreLocal,
    /// `0 → 0` (peeks) store stack top into global `a`, keep value.
    StoreGlobal,
    /// `1 → 0` pop into frame slot `a` (declaration init).
    StoreLocalPop,
    /// `1 → 0` pop into global `a`.
    StoreGlobalPop,
    /// `1 → 2` duplicate the stack top.
    Dup,
    /// `1 → 0` discard the stack top.
    Pop,
    /// `0 → 1` push `Uninit`.
    PushUninit,
    /// `1 → 1` arithmetic negate (counted flop/int-op).
    UnaryNeg,
    /// `1 → 1` logical not.
    UnaryNot,
    /// `1 → 1` bitwise not.
    UnaryBitNot,
    /// `1 → 1` rvalue dereference: pop pointer, counted load.
    DerefLoad,
    /// `2 → 1` binary operator `binop_decode(a)` (counted flop/int-op).
    Binary,
    /// `0 → 1` fused `frame[a & 0xFFFF] <op b> frame[a >> 16]` — the
    /// hot local⊕local shape without operand-stack traffic.
    BinLL,
    /// `0 → 1` fused `frame[a & 0xFFFF] <op b> consts[a >> 16]`.
    BinLC,
    /// `0 → 1` fused array load `frame[a & 0xFFFF][frame[a >> 16]]`:
    /// base pointer and index straight from frame slots, one counted
    /// load — the hot `x = a[i]` shape of array-heavy loops without
    /// operand-stack traffic.
    LoadIdxLL,
    /// `1 → 1|0` fused array store `frame[a & 0xFFFF][frame[a >> 16]] =
    /// top`: one counted store; `b` = 1 pops the value (statement
    /// position), otherwise it stays as the expression result.
    StoreIdxLL,
    /// `1 → 1|0` fused compound array assign
    /// `frame[a & 0xFFFF][frame[a >> 16]] <op>= top`: pops the rhs, one
    /// counted load, binop `b & 0xFF`, one counted store — the hot
    /// `a[i] += x` shape with base and index in frame slots; `b & 0x100`
    /// suppresses the result push (statement position).
    CompoundIdxLL,
    /// `2 → 1` place `base[idx]`: pop idx then base, push element ptr.
    PtrIndex,
    /// `1 → 1` place `*p`: assert pointer.
    PtrDeref,
    /// `1 → 1` place `base.field`: pop base ptr, push `base + a`.
    PtrMember,
    /// `1 → 1` pop pointer, counted load from it.
    LoadMem,
    /// `2 → 1|0` pop ptr then value, counted store; pushes the value
    /// back unless `b` = 1 (statement position).
    StoreMem,
    /// `1 → 1` pop ptr, counted load from `ptr + a` (init-list descent).
    LoadIdxConst,
    /// `1 → 1|0` peek: fall through when the top is a pointer; otherwise
    /// pop it and jump to `a` (skips an init-list descent into a
    /// non-pointer row, mirroring the resolved engine's conditional
    /// recursion).
    SkipUnlessPtr,
    /// `2 → 0` pop value then ptr, counted store to `ptr + a`.
    StoreIdxConst,
    /// `1 → 1|0` compound assign to slot `a` with binop `b & 0xFF`;
    /// `b & 0x100` suppresses the result push (statement position).
    CompoundLocal,
    /// `1 → 1|0` compound assign to global `a` (flags as CompoundLocal).
    CompoundGlobal,
    /// `2 → 1|0` pop ptr then rhs: counted load, apply binop `a`,
    /// counted store; `b` = 1 suppresses the result push.
    CompoundMem,
    /// `0 → 1|0` `++`/`--` on slot `a`; `b` = [`incdec_flags`] mode
    /// (bit 2 suppresses the result push).
    IncDecLocal,
    /// `0 → 1|0` `++`/`--` on global `a`.
    IncDecGlobal,
    /// `1 → 1|0` `++`/`--` through popped pointer (counted load+store).
    IncDecMem,
    /// `1 → 1` value coercion: `a` = 0 → float, 1 → int.
    Coerce,
    /// `0 → 0` unconditional jump to `a`.
    Jump,
    /// `1 → 0` pop; jump to `a` when falsy.
    JumpIfFalse,
    /// `1 → 0` pop; jump to `a` when truthy.
    JumpIfTrue,
    /// `0 → 0` count one branch (`if`/loops/ternary/`&&`/`||`).
    BumpBranch,
    /// `1 → 1` collapse to `I(0)`/`I(1)` by truthiness.
    Truthy,
    /// `a_args → 1` call user function `a` with `b` args (counted call).
    CallUser,
    /// `a_args → 1` call builtin symbol `a` with `b` args (counted call).
    CallBuiltin,
    /// `b(+1) → 1` printf: `a` = captured format string index, or
    /// `u32::MAX` when the format pointer precedes the `b` args on the
    /// stack.
    Printf,
    /// `a → 1` pop `a` dimension sizes, allocate a (nested) array, push
    /// the spine pointer.
    AllocArray,
    /// `0 → 1` allocate a struct of `a` slots, push its pointer.
    AllocStruct,
    /// `2 → 0` parallel region `regions[a]`: pops ub then lb, runs the
    /// body range on the omprt runtime, resumes after its `RegionEnd`.
    OmpRegion,
    /// `nargs → 0` pure-call future `spawns[a]`: pops the pre-evaluated
    /// arguments and either submits the call to the worker pool (slot
    /// resolves at the matching `AwaitSlot`) or — with futures disabled,
    /// on a memo hit, or with the pool saturated — resolves the target
    /// slot immediately.
    SpawnPure,
    /// `0 → 0` force the future pending on frame slot `a` (no-op when
    /// the spawn already resolved inline); merges the worker's tally and
    /// memo shard, propagates its error.
    AwaitSlot,
    /// Terminator of a region body: ends the current iteration.
    RegionEnd,
    /// `1 → _` pop the return value and leave the function.
    Ret,
    /// Raise runtime error `errs[a]`.
    Err,
    /// `1 → _` pop struct base: "member access on non-struct" when not a
    /// pointer, else raise `errs[a]` (unknown/ambiguous field).
    MemberUnknownErr,

    // ---- Tier-3.5 opcodes, emitted only by `crate::opt` (never by the
    // lowerer). Each replicates the exact executed-op counter effects of
    // the instruction sequence it replaces, so the differential backbone
    // (optimized == raw == resolved == legacy modulo memo/futures/opt
    // bookkeeping) holds on counters, not just output.
    /// `0 → 1` push `consts[a]` in place of a folded constant
    /// expression. `b` compensates the executed-op counters the folded
    /// instructions would have bumped: `int_ops += b & 0xFF`,
    /// `flops += (b >> 8) & 0xFF`; `b >> 16` dispatches were eliminated
    /// (bumps `insns_folded`).
    ConstFold,
    /// `0 → 0` `frame[b] = consts[a]` (fused `Const` + `StoreLocalPop`).
    ConstStore,
    /// `0 → 0` `frame[b >> 16] = frame[a & 0xFFFF] <op b & 0xFF>
    /// frame[a >> 16]` (fused `BinLL` + `StoreLocalPop`).
    BinLLStore,
    /// `0 → 0` `frame[b >> 16] = frame[a & 0xFFFF] <op b & 0xFF>
    /// consts[a >> 16]` (fused `BinLC` + `StoreLocalPop`).
    BinLCStore,
    /// `0 → 0` `frame[b] = frame[a & 0xFFFF][frame[a >> 16]]` — fused
    /// `LoadIdxLL` + `StoreLocalPop`, one counted load.
    LoadIdxLLStore,
    /// `0 → 1` push `frame[a & 0xFFFF][consts[a >> 16]]` — the
    /// local-base/const-index load shape (`x = a[3]`), one counted load.
    LoadIdxLC,
    /// `1 → 1|0` `frame[a & 0xFFFF][consts[a >> 16]] = top`, one counted
    /// store; `b` = 1 pops the value (statement position).
    StoreIdxLC,
    /// `0 → 0` fused compare-and-branch over two frame slots:
    /// `cmp = frame[a & 0xFFFF] <op> frame[a >> 16]`, jump when the
    /// truthiness of `cmp` equals the sense bit. `b` = `target << 6 |
    /// bump << 5 | sense << 4 | binop`; `bump` replicates a fused
    /// leading `BumpBranch`.
    BrCmpLL,
    /// `0 → 0` as `BrCmpLL` with `consts[a >> 16]` as the rhs.
    BrCmpLC,
    /// `0 → _` return `frame[a]` (fused `LoadLocal` + `Ret`).
    RetLocal,
    /// `nargs → 0` entry of the inlined leaf call `inlines[a]`: what
    /// [`Op::CallUser`] does before the callee's first instruction —
    /// count the call, check the call depth (with the call's span), pop
    /// the arguments and bind them, coerced by the callee's parameters,
    /// into the callee's frame — except that the frame is a run of this
    /// function's own slots and the callee's body follows in this code.
    /// Counts one `insns_fused`: the callee's `Ret`, which the inlined
    /// body no longer dispatches.
    InlineCall,
    /// `0 → 0` affine loop entry check (once per loop): step tick, branch
    /// count, then `frame[a & 0xFFFF] <lt|le> ub`; jumps to the loop exit
    /// at `b >> 2` when false. `ub` is `frame[a >> 16]`, or
    /// `consts[a >> 16]` when `b & 2`; `b & 1` selects `<=` over `<`.
    /// Emitted by the lowerer for every `for` whose header has the shape
    /// `FnCompiler::affine_header` accepts, whoever wrote the loop.
    AffineHead,
    /// `0 → 0` fused affine back-edge: increment `frame[a & 0xFFFF]`,
    /// step tick, branch count, re-check the bound; jumps back to the
    /// body at `b >> 2` while true (operands as `AffineHead`). One
    /// dispatch replaces the literal loop's per-iteration
    /// `IncDecLocal + Jump + Step + BrCmp` with identical counter
    /// effects in identical order.
    AffineNext,
}

/// Mode bits for the `IncDec*` opcodes.
pub(crate) fn incdec_flags(op: UnOp) -> u32 {
    let inc = matches!(op, UnOp::PreInc | UnOp::PostInc) as u32;
    let pre = matches!(op, UnOp::PreInc | UnOp::PreDec) as u32;
    inc | (pre << 1)
}

/// Binary operators in encode order (`And`/`Or` compile to jumps and
/// never appear in a `Binary` instruction).
const BINOPS: [BinOp; 16] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Lt,
    BinOp::Gt,
    BinOp::Le,
    BinOp::Ge,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::BitAnd,
    BinOp::BitXor,
    BinOp::BitOr,
];

pub(crate) fn binop_encode(op: BinOp) -> u32 {
    BINOPS
        .iter()
        .position(|&b| b == op)
        .expect("And/Or lower to jumps") as u32
}

#[inline]
pub(crate) fn binop_decode(code: u32) -> BinOp {
    BINOPS[code as usize]
}

/// The mode of an [`Op::Coerce`] from its `a` operand (as
/// `FnCompiler::emit_coerce` wrote it; `Coerce::None` emits nothing).
#[inline]
pub(crate) fn coerce_decode(a: u32) -> Coerce {
    if a == 0 {
        Coerce::ToFloat
    } else {
        Coerce::ToInt
    }
}

/// One `#pragma omp parallel for` region, pre-flattened. The parent
/// evaluates `lb`/`ub` inline before the `OmpRegion` instruction; workers
/// execute `[body_start, end)` once per iteration with the iteration
/// index in `iter_slot`.
///
/// `work` is what the VM's admission rule reads at launch: a region of
/// `n` iterations whose `n × work` is below [`crate::REGION_INLINE_WORK`]
/// runs on the caller (see `crate::region::launch`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BRegion {
    pub(crate) schedule: OmpSchedule,
    pub(crate) iter_slot: u32,
    pub(crate) ub_inclusive: bool,
    pub(crate) body_start: u32,
    /// Index of the region's `RegionEnd` instruction.
    pub(crate) end: u32,
    /// Static race verdict (Unknown when no analysis ran).
    pub(crate) verdict: cfront::ast::LoopVerdict,
    pub(crate) span: Span,
    /// The body statement's span: where the dynamic race check reports.
    pub(crate) body_span: Span,
    /// Dispatches one iteration of the body takes at most, `end −
    /// body_start`, when the body is straight-line: every jump in it is
    /// forward and it holds no `CallUser`, `OmpRegion`, `SpawnPure` or
    /// `AwaitSlot`. `None` (unbounded) otherwise — an inner loop, a user
    /// call or a nested region. Set by [`BFunc::size_regions`] wherever
    /// the region's final range is fixed.
    pub(crate) work: Option<u32>,
}

/// One pure-call spawn site, pre-flattened (operand table of
/// [`Op::SpawnPure`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BSpawn {
    pub(crate) fid: u32,
    /// Target frame slot of the assignment.
    pub(crate) slot: u32,
    pub(crate) nargs: u32,
    /// Result coercion of the original declaration/assignment.
    pub(crate) coerce: Coerce,
}

/// One inlined leaf call (operand table of [`Op::InlineCall`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BInline {
    pub(crate) fid: u32,
    pub(crate) nargs: u32,
    /// Where the callee's frame sits in the caller's: callee slot `s` is
    /// caller slot `slot_base + s`.
    pub(crate) slot_base: u32,
    /// Inlined calls open around this one. The callee of a real call
    /// runs one level deeper than its caller; the depth check of a call
    /// nested in an inlined body has to ask as if that were still so.
    pub(crate) depth: u32,
}

/// One function flattened to bytecode.
#[derive(Clone)]
pub(crate) struct BFunc {
    pub(crate) name: String,
    pub(crate) params: Vec<(u32, Coerce)>,
    pub(crate) frame_size: usize,
    pub(crate) code: Vec<Insn>,
    /// Source span per instruction (errors and step-limit only).
    pub(crate) spans: Vec<Span>,
    /// `(pc, span)` of every ticked instruction, sorted by `pc`: the span
    /// of the `Step` whose tick it carries. Read only when that tick
    /// traps (step limit, memory ceiling).
    pub(crate) tick_spans: Vec<(u32, Span)>,
    pub(crate) consts: Vec<Scalar>,
    pub(crate) strings: Vec<Arc<str>>,
    pub(crate) regions: Vec<BRegion>,
    pub(crate) spawns: Vec<BSpawn>,
    /// Filled by `crate::opt` only; the lowerer inlines nothing.
    pub(crate) inlines: Vec<BInline>,
    pub(crate) errs: Vec<String>,
    pub(crate) summary: Summary,
    /// The body is exactly one `return` statement — with
    /// [`crate::effects::Cost::Leaf`], the shape a call is inlined on.
    pub(crate) one_return: bool,
}

impl BFunc {
    /// Span of the `Step` whose tick instruction `pc` carries (trap path
    /// only; `pc` must be a ticked instruction).
    #[cold]
    pub(crate) fn tick_span(&self, pc: usize) -> Span {
        let at = self
            .tick_spans
            .binary_search_by_key(&(pc as u32), |&(at, _)| at)
            .expect("ticked instruction has a tick span");
        self.tick_spans[at].1
    }

    /// Compute every region's [`BRegion::work`] from the code as it now
    /// stands: at the end of lowering, and again after the optimizer has
    /// relocated the code.
    pub(crate) fn size_regions(&mut self) {
        for r in &mut self.regions {
            let (start, end) = (r.body_start as usize, r.end as usize);
            let straight = self.code[start..end].iter().enumerate().all(|(k, insn)| {
                !matches!(
                    insn.op,
                    Op::CallUser | Op::OmpRegion | Op::SpawnPure | Op::AwaitSlot
                ) && crate::opt::jump_target(insn).is_none_or(|t| t > start + k)
            });
            r.work = straight.then_some(r.end - r.body_start);
        }
    }
}

/// A translation unit flattened for the VM (the third execution tier).
#[derive(Clone)]
pub struct BytecodeProgram {
    pub(crate) funcs: Vec<BFunc>,
    pub(crate) by_name: HashMap<String, u32>,
    /// Global initialisers as straight-line code (empty frame).
    pub(crate) global_code: BFunc,
    pub(crate) nglobals: usize,
    pub(crate) interner: Interner,
}

impl BytecodeProgram {
    /// Flatten a resolved program. Purity verdicts arrive here as the
    /// resolver's effect summaries — the pipeline's verified-pure set
    /// feeds bytecode lowering through [`crate::resolve::lower_unit`].
    pub fn compile(prog: &ResolvedProgram) -> BytecodeProgram {
        let funcs = prog
            .funcs
            .iter()
            .map(|f| {
                let mut c = FnCompiler::new(prog);
                for s in &f.body {
                    c.stmt(s);
                }
                // Falling off the end returns 0, like `Flow::Normal`.
                let zero = c.const_idx(Scalar::I(0));
                c.emit(Op::Const, zero, 0, f.span);
                c.emit(Op::Ret, 0, 0, f.span);
                let mut b = c.finish(
                    prog.interner.resolve(f.name).to_string(),
                    f.params.clone(),
                    f.frame_size,
                    f.summary,
                );
                b.one_return = matches!(
                    f.body.as_slice(),
                    [RStmt {
                        kind: RStmtKind::Return(_),
                        ..
                    }]
                );
                b
            })
            .collect();
        let mut g = FnCompiler::new(prog);
        for d in &prog.global_decls {
            g.decl(d);
        }
        let zero = g.const_idx(Scalar::I(0));
        g.emit(Op::Const, zero, 0, Span::DUMMY);
        g.emit(Op::Ret, 0, 0, Span::DUMMY);
        let global_code = g.finish("<globals>".to_string(), Vec::new(), 0, Summary::default());
        BytecodeProgram {
            funcs,
            by_name: prog.by_name.clone(),
            global_code,
            nglobals: prog.nglobals,
            interner: prog.interner.clone(),
        }
    }

    /// Total flattened instruction count (diagnostics / tests).
    pub fn insn_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum::<usize>() + self.global_code.code.len()
    }

    /// How many [`Op::InlineCall`] sites name each function, by id (all
    /// zero below optimization level 2).
    pub(crate) fn inline_sites(&self) -> Vec<usize> {
        let mut sites = vec![0; self.funcs.len()];
        for ic in self.funcs.iter().flat_map(|f| &f.inlines) {
            sites[ic.fid as usize] += 1;
        }
        sites
    }

    /// Names of the functions at least one call of which runs as its
    /// body in the caller's code, in definition order.
    pub fn inlined_functions(&self) -> Vec<&str> {
        let sites = self.inline_sites();
        let named = self.funcs.iter().zip(sites);
        named
            .filter_map(|(f, n)| (n > 0).then_some(f.name.as_str()))
            .collect()
    }

    /// Human-readable disassembly (the `purec --dump-bytecode` view). A
    /// function's header says what a call to it costs — `const` (its
    /// class), `memoized` (const ∧ heavy: the memo cache is probed),
    /// `inlined at N sites`. A `+t` before the opcode marks an
    /// instruction that carries a statement tick; the total line counts
    /// them.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let dump_func = |out: &mut String, f: &BFunc, sites: usize| {
            let mut header = format!("frame {}, {} insns", f.frame_size, f.code.len());
            if f.summary.is_const() {
                header.push_str(", const");
            }
            if f.summary.spawn_heavy() {
                header.push_str(", memoized");
            }
            if sites > 0 {
                let plural = if sites == 1 { "" } else { "s" };
                let _ = write!(header, ", inlined at {sites} site{plural}");
            }
            let _ = writeln!(out, "fn {} ({header})", f.name);
            for (pc, insn) in f.code.iter().enumerate() {
                let note = match insn.op {
                    Op::Const | Op::ConstFold => {
                        format!("  ; push {:?}", f.consts[insn.a as usize])
                    }
                    Op::ConstStore => {
                        format!("  ; frame[{}] = {:?}", insn.b, f.consts[insn.a as usize])
                    }
                    Op::BinLC | Op::BinLCStore | Op::BrCmpLC => {
                        format!("  ; rhs {:?}", f.consts[(insn.a >> 16) as usize])
                    }
                    Op::Binary => format!("  ; {:?}", binop_decode(insn.a)),
                    Op::BinLL | Op::BinLLStore => format!("  ; {:?}", binop_decode(insn.b & 0xFF)),
                    Op::BrCmpLL => format!("  ; {:?}", binop_decode(insn.b & 0xF)),
                    Op::AffineHead | Op::AffineNext if insn.b & 2 != 0 => {
                        format!("  ; ub {:?}", f.consts[(insn.a >> 16) as usize])
                    }
                    Op::InlineCall => {
                        let ic = f.inlines[insn.a as usize];
                        let callee = &self.funcs[ic.fid as usize];
                        format!(
                            "  ; {}({} args) in frame[{}..{}]",
                            callee.name,
                            ic.nargs,
                            ic.slot_base,
                            ic.slot_base as usize + callee.frame_size
                        )
                    }
                    _ => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  {pc:>4}: {} {:<16} {:>6} {:>10}{note}",
                    if insn.tick { "+t" } else { "  " },
                    format!("{:?}", insn.op),
                    insn.a,
                    insn.b
                );
            }
        };
        let mut out = String::new();
        dump_func(&mut out, &self.global_code, 0);
        for (f, sites) in self.funcs.iter().zip(self.inline_sites()) {
            dump_func(&mut out, f, sites);
        }
        let ticked = self
            .funcs
            .iter()
            .chain(std::iter::once(&self.global_code))
            .flat_map(|f| &f.code)
            .filter(|i| i.tick)
            .count();
        let _ = writeln!(
            out,
            "total {} insns, {ticked} ticked (+t: a statement tick rides on the instruction)",
            self.insn_count()
        );
        out
    }
}

struct LoopFrame {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

struct FnCompiler<'a> {
    prog: &'a ResolvedProgram,
    code: Vec<Insn>,
    spans: Vec<Span>,
    consts: Vec<Scalar>,
    const_map: HashMap<(u8, u64), u32>,
    strings: Vec<Arc<str>>,
    regions: Vec<BRegion>,
    spawns: Vec<BSpawn>,
    errs: Vec<String>,
    err_map: HashMap<String, u32>,
    loops: Vec<LoopFrame>,
    /// Patch lists of jumps that exit the innermost active parallel
    /// region body (break/continue with no enclosing loop in the body).
    region_exits: Vec<Vec<usize>>,
    /// One-shot: suppress the next statement's leading [`Op::Step`].
    /// Set when lowering a single-statement affine loop body — the
    /// back-edge [`Op::AffineNext`] already ticks once per iteration,
    /// so the body's own tick would be a redundant second dispatch.
    elide_step: bool,
}

impl<'a> FnCompiler<'a> {
    fn new(prog: &'a ResolvedProgram) -> Self {
        FnCompiler {
            prog,
            code: Vec::new(),
            spans: Vec::new(),
            consts: Vec::new(),
            const_map: HashMap::new(),
            strings: Vec::new(),
            regions: Vec::new(),
            spawns: Vec::new(),
            errs: Vec::new(),
            err_map: HashMap::new(),
            loops: Vec::new(),
            region_exits: Vec::new(),
            elide_step: false,
        }
    }

    fn finish(
        self,
        name: String,
        params: Vec<(u32, Coerce)>,
        frame_size: usize,
        summary: Summary,
    ) -> BFunc {
        debug_assert!(self.loops.is_empty() && self.region_exits.is_empty());
        let mut f = BFunc {
            name,
            params,
            frame_size,
            code: self.code,
            spans: self.spans,
            tick_spans: Vec::new(),
            consts: self.consts,
            strings: self.strings,
            regions: self.regions,
            spawns: self.spawns,
            inlines: Vec::new(),
            errs: self.errs,
            summary,
            one_return: false,
        };
        f.size_regions();
        f
    }

    fn emit(&mut self, op: Op, a: u32, b: u32, span: Span) -> usize {
        self.code.push(Insn::new(op, a, b));
        self.spans.push(span);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        self.code[at].a = target;
    }

    fn const_idx(&mut self, v: Scalar) -> u32 {
        let key = match v {
            Scalar::I(i) => (0u8, i as u64),
            Scalar::F(f) => (1u8, f.to_bits()),
            _ => unreachable!("only numeric literals enter the const pool"),
        };
        if let Some(&idx) = self.const_map.get(&key) {
            return idx;
        }
        let idx = self.consts.len() as u32;
        self.consts.push(v);
        self.const_map.insert(key, idx);
        idx
    }

    fn err_idx(&mut self, msg: impl Into<String>) -> u32 {
        let msg = msg.into();
        if let Some(&idx) = self.err_map.get(&msg) {
            return idx;
        }
        let idx = self.errs.len() as u32;
        self.errs.push(msg.clone());
        self.err_map.insert(msg, idx);
        idx
    }

    fn string_idx(&mut self, s: &Arc<str>) -> u32 {
        // Few strings per function: linear scan beats a map here.
        if let Some(i) = self.strings.iter().position(|x| Arc::ptr_eq(x, s)) {
            return i as u32;
        }
        let idx = self.strings.len() as u32;
        self.strings.push(Arc::clone(s));
        idx
    }

    /// Whether a `for` lowers to the fused [`Op::AffineHead`]/
    /// [`Op::AffineNext`] pair, decided by its header's shape alone:
    /// `i < ub` / `i <= ub` over a local iterator with a unit `++i`/`i++`
    /// step, `ub` a local or int literal, all operands fitting the 16-bit
    /// packing. The iterator's type and the body do not matter: the pair
    /// re-reads the iterator and the bound on every iteration and steps
    /// the iterator with the literal `++`'s own arithmetic. Returns
    /// `(iter_slot, ub_index, ub_is_const, inclusive)`; any other header
    /// gets the literal lowering.
    fn affine_header(
        &mut self,
        cond: &Option<RExpr>,
        step: &Option<RExpr>,
    ) -> Option<(u32, u32, bool, bool)> {
        let (Some(c), Some(st)) = (cond, step) else {
            return None;
        };
        let RExprKind::Binary(op, l, r) = &c.kind else {
            return None;
        };
        let le = match op {
            BinOp::Lt => false,
            BinOp::Le => true,
            _ => return None,
        };
        let RExprKind::Local(iter) = l.kind else {
            return None;
        };
        let RExprKind::IncDec(inc_op, place) = &st.kind else {
            return None;
        };
        if !matches!(inc_op, UnOp::PreInc | UnOp::PostInc) {
            return None;
        }
        let RPlaceKind::Local(slot) = place.kind else {
            return None;
        };
        if slot != iter {
            return None;
        }
        let (ub, is_const) = match r.kind {
            RExprKind::Local(u) => (u, false),
            RExprKind::Int(k) => (self.const_idx(Scalar::I(k)), true),
            _ => return None,
        };
        (iter < 0x10000 && ub < 0x10000).then_some((iter, ub, is_const, le))
    }

    /// Emit a canonical affine loop as `AffineHead … body … AffineNext`:
    /// the head checks the bound once on entry, the single back-edge
    /// instruction owns increment + step tick + branch + re-check.
    fn affine_for(
        &mut self,
        iter: u32,
        ub: u32,
        is_const: bool,
        le: bool,
        body: &RStmt,
        span: Span,
    ) {
        let flags = ((is_const as u32) << 1) | le as u32;
        let head = self.emit(Op::AffineHead, iter | (ub << 16), flags, span);
        let body_start = self.here();
        self.loops.push(LoopFrame {
            breaks: Vec::new(),
            continues: Vec::new(),
        });
        // A single-statement body keeps exactly one tick per iteration
        // (the back-edge's); block bodies keep their per-statement ticks
        // so the memory-ceiling cadence matches the literal lowering.
        if !matches!(body.kind, RStmtKind::Block(_)) {
            self.elide_step = true;
        }
        self.stmt(body);
        let cont = self.here();
        self.emit(
            Op::AffineNext,
            iter | (ub << 16),
            (body_start << 2) | flags,
            span,
        );
        let end = self.here();
        let frame = self.loops.pop().expect("loop frame");
        for at in frame.breaks {
            self.patch(at, end);
        }
        for at in frame.continues {
            self.patch(at, cont);
        }
        // The exit target lives in the upper bits of `b` (not `a`, which
        // packs the operands) — patched by hand once the end is known.
        self.code[head].b |= end << 2;
    }

    fn emit_err(&mut self, msg: impl Into<String>, span: Span) {
        let idx = self.err_idx(msg);
        self.emit(Op::Err, idx, 0, span);
    }

    fn unknown_var_msg(&self, sym: cfront::intern::Symbol) -> String {
        format!("unknown variable '{}'", self.prog.interner.resolve(sym))
    }

    // -- statements -----------------------------------------------------------

    fn stmt(&mut self, s: &RStmt) {
        let elide_step = std::mem::take(&mut self.elide_step);
        // Parallel regions bypass statement step accounting, exactly like
        // the resolved engine's `exec` short-circuit.
        if let RStmtKind::OmpFor(of) = &s.kind {
            self.omp_for(of);
            return;
        }
        // Await join points are synthetic: no step tick (mirrors the
        // resolved engine skipping `step()` for them).
        if let RStmtKind::AwaitSlots(slots) = &s.kind {
            for &slot in slots {
                self.emit(Op::AwaitSlot, slot, 0, s.span);
            }
            return;
        }
        if !elide_step {
            self.emit(Op::Step, 0, 0, s.span);
        }
        match &s.kind {
            RStmtKind::Decl(decls) => {
                for d in decls {
                    self.decl(d);
                }
            }
            RStmtKind::Expr(Some(e)) => self.stmt_expr(e),
            RStmtKind::Expr(None) | RStmtKind::Nop => {}
            RStmtKind::Block(stmts) => {
                for st in stmts {
                    self.stmt(st);
                }
            }
            RStmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.emit(Op::BumpBranch, 0, 0, s.span);
                self.expr(cond);
                let jf = self.emit(Op::JumpIfFalse, 0, 0, cond.span);
                self.stmt(then_branch);
                match else_branch {
                    Some(e) => {
                        let jend = self.emit(Op::Jump, 0, 0, s.span);
                        let here = self.here();
                        self.patch(jf, here);
                        self.stmt(e);
                        let here = self.here();
                        self.patch(jend, here);
                    }
                    None => {
                        let here = self.here();
                        self.patch(jf, here);
                    }
                }
            }
            RStmtKind::While { cond, body } => {
                let top = self.here();
                self.emit(Op::BumpBranch, 0, 0, s.span);
                self.expr(cond);
                let jf = self.emit(Op::JumpIfFalse, 0, 0, cond.span);
                self.loops.push(LoopFrame {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.stmt(body);
                self.emit(Op::Jump, top, 0, s.span);
                let end = self.here();
                let frame = self.loops.pop().expect("loop frame");
                for at in frame.breaks {
                    self.patch(at, end);
                }
                for at in frame.continues {
                    self.patch(at, top);
                }
                self.patch(jf, end);
            }
            RStmtKind::DoWhile { body, cond } => {
                let top = self.here();
                self.loops.push(LoopFrame {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.stmt(body);
                let check = self.here();
                self.emit(Op::BumpBranch, 0, 0, s.span);
                self.expr(cond);
                self.emit(Op::JumpIfTrue, top, 0, cond.span);
                let end = self.here();
                let frame = self.loops.pop().expect("loop frame");
                for at in frame.breaks {
                    self.patch(at, end);
                }
                for at in frame.continues {
                    self.patch(at, check);
                }
            }
            RStmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    match &i.kind {
                        RStmtKind::Decl(decls) => {
                            for d in decls {
                                self.decl(d);
                            }
                        }
                        RStmtKind::Expr(Some(e)) => self.stmt_expr(e),
                        _ => {}
                    }
                }
                if let Some((iter, ub, is_const, le)) = self.affine_header(cond, step) {
                    self.affine_for(iter, ub, is_const, le, body, s.span);
                    return;
                }
                let top = self.here();
                // Per-iteration step + branch tick (even with no cond),
                // mirroring the resolved engine's `For` loop body.
                self.emit(Op::Step, 0, 0, s.span);
                self.emit(Op::BumpBranch, 0, 0, s.span);
                let jf = cond.as_ref().map(|c| {
                    self.expr(c);
                    self.emit(Op::JumpIfFalse, 0, 0, c.span)
                });
                self.loops.push(LoopFrame {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.stmt(body);
                let cont = self.here();
                if let Some(st) = step {
                    self.stmt_expr(st);
                }
                self.emit(Op::Jump, top, 0, s.span);
                let end = self.here();
                let frame = self.loops.pop().expect("loop frame");
                for at in frame.breaks {
                    self.patch(at, end);
                }
                for at in frame.continues {
                    self.patch(at, cont);
                }
                if let Some(jf) = jf {
                    self.patch(jf, end);
                }
            }
            RStmtKind::Return(e) => {
                match e {
                    Some(e) => self.expr(e),
                    None => {
                        let zero = self.const_idx(Scalar::I(0));
                        self.emit(Op::Const, zero, 0, s.span);
                    }
                }
                self.emit(Op::Ret, 0, 0, s.span);
            }
            RStmtKind::Break | RStmtKind::Continue => {
                let is_break = matches!(s.kind, RStmtKind::Break);
                if let Some(frame) = self.loops.last_mut() {
                    let at = self.code.len();
                    self.code.push(Insn::new(Op::Jump, 0, 0));
                    self.spans.push(s.span);
                    if is_break {
                        frame.breaks.push(at);
                    } else {
                        frame.continues.push(at);
                    }
                } else if let Some(exits) = self.region_exits.last_mut() {
                    // Escaping a parallel iteration: the resolved engine
                    // ignores the child's Break/Continue flow — the
                    // iteration simply ends.
                    let at = self.code.len();
                    self.code.push(Insn::new(Op::Jump, 0, 0));
                    self.spans.push(s.span);
                    exits.push(at);
                } else {
                    self.emit_err("break/continue outside loop", s.span);
                }
            }
            RStmtKind::SpawnPure(sp) => self.spawn_pure(sp, s.span),
            RStmtKind::OmpFor(_) | RStmtKind::AwaitSlots(_) => {
                unreachable!("handled before Step")
            }
        }
    }

    /// Compile one spawn site: arguments are evaluated eagerly on the
    /// spawning thread (original program order), then `SpawnPure` pops
    /// them and dispatches.
    fn spawn_pure(&mut self, sp: &RSpawn, span: Span) {
        for a in &sp.args {
            self.expr(a);
        }
        let idx = self.spawns.len() as u32;
        self.spawns.push(BSpawn {
            fid: sp.fid,
            slot: sp.slot,
            nargs: sp.args.len() as u32,
            coerce: sp.coerce,
        });
        self.emit(Op::SpawnPure, idx, 0, span);
    }

    fn omp_for(&mut self, of: &ROmpFor) {
        let header = match &of.header {
            Ok(h) => h,
            Err(msg) => {
                self.emit_err(msg.clone(), of.span);
                return;
            }
        };
        self.expr(&header.lb);
        self.expr(&header.ub);
        // Reserve this region's descriptor slot *before* compiling the
        // body: a nested parallel region inside the body pushes its own
        // descriptor, and the outer OmpRegion operand must not alias it.
        let region_idx = self.regions.len() as u32;
        self.regions.push(BRegion {
            schedule: of.schedule,
            iter_slot: header.iter_slot,
            ub_inclusive: header.ub_inclusive,
            body_start: 0,
            end: 0,
            verdict: of.verdict,
            span: of.span,
            body_span: header.body.span,
            work: None,
        });
        let omp_at = self.emit(Op::OmpRegion, region_idx, 0, of.span);
        // The body compiles with a *fresh* loop context: a break inside
        // the region cannot target a loop outside it.
        let saved_loops = std::mem::take(&mut self.loops);
        self.region_exits.push(Vec::new());
        let body_start = self.here();
        self.stmt(&header.body);
        let end = self.emit(Op::RegionEnd, 0, 0, of.span) as u32;
        let exits = self.region_exits.pop().expect("region frame");
        for at in exits {
            self.patch(at, end);
        }
        self.loops = saved_loops;
        debug_assert_eq!(omp_at + 1, body_start as usize);
        let r = &mut self.regions[region_idx as usize];
        r.body_start = body_start;
        r.end = end;
    }

    /// Compile an expression whose value is discarded (expression
    /// statements, `for` init/step, comma left sides): assignments and
    /// `++`/`--` emit their store-only forms instead of push-then-pop.
    fn stmt_expr(&mut self, e: &RExpr) {
        match &e.kind {
            RExprKind::Assign { op, place, value } => {
                let fused = Self::fused_index(place);
                match (&place.kind, op) {
                    (RPlaceKind::Local(slot), None) => {
                        self.expr(value);
                        self.emit(Op::StoreLocalPop, *slot, 0, e.span);
                    }
                    (RPlaceKind::Global(idx), None) => {
                        self.expr(value);
                        self.emit(Op::StoreGlobalPop, *idx, 0, e.span);
                    }
                    (RPlaceKind::Local(slot), Some(b)) => {
                        self.expr(value);
                        self.emit(Op::CompoundLocal, *slot, binop_encode(*b) | 0x100, e.span);
                    }
                    (RPlaceKind::Global(idx), Some(b)) => {
                        self.expr(value);
                        self.emit(Op::CompoundGlobal, *idx, binop_encode(*b) | 0x100, e.span);
                    }
                    (RPlaceKind::Index(..), None) if fused.is_some() => {
                        self.expr(value);
                        self.emit(Op::StoreIdxLL, fused.expect("guard checked"), 1, e.span);
                    }
                    (RPlaceKind::Index(..), Some(b)) if fused.is_some() => {
                        self.expr(value);
                        self.emit(
                            Op::CompoundIdxLL,
                            fused.expect("guard checked"),
                            binop_encode(*b) | 0x100,
                            e.span,
                        );
                    }
                    (
                        RPlaceKind::Index(..) | RPlaceKind::Deref(_) | RPlaceKind::Member { .. },
                        _,
                    ) => {
                        self.expr(value);
                        self.place_ptr(place);
                        match op {
                            None => self.emit(Op::StoreMem, 0, 1, e.span),
                            Some(b) => self.emit(Op::CompoundMem, binop_encode(*b), 1, e.span),
                        };
                    }
                    _ => {
                        self.expr(e);
                        self.emit(Op::Pop, 0, 0, e.span);
                    }
                }
            }
            RExprKind::IncDec(op, place) => {
                let flags = incdec_flags(*op) | 4;
                match &place.kind {
                    RPlaceKind::Local(slot) => {
                        self.emit(Op::IncDecLocal, *slot, flags, e.span);
                    }
                    RPlaceKind::Global(idx) => {
                        self.emit(Op::IncDecGlobal, *idx, flags, e.span);
                    }
                    RPlaceKind::Index(..) | RPlaceKind::Deref(_) | RPlaceKind::Member { .. } => {
                        self.place_ptr(place);
                        self.emit(Op::IncDecMem, 0, flags, e.span);
                    }
                    _ => {
                        self.expr(e);
                        self.emit(Op::Pop, 0, 0, e.span);
                    }
                }
            }
            RExprKind::Comma(l, r) => {
                self.stmt_expr(l);
                self.stmt_expr(r);
            }
            _ => {
                self.expr(e);
                self.emit(Op::Pop, 0, 0, e.span);
            }
        }
    }

    // -- declarations ---------------------------------------------------------

    fn decl(&mut self, d: &RDecl) {
        let span = Span::DUMMY;
        match &d.kind {
            RDeclKind::Array { dims, init } => {
                for dim in dims {
                    self.expr(dim);
                }
                self.emit(Op::AllocArray, dims.len() as u32, 0, span);
                if let Some(init) = init {
                    if matches!(init.kind, RExprKind::InitList(_)) {
                        self.emit(Op::Dup, 0, 0, init.span);
                        self.fill_initlist(init);
                    }
                }
            }
            RDeclKind::Struct { size } => {
                self.emit(Op::AllocStruct, *size as u32, 0, span);
            }
            RDeclKind::Scalar { init, coerce } => match init {
                Some(e) => {
                    self.expr(e);
                    self.emit_coerce(*coerce, e.span);
                }
                None => {
                    self.emit(Op::PushUninit, 0, 0, span);
                }
            },
        }
        match d.target {
            SlotRef::Local(slot) => self.emit(Op::StoreLocalPop, slot, 0, span),
            SlotRef::Global(idx) => self.emit(Op::StoreGlobalPop, idx, 0, span),
        };
    }

    /// Fill an array from an initializer list. Expects the array pointer
    /// on the stack top and consumes it.
    fn fill_initlist(&mut self, init: &RExpr) {
        let RExprKind::InitList(elems) = &init.kind else {
            unreachable!("caller checked");
        };
        for (i, e) in elems.iter().enumerate() {
            self.emit(Op::Dup, 0, 0, e.span);
            if matches!(e.kind, RExprKind::InitList(_)) {
                // Descend into the row pointer (counted load, like the
                // resolved engine's fill); a non-pointer row skips the
                // nested list entirely, exactly like the resolved `if let`.
                self.emit(Op::LoadIdxConst, i as u32, 0, e.span);
                let guard = self.emit(Op::SkipUnlessPtr, 0, 0, e.span);
                self.fill_initlist(e);
                let here = self.here();
                self.patch(guard, here);
            } else {
                self.expr(e);
                self.emit(Op::StoreIdxConst, i as u32, 0, e.span);
            }
        }
        self.emit(Op::Pop, 0, 0, init.span);
    }

    /// `a[i]` with both the array and the index in frame slots — the
    /// fused load-index/store-index operand encoding, or `None` when the
    /// shape (or slot width) does not fit.
    fn fused_index(place: &RPlace) -> Option<u32> {
        let RPlaceKind::Index(base, idx) = &place.kind else {
            return None;
        };
        let (RExprKind::Local(b), RExprKind::Local(i)) = (&base.kind, &idx.kind) else {
            return None;
        };
        (*b < 0x1_0000 && *i < 0x1_0000).then_some(b | (i << 16))
    }

    fn emit_coerce(&mut self, c: Coerce, span: Span) {
        match c {
            Coerce::None => {}
            Coerce::ToFloat => {
                self.emit(Op::Coerce, 0, 0, span);
            }
            Coerce::ToInt => {
                self.emit(Op::Coerce, 1, 0, span);
            }
        }
    }

    // -- expressions ----------------------------------------------------------

    fn expr(&mut self, e: &RExpr) {
        match &e.kind {
            RExprKind::Int(v) => {
                let idx = self.const_idx(Scalar::I(*v));
                self.emit(Op::Const, idx, 0, e.span);
            }
            RExprKind::Float(v) => {
                let idx = self.const_idx(Scalar::F(*v));
                self.emit(Op::Const, idx, 0, e.span);
            }
            RExprKind::Str(s) => {
                let idx = self.string_idx(s);
                self.emit(Op::StrNew, idx, 0, e.span);
            }
            RExprKind::Local(slot) => {
                self.emit(Op::LoadLocal, *slot, 0, e.span);
            }
            RExprKind::Global(idx) => {
                self.emit(Op::LoadGlobal, *idx, 0, e.span);
            }
            RExprKind::Unknown(sym) => {
                let msg = self.unknown_var_msg(*sym);
                self.emit_err(msg, e.span);
            }
            RExprKind::Unary(op, inner) => {
                self.expr(inner);
                let insn = match op {
                    UnOp::Neg => Op::UnaryNeg,
                    UnOp::Not => Op::UnaryNot,
                    UnOp::BitNot => Op::UnaryBitNot,
                    UnOp::Deref => Op::DerefLoad,
                    _ => unreachable!("lowered to IncDec/AddrOf"),
                };
                self.emit(insn, 0, 0, e.span);
            }
            RExprKind::Binary(op, l, r) => match op {
                BinOp::And => {
                    self.emit(Op::BumpBranch, 0, 0, e.span);
                    self.expr(l);
                    let jf = self.emit(Op::JumpIfFalse, 0, 0, e.span);
                    self.expr(r);
                    self.emit(Op::Truthy, 0, 0, e.span);
                    let jend = self.emit(Op::Jump, 0, 0, e.span);
                    let here = self.here();
                    self.patch(jf, here);
                    let zero = self.const_idx(Scalar::I(0));
                    self.emit(Op::Const, zero, 0, e.span);
                    let here = self.here();
                    self.patch(jend, here);
                }
                BinOp::Or => {
                    self.emit(Op::BumpBranch, 0, 0, e.span);
                    self.expr(l);
                    let jt = self.emit(Op::JumpIfTrue, 0, 0, e.span);
                    self.expr(r);
                    self.emit(Op::Truthy, 0, 0, e.span);
                    let jend = self.emit(Op::Jump, 0, 0, e.span);
                    let here = self.here();
                    self.patch(jt, here);
                    let one = self.const_idx(Scalar::I(1));
                    self.emit(Op::Const, one, 0, e.span);
                    let here = self.here();
                    self.patch(jend, here);
                }
                _ => {
                    // Superinstruction fusion for the dispatch-dominant
                    // shapes: local⊕local and local⊕literal skip the
                    // operand stack entirely.
                    match (&l.kind, &r.kind) {
                        (RExprKind::Local(x), RExprKind::Local(y))
                            if *x < 0x1_0000 && *y < 0x1_0000 =>
                        {
                            self.emit(Op::BinLL, x | (y << 16), binop_encode(*op), e.span);
                        }
                        (RExprKind::Local(x), RExprKind::Int(v)) if *x < 0x1_0000 => {
                            let c = self.const_idx(Scalar::I(*v));
                            if c < 0x1_0000 {
                                self.emit(Op::BinLC, x | (c << 16), binop_encode(*op), e.span);
                            } else {
                                self.expr(l);
                                self.expr(r);
                                self.emit(Op::Binary, binop_encode(*op), 0, e.span);
                            }
                        }
                        (RExprKind::Local(x), RExprKind::Float(v)) if *x < 0x1_0000 => {
                            let c = self.const_idx(Scalar::F(*v));
                            if c < 0x1_0000 {
                                self.emit(Op::BinLC, x | (c << 16), binop_encode(*op), e.span);
                            } else {
                                self.expr(l);
                                self.expr(r);
                                self.emit(Op::Binary, binop_encode(*op), 0, e.span);
                            }
                        }
                        _ => {
                            self.expr(l);
                            self.expr(r);
                            self.emit(Op::Binary, binop_encode(*op), 0, e.span);
                        }
                    }
                }
            },
            RExprKind::Assign { op, place, value } => {
                // Value evaluates before the place (resolved order).
                self.expr(value);
                let fused = Self::fused_index(place);
                match (&place.kind, op) {
                    (RPlaceKind::Local(slot), None) => {
                        self.emit(Op::StoreLocal, *slot, 0, e.span);
                    }
                    (RPlaceKind::Local(slot), Some(b)) => {
                        self.emit(Op::CompoundLocal, *slot, binop_encode(*b), e.span);
                    }
                    (RPlaceKind::Global(idx), None) => {
                        self.emit(Op::StoreGlobal, *idx, 0, e.span);
                    }
                    (RPlaceKind::Global(idx), Some(b)) => {
                        self.emit(Op::CompoundGlobal, *idx, binop_encode(*b), e.span);
                    }
                    (RPlaceKind::Index(..), None) if fused.is_some() => {
                        self.emit(Op::StoreIdxLL, fused.expect("guard checked"), 0, e.span);
                    }
                    (RPlaceKind::Index(..), Some(b)) if fused.is_some() => {
                        self.emit(
                            Op::CompoundIdxLL,
                            fused.expect("guard checked"),
                            binop_encode(*b),
                            e.span,
                        );
                    }
                    (
                        RPlaceKind::Index(..) | RPlaceKind::Deref(_) | RPlaceKind::Member { .. },
                        _,
                    ) => {
                        self.place_ptr(place);
                        match op {
                            None => self.emit(Op::StoreMem, 0, 0, e.span),
                            Some(b) => self.emit(Op::CompoundMem, binop_encode(*b), 0, e.span),
                        };
                    }
                    (RPlaceKind::Unknown(sym), _) => {
                        let msg = self.unknown_var_msg(*sym);
                        self.emit_err(msg, place.span);
                    }
                    (RPlaceKind::MemberUnknown { base, name }, _) => {
                        self.member_unknown(base, *name, place.span);
                    }
                    (RPlaceKind::NotLvalue, _) => {
                        self.emit_err("expression is not an lvalue", place.span);
                    }
                }
            }
            RExprKind::IncDec(op, place) => {
                let flags = incdec_flags(*op);
                match &place.kind {
                    RPlaceKind::Local(slot) => {
                        self.emit(Op::IncDecLocal, *slot, flags, e.span);
                    }
                    RPlaceKind::Global(idx) => {
                        self.emit(Op::IncDecGlobal, *idx, flags, e.span);
                    }
                    RPlaceKind::Index(..) | RPlaceKind::Deref(_) | RPlaceKind::Member { .. } => {
                        self.place_ptr(place);
                        self.emit(Op::IncDecMem, 0, flags, e.span);
                    }
                    RPlaceKind::Unknown(sym) => {
                        let msg = self.unknown_var_msg(*sym);
                        self.emit_err(msg, place.span);
                    }
                    RPlaceKind::MemberUnknown { base, name } => {
                        self.member_unknown(base, *name, place.span);
                    }
                    RPlaceKind::NotLvalue => {
                        self.emit_err("expression is not an lvalue", place.span);
                    }
                }
            }
            RExprKind::AddrOf(place) => match &place.kind {
                // The element pointer *is* the address value.
                RPlaceKind::Index(..) | RPlaceKind::Deref(_) | RPlaceKind::Member { .. } => {
                    self.place_ptr(place);
                }
                RPlaceKind::Local(_) | RPlaceKind::Global(_) => {
                    self.emit_err("address-of is only supported for memory lvalues", e.span);
                }
                RPlaceKind::Unknown(sym) => {
                    let msg = self.unknown_var_msg(*sym);
                    self.emit_err(msg, place.span);
                }
                RPlaceKind::MemberUnknown { base, name } => {
                    self.member_unknown(base, *name, place.span);
                }
                RPlaceKind::NotLvalue => {
                    self.emit_err("expression is not an lvalue", place.span);
                }
            },
            RExprKind::Ternary(c, t, f) => {
                self.emit(Op::BumpBranch, 0, 0, e.span);
                self.expr(c);
                let jf = self.emit(Op::JumpIfFalse, 0, 0, c.span);
                self.expr(t);
                let jend = self.emit(Op::Jump, 0, 0, e.span);
                let here = self.here();
                self.patch(jf, here);
                self.expr(f);
                let here = self.here();
                self.patch(jend, here);
            }
            RExprKind::CallUser { fid, args } => {
                for a in args {
                    self.expr(a);
                }
                self.emit(Op::CallUser, *fid, args.len() as u32, e.span);
            }
            RExprKind::CallBuiltin { name, args } => {
                for a in args {
                    self.expr(a);
                }
                self.emit(Op::CallBuiltin, name.0, args.len() as u32, e.span);
            }
            RExprKind::Printf {
                fmt,
                fmt_expr,
                args,
            } => {
                let fmt_slot = match (fmt, fmt_expr) {
                    (Some(s), _) => self.string_idx(s),
                    (None, Some(first)) => {
                        // Runtime format: pointer evaluated before args.
                        self.expr(first);
                        u32::MAX
                    }
                    (None, None) => {
                        self.emit_err("printf without format", e.span);
                        return;
                    }
                };
                for a in args {
                    self.expr(a);
                }
                self.emit(Op::Printf, fmt_slot, args.len() as u32, e.span);
            }
            RExprKind::IndirectCall => {
                self.emit_err("indirect calls are unsupported", e.span);
            }
            RExprKind::Load(place) => {
                let fused = Self::fused_index(place);
                match &place.kind {
                    RPlaceKind::Local(slot) => {
                        self.emit(Op::LoadLocal, *slot, 0, e.span);
                    }
                    RPlaceKind::Global(idx) => {
                        self.emit(Op::LoadGlobal, *idx, 0, e.span);
                    }
                    RPlaceKind::Index(..) if fused.is_some() => {
                        self.emit(Op::LoadIdxLL, fused.expect("guard checked"), 0, e.span);
                    }
                    RPlaceKind::Index(..) | RPlaceKind::Deref(_) | RPlaceKind::Member { .. } => {
                        self.place_ptr(place);
                        self.emit(Op::LoadMem, 0, 0, e.span);
                    }
                    RPlaceKind::Unknown(sym) => {
                        let msg = self.unknown_var_msg(*sym);
                        self.emit_err(msg, place.span);
                    }
                    RPlaceKind::MemberUnknown { base, name } => {
                        self.member_unknown(base, *name, place.span);
                    }
                    RPlaceKind::NotLvalue => {
                        self.emit_err("expression is not an lvalue", place.span);
                    }
                }
            }
            RExprKind::Cast(c, inner) => {
                self.expr(inner);
                self.emit_coerce(*c, e.span);
            }
            RExprKind::InitList(_) => {
                // A bare initializer list is not evaluable (mirrors the
                // tree-walker's unknown-call diagnostic).
                self.emit_err("call to undefined function '__initlist'", e.span);
            }
            RExprKind::Comma(l, r) => {
                self.expr(l);
                self.emit(Op::Pop, 0, 0, e.span);
                self.expr(r);
            }
        }
    }

    /// Emit the address computation of a memory place, leaving the
    /// element pointer on the stack.
    fn place_ptr(&mut self, place: &RPlace) {
        match &place.kind {
            RPlaceKind::Index(base, idx) => {
                self.expr(base);
                self.expr(idx);
                self.emit(Op::PtrIndex, 0, 0, place.span);
            }
            RPlaceKind::Deref(inner) => {
                self.expr(inner);
                self.emit(Op::PtrDeref, 0, 0, place.span);
            }
            RPlaceKind::Member { base, offset } => {
                self.expr(base);
                self.emit(Op::PtrMember, *offset as u32, 0, place.span);
            }
            _ => unreachable!("caller matched a memory place"),
        }
    }

    /// Member access whose struct/field could not be resolved: evaluate
    /// the base (its side effects are observable), then raise.
    fn member_unknown(&mut self, base: &RExpr, name: cfront::intern::Symbol, span: Span) {
        self.expr(base);
        let msg = format!("unknown field '{}'", self.prog.interner.resolve(name));
        let idx = self.err_idx(msg);
        self.emit(Op::MemberUnknownErr, idx, 0, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::parser::parse;
    use std::collections::HashSet;

    fn bytecode(src: &str) -> BytecodeProgram {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        let resolved = crate::resolve::lower_unit(&r.unit, &HashSet::new(), &Default::default());
        BytecodeProgram::compile(&resolved)
    }

    #[test]
    fn flattens_functions_with_parallel_regions() {
        let b = bytecode(
            "int helper(int x) { return x * 2; }\n\
             int main() {\n\
                 int* a = (int*) malloc(8 * sizeof(int));\n\
             #pragma omp parallel for schedule(dynamic,2)\n\
                 for (int i = 0; i < 8; i++) a[i] = helper(i);\n\
                 return a[3];\n\
             }",
        );
        assert_eq!(b.funcs.len(), 2);
        let main = &b.funcs[b.by_name["main"] as usize];
        assert_eq!(main.regions.len(), 1);
        let r = &main.regions[0];
        assert!(matches!(r.schedule, OmpSchedule::Dynamic(2)));
        assert!(r.body_start < r.end);
        assert!(matches!(main.code[r.end as usize].op, Op::RegionEnd));
        assert!(matches!(
            main.code[r.body_start as usize - 1].op,
            Op::OmpRegion
        ));
        // Spans stay parallel to the code.
        for f in &b.funcs {
            assert_eq!(f.code.len(), f.spans.len());
        }
        assert!(b.insn_count() > 10);
    }

    #[test]
    fn jump_targets_are_in_bounds() {
        let b = bytecode(
            "int main() {\n\
                 int acc = 0;\n\
                 for (int i = 0; i < 10; i++) {\n\
                     if (i % 2 == 0) continue;\n\
                     if (i > 7) break;\n\
                     while (acc < 100) { acc += i; if (acc > 50) break; }\n\
                     do { acc--; } while (acc > 40 && i < 9);\n\
                 }\n\
                 return acc ? acc : 1;\n\
             }",
        );
        for f in &b.funcs {
            for (pc, insn) in f.code.iter().enumerate() {
                if matches!(insn.op, Op::Jump | Op::JumpIfFalse | Op::JumpIfTrue) {
                    assert!(
                        (insn.a as usize) < f.code.len(),
                        "{}@{pc}: jump to {} out of {}",
                        f.name,
                        insn.a,
                        f.code.len()
                    );
                }
            }
        }
    }

    /// Regression: the outer region's descriptor slot must be reserved
    /// before its body compiles — a nested region pushes its own
    /// descriptor first, and the outer `OmpRegion` operand must not
    /// alias it.
    #[test]
    fn nested_parallel_regions_keep_their_own_descriptors() {
        let src = "\
int main() {
    int* out = (int*) malloc(16 * sizeof(int));
#pragma omp parallel for
    for (int i = 0; i < 4; i++) {
        int* row = out + i * 4;
#pragma omp parallel for schedule(dynamic,1)
        for (int j = 0; j < 4; j++) row[j] = i * 10 + j;
    }
    int acc = 0;
    for (int k = 0; k < 16; k++) acc += out[k];
    return acc % 199;
}
";
        let b = bytecode(src);
        let main = &b.funcs[b.by_name["main"] as usize];
        assert_eq!(main.regions.len(), 2);
        let outer = &main.regions[0];
        let inner = &main.regions[1];
        // The inner region's code range nests strictly inside the outer's.
        assert!(outer.body_start < inner.body_start);
        assert!(inner.end < outer.end);
        assert!(matches!(inner.schedule, OmpSchedule::Dynamic(1)));
        assert!(matches!(outer.schedule, OmpSchedule::Static));

        // All three engines agree on the executed result.
        let r = cfront::parser::parse(src);
        let prog = crate::interp::Program::new(&r.unit);
        for threads in [1usize, 4] {
            let opts = crate::interp::InterpOptions {
                threads,
                ..Default::default()
            };
            let vm = prog.run(opts).expect("vm runs");
            let resolved = prog.run_resolved(opts).expect("resolved runs");
            let legacy = prog.run_legacy(opts).expect("legacy runs");
            assert_eq!(
                vm.exit_code,
                (0..16).map(|k| (k / 4) * 10 + k % 4).sum::<i64>() % 199
            );
            assert_eq!(vm.exit_code, resolved.exit_code, "threads={threads}");
            assert_eq!(vm.counters.without_memo(), resolved.counters.without_memo());
            assert_eq!(resolved.exit_code, legacy.exit_code);
        }
    }

    /// `a[i] += x` with base and index in frame slots fuses into one
    /// `CompoundIdxLL` (statement and value positions), and the engines
    /// agree on results and executed-op counters.
    #[test]
    fn compound_index_fuses_and_matches_oracles() {
        let src = "\
int main() {
    int* a = (int*) malloc(16 * sizeof(int));
    for (int i = 0; i < 16; i++) a[i] = i;
    int acc = 0;
    for (int i = 0; i < 16; i++) {
        a[i] += i * 3;
        a[i] -= 1;
        acc += (a[i] *= 2);
    }
    return acc % 251;
}
";
        let b = bytecode(src);
        let main = &b.funcs[b.by_name["main"] as usize];
        let fused = main
            .code
            .iter()
            .filter(|i| matches!(i.op, Op::CompoundIdxLL))
            .count();
        // `a[i] += i * 3`, `a[i] -= 1` (statement position) and
        // `(a[i] *= 2)` (value position) all fuse.
        assert_eq!(fused, 3);
        let value_position = main
            .code
            .iter()
            .filter(|i| matches!(i.op, Op::CompoundIdxLL) && i.b & 0x100 == 0)
            .count();
        assert_eq!(value_position, 1);

        let r = cfront::parser::parse(src);
        let prog = crate::interp::Program::new(&r.unit);
        let opts = crate::interp::InterpOptions::default();
        let vm = prog.run(opts).expect("vm runs");
        let resolved = prog.run_resolved(opts).expect("resolved runs");
        let legacy = prog.run_legacy(opts).expect("legacy runs");
        let expect: i64 = (0..16).map(|i| (i + i * 3 - 1) * 2).sum::<i64>() % 251;
        assert_eq!(vm.exit_code, expect);
        assert_eq!(vm.exit_code, resolved.exit_code);
        assert_eq!(vm.counters.without_memo(), resolved.counters.without_memo());
        assert_eq!(resolved.exit_code, legacy.exit_code);
        assert_eq!(resolved.counters.without_memo(), legacy.counters);
    }

    #[test]
    fn const_pool_dedups() {
        let b = bytecode("int main() { return 7 + 7 + 7; }");
        let main = &b.funcs[b.by_name["main"] as usize];
        let sevens = main
            .consts
            .iter()
            .filter(|c| matches!(c, Scalar::I(7)))
            .count();
        assert_eq!(sevens, 1);
    }

    #[test]
    fn binop_codes_round_trip() {
        for (i, &op) in BINOPS.iter().enumerate() {
            assert_eq!(binop_encode(op), i as u32);
            assert_eq!(binop_decode(i as u32), op);
        }
    }
}
