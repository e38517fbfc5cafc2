//! # cinterp — C interpreter with a parallel OpenMP-style runtime
//!
//! Executes translation units produced by the `pure-c` chain, both the
//! original sequential programs and the transformed ones with
//! `#pragma omp parallel for` annotations (run on real threads through
//! [`machine::omprt`]). Used to *prove semantic equivalence* of the
//! transformation at reduced problem sizes, to collect instruction-mix
//! counters (the paper's 47.5 G vs 87.8 G instruction comparison), and to
//! dynamically validate the purity guarantee via race-check mode.
//!
//! ## Three execution tiers
//!
//! Execution is organised as a tower of engines, each the differential
//! oracle of the one above it:
//!
//! 1. **Bytecode VM** ([`vm`], default) — [`resolve`]d functions are
//!    flattened by [`bytecode`] into contiguous `Vec<Insn>` arrays (one
//!    opcode + two `u32` operands per instruction, absolute jump
//!    targets, no recursion on the hot path) and executed over NaN-boxed
//!    [`value::Packed`] `u64` scalars. Call frames come from a per-VM
//!    bump arena; parallel workers reuse one arena/tally/memo-shard
//!    across all their iterations and merge once at region join.
//! 2. **Resolved-IR engine** ([`resolve`], `Engine::Resolved` or
//!    [`Program::run_resolved`]) — slot-indexed frames, interned
//!    symbols, pure-call memoization behind one locked cache. Oracle for
//!    the VM: bit-identical exit code, output and executed-op counters
//!    (modulo memo statistics).
//! 3. **Legacy tree-walker** ([`interp`], `legacy-oracle` feature /
//!    dev+test builds only) — the original string-keyed interpreter,
//!    oracle for the resolved engine. Release builds of the library do
//!    not ship it.
//!
//! ## What the engines share, and what they do not
//!
//! The tiers differ in *representation* — lowering, dispatch, frames and
//! per-iteration execution are each engine's own, which is what the
//! differential tests compare. They do not differ in *meaning*: what an
//! operator, a unary minus, `++`/`--` and a conversion compute is one
//! table ([`ops`]) that all three and the optimizer's constant folder
//! call; a loop runs as a region when its `for` carries an OpenMP header
//! (`StmtKind::For { omp, .. }`, mapped to the runtime's schedule by one
//! function, [`region::schedule`]), and whether that loop is canonical
//! is `cfront::omp`'s answer; how a region launches
//! is one protocol ([`region`]); and what a thread of either tree-walking
//! oracle carries besides its frames — step limit, fuel, counted and
//! tracked memory access — is one context ([`walk`]).
//! Agreement between the engines therefore says nothing about `ops`
//! itself; the GCC legs of `tests/matrix.rs` check that against a C compiler.
//!
//! Purity verdicts from `purec_core` flow through
//! [`Program::with_pure_set`] into resolved lowering, where [`effects`]
//! gives every function one summary (const ⊂ pure ⊂ impure, leaf |
//! heavy), and onward into bytecode lowering, so all memoizing tiers
//! share one safety argument (see [`effects`]' module docs).
//!
//! On top of the const set, the [`spawn`] pass rewrites batches of
//! *independent* verified-pure calls into pure-call **futures**
//! (`SpawnPure`/`AwaitSlots`), executed by both live tiers on the
//! persistent worker pool — the paper's automatic parallelization of
//! pure calls as task parallelism, A/B-togglable via
//! `InterpOptions::futures`.

pub mod builtins;
pub mod bytecode;
pub(crate) mod cache;
pub mod effects;
pub mod interp;
pub(crate) mod ops;
pub mod opt;
pub(crate) mod region;
pub mod resolve;
pub mod spawn;
pub mod trace;
pub mod value;
pub mod vm;
pub(crate) mod walk;

pub use bytecode::BytecodeProgram;
pub use effects::{Class, Cost, Summary};
pub use interp::{
    Engine, InterpOptions, Program, RunResult, RuntimeError, Trap, VerdictMap,
    DEFAULT_RACE_CHECK_CAP, MAX_CALL_DEPTH,
};
pub use resolve::ResolvedProgram;
pub use trace::{
    chrome_trace_json, counters_json, metrics_json, validate_chrome_trace, TraceData, TraceSession,
    TraceStats,
};
pub use value::{
    CounterSnapshot, Counters, FuelBudget, HeapStats, MemError, Memory, Packed, Ptr, Scalar,
    SpillPool, Tally, FUEL_BLOCK,
};
pub use vm::REGION_INLINE_WORK;
