//! The C interpreter: executes (transformed) translation units directly on
//! the [`crate::value::Memory`] model, honouring `#pragma omp parallel
//! for` regions by running them on the [`machine::omprt`] runtime.
//!
//! Execution has three tiers (see the crate docs for the full tower):
//!
//! * the **bytecode VM** ([`crate::vm`]) — the default fast path behind
//!   [`Program::run`]: flat instruction arrays over NaN-boxed scalars;
//! * the **resolved-IR engine** ([`crate::resolve`]) — slot-indexed
//!   frames, interned symbols, pure-call memoization; the VM's
//!   differential oracle ([`Program::run_resolved`] or
//!   `Engine::Resolved`);
//! * the **legacy tree-walker** in this module — the original
//!   string-keyed interpreter, kept as the resolved engine's
//!   *differential oracle* ([`Program::run_legacy`]) in dev/test builds
//!   only (`legacy-oracle` feature): the proptests assert all three
//!   tiers produce bit-identical results. (One documented divergence:
//!   the oracle's name map is flat per function call, so block-shadowing
//!   programs get pre-ISO answers from it — see `crate::resolve` docs.)
//!
//! The interpreter is how this reproduction *validates* the compiler
//! chain: every transformed program must compute bit-identical results to
//! its original, sequentially and in parallel (the integration tests and
//! proptests assert exactly that). An optional race-check mode verifies
//! the disjointness of iteration access sets before parallel execution —
//! the dynamic counterpart of the purity guarantee.

#[cfg(any(test, feature = "legacy-oracle"))]
use crate::builtins::{call_builtin, format_printf};
#[cfg(any(test, feature = "legacy-oracle"))]
use crate::ops::{self, Coerce};
#[cfg(any(test, feature = "legacy-oracle"))]
use crate::region::{self, Launch};
use crate::resolve::{self, ResolvedProgram};
use crate::value::{CounterSnapshot, HeapStats};
#[cfg(any(test, feature = "legacy-oracle"))]
use crate::value::{Counters, FuelBudget, Memory, Ptr, Scalar, TrackSets};
#[cfg(any(test, feature = "legacy-oracle"))]
use crate::walk::{Flow, WalkCtx};
use cfront::ast::*;
use cfront::omp::HeaderError;
#[cfg(any(test, feature = "legacy-oracle"))]
use cfront::omp::{canonical_for, CanonicalFor};
#[cfg(any(test, feature = "legacy-oracle"))]
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Which execution tier [`Program::run`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The flat bytecode VM over NaN-boxed scalars ([`crate::vm`]) —
    /// the default fast path.
    #[default]
    Bytecode,
    /// The resolved-IR tree walker ([`crate::resolve`]) — the VM's
    /// differential oracle.
    Resolved,
}

/// Map from a parallel `for` statement's id to its static verdict,
/// consumed by every engine when [`InterpOptions::race_check`] is on.
/// Produced by `crates/analysis` and plumbed in via
/// [`Program::with_pure_set_and_verdicts`].
pub type VerdictMap = HashMap<LoopId, LoopVerdict>;

/// The static verdict of the parallel loop `for_stmt`: `Unknown` when the
/// analysis never judged it.
pub(crate) fn loop_verdict(verdicts: &VerdictMap, for_stmt: &Stmt) -> LoopVerdict {
    match for_stmt.kind {
        StmtKind::For { id, .. } => verdicts.get(&id).copied().unwrap_or_default(),
        _ => LoopVerdict::Unknown,
    }
}

/// Default ceiling on dynamic race-check iterations (see
/// [`InterpOptions::race_check_cap`]).
pub const DEFAULT_RACE_CHECK_CAP: u64 = 1 << 16;

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct InterpOptions {
    /// Threads for `omp parallel for` regions.
    pub threads: usize,
    /// Run a region's first iterations sequentially, validating that
    /// their access sets (heap cells and global slots) are disjoint, then
    /// run the rest of the region in parallel.
    pub race_check: bool,
    /// Ceiling on the iterations the dynamic race check executes per
    /// region (`None` = [`DEFAULT_RACE_CHECK_CAP`], `Some(0)` =
    /// unlimited). Checked iterations run one at a time, so the cap keeps
    /// `--race-check` parallel on huge trip counts at the documented
    /// cost of only validating the first `cap` iterations. `purec
    /// --race-check-cap N` sets it.
    pub race_check_cap: Option<u64>,
    /// Abort after this many executed statements (runaway guard).
    pub max_steps: u64,
    /// Instruction budget for the whole execution (`None` = unlimited).
    /// One shared pool: parallel regions and pure-call futures drain the
    /// same budget, refilled into engine-local counters in blocks of
    /// [`crate::value::FUEL_BLOCK`], so a run with forked regions executes
    /// at most `fuel + threads × FUEL_BLOCK` units before trapping
    /// [`Trap::FuelExhausted`]. On one thread the budget is exact on every
    /// engine: a run completes iff it covers the run's count, because a
    /// thread launching a region hands its grant back first. The VM
    /// meters per dispatched instruction; the resolved and legacy engines
    /// meter per executed statement.
    pub fuel: Option<u64>,
    /// Ceiling on live heap bytes (`None` = unlimited): `free` refunds
    /// what it releases — at once outside a parallel region, at the
    /// outermost region's join inside one — so the charge is the heap's
    /// physical footprint; exceeding it traps [`Trap::MemoryLimit`].
    pub max_memory_bytes: Option<u64>,
    /// Ceiling on user-call nesting depth (`None` = the engines' built-in
    /// guard of 512, reported as a plain "call stack overflow" error).
    /// When set, exceeding it traps [`Trap::DepthLimit`]. The
    /// interpreters recurse on the native stack: a value above
    /// [`MAX_CALL_DEPTH`], or a calling thread with less stack than
    /// [`machine::STACK_SIZE`], can overflow it before the limit fires
    /// (`purec` refuses the first and provides the second).
    pub max_call_depth: Option<usize>,
    /// Memoize calls to verified-pure functions that are const *and*
    /// heavy (bytecode and resolved engines; inert unless the program was
    /// built with a pure set — see [`Program::with_pure_set`] — and holds
    /// such a function). `false` is `purec --no-memo`, the memo A/B.
    pub memo: bool,
    /// Execution tier for [`Program::run`] / [`Program::run_entry`].
    pub engine: Engine,
    /// Run independent verified-pure calls as futures on the worker
    /// pool (see `cinterp::spawn`; default). Only active with more than
    /// one thread — with one, every spawn site executes as the original
    /// inline call. `false` (`purec --no-futures`) keeps the sites
    /// inline for A/B comparison.
    pub futures: bool,
    /// Bytecode optimization level (bytecode engine only): 0 runs the
    /// lowerer's raw output verbatim (`purec --no-opt`, also the inlining
    /// A/B), 1 folds constants, 2 (default) inlines one-`return` leaf
    /// calls first and adds superinstruction and tick fusion. Every level
    /// preserves the executed-op counters and error behaviour
    /// bit-for-bit (see `cinterp::opt`).
    pub opt_level: u8,
}

/// Native stack one interpreted call may take on the hungrier engine,
/// with room for calls nested in deep expressions. Measured on `int
/// rec(int n) { return 1 + rec(n - 1); }`: optimized builds 1.2 kB (VM)
/// and 2.1 kB (resolved) per call, unoptimized builds 26 kB and 22 kB.
const NATIVE_BYTES_PER_CALL: usize = if cfg!(debug_assertions) {
    64 << 10
} else {
    8 << 10
};

/// The deepest [`InterpOptions::max_call_depth`] that is sure to trap
/// rather than overflow a [`machine::STACK_SIZE`] stack, on either live
/// engine.
pub const MAX_CALL_DEPTH: usize = machine::STACK_SIZE / NATIVE_BYTES_PER_CALL;

impl Default for InterpOptions {
    fn default() -> Self {
        InterpOptions {
            threads: 1,
            race_check: false,
            race_check_cap: None,
            max_steps: 500_000_000,
            fuel: None,
            max_memory_bytes: None,
            max_call_depth: None,
            memo: true,
            engine: Engine::default(),
            futures: true,
            opt_level: 2,
        }
    }
}

impl InterpOptions {
    /// The dynamic race-check iteration ceiling in effect (see
    /// [`InterpOptions::race_check_cap`]).
    pub fn effective_race_check_cap(&self) -> u64 {
        match self.race_check_cap {
            None => DEFAULT_RACE_CHECK_CAP,
            Some(0) => u64::MAX,
            Some(n) => n,
        }
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub exit_code: i64,
    pub output: String,
    pub counters: CounterSnapshot,
    /// Heap totals of the run (`purec --stats` prints them).
    pub heap: HeapStats,
}

/// Structured resource-governance trap kinds: a run that hit a
/// *configured* budget rather than a program bug. Traps unwind cleanly
/// through parallel regions and pending futures (siblings are drained,
/// the process-wide pool stays reusable) and map to distinct `purec`
/// exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// The instruction budget ([`InterpOptions::fuel`]) ran dry.
    FuelExhausted,
    /// The heap ceiling ([`InterpOptions::max_memory_bytes`]) would be
    /// exceeded.
    MemoryLimit,
    /// The call-depth ceiling ([`InterpOptions::max_call_depth`]) was
    /// reached.
    DepthLimit,
}

/// Runtime errors carry a message, the offending span when known, and —
/// for resource-governance failures — the structured [`Trap`] kind.
#[derive(Debug, Clone)]
pub struct RuntimeError {
    pub message: String,
    pub span: cfront::span::Span,
    pub trap: Option<Trap>,
}

impl RuntimeError {
    pub(crate) fn at(message: impl Into<String>, span: cfront::span::Span) -> Self {
        RuntimeError {
            message: message.into(),
            span,
            trap: None,
        }
    }

    /// A resource-governance trap.
    pub(crate) fn trap_at(
        trap: Trap,
        message: impl Into<String>,
        span: cfront::span::Span,
    ) -> Self {
        machine::omprt::instrument::instant("trap", trap_probe_arg(trap));
        RuntimeError {
            message: message.into(),
            span,
            trap: Some(trap),
        }
    }

    /// Lift a memory-subsystem error, preserving the trap kind when the
    /// failure was the configured ceiling rather than a program bug.
    pub(crate) fn from_mem(e: crate::value::MemError, span: cfront::span::Span) -> Self {
        let trap = e.limit.then_some(Trap::MemoryLimit);
        if let Some(t) = trap {
            machine::omprt::instrument::instant("trap", trap_probe_arg(t));
        }
        RuntimeError {
            message: e.to_string(),
            span,
            trap,
        }
    }
}

/// The call-depth rule of every engine, asked with the number of calls
/// already open: the configured ceiling traps, and without one a fixed
/// guard of 512 is a plain error. The comparison inlines into each
/// engine's call path; building the error does not.
#[inline(always)]
pub(crate) fn check_call_depth(
    opts: &InterpOptions,
    depth: usize,
    span: cfront::span::Span,
) -> RtResult<()> {
    if depth >= opts.max_call_depth.unwrap_or(512) {
        return Err(call_depth_error(opts.max_call_depth, span));
    }
    Ok(())
}

#[cold]
#[inline(never)]
fn call_depth_error(limit: Option<usize>, span: cfront::span::Span) -> RuntimeError {
    match limit {
        Some(limit) => RuntimeError::trap_at(
            Trap::DepthLimit,
            format!("call depth limit exceeded ({limit})"),
            span,
        ),
        None => RuntimeError::at("call stack overflow", span),
    }
}

/// The next block of the run's fuel for one thread's local counter —
/// the slow path of every engine's statement tick, at most once per
/// [`crate::value::FUEL_BLOCK`] ticks — or the trap when the budget is
/// dry. An unlimited run lands here only after 2⁶⁴ ticks.
#[cold]
pub(crate) fn next_fuel_block(
    fuel: &Option<Arc<crate::value::FuelBudget>>,
    span: cfront::span::Span,
) -> RtResult<u64> {
    let Some(budget) = fuel else {
        return Ok(u64::MAX);
    };
    match budget.take_block() {
        0 => Err(RuntimeError::trap_at(
            Trap::FuelExhausted,
            "fuel exhausted",
            span,
        )),
        granted => Ok(granted),
    }
}

/// Trap kind as the `trap` instant's integer argument.
fn trap_probe_arg(trap: Trap) -> u64 {
    match trap {
        Trap::FuelExhausted => 0,
        Trap::MemoryLimit => 1,
        Trap::DepthLimit => 2,
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

type RtResult<T> = Result<T, RuntimeError>;

/// Immutable program data shared by all execution threads (legacy path).
/// The AST clones and layout tables that only the legacy tree-walker
/// consumes are compiled out of release builds (`legacy-oracle` feature).
struct ProgramData {
    #[cfg(any(test, feature = "legacy-oracle"))]
    functions: HashMap<String, Function>,
    /// `(struct name, field name)` → (offset, is_array). Keying by the
    /// pair (instead of the field name alone) prevents two structs that
    /// share a member name from silently aliasing offsets.
    field_offsets: HashMap<(String, String), (usize, bool)>,
    /// Field name → layout when it is identical across every struct that
    /// declares it; `None` marks an ambiguous name that *must* be
    /// resolved through `member_table`.
    #[cfg(any(test, feature = "legacy-oracle"))]
    field_unique: HashMap<String, Option<(usize, bool)>>,
    /// Per-site resolution: member-expression span → (offset, is_array),
    /// computed by the resolver's static type inference and shared with
    /// the legacy tree-walker so both engines agree on `(struct, field)`
    /// keyed layout.
    #[cfg(any(test, feature = "legacy-oracle"))]
    member_table: HashMap<(u32, u32), (usize, bool)>,
    #[cfg(any(test, feature = "legacy-oracle"))]
    struct_sizes: HashMap<String, usize>,
    #[cfg(any(test, feature = "legacy-oracle"))]
    global_decls: Vec<Declaration>,
    /// Static race verdicts keyed by loop id (the legacy
    /// tree-walker looks regions up here; the resolved/bytecode engines
    /// carry the verdict in their lowered region descriptors).
    #[cfg(any(test, feature = "legacy-oracle"))]
    verdicts: VerdictMap,
}

/// A loaded program ready to run.
///
/// [`Program::run`] dispatches on [`InterpOptions::engine`] — by default
/// the flat bytecode VM ([`crate::vm`]), the fastest tier.
/// [`Program::run_resolved`] forces the resolved-IR engine (the VM's
/// differential oracle); [`Program::run_legacy`] (dev/test only, behind
/// the `legacy-oracle` feature) executes the original tree-walker.
pub struct Program {
    data: Arc<ProgramData>,
    resolved: Arc<ResolvedProgram>,
    bytecode: Arc<crate::bytecode::BytecodeProgram>,
    /// Lazily-optimized bytecode per [`InterpOptions::opt_level`]
    /// (level 0 is served straight from `bytecode`). Keyed by level so
    /// A/B runs of the same `Program` don't re-optimize.
    opt_cache: std::sync::Mutex<HashMap<u8, Arc<crate::bytecode::BytecodeProgram>>>,
}

impl Program {
    /// Prepare a translation unit for execution (no purity information:
    /// pure-call memoization stays disabled).
    pub fn new(unit: &TranslationUnit) -> Self {
        Self::with_pure_set(unit, &HashSet::new())
    }

    /// Prepare a translation unit, passing the names the purity pass
    /// verified pure. Calls to the const subset of those functions are
    /// memoized by the bytecode and resolved engines (see
    /// [`crate::effects`] for the safety argument).
    pub fn with_pure_set(unit: &TranslationUnit, pure_fns: &HashSet<String>) -> Self {
        Self::with_pure_set_and_verdicts(unit, pure_fns, &VerdictMap::new())
    }

    /// [`Program::with_pure_set`] plus static race verdicts for `omp
    /// parallel for` regions, keyed by the `for` statement's id in
    /// `unit`. Under [`InterpOptions::race_check`] every engine consumes
    /// the verdict: Independent skips the O(n) dynamic pre-pass, Racy is
    /// a hard error before the region runs, Unknown (or an absent entry)
    /// falls back to the dynamic check.
    pub fn with_pure_set_and_verdicts(
        unit: &TranslationUnit,
        pure_fns: &HashSet<String>,
        verdicts: &VerdictMap,
    ) -> Self {
        let resolved = Arc::new(resolve::lower_unit(unit, pure_fns, verdicts));
        let bytecode = Arc::new(crate::bytecode::BytecodeProgram::compile(&resolved));
        #[cfg(any(test, feature = "legacy-oracle"))]
        let (functions, global_decls) = {
            let mut functions = HashMap::new();
            let mut global_decls = Vec::new();
            for item in &unit.items {
                match item {
                    Item::Function(f) => {
                        // Definitions override prototypes.
                        let replace = f.is_definition() || !functions.contains_key(&f.name);
                        if replace {
                            functions.insert(f.name.clone(), f.clone());
                        }
                    }
                    Item::Decl(d) => global_decls.push(d.clone()),
                    _ => {}
                }
            }
            (functions, global_decls)
        };
        // Struct layouts come from the resolver — one implementation of
        // the (struct, field) offset algorithm serves both engines, so
        // the differential oracle cannot drift from the fast path.
        Program {
            data: Arc::new(ProgramData {
                #[cfg(any(test, feature = "legacy-oracle"))]
                functions,
                field_offsets: resolved.field_offsets.clone(),
                #[cfg(any(test, feature = "legacy-oracle"))]
                field_unique: resolved.field_unique.clone(),
                #[cfg(any(test, feature = "legacy-oracle"))]
                member_table: resolved.member_table.clone(),
                #[cfg(any(test, feature = "legacy-oracle"))]
                struct_sizes: resolved.struct_sizes.clone(),
                #[cfg(any(test, feature = "legacy-oracle"))]
                global_decls,
                #[cfg(any(test, feature = "legacy-oracle"))]
                verdicts: verdicts.clone(),
            }),
            resolved,
            bytecode,
            opt_cache: std::sync::Mutex::new(HashMap::new()),
        }
    }

    /// The lowered form (introspection: memo-eligible functions etc.).
    pub fn resolved(&self) -> &ResolvedProgram {
        &self.resolved
    }

    /// The flattened form (introspection: instruction counts etc.).
    pub fn bytecode(&self) -> &crate::bytecode::BytecodeProgram {
        &self.bytecode
    }

    /// The bytecode the VM executes at `level` — the lowerer's raw
    /// output for level 0, otherwise the (cached) output of the
    /// [`crate::opt`] pipeline.
    pub fn bytecode_at(&self, level: u8) -> Arc<crate::bytecode::BytecodeProgram> {
        if level == 0 {
            return Arc::clone(&self.bytecode);
        }
        let mut cache = self.opt_cache.lock().expect("opt cache poisoned");
        Arc::clone(
            cache
                .entry(level)
                .or_insert_with(|| Arc::new(crate::opt::optimize_program(&self.bytecode, level))),
        )
    }

    /// Layout of `strct.field` — offsets are keyed by the `(struct,
    /// field)` pair, so same-named members of different structs do not
    /// alias.
    pub fn field_offset(&self, strct: &str, field: &str) -> Option<(usize, bool)> {
        self.data
            .field_offsets
            .get(&(strct.to_string(), field.to_string()))
            .copied()
    }

    /// Run `main()` to completion on the engine `opts.engine` selects
    /// (bytecode VM by default).
    pub fn run(&self, opts: InterpOptions) -> RtResult<RunResult> {
        self.run_entry("main", opts)
    }

    /// Run a named entry on the engine `opts.engine` selects.
    pub fn run_entry(&self, entry: &str, opts: InterpOptions) -> RtResult<RunResult> {
        match opts.engine {
            Engine::Bytecode => crate::vm::run_vm(&self.bytecode_at(opts.opt_level), entry, opts),
            Engine::Resolved => resolve::run_resolved(&self.resolved, entry, opts),
        }
    }

    /// Run `main()` on the resolved-IR engine (the bytecode VM's
    /// differential oracle), regardless of `opts.engine`.
    pub fn run_resolved(&self, opts: InterpOptions) -> RtResult<RunResult> {
        self.run_entry_resolved("main", opts)
    }

    /// Run a named entry on the resolved-IR engine.
    pub fn run_entry_resolved(&self, entry: &str, opts: InterpOptions) -> RtResult<RunResult> {
        resolve::run_resolved(&self.resolved, entry, opts)
    }

    /// Run `main()` on the legacy tree-walking interpreter (the
    /// resolved engine's differential oracle; dev/test builds only).
    #[cfg(any(test, feature = "legacy-oracle"))]
    pub fn run_legacy(&self, opts: InterpOptions) -> RtResult<RunResult> {
        self.run_entry_legacy("main", opts)
    }

    /// Run a named entry on the legacy tree-walking interpreter.
    #[cfg(any(test, feature = "legacy-oracle"))]
    pub fn run_entry_legacy(&self, entry: &str, opts: InterpOptions) -> RtResult<RunResult> {
        let shared = SharedState {
            prog: Arc::clone(&self.data),
            mem: Memory::with_limit(opts.max_memory_bytes),
            counters: Arc::new(Counters::new()),
            globals: Arc::new(RwLock::new(HashMap::new())),
            output: Arc::new(Mutex::new(String::new())),
            fuel: opts.fuel.map(|f| Arc::new(FuelBudget::new(f))),
            opts,
        };
        let mut interp = Interp::new(shared.clone());

        // Initialise globals in declaration order.
        for d in &self.data.global_decls.clone() {
            interp.declare(d, true)?;
        }

        let exit = interp.call_function(entry, &[], cfront::span::Span::DUMMY)?;
        let output = shared.output.lock().clone();
        let counters = shared.counters.snapshot();
        Ok(RunResult {
            exit_code: exit.as_i64(),
            output,
            counters,
            heap: shared.mem.stats(),
        })
    }
}

#[cfg(any(test, feature = "legacy-oracle"))]
#[derive(Clone)]
struct SharedState {
    prog: Arc<ProgramData>,
    mem: Memory,
    counters: Arc<Counters>,
    globals: Arc<RwLock<HashMap<String, Scalar>>>,
    output: Arc<Mutex<String>>,
    /// One instruction budget shared by every thread of the run.
    fuel: Option<Arc<FuelBudget>>,
    opts: InterpOptions,
}

#[cfg(any(test, feature = "legacy-oracle"))]
/// Where an lvalue lives. `Local` carries the index of the frame that
/// holds the variable, so `place()` resolves the scope stack **once** and
/// the subsequent load/store indexes directly instead of rescanning.
enum Place {
    Local(usize, String),
    Global(String),
    Mem(Ptr),
}

#[cfg(any(test, feature = "legacy-oracle"))]
struct Interp {
    s: SharedState,
    frames: Vec<HashMap<String, Scalar>>,
    cx: WalkCtx,
}

#[cfg(any(test, feature = "legacy-oracle"))]
impl Interp {
    fn new(s: SharedState) -> Self {
        Interp {
            cx: WalkCtx::new(&s.mem, &s.counters, &s.fuel, s.opts.max_steps),
            s,
            frames: vec![HashMap::new()],
        }
    }

    fn frame(&mut self) -> &mut HashMap<String, Scalar> {
        self.frames.last_mut().expect("at least one frame")
    }

    // -- declarations ---------------------------------------------------------

    fn declare(&mut self, d: &Declaration, global: bool) -> RtResult<()> {
        for dec in &d.declarators {
            let value = if !dec.array_dims.is_empty() {
                // Local/global array: nested spine-of-pointers layout.
                let dims: Vec<usize> = dec
                    .array_dims
                    .iter()
                    .map(|e| self.eval(e).map(|v| v.as_i64().max(0) as usize))
                    .collect::<RtResult<_>>()?;
                Scalar::P(self.cx.alloc_array(&dims, d.span)?)
            } else if matches!(dec.ty.base, BaseType::Struct(_)) && !dec.ty.is_pointer() {
                let size = match &dec.ty.base {
                    BaseType::Struct(name) => *self.s.prog.struct_sizes.get(name).unwrap_or(&8),
                    _ => unreachable!(),
                };
                Scalar::P(self.cx.alloc_array(&[size], d.span)?)
            } else if let Some(init) = &dec.init {
                let v = self.eval(init)?;
                Coerce::of(&dec.ty).apply(v)
            } else {
                Scalar::Uninit
            };

            // Array initializer lists fill the allocation.
            if !dec.array_dims.is_empty() {
                if let Some(init) = &dec.init {
                    if let Scalar::P(p) = value {
                        self.fill_initlist(p, init)?;
                    }
                }
            }

            if global {
                self.s.globals.write().insert(dec.name.clone(), value);
            } else {
                self.frame().insert(dec.name.clone(), value);
            }
        }
        Ok(())
    }

    fn fill_initlist(&mut self, p: Ptr, init: &Expr) -> RtResult<()> {
        if let Some(("__initlist", elems)) = init.as_direct_call() {
            for (i, e) in elems.iter().enumerate() {
                if let Some(("__initlist", _)) = e.as_direct_call() {
                    // Nested list: descend into row pointer.
                    if let Scalar::P(row) = self.cx.mem_load(p.offset(i as i64), e.span)? {
                        self.fill_initlist(row, e)?;
                    }
                } else {
                    let v = self.eval(e)?;
                    self.cx.mem_store(p.offset(i as i64), v, e.span)?;
                }
            }
        }
        Ok(())
    }

    // -- name lookup --------------------------------------------------------------

    fn lookup(&mut self, name: &str) -> Option<Scalar> {
        for frame in self.frames.iter().rev() {
            if let Some(v) = frame.get(name) {
                return Some(*v);
            }
        }
        let v = self.s.globals.read().get(name).copied();
        if v.is_some() {
            self.track_global(name, false);
        }
        v
    }

    /// Race-check bookkeeping of one access to global `name`, keyed by
    /// its declaration order like the other engines' global slots.
    fn track_global(&mut self, name: &str, write: bool) {
        if self.cx.track.is_none() {
            return;
        }
        let slot = self
            .s
            .prog
            .global_decls
            .iter()
            .flat_map(|d| &d.declarators)
            .position(|d| d.name == name);
        if let Some(slot) = slot {
            self.cx.track_global(slot, write);
        }
    }

    // -- lvalues ----------------------------------------------------------------

    fn place(&mut self, e: &Expr) -> RtResult<Place> {
        match &e.kind {
            ExprKind::Ident(name) => {
                // Single scan: record the owning frame's index so the
                // later load/store needs no second walk.
                for (idx, frame) in self.frames.iter().enumerate().rev() {
                    if frame.contains_key(name) {
                        return Ok(Place::Local(idx, name.clone()));
                    }
                }
                if self.s.globals.read().contains_key(name) {
                    return Ok(Place::Global(name.clone()));
                }
                Err(RuntimeError::at(
                    format!("unknown variable '{name}'"),
                    e.span,
                ))
            }
            ExprKind::Index(base, idx) => {
                let b = self.eval(base)?;
                let i = self.eval(idx)?.as_i64();
                match b {
                    Scalar::P(p) => Ok(Place::Mem(p.offset(i))),
                    other => Err(RuntimeError::at(
                        format!("indexing a non-pointer value {other:?}"),
                        e.span,
                    )),
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let v = self.eval(inner)?;
                match v {
                    Scalar::P(p) => Ok(Place::Mem(p)),
                    _ => Err(RuntimeError::at("dereference of non-pointer", e.span)),
                }
            }
            ExprKind::Member { base, member, .. } => {
                let b = self.eval(base)?;
                let Scalar::P(p) = b else {
                    return Err(RuntimeError::at("member access on non-struct", e.span));
                };
                // Offsets are keyed by (struct, field): the resolver's
                // type inference pins this access site to its struct via
                // the span table; names that are unambiguous across all
                // structs may fall back to the shared layout.
                let key = (e.span.start, e.span.end);
                let (offset, is_array) = match self.s.prog.member_table.get(&key) {
                    Some(&v) => v,
                    None => match self.s.prog.field_unique.get(member) {
                        Some(Some(v)) => *v,
                        Some(None) => {
                            return Err(RuntimeError::at(
                                format!(
                                    "ambiguous field '{member}' (declared at different \
                                     offsets by multiple structs)"
                                ),
                                e.span,
                            ))
                        }
                        None => {
                            return Err(RuntimeError::at(
                                format!("unknown field '{member}'"),
                                e.span,
                            ))
                        }
                    },
                };
                let _ = is_array;
                Ok(Place::Mem(p.offset(offset as i64)))
            }
            ExprKind::Cast(_, inner) => self.place(inner),
            _ => Err(RuntimeError::at("expression is not an lvalue", e.span)),
        }
    }

    fn load_place(&mut self, place: &Place, span: cfront::span::Span) -> RtResult<Scalar> {
        match place {
            Place::Local(frame, name) => self.frames[*frame]
                .get(name)
                .copied()
                .ok_or_else(|| RuntimeError::at(format!("unknown variable '{name}'"), span)),
            Place::Global(name) => {
                self.track_global(name, false);
                self.s
                    .globals
                    .read()
                    .get(name)
                    .copied()
                    .ok_or_else(|| RuntimeError::at(format!("unknown variable '{name}'"), span))
            }
            Place::Mem(p) => self.cx.mem_load(*p, span),
        }
    }

    fn store_place(&mut self, place: &Place, v: Scalar, span: cfront::span::Span) -> RtResult<()> {
        match place {
            Place::Local(frame, name) => match self.frames[*frame].get_mut(name) {
                Some(slot) => {
                    *slot = v;
                    Ok(())
                }
                None => Err(RuntimeError::at(
                    format!("assignment to undeclared '{name}'"),
                    span,
                )),
            },
            Place::Global(name) => {
                self.track_global(name, true);
                match self.s.globals.write().get_mut(name) {
                    Some(slot) => {
                        *slot = v;
                        Ok(())
                    }
                    None => Err(RuntimeError::at(
                        format!("assignment to undeclared '{name}'"),
                        span,
                    )),
                }
            }
            Place::Mem(p) => self.cx.mem_store(*p, v, span),
        }
    }

    // -- expressions ----------------------------------------------------------------

    fn eval(&mut self, e: &Expr) -> RtResult<Scalar> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Scalar::I(*v)),
            ExprKind::FloatLit { value, .. } => Ok(Scalar::F(*value)),
            ExprKind::CharLit(c) => Ok(Scalar::I(*c as i64)),
            ExprKind::StrLit(s) => Ok(Scalar::P(self.cx.alloc_str(s, e.span)?)),
            ExprKind::Ident(name) => self
                .lookup(name)
                .ok_or_else(|| RuntimeError::at(format!("unknown variable '{name}'"), e.span)),
            ExprKind::Unary(op, inner) => self.eval_unary(*op, inner, e.span),
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r, e.span),
            ExprKind::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs)?;
                let place = self.place(lhs)?;
                if let (Some(b), Place::Global(name)) = (op.binop(), &place) {
                    // Compound assign to a global: one write guard for
                    // the whole read-modify-write. The old separate
                    // read()/write() pair let a concurrent RMW interleave
                    // and lose an update.
                    self.track_global(name, false);
                    self.track_global(name, true);
                    let globals = Arc::clone(&self.s.globals);
                    let mut g = globals.write();
                    let old = *g.get(name).ok_or_else(|| {
                        RuntimeError::at(format!("unknown variable '{name}'"), e.span)
                    })?;
                    let result = self.cx.binop(b, old, rv, e.span)?;
                    *g.get_mut(name).expect("present above") = result;
                    return Ok(result);
                }
                let result = match op.binop() {
                    None => rv,
                    Some(b) => {
                        let old = self.load_place(&place, e.span)?;
                        self.cx.binop(b, old, rv, e.span)?
                    }
                };
                self.store_place(&place, result, e.span)?;
                Ok(result)
            }
            ExprKind::Ternary(c, t, f) => {
                Counters::bump(&self.s.counters.branches);
                if self.eval(c)?.truthy() {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            ExprKind::Call { callee, args } => {
                let Some(name) = callee.as_ident() else {
                    return Err(RuntimeError::at("indirect calls are unsupported", e.span));
                };
                let name = name.to_string();
                if name == "printf" {
                    return self.do_printf(args, e.span);
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                self.call_function(&name, &vals, e.span)
            }
            ExprKind::Index(..) | ExprKind::Member { .. } => {
                let place = self.place(e)?;
                self.load_place(&place, e.span)
            }
            ExprKind::Cast(ty, inner) => {
                let v = self.eval(inner)?;
                Ok(Coerce::of(ty).apply(v))
            }
            ExprKind::SizeofType(_) => Ok(Scalar::I(8)),
            ExprKind::SizeofExpr(_) => Ok(Scalar::I(8)),
            ExprKind::Comma(l, r) => {
                self.eval(l)?;
                self.eval(r)
            }
        }
    }

    fn eval_unary(&mut self, op: UnOp, inner: &Expr, span: cfront::span::Span) -> RtResult<Scalar> {
        match op {
            UnOp::Neg => {
                let v = self.eval(inner)?;
                Ok(self.cx.counted(ops::neg(v)))
            }
            UnOp::Not => {
                let v = self.eval(inner)?;
                Ok(Scalar::I(i64::from(!v.truthy())))
            }
            UnOp::BitNot => {
                let v = self.eval(inner)?;
                Ok(Scalar::I(!v.as_i64()))
            }
            UnOp::Deref => {
                // `*e` loads through the pointer value of `e` (which may be
                // any expression, e.g. `*(p + 4)`).
                let v = self.eval(inner)?;
                match v {
                    Scalar::P(p) => self.cx.mem_load(p, span),
                    other => Err(RuntimeError::at(
                        format!("dereference of non-pointer {other:?}"),
                        span,
                    )),
                }
            }
            UnOp::AddrOf => {
                let place = self.place(inner)?;
                match place {
                    Place::Mem(p) => Ok(Scalar::P(p)),
                    _ => Err(RuntimeError::at(
                        "address-of is only supported for memory lvalues",
                        span,
                    )),
                }
            }
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                let place = self.place(inner)?;
                let delta = if matches!(op, UnOp::PreInc | UnOp::PostInc) {
                    1
                } else {
                    -1
                };
                let (old, new) = if let Place::Global(name) = &place {
                    // `++`/`--` on a global: single write guard across
                    // the RMW (same torn-update fix as compound assign).
                    self.track_global(name, false);
                    self.track_global(name, true);
                    let globals = Arc::clone(&self.s.globals);
                    let mut g = globals.write();
                    let slot = g.get_mut(name).ok_or_else(|| {
                        RuntimeError::at(format!("unknown variable '{name}'"), span)
                    })?;
                    let old = *slot;
                    let new = self.cx.counted(ops::incdec(old, delta));
                    *slot = new;
                    (old, new)
                } else {
                    let old = self.load_place(&place, span)?;
                    let new = self.cx.counted(ops::incdec(old, delta));
                    self.store_place(&place, new, span)?;
                    (old, new)
                };
                Ok(if matches!(op, UnOp::PreInc | UnOp::PreDec) {
                    new
                } else {
                    old
                })
            }
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        l: &Expr,
        r: &Expr,
        span: cfront::span::Span,
    ) -> RtResult<Scalar> {
        // Short-circuit logicals.
        if let BinOp::And | BinOp::Or = op {
            // `&&` is settled by a false left side, `||` by a true one.
            Counters::bump(&self.s.counters.branches);
            let settled = op == BinOp::Or;
            if self.eval(l)?.truthy() == settled {
                return Ok(Scalar::I(i64::from(settled)));
            }
            return Ok(Scalar::I(i64::from(self.eval(r)?.truthy())));
        }
        let lv = self.eval(l)?;
        let rv = self.eval(r)?;
        self.cx.binop(op, lv, rv, span)
    }

    fn do_printf(&mut self, args: &[Expr], span: cfront::span::Span) -> RtResult<Scalar> {
        let Some(first) = args.first() else {
            return Err(RuntimeError::at("printf without format", span));
        };
        let fmt = match &first.kind {
            ExprKind::StrLit(s) => s.clone(),
            _ => {
                let v = self.eval(first)?;
                self.cx.read_str(v, span)?
            }
        };
        let mut vals = Vec::with_capacity(args.len().saturating_sub(1));
        for a in &args[1..] {
            vals.push(self.eval(a)?);
        }
        let rendered = format_printf(&fmt, &vals, &self.s.mem);
        self.s.output.lock().push_str(&rendered);
        Ok(Scalar::I(rendered.len() as i64))
    }

    fn call_function(
        &mut self,
        name: &str,
        args: &[Scalar],
        span: cfront::span::Span,
    ) -> RtResult<Scalar> {
        Counters::bump(&self.s.counters.calls);
        // User definitions shadow builtins.
        let func = self.s.prog.functions.get(name).cloned();
        match func {
            Some(f) if f.is_definition() => {
                // `frames[0]` is the outermost scope, not a call.
                check_call_depth(&self.s.opts, self.frames.len() - 1, span)?;
                let mut frame = HashMap::with_capacity(f.params.len());
                for (p, v) in f.params.iter().zip(args) {
                    if let Some(pname) = &p.name {
                        frame.insert(pname.clone(), Coerce::of(&p.ty).apply(*v));
                    }
                }
                self.frames.push(frame);
                let body = f.body.as_ref().expect("definition");
                // The body's statements, with no step for the body itself.
                let flow = self.exec_block(body);
                self.frames.pop();
                match flow? {
                    Flow::Return(v) => Ok(v),
                    Flow::Normal => Ok(Scalar::I(0)),
                    Flow::Break | Flow::Continue => {
                        Err(RuntimeError::at("break/continue outside loop", f.span))
                    }
                }
            }
            _ => call_builtin(name, args, &self.s.mem, &self.s.output, span),
        }
    }

    // -- statements -------------------------------------------------------------

    fn exec(&mut self, stmt: &Stmt) -> RtResult<Flow> {
        // A parallel region takes no step of its own, on every engine.
        if let StmtKind::For {
            omp: Some(header), ..
        } = &stmt.kind
        {
            self.exec_parallel_for(stmt, header)?;
            return Ok(Flow::Normal);
        }
        self.cx.step(stmt.span)?;
        match &stmt.kind {
            StmtKind::Decl(d) => {
                self.declare(d, false)?;
                Ok(Flow::Normal)
            }
            StmtKind::Expr(Some(e)) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Expr(None) | StmtKind::Pragma(_) => Ok(Flow::Normal),
            StmtKind::Block(b) => self.exec_block(b),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                Counters::bump(&self.s.counters.branches);
                if self.eval(cond)?.truthy() {
                    self.exec(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                loop {
                    Counters::bump(&self.s.counters.branches);
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    Counters::bump(&self.s.counters.branches);
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                match init.as_ref() {
                    ForInit::Decl(d) => self.declare(d, false)?,
                    ForInit::Expr(Some(e)) => {
                        self.eval(e)?;
                    }
                    ForInit::Expr(None) => {}
                }
                loop {
                    self.cx.step(stmt.span)?;
                    Counters::bump(&self.s.counters.branches);
                    if let Some(c) = cond {
                        if !self.eval(c)?.truthy() {
                            break;
                        }
                    }
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(s) = step {
                        self.eval(s)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Scalar::I(0),
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
        }
    }

    fn exec_block(&mut self, b: &Block) -> RtResult<Flow> {
        for s in &b.stmts {
            match self.exec(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Launch an `omp parallel for` region ([`region::launch`]); its
    /// workers are walkers started from an [`LFrame`].
    fn exec_parallel_for(&mut self, for_stmt: &Stmt, header: &OmpFor) -> RtResult<()> {
        let CanonicalFor {
            iter,
            lb,
            bound,
            inclusive,
            body,
            ..
        } = canonical_for(for_stmt)
            .map_err(|e| RuntimeError::at(omp_header_message(e), for_stmt.span))?;
        let launch = Launch {
            lb: self.eval(lb)?.as_i64(),
            ub: self.eval(bound)?.as_i64() - i64::from(!inclusive),
            schedule: region::schedule(header),
            verdict: loop_verdict(&self.s.prog.verdicts, for_stmt),
            span: for_stmt.span,
            body_span: body.span,
            work: None,
        };
        region::launch(self, &launch, |it: &mut Self| LFrame {
            shared: it.s.clone(),
            frame: it.frames.last().cloned().unwrap_or_default(),
            iter,
            body,
        })
    }
}

/// A region's launching frame as the legacy walker's workers start every
/// iteration from it: the innermost scope, the iterator's name, the body.
#[cfg(any(test, feature = "legacy-oracle"))]
struct LFrame<'a> {
    shared: SharedState,
    frame: HashMap<String, Scalar>,
    iter: &'a str,
    body: &'a Stmt,
}

#[cfg(any(test, feature = "legacy-oracle"))]
impl region::Snapshot for LFrame<'_> {
    type Worker = Interp;

    fn worker(&self) -> Interp {
        Interp::new(self.shared.clone())
    }

    fn run(&self, w: &mut Interp, i: i64) -> RtResult<()> {
        w.frames.truncate(1);
        w.frames[0].clone_from(&self.frame);
        w.frames[0].insert(self.iter.to_string(), Scalar::I(i));
        w.cx.start_iteration();
        w.exec(self.body).map(drop)
    }
}

#[cfg(any(test, feature = "legacy-oracle"))]
impl region::Worker for Interp {
    fn env(&self) -> (&InterpOptions, &Arc<Counters>, &Memory) {
        (&self.s.opts, &self.s.counters, &self.s.mem)
    }

    fn track(&mut self) -> &mut Option<TrackSets> {
        &mut self.cx.track
    }

    fn refund_fuel(&mut self) {
        self.cx.refund_fuel();
    }
}

/// The engines' words for a `#pragma omp parallel for` loop whose header
/// is not canonical (the runtime error raised when the loop is reached).
pub(crate) fn omp_header_message(e: HeaderError) -> &'static str {
    use HeaderError::*;
    match e {
        NotAFor => "omp pragma without loop",
        UninitializedIterator => "parallel loop iterator lacks init",
        MultipleDeclarators | InitNotAssignment | InitTargetNotVariable | NoInit => {
            "bad parallel loop init"
        }
        NoCondition | ConditionNotComparison | ConditionNotLess => {
            "parallel loop condition must be < or <="
        }
        ConditionNotOnIterator(_) => "parallel loop condition must test its iterator",
        NoStep | NonUnitStep(_) => "parallel loop must have unit increment",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::parser::parse;
    use machine::OmpSchedule;

    fn run_src(src: &str) -> RunResult {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        Program::new(&r.unit)
            .run(InterpOptions::default())
            .expect("runs")
    }

    #[test]
    fn returns_exit_code() {
        assert_eq!(run_src("int main() { return 42; }").exit_code, 42);
        assert_eq!(run_src("int main() { return 40 + 2; }").exit_code, 42);
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let r = run_src(
            "int main() {\n\
                 int acc = 0;\n\
                 for (int i = 1; i <= 10; i++) acc += i;\n\
                 if (acc == 55) return 1; else return 0;\n\
             }",
        );
        assert_eq!(r.exit_code, 1);
    }

    #[test]
    fn while_and_do_while() {
        let r = run_src(
            "int main() {\n\
                 int i = 0, n = 0;\n\
                 while (i < 5) { i++; n += 2; }\n\
                 do { n--; } while (n > 7);\n\
                 return n;\n\
             }",
        );
        assert_eq!(r.exit_code, 7);
    }

    #[test]
    fn function_calls_and_recursion() {
        let r = run_src(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
             int main() { return fib(10); }",
        );
        assert_eq!(r.exit_code, 55);
    }

    #[test]
    fn arrays_and_pointers() {
        let r = run_src(
            "int main() {\n\
                 int a[10];\n\
                 for (int i = 0; i < 10; i++) a[i] = i * i;\n\
                 int* p = a;\n\
                 return p[3] + *(p + 4);\n\
             }",
        );
        assert_eq!(r.exit_code, 9 + 16);
    }

    #[test]
    fn two_dim_arrays() {
        let r = run_src(
            "int main() {\n\
                 int g[4][4];\n\
                 for (int i = 0; i < 4; i++)\n\
                     for (int j = 0; j < 4; j++)\n\
                         g[i][j] = i * 10 + j;\n\
                 return g[2][3];\n\
             }",
        );
        assert_eq!(r.exit_code, 23);
    }

    #[test]
    fn malloc_free_round_trip() {
        let r = run_src(
            "int main() {\n\
                 int* buf = (int*) malloc(8 * sizeof(int));\n\
                 for (int i = 0; i < 8; i++) buf[i] = i + 1;\n\
                 int total = 0;\n\
                 for (int i = 0; i < 8; i++) total += buf[i];\n\
                 free(buf);\n\
                 return total;\n\
             }",
        );
        assert_eq!(r.exit_code, 36);
    }

    #[test]
    fn float_math_and_builtins() {
        let r = run_src(
            "int main() {\n\
                 float x = 2.0f;\n\
                 float y = sqrtf(x * x * 4.0f);\n\
                 if (y > 3.9f && y < 4.1f) return 1;\n\
                 return 0;\n\
             }",
        );
        assert_eq!(r.exit_code, 1);
    }

    #[test]
    fn globals_and_matrix_of_pointers() {
        let r = run_src(
            "float** A;\n\
             int main() {\n\
                 A = (float**) malloc(4 * sizeof(float*));\n\
                 for (int i = 0; i < 4; i++) {\n\
                     A[i] = (float*) malloc(4 * sizeof(float));\n\
                     for (int j = 0; j < 4; j++) A[i][j] = i + j;\n\
                 }\n\
                 return (int) A[2][3];\n\
             }",
        );
        assert_eq!(r.exit_code, 5);
    }

    #[test]
    fn printf_output_captured() {
        let r = run_src("int main() { printf(\"v=%d %.1f\\n\", 3, 2.5); return 0; }");
        assert_eq!(r.output, "v=3 2.5\n");
    }

    #[test]
    fn struct_fields() {
        let r = run_src(
            "struct point { int x; int y; };\n\
             int main() {\n\
                 struct point p;\n\
                 p.x = 3;\n\
                 p.y = 4;\n\
                 return p.x * p.x + p.y * p.y;\n\
             }",
        );
        assert_eq!(r.exit_code, 25);
    }

    #[test]
    fn ternary_and_logical_short_circuit() {
        let r = run_src(
            "int div0() { return 1 / 0; }\n\
             int main() {\n\
                 int x = 0;\n\
                 int safe = (x != 0) && div0();\n\
                 return safe == 0 ? 7 : 8;\n\
             }",
        );
        assert_eq!(r.exit_code, 7);
    }

    #[test]
    fn division_by_zero_is_runtime_error() {
        let r = parse("int main() { int z = 0; return 1 / z; }");
        let err = Program::new(&r.unit).run(InterpOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let r = parse("int main() { while (1) ; return 0; }");
        let err = Program::new(&r.unit).run(InterpOptions {
            max_steps: 10_000,
            ..InterpOptions::default()
        });
        assert!(err.is_err());
    }

    #[test]
    fn counters_track_flops_and_calls() {
        let r = run_src(
            "float mult(float a, float b) { return a * b; }\n\
             int main() {\n\
                 float acc = 0.0f;\n\
                 for (int i = 0; i < 100; i++) acc += mult(i, 2.0f);\n\
                 return 0;\n\
             }",
        );
        // 100 multiplications + 100 additions (+ ~conversions).
        assert!(r.counters.flops >= 200, "{:?}", r.counters);
        // main + 100 × mult.
        assert!(r.counters.calls >= 101, "{:?}", r.counters);
    }

    #[test]
    fn array_initializer_lists() {
        let r = run_src("int main() { int a[3] = {5, 6, 7}; return a[0] + a[2]; }");
        assert_eq!(r.exit_code, 12);
    }

    #[test]
    fn a_header_runs_on_the_runtimes_schedule() {
        use OmpSchedule::*;
        for (clauses, want) in [
            ("private(t2)", Static),
            ("private (x) schedule(dynamic,1)", Dynamic(1)),
            ("schedule(static)", Static),
            ("schedule(static, 1)", Static),
            ("schedule(static, 4)", StaticChunk(4)),
            ("schedule(dynamic)", Dynamic(1)),
            ("schedule(guided)", Guided(1)),
            ("schedule(guided, 3)", Guided(3)),
            ("schedule(runtime)", Static),
        ] {
            let src = format!("void f() {{\n#pragma omp parallel for {clauses}\nfor (;;) ;\n}}");
            let unit = parse(&src).unit;
            let body = &unit
                .find_function("f")
                .unwrap()
                .body
                .as_ref()
                .unwrap()
                .stmts;
            let StmtKind::For { omp: Some(h), .. } = &body[0].kind else {
                panic!("{clauses}: no header");
            };
            assert_eq!(region::schedule(h), want, "{clauses}");
        }
    }
}

#[cfg(test)]
mod control_flow_tests {
    use super::*;
    use cfront::parser::parse;

    fn run_src(src: &str) -> RunResult {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        Program::new(&r.unit)
            .run(InterpOptions::default())
            .expect("runs")
    }

    #[test]
    fn continue_still_executes_loop_step() {
        // If `continue` skipped the step, this would loop forever (caught
        // by the step limit) or return the wrong count.
        let r = run_src(
            "int main() {\n\
                 int evens = 0;\n\
                 for (int i = 0; i < 10; i++) {\n\
                     if (i % 2 == 1) continue;\n\
                     evens++;\n\
                 }\n\
                 return evens;\n\
             }",
        );
        assert_eq!(r.exit_code, 5);
    }

    #[test]
    fn break_exits_only_innermost_loop() {
        let r = run_src(
            "int main() {\n\
                 int n = 0;\n\
                 for (int i = 0; i < 4; i++) {\n\
                     for (int j = 0; j < 100; j++) {\n\
                         if (j == 3) break;\n\
                         n++;\n\
                     }\n\
                 }\n\
                 return n;\n\
             }",
        );
        assert_eq!(r.exit_code, 12);
    }

    #[test]
    fn arrow_access_through_malloced_struct() {
        let r = run_src(
            "struct node { int value; int weight; };\n\
             int main() {\n\
                 struct node* n = (struct node*) malloc(2 * sizeof(int));\n\
                 n->value = 11;\n\
                 n->weight = 31;\n\
                 return n->value + n->weight;\n\
             }",
        );
        assert_eq!(r.exit_code, 42);
    }

    #[test]
    fn pointer_comparisons() {
        let r = run_src(
            "int main() {\n\
                 int a[4];\n\
                 int* p = a;\n\
                 int* q = a + 2;\n\
                 int same = (p == p);\n\
                 int diff = (p != q);\n\
                 int dist = q - p;\n\
                 return same * 100 + diff * 10 + dist;\n\
             }",
        );
        assert_eq!(r.exit_code, 112);
    }

    #[test]
    fn compound_assignment_operators() {
        let r = run_src(
            "int main() {\n\
                 int x = 7;\n\
                 x += 3; x -= 2; x *= 4; x /= 3; x %= 7;\n\
                 int y = 1;\n\
                 y <<= 4; y >>= 1; y |= 2; y &= 14; y ^= 1;\n\
                 return x * 100 + y;\n\
             }",
        );
        // x: 7+3=10, -2=8, *4=32, /3=10, %7=3. y: 16, 8, 10, 10, 11.
        assert_eq!(r.exit_code, 311);
    }

    #[test]
    fn ternary_nested_in_subscript() {
        let r = run_src(
            "int main() {\n\
                 int a[3] = {10, 20, 30};\n\
                 int k = 2;\n\
                 return a[k > 1 ? 2 : 0] - a[0];\n\
             }",
        );
        assert_eq!(r.exit_code, 20);
    }

    #[test]
    fn pre_vs_post_increment_values() {
        let r = run_src(
            "int main() {\n\
                 int i = 5;\n\
                 int a = i++;\n\
                 int b = ++i;\n\
                 return a * 10 + b; // 5*10 + 7\n\
             }",
        );
        assert_eq!(r.exit_code, 57);
    }

    #[test]
    fn char_and_string_literals() {
        let r = run_src(
            "int main() {\n\
                 char c = 'A';\n\
                 printf(\"%c%c\\n\", c, c + 1);\n\
                 return c;\n\
             }",
        );
        assert_eq!(r.exit_code, 65);
        assert_eq!(r.output, "AB\n");
    }

    #[test]
    fn global_initializers_evaluate_in_order() {
        let r = run_src(
            "int base = 10;\n\
             int scaled = 0;\n\
             int main() { scaled = base * 4; return scaled + base; }",
        );
        assert_eq!(r.exit_code, 50);
    }

    #[test]
    fn negative_modulo_matches_c_semantics() {
        let r = run_src("int main() { return (-7 % 3) + 10; }");
        // C: -7 % 3 == -1 (truncated division).
        assert_eq!(r.exit_code, 9);
    }

    /// Regression: two structs sharing a member name must not alias
    /// offsets. `s1.w` sits at offset 1, `s2.w` at offset 3 — the old
    /// name-keyed `field_offsets` map collapsed them to one entry.
    #[test]
    fn same_field_name_in_two_structs_does_not_alias() {
        let src = "\
struct s1 { int v; int w; };
struct s2 { int pad[3]; int w; };
int main() {
    struct s1 p;
    struct s2 q;
    p.v = 5;
    p.w = 7;
    q.w = 11;
    return p.v * 100 + p.w * 10 + q.w;
}
";
        let parsed = parse(src);
        assert!(!parsed.diags.has_errors());
        let prog = Program::new(&parsed.unit);
        // Layouts are keyed by (struct, field).
        assert_eq!(prog.field_offset("s1", "w"), Some((1, false)));
        assert_eq!(prog.field_offset("s2", "w"), Some((3, false)));
        assert_eq!(prog.field_offset("s2", "pad"), Some((0, true)));
        // Both engines compute through the non-aliased offsets.
        let resolved = prog.run(InterpOptions::default()).expect("resolved runs");
        let legacy = prog
            .run_legacy(InterpOptions::default())
            .expect("legacy runs");
        assert_eq!(resolved.exit_code, 5 * 100 + 7 * 10 + 11);
        assert_eq!(legacy.exit_code, resolved.exit_code);
    }

    /// The pointer-to-struct path (`->`) resolves through the same
    /// `(struct, field)` keying.
    #[test]
    fn arrow_access_disambiguates_struct_types() {
        let src = "\
struct a { int x; int y; };
struct b { int fill[5]; int y; };
int main() {
    struct a* pa = (struct a*) malloc(2 * sizeof(int));
    struct b* pb = (struct b*) malloc(6 * sizeof(int));
    pa->y = 21;
    pb->y = 2;
    return pa->y * pb->y;
}
";
        let parsed = parse(src);
        let prog = Program::new(&parsed.unit);
        let resolved = prog.run(InterpOptions::default()).expect("resolved");
        let legacy = prog.run_legacy(InterpOptions::default()).expect("legacy");
        assert_eq!(resolved.exit_code, 42);
        assert_eq!(legacy.exit_code, 42);
    }
}
