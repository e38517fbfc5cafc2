//! Abstract syntax tree for the extended C subset.
//!
//! The tree mirrors the structure the paper's pass operates on: translation
//! units containing function definitions/prototypes, global declarations and
//! pragmas. `pure` is a first-class qualifier on function definitions,
//! pointer declarations, parameters and casts (Sect. 3.1, Listings 1–4).

use crate::span::Span;
use std::fmt;

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

/// Scalar/base types of the subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BaseType {
    Void,
    Char,
    Short,
    Int,
    Long,
    UInt,
    ULong,
    Float,
    Double,
    /// `struct name` — member layout is declared separately (or opaquely).
    Struct(String),
    /// A `typedef`'d name that the parser knows is a type.
    Named(String),
}

impl BaseType {
    /// Size in bytes under our LP64 machine model.
    pub fn size_bytes(&self) -> usize {
        match self {
            BaseType::Void => 0,
            BaseType::Char => 1,
            BaseType::Short => 2,
            BaseType::Int | BaseType::UInt | BaseType::Float => 4,
            BaseType::Long | BaseType::ULong | BaseType::Double => 8,
            BaseType::Struct(_) | BaseType::Named(_) => 8,
        }
    }

    pub fn is_integer(&self) -> bool {
        matches!(
            self,
            BaseType::Char
                | BaseType::Short
                | BaseType::Int
                | BaseType::Long
                | BaseType::UInt
                | BaseType::ULong
        )
    }
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Void => write!(f, "void"),
            BaseType::Char => write!(f, "char"),
            BaseType::Short => write!(f, "short"),
            BaseType::Int => write!(f, "int"),
            BaseType::Long => write!(f, "long"),
            BaseType::UInt => write!(f, "unsigned int"),
            BaseType::ULong => write!(f, "unsigned long"),
            BaseType::Float => write!(f, "float"),
            BaseType::Double => write!(f, "double"),
            BaseType::Struct(name) => write!(f, "struct {name}"),
            BaseType::Named(name) => write!(f, "{name}"),
        }
    }
}

/// A full type: base type plus pointer levels with per-level qualifiers.
///
/// `pure float**` is represented as base `Float` with two [`PtrLevel`]s; the
/// `pure` flag lives on the *declaration* (`Type::pure`) because the paper
/// places the keyword in front of the whole declarator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Type {
    pub base: BaseType,
    /// Innermost-first pointer levels: `int**` has two entries.
    pub ptr: Vec<PtrLevel>,
    /// `const` on the base type (`const float* p`).
    pub base_const: bool,
    /// The paper's `pure` qualifier: write-protected, assign-once.
    pub pure_qual: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PtrLevel {
    pub is_const: bool,
}

impl Type {
    pub fn new(base: BaseType) -> Self {
        Type {
            base,
            ptr: Vec::new(),
            base_const: false,
            pure_qual: false,
        }
    }

    pub fn ptr_to(base: BaseType, levels: usize) -> Self {
        Type {
            base,
            ptr: vec![PtrLevel::default(); levels],
            base_const: false,
            pure_qual: false,
        }
    }

    pub fn with_pure(mut self) -> Self {
        self.pure_qual = true;
        self
    }

    pub fn with_const_base(mut self) -> Self {
        self.base_const = true;
        self
    }

    pub fn int() -> Self {
        Type::new(BaseType::Int)
    }

    pub fn float() -> Self {
        Type::new(BaseType::Float)
    }

    pub fn double() -> Self {
        Type::new(BaseType::Double)
    }

    pub fn void() -> Self {
        Type::new(BaseType::Void)
    }

    pub fn is_pointer(&self) -> bool {
        !self.ptr.is_empty()
    }

    pub fn pointer_depth(&self) -> usize {
        self.ptr.len()
    }

    /// Type after one dereference; `None` for non-pointers.
    pub fn deref(&self) -> Option<Type> {
        if self.ptr.is_empty() {
            return None;
        }
        let mut t = self.clone();
        t.ptr.pop();
        Some(t)
    }

    /// Byte size of a value of this type under the LP64 model.
    pub fn size_bytes(&self) -> usize {
        if self.is_pointer() {
            8
        } else {
            self.base.size_bytes()
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pure_qual {
            write!(f, "pure ")?;
        }
        if self.base_const {
            write!(f, "const ")?;
        }
        write!(f, "{}", self.base)?;
        for level in &self.ptr {
            write!(f, "*")?;
            if level.is_const {
                write!(f, " const")?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
    Deref,
    AddrOf,
    PreInc,
    PreDec,
    PostInc,
    PostDec,
}

impl UnOp {
    pub fn as_str(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
            UnOp::PreInc | UnOp::PostInc => "++",
            UnOp::PreDec | UnOp::PostDec => "--",
        }
    }

    /// True for the four increment/decrement forms — these *write* their
    /// operand, which matters to the purity verifier.
    pub fn writes_operand(self) -> bool {
        matches!(
            self,
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    And,
    Or,
}

impl BinOp {
    pub fn as_str(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::BitAnd => "&",
            BinOp::BitXor => "^",
            BinOp::BitOr => "|",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding power used by both the Pratt parser and the printer to decide
    /// parenthesisation. Higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Mul | BinOp::Div | BinOp::Rem => 12,
            BinOp::Add | BinOp::Sub => 11,
            BinOp::Shl | BinOp::Shr => 10,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => 9,
            BinOp::Eq | BinOp::Ne => 8,
            BinOp::BitAnd => 7,
            BinOp::BitXor => 6,
            BinOp::BitOr => 5,
            BinOp::And => 4,
            BinOp::Or => 3,
        }
    }
}

/// Compound-assignment operators (plus plain `=`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
}

impl AssignOp {
    pub fn as_str(self) -> &'static str {
        match self {
            AssignOp::Assign => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
            AssignOp::Rem => "%=",
            AssignOp::Shl => "<<=",
            AssignOp::Shr => ">>=",
            AssignOp::BitAnd => "&=",
            AssignOp::BitOr => "|=",
            AssignOp::BitXor => "^=",
        }
    }

    /// The underlying arithmetic op for compound assignments.
    pub fn binop(self) -> Option<BinOp> {
        Some(match self {
            AssignOp::Assign => return None,
            AssignOp::Add => BinOp::Add,
            AssignOp::Sub => BinOp::Sub,
            AssignOp::Mul => BinOp::Mul,
            AssignOp::Div => BinOp::Div,
            AssignOp::Rem => BinOp::Rem,
            AssignOp::Shl => BinOp::Shl,
            AssignOp::Shr => BinOp::Shr,
            AssignOp::BitAnd => BinOp::BitAnd,
            AssignOp::BitOr => BinOp::BitOr,
            AssignOp::BitXor => BinOp::BitXor,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    IntLit(i64),
    /// `single` marks an `f` suffix (C `float` literal).
    FloatLit {
        value: f64,
        single: bool,
    },
    StrLit(String),
    CharLit(char),
    Ident(String),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Assign(AssignOp, Box<Expr>, Box<Expr>),
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Direct or indirect call. In the subset the callee is almost always an
    /// identifier; the verifier rejects anything else inside pure code.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    Index(Box<Expr>, Box<Expr>),
    /// `base.member` (`arrow == false`) or `base->member` (`arrow == true`).
    Member {
        base: Box<Expr>,
        member: String,
        arrow: bool,
    },
    Cast(Type, Box<Expr>),
    SizeofType(Type),
    SizeofExpr(Box<Expr>),
    Comma(Box<Expr>, Box<Expr>),
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    pub fn int(value: i64) -> Self {
        Expr::new(ExprKind::IntLit(value), Span::DUMMY)
    }

    pub fn ident(name: impl Into<String>) -> Self {
        Expr::new(ExprKind::Ident(name.into()), Span::DUMMY)
    }

    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Self {
        Expr::new(
            ExprKind::Call {
                callee: Box::new(Expr::ident(name)),
                args,
            },
            Span::DUMMY,
        )
    }

    pub fn binary(op: BinOp, l: Expr, r: Expr) -> Self {
        Expr::new(ExprKind::Binary(op, Box::new(l), Box::new(r)), Span::DUMMY)
    }

    /// If this expression is a plain identifier, return its name.
    pub fn as_ident(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(name) => Some(name),
            _ => None,
        }
    }

    /// If this is a direct call (`f(...)`), return the callee name and args.
    pub fn as_direct_call(&self) -> Option<(&str, &[Expr])> {
        match &self.kind {
            ExprKind::Call { callee, args } => callee.as_ident().map(|n| (n, args.as_slice())),
            _ => None,
        }
    }

    /// The *root variable* of an lvalue expression: the identifier whose
    /// storage is ultimately written by an assignment to this expression.
    /// `a[i][j]`, `*p`, `s->field`, `(*q).x` all root at `a`/`p`/`s`/`q`.
    /// Returns `None` for rvalue shapes (calls, literals, arithmetic).
    pub fn lvalue_root(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(name) => Some(name),
            ExprKind::Index(base, _) => base.lvalue_root(),
            ExprKind::Unary(UnOp::Deref, inner) => inner.lvalue_root(),
            ExprKind::Member { base, .. } => base.lvalue_root(),
            ExprKind::Cast(_, inner) => inner.lvalue_root(),
            _ => None,
        }
    }

    /// True when an assignment to this expression writes *through* the root
    /// (dereference, index or `->`), as opposed to rebinding the variable
    /// itself. `p = x` rebinds; `*p = x` / `p[i] = x` / `p->f = x` write
    /// through. The purity rules treat these differently (Listing 4).
    pub fn writes_through_pointer(&self) -> bool {
        match &self.kind {
            ExprKind::Ident(_) => false,
            ExprKind::Index(..) | ExprKind::Unary(UnOp::Deref, _) => true,
            ExprKind::Member { arrow, base, .. } => *arrow || base.writes_through_pointer(),
            ExprKind::Cast(_, inner) => inner.writes_through_pointer(),
            _ => false,
        }
    }

    /// Visit this expression and all sub-expressions, outside-in.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        self.walk_pruned(&mut |e| {
            f(e);
            true
        });
    }

    /// [`Expr::walk`] that goes below a node only when `f` returns true
    /// for it.
    pub fn walk_pruned<'a>(&'a self, f: &mut dyn FnMut(&'a Expr) -> bool) {
        if !f(self) {
            return;
        }
        match &self.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit { .. }
            | ExprKind::StrLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::Ident(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Unary(_, e) | ExprKind::Cast(_, e) | ExprKind::SizeofExpr(e) => {
                e.walk_pruned(f);
            }
            ExprKind::Binary(_, l, r) | ExprKind::Comma(l, r) | ExprKind::Assign(_, l, r) => {
                l.walk_pruned(f);
                r.walk_pruned(f);
            }
            ExprKind::Ternary(c, t, e) => {
                c.walk_pruned(f);
                t.walk_pruned(f);
                e.walk_pruned(f);
            }
            ExprKind::Call { callee, args } => {
                callee.walk_pruned(f);
                for a in args {
                    a.walk_pruned(f);
                }
            }
            ExprKind::Index(b, i) => {
                b.walk_pruned(f);
                i.walk_pruned(f);
            }
            ExprKind::Member { base, .. } => base.walk_pruned(f),
        }
    }

    /// Collect names of all directly-called functions in this expression.
    pub fn called_functions(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Some((name, _)) = e.as_direct_call() {
                out.push(name);
            }
        });
        out
    }
}

// ---------------------------------------------------------------------------
// Declarations and statements
// ---------------------------------------------------------------------------

/// One declarator within a declaration: `int a = 3, *b, c[10];` yields three.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    pub name: String,
    pub ty: Type,
    /// Constant or symbolic array dimensions, outermost first.
    pub array_dims: Vec<Expr>,
    pub init: Option<Expr>,
    pub span: Span,
}

impl Declarator {
    pub fn is_array(&self) -> bool {
        !self.array_dims.is_empty()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Storage-class keywords that we carry through verbatim.
    pub storage: Vec<String>,
    pub declarators: Vec<Declarator>,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ForInit {
    Decl(Declaration),
    Expr(Option<Expr>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub span: Span,
}

/// Names one `for` statement of a translation unit across the stages that
/// move it, so a fact about the loop (its race verdict) can follow it from
/// the analysis to the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LoopId(pub u32);

impl LoopId {
    /// The id of a loop in a unit that was never numbered.
    pub const NONE: LoopId = LoopId(0);
}

/// Three-valued outcome of the static race analysis for one
/// `#pragma omp parallel for` loop, keyed by its [`LoopId`]: the
/// analyzer produces it, and every engine consumes it when the dynamic
/// race check is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopVerdict {
    /// Proven race-free: every iteration touches disjoint data. The
    /// dynamic race check is redundant and is skipped.
    Independent,
    /// Proven racy: a shared scalar write or a level-0-carried array
    /// dependence. Running this loop in parallel is a checked error: the
    /// region aborts before its first iteration.
    Racy,
    /// Analysis could not decide (non-affine, impure calls, reduction
    /// pattern, a hazard of the per-name model) — and the default for a
    /// loop the analysis never saw. The dynamic check is the backstop.
    #[default]
    Unknown,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    Decl(Declaration),
    /// Expression statement; `None` is the empty statement `;`.
    Expr(Option<Expr>),
    Block(Block),
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    DoWhile {
        body: Box<Stmt>,
        cond: Expr,
    },
    For {
        init: Box<ForInit>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
        /// The loop's number in its unit ([`crate::visit::number_loops`]);
        /// `LoopId::NONE` until the unit is numbered.
        id: LoopId,
        /// Built by polycc's code generator: polycc's note to its own
        /// post-passes (bound and row hoisting), which touch only the
        /// nests it built. No engine reads it; the bytecode tier lowers a
        /// loop by its header's shape. The flag is not printed.
        affine: bool,
        /// Set by PC-CC on the outermost nest it verified as a SCoP: every
        /// call in it is pure and it passes the Listing-5 check. polycc
        /// transforms exactly these nests; lowering clears the flag. The
        /// printer shows it as `#pragma scop` / `#pragma endscop`.
        scop: bool,
        /// The OpenMP header directly above the loop, when it has one: the
        /// user's, or the one polycc's code generator put on the parallel
        /// level it chose. Every engine runs the loop as a parallel region
        /// and the race analyzer judges it; the printer writes it as the
        /// `#pragma omp` line in front of the `for`. Boxed: few loops have
        /// one, and every statement is as large as this variant.
        omp: Option<Box<OmpFor>>,
    },
    Return(Option<Expr>),
    Break,
    Continue,
    /// A `#pragma ...` line in statement position that heads no loop,
    /// printed as written and run as an empty statement. An OpenMP loop
    /// header directly above a `for` is that loop's `omp` field instead.
    Pragma(String),
}

/// The OpenMP header of a `for`: `#pragma omp parallel for` or
/// `#pragma omp for` with its clauses. The parser builds it where the
/// pragma sits directly above the loop, as GCC requires, and the printer
/// writes it back; no other stage reads pragma text.
#[derive(Debug, Clone, PartialEq)]
pub struct OmpFor {
    /// `omp parallel for`, rather than `omp for`.
    pub parallel: bool,
    /// The `schedule` clause, when the runtime models it.
    pub schedule: Option<ScheduleClause>,
    /// The names of the `private(...)` clauses, in order.
    pub private: Vec<String>,
    /// Every clause the runtime does not model, as written, with the
    /// reason: `reduction(+:s)`, `collapse(2)`, `nowait`,
    /// `schedule(runtime)`.
    pub other: Vec<OmpClause>,
    /// The pragma line; clause diagnostics point here.
    pub span: Span,
}

impl OmpFor {
    /// A generated `omp parallel for` carrying `schedule` and no other
    /// clause: every inner iterator is declared in its own for-init,
    /// which makes it private already.
    pub fn parallel_for(schedule: Option<ScheduleClause>) -> Self {
        OmpFor {
            parallel: true,
            schedule,
            private: Vec::new(),
            other: Vec::new(),
            span: Span::DUMMY,
        }
    }
}

/// `schedule(kind)` or `schedule(kind,chunk)`, as written: `static` with
/// no chunk and `static, 1` are two clauses to GCC, whatever the runtime
/// makes of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleClause {
    pub kind: ScheduleKind,
    pub chunk: Option<u64>,
}

/// The schedule kinds the runtime models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    Static,
    Dynamic,
    Guided,
}

impl ScheduleKind {
    pub fn name(self) -> &'static str {
        match self {
            ScheduleKind::Static => "static",
            ScheduleKind::Dynamic => "dynamic",
            ScheduleKind::Guided => "guided",
        }
    }
}

/// A clause kept as written: its name and the text between its
/// parentheses, if it has any, and why the runtime does not model it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OmpClause {
    pub name: String,
    pub args: Option<String>,
    pub unmodelled: Unmodelled,
}

/// Why the runtime does not model a clause, as the parser found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unmodelled {
    /// A clause the runtime has no notion of: `reduction`, `nowait`.
    Clause,
    /// The loop's `schedule` names a kind other than `static`, `dynamic`
    /// or `guided` (`runtime`, `auto`); the loop runs `static`.
    ScheduleKind,
    /// The loop's `schedule` has a chunk that is not an integer constant;
    /// the loop runs `static`.
    ScheduleChunk,
}

impl Stmt {
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }

    /// Visit this statement and all nested statements, outside-in.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::Block(b) => {
                for s in &b.stmts {
                    s.walk(f);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.walk(f);
                if let Some(e) = else_branch {
                    e.walk(f);
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::For { body, .. } => body.walk(f),
            _ => {}
        }
    }

    /// Visit every expression contained in this statement subtree.
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        self.walk_exprs_pruned(&mut |e| {
            f(e);
            true
        });
    }

    /// [`Stmt::walk_exprs`] that goes below an expression only when `f`
    /// returns true for it.
    pub fn walk_exprs_pruned<'a>(&'a self, f: &mut dyn FnMut(&'a Expr) -> bool) {
        self.walk(&mut |s| match &s.kind {
            StmtKind::Decl(d) => {
                for dec in &d.declarators {
                    for dim in &dec.array_dims {
                        dim.walk_pruned(f);
                    }
                    if let Some(init) = &dec.init {
                        init.walk_pruned(f);
                    }
                }
            }
            StmtKind::Expr(Some(e)) | StmtKind::Return(Some(e)) => e.walk_pruned(f),
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::DoWhile { cond, .. } => cond.walk_pruned(f),
            StmtKind::For {
                init, cond, step, ..
            } => {
                match init.as_ref() {
                    ForInit::Decl(d) => {
                        for dec in &d.declarators {
                            if let Some(i) = &dec.init {
                                i.walk_pruned(f);
                            }
                        }
                    }
                    ForInit::Expr(Some(e)) => e.walk_pruned(f),
                    ForInit::Expr(None) => {}
                }
                if let Some(c) = cond {
                    c.walk_pruned(f);
                }
                if let Some(s2) = step {
                    s2.walk_pruned(f);
                }
            }
            _ => {}
        });
    }
}

// ---------------------------------------------------------------------------
// Top-level items
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: Option<String>,
    pub ty: Type,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    /// The paper's `pure` prefix on the function itself.
    pub is_pure: bool,
    pub is_static: bool,
    pub is_inline: bool,
    pub ret: Type,
    pub params: Vec<Param>,
    pub varargs: bool,
    /// `None` for prototypes.
    pub body: Option<Block>,
    pub span: Span,
}

impl Function {
    pub fn is_definition(&self) -> bool {
        self.body.is_some()
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct StructField {
    pub name: String,
    pub ty: Type,
    pub array_dims: Vec<Expr>,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<StructField>,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Typedef {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Function(Function),
    Decl(Declaration),
    Struct(StructDef),
    Typedef(Typedef),
    Pragma(String),
}

impl Item {
    pub fn span(&self) -> Span {
        match self {
            Item::Function(f) => f.span,
            Item::Decl(d) => d.span,
            Item::Struct(s) => s.span,
            Item::Typedef(t) => t.span,
            Item::Pragma(_) => Span::DUMMY,
        }
    }
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    pub items: Vec<Item>,
}

impl TranslationUnit {
    /// All function definitions and prototypes, in source order.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|i| match i {
            Item::Function(f) => Some(f),
            _ => None,
        })
    }

    pub fn functions_mut(&mut self) -> impl Iterator<Item = &mut Function> {
        self.items.iter_mut().filter_map(|i| match i {
            Item::Function(f) => Some(f),
            _ => None,
        })
    }

    /// Find a function *definition* by name (prototypes skipped unless no
    /// definition exists).
    pub fn find_function(&self, name: &str) -> Option<&Function> {
        self.functions()
            .filter(|f| f.name == name)
            .max_by_key(|f| f.is_definition())
    }

    /// Names of all global (file-scope) variables.
    pub fn global_variables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for item in &self.items {
            if let Item::Decl(d) = item {
                for dec in &d.declarators {
                    out.push(dec.name.as_str());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display_formats_pure_pointers() {
        let t = Type::ptr_to(BaseType::Float, 1).with_pure();
        assert_eq!(t.to_string(), "pure float*");
        let t2 = Type::ptr_to(BaseType::Int, 2);
        assert_eq!(t2.to_string(), "int**");
        let t3 = Type::new(BaseType::Double).with_const_base();
        assert_eq!(t3.to_string(), "const double");
    }

    #[test]
    fn deref_pops_pointer_levels() {
        let t = Type::ptr_to(BaseType::Float, 2);
        let d1 = t.deref().unwrap();
        assert_eq!(d1.pointer_depth(), 1);
        let d2 = d1.deref().unwrap();
        assert_eq!(d2.pointer_depth(), 0);
        assert!(d2.deref().is_none());
    }

    #[test]
    fn lvalue_root_traverses_indexing_and_deref() {
        // a[i][j]
        let e = Expr::new(
            ExprKind::Index(
                Box::new(Expr::new(
                    ExprKind::Index(Box::new(Expr::ident("a")), Box::new(Expr::ident("i"))),
                    Span::DUMMY,
                )),
                Box::new(Expr::ident("j")),
            ),
            Span::DUMMY,
        );
        assert_eq!(e.lvalue_root(), Some("a"));
        assert!(e.writes_through_pointer());

        let p = Expr::new(
            ExprKind::Unary(UnOp::Deref, Box::new(Expr::ident("p"))),
            Span::DUMMY,
        );
        assert_eq!(p.lvalue_root(), Some("p"));
        assert!(p.writes_through_pointer());

        let v = Expr::ident("v");
        assert_eq!(v.lvalue_root(), Some("v"));
        assert!(!v.writes_through_pointer());

        let call = Expr::call("f", vec![]);
        assert_eq!(call.lvalue_root(), None);
    }

    #[test]
    fn called_functions_are_collected_in_nested_exprs() {
        // f(g(x) + 1, h())
        let e = Expr::call(
            "f",
            vec![
                Expr::binary(
                    BinOp::Add,
                    Expr::call("g", vec![Expr::ident("x")]),
                    Expr::int(1),
                ),
                Expr::call("h", vec![]),
            ],
        );
        let calls = e.called_functions();
        assert!(calls.contains(&"f"));
        assert!(calls.contains(&"g"));
        assert!(calls.contains(&"h"));
        assert_eq!(calls.len(), 3);
    }

    #[test]
    fn size_bytes_lp64() {
        assert_eq!(Type::int().size_bytes(), 4);
        assert_eq!(Type::double().size_bytes(), 8);
        assert_eq!(Type::ptr_to(BaseType::Char, 1).size_bytes(), 8);
        assert_eq!(Type::new(BaseType::Short).size_bytes(), 2);
    }

    #[test]
    fn binop_precedence_orders_correctly() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Shl.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }
}
