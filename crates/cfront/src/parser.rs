//! Recursive-descent parser for the extended C subset.
//!
//! Grammar coverage matches the paper's listings and the four evaluation
//! applications: declarations (with `pure`), function definitions, structs,
//! typedefs, the full statement set, and C expressions with standard
//! precedence. The parser is deliberately strict — anything outside the
//! subset is a `ParseExpected` diagnostic, which mirrors the paper's stance
//! that the pass "assumes the C standard is not violated".

use crate::ast::*;
use crate::diag::{Code, Diagnostics};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use std::collections::HashSet;

pub struct Parser {
    toks: Vec<Token>,
    pos: usize,
    diags: Diagnostics,
    /// Names introduced by `typedef`, needed to disambiguate declarations.
    typedefs: HashSet<String>,
    /// Names introduced by `struct` definitions.
    structs: HashSet<String>,
}

/// Result of parsing: the unit plus all diagnostics (which may contain
/// errors — callers check `diags.has_errors()`).
pub struct ParseResult {
    pub unit: TranslationUnit,
    pub diags: Diagnostics,
}

/// Parse a full translation unit from source text.
pub fn parse(src: &str) -> ParseResult {
    let (toks, mut diags) = lex(src);
    let mut p = Parser {
        toks,
        pos: 0,
        diags: Diagnostics::new(),
        typedefs: HashSet::new(),
        structs: HashSet::new(),
    };
    let unit = p.parse_unit();
    diags.extend(p.diags);
    ParseResult { unit, diags }
}

/// Parse a single expression (used by tests and by the polyhedral codegen
/// round-trips).
pub fn parse_expr_str(src: &str) -> Result<Expr, Diagnostics> {
    let (toks, diags) = lex(src);
    if diags.has_errors() {
        return Err(diags);
    }
    let mut p = Parser {
        toks,
        pos: 0,
        diags: Diagnostics::new(),
        typedefs: HashSet::new(),
        structs: HashSet::new(),
    };
    let e = p.parse_expr();
    if p.diags.has_errors() {
        Err(p.diags)
    } else {
        Ok(e)
    }
}

impl Parser {
    // -- token plumbing ----------------------------------------------------

    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.peek().span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek_kind(), TokenKind::Punct(q) if *q == p)
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(q) if *q == k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Span {
        if self.at_punct(p) {
            self.bump().span
        } else {
            let found = self.peek_kind().describe();
            let sp = self.span();
            self.diags.error(
                Code::ParseExpected,
                sp,
                format!("expected `{}`, found {}", p.as_str(), found),
            );
            sp
        }
    }

    fn expect_ident(&mut self) -> (String, Span) {
        if let TokenKind::Ident(name) = self.peek_kind() {
            let name = name.clone();
            let sp = self.bump().span;
            (name, sp)
        } else {
            let found = self.peek_kind().describe();
            let sp = self.span();
            self.diags.error(
                Code::ParseExpected,
                sp,
                format!("expected identifier, found {found}"),
            );
            (String::from("<error>"), sp)
        }
    }

    /// Skip tokens until we pass a `;` or hit a `}`/EOF — basic error
    /// recovery so one bad statement does not cascade.
    fn synchronize(&mut self) {
        loop {
            if self.at_eof() {
                return;
            }
            if self.eat_punct(Punct::Semi) {
                return;
            }
            if self.at_punct(Punct::RBrace) {
                return;
            }
            self.bump();
        }
    }

    // -- types -------------------------------------------------------------

    fn at_type_start(&self) -> bool {
        match self.peek_kind() {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Pure
                    | Keyword::Const
                    | Keyword::Int
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Char
                    | Keyword::Void
                    | Keyword::Long
                    | Keyword::Short
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Struct
                    | Keyword::Static
                    | Keyword::Inline
                    | Keyword::Extern
                    | Keyword::Register
                    | Keyword::Volatile
                    | Keyword::Typedef
            ),
            TokenKind::Ident(name) => self.typedefs.contains(name),
            _ => false,
        }
    }

    /// Parse qualifiers + base type + pointer stars:
    /// `pure const unsigned long **`.
    fn parse_type(&mut self) -> Type {
        let mut pure_qual = false;
        let mut base_const = false;
        loop {
            if self.eat_keyword(Keyword::Pure) {
                pure_qual = true;
            } else if self.eat_keyword(Keyword::Const) {
                base_const = true;
            } else if self.eat_keyword(Keyword::Volatile) || self.eat_keyword(Keyword::Register) {
                // carried but ignored semantically
            } else {
                break;
            }
        }

        let base = self.parse_base_type();

        let mut ptr = Vec::new();
        loop {
            if self.eat_punct(Punct::Star) {
                let mut level = PtrLevel::default();
                while self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Restrict) {
                    level.is_const = true;
                }
                ptr.push(level);
            } else {
                break;
            }
        }

        Type {
            base,
            ptr,
            base_const,
            pure_qual,
        }
    }

    fn parse_base_type(&mut self) -> BaseType {
        let mut unsigned = false;
        let mut long_count = 0usize;
        let mut short = false;
        let mut seen_core: Option<BaseType> = None;

        loop {
            match self.peek_kind() {
                TokenKind::Keyword(Keyword::Unsigned) => {
                    unsigned = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Signed) => {
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Long) => {
                    long_count += 1;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Short) => {
                    short = true;
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Int) => {
                    seen_core = Some(BaseType::Int);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Char) => {
                    seen_core = Some(BaseType::Char);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Float) => {
                    seen_core = Some(BaseType::Float);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Double) => {
                    seen_core = Some(BaseType::Double);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Void) => {
                    seen_core = Some(BaseType::Void);
                    self.bump();
                }
                TokenKind::Keyword(Keyword::Struct) => {
                    self.bump();
                    let (name, _) = self.expect_ident();
                    seen_core = Some(BaseType::Struct(name));
                }
                TokenKind::Ident(name)
                    if seen_core.is_none()
                        && !unsigned
                        && long_count == 0
                        && !short
                        && self.typedefs.contains(name) =>
                {
                    let n = name.clone();
                    self.bump();
                    seen_core = Some(BaseType::Named(n));
                }
                _ => break,
            }
            // `struct X`/typedef name terminate the specifier list.
            if matches!(
                seen_core,
                Some(BaseType::Struct(_)) | Some(BaseType::Named(_))
            ) {
                break;
            }
        }

        match seen_core {
            Some(BaseType::Int) | None if short => BaseType::Short,
            Some(BaseType::Int) | None if long_count > 0 && unsigned => BaseType::ULong,
            Some(BaseType::Int) | None if long_count > 0 => BaseType::Long,
            Some(BaseType::Int) | None if unsigned => BaseType::UInt,
            Some(core) => core,
            None => {
                // Lone `unsigned`/`long` already handled; reaching here means
                // no specifier at all — report and default to int.
                let sp = self.span();
                self.diags.error(
                    Code::ParseExpected,
                    sp,
                    format!(
                        "expected type specifier, found {}",
                        self.peek_kind().describe()
                    ),
                );
                BaseType::Int
            }
        }
    }

    // -- top level ----------------------------------------------------------

    fn parse_unit(&mut self) -> TranslationUnit {
        let mut unit = TranslationUnit::default();
        while !self.at_eof() {
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                unit.items.push(item);
            }
            if self.pos == before {
                // Guarantee forward progress on malformed input.
                self.bump();
            }
        }
        unit
    }

    fn parse_item(&mut self) -> Option<Item> {
        // Pragmas / surviving directives.
        if let TokenKind::Directive(d) = self.peek_kind() {
            let d = d.clone();
            self.bump();
            return Some(Item::Pragma(d));
        }
        // Stray semicolons.
        if self.eat_punct(Punct::Semi) {
            return None;
        }

        // typedef
        if self.at_keyword(Keyword::Typedef) {
            return self.parse_typedef().map(Item::Typedef);
        }

        // struct definition `struct name { ... };` (distinguish from a
        // declaration `struct name x;`).
        if self.at_keyword(Keyword::Struct) {
            if let TokenKind::Ident(_) = self.peek_ahead(1) {
                if matches!(self.peek_ahead(2), TokenKind::Punct(Punct::LBrace)) {
                    return self.parse_struct_def().map(Item::Struct);
                }
            }
        }

        if !self.at_type_start() {
            let sp = self.span();
            self.diags.error(
                Code::ParseExpected,
                sp,
                format!(
                    "expected declaration or function definition, found {}",
                    self.peek_kind().describe()
                ),
            );
            self.synchronize();
            return None;
        }

        let start = self.span();
        // Storage-class prefixes.
        let mut is_static = false;
        let mut is_inline = false;
        let mut is_extern = false;
        loop {
            if self.eat_keyword(Keyword::Static) {
                is_static = true;
            } else if self.eat_keyword(Keyword::Inline) {
                is_inline = true;
            } else if self.eat_keyword(Keyword::Extern) {
                is_extern = true;
            } else {
                break;
            }
        }

        let ty = self.parse_type();
        let (name, _name_span) = self.expect_ident();

        if self.at_punct(Punct::LParen) {
            // Function prototype or definition.
            let f = self.parse_function_rest(name, ty, is_static, is_inline, start);
            return Some(Item::Function(f));
        }

        // Global variable declaration (possibly multiple declarators).
        let decl = self.parse_declaration_rest(ty, name, start, is_extern, is_static);
        Some(Item::Decl(decl))
    }

    fn parse_typedef(&mut self) -> Option<Typedef> {
        let start = self.span();
        self.bump(); // typedef
        let ty = self.parse_type();
        let (name, _) = self.expect_ident();
        let end = self.expect_punct(Punct::Semi);
        self.typedefs.insert(name.clone());
        Some(Typedef {
            name,
            ty,
            span: start.to(end),
        })
    }

    fn parse_struct_def(&mut self) -> Option<StructDef> {
        let start = self.span();
        self.bump(); // struct
        let (name, _) = self.expect_ident();
        self.expect_punct(Punct::LBrace);
        let mut fields = Vec::new();
        while !self.at_punct(Punct::RBrace) && !self.at_eof() {
            let fstart = self.span();
            let ty = self.parse_type();
            loop {
                let (fname, fspan) = self.expect_ident();
                let mut dims = Vec::new();
                while self.eat_punct(Punct::LBracket) {
                    let dim = self.parse_expr();
                    self.expect_punct(Punct::RBracket);
                    dims.push(dim);
                }
                fields.push(StructField {
                    name: fname,
                    ty: ty.clone(),
                    array_dims: dims,
                    span: fstart.to(fspan),
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::Semi);
        }
        self.expect_punct(Punct::RBrace);
        let end = self.expect_punct(Punct::Semi);
        self.structs.insert(name.clone());
        Some(StructDef {
            name,
            fields,
            span: start.to(end),
        })
    }

    fn parse_function_rest(
        &mut self,
        name: String,
        ret: Type,
        is_static: bool,
        is_inline: bool,
        start: Span,
    ) -> Function {
        self.expect_punct(Punct::LParen);
        let mut params = Vec::new();
        let mut varargs = false;
        if !self.at_punct(Punct::RParen) {
            loop {
                if self.at_punct(Punct::Ellipsis) {
                    self.bump();
                    varargs = true;
                    break;
                }
                let pstart = self.span();
                // `void` alone means no parameters.
                if self.at_keyword(Keyword::Void)
                    && matches!(self.peek_ahead(1), TokenKind::Punct(Punct::RParen))
                {
                    self.bump();
                    break;
                }
                let mut ty = self.parse_type();
                let pname = if let TokenKind::Ident(n) = self.peek_kind() {
                    let n = n.clone();
                    self.bump();
                    Some(n)
                } else {
                    None
                };
                // Array parameters decay to pointers: `int a[]`, `int a[N]`.
                while self.eat_punct(Punct::LBracket) {
                    if !self.at_punct(Punct::RBracket) {
                        let _ = self.parse_expr();
                    }
                    self.expect_punct(Punct::RBracket);
                    ty.ptr.push(PtrLevel::default());
                }
                params.push(Param {
                    name: pname,
                    ty,
                    span: pstart,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen);

        let is_pure = ret.pure_qual;
        // The `pure` on a function declaration marks the *function*; the
        // return type itself is not pure-qualified.
        let mut ret = ret;
        ret.pure_qual = false;

        let (body, end) = if self.at_punct(Punct::LBrace) {
            let block = self.parse_block();
            let end = block.span;
            (Some(block), end)
        } else {
            let end = self.expect_punct(Punct::Semi);
            (None, end)
        };

        Function {
            name,
            is_pure,
            is_static,
            is_inline,
            ret,
            params,
            varargs,
            body,
            span: start.to(end),
        }
    }

    fn parse_declaration_rest(
        &mut self,
        first_ty: Type,
        first_name: String,
        start: Span,
        is_extern: bool,
        is_static: bool,
    ) -> Declaration {
        let mut storage = Vec::new();
        if is_extern {
            storage.push("extern".to_string());
        }
        if is_static {
            storage.push("static".to_string());
        }

        let mut declarators = Vec::new();
        let mut name = first_name;
        let mut ty = first_ty;
        let base_ty = {
            // Subsequent declarators share the base type but re-parse stars:
            // `int a, *b;`
            let mut t = ty.clone();
            t.ptr.clear();
            t
        };
        loop {
            let dstart = self.span();
            let mut dims = Vec::new();
            while self.eat_punct(Punct::LBracket) {
                if self.at_punct(Punct::RBracket) {
                    // `int a[]` — unsized; record as 0 literal.
                    dims.push(Expr::int(0));
                } else {
                    dims.push(self.parse_assign_expr());
                }
                self.expect_punct(Punct::RBracket);
            }
            let init = if self.eat_punct(Punct::Eq) {
                Some(self.parse_initializer())
            } else {
                None
            };
            declarators.push(Declarator {
                name,
                ty,
                array_dims: dims,
                init,
                span: dstart,
            });

            if !self.eat_punct(Punct::Comma) {
                break;
            }
            // Next declarator: fresh pointer stars on the shared base.
            let mut t = base_ty.clone();
            while self.eat_punct(Punct::Star) {
                let mut level = PtrLevel::default();
                while self.eat_keyword(Keyword::Const) {
                    level.is_const = true;
                }
                t.ptr.push(level);
            }
            let (n, _) = self.expect_ident();
            name = n;
            ty = t;
        }
        let end = self.expect_punct(Punct::Semi);
        Declaration {
            storage,
            declarators,
            span: start.to(end),
        }
    }

    /// Brace initializers are parsed into a synthetic `Call` to the marker
    /// `__initlist` so they survive printing; scalar initializers are plain
    /// expressions.
    fn parse_initializer(&mut self) -> Expr {
        if self.at_punct(Punct::LBrace) {
            let start = self.span();
            self.bump();
            let mut elems = Vec::new();
            if !self.at_punct(Punct::RBrace) {
                loop {
                    elems.push(self.parse_initializer());
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                    if self.at_punct(Punct::RBrace) {
                        break; // trailing comma
                    }
                }
            }
            let end = self.expect_punct(Punct::RBrace);
            Expr::new(
                ExprKind::Call {
                    callee: Box::new(Expr::ident("__initlist")),
                    args: elems,
                },
                start.to(end),
            )
        } else {
            self.parse_assign_expr()
        }
    }

    // -- statements ----------------------------------------------------------

    fn parse_block(&mut self) -> Block {
        let start = self.expect_punct(Punct::LBrace);
        let mut stmts = Vec::new();
        while !self.at_punct(Punct::RBrace) && !self.at_eof() {
            let before = self.pos;
            stmts.push(self.parse_stmt());
            if self.pos == before {
                self.bump();
            }
        }
        let end = self.expect_punct(Punct::RBrace);
        Block {
            stmts,
            span: start.to(end),
        }
    }

    fn parse_stmt(&mut self) -> Stmt {
        let start = self.span();
        // Pragma in statement position. An OpenMP loop header belongs to
        // the `for` directly under it; anything else is a statement.
        if let TokenKind::Directive(d) = self.peek_kind() {
            let d = d.clone();
            self.bump();
            if self.at_keyword(Keyword::For) {
                if let Some(header) = omp_loop_header(&d, start, &mut self.diags) {
                    return self.parse_for(Some(header));
                }
            }
            return Stmt::new(StmtKind::Pragma(d), start);
        }

        match self.peek_kind() {
            TokenKind::Punct(Punct::LBrace) => {
                let b = self.parse_block();
                let sp = b.span;
                Stmt::new(StmtKind::Block(b), sp)
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Stmt::new(StmtKind::Expr(None), start)
            }
            TokenKind::Keyword(Keyword::If) => self.parse_if(),
            TokenKind::Keyword(Keyword::While) => self.parse_while(),
            TokenKind::Keyword(Keyword::Do) => self.parse_do_while(),
            TokenKind::Keyword(Keyword::For) => self.parse_for(None),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr())
                };
                let end = self.expect_punct(Punct::Semi);
                Stmt::new(StmtKind::Return(value), start.to(end))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                let end = self.expect_punct(Punct::Semi);
                Stmt::new(StmtKind::Break, start.to(end))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                let end = self.expect_punct(Punct::Semi);
                Stmt::new(StmtKind::Continue, start.to(end))
            }
            _ if self.at_type_start() => {
                let decl = self.parse_local_declaration();
                let sp = decl.span;
                Stmt::new(StmtKind::Decl(decl), sp)
            }
            _ => {
                let e = self.parse_expr();
                let end = self.expect_punct(Punct::Semi);
                if self.diags.has_errors() && !self.at_punct(Punct::RBrace) {
                    // Avoid infinite loops on malformed statements.
                }
                Stmt::new(StmtKind::Expr(Some(e)), start.to(end))
            }
        }
    }

    fn parse_local_declaration(&mut self) -> Declaration {
        let start = self.span();
        let mut is_static = false;
        loop {
            if self.eat_keyword(Keyword::Static) {
                is_static = true;
            } else if self.eat_keyword(Keyword::Extern) || self.eat_keyword(Keyword::Register) {
                // accepted, not tracked individually
            } else {
                break;
            }
        }
        let ty = self.parse_type();
        let (name, _) = self.expect_ident();
        self.parse_declaration_rest(ty, name, start, false, is_static)
    }

    fn parse_if(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // if
        self.expect_punct(Punct::LParen);
        let cond = self.parse_expr();
        self.expect_punct(Punct::RParen);
        let then_branch = Box::new(self.parse_stmt());
        let (else_branch, end) = if self.eat_keyword(Keyword::Else) {
            let e = self.parse_stmt();
            let sp = e.span;
            (Some(Box::new(e)), sp)
        } else {
            (None, then_branch.span)
        };
        Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            start.to(end),
        )
    }

    fn parse_while(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // while
        self.expect_punct(Punct::LParen);
        let cond = self.parse_expr();
        self.expect_punct(Punct::RParen);
        let body = Box::new(self.parse_stmt());
        let end = body.span;
        Stmt::new(StmtKind::While { cond, body }, start.to(end))
    }

    fn parse_do_while(&mut self) -> Stmt {
        let start = self.span();
        self.bump(); // do
        let body = Box::new(self.parse_stmt());
        if !self.eat_keyword(Keyword::While) {
            let sp = self.span();
            self.diags
                .error(Code::ParseExpected, sp, "expected `while` after do-body");
        }
        self.expect_punct(Punct::LParen);
        let cond = self.parse_expr();
        self.expect_punct(Punct::RParen);
        let end = self.expect_punct(Punct::Semi);
        Stmt::new(StmtKind::DoWhile { body, cond }, start.to(end))
    }

    fn parse_for(&mut self, omp: Option<Box<OmpFor>>) -> Stmt {
        let start = self.span();
        self.bump(); // for
        self.expect_punct(Punct::LParen);
        let init = if self.at_punct(Punct::Semi) {
            self.bump();
            ForInit::Expr(None)
        } else if self.at_type_start() {
            let decl = self.parse_local_declaration();
            ForInit::Decl(decl)
        } else {
            let e = self.parse_expr();
            self.expect_punct(Punct::Semi);
            ForInit::Expr(Some(e))
        };
        let cond = if self.at_punct(Punct::Semi) {
            None
        } else {
            Some(self.parse_expr())
        };
        self.expect_punct(Punct::Semi);
        let step = if self.at_punct(Punct::RParen) {
            None
        } else {
            Some(self.parse_expr())
        };
        self.expect_punct(Punct::RParen);
        let body = Box::new(self.parse_stmt());
        let end = body.span;
        Stmt::new(
            StmtKind::For {
                init: Box::new(init),
                cond,
                step,
                body,
                id: LoopId::NONE,
                affine: false,
                scop: false,
                omp,
            },
            start.to(end),
        )
    }

    // -- expressions ---------------------------------------------------------

    pub fn parse_expr(&mut self) -> Expr {
        let first = self.parse_assign_expr();
        if self.at_punct(Punct::Comma) {
            let mut e = first;
            while self.eat_punct(Punct::Comma) {
                let rhs = self.parse_assign_expr();
                let sp = e.span.to(rhs.span);
                e = Expr::new(ExprKind::Comma(Box::new(e), Box::new(rhs)), sp);
            }
            e
        } else {
            first
        }
    }

    fn parse_assign_expr(&mut self) -> Expr {
        let lhs = self.parse_ternary();
        let op = match self.peek_kind() {
            TokenKind::Punct(Punct::Eq) => Some(AssignOp::Assign),
            TokenKind::Punct(Punct::PlusEq) => Some(AssignOp::Add),
            TokenKind::Punct(Punct::MinusEq) => Some(AssignOp::Sub),
            TokenKind::Punct(Punct::StarEq) => Some(AssignOp::Mul),
            TokenKind::Punct(Punct::SlashEq) => Some(AssignOp::Div),
            TokenKind::Punct(Punct::PercentEq) => Some(AssignOp::Rem),
            TokenKind::Punct(Punct::ShlEq) => Some(AssignOp::Shl),
            TokenKind::Punct(Punct::ShrEq) => Some(AssignOp::Shr),
            TokenKind::Punct(Punct::AmpEq) => Some(AssignOp::BitAnd),
            TokenKind::Punct(Punct::PipeEq) => Some(AssignOp::BitOr),
            TokenKind::Punct(Punct::CaretEq) => Some(AssignOp::BitXor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_assign_expr(); // right-associative
            let sp = lhs.span.to(rhs.span);
            Expr::new(ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)), sp)
        } else {
            lhs
        }
    }

    fn parse_ternary(&mut self) -> Expr {
        let cond = self.parse_binary(0);
        if self.eat_punct(Punct::Question) {
            let then_e = self.parse_expr();
            self.expect_punct(Punct::Colon);
            let else_e = self.parse_assign_expr();
            let sp = cond.span.to(else_e.span);
            Expr::new(
                ExprKind::Ternary(Box::new(cond), Box::new(then_e), Box::new(else_e)),
                sp,
            )
        } else {
            cond
        }
    }

    fn peek_binop(&self) -> Option<BinOp> {
        Some(match self.peek_kind() {
            TokenKind::Punct(Punct::Plus) => BinOp::Add,
            TokenKind::Punct(Punct::Minus) => BinOp::Sub,
            TokenKind::Punct(Punct::Star) => BinOp::Mul,
            TokenKind::Punct(Punct::Slash) => BinOp::Div,
            TokenKind::Punct(Punct::Percent) => BinOp::Rem,
            TokenKind::Punct(Punct::Shl) => BinOp::Shl,
            TokenKind::Punct(Punct::Shr) => BinOp::Shr,
            TokenKind::Punct(Punct::Lt) => BinOp::Lt,
            TokenKind::Punct(Punct::Gt) => BinOp::Gt,
            TokenKind::Punct(Punct::Le) => BinOp::Le,
            TokenKind::Punct(Punct::Ge) => BinOp::Ge,
            TokenKind::Punct(Punct::EqEq) => BinOp::Eq,
            TokenKind::Punct(Punct::Ne) => BinOp::Ne,
            TokenKind::Punct(Punct::Amp) => BinOp::BitAnd,
            TokenKind::Punct(Punct::Caret) => BinOp::BitXor,
            TokenKind::Punct(Punct::Pipe) => BinOp::BitOr,
            TokenKind::Punct(Punct::AmpAmp) => BinOp::And,
            TokenKind::Punct(Punct::PipePipe) => BinOp::Or,
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> Expr {
        let mut lhs = self.parse_unary();
        while let Some(op) = self.peek_binop() {
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1); // left-associative
            let sp = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)), sp);
        }
        lhs
    }

    /// True when `( ... )` at the current position starts a cast rather than
    /// a parenthesised expression.
    fn at_cast(&self) -> bool {
        if !self.at_punct(Punct::LParen) {
            return false;
        }
        match self.peek_ahead(1) {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Pure
                    | Keyword::Const
                    | Keyword::Int
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Char
                    | Keyword::Void
                    | Keyword::Long
                    | Keyword::Short
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Struct
            ),
            TokenKind::Ident(name) => self.typedefs.contains(name),
            _ => false,
        }
    }

    fn parse_unary(&mut self) -> Expr {
        let start = self.span();
        match self.peek_kind() {
            TokenKind::Punct(Punct::Minus) => {
                self.bump();
                let e = self.parse_unary();
                let sp = start.to(e.span);
                Expr::new(ExprKind::Unary(UnOp::Neg, Box::new(e)), sp)
            }
            TokenKind::Punct(Punct::Plus) => {
                self.bump();
                self.parse_unary()
            }
            TokenKind::Punct(Punct::Bang) => {
                self.bump();
                let e = self.parse_unary();
                let sp = start.to(e.span);
                Expr::new(ExprKind::Unary(UnOp::Not, Box::new(e)), sp)
            }
            TokenKind::Punct(Punct::Tilde) => {
                self.bump();
                let e = self.parse_unary();
                let sp = start.to(e.span);
                Expr::new(ExprKind::Unary(UnOp::BitNot, Box::new(e)), sp)
            }
            TokenKind::Punct(Punct::Star) => {
                self.bump();
                let e = self.parse_unary();
                let sp = start.to(e.span);
                Expr::new(ExprKind::Unary(UnOp::Deref, Box::new(e)), sp)
            }
            TokenKind::Punct(Punct::Amp) => {
                self.bump();
                let e = self.parse_unary();
                let sp = start.to(e.span);
                Expr::new(ExprKind::Unary(UnOp::AddrOf, Box::new(e)), sp)
            }
            TokenKind::Punct(Punct::PlusPlus) => {
                self.bump();
                let e = self.parse_unary();
                let sp = start.to(e.span);
                Expr::new(ExprKind::Unary(UnOp::PreInc, Box::new(e)), sp)
            }
            TokenKind::Punct(Punct::MinusMinus) => {
                self.bump();
                let e = self.parse_unary();
                let sp = start.to(e.span);
                Expr::new(ExprKind::Unary(UnOp::PreDec, Box::new(e)), sp)
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                if self.at_cast() {
                    self.bump(); // (
                    let ty = self.parse_type();
                    let end = self.expect_punct(Punct::RParen);
                    Expr::new(ExprKind::SizeofType(ty), start.to(end))
                } else {
                    let e = self.parse_unary();
                    let sp = start.to(e.span);
                    Expr::new(ExprKind::SizeofExpr(Box::new(e)), sp)
                }
            }
            _ if self.at_cast() => {
                self.bump(); // (
                let ty = self.parse_type();
                self.expect_punct(Punct::RParen);
                let e = self.parse_unary();
                let sp = start.to(e.span);
                Expr::new(ExprKind::Cast(ty, Box::new(e)), sp)
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Expr {
        let mut e = self.parse_primary();
        loop {
            let start = e.span;
            match self.peek_kind() {
                TokenKind::Punct(Punct::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assign_expr());
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect_punct(Punct::RParen);
                    e = Expr::new(
                        ExprKind::Call {
                            callee: Box::new(e),
                            args,
                        },
                        start.to(end),
                    );
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.parse_expr();
                    let end = self.expect_punct(Punct::RBracket);
                    e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), start.to(end));
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let (member, msp) = self.expect_ident();
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            member,
                            arrow: false,
                        },
                        start.to(msp),
                    );
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let (member, msp) = self.expect_ident();
                    e = Expr::new(
                        ExprKind::Member {
                            base: Box::new(e),
                            member,
                            arrow: true,
                        },
                        start.to(msp),
                    );
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    let end = self.bump().span;
                    e = Expr::new(ExprKind::Unary(UnOp::PostInc, Box::new(e)), start.to(end));
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    let end = self.bump().span;
                    e = Expr::new(ExprKind::Unary(UnOp::PostDec, Box::new(e)), start.to(end));
                }
                _ => break,
            }
        }
        e
    }

    fn parse_primary(&mut self) -> Expr {
        let start = self.span();
        match self.peek_kind().clone() {
            TokenKind::IntLit { value, .. } => {
                self.bump();
                Expr::new(ExprKind::IntLit(value), start)
            }
            TokenKind::FloatLit { value, single } => {
                self.bump();
                Expr::new(ExprKind::FloatLit { value, single }, start)
            }
            TokenKind::StrLit(s) => {
                self.bump();
                Expr::new(ExprKind::StrLit(s), start)
            }
            TokenKind::CharLit(c) => {
                self.bump();
                Expr::new(ExprKind::CharLit(c), start)
            }
            TokenKind::Ident(name) => {
                self.bump();
                Expr::new(ExprKind::Ident(name), start)
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr();
                let end = self.expect_punct(Punct::RParen);
                Expr::new(e.kind, start.to(end))
            }
            other => {
                self.diags.error(
                    Code::ParseExpected,
                    start,
                    format!("expected expression, found {}", other.describe()),
                );
                self.bump();
                Expr::new(ExprKind::IntLit(0), start)
            }
        }
    }
}

/// Read `pragma omp parallel for …` / `pragma omp for …` (a directive's
/// text) as a loop header; `None` for any other pragma. Clauses may be
/// separated by commas and a name may stand apart from its `(`. The
/// `schedule` decides the loop's schedule: the runtime models `static`,
/// `dynamic` and `guided` with no chunk or an integer one. A second
/// `schedule` is an error, as it is to GCC ("too many 'schedule'
/// clauses"), and is dropped. The `private` lists are read; every other
/// clause is kept as written, with the reason the runtime does not model
/// it.
fn omp_loop_header(text: &str, span: Span, diags: &mut Diagnostics) -> Option<Box<OmpFor>> {
    /// The rest of `s` after the word `w`.
    fn word<'a>(s: &'a str, w: &str) -> Option<&'a str> {
        let rest = s.trim_start().strip_prefix(w)?;
        (rest.is_empty() || rest.starts_with(char::is_whitespace)).then_some(rest)
    }
    let rest = word(text, "pragma").and_then(|r| word(r, "omp"))?;
    let (parallel, mut rest) = match word(rest, "parallel") {
        Some(r) => (true, word(r, "for")?),
        None => (false, word(rest, "for")?),
    };
    let mut header = OmpFor {
        parallel,
        span,
        ..OmpFor::parallel_for(None)
    };
    let mut scheduled = false;
    loop {
        rest = rest.trim_start_matches(|c: char| c.is_whitespace() || c == ',');
        if rest.is_empty() {
            return Some(Box::new(header));
        }
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if len == 0 {
            // Stray punctuation: skip it rather than stop.
            rest = &rest[rest.chars().next().map_or(1, char::len_utf8)..];
            continue;
        }
        let name = &rest[..len];
        rest = &rest[len..];
        let args = match rest.trim_start().strip_prefix('(') {
            Some(open) => {
                let (args, after) = balanced_args(open);
                rest = after;
                Some(args)
            }
            None => None,
        };
        let unmodelled = match (name, args) {
            ("schedule", Some(args)) if scheduled => {
                diags.error(
                    Code::OmpDuplicateSchedule,
                    span,
                    format!(
                        "too many 'schedule' clauses: a second 'schedule({args})' after the first"
                    ),
                );
                continue;
            }
            ("schedule", Some(args)) => {
                scheduled = true;
                match schedule_clause(args) {
                    Ok(schedule) => {
                        header.schedule = Some(schedule);
                        continue;
                    }
                    Err(why) => why,
                }
            }
            ("private", Some(list)) => {
                header.private.extend(
                    list.split(',')
                        .map(str::trim)
                        .filter(|v| !v.is_empty())
                        .map(String::from),
                );
                continue;
            }
            _ => Unmodelled::Clause,
        };
        header.other.push(OmpClause {
            name: name.to_string(),
            args: args.map(String::from),
            unmodelled,
        });
    }
}

/// Split `text` (just after a clause's `(`) at its matching `)`: the
/// arguments and what follows. An unclosed clause takes the rest.
fn balanced_args(text: &str) -> (&str, &str) {
    let mut depth = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth == 0 => return (&text[..i], &text[i + 1..]),
            ')' => depth -= 1,
            _ => {}
        }
    }
    (text, "")
}

/// `kind[, chunk]` as a schedule the runtime models, or why it is not one.
fn schedule_clause(args: &str) -> Result<ScheduleClause, Unmodelled> {
    let (kind, chunk) = match args.split_once(',') {
        Some((kind, chunk)) => (kind, Some(chunk)),
        None => (args, None),
    };
    let kind = match kind.trim() {
        "static" => ScheduleKind::Static,
        "dynamic" => ScheduleKind::Dynamic,
        "guided" => ScheduleKind::Guided,
        _ => return Err(Unmodelled::ScheduleKind),
    };
    let chunk = chunk
        .map(|c| c.trim().parse().map_err(|_| Unmodelled::ScheduleChunk))
        .transpose()?;
    Ok(ScheduleClause { kind, chunk })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> TranslationUnit {
        let r = parse(src);
        assert!(
            !r.diags.has_errors(),
            "unexpected parse errors:\n{}",
            r.diags.render_all(src)
        );
        r.unit
    }

    #[test]
    fn parses_listing1_pure_declaration() {
        let unit = parse_ok("pure int* func(pure int* p1, int p2);");
        let f = unit.find_function("func").unwrap();
        assert!(f.is_pure);
        assert!(!f.is_definition());
        assert_eq!(f.ret.pointer_depth(), 1);
        assert_eq!(f.params.len(), 2);
        assert!(f.params[0].ty.pure_qual);
        assert!(!f.params[1].ty.pure_qual);
    }

    #[test]
    fn parses_function_definition_with_body() {
        let unit = parse_ok(
            "pure float dot(pure float* a, pure float* b, int size) {\n\
             float res = 0.0f;\n\
             for (int i = 0; i < size; ++i)\n\
                 res += a[i] * b[i];\n\
             return res;\n\
             }",
        );
        let f = unit.find_function("dot").unwrap();
        assert!(f.is_pure && f.is_definition());
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 3);
        assert!(matches!(body.stmts[1].kind, StmtKind::For { .. }));
    }

    #[test]
    fn parses_global_matrix_pointers() {
        let unit = parse_ok("float **A, **Bt, **C;");
        assert_eq!(unit.global_variables(), vec!["A", "Bt", "C"]);
        if let Item::Decl(d) = &unit.items[0] {
            for dec in &d.declarators {
                assert_eq!(dec.ty.pointer_depth(), 2);
            }
        } else {
            panic!("expected declaration");
        }
    }

    #[test]
    fn parses_pure_cast() {
        let unit = parse_ok(
            "int* globalPtr;\n\
             pure void f() { pure int* p; p = (pure int*)globalPtr; }",
        );
        let f = unit.find_function("f").unwrap();
        let body = f.body.as_ref().unwrap();
        if let StmtKind::Expr(Some(e)) = &body.stmts[1].kind {
            if let ExprKind::Assign(AssignOp::Assign, _, rhs) = &e.kind {
                if let ExprKind::Cast(ty, _) = &rhs.kind {
                    assert!(ty.pure_qual);
                    assert_eq!(ty.pointer_depth(), 1);
                    return;
                }
            }
        }
        panic!("expected pure cast assignment");
    }

    #[test]
    fn parses_malloc_with_sizeof() {
        let unit = parse_ok("void f() { int* c = (int*) malloc(3 * sizeof(int)); free(c); }");
        let f = unit.find_function("f").unwrap();
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
        if let StmtKind::Decl(d) = &body.stmts[0].kind {
            let init = d.declarators[0].init.as_ref().unwrap();
            assert!(matches!(init.kind, ExprKind::Cast(..)));
        } else {
            panic!("expected declaration");
        }
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let e = parse_expr_str("a + b * c").unwrap();
        if let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind {
            assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, ..)));
        } else {
            panic!("expected + at root, got {e:?}");
        }
    }

    #[test]
    fn precedence_relational_vs_logical() {
        let e = parse_expr_str("a < b && c >= d || e").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::Or, ..)));
    }

    #[test]
    fn assignment_is_right_associative() {
        let e = parse_expr_str("a = b = 3").unwrap();
        if let ExprKind::Assign(AssignOp::Assign, _, rhs) = &e.kind {
            assert!(matches!(rhs.kind, ExprKind::Assign(AssignOp::Assign, ..)));
        } else {
            panic!("expected nested assignment");
        }
    }

    #[test]
    fn parses_ternary_and_comma() {
        let e = parse_expr_str("a ? b : c, d").unwrap();
        assert!(matches!(e.kind, ExprKind::Comma(..)));
    }

    #[test]
    fn parses_struct_definition_and_member_access() {
        let unit = parse_ok(
            "struct datatype { int storage; float vals[4]; };\n\
             void f(struct datatype* s) { s->storage = 3; }",
        );
        assert!(matches!(unit.items[0], Item::Struct(_)));
        let f = unit.find_function("f").unwrap();
        let body = f.body.as_ref().unwrap();
        if let StmtKind::Expr(Some(e)) = &body.stmts[0].kind {
            if let ExprKind::Assign(_, lhs, _) = &e.kind {
                assert!(matches!(lhs.kind, ExprKind::Member { arrow: true, .. }));
                return;
            }
        }
        panic!("expected member assignment");
    }

    #[test]
    fn parses_typedef_and_uses_it() {
        let unit = parse_ok("typedef float real;\nreal square(real x) { return x * x; }");
        let f = unit.find_function("square").unwrap();
        assert_eq!(f.ret.base, BaseType::Named("real".into()));
    }

    #[test]
    fn parses_pragmas_in_statement_position() {
        let unit = parse_ok(
            "void f() {\n#pragma GCC ivdep\nfor (int i = 0; i < 10; i++) ;\n#pragma omp barrier\n}",
        );
        let f = unit.find_function("f").unwrap();
        let body = f.body.as_ref().unwrap();
        assert!(matches!(&body.stmts[0].kind, StmtKind::Pragma(p) if p == "pragma GCC ivdep"));
        assert!(matches!(&body.stmts[2].kind, StmtKind::Pragma(p) if p == "pragma omp barrier"));
    }

    #[test]
    fn parses_array_declarations() {
        let unit = parse_ok("void f() { int array[100]; float grid[64][64]; array[0] = 1; }");
        let f = unit.find_function("f").unwrap();
        let body = f.body.as_ref().unwrap();
        if let StmtKind::Decl(d) = &body.stmts[1].kind {
            assert_eq!(d.declarators[0].array_dims.len(), 2);
        } else {
            panic!();
        }
    }

    #[test]
    fn parses_main_with_argc_argv() {
        let unit = parse_ok("int main(int argc, char** argv) { return 0; }");
        let f = unit.find_function("main").unwrap();
        assert_eq!(f.params[1].ty.pointer_depth(), 2);
    }

    #[test]
    fn error_recovery_continues_after_bad_statement() {
        let r = parse("void f() { int x = ; x = 1; } int g() { return 2; }");
        assert!(r.diags.has_errors());
        assert!(r.unit.find_function("g").is_some());
    }

    #[test]
    fn unsigned_long_types() {
        let unit = parse_ok("unsigned int a; unsigned long b; long c; short d;");
        let tys: Vec<BaseType> = unit
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Decl(d) => Some(d.declarators[0].ty.base.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            tys,
            vec![
                BaseType::UInt,
                BaseType::ULong,
                BaseType::Long,
                BaseType::Short
            ]
        );
    }

    #[test]
    fn do_while_and_switch_free_subset() {
        let unit = parse_ok("void f() { int i = 0; do { i++; } while (i < 10); }");
        let f = unit.find_function("f").unwrap();
        assert!(matches!(
            f.body.as_ref().unwrap().stmts[1].kind,
            StmtKind::DoWhile { .. }
        ));
    }

    #[test]
    fn brace_initializers_survive() {
        let unit = parse_ok("void f() { int a[3] = {1, 2, 3}; }");
        let f = unit.find_function("f").unwrap();
        if let StmtKind::Decl(d) = &f.body.as_ref().unwrap().stmts[0].kind {
            let init = d.declarators[0].init.as_ref().unwrap();
            if let Some((name, args)) = init.as_direct_call() {
                assert_eq!(name, "__initlist");
                assert_eq!(args.len(), 3);
                return;
            }
        }
        panic!("expected init list");
    }

    /// A statement's shape: loops with their headers, pragmas, blocks.
    fn outline(s: &Stmt) -> String {
        match &s.kind {
            StmtKind::If { then_branch, .. } => format!("if({})", outline(then_branch)),
            StmtKind::For { body, omp, .. } => {
                let omp = if omp.is_some() { "omp " } else { "" };
                format!("{omp}for({})", outline(body))
            }
            StmtKind::Block(b) => {
                let stmts: Vec<String> = b.stmts.iter().map(outline).collect();
                format!("{{{}}}", stmts.join(" "))
            }
            StmtKind::Pragma(p) => format!("#{p}"),
            _ => "s".into(),
        }
    }

    /// A header heads the `for` directly under it, wherever that `for`
    /// stands: in a block, or as the braceless body of an `if` or a `for`.
    /// With anything else under it (a statement, another pragma, the end
    /// of its block) it is a statement of its own, and so is any other
    /// pragma.
    #[test]
    fn a_header_attaches_to_the_for_directly_under_it() {
        let unit = parse_ok(
            "void f(int c) {\n\
             if (c)\n#pragma omp parallel for\nfor (;;) ;\n\
             for (;;)\n#pragma omp for schedule(static)\nfor (;;) ;\n\
             #pragma omp parallel for\n#pragma omp simd\nfor (;;) ;\n\
             #pragma omp parallel for\nc = 1;\n\
             { c = 2;\n#pragma omp parallel for\n}\n\
             #pragma omp parallel\nfor (;;) ;\n\
             }",
        );
        let body = &unit
            .find_function("f")
            .unwrap()
            .body
            .as_ref()
            .unwrap()
            .stmts;
        let shape: Vec<String> = body.iter().map(outline).collect();
        assert_eq!(
            shape.join(" "),
            "if(omp for(s)) for(omp for(s)) \
             #pragma omp parallel for #pragma omp simd for(s) \
             #pragma omp parallel for s {s #pragma omp parallel for} \
             #pragma omp parallel for(s)"
        );
    }

    /// A header with two `schedule` clauses is an error at the pragma, as
    /// it is to GCC; the first clause stays the loop's schedule.
    #[test]
    fn a_second_schedule_clause_is_an_error() {
        let src = "void f() {\n#pragma omp parallel for schedule(dynamic, 4) schedule(static)\n\
                   for (;;) ;\n}";
        let r = parse(src);
        let errors: Vec<_> = r
            .diags
            .items()
            .iter()
            .map(|d| (d.code, d.span.start))
            .collect();
        assert_eq!(errors, [(Code::OmpDuplicateSchedule, 11)]);
        let f = r.unit.find_function("f").unwrap();
        let StmtKind::For { omp: Some(h), .. } = &f.body.as_ref().unwrap().stmts[0].kind else {
            panic!("no header");
        };
        assert_eq!(
            h.schedule.map(|s| (s.kind.name(), s.chunk)),
            Some(("dynamic", Some(4)))
        );
        assert!(h.other.is_empty(), "{:?}", h.other);
    }

    /// Each header as written, as the printer writes it back, and the
    /// schedule the parser read from it (`-` for none the runtime
    /// models). A printed header means to GCC what the user's meant: every
    /// clause survives with its arguments, `schedule(static, 1)` stays
    /// apart from `schedule(static)`, a schedule the runtime does not
    /// model is kept as written, a comment on the line is no clause, and
    /// printing is a fixed point.
    #[test]
    fn a_header_reads_its_clauses_and_prints_back_to_what_it_means() {
        const CASES: &str = "\
            parallel for => parallel for | -
            for schedule(static) => for schedule(static) | static
            parallel for schedule(static, 1) => parallel for schedule(static,1) | static,1
            parallel for schedule(static, 8) => parallel for schedule(static,8) | static,8
            parallel for schedule(dynamic, 4) => parallel for schedule(dynamic,4) | dynamic,4
            parallel for schedule(guided) => parallel for schedule(guided) | guided
            parallel for private(t2t, t1, t2) schedule(dynamic,2) => \
                parallel for private(t2t, t1, t2) schedule(dynamic,2) | dynamic,2
            parallel for schedule(dynamic,1) private (x) => \
                parallel for private(x) schedule(dynamic,1) | dynamic,1
            parallel for schedule(runtime) => parallel for schedule(runtime) | -
            parallel for schedule(dynamic, n) => parallel for schedule(dynamic, n) | -
            parallel for reduction(+:sum) collapse(2), nowait if(f(x)) => \
                parallel for reduction(+:sum) collapse(2) nowait if(f(x)) | -
            parallel for // rows => parallel for | -
            parallel for /* schedule(dynamic, 4) */ private(i) // schedule(guided) => \
                parallel for private(i) | -";
        for case in CASES.lines() {
            let (written, rest) = case.trim().split_once(" => ").unwrap();
            let (printed, schedule) = rest.split_once(" | ").unwrap();
            let unit = parse_ok(&format!(
                "void f() {{\n#pragma omp {written}\nfor (;;) ;\n}}"
            ));
            let f = unit.find_function("f").unwrap();
            let StmtKind::For { omp: Some(h), .. } = &f.body.as_ref().unwrap().stmts[0].kind else {
                panic!("{written}: no header");
            };
            let read = h.schedule.map_or("-".to_string(), |s| {
                s.kind.name().to_string() + &s.chunk.map_or(String::new(), |c| format!(",{c}"))
            });
            assert_eq!(read, schedule, "{written}");
            let once = crate::printer::print_unit(&unit);
            let line = format!("\n#pragma omp {printed}\n    for (");
            assert!(once.contains(&line), "{written}:\n{once}");
            assert_eq!(crate::printer::print_unit(&parse_ok(&once)), once);
        }
    }
}
