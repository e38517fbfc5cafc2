//! Pretty-printer: AST → C source text.
//!
//! The pipeline is source-to-source (Fig. 1 of the paper): the purity pass
//! and the polyhedral transformer both rewrite the AST and re-emit C. The
//! printer emits canonical formatting; `print ∘ parse ∘ print = print` is
//! verified by property tests.

use crate::ast::*;

/// Printer configuration. `indent` is the number of spaces per level.
#[derive(Debug, Clone, Copy)]
pub struct PrintOptions {
    pub indent: usize,
}

impl Default for PrintOptions {
    fn default() -> Self {
        PrintOptions { indent: 4 }
    }
}

/// Print a whole translation unit with default options.
pub fn print_unit(unit: &TranslationUnit) -> String {
    Printer::new(PrintOptions::default()).unit(unit)
}

/// Print a single expression (no trailing newline).
pub fn print_expr(e: &Expr) -> String {
    let mut p = Printer::new(PrintOptions::default());
    p.expr(e, 0);
    p.out
}

/// Print a single statement at indent level 0.
pub fn print_stmt(s: &Stmt) -> String {
    let mut p = Printer::new(PrintOptions::default());
    p.stmt(s, 0);
    p.out
}

struct Printer {
    opts: PrintOptions,
    out: String,
}

impl Printer {
    fn new(opts: PrintOptions) -> Self {
        Printer {
            opts,
            out: String::new(),
        }
    }

    fn pad(&mut self, level: usize) {
        for _ in 0..level * self.opts.indent {
            self.out.push(' ');
        }
    }

    fn unit(mut self, unit: &TranslationUnit) -> String {
        for (i, item) in unit.items.iter().enumerate() {
            if i > 0 {
                self.out.push('\n');
            }
            self.item(item);
        }
        self.out
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Function(f) => self.function(f),
            Item::Decl(d) => {
                self.declaration(d, 0);
                self.out.push('\n');
            }
            Item::Struct(s) => self.struct_def(s),
            Item::Typedef(t) => {
                self.out.push_str("typedef ");
                self.type_(&t.ty);
                self.out.push(' ');
                self.out.push_str(&t.name);
                self.out.push_str(";\n");
            }
            Item::Pragma(p) => {
                self.out.push('#');
                self.out.push_str(p);
                self.out.push('\n');
            }
        }
    }

    fn struct_def(&mut self, s: &StructDef) {
        self.out.push_str("struct ");
        self.out.push_str(&s.name);
        self.out.push_str(" {\n");
        for field in &s.fields {
            self.pad(1);
            self.type_(&field.ty);
            self.out.push(' ');
            self.out.push_str(&field.name);
            for dim in &field.array_dims {
                self.out.push('[');
                self.expr(dim, 0);
                self.out.push(']');
            }
            self.out.push_str(";\n");
        }
        self.out.push_str("};\n");
    }

    fn type_(&mut self, ty: &Type) {
        if ty.pure_qual {
            self.out.push_str("pure ");
        }
        if ty.base_const {
            self.out.push_str("const ");
        }
        self.out.push_str(&ty.base.to_string());
        for level in &ty.ptr {
            self.out.push('*');
            if level.is_const {
                self.out.push_str(" const");
            }
        }
    }

    fn function(&mut self, f: &Function) {
        if f.is_static {
            self.out.push_str("static ");
        }
        if f.is_inline {
            self.out.push_str("inline ");
        }
        if f.is_pure {
            self.out.push_str("pure ");
        }
        self.type_(&f.ret);
        self.out.push(' ');
        self.out.push_str(&f.name);
        self.out.push('(');
        if f.params.is_empty() && !f.varargs {
            self.out.push_str("void");
        }
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.type_(&p.ty);
            if let Some(name) = &p.name {
                self.out.push(' ');
                self.out.push_str(name);
            }
        }
        if f.varargs {
            if !f.params.is_empty() {
                self.out.push_str(", ");
            }
            self.out.push_str("...");
        }
        self.out.push(')');
        match &f.body {
            Some(body) => {
                self.out.push(' ');
                self.block(body, 0);
                self.out.push('\n');
            }
            None => self.out.push_str(";\n"),
        }
    }

    fn block(&mut self, b: &Block, level: usize) {
        self.out.push_str("{\n");
        for stmt in &b.stmts {
            self.stmt(stmt, level + 1);
        }
        self.pad(level);
        self.out.push('}');
    }

    fn declaration(&mut self, d: &Declaration, level: usize) {
        self.pad(level);
        for kw in &d.storage {
            self.out.push_str(kw);
            self.out.push(' ');
        }
        for (i, dec) in d.declarators.iter().enumerate() {
            if i == 0 {
                self.type_(&dec.ty);
                self.out.push(' ');
            } else {
                self.out.push_str(", ");
                for _ in 0..dec.ty.pointer_depth() {
                    self.out.push('*');
                }
            }
            self.out.push_str(&dec.name);
            for dim in &dec.array_dims {
                self.out.push('[');
                self.expr(dim, 0);
                self.out.push(']');
            }
            if let Some(init) = &dec.init {
                self.out.push_str(" = ");
                self.init_expr(init);
            }
        }
        self.out.push(';');
    }

    /// Initializer expression; the synthetic `__initlist(...)` marker prints
    /// back as a brace initializer.
    fn init_expr(&mut self, e: &Expr) {
        if let Some(("__initlist", args)) = e.as_direct_call() {
            self.out.push('{');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.init_expr(a);
            }
            self.out.push('}');
        } else {
            self.expr(e, 0);
        }
    }

    fn stmt(&mut self, s: &Stmt, level: usize) {
        match &s.kind {
            StmtKind::Decl(d) => {
                self.declaration(d, level);
                self.out.push('\n');
            }
            StmtKind::Expr(e) => {
                self.pad(level);
                if let Some(e) = e {
                    self.expr(e, 0);
                }
                self.out.push_str(";\n");
            }
            StmtKind::Block(b) => {
                self.pad(level);
                self.block(b, level);
                self.out.push('\n');
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.pad(level);
                self.out.push_str("if (");
                self.expr(cond, 0);
                self.out.push_str(")\n");
                self.nested_stmt(then_branch, level);
                if let Some(else_branch) = else_branch {
                    self.pad(level);
                    self.out.push_str("else\n");
                    self.nested_stmt(else_branch, level);
                }
            }
            StmtKind::While { cond, body } => {
                self.pad(level);
                self.out.push_str("while (");
                self.expr(cond, 0);
                self.out.push_str(")\n");
                self.nested_stmt(body, level);
            }
            StmtKind::DoWhile { body, cond } => {
                self.pad(level);
                self.out.push_str("do\n");
                self.nested_stmt(body, level);
                self.pad(level);
                self.out.push_str("while (");
                self.expr(cond, 0);
                self.out.push_str(");\n");
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
                scop,
                omp,
                ..
            } => {
                if let Some(header) = omp {
                    self.omp_header(header);
                }
                // PC-CC's mark, in the paper's notation.
                if *scop {
                    self.out.push_str("#pragma scop\n");
                }
                self.pad(level);
                self.out.push_str("for (");
                match init.as_ref() {
                    // `declaration` emits the trailing `;` that separates
                    // the init from the condition.
                    ForInit::Decl(d) => self.declaration(d, 0),
                    ForInit::Expr(e) => {
                        if let Some(e) = e {
                            self.expr(e, 0);
                        }
                        self.out.push(';');
                    }
                }
                self.out.push(' ');
                if let Some(c) = cond {
                    self.expr(c, 0);
                }
                self.out.push_str("; ");
                if let Some(st) = step {
                    self.expr(st, 0);
                }
                self.out.push_str(")\n");
                self.nested_stmt(body, level);
                if *scop {
                    self.out.push_str("#pragma endscop\n");
                }
            }
            StmtKind::Return(e) => {
                self.pad(level);
                self.out.push_str("return");
                if let Some(e) = e {
                    self.out.push(' ');
                    self.expr(e, 0);
                }
                self.out.push_str(";\n");
            }
            StmtKind::Break => {
                self.pad(level);
                self.out.push_str("break;\n");
            }
            StmtKind::Continue => {
                self.pad(level);
                self.out.push_str("continue;\n");
            }
            StmtKind::Pragma(p) => {
                // Pragmas are column-0 in C.
                self.out.push('#');
                self.out.push_str(p);
                self.out.push('\n');
            }
        }
    }

    /// A loop's OpenMP header, the one writer of its text. Pragmas are
    /// column-0 in C.
    fn omp_header(&mut self, h: &OmpFor) {
        let mut line = String::from(if h.parallel {
            "#pragma omp parallel for"
        } else {
            "#pragma omp for"
        });
        if !h.private.is_empty() {
            line += &format!(" private({})", h.private.join(", "));
        }
        if let Some(ScheduleClause { kind, chunk }) = h.schedule {
            let chunk = chunk.map_or(String::new(), |c| format!(",{c}"));
            line += &format!(" schedule({}{chunk})", kind.name());
        }
        for OmpClause { name, args, .. } in &h.other {
            line += &format!(" {name}");
            if let Some(args) = args {
                line += &format!("({args})");
            }
        }
        self.out.push_str(&line);
        self.out.push('\n');
    }

    /// A body statement of if/for/while: blocks print inline, single
    /// statements print indented one level deeper, and a SCoP-flagged
    /// loop prints inside braces.
    fn nested_stmt(&mut self, s: &Stmt, level: usize) {
        match &s.kind {
            StmtKind::Block(b) => {
                self.pad(level);
                self.block(b, level);
                self.out.push('\n');
            }
            // The markers need a block to stand in.
            StmtKind::For { scop: true, .. } => {
                self.pad(level);
                self.out.push_str("{\n");
                self.stmt(s, level + 1);
                self.pad(level);
                self.out.push_str("}\n");
            }
            _ => self.stmt(s, level + 1),
        }
    }

    /// `parent_prec` is the binding power of the context; sub-expressions
    /// with lower precedence get parentheses.
    fn expr(&mut self, e: &Expr, parent_prec: u8) {
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.out.push_str(&v.to_string());
            }
            ExprKind::FloatLit { value, single } => {
                let mut s = format!("{value}");
                if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN")
                {
                    s.push_str(".0");
                }
                self.out.push_str(&s);
                if *single {
                    self.out.push('f');
                }
            }
            ExprKind::StrLit(s) => {
                self.out.push('"');
                for c in s.chars() {
                    match c {
                        '\n' => self.out.push_str("\\n"),
                        '\t' => self.out.push_str("\\t"),
                        '\r' => self.out.push_str("\\r"),
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\0' => self.out.push_str("\\0"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            ExprKind::CharLit(c) => {
                self.out.push('\'');
                match c {
                    '\n' => self.out.push_str("\\n"),
                    '\t' => self.out.push_str("\\t"),
                    '\r' => self.out.push_str("\\r"),
                    '\\' => self.out.push_str("\\\\"),
                    '\'' => self.out.push_str("\\'"),
                    '\0' => self.out.push_str("\\0"),
                    c => self.out.push(*c),
                }
                self.out.push('\'');
            }
            ExprKind::Ident(name) => self.out.push_str(name),
            ExprKind::Unary(op, inner) => {
                const UNARY_PREC: u8 = 13;
                let paren = parent_prec > UNARY_PREC;
                if paren {
                    self.out.push('(');
                }
                match op {
                    UnOp::PostInc | UnOp::PostDec => {
                        self.expr(inner, 14);
                        self.out.push_str(op.as_str());
                    }
                    _ => {
                        self.out.push_str(op.as_str());
                        // Avoid `--x` from Neg(Neg(x)).
                        if matches!(op, UnOp::Neg)
                            && matches!(inner.kind, ExprKind::Unary(UnOp::Neg, _))
                        {
                            self.out.push(' ');
                        }
                        self.expr(inner, UNARY_PREC);
                    }
                }
                if paren {
                    self.out.push(')');
                }
            }
            ExprKind::Binary(op, l, r) => {
                let prec = op.precedence();
                let paren = parent_prec > prec;
                if paren {
                    self.out.push('(');
                }
                self.expr(l, prec);
                self.out.push(' ');
                self.out.push_str(op.as_str());
                self.out.push(' ');
                self.expr(r, prec + 1);
                if paren {
                    self.out.push(')');
                }
            }
            ExprKind::Assign(op, l, r) => {
                const ASSIGN_PREC: u8 = 2;
                let paren = parent_prec > ASSIGN_PREC;
                if paren {
                    self.out.push('(');
                }
                self.expr(l, ASSIGN_PREC + 1);
                self.out.push(' ');
                self.out.push_str(op.as_str());
                self.out.push(' ');
                self.expr(r, ASSIGN_PREC);
                if paren {
                    self.out.push(')');
                }
            }
            ExprKind::Ternary(c, t, f) => {
                const TERNARY_PREC: u8 = 2;
                let paren = parent_prec > TERNARY_PREC;
                if paren {
                    self.out.push('(');
                }
                self.expr(c, TERNARY_PREC + 1);
                self.out.push_str(" ? ");
                self.expr(t, 0);
                self.out.push_str(" : ");
                self.expr(f, TERNARY_PREC);
                if paren {
                    self.out.push(')');
                }
            }
            ExprKind::Call { callee, args } => {
                self.expr(callee, 14);
                self.out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.expr(a, 3); // assignment expressions need no parens
                }
                self.out.push(')');
            }
            ExprKind::Index(base, idx) => {
                self.expr(base, 14);
                self.out.push('[');
                self.expr(idx, 0);
                self.out.push(']');
            }
            ExprKind::Member {
                base,
                member,
                arrow,
            } => {
                self.expr(base, 14);
                self.out.push_str(if *arrow { "->" } else { "." });
                self.out.push_str(member);
            }
            ExprKind::Cast(ty, inner) => {
                const CAST_PREC: u8 = 13;
                let paren = parent_prec > CAST_PREC;
                if paren {
                    self.out.push('(');
                }
                self.out.push('(');
                self.type_(ty);
                self.out.push(')');
                self.expr(inner, CAST_PREC);
                if paren {
                    self.out.push(')');
                }
            }
            ExprKind::SizeofType(ty) => {
                self.out.push_str("sizeof(");
                self.type_(ty);
                self.out.push(')');
            }
            ExprKind::SizeofExpr(inner) => {
                self.out.push_str("sizeof(");
                self.expr(inner, 0);
                self.out.push(')');
            }
            ExprKind::Comma(l, r) => {
                let paren = parent_prec > 1;
                if paren {
                    self.out.push('(');
                }
                self.expr(l, 1);
                self.out.push_str(", ");
                self.expr(r, 1);
                if paren {
                    self.out.push(')');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr_str};

    fn round_trip(src: &str) -> String {
        let r = parse(src);
        assert!(!r.diags.has_errors(), "{}", r.diags.render_all(src));
        print_unit(&r.unit)
    }

    /// Canonical output must be a fixed point of parse∘print.
    fn assert_stable(src: &str) {
        let once = round_trip(src);
        let twice = round_trip(&once);
        assert_eq!(once, twice, "printer not idempotent for:\n{src}");
    }

    #[test]
    fn prints_listing1() {
        let out = round_trip("pure int* func(pure int* p1, int p2);");
        assert_eq!(out, "pure int* func(pure int* p1, int p2);\n");
    }

    #[test]
    fn prints_matmul_kernel_stably() {
        assert_stable(
            "float **A, **Bt, **C;\n\
             pure float mult(float a, float b) { return a * b; }\n\
             pure float dot(pure float* a, pure float* b, int size) {\n\
             float res = 0.0f;\n\
             for (int i = 0; i < size; ++i) res += mult(a[i], b[i]);\n\
             return res;\n}\n\
             int main(int argc, char** argv) {\n\
             for (int i = 0; i < 4096; ++i)\n\
             for (int j = 0; j < 4096; ++j)\n\
             C[i][j] = dot((pure float*)A[i], (pure float*)Bt[i], 4096);\n\
             return 0;\n}",
        );
    }

    #[test]
    fn parenthesises_by_precedence() {
        let e = parse_expr_str("(a + b) * c").unwrap();
        assert_eq!(print_expr(&e), "(a + b) * c");
        let e = parse_expr_str("a + b * c").unwrap();
        assert_eq!(print_expr(&e), "a + b * c");
        let e = parse_expr_str("-(a + b)").unwrap();
        assert_eq!(print_expr(&e), "-(a + b)");
        let e = parse_expr_str("*p++").unwrap();
        assert_eq!(print_expr(&e), "*p++");
    }

    #[test]
    fn float_literals_keep_suffix() {
        let e = parse_expr_str("0.0f").unwrap();
        assert_eq!(print_expr(&e), "0.0f");
        // Parse of the printed form must give the same value.
        let e2 = parse_expr_str(&print_expr(&e)).unwrap();
        assert_eq!(e2.kind, e.kind);
    }

    #[test]
    fn pragma_round_trip() {
        let out = round_trip(
            "void f() {\n#pragma scop\nfor (int i = 0; i < 4; i++) ;\n#pragma endscop\n}",
        );
        assert!(out.contains("#pragma scop"));
        assert!(out.contains("#pragma endscop"));
        assert_stable(&out);
    }

    #[test]
    fn struct_and_member_stable() {
        assert_stable(
            "struct datatype { int storage; };\n\
             void f(struct datatype* s) { s->storage = 3; }",
        );
    }

    #[test]
    fn initializer_lists_print_as_braces() {
        let out = round_trip("void f() { int a[3] = {1, 2, 3}; }");
        assert!(out.contains("int a[3] = {1, 2, 3};"), "{out}");
        assert_stable(&out);
    }

    #[test]
    fn sizeof_forms() {
        let e = parse_expr_str("sizeof(int)").unwrap();
        assert_eq!(print_expr(&e), "sizeof(int)");
        let e = parse_expr_str("sizeof(a[0])").unwrap();
        assert_eq!(print_expr(&e), "sizeof(a[0])");
    }

    #[test]
    fn comma_in_call_args_parenthesised() {
        // A comma expression as a single argument must keep its parens.
        let e = parse_expr_str("f((a, b), c)").unwrap();
        assert_eq!(print_expr(&e), "f((a, b), c)");
    }
}
