//! Hand-written lexer for the extended C subset.
//!
//! Replaces the AntLR-generated C11 lexer used by the paper. Comments are
//! skipped, `#`-directives are produced as [`TokenKind::Directive`] tokens
//! (the preprocessor runs before the parser, so only `#pragma` lines should
//! reach it), and the `pure` keyword is recognised natively.

use crate::diag::{Code, Diagnostics};
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    diags: Diagnostics,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            diags: Diagnostics::new(),
        }
    }

    /// Lex the whole buffer. The returned vector always ends with an `Eof`
    /// token. Lexing is error-tolerant: unknown bytes produce diagnostics and
    /// are skipped.
    pub fn tokenize(mut self) -> (Vec<Token>, Diagnostics) {
        let mut out = Vec::with_capacity(self.src.len() / 4);
        loop {
            let tok = self.next_token();
            let is_eof = tok.kind == TokenKind::Eof;
            out.push(tok);
            if is_eof {
                break;
            }
        }
        (out, self.diags)
    }

    fn peek(&self) -> u8 {
        *self.bytes.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.bytes.get(self.pos + 1).unwrap_or(&0)
    }

    fn peek3(&self) -> u8 {
        *self.bytes.get(self.pos + 2).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.pos += 1;
                }
                b'/' if self.peek2() == b'/' => {
                    while self.pos < self.bytes.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                }
                b'/' if self.peek2() == b'*' => self.skip_block_comment(),
                _ => break,
            }
        }
    }

    /// Skip the `/* … */` comment at the cursor.
    fn skip_block_comment(&mut self) {
        let start = self.pos;
        self.pos += 2;
        while self.pos + 1 < self.bytes.len() {
            if self.peek() == b'*' && self.peek2() == b'/' {
                self.pos += 2;
                return;
            }
            self.pos += 1;
        }
        self.pos = self.bytes.len();
        self.diags.error(
            Code::LexUnterminated,
            Span::new(start as u32, self.pos as u32),
            "unterminated block comment",
        );
    }

    fn next_token(&mut self) -> Token {
        self.skip_trivia();
        let start = self.pos;
        if self.pos >= self.bytes.len() {
            return Token {
                kind: TokenKind::Eof,
                span: Span::new(start as u32, start as u32),
            };
        }
        let b = self.peek();
        let kind = match b {
            b'#' => self.lex_directive(),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident_or_keyword(),
            b'0'..=b'9' => self.lex_number(),
            b'.' if self.peek2().is_ascii_digit() => self.lex_number(),
            b'"' => self.lex_string(),
            b'\'' => self.lex_char(),
            _ => self.lex_punct(),
        };
        Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        }
    }

    fn lex_directive(&mut self) -> TokenKind {
        // Consume to end of line, honouring backslash continuations. A
        // comment becomes one space, as in translation phase 3, so a
        // trailing `// note` is no part of the directive and a `/* … */`
        // may carry it onto the next line; a comment opener inside a
        // string or character literal is text.
        self.bump(); // '#'
        let mut text = Vec::new();
        let mut quote = None;
        while self.pos < self.bytes.len() {
            let b = self.peek();
            if b == b'\\' && self.peek2() == b'\n' {
                self.pos += 2;
                text.push(b' ');
                continue;
            }
            if b == b'\n' {
                break;
            }
            match quote {
                Some(q) => {
                    if b == q {
                        quote = None;
                    } else if b == b'\\' && self.pos + 1 < self.bytes.len() {
                        text.push(self.bump());
                    }
                }
                None if b == b'"' || b == b'\'' => quote = Some(b),
                None if b == b'/' && self.peek2() == b'/' => {
                    while self.pos < self.bytes.len() && self.peek() != b'\n' {
                        self.pos += 1;
                    }
                    break;
                }
                None if b == b'/' && self.peek2() == b'*' => {
                    self.skip_block_comment();
                    text.push(b' ');
                    continue;
                }
                None => {}
            }
            text.push(self.bump());
        }
        TokenKind::Directive(String::from_utf8_lossy(&text).trim().to_string())
    }

    fn lex_ident_or_keyword(&mut self) -> TokenKind {
        let start = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match Keyword::from_ident(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_string()),
        }
    }

    fn lex_number(&mut self) -> TokenKind {
        let start = self.pos;
        // Hex literals.
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.pos += 2;
            while self.peek().is_ascii_hexdigit() {
                self.pos += 1;
            }
            let digits = &self.src[start + 2..self.pos];
            let value = i64::from_str_radix(digits, 16).unwrap_or_else(|_| {
                self.diags.error(
                    Code::LexUnexpectedChar,
                    Span::new(start as u32, self.pos as u32),
                    "hex literal out of range",
                );
                0
            });
            let (unsigned, long) = self.lex_int_suffix();
            return TokenKind::IntLit {
                value,
                unsigned,
                long,
            };
        }

        let mut is_float = false;
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        if self.peek() == b'.' && self.peek2() != b'.' {
            is_float = true;
            self.pos += 1;
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), b'e' | b'E')
            && (self.peek2().is_ascii_digit()
                || (matches!(self.peek2(), b'+' | b'-') && self.peek3().is_ascii_digit()))
        {
            is_float = true;
            self.pos += 1; // e
            if matches!(self.peek(), b'+' | b'-') {
                self.pos += 1;
            }
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }

        let text = &self.src[start..self.pos];
        if is_float {
            let value: f64 = text.parse().unwrap_or(0.0);
            let single = matches!(self.peek(), b'f' | b'F');
            // Consume either the `f` (float) or `l` (long double) suffix.
            if single || matches!(self.peek(), b'l' | b'L') {
                self.pos += 1;
            }
            TokenKind::FloatLit { value, single }
        } else {
            let value: i64 = text.parse().unwrap_or_else(|_| {
                self.diags.error(
                    Code::LexUnexpectedChar,
                    Span::new(start as u32, self.pos as u32),
                    "integer literal out of range",
                );
                0
            });
            // `1.0f`-style handled above; here handle `1f` is invalid C, skip.
            let (unsigned, long) = self.lex_int_suffix();
            TokenKind::IntLit {
                value,
                unsigned,
                long,
            }
        }
    }

    fn lex_int_suffix(&mut self) -> (bool, bool) {
        let mut unsigned = false;
        let mut long = false;
        loop {
            match self.peek() {
                b'u' | b'U' if !unsigned => {
                    unsigned = true;
                    self.pos += 1;
                }
                b'l' | b'L' => {
                    long = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        (unsigned, long)
    }

    fn lex_escape(&mut self) -> char {
        // Caller consumed the backslash.
        match self.bump() {
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'0' => '\0',
            b'\\' => '\\',
            b'\'' => '\'',
            b'"' => '"',
            b'a' => '\x07',
            b'b' => '\x08',
            b'f' => '\x0c',
            b'v' => '\x0b',
            other => other as char,
        }
    }

    fn lex_string(&mut self) -> TokenKind {
        let start = self.pos;
        self.bump(); // opening quote
        let mut value = String::new();
        loop {
            if self.pos >= self.bytes.len() || self.peek() == b'\n' {
                self.diags.error(
                    Code::LexUnterminated,
                    Span::new(start as u32, self.pos as u32),
                    "unterminated string literal",
                );
                break;
            }
            match self.bump() {
                b'"' => break,
                b'\\' => value.push(self.lex_escape()),
                other => value.push(other as char),
            }
        }
        TokenKind::StrLit(value)
    }

    fn lex_char(&mut self) -> TokenKind {
        let start = self.pos;
        self.bump(); // opening quote
        let c = match self.bump() {
            b'\\' => self.lex_escape(),
            0 => {
                self.diags.error(
                    Code::LexUnterminated,
                    Span::new(start as u32, self.pos as u32),
                    "unterminated char literal",
                );
                '\0'
            }
            other => other as char,
        };
        if self.peek() == b'\'' {
            self.bump();
        } else {
            self.diags.error(
                Code::LexUnterminated,
                Span::new(start as u32, self.pos as u32),
                "unterminated char literal",
            );
        }
        TokenKind::CharLit(c)
    }

    fn lex_punct(&mut self) -> TokenKind {
        use Punct::*;
        let b = self.bump();
        let two = |l: &mut Self, second: u8, yes: Punct, no: Punct| -> Punct {
            if l.peek() == second {
                l.bump();
                yes
            } else {
                no
            }
        };
        let p = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'~' => Tilde,
            b'?' => Question,
            b':' => Colon,
            b'.' => {
                if self.peek() == b'.' && self.peek2() == b'.' {
                    self.pos += 2;
                    Ellipsis
                } else {
                    Dot
                }
            }
            b'+' => {
                if self.peek() == b'+' {
                    self.bump();
                    PlusPlus
                } else {
                    two(self, b'=', PlusEq, Plus)
                }
            }
            b'-' => {
                if self.peek() == b'-' {
                    self.bump();
                    MinusMinus
                } else if self.peek() == b'>' {
                    self.bump();
                    Arrow
                } else {
                    two(self, b'=', MinusEq, Minus)
                }
            }
            b'*' => two(self, b'=', StarEq, Star),
            b'/' => two(self, b'=', SlashEq, Slash),
            b'%' => two(self, b'=', PercentEq, Percent),
            b'^' => two(self, b'=', CaretEq, Caret),
            b'!' => two(self, b'=', Ne, Bang),
            b'=' => two(self, b'=', EqEq, Eq),
            b'&' => {
                if self.peek() == b'&' {
                    self.bump();
                    AmpAmp
                } else {
                    two(self, b'=', AmpEq, Amp)
                }
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    PipePipe
                } else {
                    two(self, b'=', PipeEq, Pipe)
                }
            }
            b'<' => {
                if self.peek() == b'<' {
                    self.bump();
                    two(self, b'=', ShlEq, Shl)
                } else {
                    two(self, b'=', Le, Lt)
                }
            }
            b'>' => {
                if self.peek() == b'>' {
                    self.bump();
                    two(self, b'=', ShrEq, Shr)
                } else {
                    two(self, b'=', Ge, Gt)
                }
            }
            other => {
                self.diags.error(
                    Code::LexUnexpectedChar,
                    Span::new((self.pos - 1) as u32, self.pos as u32),
                    format!("unexpected character `{}`", other as char),
                );
                // Skip and retry by emitting the next token in place.
                return self.next_token().kind;
            }
        };
        TokenKind::Punct(p)
    }
}

/// Convenience entry point: lex `src` into tokens plus diagnostics.
pub fn lex(src: &str) -> (Vec<Token>, Diagnostics) {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let (toks, diags) = lex(src);
        assert!(!diags.has_errors(), "{}", diags.render_all(src));
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_pure_function_declaration() {
        let ks = kinds("pure int* func(pure int* p1, int p2);");
        assert_eq!(ks[0], TokenKind::Keyword(Keyword::Pure));
        assert_eq!(ks[1], TokenKind::Keyword(Keyword::Int));
        assert_eq!(ks[2], TokenKind::Punct(Punct::Star));
        assert_eq!(ks[3], TokenKind::Ident("func".into()));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn lexes_numbers_with_suffixes() {
        let ks = kinds("0 42 4096 0.5 1.0f 3e8 1e-3 0x1F 7u 9L");
        assert_eq!(
            ks[0],
            TokenKind::IntLit {
                value: 0,
                unsigned: false,
                long: false
            }
        );
        assert_eq!(
            ks[1],
            TokenKind::IntLit {
                value: 42,
                unsigned: false,
                long: false
            }
        );
        assert_eq!(
            ks[3],
            TokenKind::FloatLit {
                value: 0.5,
                single: false
            }
        );
        assert_eq!(
            ks[4],
            TokenKind::FloatLit {
                value: 1.0,
                single: true
            }
        );
        assert_eq!(
            ks[5],
            TokenKind::FloatLit {
                value: 3e8,
                single: false
            }
        );
        assert_eq!(
            ks[6],
            TokenKind::FloatLit {
                value: 1e-3,
                single: false
            }
        );
        assert_eq!(
            ks[7],
            TokenKind::IntLit {
                value: 31,
                unsigned: false,
                long: false
            }
        );
        assert_eq!(
            ks[8],
            TokenKind::IntLit {
                value: 7,
                unsigned: true,
                long: false
            }
        );
        assert_eq!(
            ks[9],
            TokenKind::IntLit {
                value: 9,
                unsigned: false,
                long: true
            }
        );
    }

    #[test]
    fn lexes_operators_longest_match() {
        let ks = kinds("a >>= b <<= c != d == e <= f >= g && h || i -> j ++ -- ...");
        assert!(ks.contains(&TokenKind::Punct(Punct::ShrEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::ShlEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Ne)));
        assert!(ks.contains(&TokenKind::Punct(Punct::EqEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Le)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Ge)));
        assert!(ks.contains(&TokenKind::Punct(Punct::AmpAmp)));
        assert!(ks.contains(&TokenKind::Punct(Punct::PipePipe)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Arrow)));
        assert!(ks.contains(&TokenKind::Punct(Punct::PlusPlus)));
        assert!(ks.contains(&TokenKind::Punct(Punct::MinusMinus)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Ellipsis)));
    }

    #[test]
    fn skips_comments() {
        let ks = kinds("int a; // trailing\n/* block\n comment */ int b;");
        let idents: Vec<_> = ks
            .iter()
            .filter_map(|k| match k {
                TokenKind::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    /// A directive is its line; a comment in it is a space (one may run
    /// onto the next line), and one that opens inside a string literal is
    /// text.
    #[test]
    fn directives_capture_line() {
        let ks = kinds(
            "#pragma GCC ivdep\nint a;\n#pragma omp barrier\n\
             #pragma omp for /* private(a)\n */ nowait // rows\nint b;\n\
             #pragma message(\"a // b /* c\") // d",
        );
        assert_eq!(ks[0], TokenKind::Directive("pragma GCC ivdep".into()));
        assert_eq!(ks[4], TokenKind::Directive("pragma omp barrier".into()));
        assert_eq!(
            ks[5],
            TokenKind::Directive("pragma omp for   nowait".into())
        );
        assert_eq!(ks[6], TokenKind::Keyword(Keyword::Int));
        assert_eq!(
            ks[9],
            TokenKind::Directive("pragma message(\"a // b /* c\")".into())
        );
    }

    #[test]
    fn string_and_char_literals_resolve_escapes() {
        let ks = kinds(r#""hi\n\t" 'x' '\n' '\\'"#);
        assert_eq!(ks[0], TokenKind::StrLit("hi\n\t".into()));
        assert_eq!(ks[1], TokenKind::CharLit('x'));
        assert_eq!(ks[2], TokenKind::CharLit('\n'));
        assert_eq!(ks[3], TokenKind::CharLit('\\'));
    }

    #[test]
    fn unterminated_string_reports_error() {
        let (_, diags) = lex("\"oops\nint a;");
        assert!(diags.has_errors());
        assert!(diags.has_code(Code::LexUnterminated));
    }

    #[test]
    fn spans_point_into_source() {
        let src = "pure float dot();";
        let (toks, _) = lex(src);
        assert_eq!(toks[0].span.text(src), "pure");
        assert_eq!(toks[1].span.text(src), "float");
        assert_eq!(toks[2].span.text(src), "dot");
    }
}
