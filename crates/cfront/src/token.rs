//! Token definitions for the extended C subset.
//!
//! The token set covers C11 as exercised by the paper's listings and test
//! applications, plus the new `pure` keyword (Sect. 3.1 of the paper).

use crate::span::Span;
use std::fmt;

/// Keywords recognised by the lexer. `Pure` is the paper's extension; the
/// rest are standard C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Keyword {
    Pure,
    Int,
    Float,
    Double,
    Char,
    Void,
    Long,
    Short,
    Unsigned,
    Signed,
    Const,
    Static,
    Inline,
    Extern,
    Register,
    Volatile,
    Restrict,
    Struct,
    Union,
    Enum,
    Typedef,
    If,
    Else,
    For,
    While,
    Do,
    Return,
    Break,
    Continue,
    Switch,
    Case,
    Default,
    Goto,
    Sizeof,
}

impl Keyword {
    pub fn from_ident(s: &str) -> Option<Keyword> {
        use Keyword::*;
        Some(match s {
            "pure" => Pure,
            "int" => Int,
            "float" => Float,
            "double" => Double,
            "char" => Char,
            "void" => Void,
            "long" => Long,
            "short" => Short,
            "unsigned" => Unsigned,
            "signed" => Signed,
            "const" => Const,
            "static" => Static,
            "inline" => Inline,
            "extern" => Extern,
            "register" => Register,
            "volatile" => Volatile,
            "restrict" => Restrict,
            "struct" => Struct,
            "union" => Union,
            "enum" => Enum,
            "typedef" => Typedef,
            "if" => If,
            "else" => Else,
            "for" => For,
            "while" => While,
            "do" => Do,
            "return" => Return,
            "break" => Break,
            "continue" => Continue,
            "switch" => Switch,
            "case" => Case,
            "default" => Default,
            "goto" => Goto,
            "sizeof" => Sizeof,
            _ => return None,
        })
    }

    pub fn as_str(self) -> &'static str {
        use Keyword::*;
        match self {
            Pure => "pure",
            Int => "int",
            Float => "float",
            Double => "double",
            Char => "char",
            Void => "void",
            Long => "long",
            Short => "short",
            Unsigned => "unsigned",
            Signed => "signed",
            Const => "const",
            Static => "static",
            Inline => "inline",
            Extern => "extern",
            Register => "register",
            Volatile => "volatile",
            Restrict => "restrict",
            Struct => "struct",
            Union => "union",
            Enum => "enum",
            Typedef => "typedef",
            If => "if",
            Else => "else",
            For => "for",
            While => "while",
            Do => "do",
            Return => "return",
            Break => "break",
            Continue => "continue",
            Switch => "switch",
            Case => "case",
            Default => "default",
            Goto => "goto",
            Sizeof => "sizeof",
        }
    }
}

/// Punctuation and operator tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Arrow, // ->
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    PlusPlus,
    MinusMinus,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    AmpAmp,
    PipePipe,
    Shl, // <<
    Shr, // >>
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    Eq, // =
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    ShlEq,
    ShrEq,
    Question,
    Colon,
    Ellipsis, // ...
}

impl Punct {
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Dot => ".",
            Arrow => "->",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            PlusPlus => "++",
            MinusMinus => "--",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            AmpAmp => "&&",
            PipePipe => "||",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            Eq => "=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            Question => "?",
            Colon => ":",
            Ellipsis => "...",
        }
    }
}

/// A lexed token.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    Keyword(Keyword),
    Ident(String),
    /// Integer literal with its value (suffixes are consumed and recorded).
    IntLit {
        value: i64,
        unsigned: bool,
        long: bool,
    },
    /// Floating literal; `single` is true for an `f`/`F` suffix.
    FloatLit {
        value: f64,
        single: bool,
    },
    /// String literal with escapes already resolved.
    StrLit(String),
    /// Character literal with escapes resolved.
    CharLit(char),
    Punct(Punct),
    /// A preprocessor line that survived to the parser — in this chain only
    /// `#pragma ...` lines (OpenMP pragmas and any other). The payload is
    /// the directive text after `#`, e.g. `pragma omp parallel for`.
    Directive(String),
    Eof,
}

impl TokenKind {
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Keyword(k) => format!("keyword `{}`", k.as_str()),
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::IntLit { value, .. } => format!("integer literal `{value}`"),
            TokenKind::FloatLit { value, .. } => format!("float literal `{value}`"),
            TokenKind::StrLit(_) => "string literal".to_string(),
            TokenKind::CharLit(c) => format!("char literal `{c:?}`"),
            TokenKind::Punct(p) => format!("`{}`", p.as_str()),
            TokenKind::Directive(d) => format!("directive `#{d}`"),
            TokenKind::Eof => "end of input".to_string(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Pure,
            Keyword::Int,
            Keyword::Const,
            Keyword::Sizeof,
            Keyword::Typedef,
        ] {
            assert_eq!(Keyword::from_ident(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::from_ident("purely"), None);
        assert_eq!(Keyword::from_ident(""), None);
    }

    #[test]
    fn punct_strings_are_unique() {
        use std::collections::HashSet;
        let all = [
            Punct::LParen,
            Punct::RParen,
            Punct::LBrace,
            Punct::RBrace,
            Punct::LBracket,
            Punct::RBracket,
            Punct::Semi,
            Punct::Comma,
            Punct::Dot,
            Punct::Arrow,
            Punct::Plus,
            Punct::Minus,
            Punct::Star,
            Punct::Slash,
            Punct::Percent,
            Punct::PlusPlus,
            Punct::MinusMinus,
            Punct::Amp,
            Punct::Pipe,
            Punct::Caret,
            Punct::Tilde,
            Punct::Bang,
            Punct::AmpAmp,
            Punct::PipePipe,
            Punct::Shl,
            Punct::Shr,
            Punct::Lt,
            Punct::Gt,
            Punct::Le,
            Punct::Ge,
            Punct::EqEq,
            Punct::Ne,
            Punct::Eq,
            Punct::PlusEq,
            Punct::MinusEq,
            Punct::StarEq,
            Punct::SlashEq,
            Punct::PercentEq,
            Punct::AmpEq,
            Punct::PipeEq,
            Punct::CaretEq,
            Punct::ShlEq,
            Punct::ShrEq,
            Punct::Question,
            Punct::Colon,
            Punct::Ellipsis,
        ];
        let set: HashSet<&str> = all.iter().map(|p| p.as_str()).collect();
        assert_eq!(set.len(), all.len());
    }
}
