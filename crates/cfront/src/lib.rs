//! # cfront — C front end for the `pure-c` compiler chain
//!
//! This crate replaces the AntLR-based front end used in the paper
//! *Pure Functions in C: A Small Keyword for Automatic Parallelization*
//! (Süß et al.). It provides:
//!
//! * a lexer and recursive-descent parser for the C11 subset used by the
//!   paper's listings and evaluation applications, extended with the
//!   **`pure`** keyword on functions, pointers and casts (Sect. 3.1);
//! * a typed AST with source spans on every node;
//! * a pretty-printer that re-emits C text (the chain is source-to-source);
//! * mutable visitors used by the later pipeline stages;
//! * a diagnostics framework with stable error codes, so the purity
//!   verifier's rejections (Listings 2, 4, 5) are machine-checkable.
//!
//! ```
//! use cfront::parser::parse;
//!
//! let result = parse("pure int* func(pure int* p1, int p2);");
//! assert!(!result.diags.has_errors());
//! let f = result.unit.find_function("func").unwrap();
//! assert!(f.is_pure);
//! ```

pub mod ast;
pub mod diag;
pub mod intern;
pub mod lexer;
pub mod omp;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;
pub mod visit;

pub use ast::{
    AssignOp, BaseType, BinOp, Block, Declaration, Declarator, Expr, ExprKind, ForInit, Function,
    Item, LoopId, Param, PtrLevel, Stmt, StmtKind, StructDef, StructField, TranslationUnit, Type,
    Typedef, UnOp,
};
pub use diag::{Code, Diagnostic, Diagnostics, Severity};
pub use intern::{Interner, Symbol};
pub use parser::{parse, parse_expr_str, ParseResult};
pub use printer::{print_expr, print_stmt, print_unit};
pub use span::{LineCol, LineMap, Span};
