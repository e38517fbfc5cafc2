//! Affine expressions over named dimensions.
//!
//! An [`AffineExpr`] is `Σ cᵢ·xᵢ + k` with integer coefficients over
//! iterator/parameter names. The polyhedral model requires loop bounds and
//! array subscripts to be affine; [`AffineExpr::from_ast`] performs that
//! extraction and fails (returns `None`) on anything non-affine, which is
//! exactly the condition under which PluTo refuses a loop.

use cfront::ast::{BinOp, Expr, ExprKind, UnOp};
use std::collections::BTreeMap;
use std::fmt;

/// Integer affine expression: coefficient map + constant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AffineExpr {
    /// Sorted for deterministic iteration and display.
    pub coeffs: BTreeMap<String, i64>,
    pub konst: i64,
}

impl AffineExpr {
    pub fn constant(k: i64) -> Self {
        AffineExpr {
            coeffs: BTreeMap::new(),
            konst: k,
        }
    }

    pub fn var(name: impl Into<String>) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(name.into(), 1);
        AffineExpr { coeffs, konst: 0 }
    }

    pub fn term(name: impl Into<String>, coeff: i64) -> Self {
        let mut coeffs = BTreeMap::new();
        if coeff != 0 {
            coeffs.insert(name.into(), coeff);
        }
        AffineExpr { coeffs, konst: 0 }
    }

    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    pub fn coeff(&self, name: &str) -> i64 {
        self.coeffs.get(name).copied().unwrap_or(0)
    }

    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        let mut out = self.clone();
        for (name, c) in &other.coeffs {
            let e = out.coeffs.entry(name.clone()).or_insert(0);
            *e += c;
            if *e == 0 {
                out.coeffs.remove(name);
            }
        }
        out.konst += other.konst;
        out
    }

    pub fn sub(&self, other: &AffineExpr) -> AffineExpr {
        self.add(&other.neg())
    }

    pub fn neg(&self) -> AffineExpr {
        AffineExpr {
            coeffs: self.coeffs.iter().map(|(n, c)| (n.clone(), -c)).collect(),
            konst: -self.konst,
        }
    }

    pub fn scale(&self, k: i64) -> AffineExpr {
        if k == 0 {
            return AffineExpr::constant(0);
        }
        AffineExpr {
            coeffs: self
                .coeffs
                .iter()
                .map(|(n, c)| (n.clone(), c * k))
                .collect(),
            konst: self.konst * k,
        }
    }

    /// All dimension names referenced.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.coeffs.keys().map(String::as_str)
    }

    /// Extract an affine expression from a C AST expression. `None` when
    /// the expression is not affine (products of variables, division,
    /// calls, indexing…).
    pub fn from_ast(e: &Expr) -> Option<AffineExpr> {
        match &e.kind {
            ExprKind::IntLit(v) => Some(AffineExpr::constant(*v)),
            ExprKind::Ident(name) => Some(AffineExpr::var(name.clone())),
            ExprKind::Unary(UnOp::Neg, inner) => Some(AffineExpr::from_ast(inner)?.neg()),
            ExprKind::Binary(op, l, r) => {
                let lhs = AffineExpr::from_ast(l);
                let rhs = AffineExpr::from_ast(r);
                match op {
                    BinOp::Add => Some(lhs?.add(&rhs?)),
                    BinOp::Sub => Some(lhs?.sub(&rhs?)),
                    BinOp::Mul => {
                        let lhs = lhs?;
                        let rhs = rhs?;
                        if lhs.is_constant() {
                            Some(rhs.scale(lhs.konst))
                        } else if rhs.is_constant() {
                            Some(lhs.scale(rhs.konst))
                        } else {
                            None // variable × variable: not affine
                        }
                    }
                    _ => None,
                }
            }
            ExprKind::Cast(_, inner) => AffineExpr::from_ast(inner),
            _ => None,
        }
    }

    /// Convert back to a C AST expression (canonical form: terms in name
    /// order, constant last).
    pub fn to_ast(&self) -> Expr {
        let mut acc: Option<Expr> = None;
        for (name, &c) in &self.coeffs {
            if c == 0 {
                continue;
            }
            let term = if c == 1 {
                Expr::ident(name.clone())
            } else if c == -1 {
                Expr::new(
                    ExprKind::Unary(UnOp::Neg, Box::new(Expr::ident(name.clone()))),
                    cfront::span::Span::DUMMY,
                )
            } else {
                Expr::binary(BinOp::Mul, Expr::int(c.abs()), Expr::ident(name.clone()))
            };
            acc = Some(match acc {
                None => {
                    if c < -1 {
                        Expr::new(
                            ExprKind::Unary(UnOp::Neg, Box::new(term)),
                            cfront::span::Span::DUMMY,
                        )
                    } else {
                        term
                    }
                }
                Some(prev) => {
                    if c < 0 && c != -1 {
                        Expr::binary(BinOp::Sub, prev, term)
                    } else if c == -1 {
                        // term already carries the negation
                        Expr::binary(BinOp::Add, prev, term)
                    } else {
                        Expr::binary(BinOp::Add, prev, term)
                    }
                }
            });
        }
        match acc {
            None => Expr::int(self.konst),
            Some(expr) if self.konst == 0 => expr,
            Some(expr) if self.konst > 0 => Expr::binary(BinOp::Add, expr, Expr::int(self.konst)),
            Some(expr) => Expr::binary(BinOp::Sub, expr, Expr::int(-self.konst)),
        }
    }

    /// Evaluate under a full assignment; `None` if a variable is missing.
    pub fn eval(&self, env: &BTreeMap<String, i64>) -> Option<i64> {
        let mut v = self.konst;
        for (name, c) in &self.coeffs {
            v += c * env.get(name)?;
        }
        Some(v)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, c) in &self.coeffs {
            if *c == 0 {
                continue;
            }
            if first {
                match *c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    c => write!(f, "{c}{name}")?,
                }
                first = false;
            } else if *c > 0 {
                if *c == 1 {
                    write!(f, " + {name}")?;
                } else {
                    write!(f, " + {c}{name}")?;
                }
            } else if *c == -1 {
                write!(f, " - {name}")?;
            } else {
                write!(f, " - {}{name}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.konst)?;
        } else if self.konst > 0 {
            write!(f, " + {}", self.konst)?;
        } else if self.konst < 0 {
            write!(f, " - {}", -self.konst)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::parser::parse_expr_str;

    fn aff(src: &str) -> Option<AffineExpr> {
        AffineExpr::from_ast(&parse_expr_str(src).unwrap())
    }

    #[test]
    fn extracts_linear_expressions() {
        let e = aff("2 * i + j - 3").unwrap();
        assert_eq!(e.coeff("i"), 2);
        assert_eq!(e.coeff("j"), 1);
        assert_eq!(e.konst, -3);
    }

    #[test]
    fn extracts_nested_arithmetic() {
        let e = aff("4 * (i + 2) - (j - 1) * 3").unwrap();
        assert_eq!(e.coeff("i"), 4);
        assert_eq!(e.coeff("j"), -3);
        assert_eq!(e.konst, 8 + 3);
    }

    #[test]
    fn rejects_non_affine() {
        assert!(aff("i * j").is_none());
        assert!(aff("i / 2").is_none());
        assert!(aff("f(i)").is_none());
        assert!(aff("a[i]").is_none());
        assert!(aff("i % 4").is_none());
    }

    #[test]
    fn arithmetic_identities() {
        let a = aff("i + 1").unwrap();
        let b = aff("j - 1").unwrap();
        assert_eq!(a.add(&b), aff("i + j").unwrap());
        assert_eq!(a.sub(&a), AffineExpr::constant(0));
        assert_eq!(a.scale(3), aff("3 * i + 3").unwrap());
        assert_eq!(a.neg().neg(), a);
    }

    #[test]
    fn cancelled_coefficients_are_removed() {
        let e = aff("i - i + 4").unwrap();
        assert!(e.is_constant());
        assert_eq!(e.konst, 4);
        assert!(e.coeffs.is_empty());
    }

    #[test]
    fn round_trips_through_ast() {
        for src in ["i", "i + 1", "2 * i + 3 * j - 4", "-i + j", "7"] {
            let e = aff(src).unwrap();
            let back = AffineExpr::from_ast(&e.to_ast()).unwrap();
            assert_eq!(e, back, "round trip failed for {src}");
        }
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(aff("2 * i + j - 3").unwrap().to_string(), "2i + j - 3");
        assert_eq!(aff("-i").unwrap().to_string(), "-i");
        assert_eq!(AffineExpr::constant(0).to_string(), "0");
    }

    #[test]
    fn eval_under_assignment() {
        let e = aff("2 * i + j - 3").unwrap();
        let mut env = BTreeMap::new();
        env.insert("i".to_string(), 5);
        env.insert("j".to_string(), 1);
        assert_eq!(e.eval(&env), Some(8));
        env.remove("j");
        assert_eq!(e.eval(&env), None);
    }
}
