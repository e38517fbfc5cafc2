//! The static control part (SCoP) model: what Clan/OpenScop provide in the
//! original PluTo stack.
//!
//! A [`Scop`] is a perfect loop nest with affine bounds whose innermost body
//! is a sequence of assignment statements with affine array subscripts.
//! (Imperfect nests are handled by the driver by descending to inner
//! perfect nests — see `extract`.)

use crate::affine::AffineExpr;
use crate::set::{Constraint, ConstraintSystem};
use cfront::ast::Stmt;
use std::collections::BTreeSet;
use std::fmt;

/// One loop dimension: `lb <= name <= ub` with unit stride.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopDim {
    pub name: String,
    pub lb: AffineExpr,
    pub ub: AffineExpr,
}

/// A single array (or scalar) access with affine subscripts. Scalars have
/// an empty `indices` vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    pub array: String,
    pub indices: Vec<AffineExpr>,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for ix in &self.indices {
            write!(f, "[{ix}]")?;
        }
        Ok(())
    }
}

/// A statement at the innermost level of the nest.
#[derive(Debug, Clone)]
pub struct PolyStmt {
    /// Position in the innermost body (textual order).
    pub id: usize,
    pub writes: Vec<Access>,
    pub reads: Vec<Access>,
    /// The original AST statement, re-emitted (with renamed iterators) by
    /// the code generator.
    pub ast: Stmt,
}

/// A static control part: perfect nest + statements.
#[derive(Debug, Clone)]
pub struct Scop {
    pub loops: Vec<LoopDim>,
    pub stmts: Vec<PolyStmt>,
    /// Symbolic parameters (size variables appearing in bounds/subscripts).
    pub params: BTreeSet<String>,
}

impl Scop {
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// Constraint system of the iteration domain over the iterator names.
    pub fn domain(&self) -> ConstraintSystem {
        let mut sys = ConstraintSystem::new();
        for dim in &self.loops {
            let it = AffineExpr::var(dim.name.clone());
            sys.push(Constraint::ge(&it, &dim.lb));
            sys.push(Constraint::le(&it, &dim.ub));
        }
        sys
    }

    /// Total number of iteration points when all bounds are constant.
    pub fn constant_trip_count(&self) -> Option<u64> {
        let mut total = 1u64;
        for dim in &self.loops {
            if !dim.lb.is_constant() || !dim.ub.is_constant() {
                return None;
            }
            let n = dim.ub.konst - dim.lb.konst + 1;
            if n <= 0 {
                return Some(0);
            }
            total = total.checked_mul(n as u64)?;
        }
        Some(total)
    }
}

impl fmt::Display for Scop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scop[")?;
        for (i, l) in self.loops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} in {}..={}", l.name, l.lb, l.ub)?;
        }
        write!(f, "] with {} stmt(s)", self.stmts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfront::ast::StmtKind;
    use cfront::span::Span;

    fn dim(name: &str, lo: i64, hi: i64) -> LoopDim {
        LoopDim {
            name: name.to_string(),
            lb: AffineExpr::constant(lo),
            ub: AffineExpr::constant(hi),
        }
    }

    fn dummy_stmt() -> PolyStmt {
        PolyStmt {
            id: 0,
            writes: vec![],
            reads: vec![],
            ast: Stmt::new(StmtKind::Expr(None), Span::DUMMY),
        }
    }

    #[test]
    fn domain_builds_box_constraints() {
        let scop = Scop {
            loops: vec![dim("i", 0, 9), dim("j", 1, 4)],
            stmts: vec![dummy_stmt()],
            params: BTreeSet::new(),
        };
        let d = scop.domain();
        assert_eq!(d.len(), 4);
        assert!(d.is_satisfiable());
        assert_eq!(scop.constant_trip_count(), Some(40));
    }

    #[test]
    fn parametric_domain_has_no_constant_trip_count() {
        let scop = Scop {
            loops: vec![LoopDim {
                name: "i".into(),
                lb: AffineExpr::constant(0),
                ub: AffineExpr::var("n").sub(&AffineExpr::constant(1)),
            }],
            stmts: vec![dummy_stmt()],
            params: ["n".to_string()].into_iter().collect(),
        };
        let vars = scop.domain().vars();
        assert!(vars.contains("i"));
        assert!(vars.contains("n"));
        assert_eq!(scop.constant_trip_count(), None);
    }

    #[test]
    fn empty_range_trip_count_zero() {
        let scop = Scop {
            loops: vec![dim("i", 5, 4)],
            stmts: vec![dummy_stmt()],
            params: BTreeSet::new(),
        };
        assert_eq!(scop.constant_trip_count(), Some(0));
    }
}
