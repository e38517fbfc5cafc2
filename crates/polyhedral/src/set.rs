//! Linear constraint systems (the "Z-polyhedra" of the paper's Fig. 2).
//!
//! A [`ConstraintSystem`] is a conjunction of affine constraints
//! (`expr ≥ 0` or `expr = 0`) over named dimensions. Emptiness is decided
//! by Fourier–Motzkin elimination (see [`crate::fourier_motzkin`]); the
//! test is exact over the rationals and *conservative* over the integers
//! (it may report a rationally-feasible/integer-empty system as non-empty,
//! which for dependence analysis errs on the safe side: a spurious
//! dependence can only suppress a transformation, never produce an illegal
//! one). A GCD divisibility test on equalities removes the most common
//! integer-infeasible cases.

use crate::affine::AffineExpr;
use std::collections::BTreeSet;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `expr >= 0`
    Ge,
    /// `expr == 0`
    Eq,
}

/// One affine constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    pub expr: AffineExpr,
    pub rel: Rel,
}

impl Constraint {
    pub fn ge0(expr: AffineExpr) -> Self {
        Constraint { expr, rel: Rel::Ge }
    }

    pub fn eq0(expr: AffineExpr) -> Self {
        Constraint { expr, rel: Rel::Eq }
    }

    /// `a >= b` as `a - b >= 0`.
    pub fn ge(a: &AffineExpr, b: &AffineExpr) -> Self {
        Constraint::ge0(a.sub(b))
    }

    /// `a <= b` as `b - a >= 0`.
    pub fn le(a: &AffineExpr, b: &AffineExpr) -> Self {
        Constraint::ge0(b.sub(a))
    }

    /// `a == b` as `a - b == 0`.
    pub fn eq(a: &AffineExpr, b: &AffineExpr) -> Self {
        Constraint::eq0(a.sub(b))
    }

    /// `a < b` over the integers: `b - a - 1 >= 0`.
    pub fn lt(a: &AffineExpr, b: &AffineExpr) -> Self {
        let mut e = b.sub(a);
        e.konst -= 1;
        Constraint::ge0(e)
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rel {
            Rel::Ge => write!(f, "{} >= 0", self.expr),
            Rel::Eq => write!(f, "{} = 0", self.expr),
        }
    }
}

/// Conjunction of constraints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSystem {
    pub constraints: Vec<Constraint>,
}

impl ConstraintSystem {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    pub fn and(mut self, c: Constraint) -> Self {
        self.push(c);
        self
    }

    pub fn extend(&mut self, other: &ConstraintSystem) {
        self.constraints.extend(other.constraints.iter().cloned());
    }

    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// All dimension names mentioned by any constraint.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for c in &self.constraints {
            for v in c.expr.vars() {
                out.insert(v.to_string());
            }
        }
        out
    }

    /// Decide satisfiability (conservatively, see module docs). Indexes
    /// the system by name and runs one elimination pass; a caller with
    /// many questions about related systems indexes once and works on the
    /// [`crate::fourier_motzkin::DenseSystem`] itself, as `deps` does.
    pub fn is_satisfiable(&self) -> bool {
        crate::fourier_motzkin::DenseSystem::index(self).satisfiable(&mut 0)
    }

    /// Exhaustively enumerate the integer points of this system within the
    /// given bounding box (inclusive). Exponential — test helper only, used
    /// by property tests to cross-check Fourier–Motzkin.
    pub fn enumerate_points(
        &self,
        vars: &[String],
        lo: i64,
        hi: i64,
    ) -> Vec<std::collections::BTreeMap<String, i64>> {
        let mut out = Vec::new();
        let mut env = std::collections::BTreeMap::new();
        self.enum_rec(vars, lo, hi, 0, &mut env, &mut out);
        out
    }

    fn enum_rec(
        &self,
        vars: &[String],
        lo: i64,
        hi: i64,
        idx: usize,
        env: &mut std::collections::BTreeMap<String, i64>,
        out: &mut Vec<std::collections::BTreeMap<String, i64>>,
    ) {
        if idx == vars.len() {
            let sat = self.constraints.iter().all(|c| {
                let v = c.expr.eval(env).unwrap_or(i64::MIN);
                match c.rel {
                    Rel::Ge => v >= 0,
                    Rel::Eq => v == 0,
                }
            });
            if sat {
                out.push(env.clone());
            }
            return;
        }
        for v in lo..=hi {
            env.insert(vars[idx].clone(), v);
            self.enum_rec(vars, lo, hi, idx + 1, env, out);
        }
        env.remove(&vars[idx]);
    }
}

impl fmt::Display for ConstraintSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ")?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> AffineExpr {
        AffineExpr::var(n)
    }

    fn k(x: i64) -> AffineExpr {
        AffineExpr::constant(x)
    }

    #[test]
    fn constraint_builders() {
        // i >= 0, i <= 9  ⇒ box
        let c1 = Constraint::ge(&v("i"), &k(0));
        assert_eq!(c1.to_string(), "i >= 0");
        let c2 = Constraint::le(&v("i"), &k(9));
        assert_eq!(c2.to_string(), "-i + 9 >= 0");
        let c3 = Constraint::lt(&v("i"), &v("n"));
        assert_eq!(c3.to_string(), "-i + n - 1 >= 0");
        let c4 = Constraint::eq(&v("i"), &v("j"));
        assert_eq!(c4.to_string(), "i - j = 0");
    }

    #[test]
    fn enumeration_matches_manual_count() {
        // 0 <= i <= 3, 0 <= j <= 3, i + j <= 3 — triangle with 10 points.
        let sys = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(0)))
            .and(Constraint::le(&v("i"), &k(3)))
            .and(Constraint::ge(&v("j"), &k(0)))
            .and(Constraint::le(&v("j"), &k(3)))
            .and(Constraint::le(&v("i").add(&v("j")), &k(3)));
        let pts = sys.enumerate_points(&["i".into(), "j".into()], -1, 5);
        assert_eq!(pts.len(), 10);
    }

    #[test]
    fn vars_collects_all_names() {
        let sys = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(0)))
            .and(Constraint::lt(&v("j"), &v("n")));
        let vars = sys.vars();
        assert_eq!(
            vars.into_iter().collect::<Vec<_>>(),
            vec!["i".to_string(), "j".into(), "n".into()]
        );
    }
}
