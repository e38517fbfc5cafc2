//! Fourier–Motzkin elimination over integer affine constraint systems, on
//! flat integer rows, with a GCD normalization step that catches the
//! common integer-empty cases (e.g. `2i = 1`).
//!
//! This is the engine behind dependence analysis and loop-bound
//! generation — the role ISL/Piplib play in the original PluTo stack. A
//! [`DenseSystem`] is indexed once: column `i` belongs to the `i`-th
//! variable in name order, and every row is `n + 2` integers in one flat
//! buffer (the coefficients, the projection target `T`, the constant)
//! with its relation in a parallel list. A caller with many related
//! questions appends rows and truncates them again instead of copying the
//! system, as `deps` does per access pair, per level and per distance.
//!
//! [`DenseSystem::satisfiable`], [`DenseSystem::bounds_of`] and
//! [`eliminate`] share one pass (substitute, split, pick, combine) that
//! runs in the system's scratch: the current and next row buffers, the
//! lower/upper/rest index lists and the per-column sign counts are kept
//! between passes, so a warm solve allocates nothing. Row order follows
//! the pass exactly (`swap_remove` when an equality is used up, kept rows
//! before combined ones), and so do the substitution and elimination
//! choices. A distance bound is *projected* (one elimination pass that
//! keeps the target as a column), not searched for by repeated
//! feasibility probes.
//!
//! All systems arising from the evaluation programs are small (≤ ~20
//! constraints, ≤ ~10 variables), so the classic doubly-exponential worst
//! case is irrelevant in practice; a constraint budget guards against
//! pathological blowup and fails *conservatively* ("satisfiable",
//! "unbounded").

use crate::affine::AffineExpr;
use crate::set::{Constraint, ConstraintSystem, Rel};

/// Constraint budget of one combine step: eliminating a variable that
/// would leave more than this many constraints aborts instead of blowing
/// up quadratically per variable (exponentially over a deep nest). The
/// solver then answers conservatively (a dependence is assumed); codegen
/// degrades the nest to `Skipped` — mirroring PluTo, which simply refuses
/// pathological regions.
pub const ELIMINATE_BUDGET: usize = 4096;

/// A constraint system with its variables indexed once.
#[derive(Debug, Clone)]
pub struct DenseSystem {
    /// Sorted; a row's column `i` is the coefficient of `vars[i]`.
    vars: Vec<String>,
    /// The relation of each row.
    rels: Vec<Rel>,
    /// `rels.len()` rows of [`DenseSystem::width`] integers: a coefficient
    /// per variable in name order, then the coefficient of the projection
    /// target `T` (zero outside [`DenseSystem::bounds_of`]), then the
    /// constant.
    rows: Vec<i64>,
    scratch: Scratch,
}

/// The buffers of one elimination pass, kept between passes.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The relation of each row of `cur` until the equalities are split.
    rels: Vec<Rel>,
    /// The pass's rows; after a pass that leaves rows, the inequalities
    /// over `T` alone.
    cur: Vec<i64>,
    /// Where a split or a combine step writes its rows.
    next: Vec<i64>,
    /// The equality being substituted away.
    eq: Vec<i64>,
    /// Rows of `cur` by the sign of the column being eliminated.
    lower: Vec<usize>,
    upper: Vec<usize>,
    rest: Vec<usize>,
    /// Per column: rows with a positive / a negative coefficient.
    pos: Vec<usize>,
    neg: Vec<usize>,
}

/// What one elimination pass leaves behind.
enum Solved {
    Empty,
    /// The constraint budget was exceeded.
    GaveUp,
    /// Inequalities over `T` alone, in the scratch's `cur`.
    Rows,
}

impl DenseSystem {
    /// An empty system over `vars` (any order, duplicates allowed).
    pub fn new(vars: impl IntoIterator<Item = String>) -> Self {
        let mut vars: Vec<String> = vars.into_iter().collect();
        vars.sort();
        vars.dedup();
        DenseSystem {
            vars,
            rels: Vec::new(),
            rows: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    pub fn index(sys: &ConstraintSystem) -> Self {
        let mut dense = DenseSystem::new(sys.vars());
        for c in &sys.constraints {
            dense.push(c);
        }
        dense
    }

    /// The column of a variable: its position in name order.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.vars.binary_search_by(|v| v.as_str().cmp(name)).ok()
    }

    /// Integers per row: one per variable, `T`, the constant.
    pub fn width(&self) -> usize {
        self.vars.len() + 2
    }

    /// Rows in the system.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Drop every row past the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.rels.truncate(len);
        self.rows.truncate(len * self.width());
    }

    /// Add a constraint over the indexed variables.
    pub fn push(&mut self, c: &Constraint) {
        let n = self.vars.len();
        let start = self.rows.len();
        self.rows.resize(start + n + 2, 0);
        for (name, &k) in &c.expr.coeffs {
            let col = self
                .column(name)
                .expect("constraint over a variable the system was not indexed with");
            self.rows[start + col] = k;
        }
        self.rows[start + n + 1] = c.expr.konst;
        self.rels.push(c.rel);
    }

    /// Add a row of [`DenseSystem::width`] integers.
    pub fn push_row(&mut self, rel: Rel, row: impl IntoIterator<Item = i64>) {
        let start = self.rows.len();
        self.rows.extend(row);
        assert_eq!(
            self.rows.len() - start,
            self.width(),
            "row of the wrong width"
        );
        self.rels.push(rel);
    }

    /// Decide whether the system has a rational solution (conservative
    /// integer answer; see module docs). One elimination pass, counted in
    /// `solves`.
    pub fn satisfiable(&mut self, solves: &mut usize) -> bool {
        let n = self.vars.len();
        !matches!(
            self.scratch.solve(&self.rels, &self.rows, n, solves),
            Solved::Empty
        )
    }

    /// Conservative integer bounds `(min, max)` of `target`, a row of
    /// [`DenseSystem::width`] integers (its `T` coefficient is ignored),
    /// subject to the system, clamped to the window `[-limit, limit]`:
    /// `None` means unbounded in that direction or at/beyond the window's
    /// edge. A system the pass finds empty, or one that exceeds the
    /// constraint budget, yields `(None, None)`.
    ///
    /// One elimination pass, counted in `solves`: a fresh variable
    /// `T = target` joins the system as the row `T - target = 0`, every
    /// other variable is projected out, and the rows left bound `T`. The
    /// row is removed again afterwards.
    pub fn bounds_of(
        &mut self,
        target: &[i64],
        limit: i64,
        solves: &mut usize,
    ) -> (Option<i64>, Option<i64>) {
        let n = self.vars.len();
        self.push_row(Rel::Eq, target.iter().map(|c| -c));
        let last = self.rows.len() - 2;
        self.rows[last] = 1;
        let solved = self.scratch.solve(&self.rels, &self.rows, n, solves);
        self.truncate(self.len() - 1);
        let Solved::Rows = solved else {
            return (None, None);
        };
        let (mut min, mut max) = (i64::MIN, i64::MAX);
        for r in self.scratch.cur.chunks_exact(n + 2) {
            // a·T + k >= 0: T >= ceil(-k / a) for a > 0, T <= floor(k / -a) otherwise.
            let (a, k) = (r[n], r[n + 1]);
            if a > 0 {
                min = min.max(-k.div_euclid(a));
            } else {
                max = max.min(k.div_euclid(-a));
            }
        }
        if min > max {
            return (None, None);
        }
        (
            Some(min).filter(|&m| -limit < m && m <= limit),
            Some(max).filter(|&m| -limit <= m && m < limit),
        )
    }
}

impl Scratch {
    /// One full pass over `rows` (width `n + 2`): substitute equalities
    /// away, then eliminate every program variable (columns `0..n`),
    /// keeping column `n`.
    fn solve(&mut self, rels: &[Rel], rows: &[i64], n: usize, solves: &mut usize) -> Solved {
        *solves += 1;
        let w = n + 2;
        self.rels.clear();
        self.rels.extend_from_slice(rels);
        self.cur.clear();
        self.cur.extend_from_slice(rows);

        // Step 1: use equalities with a ±1 coefficient to substitute
        // variables exactly (keeps everything integral), and apply the GCD
        // test to the rest.
        'substitute: loop {
            for idx in 0..self.rels.len() {
                if self.rels[idx] != Rel::Eq {
                    continue;
                }
                let eq = &self.cur[idx * w..(idx + 1) * w];
                let g = coeff_gcd(eq, n);
                if g == 0 {
                    if eq[n + 1] != 0 {
                        return Solved::Empty;
                    }
                    self.swap_remove(idx, w);
                    continue 'substitute;
                }
                // GCD test: gcd of coefficients must divide the constant.
                if eq[n + 1] % g != 0 {
                    return Solved::Empty;
                }
                // First unit-coefficient variable in name order: x = ∓(rest).
                if let Some(p) = eq[..n].iter().position(|c| c.abs() == 1) {
                    self.eq.clear();
                    self.eq.extend_from_slice(eq);
                    self.swap_remove(idx, w);
                    let eq = &self.eq;
                    for row in self.cur.chunks_exact_mut(w) {
                        let f = row[p] * eq[p];
                        if f != 0 {
                            for (x, e) in row.iter_mut().zip(eq) {
                                *x -= f * e;
                            }
                        }
                    }
                    continue 'substitute;
                }
            }
            break;
        }

        // Step 2: split any remaining equalities into two inequalities.
        self.next.clear();
        for (rel, row) in self.rels.iter().zip(self.cur.chunks_exact(w)) {
            self.next.extend_from_slice(row);
            if *rel == Rel::Eq {
                self.next.extend(row.iter().map(|c| -c));
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);

        // Step 3: classic FM elimination of every remaining variable.
        loop {
            self.drop_tautologies(n);
            if self.cur.chunks_exact(w).any(|r| is_constant(r, n)) {
                return Solved::Empty;
            }
            let Some(var) = self.pick_variable(n) else {
                return Solved::Rows;
            };
            if self.combine(var, n, 0).is_err() {
                return Solved::GaveUp;
            }
        }
    }

    /// Remove row `idx` of `cur` by moving the last row into its place.
    fn swap_remove(&mut self, idx: usize, w: usize) {
        self.rels.swap_remove(idx);
        let last = self.cur.len() - w;
        self.cur.copy_within(last.., idx * w);
        self.cur.truncate(last);
    }

    /// Keep, in order, every row of `cur` that mentions a variable or is a
    /// constant contradiction.
    fn drop_tautologies(&mut self, n: usize) {
        let w = n + 2;
        let mut kept = 0;
        for r in 0..self.cur.len() / w {
            let row = &self.cur[r * w..(r + 1) * w];
            if !is_constant(row, n) || row[n + 1] < 0 {
                self.cur.copy_within(r * w..(r + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.cur.truncate(kept * w);
    }

    /// Pick the variable whose elimination produces the fewest new
    /// constraints, the first in name order among equals.
    fn pick_variable(&mut self, n: usize) -> Option<usize> {
        let (pos, neg) = (&mut self.pos, &mut self.neg);
        pos.clear();
        pos.resize(n, 0);
        neg.clear();
        neg.resize(n, 0);
        for r in self.cur.chunks_exact(n + 2) {
            for (i, &c) in r[..n].iter().enumerate() {
                if c > 0 {
                    pos[i] += 1;
                } else if c < 0 {
                    neg[i] += 1;
                }
            }
        }
        (0..n)
            .filter(|&i| pos[i] + neg[i] > 0)
            .min_by_key(|&i| pos[i] * neg[i])
    }

    /// The combine step every caller shares: eliminate column `var` from
    /// the inequalities in `cur`. Rows that do not mention it stay, in
    /// order; then every lower bound `a·var + L >= 0` (a > 0) meets every
    /// upper bound `-b·var + U >= 0` (b > 0) as `b·L + a·U >= 0`, divided
    /// by its coefficient GCD with the constant floored (sound for `>= 0`
    /// over the integers, and tighter), tautologies dropped.
    /// `Err((lower, upper))` when the result plus `kept` rows the caller
    /// holds aside would exceed [`ELIMINATE_BUDGET`].
    fn combine(&mut self, var: usize, n: usize, kept: usize) -> Result<(), (usize, usize)> {
        let w = n + 2;
        let Scratch {
            cur,
            next,
            lower,
            upper,
            rest,
            ..
        } = self;
        lower.clear();
        upper.clear();
        rest.clear();
        for (r, row) in cur.chunks_exact(w).enumerate() {
            match row[var] {
                0 => rest.push(r),
                c if c > 0 => lower.push(r),
                _ => upper.push(r),
            }
        }
        if lower.len() * upper.len() + rest.len() + kept > ELIMINATE_BUDGET {
            return Err((lower.len(), upper.len()));
        }
        next.clear();
        for &r in rest.iter() {
            next.extend_from_slice(&cur[r * w..(r + 1) * w]);
        }
        for &l in lower.iter() {
            let l = &cur[l * w..(l + 1) * w];
            for &u in upper.iter() {
                let u = &cur[u * w..(u + 1) * w];
                let (a, b) = (l[var], -u[var]);
                let start = next.len();
                next.extend(l.iter().zip(u).map(|(x, y)| b * x + a * y));
                let row = &mut next[start..];
                let g = coeff_gcd(row, n);
                if g > 1 {
                    row[..=n].iter_mut().for_each(|c| *c /= g);
                    row[n + 1] = row[n + 1].div_euclid(g);
                }
                if g == 0 && row[n + 1] >= 0 {
                    next.truncate(start);
                }
            }
        }
        std::mem::swap(cur, next);
        Ok(())
    }
}

/// GCD of a row's coefficients (`T` included, constant excluded); 0 for a
/// constant row.
fn coeff_gcd(row: &[i64], n: usize) -> i64 {
    row[..=n].iter().fold(0, |acc, &c| gcd(acc, c))
}

fn is_constant(row: &[i64], n: usize) -> bool {
    row[..=n].iter().all(|&c| c == 0)
}

/// Project a variable out of a system (FM elimination keeping the
/// resulting constraints, for loop-bound generation à la ClooG).
/// Equalities involving the variable are first converted to inequality
/// pairs so a single code path handles both. Returns `Err` when the
/// combine step would exceed [`ELIMINATE_BUDGET`] constraints.
pub fn eliminate(sys: &ConstraintSystem, var: &str) -> Result<ConstraintSystem, String> {
    let mut dense = DenseSystem::index(sys);
    let Some(col) = dense.column(var) else {
        return Ok(sys.clone());
    };
    let (n, w) = (dense.vars.len(), dense.width());
    let mut out = ConstraintSystem::new();
    let scratch = &mut dense.scratch;
    scratch.cur.clear();
    let rows = dense.rels.iter().zip(dense.rows.chunks_exact(w));
    for (c, (rel, row)) in sys.constraints.iter().zip(rows) {
        if row[col] == 0 {
            out.push(c.clone());
            continue;
        }
        scratch.cur.extend_from_slice(row);
        if *rel == Rel::Eq {
            scratch.cur.extend(row.iter().map(|c| -c));
        }
    }
    scratch
        .combine(col, n, out.len())
        .map_err(|(lower, upper)| {
            format!(
                "Fourier-Motzkin budget exceeded eliminating `{var}`: \
             {lower} lower x {upper} upper bounds (cap {ELIMINATE_BUDGET})"
            )
        })?;
    for row in scratch.cur.chunks_exact(w) {
        let mut e = AffineExpr::constant(row[n + 1]);
        for (name, &c) in dense.vars.iter().zip(row) {
            if c != 0 {
                e.coeffs.insert(name.clone(), c);
            }
        }
        out.push(Constraint::ge0(e));
    }
    Ok(out)
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
impl DenseSystem {
    /// The row of an affine expression over the indexed variables.
    pub(crate) fn row_of(&self, e: &AffineExpr) -> Vec<i64> {
        let mut row = vec![0; self.width()];
        for (name, &c) in &e.coeffs {
            row[self.column(name).expect("an indexed variable")] = c;
        }
        row[self.width() - 1] = e.konst;
        row
    }

    /// The oracle [`DenseSystem::bounds_of`] is tested against: binary
    /// search on the monotone predicates "a point with `target <= k`
    /// exists" / "`target >= k` exists", one full solve per probe.
    /// `target` is a row; its `T` coefficient must be zero.
    pub(crate) fn bounds_by_bisection(
        &self,
        target: &[i64],
        limit: i64,
    ) -> (Option<i64>, Option<i64>) {
        let konst = self.width() - 1;
        // `sign·target + k >= 0`.
        let feasible = |sign: i64, k: i64| {
            let mut s = self.clone();
            let row = target.iter().enumerate();
            s.push_row(
                Rel::Ge,
                row.map(|(i, c)| sign * c + if i == konst { k } else { 0 }),
            );
            s.satisfiable(&mut 0)
        };
        let feasible_le = |k: i64| feasible(-1, k);
        let feasible_ge = |k: i64| feasible(1, -k);
        if !self.clone().satisfiable(&mut 0) {
            return (None, None);
        }
        let min = if feasible_le(-limit) {
            None // may extend below the window: treat as unbounded
        } else {
            let (mut lo, mut hi) = (-limit, limit);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if feasible_le(mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            Some(lo).filter(|&k| feasible_le(k))
        };
        let max = if feasible_ge(limit) {
            None
        } else {
            let (mut lo, mut hi) = (-limit, limit);
            while lo < hi {
                let mid = lo + (hi - lo + 1) / 2;
                if feasible_ge(mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            Some(lo).filter(|&k| feasible_ge(k))
        };
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn satisfiable(sys: &ConstraintSystem) -> bool {
        sys.is_satisfiable()
    }

    fn bounds_of(
        sys: &ConstraintSystem,
        target: &AffineExpr,
        limit: i64,
    ) -> (Option<i64>, Option<i64>) {
        let mut dense = DenseSystem::index(sys);
        dense.bounds_of(&dense.row_of(target), limit, &mut 0)
    }

    fn v(n: &str) -> AffineExpr {
        AffineExpr::var(n)
    }

    fn k(x: i64) -> AffineExpr {
        AffineExpr::constant(x)
    }

    #[test]
    fn empty_system_is_satisfiable() {
        assert!(satisfiable(&ConstraintSystem::new()));
    }

    #[test]
    fn simple_box_is_satisfiable() {
        let sys = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(0)))
            .and(Constraint::le(&v("i"), &k(9)));
        assert!(satisfiable(&sys));
    }

    #[test]
    fn contradictory_bounds_unsatisfiable() {
        let sys = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(10)))
            .and(Constraint::le(&v("i"), &k(9)));
        assert!(!satisfiable(&sys));
    }

    #[test]
    fn eliminate_respects_constraint_budget() {
        // 70 lower bounds x 70 upper bounds on `i` would combine into 4900
        // constraints — past the budget, so elimination must refuse.
        let mut sys = ConstraintSystem::new();
        for p in 0..70 {
            sys.push(Constraint::ge(&v("i"), &v(&format!("lo{p}"))));
            sys.push(Constraint::le(&v("i"), &v(&format!("hi{p}"))));
        }
        let err = eliminate(&sys, "i").unwrap_err();
        assert!(err.contains("budget"), "{err}");

        // A small system still projects fine.
        let small = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(0)))
            .and(Constraint::le(&v("i"), &v("n")));
        let out = eliminate(&small, "i").unwrap();
        // 0 <= i <= n projects to n >= 0.
        assert_eq!(out.constraints.len(), 1);
    }

    #[test]
    fn equality_substitution_works() {
        // i = j, i >= 5, j <= 4  ⇒ empty
        let sys = ConstraintSystem::new()
            .and(Constraint::eq(&v("i"), &v("j")))
            .and(Constraint::ge(&v("i"), &k(5)))
            .and(Constraint::le(&v("j"), &k(4)));
        assert!(!satisfiable(&sys));
    }

    #[test]
    fn gcd_test_catches_parity() {
        // 2i = 1 has no integer solution.
        let sys = ConstraintSystem::new().and(Constraint::eq0(v("i").scale(2).sub(&k(1))));
        assert!(!satisfiable(&sys));
    }

    #[test]
    fn chained_inequalities() {
        // i <= j, j <= kk, kk <= i - 1 ⇒ empty
        let sys = ConstraintSystem::new()
            .and(Constraint::le(&v("i"), &v("j")))
            .and(Constraint::le(&v("j"), &v("kk")))
            .and(Constraint::le(&v("kk"), &v("i").sub(&k(1))));
        assert!(!satisfiable(&sys));
        // Without the -1 it is satisfiable (all equal).
        let sys2 = ConstraintSystem::new()
            .and(Constraint::le(&v("i"), &v("j")))
            .and(Constraint::le(&v("j"), &v("kk")))
            .and(Constraint::le(&v("kk"), &v("i")));
        assert!(satisfiable(&sys2));
    }

    #[test]
    fn matmul_output_independence() {
        // Two distinct (i,j) ≠ (i',j') writing C[i][j] = C[i'][j'] ⇒ empty.
        let sys = ConstraintSystem::new()
            .and(Constraint::eq(&v("i"), &v("ip")))
            .and(Constraint::eq(&v("j"), &v("jp")))
            // lexicographic strict order: i < ip (one branch)
            .and(Constraint::lt(&v("i"), &v("ip")));
        assert!(!satisfiable(&sys));
    }

    #[test]
    fn stencil_dependence_exists() {
        // a[i][j] reads a[i-1][j]: i' = i - 1 with i in [1,9], i' in [0,9].
        let sys = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(1)))
            .and(Constraint::le(&v("i"), &k(9)))
            .and(Constraint::ge(&v("ip"), &k(0)))
            .and(Constraint::le(&v("ip"), &k(9)))
            .and(Constraint::eq(&v("ip"), &v("i").sub(&k(1))));
        assert!(satisfiable(&sys));
    }

    #[test]
    fn parametric_system() {
        // 0 <= i < n, n >= 1 — satisfiable for some n.
        let sys = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(0)))
            .and(Constraint::lt(&v("i"), &v("n")))
            .and(Constraint::ge(&v("n"), &k(1)));
        assert!(satisfiable(&sys));
        // 0 <= i < n, n <= 0 — empty.
        let sys2 = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(0)))
            .and(Constraint::lt(&v("i"), &v("n")))
            .and(Constraint::le(&v("n"), &k(0)));
        assert!(!satisfiable(&sys2));
    }

    #[test]
    fn bounds_of_simple_range() {
        let sys = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(2)))
            .and(Constraint::le(&v("i"), &k(7)));
        let (min, max) = bounds_of(&sys, &v("i"), 100);
        assert_eq!(min, Some(2));
        assert_eq!(max, Some(7));
    }

    #[test]
    fn bounds_of_difference() {
        // d = ip - i with ip = i + 1 ⇒ d ∈ [1, 1].
        let sys = ConstraintSystem::new()
            .and(Constraint::eq(&v("ip"), &v("i").add(&k(1))))
            .and(Constraint::ge(&v("i"), &k(0)))
            .and(Constraint::le(&v("i"), &k(100)));
        let d = v("ip").sub(&v("i"));
        let (min, max) = bounds_of(&sys, &d, 64);
        assert_eq!(min, Some(1));
        assert_eq!(max, Some(1));
    }

    #[test]
    fn bounds_of_unbounded_direction() {
        let sys = ConstraintSystem::new().and(Constraint::ge(&v("i"), &k(3)));
        let (min, max) = bounds_of(&sys, &v("i"), 64);
        assert_eq!(min, Some(3));
        assert_eq!(max, None);
    }

    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|x| format!("x{x}")).collect()
    }

    /// Seeded small systems over `x0..x{nv-1}`: coefficients −3..3,
    /// constants −5..5, one constraint in four an equality.
    fn random_system(next: &mut impl FnMut() -> u64, nv: usize) -> ConstraintSystem {
        let mut sys = ConstraintSystem::new();
        for _ in 0..next() % 4 + nv as u64 - 1 {
            let mut e = k((next() % 11) as i64 - 5);
            for x in 0..nv {
                e = e.add(&AffineExpr::term(format!("x{x}"), (next() % 7) as i64 - 3));
            }
            sys.push(if next().is_multiple_of(4) {
                Constraint::eq0(e)
            } else {
                Constraint::ge0(e)
            });
        }
        sys
    }

    #[test]
    fn brute_force_agreement_on_random_small_systems() {
        // FM must agree with enumeration whenever enumeration finds a
        // point, and may only disagree in the conservative direction
        // otherwise (a rational point outside the box or between lattice
        // points).
        let mut next = xorshift(0x9E3779B97F4A7C15);
        for (nv, reach) in [(2, 12), (3, 6)] {
            for _ in 0..200 {
                let sys = random_system(&mut next, nv);
                if !sys.enumerate_points(&names(nv), -reach, reach).is_empty() {
                    assert!(satisfiable(&sys), "FM must not miss integer point: {sys}");
                }
            }
        }
    }

    #[test]
    fn projected_bounds_equal_the_bisection_oracle_on_dependence_shaped_systems() {
        // What `deps` builds: two boxed instances of a 1- or 2-deep nest
        // (`x0..` source, the rest destination), subscript equalities
        // `±src ± dst + c = 0`, level rows, and a distance as the target.
        let mut next = xorshift(0xD1B54A32D192ED03);
        let mut compared = 0;
        while compared < 2000 {
            let depth = 1 + (next() % 2) as usize;
            let var = |x: usize| v(&format!("x{x}"));
            let mut sys = DenseSystem::new(names(2 * depth));
            for x in 0..2 * depth {
                let lo = (next() % 3) as i64;
                sys.push(&Constraint::ge(&var(x), &k(lo)));
                sys.push(&Constraint::le(&var(x), &k(lo + (next() % 12) as i64)));
            }
            for _ in 0..1 + next() % 2 {
                let src = var((next() % depth as u64) as usize);
                let dst = var(depth + (next() % depth as u64) as usize);
                let e = src.scale(1 - 2 * (next() % 2) as i64);
                let e = e.add(&dst.scale(1 - 2 * (next() % 2) as i64));
                sys.push(&Constraint::eq0(e.add(&k((next() % 7) as i64 - 3))));
            }
            let dist = |l: usize| var(depth + l).sub(&var(l));
            let level = (next() % depth as u64) as usize;
            for l in 0..level {
                sys.push(&Constraint::eq0(dist(l)));
            }
            sys.push(&Constraint::ge(&dist(level), &k(1)));
            // Like `deps`, ask for distances only where a dependence exists.
            if !sys.satisfiable(&mut 0) {
                continue;
            }
            // A narrow window now and then, so the clamp is compared too.
            let limit = if next().is_multiple_of(4) { 4 } else { 64 };
            for l in 0..depth {
                let target = sys.row_of(&dist(l));
                let projected = sys.bounds_of(&target, limit, &mut 0);
                let bisected = sys.bounds_by_bisection(&target, limit);
                assert_eq!(projected, bisected, "{sys:?} window {limit}");
                compared += 1;
            }
        }
    }

    #[test]
    fn no_integer_point_lies_outside_the_projected_bounds() {
        // Soundness, independent of the oracle, on systems dependence
        // analysis never builds (non-unit coefficients, thin polyhedra).
        // There projection and bisection are two different conservative
        // answers — a probe with a concrete `k` can round where a
        // symbolic `T` cannot — so neither is compared with the other.
        let mut next = xorshift(0x2545F4914F6CDD1D);
        let mut points_checked = 0;
        for round in 0..800 {
            let nv = 2 + round % 2;
            let sys = random_system(&mut next, nv);
            let mut dense = DenseSystem::new(names(nv));
            sys.constraints.iter().for_each(|c| dense.push(c));
            let target = v("x1").sub(&v("x0"));
            let (min, max) = dense.bounds_of(&dense.row_of(&target), 64, &mut 0);
            for point in sys.enumerate_points(&names(nv), -6, 6) {
                let t = target.eval(&point).expect("full assignment");
                assert!(min.is_none_or(|m| m <= t), "{sys}: {t} < min {min:?}");
                assert!(max.is_none_or(|m| t <= m), "{sys}: {t} > max {max:?}");
                points_checked += 1;
            }
        }
        assert!(points_checked > 1000, "{points_checked}");
    }

    #[test]
    fn bounds_of_clamps_to_the_window_and_counts_one_solve() {
        let sys = ConstraintSystem::new()
            .and(Constraint::ge(&v("i"), &k(-70)))
            .and(Constraint::le(&v("i"), &k(64)));
        let mut solves = 0;
        let mut dense = DenseSystem::index(&sys);
        let i = dense.row_of(&v("i"));
        let bounds = dense.bounds_of(&i, 64, &mut solves);
        // -70 is below the window and 64 on its edge: both unknown.
        assert_eq!(bounds, (None, None));
        assert_eq!(bounds, dense.bounds_by_bisection(&i, 64));
        assert_eq!(solves, 1);
        assert_eq!(bounds_of(&sys, &v("i"), 100), (Some(-70), Some(64)));
    }
}
