//! PluTo-style schedule computation: find a legal, tiling-friendly loop
//! transformation (Sect. 3.3 of the paper, Bondhugula et al. for the full
//! algorithm).
//!
//! We search small integer hyperplanes `h` (coefficients 0..=2, as in
//! PluTo's bounded coefficient search) such that every dependence distance
//! vector `d` satisfies `h·d ≥ 0` — the *permutability* condition that
//! makes rectangular tiling of the transformed space legal (the paper's
//! Fig. 2: the valid green tiling exists only after the shear). Distances
//! are interval vectors from the dependence analysis; the dot product is
//! evaluated in interval arithmetic, so unknown components conservatively
//! forbid a hyperplane.

use crate::deps::{Dependence, DistBound};
use crate::model::Scop;

/// A complete loop transformation: `new = matrix · old` (unimodular), with
/// per-dimension parallelism flags and the length of the outermost
/// permutable band (the tilable prefix).
#[derive(Debug, Clone, PartialEq)]
pub struct Transform {
    /// Row `k` holds the coefficients of new iterator `k` over the original
    /// iterators.
    pub matrix: Vec<Vec<i64>>,
    /// `parallel[k]`: no unresolved dependence is carried by dimension `k`.
    pub parallel: Vec<bool>,
    /// `tile_parallel[k]`: no dependence moves along dimension `k` at all,
    /// so the tile loop of `k` may run its tiles in parallel. A dependence
    /// that an outer dimension carries can still cross from one tile of
    /// `k` to the next when both ends lie in one tile of the outer
    /// dimension, which is all `parallel[k]` rules out for a point loop.
    pub tile_parallel: Vec<bool>,
    /// Outermost `band` dimensions are mutually permutable (tilable).
    pub band: usize,
    /// True when the matrix is not the identity (a skew/interchange was
    /// applied).
    pub skewed: bool,
}

impl Transform {
    pub fn identity(n: usize, parallel: Vec<bool>, band: usize) -> Self {
        Transform {
            matrix: (0..n)
                .map(|i| (0..n).map(|j| i64::from(i == j)).collect())
                .collect(),
            parallel,
            tile_parallel: Vec::new(),
            band,
            skewed: false,
        }
    }

    pub fn depth(&self) -> usize {
        self.matrix.len()
    }

    pub fn is_identity(&self) -> bool {
        self.matrix
            .iter()
            .enumerate()
            .all(|(i, row)| row.iter().enumerate().all(|(j, &v)| v == i64::from(i == j)))
    }

    /// First parallel dimension, if any.
    pub fn outermost_parallel(&self) -> Option<usize> {
        self.parallel.iter().position(|&p| p)
    }

    /// Integer inverse (valid because the matrix is unimodular).
    pub fn inverse(&self) -> Option<Vec<Vec<i64>>> {
        invert_unimodular(&self.matrix)
    }
}

/// Interval dot product `h · d` where components of `d` are [`DistBound`]s.
/// Returns `(min, max)` with `None` = unbounded.
pub fn interval_dot(h: &[i64], d: &[DistBound]) -> (Option<i64>, Option<i64>) {
    let mut min = Some(0i64);
    let mut max = Some(0i64);
    for (&c, b) in h.iter().zip(d) {
        if c == 0 {
            continue;
        }
        let (term_min, term_max) = if c > 0 {
            (b.min.map(|v| c * v), b.max.map(|v| c * v))
        } else {
            (b.max.map(|v| c * v), b.min.map(|v| c * v))
        };
        min = match (min, term_min) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        max = match (max, term_max) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
    }
    (min, max)
}

/// Compute a schedule for the SCoP. Falls back to the identity schedule
/// (with per-level parallelism under the original order) when no better
/// legal band is found — the identity is always legal.
pub fn compute_schedule(scop: &Scop, deps: &[Dependence]) -> Transform {
    let mut t = choose_schedule(scop, deps);
    t.tile_parallel = t
        .matrix
        .iter()
        .map(|h| {
            deps.iter()
                .filter(|d| d.level.is_some())
                .all(|d| interval_dot(h, &d.dist) == (Some(0), Some(0)))
        })
        .collect();
    t
}

fn choose_schedule(scop: &Scop, deps: &[Dependence]) -> Transform {
    let n = scop.depth();
    if n == 0 {
        return Transform::identity(0, vec![], 0);
    }

    // Only loop-carried deps constrain hyperplanes; loop-independent deps
    // (distance 0) satisfy h·d = 0 for every h.
    let carried: Vec<&Dependence> = deps.iter().filter(|d| d.level.is_some()).collect();

    if carried.is_empty() {
        return Transform::identity(n, vec![true; n], n);
    }

    // Greedy band construction.
    let candidates = hyperplane_candidates(n);
    let mut rows: Vec<Vec<i64>> = Vec::new();
    for _level in 0..n {
        let mut chosen: Option<Vec<i64>> = None;
        for h in &candidates {
            if !independent(&rows, h) {
                continue;
            }
            // Permutability: h·d >= 0 for *all* carried deps.
            let ok = carried.iter().all(|dep| {
                let (min, _) = interval_dot(h, &dep.dist);
                matches!(min, Some(v) if v >= 0)
            });
            if ok {
                chosen = Some(h.clone());
                break;
            }
        }
        match chosen {
            Some(h) => rows.push(h),
            None => break,
        }
    }

    if rows.len() < n {
        // Partial band: complete with identity rows is possible, but the
        // mixed matrix may reorder dependences illegally. Use the original
        // order, which is always legal.
        let parallel = crate::deps::parallel_levels(scop, deps);
        // The identity still has a (possibly empty) permutable prefix:
        // levels l where all carried deps have dist[l] interval >= 0 — for
        // a legal original program that holds up to the first level with a
        // negative-capable component.
        let mut band = 0;
        'outer: for l in 0..n {
            for dep in &carried {
                match dep.dist[l].min {
                    Some(v) if v >= 0 => {}
                    _ => break 'outer,
                }
            }
            band = l + 1;
        }
        return Transform::identity(n, parallel, band);
    }

    // Verify unimodularity; fall back otherwise.
    if det(&rows).abs() != 1 {
        let parallel = crate::deps::parallel_levels(scop, deps);
        return Transform::identity(n, parallel, 0);
    }

    // Parallelism: dependence `dep` is resolved before level k if some
    // earlier level strictly carries it (min(h·d) >= 1). Level k is
    // parallel iff every unresolved dep has h_k·d exactly 0.
    let mut parallel = vec![false; n];
    for k in 0..n {
        let mut all_zero = true;
        for dep in &carried {
            let resolved = (0..k).any(|l| {
                let (min, _) = interval_dot(&rows[l], &dep.dist);
                matches!(min, Some(v) if v >= 1)
            });
            if resolved {
                continue;
            }
            let (min, max) = interval_dot(&rows[k], &dep.dist);
            if !(min == Some(0) && max == Some(0)) {
                all_zero = false;
                break;
            }
        }
        parallel[k] = all_zero;
    }

    let skewed = rows
        .iter()
        .enumerate()
        .any(|(i, row)| row.iter().enumerate().any(|(j, &v)| v != i64::from(i == j)));

    Transform {
        matrix: rows,
        parallel,
        tile_parallel: Vec::new(),
        band: n,
        skewed,
    }
}

/// Deepest nest for which the full 3^n skew enumeration runs; deeper nests
/// fall back to unit vectors only so schedule search stays polynomial.
const MAX_SKEW_DEPTH: usize = 6;

/// Candidate hyperplanes in preference order: identity axes first (original
/// order), then axes in other orders, then skews with growing coefficients.
fn hyperplane_candidates(n: usize) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = Vec::new();
    // Unit vectors in original order.
    for i in 0..n {
        let mut v = vec![0; n];
        v[i] = 1;
        out.push(v);
    }
    if n > MAX_SKEW_DEPTH {
        return out;
    }
    // All vectors with coefficients in 0..=2 (excluding zero and the unit
    // vectors already present), sorted by (sum, max coeff) — small skews
    // first, matching PluTo's preference for low-complexity transforms.
    let mut rest: Vec<Vec<i64>> = Vec::new();
    let mut v = vec![0i64; n];
    loop {
        // increment base-3 counter
        let mut i = 0;
        loop {
            if i == n {
                // done enumerating
                rest.sort_by_key(|v| {
                    (
                        v.iter().sum::<i64>(),
                        *v.iter().max().unwrap_or(&0),
                        v.clone(),
                    )
                });
                out.extend(rest);
                return out;
            }
            v[i] += 1;
            if v[i] <= 2 {
                break;
            }
            v[i] = 0;
            i += 1;
        }
        let nonzero = v.iter().filter(|&&c| c != 0).count();
        if nonzero >= 2 {
            rest.push(v.clone());
        }
    }
}

/// Rank check: is `h` linearly independent of `rows`?
fn independent(rows: &[Vec<i64>], h: &[i64]) -> bool {
    let mut m: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| r.iter().map(|&x| x as f64).collect())
        .collect();
    m.push(h.iter().map(|&x| x as f64).collect());
    rank(&mut m) == m.len()
}

fn rank(m: &mut [Vec<f64>]) -> usize {
    let rows = m.len();
    if rows == 0 {
        return 0;
    }
    let cols = m[0].len();
    let mut r = 0;
    for c in 0..cols {
        if r == rows {
            break;
        }
        // pivot
        let Some(p) = (r..rows).max_by(|&a, &b| m[a][c].abs().partial_cmp(&m[b][c].abs()).unwrap())
        else {
            continue;
        };
        if m[p][c].abs() < 1e-9 {
            continue;
        }
        m.swap(r, p);
        for i in (r + 1)..rows {
            let f = m[i][c] / m[r][c];
            // Two rows of `m` are live at once (read r, write i), so the
            // index loop cannot become an iterator chain.
            #[allow(clippy::needless_range_loop)]
            for j in c..cols {
                m[i][j] -= f * m[r][j];
            }
        }
        r += 1;
    }
    r
}

/// Integer determinant by fraction-free (Bareiss) elimination.
pub fn det(m: &[Vec<i64>]) -> i64 {
    let n = m.len();
    if n == 0 {
        return 1;
    }
    let mut a: Vec<Vec<i128>> = m
        .iter()
        .map(|r| r.iter().map(|&x| x as i128).collect())
        .collect();
    let mut sign = 1i128;
    let mut prev = 1i128;
    for k in 0..n - 1 {
        if a[k][k] == 0 {
            // find a row to swap
            let Some(p) = (k + 1..n).find(|&i| a[i][k] != 0) else {
                return 0;
            };
            a.swap(k, p);
            sign = -sign;
        }
        for i in k + 1..n {
            for j in k + 1..n {
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev;
            }
            a[i][k] = 0;
        }
        prev = a[k][k];
    }
    (sign * a[n - 1][n - 1]) as i64
}

/// Invert a unimodular integer matrix (|det| = 1) via the adjugate.
pub fn invert_unimodular(m: &[Vec<i64>]) -> Option<Vec<Vec<i64>>> {
    let n = m.len();
    let d = det(m);
    if d.abs() != 1 {
        return None;
    }
    let mut inv = vec![vec![0i64; n]; n];
    for (i, inv_row) in inv.iter_mut().enumerate() {
        for (j, cell) in inv_row.iter_mut().enumerate() {
            // Cofactor C_ji for the (i,j) entry of the inverse.
            let minor: Vec<Vec<i64>> = (0..n)
                .filter(|&r| r != j)
                .map(|r| (0..n).filter(|&c| c != i).map(|c| m[r][c]).collect())
                .collect();
            let sign = if (i + j) % 2 == 0 { 1 } else { -1 };
            *cell = sign * det(&minor) * d; // d = ±1 ⇒ division is mult
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::analyze;
    use crate::extract::{extract_scop, IterTypes};
    use cfront::ast::{Stmt, StmtKind};
    use cfront::parser::parse;

    fn scop_of(src: &str) -> Scop {
        let unit = parse(src).unit;
        let mut found: Option<Stmt> = None;
        for f in unit.functions() {
            if let Some(body) = &f.body {
                for s in &body.stmts {
                    s.walk(&mut |st| {
                        if found.is_none() && matches!(st.kind, StmtKind::For { .. }) {
                            found = Some(st.clone());
                        }
                    });
                }
            }
        }
        extract_scop(&found.expect("for"), &IterTypes::default()).expect("scop")
    }

    #[test]
    fn matmul_gets_identity_fully_parallel() {
        let scop = scop_of(
            "float** C;\nvoid f() {\n\
             for (int i = 0; i < 64; i++)\n\
                 for (int j = 0; j < 64; j++)\n\
                     C[i][j] = tmpConst_dot_0;\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        assert!(t.is_identity());
        assert_eq!(t.parallel, vec![true, true]);
        assert_eq!(t.band, 2);
        assert_eq!(t.outermost_parallel(), Some(0));
    }

    #[test]
    fn fig2_stencil_gets_skewed_band() {
        // deps (1,0) and (1,-1): axes (0,1) fails ((0,1)·(1,-1) = -1), so
        // the second hyperplane must be the shear (1,1) — exactly Fig. 2.
        let scop = scop_of(
            "void f(float** a) {\n\
             for (int i = 1; i < 64; i++)\n\
                 for (int j = 1; j < 63; j++)\n\
                     a[i][j] = a[i - 1][j] + a[i - 1][j + 1];\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        assert_eq!(t.matrix[0], vec![1, 0]);
        assert_eq!(t.matrix[1], vec![1, 1]);
        assert!(t.skewed);
        assert_eq!(t.band, 2, "shear must restore full tilability");
        // After the shear: d(1,0)→(1,1), d(1,-1)→(1,0): level 0 carries
        // everything, level 1 is NOT all-zero ⇒ sequential outer, and the
        // inner is not parallel either (distance varies 0..1).
        assert!(!t.parallel[0]);
        // Both distances move along both hyperplanes, so neither tile loop
        // may run its tiles in parallel.
        assert_eq!(t.tile_parallel, vec![false, false]);
    }

    #[test]
    fn seidel_stencil_inner_parallel_after_skew() {
        // deps (1,0) and (0,1): band {(1,0),(1,1)} or {(1,0),(0,1)}? The
        // axes already satisfy h·d >= 0 for both deps, so identity works
        // and is preferred.
        let scop = scop_of(
            "void f(float** a) {\n\
             for (int i = 1; i < 64; i++)\n\
                 for (int j = 1; j < 64; j++)\n\
                     a[i][j] = a[i - 1][j] + a[i][j - 1];\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        assert!(t.is_identity());
        assert_eq!(t.band, 2); // rectangular tiling legal: all dists >= 0
        assert_eq!(t.parallel, vec![false, false]);
    }

    #[test]
    fn jacobi_no_deps_all_parallel() {
        let scop = scop_of(
            "void f(float** a, float** b) {\n\
             for (int i = 1; i < 63; i++)\n\
                 for (int j = 1; j < 63; j++)\n\
                     b[i][j] = a[i - 1][j] + a[i + 1][j];\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        assert_eq!(t.parallel, vec![true, true]);
        assert_eq!(t.tile_parallel, vec![true, true]);
    }

    #[test]
    fn reduction_is_sequential() {
        let scop = scop_of(
            "void f(float* a) { float res; for (int i = 0; i < 8; i++) res = res + a[i]; }",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        assert_eq!(t.outermost_parallel(), None);
    }

    #[test]
    fn interval_dot_handles_unbounded() {
        let d = [
            DistBound::exact(1),
            DistBound {
                min: None,
                max: Some(3),
            },
        ];
        let (min, max) = interval_dot(&[1, 1], &d);
        assert_eq!(min, None);
        assert_eq!(max, Some(4));
        let (min2, max2) = interval_dot(&[1, 0], &d);
        assert_eq!((min2, max2), (Some(1), Some(1)));
        let (min3, _) = interval_dot(&[0, -1], &d);
        assert_eq!(min3, Some(-3));
    }

    #[test]
    fn det_and_inverse() {
        let m = vec![vec![1, 0], vec![1, 1]];
        assert_eq!(det(&m), 1);
        let inv = invert_unimodular(&m).unwrap();
        assert_eq!(inv, vec![vec![1, 0], vec![-1, 1]]);

        let id3 = vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]];
        assert_eq!(det(&id3), 1);
        assert_eq!(invert_unimodular(&id3).unwrap(), id3);

        let swap = vec![vec![0, 1], vec![1, 0]];
        assert_eq!(det(&swap), -1);
        assert_eq!(invert_unimodular(&swap).unwrap(), swap);

        let noninv = vec![vec![2, 0], vec![0, 1]];
        assert_eq!(det(&noninv), 2);
        assert!(invert_unimodular(&noninv).is_none());
    }

    #[test]
    fn candidates_prefer_identity_axes() {
        let c = hyperplane_candidates(2);
        assert_eq!(c[0], vec![1, 0]);
        assert_eq!(c[1], vec![0, 1]);
        assert!(c.contains(&vec![1, 1]));
        assert!(c.contains(&vec![2, 1]));
        // no zero vector
        assert!(!c.contains(&vec![0, 0]));
    }
}

#[cfg(test)]
mod more_schedule_tests {
    use super::*;
    use crate::deps::analyze;
    use crate::extract::{extract_scop, IterTypes};
    use cfront::ast::{Stmt, StmtKind};
    use cfront::parser::parse;

    fn scop_of(src: &str) -> crate::model::Scop {
        let unit = parse(src).unit;
        let mut found: Option<Stmt> = None;
        for f in unit.functions() {
            if let Some(body) = &f.body {
                for s in &body.stmts {
                    s.walk(&mut |st| {
                        if found.is_none() && matches!(st.kind, StmtKind::For { .. }) {
                            found = Some(st.clone());
                        }
                    });
                }
            }
        }
        extract_scop(&found.expect("for"), &IterTypes::default()).expect("scop")
    }

    #[test]
    fn three_level_matmul_style_nest_fully_parallel_outer_two() {
        // Classic ijk matmul (inlined form): reduction carried by k only.
        let scop = scop_of(
            "void f(float** a, float** b, float** c) {\n\
             for (int i = 0; i < 32; i++)\n\
                 for (int j = 0; j < 32; j++)\n\
                     for (int k = 0; k < 32; k++)\n\
                         c[i][j] = c[i][j] + a[i][k] * b[k][j];\n}",
        );
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        assert_eq!(t.depth(), 3);
        // i and j carry nothing; k carries the reduction.
        assert!(t.parallel[0], "{t:?}");
        assert!(t.parallel[1], "{t:?}");
        assert!(!t.parallel[2], "{t:?}");
        // The whole nest is permutable (all distances >= 0) → tilable.
        assert_eq!(t.band, 3);
    }

    #[test]
    fn backward_dependence_limits_the_band() {
        // a[i] = a[i+1]: anti dep with distance +1 — still non-negative,
        // band covers the loop; it is sequential though.
        let scop = scop_of("void f(float* a) { for (int i = 0; i < 63; i++) a[i] = a[i + 1]; }");
        let deps = analyze(&scop).deps;
        let t = compute_schedule(&scop, &deps);
        assert_eq!(t.outermost_parallel(), None);
        assert_eq!(t.band, 1);
    }

    #[test]
    fn long_distance_dependence_bounds() {
        let scop = scop_of("void f(float* a) { for (int i = 8; i < 64; i++) a[i] = a[i - 8]; }");
        let deps = analyze(&scop).deps;
        let flow = deps
            .iter()
            .find(|d| d.kind == crate::deps::DepKind::Flow)
            .expect("flow dep");
        assert!(flow.dist[0].is_exactly(8), "{flow}");
    }

    #[test]
    fn schedule_of_empty_nest() {
        let t = compute_schedule(
            &crate::model::Scop {
                loops: vec![],
                stmts: vec![],
                params: Default::default(),
            },
            &[],
        );
        assert_eq!(t.depth(), 0);
        assert_eq!(t.band, 0);
    }

    #[test]
    fn interval_dot_zero_coefficients_ignore_unknowns() {
        let d = [
            crate::deps::DistBound {
                min: None,
                max: None,
            },
            crate::deps::DistBound::exact(2),
        ];
        let (min, max) = interval_dot(&[0, 3], &d);
        assert_eq!((min, max), (Some(6), Some(6)));
    }
}
