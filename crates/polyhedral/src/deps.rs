//! Dependence analysis: the arrows of the paper's Fig. 2.
//!
//! For every pair of accesses to the same array with at least one write, we
//! build the *dependence polyhedron* — source instance `x`, destination
//! instance `y`, both domains, subscript equality, and `x ≺ y` in execution
//! order — and test it for points with Fourier–Motzkin. Classic level-wise
//! splitting turns the lexicographic order into a finite union of
//! conjunctive systems: a dependence *carried at level ℓ* fixes
//! `d₁..d₍ℓ₋₁₎ = 0 ∧ d_ℓ ≥ 1`; a *loop-independent* dependence has all
//! distances 0 and relies on textual order.

use crate::affine::AffineExpr;
use crate::fourier_motzkin::DenseSystem;
use crate::model::{Access, Scop};
use crate::set::Rel;
use std::fmt;

/// Kind of data dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// write → read (true/flow)
    Flow,
    /// read → write
    Anti,
    /// write → write
    Output,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepKind::Flow => write!(f, "flow"),
            DepKind::Anti => write!(f, "anti"),
            DepKind::Output => write!(f, "output"),
        }
    }
}

/// Interval bounds of one component of the distance vector
/// (`dst_level − src_level`), exact up to the conservatism of the solver.
/// `None` = unbounded, or at/beyond the clamp window, i.e. unknown in
/// that direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistBound {
    pub min: Option<i64>,
    pub max: Option<i64>,
}

impl DistBound {
    pub fn exact(v: i64) -> Self {
        DistBound {
            min: Some(v),
            max: Some(v),
        }
    }

    pub fn is_exactly(&self, v: i64) -> bool {
        self.min == Some(v) && self.max == Some(v)
    }
}

impl fmt::Display for DistBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min, self.max) {
            (Some(a), Some(b)) if a == b => write!(f, "{a}"),
            (a, b) => write!(
                f,
                "[{}, {}]",
                a.map_or("-inf".into(), |v| v.to_string()),
                b.map_or("+inf".into(), |v| v.to_string())
            ),
        }
    }
}

/// One dependence between two statement instances of the (shared) nest.
#[derive(Debug, Clone)]
pub struct Dependence {
    pub kind: DepKind,
    pub src_stmt: usize,
    pub dst_stmt: usize,
    pub array: String,
    /// Loop level (0-based) that carries the dependence; `None` for
    /// loop-independent (same iteration, textual order).
    pub level: Option<usize>,
    /// Distance bounds per loop dimension of the nest.
    pub dist: Vec<DistBound>,
}

impl fmt::Display for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} dep on {}: S{} -> S{} @ {} dist (",
            self.kind,
            self.array,
            self.src_stmt,
            self.dst_stmt,
            self.level.map_or("indep".into(), |l| format!("level {l}")),
        )?;
        for (i, d) in self.dist.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// Window the reported distance bounds are clamped to: a bound at or
/// beyond ±this is reported as unknown (`None`).
const DIST_PROBE_LIMIT: i64 = 64;

/// The dependences of a SCoP, and the exact work finding them took.
#[derive(Debug, Clone, Default)]
pub struct DepAnalysis {
    pub deps: Vec<Dependence>,
    /// Full Fourier–Motzkin elimination passes run: one per feasibility
    /// test, one per distance component of a dependence found.
    pub fm_solves: usize,
}

/// Compute all dependences of a SCoP.
pub fn analyze(scop: &Scop) -> DepAnalysis {
    let (pairs, mut sys) = PairSystems::new(scop);
    let mut out = DepAnalysis::default();
    let n = scop.stmts.len();
    for src in 0..n {
        for dst in 0..n {
            for (kind, src_accs, dst_accs) in [
                (DepKind::Flow, &pairs.writes[src], &pairs.reads[dst]),
                (DepKind::Anti, &pairs.reads[src], &pairs.writes[dst]),
                (DepKind::Output, &pairs.writes[src], &pairs.writes[dst]),
            ] {
                for a in src_accs {
                    for b in dst_accs {
                        // Accesses of different rank are compared on their
                        // common subscript prefix: a write to `a[e]` (a row
                        // pointer) conflicts with every access `a[e][…]`.
                        if a.access.array == b.access.array {
                            pairs.test_pair(&mut sys, kind, src, dst, a, b, &mut out);
                        }
                    }
                }
            }
        }
    }
    out
}

fn src_name(n: &str) -> String {
    format!("{n}__s")
}

fn dst_name(n: &str) -> String {
    format!("{n}__d")
}

/// One access with its subscripts as rows of the pair system: once over
/// the source instance's iterators, once over the destination's.
struct AccessRows<'a> {
    access: &'a Access,
    src: Vec<i64>,
    dst: Vec<i64>,
}

/// What every access pair of one SCoP shares, built once: the column of
/// every name, every access's subscript rows and every level's distance
/// row. The system itself (the two renamed domains) is handed out beside
/// it; a pair appends its rows to it and truncates them again.
struct PairSystems<'a> {
    /// Integers per row of the system.
    width: usize,
    /// Per statement, in access order: its writes and its reads.
    writes: Vec<Vec<AccessRows<'a>>>,
    reads: Vec<Vec<AccessRows<'a>>>,
    /// Per loop level, the distance `d = dst − src` as a row.
    dists: Vec<Vec<i64>>,
}

impl<'a> PairSystems<'a> {
    fn new(scop: &'a Scop) -> (Self, DenseSystem) {
        let iters = scop.loops.iter().map(|l| l.name.as_str());
        let mut sys = DenseSystem::new(
            iters
                .flat_map(|n| [src_name(n), dst_name(n)])
                .chain(scop.params.iter().cloned()),
        );
        let width = sys.width();
        let column = |name: &str| {
            sys.column(name)
                .expect("an iterator or a parameter of the SCoP")
        };
        let src_cols: Vec<usize> = scop
            .loops
            .iter()
            .map(|l| column(&src_name(&l.name)))
            .collect();
        let dst_cols: Vec<usize> = scop
            .loops
            .iter()
            .map(|l| column(&dst_name(&l.name)))
            .collect();
        // A row of `e` in one instance: iterators in that instance's
        // columns, parameters shared.
        let row = |e: &AffineExpr, cols: &[usize], out: &mut Vec<i64>| {
            let start = out.len();
            out.resize(start + width, 0);
            for (name, &c) in &e.coeffs {
                let col = match scop.loops.iter().position(|l| &l.name == name) {
                    Some(l) => cols[l],
                    None => column(name),
                };
                out[start + col] = c;
            }
            out[start + width - 1] = e.konst;
        };
        let instances = |accesses: &'a [Access]| -> Vec<AccessRows<'a>> {
            accesses
                .iter()
                .map(|access| {
                    let (mut src, mut dst) = (Vec::new(), Vec::new());
                    for e in &access.indices {
                        row(e, &src_cols, &mut src);
                        row(e, &dst_cols, &mut dst);
                    }
                    AccessRows { access, src, dst }
                })
                .collect()
        };
        let writes = scop.stmts.iter().map(|s| instances(&s.writes)).collect();
        let reads = scop.stmts.iter().map(|s| instances(&s.reads)).collect();
        // `Scop::domain` per instance: `it - lb >= 0`, `ub - it >= 0` per
        // loop, outermost first.
        let mut domain_rows = Vec::new();
        for cols in [&src_cols, &dst_cols] {
            for (dim, &it) in scop.loops.iter().zip(cols) {
                let lb = domain_rows.len();
                row(&dim.lb, cols, &mut domain_rows);
                domain_rows[lb..].iter_mut().for_each(|c| *c = -*c);
                domain_rows[lb + it] += 1;
                let ub = domain_rows.len();
                row(&dim.ub, cols, &mut domain_rows);
                domain_rows[ub + it] -= 1;
            }
        }
        let dists = (0..scop.depth())
            .map(|l| {
                let mut d = vec![0; width];
                d[dst_cols[l]] = 1;
                d[src_cols[l]] = -1;
                d
            })
            .collect();
        for r in domain_rows.chunks_exact(width) {
            sys.push_row(Rel::Ge, r.iter().copied());
        }
        let pairs = PairSystems {
            width,
            writes,
            reads,
            dists,
        };
        (pairs, sys)
    }

    #[allow(clippy::too_many_arguments)]
    fn test_pair(
        &self,
        sys: &mut DenseSystem,
        kind: DepKind,
        src: usize,
        dst: usize,
        a: &AccessRows,
        b: &AccessRows,
        out: &mut DepAnalysis,
    ) {
        let dep = |level, dist| Dependence {
            kind,
            src_stmt: src,
            dst_stmt: dst,
            array: a.access.array.clone(),
            level,
            dist,
        };
        let w = self.width;

        // Both domains + subscript equality; the system then grows by one
        // `d_ℓ = 0` row per level.
        let domains = sys.len();
        for (ea, eb) in a.src.chunks_exact(w).zip(b.dst.chunks_exact(w)) {
            sys.push_row(Rel::Eq, ea.iter().zip(eb).map(|(x, y)| x - y));
        }

        // Carried at level ℓ: d_0..d_{ℓ-1} = 0, d_ℓ >= 1.
        for (level, d) in self.dists.iter().enumerate() {
            let carried = d[..w - 1].iter().copied().chain([-1]);
            sys.push_row(Rel::Ge, carried);
            if sys.satisfiable(&mut out.fm_solves) {
                let dist = self
                    .dists
                    .iter()
                    .map(|d| {
                        let (min, max) = sys.bounds_of(d, DIST_PROBE_LIMIT, &mut out.fm_solves);
                        #[cfg(test)]
                        assert_eq!(
                            (min, max),
                            sys.bounds_by_bisection(d, DIST_PROBE_LIMIT),
                            "projection and the bisection oracle disagree on {d:?} in {sys:?}"
                        );
                        DistBound { min, max }
                    })
                    .collect();
                out.deps.push(dep(Some(level), dist));
            }
            sys.truncate(sys.len() - 1);
            sys.push_row(Rel::Eq, d.iter().copied());
        }

        // Loop-independent: all distances 0, src textually before dst (or a
        // write/read pair within the same statement — intra-statement flow is
        // not a parallelism obstacle and is skipped).
        if src < dst && sys.satisfiable(&mut out.fm_solves) {
            out.deps
                .push(dep(None, vec![DistBound::exact(0); self.dists.len()]));
        }
        sys.truncate(domains);
    }
}

/// Convenience: is loop level `l` parallel under the *original* schedule,
/// i.e. does no dependence carry at that level?
pub fn parallel_levels(scop: &Scop, deps: &[Dependence]) -> Vec<bool> {
    let mut parallel = vec![true; scop.depth()];
    for d in deps {
        if let Some(l) = d.level {
            parallel[l] = false;
        }
    }
    parallel
}

#[cfg(test)]
mod tests {
    use super::*;
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
        extract_scop(&found.expect("for loop"), &IterTypes::default()).expect("scop")
    }

    #[test]
    fn matmul_writes_are_independent() {
        let scop = scop_of(
            "float** C;\nvoid f() {\n\
             for (int i = 0; i < 64; i++)\n\
                 for (int j = 0; j < 64; j++)\n\
                     C[i][j] = tmpConst_dot_0;\n}",
        );
        let deps = analyze(&scop).deps;
        assert!(deps.is_empty(), "{deps:?}");
        assert_eq!(parallel_levels(&scop, &deps), vec![true, true]);
    }

    #[test]
    fn jacobi_two_arrays_has_no_carried_deps() {
        let scop = scop_of(
            "void f(float** a, float** b) {\n\
             for (int i = 1; i < 63; i++)\n\
                 for (int j = 1; j < 63; j++)\n\
                     b[i][j] = a[i - 1][j] + a[i + 1][j] + a[i][j - 1] + a[i][j + 1];\n}",
        );
        let deps = analyze(&scop).deps;
        assert!(deps.is_empty(), "{deps:?}");
    }

    #[test]
    fn seidel_in_place_stencil_carries_both_levels() {
        // a[i][j] = a[i-1][j] + a[i][j-1]: flow deps (1,0) and (0,1).
        let scop = scop_of(
            "void f(float** a) {\n\
             for (int i = 1; i < 64; i++)\n\
                 for (int j = 1; j < 64; j++)\n\
                     a[i][j] = a[i - 1][j] + a[i][j - 1];\n}",
        );
        let deps = analyze(&scop).deps;
        let carried: Vec<Option<usize>> = deps.iter().map(|d| d.level).collect();
        assert!(carried.contains(&Some(0)), "{deps:?}");
        assert!(carried.contains(&Some(1)), "{deps:?}");
        assert_eq!(parallel_levels(&scop, &deps), vec![false, false]);

        // The (1,0) flow dep must have exact distance (1,0).
        let d10 = deps
            .iter()
            .find(|d| d.kind == DepKind::Flow && d.level == Some(0) && d.dist[0].is_exactly(1))
            .expect("flow dep at level 0");
        assert!(d10.dist[1].is_exactly(0) || d10.dist[1].min.is_some());
    }

    #[test]
    fn fig2_skew_example_distances() {
        // The paper's Fig. 2 shape: deps (1,0) and (1,-1) make rectangular
        // tiling of the original space invalid.
        let scop = scop_of(
            "void f(float** a) {\n\
             for (int i = 1; i < 64; i++)\n\
                 for (int j = 1; j < 63; j++)\n\
                     a[i][j] = a[i - 1][j] + a[i - 1][j + 1];\n}",
        );
        let deps = analyze(&scop).deps;
        assert!(!deps.is_empty());
        // All carried at level 0 (the i loop), with j-distance min of -1.
        let flows: Vec<&Dependence> = deps.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert!(flows.iter().all(|d| d.level == Some(0)), "{deps:?}");
        // Pinned: exactly the distance vectors (1,0) and (1,-1).
        let vectors: Vec<String> = flows
            .iter()
            .map(|d| format!("({},{})", d.dist[0], d.dist[1]))
            .collect();
        assert_eq!(vectors, ["(1,0)", "(1,-1)"], "{deps:?}");
        // The j loop itself carries nothing → parallel at fixed i.
        assert_eq!(parallel_levels(&scop, &deps), vec![false, true]);
    }

    #[test]
    fn reduction_scalar_carries_innermost() {
        let scop = scop_of(
            "void f(float* a) { float res; for (int i = 0; i < 8; i++) res = res + a[i]; }",
        );
        let deps = analyze(&scop).deps;
        assert!(deps.iter().any(|d| d.level == Some(0)), "{deps:?}");
        assert_eq!(parallel_levels(&scop, &deps), vec![false]);
    }

    #[test]
    fn one_dim_shift_distance() {
        let scop = scop_of("void f(float* a) { for (int i = 0; i < 63; i++) a[i] = a[i + 1]; }");
        let deps = analyze(&scop).deps;
        // Anti dependence: read a[i+1] then write a[i+1] one iteration later.
        let anti = deps
            .iter()
            .find(|d| d.kind == DepKind::Anti)
            .expect("anti dep");
        assert_eq!(anti.level, Some(0));
        assert!(anti.dist[0].is_exactly(1), "{anti}");
        // No flow dep in this direction.
        assert!(deps.iter().all(|d| d.kind != DepKind::Flow), "{deps:?}");
    }

    #[test]
    fn loop_independent_dep_between_statements() {
        let scop = scop_of(
            "void f(float* a, float* b) {\n\
             for (int i = 0; i < 8; i++) {\n\
                 a[i] = i;\n\
                 b[i] = a[i] * 2;\n\
             }\n}",
        );
        let deps = analyze(&scop).deps;
        let indep = deps
            .iter()
            .find(|d| d.level.is_none())
            .expect("loop-independent dep");
        assert_eq!(indep.kind, DepKind::Flow);
        assert_eq!(indep.src_stmt, 0);
        assert_eq!(indep.dst_stmt, 1);
        // Loop-independent deps do not block parallelism.
        assert_eq!(parallel_levels(&scop, &deps), vec![true]);
    }

    #[test]
    fn parametric_bounds_still_analyzable() {
        let scop =
            scop_of("void f(int n, float* a) { for (int i = 1; i < n; i++) a[i] = a[i - 1]; }");
        let deps = analyze(&scop).deps;
        let flow = deps.iter().find(|d| d.kind == DepKind::Flow).expect("flow");
        assert_eq!(flow.level, Some(0));
        assert!(flow.dist[0].is_exactly(1), "{flow}");
    }

    #[test]
    fn accesses_of_different_rank_are_compared_on_their_common_prefix() {
        // A row-pointer store and an element read through the same table:
        // iteration i reads the row iteration i-1 installed.
        let scop = scop_of(
            "void f(int n, float** a, float** rows, float* x) {\n\
             for (int i = 1; i < n; i++) {\n\
                 a[i] = rows[i];\n\
                 x[i] = a[i - 1][0];\n\
             }\n}",
        );
        let deps = analyze(&scop).deps;
        let flow = deps
            .iter()
            .find(|d| d.kind == DepKind::Flow && d.array == "a")
            .expect("flow dependence through the row table");
        assert_eq!((flow.src_stmt, flow.dst_stmt), (0, 1));
        assert_eq!(flow.level, Some(0));
        assert!(flow.dist[0].is_exactly(1), "{flow}");
        assert_eq!(parallel_levels(&scop, &deps), vec![false]);
    }

    /// Every loop nest of `src` that models as a SCoP once PC-CC has
    /// replaced the pure calls.
    fn scops_of_program(src: &str) -> Vec<Scop> {
        let Ok(pcc) = purec_core::run_pc_cc(src, Default::default()) else {
            return Vec::new();
        };
        let mut scops = Vec::new();
        let globals = IterTypes::of_globals(&pcc.unit);
        for f in pcc.unit.functions() {
            let types = globals.in_function(f);
            for s in f.body.iter().flat_map(|b| &b.stmts) {
                s.walk(&mut |st| {
                    if matches!(st.kind, StmtKind::For { .. }) {
                        scops.extend(extract_scop(st, &types));
                    }
                });
            }
        }
        scops
    }

    // `heavy_unit(groups)`: a `compile_heavy`-shaped translation unit.
    include!("../../../tests/support/heavy_unit.rs");

    #[test]
    fn projection_equals_bisection_on_every_pair_system_of_the_corpus() {
        // `test_pair` compares each projected bound with the bisection
        // oracle in a test build; this drives it over every SCoP of the
        // checked-in programs, the paper's applications and a
        // `compile_heavy`-shaped unit.
        let mut sources = vec![
            apps::matmul::c_source(8),
            apps::matmul::c_source_inline(8),
            apps::heat::c_source(8, 2),
            apps::satellite::c_source(8, 6),
            apps::lama::c_source(8, 3),
            heavy_unit(9),
        ];
        let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
        for dir in [".", "schedules", "analysis"] {
            for entry in std::fs::read_dir(examples.join(dir)).expect("examples directory") {
                let path = entry.expect("directory entry").path();
                if path.extension().is_some_and(|e| e == "c") {
                    sources.push(std::fs::read_to_string(&path).expect("readable example"));
                }
            }
        }
        let (mut scops, mut bounded) = (0, 0);
        for src in &sources {
            for scop in scops_of_program(src) {
                let deps = analyze(&scop).deps;
                scops += 1;
                bounded += deps.iter().filter(|d| d.level.is_some()).count();
            }
        }
        assert!(scops >= 60, "corpus shrank: {scops} SCoPs");
        assert!(
            bounded >= 80,
            "too few carried dependences compared: {bounded}"
        );
    }
}
