//! SICA extension (PluTo-SICA, Feld et al.): hardware-aware tile-size
//! selection and SIMD annotation.
//!
//! The original SICA chooses tile sizes so the working set of a tile fits
//! the targeted cache level, and marks stride-1 inner loops for
//! vectorization. We reproduce the sizing rule: for a band of dimension
//! `d` touching `A` distinct arrays of element size `E`, the tile edge is
//! the largest power of two `B` with `A · E · B^d ≤ cache_bytes`, clamped
//! to a SIMD-friendly minimum.

use crate::model::Scop;
use std::collections::BTreeSet;

/// Cache/SIMD parameters of the target machine (defaults: AMD Opteron 6272
/// "Bulldozer" module — 16 KiB L1D per core, 2 MiB shared L2, AVX 128-bit
/// effective FP datapath per core pair).
#[derive(Debug, Clone, Copy)]
pub struct SicaParams {
    pub l1_bytes: usize,
    pub l2_bytes: usize,
    /// SIMD vector width in elements for f32 (Opteron 6272 AVX: 8).
    pub simd_width: usize,
    /// Element size assumed for working-set estimation.
    pub elem_bytes: usize,
}

impl Default for SicaParams {
    fn default() -> Self {
        SicaParams {
            l1_bytes: 16 * 1024,
            l2_bytes: 2 * 1024 * 1024,
            simd_width: 8,
            elem_bytes: 4,
        }
    }
}

/// Number of distinct arrays accessed by the SCoP (scalars excluded).
pub fn distinct_arrays(scop: &Scop) -> usize {
    let mut names: BTreeSet<&str> = BTreeSet::new();
    for s in &scop.stmts {
        for a in s.writes.iter().chain(&s.reads) {
            if !a.indices.is_empty() {
                names.insert(a.array.as_str());
            }
        }
    }
    names.len().max(1)
}

/// Choose a rectangular tile edge for the permutable band (band length
/// `d ≥ 2`): largest power of two whose tile working set fits L2, but at
/// least `simd_width`.
pub fn select_tile_size(scop: &Scop, band: usize, p: SicaParams) -> Option<i64> {
    if band < 2 {
        return None;
    }
    let arrays = distinct_arrays(scop) as f64;
    let budget = p.l2_bytes as f64 / (arrays * p.elem_bytes as f64);
    // B^band <= budget ⇒ B <= budget^(1/band)
    let ideal = budget.powf(1.0 / band as f64);
    let mut b: i64 = 1;
    while ((b * 2) as f64) <= ideal && b * 2 <= 1024 {
        b *= 2;
    }
    Some(b.max(p.simd_width as i64))
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
        extract_scop(&found.expect("for"), &IterTypes::default()).expect("scop")
    }

    #[test]
    fn counts_distinct_arrays() {
        let scop = scop_of(
            "void f(float** a, float** b, float** c) {\n\
             for (int i = 0; i < 8; i++)\n\
                 for (int j = 0; j < 8; j++)\n\
                     c[i][j] = a[i][j] + b[i][j] + a[i][j];\n}",
        );
        assert_eq!(distinct_arrays(&scop), 3);
    }

    #[test]
    fn tile_size_is_power_of_two_and_fits_l2() {
        let scop = scop_of(
            "void f(float** a, float** b) {\n\
             for (int i = 0; i < 4096; i++)\n\
                 for (int j = 0; j < 4096; j++)\n\
                     b[i][j] = a[i][j];\n}",
        );
        let p = SicaParams::default();
        let b = select_tile_size(&scop, 2, p).unwrap();
        assert!(b >= p.simd_width as i64);
        assert_eq!(b & (b - 1), 0, "tile must be a power of two, got {b}");
        let working_set = 2 * p.elem_bytes as i64 * b * b;
        assert!(working_set <= p.l2_bytes as i64, "tile {b} overflows L2");
        // And doubling it must overflow (maximality).
        let doubled = 2 * p.elem_bytes as i64 * (2 * b) * (2 * b);
        assert!(doubled > p.l2_bytes as i64, "tile {b} is not maximal");
    }

    #[test]
    fn no_tile_for_1d_band() {
        let scop = scop_of("void f(float* a) { for (int i = 0; i < 8; i++) a[i] = 0; }");
        assert_eq!(select_tile_size(&scop, 1, SicaParams::default()), None);
    }

    #[test]
    fn smaller_cache_gives_smaller_tile() {
        let scop = scop_of(
            "void f(float** a, float** b) {\n\
             for (int i = 0; i < 4096; i++)\n\
                 for (int j = 0; j < 4096; j++)\n\
                     b[i][j] = a[i][j];\n}",
        );
        let big = select_tile_size(&scop, 2, SicaParams::default()).unwrap();
        let small = select_tile_size(
            &scop,
            2,
            SicaParams {
                l2_bytes: 64 * 1024,
                ..SicaParams::default()
            },
        )
        .unwrap();
        assert!(small <= big);
    }
}
