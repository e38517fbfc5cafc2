//! Application 4: ELL sparse matrix–vector multiplication from the LAMA
//! library (paper Sect. 4.1/4.3.4, Figs. 10–11).
//!
//! **Substitution**: the Boeing/pwtk matrix (stiffness
//! matrix of a pressurized wind tunnel, 217 918 rows, 11.5 M non-zeros) is
//! not shipped; [`EllMatrix::pwtk_like`] generates a banded symmetric
//! matrix with the same row-population statistics (mean ≈ 53 nnz/row,
//! clustered bands, symmetric pattern), stored in the same ELL format
//! (column-padded to the max row length). The SpMV row loop's indirect
//! addressing is hidden inside the pure `ell_dot`, which is what lets the
//! chain parallelize the row loop.

use crate::util::SendPtr;
use machine::{parallel_for_pooled, OmpSchedule};

/// ELLPACK-R sparse matrix: `rows × rows`, every row padded to `max_nnz`.
/// Column-major padding as in LAMA: entry `(r, k)` at `k * rows + r`.
#[derive(Debug, Clone)]
pub struct EllMatrix {
    pub rows: usize,
    pub max_nnz: usize,
    /// Column indices, `rows × max_nnz`, padded with the row's own index.
    pub col_idx: Vec<u32>,
    /// Values, padded with zeros.
    pub values: Vec<f32>,
    /// Actual non-zeros per row.
    pub row_nnz: Vec<u32>,
}

impl EllMatrix {
    /// Build from per-row (col, value) lists.
    pub fn from_rows(rows: usize, row_entries: &[Vec<(u32, f32)>]) -> Self {
        assert_eq!(rows, row_entries.len());
        let max_nnz = row_entries.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut col_idx = vec![0u32; rows * max_nnz];
        let mut values = vec![0.0f32; rows * max_nnz];
        let mut row_nnz = vec![0u32; rows];
        for (r, entries) in row_entries.iter().enumerate() {
            row_nnz[r] = entries.len() as u32;
            for (k, &(c, v)) in entries.iter().enumerate() {
                col_idx[k * rows + r] = c;
                values[k * rows + r] = v;
            }
            // Pad with the diagonal index and zero value.
            for k in entries.len()..max_nnz {
                col_idx[k * rows + r] = r as u32;
            }
        }
        EllMatrix {
            rows,
            max_nnz,
            col_idx,
            values,
            row_nnz,
        }
    }

    /// Synthetic stand-in for Boeing/pwtk: a symmetric banded FEM-like
    /// pattern. `rows` and `target_nnz_per_row` are scaled down in tests
    /// and set to (217_918, 53) at paper scale.
    pub fn pwtk_like(rows: usize, target_nnz_per_row: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let half = (target_nnz_per_row / 2).max(1);
        let mut row_entries: Vec<Vec<(u32, f32)>> = Vec::with_capacity(rows);
        for r in 0..rows {
            // Three clustered bands (node coupling in a 3-D FEM mesh):
            // near-diagonal plus two off-diagonal blocks.
            let mut cols: Vec<u32> = Vec::with_capacity(target_nnz_per_row + 3);
            cols.push(r as u32);
            for d in 1..=(half / 3 + 1) {
                if r >= d {
                    cols.push((r - d) as u32);
                }
                if r + d < rows {
                    cols.push((r + d) as u32);
                }
            }
            let block = rows / 16 + 1;
            for d in [block, block + 1, 2 * block] {
                if r >= d {
                    cols.push((r - d) as u32);
                }
                if r + d < rows {
                    cols.push((r + d) as u32);
                }
            }
            cols.sort_unstable();
            cols.dedup();
            cols.truncate(target_nnz_per_row + 4);
            let entries = cols
                .into_iter()
                .map(|c| {
                    let v = if c as usize == r {
                        4.0 + (next() % 100) as f32 / 100.0
                    } else {
                        -1.0 + (next() % 100) as f32 / 200.0
                    };
                    (c, v)
                })
                .collect();
            row_entries.push(entries);
        }
        Self::from_rows(rows, &row_entries)
    }

    pub fn nnz(&self) -> u64 {
        self.row_nnz.iter().map(|&n| n as u64).sum()
    }

    /// Pure per-row dot product (the LAMA function the paper marks pure):
    /// indirect addressing through the ELL column array.
    #[inline]
    pub fn ell_dot(&self, row: usize, x: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for k in 0..self.max_nnz {
            let idx = k * self.rows + row;
            acc += self.values[idx] * x[self.col_idx[idx] as usize];
        }
        acc
    }

    /// Sequential SpMV.
    pub fn spmv_seq(&self, x: &[f32]) -> Vec<f32> {
        (0..self.rows).map(|r| self.ell_dot(r, x)).collect()
    }

    /// Parallel SpMV on the omprt runtime.
    pub fn spmv_par(&self, x: &[f32], threads: usize, schedule: OmpSchedule) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        {
            let yptr = SendPtr(y.as_mut_ptr());
            parallel_for_pooled(self.rows as u64, threads, schedule, |r| {
                let v = self.ell_dot(r as usize, x);
                // SAFETY: row r writes y[r] only.
                unsafe { *yptr.get().add(r as usize) = v };
            });
        }
        y
    }
}

/// Annotated C source: ELL SpMV with the pure row kernel.
pub fn c_source(rows: usize, max_nnz: usize) -> String {
    format!(
        "#include <stdlib.h>\n\
         #include <stdio.h>\n\
         \n\
         float* values;\n\
         int* colidx;\n\
         float* x;\n\
         float* y;\n\
         \n\
         pure float ell_dot(pure float* vals, pure int* cols, pure float* vec, int row, int rows, int maxnnz) {{\n\
             float acc = 0.0f;\n\
             for (int k = 0; k < maxnnz; k++) {{\n\
                 acc += vals[k * rows + row] * vec[cols[k * rows + row]];\n\
             }}\n\
             return acc;\n\
         }}\n\
         \n\
         int main() {{\n\
             int rows = {rows};\n\
             int maxnnz = {max_nnz};\n\
             values = (float*) malloc(rows * maxnnz * sizeof(float));\n\
             colidx = (int*) malloc(rows * maxnnz * sizeof(int));\n\
             x = (float*) malloc(rows * sizeof(float));\n\
             y = (float*) malloc(rows * sizeof(float));\n\
             for (int r = 0; r < rows; r++) {{\n\
                 x[r] = 1.0f + 0.001f * (float)(r % 97);\n\
                 for (int k = 0; k < maxnnz; k++) {{\n\
                     int c = r + k - maxnnz / 2;\n\
                     if (c < 0) c = 0;\n\
                     if (c >= rows) c = rows - 1;\n\
                     colidx[k * rows + r] = c;\n\
                     values[k * rows + r] = (k == maxnnz / 2) ? 4.0f : -0.1f;\n\
                 }}\n\
             }}\n\
             for (int r = 0; r < rows; r++)\n\
                 y[r] = ell_dot((pure float*)values, (pure int*)colidx, (pure float*)x, r, rows, maxnnz);\n\
             float total = 0.0f;\n\
             for (int r = 0; r < rows; r++) total += y[r];\n\
             printf(\"spmv=%.3f\\n\", total);\n\
             return 0;\n\
         }}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_check(m: &EllMatrix, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; m.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            for k in 0..m.max_nnz {
                let idx = k * m.rows + r;
                *yr += m.values[idx] * x[m.col_idx[idx] as usize];
            }
        }
        y
    }

    #[test]
    fn ell_layout_round_trip() {
        let rows = vec![
            vec![(0u32, 2.0f32), (1, -1.0)],
            vec![(0, -1.0), (1, 2.0), (2, -1.0)],
            vec![(1, -1.0), (2, 2.0)],
        ];
        let m = EllMatrix::from_rows(3, &rows);
        assert_eq!(m.max_nnz, 3);
        assert_eq!(m.nnz(), 7);
        let x = vec![1.0, 2.0, 3.0];
        let y = m.spmv_seq(&x);
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmv_matches_dense_expansion() {
        let m = EllMatrix::pwtk_like(200, 12, 3);
        let x: Vec<f32> = (0..200).map(|i| 1.0 + (i % 7) as f32 * 0.1).collect();
        let y = m.spmv_seq(&x);
        let y2 = dense_check(&m, &x);
        for (a, b) in y.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn parallel_spmv_matches_sequential() {
        let m = EllMatrix::pwtk_like(500, 14, 9);
        let x: Vec<f32> = (0..500).map(|i| (i % 13) as f32 * 0.25).collect();
        let seq = m.spmv_seq(&x);
        for sched in [OmpSchedule::Static, OmpSchedule::Dynamic(8)] {
            let par = m.spmv_par(&x, 8, sched);
            assert_eq!(seq, par, "schedule {sched}");
        }
    }

    #[test]
    fn pwtk_like_statistics() {
        let m = EllMatrix::pwtk_like(2000, 53, 42);
        let avg = m.nnz() as f64 / m.rows as f64;
        // The real pwtk averages ~52.9 nnz/row; the generator's bands are
        // capped by the target.
        assert!(avg > 10.0 && avg <= 60.0, "avg nnz/row = {avg}");
        // Row populations vary (the end-of-matrix imbalance the paper
        // mentions): boundary rows are lighter.
        let first = m.row_nnz[0];
        let mid = m.row_nnz[1000];
        assert!(
            first < mid,
            "boundary rows must be lighter: {first} vs {mid}"
        );
    }

    #[test]
    fn symmetric_pattern() {
        let m = EllMatrix::pwtk_like(300, 16, 5);
        // Check pattern symmetry on a sample of entries.
        use std::collections::HashSet;
        let mut pattern = HashSet::new();
        for r in 0..m.rows {
            for k in 0..m.row_nnz[r] as usize {
                pattern.insert((r as u32, m.col_idx[k * m.rows + r]));
            }
        }
        for &(r, c) in pattern.iter().take(500) {
            assert!(
                pattern.contains(&(c, r)),
                "pattern must be symmetric: ({r},{c}) present, ({c},{r}) missing"
            );
        }
    }

    #[test]
    fn c_source_passes_the_chain() {
        let src = c_source(64, 9);
        let out =
            purec_core::run_pc_cc(&src, purec_core::PcCcOptions::default()).expect("pipeline");
        assert!(out.pure_set.contains("ell_dot"));
        assert!(out.scops_marked >= 1);
    }
}
