//! Application 1: matrix–matrix multiplication (paper Sect. 4.1,
//! Listings 7/8, Figs. 3–5).
//!
//! `C[i][j] = dot(A[i], Bt[j])` with the dot product extracted into a
//! `pure` function. Provides the annotated C source fed to the compiler
//! chain, native Rust reference implementations (sequential and omprt-
//! parallel), and the workload characterization used by the simulator at
//! paper scale.

use crate::util::SendPtr;
use machine::{parallel_for_pooled, OmpSchedule};

/// Row-major square matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub n: usize,
    pub data: Vec<f32>,
}

impl Matrix {
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Deterministic pseudo-random fill (LCG), independent of platform.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
        };
        Matrix {
            n,
            data: (0..n * n).map(|_| next() - 0.5).collect(),
        }
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.n + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.n + j] = v;
    }

    pub fn transpose(&self) -> Matrix {
        let n = self.n;
        let mut t = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                t.set(j, i, self.at(i, j));
            }
        }
        t
    }

    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// The paper's pure dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut res = 0.0f32;
    for i in 0..a.len().min(b.len()) {
        res += a[i] * b[i];
    }
    res
}

/// Sequential reference: `C = A · B` using the transposed-B layout of the
/// paper's listing.
pub fn matmul_seq(a: &Matrix, bt: &Matrix) -> Matrix {
    let n = a.n;
    let mut c = Matrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            let v = dot(&a.data[i * n..(i + 1) * n], &bt.data[j * n..(j + 1) * n]);
            c.set(i, j, v);
        }
    }
    c
}

/// Parallel version on the omprt runtime (what the transformed program
/// does: outer loop parallel, dot extracted).
pub fn matmul_par(a: &Matrix, bt: &Matrix, threads: usize, schedule: OmpSchedule) -> Matrix {
    let n = a.n;
    let mut c = Matrix::zeros(n);
    {
        let cptr = SendPtr(c.data.as_mut_ptr());
        parallel_for_pooled(n as u64, threads, schedule, |i| {
            let i = i as usize;
            let row_a = &a.data[i * n..(i + 1) * n];
            for j in 0..n {
                let v = dot(row_a, &bt.data[j * n..(j + 1) * n]);
                // SAFETY: iteration i writes only row i of C — the
                // disjointness verified by the purity/dependence analysis.
                unsafe { *cptr.get().add(i * n + j) = v };
            }
        });
    }
    c
}

/// The annotated C source of the paper's Listing 7, parameterized by size
/// (the paper uses 4096; tests interpret reduced sizes).
pub fn c_source(n: usize) -> String {
    format!(
        "#include <stdio.h>\n\
         #include <stdlib.h>\n\
         \n\
         float **A, **Bt, **C;\n\
         \n\
         pure float mult(float a, float b) {{\n\
             return a * b;\n\
         }}\n\
         \n\
         pure float dot(pure float* a, pure float* b, int size) {{\n\
             float res = 0.0f;\n\
             for (int i = 0; i < size; ++i)\n\
                 res += mult(a[i], b[i]);\n\
             return res;\n\
         }}\n\
         \n\
         int main(int argc, char** argv) {{\n\
             A = (float**) malloc({n} * sizeof(float*));\n\
             Bt = (float**) malloc({n} * sizeof(float*));\n\
             C = (float**) malloc({n} * sizeof(float*));\n\
             for (int i = 0; i < {n}; ++i) {{\n\
                 A[i] = (float*) malloc({n} * sizeof(float));\n\
                 Bt[i] = (float*) malloc({n} * sizeof(float));\n\
                 C[i] = (float*) malloc({n} * sizeof(float));\n\
                 for (int j = 0; j < {n}; ++j) {{\n\
                     A[i][j] = (float)(i + 2 * j + 1);\n\
                     Bt[i][j] = (float)(i - j + 3);\n\
                 }}\n\
             }}\n\
             for (int i = 0; i < {n}; ++i)\n\
                 for (int j = 0; j < {n}; ++j)\n\
                     C[i][j] = dot((pure float*)A[i], (pure float*)Bt[j], {n});\n\
             float checksum = 0.0f;\n\
             for (int i = 0; i < {n}; ++i)\n\
                 checksum += C[i][(i * 7) % {n}];\n\
             printf(\"checksum=%.1f\\n\", checksum);\n\
             return 0;\n\
         }}\n"
    )
}

/// Inline triple-loop variant of [`c_source`]: same matrices, same
/// checksum, but the product nest accumulates in place with no pure-call
/// boundary, so the polyhedral backend sees every subscript stream — the
/// shape where schedule-aware execution (hoisted bounds, fused back
/// edges, strength-reduced row pointers) pays off in wall time rather
/// than only in dispatch counts.
pub fn c_source_inline(n: usize) -> String {
    format!(
        "#include <stdio.h>\n\
         #include <stdlib.h>\n\
         \n\
         float **A, **Bt, **C;\n\
         \n\
         int main(int argc, char** argv) {{\n\
             A = (float**) malloc({n} * sizeof(float*));\n\
             Bt = (float**) malloc({n} * sizeof(float*));\n\
             C = (float**) malloc({n} * sizeof(float*));\n\
             for (int i = 0; i < {n}; ++i) {{\n\
                 A[i] = (float*) malloc({n} * sizeof(float));\n\
                 Bt[i] = (float*) malloc({n} * sizeof(float));\n\
                 C[i] = (float*) malloc({n} * sizeof(float));\n\
                 for (int j = 0; j < {n}; ++j) {{\n\
                     A[i][j] = (float)(i + 2 * j + 1);\n\
                     Bt[i][j] = (float)(i - j + 3);\n\
                     C[i][j] = 0.0f;\n\
                 }}\n\
             }}\n\
             #pragma omp parallel for\n\
             for (int i = 0; i < {n}; ++i)\n\
                 for (int j = 0; j < {n}; ++j)\n\
                     for (int k = 0; k < {n}; ++k)\n\
                         C[i][j] += A[i][k] * Bt[j][k];\n\
             float checksum = 0.0f;\n\
             for (int i = 0; i < {n}; ++i)\n\
                 checksum += C[i][(i * 7) % {n}];\n\
             printf(\"checksum=%.1f\\n\", checksum);\n\
             return 0;\n\
         }}\n"
    )
}

/// Native mirror of the deterministic init in [`c_source`], so interpreter
/// results can be cross-checked against Rust.
pub fn c_source_checksum(n: usize) -> f32 {
    let mut a = Matrix::zeros(n);
    let mut bt = Matrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            a.set(i, j, (i as i64 + 2 * j as i64 + 1) as f32);
            bt.set(i, j, (i as i64 - j as i64 + 3) as f32);
        }
    }
    let c = matmul_seq(&a, &bt);
    let mut checksum = 0.0f32;
    for i in 0..n {
        checksum += c.at(i, (i * 7) % n);
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_matches_naive_definition() {
        let n = 17;
        let a = Matrix::random(n, 1);
        let b = Matrix::random(n, 2);
        let bt = b.transpose();
        let c = matmul_seq(&a, &bt);
        // Spot-check against the direct definition.
        for (i, j) in [(0, 0), (3, 11), (16, 16), (8, 2)] {
            let mut expect = 0.0f32;
            for k in 0..n {
                expect += a.at(i, k) * b.at(k, j);
            }
            assert!((c.at(i, j) - expect).abs() < 1e-3, "mismatch at {i},{j}");
        }
    }

    #[test]
    fn parallel_matches_sequential_all_schedules() {
        let n = 33;
        let a = Matrix::random(n, 3);
        let bt = Matrix::random(n, 4);
        let seq = matmul_seq(&a, &bt);
        for sched in [
            OmpSchedule::Static,
            OmpSchedule::Dynamic(1),
            OmpSchedule::Guided(2),
            OmpSchedule::StaticChunk(5),
        ] {
            let par = matmul_par(&a, &bt, 8, sched);
            assert_eq!(seq.max_abs_diff(&par), 0.0, "schedule {sched}");
        }
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random(13, 9);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn c_source_parses_and_verifies() {
        let src = c_source(8);
        let out =
            purec_core::run_pc_cc(&src, purec_core::PcCcOptions::default()).expect("pipeline");
        assert!(out.pure_set.contains("dot"));
        assert!(out.pure_set.contains("mult"));
        // Init loop (malloc) + compute loop in main, plus dot's own loop.
        assert!(out.scops_marked >= 2, "marked {}", out.scops_marked);
    }

    #[test]
    fn checksum_helper_is_deterministic() {
        assert_eq!(c_source_checksum(8), c_source_checksum(8));
    }
}
