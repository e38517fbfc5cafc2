//! Application 2: heat distribution on a point-heated plate (paper
//! Sect. 4.1/4.3.2, Figs. 6–7).
//!
//! Jacobi iteration on a `n × n` grid: each step averages the four
//! neighbours into a second buffer, then the buffers swap. The plate is
//! permanently heated at one point of one side. The paper runs
//! 4096 × 4096 for 200 steps.

use crate::util::SendPtr;
use machine::{parallel_for_pooled, OmpSchedule};

/// The heated plate: two buffers, swap after each step.
#[derive(Debug, Clone)]
pub struct Plate {
    pub n: usize,
    pub cur: Vec<f32>,
    pub next: Vec<f32>,
    /// Heat source position (row on the left edge) and temperature.
    pub source: (usize, usize),
    pub source_temp: f32,
}

impl Plate {
    pub fn new(n: usize) -> Self {
        let mut p = Plate {
            n,
            cur: vec![0.0; n * n],
            next: vec![0.0; n * n],
            source: (n / 2, 0),
            source_temp: 100.0,
        };
        p.apply_source();
        p
    }

    fn apply_source(&mut self) {
        let (si, sj) = self.source;
        self.cur[si * self.n + sj] = self.source_temp;
    }

    /// The paper's per-point update, extracted as the pure function: the
    /// average of the four direct neighbours.
    #[inline]
    pub fn stencil(grid: &[f32], n: usize, i: usize, j: usize) -> f32 {
        0.25 * (grid[(i - 1) * n + j]
            + grid[(i + 1) * n + j]
            + grid[i * n + j - 1]
            + grid[i * n + j + 1])
    }

    /// One sequential Jacobi step.
    pub fn step_seq(&mut self) {
        let n = self.n;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                self.next[i * n + j] = Self::stencil(&self.cur, n, i, j);
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        self.apply_source();
    }

    /// One parallel Jacobi step on the omprt runtime (row-parallel, the
    /// shape the transformed code has).
    pub fn step_par(&mut self, threads: usize, schedule: OmpSchedule) {
        let n = self.n;
        {
            let src = &self.cur;
            let dst = SendPtr(self.next.as_mut_ptr());
            parallel_for_pooled((n - 2) as u64, threads, schedule, |row| {
                let i = row as usize + 1;
                for j in 1..n - 1 {
                    // SAFETY: row i of `next` is written by iteration i only.
                    unsafe { *dst.get().add(i * n + j) = Self::stencil(src, n, i, j) };
                }
            });
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        self.apply_source();
    }

    pub fn run_seq(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step_seq();
        }
    }

    pub fn run_par(&mut self, steps: usize, threads: usize, schedule: OmpSchedule) {
        for _ in 0..steps {
            self.step_par(threads, schedule);
        }
    }

    /// Total heat (conserved modulo boundary losses); used as a checksum.
    pub fn total_heat(&self) -> f64 {
        self.cur.iter().map(|&v| v as f64).sum()
    }

    pub fn max_abs_diff(&self, other: &Plate) -> f32 {
        self.cur
            .iter()
            .zip(&other.cur)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Annotated C source of the heat application for the compiler chain. The
/// spatial nests call the pure `stencil_avg`; the outer time loop contains
/// two nests + no calls, so the chain marks it and the polyhedral driver
/// descends to the children (the imperfect-nest path).
pub fn c_source(n: usize, steps: usize) -> String {
    format!(
        "#include <stdlib.h>\n\
         #include <stdio.h>\n\
         \n\
         float **cur, **nxt;\n\
         \n\
         pure float stencil_avg(pure float* up, pure float* row, pure float* down, int j) {{\n\
             return 0.25f * (up[j] + down[j] + row[j - 1] + row[j + 1]);\n\
         }}\n\
         \n\
         int main() {{\n\
             cur = (float**) malloc({n} * sizeof(float*));\n\
             nxt = (float**) malloc({n} * sizeof(float*));\n\
             for (int i = 0; i < {n}; i++) {{\n\
                 cur[i] = (float*) malloc({n} * sizeof(float));\n\
                 nxt[i] = (float*) malloc({n} * sizeof(float));\n\
                 for (int j = 0; j < {n}; j++) {{\n\
                     cur[i][j] = 0.0f;\n\
                     nxt[i][j] = 0.0f;\n\
                 }}\n\
             }}\n\
             cur[{mid}][0] = 100.0f;\n\
             for (int t = 0; t < {steps}; t++) {{\n\
                 for (int i = 1; i < {nm1}; i++)\n\
                     for (int j = 1; j < {nm1}; j++)\n\
                         nxt[i][j] = stencil_avg((pure float*)cur[i - 1], (pure float*)cur[i], (pure float*)cur[i + 1], j);\n\
                 for (int i = 1; i < {nm1}; i++)\n\
                     for (int j = 1; j < {nm1}; j++)\n\
                         cur[i][j] = nxt[i][j];\n\
                 cur[{mid}][0] = 100.0f;\n\
             }}\n\
             float total = 0.0f;\n\
             for (int i = 0; i < {n}; i++)\n\
                 for (int j = 0; j < {n}; j++)\n\
                     total += cur[i][j];\n\
             printf(\"heat=%.3f\\n\", total);\n\
             return 0;\n\
         }}\n",
        mid = n / 2,
        nm1 = n - 1,
    )
}

/// Native mirror of the C program above (for interpreter cross-checks).
pub fn c_source_total(n: usize, steps: usize) -> f64 {
    let mut plate = Plate::new(n);
    // The C version copies next→cur instead of swapping; semantics match
    // Jacobi with a fixed source.
    plate.run_seq(steps);
    plate.total_heat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_diffuses_from_source() {
        let mut p = Plate::new(32);
        p.run_seq(50);
        // The source stays hot.
        assert_eq!(p.cur[16 * 32], 100.0);
        // Heat reached the neighbourhood.
        assert!(p.cur[16 * 32 + 1] > 0.0);
        assert!(p.cur[16 * 32 + 5] > 0.0);
        // Far corner is still cold-ish.
        assert!(p.cur[31] < 1.0);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let mut seq = Plate::new(48);
        let mut par = Plate::new(48);
        seq.run_seq(25);
        for sched in [OmpSchedule::Static, OmpSchedule::Dynamic(2)] {
            let mut p = par.clone();
            p.run_par(25, 8, sched);
            assert_eq!(seq.max_abs_diff(&p), 0.0, "schedule {sched}");
        }
        par.run_par(25, 4, OmpSchedule::Static);
        assert_eq!(seq.max_abs_diff(&par), 0.0);
    }

    #[test]
    fn heat_grows_monotonically_under_constant_source() {
        let mut p = Plate::new(24);
        let mut last = p.total_heat();
        for _ in 0..10 {
            p.step_seq();
            let now = p.total_heat();
            assert!(now >= last - 1e-6, "{now} < {last}");
            last = now;
        }
    }

    #[test]
    fn c_source_passes_the_chain() {
        let src = c_source(16, 4);
        let out =
            purec_core::run_pc_cc(&src, purec_core::PcCcOptions::default()).expect("pipeline");
        assert!(out.pure_set.contains("stencil_avg"));
        assert!(out.scops_marked >= 2);
    }
}
