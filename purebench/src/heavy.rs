//! `compile_heavy`: a seeded generated translation unit whose cost is in the
//! front half of the chain, and a per-shape native evaluator valid for any
//! seed.
//!
//! Each kernel group is `#define`s, two globals, two pure functions, an init
//! and one nest. The nest shape is drawn from three, but from a *shuffled
//! fixed multiset*, so every seed compiles the same number of each shape and
//! only their order and constants change. All values stay integers below
//! 2^24, so `float` results are exact under any loop order polycc picks.

use crate::workloads::Rng;
use std::fmt::Write;

/// Extent of every array dimension.
pub const N: usize = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// 2-deep nest around a pure call (purity check, substitution, reinsertion).
    PureCall,
    /// Hand-annotated inline 3-deep product nest (`omp parallel for`).
    InlineOmp,
    /// The paper's Fig. 2 stencil: legal only after skewing.
    Stencil,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    pub shape: Shape,
    /// `#define` constants of the two pure functions.
    pub k: i64,
    pub c: i64,
    /// Init pattern `a[i][j] = (i*p + j*q + g) % 7`.
    pub p: i64,
    pub q: i64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unit {
    pub groups: Vec<Group>,
}

/// A pure function of `(seed, groups)`.
pub fn generate(seed: u64, groups: usize) -> Unit {
    let mut rng = Rng::new(seed);
    let mut shapes: Vec<Shape> = (0..groups)
        .map(|g| [Shape::PureCall, Shape::InlineOmp, Shape::Stencil][g % 3])
        .collect();
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let groups = shapes
        .into_iter()
        .map(|shape| Group {
            shape,
            k: 1 + rng.below(5) as i64,
            c: 1 + rng.below(5) as i64,
            p: 1 + rng.below(6) as i64,
            q: 1 + rng.below(6) as i64,
        })
        .collect();
    Unit { groups }
}

impl Unit {
    pub fn source(&self) -> String {
        let mut s = String::new();
        s.push_str("#include <stdio.h>\n#include <stdlib.h>\n\n");
        writeln!(s, "#define HN {N}\n").unwrap();
        for (g, grp) in self.groups.iter().enumerate() {
            let Group { shape, k, c, p, q } = grp;
            let nest = match shape {
                Shape::PureCall => format!(
                    "    for (int i = 0; i < HN; i++)\n\
                     \x20       for (int j = 0; j < HN; j++)\n\
                     \x20           g{g}_b[i][j] = g{g}_mix(g{g}_a[i][j], g{g}_a[j][i]);\n"
                ),
                Shape::InlineOmp => format!(
                    "#pragma omp parallel for\n\
                     \x20   for (int i = 0; i < HN; i++)\n\
                     \x20       for (int j = 0; j < HN; j++)\n\
                     \x20           for (int k = 0; k < HN; k++)\n\
                     \x20               g{g}_b[i][j] += g{g}_a[i][k] * g{g}_a[k][j];\n"
                ),
                Shape::Stencil => format!(
                    "    for (int i = 1; i < HN; i++)\n\
                     \x20       for (int j = 0; j < HN - 1; j++)\n\
                     \x20           g{g}_a[i][j] = g{g}_a[i - 1][j] + g{g}_a[i - 1][j + 1];\n"
                ),
            };
            let summed = if *shape == Shape::Stencil { "a" } else { "b" };
            write!(
                s,
                "#define G{g}_K {k}\n\
                 #define G{g}_C {c}\n\
                 float **g{g}_a, **g{g}_b;\n\
                 \n\
                 pure float g{g}_scale(float x) {{\n\
                 \x20   return x * G{g}_K;\n\
                 }}\n\
                 \n\
                 pure float g{g}_mix(float x, float y) {{\n\
                 \x20   return g{g}_scale(x) + G{g}_C * y;\n\
                 }}\n\
                 \n\
                 void g{g}_init() {{\n\
                 \x20   g{g}_a = (float**) malloc(HN * sizeof(float*));\n\
                 \x20   g{g}_b = (float**) malloc(HN * sizeof(float*));\n\
                 \x20   for (int i = 0; i < HN; i++) {{\n\
                 \x20       g{g}_a[i] = (float*) malloc(HN * sizeof(float));\n\
                 \x20       g{g}_b[i] = (float*) malloc(HN * sizeof(float));\n\
                 \x20       for (int j = 0; j < HN; j++) {{\n\
                 \x20           g{g}_a[i][j] = (float)((i * {p} + j * {q} + {g}) % 7);\n\
                 \x20           g{g}_b[i][j] = 0.0f;\n\
                 \x20       }}\n\
                 \x20   }}\n\
                 }}\n\
                 \n\
                 int g{g}_kernel() {{\n\
                 {nest}\
                 \x20   float s = 0.0f;\n\
                 \x20   for (int i = 0; i < HN; i++)\n\
                 \x20       for (int j = 0; j < HN; j++)\n\
                 \x20           s += g{g}_{summed}[i][j];\n\
                 \x20   return (int) s;\n\
                 }}\n\n"
            )
            .unwrap();
        }
        s.push_str("int main() {\n    int total = 0;\n");
        for g in 0..self.groups.len() {
            writeln!(
                s,
                "    g{g}_init();\n    total = (total * 31 + g{g}_kernel()) % 1000003;"
            )
            .unwrap();
        }
        s.push_str("    printf(\"heavy=%d\\n\", total);\n    return total % 251;\n}\n");
        s
    }
}

/// What `main` prints: the native mirror of every group's kernel, folded
/// the way `main` folds them.
pub fn evaluate(unit: &Unit) -> i64 {
    let mut total = 0i64;
    for (g, grp) in unit.groups.iter().enumerate() {
        let mut a = [[0f32; N]; N];
        let mut b = [[0f32; N]; N];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = ((i as i64 * grp.p + j as i64 * grp.q + g as i64) % 7) as f32;
            }
        }
        match grp.shape {
            Shape::PureCall => {
                for i in 0..N {
                    for j in 0..N {
                        b[i][j] = a[i][j] * grp.k as f32 + grp.c as f32 * a[j][i];
                    }
                }
            }
            Shape::InlineOmp => {
                for i in 0..N {
                    for j in 0..N {
                        b[i][j] = (0..N).map(|k| a[i][k] * a[k][j]).sum();
                    }
                }
            }
            Shape::Stencil => {
                for i in 1..N {
                    for j in 0..N - 1 {
                        a[i][j] = a[i - 1][j] + a[i - 1][j + 1];
                    }
                }
            }
        }
        let summed = if grp.shape == Shape::Stencil { &a } else { &b };
        let s: f32 = summed.iter().flatten().sum();
        total = (total * 31 + s as i64) % 1_000_003;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use cinterp::InterpOptions;
    use purec::chain::{compile, ChainOptions};

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        assert_eq!(generate(9, 12), generate(9, 12));
        assert_eq!(generate(9, 12).source(), generate(9, 12).source());
        assert_ne!(generate(9, 12), generate(10, 12));
    }

    #[test]
    fn every_seed_draws_the_same_number_of_each_shape() {
        for seed in 1..=5 {
            let unit = generate(seed, 64);
            for (shape, want) in [
                (Shape::PureCall, 22),
                (Shape::InlineOmp, 21),
                (Shape::Stencil, 21),
            ] {
                let got = unit.groups.iter().filter(|g| g.shape == shape).count();
                assert_eq!(got, want, "seed {seed} {shape:?}");
            }
        }
    }

    #[test]
    fn evaluator_matches_the_vm_on_seeds_1_to_5() {
        for seed in 1..=5 {
            let unit = generate(seed, 9);
            let total = evaluate(&unit);
            let out = compile(&unit.source(), ChainOptions::default()).expect("chain");
            assert_eq!(out.regions_skewed, 3, "the stencil groups need skewing");
            for threads in [1, 4] {
                let r = out
                    .program()
                    .run(InterpOptions {
                        threads,
                        ..Default::default()
                    })
                    .expect("runs");
                assert_eq!(r.output, format!("heavy={total}\n"), "seed {seed}");
                assert_eq!(r.exit_code, total % 251, "seed {seed}");
            }
        }
    }
}
