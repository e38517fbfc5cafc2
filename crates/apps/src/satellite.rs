//! Application 3: the satellite image processor — aerosol optical depth
//! (AOD) retrieval from hyperspectral observations (paper Sect. 4.1/4.3.3,
//! Figs. 8–9).
//!
//! **Substitution**: the MODIS/Aqua granule and the
//! proprietary retrieval code are unavailable; we generate a synthetic
//! multi-band tile whose per-pixel filter has (a) a data-dependent inner
//! iteration (the retrieval's convergence loop), and (b) a spatially
//! tail-heavy cost distribution — heavier pixels concentrated late in the
//! image — which reproduces the load imbalance that made the authors add
//! `schedule(dynamic,1)`. The filter is a pure function of its inputs, and
//! far too branchy for any polyhedral analysis — exactly why only the
//! `pure` chain can parallelize the pixel loop.

use crate::util::SendPtr;
use machine::{parallel_for_pooled, OmpSchedule};

/// Number of spectral bands per pixel.
pub const BANDS: usize = 7;

/// A synthetic hyperspectral tile: `width × height` pixels × [`BANDS`].
#[derive(Debug, Clone)]
pub struct Tile {
    pub width: usize,
    pub height: usize,
    /// Band-interleaved reflectances in `[0, 1]`.
    pub bands: Vec<f32>,
}

impl Tile {
    /// Deterministic synthetic granule. Later rows carry higher aerosol
    /// loads (→ more retrieval iterations), giving the tail-heavy cost.
    pub fn synthetic(width: usize, height: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut bands = Vec::with_capacity(width * height * BANDS);
        for y in 0..height {
            let load = y as f64 / height.max(1) as f64; // aerosol ramp
            for _x in 0..width {
                for b in 0..BANDS {
                    let base = 0.08 + 0.5 * load + 0.05 * b as f64;
                    bands.push((base + 0.1 * next()).min(1.0) as f32);
                }
            }
        }
        Tile {
            width,
            height,
            bands,
        }
    }

    #[inline]
    pub fn pixel(&self, idx: usize) -> &[f32] {
        &self.bands[idx * BANDS..(idx + 1) * BANDS]
    }

    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

/// The pure per-pixel AOD retrieval: an iterative fixed-point solve whose
/// trip count depends on the pixel's aerosol load (the "several hundred
/// lines, dynamic conditional jumps" of the real code, reduced to its
/// computational shape).
pub fn retrieve_aod(pixel: &[f32]) -> f32 {
    // Initial guess from a band ratio.
    let r_blue = pixel[0] as f64;
    let r_red = pixel[3.min(pixel.len() - 1)] as f64;
    let mut tau = (r_blue - 0.05).max(0.01) * 2.0;
    let target = (r_blue * 0.8 + r_red * 0.2).max(0.02);
    // Refinement count grows with the aerosol load: hazier pixels need
    // more radiative-transfer iterations — the data-dependent trip count
    // that produces the paper's late-image load imbalance.
    let refinements = refinement_count(r_blue);
    for _ in 0..refinements {
        let transmission = (-tau / 0.88f64).exp();
        let estimate = 0.05 + tau * 0.35 * transmission + 0.08 * (1.0 - transmission);
        let err = estimate - target;
        tau -= err * 0.9;
        if tau < 0.0 {
            tau = 0.0;
            break;
        }
    }
    // Blend in the remaining bands (spectral smoothing).
    let mut smooth = 0.0f64;
    for &b in &pixel[1..] {
        smooth += (b as f64 - r_blue).abs();
    }
    (tau + 0.01 * smooth) as f32
}

/// Radiative-transfer refinement count for a given blue-band reflectance.
#[inline]
fn refinement_count(r_blue: f64) -> u32 {
    (8.0 + 120.0 * (r_blue - 0.08).max(0.0)) as u32
}

/// Sequential retrieval over the whole tile.
pub fn filter_seq(tile: &Tile) -> Vec<f32> {
    (0..tile.pixels())
        .map(|p| retrieve_aod(tile.pixel(p)))
        .collect()
}

/// Parallel retrieval on the omprt runtime.
pub fn filter_par(tile: &Tile, threads: usize, schedule: OmpSchedule) -> Vec<f32> {
    let n = tile.pixels();
    let mut out = vec![0.0f32; n];
    {
        let optr = SendPtr(out.as_mut_ptr());
        parallel_for_pooled(n as u64, threads, schedule, |p| {
            let v = retrieve_aod(tile.pixel(p as usize));
            // SAFETY: each pixel writes its own slot.
            unsafe { *optr.get().add(p as usize) = v };
        });
    }
    out
}

/// Relative cost (≈ retrieval iterations) of each pixel — used to measure
/// the imbalance the paper describes.
pub fn cost_map(tile: &Tile) -> Vec<u32> {
    (0..tile.pixels())
        .map(|p| refinement_count(tile.pixel(p)[0] as f64) + 8)
        .collect()
}

/// Annotated C source: pixel loop calling the pure filter. The filter body
/// is a simplified (but still branchy, `while`-containing) version — the
/// point is that PluTo cannot analyze it, while the `pure` keyword lets
/// the chain parallelize the *loop around it*.
pub fn c_source(width: usize, height: usize) -> String {
    format!(
        "#include <stdlib.h>\n\
         #include <stdio.h>\n\
         #include <math.h>\n\
         \n\
         float* image;\n\
         float* aod;\n\
         \n\
         pure float retrieve(pure float* px, int bands) {{\n\
             float tau = px[0] * 2.0f - 0.1f;\n\
             if (tau < 0.01f) tau = 0.01f;\n\
             float target = px[0] * 0.8f + px[3] * 0.2f;\n\
             int it = 0;\n\
             while (it < 64) {{\n\
                 float trans = expf(-tau / 0.88f);\n\
                 float est = 0.05f + tau * 0.35f * trans + 0.08f * (1.0f - trans);\n\
                 float err = est - target;\n\
                 if (err < 0.000001f && err > -0.000001f) break;\n\
                 tau = tau - err * 1.4f;\n\
                 if (tau < 0.0f) {{ tau = 0.0f; break; }}\n\
                 it = it + 1;\n\
             }}\n\
             float smooth = 0.0f;\n\
             for (int b = 1; b < bands; b++) {{\n\
                 float d = px[b] - px[0];\n\
                 if (d < 0.0f) d = -d;\n\
                 smooth += d;\n\
             }}\n\
             return tau + 0.01f * smooth;\n\
         }}\n\
         \n\
         int main() {{\n\
             int npix = {npix};\n\
             image = (float*) malloc(npix * {bands} * sizeof(float));\n\
             aod = (float*) malloc(npix * sizeof(float));\n\
             for (int p = 0; p < npix; p++)\n\
                 for (int b = 0; b < {bands}; b++)\n\
                     image[p * {bands} + b] = 0.1f + 0.0001f * (float)((p * 7 + b * 13) % 900);\n\
             for (int p = 0; p < npix; p++)\n\
                 aod[p] = retrieve((pure float*)(image + p * {bands}), {bands});\n\
             float total = 0.0f;\n\
             for (int p = 0; p < npix; p++) total += aod[p];\n\
             printf(\"aod=%.3f\\n\", total);\n\
             return 0;\n\
         }}\n",
        npix = width * height,
        bands = BANDS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_tile_is_deterministic_and_bounded() {
        let a = Tile::synthetic(16, 16, 7);
        let b = Tile::synthetic(16, 16, 7);
        assert_eq!(a.bands, b.bands);
        assert!(a.bands.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(a.pixels(), 256);
    }

    #[test]
    fn retrieval_is_pure_and_deterministic() {
        let tile = Tile::synthetic(8, 8, 3);
        let px = tile.pixel(5);
        assert_eq!(retrieve_aod(px), retrieve_aod(px));
        // Higher reflectance (more aerosol) → larger AOD.
        let low = [0.08f32; BANDS];
        let high = [0.6f32; BANDS];
        assert!(retrieve_aod(&high) > retrieve_aod(&low));
    }

    #[test]
    fn parallel_filter_matches_sequential() {
        let tile = Tile::synthetic(32, 24, 11);
        let seq = filter_seq(&tile);
        for sched in [OmpSchedule::Static, OmpSchedule::Dynamic(1)] {
            let par = filter_par(&tile, 8, sched);
            assert_eq!(seq, par, "schedule {sched}");
        }
    }

    #[test]
    fn cost_is_tail_heavy() {
        // The paper's imbalance: later rows are heavier.
        let tile = Tile::synthetic(32, 64, 5);
        let costs = cost_map(&tile);
        let n = costs.len();
        let first_half: u64 = costs[..n / 2].iter().map(|&c| c as u64).sum();
        let second_half: u64 = costs[n / 2..].iter().map(|&c| c as u64).sum();
        assert!(
            second_half as f64 > first_half as f64 * 1.3,
            "late pixels must be heavier: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn c_source_passes_the_chain() {
        let src = c_source(8, 8);
        let out =
            purec_core::run_pc_cc(&src, purec_core::PcCcOptions::default()).expect("pipeline");
        assert!(out.pure_set.contains("retrieve"));
        // The pixel loop is marked even though the filter body is
        // unanalyzable — the whole point of the paper.
        assert!(out.scops_marked >= 1);
    }
}
