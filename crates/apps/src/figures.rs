//! Figure regeneration: the paper's evaluation series (Figs. 3–11) from
//! the machine model, at paper scale (4096² matrices, 200 time steps,
//! 217 918-row pwtk-like matrix, 1–64 cores, GCC vs ICC).
//!
//! Calibration anchors (paper values the model is tuned to):
//!
//! * matmul sequential GCC 22.17 s (Sect. 4.3.1);
//! * heat sequential 34.14 s GCC / 31.32 s ICC (Sect. 4.3.2);
//! * heat pure-vs-PluTo instruction ratio 87.8 G / 47.5 G ≈ 1.85 and loop
//!   time ratio 1/0.64 (Sect. 4.3.2);
//! * MKL 7.28× faster than pure at 1 core, 5.82× at 64 (Sect. 4.3.1);
//! * LAMA auto-vs-manual gap ≤ 8·10⁻⁴ s (Sect. 4.3.4).
//!
//! Everything else follows from the mechanisms in `machine::sim`
//! (first-touch NUMA, bandwidth saturation, call overhead, schedule
//! imbalance, dequeue contention, vectorization policy).
//!
//! The PluTo-SICA series of Figs. 4–6 is that model of the paper's tool
//! (`Variant::pluto_sica`: cache tiling and SIMD pragmas on the modelled
//! Opteron), not a mode of this chain: `purec` tiles only by hand
//! (`--tile N`) and emits no `omp simd`.

use machine::{region_time, Compiler, CostProfile, Machine, OmpSchedule, Variant, Workload};
use serde::{Deserialize, Serialize};

/// Core counts of the paper's scaling runs (2⁰ … 2⁶).
pub const CORES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// One plotted line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    pub label: String,
    /// `(cores, seconds)` pairs.
    pub points: Vec<(usize, f64)>,
}

impl Series {
    pub fn at(&self, cores: usize) -> f64 {
        self.points
            .iter()
            .find(|(c, _)| *c == cores)
            .map(|(_, t)| *t)
            .unwrap_or(f64::NAN)
    }

    /// Derived speedup series against a scalar baseline.
    pub fn speedup_against(&self, t_seq: f64) -> Series {
        Series {
            label: self.label.clone(),
            points: self.points.iter().map(|(c, t)| (*c, t_seq / t)).collect(),
        }
    }
}

/// One regenerated figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    pub id: String,
    pub title: String,
    pub ylabel: String,
    /// Sequential baselines referenced by the figure (label, seconds).
    pub baselines: Vec<(String, f64)>,
    pub series: Vec<Series>,
}

impl Figure {
    /// Render as an aligned text table (what `examples/figures.rs` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for (label, secs) in &self.baselines {
            out.push_str(&format!("baseline {label}: {secs:.4}\n"));
        }
        out.push_str(&format!("{:<26}", "series \\ cores"));
        for c in CORES {
            out.push_str(&format!("{c:>10}"));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:<26}", s.label));
            for c in CORES {
                let v = s.at(c);
                if v.is_nan() {
                    out.push_str(&format!("{:>10}", "-"));
                } else if self.ylabel.contains("speedup") {
                    out.push_str(&format!("{v:>10.2}"));
                } else {
                    out.push_str(&format!("{v:>10.4}"));
                }
            }
            out.push('\n');
        }
        out
    }

    pub fn find(&self, label: &str) -> &Series {
        self.series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("series '{label}' missing from {}", self.id))
    }
}

fn m() -> Machine {
    Machine::opteron_6272_quad()
}

fn series(label: &str, c: &Compiler, regions: &[(Workload, Variant, bool)]) -> Series {
    let mach = m();
    Series {
        label: label.to_string(),
        points: CORES
            .iter()
            .map(|&cores| {
                let t: f64 = regions
                    .iter()
                    .map(|(w, v, par)| region_time(&mach, c, w, v, cores, *par))
                    .sum();
                (cores, t)
            })
            .collect(),
    }
}

// ===========================================================================
// Matrix–matrix multiplication (Figs. 3, 4, 5)
// ===========================================================================

const MM_N: u64 = 4096;

/// Effective scalar work per (i,j) iteration: 2·N FLOPs fused by GCC -O2
/// into ~1.35 ops/element effective on the Opteron FPU — calibrated so the
/// sequential GCC run lands on the paper's 22.17 s.
const MM_FLOPS_PER_ITER: f64 = 5550.0;
/// DRAM traffic per (i,j) iteration after L2 reuse of the streamed row.
const MM_BYTES_PER_ITER: f64 = 2048.0;

fn matmul_compute() -> Workload {
    Workload {
        iters: MM_N * MM_N,
        flops_per_iter: MM_FLOPS_PER_ITER,
        bytes_per_iter: MM_BYTES_PER_ITER,
        calls_per_iter: 1.0, // one `dot` call; `mult` is inlined into it
        cost: CostProfile::Uniform,
        simd_friendly: true,
    }
}

/// The allocation/init loop (3 × 4096 `malloc`s + first touch of 201 MiB).
fn matmul_init() -> Workload {
    Workload {
        iters: MM_N,
        flops_per_iter: 2.0 * MM_N as f64, // streaming init of two rows
        bytes_per_iter: 3.0 * MM_N as f64 * 4.0,
        calls_per_iter: 3.0, // three mallocs per iteration
        cost: CostProfile::Uniform,
        simd_friendly: false, // allocation, nothing to vectorize
    }
}

/// Matmul program assembly per tool-chain variant.
fn matmul_regions(which: &str) -> Vec<(Workload, Variant, bool)> {
    let compute = matmul_compute();
    let init = matmul_init();
    match which {
        "seq" => vec![
            (init, Variant::sequential(), false),
            (compute, Variant::sequential(), false),
        ],
        // PluTo: compute inlined + parallel; init loop untouched (serial
        // first touch → pages on node 0).
        "pluto" => vec![
            (init, Variant::sequential(), false),
            (compute, Variant::pluto(1.0), true),
        ],
        // PluTo-SICA: + SIMD pragmas + cache tiling.
        "sica" => vec![
            (init, Variant::sequential(), false),
            (compute, Variant::pluto_sica(0.2), true),
        ],
        // pure chain: calls stay extracted; the init loop was ALSO marked
        // (malloc is in the registry) → parallel first touch, pages spread.
        "pure" => vec![
            (init, Variant::pure_chain(true), true),
            (Workload { ..compute }, Variant::pure_chain(true), true),
        ],
        // pure with the init loop manually excluded (the black bars).
        "pure-noinit" => vec![
            (init, Variant::sequential(), false),
            (compute, Variant::pure_chain(false), true),
        ],
        // Hand-tuned MKL-class code: packed blocks, full SIMD, prefetch.
        "mkl" => {
            let mut v = Variant::pluto_sica(0.174);
            v.hand_tuned = 2.05; // on top of SIMD: register blocking etc.
            v.pages_spread = true;
            vec![(compute, v, true)]
        }
        other => panic!("unknown matmul variant {other}"),
    }
}

/// Fig. 3 — matmul execution time, GCC chain.
pub fn fig3_matmul_gcc() -> Figure {
    let gcc = Compiler::gcc_o2();
    let icc = Compiler::icc16();
    let seq = series("seq (dashed)", &gcc, &matmul_regions("seq"));
    let t_seq = seq.at(1);
    Figure {
        id: "fig3".into(),
        title: "Matrix-matrix multiplication, execution time (GCC)".into(),
        ylabel: "seconds".into(),
        baselines: vec![("GCC sequential".into(), t_seq)],
        series: vec![
            series("PluTo", &gcc, &matmul_regions("pluto")),
            series("PluTo-SICA", &gcc, &matmul_regions("sica")),
            series("pure", &gcc, &matmul_regions("pure")),
            series("pure-noinit", &gcc, &matmul_regions("pure-noinit")),
            series("MKL", &icc, &matmul_regions("mkl")),
        ],
    }
}

/// Fig. 4 — matmul execution time, ICC chain.
pub fn fig4_matmul_icc() -> Figure {
    let icc = Compiler::icc16();
    let seq = series("seq (dashed)", &icc, &matmul_regions("seq"));
    Figure {
        id: "fig4".into(),
        title: "Matrix-matrix multiplication, execution time (ICC)".into(),
        ylabel: "seconds".into(),
        baselines: vec![("ICC sequential".into(), seq.at(1))],
        series: vec![
            series("PluTo", &icc, &matmul_regions("pluto")),
            series("PluTo-SICA", &icc, &matmul_regions("sica")),
            series("pure", &icc, &matmul_regions("pure")),
            series("MKL", &icc, &matmul_regions("mkl")),
        ],
    }
}

/// Fig. 5 — matmul speedups vs the GCC sequential baseline.
pub fn fig5_matmul_speedup() -> Figure {
    let gcc_fig = fig3_matmul_gcc();
    let icc_fig = fig4_matmul_icc();
    let t_seq = gcc_fig.baselines[0].1;
    let mut series_out = Vec::new();
    for s in &gcc_fig.series {
        series_out.push(Series {
            label: format!("{} (GCC)", s.label),
            ..s.speedup_against(t_seq)
        });
    }
    for s in &icc_fig.series {
        if s.label != "MKL" {
            series_out.push(Series {
                label: format!("{} (ICC)", s.label),
                ..s.speedup_against(t_seq)
            });
        }
    }
    Figure {
        id: "fig5".into(),
        title: "Matrix-matrix multiplication, speedup vs GCC sequential".into(),
        ylabel: "speedup".into(),
        baselines: vec![("GCC sequential".into(), t_seq)],
        series: series_out,
    }
}

// ===========================================================================
// Heat distribution (Figs. 6, 7)
// ===========================================================================

const HEAT_N: u64 = 4096;
const HEAT_STEPS: f64 = 200.0;

/// Per-point work of one Jacobi step (stencil + copy-back), calibrated to
/// the paper's 34.14 s sequential GCC run; ICC's 31.32 s follows from its
/// scalar IPC.
const HEAT_FLOPS_PER_ITER: f64 = 43.0;
const HEAT_BYTES_PER_ITER: f64 = 40.0;

fn heat_compute() -> Workload {
    Workload {
        iters: (HEAT_N - 2) * (HEAT_N - 2),
        flops_per_iter: HEAT_FLOPS_PER_ITER,
        bytes_per_iter: HEAT_BYTES_PER_ITER,
        calls_per_iter: 0.5, // stencil call per point, half hidden by the copy pass
        cost: CostProfile::Uniform,
        // The paper: vectorization does not help the stencil's strided
        // memory accesses — under GCC, ICC or SICA pragmas.
        simd_friendly: false,
    }
}

fn heat_regions(which: &str) -> Vec<(Workload, Variant, bool)> {
    // One region entry stands for all 200 steps (region_time is linear in
    // iters; fork overhead is charged per step below via iters scaling).
    let mut w = heat_compute();
    w.iters = (w.iters as f64 * HEAT_STEPS) as u64;
    match which {
        "seq" => vec![(w, Variant::pluto(1.0), false)], // plain code = inlined
        "pluto-sica" => vec![(w, Variant::pluto(0.95), true)],
        "pluto" => vec![(w, Variant::pluto(1.0), true)],
        // Heat's grid is allocated and first-touched before the time loop
        // in one go; the pure chain does not change its page placement.
        "pure" => vec![(w, Variant::pure_chain(false), true)],
        other => panic!("unknown heat variant {other}"),
    }
}

/// Fig. 6 — heat execution time (PluTo-SICA vs pure, GCC vs ICC).
pub fn fig6_heat_time() -> Figure {
    let gcc = Compiler::gcc_o2();
    let icc = Compiler::icc16();
    let t_seq_gcc = series("seq", &gcc, &heat_regions("seq")).at(1);
    let t_seq_icc = series("seq", &icc, &heat_regions("seq")).at(1);
    Figure {
        id: "fig6".into(),
        title: "Heat distribution, execution time".into(),
        ylabel: "seconds".into(),
        baselines: vec![
            ("GCC sequential".into(), t_seq_gcc),
            ("ICC sequential".into(), t_seq_icc),
        ],
        series: vec![
            series("PluTo-SICA (GCC)", &gcc, &heat_regions("pluto-sica")),
            series("PluTo-SICA (ICC)", &icc, &heat_regions("pluto-sica")),
            series("pure (GCC)", &gcc, &heat_regions("pure")),
            series("pure (ICC)", &icc, &heat_regions("pure")),
        ],
    }
}

/// Fig. 7 — heat speedups vs the GCC sequential baseline.
pub fn fig7_heat_speedup() -> Figure {
    let f = fig6_heat_time();
    let t_seq = f.baselines[0].1;
    Figure {
        id: "fig7".into(),
        title: "Heat distribution, speedup vs GCC sequential".into(),
        ylabel: "speedup".into(),
        baselines: f.baselines.clone(),
        series: f.series.iter().map(|s| s.speedup_against(t_seq)).collect(),
    }
}

// ===========================================================================
// Satellite AOD filter (Figs. 8, 9)
// ===========================================================================

/// Synthetic granule: 16 M pixels with a tail-heavy retrieval cost
/// (late-image pixels iterate longer — Sect. 4.3.3).
const SAT_PIXELS: u64 = 16 * 1024 * 1024;
const SAT_FLOPS_PER_PIXEL: f64 = 5200.0;
const SAT_BYTES_PER_PIXEL: f64 = 32.0;

fn sat_cost() -> CostProfile {
    CostProfile::TailHeavy {
        tail_frac: 0.15,
        tail_mult: 2.2,
    }
}

fn sat_workload() -> Workload {
    Workload {
        iters: SAT_PIXELS,
        flops_per_iter: SAT_FLOPS_PER_PIXEL,
        bytes_per_iter: SAT_BYTES_PER_PIXEL,
        calls_per_iter: 1.0,
        cost: sat_cost(),
        simd_friendly: true, // ICC vectorizes the extracted retrieval
    }
}

fn sat_regions(which: &str) -> Vec<(Workload, Variant, bool)> {
    let w = sat_workload();
    let auto = Variant {
        inlined: false, // the filter stays a call — only `pure` makes this legal
        simd_pragma: false,
        locality: 1.0,
        schedule: OmpSchedule::Static,
        pages_spread: true,
        hand_tuned: 1.0,
    };
    match which {
        "seq" => vec![(w, auto, false)],
        "auto" => vec![(w, auto, true)],
        "manual" => {
            let mut v = auto;
            v.schedule = OmpSchedule::Dynamic(1);
            vec![(w, v, true)]
        }
        other => panic!("unknown satellite variant {other}"),
    }
}

/// Fig. 8 — satellite execution time (auto = pure chain; manual = +
/// `schedule(dynamic,1)`).
pub fn fig8_satellite_time() -> Figure {
    let gcc = Compiler::gcc_o2();
    let icc = Compiler::icc16();
    let t_seq = series("seq", &gcc, &sat_regions("seq")).at(1);
    Figure {
        id: "fig8".into(),
        title: "Satellite AOD filter, execution time".into(),
        ylabel: "seconds".into(),
        baselines: vec![("GCC sequential".into(), t_seq)],
        series: vec![
            series("auto (GCC)", &gcc, &sat_regions("auto")),
            series("auto (ICC)", &icc, &sat_regions("auto")),
            series("manual dyn,1 (GCC)", &gcc, &sat_regions("manual")),
            series("manual dyn,1 (ICC)", &icc, &sat_regions("manual")),
        ],
    }
}

/// Fig. 9 — satellite speedups vs GCC sequential.
pub fn fig9_satellite_speedup() -> Figure {
    let f = fig8_satellite_time();
    let t_seq = f.baselines[0].1;
    Figure {
        id: "fig9".into(),
        title: "Satellite AOD filter, speedup vs GCC sequential".into(),
        ylabel: "speedup".into(),
        baselines: f.baselines.clone(),
        series: f.series.iter().map(|s| s.speedup_against(t_seq)).collect(),
    }
}

// ===========================================================================
// LAMA ELL SpMV (Figs. 10, 11)
// ===========================================================================

const LAMA_ROWS: u64 = 217_918;
const LAMA_MAX_NNZ: f64 = 90.0;

fn lama_workload(auto: bool) -> Workload {
    Workload {
        iters: LAMA_ROWS,
        // Per padded entry: 2 FLOPs + index arithmetic + gather latency
        // (~7.8 effective ops); the auto version carries a few percent of
        // generated-bounds overhead.
        flops_per_iter: 7.8 * LAMA_MAX_NNZ * if auto { 1.06 } else { 1.0 },
        // values + colidx stream + gathered x.
        bytes_per_iter: LAMA_MAX_NNZ * 9.0,
        calls_per_iter: 1.0,
        cost: CostProfile::Jitter { spread: 0.12 },
        simd_friendly: true,
    }
}

fn lama_regions(which: &str) -> Vec<(Workload, Variant, bool)> {
    // The value/index init loops are parallelized by the chain (first
    // touch spreads the ELL arrays) for both versions — the paper's code
    // allocates via LAMA which interleaves as well.
    let base = Variant {
        inlined: false, // ell_dot stays an extracted call in the auto path
        simd_pragma: false,
        locality: 1.0,
        schedule: OmpSchedule::Static,
        pages_spread: true,
        hand_tuned: 1.0,
    };
    match which {
        "seq" => vec![(lama_workload(false), base, false)],
        "auto" => vec![(lama_workload(true), base, true)],
        "manual" => {
            let mut v = base;
            v.inlined = true; // hand-written loop, no extracted call
            vec![(lama_workload(false), v, true)]
        }
        other => panic!("unknown lama variant {other}"),
    }
}

/// Fig. 10 — LAMA ELL SpMV execution time.
pub fn fig10_lama_time() -> Figure {
    let gcc = Compiler::gcc_o2();
    let icc = Compiler::icc16();
    let t_seq = series("seq", &gcc, &lama_regions("seq")).at(1);
    Figure {
        id: "fig10".into(),
        title: "LAMA ELL SpMV, execution time".into(),
        ylabel: "seconds".into(),
        baselines: vec![("GCC sequential".into(), t_seq)],
        series: vec![
            series("auto (GCC)", &gcc, &lama_regions("auto")),
            series("auto (ICC)", &icc, &lama_regions("auto")),
            series("manual static (GCC)", &gcc, &lama_regions("manual")),
            series("manual static (ICC)", &icc, &lama_regions("manual")),
        ],
    }
}

/// Fig. 11 — LAMA speedups vs GCC sequential.
pub fn fig11_lama_speedup() -> Figure {
    let f = fig10_lama_time();
    let t_seq = f.baselines[0].1;
    Figure {
        id: "fig11".into(),
        title: "LAMA ELL SpMV, speedup vs GCC sequential".into(),
        ylabel: "speedup".into(),
        baselines: f.baselines.clone(),
        series: f.series.iter().map(|s| s.speedup_against(t_seq)).collect(),
    }
}

/// All time/speedup figures in paper order.
pub fn all_figures() -> Vec<Figure> {
    vec![
        fig3_matmul_gcc(),
        fig4_matmul_icc(),
        fig5_matmul_speedup(),
        fig6_heat_time(),
        fig7_heat_speedup(),
        fig8_satellite_time(),
        fig9_satellite_speedup(),
        fig10_lama_time(),
        fig11_lama_speedup(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strictly_decreasing(s: &Series) -> bool {
        s.points.windows(2).all(|w| w[1].1 < w[0].1)
    }

    // ---- Fig. 3 anchors and shapes -------------------------------------

    #[test]
    fn fig3_sequential_anchor() {
        let f = fig3_matmul_gcc();
        let t_seq = f.baselines[0].1;
        assert!(
            (t_seq - 22.17).abs() / 22.17 < 0.05,
            "seq GCC must be ≈22.17 s, got {t_seq}"
        );
    }

    #[test]
    fn fig3_pure_strictly_decreasing() {
        let f = fig3_matmul_gcc();
        assert!(strictly_decreasing(f.find("pure")), "{}", f.render());
    }

    #[test]
    fn fig3_pluto_nonmonotonic_16_to_32() {
        let f = fig3_matmul_gcc();
        let pluto = f.find("PluTo");
        assert!(
            pluto.at(32) > pluto.at(16),
            "PluTo must degrade 16→32 (first-touch NUMA): {}",
            f.render()
        );
    }

    #[test]
    fn fig3_pure_beats_pluto() {
        let f = fig3_matmul_gcc();
        let pure = f.find("pure");
        let pluto = f.find("PluTo");
        // Low core counts: on par (within the call-overhead margin; the
        // init-loop advantage has nothing to parallelize at 1 core).
        for c in [1, 2, 4, 8] {
            assert!(
                pure.at(c) < pluto.at(c) * 1.03,
                "pure must stay within 3% of PluTo at {c} cores: {}",
                f.render()
            );
        }
        // High core counts: the spread first touch wins outright.
        for c in [16, 32, 64] {
            assert!(
                pure.at(c) < pluto.at(c) * 1.01,
                "pure must win at {c} cores: {}",
                f.render()
            );
        }
        // And significantly faster at the top end.
        assert!(pure.at(64) < pluto.at(64) * 0.7, "{}", f.render());
    }

    #[test]
    fn fig3_pure_noinit_close_to_pluto() {
        let f = fig3_matmul_gcc();
        let noinit = f.find("pure-noinit");
        let pluto = f.find("PluTo");
        for c in [16, 32, 64] {
            let ratio = noinit.at(c) / pluto.at(c);
            assert!(
                (0.8..1.3).contains(&ratio),
                "pure-noinit must track PluTo at {c} cores (ratio {ratio}): {}",
                f.render()
            );
        }
    }

    #[test]
    fn fig3_mkl_dominates() {
        let f = fig3_matmul_gcc();
        let mkl = f.find("MKL");
        let pure = f.find("pure");
        let r1 = pure.at(1) / mkl.at(1);
        let r64 = pure.at(64) / mkl.at(64);
        assert!(
            (5.0..10.0).contains(&r1),
            "MKL ≈7.28× faster at 1 core, got {r1}: {}",
            f.render()
        );
        assert!(
            (3.5..9.0).contains(&r64),
            "MKL ≈5.82× faster at 64 cores, got {r64}: {}",
            f.render()
        );
    }

    // ---- Fig. 4 shapes ----------------------------------------------------

    #[test]
    fn fig4_icc_vectorizes_pure_at_low_cores() {
        let gcc = fig3_matmul_gcc();
        let icc = fig4_matmul_icc();
        // Big pure win under ICC at 1-4 cores.
        for c in [1, 2, 4] {
            assert!(
                icc.find("pure").at(c) < gcc.find("pure").at(c) * 0.5,
                "ICC must vectorize the extracted dot at {c} cores"
            );
        }
        // Converging at high core counts (both bandwidth-bound).
        let conv = icc.find("pure").at(64) / gcc.find("pure").at(64);
        assert!((0.5..1.2).contains(&conv), "convergence ratio {conv}");
    }

    #[test]
    fn fig4_pluto_gains_little_from_icc() {
        let gcc = fig3_matmul_gcc();
        let icc = fig4_matmul_icc();
        for c in [1, 4, 16] {
            let ratio = icc.find("PluTo").at(c) / gcc.find("PluTo").at(c);
            assert!(
                (0.85..1.05).contains(&ratio),
                "inlined PluTo code gets only the scalar margin, got {ratio} at {c}"
            );
        }
    }

    #[test]
    fn fig4_sica_overtakes_pure_at_8_cores() {
        let icc = fig4_matmul_icc();
        // Paper: "PluTo-SICA is only able to outperform the pure directive
        // for eight or more cores" (under ICC).
        assert!(icc.find("pure").at(1) < icc.find("PluTo-SICA").at(1) * 1.35);
        for c in [8, 16, 32, 64] {
            assert!(
                icc.find("PluTo-SICA").at(c) <= icc.find("pure").at(c) * 1.05,
                "SICA must be at least on par beyond 8 cores ({c})"
            );
        }
    }

    // ---- Figs. 6/7 ---------------------------------------------------------

    #[test]
    fn fig6_sequential_anchors() {
        let f = fig6_heat_time();
        let gcc = f.baselines[0].1;
        let icc = f.baselines[1].1;
        assert!((gcc - 34.14).abs() / 34.14 < 0.05, "heat seq GCC {gcc}");
        assert!((icc - 31.32).abs() / 31.32 < 0.07, "heat seq ICC {icc}");
    }

    #[test]
    fn fig6_pluto_beats_pure() {
        let f = fig6_heat_time();
        for c in [1, 2, 4, 8] {
            assert!(
                f.find("PluTo-SICA (GCC)").at(c) < f.find("pure (GCC)").at(c),
                "inlining must win on the tiny stencil body at {c} cores: {}",
                f.render()
            );
        }
        // Call-overhead ratio at 1 core ≈ the paper's 1/0.64.
        let ratio = f.find("pure (GCC)").at(1) / f.find("PluTo-SICA (GCC)").at(1);
        assert!(
            (1.3..2.0).contains(&ratio),
            "pure/PluTo heat ratio ≈1.56, got {ratio}"
        );
    }

    #[test]
    fn fig7_speedups_decay_beyond_8_cores() {
        let f = fig7_heat_speedup();
        for s in &f.series {
            let at8 = s.at(8);
            let at64 = s.at(64);
            assert!(
                at64 < at8 * 1.6,
                "heat is bandwidth-bound: speedup must flatten beyond 8 cores \
                 ({}: {at8:.1} → {at64:.1})",
                s.label
            );
        }
        // And speedup does grow up to 8 cores.
        let p = f.find("PluTo-SICA (GCC)");
        assert!(p.at(8) > p.at(2));
    }

    // ---- Figs. 8/9 ---------------------------------------------------------

    #[test]
    fn fig8_all_versions_scale_continuously_gcc() {
        let f = fig8_satellite_time();
        assert!(strictly_decreasing(f.find("auto (GCC)")), "{}", f.render());
        assert!(
            strictly_decreasing(f.find("manual dyn,1 (GCC)")),
            "{}",
            f.render()
        );
        assert!(strictly_decreasing(f.find("auto (ICC)")), "{}", f.render());
    }

    #[test]
    fn fig9_manual_icc_drops_at_64() {
        let f = fig9_satellite_speedup();
        let s = f.find("manual dyn,1 (ICC)");
        assert!(
            s.at(64) < s.at(32),
            "dynamic,1 dequeue contention must bite ICC at 64 cores: {}",
            f.render()
        );
    }

    #[test]
    fn fig9_best_speedup_is_auto_icc_at_64() {
        let f = fig9_satellite_speedup();
        let best = f.find("auto (ICC)").at(64);
        for s in &f.series {
            assert!(
                s.at(64) <= best + 1e-9,
                "auto+ICC@64 must be the best: {} has {}, auto ICC {}",
                s.label,
                s.at(64),
                best
            );
        }
    }

    #[test]
    fn fig8_dynamic_beats_static_at_mid_cores_gcc() {
        // The reason the authors added schedule(dynamic,1).
        let f = fig8_satellite_time();
        for c in [16, 32] {
            assert!(
                f.find("manual dyn,1 (GCC)").at(c) < f.find("auto (GCC)").at(c),
                "dynamic must fix the tail imbalance at {c} cores: {}",
                f.render()
            );
        }
    }

    // ---- Figs. 10/11 ---------------------------------------------------------

    #[test]
    fn fig10_manual_slightly_better_but_within_bounds() {
        let f = fig10_lama_time();
        let auto = f.find("auto (GCC)");
        let manual = f.find("manual static (GCC)");
        for c in CORES {
            assert!(
                manual.at(c) <= auto.at(c),
                "manual must win slightly at {c}: {}",
                f.render()
            );
        }
        // The paper: difference at most 8·10⁻⁴ s (at high core counts).
        let gap = auto.at(64) - manual.at(64);
        assert!(
            gap <= 8.0e-4,
            "auto-manual gap must be ≤0.8 ms at 64 cores, got {gap}"
        );
    }

    #[test]
    fn fig11_speedup_grows_to_32_cores() {
        let f = fig11_lama_speedup();
        let s = f.find("auto (GCC)");
        assert!(s.at(32) > s.at(8), "{}", f.render());
        assert!(s.at(32) > s.at(16) * 0.99, "{}", f.render());
    }

    #[test]
    fn fig11_icc_better_below_16_worse_after() {
        let f = fig10_lama_time();
        for c in [1, 2, 4, 8] {
            assert!(
                f.find("auto (ICC)").at(c) <= f.find("auto (GCC)").at(c),
                "ICC vectorized dot must win at {c} cores: {}",
                f.render()
            );
        }
        // Beyond 16: both bandwidth-bound, ICC's advantage gone.
        let r = f.find("auto (ICC)").at(64) / f.find("auto (GCC)").at(64);
        assert!(
            (0.95..1.3).contains(&r),
            "ICC advantage vanished, ratio {r}"
        );
    }

    // ---- cross-cutting -------------------------------------------------------

    #[test]
    fn all_figures_render_and_serialize() {
        for f in all_figures() {
            let txt = f.render();
            assert!(txt.contains(&f.id));
            let json = serde_json::to_string(&f).unwrap();
            let back: Figure = serde_json::from_str(&json).unwrap();
            assert_eq!(back.id, f.id);
            for s in &f.series {
                assert_eq!(s.points.len(), CORES.len());
                assert!(s.points.iter().all(|(_, t)| t.is_finite() && *t > 0.0));
            }
        }
    }
}
