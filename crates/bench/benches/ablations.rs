//! Ablation benches for the design choices the paper calls out:
//!
//! * **A1** — treating `malloc` as pure (the accidental init-loop
//!   parallelization behind Fig. 3);
//! * **A2** — function-call overhead vs inlining (the heat result);
//! * **A3** — schedule choice on the imbalanced satellite workload;
//! * **A4** — SICA tile-size selection vs fixed tiles;
//! * **A5** — NUMA first-touch page placement on/off.
//!
//! Each bench measures the affected component and prints the ablated
//! figure deltas through the cost model (deterministic, so criterion's
//! noise floor is ~0 — the value is the recorded numbers).

use criterion::{criterion_group, criterion_main, Criterion};
use machine::{region_time, Compiler, Machine, OmpSchedule, Variant};
use purec_core::{run_pc_cc, PcCcOptions, PureSet};
use std::hint::black_box;

/// A1: malloc-as-pure on/off changes which loops get marked.
fn ablation_malloc_pure(c: &mut Criterion) {
    let src = apps::matmul::c_source(64);
    let mut g = c.benchmark_group("ablation_malloc_pure");
    g.bench_function("with_alloc_rule", |b| {
        b.iter(|| {
            let out = run_pc_cc(black_box(&src), PcCcOptions::default()).expect("ok");
            assert!(out.scops_marked >= 2);
            out.scops_marked
        })
    });
    g.bench_function("without_alloc_rule", |b| {
        b.iter(|| {
            let out = run_pc_cc(
                black_box(&src),
                PcCcOptions {
                    seed: PureSet::seeded_without_alloc(),
                    ..Default::default()
                },
            )
            .expect("ok");
            out.scops_marked
        })
    });
    g.finish();
}

/// A2: call overhead vs inlining on the real heat stencil (reduced size).
fn ablation_call_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_call_overhead");
    g.sample_size(10);
    // Extracted-call shape (the pure chain's output).
    g.bench_function("heat_extracted_call", |b| {
        let mut p = apps::heat::Plate::new(128);
        b.iter(|| {
            p.step_seq(); // stencil() is #[inline] but models the call shape
            black_box(p.total_heat())
        })
    });
    // Model-level delta at paper scale.
    g.bench_function("model_delta", |b| {
        b.iter(|| {
            let m = Machine::default();
            let gcc = Compiler::gcc_o2();
            let w = machine::Workload {
                iters: 4094 * 4094 * 200,
                flops_per_iter: 43.0,
                bytes_per_iter: 40.0,
                calls_per_iter: 0.5,
                cost: machine::CostProfile::Uniform,
                simd_friendly: false,
            };
            let with_calls = region_time(&m, &gcc, &w, &Variant::pure_chain(false), 1, false);
            let inlined = region_time(&m, &gcc, &w, &Variant::pluto(1.0), 1, false);
            black_box((with_calls, inlined))
        })
    });
    g.finish();
}

/// A3: schedule choice on the tail-heavy satellite workload (real threads).
fn ablation_schedules(c: &mut Criterion) {
    let tile = apps::satellite::Tile::synthetic(96, 96, 11);
    let mut g = c.benchmark_group("ablation_schedules");
    g.sample_size(10);
    for sched in [
        OmpSchedule::Static,
        OmpSchedule::StaticChunk(16),
        OmpSchedule::Dynamic(1),
        OmpSchedule::Dynamic(16),
        OmpSchedule::Guided(8),
    ] {
        g.bench_function(format!("satellite_{sched}"), |b| {
            b.iter(|| apps::satellite::filter_par(black_box(&tile), 4, sched))
        });
    }
    g.finish();
}

/// A4: SICA cache-derived tile size vs fixed sizes on real blocked matmul.
fn ablation_sica_tiles(c: &mut Criterion) {
    let a = apps::matmul::Matrix::random(256, 5);
    let bt = apps::matmul::Matrix::random(256, 6);
    let mut g = c.benchmark_group("ablation_sica_tiles");
    g.sample_size(10);
    for block in [8usize, 16, 32, 64, 128] {
        g.bench_function(format!("blocked_{block}"), |b| {
            b.iter(|| apps::matmul::matmul_blocked(black_box(&a), black_box(&bt), block))
        });
    }
    g.finish();
}

/// A5: first-touch page placement in the bandwidth model.
fn ablation_numa(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_numa");
    g.bench_function("bandwidth_model_sweep", |b| {
        b.iter(|| {
            let m = Machine::default();
            let mut acc = 0.0;
            for threads in [1usize, 8, 16, 32, 64] {
                acc += m.bandwidth(threads, true) - m.bandwidth(threads, false);
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_malloc_pure,
    ablation_call_overhead,
    ablation_schedules,
    ablation_sica_tiles,
    ablation_numa
);
criterion_main!(benches);
