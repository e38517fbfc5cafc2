//! Criterion benches of the omprt runtime: schedule overheads on real
//! threads (static vs dynamic vs guided), matching the cost model's
//! assumptions, plus the parallel reference applications at reduced size.

use criterion::{criterion_group, criterion_main, Criterion};
use machine::{parallel_for_pooled, OmpSchedule};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_schedules(c: &mut Criterion) {
    let mut g = c.benchmark_group("omprt-schedules");
    g.sample_size(20);
    let n = 64 * 1024u64;
    for sched in [
        OmpSchedule::Static,
        OmpSchedule::StaticChunk(64),
        OmpSchedule::Dynamic(1),
        OmpSchedule::Dynamic(64),
        OmpSchedule::Guided(16),
    ] {
        g.bench_function(format!("sum_{sched}"), |b| {
            b.iter(|| {
                let acc = AtomicU64::new(0);
                parallel_for_pooled(n, 4, sched, |i| {
                    acc.fetch_add(black_box(i), Ordering::Relaxed);
                });
                acc.into_inner()
            })
        });
    }
    g.finish();
}

fn bench_apps_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("apps-parallel");
    g.sample_size(10);

    let a = apps::matmul::Matrix::random(128, 1);
    let bt = apps::matmul::Matrix::random(128, 2);
    g.bench_function("matmul_128_seq", |b| {
        b.iter(|| apps::matmul::matmul_seq(black_box(&a), black_box(&bt)))
    });
    g.bench_function("matmul_128_par4", |b| {
        b.iter(|| apps::matmul::matmul_par(black_box(&a), black_box(&bt), 4, OmpSchedule::Static))
    });
    g.bench_function("matmul_128_blocked", |b| {
        b.iter(|| apps::matmul::matmul_blocked(black_box(&a), black_box(&bt), 32))
    });

    g.bench_function("heat_96_step_seq", |b| {
        let mut p = apps::heat::Plate::new(96);
        b.iter(|| {
            p.step_seq();
            black_box(p.total_heat())
        })
    });
    g.bench_function("heat_96_step_par4", |b| {
        let mut p = apps::heat::Plate::new(96);
        b.iter(|| {
            p.step_par(4, OmpSchedule::Static);
            black_box(p.total_heat())
        })
    });

    let tile = apps::satellite::Tile::synthetic(64, 64, 3);
    g.bench_function("satellite_64x64_static4", |b| {
        b.iter(|| apps::satellite::filter_par(black_box(&tile), 4, OmpSchedule::Static))
    });
    g.bench_function("satellite_64x64_dynamic1_4", |b| {
        b.iter(|| apps::satellite::filter_par(black_box(&tile), 4, OmpSchedule::Dynamic(1)))
    });

    let m = apps::lama::EllMatrix::pwtk_like(4096, 24, 7);
    let x: Vec<f32> = (0..4096).map(|i| (i % 17) as f32 * 0.25).collect();
    g.bench_function("lama_spmv_4096_seq", |b| {
        b.iter(|| m.spmv_seq(black_box(&x)))
    });
    g.bench_function("lama_spmv_4096_par4", |b| {
        b.iter(|| m.spmv_par(black_box(&x), 4, OmpSchedule::Static))
    });
    g.finish();
}

criterion_group!(benches, bench_schedules, bench_apps_parallel);
criterion_main!(benches);
