//! Criterion benches of the polyhedral engine: Fourier–Motzkin
//! feasibility, dependence analysis, schedule search and code generation —
//! including the Fig. 2 skewing kernel.

use cfront::ast::{Stmt, StmtKind};
use cfront::parser::parse;
use criterion::{criterion_group, criterion_main, Criterion};
use polyhedral::{
    analyze, compute_schedule, extract_scop, generate, AffineExpr, CodegenOptions, Constraint,
    ConstraintSystem, Scop,
};
use std::hint::black_box;

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
    extract_scop(&found.expect("loop")).expect("scop")
}

const FIG2: &str = "\
void kernel(float** a) {
    for (int i = 1; i < 64; i++)
        for (int j = 1; j < 63; j++)
            a[i][j] = a[i - 1][j] + a[i - 1][j + 1];
}
";

const MATMUL: &str = "\
float** C;
void f() {
    for (int i = 0; i < 4096; i++)
        for (int j = 0; j < 4096; j++)
            C[i][j] = tmpConst_dot_0;
}
";

fn bench_fm(c: &mut Criterion) {
    let v = |n: &str| AffineExpr::var(n);
    let k = AffineExpr::constant;
    // A representative dependence polyhedron (4 vars, 11 constraints).
    let mut sys = ConstraintSystem::new();
    for dim in ["i", "j", "ip", "jp"] {
        sys.push(Constraint::ge(&v(dim), &k(1)));
        sys.push(Constraint::le(&v(dim), &k(4095)));
    }
    sys.push(Constraint::eq(&v("ip"), &v("i").sub(&k(1))));
    sys.push(Constraint::eq(&v("jp"), &v("j").add(&k(1))));
    sys.push(Constraint::ge(&v("ip").sub(&v("i")), &k(0)));

    c.bench_function("fm_satisfiable_dep_polyhedron", |b| {
        b.iter(|| black_box(&sys).is_satisfiable())
    });
}

fn bench_deps_and_schedule(c: &mut Criterion) {
    let fig2 = scop_of(FIG2);
    let matmul = scop_of(MATMUL);
    let mut g = c.benchmark_group("polyhedral");
    g.bench_function("analyze_fig2_stencil", |b| {
        b.iter(|| analyze(black_box(&fig2)))
    });
    g.bench_function("analyze_matmul", |b| b.iter(|| analyze(black_box(&matmul))));
    let deps_fig2 = analyze(&fig2).deps;
    g.bench_function("schedule_fig2_skew_search", |b| {
        b.iter(|| compute_schedule(black_box(&fig2), black_box(&deps_fig2)))
    });
    let t = compute_schedule(&fig2, &deps_fig2);
    g.bench_function("codegen_fig2_tiled", |b| {
        b.iter(|| {
            generate(
                black_box(&fig2),
                black_box(&t),
                CodegenOptions {
                    tile: Some(32),
                    sica: true,
                    omp: true,
                },
            )
            .expect("codegen")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fm, bench_deps_and_schedule);
criterion_main!(benches);
