//! Benchmarks of the numeric multifrontal engine: dense kernel, full
//! sequential factorization, rayon tree-parallel factorization, solve.

use criterion::{criterion_group, criterion_main, Criterion};
use mf_frontal::dense::{partial_lu, partial_lu_blocked_mt, DenseMat};
use mf_frontal::numeric::Factorization;
use mf_frontal::parallel::factorize_parallel;
use mf_order::OrderingKind;
use mf_sparse::gen::grid::{grid3d, Stencil};
use mf_sparse::Symmetry;
use mf_symbolic::AmalgamationOptions;

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("numeric/kernel");
    for f in [64usize, 128, 256] {
        let p = f / 2;
        let make = move || {
            let mut w = DenseMat::zeros(f, f);
            for i in 0..f {
                for j in 0..f {
                    *w.get_mut(i, j) = if i == j { f as f64 } else { -0.5 };
                }
            }
            w
        };
        group.bench_function(format!("partial_lu_{f}x{f}_p{p}"), |b| {
            b.iter_batched(
                make,
                |mut w| {
                    let mut perm = Vec::new();
                    partial_lu(&mut w, p, &mut perm).unwrap();
                    w
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("partial_lu_blocked_{f}x{f}_p{p}"), |b| {
            b.iter_batched(
                make,
                |mut w| {
                    let mut perm = Vec::new();
                    partial_lu_blocked_mt(&mut w, p, 32, &mut perm, 1).unwrap();
                    w
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_factorize(c: &mut Criterion) {
    let a = grid3d(12, 12, 12, Stencil::Box, Symmetry::Symmetric, 3);
    let perm = OrderingKind::Metis.compute(&a);
    let s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default());

    let mut group = c.benchmark_group("numeric/grid12x12x12");
    group.sample_size(10);
    group.bench_function("factorize_sequential", |b| {
        b.iter(|| Factorization::from_symbolic(&a, &s).unwrap())
    });
    group.bench_function("factorize_parallel", |b| b.iter(|| factorize_parallel(&a, &s).unwrap()));
    let f = Factorization::from_symbolic(&a, &s).unwrap();
    let b_rhs: Vec<f64> = (0..a.nrows()).map(|i| (i % 11) as f64).collect();
    group.bench_function("solve", |b| b.iter(|| f.solve(&b_rhs)));
    group.finish();
}

criterion_group!(benches, bench_kernel, bench_factorize);
criterion_main!(benches);
