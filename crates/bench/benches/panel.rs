//! Panel-factorization benchmark: the recursive (GEMM-rich) panel of
//! `partial_lu_blocked_mt` against the historical rank-1 panel, across the
//! front sizes the paper's matrices produce. The trailing update is
//! identical in both kernels, so any spread is the panel roofline gap
//! this bench exists to watch.

use criterion::{criterion_group, criterion_main, Criterion};
use mf_frontal::dense::{
    partial_lu_blocked_mt, partial_lu_blocked_rank1_panel, DenseMat, FRONT_NB,
};

fn random_front(f: usize, seed: u64) -> DenseMat {
    let mut w = DenseMat::zeros(f, f);
    let mut h = seed | 1;
    for j in 0..f {
        for i in 0..f {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            *w.get_mut(i, j) = if i == j { f as f64 } else { v };
        }
    }
    w
}

fn bench_panel(c: &mut Criterion) {
    let mut group = c.benchmark_group("panel/blocked_lu");
    group.sample_size(10);
    for f in [256usize, 512, 1024] {
        let npiv = f / 2;
        let a = random_front(f, 0xbeef ^ f as u64);
        group.bench_function(format!("recursive_f{f}"), |bch| {
            bch.iter_batched(
                || a.clone(),
                |mut w| {
                    let mut perm = Vec::new();
                    partial_lu_blocked_mt(&mut w, npiv, FRONT_NB, &mut perm, 1).unwrap();
                    w
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("rank1_f{f}"), |bch| {
            bch.iter_batched(
                || a.clone(),
                |mut w| {
                    let mut perm = Vec::new();
                    partial_lu_blocked_rank1_panel(&mut w, npiv, FRONT_NB, &mut perm).unwrap();
                    w
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_panel);
criterion_main!(benches);
