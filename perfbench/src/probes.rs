//! Layer probes of the traced run: measurements the ops themselves cannot
//! give from outside, each made through the crates' public functions.

use std::hint::black_box;
use std::time::Instant;

use mf_frontal::dense::{factor_front_ldlt_mt, factor_front_lu_mt, DenseMat};
use mf_frontal::gemm;
use mf_sparse::Symmetry;
use mf_symbolic::frontstruct::front_structures;
use mf_symbolic::{AssemblyTree, SymbolicAnalysis};
use rayon::prelude::*;

use crate::stats::median;

/// Fronts at least this large count as large in the kernel split.
pub const LARGE_FRONT: usize = 256;

/// Kernel time and model flops of a replay, split by front size.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelReplay {
    /// Milliseconds in fronts with `nfront >= LARGE_FRONT`.
    pub large_ms: f64,
    /// Their flops.
    pub large_flops: f64,
    /// Milliseconds in the smaller fronts.
    pub small_ms: f64,
    /// Their flops.
    pub small_flops: f64,
}

/// Fills `w` with a diagonally dominant, symmetric pattern of values from
/// a fixed stream, so every pivot is safe for both kernels.
fn fill_front(w: &mut DenseMat, state: &mut u64) {
    let n = w.nrows();
    for j in 0..n {
        for i in j..n {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = if i == j {
                n as f64 + 1.0
            } else {
                ((*state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            *w.get_mut(i, j) = v;
            *w.get_mut(j, i) = v;
        }
    }
}

/// Factors one dense front of every front's shape `(nfront, npiv)`
/// through the production kernel entry points (`factor_front_lu_mt` or
/// `factor_front_ldlt_mt`, one thread, as the sequential driver calls
/// them), timing the kernel call only.
pub fn replay_kernels<'a>(trees: impl Iterator<Item = &'a AssemblyTree>) -> KernelReplay {
    let mut r = KernelReplay::default();
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut row_perm = Vec::new();
    for tree in trees {
        for (v, nd) in tree.nodes.iter().enumerate() {
            let mut w = DenseMat::zeros(nd.nfront, nd.nfront);
            fill_front(&mut w, &mut state);
            let t = Instant::now();
            let ok = match tree.sym {
                Symmetry::General => factor_front_lu_mt(&mut w, nd.npiv, &mut row_perm, 1),
                Symmetry::Symmetric => factor_front_ldlt_mt(&mut w, nd.npiv, 1),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            ok.expect("diagonally dominant fronts factor");
            black_box(&w);
            let flops = tree.flops(v) as f64;
            if nd.nfront >= LARGE_FRONT {
                r.large_ms += ms;
                r.large_flops += flops;
            } else {
                r.small_ms += ms;
                r.small_flops += flops;
            }
        }
    }
    r
}

/// Single-core ceiling of the dense kernels in this run: the packed
/// microkernel (`gemm::gemm_sub_packed`) on L1-resident panels packed
/// once, median of five timed batches.
pub fn roofline_gflops() -> f64 {
    let (m, n, kc) = (48usize, 48usize, 64usize);
    let mut state = 0x1319_8a2e_0370_7344u64;
    let mut fill = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    };
    let a = fill(m * kc);
    let b = fill(kc * n);
    let mut c = fill(m * n);
    let mut ws = gemm::GemmWorkspace::new();
    let ap = gemm::pack_a(&mut ws, &a, m, m, kc);
    let mut bp = Vec::new();
    gemm::pack_b(&mut bp, &b, kc, kc, n);
    let inner = 2000u32;
    let flops = 2.0 * (m * n * kc) as f64 * inner as f64;
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                gemm::gemm_sub_packed(&ap, &bp, n, &mut c, m);
            }
            black_box(&c);
            flops / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&rates)
}

/// Milliseconds of one `front_structures` call per analysis, summed over
/// the analyses: the index-list part of a factorization. Median of three.
pub fn front_structures_ms(analyses: &[&SymbolicAnalysis]) -> f64 {
    let sums: Vec<f64> = (0..3)
        .map(|_| {
            analyses
                .iter()
                .map(|s| {
                    let t = Instant::now();
                    black_box(front_structures(s));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .sum()
        })
        .collect();
    median(&sums)
}

/// Microseconds of one round trip through the thread pool: a two-item
/// `par_iter().map(..).collect()`, the call shape of the tree-parallel
/// driver. Median of five batches of 100 calls.
pub fn rayon_dispatch_us() -> f64 {
    let items = [1u64, 2];
    let per_call: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..100 {
                let v: Vec<u64> = black_box(&items).par_iter().map(|x| x + 1).collect();
                black_box(v);
            }
            t.elapsed().as_secs_f64() * 1e6 / 100.0
        })
        .collect();
    median(&per_call)
}
