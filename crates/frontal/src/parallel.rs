//! Rayon tree-parallel numeric factorization.
//!
//! The multifrontal method's tree parallelism — the paper's type-1
//! parallelism across MPI ranks — maps directly onto fork-join threading:
//! independent subtrees factorize concurrently, and each front may also
//! split its trailing update across threads (`cores_per_front`, granted
//! malleably under `malleable_pool`). This module provides that
//! shared-memory variant. It runs the same front routine as the
//! sequential driver and is byte-identical to it; it differs only in
//! traversal and accounting. It trades the strict LIFO stack discipline
//! (meaningless under concurrency) for per-node CB buffers; memory is
//! tracked with atomic high-water counters instead
//! ([`factorize_parallel`]'s `NumericStats` reports the honest peak of
//! live front + CB entries across all workers).

use crate::front::Fronts;
use crate::numeric::{FactorError, Factorization, FrontFactor, NumericOptions, NumericStats};
use mf_sparse::CscMatrix;
use mf_symbolic::SymbolicAnalysis;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Atomic high-water accounting of live numeric memory (entries, i.e.
/// `f64` words), shared by all workers. `live` counts every currently
/// allocated front plus every contribution block not yet absorbed by
/// its parent; `stack` counts the CB portion alone. Peaks are tracked
/// with `fetch_max`, so the reported numbers are an honest upper
/// envelope of what the concurrent run actually held — the parallel
/// analogue of the sequential driver's `active_peak`/`stack_peak`
/// (which it upper-bounds: the parallel driver copies each CB out of
/// its front instead of relabeling it in place).
#[derive(Default)]
struct ParAccount {
    live: AtomicU64,
    stack: AtomicU64,
    live_peak: AtomicU64,
    stack_peak: AtomicU64,
}

impl ParAccount {
    fn alloc_front(&self, entries: u64) {
        let v = self.live.fetch_add(entries, Ordering::Relaxed) + entries;
        self.live_peak.fetch_max(v, Ordering::Relaxed);
    }

    fn free_front(&self, entries: u64) {
        self.live.fetch_sub(entries, Ordering::Relaxed);
    }

    fn push_cb(&self, entries: u64) {
        let s = self.stack.fetch_add(entries, Ordering::Relaxed) + entries;
        self.stack_peak.fetch_max(s, Ordering::Relaxed);
        self.alloc_front(entries);
    }

    fn pop_cb(&self, entries: u64) {
        self.stack.fetch_sub(entries, Ordering::Relaxed);
        self.free_front(entries);
    }
}

struct Ctx<'a> {
    fronts: Fronts<'a>,
    threads: usize,
    /// `Some(pool)` makes the within-front thread budget a scheduling
    /// decision (see [`NumericOptions::malleable_pool`]); `threads` then
    /// acts as the per-front cap.
    pool: Option<usize>,
    /// Fronts currently being factored (malleable grant denominator).
    busy: AtomicUsize,
    acct: ParAccount,
    slots: Vec<Mutex<Option<FrontFactor>>>,
}

impl Ctx<'_> {
    /// Thread budget granted to a front entering its factorization.
    /// Purely a performance decision: the kernels produce bit-identical
    /// factors for any budget, so a racy `busy` count cannot perturb
    /// results.
    fn grant_threads(&self) -> usize {
        match self.pool {
            None => self.threads,
            Some(pool) => {
                let busy = self.busy.fetch_add(1, Ordering::Relaxed) + 1;
                (pool / busy).clamp(1, self.threads.max(1))
            }
        }
    }

    fn release_threads(&self) {
        if self.pool.is_some() {
            self.busy.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Factorizes `a` over the symbolic analysis `s`, exploiting tree
/// parallelism with rayon. Byte-identical to the sequential driver: both
/// run the same front routine and extend-add the children in the same
/// (reverse child) order, so [`Factorization::content_digest`] agrees.
pub fn factorize_parallel(
    a: &CscMatrix,
    s: &SymbolicAnalysis,
) -> Result<Factorization, FactorError> {
    factorize_parallel_with(a, s, &NumericOptions::default())
}

/// [`factorize_parallel`] with explicit driver options. The
/// `cores_per_front` budget is handed to each front's trailing-update
/// kernel on top of the tree parallelism; factor bytes are independent
/// of it (and of the rayon pool width — see the determinism suite).
pub fn factorize_parallel_with(
    a: &CscMatrix,
    s: &SymbolicAnalysis,
    opts: &NumericOptions,
) -> Result<Factorization, FactorError> {
    let ctx = Ctx {
        fronts: Fronts::new(a, s)?,
        threads: opts.cores_per_front.max(1),
        pool: opts.malleable_pool,
        busy: AtomicUsize::new(0),
        acct: ParAccount::default(),
        slots: (0..s.tree.len()).map(|_| Mutex::new(None)).collect(),
    };
    let roots = s.tree.roots();
    let results: Result<Vec<_>, FactorError> =
        roots.par_iter().map(|&r| process(&ctx, r)).collect();
    results?;
    let fronts: Vec<Option<FrontFactor>> = ctx.slots.into_iter().map(|m| m.into_inner()).collect();
    Ok(Factorization {
        sym: s.tree.sym,
        n: s.tree.n,
        perm: s.perm.clone(),
        fronts,
        topo: s.tree.topo_order(),
        stats: NumericStats {
            stack_peak: ctx.acct.stack_peak.load(Ordering::Relaxed),
            active_peak: ctx.acct.live_peak.load(Ordering::Relaxed),
            factor_entries: s.tree.total_factor_entries(),
            fronts: s.tree.len(),
        },
    })
}

/// Processes the subtree rooted at `v`; returns the contribution block
/// (column-major, over the CB variables of `v`).
fn process(ctx: &Ctx<'_>, v: usize) -> Result<Vec<f64>, FactorError> {
    let nd = &ctx.fronts.tree.nodes[v];
    // Children first — in parallel when there are several.
    let mut child_cbs: Vec<Vec<f64>> = if nd.children.len() > 1 {
        nd.children.par_iter().map(|&c| process(ctx, c)).collect::<Result<Vec<_>, _>>()?
    } else {
        nd.children.iter().map(|&c| process(ctx, c)).collect::<Result<Vec<_>, _>>()?
    };
    // The front routine takes the blocks in reverse child order.
    child_cbs.reverse();
    let child_entries: u64 = child_cbs.iter().map(|cb| cb.len() as u64).sum();

    let front_entries = (nd.nfront * nd.nfront) as u64;
    ctx.acct.alloc_front(front_entries);
    let granted = ctx.grant_threads();
    let factored = ctx.fronts.factor(v, child_cbs, granted);
    ctx.release_threads();
    let (factor, cb) = factored?;
    ctx.acct.pop_cb(child_entries);
    // The CB is a copy: it coexists with the front until the front is
    // dropped, and the ledger counts both.
    ctx.acct.push_cb(cb.len() as u64);
    ctx.acct.free_front(front_entries);

    *ctx.slots[v].lock() = Some(factor);
    Ok(cb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};
    use mf_sparse::{Permutation, Symmetry};
    use mf_symbolic::AmalgamationOptions;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 48271) % 997) as f64 / 50.0 - 10.0).collect()
    }

    #[test]
    fn parallel_matches_sequential_symmetric() {
        let a = grid2d(12, 11, Stencil::Box);
        let n = a.nrows();
        let s =
            mf_symbolic::analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        let fseq = Factorization::from_symbolic(&a, &s).unwrap();
        let fpar = factorize_parallel(&a, &s).unwrap();
        assert_eq!(fpar.content_digest(), fseq.content_digest());
    }

    #[test]
    fn parallel_matches_sequential_unsymmetric() {
        let a = grid3d(5, 4, 4, Stencil::Star, Symmetry::General, 9);
        let n = a.nrows();
        let s =
            mf_symbolic::analyze(&a, &Permutation::identity(n), &AmalgamationOptions::default());
        let fseq = Factorization::from_symbolic(&a, &s).unwrap();
        let fpar = factorize_parallel(&a, &s).unwrap();
        assert_eq!(fpar.content_digest(), fseq.content_digest());
        let b = rhs(n);
        let x = fpar.solve(&b);
        let r = Factorization::residual_inf(&a, &x, &b);
        assert!(r < 1e-8, "residual {r:e}");
    }

    #[test]
    fn parallel_reports_honest_memory_peaks() {
        // No amalgamation: the tree keeps many fronts, so CBs exist and
        // the stack accounting is exercised.
        let a = grid2d(12, 11, Stencil::Box);
        let n = a.nrows();
        let s = mf_symbolic::analyze(&a, &Permutation::identity(n), &AmalgamationOptions::none());
        let fseq = Factorization::from_symbolic(&a, &s).unwrap();
        let fpar = factorize_parallel(&a, &s).unwrap();
        assert!(fpar.stats.stack_peak > 0, "stack peak must be reported");
        assert!(fpar.stats.active_peak >= fpar.stats.stack_peak);
        // The parallel driver copies each CB out of its front (front and
        // CB coexist), so its honest peak can only exceed the sequential
        // in-place discipline's.
        assert!(
            fpar.stats.active_peak >= fseq.stats.active_peak,
            "parallel peak {} below sequential {}",
            fpar.stats.active_peak,
            fseq.stats.active_peak
        );
    }

    #[test]
    fn parallel_reports_singularity() {
        // Rank-1 dense 2x2: the second pivot vanishes whatever the order.
        let mut coo = mf_sparse::CooMatrix::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        let a = coo.to_csc();
        let s = mf_symbolic::analyze(&a, &Permutation::identity(2), &AmalgamationOptions::none());
        assert!(factorize_parallel(&a, &s).is_err());
    }
}
