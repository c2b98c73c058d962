//! Sequential numeric multifrontal factorization and solve.
//!
//! This is the correctness anchor of the reproduction: it executes the
//! assembly tree produced by `mf-symbolic` with real arithmetic and the
//! three-area memory discipline of [`crate::arena`] — and verifies,
//! through residual tests, that the whole symbolic pipeline (ordering →
//! etree → amalgamation → fronts) is consistent. Each front is assembled,
//! factored and split by the routine this driver shares with
//! [`crate::parallel`]; this module owns only the postorder traversal,
//! the contribution-block stack and the memory ledger.

use crate::arena::{CbStack, MemoryAccount};
use crate::dense::{DenseMat, KernelError};
use crate::front::Fronts;
use mf_sparse::{CscMatrix, Permutation, Symmetry};
use mf_symbolic::{AmalgamationOptions, SymbolicAnalysis};

/// Knobs of the numeric factorization drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericOptions {
    /// Thread budget for the trailing update *inside* each front (the
    /// malleable-task axis: tree parallelism distributes fronts, this
    /// knob splits one front's GEMM across workers). The factor bytes do
    /// not depend on this value — kernel dispatch keys on the pivot
    /// count only, and the parallel trailing sweep is partition-
    /// invariant — so it is purely a performance knob. `1` (the default)
    /// keeps every front sequential.
    pub cores_per_front: usize,
    /// When set, the parallel driver allots within-front threads
    /// *malleably*: a front entering its factorization is granted
    /// `pool / busy` threads (clamped to `[1, cores_per_front]`), where
    /// `busy` counts the fronts concurrently being factored (assembly,
    /// kernel and split). Leaf storms run one thread per front; the root
    /// chain collects the whole pool. Factor bytes stay independent of
    /// the grants (same invariant as `cores_per_front` itself — see the
    /// determinism suite). Ignored by the sequential driver, where
    /// `busy` is always one.
    pub malleable_pool: Option<usize>,
}

impl Default for NumericOptions {
    fn default() -> Self {
        NumericOptions { cores_per_front: 1, malleable_pool: None }
    }
}

/// Failure of the numeric factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A dense kernel failed (tiny pivot) at the given tree node.
    Kernel {
        /// Assembly-tree node where the failure occurred.
        node: usize,
        /// Underlying kernel error.
        source: KernelError,
    },
    /// The matrix is not square.
    NotSquare,
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::Kernel { node, source } => write!(f, "front {node}: {source}"),
            FactorError::NotSquare => write!(f, "matrix must be square"),
        }
    }
}

impl std::error::Error for FactorError {}

/// Factors of one front.
#[derive(Debug, Clone)]
pub(crate) struct FrontFactor {
    /// Global variable list (pivots first) — shared layout with the
    /// symbolic front structure.
    pub(crate) vars: Vec<usize>,
    pub(crate) npiv: usize,
    /// Local row permutation of the fully-summed rows (identity for LDLᵀ).
    pub(crate) row_perm: Vec<usize>,
    /// `p x p` block holding `L11` (unit lower, implied diagonal) and
    /// `U11` (upper, including diagonal) for LU; `L11` + `D` for LDLᵀ.
    pub(crate) block11: DenseMat,
    /// `(f-p) x p` block `L21`.
    pub(crate) l21: DenseMat,
    /// `p x (f-p)` block `U12` (LU only; empty for LDLᵀ).
    pub(crate) u12: DenseMat,
    /// Diagonal of `D` (LDLᵀ only).
    pub(crate) d: Vec<f64>,
}

/// Memory/operation statistics of a numeric factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NumericStats {
    /// Peak of the contribution-block stack (entries).
    pub stack_peak: u64,
    /// Peak of the active memory (stack + current front), the paper's
    /// reported quantity.
    pub active_peak: u64,
    /// Factor entries stored.
    pub factor_entries: u64,
    /// Number of fronts processed.
    pub fronts: usize,
}

/// A complete numeric factorization, ready to solve.
#[derive(Debug, Clone)]
pub struct Factorization {
    pub(crate) sym: Symmetry,
    pub(crate) n: usize,
    pub(crate) perm: Permutation,
    pub(crate) fronts: Vec<Option<FrontFactor>>,
    pub(crate) topo: Vec<usize>,
    /// Memory and size statistics gathered during the factorization.
    pub stats: NumericStats,
}

impl Factorization {
    /// Full pipeline: orders nothing (uses `ordering` as given), runs the
    /// symbolic analysis, then the numeric factorization.
    pub fn new(
        a: &CscMatrix,
        ordering: &Permutation,
        amalg: &AmalgamationOptions,
    ) -> Result<Self, FactorError> {
        if a.nrows() != a.ncols() {
            return Err(FactorError::NotSquare);
        }
        let s = mf_symbolic::analyze(a, ordering, amalg);
        Self::from_symbolic(a, &s)
    }

    /// Numeric factorization over an existing symbolic analysis.
    pub fn from_symbolic(a: &CscMatrix, s: &SymbolicAnalysis) -> Result<Self, FactorError> {
        Self::from_symbolic_with(a, s, &NumericOptions::default())
    }

    /// [`Factorization::from_symbolic`] with explicit driver options
    /// (within-front thread budget).
    pub fn from_symbolic_with(
        a: &CscMatrix,
        s: &SymbolicAnalysis,
        opts: &NumericOptions,
    ) -> Result<Self, FactorError> {
        factorize_sequential(a, s, opts)
    }

    /// Order-stable FNV-1a digest of the complete numeric content:
    /// symmetry, order, permutation, and — in topological order — every
    /// front's variables, pivot count, row permutation, and the exact
    /// bit patterns of all factor blocks. Two factorizations digest
    /// equal iff they are byte-identical; the determinism suite uses
    /// this to compare runs across thread counts and SIMD levels.
    pub fn content_digest(&self) -> u64 {
        fn mix(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        }
        fn mix_mat(h: &mut u64, m: &DenseMat) {
            mix(h, m.nrows() as u64);
            mix(h, m.ncols() as u64);
            for &x in m.raw() {
                mix(h, x.to_bits());
            }
        }
        let mut h = 0xcbf29ce484222325u64;
        mix(&mut h, matches!(self.sym, Symmetry::Symmetric) as u64);
        mix(&mut h, self.n as u64);
        for i in 0..self.n {
            mix(&mut h, self.perm.new_of(i) as u64);
        }
        for &v in &self.topo {
            let Some(fr) = &self.fronts[v] else {
                mix(&mut h, u64::MAX);
                continue;
            };
            mix(&mut h, fr.vars.len() as u64);
            for &gv in &fr.vars {
                mix(&mut h, gv as u64);
            }
            mix(&mut h, fr.npiv as u64);
            for &r in &fr.row_perm {
                mix(&mut h, r as u64);
            }
            mix_mat(&mut h, &fr.block11);
            mix_mat(&mut h, &fr.l21);
            mix_mat(&mut h, &fr.u12);
            for &x in &fr.d {
                mix(&mut h, x.to_bits());
            }
        }
        h
    }

    /// Matrix order.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Symmetry the factorization ran with.
    pub fn symmetry(&self) -> Symmetry {
        self.sym
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        // Permute RHS to elimination order.
        let mut g = vec![0.0; self.n];
        for (i, &v) in b.iter().enumerate() {
            g[self.perm.new_of(i)] = v;
        }
        let mut y = vec![0.0; self.n];
        // Forward elimination, children before parents.
        for &v in &self.topo {
            let Some(fr) = &self.fronts[v] else { continue };
            let p = fr.npiv;
            let f = fr.vars.len();
            let mut t: Vec<f64> = (0..p).map(|k| g[fr.vars[fr.row_perm[k]]]).collect();
            for k in 0..p {
                let tk = t[k];
                if tk != 0.0 {
                    for i in k + 1..p {
                        t[i] -= fr.block11.get(i, k) * tk;
                    }
                }
            }
            for i in 0..f - p {
                let mut s = 0.0;
                for k in 0..p {
                    s += fr.l21.get(i, k) * t[k];
                }
                g[fr.vars[p + i]] -= s;
            }
            let first = fr.vars[0];
            y[first..first + p].copy_from_slice(&t);
        }
        // Backward substitution, parents before children.
        let mut x = vec![0.0; self.n];
        for &v in self.topo.iter().rev() {
            let Some(fr) = &self.fronts[v] else { continue };
            let p = fr.npiv;
            let f = fr.vars.len();
            let first = fr.vars[0];
            let mut t: Vec<f64> = y[first..first + p].to_vec();
            match self.sym {
                Symmetry::General => {
                    // t -= U12 * x_cb, then solve U11 t.
                    for k in 0..p {
                        let mut s = 0.0;
                        for j in 0..f - p {
                            s += fr.u12.get(k, j) * x[fr.vars[p + j]];
                        }
                        t[k] -= s;
                    }
                    for k in (0..p).rev() {
                        let mut s = t[k];
                        for j in k + 1..p {
                            s -= fr.block11.get(k, j) * t[j];
                        }
                        t[k] = s / fr.block11.get(k, k);
                    }
                }
                Symmetry::Symmetric => {
                    // w = D^-1 y, then Lᵀ x = w using L21 and L11.
                    for k in 0..p {
                        t[k] /= fr.d[k];
                    }
                    for k in (0..p).rev() {
                        let mut s = t[k];
                        for i in 0..f - p {
                            s -= fr.l21.get(i, k) * x[fr.vars[p + i]];
                        }
                        for j in k + 1..p {
                            s -= fr.block11.get(j, k) * t[j];
                        }
                        t[k] = s;
                    }
                }
            }
            x[first..first + p].copy_from_slice(&t[..p]);
        }
        // Permute back to original order.
        (0..self.n).map(|i| x[self.perm.new_of(i)]).collect()
    }

    /// Solves for several right-hand sides (forward/backward sweeps are
    /// repeated per column; the factors are traversed once per RHS).
    pub fn solve_many(&self, bs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        bs.iter().map(|b| self.solve(b)).collect()
    }

    /// Solves `A x = b` with iterative refinement: up to `max_iters`
    /// residual corrections, stopping once the relative residual is below
    /// `tol`. Returns the solution and the final relative residual.
    ///
    /// Refinement recovers the last digits lost to restricted pivoting
    /// and is the standard companion of direct solvers.
    pub fn solve_refined(
        &self,
        a: &CscMatrix,
        b: &[f64],
        max_iters: usize,
        tol: f64,
    ) -> (Vec<f64>, f64) {
        let mut x = self.solve(b);
        let mut res = Self::residual_inf(a, &x, b);
        for _ in 0..max_iters {
            if res <= tol {
                break;
            }
            let ax = a.mul_vec(&x);
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            let dx = self.solve(&r);
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += di;
            }
            let new_res = Self::residual_inf(a, &x, b);
            if new_res >= res {
                break; // stagnation: keep the best iterate so far
            }
            res = new_res;
        }
        (x, res)
    }

    /// Max-norm of the residual `b - A x` relative to `‖b‖∞` (test helper).
    pub fn residual_inf(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x);
        let bnorm = b.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-300);
        ax.iter().zip(b).fold(0.0f64, |m, (&axi, &bi)| m.max((bi - axi).abs())) / bnorm
    }
}

fn factorize_sequential(
    a: &CscMatrix,
    s: &SymbolicAnalysis,
    opts: &NumericOptions,
) -> Result<Factorization, FactorError> {
    let fronts_in = Fronts::new(a, s)?;
    let threads = opts.cores_per_front.max(1);
    let tree = &s.tree;
    let topo = tree.topo_order();
    let mut fronts: Vec<Option<FrontFactor>> = vec![None; tree.len()];
    let mut cb_stack = CbStack::new();
    let mut cb_handles = vec![None; tree.len()];
    let mut account = MemoryAccount::new();

    for &v in &topo {
        account.alloc_front(tree.front_entries(v));
        // Postorder leaves the children's blocks on top of the stack in
        // child order, so LIFO pops release them in reverse: the order
        // the front routine extend-adds them in.
        let child_cbs = tree.nodes[v]
            .children
            .iter()
            .rev()
            .map(|&ch| {
                account.pop_cb(tree.cb_entries(ch));
                cb_stack.pop(cb_handles[ch].take().expect("child CB missing"))
            })
            .collect();
        let (factor, cb) = fronts_in.factor(v, child_cbs, threads)?;
        account.store_factors(tree.factor_entries(v));

        // Accounting note: the front is released *before* the CB is
        // counted on the stack, reflecting the contiguous-memory layout
        // where the CB part of the front is relabeled in place as stack
        // memory (the front sits at the top of the stack area). This
        // matches the FrontThenFree discipline of `mf_symbolic::seqstack`.
        account.free_front(tree.front_entries(v));
        if !cb.is_empty() {
            cb_handles[v] = Some(cb_stack.push(cb));
            account.push_cb(tree.cb_entries(v));
        }
        fronts[v] = Some(factor);
    }

    debug_assert_eq!(cb_stack.depth(), 0, "all CBs must be consumed");
    Ok(Factorization {
        sym: tree.sym,
        n: tree.n,
        perm: s.perm.clone(),
        fronts,
        topo,
        stats: NumericStats {
            stack_peak: account.stack_peak(),
            active_peak: account.active_peak(),
            factor_entries: account.factors(),
            fronts: tree.len(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::gen::circuit::circuit;
    use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 2654435761) % 1000) as f64 / 100.0 - 5.0).collect()
    }

    fn check_solve(a: &CscMatrix, p: &Permutation) -> NumericStats {
        let f = Factorization::new(a, p, &AmalgamationOptions::default()).unwrap();
        let b = rhs(a.nrows());
        let x = f.solve(&b);
        let r = Factorization::residual_inf(a, &x, &b);
        assert!(r < 1e-8, "residual {r:e}");
        f.stats
    }

    #[test]
    fn solves_spd_grid_identity_ordering() {
        let a = grid2d(9, 8, Stencil::Star);
        check_solve(&a, &Permutation::identity(72));
    }

    #[test]
    fn solves_spd_grid_reversed_ordering() {
        let a = grid2d(8, 8, Stencil::Box);
        let n = a.nrows();
        let p = Permutation::from_new_order((0..n).map(|i| n - 1 - i).collect()).unwrap();
        check_solve(&a, &p);
    }

    #[test]
    fn solves_unsymmetric_grid() {
        let a = grid3d(4, 4, 4, Stencil::Star, Symmetry::General, 3);
        check_solve(&a, &Permutation::identity(64));
    }

    #[test]
    fn solves_unsymmetric_circuit() {
        let a = circuit(150, 3, 2, 0.1, 17);
        check_solve(&a, &Permutation::identity(150));
    }

    #[test]
    fn matches_dense_oracle_on_small_matrix() {
        let a = grid2d(4, 3, Stencil::Box);
        let n = a.nrows();
        let mut dm = crate::dense::DenseMat::zeros(n, n);
        for j in 0..n {
            for (&i, &v) in a.rows_in_col(j).iter().zip(a.vals_in_col(j)) {
                *dm.get_mut(i, j) = v;
            }
        }
        let b = rhs(n);
        let xo = crate::dense::dense_solve(&dm, &b).unwrap();
        let f = Factorization::new(&a, &Permutation::identity(n), &AmalgamationOptions::none())
            .unwrap();
        let x = f.solve(&b);
        for i in 0..n {
            assert!((x[i] - xo[i]).abs() < 1e-9, "x[{i}]: {} vs {}", x[i], xo[i]);
        }
    }

    #[test]
    fn stack_peak_matches_symbolic_model() {
        // The numeric run's accounting must equal the symbolic sequential
        // analysis under the same (FrontThenFree) discipline and the same
        // child order: on a grid, and on every paper matrix at the
        // determinism suite's scale.
        let grid = grid2d(10, 10, Stencil::Star);
        let mut cases = vec![("grid 10x10".to_string(), grid, Permutation::identity(100))];
        for m in mf_sparse::gen::paper::ALL_PAPER_MATRICES {
            let a = m.instantiate_scaled(0.08);
            let perm = mf_order::OrderingKind::Amd.compute(&a);
            cases.push((m.name().to_string(), a, perm));
        }
        for (name, a, perm) in cases {
            let s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default());
            let f = Factorization::from_symbolic(&a, &s).unwrap();
            let model = mf_symbolic::seqstack::sequential_peak(
                &s.tree,
                mf_symbolic::seqstack::AssemblyDiscipline::FrontThenFree,
            );
            assert_eq!(f.stats.active_peak, model, "{name}");
        }
    }

    #[test]
    fn factor_entries_match_symbolic_total() {
        let a = grid2d(7, 9, Stencil::Box);
        let s =
            mf_symbolic::analyze(&a, &Permutation::identity(63), &AmalgamationOptions::default());
        let f = Factorization::from_symbolic(&a, &s).unwrap();
        assert_eq!(f.stats.factor_entries, s.tree.total_factor_entries());
    }

    #[test]
    fn refinement_improves_or_keeps_the_residual() {
        let a = grid2d(12, 12, Stencil::Box);
        let f =
            Factorization::new(&a, &Permutation::identity(144), &AmalgamationOptions::default())
                .unwrap();
        let b = rhs(144);
        let x0 = f.solve(&b);
        let r0 = Factorization::residual_inf(&a, &x0, &b);
        let (x1, r1) = f.solve_refined(&a, &b, 3, 1e-16);
        assert!(r1 <= r0, "refinement made it worse: {r1:e} > {r0:e}");
        assert_eq!(x1.len(), 144);
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let a = grid2d(6, 7, Stencil::Star);
        let f = Factorization::new(&a, &Permutation::identity(42), &AmalgamationOptions::none())
            .unwrap();
        let bs: Vec<Vec<f64>> = (0..3).map(|k| (0..42).map(|i| (i * k) as f64).collect()).collect();
        let many = f.solve_many(&bs);
        for (b, x) in bs.iter().zip(&many) {
            assert_eq!(x, &f.solve(b));
        }
    }

    #[test]
    fn non_square_rejected() {
        let mut coo = mf_sparse::CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        let a = coo.to_csc();
        assert!(matches!(
            Factorization::new(&a, &Permutation::identity(3), &AmalgamationOptions::none()),
            Err(FactorError::NotSquare)
        ));
    }

    #[test]
    fn singular_matrix_reports_tiny_pivot() {
        // Rank-1 dense 2x2: the second pivot vanishes whatever the order.
        let mut coo = mf_sparse::CooMatrix::new(2, 2);
        for i in 0..2 {
            for j in 0..2 {
                coo.push(i, j, 1.0).unwrap();
            }
        }
        let a = coo.to_csc();
        let r = Factorization::new(&a, &Permutation::identity(2), &AmalgamationOptions::none());
        assert!(matches!(r, Err(FactorError::Kernel { .. })), "{r:?}");
    }

    #[test]
    fn solve_after_split_tree_still_correct() {
        // Chain splitting must not change the numerics.
        let a = grid2d(8, 8, Stencil::Box);
        let mut s =
            mf_symbolic::analyze(&a, &Permutation::identity(64), &AmalgamationOptions::default());
        mf_symbolic::split::split_large_masters(&mut s.tree, 200);
        let f = Factorization::from_symbolic(&a, &s).unwrap();
        let b = rhs(64);
        let x = f.solve(&b);
        let r = Factorization::residual_inf(&a, &x, &b);
        assert!(r < 1e-8, "residual {r:e}");
    }
}
