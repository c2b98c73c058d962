//! Column-major dense storage and partial factorization kernels.

use crate::gemm::{self, GemmWorkspace};
use rayon::prelude::*;

/// A column-major dense matrix (the layout of frontal matrices).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMat {
    /// Zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMat { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Raw column-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[j * self.nrows + i]
    }

    /// Adds `v` to element `(i, j)` (assembly primitive).
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[j * self.nrows + i] += v;
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Raw column-major backing slice (crate-internal: content digests).
    pub(crate) fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Swaps rows `a` and `b` across all columns.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        debug_assert!(a < self.nrows && b < self.nrows);
        for col in self.data.chunks_exact_mut(self.nrows) {
            col.swap(a, b);
        }
    }

    /// `y += A x` (used by tests for residual checks).
    pub fn mul_vec_add(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for (i, &a) in self.col(j).iter().enumerate() {
                y[i] += a * xj;
            }
        }
    }
}

/// Failure of a dense partial factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// A pivot smaller (in magnitude) than the threshold was met.
    TinyPivot {
        /// Elimination step at which it happened.
        step: usize,
        /// The offending pivot value.
        value: f64,
    },
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::TinyPivot { step, value } => {
                write!(f, "pivot too small at step {step}: {value:e}")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// `dst[i] += src[i]` over equal-length slices (assembly fast path for
/// contribution blocks whose variables land on consecutive parent rows).
#[inline]
pub(crate) fn add_assign_slice(dst: &mut [f64], src: &[f64]) {
    let n = dst.len();
    let src = &src[..n];
    for i in 0..n {
        dst[i] += src[i];
    }
}

/// Partial LU of the leading `npiv` columns of a square front `w`
/// (order `f = w.nrows()`), with partial pivoting restricted to the
/// fully-summed rows `0..npiv`.
///
/// On return, the leading `npiv` columns hold `L` (unit diagonal implied)
/// below the diagonal and `U` on/above it; the trailing
/// `(f-npiv) x (f-npiv)` block holds the Schur complement (contribution
/// block). `row_perm[k]` records the row swapped into position `k`.
///
/// Restricting pivot search to the fully-summed rows is exact for the
/// diagonally dominant problems generated in this reproduction and is the
/// discipline MUMPS follows before resorting to delayed pivots (which we
/// do not model; a tiny pivot is an error instead).
pub fn partial_lu(
    w: &mut DenseMat,
    npiv: usize,
    row_perm: &mut Vec<usize>,
) -> Result<(), KernelError> {
    let f = w.nrows();
    assert_eq!(f, w.ncols(), "frontal matrices are square");
    assert!(npiv <= f);
    row_perm.clear();
    row_perm.extend(0..f);
    for k in 0..npiv {
        // Pivot: largest magnitude in column k among fully-summed rows.
        let mut piv_row = k;
        let mut piv_val = w.get(k, k).abs();
        for i in k + 1..npiv {
            let v = w.get(i, k).abs();
            if v > piv_val {
                piv_val = v;
                piv_row = i;
            }
        }
        if piv_val < 1e-300 {
            return Err(KernelError::TinyPivot { step: k, value: w.get(piv_row, k) });
        }
        if piv_row != k {
            w.swap_rows(k, piv_row);
            row_perm.swap(k, piv_row);
        }
        let d = w.get(k, k);
        // Scale column k below the diagonal.
        let inv = 1.0 / d;
        for i in k + 1..f {
            *w.get_mut(i, k) *= inv;
        }
        // Rank-1 update of the trailing block: W[k+1.., k+1..] -= l * u.
        // Splitting after column k separates the finished L column from
        // the columns being updated, so the axpy runs on plain slices.
        let (head, tail) = w.data.split_at_mut((k + 1) * f);
        let lcol = &head[k * f + k + 1..];
        for colj in tail.chunks_exact_mut(f) {
            let ukj = colj[k];
            if ukj == 0.0 {
                continue;
            }
            gemm::axpy_sub(&mut colj[k + 1..], lcol, ukj);
        }
    }
    Ok(())
}

/// Fixed column-chunk width of the parallel trailing sweep (a multiple
/// of the microkernel tile width). The partition never changes results:
/// every column's update is computed independently from the shared
/// packed panel, so any chunking — including the single-chunk sequential
/// sweep — produces bit-identical bytes.
const PAR_COL_CHUNK: usize = 8 * gemm::NR;

/// Below this many trailing columns a parallel dispatch cannot pay for
/// its thread handoff; stay on the single-chunk path.
const PAR_MIN_COLS: usize = 2 * PAR_COL_CHUNK;

/// One chunk of the LU trailing update: for every column of `cols`
/// (whole front columns, length `f` each), solve `L11` against the
/// fully-summed rows `k0..kend` (forming `U12`), then subtract
/// `L21 · U12` from rows `kend..` through the packed microkernel.
fn lu_trailing_chunk(
    cols: &mut [f64],
    f: usize,
    k0: usize,
    kend: usize,
    panel: &[f64],
    ap: &gemm::APack<'_>,
) {
    let nc = cols.len() / f;
    solve_u12_rec(cols, f, k0, kend, panel);
    let mut bp = Vec::new();
    gemm::pack_b(&mut bp, &cols[k0..], f, kend - k0, nc);
    gemm::gemm_sub_packed(ap, &bp, nc, &mut cols[kend..], f);
}

/// Width at which the recursive triangular solves fall back to the
/// per-column `axpy_sub` loop (the solve is L1-resident at this size).
const TRSM_BASE: usize = 16;

/// In-place unit-lower-triangular solve forming `U12`: applies
/// `L(k0..kend, k0..kend)⁻¹` to rows `k0..kend` of every column in
/// `cols` (L read from `panel`). Recursive: the top half solves, one
/// packed GEMM pushes it into the bottom-half rows, the bottom half
/// solves — so the O(nc·kb²) solve flops run through the microkernels
/// instead of column-at-a-time `axpy_sub`. Contributions still land in
/// ascending-`k` order per element; only the rounding granularity of
/// the accumulation changes (axpy two-op steps vs one fused GEMM
/// chain), which the blocked-vs-unblocked tolerance tests cover.
fn solve_u12_rec(cols: &mut [f64], f: usize, k0: usize, kend: usize, panel: &[f64]) {
    let kb = kend - k0;
    if kb <= TRSM_BASE {
        for colj in cols.chunks_exact_mut(f) {
            for k in k0..kend {
                let ukj = colj[k];
                if ukj == 0.0 {
                    continue;
                }
                let base = k * f + k + 1;
                gemm::axpy_sub(&mut colj[k + 1..kend], &panel[base..base + kend - k - 1], ukj);
            }
        }
        return;
    }
    let h = kb / 2;
    let mid = k0 + h;
    solve_u12_rec(cols, f, k0, mid, panel);
    let nc = cols.len() / f;
    let mut ws = GemmWorkspace::new();
    let ap = gemm::pack_a(&mut ws, &panel[k0 * f + mid..], f, kend - mid, h);
    let mut bp = Vec::new();
    gemm::pack_b(&mut bp, &cols[k0..], f, h, nc);
    gemm::gemm_sub_packed(&ap, &bp, nc, &mut cols[mid..], f);
    solve_u12_rec(cols, f, mid, kend, panel);
}

/// The LDLᵀ mirror analogue of [`solve_u12_rec`]: subtracts
/// `L(k0..kend, k0..kend)_strict · B` from rows `k0..kend` of every
/// column, where the `B` coefficients (`d_k·l_{jk}`) are already final
/// in `bvals` (no feedback, unlike the LU solve — the recursion exists
/// purely to route the triangular flops through the microkernels).
/// `bvals` is `kb_tot × nc` column-major with rows indexed by
/// `k - gk0`.
#[allow(clippy::too_many_arguments)]
fn ldlt_mirror_rec(
    cols: &mut [f64],
    f: usize,
    k0: usize,
    kend: usize,
    panel: &[f64],
    bvals: &[f64],
    kb_tot: usize,
    gk0: usize,
) {
    let kb = kend - k0;
    if kb <= TRSM_BASE {
        for (jl, colj) in cols.chunks_exact_mut(f).enumerate() {
            for k in k0..kend {
                let ljk_d = bvals[jl * kb_tot + (k - gk0)];
                if ljk_d == 0.0 {
                    continue;
                }
                let base = k * f + k + 1;
                gemm::axpy_sub(&mut colj[k + 1..kend], &panel[base..base + kend - k - 1], ljk_d);
            }
        }
        return;
    }
    let h = kb / 2;
    let mid = k0 + h;
    ldlt_mirror_rec(cols, f, k0, mid, panel, bvals, kb_tot, gk0);
    let nc = cols.len() / f;
    let mut ws = GemmWorkspace::new();
    let ap = gemm::pack_a(&mut ws, &panel[k0 * f + mid..], f, kend - mid, h);
    let mut bp = Vec::new();
    gemm::pack_b(&mut bp, &bvals[k0 - gk0..], kb_tot, h, nc);
    gemm::gemm_sub_packed(&ap, &bp, nc, &mut cols[mid..], f);
    ldlt_mirror_rec(cols, f, mid, kend, panel, bvals, kb_tot, gk0);
}

/// One chunk of the LDLᵀ trailing update: for every column `j`
/// (`global_j0 + local`), form the scaled row `B(k,j) = d_k·l_{jk}`,
/// apply the mirror update to the fully-summed rows `k+1..kend`, then
/// subtract `L21 · B` from rows `kend..` through the packed microkernel.
#[allow(clippy::too_many_arguments)]
fn ldlt_trailing_chunk(
    cols: &mut [f64],
    global_j0: usize,
    f: usize,
    k0: usize,
    kend: usize,
    panel: &[f64],
    ap: &gemm::APack<'_>,
    d: &[f64],
) {
    let kb = kend - k0;
    let nc = cols.len() / f;
    // The scaled rows depend only on the (finished) panel and `d`, so
    // they can be formed up front and the mirror update deferred to the
    // recursive GEMM-rich sweep.
    let mut bvals = vec![0.0; kb * nc];
    for jl in 0..nc {
        let gj = global_j0 + jl;
        for k in k0..kend {
            bvals[jl * kb + (k - k0)] = panel[k * f + gj] * d[k - k0];
        }
    }
    ldlt_mirror_rec(cols, f, k0, kend, panel, &bvals, kb, k0);
    let mut bp = Vec::new();
    gemm::pack_b(&mut bp, &bvals, kb, kb, nc);
    gemm::gemm_sub_packed(ap, &bp, nc, &mut cols[kend..], f);
}

/// Runs `chunk_fn` over the trailing columns, either as one sequential
/// chunk or as fixed-width chunks fanned out over up to `threads` rayon
/// workers. Chunks write disjoint whole columns and read only the shared
/// packed panel, so there is **no cross-thread reduction to order**: the
/// per-element accumulation order is pinned inside the microkernel
/// (ascending `k`), and the output is bit-identical for every thread
/// count and chunk partition.
fn dispatch_trailing(
    trailing: &mut [f64],
    f: usize,
    threads: usize,
    chunk_fn: impl Fn(usize, &mut [f64]) + Sync,
) {
    let ncols = trailing.len() / f;
    if threads <= 1 || ncols < PAR_MIN_COLS {
        chunk_fn(0, trailing);
        return;
    }
    let chunks: Vec<(usize, &mut [f64])> = trailing
        .chunks_mut(f * PAR_COL_CHUNK)
        .enumerate()
        .map(|(i, c)| (i * PAR_COL_CHUNK, c))
        .collect();
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
    pool.install(|| {
        chunks.into_par_iter().for_each(|(c0, cols)| chunk_fn(c0, cols));
    });
}

/// Width at which the recursive panel factorization stops splitting and
/// runs the rank-1 column loop directly. At or below this width the
/// sub-panel is cache-resident and a GEMM call cannot pay for its
/// packing; above it the right half of each split is updated through the
/// packed microkernels instead of `axpy_sub`.
const PANEL_BASE: usize = 8;

/// Rank-1 panel LU over columns `k0..k0+kb`: the historical unblocked
/// panel loop — pivot (argmax over rows `k..npiv`, strict `>`), swap
/// across all columns, scale, then `axpy_sub` updates of the remaining
/// panel columns only. The base case of [`panel_lu_rec`] and the
/// reference the `panel` benchmark compares the recursion against.
fn panel_lu_rank1(
    w: &mut DenseMat,
    npiv: usize,
    row_perm: &mut [usize],
    k0: usize,
    kb: usize,
) -> Result<(), KernelError> {
    let f = w.nrows;
    for k in k0..k0 + kb {
        let mut piv_row = k;
        let mut piv_val = w.get(k, k).abs();
        for i in k + 1..npiv {
            let v = w.get(i, k).abs();
            if v > piv_val {
                piv_val = v;
                piv_row = i;
            }
        }
        if piv_val < 1e-300 {
            return Err(KernelError::TinyPivot { step: k, value: w.get(piv_row, k) });
        }
        if piv_row != k {
            w.swap_rows(k, piv_row);
            row_perm.swap(k, piv_row);
        }
        let inv = 1.0 / w.get(k, k);
        for i in k + 1..f {
            *w.get_mut(i, k) *= inv;
        }
        // Update only the remaining sub-panel columns now.
        let (head, tail) = w.data.split_at_mut((k + 1) * f);
        let lcol = &head[k * f + k + 1..];
        for colj in tail.chunks_exact_mut(f).take(k0 + kb - k - 1) {
            let ukj = colj[k];
            if ukj == 0.0 {
                continue;
            }
            gemm::axpy_sub(&mut colj[k + 1..], lcol, ukj);
        }
    }
    Ok(())
}

/// Recursive panel LU over columns `k0..k0+kb`: split the panel in
/// halves, factor the left half, apply the left half to the right half
/// (triangular solve on the fully-summed panel rows + packed-GEMM update
/// of the rows below — exactly [`lu_trailing_chunk`] restricted to the
/// right-half columns), then recurse into the right half. The pivot rule
/// is unchanged (argmax over rows `k..npiv`, strict `>`), so pivot
/// choices match the rank-1 panel; at widths `<= PANEL_BASE` (hence at
/// `nb = 1`) the code path *is* the rank-1 loop.
fn panel_lu_rec(
    w: &mut DenseMat,
    npiv: usize,
    row_perm: &mut [usize],
    k0: usize,
    kb: usize,
    ws: &mut GemmWorkspace,
) -> Result<(), KernelError> {
    let f = w.nrows;
    if kb <= PANEL_BASE {
        return panel_lu_rank1(w, npiv, row_perm, k0, kb);
    }
    let h = kb / 2;
    panel_lu_rec(w, npiv, row_perm, k0, h, ws)?;
    let mid = k0 + h;
    {
        let (panel, rest) = w.data.split_at_mut(mid * f);
        let cols = &mut rest[..(kb - h) * f];
        let ap = gemm::pack_a(ws, &panel[k0 * f + mid..], f, f - mid, h);
        lu_trailing_chunk(cols, f, k0, mid, panel, &ap);
    }
    panel_lu_rec(w, npiv, row_perm, mid, kb - h, ws)
}

/// Recursive panel LDLᵀ over columns `k0..k0+kb` (all rows, both
/// triangles kept current — the discipline of the unblocked kernel).
/// Same halving scheme as [`panel_lu_rec`], with the right-half update
/// delegated to [`ldlt_trailing_chunk`].
fn panel_ldlt_rec(
    w: &mut DenseMat,
    k0: usize,
    kb: usize,
    ws: &mut GemmWorkspace,
) -> Result<(), KernelError> {
    let f = w.nrows;
    if kb <= PANEL_BASE {
        for k in k0..k0 + kb {
            let d = w.get(k, k);
            if d.abs() < 1e-300 {
                return Err(KernelError::TinyPivot { step: k, value: d });
            }
            let inv = 1.0 / d;
            for i in k + 1..f {
                *w.get_mut(i, k) *= inv;
            }
            let (head, tail) = w.data.split_at_mut((k + 1) * f);
            let lcol = &head[k * f + k + 1..];
            for (jt, colj) in tail.chunks_exact_mut(f).take(k0 + kb - k - 1).enumerate() {
                let ljk_d = lcol[jt] * d;
                if ljk_d == 0.0 {
                    continue;
                }
                gemm::axpy_sub(&mut colj[k + 1..], lcol, ljk_d);
            }
        }
        return Ok(());
    }
    let h = kb / 2;
    panel_ldlt_rec(w, k0, h, ws)?;
    let mid = k0 + h;
    let dvals: Vec<f64> = (k0..mid).map(|k| w.data[k * f + k]).collect();
    {
        let (panel, rest) = w.data.split_at_mut(mid * f);
        let cols = &mut rest[..(kb - h) * f];
        let ap = gemm::pack_a(ws, &panel[k0 * f + mid..], f, f - mid, h);
        ldlt_trailing_chunk(cols, mid, f, k0, mid, panel, &ap, &dvals);
    }
    panel_ldlt_rec(w, mid, kb - h, ws)
}

/// Cache-blocked variant of [`partial_lu`]: identical result (same pivot
/// choices), computed by panels of `nb` columns with a packed-GEMM
/// trailing update — the textbook BLAS-3 restructuring over the
/// [`crate::gemm`] microkernels. The trailing update of each panel is
/// fanned out across up to `threads` rayon workers (within-front
/// parallelism — the "malleable task" axis). Output bytes are identical
/// for every `threads` value: the panel factorization is sequential, and
/// the parallel trailing sweep partitions columns disjointly with a
/// pinned per-element accumulation order (see [`crate::gemm`]).
pub fn partial_lu_blocked_mt(
    w: &mut DenseMat,
    npiv: usize,
    nb: usize,
    row_perm: &mut Vec<usize>,
    threads: usize,
) -> Result<(), KernelError> {
    let f = w.nrows();
    assert_eq!(f, w.ncols(), "frontal matrices are square");
    assert!(npiv <= f);
    let nb = nb.max(1);
    row_perm.clear();
    row_perm.extend(0..f);
    let mut ws = GemmWorkspace::new();
    let mut k0 = 0;
    while k0 < npiv {
        let kb = nb.min(npiv - k0);
        // ---- Panel factorization (recursive, GEMM-rich) on columns
        // k0..k0+kb. ----
        panel_lu_rec(w, npiv, row_perm, k0, kb, &mut ws)?;
        let kend = k0 + kb;
        // ---- Columns right of the panel: the triangular U12 solve
        // (rows k0..kend) followed by the GEMM update of rows kend..f,
        // `W22 -= L21 · U12`, through the packed microkernels. L21 is
        // packed once per panel and read-shared by every chunk. ----
        if kend < f {
            let (panel, trailing) = w.data.split_at_mut(kend * f);
            let ap = gemm::pack_a(&mut ws, &panel[k0 * f + kend..], f, f - kend, kb);
            dispatch_trailing(trailing, f, threads, |_, cols| {
                lu_trailing_chunk(cols, f, k0, kend, panel, &ap);
            });
        }
        k0 = kend;
    }
    Ok(())
}

/// [`partial_lu_blocked_mt`] with the *rank-1* panel of the pre-recursive
/// kernel: identical pivot rule and trailing update, but the panel
/// columns advance by `axpy_sub` alone. Kept as the reference the
/// `panel` benchmark and the recursive-panel tests compare against —
/// the drivers never call it.
pub fn partial_lu_blocked_rank1_panel(
    w: &mut DenseMat,
    npiv: usize,
    nb: usize,
    row_perm: &mut Vec<usize>,
) -> Result<(), KernelError> {
    let f = w.nrows();
    assert_eq!(f, w.ncols(), "frontal matrices are square");
    assert!(npiv <= f);
    let nb = nb.max(1);
    row_perm.clear();
    row_perm.extend(0..f);
    let mut ws = GemmWorkspace::new();
    let mut k0 = 0;
    while k0 < npiv {
        let kb = nb.min(npiv - k0);
        panel_lu_rank1(w, npiv, row_perm, k0, kb)?;
        let kend = k0 + kb;
        if kend < f {
            let (panel, trailing) = w.data.split_at_mut(kend * f);
            let ap = gemm::pack_a(&mut ws, &panel[k0 * f + kend..], f, f - kend, kb);
            dispatch_trailing(trailing, f, 1, |_, cols| {
                lu_trailing_chunk(cols, f, k0, kend, panel, &ap);
            });
        }
        k0 = kend;
    }
    Ok(())
}

/// Partial LDLᵀ of the leading `npiv` columns of a symmetric front stored
/// *fully* (both triangles) in `w`; no pivoting (1x1 diagonal pivots),
/// suitable for the diagonally dominant symmetric problems here.
///
/// On return, columns `0..npiv` hold `L` below the diagonal, `D` on it;
/// the trailing block holds the symmetric Schur complement.
pub fn partial_ldlt(w: &mut DenseMat, npiv: usize) -> Result<(), KernelError> {
    let f = w.nrows();
    assert_eq!(f, w.ncols());
    assert!(npiv <= f);
    for k in 0..npiv {
        let d = w.get(k, k);
        if d.abs() < 1e-300 {
            return Err(KernelError::TinyPivot { step: k, value: d });
        }
        let inv = 1.0 / d;
        for i in k + 1..f {
            *w.get_mut(i, k) *= inv;
        }
        // Rank-1 update over *full* trailing columns (rows k+1..f), which
        // keeps both triangles current directly — no separate mirror pass.
        // The lower triangle and diagonal see the exact subtraction
        // sequence of a lower-only update, so the factor and the lower
        // Schur triangle are unchanged; upper entries are now computed by
        // the symmetric formula instead of copied.
        let (head, tail) = w.data.split_at_mut((k + 1) * f);
        let lcol = &head[k * f + k + 1..];
        for (jt, colj) in tail.chunks_exact_mut(f).enumerate() {
            let ljk_d = lcol[jt] * d; // l_jk * d_k
            if ljk_d == 0.0 {
                continue;
            }
            gemm::axpy_sub(&mut colj[k + 1..], lcol, ljk_d);
        }
    }
    Ok(())
}

/// Cache-blocked variant of [`partial_ldlt`]: same (unpivoted) pivot
/// sequence, computed by panels of `nb` columns. Panel columns keep the
/// rank-1 form (all rows); trailing columns receive the fully-summed-row
/// mirror updates per column and a deferred `W22 -= L21 · (D·L21ᵀ)`
/// through the packed microkernels. Values differ from the rank-1 kernel
/// only by summation order. The trailing update of each panel is fanned
/// out across up to `threads` rayon workers, with bit-identical output
/// for every `threads` value by the same argument as
/// [`partial_lu_blocked_mt`]: columns are partitioned disjointly and the
/// per-element accumulation order is pinned.
pub fn partial_ldlt_blocked_mt(
    w: &mut DenseMat,
    npiv: usize,
    nb: usize,
    threads: usize,
) -> Result<(), KernelError> {
    let f = w.nrows();
    assert_eq!(f, w.ncols());
    assert!(npiv <= f);
    let nb = nb.max(1);
    let mut ws = GemmWorkspace::new();
    let mut k0 = 0;
    while k0 < npiv {
        let kb = nb.min(npiv - k0);
        let kend = k0 + kb;
        // ---- Panel factorization (recursive, GEMM-rich) over the panel
        // columns only — all rows, both triangles current, same pivot
        // sequence as the unblocked kernel restricted to these columns. ----
        panel_ldlt_rec(w, k0, kb, &mut ws)?;
        // ---- Trailing columns: scaled rows `B(k,j) = d_k·l_jk` come
        // from the factored panel (the diagonal keeps `d_k`; scaling
        // touches only rows below it), mirror rows k+1..kend per column,
        // GEMM for rows kend..f. ----
        if kend < f {
            let dvals: Vec<f64> = (k0..kend).map(|k| w.data[k * f + k]).collect();
            let (panel, trailing) = w.data.split_at_mut(kend * f);
            let ap = gemm::pack_a(&mut ws, &panel[k0 * f + kend..], f, f - kend, kb);
            dispatch_trailing(trailing, f, threads, |c0, cols| {
                ldlt_trailing_chunk(cols, kend + c0, f, k0, kend, panel, &ap, &dvals);
            });
        }
        k0 = kend;
    }
    Ok(())
}

/// Production entry point of the numeric drivers: picks the blocked
/// kernel for pivot blocks large enough to benefit, the rank-1 kernel
/// otherwise. Both compute the same factorization (identical pivot
/// choices; floating-point results differ only by summation order).
/// The threshold follows the `numeric/kernel` benchmarks: below it the
/// rank-1 kernel wins on this workload's cache-resident fronts.
///
/// `threads` is the within-front thread budget. The kernel choice
/// depends **only** on `npiv` — never on `threads` — so a different
/// cores-per-front setting can never change which arithmetic runs, and
/// the factors stay bit-identical across budgets.
pub fn factor_front_lu_mt(
    w: &mut DenseMat,
    npiv: usize,
    row_perm: &mut Vec<usize>,
    threads: usize,
) -> Result<(), KernelError> {
    if npiv >= BLOCK_THRESHOLD {
        partial_lu_blocked_mt(w, npiv, FRONT_NB, row_perm, threads)
    } else {
        partial_lu(w, npiv, row_perm)
    }
}

/// Symmetric analogue of [`factor_front_lu_mt`]: blocked LDLᵀ for large
/// pivot blocks, rank-1 otherwise, with the same `npiv`-only dispatch
/// rule.
pub fn factor_front_ldlt_mt(
    w: &mut DenseMat,
    npiv: usize,
    threads: usize,
) -> Result<(), KernelError> {
    if npiv >= BLOCK_THRESHOLD {
        partial_ldlt_blocked_mt(w, npiv, FRONT_NB, threads)
    } else {
        partial_ldlt(w, npiv)
    }
}

/// Pivot-block size above which the numeric drivers switch from the
/// rank-1 kernels to the packed-GEMM blocked kernels. Set from the
/// `numeric/kernel` benchmarks; with the packed microkernels the
/// crossover sits far below the old axpy-based value of 512.
const BLOCK_THRESHOLD: usize = 128;
/// Panel width used by the drivers' blocked kernels. With the recursive
/// panel and triangular solves the panel is no longer axpy-bound, so the
/// width is set by the trailing update alone: a wide panel (large GEMM
/// inner dimension `kc`) amortizes the compulsory C read+write traffic
/// over more flops. 128 wins across front sizes 256–1024 in the
/// `perf_baseline` nb sweep; public so the harness benchmarks the
/// production configuration.
pub const FRONT_NB: usize = 128;

/// Full dense LU solve used as a test oracle: solves `A x = b` with
/// partial pivoting over all rows. Returns `None` for singular input.
#[cfg(test)]
pub(crate) fn dense_solve(a: &DenseMat, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    assert_eq!(b.len(), n);
    let mut w = a.clone();
    let mut x = b.to_vec();
    for k in 0..n {
        let (mut pr, mut pv) = (k, w.get(k, k).abs());
        for i in k + 1..n {
            let v = w.get(i, k).abs();
            if v > pv {
                pv = v;
                pr = i;
            }
        }
        if pv < 1e-300 {
            return None;
        }
        if pr != k {
            w.swap_rows(k, pr);
            x.swap(k, pr);
        }
        let inv = 1.0 / w.get(k, k);
        for i in k + 1..n {
            let l = w.get(i, k) * inv;
            if l == 0.0 {
                continue;
            }
            *w.get_mut(i, k) = l;
            for j in k + 1..n {
                let ukj = w.get(k, j);
                *w.get_mut(i, j) -= l * ukj;
            }
            x[i] -= l * x[k];
        }
    }
    for k in (0..n).rev() {
        let mut s = x[k];
        for j in k + 1..n {
            s -= w.get(k, j) * x[j];
        }
        x[k] = s / w.get(k, k);
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front_from(rows: &[&[f64]]) -> DenseMat {
        let n = rows.len();
        let mut w = DenseMat::zeros(n, n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                *w.get_mut(i, j) = v;
            }
        }
        w
    }

    #[test]
    fn full_lu_matches_dense_solve() {
        let a = front_from(&[&[4.0, 1.0, 0.0], &[1.0, 5.0, 2.0], &[0.0, 2.0, 6.0]]);
        let mut w = a.clone();
        let mut perm = Vec::new();
        partial_lu(&mut w, 3, &mut perm).unwrap();
        // Solve via the factors and compare with the oracle.
        let b = vec![1.0, 2.0, 3.0];
        let xo = dense_solve(&a, &b).unwrap();
        // forward/backward with perm
        let mut y = [0.0; 3];
        for (k, &p) in perm.iter().enumerate() {
            y[k] = b[p];
        }
        for k in 0..3 {
            for i in k + 1..3 {
                y[i] -= w.get(i, k) * y[k];
            }
        }
        for k in (0..3).rev() {
            for j in k + 1..3 {
                y[k] -= w.get(k, j) * y[j];
            }
            y[k] /= w.get(k, k);
        }
        for i in 0..3 {
            assert!((y[i] - xo[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_lu_schur_complement_is_correct() {
        // A = [A11 A12; A21 A22], npiv = 2; Schur = A22 - A21 A11^-1 A12.
        let a = front_from(&[
            &[4.0, 1.0, 2.0, 0.5],
            &[1.0, 5.0, 0.0, 1.0],
            &[2.0, 0.0, 6.0, 1.5],
            &[0.5, 1.0, 1.5, 7.0],
        ]);
        let mut w = a.clone();
        let mut perm = Vec::new();
        partial_lu(&mut w, 2, &mut perm).unwrap();
        // Compute the Schur complement with the oracle: solve A11 X = A12.
        let a11 = front_from(&[&[4.0, 1.0], &[1.0, 5.0]]);
        let x1 = dense_solve(&a11, &[2.0, 0.0]).unwrap();
        let x2 = dense_solve(&a11, &[0.5, 1.0]).unwrap();
        let a21 = [[2.0, 0.0], [0.5, 1.0]];
        let a22 = [[6.0, 1.5], [1.5, 7.0]];
        for i in 0..2 {
            for j in 0..2 {
                let xj = if j == 0 { &x1 } else { &x2 };
                let expect = a22[i][j] - (a21[i][0] * xj[0] + a21[i][1] * xj[1]);
                let got = w.get(2 + i, 2 + j);
                assert!((got - expect).abs() < 1e-12, "({i},{j}): {got} vs {expect}");
            }
        }
    }

    #[test]
    fn partial_lu_pivots_within_block() {
        // Needs a row swap inside the fully-summed block.
        let a = front_from(&[&[0.0, 1.0, 1.0], &[2.0, 1.0, 0.0], &[1.0, 0.0, 3.0]]);
        let mut w = a.clone();
        let mut perm = Vec::new();
        partial_lu(&mut w, 2, &mut perm).unwrap();
        assert_eq!(&perm[..2], &[1, 0]);
    }

    #[test]
    fn singular_pivot_block_is_reported() {
        let a = front_from(&[&[0.0, 0.0], &[0.0, 1.0]]);
        let mut w = a.clone();
        let mut perm = Vec::new();
        assert!(matches!(partial_lu(&mut w, 1, &mut perm), Err(KernelError::TinyPivot { .. })));
    }

    #[test]
    fn ldlt_schur_matches_lu_schur_for_symmetric_input() {
        let a = front_from(&[
            &[4.0, 1.0, 2.0, 0.5],
            &[1.0, 5.0, 0.0, 1.0],
            &[2.0, 0.0, 6.0, 1.5],
            &[0.5, 1.0, 1.5, 7.0],
        ]);
        let mut wl = a.clone();
        let mut perm = Vec::new();
        partial_lu(&mut wl, 2, &mut perm).unwrap();
        let mut ws = a.clone();
        partial_ldlt(&mut ws, 2).unwrap();
        for i in 2..4 {
            for j in 2..=i {
                assert!((wl.get(i, j) - ws.get(i, j)).abs() < 1e-12, "Schur mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn ldlt_reconstructs_matrix() {
        let a = front_from(&[&[4.0, 1.0, 2.0], &[1.0, 5.0, 0.5], &[2.0, 0.5, 6.0]]);
        let mut w = a.clone();
        partial_ldlt(&mut w, 3).unwrap();
        // Rebuild A = L D L^T from the packed result.
        let mut l = DenseMat::zeros(3, 3);
        let mut d = [0.0; 3];
        for k in 0..3 {
            d[k] = w.get(k, k);
            *l.get_mut(k, k) = 1.0;
            for i in k + 1..3 {
                *l.get_mut(i, k) = w.get(i, k);
            }
        }
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l.get(i, k) * d[k] * l.get(j, k);
                }
                assert!((s - a.get(i, j)).abs() < 1e-12, "({i},{j})");
            }
        }
    }

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

    #[test]
    fn blocked_lu_matches_unblocked() {
        for (f, p, nb) in [(7, 4, 2), (20, 20, 8), (33, 17, 8), (64, 50, 16), (65, 65, 32)] {
            let a = random_front(f, (f * 31 + p) as u64);
            let mut w1 = a.clone();
            let mut w2 = a.clone();
            let (mut p1, mut p2) = (Vec::new(), Vec::new());
            partial_lu(&mut w1, p, &mut p1).unwrap();
            partial_lu_blocked_mt(&mut w2, p, nb, &mut p2, 1).unwrap();
            assert_eq!(p1, p2, "pivot choices must agree (f={f}, p={p})");
            for j in 0..f {
                for i in 0..f {
                    let (x, y) = (w1.get(i, j), w2.get(i, j));
                    assert!(
                        (x - y).abs() <= 1e-10 * (1.0 + x.abs()),
                        "(f={f},p={p}) mismatch at ({i},{j}): {x} vs {y}"
                    );
                }
            }
        }
    }

    fn random_sym_front(f: usize, seed: u64) -> DenseMat {
        let mut w = random_front(f, seed);
        for j in 0..f {
            for i in 0..j {
                let v = w.get(j, i);
                *w.get_mut(i, j) = v;
            }
        }
        w
    }

    #[test]
    fn blocked_ldlt_matches_unblocked() {
        for (f, p, nb) in [(7, 4, 2), (20, 20, 8), (33, 17, 8), (64, 50, 16), (65, 65, 32)] {
            let a = random_sym_front(f, (f * 17 + p) as u64);
            let mut w1 = a.clone();
            let mut w2 = a.clone();
            partial_ldlt(&mut w1, p).unwrap();
            partial_ldlt_blocked_mt(&mut w2, p, nb, 1).unwrap();
            for j in 0..f {
                for i in 0..f {
                    let (x, y) = (w1.get(i, j), w2.get(i, j));
                    assert!(
                        (x - y).abs() <= 1e-10 * (1.0 + x.abs()),
                        "(f={f},p={p}) mismatch at ({i},{j}): {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn mt_trailing_update_is_bit_identical() {
        // Large enough that the first panels' trailing sweeps exceed
        // PAR_MIN_COLS and actually take the chunked path.
        let a = random_front(160, 7);
        for threads in [2, 4, 8] {
            let mut w1 = a.clone();
            let mut w2 = a.clone();
            let (mut p1, mut p2) = (Vec::new(), Vec::new());
            partial_lu_blocked_mt(&mut w1, 96, 32, &mut p1, 1).unwrap();
            partial_lu_blocked_mt(&mut w2, 96, 32, &mut p2, threads).unwrap();
            assert_eq!(p1, p2, "pivots (threads={threads})");
            for (x, y) in w1.data.iter().zip(&w2.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "LU bits differ (threads={threads})");
            }
        }
        let s = random_sym_front(160, 11);
        for threads in [2, 8] {
            let mut w1 = s.clone();
            let mut w2 = s.clone();
            partial_ldlt_blocked_mt(&mut w1, 96, 32, 1).unwrap();
            partial_ldlt_blocked_mt(&mut w2, 96, 32, threads).unwrap();
            for (x, y) in w1.data.iter().zip(&w2.data) {
                assert_eq!(x.to_bits(), y.to_bits(), "LDLT bits differ (threads={threads})");
            }
        }
    }

    #[test]
    fn blocked_lu_detects_singularity_too() {
        let mut w = DenseMat::zeros(4, 4);
        *w.get_mut(0, 0) = 1.0; // rank 1: second pivot is exactly zero
        let mut perm = Vec::new();
        assert!(matches!(
            partial_lu_blocked_mt(&mut w, 2, 2, &mut perm, 1),
            Err(KernelError::TinyPivot { .. })
        ));
    }

    #[test]
    fn factor_front_dispatches_consistently() {
        // Above the threshold the dispatcher takes the blocked path; the
        // pivot choices must match the rank-1 kernel's exactly.
        let a = random_front(540, 99);
        let mut w1 = a.clone();
        let mut w2 = a.clone();
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        factor_front_lu_mt(&mut w1, 520, &mut p1, 1).unwrap(); // blocked path
        partial_lu(&mut w2, 520, &mut p2).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn mul_vec_add_works() {
        let a = front_from(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut y = vec![0.0, 0.0];
        a.mul_vec_add(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }
}
