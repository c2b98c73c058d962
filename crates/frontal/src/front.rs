//! The per-front operation of the multifrontal method, shared by the
//! sequential ([`crate::numeric`]) and tree-parallel ([`crate::parallel`])
//! drivers.
//!
//! One tree node is one step (Section 2 of the paper): assemble the
//! frontal matrix from original entries and the children's contribution
//! blocks, partially factor its fully-summed block, and split it into
//! factors and its own contribution block. The drivers differ only in how
//! they traverse the tree and account memory; every factor byte comes
//! from [`Fronts::factor`], so both drivers produce identical factors.

use crate::dense::{add_assign_slice, factor_front_ldlt_mt, factor_front_lu_mt, DenseMat};
use crate::numeric::{FactorError, FrontFactor};
use mf_sparse::{CscMatrix, Symmetry};
use mf_symbolic::frontstruct::{front_structures, FrontStructures};
use mf_symbolic::{AssemblyTree, SymbolicAnalysis};

/// Everything a front reads besides its children's contribution blocks:
/// the tree, the variable list of every front, and the permuted matrix
/// (plus its transpose for LU, whose pivot rows are read column-wise).
pub(crate) struct Fronts<'a> {
    pub(crate) tree: &'a AssemblyTree,
    fs: FrontStructures,
    pa: CscMatrix,
    pat: Option<CscMatrix>,
}

/// Local position of the global variable `gv` in the ascending list
/// `vars`, scanning forward from `*at`. Successive queries through one
/// cursor must ascend, so the lookups of a whole sorted index list are a
/// single merge with `vars`.
fn seek(vars: &[usize], at: &mut usize, gv: usize) -> usize {
    while vars[*at] < gv {
        *at += 1;
    }
    debug_assert_eq!(vars[*at], gv, "variable {gv} not in the front");
    *at
}

impl<'a> Fronts<'a> {
    /// Prepares the fronts of the analysis `s` of `a`.
    pub(crate) fn new(a: &CscMatrix, s: &'a SymbolicAnalysis) -> Result<Self, FactorError> {
        if a.nrows() != a.ncols() {
            return Err(FactorError::NotSquare);
        }
        let pa = a.permute_symmetric(&s.perm);
        let pat = (s.tree.sym == Symmetry::General).then(|| pa.transpose());
        Ok(Fronts { tree: &s.tree, fs: front_structures(s), pa, pat })
    }

    /// Assembles, partially factors and splits front `v`. Returns its
    /// factors and its contribution block (column-major over the CB
    /// variables of `v`; empty when `v` has none).
    ///
    /// `child_cbs` holds the children's contribution blocks in *reverse*
    /// child order, the order a LIFO stack releases them. That order fixes
    /// the floating-point summation of the extend-add, so it is the same
    /// for every driver. `threads` is the within-front thread budget of
    /// the kernel, which never changes the factor bytes.
    pub(crate) fn factor(
        &self,
        v: usize,
        child_cbs: Vec<Vec<f64>>,
        threads: usize,
    ) -> Result<(FrontFactor, Vec<f64>), FactorError> {
        let tree = self.tree;
        let nd = &tree.nodes[v];
        let vars = &self.fs.rows[v];
        let (f, p) = (vars.len(), nd.npiv);
        let mut w = DenseMat::zeros(f, f);

        // ---- Assemble original-matrix entries. ----
        // A chain head assembles the entries of the *whole* original front
        // (its tail links' pivot columns included, at local positions
        // 0..span); tail links assemble nothing — they continue on the
        // Schur complement.
        let span = if tree.is_chain_tail(v) { 0 } else { tree.chain_npiv(v) };
        let pivots = nd.first_col..nd.first_col + span;
        match tree.sym {
            Symmetry::Symmetric => {
                for (lc, c) in pivots.enumerate() {
                    let mut at = lc;
                    for (&i, &val) in self.pa.rows_in_col(c).iter().zip(self.pa.vals_in_col(c)) {
                        if i < c {
                            continue; // mirrored from the earlier pivot column
                        }
                        let li = seek(vars, &mut at, i);
                        w.add(li, lc, val);
                        if li != lc {
                            w.add(lc, li, val);
                        }
                    }
                }
            }
            Symmetry::General => {
                let pat = self.pat.as_ref().expect("LU fronts read the transpose");
                for (lc, c) in pivots.enumerate() {
                    // Column part: rows at or below this front's pivots.
                    let mut at = 0;
                    for (&i, &val) in self.pa.rows_in_col(c).iter().zip(self.pa.vals_in_col(c)) {
                        if i >= nd.first_col {
                            w.add(seek(vars, &mut at, i), lc, val);
                        }
                    }
                    // Row part: columns strictly in the CB variable range.
                    let mut at = span;
                    for (&j, &val) in pat.rows_in_col(c).iter().zip(pat.vals_in_col(c)) {
                        if j >= nd.first_col + span {
                            w.add(lc, seek(vars, &mut at, j), val);
                        }
                    }
                }
            }
        }

        // ---- Extend-add the children. ----
        debug_assert_eq!(child_cbs.len(), nd.children.len());
        for (&ch, cb) in nd.children.iter().rev().zip(child_cbs) {
            let cb_vars = self.fs.cb_rows(tree, ch);
            let cf = cb_vars.len();
            debug_assert_eq!(cb.len(), cf * cf);
            // Start the merge at the first CB variable: a parent with many
            // children then pays O(cf), not O(f), per child.
            let mut at = cb_vars.first().map_or(0, |&g| vars.partition_point(|&x| x < g));
            let locs: Vec<usize> = cb_vars.iter().map(|&gv| seek(vars, &mut at, gv)).collect();
            // When the CB variables land on consecutive parent rows (the
            // common case for the last child absorbed into an amalgamated
            // parent), each CB column is one contiguous slice-add;
            // otherwise fall back to the indexed scatter. The choice is
            // structural, so it cannot vary across runs of the same tree.
            let contiguous = cf > 0 && locs[cf - 1] - locs[0] == cf - 1;
            for (cj, &lj) in locs.iter().enumerate() {
                let col = &cb[cj * cf..(cj + 1) * cf];
                if contiguous {
                    add_assign_slice(&mut w.col_mut(lj)[locs[0]..locs[0] + cf], col);
                } else {
                    for (&li, &x) in locs.iter().zip(col) {
                        if x != 0.0 {
                            w.add(li, lj, x);
                        }
                    }
                }
            }
        }

        // ---- Partial factorization. ----
        let mut row_perm = Vec::new();
        match tree.sym {
            Symmetry::General => factor_front_lu_mt(&mut w, p, &mut row_perm, threads),
            Symmetry::Symmetric => {
                factor_front_ldlt_mt(&mut w, p, threads).map(|()| row_perm.extend(0..p))
            }
        }
        .map_err(|source| FactorError::Kernel { node: v, source })?;
        row_perm.truncate(p);

        // ---- Split into factor blocks and the contribution block. ----
        let cf = f - p;
        let mut block11 = DenseMat::zeros(p, p);
        let mut l21 = DenseMat::zeros(cf, p);
        for k in 0..p {
            let (top, bottom) = w.col(k).split_at(p);
            block11.col_mut(k).copy_from_slice(top);
            l21.col_mut(k).copy_from_slice(bottom);
        }
        let (u12, d) = match tree.sym {
            Symmetry::General => {
                let mut u12 = DenseMat::zeros(p, cf);
                for j in 0..cf {
                    u12.col_mut(j).copy_from_slice(&w.col(p + j)[..p]);
                }
                (u12, Vec::new())
            }
            Symmetry::Symmetric => (DenseMat::zeros(0, 0), (0..p).map(|k| w.get(k, k)).collect()),
        };
        let mut cb = Vec::with_capacity(cf * cf);
        for j in p..f {
            cb.extend_from_slice(&w.col(j)[p..]);
        }

        let factor = FrontFactor { vars: vars.clone(), npiv: p, row_perm, block11, l21, u12, d };
        Ok((factor, cb))
    }
}
