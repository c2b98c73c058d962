//! The seed argument: seed 0 is the catalogue, other seeds are held-out
//! inputs of identical structure.

use mf_sparse::gen::paper::ALL_PAPER_MATRICES;
use perfbench::inputs::{paper_matrix, rhs, synth_tree};

#[test]
fn seed_zero_reproduces_the_catalogue() {
    for m in ALL_PAPER_MATRICES {
        assert_eq!(paper_matrix(m, 0), m.instantiate(), "{}", m.name());
    }
}

#[test]
fn another_seed_moves_every_value_and_keeps_the_structure() {
    for m in ALL_PAPER_MATRICES {
        let (a, b) = (paper_matrix(m, 0), paper_matrix(m, 7));
        assert_eq!(a.col_ptr(), b.col_ptr(), "{}", m.name());
        assert_eq!(a.row_idx(), b.row_idx(), "{}", m.name());
        assert_eq!(a.symmetry(), b.symmetry(), "{}", m.name());
        let moved = a.values().iter().zip(b.values()).filter(|(x, y)| x != y).count();
        assert_eq!(moved, a.nnz(), "{}: every value is redrawn", m.name());
        assert_eq!(b, paper_matrix(m, 7), "{}: same seed, same input", m.name());
        // Still diagonally dominant by columns, so every pivot is safe.
        for j in 0..b.ncols() {
            let (mut diag, mut off) = (0.0f64, 0.0f64);
            for (&i, &v) in b.rows_in_col(j).iter().zip(b.vals_in_col(j)) {
                if i == j {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "{} column {j}: {diag} <= {off}", m.name());
        }
    }
}

#[test]
fn symmetric_instances_stay_symmetric() {
    for m in ALL_PAPER_MATRICES.into_iter().filter(|m| !m.is_unsymmetric()) {
        let b = paper_matrix(m, 3);
        for j in (0..b.ncols()).step_by(97) {
            for (&i, &v) in b.rows_in_col(j).iter().zip(b.vals_in_col(j)) {
                assert_eq!(v, b.get(j, i), "{} ({i}, {j})", m.name());
            }
        }
    }
}

#[test]
fn right_hand_sides_and_the_synthetic_tree_follow_the_seed() {
    assert_eq!(rhs(50, 1, 0), rhs(50, 1, 0));
    assert_ne!(rhs(50, 1, 0), rhs(50, 2, 0));
    assert_ne!(rhs(50, 1, 0), rhs(50, 1, 1));
    let shape =
        |seed| synth_tree(seed).nodes.iter().map(|n| (n.npiv, n.nfront)).collect::<Vec<_>>();
    assert_eq!(shape(4), shape(4));
    assert_ne!(shape(4), shape(5), "the seed moves the synthetic tree's structure");
}
