//! Masked PB-SpGEMM: `C = (A·B) ∘ pattern(M)`.
//!
//! Several of the paper's motivating applications only need the product at a
//! known sparsity pattern — triangle counting keeps `(A·A)` only at the
//! positions of `A`, masked Markov-clustering variants keep the expansion
//! only at surviving positions.  Computing the full product and filtering it
//! afterwards wastes the assemble pass on entries that are about to be
//! dropped, so this module filters the *binned* tuples right after the
//! compress phase: each bin is scanned once while it is still cache-resident
//! and only the surviving entries reach CSR assembly.
//!
//! The mask is a stage of the one PB pipeline, not a pipeline of its own:
//! when [`SpGemm::mask`](crate::SpGemm::mask) hands the pipeline a mask,
//! `apply_mask` runs at the end of the compress phase.  The
//! expand/sort/compress phases are unchanged, so the masked multiply
//! inherits all of PB-SpGEMM's bandwidth behaviour, its profile and its
//! trace spans.

use pb_sparse::{Csr, Scalar};
use rayon::prelude::*;

use crate::bins::{carve, BinnedTuples};

/// Drops from every bin the (already compressed) tuples whose coordinates are
/// not stored in `mask`, compacting each bin in place.
pub(crate) fn apply_mask<V: Scalar, M: Scalar>(tuples: &mut BinnedTuples<V>, mask: &Csr<M>) {
    // Split borrows instead of staging clones: the offsets, live lengths
    // and layout stay readable while the entry buffer is carved into
    // disjoint per-bin mutable slices.
    let BinnedTuples {
        entries,
        bin_offsets: offsets,
        compressed_len,
        layout,
    } = tuples;
    let live: &[usize] = compressed_len;

    // Hand every bin its own mutable segment, as the compress phase does.
    let new_lens: Vec<usize> = carve(entries, offsets)
        .into_par_iter()
        .enumerate()
        .map(|(b, seg)| {
            let mut write = 0usize;
            for read in 0..live[b] {
                let (row, col) = layout.unpack(b, seg[read].key);
                let (mask_cols, _) = mask.row(row as usize);
                if mask_cols.binary_search(&col).is_ok() {
                    seg[write] = seg[read];
                    write += 1;
                }
            }
            write
        })
        .collect();
    compressed_len.clear();
    compressed_len.extend(new_lens);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PbConfig;
    use crate::SpGemm;
    use pb_gen::{erdos_renyi_square, rmat_square};
    use pb_sparse::ops::mask_by_pattern;
    use pb_sparse::reference::{csr_approx_eq, multiply_csr};
    use pb_sparse::semiring::OrAnd;
    use pb_sparse::{Coo, Csc};

    /// Oracle: full product, filtered afterwards.
    fn expected(a: &Csr<f64>, mask: &Csr<f64>) -> Csr<f64> {
        mask_by_pattern(&multiply_csr(a, a), mask)
    }

    /// The engine spelling of a masked PB multiply with these knobs.
    fn masked_pb(a_csc: &Csc<f64>, b: &Csr<f64>, mask: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
        SpGemm::pb()
            .config(cfg.clone())
            .mask(mask)
            .multiply_csc(a_csc, b)
    }

    #[test]
    fn masking_by_the_input_pattern_matches_multiply_then_filter() {
        for seed in [1u64, 7] {
            let a = rmat_square(7, 6, seed);
            let want = expected(&a, &a);
            let got = SpGemm::pb().mask(&a).multiply(&a, &a);
            assert!(csr_approx_eq(&got, &want, 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn all_bin_counts_agree() {
        let a = erdos_renyi_square(7, 5, 3);
        let want = expected(&a, &a);
        for nbins in [1usize, 4, 64] {
            let cfg = PbConfig::default().with_nbins(nbins);
            let got = masked_pb(&a.to_csc(), &a, &a, &cfg);
            assert!(csr_approx_eq(&got, &want, 1e-9), "nbins={nbins}");
        }
    }

    #[test]
    fn empty_mask_gives_empty_output() {
        let a = erdos_renyi_square(6, 4, 5);
        let mask = Csr::<f64>::empty(a.nrows(), a.ncols());
        let got = SpGemm::pb().mask(&mask).multiply(&a, &a);
        assert_eq!(got.nnz(), 0);
        assert_eq!(got.shape(), (a.nrows(), a.ncols()));
    }

    #[test]
    fn mask_covering_the_whole_product_changes_nothing() {
        let a = erdos_renyi_square(6, 4, 9);
        let full = SpGemm::pb().multiply(&a, &a);
        let got = SpGemm::pb().mask(&full).multiply(&a, &a);
        assert!(csr_approx_eq(&got, &full, 1e-12));
    }

    #[test]
    fn boolean_semiring_masked_product() {
        let a = rmat_square(6, 4, 13).map_values(|_| true);
        let got = SpGemm::pb().mask(&a).multiply_with::<OrAnd>(&a, &a);
        let want = mask_by_pattern(
            &pb_sparse::reference::multiply_csr_with::<OrAnd>(&a, &a),
            &a,
        );
        assert_eq!(got.rowptr(), want.rowptr());
        assert_eq!(got.colidx(), want.colidx());
    }

    #[test]
    fn rectangular_masked_product() {
        let a = pb_gen::erdos_renyi(&pb_gen::ErConfig {
            nrows: 40,
            ncols: 24,
            nnz_per_col: 3,
            seed: 2,
            random_values: true,
        });
        let b = pb_gen::erdos_renyi(&pb_gen::ErConfig {
            nrows: 24,
            ncols: 31,
            nnz_per_col: 4,
            seed: 3,
            random_values: true,
        });
        // Mask out everything except a diagonal band of the product.
        let band_entries: Vec<(usize, usize, f64)> = (0..40)
            .flat_map(|i| {
                (0..31)
                    .filter(move |j| (i as i64 - *j as i64).abs() <= 2)
                    .map(move |j| (i, j, 1.0))
            })
            .collect();
        let mask = Coo::from_entries(40, 31, band_entries).unwrap().to_csr();
        let got = SpGemm::pb().mask(&mask).multiply(&a, &b);
        let want = mask_by_pattern(&multiply_csr(&a, &b), &mask);
        assert!(csr_approx_eq(&got, &want, 1e-9));
    }

    #[test]
    #[should_panic(expected = "shape of the product")]
    fn wrong_mask_shape_panics() {
        let a = erdos_renyi_square(5, 3, 1);
        let mask = Csr::<f64>::empty(3, 3);
        let _ = SpGemm::pb().mask(&mask).multiply(&a, &a);
    }
}
