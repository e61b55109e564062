//! Symbolic phase (Algorithm 3 of the paper).
//!
//! The symbolic phase streams only the offset arrays of `A` (CSC) and `B`
//! (CSR) to compute the multiplication's flop count, derives the number of
//! propagation bins from it, and — one refinement over the paper's
//! pseudo-code — counts the flop landing in *each* bin so that the expand
//! phase can reserve exactly-sized, contention-free segments of the global
//! tuple buffer.

use pb_sparse::{Csc, Csr, Scalar};
use rayon::prelude::*;

use crate::bins::BinLayout;
use crate::config::PbConfig;

/// Result of the symbolic phase.
#[derive(Debug, Clone)]
pub struct Symbolic {
    /// Total number of multiplications (`nnz(Ĉ)`).
    pub flop: u64,
    /// Number of expanded tuples landing in each bin.
    pub bin_flop: Vec<u64>,
    /// Prefix-sum of `bin_flop`, i.e. the segment offsets of every bin in
    /// the global tuple buffer (`nbins + 1` entries).
    pub bin_offsets: Vec<usize>,
    /// Bin geometry derived from the flop count and the configuration.
    pub layout: BinLayout,
}

impl Symbolic {
    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.layout.nbins
    }
}

/// Runs the symbolic phase for `C = A·B` with `A` in CSC and `B` in CSR.
///
/// `tuple_bytes` is the size of one expanded tuple in memory (used to size
/// bins against the L2 capacity, exactly as the paper's
/// `nbins = flop / L2_CACHE_SIZE` rule).
pub fn symbolic<T: Scalar, U: Scalar>(
    a: &Csc<T>,
    b: &Csr<U>,
    config: &PbConfig,
    tuple_bytes: usize,
) -> Symbolic {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "PB-SpGEMM shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let k = a.ncols();
    let a_colptr = a.colptr();
    let b_rowptr = b.rowptr();

    // --- Total flop: one streaming pass over the two offset arrays. -------
    let flop: u64 = (0..k)
        .into_par_iter()
        .map(|i| {
            let na = (a_colptr[i + 1] - a_colptr[i]) as u64;
            let nb = (b_rowptr[i + 1] - b_rowptr[i]) as u64;
            na * nb
        })
        .sum();

    // --- Bin geometry. ------------------------------------------------------
    let nbins = config.resolve_nbins(flop, tuple_bytes, a.nrows());
    let layout = BinLayout::new(a.nrows(), b.ncols(), nbins);

    // --- Per-bin flop: every nonzero A(r, i) contributes nnz(B(i, :))
    //     tuples to row r's bin. ---------------------------------------------
    let nbins = layout.nbins;
    let bin_flop: Vec<u64> = (0..k)
        .into_par_iter()
        .fold(
            || vec![0u64; nbins],
            |mut acc, i| {
                let nb = (b_rowptr[i + 1] - b_rowptr[i]) as u64;
                if nb > 0 {
                    let (rows, _) = a.col(i);
                    for &r in rows {
                        acc[layout.bin_of(r)] += nb;
                    }
                }
                acc
            },
        )
        .reduce(
            || vec![0u64; nbins],
            |mut x, y| {
                for (xi, yi) in x.iter_mut().zip(y) {
                    *xi += yi;
                }
                x
            },
        );

    let mut bin_offsets = Vec::with_capacity(nbins + 1);
    bin_offsets.push(0usize);
    for &f in &bin_flop {
        bin_offsets.push(bin_offsets.last().unwrap() + f as usize);
    }
    debug_assert_eq!(*bin_offsets.last().unwrap() as u64, flop);

    Symbolic {
        flop,
        bin_flop,
        bin_offsets,
        layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_gen::erdos_renyi_square;
    use pb_sparse::stats::flop_csr;
    use pb_sparse::Coo;

    fn small() -> (Csc<f64>, Csr<f64>) {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let m = Coo::from_entries(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap();
        (m.to_csc(), m.to_csr())
    }

    #[test]
    fn flop_matches_row_wise_count() {
        let (a_csc, b) = small();
        let a_csr = b.clone();
        let sym = symbolic(&a_csc, &b, &PbConfig::default(), 16);
        assert_eq!(sym.flop, flop_csr(&a_csr, &b));
        assert_eq!(sym.flop, 9);
    }

    #[test]
    fn bin_flop_partitions_total_flop() {
        let a = erdos_renyi_square(8, 6, 3);
        let a_csc = a.to_csc();
        let cfg = PbConfig::default().with_nbins(7);
        let sym = symbolic(&a_csc, &a, &cfg, 16);
        assert_eq!(sym.nbins(), 7);
        assert_eq!(sym.bin_flop.iter().sum::<u64>(), sym.flop);
        assert_eq!(*sym.bin_offsets.last().unwrap() as u64, sym.flop);
        assert_eq!(sym.bin_offsets.len(), 8);
    }

    #[test]
    fn per_bin_counts_match_per_row_counts() {
        let a = erdos_renyi_square(7, 4, 5);
        let a_csc = a.to_csc();
        let cfg = PbConfig::default().with_nbins(16);
        let sym = symbolic(&a_csc, &a, &cfg, 16);
        let per_row = pb_sparse::stats::flop_rows(&a, &a);
        for b in 0..sym.nbins() {
            let expected: u64 = (0..a.nrows())
                .filter(|&r| sym.layout.bin_of(r as u32) == b)
                .map(|r| per_row[r])
                .sum();
            assert_eq!(sym.bin_flop[b], expected, "bin {b} flop mismatch");
        }
    }

    #[test]
    fn auto_bin_count_scales_with_flop() {
        let small = erdos_renyi_square(6, 2, 1);
        let large = erdos_renyi_square(10, 16, 1);
        let cfg = PbConfig::default().with_l2_bytes(64 * 1024);
        let sym_small = symbolic(&small.to_csc(), &small, &cfg, 16);
        let sym_large = symbolic(&large.to_csc(), &large, &cfg, 16);
        assert!(sym_large.nbins() > sym_small.nbins());
    }

    #[test]
    fn empty_matrix_has_zero_flop_and_one_bin() {
        let e: Csr<f64> = Csr::empty(16, 16);
        let sym = symbolic(&e.to_csc(), &e, &PbConfig::default(), 16);
        assert_eq!(sym.flop, 0);
        assert_eq!(sym.nbins(), 1);
        assert_eq!(sym.bin_offsets, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let a: Csr<f64> = Csr::empty(4, 5);
        let b: Csr<f64> = Csr::empty(4, 4);
        let _ = symbolic(&a.to_csc(), &b, &PbConfig::default(), 16);
    }
}
