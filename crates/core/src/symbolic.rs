//! Symbolic phase (Algorithm 3 of the paper).
//!
//! The symbolic phase streams only the offset arrays of `A` (CSC) and `B`
//! (CSR) to compute the multiplication's flop count, derives the number of
//! propagation bins from it, and — one refinement over the paper's
//! pseudo-code — counts the flop landing in *each* bin so that the expand
//! phase can reserve exactly-sized, contention-free segments of the global
//! tuple buffer.
//!
//! On a multi-domain topology (see [`crate::topology`]) the symbolic phase
//! additionally cuts `A`'s columns into one flop-balanced range per NUMA
//! domain and counts the flop per *(bin, domain)* pair, so every bin's
//! buffer segment is subdivided into one exactly-sized sub-segment per
//! domain: tuples produced from domain `d`'s columns land in sub-segment
//! `d`, which domain `d`'s workers write (and whose pages they first-touch)
//! almost exclusively.  The sub-segments of a bin are contiguous in a fixed
//! domain order, so `bin_offsets` — and therefore the sort, compress and
//! assemble phases — are untouched by the partitioning, and the assembled
//! product is bit-identical to the single-domain schedule.

use pb_sparse::{Csc, Csr, Scalar};
use rayon::prelude::*;

use crate::bins::BinLayout;
use crate::config::PbConfig;
use crate::topology::balanced_boundaries;

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
    /// NUMA domains the bins are partitioned over (1 = no partitioning).
    pub domains: usize,
    /// Flop-balanced column boundaries per domain (`domains + 1` entries,
    /// from 0 to `A.ncols()`): domain `d` owns the outer products of
    /// columns `col_domain_starts[d]..col_domain_starts[d + 1]`.
    pub col_domain_starts: Vec<usize>,
    /// Prefix offsets of every *(bin, domain)* sub-segment in the global
    /// tuple buffer, in `(bin, domain)` order with domain minor
    /// (`nbins · domains + 1` entries).  `bin_offsets[b]` equals
    /// `seg_offsets[b · domains]` by construction.
    pub seg_offsets: Vec<usize>,
    /// Expanded tuples owned by each domain across all bins (`domains`
    /// entries; sums to `flop`).
    pub domain_flop: Vec<u64>,
}

impl Symbolic {
    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.layout.nbins
    }

    /// The domain owning column `col` of `A` (the sub-segment its expanded
    /// tuples are reserved in).
    #[inline]
    pub fn domain_of_col(&self, col: usize) -> usize {
        crate::topology::domain_of_index(&self.col_domain_starts, self.domains, col)
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
    let domains = config.resolve_domains().min(k.max(1));

    // --- Total flop: one streaming pass over the two offset arrays.  On a
    //     multi-domain run the per-column flop is kept so the domains'
    //     column ranges can be balanced by flop, not by count — balanced
    //     ranges finish together, which is what keeps cross-domain work
    //     stealing (and with it remote flushes) rare. ----------------------
    let col_flop = |i: usize| {
        let na = (a_colptr[i + 1] - a_colptr[i]) as u64;
        let nb = (b_rowptr[i + 1] - b_rowptr[i]) as u64;
        na * nb
    };
    let (flop, col_domain_starts) = if domains > 1 {
        let per_col: Vec<u64> = (0..k).into_par_iter().map(col_flop).collect();
        let flop = per_col.iter().sum();
        (flop, balanced_boundaries(&per_col, domains))
    } else {
        let flop = (0..k).into_par_iter().map(col_flop).sum();
        (flop, vec![0, k])
    };

    // --- Bin geometry. ------------------------------------------------------
    let nbins = config.resolve_nbins(flop, tuple_bytes, a.nrows());
    let layout = BinLayout::new(a.nrows(), b.ncols(), nbins);

    // --- Per-(bin, domain) flop: every nonzero A(r, i) contributes
    //     nnz(B(i, :)) tuples to row r's bin, in the sub-segment of column
    //     i's domain. -------------------------------------------------------
    let nbins = layout.nbins;
    let nsegs = nbins * domains;
    let domain_of = |col: usize| -> usize {
        crate::topology::domain_of_index(&col_domain_starts, domains, col)
    };
    let seg_flop: Vec<u64> = (0..k)
        .into_par_iter()
        .fold(
            || vec![0u64; nsegs],
            |mut acc, i| {
                let nb = (b_rowptr[i + 1] - b_rowptr[i]) as u64;
                if nb > 0 {
                    let d = domain_of(i);
                    let (rows, _) = a.col(i);
                    for &r in rows {
                        acc[layout.bin_of(r) * domains + d] += nb;
                    }
                }
                acc
            },
        )
        .reduce(
            || vec![0u64; nsegs],
            |mut x, y| {
                for (xi, yi) in x.iter_mut().zip(y) {
                    *xi += yi;
                }
                x
            },
        );

    let mut seg_offsets = Vec::with_capacity(nsegs + 1);
    seg_offsets.push(0usize);
    for &f in &seg_flop {
        seg_offsets.push(seg_offsets.last().unwrap() + f as usize);
    }
    debug_assert_eq!(*seg_offsets.last().unwrap() as u64, flop);

    let bin_flop: Vec<u64> = (0..nbins)
        .map(|b| seg_flop[b * domains..(b + 1) * domains].iter().sum())
        .collect();
    let bin_offsets: Vec<usize> = (0..=nbins).map(|b| seg_offsets[b * domains]).collect();
    let domain_flop: Vec<u64> = (0..domains)
        .map(|d| (0..nbins).map(|b| seg_flop[b * domains + d]).sum())
        .collect();

    Symbolic {
        flop,
        bin_flop,
        bin_offsets,
        layout,
        domains,
        col_domain_starts,
        seg_offsets,
        domain_flop,
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
    fn single_domain_runs_have_degenerate_partitions() {
        let a = erdos_renyi_square(7, 4, 5);
        let a_csc = a.to_csc();
        let sym = symbolic(
            &a_csc,
            &a,
            &PbConfig::default().with_nbins(8).with_numa_domains(1),
            16,
        );
        assert_eq!(sym.domains, 1);
        assert_eq!(sym.col_domain_starts, vec![0, a.ncols()]);
        assert_eq!(sym.seg_offsets, sym.bin_offsets);
        assert_eq!(sym.domain_flop, vec![sym.flop]);
        assert_eq!(sym.domain_of_col(0), 0);
        assert_eq!(sym.domain_of_col(a.ncols() - 1), 0);
    }

    #[test]
    fn domain_partition_refines_bins_without_changing_them() {
        let a = pb_gen::rmat_square(8, 6, 11);
        let a_csc = a.to_csc();
        let single = symbolic(
            &a_csc,
            &a,
            &PbConfig::default().with_nbins(7).with_numa_domains(1),
            16,
        );
        // Forced domains clamp to the pool's thread count, so install a
        // real 2-thread pool around the partitioned run.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .domains(2)
            .build()
            .unwrap();
        let cfg = PbConfig::default().with_nbins(7).with_numa_domains(2);
        let two = pool.install(|| symbolic(&a_csc, &a, &cfg, 16));
        assert_eq!(two.domains, 2);

        // The per-bin view is untouched by the partitioning.
        assert_eq!(two.flop, single.flop);
        assert_eq!(two.bin_flop, single.bin_flop);
        assert_eq!(two.bin_offsets, single.bin_offsets);
        assert_eq!(two.layout, single.layout);

        // Sub-segments refine each bin in fixed domain order.
        assert_eq!(two.seg_offsets.len(), two.nbins() * 2 + 1);
        for b in 0..=two.nbins() {
            assert_eq!(two.seg_offsets[b * 2], two.bin_offsets[b]);
        }
        assert!(two.seg_offsets.windows(2).all(|w| w[0] <= w[1]));

        // The column partition covers all columns; each domain's flop share
        // is what its columns produce, and the shares sum to the total.
        assert_eq!(two.col_domain_starts.len(), 3);
        assert_eq!(two.col_domain_starts[0], 0);
        assert_eq!(*two.col_domain_starts.last().unwrap(), a.ncols());
        assert_eq!(two.domain_flop.iter().sum::<u64>(), two.flop);
        assert!(
            two.domain_flop.iter().all(|&f| f > 0),
            "{:?}",
            two.domain_flop
        );
        for i in 0..a.ncols() {
            let d = two.domain_of_col(i);
            assert!(two.col_domain_starts[d] <= i && i < two.col_domain_starts[d + 1]);
        }

        // Flop balance: on this skewed R-MAT the two shares differ by less
        // than the heaviest single column (the greedy bound).
        let b_rowptr = a.rowptr();
        let heaviest_col = (0..a.ncols())
            .map(|i| a_csc.col(i).0.len() as u64 * (b_rowptr[i + 1] - b_rowptr[i]) as u64)
            .max()
            .unwrap();
        let diff = two.domain_flop[0].abs_diff(two.domain_flop[1]);
        assert!(
            diff <= heaviest_col.max(1) * 2,
            "unbalanced shares {:?} (heaviest column {heaviest_col})",
            two.domain_flop
        );
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
