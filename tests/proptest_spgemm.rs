//! Property-based tests (proptest): on arbitrary random sparse matrices,
//! every SpGEMM implementation agrees with the reference implementation and
//! with the algebraic identities a matrix product must satisfy.

use proptest::prelude::*;

use pb_spgemm_suite::baseline::Baseline;
use pb_spgemm_suite::prelude::*;
use pb_spgemm_suite::sparse::reference::{self, csr_approx_eq, multiply_csr};

/// Engine-backed stand-in for the retired `pb_spgemm::multiply` free
/// function: call sites stay unchanged while routing through the unified
/// [`SpGemm`] engine.
fn multiply(a: &Csc<f64>, b: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
    SpGemm::pb().config(cfg.clone()).multiply_csc(a, b)
}

/// Engine-backed stand-in for the retired `pb_spgemm::multiply_with`.
fn multiply_with<S: Semiring>(a: &Csc<S::Elem>, b: &Csr<S::Elem>, cfg: &PbConfig) -> Csr<S::Elem>
where
    S::Elem: Default,
{
    SpGemm::pb()
        .config(cfg.clone())
        .multiply_csc_with::<S>(a, b)
}

/// Strategy: an arbitrary sparse matrix with dimensions in `[1, max_dim]`
/// and roughly `density` of its entries stored (values in [-1, 1]).
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(nrows, ncols)| {
        let entry = (0..nrows, 0..ncols, -1.0f64..1.0f64);
        proptest::collection::vec(entry, 0..=max_nnz)
            .prop_map(move |entries| Coo::from_entries(nrows, ncols, entries).unwrap().to_csr())
    })
}

/// Strategy: a pair of multiplicable matrices (A: m×k, B: k×n).
fn matrix_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(move |(m, k, n)| {
        let a_entry = (0..m, 0..k, -1.0f64..1.0f64);
        let b_entry = (0..k, 0..n, -1.0f64..1.0f64);
        (
            proptest::collection::vec(a_entry, 0..=max_nnz)
                .prop_map(move |e| Coo::from_entries(m, k, e).unwrap().to_csr()),
            proptest::collection::vec(b_entry, 0..=max_nnz)
                .prop_map(move |e| Coo::from_entries(k, n, e).unwrap().to_csr()),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PB-SpGEMM equals the reference on arbitrary multiplicable pairs.
    #[test]
    fn pb_matches_reference_on_arbitrary_pairs((a, b) in matrix_pair(40, 160)) {
        let expected = multiply_csr(&a, &b);
        let c = multiply(&a.to_csc(), &b, &PbConfig::default());
        prop_assert!(csr_approx_eq(&c, &expected, 1e-9));
    }

    /// Every baseline equals the reference on arbitrary multiplicable pairs.
    #[test]
    fn baselines_match_reference_on_arbitrary_pairs((a, b) in matrix_pair(28, 120)) {
        let expected = multiply_csr(&a, &b);
        for baseline in Baseline::all() {
            let c = baseline.multiply(&a, &b);
            prop_assert!(
                csr_approx_eq(&c, &expected, 1e-9),
                "{} disagrees with the reference", baseline.name()
            );
        }
    }

    /// All PB configurations produce the same result on arbitrary squares.
    #[test]
    fn pb_configurations_agree_on_arbitrary_squares(a in sparse_matrix(48, 200),
                                                    nbins in 1usize..64,
                                                    local_bytes in 16usize..1024) {
        // Square matrices only (squaring needs nrows == ncols).
        let n = a.nrows().min(a.ncols());
        let a = a.prune(|r, c, _| (r as usize) < n && (c as usize) < n);
        let a = Coo::from_entries(
            n, n,
            a.iter().map(|(r, c, v)| (r as usize, c as usize, v)).collect(),
        ).unwrap().to_csr();
        let expected = multiply_csr(&a, &a);
        let a_csc = a.to_csc();
        let cfg = PbConfig::default()
            .with_nbins(nbins)
            .with_local_bin_bytes(local_bytes);
        let c = multiply(&a_csc, &a, &cfg);
        prop_assert!(csr_approx_eq(&c, &expected, 1e-9));
    }

    /// Multiplying by the identity leaves the matrix unchanged.
    #[test]
    fn identity_is_neutral(a in sparse_matrix(40, 150)) {
        let left_id = Csr::<f64>::identity(a.nrows());
        let right_id = Csr::<f64>::identity(a.ncols());
        let cfg = PbConfig::default();
        prop_assert!(csr_approx_eq(&multiply(&left_id.to_csc(), &a, &cfg), &a, 1e-12));
        prop_assert!(csr_approx_eq(&multiply(&a.to_csc(), &right_id, &cfg), &a, 1e-12));
    }

    /// The structural (boolean) product of PB-SpGEMM matches the pattern of
    /// the numeric product computed by a baseline when no cancellation
    /// occurs (all values positive).
    #[test]
    fn boolean_pattern_matches_positive_numeric_pattern((a, b) in matrix_pair(30, 120)) {
        let a_pos = a.map_values(|v| v.abs() + 0.1);
        let b_pos = b.map_values(|v| v.abs() + 0.1);
        let numeric = Baseline::Heap.multiply(&a_pos, &b_pos);
        let pattern = multiply_with::<OrAnd>(
            &a_pos.map_values(|_| true).to_csc(),
            &b_pos.map_values(|_| true),
            &PbConfig::default(),
        );
        prop_assert_eq!(pattern.rowptr(), numeric.rowptr());
        prop_assert_eq!(pattern.colidx(), numeric.colidx());
    }

    /// flop, nnz(C) and cf reported by the statistics module are consistent
    /// with the actual product.
    #[test]
    fn multiply_stats_are_consistent_with_the_product((a, b) in matrix_pair(32, 150)) {
        let stats = MultiplyStats::compute(&a, &b);
        let c = multiply(&a.to_csc(), &b, &PbConfig::default());
        let c_nonzero_structure = reference::multiply_csr_with::<OrAnd>(
            &a.map_values(|_| true), &b.map_values(|_| true));
        prop_assert_eq!(stats.nnz_c, c_nonzero_structure.nnz());
        prop_assert_eq!(c.nnz(), stats.nnz_c);
        prop_assert!(stats.flop >= stats.nnz_c as u64);
        if stats.nnz_c > 0 {
            prop_assert!((stats.cf - stats.flop as f64 / stats.nnz_c as f64).abs() < 1e-12);
        }
    }

    /// Distributivity across implementations: (A + B)·C == A·C + B·C.
    #[test]
    fn product_distributes_over_addition((a, c) in matrix_pair(24, 100), seed in 0u64..1000) {
        // Build B with the same shape as A.
        let b = pb_spgemm_suite::gen::erdos_renyi(&pb_spgemm_suite::gen::ErConfig {
            nrows: a.nrows(),
            ncols: a.ncols(),
            nnz_per_col: 2,
            seed,
            random_values: true,
        });
        let sum = reference::add_csr_with::<PlusTimes<f64>>(&a, &b);
        let cfg = PbConfig::default();
        let lhs = multiply(&sum.to_csc(), &c, &cfg);
        let rhs = reference::add_csr_with::<PlusTimes<f64>>(
            &multiply(&a.to_csc(), &c, &cfg),
            &multiply(&b.to_csc(), &c, &cfg),
        );
        // Compare densely: the two sides can differ in which exact zeros they
        // store, but never in value.
        prop_assert!(lhs.to_dense().approx_eq(&rhs.to_dense(), 1e-9));
    }
}
