//! Property-based tests (proptest) for the element-wise operations, the
//! sparse/dense vector helpers, the binary matrix format and the SpMV
//! kernels added on top of the original reproduction.

use proptest::prelude::*;

use pb_spgemm_suite::prelude::*;
use pb_spgemm_suite::sparse::{binfmt, ops, reference};

/// Engine-backed stand-in for the retired `pb_spgemm::multiply` free
/// function: call sites stay unchanged while routing through the unified
/// [`SpGemm`] engine.
fn multiply(a: &Csc<f64>, b: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
    SpGemm::pb().config(cfg.clone()).multiply_csc(a, b)
}

/// Engine-backed stand-in for the retired `pb_spgemm::multiply_masked`.
fn multiply_masked(a: &Csc<f64>, b: &Csr<f64>, mask: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
    SpGemm::pb()
        .config(cfg.clone())
        .mask(mask)
        .multiply_csc(a, b)
}

use pb_spgemm_suite::spmv::{csc_spmv, csr_spmv, pb_spmv, PbSpmvConfig};

/// Strategy: an arbitrary sparse matrix with dimensions in `[1, max_dim]`.
fn sparse_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(nrows, ncols)| {
        let entry = (0..nrows, 0..ncols, -1.0f64..1.0f64);
        proptest::collection::vec(entry, 0..=max_nnz)
            .prop_map(move |entries| Coo::from_entries(nrows, ncols, entries).unwrap().to_csr())
    })
}

/// Strategy: two matrices of identical shape.
fn same_shape_pair(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = (Csr<f64>, Csr<f64>)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(nrows, ncols)| {
        let entry_a = (0..nrows, 0..ncols, -1.0f64..1.0f64);
        let entry_b = (0..nrows, 0..ncols, -1.0f64..1.0f64);
        (
            proptest::collection::vec(entry_a, 0..=max_nnz)
                .prop_map(move |e| Coo::from_entries(nrows, ncols, e).unwrap().to_csr()),
            proptest::collection::vec(entry_b, 0..=max_nnz)
                .prop_map(move |e| Coo::from_entries(nrows, ncols, e).unwrap().to_csr()),
        )
    })
}

/// Dense oracle for the element-wise checks.
fn dense_of(a: &Csr<f64>) -> Vec<Vec<f64>> {
    let mut d = vec![vec![0.0; a.ncols()]; a.nrows()];
    for (r, c, v) in a.iter() {
        d[r as usize][c as usize] += v;
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel element-wise addition equals the dense sum.
    #[test]
    fn add_matches_dense_addition((a, b) in same_shape_pair(32, 150)) {
        let sum = ops::add(&a, &b);
        let (da, db, ds) = (dense_of(&a), dense_of(&b), dense_of(&sum));
        for i in 0..a.nrows() {
            for j in 0..a.ncols() {
                prop_assert!((ds[i][j] - (da[i][j] + db[i][j])).abs() < 1e-9);
            }
        }
        // Addition never loses coordinates.
        prop_assert!(sum.nnz() <= a.nnz() + b.nnz());
        prop_assert!(sum.nnz() >= a.nnz().max(b.nnz()));
    }

    /// The Hadamard product stores exactly the intersection of the patterns.
    #[test]
    fn hadamard_matches_dense_product((a, b) in same_shape_pair(32, 150)) {
        let had = ops::hadamard(&a, &b);
        let (da, db, dh) = (dense_of(&a), dense_of(&b), dense_of(&had));
        for (r, c, _) in had.iter() {
            let (i, j) = (r as usize, c as usize);
            prop_assert!((dh[i][j] - da[i][j] * db[i][j]).abs() < 1e-9);
            prop_assert!(a.get(i, j).is_some() && b.get(i, j).is_some());
        }
    }

    /// Strict upper + diagonal + strict lower partition the stored entries.
    #[test]
    fn triangles_partition_the_matrix(a in sparse_matrix(40, 200)) {
        let up = ops::triu(&a, 1);
        let lo = ops::tril(&a, 1);
        let diag_count = a.iter().filter(|&(r, c, _)| r == c).count();
        prop_assert_eq!(up.nnz() + lo.nnz() + diag_count, a.nnz());
        prop_assert!(up.iter().all(|(r, c, _)| c > r));
        prop_assert!(lo.iter().all(|(r, c, _)| c < r));
    }

    /// Row sums and column sums both add up to the total of all values.
    #[test]
    fn row_and_col_sums_are_consistent(a in sparse_matrix(40, 200)) {
        let total: f64 = a.values().iter().sum();
        let by_rows: f64 = ops::row_sums(&a).iter().sum();
        let by_cols: f64 = ops::col_sums(&a).iter().sum();
        prop_assert!((by_rows - total).abs() < 1e-9);
        prop_assert!((by_cols - total).abs() < 1e-9);
    }

    /// The binary format round-trips arbitrary matrices bit-exactly.
    #[test]
    fn binary_format_roundtrips(a in sparse_matrix(48, 250)) {
        let mut buf = Vec::new();
        binfmt::write_csr_to(&mut buf, &a).unwrap();
        let back: Csr<f64> = binfmt::read_csr_from(buf.as_slice()).unwrap();
        prop_assert!(reference::csr_exact_eq(&a, &back));
    }

    /// All three SpMV kernels agree with a dense gather oracle.
    #[test]
    fn spmv_kernels_agree(a in sparse_matrix(48, 250), seed in 0u64..100) {
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i as u64 * 31 + seed) % 17) as f64 / 17.0 - 0.5).collect();
        let mut oracle = vec![0.0f64; a.nrows()];
        for (r, c, v) in a.iter() {
            oracle[r as usize] += v * x[c as usize];
        }
        let a_csc = a.to_csc();
        for (name, y) in [
            ("csr", csr_spmv(&a, &x)),
            ("csc", csc_spmv(&a_csc, &x)),
            ("pb", pb_spmv(&a_csc, &x, &PbSpmvConfig::default().with_l2_bytes(4096))),
        ] {
            for (i, (p, q)) in y.iter().zip(&oracle).enumerate() {
                prop_assert!((p - q).abs() < 1e-9, "{name} row {i}");
            }
        }
    }

    /// Sparse vectors behave like their dense expansions.
    #[test]
    fn sparse_vectors_match_dense_semantics(
        entries in proptest::collection::vec((0usize..64, -1.0f64..1.0), 0..80),
        other in proptest::collection::vec((0usize..64, -1.0f64..1.0), 0..80),
    ) {
        let x = SparseVec::from_entries(64, entries).unwrap();
        let y = SparseVec::from_entries(64, other).unwrap();
        let dx = x.to_dense(0.0);
        let dy = y.to_dense(0.0);
        let dense_dot: f64 = dx.iter().zip(&dy).map(|(a, b)| a * b).sum();
        prop_assert!((x.dot(&y) - dense_dot).abs() < 1e-9);
        let sum = x.add_with::<PlusTimes<f64>>(&y);
        for i in 0..64 {
            prop_assert!((sum.get(i).unwrap_or(0.0) - (dx[i] + dy[i])).abs() < 1e-9);
        }
    }

    // Named after the deleted Balanced mapping; the name stays so test histories line up.
    /// Masked PB-SpGEMM equals multiply-then-filter for arbitrary masks, and
    /// an explicit 8-bin layout changes nothing about the result.
    #[test]
    fn masked_and_balanced_multiplications_are_consistent(
        a in sparse_matrix(32, 150),
        mask in sparse_matrix(32, 150),
    ) {
        // Make the operands square and the mask the right shape.
        let n = a.nrows().min(a.ncols());
        let square = |m: &Csr<f64>| {
            Coo::from_entries(
                n, n,
                m.iter()
                    .filter(|&(r, c, _)| (r as usize) < n && (c as usize) < n)
                    .map(|(r, c, v)| (r as usize, c as usize, v))
                    .collect::<Vec<_>>(),
            ).unwrap().to_csr()
        };
        let a = square(&a);
        let mask = square(&mask);
        let a_csc = a.to_csc();

        let full = multiply(&a_csc, &a, &PbConfig::default());
        let masked = multiply_masked(&a_csc, &a, &mask, &PbConfig::default());
        let expected = ops::mask_by_pattern(&full, &mask);
        prop_assert!(reference::csr_approx_eq(&masked, &expected, 1e-9));

        let eight_bins = multiply(&a_csc, &a, &PbConfig::default().with_nbins(8));
        prop_assert!(reference::csr_approx_eq(&eight_bins, &full, 1e-9));
    }
}
