//! Edge-case and stress tests for the public SpGEMM API: degenerate shapes,
//! pathological sparsity patterns, extreme configurations and numerical
//! corner cases.

use pb_spgemm_suite::baseline::Baseline;
use pb_spgemm_suite::gen::erdos_renyi_square;
use pb_spgemm_suite::prelude::*;
use pb_spgemm_suite::sparse::reference::{csr_approx_eq, multiply_csr};

/// Engine-backed stand-in for the retired `pb_spgemm::multiply` free
/// function: call sites stay unchanged while routing through the unified
/// [`SpGemm`] engine.
fn multiply(a: &Csc<f64>, b: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
    SpGemm::pb().config(cfg.clone()).multiply_csc(a, b)
}

fn check_all(a: &Csr<f64>, b: &Csr<f64>) {
    let expected = multiply_csr(a, b);
    let pb = multiply(&a.to_csc(), b, &PbConfig::default());
    assert!(csr_approx_eq(&pb, &expected, 1e-9), "PB-SpGEMM mismatch");
    for baseline in Baseline::all() {
        let c = baseline.multiply(a, b);
        assert!(
            csr_approx_eq(&c, &expected, 1e-9),
            "{} mismatch",
            baseline.name()
        );
    }
}

#[test]
fn outer_product_of_a_column_and_a_row_is_dense() {
    // (n x 1) times (1 x n) has flop = n^2 and cf = 1: the worst case for an
    // ESC algorithm's intermediate storage.
    let n = 128usize;
    let col = Coo::from_entries(n, 1, (0..n).map(|i| (i, 0, (i + 1) as f64)).collect())
        .unwrap()
        .to_csr();
    let row = Coo::from_entries(1, n, (0..n).map(|j| (0, j, 2.0)).collect())
        .unwrap()
        .to_csr();
    let c = multiply(&col.to_csc(), &row, &PbConfig::default());
    assert_eq!(c.nnz(), n * n);
    assert_eq!(c.get(3, 5), Some(8.0));
    check_all(&col, &row);
}

#[test]
fn inner_product_of_a_row_and_a_column_is_a_scalar() {
    let n = 256usize;
    let row = Coo::from_entries(1, n, (0..n).map(|j| (0, j, 1.0)).collect())
        .unwrap()
        .to_csr();
    let col = Coo::from_entries(n, 1, (0..n).map(|i| (i, 0, 1.0)).collect())
        .unwrap()
        .to_csr();
    let c = multiply(&row.to_csc(), &col, &PbConfig::default());
    assert_eq!(c.shape(), (1, 1));
    assert_eq!(c.get(0, 0), Some(n as f64));
}

#[test]
fn matrices_with_empty_rows_columns_and_blocks() {
    // A matrix whose first and last thirds of rows are completely empty.
    let n = 300usize;
    let entries: Vec<(usize, usize, f64)> = (100..200)
        .map(|i| (i, (i * 7) % n, 1.0 + i as f64))
        .collect();
    let a = Coo::from_entries(n, n, entries).unwrap().to_csr();
    check_all(&a, &a);
}

#[test]
fn product_with_structurally_empty_result() {
    // A only has entries in columns 0..10, B only has entries in rows
    // 100..110: no inner index overlaps, so C is empty.
    let a = Coo::from_entries(50, 200, (0..10).map(|j| (j, j, 1.0)).collect())
        .unwrap()
        .to_csr();
    let b = Coo::from_entries(200, 50, (0..10).map(|j| (100 + j, j, 1.0)).collect())
        .unwrap()
        .to_csr();
    let c = multiply(&a.to_csc(), &b, &PbConfig::default());
    assert_eq!(c.nnz(), 0);
    check_all(&a, &b);
}

#[test]
fn numerical_cancellation_keeps_explicit_zeros() {
    // +1 * 1 and -1 * 1 land on the same output coordinate and cancel; the
    // paper's algorithms keep the explicit zero (nnz counts structure).
    let a = Coo::from_entries(2, 2, vec![(0, 0, 1.0), (0, 1, -1.0)])
        .unwrap()
        .to_csr();
    let b = Coo::from_entries(2, 2, vec![(0, 0, 1.0), (1, 0, 1.0)])
        .unwrap()
        .to_csr();
    let c = multiply(&a.to_csc(), &b, &PbConfig::default());
    assert_eq!(c.nnz(), 1);
    assert_eq!(c.get(0, 0), Some(0.0));
}

#[test]
fn extreme_values_are_preserved() {
    let big: f64 = 1e300;
    let tiny: f64 = 1e-300;
    let a = Coo::from_entries(3, 3, vec![(0, 0, big), (1, 1, tiny), (2, 2, -big)])
        .unwrap()
        .to_csr();
    let c = multiply(&a.to_csc(), &a, &PbConfig::default());
    assert_eq!(c.get(1, 1), Some(tiny * tiny));
    assert!(c.get(0, 0).unwrap().is_infinite()); // big * big overflows to +inf
    assert!(c.get(2, 2).unwrap().is_infinite());
}

#[test]
fn single_row_and_single_column_matrices() {
    let a = Coo::from_entries(1, 1, vec![(0, 0, 2.5)]).unwrap().to_csr();
    let c = multiply(&a.to_csc(), &a, &PbConfig::default());
    assert_eq!(c.get(0, 0), Some(6.25));

    // 1 x n empty operand.
    let empty: Csr<f64> = Csr::empty(1, 64);
    let b = erdos_renyi_square(6, 2, 9);
    let wide = multiply(&empty.to_csc(), &Csr::empty(64, 64), &PbConfig::default());
    assert_eq!(wide.shape(), (1, 64));
    assert_eq!(wide.nnz(), 0);
    let _ = b;
}

#[test]
fn extreme_bin_configurations_still_produce_correct_results() {
    let a = erdos_renyi_square(8, 8, 17);
    let expected = multiply_csr(&a, &a);
    let a_csc = a.to_csc();
    // One bin for everything, one bin per row, absurdly small local bins and
    // an L2 assumption smaller than a single tuple.
    let configs = [
        PbConfig::default().with_nbins(1),
        PbConfig::default().with_nbins(a.nrows()),
        PbConfig::default().with_local_bin_bytes(16),
        PbConfig::default().with_l2_bytes(4096),
        PbConfig::default().with_nbins(7),
    ];
    for cfg in configs {
        let c = multiply(&a_csc, &a, &cfg);
        assert!(
            csr_approx_eq(&c, &expected, 1e-9),
            "config {cfg:?} produced a wrong result"
        );
    }
}

#[test]
fn highly_duplicated_products_compress_correctly() {
    // B has a single dense row, so every product lands on the same output
    // rows repeatedly -> heavy compression (cf = nnz per row of A).
    let n = 64usize;
    let mut entries = Vec::new();
    for i in 0..n {
        for k in 0..8 {
            entries.push((i, k, 1.0));
        }
    }
    let a = Coo::from_entries(n, n, entries).unwrap().to_csr();
    let b_entries: Vec<(usize, usize, f64)> = (0..8)
        .flat_map(|k| (0..n).map(move |j| (k, j, 1.0)))
        .collect();
    let b = Coo::from_entries(n, n, b_entries).unwrap().to_csr();
    let stats = MultiplyStats::compute(&a, &b);
    assert!(
        stats.cf >= 7.9,
        "expected a high compression factor, got {}",
        stats.cf
    );
    check_all(&a, &b);
}

#[test]
fn repeated_multiplication_is_stable_in_structure() {
    // Squaring the same matrix repeatedly with different algorithms always
    // yields the same structure (catches nondeterministic bin assembly).
    let a = erdos_renyi_square(8, 6, 23);
    let a_csc = a.to_csc();
    let first = multiply(&a_csc, &a, &PbConfig::default());
    for _ in 0..5 {
        let again = multiply(&a_csc, &a, &PbConfig::default());
        assert_eq!(first.rowptr(), again.rowptr());
        assert_eq!(first.colidx(), again.colidx());
        // Values may differ only by floating-point reassociation.
        assert!(csr_approx_eq(&first, &again, 1e-12));
    }
}
