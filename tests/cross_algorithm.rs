//! Cross-crate integration tests: every SpGEMM implementation in the
//! workspace (PB-SpGEMM across bin counts and the column baselines) must
//! agree with the reference implementation on every matrix family the
//! paper evaluates.

use std::sync::Arc;

use pb_spgemm_suite::baseline::Baseline;
use pb_spgemm_suite::gen::{
    banded, block_diagonal, erdos_renyi_square, rmat_square, standin_scaled, tridiagonal,
    Xoshiro256pp,
};
use pb_spgemm_suite::prelude::*;
use pb_spgemm_suite::sparse::reference::{csr_approx_eq, multiply_csr};
use pb_spgemm_suite::spgemm::Workspace;

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

fn families() -> Vec<(String, Csr<f64>)> {
    vec![
        ("er_small".into(), erdos_renyi_square(7, 4, 1)),
        ("er_denser".into(), erdos_renyi_square(8, 16, 2)),
        ("rmat".into(), rmat_square(8, 8, 3)),
        ("banded".into(), banded(257, 15, 4)),
        ("block_diagonal".into(), block_diagonal(16, 16, 5)),
        ("tridiagonal".into(), tridiagonal(400, -1.0, 2.0, -1.0)),
        (
            "standin_scircuit".into(),
            standin_scaled("scircuit", 0.004, 6),
        ),
        ("standin_cant".into(), standin_scaled("cant", 0.01, 7)),
        ("standin_web".into(), standin_scaled("web-Google", 0.002, 8)),
    ]
}

#[test]
fn pb_spgemm_matches_reference_on_every_family() {
    for (name, a) in families() {
        let expected = multiply_csr(&a, &a);
        let c = multiply(&a.to_csc(), &a, &PbConfig::default());
        assert!(
            csr_approx_eq(&c, &expected, 1e-9),
            "PB-SpGEMM wrong on {name}"
        );
    }
}

#[test]
fn all_baselines_match_reference_on_every_family() {
    for (name, a) in families() {
        let expected = multiply_csr(&a, &a);
        for baseline in Baseline::all() {
            let c = baseline.multiply(&a, &a);
            assert!(
                csr_approx_eq(&c, &expected, 1e-9),
                "{} wrong on {name}",
                baseline.name()
            );
        }
    }
}

#[test]
fn pb_configurations_agree_on_a_skewed_matrix() {
    let a = rmat_square(9, 8, 11);
    let expected = multiply_csr(&a, &a);
    let a_csc = a.to_csc();
    for nbins in [1usize, 8, 64, 512] {
        let cfg = PbConfig::default().with_nbins(nbins);
        let c = multiply(&a_csc, &a, &cfg);
        assert!(
            csr_approx_eq(&c, &expected, 1e-9),
            "config nbins={nbins} disagrees"
        );
    }
}

/// Gives every stored value a random sign and a magnitude `10^u`, `u`
/// uniform in `[-6, 5)`.  Sums of such values depend on the order of their
/// additions, so two kernels agree bit for bit only when they fold every
/// output entry in the same order.
fn random_signed_magnitudes(a: &Csr<f64>, seed: u64) -> Csr<f64> {
    let mut rng = Xoshiro256pp::new(seed);
    let mut out = a.clone();
    for v in out.values_mut() {
        let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        *v = sign * 10f64.powf(-6.0 + 11.0 * rng.next_f64());
    }
    out
}

/// Asserts `c` equals `expected` in structure and in every value's bits.
fn assert_bit_exact(c: &Csr<f64>, expected: &Csr<f64>, what: &str) {
    assert_eq!(c.rowptr(), expected.rowptr(), "{what}: rowptr");
    assert_eq!(c.colidx(), expected.colidx(), "{what}: colidx");
    let differing = c
        .values()
        .iter()
        .zip(expected.values())
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    assert_eq!(
        differing,
        0,
        "{what}: {differing} of {} values differ",
        c.nnz()
    );
}

#[test]
fn random_valued_products_are_bit_exact_against_the_reference() {
    // The reference folds each C(i, j) in ascending k.  Every baseline does
    // too, and so does PB on a one-thread pool, where expand writes each
    // bin in ascending k and the sort and compress keep that order.
    let inputs = [
        ("rmat", random_signed_magnitudes(&rmat_square(10, 16, 1), 2)),
        (
            "er",
            random_signed_magnitudes(&erdos_renyi_square(9, 16, 3), 4),
        ),
    ];
    for (name, a) in &inputs {
        let expected = multiply_csr(a, a);
        for baseline in Baseline::all() {
            let c = baseline.multiply(a, a);
            assert_bit_exact(&c, &expected, &format!("{name}/{}", baseline.name()));
        }

        let a_csc = a.to_csc();
        let one_thread = PbConfig::default().with_threads(1);
        let c = multiply(&a_csc, a, &one_thread);
        assert_bit_exact(&c, &expected, &format!("{name}/PB default bins"));
        let c = multiply(&a_csc, a, &one_thread.clone().with_local_bin_bytes(64));
        assert_bit_exact(&c, &expected, &format!("{name}/PB 64-B local bins"));
        let reusing = one_thread.with_workspace(Arc::new(Workspace::new()));
        for round in 0..2 {
            let c = multiply(&a_csc, a, &reusing);
            assert_bit_exact(&c, &expected, &format!("{name}/PB workspace round {round}"));
        }
    }
}

#[test]
fn chained_products_stay_consistent() {
    // (A·A)·A computed with PB-SpGEMM equals A·(A·A) computed with a column
    // baseline (associativity across implementations).
    let a = erdos_renyi_square(7, 4, 21);
    let cfg = PbConfig::default();
    let aa_pb = multiply(&a.to_csc(), &a, &cfg);
    let left = multiply(&aa_pb.to_csc(), &a, &cfg);
    let aa_hash = Baseline::Hash.multiply(&a, &a);
    let right = Baseline::Heap.multiply(&a, &aa_hash);
    assert!(csr_approx_eq(&left, &right, 1e-7));
}

#[test]
fn rectangular_chains_across_crates() {
    // 200x300 * 300x150 with every implementation.
    let a = pb_spgemm_suite::gen::erdos_renyi(&pb_spgemm_suite::gen::ErConfig {
        nrows: 200,
        ncols: 300,
        nnz_per_col: 3,
        seed: 31,
        random_values: true,
    });
    let b = pb_spgemm_suite::gen::erdos_renyi(&pb_spgemm_suite::gen::ErConfig {
        nrows: 300,
        ncols: 150,
        nnz_per_col: 5,
        seed: 32,
        random_values: true,
    });
    let expected = multiply_csr(&a, &b);
    let pb = multiply(&a.to_csc(), &b, &PbConfig::default());
    assert!(csr_approx_eq(&pb, &expected, 1e-9));
    for baseline in Baseline::all() {
        assert!(csr_approx_eq(&baseline.multiply(&a, &b), &expected, 1e-9));
    }
}

#[test]
fn semiring_results_agree_between_pb_and_baselines() {
    let a = rmat_square(7, 6, 41);
    let bool_a = a.map_values(|_| true);

    let pb_pattern = multiply_with::<OrAnd>(&bool_a.to_csc(), &bool_a, &PbConfig::default());
    let heap_pattern = Baseline::Heap.multiply_with::<OrAnd>(&bool_a, &bool_a);
    assert_eq!(pb_pattern.rowptr(), heap_pattern.rowptr());
    assert_eq!(pb_pattern.colidx(), heap_pattern.colidx());

    let pb_dist = multiply_with::<MinPlus>(&a.to_csc(), &a, &PbConfig::default());
    let hash_dist = Baseline::Hash.multiply_with::<MinPlus>(&a, &a);
    assert!(csr_approx_eq(&pb_dist, &hash_dist, 1e-12));
}
