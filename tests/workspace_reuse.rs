//! Workspace reuse across repeated multiplies: bit-exactness vs the
//! fresh-allocation path under shape growth, shrinkage and NUMA-domain
//! changes mid-stream, steady-state zero-allocation, concurrent sharing,
//! and the masked pipeline.
//!
//! Products are compared on unit-valued matrices wherever *bit* equality is
//! asserted: with every expanded tuple equal to 1.0 the merged sums are
//! order-independent, so the comparison is exact even on a real
//! multi-thread pool where the flush interleaving varies run to run.
//! Real-valued products are additionally checked against the reference
//! oracle to the usual tolerance.
//!
//! `PB_WORKSPACE_STRESS` (set by the CI shared-workspace stress run)
//! multiplies the iteration and thread counts, hammering the checkout /
//! check-in paths harder.

use std::sync::Arc;

use pb_gen::{erdos_renyi_square, rmat_square};
use pb_sparse::reference::{csr_approx_eq, multiply_csr as reference_multiply};
use pb_sparse::semiring::{OrAnd, PlusTimes};
use pb_sparse::Csc;
use pb_sparse::Csr;
use pb_spgemm::{PbConfig, SpGemm, SpGemmProfile, Workspace};

/// Engine-backed stand-ins for the retired free functions: call sites stay
/// unchanged while routing through the unified [`SpGemm`] engine.
fn multiply(a: &Csc<f64>, b: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
    SpGemm::pb().config(cfg.clone()).multiply_csc(a, b)
}

fn multiply_reusing(a: &Csc<f64>, b: &Csr<f64>, cfg: &PbConfig, ws: &Arc<Workspace>) -> Csr<f64> {
    SpGemm::pb()
        .config(cfg.clone())
        .workspace(ws.clone())
        .multiply_csc(a, b)
}

fn multiply_with_profile_reusing<S: pb_sparse::Semiring>(
    a: &Csc<S::Elem>,
    b: &Csr<S::Elem>,
    cfg: &PbConfig,
    ws: &Arc<Workspace>,
) -> (Csr<S::Elem>, SpGemmProfile)
where
    S::Elem: Default,
{
    SpGemm::pb()
        .config(cfg.clone())
        .workspace(ws.clone())
        .multiply_csc_with_profile::<S>(a, b)
}

/// Iteration multiplier: 1 normally, 4 under the CI stress toggle.
fn stress_factor() -> usize {
    if std::env::var("PB_WORKSPACE_STRESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        4
    } else {
        1
    }
}

fn unit(a: Csr<f64>) -> Csr<f64> {
    a.map_values(|_| 1.0)
}

/// Asserts two CSR products are identical to the bit.
fn assert_bit_identical(got: &Csr<f64>, want: &Csr<f64>, what: &str) {
    assert_eq!(got.rowptr(), want.rowptr(), "{what}: rowptr differs");
    assert_eq!(got.colidx(), want.colidx(), "{what}: colidx differs");
    assert_eq!(got.values(), want.values(), "{what}: values differ");
}

#[test]
fn same_shape_repeats_are_allocation_free_and_bit_exact() {
    let a = unit(rmat_square(8, 8, 61));
    let a_csc = a.to_csc();
    let fresh = multiply(&a_csc, &a, &PbConfig::default());
    let ws = Arc::new(Workspace::new());
    let rounds = 3 * stress_factor();
    for i in 0..rounds {
        let (c, p) =
            multiply_with_profile_reusing::<PlusTimes<f64>>(&a_csc, &a, &PbConfig::default(), &ws);
        assert_bit_identical(&c, &fresh, &format!("round {i}"));
        if i > 0 {
            assert_eq!(
                p.stats.bytes_allocated, 0,
                "round {i} allocated in steady state"
            );
            assert!(p.stats.workspace_hits > 0, "round {i} served no hits");
            assert!(p.stats.bytes_reused > 0);
        }
    }
    assert_eq!(ws.leases(), rounds as u64);
    assert_eq!(ws.bypasses(), 0);
}

#[test]
fn grow_shrink_and_domain_changes_stay_bit_exact() {
    // One workspace across growing, shrinking and re-partitioned
    // multiplies: every product must equal the fresh-allocation product of
    // the *same* configuration bit-for-bit.
    let small = unit(erdos_renyi_square(7, 4, 71));
    let large = unit(rmat_square(9, 8, 72));
    let medium = unit(erdos_renyi_square(8, 6, 73));
    let ws = Arc::new(Workspace::new());
    // (matrix, forced domain count): grow small -> large, shrink back,
    // change the domain partition mid-stream (1 -> 2 -> 4 needs a 4-thread
    // pool so resolve_domains does not clamp the partition away).
    let schedule: Vec<(&Csr<f64>, usize, &str)> = vec![
        (&small, 1, "small/1"),
        (&large, 2, "grow to large/2"),
        (&large, 4, "large again/4 domains"),
        (&medium, 2, "shrink to medium/2"),
        (&small, 4, "shrink to small/4"),
    ];
    for _ in 0..stress_factor() {
        for (m, domains, what) in &schedule {
            let cfg = PbConfig::default()
                .with_threads(4)
                .with_numa_domains(*domains);
            let m_csc = m.to_csc();
            let fresh = multiply(&m_csc, m, &cfg);
            let reused = multiply_reusing(&m_csc, m, &cfg, &ws);
            assert_bit_identical(&reused, &fresh, what);
        }
    }
    assert!(ws.total_bytes_reused() > 0, "nothing reused across the run");
}

// Named after the deleted ThreadLocal expand; the name stays so test histories line up.
#[test]
fn thread_local_strategy_reaches_the_same_steady_state() {
    // The one expand path draws its buffer and staging through the lease,
    // so a small ER product reaches the zero-allocation steady state.
    let a = unit(erdos_renyi_square(7, 5, 99));
    let a_csc = a.to_csc();
    let cfg = PbConfig::default();
    let fresh = multiply(&a_csc, &a, &cfg);
    let ws = Arc::new(Workspace::new());
    for i in 0..3 {
        let (c, p) = multiply_with_profile_reusing::<PlusTimes<f64>>(&a_csc, &a, &cfg, &ws);
        assert_bit_identical(&c, &fresh, &format!("round {i}"));
        if i > 0 {
            assert_eq!(p.stats.bytes_allocated, 0, "round {i}");
            assert!(p.stats.workspace_hits > 0);
        }
    }
}

#[test]
fn real_values_match_the_reference_through_reuse() {
    let a = rmat_square(8, 6, 81);
    let a_csc = a.to_csc();
    let expected = reference_multiply(&a, &a);
    let ws = Arc::new(Workspace::new());
    for _ in 0..2 * stress_factor() {
        let c = multiply_reusing(&a_csc, &a, &PbConfig::default(), &ws);
        assert!(csr_approx_eq(&c, &expected, 1e-9));
    }
}

#[test]
fn value_type_switch_mid_stream_rebuilds_and_stays_correct() {
    // f64 -> bool (OrAnd) -> f64 through one workspace: each switch drops
    // the incompatible pooled buffers and rebuilds, products stay right.
    let a = rmat_square(7, 4, 91);
    let a_csc = a.to_csc();
    let ws = Arc::new(Workspace::new());
    let cfg = PbConfig::default().with_workspace(ws.clone());

    let expected_f = reference_multiply(&a, &a);
    let c = multiply(&a_csc, &a, &cfg);
    assert!(csr_approx_eq(&c, &expected_f, 1e-9));

    let b = a.map_values(|_| true);
    let expected_b = pb_sparse::reference::multiply_csr_with::<OrAnd>(&b, &b);
    let pattern = SpGemm::pb()
        .config(cfg.clone())
        .multiply_csc_with::<OrAnd>(&b.to_csc(), &b);
    assert_eq!(pattern.rowptr(), expected_b.rowptr());
    assert_eq!(pattern.colidx(), expected_b.colidx());

    let c = multiply(&a_csc, &a, &cfg);
    assert!(csr_approx_eq(&c, &expected_f, 1e-9));
}

#[test]
fn concurrent_clones_share_one_workspace_safely() {
    // Several threads multiply through clones of one workspace-carrying
    // config simultaneously: whoever finds the buffers checked out falls
    // back to fresh allocation (a bypass), and every product is exact.
    let a = unit(rmat_square(7, 6, 95));
    let a_csc = a.to_csc();
    let fresh = multiply(&a_csc, &a, &PbConfig::default());
    let ws = Arc::new(Workspace::new());
    let cfg = PbConfig::default().with_workspace(ws.clone());
    let threads = 4 * stress_factor();
    let rounds = 3usize;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cfg = cfg.clone();
            let (a_csc, a, fresh) = (&a_csc, &a, &fresh);
            scope.spawn(move || {
                for _ in 0..rounds {
                    let c = multiply(a_csc, a, &cfg);
                    assert_eq!(c.rowptr(), fresh.rowptr());
                    assert_eq!(c.colidx(), fresh.colidx());
                    assert_eq!(c.values(), fresh.values());
                }
            });
        }
    });
    // Every multiply either leased or bypassed; nothing was lost.
    assert_eq!(
        ws.leases() + ws.bypasses(),
        (threads * rounds) as u64,
        "checkout accounting is exhaustive"
    );
    assert!(ws.leases() >= 1);
}

#[test]
fn masked_multiplies_reuse_the_workspace_across_iterations() {
    let a = unit(erdos_renyi_square(7, 6, 97));
    let a_csc = a.to_csc();
    let ws = Arc::new(Workspace::new());
    let cfg = PbConfig::default().with_workspace(ws.clone());
    let fresh = SpGemm::pb().mask(&a).multiply_csc(&a_csc, &a);
    for i in 0..3 * stress_factor() {
        let c = SpGemm::pb()
            .config(cfg.clone())
            .mask(&a)
            .multiply_csc(&a_csc, &a);
        assert_bit_identical(&c, &fresh, &format!("masked round {i}"));
    }
    assert!(
        ws.total_bytes_reused() > 0,
        "the masked pipeline never reused"
    );
}
