//! The cross-algorithm oracle matrix for the unified [`SpGemm`] engine:
//! every selectable kernel (auto/PB/all six baselines/reference) is run
//! through the same four scenarios — unit-valued exact products, masked
//! products, workspace-reused iteration, and 2- and 4-thread pools —
//! and must agree with the sequential reference oracle in each.  A final
//! set of tests pins down the planner: identical signals and identical
//! calibration must produce identical decisions, and the `PB_ALGORITHM`
//! environment selector (CI's fourth test-suite mode) must never change a
//! product.
//!
//! Unit-valued inputs make the agreement *bit*-exact: every merged sum adds
//! only 1.0s, so float reassociation cannot blur the comparison and any
//! divergence is a real kernel bug.

use std::sync::Arc;

use pb_spgemm_suite::baseline::Baseline;
use pb_spgemm_suite::gen::{erdos_renyi_square, rmat_square};
use pb_spgemm_suite::prelude::*;
use pb_spgemm_suite::sparse::ops::mask_by_pattern;
use pb_spgemm_suite::sparse::reference;

/// Every engine the oracle matrix sweeps: the planner, forced PB, all six
/// column baselines, and the reference implementation itself (which must
/// trivially agree with the oracle — a harness sanity check).
fn all_engines() -> Vec<SpGemm> {
    let mut engines = vec![SpGemm::auto(), SpGemm::pb()];
    engines.extend(Baseline::all().iter().map(|&b| SpGemm::baseline(b)));
    engines.push(SpGemm::reference());
    engines
}

fn unit(a: Csr<f64>) -> Csr<f64> {
    a.map_values(|_| 1.0)
}

fn assert_bit_identical(got: &Csr<f64>, want: &Csr<f64>, what: &str) {
    assert_eq!(got.rowptr(), want.rowptr(), "{what}: rowptr differs");
    assert_eq!(got.colidx(), want.colidx(), "{what}: colidx differs");
    assert_eq!(got.values(), want.values(), "{what}: values differ");
}

#[test]
fn oracle_matrix_unit_valued_products_are_bit_exact() {
    let inputs = [
        ("rmat", unit(rmat_square(8, 8, 21))),
        ("er", unit(erdos_renyi_square(8, 4, 22))),
    ];
    for (name, a) in &inputs {
        let expected = reference::multiply_csr(a, a);
        for engine in all_engines() {
            let c = engine.multiply(a, a);
            assert_bit_identical(&c, &expected, &format!("{}/{name}", engine.name()));
        }
    }
}

#[test]
fn oracle_matrix_masked_products_agree() {
    // Triangle-counting shape: mask = the input's own pattern.
    let a = unit(rmat_square(8, 6, 23));
    let expected = mask_by_pattern(&reference::multiply_csr(&a, &a), &a);
    for engine in all_engines() {
        let c = engine.mask(&a).multiply(&a, &a);
        assert_bit_identical(&c, &expected, &format!("{}/masked", engine.name()));
    }
}

#[test]
fn oracle_matrix_workspace_reuse_never_changes_a_product() {
    let a = unit(erdos_renyi_square(8, 6, 24));
    let expected = reference::multiply_csr(&a, &a);
    for engine in all_engines() {
        let name = engine.name().to_string();
        let engine = engine.with_iteration_workspace();
        for round in 0..3 {
            let c = engine.multiply(&a, &a);
            assert_bit_identical(&c, &expected, &format!("{name}/reuse round {round}"));
        }
        // A forced-PB engine must actually reuse.  Auto also carries the
        // workspace but only touches it when the planner picks PB, so only
        // presence is asserted there; baselines and the reference carry none.
        match engine.kind() {
            Algorithm::Pb => {
                let ws = engine.workspace_handle().expect("PB gained a workspace");
                assert!(
                    ws.total_bytes_reused() > 0,
                    "{name}: iteration workspace never reused"
                );
            }
            Algorithm::Auto => assert!(engine.workspace_handle().is_some(), "{name}"),
            _ => assert!(engine.workspace_handle().is_none(), "{name}"),
        }
    }
}

// Named after the deleted NUMA partition; the name stays so test histories line up.
#[test]
fn oracle_matrix_four_threads_two_domains_agree() {
    let a = unit(rmat_square(8, 8, 25));
    let expected = reference::multiply_csr(&a, &a);
    for threads in [2, 4] {
        for engine in all_engines() {
            let name = engine.name().to_string();
            let engine = engine.config(PbConfig::default().with_threads(threads));
            let c = engine.multiply(&a, &a);
            assert_bit_identical(&c, &expected, &format!("{name}/t{threads}"));
        }
    }
}

#[test]
fn planner_decisions_are_deterministic() {
    let a = rmat_square(8, 8, 26);
    let signals = Signals::measure(&a, &a, &PbConfig::default());

    // The same signals measured twice are identical (sampling is seeded by
    // structure, not by a clock).
    let again = Signals::measure(&a, &a, &PbConfig::default());
    assert_eq!(signals.cf_estimate, again.cf_estimate);
    assert_eq!(signals.row_skew, again.row_skew);
    assert_eq!(signals.bin_skew, again.bin_skew);
    assert_eq!(signals.flop, again.flop);

    // Two planners fed the same calibration decide identically, every time.
    let feed = |planner: &Planner| {
        for (i, &k) in PlannedKernel::candidates().iter().enumerate() {
            planner.observe(k, &signals, 0.010 + 0.002 * i as f64);
        }
    };
    let p1 = Planner::new();
    let p2 = Planner::new();
    feed(&p1);
    feed(&p2);
    let d1 = p1.decide(&signals);
    for _ in 0..8 {
        assert_eq!(p1.decide(&signals), d1, "a planner flip-flopped");
        assert_eq!(
            p2.decide(&signals),
            d1,
            "identically calibrated planners disagree"
        );
    }

    // The cold-start prior is deterministic too.
    assert_eq!(
        Planner::new().prior(&signals),
        Planner::new().prior(&signals)
    );
}

#[test]
fn calibration_table_roundtrips_through_its_text_form() {
    let a = rmat_square(7, 6, 27);
    let signals = Signals::measure(&a, &a, &PbConfig::default());
    let planner = Planner::new();
    for &k in PlannedKernel::candidates() {
        planner.observe(k, &signals, 0.005);
    }
    let dump = planner.dump_calibration();
    let restored = Planner::new();
    restored.load_calibration(&dump);
    assert_eq!(
        planner.decide(&signals),
        restored.decide(&signals),
        "a reloaded calibration table changed the decision"
    );
}

#[test]
fn env_selected_engine_matches_the_reference_oracle() {
    // CI's fifth suite mode runs everything under PB_ALGORITHM=auto; this
    // test keeps the env entry point itself honest in every mode — whatever
    // the variable selects (or doesn't), the product must be right.
    let a = unit(erdos_renyi_square(8, 5, 28));
    let expected = reference::multiply_csr(&a, &a);
    let engine = SpGemm::from_env();
    let c = engine.multiply(&a, &a);
    assert_bit_identical(&c, &expected, &format!("from_env -> {}", engine.name()));
}

#[test]
fn shared_planner_accumulates_observations_across_engines() {
    let planner = Arc::new(Planner::new());
    let a = unit(erdos_renyi_square(7, 4, 29));
    let e1 = SpGemm::auto().planner(planner.clone());
    let e2 = SpGemm::auto().planner(planner.clone());
    let expected = reference::multiply_csr(&a, &a);
    assert_bit_identical(&e1.multiply(&a, &a), &expected, "shared planner e1");
    assert_bit_identical(&e2.multiply(&a, &a), &expected, "shared planner e2");
    assert_eq!(planner.decisions(), 2);
    assert_eq!(planner.observations(), 2);
}
