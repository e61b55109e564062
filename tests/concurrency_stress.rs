//! Concurrency stress tests: with the vendored rayon pool running *real*
//! threads, the expand phase's lock-free reserved flushes must assemble the
//! identical CSR product (sorted columns, duplicates merged) at every thread
//! count and local-bin width, equal to the sequential reference oracle.
//!
//! Integer-valued inputs make the comparison *exact*: semiring adds then
//! commute bit-for-bit, so any divergence is a real race, not float
//! reassociation.  A second layer checks random-valued inputs with the
//! usual tolerance, and a proptest layer sweeps random R-MAT/ER-style
//! matrices at >1 thread.

use proptest::prelude::*;

use pb_spgemm_suite::prelude::*;
use pb_spgemm_suite::sparse::reference::{csr_approx_eq, multiply_csr as reference_multiply};
use pb_spgemm_suite::spgemm::config::CACHE_LINE_BYTES;
use pb_spgemm_suite::spgemm::PbConfig;

/// Engine-backed stand-in for the retired `pb_spgemm::multiply` free
/// function: call sites stay unchanged while routing through the unified
/// [`SpGemm`] engine.
fn multiply(a: &Csc<f64>, b: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
    SpGemm::pb().config(cfg.clone()).multiply_csc(a, b)
}

/// The thread counts every differential test sweeps.  8 exceeds this
/// container's core count on purpose: oversubscription maximises
/// interleavings around the `fetch_add` flush reservations.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Strips a matrix to unit values so products are exact in f64.
fn unit_valued(a: &Csr<f64>) -> Csr<f64> {
    a.map_values(|_| 1.0)
}

/// Asserts two CSRs are bit-identical (structure and values).
fn assert_csr_exact(c: &Csr<f64>, expected: &Csr<f64>, context: &str) {
    assert_eq!(c.shape(), expected.shape(), "{context}: shape");
    assert_eq!(c.rowptr(), expected.rowptr(), "{context}: rowptr");
    assert_eq!(c.colidx(), expected.colidx(), "{context}: colidx");
    assert_eq!(c.values(), expected.values(), "{context}: values");
}

// Named after the deleted expand strategies; the name stays so test histories line up.
#[test]
fn expand_strategies_agree_exactly_across_thread_counts() {
    // Unit-valued inputs: every merged duplicate is a small integer sum, so
    // the product and the reference must match bit-for-bit.
    let inputs = [
        ("rmat", unit_valued(&rmat_square(9, 8, 7))),
        ("er", unit_valued(&erdos_renyi_square(9, 6, 11))),
    ];
    for (name, a) in &inputs {
        let expected = reference_multiply(a, a);
        let a_csc = a.to_csc();
        for &t in &THREADS {
            let cfg = PbConfig::default()
                .with_threads(t)
                // Small local bins force frequent concurrent flushes.
                .with_local_bin_bytes(64);
            let c = multiply(&a_csc, a, &cfg);
            assert_csr_exact(&c, &expected, &format!("{name}/threads={t}"));
        }
    }
}

#[test]
fn random_values_agree_with_reference_across_thread_counts() {
    // Random values: compare with tolerance (parallel merge order can
    // reassociate float adds) against the oracle.
    let a = rmat_square(9, 8, 13);
    let a_csc = a.to_csc();
    let expected = reference_multiply(&a, &a);
    for &t in &THREADS {
        let c = multiply(&a_csc, &a, &PbConfig::default().with_threads(t));
        assert!(
            csr_approx_eq(&c, &expected, 1e-9),
            "PB vs reference at {t} threads"
        );
        // Structure must match exactly regardless of value tolerance.
        assert_eq!(c.rowptr(), expected.rowptr(), "threads = {t}");
        assert_eq!(c.colidx(), expected.colidx(), "threads = {t}");
    }
}

#[test]
fn baselines_agree_under_a_shared_parallel_pool() {
    // The column baselines parallelise over rows; run them all inside one
    // dedicated 4-thread pool and diff against the sequential oracle.
    let a = rmat_square(9, 6, 17);
    let expected = reference_multiply(&a, &a);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    pool.install(|| {
        for baseline in Baseline::all() {
            let c = baseline.multiply(&a, &a);
            assert!(
                csr_approx_eq(&c, &expected, 1e-9),
                "{} in a 4-thread pool disagrees with the reference",
                baseline.name()
            );
        }
    });
}

#[test]
fn split_bin_compress_is_bit_exact_across_thread_counts() {
    // One- and two-bin products: fewer bins than the 4-thread pool has
    // threads, so some workers idle while each bin is sorted and
    // compressed whole by one worker.  The CSR — structure AND values —
    // must equal the reference oracle at 1 and 4 threads (CI re-runs this
    // whole suite under PB_RAYON_THREADS=4 as well, covering the
    // global-pool paths).  Unit values make the comparison exact.
    let inputs = [
        ("rmat", unit_valued(&rmat_square(9, 8, 29))),
        ("er", unit_valued(&erdos_renyi_square(9, 8, 31))),
    ];
    for (name, a) in &inputs {
        let expected = reference_multiply(a, a);
        let a_csc = a.to_csc();
        for &t in &[1usize, 4] {
            for nbins in [1usize, 2] {
                let cfg = PbConfig::default().with_threads(t).with_nbins(nbins);
                let c = multiply(&a_csc, a, &cfg);
                assert_csr_exact(&c, &expected, &format!("{name}/threads={t}/nbins={nbins}"));
            }
        }
    }
}

// Named after the deleted AutoTune policy; the name stays so test histories line up.
#[test]
fn auto_tuned_config_is_race_free_and_correct_under_threads() {
    // Local bins from one cache line to 32 at 4 threads: narrow bins
    // flush often, so every width's product must stay exact.
    let a = unit_valued(&rmat_square(8, 8, 37));
    let a_csc = a.to_csc();
    let expected = reference_multiply(&a, &a);
    for lines in [1usize, 2, 4, 8, 16, 32] {
        let cfg = PbConfig::default()
            .with_threads(4)
            .with_local_bin_bytes(lines * CACHE_LINE_BYTES);
        let c = multiply(&a_csc, &a, &cfg);
        assert_csr_exact(&c, &expected, &format!("{lines} cache lines"));
    }
}

#[test]
fn domain_partitioned_multiplies_are_bit_identical_to_single_domain() {
    // NUMA-domain partitioning only changes *where* expanded tuples are
    // buffered; the logical bins (and therefore the sorted, compressed,
    // assembled product) must be identical.  Unit values make the
    // comparison exact down to the last bit.
    let inputs = [
        ("rmat", unit_valued(&rmat_square(9, 8, 43))),
        ("er", unit_valued(&erdos_renyi_square(9, 6, 47))),
    ];
    for (name, a) in &inputs {
        let expected = reference_multiply(a, a);
        let a_csc = a.to_csc();
        for &t in &[2usize, 4] {
            let single = multiply(
                &a_csc,
                a,
                &PbConfig::default().with_threads(t).with_numa_domains(1),
            );
            assert_csr_exact(&single, &expected, &format!("{name}/threads={t}/domains=1"));
            for &domains in &[2usize, 4] {
                let cfg = PbConfig::default()
                    .with_threads(t)
                    .with_numa_domains(domains)
                    // Tiny local bins maximise flush frequency, and with it
                    // the chance for any segment-routing race to surface.
                    .with_local_bin_bytes(64);
                let c = multiply(&a_csc, a, &cfg);
                assert_csr_exact(
                    &c,
                    &single,
                    &format!("{name}/threads={t}/domains={domains}"),
                );
            }
        }
    }
}

#[test]
fn domain_partitioned_real_values_are_exact_without_collisions_and_close_with() {
    // A permutation matrix with random weights: every output entry is a
    // single product, so no semiring add ever reorders and the
    // domain-partitioned product must equal the single-domain one
    // bit-for-bit even with real values.
    let n = 512usize;
    let entries: Vec<(usize, usize, f64)> = (0..n)
        .map(|i| (i, (i * 331) % n, 0.5 + (i as f64) * 0.125))
        .collect();
    let perm = Coo::from_entries(n, n, entries).unwrap().to_csr();
    let perm_csc = perm.to_csc();
    let base = PbConfig::default()
        .with_threads(4)
        .with_nbins(8)
        .with_local_bin_bytes(64);
    let single = multiply(&perm_csc, &perm, &base.clone().with_numa_domains(1));
    let parted = multiply(&perm_csc, &perm, &base.clone().with_numa_domains(2));
    assert_csr_exact(&parted, &single, "collision-free real values");
    assert_csr_exact(
        &parted,
        &reference_multiply(&perm, &perm),
        "collision-free vs reference",
    );

    // With duplicate (row, col) keys the accumulation order inside an
    // equal-key run depends on flush interleaving — exactly as it already
    // does between two runs of the *same* single-domain configuration — so
    // real values compare with tolerance while the structure stays exact.
    let a = rmat_square(9, 8, 53);
    let a_csc = a.to_csc();
    let expected = reference_multiply(&a, &a);
    let single = multiply(&a_csc, &a, &base.clone().with_numa_domains(1));
    let parted = multiply(&a_csc, &a, &base.clone().with_numa_domains(2));
    assert_eq!(parted.rowptr(), single.rowptr());
    assert_eq!(parted.colidx(), single.colidx());
    assert!(csr_approx_eq(&parted, &expected, 1e-9));
}

#[test]
fn domain_partitioned_masked_multiply_is_bit_identical() {
    // The masked pipeline shares the expand phase, so domain partitioning
    // must leave it bit-identical too (unit values, mask = input pattern —
    // the triangle-counting shape).
    let a = unit_valued(&rmat_square(9, 6, 59));
    let a_csc = a.to_csc();
    for &t in &[2usize, 4] {
        let base = PbConfig::default().with_threads(t).with_local_bin_bytes(64);
        let single = SpGemm::pb()
            .config(base.clone().with_numa_domains(1))
            .mask(&a)
            .multiply_csc(&a_csc, &a);
        let parted = SpGemm::pb()
            .config(base.clone().with_numa_domains(2))
            .mask(&a)
            .multiply_csc(&a_csc, &a);
        assert_csr_exact(&parted, &single, &format!("masked/threads={t}"));
    }
}

/// The ISSUE's forced-topology determinism hammer: PB_NUMA_DOMAINS=2-style
/// partitioning (forced via the config override, which is exactly what the
/// env variable sets up) on a 4-thread pool, repeated — the assembled CSR
/// must never depend on flush interleaving or on which domain's worker
/// stole whose block.  CI additionally re-runs this whole suite with
/// PB_NUMA_DOMAINS=2 and PB_RAYON_THREADS=4 exported, covering the
/// env-driven global-pool path.
#[test]
fn forced_two_domain_four_thread_runs_are_deterministic() {
    let a = unit_valued(&rmat_square(8, 10, 61));
    let a_csc = a.to_csc();
    let cfg = PbConfig::default()
        .with_threads(4)
        .with_numa_domains(2)
        .with_local_bin_bytes(64);
    let first = multiply(&a_csc, &a, &cfg);
    assert_csr_exact(
        &first,
        &reference_multiply(&a, &a),
        "forced-domain hammer vs reference",
    );
    for round in 0..8 {
        let again = multiply(&a_csc, &a, &cfg);
        assert_csr_exact(&again, &first, &format!("forced-domain round {round}"));
    }
}

#[test]
fn repeated_runs_are_deterministic_at_fixed_thread_count() {
    // The assembled CSR must not depend on flush interleaving: run the same
    // multiplication many times at 4 threads and require identical output.
    let a = unit_valued(&rmat_square(8, 10, 23));
    let a_csc = a.to_csc();
    let cfg = PbConfig::default().with_threads(4).with_local_bin_bytes(64);
    let first = multiply(&a_csc, &a, &cfg);
    for round in 0..8 {
        let again = multiply(&a_csc, &a, &cfg);
        assert_csr_exact(&again, &first, &format!("round {round}"));
    }
}

/// Proptest strategy: a small random square matrix, R-MAT-flavoured or
/// ER-flavoured, with unit values for exact comparison.
fn random_square() -> impl Strategy<Value = Csr<f64>> {
    (
        5u32..=8,   // scale: 32..256 rows
        2u32..=8,   // edge factor
        0u64..1000, // seed
    )
        .prop_map(|(scale, ef, seed)| {
            // Alternate family by seed parity (the shim has no bool strategy).
            let a = if seed % 2 == 0 {
                rmat_square(scale, ef, seed)
            } else {
                erdos_renyi_square(scale, ef, seed)
            };
            a.map_values(|_| 1.0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At >1 thread, PB reproduces the reference product exactly on
    /// arbitrary random R-MAT/ER inputs.
    #[test]
    fn parallel_pb_matches_reference_on_random_graphs(
        a in random_square(),
        threads in 2usize..=8,
    ) {
        let expected = reference_multiply(&a, &a);
        let a_csc = a.to_csc();
        let cfg = PbConfig::default()
            .with_threads(threads)
            .with_local_bin_bytes(64);
        let c = multiply(&a_csc, &a, &cfg);
        prop_assert_eq!(c.rowptr(), expected.rowptr(), "rowptr");
        prop_assert_eq!(c.colidx(), expected.colidx(), "colidx");
        prop_assert_eq!(c.values(), expected.values(), "values");
    }
}
