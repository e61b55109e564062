//! Out-of-core tiled PB-SpGEMM vs the resident engine: on unit-valued
//! inputs every grid must reproduce the resident product bit-for-bit (the
//! tile accumulator's semiring adds commute exactly on small integers), a
//! starvation budget must spill to scratch while honouring the resident
//! bound, masked products must funnel through the same tiles, and the whole
//! pipeline must be deterministic on every pool size.

use pb_spgemm_suite::gen::{erdos_renyi_square, rmat_square};
use pb_spgemm_suite::prelude::*;
use pb_spgemm_suite::spgemm::{PbConfig, TiledConfig};

/// Strips a matrix to unit values so products are exact in f64.
fn unit_valued(a: &Csr<f64>) -> Csr<f64> {
    a.map_values(|_| 1.0)
}

/// Asserts two CSRs are bit-identical (structure and values).
fn assert_csr_exact(c: &Csr<f64>, expected: &Csr<f64>, context: &str) {
    assert_eq!(c.shape(), expected.shape(), "{context}: shape");
    assert_eq!(c.rowptr(), expected.rowptr(), "{context}: rowptr");
    assert_eq!(c.colidx(), expected.colidx(), "{context}: colidx");
    let exact = c
        .values()
        .iter()
        .zip(expected.values())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(exact, "{context}: values differ in bits");
}

#[test]
fn tiled_is_bit_identical_to_resident_across_grids() {
    let a = unit_valued(&rmat_square(8, 8, 21));
    let b = unit_valued(&erdos_renyi_square(8, 6, 4));
    let engine = SpGemm::pb();
    let resident = engine.multiply(&a, &b);
    for (p, q, r) in [(1, 1, 1), (2, 2, 2), (4, 1, 1), (1, 4, 2), (3, 5, 3)] {
        let cfg = TiledConfig::default().with_grid(p, q, r);
        let (tiled, report) = engine
            .multiply_tiled(&a, &b, &cfg)
            .expect("tiled multiply succeeds");
        assert_csr_exact(&tiled, &resident, &format!("grid {p}x{q}x{r}"));
        assert!(report.tiles_processed >= 1);
        assert!(
            report.tiles_processed <= (p * q * r) as u64,
            "grid {p}x{q}x{r}: more tile multiplies than grid cells"
        );
        assert_eq!(report.grid, (p, q, r));
    }
}

#[test]
fn starvation_budget_spills_and_respects_the_resident_bound() {
    let a = unit_valued(&rmat_square(8, 8, 5));
    let engine = SpGemm::pb();
    let resident = engine.multiply(&a, &a);

    let scratch = std::env::temp_dir().join("pb_tiled_ooc_test");
    std::fs::create_dir_all(&scratch).unwrap();
    // 4 KiB cannot hold one tile of a scale-8 product: every insert evicts,
    // every reuse refetches from the scratch file.
    let cfg = TiledConfig::new(4 * 1024)
        .with_grid(4, 4, 4)
        .with_scratch_dir(&scratch);
    let (tiled, report) = engine.multiply_tiled(&a, &a, &cfg).unwrap();
    assert_csr_exact(&tiled, &resident, "starved 4x4x4");
    assert!(report.spill_bytes > 0, "{report:?}");
    assert!(report.spilled_tiles > 0, "{report:?}");
    assert!(report.spill_fetches > 0, "{report:?}");
    assert!(
        report.within_budget_slack(),
        "resident high water {} exceeds budget {} + one tile {}",
        report.resident_high_water,
        report.budget_bytes,
        report.max_tile_bytes
    );
    // The report sums the tile multiplies' flush telemetry, tuples too:
    // every tile flushes each of its tuples once, and the tiles' flop
    // partitions the product's.
    let s = &report.stats;
    assert!(s.flushes > 0, "{s:?}");
    assert!(s.flushed_tuples >= s.flushes, "{s:?}");
    assert_eq!(
        s.flushed_tuples,
        pb_spgemm_suite::sparse::stats::flop_csr(&a, &a),
        "{s:?}"
    );

    // The scratch file is unlinked once the multiply's store is dropped.
    let leftovers: Vec<_> = std::fs::read_dir(&scratch)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name())
        .collect();
    assert!(leftovers.is_empty(), "scratch not cleaned: {leftovers:?}");
}

#[test]
fn masked_tiled_matches_masked_resident() {
    let a = unit_valued(&rmat_square(7, 8, 9));
    let mask = unit_valued(&erdos_renyi_square(7, 10, 2));
    let engine = SpGemm::pb();
    let resident = engine.mask(&mask).multiply(&a, &a);
    for (p, q, r) in [(1, 1, 1), (2, 2, 2), (4, 1, 1)] {
        let cfg = TiledConfig::default().with_grid(p, q, r);
        let (tiled, _) = engine.mask(&mask).multiply_tiled(&a, &a, &cfg).unwrap();
        assert_csr_exact(&tiled, &resident, &format!("masked grid {p}x{q}x{r}"));
    }
}

// Named after the deleted NUMA partition; the name stays so test histories line up.
#[test]
fn threads_and_numa_domains_do_not_change_a_single_bit() {
    let a = unit_valued(&erdos_renyi_square(8, 8, 17));
    let reference = SpGemm::pb().multiply(&a, &a);
    let cfg = TiledConfig::new(64 * 1024).with_grid(2, 3, 2);
    for threads in [1, 2, 4, 8] {
        let engine = SpGemm::pb().config(PbConfig::default().with_threads(threads));
        let (tiled, report) = engine.multiply_tiled(&a, &a, &cfg).unwrap();
        assert_csr_exact(&tiled, &reference, &format!("threads={threads}"));
        assert!(report.within_budget_slack());
    }
}

#[test]
fn determinism_hammer_repeats_are_identical() {
    // The same starved multiply, repeated: spill/fetch scheduling must
    // never leak into the numerics, and the report's grid and tile counts
    // are a function of the inputs alone.
    let a = unit_valued(&rmat_square(7, 6, 33));
    let engine = SpGemm::pb().config(PbConfig::default().with_threads(4));
    let cfg = TiledConfig::new(8 * 1024).with_grid(3, 2, 3);
    let (first, first_report) = engine.multiply_tiled(&a, &a, &cfg).unwrap();
    for round in 0..5 {
        let (again, report) = engine.multiply_tiled(&a, &a, &cfg).unwrap();
        assert_csr_exact(&again, &first, &format!("round {round}"));
        assert_eq!(report.grid, first_report.grid);
        assert_eq!(report.tiles_processed, first_report.tiles_processed);
        assert_eq!(report.accumulated_tuples, first_report.accumulated_tuples);
    }
}

#[test]
fn derived_grids_scale_with_the_budget() {
    // With no explicit grid the driver derives one from the operand bytes:
    // a generous budget runs resident in one tile, a tight one tiles up.
    let a = unit_valued(&erdos_renyi_square(9, 8, 3));
    let engine = SpGemm::pb();
    let resident = engine.multiply(&a, &a);

    let (one_tile, roomy) = engine
        .multiply_tiled(&a, &a, &TiledConfig::default())
        .unwrap();
    assert_eq!(roomy.grid, (1, 1, 1), "256 MiB budget should not tile");
    assert_csr_exact(&one_tile, &resident, "roomy budget");

    let (tiled, tight) = engine
        .multiply_tiled(&a, &a, &TiledConfig::new(64 * 1024))
        .unwrap();
    assert!(tight.grid.0 > 1, "64 KiB budget must tile: {tight:?}");
    assert_csr_exact(&tiled, &resident, "tight budget");
}
