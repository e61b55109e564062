//! Transparent-huge-page advice on the PB pipeline's large buffers: which
//! multiplies advise (and count) what, the multi-domain exception for the
//! tuple buffer, and bit-identity of pooled and fresh products across a
//! workspace's grow → decay → regrow cycle.
//!
//! The operand is a banded matrix: its square expands about `n·band²`
//! tuples but compresses to about `n·2·band` outputs, so the tuple buffer
//! clears the 8 MiB advice floor while the CSR output arrays stay under it,
//! and `huge_page_bytes` isolates the tuple buffer.

use std::sync::Arc;

use pb_gen::banded;
use pb_sparse::mmapio::{advise_huge_pages, HUGE_PAGE_BYTES, HUGE_PAGE_MIN_BYTES};
use pb_sparse::semiring::PlusTimes;
use pb_sparse::Csr;
use pb_spgemm::{Entry, PbConfig, SpGemm, SpGemmProfile, Workspace, DECAY_AFTER_LOW_LEASES};

/// Whether this host's kernel takes `MADV_HUGEPAGE` at all (Linux
/// x86-64/aarch64 with transparent huge pages compiled in).
fn thp_available() -> bool {
    let probe = vec![0u8; 2 * HUGE_PAGE_MIN_BYTES];
    advise_huge_pages(probe.as_ptr(), probe.len()) > 0
}

fn unit(a: Csr<f64>) -> Csr<f64> {
    a.map_values(|_| 1.0)
}

/// A 29 MB tuple buffer (1.8 M tuples) whose product is only 0.24 M
/// entries: 1.9 MB of values, 0.9 MB of column indices.
fn large() -> Csr<f64> {
    unit(banded(8192, 15, 7))
}

fn small() -> Csr<f64> {
    unit(banded(1024, 7, 8))
}

fn run(a: &Csr<f64>, cfg: &PbConfig) -> (Csr<f64>, SpGemmProfile) {
    SpGemm::pb()
        .config(cfg.clone())
        .multiply_with_profile::<PlusTimes<f64>>(a, a)
}

fn tuple_buffer_bytes(p: &SpGemmProfile) -> u64 {
    p.flop * std::mem::size_of::<Entry<f64>>() as u64
}

fn assert_bit_identical(got: &Csr<f64>, want: &Csr<f64>, what: &str) {
    assert_eq!(got.rowptr(), want.rowptr(), "{what}: rowptr differs");
    assert_eq!(got.colidx(), want.colidx(), "{what}: colidx differs");
    assert_eq!(got.values(), want.values(), "{what}: values differ");
}

#[test]
fn a_large_single_domain_product_advises_its_tuple_buffer() {
    let a = large();
    let cfg = PbConfig::default().with_threads(2).with_numa_domains(1);
    let (c, p) = run(&a, &cfg);
    let bytes = tuple_buffer_bytes(&p);
    assert!(
        bytes >= 2 * HUGE_PAGE_MIN_BYTES as u64,
        "tuple buffer {bytes}"
    );
    assert!(
        c.nnz() * std::mem::size_of::<f64>() < HUGE_PAGE_MIN_BYTES,
        "the output arrays must stay under the floor"
    );
    if thp_available() {
        // Only the 2 MiB-aligned interior of the buffer is advised.
        let advised = p.stats.huge_page_bytes;
        assert!(advised <= bytes, "advised {advised} of {bytes}");
        assert!(
            advised + 2 * HUGE_PAGE_BYTES as u64 > bytes,
            "advised {advised} of {bytes}"
        );
    } else {
        assert_eq!(p.stats.huge_page_bytes, 0);
    }
}

#[test]
fn a_forced_two_domain_product_keeps_its_tuple_buffer_on_small_pages() {
    let a = large();
    let cfg = PbConfig::default().with_threads(4).with_numa_domains(2);
    let (c, p) = run(&a, &cfg);
    assert_eq!(p.stats.numa_domains, 2, "the partition must really split");
    assert!(tuple_buffer_bytes(&p) >= 2 * HUGE_PAGE_MIN_BYTES as u64);
    assert_eq!(
        p.stats.huge_page_bytes, 0,
        "a multi-domain tuple buffer must not be advised"
    );
    let (single, _) = run(
        &a,
        &PbConfig::default().with_threads(4).with_numa_domains(1),
    );
    assert_bit_identical(&c, &single, "2 domains vs 1");
}

#[test]
fn small_products_advise_nothing() {
    let a = small();
    let (_, p) = run(
        &a,
        &PbConfig::default().with_threads(2).with_numa_domains(1),
    );
    assert!(tuple_buffer_bytes(&p) < HUGE_PAGE_MIN_BYTES as u64);
    assert_eq!(p.stats.huge_page_bytes, 0);
}

#[test]
fn pooled_and_fresh_products_agree_across_grow_decay_and_regrow() {
    let (big, little) = (large(), small());
    let cfg = PbConfig::default().with_threads(2).with_numa_domains(1);
    let fresh_big = run(&big, &cfg).0;
    let fresh_little = run(&little, &cfg).0;
    let ws = Arc::new(Workspace::new());
    let pooled = cfg.clone().with_workspace(ws.clone());
    let thp = thp_available();

    // Grow: the first multiply allocates every buffer and advises the
    // tuple buffer.
    let (c, p) = run(&big, &pooled);
    assert_bit_identical(&c, &fresh_big, "grow");
    assert_eq!(p.stats.huge_page_bytes > 0, thp, "grow");

    // Steady small traffic uses under half the capacity, so the workspace
    // halves its buffers after DECAY_AFTER_LOW_LEASES check-ins.  Until
    // then every buffer is recycled and nothing is advised again.
    for i in 0..DECAY_AFTER_LOW_LEASES {
        let (c, p) = run(&little, &pooled);
        assert_bit_identical(&c, &fresh_little, &format!("low lease {i}"));
        assert_eq!(p.stats.huge_page_bytes, 0, "recycled buffers, lease {i}");
    }
    assert_eq!(ws.decay_events(), 1, "the streak must decay once");

    // The decayed tuple buffer (half the big flop) is re-allocated by the
    // workspace, not grown by a multiply, so it stays on small pages.
    let (c, p) = run(&little, &pooled);
    assert_bit_identical(&c, &fresh_little, "after decay");
    assert_eq!(p.stats.bytes_allocated, 0, "the decayed buffer still fits");
    assert_eq!(p.stats.huge_page_bytes, 0, "after decay");

    // Regrow: the big shape no longer fits and re-allocates.
    let (c, p) = run(&big, &pooled);
    assert_bit_identical(&c, &fresh_big, "regrow");
    assert!(p.stats.bytes_allocated > 0, "regrow must allocate");
    assert_eq!(p.stats.huge_page_bytes > 0, thp, "regrow");

    // And the regrown buffers are recycled as before.
    let (c, p) = run(&big, &pooled);
    assert_bit_identical(&c, &fresh_big, "steady big");
    assert_eq!(p.stats.bytes_allocated, 0);
    assert_eq!(p.stats.huge_page_bytes, 0);
}
