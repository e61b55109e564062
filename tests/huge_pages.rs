//! Transparent-huge-page advice on the PB pipeline's large buffers: which
//! multiplies advise (and count) what, on every pool size, and
//! bit-identity of pooled and fresh products across a workspace's grow →
//! decay → regrow cycle.
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

/// Asserts that `p` advised its tuple buffer's 2 MiB-aligned interior when
/// the host takes the advice, and nothing otherwise.
fn assert_tuple_buffer_advised(p: &SpGemmProfile, what: &str) {
    let bytes = tuple_buffer_bytes(p);
    let advised = p.stats.huge_page_bytes;
    if thp_available() {
        assert!(advised <= bytes, "{what}: advised {advised} of {bytes}");
        assert!(
            advised + 2 * HUGE_PAGE_BYTES as u64 > bytes,
            "{what}: advised {advised} of {bytes}"
        );
    } else {
        assert_eq!(advised, 0, "{what}");
    }
}

fn assert_bit_identical(got: &Csr<f64>, want: &Csr<f64>, what: &str) {
    assert_eq!(got.rowptr(), want.rowptr(), "{what}: rowptr differs");
    assert_eq!(got.colidx(), want.colidx(), "{what}: colidx differs");
    assert_eq!(got.values(), want.values(), "{what}: values differ");
}

// Named after the deleted NUMA partition; the name stays so test histories line up.
#[test]
fn a_large_single_domain_product_advises_its_tuple_buffer() {
    let a = large();
    let (c, p) = run(&a, &PbConfig::default().with_threads(2));
    let bytes = tuple_buffer_bytes(&p);
    assert!(
        bytes >= 2 * HUGE_PAGE_MIN_BYTES as u64,
        "tuple buffer {bytes}"
    );
    assert!(
        c.nnz() * std::mem::size_of::<f64>() < HUGE_PAGE_MIN_BYTES,
        "the output arrays must stay under the floor"
    );
    // Only the 2 MiB-aligned interior of the buffer is advised.
    assert_tuple_buffer_advised(&p, "2 threads");
}

// Named after the deleted NUMA partition; the name stays so test histories line up.
#[test]
fn a_forced_two_domain_product_keeps_its_tuple_buffer_on_small_pages() {
    // A 4-thread product advises its tuple buffer as a 2-thread one does.
    let a = large();
    let (c, p) = run(&a, &PbConfig::default().with_threads(4));
    assert!(tuple_buffer_bytes(&p) >= 2 * HUGE_PAGE_MIN_BYTES as u64);
    assert_tuple_buffer_advised(&p, "4 threads");
    let (two, p2) = run(&a, &PbConfig::default().with_threads(2));
    assert_tuple_buffer_advised(&p2, "2 threads");
    assert_eq!(p.flop, p2.flop);
    assert_bit_identical(&c, &two, "4 threads vs 2");
}

#[test]
fn small_products_advise_nothing() {
    let a = small();
    let (_, p) = run(&a, &PbConfig::default().with_threads(2));
    assert!(tuple_buffer_bytes(&p) < HUGE_PAGE_MIN_BYTES as u64);
    assert_eq!(p.stats.huge_page_bytes, 0);
}

#[test]
fn pooled_and_fresh_products_agree_across_grow_decay_and_regrow() {
    // On 2 and 4 threads the bins sort concurrently into their carved
    // ranges of the pooled scratch, the halved one after decay included.
    for threads in [1, 2, 4] {
        grow_decay_regrow(threads);
    }
}

fn grow_decay_regrow(threads: usize) {
    let (big, little) = (large(), small());
    let cfg = PbConfig::default().with_threads(threads);
    let fresh_big = run(&big, &cfg).0;
    let fresh_little = run(&little, &cfg).0;
    let ws = Arc::new(Workspace::new());
    let pooled = cfg.clone().with_workspace(ws.clone());
    let thp = thp_available();

    // Grow: the first multiply allocates every buffer and advises the
    // tuple buffer.
    let (c, p) = run(&big, &pooled);
    assert_bit_identical(&c, &fresh_big, &format!("grow, {threads} threads"));
    assert_eq!(p.stats.huge_page_bytes > 0, thp, "grow, {threads} threads");

    // Steady small traffic uses under half the capacity, so the workspace
    // halves its buffers after DECAY_AFTER_LOW_LEASES check-ins.  Until
    // then every buffer is recycled and nothing is advised again.
    for i in 0..DECAY_AFTER_LOW_LEASES {
        let (c, p) = run(&little, &pooled);
        assert_bit_identical(
            &c,
            &fresh_little,
            &format!("low lease {i}, {threads} threads"),
        );
        assert_eq!(p.stats.huge_page_bytes, 0, "lease {i}, {threads} threads");
    }
    assert_eq!(ws.decay_events(), 1, "{threads} threads: one decay");

    // The decayed tuple buffer (half the big flop) is re-allocated by the
    // workspace, not grown by a multiply, so it stays on small pages.
    let (c, p) = run(&little, &pooled);
    assert_bit_identical(
        &c,
        &fresh_little,
        &format!("after decay, {threads} threads"),
    );
    assert_eq!(
        p.stats.bytes_allocated, 0,
        "{threads} threads: decayed fits"
    );
    assert_eq!(p.stats.huge_page_bytes, 0, "after decay, {threads} threads");

    // Regrow: the big shape no longer fits and re-allocates.
    let (c, p) = run(&big, &pooled);
    assert_bit_identical(&c, &fresh_big, &format!("regrow, {threads} threads"));
    assert!(
        p.stats.bytes_allocated > 0,
        "{threads} threads: regrow allocates"
    );
    assert_eq!(
        p.stats.huge_page_bytes > 0,
        thp,
        "regrow, {threads} threads"
    );

    // And the regrown buffers are recycled as before.
    let (c, p) = run(&big, &pooled);
    assert_bit_identical(&c, &fresh_big, &format!("steady big, {threads} threads"));
    assert_eq!(p.stats.bytes_allocated, 0, "steady big, {threads} threads");
    assert_eq!(p.stats.huge_page_bytes, 0, "steady big, {threads} threads");
}
