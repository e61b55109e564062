//! # pb-spgemm — bandwidth-optimised SpGEMM with propagation blocking
//!
//! This crate implements **PB-SpGEMM**, the outer-product
//! expand–sort–compress sparse matrix–matrix multiplication of
//!
//! > Gu, Moreira, Edelsohn, Azad — *Bandwidth-Optimized Parallel Algorithms
//! > for Sparse Matrix-Matrix Multiplication using Propagation Blocking*,
//! > SPAA 2020.
//!
//! The multiplication `C = A·B` proceeds in four phases (Algorithm 2 of the
//! paper), each of which streams memory and therefore runs at close to the
//! machine's STREAM bandwidth:
//!
//! 1. **Symbolic** ([`symbolic`]) — a streaming pass over the offset arrays
//!    counts the flop of the multiplication, derives the number of
//!    propagation bins so that one bin fits in L2 cache, and sizes each bin
//!    exactly.
//! 2. **Expand** ([`expand`]) — outer products `A(:,i) × B(i,:)` generate
//!    `(row, col, value)` tuples which are *propagation-blocked*: buffered
//!    in small thread-private local bins and flushed to the per-row-range
//!    global bins in cache-line-sized chunks.
//! 3. **Sort** ([`sort`]) — every bin is radix-sorted in cache on a packed
//!    `(row, col)` key whose width adapts to the bin geometry.
//! 4. **Compress** ([`compress`]) + **assemble** ([`assemble`]) — duplicates
//!    are merged with a two-pointer scan and the result is written out as
//!    CSR.
//!
//! # Quick start
//!
//! There is exactly one blessed way to multiply: the [`SpGemm`] engine.
//!
//! ```
//! use pb_spgemm::SpGemm;
//! use pb_sparse::{Coo, Csr};
//!
//! let a: Csr<f64> = Coo::from_entries(4, 4, vec![
//!     (0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0), (3, 0, 5.0),
//! ]).unwrap().to_csr();
//!
//! let c = SpGemm::pb().multiply(&a, &a);
//! assert_eq!(c.nnz(), 4);                  // a permutation squared
//! assert_eq!(c.get(0, 2), Some(6.0));      // 2.0 * 3.0 along 0 -> 1 -> 2
//! ```
//!
//! `SpGemm::auto()` instead lets the telemetry-driven [`Planner`] pick
//! between PB-SpGEMM and the column baselines per multiply, from cheap
//! symbolic signals plus a persisted per-host calibration table.  The
//! algorithm is generic over a [`pb_sparse::Semiring`], so the same kernel
//! serves numeric SpGEMM, boolean reachability, tropical (min-plus)
//! products and counting semirings — see [`SpGemm::multiply_with`].
//!
//! The pre-engine free functions (`multiply`, `multiply_with`, …) have been
//! removed after their one-release deprecation window; `docs/API.md` keeps
//! the historical migration table mapping each one to its engine
//! equivalent.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assemble;
pub mod bins;
pub mod compress;
pub mod config;
pub mod engine;
pub mod error;
pub mod expand;
pub mod masked;
pub mod planner;
pub mod profile;
pub mod simd;
pub mod sort;
pub mod symbolic;
pub mod tiled;
pub mod trace;
pub mod workspace;

pub use bins::{BinLayout, BinnedTuples, Entry};
pub use config::PbConfig;
pub use engine::{Algorithm, Masked, ProfileSink, SpGemm, ALGORITHM_ENV};
pub use error::{validate_env, PbError};
pub use planner::{PlannedKernel, Planner, Signals};
pub use profile::{IsaDispatch, Phase, PhaseStats, PhaseTimings, SpGemmProfile, StatsCollector};
pub use simd::{Isa, SIMD_ENV};
pub use tiled::{TileKey, TileStore, TiledConfig, TiledReport, OOC_BUDGET_ENV};
pub use trace::{
    ChromeTraceSummary, EventKind, HistogramSnapshot, LatencyHistogram, SpanName, TraceEvent,
    TraceSnapshot, LATENCY_BUCKETS, TRACE_ENV, TRACE_EVENTS_ENV,
};
pub use workspace::{Workspace, DECAY_AFTER_LOW_LEASES};

use std::time::Instant;

use pb_sparse::semiring::Semiring;
use pb_sparse::{Csc, Csr, Scalar};

/// The PB pipeline primitive: `A` in CSC, `B` in CSR, an optional output
/// mask, result plus per-phase profile.  Every PB multiply the [`SpGemm`]
/// engine runs, masked or not, funnels through here, so there is exactly
/// one implementation to trust.
///
/// The phases run on the pool `config` requests: a dedicated pool of
/// [`PbConfig::threads`] threads when set, the calling thread's current
/// pool otherwise.
pub(crate) fn pb_multiply_with_profile<S: Semiring, M: Scalar>(
    a: &Csc<S::Elem>,
    b: &Csr<S::Elem>,
    mask: Option<&Csr<M>>,
    config: &PbConfig,
) -> (Csr<S::Elem>, SpGemmProfile) {
    let run = || run_phases::<S, M>(a, b, mask, config);
    match config.threads {
        Some(t) => {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("failed to build rayon pool");
            // The closure may run on a pool worker: forward the caller's
            // correlation id so the phase spans emitted inside still carry
            // the originating request.
            let corr = trace::current_corr();
            pool.install(|| trace::with_corr(corr, run))
        }
        None => run(),
    }
}

/// The phase sequence.  With a `mask`, the compress phase ends with the
/// mask stage ([`masked::apply_mask`]): it runs inside the compress
/// `Instant` window, so [`PhaseTimings::compress`] covers both, and under
/// its own `phase.mask` span nested in `phase.compress`, so a trace still
/// tells the two apart.
fn run_phases<S: Semiring, M: Scalar>(
    a: &Csc<S::Elem>,
    b: &Csr<S::Elem>,
    mask: Option<&Csr<M>>,
    config: &PbConfig,
) -> (Csr<S::Elem>, SpGemmProfile) {
    let tuple_bytes = BinnedTuples::<S::Elem>::tuple_bytes();
    let stats = StatsCollector::new();
    // Resolve the SIMD dispatch level once per multiply and stamp it into
    // the telemetry; the kernel counters recorded below prove it ran.
    let isa = config.resolve_simd();
    stats.record_isa(isa);
    // The multiply's working memory: recycled from the configured
    // workspace, or fresh throwaway buffers — the *same* pipeline code runs
    // either way, so reuse can never change the product.
    let mut lease = workspace::WorkspaceLease::<S::Elem>::acquire(config.workspace.clone());

    // Each phase span brackets exactly the `Instant` window feeding
    // `PhaseTimings`, so the trace and the aggregate telemetry agree on
    // what "the expand phase" cost (tests hold them to within 5%).
    let span = trace::span(trace::SpanName::PhaseSymbolic);
    let t0 = Instant::now();
    let sym = symbolic::symbolic(a, b, config, tuple_bytes);
    let t_symbolic = t0.elapsed();
    drop(span);
    stats.record_bin_flop(&sym.bin_flop);

    let span = trace::span(trace::SpanName::PhaseExpand);
    let t1 = Instant::now();
    let mut tuples = expand::expand::<S>(a, b, &sym, config, &stats, &mut lease);
    let t_expand = t1.elapsed();
    drop(span);

    let span = trace::span(trace::SpanName::PhaseSort);
    let t2 = Instant::now();
    sort_with_lease::<S>(&mut tuples, &sym, config, &stats, &mut lease);
    let t_sort = t2.elapsed();
    drop(span);

    let span = trace::span(trace::SpanName::PhaseCompress);
    let t3 = Instant::now();
    compress::compress_bins::<S>(&mut tuples);
    if let Some(mask) = mask {
        let _span = trace::span(trace::SpanName::PhaseMask);
        masked::apply_mask(&mut tuples, mask);
    }
    let t_compress = t3.elapsed();
    drop(span);

    let span = trace::span(trace::SpanName::PhaseAssemble);
    let t4 = Instant::now();
    let c = assemble::assemble_reusing(&tuples, &stats, &mut lease);
    let t_assemble = t4.elapsed();
    drop(span);
    lease.release(tuples);

    let profile = SpGemmProfile {
        timings: PhaseTimings {
            symbolic: t_symbolic,
            expand: t_expand,
            sort: t_sort,
            compress: t_compress,
            assemble: t_assemble,
        },
        flop: sym.flop,
        nnz_a: a.nnz(),
        nnz_b: b.nnz(),
        nnz_c: c.nnz(),
        nbins: sym.layout.nbins,
        key_bytes: sym.layout.key_bytes(),
        tuple_bytes,
        coo_bytes: pb_sparse::stats::bytes_per_tuple::<S::Elem>(),
        stats: stats.snapshot(),
    };
    (c, profile)
}

/// Runs the sort phase with the workspace's pooled scratch, carved at the
/// bin offsets, when the lease is backed by a persistent [`Workspace`] and
/// the LSD radix sort uses scratch at all (some bin above the
/// insertion-sort threshold).
///
/// Fresh (workspace-less) leases keep the lazy per-bin heap scratch inside
/// [`sort::sort_bins_with`]: an upfront zero-fill of `flop` entries only
/// pays for itself when amortised across multiplies, and on a throwaway
/// buffer it would roughly double the sort phase's memory traffic for
/// nothing.
fn sort_with_lease<S: Semiring>(
    tuples: &mut BinnedTuples<S::Elem>,
    sym: &symbolic::Symbolic,
    config: &PbConfig,
    stats: &StatsCollector,
    lease: &mut workspace::WorkspaceLease<S::Elem>,
) {
    let needs_scratch =
        lease.is_pooled() && sym.bin_flop.iter().any(|&f| f as usize > sort::SMALL_SORT);
    let zero = Entry {
        key: 0,
        val: S::zero(),
    };
    let scratch = needs_scratch.then(|| lease.prepare_scratch(sym.flop as usize, zero, stats));
    sort::sort_bins_with(tuples, config.resolve_simd(), stats, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_baseline::Baseline;
    use pb_gen::{banded, erdos_renyi_square, rmat_square, standin_scaled};
    use pb_sparse::reference::{
        csr_approx_eq, multiply_csr as reference_multiply, multiply_csr_with,
    };
    use pb_sparse::semiring::{MinPlus, OrAnd, PlusTimes};
    use pb_sparse::Coo;

    /// A PB engine with the given configuration — the test-suite spelling
    /// of "run the pipeline with these knobs".
    fn pb(config: &PbConfig) -> SpGemm {
        SpGemm::pb().config(config.clone())
    }

    fn check_against_reference(a: &Csr<f64>, config: &PbConfig) {
        let expected = reference_multiply(a, a);
        let c = pb(config).multiply_csc(&a.to_csc(), a);
        assert!(
            csr_approx_eq(&c, &expected, 1e-9),
            "PB-SpGEMM disagrees with the reference (config {config:?})"
        );
    }

    #[test]
    fn matches_reference_on_er_matrices() {
        for (scale, ef, seed) in [(7u32, 4u32, 1u64), (8, 8, 2), (9, 2, 3)] {
            let a = erdos_renyi_square(scale, ef, seed);
            check_against_reference(&a, &PbConfig::default());
        }
    }

    #[test]
    fn matches_reference_on_rmat_and_banded_matrices() {
        let rm = rmat_square(8, 8, 4);
        check_against_reference(&rm, &PbConfig::default());
        let bd = banded(300, 19, 5);
        check_against_reference(&bd, &PbConfig::default());
    }

    #[test]
    fn matches_reference_on_table_vi_standins() {
        for name in ["scircuit", "mc2depi"] {
            let a = standin_scaled(name, 0.005, 6);
            check_against_reference(&a, &PbConfig::default());
        }
    }

    #[test]
    fn all_configuration_combinations_agree() {
        let a = erdos_renyi_square(7, 6, 7);
        let expected = reference_multiply(&a, &a);
        for nbins in [1usize, 3, 16, 128] {
            let cfg = PbConfig::default().with_nbins(nbins);
            let c = pb(&cfg).multiply_csc(&a.to_csc(), &a);
            assert!(
                csr_approx_eq(&c, &expected, 1e-9),
                "mismatch for nbins={nbins}"
            );
        }
    }

    #[test]
    fn agrees_with_all_baselines() {
        let a = rmat_square(8, 6, 8);
        let pb = SpGemm::pb().multiply(&a, &a);
        for baseline in Baseline::all() {
            let other = SpGemm::baseline(*baseline).multiply(&a, &a);
            assert!(
                csr_approx_eq(&pb, &other, 1e-9),
                "PB-SpGEMM disagrees with {}",
                baseline.name()
            );
        }
    }

    #[test]
    fn rectangular_multiplication() {
        // 128x64 times 64x32.
        let a = pb_gen::erdos_renyi(&pb_gen::ErConfig {
            nrows: 128,
            ncols: 64,
            nnz_per_col: 4,
            seed: 9,
            random_values: true,
        });
        let b = pb_gen::erdos_renyi(&pb_gen::ErConfig {
            nrows: 64,
            ncols: 32,
            nnz_per_col: 3,
            seed: 10,
            random_values: true,
        });
        let expected = reference_multiply(&a, &b);
        let c = SpGemm::pb().multiply(&a, &b);
        assert_eq!(c.shape(), (128, 32));
        assert!(csr_approx_eq(&c, &expected, 1e-9));
    }

    #[test]
    fn other_semirings() {
        let a = erdos_renyi_square(7, 4, 11);
        let a_csc = a.to_csc();

        let bool_a = a.map_values(|_| true);
        let pattern = SpGemm::pb().multiply_with::<OrAnd>(&bool_a, &bool_a);
        let expected = multiply_csr_with::<OrAnd>(&bool_a, &bool_a);
        assert_eq!(pattern.rowptr(), expected.rowptr());
        assert_eq!(pattern.colidx(), expected.colidx());

        let dist = SpGemm::pb().multiply_csc_with::<MinPlus>(&a_csc, &a);
        let expected = multiply_csr_with::<MinPlus>(&a, &a);
        assert!(csr_approx_eq(&dist, &expected, 1e-12));
    }

    #[test]
    fn explicit_thread_counts_give_identical_structure() {
        let a = erdos_renyi_square(8, 4, 12);
        let expected = reference_multiply(&a, &a);
        for threads in [1usize, 2, 4] {
            let c = SpGemm::pb().threads(threads).multiply(&a, &a);
            assert!(csr_approx_eq(&c, &expected, 1e-9), "threads = {threads}");
        }
    }

    #[test]
    fn profile_reports_consistent_statistics() {
        let a = erdos_renyi_square(8, 8, 13);
        let cfg = PbConfig::default().with_nbins(32);
        let (c, profile) = pb(&cfg).multiply_csc_with_profile::<PlusTimes<f64>>(&a.to_csc(), &a);
        assert_eq!(profile.nnz_c, c.nnz());
        assert_eq!(profile.nnz_a, a.nnz());
        assert_eq!(profile.flop, pb_sparse::stats::flop_csr(&a, &a));
        assert_eq!(profile.nbins, 32);
        assert!(profile.cf() >= 1.0);
        assert!(profile.timings.total().as_nanos() > 0);
        assert!(profile.gflops() > 0.0);
        assert!(profile.summary().contains("nbins=32"));
    }

    #[test]
    fn workspace_reuse_is_allocation_free_and_exact_in_steady_state() {
        // Unit values make the merged sums order-independent, so the reused
        // and fresh products can be compared bit-for-bit even on a real
        // multi-thread pool.
        let a = rmat_square(8, 6, 51).map_values(|_| 1.0);
        let a_csc = a.to_csc();
        let fresh = SpGemm::pb().multiply_csc(&a_csc, &a);
        let ws = std::sync::Arc::new(Workspace::new());
        let engine = SpGemm::pb().workspace(std::sync::Arc::clone(&ws));
        let mut profiles = Vec::new();
        for _ in 0..4 {
            let (c, p) = engine.multiply_csc_with_profile::<PlusTimes<f64>>(&a_csc, &a);
            assert_eq!(c.rowptr(), fresh.rowptr());
            assert_eq!(c.colidx(), fresh.colidx());
            assert_eq!(c.values(), fresh.values());
            profiles.push(p);
        }
        // First multiply populates the workspace...
        assert!(profiles[0].stats.bytes_allocated > 0);
        assert_eq!(profiles[0].stats.bytes_reused, 0);
        // ...and every repeat runs the expand + sort phases without heap
        // allocation, serving all buffers from recycled capacity.
        for p in &profiles[1..] {
            assert_eq!(p.stats.bytes_allocated, 0, "steady state allocates");
            assert!(p.stats.bytes_reused > 0);
            assert!(p.stats.workspace_hits > 0);
        }
        assert_eq!(ws.leases(), 4);
        assert_eq!(ws.bypasses(), 0);
        assert!(ws.total_bytes_reused() > 0);
    }

    #[test]
    fn forced_isa_levels_produce_bitwise_identical_products_and_prove_dispatch() {
        // The success criterion of the SIMD work: every dispatch level the
        // host supports yields a *bit-identical* product (the kernels only
        // reorder bookkeeping, never arithmetic), and the telemetry proves
        // which path actually ran rather than trusting the build flags.
        let a = rmat_square(8, 8, 61).map_values(|_| 1.0);
        let a_csc = a.to_csc();
        let oracle_cfg = PbConfig::default().with_simd(simd::Isa::Scalar);
        let (oracle, _) = pb_multiply_with_profile::<pb_sparse::semiring::PlusTimes<f64>, f64>(
            &a_csc,
            &a,
            None,
            &oracle_cfg,
        );
        for isa in simd::Isa::supported() {
            let cfg = PbConfig::default().with_simd(isa);
            let (c, profile) = pb_multiply_with_profile::<pb_sparse::semiring::PlusTimes<f64>, f64>(
                &a_csc, &a, None, &cfg,
            );
            assert_eq!(c.rowptr(), oracle.rowptr(), "{isa}: rowptr differs");
            assert_eq!(c.colidx(), oracle.colidx(), "{isa}: colidx differs");
            assert_eq!(c.values(), oracle.values(), "{isa}: values differ");
            let d = profile.stats.isa;
            assert_eq!(d.isa, isa, "telemetry must stamp the forced level");
            if isa == simd::Isa::Scalar {
                assert_eq!(d.simd_histograms, 0);
                assert_eq!(d.prefetched_scatters, 0);
                assert_eq!(d.prefetched_flushes, 0);
            } else {
                assert!(d.simd_histograms > 0, "{isa}: no SIMD histogram ran");
                assert!(d.prefetched_scatters > 0, "{isa}: no scatter prefetch");
                assert!(d.prefetched_flushes > 0, "{isa}: no flush prefetch");
            }
        }
    }

    #[test]
    fn identity_and_permutation_products() {
        let id = Csr::<f64>::identity(64);
        let a = erdos_renyi_square(6, 4, 15);
        let c = SpGemm::pb().multiply(&id, &a);
        assert!(csr_approx_eq(&c, &a, 1e-12));
        let c = SpGemm::pb().multiply(&a, &id);
        assert!(csr_approx_eq(&c, &a, 1e-12));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Csr<f64> = Csr::empty(10, 10);
        let c = SpGemm::pb().multiply(&empty, &empty);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), (10, 10));

        let single = Coo::from_entries(1, 1, vec![(0, 0, 3.0)]).unwrap().to_csr();
        let c = SpGemm::pb().multiply(&single, &single);
        assert_eq!(c.get(0, 0), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mismatched_shapes_panic() {
        let a: Csr<f64> = Csr::empty(4, 5);
        let b: Csr<f64> = Csr::empty(6, 4);
        let _ = SpGemm::pb().multiply_csc(&a.to_csc(), &b);
    }
}
