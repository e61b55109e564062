//! Per-phase instrumentation: wall-clock timings, the data-movement model of
//! Table III, the derived bandwidth / FLOPS rates used throughout the
//! paper's evaluation (Figs. 6, 7b, 9b, 13), and the runtime telemetry
//! ([`PhaseStats`] / [`StatsCollector`]) the benchmarks and the planner
//! read.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Wall-clock time spent in each phase of one PB-SpGEMM multiplication.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Symbolic phase (flop counting + bin sizing).
    pub symbolic: Duration,
    /// Expand phase (outer products + propagation blocking).
    pub expand: Duration,
    /// Sort phase (per-bin radix sort).
    pub sort: Duration,
    /// Compress phase (per-bin two-pointer merge).
    pub compress: Duration,
    /// CSR assembly.
    pub assemble: Duration,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.symbolic + self.expand + self.sort + self.compress + self.assemble
    }
}

/// The phases of PB-SpGEMM, used to index per-phase reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Symbolic phase.
    Symbolic,
    /// Expand phase.
    Expand,
    /// Sort phase.
    Sort,
    /// Compress phase.
    Compress,
    /// CSR assembly.
    Assemble,
}

impl Phase {
    /// The three data-movement-heavy phases the paper reports bandwidth for.
    pub fn paper_phases() -> &'static [Phase] {
        &[Phase::Expand, Phase::Sort, Phase::Compress]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Symbolic => "symbolic",
            Phase::Expand => "expand",
            Phase::Sort => "sort",
            Phase::Compress => "compress",
            Phase::Assemble => "assemble",
        }
    }
}

/// Number of buckets of the flush-fill histogram: bucket `i` counts flushes
/// that filled `(i/8, (i+1)/8]` of the local-bin capacity, so bucket 7 holds
/// the capacity-triggered (full) flushes and bucket 0 the tiniest
/// end-of-segment partials.
pub const FLUSH_HIST_BUCKETS: usize = 8;

/// Number of NUMA domains whose bin occupancy is reported individually in
/// [`PhaseStats::domain_flop`]; domains beyond this fold into the last slot
/// (keeps the stats `Copy`, and 8 sockets covers every machine the paper's
/// class of hardware ships in).
pub const MAX_TELEMETRY_DOMAINS: usize = 8;

/// Which SIMD code paths one multiplication actually executed.
///
/// The dispatch level ([`Isa`](crate::simd::Isa)) is resolved once per
/// multiply, but the *counters* are the ground truth: they are incremented
/// inside the kernels' dispatch points, so a profile claiming `avx512` with
/// zero `simd_histograms` is immediately visible as a build or detection
/// problem.  `bench_pb --gate` asserts on these instead of trusting the
/// build (telemetry-as-proof).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsaDispatch {
    /// The resolved dispatch level this multiply ran under.
    pub isa: crate::simd::Isa,
    /// Sort-phase histogram invocations (per-byte and fused digit-planned
    /// LSD passes) that ran a SIMD kernel.
    pub simd_histograms: u64,
    /// Byte-histogram invocations that ran the scalar loop (forced scalar,
    /// unsupported host, or inputs below
    /// [`SIMD_MIN_LEN`](crate::simd::SIMD_MIN_LEN)).
    pub scalar_histograms: u64,
    /// LSD scatter passes that issued software prefetch on the destination
    /// stream.
    pub prefetched_scatters: u64,
    /// Expand-phase local-bin flushes that prefetched their destination
    /// lines before the copy.
    pub prefetched_flushes: u64,
}

impl Default for IsaDispatch {
    fn default() -> Self {
        IsaDispatch {
            isa: crate::simd::Isa::Scalar,
            simd_histograms: 0,
            scalar_histograms: 0,
            prefetched_scatters: 0,
            prefetched_flushes: 0,
        }
    }
}

/// Runtime telemetry collected across the four phases of one multiplication.
///
/// All fields are plain counters so the struct stays `Copy` and can ride
/// inside [`SpGemmProfile`]; derived rates are exposed as methods.
/// Collected by [`StatsCollector`] and threaded through
/// [`expand`](crate::expand), [`sort`](crate::sort),
/// [`compress`](crate::compress) and [`assemble`](crate::assemble).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Local-bin capacity (tuples per thread-private bin) the expand phase
    /// actually used — the resolved value of
    /// [`local_bin_capacity`](crate::expand::local_bin_capacity).
    pub local_bin_capacity: usize,
    /// Total local-bin flushes across all threads.
    pub flushes: u64,
    /// Total tuples moved by those flushes (equals the flop).
    pub flushed_tuples: u64,
    /// Histogram of flush sizes by fill fraction of the local-bin capacity
    /// (see [`FLUSH_HIST_BUCKETS`]).
    pub flush_fill_hist: [u64; FLUSH_HIST_BUCKETS],
    /// Number of expand-phase fold segments that reported flush counts —
    /// the per-thread granularity of the telemetry (one segment never spans
    /// threads, so this bounds the parallelism the expand phase saw).
    pub expand_segments: usize,
    /// Fewest flushes reported by any one expand segment.
    pub min_segment_flushes: u64,
    /// Most flushes reported by any one expand segment.
    pub max_segment_flushes: u64,
    /// Expanded tuples landing in the fullest global bin.
    pub max_bin_flop: u64,
    /// Mean expanded tuples per global bin.
    pub mean_bin_flop: f64,
    /// NUMA domains the multiplication's bins were partitioned over (1 =
    /// no partitioning).
    pub numa_domains: usize,
    /// Flushes whose destination segment belonged to the flushing worker's
    /// own NUMA domain.
    pub local_flushes: u64,
    /// Flushes that crossed domains — work stolen from another domain's
    /// column range, or runs on a pool whose domain labels disagree with
    /// the partition.  `local_flushes + remote_flushes == flushes`.
    pub remote_flushes: u64,
    /// Tuples moved by domain-local flushes.
    pub local_flushed_tuples: u64,
    /// Tuples moved by cross-domain flushes.
    pub remote_flushed_tuples: u64,
    /// Expanded tuples owned by each domain's bin segments (slot `d` for
    /// domain `d`; domains past [`MAX_TELEMETRY_DOMAINS`] fold into the
    /// last slot).  Sums to the flop when partitioning ran.
    pub domain_flop: [u64; MAX_TELEMETRY_DOMAINS],
    /// Bytes of workspace-managed buffers (expand tuple buffer, sort
    /// scratch, bin/row staging — see [`Workspace`](crate::Workspace))
    /// newly allocated by this multiply.  Repeated same-shape multiplies
    /// through one workspace report 0 here in steady state — the number the
    /// zero-allocation acceptance gate reads.
    pub bytes_allocated: u64,
    /// Bytes of workspace-managed buffers served from recycled capacity
    /// without touching the heap.
    pub bytes_reused: u64,
    /// Workspace-managed buffer acquisitions served entirely from recycled
    /// capacity (up to 5 per multiply: tuple buffer, sort scratch, bin
    /// offsets, compressed lengths, row counts).  0 without a workspace.
    pub workspace_hits: u64,
    /// Bytes of this multiply's freshly allocated large buffers (expand
    /// tuple buffer, CSR output `colidx`/`values`) the
    /// kernel accepted transparent-huge-page advice for — see
    /// [`advise_huge_pages`](pb_sparse::mmapio::advise_huge_pages).  0 when
    /// every buffer was under the 8 MiB floor, recycled from a workspace
    /// (its advice was counted when it was allocated), on a multi-domain
    /// tuple buffer, or on a host without THP support.  Like [`IsaDispatch`]
    /// it proves what ran instead of trusting the build.
    pub huge_page_bytes: u64,
    /// Output rows with at least one nonzero (assemble phase).
    pub nonempty_rows: usize,
    /// Which SIMD code paths the multiply executed (dispatch level plus
    /// per-kernel invocation counters — see [`IsaDispatch`]).
    pub isa: IsaDispatch,
    /// Which kernel the [`Planner`](crate::planner::Planner) dispatched this
    /// multiply to, or
    /// [`PlannedKernel::Unplanned`](crate::planner::PlannedKernel::Unplanned)
    /// when the caller forced
    /// an algorithm (every direct `multiply_*` call and every explicit
    /// engine algorithm reports `Unplanned`).
    pub planned_algorithm: crate::planner::PlannedKernel,
    /// The planner's pre-multiply compression-factor estimate (`flop /
    /// estimated nnz(C)`; 0 when unplanned).  Compare with
    /// [`SpGemmProfile::cf`] to judge the estimator.
    pub planned_cf_estimate: f64,
    /// Row-nnz skew of `B` (max row nnz over mean row nnz) the planner saw;
    /// 0 when unplanned.
    pub planned_row_skew: f64,
    /// Bin-occupancy skew the planner projected from the per-column flop
    /// distribution; 0 when unplanned.
    pub planned_bin_skew: f64,
    /// Arithmetic intensity signal `flop / (nnz(A) + nnz(B))` the planner
    /// saw; 0 when unplanned.
    pub planned_flop_per_nnz: f64,
    /// Tiles multiplied by an out-of-core tiled run (see
    /// [`tiled`](crate::tiled)); 0 for resident multiplies.
    pub ooc_tiles: u64,
    /// Bytes the tile store spilled to its scratch file; 0 for resident
    /// multiplies (and for tiled runs whose working set fit the budget).
    pub ooc_spill_bytes: u64,
    /// Peak resident bytes of the tile store.  Bounded by the configured
    /// budget plus one tile's slack; 0 for resident multiplies.
    pub ooc_resident_high_water: u64,
}

impl Default for PhaseStats {
    fn default() -> Self {
        PhaseStats {
            local_bin_capacity: 0,
            flushes: 0,
            flushed_tuples: 0,
            flush_fill_hist: [0; FLUSH_HIST_BUCKETS],
            expand_segments: 0,
            min_segment_flushes: 0,
            max_segment_flushes: 0,
            max_bin_flop: 0,
            mean_bin_flop: 0.0,
            numa_domains: 1,
            local_flushes: 0,
            remote_flushes: 0,
            local_flushed_tuples: 0,
            remote_flushed_tuples: 0,
            domain_flop: [0; MAX_TELEMETRY_DOMAINS],
            bytes_allocated: 0,
            bytes_reused: 0,
            workspace_hits: 0,
            huge_page_bytes: 0,
            nonempty_rows: 0,
            isa: IsaDispatch::default(),
            planned_algorithm: crate::planner::PlannedKernel::Unplanned,
            planned_cf_estimate: 0.0,
            planned_row_skew: 0.0,
            planned_bin_skew: 0.0,
            planned_flop_per_nnz: 0.0,
            ooc_tiles: 0,
            ooc_spill_bytes: 0,
            ooc_resident_high_water: 0,
        }
    }
}

impl PhaseStats {
    /// Mean tuples carried per flush (0 when nothing flushed).
    pub fn mean_flush_tuples(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.flushed_tuples as f64 / self.flushes as f64
        }
    }

    /// Fraction of flushes that were capacity-triggered (fell in the top
    /// histogram bucket).  Distinguishes "local bins too small" (high) from
    /// "workload too small to ever fill a bin" (low).
    pub fn full_flush_fraction(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.flush_fill_hist[FLUSH_HIST_BUCKETS - 1] as f64 / self.flushes as f64
        }
    }

    /// Bin occupancy skew: fullest bin over mean bin (1.0 = perfectly even,
    /// large = one bin dominates and serialises the sort/compress phases).
    pub fn occupancy_skew(&self) -> f64 {
        if self.mean_bin_flop == 0.0 {
            0.0
        } else {
            self.max_bin_flop as f64 / self.mean_bin_flop
        }
    }

    /// Fraction of flushes that stayed inside the flushing worker's own
    /// NUMA domain.  1.0 when nothing flushed (vacuously local: empty
    /// products move no flush traffic at all) — this is the number the
    /// acceptance telemetry gates on, so it is *measured* locality, not an
    /// assumption.
    pub fn local_flush_fraction(&self) -> f64 {
        if self.flushes == 0 {
            1.0
        } else {
            self.local_flushes as f64 / self.flushes as f64
        }
    }

    /// Per-domain share of the expanded tuples, for the domains that ran
    /// (`numa_domains` entries).
    pub fn domain_occupancy(&self) -> &[u64] {
        &self.domain_flop[..self.numa_domains.clamp(1, MAX_TELEMETRY_DOMAINS)]
    }
}

/// Thread-safe accumulator for [`PhaseStats`].
///
/// One collector lives for the duration of one multiplication; the phases
/// record into it with relaxed atomics (every parallel region already ends
/// with the pool's Release/Acquire completion handshake, so the final
/// [`StatsCollector::snapshot`] reads settled values).  Expand-phase
/// counters are accumulated *locally* per fold segment and merged once per
/// segment, so the hot flush path pays no atomics for telemetry.
#[derive(Debug)]
pub struct StatsCollector {
    local_bin_capacity: AtomicUsize,
    flushes: AtomicU64,
    flushed_tuples: AtomicU64,
    flush_fill_hist: [AtomicU64; FLUSH_HIST_BUCKETS],
    expand_segments: AtomicUsize,
    min_segment_flushes: AtomicU64,
    max_segment_flushes: AtomicU64,
    max_bin_flop: AtomicU64,
    bin_flop_sum: AtomicU64,
    bins: AtomicUsize,
    numa_domains: AtomicUsize,
    local_flushes: AtomicU64,
    remote_flushes: AtomicU64,
    local_flushed_tuples: AtomicU64,
    remote_flushed_tuples: AtomicU64,
    domain_flop: [AtomicU64; MAX_TELEMETRY_DOMAINS],
    bytes_allocated: AtomicU64,
    bytes_reused: AtomicU64,
    workspace_hits: AtomicU64,
    huge_page_bytes: AtomicU64,
    nonempty_rows: AtomicUsize,
    // Stored as Isa::index() so the collector stays lock-free.
    isa_level: AtomicUsize,
    simd_histograms: AtomicU64,
    scalar_histograms: AtomicU64,
    prefetched_scatters: AtomicU64,
    prefetched_flushes: AtomicU64,
}

impl Default for StatsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        StatsCollector {
            local_bin_capacity: AtomicUsize::new(0),
            flushes: AtomicU64::new(0),
            flushed_tuples: AtomicU64::new(0),
            flush_fill_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            expand_segments: AtomicUsize::new(0),
            min_segment_flushes: AtomicU64::new(u64::MAX),
            max_segment_flushes: AtomicU64::new(0),
            max_bin_flop: AtomicU64::new(0),
            bin_flop_sum: AtomicU64::new(0),
            bins: AtomicUsize::new(0),
            numa_domains: AtomicUsize::new(1),
            local_flushes: AtomicU64::new(0),
            remote_flushes: AtomicU64::new(0),
            local_flushed_tuples: AtomicU64::new(0),
            remote_flushed_tuples: AtomicU64::new(0),
            domain_flop: std::array::from_fn(|_| AtomicU64::new(0)),
            bytes_allocated: AtomicU64::new(0),
            bytes_reused: AtomicU64::new(0),
            workspace_hits: AtomicU64::new(0),
            huge_page_bytes: AtomicU64::new(0),
            nonempty_rows: AtomicUsize::new(0),
            isa_level: AtomicUsize::new(crate::simd::Isa::Scalar.index()),
            simd_histograms: AtomicU64::new(0),
            scalar_histograms: AtomicU64::new(0),
            prefetched_scatters: AtomicU64::new(0),
            prefetched_flushes: AtomicU64::new(0),
        }
    }

    /// Records the [`Isa`](crate::simd::Isa) dispatch level the pipeline
    /// resolved for this multiply.
    pub fn record_isa(&self, isa: crate::simd::Isa) {
        self.isa_level.store(isa.index(), Ordering::Relaxed);
    }

    /// Merges one bin's locally accumulated sort kernel counters — the sort
    /// analogue of `record_expand_segment`'s merge-once-per-segment
    /// discipline.
    pub fn record_sort_kernels(&self, ctr: &crate::simd::KernelCounters) {
        if ctr.simd_histograms > 0 {
            self.simd_histograms
                .fetch_add(ctr.simd_histograms, Ordering::Relaxed);
        }
        if ctr.scalar_histograms > 0 {
            self.scalar_histograms
                .fetch_add(ctr.scalar_histograms, Ordering::Relaxed);
        }
        if ctr.prefetched_scatters > 0 {
            self.prefetched_scatters
                .fetch_add(ctr.prefetched_scatters, Ordering::Relaxed);
        }
    }

    /// Records the resolved local-bin capacity (tuples) the expand phase is
    /// about to use.
    pub fn record_local_bin_capacity(&self, capacity: usize) {
        self.local_bin_capacity.store(capacity, Ordering::Relaxed);
    }

    /// Merges one expand fold segment's locally accumulated flush counters.
    /// `local_flushes`/`local_tuples` are the subset that stayed inside the
    /// flushing worker's own NUMA domain (all of them on an unpartitioned
    /// run); the remote counts are derived.  `prefetched_flushes` counts
    /// the flushes that hinted their destination lines with software
    /// prefetch (all or none per multiply, depending on the ISA level).
    pub fn record_expand_segment(
        &self,
        flushes: u64,
        tuples: u64,
        hist: &[u64; FLUSH_HIST_BUCKETS],
        local_flushes: u64,
        local_tuples: u64,
        prefetched_flushes: u64,
    ) {
        debug_assert!(local_flushes <= flushes && local_tuples <= tuples);
        debug_assert!(prefetched_flushes <= flushes);
        if prefetched_flushes > 0 {
            self.prefetched_flushes
                .fetch_add(prefetched_flushes, Ordering::Relaxed);
        }
        self.expand_segments.fetch_add(1, Ordering::Relaxed);
        self.flushes.fetch_add(flushes, Ordering::Relaxed);
        self.flushed_tuples.fetch_add(tuples, Ordering::Relaxed);
        self.local_flushes
            .fetch_add(local_flushes, Ordering::Relaxed);
        self.remote_flushes
            .fetch_add(flushes - local_flushes, Ordering::Relaxed);
        self.local_flushed_tuples
            .fetch_add(local_tuples, Ordering::Relaxed);
        self.remote_flushed_tuples
            .fetch_add(tuples - local_tuples, Ordering::Relaxed);
        for (slot, &count) in self.flush_fill_hist.iter().zip(hist) {
            if count > 0 {
                slot.fetch_add(count, Ordering::Relaxed);
            }
        }
        self.min_segment_flushes
            .fetch_min(flushes, Ordering::Relaxed);
        self.max_segment_flushes
            .fetch_max(flushes, Ordering::Relaxed);
    }

    /// Records the NUMA partition the symbolic phase chose: the domain
    /// count and each domain's share of the expanded tuples (folding
    /// domains past [`MAX_TELEMETRY_DOMAINS`] into the last slot).
    pub fn record_numa(&self, domains: usize, domain_flop: &[u64]) {
        self.numa_domains.store(domains.max(1), Ordering::Relaxed);
        for (d, &f) in domain_flop.iter().enumerate() {
            if f > 0 {
                self.domain_flop[d.min(MAX_TELEMETRY_DOMAINS - 1)].fetch_add(f, Ordering::Relaxed);
            }
        }
    }

    /// Records the per-bin flop distribution the symbolic phase computed.
    pub fn record_bin_flop(&self, bin_flop: &[u64]) {
        let max = bin_flop.iter().copied().max().unwrap_or(0);
        let sum: u64 = bin_flop.iter().sum();
        self.max_bin_flop.fetch_max(max, Ordering::Relaxed);
        self.bin_flop_sum.fetch_add(sum, Ordering::Relaxed);
        self.bins.fetch_add(bin_flop.len(), Ordering::Relaxed);
    }

    /// Records one workspace-managed buffer acquisition: bytes newly
    /// allocated, bytes served from recycled capacity, and whether the
    /// whole acquisition was a hit (no heap traffic at all).  Also used by
    /// the sort phase's heap-fallback scratch path (`allocated` only).
    pub fn record_workspace(&self, allocated: u64, reused: u64, hit: bool) {
        if allocated > 0 {
            self.bytes_allocated.fetch_add(allocated, Ordering::Relaxed);
        }
        if reused > 0 {
            self.bytes_reused.fetch_add(reused, Ordering::Relaxed);
        }
        if hit {
            self.workspace_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `bytes` a huge-page advice call reported as accepted.
    pub fn record_huge_pages(&self, bytes: usize) {
        if bytes > 0 {
            self.huge_page_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Records the number of output rows holding at least one nonzero.
    pub fn record_nonempty_rows(&self, rows: usize) {
        self.nonempty_rows.store(rows, Ordering::Relaxed);
    }

    /// Freezes the counters into a plain [`PhaseStats`].
    pub fn snapshot(&self) -> PhaseStats {
        let segments = self.expand_segments.load(Ordering::Relaxed);
        let bins = self.bins.load(Ordering::Relaxed);
        let sum = self.bin_flop_sum.load(Ordering::Relaxed);
        PhaseStats {
            local_bin_capacity: self.local_bin_capacity.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            flushed_tuples: self.flushed_tuples.load(Ordering::Relaxed),
            flush_fill_hist: std::array::from_fn(|i| {
                self.flush_fill_hist[i].load(Ordering::Relaxed)
            }),
            expand_segments: segments,
            min_segment_flushes: if segments == 0 {
                0
            } else {
                self.min_segment_flushes.load(Ordering::Relaxed)
            },
            max_segment_flushes: self.max_segment_flushes.load(Ordering::Relaxed),
            max_bin_flop: self.max_bin_flop.load(Ordering::Relaxed),
            mean_bin_flop: if bins == 0 {
                0.0
            } else {
                sum as f64 / bins as f64
            },
            numa_domains: self.numa_domains.load(Ordering::Relaxed),
            local_flushes: self.local_flushes.load(Ordering::Relaxed),
            remote_flushes: self.remote_flushes.load(Ordering::Relaxed),
            local_flushed_tuples: self.local_flushed_tuples.load(Ordering::Relaxed),
            remote_flushed_tuples: self.remote_flushed_tuples.load(Ordering::Relaxed),
            domain_flop: std::array::from_fn(|i| self.domain_flop[i].load(Ordering::Relaxed)),
            bytes_allocated: self.bytes_allocated.load(Ordering::Relaxed),
            bytes_reused: self.bytes_reused.load(Ordering::Relaxed),
            workspace_hits: self.workspace_hits.load(Ordering::Relaxed),
            huge_page_bytes: self.huge_page_bytes.load(Ordering::Relaxed),
            nonempty_rows: self.nonempty_rows.load(Ordering::Relaxed),
            isa: IsaDispatch {
                isa: crate::simd::Isa::from_index(self.isa_level.load(Ordering::Relaxed)),
                simd_histograms: self.simd_histograms.load(Ordering::Relaxed),
                scalar_histograms: self.scalar_histograms.load(Ordering::Relaxed),
                prefetched_scatters: self.prefetched_scatters.load(Ordering::Relaxed),
                prefetched_flushes: self.prefetched_flushes.load(Ordering::Relaxed),
            },
            // The planner stamps its decision onto the profile after the
            // multiply returns (see `SpGemm::multiply_with_profile`); the
            // collector itself only ever sees a forced-kernel pipeline.
            planned_algorithm: crate::planner::PlannedKernel::Unplanned,
            planned_cf_estimate: 0.0,
            planned_row_skew: 0.0,
            planned_bin_skew: 0.0,
            planned_flop_per_nnz: 0.0,
            // Stamped by the tiled driver (see `tiled`), never by the
            // per-multiply collector.
            ooc_tiles: 0,
            ooc_spill_bytes: 0,
            ooc_resident_high_water: 0,
        }
    }
}

/// Everything measured and derived from one PB-SpGEMM multiplication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpGemmProfile {
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Number of scalar multiplications performed.
    pub flop: u64,
    /// `nnz(A)`.
    pub nnz_a: usize,
    /// `nnz(B)`.
    pub nnz_b: usize,
    /// `nnz(C)`.  For a masked multiply, the entries of the masked
    /// product `(A·B) ∘ pattern(M)`, so [`cf`](Self::cf) and the Table III
    /// traffic model count the masked output.
    pub nnz_c: usize,
    /// Number of propagation bins used.
    pub nbins: usize,
    /// Significant bytes per packed sort key (radix passes).
    pub key_bytes: u32,
    /// Bytes per expanded tuple in memory.
    pub tuple_bytes: usize,
    /// Bytes per nonzero used by the Roofline model (`b` in the paper, 16
    /// for `u32` indices + `f64` values in COO).
    pub coo_bytes: usize,
    /// Runtime telemetry collected across the phases.
    pub stats: PhaseStats,
}

impl SpGemmProfile {
    /// Compression factor `flop / nnz(C)` (1.0 for empty products).
    pub fn cf(&self) -> f64 {
        if self.nnz_c == 0 {
            1.0
        } else {
            self.flop as f64 / self.nnz_c as f64
        }
    }

    /// Achieved GFLOPS (`flop / total time`), the paper's headline metric.
    pub fn gflops(&self) -> f64 {
        let t = self.timings.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.flop as f64 / t / 1e9
        }
    }

    /// Bytes moved to/from memory by a phase according to the model of
    /// Table III.
    pub fn phase_bytes(&self, phase: Phase) -> u64 {
        let b = self.coo_bytes as u64;
        let t = self.tuple_bytes as u64;
        match phase {
            // Streams the offset arrays only; negligible, modelled as the two
            // pointer arrays.
            Phase::Symbolic => 8 * (self.nnz_a.min(self.nnz_b)) as u64,
            // Reads both inputs, writes flop tuples.
            Phase::Expand => b * (self.nnz_a + self.nnz_b) as u64 + t * self.flop,
            // Reads flop tuples (in-cache shuffles not counted as memory
            // traffic, as in the paper).
            Phase::Sort => t * self.flop,
            // Writes nnz(C) merged tuples; the reads happen on data the sort
            // just brought into cache, so Table III does not charge them to
            // memory traffic.
            Phase::Compress => t * self.nnz_c as u64,
            // Reads nnz(C) tuples, writes the CSR arrays.
            Phase::Assemble => t * self.nnz_c as u64 + b * self.nnz_c as u64,
        }
    }

    /// Time spent in a phase.
    pub fn phase_time(&self, phase: Phase) -> Duration {
        match phase {
            Phase::Symbolic => self.timings.symbolic,
            Phase::Expand => self.timings.expand,
            Phase::Sort => self.timings.sort,
            Phase::Compress => self.timings.compress,
            Phase::Assemble => self.timings.assemble,
        }
    }

    /// Sustained bandwidth of a phase in GB/s under the Table III model.
    pub fn phase_bandwidth_gbps(&self, phase: Phase) -> f64 {
        let t = self.phase_time(phase).as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.phase_bytes(phase) as f64 / t / 1e9
        }
    }

    /// Sustained bandwidth over the whole multiplication (total modelled
    /// bytes / total time).
    pub fn overall_bandwidth_gbps(&self) -> f64 {
        let t = self.timings.total().as_secs_f64();
        if t == 0.0 {
            return 0.0;
        }
        let bytes: u64 = [Phase::Expand, Phase::Sort, Phase::Compress, Phase::Assemble]
            .iter()
            .map(|&p| self.phase_bytes(p))
            .sum();
        bytes as f64 / t / 1e9
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "flop={} nnz(C)={} cf={:.2} nbins={} keyB={} | total={:.3}ms ({:.0} MFLOPS) | \
             expand {:.3}ms sort {:.3}ms compress {:.3}ms | bw e/s/c = {:.1}/{:.1}/{:.1} GB/s | \
             thp {:.1} MiB",
            self.flop,
            self.nnz_c,
            self.cf(),
            self.nbins,
            self.key_bytes,
            self.timings.total().as_secs_f64() * 1e3,
            self.gflops() * 1e3,
            self.timings.expand.as_secs_f64() * 1e3,
            self.timings.sort.as_secs_f64() * 1e3,
            self.timings.compress.as_secs_f64() * 1e3,
            self.phase_bandwidth_gbps(Phase::Expand),
            self.phase_bandwidth_gbps(Phase::Sort),
            self.phase_bandwidth_gbps(Phase::Compress),
            self.stats.huge_page_bytes as f64 / (1u64 << 20) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SpGemmProfile {
        SpGemmProfile {
            timings: PhaseTimings {
                symbolic: Duration::from_millis(1),
                expand: Duration::from_millis(10),
                sort: Duration::from_millis(5),
                compress: Duration::from_millis(4),
                assemble: Duration::from_millis(2),
            },
            flop: 16_000_000,
            nnz_a: 4_000_000,
            nnz_b: 4_000_000,
            nnz_c: 14_000_000,
            nbins: 1024,
            key_bytes: 4,
            tuple_bytes: 16,
            coo_bytes: 16,
            stats: PhaseStats::default(),
        }
    }

    #[test]
    fn totals_and_cf() {
        let p = sample();
        assert_eq!(p.timings.total(), Duration::from_millis(22));
        assert!((p.cf() - 16.0 / 14.0).abs() < 1e-12);
        // 16 Mflop / 22 ms ~= 0.727 GFLOPS.
        assert!((p.gflops() - 16.0e6 / 0.022 / 1e9).abs() < 1e-9);
    }

    #[test]
    fn phase_bytes_follow_table_iii() {
        let p = sample();
        // Expand: reads A and B (16 bytes each nnz), writes 16 bytes per flop.
        assert_eq!(
            p.phase_bytes(Phase::Expand),
            16 * 8_000_000 + 16 * 16_000_000
        );
        // Sort: reads flop tuples.
        assert_eq!(p.phase_bytes(Phase::Sort), 16 * 16_000_000);
        // Compress: writes nnz(C) tuples (its reads stay in cache).
        assert_eq!(p.phase_bytes(Phase::Compress), 16 * 14_000_000);
    }

    #[test]
    fn bandwidths_are_consistent_with_bytes_and_time() {
        let p = sample();
        let bw = p.phase_bandwidth_gbps(Phase::Sort);
        let expected = (16.0 * 16.0e6) / 0.005 / 1e9;
        assert!((bw - expected).abs() < 1e-9);
        assert!(p.overall_bandwidth_gbps() > 0.0);
        // Zero-duration phases report zero bandwidth instead of dividing by
        // zero.
        let mut zeroed = p;
        zeroed.timings.sort = Duration::ZERO;
        assert_eq!(zeroed.phase_bandwidth_gbps(Phase::Sort), 0.0);
    }

    #[test]
    fn empty_product_degenerate_values() {
        let p = SpGemmProfile {
            timings: PhaseTimings::default(),
            flop: 0,
            nnz_a: 0,
            nnz_b: 0,
            nnz_c: 0,
            nbins: 1,
            key_bytes: 1,
            tuple_bytes: 16,
            coo_bytes: 16,
            stats: PhaseStats::default(),
        };
        assert_eq!(p.cf(), 1.0);
        assert_eq!(p.gflops(), 0.0);
        assert_eq!(p.overall_bandwidth_gbps(), 0.0);
    }

    #[test]
    fn summary_mentions_key_quantities() {
        let s = sample().summary();
        assert!(s.contains("cf=1.14"));
        assert!(s.contains("nbins=1024"));
        assert!(s.contains("GB/s"));
    }

    #[test]
    fn phase_helpers() {
        assert_eq!(Phase::paper_phases().len(), 3);
        assert_eq!(Phase::Expand.name(), "expand");
        let p = sample();
        assert_eq!(p.phase_time(Phase::Assemble), Duration::from_millis(2));
    }

    #[test]
    fn collector_merges_segments_and_snapshots() {
        let c = StatsCollector::new();
        c.record_local_bin_capacity(32);
        let mut hist = [0u64; FLUSH_HIST_BUCKETS];
        hist[FLUSH_HIST_BUCKETS - 1] = 10;
        hist[0] = 2;
        c.record_expand_segment(12, 330, &hist, 10, 300, 12);
        c.record_expand_segment(4, 100, &[0; FLUSH_HIST_BUCKETS], 4, 100, 0);
        c.record_bin_flop(&[100, 300, 200]);
        c.record_numa(2, &[250, 180]);
        c.record_nonempty_rows(77);
        c.record_workspace(1024, 0, false);
        c.record_workspace(0, 4096, true);
        c.record_isa(crate::simd::Isa::Avx2);
        c.record_sort_kernels(&crate::simd::KernelCounters {
            simd_histograms: 5,
            scalar_histograms: 2,
            prefetched_scatters: 3,
        });
        c.record_sort_kernels(&crate::simd::KernelCounters {
            simd_histograms: 1,
            scalar_histograms: 0,
            prefetched_scatters: 1,
        });

        let s = c.snapshot();
        assert_eq!(s.local_bin_capacity, 32);
        assert_eq!(s.flushes, 16);
        assert_eq!(s.flushed_tuples, 430);
        assert_eq!(s.expand_segments, 2);
        assert_eq!(s.min_segment_flushes, 4);
        assert_eq!(s.max_segment_flushes, 12);
        assert_eq!(s.flush_fill_hist[FLUSH_HIST_BUCKETS - 1], 10);
        assert_eq!(s.max_bin_flop, 300);
        assert!((s.mean_bin_flop - 200.0).abs() < 1e-12);
        assert_eq!(s.nonempty_rows, 77);
        assert_eq!(s.bytes_allocated, 1024);
        assert_eq!(s.bytes_reused, 4096);
        assert_eq!(s.workspace_hits, 1);

        // ISA dispatch telemetry: level plus merged kernel counters.
        assert_eq!(s.isa.isa, crate::simd::Isa::Avx2);
        assert_eq!(s.isa.simd_histograms, 6);
        assert_eq!(s.isa.scalar_histograms, 2);
        assert_eq!(s.isa.prefetched_scatters, 4);
        assert_eq!(s.isa.prefetched_flushes, 12);

        assert!((s.mean_flush_tuples() - 430.0 / 16.0).abs() < 1e-12);
        assert!((s.full_flush_fraction() - 10.0 / 16.0).abs() < 1e-12);
        assert!((s.occupancy_skew() - 1.5).abs() < 1e-12);

        // NUMA telemetry: 14 of 16 flushes stayed domain-local.
        assert_eq!(s.numa_domains, 2);
        assert_eq!(s.local_flushes, 14);
        assert_eq!(s.remote_flushes, 2);
        assert_eq!(s.local_flushed_tuples, 400);
        assert_eq!(s.remote_flushed_tuples, 30);
        assert!((s.local_flush_fraction() - 14.0 / 16.0).abs() < 1e-12);
        assert_eq!(s.domain_occupancy(), &[250, 180]);
    }

    #[test]
    fn numa_telemetry_folds_excess_domains_and_defaults_local() {
        let c = StatsCollector::new();
        // 10 domains fold into the 8 telemetry slots (last slot aggregates).
        let flop: Vec<u64> = (1..=10).collect();
        c.record_numa(10, &flop);
        let s = c.snapshot();
        assert_eq!(s.numa_domains, 10);
        assert_eq!(s.domain_occupancy().len(), MAX_TELEMETRY_DOMAINS);
        assert_eq!(s.domain_flop[MAX_TELEMETRY_DOMAINS - 1], 8 + 9 + 10);
        assert_eq!(s.domain_flop.iter().sum::<u64>(), flop.iter().sum::<u64>());
        // No flushes at all is vacuously local.
        assert_eq!(s.local_flush_fraction(), 1.0);
    }

    #[test]
    fn empty_stats_rates_are_zero_not_nan() {
        let s = PhaseStats::default();
        assert_eq!(s.mean_flush_tuples(), 0.0);
        assert_eq!(s.full_flush_fraction(), 0.0);
        assert_eq!(s.occupancy_skew(), 0.0);
        let snap = StatsCollector::new().snapshot();
        assert_eq!(snap, s);
    }
}
