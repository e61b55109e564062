//! Tuning knobs of PB-SpGEMM.
//!
//! The paper exposes two tunables (Sec. V-A): the number of propagation
//! bins (`nbins`, chosen so one bin's tuples fit in L2 cache) and the local
//! bin width (512 bytes by default, a few cache lines).  This reproduction
//! additionally exposes the bin→row mapping, the expand strategy and the
//! compress-phase bin splitting so they can be ablated in the benchmark
//! suite — and an [`AutoTune`] feedback policy that adapts the local-bin
//! width *between* multiplies from the telemetry of
//! [`PhaseStats`](crate::profile::PhaseStats), so a long-running engine
//! (iterated graph kernels, repeated products of similar shape) converges
//! to the right flush granularity instead of trusting the static default.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::profile::SpGemmProfile;
use crate::workspace::Workspace;

/// How output rows are mapped onto propagation bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinMapping {
    /// Contiguous row ranges: `bin = row / rows_per_bin` (default).
    ///
    /// This is what the paper's key-compression discussion (Sec. III-D)
    /// assumes — rows within a bin form a small contiguous range, so the row
    /// part of the sort key needs only `log2(rows_per_bin)` bits.
    Range,
    /// Round-robin: `bin = row % nbins`, as literally written in
    /// Algorithm 2.  Spreads skewed rows more evenly across bins but defeats
    /// key compression (the full row index must be kept in the key).
    Modulo,
    /// Contiguous row ranges with *data-dependent* boundaries chosen by the
    /// symbolic phase so that every bin receives roughly the same number of
    /// expanded tuples — the paper's "bins with variable ranges of rows"
    /// answer to skewed (R-MAT-like) degree distributions (Sec. III-D and
    /// the scalability discussion in Sec. V-C).  Keeps the key-compression
    /// property of [`BinMapping::Range`] because every bin still covers a
    /// contiguous row range.
    Balanced,
}

/// How expanded tuples travel from the generating thread to the global bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandStrategy {
    /// The paper's design: the symbolic phase sizes every global bin
    /// exactly, threads buffer tuples in small local bins and flush them
    /// with an atomically reserved range + `memcpy` into uninitialised
    /// global-bin memory.
    Reserved,
    /// Safe fallback used for differential testing: every thread keeps
    /// per-bin `Vec`s which are concatenated after the parallel loop.
    ThreadLocal,
}

/// Size of one cache line in bytes on every platform this reproduction
/// targets (x86-64 and aarch64).  Local-bin flushes are sized in whole
/// multiples of this so the propagation-blocked writes of the expand phase
/// hit memory a full line at a time.
pub const CACHE_LINE_BYTES: usize = 64;

/// Default local-bin width in cache lines.  Eight lines × 64 B = 512 B, the
/// paper's default (Sec. V-A): large enough that a flush amortises the
/// reservation `fetch_add`, small enough that one local bin per global bin
/// still fits the bins of a thread in L1/L2.
pub const DEFAULT_LOCAL_BIN_CACHE_LINES: usize = 8;

// ---------------------------------------------------------------------------
// AutoTune
// ---------------------------------------------------------------------------

/// Smallest local-bin width the autotuner will select (one cache line).
pub const AUTOTUNE_MIN_LINES: usize = 1;

/// Largest local-bin width the autotuner will select (64 lines = 4 KiB).
pub const AUTOTUNE_MAX_LINES: usize = 64;

/// Private-cache budget for one thread's whole set of local bins.  When
/// `nbins × local_bin_bytes` outgrows this the flush targets thrash the
/// thread's L1/L2 and the policy shrinks the bins; growth is only allowed
/// while the doubled footprint still fits.  256 KiB leaves the rest of a
/// typical 1 MiB per-core L2 (Table IV) to the global-bin flush destinations.
pub const AUTOTUNE_LOCAL_BINS_BUDGET_BYTES: usize = 256 * 1024;

/// Mean flush size (bytes) below which flushes are considered too small:
/// each reservation `fetch_add` then moves fewer than five cache lines and
/// the propagation-blocking amortisation is lost, so the policy grows the
/// bins.  The paper's 512 B default produces ~512 B flushes in steady state,
/// comfortably above this threshold, so a well-tuned configuration is a
/// fixed point.
pub const AUTOTUNE_GROW_FLUSH_BYTES: f64 = 320.0;

/// Fraction of flushes that must be capacity-triggered before small flushes
/// are blamed on the capacity.  Below this, small flushes are end-of-segment
/// partials (the workload never fills a bin) and growing would not help.
pub const AUTOTUNE_FULL_FLUSH_FRACTION: f64 = 0.5;

/// Bin-occupancy skew ([`PhaseStats::occupancy_skew`](crate::profile::PhaseStats::occupancy_skew),
/// fullest bin over mean bin) at or above which the autotuner doubles its
/// *bin-count boost*: one overloaded bin serialises the sort and compress
/// phases, and finer bins shrink the fullest bin toward the heaviest single
/// row's flop.
pub const AUTOTUNE_SKEW_SPLIT: f64 = 4.0;

/// Skew at or below which a previously boosted bin count steps back down:
/// the occupancy is essentially flat, so the extra bins only add per-bin
/// overhead (more, smaller sort/compress units and more local-bin state per
/// thread) without improving balance.
pub const AUTOTUNE_SKEW_FLAT: f64 = 1.25;

/// Largest factor by which the autotuner will multiply the L2-derived bin
/// count.  8× keeps the packed sort keys within one extra radix byte of the
/// unboosted layout in the worst case.
pub const AUTOTUNE_MAX_NBINS_BOOST: usize = 8;

/// Feedback policy adapting the local-bin width between multiplies.
///
/// Shared by every clone of an auto-tuned [`PbConfig`] (the config holds it
/// behind an [`Arc`]), so repeated multiplies through the same config (an
/// [`SpGemm`](crate::SpGemm) engine, or the profiled entry points) observe
/// each other's telemetry:
///
/// * **grow** — the measured flush rate is high (mean flush below
///   [`AUTOTUNE_GROW_FLUSH_BYTES`]) while most flushes are capacity-triggered
///   and the *doubled* local-bin footprint still fits
///   [`AUTOTUNE_LOCAL_BINS_BUDGET_BYTES`] (i.e. the bin count is low enough
///   to afford wider bins);
/// * **shrink** — the current footprint `nbins × local_bin_bytes` already
///   exceeds the budget (many bins pressuring the private cache).
///
/// One step doubles or halves the line count, clamped to
/// [`AUTOTUNE_MIN_LINES`]..=[`AUTOTUNE_MAX_LINES`]; repeated observations of
/// a stable workload therefore converge in `O(log)` multiplies and then stop
/// adjusting.
/// Additionally, the policy adapts the **bin count** between multiplies of
/// similar shape: when the occupancy skew telemetry shows one bin hoarding
/// the flop ([`AUTOTUNE_SKEW_SPLIT`]), the L2-derived `nbins` rule is
/// multiplied by a doubling *boost* (clamped to
/// [`AUTOTUNE_MAX_NBINS_BOOST`]), and the boost steps back down once the
/// occupancy flattens out ([`AUTOTUNE_SKEW_FLAT`]).  The boost only applies
/// when [`PbConfig::nbins`] is `None` — an explicit bin count is always
/// honoured verbatim — and is published with the same compare-exchange
/// discipline as the width, so concurrent observers cannot double-step.
#[derive(Debug)]
pub struct AutoTune {
    /// Current local-bin width in cache lines.
    lines: AtomicUsize,
    /// Budget for one thread's local bins (bytes).
    budget_bytes: usize,
    /// Current multiplier applied to the derived bin count (power of two,
    /// `1..=`[`AUTOTUNE_MAX_NBINS_BOOST`]).
    nbins_boost: AtomicUsize,
    /// Profiles observed so far.
    observations: AtomicUsize,
    /// Width adjustments (grow or shrink steps) applied so far.
    adjustments: AtomicUsize,
    /// Bin-count boost adjustments applied so far.
    bin_adjustments: AtomicUsize,
}

impl Default for AutoTune {
    fn default() -> Self {
        Self::new()
    }
}

impl AutoTune {
    /// Starts from the paper's default width
    /// ([`DEFAULT_LOCAL_BIN_CACHE_LINES`]).
    pub fn new() -> Self {
        Self::with_initial_lines(DEFAULT_LOCAL_BIN_CACHE_LINES)
    }

    /// Starts from an explicit width in cache lines (clamped to the
    /// autotuner's range).
    pub fn with_initial_lines(lines: usize) -> Self {
        AutoTune {
            lines: AtomicUsize::new(lines.clamp(AUTOTUNE_MIN_LINES, AUTOTUNE_MAX_LINES)),
            budget_bytes: AUTOTUNE_LOCAL_BINS_BUDGET_BYTES,
            nbins_boost: AtomicUsize::new(1),
            observations: AtomicUsize::new(0),
            adjustments: AtomicUsize::new(0),
            bin_adjustments: AtomicUsize::new(0),
        }
    }

    /// Current local-bin width in cache lines.
    pub fn lines(&self) -> usize {
        self.lines.load(Ordering::Relaxed)
    }

    /// Current local-bin width in bytes (what the expand phase consumes).
    pub fn local_bin_bytes(&self) -> usize {
        self.lines() * CACHE_LINE_BYTES
    }

    /// Number of profiles observed.
    pub fn observations(&self) -> usize {
        self.observations.load(Ordering::Relaxed)
    }

    /// Number of grow/shrink steps applied.
    pub fn adjustments(&self) -> usize {
        self.adjustments.load(Ordering::Relaxed)
    }

    /// Current multiplier on the L2-derived bin count (1 = unboosted).
    pub fn nbins_boost(&self) -> usize {
        self.nbins_boost.load(Ordering::Relaxed)
    }

    /// Number of bin-count boost steps applied.
    pub fn bin_adjustments(&self) -> usize {
        self.bin_adjustments.load(Ordering::Relaxed)
    }

    /// Feeds one multiplication's profile back into the policy; returns the
    /// new width in cache lines if this observation changed it.
    ///
    /// Concurrent observers (multiplies running in parallel through clones
    /// of one tuned config) race benignly: the adjustment is published with
    /// a compare-exchange against the width this decision was computed
    /// from, so a step that lost the race is dropped rather than applied on
    /// top of another thread's step — the width moves at most one step per
    /// generation of evidence and never double-steps from stale telemetry.
    pub fn observe(&self, profile: &SpGemmProfile) -> Option<usize> {
        self.observations.fetch_add(1, Ordering::Relaxed);
        let stats = &profile.stats;

        // Bin-count feedback first: it reads the symbolic phase's occupancy
        // telemetry, which exists even when the expand strategy produced no
        // flushes (ThreadLocal runs feed this knob too).
        if stats.mean_bin_flop > 0.0 {
            let boost = self.nbins_boost();
            let skew = stats.occupancy_skew();
            if skew >= AUTOTUNE_SKEW_SPLIT && boost < AUTOTUNE_MAX_NBINS_BOOST {
                self.publish_boost(boost, (boost * 2).min(AUTOTUNE_MAX_NBINS_BOOST));
            } else if skew <= AUTOTUNE_SKEW_FLAT && boost > 1 {
                self.publish_boost(boost, (boost / 2).max(1));
            }
        }

        if stats.flushes == 0 {
            // ThreadLocal strategy or an empty product: no flush telemetry
            // for the width knob.
            return None;
        }
        let lines = self.lines();
        let bin_bytes = lines * CACHE_LINE_BYTES;
        let footprint = profile.nbins.saturating_mul(bin_bytes);

        // Shrink: this thread's local bins outgrow the private-cache budget.
        if footprint > self.budget_bytes && lines > AUTOTUNE_MIN_LINES {
            let new = (lines / 2).max(AUTOTUNE_MIN_LINES);
            return self.publish(lines, new);
        }

        // Grow: flushes are frequent and tiny, they are capacity-triggered
        // (not end-of-segment partials), and doubling still fits the budget.
        let mean_flush_bytes = stats.mean_flush_tuples() * profile.tuple_bytes as f64;
        if mean_flush_bytes < AUTOTUNE_GROW_FLUSH_BYTES
            && stats.full_flush_fraction() >= AUTOTUNE_FULL_FLUSH_FRACTION
            && footprint.saturating_mul(2) <= self.budget_bytes
            && lines < AUTOTUNE_MAX_LINES
        {
            let new = (lines * 2).min(AUTOTUNE_MAX_LINES);
            return self.publish(lines, new);
        }
        None
    }

    /// Publishes an adjustment computed from width `from`; drops it if a
    /// concurrent observer adjusted the width in the meantime.
    fn publish(&self, from: usize, to: usize) -> Option<usize> {
        match self
            .lines
            .compare_exchange(from, to, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => {
                self.adjustments.fetch_add(1, Ordering::Relaxed);
                Some(to)
            }
            Err(_) => None,
        }
    }

    /// Publishes a bin-count boost step computed from `from`, with the same
    /// lost-race-drops-the-step discipline as [`AutoTune::publish`].
    fn publish_boost(&self, from: usize, to: usize) {
        if self
            .nbins_boost
            .compare_exchange(from, to, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.bin_adjustments.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Configuration of a PB-SpGEMM multiplication.
///
/// Cheap to clone: the only non-scalar fields are the optional shared
/// [`AutoTune`] and [`Workspace`] handles (both [`Arc`]s), which clones
/// share on purpose so that repeated multiplies through any clone of the
/// config feed the same tuning policy and reuse the same buffers.
#[derive(Debug, Clone)]
pub struct PbConfig {
    /// Number of global bins.  `None` (default) derives it from the flop
    /// count and [`PbConfig::l2_bytes`] exactly as the paper's symbolic
    /// phase does: `nbins = ceil(flop · bytes_per_tuple / L2)`, i.e. the
    /// smallest bin count at which one bin's expanded tuples fit in the L2
    /// cache of the core that will later sort them.
    pub nbins: Option<usize>,
    /// Size of each thread-private local bin in bytes.  The default is
    /// derived, not magic: [`DEFAULT_LOCAL_BIN_CACHE_LINES`] ×
    /// [`CACHE_LINE_BYTES`] = 512 B.  The expand phase converts this byte
    /// budget into a tuple capacity from the actual `Entry<V>` size and
    /// rounds it to whole cache lines (see
    /// [`local_bin_capacity`](crate::expand::local_bin_capacity)).
    pub local_bin_bytes: usize,
    /// Assumed L2 cache capacity per core in bytes, used to auto-derive
    /// `nbins` (default 1 MiB, the Skylake-SP value from Table IV).
    pub l2_bytes: usize,
    /// Row→bin mapping (default [`BinMapping::Range`]).
    pub bin_mapping: BinMapping,
    /// Expand strategy (default [`ExpandStrategy::Reserved`]).
    pub expand: ExpandStrategy,
    /// Number of rayon worker threads; `None` uses the global pool.
    pub threads: Option<usize>,
    /// Number of NUMA domains to partition the global bins (and the expand
    /// phase's column ranges) over.  `None` (default) asks the current
    /// rayon pool, which discovers the machine's topology and honours
    /// `PB_NUMA_DOMAINS`.  An explicit value is a *cap* relative to the
    /// executing pool's domain labels (see [`PbConfig::resolve_domains`]);
    /// to force an emulated multi-domain topology pair it with
    /// [`PbConfig::threads`], which builds a dedicated pool whose
    /// worker↔domain labels match.  1 disables partitioning.
    pub numa_domains: Option<usize>,
    /// SIMD dispatch level for the sort/expand kernels.  `None` (default)
    /// uses the process-wide level — runtime detection, overridable via
    /// `PB_SIMD` (see [`crate::simd::active`]).  An explicit level is
    /// clamped to what the host supports and never exceeds it, so a config
    /// can force the scalar oracle path but cannot force an illegal
    /// instruction.  Per-config forcing exists for tests and benches that
    /// compare levels inside one process, race-free.
    pub simd: Option<crate::simd::Isa>,
    /// Optional shared autotuning policy.  When set,
    /// [`PbConfig::effective_local_bin_bytes`] reads the policy's current
    /// width instead of [`PbConfig::local_bin_bytes`], and every profiled
    /// multiply feeds its telemetry back via [`AutoTune::observe`].
    pub auto: Option<Arc<AutoTune>>,
    /// Optional shared [`Workspace`]: the reusable arena every multiply
    /// through this configuration draws its expand-phase tuple buffer,
    /// NUMA-slabbed sort scratch and staging vectors from (and returns them
    /// to), so repeated multiplies of similar shape stop paying the
    /// allocation and first-touch bill.  Clones share the handle on
    /// purpose, exactly like [`PbConfig::auto`]; concurrent multiplies
    /// through clones stay correct (late callers fall back to fresh
    /// buffers for that call).  `None` (default) allocates per multiply.
    pub workspace: Option<Arc<Workspace>>,
}

impl PartialEq for PbConfig {
    fn eq(&self, other: &Self) -> bool {
        let same_auto = match (&self.auto, &other.auto) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let same_workspace = match (&self.workspace, &other.workspace) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        same_auto
            && same_workspace
            && self.nbins == other.nbins
            && self.local_bin_bytes == other.local_bin_bytes
            && self.l2_bytes == other.l2_bytes
            && self.bin_mapping == other.bin_mapping
            && self.expand == other.expand
            && self.threads == other.threads
            && self.numa_domains == other.numa_domains
            && self.simd == other.simd
    }
}

impl Default for PbConfig {
    fn default() -> Self {
        PbConfig {
            nbins: None,
            local_bin_bytes: DEFAULT_LOCAL_BIN_CACHE_LINES * CACHE_LINE_BYTES,
            l2_bytes: 1024 * 1024,
            bin_mapping: BinMapping::Range,
            expand: ExpandStrategy::Reserved,
            threads: None,
            numa_domains: None,
            simd: None,
            auto: None,
            workspace: None,
        }
    }
}

impl PbConfig {
    /// The paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The default configuration with the [`AutoTune`] feedback loop
    /// enabled: every profiled multiply adapts the local-bin width for the
    /// next one, starting from the paper's 512 B default.
    pub fn auto_tuned() -> Self {
        PbConfig {
            auto: Some(Arc::new(AutoTune::new())),
            ..Self::default()
        }
    }

    /// Auto-tuned configuration starting from an explicit local-bin width
    /// in cache lines (used by `bench_pb --tune` to show the convergence
    /// trajectory from a deliberately bad starting point).
    pub fn auto_tuned_from_lines(lines: usize) -> Self {
        PbConfig {
            auto: Some(Arc::new(AutoTune::with_initial_lines(lines))),
            ..Self::default()
        }
    }

    /// The shared autotuning policy, if enabled.
    pub fn auto_tune(&self) -> Option<&AutoTune> {
        self.auto.as_deref()
    }

    /// Attaches a shared [`Workspace`]: every multiply through this
    /// configuration (and its clones) reuses the workspace's buffers
    /// instead of allocating, amortising the memory setup of repeated
    /// multiplies.  See [`crate::workspace`] for what is pooled and how the
    /// sort scratch stays NUMA-local.
    pub fn with_workspace(mut self, workspace: Arc<Workspace>) -> Self {
        self.workspace = Some(workspace);
        self
    }

    /// The default configuration with a fresh [`Workspace`] attached —
    /// the one-liner for "I am about to multiply in a loop".
    pub fn reusing() -> Self {
        Self::default().with_workspace(Arc::new(Workspace::new()))
    }

    /// The shared workspace, if one is attached.
    pub fn workspace(&self) -> Option<&Arc<Workspace>> {
        self.workspace.as_ref()
    }

    /// The local-bin width the next multiply will actually use: the
    /// autotuner's current width when autotuning is enabled, the static
    /// [`PbConfig::local_bin_bytes`] otherwise.
    pub fn effective_local_bin_bytes(&self) -> usize {
        match &self.auto {
            Some(tuner) => tuner.local_bin_bytes(),
            None => self.local_bin_bytes,
        }
    }

    /// Sets an explicit number of global bins.
    pub fn with_nbins(mut self, nbins: usize) -> Self {
        self.nbins = Some(nbins.max(1));
        self
    }

    /// Sets the local bin width in bytes.
    pub fn with_local_bin_bytes(mut self, bytes: usize) -> Self {
        self.local_bin_bytes = bytes.max(16);
        self
    }

    /// Sets the assumed per-core L2 capacity used to auto-size bins.
    pub fn with_l2_bytes(mut self, bytes: usize) -> Self {
        self.l2_bytes = bytes.max(4096);
        self
    }

    /// Sets the row→bin mapping.
    pub fn with_bin_mapping(mut self, mapping: BinMapping) -> Self {
        self.bin_mapping = mapping;
        self
    }

    /// Sets the expand strategy.
    pub fn with_expand(mut self, strategy: ExpandStrategy) -> Self {
        self.expand = strategy;
        self
    }

    /// Sets the number of worker threads (a dedicated rayon pool is built
    /// for the multiplication).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Forces the SIMD dispatch level for this configuration's multiplies
    /// (clamped to the host's support at resolve time; see
    /// [`PbConfig::simd`]).
    pub fn with_simd(mut self, isa: crate::simd::Isa) -> Self {
        self.simd = Some(isa);
        self
    }

    /// The [`Isa`](crate::simd::Isa) level the next multiply will dispatch
    /// its sort/expand kernels at: the explicit [`PbConfig::simd`] clamped
    /// to the host's support when set, the process-wide
    /// [`active`](crate::simd::active) level otherwise.
    pub fn resolve_simd(&self) -> crate::simd::Isa {
        crate::simd::resolve(self.simd)
    }

    /// Forces the NUMA-domain count for this configuration's multiplies
    /// (clamped to at least 1; see [`PbConfig::numa_domains`]).
    pub fn with_numa_domains(mut self, domains: usize) -> Self {
        self.numa_domains = Some(domains.max(1));
        self
    }

    /// The NUMA-domain count the next multiply will partition its bins
    /// over: the explicit [`PbConfig::numa_domains`] when set, the current
    /// rayon pool's domain count otherwise — never more than the pool's
    /// own domain-label count or thread count.
    ///
    /// The pool clamp matters: a partition wider than the executing pool's
    /// labels would create claim ranges no worker owns, so their blocks
    /// would drain only through the slow steal-patience fallback and every
    /// one of their flushes would count remote.  An explicit override can
    /// therefore *narrow* the partition, but widening it requires a pool
    /// that actually carries the labels — either `PB_NUMA_DOMAINS` (global
    /// pool) or [`PbConfig::threads`] (dedicated pool built with matching
    /// domains).
    pub fn resolve_domains(&self) -> usize {
        self.numa_domains
            .unwrap_or(usize::MAX)
            .min(rayon::current_num_domains())
            .clamp(1, rayon::current_num_threads())
    }

    /// Derives the number of global bins for a multiplication with `flop`
    /// expanded tuples of `tuple_bytes` bytes each over `nrows` output rows,
    /// following the paper's rule (`flop · bytes / L2`) times the
    /// autotuner's current bin-count boost (1 without autotuning — see
    /// [`AutoTune::nbins_boost`]), clamped so that every bin covers at
    /// least one row.  An explicit [`PbConfig::nbins`] is honoured verbatim
    /// (clamped to the row count only).
    pub fn resolve_nbins(&self, flop: u64, tuple_bytes: usize, nrows: usize) -> usize {
        let nbins = match self.nbins {
            Some(n) => n,
            None => {
                let bytes = flop.saturating_mul(tuple_bytes as u64);
                let derived = (bytes.div_ceil(self.l2_bytes.max(1) as u64) as usize).max(1);
                let boost = self.auto.as_deref().map_or(1, AutoTune::nbins_boost);
                derived.saturating_mul(boost)
            }
        };
        nbins.clamp(1, nrows.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = PbConfig::default();
        // 8 cache lines × 64 B: derived, but equal to the paper's 512 B.
        assert_eq!(c.local_bin_bytes, 512);
        assert_eq!(c.bin_mapping, BinMapping::Range);
        assert_eq!(c.expand, ExpandStrategy::Reserved);
        assert_eq!(c.nbins, None);
        assert_eq!(c.threads, None);
    }

    #[test]
    fn builder_methods_clamp_inputs() {
        let c = PbConfig::new()
            .with_nbins(0)
            .with_local_bin_bytes(1)
            .with_l2_bytes(1)
            .with_threads(0);
        assert_eq!(c.nbins, Some(1));
        assert_eq!(c.local_bin_bytes, 16);
        assert_eq!(c.l2_bytes, 4096);
        assert_eq!(c.threads, Some(1));
    }

    #[test]
    fn resolve_nbins_follows_the_papers_rule() {
        let c = PbConfig::new().with_l2_bytes(1 << 20);
        // 16M tuples of 16 bytes = 256 MiB -> 256 bins.
        assert_eq!(c.resolve_nbins(16 << 20, 16, 1 << 20), 256);
        // Tiny multiplications collapse to a single bin.
        assert_eq!(c.resolve_nbins(10, 16, 1 << 20), 1);
        // Explicit nbins wins but is clamped to the number of rows.
        let c = PbConfig::new().with_nbins(4096);
        assert_eq!(c.resolve_nbins(1 << 30, 16, 100), 100);
        assert_eq!(c.resolve_nbins(1 << 30, 16, 1 << 20), 4096);
        // Zero-flop products still get one bin.
        assert_eq!(PbConfig::new().resolve_nbins(0, 16, 8), 1);
    }

    use crate::profile::{PhaseStats, PhaseTimings, FLUSH_HIST_BUCKETS};

    /// Synthetic profile with exactly the telemetry the policy reads.
    fn synthetic_profile(
        nbins: usize,
        flushes: u64,
        flushed_tuples: u64,
        full_flushes: u64,
    ) -> SpGemmProfile {
        let mut hist = [0u64; FLUSH_HIST_BUCKETS];
        hist[FLUSH_HIST_BUCKETS - 1] = full_flushes;
        hist[0] = flushes - full_flushes;
        SpGemmProfile {
            timings: PhaseTimings::default(),
            flop: flushed_tuples,
            nnz_a: 0,
            nnz_b: 0,
            nnz_c: flushed_tuples as usize,
            nbins,
            key_bytes: 4,
            tuple_bytes: 16,
            coo_bytes: 16,
            stats: PhaseStats {
                local_bin_capacity: 8,
                flushes,
                flushed_tuples,
                flush_fill_hist: hist,
                expand_segments: 4,
                min_segment_flushes: flushes / 8,
                max_segment_flushes: flushes / 2,
                max_bin_flop: flushed_tuples / nbins.max(1) as u64,
                mean_bin_flop: flushed_tuples as f64 / nbins.max(1) as f64,
                ..PhaseStats::default()
            },
        }
    }

    #[test]
    fn autotune_grows_on_a_high_flush_rate_trace_with_few_bins() {
        // 2 lines = 128 B bins: flushes carry 8 × 16 B = 128 B < the 320 B
        // grow threshold, 90% capacity-triggered, few bins -> grow.
        let tuner = AutoTune::with_initial_lines(2);
        let trace = synthetic_profile(16, 1000, 8000, 900);
        assert_eq!(tuner.observe(&trace), Some(4));
        assert_eq!(tuner.lines(), 4);
        // Same trace again keeps growing (still tiny flushes)...
        assert_eq!(tuner.observe(&trace), Some(8));
        // ...until a trace with healthy flush sizes is a fixed point:
        // 32 tuples × 16 B = 512 B >= 320 B.
        let healthy = synthetic_profile(16, 250, 8000, 240);
        assert_eq!(tuner.observe(&healthy), None);
        assert_eq!(tuner.lines(), 8);
        assert_eq!(tuner.observations(), 3);
        assert_eq!(tuner.adjustments(), 2);
    }

    #[test]
    fn autotune_shrinks_under_cache_pressure_with_many_bins() {
        // 8 lines × 64 B × 4096 bins = 2 MiB of local bins per thread,
        // far over the 256 KiB budget -> shrink, repeatedly, until the
        // footprint fits (4096 bins × 64 B = 256 KiB at 1 line).
        let tuner = AutoTune::new();
        assert_eq!(tuner.lines(), DEFAULT_LOCAL_BIN_CACHE_LINES);
        let trace = synthetic_profile(4096, 10_000, 320_000, 9000);
        assert_eq!(tuner.observe(&trace), Some(4));
        assert_eq!(tuner.observe(&trace), Some(2));
        assert_eq!(tuner.observe(&trace), Some(1));
        // At the floor the policy stops shrinking even under pressure.
        assert_eq!(tuner.observe(&trace), None);
        assert_eq!(tuner.lines(), AUTOTUNE_MIN_LINES);
    }

    #[test]
    fn autotune_ignores_traces_without_flush_telemetry() {
        // ThreadLocal expansion (or an empty product) reports zero flushes;
        // the policy must not react to the absence of evidence.
        let tuner = AutoTune::with_initial_lines(2);
        let trace = synthetic_profile(16, 0, 0, 0);
        assert_eq!(tuner.observe(&trace), None);
        assert_eq!(tuner.lines(), 2);
    }

    #[test]
    fn autotune_does_not_grow_on_end_of_segment_partials() {
        // Small flushes that are NOT capacity-triggered (tiny workload:
        // every flush is a flush_all partial) must not trigger growth.
        let tuner = AutoTune::with_initial_lines(2);
        let trace = synthetic_profile(16, 1000, 8000, 100);
        assert_eq!(tuner.observe(&trace), None);
        assert_eq!(tuner.lines(), 2);
    }

    #[test]
    fn autotune_boosts_bin_count_on_skewed_occupancy_and_steps_back() {
        let tuner = AutoTune::new();
        assert_eq!(tuner.nbins_boost(), 1);
        // Healthy flush widths (no width interference), one bin hoarding
        // 8x the mean flop.
        let mut skewed = synthetic_profile(16, 250, 8000, 240);
        skewed.stats.max_bin_flop = (skewed.stats.mean_bin_flop * 8.0) as u64;
        tuner.observe(&skewed);
        assert_eq!(tuner.nbins_boost(), 2);
        tuner.observe(&skewed);
        tuner.observe(&skewed);
        assert_eq!(tuner.nbins_boost(), 8, "doubles per observation");
        // Clamped at the maximum boost.
        tuner.observe(&skewed);
        assert_eq!(tuner.nbins_boost(), AUTOTUNE_MAX_NBINS_BOOST);
        assert_eq!(tuner.bin_adjustments(), 3);

        // Flat occupancy steps the boost back down...
        let flat = synthetic_profile(16, 250, 8000, 240); // skew exactly 1.0
        tuner.observe(&flat);
        assert_eq!(tuner.nbins_boost(), 4);
        // ...while moderate skew between the thresholds is a fixed point.
        let mut mid = synthetic_profile(16, 250, 8000, 240);
        mid.stats.max_bin_flop = (mid.stats.mean_bin_flop * 2.0) as u64;
        tuner.observe(&mid);
        assert_eq!(tuner.nbins_boost(), 4);
        assert_eq!(tuner.bin_adjustments(), 4);
    }

    #[test]
    fn autotune_bin_feedback_ignores_empty_occupancy_but_not_threadlocal() {
        // No occupancy telemetry at all (empty product): no reaction.
        let tuner = AutoTune::new();
        let mut empty = synthetic_profile(16, 0, 0, 0);
        empty.stats.mean_bin_flop = 0.0;
        empty.stats.max_bin_flop = 0;
        tuner.observe(&empty);
        assert_eq!(tuner.nbins_boost(), 1);
        // A ThreadLocal run has no flushes but valid occupancy: the bin
        // knob still reacts while the width knob stays put.
        let mut tl = synthetic_profile(16, 0, 0, 0);
        tl.stats.mean_bin_flop = 100.0;
        tl.stats.max_bin_flop = 800;
        assert_eq!(tuner.observe(&tl), None, "no width step without flushes");
        assert_eq!(tuner.nbins_boost(), 2);
        assert_eq!(tuner.lines(), DEFAULT_LOCAL_BIN_CACHE_LINES);
    }

    #[test]
    fn resolve_nbins_applies_the_autotuned_boost() {
        let cfg = PbConfig::auto_tuned().with_l2_bytes(1 << 20);
        // 16M tuples of 16 bytes = 256 MiB -> 256 bins unboosted.
        assert_eq!(cfg.resolve_nbins(16 << 20, 16, 1 << 20), 256);
        let mut skewed = synthetic_profile(256, 1000, 32_000, 900);
        skewed.stats.max_bin_flop = (skewed.stats.mean_bin_flop * 8.0) as u64;
        cfg.auto_tune().unwrap().observe(&skewed);
        assert_eq!(cfg.auto_tune().unwrap().nbins_boost(), 2);
        assert_eq!(cfg.resolve_nbins(16 << 20, 16, 1 << 20), 512);
        // An explicit bin count is honoured verbatim, boost or not.
        let explicit = cfg.clone().with_nbins(100);
        assert_eq!(explicit.resolve_nbins(16 << 20, 16, 1 << 20), 100);
        // The row clamp still applies on top of the boost.
        assert_eq!(cfg.resolve_nbins(16 << 20, 16, 300), 300);
    }

    #[test]
    fn workspace_configs_share_the_handle_across_clones() {
        let cfg = PbConfig::reusing();
        let clone = cfg.clone();
        assert_eq!(cfg, clone, "clones share the same workspace");
        assert!(Arc::ptr_eq(
            cfg.workspace().unwrap(),
            clone.workspace().unwrap()
        ));
        // A fresh workspace is a *different* configuration.
        assert_ne!(cfg, PbConfig::reusing());
        assert_ne!(cfg, PbConfig::default());
        assert!(PbConfig::default().workspace().is_none());
    }

    #[test]
    fn numa_domain_overrides_clamp_and_compare() {
        let c = PbConfig::new().with_numa_domains(0);
        assert_eq!(c.numa_domains, Some(1));
        assert_eq!(PbConfig::default().numa_domains, None);
        assert_ne!(
            PbConfig::default().with_numa_domains(2),
            PbConfig::default()
        );
        // resolve_domains never exceeds the pool's thread count.
        let forced = PbConfig::new().with_numa_domains(64);
        assert!(forced.resolve_domains() <= rayon::current_num_threads());
        assert!(PbConfig::default().resolve_domains() >= 1);
    }

    #[test]
    fn auto_tuned_configs_share_the_policy_across_clones() {
        let cfg = PbConfig::auto_tuned_from_lines(2);
        let clone = cfg.clone();
        assert_eq!(cfg, clone);
        assert_eq!(cfg.effective_local_bin_bytes(), 2 * CACHE_LINE_BYTES);
        // Adjusting through one handle is visible through the other.
        let trace = synthetic_profile(16, 1000, 8000, 900);
        cfg.auto_tune().unwrap().observe(&trace);
        assert_eq!(clone.effective_local_bin_bytes(), 4 * CACHE_LINE_BYTES);
        // A fresh auto-tuned config is a *different* policy.
        assert_ne!(cfg, PbConfig::auto_tuned_from_lines(2));
        // Without autotuning the static width wins.
        assert_eq!(
            PbConfig::default().effective_local_bin_bytes(),
            DEFAULT_LOCAL_BIN_CACHE_LINES * CACHE_LINE_BYTES
        );
    }
}
