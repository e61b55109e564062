//! Timed algorithm runs shared by all figure/table binaries, and the
//! JSON-facing [`Telemetry`] view of a multiplication's
//! [`PhaseStats`](pb_spgemm::PhaseStats).

use std::time::Instant;

use pb_baseline::Baseline;
use pb_spgemm::{PbConfig, SpGemmProfile};
use serde::Serialize;

use crate::workloads::Workload;

/// An algorithm under test: PB-SpGEMM with a particular configuration, or
/// one of the column baselines.
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// PB-SpGEMM with the given configuration.
    Pb(PbConfig),
    /// A column SpGEMM baseline.
    Baseline(Baseline),
}

impl Algorithm {
    /// The four algorithms the paper's performance figures compare.
    pub fn paper_set() -> Vec<Algorithm> {
        let mut v = vec![Algorithm::Pb(PbConfig::default())];
        v.extend(
            Baseline::paper_set()
                .iter()
                .map(|&b| Algorithm::Baseline(b)),
        );
        v
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Pb(_) => "PB-SpGEMM",
            Algorithm::Baseline(b) => b.name(),
        }
    }
}

/// One timed measurement of one algorithm on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Workload name.
    pub workload: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Number of worker threads requested (the sweep key in scaling runs).
    pub threads: usize,
    /// Number of worker threads that actually executed.  The vendored pool
    /// is real, so an explicit request is honoured exactly (a dedicated
    /// pool of that size runs the work); only `None` requests depend on the
    /// environment (`PB_RAYON_THREADS` or the machine's parallelism).  The
    /// field is kept alongside `threads` so JSON consumers spanning old
    /// (sequential-shim) and new records keep a consistent schema.
    pub threads_effective: usize,
    /// Best wall-clock time over the repetitions, in seconds.
    pub seconds: f64,
    /// Achieved MFLOPS (`flop / seconds / 1e6`).
    pub mflops: f64,
    /// flop of the multiplication.
    pub flop: u64,
    /// nnz of the output.
    pub nnz_c: usize,
    /// Compression factor.
    pub cf: f64,
}

/// Runs `algorithm` on `workload` `reps` times and reports the best run.
///
/// `threads = None` uses the global rayon pool (all cores); otherwise a
/// dedicated pool of that size is used for baselines and the PB
/// configuration is updated accordingly.
pub fn measure(
    workload: &Workload,
    algorithm: &Algorithm,
    reps: usize,
    threads: Option<usize>,
) -> Measurement {
    // One dedicated pool for all repetitions, built outside the timed
    // region: thread spawning is measurement noise, not multiplication.
    let pool = threads.map(|t| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t.max(1))
            .build()
            .expect("rayon pool")
    });
    measure_in(workload, algorithm, reps, threads, pool.as_ref())
}

/// [`measure`] on a caller-provided pool, so one dedicated pool can serve
/// several measurements of the same width (the baseline sweep reuses one
/// pool per sweep point for both the timed runs and the profiled run,
/// instead of building a pool per consumer).
pub fn measure_in(
    workload: &Workload,
    algorithm: &Algorithm,
    reps: usize,
    threads: Option<usize>,
    pool: Option<&rayon::ThreadPool>,
) -> Measurement {
    let reps = reps.max(1);
    let mut best = f64::MAX;
    let mut nnz_c = 0usize;
    for _ in 0..reps {
        let (dt, nnz) = run_once(workload, algorithm, pool);
        best = best.min(dt);
        nnz_c = nnz;
    }
    let flop = workload.stats.flop;
    Measurement {
        workload: workload.name.clone(),
        algorithm: algorithm.name().to_string(),
        threads: threads.unwrap_or_else(rayon::current_num_threads).max(1),
        threads_effective: effective_threads(threads),
        seconds: best,
        mflops: flop as f64 / best / 1e6,
        flop,
        nnz_c,
        cf: workload.stats.cf,
    }
}

/// The thread count a request actually executes on.  Explicit requests are
/// honoured exactly — `run_once` installs a dedicated pool of that size —
/// and `None` uses the current (global) pool.  The old sequential-shim
/// special case is gone: the vendored pool reports the count that really
/// runs, so the shim's `current_num_threads()` and this function agree by
/// construction.
fn effective_threads(requested: Option<usize>) -> usize {
    requested.unwrap_or_else(rayon::current_num_threads).max(1)
}

fn run_once(
    workload: &Workload,
    algorithm: &Algorithm,
    pool: Option<&rayon::ThreadPool>,
) -> (f64, usize) {
    let run = || match algorithm {
        Algorithm::Pb(cfg) => {
            // The pool is installed around the call, so the config itself
            // must not request a second, nested pool.
            let cfg = PbConfig {
                threads: None,
                ..cfg.clone()
            };
            let engine = pb_spgemm::SpGemm::pb().config(cfg);
            let t = Instant::now();
            let c = engine.multiply_csc(&workload.a_csc, &workload.a);
            (t.elapsed().as_secs_f64(), c.nnz())
        }
        Algorithm::Baseline(b) => {
            let t = Instant::now();
            let c = b.multiply(&workload.a, &workload.a);
            (t.elapsed().as_secs_f64(), c.nnz())
        }
    };
    match pool {
        Some(pool) => pool.install(run),
        None => run(),
    }
}

/// Runs PB-SpGEMM once and returns its per-phase profile (used by the
/// bandwidth and breakdown figures).
pub fn measure_pb_profile(workload: &Workload, config: &PbConfig) -> SpGemmProfile {
    let (_, profile) = pb_spgemm::SpGemm::pb()
        .config(config.clone())
        .multiply_csc_with_profile::<pb_sparse::PlusTimes<f64>>(&workload.a_csc, &workload.a);
    profile
}

/// The serializable view of one multiplication's runtime telemetry,
/// emitted per sweep point into `BENCH_pb.json` (`telemetry` section).
///
/// Raw counters come straight from
/// [`PhaseStats`](pb_spgemm::PhaseStats); the derived rates are
/// pre-computed here so JSON consumers (plots, CI checks) need no
/// knowledge of the histogram conventions.
#[derive(Debug, Clone, Serialize)]
pub struct Telemetry {
    /// Local-bin capacity (tuples) the expand phase used.
    pub local_bin_capacity: usize,
    /// Total local-bin flushes across all threads.
    pub flushes: u64,
    /// Total tuples moved by those flushes.
    pub flushed_tuples: u64,
    /// Mean tuples per flush.
    pub mean_flush_tuples: f64,
    /// Fraction of flushes that were capacity-triggered.
    pub full_flush_fraction: f64,
    /// Histogram of flush sizes by fill-fraction eighth of the capacity.
    pub flush_fill_hist: Vec<u64>,
    /// Expand fold segments that reported flush counts.
    pub expand_segments: usize,
    /// Fewest flushes any one segment performed.
    pub min_segment_flushes: u64,
    /// Most flushes any one segment performed.
    pub max_segment_flushes: u64,
    /// Expanded tuples landing in the fullest bin.
    pub max_bin_flop: u64,
    /// Bin occupancy skew (fullest bin / mean bin).
    pub bin_occupancy_skew: f64,
    /// Output rows holding at least one nonzero.
    pub nonempty_rows: usize,
    /// NUMA partition and flush-locality telemetry.
    pub numa: NumaTelemetry,
    /// Workspace buffer traffic of the run (schema v3).
    pub workspace: WorkspaceTelemetry,
    /// SIMD dispatch proof of the run (schema v5).
    pub isa: IsaTelemetry,
}

/// The `isa` section of one sweep point: which SIMD dispatch level the
/// multiply resolved to and the kernel invocation counters that *prove* the
/// path executed — the gate checks these instead of trusting build flags.
#[derive(Debug, Clone, Serialize)]
pub struct IsaTelemetry {
    /// Name of the dispatched level (`avx512` | `avx2` | `neon` | `scalar`).
    pub isa: String,
    /// Radix histogram invocations that ran a SIMD kernel.
    pub simd_histograms: u64,
    /// Radix histogram invocations that ran the scalar loop.
    pub scalar_histograms: u64,
    /// Radix scatter passes that issued destination prefetch hints.
    pub prefetched_scatters: u64,
    /// Expand-phase bin flushes that prefetched their destination lines.
    pub prefetched_flushes: u64,
}

impl IsaTelemetry {
    /// Extracts the ISA section from a profiled run's stats.
    pub fn from_stats(s: &pb_spgemm::PhaseStats) -> Self {
        IsaTelemetry {
            isa: s.isa.isa.name().to_string(),
            simd_histograms: s.isa.simd_histograms,
            scalar_histograms: s.isa.scalar_histograms,
            prefetched_scatters: s.isa.prefetched_scatters,
            prefetched_flushes: s.isa.prefetched_flushes,
        }
    }
}

/// The `workspace` section of one sweep point: how much of the multiply's
/// working memory (expand tuple buffer, sort scratch, staging) came from a
/// persistent [`Workspace`](pb_spgemm::Workspace) versus the heap.  Fresh
/// (workspace-less) runs report allocation traffic and zero reuse.
#[derive(Debug, Clone, Serialize)]
pub struct WorkspaceTelemetry {
    /// Bytes of workspace-managed buffers newly allocated by this multiply.
    pub bytes_allocated: u64,
    /// Bytes served from recycled workspace capacity.
    pub bytes_reused: u64,
    /// Buffer acquisitions served entirely from recycled capacity.
    pub workspace_hits: u64,
}

impl WorkspaceTelemetry {
    /// Extracts the workspace section from a profiled run's stats.
    pub fn from_stats(s: &pb_spgemm::PhaseStats) -> Self {
        WorkspaceTelemetry {
            bytes_allocated: s.bytes_allocated,
            bytes_reused: s.bytes_reused,
            workspace_hits: s.workspace_hits,
        }
    }
}

/// The `numa` section of one sweep point: how the bins were partitioned
/// over NUMA domains and how local the expand-phase flush traffic actually
/// was (measured, not assumed — remote flushes come from cross-domain work
/// stealing, so this is the number that *proves* socket-locality).
#[derive(Debug, Clone, Serialize)]
pub struct NumaTelemetry {
    /// Domains the multiplication's bins were partitioned over (1 = no
    /// partitioning).
    pub domains: usize,
    /// Flushes whose destination sub-segment belonged to the flushing
    /// worker's own domain.
    pub local_flushes: u64,
    /// Flushes that crossed domains.
    pub remote_flushes: u64,
    /// `local_flushes / (local + remote)`; 1.0 when nothing flushed.
    pub local_flush_fraction: f64,
    /// Tuples moved by domain-local flushes.
    pub local_flushed_tuples: u64,
    /// Tuples moved by cross-domain flushes.
    pub remote_flushed_tuples: u64,
    /// Expanded tuples owned by each domain's bin segments (one entry per
    /// domain that ran).
    pub domain_occupancy: Vec<u64>,
}

impl NumaTelemetry {
    /// Extracts the NUMA section from a profiled run's stats.
    pub fn from_stats(s: &pb_spgemm::PhaseStats) -> Self {
        NumaTelemetry {
            domains: s.numa_domains,
            local_flushes: s.local_flushes,
            remote_flushes: s.remote_flushes,
            local_flush_fraction: s.local_flush_fraction(),
            local_flushed_tuples: s.local_flushed_tuples,
            remote_flushed_tuples: s.remote_flushed_tuples,
            domain_occupancy: s.domain_occupancy().to_vec(),
        }
    }
}

impl Telemetry {
    /// Extracts the JSON-facing telemetry from a profiled run.
    pub fn from_profile(profile: &SpGemmProfile) -> Self {
        let s = &profile.stats;
        Telemetry {
            local_bin_capacity: s.local_bin_capacity,
            flushes: s.flushes,
            flushed_tuples: s.flushed_tuples,
            mean_flush_tuples: s.mean_flush_tuples(),
            full_flush_fraction: s.full_flush_fraction(),
            flush_fill_hist: s.flush_fill_hist.to_vec(),
            expand_segments: s.expand_segments,
            min_segment_flushes: s.min_segment_flushes,
            max_segment_flushes: s.max_segment_flushes,
            max_bin_flop: s.max_bin_flop,
            bin_occupancy_skew: s.occupancy_skew(),
            nonempty_rows: s.nonempty_rows,
            numa: NumaTelemetry::from_stats(s),
            workspace: WorkspaceTelemetry::from_stats(s),
            isa: IsaTelemetry::from_stats(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::er_matrix;

    #[test]
    fn measurements_are_positive_and_consistent() {
        let w = er_matrix(8, 4, 5);
        for algo in Algorithm::paper_set() {
            let m = measure(&w, &algo, 1, Some(1));
            assert!(m.seconds > 0.0);
            assert!(m.mflops > 0.0);
            assert_eq!(m.flop, w.stats.flop);
            assert_eq!(
                m.nnz_c, w.stats.nnz_c,
                "{} produced the wrong nnz",
                m.algorithm
            );
            assert_eq!(m.threads, 1);
        }
    }

    #[test]
    fn paper_set_has_pb_and_three_baselines() {
        let set = Algorithm::paper_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set[0].name(), "PB-SpGEMM");
    }

    #[test]
    fn profile_measurement_reports_phases() {
        let w = er_matrix(8, 4, 6);
        let p = measure_pb_profile(&w, &PbConfig::default());
        assert_eq!(p.flop, w.stats.flop);
        assert!(p.timings.total().as_nanos() > 0);
    }

    #[test]
    fn telemetry_mirrors_the_profile_stats() {
        let w = er_matrix(8, 6, 7);
        let p = measure_pb_profile(&w, &PbConfig::default());
        let t = Telemetry::from_profile(&p);
        // The default Reserved strategy flushes every expanded tuple.
        assert_eq!(t.flushed_tuples, p.flop);
        assert!(t.flushes > 0);
        assert_eq!(t.flush_fill_hist.iter().sum::<u64>(), t.flushes);
        assert!(t.mean_flush_tuples > 0.0);
        assert!(t.bin_occupancy_skew >= 1.0);
        assert!(t.nonempty_rows > 0);
        // And it serializes with the field names downstream plots expect.
        let json = serde_json::to_string(&t).unwrap();
        for key in [
            "local_bin_capacity",
            "mean_flush_tuples",
            "full_flush_fraction",
            "flush_fill_hist",
            "bin_occupancy_skew",
            "\"numa\"",
            "local_flush_fraction",
            "domain_occupancy",
            "\"workspace\"",
            "bytes_allocated",
            "bytes_reused",
            "workspace_hits",
            "\"isa\"",
            "simd_histograms",
            "scalar_histograms",
            "prefetched_scatters",
            "prefetched_flushes",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // A fresh (workspace-less) run allocates and never reuses.
        assert!(t.workspace.bytes_allocated > 0);
        assert_eq!(t.workspace.bytes_reused, 0);
        assert_eq!(t.workspace.workspace_hits, 0);
        // The ISA section names the process-wide dispatch level and its
        // counters agree with it: a SIMD level proves itself with SIMD
        // histogram invocations, forced scalar with scalar ones.
        assert_eq!(t.isa.isa, pb_spgemm::simd::active().name());
        if pb_spgemm::simd::active() == pb_spgemm::Isa::Scalar {
            assert_eq!(t.isa.simd_histograms, 0);
            assert_eq!(t.isa.prefetched_flushes, 0);
        } else {
            assert!(t.isa.simd_histograms + t.isa.scalar_histograms > 0);
            assert_eq!(t.isa.prefetched_flushes, t.flushes);
        }
    }

    #[test]
    fn workspace_telemetry_reports_reuse_on_repeat_multiplies() {
        let w = er_matrix(8, 6, 11);
        let cfg = PbConfig::reusing();
        let first = Telemetry::from_profile(&measure_pb_profile(&w, &cfg));
        let second = Telemetry::from_profile(&measure_pb_profile(&w, &cfg));
        assert!(first.workspace.bytes_allocated > 0);
        assert_eq!(second.workspace.bytes_allocated, 0, "steady state");
        assert!(second.workspace.bytes_reused > 0);
        assert!(second.workspace.workspace_hits > 0);
    }

    #[test]
    fn numa_telemetry_accounts_the_partition() {
        let w = er_matrix(8, 6, 9);
        let cfg = PbConfig::default().with_threads(2).with_numa_domains(2);
        let p = measure_pb_profile(&w, &cfg);
        let t = Telemetry::from_profile(&p);
        assert_eq!(t.numa.domains, 2);
        assert_eq!(t.numa.domain_occupancy.len(), 2);
        assert_eq!(t.numa.domain_occupancy.iter().sum::<u64>(), p.flop);
        assert_eq!(
            t.numa.local_flushes + t.numa.remote_flushes,
            t.flushes,
            "every flush is local or remote"
        );
        assert!((0.0..=1.0).contains(&t.numa.local_flush_fraction));
        // An unpartitioned run is all-local by definition.
        let p1 = measure_pb_profile(
            &w,
            &PbConfig::default().with_threads(2).with_numa_domains(1),
        );
        let t1 = Telemetry::from_profile(&p1);
        assert_eq!(t1.numa.domains, 1);
        assert_eq!(t1.numa.remote_flushes, 0);
        assert_eq!(t1.numa.local_flush_fraction, 1.0);
    }
}
