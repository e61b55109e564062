//! Machine-readable performance baseline (`BENCH_pb.json`).
//!
//! The `bench_pb` binary sweeps PB-SpGEMM over thread counts on an R-MAT
//! workload and writes one self-describing JSON document.  Future PRs
//! regenerate the file on comparable hardware and diff the numbers, so the
//! suite has a perf trajectory instead of anecdotes.  Every record carries
//! both the *requested* and the *effective* thread count plus the host's
//! core count — and sweep points running more threads than the host has
//! cores are flagged `oversubscribed`, so downstream plots can exclude
//! points whose "scaling" is just context-switch noise (a 1-core container
//! sweeping 1/2/4 threads produces exactly such points).
//!
//! Each sweep point also embeds a [`Telemetry`] section — the runtime
//! [`PhaseStats`](pb_spgemm::PhaseStats) of a profiled run at that thread
//! count.

use std::sync::Arc;

use serde::Serialize;

use crate::runner::{measure_in, measure_pb_profile, Algorithm, Telemetry};
use crate::workloads::{rmat_matrix, Workload};
use pb_spgemm::{PbConfig, Workspace};

/// Per-phase wall-clock seconds of one PB-SpGEMM run.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseSeconds {
    /// Symbolic (flop counting + bin sizing) phase.
    pub symbolic: f64,
    /// Expand (outer products into bins) phase.
    pub expand: f64,
    /// Sort (per-bin radix sort) phase.
    pub sort: f64,
    /// Compress (duplicate merge) phase.
    pub compress: f64,
    /// Assemble (CSR write-out) phase.
    pub assemble: f64,
}

/// One point of the thread sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Thread count requested for this point.
    pub threads_requested: usize,
    /// Thread count that actually executed (dedicated pool size).
    pub threads_effective: usize,
    /// `true` when more threads executed than the host has cores: the
    /// point measures oversubscription, not scaling, and plots should
    /// exclude it (on a 1-core host sort can even look *slower* at 2
    /// threads than 1 — that is scheduler noise, not the algorithm).
    pub oversubscribed: bool,
    /// Best wall-clock seconds over the repetitions.
    pub seconds: f64,
    /// Achieved GFLOPS at the best run.
    pub gflops: f64,
    /// Speedup of this point relative to the 1-thread point.
    pub speedup_vs_1t: f64,
    /// Per-phase seconds of one profiled run at this thread count.
    pub phases: PhaseSeconds,
    /// Runtime telemetry of that profiled run.
    pub telemetry: Telemetry,
}

/// The NUMA topology the baseline ran under, as discovered (or forced) at
/// run time — committed alongside the numbers so a reader can tell a real
/// dual-socket measurement from a `PB_NUMA_DOMAINS`-forced emulation.
#[derive(Debug, Clone, Serialize)]
pub struct TopologyInfo {
    /// Domains the host exposed (or the forced count).
    pub domains: usize,
    /// `"sysfs"`, `"forced"` or `"fallback"`.
    pub source: String,
    /// True when the topology was forced via `PB_NUMA_DOMAINS` — the
    /// partitioning ran, but no real bandwidth asymmetry backs it.
    pub forced: bool,
}

impl TopologyInfo {
    /// Snapshot of the detected topology.
    pub fn detect() -> Self {
        let t = pb_spgemm::Topology::detect();
        TopologyInfo {
            domains: t.num_domains(),
            source: match t.source() {
                pb_spgemm::TopologySource::Sysfs => "sysfs",
                pb_spgemm::TopologySource::Forced => "forced",
                pb_spgemm::TopologySource::Fallback => "fallback",
            }
            .to_string(),
            forced: t.is_forced(),
        }
    }
}

/// The whole baseline document.
#[derive(Debug, Clone, Serialize)]
pub struct PbBaseline {
    /// Schema tag for forward compatibility.
    pub schema: &'static str,
    /// Operation measured.
    pub op: &'static str,
    /// Workload description.
    pub workload: String,
    /// Matrix dimension (rows == cols).
    pub n: usize,
    /// Stored nonzeros of the input.
    pub nnz: usize,
    /// flop of the squaring.
    pub flop: u64,
    /// Nonzeros of the product.
    pub nnz_c: usize,
    /// Compression factor `flop / nnz_c`.
    pub cf: f64,
    /// Physical cores the host reported at run time.
    pub host_cores: usize,
    /// Size of the global pool at run time (PB_RAYON_THREADS or cores).
    pub pool_default_threads: usize,
    /// NUMA topology at run time (discovered or forced).
    pub topology: TopologyInfo,
    /// The sweep, ascending in requested threads.
    pub sweep: Vec<SweepPoint>,
    /// Max speedup over the 1-thread point anywhere in the sweep.
    pub best_speedup: f64,
    /// Workspace amortisation on repeated same-shape multiplies (schema
    /// v3): the counters `--verify` gates reuse on.
    pub workspace: WorkspaceReuseReport,
    /// Out-of-core tiled multiply smoke (schema v7): the baseline workload
    /// squared under a starvation budget that forces spills, gated on
    /// bit-identity to the resident product and on the resident-bytes bound.
    pub tiled: TiledOocReport,
    /// Planner regret sweep (`--planner` runs only, schema v4): every
    /// candidate kernel measured per corpus point, plus the calibrated
    /// planner's pick and its regret vs best-in-hindsight.
    pub planner: Option<crate::planner::PlannerReport>,
}

/// The repeated-multiply smoke: the baseline workload squared several times
/// through one persistent [`Workspace`], proving (not assuming) that the
/// steady state allocates nothing and that reuse leaves the product
/// bit-identical to the fresh-allocation path.
#[derive(Debug, Clone, Serialize)]
pub struct WorkspaceReuseReport {
    /// Multiplies run through the shared workspace.
    pub multiplies: usize,
    /// Workspace-managed bytes the first multiply allocated (populating the
    /// arena).
    pub first_bytes_allocated: u64,
    /// Bytes the *last* multiply allocated — 0 in a healthy steady state.
    pub steady_bytes_allocated: u64,
    /// Bytes the last multiply served from recycled capacity.
    pub steady_bytes_reused: u64,
    /// Buffer acquisitions the last multiply served entirely from recycled
    /// capacity (`--verify` fails when this is 0).
    pub steady_workspace_hits: u64,
    /// Whether a workspace-reusing product matched a fresh-allocation
    /// product bit-for-bit (`rowptr`/`colidx`/`values`), compared on a
    /// 1-thread pool where the schedule — and therefore every float
    /// accumulation order — is deterministic.
    pub bit_identical_to_fresh: bool,
    /// Whether the tracing subsystem was disabled during the smoke.  The
    /// span call sites are always compiled into the pipeline, so the
    /// zero-allocation steady state above proves the *dormant* tracer is
    /// free; `--verify` rejects runs where tracing was left on.
    pub tracer_off: bool,
}

/// The out-of-core tiled multiply smoke: the baseline workload squared
/// through [`SpGemm::multiply_tiled`](pb_spgemm::SpGemm::multiply_tiled)
/// under a byte budget deliberately too small for even one tile, so every
/// tile round-trips through the scratch file.  Unit-valued inputs make the
/// resident comparison *exact* — any bit difference is a real accumulation
/// bug, not float reassociation.
#[derive(Debug, Clone, Serialize)]
pub struct TiledOocReport {
    /// The tile grid (row blocks × inner blocks × column blocks).
    pub grid: (usize, usize, usize),
    /// The resident byte budget the run was starved to.
    pub budget_bytes: u64,
    /// Tile-pair multiplies executed.
    pub tiles_processed: u64,
    /// Bytes written to the scratch file (`--verify` fails when 0: the
    /// starvation budget no longer exercises the spill path).
    pub spill_bytes: u64,
    /// Tiles evicted to scratch at least once.
    pub spilled_tiles: u64,
    /// Tile fetches served from scratch rather than memory.
    pub spill_fetches: u64,
    /// Peak resident tile bytes observed by the store.
    pub resident_high_water: u64,
    /// Largest single tile — the store must admit one tile even over
    /// budget, so the bound below carries this slack.
    pub max_tile_bytes: u64,
    /// Whether `resident_high_water <= budget_bytes + max_tile_bytes`.
    pub within_budget_slack: bool,
    /// Whether the tiled product matched the resident engine's product
    /// bit-for-bit (`rowptr`/`colidx`/`values`) on unit values.
    pub bit_identical_to_resident: bool,
}

/// Starvation budget of the tiled smoke: 64 KiB holds no tile of any
/// baseline-scale product, so spills are guaranteed.
pub const TILED_SMOKE_BUDGET_BYTES: u64 = 64 * 1024;

/// Tile grid of the tiled smoke (fixed rather than derived so the committed
/// numbers are comparable across hosts and budgets).
pub const TILED_SMOKE_GRID: (usize, usize, usize) = (4, 4, 4);

/// Runs the out-of-core tiled smoke on `w`: squares a unit-valued copy both
/// resident and tiled-under-starvation, and reports the spill telemetry
/// plus the bit-identity verdict.
pub fn run_tiled_ooc(w: &Workload) -> TiledOocReport {
    let unit = w.a.map_values(|_| 1.0f64);
    let engine = pb_spgemm::SpGemm::pb();
    let resident = engine.multiply(&unit, &unit);
    let (p, q, r) = TILED_SMOKE_GRID;
    let cfg = pb_spgemm::TiledConfig::new(TILED_SMOKE_BUDGET_BYTES).with_grid(p, q, r);
    let (tiled, report) = engine
        .multiply_tiled(&unit, &unit, &cfg)
        .expect("tiled smoke multiply");
    let bit_identical = resident.rowptr() == tiled.rowptr()
        && resident.colidx() == tiled.colidx()
        && resident.values() == tiled.values();
    TiledOocReport {
        grid: report.grid,
        budget_bytes: report.budget_bytes,
        tiles_processed: report.tiles_processed,
        spill_bytes: report.spill_bytes,
        spilled_tiles: report.spilled_tiles,
        spill_fetches: report.spill_fetches,
        resident_high_water: report.resident_high_water,
        max_tile_bytes: report.max_tile_bytes,
        within_budget_slack: report.within_budget_slack(),
        bit_identical_to_resident: bit_identical,
    }
}

/// Runs the repeated-multiply workspace smoke on `w` (squaring it
/// `multiplies` times through one workspace) and the deterministic
/// 1-thread bit-identity check.
pub fn run_workspace_reuse(w: &Workload, multiplies: usize) -> WorkspaceReuseReport {
    let multiplies = multiplies.max(2);
    let ws = Arc::new(Workspace::new());
    let cfg = PbConfig::default().with_workspace(ws);
    let mut first_alloc = 0u64;
    let mut last = None;
    for i in 0..multiplies {
        let profile = measure_pb_profile(w, &cfg);
        if i == 0 {
            first_alloc = profile.stats.bytes_allocated;
        }
        last = Some(profile);
    }
    let steady = last.expect("at least two multiplies ran").stats;

    // Bit-identity vs the fresh path, on a deterministic 1-thread pool.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("rayon pool");
    let bit_identical = pool.install(|| {
        let fresh = pb_spgemm::SpGemm::pb().multiply_csc(&w.a_csc, &w.a);
        let reusing = pb_spgemm::SpGemm::pb().workspace(Arc::new(Workspace::new()));
        // Two rounds: the second runs entirely on recycled buffers.
        let _ = reusing.multiply_csc(&w.a_csc, &w.a);
        let reused = reusing.multiply_csc(&w.a_csc, &w.a);
        fresh.rowptr() == reused.rowptr()
            && fresh.colidx() == reused.colidx()
            && fresh.values() == reused.values()
    });

    WorkspaceReuseReport {
        multiplies,
        first_bytes_allocated: first_alloc,
        steady_bytes_allocated: steady.bytes_allocated,
        steady_bytes_reused: steady.bytes_reused,
        steady_workspace_hits: steady.workspace_hits,
        bit_identical_to_fresh: bit_identical,
        tracer_off: !pb_spgemm::trace::enabled(),
    }
}

/// Thread counts to sweep: 1, 2, 4, ... up to `max`, always including
/// `max` itself.
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let mut threads = vec![1usize];
    let mut t = 2;
    while t <= max {
        threads.push(t);
        t *= 2;
    }
    if *threads.last().unwrap() != max {
        threads.push(max);
    }
    threads
}

/// Cores the host reports (1 when detection fails).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The R-MAT workload every baseline artifact is measured on: edge factor
/// 8, seed 42.  `scale` 10 is the CI perf-smoke size; `scale` 12 the
/// committed `BENCH_pb.json` (the README quickstart's size).
pub fn baseline_workload(scale: u32) -> Workload {
    rmat_matrix(scale, 8, 42)
}

/// Runs the baseline sweep on the quickstart-scale workload (R-MAT scale
/// 12, edge factor 8 — the README example's size).
pub fn run_pb_baseline(max_threads: usize, reps: usize) -> PbBaseline {
    run_pb_baseline_scaled(12, max_threads, reps)
}

/// Convenience wrapper: builds [`baseline_workload`] at the given scale and
/// sweeps it.  Callers that also verify on the same workload should
/// build it once and use [`run_pb_baseline_on`] instead (workload
/// construction includes a full symbolic product for `nnz_c`).
pub fn run_pb_baseline_scaled(scale: u32, max_threads: usize, reps: usize) -> PbBaseline {
    run_pb_baseline_on(&baseline_workload(scale), max_threads, reps)
}

/// Runs the baseline sweep: PB-SpGEMM squaring `w` at each thread count.
pub fn run_pb_baseline_on(w: &Workload, max_threads: usize, reps: usize) -> PbBaseline {
    let algo = Algorithm::Pb(PbConfig::default());
    let cores = host_cores();

    let mut sweep = Vec::new();
    let mut t1_seconds = f64::NAN;
    for &t in &thread_sweep(max_threads) {
        // One dedicated pool per sweep point, shared by the timed
        // repetitions *and* the profiled run — previously the profiled run
        // built a second pool of the same width through its config.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .expect("rayon pool");
        let m = measure_in(w, &algo, reps, Some(t), Some(&pool));
        let profile = pool.install(|| measure_pb_profile(w, &PbConfig::default()));
        if t == 1 {
            t1_seconds = m.seconds;
        }
        let secs = |d: std::time::Duration| d.as_secs_f64();
        sweep.push(SweepPoint {
            threads_requested: t,
            threads_effective: m.threads_effective,
            oversubscribed: m.threads_effective > cores,
            seconds: m.seconds,
            gflops: m.mflops / 1e3,
            speedup_vs_1t: t1_seconds / m.seconds,
            phases: PhaseSeconds {
                symbolic: secs(profile.timings.symbolic),
                expand: secs(profile.timings.expand),
                sort: secs(profile.timings.sort),
                compress: secs(profile.timings.compress),
                assemble: secs(profile.timings.assemble),
            },
            telemetry: Telemetry::from_profile(&profile),
        });
    }
    let best_speedup = sweep
        .iter()
        .map(|p| p.speedup_vs_1t)
        .fold(f64::MIN, f64::max);

    PbBaseline {
        // v7: the top-level `tiled` out-of-core smoke; v5: every sweep
        // point gained an `isa` section (SIMD dispatch level plus kernel
        // counters proving which path ran); v4 added the top-level
        // `planner` regret report (`--planner` runs); v3 the per-point
        // workspace telemetry and the top-level `workspace` reuse report;
        // v2 the per-point `numa` section.
        schema: SCHEMA_TAG,
        op: "spgemm_square",
        workload: w.name.clone(),
        n: w.a.nrows(),
        nnz: w.a.nnz(),
        flop: w.stats.flop,
        nnz_c: w.stats.nnz_c,
        cf: w.stats.cf,
        host_cores: cores,
        pool_default_threads: rayon::current_num_threads(),
        topology: TopologyInfo::detect(),
        sweep,
        best_speedup,
        workspace: run_workspace_reuse(w, WORKSPACE_SMOKE_MULTIPLIES),
        tiled: run_tiled_ooc(w),
        planner: None,
    }
}

/// Current baseline schema tag (shared with `bench_pb --verify`/`--gate`).
/// v7 added the `tiled` out-of-core smoke (spill telemetry gated on
/// bit-identity and the resident-bytes bound); v6 added
/// `workspace.tracer_off` — the dormant-tracer zero-alloc proof.
pub const SCHEMA_TAG: &str = "pb-bench-baseline/v7";

/// Multiplies of the repeated-multiply workspace smoke: enough that the
/// last one is unambiguously steady-state (the arena is populated by the
/// first and the high-water mark cannot move after it on a fixed shape).
pub const WORKSPACE_SMOKE_MULTIPLIES: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_is_powers_of_two_plus_max() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(4), vec![1, 2, 4]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
    }

    #[test]
    fn baseline_document_is_consistent_and_serializes() {
        // Tiny sweep to keep the test fast; correctness of the numbers is
        // covered by the runner's own tests.
        let doc = run_pb_baseline_scaled(8, 2, 1);
        assert_eq!(doc.schema, SCHEMA_TAG);
        assert_eq!(doc.sweep.len(), 2);
        assert_eq!(doc.sweep[0].threads_requested, 1);
        assert!((doc.sweep[0].speedup_vs_1t - 1.0).abs() < 1e-12);
        assert!(doc.sweep.iter().all(|p| p.seconds > 0.0 && p.gflops > 0.0));
        // Telemetry rides along on every point.
        assert!(doc
            .sweep
            .iter()
            .all(|p| p.telemetry.flushed_tuples == doc.flop));
        // A 1-thread point can never be oversubscribed.
        assert!(!doc.sweep[0].oversubscribed);
        // Oversubscription is exactly "more effective threads than cores".
        let cores = host_cores();
        for p in &doc.sweep {
            assert_eq!(p.oversubscribed, p.threads_effective > cores);
        }
        let json = serde_json::to_string_pretty(&doc).unwrap();
        assert!(json.contains("threads_effective"));
        assert!(json.contains("best_speedup"));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"oversubscribed\""));
        assert!(json.contains("\"numa\""));
        assert!(json.contains("local_flush_fraction"));
        // The numa section is consistent on every point.
        for p in &doc.sweep {
            assert!(p.telemetry.numa.domains >= 1);
            assert_eq!(
                p.telemetry.numa.local_flushes + p.telemetry.numa.remote_flushes,
                p.telemetry.flushes
            );
        }
        // No --planner section on plain runs.
        assert!(json.contains("\"planner\": null"));
        // The workspace reuse report always rides along (schema v3) and
        // must show a healthy steady state on a fixed-shape repeat.
        assert!(json.contains("\"workspace\""));
        assert!(json.contains("steady_workspace_hits"));
        // The isa section (schema v5) rides along on every point and names
        // the process-wide dispatch level.
        assert!(json.contains("\"isa\""));
        assert!(json.contains("prefetched_flushes"));
        for p in &doc.sweep {
            assert_eq!(p.telemetry.isa.isa, pb_spgemm::simd::active().name());
        }
        // The tiled out-of-core smoke (schema v7) rides along, spills under
        // the starvation budget, and reproduces the resident product.
        assert!(json.contains("\"tiled\""));
        assert!(json.contains("bit_identical_to_resident"));
        let t = &doc.tiled;
        assert_eq!(t.grid, TILED_SMOKE_GRID);
        assert_eq!(t.budget_bytes, TILED_SMOKE_BUDGET_BYTES);
        assert!(t.tiles_processed >= 1);
        assert!(t.spill_bytes > 0, "starvation budget did not spill: {t:?}");
        assert!(t.spill_fetches > 0);
        assert!(t.within_budget_slack, "{t:?}");
        assert!(t.bit_identical_to_resident, "{t:?}");
        let wsr = &doc.workspace;
        assert!(wsr.multiplies >= 2);
        assert!(wsr.first_bytes_allocated > 0);
        assert_eq!(wsr.steady_bytes_allocated, 0, "steady state allocates");
        assert!(wsr.steady_bytes_reused > 0);
        assert!(wsr.steady_workspace_hits > 0);
        assert!(wsr.bit_identical_to_fresh);
    }
}
