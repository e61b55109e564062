//! Emits the machine-readable PB-SpGEMM performance baseline.
//!
//! ```text
//! cargo run --release -p pb-bench --bin bench_pb -- [flags] [output-path]
//! ```
//!
//! Sweeps PB-SpGEMM over thread counts (1, 2, 4, ... up to the pool's
//! size, which honours `PB_RAYON_THREADS`) on an R-MAT workload and writes
//! `BENCH_pb.json` (or the given path).  Also prints a small
//! human-readable table.
//!
//! Flags:
//!
//! * `--smoke` — CI-sized run: R-MAT scale 10 instead of 12, one
//!   repetition per point.
//! * `--planner` — additionally run the [`Planner`](pb_spgemm::Planner)
//!   regret sweep: measure every candidate kernel on a small corpus of
//!   diverse-compression-factor workloads, calibrate a fresh planner from
//!   those measurements, and attach the per-point regret report (`planner`
//!   section) to the JSON.  `--verify`/`--gate` then fail if any point's
//!   calibrated pick costs more than 25% over best-in-hindsight.
//! * `--verify` — after writing, re-read the file, parse it, check it
//!   against the `pb-bench-baseline/v7` schema (including the per-point
//!   `numa`, `workspace`, `isa` and top-level `tiled` sections) and generous per-phase sanity
//!   ceilings, and assert PB-SpGEMM's product still matches the reference
//!   oracle.  On multi-domain points the measured domain-local flush
//!   fraction must clear [`NUMA_LOCAL_FLUSH_FLOOR`]; the repeated-multiply
//!   workspace smoke must show a hit-serving, zero-allocation steady state
//!   that is bit-identical to the fresh path; a `planner` section, when
//!   present, must clear the regret ceiling on every corpus point; every
//!   point's `isa` section must name the dispatch level this process
//!   actually resolved (`pb_spgemm::simd::active()`) with kernel counters
//!   proving that path executed — not just that the binary was built with
//!   the right flags.  Exits non-zero on any violation (the CI perf-gate).
//! * `--gate PATH` — additionally load the *committed* baseline at `PATH`
//!   and fail if any of its telemetry invariants regressed (schema
//!   version, oversubscription-flag consistency, the ≥95% local-flush
//!   floor, flop accounting), printing a per-thread-count diff summary
//!   between the committed numbers and this run's fresh ones.

use pb_bench::baseline::{baseline_workload, run_pb_baseline_on, SCHEMA_TAG};
use pb_bench::planner::{run_planner_sweep, PLANNER_REGRET_CEILING};
use pb_bench::workloads::Workload;
use pb_bench::{fmt, print_table, Table};
use serde_json::Value;

/// Per-phase wall-clock ceiling for the smoke-sized workloads.  Generous on
/// purpose: containers are noisy, so CI gates on correctness and schema,
/// not on tight timings — this only catches order-of-magnitude rot
/// (an accidentally quadratic phase, a deadlocked pool).
const PHASE_SANITY_CEILING_SECONDS: f64 = 120.0;

/// Minimum domain-local flush fraction `--verify` demands of every
/// multi-domain sweep point.  Flop-balanced column ranges plus the pool's
/// own-domain-first claiming keep remote flushes down to the occasional
/// end-of-range steal, so 95% clears comfortably on the smoke workload
/// while still failing loudly if the routing ever regresses to
/// domain-oblivious claiming (~50% local at two domains).
const NUMA_LOCAL_FLUSH_FLOOR: f64 = 0.95;

fn main() {
    let mut smoke = false;
    let mut planner = false;
    let mut verify = false;
    let mut gate_path: Option<String> = None;
    let mut out_path = "BENCH_pb.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--planner" => planner = true,
            "--verify" => verify = true,
            "--gate" => match args.next() {
                Some(path) => gate_path = Some(path),
                None => {
                    eprintln!("--gate needs the committed baseline path");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag} (known: --smoke --planner --verify --gate PATH)");
                std::process::exit(2);
            }
            path => out_path = path.to_string(),
        }
    }

    let scale = if smoke { 10 } else { 12 };
    let reps = if smoke || pb_bench::quick_mode() {
        1
    } else {
        3
    };
    let max_threads = rayon::current_num_threads();

    // One workload serves the sweep and the verification oracle —
    // construction includes a full symbolic product, so building it per
    // consumer would double that cost.
    let w = baseline_workload(scale);
    let mut doc = run_pb_baseline_on(&w, max_threads, reps);

    let mut table = Table::new(
        format!(
            "PB-SpGEMM baseline — {} (flop {:.1}M, cf {:.2}, host cores {}, numa {} [{}])",
            doc.workload,
            doc.flop as f64 / 1e6,
            doc.cf,
            doc.host_cores,
            doc.topology.domains,
            doc.topology.source,
        ),
        &[
            "threads",
            "effective",
            "oversub",
            "seconds",
            "GFLOPS",
            "speedup",
            "flushes",
            "domains",
            "local %",
        ],
    );
    for p in &doc.sweep {
        table.push_row(vec![
            p.threads_requested.to_string(),
            p.threads_effective.to_string(),
            if p.oversubscribed { "yes" } else { "no" }.to_string(),
            fmt(p.seconds, 6),
            fmt(p.gflops, 3),
            fmt(p.speedup_vs_1t, 2),
            p.telemetry.flushes.to_string(),
            p.telemetry.numa.domains.to_string(),
            fmt(p.telemetry.numa.local_flush_fraction * 100.0, 1),
        ]);
    }
    print_table(&table);
    let t = &doc.tiled;
    println!(
        "out-of-core smoke: {}x{}x{} grid under {} KiB, {} tile multiplies, \
         {} B spilled over {} tiles, resident high water {} B, bit-identical: {}",
        t.grid.0,
        t.grid.1,
        t.grid.2,
        t.budget_bytes / 1024,
        t.tiles_processed,
        t.spill_bytes,
        t.spilled_tiles,
        t.resident_high_water,
        t.bit_identical_to_resident,
    );

    if planner {
        let report = run_planner_sweep(smoke || pb_bench::quick_mode(), reps);
        let mut table = Table::new(
            format!(
                "Planner regret sweep — max regret {:.1}% (ceiling {:.0}%), \
                 cold-start prior max {:.1}%, {} thread(s)",
                report.max_regret * 100.0,
                report.regret_ceiling * 100.0,
                report.max_prior_regret * 100.0,
                report.threads,
            ),
            &[
                "workload", "cf", "cf est", "chosen", "best", "regret %", "prior", "prior %",
            ],
        );
        for p in &report.points {
            table.push_row(vec![
                p.workload.clone(),
                fmt(p.cf, 2),
                fmt(p.cf_estimate, 2),
                p.chosen.clone(),
                p.best.clone(),
                fmt(p.regret * 100.0, 1),
                p.prior.clone(),
                fmt(p.prior_regret * 100.0, 1),
            ]);
        }
        print_table(&table);
        doc.planner = Some(report);
    }

    let json = serde_json::to_string_pretty(&doc).expect("serialize baseline");
    std::fs::write(&out_path, json + "\n").expect("write baseline JSON");
    println!("wrote {out_path} (best speedup {:.2}x)", doc.best_speedup);

    if verify {
        verify_baseline(&out_path, &w);
        println!("verified {out_path}: schema, phase ceilings, workspace reuse and oracle all OK");
    }

    if let Some(committed) = gate_path {
        gate_against(&committed, &out_path);
        println!("gated against {committed}: committed telemetry invariants hold");
    }
}

/// Re-reads and validates an emitted baseline: parses the JSON, checks the
/// schema tag and structure, applies the per-phase sanity ceiling, gates
/// the workspace reuse smoke, and cross-checks PB-SpGEMM against the
/// reference oracle on the same workload.  Panics (non-zero exit) on any
/// violation.
fn verify_baseline(path: &str, w: &Workload) {
    let doc = load_baseline(path);
    check_document(&doc, path);

    // --- ISA dispatch proof (fresh runs only; the committed file may have
    //     been generated on a host with a different SIMD level). -----------
    let active = pb_spgemm::simd::active();
    let sweep = doc
        .get("sweep")
        .and_then(Value::as_array)
        .expect("sweep must be an array");
    for (i, point) in sweep.iter().enumerate() {
        let isa = point
            .get("telemetry")
            .and_then(|t| t.get("isa"))
            .unwrap_or_else(|| panic!("sweep[{i}] telemetry missing the isa section"));
        assert_eq!(
            isa.get("isa").and_then(Value::as_str),
            Some(active.name()),
            "sweep[{i}] dispatched a different ISA level than this process resolved"
        );
        let counter = |key: &str| {
            isa.get(key)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("sweep[{i}] isa section missing {key}"))
        };
        if active == pb_spgemm::Isa::Scalar {
            assert_eq!(
                counter("simd_histograms"),
                0,
                "sweep[{i}] forced-scalar run still dispatched SIMD histograms"
            );
            assert_eq!(
                counter("prefetched_flushes"),
                0,
                "sweep[{i}] forced-scalar run still prefetched flushes"
            );
            assert!(
                counter("scalar_histograms") > 0,
                "sweep[{i}] scalar run reports no histogram invocations at all"
            );
        } else {
            assert!(
                counter("simd_histograms") > 0,
                "sweep[{i}] claims {} but no SIMD histogram kernel ever ran — \
                 the dispatch is lying or the sort never engaged it",
                active.name()
            );
            assert!(
                counter("prefetched_scatters") > 0,
                "sweep[{i}] scatter passes issued no prefetch hints"
            );
        }
    }

    // --- Correctness oracle (fresh runs only; the committed gate file was
    //     measured on a different workload scale). -------------------------
    let c = pb_spgemm::SpGemm::pb().multiply_csc(&w.a_csc, &w.a);
    let expected = pb_sparse::reference::multiply_csr(&w.a, &w.a);
    assert!(
        pb_sparse::reference::csr_approx_eq(&c, &expected, 1e-9),
        "PB-SpGEMM no longer matches the reference oracle on {}",
        w.name
    );
    assert_eq!(
        doc.get("nnz_c").and_then(Value::as_u64),
        Some(expected.nnz() as u64),
        "emitted nnz_c disagrees with the oracle"
    );
}

/// Parses a baseline JSON document from disk.
fn load_baseline(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} must parse as JSON: {e:?}"))
}

/// Validates one baseline document's telemetry invariants (shared between
/// `--verify` on the fresh emission and `--gate` on the committed file):
/// schema tag, per-point structure and sanity ceilings, flop accounting,
/// oversubscription-flag consistency, the NUMA local-flush floor, and the
/// workspace reuse report.
fn check_document(doc: &Value, path: &str) {
    // --- Schema. -----------------------------------------------------------
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(SCHEMA_TAG),
        "{path}: schema tag mismatch (regenerate with this bench_pb)"
    );
    for key in [
        "op",
        "workload",
        "n",
        "nnz",
        "flop",
        "nnz_c",
        "cf",
        "host_cores",
        "pool_default_threads",
        "topology",
        "sweep",
        "best_speedup",
        "workspace",
        "tiled",
        "planner",
    ] {
        assert!(
            doc.get(key).is_some(),
            "{path}: missing top-level key {key}"
        );
    }
    let sweep = doc
        .get("sweep")
        .and_then(Value::as_array)
        .expect("sweep must be an array");
    assert!(!sweep.is_empty(), "sweep must not be empty");
    let host_cores = doc
        .get("host_cores")
        .and_then(Value::as_u64)
        .expect("host_cores");

    for (i, point) in sweep.iter().enumerate() {
        for key in [
            "threads_requested",
            "threads_effective",
            "oversubscribed",
            "seconds",
            "gflops",
            "speedup_vs_1t",
            "phases",
            "telemetry",
        ] {
            assert!(point.get(key).is_some(), "sweep[{i}] missing {key}");
        }
        let effective = point
            .get("threads_effective")
            .and_then(Value::as_u64)
            .expect("threads_effective");
        assert_eq!(
            point.get("oversubscribed").and_then(Value::as_bool),
            Some(effective > host_cores),
            "sweep[{i}] oversubscribed flag inconsistent with host_cores"
        );
        let phases = point.get("phases").expect("phases");
        for phase in ["symbolic", "expand", "sort", "compress", "assemble"] {
            let t = phases
                .get(phase)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("sweep[{i}] missing phase {phase}"));
            assert!(
                (0.0..PHASE_SANITY_CEILING_SECONDS).contains(&t),
                "sweep[{i}] phase {phase} = {t}s breaches the sanity ceiling"
            );
        }
        let telemetry = point.get("telemetry").expect("telemetry");
        let flushed = telemetry
            .get("flushed_tuples")
            .and_then(Value::as_u64)
            .expect("flushed_tuples");
        assert_eq!(
            Some(flushed),
            doc.get("flop").and_then(Value::as_u64),
            "sweep[{i}] telemetry does not account for every expanded tuple"
        );

        // --- Workspace section (schema v3). ---------------------------------
        let ws = telemetry
            .get("workspace")
            .unwrap_or_else(|| panic!("sweep[{i}] telemetry missing the workspace section"));
        for key in ["bytes_allocated", "bytes_reused", "workspace_hits"] {
            assert!(
                ws.get(key).and_then(Value::as_u64).is_some(),
                "sweep[{i}] workspace section missing {key}"
            );
        }

        // --- ISA section (schema v5): whatever level the point claims, its
        //     own counters must prove it — a committed file asserting
        //     `avx2` with zero SIMD histogram invocations is evidence the
        //     dispatch silently fell back at generation time. ---------------
        let isa = telemetry
            .get("isa")
            .unwrap_or_else(|| panic!("sweep[{i}] telemetry missing the isa section"));
        let level = isa
            .get("isa")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("sweep[{i}] isa section missing the level name"));
        assert!(
            ["avx512", "avx2", "neon", "scalar"].contains(&level),
            "sweep[{i}] names unknown ISA level {level:?}"
        );
        let isa_counter = |key: &str| {
            isa.get(key)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("sweep[{i}] isa section missing {key}"))
        };
        let prefetched_flushes = isa_counter("prefetched_flushes");
        let simd_histograms = isa_counter("simd_histograms");
        let scalar_histograms = isa_counter("scalar_histograms");
        let prefetched_scatters = isa_counter("prefetched_scatters");
        if level == "scalar" {
            assert_eq!(
                (simd_histograms, prefetched_scatters, prefetched_flushes),
                (0, 0, 0),
                "sweep[{i}] scalar point reports SIMD/prefetch activity"
            );
            assert!(
                scalar_histograms > 0,
                "sweep[{i}] reports no histogram invocations at all"
            );
        } else {
            assert!(
                simd_histograms > 0,
                "sweep[{i}] claims {level} but its counters show no SIMD \
                 histogram kernel ever ran"
            );
        }

        // --- NUMA section (schema v2). ------------------------------------
        let numa = telemetry
            .get("numa")
            .unwrap_or_else(|| panic!("sweep[{i}] telemetry missing the numa section"));
        let domains = numa
            .get("domains")
            .and_then(Value::as_u64)
            .expect("numa.domains");
        assert!(domains >= 1, "sweep[{i}] reports zero domains");
        assert!(
            domains <= effective,
            "sweep[{i}] claims more domains than threads"
        );
        let occupancy = numa
            .get("domain_occupancy")
            .and_then(Value::as_array)
            .expect("numa.domain_occupancy");
        // The telemetry reports at most MAX_TELEMETRY_DOMAINS occupancy
        // slots (domains beyond that fold into the last one), so a >8-node
        // host legitimately reports fewer entries than domains.
        let expected_slots = domains.min(pb_spgemm::profile::MAX_TELEMETRY_DOMAINS as u64);
        assert_eq!(
            occupancy.len() as u64,
            expected_slots,
            "sweep[{i}] occupancy entries != min(domains, telemetry slots)"
        );
        let occupancy_sum: u64 = occupancy.iter().filter_map(Value::as_u64).sum();
        assert_eq!(
            Some(occupancy_sum),
            doc.get("flop").and_then(Value::as_u64),
            "sweep[{i}] per-domain occupancy does not partition the flop"
        );
        let local = numa
            .get("local_flushes")
            .and_then(Value::as_u64)
            .expect("numa.local_flushes");
        let remote = numa
            .get("remote_flushes")
            .and_then(Value::as_u64)
            .expect("numa.remote_flushes");
        let total_flushes = telemetry
            .get("flushes")
            .and_then(Value::as_u64)
            .expect("flushes");
        assert_eq!(
            local + remote,
            total_flushes,
            "sweep[{i}] flushes not fully accounted as local/remote"
        );
        // Flush prefetch is all-or-none per multiply: every flush prefetches
        // its destination under a SIMD level, none under forced scalar.
        assert_eq!(
            prefetched_flushes,
            if level == "scalar" { 0 } else { total_flushes },
            "sweep[{i}] prefetched_flushes inconsistent with level {level}"
        );
        let fraction = numa
            .get("local_flush_fraction")
            .and_then(Value::as_f64)
            .expect("numa.local_flush_fraction");
        assert!(
            (0.0..=1.0).contains(&fraction),
            "sweep[{i}] local flush fraction {fraction} out of range"
        );
        if domains > 1 {
            assert!(
                fraction >= NUMA_LOCAL_FLUSH_FLOOR,
                "sweep[{i}] domain-local flush fraction {fraction:.3} below the \
                 {NUMA_LOCAL_FLUSH_FLOOR} floor: domain routing has regressed"
            );
        } else {
            assert_eq!(
                remote, 0,
                "sweep[{i}] single-domain run reported remote flushes"
            );
        }
    }

    // --- Workspace reuse report: the repeated-multiply smoke must show a
    //     hit-serving, zero-allocation steady state bit-identical to the
    //     fresh path (workspace_hits == 0 here means reuse silently rotted).
    let ws = doc.get("workspace").expect("workspace report");
    let hits = ws
        .get("steady_workspace_hits")
        .and_then(Value::as_u64)
        .expect("workspace.steady_workspace_hits");
    assert!(
        hits > 0,
        "{path}: workspace_hits == 0 on the repeated-multiply smoke — reuse has regressed"
    );
    assert_eq!(
        ws.get("steady_bytes_allocated").and_then(Value::as_u64),
        Some(0),
        "{path}: steady-state multiplies still allocate workspace-managed buffers"
    );
    assert!(
        ws.get("steady_bytes_reused")
            .and_then(Value::as_u64)
            .is_some_and(|b| b > 0),
        "{path}: steady state reports no reused bytes"
    );
    assert_eq!(
        ws.get("bit_identical_to_fresh").and_then(Value::as_bool),
        Some(true),
        "{path}: workspace reuse changed the product"
    );
    // The zero-allocation proof above only covers the shipped configuration
    // if the tracing subsystem was compiled in but dormant during the smoke:
    // every span call site ran, none may have allocated.
    assert_eq!(
        ws.get("tracer_off").and_then(Value::as_bool),
        Some(true),
        "{path}: the workspace smoke ran with tracing enabled — the zero-alloc \
         gate must measure the dormant-tracer configuration"
    );

    // --- Tiled out-of-core smoke (schema v7): the starvation budget must
    //     actually spill, the store must honour its resident bound (budget
    //     plus one tile's slack), and the tiled product must be bit-identical
    //     to the resident engine's on the unit-valued workload.
    let tiled = doc.get("tiled").expect("tiled report");
    let tiled_u64 = |key: &str| {
        tiled
            .get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("{path}: tiled section missing {key}"))
    };
    assert!(
        tiled_u64("tiles_processed") >= 1,
        "{path}: tiled smoke processed no tiles"
    );
    assert!(
        tiled_u64("spill_bytes") > 0,
        "{path}: tiled smoke never spilled — the starvation budget no longer \
         exercises the out-of-core path"
    );
    assert!(
        tiled_u64("spill_fetches") > 0,
        "{path}: tiled smoke never read a tile back from scratch"
    );
    assert!(
        tiled_u64("resident_high_water") <= tiled_u64("budget_bytes") + tiled_u64("max_tile_bytes"),
        "{path}: tiled resident high water exceeds budget + one tile's slack"
    );
    assert_eq!(
        tiled.get("within_budget_slack").and_then(Value::as_bool),
        Some(true),
        "{path}: tiled smoke breached its resident-bytes bound"
    );
    assert_eq!(
        tiled
            .get("bit_identical_to_resident")
            .and_then(Value::as_bool),
        Some(true),
        "{path}: tiled product no longer matches the resident engine bit-for-bit"
    );

    // --- Planner regret report (schema v4, `--planner` runs): every corpus
    //     point's calibrated pick must be within the regret ceiling of the
    //     fastest measured kernel.
    let planner = doc.get("planner").expect("planner key");
    if !planner.is_null() {
        let ceiling = planner
            .get("regret_ceiling")
            .and_then(Value::as_f64)
            .expect("planner.regret_ceiling");
        assert!(
            (ceiling - PLANNER_REGRET_CEILING).abs() < 1e-12,
            "{path}: planner report gated at {ceiling}, this bench_pb expects \
             {PLANNER_REGRET_CEILING}"
        );
        let points = planner
            .get("points")
            .and_then(Value::as_array)
            .expect("planner.points");
        assert!(!points.is_empty(), "{path}: planner corpus is empty");
        for (i, p) in points.iter().enumerate() {
            let workload = p
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("planner.points[{i}] missing workload"));
            let regret = p
                .get("regret")
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("planner.points[{i}] missing regret"));
            assert!(
                regret <= ceiling,
                "{path}: planner chose {} on {workload}, costing {:.1}% over the best \
                 kernel {} — above the {:.0}% regret ceiling",
                p.get("chosen").and_then(Value::as_str).unwrap_or("?"),
                regret * 100.0,
                p.get("best").and_then(Value::as_str).unwrap_or("?"),
                ceiling * 100.0,
            );
            let kernels = p
                .get("kernels")
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("planner.points[{i}] missing kernels"));
            assert!(
                kernels.len() >= 2,
                "{path}: planner.points[{i}] measured fewer than two kernels — \
                 regret against a single candidate is vacuous"
            );
        }
        let max_regret = planner
            .get("max_regret")
            .and_then(Value::as_f64)
            .expect("planner.max_regret");
        assert!(
            max_regret <= ceiling,
            "{path}: planner max regret {max_regret} breaches the ceiling {ceiling}"
        );
    }
}

/// Loads the committed baseline, re-checks every telemetry invariant on it
/// (so a regression in the *committed* numbers — schema drift, a stale
/// local-flush floor, inconsistent oversubscription flags — fails the
/// gate), and prints a per-thread-count diff summary against the fresh
/// emission.  The two files may be different workload scales (smoke vs
/// committed), so the diff is informational; the invariants are the gate.
fn gate_against(committed_path: &str, fresh_path: &str) {
    let committed = load_baseline(committed_path);
    check_document(&committed, committed_path);
    let fresh = load_baseline(fresh_path);

    let points = |doc: &Value| -> Vec<(u64, f64, f64, f64)> {
        doc.get("sweep")
            .and_then(Value::as_array)
            .map(|sweep| {
                sweep
                    .iter()
                    .filter_map(|p| {
                        Some((
                            p.get("threads_requested").and_then(Value::as_u64)?,
                            p.get("seconds").and_then(Value::as_f64)?,
                            p.get("gflops").and_then(Value::as_f64)?,
                            p.get("telemetry")?
                                .get("numa")?
                                .get("local_flush_fraction")
                                .and_then(Value::as_f64)?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let old = points(&committed);
    let new = points(&fresh);
    println!(
        "gate diff: committed {} ({}) vs fresh {} ({})",
        committed_path,
        committed
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?"),
        fresh_path,
        fresh.get("workload").and_then(Value::as_str).unwrap_or("?"),
    );
    for (t, secs, gflops, local) in &new {
        match old.iter().find(|(ot, ..)| ot == t) {
            Some((_, osecs, ogflops, olocal)) => println!(
                "  t={t}: seconds {} -> {} | GFLOPS {} -> {} | local% {} -> {}",
                fmt(*osecs, 6),
                fmt(*secs, 6),
                fmt(*ogflops, 3),
                fmt(*gflops, 3),
                fmt(olocal * 100.0, 1),
                fmt(local * 100.0, 1),
            ),
            None => println!(
                "  t={t}: (new point) seconds {} | GFLOPS {} | local% {}",
                fmt(*secs, 6),
                fmt(*gflops, 3),
                fmt(local * 100.0, 1),
            ),
        }
    }
}
