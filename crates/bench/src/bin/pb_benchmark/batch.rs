//! The batch workloads: a closed loop with one caller, timing the
//! workload's public `SpGemm` call on an operand loaded from a PBSM file.

use std::path::Path;
use std::time::Instant;

use pb_baseline::Baseline;
use pb_sparse::ops::{mask_by_pattern, remove_diagonal, symmetrize_with};
use pb_sparse::reference::multiply_csr;
use pb_sparse::semiring::PlusTimes;
use pb_sparse::Csr;
use pb_spgemm::profile::PhaseStats;
use pb_spgemm::trace;
use pb_spgemm::{SpGemm, SpGemmProfile, TiledConfig, TiledReport};

use crate::host::peak_rss_mib;
use crate::ledger::{chrome_trace, closed_spans, BenchSpans, Ledger};
use crate::metrics::{ledger_table, push_layers, LayerInputs, Outcome, ServeLayers, Sizes};
use crate::stats::{median, nearest_rank, reported_tail};
use crate::workloads::{
    load, load_probe, pre_phase, Ctx, Workload, MAIN_LANE, SETUP_REPS, TRACED_ID_BASE,
};

/// The untraced loop times at least this many calls, however long they take.
const MIN_CALLS: usize = 3;
/// Calls in each of the traced run's two short runs (untraced, traced).
const TRACE_CALLS: usize = 3;
/// Per-thread trace ring capacity for traced runs (events).
pub const TRACE_RING: usize = 1 << 18;

#[derive(Debug, Clone, Copy)]
enum Call {
    /// `SpGemm::pb().multiply(&a, &a)`.
    Square,
    /// `SpGemm::pb().mask(&a).multiply(&a, &a)`.
    Masked,
    /// `SpGemm::pb().multiply_tiled(&a, &a, cfg)` with a forced grid.
    Tiled { budget: u64, grid: usize },
}

/// One batch workload's input and call.
#[derive(Debug, Clone, Copy)]
struct Spec {
    scale: u32,
    edge_factor: u32,
    call: Call,
}

impl Spec {
    fn of(w: Workload, smoke: bool) -> Spec {
        let (scale, edge_factor, call) = match (w, smoke) {
            (Workload::RmatBw, false) => (15, 12, Call::Square),
            (Workload::RmatBw, true) => (8, 8, Call::Square),
            (Workload::MaskedTri, false) => (12, 16, Call::Masked),
            (Workload::MaskedTri, true) => (7, 8, Call::Masked),
            (Workload::OocTiled, false) => (
                13,
                8,
                Call::Tiled {
                    budget: 1 << 20,
                    grid: 4,
                },
            ),
            (Workload::OocTiled, true) => (
                8,
                8,
                Call::Tiled {
                    budget: 16 << 10,
                    grid: 2,
                },
            ),
            _ => unreachable!("{} is not a batch workload", w.name()),
        };
        Spec {
            scale,
            edge_factor,
            call,
        }
    }

    /// The unit-valued operand: every product is then exact in floating
    /// point, so any kernel's product can be compared bit for bit.
    fn generate(&self, seed: u64) -> Csr<f64> {
        let r = pb_gen::rmat_square(self.scale, self.edge_factor, seed);
        let a = match self.call {
            // Triangle counting's operand: symmetric, no self loops.
            Call::Masked => remove_diagonal(&symmetrize_with::<PlusTimes<f64>>(&r)),
            Call::Square | Call::Tiled { .. } => r,
        };
        a.map_values(|_| 1.0)
    }

    fn multiply(&self, engine: &SpGemm, a: &Csr<f64>, scratch: &Path) -> Result<Product, String> {
        Ok(match self.call {
            Call::Square => {
                let (c, profile) = engine.multiply_with_profile::<PlusTimes<f64>>(a, a);
                Product {
                    c,
                    profile: Some(profile),
                    report: None,
                }
            }
            Call::Masked => Product {
                c: engine.mask(a).multiply(a, a),
                profile: None,
                report: None,
            },
            Call::Tiled { budget, grid } => {
                let cfg = TiledConfig::new(budget)
                    .with_grid(grid, grid, grid)
                    .with_scratch_dir(scratch);
                let (c, report) = engine
                    .multiply_tiled(a, a, &cfg)
                    .map_err(|e| format!("tiled multiply failed: {e}"))?;
                Product {
                    c,
                    profile: None,
                    report: Some(report),
                }
            }
        })
    }

    /// The expected product from an independent kernel: the hash baseline
    /// for the big squaring (the sequential reference takes seconds there),
    /// the reference everywhere else.
    fn oracle(&self, a: &Csr<f64>) -> Oracle {
        match self.call {
            Call::Square => {
                let c = Baseline::Hash.multiply(a, a);
                Oracle {
                    print: fingerprint(&c),
                    nnz: c.nnz(),
                    nnz_unmasked: c.nnz(),
                }
            }
            Call::Masked => {
                let full = multiply_csr(a, a);
                let c = mask_by_pattern(&full, a);
                Oracle {
                    print: fingerprint(&c),
                    nnz: c.nnz(),
                    nnz_unmasked: full.nnz(),
                }
            }
            Call::Tiled { .. } => {
                let c = multiply_csr(a, a);
                Oracle {
                    print: fingerprint(&c),
                    nnz: c.nnz(),
                    nnz_unmasked: c.nnz(),
                }
            }
        }
    }

    /// Table III sizes of the phase work one call does.  A tiled call
    /// multiplies every A tile once per column block and every B tile once
    /// per row block, and its phases emit the partial products.
    fn sizes(&self, a: &Csr<f64>, flop: u64, oracle: &Oracle, partial_tuples: u64) -> Sizes {
        let nnz = a.nnz();
        match self.call {
            Call::Tiled { grid, .. } => Sizes {
                flop,
                nnz_a: nnz * grid,
                nnz_b: nnz * grid,
                nnz_c: partial_tuples as usize,
                nnz_out: partial_tuples as usize,
            },
            Call::Square | Call::Masked => Sizes {
                flop,
                nnz_a: nnz,
                nnz_b: nnz,
                nnz_c: oracle.nnz_unmasked,
                nnz_out: oracle.nnz,
            },
        }
    }
}

struct Product {
    c: Csr<f64>,
    profile: Option<SpGemmProfile>,
    report: Option<TiledReport>,
}

struct Oracle {
    print: u64,
    nnz: usize,
    nnz_unmasked: usize,
}

/// Order-sensitive hash of a CSR matrix (shape, structure, value bits).
/// Each step is a bijection of the running hash, so any single changed word
/// changes the result.
pub fn fingerprint(m: &Csr<f64>) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    mix(m.nrows() as u64);
    mix(m.ncols() as u64);
    m.rowptr().iter().for_each(|&p| mix(p as u64));
    m.colidx().iter().for_each(|&c| mix(u64::from(c)));
    m.values().iter().for_each(|v| mix(v.to_bits()));
    h
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The operand file a batch workload's set-up writes to its directory.
const INPUT: &str = "a.pbsm";

/// A batch workload's set-up: generate the operand, write it to `dir` and
/// load it back through `MatrixSource`, so the program sees only the file.
pub fn set_up(
    w: Workload,
    seed: u64,
    smoke: bool,
    dir: &Path,
    spans: &BenchSpans,
) -> Result<Csr<f64>, String> {
    let path = dir.join(INPUT);
    spans.time("bench.generate", MAIN_LANE, 0, || {
        pb_gen::save_matrix(&path, &Spec::of(w, smoke).generate(seed)).map_err(|e| e.to_string())
    })?;
    spans.time("bench.load", MAIN_LANE, 0, || load(&path))
}

pub fn run(w: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let spec = Spec::of(w, ctx.smoke);
    let spans = &ctx.spans;
    // Before this process holds anything: each set-up runs in a fresh one.
    let setup_s = if ctx.trace { 0.0 } else { ctx.setup_s(w)? };
    let a = set_up(w, ctx.seed, ctx.smoke, &ctx.scratch, spans)?;
    let flop = pb_sparse::stats::flop_csr(&a, &a);
    let engine = SpGemm::pb();
    let call = |id: u64| {
        spans.time("bench.call", MAIN_LANE, id, || {
            let _corr = trace::corr_scope(id);
            spec.multiply(&engine, &a, &ctx.scratch)
        })
    };

    let mut out = Outcome::new(w.name());
    let mut prints = Vec::new();
    let warm = call(1)?;
    prints.push(fingerprint(&warm.c));
    drop(warm);
    // What one call needs from a fresh process.  Later calls only add the
    // allocator's fragmentation, which varies from run to run.
    let peak_rss = peak_rss_mib()?;

    if ctx.trace {
        return traced(w, ctx, &spec, &a, flop, call, prints, out);
    }

    let mut times_ms = Vec::new();
    let start = Instant::now();
    while times_ms.len() < MIN_CALLS || start.elapsed().as_secs_f64() < ctx.seconds {
        let t = Instant::now();
        let p = call(2 + times_ms.len() as u64)?;
        times_ms.push(ms(t.elapsed()));
        prints.push(spans.time("bench.fingerprint", MAIN_LANE, 0, || fingerprint(&p.c)));
    }
    let oracle = spans.time("bench.oracle", MAIN_LANE, 0, || spec.oracle(&a));
    check_prints(&mut out, &prints, &oracle);

    let p50 = median(&times_ms);
    let (stat, tail) = reported_tail(&times_ms);
    let n = times_ms.len();
    out.push("setup_s", setup_s, "s", SETUP_REPS);
    out.push("p50_ms", p50, "ms", n);
    out.push_stat("tail_ms", tail, "ms", n, &stat);
    out.push("gflops", flop as f64 / (p50 / 1e3) / 1e9, "GFLOP/s", n);
    out.push("peak_rss_mb", peak_rss, "MiB", 1);
    Ok(out)
}

fn check_prints(out: &mut Outcome, prints: &[u64], oracle: &Oracle) {
    for &p in prints {
        out.check((p != oracle.print).then(|| {
            format!(
                "product fingerprint {p:#018x} differs from the oracle's {:#018x}",
                oracle.print
            )
        }));
    }
}

/// The traced run: three untraced calls, then three calls with the program
/// tracer on, the benchmark's pre-phase probes and STREAM, then the ledger.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: Workload,
    ctx: &Ctx,
    spec: &Spec,
    a: &Csr<f64>,
    flop: u64,
    call: impl Fn(u64) -> Result<Product, String>,
    mut prints: Vec<u64>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let spans = &ctx.spans;
    let (load_s, load_bytes) = load_probe(&ctx.scratch.join(INPUT), spans)?;
    let pre = pre_phase(a, spans);

    let mut untraced_ms = Vec::new();
    for i in 0..TRACE_CALLS {
        let t = Instant::now();
        let p = call(10 + i as u64)?;
        untraced_ms.push(ms(t.elapsed()));
        prints.push(fingerprint(&p.c));
    }

    trace::set_ring_capacity(TRACE_RING);
    let from_ns = trace::now_nanos();
    trace::set_enabled(true);
    let mut traced_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut stats = PhaseStats::default();
    let mut tiled = TiledReport::default();
    let mut last_end: Option<Instant> = None;
    for i in 0..TRACE_CALLS {
        let t = Instant::now();
        if let Some(end) = last_end {
            gaps_ms.push(ms(t - end));
        }
        let p = call(TRACED_ID_BASE + i as u64)?;
        let end = Instant::now();
        traced_ms.push(ms(end - t));
        let s = match (&p.profile, &p.report) {
            (Some(profile), _) => profile.stats,
            (_, Some(report)) => {
                tiled.tiles_processed += report.tiles_processed;
                tiled.spill_bytes += report.spill_bytes;
                tiled.spill_fetches += report.spill_fetches;
                tiled.accumulated_tuples += report.accumulated_tuples;
                tiled.resident_high_water =
                    tiled.resident_high_water.max(report.resident_high_water);
                report.stats
            }
            _ => PhaseStats::default(),
        };
        stats.flushes += s.flushes;
        stats.flushed_tuples += s.flushed_tuples;
        stats.bytes_allocated += s.bytes_allocated;
        stats.bytes_reused += s.bytes_reused;
        stats.workspace_hits += s.workspace_hits;
        prints.push(fingerprint(&p.c));
        last_end = Some(Instant::now());
    }
    trace::set_enabled(false);
    let snapshot = trace::snapshot();

    let oracle = spans.time("bench.oracle", MAIN_LANE, 0, || spec.oracle(a));
    check_prints(&mut out, &prints, &oracle);
    let stream = spans.time("bench.stream", MAIN_LANE, 0, || ctx.stream())?;

    let closed = closed_spans(&snapshot, from_ns);
    let wall_ns = (traced_ms.iter().sum::<f64>() * 1e6) as u64;
    let ledger = Ledger::new(&closed, wall_ns);
    let per_call = spec.sizes(
        a,
        flop,
        &oracle,
        tiled.accumulated_tuples / TRACE_CALLS as u64,
    );
    let mut sizes = Sizes::default();
    for _ in 0..TRACE_CALLS {
        sizes += per_call;
    }
    write_trace(ctx, w, &mut out, &snapshot, from_ns)?;
    print!("{}", ledger_table(w.name(), &ledger, TRACE_CALLS));

    let li = LayerInputs {
        stream,
        load_s,
        load_bytes,
        transpose_s: pre.transpose_s,
        pool_build_s: pre.pool_build_s,
        signals_s: pre.signals_s,
        sizes,
        ledger,
        ops: TRACE_CALLS,
        overhead_frac: median(&traced_ms) / median(&untraced_ms) - 1.0,
        flop: flop as f64,
        nnz_c: oracle.nnz as f64,
        stats,
        tiled,
        serve: ServeLayers::default(),
        lag_p99_ms: nearest_rank(&gaps_ms, 0.99),
    };
    push_layers(&mut out, &li);
    Ok(out)
}

/// Writes the combined Chrome trace and checks it with the program's own
/// validator; an invalid trace counts as a failed operation.
pub fn write_trace(
    ctx: &Ctx,
    w: Workload,
    out: &mut Outcome,
    snapshot: &trace::TraceSnapshot,
    from_ns: u64,
) -> Result<(), String> {
    let bench = ctx.spans.take();
    let json = chrome_trace(snapshot, from_ns, &bench);
    let path = ctx.out.join(format!("{}.trace.json", w.name()));
    std::fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
    let dropped: u64 = snapshot.threads.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        eprintln!("warning: trace rings dropped {dropped} events");
    }
    out.check(
        trace::validate_chrome_trace(&json)
            .err()
            .map(|e| format!("{} is not a valid Chrome trace: {e}", path.display())),
    );
    println!("trace {} written to {}", w.name(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_sees_every_word() {
        let a = pb_gen::rmat_square(6, 4, 3).map_values(|_| 1.0);
        let base = fingerprint(&a);
        assert_eq!(base, fingerprint(&a.clone()));
        let mut b = a.clone();
        b.values_mut()[a.nnz() / 2] = 2.0;
        assert_ne!(base, fingerprint(&b));
        assert_ne!(base, fingerprint(&a.transpose()));
    }
}
