//! Trace-ring behaviour under pressure, and the tracer's end-to-end
//! guarantees against the real PB pipeline: wraparound accounting,
//! concurrent emission without torn events, differential
//! traced-vs-untraced products, and span/`PhaseStats` agreement for plain
//! and masked multiplies.
//!
//! Everything runs in ONE `#[test]`: the tracer is process-global state
//! (enabled flag, ring capacity, thread registry), and the default Rust
//! harness runs `#[test]` functions concurrently.

use std::sync::Arc;

use pb_sparse::PlusTimes;
use pb_spgemm::trace::{self, EventKind, SpanName, ThreadTrace, TraceSnapshot};
use pb_spgemm::{Algorithm, ProfileSink, SpGemm, Workspace};

/// The ring registered by the named thread, or a panic naming the miss.
fn ring_of<'a>(snap: &'a TraceSnapshot, name: &str) -> &'a ThreadTrace {
    snap.threads
        .iter()
        .find(|t| t.thread_name == name)
        .unwrap_or_else(|| panic!("no ring registered for thread {name:?}"))
}

/// Instants whose `arg` repeats a 32-bit payload in both halves: a torn
/// read (half old event, half new) would break the mirror.
fn mirrored(i: u64) -> u64 {
    i * 0x1_0000_0001
}

#[test]
fn rings_survive_pressure_and_spans_agree_with_phase_stats() {
    // --- Wraparound: the ring keeps the newest events and counts the
    // --- overwritten ones. ------------------------------------------------
    trace::set_ring_capacity(trace::MIN_RING_CAPACITY);
    trace::set_enabled(true);
    const EMITTED: u64 = 40;
    std::thread::Builder::new()
        .name("ring-wrap".into())
        .spawn(|| {
            for i in 0..EMITTED {
                trace::instant(SpanName::GraphBfs, i);
            }
        })
        .unwrap()
        .join()
        .unwrap();
    let snap = trace::snapshot();
    let ring = ring_of(&snap, "ring-wrap");
    let cap = trace::MIN_RING_CAPACITY as u64;
    // A wrapped ring yields capacity - 1 events: the reader discards the
    // one slot a concurrent writer could be mid-overwrite on.
    assert_eq!(
        ring.events.len() as u64,
        cap - 1,
        "ring must hold its full safe window"
    );
    assert_eq!(
        ring.dropped,
        EMITTED - cap,
        "every overwritten event must be counted"
    );
    for (k, e) in ring.events.iter().enumerate() {
        assert_eq!(e.kind, EventKind::Instant);
        assert_eq!(
            e.arg,
            EMITTED - (cap - 1) + k as u64,
            "the retained window must be the newest events, oldest first"
        );
    }

    // --- Concurrent emitters vs concurrent snapshots: no torn events. -----
    trace::set_ring_capacity(1024);
    const THREADS: u64 = 4;
    const EVENTS: u64 = 100;
    let emitters: Vec<_> = (0..THREADS)
        .map(|k| {
            std::thread::Builder::new()
                .name(format!("ring-conc-{k}"))
                .spawn(move || {
                    trace::with_corr(1000 + k, || {
                        for i in 0..EVENTS {
                            trace::instant(SpanName::GraphTriangles, mirrored(i));
                            std::hint::spin_loop();
                        }
                    })
                })
                .unwrap()
        })
        .collect();
    // Snapshot while they emit: every observed event must decode cleanly
    // and carry the mirrored payload.
    for _ in 0..50 {
        let live = trace::snapshot();
        for t in live
            .threads
            .iter()
            .filter(|t| t.thread_name.starts_with("ring-conc-"))
        {
            for e in &t.events {
                assert_eq!(
                    e.arg >> 32,
                    e.arg & 0xffff_ffff,
                    "torn event observed mid-run"
                );
            }
        }
    }
    for h in emitters {
        h.join().unwrap();
    }
    let snap = trace::snapshot();
    for k in 0..THREADS {
        let ring = ring_of(&snap, &format!("ring-conc-{k}"));
        assert_eq!(ring.events.len() as u64, EVENTS);
        assert_eq!(
            ring.dropped, 0,
            "1024-slot ring must not drop {EVENTS} events"
        );
        let mut last_nanos = 0;
        for (i, e) in ring.events.iter().enumerate() {
            assert_eq!(
                e.arg,
                mirrored(i as u64),
                "events must arrive in order, untorn"
            );
            assert_eq!(e.corr, 1000 + k, "correlation id must stick to its scope");
            assert!(
                e.nanos >= last_nanos,
                "per-thread timestamps must be monotonic"
            );
            last_nanos = e.nanos;
        }
    }

    // --- Differential: tracing changes no answer and allocates nothing
    // --- workspace-managed. -----------------------------------------------
    let a = pb_gen::erdos_renyi_square(8, 8, 7);
    let engine = SpGemm::new()
        .algorithm(Algorithm::Pb)
        .workspace(Arc::new(Workspace::new()));
    trace::set_enabled(false);
    for _ in 0..2 {
        engine.multiply_with_profile::<PlusTimes<f64>>(&a, &a);
    }
    let (untraced, untraced_profile) = engine.multiply_with_profile::<PlusTimes<f64>>(&a, &a);
    assert_eq!(
        untraced_profile.stats.bytes_allocated, 0,
        "the warmed workspace must serve the untraced multiply"
    );
    trace::set_enabled(true);
    let (traced, traced_profile) = engine.multiply_with_profile::<PlusTimes<f64>>(&a, &a);
    assert_eq!(
        traced_profile.stats.bytes_allocated, 0,
        "enabling the tracer must not cost workspace-managed allocations"
    );
    // The pool's flush interleaving varies between runs, so random values
    // may sum in another order: the pattern must match exactly, the values
    // to rounding.
    assert_eq!(traced.rowptr(), untraced.rowptr(), "tracing changed rowptr");
    assert_eq!(traced.colidx(), untraced.colidx(), "tracing changed colidx");
    for (t, u) in traced.values().iter().zip(untraced.values()) {
        assert!(
            (t - u).abs() <= 1e-12 * u.abs().max(1.0),
            "tracing changed a value: {t} vs {u}"
        );
    }
    // Unit values sum to exact integers in every order, so there the
    // traced product must be the same bits.
    let unit = a.map_values(|_| 1.0);
    trace::set_enabled(false);
    let (untraced, _) = engine.multiply_with_profile::<PlusTimes<f64>>(&unit, &unit);
    trace::set_enabled(true);
    let (traced, _) = engine.multiply_with_profile::<PlusTimes<f64>>(&unit, &unit);
    assert_eq!(traced, untraced, "tracing must never change the product");

    // --- Span durations agree with PhaseStats. ----------------------------
    // Each phase span brackets exactly the `Instant` window feeding
    // `PhaseTimings`, so the two clocks must agree to within 5% (plus a
    // small absolute floor for sub-100us phases on a noisy scheduler).
    // `Masked::multiply` returns only the product, so a sink captures the
    // masked multiply's profile; its mask stage runs inside the compress
    // window and span.
    const CORR: u64 = 4242;
    const MASKED_CORR: u64 = 4343;
    let (_, profile) = trace::with_corr(CORR, || {
        engine.multiply_with_profile::<PlusTimes<f64>>(&a, &a)
    });
    let sink = ProfileSink::new();
    let masked_engine = engine.clone().profile(Arc::clone(&sink));
    trace::with_corr(MASKED_CORR, || masked_engine.mask(&a).multiply(&a, &a));
    let masked_profile = sink.latest().expect("the sink records masked multiplies");
    let snap = trace::snapshot();
    trace::set_enabled(false);
    // Closed (begin, end) intervals of one span name under one correlation
    // id, per thread.
    let intervals = |corr: u64, name: SpanName| -> Vec<Vec<(u64, u64)>> {
        snap.threads
            .iter()
            .map(|t| {
                let mut out = Vec::new();
                let mut begin = None;
                for e in t.events.iter().filter(|e| e.corr == corr && e.name == name) {
                    match e.kind {
                        EventKind::Begin => begin = Some(e.nanos),
                        EventKind::End => {
                            let b = begin
                                .take()
                                .expect("E without B for a thread-confined span");
                            out.push((b, e.nanos));
                        }
                        _ => {}
                    }
                }
                out
            })
            .collect()
    };
    let span_nanos = |corr: u64, name: SpanName| -> u64 {
        intervals(corr, name)
            .iter()
            .flatten()
            .map(|(b, e)| e - b)
            .sum()
    };
    for (corr, timings) in [
        (CORR, &profile.timings),
        (MASKED_CORR, &masked_profile.timings),
    ] {
        let phases = [
            (SpanName::PhaseSymbolic, timings.symbolic),
            (SpanName::PhaseExpand, timings.expand),
            (SpanName::PhaseSort, timings.sort),
            (SpanName::PhaseCompress, timings.compress),
            (SpanName::PhaseAssemble, timings.assemble),
        ];
        let mut span_sum = 0u64;
        let mut stat_sum = 0u64;
        for (name, timing) in phases {
            let span = span_nanos(corr, name);
            let stat = timing.as_nanos() as u64;
            assert!(span > 0, "no {} span found for corr {corr}", name.label());
            let diff = span.abs_diff(stat);
            assert!(
                diff as f64 <= (stat as f64 * 0.05).max(20_000.0),
                "{} span ({span}ns) and PhaseStats ({stat}ns) disagree by {diff}ns",
                name.label()
            );
            span_sum += span;
            stat_sum += stat;
        }
        assert!(
            span_sum.abs_diff(stat_sum) as f64 <= stat_sum as f64 * 0.05,
            "phase span total ({span_sum}ns) strays more than 5% from PhaseStats ({stat_sum}ns)"
        );
    }

    // --- The mask stage nests in the compress phase. ----------------------
    let compress = intervals(MASKED_CORR, SpanName::PhaseCompress);
    let masks = intervals(MASKED_CORR, SpanName::PhaseMask);
    assert!(
        masks.iter().flatten().next().is_some(),
        "the masked multiply emitted no phase.mask span"
    );
    for (thread, spans) in masks.iter().enumerate() {
        for &(b, e) in spans {
            assert!(
                compress[thread].iter().any(|&(cb, ce)| cb <= b && e <= ce),
                "phase.mask [{b}, {e}] lies outside every phase.compress span"
            );
        }
    }
    assert!(
        span_nanos(CORR, SpanName::PhaseMask) == 0,
        "an unmasked multiply must not run the mask stage"
    );
}
