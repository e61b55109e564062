//! The layer ledger: the benchmark's own spans, self times of the program's
//! spans, and the combined Chrome trace.
//!
//! A layer's self time is its span's duration minus the time its child spans
//! (on the same thread) cover.  The ledger sums self times per layer over a
//! traced run and compares them with the wall time of the operations the
//! benchmark timed; whatever no layer covers is `unattributed`.

use std::collections::BTreeMap;
use std::sync::Mutex;

use pb_spgemm::trace::{self, EventKind, TraceSnapshot};

/// One span the benchmark recorded around a call it made.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    pub name: &'static str,
    /// Which benchmark thread or client connection it ran on.
    pub lane: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The program correlation id the call ran under (0 = none).
    pub corr: u64,
}

/// Collects the benchmark's spans; timestamps use the program tracer's clock so the
/// two sets line up in one trace.
#[derive(Debug, Default)]
pub struct BenchSpans {
    spans: Mutex<Vec<BenchSpan>>,
}

impl BenchSpans {
    /// Runs `f` inside a benchmark span.
    pub fn time<R>(&self, name: &'static str, lane: u64, corr: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = trace::now_nanos();
        let r = f();
        self.record(BenchSpan {
            name,
            lane,
            start_ns,
            end_ns: trace::now_nanos(),
            corr,
        });
        r
    }

    pub fn record(&self, span: BenchSpan) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn take(&self) -> Vec<BenchSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// A closed program span with its self time.
#[derive(Debug, Clone, PartialEq)]
pub struct Closed {
    pub label: &'static str,
    pub corr: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Pairs every thread's begin/end events (ignoring events before `from_ns`)
/// and computes each closed span's self time.  `Complete` events (time spent
/// waiting, recorded after the fact) are leaves with no parent.  An end whose
/// begin fell out of the ring or the window, and spans still open, are left
/// out.
pub fn closed_spans(snapshot: &TraceSnapshot, from_ns: u64) -> Vec<Closed> {
    let mut out = Vec::new();
    for thread in &snapshot.threads {
        // (label, begin, corr, time covered by children)
        let mut stack: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for ev in thread.events.iter().filter(|e| e.nanos >= from_ns) {
            let label = ev.name.label();
            match ev.kind {
                EventKind::Begin => stack.push((label, ev.nanos, ev.corr, 0)),
                EventKind::End => {
                    if stack.last().is_some_and(|top| top.0 == label) {
                        let (label, begin, corr, covered) = stack.pop().expect("non-empty");
                        let dur_ns = ev.nanos.saturating_sub(begin);
                        out.push(Closed {
                            label,
                            corr,
                            dur_ns,
                            self_ns: dur_ns.saturating_sub(covered),
                        });
                        if let Some(parent) = stack.last_mut() {
                            parent.3 += dur_ns;
                        }
                    }
                }
                EventKind::Complete => out.push(Closed {
                    label,
                    corr: ev.corr,
                    dur_ns: ev.arg,
                    self_ns: ev.arg,
                }),
                EventKind::Instant => {}
            }
        }
    }
    out
}

/// The layers the ledger reports, each with the span labels it owns.
pub const LAYERS: [(&str, &[&str]); 21] = [
    (
        "engine",
        &["engine.multiply", "engine.multiply_csc", "engine.masked"],
    ),
    ("planner", &["planner.decide", "planner.observe"]),
    ("phase.symbolic", &["phase.symbolic"]),
    ("phase.expand", &["phase.expand"]),
    ("phase.sort", &["phase.sort"]),
    ("phase.compress", &["phase.compress"]),
    ("phase.mask", &["phase.mask"]),
    ("phase.assemble", &["phase.assemble"]),
    ("tiled.multiply", &["tiled.multiply"]),
    ("tiled.partition", &["tiled.partition"]),
    ("tiled.tile_multiply", &["tiled.tile_multiply"]),
    ("tiled.accumulate", &["tiled.accumulate"]),
    ("tiled.spill", &["tiled.spill"]),
    ("tiled.fetch", &["tiled.fetch"]),
    ("tiled.assemble", &["tiled.assemble"]),
    ("serve.parse", &["serve.parse"]),
    ("serve.queue_wait", &["serve.queue_wait"]),
    ("serve.request", &["serve.request"]),
    ("serve.batch_join", &["serve.batch_join"]),
    ("serve.engine_call", &["serve.engine_call"]),
    ("serve.respond", &["serve.respond"]),
];

/// Self time per layer over a traced run, against the run's wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Summed wall time of the operations the benchmark timed.
    pub wall_ns: u64,
    /// Self nanoseconds per [`LAYERS`] entry, in that order.
    pub self_ns: Vec<u64>,
}

impl Ledger {
    pub fn new(closed: &[Closed], wall_ns: u64) -> Ledger {
        let self_ns = LAYERS
            .iter()
            .map(|(_, labels)| {
                closed
                    .iter()
                    .filter(|c| labels.contains(&c.label))
                    .map(|c| c.self_ns)
                    .sum()
            })
            .collect();
        Ledger { wall_ns, self_ns }
    }

    /// Share of the wall time each layer accounts for.
    pub fn fractions(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        LAYERS
            .iter()
            .zip(&self.self_ns)
            .map(|((name, _), &ns)| (*name, ns as f64 / self.wall_ns.max(1) as f64))
    }

    /// 1 − (sum of layer self times / wall time).
    pub fn unattributed_frac(&self) -> f64 {
        1.0 - self.self_ns.iter().sum::<u64>() as f64 / self.wall_ns.max(1) as f64
    }
}

/// Benchmark lanes get thread ids above any the program tracer assigns.
const BENCH_TID_BASE: u64 = 1_000_000;

/// Most events a trace file holds.  The validator's JSON parser costs time
/// quadratic in the document size, so a file stops at this many events (a
/// prefix of the traced run); the ledger itself uses every event.
pub const TRACE_FILE_EVENTS: usize = 1500;

/// `ns` as the trace format's microseconds with three decimals.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// The program's trace events (from `from_ns` on) plus the benchmark's spans,
/// as one Chrome trace-event document of at most [`TRACE_FILE_EVENTS`]
/// events.  Benchmark spans become `X` events on lanes of their own, ordered
/// by end time as the format requires.
pub fn chrome_trace(snapshot: &TraceSnapshot, from_ns: u64, bench: &[BenchSpan]) -> String {
    let bench: Vec<&BenchSpan> = bench.iter().filter(|s| s.start_ns >= from_ns).collect();
    // Keep everything that happened before the cut.
    let mut times: Vec<u64> = snapshot
        .threads
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.nanos))
        .filter(|&ns| ns >= from_ns)
        .chain(bench.iter().map(|s| s.end_ns))
        .collect();
    let cut = if times.len() > TRACE_FILE_EVENTS {
        *times.select_nth_unstable(TRACE_FILE_EVENTS).1
    } else {
        u64::MAX
    };
    let mut window = snapshot.clone();
    for thread in &mut window.threads {
        thread
            .events
            .retain(|e| e.nanos >= from_ns && e.nanos < cut);
    }
    window.threads.retain(|t| !t.events.is_empty());
    let mut out = window.to_chrome_json();
    let tail = out.split_off(out.len() - "]}".len());
    debug_assert_eq!(tail, "]}");
    let mut first = out.ends_with('[');
    let pid = std::process::id();

    let mut lanes: BTreeMap<u64, Vec<(f64, String)>> = BTreeMap::new();
    for s in bench.into_iter().filter(|s| s.end_ns < cut) {
        let (ts, dur) = (micros(s.start_ns), micros(s.end_ns - s.start_ns));
        // Order by the end the validator computes from these very strings.
        let end = ts.parse::<f64>().unwrap_or(0.0) + dur.parse::<f64>().unwrap_or(0.0);
        let args = if s.corr == 0 {
            String::new()
        } else {
            format!(",\"args\":{{\"corr\":{}}}", s.corr)
        };
        let tid = BENCH_TID_BASE + s.lane;
        lanes.entry(s.lane).or_default().push((
            end,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"ph\":\"X\",\"dur\":{dur}{args}}}",
                s.name
            ),
        ));
    }
    for (lane, mut events) in lanes {
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let meta = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"bench-{lane}\"}}}}",
            BENCH_TID_BASE + lane
        );
        for e in std::iter::once(meta).chain(events.into_iter().map(|(_, e)| e)) {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&e);
        }
    }
    out.push_str(&tail);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_spgemm::trace::{SpanName, ThreadTrace, TraceEvent};

    fn ev(nanos: u64, name: SpanName, kind: EventKind, arg: u64) -> TraceEvent {
        TraceEvent {
            nanos,
            corr: 7,
            arg,
            name,
            kind,
        }
    }

    fn snapshot(events: Vec<TraceEvent>) -> TraceSnapshot {
        TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 1,
                thread_name: "t".into(),
                dropped: 0,
                events,
            }],
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        use EventKind::{Begin, End};
        use SpanName::*;
        // engine.multiply [0, 100) holds expand [10, 40) and sort [50, 90);
        // sort holds nothing, expand holds assemble [20, 25).
        let snap = snapshot(vec![
            ev(0, EngineMultiply, Begin, 0),
            ev(10, PhaseExpand, Begin, 0),
            ev(20, PhaseAssemble, Begin, 0),
            ev(25, PhaseAssemble, End, 0),
            ev(40, PhaseExpand, End, 0),
            ev(50, PhaseSort, Begin, 0),
            ev(90, PhaseSort, End, 0),
            ev(100, EngineMultiply, End, 0),
        ]);
        let closed = closed_spans(&snap, 0);
        let get = |label: &str| closed.iter().find(|c| c.label == label).unwrap().clone();
        assert_eq!(get("phase.assemble").self_ns, 5);
        assert_eq!(get("phase.expand").self_ns, 25);
        assert_eq!(get("phase.sort").self_ns, 40);
        assert_eq!(get("engine.multiply").dur_ns, 100);
        assert_eq!(get("engine.multiply").self_ns, 30);

        let ledger = Ledger::new(&closed, 120);
        assert_eq!(
            ledger.self_ns.iter().sum::<u64>(),
            100,
            "self times tile the root"
        );
        assert!((ledger.unattributed_frac() - 20.0 / 120.0).abs() < 1e-12);
        let fr: BTreeMap<_, _> = ledger.fractions().collect();
        assert!((fr["engine"] - 30.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn orphans_open_spans_and_completions() {
        use EventKind::{Begin, Complete, End};
        use SpanName::*;
        let snap = snapshot(vec![
            // End whose Begin was lost: ignored.
            ev(5, ServeRespond, End, 0),
            // A queue wait recorded after the fact: a leaf.
            ev(10, ServeQueueWait, Complete, 8),
            ev(10, ServeRequest, Begin, 0),
            ev(30, ServeRequest, End, 0),
            // Still open at snapshot time: ignored.
            ev(40, ServeRequest, Begin, 0),
        ]);
        let closed = closed_spans(&snap, 0);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].label, "serve.queue_wait");
        assert_eq!((closed[0].dur_ns, closed[0].self_ns), (8, 8));
        assert_eq!((closed[1].dur_ns, closed[1].self_ns), (20, 20));
        // A window that starts after the request's Begin drops the span.
        assert_eq!(closed_spans(&snap, 11).len(), 0);
    }

    #[test]
    fn chrome_export_with_bench_lanes_validates() {
        use EventKind::{Begin, End};
        let snap = snapshot(vec![
            ev(1_000, SpanName::EngineMultiply, Begin, 0),
            ev(9_000, SpanName::EngineMultiply, End, 0),
        ]);
        let bench = [
            BenchSpan {
                name: "bench.call",
                lane: 0,
                start_ns: 500,
                end_ns: 9_500,
                corr: 7,
            },
            BenchSpan {
                name: "bench.fingerprint",
                lane: 0,
                start_ns: 9_600,
                end_ns: 9_700,
                corr: 0,
            },
        ];
        let json = chrome_trace(&snap, 0, &bench);
        let summary = trace::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.threads, 2);
    }

    #[test]
    fn chrome_export_stops_at_the_event_cap() {
        use EventKind::{Begin, End};
        let events = (0..2 * TRACE_FILE_EVENTS as u64)
            .flat_map(|i| {
                [
                    ev(10 * i, SpanName::ServeRequest, Begin, 0),
                    ev(10 * i + 5, SpanName::ServeRequest, End, 0),
                ]
            })
            .collect();
        let bench: Vec<BenchSpan> = (0..100)
            .map(|i| BenchSpan {
                name: "client.request",
                lane: 1,
                start_ns: 10 * i,
                end_ns: 10 * i + 7,
                corr: i + 1,
            })
            .collect();
        let json = chrome_trace(&snapshot(events), 0, &bench);
        let summary = trace::validate_chrome_trace(&json).expect("valid trace");
        // Two thread_name records on top of the capped events.
        assert!(summary.events <= TRACE_FILE_EVENTS + 2, "{summary:?}");
        assert!(summary.events >= TRACE_FILE_EVENTS - 2, "{summary:?}");
    }
}
