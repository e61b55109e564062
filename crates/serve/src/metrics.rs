//! The `/metrics`-style text endpoint.
//!
//! Renders server counters, per-op request-latency histograms, catalog
//! occupancy, aggregated workspace telemetry, the latest multiply's
//! [`PhaseStats`](pb_spgemm::PhaseStats) (planner decision, ISA dispatch)
//! and planner progress in the conventional text exposition
//! format: every family is announced with `# HELP` and `# TYPE` lines,
//! label values are escaped per the format's rules, and histograms emit
//! cumulative `_bucket{le=…}` series plus `_sum`/`_count`.  The `metrics`
//! op returns this text in the `text` field of a normal JSON response, so
//! the protocol stays one-line-per-message.  The vendored
//! [`exposition`](crate::exposition) parser round-trips this output — the
//! conformance test in that module keeps the two in sync.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use pb_spgemm::{HistogramSnapshot, LatencyHistogram, Workspace, LATENCY_BUCKETS};

use crate::catalog::Catalog;

/// Monotonic server-side counters (every field is a `_total` metric).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Requests accepted, by outcome.
    pub requests: AtomicU64,
    /// Requests answered with `ok: false` (parse errors included).
    pub errors: AtomicU64,
    /// Multiply requests answered from a shared batch execution (batch
    /// members beyond the first).
    pub batched: AtomicU64,
    /// Largest multiply batch executed so far.
    pub max_batch: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Out-of-core (tiled) multiplies executed.
    pub ooc_multiplies: AtomicU64,
    /// Bytes tiled multiplies spilled to scratch files.
    pub ooc_spill_bytes: AtomicU64,
    /// Peak tile-store resident bytes any tiled multiply reached.
    pub ooc_high_water: AtomicU64,
}

impl ServerCounters {
    /// Records the size of one executed multiply batch.
    pub fn record_batch(&self, size: usize) {
        if size > 1 {
            self.batched.fetch_add(size as u64 - 1, Ordering::Relaxed);
        }
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }
}

/// Every request op carrying a latency histogram, in exposition order.
/// These are the only values the `op` label ever takes — fixed strings
/// from [`Request::op_name`](crate::Request::op_name), never client text.
pub const OP_NAMES: [&str; 13] = [
    "ping", "store", "gen", "load", "multiply", "mcl", "bc", "apsp", "evict", "list", "metrics",
    "trace", "shutdown",
];

/// One lock-free latency histogram per request op, recorded by the workers
/// around each handled request and rendered as the
/// `pb_serve_request_seconds` histogram family.
#[derive(Debug)]
pub struct OpLatencies {
    hists: [LatencyHistogram; OP_NAMES.len()],
}

impl Default for OpLatencies {
    fn default() -> Self {
        OpLatencies {
            hists: [const { LatencyHistogram::new() }; OP_NAMES.len()],
        }
    }
}

impl OpLatencies {
    /// Records one handled request of op `op` taking `nanos`.  Unknown op
    /// names are ignored (cannot happen for parsed requests).
    pub fn record(&self, op: &str, nanos: u64) {
        if let Some(idx) = OP_NAMES.iter().position(|&n| n == op) {
            self.hists[idx].record_nanos(nanos);
        }
    }

    /// Snapshot of every op that has recorded at least one observation.
    pub fn snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        OP_NAMES
            .iter()
            .zip(self.hists.iter())
            .map(|(&name, h)| (name, h.snapshot()))
            .filter(|(_, s)| s.count > 0)
            .collect()
    }
}

/// Escapes a label value per the text exposition format: backslash, double
/// quote and newline must be backslash-escaped inside `label="…"`.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Emits the `# HELP` / `# TYPE` header of one metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, value: u64) {
    let _ = writeln!(out, "{name} {value}");
}

fn sample_f64(out: &mut String, name: &str, value: f64) {
    let _ = writeln!(out, "{name} {value:.6}");
}

/// One counter family: header plus its single sample.
fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, "counter", help);
    sample(out, name, value);
}

/// One gauge family: header plus its single sample.
fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    family(out, name, "gauge", help);
    sample(out, name, value);
}

/// Formats a bucket bound in seconds the way the `le` label wants it.
fn le_label(seconds: f64) -> String {
    format!("{seconds}")
}

/// Renders one op's histogram as cumulative buckets plus sum and count.
fn histogram_series(out: &mut String, base: &str, op: &str, snap: &HistogramSnapshot) {
    let op = escape_label(op);
    let mut cumulative = 0u64;
    for (k, &n) in snap.buckets.iter().enumerate() {
        cumulative += n;
        let le = if k < LATENCY_BUCKETS {
            le_label(HistogramSnapshot::upper_bound_seconds(k))
        } else {
            "+Inf".to_string()
        };
        let _ = writeln!(out, "{base}_bucket{{op=\"{op}\",le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(
        out,
        "{base}_sum{{op=\"{op}\"}} {:.9}",
        snap.sum_nanos as f64 * 1e-9
    );
    let _ = writeln!(out, "{base}_count{{op=\"{op}\"}} {}", snap.count);
}

/// Renders the whole metrics page.  `catalog` is read under its lock by the
/// caller; counters and latency histograms are lock-free.
pub fn render(counters: &ServerCounters, latencies: &OpLatencies, catalog: &Catalog) -> String {
    let mut out = String::with_capacity(8192);

    // Server request counters.
    counter(
        &mut out,
        "pb_serve_requests_total",
        "Requests answered (ok and error responses).",
        counters.requests.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "pb_serve_errors_total",
        "Requests answered with ok=false (parse errors included).",
        counters.errors.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "pb_serve_batched_requests_total",
        "Multiply requests answered from a shared batch execution.",
        counters.batched.load(Ordering::Relaxed),
    );
    gauge(
        &mut out,
        "pb_serve_max_batch",
        "Largest multiply batch executed so far.",
        counters.max_batch.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "pb_serve_connections_total",
        "Connections accepted.",
        counters.connections.load(Ordering::Relaxed),
    );

    // Per-op request handling latency (worker-side: queue wait excluded).
    let series = latencies.snapshots();
    if !series.is_empty() {
        family(
            &mut out,
            "pb_serve_request_seconds",
            "histogram",
            "Worker-side request handling latency by op.",
        );
        for (op, snap) in &series {
            histogram_series(&mut out, "pb_serve_request_seconds", op, snap);
        }
    }

    // Catalog occupancy.
    gauge(
        &mut out,
        "pb_serve_catalog_entries",
        "Resident catalog entries.",
        catalog.len() as u64,
    );
    gauge(
        &mut out,
        "pb_serve_catalog_bytes_used",
        "Bytes of resident matrices.",
        catalog.bytes_used() as u64,
    );
    gauge(
        &mut out,
        "pb_serve_catalog_bytes_budget",
        "Catalog byte budget.",
        catalog.budget_bytes() as u64,
    );
    counter(
        &mut out,
        "pb_serve_catalog_evictions_total",
        "LRU evictions forced by the byte budget.",
        catalog.evictions(),
    );

    // Out-of-core tiled-multiply telemetry.
    counter(
        &mut out,
        "pb_ooc_multiplies_total",
        "Out-of-core tiled multiplies executed.",
        counters.ooc_multiplies.load(Ordering::Relaxed),
    );
    counter(
        &mut out,
        "pb_ooc_spill_bytes_total",
        "Bytes tiled multiplies spilled to scratch files.",
        counters.ooc_spill_bytes.load(Ordering::Relaxed),
    );
    gauge(
        &mut out,
        "pb_ooc_resident_high_water_bytes",
        "Peak tile-store resident bytes any tiled multiply reached.",
        counters.ooc_high_water.load(Ordering::Relaxed),
    );

    // Combined resident footprint: catalog matrices + pooled workspace
    // buffers + the OOC tile-store high water.  The catalog budget bounds
    // the first term, the per-workspace decay policy the second, and the
    // per-multiply OOC budget the third — three separate knobs, summed
    // here so one gauge answers "how much does this process hold".
    gauge(
        &mut out,
        "pb_serve_resident_bytes_combined",
        "Catalog + pooled workspace + OOC tile-store resident bytes.",
        catalog.bytes_used() as u64
            + catalog.sum_workspaces(Workspace::resident_bytes)
            + counters.ooc_high_water.load(Ordering::Relaxed),
    );

    // Workspace telemetry aggregated over every resident entry, including
    // the decay policy's counters.
    counter(
        &mut out,
        "pb_workspace_leases_total",
        "Workspace leases taken by resident engines.",
        catalog.sum_workspaces(Workspace::leases),
    );
    counter(
        &mut out,
        "pb_workspace_hits_total",
        "Leases served entirely from pooled buffers.",
        catalog.sum_workspaces(Workspace::total_hits),
    );
    counter(
        &mut out,
        "pb_workspace_bytes_allocated_total",
        "Bytes workspaces allocated fresh.",
        catalog.sum_workspaces(Workspace::total_bytes_allocated),
    );
    counter(
        &mut out,
        "pb_workspace_bytes_reused_total",
        "Bytes served from pooled workspace buffers.",
        catalog.sum_workspaces(Workspace::total_bytes_reused),
    );
    counter(
        &mut out,
        "pb_workspace_bytes_released_total",
        "Bytes released by workspace decay.",
        catalog.sum_workspaces(Workspace::total_bytes_released),
    );
    counter(
        &mut out,
        "pb_workspace_decay_events_total",
        "Workspace decay events.",
        catalog.sum_workspaces(Workspace::decay_events),
    );

    // Planner progress (shared across every entry engine).
    if let Some(profile) = catalog.sink().latest() {
        let planner_name = escape_label(profile.stats.planned_algorithm.name());
        family(
            &mut out,
            "pb_planner_last_decision",
            "gauge",
            "Kernel the planner chose for the latest multiply.",
        );
        let _ = writeln!(
            out,
            "pb_planner_last_decision{{kernel=\"{planner_name}\"}} 1"
        );
        family(
            &mut out,
            "pb_spgemm_last_cf",
            "gauge",
            "Compression factor of the latest multiply.",
        );
        sample_f64(&mut out, "pb_spgemm_last_cf", profile.cf());
        family(
            &mut out,
            "pb_spgemm_last_gflops",
            "gauge",
            "Throughput of the latest multiply.",
        );
        sample_f64(&mut out, "pb_spgemm_last_gflops", profile.gflops());
        gauge(
            &mut out,
            "pb_spgemm_last_flop",
            "Useful flops of the latest multiply.",
            profile.flop,
        );
        gauge(
            &mut out,
            "pb_spgemm_last_bytes_allocated",
            "Workspace bytes the latest multiply allocated fresh.",
            profile.stats.bytes_allocated,
        );
        gauge(
            &mut out,
            "pb_spgemm_last_bytes_reused",
            "Workspace bytes the latest multiply reused.",
            profile.stats.bytes_reused,
        );
        let isa = escape_label(profile.stats.isa.isa.name());
        family(
            &mut out,
            "pb_simd_dispatch",
            "gauge",
            "ISA level the latest multiply's kernels dispatched to.",
        );
        let _ = writeln!(out, "pb_simd_dispatch{{isa=\"{isa}\"}} 1");
    }

    // Host-wide active ISA (what the dispatcher would pick right now).
    let active = escape_label(pb_spgemm::simd::active().name());
    family(
        &mut out,
        "pb_simd_active",
        "gauge",
        "ISA level the dispatcher would pick right now.",
    );
    let _ = writeln!(out, "pb_simd_active{{isa=\"{active}\"}} 1");

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_spgemm::Algorithm;

    #[test]
    fn renders_required_families() {
        let counters = ServerCounters::default();
        counters.requests.fetch_add(3, Ordering::Relaxed);
        counters.record_batch(4);
        let latencies = OpLatencies::default();
        latencies.record("multiply", 2_000_000);
        let catalog = Catalog::new(1 << 20, Algorithm::Pb);
        let text = render(&counters, &latencies, &catalog);
        for family in [
            "pb_serve_requests_total 3",
            "pb_serve_errors_total 0",
            "pb_serve_batched_requests_total 3",
            "pb_serve_max_batch 4",
            "pb_serve_catalog_entries 0",
            "pb_serve_catalog_bytes_budget 1048576",
            "pb_serve_catalog_evictions_total 0",
            "pb_workspace_bytes_released_total 0",
            "pb_workspace_decay_events_total 0",
            "pb_ooc_multiplies_total 0",
            "pb_ooc_spill_bytes_total 0",
            "pb_ooc_resident_high_water_bytes 0",
            "pb_serve_resident_bytes_combined 0",
            "pb_simd_active{isa=",
            "# TYPE pb_serve_requests_total counter",
            "# HELP pb_serve_request_seconds ",
            "# TYPE pb_serve_request_seconds histogram",
            "pb_serve_request_seconds_bucket{op=\"multiply\",le=\"+Inf\"} 1",
            "pb_serve_request_seconds_count{op=\"multiply\"} 1",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_count() {
        let latencies = OpLatencies::default();
        // One observation under 1µs, one huge one in the overflow bucket.
        latencies.record("ping", 10);
        latencies.record("ping", u64::MAX / 4);
        let (_, snap) = latencies
            .snapshots()
            .into_iter()
            .find(|(op, _)| *op == "ping")
            .unwrap();
        let mut out = String::new();
        histogram_series(&mut out, "x", "ping", &snap);
        let inf = out
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("+Inf bucket");
        assert!(inf.ends_with(" 2"), "{inf}");
        assert!(out.contains("x_count{op=\"ping\"} 2"));
        // The first bucket already holds the sub-microsecond observation.
        let first = out.lines().next().unwrap();
        assert!(first.ends_with(" 1"), "{first}");
    }

    #[test]
    fn label_escaping_covers_the_format_specials() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }

    #[test]
    fn unknown_ops_are_ignored() {
        let latencies = OpLatencies::default();
        latencies.record("not-an-op", 1);
        assert!(latencies.snapshots().is_empty());
    }
}
