//! The metric catalogue, per-run outcomes and their printed forms.
//!
//! Every workload reports every metric of a list, so a later change can
//! compare any metric on any workload; a layer a workload does not run
//! reports a zero share or count, never a time.

use pb_spgemm::profile::{Phase, PhaseStats, PhaseTimings, SpGemmProfile};
use pb_spgemm::TiledReport;
use serde_json::Value;

use crate::host::Stream;
use crate::ledger::Ledger;

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("gflops", "GFLOP/s"),
    ("peak_rss_mb", "MiB"),
];

const BANDWIDTH_PHASES: [Phase; 4] = [Phase::Expand, Phase::Sort, Phase::Compress, Phase::Assemble];

/// Per-layer metrics (traced run), in reporting order: the names and units
/// [`push_layers`] emits.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out = Outcome::new("catalogue");
    push_layers(&mut out, &LayerInputs::default());
    out.metrics.into_iter().map(|m| (m.name, m.unit)).collect()
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// Which statistic the value is, when it is not self-evident (`p80`).
    pub stat: String,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: &'static str,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line each (capped).
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.push_stat(name, value, unit, n, "");
    }

    pub fn push_stat(&mut self, name: &str, value: f64, unit: &'static str, n: usize, stat: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            stat: stat.to_string(),
        });
    }

    /// Records one operation; a `Some` reason marks it failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Panics unless the metrics are exactly `catalogue`, in order — every
    /// workload must report every metric.
    pub fn assert_complete(&self, catalogue: &[(String, &'static str)]) {
        let got: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        let want: Vec<(&str, &str)> = catalogue.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        assert_eq!(
            got, want,
            "{}: metric set drifted from the catalogue",
            self.workload
        );
        for m in &self.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} is not finite",
                self.workload,
                m.name
            );
        }
    }

    /// `name workload value unit n=<samples>` lines.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let stat = if m.stat.is_empty() {
                    String::new()
                } else {
                    format!(" {}", m.stat)
                };
                format!(
                    "{} {} {} {} n={}{stat}",
                    m.name, self.workload, m.value, m.unit, m.n
                )
            })
            .collect()
    }

    /// The same data with sample counts and host facts, for the JSON file.
    pub fn document(&self, host_line: &str, mode: &str) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                Value::Object(vec![
                    ("name".into(), Value::Str(m.name.clone())),
                    ("value".into(), Value::Float(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("n".into(), Value::UInt(m.n as u64)),
                    ("stat".into(), Value::Str(m.stat.clone())),
                ])
            })
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(self.workload.into())),
            ("mode".into(), Value::Str(mode.into())),
            ("host".into(), Value::Str(host_line.into())),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            (
                "failures".into(),
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("metrics".into(), Value::Array(metrics)),
        ])
    }
}

pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, String)>,
) -> String {
    let metrics = metrics
        .map(|(name, value, unit)| {
            (
                name,
                Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(unit)),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .expect("serialising a Value cannot fail")
}

/// Operand sizes of the multiplies whose phases a traced run timed; the
/// Table III byte model turns them into bytes per phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sizes {
    pub flop: u64,
    pub nnz_a: usize,
    pub nnz_b: usize,
    /// Tuples the compress phase emits.
    pub nnz_c: usize,
    /// Entries the assemble phase writes (fewer than `nnz_c` under a mask).
    pub nnz_out: usize,
}

impl std::ops::AddAssign for Sizes {
    fn add_assign(&mut self, o: Sizes) {
        self.flop += o.flop;
        self.nnz_a += o.nnz_a;
        self.nnz_b += o.nnz_b;
        self.nnz_c += o.nnz_c;
        self.nnz_out += o.nnz_out;
    }
}

/// Phase bandwidth in GB/s under the Table III model
/// (`SpGemmProfile::phase_bandwidth_gbps`): the summed sizes of the
/// multiplies that ran the phases, over the phases' summed self time.
fn phase_gbps(sizes: Sizes, ledger: &Ledger, phase: Phase) -> f64 {
    let ns = |layer: &str| {
        let i = crate::ledger::LAYERS
            .iter()
            .position(|(n, _)| *n == layer)
            .expect("phase layers are in the ledger");
        std::time::Duration::from_nanos(ledger.self_ns[i])
    };
    let profile = SpGemmProfile {
        timings: PhaseTimings {
            symbolic: ns("phase.symbolic"),
            expand: ns("phase.expand"),
            sort: ns("phase.sort"),
            compress: ns("phase.compress"),
            assemble: ns("phase.assemble"),
        },
        flop: sizes.flop,
        nnz_a: sizes.nnz_a,
        nnz_b: sizes.nnz_b,
        nnz_c: if phase == Phase::Assemble {
            sizes.nnz_out
        } else {
            sizes.nnz_c
        },
        nbins: 0,
        key_bytes: 0,
        tuple_bytes: pb_spgemm::BinnedTuples::<f64>::tuple_bytes(),
        coo_bytes: pb_sparse::stats::bytes_per_tuple::<f64>(),
        stats: PhaseStats::default(),
    };
    profile.phase_bandwidth_gbps(phase)
}

/// Serve-only layer facts; zero for the batch workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayers {
    pub achieved_rps: f64,
    pub backlog_end: usize,
    pub batched_frac: f64,
    pub mean_batch: f64,
    pub client_gap_frac: f64,
    pub evictions: f64,
    pub catalog_bytes_used: f64,
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Clone)]
pub struct LayerInputs {
    pub stream: Stream,
    pub load_s: f64,
    pub load_bytes: u64,
    pub transpose_s: f64,
    pub pool_build_s: f64,
    pub signals_s: f64,
    pub ledger: Ledger,
    /// Operations the traced run timed (calls or requests).
    pub ops: usize,
    pub overhead_frac: f64,
    /// What the traced multiplies that ran the phases processed.
    pub sizes: Sizes,
    /// Per operation.
    pub flop: f64,
    pub nnz_c: f64,
    pub stats: PhaseStats,
    pub tiled: TiledReport,
    pub serve: ServeLayers,
    pub lag_p99_ms: f64,
}

impl Default for LayerInputs {
    fn default() -> Self {
        LayerInputs {
            stream: Stream::default(),
            load_s: 0.0,
            load_bytes: 0,
            transpose_s: 0.0,
            pool_build_s: 0.0,
            signals_s: 0.0,
            sizes: Sizes::default(),
            ledger: Ledger::new(&[], 0),
            ops: 0,
            overhead_frac: 0.0,
            flop: 0.0,
            nnz_c: 0.0,
            stats: PhaseStats::default(),
            tiled: TiledReport::default(),
            serve: ServeLayers::default(),
            lag_p99_ms: 0.0,
        }
    }
}

/// Appends the per-layer metrics in catalogue order.
pub fn push_layers(out: &mut Outcome, li: &LayerInputs) {
    let n = li.ops;
    let per_op = |v: u64| v as f64 / n.max(1) as f64;
    let mut push = |name: &str, value: f64, unit: &'static str| out.push(name, value, unit, n);
    push("stream.copy_gbps", li.stream.copy_gbps, "GB/s");
    push("stream.triad_gbps", li.stream.triad_gbps, "GB/s");
    push("io.load_s", li.load_s, "s");
    push(
        "io.load_mbps",
        li.load_bytes as f64 / li.load_s / 1e6,
        "MB/s",
    );
    push("engine.transpose_s", li.transpose_s, "s");
    push("engine.pool_build_s", li.pool_build_s, "s");
    push("planner.signals_s", li.signals_s, "s");
    push("ledger.op_ms", per_op(li.ledger.wall_ns) / 1e6, "ms");
    push(
        "ledger.unattributed_frac",
        li.ledger.unattributed_frac(),
        "ratio",
    );
    push("trace.overhead_frac", li.overhead_frac, "ratio");
    for (layer, frac) in li.ledger.fractions() {
        push(&format!("ledger.{layer}_frac"), frac, "ratio");
    }
    let gbps = BANDWIDTH_PHASES.map(|p| phase_gbps(li.sizes, &li.ledger, p));
    for (p, g) in BANDWIDTH_PHASES.iter().zip(gbps) {
        push(&format!("phase.{}_gbps", p.name()), g, "GB/s");
    }
    for (p, g) in BANDWIDTH_PHASES.iter().zip(gbps) {
        let frac = g / li.stream.triad_gbps;
        push(&format!("phase.{}_frac_stream", p.name()), frac, "ratio");
    }
    push("work.flop", li.flop, "count");
    push("work.nnz_c", li.nnz_c, "count");
    push("work.cf", li.flop / li.nnz_c.max(1.0), "ratio");
    push("expand.flushes", per_op(li.stats.flushes), "count");
    let mean_flush = li.stats.mean_flush_tuples();
    push("expand.mean_flush_tuples", mean_flush, "count");
    push(
        "workspace.bytes_allocated",
        per_op(li.stats.bytes_allocated),
        "bytes",
    );
    push(
        "workspace.bytes_reused",
        per_op(li.stats.bytes_reused),
        "bytes",
    );
    push("workspace.hits", per_op(li.stats.workspace_hits), "count");
    let t = &li.tiled;
    push("tiled.tiles", per_op(t.tiles_processed), "count");
    push("tiled.spill_bytes", per_op(t.spill_bytes), "bytes");
    push("tiled.spill_fetches", per_op(t.spill_fetches), "count");
    let high_water = t.resident_high_water as f64;
    push("tiled.resident_high_water_bytes", high_water, "bytes");
    push(
        "tiled.accumulated_tuples",
        per_op(t.accumulated_tuples),
        "count",
    );
    let s = &li.serve;
    push("serve.achieved_rps", s.achieved_rps, "1/s");
    push("serve.backlog_end", s.backlog_end as f64, "count");
    push("serve.batched_frac", s.batched_frac, "ratio");
    push("serve.mean_batch", s.mean_batch, "ratio");
    push("serve.client_gap_frac", s.client_gap_frac, "ratio");
    push("catalog.evictions", s.evictions, "count");
    push("catalog.bytes_used", s.catalog_bytes_used, "bytes");
    push("loadgen.lag_p99_ms", li.lag_p99_ms, "ms");
}

/// Prints the ledger as a table: each layer's share of the traced wall time.
pub fn ledger_table(workload: &str, ledger: &Ledger, ops: usize) -> String {
    let mut s = format!(
        "ledger {workload}: {ops} traced ops, {:.3} ms wall per op\n",
        ledger.wall_ns as f64 / ops.max(1) as f64 / 1e6
    );
    for (layer, frac) in ledger.fractions().filter(|(_, f)| *f > 0.0) {
        s.push_str(&format!("  {layer:<22} {:>6.2}%\n", frac * 100.0));
    }
    s.push_str(&format!(
        "  {:<22} {:>6.2}%\n",
        "unattributed",
        ledger.unattributed_frac() * 100.0
    ));
    s
}
