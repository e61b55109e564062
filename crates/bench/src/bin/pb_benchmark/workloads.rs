//! The five workloads, why each exists, and the context a run shares.

use std::path::{Path, PathBuf};
use std::time::Instant;

use pb_sparse::Csr;
use pb_spgemm::{PbConfig, Signals};

use crate::host::{Host, Stream};
use crate::ledger::BenchSpans;
use crate::metrics::Outcome;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RmatBw,
    MaskedTri,
    OocTiled,
    ServeHot,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RmatBw,
        Workload::MaskedTri,
        Workload::OocTiled,
        Workload::ServeHot,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RmatBw => "rmat-bw",
            Workload::MaskedTri => "masked-tri",
            Workload::OocTiled => "ooc-tiled",
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RmatBw => {
                "R-MAT squaring whose tuple buffer is over 4x the LLC: the paper's \
                 bandwidth-bound phases take most of each call"
            }
            Workload::MaskedTri => {
                "masked triangle product: the only path through core::masked, \
                 working set about the LLC size, tiny output"
            }
            Workload::OocTiled => {
                "tiled out-of-core multiply: the only path through TileStore \
                 spill and fetch"
            }
            Workload::ServeHot => {
                "pb-serve with repeated small multiplies: per-request costs \
                 (transpose, planner, queueing, parsing) dominate"
            }
            Workload::ServeChurn => {
                "pb-serve with 20% large stores into a 32-entry catalog: \
                 cold workspaces, big lines and evictions beside reads"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::ServeChurn)
    }
}

/// What one workload run needs.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Tiny inputs and runs, for tests.
    pub smoke: bool,
    /// Private directory for generated inputs and spill files.
    pub scratch: PathBuf,
    /// Where traces and JSON results go.
    pub out: PathBuf,
    pub host: Host,
    pub spans: BenchSpans,
}

pub fn run(w: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    if w.is_serve() {
        crate::serve_load::run(w, ctx)
    } else {
        crate::batch::run(w, ctx)
    }
}

/// Lane of the spans made on the benchmark's main thread.
pub const MAIN_LANE: u64 = 0;

/// Correlation ids of traced operations start here, clear of the serve
/// protocol ids the untraced steps use.
pub const TRACED_ID_BASE: u64 = 1 << 40;

const PROBE_REPS: usize = 5;

/// Median seconds of `PROBE_REPS` runs of `f`, each inside a benchmark span.
pub fn probe<R>(spans: &BenchSpans, name: &'static str, f: impl Fn() -> R) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            let r = spans.time(name, MAIN_LANE, 0, &f);
            let s = t.elapsed().as_secs_f64();
            drop(std::hint::black_box(r));
            s
        })
        .collect();
    crate::stats::median(&samples)
}

/// Work every CSR entry point pays outside the phase windows, timed by the
/// benchmark on the workload's own operand: the CSR→CSC transpose, building a
/// pool at the call's width, and the planner's signals.
#[derive(Debug, Clone, Copy)]
pub struct PrePhase {
    pub transpose_s: f64,
    pub pool_build_s: f64,
    pub signals_s: f64,
}

pub fn pre_phase(a: &Csr<f64>, spans: &BenchSpans) -> PrePhase {
    PrePhase {
        transpose_s: probe(spans, "bench.to_csc", || a.to_csc()),
        pool_build_s: probe(spans, "bench.pool_build", || {
            rayon::ThreadPoolBuilder::new()
                .num_threads(rayon::current_num_threads())
                .build()
                .expect("building a pool at the global pool's width")
        }),
        signals_s: probe(spans, "bench.signals", || {
            Signals::measure(a, a, &PbConfig::default())
        }),
    }
}

/// Loads a matrix file through `MatrixSource`.
pub fn load(path: &Path) -> Result<Csr<f64>, String> {
    let spec = path.to_str().ok_or("input path is not UTF-8")?;
    pb_gen::open_source(spec)
        .and_then(|s| s.load())
        .map_err(|e| format!("loading {spec}: {e}"))
}

/// Median seconds to load `path` through `MatrixSource` in this (warm)
/// process, and its size.
pub fn load_probe(path: &Path, spans: &BenchSpans) -> Result<(f64, u64), String> {
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    load(path)?;
    Ok((probe(spans, "bench.load", || load(path)), bytes))
}

/// Set-ups behind one `setup_s`.
pub const SETUP_REPS: usize = 15;

/// A workload's set-up, from nothing to ready to measure, in `dir`:
/// generate the seeded inputs, write them as PBSM v2 files and load them
/// through `MatrixSource` (serve: `Server::start` and the catalog's
/// `load`s).  Returns its seconds.
///
/// Generation counts because it is set-up work the program does, and
/// because loading alone takes well under 3 ms: its median over ten runs
/// moved by up to a third between runs on a shared 2-vCPU host, too coarse
/// for any bound.  `io.load_s` reports the load by itself.
pub fn setup_once(w: Workload, seed: u64, smoke: bool, dir: &Path) -> Result<f64, String> {
    let spans = BenchSpans::default();
    let t = Instant::now();
    if w.is_serve() {
        let running = crate::serve_load::set_up(w, seed, smoke, dir, &spans)?.1;
        let secs = t.elapsed().as_secs_f64();
        running.server.join();
        Ok(secs)
    } else {
        crate::batch::set_up(w, seed, smoke, dir, &spans)?;
        Ok(t.elapsed().as_secs_f64())
    }
}

const SMOKE_STREAM_BYTES: u64 = 512 << 10;

/// Measurements that run in fresh child processes of this executable, or in
/// this process at smoke size (where the executable may be a test binary).
impl Ctx {
    /// The STREAM ceiling, over arrays sized from the LLC (cache-sized
    /// arrays at smoke size).
    pub fn stream(&self) -> Result<Stream, String> {
        if self.smoke {
            crate::host::stream(SMOKE_STREAM_BYTES, false)
        } else {
            crate::host::stream(self.host.stream_array_bytes, true)
        }
    }

    /// `setup_s`: the median of `SETUP_REPS` set-ups of `w`, each in a
    /// fresh process (in this one at smoke size) and a directory of its own.
    /// A user pays set-up once per process, and repeated set-ups inside one
    /// process all ran at one speed while processes started moments apart
    /// differed.
    pub fn setup_s(&self, w: Workload) -> Result<f64, String> {
        let mut samples = Vec::with_capacity(SETUP_REPS);
        for k in 0..SETUP_REPS {
            let dir = self.scratch.join(format!("setup-{k}"));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            samples.push(if self.smoke {
                setup_once(w, self.seed, true, &dir)
            } else {
                setup_in_child(w, self.seed, &dir)
            }?);
            let _ = std::fs::remove_dir_all(&dir);
        }
        Ok(crate::stats::median(&samples))
    }
}

fn setup_in_child(w: Workload, seed: u64, dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--setup-child", w.name(), &seed.to_string()])
        .arg(dir)
        .output()
        .map_err(|e| format!("starting a set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(secs)) => Ok(secs),
        _ => Err(format!(
            "set-up child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}
