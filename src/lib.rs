//! # pb-spgemm-suite — one-stop façade for the PB-SpGEMM reproduction
//!
//! This crate simply re-exports the workspace crates so that examples,
//! integration tests and downstream users can depend on a single package:
//!
//! * [`sparse`] — matrix formats, semirings, element-wise ops, vectors, I/O,
//!   statistics (`pb-sparse`);
//! * [`gen`] — deterministic matrix generators (`pb-gen`);
//! * [`baseline`] — Heap/Hash/HashVec/SPA/ESC/outer-heap SpGEMM baselines
//!   (`pb-baseline`);
//! * [`spgemm`] — the PB-SpGEMM algorithm itself (`pb-spgemm`);
//! * [`spmv`] — SpMV kernels, including the propagation-blocking SpMV the
//!   paper's technique originates from (`pb-spmv`);
//! * [`graph`] — graph-analytics kernels built on the SpGEMM engines
//!   (`pb-graph`);
//! * [`model`] — Roofline model, STREAM and machine probes (`pb-model`);
//! * [`serve`] — the resident TCP service with its engine catalog and
//!   request batching (`pb-serve`).
//!
//! See `README.md` for a tour and `examples/` for runnable end-to-end
//! programs.

pub use pb_baseline as baseline;
pub use pb_gen as gen;
pub use pb_graph as graph;
pub use pb_model as model;
pub use pb_serve as serve;
pub use pb_sparse as sparse;
pub use pb_spgemm as spgemm;
pub use pb_spmv as spmv;

/// The most common imports for application code.
///
/// The one way to multiply is the unified [`SpGemm`](pb_spgemm::SpGemm)
/// engine (`SpGemm::pb()`, `SpGemm::auto()`, `SpGemm::baseline(..)`); the
/// old free functions and the graph crate's `SpGemmEngine` have been removed
/// after their one-release deprecation window — `docs/API.md` keeps the
/// historical migration table.
pub mod prelude {
    pub use pb_baseline::{Baseline, Kernel};
    pub use pb_gen::{erdos_renyi_square, rmat_square, standin_scaled};
    pub use pb_model::{MachineInfo, RooflineModel, StreamConfig};
    pub use pb_serve::{ServeConfig, Server};
    pub use pb_sparse::prelude::*;
    pub use pb_sparse::{ops, reference};
    pub use pb_spgemm::{
        Algorithm, Isa, PbConfig, PlannedKernel, Planner, ProfileSink, Signals, SpGemm,
    };
    pub use pb_spmv::{csr_spmv, pagerank, pb_spmv, PageRankConfig, PbSpmvConfig, SpmvEngine};
}
