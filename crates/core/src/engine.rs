//! The unified SpGEMM engine: one blessed entry point for every
//! multiplication in the workspace.
//!
//! [`SpGemm`] is a builder-style handle that owns the *what* (which
//! algorithm: the planner's choice, PB-SpGEMM, a column baseline, or the
//! sequential reference) and the *how* (a [`PbConfig`], an optional shared
//! [`Workspace`], an optional [`ProfileSink`]).  Graph kernels, benchmarks,
//! the CLI and tests all multiply through it; the historical free functions
//! (`multiply`, `multiply_with`, `multiply_reusing`, …) were removed after
//! their one-release deprecation window — `docs/API.md` keeps the
//! old-to-new mapping for reference.
//!
//! ```
//! use pb_spgemm::SpGemm;
//! use pb_sparse::{Coo, Csr};
//!
//! let a: Csr<f64> = Coo::from_entries(4, 4, vec![
//!     (0, 1, 2.0), (1, 2, 3.0), (2, 3, 4.0), (3, 0, 5.0),
//! ]).unwrap().to_csr();
//!
//! // Forced kernel:
//! let c = SpGemm::pb().multiply(&a, &a);
//! assert_eq!(c.get(0, 2), Some(6.0));
//!
//! // Planned kernel (the telemetry-driven default of `PB_ALGORITHM=auto`):
//! let c = SpGemm::auto().multiply(&a, &a);
//! assert_eq!(c.get(0, 2), Some(6.0));
//! ```

use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pb_baseline::{Baseline, Kernel};
use pb_sparse::binfmt::BinaryScalar;
use pb_sparse::ops::mask_by_pattern;
use pb_sparse::semiring::{Numeric, PlusTimes, Semiring};
use pb_sparse::{reference, Csc, Csr, Scalar};

use crate::config::PbConfig;
use crate::error::PbError;
use crate::planner::{PlannedKernel, Planner, Signals};
use crate::profile::{PhaseTimings, SpGemmProfile};
use crate::tiled::{TiledConfig, TiledReport};
use crate::trace::{self, SpanName};
use crate::workspace::Workspace;

/// Environment variable selecting the default algorithm of
/// [`SpGemm::from_env`] / [`SpGemm::new`] (`auto`, `pb`, `heap`, `hash`,
/// `hashvec`, `spa`, `esc`, `outer-heap`, `reference`).
pub const ALGORITHM_ENV: &str = "PB_ALGORITHM";

/// Which implementation a [`SpGemm`] engine dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Let the [`Planner`] pick per multiply from the decision signals and
    /// the calibration table.
    Auto,
    /// The paper's propagation-blocking outer-product algorithm.
    Pb,
    /// A fixed column-SpGEMM baseline.
    Baseline(Baseline),
    /// The sequential Gustavson reference — the correctness oracle.
    Reference,
}

impl Algorithm {
    /// Parses an algorithm name as accepted by [`ALGORITHM_ENV`] and the
    /// CLI's `--algorithm` flag.
    pub fn parse(name: &str) -> Option<Algorithm> {
        match name.to_ascii_lowercase().as_str() {
            "auto" | "planner" => Some(Algorithm::Auto),
            "pb" | "pb-spgemm" | "outer" => Some(Algorithm::Pb),
            "heap" => Some(Algorithm::Baseline(Baseline::Heap)),
            "hash" => Some(Algorithm::Baseline(Baseline::Hash)),
            "hashvec" | "hash-vec" => Some(Algorithm::Baseline(Baseline::HashVec)),
            "spa" => Some(Algorithm::Baseline(Baseline::Spa)),
            "esc" | "esc-column" | "column-esc" => Some(Algorithm::Baseline(Baseline::EscColumn)),
            "outer-heap" | "outerheap" => Some(Algorithm::Baseline(Baseline::OuterHeap)),
            "reference" | "ref" => Some(Algorithm::Reference),
            _ => None,
        }
    }

    /// Reads [`ALGORITHM_ENV`]: `Ok(None)` when unset, `Ok(Some(..))` for a
    /// recognised name, and a typed [`PbError`] for anything else — the
    /// fallible face of the env knob, for resident services that must
    /// reject a bad environment instead of panicking.
    pub fn from_env() -> Result<Option<Algorithm>, PbError> {
        match std::env::var(ALGORITHM_ENV) {
            Err(_) => Ok(None),
            Ok(name) => match Algorithm::parse(&name) {
                Some(alg) => Ok(Some(alg)),
                None => Err(PbError::InvalidEnv {
                    var: ALGORITHM_ENV,
                    value: name,
                    expected: "auto|pb|heap|hash|hashvec|spa|esc|outer-heap|reference",
                }),
            },
        }
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Auto => "Auto",
            Algorithm::Pb => "PB-SpGEMM",
            Algorithm::Baseline(b) => b.name(),
            Algorithm::Reference => "Reference",
        }
    }
}

impl From<Baseline> for Algorithm {
    fn from(b: Baseline) -> Algorithm {
        Algorithm::Baseline(b)
    }
}

/// Captures the profile of the last multiply an engine performed, for
/// callers that use the plain `multiply` surface but still want telemetry
/// (iterating graph kernels, the CLI's `--profile` flag).  Attach with
/// [`SpGemm::profile`]; cheap (`SpGemmProfile` is `Copy`).
#[derive(Debug, Default)]
pub struct ProfileSink {
    latest: Mutex<Option<SpGemmProfile>>,
}

impl ProfileSink {
    /// Creates an empty sink, ready to attach to an engine.
    pub fn new() -> Arc<ProfileSink> {
        Arc::new(ProfileSink::default())
    }

    /// The profile of the most recent multiply, if one has run.
    pub fn latest(&self) -> Option<SpGemmProfile> {
        *self.latest.lock().unwrap()
    }

    fn record(&self, profile: SpGemmProfile) {
        *self.latest.lock().unwrap() = Some(profile);
    }
}

/// The unified SpGEMM engine — see the module docs for a tour.
///
/// Cheap to clone ([`PbConfig`] is scalars plus optional shared `Arc`s, the
/// planner and profile sink are shared handles); equality compares the
/// configuration and handle *identity* (like [`PbConfig`]'s own
/// `PartialEq`).
#[derive(Debug, Clone)]
pub struct SpGemm {
    algorithm: Algorithm,
    config: PbConfig,
    planner: Option<Arc<Planner>>,
    profile_sink: Option<Arc<ProfileSink>>,
}

impl PartialEq for SpGemm {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.config == other.config
            && match (&self.planner, &other.planner) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
            && match (&self.profile_sink, &other.profile_sink) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }
}

impl Default for SpGemm {
    /// [`SpGemm::from_env`]: honours `PB_ALGORITHM`, PB-SpGEMM otherwise.
    fn default() -> Self {
        SpGemm::from_env()
    }
}

impl SpGemm {
    fn with_algorithm(algorithm: Algorithm) -> Self {
        SpGemm {
            algorithm,
            config: PbConfig::default(),
            planner: None,
            profile_sink: None,
        }
        .ensure_planner()
    }

    /// The environment-dependent default: the algorithm named by
    /// `PB_ALGORITHM` when set (panicking on an unrecognised name — a
    /// misspelt CI mode must fail loudly, not silently run PB), PB-SpGEMM
    /// otherwise.  Resident services use [`SpGemm::try_from_env`] instead.
    pub fn from_env() -> Self {
        SpGemm::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible face of [`SpGemm::from_env`]: an unrecognised
    /// `PB_ALGORITHM` is a typed [`PbError`] the caller can map to a
    /// refusal (a service's error response, a CLI exit code) instead of a
    /// process abort.
    pub fn try_from_env() -> Result<Self, PbError> {
        Ok(match Algorithm::from_env()? {
            Some(alg) => SpGemm::with_algorithm(alg),
            None => SpGemm::pb(),
        })
    }

    /// Alias for [`SpGemm::from_env`] — the constructor application code
    /// should reach for first.
    pub fn new() -> Self {
        SpGemm::from_env()
    }

    /// PB-SpGEMM with its default configuration.
    pub fn pb() -> Self {
        SpGemm::with_algorithm(Algorithm::Pb)
    }

    /// Telemetry-driven dispatch: a fresh [`Planner`] (preloaded from
    /// `PB_PLANNER_CALIBRATION` when set) picks the kernel per multiply.
    pub fn auto() -> Self {
        SpGemm::with_algorithm(Algorithm::Auto)
    }

    /// A fixed column-SpGEMM baseline.
    pub fn baseline(baseline: Baseline) -> Self {
        SpGemm::with_algorithm(Algorithm::Baseline(baseline))
    }

    /// The sequential Gustavson reference implementation.
    pub fn reference() -> Self {
        SpGemm::with_algorithm(Algorithm::Reference)
    }

    /// PB-SpGEMM with a fresh persistent [`Workspace`] attached: every
    /// multiply reuses the same expand buffer, sort scratch and staging
    /// vectors.
    pub fn with_workspace() -> Self {
        SpGemm::pb().workspace(Arc::new(Workspace::new()))
    }

    /// A representative set of engines for application-level sweeps:
    /// PB-SpGEMM plus the three baselines the paper plots.
    pub fn paper_set() -> Vec<SpGemm> {
        let mut engines = vec![SpGemm::pb()];
        engines.extend(Baseline::paper_set().iter().map(|&b| SpGemm::baseline(b)));
        engines
    }

    /// Sets the algorithm (creating a planner if `Auto` needs one).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self.ensure_planner()
    }

    /// Replaces the PB configuration (bin count, local-bin width, thread
    /// count, workspace, …).
    pub fn config(mut self, config: PbConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a shared [`Workspace`] so repeated multiplies recycle their
    /// working memory.
    pub fn workspace(mut self, workspace: Arc<Workspace>) -> Self {
        self.config = self.config.with_workspace(workspace);
        self
    }

    /// Runs every multiply on a dedicated pool of `threads` workers.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config = self.config.with_threads(threads);
        self
    }

    /// Attaches a [`ProfileSink`] recording the profile of every multiply.
    pub fn profile(mut self, sink: Arc<ProfileSink>) -> Self {
        self.profile_sink = Some(sink);
        self
    }

    /// Shares a [`Planner`] (and everything it has learned) with this
    /// engine; only consulted when the algorithm is [`Algorithm::Auto`].
    pub fn planner(mut self, planner: Arc<Planner>) -> Self {
        self.planner = Some(planner);
        self
    }

    fn ensure_planner(mut self) -> Self {
        if self.algorithm == Algorithm::Auto && self.planner.is_none() {
            self.planner = Some(Arc::new(Planner::from_env()));
        }
        self
    }

    /// Attaches a fresh [`Workspace`] to a PB-capable engine (PB or Auto —
    /// the planner may pick PB) that does not already carry one; baselines
    /// and the reference engine pass through untouched.  Iterating kernels
    /// call this once before their loop.
    pub fn with_iteration_workspace(self) -> Self {
        match self.algorithm {
            Algorithm::Pb | Algorithm::Auto if self.config.workspace().is_none() => {
                let ws = Arc::new(Workspace::new());
                self.workspace(ws)
            }
            _ => self,
        }
    }

    /// Which algorithm this engine dispatches to.
    pub fn kind(&self) -> Algorithm {
        self.algorithm
    }

    /// The engine's PB configuration.
    pub fn pb_config(&self) -> &PbConfig {
        &self.config
    }

    /// This engine's shared workspace, when it carries one.
    pub fn workspace_handle(&self) -> Option<&Arc<Workspace>> {
        self.config.workspace()
    }

    /// The engine's planner, when the algorithm is [`Algorithm::Auto`].
    pub fn planner_handle(&self) -> Option<&Arc<Planner>> {
        self.planner.as_ref()
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        self.algorithm.name()
    }

    /// Starts a masked multiply: the product is kept only at the stored
    /// coordinates of `mask`.  The PB kernel filters the binned tuples
    /// in-pipeline (the mask stage of its compress phase); other kernels
    /// multiply and filter (`mask_by_pattern`), so every algorithm yields
    /// the same masked product.  A masked multiply dispatches, plans and
    /// records into the engine's [`ProfileSink`] exactly like an unmasked
    /// one.
    pub fn mask<'a, M: Scalar>(&'a self, mask: &'a Csr<M>) -> Masked<'a, M> {
        Masked { engine: self, mask }
    }

    /// Computes `A·B` under an arbitrary semiring with this engine,
    /// returning the per-phase profile.
    ///
    /// Operands are CSR; the PB kernel converts `A` to CSC internally (its
    /// outer-product formulation needs column access) and that conversion
    /// is charged to the profile of a planned run.  Non-PB kernels report
    /// their whole runtime as the `expand` phase (they have no phase
    /// breakdown); a planned run additionally stamps
    /// [`planned_algorithm`](crate::PhaseStats::planned_algorithm) and the
    /// decision signals into the telemetry.
    pub fn multiply_with_profile<S: Semiring>(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
    ) -> (Csr<S::Elem>, SpGemmProfile)
    where
        S::Elem: Default,
    {
        self.dispatch::<S, S::Elem>(Operand::Csr(a), b, None)
    }

    /// Computes `A·B` under an arbitrary semiring.
    pub fn multiply_with<S: Semiring>(&self, a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> Csr<S::Elem>
    where
        S::Elem: Default,
    {
        self.multiply_with_profile::<S>(a, b).0
    }

    /// Computes `A·B` with ordinary `+`/`×` over a numeric type.
    pub fn multiply<T: Numeric + Default>(&self, a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
        self.multiply_with::<PlusTimes<T>>(a, b)
    }

    /// The CSC fast path: `A` already in the PB kernel's native column
    /// layout, profile returned.
    ///
    /// A PB or Auto engine runs the PB pipeline directly — planning is
    /// skipped (this entry exists precisely because the caller committed to
    /// PB's layout), so the profile reports
    /// [`PlannedKernel::Unplanned`](crate::PlannedKernel).  A forced
    /// baseline or reference engine transposes `A` back to CSR first.
    pub fn multiply_csc_with_profile<S: Semiring>(
        &self,
        a: &Csc<S::Elem>,
        b: &Csr<S::Elem>,
    ) -> (Csr<S::Elem>, SpGemmProfile)
    where
        S::Elem: Default,
    {
        self.dispatch::<S, S::Elem>(Operand::Csc(a), b, None)
    }

    /// The CSC fast path under an arbitrary semiring.
    pub fn multiply_csc_with<S: Semiring>(&self, a: &Csc<S::Elem>, b: &Csr<S::Elem>) -> Csr<S::Elem>
    where
        S::Elem: Default,
    {
        self.multiply_csc_with_profile::<S>(a, b).0
    }

    /// The CSC fast path with ordinary `+`/`×` over a numeric type.
    pub fn multiply_csc<T: Numeric + Default>(&self, a: &Csc<T>, b: &Csr<T>) -> Csr<T> {
        self.multiply_csc_with::<PlusTimes<T>>(a, b)
    }

    /// Computes `A·B` out of core under an arbitrary semiring: operands
    /// are cut into a flop-balanced tile grid, every tile pair runs
    /// through this engine, partial products merge via a second
    /// propagation-blocking pass, and tiles spill to a memory-mapped
    /// scratch file once `cfg`'s byte budget is exceeded (see
    /// [`crate::tiled`]).  Returns the product and the run's
    /// [`TiledReport`].
    pub fn multiply_tiled_with<S: Semiring>(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        cfg: &TiledConfig,
    ) -> Result<(Csr<S::Elem>, TiledReport), PbError>
    where
        S::Elem: Default + BinaryScalar,
    {
        crate::tiled::multiply_tiled_impl::<S, S::Elem>(self, a, b, None, cfg)
    }

    /// Computes `A·B` out of core with ordinary `+`/`×` over a numeric
    /// type (see [`multiply_tiled_with`](Self::multiply_tiled_with)).
    pub fn multiply_tiled<T: Numeric + Default + BinaryScalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
        cfg: &TiledConfig,
    ) -> Result<(Csr<T>, TiledReport), PbError> {
        self.multiply_tiled_with::<PlusTimes<T>>(a, b, cfg)
    }

    /// The one multiply dispatch behind every entry point: `a` as the
    /// caller handed it over, an optional output mask, the product plus
    /// its profile (also recorded into the [`ProfileSink`]).
    fn dispatch<S: Semiring, M: Scalar>(
        &self,
        a: Operand<'_, S::Elem>,
        b: &Csr<S::Elem>,
        mask: Option<&Csr<M>>,
    ) -> (Csr<S::Elem>, SpGemmProfile)
    where
        S::Elem: Default,
    {
        // Opened before any transpose, so a trace charges the conversion
        // to the engine call that needed it.
        let _span = trace::span(match (a, mask) {
            (_, Some(_)) => SpanName::EngineMasked,
            (Operand::Csr(_), None) => SpanName::EngineMultiply,
            (Operand::Csc(_), None) => SpanName::EngineMultiplyCsc,
        });
        if let Some(mask) = mask {
            assert_eq!(
                mask.shape(),
                (a.nrows(), b.ncols()),
                "the mask must have the shape of the product"
            );
        }
        // Only CSR input is planned: the CSC entry exists because the
        // caller already committed to PB's layout.
        let plan = match a {
            Operand::Csr(a) if self.algorithm == Algorithm::Auto => {
                let planner = self
                    .planner
                    .as_deref()
                    .expect("Auto engine carries a planner");
                let signals = Signals::measure(a, b, &self.config);
                Some((planner, planner.decide(&signals), signals))
            }
            _ => None,
        };
        let algorithm = plan.as_ref().map_or(self.algorithm, |(_, kernel, _)| {
            kernel.baseline().map_or(Algorithm::Pb, Algorithm::Baseline)
        });
        let t = Instant::now();
        let (c, mut profile) = match algorithm {
            Algorithm::Pb | Algorithm::Auto => {
                crate::pb_multiply_with_profile::<S, M>(&a.csc(), b, mask, &self.config)
            }
            Algorithm::Baseline(baseline) => {
                column::<S, M>(&a.csr(), b, mask, |a, b| baseline.multiply_with::<S>(a, b))
            }
            Algorithm::Reference => {
                column::<S, M>(&a.csr(), b, mask, reference::multiply_csr_with::<S>)
            }
        };
        if let Some((planner, kernel, signals)) = plan {
            planner.observe(kernel, &signals, t.elapsed().as_secs_f64());
            stamp_plan(&mut profile, kernel, &signals);
        }
        if let Some(sink) = &self.profile_sink {
            sink.record(profile);
        }
        (c, profile)
    }
}

/// The left operand of a multiply, in the layout the caller handed over.
#[derive(Clone, Copy)]
enum Operand<'a, T: Scalar> {
    /// Row-major: what the planner and the column kernels read.
    Csr(&'a Csr<T>),
    /// Column-major: what the PB pipeline reads.
    Csc(&'a Csc<T>),
}

impl<'a, T: Scalar + Default> Operand<'a, T> {
    fn nrows(self) -> usize {
        match self {
            Operand::Csr(a) => a.nrows(),
            Operand::Csc(a) => a.nrows(),
        }
    }

    /// `A` in CSC, transposed only when it came as CSR.
    fn csc(self) -> Cow<'a, Csc<T>> {
        match self {
            Operand::Csr(a) => Cow::Owned(a.to_csc()),
            Operand::Csc(a) => Cow::Borrowed(a),
        }
    }

    /// `A` in CSR, transposed only when it came as CSC.
    fn csr(self) -> Cow<'a, Csr<T>> {
        match self {
            Operand::Csr(a) => Cow::Borrowed(a),
            Operand::Csc(a) => Cow::Owned(a.to_csr()),
        }
    }
}

impl Kernel for SpGemm {
    fn kernel_name(&self) -> &'static str {
        self.name()
    }

    fn multiply_with<S: Semiring>(&self, a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> Csr<S::Elem>
    where
        S::Elem: Default,
    {
        SpGemm::multiply_with::<S>(self, a, b)
    }
}

/// A masked multiply in flight: built by [`SpGemm::mask`], executes on the
/// borrowed engine with the borrowed mask.
#[derive(Debug, Clone, Copy)]
pub struct Masked<'a, M: Scalar> {
    engine: &'a SpGemm,
    mask: &'a Csr<M>,
}

impl<M: Scalar> Masked<'_, M> {
    /// Computes `(A·B) ∘ pattern(mask)` under an arbitrary semiring.  The
    /// multiply's profile goes to the engine's [`ProfileSink`], if any.
    pub fn multiply_with<S: Semiring>(&self, a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> Csr<S::Elem>
    where
        S::Elem: Default,
    {
        self.engine
            .dispatch::<S, M>(Operand::Csr(a), b, Some(self.mask))
            .0
    }

    /// Computes `(A·B) ∘ pattern(mask)` with ordinary `+`/`×`.
    pub fn multiply<T: Numeric + Default>(&self, a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
        self.multiply_with::<PlusTimes<T>>(a, b)
    }

    /// The masked CSC fast path (PB-native masking; a forced baseline or
    /// reference engine transposes and post-filters).
    pub fn multiply_csc_with<S: Semiring>(&self, a: &Csc<S::Elem>, b: &Csr<S::Elem>) -> Csr<S::Elem>
    where
        S::Elem: Default,
    {
        self.engine
            .dispatch::<S, M>(Operand::Csc(a), b, Some(self.mask))
            .0
    }

    /// The masked CSC fast path with ordinary `+`/`×`.
    pub fn multiply_csc<T: Numeric + Default>(&self, a: &Csc<T>, b: &Csr<T>) -> Csr<T> {
        self.multiply_csc_with::<PlusTimes<T>>(a, b)
    }

    /// Computes `(A·B) ∘ pattern(mask)` out of core: the mask is cut
    /// along the same output-tile boundaries and applied per accumulated
    /// tile, which is equivalent to masking the assembled product.
    pub fn multiply_tiled_with<S: Semiring>(
        &self,
        a: &Csr<S::Elem>,
        b: &Csr<S::Elem>,
        cfg: &TiledConfig,
    ) -> Result<(Csr<S::Elem>, TiledReport), PbError>
    where
        S::Elem: Default + BinaryScalar,
    {
        crate::tiled::multiply_tiled_impl::<S, M>(self.engine, a, b, Some(self.mask), cfg)
    }

    /// The masked out-of-core multiply with ordinary `+`/`×`.
    pub fn multiply_tiled<T: Numeric + Default + BinaryScalar>(
        &self,
        a: &Csr<T>,
        b: &Csr<T>,
        cfg: &TiledConfig,
    ) -> Result<(Csr<T>, TiledReport), PbError> {
        self.multiply_tiled_with::<PlusTimes<T>>(a, b, cfg)
    }
}

/// Runs a column kernel (a baseline or the reference), masking its
/// product when asked.  The profile's size facts are exact; having no
/// phase breakdown, the kernel reports its whole runtime as the expand
/// phase.
fn column<S: Semiring, M: Scalar>(
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    mask: Option<&Csr<M>>,
    kernel: impl FnOnce(&Csr<S::Elem>, &Csr<S::Elem>) -> Csr<S::Elem>,
) -> (Csr<S::Elem>, SpGemmProfile) {
    let t = Instant::now();
    let c = kernel(a, b);
    let c = match mask {
        Some(mask) => mask_by_pattern(&c, mask),
        None => c,
    };
    let profile = SpGemmProfile {
        timings: PhaseTimings {
            expand: t.elapsed(),
            ..PhaseTimings::default()
        },
        flop: pb_sparse::stats::flop_csr(a, b),
        nnz_a: a.nnz(),
        nnz_b: b.nnz(),
        nnz_c: c.nnz(),
        nbins: 1,
        key_bytes: 0,
        tuple_bytes: crate::bins::BinnedTuples::<S::Elem>::tuple_bytes(),
        coo_bytes: pb_sparse::stats::bytes_per_tuple::<S::Elem>(),
        stats: crate::profile::PhaseStats::default(),
    };
    (c, profile)
}

fn stamp_plan(profile: &mut SpGemmProfile, kernel: PlannedKernel, signals: &Signals) {
    profile.stats.planned_algorithm = kernel;
    profile.stats.planned_cf_estimate = signals.cf_estimate;
    profile.stats.planned_row_skew = signals.row_skew;
    profile.stats.planned_bin_skew = signals.bin_skew;
    profile.stats.planned_flop_per_nnz = signals.flop_per_nnz;
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_gen::{erdos_renyi_square, rmat_square};
    use pb_sparse::reference::csr_approx_eq;
    use pb_sparse::semiring::OrAnd;

    #[test]
    fn every_engine_computes_the_same_product() {
        let a = rmat_square(7, 5, 3);
        let expected = reference::multiply_csr(&a, &a);
        for engine in SpGemm::paper_set() {
            let c = engine.multiply(&a, &a);
            assert!(
                csr_approx_eq(&c, &expected, 1e-9),
                "{} disagrees",
                engine.name()
            );
        }
        for engine in [SpGemm::reference(), SpGemm::auto()] {
            let c = engine.multiply(&a, &a);
            assert!(csr_approx_eq(&c, &expected, 1e-9), "{}", engine.name());
        }
    }

    #[test]
    fn auto_engine_records_its_decision_in_the_profile() {
        let a = erdos_renyi_square(8, 6, 7);
        let sink = ProfileSink::new();
        let engine = SpGemm::auto().profile(Arc::clone(&sink));
        let expected = reference::multiply_csr(&a, &a);
        let c = engine.multiply(&a, &a);
        assert!(csr_approx_eq(&c, &expected, 1e-9));
        let profile = sink.latest().expect("sink captured the multiply");
        let stats = profile.stats;
        assert_ne!(stats.planned_algorithm, PlannedKernel::Unplanned);
        assert!(stats.planned_cf_estimate >= 1.0);
        assert!(stats.planned_row_skew > 0.0);
        assert!(stats.planned_flop_per_nnz > 0.0);
        let planner = engine.planner_handle().unwrap();
        assert_eq!(planner.decisions(), 1);
        assert_eq!(planner.observations(), 1);
        // A forced engine reports Unplanned.
        let (_, p) = SpGemm::pb().multiply_with_profile::<PlusTimes<f64>>(&a, &a);
        assert_eq!(p.stats.planned_algorithm, PlannedKernel::Unplanned);
    }

    #[test]
    fn masked_multiplies_record_their_profile_into_the_sink() {
        // Sparse, collision-poor and above the planner's tiny-flop floor,
        // so a fresh planner's prior picks PB and every phase runs.
        let a = erdos_renyi_square(10, 8, 31);
        for engine in [
            SpGemm::pb(),
            SpGemm::auto().planner(Arc::new(Planner::new())),
        ] {
            let sink = ProfileSink::new();
            let engine = engine.profile(Arc::clone(&sink));
            let full = engine.multiply(&a, &a);
            let c = engine.mask(&a).multiply(&a, &a);
            assert!(c.nnz() < full.nnz(), "the mask must drop entries");
            let p = sink.latest().expect("sink captured the masked multiply");
            assert_eq!(p.nnz_c, c.nnz(), "{}: stale profile", engine.name());
            assert_eq!(p.flop, pb_sparse::stats::flop_csr(&a, &a));
            let t = p.timings;
            for (phase, d) in [
                ("symbolic", t.symbolic),
                ("expand", t.expand),
                ("sort", t.sort),
                ("compress", t.compress),
                ("assemble", t.assemble),
            ] {
                assert!(d > std::time::Duration::ZERO, "{}: {phase}", engine.name());
            }
            if engine.kind() == Algorithm::Auto {
                assert_eq!(p.stats.planned_algorithm, PlannedKernel::Pb);
            }
        }
    }

    #[test]
    fn forced_baseline_profile_reports_exact_sizes_and_elapsed_time() {
        let a = erdos_renyi_square(7, 4, 9);
        let (c, p) =
            SpGemm::baseline(Baseline::Hash).multiply_with_profile::<PlusTimes<f64>>(&a, &a);
        assert_eq!(p.nnz_c, c.nnz());
        assert_eq!(p.flop, pb_sparse::stats::flop_csr(&a, &a));
        assert!(p.timings.total() > std::time::Duration::ZERO);
        assert_eq!(p.timings.total(), p.timings.expand);
        assert!(p.gflops() > 0.0);
    }

    #[test]
    fn csc_fast_path_matches_the_csr_entry_for_every_algorithm() {
        let a = rmat_square(7, 6, 5);
        let a_csc = a.to_csc();
        for engine in [
            SpGemm::pb(),
            SpGemm::auto(),
            SpGemm::baseline(Baseline::Heap),
            SpGemm::reference(),
        ] {
            let via_csc = engine.multiply_csc(&a_csc, &a);
            let via_csr = engine.multiply(&a, &a);
            assert!(
                csr_approx_eq(&via_csc, &via_csr, 1e-12),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn masked_products_agree_across_all_engines() {
        let a = rmat_square(7, 6, 11);
        let expected = mask_by_pattern(&reference::multiply_csr(&a, &a), &a);
        for engine in [
            SpGemm::pb(),
            SpGemm::auto(),
            SpGemm::baseline(Baseline::Hash),
            SpGemm::baseline(Baseline::Spa),
            SpGemm::reference(),
        ] {
            let c = engine.mask(&a).multiply(&a, &a);
            assert!(csr_approx_eq(&c, &expected, 1e-9), "{}", engine.name());
            let c = engine.mask(&a).multiply_csc(&a.to_csc(), &a);
            assert!(csr_approx_eq(&c, &expected, 1e-9), "csc {}", engine.name());
        }
    }

    #[test]
    fn workspace_engine_reuses_buffers_across_multiplies() {
        let a = rmat_square(7, 6, 17);
        let engine = SpGemm::with_workspace();
        let ws = engine
            .workspace_handle()
            .cloned()
            .expect("workspace attached");
        let expected = reference::multiply_csr(&a, &a);
        for _ in 0..3 {
            let c = engine.multiply(&a, &a);
            assert!(csr_approx_eq(&c, &expected, 1e-9));
        }
        assert!(ws.total_bytes_reused() > 0, "repeat multiplies must reuse");
        assert_eq!(ws.leases(), 3);
    }

    #[test]
    fn iteration_workspace_wraps_only_pb_capable_engines() {
        let wrapped = SpGemm::pb().with_iteration_workspace();
        assert!(wrapped.workspace_handle().is_some());
        let ws = wrapped.workspace_handle().cloned().unwrap();
        let again = wrapped.with_iteration_workspace();
        assert!(Arc::ptr_eq(again.workspace_handle().unwrap(), &ws));
        // Auto may choose PB, so it gains one too...
        assert!(SpGemm::auto()
            .with_iteration_workspace()
            .workspace_handle()
            .is_some());
        // ...while pure column kernels and the reference never do.
        let baseline = SpGemm::baseline(Baseline::Hash).with_iteration_workspace();
        assert!(baseline.workspace_handle().is_none());
        assert!(SpGemm::reference()
            .with_iteration_workspace()
            .workspace_handle()
            .is_none());
    }

    #[test]
    fn engines_sharing_a_planner_pool_their_observations() {
        let planner = Arc::new(Planner::new());
        let a = erdos_renyi_square(7, 4, 21);
        let e1 = SpGemm::auto().planner(Arc::clone(&planner));
        let e2 = SpGemm::auto().planner(Arc::clone(&planner));
        let _ = e1.multiply(&a, &a);
        let _ = e2.multiply(&a, &a);
        assert_eq!(planner.observations(), 2);
        // Identical inputs through a shared planner decide identically.
        let s = Signals::measure(&a, &a, &PbConfig::default());
        assert_eq!(planner.decide(&s), planner.decide(&s));
    }

    #[test]
    fn semiring_products_agree_across_engines() {
        let a = rmat_square(6, 4, 9).map_values(|_| true);
        let expected = reference::multiply_csr_with::<OrAnd>(&a, &a);
        for engine in [
            SpGemm::pb(),
            SpGemm::auto(),
            SpGemm::baseline(Baseline::Heap),
        ] {
            let c = engine.multiply_with::<OrAnd>(&a, &a);
            assert_eq!(c.rowptr(), expected.rowptr(), "{}", engine.name());
            assert_eq!(c.colidx(), expected.colidx(), "{}", engine.name());
        }
    }

    #[test]
    fn names_parsing_and_paper_set() {
        assert_eq!(SpGemm::pb().name(), "PB-SpGEMM");
        assert_eq!(SpGemm::auto().name(), "Auto");
        assert_eq!(SpGemm::baseline(Baseline::Hash).name(), "HashSpGEMM");
        assert_eq!(SpGemm::paper_set().len(), 4);
        assert_eq!(Algorithm::parse("auto"), Some(Algorithm::Auto));
        assert_eq!(Algorithm::parse("PB"), Some(Algorithm::Pb));
        assert_eq!(
            Algorithm::parse("hash-vec"),
            Some(Algorithm::Baseline(Baseline::HashVec))
        );
        assert_eq!(Algorithm::parse("reference"), Some(Algorithm::Reference));
        assert_eq!(Algorithm::parse("nonsense"), None);
        assert_eq!(
            Algorithm::from(Baseline::Spa),
            Algorithm::Baseline(Baseline::Spa)
        );
        // Whatever PB_ALGORITHM the test process runs under is one of the
        // recognised CI modes (or unset), so the fallible readers succeed.
        assert!(Algorithm::from_env().is_ok());
        assert!(SpGemm::try_from_env().is_ok());
        assert_eq!(SpGemm::try_from_env().unwrap(), SpGemm::from_env());
    }

    #[test]
    fn kernel_trait_dispatches_through_the_engine() {
        let a = erdos_renyi_square(6, 4, 2);
        let expected = reference::multiply_csr(&a, &a);
        let engine = SpGemm::pb();
        let c = Kernel::multiply(&engine, &a, &a);
        assert!(csr_approx_eq(&c, &expected, 1e-9));
        assert_eq!(engine.kernel_name(), "PB-SpGEMM");
    }
}
