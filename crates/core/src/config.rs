//! Tuning knobs of PB-SpGEMM.
//!
//! The paper exposes two tunables (Sec. V-A): the number of propagation
//! bins (`nbins`, chosen so one bin's tuples fit in L2 cache) and the local
//! bin width (512 bytes by default, a few cache lines).  Those are the only
//! algorithmic knobs here; the rest of [`PbConfig`] says where the multiply
//! runs (threads, SIMD level) and which [`Workspace`] it recycles memory
//! from.

use std::sync::Arc;

use crate::workspace::Workspace;

/// Size of one cache line in bytes on every platform this reproduction
/// targets (x86-64 and aarch64).  Local-bin flushes are sized in whole
/// multiples of this so the propagation-blocked writes of the expand phase
/// hit memory a full line at a time.
pub const CACHE_LINE_BYTES: usize = 64;

/// Default local-bin width in cache lines.  Eight lines × 64 B = 512 B, the
/// paper's default (Sec. V-A): large enough that a flush amortises the
/// reservation `fetch_add`, small enough that one local bin per global bin
/// still fits the bins of a thread in L1/L2.
pub const DEFAULT_LOCAL_BIN_CACHE_LINES: usize = 8;

/// Configuration of a PB-SpGEMM multiplication.
///
/// Cheap to clone: the only non-scalar field is the optional shared
/// [`Workspace`] handle (an [`Arc`]), which clones share on purpose so that
/// repeated multiplies through any clone of the config reuse the same
/// buffers.
#[derive(Debug, Clone)]
pub struct PbConfig {
    /// Number of global bins.  `None` (default) derives it from the flop
    /// count and [`PbConfig::l2_bytes`] exactly as the paper's symbolic
    /// phase does: `nbins = ceil(flop · bytes_per_tuple / L2)`, i.e. the
    /// smallest bin count at which one bin's expanded tuples fit in the L2
    /// cache of the core that will later sort them.
    pub nbins: Option<usize>,
    /// Size of each thread-private local bin in bytes.  The default is
    /// derived, not magic: [`DEFAULT_LOCAL_BIN_CACHE_LINES`] ×
    /// [`CACHE_LINE_BYTES`] = 512 B.  The expand phase converts this byte
    /// budget into a tuple capacity from the actual `Entry<V>` size and
    /// rounds it to whole cache lines (see
    /// [`local_bin_capacity`](crate::expand::local_bin_capacity)).
    pub local_bin_bytes: usize,
    /// Assumed L2 cache capacity per core in bytes, used to auto-derive
    /// `nbins` (default 1 MiB, the Skylake-SP value from Table IV).
    pub l2_bytes: usize,
    /// Number of rayon worker threads; `None` uses the global pool.
    pub threads: Option<usize>,
    /// SIMD dispatch level for the sort/expand kernels.  `None` (default)
    /// uses the process-wide level — runtime detection, overridable via
    /// `PB_SIMD` (see [`crate::simd::active`]).  An explicit level is
    /// clamped to what the host supports and never exceeds it, so a config
    /// can force the scalar oracle path but cannot force an illegal
    /// instruction.  Per-config forcing exists for tests and benches that
    /// compare levels inside one process, race-free.
    pub simd: Option<crate::simd::Isa>,
    /// Optional shared [`Workspace`]: the reusable arena every multiply
    /// through this configuration draws its expand-phase tuple buffer,
    /// sort scratch and staging vectors from (and returns them to), so
    /// repeated multiplies of similar shape stop paying the allocation and
    /// first-touch bill.  Clones share the handle on purpose; concurrent
    /// multiplies through clones stay correct (late callers fall back to
    /// fresh buffers for that call).  `None` (default) allocates per
    /// multiply.
    pub workspace: Option<Arc<Workspace>>,
}

impl PartialEq for PbConfig {
    fn eq(&self, other: &Self) -> bool {
        let same_workspace = match (&self.workspace, &other.workspace) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        same_workspace
            && self.nbins == other.nbins
            && self.local_bin_bytes == other.local_bin_bytes
            && self.l2_bytes == other.l2_bytes
            && self.threads == other.threads
            && self.simd == other.simd
    }
}

impl Default for PbConfig {
    fn default() -> Self {
        PbConfig {
            nbins: None,
            local_bin_bytes: DEFAULT_LOCAL_BIN_CACHE_LINES * CACHE_LINE_BYTES,
            l2_bytes: 1024 * 1024,
            threads: None,
            simd: None,
            workspace: None,
        }
    }
}

impl PbConfig {
    /// The paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a shared [`Workspace`]: every multiply through this
    /// configuration (and its clones) reuses the workspace's buffers
    /// instead of allocating, amortising the memory setup of repeated
    /// multiplies.  See [`crate::workspace`] for what is pooled.
    pub fn with_workspace(mut self, workspace: Arc<Workspace>) -> Self {
        self.workspace = Some(workspace);
        self
    }

    /// The default configuration with a fresh [`Workspace`] attached —
    /// the one-liner for "I am about to multiply in a loop".
    pub fn reusing() -> Self {
        Self::default().with_workspace(Arc::new(Workspace::new()))
    }

    /// The shared workspace, if one is attached.
    pub fn workspace(&self) -> Option<&Arc<Workspace>> {
        self.workspace.as_ref()
    }

    /// Sets an explicit number of global bins.
    pub fn with_nbins(mut self, nbins: usize) -> Self {
        self.nbins = Some(nbins.max(1));
        self
    }

    /// Sets the local bin width in bytes.
    pub fn with_local_bin_bytes(mut self, bytes: usize) -> Self {
        self.local_bin_bytes = bytes.max(16);
        self
    }

    /// Sets the assumed per-core L2 capacity used to auto-size bins.
    pub fn with_l2_bytes(mut self, bytes: usize) -> Self {
        self.l2_bytes = bytes.max(4096);
        self
    }

    /// Sets the number of worker threads (a dedicated rayon pool is built
    /// for the multiplication).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Forces the SIMD dispatch level for this configuration's multiplies
    /// (clamped to the host's support at resolve time; see
    /// [`PbConfig::simd`]).
    pub fn with_simd(mut self, isa: crate::simd::Isa) -> Self {
        self.simd = Some(isa);
        self
    }

    /// The [`Isa`](crate::simd::Isa) level the next multiply will dispatch
    /// its sort/expand kernels at: the explicit [`PbConfig::simd`] clamped
    /// to the host's support when set, the process-wide
    /// [`active`](crate::simd::active) level otherwise.
    pub fn resolve_simd(&self) -> crate::simd::Isa {
        crate::simd::resolve(self.simd)
    }

    /// Derives the number of global bins for a multiplication with `flop`
    /// expanded tuples of `tuple_bytes` bytes each over `nrows` output rows,
    /// following the paper's rule (`flop · bytes / L2`), clamped so that
    /// every bin covers at least one row.  An explicit [`PbConfig::nbins`]
    /// is honoured verbatim (clamped to the row count only).
    pub fn resolve_nbins(&self, flop: u64, tuple_bytes: usize, nrows: usize) -> usize {
        let nbins = match self.nbins {
            Some(n) => n,
            None => {
                let bytes = flop.saturating_mul(tuple_bytes as u64);
                bytes.div_ceil(self.l2_bytes.max(1) as u64) as usize
            }
        };
        nbins.clamp(1, nrows.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = PbConfig::default();
        // 8 cache lines × 64 B: derived, but equal to the paper's 512 B.
        assert_eq!(c.local_bin_bytes, 512);
        assert_eq!(c.nbins, None);
        assert_eq!(c.threads, None);
    }

    #[test]
    fn builder_methods_clamp_inputs() {
        let c = PbConfig::new()
            .with_nbins(0)
            .with_local_bin_bytes(1)
            .with_l2_bytes(1)
            .with_threads(0);
        assert_eq!(c.nbins, Some(1));
        assert_eq!(c.local_bin_bytes, 16);
        assert_eq!(c.l2_bytes, 4096);
        assert_eq!(c.threads, Some(1));
    }

    #[test]
    fn resolve_nbins_follows_the_papers_rule() {
        let c = PbConfig::new().with_l2_bytes(1 << 20);
        // 16M tuples of 16 bytes = 256 MiB -> 256 bins.
        assert_eq!(c.resolve_nbins(16 << 20, 16, 1 << 20), 256);
        // Tiny multiplications collapse to a single bin.
        assert_eq!(c.resolve_nbins(10, 16, 1 << 20), 1);
        // Explicit nbins wins but is clamped to the number of rows.
        let c = PbConfig::new().with_nbins(4096);
        assert_eq!(c.resolve_nbins(1 << 30, 16, 100), 100);
        assert_eq!(c.resolve_nbins(1 << 30, 16, 1 << 20), 4096);
        // Zero-flop products still get one bin.
        assert_eq!(PbConfig::new().resolve_nbins(0, 16, 8), 1);
    }

    #[test]
    fn workspace_configs_share_the_handle_across_clones() {
        let cfg = PbConfig::reusing();
        let clone = cfg.clone();
        assert_eq!(cfg, clone, "clones share the same workspace");
        assert!(Arc::ptr_eq(
            cfg.workspace().unwrap(),
            clone.workspace().unwrap()
        ));
        // A fresh workspace is a *different* configuration.
        assert_ne!(cfg, PbConfig::reusing());
        assert_ne!(cfg, PbConfig::default());
        assert!(PbConfig::default().workspace().is_none());
    }
}
