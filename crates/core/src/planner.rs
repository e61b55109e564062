//! Telemetry-driven algorithm selection: pick PB-SpGEMM or one of the
//! column-SpGEMM baselines per multiply, from cheap pre-multiply signals
//! plus a per-host calibration table that learns from measured runs.
//!
//! # Why a planner
//!
//! The paper's own evaluation (Fig. 7) shows a *crossover*: PB-SpGEMM wins
//! when the compression factor `cf = flop / nnz(C)` is low (its phases
//! stream memory and the sort does not pay for many duplicate merges), while
//! HashSpGEMM wins once `cf` exceeds roughly 4 (hashing collapses the
//! duplicates before they ever hit memory).  The repo ships both families
//! tuned; the [`Planner`] promotes that observation from a remark in the
//! CLI's `stats` output to the dispatch policy of the unified
//! [`SpGemm`](crate::SpGemm) engine.
//!
//! # Decision signals
//!
//! [`Signals::measure`] streams the operand offset arrays once (plus a
//! bounded row sample for the `cf` estimate) — strictly cheaper than the
//! symbolic phase it mirrors:
//!
//! * **`cf_estimate`** — `flop / nnz(C)` projected from a deterministic
//!   sample of output rows (≤ [`SIGNAL_SAMPLE_ROWS`] rows, ≤
//!   [`SIGNAL_SAMPLE_FLOP_BUDGET`] sampled flop).
//! * **`row_skew`** — max over mean row-nnz of `B`; heavy skew serialises
//!   heap merges and favours hashing.
//! * **`bin_skew`** — the flop share of the fullest projected propagation
//!   bin over the mean, the same occupancy statistic
//!   [`PhaseStats::occupancy_skew`](crate::profile::PhaseStats::occupancy_skew)
//!   reports after the fact.
//! * **`flop_per_nnz`** — arithmetic intensity `flop / (nnz(A)+nnz(B))`.
//!
//! # Decision thresholds (the prior)
//!
//! With no calibration data the planner applies a fixed, documented prior:
//!
//! 1. `flop < `[`PLANNER_TINY_FLOP`] → [`PlannedKernel::Heap`] (startup
//!    costs dominate; the heap has the smallest constant factor).
//! 2. estimated output density > [`PLANNER_SPA_DENSITY`] →
//!    [`PlannedKernel::Spa`] (a dense accumulator row is effectively free
//!    when most of it gets touched anyway).
//! 3. `cf_estimate < `[`PLANNER_CF_PB_CEILING`] → [`PlannedKernel::Pb`]
//!    (the paper's crossover, Fig. 7).
//! 4. otherwise `cf_estimate ≥ `[`PLANNER_HASHVEC_CF`] →
//!    [`PlannedKernel::HashVec`], else [`PlannedKernel::Hash`].
//!
//! # Calibration, stickiness, persistence
//!
//! Measured runs flow back through [`Planner::observe`], which maintains an
//! exponential moving average of achieved GFLOPS per *(signal bucket,
//! kernel)* cell — published with a compare-exchange (a lost race drops
//! the step instead of spinning).  Once a bucket holds measurements for at least two
//! kernels, the calibrated argmax overrides the prior; a previously chosen
//! kernel is only abandoned when the challenger's calibrated rate beats it
//! by more than [`PLANNER_SWITCH_MARGIN`] (hysteresis), so repeated
//! identical inputs keep getting the identical decision.
//!
//! Set `PB_PLANNER_CALIBRATION=/path/to/file` to persist the table across
//! processes: it is loaded by [`Planner::from_env`] and rewritten atomically
//! (temp file + rename) every [`PLANNER_PERSIST_EVERY`] observations.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use pb_baseline::Baseline;
use pb_sparse::{Csr, Scalar};

use crate::config::PbConfig;

/// Kernels the planner can dispatch to (plus the `Unplanned` marker that
/// [`PhaseStats`](crate::PhaseStats) reports for forced-algorithm runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PlannedKernel {
    /// No planner ran: the caller forced the algorithm.
    #[default]
    Unplanned,
    /// The paper's propagation-blocking outer-product algorithm.
    Pb,
    /// HeapSpGEMM (k-way merge accumulator).
    Heap,
    /// HashSpGEMM (open-addressing hash accumulator).
    Hash,
    /// HashVecSpGEMM (grouped-probing hash accumulator).
    HashVec,
    /// SPA (dense accumulator).
    Spa,
}

impl PlannedKernel {
    /// The kernels the planner chooses between, in fixed decision order.
    pub fn candidates() -> &'static [PlannedKernel] {
        &[
            PlannedKernel::Pb,
            PlannedKernel::Heap,
            PlannedKernel::Hash,
            PlannedKernel::HashVec,
            PlannedKernel::Spa,
        ]
    }

    /// Human-readable name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            PlannedKernel::Unplanned => "unplanned",
            PlannedKernel::Pb => "PB-SpGEMM",
            PlannedKernel::Heap => "HeapSpGEMM",
            PlannedKernel::Hash => "HashSpGEMM",
            PlannedKernel::HashVec => "HashVecSpGEMM",
            PlannedKernel::Spa => "SpaSpGEMM",
        }
    }

    /// The column baseline implementing this kernel, `None` for the PB
    /// kernel (and the `Unplanned` marker).
    pub fn baseline(&self) -> Option<Baseline> {
        match self {
            PlannedKernel::Heap => Some(Baseline::Heap),
            PlannedKernel::Hash => Some(Baseline::Hash),
            PlannedKernel::HashVec => Some(Baseline::HashVec),
            PlannedKernel::Spa => Some(Baseline::Spa),
            PlannedKernel::Pb | PlannedKernel::Unplanned => None,
        }
    }

    fn index(&self) -> usize {
        match self {
            PlannedKernel::Unplanned => usize::MAX,
            PlannedKernel::Pb => 0,
            PlannedKernel::Heap => 1,
            PlannedKernel::Hash => 2,
            PlannedKernel::HashVec => 3,
            PlannedKernel::Spa => 4,
        }
    }

    fn from_index(i: usize) -> Option<PlannedKernel> {
        PlannedKernel::candidates().get(i).copied()
    }
}

/// Rows sampled for the compression-factor estimate (evenly spaced).
pub const SIGNAL_SAMPLE_ROWS: usize = 48;
/// Upper bound on the flop the sampler is allowed to expand.
pub const SIGNAL_SAMPLE_FLOP_BUDGET: u64 = 1 << 16;
/// `cf_estimate` below this picks PB-SpGEMM — the paper's Fig. 7 crossover.
pub const PLANNER_CF_PB_CEILING: f64 = 4.0;
/// `cf_estimate` at or above this prefers grouped hash probing (HashVec)
/// over plain hashing: high compression means long duplicate runs.
pub const PLANNER_HASHVEC_CF: f64 = 16.0;
/// Multiplications below this flop count go to the heap baseline outright.
pub const PLANNER_TINY_FLOP: u64 = 1 << 14;
/// Estimated output density (`nnz(C) / nrows·ncols`) above which the dense
/// SPA accumulator is chosen.
pub const PLANNER_SPA_DENSITY: f64 = 0.25;
/// A calibrated challenger must beat the incumbent kernel's rate by this
/// factor before the planner switches (hysteresis).
pub const PLANNER_SWITCH_MARGIN: f64 = 1.25;
/// Weight of the newest observation in the per-cell GFLOPS moving average.
pub const PLANNER_EMA_WEIGHT: f64 = 0.25;
/// The calibration file is rewritten every this many observations.
pub const PLANNER_PERSIST_EVERY: u64 = 8;
/// Environment variable naming the persisted calibration table.
pub const PLANNER_CALIBRATION_ENV: &str = "PB_PLANNER_CALIBRATION";

const NKERNELS: usize = 5;
const CF_BUCKETS: usize = 3;
const FLOP_BUCKETS: usize = 3;
const NBUCKETS: usize = CF_BUCKETS * FLOP_BUCKETS;
const STICKY_SLOTS: usize = 64;

/// Cheap pre-multiply signals for one `A·B`, measured from the offset
/// arrays plus a bounded row sample — never from the full product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signals {
    /// Rows of the product.
    pub nrows: usize,
    /// Columns of the product.
    pub ncols: usize,
    /// `nnz(A)`.
    pub nnz_a: usize,
    /// `nnz(B)`.
    pub nnz_b: usize,
    /// Exact flop of the multiplication (one offset-array stream).
    pub flop: u64,
    /// Estimated compression factor `flop / nnz(C)` (≥ 1).
    pub cf_estimate: f64,
    /// Max-over-mean row nnz of `B`.
    pub row_skew: f64,
    /// Max-over-mean flop of the projected propagation bins.
    pub bin_skew: f64,
    /// `flop / (nnz(A) + nnz(B))`.
    pub flop_per_nnz: f64,
}

impl Signals {
    /// Measures the signals for `A·B` on CSR operands.
    ///
    /// Cost: `O(nnz(A) + nrows(B))` for the flop and skew passes plus the
    /// bounded sample for the `cf` estimate; deterministic for identical
    /// inputs (the sample rows are evenly spaced, never random).
    pub fn measure<Ta: Scalar, Tb: Scalar>(a: &Csr<Ta>, b: &Csr<Tb>, config: &PbConfig) -> Signals {
        let (nrows, inner) = a.shape();
        let ncols = b.ncols();
        let b_rowptr = b.rowptr();
        let row_nnz = |k: usize| (b_rowptr[k + 1] - b_rowptr[k]) as u64;

        // Exact flop: one pass over A's column indices.
        let mut flop = 0u64;
        let mut a_col_nnz = vec![0u32; inner];
        for &k in a.colidx() {
            flop += row_nnz(k as usize);
            a_col_nnz[k as usize] += 1;
        }

        // Row-nnz skew of B.
        let max_row = (0..b.nrows()).map(row_nnz).max().unwrap_or(0);
        let row_skew = if b.nnz() == 0 {
            0.0
        } else {
            max_row as f64 / (b.nnz() as f64 / b.nrows() as f64)
        };

        // Projected bin-occupancy skew: distribute each outer product k's
        // flop over the bin count the config would resolve, in contiguous
        // ranges of the inner dimension (the Range mapping's geometry).
        let nbins = config.resolve_nbins(flop, 16, nrows).max(1);
        let mut bin_flop = vec![0u64; nbins];
        for (k, &cnt) in a_col_nnz.iter().enumerate() {
            if cnt > 0 {
                let bin = k * nbins / inner.max(1);
                bin_flop[bin.min(nbins - 1)] += cnt as u64 * row_nnz(k);
            }
        }
        let max_bin = bin_flop.iter().copied().max().unwrap_or(0);
        let mean_bin = flop as f64 / nbins as f64;
        let bin_skew = if mean_bin == 0.0 {
            0.0
        } else {
            max_bin as f64 / mean_bin
        };

        // cf estimate from an evenly spaced sample of output rows: expand
        // each sampled row exactly (distinct-column count via a hash set)
        // and scale.  Deterministic: fixed stride, fixed budget.
        let mut sampled_flop = 0u64;
        let mut sampled_nnz = 0u64;
        let mut sampled_rows = 0usize;
        let stride = (nrows / SIGNAL_SAMPLE_ROWS).max(1);
        let a_rowptr = a.rowptr();
        let a_colidx = a.colidx();
        let b_colidx = b.colidx();
        let mut cols: HashSet<u32> = HashSet::new();
        for r in (0..nrows).step_by(stride) {
            if sampled_rows >= SIGNAL_SAMPLE_ROWS || sampled_flop >= SIGNAL_SAMPLE_FLOP_BUDGET {
                break;
            }
            let (lo, hi) = (a_rowptr[r], a_rowptr[r + 1]);
            if lo == hi {
                continue;
            }
            cols.clear();
            for &k in &a_colidx[lo..hi] {
                let (blo, bhi) = (b_rowptr[k as usize], b_rowptr[k as usize + 1]);
                sampled_flop += (bhi - blo) as u64;
                cols.extend(&b_colidx[blo..bhi]);
            }
            sampled_nnz += cols.len() as u64;
            sampled_rows += 1;
        }
        let cf_estimate = if sampled_nnz == 0 {
            1.0
        } else {
            (sampled_flop as f64 / sampled_nnz as f64).max(1.0)
        };

        let dense_nnz = nnz_sum(a.nnz(), b.nnz());
        Signals {
            nrows,
            ncols,
            nnz_a: a.nnz(),
            nnz_b: b.nnz(),
            flop,
            cf_estimate,
            row_skew,
            bin_skew,
            flop_per_nnz: if dense_nnz == 0 {
                0.0
            } else {
                flop as f64 / dense_nnz as f64
            },
        }
    }

    /// Estimated `nnz(C)` implied by the flop and the `cf` estimate.
    pub fn estimated_nnz_c(&self) -> u64 {
        (self.flop as f64 / self.cf_estimate).round() as u64
    }

    /// Estimated output density `nnz(C) / (nrows · ncols)`.
    pub fn estimated_density(&self) -> f64 {
        let cells = self.nrows as u64 * self.ncols as u64;
        if cells == 0 {
            0.0
        } else {
            self.estimated_nnz_c() as f64 / cells as f64
        }
    }

    /// Calibration bucket: cf regime × flop magnitude.
    fn bucket(&self) -> usize {
        let cf = if self.cf_estimate < 2.0 {
            0
        } else if self.cf_estimate < 8.0 {
            1
        } else {
            2
        };
        let size = if self.flop < (1 << 18) {
            0
        } else if self.flop < (1 << 24) {
            1
        } else {
            2
        };
        cf * FLOP_BUCKETS + size
    }

    /// Deterministic input signature for decision stickiness.
    fn signature(&self) -> u64 {
        // FNV-1a over the discrete shape/size facts — identical inputs hash
        // identically on every run (no RandomState).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [
            self.nrows as u64,
            self.ncols as u64,
            self.nnz_a as u64,
            self.nnz_b as u64,
            self.flop,
        ] {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

fn nnz_sum(a: usize, b: usize) -> u64 {
    a as u64 + b as u64
}

/// The learned per-host kernel-selection table.  See the module docs for
/// the decision procedure; share one planner across engines via `Arc` so
/// everything it learns is pooled.
#[derive(Debug)]
pub struct Planner {
    /// EMA of achieved GFLOPS per (bucket, kernel), as f64 bits; 0 = no data.
    cells: [[AtomicU64; NKERNELS]; NBUCKETS],
    /// Observation count per (bucket, kernel).
    counts: [[AtomicU64; NKERNELS]; NBUCKETS],
    /// Sticky decisions: slot holds `(signature & !0x7) | kernel_index`.
    sticky: [AtomicU64; STICKY_SLOTS],
    decisions: AtomicU64,
    observations: AtomicU64,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// Creates an empty planner (prior-only until observations arrive).
    pub fn new() -> Self {
        Planner {
            cells: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            counts: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            sticky: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
            decisions: AtomicU64::new(0),
            observations: AtomicU64::new(0),
        }
    }

    /// Creates a planner, preloading the calibration table from the file
    /// named by `PB_PLANNER_CALIBRATION` when that is set and readable.
    pub fn from_env() -> Self {
        let planner = Planner::new();
        if let Ok(path) = std::env::var(PLANNER_CALIBRATION_ENV) {
            if let Ok(text) = std::fs::read_to_string(&path) {
                planner.load_calibration(&text);
            }
        }
        planner
    }

    /// Decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Measured runs folded into the calibration table so far.
    pub fn observations(&self) -> u64 {
        self.observations.load(Ordering::Relaxed)
    }

    /// The calibrated GFLOPS estimate for a kernel on inputs like
    /// `signals`, when the table has data for it.
    pub fn calibrated_gflops(&self, kernel: PlannedKernel, signals: &Signals) -> Option<f64> {
        let (b, k) = (signals.bucket(), kernel.index());
        if k >= NKERNELS || self.counts[b][k].load(Ordering::Relaxed) == 0 {
            return None;
        }
        Some(f64::from_bits(self.cells[b][k].load(Ordering::Relaxed)))
    }

    /// The fixed prior described in the module docs — what the planner
    /// picks before any calibration data exists.
    pub fn prior(&self, signals: &Signals) -> PlannedKernel {
        if signals.flop < PLANNER_TINY_FLOP {
            PlannedKernel::Heap
        } else if signals.estimated_density() > PLANNER_SPA_DENSITY {
            PlannedKernel::Spa
        } else if signals.cf_estimate < PLANNER_CF_PB_CEILING {
            PlannedKernel::Pb
        } else if signals.cf_estimate >= PLANNER_HASHVEC_CF {
            PlannedKernel::HashVec
        } else {
            PlannedKernel::Hash
        }
    }

    /// Picks the kernel for inputs with these signals.
    ///
    /// Deterministic: identical signals against an unchanged table always
    /// return the same kernel, and the sticky/hysteresis state only ever
    /// *preserves* an earlier identical decision, never flips it.
    pub fn decide(&self, signals: &Signals) -> PlannedKernel {
        let _span = crate::trace::span(crate::trace::SpanName::PlannerDecide);
        self.decisions.fetch_add(1, Ordering::Relaxed);
        let bucket = signals.bucket();

        // Calibrated argmax, in fixed candidate order so ties break
        // deterministically.
        let mut best: Option<(PlannedKernel, f64)> = None;
        let mut measured = 0usize;
        for &k in PlannedKernel::candidates() {
            if self.counts[bucket][k.index()].load(Ordering::Relaxed) == 0 {
                continue;
            }
            measured += 1;
            let rate = f64::from_bits(self.cells[bucket][k.index()].load(Ordering::Relaxed));
            if best.is_none_or(|(_, r)| rate > r) {
                best = Some((k, rate));
            }
        }

        let sig = signals.signature();
        let slot = (sig % STICKY_SLOTS as u64) as usize;
        let stored = self.sticky[slot].load(Ordering::Relaxed);
        let previous = if stored != u64::MAX && (stored & !0x7) == (sig & !0x7) {
            PlannedKernel::from_index((stored & 0x7) as usize)
        } else {
            None
        };

        // The calibrated winner needs at least two measured kernels to
        // outrank the prior (one lone measurement says nothing relative).
        let choice = match (best, measured >= 2) {
            (Some((winner, rate)), true) => match previous {
                // Hysteresis: keep the incumbent unless the winner beats
                // its calibrated rate by the switch margin.
                Some(prev) if prev != winner => match self.calibrated_gflops(prev, signals) {
                    Some(prev_rate) if rate <= prev_rate * PLANNER_SWITCH_MARGIN => prev,
                    _ => winner,
                },
                _ => winner,
            },
            _ => previous.unwrap_or_else(|| self.prior(signals)),
        };

        self.sticky[slot].store((sig & !0x7) | choice.index() as u64, Ordering::Relaxed);
        // Point event carrying the chosen kernel's index, so a trace shows
        // *what* was decided, not just how long deciding took.
        crate::trace::instant(crate::trace::SpanName::PlannerDecide, choice.index() as u64);
        choice
    }

    /// Folds one measured run into the calibration table: `seconds` of wall
    /// time for a multiply with these signals on this kernel.
    ///
    /// Publication uses compare-exchange: a lost race drops this step (the
    /// next observation re-converges the average) instead of looping.
    pub fn observe(&self, kernel: PlannedKernel, signals: &Signals, seconds: f64) {
        crate::trace::instant(
            crate::trace::SpanName::PlannerObserve,
            kernel.index() as u64,
        );
        let k = kernel.index();
        // `seconds` must be a positive finite measurement; NaN and zero both
        // land in the reject arm.
        if k >= NKERNELS || seconds.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return;
        }
        let bucket = signals.bucket();
        let rate = signals.flop as f64 / seconds / 1e9;
        let cell = &self.cells[bucket][k];
        let current = cell.load(Ordering::Relaxed);
        let had_data = self.counts[bucket][k].load(Ordering::Relaxed) > 0;
        let updated = if had_data {
            let ema = f64::from_bits(current);
            ema + PLANNER_EMA_WEIGHT * (rate - ema)
        } else {
            rate
        };
        if cell
            .compare_exchange(
                current,
                updated.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.counts[bucket][k].fetch_add(1, Ordering::Relaxed);
        }
        let seen = self.observations.fetch_add(1, Ordering::Relaxed) + 1;
        if seen.is_multiple_of(PLANNER_PERSIST_EVERY) {
            self.persist_if_configured();
        }
    }

    /// Writes the calibration table to the `PB_PLANNER_CALIBRATION` file
    /// (atomic temp-file + rename), when that variable is set.  No-op —
    /// never an error — otherwise.
    pub fn persist_if_configured(&self) {
        let Ok(path) = std::env::var(PLANNER_CALIBRATION_ENV) else {
            return;
        };
        let text = self.dump_calibration();
        let tmp = format!("{path}.tmp.{}", std::process::id());
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    /// Serialises the table as the plain-text calibration format: a header
    /// line, then one `bucket kernel count gflops` line per populated cell.
    pub fn dump_calibration(&self) -> String {
        let mut out = String::from("pb-planner-calibration v1\n");
        for bucket in 0..NBUCKETS {
            for &k in PlannedKernel::candidates() {
                let count = self.counts[bucket][k.index()].load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                let rate = f64::from_bits(self.cells[bucket][k.index()].load(Ordering::Relaxed));
                out.push_str(&format!("{bucket} {} {count} {rate:.6}\n", k.index()));
            }
        }
        out
    }

    /// Merges a serialised calibration table (see
    /// [`dump_calibration`](Planner::dump_calibration)) into this planner,
    /// ignoring malformed lines — a damaged file degrades to the prior
    /// instead of failing the multiply.
    pub fn load_calibration(&self, text: &str) {
        let mut lines = text.lines();
        if lines
            .next()
            .is_none_or(|h| !h.starts_with("pb-planner-calibration"))
        {
            return;
        }
        for line in lines {
            let mut parts = line.split_whitespace();
            let (Some(b), Some(k), Some(c), Some(r)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let (Ok(bucket), Ok(kernel), Ok(count), Ok(rate)) = (
                b.parse::<usize>(),
                k.parse::<usize>(),
                c.parse::<u64>(),
                r.parse::<f64>(),
            ) else {
                continue;
            };
            if bucket >= NBUCKETS || kernel >= NKERNELS || count == 0 || !rate.is_finite() {
                continue;
            }
            self.cells[bucket][kernel].store(rate.to_bits(), Ordering::Relaxed);
            self.counts[bucket][kernel].store(count, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_gen::{banded, erdos_renyi_square, rmat_square};

    fn signals_for(a: &Csr<f64>) -> Signals {
        Signals::measure(a, a, &PbConfig::default())
    }

    #[test]
    fn signals_report_exact_flop_and_consistent_estimates() {
        let a = erdos_renyi_square(8, 6, 3);
        let s = signals_for(&a);
        assert_eq!(s.flop, pb_sparse::stats::flop_csr(&a, &a));
        assert_eq!(s.nnz_a, a.nnz());
        assert!(s.cf_estimate >= 1.0);
        assert!(s.row_skew >= 1.0);
        assert!(s.bin_skew >= 1.0);
        assert!(s.flop_per_nnz > 0.0);
        // The estimator should land in the right regime: the true cf of an
        // ER square at this density is low single digits.
        let true_cf = s.flop as f64 / pb_sparse::reference::multiply_csr(&a, &a).nnz() as f64;
        assert!(
            (s.cf_estimate / true_cf) > 0.5 && (s.cf_estimate / true_cf) < 2.0,
            "estimate {} vs true {true_cf}",
            s.cf_estimate
        );
    }

    #[test]
    fn signals_are_deterministic() {
        let a = rmat_square(8, 8, 7);
        assert_eq!(signals_for(&a), signals_for(&a));
    }

    #[test]
    fn prior_follows_documented_thresholds() {
        let p = Planner::new();
        let mut s = signals_for(&erdos_renyi_square(9, 8, 1));
        // Low-cf, non-tiny: PB.
        s.flop = PLANNER_TINY_FLOP * 4;
        s.cf_estimate = 2.0;
        s.nrows = 1 << 9;
        s.ncols = 1 << 9;
        assert_eq!(p.prior(&s), PlannedKernel::Pb);
        // Tiny: heap.
        let mut tiny = s;
        tiny.flop = PLANNER_TINY_FLOP - 1;
        assert_eq!(p.prior(&tiny), PlannedKernel::Heap);
        // High cf: hash family, vectorised once extreme.
        let mut hashy = s;
        hashy.cf_estimate = PLANNER_CF_PB_CEILING + 1.0;
        assert_eq!(p.prior(&hashy), PlannedKernel::Hash);
        hashy.cf_estimate = PLANNER_HASHVEC_CF;
        assert_eq!(p.prior(&hashy), PlannedKernel::HashVec);
        // Near-dense output: SPA.
        // Keep the flop above the tiny threshold so the density rule (not
        // the tiny-input rule) is what fires.
        let mut dense = s;
        dense.nrows = 64;
        dense.ncols = 64;
        dense.flop = 64 * 64 * 8;
        dense.cf_estimate = 1.5;
        assert!(dense.estimated_density() > PLANNER_SPA_DENSITY);
        assert_eq!(p.prior(&dense), PlannedKernel::Spa);
    }

    #[test]
    fn decisions_are_deterministic_and_sticky_under_repetition() {
        let a = rmat_square(8, 8, 11);
        let s = signals_for(&a);
        let p = Planner::new();
        let first = p.decide(&s);
        for _ in 0..20 {
            assert_eq!(p.decide(&s), first);
        }
        assert_eq!(p.decisions(), 21);
    }

    #[test]
    fn calibration_with_two_kernels_overrides_the_prior() {
        let a = erdos_renyi_square(8, 6, 5);
        let s = signals_for(&a);
        let p = Planner::new();
        let prior = p.prior(&s);
        // Feed measurements: the prior's pick is slow, Spa is 10x faster.
        let slow = s.flop as f64 / 1e9; // 1 GFLOPS
        p.observe(prior, &s, slow);
        p.observe(PlannedKernel::Spa, &s, slow / 10.0);
        assert_eq!(p.decide(&s), PlannedKernel::Spa);
        assert_eq!(p.observations(), 2);
        assert!(p.calibrated_gflops(PlannedKernel::Spa, &s).unwrap() > 9.0);
    }

    #[test]
    fn hysteresis_keeps_the_incumbent_inside_the_margin() {
        let a = erdos_renyi_square(8, 6, 9);
        let s = signals_for(&a);
        let p = Planner::new();
        let t = s.flop as f64 / 1e9;
        p.observe(PlannedKernel::Pb, &s, t); // 1.0 GFLOPS
        p.observe(PlannedKernel::Hash, &s, t); // 1.0 GFLOPS
        let incumbent = p.decide(&s);
        // A challenger only marginally faster (inside the 1.25x margin)
        // must not flip the decision...
        let challenger = if incumbent == PlannedKernel::Pb {
            PlannedKernel::Hash
        } else {
            PlannedKernel::Pb
        };
        p.observe(challenger, &s, t / 1.15);
        assert_eq!(p.decide(&s), incumbent, "switched inside the margin");
        // ...while a decisive one (beyond the margin) must.
        for _ in 0..16 {
            p.observe(challenger, &s, t / 3.0);
        }
        assert_eq!(p.decide(&s), challenger, "never switched past the margin");
    }

    #[test]
    fn calibration_roundtrips_through_the_text_format() {
        let a = banded(512, 9, 2);
        let s = signals_for(&a);
        let p = Planner::new();
        p.observe(PlannedKernel::Pb, &s, 0.001);
        p.observe(PlannedKernel::Heap, &s, 0.004);
        let dump = p.dump_calibration();
        assert!(dump.starts_with("pb-planner-calibration v1"));
        let q = Planner::new();
        q.load_calibration(&dump);
        for &k in PlannedKernel::candidates() {
            assert_eq!(
                p.calibrated_gflops(k, &s),
                q.calibrated_gflops(k, &s),
                "{}",
                k.name()
            );
        }
        // Garbage degrades to no-op, not a panic.
        q.load_calibration("not a calibration file\n1 2 3");
        q.load_calibration("pb-planner-calibration v1\nbogus line\n99 99 1 1.0\n");
    }

    #[test]
    fn kernel_names_and_baseline_mapping() {
        assert_eq!(PlannedKernel::candidates().len(), 5);
        assert_eq!(PlannedKernel::Pb.baseline(), None);
        assert_eq!(PlannedKernel::HashVec.baseline(), Some(Baseline::HashVec));
        assert_eq!(PlannedKernel::default(), PlannedKernel::Unplanned);
        for &k in PlannedKernel::candidates() {
            assert!(!k.name().is_empty());
            assert_eq!(PlannedKernel::from_index(k.index()), Some(k));
        }
    }
}
