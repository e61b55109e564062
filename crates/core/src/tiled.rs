//! Out-of-core tiled PB-SpGEMM — hierarchical propagation blocking.
//!
//! The paper's thesis is that SpGEMM is bandwidth-bound and that propagation
//! blocking restructures it into sequential, bounded memory traffic.  This
//! module applies the same trick one level up, so products whose working set
//! exceeds RAM (or any single allocation) still complete:
//!
//! 1. **Partition** — `A` and `B` are cut into a 2D grid of tiles along
//!    flop-balanced boundaries (`balanced_boundaries` over per-row /
//!    per-inner-index / per-column flop weights), so every tile carries
//!    comparable work regardless of skew.
//! 2. **Tile multiply** — each output tile `C[i][j]` is the sum over `k` of
//!    `A[i][k] · B[k][j]`; every partial product runs through the ordinary
//!    [`SpGemm`] engine (PB pipeline, planner, SIMD dispatch all apply),
//!    with the per-tile working set leased from the engine's
//!    [`Workspace`](crate::Workspace) arena — same-shape tiles reuse the
//!    buffers, so steady-state tile processing allocates nothing.
//! 3. **Hierarchical PB accumulation** — the partial products of one output
//!    tile are merged by the PB pipeline's own back half, one level up.
//!    Row-range bins of about `ACC_TUPLES_PER_BIN` tuples are sized from
//!    the partials' row pointers; then, bins in parallel on the caller's
//!    pool, each bin is filled from the partials in ascending `k`, stably
//!    LSD-sorted and compressed while it is in cache, and
//!    [`crate::assemble`] writes the tile.  Equal `(row, col)`
//!    keys therefore fold in ascending `k` whatever the thread count, so
//!    the merge order is a function of the inputs and the grid.  A grid
//!    that splits `k` adds whole partial sums, which regroups the
//!    additions: the tiled product matches the resident one bit for bit
//!    only when every sum is exact (unit values, say), and to rounding
//!    otherwise.
//! 4. **Spill** — tiles live in a [`TileStore`] governed by a byte budget
//!    ([`OOC_BUDGET_ENV`] / [`TiledConfig`] setter).  When an insert would
//!    exceed the budget, least-recently-used tiles are serialised (PBSM v2,
//!    see [`pb_sparse::binfmt`]) and appended to a scratch file; fetches of
//!    spilled tiles memory-map the scratch file back in
//!    ([`pb_sparse::mmapio`]) and decode each section in bulk.  Peak
//!    resident bytes are therefore bounded by `budget + one tile` and
//!    telemetered ([`TiledReport::resident_high_water`]).
//!
//! Budget semantics: the budget governs the **tile store** of one multiply
//! (inputs' tiles plus accumulated output tiles).  It is a *per-multiply*
//! knob — distinct from the [`Workspace`](crate::Workspace) decay policy,
//! which bounds the pooled kernel buffers *per workspace/engine* — and the
//! final assembled output matrix is handed back resident by definition.
//! `docs/OOC.md` covers the scheme end to end.

use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pb_sparse::binfmt::{read_csr_from, write_csr_to, BinaryScalar};
use pb_sparse::mmapio::Mapping;
use pb_sparse::ops::mask_by_pattern;
use pb_sparse::{Csr, Index, Scalar, Semiring, SparseError};
use rayon::prelude::*;

use crate::bins::{carve, BinLayout, BinnedTuples, Entry};
use crate::engine::SpGemm;
use crate::error::PbError;
use crate::profile::{PhaseStats, StatsCollector};
use crate::simd::Isa;
use crate::trace::{self, SpanName};
use crate::{assemble, compress, sort};

/// Environment knob: tile-store byte budget in MiB for out-of-core
/// multiplies configured from the environment.
pub const OOC_BUDGET_ENV: &str = "PB_OOC_BUDGET_MB";

/// Default tile-store budget when neither the environment nor the builder
/// sets one: 256 MiB.
pub const DEFAULT_BUDGET_BYTES: u64 = 256 * 1024 * 1024;

/// Hard cap on tile-grid splits per dimension — a runaway budget-derived
/// grid degenerates into per-row tiles and pure overhead past this.
const MAX_SPLITS: usize = 64;

/// Tuples per accumulation bin the hierarchical-PB pass aims for (16-byte
/// tuples → ~256 KiB per bin, an L2-sized working set).
const ACC_TUPLES_PER_BIN: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of one out-of-core tiled multiply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TiledConfig {
    budget_bytes: u64,
    grid: Option<(usize, usize, usize)>,
    scratch_dir: Option<PathBuf>,
}

impl Default for TiledConfig {
    fn default() -> Self {
        TiledConfig {
            budget_bytes: DEFAULT_BUDGET_BYTES,
            grid: None,
            scratch_dir: None,
        }
    }
}

impl TiledConfig {
    /// A config with the given tile-store budget in bytes.
    pub fn new(budget_bytes: u64) -> Self {
        TiledConfig {
            budget_bytes: budget_bytes.max(1),
            ..TiledConfig::default()
        }
    }

    /// Sets the tile-store budget in MiB.
    pub fn with_budget_mb(mut self, mb: u64) -> Self {
        self.budget_bytes = mb.max(1) * 1024 * 1024;
        self
    }

    /// Forces the tile grid to `(row blocks, inner blocks, col blocks)`
    /// instead of deriving it from the budget.  Used by the bit-identity
    /// tests to sweep grid shapes.
    pub fn with_grid(mut self, row_blocks: usize, inner_blocks: usize, col_blocks: usize) -> Self {
        self.grid = Some((row_blocks.max(1), inner_blocks.max(1), col_blocks.max(1)));
        self
    }

    /// Directory for the spill scratch file (default: the system temp dir).
    pub fn with_scratch_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.scratch_dir = Some(dir.into());
        self
    }

    /// The configured tile-store budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// The forced grid, when one was set.
    pub fn grid(&self) -> Option<(usize, usize, usize)> {
        self.grid
    }

    /// Reads [`OOC_BUDGET_ENV`]: `Ok(None)` when unset, a config with that
    /// budget when set to a positive MiB count, and a typed error on
    /// anything else (a resident service must reject a broken environment,
    /// not guess).
    pub fn from_env() -> Result<Option<TiledConfig>, PbError> {
        match std::env::var(OOC_BUDGET_ENV) {
            Err(_) => Ok(None),
            Ok(raw) => match raw.trim().parse::<u64>() {
                Ok(mb) if mb > 0 => Ok(Some(TiledConfig::default().with_budget_mb(mb))),
                _ => Err(PbError::InvalidEnv {
                    var: OOC_BUDGET_ENV,
                    value: raw,
                    expected: "a positive integer MiB count",
                }),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Telemetry of one tiled multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct TiledReport {
    /// `(row blocks, inner blocks, col blocks)` actually used.
    pub grid: (usize, usize, usize),
    /// The tile-store budget the run was governed by, in bytes.
    pub budget_bytes: u64,
    /// Per-tile engine multiplies executed (non-empty `A[i][k] · B[k][j]`
    /// pairs).
    pub tiles_processed: u64,
    /// Partial-product tuples merged by the hierarchical-PB accumulation
    /// pass.
    pub accumulated_tuples: u64,
    /// Bytes serialised to the scratch file by budget evictions.
    pub spill_bytes: u64,
    /// Tiles that were spilled at least once.
    pub spilled_tiles: u64,
    /// Fetches served by mapping the scratch file back in.
    pub spill_fetches: u64,
    /// Peak resident bytes of the tile store.  Guaranteed ≤
    /// `budget_bytes + max_tile_bytes` (one tile's slack).
    pub resident_high_water: u64,
    /// Largest single tile the store ever held.
    pub max_tile_bytes: u64,
    /// Aggregated per-phase telemetry of the per-tile engine multiplies,
    /// with the `ooc_*` fields stamped (tiles / spill bytes / high water).
    pub stats: PhaseStats,
}

impl TiledReport {
    /// Whether the store honoured its budget up to one tile's slack — the
    /// invariant `bench_pb --verify` gates.
    pub fn within_budget_slack(&self) -> bool {
        self.resident_high_water <= self.budget_bytes + self.max_tile_bytes
    }
}

// ---------------------------------------------------------------------------
// Tile store
// ---------------------------------------------------------------------------

/// Addresses one tile in a [`TileStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// 0 = A tile, 1 = B tile, 2 = accumulated C tile.
    pub kind: u8,
    /// Block-row index (block-inner index for B tiles).
    pub i: u32,
    /// Block-column index.
    pub j: u32,
}

struct Stored<T: BinaryScalar> {
    resident: Option<Arc<Csr<T>>>,
    bytes: u64,
    /// `(offset, len)` of the serialised tile in the scratch file, once
    /// spilled.  A tile is serialised at most once; later evictions just
    /// drop the resident copy.
    spill: Option<(u64, u64)>,
    stamp: u64,
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A byte-budgeted cache of tiles that spills to a memory-mapped scratch
/// file under pressure.
///
/// Inserts that would exceed the budget first evict least-recently-used
/// resident tiles (serialising each at most once, as a PBSM-v2 record
/// appended to the scratch file); fetches of evicted tiles map the scratch
/// file back in.  Resident bytes therefore never exceed
/// `budget + one tile` — the slack exists because a single tile larger than
/// the whole budget must still be admitted to make progress.
pub struct TileStore<T: BinaryScalar> {
    budget: u64,
    scratch_dir: PathBuf,
    scratch: Option<(PathBuf, File)>,
    scratch_len: u64,
    tiles: HashMap<TileKey, Stored<T>>,
    resident_bytes: u64,
    clock: u64,
    high_water: u64,
    spill_bytes: u64,
    spilled_tiles: u64,
    spill_fetches: u64,
    max_tile_bytes: u64,
}

fn tile_bytes<T: BinaryScalar>(m: &Csr<T>) -> u64 {
    ((m.nrows() + 1) * 8 + m.nnz() * (4 + T::WIDTH)) as u64
}

impl<T: BinaryScalar> TileStore<T> {
    /// An empty store with the given byte budget, spilling into
    /// `scratch_dir` when needed.
    pub fn new(budget: u64, scratch_dir: Option<PathBuf>) -> Self {
        TileStore {
            budget: budget.max(1),
            scratch_dir: scratch_dir.unwrap_or_else(std::env::temp_dir),
            scratch: None,
            scratch_len: 0,
            tiles: HashMap::new(),
            resident_bytes: 0,
            clock: 0,
            high_water: 0,
            spill_bytes: 0,
            spilled_tiles: 0,
            spill_fetches: 0,
            max_tile_bytes: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Serialises `key`'s resident tile to the scratch file (once) and
    /// drops the resident copy.
    fn evict(&mut self, key: TileKey) -> Result<(), PbError> {
        let stored = self.tiles.get_mut(&key).expect("evicting a known tile");
        let tile = stored.resident.take().expect("evicting a resident tile");
        self.resident_bytes -= stored.bytes;
        if stored.spill.is_some() {
            return Ok(());
        }
        let _span = trace::span(SpanName::TiledSpill);
        let mut bytes = Vec::new();
        write_csr_to(&mut bytes, tile.as_ref()).map_err(PbError::Matrix)?;
        if self.scratch.is_none() {
            let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = self
                .scratch_dir
                .join(format!("pb-ooc-{}-{}.spill", std::process::id(), n));
            let file = File::create(&path)?;
            self.scratch = Some((path, file));
        }
        let (_, file) = self.scratch.as_mut().expect("scratch file just created");
        file.write_all(&bytes)?;
        let len = bytes.len() as u64;
        let offset = self.scratch_len;
        self.scratch_len += len;
        self.spill_bytes += len;
        self.spilled_tiles += 1;
        trace::instant(SpanName::TiledSpill, len);
        let stored = self.tiles.get_mut(&key).expect("still present");
        stored.spill = Some((offset, len));
        Ok(())
    }

    /// Evicts least-recently-used resident tiles until `incoming` more
    /// bytes fit in the budget (or nothing is left to evict).
    fn make_room(&mut self, incoming: u64) -> Result<(), PbError> {
        while self.resident_bytes + incoming > self.budget {
            let victim = self
                .tiles
                .iter()
                .filter(|(_, s)| s.resident.is_some())
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| *k);
            match victim {
                Some(key) => self.evict(key)?,
                None => break,
            }
        }
        Ok(())
    }

    /// Admits a tile, spilling older tiles first if the budget demands it.
    pub fn insert(&mut self, key: TileKey, tile: Csr<T>) -> Result<(), PbError> {
        let bytes = tile_bytes(&tile);
        self.max_tile_bytes = self.max_tile_bytes.max(bytes);
        self.make_room(bytes)?;
        let stamp = self.tick();
        self.resident_bytes += bytes;
        self.high_water = self.high_water.max(self.resident_bytes);
        self.tiles.insert(
            key,
            Stored {
                resident: Some(Arc::new(tile)),
                bytes,
                spill: None,
                stamp,
            },
        );
        Ok(())
    }

    /// Returns a tile, mapping it back from the scratch file if it was
    /// evicted (the fetched copy is re-admitted under the budget).
    pub fn fetch(&mut self, key: TileKey) -> Result<Arc<Csr<T>>, PbError> {
        let stamp = self.tick();
        let stored = self
            .tiles
            .get_mut(&key)
            .ok_or_else(|| PbError::InvalidConfig(format!("tile store has no tile for {key:?}")))?;
        stored.stamp = stamp;
        if let Some(tile) = &stored.resident {
            return Ok(Arc::clone(tile));
        }
        let (offset, len) = stored.spill.expect("non-resident tiles are spilled");
        let _span = trace::span(SpanName::TiledFetch);
        let path = &self.scratch.as_ref().expect("spilled tiles have scratch").0;
        let map = Mapping::map(path)?;
        let slice = &map.bytes()[offset as usize..(offset + len) as usize];
        let tile: Csr<T> = read_csr_from(slice).map_err(PbError::Matrix)?;
        drop(map);
        trace::instant(SpanName::TiledFetch, len);
        let bytes = self.tiles[&key].bytes;
        self.spill_fetches += 1;
        self.make_room(bytes)?;
        let arc = Arc::new(tile);
        let stored = self.tiles.get_mut(&key).expect("still present");
        stored.resident = Some(Arc::clone(&arc));
        self.resident_bytes += bytes;
        self.high_water = self.high_water.max(self.resident_bytes);
        Ok(arc)
    }

    /// Peak resident bytes the store reached.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Total bytes serialised to the scratch file.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }
}

impl<T: BinaryScalar> Drop for TileStore<T> {
    fn drop(&mut self) {
        if let Some((path, file)) = self.scratch.take() {
            drop(file);
            let _ = std::fs::remove_file(path);
        }
    }
}

impl<T: BinaryScalar> std::fmt::Debug for TileStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileStore")
            .field("budget", &self.budget)
            .field("tiles", &self.tiles.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("high_water", &self.high_water)
            .field("spill_bytes", &self.spill_bytes)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

/// Extracts the sub-matrix of rows `r0..r1` × columns `c0..c1`, with column
/// indices rebased to the block (requires sorted row indices, which every
/// construction path in this workspace guarantees).
fn extract_block<T: Scalar>(m: &Csr<T>, r0: usize, r1: usize, c0: usize, c1: usize) -> Csr<T> {
    debug_assert!(m.has_sorted_indices());
    let mut rowptr = Vec::with_capacity(r1 - r0 + 1);
    rowptr.push(0);
    let mut colidx: Vec<Index> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    for row in r0..r1 {
        let (cols, vals) = m.row(row);
        let lo = cols.partition_point(|&c| (c as usize) < c0);
        let hi = cols.partition_point(|&c| (c as usize) < c1);
        for t in lo..hi {
            colidx.push(cols[t] - c0 as Index);
            values.push(vals[t]);
        }
        rowptr.push(colidx.len());
    }
    Csr::from_parts_unchecked(r1 - r0, c1 - c0, rowptr, colidx, values)
}

/// Flop-balanced boundary triple for an `m×n · n×p` product: row cuts of
/// `A` (weighted by per-row flop), inner cuts (weighted by
/// `nnz(A[:,k]) · nnz(B[k,:])`) and column cuts of `B` (weighted by
/// per-column nnz).
fn boundaries<TA: Scalar, TB: Scalar>(
    a: &Csr<TA>,
    b: &Csr<TB>,
    grid: (usize, usize, usize),
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let (p, q, r) = grid;
    let b_row_nnz: Vec<u64> = (0..b.nrows())
        .map(|k| (b.rowptr()[k + 1] - b.rowptr()[k]) as u64)
        .collect();

    let row_weights: Vec<u64> = (0..a.nrows())
        .map(|i| a.row(i).0.iter().map(|&k| b_row_nnz[k as usize]).sum())
        .collect();

    let mut a_col_nnz = vec![0u64; a.ncols()];
    for &c in a.colidx() {
        a_col_nnz[c as usize] += 1;
    }
    let inner_weights: Vec<u64> = (0..a.ncols())
        .map(|k| a_col_nnz[k] * b_row_nnz[k])
        .collect();

    let mut col_weights = vec![0u64; b.ncols()];
    for &c in b.colidx() {
        col_weights[c as usize] += 1;
    }

    (
        balanced_boundaries(&row_weights, p),
        balanced_boundaries(&inner_weights, q),
        balanced_boundaries(&col_weights, r),
    )
}

/// Splits `weights.len()` items into `parts` contiguous ranges of roughly
/// equal total weight; returns the `parts + 1` cumulative item boundaries
/// (first 0, last `weights.len()`).
///
/// Greedy scan: a boundary is placed once the running weight reaches the
/// ideal share, which bounds every range's weight by the ideal share plus
/// one item's weight.
fn balanced_boundaries(weights: &[u64], parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0usize);
    let mut acc = 0u64;
    let mut placed = 1usize; // boundaries placed so far, including the 0
    for (i, &w) in weights.iter().enumerate() {
        // Remaining parts must each get at least the chance of one item.
        let target = (total * placed as u64).div_ceil(parts as u64);
        if placed < parts && acc >= target && i > *bounds.last().unwrap() {
            bounds.push(i);
            placed += 1;
        }
        acc += w;
    }
    while bounds.len() < parts {
        // Degenerate tails (fewer items than parts, or all weight up
        // front): pad with empty ranges at the end.
        bounds.push(n);
    }
    bounds.push(n);
    debug_assert_eq!(bounds.len(), parts + 1);
    debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    bounds
}

/// Derives a grid from the budget when none was forced: the smallest split
/// count `s` (same along all three dimensions) for which roughly four
/// average-sized input tiles fit the budget, clamped to `[1, MAX_SPLITS]`
/// and to the matrix dimensions.
fn derive_grid<TA: BinaryScalar, TB: BinaryScalar>(
    a: &Csr<TA>,
    b: &Csr<TB>,
    cfg: &TiledConfig,
) -> (usize, usize, usize) {
    if let Some(grid) = cfg.grid {
        return grid;
    }
    let total = tile_bytes(a) + tile_bytes(b);
    // With s splits per dimension each operand yields s² tiles averaging
    // total/(2s²) bytes; asking for 4 resident tiles within the budget
    // gives s ≈ sqrt(2 · total / budget).
    let ratio = (2.0 * total as f64 / cfg.budget_bytes as f64).max(1.0);
    let s = (ratio.sqrt().ceil() as usize).clamp(1, MAX_SPLITS);
    (
        s.min(a.nrows().max(1)),
        s.min(a.ncols().max(1)),
        s.min(b.ncols().max(1)),
    )
}

// ---------------------------------------------------------------------------
// Hierarchical-PB accumulation
// ---------------------------------------------------------------------------

/// Merges the partial products of one output tile, visited in ascending
/// `k`, with the PB pipeline's own back half.  Row-range bins are sized
/// from the partials' `rowptr`s; then, bins in parallel, each bin is filled
/// with its rows' tuples, stably LSD-sorted ([`sort::sort_slice_with`]) and
/// compressed ([`compress::compress_slice`]) while it is in cache, and
/// [`assemble::assemble`] writes the tile.
///
/// The sums are bit-identical whatever the pool's thread count: equal
/// `(row, col)` keys enter a bin in ascending `k`, the LSD sort keeps that
/// order and the compress folds left to right.  The merge keeps its own
/// per-bin loop instead of calling `sort::sort_bins` and
/// `compress::compress_bins` because it fills, sorts and compresses each
/// bin in one pass while the bin is in cache.
fn accumulate_partials<S: Semiring>(
    tile_rows: usize,
    tile_cols: usize,
    mut partials: Vec<Csr<S::Elem>>,
    isa: Isa,
    merged_tuples: &mut u64,
) -> Csr<S::Elem> {
    let total: usize = partials.iter().map(Csr::nnz).sum();
    *merged_tuples += total as u64;
    match partials.len() {
        0 => return Csr::empty(tile_rows, tile_cols),
        1 => return partials.pop().expect("exactly one partial"),
        _ => {}
    }

    let layout = BinLayout::new(tile_rows, tile_cols, total / ACC_TUPLES_PER_BIN + 1);
    let nbins = layout.nbins();
    let bin_rows = |b: usize| {
        let r0 = layout.bin_row_start(b).min(tile_rows);
        r0..r0 + layout.bin_row_count(b)
    };
    let mut bin_offsets = Vec::with_capacity(nbins + 1);
    bin_offsets.push(0usize);
    for b in 0..nbins {
        let rows = bin_rows(b);
        let len: usize = partials
            .iter()
            .map(|p| p.rowptr()[rows.end] - p.rowptr()[rows.start])
            .sum();
        bin_offsets.push(bin_offsets[b] + len);
    }

    let key_bytes = layout.key_bytes() as usize;
    let zero = Entry {
        key: 0,
        val: S::zero(),
    };
    let mut entries = vec![zero; total];
    let compressed_len: Vec<usize> = carve(&mut entries, &bin_offsets)
        .into_par_iter()
        .enumerate()
        .map(|(b, seg)| {
            let mut n = 0;
            for part in &partials {
                for row in bin_rows(b) {
                    let (cols, vals) = part.row(row);
                    let row_key = layout.pack_row(row as Index);
                    let dst = &mut seg[n..n + cols.len()];
                    for ((slot, &c), &v) in dst.iter_mut().zip(cols).zip(vals) {
                        *slot = Entry {
                            key: row_key | c as u64,
                            val: v,
                        };
                    }
                    n += cols.len();
                }
            }
            debug_assert_eq!(n, seg.len(), "bin {b} was sized from the rowptrs");
            sort::sort_slice_with(seg, key_bytes, isa);
            compress::compress_slice::<S>(seg)
        })
        .collect();
    drop(partials);

    let tuples = BinnedTuples {
        entries,
        bin_offsets,
        compressed_len,
        layout,
    };
    assemble::assemble(&tuples, &StatsCollector::new())
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// The tiled multiply driver shared by [`SpGemm::multiply_tiled`] and the
/// masked variant.  `mask`, when present, is cut along the same output-tile
/// boundaries and applied per accumulated tile
/// (`(A·B) ∘ pattern(mask)` — identical semantics to the resident
/// [`Masked`](crate::engine::Masked) funnel).
pub(crate) fn multiply_tiled_impl<S, M>(
    engine: &SpGemm,
    a: &Csr<S::Elem>,
    b: &Csr<S::Elem>,
    mask: Option<&Csr<M>>,
    cfg: &TiledConfig,
) -> Result<(Csr<S::Elem>, TiledReport), PbError>
where
    S: Semiring,
    S::Elem: Default + BinaryScalar,
    M: Scalar,
{
    let _span = trace::span(SpanName::TiledMultiply);
    if a.ncols() != b.nrows() {
        return Err(PbError::Matrix(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "multiply_tiled",
        }));
    }
    if let Some(m) = mask {
        if m.shape() != (a.nrows(), b.ncols()) {
            return Err(PbError::Matrix(SparseError::ShapeMismatch {
                left: m.shape(),
                right: (a.nrows(), b.ncols()),
                op: "multiply_tiled mask",
            }));
        }
    }

    let grid = derive_grid(a, b, cfg);
    let (p, q, r) = grid;
    let mut report = TiledReport {
        grid,
        budget_bytes: cfg.budget_bytes,
        ..TiledReport::default()
    };

    // The per-tile working set leases from one Workspace arena: reuse the
    // engine's own if it carries one, otherwise attach a private one for
    // the duration of this multiply.
    let tile_engine = if engine.workspace_handle().is_some() {
        engine.clone()
    } else {
        engine.clone().with_iteration_workspace()
    };

    let mut store: TileStore<S::Elem> = TileStore::new(cfg.budget_bytes, cfg.scratch_dir.clone());

    // Partition: flop-balanced cuts, tiles admitted to the budgeted store.
    let (row_bounds, _inner_bounds, col_bounds) = {
        let _span = trace::span(SpanName::TiledPartition);
        let bounds = boundaries(a, b, grid);
        for i in 0..p {
            for k in 0..q {
                let tile = extract_block(
                    a,
                    bounds.0[i],
                    bounds.0[i + 1],
                    bounds.1[k],
                    bounds.1[k + 1],
                );
                store.insert(
                    TileKey {
                        kind: 0,
                        i: i as u32,
                        j: k as u32,
                    },
                    tile,
                )?;
            }
        }
        for k in 0..q {
            for j in 0..r {
                let tile = extract_block(
                    b,
                    bounds.1[k],
                    bounds.1[k + 1],
                    bounds.2[j],
                    bounds.2[j + 1],
                );
                store.insert(
                    TileKey {
                        kind: 1,
                        i: k as u32,
                        j: j as u32,
                    },
                    tile,
                )?;
            }
        }
        bounds
    };

    // Compute: every output tile is the hierarchical-PB accumulation of its
    // q partial products, visited in ascending k.
    let isa = engine.pb_config().resolve_simd();
    let mut nnz_c = 0usize;
    for i in 0..p {
        let tile_rows = row_bounds[i + 1] - row_bounds[i];
        for j in 0..r {
            let tile_cols = col_bounds[j + 1] - col_bounds[j];
            let mut partials: Vec<Csr<S::Elem>> = Vec::with_capacity(q);
            for k in 0..q {
                let a_tile = store.fetch(TileKey {
                    kind: 0,
                    i: i as u32,
                    j: k as u32,
                })?;
                let b_tile = store.fetch(TileKey {
                    kind: 1,
                    i: k as u32,
                    j: j as u32,
                })?;
                if a_tile.nnz() == 0 || b_tile.nnz() == 0 {
                    continue;
                }
                let _span = trace::span(SpanName::TiledTileMultiply);
                let (c_part, profile) = tile_engine.multiply_with_profile::<S>(&a_tile, &b_tile);
                report.tiles_processed += 1;
                report.stats.bytes_allocated += profile.stats.bytes_allocated;
                report.stats.bytes_reused += profile.stats.bytes_reused;
                report.stats.workspace_hits += profile.stats.workspace_hits;
                report.stats.huge_page_bytes += profile.stats.huge_page_bytes;
                report.stats.flushes += profile.stats.flushes;
                report.stats.flushed_tuples += profile.stats.flushed_tuples;
                if c_part.nnz() > 0 {
                    partials.push(c_part);
                }
            }
            let acc = {
                let _span = trace::span(SpanName::TiledAccumulate);
                let acc = accumulate_partials::<S>(
                    tile_rows,
                    tile_cols,
                    partials,
                    isa,
                    &mut report.accumulated_tuples,
                );
                match mask {
                    None => acc,
                    Some(m) => {
                        let mask_tile = extract_block(
                            m,
                            row_bounds[i],
                            row_bounds[i + 1],
                            col_bounds[j],
                            col_bounds[j + 1],
                        );
                        mask_by_pattern(&acc, &mask_tile)
                    }
                }
            };
            nnz_c += acc.nnz();
            store.insert(
                TileKey {
                    kind: 2,
                    i: i as u32,
                    j: j as u32,
                },
                acc,
            )?;
        }
    }

    // Assemble: row stripes in order; each stripe's tiles cover ascending
    // disjoint column ranges, so rows concatenate with a column offset.
    let c = {
        let _span = trace::span(SpanName::TiledAssemble);
        let mut rowptr = Vec::with_capacity(a.nrows() + 1);
        rowptr.push(0usize);
        let mut colidx: Vec<Index> = Vec::with_capacity(nnz_c);
        let mut values: Vec<S::Elem> = Vec::with_capacity(nnz_c);
        for i in 0..p {
            let tiles: Vec<Arc<Csr<S::Elem>>> = (0..r)
                .map(|j| {
                    store.fetch(TileKey {
                        kind: 2,
                        i: i as u32,
                        j: j as u32,
                    })
                })
                .collect::<Result<_, _>>()?;
            for local_row in 0..(row_bounds[i + 1] - row_bounds[i]) {
                for (j, tile) in tiles.iter().enumerate() {
                    let offset = col_bounds[j] as Index;
                    let (cols, vals) = tile.row(local_row);
                    colidx.extend(cols.iter().map(|&c| c + offset));
                    values.extend_from_slice(vals);
                }
                rowptr.push(colidx.len());
            }
        }
        Csr::from_parts_unchecked(a.nrows(), b.ncols(), rowptr, colidx, values)
    };

    report.spill_bytes = store.spill_bytes;
    report.spilled_tiles = store.spilled_tiles;
    report.spill_fetches = store.spill_fetches;
    report.resident_high_water = store.high_water;
    report.max_tile_bytes = store.max_tile_bytes;
    report.stats.ooc_tiles = report.tiles_processed;
    report.stats.ooc_spill_bytes = report.spill_bytes;
    report.stats.ooc_resident_high_water = report.resident_high_water;
    Ok((c, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_sparse::PlusTimes;

    fn unit_matrix(n: usize, seed: u64) -> Csr<f64> {
        // A small deterministic pattern with ~4 entries per row.
        let mut entries = Vec::new();
        let mut state = seed | 1;
        for i in 0..n {
            for _ in 0..4 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % n;
                entries.push((i, j, 1.0));
            }
        }
        pb_sparse::Coo::from_entries(n, n, entries)
            .unwrap()
            .to_csr()
    }

    #[test]
    fn tiled_matches_resident_on_every_grid() {
        let a = unit_matrix(200, 7);
        let engine = SpGemm::pb();
        let resident = engine.multiply(&a, &a);
        for grid in [(1, 1, 1), (2, 2, 2), (4, 1, 3), (3, 5, 2)] {
            let cfg = TiledConfig::default().with_grid(grid.0, grid.1, grid.2);
            let (tiled, report) = engine.multiply_tiled(&a, &a, &cfg).unwrap();
            assert_eq!(tiled.rowptr(), resident.rowptr(), "grid {grid:?}");
            assert_eq!(tiled.colidx(), resident.colidx(), "grid {grid:?}");
            assert_eq!(tiled.values(), resident.values(), "grid {grid:?}");
            assert!(report.within_budget_slack());
        }
    }

    #[test]
    fn tiny_budget_forces_spills_and_honours_slack() {
        let a = unit_matrix(300, 3);
        let engine = SpGemm::pb();
        let resident = engine.multiply(&a, &a);
        // A budget far below one operand's size must spill and still agree.
        let cfg = TiledConfig::new(4 * 1024).with_grid(4, 4, 4);
        let (tiled, report) = engine.multiply_tiled(&a, &a, &cfg).unwrap();
        assert_eq!(tiled.colidx(), resident.colidx());
        assert_eq!(tiled.values(), resident.values());
        assert!(report.spill_bytes > 0, "expected spills: {report:?}");
        assert!(report.spill_fetches > 0);
        assert!(report.within_budget_slack(), "{report:?}");
    }

    #[test]
    fn masked_tiled_matches_masked_resident() {
        let a = unit_matrix(150, 11);
        let engine = SpGemm::pb();
        let resident = engine.mask(&a).multiply(&a, &a);
        let cfg = TiledConfig::default().with_grid(3, 2, 3);
        let (tiled, _) = engine.mask(&a).multiply_tiled(&a, &a, &cfg).unwrap();
        assert_eq!(tiled.rowptr(), resident.rowptr());
        assert_eq!(tiled.colidx(), resident.colidx());
        assert_eq!(tiled.values(), resident.values());
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let a = unit_matrix(32, 1);
        let b = unit_matrix(16, 1);
        let err = SpGemm::pb()
            .multiply_tiled(&a, &b, &TiledConfig::default())
            .unwrap_err();
        assert!(matches!(
            err,
            PbError::Matrix(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn env_budget_parses_and_rejects() {
        // from_env reads the real environment; only exercise the parser via
        // a config round-trip here (the env-dependent path is covered by
        // the CLI tests, which own their process environment).
        let cfg = TiledConfig::default().with_budget_mb(3);
        assert_eq!(cfg.budget_bytes(), 3 * 1024 * 1024);
        assert_eq!(TiledConfig::new(0).budget_bytes(), 1);
    }

    #[test]
    fn accumulation_is_deterministic() {
        let a = unit_matrix(120, 9);
        let engine = SpGemm::pb();
        let cfg = TiledConfig::new(8 * 1024).with_grid(3, 3, 3);
        let (first, _) = engine.multiply_tiled(&a, &a, &cfg).unwrap();
        for _ in 0..3 {
            let (again, _) = engine.multiply_tiled(&a, &a, &cfg).unwrap();
            let bits =
                |m: &Csr<f64>| -> Vec<u64> { m.values().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(again.rowptr(), first.rowptr());
            assert_eq!(again.colidx(), first.colidx());
            assert_eq!(bits(&again), bits(&first));
        }
    }

    /// `parts` random `rows × cols` partials; each keeps a column with
    /// probability 5/8.  Values have random signs and magnitudes from 1e-8
    /// to 1e8, so a sum of colliding entries depends on its order.
    fn random_partials(rows: usize, cols: usize, parts: usize, seed: u64) -> Vec<Csr<f64>> {
        let mut rng = pb_gen::Xoshiro256pp::new(seed);
        (0..parts)
            .map(|_| {
                let mut rowptr = vec![0usize];
                let (mut colidx, mut values) = (Vec::new(), Vec::new());
                for _ in 0..rows {
                    for c in 0..cols as Index {
                        if rng.gen_range(8) < 5 {
                            let magnitude = 10f64.powi(rng.gen_range(17) as i32 - 8);
                            let sign = if rng.gen_range(2) == 0 { 1.0 } else { -1.0 };
                            colidx.push(c);
                            values.push(sign * magnitude * (1.0 + rng.next_f64()));
                        }
                    }
                    rowptr.push(colidx.len());
                }
                Csr::from_parts(rows, cols, rowptr, colidx, values).unwrap()
            })
            .collect()
    }

    /// Every `(row, col)` sum folded left to right over `partials` in the
    /// given order, written independently of the merge.
    fn fold_sums<'a>(
        partials: impl Iterator<Item = &'a Csr<f64>>,
    ) -> std::collections::BTreeMap<(usize, Index), f64> {
        let mut sums = std::collections::BTreeMap::new();
        for part in partials {
            for row in 0..part.nrows() {
                let (cols, vals) = part.row(row);
                for (&c, &v) in cols.iter().zip(vals) {
                    sums.entry((row, c))
                        .and_modify(|s: &mut f64| *s += v)
                        .or_insert(v);
                }
            }
        }
        sums
    }

    #[test]
    fn merge_folds_in_ascending_k_on_every_pool() {
        // 2000 rows: 8 bins, more than any pool below has threads.  2 rows
        // and 100 000 tuples: 2 bins of about 50 000 >= 16 384 tuples,
        // fewer bins than the 4-thread pool has threads — a shape where a
        // schedule that splits one bin across threads could reorder equal
        // keys.
        for (rows, cols) in [(2000, 32), (2, 20_000)] {
            let partials = random_partials(rows, cols, 4, rows as u64);
            let total: usize = partials.iter().map(Csr::nnz).sum();
            let expected = fold_sums(partials.iter());
            assert_ne!(
                expected.values().map(|v| v.to_bits()).collect::<Vec<_>>(),
                fold_sums(partials.iter().rev())
                    .values()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "the sums must depend on the fold order"
            );
            let layout = BinLayout::new(rows, cols, total / ACC_TUPLES_PER_BIN + 1);
            if rows == 2 {
                assert_eq!(layout.nbins(), 2);
                assert!(total / 2 >= 16_384, "{total} tuples");
            } else {
                assert!(layout.nbins() > 4, "{} bins", layout.nbins());
            }
            for threads in [1, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for isa in Isa::supported() {
                    let mut merged = 0;
                    let c = pool.install(|| {
                        accumulate_partials::<PlusTimes<f64>>(
                            rows,
                            cols,
                            partials.clone(),
                            isa,
                            &mut merged,
                        )
                    });
                    let context = format!("{rows}x{cols}, {threads} threads, {isa}");
                    assert_eq!(merged, total as u64, "{context}");
                    assert_eq!(c.nnz(), expected.len(), "{context}");
                    let got = (0..rows).flat_map(|row| {
                        let (cols, vals) = c.row(row);
                        cols.iter().zip(vals).map(move |(&c, &v)| ((row, c), v))
                    });
                    for (((rc, v), (erc, ev)), t) in got.zip(&expected).zip(0..) {
                        assert_eq!(rc, *erc, "{context}: entry {t}");
                        assert_eq!(v.to_bits(), ev.to_bits(), "{context}: {rc:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn works_under_plus_times_u64() {
        let a = unit_matrix(64, 5).map_values(|v| v as u64);
        let engine = SpGemm::reference();
        let resident = engine.multiply(&a, &a);
        let cfg = TiledConfig::default().with_grid(2, 3, 2);
        let (tiled, _) = engine
            .multiply_tiled_with::<PlusTimes<u64>>(&a, &a, &cfg)
            .unwrap();
        assert_eq!(tiled.colidx(), resident.colidx());
        assert_eq!(tiled.values(), resident.values());
    }

    #[test]
    fn balanced_boundaries_split_even_weights_evenly() {
        let w = vec![1u64; 8];
        assert_eq!(balanced_boundaries(&w, 2), vec![0, 4, 8]);
        assert_eq!(balanced_boundaries(&w, 4), vec![0, 2, 4, 6, 8]);
        assert_eq!(balanced_boundaries(&w, 1), vec![0, 8]);
    }

    #[test]
    fn balanced_boundaries_track_skewed_weights() {
        // All the weight up front: the first range must stay narrow.
        let w = vec![100u64, 1, 1, 1, 1, 1, 1, 1];
        let b = balanced_boundaries(&w, 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 8);
        let first: u64 = w[b[0]..b[1]].iter().sum();
        let second: u64 = w[b[1]..b[2]].iter().sum();
        // The heavy item cannot be split, but nothing extra piles on top.
        assert_eq!(first, 100);
        assert_eq!(second, 7);
    }

    #[test]
    fn balanced_boundaries_degenerate_inputs() {
        assert_eq!(balanced_boundaries(&[], 3), vec![0, 0, 0, 0]);
        assert_eq!(balanced_boundaries(&[5], 3), vec![0, 1, 1, 1]);
        assert_eq!(balanced_boundaries(&[0, 0, 0], 2), vec![0, 1, 3]);
        // parts = 0 clamps to one range.
        assert_eq!(balanced_boundaries(&[1, 2], 0), vec![0, 2]);
    }

    #[test]
    fn balanced_boundaries_cover_every_item_exactly_once() {
        let w: Vec<u64> = (0..97).map(|i| (i * 37 % 19) as u64).collect();
        for parts in [1usize, 2, 3, 5, 8] {
            let b = balanced_boundaries(&w, parts);
            assert_eq!(b.len(), parts + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), w.len());
            assert!(b.windows(2).all(|x| x[0] <= x[1]));
            let covered: u64 = b
                .windows(2)
                .map(|x| w[x[0]..x[1]].iter().sum::<u64>())
                .sum();
            assert_eq!(covered, w.iter().sum::<u64>());
        }
    }
}
