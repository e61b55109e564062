//! Persistent workspace for repeated multiplies.
//!
//! PB-SpGEMM is bandwidth-bound, and its flagship applications — Markov
//! clustering's repeated `M·M` iterations, masked graph kernels, any service
//! multiplying many matrices of similar shape back-to-back — pay the same
//! allocation bill on every call: the expand phase's global tuple buffer
//! (`flop` tuples), the LSD radix sort's scratch, and the per-bin /
//! per-row staging vectors are all allocated from the heap, first-touched by
//! whichever worker happens to run, and freed again a few milliseconds
//! later.  A [`Workspace`] turns that steady-state traffic into zero: it
//! owns the buffers across multiplies, sized high-water-mark style, so a
//! repeat of a similar shape reuses every byte instead of re-allocating it.
//!
//! # What is pooled
//!
//! | buffer | phase | size | notes |
//! |---|---|---|---|
//! | tuple buffer | expand | `flop` entries | becomes [`BinnedTuples::entries`] |
//! | sort scratch | sort | `flop` entries | carved at the bin offsets, see below |
//! | bin offsets | expand | `nbins + 1` words | becomes [`BinnedTuples::bin_offsets`] |
//! | compressed lengths | expand | `nbins` words | becomes [`BinnedTuples::compressed_len`] |
//! | row counts | assemble | `nrows` words | pass-1 staging, recycled after the prefix sum |
//!
//! The CSR output arrays (`rowptr`/`colidx`/`values`) are *returned to the
//! caller* inside the product and therefore cannot be pooled.
//!
//! # Transparent huge pages
//!
//! The large buffers a multiply allocates and first-touches on every call
//! without a warm workspace are advised `MADV_HUGEPAGE` before their first
//! write (see [`advise_huge_pages`](pb_sparse::mmapio::advise_huge_pages)):
//!
//! | buffer | advised | where |
//! |---|---|---|
//! | tuple buffer | when it grows | [`WorkspaceLease::take_entries_uninit`] |
//! | CSR `colidx`/`values` | every multiply (they leave with the product) | [`assemble`](crate::assemble) |
//! | sort scratch | never: pooled only, so its first touch and free are paid once | — |
//! | bin/row staging | never: far below the floor | — |
//!
//! A tuple buffer that workspace decay re-allocates smaller stays on
//! 4 KiB pages: it is first-touched once and then recycled.
//!
//! * **Floor.**  Ranges under 8 MiB stay on 4 KiB pages, and only the
//!   2 MiB-aligned interior of a buffer is advised, so small multiplies —
//!   the serve path's and the tiled path's — run exactly as before.
//! * **Host modes.**  `/sys/kernel/mm/transparent_hugepage/enabled` stays
//!   the only control: `madvise` honours the advice, `always` gives huge
//!   pages without it, and `never` turns it off host-wide.  With
//!   `defrag` set to `madvise` (or `always`) a fault in an advised range
//!   may compact memory synchronously when the host is fragmented, so a
//!   first touch can occasionally stall instead of falling back to
//!   4 KiB pages at once.
//! * **Telemetry.**  The accepted bytes land in
//!   [`PhaseStats::huge_page_bytes`](crate::profile::PhaseStats::huge_page_bytes);
//!   a recycled buffer keeps its earlier advice and is not counted again.
//!
//! # Sort scratch
//!
//! The LSD radix sort ping-pongs each bin between its segment of the tuple
//! buffer and a scratch range of the same length.  The pooled scratch is
//! carved at the bins' own offsets, as the tuple buffer is: bin `b` sorts
//! into `scratch[off[b]..off[b + 1]]`.  The ranges are disjoint by
//! construction and every bin has one, whichever worker sorts it, so a
//! `flop`-entry scratch always suffices.
//!
//! A multiply without a workspace keeps a per-bin heap scratch instead
//! (see [`crate::sort`]): zero-filling a flop-sized buffer up front pays
//! only when the buffer is reused, and on a throwaway buffer it would
//! roughly double the sort phase's memory traffic.
//!
//! # Concurrency
//!
//! A `Workspace` is shared behind an [`Arc`] (a [`PbConfig`] clone shares
//! the handle).  One multiply checks the pooled buffers out, works on them
//! exclusively, and checks them back in; a *concurrent* multiply through
//! another clone finds the slot empty and falls back to fresh allocation
//! for that call (counted as a bypass) — correctness never depends on the
//! pool, only the amortisation does.
//!
//! # Telemetry
//!
//! Every multiply reports `bytes_allocated` / `bytes_reused` /
//! `workspace_hits` in its [`PhaseStats`](crate::profile::PhaseStats), and
//! the workspace accumulates the same counters across its lifetime
//! ([`Workspace::total_bytes_reused`] etc.), so the amortisation is
//! measured, not assumed: a steady-state repeat of the same shape shows
//! `bytes_allocated == 0` with every acquisition a hit.
//!
//! # Decay
//!
//! High-water sizing alone is a one-way ratchet: one giant multiply pins
//! the peak footprint forever, which is fine for a single MCL run and a
//! slow memory leak in a resident service holding an engine (and so a
//! workspace) per catalog entry.  The workspace therefore *decays*:
//! after [`DECAY_AFTER_LOW_LEASES`] consecutive check-ins whose multiply
//! used less than **half** of the pooled capacity (entries + sort scratch,
//! measured in bytes), the two big buffers step down to half their
//! capacity — never below the largest use observed in the current
//! low-usage window, so the very next repeat still fits without
//! re-allocating.  Every freed byte is counted in [`Workspace::total_bytes_released`] (with the
//! shrink events in [`Workspace::decay_events`]), so bounded footprint is
//! as measurable as zero-allocation steady state.
//!
//! [`BinnedTuples::entries`]: crate::bins::BinnedTuples::entries
//! [`BinnedTuples::bin_offsets`]: crate::bins::BinnedTuples::bin_offsets
//! [`BinnedTuples::compressed_len`]: crate::bins::BinnedTuples::compressed_len
//! [`PbConfig`]: crate::config::PbConfig

use std::any::Any;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rayon::prelude::*;

use crate::bins::{BinnedTuples, Entry};
use crate::profile::StatsCollector;

/// A reusable arena of PB-SpGEMM working memory, shared across multiplies.
///
/// Create one with [`Workspace::new`], wrap it in an [`Arc`] and attach it
/// to a configuration with
/// [`PbConfig::with_workspace`](crate::config::PbConfig::with_workspace)
/// (or via [`SpGemm::workspace`](crate::SpGemm::workspace));
/// every profiled or unprofiled multiply through that configuration then
/// draws its expand buffer, sort scratch and staging vectors from the
/// workspace instead of the heap.  The buffers are type-specialised to the
/// value type of the first multiply; multiplying a different element type
/// through the same workspace simply rebuilds them (counted as allocation).
pub struct Workspace {
    /// The pooled buffers of the last finished multiply, type-erased so one
    /// `Workspace` serves any value type.
    slot: Mutex<Slot>,
    bytes_allocated: AtomicU64,
    bytes_reused: AtomicU64,
    hits: AtomicU64,
    leases: AtomicU64,
    bypasses: AtomicU64,
    bytes_released: AtomicU64,
    decay_events: AtomicU64,
    pool_bytes: AtomicU64,
}

/// Consecutive low-usage (< half capacity) check-ins before the pooled
/// buffers step down to half their capacity (one step halves, and a single
/// high-usage multiply resets the streak).
pub const DECAY_AFTER_LOW_LEASES: u64 = 4;

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("bytes_allocated", &self.total_bytes_allocated())
            .field("bytes_reused", &self.total_bytes_reused())
            .field("hits", &self.total_hits())
            .field("leases", &self.leases())
            .field("bypasses", &self.bypasses())
            .finish()
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Check-out state of the workspace's single buffer slot.
#[derive(Default)]
struct Slot {
    /// Whether a multiply currently holds the buffers.
    checked_out: bool,
    /// The pooled buffers (`None` before the first multiply finished, or
    /// while they are checked out).
    pool: Option<Box<dyn Any + Send>>,
    /// Consecutive check-ins that used less than half of the pooled
    /// capacity (the decay streak).
    low_streak: u64,
    /// Largest entries use (in entries) seen in the current streak window —
    /// the decay floor, so a shrink never evicts capacity the ongoing
    /// traffic still touches.
    peak_entries_used: usize,
    /// Largest sort-scratch use (in entries) seen in the current window.
    peak_scratch_used: usize,
}

impl Slot {
    fn reset_decay(&mut self) {
        self.low_streak = 0;
        self.peak_entries_used = 0;
        self.peak_scratch_used = 0;
    }
}

/// How much of the pooled capacity the finishing multiply actually used,
/// reported by [`WorkspaceLease::release`] so the decay policy can compare
/// use against capacity.
#[derive(Debug, Clone, Copy, Default)]
struct Usage {
    /// Tuples written into the expand buffer (== this multiply's flop).
    entries_used: usize,
    /// Sort-scratch entries requested via `prepare_scratch` (0 when the
    /// sort needed no scratch).
    scratch_used: usize,
}

impl Workspace {
    /// Creates an empty workspace; the first multiply through it populates
    /// the buffers (all of that multiply's traffic counts as allocated).
    pub fn new() -> Self {
        Workspace {
            slot: Mutex::new(Slot::default()),
            bytes_allocated: AtomicU64::new(0),
            bytes_reused: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            leases: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            bytes_released: AtomicU64::new(0),
            decay_events: AtomicU64::new(0),
            pool_bytes: AtomicU64::new(0),
        }
    }

    /// Total bytes of workspace-managed buffers newly allocated (or grown)
    /// across all multiplies through this workspace.
    pub fn total_bytes_allocated(&self) -> u64 {
        self.bytes_allocated.load(Ordering::Relaxed)
    }

    /// Total bytes served from recycled buffers without touching the heap.
    pub fn total_bytes_reused(&self) -> u64 {
        self.bytes_reused.load(Ordering::Relaxed)
    }

    /// Buffer acquisitions served entirely from recycled capacity.
    pub fn total_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Multiplies that checked the pooled buffers out of this workspace.
    pub fn leases(&self) -> u64 {
        self.leases.load(Ordering::Relaxed)
    }

    /// Multiplies that found the buffers checked out by a concurrent
    /// multiply and fell back to fresh allocation for that call.
    pub fn bypasses(&self) -> u64 {
        self.bypasses.load(Ordering::Relaxed)
    }

    /// Total bytes of pooled capacity returned to the allocator by the
    /// decay policy (see the module docs) across this workspace's lifetime.
    pub fn total_bytes_released(&self) -> u64 {
        self.bytes_released.load(Ordering::Relaxed)
    }

    /// Number of decay steps (capacity halvings) the workspace has applied.
    pub fn decay_events(&self) -> u64 {
        self.decay_events.load(Ordering::Relaxed)
    }

    /// Bytes of pooled capacity currently parked in this workspace's slot
    /// (recomputed at every check-in, after the decay policy ran).
    ///
    /// This is the *per-workspace* resident figure: the decay policy bounds
    /// it per arena, while the out-of-core tile budget
    /// ([`tiled`](crate::tiled)) bounds a *per-multiply* tile cache — two
    /// independent knobs.  The serve metrics sum this across the catalog and
    /// add the catalog's matrix bytes to expose the combined resident
    /// high-water of the process.
    pub fn resident_bytes(&self) -> u64 {
        self.pool_bytes.load(Ordering::Relaxed)
    }

    /// Checks the pooled buffers out.  `None` means the slot is busy — a
    /// concurrent multiply holds the buffers — and the caller should run on
    /// fresh throwaway buffers instead (a *bypass*).  An idle slot always
    /// yields a pool, empty on the first use or after a value-type change
    /// (the old buffers cannot be reinterpreted safely).
    fn checkout<V: Send + 'static>(&self) -> Option<PoolOf<V>> {
        let mut slot = self.slot.lock().expect("workspace lock poisoned");
        if slot.checked_out {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            crate::trace::instant(crate::trace::SpanName::WorkspaceBypass, 0);
            return None;
        }
        slot.checked_out = true;
        self.leases.fetch_add(1, Ordering::Relaxed);
        let (pool, reused) = match slot.pool.take().map(|boxed| boxed.downcast::<PoolOf<V>>()) {
            Some(Ok(pool)) => (*pool, 1u64),
            Some(Err(_)) | None => {
                // First use or a value-type change: the decay window is
                // about the *new* buffers, so any old streak is stale.
                slot.reset_decay();
                (PoolOf::empty(), 0)
            }
        };
        crate::trace::instant(crate::trace::SpanName::WorkspaceCheckout, reused);
        Some(pool)
    }

    /// Returns the buffers after a multiply, applies the decay policy
    /// against the reported `usage`, and frees the slot.
    fn checkin<V: Send + 'static>(&self, mut pool: PoolOf<V>, usage: Usage) {
        let mut slot = self.slot.lock().expect("workspace lock poisoned");
        self.decay(&mut slot, &mut pool, usage);
        let entry_bytes = std::mem::size_of::<Entry<V>>();
        let capacity = (pool.entries.capacity() + pool.scratch.len()) * entry_bytes;
        self.pool_bytes.store(capacity as u64, Ordering::Relaxed);
        slot.checked_out = false;
        slot.pool = Some(Box::new(pool));
        crate::trace::instant(crate::trace::SpanName::WorkspaceCheckin, 0);
    }

    /// One observation of the decay policy: a check-in that used less than
    /// half of the pooled (entries + scratch) capacity extends the low
    /// streak; [`DECAY_AFTER_LOW_LEASES`] of those in a row halve both big
    /// buffers, floored at the window's peak use so the ongoing traffic
    /// pattern keeps fitting allocation-free.
    fn decay<V>(&self, slot: &mut Slot, pool: &mut PoolOf<V>, usage: Usage) {
        let entry_bytes = std::mem::size_of::<Entry<V>>();
        let cap_entries = pool.entries.capacity();
        let cap_scratch = pool.scratch.len();
        let used = (usage.entries_used + usage.scratch_used) * entry_bytes;
        let capacity = (cap_entries + cap_scratch) * entry_bytes;
        if capacity == 0 || used * 2 >= capacity {
            slot.reset_decay();
            return;
        }
        // Only low leases extend the window: the floor is the peak use of
        // the *sustained small* traffic, not of the burst that grew the
        // buffers in the first place.
        slot.peak_entries_used = slot.peak_entries_used.max(usage.entries_used);
        slot.peak_scratch_used = slot.peak_scratch_used.max(usage.scratch_used);
        slot.low_streak += 1;
        if slot.low_streak < DECAY_AFTER_LOW_LEASES {
            return;
        }
        // Step down: halve each buffer, never below the window's peak use.
        let mut released = 0usize;
        let new_entries = (cap_entries / 2).max(slot.peak_entries_used);
        if new_entries < cap_entries {
            released += (cap_entries - new_entries) * entry_bytes;
            // The buffer is empty between multiplies, so a shrink is a
            // plain re-allocation, never a copy.
            pool.entries = Vec::with_capacity(new_entries);
        }
        let new_scratch = (cap_scratch / 2).max(slot.peak_scratch_used);
        if new_scratch < cap_scratch {
            released += (cap_scratch - new_scratch) * entry_bytes;
            pool.scratch.truncate(new_scratch);
            pool.scratch.shrink_to_fit();
        }
        if released > 0 {
            self.bytes_released
                .fetch_add(released as u64, Ordering::Relaxed);
            self.decay_events.fetch_add(1, Ordering::Relaxed);
            crate::trace::instant(crate::trace::SpanName::WorkspaceDecay, released as u64);
        }
        slot.reset_decay();
    }

    /// Frees the slot without returning buffers (a multiply that panicked
    /// mid-pipeline; the buffers died with it, the workspace stays usable).
    fn abandon(&self) {
        self.slot
            .lock()
            .expect("workspace lock poisoned")
            .checked_out = false;
    }

    fn record(&self, allocated: u64, reused: u64, hit: bool) {
        if allocated > 0 {
            self.bytes_allocated.fetch_add(allocated, Ordering::Relaxed);
        }
        if reused > 0 {
            self.bytes_reused.fetch_add(reused, Ordering::Relaxed);
        }
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The type-specialised buffers of one workspace.
struct PoolOf<V> {
    /// Expand-phase global tuple buffer (capacity is the high-water flop).
    entries: Vec<Entry<V>>,
    /// Sort-phase scratch; `len()` is the high-water scratch size and every
    /// slot is initialised, so slices can be handed out safely.
    scratch: Vec<Entry<V>>,
    /// `bin_offsets` staging (`nbins + 1` words).
    bin_offsets: Vec<usize>,
    /// `compressed_len` staging (`nbins` words).
    compressed_len: Vec<usize>,
    /// Assemble pass-1 per-row counters (`nrows` words).
    row_counts: Vec<usize>,
}

impl<V> PoolOf<V> {
    fn empty() -> Self {
        PoolOf {
            entries: Vec::new(),
            scratch: Vec::new(),
            bin_offsets: Vec::new(),
            compressed_len: Vec::new(),
            row_counts: Vec::new(),
        }
    }
}

/// The exclusive working set of one multiply: buffers checked out of a
/// shared [`Workspace`] (or fresh, throwaway ones when no workspace is
/// configured — both paths run the *same* pipeline code, so reuse can never
/// change the product).
pub struct WorkspaceLease<V: Send + 'static> {
    pool: PoolOf<V>,
    /// The workspace the buffers must be returned to; `None` for fresh
    /// (no-workspace) and bypass leases, which just drop their buffers.
    origin: Option<Arc<Workspace>>,
    /// Sort-scratch entries this multiply asked for (decay telemetry).
    scratch_used: usize,
}

impl<V: Send + 'static> Drop for WorkspaceLease<V> {
    fn drop(&mut self) {
        // Reached without `release` only when the pipeline panicked: free
        // the slot so later multiplies lease instead of bypassing forever.
        if let Some(ws) = self.origin.take() {
            ws.abandon();
        }
    }
}

impl<V: Send + 'static> std::fmt::Debug for WorkspaceLease<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspaceLease")
            .field("pooled", &self.origin.is_some())
            .finish()
    }
}

/// Telemetry outcome of one buffer acquisition.
struct Acquire {
    allocated: u64,
    reused: u64,
    hit: bool,
}

impl<V: Copy + Send + Sync + 'static> WorkspaceLease<V> {
    /// Checks buffers out of `workspace`, or starts from empty throwaway
    /// buffers when none is configured (or a concurrent multiply holds the
    /// workspace's buffers — the bypass path).
    pub fn acquire(workspace: Option<Arc<Workspace>>) -> Self {
        match workspace {
            Some(ws) => match ws.checkout::<V>() {
                Some(pool) => WorkspaceLease {
                    pool,
                    origin: Some(ws),
                    scratch_used: 0,
                },
                None => WorkspaceLease {
                    pool: PoolOf::empty(),
                    origin: None,
                    scratch_used: 0,
                },
            },
            None => WorkspaceLease {
                pool: PoolOf::empty(),
                origin: None,
                scratch_used: 0,
            },
        }
    }

    fn record(&self, stats: &StatsCollector, a: Acquire) {
        stats.record_workspace(a.allocated, a.reused, a.hit);
        if let Some(ws) = &self.origin {
            ws.record(a.allocated, a.reused, a.hit);
        }
    }

    /// Whether this lease is backed by a [`Workspace`] (buffers persist
    /// across multiplies).  Fresh and bypass leases return `false`; the
    /// pipeline uses this to skip amortised-only work — notably the
    /// upfront zero-fill of the pooled sort scratch, which would be pure
    /// overhead on buffers that die with this one multiply.
    pub fn is_pooled(&self) -> bool {
        self.origin.is_some()
    }

    /// The expand phase's uninitialised global tuple buffer: length 0,
    /// capacity at least `flop` entries (recycled when the high-water mark
    /// allows, freshly allocated — and counted — otherwise).  A freshly
    /// allocated buffer is advised `MADV_HUGEPAGE` first (see the module
    /// docs).
    pub fn take_entries_uninit(
        &mut self,
        flop: usize,
        stats: &StatsCollector,
    ) -> Vec<MaybeUninit<Entry<V>>> {
        let v = self.take_entries_vec(flop, stats);
        debug_assert!(v.is_empty());
        // SAFETY: `Entry<V>` and `MaybeUninit<Entry<V>>` have identical
        // layout, and the vector is empty, so no element is reinterpreted.
        let mut v = std::mem::ManuallyDrop::new(v);
        unsafe {
            Vec::from_raw_parts(
                v.as_mut_ptr() as *mut MaybeUninit<Entry<V>>,
                0,
                v.capacity(),
            )
        }
    }

    /// The tuple buffer as a plain (empty, pre-reserved) vector: the
    /// recycling and accounting behind
    /// [`WorkspaceLease::take_entries_uninit`].
    fn take_entries_vec(&mut self, flop: usize, stats: &StatsCollector) -> Vec<Entry<V>> {
        let mut v = std::mem::take(&mut self.pool.entries);
        v.clear();
        let bytes = (flop * std::mem::size_of::<Entry<V>>()) as u64;
        if v.capacity() >= flop {
            self.record(
                stats,
                Acquire {
                    allocated: 0,
                    reused: bytes,
                    hit: true,
                },
            );
        } else {
            // Growing would memcpy nothing (the vector is empty) but still
            // re-allocates the whole buffer: count it all as allocated.
            v = Vec::with_capacity(flop);
            stats.record_huge_pages(advise_capacity(&v));
            self.record(
                stats,
                Acquire {
                    allocated: bytes,
                    reused: 0,
                    hit: false,
                },
            );
        }
        v
    }

    /// `bin_offsets` staging seeded from the symbolic phase's offsets.
    pub fn take_bin_offsets(&mut self, src: &[usize], stats: &StatsCollector) -> Vec<usize> {
        let mut v = std::mem::take(&mut self.pool.bin_offsets);
        self.record(stats, fill_usize(&mut v, src.len()));
        v.extend_from_slice(src);
        v
    }

    /// `compressed_len` staging filled from an iterator of per-bin lengths.
    pub fn take_compressed_len(
        &mut self,
        lens: impl ExactSizeIterator<Item = usize>,
        stats: &StatsCollector,
    ) -> Vec<usize> {
        let mut v = std::mem::take(&mut self.pool.compressed_len);
        self.record(stats, fill_usize(&mut v, lens.len()));
        v.extend(lens);
        v
    }

    /// Assemble pass-1 staging: an empty `Vec<usize>` with capacity for
    /// `nrows` counters (the assemble pass resizes and zeroes it).
    pub fn take_row_counts(&mut self, nrows: usize, stats: &StatsCollector) -> Vec<usize> {
        let mut v = std::mem::take(&mut self.pool.row_counts);
        self.record(stats, fill_usize(&mut v, nrows));
        v
    }

    /// Recycles the assemble staging after the prefix-sum pass consumed it.
    pub fn put_row_counts(&mut self, mut counts: Vec<usize>) {
        counts.clear();
        self.pool.row_counts = counts;
    }

    /// The sort scratch: `len` initialised entries, recycled when the pooled
    /// scratch is long enough and otherwise allocated anew and zero-filled
    /// with `zero` in parallel (counted).  The sort phase carves it at the
    /// bin offsets (see the module docs).  `len == 0` (sorts that need no
    /// scratch) reports no traffic.
    pub fn prepare_scratch(
        &mut self,
        len: usize,
        zero: Entry<V>,
        stats: &StatsCollector,
    ) -> &mut [Entry<V>] {
        if len > 0 {
            self.scratch_used = self.scratch_used.max(len);
            let bytes = (len * std::mem::size_of::<Entry<V>>()) as u64;
            let acquire = if self.pool.scratch.len() >= len {
                Acquire {
                    allocated: 0,
                    reused: bytes,
                    hit: true,
                }
            } else {
                // Growing in place would memcpy the stale prefix for
                // nothing; allocate anew instead.
                self.pool.scratch = alloc_scratch(len, zero);
                Acquire {
                    allocated: bytes,
                    reused: 0,
                    hit: false,
                }
            };
            self.record(stats, acquire);
        }
        &mut self.pool.scratch[..len]
    }

    /// Returns every buffer the pipeline threaded through [`BinnedTuples`]
    /// to the pool and checks the pool back into the originating workspace
    /// (fresh and bypass leases simply drop everything).
    pub fn release(mut self, tuples: BinnedTuples<V>) {
        let BinnedTuples {
            mut entries,
            mut bin_offsets,
            mut compressed_len,
            ..
        } = tuples;
        let usage = Usage {
            entries_used: entries.len(),
            scratch_used: self.scratch_used,
        };
        entries.clear();
        bin_offsets.clear();
        compressed_len.clear();
        self.pool.entries = entries;
        self.pool.bin_offsets = bin_offsets;
        self.pool.compressed_len = compressed_len;
        if let Some(ws) = self.origin.take() {
            ws.checkin(std::mem::replace(&mut self.pool, PoolOf::empty()), usage);
        }
    }
}

/// Advises the whole (still untouched) capacity of `v` `MADV_HUGEPAGE`;
/// returns the bytes the kernel accepted (0 under the 8 MiB floor).
pub(crate) fn advise_capacity<T>(v: &Vec<T>) -> usize {
    pb_sparse::mmapio::advise_huge_pages(
        v.as_ptr() as *const u8,
        v.capacity() * std::mem::size_of::<T>(),
    )
}

/// Clears `v` and ensures capacity for `needed` words, reporting the
/// acquisition telemetry.
fn fill_usize(v: &mut Vec<usize>, needed: usize) -> Acquire {
    v.clear();
    let bytes = (needed * std::mem::size_of::<usize>()) as u64;
    if v.capacity() >= needed {
        Acquire {
            allocated: 0,
            reused: bytes,
            hit: true,
        }
    } else {
        *v = Vec::with_capacity(needed);
        Acquire {
            allocated: bytes,
            reused: 0,
            hit: false,
        }
    }
}

/// `*mut` wrapper so disjoint slots of one buffer can be written from the
/// pool's threads (same discipline as the expand phase's `SharedBuf`).
struct SharedMut<T>(*mut T);
// SAFETY: the wrapper only carries the pointer to the pool's threads, and
// every write through it goes to a slot no other thread touches (see
// `alloc_scratch`); `T: Send` lets the written values cross threads.
unsafe impl<T: Send> Send for SharedMut<T> {}
unsafe impl<T: Send> Sync for SharedMut<T> {}

/// Allocates `len` scratch entries and zero-initialises them in parallel.
fn alloc_scratch<V: Copy + Send + Sync>(len: usize, zero: Entry<V>) -> Vec<Entry<V>> {
    let mut raw: Vec<MaybeUninit<Entry<V>>> = Vec::with_capacity(len);
    // SAFETY: MaybeUninit slots require no initialisation.
    unsafe { raw.set_len(len) };
    {
        let ptr = SharedMut(raw.as_mut_ptr());
        (0..len).into_par_iter().for_each(|i| {
            // Capture the Sync wrapper, not the bare pointer field (edition
            // 2021 disjoint capture would otherwise grab the non-Sync
            // `*mut` directly).
            let base = &ptr;
            // SAFETY: every index in 0..len is written exactly once — the
            // parallel iterator hands each index to one closure call — and
            // the buffer outlives the loop.
            unsafe { (*base.0.add(i)).write(zero) };
        });
    }
    // SAFETY: all `len` slots were initialised above; `MaybeUninit<Entry<V>>`
    // and `Entry<V>` have identical layout.
    unsafe {
        let mut raw = std::mem::ManuallyDrop::new(raw);
        Vec::from_raw_parts(raw.as_mut_ptr() as *mut Entry<V>, len, raw.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero() -> Entry<f64> {
        Entry { key: 0, val: 0.0 }
    }

    #[test]
    fn lease_reuses_buffers_and_counts_bytes() {
        let ws = Arc::new(Workspace::new());
        let stats = StatsCollector::new();

        // First multiply: everything allocates.
        let mut lease = WorkspaceLease::<f64>::acquire(Some(ws.clone()));
        let entries = lease.take_entries_vec(1000, &stats);
        assert!(entries.capacity() >= 1000);
        lease.prepare_scratch(500, zero(), &stats);
        let offsets = lease.take_bin_offsets(&[0, 10, 20], &stats);
        let lens = lease.take_compressed_len([10usize, 10].into_iter(), &stats);
        let counts = lease.take_row_counts(64, &stats);
        assert!(counts.capacity() >= 64);
        lease.put_row_counts(counts);
        let tuples = BinnedTuples {
            entries,
            bin_offsets: offsets,
            compressed_len: lens,
            layout: crate::bins::BinLayout::new(4, 4, 1),
        };
        lease.release(tuples);

        let first = stats.snapshot();
        assert!(first.bytes_allocated > 0);
        assert_eq!(ws.total_bytes_allocated(), first.bytes_allocated);
        assert_eq!(ws.leases(), 1, "an idle workspace always leases");
        assert_eq!(ws.bypasses(), 0);

        // Second multiply of the same sizes: zero allocation, all hits.
        let stats = StatsCollector::new();
        let mut lease = WorkspaceLease::<f64>::acquire(Some(ws.clone()));
        let entries = lease.take_entries_vec(1000, &stats);
        lease.prepare_scratch(500, zero(), &stats);
        let offsets = lease.take_bin_offsets(&[0, 10, 20], &stats);
        let lens = lease.take_compressed_len([10usize, 10].into_iter(), &stats);
        let counts = lease.take_row_counts(64, &stats);
        lease.put_row_counts(counts);
        let tuples = BinnedTuples {
            entries,
            bin_offsets: offsets,
            compressed_len: lens,
            layout: crate::bins::BinLayout::new(4, 4, 1),
        };
        lease.release(tuples);

        let second = stats.snapshot();
        assert_eq!(second.bytes_allocated, 0, "steady state allocates nothing");
        assert!(second.bytes_reused > 0);
        assert_eq!(second.workspace_hits, 5, "all five buffers hit");
        assert_eq!(ws.leases(), 2);
        assert_eq!(ws.total_hits(), 5);
    }

    #[test]
    fn concurrent_checkout_bypasses_and_abandon_frees_the_slot() {
        let ws = Arc::new(Workspace::new());
        let held = WorkspaceLease::<f64>::acquire(Some(ws.clone()));
        // While the first lease holds the slot, a second acquire bypasses.
        let bypass = WorkspaceLease::<f64>::acquire(Some(ws.clone()));
        assert!(bypass.origin.is_none());
        assert_eq!(ws.bypasses(), 1);
        drop(bypass);
        // Dropping the holder without release (a panicking multiply) frees
        // the slot for the next acquire.
        drop(held);
        let next = WorkspaceLease::<f64>::acquire(Some(ws.clone()));
        assert!(next.origin.is_some());
        assert_eq!(ws.leases(), 2);
    }

    #[test]
    fn value_type_change_rebuilds_the_pool() {
        let ws = Arc::new(Workspace::new());
        let stats = StatsCollector::new();
        let mut lease = WorkspaceLease::<f64>::acquire(Some(ws.clone()));
        let v = lease.take_entries_vec(100, &stats);
        let tuples = BinnedTuples {
            entries: v,
            bin_offsets: Vec::new(),
            compressed_len: Vec::new(),
            layout: crate::bins::BinLayout::new(4, 4, 1),
        };
        lease.release(tuples);

        // A bool-valued multiply cannot reuse f64 buffers: it rebuilds.
        let stats = StatsCollector::new();
        let mut lease = WorkspaceLease::<bool>::acquire(Some(ws.clone()));
        let v = lease.take_entries_vec(100, &stats);
        assert!(v.capacity() >= 100);
        let s = stats.snapshot();
        assert!(s.bytes_allocated > 0);
        assert_eq!(s.workspace_hits, 0);
    }

    #[test]
    fn missing_workspace_is_a_pure_fresh_path() {
        let stats = StatsCollector::new();
        let mut lease = WorkspaceLease::<f64>::acquire(None);
        let v = lease.take_entries_vec(256, &stats);
        assert!(v.capacity() >= 256);
        let s = stats.snapshot();
        assert_eq!(s.bytes_reused, 0);
        assert!(s.bytes_allocated > 0);
        assert_eq!(s.workspace_hits, 0);
    }

    /// Drives one synthetic multiply through the workspace: `flop` tuples
    /// in the expand buffer, `scratch` sort-scratch entries.
    fn synthetic_multiply(ws: &Arc<Workspace>, flop: usize, scratch: usize) -> crate::PhaseStats {
        let stats = StatsCollector::new();
        let mut lease = WorkspaceLease::<f64>::acquire(Some(ws.clone()));
        let mut entries = lease.take_entries_vec(flop, &stats);
        entries.resize(flop, zero());
        if scratch > 0 {
            lease.prepare_scratch(scratch, zero(), &stats);
        }
        let tuples = BinnedTuples {
            entries,
            bin_offsets: Vec::new(),
            compressed_len: Vec::new(),
            layout: crate::bins::BinLayout::new(4, 4, 1),
        };
        lease.release(tuples);
        stats.snapshot()
    }

    #[test]
    fn decay_shrinks_after_consecutive_low_leases() {
        let ws = Arc::new(Workspace::new());
        // One giant multiply pins the high-water mark...
        synthetic_multiply(&ws, 10_000, 10_000);
        assert_eq!(ws.decay_events(), 0);
        // ...then sustained small traffic uses < half of it.
        for i in 0..DECAY_AFTER_LOW_LEASES {
            assert_eq!(ws.decay_events(), 0, "no decay before the streak fills");
            let _ = synthetic_multiply(&ws, 1_000, 1_000);
            let _ = i;
        }
        assert_eq!(ws.decay_events(), 1, "streak of low leases steps down");
        let released = ws.total_bytes_released();
        // Both buffers halved: 5000 + 5000 entries freed.
        assert_eq!(
            released,
            (10_000 * std::mem::size_of::<Entry<f64>>()) as u64
        );
        // The floor keeps the ongoing small shape allocation-free.
        let s = synthetic_multiply(&ws, 1_000, 1_000);
        assert_eq!(
            s.bytes_allocated, 0,
            "decayed capacity still fits the traffic"
        );
        assert!(s.bytes_reused > 0);
    }

    #[test]
    fn high_usage_resets_the_decay_streak() {
        let ws = Arc::new(Workspace::new());
        synthetic_multiply(&ws, 8_000, 0);
        for _ in 0..DECAY_AFTER_LOW_LEASES - 1 {
            synthetic_multiply(&ws, 1_000, 0);
        }
        // A full-capacity multiply lands mid-streak: the streak restarts.
        synthetic_multiply(&ws, 8_000, 0);
        for _ in 0..DECAY_AFTER_LOW_LEASES - 1 {
            synthetic_multiply(&ws, 1_000, 0);
        }
        assert_eq!(ws.decay_events(), 0, "interrupted streak must not decay");
        synthetic_multiply(&ws, 1_000, 0);
        assert_eq!(ws.decay_events(), 1);
    }

    #[test]
    fn steady_same_size_traffic_never_decays() {
        let ws = Arc::new(Workspace::new());
        for _ in 0..4 * DECAY_AFTER_LOW_LEASES {
            synthetic_multiply(&ws, 4_096, 2_048);
        }
        assert_eq!(ws.decay_events(), 0);
        assert_eq!(ws.total_bytes_released(), 0);
    }

    #[test]
    fn decay_converges_to_the_working_set_and_stops() {
        let ws = Arc::new(Workspace::new());
        synthetic_multiply(&ws, 8_000, 0);
        // 3000-entry traffic: one step down (8000 -> 4000) makes usage
        // 6000/4000 ≥ half, so exactly one decay ever fires.
        for _ in 0..8 * DECAY_AFTER_LOW_LEASES {
            synthetic_multiply(&ws, 3_000, 0);
        }
        assert_eq!(ws.decay_events(), 1, "decay stops at the working set");
        assert_eq!(
            ws.total_bytes_released(),
            (4_000 * std::mem::size_of::<Entry<f64>>()) as u64
        );
        // And the post-decay steady state is still allocation-free.
        let s = synthetic_multiply(&ws, 3_000, 0);
        assert_eq!(s.bytes_allocated, 0);
    }

    #[test]
    fn workspace_debug_and_default() {
        let ws = Workspace::default();
        let dbg = format!("{ws:?}");
        assert!(dbg.contains("bytes_allocated"));
    }
}
