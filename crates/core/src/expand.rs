//! Expand phase with propagation blocking (lines 5–18 of Algorithm 2).
//!
//! Threads walk the outer products `A(:, i) × B(i, :)` in parallel.  Each
//! generated tuple is appended to a small *local bin* private to the thread;
//! when a local bin fills up, its contents are flushed to the corresponding
//! *global bin* in one contiguous write, so global-memory traffic happens in
//! multiples of whole cache lines — the propagation-blocking idea.
//!
//! The flush follows the paper's design: the symbolic phase has already
//! computed the exact number of tuples per global bin, so the global buffer
//! is allocated once, uninitialised, and every flush reserves a disjoint
//! range with a relaxed `fetch_add` and copies into it with
//! `ptr::copy_nonoverlapping`.  No locks, no initialisation, no
//! reallocation.
//!
//! # NUMA-domain partitioning
//!
//! On a multi-domain [`Symbolic`] (see [`crate::topology`]) the expand
//! phase reserves per **(bin, domain)** sub-segment: tuples produced
//! from domain `d`'s flop-balanced column range land in sub-segment `d` of
//! their bin, and the parallel loop's blocks are routed so domain `d`'s
//! pool workers claim domain `d`'s columns first (`with_domain_boundaries`)
//! — the flush `memcpy`s, the dominant memory traffic of the whole
//! algorithm, then write domain-local pages.  Cross-domain claims still
//! happen when one domain runs dry (work-stealing liveness), so every flush
//! is *counted* as local or remote against the flushing worker's own domain
//! id; [`PhaseStats`](crate::profile::PhaseStats::local_flush_fraction)
//! reports the measured fraction rather than asserting locality.  The
//! sub-segments of a bin are adjacent in fixed domain order, so the
//! downstream phases (and the assembled product) are bit-identical to the
//! single-domain schedule.
//!
//! # Transparent huge pages on the tuple buffer
//!
//! The global tuple buffer is `flop` entries — hundreds of MB on the
//! bandwidth-bound inputs — and the flushes are its first writes, so on
//! 4 KiB pages the expand phase pays one page fault per 4 KiB and the
//! caller pays a page-by-page `munmap` when a fresh buffer is freed.  A
//! single-domain run therefore asks for transparent huge pages on it (see
//! [`Workspace`](crate::Workspace)'s module docs).  **A multi-domain run
//! does not**: its (bin, domain) sub-segments are about `L2 / domains`
//! long, far below one 2 MiB page, so a huge page would hold several
//! domains' sub-segments and be placed wherever its first flush ran —
//! undoing the domain-local first touch described above.  The rule is
//! `tuple_buffer_huge_pages`.
//!
//! # Software prefetch on the flush copy
//!
//! The flush `memcpy` is the dominant write stream of the whole algorithm,
//! and its destination hops to a different global sub-segment on every
//! flush — a pattern the hardware prefetcher cannot learn.  On any
//! non-scalar [`Isa`](crate::simd::Isa) level (see
//! [`PbConfig::resolve_simd`]) the flush therefore issues one software
//! prefetch-for-write hint per destination cache line *before* the copy,
//! so the line fills overlap the copy instead of serialising it.  Safety:
//! the hinted addresses lie inside the reserved `[start, start + n)` range
//! the copy is about to write (in-bounds by the `SharedBuf` invariant), and
//! prefetch hints are architecturally defined never to fault in any case —
//! the pointers are computed with `wrapping_add` and carry no `unsafe`
//! obligations (see the safety argument in [`crate::simd`]).  Prefetched
//! flushes are counted into
//! [`PhaseStats::isa`](crate::profile::PhaseStats::isa) so telemetry proves
//! whether the hints were on.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use pb_sparse::semiring::Semiring;
use pb_sparse::{Csc, Csr};
use rayon::prelude::*;

use crate::bins::{BinnedTuples, Entry};
use crate::config::PbConfig;
use crate::profile::{StatsCollector, FLUSH_HIST_BUCKETS};
use crate::symbolic::Symbolic;
use crate::workspace::WorkspaceLease;

/// Whether the global tuple buffer of a multiply partitioned as `sym` asks
/// for transparent huge pages: only when the bins are not split into
/// per-domain sub-segments (see the module docs for why).
pub(crate) fn tuple_buffer_huge_pages(sym: &Symbolic) -> bool {
    sym.domains <= 1
}

/// Number of tuples a local bin of `local_bin_bytes` bytes holds, derived
/// from the actual `Entry<V>` size rather than any assumed tuple width.
///
/// When the byte budget covers at least one cache line
/// ([`CACHE_LINE_BYTES`](crate::config::CACHE_LINE_BYTES)), the capacity is
/// rounded *down* to a whole number of cache lines' worth of entries so
/// that every flush writes full lines — the point of propagation blocking.
/// Smaller budgets degrade gracefully to whatever fits (at least one tuple,
/// so the algorithm still works with absurdly small settings).
pub fn local_bin_capacity<V>(local_bin_bytes: usize) -> usize {
    let entry = std::mem::size_of::<Entry<V>>();
    let raw = (local_bin_bytes / entry).max(1);
    let per_line = (crate::config::CACHE_LINE_BYTES / entry).max(1);
    if raw >= per_line {
        raw - raw % per_line
    } else {
        raw
    }
}

/// Shared pointer to the uninitialised global tuple buffer.
///
/// Safety: every flush writes a range `[start, start + n)` obtained from a
/// `fetch_add(n)` on that bin's cursor, and the symbolic phase guarantees
/// that the total number of tuples produced for a bin equals the bin's
/// segment size, so (a) ranges handed to different flushes never overlap and
/// (b) no write ever leaves a bin's segment.  Every slot of the buffer is
/// therefore written exactly once before the buffer is read.
///
/// Under *real* concurrency (threads flushing the same bin simultaneously)
/// two further points make this sound:
///
/// * the reservation uses `Ordering::Relaxed`, which is sufficient because
///   a `fetch_add` is an atomic read-modify-write — two flushes can never
///   observe the same cursor value, so the reserved ranges are disjoint by
///   construction and no ordering between the *data* writes of different
///   threads is needed (they touch disjoint memory);
/// * the buffer is only read back after the parallel loop completes, and
///   the pool's task-completion handshake (a `Release` increment per block
///   joined by an `Acquire` read on the submitting thread) establishes a
///   happens-before edge from every flush to that read.
struct SharedBuf<V> {
    ptr: *mut MaybeUninit<Entry<V>>,
    len: usize,
}

unsafe impl<V: Send> Send for SharedBuf<V> {}
unsafe impl<V: Send> Sync for SharedBuf<V> {}

/// Thread-private local bins: a flat `nbins × capacity` tuple array plus a
/// fill level per bin (Fig. 5 of the paper).
///
/// On a multi-domain run the flush destination is the *(bin,
/// `target_domain`)* sub-segment, where `target_domain` is the domain
/// owning the columns currently being expanded.  The local bins are flushed
/// whole whenever the loop crosses a column-domain boundary, so a local bin
/// never mixes tuples destined for different sub-segments — with the
/// domain-routed schedule a fold block lies entirely inside one domain's
/// column range and the boundary flush never actually fires mid-block.
struct LocalBins<'a, V> {
    data: Vec<Entry<V>>,
    len: Vec<u32>,
    capacity: usize,
    buf: &'a SharedBuf<V>,
    cursors: &'a [AtomicUsize],
    seg_ends: &'a [usize],
    stats: &'a StatsCollector,
    /// Domains of the partition (1 = classic single-segment bins).
    domains: usize,
    /// Column boundaries of the domains (`domains + 1` entries).
    col_domain_starts: &'a [usize],
    /// Domain owning the columns currently being expanded.
    target_domain: usize,
    /// First column past the current domain's range (0 forces the first
    /// item to resolve its domain).
    target_end: usize,
    /// The executing worker's own domain id (flushes to any other domain's
    /// sub-segment count as remote).
    my_domain: usize,
    /// Whether flushes hint their destination lines with software prefetch
    /// (any non-scalar ISA level; see the module doc).
    prefetch: bool,
    // Telemetry accumulated locally; merged into `stats` once per segment.
    flushes: u64,
    flushed: u64,
    local_flushes: u64,
    local_flushed: u64,
    prefetched_flushes: u64,
    fill_hist: [u64; FLUSH_HIST_BUCKETS],
}

impl<'a, V: Copy> LocalBins<'a, V> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        nbins: usize,
        capacity: usize,
        buf: &'a SharedBuf<V>,
        cursors: &'a [AtomicUsize],
        seg_ends: &'a [usize],
        zero: Entry<V>,
        domains: usize,
        col_domain_starts: &'a [usize],
        prefetch: bool,
        stats: &'a StatsCollector,
    ) -> Self {
        LocalBins {
            data: vec![zero; nbins * capacity],
            len: vec![0u32; nbins],
            capacity,
            buf,
            cursors,
            seg_ends,
            stats,
            domains,
            col_domain_starts,
            target_domain: 0,
            target_end: if domains > 1 { 0 } else { usize::MAX },
            // The identity closure of the expand fold runs on the thread
            // that claimed the block, so this is the flushing worker's id
            // (clamped like the claim routing is, in case the pool carries
            // more domain labels than the partition has ranges; 0 on an
            // unpartitioned run, where every flush is by definition local).
            my_domain: if domains > 1 {
                rayon::current_domain().min(domains - 1)
            } else {
                0
            },
            prefetch,
            flushes: 0,
            flushed: 0,
            local_flushes: 0,
            local_flushed: 0,
            prefetched_flushes: 0,
            fill_hist: [0; FLUSH_HIST_BUCKETS],
        }
    }

    /// Re-targets the local bins at the domain owning column `col`,
    /// flushing everything buffered for the previous domain first.  Columns
    /// arrive in ascending order within a block, so this fires at most once
    /// per crossed boundary.
    #[inline]
    fn enter_column(&mut self, col: usize) {
        if col < self.target_end {
            return;
        }
        for bin in 0..self.len.len() {
            self.flush(bin);
        }
        let d = crate::topology::domain_of_index(self.col_domain_starts, self.domains, col);
        self.target_domain = d;
        self.target_end = self.col_domain_starts[d + 1];
    }

    /// Appends one tuple to local bin `bin`, flushing it first if full.
    #[inline]
    fn push(&mut self, bin: usize, entry: Entry<V>) {
        let len = self.len[bin] as usize;
        if len == self.capacity {
            self.flush(bin);
            self.data[bin * self.capacity] = entry;
            self.len[bin] = 1;
        } else {
            self.data[bin * self.capacity + len] = entry;
            self.len[bin] = len as u32 + 1;
        }
    }

    /// Flushes local bin `bin` to its global (bin, domain) sub-segment.
    fn flush(&mut self, bin: usize) {
        let n = self.len[bin] as usize;
        if n == 0 {
            return;
        }
        // Reserve a disjoint destination range in the sub-segment of this
        // bin owned by the current column-domain.
        let seg = bin * self.domains + self.target_domain;
        let start = self.cursors[seg].fetch_add(n, Ordering::Relaxed);
        debug_assert!(
            start + n <= self.seg_ends[seg],
            "expand overflowed bin {bin} (domain {}): symbolic phase under-counted",
            self.target_domain
        );
        debug_assert!(start + n <= self.buf.len);
        let src = &self.data[bin * self.capacity..bin * self.capacity + n];
        if self.prefetch {
            // Hint every destination line before the copy so the fills
            // overlap it; the addresses are inside the range the copy is
            // about to write and prefetch hints never fault regardless.
            let dst_bytes = self.buf.ptr.wrapping_add(start) as *const u8;
            let mut off = 0usize;
            let total = n * std::mem::size_of::<Entry<V>>();
            while off < total {
                crate::simd::prefetch_write(dst_bytes.wrapping_add(off));
                off += crate::simd::PREFETCH_LINE_BYTES;
            }
            self.prefetched_flushes += 1;
        }
        // SAFETY: `start + n <= seg_ends[seg] <= buf.len` (the symbolic
        // phase sized every (bin, domain) sub-segment to the exact tuple
        // count and the fetch_add hands out disjoint ranges), `src` and the
        // destination cannot overlap (the destination is uninitialised heap
        // memory owned by the global buffer), and `Entry<V>` is `Copy`.
        unsafe {
            let dst = self.buf.ptr.add(start);
            std::ptr::copy_nonoverlapping(src.as_ptr() as *const MaybeUninit<Entry<V>>, dst, n);
        }
        self.len[bin] = 0;
        self.flushes += 1;
        self.flushed += n as u64;
        if self.target_domain == self.my_domain {
            self.local_flushes += 1;
            self.local_flushed += n as u64;
        }
        // Bucket i covers fill fractions (i/8, (i+1)/8]: a full flush lands
        // in the top bucket, a 1-of-32 partial in the bottom one.
        let bucket =
            ((n * FLUSH_HIST_BUCKETS).div_ceil(self.capacity) - 1).min(FLUSH_HIST_BUCKETS - 1);
        self.fill_hist[bucket] += 1;
    }

    /// Flushes every non-empty local bin (lines 15–18 of Algorithm 2) and
    /// merges this segment's flush telemetry into the shared collector.
    fn finish(mut self) {
        for bin in 0..self.len.len() {
            self.flush(bin);
        }
        self.stats.record_expand_segment(
            self.flushes,
            self.flushed,
            &self.fill_hist,
            self.local_flushes,
            self.local_flushed,
            self.prefetched_flushes,
        );
    }
}

/// Runs the expand phase, producing the binned expanded matrix `Ĉ`.
///
/// Flush telemetry (counts, sizes, per-segment extremes) is accumulated
/// thread-locally and merged into `stats` once per fold segment, so the hot
/// flush path pays nothing for the instrumentation.
///
/// The global tuple buffer and the `bin_offsets`/`compressed_len` staging
/// come out of `lease` — recycled capacity when the lease is backed by a
/// [`Workspace`](crate::Workspace) whose high-water mark covers this
/// multiply, counted fresh allocations otherwise — and flow back into the
/// workspace when the pipeline releases the lease.
pub fn expand<S: Semiring>(
    a: &Csc<S::Elem>,
    b: &Csr<S::Elem>,
    sym: &Symbolic,
    config: &PbConfig,
    stats: &StatsCollector,
    lease: &mut WorkspaceLease<S::Elem>,
) -> BinnedTuples<S::Elem> {
    let flop = sym.flop as usize;
    let nbins = sym.layout.nbins;
    let domains = sym.domains.max(1);
    let layout = &sym.layout;

    // The global tuple buffer, uninitialised: recycled workspace capacity
    // when the high-water mark covers `flop`, a counted fresh allocation
    // otherwise.
    let mut raw: Vec<MaybeUninit<Entry<S::Elem>>> =
        lease.take_entries_uninit(flop, tuple_buffer_huge_pages(sym), stats);
    // SAFETY: MaybeUninit contents never require initialisation; the length
    // only exposes uninitialised `MaybeUninit` slots, which is sound.
    unsafe { raw.set_len(flop) };
    let shared = SharedBuf {
        ptr: raw.as_mut_ptr(),
        len: flop,
    };

    // One reservation cursor per (bin, domain) sub-segment; with a single
    // domain this degenerates to exactly the classic per-bin cursors.
    let cursors: Vec<AtomicUsize> = sym.seg_offsets[..nbins * domains]
        .iter()
        .map(|&o| AtomicUsize::new(o))
        .collect();
    let seg_ends: Vec<usize> = sym.seg_offsets[1..].to_vec();

    let capacity = local_bin_capacity::<S::Elem>(config.local_bin_bytes);
    stats.record_local_bin_capacity(capacity);
    // Forcing the scalar ISA level also turns the flush prefetch hints off,
    // so PB_SIMD=scalar reproduces the pre-SIMD code paths exactly.
    let prefetch = config.resolve_simd() != crate::simd::Isa::Scalar;
    let zero_entry = Entry {
        key: 0,
        val: S::zero(),
    };

    let k = a.ncols();
    let columns = (0..k).into_par_iter();
    // Route each domain's column range to that domain's pool workers.
    let columns = if domains > 1 {
        columns.with_domain_boundaries(sym.col_domain_starts.clone())
    } else {
        columns
    };
    columns
        .fold(
            || {
                LocalBins::new(
                    nbins,
                    capacity,
                    &shared,
                    &cursors,
                    &seg_ends,
                    zero_entry,
                    domains,
                    &sym.col_domain_starts,
                    prefetch,
                    stats,
                )
            },
            |mut local, i| {
                if local.domains > 1 {
                    local.enter_column(i);
                }
                let (b_cols, b_vals) = b.row(i);
                if !b_cols.is_empty() {
                    let (a_rows, a_vals) = a.col(i);
                    for (&r, &a_ri) in a_rows.iter().zip(a_vals) {
                        let bin = layout.bin_of(r);
                        let row_key = layout.pack_row(r);
                        for (&c, &b_ic) in b_cols.iter().zip(b_vals) {
                            local.push(
                                bin,
                                Entry {
                                    key: row_key | c as u64,
                                    val: S::mul(a_ri, b_ic),
                                },
                            );
                        }
                    }
                }
                local
            },
        )
        .for_each(|local| local.finish());

    // Every cursor must have reached the end of its sub-segment: the buffer
    // is fully initialised.
    debug_assert!(cursors
        .iter()
        .zip(&seg_ends)
        .all(|(c, &end)| c.load(Ordering::Relaxed) == end));

    // SAFETY: all `flop` slots were written exactly once (see SharedBuf's
    // invariant), so the buffer is fully initialised `Entry<V>` values;
    // `MaybeUninit<Entry<V>>` and `Entry<V>` have identical layout.
    let entries: Vec<Entry<S::Elem>> = unsafe {
        let mut raw = std::mem::ManuallyDrop::new(raw);
        Vec::from_raw_parts(
            raw.as_mut_ptr() as *mut Entry<S::Elem>,
            raw.len(),
            raw.capacity(),
        )
    };

    BinnedTuples {
        entries,
        bin_offsets: lease.take_bin_offsets(&sym.bin_offsets, stats),
        compressed_len: lease.take_compressed_len(sym.bin_flop.iter().map(|&f| f as usize), stats),
        layout: sym.layout.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::symbolic;
    use pb_gen::{erdos_renyi_square, rmat_square};
    use pb_sparse::{Coo, PlusTimes};

    type S = PlusTimes<f64>;

    fn run(a: &Csr<f64>, cfg: &PbConfig) -> (BinnedTuples<f64>, Symbolic) {
        let (tuples, sym, _) = run_with_stats(a, cfg);
        (tuples, sym)
    }

    fn run_with_stats(
        a: &Csr<f64>,
        cfg: &PbConfig,
    ) -> (BinnedTuples<f64>, Symbolic, crate::profile::PhaseStats) {
        let a_csc = a.to_csc();
        let sym = symbolic(&a_csc, a, cfg, BinnedTuples::<f64>::tuple_bytes());
        let stats = StatsCollector::new();
        let mut lease = WorkspaceLease::<f64>::acquire(None);
        let tuples = expand::<S>(&a_csc, a, &sym, cfg, &stats, &mut lease);
        (tuples, sym, stats.snapshot())
    }

    /// Collects (row, col, val) triplets from the binned tuples, sorted.
    fn collect_tuples(t: &BinnedTuples<f64>) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::with_capacity(t.flop());
        for b in 0..t.nbins() {
            for e in t.bin(b) {
                let (r, c) = t.layout.unpack(b, e.key);
                out.push((r, c, e.val));
            }
        }
        out.sort_by(|x, y| x.partial_cmp(y).unwrap());
        out
    }

    /// Expected expanded tuples computed naively from the definition.
    fn expected_tuples(a: &Csr<f64>) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        for i in 0..a.nrows() {
            let (a_cols, a_vals) = a.row(i);
            for (&k, &aik) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = a.row(k as usize);
                for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                    out.push((i as u32, j, aik * bkj));
                }
            }
        }
        out.sort_by(|x, y| x.partial_cmp(y).unwrap());
        out
    }

    #[test]
    fn reserved_expansion_produces_exactly_the_outer_product_tuples() {
        let a = Coo::from_entries(
            4,
            4,
            vec![
                (0, 1, 2.0),
                (1, 2, 3.0),
                (1, 3, 0.5),
                (2, 0, 1.0),
                (3, 3, 4.0),
                (0, 0, 1.5),
            ],
        )
        .unwrap()
        .to_csr();
        let cfg = PbConfig::default().with_nbins(2);
        let (tuples, sym) = run(&a, &cfg);
        assert_eq!(tuples.flop() as u64, sym.flop);
        assert_eq!(collect_tuples(&tuples), expected_tuples(&a));
    }

    #[test]
    fn tuples_land_in_the_bin_of_their_row() {
        let a = rmat_square(7, 4, 3);
        let cfg = PbConfig::default().with_nbins(9);
        let (tuples, _) = run(&a, &cfg);
        for b in 0..tuples.nbins() {
            for e in tuples.bin(b) {
                let (r, _) = tuples.layout.unpack(b, e.key);
                assert_eq!(
                    tuples.layout.bin_of(r),
                    b,
                    "tuple for row {r} filed in bin {b}"
                );
            }
        }
    }

    #[test]
    fn bin_sizes_match_symbolic_counts() {
        let a = erdos_renyi_square(8, 4, 9);
        let cfg = PbConfig::default().with_nbins(32);
        let (tuples, sym) = run(&a, &cfg);
        for b in 0..tuples.nbins() {
            assert_eq!(tuples.bin(b).len() as u64, sym.bin_flop[b]);
        }
    }

    #[test]
    fn tiny_local_bins_force_many_flushes_and_still_work() {
        let a = erdos_renyi_square(7, 8, 10);
        // 16-byte local bins hold exactly one f64 tuple: every push flushes.
        let cfg = PbConfig::default().with_nbins(8).with_local_bin_bytes(16);
        let (tuples, sym) = run(&a, &cfg);
        assert_eq!(tuples.flop() as u64, sym.flop);
        assert_eq!(collect_tuples(&tuples), expected_tuples(&a));
    }

    #[test]
    fn local_bin_capacity_rounds_to_whole_cache_lines() {
        // Entry<f64> is 16 bytes -> 4 entries per 64-byte line.
        assert_eq!(std::mem::size_of::<Entry<f64>>(), 16);
        // 512 B = 8 lines = 32 entries, already aligned.
        assert_eq!(local_bin_capacity::<f64>(512), 32);
        // 13 entries' worth rounds down to 3 whole lines (12 entries).
        assert_eq!(local_bin_capacity::<f64>(13 * 16), 12);
        // Budgets under one line keep whatever fits, at least one tuple.
        assert_eq!(local_bin_capacity::<f64>(16), 1);
        assert_eq!(local_bin_capacity::<f64>(1), 1);
    }

    /// The concurrent `fetch_add` flushes must assemble
    /// the same multiset of tuples no matter how many real threads race.
    #[test]
    fn reserved_is_correct_under_real_thread_pools() {
        let a = rmat_square(8, 8, 21);
        let expected = expected_tuples(&a);
        for threads in [2usize, 4, 8] {
            let cfg = PbConfig::default()
                .with_nbins(16)
                // Tiny local bins maximise flush frequency and contention.
                .with_local_bin_bytes(64)
                .with_threads(threads);
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (tuples, sym) = pool.install(|| run(&a, &cfg));
            assert_eq!(tuples.flop() as u64, sym.flop, "threads = {threads}");
            assert_eq!(collect_tuples(&tuples), expected, "threads = {threads}");
        }
    }

    #[test]
    fn flush_telemetry_accounts_for_every_tuple() {
        let a = erdos_renyi_square(8, 6, 19);
        // 4-tuple local bins (64 B) force frequent, mostly-full flushes.
        let cfg = PbConfig::default().with_nbins(8).with_local_bin_bytes(64);
        let (tuples, sym, stats) = run_with_stats(&a, &cfg);
        assert_eq!(stats.local_bin_capacity, 4);
        // Every expanded tuple was moved by exactly one flush.
        assert_eq!(stats.flushed_tuples, sym.flop);
        assert_eq!(stats.flushed_tuples as usize, tuples.flop());
        assert!(stats.flushes > 0);
        assert_eq!(stats.flush_fill_hist.iter().sum::<u64>(), stats.flushes);
        // With capacity 4 most flushes are capacity-triggered.
        assert!(stats.full_flush_fraction() > 0.5);
        assert!(stats.expand_segments >= 1);
        assert!(stats.min_segment_flushes <= stats.max_segment_flushes);
        // The mean flush can never exceed the capacity.
        assert!(stats.mean_flush_tuples() <= stats.local_bin_capacity as f64);
    }

    #[test]
    fn flush_prefetch_follows_the_isa_level_and_is_counted() {
        use crate::simd::Isa;
        let a = erdos_renyi_square(8, 6, 23);
        // Forced scalar: the pre-SIMD path, zero prefetched flushes.
        let scalar = PbConfig::default()
            .with_nbins(8)
            .with_local_bin_bytes(64)
            .with_simd(Isa::Scalar);
        let (_, _, stats) = run_with_stats(&a, &scalar);
        assert!(stats.flushes > 0);
        assert_eq!(stats.isa.prefetched_flushes, 0);

        // Any supported non-scalar level: every flush is prefetched.
        if let Some(&isa) = Isa::supported().iter().find(|&&i| i != Isa::Scalar) {
            let cfg = PbConfig::default()
                .with_nbins(8)
                .with_local_bin_bytes(64)
                .with_simd(isa);
            let (_, _, stats) = run_with_stats(&a, &cfg);
            assert!(stats.flushes > 0);
            assert_eq!(
                stats.isa.prefetched_flushes, stats.flushes,
                "{isa}: every reserved flush must be prefetched"
            );
        }
    }

    /// Domain-partitioned reservation must produce exactly the same tuple
    /// multiset, file every sub-segment's tuples in the right bin, and
    /// account every flush as local or remote.
    #[test]
    fn domain_partitioned_expansion_is_exact_and_counts_locality() {
        let a = rmat_square(8, 6, 33);
        let expected = expected_tuples(&a);
        for domains in [2usize, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(4)
                .domains(domains)
                .build()
                .unwrap();
            let cfg = PbConfig::default()
                .with_nbins(8)
                .with_local_bin_bytes(64)
                .with_numa_domains(domains);
            let (tuples, sym, stats) = pool.install(|| run_with_stats(&a, &cfg));
            assert_eq!(sym.domains, domains);
            assert_eq!(tuples.flop() as u64, sym.flop);
            assert_eq!(collect_tuples(&tuples), expected, "domains = {domains}");
            for b in 0..tuples.nbins() {
                assert_eq!(tuples.bin(b).len() as u64, sym.bin_flop[b]);
                for e in tuples.bin(b) {
                    let (r, _) = tuples.layout.unpack(b, e.key);
                    assert_eq!(tuples.layout.bin_of(r), b);
                }
            }
            // Every flush is accounted exactly once as local or remote.
            assert_eq!(stats.local_flushes + stats.remote_flushes, stats.flushes);
            assert_eq!(
                stats.local_flushed_tuples + stats.remote_flushed_tuples,
                stats.flushed_tuples
            );
            assert_eq!(stats.flushed_tuples, sym.flop);
            assert!(stats.local_flushes > 0, "some flushes must be domain-local");
        }
    }

    /// On a single-thread pool the domain-partitioned schedule runs the
    /// column ranges in ascending order, so the buffer content — not just
    /// the multiset — matches the single-domain run exactly.
    #[test]
    fn forced_domains_on_one_thread_are_bufferwise_identical() {
        let a = rmat_square(7, 6, 5);
        let single_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .domains(1)
            .build()
            .unwrap();
        let base = PbConfig::default().with_nbins(4);
        let (single, _) = single_pool.install(|| run(&a, &base.clone().with_numa_domains(1)));
        // resolve_domains clamps to the thread count, so force via a
        // 1-thread pool labelled with 2 domains... which clamps to 1; use
        // the config override plus a wider pool restricted to one claimant
        // instead: a 1-thread pool always runs blocks in order.
        let (two, sym) = single_pool.install(|| {
            let cfg = PbConfig {
                numa_domains: Some(2),
                ..base.clone()
            };
            run(&a, &cfg)
        });
        // With one thread the clamp collapses to a single domain: the
        // partitioned path must not even engage.
        assert_eq!(sym.domains, 1);
        let pairs = |t: &BinnedTuples<f64>| -> Vec<(u64, f64)> {
            t.entries.iter().map(|e| (e.key, e.val)).collect()
        };
        assert_eq!(pairs(&single), pairs(&two));
    }

    #[test]
    fn empty_matrix_expansion() {
        let a: Csr<f64> = Csr::empty(8, 8);
        let (tuples, _) = run(&a, &PbConfig::default());
        assert_eq!(tuples.flop(), 0);
        assert_eq!(tuples.nbins(), 1);
        assert_eq!(tuples.bin(0).len(), 0);
    }

    #[test]
    fn single_bin_configuration() {
        let a = erdos_renyi_square(6, 4, 2);
        let cfg = PbConfig::default().with_nbins(1);
        let (tuples, _) = run(&a, &cfg);
        assert_eq!(tuples.nbins(), 1);
        assert_eq!(collect_tuples(&tuples), expected_tuples(&a));
    }
}
