//! In-cache sorting of the binned tuples (Sec. III-D of the paper).
//!
//! Every bin is sorted independently — bins never share a `(row, col)` key —
//! so threads pick up whole bins in parallel and sort them while the bin is
//! resident in cache.  The sort key is the packed `(row-in-bin, col)` integer
//! produced by [`BinLayout::pack`](crate::bins::BinLayout::pack); the number
//! of radix passes adapts to the number of significant key bytes, which is
//! the paper's key-compression optimisation (usually 4 bytes or fewer, so 4
//! passes instead of 8).
//!
//! The sorter is a least-significant-digit radix sort with a scratch
//! buffer: one stable counting pass per significant digit.  A large bin in
//! a pool with more threads than bins is first split by one in-place MSD
//! byte partition (the step of the American-flag sort of McIlroy, Bostic &
//! McIlroy, which the paper cites), and its 256 buckets are then radix
//! sorted in parallel.
//!
//! # SIMD kernels, digit planning and software prefetch
//!
//! On any non-scalar [`Isa`] level, a bin above [`simd::SIMD_MIN_LEN`]
//! takes a *planned* LSD path: one [`simd::key_bits`] OR-reduction measures
//! the keys' actual significant width (packed bin keys are usually well
//! under their declared byte count), [`simd::plan_lsd`] schedules the
//! fewest balanced digit passes that cover it (e.g. two 10-bit passes for
//! 19-bit keys where the byte path takes three), and one
//! [`simd::fused_histograms`] sweep fills every pass's counting table
//! against a single vectorised read of the data.  The scatter passes write
//! through unchecked cursors — each cursor is bounded by the pass's own
//! histogram prefix sum, see `scatter_prefetched` — and hint the
//! destination stream with a software prefetch on every fourth entry,
//! peeking `SCATTER_PREFETCH_AHEAD` entries ahead.  Keys too wide for the
//! plan (over `FUSED_MAX_PASSES · FUSED_MAX_DIGIT_BITS` bits) fall back to
//! the classic per-byte passes, whose histogram still dispatches through
//! [`simd::byte_histogram`] (as does the MSD partition count).  The scalar
//! level runs the pre-SIMD per-byte code verbatim — fallback and bitwise
//! oracle: a stable LSD sort's result depends only on the key order and
//! input order, not on how the significant bits are cut into digits, so the
//! planned path is a bitwise no-op relative to scalar.
//! Every kernel invocation is counted into [`KernelCounters`] and merged
//! into [`PhaseStats::isa`](crate::profile::PhaseStats::isa), so telemetry
//! proves which path ran.  The safety argument for the intrinsics lives in
//! the [`simd`] module doc: the kernels here only ever pass in-bounds
//! slices, and the prefetch addresses are computed with `wrapping_add`
//! because prefetch hints are architecturally defined never to fault.

use rayon::prelude::*;

use crate::bins::{BinnedTuples, Entry};
use crate::profile::StatsCollector;
use crate::simd::{self, Isa, KernelCounters};
use crate::workspace::ScratchSlabs;

/// A bin smaller than this is never worth splitting across threads.
///
/// Note the in-bin parallel path is *doubly* gated: it also requires fewer
/// bins than pool threads (see [`sort_bins`]).  On the committed benchmark
/// corpus that first gate never opens — bins are sized to L2, so a
/// 2.3 Mflop smoke product needs ceil(2.3e6·16 B / 1 MiB) ≈ 35 bins, an
/// order of magnitude more than the 4-thread CI pool — which is why
/// `par_sorted_bins` is legitimately 0 on every committed corpus point.
/// The threshold itself is right where it should be: one bin of
/// `PAR_BIN_MIN` entries is ~256 KiB of tuples, below which the sequential
/// sorter finishes before the MSD partition pass would even pay for itself.
/// The few-huge-bins regime it protects is covered by the
/// `in_bin_parallel_sort_engages_on_few_huge_bins` regression test.
pub const PAR_BIN_MIN: usize = 1 << 14;

/// How many entries ahead of the write cursor the LSD scatter peeks to
/// prefetch its destination stream (non-scalar ISA levels only; one hint
/// per four entries — a 16-byte entry stream needs at most one hint per
/// destination cache line, and hinting every entry measurably costs more
/// than the misses it hides on cache-resident bins).
pub(crate) const SCATTER_PREFETCH_AHEAD: usize = 16;

/// Sorts every bin of the expanded matrix by its packed key, allocating
/// LSD-radix scratch per bin from the heap and dispatching SIMD kernels at
/// the process-wide [`simd::active`] level.
///
/// The pipeline itself runs [`sort_bins_slabbed_with`] instead, which
/// leases the scratch from the multiply's [`Workspace`](crate::Workspace)
/// slabs and resolves the ISA level from the config; this entry point
/// serves direct callers (benchmarks, tests) that have no workspace at
/// hand.
pub fn sort_bins<V: Copy + Send + Sync>(tuples: &mut BinnedTuples<V>, stats: &StatsCollector) {
    sort_bins_impl(tuples, simd::active(), stats, None)
}

/// [`sort_bins`] at an explicit [`Isa`] dispatch level.
pub fn sort_bins_with<V: Copy + Send + Sync>(
    tuples: &mut BinnedTuples<V>,
    isa: Isa,
    stats: &StatsCollector,
) {
    sort_bins_impl(tuples, isa, stats, None)
}

/// Sorts every bin, leasing LSD-radix scratch from per-NUMA-domain slabs,
/// at the process-wide [`simd::active`] dispatch level.
///
/// A worker sorting a bin draws scratch from *its own domain's* slab (see
/// [`ScratchSlabs::lease`]), so the sort phase's scratch streams stay
/// socket-local on a NUMA host even though the bins themselves are claimed
/// freely.  A lease that cannot be served (impossible under
/// [`scratch_target_len`](crate::workspace::scratch_target_len) sizing)
/// falls back to the heap and is *counted* into
/// [`PhaseStats::bytes_allocated`](crate::profile::PhaseStats::bytes_allocated).
pub fn sort_bins_slabbed<V: Copy + Send + Sync>(
    tuples: &mut BinnedTuples<V>,
    stats: &StatsCollector,
    slabs: &ScratchSlabs<'_, V>,
) {
    sort_bins_impl(tuples, simd::active(), stats, Some(slabs))
}

/// [`sort_bins_slabbed`] at an explicit [`Isa`] dispatch level.
pub fn sort_bins_slabbed_with<V: Copy + Send + Sync>(
    tuples: &mut BinnedTuples<V>,
    isa: Isa,
    stats: &StatsCollector,
    slabs: &ScratchSlabs<'_, V>,
) {
    sort_bins_impl(tuples, isa, stats, Some(slabs))
}

/// Sorts every bin of the expanded matrix by its packed key.
///
/// Whole bins are distributed across the pool's threads.  When there are
/// *fewer* bins than threads (small products, or a single-bin
/// configuration) per-bin parallelism cannot keep the pool busy, so large
/// bins are additionally sorted with in-bin parallelism: one MSD byte
/// partition whose 256 buckets are then sorted concurrently.  Every bin
/// taking the in-bin parallel path is counted into `stats`
/// ([`PhaseStats::par_sorted_bins`](crate::profile::PhaseStats::par_sorted_bins)).
fn sort_bins_impl<V: Copy + Send + Sync>(
    tuples: &mut BinnedTuples<V>,
    isa: Isa,
    stats: &StatsCollector,
    slabs: Option<&ScratchSlabs<'_, V>>,
) {
    let key_bytes = tuples.layout.key_bytes() as usize;
    let nbins = tuples.layout.nbins;
    let split_within_bins = nbins < rayon::current_num_threads();

    // Split borrows: the offsets stay readable while the entry buffer is
    // carved into disjoint per-bin mutable slices (no staging clone).
    let BinnedTuples {
        entries,
        bin_offsets: offsets,
        ..
    } = tuples;
    let mut slices: Vec<&mut [Entry<V>]> = Vec::with_capacity(nbins);
    let mut rest: &mut [Entry<V>] = entries;
    let mut consumed = 0usize;
    for b in 0..nbins {
        let len = offsets[b + 1] - offsets[b];
        debug_assert_eq!(consumed, offsets[b]);
        let (seg, r) = rest.split_at_mut(len);
        slices.push(seg);
        rest = r;
        consumed += len;
    }

    // Bin claiming is deliberately *not* domain-routed: a bin's buffer
    // interleaves one sub-segment per domain (see `crate::symbolic`), so no
    // assignment of whole bins to domains could make the sort's *data*
    // reads local — every bin is a mixed-domain read regardless, and free
    // claiming keeps the phase's load balancing.  The scratch stream *is*
    // domain-local: each worker leases from its own domain's slab.
    slices.into_par_iter().for_each(|seg| {
        let scratch = lease_scratch(slabs, seg.len(), stats);
        if split_within_bins && seg.len() >= PAR_BIN_MIN {
            stats.record_par_sorted_bin();
            par_sort_slice_in(seg, key_bytes, isa, scratch, Some(stats))
        } else {
            // Kernel invocations accumulate in a thread-local counter and
            // merge once per bin — the hot loops never touch an atomic.
            let mut ctr = KernelCounters::default();
            lsd_radix_sort_in(seg, key_bytes, isa, scratch, &mut ctr);
            stats.record_sort_kernels(&ctr);
        }
    });
}

/// Leases `len` scratch entries for one bin when the sort will use them
/// (above the insertion-sort cutoff); counts the heap fallback when the
/// slabs cannot serve the lease.
fn lease_scratch<'s, V: Copy + Send>(
    slabs: Option<&ScratchSlabs<'s, V>>,
    len: usize,
    stats: &StatsCollector,
) -> Option<&'s mut [Entry<V>]> {
    if len <= SMALL_SORT {
        return None;
    }
    let slabs = slabs?;
    let leased = slabs.lease(len);
    if leased.is_none() {
        // The sorter below will fall back to `to_vec`; account for it.
        stats.record_workspace((len * std::mem::size_of::<Entry<V>>()) as u64, 0, false);
    }
    leased
}

/// Sorts one large bin with in-bin parallelism (same result as
/// [`sort_slice`], different schedule), dispatching SIMD kernels at the
/// process-wide [`simd::active`] level.
///
/// The bin is partitioned once by its most significant key byte — a
/// counting pass plus in-place cycle permutation — and the 256 resulting
/// buckets, which are already mutually ordered, are radix sorted
/// independently in parallel on the remaining bytes.
pub fn par_sort_slice<V: Copy + Send>(seg: &mut [Entry<V>], key_bytes: usize) {
    par_sort_slice_in(seg, key_bytes, simd::active(), None, None)
}

/// One MSD bucket of a parallel in-bin sort, paired with its (optional)
/// piece of the bin's leased scratch.
type BucketTask<'a, V> = (&'a mut [Entry<V>], Option<&'a mut [Entry<V>]>);

/// [`par_sort_slice`] with an explicit ISA level, optional pre-leased LSD
/// scratch of at least `seg.len()` entries (`None` allocates as before),
/// and an optional collector to merge the per-bucket kernel counters into.
fn par_sort_slice_in<V: Copy + Send>(
    seg: &mut [Entry<V>],
    key_bytes: usize,
    isa: Isa,
    scratch: Option<&mut [Entry<V>]>,
    stats: Option<&StatsCollector>,
) {
    let key_bytes = key_bytes.clamp(1, 8);
    let mut top_ctr = KernelCounters::default();
    if key_bytes == 1 {
        // Single significant byte: the MSD partition *is* the sort.
        flag_sort_level(seg, 0, isa, &mut top_ctr);
        if let Some(stats) = stats {
            stats.record_sort_kernels(&top_ctr);
        }
        return;
    }
    let top = (key_bytes - 1) as u32;
    let (starts, ends) = msd_partition(seg, top, isa, &mut top_ctr);
    if let Some(stats) = stats {
        stats.record_sort_kernels(&top_ctr);
    }
    // Carve the bucket sub-slices (disjoint by construction), and the
    // scratch into matching pieces when one was leased.
    let mut buckets: Vec<BucketTask<'_, V>> = Vec::with_capacity(256);
    let mut rest: &mut [Entry<V>] = seg;
    let mut scratch_rest: Option<&mut [Entry<V>]> = scratch;
    let mut consumed = 0usize;
    for bucket in 0..256 {
        let len = ends[bucket] - starts[bucket];
        let (b, r) = rest.split_at_mut(len);
        rest = r;
        let piece = match scratch_rest.take() {
            Some(s) => {
                let (piece, r) = s.split_at_mut(len);
                scratch_rest = Some(r);
                Some(piece)
            }
            None => None,
        };
        buckets.push((b, piece));
        consumed += len;
    }
    debug_assert_eq!(consumed, ends[255]);
    buckets.into_par_iter().for_each(|(b, piece)| {
        if b.len() > 1 {
            // Buckets share the top byte, so ordering the remaining low
            // bytes completes the sort.
            let mut ctr = KernelCounters::default();
            lsd_radix_sort_in(b, key_bytes - 1, isa, piece, &mut ctr);
            if let Some(stats) = stats {
                stats.record_sort_kernels(&ctr);
            }
        }
    });
}

/// Sorts one bin's tuples by key, dispatching SIMD kernels at the
/// process-wide [`simd::active`] level.
pub fn sort_slice<V: Copy>(seg: &mut [Entry<V>], key_bytes: usize) {
    sort_slice_with(seg, key_bytes, simd::active())
}

/// [`sort_slice`] at an explicit [`Isa`] dispatch level — the entry point
/// the differential tests iterate over every supported level.
pub fn sort_slice_with<V: Copy>(seg: &mut [Entry<V>], key_bytes: usize, isa: Isa) {
    let mut ctr = KernelCounters::default();
    lsd_radix_sort_in(seg, key_bytes, isa, None, &mut ctr)
}

/// Threshold below which radix sorters fall back to insertion sort.
/// `pub(crate)` so the pipeline can skip the scratch lease entirely for
/// products whose every bin insertion-sorts.
pub(crate) const SMALL_SORT: usize = 48;

fn insertion_sort<V: Copy>(seg: &mut [Entry<V>]) {
    for i in 1..seg.len() {
        let item = seg[i];
        let mut j = i;
        while j > 0 && seg[j - 1].key > item.key {
            seg[j] = seg[j - 1];
            j -= 1;
        }
        seg[j] = item;
    }
}

/// LSD radix sort: one stable counting-sort pass per significant key byte,
/// ping-ponging between the bin and a scratch buffer allocated here; SIMD
/// kernels dispatch at the process-wide [`simd::active`] level.
pub fn lsd_radix_sort<V: Copy>(seg: &mut [Entry<V>], key_bytes: usize) {
    let mut ctr = KernelCounters::default();
    lsd_radix_sort_in(seg, key_bytes, simd::active(), None, &mut ctr)
}

/// [`lsd_radix_sort`] with an explicit ISA level and an optional
/// caller-provided scratch buffer of at least `seg.len()` initialised
/// entries (a workspace slab lease); `None` allocates its own.
fn lsd_radix_sort_in<V: Copy>(
    seg: &mut [Entry<V>],
    key_bytes: usize,
    isa: Isa,
    scratch: Option<&mut [Entry<V>]>,
    ctr: &mut KernelCounters,
) {
    if seg.len() <= SMALL_SORT {
        insertion_sort(seg);
        return;
    }
    match scratch {
        Some(scratch) => lsd_radix_passes(seg, key_bytes, isa, &mut scratch[..seg.len()], ctr),
        None => {
            let mut scratch: Vec<Entry<V>> = seg.to_vec();
            lsd_radix_passes(seg, key_bytes, isa, &mut scratch, ctr);
        }
    }
}

/// The counting-sort passes shared by both scratch sources.
fn lsd_radix_passes<V: Copy>(
    seg: &mut [Entry<V>],
    key_bytes: usize,
    isa: Isa,
    scratch: &mut [Entry<V>],
    ctr: &mut KernelCounters,
) {
    debug_assert_eq!(seg.len(), scratch.len());
    let key_bytes = key_bytes.clamp(1, 8);
    if isa != Isa::Scalar
        && seg.len() >= simd::SIMD_MIN_LEN
        && fused_lsd_passes(seg, key_bytes, isa, scratch, ctr)
    {
        return;
    }
    // Tracks whether the current data lives in `seg` (true) or `scratch`.
    let mut data_in_seg = true;
    {
        let mut src: &mut [Entry<V>] = seg;
        let mut dst: &mut [Entry<V>] = scratch;
        for pass in 0..key_bytes {
            let shift = 8 * pass as u32;
            let counts = simd::byte_histogram(isa, src, shift, ctr);
            // Skip passes where every key shares the same byte value.
            if counts.contains(&src.len()) {
                continue;
            }
            let mut offsets = [0usize; 256];
            let mut acc = 0usize;
            for (o, &c) in offsets.iter_mut().zip(&counts) {
                *o = acc;
                acc += c;
            }
            if isa != Isa::Scalar && src.len() > SCATTER_PREFETCH_AHEAD {
                scatter_prefetched(src, dst, shift, 0xFF, &mut offsets, ctr);
            } else {
                for e in src.iter() {
                    let b = ((e.key >> shift) & 0xFF) as usize;
                    dst[offsets[b]] = *e;
                    offsets[b] += 1;
                }
            }
            std::mem::swap(&mut src, &mut dst);
            data_in_seg = !data_in_seg;
        }
    }
    if !data_in_seg {
        seg.copy_from_slice(scratch);
    }
}

/// The digit-planned fused LSD path (non-scalar levels, large bins).
/// Measures the keys' significant width, schedules the fewest balanced
/// digit passes that cover it, fills every pass's counting table in one
/// fused sweep, then runs the scatter passes.  Returns `false` (having
/// touched nothing but the width probe) when the width exceeds the plan's
/// reach and the caller must fall back to the per-byte passes.
///
/// Bit-identity with the scalar oracle: both are stable LSD sorts whose
/// digit sequences jointly cover every bit position on which any two keys
/// differ — the scalar path covers bits `[0, 8·key_bytes)` byte-wise, this
/// path covers `[0, B)` where `B` is the measured width (all keys agree,
/// on zero, at and above `B`; the engine-level clamp `min(B, 8·key_bytes)`
/// keeps even a mis-declared `key_bytes` behaviourally identical to the
/// scalar path, which cannot see those bits either).  A stable LSD sort's
/// final permutation depends only on the key order and the input order,
/// never on how the covered bits are cut into digits, so both paths place
/// the exact same entries in the exact same slots.
fn fused_lsd_passes<V: Copy>(
    seg: &mut [Entry<V>],
    key_bytes: usize,
    isa: Isa,
    scratch: &mut [Entry<V>],
    ctr: &mut KernelCounters,
) -> bool {
    let n = seg.len();
    let bits = simd::key_bits(isa, seg).min(8 * key_bytes as u32);
    // Cap the digit width at ⌊log2 n⌋ so the counting tables never dwarf
    // the bin they serve (a 4096-bucket table for a 1 K-entry bin would be
    // all setup and no counting).
    let digit_cap = (usize::BITS - 1 - n.leading_zeros()).min(simd::FUSED_MAX_DIGIT_BITS);
    let Some(plan) = simd::plan_lsd(bits, digit_cap) else {
        return false;
    };
    if plan.passes == 0 {
        // Every key is zero: stably sorted already.
        return true;
    }
    let mut tables: simd::FusedTables = [[0; simd::FUSED_RADIX]; simd::FUSED_MAX_PASSES];
    simd::fused_histograms(isa, seg, &plan, &mut tables, ctr);
    let mask = plan.digit_mask();
    let mut data_in_seg = true;
    {
        let mut src: &mut [Entry<V>] = seg;
        let mut dst: &mut [Entry<V>] = scratch;
        for (pass, counts) in tables[..plan.passes].iter().enumerate() {
            let counts = &counts[..plan.radix()];
            // Skip passes where every key shares the same digit value.
            if counts.contains(&n) {
                continue;
            }
            let mut offsets = [0usize; simd::FUSED_RADIX];
            let mut acc = 0usize;
            for (o, &c) in offsets[..plan.radix()].iter_mut().zip(counts) {
                *o = acc;
                acc += c;
            }
            scatter_prefetched(src, dst, plan.shift(pass), mask, &mut offsets, ctr);
            std::mem::swap(&mut src, &mut dst);
            data_in_seg = !data_in_seg;
        }
    }
    if !data_in_seg {
        seg.copy_from_slice(scratch);
    }
    true
}

/// One stable counting-scatter pass over the digit `(key >> shift) & mask`,
/// hinting the destination stream with a software prefetch on every fourth
/// entry: the writes land at roaming per-bucket cursors the hardware
/// prefetcher cannot track, and peeking at the key
/// [`SCATTER_PREFETCH_AHEAD`] entries ahead reveals the destination line
/// early enough to hint it.  A hinted address may be stale by the time the
/// write lands (other buckets advance the cursor) — that only wastes the
/// hint, never correctness — and the pointer is computed with
/// `wrapping_add` because prefetch hints cannot fault (see `crate::simd`).
///
/// The data writes go through unchecked cursors.
///
/// # Safety (discharged internally)
///
/// `offsets` must be the exclusive prefix sum of the digit histogram of
/// *this* `src` under *this* `(shift, mask)` — exactly how both callers
/// build it.  Bucket `b`'s cursor then starts at `starts[b]`, is
/// incremented once per entry whose digit is `b` (of which the histogram
/// counted exactly `counts[b]`), and therefore never reaches
/// `starts[b] + counts[b] = starts[b+1] ≤ dst.len()`: every write is in
/// bounds by construction, which is why the bound check can be elided on
/// this, the single hottest store in the whole multiply.
fn scatter_prefetched<V: Copy>(
    src: &[Entry<V>],
    dst: &mut [Entry<V>],
    shift: u32,
    mask: u64,
    offsets: &mut [usize],
    ctr: &mut KernelCounters,
) {
    let n = src.len();
    debug_assert_eq!(n, dst.len());
    debug_assert!(src
        .iter()
        .all(|e| ((e.key >> shift) & mask) < offsets.len() as u64));
    ctr.prefetched_scatters += 1;
    let dst_base = dst.as_mut_ptr();
    for i in 0..n {
        if i % 4 == 0 && i + SCATTER_PREFETCH_AHEAD < n {
            let ahead = ((src[i + SCATTER_PREFETCH_AHEAD].key >> shift) & mask) as usize;
            simd::prefetch_write(dst.as_ptr().wrapping_add(offsets[ahead]));
        }
        let e = src[i];
        let b = ((e.key >> shift) & mask) as usize;
        // SAFETY: offsets[b] < dst.len() by the prefix-sum invariant above.
        unsafe { *dst_base.add(offsets[b]) = e };
        offsets[b] += 1;
    }
}

/// Partitions `seg` into 256 buckets of key byte `byte` (in-place
/// cycle-following permutation, one step of an American-flag sort);
/// returns each bucket's `[start, end)` boundaries.
fn msd_partition<V: Copy>(
    seg: &mut [Entry<V>],
    byte: u32,
    isa: Isa,
    ctr: &mut KernelCounters,
) -> ([usize; 256], [usize; 256]) {
    let shift = 8 * byte;
    let counts = simd::byte_histogram(isa, seg, shift, ctr);
    let mut starts = [0usize; 256];
    let mut ends = [0usize; 256];
    let mut acc = 0usize;
    for i in 0..256 {
        starts[i] = acc;
        acc += counts[i];
        ends[i] = acc;
    }
    // Cycle-following permutation: place every element into its bucket.
    let mut heads = starts;
    for bucket in 0..256 {
        while heads[bucket] < ends[bucket] {
            let mut e = seg[heads[bucket]];
            loop {
                let target = ((e.key >> shift) & 0xFF) as usize;
                if target == bucket {
                    break;
                }
                let dst = heads[target];
                heads[target] += 1;
                std::mem::swap(&mut seg[dst], &mut e);
            }
            seg[heads[bucket]] = e;
            heads[bucket] += 1;
        }
    }
    (starts, ends)
}

/// In-place MSD radix sort of `seg` from key byte `byte` down (the
/// American-flag sort), insertion-sorting small buckets.
fn flag_sort_level<V: Copy>(seg: &mut [Entry<V>], byte: u32, isa: Isa, ctr: &mut KernelCounters) {
    if seg.len() <= SMALL_SORT {
        insertion_sort(seg);
        return;
    }
    let (starts, ends) = msd_partition(seg, byte, isa, ctr);
    if byte > 0 {
        for bucket in 0..256 {
            let (lo, hi) = (starts[bucket], ends[bucket]);
            if hi - lo > 1 {
                flag_sort_level(&mut seg[lo..hi], byte - 1, isa, ctr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::BinLayout;
    use crate::config::BinMapping;
    use pb_gen::Xoshiro256pp;

    fn random_entries(n: usize, key_bits: u32, seed: u64) -> Vec<Entry<u64>> {
        let mut rng = Xoshiro256pp::new(seed);
        (0..n)
            .map(|i| {
                let key = rng.next_u64() & ((1u64 << key_bits) - 1);
                Entry { key, val: i as u64 }
            })
            .collect()
    }

    fn is_sorted<V>(seg: &[Entry<V>]) -> bool {
        seg.windows(2).all(|w| w[0].key <= w[1].key)
    }

    #[test]
    fn all_sorters_agree_with_comparison_sort() {
        for &bits in &[8u32, 20, 31, 48, 63] {
            let original = random_entries(3000, bits, bits as u64);
            let key_bytes = (bits as usize).div_ceil(8);

            let mut expected = original.clone();
            expected.sort_by_key(|e| e.key);
            let expected_keys: Vec<u64> = expected.iter().map(|e| e.key).collect();

            let mut data = original.clone();
            sort_slice(&mut data, key_bytes);
            assert!(is_sorted(&data), "failed to sort {bits}-bit keys");
            let keys: Vec<u64> = data.iter().map(|e| e.key).collect();
            assert_eq!(keys, expected_keys, "produced a different permutation");
        }
    }

    #[test]
    fn all_isa_levels_sort_bitwise_identically() {
        // The tentpole's core promise: every dispatch level is a *bitwise*
        // no-op relative to the scalar oracle — not just "also sorted"
        // (the radix sort is stable, so the full entry permutation must
        // match, values included).
        for &bits in &[8u32, 20, 31, 48] {
            let original = random_entries(20_000, bits, 400 + bits as u64);
            let key_bytes = (bits as usize).div_ceil(8);
            let mut oracle = original.clone();
            sort_slice_with(&mut oracle, key_bytes, Isa::Scalar);
            for isa in Isa::supported() {
                let mut data = original.clone();
                sort_slice_with(&mut data, key_bytes, isa);
                assert_eq!(data, oracle, "{isa} diverged from scalar");
            }
        }
    }

    #[test]
    fn sort_telemetry_proves_the_dispatched_path() {
        // One large single-byte-key bin: big enough for the SIMD histogram
        // cutoff and the prefetched scatter.  The counters must say which
        // path ran — that is the whole point of the IsaDispatch record.
        let layout = BinLayout::new(30, 16, 1, BinMapping::Range);
        let mut rng = Xoshiro256pp::new(21);
        let n = 20_000usize;
        let entries: Vec<Entry<u64>> = (0..n)
            .map(|i| Entry {
                key: rng.next_u64() & 0xFF,
                val: i as u64,
            })
            .collect();
        for isa in Isa::supported() {
            let mut tuples = BinnedTuples {
                entries: entries.clone(),
                bin_offsets: vec![0, n],
                compressed_len: vec![n],
                layout: layout.clone(),
            };
            let stats = StatsCollector::new();
            sort_bins_with(&mut tuples, isa, &stats);
            assert!(is_sorted(&tuples.entries));
            let snap = stats.snapshot();
            if isa == Isa::Scalar {
                assert!(snap.isa.scalar_histograms > 0);
                assert_eq!(snap.isa.simd_histograms, 0);
                assert_eq!(snap.isa.prefetched_scatters, 0);
            } else {
                assert!(snap.isa.simd_histograms > 0, "{isa} must count SIMD");
                assert!(snap.isa.prefetched_scatters > 0, "{isa} must prefetch");
            }
        }
    }

    #[test]
    fn radix_sorts_keep_key_value_pairs_together() {
        // Values encode the original key so any mismatch is detected.
        let mut rng = Xoshiro256pp::new(3);
        let original: Vec<Entry<u64>> = (0..5000)
            .map(|_| {
                let key = rng.next_u64() & 0xFFFF_FFFF;
                Entry {
                    key,
                    val: key ^ 0xDEAD_BEEF,
                }
            })
            .collect();
        for isa in Isa::supported() {
            let mut data = original.clone();
            sort_slice_with(&mut data, 4, isa);
            assert!(data.iter().all(|e| e.val == e.key ^ 0xDEAD_BEEF));
        }
    }

    #[test]
    fn small_and_degenerate_inputs() {
        let mut empty: Vec<Entry<f64>> = Vec::new();
        sort_slice(&mut empty, 4);

        let mut one = vec![Entry { key: 7, val: 1.0 }];
        sort_slice(&mut one, 4);
        assert_eq!(one[0].key, 7);

        let mut dup = vec![Entry { key: 5, val: 1.0 }; 100];
        sort_slice(&mut dup, 4);
        assert!(is_sorted(&dup));

        let mut rev: Vec<Entry<u32>> = (0..200)
            .rev()
            .map(|k| Entry {
                key: k as u64,
                val: k,
            })
            .collect();
        sort_slice(&mut rev, 1);
        assert!(is_sorted(&rev));
        assert_eq!(rev[0].val, 0);
    }

    #[test]
    fn sort_bins_sorts_each_bin_independently() {
        // Three bins with interleaved keys; after sorting, each bin is
        // ordered but bins keep their own ranges.
        // 4 row bits + 4 column bits per key: one significant key byte.
        let layout = BinLayout::new(30, 16, 3, BinMapping::Range);
        assert_eq!(layout.key_bytes(), 1);
        let mut rng = Xoshiro256pp::new(9);
        let mut entries = Vec::new();
        let mut bin_offsets = vec![0usize];
        for _bin in 0..3 {
            for _ in 0..200 {
                entries.push(Entry {
                    key: rng.next_u64() & 0xFF,
                    val: 1.0f64,
                });
            }
            bin_offsets.push(entries.len());
        }
        let mut tuples = BinnedTuples {
            entries,
            bin_offsets: bin_offsets.clone(),
            compressed_len: vec![200, 200, 200],
            layout,
        };
        sort_bins(&mut tuples, &crate::profile::StatsCollector::new());
        for b in 0..3 {
            assert!(is_sorted(
                &tuples.entries[bin_offsets[b]..bin_offsets[b + 1]]
            ));
        }
    }

    #[test]
    fn in_bin_parallel_sort_engages_on_few_huge_bins() {
        // Regression guard for the `par_sorted_bins` path (satellite of
        // ISSUE 7): the corpus never reaches it because bins sized to L2
        // always outnumber the pool threads (see the `PAR_BIN_MIN` doc),
        // so this synthetic few-huge-bins input is the only coverage that
        // the double gate — fewer bins than threads AND a bin at least
        // `PAR_BIN_MIN` entries — actually opens and gets counted.
        let layout = BinLayout::new(30, 16, 2, BinMapping::Range);
        let mut rng = Xoshiro256pp::new(17);
        let per_bin = PAR_BIN_MIN; // exactly at the threshold: >= engages
        let mut entries = Vec::new();
        let mut bin_offsets = vec![0usize];
        for _bin in 0..2 {
            for _ in 0..per_bin {
                entries.push(Entry {
                    key: rng.next_u64() & 0xFF,
                    val: 1.0f64,
                });
            }
            bin_offsets.push(entries.len());
        }
        let mut tuples = BinnedTuples {
            entries,
            bin_offsets: bin_offsets.clone(),
            compressed_len: vec![per_bin, per_bin],
            layout,
        };
        let stats = crate::profile::StatsCollector::new();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        pool.install(|| sort_bins(&mut tuples, &stats));
        assert_eq!(
            stats.snapshot().par_sorted_bins,
            2,
            "two huge bins under a 4-thread pool must both take the in-bin parallel path"
        );
        for b in 0..2 {
            assert!(is_sorted(
                &tuples.entries[bin_offsets[b]..bin_offsets[b + 1]]
            ));
        }
    }

    #[test]
    fn par_sort_slice_agrees_with_sequential_sort() {
        for &bits in &[8u32, 20, 31, 48] {
            let original = random_entries(60_000, bits, 1000 + bits as u64);
            let key_bytes = (bits as usize).div_ceil(8);
            let mut expected = original.clone();
            expected.sort_by_key(|e| e.key);
            let expected_keys: Vec<u64> = expected.iter().map(|e| e.key).collect();
            for threads in [1usize, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut data = original.clone();
                pool.install(|| par_sort_slice(&mut data, key_bytes));
                let keys: Vec<u64> = data.iter().map(|e| e.key).collect();
                assert_eq!(keys, expected_keys, "{threads} threads on {bits}-bit keys");
            }
        }
    }

    #[test]
    fn adaptive_pass_count_handles_keys_wider_than_declared() {
        // Keys fit in 3 bytes; telling the sorter 3 bytes must be enough.
        let original = random_entries(2000, 24, 77);
        let mut a = original.clone();
        lsd_radix_sort(&mut a, 3);
        assert!(is_sorted(&a));
    }
}
