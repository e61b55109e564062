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
//! buffer: one stable counting pass per significant digit.  Each bin is
//! sorted by exactly one thread, whatever the pool size, so equal keys
//! always keep their input order within the bin.
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
//! [`simd::byte_histogram`].  The scalar level runs the pre-SIMD per-byte
//! code verbatim — fallback and bitwise oracle: a stable LSD sort's result
//! depends only on the key order and input order, not on how the
//! significant bits are cut into digits, so the planned path is a bitwise
//! no-op relative to scalar.
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
/// Whole bins are distributed across the pool's threads, and each bin is
/// sorted sequentially and stably by the thread that claimed it.
fn sort_bins_impl<V: Copy + Send + Sync>(
    tuples: &mut BinnedTuples<V>,
    isa: Isa,
    stats: &StatsCollector,
    slabs: Option<&ScratchSlabs<'_, V>>,
) {
    let key_bytes = tuples.layout.key_bytes() as usize;
    let nbins = tuples.layout.nbins;

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
        // Kernel invocations accumulate in a thread-local counter and merge
        // once per bin — the hot loops never touch an atomic.
        let mut ctr = KernelCounters::default();
        sort_slice_in(seg, key_bytes, isa, scratch, &mut ctr);
        stats.record_sort_kernels(&ctr);
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

/// Sorts one bin's tuples by key, dispatching SIMD kernels at the
/// process-wide [`simd::active`] level.
pub fn sort_slice<V: Copy>(seg: &mut [Entry<V>], key_bytes: usize) {
    sort_slice_with(seg, key_bytes, simd::active())
}

/// [`sort_slice`] at an explicit [`Isa`] dispatch level — the entry point
/// the differential tests iterate over every supported level.
pub fn sort_slice_with<V: Copy>(seg: &mut [Entry<V>], key_bytes: usize, isa: Isa) {
    let mut ctr = KernelCounters::default();
    sort_slice_in(seg, key_bytes, isa, None, &mut ctr)
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

/// [`sort_slice_with`] with an optional caller-provided scratch buffer of at
/// least `seg.len()` initialised entries (a workspace slab lease); `None`
/// allocates its own.  Insertion sort below [`SMALL_SORT`], otherwise LSD
/// radix passes ping-ponging between the bin and the scratch; both are
/// stable.
fn sort_slice_in<V: Copy>(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::BinLayout;
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
        let layout = BinLayout::new(30, 16, 1);
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
        let layout = BinLayout::new(30, 16, 3);
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
    fn sort_bins_keeps_equal_keys_in_input_order_on_every_pool() {
        // One bin of 40 000 entries over 2 000 keys, so every key repeats;
        // `val` is the input position.  Whatever the pool, each run of equal
        // keys must come out in input order: the compress phase folds a run
        // left to right, so stability fixes the order of every sum.
        let n = 40_000usize;
        let layout = BinLayout::new(64, 64, 1);
        assert_eq!(layout.key_bytes(), 2);
        let mut rng = Xoshiro256pp::new(29);
        let entries: Vec<Entry<u64>> = (0..n)
            .map(|i| Entry {
                key: rng.next_u64() % 2_000,
                val: i as u64,
            })
            .collect();
        for threads in [1usize, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut tuples = BinnedTuples {
                entries: entries.clone(),
                bin_offsets: vec![0, n],
                compressed_len: vec![n],
                layout: layout.clone(),
            };
            pool.install(|| sort_bins(&mut tuples, &StatsCollector::new()));
            assert!(is_sorted(&tuples.entries), "{threads} threads");
            assert!(
                tuples
                    .entries
                    .windows(2)
                    .all(|w| w[0].key < w[1].key || w[0].val < w[1].val),
                "equal keys reordered on {threads} threads"
            );
        }
    }

    #[test]
    fn adaptive_pass_count_handles_keys_wider_than_declared() {
        // Keys fit in 3 bytes; telling the sorter 3 bytes must be enough.
        let original = random_entries(2000, 24, 77);
        let mut a = original.clone();
        sort_slice(&mut a, 3);
        assert!(is_sorted(&a));
    }
}
