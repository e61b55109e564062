//! Compression phase (Sec. III-E): merge sorted duplicates in place.
//!
//! After sorting, tuples with the same `(row, col)` key sit next to each
//! other within their bin.  A two-pointer scan walks each bin once: `p1`
//! reads every tuple, `p2` points at the last merged tuple; equal keys are
//! accumulated into `p2`, new keys advance `p2`.  The scan is in place, so
//! the compressed bin occupies a prefix of its original segment and no extra
//! memory traffic is generated.
//!
//! Parallelism is per bin, as in the paper: the bins are disjoint slices,
//! so the pool's threads each take whole bins and compress them while they
//! are in cache.  One scan per bin folds every run of equal keys left to
//! right, in the order the stable sort left them.

use pb_sparse::semiring::Semiring;
use rayon::prelude::*;

use crate::bins::{carve, BinnedTuples, Entry};

/// Compresses every (sorted) bin in place, updating
/// [`BinnedTuples::compressed_len`].
pub fn compress_bins<S: Semiring>(tuples: &mut BinnedTuples<S::Elem>) {
    // Split borrows instead of a staging clone of the offsets: they stay
    // readable while the entry buffer is carved into per-bin slices.
    let BinnedTuples {
        entries,
        bin_offsets: offsets,
        compressed_len,
        ..
    } = tuples;
    // The per-bin results are collected in bin order, so the compressed
    // output is the same no matter which worker compressed which bin.
    let lens: Vec<usize> = carve(entries, offsets)
        .into_par_iter()
        .map(compress_slice::<S>)
        .collect();
    // In place, so the (possibly workspace-pooled) vector is kept.
    compressed_len.clear();
    compressed_len.extend(lens);
}

/// Two-pointer in-place merge of one sorted bin; returns the number of
/// surviving (merged) tuples.
pub fn compress_slice<S: Semiring>(seg: &mut [Entry<S::Elem>]) -> usize {
    if seg.is_empty() {
        return 0;
    }
    debug_assert!(
        seg.windows(2).all(|w| w[0].key <= w[1].key),
        "bin must be sorted"
    );
    let mut write = 0usize;
    for read in 1..seg.len() {
        if seg[read].key == seg[write].key {
            seg[write].val = S::add(seg[write].val, seg[read].val);
        } else {
            write += 1;
            seg[write] = seg[read];
        }
    }
    write + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::BinLayout;
    use pb_sparse::semiring::{MinPlus, PlusTimes};

    type S = PlusTimes<f64>;

    fn entries(pairs: &[(u64, f64)]) -> Vec<Entry<f64>> {
        pairs.iter().map(|&(key, val)| Entry { key, val }).collect()
    }

    #[test]
    fn merges_runs_of_equal_keys() {
        let mut seg = entries(&[(1, 1.0), (1, 2.0), (2, 3.0), (5, 4.0), (5, 0.5), (5, 0.25)]);
        let n = compress_slice::<S>(&mut seg);
        assert_eq!(n, 3);
        assert_eq!(seg[0], Entry { key: 1, val: 3.0 });
        assert_eq!(seg[1], Entry { key: 2, val: 3.0 });
        assert_eq!(seg[2], Entry { key: 5, val: 4.75 });
    }

    #[test]
    fn no_duplicates_is_a_noop() {
        let original = entries(&[(1, 1.0), (2, 2.0), (9, 3.0)]);
        let mut seg = original.clone();
        let n = compress_slice::<S>(&mut seg);
        assert_eq!(n, 3);
        assert_eq!(&seg[..n], &original[..]);
    }

    #[test]
    fn all_duplicates_collapse_to_one() {
        let mut seg = entries(&[(7, 1.0); 50]);
        let n = compress_slice::<S>(&mut seg);
        assert_eq!(n, 1);
        assert_eq!(seg[0].val, 50.0);
    }

    #[test]
    fn empty_and_singleton() {
        let mut empty: Vec<Entry<f64>> = Vec::new();
        assert_eq!(compress_slice::<S>(&mut empty), 0);
        let mut one = entries(&[(3, 1.5)]);
        assert_eq!(compress_slice::<S>(&mut one), 1);
        assert_eq!(one[0].val, 1.5);
    }

    #[test]
    fn respects_the_semiring_add() {
        // Under min-plus, merging keeps the minimum.
        let mut seg = entries(&[(4, 7.0), (4, 2.0), (4, 9.0)]);
        let n = compress_slice::<MinPlus>(&mut seg);
        assert_eq!(n, 1);
        assert_eq!(seg[0].val, 2.0);
    }

    #[test]
    fn compress_bins_updates_lengths_per_bin() {
        let layout = BinLayout::new(8, 8, 2);
        let mut tuples = BinnedTuples {
            entries: entries(&[(0, 1.0), (0, 1.0), (3, 2.0), (1, 5.0), (1, 5.0), (1, 5.0)]),
            bin_offsets: vec![0, 3, 6],
            compressed_len: vec![3, 3],
            layout,
        };
        compress_bins::<S>(&mut tuples);
        assert_eq!(tuples.compressed_len, vec![2, 1]);
        assert_eq!(tuples.compressed_total(), 3);
        assert_eq!(tuples.bin(0)[0].val, 2.0);
        assert_eq!(tuples.bin(1)[0].val, 15.0);
    }
}
