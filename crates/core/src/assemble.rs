//! CSR assembly (line 22 of Algorithm 2, `ConvertCSR`).
//!
//! After compression every bin holds the final nonzeros of its rows in
//! `(row, col)` order.  Assembly produces the CSR output in two passes:
//!
//! 1. a parallel pass over bins counts the nonzeros of every output row;
//! 2. after an exclusive prefix sum over those counts, a second parallel
//!    pass scatters each bin's entries into its rows' slots.
//!
//! Both passes write to shared arrays without locks.  This is sound because
//! the bin mapping partitions the row space: all tuples of a given row live
//! in exactly one bin, so two bins never touch the same row counter or the
//! same CSR row segment.

use std::mem::MaybeUninit;

use pb_sparse::{Csr, Index, Scalar};
use rayon::prelude::*;

use crate::bins::BinnedTuples;
use crate::profile::StatsCollector;
use crate::workspace::{advise_capacity, WorkspaceLease};

/// A shared mutable pointer used for the disjoint per-row writes described
/// in the module docs.
struct SharedPtr<T>(*mut T);

unsafe impl<T: Send> Send for SharedPtr<T> {}
unsafe impl<T: Send> Sync for SharedPtr<T> {}

impl<T> SharedPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Builds the CSR result from compressed, sorted bins.
///
/// The number of nonempty output rows is recorded into `stats` (it falls
/// out of the prefix-sum pass for free and quantifies how sparse the output
/// row space is).
pub fn assemble<V: Scalar>(tuples: &BinnedTuples<V>, stats: &StatsCollector) -> Csr<V> {
    assemble_core(tuples, stats, Vec::new()).0
}

/// [`assemble`] drawing the pass-1 staging (`nrows` row counters) from a
/// workspace lease, so repeated multiplies stop re-allocating it.  The CSR
/// output arrays themselves are returned to the caller inside the product
/// and can never be pooled.
pub fn assemble_reusing<V: Scalar>(
    tuples: &BinnedTuples<V>,
    stats: &StatsCollector,
    lease: &mut WorkspaceLease<V>,
) -> Csr<V> {
    let staging = lease.take_row_counts(tuples.layout.nrows, stats);
    let (c, staging) = assemble_core(tuples, stats, staging);
    lease.put_row_counts(staging);
    c
}

/// Shared implementation; returns the staging vector for recycling.
fn assemble_core<V: Scalar>(
    tuples: &BinnedTuples<V>,
    stats: &StatsCollector,
    mut row_counts: Vec<usize>,
) -> (Csr<V>, Vec<usize>) {
    let layout = &tuples.layout;
    let nrows = layout.nrows;
    let ncols = layout.ncols;
    let nnz = tuples.compressed_total();

    // ----- Pass 1: per-row nonzero counts. ---------------------------------
    row_counts.clear();
    row_counts.resize(nrows, 0);
    {
        let counts_ptr = SharedPtr(row_counts.as_mut_ptr());
        (0..tuples.nbins()).into_par_iter().for_each(|b| {
            let base = counts_ptr.get();
            for e in tuples.bin(b) {
                let (row, _) = layout.unpack(b, e.key);
                // SAFETY: `row < nrows` by construction of the packed key,
                // and rows are partitioned across bins, so no other bin (and
                // therefore no other thread) writes this element.
                unsafe { *base.add(row as usize) += 1 };
            }
        });
    }

    // ----- Exclusive prefix sum -> rowptr. ----------------------------------
    let mut rowptr = Vec::with_capacity(nrows + 1);
    let mut acc = 0usize;
    let mut nonempty = 0usize;
    rowptr.push(0);
    for &c in &row_counts {
        acc += c;
        nonempty += usize::from(c > 0);
        rowptr.push(acc);
    }
    debug_assert_eq!(acc, nnz);
    stats.record_nonempty_rows(nonempty);

    // ----- Pass 2: scatter column indices and values. -----------------------
    let mut colidx: Vec<MaybeUninit<Index>> = Vec::with_capacity(nnz);
    let mut values: Vec<MaybeUninit<V>> = Vec::with_capacity(nnz);
    // The scatter below is the arrays' first touch: ask for huge pages
    // first (a no-op under the 8 MiB floor).
    stats.record_huge_pages(advise_capacity(&colidx) + advise_capacity(&values));
    // SAFETY: MaybeUninit slots do not require initialisation.
    unsafe {
        colidx.set_len(nnz);
        values.set_len(nnz);
    }
    {
        let col_ptr = SharedPtr(colidx.as_mut_ptr());
        let val_ptr = SharedPtr(values.as_mut_ptr());
        let rowptr_ref = &rowptr;
        (0..tuples.nbins()).into_par_iter().for_each(|b| {
            let col_base = col_ptr.get();
            let val_base = val_ptr.get();
            let bin = tuples.bin(b);
            let mut idx = 0usize;
            while idx < bin.len() {
                let (row, _) = layout.unpack(b, bin[idx].key);
                let start = rowptr_ref[row as usize];
                let end = rowptr_ref[row as usize + 1];
                let len = end - start;
                // All entries of `row` are contiguous in this bin (the bin is
                // sorted by (row, col)), and `len` of them exist.
                for k in 0..len {
                    let e = &bin[idx + k];
                    let (_, col) = layout.unpack(b, e.key);
                    // SAFETY: the destination range [start, end) belongs
                    // exclusively to `row`, which belongs exclusively to this
                    // bin; each slot is written exactly once.
                    unsafe {
                        (*col_base.add(start + k)).write(col);
                        (*val_base.add(start + k)).write(e.val);
                    }
                }
                idx += len;
            }
        });
    }

    // SAFETY: pass 1 counted exactly the tuples that pass 2 scattered, so all
    // `nnz` slots of both arrays are initialised.
    let colidx: Vec<Index> = unsafe {
        let mut raw = std::mem::ManuallyDrop::new(colidx);
        Vec::from_raw_parts(raw.as_mut_ptr() as *mut Index, raw.len(), raw.capacity())
    };
    let values: Vec<V> = unsafe {
        let mut raw = std::mem::ManuallyDrop::new(values);
        Vec::from_raw_parts(raw.as_mut_ptr() as *mut V, raw.len(), raw.capacity())
    };

    (
        Csr::from_parts_unchecked(nrows, ncols, rowptr, colidx, values),
        row_counts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::{BinLayout, Entry};
    use crate::config::BinMapping;

    /// Builds BinnedTuples from explicit (row, col, val) triplets already
    /// grouped and sorted per bin.
    fn build(
        nrows: usize,
        ncols: usize,
        nbins: usize,
        mapping: BinMapping,
        triplets: &[(u32, u32, f64)],
    ) -> BinnedTuples<f64> {
        let layout = BinLayout::new(nrows, ncols, nbins, mapping);
        let mut per_bin: Vec<Vec<Entry<f64>>> = vec![Vec::new(); layout.nbins];
        for &(r, c, v) in triplets {
            per_bin[layout.bin_of(r)].push(Entry {
                key: layout.pack(r, c),
                val: v,
            });
        }
        for bin in &mut per_bin {
            bin.sort_by_key(|e| e.key);
        }
        let mut entries = Vec::new();
        let mut bin_offsets = vec![0usize];
        let mut compressed_len = Vec::new();
        for bin in per_bin {
            compressed_len.push(bin.len());
            entries.extend(bin);
            bin_offsets.push(entries.len());
        }
        BinnedTuples {
            entries,
            bin_offsets,
            compressed_len,
            layout,
        }
    }

    #[test]
    fn assembles_simple_matrix_with_range_mapping() {
        let triplets = [
            (0u32, 1u32, 1.0),
            (0, 3, 2.0),
            (2, 0, 3.0),
            (3, 3, 4.0),
            (5, 2, 5.0),
        ];
        let tuples = build(6, 4, 3, BinMapping::Range, &triplets);
        let c = assemble(&tuples, &StatsCollector::new());
        assert_eq!(c.shape(), (6, 4));
        assert_eq!(c.nnz(), 5);
        assert_eq!(c.get(0, 1), Some(1.0));
        assert_eq!(c.get(0, 3), Some(2.0));
        assert_eq!(c.get(2, 0), Some(3.0));
        assert_eq!(c.get(3, 3), Some(4.0));
        assert_eq!(c.get(5, 2), Some(5.0));
        assert_eq!(c.get(1, 1), None);
        assert!(c.has_sorted_indices());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn assembles_with_modulo_mapping() {
        let triplets = [
            (0u32, 0u32, 1.0),
            (1, 1, 2.0),
            (2, 2, 3.0),
            (3, 0, 4.0),
            (4, 4, 5.0),
        ];
        let tuples = build(5, 5, 2, BinMapping::Modulo, &triplets);
        let c = assemble(&tuples, &StatsCollector::new());
        assert_eq!(c.nnz(), 5);
        for &(r, cc, v) in &triplets {
            assert_eq!(c.get(r as usize, cc as usize), Some(v));
        }
        assert!(c.validate().is_ok());
    }

    #[test]
    fn empty_rows_and_empty_bins() {
        // Rows 1..9 are empty; bin 1 (rows 4..8 with 3 bins over 10 rows) has
        // no tuples at all.
        let triplets = [(0u32, 0u32, 1.0), (9, 9, 2.0)];
        let tuples = build(10, 10, 3, BinMapping::Range, &triplets);
        let stats = StatsCollector::new();
        let c = assemble(&tuples, &stats);
        assert_eq!(stats.snapshot().nonempty_rows, 2);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 0), Some(1.0));
        assert_eq!(c.get(9, 9), Some(2.0));
        assert_eq!(c.row_nnz(5), 0);
    }

    #[test]
    fn completely_empty_product() {
        let tuples = build(4, 4, 2, BinMapping::Range, &[]);
        let c = assemble(&tuples, &StatsCollector::new());
        assert_eq!(c.shape(), (4, 4));
        assert_eq!(c.nnz(), 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn dense_row_is_assembled_in_column_order() {
        let triplets: Vec<(u32, u32, f64)> =
            (0..32u32).rev().map(|c| (3u32, c, c as f64)).collect();
        let tuples = build(8, 32, 4, BinMapping::Range, &triplets);
        let c = assemble(&tuples, &StatsCollector::new());
        assert_eq!(c.row_nnz(3), 32);
        let (cols, vals) = c.row(3);
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(vals[5], 5.0);
    }
}
