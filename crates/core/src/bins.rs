//! Propagation bins: the row→bin mapping, packed sort keys and the binned
//! tuple container shared by the expand, sort, compress and assemble phases.
//!
//! A *bin* holds the expanded tuples whose output row falls into the bin's
//! row range: each bin covers a contiguous range of `rows_per_bin` rows,
//! which lets the sort key store only the row's offset inside the bin
//! (`log2(rows_per_bin)` bits) next to the column index — the paper's
//! "squeeze keys into fewer bytes" optimisation (Sec. III-D) that reduces
//! the number of radix passes.

use pb_sparse::stats::bits_needed;
use pb_sparse::Index;

/// One expanded tuple: the packed `(row, col)` key and the multiplied value.
///
/// This is the in-memory representation of one entry of `Ĉ`; for `f64`
/// values it occupies 16 bytes, matching the paper's per-tuple byte count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry<V> {
    /// Packed sort key (see [`BinLayout::pack`]).
    pub key: u64,
    /// The multiplied value `A(i,k)·B(k,j)`.
    pub val: V,
}

/// Geometry of the propagation bins for one multiplication: bin `b`
/// covers rows `b · rows_per_bin .. (b + 1) · rows_per_bin` (the last bin
/// may cover fewer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinLayout {
    /// Rows of the output matrix.
    pub nrows: usize,
    /// Columns of the output matrix.
    pub ncols: usize,
    /// Number of global bins.
    pub nbins: usize,
    /// Rows covered by each bin (the last bin may cover fewer).
    pub rows_per_bin: usize,
    /// Bits used for the column index inside the packed key.
    pub col_bits: u32,
    /// Bits used for the row offset inside the bin in the packed key.
    pub row_bits: u32,
}

impl BinLayout {
    /// Computes the layout for an output matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize, nbins: usize) -> Self {
        let nbins = nbins.clamp(1, nrows.max(1));
        let rows_per_bin = nrows.div_ceil(nbins).max(1);
        // The row part of the key only needs to cover the offset inside a
        // bin.
        let col_bits = bits_needed(ncols.saturating_sub(1) as u64);
        let row_bits = bits_needed(rows_per_bin.saturating_sub(1) as u64);
        assert!(
            col_bits + row_bits <= 64,
            "packed key does not fit in 64 bits ({row_bits} row bits + {col_bits} column bits)"
        );
        BinLayout {
            nrows,
            ncols,
            nbins,
            rows_per_bin,
            col_bits,
            row_bits,
        }
    }

    /// Number of bins actually used (bins can be empty but never exceed the
    /// number of rows).
    #[inline]
    pub fn nbins(&self) -> usize {
        self.nbins
    }

    /// First row covered by `bin`.
    #[inline]
    pub fn bin_row_start(&self, bin: usize) -> usize {
        bin * self.rows_per_bin
    }

    /// The bin that receives tuples of output row `row`.
    #[inline]
    pub fn bin_of(&self, row: Index) -> usize {
        (row as usize) / self.rows_per_bin
    }

    /// Packs `(row, col)` into the sort key used inside `row`'s bin.
    ///
    /// Keys within one bin sort in `(row, col)` order; keys from different
    /// bins are never compared.
    #[inline]
    pub fn pack(&self, row: Index, col: Index) -> u64 {
        self.pack_row(row) | col as u64
    }

    /// Pre-shifted row part of the key for `row`; OR it with a column index
    /// to obtain the full key.  Hoisting this out of the inner expand loop
    /// avoids one division per tuple.
    #[inline]
    pub fn pack_row(&self, row: Index) -> u64 {
        ((row as usize % self.rows_per_bin) as u64) << self.col_bits
    }

    /// Recovers `(row, col)` from a packed key, given the bin it came from.
    #[inline]
    pub fn unpack(&self, bin: usize, key: u64) -> (Index, Index) {
        let col = (key & ((1u64 << self.col_bits) - 1)) as Index;
        let row = (bin * self.rows_per_bin) as u64 + (key >> self.col_bits);
        (row as Index, col)
    }

    /// Number of significant bytes of the packed keys — the number of radix
    /// passes the sort needs.
    #[inline]
    pub fn key_bytes(&self) -> u32 {
        (self.row_bits + self.col_bits).div_ceil(8)
    }

    /// Number of rows mapped to `bin`.
    pub fn bin_row_count(&self, bin: usize) -> usize {
        let start = bin * self.rows_per_bin;
        if start >= self.nrows {
            0
        } else {
            (self.nrows - start).min(self.rows_per_bin)
        }
    }
}

/// The expanded matrix `Ĉ`, partitioned into propagation bins.
///
/// `entries[bin_offsets[b]..bin_offsets[b+1]]` are the tuples of bin `b`;
/// after compression only the first `compressed_len[b]` of them are live.
#[derive(Debug)]
pub struct BinnedTuples<V> {
    /// All expanded tuples, grouped by bin.
    pub entries: Vec<Entry<V>>,
    /// Prefix offsets of each bin inside `entries` (`nbins + 1` values).
    pub bin_offsets: Vec<usize>,
    /// Number of live tuples per bin after compression (equals the bin size
    /// right after expansion).
    pub compressed_len: Vec<usize>,
    /// Bin geometry.
    pub layout: BinLayout,
}

impl<V> BinnedTuples<V> {
    /// Total number of expanded tuples (the multiplication's flop).
    pub fn flop(&self) -> usize {
        *self.bin_offsets.last().unwrap_or(&0)
    }

    /// Total number of live tuples after compression.
    pub fn compressed_total(&self) -> usize {
        self.compressed_len.iter().sum()
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.layout.nbins
    }

    /// The live tuples of bin `b` (all tuples before compression, the merged
    /// ones after).
    pub fn bin(&self, b: usize) -> &[Entry<V>] {
        &self.entries[self.bin_offsets[b]..self.bin_offsets[b] + self.compressed_len[b]]
    }

    /// Size in bytes of one stored tuple.
    pub fn tuple_bytes() -> usize {
        std::mem::size_of::<Entry<V>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_mapping_assigns_contiguous_blocks() {
        let l = BinLayout::new(100, 50, 4);
        assert_eq!(l.rows_per_bin, 25);
        assert_eq!(l.bin_of(0), 0);
        assert_eq!(l.bin_of(24), 0);
        assert_eq!(l.bin_of(25), 1);
        assert_eq!(l.bin_of(99), 3);
        assert_eq!((0..4).map(|b| l.bin_row_count(b)).sum::<usize>(), 100);
    }

    #[test]
    fn pack_unpack_roundtrip_range() {
        let l = BinLayout::new(1 << 20, 1 << 20, 1024);
        // 1M rows over 1024 bins -> 1024 rows per bin -> 10 row bits,
        // 20 column bits: 30-bit keys, i.e. 4 radix bytes (the paper's
        // "squeeze into 4-byte keys" example).
        assert_eq!(l.rows_per_bin, 1024);
        assert_eq!(l.row_bits, 10);
        assert_eq!(l.col_bits, 20);
        assert_eq!(l.key_bytes(), 4);
        for &(r, c) in &[
            (0u32, 0u32),
            (123_456, 7),
            (1_048_575, 1_048_575),
            (524_288, 99_999),
        ] {
            let bin = l.bin_of(r);
            let key = l.pack(r, c);
            assert_eq!(l.unpack(bin, key), (r, c));
            assert_eq!(
                l.pack_row(r) | c as u64,
                key,
                "pack_row must agree with pack"
            );
        }
    }

    #[test]
    fn keys_sort_in_row_major_order_within_a_bin() {
        let l = BinLayout::new(64, 64, 8);
        // Rows 8..16 share bin 1; their keys must sort by (row, col).
        let mut keys: Vec<(u64, (Index, Index))> = Vec::new();
        for r in 8..16u32 {
            for c in [0u32, 5, 63] {
                keys.push((l.pack(r, c), (r, c)));
            }
        }
        let mut sorted = keys.clone();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        let coords: Vec<_> = sorted.iter().map(|&(_, rc)| rc).collect();
        let mut expected: Vec<_> = keys.iter().map(|&(_, rc)| rc).collect();
        expected.sort_unstable();
        assert_eq!(coords, expected);
    }

    #[test]
    fn single_bin_and_tiny_matrices() {
        let l = BinLayout::new(1, 1, 1);
        assert_eq!(l.bin_of(0), 0);
        assert_eq!(l.unpack(0, l.pack(0, 0)), (0, 0));
        assert_eq!(l.key_bytes(), 1);

        let l = BinLayout::new(10, 10, 100);
        assert_eq!(l.nbins, 10, "nbins is clamped to the number of rows");
    }

    #[test]
    fn key_bytes_shrink_with_more_bins() {
        let few = BinLayout::new(1 << 20, 1 << 10, 2);
        let many = BinLayout::new(1 << 20, 1 << 10, 4096);
        assert!(many.key_bytes() < few.key_bytes());
    }

    #[test]
    fn binned_tuples_accessors() {
        let layout = BinLayout::new(4, 4, 2);
        let bt = BinnedTuples {
            entries: vec![
                Entry { key: 1, val: 1.0 },
                Entry { key: 2, val: 2.0 },
                Entry { key: 0, val: 3.0 },
            ],
            bin_offsets: vec![0, 2, 3],
            compressed_len: vec![2, 1],
            layout,
        };
        assert_eq!(bt.flop(), 3);
        assert_eq!(bt.compressed_total(), 3);
        assert_eq!(bt.nbins(), 2);
        assert_eq!(bt.bin(0).len(), 2);
        assert_eq!(bt.bin(1)[0].val, 3.0);
        assert_eq!(BinnedTuples::<f64>::tuple_bytes(), 16);
    }
}
