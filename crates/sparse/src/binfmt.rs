//! A small binary on-disk format for CSR matrices.
//!
//! The benchmark harness regenerates synthetic matrices for every figure; for
//! the larger scales that regeneration dominates the run time.  This module
//! provides a compact little-endian binary format so generated matrices (and
//! SpGEMM results) can be cached on disk and memory-streamed back without the
//! Matrix Market text-parsing overhead.
//!
//! Version 2 layout (all integers little-endian):
//!
//! ```text
//! magic      4 bytes   b"PBSM"
//! version    u32       currently 2
//! type tag   u32       element type (see [`BinaryScalar::TAG`])
//! nrows      u64
//! ncols      u64
//! nnz        u64
//! -- zero padding to the next 64-byte boundary --
//! rowptr     (nrows + 1) × u64
//! -- zero padding to the next 64-byte boundary --
//! colidx     nnz × u32
//! -- zero padding to the next 64-byte boundary --
//! values     nnz × sizeof(T)
//! ```
//!
//! The 64-byte section alignment is what makes the zero-copy path possible:
//! [`MappedCsr`] memory-maps a version-2 file (see [`crate::mmapio`]) and
//! serves `rowptr`/`colidx`/`values` directly out of the page cache as typed
//! slices, never materialising a heap copy.  Version-1 files (header
//! immediately followed by unpadded sections) are still read transparently by
//! [`read_csr_from`], which copies; only the mapped view requires v2.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::path::Path;

use crate::csr::Csr;
use crate::error::SparseError;
use crate::mmapio::Mapping;
use crate::{Index, Scalar, MAX_DIM};

/// File magic identifying the format.
pub const MAGIC: &[u8; 4] = b"PBSM";
/// Current format version (64-byte-aligned sections; see the module docs).
pub const VERSION: u32 = 2;
/// The legacy unaligned version, still accepted by the copying reader.
pub const LEGACY_VERSION: u32 = 1;
/// Fixed header size in bytes (shared by both versions).
pub const HEADER_BYTES: usize = 36;
/// Alignment of every section start in a version-2 file.
pub const SECTION_ALIGN: usize = 64;

/// A scalar type that can be serialised into the binary matrix format.
///
/// Implementations must be plain-old-data numeric types whose in-memory
/// representation on a little-endian host equals their `write_le` byte
/// serialisation — [`MappedCsr::values`] relies on this to reinterpret the
/// mapped bytes in place.
pub trait BinaryScalar: Scalar {
    /// Unique tag identifying the element type in the file header.
    const TAG: u32;
    /// Size of one encoded element in bytes.
    const WIDTH: usize;
    /// Encodes `self` into little-endian bytes appended to `out`.
    fn write_le(&self, out: &mut Vec<u8>);
    /// Decodes one element from `bytes` (exactly [`BinaryScalar::WIDTH`] bytes).
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_binary_scalar {
    ($($t:ty => $tag:expr),* $(,)?) => {
        $(
            impl BinaryScalar for $t {
                const TAG: u32 = $tag;
                const WIDTH: usize = std::mem::size_of::<$t>();
                #[inline]
                fn write_le(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn read_le(bytes: &[u8]) -> Self {
                    <$t>::from_le_bytes(bytes.try_into().expect("caller slices WIDTH bytes"))
                }
            }
        )*
    };
}

impl_binary_scalar!(
    f64 => 1,
    f32 => 2,
    u64 => 3,
    u32 => 4,
    i64 => 5,
    i32 => 6,
);

fn bin_err(detail: impl Into<String>) -> SparseError {
    SparseError::Binary {
        detail: detail.into(),
    }
}

fn align_up(off: usize, align: usize) -> usize {
    off.div_ceil(align) * align
}

/// Byte offsets of the three sections of a version-2 file, derived purely
/// from the header fields.  Shared by the writer and the mapped reader so
/// the two can never disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionLayout {
    /// Offset of the `rowptr` section (`(nrows + 1) × u64`).
    pub rowptr_off: usize,
    /// Offset of the `colidx` section (`nnz × u32`).
    pub colidx_off: usize,
    /// Offset of the `values` section (`nnz × width`).
    pub values_off: usize,
    /// Exact total file size in bytes.
    pub total_bytes: usize,
}

/// Computes the section layout of a version-2 file.
pub fn section_layout(nrows: usize, nnz: usize, width: usize) -> SectionLayout {
    let rowptr_off = align_up(HEADER_BYTES, SECTION_ALIGN);
    let colidx_off = align_up(rowptr_off + (nrows + 1) * 8, SECTION_ALIGN);
    let values_off = align_up(colidx_off + nnz * 4, SECTION_ALIGN);
    SectionLayout {
        rowptr_off,
        colidx_off,
        values_off,
        total_bytes: values_off + nnz * width,
    }
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), SparseError> {
    r.read_exact(buf)
        .map_err(|e| bin_err(format!("short read while reading {what}: {e}")))
}

fn read_u32<R: Read>(r: &mut R, what: &str) -> Result<u32, SparseError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, SparseError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

fn skip<R: Read>(r: &mut R, mut n: usize, what: &str) -> Result<(), SparseError> {
    let mut buf = [0u8; 64];
    while n > 0 {
        let take = n.min(buf.len());
        read_exact(r, &mut buf[..take], what)?;
        n -= take;
    }
    Ok(())
}

fn write_header<W: Write>(
    w: &mut W,
    version: u32,
    tag: u32,
    nrows: usize,
    ncols: usize,
    nnz: usize,
) -> Result<(), SparseError> {
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&version.to_le_bytes());
    header.extend_from_slice(&tag.to_le_bytes());
    header.extend_from_slice(&(nrows as u64).to_le_bytes());
    header.extend_from_slice(&(ncols as u64).to_le_bytes());
    header.extend_from_slice(&(nnz as u64).to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_BYTES);
    w.write_all(&header)?;
    Ok(())
}

// rowptr, colidx and values are written and read in chunks of this many
// elements, to bound the staging buffer for very large matrices.
const CHUNK: usize = 1 << 16;

fn write_sections<W: Write, T: BinaryScalar>(
    w: &mut W,
    m: &Csr<T>,
    pad_to: Option<SectionLayout>,
) -> Result<(), SparseError> {
    const ZEROS: [u8; SECTION_ALIGN] = [0u8; SECTION_ALIGN];
    let pad = |w: &mut W, from: usize, to: usize| -> Result<(), SparseError> {
        debug_assert!(to >= from && to - from < SECTION_ALIGN);
        w.write_all(&ZEROS[..to - from])?;
        Ok(())
    };

    if let Some(layout) = pad_to {
        pad(w, HEADER_BYTES, layout.rowptr_off)?;
    }
    let mut buf = Vec::with_capacity(CHUNK * 8);
    for chunk in m.rowptr().chunks(CHUNK) {
        buf.clear();
        for &p in chunk {
            buf.extend_from_slice(&(p as u64).to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    if let Some(layout) = pad_to {
        pad(
            w,
            layout.rowptr_off + (m.nrows() + 1) * 8,
            layout.colidx_off,
        )?;
    }
    for chunk in m.colidx().chunks(CHUNK) {
        buf.clear();
        for &c in chunk {
            buf.extend_from_slice(&c.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    if let Some(layout) = pad_to {
        pad(w, layout.colidx_off + m.nnz() * 4, layout.values_off)?;
    }
    for chunk in m.values().chunks(CHUNK) {
        buf.clear();
        for v in chunk {
            v.write_le(&mut buf);
        }
        w.write_all(&buf)?;
    }
    w.flush()?;
    Ok(())
}

/// Serialises a CSR matrix to any writer (version 2, aligned sections).
pub fn write_csr_to<W: Write, T: BinaryScalar>(mut w: W, m: &Csr<T>) -> Result<(), SparseError> {
    write_header(&mut w, VERSION, T::TAG, m.nrows(), m.ncols(), m.nnz())?;
    let layout = section_layout(m.nrows(), m.nnz(), T::WIDTH);
    write_sections(&mut w, m, Some(layout))
}

/// Serialises a CSR matrix in the legacy unaligned version-1 layout.
///
/// Kept so the version-1 read path stays covered and older tooling can be
/// fed; new files should use [`write_csr_to`].
pub fn write_csr_v1_to<W: Write, T: BinaryScalar>(mut w: W, m: &Csr<T>) -> Result<(), SparseError> {
    write_header(
        &mut w,
        LEGACY_VERSION,
        T::TAG,
        m.nrows(),
        m.ncols(),
        m.nnz(),
    )?;
    write_sections(&mut w, m, None)
}

/// Deserialises a CSR matrix from any reader (accepts versions 1 and 2).
pub fn read_csr_from<R: Read, T: BinaryScalar>(mut r: R) -> Result<Csr<T>, SparseError> {
    let mut magic = [0u8; 4];
    read_exact(&mut r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(bin_err(format!("bad magic {magic:?}, expected {MAGIC:?}")));
    }
    let version = read_u32(&mut r, "version")?;
    if version != VERSION && version != LEGACY_VERSION {
        return Err(bin_err(format!(
            "unsupported version {version} (this build reads {LEGACY_VERSION} and {VERSION})"
        )));
    }
    let tag = read_u32(&mut r, "type tag")?;
    if tag != T::TAG {
        return Err(bin_err(format!(
            "element type mismatch: file stores tag {tag}, caller requested tag {}",
            T::TAG
        )));
    }
    let nrows = read_u64(&mut r, "nrows")? as usize;
    let ncols = read_u64(&mut r, "ncols")? as usize;
    let nnz = read_u64(&mut r, "nnz")? as usize;
    if nrows > MAX_DIM || ncols > MAX_DIM {
        return Err(bin_err(format!(
            "declared shape {nrows}x{ncols} exceeds the u32 index space"
        )));
    }
    // A lying header must produce a typed error, never an abort: reject a
    // declared nnz that would overflow the section-layout arithmetic (the
    // same guard the mapped reader applies before its length check).
    if nnz.checked_mul(4 + T::WIDTH).is_none() {
        return Err(bin_err(format!(
            "declared nnz {nnz} overflows the addressable file size"
        )));
    }

    let layout = (version == VERSION).then(|| section_layout(nrows, nnz, T::WIDTH));
    if let Some(l) = layout {
        skip(&mut r, l.rowptr_off - HEADER_BYTES, "section padding")?;
    }
    let rowptr = read_section(&mut r, nrows + 1, 8, "rowptr", |b| {
        u64::from_le_bytes(b.try_into().expect("8-byte piece")) as usize
    })?;

    if let Some(l) = layout {
        skip(
            &mut r,
            l.colidx_off - (l.rowptr_off + (nrows + 1) * 8),
            "section padding",
        )?;
    }
    let colidx = read_section(&mut r, nnz, 4, "colidx", |b| {
        Index::from_le_bytes(b.try_into().expect("4-byte piece"))
    })?;

    if let Some(l) = layout {
        skip(
            &mut r,
            l.values_off - (l.colidx_off + nnz * 4),
            "section padding",
        )?;
    }
    let values = read_section(&mut r, nnz, T::WIDTH, "values", T::read_le)?;

    Csr::from_parts(nrows, ncols, rowptr, colidx, values)
}

/// Reads `count` elements of `width` bytes each, in pieces of at most
/// [`CHUNK`] elements, decoding every piece with `decode`.  Memory grows
/// with the bytes actually read, so the stream, not the untrusted header,
/// bounds it: a short file fails at its next piece, long before a huge
/// declared count could drive an allocation anywhere near it.
fn read_section<R: Read, T>(
    r: &mut R,
    count: usize,
    width: usize,
    what: &str,
    decode: impl Fn(&[u8]) -> T,
) -> Result<Vec<T>, SparseError> {
    let mut out = Vec::with_capacity(count.min(CHUNK));
    let mut buf = vec![0u8; count.min(CHUNK) * width];
    let mut left = count;
    while left > 0 {
        let take = left.min(CHUNK);
        let piece = &mut buf[..take * width];
        read_exact(r, piece, what)?;
        out.extend(piece.chunks_exact(width).map(&decode));
        left -= take;
    }
    Ok(out)
}

/// Writes a CSR matrix to `path` (buffered, version 2).
pub fn write_csr<T: BinaryScalar>(path: impl AsRef<Path>, m: &Csr<T>) -> Result<(), SparseError> {
    let file = File::create(path)?;
    write_csr_to(BufWriter::new(file), m)
}

/// Reads a CSR matrix from `path` (buffered; accepts versions 1 and 2).
pub fn read_csr<T: BinaryScalar>(path: impl AsRef<Path>) -> Result<Csr<T>, SparseError> {
    let file = File::open(path)?;
    read_csr_from(BufReader::new(file))
}

/// Reads only the header of a binary matrix file: `(version, tag, nrows,
/// ncols, nnz)`.  Cheap — used for budget prechecks before a full load.
pub fn peek_header(path: impl AsRef<Path>) -> Result<(u32, u32, usize, usize, usize), SparseError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    read_exact(&mut r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(bin_err(format!("bad magic {magic:?}, expected {MAGIC:?}")));
    }
    let version = read_u32(&mut r, "version")?;
    let tag = read_u32(&mut r, "type tag")?;
    let nrows = read_u64(&mut r, "nrows")? as usize;
    let ncols = read_u64(&mut r, "ncols")? as usize;
    let nnz = read_u64(&mut r, "nnz")? as usize;
    Ok((version, tag, nrows, ncols, nnz))
}

// ---------------------------------------------------------------------------
// Zero-copy mapped view
// ---------------------------------------------------------------------------

/// A CSR matrix served directly out of a memory-mapped version-2 file.
///
/// `open` validates the header, the exact file length, and the row-pointer
/// invariants once; after that [`MappedCsr::rowptr`], [`MappedCsr::colidx`]
/// and [`MappedCsr::values`] are plain typed slices into the mapping — no
/// heap copy of the matrix ever exists unless [`MappedCsr::to_csr`] (or a
/// row-range extraction) asks for one.  The out-of-core tile store leans on
/// this for spilled-tile reads.
pub struct MappedCsr<T: BinaryScalar> {
    map: Mapping,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    layout: SectionLayout,
    _elem: PhantomData<T>,
}

impl<T: BinaryScalar> MappedCsr<T> {
    /// Maps `path` and validates it as a version-2 file of element type `T`.
    ///
    /// Version-1 files are rejected with a typed error pointing at
    /// [`read_csr`] (their sections are unaligned, so they can only be read
    /// by copying); so is any truncated, oversized or malformed file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SparseError> {
        let map = Mapping::map(path.as_ref())?;
        Self::from_mapping(map)
    }

    fn from_mapping(map: Mapping) -> Result<Self, SparseError> {
        if cfg!(target_endian = "big") {
            return Err(bin_err(
                "zero-copy mapped views require a little-endian host; use read_csr",
            ));
        }
        let bytes = map.bytes();
        if bytes.len() < HEADER_BYTES {
            return Err(bin_err(format!(
                "file is {} bytes, shorter than the {HEADER_BYTES}-byte header",
                bytes.len()
            )));
        }
        if &bytes[..4] != MAGIC {
            return Err(bin_err(format!(
                "bad magic {:?}, expected {MAGIC:?}",
                &bytes[..4]
            )));
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let version = u32_at(4);
        if version == LEGACY_VERSION {
            return Err(bin_err(
                "version 1 files have unaligned sections and cannot be mapped zero-copy; \
                 use read_csr or re-write the file with write_csr",
            ));
        }
        if version != VERSION {
            return Err(bin_err(format!(
                "unsupported version {version} (mapped reads require {VERSION})"
            )));
        }
        let tag = u32_at(8);
        if tag != T::TAG {
            return Err(bin_err(format!(
                "element type mismatch: file stores tag {tag}, caller requested tag {}",
                T::TAG
            )));
        }
        let nrows = u64_at(12);
        let ncols = u64_at(20);
        let nnz = u64_at(28);
        if nrows > MAX_DIM as u64 || ncols > MAX_DIM as u64 {
            return Err(bin_err(format!(
                "declared shape {nrows}x{ncols} exceeds the u32 index space"
            )));
        }
        let (nrows, ncols, nnz) = (nrows as usize, ncols as usize, nnz as usize);
        // An absurd declared nnz must fail the length check below, not
        // overflow the layout arithmetic first.
        let layout = match nnz
            .checked_mul(4)
            .and_then(|c| nnz.checked_mul(T::WIDTH).map(|v| (c, v)))
        {
            Some(_) => section_layout(nrows, nnz, T::WIDTH),
            None => {
                return Err(bin_err(format!(
                    "declared nnz {nnz} overflows the addressable file size"
                )))
            }
        };
        if bytes.len() != layout.total_bytes {
            return Err(bin_err(format!(
                "file is {} bytes but the header describes exactly {} \
                 (truncated or oversized file)",
                bytes.len(),
                layout.total_bytes
            )));
        }
        let mapped = MappedCsr {
            map,
            nrows,
            ncols,
            nnz,
            layout,
            _elem: PhantomData,
        };
        // Validate the row pointers once so row-range slicing is safe.
        let rp = mapped.rowptr();
        if rp[0] != 0 {
            return Err(bin_err(format!("rowptr[0] = {} (expected 0)", rp[0])));
        }
        if rp.windows(2).any(|w| w[0] > w[1]) {
            return Err(bin_err("rowptr is not monotonically non-decreasing"));
        }
        if rp[mapped.nrows] != mapped.nnz as u64 {
            return Err(bin_err(format!(
                "rowptr[last] = {} but the header declares nnz = {}",
                rp[mapped.nrows], mapped.nnz
            )));
        }
        Ok(mapped)
    }

    fn typed_slice<U>(&self, off: usize, count: usize) -> &[U] {
        let bytes = &self.map.bytes()[off..off + count * std::mem::size_of::<U>()];
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<U>(), 0);
        // SAFETY: the mapping base is at least 8-byte aligned (page-aligned
        // for real mappings, u64-backed for the heap fallback), section
        // offsets are multiples of SECTION_ALIGN, the byte range was bounds-
        // checked above, and `U` is a plain-old-data numeric type whose LE
        // byte serialisation equals its in-memory layout on this
        // (little-endian, enforced in from_mapping) host.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const U, count) }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// `true` when the slices come straight from the page cache (a real
    /// kernel mapping rather than the heap-read fallback).
    pub fn is_zero_copy(&self) -> bool {
        self.map.is_zero_copy()
    }

    /// The row-pointer section, in place.
    pub fn rowptr(&self) -> &[u64] {
        self.typed_slice(self.layout.rowptr_off, self.nrows + 1)
    }

    /// The column-index section, in place.
    pub fn colidx(&self) -> &[Index] {
        self.typed_slice(self.layout.colidx_off, self.nnz)
    }

    /// The values section, in place.
    pub fn values(&self) -> &[T] {
        self.typed_slice(self.layout.values_off, self.nnz)
    }

    /// Materialises the whole matrix as an owned, fully validated [`Csr`].
    pub fn to_csr(&self) -> Result<Csr<T>, SparseError> {
        self.extract_rows(0, self.nrows)
    }

    /// Materialises rows `r0..r1` as an owned [`Csr`] with the same column
    /// space — the building block for streaming row-block tiles out of a
    /// matrix that never fits in memory whole.
    pub fn extract_rows(&self, r0: usize, r1: usize) -> Result<Csr<T>, SparseError> {
        if r0 > r1 || r1 > self.nrows {
            return Err(bin_err(format!(
                "row range {r0}..{r1} out of bounds for {} rows",
                self.nrows
            )));
        }
        let rp = self.rowptr();
        let (start, end) = (rp[r0] as usize, rp[r1] as usize);
        let rowptr: Vec<usize> = rp[r0..=r1].iter().map(|&p| (p as usize) - start).collect();
        let colidx = self.colidx()[start..end].to_vec();
        let values = self.values()[start..end].to_vec();
        Csr::from_parts(r1 - r0, self.ncols, rowptr, colidx, values)
    }
}

impl<T: BinaryScalar> std::fmt::Debug for MappedCsr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedCsr")
            .field("shape", &self.shape())
            .field("nnz", &self.nnz)
            .field("zero_copy", &self.is_zero_copy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csr<f64> {
        Coo::from_entries(
            5,
            7,
            vec![
                (0, 0, 1.5),
                (0, 6, -2.0),
                (2, 3, 0.25),
                (4, 1, 1e300),
                (4, 6, -0.0),
            ],
        )
        .unwrap()
        .to_csr()
    }

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pb_sparse_binfmt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_{}", std::process::id(), name));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn roundtrip_f64_in_memory() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();
        let back: Csr<f64> = read_csr_from(buf.as_slice()).unwrap();
        assert_eq!(back.shape(), m.shape());
        assert_eq!(back.rowptr(), m.rowptr());
        assert_eq!(back.colidx(), m.colidx());
        assert_eq!(back.values(), m.values());
    }

    #[test]
    fn legacy_v1_files_still_read() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr_v1_to(&mut buf, &m).unwrap();
        assert_eq!(&buf[4..8], &1u32.to_le_bytes());
        let back: Csr<f64> = read_csr_from(buf.as_slice()).unwrap();
        assert_eq!(back.rowptr(), m.rowptr());
        assert_eq!(back.colidx(), m.colidx());
        assert_eq!(back.values(), m.values());
    }

    #[test]
    fn v2_sections_are_aligned() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();
        let layout = section_layout(m.nrows(), m.nnz(), 8);
        assert_eq!(buf.len(), layout.total_bytes);
        assert_eq!(layout.rowptr_off % SECTION_ALIGN, 0);
        assert_eq!(layout.colidx_off % SECTION_ALIGN, 0);
        assert_eq!(layout.values_off % SECTION_ALIGN, 0);
    }

    #[test]
    fn roundtrip_integer_values() {
        let m: Csr<u64> = sample().map_values(|v| v.abs() as u64);
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();
        let back: Csr<u64> = read_csr_from(buf.as_slice()).unwrap();
        assert_eq!(back.values(), m.values());

        let m: Csr<i32> = sample().map_values(|v| v as i32);
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();
        let back: Csr<i32> = read_csr_from(buf.as_slice()).unwrap();
        assert_eq!(back.colidx(), m.colidx());
    }

    #[test]
    fn roundtrip_empty_matrix() {
        let m: Csr<f32> = Csr::empty(3, 9);
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();
        let back: Csr<f32> = read_csr_from(buf.as_slice()).unwrap();
        assert_eq!(back.shape(), (3, 9));
        assert_eq!(back.nnz(), 0);
    }

    #[test]
    fn roundtrip_through_a_file() {
        let m = sample();
        let path = temp_file("sample.pbsm", &[]);
        write_csr(&path, &m).unwrap();
        let back: Csr<f64> = read_csr(&path).unwrap();
        assert_eq!(back.values(), m.values());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn peek_header_reads_dims_only() {
        let m = sample();
        let path = temp_file("peek.pbsm", &[]);
        write_csr(&path, &m).unwrap();
        let (version, tag, nrows, ncols, nnz) = peek_header(&path).unwrap();
        assert_eq!(version, VERSION);
        assert_eq!(tag, f64::TAG);
        assert_eq!((nrows, ncols, nnz), (5, 7, 5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_view_is_bit_identical() {
        let m = sample();
        let path = temp_file("mapped.pbsm", &[]);
        write_csr(&path, &m).unwrap();
        let mapped: MappedCsr<f64> = MappedCsr::open(&path).unwrap();
        assert_eq!(mapped.shape(), m.shape());
        assert_eq!(mapped.colidx(), m.colidx());
        let rp: Vec<usize> = mapped.rowptr().iter().map(|&p| p as usize).collect();
        assert_eq!(rp.as_slice(), m.rowptr());
        // -0.0 vs 0.0 and 1e300 must round-trip bit-for-bit.
        let bits: Vec<u64> = mapped.values().iter().map(|v| v.to_bits()).collect();
        let expect: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expect);
        let back = mapped.to_csr().unwrap();
        assert_eq!(back.rowptr(), m.rowptr());
        assert_eq!(back.colidx(), m.colidx());
        assert_eq!(back.values(), m.values());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_row_extraction_matches_full_load() {
        let m = sample();
        let path = temp_file("rows.pbsm", &[]);
        write_csr(&path, &m).unwrap();
        let mapped: MappedCsr<f64> = MappedCsr::open(&path).unwrap();
        let block = mapped.extract_rows(2, 5).unwrap();
        assert_eq!(block.shape(), (3, 7));
        assert_eq!(block.nnz(), 3);
        assert_eq!(block.values(), &m.values()[2..]);
        assert!(mapped.extract_rows(4, 2).is_err());
        assert!(mapped.extract_rows(0, 99).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_rejects_v1_with_a_pointer_to_read_csr() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr_v1_to(&mut buf, &m).unwrap();
        let path = temp_file("v1.pbsm", &buf);
        let err = MappedCsr::<f64>::open(&path).unwrap_err();
        assert!(matches!(err, SparseError::Binary { .. }));
        assert!(err.to_string().contains("read_csr"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_rejects_truncated_and_oversized_files() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();

        let mut short = buf.clone();
        short.truncate(short.len() - 5);
        let path = temp_file("short.pbsm", &short);
        let err = MappedCsr::<f64>::open(&path).unwrap_err();
        assert!(err.to_string().contains("truncated or oversized"));
        std::fs::remove_file(&path).ok();

        let mut long = buf.clone();
        long.extend_from_slice(&[0u8; 13]);
        let path = temp_file("long.pbsm", &long);
        let err = MappedCsr::<f64>::open(&path).unwrap_err();
        assert!(err.to_string().contains("truncated or oversized"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_rejects_nonmonotonic_rowptr() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();
        let layout = section_layout(m.nrows(), m.nnz(), 8);
        let off = layout.rowptr_off + 8;
        buf[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let path = temp_file("badrp.pbsm", &buf);
        let err = MappedCsr::<f64>::open(&path).unwrap_err();
        assert!(err.to_string().contains("monotonically"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_rejects_absurd_nnz_without_panicking() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();
        buf[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        let path = temp_file("hugennz.pbsm", &buf);
        let err = MappedCsr::<f64>::open(&path).unwrap_err();
        assert!(matches!(err, SparseError::Binary { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &sample()).unwrap();
        buf[0] = b'X';
        let err = read_csr_from::<_, f64>(buf.as_slice()).unwrap_err();
        assert!(matches!(err, SparseError::Binary { .. }));
        assert!(err.to_string().contains("magic"));

        let path = temp_file("badmagic.pbsm", &buf);
        let err = MappedCsr::<f64>::open(&path).unwrap_err();
        assert!(err.to_string().contains("magic"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_element_type_is_rejected() {
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &sample()).unwrap();
        let err = read_csr_from::<_, u32>(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("type mismatch"));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &sample()).unwrap();
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        let err = read_csr_from::<_, f64>(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"));

        let path = temp_file("v99.pbsm", &buf);
        let err = MappedCsr::<f64>::open(&path).unwrap_err();
        assert!(err.to_string().contains("version"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_csr_from::<_, f64>(buf.as_slice()).unwrap_err();
        assert!(matches!(err, SparseError::Binary { .. }));
    }

    #[test]
    fn sections_longer_than_one_chunk_roundtrip_and_fail_typed_when_cut() {
        // 70 000 rows of 3 entries: every section spans at least two read
        // chunks.  Values are arbitrary finite bit patterns.
        let n = 70_000usize;
        let mut rowptr = vec![0usize];
        let (mut colidx, mut values) = (Vec::new(), Vec::new());
        let mut state = 7u64;
        for i in 0..n {
            let mut cols: Vec<Index> = (0..3).map(|t| ((i + t * 23_333) % n) as Index).collect();
            cols.sort_unstable();
            for c in cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                colidx.push(c);
                values.push(f64::from_bits(state >> 2));
            }
            rowptr.push(colidx.len());
        }
        let m = Csr::from_parts(n, n, rowptr, colidx, values).unwrap();
        assert!(m.nrows() > CHUNK && m.nnz() > CHUNK);

        // `sections`: each section's byte offset and element width.
        let check = |buf: &[u8], sections: [usize; 3], version: &str| {
            let back: Csr<f64> = read_csr_from(buf).unwrap();
            assert_eq!(back.rowptr(), m.rowptr(), "{version}");
            assert_eq!(back.colidx(), m.colidx(), "{version}");
            let bits = |c: &Csr<f64>| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&m), "{version}");
            for (name, (off, width)) in ["rowptr", "colidx", "values"]
                .into_iter()
                .zip(sections.into_iter().zip([8, 4, 8]))
            {
                // Mid-element, inside the section's second chunk.
                let cut = off + (CHUNK + 1000) * width + width / 2;
                let err = read_csr_from::<_, f64>(&buf[..cut]).unwrap_err();
                assert!(
                    matches!(err, SparseError::Binary { .. }) && err.to_string().contains(name),
                    "{version} cut in {name}: {err}"
                );
            }
        };
        let mut v2 = Vec::new();
        write_csr_to(&mut v2, &m).unwrap();
        let l = section_layout(m.nrows(), m.nnz(), 8);
        check(&v2, [l.rowptr_off, l.colidx_off, l.values_off], "v2");
        let mut v1 = Vec::new();
        write_csr_v1_to(&mut v1, &m).unwrap();
        let colidx_off = HEADER_BYTES + (m.nrows() + 1) * 8;
        check(
            &v1,
            [HEADER_BYTES, colidx_off, colidx_off + m.nnz() * 4],
            "v1",
        );
    }

    #[test]
    fn corrupted_structure_is_caught_by_validation() {
        // Corrupt a rowptr entry so it is non-monotonic; from_parts must
        // refuse to build the matrix.
        let m = sample();
        let mut buf = Vec::new();
        write_csr_to(&mut buf, &m).unwrap();
        let rowptr_start = section_layout(m.nrows(), m.nnz(), 8).rowptr_off;
        buf[rowptr_start + 8..rowptr_start + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_csr_from::<_, f64>(buf.as_slice()).unwrap_err();
        assert!(matches!(err, SparseError::MalformedOffsets { .. }));
    }
}
