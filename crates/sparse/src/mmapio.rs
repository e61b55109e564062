//! Read-only file mappings and huge-page advice without libc.
//!
//! The binary matrix format (see [`crate::binfmt`]) aligns its sections so a
//! mapped file can be viewed directly as `rowptr`/`colidx`/`values` slices.
//! This module provides the mapping primitive: on Linux x86-64/aarch64 it
//! issues the raw `mmap`/`munmap` syscalls (the same no-libc idiom the
//! vendored `miniloop` uses for `ppoll`), everywhere else — and whenever the
//! syscall fails — it degrades to reading the file into an 8-byte-aligned
//! heap buffer, so correctness never depends on the fast path.
//!
//! Mappings are private and read-only (`PROT_READ`, `MAP_PRIVATE`), so they
//! are safe to share across threads.
//!
//! The same raw-syscall idiom backs [`advise_huge_pages`], which asks the
//! kernel for transparent huge pages on a large, not yet touched heap
//! buffer (`madvise(MADV_HUGEPAGE)`).  A freshly allocated multi-hundred-MB
//! buffer otherwise takes one page fault per 4 KiB on its first write and
//! one TLB entry per 4 KiB afterwards; with 2 MiB pages both drop by 512x.
//! The advice never changes a buffer's contents, and the host's
//! `/sys/kernel/mm/transparent_hugepage/enabled` mode stays the only
//! control: `never` ignores it, `madvise` honours it, `always` needs none.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod raw {
    use std::io;

    pub const PROT_READ: usize = 1;
    pub const MAP_PRIVATE: usize = 2;
    pub const MADV_HUGEPAGE: usize = 14;

    #[cfg(target_arch = "x86_64")]
    const NR_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const NR_MUNMAP: usize = 11;
    #[cfg(target_arch = "x86_64")]
    const NR_MADVISE: usize = 28;
    #[cfg(target_arch = "aarch64")]
    const NR_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const NR_MUNMAP: usize = 215;
    #[cfg(target_arch = "aarch64")]
    const NR_MADVISE: usize = 233;

    fn check(res: isize) -> io::Result<usize> {
        // The kernel returns -errno in [-4095, -1] for failures.
        if (-4095..0).contains(&res) {
            Err(io::Error::from_raw_os_error(-res as i32))
        } else {
            Ok(res as usize)
        }
    }

    /// `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)`.
    ///
    /// # Safety
    /// `fd` must be a valid open file descriptor readable for at least
    /// `len` bytes; the returned pointer is only valid until `munmap`.
    pub unsafe fn mmap_readonly(len: usize, fd: i32) -> io::Result<*const u8> {
        let res: isize;
        #[cfg(target_arch = "x86_64")]
        std::arch::asm!(
            "syscall",
            inlateout("rax") NR_MMAP as isize => res,
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") fd as isize,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        #[cfg(target_arch = "aarch64")]
        std::arch::asm!(
            "svc 0",
            inlateout("x0") 0usize => res,
            in("x1") len,
            in("x2") PROT_READ,
            in("x3") MAP_PRIVATE,
            in("x4") fd as isize,
            in("x5") 0usize,
            in("x8") NR_MMAP,
            options(nostack),
        );
        check(res).map(|addr| addr as *const u8)
    }

    /// `munmap(ptr, len)`.
    ///
    /// # Safety
    /// `ptr`/`len` must describe a live mapping created by `mmap_readonly`.
    pub unsafe fn munmap(ptr: *const u8, len: usize) -> io::Result<()> {
        let res: isize;
        #[cfg(target_arch = "x86_64")]
        std::arch::asm!(
            "syscall",
            inlateout("rax") NR_MUNMAP as isize => res,
            in("rdi") ptr,
            in("rsi") len,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        #[cfg(target_arch = "aarch64")]
        std::arch::asm!(
            "svc 0",
            inlateout("x0") ptr as usize => res,
            in("x1") len,
            in("x8") NR_MUNMAP,
            options(nostack),
        );
        check(res).map(|_| ())
    }

    /// `madvise(addr, len, advice)`.
    ///
    /// # Safety
    /// `addr` must be page-aligned, and `advice` must be one that leaves
    /// the range's contents alone (such as `MADV_HUGEPAGE`): advice like
    /// `MADV_DONTNEED` would zero memory other code still reads.
    pub unsafe fn madvise(addr: usize, len: usize, advice: usize) -> io::Result<()> {
        let res: isize;
        #[cfg(target_arch = "x86_64")]
        std::arch::asm!(
            "syscall",
            inlateout("rax") NR_MADVISE as isize => res,
            in("rdi") addr,
            in("rsi") len,
            in("rdx") advice,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        #[cfg(target_arch = "aarch64")]
        std::arch::asm!(
            "svc 0",
            inlateout("x0") addr => res,
            in("x1") len,
            in("x2") advice,
            in("x8") NR_MADVISE,
            options(nostack),
        );
        check(res).map(|_| ())
    }
}

/// Size of one transparent huge page (x86-64, and aarch64 with 4 KiB base
/// pages).
pub const HUGE_PAGE_BYTES: usize = 2 << 20;

/// Shortest range [`advise_huge_pages`] advises.  Smaller buffers are left
/// on 4 KiB pages: their fault cost is small, and rounding a few MiB up to
/// whole huge pages could grow a small process's resident set by half.
pub const HUGE_PAGE_MIN_BYTES: usize = 8 << 20;

/// The 2 MiB-aligned interior `(start, len)` of `[addr, addr + bytes)`, or
/// `None` when the range is shorter than [`HUGE_PAGE_MIN_BYTES`].
fn huge_page_interior(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    if bytes < HUGE_PAGE_MIN_BYTES {
        return None;
    }
    let mask = HUGE_PAGE_BYTES - 1;
    let start = addr.checked_add(mask)? & !mask;
    let end = addr.checked_add(bytes)? & !mask;
    (end > start).then_some((start, end - start))
}

/// Asks the kernel to back `[ptr, ptr + bytes)` with transparent huge pages
/// and returns the number of bytes it accepted the advice for.
///
/// Only the 2 MiB-aligned interior of the range is advised, so memory
/// outside the range is never affected.  Ranges shorter than
/// [`HUGE_PAGE_MIN_BYTES`] return 0 untouched, as does every call on a
/// platform other than Linux x86-64/aarch64 or when the syscall fails (a
/// kernel without transparent huge pages, an unmapped range).  Call it on
/// a buffer before its first write: advice on pages that already exist
/// only takes effect when the kernel's background collapser gets to them.
///
/// The memory is neither read nor written, so any pointer is safe to pass.
/// A nonzero result means the kernel took the advice; whether a page is
/// actually huge also depends on the host's mode (`never` ignores the
/// advice) and on free contiguous memory.
pub fn advise_huge_pages(ptr: *const u8, bytes: usize) -> usize {
    let Some((start, len)) = huge_page_interior(ptr as usize, bytes) else {
        return 0;
    };
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    // SAFETY: `start` is 2 MiB- (hence page-) aligned and MADV_HUGEPAGE
    // only changes how the kernel backs the range, never its contents.
    if unsafe { raw::madvise(start, len, raw::MADV_HUGEPAGE) }.is_ok() {
        return len;
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    let _ = (start, len);
    0
}

enum Base {
    /// A live kernel mapping, unmapped on drop.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Mapped { ptr: *const u8, len: usize },
    /// Heap fallback.  Backed by `u64` words so the base pointer is 8-byte
    /// aligned — enough for every section type the binary format stores.
    Heap { words: Vec<u64>, len: usize },
}

/// A read-only view of a whole file, memory-mapped when the platform allows.
pub struct Mapping {
    base: Base,
}

// The mapping is private and read-only, so concurrent reads are safe.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps `path` read-only.  Falls back to a heap read (still 8-byte
    /// aligned) on unsupported platforms or if the mapping syscall fails.
    pub fn map(path: impl AsRef<Path>) -> io::Result<Mapping> {
        let mut file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Mapping {
                base: Base::Heap {
                    words: Vec::new(),
                    len: 0,
                },
            });
        }
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        {
            use std::os::fd::AsRawFd;
            // SAFETY: the fd is open for reading and outlives the call; the
            // mapping is recorded so Drop unmaps it exactly once.
            match unsafe { raw::mmap_readonly(len, file.as_raw_fd()) } {
                Ok(ptr) => {
                    return Ok(Mapping {
                        base: Base::Mapped { ptr, len },
                    })
                }
                Err(_) => { /* fall through to the heap read */ }
            }
        }
        let words = len.div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: the Vec owns `words * 8 >= len` initialised bytes.
        let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        file.read_exact(bytes)?;
        Ok(Mapping {
            base: Base::Heap { words: buf, len },
        })
    }

    /// The mapped file contents.
    pub fn bytes(&self) -> &[u8] {
        match &self.base {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            // SAFETY: the mapping is live until Drop and spans `len` bytes.
            Base::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Base::Heap { words, len } => {
                // SAFETY: the Vec owns `words.len() * 8 >= len` bytes.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
        }
    }

    /// Length of the mapped file in bytes.
    pub fn len(&self) -> usize {
        match &self.base {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Base::Mapped { len, .. } => *len,
            Base::Heap { len, .. } => *len,
        }
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the bytes come straight from the page cache (a real
    /// kernel mapping), `false` on the heap-read fallback.
    pub fn is_zero_copy(&self) -> bool {
        match &self.base {
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Base::Mapped { .. } => true,
            Base::Heap { .. } => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        if let Base::Mapped { ptr, len } = self.base {
            // SAFETY: created by mmap_readonly, dropped exactly once.
            let _ = unsafe { raw::munmap(ptr, len) };
        }
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping")
            .field("len", &self.len())
            .field("zero_copy", &self.is_zero_copy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pb_sparse_mmapio_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_{}", std::process::id(), name));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    fn maps_whole_file() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("whole.bin", &payload);
        let map = Mapping::map(&path).unwrap();
        assert_eq!(map.len(), payload.len());
        assert_eq!(map.bytes(), payload.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn base_pointer_is_eight_byte_aligned() {
        let path = temp_file("aligned.bin", &[1u8; 100]);
        let map = Mapping::map(&path).unwrap();
        assert_eq!(map.bytes().as_ptr() as usize % 8, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = temp_file("empty.bin", &[]);
        let map = Mapping::map(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), &[] as &[u8]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Mapping::map("/definitely/not/here.bin").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn linux_mapping_is_zero_copy() {
        let path = temp_file("zc.bin", &[7u8; 4096]);
        let map = Mapping::map(&path).unwrap();
        assert!(map.is_zero_copy());
        std::fs::remove_file(&path).ok();
    }

    const MIB: usize = 1 << 20;

    #[test]
    fn huge_page_interior_rounds_an_unaligned_start_inward() {
        // Starts 4 KiB past a 2 MiB boundary and ends 4 KiB past another:
        // both partial huge pages are dropped.
        let base = 64 * MIB;
        let addr = base + 4096;
        let (start, len) = huge_page_interior(addr, 10 * MIB).unwrap();
        assert_eq!(start, base + 2 * MIB);
        assert_eq!(start + len, base + 10 * MIB);
        assert_eq!(len, 8 * MIB);
        assert_eq!(start % HUGE_PAGE_BYTES, 0);
        assert_eq!(len % HUGE_PAGE_BYTES, 0);
    }

    #[test]
    fn huge_page_interior_skips_ranges_under_the_floor() {
        assert_eq!(huge_page_interior(64 * MIB, HUGE_PAGE_MIN_BYTES - 1), None);
        assert_eq!(huge_page_interior(64 * MIB, 4 * MIB), None);
        assert!(huge_page_interior(64 * MIB, HUGE_PAGE_MIN_BYTES).is_some());
    }

    #[test]
    fn huge_page_interior_keeps_an_exact_multiple_whole() {
        assert_eq!(
            huge_page_interior(64 * MIB, 12 * MIB),
            Some((64 * MIB, 12 * MIB))
        );
    }

    #[test]
    fn huge_page_interior_of_an_empty_or_overflowing_range_is_none() {
        assert_eq!(huge_page_interior(64 * MIB, 0), None);
        assert_eq!(huge_page_interior(0, 0), None);
        assert_eq!(huge_page_interior(usize::MAX - MIB, 16 * MIB), None);
    }

    #[test]
    fn advise_huge_pages_skips_small_buffers_and_keeps_contents() {
        let small = vec![3u8; MIB];
        assert_eq!(advise_huge_pages(small.as_ptr(), small.len()), 0);

        let mut big = vec![0u64; (16 * MIB) / 8];
        big.iter_mut().enumerate().for_each(|(i, w)| *w = i as u64);
        let bytes = big.len() * 8;
        let got = advise_huge_pages(big.as_ptr() as *const u8, bytes);
        let (_, interior) = huge_page_interior(big.as_ptr() as usize, bytes).unwrap();
        // Either the kernel took the advice for exactly the interior, or
        // (no THP support, another platform) the call was a no-op.
        assert!(got == interior || got == 0, "accepted {got} of {interior}");
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) && std::path::Path::new("/sys/kernel/mm/transparent_hugepage/enabled").exists()
        {
            assert_eq!(got, interior, "a THP-capable kernel refused the advice");
        }
        assert!(big.iter().enumerate().all(|(i, &w)| w == i as u64));
    }
}
