//! Runtime ISA dispatch for the sort/expand SIMD kernels.
//!
//! The paper's thesis is that PB-SpGEMM is bandwidth-bound, yet the loops
//! that move nearly all of the bytes — the LSD radix histogram/scatter and
//! the expand phase's bin-flush copy — were scalar.  This module owns the
//! vectorised kernels and the machinery that selects them:
//!
//! * **Detection** — [`detected`] probes the host once
//!   (`is_x86_feature_detected!` on x86-64, the NEON baseline on aarch64)
//!   and caches the best supported [`Isa`] level.
//! * **Forcing** — [`active`] honours `PB_SIMD=avx512|avx2|neon|scalar`
//!   ([`SIMD_ENV`]): an unrecognised name panics (a misspelt CI mode must
//!   fail loudly, exactly like `PB_ALGORITHM`), a recognised level the host
//!   cannot run is clamped *down* to the best supported level at or below
//!   it ([`clamp_to_supported`]).  [`PbConfig::with_simd`](crate::PbConfig::with_simd)
//!   overrides per multiply without touching process state, so tests can
//!   iterate levels race-free.
//! * **Proof** — every kernel invocation is counted
//!   ([`KernelCounters`], merged into
//!   [`PhaseStats::isa`](crate::profile::PhaseStats::isa)), so the bench
//!   gate *measures* which path executed instead of trusting the build.
//!
//! # Kernel design: sequential loads, not gathers
//!
//! An early revision of these kernels gathered keys with `vpgatherqq`.
//! Measured on the (virtualised) development host, the gather kernels lost
//! to the plain scalar loop — emulated/microcoded gathers cost more than
//! the strided loads they replace, a well-known failure mode on several
//! microarchitectures.  The kernels therefore load *whole entries* with
//! sequential 256/512-bit loads — an `Entry<V>` with `V` of at most eight
//! bytes is 16 bytes, so one 64-byte AVX-512 load covers four entries with
//! the keys at every other 64-bit lane — and extract the digit in-register
//! with a vector shift+mask.  Sequential full-width loads are the one
//! memory shape every cache hierarchy (and every hypervisor) does well.
//!
//! The histogram work itself is further *fused*: [`fused_histograms`]
//! computes the tables of **all** planned radix passes in one sweep over
//! the data, because per-digit counts are permutation-invariant — the
//! counts a later pass needs are the same whether measured before or after
//! the earlier passes ran.  Together with [`key_bits`] (an OR-reduction
//! that measures the *actual* significant key width, typically well under
//! the declared byte count for packed bin keys) the sorter plans fewer,
//! wider digit passes over one read of the data instead of one read per
//! byte — see [`plan_lsd`] and the sort-phase wiring in `crate::sort`.
//!
//! # Safety argument for the intrinsics blocks
//!
//! The `unsafe` here is confined to three obligations, each discharged
//! structurally:
//!
//! 1. **ISA availability** — every `#[target_feature]` kernel is reachable
//!    only through this module's dispatchers, which require the requested
//!    [`Isa`] to have passed runtime detection (all public constructors of
//!    an `Isa` value clamp through [`clamp_to_supported`];
//!    [`PbConfig::resolve_simd`](crate::PbConfig::resolve_simd) re-clamps a
//!    config override).  Executing an AVX-512 instruction therefore implies
//!    `is_x86_feature_detected!("avx512f")` returned true on this host.
//! 2. **In-bounds loads** — the vector kernels are dispatched only when
//!    `size_of::<Entry<V>>() == 16`, and read `src` in whole-entry chunks:
//!    chunk `c` loads entries `[4c, 4c + 4)` with `4c + 4 ≤ src.len()`, so
//!    every byte read is inside the slice (the value lanes read alongside
//!    the keys are initialised `Entry` fields; they are masked off, never
//!    interpreted).  The tail below one chunk is handled scalar.
//! 3. **Prefetches never fault** — `prefetch` instructions are
//!    architecturally defined as hints on both x86-64 (`prefetcht0`) and
//!    aarch64 (`prfm`): they cannot trap on any address, so
//!    [`prefetch_read`]/[`prefetch_write`] accept arbitrary (even
//!    one-past-the-end) pointers computed with `wrapping_add`.
//!
//! The scalar code paths are kept **verbatim** from the pre-SIMD revision
//! and double as the correctness oracle: the differential suite
//! (`tests/proptest_simd.rs`) pits every SIMD kernel against
//! [`byte_histogram_scalar`] / [`key_bits_scalar`] /
//! [`fused_histograms_scalar`] over random key widths, degenerate inputs
//! and unaligned buffer offsets under every level the host supports.

use std::sync::OnceLock;

use crate::bins::Entry;

/// Environment variable forcing the dispatch level for the whole process:
/// `PB_SIMD=avx512|avx2|neon|scalar`.  Read once (first use) and cached;
/// per-multiply overrides go through
/// [`PbConfig::with_simd`](crate::PbConfig::with_simd) instead.
pub const SIMD_ENV: &str = "PB_SIMD";

/// Below this many entries the vector kernels' fixed costs (bank merge,
/// table zeroing, vector setup) outweigh their throughput, so the
/// dispatchers run the scalar loop and count it as such.  Bins are sized to
/// L2 (tens of thousands of entries), so real workloads sit far above this.
pub const SIMD_MIN_LEN: usize = 1024;

/// An instruction-set level the kernels can dispatch to, ordered from the
/// always-available scalar fallback upward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// The portable scalar kernels — always available, kept verbatim from
    /// the pre-SIMD revision, and the correctness oracle for every other
    /// level.  Forcing `scalar` also disables the software-prefetch hints,
    /// so this level reproduces the old code paths exactly.
    Scalar,
    /// AArch64 NEON: banked histogram accumulation with `prfm` prefetch
    /// hints (scalar in-bounds loads counted into interleaved banks for
    /// ILP; no exotic addressing, so the kernel is portable across NEON
    /// implementations).
    Neon,
    /// x86-64 AVX2: sequential 256-bit whole-entry loads (two 16-byte
    /// entries per load) with in-register shift+mask digit extraction.
    Avx2,
    /// x86-64 AVX-512F: sequential 512-bit whole-entry loads (four entries
    /// per load) with in-register shift+mask digit extraction.
    Avx512,
}

impl Isa {
    /// Every level, best first (the order [`clamp_to_supported`] searches).
    pub const ALL: [Isa; 4] = [Isa::Avx512, Isa::Avx2, Isa::Neon, Isa::Scalar];

    /// The name accepted by [`SIMD_ENV`] and emitted in telemetry.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
            Isa::Scalar => "scalar",
        }
    }

    /// Parses a [`SIMD_ENV`] level name.
    pub fn parse(name: &str) -> Option<Isa> {
        match name {
            "avx512" => Some(Isa::Avx512),
            "avx2" => Some(Isa::Avx2),
            "neon" => Some(Isa::Neon),
            "scalar" => Some(Isa::Scalar),
            _ => None,
        }
    }

    /// Stable index for atomic storage (see
    /// [`StatsCollector`](crate::profile::StatsCollector)).
    pub fn index(self) -> usize {
        match self {
            Isa::Scalar => 0,
            Isa::Neon => 1,
            Isa::Avx2 => 2,
            Isa::Avx512 => 3,
        }
    }

    /// Inverse of [`Isa::index`]; anything out of range is [`Isa::Scalar`].
    pub fn from_index(index: usize) -> Isa {
        match index {
            1 => Isa::Neon,
            2 => Isa::Avx2,
            3 => Isa::Avx512,
            _ => Isa::Scalar,
        }
    }

    /// Whether the *running host* can execute this level's kernels.
    pub fn is_supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Neon => false,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(target_arch = "aarch64")]
            Isa::Avx2 | Isa::Avx512 => false,
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
        }
    }

    /// Every level the running host supports, best first.  Always contains
    /// at least [`Isa::Scalar`]; the differential tests iterate this.
    pub fn supported() -> Vec<Isa> {
        Isa::ALL.into_iter().filter(|i| i.is_supported()).collect()
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The best level the running host supports, probed once and cached.
pub fn detected() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| clamp_to_supported(Isa::Avx512))
}

/// Reads [`SIMD_ENV`] without caching: `Ok(None)` when unset,
/// `Ok(Some(level))` for a recognised name (clamped to the host's support),
/// and a typed [`PbError`](crate::PbError) otherwise.  Resident services
/// validate through this *before* anything touches [`active`], whose
/// `OnceLock` would otherwise cache a panic path; batch tools keep the
/// panicking behaviour below.
pub fn try_env_isa() -> Result<Option<Isa>, crate::PbError> {
    match std::env::var(SIMD_ENV) {
        Err(_) => Ok(None),
        Ok(name) => match Isa::parse(&name) {
            Some(isa) => Ok(Some(clamp_to_supported(isa))),
            None => Err(crate::PbError::InvalidEnv {
                var: SIMD_ENV,
                value: name,
                expected: "avx512|avx2|neon|scalar",
            }),
        },
    }
}

/// The process-wide dispatch level: [`SIMD_ENV`] when set (unrecognised
/// names panic, recognised-but-unsupported levels clamp down), the
/// [`detected`] best otherwise.  Resolved once and cached — per-multiply
/// overrides go through [`PbConfig::with_simd`](crate::PbConfig::with_simd).
pub fn active() -> Isa {
    static ACTIVE: OnceLock<Isa> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        // A misspelt CI mode must fail loudly, not silently run the
        // detected level (mirrors `SpGemm::from_env`).
        match try_env_isa().unwrap_or_else(|e| panic!("{e}")) {
            Some(isa) => isa,
            None => detected(),
        }
    })
}

/// The best supported level at or below `want` in the [`Isa::ALL`] order
/// ([`Isa::Scalar`] is always a floor).  Cross-architecture requests fall
/// through the same rule: `PB_SIMD=avx512` on an AVX2-only host runs AVX2,
/// `PB_SIMD=neon` on x86-64 runs scalar.
pub fn clamp_to_supported(want: Isa) -> Isa {
    Isa::ALL
        .into_iter()
        .filter(|&i| i <= want)
        .find(|&i| i.is_supported())
        .unwrap_or(Isa::Scalar)
}

/// Resolves an optional per-multiply override against the process default:
/// `Some(level)` clamps to the host's support, `None` uses [`active`].
pub fn resolve(force: Option<Isa>) -> Isa {
    match force {
        Some(isa) => clamp_to_supported(isa),
        None => active(),
    }
}

/// Per-kernel invocation counters accumulated locally on the sort path and
/// merged into [`PhaseStats::isa`](crate::profile::PhaseStats::isa) once per
/// bin — the hot loops never touch an atomic.  These are the numbers that
/// let `bench_pb --gate` *prove* which code path executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Histogram passes that ran a SIMD kernel (a fused sweep counts one
    /// per table it filled — it does the work of that many passes).
    pub simd_histograms: u64,
    /// Histogram passes that ran a scalar loop (forced scalar level,
    /// unsupported host, entry layouts the vector kernels cannot load, or
    /// inputs below [`SIMD_MIN_LEN`]).
    pub scalar_histograms: u64,
    /// Radix scatter passes that issued software-prefetch hints on their
    /// destination stream.
    pub prefetched_scatters: u64,
}

impl KernelCounters {
    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &KernelCounters) {
        self.simd_histograms += other.simd_histograms;
        self.scalar_histograms += other.scalar_histograms;
        self.prefetched_scatters += other.prefetched_scatters;
    }
}

/// The number of 64-bit words one `Entry<V>` occupies; the vector kernels
/// require exactly two (a 16-byte entry, which every `V` of at most eight
/// bytes produces).
#[inline(always)]
fn entry_stride<V: Copy>() -> usize {
    debug_assert_eq!(std::mem::size_of::<Entry<V>>() % 8, 0);
    debug_assert_eq!(std::mem::offset_of!(Entry<V>, key) % 8, 0);
    std::mem::size_of::<Entry<V>>() / 8
}

/// Counts how many entries of `src` fall into each value of the key byte at
/// `shift`, dispatching to `isa`'s kernel (scalar below [`SIMD_MIN_LEN`] or
/// for entry layouts wider than 16 bytes) and counting the invocation into
/// `ctr`.
///
/// This kernel serves the per-byte LSD passes: the scalar level, bins
/// below [`SIMD_MIN_LEN`] and keys too wide for the digit plan.  The main
/// LSD path plans wider digits and goes through [`fused_histograms`]
/// instead.
#[inline]
pub fn byte_histogram<V: Copy>(
    isa: Isa,
    src: &[Entry<V>],
    shift: u32,
    ctr: &mut KernelCounters,
) -> [usize; 256] {
    if src.len() >= SIMD_MIN_LEN {
        #[cfg(target_arch = "x86_64")]
        if entry_stride::<V>() == 2 {
            if isa == Isa::Avx512 {
                ctr.simd_histograms += 1;
                // SAFETY: dispatch reaches here only when avx512f passed
                // runtime detection; loads per the module safety argument.
                return unsafe { byte_histogram_avx512(src, shift) };
            }
            if isa == Isa::Avx2 {
                ctr.simd_histograms += 1;
                // SAFETY: as above, with avx2 detection.
                return unsafe { byte_histogram_avx2(src, shift) };
            }
        }
        #[cfg(target_arch = "aarch64")]
        if isa == Isa::Neon {
            ctr.simd_histograms += 1;
            // SAFETY: neon passed runtime detection; the kernel only
            // does scalar in-bounds loads plus prefetch hints.
            return unsafe { byte_histogram_neon(src, shift) };
        }
    }
    let _ = isa;
    ctr.scalar_histograms += 1;
    byte_histogram_scalar(src, shift)
}

/// The scalar histogram loop, verbatim from the pre-SIMD sort phase — the
/// always-available fallback and the oracle the differential tests compare
/// every SIMD kernel against.
pub fn byte_histogram_scalar<V: Copy>(src: &[Entry<V>], shift: u32) -> [usize; 256] {
    let mut counts = [0usize; 256];
    for e in src.iter() {
        counts[((e.key >> shift) & 0xFF) as usize] += 1;
    }
    counts
}

// ---------------------------------------------------------------------------
// Key-width measurement and the fused multi-pass histogram plan.
// ---------------------------------------------------------------------------

/// Hard cap on the passes a fused LSD plan may take ([`plan_lsd`]); keys
/// wider than `FUSED_MAX_PASSES · FUSED_MAX_DIGIT_BITS` significant bits
/// fall back to the per-byte passes.
pub const FUSED_MAX_PASSES: usize = 3;

/// Hard cap on the digit width of a fused LSD plan: 12-bit digits mean a
/// 4096-counter table (32 KiB), the widest that still lives comfortably in
/// L1/L2 next to the bin being sorted.
pub const FUSED_MAX_DIGIT_BITS: u32 = 12;

/// Counters per fused histogram table (`2^FUSED_MAX_DIGIT_BITS`).
pub const FUSED_RADIX: usize = 1 << FUSED_MAX_DIGIT_BITS;

/// Stack storage for one fused histogram sweep: one table per potential
/// pass, sized for the widest digit (96 KiB — the sorter declares one per
/// bin on the worker stack, far below the 2 MiB thread default).  A plan
/// with narrower digits simply uses a prefix of each table.
pub type FusedTables = [[usize; FUSED_RADIX]; FUSED_MAX_PASSES];

/// A fused LSD schedule: `passes` stable counting passes over
/// `digit_bits`-bit digits, least significant first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsdPlan {
    /// Width of each digit in bits (`1..=FUSED_MAX_DIGIT_BITS`; 0 only in
    /// the degenerate zero-pass plan).
    pub digit_bits: u32,
    /// Number of passes (`0..=FUSED_MAX_PASSES`); 0 means every key is
    /// zero and the input is already stably sorted.
    pub passes: usize,
}

impl LsdPlan {
    /// Mask selecting one digit after the shift.
    #[inline(always)]
    pub fn digit_mask(&self) -> u64 {
        (1u64 << self.digit_bits) - 1
    }

    /// Number of buckets per pass.
    #[inline(always)]
    pub fn radix(&self) -> usize {
        1usize << self.digit_bits
    }

    /// Right-shift selecting the digit of pass `pass`.
    #[inline(always)]
    pub fn shift(&self, pass: usize) -> u32 {
        self.digit_bits * pass as u32
    }
}

/// Plans the fused LSD passes for keys of `bits` significant bits with
/// digits capped at `max_digit_bits` (the sorter passes
/// `min(FUSED_MAX_DIGIT_BITS, ⌊log2 len⌋)` so the counter tables never
/// dwarf the bin they serve).  Minimises the pass count first, then
/// balances the digit width — e.g. 19-bit packed bin keys plan two 10-bit
/// passes where the per-byte path would take three.  Returns `None` when
/// the width cannot be covered in [`FUSED_MAX_PASSES`] (the caller falls
/// back to the per-byte passes).
pub fn plan_lsd(bits: u32, max_digit_bits: u32) -> Option<LsdPlan> {
    if bits == 0 {
        return Some(LsdPlan {
            digit_bits: 0,
            passes: 0,
        });
    }
    let cap = max_digit_bits.clamp(1, FUSED_MAX_DIGIT_BITS);
    let passes = bits.div_ceil(cap);
    if passes as usize > FUSED_MAX_PASSES {
        return None;
    }
    Some(LsdPlan {
        digit_bits: bits.div_ceil(passes),
        passes: passes as usize,
    })
}

/// Measures the significant key width of `src` in bits — `64 - clz(OR of
/// all keys)` — dispatching an OR-reduction at `isa`.  The OR of the keys
/// shares its highest set bit with their maximum, which is all a radix
/// plan needs, and unlike a max it reduces with a single lane-wise vector
/// op.  Not counted in [`KernelCounters`]: it is planning overhead of the
/// fused sweep, not a histogram pass.
pub fn key_bits<V: Copy>(isa: Isa, src: &[Entry<V>]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if entry_stride::<V>() == 2 && src.len() >= 8 {
        if isa == Isa::Avx512 {
            // SAFETY: avx512f passed runtime detection (dispatch
            // invariant); whole-entry loads per the module safety argument.
            return unsafe { key_bits_avx512(src) };
        }
        if isa == Isa::Avx2 {
            // SAFETY: as above, with avx2 detection.
            return unsafe { key_bits_avx2(src) };
        }
    }
    let _ = isa;
    key_bits_scalar(src)
}

/// The scalar OR-fold oracle for [`key_bits`].
pub fn key_bits_scalar<V: Copy>(src: &[Entry<V>]) -> u32 {
    let mut acc = 0u64;
    for e in src.iter() {
        acc |= e.key;
    }
    64 - acc.leading_zeros()
}

/// Computes the histograms of **every** planned digit in one sweep over
/// `src`, filling `tables[pass][digit]` for `pass < plan.passes`.  The
/// caller provides zeroed tables (see [`FusedTables`]).  Counts
/// `plan.passes` histogram invocations — the sweep does the work of that
/// many per-pass kernels against a single read of the data.
///
/// Digit counts are permutation-invariant, so tables measured up front
/// equal the tables each scatter pass would have measured on its own
/// (permuted) input — the fused sort is bit-identical to the per-pass one.
pub fn fused_histograms<V: Copy>(
    isa: Isa,
    src: &[Entry<V>],
    plan: &LsdPlan,
    tables: &mut FusedTables,
    ctr: &mut KernelCounters,
) {
    if plan.passes == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if entry_stride::<V>() == 2 && src.len() >= SIMD_MIN_LEN {
        if isa == Isa::Avx512 {
            ctr.simd_histograms += plan.passes as u64;
            // SAFETY: avx512f passed runtime detection (dispatch
            // invariant); whole-entry loads per the module safety argument.
            return unsafe { fused_histograms_avx512(src, plan, tables) };
        }
        if isa == Isa::Avx2 {
            ctr.simd_histograms += plan.passes as u64;
            // SAFETY: as above, with avx2 detection.
            return unsafe { fused_histograms_avx2(src, plan, tables) };
        }
    }
    #[cfg(target_arch = "aarch64")]
    if isa == Isa::Neon && src.len() >= SIMD_MIN_LEN {
        ctr.simd_histograms += plan.passes as u64;
        // SAFETY: neon passed runtime detection; the kernel only does
        // scalar in-bounds loads plus prefetch hints.
        return unsafe { fused_histograms_neon(src, plan, tables) };
    }
    let _ = isa;
    ctr.scalar_histograms += plan.passes as u64;
    fused_histograms_scalar(src, plan, tables)
}

/// The scalar fused sweep — fallback and differential oracle for the
/// vector kernels.
pub fn fused_histograms_scalar<V: Copy>(
    src: &[Entry<V>],
    plan: &LsdPlan,
    tables: &mut FusedTables,
) {
    let mask = plan.digit_mask();
    for e in src.iter() {
        for (pass, t) in tables[..plan.passes].iter_mut().enumerate() {
            t[((e.key >> plan.shift(pass)) & mask) as usize] += 1;
        }
    }
}

/// Hints that the cache line holding `p` is about to be read.  Never
/// faults; accepts any pointer including one-past-the-end.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetcht0 is an architectural hint and cannot trap.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<{ _MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: prfm is an architectural hint and cannot trap.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Hints that the cache line holding `p` is about to be written (the
/// bin-flush destinations and the radix scatter stream).  Never faults.
#[inline(always)]
pub fn prefetch_write<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetcht0 is an architectural hint and cannot trap.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<{ _MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: prfm is an architectural hint and cannot trap.
    unsafe {
        core::arch::asm!("prfm pstl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Byte stride between consecutive prefetch hints (one cache line).
pub(crate) const PREFETCH_LINE_BYTES: usize = 64;

// ---------------------------------------------------------------------------
// x86-64 kernels: sequential whole-entry loads, shift+mask digit extraction.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn byte_histogram_avx2<V: Copy>(src: &[Entry<V>], shift: u32) -> [usize; 256] {
    use core::arch::x86_64::*;
    let key_off = std::mem::offset_of!(Entry<V>, key) / 8;
    let base = src.as_ptr() as *const i64;
    let count = _mm_cvtsi32_si128(shift as i32);
    let mask = _mm256_set1_epi64x(0xFF);
    // Four interleaved banks break the store-to-load dependency chain a
    // single counts array would serialise the increments on.
    let mut banks = [[0usize; 256]; 4];
    let mut lanes = [0u64; 8];
    let n = src.len();
    let chunks = n / 4;
    for c in 0..chunks {
        // Two 32-byte loads cover four whole 16-byte entries; the key of
        // entry j within the chunk sits at 64-bit lane `key_off + 2j`.
        let v0 = _mm256_loadu_si256(base.add(c * 8) as *const __m256i);
        let v1 = _mm256_loadu_si256(base.add(c * 8 + 4) as *const __m256i);
        let b0 = _mm256_and_si256(_mm256_srl_epi64(v0, count), mask);
        let b1 = _mm256_and_si256(_mm256_srl_epi64(v1, count), mask);
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, b0);
        _mm256_storeu_si256(lanes.as_mut_ptr().add(4) as *mut __m256i, b1);
        banks[0][lanes[key_off] as usize] += 1;
        banks[1][lanes[key_off + 2] as usize] += 1;
        banks[2][lanes[key_off + 4] as usize] += 1;
        banks[3][lanes[key_off + 6] as usize] += 1;
    }
    let mut counts = [0usize; 256];
    for (b, slot) in counts.iter_mut().enumerate() {
        *slot = banks[0][b] + banks[1][b] + banks[2][b] + banks[3][b];
    }
    for e in &src[chunks * 4..] {
        counts[((e.key >> shift) & 0xFF) as usize] += 1;
    }
    counts
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn byte_histogram_avx512<V: Copy>(src: &[Entry<V>], shift: u32) -> [usize; 256] {
    use core::arch::x86_64::*;
    let key_off = std::mem::offset_of!(Entry<V>, key) / 8;
    let base = src.as_ptr() as *const i64;
    let count = _mm_cvtsi32_si128(shift as i32);
    let mask = _mm512_set1_epi64(0xFF);
    let mut banks = [[0usize; 256]; 4];
    let mut lanes = [0u64; 8];
    let n = src.len();
    let chunks = n / 4;
    for c in 0..chunks {
        // One 64-byte load covers four whole 16-byte entries; the key of
        // entry j within the chunk sits at 64-bit lane `key_off + 2j`.
        let v = _mm512_loadu_si512(base.add(c * 8) as *const __m512i);
        let b = _mm512_and_si512(_mm512_srl_epi64(v, count), mask);
        _mm512_storeu_si512(lanes.as_mut_ptr() as *mut __m512i, b);
        banks[0][lanes[key_off] as usize] += 1;
        banks[1][lanes[key_off + 2] as usize] += 1;
        banks[2][lanes[key_off + 4] as usize] += 1;
        banks[3][lanes[key_off + 6] as usize] += 1;
    }
    let mut counts = [0usize; 256];
    for (b, slot) in counts.iter_mut().enumerate() {
        *slot = banks[0][b] + banks[1][b] + banks[2][b] + banks[3][b];
    }
    for e in &src[chunks * 4..] {
        counts[((e.key >> shift) & 0xFF) as usize] += 1;
    }
    counts
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn key_bits_avx2<V: Copy>(src: &[Entry<V>]) -> u32 {
    use core::arch::x86_64::*;
    let key_off = std::mem::offset_of!(Entry<V>, key) / 8;
    let base = src.as_ptr() as *const i64;
    let chunks = src.len() / 2;
    let mut acc = _mm256_setzero_si256();
    for c in 0..chunks {
        // OR whole entries; the value lanes are discarded at the fold.
        acc = _mm256_or_si256(acc, _mm256_loadu_si256(base.add(c * 4) as *const __m256i));
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
    let mut keys = lanes[key_off] | lanes[key_off + 2];
    for e in &src[chunks * 2..] {
        keys |= e.key;
    }
    64 - keys.leading_zeros()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn key_bits_avx512<V: Copy>(src: &[Entry<V>]) -> u32 {
    use core::arch::x86_64::*;
    let key_off = std::mem::offset_of!(Entry<V>, key) / 8;
    let base = src.as_ptr() as *const i64;
    let chunks = src.len() / 4;
    let mut acc = _mm512_setzero_si512();
    for c in 0..chunks {
        acc = _mm512_or_si512(acc, _mm512_loadu_si512(base.add(c * 8) as *const __m512i));
    }
    let mut lanes = [0u64; 8];
    _mm512_storeu_si512(lanes.as_mut_ptr() as *mut __m512i, acc);
    let mut keys = lanes[key_off] | lanes[key_off + 2] | lanes[key_off + 4] | lanes[key_off + 6];
    for e in &src[chunks * 4..] {
        keys |= e.key;
    }
    64 - keys.leading_zeros()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fused_histograms_avx2<V: Copy>(
    src: &[Entry<V>],
    plan: &LsdPlan,
    tables: &mut FusedTables,
) {
    use core::arch::x86_64::*;
    let key_off = std::mem::offset_of!(Entry<V>, key) / 8;
    let base = src.as_ptr() as *const i64;
    let mask = _mm256_set1_epi64x(plan.digit_mask() as i64);
    let mut shifts = [_mm_setzero_si128(); FUSED_MAX_PASSES];
    for (pass, s) in shifts[..plan.passes].iter_mut().enumerate() {
        *s = _mm_cvtsi32_si128(plan.shift(pass) as i32);
    }
    let mut lanes = [0u64; 8];
    let n = src.len();
    let chunks = n / 4;
    for c in 0..chunks {
        let v0 = _mm256_loadu_si256(base.add(c * 8) as *const __m256i);
        let v1 = _mm256_loadu_si256(base.add(c * 8 + 4) as *const __m256i);
        for (t, &sh) in tables[..plan.passes].iter_mut().zip(&shifts) {
            let d0 = _mm256_and_si256(_mm256_srl_epi64(v0, sh), mask);
            let d1 = _mm256_and_si256(_mm256_srl_epi64(v1, sh), mask);
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, d0);
            _mm256_storeu_si256(lanes.as_mut_ptr().add(4) as *mut __m256i, d1);
            t[lanes[key_off] as usize] += 1;
            t[lanes[key_off + 2] as usize] += 1;
            t[lanes[key_off + 4] as usize] += 1;
            t[lanes[key_off + 6] as usize] += 1;
        }
    }
    fused_histograms_tail(&src[chunks * 4..], plan, tables);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fused_histograms_avx512<V: Copy>(
    src: &[Entry<V>],
    plan: &LsdPlan,
    tables: &mut FusedTables,
) {
    use core::arch::x86_64::*;
    let key_off = std::mem::offset_of!(Entry<V>, key) / 8;
    let base = src.as_ptr() as *const i64;
    let mask = _mm512_set1_epi64(plan.digit_mask() as i64);
    let mut shifts = [_mm_setzero_si128(); FUSED_MAX_PASSES];
    for (pass, s) in shifts[..plan.passes].iter_mut().enumerate() {
        *s = _mm_cvtsi32_si128(plan.shift(pass) as i32);
    }
    let mut lanes = [0u64; 8];
    let n = src.len();
    let chunks = n / 4;
    for c in 0..chunks {
        let v = _mm512_loadu_si512(base.add(c * 8) as *const __m512i);
        for (t, &sh) in tables[..plan.passes].iter_mut().zip(&shifts) {
            let d = _mm512_and_si512(_mm512_srl_epi64(v, sh), mask);
            _mm512_storeu_si512(lanes.as_mut_ptr() as *mut __m512i, d);
            t[lanes[key_off] as usize] += 1;
            t[lanes[key_off + 2] as usize] += 1;
            t[lanes[key_off + 4] as usize] += 1;
            t[lanes[key_off + 6] as usize] += 1;
        }
    }
    fused_histograms_tail(&src[chunks * 4..], plan, tables);
}

/// Scalar tail shared by the vector fused kernels (entries below one chunk).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn fused_histograms_tail<V: Copy>(tail: &[Entry<V>], plan: &LsdPlan, tables: &mut FusedTables) {
    let mask = plan.digit_mask();
    for e in tail.iter() {
        for (pass, t) in tables[..plan.passes].iter_mut().enumerate() {
            t[((e.key >> plan.shift(pass)) & mask) as usize] += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// AArch64 kernels: scalar in-bounds loads, banked counting, prfm prefetch.
// ---------------------------------------------------------------------------

/// AArch64 NEON level: keys are loaded scalar but counted into four
/// interleaved banks (the same ILP trick as the x86 kernels) with the
/// source stream prefetched ahead.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn byte_histogram_neon<V: Copy>(src: &[Entry<V>], shift: u32) -> [usize; 256] {
    const AHEAD: usize = 16;
    let mut banks = [[0usize; 256]; 4];
    let n = src.len();
    let mut i = 0usize;
    while i + 4 <= n {
        if i + AHEAD < n {
            prefetch_read(src.as_ptr().wrapping_add(i + AHEAD));
        }
        banks[0][((src[i].key >> shift) & 0xFF) as usize] += 1;
        banks[1][((src[i + 1].key >> shift) & 0xFF) as usize] += 1;
        banks[2][((src[i + 2].key >> shift) & 0xFF) as usize] += 1;
        banks[3][((src[i + 3].key >> shift) & 0xFF) as usize] += 1;
        i += 4;
    }
    let mut counts = [0usize; 256];
    for (b, slot) in counts.iter_mut().enumerate() {
        *slot = banks[0][b] + banks[1][b] + banks[2][b] + banks[3][b];
    }
    for e in &src[i..] {
        counts[((e.key >> shift) & 0xFF) as usize] += 1;
    }
    counts
}

/// The NEON fused sweep: one read of the data filling every pass's table
/// (each pass already has its own table, so the increments never chain),
/// with the source stream prefetched ahead.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn fused_histograms_neon<V: Copy>(
    src: &[Entry<V>],
    plan: &LsdPlan,
    tables: &mut FusedTables,
) {
    const AHEAD: usize = 16;
    let mask = plan.digit_mask();
    let n = src.len();
    for (i, e) in src.iter().enumerate() {
        if i + AHEAD < n {
            prefetch_read(src.as_ptr().wrapping_add(i + AHEAD));
        }
        for (pass, t) in tables[..plan.passes].iter_mut().enumerate() {
            t[((e.key >> plan.shift(pass)) & mask) as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(n: usize, seed: u64) -> Vec<Entry<u64>> {
        // Splitmix64 keys: deterministic, full 64-bit coverage.
        let mut state = seed;
        (0..n)
            .map(|i| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Entry {
                    key: z ^ (z >> 31),
                    val: i as u64,
                }
            })
            .collect()
    }

    #[test]
    fn every_supported_level_matches_the_scalar_oracle() {
        let src = entries(SIMD_MIN_LEN + 37, 7);
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            let want = byte_histogram_scalar(&src, shift);
            for isa in Isa::supported() {
                let mut ctr = KernelCounters::default();
                let got = byte_histogram(isa, &src, shift, &mut ctr);
                assert_eq!(got, want, "{isa} shift={shift}");
                if isa == Isa::Scalar {
                    assert_eq!(ctr.scalar_histograms, 1);
                } else {
                    assert_eq!(ctr.simd_histograms, 1, "{isa} must count as SIMD");
                }
            }
        }
    }

    #[test]
    fn small_inputs_run_the_scalar_path_and_count_it() {
        let src = entries(SIMD_MIN_LEN - 1, 3);
        for isa in Isa::supported() {
            let mut ctr = KernelCounters::default();
            let got = byte_histogram(isa, &src, 8, &mut ctr);
            assert_eq!(got, byte_histogram_scalar(&src, 8));
            assert_eq!(ctr.scalar_histograms, 1, "{isa}");
            assert_eq!(ctr.simd_histograms, 0, "{isa}");
        }
    }

    #[test]
    fn histogram_counts_partition_the_input() {
        let src = entries(5000, 11);
        for isa in Isa::supported() {
            let mut ctr = KernelCounters::default();
            let counts = byte_histogram(isa, &src, 16, &mut ctr);
            assert_eq!(counts.iter().sum::<usize>(), src.len(), "{isa}");
        }
    }

    #[test]
    fn key_bits_matches_the_scalar_fold_at_every_level() {
        for &width in &[0u32, 1, 7, 11, 19, 24, 33, 52, 64] {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let mut src = entries(SIMD_MIN_LEN + 13, 40 + width as u64);
            for e in &mut src {
                e.key &= mask;
            }
            // Plant one key with the top permitted bit set so the width is
            // exact, not probabilistic.
            if width > 0 {
                let mid = src.len() / 2;
                src[mid].key |= 1u64 << (width - 1);
            }
            let want = key_bits_scalar(&src);
            assert_eq!(want, width, "planted width must be measured exactly");
            for isa in Isa::supported() {
                assert_eq!(key_bits(isa, &src), want, "{isa} width={width}");
            }
            // Odd lengths exercise the scalar tail of the vector kernels.
            for cut in [1usize, 2, 3, 5, 7] {
                let head = &src[..src.len() - cut];
                let want = key_bits_scalar(head);
                for isa in Isa::supported() {
                    assert_eq!(key_bits(isa, head), want, "{isa} cut={cut}");
                }
            }
        }
    }

    #[test]
    fn plan_lsd_minimises_passes_and_respects_caps() {
        // Zero width: the degenerate already-sorted plan.
        assert_eq!(
            plan_lsd(0, FUSED_MAX_DIGIT_BITS),
            Some(LsdPlan {
                digit_bits: 0,
                passes: 0
            })
        );
        // The packed-bin sweet spot: 19 bits in two balanced passes where
        // the per-byte path would take three.
        assert_eq!(
            plan_lsd(19, 12),
            Some(LsdPlan {
                digit_bits: 10,
                passes: 2
            })
        );
        assert_eq!(
            plan_lsd(32, 12),
            Some(LsdPlan {
                digit_bits: 11,
                passes: 3
            })
        );
        // Beyond the cap: fall back.
        assert_eq!(plan_lsd(37, 12), None);
        assert_eq!(plan_lsd(64, 12), None);
        // Digit caps bind (a small bin refuses jumbo tables).
        assert_eq!(
            plan_lsd(19, 10),
            Some(LsdPlan {
                digit_bits: 10,
                passes: 2
            })
        );
        for bits in 1..=36u32 {
            for cap in 1..=FUSED_MAX_DIGIT_BITS {
                if let Some(plan) = plan_lsd(bits, cap) {
                    assert!(plan.digit_bits <= cap);
                    assert!(plan.passes <= FUSED_MAX_PASSES);
                    // The plan covers the whole width.
                    assert!(plan.digit_bits * plan.passes as u32 >= bits, "{bits} {cap}");
                }
            }
        }
    }

    #[test]
    fn fused_histograms_match_the_scalar_sweep_at_every_level() {
        for &width in &[5u32, 10, 19, 26, 33] {
            let mask = (1u64 << width) - 1;
            let mut src = entries(SIMD_MIN_LEN + 29, 90 + width as u64);
            for e in &mut src {
                e.key &= mask;
            }
            let plan = plan_lsd(width, FUSED_MAX_DIGIT_BITS).unwrap();
            let mut want: FusedTables = [[0; FUSED_RADIX]; FUSED_MAX_PASSES];
            fused_histograms_scalar(&src, &plan, &mut want);
            // Each pass's table must partition the input, and agree with
            // the independently-computed per-pass scalar counts.
            for table in &want[..plan.passes] {
                assert_eq!(table.iter().sum::<usize>(), src.len());
            }
            for isa in Isa::supported() {
                let mut ctr = KernelCounters::default();
                let mut got: FusedTables = [[0; FUSED_RADIX]; FUSED_MAX_PASSES];
                fused_histograms(isa, &src, &plan, &mut got, &mut ctr);
                assert_eq!(got, want, "{isa} width={width}");
                if isa == Isa::Scalar {
                    assert_eq!(ctr.scalar_histograms, plan.passes as u64);
                } else {
                    assert_eq!(ctr.simd_histograms, plan.passes as u64, "{isa}");
                }
            }
        }
    }

    #[test]
    fn parse_clamp_and_names_round_trip() {
        for isa in Isa::ALL {
            assert_eq!(Isa::parse(isa.name()), Some(isa));
            assert_eq!(Isa::from_index(isa.index()), isa);
        }
        assert_eq!(Isa::parse("sse2"), None);
        // Scalar is always supported and always the clamp floor.
        assert!(Isa::Scalar.is_supported());
        assert_eq!(clamp_to_supported(Isa::Scalar), Isa::Scalar);
        // Clamping never goes above the request and always lands supported.
        for isa in Isa::ALL {
            let clamped = clamp_to_supported(isa);
            assert!(clamped <= isa);
            assert!(clamped.is_supported());
        }
        // The detected best is supported, and resolve() honours overrides.
        assert!(detected().is_supported());
        assert_eq!(resolve(Some(Isa::Scalar)), Isa::Scalar);
        assert_eq!(resolve(None), active());
    }

    #[test]
    fn prefetch_helpers_accept_edge_pointers() {
        // Hints must tolerate any address, including one-past-the-end and
        // null — they are the addresses the scatter loop computes.
        let v = [0u8; 64];
        prefetch_read(v.as_ptr());
        prefetch_write(v.as_ptr().wrapping_add(v.len()));
        prefetch_read(std::ptr::null::<u8>());
    }

    #[test]
    fn kernel_counters_merge() {
        let mut a = KernelCounters {
            simd_histograms: 2,
            scalar_histograms: 1,
            prefetched_scatters: 3,
        };
        let b = KernelCounters {
            simd_histograms: 1,
            scalar_histograms: 4,
            prefetched_scatters: 2,
        };
        a.merge(&b);
        assert_eq!(a.simd_histograms, 3);
        assert_eq!(a.scalar_histograms, 5);
        assert_eq!(a.prefetched_scatters, 5);
    }
}
