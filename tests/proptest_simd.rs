//! Differential property tests pitting every SIMD kernel the host supports
//! against the scalar oracle (satellite of the ISA-dispatch work).
//!
//! Three surfaces are exercised:
//!
//! * [`simd::byte_histogram`] — the vectorised radix histogram — against
//!   [`simd::byte_histogram_scalar`], the verbatim pre-SIMD loop, over every
//!   radix pass shift;
//! * the fused planning pipeline — [`simd::key_bits`] against the scalar
//!   OR-fold, and [`simd::fused_histograms`] (every planned digit counted in
//!   one sweep) against the scalar sweep *and* an independent per-digit
//!   recount — over whatever plan [`simd::plan_lsd`] schedules for the
//!   generated key width;
//! * [`sort::sort_slice_with`] under each dispatch level against the
//!   scalar run, asserting *bitwise* equal output (keys and values) — the
//!   kernels only reorder bookkeeping — plus sortedness, multiset
//!   preservation, and LSD stability against a tie-broken comparison sort.
//!
//! The strategies deliberately cover the degenerate shapes the kernels
//! special-case: empty and single-entry slices, all-equal keys (one
//! histogram bucket takes everything), narrow and full-width random key
//! widths, lengths straddling [`simd::SIMD_MIN_LEN`], and unaligned slice
//! starts (the vector kernels load whole entries from the slice base, so a
//! `&mut v[off..]` sub-slice must work for any `off`).

use proptest::prelude::*;

use pb_spgemm_suite::spgemm::sort;
use pb_spgemm_suite::spgemm::{simd, Entry};

/// Builds entries whose value records the original position, so the sort
/// comparisons below also prove key/value pairs are never separated.
fn entries_from_keys(keys: &[u64]) -> Vec<Entry<u32>> {
    keys.iter()
        .enumerate()
        .map(|(i, &key)| Entry { key, val: i as u32 })
        .collect()
}

/// Strategy: a key vector of arbitrary length with keys confined to
/// `key_bytes` significant bytes, plus an unaligned start offset.
fn keyed_input() -> impl Strategy<Value = (Vec<u64>, usize, usize)> {
    (1usize..=8, 0usize..4).prop_flat_map(|(key_bytes, off)| {
        let mask = if key_bytes == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * key_bytes)) - 1
        };
        proptest::collection::vec((0u64..=u64::MAX).prop_map(move |k| k & mask), 0..2200)
            .prop_map(move |keys| (keys, key_bytes, off))
    })
}

/// Strategy: degenerate shapes the kernels special-case — empty,
/// single-entry, and all-equal keys at a length above the SIMD threshold.
fn degenerate_input() -> impl Strategy<Value = (Vec<u64>, usize, usize)> {
    (0usize..3, 0u64..=u64::MAX).prop_map(|(kind, k)| {
        let keys = match kind {
            0 => Vec::new(),
            1 => vec![k],
            _ => vec![k; simd::SIMD_MIN_LEN + 37],
        };
        (keys, 8usize, 0usize)
    })
}

/// Asserts every supported histogram kernel matches the scalar oracle on
/// `seg` across all eight radix shifts, and that the counts always
/// partition the input.
fn check_histograms(seg: &[Entry<u32>]) {
    for isa in simd::Isa::supported() {
        for pass in 0..8u32 {
            let shift = pass * 8;
            let mut ctr = simd::KernelCounters::default();
            let got = simd::byte_histogram(isa, seg, shift, &mut ctr);
            let want = simd::byte_histogram_scalar(seg, shift);
            assert_eq!(got, want, "{isa} shift={shift} len={}", seg.len());
            assert_eq!(got.iter().sum::<usize>(), seg.len());
        }
    }
}

/// Asserts the fused planning pipeline agrees with its scalar oracles on
/// `seg`: [`simd::key_bits`] with the OR-fold at every level, and — for the
/// plan [`simd::plan_lsd`] schedules at that width — every level's
/// [`simd::fused_histograms`] with both the scalar sweep and an independent
/// per-digit recount.
fn check_fused_pipeline(seg: &[Entry<u32>]) {
    let want_bits = simd::key_bits_scalar(seg);
    for isa in simd::Isa::supported() {
        assert_eq!(
            simd::key_bits(isa, seg),
            want_bits,
            "{isa} key_bits diverged (len={})",
            seg.len()
        );
    }
    let Some(plan) = simd::plan_lsd(want_bits, simd::FUSED_MAX_DIGIT_BITS) else {
        return; // keys wider than the fused plan's reach: nothing to fuse
    };
    let mut want: Box<simd::FusedTables> =
        Box::new([[0; simd::FUSED_RADIX]; simd::FUSED_MAX_PASSES]);
    simd::fused_histograms_scalar(seg, &plan, &mut want);
    for pass in 0..plan.passes {
        // Independent recount of this digit, not via the sweep under test.
        let mut recount = vec![0usize; plan.radix()];
        for e in seg {
            recount[((e.key >> plan.shift(pass)) & plan.digit_mask()) as usize] += 1;
        }
        assert_eq!(&want[pass][..plan.radix()], &recount[..], "pass={pass}");
        assert_eq!(want[pass].iter().sum::<usize>(), seg.len());
    }
    for isa in simd::Isa::supported() {
        let mut ctr = simd::KernelCounters::default();
        let mut got: Box<simd::FusedTables> =
            Box::new([[0; simd::FUSED_RADIX]; simd::FUSED_MAX_PASSES]);
        simd::fused_histograms(isa, seg, &plan, &mut got, &mut ctr);
        assert_eq!(got, want, "{isa} fused sweep diverged (len={})", seg.len());
        assert_eq!(
            ctr.simd_histograms + ctr.scalar_histograms,
            plan.passes as u64,
            "{isa} must count one histogram per planned pass"
        );
    }
}

/// Asserts: the scalar run is correctly sorted, preserves the key/value
/// multiset and is stable, and every SIMD level reproduces the scalar run
/// *bitwise* — the kernels only restructure bookkeeping.
fn check_sorts(entries: &[Entry<u32>], key_bytes: usize) {
    let mut multiset = entries.to_vec();
    multiset.sort_by_key(|e| (e.key, e.val));
    let mut oracle = entries.to_vec();
    sort::sort_slice_with(&mut oracle, key_bytes, simd::Isa::Scalar);
    assert!(
        oracle.windows(2).all(|w| w[0].key <= w[1].key),
        "scalar output not sorted (len={})",
        entries.len()
    );
    let mut tied = oracle.clone();
    tied.sort_by_key(|e| (e.key, e.val));
    assert_eq!(tied, multiset, "scalar run lost or forged entries");
    // LSD radix is stable: ties keep insertion (= val) order, so the
    // tie-broken comparison sort is bit-exact for it.
    assert_eq!(oracle, multiset, "scalar run is no longer stable");
    for isa in simd::Isa::supported() {
        let mut seg = entries.to_vec();
        sort::sort_slice_with(&mut seg, key_bytes, isa);
        assert_eq!(
            seg,
            oracle,
            "{isa} diverged from the scalar oracle (len={}, key_bytes={key_bytes})",
            entries.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn histograms_match_the_scalar_oracle((keys, _key_bytes, off) in keyed_input()) {
        let entries = entries_from_keys(&keys);
        check_histograms(&entries[off.min(entries.len())..]);
    }

    #[test]
    fn fused_pipeline_matches_the_scalar_oracle((keys, _key_bytes, off) in keyed_input()) {
        let entries = entries_from_keys(&keys);
        check_fused_pipeline(&entries[off.min(entries.len())..]);
    }

    #[test]
    fn sorts_match_the_scalar_oracle((keys, key_bytes, off) in keyed_input()) {
        let entries = entries_from_keys(&keys);
        check_sorts(&entries[off.min(entries.len())..], key_bytes);
    }

    #[test]
    fn degenerate_inputs_survive_every_kernel((keys, key_bytes, _off) in degenerate_input()) {
        let entries = entries_from_keys(&keys);
        check_histograms(&entries);
        check_fused_pipeline(&entries);
        check_sorts(&entries, key_bytes);
    }
}

/// Non-random anchor: a slice long enough for the SIMD path, checked at
/// every unaligned start offset, under every supported level.  Proptest's
/// shrinking makes failures above minimal; this pins the exact boundary
/// cases (offset × threshold crossing) deterministically.
#[test]
fn unaligned_offsets_at_the_simd_threshold() {
    let mut state = 0x9e3779b97f4a7c15u64;
    let keys: Vec<u64> = (0..simd::SIMD_MIN_LEN + 64)
        .map(|_| {
            // splitmix64: deterministic full-width keys.
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        })
        .collect();
    let entries = entries_from_keys(&keys);
    for off in 0..4 {
        check_histograms(&entries[off..]);
        check_fused_pipeline(&entries[off..]);
        check_sorts(&entries[off..], 8);
    }
}
