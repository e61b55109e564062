//! Within-run A/B of the ISA dispatch levels.
//!
//! Criterion's statistics are unusable on a noisy 1-core container, and
//! *cross-process* run-to-run drift on shared hosts dwarfs the effects under
//! test — so this harness interleaves every dispatch level in the *same*
//! process, round-robin, and reports the min-of-N per level.  Min-of-N over
//! interleaved rounds cancels ambient drift: every level sees the same
//! machine weather, and the minimum is the run least disturbed by it.
//!
//! Three surfaces are timed.  The first two run on corpus-shaped keys (19
//! significant bits, the packed bin-key width the smoke corpus produces —
//! narrow enough for the fused planner's two-pass schedule):
//!
//! * the full library LSD sort ([`sort_slice_with`]) per level, verified
//!   bitwise against the scalar oracle first;
//! * the histogram kernels alone: the per-byte [`simd::byte_histogram`] and
//!   the fused sweep [`simd::fused_histograms`] under its planned schedule;
//! * the whole PB multiply of an R-MAT scale-12 square pinned to each level
//!   (forced scalar also turns the expand phase's flush prefetch off, so
//!   this row isolates that hint too), verified bitwise across levels.
//!
//! Run with: `cargo run --release -p pb-bench --example isa_ab`

use std::time::Instant;

use pb_spgemm::sort::sort_slice_with;
use pb_spgemm::{simd, Entry, PbConfig, SpGemm};

/// Corpus-shaped workload: 16 Ki entries (a mid-size L2 bin) of 19-bit
/// packed keys declared as 3 key bytes, exactly what the smoke corpus bins
/// produce.
fn workload(n: usize) -> Vec<Entry<f64>> {
    let mut state = 0x1234_5678_9abc_def0u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            Entry {
                key: state >> 45, // top 19 bits: well-mixed, corpus-width
                val: 1.0,
            }
        })
        .collect()
}

const KEY_BYTES: usize = 3;
const ROUNDS: usize = 400;
/// Rounds of the whole-multiply section (each multiply takes milliseconds).
const MULTIPLY_ROUNDS: usize = 20;

fn main() {
    let data = workload(16 * 1024);
    let levels = simd::Isa::supported();

    // Bitwise identity first: timing a wrong kernel is worse than useless.
    let mut oracle = data.clone();
    sort_slice_with(&mut oracle, KEY_BYTES, simd::Isa::Scalar);
    for &isa in &levels {
        let mut d = data.clone();
        sort_slice_with(&mut d, KEY_BYTES, isa);
        assert_eq!(d, oracle, "{isa} diverged from the scalar oracle");
    }

    // Full LSD sort per level, interleaved min-of-N.
    let mut sort_min = vec![f64::MAX; levels.len()];
    for _ in 0..ROUNDS {
        for (slot, &isa) in levels.iter().enumerate() {
            let mut d = data.clone();
            let t = Instant::now();
            sort_slice_with(&mut d, KEY_BYTES, isa);
            sort_min[slot] = sort_min[slot].min(t.elapsed().as_secs_f64());
            std::hint::black_box(&d);
        }
    }
    println!(
        "lsd sort, {} entries, {}-byte keys (min of {ROUNDS}):",
        data.len(),
        KEY_BYTES
    );
    for (slot, &isa) in levels.iter().enumerate() {
        println!("  {:8} {:8.1} us", isa.name(), sort_min[slot] * 1e6);
    }

    // Histogram kernels alone: one per-byte pass vs the whole fused sweep.
    let bits = simd::key_bits_scalar(&data);
    let plan = simd::plan_lsd(bits, simd::FUSED_MAX_DIGIT_BITS)
        .expect("corpus-width keys must be fusable");
    let mut byte_min = vec![f64::MAX; levels.len()];
    let mut fused_min = vec![f64::MAX; levels.len()];
    let mut tables: Box<simd::FusedTables> =
        Box::new([[0; simd::FUSED_RADIX]; simd::FUSED_MAX_PASSES]);
    for _ in 0..ROUNDS {
        for (slot, &isa) in levels.iter().enumerate() {
            let mut ctr = simd::KernelCounters::default();
            let t = Instant::now();
            let counts = simd::byte_histogram(isa, &data, 8, &mut ctr);
            byte_min[slot] = byte_min[slot].min(t.elapsed().as_secs_f64());
            std::hint::black_box(&counts);

            for row in tables.iter_mut() {
                row.fill(0);
            }
            let t = Instant::now();
            simd::fused_histograms(isa, &data, &plan, &mut tables, &mut ctr);
            fused_min[slot] = fused_min[slot].min(t.elapsed().as_secs_f64());
            std::hint::black_box(&tables);
        }
    }
    println!(
        "histograms ({bits}-bit keys -> {} passes of {} bits; min of {ROUNDS}):",
        plan.passes, plan.digit_bits
    );
    for (slot, &isa) in levels.iter().enumerate() {
        println!(
            "  {:8} one byte pass {:6.1} us | fused sweep {:6.1} us",
            isa.name(),
            byte_min[slot] * 1e6,
            fused_min[slot] * 1e6
        );
    }

    // Whole PB multiply per level, interleaved min-of-N.  Unit values keep
    // the product exact, so every level must return the same bits.
    let a = pb_gen::rmat_square(12, 8, 2).map_values(|_| 1.0);
    let a_csc = a.to_csc();
    let engines: Vec<SpGemm> = levels
        .iter()
        .map(|&isa| SpGemm::pb().config(PbConfig::default().with_simd(isa)))
        .collect();
    let oracle = engines[0].multiply_csc(&a_csc, &a);
    for (engine, &isa) in engines.iter().zip(&levels) {
        let c = engine.multiply_csc(&a_csc, &a);
        assert_eq!(c.colidx(), oracle.colidx(), "{isa} pattern diverged");
        assert_eq!(c.values(), oracle.values(), "{isa} product diverged");
    }
    let mut multiply_min = vec![f64::MAX; levels.len()];
    for _ in 0..MULTIPLY_ROUNDS {
        for (slot, engine) in engines.iter().enumerate() {
            let t = Instant::now();
            std::hint::black_box(engine.multiply_csc(&a_csc, &a));
            multiply_min[slot] = multiply_min[slot].min(t.elapsed().as_secs_f64());
        }
    }
    println!("PB multiply, R-MAT s12 ef8 (min of {MULTIPLY_ROUNDS}):");
    for (slot, &isa) in levels.iter().enumerate() {
        println!("  {:8} {:8.2} ms", isa.name(), multiply_min[slot] * 1e3);
    }
}
