//! Criterion micro-benchmarks of the in-bin sort: the library's LSD radix
//! sort against the standard library's comparison sort, at the key widths
//! produced by the paper's key-compression optimisation (4-byte keys) and
//! without it (8-byte keys) — plus the SIMD dispatch ablation, pinning the
//! radix sort to every ISA level the host supports so the vectorised
//! histogram and prefetched scatter show up as a per-level delta on the
//! same data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pb_gen::Xoshiro256pp;
use pb_spgemm::sort::{sort_slice, sort_slice_with};
use pb_spgemm::{simd, Entry};

fn make_entries(n: usize, key_bits: u32, seed: u64) -> Vec<Entry<f64>> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..n)
        .map(|_| Entry {
            key: rng.next_u64() & ((1u64 << key_bits) - 1),
            val: rng.next_f64(),
        })
        .collect()
}

fn bench_sorters(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_sort");
    group.sample_size(20);
    // 16K tuples of 16 bytes = 256 KiB: the in-L2 bin size the paper targets.
    let n = 16 * 1024;
    for &(label, bits) in &[("packed_30bit_keys", 30u32), ("full_60bit_keys", 60u32)] {
        let data = make_entries(n, bits, bits as u64);
        let key_bytes = (bits as usize).div_ceil(8);
        group.bench_with_input(
            BenchmarkId::new("lsd_radix", label),
            &data,
            |bench, data| {
                bench.iter(|| {
                    let mut copy = data.clone();
                    sort_slice(&mut copy, key_bytes);
                    black_box(copy.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("comparison", label),
            &data,
            |bench, data| {
                bench.iter(|| {
                    let mut copy = data.clone();
                    copy.sort_unstable_by_key(|e| e.key);
                    black_box(copy.len())
                });
            },
        );
    }
    group.finish();
}

/// The SIMD ablation: the same L2-sized bin radix sorted at every dispatch
/// level the host supports (scalar is always in the set,
/// so the ISA delta is read directly off the group).
fn bench_isa_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("bin_sort_isa");
    group.sample_size(20);
    let n = 16 * 1024;
    let data = make_entries(n, 30, 7);
    let key_bytes = 4usize;
    for isa in simd::Isa::supported() {
        group.bench_with_input(
            BenchmarkId::new("lsd_radix", isa.name()),
            &data,
            |bench, data| {
                bench.iter(|| {
                    let mut copy = data.clone();
                    sort_slice_with(&mut copy, key_bytes, isa);
                    black_box(copy.len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sorters, bench_isa_levels);
criterion_main!(benches);
