//! Criterion micro-benchmarks of the expand-phase ablations: the effect of
//! the local-bin width, and the flush-prefetch ablation (forced-scalar
//! dispatch disables the destination-line prefetch, so scalar-vs-best
//! isolates its contribution on the same workload).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pb_gen::erdos_renyi_square;
use pb_spgemm::{simd, PbConfig, SpGemm};

fn bench_local_bin_width(c: &mut Criterion) {
    let a = erdos_renyi_square(12, 8, 12);
    let a_csc = a.to_csc();
    let mut group = c.benchmark_group("local_bin_width");
    group.sample_size(10);
    for width in [64usize, 256, 512, 2048] {
        let engine = SpGemm::pb().config(PbConfig::default().with_local_bin_bytes(width));
        group.bench_function(BenchmarkId::from_parameter(width), |bench| {
            bench.iter(|| black_box(engine.multiply_csc(&a_csc, &a)));
        });
    }
    group.finish();
}

/// Flush-prefetch ablation: the whole multiply with the bin-flush copy
/// prefetching destination lines (any SIMD level) vs not (forced scalar).
fn bench_flush_prefetch(c: &mut Criterion) {
    let a = erdos_renyi_square(12, 8, 13);
    let a_csc = a.to_csc();
    let mut group = c.benchmark_group("flush_prefetch");
    group.sample_size(10);
    for isa in simd::Isa::supported() {
        let engine = SpGemm::pb().config(PbConfig::default().with_simd(isa));
        group.bench_function(BenchmarkId::from_parameter(isa.name()), |bench| {
            bench.iter(|| black_box(engine.multiply_csc(&a_csc, &a)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_local_bin_width, bench_flush_prefetch);
criterion_main!(benches);
