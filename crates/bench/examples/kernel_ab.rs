//! Within-run A/B of kernel alternatives no figure binary times.
//!
//! Like `isa_ab`, every contender runs in the *same* process, round-robin,
//! and the harness reports the min-of-N per contender, so ambient drift on
//! a shared host hits every contender alike.  Three groups:
//!
//! * the in-bin sort: the library's LSD radix sort against the standard
//!   library's comparison sort on an L2-sized bin (16 Ki entries), at the
//!   30-bit keys key compression yields and at 60-bit uncompressed keys;
//! * SpGEMM on a banded square (n = 4096, band 33): PB-SpGEMM against every
//!   paper baseline (`fig7_er` and `fig9_rmat` cover ER and R-MAT);
//! * SpMV on R-MAT scale 13 and 15: the row-parallel CSR kernel, the
//!   column scatter kernel and propagation-blocking SpMV.
//!
//! Run with: `cargo run --release -p pb-bench --example kernel_ab`

use std::time::Instant;

use pb_baseline::Baseline;
use pb_gen::{banded, rmat_square, Xoshiro256pp};
use pb_spgemm::sort::sort_slice;
use pb_spgemm::{Entry, SpGemm};
use pb_spmv::{csc_spmv, csr_spmv, pb_spmv, PbSpmvConfig};

/// A named closure to time.
type Contender<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// Runs every contender `rounds` times, interleaved, and prints the
/// fastest run of each in milliseconds under `title`.
fn min_of(title: &str, rounds: usize, contenders: &mut [Contender<'_>]) {
    let mut best = vec![f64::MAX; contenders.len()];
    for _ in 0..rounds {
        for ((_, run), best) in contenders.iter_mut().zip(&mut best) {
            let t = Instant::now();
            run();
            *best = best.min(t.elapsed().as_secs_f64());
        }
    }
    println!("{title} (min of {rounds}):");
    for ((name, _), best) in contenders.iter().zip(&best) {
        println!("  {name:24} {:9.3} ms", best * 1e3);
    }
}

fn main() {
    let mut rng = Xoshiro256pp::new(7);
    for bits in [30u32, 60] {
        let data: Vec<Entry<f64>> = (0..16 * 1024)
            .map(|_| Entry {
                key: rng.next_u64() & ((1u64 << bits) - 1),
                val: rng.next_f64(),
            })
            .collect();
        let key_bytes = (bits as usize).div_ceil(8);
        let radix = || {
            let mut copy = data.clone();
            sort_slice(&mut copy, key_bytes);
            std::hint::black_box(copy);
        };
        let comparison = || {
            let mut copy = data.clone();
            copy.sort_unstable_by_key(|e| e.key);
            std::hint::black_box(copy);
        };
        min_of(
            &format!("bin sort, {} entries, {bits}-bit keys", data.len()),
            200,
            &mut [
                ("lsd radix", Box::new(radix)),
                ("comparison", Box::new(comparison)),
            ],
        );
    }

    let a = banded(4096, 33, 3);
    let a_csc = a.to_csc();
    let pb = SpGemm::pb();
    let mut contenders: Vec<Contender> = vec![(
        "PB-SpGEMM",
        Box::new(|| {
            std::hint::black_box(pb.multiply_csc(&a_csc, &a));
        }),
    )];
    for baseline in Baseline::paper_set() {
        contenders.push((
            baseline.name(),
            Box::new(|| {
                std::hint::black_box(baseline.multiply(&a, &a));
            }),
        ));
    }
    min_of("SpGEMM, banded 4096 w33", 10, &mut contenders);

    for scale in [13u32, 15] {
        let a = rmat_square(scale, 8, 99);
        let a_csc = a.to_csc();
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 31) as f64 * 0.1).collect();
        let cfg = PbSpmvConfig::default();
        min_of(
            &format!("SpMV, R-MAT s{scale} ef8"),
            30,
            &mut [
                (
                    "csr row-parallel",
                    Box::new(|| {
                        std::hint::black_box(csr_spmv(&a, &x));
                    }),
                ),
                (
                    "csc scatter",
                    Box::new(|| {
                        std::hint::black_box(csc_spmv(&a_csc, &x));
                    }),
                ),
                (
                    "propagation blocking",
                    Box::new(|| {
                        std::hint::black_box(pb_spmv(&a_csc, &x, &cfg));
                    }),
                ),
            ],
        );
    }
}
