//! Fig. 14: effect of a degraded memory domain (the paper's dual-socket
//! NUMA experiment).
//!
//! The evaluation machine has a single NUMA domain, so cross-socket
//! contention is **emulated** by running each algorithm while background
//! threads continuously stream a large buffer, stealing memory bandwidth —
//! the same effect a remote socket's traffic has on the paper's testbed.
//! The claim under test is qualitative: PB-SpGEMM, being bandwidth-bound,
//! loses a larger fraction of its performance than the latency-bound column
//! algorithms when bandwidth is taken away.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pb_bench::runner::{measure, Algorithm};
use pb_bench::workloads::{er_matrix, rmat_matrix};
use pb_bench::{fmt, print_table, quick_mode, repetitions, write_json, Table};

/// Starts `nthreads` background threads that stream a large buffer until the
/// returned flag is cleared, stealing memory bandwidth from the foreground.
fn start_bandwidth_thief(nthreads: usize) -> (Arc<AtomicBool>, Vec<std::thread::JoinHandle<()>>) {
    let run = Arc::new(AtomicBool::new(true));
    let mut handles = Vec::new();
    for t in 0..nthreads.max(1) {
        let run = Arc::clone(&run);
        handles.push(std::thread::spawn(move || {
            let n = 1 << 22; // 32 MiB of f64 per thief
            let mut buf = vec![t as f64; n];
            let mut acc = 0.0f64;
            while run.load(Ordering::Relaxed) {
                for chunk in buf.chunks_mut(4096) {
                    for v in chunk.iter_mut() {
                        acc += *v;
                        *v = acc;
                    }
                }
            }
            assert!(acc.is_finite() || acc.is_infinite());
        }));
    }
    (run, handles)
}

fn main() {
    // `--smoke` shrinks the workloads to CI size (sets PB_BENCH_QUICK).
    pb_bench::smoke_from_args();
    let quick = quick_mode();
    let reps = repetitions();
    let (scale, ef) = if quick { (11, 8) } else { (14, 16) };
    let workloads = [er_matrix(scale, ef, 5), rmat_matrix(scale, ef, 5)];
    let algorithms = Algorithm::paper_set();
    // Genuine scaling curves: sweep real thread counts up to the pool size
    // (which honours PB_RAYON_THREADS) instead of a single full-pool run.
    let threads = pb_bench::baseline::thread_sweep(rayon::current_num_threads());

    let mut table = Table::new(
        "Fig. 14 — full-bandwidth vs bandwidth-contended performance per thread count \
         (contention emulates the remote-socket traffic of the paper's dual-socket run)",
        &[
            "workload",
            "algorithm",
            "threads",
            "MFLOPS (full bw)",
            "MFLOPS (contended)",
            "retained fraction",
        ],
    );
    let mut records = Vec::new();

    for w in &workloads {
        // Full-bandwidth sweep first.
        let full: Vec<_> = algorithms
            .iter()
            .flat_map(|a| threads.iter().map(|&t| measure(w, a, reps, Some(t))))
            .collect();

        // Contended sweep: one thief per available core.
        let thieves = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (flag, handles) = start_bandwidth_thief(thieves);
        let contended: Vec<_> = algorithms
            .iter()
            .flat_map(|a| threads.iter().map(|&t| measure(w, a, reps, Some(t))))
            .collect();
        flag.store(false, Ordering::Relaxed);
        for h in handles {
            let _ = h.join();
        }

        for (f, c) in full.iter().zip(&contended) {
            let retained = c.mflops / f.mflops;
            table.push_row(vec![
                w.name.clone(),
                f.algorithm.clone(),
                f.threads_effective.to_string(),
                fmt(f.mflops, 0),
                fmt(c.mflops, 0),
                fmt(retained, 2),
            ]);
            records.push((
                w.name.clone(),
                f.algorithm.clone(),
                f.threads_effective,
                f.mflops,
                c.mflops,
                retained,
            ));
        }
    }
    print_table(&table);
    write_json("fig14_numa", &records);
    println!(
        "expected shape (paper Fig. 14 / Sec. V-D): every algorithm slows down under contention, \
         and PB-SpGEMM retains a smaller fraction of its performance than the column algorithms \
         because it depends on saturating the memory bandwidth."
    );
}
