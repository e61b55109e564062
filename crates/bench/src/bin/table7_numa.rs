//! Table VII: local vs. remote memory bandwidth and latency.
//!
//! The evaluation machine has a single NUMA domain, so the "remote socket"
//! is emulated by a prefetch-defeating strided stream and a larger
//! pointer-chase working set (see `pb_model::numa`); the point being
//! reproduced is that a degraded memory domain exists and hurts
//! bandwidth-bound algorithms most (Fig. 14).

use pb_bench::{fmt, print_table, quick_mode, write_json, Table};
use pb_model::numa::{probe, NumaConfig};
use pb_model::stream::{run as stream_run, StreamConfig};

fn main() {
    // `--smoke` shrinks the workloads to CI size (sets PB_BENCH_QUICK).
    pb_bench::smoke_from_args();
    let cfg = if quick_mode() {
        NumaConfig::quick()
    } else {
        NumaConfig::default()
    };
    let p = probe(&cfg);

    let mut table = Table::new(
        "Table VII — local vs. far memory (far domain emulated; see DESIGN.md)",
        &["domain", "bandwidth (GB/s)", "latency (ns)"],
    );
    table.push_row(vec![
        "local".into(),
        fmt(p.local_bandwidth_gbps, 2),
        fmt(p.local_latency_ns, 1),
    ]);
    table.push_row(vec![
        "far (emulated)".into(),
        fmt(p.far_bandwidth_gbps, 2),
        fmt(p.far_latency_ns, 1),
    ]);
    print_table(&table);

    // Bandwidth scaling: how many real threads it takes to saturate the
    // local memory domain (the paper's Table VII context for Fig. 12–14).
    let mut scaling = Table::new(
        "Local STREAM triad bandwidth vs thread count",
        &["threads", "triad (GB/s)", "best kernel (GB/s)"],
    );
    let mut sweep_records = Vec::new();
    for &t in &pb_bench::baseline::thread_sweep(rayon::current_num_threads()) {
        let mut sc = if quick_mode() {
            StreamConfig::quick()
        } else {
            StreamConfig::default()
        };
        sc.threads = Some(t);
        let r = stream_run(&sc);
        scaling.push_row(vec![t.to_string(), fmt(r.triad, 2), fmt(r.best_gbps(), 2)]);
        sweep_records.push((t, r.triad, r.best_gbps()));
    }
    print_table(&scaling);

    write_json("table7_numa", &p);
    write_json("table7_numa_scaling", &sweep_records);
    println!(
        "far/local bandwidth ratio = {:.2} (paper: 33.4/50.3 = 0.66 across Skylake sockets)",
        p.bandwidth_ratio()
    );
}
