//! Traffic generator and service-level gate for the resident pb-serve
//! process.
//!
//! ```text
//! cargo run --release -p pb-bench --bin bench_serve -- [flags] [output-path]
//! ```
//!
//! Starts an in-process [`Server`], seeds its catalog by `store`-ing a
//! unit-valued ER matrix from a known generator seed, and drives it over
//! real TCP sockets in three phases:
//!
//! 1. **Closed loop** — N clients issue back-to-back `multiply` requests,
//!    each waiting for its response; per-request latency is recorded and
//!    every response fingerprint is checked against a locally recomputed
//!    reference-oracle product.
//! 2. **Open burst** — M independent connections queue their requests
//!    without waiting, so the dispatcher can coalesce same-key multiplies
//!    into one engine call; the largest observed batch is recorded.
//! 3. **Steady state** — one client re-multiplies the same resident
//!    operands on the PB path after a warm-up, proving the entry's
//!    workspace serves the whole request (`bytes_allocated == 0`).
//!
//! The run is written as `BENCH_serve.json` (schema
//! [`SCHEMA_TAG`]) with client-observed p50/p95/p99 latencies, the
//! server's own per-op latency histograms (scraped from the `metrics` op
//! through the [`Exposition`] parser and embedded verbatim, buckets and
//! all), plus catalog / workspace / planner / ISA telemetry.
//!
//! Client and server measure the same requests from opposite ends of the
//! socket: the client sees queue + handling + network, the server records
//! handling alone, so `--verify` can cross-check the two distributions
//! (server percentiles must not exceed client ones beyond histogram
//! bucket granularity).
//!
//! Flags:
//!
//! * `--smoke` — CI-sized run (smaller matrix, fewer clients/requests).
//! * `--verify` — after writing, re-read the file and assert the service
//!   guarantees: zero protocol errors, every sampled response matched the
//!   oracle, at least one real batch formed, the steady state allocated
//!   nothing, and the telemetry sections are present and consistent.
//!   Exits non-zero on any violation (the CI serve-smoke gate).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pb_bench::{fmt, print_table, Table};
use pb_serve::{fingerprint, Exposition, ServeConfig, Server};
use serde::Serialize;
use serde_json::Value;

/// Schema tag the emitted JSON must carry (bumped on breaking changes).
/// v2 added the `server_latency` per-op histogram section.
const SCHEMA_TAG: &str = "pb-serve-baseline/v2";

/// Burst attempts before conceding that no batch formed.  Batching is a
/// property of queue pressure, so a single burst can legitimately drain
/// one-by-one on an unloaded machine; several bursts cannot.
const BURST_ATTEMPTS: usize = 8;

/// A blocking line-oriented protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to in-process server");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn call(&mut self, request: &str) -> Value {
        self.send(request);
        self.recv()
    }

    fn send(&mut self, request: &str) {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        serde_json::from_str(&line).expect("response is valid JSON")
    }
}

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing integer `{key}` in {v:?}"))
}

/// A `store` request carrying `m` under `name`.
fn store_line(name: &str, m: &pb_sparse::Csr<f64>) -> String {
    let entries: Vec<String> = (0..m.nrows())
        .flat_map(|r| {
            let (cols, vals) = m.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(c, v)| format!("[{r},{c},{v:?}]"))
        })
        .collect();
    format!(
        r#"{{"op":"store","name":"{name}","rows":{},"cols":{},"entries":[{}]}}"#,
        m.nrows(),
        m.ncols(),
        entries.join(",")
    )
}

/// Latency distribution over the closed-loop phase, in microseconds.
#[derive(Debug, Clone, Serialize)]
struct LatencyDoc {
    count: u64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
    max_us: f64,
}

/// Outcome of the open-burst (batching) phase.
#[derive(Debug, Clone, Serialize)]
struct BatchingDoc {
    burst_connections: usize,
    attempts: usize,
    max_batched_with: u64,
    /// Every burst response carried the same product fingerprint as the
    /// unbatched oracle — batching never changed an answer.
    bit_identical: bool,
}

/// Outcome of the steady-state (workspace reuse) phase.
#[derive(Debug, Clone, Serialize)]
struct SteadyDoc {
    samples: u64,
    bytes_allocated_max: u64,
    bytes_reused_min: u64,
}

/// Oracle verification over every closed-loop response.
#[derive(Debug, Clone, Serialize)]
struct VerifyDoc {
    sampled: u64,
    matched: u64,
    oracle_fingerprint: u64,
}

/// One cumulative histogram bucket, straight off the metrics page.
#[derive(Debug, Clone, Serialize)]
struct BucketDoc {
    /// Upper bound in seconds (`le` label); `null` encodes `+Inf`.
    le_seconds: Option<f64>,
    cumulative: u64,
}

/// The server's own latency histogram for one op, scraped from
/// `pb_serve_request_seconds` after the run.  Percentiles are bucket
/// upper bounds, so they overestimate by at most one √2 bucket step.
#[derive(Debug, Clone, Serialize)]
struct OpLatencyDoc {
    op: String,
    count: u64,
    sum_seconds: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    buckets: Vec<BucketDoc>,
}

/// Server-side telemetry scraped from the `metrics` op after the run.
#[derive(Debug, Clone, Serialize)]
struct TelemetryDoc {
    requests_total: u64,
    errors_total: u64,
    batched_requests_total: u64,
    connections_total: u64,
    catalog_entries: u64,
    catalog_bytes_used: u64,
    catalog_bytes_budget: u64,
    catalog_evictions_total: u64,
    workspace_leases_total: u64,
    workspace_hits_total: u64,
    workspace_bytes_allocated_total: u64,
    workspace_bytes_reused_total: u64,
    workspace_bytes_released_total: u64,
    workspace_decay_events_total: u64,
    planner_last_kernel: String,
    simd_active: String,
}

/// The emitted baseline document.
#[derive(Debug, Clone, Serialize)]
struct ServeDoc {
    schema: String,
    op: String,
    workload: String,
    scale: u32,
    edge_factor: u32,
    seed: u64,
    clients: usize,
    requests_per_client: usize,
    wall_seconds: f64,
    throughput_rps: f64,
    latency: LatencyDoc,
    server_latency: Vec<OpLatencyDoc>,
    batching: BatchingDoc,
    steady_state: SteadyDoc,
    verification: VerifyDoc,
    telemetry: TelemetryDoc,
}

fn main() {
    let mut smoke = false;
    let mut verify = false;
    let mut out_path = "BENCH_serve.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--verify" => verify = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag} (known: --smoke --verify)");
                std::process::exit(2);
            }
            path => out_path = path.to_string(),
        }
    }

    let scale: u32 = if smoke { 7 } else { 10 };
    let edge_factor = 8u32;
    let seed = 42u64;
    let clients = if smoke { 4 } else { 8 };
    let requests_per_client = if smoke || pb_bench::quick_mode() {
        12
    } else {
        48
    };
    let burst_connections = if smoke { 12 } else { 24 };

    // The oracle: the operand the catalog is seeded with, pushed through
    // the reference engine.  Its values are all 1.0, so the product's
    // entries are exact integers that every kernel sums to the same bits
    // whatever its order; every service response is then a fingerprint
    // comparison away from a full correctness check.
    let local = pb_gen::erdos_renyi_square(scale, edge_factor, seed).map_values(|_| 1.0);
    let expected = pb_sparse::reference::multiply_csr(&local, &local);
    let oracle_print = fingerprint(&expected);

    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .budget_bytes(256 << 20),
    )
    .expect("bind in-process server");
    let addr = server.addr();

    let mut admin = Client::connect(addr);
    let r = admin.call(&store_line("w", &local));
    assert!(ok(&r), "seeding the catalog failed: {r:?}");
    assert_eq!(
        u(&r, "fingerprint"),
        fingerprint(&local),
        "the stored operand diverged from the local one"
    );

    // --- Phase 1: closed loop. -------------------------------------------
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut latencies = Vec::with_capacity(requests_per_client);
                let mut matched = 0u64;
                for _ in 0..requests_per_client {
                    let t = Instant::now();
                    let r = c.call(r#"{"op":"multiply","a":"w","b":"w"}"#);
                    latencies.push(t.elapsed().as_secs_f64() * 1e6);
                    assert!(ok(&r), "closed-loop multiply failed: {r:?}");
                    if u(&r, "fingerprint") == oracle_print {
                        matched += 1;
                    }
                }
                (latencies, matched)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut matched = 0u64;
    for h in handles {
        let (l, m) = h.join().expect("closed-loop client");
        latencies.extend(l);
        matched += m;
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    let sampled = (clients * requests_per_client) as u64;
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| -> f64 {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    let latency = LatencyDoc {
        count: latencies.len() as u64,
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        mean_us: latencies.iter().sum::<f64>() / latencies.len() as f64,
        max_us: *latencies.last().unwrap(),
    };

    // --- Phase 2: open burst. --------------------------------------------
    let mut max_batch = 0u64;
    let mut bit_identical = true;
    let mut attempts = 0;
    while attempts < BURST_ATTEMPTS && max_batch < 2 {
        attempts += 1;
        let mut burst: Vec<Client> = (0..burst_connections)
            .map(|_| Client::connect(addr))
            .collect();
        for b in burst.iter_mut() {
            b.send(r#"{"op":"multiply","a":"w","b":"w"}"#);
        }
        for b in burst.iter_mut() {
            let r = b.recv();
            assert!(ok(&r), "burst multiply failed: {r:?}");
            bit_identical &= u(&r, "fingerprint") == oracle_print;
            max_batch = max_batch.max(u(&r, "batched_with"));
        }
    }
    let batching = BatchingDoc {
        burst_connections,
        attempts,
        max_batched_with: max_batch,
        bit_identical,
    };

    // --- Phase 3: steady state on the PB path. ---------------------------
    // (The planner may legitimately route small products to a baseline
    // kernel that bypasses the workspace, so the reuse proof forces PB.)
    for _ in 0..4 {
        let r = admin.call(r#"{"op":"multiply","a":"w","b":"w","algorithm":"pb"}"#);
        assert!(ok(&r), "warm-up multiply failed: {r:?}");
    }
    let steady_samples = 4u64;
    let mut bytes_allocated_max = 0u64;
    let mut bytes_reused_min = u64::MAX;
    for _ in 0..steady_samples {
        let r = admin.call(r#"{"op":"multiply","a":"w","b":"w","algorithm":"pb"}"#);
        assert!(ok(&r), "steady-state multiply failed: {r:?}");
        bytes_allocated_max = bytes_allocated_max.max(u(&r, "bytes_allocated"));
        bytes_reused_min = bytes_reused_min.min(u(&r, "bytes_reused"));
    }

    // --- Telemetry scrape. -----------------------------------------------
    let metrics = admin.call(r#"{"op":"metrics"}"#);
    let text = metrics
        .get("text")
        .and_then(Value::as_str)
        .expect("metrics text")
        .to_string();
    let page = Exposition::parse(&text).unwrap_or_else(|e| panic!("metrics page malformed: {e}"));
    page.check()
        .unwrap_or_else(|e| panic!("metrics page inconsistent: {e}"));
    let telemetry = scrape_telemetry(&text);
    let server_latency = scrape_server_latency(&page);

    server.shutdown();
    server.join();

    let doc = ServeDoc {
        schema: SCHEMA_TAG.to_string(),
        op: "serve".to_string(),
        workload: format!("er-scale{scale}-ef{edge_factor}"),
        scale,
        edge_factor,
        seed,
        clients,
        requests_per_client,
        wall_seconds,
        throughput_rps: sampled as f64 / wall_seconds,
        latency,
        server_latency,
        batching,
        steady_state: SteadyDoc {
            samples: steady_samples,
            bytes_allocated_max,
            bytes_reused_min,
        },
        verification: VerifyDoc {
            sampled,
            matched,
            oracle_fingerprint: oracle_print,
        },
        telemetry,
    };

    let mut table = Table::new(
        format!(
            "pb-serve closed loop — {} ({} clients x {} requests, {} rps)",
            doc.workload,
            doc.clients,
            doc.requests_per_client,
            fmt(doc.throughput_rps, 0),
        ),
        &[
            "p50 us",
            "p95 us",
            "p99 us",
            "mean us",
            "max batch",
            "verified",
        ],
    );
    table.push_row(vec![
        fmt(doc.latency.p50_us, 1),
        fmt(doc.latency.p95_us, 1),
        fmt(doc.latency.p99_us, 1),
        fmt(doc.latency.mean_us, 1),
        doc.batching.max_batched_with.to_string(),
        format!("{}/{}", doc.verification.matched, doc.verification.sampled),
    ]);
    print_table(&table);

    let mut ops = Table::new(
        "pb-serve server-side latency (handling only, histogram bucket bounds)".to_string(),
        &["op", "count", "p50 us", "p95 us", "p99 us", "mean us"],
    );
    for op in &doc.server_latency {
        ops.push_row(vec![
            op.op.clone(),
            op.count.to_string(),
            fmt(op.p50_us, 1),
            fmt(op.p95_us, 1),
            fmt(op.p99_us, 1),
            fmt(op.sum_seconds * 1e6 / op.count.max(1) as f64, 1),
        ]);
    }
    print_table(&ops);

    let json = serde_json::to_string_pretty(&doc).expect("serialize serve baseline");
    std::fs::write(&out_path, json + "\n").expect("write serve baseline JSON");
    println!("wrote {out_path}");

    if verify {
        verify_baseline(&out_path);
        println!(
            "verified {out_path}: schema, oracle sampling, batching, steady-state reuse \
             and telemetry all OK"
        );
    }
}

/// Parses the `metrics` text exposition into the telemetry section.
fn scrape_telemetry(text: &str) -> TelemetryDoc {
    let counter = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metrics text missing counter {name}"))
    };
    let label = |family: &str| -> String {
        text.lines()
            .find(|l| l.starts_with(family))
            .and_then(|l| l.split('"').nth(1))
            .map(str::to_string)
            .unwrap_or_else(|| panic!("metrics text missing labeled family {family}"))
    };
    TelemetryDoc {
        requests_total: counter("pb_serve_requests_total"),
        errors_total: counter("pb_serve_errors_total"),
        batched_requests_total: counter("pb_serve_batched_requests_total"),
        connections_total: counter("pb_serve_connections_total"),
        catalog_entries: counter("pb_serve_catalog_entries"),
        catalog_bytes_used: counter("pb_serve_catalog_bytes_used"),
        catalog_bytes_budget: counter("pb_serve_catalog_bytes_budget"),
        catalog_evictions_total: counter("pb_serve_catalog_evictions_total"),
        workspace_leases_total: counter("pb_workspace_leases_total"),
        workspace_hits_total: counter("pb_workspace_hits_total"),
        workspace_bytes_allocated_total: counter("pb_workspace_bytes_allocated_total"),
        workspace_bytes_reused_total: counter("pb_workspace_bytes_reused_total"),
        workspace_bytes_released_total: counter("pb_workspace_bytes_released_total"),
        workspace_decay_events_total: counter("pb_workspace_decay_events_total"),
        planner_last_kernel: label("pb_planner_last_decision"),
        simd_active: label("pb_simd_active"),
    }
}

/// Extracts every op's `pb_serve_request_seconds` histogram from the
/// parsed metrics page.  Percentiles are read off the cumulative buckets
/// as upper bounds: the smallest `le` whose cumulative count covers the
/// quantile.
fn scrape_server_latency(page: &Exposition) -> Vec<OpLatencyDoc> {
    let mut ops: Vec<String> = page
        .series("pb_serve_request_seconds_count")
        .iter()
        .filter_map(|s| s.label("op").map(str::to_string))
        .collect();
    ops.sort();
    ops.iter()
        .map(|op| {
            let count = page
                .value("pb_serve_request_seconds_count", &[("op", op)])
                .expect("histogram _count") as u64;
            let sum_seconds = page
                .value("pb_serve_request_seconds_sum", &[("op", op)])
                .expect("histogram _sum");
            let mut buckets: Vec<(f64, u64)> = page
                .series("pb_serve_request_seconds_bucket")
                .iter()
                .filter(|s| s.label("op") == Some(op))
                .map(|s| {
                    let le = s.label("le").expect("bucket le label");
                    let le = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        le.parse().expect("finite le")
                    };
                    (le, s.value as u64)
                })
                .collect();
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let pct = |q: f64| -> f64 {
                let target = (count as f64 * q).ceil().max(1.0) as u64;
                for &(le, cum) in &buckets {
                    if cum >= target && le.is_finite() {
                        return le * 1e6;
                    }
                }
                // Quantile landed in +Inf: report the mean as the best
                // finite stand-in.
                sum_seconds * 1e6 / count.max(1) as f64
            };
            OpLatencyDoc {
                op: op.clone(),
                count,
                sum_seconds,
                p50_us: pct(0.50),
                p95_us: pct(0.95),
                p99_us: pct(0.99),
                buckets: buckets
                    .iter()
                    .map(|&(le, cumulative)| BucketDoc {
                        le_seconds: le.is_finite().then_some(le),
                        cumulative,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Re-reads an emitted serve baseline and asserts the service guarantees.
/// Panics (non-zero exit) on any violation — this is the CI serve-smoke
/// gate.
fn verify_baseline(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc: Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} must parse as JSON: {e:?}"));

    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(SCHEMA_TAG),
        "{path}: schema tag mismatch (regenerate with this bench_serve)"
    );

    // Latency distribution: present, ordered, complete.
    let latency = doc.get("latency").expect("latency section");
    let lat = |key: &str| {
        latency
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{path}: latency section missing {key}"))
    };
    let (p50, p95, p99) = (lat("p50_us"), lat("p95_us"), lat("p99_us"));
    assert!(
        p50 > 0.0 && p50 <= p95 && p95 <= p99,
        "{path}: latency percentiles out of order (p50={p50} p95={p95} p99={p99})"
    );
    assert_eq!(
        latency.get("count").and_then(Value::as_u64),
        doc.get("verification")
            .and_then(|v| v.get("sampled"))
            .and_then(Value::as_u64),
        "{path}: latency count disagrees with the sampled request count"
    );

    // Server-side histograms: present, self-consistent, and agreeing with
    // what the clients measured from their end of the socket.
    let server_latency = doc
        .get("server_latency")
        .and_then(Value::as_array)
        .expect("server_latency section");
    let multiply = server_latency
        .iter()
        .find(|o| o.get("op").and_then(Value::as_str) == Some("multiply"))
        .unwrap_or_else(|| panic!("{path}: no server-side multiply histogram"));
    let server_count = u(multiply, "count");
    let sampled_requests = doc
        .get("verification")
        .and_then(|v| v.get("sampled"))
        .and_then(Value::as_u64)
        .expect("verification.sampled");
    assert!(
        server_count >= sampled_requests,
        "{path}: server multiply histogram ({server_count}) missed closed-loop requests \
         ({sampled_requests})"
    );
    let buckets = multiply
        .get("buckets")
        .and_then(Value::as_array)
        .expect("bucket array");
    let mut prev = 0u64;
    for b in buckets {
        let c = u(b, "cumulative");
        assert!(c >= prev, "{path}: multiply buckets not cumulative");
        prev = c;
    }
    assert_eq!(
        prev, server_count,
        "{path}: +Inf bucket disagrees with the histogram count"
    );
    // The server records handling alone; the client adds queue + network on
    // top, and the server's percentiles are √2-bucket upper bounds.  A
    // generous 4x + 1ms envelope keeps the check meaningful (the server
    // can never be an order of magnitude slower than what clients saw)
    // without flaking on scheduler noise.
    let server_pct = |key: &str| {
        multiply
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{path}: server multiply histogram missing {key}"))
    };
    for (client_q, server_q, client_v) in [
        ("p50_us", "p50_us", p50),
        ("p95_us", "p95_us", p95),
        ("p99_us", "p99_us", p99),
    ] {
        let server_v = server_pct(server_q);
        assert!(
            server_v <= client_v * 4.0 + 1000.0,
            "{path}: server {server_q}={server_v}us exceeds client {client_q}={client_v}us \
             beyond bucket granularity"
        );
    }

    // Oracle sampling: every sampled response matched the reference product.
    let verification = doc.get("verification").expect("verification section");
    let sampled = u(verification, "sampled");
    assert!(sampled > 0, "{path}: no responses were sampled");
    assert_eq!(
        u(verification, "matched"),
        sampled,
        "{path}: some responses did not match the reference oracle"
    );

    // Batching: at least one real batch formed, without changing answers.
    let batching = doc.get("batching").expect("batching section");
    assert!(
        u(batching, "max_batched_with") >= 2,
        "{path}: no multiply batch ever formed across {} burst attempts",
        u(batching, "attempts"),
    );
    assert_eq!(
        batching.get("bit_identical").and_then(Value::as_bool),
        Some(true),
        "{path}: a batched response diverged from the unbatched product"
    );

    // Steady state: the resident workspace served everything.
    let steady = doc.get("steady_state").expect("steady_state section");
    assert!(u(steady, "samples") > 0, "{path}: steady state unsampled");
    assert_eq!(
        u(steady, "bytes_allocated_max"),
        0,
        "{path}: steady-state multiplies still allocate workspace-managed buffers"
    );
    assert!(
        u(steady, "bytes_reused_min") > 0,
        "{path}: steady state reports no reused bytes"
    );

    // Telemetry: protocol stayed clean and the engine sections are present.
    let telemetry = doc.get("telemetry").expect("telemetry section");
    assert_eq!(
        u(telemetry, "errors_total"),
        0,
        "{path}: the server answered some requests with protocol errors"
    );
    assert!(u(telemetry, "requests_total") >= sampled);
    assert!(u(telemetry, "batched_requests_total") >= 1);
    assert!(u(telemetry, "workspace_leases_total") > 0);
    assert!(u(telemetry, "catalog_entries") >= 1);
    assert!(
        u(telemetry, "catalog_bytes_used") <= u(telemetry, "catalog_bytes_budget"),
        "{path}: catalog over budget"
    );
    let planned = telemetry
        .get("planner_last_kernel")
        .and_then(Value::as_str)
        .expect("planner_last_kernel");
    assert!(!planned.is_empty(), "{path}: planner telemetry is empty");
    let isa = telemetry
        .get("simd_active")
        .and_then(Value::as_str)
        .expect("simd_active");
    assert!(
        ["avx512", "avx2", "neon", "scalar"].contains(&isa),
        "{path}: unknown ISA level {isa:?}"
    );
}
