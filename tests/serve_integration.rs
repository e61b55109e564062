//! End-to-end exercises of the resident service: an in-process server,
//! real TCP clients, concurrent traffic, the batching guarantee, and the
//! steady-state zero-allocation property.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use pb_spgemm_suite::serve::{ServeConfig, Server};
use pb_spgemm_suite::spgemm::Algorithm;

/// A tiny line-oriented protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to in-process server");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn call(&mut self, request: &str) -> serde::Value {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        serde_json::from_str(&line).expect("response is valid JSON")
    }

    /// Sends without reading; responses are collected later (used to queue
    /// a burst the dispatcher can batch).
    fn send(&mut self, request: &str) {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
    }

    fn recv(&mut self) -> serde::Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        serde_json::from_str(&line).expect("response is valid JSON")
    }
}

fn ok(v: &serde::Value) -> bool {
    v.get("ok").and_then(serde::Value::as_bool) == Some(true)
}

fn u(v: &serde::Value, key: &str) -> u64 {
    v.get(key)
        .and_then(serde::Value::as_u64)
        .unwrap_or_else(|| panic!("missing integer `{key}` in {v:?}"))
}

/// A `store` request carrying `m`'s sparsity pattern with every value 1.0.
/// Unit-valued products are sums of exact integers, so every kernel must
/// return them bit for bit whatever order it adds in.
fn store_unit_line(name: &str, m: &pb_spgemm_suite::sparse::Csr<f64>) -> String {
    let entries: Vec<String> = (0..m.nrows())
        .flat_map(|r| m.row(r).0.iter().map(move |&c| format!("[{r},{c},1.0]")))
        .collect();
    format!(
        r#"{{"op":"store","name":"{name}","rows":{},"cols":{},"entries":[{}]}}"#,
        m.nrows(),
        m.ncols(),
        entries.join(",")
    )
}

fn start_server() -> Server {
    Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .budget_bytes(64 << 20),
    )
    .expect("bind in-process server")
}

#[test]
fn ping_store_multiply_and_evict_round_trip() {
    let server = start_server();
    let mut c = Client::connect(server.addr());

    let pong = c.call(r#"{"op":"ping"}"#);
    assert!(ok(&pong));
    assert_eq!(pong.get("op").and_then(serde::Value::as_str), Some("pong"));

    // Store I2 and a 2x2, multiply, check the product comes back exactly.
    let r = c.call(
        r#"{"op":"store","name":"a","rows":2,"cols":2,"entries":[[0,0,1.0],[0,1,2.0],[1,1,3.0]]}"#,
    );
    assert!(ok(&r), "{r:?}");
    assert_eq!(u(&r, "nnz"), 3);
    let r =
        c.call(r#"{"op":"store","name":"i","rows":2,"cols":2,"entries":[[0,0,1.0],[1,1,1.0]]}"#);
    assert!(ok(&r));

    let product = c.call(r#"{"op":"multiply","a":"a","b":"i","return":"entries"}"#);
    assert!(ok(&product), "{product:?}");
    assert_eq!(u(&product, "nnz"), 3);
    assert_eq!(u(&product, "rows"), 2);
    let entries = product
        .get("entries")
        .and_then(serde::Value::as_array)
        .expect("entries returned");
    let triples: Vec<(u64, u64, f64)> = entries
        .iter()
        .map(|e| {
            let t = e.as_array().unwrap();
            (
                t[0].as_u64().unwrap(),
                t[1].as_u64().unwrap(),
                t[2].as_f64().unwrap(),
            )
        })
        .collect();
    assert_eq!(triples, vec![(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);

    // list sees both operands; evict removes one.
    let listing = c.call(r#"{"op":"list"}"#);
    assert_eq!(
        listing
            .get("entries")
            .and_then(serde::Value::as_array)
            .unwrap()
            .len(),
        2
    );
    let e = c.call(r#"{"op":"evict","name":"i"}"#);
    assert_eq!(e.get("evicted").and_then(serde::Value::as_bool), Some(true));
    let gone = c.call(r#"{"op":"multiply","a":"a","b":"i"}"#);
    assert!(!ok(&gone));
    assert!(gone
        .get("error")
        .and_then(serde::Value::as_str)
        .unwrap()
        .contains("no matrix named"));

    server.join();
}

#[test]
fn protocol_errors_are_answered_not_fatal() {
    let server = start_server();
    let mut c = Client::connect(server.addr());

    let bad = c.call("this is not json");
    assert!(!ok(&bad));
    let unknown = c.call(r#"{"op":"teleport"}"#);
    assert!(!ok(&unknown));
    // The connection survives both.
    assert!(ok(&c.call(r#"{"op":"ping"}"#)));

    server.join();
}

#[test]
fn concurrent_clients_store_multiply_mcl_and_evict() {
    let server = start_server();
    let addr = server.addr();

    // Seed a shared graph.
    let mut seed = Client::connect(addr);
    let r =
        seed.call(r#"{"op":"gen","name":"g","kind":"rmat","scale":6,"edge_factor":4,"seed":7}"#);
    assert!(ok(&r), "{r:?}");

    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for i in 0..3 {
                    // Private per-thread matrix churn plus shared-graph ops.
                    let name = format!("t{t}x{i}");
                    let r = c.call(&format!(
                        r#"{{"op":"gen","name":"{name}","kind":"er","scale":5,"edge_factor":4,"seed":{}}}"#,
                        t * 100 + i
                    ));
                    assert!(ok(&r), "{r:?}");
                    let r = c.call(&format!(r#"{{"op":"multiply","a":"{name}","b":"{name}"}}"#));
                    assert!(ok(&r), "{r:?}");
                    let r = c.call(r#"{"op":"multiply","a":"g","b":"g"}"#);
                    assert!(ok(&r), "{r:?}");
                    let r = c.call(&format!(r#"{{"op":"evict","name":"{name}"}}"#));
                    assert!(ok(&r));
                }
                let r = c.call(r#"{"op":"mcl","name":"g","max_iterations":8}"#);
                assert!(ok(&r), "{r:?}");
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    // Telemetry shows real traffic flowed.
    let metrics = seed.call(r#"{"op":"metrics"}"#);
    let text = metrics
        .get("text")
        .and_then(serde::Value::as_str)
        .expect("metrics text");
    assert!(text.contains("pb_serve_requests_total"));
    assert!(text.contains("pb_workspace_leases_total"));
    assert!(text.contains("pb_serve_errors_total 0"), "{text}");

    server.join();
}

#[test]
fn batched_multiplies_are_bit_identical_to_unbatched() {
    let server = start_server();
    let addr = server.addr();
    let mut c = Client::connect(addr);
    assert!(ok(&c.call(
        r#"{"op":"gen","name":"m","kind":"rmat","scale":7,"edge_factor":8,"seed":3}"#
    )));

    // Unbatched reference fingerprint.
    let alone = c.call(r#"{"op":"multiply","a":"m","b":"m"}"#);
    assert!(ok(&alone), "{alone:?}");
    let reference_print = u(&alone, "fingerprint");

    // Queue a burst from independent connections, then read every reply:
    // the dispatcher coalesces whatever is queued together, and each reply
    // must carry the identical product fingerprint, batched or not.
    let mut burst: Vec<Client> = (0..8).map(|_| Client::connect(addr)).collect();
    for b in burst.iter_mut() {
        b.send(r#"{"op":"multiply","a":"m","b":"m"}"#);
    }
    let mut max_batch = 0;
    for b in burst.iter_mut() {
        let r = b.recv();
        assert!(ok(&r), "{r:?}");
        assert_eq!(
            u(&r, "fingerprint"),
            reference_print,
            "bit-identical product"
        );
        max_batch = max_batch.max(u(&r, "batched_with"));
    }
    // With 8 queued requests and 2 workers, at least one execution answered
    // more than one request.
    assert!(
        max_batch >= 2,
        "no batch formed across the burst (max batched_with = {max_batch})"
    );

    server.join();
}

#[test]
fn steady_state_batches_allocate_nothing() {
    let server = start_server();
    let addr = server.addr();
    let mut c = Client::connect(addr);
    assert!(ok(&c.call(
        r#"{"op":"gen","name":"s","kind":"er","scale":7,"edge_factor":8,"seed":11}"#
    )));

    // Warm the entry's workspace past its high-water mark (forcing PB: the
    // planner may legitimately route a small product to a baseline kernel,
    // and only the PB path exercises the workspace).
    for _ in 0..3 {
        let r = c.call(r#"{"op":"multiply","a":"s","b":"s","algorithm":"pb"}"#);
        assert!(ok(&r));
    }
    // Steady state: same-shape products draw everything from the workspace.
    for _ in 0..3 {
        let r = c.call(r#"{"op":"multiply","a":"s","b":"s","algorithm":"pb"}"#);
        assert!(ok(&r));
        assert_eq!(
            u(&r, "bytes_allocated"),
            0,
            "steady-state multiply allocated: {r:?}"
        );
        assert!(u(&r, "bytes_reused") > 0);
    }

    server.join();
}

/// The shape of the `serve-churn` workload: two clients store fresh ER
/// matrices into a catalog of about 16 of them and multiply two different
/// names among their own four newest stores, so stores evict old entries
/// beside the reads while every live operand stays resident.  Each product
/// goes through a cold or reused entry workspace whose pooled sort scratch
/// last served a product of a different flop, and must still match the
/// reference bit for bit.
#[test]
fn churned_stores_and_cross_multiplies_match_the_reference() {
    use pb_spgemm_suite::gen::erdos_renyi_square;
    use pb_spgemm_suite::serve::catalog::matrix_bytes;
    use pb_spgemm_suite::serve::fingerprint;
    use pb_spgemm_suite::sparse::reference::multiply_csr;
    use std::sync::{Arc, Barrier};

    const CLIENTS: usize = 2;
    const ROUNDS: usize = 52;
    let matrix = |seed: u64| erdos_renyi_square(9, 8, seed).map_values(|_| 1.0);
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .budget_bytes(16 * matrix_bytes(&matrix(0))),
    )
    .expect("bind in-process server");
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut stored = Vec::new();
                let store = |c: &mut Client, stored: &mut Vec<_>| {
                    let name = format!("c{client}m{}", stored.len());
                    let m = matrix((1000 * client + stored.len()) as u64 + 1);
                    let r = c.call(&store_unit_line(&name, &m));
                    assert!(ok(&r), "store {name}: {r:?}");
                    stored.push((name, m));
                };
                for _ in 0..3 {
                    store(&mut c, &mut stored);
                }
                for round in 0..ROUNDS {
                    barrier.wait();
                    store(&mut c, &mut stored);
                    // Two different names among the four newest stores.
                    let newest = stored.len() - 1;
                    let x = round % 4;
                    let y = (x + 1 + (round / 4) % 3) % 4;
                    let (a_name, a) = &stored[newest - x];
                    let (b_name, b) = &stored[newest - y];
                    let r = c.call(&format!(
                        r#"{{"op":"multiply","a":"{a_name}","b":"{b_name}"}}"#
                    ));
                    assert!(ok(&r), "round {round}, {a_name}·{b_name}: {r:?}");
                    assert_eq!(
                        u(&r, "fingerprint"),
                        fingerprint(&multiply_csr(a, b)),
                        "round {round}, {a_name}·{b_name}"
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    let metrics = Client::connect(addr).call(r#"{"op":"metrics"}"#);
    let text = metrics
        .get("text")
        .and_then(serde::Value::as_str)
        .expect("metrics text");
    let evictions: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("pb_serve_catalog_evictions_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("eviction counter");
    assert!(evictions > 0, "the stores never evicted: {text}");
    assert!(text.contains("pb_serve_errors_total 0"), "{text}");
    server.join();
}

#[test]
fn per_request_algorithm_override_and_shutdown_op() {
    let server = start_server();
    let addr = server.addr();
    let mut c = Client::connect(addr);
    let q = pb_spgemm_suite::gen::erdos_renyi_square(5, 4, 2);
    let r = c.call(&store_unit_line("q", &q));
    assert!(ok(&r), "{r:?}");

    // The same unit-valued product under the planner, PB, a baseline and
    // the reference oracle must agree bit-for-bit.
    let mut prints = Vec::new();
    for alg in ["auto", "pb", "hash", "reference"] {
        let r = c.call(&format!(
            r#"{{"op":"multiply","a":"q","b":"q","algorithm":"{alg}"}}"#
        ));
        assert!(ok(&r), "{alg}: {r:?}");
        assert_eq!(
            r.get("algorithm").and_then(serde::Value::as_str),
            Some(Algorithm::parse(alg).unwrap().name())
        );
        prints.push(u(&r, "fingerprint"));
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "engines disagree: {prints:?}"
    );

    // shutdown answers, then the server exits on its own.
    let bye = c.call(r#"{"op":"shutdown"}"#);
    assert!(ok(&bye));
    server.join();
}

#[test]
fn non_square_graph_ops_error_instead_of_killing_workers() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    // A perfectly storable rectangular matrix...
    let r =
        c.call(r#"{"op":"store","name":"rect","rows":2,"cols":3,"entries":[[0,0,1.0],[1,2,2.0]]}"#);
    assert!(ok(&r), "{r:?}");
    // ...must be *rejected* by the square-only graph kernels, not crash
    // them.  Repeat past the worker count: a panicking handler would kill
    // a worker each time and the later calls would hang forever.
    for op in [
        r#"{"op":"mcl","name":"rect"}"#,
        r#"{"op":"bc","name":"rect"}"#,
        r#"{"op":"apsp","name":"rect"}"#,
        r#"{"op":"mcl","name":"rect","inflation":1.5}"#,
    ] {
        let r = c.call(op);
        assert!(!ok(&r), "{op} accepted a non-square matrix: {r:?}");
        assert!(
            r.get("error")
                .and_then(serde::Value::as_str)
                .unwrap()
                .contains("square"),
            "{r:?}"
        );
    }
    // Every worker is still alive and serving.
    assert!(ok(&c.call(r#"{"op":"ping"}"#)));
    let r = c.call(r#"{"op":"multiply","a":"rect","b":"rect"}"#);
    assert!(!ok(&r), "2x3 times 2x3 is a dimension mismatch");
    server.join();
}

#[test]
fn correlation_ids_are_echoed_on_success_and_error() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    let r = c.call(r#"{"op":"ping","id":42}"#);
    assert!(ok(&r));
    assert_eq!(u(&r, "id"), 42);
    let r = c.call(r#"{"op":"mcl","name":"nope","id":"req-7"}"#);
    assert!(!ok(&r));
    assert_eq!(
        r.get("id").and_then(serde::Value::as_str),
        Some("req-7"),
        "error responses correlate too: {r:?}"
    );
    // Bad op but valid JSON: the id still comes back.
    let r = c.call(r#"{"op":"fly","id":3}"#);
    assert!(!ok(&r));
    assert_eq!(u(&r, "id"), 3);
    server.join();
}

#[test]
fn oversized_lines_are_answered_and_disconnected() {
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(1)
            .budget_bytes(64 << 20)
            .max_line_bytes(1024),
    )
    .expect("bind in-process server");
    let mut c = Client::connect(server.addr());
    // Stream well past the limit without ever sending a newline.
    let blob = vec![b'x'; 8 * 1024];
    c.writer.write_all(&blob).expect("send oversized line");
    let mut line = String::new();
    c.reader.read_line(&mut line).expect("read error response");
    let r: serde::Value = serde_json::from_str(&line).expect("error response is JSON");
    assert!(!ok(&r), "{r:?}");
    assert!(r
        .get("error")
        .and_then(serde::Value::as_str)
        .unwrap()
        .contains("byte limit"));
    // The connection is closed afterwards: EOF or reset (the server drops
    // the socket with our unread bytes still pending), never a hang.
    line.clear();
    match c.reader.read_line(&mut line) {
        Ok(n) => assert_eq!(n, 0, "connection should be closed, got {line:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e:?}"),
    }
    // The server itself keeps serving new connections.
    let mut c2 = Client::connect(server.addr());
    assert!(ok(&c2.call(r#"{"op":"ping"}"#)));
    server.join();
}

#[test]
fn load_op_is_gated_contained_and_budgeted() {
    // Disabled by default: a server without an allowlisted directory never
    // touches the filesystem on client request.
    let server = start_server();
    let mut c = Client::connect(server.addr());
    let r = c.call(r#"{"op":"load","name":"m","path":"m.pbsm"}"#);
    assert!(!ok(&r));
    assert!(r
        .get("error")
        .and_then(serde::Value::as_str)
        .unwrap()
        .contains("disabled"));
    server.join();

    // Allowlisted directory: a saved matrix loads and multiplies, while a
    // path pointing at an existing file *outside* the directory is refused.
    let dir = std::env::temp_dir().join("pb_serve_load_test");
    std::fs::create_dir_all(&dir).unwrap();
    let m = pb_spgemm_suite::gen::erdos_renyi_square(6, 4, 9);
    pb_spgemm_suite::gen::save_matrix(dir.join("m.pbsm"), &m).expect("save matrix");
    std::fs::write(dir.join("../pb_serve_load_outside.mtx"), b"not reachable").unwrap();
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(2)
            .budget_bytes(64 << 20)
            .load_dir(Some(dir.clone())),
    )
    .expect("bind in-process server");
    let mut c = Client::connect(server.addr());
    let r = c.call(r#"{"op":"load","name":"m","path":"m.pbsm"}"#);
    assert!(ok(&r), "{r:?}");
    assert_eq!(u(&r, "nnz"), m.nnz() as u64);
    assert_eq!(u(&r, "rows"), m.nrows() as u64);
    let r = c.call(r#"{"op":"multiply","a":"m","b":"m"}"#);
    assert!(ok(&r), "loaded matrix multiplies: {r:?}");
    let r = c.call(r#"{"op":"load","name":"x","path":"../pb_serve_load_outside.mtx"}"#);
    assert!(!ok(&r));
    assert!(
        r.get("error")
            .and_then(serde::Value::as_str)
            .unwrap()
            .contains("escapes the load directory"),
        "{r:?}"
    );
    let r = c.call(r#"{"op":"load","name":"x","path":"missing.pbsm"}"#);
    assert!(!ok(&r), "nonexistent files are a typed error: {r:?}");
    server.join();

    // A tiny catalog budget rejects the load on the up-front size estimate,
    // before any allocation happens.
    let server = Server::start(
        ServeConfig::default()
            .addr("127.0.0.1:0")
            .workers(1)
            .budget_bytes(1 << 10)
            .load_dir(Some(dir)),
    )
    .expect("bind in-process server");
    let mut c = Client::connect(server.addr());
    let r = c.call(r#"{"op":"load","name":"m","path":"m.pbsm"}"#);
    assert!(!ok(&r));
    assert!(
        r.get("error")
            .and_then(serde::Value::as_str)
            .unwrap()
            .contains("catalog budget"),
        "{r:?}"
    );
    server.join();
}

#[test]
fn ooc_multiply_spills_reports_and_shows_in_metrics() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    assert!(ok(&c.call(
        r#"{"op":"gen","name":"o","kind":"er","scale":11,"edge_factor":16,"seed":5}"#
    )));
    let resident = c.call(r#"{"op":"multiply","a":"o","b":"o"}"#);
    assert!(ok(&resident), "{resident:?}");

    // The same product out-of-core under a 1 MiB budget: the derived grid
    // tiles the operands, the product spills to scratch, and the response
    // carries the OOC report alongside the usual fields.
    let tiled = c.call(r#"{"op":"multiply","a":"o","b":"o","ooc_budget_mb":1}"#);
    assert!(ok(&tiled), "{tiled:?}");
    assert_eq!(u(&tiled, "nnz"), u(&resident, "nnz"));
    assert_eq!(u(&tiled, "rows"), u(&resident, "rows"));
    assert!(u(&tiled, "ooc_tiles") >= 8, "{tiled:?}");
    assert!(u(&tiled, "ooc_spill_bytes") > 0, "{tiled:?}");
    assert!(u(&tiled, "ooc_resident_high_water") > 0, "{tiled:?}");
    assert!(tiled
        .get("ooc_grid")
        .and_then(serde::Value::as_str)
        .unwrap()
        .contains('x'));
    // OOC multiplies are never coalesced with other requests.
    assert_eq!(u(&tiled, "batched_with"), 1);

    let metrics = c.call(r#"{"op":"metrics"}"#);
    let text = metrics
        .get("text")
        .and_then(serde::Value::as_str)
        .expect("metrics text");
    assert!(text.contains("pb_ooc_multiplies_total 1"), "{text}");
    assert!(!text.contains("pb_ooc_spill_bytes_total 0"), "{text}");
    assert!(text.contains("pb_ooc_resident_high_water_bytes"), "{text}");
    assert!(text.contains("pb_serve_resident_bytes_combined"), "{text}");

    server.join();
}

#[test]
fn gen_limits_are_enforced_before_generation() {
    let server = start_server();
    let mut c = Client::connect(server.addr());
    let r = c.call(r#"{"op":"gen","name":"g","kind":"rmat","scale":25}"#);
    assert!(!ok(&r));
    let r = c.call(r#"{"op":"gen","name":"g","kind":"rmat","scale":10,"edge_factor":4000000000}"#);
    assert!(!ok(&r));
    assert!(r
        .get("error")
        .and_then(serde::Value::as_str)
        .unwrap()
        .contains("edge_factor"));
    // Within the caps but past the 64 MiB catalog budget: rejected by the
    // up-front estimate (instantly — generation never starts).
    let r = c.call(r#"{"op":"gen","name":"g","kind":"er","scale":20,"edge_factor":64}"#);
    assert!(!ok(&r));
    assert!(r
        .get("error")
        .and_then(serde::Value::as_str)
        .unwrap()
        .contains("catalog budget"));
    // A sane request still lands.
    assert!(ok(&c.call(
        r#"{"op":"gen","name":"g","kind":"er","scale":6,"edge_factor":4}"#
    )));
    server.join();
}
