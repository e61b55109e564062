//! The serve workloads: an in-process `pb-serve` server on two workers,
//! driven over two TCP connections.
//!
//! Latency comes from an open loop: the clients are independent users, so
//! requests go out on a Poisson schedule from a seeded RNG whatever the
//! server does, and each is timed from when it was *due*, so a stall also
//! delays every request scheduled behind it.  One sender thread keeps the
//! schedule (sleeping to each due time) and each connection has a reader
//! thread that blocks on its socket, so arrivals are timestamped as they land.
//! Capacity comes from a closed loop that keeps a few requests in flight per
//! connection.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pb_gen::{SplitMix64, Xoshiro256pp};
use pb_serve::catalog::matrix_bytes;
use pb_serve::{fingerprint, Exposition, ServeConfig, Server};
use pb_sparse::reference::multiply_csr;
use pb_sparse::Csr;
use pb_spgemm::profile::PhaseStats;
use pb_spgemm::{trace, TiledReport};
use rayon::prelude::*;
use serde_json::Value;

use crate::batch::{write_trace, TRACE_RING};
use crate::host::peak_rss_mib;
use crate::ledger::{closed_spans, BenchSpan, BenchSpans, Ledger};
use crate::metrics::{ledger_table, push_layers, LayerInputs, Outcome, ServeLayers, Sizes};
use crate::stats::{median, nearest_rank, reported_tail};
use crate::workloads::{
    load_probe, pre_phase, Ctx, Workload, MAIN_LANE, SETUP_REPS, TRACED_ID_BASE,
};

/// Offered rate of the open loop (requests/s): about half the closed-loop
/// capacity measured on a 2-vCPU host (1500 and 1300 req/s).  Frozen so
/// every commit is measured at the same load.
const HOT_RPS: f64 = 800.0;
const CHURN_RPS: f64 = 600.0;

/// Matrices loaded at set-up, and names a multiply picks from.
const NAMES: u64 = 4;
/// Share of serve-churn requests that store a fresh matrix.
const STORE_FRAC: f64 = 0.2;
/// Distinct matrices serve-churn's stores cycle through (each store still
/// uses a new name); generated before timing starts.
const STORE_POOL: usize = 64;
/// serve-churn's catalog budget, in entries of the stored matrices' size.
/// Between a name's store and a multiply that uses it, up to three newer
/// acknowledged stores, seven in flight and eight names refreshed by older
/// in-flight multiplies can enter the catalog; with fewer than about twenty
/// entries a queued multiply could find its operand evicted.
const CHURN_CATALOG_ENTRIES: usize = 32;
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight in the closed loop.
const WINDOW: usize = 4;
/// Share of the measured seconds spent in the closed loop (the rest is the
/// open loop).
const CLOSED_SHARE: f64 = 0.3;
/// How long stragglers are awaited after the last send.
const DRAIN: Duration = Duration::from_secs(10);
/// Requests in a traced-run step.
const STEP_REQUESTS: usize = 1000;
/// Id ranges of the phases of a run, so every request id is unique.
const WARMUP_IDS: u64 = 1_000_000;
const CLOSED_IDS: u64 = 2_000_000;
const OPEN_IDS: u64 = 3_000_000;

#[derive(Debug, Clone, Copy)]
struct Spec {
    churn: bool,
    scale: u32,
    edge_factor: u32,
    rps: f64,
    warmup: Duration,
    step_requests: usize,
}

impl Spec {
    fn of(w: Workload, smoke: bool) -> Spec {
        let churn = w == Workload::ServeChurn;
        if smoke {
            return Spec {
                churn,
                scale: 5,
                edge_factor: 4,
                rps: 300.0,
                warmup: Duration::from_millis(50),
                step_requests: 40,
            };
        }
        Spec {
            churn,
            scale: 9,
            edge_factor: 8,
            rps: if churn { CHURN_RPS } else { HOT_RPS },
            warmup: Duration::from_millis(500),
            step_requests: STEP_REQUESTS,
        }
    }
}

/// What a request asks for; matrices are named by key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    Multiply { a: u64, b: u64 },
    Store { key: u64 },
}

/// The inputs and the request mix.
pub struct Fixture {
    churn: bool,
    seed: u64,
    /// Keys `0..NAMES`, loaded from PBSM files at set-up.
    initial: Vec<Csr<f64>>,
    /// What the stores send, with each matrix's `entries` JSON.
    pool: Vec<(Csr<f64>, String)>,
    /// serve-churn: which stored names multiplies may use.
    recent: Mutex<Recent>,
}

/// serve-churn's choice of names: the `NAMES` acknowledged stores that were
/// *sent* last.  Ordering by send rather than by acknowledgement keeps a
/// late-read acknowledgement (a reader descheduled for a while) from
/// promoting a name the catalog may have evicted since.
#[derive(Debug)]
struct Recent {
    next_seq: u64,
    /// Stores sent but not yet acknowledged, with their send order.
    pending: HashMap<u64, u64>,
    /// Acknowledged `(send order, key)`, newest first, at most `NAMES`.
    newest: Vec<(u64, u64)>,
}

fn name(key: u64) -> String {
    if key < NAMES {
        format!("m{key}")
    } else {
        format!("s{key}")
    }
}

fn unit_er(scale: u32, edge_factor: u32, seed: u64) -> Csr<f64> {
    pb_gen::erdos_renyi_square(scale, edge_factor, seed).map_values(|_| 1.0)
}

impl Fixture {
    fn new(spec: &Spec, seed: u64) -> Fixture {
        let initial = (0..NAMES)
            .map(|k| unit_er(spec.scale, spec.edge_factor, SplitMix64::mix(seed, k)))
            .collect();
        let pool = if spec.churn {
            (0..STORE_POOL as u64)
                .map(|k| {
                    let m = unit_er(
                        spec.scale,
                        spec.edge_factor,
                        SplitMix64::mix(seed, 1000 + k),
                    );
                    let entries = m
                        .iter()
                        .map(|(r, c, _)| format!("[{r},{c},1.0]"))
                        .collect::<Vec<_>>()
                        .join(",");
                    (m, format!("[{entries}]"))
                })
                .collect()
        } else {
            Vec::new()
        };
        Fixture {
            churn: spec.churn,
            seed,
            initial,
            pool,
            recent: Mutex::new(Recent {
                next_seq: 1,
                pending: HashMap::new(),
                newest: (0..NAMES).map(|k| (0, k)).collect(),
            }),
        }
    }

    fn pool_index(&self, key: u64) -> usize {
        (SplitMix64::mix(self.seed, key) % self.pool.len() as u64) as usize
    }

    /// Which matrix a key names: `0..NAMES` the loaded ones, then the pool.
    fn content(&self, key: u64) -> usize {
        if key < NAMES {
            key as usize
        } else {
            NAMES as usize + self.pool_index(key)
        }
    }

    fn matrix(&self, key: u64) -> &Csr<f64> {
        match self.content(key).checked_sub(NAMES as usize) {
            None => &self.initial[key as usize],
            Some(i) => &self.pool[i].0,
        }
    }

    /// The request with protocol id `id`, about to be sent: drawn from an
    /// RNG stream of its own, so a request's kind does not depend on which
    /// thread sent it.
    fn plan(&self, id: u64) -> Req {
        let mut rng = Xoshiro256pp::from_stream(self.seed, id);
        let store = self.churn && rng.next_f64() < STORE_FRAC;
        let (i, j) = (rng.gen_index(NAMES as usize), rng.gen_index(NAMES as usize));
        if self.churn {
            let mut recent = self.recent.lock().expect("recent-store list poisoned");
            if store {
                let key = NAMES + id;
                let seq = recent.next_seq;
                recent.next_seq += 1;
                recent.pending.insert(key, seq);
                return Req::Store { key };
            }
            Req::Multiply {
                a: recent.newest[i].1,
                b: recent.newest[j].1,
            }
        } else {
            Req::Multiply {
                a: i as u64,
                b: j as u64,
            }
        }
    }

    fn line(&self, id: u64, req: Req) -> String {
        match req {
            Req::Multiply { a, b } => format!(
                r#"{{"op":"multiply","a":"{}","b":"{}","id":{id}}}"#,
                name(a),
                name(b)
            ),
            Req::Store { key } => {
                let (m, entries) = &self.pool[self.pool_index(key)];
                format!(
                    r#"{{"op":"store","name":"{}","rows":{},"cols":{},"entries":{entries},"id":{id}}}"#,
                    name(key),
                    m.nrows(),
                    m.ncols()
                )
            }
        }
    }

    fn acked(&self, key: u64) {
        let mut recent = self.recent.lock().expect("recent-store list poisoned");
        if let Some(seq) = recent.pending.remove(&key) {
            recent.newest.push((seq, key));
            recent
                .newest
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
            recent.newest.truncate(NAMES as usize);
        }
    }
}

/// The fields of a response the benchmark checks or reports.
#[derive(Debug, Clone)]
struct Resp {
    ok: bool,
    fingerprint: u64,
    bytes_allocated: u64,
    bytes_reused: u64,
    error: String,
}

impl Resp {
    fn of(v: &Value) -> Resp {
        let u = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        Resp {
            ok: v.get("ok").and_then(Value::as_bool) == Some(true),
            fingerprint: u("fingerprint"),
            bytes_allocated: u("bytes_allocated"),
            bytes_reused: u("bytes_reused"),
            error: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        }
    }
}

#[derive(Debug, Clone)]
struct Sent {
    id: u64,
    req: Req,
    lane: usize,
    due: Instant,
    sent: Instant,
}

#[derive(Debug, Clone)]
struct Got {
    id: u64,
    at: Instant,
    resp: Resp,
}

/// One measured step: what was sent and what came back.
#[derive(Debug, Default)]
struct Step {
    sent: Vec<Sent>,
    got: HashMap<u64, Got>,
}

impl Step {
    /// Latency from due time, ms, for every answered request.
    fn latencies_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .filter_map(|s| self.got.get(&s.id).map(|g| ms(g.at - s.due)))
            .collect()
    }

    /// How late the sender ran, ms.
    fn lags_ms(&self) -> Vec<f64> {
        self.sent.iter().map(|s| ms(s.sent - s.due)).collect()
    }

    /// Requests unanswered one second after the last send.
    fn backlog_end(&self) -> usize {
        let Some(last) = self.sent.iter().map(|s| s.sent).max() else {
            return 0;
        };
        let limit = last + Duration::from_secs(1);
        self.sent
            .iter()
            .filter(|s| self.got.get(&s.id).is_none_or(|g| g.at > limit))
            .count()
    }

    /// Answered requests per second between the first due time and the last
    /// answer.
    fn achieved_rps(&self) -> f64 {
        let first = self.sent.iter().map(|s| s.due).min();
        let last = self.got.values().map(|g| g.at).max();
        match (first, last) {
            (Some(f), Some(l)) if l > f => self.got.len() as f64 / (l - f).as_secs_f64(),
            _ => 0.0,
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn io_err(e: std::io::Error) -> String {
    format!("client I/O: {e}")
}

/// The read half of a connection: blocks until bytes arrive and
/// timestamps every complete line on arrival.
struct Reader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Reader {
    /// Lines that arrived within `wait` (the socket timeout is coarse; it
    /// only bounds how long a reader takes to notice it is done).
    fn lines(&mut self, wait: Duration) -> std::io::Result<Vec<(Instant, String)>> {
        self.stream.set_read_timeout(Some(wait))?;
        let mut tmp = [0u8; 1 << 16];
        let n = match self.stream.read(&mut tmp) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(Vec::new())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let at = Instant::now();
        self.buf.extend_from_slice(&tmp[..n]);
        let mut out = Vec::new();
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            out.push((at, String::from_utf8_lossy(&line[..pos]).into_owned()));
        }
        Ok(out)
    }
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, Reader), String> {
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    stream.set_write_timeout(Some(DRAIN)).map_err(io_err)?;
    let read = stream.try_clone().map_err(io_err)?;
    Ok((
        stream,
        Reader {
            stream: read,
            buf: Vec::new(),
        },
    ))
}

fn send(w: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    w.write_all(&bytes).map_err(io_err)
}

/// Parses a response line into its id and fields, noting store
/// acknowledgements for serve-churn's name choice.
fn receive(fx: &Fixture, line: &str, at: Instant) -> Result<Got, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("malformed response {line:?}: {e}"))?;
    let id = v
        .get("id")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("response without an id: {line}"))?;
    let resp = Resp::of(&v);
    if resp.ok {
        if let Some(key) = v
            .get("name")
            .and_then(Value::as_str)
            .and_then(|n| n.strip_prefix('s'))
            .and_then(|k| k.parse().ok())
        {
            fx.acked(key);
        }
    }
    Ok(Got { id, at, resp })
}

/// Blocking request/response on an admin connection.
fn call(w: &mut TcpStream, r: &mut Reader, line: &str) -> Result<Value, String> {
    send(w, line)?;
    let deadline = Instant::now() + DRAIN;
    while Instant::now() < deadline {
        if let Some((_, l)) = r.lines(Duration::from_millis(50)).map_err(io_err)?.pop() {
            return serde_json::from_str(&l).map_err(|e| format!("malformed response: {e}"));
        }
    }
    Err(format!("no response to {line} within {DRAIN:?}"))
}

/// The open loop: `n` requests with Poisson arrivals at `rps`, alternating
/// over the connections.
fn open_loop(
    addr: SocketAddr,
    fx: &Fixture,
    rps: f64,
    n: usize,
    first_id: u64,
) -> Result<Step, String> {
    let mut rng = Xoshiro256pp::from_stream(fx.seed, first_id);
    let mut offset = 0.0f64;
    let offsets: Vec<Duration> = (0..n)
        .map(|_| {
            offset += -(1.0 - rng.next_f64()).ln() / rps;
            Duration::from_secs_f64(offset)
        })
        .collect();
    let (mut writers, readers): (Vec<_>, Vec<_>) = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .unzip();
    let sent_on: Vec<AtomicUsize> = (0..CONNECTIONS).map(|_| AtomicUsize::new(0)).collect();
    let done = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(20);
    let give_up = t0 + offsets.last().copied().unwrap_or_default() + DRAIN;

    std::thread::scope(|s| {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(lane, mut r)| {
                let (sent_on, done) = (&sent_on[lane], &done);
                s.spawn(move || -> Result<Vec<Got>, String> {
                    let mut got = Vec::new();
                    loop {
                        if done.load(Ordering::SeqCst)
                            && got.len() >= sent_on.load(Ordering::SeqCst)
                            || Instant::now() > give_up
                        {
                            return Ok(got);
                        }
                        for (at, line) in r.lines(Duration::from_millis(20)).map_err(io_err)? {
                            got.push(receive(fx, &line, at)?);
                        }
                    }
                })
            })
            .collect();

        let mut sent = Vec::with_capacity(n);
        let mut send_all = || -> Result<(), String> {
            for (i, off) in offsets.iter().enumerate() {
                let due = t0 + *off;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let id = first_id + i as u64;
                let lane = i % CONNECTIONS;
                let req = fx.plan(id);
                let line = fx.line(id, req);
                let at = Instant::now();
                send(&mut writers[lane], &line)?;
                sent_on[lane].fetch_add(1, Ordering::SeqCst);
                sent.push(Sent {
                    id,
                    req,
                    lane,
                    due,
                    sent: at,
                });
            }
            Ok(())
        };
        let sending = send_all();
        done.store(true, Ordering::SeqCst);
        let mut step = Step {
            sent,
            got: HashMap::new(),
        };
        for h in handles {
            for g in h.join().expect("reader thread panicked")? {
                step.got.insert(g.id, g);
            }
        }
        sending.map(|()| step)
    })
}

/// The closed loop: each connection keeps `WINDOW` requests in flight,
/// sending the next as each answer lands, until `until`.
fn closed_loop(addr: SocketAddr, fx: &Fixture, until: Instant) -> Result<Step, String> {
    let conns = (0..CONNECTIONS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, (mut w, mut r))| {
                s.spawn(move || -> Result<(Vec<Sent>, Vec<Got>), String> {
                    let mut sent = Vec::new();
                    let mut got = Vec::new();
                    let mut next_id = CLOSED_IDS + lane as u64;
                    let mut push = |w: &mut TcpStream, sent: &mut Vec<Sent>| {
                        let req = fx.plan(next_id);
                        let line = fx.line(next_id, req);
                        let at = Instant::now();
                        send(w, &line)?;
                        sent.push(Sent {
                            id: next_id,
                            req,
                            lane,
                            due: at,
                            sent: at,
                        });
                        next_id += CONNECTIONS as u64;
                        Ok::<_, String>(())
                    };
                    for _ in 0..WINDOW {
                        push(&mut w, &mut sent)?;
                    }
                    let give_up = until + DRAIN;
                    while got.len() < sent.len() && Instant::now() < give_up {
                        for (at, line) in r.lines(Duration::from_millis(20)).map_err(io_err)? {
                            got.push(receive(fx, &line, at)?);
                            if Instant::now() < until {
                                push(&mut w, &mut sent)?;
                            }
                        }
                    }
                    Ok((sent, got))
                })
            })
            .collect();
        let mut step = Step::default();
        for h in handles {
            let (sent, got) = h.join().expect("closed-loop thread panicked")?;
            step.sent.extend(sent);
            step.got.extend(got.into_iter().map(|g| (g.id, g)));
        }
        Ok(step)
    })
}

/// What the sequential reference says a multiply returns.
#[derive(Debug, Clone, Copy)]
struct Expected {
    print: u64,
    flop: u64,
    nnz: usize,
}

/// The expected answer to each request, cached per pair of operand
/// contents (stores cycle through a pool, so names repeat contents).
struct Oracle<'a> {
    fx: &'a Fixture,
    products: HashMap<(usize, usize), Expected>,
}

impl<'a> Oracle<'a> {
    fn new(fx: &'a Fixture) -> Oracle<'a> {
        Oracle {
            fx,
            products: HashMap::new(),
        }
    }

    fn expect(fx: &Fixture, a: u64, b: u64) -> Expected {
        let (ma, mb) = (fx.matrix(a), fx.matrix(b));
        let c = multiply_csr(ma, mb);
        Expected {
            print: fingerprint(&c),
            flop: pb_sparse::stats::flop_csr(ma, mb),
            nnz: c.nnz(),
        }
    }

    /// Computes every product the steps ask for that is not cached yet, on
    /// the global pool.
    fn prepare(&mut self, steps: &[&Step]) {
        let fx = self.fx;
        let mut missing: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
        for s in steps.iter().flat_map(|st| &st.sent) {
            if let Req::Multiply { a, b } = s.req {
                let key = (fx.content(a), fx.content(b));
                if !self.products.contains_key(&key) {
                    missing.insert(key, (a, b));
                }
            }
        }
        let missing: Vec<_> = missing.into_iter().collect();
        let computed: Vec<_> = missing
            .par_iter()
            .map(|&(key, (a, b))| (key, Oracle::expect(fx, a, b)))
            .collect();
        self.products.extend(computed);
    }

    fn product(&mut self, a: u64, b: u64) -> Expected {
        let fx = self.fx;
        *self
            .products
            .entry((fx.content(a), fx.content(b)))
            .or_insert_with(|| Oracle::expect(fx, a, b))
    }

    fn check(&mut self, out: &mut Outcome, steps: &[&Step]) {
        self.prepare(steps);
        for step in steps {
            for s in &step.sent {
                let failure = match step.got.get(&s.id) {
                    None => Some(format!("request {} was never answered", s.id)),
                    Some(g) if !g.resp.ok => Some(format!("request {}: {}", s.id, g.resp.error)),
                    Some(g) => {
                        let want = match s.req {
                            Req::Multiply { a, b } => self.product(a, b).print,
                            Req::Store { key } => fingerprint(self.fx.matrix(key)),
                        };
                        (g.resp.fingerprint != want).then(|| {
                            format!(
                                "request {} ({:?}): fingerprint {:#x}, expected {want:#x}",
                                s.id, s.req, g.resp.fingerprint
                            )
                        })
                    }
                };
                out.check(failure);
            }
        }
    }

    /// Multiply flop answered in a step.
    fn flop(&mut self, step: &Step) -> u64 {
        step.sent
            .iter()
            .filter(|s| step.got.get(&s.id).is_some_and(|g| g.resp.ok))
            .map(|s| match s.req {
                Req::Multiply { a, b } => self.product(a, b).flop,
                Req::Store { .. } => 0,
            })
            .sum()
    }
}

/// A started server with its catalog loaded, and an admin connection.
pub struct Running {
    pub server: Server,
    admin: (TcpStream, Reader),
}

impl Running {
    /// Starts a server on 2 workers with the catalog budget and `dir` as
    /// its load directory, loads `m0..m3` from there, and checks every
    /// loaded matrix's fingerprint.
    fn start(fx: &Fixture, dir: &Path, budget: usize) -> Result<Running, String> {
        let server = Server::start(
            ServeConfig::default()
                .addr("127.0.0.1:0")
                .workers(2)
                .budget_bytes(budget)
                .load_dir(Some(dir.to_path_buf())),
        )
        .map_err(|e| format!("starting the server: {e}"))?;
        let (mut w, mut r) = connect(server.addr())?;
        for key in 0..NAMES {
            let line = format!(
                r#"{{"op":"load","name":"{}","path":"{}.pbsm"}}"#,
                name(key),
                name(key)
            );
            let v = call(&mut w, &mut r, &line)?;
            if v.get("ok").and_then(Value::as_bool) != Some(true) {
                return Err(format!("loading {} failed: {v:?}", name(key)));
            }
            let got = v.get("fingerprint").and_then(Value::as_u64);
            if got != Some(fingerprint(fx.matrix(key))) {
                return Err(format!("{} loaded as a different matrix: {v:?}", name(key)));
            }
        }
        Ok(Running {
            server,
            admin: (w, r),
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn scrape(&mut self) -> Result<Exposition, String> {
        let (w, r) = &mut self.admin;
        let v = call(w, r, r#"{"op":"metrics"}"#)?;
        let text = v
            .get("text")
            .and_then(Value::as_str)
            .ok_or("metrics response without text")?;
        Exposition::parse(text)
    }
}

fn counter(page: &Exposition, name: &str) -> f64 {
    page.value(name, &[]).unwrap_or(0.0)
}

/// A serve workload's set-up: generate the fixture, write the initial
/// matrices to `dir` as PBSM files, start the server and load them into its
/// catalog.
pub fn set_up(
    w: Workload,
    seed: u64,
    smoke: bool,
    dir: &Path,
    spans: &BenchSpans,
) -> Result<(Fixture, Running), String> {
    let spec = Spec::of(w, smoke);
    let fx = spans.time("bench.generate", MAIN_LANE, 0, || Fixture::new(&spec, seed));
    for key in 0..NAMES {
        let path = dir.join(format!("{}.pbsm", name(key)));
        pb_gen::save_matrix(&path, fx.matrix(key)).map_err(|e| e.to_string())?;
    }
    let budget = if spec.churn {
        // Room for exactly CHURN_CATALOG_ENTRIES matrices of this size, so
        // every store past that many evicts one.
        let largest = fx
            .initial
            .iter()
            .chain(fx.pool.iter().map(|(m, _)| m))
            .map(matrix_bytes)
            .max()
            .unwrap_or(1);
        CHURN_CATALOG_ENTRIES * largest + largest / 2
    } else {
        ServeConfig::default().budget_bytes
    };
    let running = spans.time("bench.setup", MAIN_LANE, 0, || {
        Running::start(&fx, dir, budget)
    })?;
    Ok((fx, running))
}

pub fn run(w: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let spec = Spec::of(w, ctx.smoke);
    // Before this process holds anything: each set-up runs in a fresh one.
    let setup_s = if ctx.trace { 0.0 } else { ctx.setup_s(w)? };
    let (fx, running) = set_up(w, ctx.seed, ctx.smoke, &ctx.scratch, &ctx.spans)?;
    let mut out = Outcome::new(w.name());
    if ctx.trace {
        return traced(w, ctx, &spec, &fx, running, out);
    }
    let addr = running.addr();

    let warm = open_loop(
        addr,
        &fx,
        spec.rps,
        (spec.rps * spec.warmup.as_secs_f64()).ceil() as usize,
        WARMUP_IDS,
    )?;
    let closed_for = Duration::from_secs_f64(ctx.seconds * CLOSED_SHARE);
    let t = Instant::now();
    let closed = closed_loop(addr, &fx, t + closed_for)?;
    let closed_end = closed.got.values().map(|g| g.at).max().unwrap_or(t);
    let open_n = ((ctx.seconds - closed_for.as_secs_f64()) * spec.rps)
        .ceil()
        .max(20.0) as usize;
    let open = open_loop(addr, &fx, spec.rps, open_n, OPEN_IDS)?;
    let peak_rss = peak_rss_mib()?;
    running.server.join();

    let mut oracle = Oracle::new(&fx);
    oracle.check(&mut out, &[&warm, &closed, &open]);
    let lat = open.latencies_ms();
    let (stat, tail) = reported_tail(&lat);
    let gflops = oracle.flop(&closed) as f64 / (closed_end - t).as_secs_f64() / 1e9;
    out.push("setup_s", setup_s, "s", SETUP_REPS);
    out.push("p50_ms", median(&lat), "ms", lat.len());
    out.push_stat("tail_ms", tail, "ms", lat.len(), &stat);
    out.push("gflops", gflops, "GFLOP/s", closed.got.len());
    out.push("peak_rss_mb", peak_rss, "MiB", 1);
    Ok(out)
}

/// The traced run: one untraced step and one traced step at the workload's
/// rate, the benchmark's probes, STREAM, then the ledger per request.
fn traced(
    w: Workload,
    ctx: &Ctx,
    spec: &Spec,
    fx: &Fixture,
    mut running: Running,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let spans = &ctx.spans;
    let (load_s, load_bytes) = load_probe(&ctx.scratch.join("m0.pbsm"), spans)?;
    let pre = pre_phase(fx.matrix(0), spans);
    let addr = running.addr();
    let n_warm = (spec.rps * spec.warmup.as_secs_f64()).ceil() as usize;
    let warm = open_loop(addr, fx, spec.rps, n_warm, WARMUP_IDS)?;
    let untraced = open_loop(addr, fx, spec.rps, spec.step_requests, OPEN_IDS)?;

    let before = running.scrape()?;
    trace::set_ring_capacity(TRACE_RING);
    let from_ns = trace::now_nanos();
    let clock = (Instant::now(), trace::now_nanos());
    trace::set_enabled(true);
    let step = open_loop(addr, fx, spec.rps, spec.step_requests, TRACED_ID_BASE)?;
    trace::set_enabled(false);
    let snapshot = trace::snapshot();
    let after = running.scrape()?;
    running.server.join();

    let mut oracle = Oracle::new(fx);
    oracle.check(&mut out, &[&warm, &untraced, &step]);
    let stream = spans.time("bench.stream", MAIN_LANE, 0, || ctx.stream())?;

    // The ledger's wall time per request runs from its send to its answer.
    let trace_ns = |t: Instant| clock.1 + (t.saturating_duration_since(clock.0)).as_nanos() as u64;
    let mut wall_ns = 0u64;
    for s in &step.sent {
        if let Some(g) = step.got.get(&s.id) {
            wall_ns += (g.at - s.sent).as_nanos() as u64;
            spans.record(BenchSpan {
                name: "client.request",
                lane: 1 + s.lane as u64,
                start_ns: trace_ns(s.sent),
                end_ns: trace_ns(g.at),
                corr: s.id,
            });
        }
    }
    let closed = closed_spans(&snapshot, from_ns);
    let ledger = Ledger::new(&closed, wall_ns);

    // Requests whose engine call ran the PB phases, with their sizes; and
    // the client-side gap around each request the server handled itself.
    let by_id: HashMap<u64, &Sent> = step.sent.iter().map(|s| (s.id, s)).collect();
    let mut sizes = Sizes::default();
    let (mut gap_ns, mut gap_wall_ns) = (0u64, 0u64);
    for c in &closed {
        let Some(s) = by_id.get(&c.corr) else {
            continue;
        };
        match (c.label, s.req) {
            ("phase.expand", Req::Multiply { a, b }) => {
                let e = oracle.product(a, b);
                sizes += Sizes {
                    flop: e.flop,
                    nnz_a: fx.matrix(a).nnz(),
                    nnz_b: fx.matrix(b).nnz(),
                    nnz_c: e.nnz,
                    nnz_out: e.nnz,
                };
            }
            ("serve.request", _) => {
                if let Some(g) = step.got.get(&c.corr) {
                    let lat = (g.at - s.sent).as_nanos() as u64;
                    gap_ns += lat.saturating_sub(c.dur_ns);
                    gap_wall_ns += lat;
                }
            }
            _ => {}
        }
    }

    let answered: Vec<&Got> = step
        .sent
        .iter()
        .filter_map(|s| step.got.get(&s.id))
        .collect();
    let multiplies = step
        .sent
        .iter()
        .filter(|s| matches!(s.req, Req::Multiply { .. }))
        .count() as f64;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let batched = delta("pb_serve_batched_requests_total");
    let stats = PhaseStats {
        bytes_allocated: answered.iter().map(|g| g.resp.bytes_allocated).sum::<u64>(),
        bytes_reused: answered.iter().map(|g| g.resp.bytes_reused).sum::<u64>(),
        // Summed over resident entries only: an evicted entry takes its
        // counts with it, hence the clamp.
        workspace_hits: delta("pb_workspace_hits_total").max(0.0) as u64,
        ..PhaseStats::default()
    };
    let mut flop = 0u64;
    let mut nnz_c = 0usize;
    for s in &step.sent {
        if let Req::Multiply { a, b } = s.req {
            let e = oracle.product(a, b);
            flop += e.flop;
            nnz_c += e.nnz;
        }
    }
    write_trace(ctx, w, &mut out, &snapshot, from_ns)?;
    print!("{}", ledger_table(w.name(), &ledger, answered.len()));

    let li = LayerInputs {
        stream,
        load_s,
        load_bytes,
        transpose_s: pre.transpose_s,
        pool_build_s: pre.pool_build_s,
        signals_s: pre.signals_s,
        sizes,
        ledger,
        ops: answered.len(),
        overhead_frac: median(&step.latencies_ms()) / median(&untraced.latencies_ms()) - 1.0,
        flop: flop as f64 / multiplies.max(1.0),
        nnz_c: nnz_c as f64 / multiplies.max(1.0),
        stats,
        tiled: TiledReport::default(),
        serve: ServeLayers {
            achieved_rps: step.achieved_rps(),
            backlog_end: step.backlog_end(),
            batched_frac: batched / multiplies.max(1.0),
            mean_batch: multiplies / (multiplies - batched).max(1.0),
            client_gap_frac: gap_ns as f64 / gap_wall_ns.max(1) as f64,
            evictions: delta("pb_serve_catalog_evictions_total"),
            catalog_bytes_used: counter(&after, "pb_serve_catalog_bytes_used"),
        },
        lag_p99_ms: nearest_rank(&step.lags_ms(), 0.99),
    };
    push_layers(&mut out, &li);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_behind_it() {
        // A fake server that answers each line at once, except that it
        // stalls 50 ms on the 20th request.  The sender keeps its schedule
        // through the stall, and every request due during it is timed from
        // its due time, so the stall raises their latency instead of
        // disappearing into one slow sample.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let gate = std::sync::Arc::new(Mutex::new(0usize));
        let server = std::thread::spawn(move || {
            let conns: Vec<TcpStream> = (0..CONNECTIONS)
                .map(|_| listener.accept().expect("accept").0)
                .collect();
            let workers: Vec<_> = conns
                .into_iter()
                .map(|conn| {
                    let gate = std::sync::Arc::clone(&gate);
                    std::thread::spawn(move || {
                        let mut w = conn.try_clone().expect("clone");
                        let mut r = std::io::BufReader::new(conn);
                        let mut line = String::new();
                        while std::io::BufRead::read_line(&mut r, &mut line).unwrap_or(0) > 0 {
                            let id = serde_json::from_str(&line)
                                .ok()
                                .and_then(|v| v.get("id").and_then(Value::as_u64))
                                .expect("request id");
                            let mut served = gate.lock().expect("gate");
                            *served += 1;
                            if *served == 20 {
                                std::thread::sleep(Duration::from_millis(50));
                            }
                            drop(served);
                            let reply = format!("{{\"ok\":true,\"id\":{id}}}\n");
                            if w.write_all(reply.as_bytes()).is_err() {
                                return;
                            }
                            line.clear();
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("fake server connection");
            }
        });

        let spec = Spec::of(Workload::ServeHot, true);
        let fx = Fixture::new(&spec, 1);
        let step = open_loop(addr, &fx, 1000.0, 100, 1).expect("open loop");
        server.join().expect("fake server");

        let lat = step.latencies_ms();
        assert_eq!(lat.len(), 100, "every request answered");
        let stalled = lat.iter().filter(|&&l| l > 20.0).count();
        assert!(
            stalled >= 10,
            "a 50 ms stall at 1000 req/s delays tens of requests, saw {stalled}: {lat:?}"
        );
        let p99 = nearest_rank(&lat, 0.99);
        assert!(p99 > 30.0, "the stall reaches the tail: {p99}");
        assert!(
            median(&step.lags_ms()) < 5.0,
            "the sender kept its schedule"
        );
    }
}
