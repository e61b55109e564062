//! The resident server: reactor-driven I/O plus batching request workers.
//!
//! One I/O thread owns the listener and every client socket, blocking in
//! [`miniloop::poll_readable`] and slicing the byte stream into protocol
//! lines; parsed requests are enqueued on a [`miniloop::TaskQueue`].  A
//! small pool of worker threads drains the queue, and a worker that pops a
//! multiply also *drains every queued multiply with the same batch key*:
//! identical products are computed once — one engine call, one
//! [`Workspace`](pb_spgemm::Workspace) lease — and the single result
//! answers every member of the batch.  Draining skips any multiply whose
//! connection has an earlier queued request outside the batch, so batching
//! never reorders one client's pipeline.  Workers write responses straight
//! to the (mutex-guarded) client socket, so slow clients never stall the
//! reactor.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pb_sparse::semiring::PlusTimes;
use pb_sparse::{Coo, Csr};
use pb_spgemm::trace::{self, SpanName};
use pb_spgemm::PbError;
use serde::Value;

use crate::catalog::{matrix_bytes, Catalog};
use crate::config::ServeConfig;
use crate::metrics::{render, OpLatencies, ServerCounters};
use crate::protocol::{
    entries_value, error_line, fingerprint, object, ok_line, parse_line, GenKind, Request,
    MAX_RETURNED_ENTRIES,
};

/// Most multiply requests one batch execution may answer.
pub const BATCH_LIMIT: usize = 64;

/// How long the reactor and the workers sleep per idle tick.
const TICK: Duration = Duration::from_millis(50);

/// One parsed request waiting for a worker, with the socket to answer on
/// and the client's correlation id to echo.
struct Job {
    request: Request,
    id: Option<Value>,
    reply: Arc<Mutex<TcpStream>>,
    /// Trace correlation id: derived from the protocol `id` when the
    /// request carried one, otherwise a server-assigned serial.  Stamped on
    /// every span the request's handling emits, so a Chrome trace (or the
    /// slow-request log) can isolate one request's work across threads.
    corr: u64,
    /// [`trace::now_nanos`] at enqueue time; the popping worker turns the
    /// difference into a `serve.queue_wait` completion span.
    enqueued_nanos: u64,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("request", &self.request)
            .field("id", &self.id)
            .field("corr", &self.corr)
            .finish()
    }
}

/// Derives a trace correlation id from the client's protocol `id`: integer
/// ids map to themselves (so a client-chosen `"id": 7` is findable as
/// `corr=7` in the trace), anything else hashes, and id-less requests get a
/// server serial with the top bit set to keep it out of the client space.
fn corr_of(id: Option<&Value>) -> u64 {
    static SERIAL: AtomicU64 = AtomicU64::new(1);
    match id {
        Some(Value::UInt(n)) => *n,
        Some(v) => {
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let text = serde_json::to_string(v).unwrap_or_default();
            let mut h = OFFSET;
            for byte in text.bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        None => SERIAL.fetch_add(1, Ordering::Relaxed) | (1 << 63),
    }
}

/// Shared server state.
#[derive(Debug)]
struct State {
    catalog: Mutex<Catalog>,
    counters: ServerCounters,
    latency: OpLatencies,
    queue: miniloop::TaskQueue<Job>,
    shutdown: AtomicBool,
    max_line_bytes: usize,
    slow_ms: Option<u64>,
    /// Allowlisted directory for the `load` op; `None` = op disabled.
    load_dir: Option<std::path::PathBuf>,
}

impl State {
    fn new(config: &ServeConfig) -> State {
        State {
            catalog: Mutex::new(Catalog::new(config.budget_bytes, config.algorithm)),
            counters: ServerCounters::default(),
            latency: OpLatencies::default(),
            queue: miniloop::TaskQueue::new(),
            shutdown: AtomicBool::new(false),
            max_line_bytes: config.max_line_bytes,
            slow_ms: config.slow_ms,
            load_dir: config.load_dir.clone(),
        }
    }
}

/// A running server; dropping it requests shutdown.
#[derive(Debug)]
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    io: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr`, spawns the reactor and `config.workers` request
    /// workers, and starts serving immediately.
    pub fn start(config: ServeConfig) -> Result<Server, PbError> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(State::new(&config));
        let io = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("pb-serve-io".into())
                .spawn(move || io_loop(&listener, &state))
                .map_err(PbError::Io)?
        };
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("pb-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .map_err(PbError::Io)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Server {
            state,
            addr,
            io: Some(io),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the kernel's pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown; threads exit within one reactor tick.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.wake_all();
    }

    /// Requests shutdown and waits for every thread to exit (teardown).
    pub fn join(mut self) {
        self.shutdown();
        self.drain();
    }

    /// Blocks until the server shuts down — via a client's `shutdown` op
    /// or a concurrent [`Server::shutdown`] — and every thread has exited.
    /// This is the resident-process entry point: unlike [`Server::join`],
    /// it does not request the shutdown itself.
    pub fn wait(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connected client on the reactor.
struct Conn {
    stream: TcpStream,
    reply: Arc<Mutex<TcpStream>>,
    buf: Vec<u8>,
}

fn io_loop(listener: &TcpListener, state: &Arc<State>) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    const LISTENER_KEY: usize = usize::MAX;
    while !state.shutdown.load(Ordering::SeqCst) {
        let mut sources: Vec<(miniloop::RawFd, usize)> =
            vec![(listener.as_raw_fd() as miniloop::RawFd, LISTENER_KEY)];
        for (idx, conn) in conns.iter().enumerate() {
            if let Some(c) = conn {
                sources.push((c.stream.as_raw_fd() as miniloop::RawFd, idx));
            }
        }
        let events = match miniloop::poll_readable(&sources, TICK) {
            Ok(events) => events,
            Err(_) => continue,
        };
        for event in events {
            if event.key == LISTENER_KEY {
                accept_all(listener, state, &mut conns);
            } else if event.readable || event.closed {
                service_conn(state, &mut conns, event.key);
            }
        }
    }
}

fn accept_all(listener: &TcpListener, state: &Arc<State>, conns: &mut Vec<Option<Conn>>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                state.counters.connections.fetch_add(1, Ordering::Relaxed);
                trace::instant(SpanName::ServeAccept, 0);
                // Responses are written whole, so Nagle's algorithm only
                // delays them: a small response could wait for the client
                // to ACK the previous one.  A socket that refuses the
                // option still answers correctly, so it is kept.
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let conn = Conn {
                    stream,
                    reply: Arc::new(Mutex::new(write_half)),
                    buf: Vec::new(),
                };
                match conns.iter().position(Option::is_none) {
                    Some(slot) => conns[slot] = Some(conn),
                    None => conns.push(Some(conn)),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Reads everything available on connection `idx`, enqueues each complete
/// line, and drops the connection on EOF or error.  A partial line that
/// outgrows [`ServeConfig::max_line_bytes`](crate::ServeConfig) gets an
/// error response and the connection is dropped — otherwise one client
/// streaming bytes with no newline would grow the reactor's buffer without
/// bound, bypassing the catalog byte budget.
fn service_conn(state: &Arc<State>, conns: &mut [Option<Conn>], idx: usize) {
    let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
        return;
    };
    let mut closed = false;
    let mut tmp = [0u8; 4096];
    loop {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                closed = true;
                break;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&tmp[..n]);
                // Drain complete lines as they arrive so only an
                // *unterminated* line counts against the length limit.
                enqueue_lines(state, conn);
                if conn.buf.len() > state.max_line_bytes {
                    state.counters.requests.fetch_add(1, Ordering::Relaxed);
                    state.counters.errors.fetch_add(1, Ordering::Relaxed);
                    write_line(
                        &conn.reply,
                        &error_line(
                            &format!(
                                "request line exceeds the {} byte limit",
                                state.max_line_bytes
                            ),
                            None,
                        ),
                    );
                    closed = true;
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                closed = true;
                break;
            }
        }
    }
    enqueue_lines(state, conn);
    if closed {
        conns[idx] = None;
    }
}

/// Slices every complete line out of the connection's buffer: parsed
/// requests are queued for the workers, parse failures are answered
/// immediately (with the correlation id when one was recoverable).
fn enqueue_lines(state: &Arc<State>, conn: &mut Conn) {
    while let Some(pos) = conn.buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = conn.buf.drain(..=pos).collect();
        let line = String::from_utf8_lossy(&line[..line.len() - 1]);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parse_span = trace::span(SpanName::ServeParse);
        let parsed = parse_line(line);
        drop(parse_span);
        let corr = corr_of(parsed.id.as_ref());
        match parsed.request {
            Ok(request) => state.queue.push(Job {
                request,
                id: parsed.id,
                reply: Arc::clone(&conn.reply),
                corr,
                enqueued_nanos: trace::now_nanos(),
            }),
            Err(msg) => {
                let _corr = trace::corr_scope(corr);
                state.counters.requests.fetch_add(1, Ordering::Relaxed);
                state.counters.errors.fetch_add(1, Ordering::Relaxed);
                write_line(&conn.reply, &error_line(&msg, parsed.id.as_ref()));
            }
        }
    }
}

/// Blocking line write to a non-blocking socket (short sleeps on
/// `WouldBlock`); errors drop the response — the client is gone.
fn write_line(reply: &Arc<Mutex<TcpStream>>, line: &str) {
    let mut bytes = line.as_bytes().to_vec();
    bytes.push(b'\n');
    let mut stream = reply.lock().expect("reply lock poisoned");
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return,
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(500));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    let _ = stream.flush();
}

fn worker_loop(state: &Arc<State>) {
    loop {
        match state.queue.pop(TICK) {
            Some(job) => {
                // A panicking handler must cost one error response, not a
                // worker thread: workers are never respawned, so without
                // this net a few panicking requests would leave the server
                // accepting connections it can never answer.
                let reply = Arc::clone(&job.reply);
                let id = job.id.clone();
                let op = job.request.op_name();
                let corr = job.corr;
                // Every span below (and everything the handler calls into:
                // engine phases, planner, workspace, graph builders) carries
                // this request's correlation id.
                let _corr = trace::corr_scope(corr);
                let wait = trace::now_nanos().saturating_sub(job.enqueued_nanos);
                trace::complete(SpanName::ServeQueueWait, wait);
                let started = Instant::now();
                let span = trace::span(SpanName::ServeRequest);
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle(state, job)));
                drop(span);
                let elapsed = started.elapsed();
                state.latency.record(op, elapsed.as_nanos() as u64);
                if let Some(slow_ms) = state.slow_ms {
                    if elapsed.as_millis() as u64 >= slow_ms {
                        log_slow_request(op, corr, elapsed);
                    }
                }
                if caught.is_err() {
                    respond_err(
                        state,
                        &reply,
                        id.as_ref(),
                        "internal error handling request",
                    );
                }
            }
            None => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Reports a request slower than `PB_SERVE_SLOW_MS` on stderr; when the
/// tracer is on, the request's span tree shows where the time went.
fn log_slow_request(op: &str, corr: u64, elapsed: Duration) {
    let mut report = format!(
        "pb-serve: slow request op={op} corr={corr} took {:.3}ms",
        elapsed.as_secs_f64() * 1e3
    );
    if trace::enabled() {
        let tree = trace::render_span_tree(&trace::snapshot(), corr);
        if !tree.is_empty() {
            report.push('\n');
            report.push_str(&tree);
        }
    } else {
        report.push_str(" (set PB_TRACE=1 for a span tree)");
    }
    eprintln!("{report}");
}

fn respond_ok(
    state: &State,
    reply: &Arc<Mutex<TcpStream>>,
    id: Option<&Value>,
    fields: Vec<(&str, Value)>,
) {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    let _span = trace::span(SpanName::ServeRespond);
    write_line(reply, &ok_line(fields, id));
}

fn respond_err(state: &State, reply: &Arc<Mutex<TcpStream>>, id: Option<&Value>, msg: &str) {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    state.counters.errors.fetch_add(1, Ordering::Relaxed);
    let _span = trace::span(SpanName::ServeRespond);
    write_line(reply, &error_line(msg, id));
}

/// Largest `gen` scale the service accepts (2^24 vertices).
pub const MAX_GEN_SCALE: u32 = 24;

/// Largest `gen` edge factor the service accepts; with the scale cap this
/// bounds how much memory a single generation request can ask for.
pub const MAX_GEN_EDGE_FACTOR: u32 = 1024;

/// Upper bound on the resident bytes a `gen` request can produce (CSR row
/// pointers + one entry per requested edge; duplicates only shrink it).
/// Checked against the catalog budget *before* generating, so an absurd
/// request is rejected instead of exhausting memory mid-generation.
fn estimated_gen_bytes(scale: u32, edge_factor: u32) -> usize {
    let n = 1usize << scale;
    let nnz = n.saturating_mul(edge_factor as usize);
    (n + 1) * std::mem::size_of::<usize>()
        + nnz * (std::mem::size_of::<pb_sparse::Index>() + std::mem::size_of::<f64>())
}

/// Fetches `name` from the catalog, requiring a square matrix — the graph
/// kernels (MCL, BC, APSP) assert squareness, and a panicking kernel must
/// surface as an error response, not a dead worker.
fn get_square(
    state: &Arc<State>,
    job: &Job,
    name: &str,
    op: &str,
) -> Option<crate::catalog::Entry> {
    let Some(entry) = state.catalog.lock().expect("catalog lock").get(name) else {
        respond_err(
            state,
            &job.reply,
            job.id.as_ref(),
            &format!("no matrix named `{name}`"),
        );
        return None;
    };
    let (rows, cols) = (entry.matrix.nrows(), entry.matrix.ncols());
    if rows != cols {
        respond_err(
            state,
            &job.reply,
            job.id.as_ref(),
            &format!("{op} needs a square matrix; `{name}` is {rows}x{cols}"),
        );
        return None;
    }
    Some(entry)
}

fn handle(state: &Arc<State>, job: Job) {
    let id = job.id.clone();
    let id = id.as_ref();
    match job.request.clone() {
        Request::Ping => respond_ok(
            state,
            &job.reply,
            id,
            vec![("op", Value::Str("pong".into()))],
        ),
        Request::Store {
            name,
            rows,
            cols,
            entries,
        } => {
            let matrix = match Coo::from_entries(rows, cols, entries) {
                Ok(coo) => coo.to_csr(),
                Err(e) => return respond_err(state, &job.reply, id, &format!("bad matrix: {e}")),
            };
            store_and_respond(state, &job, &name, matrix);
        }
        Request::Gen {
            name,
            kind,
            scale,
            edge_factor,
            seed,
        } => {
            if scale > MAX_GEN_SCALE {
                return respond_err(
                    state,
                    &job.reply,
                    id,
                    &format!("scale over {MAX_GEN_SCALE} is not servable"),
                );
            }
            if edge_factor > MAX_GEN_EDGE_FACTOR {
                return respond_err(
                    state,
                    &job.reply,
                    id,
                    &format!("edge_factor over {MAX_GEN_EDGE_FACTOR} is not servable"),
                );
            }
            let estimate = estimated_gen_bytes(scale, edge_factor);
            let budget = state.catalog.lock().expect("catalog lock").budget_bytes();
            if estimate > budget {
                return respond_err(
                    state,
                    &job.reply,
                    id,
                    &format!(
                        "generating scale {scale} with edge_factor {edge_factor} needs up to \
                         {estimate} bytes, over the catalog budget of {budget} bytes"
                    ),
                );
            }
            let matrix = match kind {
                GenKind::Rmat => pb_gen::rmat_square(scale, edge_factor, seed),
                GenKind::Er => pb_gen::erdos_renyi_square(scale, edge_factor, seed),
            };
            store_and_respond(state, &job, &name, matrix);
        }
        Request::Load { name, path } => handle_load(state, &job, &name, &path),
        Request::Multiply { .. } => handle_multiply_batch(state, job),
        Request::Mcl {
            name,
            inflation,
            max_iterations,
        } => {
            let Some(entry) = get_square(state, &job, &name, "mcl") else {
                return;
            };
            let result = pb_graph::Mcl::new()
                .engine(entry.engine.clone())
                .inflation(inflation)
                .max_iterations(max_iterations)
                .run(&entry.matrix);
            respond_ok(
                state,
                &job.reply,
                id,
                vec![
                    ("clusters", Value::UInt(result.num_clusters as u64)),
                    ("iterations", Value::UInt(result.iterations as u64)),
                    ("converged", Value::Bool(result.converged)),
                ],
            );
        }
        Request::Bc {
            name,
            sources,
            batch_size,
        } => {
            let Some(entry) = get_square(state, &job, &name, "bc") else {
                return;
            };
            let n = entry.matrix.nrows();
            let count = if sources == 0 { n } else { sources.min(n) };
            let mut bc = pb_graph::Bc::new()
                .engine(entry.engine.clone())
                .batch_size(batch_size);
            if count < n {
                bc = bc.sources(0..count);
            }
            let scores = bc.run(&entry.matrix);
            let sum: f64 = scores.iter().sum();
            let (max_vertex, max_score) =
                scores
                    .iter()
                    .enumerate()
                    .fold((0usize, f64::NEG_INFINITY), |best, (v, &s)| {
                        if s > best.1 {
                            (v, s)
                        } else {
                            best
                        }
                    });
            respond_ok(
                state,
                &job.reply,
                id,
                vec![
                    ("n", Value::UInt(n as u64)),
                    ("sources", Value::UInt(count as u64)),
                    ("sum", Value::Float(sum)),
                    ("max_vertex", Value::UInt(max_vertex as u64)),
                    (
                        "max_score",
                        Value::Float(if n == 0 { 0.0 } else { max_score }),
                    ),
                ],
            );
        }
        Request::Apsp { name } => {
            let Some(entry) = get_square(state, &job, &name, "apsp") else {
                return;
            };
            if entry.matrix.nrows() > pb_graph::APSP_DENSE_LIMIT {
                return respond_err(
                    state,
                    &job.reply,
                    id,
                    &format!(
                        "APSP on {} vertices would densify (limit {})",
                        entry.matrix.nrows(),
                        pb_graph::APSP_DENSE_LIMIT
                    ),
                );
            }
            let dist = pb_graph::Apsp::new()
                .engine(entry.engine.clone())
                .run(&entry.matrix);
            let sum: f64 = dist.values().iter().sum();
            respond_ok(
                state,
                &job.reply,
                id,
                vec![
                    ("nnz", Value::UInt(dist.nnz() as u64)),
                    ("sum", Value::Float(sum)),
                    ("fingerprint", Value::UInt(fingerprint(&dist))),
                ],
            );
        }
        Request::Evict { name } => {
            let evicted = state.catalog.lock().expect("catalog lock").evict(&name);
            respond_ok(
                state,
                &job.reply,
                id,
                vec![("evicted", Value::Bool(evicted))],
            );
        }
        Request::List => {
            let catalog = state.catalog.lock().expect("catalog lock");
            let entries = Value::Array(
                catalog
                    .list()
                    .into_iter()
                    .map(|info| {
                        object(vec![
                            ("name", Value::Str(info.name)),
                            ("rows", Value::UInt(info.rows as u64)),
                            ("cols", Value::UInt(info.cols as u64)),
                            ("nnz", Value::UInt(info.nnz as u64)),
                            ("bytes", Value::UInt(info.bytes as u64)),
                        ])
                    })
                    .collect(),
            );
            let fields = vec![
                ("entries", entries),
                ("bytes_used", Value::UInt(catalog.bytes_used() as u64)),
                ("bytes_budget", Value::UInt(catalog.budget_bytes() as u64)),
                ("evictions", Value::UInt(catalog.evictions())),
            ];
            drop(catalog);
            respond_ok(state, &job.reply, id, fields);
        }
        Request::Metrics => {
            let text = {
                let catalog = state.catalog.lock().expect("catalog lock");
                render(&state.counters, &state.latency, &catalog)
            };
            respond_ok(state, &job.reply, id, vec![("text", Value::Str(text))]);
        }
        Request::Trace { enable } => {
            if let Some(on) = enable {
                trace::set_enabled(on);
            }
            let snapshot = trace::snapshot();
            let dropped: u64 = snapshot.threads.iter().map(|t| t.dropped).sum();
            respond_ok(
                state,
                &job.reply,
                id,
                vec![
                    ("enabled", Value::Bool(trace::enabled())),
                    ("events", Value::UInt(snapshot.len() as u64)),
                    ("dropped", Value::UInt(dropped)),
                    ("chrome", Value::Str(snapshot.to_chrome_json())),
                ],
            );
        }
        Request::Shutdown => {
            respond_ok(
                state,
                &job.reply,
                id,
                vec![("op", Value::Str("bye".into()))],
            );
            state.shutdown.store(true, Ordering::SeqCst);
            state.queue.wake_all();
        }
    }
}

/// Executes the `load` op: resolves `path` strictly inside the allowlisted
/// load directory, pre-checks the source's estimated size against the
/// catalog budget (same discipline as `gen`: reject before allocating),
/// then loads through the [`pb_gen::MatrixSource`] API and stores.
fn handle_load(state: &Arc<State>, job: &Job, name: &str, path: &str) {
    let id = job.id.as_ref();
    let Some(dir) = &state.load_dir else {
        return respond_err(
            state,
            &job.reply,
            id,
            "the load op is disabled (start the server with PB_SERVE_LOAD_DIR set \
             to an allowlisted directory)",
        );
    };
    // Containment check on canonical paths: symlinks and `..` segments in
    // the client-supplied path must not escape the allowlisted directory.
    let root = match dir.canonicalize() {
        Ok(root) => root,
        Err(e) => {
            return respond_err(state, &job.reply, id, &format!("load directory: {e}"));
        }
    };
    let full = match root.join(path).canonicalize() {
        Ok(full) => full,
        Err(e) => {
            return respond_err(
                state,
                &job.reply,
                id,
                &format!("cannot resolve `{path}`: {e}"),
            );
        }
    };
    if !full.starts_with(&root) {
        return respond_err(
            state,
            &job.reply,
            id,
            &format!("`{path}` escapes the load directory"),
        );
    }
    let spec = full.to_string_lossy().into_owned();
    let source = match pb_gen::open_source(&spec) {
        Ok(source) => source,
        Err(e) => return respond_err(state, &job.reply, id, &e.to_string()),
    };
    let estimate = match source.estimated_bytes() {
        Ok(estimate) => estimate,
        Err(e) => return respond_err(state, &job.reply, id, &e.to_string()),
    };
    let budget = state.catalog.lock().expect("catalog lock").budget_bytes() as u64;
    if estimate > budget {
        return respond_err(
            state,
            &job.reply,
            id,
            &format!(
                "loading `{path}` needs an estimated {estimate} bytes, over the \
                 catalog budget of {budget} bytes"
            ),
        );
    }
    match source.load() {
        Ok(matrix) => store_and_respond(state, job, name, matrix),
        Err(e) => respond_err(state, &job.reply, id, &e.to_string()),
    }
}

fn store_and_respond(state: &Arc<State>, job: &Job, name: &str, matrix: Csr<f64>) {
    let (rows, cols, nnz) = (matrix.nrows(), matrix.ncols(), matrix.nnz());
    let bytes = matrix_bytes(&matrix);
    let print = fingerprint(&matrix);
    match state
        .catalog
        .lock()
        .expect("catalog lock")
        .store(name, matrix)
    {
        Ok(()) => respond_ok(
            state,
            &job.reply,
            job.id.as_ref(),
            vec![
                ("name", Value::Str(name.to_string())),
                ("rows", Value::UInt(rows as u64)),
                ("cols", Value::UInt(cols as u64)),
                ("nnz", Value::UInt(nnz as u64)),
                ("bytes", Value::UInt(bytes as u64)),
                ("fingerprint", Value::UInt(print)),
            ],
        ),
        Err(msg) => respond_err(state, &job.reply, job.id.as_ref(), &msg),
    }
}

/// Drains every queued multiply that shares `key` — except jobs whose
/// connection has an *earlier* queued request that is not part of the
/// batch.  Batching must never reorder one connection's pipeline: a client
/// that queues `store a` then `multiply a b` would otherwise have its
/// multiply pulled ahead of the store and computed from the stale matrix.
fn drain_batchable(
    queue: &miniloop::TaskQueue<Job>,
    key: &Option<(String, String, &'static str)>,
    limit: usize,
) -> Vec<Job> {
    let mut held_back: std::collections::HashSet<usize> = std::collections::HashSet::new();
    queue.drain_matching(limit, |j| {
        let conn = Arc::as_ptr(&j.reply) as usize;
        if held_back.contains(&conn) {
            false
        } else if j.request.batch_key() == *key {
            true
        } else {
            held_back.insert(conn);
            false
        }
    })
}

/// Executes one multiply batch: the popped job plus every queued multiply
/// with the same `(a, b, algorithm)` key (see [`drain_batchable`] for the
/// per-connection ordering guarantee).  The product is computed once —
/// one engine call, one workspace lease — and answers every member.
fn handle_multiply_batch(state: &Arc<State>, job: Job) {
    let key = job.request.batch_key();
    let join_span = trace::span(SpanName::ServeBatchJoin);
    let mut batch = vec![job];
    // OOC multiplies carry no batch key; draining with a `None` key would
    // sweep unrelated keyless ops into the batch, so they run alone.
    if key.is_some() {
        batch.extend(drain_batchable(&state.queue, &key, BATCH_LIMIT - 1));
    }
    drop(join_span);
    trace::instant(SpanName::ServeBatchJoin, batch.len() as u64);
    state.counters.record_batch(batch.len());

    let Some(Request::Multiply {
        a,
        b,
        algorithm,
        ooc_budget_mb,
        ..
    }) = batch.first().map(|j| &j.request)
    else {
        unreachable!("batch heads are multiply requests");
    };
    let (a, b, algorithm, ooc_budget_mb) = (a.clone(), b.clone(), *algorithm, *ooc_budget_mb);

    // Resolve operands under the lock, multiply outside it.
    let (entry_a, entry_b) = {
        let mut catalog = state.catalog.lock().expect("catalog lock");
        (catalog.get(&a), catalog.get(&b))
    };
    let (ea, eb) = match (entry_a, entry_b) {
        (Some(ea), Some(eb)) => (ea, eb),
        (found_a, _) => {
            let name = if found_a.is_none() { &a } else { &b };
            let missing = format!("no matrix named `{name}`");
            for j in &batch {
                respond_err(state, &j.reply, j.id.as_ref(), &missing);
            }
            return;
        }
    };
    if ea.matrix.ncols() != eb.matrix.nrows() {
        let msg = format!(
            "dimension mismatch: `{a}` is {}x{}, `{b}` is {}x{}",
            ea.matrix.nrows(),
            ea.matrix.ncols(),
            eb.matrix.nrows(),
            eb.matrix.ncols()
        );
        for j in &batch {
            respond_err(state, &j.reply, j.id.as_ref(), &msg);
        }
        return;
    }

    let engine = match algorithm {
        Some(alg) => ea.engine.clone().algorithm(alg),
        None => ea.engine.clone(),
    };
    // Batched followers never pass back through `worker_loop`, so their
    // latency is recorded here, covering the shared engine call.  The
    // popped job (index 0) is recorded by its worker as usual.
    let followers_started = Instant::now();
    let engine_span = trace::span_with_arg(SpanName::ServeEngineCall, batch.len() as u64);
    let (product, stats, flop, ooc_report) = if let Some(mb) = ooc_budget_mb {
        let cfg = pb_spgemm::TiledConfig::default().with_budget_mb(mb);
        match engine.multiply_tiled(&ea.matrix, &eb.matrix, &cfg) {
            Ok((product, report)) => {
                state
                    .counters
                    .ooc_multiplies
                    .fetch_add(1, Ordering::Relaxed);
                state
                    .counters
                    .ooc_spill_bytes
                    .fetch_add(report.spill_bytes, Ordering::Relaxed);
                state
                    .counters
                    .ooc_high_water
                    .fetch_max(report.resident_high_water, Ordering::Relaxed);
                (product, report.stats, 0u64, Some(report))
            }
            Err(e) => {
                let msg = format!("tiled multiply failed: {e}");
                for j in &batch {
                    respond_err(state, &j.reply, j.id.as_ref(), &msg);
                }
                return;
            }
        }
    } else {
        let (product, profile) =
            engine.multiply_with_profile::<PlusTimes<f64>>(&ea.matrix, &eb.matrix);
        (product, profile.stats, profile.flop, None)
    };
    drop(engine_span);
    let print = fingerprint(&product);
    let batch_size = batch.len();

    for (member, j) in batch.iter().enumerate() {
        if member > 0 {
            state
                .latency
                .record("multiply", followers_started.elapsed().as_nanos() as u64);
        }
        let Request::Multiply {
            store_as,
            want_entries,
            ..
        } = &j.request
        else {
            continue;
        };
        if let Some(target) = store_as {
            if let Err(msg) = state
                .catalog
                .lock()
                .expect("catalog lock")
                .store(target, product.clone())
            {
                respond_err(state, &j.reply, j.id.as_ref(), &msg);
                continue;
            }
        }
        let mut fields = vec![
            ("rows", Value::UInt(product.nrows() as u64)),
            ("cols", Value::UInt(product.ncols() as u64)),
            ("nnz", Value::UInt(product.nnz() as u64)),
            ("fingerprint", Value::UInt(print)),
            ("algorithm", Value::Str(engine.name().to_string())),
            (
                "planned",
                Value::Str(stats.planned_algorithm.name().to_string()),
            ),
            ("batched_with", Value::UInt(batch_size as u64)),
            ("bytes_allocated", Value::UInt(stats.bytes_allocated)),
            ("bytes_reused", Value::UInt(stats.bytes_reused)),
            ("flop", Value::UInt(flop)),
        ];
        if let Some(report) = &ooc_report {
            fields.push(("ooc_tiles", Value::UInt(report.tiles_processed)));
            fields.push(("ooc_spill_bytes", Value::UInt(report.spill_bytes)));
            fields.push((
                "ooc_resident_high_water",
                Value::UInt(report.resident_high_water),
            ));
            fields.push((
                "ooc_grid",
                Value::Str(format!(
                    "{}x{}x{}",
                    report.grid.0, report.grid.1, report.grid.2
                )),
            ));
        }
        if *want_entries {
            if product.nnz() > MAX_RETURNED_ENTRIES {
                respond_err(
                    state,
                    &j.reply,
                    j.id.as_ref(),
                    &format!(
                        "product has {} nonzeros, over the {} returnable limit",
                        product.nnz(),
                        MAX_RETURNED_ENTRIES
                    ),
                );
                continue;
            }
            fields.push(("entries", entries_value(&product)));
        }
        respond_ok(state, &j.reply, j.id.as_ref(), fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected socket to stand in for a client's write half; the peer
    /// end is leaked so writes would succeed if a test ever made any.
    fn test_reply() -> Arc<Mutex<TcpStream>> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).expect("connect loopback");
        let (peer, _) = listener.accept().expect("accept loopback");
        std::mem::forget(peer);
        Arc::new(Mutex::new(stream))
    }

    fn multiply(a: &str, b: &str) -> Request {
        Request::Multiply {
            a: a.into(),
            b: b.into(),
            algorithm: None,
            store_as: None,
            want_entries: false,
            ooc_budget_mb: None,
        }
    }

    fn job(request: Request, reply: &Arc<Mutex<TcpStream>>) -> Job {
        Job {
            request,
            id: None,
            reply: Arc::clone(reply),
            corr: corr_of(None),
            enqueued_nanos: trace::now_nanos(),
        }
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.set_nonblocking(true).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let state = Arc::new(State::new(&ServeConfig::default()));
        // Like the reactor, accept once the listener polls readable.
        let fd = listener.as_raw_fd() as miniloop::RawFd;
        miniloop::poll_readable(&[(fd, 0)], Duration::from_secs(10)).expect("poll");
        let mut conns = Vec::new();
        accept_all(&listener, &state, &mut conns);
        let conn = conns.first().and_then(Option::as_ref).expect("accepted");
        assert!(conn.stream.nodelay().unwrap(), "TCP_NODELAY not set");
    }

    #[test]
    fn corr_ids_are_stable_and_distinct() {
        // Integer protocol ids are used verbatim.
        assert_eq!(corr_of(Some(&Value::UInt(7))), 7);
        // Other JSON ids hash deterministically.
        let s = Value::Str("req-1".into());
        assert_eq!(corr_of(Some(&s)), corr_of(Some(&s)));
        assert_ne!(
            corr_of(Some(&s)),
            corr_of(Some(&Value::Str("req-2".into())))
        );
        // Id-less requests get distinct serials outside the client space.
        let (a, b) = (corr_of(None), corr_of(None));
        assert_ne!(a, b);
        assert!(a & (1 << 63) != 0 && b & (1 << 63) != 0);
    }

    #[test]
    fn batching_does_not_reorder_one_connections_pipeline() {
        let queue: miniloop::TaskQueue<Job> = miniloop::TaskQueue::new();
        let pipelining = test_reply();
        let other = test_reply();
        // The pipelining connection queued a store *before* its multiply;
        // draining the multiply into someone else's batch would compute it
        // from the matrix the store is about to replace.
        queue.push(job(Request::Evict { name: "m".into() }, &pipelining));
        queue.push(job(multiply("m", "m"), &pipelining));
        // A multiply with nothing queued ahead of it on its connection is
        // fair game.
        queue.push(job(multiply("m", "m"), &other));
        let key = multiply("m", "m").batch_key();

        let batch = drain_batchable(&queue, &key, BATCH_LIMIT);
        assert_eq!(batch.len(), 1, "only the unordered-safe multiply joins");
        assert!(Arc::ptr_eq(&batch[0].reply, &other));
        // The pipelining connection's jobs are still queued, in order.
        let first = queue.pop(Duration::from_millis(10)).unwrap();
        assert!(matches!(first.request, Request::Evict { .. }));
        let second = queue.pop(Duration::from_millis(10)).unwrap();
        assert_eq!(second.request, multiply("m", "m"));
        assert!(queue.is_empty());
    }

    #[test]
    fn batching_takes_every_safe_match_up_to_the_limit() {
        let queue: miniloop::TaskQueue<Job> = miniloop::TaskQueue::new();
        let conns: Vec<_> = (0..4).map(|_| test_reply()).collect();
        for c in &conns {
            queue.push(job(multiply("x", "x"), c));
        }
        // A same-connection *matching* pipeline is safe to batch whole.
        queue.push(job(multiply("x", "x"), &conns[0]));
        let key = multiply("x", "x").batch_key();
        let batch = drain_batchable(&queue, &key, BATCH_LIMIT);
        assert_eq!(batch.len(), 5);
        assert!(queue.is_empty());
    }

    #[test]
    fn gen_estimate_is_an_upper_bound_on_stored_bytes() {
        let (scale, edge_factor, seed) = (6u32, 4u32, 7u64);
        let estimate = estimated_gen_bytes(scale, edge_factor);
        let rmat = pb_gen::rmat_square(scale, edge_factor, seed);
        let er = pb_gen::erdos_renyi_square(scale, edge_factor, seed);
        assert!(matrix_bytes(&rmat) <= estimate);
        assert!(matrix_bytes(&er) <= estimate);
        // And it saturates instead of overflowing on absurd requests.
        let _ = estimated_gen_bytes(24, u32::MAX);
    }
}
