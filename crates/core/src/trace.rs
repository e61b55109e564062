//! Span-based tracing spine: per-thread ring buffers, Chrome-trace export,
//! and log-bucketed latency histograms.
//!
//! [`PhaseStats`](crate::PhaseStats) answers *how much* each phase cost in
//! aggregate; this module answers *when*: a time-resolved view of every
//! multiply, planner decision, workspace checkout and serve-request stage,
//! cheap enough to leave compiled into production binaries.
//!
//! # Design
//!
//! * **One relaxed atomic when disabled.**  Every emission site first calls
//!   [`enabled`], which is a single `Relaxed` load plus a branch.  With
//!   tracing off (the default) instrumentation costs one predictable
//!   never-taken branch — no locks, no TLS access, no allocation.
//! * **Per-thread rings, lock-free writes.**  Each emitting thread owns a
//!   fixed-capacity ring of 32-byte events (four `u64` words stored through
//!   relaxed atomics).  Only the owner writes; a monotonic head published
//!   with `Release` ordering lets [`snapshot`] copy concurrently without
//!   locks and discard any slot that may have been overwritten mid-copy, so
//!   a reader never observes a torn event.  When the ring wraps, the oldest
//!   events are dropped and a per-ring drop counter is bumped.
//! * **Correlation ids.**  A thread-local current correlation id (scoped via
//!   [`corr_scope`]/[`with_corr`]) is stamped onto every event, letting the
//!   serve layer tie all spans of one request — across reactor and worker
//!   threads — back to the request's protocol `id`.
//! * **Exports.**  [`TraceSnapshot::to_chrome_json`] renders the Chrome
//!   trace-event format (loadable in Perfetto / `chrome://tracing`);
//!   [`validate_chrome_trace`] re-parses and structurally checks such a
//!   trace (used by tests and CI).  [`LatencyHistogram`] is the lock-free
//!   powers-of-√2 histogram backing `pb_serve_request_seconds` exposition.
//!
//! # Environment
//!
//! * `PB_TRACE` — `1`/`true`/`on`/`yes` enables tracing at first use.
//! * `PB_TRACE_EVENTS` — per-thread ring capacity in events (default
//!   8192, clamped to `[16, 4194304]`), read when a thread's ring is
//!   created.

use std::cell::{Cell, OnceCell};
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable enabling tracing at startup (`1`/`true`/`on`/`yes`).
pub const TRACE_ENV: &str = "PB_TRACE";

/// Environment variable sizing each thread's event ring (events per thread).
pub const TRACE_EVENTS_ENV: &str = "PB_TRACE_EVENTS";

/// Default per-thread ring capacity when [`TRACE_EVENTS_ENV`] is unset.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Smallest accepted ring capacity.
pub const MIN_RING_CAPACITY: usize = 16;

/// Largest accepted ring capacity.
pub const MAX_RING_CAPACITY: usize = 1 << 22;

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();

thread_local! {
    static LOCAL_RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
    static CORR: Cell<u64> = const { Cell::new(0) };
}

/// Returns whether tracing is currently enabled.
///
/// The hot disabled path is exactly one `Relaxed` atomic load plus a
/// branch; the cold first call resolves [`TRACE_ENV`] once.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_OFF => false,
        STATE_ON => true,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var(TRACE_ENV)
        .map(|v| truthy(&v))
        .unwrap_or(false);
    if CAPACITY.load(Ordering::Relaxed) == 0 {
        CAPACITY.store(capacity_from_env(), Ordering::Relaxed);
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Returns whether `value` spells an enabled [`TRACE_ENV`] setting.
pub fn truthy(value: &str) -> bool {
    matches!(
        value.trim().to_ascii_lowercase().as_str(),
        "1" | "true" | "on" | "yes"
    )
}

fn capacity_from_env() -> usize {
    std::env::var(TRACE_EVENTS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_RING_CAPACITY)
        .clamp(MIN_RING_CAPACITY, MAX_RING_CAPACITY)
}

/// Turns tracing on or off process-wide.
///
/// Spans already open keep their guards and still emit their `End` events,
/// so per-thread begin/end streams stay balanced across a toggle.
pub fn set_enabled(on: bool) {
    if CAPACITY.load(Ordering::Relaxed) == 0 {
        CAPACITY.store(capacity_from_env(), Ordering::Relaxed);
    }
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

/// Sets the capacity used for rings created *after* this call (existing
/// rings keep their size).  Clamped to
/// [`MIN_RING_CAPACITY`]`..=`[`MAX_RING_CAPACITY`].
pub fn set_ring_capacity(capacity: usize) {
    CAPACITY.store(
        capacity.clamp(MIN_RING_CAPACITY, MAX_RING_CAPACITY),
        Ordering::Relaxed,
    );
}

/// Nanoseconds since the process-wide trace epoch (first trace activity).
#[inline]
pub fn now_nanos() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Span names
// ---------------------------------------------------------------------------

/// Every span / instant the repo emits, as a dense id stored in 16 bits.
///
/// The taxonomy (see `docs/OBSERVABILITY.md`) groups names by layer:
/// engine entry points, the five PB phases, planner decisions, workspace
/// lifecycle, serve-request stages and graph-builder kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum SpanName {
    /// `SpGemm::multiply*` on CSR inputs.
    EngineMultiply = 0,
    /// `SpGemm::multiply_csc*` (pre-converted A).
    EngineMultiplyCsc = 1,
    /// A masked multiply on any engine, transpose included.
    EngineMasked = 2,
    /// Planner kernel selection (`Planner::decide`).
    PlannerDecide = 3,
    /// Planner feedback (`Planner::observe`).
    PlannerObserve = 4,
    /// Symbolic phase: FLOP counting and bin layout.
    PhaseSymbolic = 5,
    /// Expand phase: outer products streamed into bins.
    PhaseExpand = 6,
    /// Sort phase: per-bin key sort.
    PhaseSort = 7,
    /// Compress phase: duplicate-key reduction.
    PhaseCompress = 8,
    /// Assemble phase: CSR construction.
    PhaseAssemble = 9,
    /// The PB pipeline's mask stage, nested in `phase.compress`.
    PhaseMask = 10,
    /// Workspace lease checkout (`arg` = 1 on a pooled hit, 0 otherwise).
    WorkspaceCheckout = 11,
    /// Workspace lease check-in (buffers returned to the pool).
    WorkspaceCheckin = 12,
    /// Workspace decay event (`arg` = bytes released).
    WorkspaceDecay = 13,
    /// Lease taken without a pooled workspace.
    WorkspaceBypass = 14,
    /// Serve reactor accepted a connection.
    ServeAccept = 15,
    /// Serve reactor parsed one protocol line.
    ServeParse = 16,
    /// Time a job waited in the worker queue (`Complete`, `arg` = wait ns).
    ServeQueueWait = 17,
    /// One request handled end-to-end on a worker.
    ServeRequest = 18,
    /// Same-key multiply requests joined into one engine call.
    ServeBatchJoin = 19,
    /// The engine call a serve request resolved to.
    ServeEngineCall = 20,
    /// Serialization + socket write of a response line.
    ServeRespond = 21,
    /// Markov-clustering builder kernel.
    GraphMcl = 22,
    /// Betweenness-centrality builder kernel.
    GraphBc = 23,
    /// All-pairs shortest paths builder kernel.
    GraphApsp = 24,
    /// Breadth-first search builder kernel.
    GraphBfs = 25,
    /// Triangle-counting builder kernel.
    GraphTriangles = 26,
    /// Whole out-of-core tiled multiply (`SpGemm::multiply_tiled`).
    TiledMultiply = 27,
    /// Flop-balanced boundary computation and tile cutting.
    TiledPartition = 28,
    /// One per-tile engine multiply inside the tiled pipeline.
    TiledTileMultiply = 29,
    /// Hierarchical-PB accumulation of one output tile's partials.
    TiledAccumulate = 30,
    /// A tile evicted from the store to the scratch file (`arg` = bytes).
    TiledSpill = 31,
    /// A spilled tile mapped back in from scratch (`arg` = bytes).
    TiledFetch = 32,
    /// Final row-stripe assembly of the output matrix.
    TiledAssemble = 33,
}

impl SpanName {
    /// All span names, in id order.
    pub const ALL: [SpanName; 34] = [
        SpanName::EngineMultiply,
        SpanName::EngineMultiplyCsc,
        SpanName::EngineMasked,
        SpanName::PlannerDecide,
        SpanName::PlannerObserve,
        SpanName::PhaseSymbolic,
        SpanName::PhaseExpand,
        SpanName::PhaseSort,
        SpanName::PhaseCompress,
        SpanName::PhaseAssemble,
        SpanName::PhaseMask,
        SpanName::WorkspaceCheckout,
        SpanName::WorkspaceCheckin,
        SpanName::WorkspaceDecay,
        SpanName::WorkspaceBypass,
        SpanName::ServeAccept,
        SpanName::ServeParse,
        SpanName::ServeQueueWait,
        SpanName::ServeRequest,
        SpanName::ServeBatchJoin,
        SpanName::ServeEngineCall,
        SpanName::ServeRespond,
        SpanName::GraphMcl,
        SpanName::GraphBc,
        SpanName::GraphApsp,
        SpanName::GraphBfs,
        SpanName::GraphTriangles,
        SpanName::TiledMultiply,
        SpanName::TiledPartition,
        SpanName::TiledTileMultiply,
        SpanName::TiledAccumulate,
        SpanName::TiledSpill,
        SpanName::TiledFetch,
        SpanName::TiledAssemble,
    ];

    /// The event name written to Chrome traces.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::EngineMultiply => "engine.multiply",
            SpanName::EngineMultiplyCsc => "engine.multiply_csc",
            SpanName::EngineMasked => "engine.masked",
            SpanName::PlannerDecide => "planner.decide",
            SpanName::PlannerObserve => "planner.observe",
            SpanName::PhaseSymbolic => "phase.symbolic",
            SpanName::PhaseExpand => "phase.expand",
            SpanName::PhaseSort => "phase.sort",
            SpanName::PhaseCompress => "phase.compress",
            SpanName::PhaseAssemble => "phase.assemble",
            SpanName::PhaseMask => "phase.mask",
            SpanName::WorkspaceCheckout => "workspace.checkout",
            SpanName::WorkspaceCheckin => "workspace.checkin",
            SpanName::WorkspaceDecay => "workspace.decay",
            SpanName::WorkspaceBypass => "workspace.bypass",
            SpanName::ServeAccept => "serve.accept",
            SpanName::ServeParse => "serve.parse",
            SpanName::ServeQueueWait => "serve.queue_wait",
            SpanName::ServeRequest => "serve.request",
            SpanName::ServeBatchJoin => "serve.batch_join",
            SpanName::ServeEngineCall => "serve.engine_call",
            SpanName::ServeRespond => "serve.respond",
            SpanName::GraphMcl => "graph.mcl",
            SpanName::GraphBc => "graph.bc",
            SpanName::GraphApsp => "graph.apsp",
            SpanName::GraphBfs => "graph.bfs",
            SpanName::GraphTriangles => "graph.triangles",
            SpanName::TiledMultiply => "tiled.multiply",
            SpanName::TiledPartition => "tiled.partition",
            SpanName::TiledTileMultiply => "tiled.tile_multiply",
            SpanName::TiledAccumulate => "tiled.accumulate",
            SpanName::TiledSpill => "tiled.spill",
            SpanName::TiledFetch => "tiled.fetch",
            SpanName::TiledAssemble => "tiled.assemble",
        }
    }

    /// The Chrome-trace category (`cat`) this name belongs to.
    pub fn category(self) -> &'static str {
        match self {
            SpanName::EngineMultiply | SpanName::EngineMultiplyCsc | SpanName::EngineMasked => {
                "engine"
            }
            SpanName::PlannerDecide | SpanName::PlannerObserve => "planner",
            SpanName::PhaseSymbolic
            | SpanName::PhaseExpand
            | SpanName::PhaseSort
            | SpanName::PhaseCompress
            | SpanName::PhaseAssemble
            | SpanName::PhaseMask => "phase",
            SpanName::WorkspaceCheckout
            | SpanName::WorkspaceCheckin
            | SpanName::WorkspaceDecay
            | SpanName::WorkspaceBypass => "workspace",
            SpanName::ServeAccept
            | SpanName::ServeParse
            | SpanName::ServeQueueWait
            | SpanName::ServeRequest
            | SpanName::ServeBatchJoin
            | SpanName::ServeEngineCall
            | SpanName::ServeRespond => "serve",
            SpanName::GraphMcl
            | SpanName::GraphBc
            | SpanName::GraphApsp
            | SpanName::GraphBfs
            | SpanName::GraphTriangles => "graph",
            SpanName::TiledMultiply
            | SpanName::TiledPartition
            | SpanName::TiledTileMultiply
            | SpanName::TiledAccumulate
            | SpanName::TiledSpill
            | SpanName::TiledFetch
            | SpanName::TiledAssemble => "tiled",
        }
    }

    fn from_u16(id: u16) -> Option<SpanName> {
        SpanName::ALL.get(id as usize).copied()
    }
}

/// What an event marks: the opening or closing edge of a span, a point
/// event, or a whole span recorded at once with its duration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Span opening edge.
    Begin = 0,
    /// Span closing edge.
    End = 1,
    /// Point-in-time marker.
    Instant = 2,
    /// A completed span: `nanos` is the end, `arg` the duration in ns.
    Complete = 3,
}

impl EventKind {
    fn from_u8(raw: u8) -> Option<EventKind> {
        match raw {
            0 => Some(EventKind::Begin),
            1 => Some(EventKind::End),
            2 => Some(EventKind::Instant),
            3 => Some(EventKind::Complete),
            _ => None,
        }
    }
}

/// One decoded trace event (stored as 32 bytes — four `u64` words — in the
/// per-thread ring).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch ([`now_nanos`] clock).  For
    /// [`EventKind::Complete`] this is the *end* of the span.
    pub nanos: u64,
    /// Correlation id active when the event was emitted (0 = none).
    pub corr: u64,
    /// Free-form payload; duration in ns for [`EventKind::Complete`].
    pub arg: u64,
    /// Which span/marker this event belongs to.
    pub name: SpanName,
    /// Edge/point kind.
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Rings
// ---------------------------------------------------------------------------

const WORDS: usize = 4;

struct Ring {
    words: Box<[AtomicU64]>,
    capacity: usize,
    /// Events ever written; the next write goes to `head % capacity`.
    /// Published with `Release` after the slot's words are stored.
    head: AtomicU64,
    dropped: AtomicU64,
    tid: u64,
    thread_name: String,
}

impl Ring {
    fn new(capacity: usize, tid: u64, thread_name: String) -> Ring {
        let words = (0..capacity * WORDS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            words,
            capacity,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            tid,
            thread_name,
        }
    }

    /// Owner-thread-only append.  Slot words are plain relaxed stores; the
    /// `Release` head publication orders them for any concurrent snapshot.
    fn push(&self, w0: u64, w1: u64, w2: u64, w3: u64) {
        let cap = self.capacity as u64;
        let head = self.head.load(Ordering::Relaxed);
        let base = ((head % cap) as usize) * WORDS;
        self.words[base].store(w0, Ordering::Relaxed);
        self.words[base + 1].store(w1, Ordering::Relaxed);
        self.words[base + 2].store(w2, Ordering::Relaxed);
        self.words[base + 3].store(w3, Ordering::Relaxed);
        if head >= cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.head.store(head + 1, Ordering::Release);
    }

    /// Concurrent-safe copy of the live window.  Any slot the writer may
    /// have touched during the copy is discarded, so no returned event can
    /// be torn.
    fn read(&self) -> (Vec<TraceEvent>, u64) {
        let cap = self.capacity as u64;
        let head_before = self.head.load(Ordering::Acquire);
        let lo = head_before.saturating_sub(cap);
        let mut raw = Vec::with_capacity((head_before - lo) as usize);
        for seq in lo..head_before {
            let base = ((seq % cap) as usize) * WORDS;
            raw.push([
                self.words[base].load(Ordering::Relaxed),
                self.words[base + 1].load(Ordering::Relaxed),
                self.words[base + 2].load(Ordering::Relaxed),
                self.words[base + 3].load(Ordering::Relaxed),
            ]);
        }
        // The writer may be mid-write to sequence `head_after`, which
        // overwrites `head_after - cap`: only sequences strictly above
        // that are guaranteed intact.
        let head_after = self.head.load(Ordering::Acquire);
        let valid_from = (head_after + 1).saturating_sub(cap);
        let skip = valid_from.saturating_sub(lo).min(raw.len() as u64) as usize;
        let events = raw[skip..]
            .iter()
            .filter_map(|w| decode(w[0], w[1], w[2], w[3]))
            .collect();
        (events, self.dropped.load(Ordering::Relaxed))
    }
}

fn decode(w0: u64, w1: u64, w2: u64, w3: u64) -> Option<TraceEvent> {
    let name = SpanName::from_u16((w3 & 0xffff) as u16)?;
    let kind = EventKind::from_u8(((w3 >> 16) & 0xff) as u8)?;
    Some(TraceEvent {
        nanos: w0,
        corr: w1,
        arg: w2,
        name,
        kind,
    })
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn register_ring() -> Arc<Ring> {
    let mut rings = registry().lock().unwrap();
    let tid = rings.len() as u64 + 1;
    let capacity = match CAPACITY.load(Ordering::Relaxed) {
        0 => capacity_from_env(),
        cap => cap,
    };
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let ring = Arc::new(Ring::new(capacity, tid, name));
    rings.push(Arc::clone(&ring));
    ring
}

#[inline]
fn emit(name: SpanName, kind: EventKind, corr: u64, arg: u64) {
    let nanos = now_nanos();
    let w3 = (name as u64) | ((kind as u64) << 16);
    // `try_with` so late emissions during thread teardown are dropped
    // instead of panicking.
    let _ = LOCAL_RING.try_with(|cell| {
        cell.get_or_init(register_ring).push(nanos, corr, arg, w3);
    });
}

// ---------------------------------------------------------------------------
// Emission API
// ---------------------------------------------------------------------------

/// RAII span: emits `Begin` on creation (when tracing is enabled) and the
/// matching `End` on drop.  Thread-confined, so per-thread begin/end
/// streams always nest.
#[derive(Debug)]
pub struct SpanGuard {
    name: SpanName,
    corr: u64,
    live: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.live {
            // Emit unconditionally (no enabled() re-check) so a mid-span
            // disable cannot strand an unbalanced Begin.
            emit(self.name, EventKind::End, self.corr, 0);
        }
    }
}

/// Opens a span; the returned guard closes it on drop.
#[inline]
pub fn span(name: SpanName) -> SpanGuard {
    span_with_arg(name, 0)
}

/// Opens a span whose `Begin` event carries `arg`.
#[inline]
pub fn span_with_arg(name: SpanName, arg: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            name,
            corr: 0,
            live: false,
            _not_send: PhantomData,
        };
    }
    let corr = current_corr();
    emit(name, EventKind::Begin, corr, arg);
    SpanGuard {
        name,
        corr,
        live: true,
        _not_send: PhantomData,
    }
}

/// Emits a point event carrying `arg`.
#[inline]
pub fn instant(name: SpanName, arg: u64) {
    if !enabled() {
        return;
    }
    emit(name, EventKind::Instant, current_corr(), arg);
}

/// Records a span that just finished and lasted `duration_nanos` — used
/// when the opening edge happened on another thread (e.g. queue wait).
#[inline]
pub fn complete(name: SpanName, duration_nanos: u64) {
    if !enabled() {
        return;
    }
    emit(name, EventKind::Complete, current_corr(), duration_nanos);
}

// ---------------------------------------------------------------------------
// Correlation context
// ---------------------------------------------------------------------------

/// Restores the previous thread-local correlation id on drop.
#[derive(Debug)]
pub struct CorrGuard {
    prev: u64,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CorrGuard {
    fn drop(&mut self) {
        let _ = CORR.try_with(|c| c.set(self.prev));
    }
}

/// Sets the current thread's correlation id until the guard drops.
#[inline]
pub fn corr_scope(corr: u64) -> CorrGuard {
    let prev = CORR.try_with(|c| c.replace(corr)).unwrap_or(0);
    CorrGuard {
        prev,
        _not_send: PhantomData,
    }
}

/// Runs `f` with `corr` as the current correlation id.
#[inline]
pub fn with_corr<R>(corr: u64, f: impl FnOnce() -> R) -> R {
    let _guard = corr_scope(corr);
    f()
}

/// The correlation id events on this thread are currently stamped with
/// (0 = none).
#[inline]
pub fn current_corr() -> u64 {
    CORR.try_with(Cell::get).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Snapshots and Chrome export
// ---------------------------------------------------------------------------

/// The retained events of one thread's ring at snapshot time.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Stable small id assigned at ring registration (used as Chrome `tid`).
    pub tid: u64,
    /// The emitting thread's name at registration time.
    pub thread_name: String,
    /// Events overwritten by ring wraparound since the thread began
    /// tracing.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A point-in-time copy of every registered thread ring.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// One entry per thread that has ever emitted an event.
    pub threads: Vec<ThreadTrace>,
}

/// Copies the current contents of every thread's ring (lock-free with
/// respect to emitters; never returns a torn event).
pub fn snapshot() -> TraceSnapshot {
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap().clone();
    let threads = rings
        .iter()
        .map(|ring| {
            let (events, dropped) = ring.read();
            ThreadTrace {
                tid: ring.tid,
                thread_name: ring.thread_name.clone(),
                dropped,
                events,
            }
        })
        .collect();
    TraceSnapshot { threads }
}

fn push_json_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_micros(out: &mut String, nanos: u64) {
    let _ = write!(out, "{}.{:03}", nanos / 1_000, nanos % 1_000);
}

impl TraceSnapshot {
    /// Total number of retained events across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Whether no thread retained any event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the snapshot as Chrome trace-event JSON (one line, compact),
    /// loadable in Perfetto or `chrome://tracing`.
    ///
    /// Span edges become `B`/`E` pairs, instants become `i`, and
    /// cross-thread completions become `X` events whose `ts` is backdated
    /// by their duration.  A metadata event names each thread.
    pub fn to_chrome_json(&self) -> String {
        let pid = std::process::id();
        let mut out = String::with_capacity(128 + self.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push_sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
        };
        for thread in &self.threads {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":",
                thread.tid
            );
            push_json_escaped(&mut out, &thread.thread_name);
            out.push_str("}}");
            for ev in &thread.events {
                push_sep(&mut out, &mut first);
                out.push_str("{\"name\":\"");
                out.push_str(ev.name.label());
                out.push_str("\",\"cat\":\"");
                out.push_str(ev.name.category());
                let _ = write!(out, "\",\"pid\":{pid},\"tid\":{},\"ts\":", thread.tid);
                match ev.kind {
                    EventKind::Begin => {
                        push_micros(&mut out, ev.nanos);
                        out.push_str(",\"ph\":\"B\"");
                    }
                    EventKind::End => {
                        push_micros(&mut out, ev.nanos);
                        out.push_str(",\"ph\":\"E\"");
                    }
                    EventKind::Instant => {
                        push_micros(&mut out, ev.nanos);
                        out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
                    }
                    EventKind::Complete => {
                        push_micros(&mut out, ev.nanos.saturating_sub(ev.arg));
                        out.push_str(",\"ph\":\"X\",\"dur\":");
                        push_micros(&mut out, ev.arg);
                    }
                }
                if ev.corr != 0 || (ev.arg != 0 && ev.kind != EventKind::Complete) {
                    out.push_str(",\"args\":{");
                    let mut inner_first = true;
                    if ev.corr != 0 {
                        let _ = write!(out, "\"corr\":{}", ev.corr);
                        inner_first = false;
                    }
                    if ev.arg != 0 && ev.kind != EventKind::Complete {
                        if !inner_first {
                            out.push(',');
                        }
                        let _ = write!(out, "\"arg\":{}", ev.arg);
                    }
                    out.push('}');
                }
                out.push('}');
            }
        }
        out.push_str("]}");
        out
    }
}

/// Summary returned by a successful [`validate_chrome_trace`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total trace events, metadata included.
    pub events: usize,
    /// Distinct `tid`s carrying at least one non-metadata event.
    pub threads: usize,
    /// `B`/`E` span pairs plus `X` completions.
    pub spans: usize,
    /// `i` point events.
    pub instants: usize,
    /// Spans still open when the snapshot was taken (in-flight work — a
    /// live server exporting its own trace always has at least one).
    pub open_spans: usize,
    /// `E` events whose `B` was dropped by ring wraparound before the
    /// snapshot (the retained stream is a suffix of the emitted one).
    pub orphan_ends: usize,
}

/// Structurally validates Chrome trace-event JSON: well-formed, non-empty,
/// per-thread timestamps monotonic, and begin/end nesting consistent (an
/// `E` closing a span must name the innermost open one) on every thread.
/// Returns counts on success.
///
/// Two snapshot artifacts are tolerated and *counted* rather than
/// rejected, because a ring-buffer snapshot of a live process produces
/// them by construction: spans still open at snapshot time
/// ([`ChromeTraceSummary::open_spans`]) and `E` events whose `B` was
/// overwritten by ring wraparound ([`ChromeTraceSummary::orphan_ends`]).
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    if events.is_empty() {
        return Err("trace contains no events".to_string());
    }
    // (pid, tid) -> (last timestamp seen, stack of open span names).
    let mut per_thread: Vec<((u64, u64), f64, Vec<String>)> = Vec::new();
    let mut threads_with_events = std::collections::BTreeSet::new();
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut orphan_ends = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        let pid = ev
            .get("pid")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        if ph == "M" {
            continue;
        }
        threads_with_events.insert((pid, tid));
        let ts = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let slot = match per_thread.iter_mut().find(|(key, _, _)| *key == (pid, tid)) {
            Some(slot) => slot,
            None => {
                per_thread.push(((pid, tid), f64::NEG_INFINITY, Vec::new()));
                per_thread.last_mut().unwrap()
            }
        };
        match ph {
            "B" | "E" | "i" => {
                if ts < slot.1 {
                    return Err(format!(
                        "event {i} ({name}): ts {ts} precedes {} on tid {tid}",
                        slot.1
                    ));
                }
                slot.1 = ts;
                match ph {
                    "B" => slot.2.push(name),
                    "E" => match slot.2.pop() {
                        Some(open) if open != name => {
                            return Err(format!(
                                "event {i}: E for {name} but {open} is open on tid {tid}"
                            ));
                        }
                        Some(_) => spans += 1,
                        // The ring dropped this span's B: the retained
                        // stream is a suffix of the emitted one.
                        None => orphan_ends += 1,
                    },
                    _ => instants += 1,
                }
            }
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("event {i} ({name}): X without dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i} ({name}): negative dur"));
                }
                // X events are backdated by their duration; their *end*
                // must respect thread order.
                let end = ts + dur;
                if end < slot.1 {
                    return Err(format!(
                        "event {i} ({name}): X ends at {end} before {} on tid {tid}",
                        slot.1
                    ));
                }
                slot.1 = end;
                spans += 1;
            }
            other => return Err(format!("event {i} ({name}): unknown ph {other:?}")),
        }
    }
    let open_spans = per_thread.iter().map(|(_, _, stack)| stack.len()).sum();
    Ok(ChromeTraceSummary {
        events: events.len(),
        threads: threads_with_events.len(),
        spans,
        instants,
        open_spans,
        orphan_ends,
    })
}

/// Renders an indented per-thread span tree of all events carrying `corr`
/// — the slow-request log body.
pub fn render_span_tree(snapshot: &TraceSnapshot, corr: u64) -> String {
    let mut out = String::new();
    for thread in &snapshot.threads {
        let events: Vec<&TraceEvent> = thread.events.iter().filter(|e| e.corr == corr).collect();
        if events.is_empty() {
            continue;
        }
        let _ = writeln!(out, "[{}] ({})", thread.thread_name, thread.tid);
        // (line index, begin nanos) of every open span, for duration
        // backfill when its End arrives.
        let mut lines: Vec<String> = Vec::new();
        let mut stack: Vec<(usize, u64)> = Vec::new();
        for ev in events {
            let indent = "  ".repeat(stack.len() + 1);
            match ev.kind {
                EventKind::Begin => {
                    lines.push(format!("{indent}{}", ev.name.label()));
                    stack.push((lines.len() - 1, ev.nanos));
                }
                EventKind::End => {
                    if let Some((idx, begin)) = stack.pop() {
                        let dur = ev.nanos.saturating_sub(begin);
                        let _ = write!(lines[idx], " {}", format_duration(dur));
                    }
                }
                EventKind::Instant => {
                    lines.push(format!("{indent}@ {} (arg {})", ev.name.label(), ev.arg));
                }
                EventKind::Complete => {
                    lines.push(format!(
                        "{indent}{} {}",
                        ev.name.label(),
                        format_duration(ev.arg)
                    ));
                }
            }
        }
        for (idx, _) in stack {
            let _ = write!(lines[idx], " (unfinished)");
        }
        for line in lines {
            let _ = writeln!(out, "{line}");
        }
    }
    if out.is_empty() {
        out.push_str("(no spans recorded for this request)\n");
    }
    out
}

fn format_duration(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

/// Number of finite buckets in a [`LatencyHistogram`] (one more holds
/// overflow, rendered as `+Inf`).
pub const LATENCY_BUCKETS: usize = 48;

const fn bound_nanos(k: usize) -> u64 {
    // Powers of √2 starting at 1µs: even ranks are exact doublings of
    // 1000ns, odd ranks of 1414ns (≈ 1000·√2).
    if k.is_multiple_of(2) {
        1_000u64 << (k / 2)
    } else {
        1_414u64 << (k / 2)
    }
}

/// Upper bucket bounds in nanoseconds, ascending powers of √2 from 1µs.
pub const BUCKET_BOUNDS_NANOS: [u64; LATENCY_BUCKETS] = {
    let mut bounds = [0u64; LATENCY_BUCKETS];
    let mut k = 0;
    while k < LATENCY_BUCKETS {
        bounds[k] = bound_nanos(k);
        k += 1;
    }
    bounds
};

/// Lock-free log-bucketed (powers of √2) latency histogram.
///
/// All mutation is relaxed-atomic increments, so any number of threads may
/// record concurrently; [`LatencyHistogram::snapshot`] takes a racy-but-
/// consistent-enough copy for exposition.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS + 1],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A zeroed histogram (usable in statics).
    pub const fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; LATENCY_BUCKETS + 1],
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one observation of `nanos`.
    pub fn record_nanos(&self, nanos: u64) {
        let idx = BUCKET_BOUNDS_NANOS.partition_point(|&b| nanos > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Copies the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; the final entry is the
    /// overflow (`+Inf`) bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed latencies in nanoseconds.
    pub sum_nanos: u64,
}

impl HistogramSnapshot {
    /// Upper bound of finite bucket `k` in seconds.
    pub fn upper_bound_seconds(k: usize) -> f64 {
        BUCKET_BOUNDS_NANOS[k] as f64 * 1e-9
    }

    /// The upper bound (seconds) of the bucket containing quantile `q`
    /// (`0.0..=1.0`), or `None` when empty.  Overflow observations report
    /// twice the largest finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(if k < LATENCY_BUCKETS {
                    Self::upper_bound_seconds(k)
                } else {
                    Self::upper_bound_seconds(LATENCY_BUCKETS - 1) * 2.0
                });
            }
        }
        Some(Self::upper_bound_seconds(LATENCY_BUCKETS - 1) * 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_event_is_32_bytes() {
        assert_eq!(WORDS * std::mem::size_of::<AtomicU64>(), 32);
    }

    #[test]
    fn event_words_round_trip() {
        for name in SpanName::ALL {
            for kind in [
                EventKind::Begin,
                EventKind::End,
                EventKind::Instant,
                EventKind::Complete,
            ] {
                let w3 = (name as u64) | ((kind as u64) << 16);
                let ev = decode(7, 42, 9000, w3).expect("decodes");
                assert_eq!(ev.name, name);
                assert_eq!(ev.kind, kind);
                assert_eq!((ev.nanos, ev.corr, ev.arg), (7, 42, 9000));
            }
        }
        assert!(decode(0, 0, 0, 0xffff).is_none(), "unknown name rejected");
    }

    #[test]
    fn bucket_bounds_are_sqrt2_spaced_and_ascending() {
        for k in 0..LATENCY_BUCKETS - 1 {
            let ratio = BUCKET_BOUNDS_NANOS[k + 1] as f64 / BUCKET_BOUNDS_NANOS[k] as f64;
            assert!(
                (ratio - std::f64::consts::SQRT_2).abs() < 0.01,
                "bucket {k}: ratio {ratio}"
            );
        }
        assert_eq!(BUCKET_BOUNDS_NANOS[0], 1_000);
        assert_eq!(BUCKET_BOUNDS_NANOS[2], 2_000);
    }

    #[test]
    fn histogram_records_into_correct_buckets() {
        let h = LatencyHistogram::new();
        h.record_nanos(500); // <= 1µs -> bucket 0
        h.record_nanos(1_000); // == bound 0 -> bucket 0
        h.record_nanos(1_001); // -> bucket 1
        h.record_nanos(u64::MAX); // -> overflow
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[LATENCY_BUCKETS], 1);
        assert_eq!(snap.count, 4);
    }

    #[test]
    fn histogram_quantiles_hit_bucket_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record_nanos(900); // bucket 0 (≤ 1µs)
        }
        h.record_nanos(3_000_000); // ~3ms
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        assert!((p50 - 1e-6).abs() < 1e-12, "p50 {p50}");
        let p999 = snap.quantile(0.999).unwrap();
        assert!(p999 > 2e-3 && p999 < 6e-3, "p99.9 {p999}");
        let empty = LatencyHistogram::new().snapshot();
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn chrome_json_validates_for_a_synthetic_snapshot() {
        let snap = TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 7,
                thread_name: "test \"quoted\"".to_string(),
                dropped: 0,
                events: vec![
                    TraceEvent {
                        nanos: 1_000,
                        corr: 5,
                        arg: 0,
                        name: SpanName::EngineMultiply,
                        kind: EventKind::Begin,
                    },
                    TraceEvent {
                        nanos: 1_500,
                        corr: 5,
                        arg: 3,
                        name: SpanName::PlannerDecide,
                        kind: EventKind::Instant,
                    },
                    TraceEvent {
                        nanos: 2_000,
                        corr: 5,
                        arg: 400,
                        name: SpanName::ServeQueueWait,
                        kind: EventKind::Complete,
                    },
                    TraceEvent {
                        nanos: 9_000,
                        corr: 5,
                        arg: 0,
                        name: SpanName::EngineMultiply,
                        kind: EventKind::End,
                    },
                ],
            }],
        };
        let json = snap.to_chrome_json();
        let summary = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(summary.threads, 1);
        assert_eq!(summary.spans, 2); // one B/E pair + one X
        assert_eq!(summary.instants, 1);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // Non-monotonic timestamps.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"x\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":5.0},\
            {\"name\":\"x\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":1.0}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // E naming something other than the innermost open span.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"outer\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1.0},\
            {\"name\":\"inner\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":2.0},\
            {\"name\":\"outer\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":3.0}]}";
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn validator_counts_snapshot_artifacts_instead_of_rejecting_them() {
        // An E whose B rotated out of the ring: tolerated, counted.
        let orphan = "{\"traceEvents\":[\
            {\"name\":\"x\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":1.0},\
            {\"name\":\"y\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":2.0}]}";
        let summary = validate_chrome_trace(orphan).expect("orphan E is a snapshot artifact");
        assert_eq!(summary.orphan_ends, 1);
        assert_eq!(summary.open_spans, 0);
        // A span still in flight when the snapshot was taken: same.
        let open =
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1.0}]}";
        let summary = validate_chrome_trace(open).expect("open span is a snapshot artifact");
        assert_eq!(summary.open_spans, 1);
        assert_eq!(summary.orphan_ends, 0);
        assert_eq!(summary.spans, 0);
    }

    #[test]
    fn span_tree_renders_nesting_and_durations() {
        let snap = TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 1,
                thread_name: "worker-0".to_string(),
                dropped: 0,
                events: vec![
                    TraceEvent {
                        nanos: 0,
                        corr: 9,
                        arg: 0,
                        name: SpanName::ServeRequest,
                        kind: EventKind::Begin,
                    },
                    TraceEvent {
                        nanos: 100,
                        corr: 9,
                        arg: 0,
                        name: SpanName::ServeEngineCall,
                        kind: EventKind::Begin,
                    },
                    TraceEvent {
                        nanos: 2_000_100,
                        corr: 9,
                        arg: 0,
                        name: SpanName::ServeEngineCall,
                        kind: EventKind::End,
                    },
                    TraceEvent {
                        nanos: 2_500_000,
                        corr: 9,
                        arg: 0,
                        name: SpanName::ServeRequest,
                        kind: EventKind::End,
                    },
                ],
            }],
        };
        let tree = render_span_tree(&snap, 9);
        assert!(tree.contains("serve.request 2.500ms"), "{tree}");
        assert!(tree.contains("    serve.engine_call 2.000ms"), "{tree}");
        assert!(render_span_tree(&snap, 12345).contains("no spans"));
    }

    #[test]
    fn truthy_accepts_the_documented_spellings() {
        for v in ["1", "true", "ON", " yes "] {
            assert!(truthy(v), "{v}");
        }
        for v in ["0", "false", "off", "", "2"] {
            assert!(!truthy(v), "{v}");
        }
    }
}
