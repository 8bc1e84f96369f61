//! The mapping daemon: an epoll event loop, an earliest-deadline-first
//! admission queue, and a worker pool driving the batch [`Engine`].
//!
//! Concurrency model, deliberately simple and fully `std` (the
//! transport substrate lives in `satmapit-net`):
//!
//! * **one event-loop thread** owns every connection: it accepts
//!   non-blocking sockets, frames request lines out of per-connection
//!   read rings, answers control requests (`stats`, `health`, `trace`,
//!   `shutdown`) inline, and copies finished responses into write
//!   rings. Requests on a single connection are answered in order —
//!   pipelined `map` requests resolve out of order internally but
//!   their responses are sequenced per connection; concurrency comes
//!   from multiple connections;
//! * every `map` is decoded in one pass over its bytes
//!   ([`wire::parse_request`]) and **probed against the result cache on
//!   the loop** ([`Engine::lookup_keyed`], the daemon's one probe
//!   site): a hit is answered in place with `queue_us: 0` — a
//!   fingerprint and one map lookup, no worker hand-off. A miss carries
//!   the fingerprint on to its worker and its expired answer;
//! * a miss is **admitted** into a bounded
//!   earliest-deadline-first queue — a full queue answers `queue full`
//!   immediately (backpressure) instead of buffering unboundedly, and
//!   a deadlined request whose remaining budget is provably below the
//!   observed p50 solve latency is **shed** at admission (once
//!   `SHED_MIN_SAMPLES` solves have been observed) rather than queued
//!   to time out;
//! * a fixed pool of worker threads pops the queue in deadline order
//!   and solves through the shared [`Engine`], so cache hits and
//!   in-flight deduplication work across all clients; finished
//!   responses return to the loop through a completion list plus an
//!   eventfd wake — the old daemon's `TcpStream::connect(self)`
//!   shutdown hack is gone;
//! * per-request `timeout_ms` becomes a wall-clock deadline at
//!   admission and is mapped onto the solver's `SolveLimits` through
//!   [`Engine::map_keyed`]; a miss whose deadline is *already
//!   expired* at admission (`timeout_ms: 0`) is answered with a timeout
//!   immediately instead of wasting a queue slot and a worker wakeup (a
//!   hit was already served by the probe, matching the engine, which
//!   checks the cache before the clock);
//! * a request line longer than [`ServerConfig::max_line_bytes`] is
//!   answered with an `error` and the connection is closed — a client
//!   streaming bytes without `\n` can no longer grow server memory
//!   without bound;
//! * `shutdown` stops admissions, drains the queue and in-flight
//!   solves, flushes pending responses, compacts the persistent caches
//!   and returns.
//!
//! ## Panic isolation
//!
//! A panicking solve must cost one request, not the daemon: each worker
//! wraps the per-item solve in `catch_unwind` and turns a panic into a
//! per-request `error` response, and every queue-lock acquisition
//! recovers from poisoning (the queue holds fully-owned items — any
//! interrupted mutation is a single push/pop, so the data is
//! coherent).

use crate::json::Json;
use crate::wire::{self, MapRequest, Request};
use satmapit_engine::{Engine, EngineConfig, Fingerprint, Served};
use satmapit_net::{Event, Interest, LineConn, LineError, Poller, Token, Waker};
use satmapit_obs as obs;
use satmapit_obs::Histogram;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Log target for daemon lifecycle and per-request warnings.
const LOG_TARGET: &str = "satmapit::service";

/// Solved-class samples required before the admission controller
/// trusts its latency estimate enough to shed. Below this, every
/// deadlined request is queued and allowed to try.
const SHED_MIN_SAMPLES: u64 = 8;

/// How long after the queue and in-flight work drain the loop keeps
/// trying to flush response bytes to clients that are not reading,
/// before shutdown proceeds without them.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_secs(5);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads solving admitted requests. `0` means one per
    /// available hardware thread.
    pub workers: usize,
    /// Admission-queue capacity; a full queue rejects with backpressure.
    pub queue_capacity: usize,
    /// The engine configuration every request is solved under (it is part
    /// of the cache key, so a daemon answers consistently for its
    /// lifetime). A solve is sequential and runs on the daemon worker
    /// that dequeued it, so [`ServerConfig::workers`] alone bounds the
    /// solver threads; `engine.workers` only sizes `Engine::map_batch`,
    /// which the daemon never calls.
    pub engine: EngineConfig,
    /// Directory for the persistent result/bound stores; `None` keeps the
    /// caches in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Directory the `trace` request writes Chrome trace-JSON files
    /// into. Setting it turns the flight recorder on for the daemon's
    /// lifetime (tracing is a process-wide observer switch — it never
    /// joins a cache key or changes an answer); `None` leaves tracing
    /// off and span recording at its zero-cost disabled path.
    pub trace_dir: Option<PathBuf>,
    /// Solves slower than this dump their per-II ladder trace through
    /// the structured logger at warn level, so one slow request can be
    /// diagnosed from the daemon's stderr alone. `None` disables.
    pub slow_solve: Option<Duration>,
    /// Upper bound on a single request line in bytes. A connection
    /// that exceeds it (e.g. a newline-free byte firehose) is answered
    /// with an `error` response and closed.
    pub max_line_bytes: usize,
    /// Fault injection for the panic-isolation regression tests: a worker
    /// panics instead of solving when a `map` request's name equals this
    /// value. Production configs leave it `None`; it exists because no
    /// well-formed request should be able to panic the engine, yet the
    /// daemon must survive one that somehow does.
    #[doc(hidden)]
    pub panic_on_name: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            engine: EngineConfig::default(),
            cache_dir: None,
            trace_dir: None,
            slow_solve: None,
            max_line_bytes: 4 * 1024 * 1024,
            panic_on_name: None,
        }
    }
}

/// An admitted `map` request waiting for (or holding) a worker.
struct WorkItem {
    request: MapRequest,
    /// The cache key the loop's probe hashed, so the worker does not
    /// hash the problem again.
    key: Fingerprint,
    deadline: Option<Instant>,
    /// When the request entered the queue — its wait until a worker
    /// pops it is reported as `queue_us`, separately from solve time.
    admitted: Instant,
    /// FIFO sequence, the tiebreak among equal (or absent) deadlines.
    seq: u64,
    /// Which connection the response routes back to.
    token: u64,
    /// Position in that connection's response order.
    slot: u64,
}

// Heap order: `BinaryHeap` pops the *greatest* item, so "greatest"
// means "most urgent" — earliest deadline first, deadlined work ahead
// of undeadlined work, FIFO among ties. Equality mirrors the same key
// so the Ord/Eq contract holds.
impl Ord for WorkItem {
    fn cmp(&self, other: &WorkItem) -> std::cmp::Ordering {
        match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        }
        .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for WorkItem {
    fn partial_cmp(&self, other: &WorkItem) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for WorkItem {
    fn eq(&self, other: &WorkItem) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for WorkItem {}

/// A finished solve travelling from a worker back to the event loop.
struct Completion {
    token: u64,
    slot: u64,
    response: Json,
}

/// Per-outcome solve-latency histograms (microseconds). One mutex per
/// class: recording locks only the class the finished request lands
/// in, for the duration of one bucket increment — far from any solver
/// hot path.
struct Latency {
    /// Answered by the in-memory result cache.
    memory_hit: Mutex<Histogram>,
    /// Answered by an entry loaded from the on-disk store.
    persistent_hit: Mutex<Histogram>,
    /// Solved to a definitive answer (mapped or deterministic failure).
    solved: Mutex<Histogram>,
    /// Solved to a wall-clock timeout (not memoized by the engine).
    timeout: Mutex<Histogram>,
    /// The solve panicked and was answered with an error response.
    error: Mutex<Histogram>,
    /// Admission-to-worker-pop wait, across all queued requests.
    queue_wait: Mutex<Histogram>,
}

impl Latency {
    fn new() -> Latency {
        Latency {
            memory_hit: Mutex::new(Histogram::new()),
            persistent_hit: Mutex::new(Histogram::new()),
            solved: Mutex::new(Histogram::new()),
            timeout: Mutex::new(Histogram::new()),
            error: Mutex::new(Histogram::new()),
            queue_wait: Mutex::new(Histogram::new()),
        }
    }
}

fn record_us(hist: &Mutex<Histogram>, us: u64) {
    hist.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .record(us);
}

fn histogram_json(hist: &Mutex<Histogram>) -> Json {
    snapshot_json(
        &hist
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot(),
    )
}

fn snapshot_json(snap: &obs::Snapshot) -> Json {
    Json::obj(vec![
        ("count", Json::Int(snap.count as i64)),
        ("total_us", Json::Int(snap.sum as i64)),
        ("min_us", Json::Int(snap.min as i64)),
        ("max_us", Json::Int(snap.max as i64)),
        ("p50_us", Json::Int(snap.p50 as i64)),
        ("p90_us", Json::Int(snap.p90 as i64)),
        ("p99_us", Json::Int(snap.p99 as i64)),
    ])
}

/// `<crate version>+g<git hash>`; the hash is resolved by `build.rs`
/// (`unknown` outside a git checkout, in which case it is omitted).
fn version_string() -> String {
    match env!("SATMAPIT_GIT_HASH") {
        "unknown" => env!("CARGO_PKG_VERSION").to_string(),
        hash => format!("{}+g{hash}", env!("CARGO_PKG_VERSION")),
    }
}

struct Inner {
    engine: Engine,
    addr: SocketAddr,
    workers: usize,
    queue_capacity: usize,
    stop: AtomicBool,
    queue: Mutex<BinaryHeap<WorkItem>>,
    queue_cv: Condvar,
    /// Finished solves waiting for the event loop to sequence them into
    /// their connections; paired with an eventfd wake.
    completions: Mutex<Vec<Completion>>,
    started: Instant,
    requests: AtomicU64,
    rejected: AtomicU64,
    /// Deadlined requests refused at admission because the observed
    /// solve latency made their budget provably insufficient.
    shed: AtomicU64,
    /// Per-outcome solve latencies; the legacy `solves` stats block is
    /// derived from the `solved` + `timeout` classes.
    latency: Latency,
    /// Where `trace` requests write their Chrome trace files (`None`
    /// answers with event counts only).
    trace_dir: Option<PathBuf>,
    /// Sequence number for trace file names.
    trace_seq: AtomicU64,
    /// Slow-solve threshold (see [`ServerConfig::slow_solve`]).
    slow_solve: Option<Duration>,
    /// Solves that panicked and were answered with an `error` response
    /// instead of taking the daemon down.
    panics: AtomicU64,
    /// `map` requests whose deadline had already expired at admission
    /// (`timeout_ms: 0`), whether the cache answered them or a timeout
    /// did.
    expired_at_admission: AtomicU64,
    /// Request-line cap (see [`ServerConfig::max_line_bytes`]).
    max_line_bytes: usize,
    /// Test-only fault injection (see [`ServerConfig::panic_on_name`]).
    panic_on_name: Option<String>,
}

/// Locks the admission queue, recovering from poisoning: the queue holds
/// fully-owned items and every mutation is a single push/pop, so a
/// panicking holder cannot leave it incoherent — and refusing to recover
/// turned one panic into a daemon-wide abort in an earlier life of this
/// daemon.
fn lock_queue<'a>(inner: &'a Inner) -> MutexGuard<'a, BinaryHeap<WorkItem>> {
    inner.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A bound, not-yet-running mapping daemon.
pub struct Server {
    listener: TcpListener,
    inner: Inner,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7421`, port `0` for ephemeral) and
    /// opens the engine — loading persistent caches when
    /// [`ServerConfig::cache_dir`] is set. Load warnings are printed to
    /// stderr; they indicate skipped corrupt records, not fatal state.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the cache directory is
    /// unusable.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        };
        let engine = match &config.cache_dir {
            Some(dir) => Engine::with_cache_dir(config.engine.clone(), dir)?,
            None => Engine::new(config.engine.clone()),
        };
        for warning in engine.load_warnings() {
            obs::warn!(LOG_TARGET, "{warning}");
        }
        if let Some(dir) = &config.trace_dir {
            std::fs::create_dir_all(dir)?;
            obs::trace::set_enabled(true);
            obs::info!(
                LOG_TARGET,
                "flight recorder on, traces in {}",
                dir.display()
            );
        }
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            inner: Inner {
                engine,
                addr,
                workers,
                queue_capacity: config.queue_capacity.max(1),
                stop: AtomicBool::new(false),
                queue: Mutex::new(BinaryHeap::new()),
                queue_cv: Condvar::new(),
                completions: Mutex::new(Vec::new()),
                started: Instant::now(),
                requests: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                latency: Latency::new(),
                trace_dir: config.trace_dir,
                trace_seq: AtomicU64::new(0),
                slow_solve: config.slow_solve,
                panics: AtomicU64::new(0),
                expired_at_admission: AtomicU64::new(0),
                max_line_bytes: config.max_line_bytes.max(1),
                panic_on_name: config.panic_on_name,
            },
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The engine serving this daemon (e.g. for cache statistics).
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// Serves until a `shutdown` request arrives: accepts connections,
    /// admits work, answers. On return the queue is drained and the
    /// persistent caches are compacted.
    ///
    /// # Errors
    ///
    /// Propagates event-loop I/O failures and the final compaction
    /// error, if any.
    pub fn run(self) -> io::Result<()> {
        let inner = &self.inner;
        let waker = Waker::new()?;
        std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..inner.workers {
                let worker_waker = waker.clone();
                scope.spawn(move || worker_loop(inner, &worker_waker));
            }
            let result = event_loop(inner, &self.listener, &waker);
            // Whatever ended the loop — a shutdown request or an epoll
            // failure — the workers must still be released, or the
            // scope join blocks forever.
            // ordering: one-shot stop latch; workers poll it Relaxed
            // inside a 50ms wait_timeout loop, so SeqCst here is about
            // making the edge obvious, not about performance.
            inner.stop.store(true, Ordering::SeqCst);
            inner.queue_cv.notify_all();
            result
        })?;
        // A final flight-recorder dump so spans recorded since the last
        // explicit `trace` drain survive the shutdown.
        if self.inner.trace_dir.is_some() {
            let events = obs::trace::drain();
            if !events.is_empty() {
                if let Err(e) = write_trace_file(&self.inner, &events) {
                    obs::warn!(LOG_TARGET, "failed to write shutdown trace: {e}");
                }
            }
        }
        self.inner.engine.compact_persistent()
    }
}

/// Token of the listening socket in the poller.
const LISTENER: Token = Token(0);
/// Token of the eventfd waker in the poller.
const WAKER: Token = Token(1);
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;

/// One client connection owned by the event loop.
struct Conn {
    lc: LineConn,
    /// `(slot, response)` in request order; a `None` response is an
    /// in-flight solve. Responses are written out strictly from the
    /// front, so pipelined requests answer in the order they arrived
    /// no matter which worker finishes first.
    slots: VecDeque<(u64, Option<Json>)>,
    next_slot: u64,
    /// No more requests are read; the connection closes once its
    /// pending responses have flushed.
    closing: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(lc: LineConn) -> Conn {
        Conn {
            lc,
            slots: VecDeque::new(),
            next_slot: 0,
            closing: false,
            interest: Interest::READ,
        }
    }

    /// Reserves the next response position; `response` is `None` for
    /// requests that resolve later (admitted solves).
    fn push_slot(&mut self, response: Option<Json>) -> u64 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.slots.push_back((slot, response));
        slot
    }

    /// Fills a previously reserved slot.
    fn resolve(&mut self, slot: u64, response: Json) {
        if let Some(entry) = self.slots.iter_mut().find(|(s, _)| *s == slot) {
            entry.1 = Some(response);
        }
    }

    /// Moves every leading ready response into the write ring.
    fn stage_ready(&mut self) {
        while matches!(self.slots.front(), Some((_, Some(_)))) {
            let (_, response) = self.slots.pop_front().expect("front checked");
            let mut line = response.expect("ready checked").to_string();
            line.push('\n');
            self.lc.queue(line.as_bytes());
        }
    }

    /// True when nothing is owed to this client anymore.
    fn drained(&self) -> bool {
        self.slots.is_empty() && !self.lc.wants_write()
    }
}

/// What the event loop decided to do with a connection after an event.
enum ConnFate {
    Keep,
    Drop,
}

/// The event loop: accepts, reads, admits, sequences and writes until
/// a `shutdown` request has been served and all owed work is done.
fn event_loop(inner: &Inner, listener: &TcpListener, waker: &Waker) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    poller.add(listener, LISTENER, Interest::READ)?;
    poller.add(waker.as_fd(), WAKER, Interest::READ)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut in_flight: usize = 0;
    let mut next_seq: u64 = 0;
    let mut events: Vec<Event> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        events.clear();
        // The timeout is a watchdog, not a schedule: every state change
        // arrives through the poller (sockets) or the waker
        // (completions), so a quiet daemon sleeps here.
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;

        for event in &events {
            match event.token {
                LISTENER => accept_ready(inner, listener, &poller, &mut conns, &mut next_token)?,
                WAKER => waker.drain(),
                Token(token) => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let fate = if event.readable || event.hangup {
                        conn_readable(inner, conn, token, &mut in_flight, &mut next_seq)
                    } else {
                        ConnFate::Keep
                    };
                    if matches!(fate, ConnFate::Drop) {
                        let conn = conns.remove(&token).expect("present above");
                        let _ = poller.delete(conn.lc.stream());
                    }
                }
            }
        }

        // Route finished solves into their connections.
        let done = std::mem::take(
            &mut *inner
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for completion in done {
            in_flight -= 1;
            if let Some(conn) = conns.get_mut(&completion.token) {
                conn.resolve(completion.slot, completion.response);
            }
            // A vanished connection means the client hung up while its
            // solve ran; the answer is dropped, exactly as the old
            // daemon dropped sends to a dead reply channel.
        }

        // Stage + flush + interest upkeep, dropping finished conns.
        let stopping = shutting_down(inner);
        let mut dead: Vec<u64> = Vec::new();
        for (&token, conn) in &mut conns {
            if stopping {
                conn.closing = true;
            }
            conn.stage_ready();
            if conn.lc.wants_write() && conn.flush_or_fail().is_err() {
                dead.push(token);
                continue;
            }
            if (conn.closing || conn.lc.saw_eof()) && conn.drained() {
                dead.push(token);
                continue;
            }
            let wanted = if conn.lc.wants_write() {
                Interest::BOTH
            } else {
                Interest::READ
            };
            if wanted != conn.interest {
                conn.interest = wanted;
                if poller
                    .modify(conn.lc.stream(), Token(token), wanted)
                    .is_err()
                {
                    dead.push(token);
                }
            }
        }
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                let _ = poller.delete(conn.lc.stream());
            }
        }

        if stopping {
            let queue_empty = lock_queue(inner).is_empty();
            if queue_empty && in_flight == 0 {
                let owed: usize = conns.values().map(|c| c.lc.pending_out()).sum();
                if owed == 0 {
                    return Ok(());
                }
                // Give unread responses a bounded chance to flush to
                // slow readers, then leave without them.
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_FLUSH_GRACE);
                if Instant::now() >= deadline {
                    return Ok(());
                }
            }
        }
    }
}

/// Reads the one-shot stop latch.
fn shutting_down(inner: &Inner) -> bool {
    // ordering: the latch is set on this same thread (shutdown request)
    // or not at all; Relaxed self-visibility is guaranteed.
    inner.stop.load(Ordering::Relaxed)
}

/// Accepts every pending connection (level-triggered, so the backlog
/// drains in one pass).
fn accept_ready(
    inner: &Inner,
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) -> io::Result<()> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutting_down(inner) {
                    // Late knockers during drain are turned away.
                    continue;
                }
                let Ok(lc) = LineConn::new(stream, inner.max_line_bytes) else {
                    continue;
                };
                let token = *next_token;
                *next_token += 1;
                if poller
                    .add(lc.stream(), Token(token), Interest::READ)
                    .is_ok()
                {
                    conns.insert(token, Conn::new(lc));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Handles a readable (or hung-up) connection: drains the socket,
/// frames lines, dispatches each request.
fn conn_readable(
    inner: &Inner,
    conn: &mut Conn,
    token: u64,
    in_flight: &mut usize,
    next_seq: &mut u64,
) -> ConnFate {
    let mut lines: Vec<Vec<u8>> = Vec::new();
    let read = conn.lc.read_lines(&mut lines);
    if conn.closing {
        // Drained purely to consume readiness; a draining connection
        // takes no further requests.
        return ConnFate::Keep;
    }
    for line in &lines {
        dispatch_line(inner, conn, token, line, in_flight, next_seq);
        if conn.closing {
            break;
        }
    }
    match read {
        Ok(_eof) => ConnFate::Keep,
        Err(LineError::TooLong { limit }) => {
            // The DoS cap: answer once, stop reading, close after the
            // flush.
            conn.push_slot(Some(wire::error_response(
                None,
                &format!("request line exceeds {limit} bytes"),
            )));
            conn.closing = true;
            ConnFate::Keep
        }
        Err(LineError::Io(_)) => ConnFate::Drop,
    }
}

/// Parses and answers one request line. Control requests resolve
/// immediately; admitted `map` requests reserve a response slot that a
/// worker completion fills later.
fn dispatch_line(
    inner: &Inner,
    conn: &mut Conn,
    token: u64,
    line: &[u8],
    in_flight: &mut usize,
    next_seq: &mut u64,
) {
    let Ok(text) = std::str::from_utf8(line) else {
        conn.push_slot(Some(wire::error_response(None, "invalid UTF-8")));
        return;
    };
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return;
    }
    // ordering: monotone telemetry counter.
    inner.requests.fetch_add(1, Ordering::Relaxed);
    match wire::parse_request(trimmed) {
        Err(e) => {
            conn.push_slot(Some(wire::error_response(None, &e.to_string())));
        }
        Ok(Request::Stats) => {
            let response = stats_response(inner);
            conn.push_slot(Some(response));
        }
        Ok(Request::Health) => {
            let response = health_response(inner);
            conn.push_slot(Some(response));
        }
        Ok(Request::Trace) => {
            let response = trace_response(inner);
            conn.push_slot(Some(response));
        }
        Ok(Request::Shutdown) => {
            // ordering: one-shot stop latch. The event loop (this
            // thread) acts on it synchronously; workers poll it
            // Relaxed under a 50ms wait_timeout, so visibility latency
            // is bounded by the poll. SeqCst keeps the shutdown edge
            // unambiguous — it is cold by definition.
            inner.stop.store(true, Ordering::SeqCst);
            inner.queue_cv.notify_all();
            let ack = Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("status", Json::Str("shutting_down".to_string())),
            ]);
            conn.push_slot(Some(ack));
            conn.closing = true;
        }
        Ok(Request::Map(request)) => {
            match admit_map(inner, *request, token, conn.next_slot, next_seq) {
                Admission::Immediate(response) => {
                    conn.push_slot(Some(response));
                }
                Admission::Queued => {
                    conn.push_slot(None);
                    *in_flight += 1;
                }
            }
        }
    }
}

/// Outcome of admitting a `map` request.
enum Admission {
    /// Answered on the spot (cache hit, expired deadline, shed, or queue
    /// full).
    Immediate(Json),
    /// In the queue; a worker completion will fill the slot.
    Queued,
}

/// Admission control for `map`: a cached answer is served on the loop,
/// expired deadlines answer immediately, provably-hopeless deadlines are
/// shed, a full queue rejects, and everything else enters the EDF queue.
fn admit_map(
    inner: &Inner,
    request: MapRequest,
    token: u64,
    slot: u64,
    next_seq: &mut u64,
) -> Admission {
    let admitted = Instant::now();
    let deadline = request
        .timeout_ms
        .map(|ms| admitted + Duration::from_millis(ms));
    // A deadline already expired at admission (`timeout_ms: 0`, or a
    // degenerate clock) is counted whether or not the cache answers it.
    let expired = deadline.is_some_and(|d| admitted >= d);
    if expired {
        // ordering: monotone telemetry counter.
        inner.expired_at_admission.fetch_add(1, Ordering::Relaxed);
    }
    // The daemon's one cache probe. A hit costs a fingerprint and one map
    // lookup, so it is answered right here, never queued: no worker
    // wakeup, no completion hand-off, and never shed or timed out ("answer
    // only if you have it already" is exactly what a zero budget asks).
    let key = match serve_cached(inner, &request) {
        Ok(response) => return Admission::Immediate(response),
        Err(key) => key,
    };
    // A miss with an expired deadline can only ever produce a timeout:
    // answering it here saves the queue slot, the worker wakeup, and the
    // client's wait behind real work.
    if expired {
        return Admission::Immediate(expired_response(&request, key));
    }
    let id = request.id;
    // EDF shedding: once the solved-latency histogram has enough
    // samples to be trusted, a cold request whose remaining budget is
    // below the observed median solve time is refused now instead of
    // queued to fail later — the queue slot goes to a request that can
    // still make its deadline.
    if let (Some(d), Some(estimate_us)) = (deadline, shed_estimate_us(inner)) {
        let remaining_us = d
            .saturating_duration_since(Instant::now())
            .as_micros()
            .min(u128::from(u64::MAX)) as u64;
        if remaining_us < estimate_us {
            // ordering: monotone telemetry counter.
            inner.shed.fetch_add(1, Ordering::Relaxed);
            return Admission::Immediate(wire::error_response(
                id,
                &format!(
                    "shed: remaining budget {remaining_us}us is below the estimated solve time \
                     {estimate_us}us; retry with a larger timeout_ms"
                ),
            ));
        }
    }
    let mut queue = lock_queue(inner);
    if queue.len() >= inner.queue_capacity {
        drop(queue);
        // ordering: monotone telemetry counter.
        inner.rejected.fetch_add(1, Ordering::Relaxed);
        return Admission::Immediate(wire::error_response(
            id,
            &format!("queue full ({} pending); retry later", inner.queue_capacity),
        ));
    }
    let seq = *next_seq;
    *next_seq += 1;
    queue.push(WorkItem {
        request,
        key,
        deadline,
        admitted: Instant::now(),
        seq,
        token,
        slot,
    });
    drop(queue);
    inner.queue_cv.notify_one();
    Admission::Queued
}

/// Answers `request` from the result cache on the event loop. A hit
/// reports `queue_us: 0` and records its latency class and `request` span
/// exactly as a worker-served answer does; a miss hands back the key it
/// was looked up under, for the worker and the expired answer to reuse.
fn serve_cached(inner: &Inner, request: &MapRequest) -> Result<Json, Fingerprint> {
    let traced_from = obs::trace::enabled().then(obs::trace::now_us);
    let t0 = Instant::now();
    let key = inner.engine.key(&request.dfg, &request.cgra);
    let served = inner.engine.lookup_keyed(key).ok_or(key)?;
    let elapsed_us = t0.elapsed().as_micros() as u64;
    let (class, hist) = latency_class(&inner.latency, &served);
    record_us(hist, elapsed_us);
    let response = wire::map_response(
        request.id,
        &request.name,
        served.key,
        &served.outcome,
        served.cached,
        served.persistent,
        elapsed_us,
        0,
    );
    if let Some(ts_us) = traced_from {
        obs::trace::complete(
            obs::trace::Category::Request,
            &format!("request {}", request.name),
            ts_us,
            obs::trace::now_us().saturating_sub(ts_us),
            vec![
                ("queue_us", obs::trace::ArgValue::Int(0)),
                ("class", obs::trace::ArgValue::Str(class.to_string())),
            ],
        );
    }
    Ok(response)
}

/// The latency class an engine answer lands in, and its histogram.
fn latency_class<'a>(
    latency: &'a Latency,
    served: &Served,
) -> (&'static str, &'a Mutex<Histogram>) {
    let timed_out = matches!(
        served.outcome.outcome.result,
        Err(satmapit_core::MapFailure::Timeout { .. })
    );
    if served.persistent {
        ("persistent_hit", &latency.persistent_hit)
    } else if served.cached {
        ("memory_hit", &latency.memory_hit)
    } else if timed_out {
        ("timeout", &latency.timeout)
    } else {
        ("solved", &latency.solved)
    }
}

/// The admission controller's solve-time estimate: the median of the
/// `solved` class once it has [`SHED_MIN_SAMPLES`] samples, else
/// `None` (no shedding).
fn shed_estimate_us(inner: &Inner) -> Option<u64> {
    let solved = inner
        .latency
        .solved
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if solved.count() < SHED_MIN_SAMPLES {
        return None;
    }
    Some(solved.percentile(0.5))
}

impl Conn {
    /// Flushes the write ring, normalizing errors to a drop decision.
    fn flush_or_fail(&mut self) -> Result<(), ()> {
        match self.lc.flush() {
            Ok(()) => Ok(()),
            Err(_) => Err(()),
        }
    }
}

/// Writes `events` as Chrome trace JSON into the daemon's trace
/// directory, returning the path.
fn write_trace_file(inner: &Inner, events: &[obs::Event]) -> io::Result<PathBuf> {
    let dir = inner
        .trace_dir
        .as_ref()
        .expect("write_trace_file requires a trace dir");
    // ordering: unique-id ticket for trace filenames.
    let seq = inner.trace_seq.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("trace-{seq:04}.json"));
    std::fs::write(&path, obs::trace::export_chrome(events))?;
    Ok(path)
}

fn worker_loop(inner: &Inner, waker: &Waker) {
    loop {
        let item = {
            let mut queue = lock_queue(inner);
            loop {
                if let Some(item) = queue.pop() {
                    break item;
                }
                // ordering: polled inside a 50ms wait_timeout loop; a
                // stale read delays drain-and-exit by one poll, and the
                // queue itself is handed off through the mutex. Relaxed
                // is sufficient (downgraded from SeqCst in the audit).
                if inner.stop.load(Ordering::Relaxed) {
                    return; // stop + empty queue: drained
                }
                // The timeout guards against a missed notification racing
                // the stop flag.
                queue = inner
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        // Queue wait ends here; solve time starts here. Reporting the
        // two separately (`queue_us` vs `elapsed_us`) keeps a loaded
        // daemon's solve latencies honest — before the split, a fast
        // solve behind a deep queue was indistinguishable from a slow
        // solve.
        let queue_us = item.admitted.elapsed().as_micros() as u64;
        record_us(&inner.latency.queue_wait, queue_us);
        let mut span = obs::trace::enabled().then(|| {
            obs::trace::Span::begin(
                obs::trace::Category::Request,
                &format!("request {}", item.request.name),
            )
        });
        let t0 = Instant::now();
        // Panic isolation: a solve that unwinds costs this request an
        // `error` response, never the daemon. `AssertUnwindSafe` is
        // justified because nothing from the broken call is reused — the
        // engine recovers its own locks (its in-flight guard runs on
        // unwind), and this worker immediately returns to the queue.
        let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inner
                .panic_on_name
                .as_deref()
                .is_some_and(|name| name == item.request.name)
            {
                panic!("fault injection: request `{}`", item.request.name);
            }
            inner.engine.map_keyed(
                item.key,
                &item.request.dfg,
                &item.request.cgra,
                item.deadline,
            )
        }));
        let elapsed = t0.elapsed();
        let elapsed_us = elapsed.as_micros() as u64;
        let response = match solved {
            Ok(served) => {
                let (class, hist) = latency_class(&inner.latency, &served);
                record_us(hist, elapsed_us);
                if let Some(span) = &mut span {
                    span.arg("queue_us", queue_us as i64);
                    span.arg_str("class", class);
                }
                if inner.slow_solve.is_some_and(|limit| elapsed >= limit) && !served.cached {
                    slow_solve_report(&item.request.name, elapsed, queue_us, &served.outcome);
                }
                wire::map_response(
                    item.request.id,
                    &item.request.name,
                    served.key,
                    &served.outcome,
                    served.cached,
                    served.persistent,
                    elapsed_us,
                    queue_us,
                )
            }
            Err(panic) => {
                // ordering: monotone telemetry counter.
                inner.panics.fetch_add(1, Ordering::Relaxed);
                record_us(&inner.latency.error, elapsed_us);
                if let Some(span) = &mut span {
                    span.arg("queue_us", queue_us as i64);
                    span.arg_str("class", "error");
                }
                let what = panic_message(panic.as_ref());
                obs::warn!(
                    LOG_TARGET,
                    "solve for `{}` panicked ({what}); answered with an error",
                    item.request.name
                );
                wire::error_response(
                    item.request.id,
                    &format!("internal error: solve panicked ({what})"),
                )
            }
        };
        drop(span);
        inner
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion {
                token: item.token,
                slot: item.slot,
                response,
            });
        // A failed wake leaves the loop to its 100ms watchdog tick.
        let _ = waker.wake();
    }
}

/// Dumps a slow request's per-II ladder trace through the logger: one
/// warn line summarising the request, then the attempts that made it
/// slow, newest-first context a human can act on without a trace file.
fn slow_solve_report(
    name: &str,
    elapsed: Duration,
    queue_us: u64,
    outcome: &satmapit_engine::EngineOutcome,
) {
    let attempts = &outcome.outcome.attempts;
    let ladder: Vec<String> = attempts
        .iter()
        .map(|a| {
            format!(
                "ii={} {} {}us",
                a.ii,
                wire::attempt_outcome_name(&a.outcome),
                a.elapsed.as_micros()
            )
        })
        .collect();
    obs::warn!(
        LOG_TARGET,
        "slow solve `{name}`: {}us solving (+{queue_us}us queued), {} rungs [{}]",
        elapsed.as_micros(),
        attempts.len(),
        ladder.join(", ")
    );
}

/// Best-effort text of a caught panic payload (panics carry `&str` or
/// `String` in practice; anything else is reported generically).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

fn stats_response(inner: &Inner) -> Json {
    let queue_depth = lock_queue(inner).len();
    // The legacy `solves` block covers everything a worker actually
    // solved (definitive answers and timeouts; panics excluded, as
    // before the histograms) — derived by merging the two classes so
    // its totals stay exact.
    let solves = {
        let mut merged = inner
            .latency
            .solved
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        merged.merge(
            &inner
                .latency
                .timeout
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        merged
    };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("version", Json::Str(version_string())),
        (
            "cache",
            wire::cache_stats_to_json(&inner.engine.cache_stats()),
        ),
        ("queue_depth", Json::Int(queue_depth as i64)),
        ("queue_capacity", Json::Int(inner.queue_capacity as i64)),
        ("workers", Json::Int(inner.workers as i64)),
        (
            "requests",
            // ordering: this and the loads below read independent
            // monotone telemetry counters; the stats snapshot is
            // advisory and needs no cross-counter consistency.
            Json::Int(inner.requests.load(Ordering::Relaxed) as i64),
        ),
        (
            "rejected",
            Json::Int(inner.rejected.load(Ordering::Relaxed) as i64),
        ),
        ("shed", Json::Int(inner.shed.load(Ordering::Relaxed) as i64)),
        (
            "panics",
            Json::Int(inner.panics.load(Ordering::Relaxed) as i64),
        ),
        (
            "expired_at_admission",
            Json::Int(inner.expired_at_admission.load(Ordering::Relaxed) as i64),
        ),
        (
            "solves",
            Json::obj(vec![
                ("count", Json::Int(solves.count() as i64)),
                ("total_us", Json::Int(solves.sum() as i64)),
                ("mean_us", Json::Int(solves.mean() as i64)),
                ("max_us", Json::Int(solves.max().unwrap_or(0) as i64)),
            ]),
        ),
        (
            "latency",
            Json::obj(vec![
                ("memory_hit", histogram_json(&inner.latency.memory_hit)),
                (
                    "persistent_hit",
                    histogram_json(&inner.latency.persistent_hit),
                ),
                ("solved", histogram_json(&inner.latency.solved)),
                ("timeout", histogram_json(&inner.latency.timeout)),
                ("error", histogram_json(&inner.latency.error)),
                ("queue_wait", histogram_json(&inner.latency.queue_wait)),
            ]),
        ),
        (
            "trace",
            Json::obj(vec![
                ("enabled", Json::Bool(obs::trace::enabled())),
                ("dropped", Json::Int(obs::trace::dropped() as i64)),
            ]),
        ),
        (
            "uptime_us",
            Json::Int(inner.started.elapsed().as_micros() as i64),
        ),
    ])
}

/// Drains the flight recorder. With a trace directory the events land
/// in a fresh Chrome trace file (the response carries its path); either
/// way the response reports how many events were collected and how many
/// the bounded rings dropped since startup.
fn trace_response(inner: &Inner) -> Json {
    if !obs::trace::enabled() {
        return wire::error_response(
            None,
            "tracing is disabled; start the daemon with --trace-dir",
        );
    }
    let events = obs::trace::drain();
    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("events", Json::Int(events.len() as i64)),
        ("dropped", Json::Int(obs::trace::dropped() as i64)),
    ];
    if inner.trace_dir.is_some() {
        match write_trace_file(inner, &events) {
            Ok(path) => pairs.push(("path", Json::Str(path.display().to_string()))),
            Err(e) => {
                return wire::error_response(None, &format!("failed to write trace file: {e}"))
            }
        }
    }
    Json::obj(pairs)
}

fn health_response(inner: &Inner) -> Json {
    let queue_depth = lock_queue(inner).len();
    // Degraded is not unhealthy: the daemon still answers every request
    // from memory, so `ok` stays true — but operators monitoring
    // `status` learn that nothing is reaching the disk anymore.
    let status = if inner.engine.degraded() {
        "degraded"
    } else {
        "healthy"
    };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("status", Json::Str(status.to_string())),
        ("version", Json::Str(version_string())),
        ("queue_depth", Json::Int(queue_depth as i64)),
        (
            "persistent_cache",
            Json::Bool(inner.engine.cache_dir().is_some()),
        ),
        (
            "uptime_us",
            Json::Int(inner.started.elapsed().as_micros() as i64),
        ),
    ])
}

/// The response for a request whose deadline was already expired when it
/// arrived: the same shape an engine-produced timeout takes (`ok: true`,
/// `result.status = "failed"`, `kind = "timeout"`), with `at_ii = 0`
/// marking that no II was ever attempted. Timeouts are never cached, so
/// skipping the engine changes nothing an observer could distinguish —
/// except the latency. `key` is the one the cache probe missed under.
fn expired_response(request: &MapRequest, key: Fingerprint) -> Json {
    let outcome = satmapit_engine::EngineOutcome {
        outcome: satmapit_core::MapOutcome {
            result: Err(satmapit_core::MapFailure::Timeout { at_ii: 0 }),
            attempts: Vec::new(),
            elapsed: Duration::ZERO,
        },
        stats: satmapit_engine::RaceStats::default(),
        proven_unmappable: false,
    };
    wire::map_response(request.id, &request.name, key, &outcome, false, false, 0, 0)
}
