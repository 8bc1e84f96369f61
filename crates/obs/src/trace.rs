//! Flight-recorder span tracing with a Chrome `trace_event` exporter.
//!
//! ## Model
//!
//! A [`Span`] is a named, categorised interval measured against one
//! process-wide monotonic epoch. Each thread records completed spans
//! into its own **bounded ring buffer** (capacity [`RING_CAPACITY`];
//! when full, the oldest span is dropped — a flight recorder keeps the
//! newest history, it never blocks the flight). Recording touches only
//! the recording thread's ring, guarded by a mutex that is uncontended
//! except while [`drain`] briefly collects it — no solver hot-path lock
//! is ever taken, and nothing is shared between recording threads.
//!
//! Every span carries a **track** (the `tid` of the exported trace):
//! each recording thread gets a unique one, so concurrent solves render
//! as parallel timeline rows in Perfetto.
//!
//! ## Cost when disabled
//!
//! Tracing is off until [`set_enabled`]`(true)`. While off,
//! [`Span::begin`] is one relaxed atomic load returning an inert guard:
//! no allocation, no ring, no timestamps. Enabling tracing is a
//! process-local observer switch — it must never join a result
//! fingerprint or change an answer.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Per-thread ring capacity, in spans. The newest spans win.
pub const RING_CAPACITY: usize = 16_384;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Track ids handed out so far; 0 is never used (it is the "not yet
/// assigned" sentinel in the thread-local).
static NEXT_TRACK: AtomicU64 = AtomicU64::new(1);
/// Spans lost to ring overflow, across all threads, since process start.
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Every thread's ring, so [`drain`] can collect spans recorded by
/// threads that have since exited (the `Arc` keeps the ring alive).
static REGISTRY: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
    static LOCAL_TRACK: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (monotonic).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Is tracing on? One relaxed atomic load — this is the whole cost of a
/// disabled [`Span::begin`].
pub fn enabled() -> bool {
    // ordering: on/off latch checked per span; events themselves ride
    // on mutex-guarded rings, so no data is published through this.
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off, process-wide. Enabling pins the monotonic
/// epoch so all later timestamps are comparable.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    // ordering: same advisory latch as in `enabled`.
    ENABLED.store(on, Ordering::Relaxed);
}

/// Spans lost to ring overflow since process start.
pub fn dropped() -> u64 {
    // ordering: monotone telemetry counter.
    DROPPED.load(Ordering::Relaxed)
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Span categories — one per subsystem the trace timeline renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// A whole II-ladder search (mapper run).
    Ladder,
    /// One rung: a single-II solve attempt, with `SolverStats` deltas.
    Rung,
    /// Clause-arena garbage collection observed during a rung.
    Gc,
    /// Cache probes and persistent-store appends in the batch engine.
    Persist,
    /// One daemon request, queue wait included.
    Request,
}

impl Category {
    /// The `cat` string used in the exported trace.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Ladder => "ladder",
            Category::Rung => "rung",
            Category::Gc => "gc",
            Category::Persist => "persist",
            Category::Request => "request",
        }
    }
}

/// A span argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An integer argument (counters, deltas, ids).
    Int(i64),
    /// A string argument (outcomes, names).
    Str(String),
}

/// One completed span, as collected by [`drain`].
#[derive(Debug, Clone)]
pub struct Event {
    /// Display name (e.g. `rung ii=3`).
    pub name: String,
    /// Subsystem category.
    pub cat: Category,
    /// Timeline track (exported as `tid`).
    pub track: u64,
    /// Start, microseconds since the trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instant events).
    pub dur_us: u64,
    /// Key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

struct Ring {
    events: VecDeque<Event>,
}

impl Ring {
    fn push(&mut self, event: Event) {
        if self.events.len() >= RING_CAPACITY {
            self.events.pop_front();
            // ordering: monotone telemetry counter.
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        self.events.push_back(event);
    }
}

fn record(event: Event) {
    LOCAL_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(Ring {
                events: VecDeque::new(),
            }));
            lock(&REGISTRY).push(Arc::clone(&ring));
            ring
        });
        lock(ring).push(event);
    });
}

/// The current thread's track id, assigning a fresh unique one on first
/// use.
pub fn current_track() -> u64 {
    LOCAL_TRACK.with(|track| {
        let id = track.get();
        if id != 0 {
            id
        } else {
            // ordering: unique-id ticket; only atomicity matters.
            let id = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            track.set(id);
            id
        }
    })
}

struct SpanInner {
    name: String,
    cat: Category,
    start_us: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// An in-flight span: begun now, recorded into the thread's ring when
/// dropped. Inert (no allocation, nothing recorded) when tracing was
/// disabled at [`Span::begin`].
pub struct Span(Option<SpanInner>);

impl Span {
    /// Starts a span; a single atomic load and an inert guard when
    /// tracing is off.
    pub fn begin(cat: Category, name: &str) -> Span {
        if !enabled() {
            return Span(None);
        }
        Span(Some(SpanInner {
            name: name.to_string(),
            cat,
            start_us: now_us(),
            args: Vec::new(),
        }))
    }

    /// Whether this span will record anything — lets callers skip
    /// argument computation entirely when tracing is off.
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Attaches an integer argument.
    pub fn arg(&mut self, key: &'static str, value: i64) {
        if let Some(inner) = &mut self.0 {
            inner.args.push((key, ArgValue::Int(value)));
        }
    }

    /// Attaches a string argument.
    pub fn arg_str(&mut self, key: &'static str, value: &str) {
        if let Some(inner) = &mut self.0 {
            inner.args.push((key, ArgValue::Str(value.to_string())));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let end = now_us();
            record(Event {
                name: inner.name,
                cat: inner.cat,
                track: current_track(),
                ts_us: inner.start_us,
                dur_us: end.saturating_sub(inner.start_us),
                args: inner.args,
            });
        }
    }
}

/// Records an already-measured interval retroactively, on the current
/// track: `ts_us`/`dur_us` come from the caller's own clock (use
/// [`now_us`] so timestamps share the trace epoch). For code that
/// already times its work — e.g. a ladder rung whose elapsed time is
/// part of its attempt record — this avoids double bookkeeping. A no-op
/// while tracing is disabled; guard argument construction with
/// [`enabled`].
pub fn complete(
    cat: Category,
    name: &str,
    ts_us: u64,
    dur_us: u64,
    args: Vec<(&'static str, ArgValue)>,
) {
    if !enabled() {
        return;
    }
    record(Event {
        name: name.to_string(),
        cat,
        track: current_track(),
        ts_us,
        dur_us,
        args,
    });
}

/// Collects and clears every thread's ring (exited threads included),
/// returning the spans sorted by start time. Rings whose thread has
/// exited are unregistered once emptied.
pub fn drain() -> Vec<Event> {
    let mut out = Vec::new();
    let mut registry = lock(&REGISTRY);
    registry.retain(|ring| {
        out.extend(lock(ring).events.drain(..));
        // One strong reference means only the registry holds it: the
        // owning thread is gone and the ring is now empty.
        Arc::strong_count(ring) > 1
    });
    drop(registry);
    out.sort_by_key(|e| (e.ts_us, e.track));
    out
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders spans as Chrome `trace_event` JSON (the object form, with a
/// `traceEvents` array of complete `"ph":"X"` events plus
/// `thread_name` metadata per track) — loadable as-is in Perfetto or
/// `chrome://tracing`, and strict enough to round-trip through
/// `satmapit_service::json`.
pub fn export_chrome(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let emit = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
    };

    emit(&mut out, &mut first);
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"satmapit\"}}",
    );

    let mut tracks: Vec<u64> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in tracks {
        emit(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_name\",\"args\":{{\"name\":\"track {track}\"}}}}"
        ));
    }

    for event in events {
        emit(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"cat\":\"{}\",\"name\":\"",
            event.track,
            event.ts_us,
            event.dur_us,
            event.cat.as_str()
        ));
        escape_json(&event.name, &mut out);
        out.push_str("\",\"args\":{");
        for (i, (key, value)) in event.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(key, &mut out);
            out.push_str("\":");
            match value {
                ArgValue::Int(v) => out.push_str(&v.to_string()),
                ArgValue::Str(v) => {
                    out.push('"');
                    escape_json(v, &mut out);
                    out.push('"');
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global; tests that toggle it serialize
    // here so `cargo test`'s parallel runner cannot interleave them.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        lock(&GATE)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _gate = serial();
        set_enabled(false);
        drain();
        {
            let mut span = Span::begin(Category::Rung, "rung ii=2");
            assert!(!span.active());
            span.arg("conflicts", 42);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_survive_thread_exit_and_export() {
        let _gate = serial();
        set_enabled(true);
        drain();
        std::thread::spawn(|| {
            let mut span = Span::begin(Category::Rung, "attempt ii=3 v=1");
            span.arg("ii", 3);
            span.arg_str("outcome", "mapped \"quoted\"");
        })
        .join()
        .unwrap();
        let events = drain();
        set_enabled(false);
        let ours: Vec<_> = events
            .iter()
            .filter(|e| e.name == "attempt ii=3 v=1")
            .collect();
        assert_eq!(ours.len(), 1);
        assert_eq!(ours[0].cat, Category::Rung);
        let json = export_chrome(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\\\"quoted\\\""));
    }

    #[test]
    fn ring_keeps_the_newest_spans() {
        let _gate = serial();
        set_enabled(true);
        drain();
        let before = dropped();
        std::thread::spawn(|| {
            for i in 0..RING_CAPACITY + 10 {
                let _span = Span::begin(Category::Persist, &format!("s{i}"));
            }
        })
        .join()
        .unwrap();
        let events = drain();
        set_enabled(false);
        let ours: Vec<_> = events.iter().filter(|e| e.name.starts_with('s')).collect();
        assert!(ours.len() <= RING_CAPACITY);
        assert!(dropped() >= before + 10);
        // The oldest were dropped, the newest survived.
        assert!(ours
            .iter()
            .any(|e| e.name == format!("s{}", RING_CAPACITY + 9)));
    }
}
