//! The traced pass's span recorder.
//!
//! Spans are recorded from the harness's own files, around its calls
//! into each layer's public functions; nothing inside the program under
//! test is instrumented. A span is named `<layer>.<call>` where the
//! layer is the crate name, carries the id of the operation (cell or
//! request) it belongs to and the index of the span that caused it, and
//! lives in a plain `Vec` until [`write_chrome`] dumps everything at
//! exit. The untraced pass never constructs a [`Recorder`].

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, nanoseconds after the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the recorder's epoch.
    pub end_ns: u64,
    /// Index (in the same recorder) of the enclosing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span storage for one thread of the harness.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    /// Chrome-trace thread id (one track per harness thread).
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (shared by every
    /// recorder of a run, so their tracks line up).
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u32) {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        let now = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = now;
        Duration::from_nanos(self.spans[index].dur_ns())
    }

    /// Runs `f` inside a span; returns its value and the span's duration.
    pub fn time<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> (T, Duration) {
        self.enter(name, op);
        let value = f();
        (value, self.exit())
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total time, self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Summed span durations.
    pub total_us: f64,
    /// Summed durations minus the time covered by direct children.
    pub self_us: f64,
    /// Number of spans.
    pub count: u64,
}

/// Aggregates spans by name. A span's self time is its duration minus
/// its direct children's durations (children never overlap: one
/// recorder is one thread).
pub fn totals_by_name(recorders: &[&Recorder]) -> BTreeMap<&'static str, NameTotals> {
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for recorder in recorders {
        let mut child_ns = vec![0u64; recorder.spans.len()];
        for span in &recorder.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns();
            }
        }
        for (span, &children) in recorder.spans.iter().zip(&child_ns) {
            let entry = totals.entry(span.name).or_default();
            entry.total_us += span.dur_ns() as f64 / 1e3;
            entry.self_us += span.dur_ns().saturating_sub(children) as f64 / 1e3;
            entry.count += 1;
        }
    }
    totals
}

/// Writes every recorder's spans as one Chrome `trace_event` document
/// (complete events, one track per recorder; loads in Perfetto).
pub fn write_chrome(out: &mut impl Write, recorders: &[&Recorder]) -> io::Result<()> {
    out.write_all(b"{\"traceEvents\":[")?;
    let mut first = true;
    for recorder in recorders {
        for (index, span) in recorder.spans.iter().enumerate() {
            if !first {
                out.write_all(b",")?;
            }
            first = false;
            let layer = span.name.split('.').next().unwrap_or(span.name);
            // Span names are identifiers from this crate: no escaping needed.
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"span\":{index},\"parent\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns() as f64 / 1e3,
                recorder.tid,
                span.op,
                span.parent.map_or(-1, |p| p as i64),
            )?;
        }
    }
    out.write_all(b"\n]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(Instant::now(), 1);
        rec.enter("core.rung", 7);
        rec.time("core.encode", 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        rec.time("sat.solve", 7, || {
            std::thread::sleep(Duration::from_millis(3))
        });
        let rung = rec.exit();

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));

        let totals = totals_by_name(&[&rec]);
        let outer = totals["core.rung"];
        let inner = totals["core.encode"].total_us + totals["sat.solve"].total_us;
        assert_eq!(outer.count, 1);
        assert!((outer.total_us - rung.as_nanos() as f64 / 1e3).abs() < 1e-6);
        assert!((outer.self_us - (outer.total_us - inner)).abs() < 1e-6);
        assert!(inner >= 5_000.0, "two sleeps of 2 + 3 ms");
        assert_eq!(totals["sat.solve"].self_us, totals["sat.solve"].total_us);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let mut rec = Recorder::new(Instant::now(), 3);
        rec.enter("service.rtt", 1);
        rec.time("net.write", 1, || ());
        rec.exit();
        let mut bytes = Vec::new();
        write_chrome(&mut bytes, &[&rec]).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let doc = satmapit_service::json::parse(text.trim()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("net"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_i64()),
            Some(0)
        );
    }
}
