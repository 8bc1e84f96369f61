//! # satmapit-obs
//!
//! Hand-rolled, fully offline observability for the SAT-MapIt stack —
//! no crates.io dependencies, `std` only. Three facilities, each usable
//! on its own (see `docs/observability.md` for the full reference):
//!
//! * [`trace`] — a flight-recorder span tracer. Threads record
//!   completed spans into **thread-local bounded ring buffers** (the
//!   newest events win; nothing blocks, no solver hot-path lock is ever
//!   held), timestamped against one process-wide monotonic epoch.
//!   [`trace::drain`] collects every thread's ring and
//!   [`trace::export_chrome`] renders the result in Chrome
//!   `trace_event` JSON, so a batch of ladders opens as a real
//!   timeline in Perfetto / `chrome://tracing`. Tracing is **off by
//!   default and zero-cost while off**: recording is a single relaxed
//!   atomic load, no ring is allocated, and nothing about enabling it
//!   may enter a result fingerprint.
//!
//! * [`hist`] — HDR-style log-bucketed latency histograms
//!   (power-of-two octaves split into linear sub-buckets): constant
//!   memory for the full `u64` microsecond range, mergeable,
//!   saturating, with cheap p50/p90/p99 quantile queries bounded to
//!   ~6% relative error.
//!
//! * [`mod@log`] — a leveled structured logger ([`log!`], [`error!`],
//!   [`warn!`], [`info!`], [`debug!`]) with per-target filtering via
//!   the `SATMAPIT_LOG` environment variable. Every record is written
//!   as one `write_all` call on a locked stderr, so warnings from
//!   concurrent worker threads never interleave mid-line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod log;
pub mod trace;

pub use hist::{Histogram, Snapshot};
pub use log::Level;
pub use trace::{Category, Event, Span};
