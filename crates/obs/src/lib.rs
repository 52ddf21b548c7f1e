//! # qserv-obs — the observability substrate
//!
//! One crate every layer of the Qserv reproduction stands on for time
//! and measurement, instead of ad-hoc `Instant::now()` sprinkles and
//! hand-grown stats structs:
//!
//! * [`clock`] — an injectable [`Clock`]: [`WallClock`]
//!   for production, a shared [`VirtualClock`] for tests and the
//!   discrete-event simulator. Retry backoff, dispatch deadlines and
//!   chaos-fabric delay faults all wait through the clock, so seeded
//!   chaos runs complete with **zero wall-clock sleeping** while still
//!   exhibiting (and letting tests assert) their latency effects.
//! * [`trace`] — per-query span trees with an ambient thread-local
//!   context, covering proxy request → master analyze → per-chunk
//!   dispatch attempts (retries included) → fabric ops → worker
//!   statement execution → merge folds; exportable as JSON.
//! * [`metrics`] — a counters/gauges/histograms registry behind a
//!   stable API; `qserv::QueryStats` is a thin view over one.

pub mod clock;
pub mod metrics;
pub mod trace;

pub use clock::{wall_clock, Clock, SharedClock, VirtualClock, WallClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{SpanGuard, SpanId, SpanRecord, Trace, TraceContext};
