//! # qserv — a distributed shared-nothing SQL query system
//!
//! A from-scratch Rust reproduction of **Qserv** (Wang, Monkewitz, Lim,
//! Becla: *Qserv: a distributed shared-nothing database for the LSST
//! catalog*, SC'11): the coordination layer that turns a single user SQL
//! query over sky-sized astronomical tables into thousands of per-chunk
//! physical queries, dispatches them over a data-addressed file fabric to
//! autonomous workers, and merges the results.
//!
//! ## Architecture (paper Figure 1)
//!
//! ```text
//!  user ──SQL──▶ [Qserv master/frontend]
//!                  │  parse → analyze → generate chunk queries   (§5.3)
//!                  │  group chunks by worker: one bundle each
//!                  │  write /query2/CC (a bundle) ──┐            (§5.4)
//!                  ▼                                ▼
//!             [xrd fabric: redirector]      [worker = data server + plugin]
//!                  ▲                                │ parse once; per chunk:
//!                  │                                │ re-bind, build subchunk
//!                  │  read /result/md5(query) ◀─────┘ tables, execute, encode
//!                  ▼                                   one frame per chunk
//!             merge + final aggregation (§5.4)
//! ```
//!
//! * [`meta`] — which tables are spatially partitioned and on which
//!   columns, which are replicated everywhere, and which column carries
//!   the secondary index.
//! * [`analysis`] — query analysis (§5.3): spatial restriction detection,
//!   objectId index opportunities, table references, join classification.
//! * [`planner`] — cost-based planning over load-time statistics (zone
//!   maps, row counts, distinct-value counts): per-conjunct selectivity
//!   estimation with filter reordering, index-vs-scan choice, proven-
//!   sound ORDER BY + LIMIT pushdown, and shared-scan attachment —
//!   surfaced through the service's `EXPLAIN` verb.
//! * [`rewrite`] — physical query generation: aggregate splitting
//!   (`AVG → SUM/COUNT`), `qserv_areaspec_box` → worker UDF predicates,
//!   chunk/subchunk table substitution, and the master's merge query.
//! * [`worker`] — the ofs-plugin worker: parses the chunk-query message
//!   (a bundle of one or more chunks) once, re-binds its table names per
//!   chunk, builds subchunk/overlap tables on demand, executes on the
//!   embedded engine, deposits one checksummed column-page frame per
//!   chunk.
//! * [`loader`] — builds worker databases from synthesized catalog rows:
//!   chunk tables, overlap stores, per-chunk objectId indexes, and the
//!   frontend's secondary index.
//! * [`master`] — the [`Qserv`] frontend: end-to-end `query(sql)` with
//!   the one multithreaded dispatch loop over the fabric — a statement's
//!   chunks grouped by worker into bundles, retried per chunk — and
//!   result merging.
//! * [`merge`] — the streaming result pipeline: chunk results feed the
//!   merge as they arrive, in chunk order — appended as they stand, or
//!   pushed into the engine's sink for the merge statement — with the
//!   collect-then-merge function kept as the semantic oracle
//!   (`testing`).
//! * [`service`] — the concurrent query service: bounded admission with
//!   interactive/scan classification, deficit-round-robin fair
//!   scheduling (the Figure-14 starvation fix), and cooperative
//!   per-query cancellation (`KILL`).
//! * [`sharedscan`] — shared scanning (§4.3; "planned" in the paper,
//!   implemented here): concurrent full-scan queries share one pass over
//!   each chunk, as the members of one run of the master's dispatch loop.
//! * [`placement`] — epoch-stamped chunk→replica placement: node
//!   join/leave and replication repair after permanent node loss (chunk
//!   copies over the fabric).

pub mod analysis;
mod arrivals;
mod dispatch;
pub mod error;
pub mod loader;
pub mod master;
pub mod merge;
pub mod meta;
pub mod placement;
pub mod planner;
pub mod rewrite;
pub mod service;
pub mod sharedscan;
pub mod stats;
#[doc(hidden)]
pub mod testing;
pub mod worker;

pub use error::QservError;
pub use loader::ClusterBuilder;
pub use master::{CancelToken, Qserv, QueryStats, RetryPolicy, TracedQuery, XMatchSpec};
pub use merge::{Merger, StreamBatch, StreamCollector};
pub use meta::{CatalogMeta, ChunkZones, ColumnStat, ColumnZone, TableStats};
pub use placement::{PlacementManager, RebalanceReport};
pub use planner::{AccessPath, ConjunctEstimate, PlanChoice, PlanOverride};
pub use rewrite::MergeShape;
pub use service::{
    FairScheduler, KillOutcome, Notifier, QueryClass, QueryHandle, QueryService, QueryState,
    QueryStatus, ServiceConfig, ServiceReply, StreamDone, StreamEvent, StreamHandle, StreamOutcome,
    Ticket,
};

// Chaos-testing surface: arm a fault plan at build time
// (`ClusterBuilder::fault_plan`), inspect what fired via
// `qserv.cluster().faults().stats()`.
pub use qserv_xrd::fault::{FabricOp, FaultPlan, FaultStats};

// Observability surface (qserv-obs): the injectable clock every layer
// waits on, the trace-tree type `query_traced` returns, and the metrics
// snapshot `QueryStats` is a view of.
pub use qserv_obs::trace;
pub use qserv_obs::{
    wall_clock, Clock, MetricsRegistry, MetricsSnapshot, SharedClock, Trace, VirtualClock,
};

// Re-export the pieces users need to drive the public API.
pub use qserv_engine::exec::ResultTable;
pub use qserv_engine::value::Value;
pub use qserv_partition::chunker::Chunker;
pub use qserv_partition::placement::PlacementMap;
pub use qserv_sqlparse::strip_explain;
