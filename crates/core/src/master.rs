//! The Qserv master (frontend): end-to-end distributed query execution.
//!
//! Every public entry point (`query`, `query_with_stats`, `query_traced`,
//! `xmatch`, `explain`, `explain_table`) is
//! `Qserv::prepare` plus a use of the prepared statement. `prepare` is
//! the one place SQL text is read: parse → analyze (§5.3) → plan →
//! select the chunk set (spatial restriction and/or secondary index) →
//! pin the placement epoch. `Qserv::run` executes that value — the query
//! service prepares at admission and hands the same value to its
//! executor, so what was classified is what runs: generate per-chunk
//! physical queries → dispatch each as two file transactions on the
//! fabric (§5.4) from the calling thread and its helper threads → read back
//! each result as a checksummed column-page frame (the paper ships
//! `mysqldump` text; §7.1 names that round trip as the overhead to
//! engineer away) → fold each into the incremental merge as it
//! arrives (`crate::merge`) → run the merge/aggregation query → return
//! rows to the caller, or push them through the caller's sink as they
//! become final (`QueryService::submit_streaming`).

use crate::analysis::{analyze, Analysis, JoinClass};
use crate::error::QservError;
use crate::merge::{Merger, StreamBatch};
use crate::meta::{CatalogMeta, ChunkZones, TableStats};
use crate::placement::PlacementManager;
use crate::planner::{self, PlanChoice, PlanOverride};
use crate::rewrite::{build_plan, render_chunk_message, MergeShape, PhysicalPlan};
use crate::service::QueryClass;
use crate::stats::QueryMetrics;
pub use crate::stats::QueryStats;
use crate::worker::Worker;
use parking_lot::Mutex;
use qserv_engine::db::Database;
use qserv_engine::exec::{execute, ResultTable, ScanStats};
use qserv_engine::storage::decode_frame;
use qserv_engine::table::Table;
use qserv_obs::clock::{wall_clock, SharedClock};
use qserv_obs::trace;
use qserv_obs::{MetricsSnapshot, Trace};
use qserv_partition::chunker::Chunker;
use qserv_partition::index::SecondaryIndex;
use qserv_partition::placement::PlacementMap;
use qserv_sqlparse::ast::SelectStatement;
use qserv_sqlparse::parse_select;
use qserv_xrd::cluster::{query_path, result_path, XrdCluster, XrdError};
use qserv_xrd::fault::FabricOp;
use qserv_xrd::md5_hex;
use qserv_xrd::server::ServerId;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// Clamps the configured dispatcher-pool width to something sane for a
/// given job count: at least one thread, never more threads than jobs.
fn effective_width(configured: usize, jobs: usize) -> usize {
    configured.max(1).min(jobs.max(1))
}

/// Pushes a statement's final batch through a streaming sink (always
/// sent, possibly empty). Returns the result's shell — columns, no
/// rows — which is what the streaming entry points hand back, the rows
/// having left through the sink.
fn emit_final(batch: StreamBatch, sink: &mut dyn FnMut(StreamBatch) -> bool) -> ResultTable {
    let columns = batch.columns.clone();
    let _ = sink(batch);
    ResultTable {
        columns,
        rows: Vec::new(),
    }
}

/// How the master retries chunk dispatch over an unreliable fabric.
///
/// Transient errors (injected faults, offline servers, unresolvable
/// paths, corrupt payloads) are retried with exponential backoff, each
/// retry steering away from the replicas that already failed (the
/// redirector excludes them); permanent errors (worker SQL failures,
/// unknown chunks) abort immediately. An optional per-query deadline
/// (measured on the master's injected [`Clock`](qserv_obs::Clock), so
/// virtual under test) turns a stuck query into [`QservError::Timeout`]
/// instead of an unbounded wait.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Dispatch attempts per chunk (≥ 1; the first attempt counts).
    pub max_attempts: usize,
    /// Backoff before retry `k` is `backoff_base * 2^(k-1)`.
    pub backoff_base: Duration,
    /// Wall-clock budget for the whole query's dispatch phase.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            backoff_base: Duration::from_millis(1),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries and never times out (the pre-chaos
    /// dispatch behavior).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff_base: Duration::ZERO,
            deadline: None,
        }
    }
}

/// Cooperative cancellation for one in-flight query.
///
/// Cloneable and thread-safe: the service hands one side to the session
/// that may `KILL` the query while the executor threads poll the other.
/// Cancellation is *cooperative* — the master checks the token at chunk
/// dispatch boundaries (before a chunk leaves the queue, before each
/// retry attempt) and at merge-fold boundaries, never in the middle of a
/// §5.4 file transaction. The write → read → unlink sequence is atomic
/// with respect to cancellation, so a kill can never strand a result
/// file on the fabric: every written result is consumed before the
/// token is looked at again.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the next
    /// dispatch or fold boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Per-chunk retry bookkeeping, folded into [`QueryStats`].
#[derive(Clone, Copy, Debug, Default)]
struct ChunkMeta {
    attempts: usize,
    failovers: usize,
    injected_seen: u64,
    /// Clock time the whole chunk dispatch took, retries included.
    latency: Duration,
    /// Worker-reported paged-scan counters (carried in the result
    /// frame's header); zero for warm in-memory chunks.
    scan: ScanStats,
    prev_server: Option<ServerId>,
}

/// Sets one statement's planner, pruning and index instruments — the
/// estimate-vs-actual q-error against `actual` result rows included —
/// and returns that q-error. [`Qserv::run`] and the shared-scan convoy
/// both call it, so a convoy member reports what its solo run would.
pub(crate) fn record_plan(qm: &QueryMetrics, prepared: &Prepared, actual: u64) -> f64 {
    qm.used_secondary_index
        .set(prepared.analysis.index_ids.is_some() as u64);
    qm.used_spatial_restriction
        .set(prepared.analysis.spatial.is_some() as u64);
    qm.chunks_pruned.add(prepared.chunks_pruned as u64);
    qm.planner_est_rows
        .set(prepared.choice.est_rows.round() as u64);
    qm.planner_index_lookup.set(matches!(
        prepared.choice.access,
        crate::planner::AccessPath::IndexLookup { .. }
    ) as u64);
    qm.planner_topn_pushdown
        .set(prepared.choice.topn_pushdown.is_some() as u64);
    qm.planner_reordered.set(prepared.choice.reordered as u64);
    let qerror = prepared.choice.q_error(actual);
    qm.planner_qerror_pct.set((qerror * 100.0).round() as u64);
    qerror
}

/// Folds one completed chunk's outcome into the query's instruments.
fn record_chunk(qm: &QueryMetrics, bytes: u64, meta: &ChunkMeta) {
    qm.result_bytes.add(bytes);
    if meta.attempts > 1 {
        qm.chunks_retried.inc();
    }
    qm.replica_failovers.add(meta.failovers as u64);
    qm.injected_faults_observed.add(meta.injected_seen);
    qm.pages_pruned.add(meta.scan.pages_pruned);
    qm.pages_scanned.add(meta.scan.pages_scanned);
    qm.pages_cached.add(meta.scan.pages_cached);
    qm.chunk_attempts.record(meta.attempts as u64);
    qm.chunk_latency_ns.record(meta.latency.as_nanos() as u64);
}

/// The optional row sink of one query: `Some` pushes merged row batches
/// out as they become final, or as one batch at completion for shapes
/// that cannot stream (folds, top-n, barriers). The final batch is always
/// pushed, even when empty. A sink returning `false` aborts the query
/// like a cancel: the LIMIT-cutoff and disconnect paths of
/// [`crate::QueryService::submit_streaming`].
type Sink<'a> = Option<&'a mut dyn FnMut(StreamBatch) -> bool>;

/// Per-chunk dispatch outcome: the loaded result table, the transferred
/// byte count, and retry bookkeeping.
type ChunkOutcome = Result<(Table, u64, ChunkMeta), QservError>;

/// One statement riding [`Qserv::dispatch_streaming`]: its plan, its
/// own instruments and cancellation, and where its rows go.
pub(crate) struct Member<'a, 's> {
    pub prepared: &'a Prepared,
    pub qm: &'a QueryMetrics,
    pub token: &'a CancelToken,
    pub sink: Sink<'s>,
}

/// What [`Qserv::dispatch_streaming`] hands back: each member's merged
/// result, in member order, and how many distinct chunks were sent.
pub(crate) struct Dispatched {
    pub results: Vec<Result<ResultTable, QservError>>,
    pub chunk_passes: usize,
}

/// One chunk query on the dispatch queue: the member it belongs to, its
/// fold sequence within that member, and its rendered, QID-tagged text.
struct Job {
    member: usize,
    seq: usize,
    chunk: i32,
    message: String,
}

/// The jobs not yet sent, and how many distinct chunks have been sent
/// (the queue is chunk-major, so a change of chunk is a new pass).
struct JobQueue {
    jobs: std::vec::IntoIter<Job>,
    last_chunk: Option<i32>,
    passes: usize,
}

/// The merge side of one member's dispatch: chunk outcomes arrive one at
/// a time — from the calling thread's own dispatches and over its
/// helper threads' channel — and fold into the merger,
/// with merged batches leaving through the sink as they become final.
struct Arrivals<'a, 's> {
    clock: &'a SharedClock,
    qm: &'a QueryMetrics,
    token: &'a CancelToken,
    merger: Merger,
    sink: Sink<'s>,
    /// The member's chunk queries; those never dispatched were skipped.
    total: usize,
    dispatched: usize,
    /// Error selection must not depend on thread scheduling: keep the
    /// *lowest-sequence* dispatch error (queue order is deterministic,
    /// and the dispatched set is always a queue prefix, so the minimum
    /// failing sequence is the same in every run). A merge error is
    /// reported in preference to any dispatch error — folds drain in
    /// sequence order, so a fold failure always concerns an earlier
    /// chunk than the first dispatch failure.
    dispatch_err: Option<(usize, QservError)>,
    fold_err: Option<QservError>,
    first_fold: Option<Duration>,
    last_arrival: Option<Duration>,
    /// Set when the sink declines a batch (client gone / has enough):
    /// remaining work is cancelled and the query reports Cancelled.
    sink_closed: bool,
}

impl<'a, 's> Arrivals<'a, 's> {
    fn new(clock: &'a SharedClock, member: Member<'a, 's>) -> Arrivals<'a, 's> {
        Arrivals {
            clock,
            qm: member.qm,
            token: member.token,
            merger: Merger::new(&member.prepared.plan),
            sink: member.sink,
            total: member.prepared.chunks.len(),
            dispatched: 0,
            dispatch_err: None,
            fold_err: None,
            first_fold: None,
            last_arrival: None,
            sink_closed: false,
        }
    }

    /// Folds one chunk's outcome in. Returns whether more chunks are
    /// wanted: `false` once the merger is satisfied (LIMIT cutoff), the
    /// sink closed, the query was killed, or an error was recorded — the
    /// caller stops dispatching, and the partial merge state is either
    /// a complete answer (cutoff) or discarded by [`Arrivals::finish`].
    fn arrive(&mut self, seq: usize, outcome: ChunkOutcome) -> bool {
        self.dispatched += 1;
        self.last_arrival = Some(self.clock.now());
        match outcome {
            Ok((table, bytes, meta)) => {
                record_chunk(self.qm, bytes, &meta);
                // A satisfied merger still takes its column names from the
                // first part to arrive: `LIMIT 0` is satisfied before any.
                if self.fold_err.is_none() && !self.token.is_cancelled() {
                    if self.first_fold.is_none() {
                        self.first_fold = Some(self.clock.now());
                    }
                    let g = trace::span("merge.fold");
                    if let Some(g) = &g {
                        g.annotate("seq", &seq.to_string());
                    }
                    match self.merger.fold(seq, table) {
                        Ok(()) => {
                            if let Some(s) = self.sink.as_mut() {
                                if let Some(batch) = self.merger.drain_ready() {
                                    if !s(batch) {
                                        self.sink_closed = true;
                                    }
                                }
                            }
                        }
                        Err(e) => self.fold_err = Some(e),
                    }
                }
            }
            Err(e) => {
                if self.dispatch_err.as_ref().is_none_or(|(s, _)| seq < *s) {
                    self.dispatch_err = Some((seq, e));
                }
            }
        }
        !(self.merger.satisfied()
            || self.sink_closed
            || self.fold_err.is_some()
            || self.dispatch_err.is_some()
            || self.token.is_cancelled())
    }

    /// Surfaces errors in deterministic preference order, settles the
    /// pipeline metrics, and finishes the merge under its own span.
    fn finish(self) -> Result<ResultTable, QservError> {
        let qm = self.qm;
        qm.chunks_dispatched.add(self.dispatched as u64);
        if let Some(e) = self.fold_err {
            return Err(e);
        }
        // A KILL wins over any dispatch error it raced with: the caller
        // asked for cancellation and gets a deterministic `Cancelled`
        // (the dispatch error may itself be a token-induced `Cancelled`
        // from inside the retry loop). A sink that declined a batch is
        // the consumer's cancellation.
        if self.token.is_cancelled() || self.sink_closed {
            return Err(QservError::Cancelled);
        }
        if let Some((_, e)) = self.dispatch_err {
            return Err(e);
        }
        let merger = self.merger;
        qm.chunks_skipped_by_limit
            .add((self.total - self.dispatched) as u64);
        qm.peak_buffered_parts
            .set_max(merger.peak_buffered_parts() as u64);
        qm.rows_merged.set(merger.rows_folded() as u64);
        if let (Some(f), Some(l)) = (self.first_fold, self.last_arrival) {
            qm.merge_overlap_ms
                .set(l.saturating_sub(f).as_millis() as u64);
        }
        let g = trace::span("merge.finish");
        let Some(sink) = self.sink else {
            let result = merger.finish();
            if let (Some(g), Ok(r)) = (&g, &result) {
                g.annotate("rows", &r.rows.len().to_string());
            }
            return result;
        };
        let batch = merger.finish_batch()?;
        if let Some(g) = &g {
            g.annotate("rows", &batch.num_rows().to_string());
        }
        Ok(emit_final(batch, sink))
    }
}

/// Outcome of a single dispatch attempt.
enum Attempt {
    Ok(Table, u64),
    /// Transient failure: worth retrying, optionally excluding `server`
    /// and (when `reset_exclusions`) forgetting earlier exclusions
    /// because no replica resolved at all.
    Retry {
        server: Option<ServerId>,
        injected: bool,
        reset_exclusions: bool,
        error: QservError,
    },
    Fatal(QservError),
}

/// Sorts an [`XrdError`] into retry-worthy vs. permanent.
fn classify_xrd(e: XrdError) -> Attempt {
    let injected = matches!(e, XrdError::Injected { .. });
    let server = match &e {
        XrdError::Injected { server, .. } => Some(*server),
        XrdError::ServerOffline(s) => Some(*s),
        _ => None,
    };
    // An unresolvable path is transient too: every replica may be
    // excluded or momentarily offline (flapping servers come back).
    let reset_exclusions = matches!(e, XrdError::NoServerForPath(_));
    if e.is_transient() || reset_exclusions {
        Attempt::Retry {
            server,
            injected,
            reset_exclusions,
            error: QservError::from(e),
        }
    } else {
        Attempt::Fatal(QservError::from(e))
    }
}

/// Specification of a cross-catalog XMatch: match every row of catalog
/// `left` against candidates in catalog `right` within `radius_deg`,
/// keeping only the nearest candidate per left row.
#[derive(Clone, Debug)]
pub struct XMatchSpec {
    /// Catalog A (the driver): each of its rows gets at most one match.
    pub left: String,
    /// Catalog A's id column, carried through to the result.
    pub left_id: String,
    /// Catalog B (the reference survey being matched against).
    pub right: String,
    /// Catalog B's id column, carried through to the result.
    pub right_id: String,
    /// Match radius in degrees. Must not exceed the partitioning overlap
    /// — candidates further than the overlap would be invisible to the
    /// chunk that owns the left row.
    pub radius_deg: f64,
}

impl XMatchSpec {
    /// The paper-layout default: Object matched against RefObject.
    pub fn object_to_ref(radius_deg: f64) -> XMatchSpec {
        XMatchSpec {
            left: "Object".to_string(),
            left_id: "objectId".to_string(),
            right: "RefObject".to_string(),
            right_id: "refObjectId".to_string(),
            radius_deg,
        }
    }
}

/// What `explain` reports without executing.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The chunks that would be dispatched.
    pub chunks: Vec<i32>,
    /// Join classification.
    pub join: JoinClass,
    /// Whether results need two-phase aggregation.
    pub aggregated: bool,
    /// Whether the objectId secondary index restricts the chunk set.
    pub uses_secondary_index: bool,
    /// One rendered chunk-query message (for the first chunk), for
    /// inspection.
    pub sample_message: Option<String>,
    /// The cost-based planner's full decision record.
    pub choice: PlanChoice,
    /// The placement epoch the plan was pinned to.
    pub placement_epoch: u64,
}

/// Everything [`Qserv::query_traced`] hands back: rows, the classic
/// stats view, the full metrics snapshot behind it, and the span tree.
#[derive(Debug)]
pub struct TracedQuery {
    /// The merged result rows.
    pub rows: ResultTable,
    /// The classic per-query stats view.
    pub stats: QueryStats,
    /// The full per-query metrics snapshot (includes histograms the
    /// stats view does not surface, e.g. per-chunk dispatch latency).
    pub metrics: MetricsSnapshot,
    /// The span tree; export with [`Trace::to_json`].
    pub trace: Trace,
}

/// The running system: fabric + workers + frontend state.
pub struct Qserv {
    cluster: XrdCluster,
    chunker: Chunker,
    meta: CatalogMeta,
    /// Epoch-stamped chunk→replica placement. Queries pin one snapshot
    /// at prepare time; membership operations ([`Qserv::fail_node`],
    /// [`Qserv::join_node`], …) commit new epochs.
    placement: Arc<PlacementManager>,
    secondary: SecondaryIndex,
    workers: Vec<Arc<Worker>>,
    /// The clock dispatch deadlines, retry backoff, and traces read.
    /// Wall by default; [`Qserv::set_clock`] swaps in a virtual one.
    clock: SharedClock,
    /// How many chunk queries of one statement are in flight at once:
    /// the calling thread plus `dispatch_width − 1` helper threads.
    /// Defaults to one per core, at most 8: the in-process fabric runs a
    /// chunk query on the thread that writes it, so dispatchers are
    /// compute threads — more of them than cores adds no overlap, only
    /// context switches, and crowds out other sessions' threads (the
    /// lookups beside a scan of Figure 14).
    pub dispatch_width: usize,
    /// Chunk-dispatch retry behavior.
    pub retry: RetryPolicy,
    /// Dispatch counter: tags each chunk-query message with a unique
    /// `-- QID:` line so identical concurrent queries hash to distinct
    /// result paths (the paper's raw MD5-of-query addressing collides
    /// there). Scoped to the cluster — not the process — so a freshly
    /// built cluster replays the same result paths, keeping seeded fault
    /// schedules reproducible.
    qid: AtomicU64,
    /// Per-chunk zone maps registered at load time (ra/decl/flux/objectId
    /// min-max per chunk). Lets `prepare` elide whole chunks before
    /// dispatch — the master-side analogue of the worker's per-page zone
    /// maps.
    zones: ChunkZones,
    /// Load-time table statistics (per-chunk row counts, per-column
    /// distinct-value counts) feeding the cost-based planner.
    stats: TableStats,
    /// Forces individual planner decisions; `None` (the default) lets
    /// the cost model choose. The plan-equivalence test battery sets
    /// this to pin a plan.
    pub plan_override: Option<PlanOverride>,
    /// Where `.qchunk` files live (the loader's storage dir); replica
    /// copies imported during repair/rebalance are written here too.
    pub(crate) storage_dir: Option<PathBuf>,
}

/// What [`Qserv::prepare`] makes of one SQL text: the value that
/// travels from admission to dispatch, so no later layer reads the text
/// again.
// `Distributed` is the common case, so boxing it to shrink the rare
// `Local` would cost every query an allocation.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Statement {
    /// FROM-less: evaluated on the frontend, nothing is dispatched.
    Local(SelectStatement),
    /// Analyzed and planned, chunk set selected, placement epoch pinned.
    Distributed(Prepared),
}

impl Statement {
    /// How many chunks the statement dispatches — the admission cost the
    /// query service classifies on (zero for a frontend-local statement).
    pub(crate) fn chunk_count(&self) -> usize {
        match self {
            Statement::Local(_) => 0,
            Statement::Distributed(p) => p.chunks.len(),
        }
    }
}

/// A prepared (analyzed + planned) distributed query.
pub(crate) struct Prepared {
    pub analysis: Analysis,
    pub plan: PhysicalPlan,
    pub chunks: Vec<i32>,
    /// Chunks elided before dispatch by the per-chunk zone maps.
    pub chunks_pruned: usize,
    /// The placement epoch this query was planned against. The chunk set
    /// above came from this snapshot; a rebalance committing a newer
    /// epoch mid-flight does not change it (the query completes against
    /// the old epoch, failing over per-chunk if a replica moved away).
    pub placement: Arc<PlacementMap>,
    /// What the cost-based planner decided (access path, predicate
    /// order, estimates) — EXPLAIN renders this, metrics record it.
    pub choice: PlanChoice,
}

impl Qserv {
    /// Assembles a frontend over already-loaded workers (used by
    /// [`crate::loader::ClusterBuilder`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        cluster: XrdCluster,
        chunker: Chunker,
        meta: CatalogMeta,
        placement: PlacementMap,
        secondary: SecondaryIndex,
        workers: Vec<Arc<Worker>>,
        zones: ChunkZones,
        stats: TableStats,
    ) -> Qserv {
        Qserv {
            cluster,
            chunker,
            meta,
            placement: Arc::new(PlacementManager::new(placement)),
            secondary,
            workers,
            clock: wall_clock(),
            dispatch_width: thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            retry: RetryPolicy::default(),
            qid: AtomicU64::new(1),
            zones,
            stats,
            plan_override: None,
            storage_dir: None,
        }
    }

    /// Prefixes a rendered chunk message with a unique query-instance id.
    fn tag_message(&self, message: String) -> String {
        let qid = self.qid.fetch_add(1, Ordering::Relaxed);
        format!("-- QID: {qid}\n{message}")
    }

    /// The partitioning in effect.
    pub fn chunker(&self) -> &Chunker {
        &self.chunker
    }

    /// The catalog metadata.
    pub fn meta(&self) -> &CatalogMeta {
        &self.meta
    }

    /// The workers (for stats inspection and fault injection in tests).
    pub fn workers(&self) -> &[Arc<Worker>] {
        &self.workers
    }

    /// The underlying fabric (for fault injection in tests).
    pub fn cluster(&self) -> &XrdCluster {
        &self.cluster
    }

    /// The current chunk-placement snapshot (immutable, epoch-stamped).
    /// Callers hold a consistent view even while membership changes
    /// commit newer epochs concurrently.
    pub fn placement(&self) -> Arc<PlacementMap> {
        self.placement.snapshot()
    }

    /// The placement manager: epochs, membership, repair and rebalancing.
    pub fn placement_manager(&self) -> &Arc<PlacementManager> {
        &self.placement
    }

    /// The directory new `.qchunk` files land in when replicas are
    /// copied between workers (`None` falls back to the temp dir).
    pub fn storage_dir(&self) -> Option<&std::path::Path> {
        self.storage_dir.as_deref()
    }

    /// The clock dispatch waits on and traces are stamped with.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Swaps the master's clock — and the fabric fault plan's, so
    /// injected delay faults wait through the same (possibly virtual)
    /// time source as dispatch deadlines and backoff.
    pub fn set_clock(&mut self, clock: SharedClock) {
        self.cluster.faults().set_clock(clock.clone());
        self.clock = clock;
    }

    /// Executes a query, returning just the rows.
    pub fn query(&self, sql: &str) -> Result<ResultTable, QservError> {
        self.query_with_stats(sql).map(|(r, _)| r)
    }

    /// Executes a query, returning rows plus execution statistics.
    pub fn query_with_stats(&self, sql: &str) -> Result<(ResultTable, QueryStats), QservError> {
        let (rows, qm) = self.run(self.prepare(sql)?, &CancelToken::new(), None)?;
        Ok((rows, qm.stats()))
    }

    /// Runs a cross-catalog XMatch (paper §6.2's "near neighbor"
    /// machinery pointed at two catalogs): every `spec.left` row is
    /// matched against `spec.right` candidates within `spec.radius_deg`,
    /// keeping the nearest candidate only. Dispatched chunk-aligned as a
    /// subchunk near-join — the right side reads the overlap-dilated
    /// subchunk tables, so matches straddling chunk borders are found —
    /// and merged with the keep-nearest fold ([`MergeShape::Nearest`]).
    /// Result columns: `left_id`, `right_id`, `dist` (degrees), one row
    /// per matched left row, ascending by `left_id`.
    pub fn xmatch(&self, spec: &XMatchSpec) -> Result<(ResultTable, QueryStats), QservError> {
        let mut statement = self.prepare(&self.xmatch_sql(spec)?)?;
        // The SQL subset cannot express per-key argmin, so the plan's
        // classified shape (a plain append) is overridden with the
        // keep-nearest fold; the merge statement stays the pass-through.
        if let Statement::Distributed(prepared) = &mut statement {
            debug_assert_eq!(prepared.plan.join, JoinClass::SubchunkNear);
            prepared.plan.shape = MergeShape::Nearest {
                key: spec.left_id.clone(),
                dist: "dist".to_string(),
            };
        }
        let (rows, qm) = self.run(statement, &CancelToken::new(), None)?;
        Ok((rows, qm.stats()))
    }

    /// The worker-side SQL an XMatch dispatches (exposed for inspection
    /// and tests): a two-catalog near-join projecting both ids and the
    /// angular distance. Validates the spec against catalog metadata and
    /// the partitioning overlap.
    pub fn xmatch_sql(&self, spec: &XMatchSpec) -> Result<String, QservError> {
        let left = self.meta.partition_info(&spec.left).ok_or_else(|| {
            QservError::Analysis(format!(
                "XMatch left table {} is not partitioned",
                spec.left
            ))
        })?;
        let right = self.meta.partition_info(&spec.right).ok_or_else(|| {
            QservError::Analysis(format!(
                "XMatch right table {} is not partitioned",
                spec.right
            ))
        })?;
        // `<= 0.0 || NaN` rather than `!(> 0.0)`: same rejection set,
        // with the NaN case explicit.
        if spec.radius_deg <= 0.0 || spec.radius_deg.is_nan() {
            return Err(QservError::Analysis(format!(
                "XMatch radius must be positive, got {}",
                spec.radius_deg
            )));
        }
        let overlap = self.chunker.overlap().degrees();
        if spec.radius_deg > overlap {
            return Err(QservError::Analysis(format!(
                "XMatch radius {}° exceeds the partitioning overlap {overlap}°: \
                 candidates beyond the overlap would be missed",
                spec.radius_deg
            )));
        }
        let sep = format!(
            "qserv_angSep(a.{}, a.{}, b.{}, b.{})",
            left.lon_col, left.lat_col, right.lon_col, right.lat_col
        );
        Ok(format!(
            "SELECT a.{lid} AS {lid}, b.{rid} AS {rid}, {sep} AS dist \
             FROM {lt} a, {rt} b WHERE {sep} <= {r:?}",
            lid = spec.left_id,
            rid = spec.right_id,
            lt = spec.left,
            rt = spec.right,
            r = spec.radius_deg,
        ))
    }

    /// Executes a query under a fresh [`Trace`]: every layer it crosses —
    /// analysis, per-chunk dispatch attempts, fabric ops, worker
    /// statement execution, merge folds — records spans into the
    /// returned tree, stamped by the master's clock.
    pub fn query_traced(&self, sql: &str) -> Result<TracedQuery, QservError> {
        let trace = Trace::new(self.clock.clone());
        let outcome = {
            let root = trace::with_root(&trace, "query");
            root.annotate("sql", sql);
            self.prepare(sql)
                .and_then(|statement| self.run(statement, &CancelToken::new(), None))
        };
        let (rows, qm) = outcome?;
        Ok(TracedQuery {
            rows,
            stats: qm.stats(),
            metrics: qm.snapshot(),
            trace,
        })
    }

    /// The one query path behind every public entry point and the query
    /// service's executors: takes a prepared statement, dispatches each
    /// chunk query over the fabric and folds results into the
    /// incremental merge as they arrive, updating per-query instruments
    /// (and trace spans, when a trace is active). With a sink, row
    /// batches leave through it and the returned table is empty (columns
    /// only).
    pub(crate) fn run(
        &self,
        statement: Statement,
        token: &CancelToken,
        sink: Sink<'_>,
    ) -> Result<(ResultTable, QueryMetrics), QservError> {
        let qm = QueryMetrics::new();
        let _q = trace::span("master.query");
        if token.is_cancelled() {
            return Err(QservError::Cancelled);
        }
        let prepared = match statement {
            Statement::Local(stmt) => {
                let local = execute(&Database::new(), &stmt)?;
                return Ok((
                    match sink {
                        Some(s) => emit_final(StreamBatch::of_result(local), s),
                        None => local,
                    },
                    qm,
                ));
            }
            Statement::Distributed(prepared) => prepared,
        };
        // The plan was made by `prepare` — for a service query at
        // admission, before this trace existed — so the span carries the
        // decisions as annotations rather than timing the analysis.
        if let Some(g) = trace::span("master.analyze") {
            g.annotate("chunks", &prepared.chunks.len().to_string());
            g.annotate("join", &format!("{:?}", prepared.plan.join));
            if prepared.chunks_pruned > 0 {
                g.annotate("chunks_pruned", &prepared.chunks_pruned.to_string());
            }
            g.annotate("planner.access", &format!("{:?}", prepared.choice.access));
            g.annotate(
                "planner.est_rows",
                &format!("{:.1}", prepared.choice.est_rows),
            );
        }
        // A sink receives the final rows, so counting them gives the
        // planner's actual whichever entry point ran the statement.
        let mut sent = 0u64;
        let mut counting = sink.map(|s| {
            let sent = &mut sent;
            move |batch: StreamBatch| {
                *sent += batch.num_rows() as u64;
                s(batch)
            }
        });
        let result = {
            let _d = trace::span("master.dispatch");
            if let Some(g) = &_d {
                // The epoch this query is pinned to: rebalances committing
                // newer epochs mid-flight do not change its chunk set.
                g.annotate("placement_epoch", &prepared.placement.epoch().to_string());
            }
            let member = Member {
                prepared: &prepared,
                qm: &qm,
                token,
                sink: counting
                    .as_mut()
                    .map(|s| s as &mut dyn FnMut(StreamBatch) -> bool),
            };
            let dispatched = self.dispatch_streaming(vec![member])?;
            dispatched
                .results
                .into_iter()
                .next()
                .expect("one result per member")?
        };
        // Record the plan's instruments and the estimate-vs-actual error
        // on the query span. Under a sink the returned table is empty by
        // design and the rows it was handed are the actual.
        let actual = match counting {
            Some(_) => sent,
            None => result.num_rows() as u64,
        };
        let qerror = record_plan(&qm, &prepared, actual);
        if let Some(q) = &_q {
            q.annotate(
                "planner.est_rows",
                &format!("{:.1}", prepared.choice.est_rows),
            );
            q.annotate("planner.actual_rows", &actual.to_string());
            q.annotate("planner.qerror", &format!("{qerror:.2}"));
        }
        Ok((result, qm))
    }

    /// Plans a query without executing it. A FROM-less statement runs on
    /// the frontend: it reports no chunks and no chunk message.
    pub fn explain(&self, sql: &str) -> Result<Explain, QservError> {
        let prepared = match self.prepare(sql)? {
            Statement::Local(_) => {
                return Ok(Explain {
                    chunks: Vec::new(),
                    join: JoinClass::None,
                    aggregated: false,
                    uses_secondary_index: false,
                    sample_message: None,
                    choice: PlanChoice::default(),
                    placement_epoch: self.placement.snapshot().epoch(),
                })
            }
            Statement::Distributed(prepared) => prepared,
        };
        let sample_message = prepared.chunks.first().map(|&c| {
            let subs = self.subchunks_for(&prepared, c);
            render_chunk_message(&prepared.plan, &self.meta, c, &subs)
        });
        Ok(Explain {
            join: prepared.plan.join,
            aggregated: prepared.analysis.aggregated,
            uses_secondary_index: prepared.analysis.index_ids.is_some(),
            sample_message,
            placement_epoch: prepared.placement.epoch(),
            chunks: prepared.chunks,
            choice: prepared.choice,
        })
    }

    /// Renders the planner's chosen plan for `sql` as a deterministic
    /// two-column `(item, value)` result table — the body of the
    /// service/proxy `EXPLAIN <sql>` verb. Plans without executing. The
    /// `class` row is decided at the query service's default admission
    /// threshold; [`crate::QueryService::explain`] reports its own.
    pub fn explain_table(&self, sql: &str) -> Result<ResultTable, QservError> {
        self.explain_table_at(sql, planner::DEFAULT_INTERACTIVE_CHUNKS)
    }

    /// [`Qserv::explain_table`] with the `class` row decided at an
    /// admission `threshold`.
    pub(crate) fn explain_table_at(
        &self,
        sql: &str,
        threshold: usize,
    ) -> Result<ResultTable, QservError> {
        let items: Vec<(String, String)> = match self.prepare(sql)? {
            // There is no distributed plan to show.
            Statement::Local(_) => vec![
                ("access_path".to_string(), "frontend_local".to_string()),
                ("chunks".to_string(), "0".to_string()),
            ],
            Statement::Distributed(prepared) => {
                let class = QueryClass::of(prepared.chunks.len(), threshold);
                let mut items = vec![
                    ("class".to_string(), class.as_str().to_string()),
                    ("chunks".to_string(), prepared.chunks.len().to_string()),
                    (
                        "chunks_pruned".to_string(),
                        prepared.chunks_pruned.to_string(),
                    ),
                ];
                items.extend(prepared.choice.render_rows());
                items.push((
                    "merge_shape".to_string(),
                    format!("{:?}", prepared.plan.shape),
                ));
                items.push(("join".to_string(), format!("{:?}", prepared.plan.join)));
                items.push((
                    "placement_epoch".to_string(),
                    prepared.placement.epoch().to_string(),
                ));
                items
            }
        };
        Ok(ResultTable {
            columns: vec!["item".to_string(), "value".to_string()],
            rows: items
                .into_iter()
                .map(|(k, v)| {
                    vec![
                        qserv_engine::value::Value::Str(k),
                        qserv_engine::value::Value::Str(v),
                    ]
                })
                .collect(),
        })
    }

    /// The one place SQL text is read: parse → (FROM-less statements
    /// stop here; they run locally on the frontend) → analyze → plan →
    /// select the chunk set → pin the placement epoch. Parse and
    /// analysis errors surface here, so the query service rejects a
    /// broken query before it occupies a queue slot.
    pub(crate) fn prepare(&self, sql: &str) -> Result<Statement, QservError> {
        let stmt = parse_select(sql)?;
        if stmt.from.is_empty() {
            return Ok(Statement::Local(stmt));
        }
        let analysis = analyze(&stmt, &self.meta)?;
        let mut plan = build_plan(&analysis, &self.meta)?;
        let placement = self.placement.snapshot();
        // Candidate chunk sets: the spatially-restricted full scan and,
        // when an objectId point/IN predicate exists, the secondary
        // index's narrowing of it. The cost-based planner picks between
        // them, applies zone-map chunk elision to both, reorders the
        // chunk query's WHERE conjuncts by estimated selectivity, and
        // pushes ORDER BY + LIMIT down when statistics prove the sort
        // key unique (see [`crate::planner`]).
        let scan_chunks = self.chunk_set_spatial(&analysis, &placement);
        let index_chunks = analysis.index_ids.as_ref().map(|ids| {
            let selected = self.secondary.chunks_for(ids);
            let mut narrowed = scan_chunks.clone();
            narrowed.retain(|c| selected.binary_search(c).is_ok());
            narrowed
        });
        let planned = planner::choose(
            planner::PlannerContext {
                analysis: &analysis,
                zones: &self.zones,
                stats: &self.stats,
                scan_chunks,
                index_chunks,
            },
            self.plan_override.as_ref(),
            &mut plan,
        );
        let (choice, mut chunks, chunks_pruned) =
            (planned.choice, planned.chunks, planned.chunks_pruned);
        // A fully-restricted-away chunk set still dispatches one chunk:
        // its (empty) result gives the merge query real input columns, so
        // aggregates keep SQL semantics — COUNT over nothing is 0, not the
        // NULL that SUM-of-no-partials would produce.
        if chunks.is_empty() {
            chunks = placement.chunks().into_iter().take(1).collect();
        }
        // A LIMIT 0 statement returns no rows; one chunk's (empty) result
        // names its columns, so the rest are not sent.
        if stmt.limit == Some(0) {
            chunks.truncate(1);
        }
        if chunks.is_empty() {
            return Err(QservError::Analysis(
                "the cluster stores no chunks; load data before querying".to_string(),
            ));
        }
        Ok(Statement::Distributed(Prepared {
            analysis,
            plan,
            chunks,
            chunks_pruned,
            placement,
            choice,
        }))
    }

    /// Computes the full-scan candidate chunk set: all stored chunks,
    /// narrowed by the spatial restriction.
    fn chunk_set_spatial(&self, analysis: &Analysis, placement: &PlacementMap) -> Vec<i32> {
        let mut chunks = placement.chunks();
        if let Some(spec) = &analysis.spatial {
            let selected = self.chunker.chunks_intersecting(&spec.bounding_box());
            chunks.retain(|c| selected.binary_search(c).is_ok());
        }
        chunks
    }

    /// The subchunk list for one chunk of a near-neighbour query: the
    /// subchunks intersecting the spatial restriction, or all of them.
    fn subchunks_for(&self, prepared: &Prepared, chunk: i32) -> Vec<i32> {
        if prepared.plan.join != JoinClass::SubchunkNear {
            return Vec::new();
        }
        match &prepared.plan.spatial {
            Some(spec) => self
                .chunker
                .subchunks_intersecting(chunk, &spec.bounding_box())
                .unwrap_or_default(),
            None => self.chunker.subchunks_of(chunk).unwrap_or_default(),
        }
    }

    /// Renders and QID-tags every member's chunk queries in queue order:
    /// one statement's chunks in plan order; a convoy's chunk-major over
    /// the union of the members' chunk sets, in member order inside a
    /// chunk, so all of a chunk's queries leave back to back.
    fn render_jobs(&self, members: &[Member<'_, '_>]) -> Vec<Job> {
        let job = |member: usize, seq: usize, chunk: i32| {
            let prepared = members[member].prepared;
            let subs = self.subchunks_for(prepared, chunk);
            let message = render_chunk_message(&prepared.plan, &self.meta, chunk, &subs);
            Job {
                member,
                seq,
                chunk,
                message: self.tag_message(message),
            }
        };
        if let [only] = members {
            return only
                .prepared
                .chunks
                .iter()
                .enumerate()
                .map(|(seq, &chunk)| job(0, seq, chunk))
                .collect();
        }
        let union: BTreeSet<i32> = members
            .iter()
            .flat_map(|m| m.prepared.chunks.iter().copied())
            .collect();
        let mut next_seq = vec![0; members.len()];
        let mut jobs = Vec::new();
        for chunk in union {
            for (member, m) in members.iter().enumerate() {
                if m.prepared.chunks.contains(&chunk) {
                    jobs.push(job(member, next_seq[member], chunk));
                    next_seq[member] += 1;
                }
            }
        }
        jobs
    }

    /// The one loop that sends chunk queries: dispatches every job of
    /// `members` and merges each member's results. The calling
    /// thread is the only merger *and* one of the dispatchers: it folds
    /// whatever its `width − 1` helper threads have finished into the
    /// members' incremental [`Merger`]s, then takes the next job off the
    /// shared queue itself. So merging overlaps dispatch, the master holds
    /// only the merge state plus a small reorder buffer — not every chunk
    /// result at once — and no thread sleeps per chunk: a helper blocks
    /// only when `width` results are waiting unfolded, the caller only
    /// once the queue is empty. (In this in-process fabric a chunk query
    /// runs on the thread that writes it and can take 20 µs; one
    /// cross-core wake-up costs as much, so a merger that slept between
    /// arrivals would double the cost of every chunk.) At
    /// width 1 there are no helpers and the whole trace is a pure
    /// function of the input (bit-reproducible under a virtual clock and
    /// a fixed fault seed). A member that stops — its merger satisfied
    /// (a pushed-down LIMIT is met), its token cancelled, a chunk failed,
    /// or its sink closed — has its remaining jobs skipped while the
    /// other members carry on; skipped chunks are never sent, and a
    /// satisfied member counts them in
    /// [`QueryStats::chunks_skipped_by_limit`].
    pub(crate) fn dispatch_streaming(
        &self,
        members: Vec<Member<'_, '_>>,
    ) -> Result<Dispatched, QservError> {
        let jobs = self.render_jobs(&members);
        let width = effective_width(self.dispatch_width, jobs.len());
        let started = self.clock.now();
        // What helper threads may read of a member: its token, and
        // whether the merge side has stopped wanting its chunks.
        let live: Vec<(&CancelToken, AtomicBool)> = members
            .iter()
            .map(|m| (m.token, AtomicBool::new(false)))
            .collect();
        let mut arrivals: Vec<Arrivals> = members
            .into_iter()
            .map(|m| Arrivals::new(&self.clock, m))
            .collect();

        let queue = Mutex::new(JobQueue {
            jobs: jobs.into_iter(),
            last_chunk: None,
            passes: 0,
        });
        // Cancellation — by LIMIT cutoff, failure or an external KILL —
        // is checked between jobs: an in-flight chunk finishes (and is
        // drained below) but nothing new of that member leaves the queue.
        let next_job = || {
            let mut queue = queue.lock();
            while let Some(job) = queue.jobs.next() {
                let (token, stopped) = &live[job.member];
                if stopped.load(Ordering::Relaxed) || token.is_cancelled() {
                    continue;
                }
                if queue.last_chunk != Some(job.chunk) {
                    queue.last_chunk = Some(job.chunk);
                    queue.passes += 1;
                }
                return Some(job);
            }
            None
        };
        let ctx = trace::current();
        // At most `width` finished results wait for the merge and at most
        // `width` more are being produced, so what the master holds
        // beyond the merge state and its reorder buffer stays bounded.
        let (tx, rx) = mpsc::sync_channel::<(usize, usize, ChunkOutcome)>(width);
        let dispatch = |job: Job| {
            let token = live[job.member].0;
            let outcome = self.dispatch_one(job.chunk, &job.message, started, token);
            (job.member, job.seq, outcome)
        };
        // A panic on a helper or on this thread becomes a typed error
        // rather than unwinding into the caller's executor.
        catch_unwind(AssertUnwindSafe(|| {
            thread::scope(|scope| {
                // Owned here so that an unwinding caller drops it — releasing
                // helpers blocked in `send` — before the scope joins them.
                let rx = rx;
                for _ in 1..width {
                    let tx = tx.clone();
                    let (next_job, dispatch, ctx) = (&next_job, &dispatch, &ctx);
                    scope.spawn(move || {
                        // Helper threads parent their chunk spans under the
                        // span current on the calling thread
                        // (master.dispatch) — explicit cross-thread handoff.
                        let _tg = ctx.as_ref().map(|c| c.enter());
                        while let Some(job) = next_job() {
                            if tx.send(dispatch(job)).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                // Folding on this thread only keeps the merge single-threaded;
                // the mergers' reorder buffers make it deterministic
                // regardless of arrival order. Once an arrival asks to stop,
                // the channel is still drained so in-flight helpers can
                // finish their send and exit.
                let mut arrive = |(member, seq, outcome): (usize, usize, ChunkOutcome)| {
                    if !arrivals[member].arrive(seq, outcome) {
                        live[member].1.store(true, Ordering::Relaxed);
                    }
                };
                loop {
                    while let Ok(arrival) = rx.try_recv() {
                        arrive(arrival);
                    }
                    let Some(job) = next_job() else {
                        break;
                    };
                    arrive(dispatch(job));
                }
                while let Ok(arrival) = rx.recv() {
                    arrive(arrival);
                }
            })
        }))
        .map_err(|_| QservError::Fabric("dispatcher thread panicked".to_string()))?;

        Ok(Dispatched {
            results: arrivals.into_iter().map(Arrivals::finish).collect(),
            chunk_passes: queue.into_inner().passes,
        })
    }

    /// Dispatches one chunk with bounded retry: transient fabric errors
    /// back off exponentially and steer the next attempt away from the
    /// replicas that failed; the query-wide deadline turns a stuck chunk
    /// into [`QservError::Timeout`]. Backoff and the deadline both run on
    /// the master's clock (virtual under test: no real sleeping).
    /// `started` is the clock time the dispatch phase began.
    fn dispatch_one(
        &self,
        chunk: i32,
        message: &str,
        started: Duration,
        token: &CancelToken,
    ) -> Result<(Table, u64, ChunkMeta), QservError> {
        let span = trace::span("chunk");
        if let Some(g) = &span {
            g.annotate("chunk", &chunk.to_string());
        }
        let t0 = self.clock.now();
        let result = self.dispatch_one_retrying(chunk, message, started, token);
        match (&span, &result) {
            (Some(g), Ok((_, bytes, meta))) => {
                g.annotate("attempts", &meta.attempts.to_string());
                g.annotate("bytes", &bytes.to_string());
            }
            (Some(g), Err(e)) => g.annotate("error", &e.to_string()),
            _ => {}
        }
        result.map(|(table, bytes, mut meta)| {
            meta.latency = self.clock.now().saturating_sub(t0);
            (table, bytes, meta)
        })
    }

    /// The retry loop behind [`Qserv::dispatch_one`].
    fn dispatch_one_retrying(
        &self,
        chunk: i32,
        message: &str,
        started: Duration,
        token: &CancelToken,
    ) -> Result<(Table, u64, ChunkMeta), QservError> {
        let policy = &self.retry;
        let max_attempts = policy.max_attempts.max(1);
        let mut meta = ChunkMeta::default();
        let mut excluded: Vec<ServerId> = Vec::new();
        let mut last_err = QservError::Fabric(format!("chunk {chunk}: dispatch never attempted"));
        let mut attempt = 0;
        while attempt < max_attempts {
            // Cancellation is observed *between* attempts, never inside
            // dispatch_once's write → read → unlink sequence, so there is
            // no window in which a result file was written but will not
            // be consumed. Checked before the backoff: a killed chunk
            // must not sit out its exponential wait first.
            if token.is_cancelled() {
                return Err(QservError::Cancelled);
            }
            if attempt > 0 {
                let mut backoff = policy
                    .backoff_base
                    .saturating_mul(1u32 << (attempt - 1).min(16) as u32);
                if let Some(deadline) = policy.deadline {
                    let elapsed = self.clock.now().saturating_sub(started);
                    backoff = backoff.min(deadline.saturating_sub(elapsed));
                }
                if !backoff.is_zero() {
                    self.clock.sleep(backoff);
                }
            }
            if let Some(deadline) = policy.deadline {
                let elapsed = self.clock.now().saturating_sub(started);
                if elapsed >= deadline {
                    return Err(QservError::Timeout {
                        chunk,
                        elapsed_ms: elapsed.as_millis() as u64,
                    });
                }
            }
            let attempt_span = trace::span("attempt");
            if let Some(g) = &attempt_span {
                g.annotate("n", &(attempt + 1).to_string());
                if !excluded.is_empty() {
                    g.annotate("excluded", &format!("{excluded:?}"));
                }
            }
            match self.dispatch_once(chunk, message, &excluded, &mut meta) {
                Attempt::Ok(table, bytes) => {
                    meta.attempts = attempt + 1;
                    if let Some(g) = &attempt_span {
                        g.annotate("outcome", "ok");
                    }
                    return Ok((table, bytes, meta));
                }
                Attempt::Retry {
                    server,
                    injected,
                    reset_exclusions,
                    error,
                } => {
                    if let Some(g) = &attempt_span {
                        g.annotate("outcome", "retry");
                        g.annotate("error", &error.to_string());
                    }
                    if injected {
                        meta.injected_seen += 1;
                    }
                    if reset_exclusions && !excluded.is_empty() {
                        // Every replica is on the exclusion list: the
                        // probe touched no server, so re-admit them all
                        // without charging the attempt budget. (A reset
                        // can't repeat back-to-back — the next pass runs
                        // with an empty list — so the loop stays bounded
                        // by 2×max_attempts iterations.)
                        excluded.clear();
                    } else {
                        if let Some(s) = server {
                            if !excluded.contains(&s) {
                                excluded.push(s);
                            }
                            meta.prev_server = Some(s);
                        }
                        attempt += 1;
                    }
                    last_err = error;
                }
                Attempt::Fatal(e) => {
                    if let Some(g) = &attempt_span {
                        g.annotate("outcome", "fatal");
                    }
                    return Err(e);
                }
            }
        }
        Err(last_err)
    }

    /// One attempt at the two file transactions of §5.4 for one chunk,
    /// plus result parsing. Result files are consumed (unlinked) on every
    /// exit path that could leave one behind.
    fn dispatch_once(
        &self,
        chunk: i32,
        message: &str,
        excluded: &[ServerId],
        meta: &mut ChunkMeta,
    ) -> Attempt {
        let rp = result_path(&md5_hex(message.as_bytes()));
        let write = self.cluster.write_file_excluding(
            &query_path(chunk),
            message.as_bytes().to_vec(),
            excluded,
        );
        let worker = match write {
            Ok(w) => w,
            Err(e) => {
                // A close fault lands after the worker accepted the query
                // and deposited its result: scrub the orphan.
                if let XrdError::Injected {
                    server,
                    op: FabricOp::Close,
                    ..
                } = &e
                {
                    let _ = self.cluster.unlink(*server, &rp);
                }
                return classify_xrd(e);
            }
        };
        if let Some(prev) = meta.prev_server {
            if prev != worker {
                meta.failovers += 1;
            }
        }
        meta.prev_server = Some(worker);
        let payload = match self.cluster.read_file(worker, &rp) {
            Ok(p) => p,
            // The write was accepted but nothing was deposited: the
            // server stopped exporting the chunk between the redirector's
            // (cached) resolution and the close, so its plugin never ran.
            // That replica moved away; another one answers.
            Err(e @ XrdError::NoSuchFile { .. }) => {
                return Attempt::Retry {
                    server: Some(worker),
                    injected: false,
                    reset_exclusions: false,
                    error: QservError::from(e),
                };
            }
            Err(e) => {
                // The result file exists on the worker even though we
                // could not fetch it; consume it before retrying.
                let _ = self.cluster.unlink(worker, &rp);
                return classify_xrd(e);
            }
        };
        // Consume the result before parsing, so no exit path below can
        // leak it. A faulted unlink gets one immediate retry, then is
        // abandoned (a later dispatch of this chunk query overwrites it).
        if self.cluster.unlink(worker, &rp).is_err() {
            let _ = self.cluster.unlink(worker, &rp);
        }
        let bytes = payload.len() as u64;
        // Payload corruption is a fabric problem, and a moved chunk a
        // placement one: retry re-executes the chunk on a replica and
        // re-fetches a clean copy.
        let retry = |what: String| Attempt::Retry {
            server: Some(worker),
            injected: false,
            reset_exclusions: false,
            error: QservError::Fabric(format!("chunk {chunk}: {what}")),
        };
        let Some(err) = payload.strip_prefix(b"ERROR:") else {
            // Anything but an error reply is a result frame, whose CRC
            // catches damage in flight (a mangled magic included).
            return match decode_frame(&payload) {
                Ok((table, scan)) => {
                    meta.scan = scan;
                    Attempt::Ok(table, bytes)
                }
                Err(e) => retry(format!("result frame: {e}")),
            };
        };
        let Ok(err) = std::str::from_utf8(err) else {
            return retry("error reply is not UTF-8".to_string());
        };
        // A worker that no longer holds the chunk (rebalanced away between
        // redirector routing and plugin execution) NACKs with a RETRYABLE
        // marker: fail over to another replica instead of surfacing a
        // fatal worker error.
        if let Some(moved) = err.trim().strip_prefix("RETRYABLE:") {
            return retry(moved.trim().to_string());
        }
        Attempt::Fatal(QservError::Worker {
            chunk,
            message: err.trim().to_string(),
        })
    }
}
