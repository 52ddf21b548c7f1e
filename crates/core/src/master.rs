//! The Qserv master (frontend): end-to-end distributed query execution.
//!
//! Every public entry point (`query`, `query_with_stats`, `query_traced`,
//! `xmatch`, `explain`, `explain_table`) is
//! `Qserv::prepare` plus a use of the prepared statement. `prepare` is
//! the one place SQL text is read: parse → analyze (§5.3) → plan →
//! select the chunk set (spatial restriction and/or secondary index) →
//! pin the placement epoch. `Qserv::run` executes that value — the query
//! service prepares at admission and hands the same value to its
//! executor, so what was classified is what runs: group the chunks by
//! the worker each resolves to → send each group as one chunk-query
//! *bundle*, its statements rendered once, in two file transactions on
//! the fabric (§5.4) from the calling thread and its helper threads
//! (`crate::dispatch`) → read back one result section per chunk, each a
//! checksummed column-page frame (the paper ships `mysqldump` text; §7.1
//! names that round trip as the overhead to engineer away) → fold each
//! into the incremental merge as it arrives (`crate::merge`) → run the
//! merge/aggregation query → return rows to the caller, or push them
//! through the caller's sink as they become final
//! (`QueryService::submit_streaming`).

use crate::analysis::{analyze, check_output_names, Analysis, JoinClass};
use crate::error::QservError;
use crate::merge::StreamBatch;
use crate::meta::{CatalogMeta, ChunkZones, TableStats};
use crate::placement::PlacementManager;
use crate::planner::{self, PlanChoice, PlanOverride};
use crate::rewrite::{build_plan, render_chunk_message, MergeShape, PhysicalPlan};
use crate::service::QueryClass;
use crate::stats::QueryMetrics;
pub use crate::stats::QueryStats;
use crate::worker::Worker;
use qserv_engine::db::Database;
use qserv_engine::exec::{execute, ResultTable};
use qserv_obs::clock::{wall_clock, SharedClock};
use qserv_obs::trace;
use qserv_obs::{MetricsSnapshot, Trace};
use qserv_partition::chunker::Chunker;
use qserv_partition::index::SecondaryIndex;
use qserv_partition::placement::PlacementMap;
use qserv_sqlparse::ast::SelectStatement;
use qserv_sqlparse::parse_select;
use qserv_xrd::cluster::XrdCluster;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Pushes a statement's final batch through a streaming sink (always
/// sent, possibly empty). Returns the result's shell — columns, no
/// rows — which is what the streaming entry points hand back, the rows
/// having left through the sink.
pub(crate) fn emit_final(
    batch: StreamBatch,
    sink: &mut dyn FnMut(StreamBatch) -> bool,
) -> ResultTable {
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
/// Cancellation is *cooperative* — the master checks the token at
/// bundle boundaries (before a bundle leaves the queue, before each
/// retry round) and at merge-fold boundaries, never in the middle of a
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

/// The optional row sink of one query: `Some` pushes merged row batches
/// out as they become final, or as one batch at completion for merges
/// that cannot stream (the merge statement's answer, keep-nearest). The
/// final batch is always pushed, even when empty. A sink returning
/// `false` aborts the query like a cancel: the LIMIT-cutoff and
/// disconnect paths of [`crate::QueryService::submit_streaming`].
pub(crate) type Sink<'a> = Option<&'a mut dyn FnMut(StreamBatch) -> bool>;

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
    pub(crate) cluster: XrdCluster,
    chunker: Chunker,
    pub(crate) meta: CatalogMeta,
    /// Epoch-stamped chunk→replica placement. Queries pin one snapshot
    /// at prepare time; membership operations ([`Qserv::fail_node`],
    /// [`Qserv::join_node`], …) commit new epochs.
    placement: Arc<PlacementManager>,
    secondary: SecondaryIndex,
    workers: Vec<Arc<Worker>>,
    /// The clock dispatch deadlines, retry backoff, and traces read.
    /// Wall by default; [`Qserv::set_clock`] swaps in a virtual one.
    pub(crate) clock: SharedClock,
    /// How many chunk bundles of one statement are in flight at once:
    /// the calling thread plus `dispatch_width − 1` helper threads; each
    /// worker's chunks are cut into ⌈width ÷ workers touched⌉ bundles.
    /// Defaults to one per core, at most 8: the in-process fabric runs a
    /// bundle on the thread that writes it, so dispatchers are
    /// compute threads — more of them than cores adds no overlap, only
    /// context switches, and crowds out other sessions' threads (the
    /// lookups beside a scan of Figure 14).
    pub dispatch_width: usize,
    /// Chunk-dispatch retry behavior.
    pub retry: RetryPolicy,
    /// Dispatch counter: tags each chunk bundle's message with a unique
    /// `-- QID:` line so identical concurrent queries hash to distinct
    /// result paths (the paper's raw MD5-of-query addressing collides
    /// there). Scoped to the cluster — not the process — so a freshly
    /// built cluster replays the same result paths, keeping seeded fault
    /// schedules reproducible.
    pub(crate) qid: AtomicU64,
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
    /// service's executors: takes a prepared statement, dispatches its
    /// chunks over the fabric in bundles and folds results into the
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
            self.dispatch_streaming(
                &prepared,
                &qm,
                token,
                counting
                    .as_mut()
                    .map(|s| s as &mut dyn FnMut(StreamBatch) -> bool),
            )?
        };
        // Record the plan's instruments and the estimate-vs-actual error
        // on the query span. Under a sink the returned table is empty by
        // design and the rows it was handed are the actual.
        let actual = match counting {
            Some(_) => sent,
            None => result.num_rows() as u64,
        };
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

    /// The one place SQL text is read: parse → reject repeated output
    /// names → (FROM-less statements stop here; they run locally on the
    /// frontend) → analyze → plan → select the chunk set → pin the
    /// placement epoch. Parse and analysis errors surface here, so the
    /// query service rejects a broken query before it occupies a queue
    /// slot.
    pub(crate) fn prepare(&self, sql: &str) -> Result<Statement, QservError> {
        let stmt = parse_select(sql)?;
        check_output_names(&stmt)?;
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
    pub(crate) fn subchunks_for(&self, prepared: &Prepared, chunk: i32) -> Vec<i32> {
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
}
