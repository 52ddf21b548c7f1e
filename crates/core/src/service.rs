//! The concurrent query service: admission control, fair scheduling,
//! and cancellation.
//!
//! The paper evaluates Qserv under concurrent load (§7 drives up to 50
//! simultaneous queries; Figure 14 shows short queries starving behind
//! full scans when nothing schedules them). [`Qserv::query`] is a
//! library call — one query, one caller, no queueing — so this module
//! adds the *service* layer that sits between the proxy and the master:
//!
//! * **Admission control** — a bounded per-class queue. A full queue
//!   rejects with [`QservError::Busy`] (backpressure the proxy turns
//!   into a `BUSY` frame with a retry-after hint) instead of letting
//!   the frontend accumulate unbounded work.
//! * **Prepare once, at admission** — `Qserv::prepare` parses, analyzes
//!   and plans the statement and pins its placement epoch; the prepared
//!   value is what is classified, queued and finally executed, so class,
//!   cost, epoch and `EXPLAIN` cannot disagree with what runs. Every
//!   admitted statement executes: the service has one answer path,
//!   prepare → queue → `Qserv::run` → reply. A query's cost is the size
//!   of the chunk set it dispatches: at most
//!   [`ServiceConfig::interactive_chunk_threshold`] chunks →
//!   `Interactive`; more → `Scan`. Parse/analysis errors surface before
//!   admission and never occupy a queue slot.
//! * **Fair dequeue** — a deficit-round-robin scheduler over the two
//!   classes with a global concurrency limit and a *scan cap* that
//!   reserves execution slots for interactive queries, so a saturating
//!   scan workload cannot starve short queries (the Figure-14 fix).
//! * **Cooperative cancellation** — every admitted query carries a
//!   [`CancelToken`]; `KILL` cancels a queued query immediately and
//!   stops a running one at its next chunk-dispatch or merge-fold
//!   boundary, with result files consumed (never stranded) on the
//!   fabric.
//!
//! The scheduler itself ([`FairScheduler`]) is a pure state machine —
//! no threads, no clock — so property tests can replay arbitrary
//! arrival schedules against it deterministically on a virtual clock.

use crate::error::QservError;
use crate::master::{CancelToken, Qserv, QueryStats, Statement};
use crate::merge::{StreamBatch, StreamCollector};
use qserv_engine::exec::ResultTable;
use qserv_obs::clock::SharedClock;
use qserv_obs::trace;
use qserv_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Trace};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Canonical instrument names on the service's metrics registry.
pub mod names {
    /// Counter: interactive queries admitted to the queue.
    pub const ADMITTED_INTERACTIVE: &str = "service.admitted.interactive";
    /// Counter: scan queries admitted to the queue.
    pub const ADMITTED_SCAN: &str = "service.admitted.scan";
    /// Counter: interactive queries rejected with `Busy`.
    pub const REJECTED_INTERACTIVE: &str = "service.rejected.interactive";
    /// Counter: scan queries rejected with `Busy`.
    pub const REJECTED_SCAN: &str = "service.rejected.scan";
    /// Counter: queries that completed successfully.
    pub const COMPLETED: &str = "service.completed";
    /// Counter: queries that failed with an execution error.
    pub const FAILED: &str = "service.failed";
    /// Counter: queries cancelled (queued or running) by `KILL`.
    pub const CANCELLED: &str = "service.cancelled";
    /// Gauge: interactive queries currently queued.
    pub const QUEUE_DEPTH_INTERACTIVE: &str = "service.queue_depth.interactive";
    /// Gauge: scan queries currently queued.
    pub const QUEUE_DEPTH_SCAN: &str = "service.queue_depth.scan";
    /// Gauge (high-water): deepest the interactive queue ever got.
    pub const QUEUE_PEAK_INTERACTIVE: &str = "service.queue_peak.interactive";
    /// Gauge (high-water): deepest the scan queue ever got.
    pub const QUEUE_PEAK_SCAN: &str = "service.queue_peak.scan";
    /// Gauge: queries executing right now.
    pub const RUNNING: &str = "service.running";
    /// Histogram: queueing wait (ms) of interactive queries.
    pub const WAIT_MS_INTERACTIVE: &str = "service.wait_ms.interactive";
    /// Histogram: queueing wait (ms) of scan queries.
    pub const WAIT_MS_SCAN: &str = "service.wait_ms.scan";
    /// Histogram: execution time (ms) of interactive queries.
    pub const RUN_MS_INTERACTIVE: &str = "service.run_ms.interactive";
    /// Histogram: execution time (ms) of scan queries.
    pub const RUN_MS_SCAN: &str = "service.run_ms.scan";
}

/// The two §7 workload classes the service schedules between.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Few chunks (secondary-index or spatially restricted): latency
    /// matters.
    Interactive,
    /// A large chunk set (full-sky scan): throughput matters, latency
    /// does not.
    Scan,
}

impl QueryClass {
    /// The class of a statement dispatching `chunks` chunks under an
    /// admission `threshold`: the one decision admission queues on and
    /// `EXPLAIN`'s `class` row reports.
    pub(crate) fn of(chunks: usize, threshold: usize) -> QueryClass {
        if chunks <= threshold {
            QueryClass::Interactive
        } else {
            QueryClass::Scan
        }
    }

    fn idx(self) -> usize {
        match self {
            QueryClass::Interactive => 0,
            QueryClass::Scan => 1,
        }
    }

    /// Stable lowercase name (used in `STATUS` rows and metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Scan => "scan",
        }
    }
}

/// Tuning knobs for [`QueryService`] (and the [`FairScheduler`] inside
/// it).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Queries executing concurrently, all classes together (also the
    /// executor-pool width).
    pub max_concurrent: usize,
    /// Of those, how many may be scans. The difference
    /// `max_concurrent - max_scan_concurrent` is the slot reserve that
    /// keeps interactive queries responsive under scan saturation.
    pub max_scan_concurrent: usize,
    /// Queued (admitted, not yet running) queries allowed per class;
    /// beyond this, `submit` rejects with [`QservError::Busy`].
    pub queue_capacity: usize,
    /// Chunk-set sizes up to this classify as `Interactive`.
    pub interactive_chunk_threshold: usize,
    /// Deficit-round-robin quantum credited to the interactive class
    /// per scheduling round (units: chunks).
    pub interactive_quantum: u64,
    /// Quantum credited to the scan class per round.
    pub scan_quantum: u64,
    /// The retry-after hint carried by [`QservError::Busy`].
    pub retry_after: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_concurrent: 4,
            max_scan_concurrent: 2,
            queue_capacity: 64,
            interactive_chunk_threshold: crate::planner::DEFAULT_INTERACTIVE_CHUNKS,
            // Interactive gets the larger quantum: many cheap tickets
            // per round vs. the occasional expensive scan ticket.
            interactive_quantum: 64,
            scan_quantum: 16,
            retry_after: Duration::from_millis(25),
        }
    }
}

/// One schedulable query in the [`FairScheduler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ticket {
    /// Service-wide query id (the `KILL` handle).
    pub qid: u64,
    /// Admission class.
    pub class: QueryClass,
    /// Scheduling cost: the chunk-set size (≥ 1).
    pub cost: u64,
}

/// Deficit-round-robin admission scheduler over the two query classes.
///
/// A pure state machine: `admit` enqueues, `next_ticket` picks the
/// ticket that may start now (or `None` — queues empty, concurrency
/// limit reached, or the scan cap blocking every waiter), `complete`
/// releases a slot.
/// No threads, no clock — [`QueryService`] drives it under a mutex, and
/// the fairness property test replays random arrival schedules against
/// it on a virtual clock.
///
/// DRR, as applied here: each class queue owns a *deficit counter*.
/// When both classes have waiters, the round-robin pointer visits a
/// class, credits its quantum, and dequeues its head if the head's cost
/// fits the accumulated deficit — otherwise the pointer moves on and
/// the deficit persists, so an expensive scan eventually accumulates
/// the credit to run, while a stream of cheap interactive tickets keeps
/// flowing in between. When only one class has eligible waiters the
/// scheduler is work-conserving: it dequeues without charging deficit.
#[derive(Debug)]
pub struct FairScheduler {
    max_concurrent: usize,
    max_scan_concurrent: usize,
    queue_capacity: usize,
    quantum: [u64; 2],
    queues: [VecDeque<Ticket>; 2],
    deficit: [u64; 2],
    turn: usize,
    /// Whether the current turn's quantum has been credited (DRR
    /// credits once per visit, then serves until the deficit runs out).
    visited: bool,
    running: [usize; 2],
}

impl FairScheduler {
    /// A scheduler with `cfg`'s queue/concurrency/quantum knobs.
    pub fn new(cfg: &ServiceConfig) -> FairScheduler {
        FairScheduler {
            max_concurrent: cfg.max_concurrent.max(1),
            max_scan_concurrent: cfg.max_scan_concurrent.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            quantum: [cfg.interactive_quantum.max(1), cfg.scan_quantum.max(1)],
            queues: [VecDeque::new(), VecDeque::new()],
            deficit: [0, 0],
            turn: 0,
            visited: false,
            running: [0, 0],
        }
    }

    /// Enqueues a query; `false` means the class queue is full (the
    /// caller surfaces [`QservError::Busy`]).
    pub fn admit(&mut self, qid: u64, class: QueryClass, cost: u64) -> bool {
        let q = &mut self.queues[class.idx()];
        if q.len() >= self.queue_capacity {
            return false;
        }
        q.push_back(Ticket {
            qid,
            class,
            cost: cost.max(1),
        });
        true
    }

    /// Removes a queued query (a `KILL` before it started); `false` if
    /// it is not queued.
    pub fn remove(&mut self, qid: u64) -> bool {
        for q in &mut self.queues {
            if let Some(pos) = q.iter().position(|t| t.qid == qid) {
                q.remove(pos);
                return true;
            }
        }
        false
    }

    /// The next ticket allowed to start, if any. The caller owns the
    /// released slot and must pair it with [`FairScheduler::complete`].
    pub fn next_ticket(&mut self) -> Option<Ticket> {
        if self.running_total() >= self.max_concurrent {
            return None;
        }
        loop {
            // A class with an empty queue forfeits its credit — classic
            // DRR, so an idle class cannot bank an unbounded burst.
            for c in 0..2 {
                if self.queues[c].is_empty() {
                    self.deficit[c] = 0;
                }
            }
            let eligible = |s: &FairScheduler, c: usize| {
                !s.queues[c].is_empty() && (c == 0 || s.running[1] < s.max_scan_concurrent)
            };
            match (eligible(self, 0), eligible(self, 1)) {
                (false, false) => return None,
                // Only one class has eligible waiters: work-conserving
                // dequeue, no deficit charged.
                (true, false) => return Some(self.pop(0)),
                (false, true) => return Some(self.pop(1)),
                (true, true) => {
                    let c = self.turn;
                    if !self.visited {
                        self.deficit[c] += self.quantum[c];
                        self.visited = true;
                    }
                    let cost = self.queues[c].front().expect("eligible queue").cost;
                    if cost <= self.deficit[c] {
                        self.deficit[c] -= cost;
                        return Some(self.pop(c));
                    }
                    // Credit exhausted (or the head too expensive for
                    // this round's quantum): the deficit persists — an
                    // expensive scan banks credit across rounds — and
                    // the other class gets its visit.
                    self.turn = 1 - c;
                    self.visited = false;
                }
            }
        }
    }

    fn pop(&mut self, c: usize) -> Ticket {
        let t = self.queues[c].pop_front().expect("pop from empty queue");
        self.running[c] += 1;
        t
    }

    /// Releases the execution slot a [`FairScheduler::next_ticket`]
    /// ticket held.
    pub fn complete(&mut self, class: QueryClass) {
        let c = class.idx();
        debug_assert!(self.running[c] > 0, "complete without a running query");
        self.running[c] = self.running[c].saturating_sub(1);
    }

    /// Queued (not yet running) queries of `class`.
    pub fn queued(&self, class: QueryClass) -> usize {
        self.queues[class.idx()].len()
    }

    /// Running queries of `class`.
    pub fn running(&self, class: QueryClass) -> usize {
        self.running[class.idx()]
    }

    /// Running queries, all classes.
    pub fn running_total(&self) -> usize {
        self.running[0] + self.running[1]
    }
}

/// Lifecycle of a submitted query, as `STATUS` reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryState {
    /// Admitted, waiting for an execution slot.
    Queued,
    /// Executing on the master.
    Running,
    /// Finished successfully.
    Done,
    /// Finished with an execution error.
    Failed,
    /// Cancelled by `KILL` (or service shutdown).
    Cancelled,
}

impl QueryState {
    /// Stable lowercase name (used in `STATUS` rows).
    pub fn as_str(self) -> &'static str {
        match self {
            QueryState::Queued => "queued",
            QueryState::Running => "running",
            QueryState::Done => "done",
            QueryState::Failed => "failed",
            QueryState::Cancelled => "cancelled",
        }
    }
}

/// What `KILL <qid>` accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillOutcome {
    /// The query was still queued: removed, its waiter gets
    /// [`QservError::Cancelled`] immediately.
    CancelledQueued,
    /// The query is running: its token is cancelled, it stops at the
    /// next chunk or fold boundary.
    Cancelling,
    /// The query had already reached a terminal state.
    Finished,
    /// No such query id.
    Unknown,
}

impl KillOutcome {
    /// Stable lowercase name (used in the `KILL` result row).
    pub fn as_str(self) -> &'static str {
        match self {
            KillOutcome::CancelledQueued => "cancelled",
            KillOutcome::Cancelling => "cancelling",
            KillOutcome::Finished => "finished",
            KillOutcome::Unknown => "unknown",
        }
    }
}

/// One `STATUS` row.
#[derive(Clone, Debug)]
pub struct QueryStatus {
    /// Service-wide query id.
    pub qid: u64,
    /// Admission class.
    pub class: QueryClass,
    /// Current lifecycle state.
    pub state: QueryState,
    /// The SQL text (truncated for display).
    pub sql: String,
    /// Time spent queued (final once running).
    pub wait: Duration,
    /// Time spent executing so far (final once terminal).
    pub run: Duration,
}

/// Everything the service hands back for one completed query.
#[derive(Debug)]
pub struct ServiceReply {
    /// Service-wide query id.
    pub qid: u64,
    /// Admission class.
    pub class: QueryClass,
    /// Rows + stats, or the failure ([`QservError::Cancelled`] after a
    /// `KILL`).
    pub result: Result<(ResultTable, QueryStats), QservError>,
    /// Time the query spent queued.
    pub wait: Duration,
    /// Time the query spent executing.
    pub run: Duration,
}

/// The submitter's side of an admitted query: await the reply, or
/// cancel it.
pub struct QueryHandle {
    /// Service-wide query id (the `KILL` handle).
    pub qid: u64,
    /// Admission class the query was classified into.
    pub class: QueryClass,
    token: CancelToken,
    rx: mpsc::Receiver<ServiceReply>,
}

impl QueryHandle {
    /// Blocks until the query finishes (or is cancelled) and returns
    /// the reply.
    pub fn wait(self) -> ServiceReply {
        let qid = self.qid;
        let class = self.class;
        self.rx.recv().unwrap_or(ServiceReply {
            qid,
            class,
            result: Err(QservError::Cancelled),
            wait: Duration::ZERO,
            run: Duration::ZERO,
        })
    }

    /// The query's cancellation token (shared with the service).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }
}

/// Callback invoked after each streaming event is queued. The proxy
/// wires this to its reactor waker so a blocked event loop learns of
/// new frames without polling the channel.
pub type Notifier = Arc<dyn Fn() + Send + Sync>;

/// Streaming replies buffer this many events before the executor's
/// send blocks — the backpressure that ultimately stalls chunk workers
/// when a client stops draining. Two lets the merge cut its next batch
/// while the consumer frames the previous one; every further slot is
/// merged rows held in memory that the client has not asked for yet.
const STREAM_EVENT_BACKLOG: usize = 2;

/// Terminal event of a streaming query; nothing follows it.
#[derive(Debug)]
pub struct StreamDone {
    /// Service-wide query id.
    pub qid: u64,
    /// Admission class.
    pub class: QueryClass,
    /// Stats on success, or the failure. An error after batches were
    /// already delivered means those rows must be discarded — the
    /// result is the error.
    pub result: Result<QueryStats, QservError>,
    /// The span tree, for traced submissions — present even when
    /// `result` is an error, so a killed query's trace still validates.
    pub trace: Option<Trace>,
    /// Time the query spent queued.
    pub wait: Duration,
    /// Time the query spent executing.
    pub run: Duration,
}

/// What a streaming submission's channel carries: zero or more row
/// batches, then exactly one [`StreamEvent::Done`].
#[derive(Debug)]
pub enum StreamEvent {
    /// Merged rows in final order — chunk tables, not copied rows. A
    /// batch carries no column types: each part keeps its own schema,
    /// and a column's type is that of the first part holding a non-NULL
    /// value in it (see [`StreamBatch`]); delivered values never change
    /// type.
    Batch(StreamBatch),
    /// The query finished.
    Done(StreamDone),
}

/// The submitter's side of a streaming query: drain events as they
/// arrive, or cancel.
pub struct StreamHandle {
    /// Service-wide query id (the `KILL` handle).
    pub qid: u64,
    /// Admission class.
    pub class: QueryClass,
    token: CancelToken,
    rx: mpsc::Receiver<StreamEvent>,
}

/// Everything a drained stream folds down to (what
/// [`StreamHandle::collect`] returns).
#[derive(Debug)]
pub struct StreamOutcome {
    /// The reassembled table + stats, or the failure.
    pub result: Result<(ResultTable, QueryStats), QservError>,
    /// The span tree, for traced submissions.
    pub trace: Option<Trace>,
    /// Time the query spent queued.
    pub wait: Duration,
    /// Time the query spent executing.
    pub run: Duration,
}

impl StreamHandle {
    /// Blocks for the next event; `None` once the stream is exhausted
    /// (or the service died — treat as cancelled).
    pub fn recv(&self) -> Option<StreamEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking [`StreamHandle::recv`].
    pub fn try_recv(&self) -> Option<StreamEvent> {
        self.rx.try_recv().ok()
    }

    /// The query's cancellation token (shared with the service).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Cancels the query; in-flight batches already delivered stay
    /// delivered, and `Done` reports [`QservError::Cancelled`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Drains the stream to completion and reassembles the buffered
    /// result — byte-identical to what a non-streaming submit returns.
    pub fn collect(self) -> StreamOutcome {
        let mut collector = StreamCollector::default();
        while let Some(ev) = self.recv() {
            match ev {
                StreamEvent::Batch(batch) => collector.push(batch),
                StreamEvent::Done(done) => {
                    return StreamOutcome {
                        result: done.result.map(|stats| (collector.table(), stats)),
                        trace: done.trace,
                        wait: done.wait,
                        run: done.run,
                    };
                }
            }
        }
        // Channel closed without a Done: the service was dropped.
        StreamOutcome {
            result: Err(QservError::Cancelled),
            trace: None,
            wait: Duration::ZERO,
            run: Duration::ZERO,
        }
    }
}

/// Handles on the service-wide metrics registry.
struct ServiceMetrics {
    registry: Arc<MetricsRegistry>,
    admitted: [Counter; 2],
    rejected: [Counter; 2],
    completed: Counter,
    failed: Counter,
    cancelled: Counter,
    queue_depth: [Gauge; 2],
    queue_peak: [Gauge; 2],
    running: Gauge,
    wait_ms: [Histogram; 2],
    run_ms: [Histogram; 2],
}

impl ServiceMetrics {
    fn new() -> ServiceMetrics {
        let r = Arc::new(MetricsRegistry::new());
        ServiceMetrics {
            admitted: [
                r.counter(names::ADMITTED_INTERACTIVE),
                r.counter(names::ADMITTED_SCAN),
            ],
            rejected: [
                r.counter(names::REJECTED_INTERACTIVE),
                r.counter(names::REJECTED_SCAN),
            ],
            completed: r.counter(names::COMPLETED),
            failed: r.counter(names::FAILED),
            cancelled: r.counter(names::CANCELLED),
            queue_depth: [
                r.gauge(names::QUEUE_DEPTH_INTERACTIVE),
                r.gauge(names::QUEUE_DEPTH_SCAN),
            ],
            queue_peak: [
                r.gauge(names::QUEUE_PEAK_INTERACTIVE),
                r.gauge(names::QUEUE_PEAK_SCAN),
            ],
            running: r.gauge(names::RUNNING),
            wait_ms: [
                r.histogram(names::WAIT_MS_INTERACTIVE),
                r.histogram(names::WAIT_MS_SCAN),
            ],
            run_ms: [
                r.histogram(names::RUN_MS_INTERACTIVE),
                r.histogram(names::RUN_MS_SCAN),
            ],
            registry: r,
        }
    }
}

/// Where an admitted query's rows and terminal event go. Every query
/// executes the same way; the two submission kinds differ only here.
enum ReplyTo {
    /// [`QueryService::submit`]: batches collect inside the executor and
    /// leave as one reply, so the execution slot is held only while the
    /// query runs — never until the caller gets around to `wait()`.
    Buffered {
        tx: mpsc::SyncSender<ServiceReply>,
        rows: StreamCollector,
    },
    /// [`QueryService::submit_streaming`]: batches leave as they merge.
    Streaming {
        tx: mpsc::SyncSender<StreamEvent>,
        notify: Option<Notifier>,
    },
}

impl ReplyTo {
    /// Delivers one merged batch; `false` means the consumer is gone
    /// and the rest of the query should be cancelled.
    fn batch(&mut self, batch: StreamBatch) -> bool {
        match self {
            ReplyTo::Buffered { rows, .. } => {
                rows.push(batch);
                true
            }
            ReplyTo::Streaming { tx, notify } => {
                // A blocking send is the backpressure: the merge (and,
                // through it, chunk dispatch) stalls until the client
                // drains. A hung-up receiver errors the send.
                let delivered = tx.send(StreamEvent::Batch(batch)).is_ok();
                if let Some(n) = notify {
                    n();
                }
                delivered
            }
        }
    }

    /// Delivers the terminal event. The submitter may have dropped its
    /// handle; that is its loss, not an executor error.
    fn done(self, done: StreamDone) {
        match self {
            ReplyTo::Buffered { tx, rows } => {
                let _ = tx.try_send(ServiceReply {
                    qid: done.qid,
                    class: done.class,
                    result: done.result.map(|stats| (rows.table(), stats)),
                    wait: done.wait,
                    run: done.run,
                });
            }
            ReplyTo::Streaming { tx, notify } => {
                let _ = tx.send(StreamEvent::Done(done));
                if let Some(n) = notify {
                    n();
                }
            }
        }
    }
}

/// A queued query's execution context, parked until a slot frees.
struct PendingEntry {
    /// The SQL text, for the trace root's annotation only.
    sql: String,
    /// What admission prepared; the executor runs exactly this.
    statement: Statement,
    /// `Some(root span name)` for traced submissions.
    traced: Option<String>,
    reply: ReplyTo,
    token: CancelToken,
    admitted_at: Duration,
}

/// The `STATUS` registry entry for one query (kept through terminal
/// states, pruned oldest-first).
struct Record {
    class: QueryClass,
    state: QueryState,
    sql: String,
    token: CancelToken,
    admitted_at: Duration,
    started_at: Option<Duration>,
    finished_at: Option<Duration>,
}

/// Terminal records kept for `STATUS` before pruning kicks in.
const RECORD_HISTORY: usize = 512;

/// `STATUS` shows at most this much SQL per query.
const SQL_DISPLAY_LEN: usize = 120;

struct ServiceState {
    sched: FairScheduler,
    pending: HashMap<u64, PendingEntry>,
    records: BTreeMap<u64, Record>,
    shutdown: bool,
}

struct Inner {
    qserv: Arc<Qserv>,
    cfg: ServiceConfig,
    state: Mutex<ServiceState>,
    cv: Condvar,
    metrics: ServiceMetrics,
    next_qid: AtomicU64,
    clock: SharedClock,
}

/// The concurrent query service over one [`Qserv`] frontend.
///
/// `submit` classifies and enqueues (or rejects with
/// [`QservError::Busy`]); an executor pool of
/// [`ServiceConfig::max_concurrent`] threads drains the
/// [`FairScheduler`]; `kill` cancels by qid; `status` lists every known
/// query. Dropping the service cancels running queries, drains the
/// queue with [`QservError::Cancelled`], and joins the executors.
pub struct QueryService {
    inner: Arc<Inner>,
    executors: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Starts the service (and its executor pool) over `qserv`.
    pub fn start(qserv: Arc<Qserv>, cfg: ServiceConfig) -> QueryService {
        let clock = qserv.clock().clone();
        let inner = Arc::new(Inner {
            state: Mutex::new(ServiceState {
                sched: FairScheduler::new(&cfg),
                pending: HashMap::new(),
                records: BTreeMap::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            metrics: ServiceMetrics::new(),
            next_qid: AtomicU64::new(1),
            clock,
            cfg,
            qserv,
        });
        let width = inner.cfg.max_concurrent.max(1);
        let executors = (0..width)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.executor_loop())
            })
            .collect();
        QueryService { inner, executors }
    }

    /// The frontend this service schedules onto.
    pub fn qserv(&self) -> &Arc<Qserv> {
        &self.inner.qserv
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }

    /// Submits a query for scheduled execution. Returns immediately
    /// with a handle (await it with [`QueryHandle::wait`]), or an error:
    /// parse/analysis failures surface here, and a full class queue
    /// rejects with [`QservError::Busy`]. The result is collected by the
    /// executor, so an un-awaited handle never occupies an execution
    /// slot beyond the query's own run time.
    pub fn submit(&self, sql: &str) -> Result<QueryHandle, QservError> {
        // Buffered by one: the executor's send always completes even
        // if the submitter abandoned the handle.
        let (tx, rx) = mpsc::sync_channel(1);
        let rows = StreamCollector::default();
        let a = self
            .inner
            .admit(sql, None, ReplyTo::Buffered { tx, rows })?;
        Ok(QueryHandle {
            qid: a.qid,
            class: a.class,
            token: a.token,
            rx,
        })
    }

    /// Submits a query whose results stream back as merged batches
    /// while later chunks are still scanning. Admission, classification,
    /// and rejection behave exactly like [`QueryService::submit`]; the
    /// reply arrives as [`StreamEvent`]s on the returned handle. Dropping
    /// the handle mid-stream cancels the remaining chunk work.
    ///
    /// With `root`, the query records a full span tree rooted at that
    /// name (the proxy passes `"proxy.request"`), with a `service.admit`
    /// span annotating class, cost, and queueing wait, delivered in the
    /// terminal [`StreamDone`]. `notify` is invoked after each event is
    /// queued — the proxy's reactor hook.
    ///
    /// Exactness: the concatenation of all batches is byte-identical to
    /// the table [`QueryService::submit`] returns. Every column has one
    /// type for the whole result (see [`crate::merge`]); a later batch may
    /// only fill in the type of a column that was all-NULL until then.
    pub fn submit_streaming(
        &self,
        sql: &str,
        root: Option<&str>,
        notify: Option<Notifier>,
    ) -> Result<StreamHandle, QservError> {
        let (tx, rx) = mpsc::sync_channel(STREAM_EVENT_BACKLOG);
        let a = self
            .inner
            .admit(sql, root, ReplyTo::Streaming { tx, notify })?;
        Ok(StreamHandle {
            qid: a.qid,
            class: a.class,
            token: a.token,
            rx,
        })
    }

    /// Plans `sql` without executing it and renders the planner's
    /// choice — access path, predicate order with estimates, pushdown,
    /// cost — as a deterministic result table (the proxy's `EXPLAIN`
    /// verb). The `class` row is the class this service would admit the
    /// statement under, at its configured
    /// [`ServiceConfig::interactive_chunk_threshold`].
    pub fn explain(&self, sql: &str) -> Result<ResultTable, QservError> {
        self.inner
            .qserv
            .explain_table_at(sql, self.inner.cfg.interactive_chunk_threshold)
    }

    /// Cancels a query by id; see [`KillOutcome`] for what happened.
    pub fn kill(&self, qid: u64) -> KillOutcome {
        self.inner.kill(qid)
    }

    /// Every query the service knows about (queued, running, and recent
    /// terminal), ascending by qid.
    pub fn status(&self) -> Vec<QueryStatus> {
        self.inner.status()
    }

    /// Point-in-time view of the service instruments (queue depths,
    /// wait/run histograms, admission counters).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.metrics.registry.snapshot()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("service state poisoned");
            st.shutdown = true;
            // Stop running queries at their next boundary…
            for rec in st.records.values() {
                if rec.state == QueryState::Running {
                    rec.token.cancel();
                }
            }
            // …and drain the queue: every parked submitter gets a
            // Cancelled reply instead of hanging on a dead channel.
            let queued: Vec<u64> = st.pending.keys().copied().collect();
            let now = self.inner.clock.now();
            for qid in queued {
                st.sched.remove(qid);
                self.inner.finish_queued(&mut st, qid, now);
            }
        }
        self.inner.cv.notify_all();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

/// What [`Inner::admit`] hands back for the submitter's handle.
struct Admitted {
    qid: u64,
    class: QueryClass,
    token: CancelToken,
}

impl Inner {
    /// Classifies and enqueues one query, parking `reply` until an
    /// executor picks it up.
    fn admit(
        &self,
        sql: &str,
        traced: Option<&str>,
        reply: ReplyTo,
    ) -> Result<Admitted, QservError> {
        // Prepare before anything else: a broken query errors here, and
        // the cost below is the chunk set that will actually dispatch, so
        // a scan cannot masquerade as interactive.
        let statement = self.qserv.prepare(sql)?;
        let chunks = statement.chunk_count();
        let class = QueryClass::of(chunks, self.cfg.interactive_chunk_threshold);
        let cost = chunks as u64;
        let token = CancelToken::new();
        let qid = self.next_qid.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.state.lock().expect("service state poisoned");
            if st.shutdown {
                return Err(QservError::Cancelled);
            }
            if !st.sched.admit(qid, class, cost) {
                self.metrics.rejected[class.idx()].inc();
                return Err(QservError::Busy {
                    retry_after_ms: self.cfg.retry_after.as_millis() as u64,
                });
            }
            self.metrics.admitted[class.idx()].inc();
            let depth = st.sched.queued(class) as u64;
            self.metrics.queue_depth[class.idx()].set(depth);
            self.metrics.queue_peak[class.idx()].set_max(depth);
            let admitted_at = self.clock.now();
            st.pending.insert(
                qid,
                PendingEntry {
                    sql: sql.to_string(),
                    statement,
                    traced: traced.map(str::to_string),
                    reply,
                    token: token.clone(),
                    admitted_at,
                },
            );
            st.records.insert(
                qid,
                Record {
                    class,
                    state: QueryState::Queued,
                    sql: display_sql(sql),
                    token: token.clone(),
                    admitted_at,
                    started_at: None,
                    finished_at: None,
                },
            );
            Self::prune_records(&mut st);
        }
        self.cv.notify_all();
        Ok(Admitted { qid, class, token })
    }

    /// One executor thread: take the scheduler's next ticket, run it,
    /// release the slot, repeat.
    fn executor_loop(&self) {
        loop {
            let (ticket, entry) = {
                let mut st = self.state.lock().expect("service state poisoned");
                loop {
                    if st.shutdown {
                        return;
                    }
                    if let Some(ticket) = st.sched.next_ticket() {
                        let entry = st
                            .pending
                            .remove(&ticket.qid)
                            .expect("scheduled ticket has a pending entry");
                        let now = self.clock.now();
                        if let Some(rec) = st.records.get_mut(&ticket.qid) {
                            rec.state = QueryState::Running;
                            rec.started_at = Some(now);
                        }
                        self.metrics.queue_depth[ticket.class.idx()]
                            .set(st.sched.queued(ticket.class) as u64);
                        self.metrics.running.set(st.sched.running_total() as u64);
                        break (ticket, entry);
                    }
                    st = self.cv.wait(st).expect("service state poisoned");
                }
            };
            let (reply, done) = self.execute(&ticket, entry);
            {
                let mut st = self.state.lock().expect("service state poisoned");
                st.sched.complete(ticket.class);
                self.metrics.running.set(st.sched.running_total() as u64);
                let now = self.clock.now();
                let (state, counter) = match &done.result {
                    Ok(_) => (QueryState::Done, &self.metrics.completed),
                    Err(QservError::Cancelled) => (QueryState::Cancelled, &self.metrics.cancelled),
                    Err(_) => (QueryState::Failed, &self.metrics.failed),
                };
                if let Some(rec) = st.records.get_mut(&ticket.qid) {
                    rec.finished_at = Some(now);
                    rec.state = state;
                }
                counter.inc();
                self.metrics.wait_ms[ticket.class.idx()].record(done.wait.as_millis() as u64);
                self.metrics.run_ms[ticket.class.idx()].record(done.run.as_millis() as u64);
            }
            // Freed a slot: wake a peer in case the scheduler was
            // blocked on the concurrency limit.
            self.cv.notify_all();
            // Deliver after the record turned terminal — and outside the
            // state lock, so a blocked send never holds service state —
            // so a client that sees the reply also sees a consistent
            // STATUS.
            reply.done(done);
        }
    }

    /// Runs one admitted query on the master, under a trace when asked.
    /// Batches reach `reply` *during* execution; the terminal event is
    /// returned for the caller to deliver once the record is settled.
    fn execute(&self, ticket: &Ticket, entry: PendingEntry) -> (ReplyTo, StreamDone) {
        let started = self.clock.now();
        let PendingEntry {
            sql,
            statement,
            traced,
            mut reply,
            token,
            admitted_at,
        } = entry;
        let wait = started.saturating_sub(admitted_at);
        let qid = ticket.qid;
        let class = ticket.class;
        let mut sink = |batch| reply.batch(batch);
        let trace = traced.as_ref().map(|_| Trace::new(self.clock.clone()));
        let result = {
            // Without a root no trace is active on this thread, and the
            // spans below (and every span under the master) are no-ops.
            let _root = trace.as_ref().zip(traced.as_deref()).map(|(t, name)| {
                let root = trace::with_root(t, name);
                root.annotate("sql", &sql);
                root
            });
            // The admission decision as a (zero-length) span: queue time
            // itself elapsed before this trace existed, so it is carried
            // as an annotation — a span over it would escape the root
            // interval and fail `validate()`.
            if let Some(g) = trace::span("service.admit") {
                g.annotate("qid", &qid.to_string());
                g.annotate("class", class.as_str());
                g.annotate("cost", &ticket.cost.to_string());
                g.annotate("wait_ms", &wait.as_millis().to_string());
            }
            let r = self
                .qserv
                .run(statement, &token, Some(&mut sink))
                .map(|(_, qm)| qm.stats());
            if token.is_cancelled() {
                if let Some(g) = trace::span("service.cancel") {
                    g.annotate("qid", &qid.to_string());
                }
            }
            r
        };
        let run = self.clock.now().saturating_sub(started);
        let done = StreamDone {
            qid,
            class,
            result,
            trace,
            wait,
            run,
        };
        (reply, done)
    }

    fn kill(&self, qid: u64) -> KillOutcome {
        let outcome = {
            let mut st = self.state.lock().expect("service state poisoned");
            let Some(state) = st.records.get(&qid).map(|r| r.state) else {
                return KillOutcome::Unknown;
            };
            match state {
                QueryState::Queued => {
                    st.sched.remove(qid);
                    let now = self.clock.now();
                    self.finish_queued(&mut st, qid, now);
                    KillOutcome::CancelledQueued
                }
                QueryState::Running => {
                    if let Some(rec) = st.records.get(&qid) {
                        rec.token.cancel();
                    }
                    KillOutcome::Cancelling
                }
                _ => KillOutcome::Finished,
            }
        };
        self.cv.notify_all();
        outcome
    }

    /// Finalizes a still-queued query as cancelled: reply sent, record
    /// closed, metrics updated. Caller already removed it from the
    /// scheduler and holds the state lock.
    fn finish_queued(&self, st: &mut ServiceState, qid: u64, now: Duration) {
        let Some(entry) = st.pending.remove(&qid) else {
            return;
        };
        let mut class = QueryClass::Interactive;
        if let Some(rec) = st.records.get_mut(&qid) {
            class = rec.class;
            rec.state = QueryState::Cancelled;
            rec.finished_at = Some(now);
        }
        entry.token.cancel();
        self.metrics.cancelled.inc();
        self.metrics.queue_depth[class.idx()].set(st.sched.queued(class) as u64);
        let wait = now.saturating_sub(entry.admitted_at);
        // Nothing was delivered yet (the query never ran), so the empty
        // channel has room for the terminal event: the send cannot
        // block under the state lock.
        entry.reply.done(StreamDone {
            qid,
            class,
            result: Err(QservError::Cancelled),
            trace: None,
            wait,
            run: Duration::ZERO,
        });
    }

    fn status(&self) -> Vec<QueryStatus> {
        let st = self.state.lock().expect("service state poisoned");
        let now = self.clock.now();
        st.records
            .iter()
            .map(|(&qid, rec)| {
                let wait = rec
                    .started_at
                    .or(rec.finished_at)
                    .unwrap_or(now)
                    .saturating_sub(rec.admitted_at);
                let run = match rec.started_at {
                    Some(s) => rec.finished_at.unwrap_or(now).saturating_sub(s),
                    None => Duration::ZERO,
                };
                QueryStatus {
                    qid,
                    class: rec.class,
                    state: rec.state,
                    sql: rec.sql.clone(),
                    wait,
                    run,
                }
            })
            .collect()
    }

    /// Caps the `STATUS` registry: oldest *terminal* records go first;
    /// queued/running entries are never pruned.
    fn prune_records(st: &mut ServiceState) {
        while st.records.len() > RECORD_HISTORY {
            let victim = st
                .records
                .iter()
                .find(|(_, r)| {
                    matches!(
                        r.state,
                        QueryState::Done | QueryState::Failed | QueryState::Cancelled
                    )
                })
                .map(|(&qid, _)| qid);
            match victim {
                Some(qid) => {
                    st.records.remove(&qid);
                }
                None => break,
            }
        }
    }
}

fn display_sql(sql: &str) -> String {
    let flat: String = sql
        .chars()
        .map(|c| if c == '\n' || c == '\t' { ' ' } else { c })
        .collect();
    if flat.len() <= SQL_DISPLAY_LEN {
        flat
    } else {
        let cut = flat
            .char_indices()
            .take_while(|(i, _)| *i < SQL_DISPLAY_LEN)
            .last()
            .map(|(i, c)| i + c.len_utf8())
            .unwrap_or(0);
        format!("{}…", &flat[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_concurrent: usize, max_scan: usize) -> ServiceConfig {
        ServiceConfig {
            max_concurrent,
            max_scan_concurrent: max_scan,
            queue_capacity: 16,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn scan_cap_reserves_slots_for_interactive() {
        let mut s = FairScheduler::new(&cfg(4, 2));
        for qid in 0..6 {
            assert!(s.admit(qid, QueryClass::Scan, 100));
        }
        // Scans fill only their cap, not the whole service.
        assert_eq!(s.next_ticket().map(|t| t.class), Some(QueryClass::Scan));
        assert_eq!(s.next_ticket().map(|t| t.class), Some(QueryClass::Scan));
        assert_eq!(s.next_ticket(), None, "scan cap reached");
        // An interactive arrival gets one of the reserved slots at once.
        assert!(s.admit(100, QueryClass::Interactive, 1));
        assert_eq!(s.next_ticket().map(|t| t.qid), Some(100));
    }

    #[test]
    fn drr_interleaves_classes_under_contention() {
        let mut s = FairScheduler::new(&ServiceConfig {
            max_concurrent: 1,
            max_scan_concurrent: 1,
            interactive_quantum: 4,
            scan_quantum: 4,
            ..ServiceConfig::default()
        });
        // Equal quanta, equal costs: strict alternation.
        for qid in 0..4 {
            assert!(s.admit(qid, QueryClass::Interactive, 4));
            assert!(s.admit(10 + qid, QueryClass::Scan, 4));
        }
        let mut order = Vec::new();
        for _ in 0..8 {
            let t = s.next_ticket().expect("slot free");
            order.push(t.class);
            s.complete(t.class);
        }
        let interleaved = order.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            interleaved >= 6,
            "equal-weight DRR should alternate: {order:?}"
        );
    }

    #[test]
    fn expensive_scan_eventually_accumulates_credit() {
        let mut s = FairScheduler::new(&ServiceConfig {
            max_concurrent: 2,
            max_scan_concurrent: 1,
            interactive_quantum: 8,
            scan_quantum: 8,
            ..ServiceConfig::default()
        });
        assert!(s.admit(0, QueryClass::Scan, 1000));
        for qid in 1..5 {
            assert!(s.admit(qid, QueryClass::Interactive, 1));
        }
        // The scan's cost dwarfs any one quantum, yet next() terminates
        // and the scan is not starved out of its slot.
        let mut scan_started = false;
        for _ in 0..6 {
            match s.next_ticket() {
                Some(t) => {
                    if t.class == QueryClass::Scan {
                        scan_started = true;
                    }
                    s.complete(t.class);
                }
                None => break,
            }
        }
        assert!(scan_started, "an expensive scan must still be scheduled");
    }

    #[test]
    fn work_conserving_when_one_class_is_idle() {
        let mut s = FairScheduler::new(&cfg(2, 1));
        assert!(s.admit(0, QueryClass::Scan, 500));
        // No interactive waiters: the scan runs without deficit delay.
        assert_eq!(s.next_ticket().map(|t| t.qid), Some(0));
    }

    #[test]
    fn queue_capacity_rejects() {
        let mut s = FairScheduler::new(&ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        assert!(s.admit(0, QueryClass::Interactive, 1));
        assert!(s.admit(1, QueryClass::Interactive, 1));
        assert!(!s.admit(2, QueryClass::Interactive, 1), "queue is full");
        // The other class has its own queue.
        assert!(s.admit(3, QueryClass::Scan, 100));
    }

    #[test]
    fn remove_cancels_a_queued_ticket() {
        let mut s = FairScheduler::new(&cfg(2, 1));
        assert!(s.admit(7, QueryClass::Interactive, 1));
        assert!(s.remove(7));
        assert!(!s.remove(7), "already gone");
        assert_eq!(s.next_ticket(), None);
    }

    #[test]
    fn concurrency_limit_blocks_until_complete() {
        let mut s = FairScheduler::new(&cfg(1, 1));
        assert!(s.admit(0, QueryClass::Interactive, 1));
        assert!(s.admit(1, QueryClass::Interactive, 1));
        let t = s.next_ticket().expect("first runs");
        assert_eq!(s.next_ticket(), None, "limit is 1");
        s.complete(t.class);
        assert_eq!(s.next_ticket().map(|t| t.qid), Some(1));
    }

    #[test]
    fn display_sql_truncates_on_char_boundary() {
        let long = "é".repeat(200);
        let shown = display_sql(&long);
        assert!(shown.ends_with('…'));
        assert!(shown.chars().count() <= SQL_DISPLAY_LEN + 1);
        assert_eq!(display_sql("SELECT 1"), "SELECT 1");
        assert_eq!(display_sql("a\nb\tc"), "a b c");
    }
}
