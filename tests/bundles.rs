//! Chunk bundles under failure: the master sends each worker one
//! message for a group of its chunks, and every failure a chunk query
//! could meet alone — a node lost between planning and dispatch, one
//! chunk moved away, a damaged result payload, a KILL — must still end in
//! the single-node engine's answer (or a clean `Cancelled`), retrying
//! only the chunks that failed and leaving no `/result/*` file behind.

mod common;

use common::{assert_matches_local, monolithic_db, sorted_rows};
use qserv::service::{QueryService, ServiceConfig};
use qserv::{CancelToken, ClusterBuilder, FabricOp, FaultPlan, Qserv, QservError};
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_engine::exec::{execute, ResultTable};
use qserv_sphgeom::SphericalBox;
use qserv_sqlparse::parse_select;
use qserv_xrd::cluster::query_path;
use qserv_xrd::server::{DataServer, OfsPlugin, ServerId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const STATEMENTS: [&str; 3] = [
    "SELECT COUNT(*), AVG(ra_PS) FROM Object",
    "SELECT objectId, decl_PS FROM Object WHERE decl_PS > 0",
    "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId",
];

/// A patch over a quarter of the equatorial sky: tens of chunks, so
/// every server's bundle holds several.
fn wide_patch(seed: u64) -> Patch {
    Patch::generate(&CatalogConfig {
        objects: 1500,
        mean_sources_per_object: 1.0,
        seed,
        footprint: SphericalBox::from_degrees(0.0, -30.0, 90.0, 30.0),
    })
}

fn replicated(patch: &Patch, seed: u64) -> Qserv {
    ClusterBuilder::new(4)
        .replication(2)
        .fault_plan(FaultPlan::new(seed))
        .build(&patch.objects, &patch.sources)
}

fn local(db: &qserv_engine::db::Database, sql: &str) -> ResultTable {
    execute(db, &parse_select(sql).expect("parses")).expect("local run")
}

fn assert_no_result_leaks(q: &Qserv, context: &str) {
    for (id, server) in q.cluster().servers().iter().enumerate() {
        let leaked = server.file_names("/result/");
        assert!(
            leaked.is_empty(),
            "{context}: server {id} leaked {leaked:?}"
        );
    }
}

/// The server each of `sql`'s chunks is grouped to before dispatch.
fn grouping(q: &Qserv, sql: &str) -> Vec<(i32, ServerId)> {
    let chunks = q.explain(sql).expect("explain").chunks;
    chunks
        .into_iter()
        .map(|c| {
            let server = q
                .cluster()
                .redirector()
                .resolve_keyed(&query_path(c), c as usize, &[])
                .expect("every chunk has a replica");
            (c, server)
        })
        .collect()
}

/// Runs `before` once, on the first message a server receives, then
/// hands every message to the worker plugin it wraps.
struct OnFirstMessage<F: Fn() + Send + Sync> {
    worker: Arc<dyn OfsPlugin>,
    fired: AtomicBool,
    before: F,
}

impl<F: Fn() + Send + Sync> OfsPlugin for OnFirstMessage<F> {
    fn on_file_closed(&self, server: &DataServer, path: &str, data: &[u8]) {
        if !self.fired.swap(true, Ordering::SeqCst) {
            (self.before)();
        }
        self.worker.on_file_closed(server, path, data);
    }
}

fn wrap_first_message(q: &Qserv, server: ServerId, before: impl Fn() + Send + Sync + 'static) {
    let worker: Arc<dyn OfsPlugin> = q.workers()[server].clone();
    q.cluster().servers()[server].install_plugin(Arc::new(OnFirstMessage {
        worker,
        fired: AtomicBool::new(false),
        before,
    }));
}

/// Server 2 goes offline while server 0 runs its bundle — after the
/// statement was planned and its chunks grouped. The bundle grouped to
/// server 2 fails its write and re-splits over the surviving replicas
/// of its chunks: each of its chunks is retried once and fails over.
#[test]
fn node_offline_mid_statement_resplits_its_bundle() {
    let patch = wide_patch(111);
    let db = monolithic_db(&patch);
    for sql in STATEMENTS {
        let mut q = replicated(&patch, 1);
        q.dispatch_width = 1;
        let grouped = grouping(&q, sql);
        let lost = grouped.iter().filter(|(_, s)| *s == 2).count();
        assert!(lost > 1, "server 2 must carry a bundle of several chunks");
        assert_eq!(grouped[0].1, 0, "server 0's bundle leaves first");
        let server2 = q.cluster().servers()[2].clone();
        wrap_first_message(&q, 0, move || server2.set_online(false));

        let before = q.workers()[2].stats.snapshot().0;
        let (got, stats) = q.query_with_stats(sql).expect("survives the lost node");
        assert_matches_local(sql, &got, &local(&db, sql));
        assert_eq!(stats.chunks_retried, lost, "{sql}");
        assert_eq!(stats.replica_failovers, lost, "{sql}");
        assert_eq!(stats.chunks_dispatched, grouped.len(), "{sql}");
        assert_eq!(
            q.workers()[2].stats.snapshot().0,
            before,
            "server 2 ran nothing"
        );
        assert_no_result_leaks(&q, sql);
    }
}

/// One chunk of a bundle is detached from the worker its bundle goes
/// to. The grouping reads only the fabric's exports, so the chunk still
/// rides that bundle: the worker NACKs that one section `RETRYABLE`,
/// answers the rest, and only that chunk is re-dispatched, to its other
/// replica.
#[test]
fn one_moved_chunk_is_the_only_one_retried() {
    let patch = wide_patch(112);
    let db = monolithic_db(&patch);
    for sql in STATEMENTS {
        let q = replicated(&patch, 2);
        let grouped = grouping(&q, sql);
        let (chunk, server) = grouped[grouped.len() / 2];
        assert!(
            grouped.iter().filter(|(_, s)| *s == server).count() > 1,
            "the moved chunk shares its bundle"
        );
        assert!(q.workers()[server].detach_chunk(chunk) > 0);

        let (got, stats) = q.query_with_stats(sql).expect("fails over");
        assert_matches_local(sql, &got, &local(&db, sql));
        assert_eq!(stats.chunks_retried, 1, "{sql}");
        assert_eq!(stats.replica_failovers, 1, "{sql}");
        assert_eq!(stats.chunks_dispatched, grouped.len(), "{sql}");
        assert_no_result_leaks(&q, sql);
    }
}

/// One flipped bit per damaged bundle payload — in a section's frame, a
/// section length, an error text — over 20 fault seeds: every damaged
/// read is retried, and no flipped bit reaches a row.
#[test]
fn a_flipped_bit_in_a_bundle_payload_is_retried_never_answered() {
    let patch = wide_patch(113);
    let clean = replicated(&patch, 0);
    let expected: Vec<_> = STATEMENTS
        .iter()
        .map(|sql| sorted_rows(&clean.query(sql).expect("clean").rows))
        .collect();
    let mut corrupted = 0;
    for seed in 1..=20 {
        let q = replicated(&patch, seed);
        q.cluster()
            .faults()
            .flip_one_bit(None, Some(FabricOp::Read), 0.3);
        for (sql, expected) in STATEMENTS.iter().zip(&expected) {
            let before = q.cluster().faults().stats().payloads_corrupted;
            let (got, stats) = q.query_with_stats(sql).expect("retries past the damage");
            assert_eq!(&sorted_rows(&got.rows), expected, "seed {seed}: {sql}");
            let hit = q.cluster().faults().stats().payloads_corrupted - before;
            if hit > 0 {
                assert!(stats.chunks_retried > 0, "seed {seed}: damage not retried");
            }
            corrupted += hit;
        }
        assert_no_result_leaks(&q, "flipped bits");
    }
    assert!(corrupted > 0, "the bit-flip rule never fired");
}

/// A KILL lands while the first bundle runs: that bundle completes and
/// its result is consumed, no further bundle is sent, and the statement
/// ends `Cancelled`.
#[test]
fn a_kill_ends_the_statement_at_a_bundle_boundary() {
    let patch = wide_patch(114);
    let mut q = ClusterBuilder::new(4).build(&patch.objects, &patch.sources);
    q.dispatch_width = 1;
    let (tx, rx) = mpsc::channel::<CancelToken>();
    let rx = Mutex::new(rx);
    wrap_first_message(&q, 0, move || {
        let token = rx
            .lock()
            .expect("one receiver")
            .recv_timeout(Duration::from_secs(20))
            .expect("the statement's token");
        token.cancel();
    });
    let q = Arc::new(q);
    let service = QueryService::start(Arc::clone(&q), ServiceConfig::default());
    let handle = service
        .submit("SELECT COUNT(*) FROM Object")
        .expect("admitted");
    tx.send(handle.token().clone()).expect("plugin waits");
    let reply = handle.wait();
    assert_eq!(reply.result.err(), Some(QservError::Cancelled));
    let ran: Vec<u64> = q.workers().iter().map(|w| w.stats.snapshot().0).collect();
    assert!(ran[0] > 0, "the first bundle ran to its end: {ran:?}");
    assert_eq!(&ran[1..], &[0, 0, 0], "no bundle left after the KILL");
    assert_no_result_leaks(&q, "killed at a bundle boundary");
}

/// A full-sky count on four nodes makes one fabric write per worker at
/// every width up to four, and still dispatches every chunk. (A
/// zero-length delay rule counts each write without slowing it.)
#[test]
fn a_count_writes_once_per_worker() {
    let patch = wide_patch(115);
    for width in 1..=4 {
        let mut q = ClusterBuilder::new(4)
            .fault_plan(FaultPlan::new(3))
            .build(&patch.objects, &patch.sources);
        q.dispatch_width = width;
        let sql = "SELECT COUNT(*) FROM Object";
        let chunks = q.explain(sql).expect("explain").chunks.len();
        q.cluster()
            .faults()
            .delay(None, Some(FabricOp::Write), Duration::ZERO);
        let (r, stats) = q.query_with_stats(sql).expect("count");
        assert_eq!(r.scalar(), Some(&qserv::Value::Int(1500)));
        assert_eq!(
            q.cluster().faults().stats().delays_injected,
            4,
            "width {width}"
        );
        assert_eq!(stats.chunks_dispatched, chunks, "width {width}");
        let queries: u64 = q.workers().iter().map(|w| w.stats.snapshot().0).sum();
        assert_eq!(queries, chunks as u64, "width {width}");
    }
}

/// A pushed-down `LIMIT` stops inside a bundle: the worker runs chunks
/// until it has the rows, and the rest count as skipped.
#[test]
fn a_limit_stops_inside_a_bundle() {
    let patch = wide_patch(116);
    let q = ClusterBuilder::new(4).build(&patch.objects, &patch.sources);
    let sql = "SELECT objectId FROM Object LIMIT 5";
    let chunks = q.explain(sql).expect("explain").chunks.len();
    let (r, stats) = q.query_with_stats(sql).expect("limit");
    assert_eq!(r.num_rows(), 5);
    assert!(stats.chunks_skipped_by_limit >= 1, "{stats:?}");
    assert_eq!(
        stats.chunks_dispatched + stats.chunks_skipped_by_limit,
        chunks
    );
}
