//! Streaming results, proven at the service layer:
//!
//! 1. **Equivalence** — for every query shape (pass-through selections,
//!    aggregations, ORDER BY LIMIT, point lookups), draining a
//!    streaming submission and reassembling the batches yields a table
//!    byte-identical to the buffered reply, and the planner's q-error
//!    is the same whichever entry point ran the statement.
//! 2. **Incrementality** — under per-chunk fabric delays, a streamable
//!    scan delivers multiple row batches (first rows leave while later
//!    chunks are still scanning), and dropping the handle mid-stream
//!    cancels the remaining work.

mod common;

use common::small_patch;
use qserv::{
    ClusterBuilder, FabricOp, FaultPlan, QservError, QueryService, QueryState, ServiceConfig,
    StreamEvent, Value,
};
use std::sync::Arc;
use std::time::Duration;

const SHAPES: [&str; 6] = [
    "SELECT objectId, ra_PS, decl_PS FROM Object",
    "SELECT COUNT(*) FROM Object",
    "SELECT chunkId, COUNT(*), AVG(ra_PS) FROM Object GROUP BY chunkId",
    "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC LIMIT 7",
    "SELECT objectId FROM Object WHERE objectId = 99",
    "SELECT objectId, decl_PS FROM Object WHERE qserv_areaspec_box(0.0, -2.0, 2.0, 2.0)",
];

fn service(objects: usize, seed: u64, cfg: ServiceConfig) -> QueryService {
    let patch = small_patch(objects, seed);
    let qserv = Arc::new(ClusterBuilder::new(3).build(&patch.objects, &patch.sources));
    QueryService::start(qserv, cfg)
}

#[test]
fn streaming_collect_equals_buffered_reply() {
    let service = service(500, 71, ServiceConfig::default());
    for sql in SHAPES {
        // The reference is the master called directly with no sink: both
        // service replies are reassembled from streamed batches.
        let expected = service.qserv().query(sql).expect("master succeeds");
        let buffered = service.submit(sql).expect("buffered admitted").wait();
        let (table, _) = buffered.result.expect("buffered succeeds");
        assert_eq!(table, expected, "executor-side collection diverged: {sql}");
        let streamed = service
            .submit_streaming(sql, None, None)
            .expect("streaming admitted")
            .collect();
        let (table, _) = streamed.result.expect("streaming succeeds");
        assert_eq!(table, expected, "stream reassembly diverged: {sql}");
    }
}

#[test]
fn streamable_scans_deliver_multiple_batches() {
    let patch = small_patch(600, 72);
    let mut q = ClusterBuilder::new(3)
        .fault_plan(FaultPlan::new(31))
        .build(&patch.objects, &patch.sources);
    // Serial dispatch + a per-read delay: each chunk folds (and its
    // batch drains) before the next chunk's result even arrives.
    q.dispatch_width = 1;
    let qserv = Arc::new(q);
    qserv
        .cluster()
        .faults()
        .delay(None, Some(FabricOp::Read), Duration::from_millis(5));

    let service = QueryService::start(Arc::clone(&qserv), ServiceConfig::default());
    let handle = service
        .submit_streaming("SELECT objectId FROM Object", None, None)
        .expect("admitted");
    let mut batches = 0usize;
    let mut rows = 0usize;
    loop {
        match handle.recv().expect("stream does not die early") {
            StreamEvent::Batch(b) => {
                if b.num_rows() > 0 {
                    batches += 1;
                }
                rows += b.num_rows();
            }
            StreamEvent::Done(done) => {
                done.result.expect("scan succeeds");
                break;
            }
        }
    }
    assert_eq!(rows, 600);
    assert!(
        batches >= 2,
        "a multi-chunk scan should stream incrementally, got {batches} batch(es)"
    );
}

#[test]
fn dropping_the_handle_cancels_remaining_work() {
    let patch = small_patch(600, 73);
    let mut q = ClusterBuilder::new(3)
        .fault_plan(FaultPlan::new(32))
        .build(&patch.objects, &patch.sources);
    q.dispatch_width = 1;
    let qserv = Arc::new(q);
    qserv
        .cluster()
        .faults()
        .delay(None, Some(FabricOp::Read), Duration::from_millis(20));

    let service = QueryService::start(Arc::clone(&qserv), ServiceConfig::default());
    let handle = service
        .submit_streaming("SELECT objectId, ra_PS FROM Object", None, None)
        .expect("admitted");
    let qid = handle.qid;
    // Take the first batch, then hang up.
    loop {
        match handle.recv().expect("stream alive") {
            StreamEvent::Batch(b) if b.num_rows() > 0 => break,
            StreamEvent::Batch(_) => {}
            StreamEvent::Done(d) => panic!("finished before first batch: {:?}", d.result),
        }
    }
    drop(handle);
    // The executor notices the dead channel at the next batch and stops.
    let mut state = None;
    for _ in 0..500 {
        state = service
            .status()
            .iter()
            .find(|s| s.qid == qid)
            .map(|s| s.state);
        if matches!(state, Some(QueryState::Cancelled)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        state,
        Some(QueryState::Cancelled),
        "abandoned stream must cancel the query"
    );
    // The service (and the fabric) stay clean for the next query.
    qserv.cluster().faults().clear();
    let (rows, _) = service
        .submit("SELECT COUNT(*) FROM Object")
        .expect("alive")
        .wait()
        .result
        .expect("post-cancel query succeeds");
    assert_eq!(rows.scalar(), Some(&Value::Int(600)));
}

#[test]
fn analysis_errors_surface_at_submit_and_from_less_statements_run() {
    let service = service(200, 78, ServiceConfig::default());
    // Analysis errors surface before admission.
    assert!(matches!(
        service.submit("SELECT * FROM Nonsense"),
        Err(QservError::Analysis(_))
    ));
    // A FROM-less statement runs on the frontend, through the service.
    service
        .submit("SELECT 1 + 1")
        .expect("constant admitted")
        .wait()
        .result
        .expect("constant runs");
}

/// The planner's estimate is judged against the rows the statement
/// answers with, whichever entry point ran it: the master called
/// directly and the service, whose executor streams through a sink,
/// report the same q-error.
#[test]
fn planner_qerror_is_the_same_through_every_entry_point() {
    let patch = small_patch(400, 7);
    let qserv = Arc::new(ClusterBuilder::new(4).build(&patch.objects, &patch.sources));
    let service = QueryService::start(qserv.clone(), ServiceConfig::default());
    for sql in [
        "SELECT COUNT(*) FROM Object",
        "SELECT objectId FROM Object ORDER BY objectId LIMIT 5",
    ] {
        let (_, direct) = qserv.query_with_stats(sql).expect("master succeeds");
        let (_, served) = service
            .submit(sql)
            .expect("admitted")
            .wait()
            .result
            .expect("service succeeds");
        assert_eq!(
            served.planner_qerror_pct, direct.planner_qerror_pct,
            "{sql}: q-error depends on the entry point"
        );
    }
}
