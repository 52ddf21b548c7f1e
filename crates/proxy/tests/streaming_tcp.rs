//! Streaming and retry, proven over real TCP.

use qserv::service::{QueryService, ServiceConfig};
use qserv::{ClusterBuilder, FabricOp, FaultPlan};
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_proxy::{ProxyClient, ProxyServer, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn query_stream_yields_rows_before_the_scan_finishes() {
    let patch = Patch::generate(&CatalogConfig::small(600, 31));
    let mut q = ClusterBuilder::new(3)
        .fault_plan(FaultPlan::new(41))
        .build(&patch.objects, &patch.sources);
    q.dispatch_width = 1;
    let qserv = Arc::new(q);
    qserv
        .cluster()
        .faults()
        .delay(None, Some(FabricOp::Read), Duration::from_millis(5));
    let service = Arc::new(QueryService::start(qserv, ServiceConfig::default()));
    let server = ProxyServer::start_with_service(service, "127.0.0.1:0").expect("bind");

    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    let (batches, rows) = {
        let mut stream = client
            .query_stream("SELECT objectId FROM Object")
            .expect("submit");
        let mut batches = 0usize;
        let mut rows = 0usize;
        while let Some(batch) = stream.next_batch().expect("stream stays healthy") {
            assert_eq!(batch.columns, vec!["objectId"]);
            if !batch.rows.is_empty() {
                batches += 1;
            }
            rows += batch.rows.len();
        }
        let stats = stream.stats().expect("END stats after drain");
        assert_eq!(stats.rows, 600);
        (batches, rows)
    };
    assert_eq!(rows, 600);
    assert!(
        batches >= 2,
        "a serialized multi-chunk scan must stream incrementally, got {batches} batch(es)"
    );

    // The session is reusable for a plain buffered query afterwards.
    let (t, _) = client.query("SELECT COUNT(*) FROM Object").expect("reuse");
    assert_eq!(t.scalar().and_then(|v| v.as_i64()), Some(600));
    server.shutdown();
}

#[test]
fn abandoned_stream_leaves_the_session_usable() {
    let patch = Patch::generate(&CatalogConfig::small(500, 32));
    let qserv = Arc::new(ClusterBuilder::new(3).build(&patch.objects, &patch.sources));
    let service = Arc::new(QueryService::start(qserv, ServiceConfig::default()));
    let server = ProxyServer::start_with_service(service, "127.0.0.1:0").expect("bind");
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    {
        let mut stream = client
            .query_stream("SELECT objectId, ra_PS FROM Object")
            .expect("submit");
        let _ = stream.next_batch();
        // Dropped mid-stream: Drop drains to END on our behalf.
    }
    let (t, _) = client.query("SELECT COUNT(*) FROM Object").expect("reuse");
    assert_eq!(t.scalar().and_then(|v| v.as_i64()), Some(500));
    server.shutdown();
}

#[test]
fn busy_retry_policy_rides_out_admission_backpressure() {
    let patch = Patch::generate(&CatalogConfig::small(400, 34));
    let mut q = ClusterBuilder::new(3)
        .fault_plan(FaultPlan::new(42))
        .build(&patch.objects, &patch.sources);
    q.dispatch_width = 1;
    let qserv = Arc::new(q);
    qserv
        .cluster()
        .faults()
        .delay(None, Some(FabricOp::Read), Duration::from_millis(5));
    // One slot, one queue seat: the third concurrent scan gets BUSY.
    let service = Arc::new(QueryService::start(
        Arc::clone(&qserv),
        ServiceConfig {
            max_concurrent: 1,
            max_scan_concurrent: 1,
            queue_capacity: 1,
            interactive_chunk_threshold: 0,
            retry_after: Duration::from_millis(5),
            ..ServiceConfig::default()
        },
    ));
    let server = ProxyServer::start_with_service(service, "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    let mut saw_busy = false;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = ProxyClient::connect(addr).expect("connect");
                    let policy = RetryPolicy::seeded(1000 + i);
                    let mut retried = false;
                    let (t, _) = policy
                        .run(|| match client.query("SELECT COUNT(*) FROM Object") {
                            Err(e @ qserv_proxy::client::ClientError::Busy { .. }) => {
                                retried = true;
                                Err(e)
                            }
                            other => other,
                        })
                        .expect("retry policy eventually lands the query");
                    assert_eq!(t.scalar().and_then(|v| v.as_i64()), Some(400));
                    retried
                })
            })
            .collect();
        for h in handles {
            saw_busy |= h.join().expect("client thread");
        }
    });
    assert!(
        saw_busy,
        "with one slot and one queue seat, somebody must have been told BUSY"
    );
    server.shutdown();
}
