//! Fault injection through the front door: the same seeded chaos the
//! core suite runs against `Qserv` directly, but driven over a real TCP
//! proxy session. Masked faults must stay invisible to the client
//! (identical rows, OK frame); fatal faults must surface as `ERR`
//! frames that leave the session usable; and `TRACE` requests must
//! return a span tree that records the retries the fabric forced.

use qserv::{ClusterBuilder, FabricOp, FaultPlan, Qserv, Value};
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_proxy::{ProxyClient, ProxyServer};
use std::sync::Arc;

/// A proxied cluster with an armed (but initially empty) fault plan.
/// The returned handle shares the frontend with the server so tests can
/// inject faults and read fault counters mid-session.
fn chaos_server(replication: usize, seed: u64) -> (ProxyServer, Arc<Qserv>) {
    let patch = Patch::generate(&CatalogConfig::small(400, 91));
    let qserv = Arc::new(
        ClusterBuilder::new(4)
            .replication(replication)
            .fault_plan(FaultPlan::new(seed))
            .build(&patch.objects, &patch.sources),
    );
    let server = ProxyServer::start(Arc::clone(&qserv), "127.0.0.1:0").expect("bind");
    (server, qserv)
}

#[test]
fn masked_write_faults_are_invisible_to_the_client() {
    let (server, qserv) = chaos_server(2, 21);
    // The first 5 fabric writes fail; replica-aware retry must mask
    // every one of them before the response crosses the wire.
    qserv
        .cluster()
        .faults()
        .fail_next(None, Some(FabricOp::Write), 5);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    let (r, stats) = client.query("SELECT COUNT(*) FROM Object").expect("count");
    assert_eq!(r.scalar(), Some(&Value::Int(400)));
    assert_eq!(stats.rows, 1);
    assert_eq!(
        qserv
            .cluster()
            .faults()
            .stats()
            .failures_for(FabricOp::Write),
        5,
        "all injected write faults fired during the proxied query"
    );
    server.shutdown();
}

#[test]
fn fatal_faults_cross_the_wire_as_err_frames() {
    // No replicas to fail over to, and every write fails: the query
    // must come back as an ERR frame, not a hang or a dropped socket.
    let (server, qserv) = chaos_server(1, 22);
    qserv
        .cluster()
        .faults()
        .fail_with_probability(None, Some(FabricOp::Write), 1.0);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    let err = client.query("SELECT COUNT(*) FROM Object").unwrap_err();
    assert!(
        err.to_string().contains("server error"),
        "fatal fault should surface as a server-side error: {err}"
    );
    // The session survives the failure: clear the plan and requery.
    qserv.cluster().faults().clear();
    let (r, _) = client
        .query("SELECT COUNT(*) FROM Object")
        .expect("session recovers after ERR");
    assert_eq!(r.scalar(), Some(&Value::Int(400)));
    server.shutdown();
}

#[test]
fn traced_query_records_retries_forced_by_chaos() {
    let (server, qserv) = chaos_server(2, 23);
    qserv
        .cluster()
        .faults()
        .fail_next(None, Some(FabricOp::Write), 3);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    let (r, stats, trace) = client
        .query_traced("SELECT COUNT(*) FROM Object")
        .expect("traced count");
    assert_eq!(r.scalar(), Some(&Value::Int(400)));
    assert!(stats.chunks_dispatched >= 1);
    // The span tree covers every layer the query crossed…
    for name in [
        "proxy.request",
        "master.query",
        "master.analyze",
        "master.dispatch",
        "\"name\":\"bundle\"",
        "\"name\":\"attempt\"",
        "fabric.write",
        "worker.statement",
    ] {
        assert!(trace.contains(name), "trace missing {name}: {trace}");
    }
    // …and the injected faults show up as retry-marked attempt spans.
    assert!(
        trace.contains("\"outcome\":\"retry\""),
        "retries forced by the fault plan must be visible in the trace: {trace}"
    );
    server.shutdown();
}

#[test]
fn plain_and_traced_requests_interleave_on_one_session() {
    let (server, _qserv) = chaos_server(2, 24);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    let (plain, _) = client.query("SELECT COUNT(*) FROM Object").expect("plain");
    let (traced, _, json) = client
        .query_traced("SELECT COUNT(*) FROM Object")
        .expect("traced");
    assert_eq!(plain, traced);
    assert!(json.starts_with('['), "trace frame is a JSON tree: {json}");
    let (after, _) = client
        .query("SELECT COUNT(*) FROM Object")
        .expect("plain after traced");
    assert_eq!(plain, after);
    server.shutdown();
}
