//! Socket-level round trips: a real TCP server over a real cluster,
//! queried by real clients — the paper's "any MySQL-compatible client"
//! capability, end to end.

use qserv::ClusterBuilder;
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_proxy::{ProxyClient, ProxyServer};
use std::sync::Arc;

fn start_server(objects: usize, seed: u64) -> (ProxyServer, Patch) {
    let patch = Patch::generate(&CatalogConfig::small(objects, seed));
    let qserv = Arc::new(ClusterBuilder::new(3).build(&patch.objects, &patch.sources));
    let server = ProxyServer::start(qserv, "127.0.0.1:0").expect("bind");
    (server, patch)
}

#[test]
fn query_round_trip_over_tcp() {
    let (server, patch) = start_server(300, 11);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");

    let (count, stats) = client.query("SELECT COUNT(*) FROM Object").expect("count");
    assert_eq!(count.scalar().and_then(|v| v.as_i64()), Some(300));
    assert!(stats.chunks_dispatched >= 1);
    assert_eq!(stats.rows, 1);

    let (rows, _) = client
        .query("SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = 42")
        .expect("point");
    assert_eq!(rows.num_rows(), 1);
    assert_eq!(rows.columns, vec!["objectId", "ra_PS", "decl_PS"]);
    let o = &patch.objects[41];
    assert_eq!(rows.rows[0][1].as_f64(), Some(o.ra_ps));
    server.shutdown();
}

#[test]
fn multiple_statements_one_session() {
    let (server, _patch) = start_server(100, 12);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    for _ in 0..5 {
        let (r, _) = client.query("SELECT COUNT(*) FROM Source").expect("query");
        assert_eq!(r.num_rows(), 1);
    }
    // Aggregation with floats and group keys survives the wire.
    let (r, _) = client
        .query("SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object GROUP BY chunkId")
        .expect("group");
    assert!(r.num_rows() >= 1);
    assert_eq!(r.columns, vec!["n", "AVG(ra_PS)", "chunkId"]);
    let total: i64 = r.rows.iter().map(|row| row[0].as_i64().expect("n")).sum();
    assert_eq!(total, 100);
    server.shutdown();
}

#[test]
fn explain_round_trip_over_tcp() {
    let (server, _patch) = start_server(200, 19);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");

    let plan = client
        .explain("SELECT * FROM Object WHERE objectId = 42")
        .expect("explain");
    assert_eq!(plan.columns, vec!["item", "value"]);
    let items: Vec<String> = plan
        .rows
        .iter()
        .map(|r| r[0].to_string() + "=" + &r[1].to_string())
        .collect();
    let joined = items.join("\n");
    assert!(joined.contains("access_path"), "{joined}");
    assert!(joined.contains("est_cost"), "{joined}");
    assert!(joined.contains("index_lookup"), "{joined}");
    // EXPLAIN plans without executing: the query itself still runs.
    let (rows, _) = client
        .query("SELECT objectId FROM Object WHERE objectId = 42")
        .expect("point");
    assert_eq!(rows.rows[0][0].as_i64(), Some(42));

    // A malformed inner statement errors without killing the session.
    let err = client.explain("SELECTT 1").unwrap_err();
    assert!(err.to_string().contains("EXPLAIN failed"), "{err}");
    let plan = client.explain("SELECT 1").expect("frontend-local");
    assert!(plan
        .rows
        .iter()
        .any(|r| r[1].to_string().contains("frontend_local")));
    server.shutdown();
}

#[test]
fn errors_cross_the_wire() {
    let (server, _patch) = start_server(50, 13);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    let err = client.query("SELECT * FROM Nonsense").unwrap_err();
    let text = err.to_string();
    assert!(text.contains("Nonsense"), "{text}");
    // The session survives an error.
    let (r, _) = client
        .query("SELECT COUNT(*) FROM Object")
        .expect("recovers");
    assert_eq!(r.scalar().and_then(|v| v.as_i64()), Some(50));
    server.shutdown();
}

#[test]
fn concurrent_clients() {
    let (server, _patch) = start_server(400, 14);
    let addr = server.addr();
    std::thread::scope(|scope| {
        for t in 0..6 {
            scope.spawn(move || {
                let mut client = ProxyClient::connect(addr).expect("connect");
                for i in 0..4 {
                    let oid = 1 + (t * 61 + i * 17) % 400;
                    let (r, _) = client
                        .query(&format!(
                            "SELECT objectId FROM Object WHERE objectId = {oid}"
                        ))
                        .expect("point query");
                    assert_eq!(r.rows[0][0].as_i64(), Some(oid as i64));
                }
                let (r, _) = client.query("SELECT COUNT(*) FROM Object").expect("count");
                assert_eq!(r.scalar().and_then(|v| v.as_i64()), Some(400));
            });
        }
    });
    server.shutdown();
}

#[test]
fn null_and_float_fidelity() {
    let (server, patch) = start_server(200, 15);
    let mut client = ProxyClient::connect(server.addr()).expect("connect");
    // SUM over an empty selection is NULL (SQL), which must survive TSV.
    let (r, _) = client
        .query("SELECT SUM(ra_PS) FROM Object WHERE objectId = 99999")
        .expect("null sum");
    assert!(r.rows[0][0].is_null());
    // Floats round-trip exactly (shortest-form encoding).
    let (r, _) = client
        .query("SELECT ra_PS FROM Object WHERE objectId = 7")
        .expect("float fetch");
    assert_eq!(r.rows[0][0].as_f64(), Some(patch.objects[6].ra_ps));
    server.shutdown();
}

#[test]
fn shutdown_stops_new_connections() {
    let (server, _patch) = start_server(20, 16);
    let addr = server.addr();
    server.shutdown();
    // A fresh connection must now fail or be dropped without a response.
    match ProxyClient::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.query("SELECT COUNT(*) FROM Object").is_err());
        }
    }
}
