//! Fault tolerance: replica failover, unreplicated failure reporting,
//! worker panics, and concurrent query safety.

mod common;

use common::{cluster_from, small_patch};
use qserv::{ClusterBuilder, QservError, QueryService, ServiceConfig, Value};
use qserv_xrd::{DataServer, OfsPlugin};
use std::sync::Arc;

#[test]
fn replicated_cluster_survives_node_loss() {
    let patch = small_patch(400, 61);
    let q = ClusterBuilder::new(4)
        .replication(2)
        .build(&patch.objects, &patch.sources);
    let before = q.query("SELECT COUNT(*) FROM Object").unwrap();
    assert_eq!(before.scalar(), Some(&Value::Int(400)));

    // Kill one node: every chunk still has a live replica.
    q.cluster().servers()[1].set_online(false);
    let after = q.query("SELECT COUNT(*) FROM Object").unwrap();
    assert_eq!(
        after.scalar(),
        Some(&Value::Int(400)),
        "replication must mask a single node failure"
    );

    // Point queries too.
    let r = q
        .query("SELECT objectId FROM Object WHERE objectId = 123")
        .unwrap();
    assert_eq!(r.num_rows(), 1);
}

#[test]
fn unreplicated_cluster_reports_failure() {
    let patch = small_patch(200, 62);
    let q = cluster_from(&patch, 3);
    q.cluster().servers()[0].set_online(false);
    let err = q.query("SELECT COUNT(*) FROM Object").unwrap_err();
    assert!(
        matches!(err, QservError::Fabric(_)),
        "losing the only replica must surface as a fabric error, got {err}"
    );
}

#[test]
fn recovery_after_node_returns() {
    let patch = small_patch(200, 63);
    let q = cluster_from(&patch, 3);
    q.cluster().servers()[2].set_online(false);
    assert!(q.query("SELECT COUNT(*) FROM Object").is_err());
    q.cluster().servers()[2].set_online(true);
    let r = q.query("SELECT COUNT(*) FROM Object").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(200)));
}

#[test]
fn three_way_replication_survives_two_failures() {
    let patch = small_patch(300, 64);
    let q = ClusterBuilder::new(5)
        .replication(3)
        .build(&patch.objects, &patch.sources);
    q.cluster().servers()[0].set_online(false);
    q.cluster().servers()[1].set_online(false);
    let r = q.query("SELECT COUNT(*) FROM Object").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(300)));
}

#[test]
fn worker_error_carries_chunk_id() {
    let patch = small_patch(100, 65);
    let q = cluster_from(&patch, 2);
    let err = q.query("SELECT no_such_column FROM Object").unwrap_err();
    match err {
        QservError::Worker { chunk, message } => {
            assert!(q.placement().chunks().contains(&chunk));
            assert!(message.contains("no_such_column"), "{message}");
        }
        other => panic!("expected a worker error, got {other}"),
    }
}

/// A worker plugin that panics on every chunk-query write.
struct PanicsOnQuery;

impl OfsPlugin for PanicsOnQuery {
    fn on_file_closed(&self, _: &DataServer, path: &str, _: &[u8]) {
        if path.starts_with("/query2/") {
            panic!("chunk query {path} panicked");
        }
    }
}

#[test]
fn a_panicking_chunk_query_is_a_typed_error_and_the_executor_survives() {
    let patch = small_patch(300, 69);
    for width in [1, 4] {
        let mut q = cluster_from(&patch, 3);
        q.dispatch_width = width;
        let q = Arc::new(q);
        let cfg = ServiceConfig::default();
        let service = QueryService::start(Arc::clone(&q), cfg.clone());
        for server in q.cluster().servers() {
            server.install_plugin(Arc::new(PanicsOnQuery));
        }
        let err = service
            .submit("SELECT COUNT(*) FROM Object")
            .expect("admitted")
            .wait()
            .result
            .unwrap_err();
        assert!(
            matches!(err, QservError::Fabric(_)),
            "width {width}: a chunk-query panic must surface as a fabric error, got {err}"
        );

        // Every executor thread is still there: more statements than
        // execution slots, in flight at once, all answer.
        for (server, worker) in q.cluster().servers().iter().zip(q.workers()) {
            server.install_plugin(Arc::clone(worker) as Arc<dyn OfsPlugin>);
        }
        let handles: Vec<_> = (0..cfg.max_concurrent + 1)
            .map(|_| {
                service
                    .submit("SELECT COUNT(*) FROM Object")
                    .expect("admitted")
            })
            .collect();
        for h in handles {
            let (rows, _) = h.wait().result.expect("answers after the panic");
            assert_eq!(rows.scalar(), Some(&Value::Int(300)), "width {width}");
        }
    }
}

#[test]
fn concurrent_queries_from_many_threads() {
    let patch = small_patch(400, 66);
    let q = cluster_from(&patch, 4);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let q = &q;
            scope.spawn(move || {
                for i in 0..5 {
                    let oid = 1 + (t * 37 + i * 11) % 400;
                    let r = q
                        .query(&format!(
                            "SELECT objectId FROM Object WHERE objectId = {oid}"
                        ))
                        .unwrap();
                    assert_eq!(r.num_rows(), 1);
                    assert_eq!(r.rows[0][0], Value::Int(oid as i64));
                }
                let r = q.query("SELECT COUNT(*) FROM Object").unwrap();
                assert_eq!(r.scalar(), Some(&Value::Int(400)));
            });
        }
    });
}

#[test]
fn concurrent_near_neighbor_and_scans() {
    // Subchunk generation + dropping must be safe under concurrency.
    let patch = small_patch(300, 67);
    let q = cluster_from(&patch, 3);
    let nn = "SELECT count(*) FROM Object o1, Object o2 \
              WHERE qserv_areaspec_box(0.0, -2.0, 2.0, 2.0) \
              AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05";
    let reference = q.query(nn).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let q = &q;
            let reference = &reference;
            scope.spawn(move || {
                for _ in 0..3 {
                    let r = q.query(nn).unwrap();
                    assert_eq!(&r, reference);
                    let c = q.query("SELECT COUNT(*) FROM Object").unwrap();
                    assert_eq!(c.scalar(), Some(&Value::Int(300)));
                }
            });
        }
    });
}
