//! Distributed-vs-local equivalence: every supported query class must
//! return exactly the rows a single monolithic engine returns over the
//! same data. This is the strongest end-to-end property the system has —
//! partitioning, overlap, dispatch, transfer and two-phase aggregation
//! must all be invisible to the user.

mod common;

use common::{assert_matches_local, cluster_from, monolithic_db, small_patch, sorted_rows};
use qserv::service::ServiceConfig;
use qserv::{QservError, QueryService};
use qserv_engine::exec::execute;
use qserv_engine::value::Value;
use qserv_sqlparse::parse_select;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Runs `sql` both ways and compares (order-insensitively unless the
/// query orders, approximately for float aggregates).
fn check(sql: &str, objects: usize, seed: u64) {
    let patch = small_patch(objects, seed);
    let q = cluster_from(&patch, 4);
    let distributed = q
        .query(sql)
        .unwrap_or_else(|e| panic!("distributed {sql}: {e}"));

    let db = monolithic_db(&patch);
    let stmt = parse_select(sql).unwrap();
    let local = execute(&db, &stmt).unwrap_or_else(|e| panic!("local {sql}: {e}"));

    assert_matches_local(sql, &distributed, &local);
}

#[test]
fn point_select() {
    check(
        "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = 17",
        300,
        41,
    );
}

#[test]
fn full_scan_projection() {
    check("SELECT objectId, ra_PS FROM Object", 400, 42);
}

#[test]
fn filter_with_udf() {
    check(
        "SELECT objectId FROM Object WHERE fluxToAbMag(zFlux_PS) BETWEEN 20 AND 24",
        500,
        43,
    );
}

#[test]
fn arithmetic_filter() {
    check(
        "SELECT objectId, uFlux_PS - gFlux_PS FROM Object WHERE ra_PS / 2 > 100",
        300,
        44,
    );
}

#[test]
fn global_aggregates() {
    check(
        "SELECT COUNT(*), SUM(uFlux_SG), AVG(ra_PS), MIN(decl_PS), MAX(decl_PS) FROM Object",
        600,
        45,
    );
}

#[test]
fn aggregate_expression() {
    check("SELECT SUM(uFlux_SG) / COUNT(*) FROM Object", 400, 46);
}

#[test]
fn group_by_with_aggregates() {
    check(
        "SELECT chunkId, COUNT(*), AVG(ra_PS) FROM Object GROUP BY chunkId ORDER BY chunkId",
        800,
        47,
    );
}

#[test]
fn group_by_unprojected_key() {
    check("SELECT COUNT(*) FROM Object GROUP BY chunkId", 500, 48);
}

#[test]
fn order_by_limit() {
    check(
        "SELECT objectId, decl_PS FROM Object ORDER BY decl_PS, objectId LIMIT 11",
        300,
        49,
    );
}

#[test]
fn count_with_in_list() {
    check(
        "SELECT objectId FROM Object WHERE objectId IN (3, 5, 250, 9999) ORDER BY objectId",
        300,
        50,
    );
}

#[test]
fn source_scan_and_aggregate() {
    check("SELECT COUNT(*), AVG(psfFlux) FROM Source", 250, 51);
    check(
        "SELECT taiMidPoint, psfFlux FROM Source WHERE objectId = 9 ORDER BY taiMidPoint",
        250,
        52,
    );
}

#[test]
fn equi_join_object_source() {
    check(
        "SELECT o.objectId, s.sourceId FROM Object o, Source s \
         WHERE o.objectId = s.objectId AND s.psfFlux > 1000 \
         ORDER BY s.sourceId",
        200,
        53,
    );
}

#[test]
fn near_neighbor_self_join_count() {
    check(
        "SELECT count(*) FROM Object o1, Object o2 \
         WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.06 \
         AND o1.objectId != o2.objectId",
        600,
        54,
    );
}

#[test]
fn near_neighbor_projected_pairs() {
    check(
        "SELECT o1.objectId, o2.objectId FROM Object o1, Object o2 \
         WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05 \
         AND o1.objectId != o2.objectId \
         ORDER BY o1.objectId, o2.objectId",
        500,
        55,
    );
}

#[test]
fn is_null_and_not() {
    check(
        "SELECT COUNT(*) FROM Object WHERE zFlux_PS IS NOT NULL AND NOT objectId = 1",
        200,
        56,
    );
}

/// A NaN or ±inf in a chunk result crosses the fabric in the result dump,
/// and an overflowing literal crosses it in the chunk query: each answers
/// as the local engine does (NaN matching NaN).
#[test]
fn non_finite_floats_answer_as_locally() {
    let patch = small_patch(300, 41);
    let q = cluster_from(&patch, 4);
    let db = monolithic_db(&patch);
    for sql in [
        "SELECT objectId, POW(10.0, 400.0) AS big FROM Object WHERE objectId = 17",
        "SELECT objectId, POW(-1.0, 0.5) AS big FROM Object WHERE objectId = 17",
        "SELECT COUNT(*) AS n FROM Object WHERE ra_PS < 1e999",
    ] {
        let distributed = q
            .query(sql)
            .unwrap_or_else(|e| panic!("distributed {sql}: {e}"));
        let local = execute(&db, &parse_select(sql).unwrap())
            .unwrap_or_else(|e| panic!("local {sql}: {e}"));
        assert_eq!(local.num_rows(), 1, "{sql}");
        assert_eq!(distributed.rows.len(), local.rows.len(), "{sql}");
        for (d, l) in distributed.rows.iter().zip(&local.rows) {
            for (dv, lv) in d.iter().zip(l) {
                let same = match (dv, lv) {
                    (Value::Float(a), Value::Float(b)) if b.is_nan() => a.is_nan(),
                    _ => dv == lv,
                };
                assert!(same, "{sql}: distributed {dv:?} vs local {lv:?}");
            }
        }
    }
}

/// A chunk whose result column is entirely NULL carries no type: the
/// other chunks' Int values stay Int. Chunk `c`, the first stored chunk,
/// computes `x % 0`, so its column is all NULL; every cell must have the
/// variant the single-node engine gives it, not only its value.
#[test]
fn null_only_chunk_column_keeps_its_type() {
    let patch = small_patch(300, 41);
    let q = cluster_from(&patch, 4);
    let db = monolithic_db(&patch);
    let first = execute(
        &db,
        &parse_select("SELECT MIN(chunkId) FROM Object").unwrap(),
    )
    .unwrap();
    let c = first.scalar().and_then(|v| v.as_i64()).expect("a chunk id");
    for sql in [
        format!("SELECT objectId, chunkId % (chunkId - {c}) AS m FROM Object"),
        format!("SELECT MAX(chunkId % (chunkId - {c})) AS m FROM Object"),
        format!(
            "SELECT chunkId, MAX(objectId % (chunkId - {c})) AS m FROM Object GROUP BY chunkId"
        ),
    ] {
        let distributed = q
            .query(&sql)
            .unwrap_or_else(|e| panic!("distributed {sql}: {e}"));
        let local = execute(&db, &parse_select(&sql).unwrap())
            .unwrap_or_else(|e| panic!("local {sql}: {e}"));
        assert_matches_local(&sql, &distributed, &local);
        let variant = |v: &Value| std::mem::discriminant(v);
        for (d, l) in sorted_rows(&distributed.rows)
            .iter()
            .zip(&sorted_rows(&local.rows))
        {
            for (dv, lv) in d.iter().zip(l) {
                assert_eq!(
                    variant(dv),
                    variant(lv),
                    "{sql}: distributed {dv:?} vs local {lv:?}"
                );
            }
        }
    }
}

/// `LIMIT 0` answers with the statement's columns and no rows, as the
/// single-node engine does, with and without ORDER BY: the merger is
/// satisfied before any chunk result applies, so it names its columns
/// from the one chunk query the statement sends at any dispatch width.
#[test]
fn limit_zero_keeps_its_columns() {
    let patch = small_patch(300, 41);
    let mut q = cluster_from(&patch, 4);
    q.dispatch_width = 4;
    let db = monolithic_db(&patch);
    for sql in [
        "SELECT objectId FROM Object LIMIT 0",
        "SELECT objectId FROM Object ORDER BY objectId LIMIT 0",
        "SELECT COUNT(*) FROM Object LIMIT 0",
    ] {
        let (distributed, stats) = q
            .query_with_stats(sql)
            .unwrap_or_else(|e| panic!("distributed {sql}: {e}"));
        // One chunk names the columns, whatever the dispatch width.
        assert_eq!(stats.chunks_dispatched, 1, "{sql}");
        let local = execute(&db, &parse_select(sql).unwrap())
            .unwrap_or_else(|e| panic!("local {sql}: {e}"));
        assert_eq!(distributed.columns, local.columns, "{sql}");
        assert_eq!(distributed.rows, local.rows, "{sql}");
    }
}

/// An ORDER BY key need not be an output column as written: a key that
/// names an output through its alias's expression orders by that output,
/// and any other key rides to the merge as a hidden chunk column.
#[test]
fn order_by_keys_that_are_not_output_columns() {
    for sql in [
        "SELECT objectId AS o FROM Object ORDER BY objectId",
        "SELECT objectId AS o FROM Object ORDER BY objectId DESC LIMIT 3",
        "SELECT objectId FROM Object ORDER BY ra_PS",
        "SELECT objectId FROM Object ORDER BY ra_PS LIMIT 3",
        "SELECT objectId FROM Object ORDER BY ra_PS + decl_PS LIMIT 5",
        "SELECT chunkId AS c, COUNT(*) FROM Object GROUP BY chunkId ORDER BY chunkId",
    ] {
        check(sql, 800, 47);
    }
}

/// Backtick-quoted identifiers answer as on the engine: inside an
/// aggregate the master splits, as a group key, and as an ORDER BY key
/// written quoted like its output column.
#[test]
fn backtick_quoted_identifiers() {
    for sql in [
        "SELECT AVG(`ra_PS`) FROM Object",
        "SELECT `chunkId`, COUNT(*) FROM Object GROUP BY chunkId",
        "SELECT COUNT(*), `chunkId` FROM Object GROUP BY `chunkId` ORDER BY `chunkId` LIMIT 2",
        "SELECT `objectId` FROM Object ORDER BY `objectId`",
        "SELECT `objectId` FROM Object ORDER BY `objectId` LIMIT 2",
    ] {
        check(sql, 800, 47);
    }
}

/// Statements that name an output column twice answer on the
/// single-node engine, whose rows carry the name twice, but have no
/// result table: the frontend rejects them with a typed analysis error
/// before any chunk query leaves.
const REPEATED_NAMES: [&str; 7] = [
    "SELECT COUNT(*), COUNT(*) FROM Object",
    "SELECT SUM(ra_PS), SUM(ra_PS) FROM Object",
    "SELECT chunkId, chunkId, COUNT(*) FROM Object GROUP BY chunkId",
    "SELECT objectId, objectId FROM Object",
    "SELECT ra_PS AS x, decl_PS AS x FROM Object",
    "SELECT *, objectId FROM Object WHERE objectId = 17",
    "SELECT 1, 1",
];

#[test]
fn repeated_output_names_are_an_analysis_error() {
    let patch = small_patch(300, 41);
    let q = cluster_from(&patch, 4);
    for sql in REPEATED_NAMES {
        let err = q.query(sql).expect_err(sql);
        assert!(matches!(err, QservError::Analysis(_)), "{sql}: {err}");
    }
}

/// Through the query service, more rejected statements than it has
/// executors leave every executor serving: a following query answers.
#[test]
fn repeated_output_names_leave_the_service_serving() {
    let patch = small_patch(300, 41);
    let service = QueryService::start(Arc::new(cluster_from(&patch, 4)), ServiceConfig::default());
    let repeats = ServiceConfig::default().max_concurrent + 1;
    for sql in REPEATED_NAMES.iter().cycle().take(repeats) {
        match service.submit(sql) {
            Err(QservError::Analysis(_)) => {}
            Err(e) => panic!("{sql}: {e}"),
            Ok(handle) => panic!("{sql}: admitted as {:?}", handle.wait().result),
        }
    }
    let handle = service
        .submit("SELECT COUNT(*) FROM Object")
        .expect("admitted");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.wait());
    });
    let reply = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the service answers");
    let (rows, _) = reply.result.expect("COUNT(*) answers");
    assert_eq!(rows.scalar(), Some(&Value::Int(300)));
}
