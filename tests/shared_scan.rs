//! Shared scanning (§4.3): the convoy scheduler must return exactly what
//! independent execution returns, while visiting each chunk once.

mod common;

use common::{cluster_from, small_patch};
use qserv::sharedscan::SharedScanner;
use qserv::QueryStats;

#[test]
fn convoy_matches_independent_execution() {
    let patch = small_patch(600, 71);
    let q = cluster_from(&patch, 4);
    let queries = [
        "SELECT COUNT(*) FROM Object",
        "SELECT objectId FROM Object WHERE fluxToAbMag(zFlux_PS) < 22",
        "SELECT count(*) AS n, chunkId FROM Object GROUP BY chunkId",
        "SELECT AVG(ra_PS) FROM Object",
    ];
    let report = SharedScanner::new(&q).run(&queries).expect("convoy runs");
    assert_eq!(report.results.len(), queries.len());
    for (sql, shared) in queries.iter().zip(&report.results) {
        let solo = q.query(sql).expect("solo runs");
        assert_eq!(&solo, shared, "convoy result differs for {sql}");
    }
}

#[test]
fn convoy_shares_chunk_passes() {
    let patch = small_patch(500, 72);
    let q = cluster_from(&patch, 3);
    let queries = [
        "SELECT COUNT(*) FROM Object",
        "SELECT SUM(uFlux_SG) FROM Object",
        "SELECT MAX(ra_PS) FROM Object",
    ];
    let report = SharedScanner::new(&q).run(&queries).expect("convoy runs");
    // Three full-sky queries over the same chunk set: the convoy walks the
    // union once; naive execution would walk it three times.
    assert_eq!(report.naive_passes, 3 * report.chunk_passes);
    assert_eq!(report.chunk_passes, q.placement().chunks().len());
}

#[test]
fn convoy_with_disjoint_chunk_sets() {
    let patch = small_patch(800, 73);
    let q = cluster_from(&patch, 4);
    // Two spatially-restricted queries over different corners plus a
    // full-sky one: the union is just the full sky.
    let queries = [
        "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(0.5, 0.5, 3.0, 5.0)",
        "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(358.2, -6.0, 359.5, -0.5)",
        "SELECT COUNT(*) FROM Object",
    ];
    let report = SharedScanner::new(&q).run(&queries).expect("convoy runs");
    assert_eq!(report.chunk_passes, q.placement().chunks().len());
    assert!(report.naive_passes > report.chunk_passes);
    for (sql, shared) in queries.iter().zip(&report.results) {
        assert_eq!(&q.query(sql).expect("solo"), shared, "{sql}");
    }
}

#[test]
fn convoy_of_one_equals_plain_query() {
    let patch = small_patch(200, 74);
    let q = cluster_from(&patch, 2);
    let report = SharedScanner::new(&q)
        .run(&["SELECT COUNT(*) FROM Source"])
        .expect("runs");
    assert_eq!(report.naive_passes, report.chunk_passes);
    assert_eq!(
        report.results[0],
        q.query("SELECT COUNT(*) FROM Source").expect("solo")
    );
}

/// A convoy member reports its solo run's statistics — planner, pruning
/// and index instruments included — on every field but the merge
/// overlap, which is a clock span rather than a count.
#[test]
fn convoy_member_stats_equal_solo_stats() {
    let patch = small_patch(600, 78);
    let mut q = cluster_from(&patch, 4);
    q.dispatch_width = 1;
    let queries = [
        "SELECT COUNT(*) FROM Object",
        "SELECT objectId FROM Object WHERE decl_PS > 0",
        "SELECT count(*) AS n, chunkId FROM Object GROUP BY chunkId",
    ];
    let report = SharedScanner::new(&q).run(&queries).expect("convoy runs");
    assert!(
        report.stats[1].chunks_pruned > 0,
        "the decl_PS > 0 member must report its zone-pruned chunks"
    );
    for (sql, convoy) in queries.iter().zip(&report.stats) {
        let (_, solo) = q.query_with_stats(sql).expect("solo runs");
        let convoy = QueryStats {
            merge_overlap_ms: solo.merge_overlap_ms,
            ..convoy.clone()
        };
        assert_eq!(convoy, solo, "convoy stats differ for {sql}");
    }
}

#[test]
fn convoy_rejects_tableless_queries() {
    let patch = small_patch(50, 75);
    let q = cluster_from(&patch, 1);
    assert!(SharedScanner::new(&q).run(&["SELECT 1"]).is_err());
}
