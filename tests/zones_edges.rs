//! Chunk-zone elision edge cases (the satellite checklist of PR 9):
//!
//! * **Empty chunk** — a chunk materialized only for overlap rows has an
//!   empty owned table; its zones say `valid == 0`, which excludes it
//!   under *any* restriction, and that is sound because an empty chunk
//!   contributes zero rows anyway.
//! * **All-NULL zone column** — `valid == 0` again: NULL (and NaN) rows
//!   never satisfy a comparison, so the chunk is excludable even though
//!   it has rows.
//! * **Boundary equality** — an interval endpoint exactly on a zone
//!   min/max keeps the chunk (only strict inequality excludes): the
//!   registered bounds went through `as f64` and must stay conservative.
//! * **Keep-1 fallback** — when elision removes *every* chunk, one chunk
//!   still dispatches so the merge sees real input columns: `COUNT` over
//!   nothing is `0` and `SUM` is SQL `NULL`, not a missing row.

mod common;

use common::small_patch;
use qserv::{ChunkZones, ClusterBuilder, ColumnZone, Value};
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::storage::table_column_stats;
use qserv_engine::table::Table;

#[test]
fn all_null_column_summarizes_to_zero_valid_and_excludes() {
    // A chunk with rows whose zone column is entirely NULL: min/max are
    // the empty-fold identities and valid == 0.
    let mut t = Table::new(Schema::new(vec![
        ColumnDef::new("objectId", ColumnType::Int),
        ColumnDef::new("zFlux_PS", ColumnType::Float),
    ]));
    for i in 0..4 {
        t.push_row(vec![Value::Int(i), Value::Null]).unwrap();
    }
    let summary = table_column_stats(&t)
        .into_iter()
        .find(|s| s.name == "zFlux_PS")
        .expect("float column summarized");
    assert_eq!(summary.valid, 0);
    assert_eq!(summary.min, f64::INFINITY);
    assert_eq!(summary.max, f64::NEG_INFINITY);

    let mut zones = ChunkZones::new();
    zones.register(
        "Object",
        9,
        "zFlux_PS",
        ColumnZone {
            valid: summary.valid,
            min: summary.min,
            max: summary.max,
        },
    );
    // Any interval — even (-∞, ∞) — excludes: no NULL row can satisfy
    // a comparison. An empty chunk behaves identically (valid == 0).
    let any = vec![("zFlux_PS".to_string(), f64::NEG_INFINITY, f64::INFINITY)];
    let mut chunks = vec![9];
    assert_eq!(zones.elide_chunks("Object", &any, &mut chunks), 1);
    assert!(chunks.is_empty());
}

#[test]
fn empty_chunk_summary_matches_the_all_null_identities() {
    // Zero rows and all-NULL rows are the same case to the zone map:
    // valid == 0 with the empty-fold min/max identities.
    let t = Table::new(Schema::new(vec![ColumnDef::new(
        "ra_PS",
        ColumnType::Float,
    )]));
    let s = &table_column_stats(&t)[0];
    assert_eq!(
        (s.valid, s.min, s.max),
        (0, f64::INFINITY, f64::NEG_INFINITY)
    );
    assert!(ColumnZone {
        valid: s.valid,
        min: s.min,
        max: s.max
    }
    .excluded_by(f64::NEG_INFINITY, f64::INFINITY));
}

#[test]
fn boundary_equality_keeps_the_chunk_end_to_end() {
    let patch = small_patch(400, 71);
    let q = ClusterBuilder::new(3).build(&patch.objects, &patch.sources);
    // The exact global maximum of a zone column: a restriction whose
    // lower bound *equals* some chunk's max must keep that chunk (only
    // strict inequality is trusted), so the extremal row is found.
    let max_ra = patch
        .objects
        .iter()
        .map(|o| o.ra_ps)
        .fold(f64::NEG_INFINITY, f64::max);
    let (r, stats) = q
        .query_with_stats(&format!(
            "SELECT COUNT(*) FROM Object WHERE ra_PS >= {max_ra}"
        ))
        .expect("boundary query runs");
    let n = r.scalar().and_then(|v| v.as_i64()).expect("count");
    assert!(n >= 1, "the extremal row itself must be counted");
    // The chunk holding max_ra was kept; chunks strictly below were
    // elided (this patch spans many chunks, so some must be).
    assert!(
        stats.chunks_pruned > 0,
        "interior chunks below the max should be elided"
    );
}

#[test]
fn keep_1_fallback_preserves_aggregate_semantics() {
    let patch = small_patch(400, 72);
    let q = ClusterBuilder::new(3).build(&patch.objects, &patch.sources);
    // A restriction no row satisfies, provably so per-chunk: every
    // chunk is elided and the keep-1 fallback dispatches exactly one.
    let sql = "SELECT COUNT(*), SUM(uFlux_SG) FROM Object WHERE ra_PS > 100000";
    let (r, stats) = q.query_with_stats(sql).expect("fallback query runs");
    assert_eq!(
        stats.chunks_dispatched, 1,
        "all chunks elided, one dispatched as the fallback"
    );
    assert!(stats.chunks_pruned > 0, "elision actually fired");
    assert_eq!(r.rows.len(), 1, "aggregates always yield a row");
    assert_eq!(
        r.rows[0][0].as_i64(),
        Some(0),
        "COUNT over nothing is 0, not NULL or a missing row"
    );
    assert_eq!(r.rows[0][1], Value::Null, "SUM over nothing is SQL NULL");
}
