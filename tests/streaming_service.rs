//! Streaming results and the normalized-query result cache, proven at
//! the service layer:
//!
//! 1. **Equivalence** — for every query shape (pass-through selections,
//!    aggregations, ORDER BY LIMIT, point lookups), draining a
//!    streaming submission and reassembling the batches yields a table
//!    byte-identical to the buffered reply, including Int → Float
//!    re-coercion when a late chunk widens a column's merge vote.
//! 2. **Incrementality** — under per-chunk fabric delays, a streamable
//!    scan delivers multiple row batches (first rows leave while later
//!    chunks are still scanning), and dropping the handle mid-stream
//!    cancels the remaining work.
//! 3. **Caching** — with a byte budget armed, repeated queries (modulo
//!    whitespace/casing) are served from the cache without
//!    re-execution, `proxy.cache.{hit,miss,evict}` count faithfully,
//!    and a data-version bump invalidates every older entry.

mod common;

use common::small_patch;
use qserv::service::names;
use qserv::{
    CacheOutcome, ClusterBuilder, FabricOp, FaultPlan, QservError, QueryService, QueryState,
    ServiceConfig, StreamEvent, Value,
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
        assert_eq!(streamed.cache, CacheOutcome::Off, "cache defaults off");
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
                if !b.rows.is_empty() {
                    batches += 1;
                }
                rows += b.rows.len();
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
            StreamEvent::Batch(b) if !b.rows.is_empty() => break,
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

fn cached_cfg() -> ServiceConfig {
    ServiceConfig {
        cache_capacity_bytes: 1 << 20,
        ..ServiceConfig::default()
    }
}

#[test]
fn repeated_queries_hit_the_cache_with_identical_results() {
    let service = service(400, 74, cached_cfg());
    let sql = "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId";
    let (expected, _) = service
        .submit(sql)
        .expect("cold admitted")
        .wait()
        .result
        .expect("cold run succeeds");
    // Caching on changes nothing about the answer: the master asked
    // directly never consults the cache.
    assert_eq!(expected, service.qserv().query(sql).expect("uncached run"));
    // Identical resubmission: byte-identical replay.
    let (hot, _) = service
        .submit(sql)
        .expect("hot admitted")
        .wait()
        .result
        .expect("hot run succeeds");
    assert_eq!(hot, expected, "cache replay must be byte-identical");
    // Cosmetic variants (whitespace, keyword casing) normalize to the
    // same key. Function-name spelling is preserved by the renderer, so
    // `count(*)` vs `COUNT(*)` would be distinct entries — headers are
    // part of the result.
    let variant = "select  chunkId, COUNT(*) from Object  group by chunkId";
    let (cosmetic, _) = service
        .submit(variant)
        .expect("variant admitted")
        .wait()
        .result
        .expect("variant run succeeds");
    assert_eq!(cosmetic, expected, "variant shares the entry");

    // A streaming submission hits the same entry.
    let handle = service
        .submit_streaming(sql, None, None)
        .expect("stream admitted");
    assert!(handle.cache_hit, "third run should be served from cache");
    let streamed = handle.collect();
    assert_eq!(streamed.cache, CacheOutcome::Hit);
    let (table, _) = streamed.result.expect("hit succeeds");
    assert_eq!(table, expected);

    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter(names::CACHE_HIT), 3);
    assert_eq!(snap.counter(names::CACHE_MISS), 1);
    // Hits bypass admission entirely: only the cold run was admitted.
    let admitted = snap.counter(names::ADMITTED_INTERACTIVE) + snap.counter(names::ADMITTED_SCAN);
    assert_eq!(admitted, 1, "cache hits must not occupy queue slots");
    assert_eq!(service.result_cache_len(), 1);
}

#[test]
fn version_bump_invalidates_cached_entries() {
    let service = service(300, 75, cached_cfg());
    let sql = "SELECT COUNT(*) FROM Object";
    let first = service.submit(sql).expect("cold").wait();
    first.result.expect("cold succeeds");
    service.qserv().bump_data_version();
    // Stale entry: the query re-executes (a miss, not a hit).
    let second = service.submit(sql).expect("warm").wait();
    second.result.expect("re-execution succeeds");
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter(names::CACHE_HIT), 0);
    assert_eq!(snap.counter(names::CACHE_MISS), 2);
    // And the re-executed result was stored under the new version.
    let third = service.submit(sql).expect("hot").wait();
    third.result.expect("hit succeeds");
    assert_eq!(service.metrics_snapshot().counter(names::CACHE_HIT), 1);

    // clear_result_cache is the explicit hammer.
    service.clear_result_cache();
    assert_eq!(service.result_cache_len(), 0);
}

#[test]
fn table_version_bump_invalidates_only_that_tables_entries() {
    let service = service(300, 75, cached_cfg());
    let obj = "SELECT COUNT(*) FROM Object";
    let src = "SELECT COUNT(*) FROM Source";
    service
        .submit(obj)
        .expect("obj cold")
        .wait()
        .result
        .expect("obj runs");
    service
        .submit(src)
        .expect("src cold")
        .wait()
        .result
        .expect("src runs");
    // Bumping Source orphans the Source entry only: the Object lookup
    // keeps hitting, the Source one re-executes.
    service.qserv().bump_table_version("Source");
    service
        .submit(obj)
        .expect("obj warm")
        .wait()
        .result
        .expect("obj hits");
    service
        .submit(src)
        .expect("src warm")
        .wait()
        .result
        .expect("src reruns");
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter(names::CACHE_HIT), 1, "Object entry survived");
    assert_eq!(snap.counter(names::CACHE_MISS), 3, "Source entry orphaned");
}

/// The key is the rendering of the statement admission parsed, plus its
/// FROM tables: spellings the renderer erases share an entry, every
/// table of a join is covered by the version, and a spatial restriction
/// (which analysis strips from the statement it plans) stays in the key.
#[test]
fn cache_key_is_the_parsed_statement_and_its_tables() {
    let service = service(300, 79, cached_cfg());
    let run = |sql: &str| {
        let outcome = service
            .submit_streaming(sql, None, None)
            .expect("admitted")
            .collect();
        let (rows, _) = outcome.result.expect("runs");
        (outcome.cache, rows)
    };

    let join = "SELECT COUNT(*) FROM Object o, Source s WHERE o.objectId = s.objectId";
    let (cold, expected) = run(join);
    assert_eq!(cold, CacheOutcome::Miss);
    let (hot, rows) =
        run("select COUNT(*)  from Object AS o, Source AS s where o.objectId=s.objectId");
    assert_eq!(hot, CacheOutcome::Hit, "AS, casing and spacing fold away");
    assert_eq!(rows, expected);
    assert_eq!(service.result_cache_len(), 1);
    // Both FROM tables are in the version: bumping either orphans it.
    for table in ["Source", "Object"] {
        service.qserv().bump_table_version(table);
        assert_eq!(run(join).0, CacheOutcome::Miss, "{table} is in the key");
        assert_eq!(run(join).0, CacheOutcome::Hit);
    }

    // Same projection, different boxes: different statements.
    let west = "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(0.0, -2.0, 1.0, 2.0)";
    let all = "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(0.0, -7.0, 4.0, 7.0)";
    let (_, west_rows) = run(west);
    let (outcome, all_rows) = run(all);
    assert_eq!(outcome, CacheOutcome::Miss, "the box is part of the key");
    assert_ne!(west_rows, all_rows, "the boxes select different rows");
    assert_eq!(run(west), (CacheOutcome::Hit, west_rows));
}

#[test]
fn byte_budget_evicts_and_counts() {
    // A budget big enough for roughly one COUNT(*) result: the second
    // distinct query must push the first out.
    let service = service(
        200,
        76,
        ServiceConfig {
            cache_capacity_bytes: 100,
            cache_max_entry_bytes: 100,
            ..ServiceConfig::default()
        },
    );
    service
        .submit("SELECT COUNT(*) FROM Object")
        .expect("a")
        .wait()
        .result
        .expect("a runs");
    service
        .submit("SELECT COUNT(*) FROM Source")
        .expect("b")
        .wait()
        .result
        .expect("b runs");
    let snap = service.metrics_snapshot();
    assert!(
        snap.counter(names::CACHE_EVICT) >= 1,
        "a 150-byte budget cannot hold two results"
    );
    assert_eq!(service.result_cache_len(), 1);
}

#[test]
fn traced_hit_records_a_cache_span() {
    let service = service(200, 77, cached_cfg());
    let sql = "SELECT objectId FROM Object WHERE objectId = 5";
    service
        .submit_streaming(sql, Some("proxy.request"), None)
        .expect("cold")
        .collect()
        .result
        .expect("cold succeeds");
    let hot = service
        .submit_streaming(sql, Some("proxy.request"), None)
        .expect("hot")
        .collect();
    hot.result.expect("hit succeeds");
    let trace = hot.trace.expect("traced submission has a trace");
    trace.validate().expect("hit trace validates");
    assert!(
        trace.spans().iter().any(|s| s.name == "service.cache"),
        "hit trace must carry the cache span"
    );
}

#[test]
fn errors_are_not_cached_and_busy_still_rejects() {
    let service = service(
        200,
        78,
        ServiceConfig {
            cache_capacity_bytes: 1 << 20,
            ..ServiceConfig::default()
        },
    );
    // Analysis errors surface before admission and never populate.
    assert!(matches!(
        service.submit("SELECT * FROM Nonsense"),
        Err(QservError::Analysis(_))
    ));
    assert_eq!(service.result_cache_len(), 0);
    // FROM-less constants bypass the cache (nothing to save).
    service
        .submit("SELECT 1 + 1")
        .expect("constant admitted")
        .wait()
        .result
        .expect("constant runs");
    assert_eq!(service.result_cache_len(), 0);
    let snap = service.metrics_snapshot();
    assert_eq!(snap.counter(names::CACHE_MISS), 0, "not cacheable ≠ miss");
}
