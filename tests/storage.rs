//! On-disk columnar chunk storage, end to end: a cluster loaded through
//! `.storage_dir(..)` keeps its chunks in `.qchunk` files and must be
//! indistinguishable from the in-memory cluster — bit-identical rows for
//! every paper-shape query — while the observability counters
//! (`chunks_pruned`, `pages_pruned`, `pages_scanned`, `pages_cached`)
//! prove zone-map pruning actually engaged at both the master and the
//! workers, and that a scanned page is decoded once and then served from
//! the residency cache. The cache is held to its contract: answers do not
//! depend on its budget, only the columns a statement names enter it, it
//! never exceeds its budget, and it survives concurrent scans and chunk
//! moves. A chaos case kills a worker mid-cold-scan and demands the
//! clean-cluster result anyway.

mod common;

use common::{monolithic_db, small_patch, sorted_rows};
use qserv::analysis::analyze;
use qserv::rewrite::{build_plan, render_chunk_message};
use qserv::stats::names;
use qserv::{ClusterBuilder, FabricOp, FaultPlan, Qserv, QueryStats, Value};
use qserv_datagen::generate::Patch;
use qserv_engine::exec::{execute, execute_detailed, ExecMode};
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_engine::{
    tables_bit_identical, Database, Residency, ScanStats, DEFAULT_RESIDENCY_BUDGET,
};
use qserv_sqlparse::parse_select;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn storage_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qserv-itest-store-{}-{name}", std::process::id()));
    p
}

fn on_disk_cluster(patch: &Patch, nodes: usize, dir: &PathBuf) -> Qserv {
    ClusterBuilder::new(nodes)
        .storage_dir(dir)
        // Small pages so few-hundred-row test chunks still span several
        // row groups — zone-map page elision needs something to elide.
        .storage_page_rows(64)
        .build(&patch.objects, &patch.sources)
}

/// The query battery both cluster flavors must agree on: scans,
/// projections, aggregates, point lookups, spatial restrictions, and the
/// joins that force workers to materialize stored chunks (union tables,
/// subchunks, overlap).
const QUERIES: [&str; 8] = [
    "SELECT COUNT(*) FROM Object",
    "SELECT objectId, ra_PS, decl_PS FROM Object WHERE zFlux_PS > 0.2",
    "SELECT COUNT(*) AS n, AVG(uFlux_SG) FROM Object",
    "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId",
    "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = 123",
    "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(359.0, -3.0, 2.0, 1.5)",
    "SELECT COUNT(*) FROM Object o, Source s WHERE o.objectId = s.objectId \
     AND o.uFlux_SG > 0.3",
    "SELECT count(*) FROM Object o1, Object o2 \
     WHERE qserv_areaspec_box(0.0, -2.0, 2.0, 2.0) \
     AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05",
];

/// Every query returns bit-identical rows whether chunks live in RAM or
/// in `.qchunk` files — the acceptance bar for the storage layer.
#[test]
fn on_disk_cluster_matches_in_memory_cluster() {
    let patch = small_patch(600, 42);
    let dir = storage_dir("equiv");
    let mem = ClusterBuilder::new(4).build(&patch.objects, &patch.sources);
    let disk = on_disk_cluster(&patch, 4, &dir);
    for sql in QUERIES {
        let m = mem.query(sql).unwrap_or_else(|e| panic!("mem {sql}: {e}"));
        let d = disk
            .query(sql)
            .unwrap_or_else(|e| panic!("disk {sql}: {e}"));
        assert_eq!(m.columns, d.columns, "columns differ for {sql}");
        assert_eq!(
            sorted_rows(&m.rows),
            sorted_rows(&d.rows),
            "rows differ for {sql}"
        );
    }
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The loader actually wrote chunk files, and they carry real bytes.
#[test]
fn loader_persists_chunk_files() {
    let patch = small_patch(300, 7);
    let dir = storage_dir("files");
    let q = on_disk_cluster(&patch, 3, &dir);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("storage dir exists")
        .map(|e| e.unwrap())
        .collect();
    assert!(!files.is_empty(), "no chunk files written");
    for f in &files {
        let name = f.file_name().into_string().unwrap();
        assert!(name.ends_with(".qchunk"), "unexpected file {name}");
        assert!(f.metadata().unwrap().len() > 0, "empty chunk file {name}");
    }
    // Object, Source and RefObject-less clusters: at least Object+Source
    // per chunk.
    let (r, stats) = q.query_with_stats("SELECT COUNT(*) FROM Object").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(300)));
    assert!(files.len() >= 2 * stats.chunks_dispatched);
    drop(q);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A selective objectId range on cold chunks: workers must decode only
/// the row groups whose zone maps admit the range, and the elision must
/// be visible in `QueryStats` without changing the answer. The same scan
/// against the monolithic oracle is the "full scan" side of the
/// pruned ≡ full equivalence.
#[test]
fn zone_map_pruned_scan_equals_full_scan() {
    let patch = small_patch(900, 11);
    let dir = storage_dir("pruned");
    let disk = on_disk_cluster(&patch, 4, &dir);
    let local = monolithic_db(&patch);
    // objectIds are assigned in generation order, so each chunk file
    // stores them sorted: a narrow BETWEEN admits few pages.
    for (lo, hi) in [(400, 460), (1, 25), (880, 1200)] {
        let sql =
            format!("SELECT objectId, ra_PS FROM Object WHERE objectId BETWEEN {lo} AND {hi}");
        let (d, stats) = disk
            .query_with_stats(&sql)
            .unwrap_or_else(|e| panic!("disk {sql}: {e}"));
        let l = execute(&local, &parse_select(&sql).expect("parses")).expect("local");
        assert_eq!(
            sorted_rows(&d.rows),
            sorted_rows(&l.rows),
            "pruned scan changed rows for {sql}"
        );
        assert!(
            stats.pages_scanned > 0,
            "cold scan decoded no pages for {sql}: {stats:?}"
        );
        assert!(
            stats.pages_pruned > 0,
            "zone maps elided no pages for {sql}: {stats:?}"
        );
    }
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Master-side chunk elision: a plain numeric `ra_PS` interval is not a
/// spatial restriction (no areaspec UDF), so without zone maps every
/// chunk would dispatch. With them, chunks whose ra range cannot
/// intersect are never dispatched — and the count still matches the
/// oracle.
#[test]
fn chunk_zone_maps_elide_dispatches() {
    let patch = small_patch(900, 23);
    let dir = storage_dir("chunkelide");
    let disk = on_disk_cluster(&patch, 4, &dir);
    let local = monolithic_db(&patch);

    let sql = "SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 359.0 AND 359.8";
    let (d, ra_stats) = disk.query_with_stats(sql).expect("disk");
    let l = execute(&local, &parse_select(sql).expect("parses")).expect("local");
    assert_eq!(d.scalar(), l.scalar(), "elision changed the count");
    assert!(
        ra_stats.chunks_pruned > 0,
        "no chunks elided for a narrow ra interval: {ra_stats:?}"
    );

    // A predicate no row can satisfy prunes *every* chunk; the one
    // fallback dispatch keeps aggregate semantics (COUNT over nothing
    // is 0, not NULL).
    let (none, stats) = disk
        .query_with_stats("SELECT COUNT(*) FROM Object WHERE zFlux_PS > 1.0e30")
        .expect("disk");
    assert_eq!(none.scalar(), Some(&Value::Int(0)));
    assert!(stats.chunks_pruned > 0);
    assert_eq!(
        stats.chunks_dispatched, 1,
        "only the fallback dispatch runs"
    );

    // In-memory clusters register the same zone maps: elision does not
    // depend on the on-disk format.
    let mem = ClusterBuilder::new(4).build(&patch.objects, &patch.sources);
    let (m, mstats) = mem.query_with_stats(sql).expect("mem");
    assert_eq!(m.scalar(), l.scalar());
    assert_eq!(
        mstats.chunks_pruned, ra_stats.chunks_pruned,
        "elision must not depend on the storage mode"
    );
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pruning counters surface through all three observability paths:
/// the stats view, the raw metrics snapshot, and the span tree (worker
/// statement spans annotate page counts; the analyze span annotates
/// chunk elision).
#[test]
fn pruning_counters_surface_in_stats_metrics_and_trace() {
    let patch = small_patch(900, 31);
    let dir = storage_dir("obs");
    let disk = on_disk_cluster(&patch, 4, &dir);

    let sql = "SELECT objectId FROM Object \
               WHERE objectId BETWEEN 200 AND 260 AND ra_PS BETWEEN 359.0 AND 359.9";
    // Once untraced, so the traced run finds its pages resident.
    disk.query(sql).expect("cold");
    let traced = disk.query_traced(sql).expect("traced");

    // Stats view sees the worker page counters.
    assert!(traced.stats.pages_scanned > 0, "{:?}", traced.stats);
    assert!(traced.stats.pages_pruned > 0, "{:?}", traced.stats);
    // The stats view is exactly the metrics snapshot.
    assert_eq!(traced.stats, QueryStats::from_snapshot(&traced.metrics));
    assert_eq!(
        traced.metrics.counter(names::PAGES_PRUNED),
        traced.stats.pages_pruned
    );
    assert_eq!(
        traced.metrics.counter(names::PAGES_SCANNED),
        traced.stats.pages_scanned
    );
    assert_eq!(traced.stats.pages_cached, traced.stats.pages_scanned);
    assert_eq!(
        traced.metrics.counter(names::PAGES_CACHED),
        traced.stats.pages_cached
    );
    assert_eq!(
        traced.metrics.counter(names::CHUNKS_PRUNED) as usize,
        traced.stats.chunks_pruned
    );

    // Worker statement spans annotate their page elision; the totals
    // across the trace reconcile with the query counters.
    let spans = traced.trace.spans();
    let total = |attr: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == "worker.statement")
            .filter_map(|s| s.attr(attr))
            .map(|v| v.parse::<u64>().unwrap())
            .sum()
    };
    assert_eq!(total("pages_pruned"), traced.stats.pages_pruned);
    assert_eq!(total("pages_scanned"), traced.stats.pages_scanned);
    assert_eq!(total("pages_cached"), traced.stats.pages_cached);
    if traced.stats.chunks_pruned > 0 {
        let analyze = spans
            .iter()
            .find(|s| s.name == "master.analyze")
            .expect("analyze span");
        assert_eq!(
            analyze.attr("chunks_pruned"),
            Some(traced.stats.chunks_pruned.to_string().as_str())
        );
    }
    // The JSON export carries the annotations for external tooling.
    let json = traced.trace.to_json();
    assert!(json.contains("pages_pruned"), "export lost annotations");
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm in-memory clusters never touch the paged path: their stats must
/// keep reporting zero page counters.
#[test]
fn in_memory_cluster_reports_no_page_counters() {
    let patch = small_patch(400, 13);
    let mem = ClusterBuilder::new(3).build(&patch.objects, &patch.sources);
    let (r, stats) = mem
        .query_with_stats("SELECT COUNT(*) FROM Object WHERE objectId BETWEEN 10 AND 90")
        .expect("mem");
    assert_eq!(r.scalar(), Some(&Value::Int(81)));
    assert_eq!(stats.pages_scanned, 0);
    assert_eq!(stats.pages_pruned, 0);
}

/// Chaos: a replicated on-disk cluster loses fabric writes while every
/// chunk is still cold (first scan after load). Retries land on the
/// replica, which decodes the same chunk files — the result must be
/// byte-for-byte the clean cluster's, and the faults must be visible in
/// the stats.
#[test]
fn worker_death_mid_cold_scan_matches_clean_cluster() {
    let patch = small_patch(700, 57);
    let build = |dir: &PathBuf, seed: u64| {
        ClusterBuilder::new(4)
            .replication(2)
            .fault_plan(FaultPlan::new(seed))
            .storage_dir(dir)
            .storage_page_rows(64)
            .build(&patch.objects, &patch.sources)
    };
    let sql = "SELECT objectId, ra_PS, zFlux_PS FROM Object WHERE objectId BETWEEN 100 AND 420";

    let clean_dir = storage_dir("chaos-clean");
    let clean = build(&clean_dir, 1);
    let expected = clean.query(sql).expect("clean cold scan");

    // Faulted twin: the first fabric writes fail, killing the initial
    // chunk dispatches mid-cold-scan; dispatch must retry them on the
    // other replica.
    let chaos_dir = storage_dir("chaos-faulted");
    let chaos = build(&chaos_dir, 2);
    chaos
        .cluster()
        .faults()
        .fail_next(None, Some(FabricOp::Write), 4);
    let (got, stats) = chaos.query_with_stats(sql).expect("chaotic cold scan");
    assert_eq!(
        sorted_rows(&got.rows),
        sorted_rows(&expected.rows),
        "worker death during a cold scan changed the result"
    );
    assert!(stats.chunks_retried > 0, "faults must force retries");
    assert!(stats.injected_faults_observed >= 4);
    assert!(stats.pages_scanned > 0, "retried scans still run paged");

    // A whole server down for the next cold-ish query: replica chunks
    // decode from the same files, so rows still match.
    chaos.cluster().servers()[0].set_online(false);
    let down = chaos.query(sql).expect("query with a server down");
    assert_eq!(sorted_rows(&down.rows), sorted_rows(&expected.rows));
    chaos.cluster().servers()[0].set_online(true);

    drop(chaos);
    drop(clean);
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}

// --- the residency cache ------------------------------------------------

/// Rows per page of the engine-level chunk below, and what one decoded
/// numeric page of it weighs in the cache: eight value bytes and one mask
/// byte per row.
const PAGE_ROWS: usize = 64;
const PAGE_BYTES: u64 = PAGE_ROWS as u64 * 9;
/// Five pages per column, the last one short.
const CHUNK_ROWS: i64 = 4 * PAGE_ROWS as i64 + 17;

/// A Source-shaped chunk table with NULLs, NaNs and signed zeros in it.
fn source_chunk() -> Table {
    let mut t = Table::new(Schema::new(vec![
        ColumnDef::new("sourceId", ColumnType::Int),
        ColumnDef::new("objectId", ColumnType::Int),
        ColumnDef::new("psfFlux", ColumnType::Float),
        ColumnDef::new("decl", ColumnType::Float),
        ColumnDef::new("band", ColumnType::Str),
        ColumnDef::new("chunkId", ColumnType::Int),
    ]));
    for i in 0..CHUNK_ROWS {
        let flux = match i % 23 {
            5 => Value::Null,
            9 => Value::Float(f64::NAN),
            13 => Value::Float(-0.0),
            _ => Value::Float((i * 37 % 1000) as f64 * 1.5 - 200.0),
        };
        t.push_row(vec![
            Value::Int(1000 + i),
            if i % 31 == 0 {
                Value::Null
            } else {
                Value::Int(i / 5)
            },
            flux,
            Value::Float(i as f64 * 0.01 - 1.0),
            Value::Str(["u", "g", "r", "i"][i as usize % 4].to_string()),
            Value::Int(77),
        ])
        .unwrap();
    }
    t.build_index("objectId").unwrap();
    t
}

/// `copies` chunk files of [`source_chunk`] attached as `Source_0..`
/// behind a cache of `budget` bytes, and the same tables in memory.
fn stored_and_memory(name: &str, copies: usize, budget: u64) -> (PathBuf, Database, Database) {
    let dir = storage_dir(name);
    std::fs::create_dir_all(&dir).unwrap();
    let (mut stored, mut memory) = (Database::new(), Database::new());
    stored.set_residency(Arc::new(Residency::new(budget)));
    let table = source_chunk();
    for i in 0..copies {
        let path = dir.join(format!("Source_{i}.qchunk"));
        qserv_engine::write_table(&path, &table, PAGE_ROWS).unwrap();
        stored.attach_stored(&format!("Source_{i}"), &path).unwrap();
        memory.create_table(&format!("Source_{i}"), table.clone());
    }
    (dir, stored, memory)
}

/// Runs `sql`, returning rows with floats as their bits, so NaN == NaN
/// and -0.0 != 0.0.
fn run_bits(db: &Database, sql: &str, mode: ExecMode) -> (Vec<Vec<String>>, ScanStats) {
    let stmt = parse_select(sql).expect("parses");
    let (result, _, scan) =
        execute_detailed(db, &stmt, mode).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let bits = |v: &Value| match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    let rows = result
        .rows
        .iter()
        .map(|r| r.iter().map(bits).collect())
        .collect();
    (rows, scan)
}

/// The HVS chunk statement as the master renders it, and companions that
/// prune pages, project rows, hit NULL/NaN handling and fall back to the
/// interpreter (a string comparison does not vectorize).
const CHUNK_STATEMENTS: [&str; 6] = [
    "SELECT COUNT(*) AS n, SUM(psfFlux) AS s, COUNT(psfFlux) AS c FROM Source_0 \
     WHERE psfFlux > 100.5",
    "SELECT COUNT(*) FROM Source_0 WHERE decl BETWEEN 0.2 AND 0.4",
    "SELECT sourceId, psfFlux, band FROM Source_0 WHERE objectId = 21",
    "SELECT chunkId, COUNT(*), MIN(psfFlux), MAX(psfFlux) FROM Source_0 GROUP BY chunkId",
    "SELECT sourceId, psfFlux FROM Source_0 WHERE psfFlux IS NULL",
    "SELECT COUNT(*) FROM Source_0 WHERE band = 'r'",
];

/// Budgets {0, one page, default} × {paged scan, interpreter}: the cache
/// decides what a statement costs, never what it answers.
#[test]
fn answers_do_not_depend_on_the_budget_or_the_path() {
    for (name, budget) in [
        ("budget-zero", 0),
        ("budget-page", PAGE_BYTES),
        ("budget-default", DEFAULT_RESIDENCY_BUDGET),
    ] {
        let (dir, stored, memory) = stored_and_memory(name, 1, budget);
        for sql in CHUNK_STATEMENTS {
            let (oracle, _) = run_bits(&memory, sql, ExecMode::Interpreted);
            // Twice each, so the second run meets whatever the first left
            // in the cache.
            for round in 0..2 {
                for mode in [ExecMode::Auto, ExecMode::Interpreted] {
                    let (rows, _) = run_bits(&stored, sql, mode);
                    assert_eq!(
                        rows, oracle,
                        "{sql} ({mode:?}, round {round}, budget {budget})"
                    );
                }
            }
            assert!(stored.residency().resident_bytes() <= budget);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The exact counts of one chunk's HVS statement: every kept page is read
/// and decoded the first time and none the second — the chunk file can
/// even be gone by then — and only the column the statement names was
/// ever decoded. With no budget nothing is kept and nothing changes.
#[test]
fn a_second_identical_scan_decodes_zero_pages() {
    let hvs = CHUNK_STATEMENTS[0];
    let (dir, stored, memory) = stored_and_memory("rescan", 1, DEFAULT_RESIDENCY_BUDGET);
    let (oracle, _) = run_bits(&memory, hvs, ExecMode::Interpreted);
    let residency = Arc::clone(stored.residency());

    let (rows, first) = run_bits(&stored, hvs, ExecMode::Auto);
    assert_eq!(rows, oracle);
    // psfFlux 100.5.. survives in every page of this chunk: n = 5.
    assert_eq!(
        first,
        ScanStats {
            pages_pruned: 0,
            pages_scanned: 5,
            pages_cached: 0
        }
    );
    // One column's pages, nothing else: 273 rows × (8 + 1) bytes.
    assert_eq!(residency.resident_pages(), 5);
    assert_eq!(residency.resident_bytes(), CHUNK_ROWS as u64 * 9);

    std::fs::remove_dir_all(&dir).unwrap();
    let (rows, second) = run_bits(&stored, hvs, ExecMode::Auto);
    assert_eq!(rows, oracle);
    assert_eq!(
        second,
        ScanStats {
            pages_cached: 5,
            ..first
        }
    );
    let stats = residency.stats();
    assert_eq!((stats.hits, stats.misses, stats.evicted_bytes), (5, 5, 0));

    let (dir, stored, _) = stored_and_memory("rescan-zero", 1, 0);
    for _ in 0..2 {
        let (rows, scan) = run_bits(&stored, hvs, ExecMode::Auto);
        assert_eq!(rows, oracle);
        assert_eq!(scan, first, "budget 0 keeps nothing");
    }
    assert_eq!(stored.residency().resident_pages(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same through a whole cluster: the first full scan of Source reads
/// every page from disk, the second none, `QueryStats` says so, and the
/// workers' footprint grew by exactly the one column the scan names.
#[test]
fn a_cluster_rescan_is_served_from_the_workers_caches() {
    let patch = small_patch(600, 19);
    let dir = storage_dir("cluster-rescan");
    let disk = on_disk_cluster(&patch, 3, &dir);
    let footprint = || {
        disk.workers()
            .iter()
            .map(|w| w.footprint_bytes())
            .sum::<u64>()
    };
    let sql = "SELECT COUNT(*), AVG(psfFlux) FROM Source WHERE psfFlux > -1.0e30";

    let before = footprint();
    let (cold, first) = disk.query_with_stats(sql).expect("cold scan");
    assert!(first.pages_scanned > 0, "{first:?}");
    assert_eq!(
        (first.pages_pruned, first.pages_cached),
        (0, 0),
        "{first:?}"
    );
    assert_eq!(
        footprint() - before,
        patch.sources.len() as u64 * 9,
        "psfFlux and its mask, of every Source row, and no other column"
    );
    let (warm, second) = disk.query_with_stats(sql).expect("warm scan");
    assert_eq!(warm.rows, cold.rows);
    assert_eq!(second.pages_scanned, first.pages_scanned);
    assert_eq!(second.pages_cached, second.pages_scanned, "{second:?}");
    assert_eq!(footprint() - before, patch.sources.len() as u64 * 9);
    drop(disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A budget of one page: every scan still answers, the cache never holds
/// more than the page, and what it evicts is counted.
#[test]
fn a_one_page_budget_evicts_and_still_answers() {
    let (dir, stored, memory) = stored_and_memory("one-page", 1, PAGE_BYTES);
    let sql = CHUNK_STATEMENTS[0];
    let (oracle, _) = run_bits(&memory, sql, ExecMode::Interpreted);
    let residency = Arc::clone(stored.residency());

    let (rows, scan) = run_bits(&stored, sql, ExecMode::Auto);
    assert_eq!(rows, oracle);
    assert_eq!((scan.pages_scanned, scan.pages_cached), (5, 0));
    // Four full pages went through a one-page cache; the short last page
    // (17 rows) is what is left.
    assert_eq!(residency.resident_pages(), 1);
    assert_eq!(residency.resident_bytes(), 17 * 9);
    assert_eq!(residency.stats().evicted_bytes, 4 * PAGE_BYTES);
    // The survivor is the one page the next scan finds.
    let (rows, scan) = run_bits(&stored, sql, ExecMode::Auto);
    assert_eq!(rows, oracle);
    assert_eq!((scan.pages_scanned, scan.pages_cached), (5, 1));
    assert!(residency.resident_bytes() <= PAGE_BYTES);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A catalog four times the budget scans to completion, twice, and the
/// cache is never found above its budget (scans in flight hold their own
/// pages on top of that, by `Arc`).
#[test]
fn a_catalog_four_times_the_budget_scans_within_it() {
    const COPIES: usize = 8;
    // Every column of every chunk is scanned below.
    let (dir, probe, _) = stored_and_memory("sizing", 1, DEFAULT_RESIDENCY_BUDGET);
    probe.materialize("Source_0").unwrap();
    let budget = probe.residency().resident_bytes() * COPIES as u64 / 4;
    let _ = std::fs::remove_dir_all(&dir);

    let (dir, stored, memory) = stored_and_memory("over-budget", COPIES, budget);
    for round in 0..2 {
        for i in 0..COPIES {
            let sql = format!(
                "SELECT COUNT(sourceId), COUNT(objectId), SUM(psfFlux), SUM(decl), MIN(band), \
                 SUM(chunkId) FROM Source_{i}"
            );
            let (oracle, _) = run_bits(&memory, &sql, ExecMode::Interpreted);
            let (rows, scan) = run_bits(&stored, &sql, ExecMode::Auto);
            assert_eq!(rows, oracle, "{sql} (round {round})");
            assert_eq!(scan.pages_scanned, 5);
            assert!(stored.residency().resident_bytes() <= budget);
        }
    }
    assert!(stored.residency().stats().evicted_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two threads scan the same cold chunk at the same moment: both answer
/// right, and the page each decoded is resident once.
#[test]
fn two_threads_scanning_the_same_cold_chunk_agree() {
    let (dir, stored, memory) = stored_and_memory("two-threads", 1, DEFAULT_RESIDENCY_BUDGET);
    let sql = CHUNK_STATEMENTS[0];
    let (oracle, _) = run_bits(&memory, sql, ExecMode::Interpreted);
    let go = Barrier::new(2);
    std::thread::scope(|scope| {
        let scans: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    go.wait();
                    run_bits(&stored, sql, ExecMode::Auto)
                })
            })
            .collect();
        for scan in scans {
            let (rows, stats) = scan.join().expect("scan thread");
            assert_eq!(rows, oracle);
            assert_eq!(stats.pages_scanned, 5);
        }
    });
    let stats = stored.residency().stats();
    assert_eq!(stats.hits + stats.misses, 10);
    assert!((5..=10).contains(&stats.misses), "{stats:?}");
    assert_eq!(stored.residency().resident_pages(), 5);
    assert_eq!(stored.residency().resident_bytes(), CHUNK_ROWS as u64 * 9);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scans of an on-disk chunk race its export → detach → import cycle: a
/// message is answered as it is alone, or NACKed while the chunk is away,
/// and pages of the files that were detached do not push the cache over
/// its budget.
#[test]
fn detach_and_import_race_a_scan() {
    let patch = small_patch(600, 29);
    let dir = storage_dir("move-race");
    let q = on_disk_cluster(&patch, 1, &dir);
    let worker = &q.workers()[0];
    let budget = 64 * 1024;
    let residency = Arc::new(Residency::new(budget));
    worker.set_residency(Arc::clone(&residency));
    let chunk = q.placement().chunks()[0];
    let message = {
        let stmt = parse_select("SELECT COUNT(*), SUM(ra_PS) FROM Object WHERE decl_PS > -90.0")
            .expect("parses");
        let analysis = analyze(&stmt, q.meta()).expect("analyses");
        let plan = build_plan(&analysis, q.meta()).expect("plans");
        render_chunk_message(&plan, q.meta(), chunk, &[])
    };
    let (alone, _) = worker
        .execute_message_detailed(chunk, &message)
        .expect("alone");

    // The scanners run at least 200 scans each and on until the mover
    // has published a completed cycle, so a fast build cannot finish
    // scanning before anything moved; 10 s caps the wait.
    let stop = AtomicBool::new(false);
    let cycles = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    std::thread::scope(|scope| {
        let scanners: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut answered = 0usize;
                    let mut scans = 0usize;
                    while scans < 200
                        || (cycles.load(Ordering::Acquire) == 0 && Instant::now() < deadline)
                    {
                        match worker.execute_message_detailed(chunk, &message) {
                            Ok((table, scan)) => {
                                assert!(tables_bit_identical(&table, &alone));
                                assert!(scan.pages_scanned > 0);
                                answered += 1;
                            }
                            Err(e) => assert!(e.contains("not resident"), "{e}"),
                        }
                        scans += 1;
                    }
                    answered
                })
            })
            .collect();
        let mover = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let files = worker.export_chunk(chunk).expect("export");
                assert!(worker.detach_chunk(chunk) > 0);
                worker
                    .import_chunk(chunk, &files, Some(&dir))
                    .expect("import");
                assert!(residency.resident_bytes() <= budget);
                cycles.fetch_add(1, Ordering::Release);
            }
        });
        let answered: Vec<_> = scanners.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        mover.join().expect("mover");
        assert!(
            cycles.load(Ordering::Acquire) > 0,
            "the mover completed no cycle in 10 s"
        );
        let answered: usize = answered.into_iter().map(|a| a.expect("scanner")).sum();
        assert!(answered > 0, "some scan was answered");
    });
    // The chunk is back, under a new file: the next scan decodes it anew.
    let (_, scan) = worker
        .execute_message_detailed(chunk, &message)
        .expect("after the moves");
    assert!(scan.pages_scanned > 0);
    drop(q);
    let _ = std::fs::remove_dir_all(&dir);
}
