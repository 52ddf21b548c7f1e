//! Placement & membership under chaos: node loss, repair, join/drain
//! and epoch pinning.
//!
//! The invariants proven here:
//!
//! * **Repair restores the replication factor.** After a permanent node
//!   loss, every chunk is back at factor-R on live members, the copies
//!   are real (the new workers answer queries), and results are
//!   bit-identical to the pre-loss run.
//! * **An acked replica is never lost.** Seeded fabric faults fire
//!   *during* the repair copies (failed reads, corrupted payloads); a
//!   replica is recorded in the placement map only after its payload
//!   survives digest checks and installs — proven by killing the copy
//!   *source* afterwards and querying purely from the repaired replicas.
//! * **Queries pin their epoch.** Queries running concurrently with
//!   join/rebalance either complete against the old epoch or retry
//!   cleanly against the new one; every result matches the oracle. A
//!   statement queued in the service across a join runs the plan — epoch
//!   and chunk set — it was admitted with.
//! * **No `/result/*` residue** survives any of it.
//!
//! The chaos seed comes from `QSERV_PLACEMENT_SEED` (default 1) so CI
//! runs a seed matrix.

mod common;

use common::{assert_matches_local, monolithic_db, small_patch, sorted_rows};
use qserv::{
    ClusterBuilder, FabricOp, FaultPlan, Qserv, QservError, QueryService, QueryState, RetryPolicy,
    ServiceConfig, Value,
};
use qserv_datagen::generate::Patch;
use std::sync::Arc;
use std::time::Duration;

const QUERIES: [&str; 4] = [
    "SELECT COUNT(*) FROM Object",
    "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = 123",
    "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId",
    "SELECT COUNT(*) FROM Source",
];

fn placement_seed() -> u64 {
    std::env::var("QSERV_PLACEMENT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn replicated(patch: &Patch, seed: u64) -> Qserv {
    ClusterBuilder::new(4)
        .replication(2)
        .fault_plan(FaultPlan::new(seed))
        .build(&patch.objects, &patch.sources)
}

fn assert_no_result_leaks(q: &Qserv, context: &str) {
    for (id, server) in q.cluster().servers().iter().enumerate() {
        let leaked = server.file_names("/result/");
        assert!(
            leaked.is_empty(),
            "{context}: server {id} leaked result files: {leaked:?}"
        );
    }
}

/// Every chunk holds `factor` replicas on live members, and each mapped
/// replica is genuinely resident on its worker (not just bookkeeping).
fn assert_replication_restored(q: &Qserv, factor: usize, context: &str) {
    let snap = q.placement();
    for chunk in snap.chunks() {
        let replicas = snap.nodes_of(chunk).expect("chunk mapped");
        assert_eq!(
            replicas.len(),
            factor,
            "{context}: chunk {chunk} at factor {} != {factor}",
            replicas.len()
        );
        for &n in replicas {
            assert!(snap.is_member(n), "{context}: replica on non-member {n}");
            assert!(
                q.workers()[n].holds_chunk(chunk),
                "{context}: node {n} mapped for chunk {chunk} but does not hold it"
            );
        }
    }
}

#[test]
fn fail_node_repairs_replication_and_results_are_identical() {
    let patch = small_patch(600, 81);
    let q = replicated(&patch, placement_seed());
    let oracle: Vec<_> = QUERIES
        .iter()
        .map(|&sql| sorted_rows(&q.query(sql).expect("pre-loss run").rows))
        .collect();
    assert_eq!(q.placement().epoch(), 0);

    let report = q.fail_node(0).expect("repair succeeds");
    assert!(report.replicas_created > 0, "loss must force repair copies");
    assert!(report.chunks_lost.is_empty(), "factor 2 survives one loss");
    assert!(report.bytes_copied > 0, "payloads moved over the fabric");
    assert!(report.epoch > 0, "membership + repairs commit epochs");
    assert_replication_restored(&q, 2, "after fail_node(0)");

    // Zero failed queries beyond transient retries: every query
    // succeeds and matches the pre-loss oracle bit-for-bit.
    for (i, &sql) in QUERIES.iter().enumerate() {
        let (r, _) = q.query_with_stats(sql).expect("post-repair run");
        assert_eq!(
            sorted_rows(&r.rows),
            oracle[i],
            "diverged after repair: {sql}"
        );
    }
    let snap = q.placement_manager().metrics_snapshot();
    assert_eq!(snap.gauge("placement.members"), 3);
    assert!(snap.counter("placement.repairs") >= report.replicas_created as u64);
    assert_no_result_leaks(&q, "fail_node repair");
}

/// Permanent node loss *under traffic*: queries running while
/// `fail_node` repairs never fail (the dispatcher's retry loop absorbs
/// the loss) and never diverge from the pre-loss oracle.
#[test]
fn queries_during_fail_node_repair_never_fail() {
    let patch = small_patch(800, 88);
    let q = Arc::new(replicated(&patch, placement_seed()));
    let oracle: Vec<_> = QUERIES
        .iter()
        .map(|&sql| sorted_rows(&q.query(sql).expect("pre-loss run").rows))
        .collect();
    let stop = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        let traffic: Vec<_> = (0..3)
            .map(|t| {
                let (q, oracle, stop) = (Arc::clone(&q), &oracle, &stop);
                scope.spawn(move || {
                    let mut runs = 0usize;
                    while runs < 3 || !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let i = (t + runs) % QUERIES.len();
                        let r = q
                            .query(QUERIES[i])
                            .unwrap_or_else(|e| panic!("thread {t}: failed during repair: {e}"));
                        assert_eq!(sorted_rows(&r.rows), oracle[i], "diverged during repair");
                        runs += 1;
                    }
                })
            })
            .collect();
        let report = q.fail_node(1).expect("repair succeeds under traffic");
        assert!(report.chunks_lost.is_empty(), "factor 2 survives one loss");
        assert!(report.replicas_created > 0, "loss must force repair copies");
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in traffic {
            h.join().expect("traffic thread");
        }
    });
    assert_replication_restored(&q, 2, "after fail_node(1) under traffic");
    assert_no_result_leaks(&q, "repair under traffic");
}

#[test]
fn seeded_faults_during_copy_never_lose_an_acked_replica() {
    let patch = small_patch(600, 82);
    let q = replicated(&patch, placement_seed());
    let oracle: Vec<_> = QUERIES
        .iter()
        .map(|&sql| sorted_rows(&q.query(sql).expect("clean run").rows))
        .collect();

    // Chaos *during* the repair copies: transient read failures plus
    // payload corruption (caught by the copy's digest checks). Seeded,
    // so each CI matrix seed replays its own schedule.
    q.cluster()
        .faults()
        .fail_with_probability(None, Some(FabricOp::Read), 0.15);
    q.cluster()
        .faults()
        .corrupt_payload(None, Some(FabricOp::Read), 0.15);

    let report = q.fail_node(1).expect("repair survives chaos");
    assert!(report.chunks_lost.is_empty());
    assert_replication_restored(&q, 2, "after chaotic repair");

    // The acid test: the *sources* the repair copied from may die next.
    // Every chunk must still be answerable from the repaired replicas —
    // an acked-but-hollow replica would fail here. Quiesce the fault
    // rules first so only real placement state is under test.
    q.cluster().faults().clear();
    let survivor_victim = 2;
    q.fail_node(survivor_victim).expect("second loss repairs");
    assert!(
        q.placement().epoch() >= 2,
        "two membership changes committed"
    );
    for (i, &sql) in QUERIES.iter().enumerate() {
        let r = q.query(sql).expect("run after double loss");
        assert_eq!(
            sorted_rows(&r.rows),
            oracle[i],
            "acked replica was hollow: {sql}"
        );
    }
    assert_no_result_leaks(&q, "chaotic repair");
}

#[test]
fn fail_node_with_on_disk_chunks_ships_qchunk_files() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("qserv-itest-placement-{}", std::process::id()));
    let patch = small_patch(500, 83);
    let q = ClusterBuilder::new(3)
        .replication(2)
        .storage_dir(&dir)
        .storage_page_rows(64)
        .fault_plan(FaultPlan::new(placement_seed()))
        .build(&patch.objects, &patch.sources);
    let oracle: Vec<_> = QUERIES
        .iter()
        .map(|&sql| sorted_rows(&q.query(sql).expect("clean run").rows))
        .collect();
    let report = q.fail_node(2).expect("repair on-disk cluster");
    assert!(report.replicas_created > 0);
    assert_replication_restored(&q, 2, "on-disk repair");
    for (i, &sql) in QUERIES.iter().enumerate() {
        let r = q.query(sql).expect("post-repair run");
        assert_eq!(sorted_rows(&r.rows), oracle[i], "on-disk diverged: {sql}");
    }
    assert_no_result_leaks(&q, "on-disk repair");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_reports_unrecoverable_chunks_at_replication_one() {
    let patch = small_patch(500, 84);
    let q = ClusterBuilder::new(3)
        .replication(1)
        .build(&patch.objects, &patch.sources);
    let doomed = q.placement().chunks_on(0);
    assert!(!doomed.is_empty(), "node 0 held chunks");
    let report = q.fail_node(0).expect("repair runs even when lossy");
    assert_eq!(
        report.chunks_lost, doomed,
        "every factor-1 chunk on the lost node is reported unrecoverable"
    );
    assert_eq!(report.replicas_created, 0, "nothing to copy from");
    assert_eq!(
        q.placement_manager()
            .metrics_snapshot()
            .counter("placement.chunks_lost"),
        doomed.len() as u64
    );
}

#[test]
fn join_and_drain_preserve_results_and_balance() {
    let patch = small_patch(600, 85);
    let q = ClusterBuilder::new(3)
        .replication(2)
        .standby_nodes(1)
        .build(&patch.objects, &patch.sources);
    let oracle: Vec<_> = QUERIES
        .iter()
        .map(|&sql| sorted_rows(&q.query(sql).expect("baseline").rows))
        .collect();
    assert_eq!(q.placement().members(), vec![0, 1, 2]);
    assert!(q.workers()[3].table_names().is_empty(), "standby is empty");

    // Join: the standby becomes a member and rebalancing moves replicas
    // onto it until loads differ by at most one.
    let report = q.join_node(3).expect("standby joins");
    assert!(report.chunks_moved > 0, "rebalance shipped replicas");
    let load = q.placement().load();
    let (hi, lo) = (
        load.values().max().copied().unwrap(),
        load.values().min().copied().unwrap(),
    );
    assert!(hi <= lo + 1, "balanced after join: {load:?}");
    assert!(q.workers()[3].holds_chunk(q.placement().chunks_on(3)[0]));
    assert_replication_restored(&q, 2, "after join");
    for (i, &sql) in QUERIES.iter().enumerate() {
        let r = q.query(sql).expect("post-join run");
        assert_eq!(
            sorted_rows(&r.rows),
            oracle[i],
            "diverged after join: {sql}"
        );
    }

    // Drain it back out: copy-then-detach, so the factor never dips.
    let report = q.leave_node(3).expect("drain succeeds");
    assert!(report.chunks_moved > 0, "drain shipped replicas off");
    assert!(!q.placement().is_member(3));
    assert!(q.placement().chunks_on(3).is_empty());
    assert_replication_restored(&q, 2, "after drain");
    for (i, &sql) in QUERIES.iter().enumerate() {
        let r = q.query(sql).expect("post-drain run");
        assert_eq!(
            sorted_rows(&r.rows),
            oracle[i],
            "diverged after drain: {sql}"
        );
    }
    assert_no_result_leaks(&q, "join/drain");
}

/// The simulator predicts the live cluster: the map a membership
/// operation leaves behind is exactly — same replica order, same epoch —
/// what the pure planning steps produce from the pre-operation snapshot,
/// because the operation *is* those steps with a fabric copy in between.
#[test]
fn membership_operations_commit_exactly_the_planned_steps() {
    let patch = small_patch(600, 89);
    let q = ClusterBuilder::new(5)
        .replication(2)
        .standby_nodes(1)
        .fault_plan(FaultPlan::new(placement_seed()))
        .build(&patch.objects, &patch.sources);

    // fail_node = lose the member, then repair to the fixed point.
    let mut predicted = q.placement().edit().remove_member(2).commit();
    while let Some(step) = predicted.next_repair(|_, _| true) {
        predicted = predicted.edit().add_replica(step.chunk, step.dst).commit();
    }
    let report = q.fail_node(2).expect("repair succeeds");
    assert_eq!(
        *q.placement(),
        predicted,
        "fail_node diverged from the plan"
    );
    assert_eq!(report.epoch, predicted.epoch());
    assert_eq!(report.epoch, 1 + report.replicas_created as u64);

    // join_node = add the member, then rebalance to the fixed point.
    predicted = predicted.edit().add_member(5).commit();
    while let Some(step) = predicted.next_rebalance() {
        predicted = predicted
            .edit()
            .add_replica(step.chunk, step.dst)
            .remove_replica(step.chunk, step.src)
            .commit();
    }
    let report = q.join_node(5).expect("standby joins");
    assert_eq!(
        *q.placement(),
        predicted,
        "join_node diverged from the plan"
    );
    assert_eq!(report.epoch, predicted.epoch());
    assert!(report.chunks_moved > 0, "rebalance shipped replicas");
    assert_replication_restored(&q, 2, "after fail + join");
}

#[test]
fn in_flight_queries_pin_their_epoch_or_retry_cleanly() {
    let patch = small_patch(700, 86);
    let mut q = ClusterBuilder::new(3)
        .replication(2)
        .standby_nodes(1)
        .retry(RetryPolicy {
            max_attempts: 8,
            backoff_base: Duration::from_micros(100),
            deadline: None,
        })
        .build(&patch.objects, &patch.sources);
    // Serial dispatch widens the window in which a rebalance can land
    // mid-query.
    q.dispatch_width = 2;
    let q = Arc::new(q);
    let expected = q.query(QUERIES[0]).expect("oracle").scalar().cloned();
    let stop = std::sync::atomic::AtomicBool::new(false);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3)
            .map(|t| {
                let q = Arc::clone(&q);
                let expected = expected.clone();
                let stop = &stop;
                scope.spawn(move || {
                    let mut runs = 0u32;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let r = q
                            .query(QUERIES[0])
                            .unwrap_or_else(|e| panic!("thread {t}: query failed mid-epoch: {e}"));
                        assert_eq!(r.scalar().cloned(), expected);
                        runs += 1;
                    }
                    runs
                })
            })
            .collect();
        // Membership churn while the query threads hammer: join the
        // standby (rebalance), then drain it back out, twice.
        for _ in 0..2 {
            q.join_node(3).expect("join during traffic");
            q.leave_node(3).expect("drain during traffic");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u32 = workers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "query threads actually ran");
    });
    assert!(
        q.placement().epoch() >= 4,
        "membership churn committed epochs"
    );
    assert_no_result_leaks(&q, "epoch pinning");
}

/// A replica that stops exporting a chunk after the redirector resolved
/// it (its cache does not re-check exports) accepts the write without
/// running its plugin: no result file. That is a failover, not a failure.
#[test]
fn an_export_lost_after_resolve_fails_over() {
    let patch = small_patch(300, 91);
    let q = ClusterBuilder::new(2)
        .replication(2)
        .build(&patch.objects, &patch.sources);
    // Warms the redirector's cache for every chunk path.
    let expected = q.query(QUERIES[0]).expect("oracle").scalar().cloned();
    let chunk = q.placement().chunks()[0];
    let victim = q.placement().nodes_of(chunk).expect("mapped")[0];
    let server = q.cluster().server(victim).expect("victim server");
    assert!(server.unexport(&qserv_xrd::cluster::query_path(chunk)));

    // Rotation lands the chunk on the victim within two dispatches.
    let mut failovers = 0;
    for _ in 0..4 {
        let (r, stats) = q
            .query_with_stats(QUERIES[0])
            .expect("stale export fails over");
        assert_eq!(r.scalar().cloned(), expected);
        failovers += stats.replica_failovers;
    }
    assert!(failovers >= 1, "the victim was never resolved");
    assert_no_result_leaks(&q, "stale export");
}

/// What admission prepared is what the executor runs: a statement that
/// sat in the queue while a join committed new epochs still dispatches
/// the chunk set, under the epoch, it was classified and costed with.
#[test]
fn a_queued_statement_executes_the_plan_it_was_admitted_with() {
    let patch = small_patch(600, 90);
    let q = Arc::new(
        ClusterBuilder::new(3)
            .replication(2)
            .standby_nodes(1)
            .build(&patch.objects, &patch.sources),
    );
    let service = QueryService::start(
        Arc::clone(&q),
        ServiceConfig {
            max_concurrent: 1,
            ..ServiceConfig::default()
        },
    );
    let state_of = |qid: u64| {
        service
            .status()
            .iter()
            .find(|s| s.qid == qid)
            .map(|s| s.state)
    };

    // Saturate the one slot: a row-returning scan whose stream nobody
    // drains blocks its executor on the event backlog.
    let blocker = service
        .submit_streaming("SELECT objectId, ra_PS, decl_PS FROM Object", None, None)
        .expect("blocker admitted");
    while state_of(blocker.qid) != Some(QueryState::Running) {
        std::thread::yield_now();
    }

    let sql = "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId";
    let admitted_epoch = q.placement().epoch();
    let queued = service
        .submit_streaming(sql, Some("test.request"), None)
        .expect("second statement admitted");
    q.join_node(3)
        .expect("standby joins while the statement waits");
    assert!(q.placement().epoch() > admitted_epoch, "join committed");
    assert_eq!(
        state_of(queued.qid),
        Some(QueryState::Queued),
        "the undrained blocker still holds the only slot"
    );

    blocker.collect().result.expect("blocker completes");
    let outcome = queued.collect();
    let (rows, stats) = outcome.result.expect("queued statement runs");
    let trace = outcome.trace.expect("traced submission");
    trace.validate().expect("well-formed trace");
    let spans = trace.spans();
    let attr = |span: &str, key: &str| {
        spans
            .iter()
            .find(|s| s.name == span)
            .and_then(|s| s.attr(key))
            .unwrap_or_else(|| panic!("{span} carries {key}"))
            .to_string()
    };
    assert_eq!(
        attr("master.dispatch", "placement_epoch"),
        admitted_epoch.to_string(),
        "dispatch must run under the epoch pinned at admission"
    );
    assert_eq!(
        attr("service.admit", "cost"),
        (stats.chunks_dispatched + stats.chunks_skipped_by_limit).to_string(),
        "the admitted cost is the chunk set that ran"
    );
    let local = qserv_engine::execute(
        &monolithic_db(&patch),
        &qserv_sqlparse::parse_select(sql).expect("parses"),
    )
    .expect("oracle runs");
    assert_matches_local(sql, &rows, &local);
    assert_no_result_leaks(&q, "admitted plan");
}

#[test]
fn membership_errors_are_loud_not_silent() {
    let patch = small_patch(300, 88);
    let q = ClusterBuilder::new(2)
        .replication(2)
        .build(&patch.objects, &patch.sources);
    // Joining a node outside the fleet, joining a member, failing a
    // non-member: all refuse with a fabric error naming the node.
    assert!(matches!(q.join_node(9), Err(QservError::Fabric(m)) if m.contains('9')));
    assert!(matches!(q.join_node(1), Err(QservError::Fabric(m)) if m.contains('1')));
    assert!(matches!(q.fail_node(7), Err(QservError::Fabric(m)) if m.contains('7')));
    // Draining half of a fully-replicated 2-node cluster caps the
    // factor rather than inventing copies: chunks stay available.
    q.leave_node(1).expect("drain to a single node");
    let r = q.query(QUERIES[0]).expect("single-node run");
    assert_eq!(r.scalar(), Some(&Value::Int(patch.objects.len() as i64)));
}
