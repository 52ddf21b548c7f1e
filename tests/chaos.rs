//! Chaos suite: paper-shape queries against a fabric with seeded fault
//! injection. Replicated clusters must return results identical to a
//! fault-free run (retrying, replica-aware dispatch masks the faults,
//! and [`qserv::QueryStats`] proves retries actually happened);
//! unreplicated clusters must *fail fast* with a fabric error or a
//! deadline timeout rather than hang.
//!
//! Every fault decision derives from the plan seed, so each test is
//! deterministic: rerunning the binary produces the same injected-fault
//! schedule and the same counters.

mod common;

use common::{small_patch, sorted_rows};
use qserv::{ClusterBuilder, FabricOp, FaultPlan, Qserv, QservError, RetryPolicy, Value};
use qserv_datagen::generate::Patch;
use std::time::Duration;

/// The paper-shape queries exercised under chaos: full-table aggregate,
/// objectId point lookup, and a spatially-restricted near-neighbour join.
const PAPER_QUERIES: [&str; 3] = [
    "SELECT COUNT(*) FROM Object",
    "SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = 123",
    "SELECT count(*) FROM Object o1, Object o2 \
     WHERE qserv_areaspec_box(0.0, -2.0, 2.0, 2.0) \
     AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05",
];

fn replicated(patch: &Patch, seed: u64) -> Qserv {
    ClusterBuilder::new(4)
        .replication(2)
        .fault_plan(FaultPlan::new(seed))
        .build(&patch.objects, &patch.sources)
}

/// No `/result/*` files may survive a query, successful or not — the
/// master must consume or scrub every result transaction it opens.
fn assert_no_result_leaks(q: &Qserv, context: &str) {
    for (id, server) in q.cluster().servers().iter().enumerate() {
        let leaked = server.file_names("/result/");
        assert!(
            leaked.is_empty(),
            "{context}: server {id} leaked result files: {leaked:?}"
        );
    }
}

#[test]
fn fault_free_baseline_observes_nothing() {
    let patch = small_patch(400, 91);
    let q = replicated(&patch, 1);
    let (r, stats) = q.query_with_stats(PAPER_QUERIES[0]).unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(400)));
    assert_eq!(stats.chunks_retried, 0);
    assert_eq!(stats.injected_faults_observed, 0);
    assert_eq!(q.cluster().faults().stats().total(), 0);
    assert_no_result_leaks(&q, "fault-free baseline");
}

#[test]
fn count_star_survives_fail_first_writes() {
    let patch = small_patch(400, 91);
    let q = replicated(&patch, 2);
    // The first 5 fabric writes — anywhere — fail. Dispatch must retry
    // those chunk queries on another replica and still count every row.
    q.cluster()
        .faults()
        .fail_next(None, Some(FabricOp::Write), 5);
    let (r, stats) = q.query_with_stats(PAPER_QUERIES[0]).unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(400)));
    assert!(stats.chunks_retried > 0, "write faults must force retries");
    assert!(stats.injected_faults_observed >= 5, "all 5 faults observed");
    assert_eq!(
        q.cluster().faults().stats().failures_for(FabricOp::Write),
        5,
        "exactly the configured number of write faults fired"
    );
    assert_no_result_leaks(&q, "fail-first writes");
}

#[test]
fn paper_queries_match_fault_free_under_20pct_read_faults() {
    let patch = small_patch(700, 92);
    let clean = replicated(&patch, 3);
    let chaotic = replicated(&patch, 3);
    // 20% of fabric reads fail transiently, decided by the plan seed.
    chaotic
        .cluster()
        .faults()
        .fail_with_probability(None, Some(FabricOp::Read), 0.2);

    // A statement reads one result per bundle — a handful per statement
    // — so the queries repeat for the 20% to meet enough reads.
    let mut total_retried = 0;
    let mut total_observed = 0;
    for _round in 0..4 {
        for sql in PAPER_QUERIES {
            let expected = clean.query(sql).expect("fault-free run");
            let (got, stats) = chaotic.query_with_stats(sql).expect("chaotic run");
            assert_eq!(
                sorted_rows(&got.rows),
                sorted_rows(&expected.rows),
                "results diverged under read faults for {sql}"
            );
            total_retried += stats.chunks_retried;
            total_observed += stats.injected_faults_observed;
        }
    }
    assert!(total_retried > 0, "20% read faults must cause retries");
    assert!(total_observed > 0, "stats must count the injected faults");
    let fabric = chaotic.cluster().faults().stats();
    assert_eq!(
        fabric.failures_for(FabricOp::Read),
        fabric.failures_injected
    );
    assert!(fabric.failures_injected > 0);
    assert_no_result_leaks(&chaotic, "20% read faults");
}

#[test]
fn fault_schedule_is_deterministic_per_seed() {
    let patch = small_patch(400, 93);
    let run = |seed: u64| {
        let q = replicated(&patch, seed);
        q.cluster()
            .faults()
            .fail_with_probability(None, Some(FabricOp::Read), 0.4);
        let mut rows = Vec::new();
        let mut observed = 0;
        for sql in PAPER_QUERIES {
            let (r, stats) = q.query_with_stats(sql).expect("chaotic run");
            rows.push(sorted_rows(&r.rows));
            observed += stats.injected_faults_observed;
        }
        (rows, observed, q.cluster().faults().stats())
    };
    // Only a handful of chunk reads happen per run, so a given seed may
    // legitimately draw zero failures; scan for one whose schedule is
    // active. The scan itself is deterministic.
    let seed = (1..=32)
        .find(|&s| run(s).1 > 0)
        .expect("some seed in 1..=32 injects read faults");
    let (rows_a, observed_a, fabric_a) = run(seed);
    let (rows_b, observed_b, fabric_b) = run(seed);
    assert_eq!(rows_a, rows_b, "same seed ⇒ same results");
    assert_eq!(observed_a, observed_b, "same seed ⇒ same fault schedule");
    assert_eq!(fabric_a, fabric_b, "fabric counters are reproducible");
    assert!(observed_a > 0, "the schedule actually injected faults");

    // Total counts are coarse enough for two seeds to collide, so scan:
    // some seed must draw a different schedule.
    let diverges = (1..=32).any(|s| run(s).1 != observed_a);
    assert!(diverges, "no seed in 1..=32 diverged from seed {seed}");
}

#[test]
fn corrupted_result_payloads_are_retried() {
    let patch = small_patch(400, 94);
    let clean = replicated(&patch, 4);
    let chaotic = replicated(&patch, 4);
    // 30% of read payloads come back bit-mangled. The master must treat
    // an unparseable result as transient and re-execute the chunk.
    chaotic
        .cluster()
        .faults()
        .corrupt_payload(None, Some(FabricOp::Read), 0.3);
    for sql in PAPER_QUERIES {
        let expected = clean.query(sql).expect("fault-free run");
        let got = chaotic.query(sql).expect("chaotic run");
        assert_eq!(
            sorted_rows(&got.rows),
            sorted_rows(&expected.rows),
            "corruption must never surface in results for {sql}"
        );
    }
    assert!(
        chaotic.cluster().faults().stats().payloads_corrupted > 0,
        "the corruption rules actually fired"
    );
    assert_no_result_leaks(&chaotic, "corrupted payloads");
}

/// One flipped bit per damaged result: the corruption a text result can
/// survive unnoticed (`'4' ^ 0x01` is `'5'`, a different number that
/// still parses). Result frames end in a CRC32C, which catches every
/// single-bit error, so the damage must always be retried away and never
/// reach a row. Repeated rounds give the flips many digits to land on.
#[test]
fn single_bit_result_corruption_never_surfaces() {
    const ROUNDS: usize = 12;
    let patch = small_patch(400, 95);
    let clean = replicated(&patch, 5);
    let chaotic = replicated(&patch, 5);
    chaotic
        .cluster()
        .faults()
        .flip_one_bit(None, Some(FabricOp::Read), 0.3);
    for sql in PAPER_QUERIES {
        let expected = sorted_rows(&clean.query(sql).expect("fault-free run").rows);
        for round in 0..ROUNDS {
            let got = chaotic.query(sql).expect("chaotic run");
            assert_eq!(
                sorted_rows(&got.rows),
                expected,
                "a flipped bit surfaced in round {round} of {sql}"
            );
        }
    }
    assert!(
        chaotic.cluster().faults().stats().payloads_corrupted > 0,
        "the bit-flip rule actually fired"
    );
    assert_no_result_leaks(&chaotic, "single-bit corruption");
}

#[test]
fn flapping_server_mid_dispatch_is_masked() {
    let patch = small_patch(500, 95);
    let q = replicated(&patch, 5);
    let expected = q.query(PAPER_QUERIES[0]).unwrap();

    // A server flaps offline/online while queries dispatch: a background
    // thread bounces it, and dispatch must mask every phase via the other
    // replica (NoServerForPath resets exclusions, so the server is used
    // again once it returns).
    let flapper = q.cluster().servers()[1].clone();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            for _ in 0..20 {
                flapper.set_online(false);
                std::thread::sleep(Duration::from_millis(2));
                flapper.set_online(true);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        for _ in 0..6 {
            let r = q.query(PAPER_QUERIES[0]).expect("query during flapping");
            assert_eq!(r.scalar(), expected.scalar(), "flapping changed a count");
        }
        handle.join().expect("flapper thread");
    });

    // Deterministic half: the server is *down* for a whole query, then
    // back up; both runs must agree with the baseline.
    q.cluster().servers()[1].set_online(false);
    let down = q.query(PAPER_QUERIES[0]).unwrap();
    assert_eq!(down.scalar(), expected.scalar());
    q.cluster().servers()[1].set_online(true);
    let back = q.query(PAPER_QUERIES[0]).unwrap();
    assert_eq!(back.scalar(), expected.scalar());
    assert_no_result_leaks(&q, "flapping server");
}

#[test]
fn worker_failure_mid_join_retries_on_replica() {
    // The join path under chaos: a worker dies *while* a near-neighbor
    // self-join and a cross-catalog XMatch are dispatching. Replica
    // retries must mask the failure — results identical to a fault-free
    // twin (which itself equals the brute-force oracle, proven by the
    // join_oracle suite) — and no /result/* transaction may survive.
    use qserv::XMatchSpec;
    let patch = small_patch(500, 101);
    let refs = patch.generate_ref_catalog(101);
    let build = || {
        ClusterBuilder::new(4)
            .replication(2)
            .fault_plan(FaultPlan::new(21))
            .ref_objects(&refs)
            .build(&patch.objects, &patch.sources)
    };
    let clean = build();
    let chaotic = build();

    let join_sql = "SELECT o1.objectId, o2.objectId FROM Object o1, Object o2 \
         WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05 \
         AND o1.objectId != o2.objectId";
    let spec = XMatchSpec::object_to_ref(0.01);
    let want_join = sorted_rows(&clean.query(join_sql).expect("clean join").rows);
    let want_match = clean.xmatch(&spec).expect("clean xmatch").0.rows;
    assert!(!want_match.is_empty() && !want_join.is_empty());

    // Nondeterministic half: a worker flaps offline/online while the
    // join queries dispatch; every interleaving must be masked.
    let flapper = chaotic.cluster().servers()[2].clone();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            for _ in 0..16 {
                flapper.set_online(false);
                std::thread::sleep(Duration::from_millis(2));
                flapper.set_online(true);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        for _ in 0..3 {
            let got = chaotic.query(join_sql).expect("join during flapping");
            assert_eq!(sorted_rows(&got.rows), want_join, "join rows diverged");
            let (got, _) = chaotic.xmatch(&spec).expect("xmatch during flapping");
            assert_eq!(got.rows, want_match, "xmatch rows diverged");
        }
        handle.join().expect("flapper thread");
    });

    // Deterministic half 1: the worker is down for the *entire* join;
    // the redirector must route its chunks to the surviving replica.
    chaotic.cluster().servers()[2].set_online(false);
    let got = chaotic.query(join_sql).expect("join with a dead worker");
    assert_eq!(sorted_rows(&got.rows), want_join);
    let (got, _) = chaotic.xmatch(&spec).expect("xmatch with a dead worker");
    assert_eq!(got.rows, want_match);
    chaotic.cluster().servers()[2].set_online(true);

    // Deterministic half 2: injected write faults mid-join force the
    // *retry* path (not just replica-aware routing) and are still
    // invisible in the joined rows.
    chaotic
        .cluster()
        .faults()
        .fail_next(None, Some(FabricOp::Write), 3);
    let (got, stats) = chaotic
        .query_with_stats(join_sql)
        .expect("join with write faults");
    assert_eq!(sorted_rows(&got.rows), want_join);
    assert!(
        stats.chunks_retried > 0,
        "write faults mid-join must force chunk retries"
    );
    chaotic
        .cluster()
        .faults()
        .fail_next(None, Some(FabricOp::Write), 3);
    let (got, stats) = chaotic.xmatch(&spec).expect("xmatch with write faults");
    assert_eq!(got.rows, want_match);
    assert!(
        stats.chunks_retried > 0,
        "xmatch retries under write faults"
    );
    assert_no_result_leaks(&chaotic, "worker failure mid-join");
}

#[test]
fn unreplicated_cluster_surfaces_fabric_error_not_hang() {
    let patch = small_patch(300, 96);
    let q = ClusterBuilder::new(3)
        .fault_plan(FaultPlan::new(6))
        .build(&patch.objects, &patch.sources);
    // Every read fails and there is no second replica: the query must
    // exhaust its bounded retries and report the fault, quickly.
    q.cluster()
        .faults()
        .fail_with_probability(None, Some(FabricOp::Read), 1.0);
    let started = std::time::Instant::now();
    let err = q.query(PAPER_QUERIES[0]).unwrap_err();
    assert!(
        matches!(err, QservError::Fabric(_) | QservError::Timeout { .. }),
        "expected a fabric/timeout error, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "bounded retries must not degenerate into a hang"
    );
    assert_no_result_leaks(&q, "unreplicated read faults");
}

#[test]
fn query_deadline_surfaces_timeout() {
    let patch = small_patch(300, 97);
    let q = ClusterBuilder::new(3)
        .fault_plan(FaultPlan::new(7))
        .retry(RetryPolicy {
            max_attempts: 10_000,
            backoff_base: Duration::from_millis(1),
            deadline: Some(Duration::from_millis(120)),
        })
        .build(&patch.objects, &patch.sources);
    q.cluster()
        .faults()
        .fail_with_probability(None, Some(FabricOp::Write), 1.0);
    let err = q.query(PAPER_QUERIES[0]).unwrap_err();
    match err {
        QservError::Timeout { elapsed_ms, .. } => {
            assert!(elapsed_ms >= 120, "deadline fired early: {elapsed_ms} ms");
        }
        other => panic!("expected a timeout, got {other}"),
    }
    assert_no_result_leaks(&q, "deadline expiry");
}

#[test]
fn result_files_scrubbed_when_query_fails() {
    // Regression for the dispatch result-file leak: a failing query used
    // to strand `/result/*` files on workers. Now every exit path —
    // read fault, close fault, parse failure — unlinks what it created.
    let patch = small_patch(300, 98);
    let q = ClusterBuilder::new(3)
        .fault_plan(FaultPlan::new(8))
        .build(&patch.objects, &patch.sources);

    // Close faults fire *after* the worker ran and deposited a result:
    // the orphan must be scrubbed even though the write "failed".
    q.cluster()
        .faults()
        .fail_with_probability(None, Some(FabricOp::Close), 1.0);
    let err = q.query(PAPER_QUERIES[0]).unwrap_err();
    assert!(
        matches!(err, QservError::Fabric(_)),
        "close faults fail unreplicated queries"
    );
    assert_no_result_leaks(&q, "close faults on a failed query");

    // And after recovery the same cluster still answers correctly.
    q.cluster().faults().clear();
    let r = q.query(PAPER_QUERIES[0]).unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(300)));
    assert_no_result_leaks(&q, "recovered cluster");
}

#[test]
fn delay_faults_slow_but_never_break() {
    let patch = small_patch(300, 99);
    let q = replicated(&patch, 9);
    q.cluster()
        .faults()
        .delay(None, Some(FabricOp::Read), Duration::from_millis(3));
    let r = q.query(PAPER_QUERIES[0]).unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(300)));
    let stats = q.cluster().faults().stats();
    assert!(stats.delays_injected > 0, "delay rules must have fired");
    assert_eq!(stats.failures_injected, 0, "delays are not failures");
}

#[test]
fn delay_faults_bill_virtual_time_with_zero_wall_sleeping() {
    // Every fabric write on the cluster pays a 2-second injected delay —
    // but the cluster runs on a virtual clock, so the delays advance
    // virtual time instead of blocking dispatcher threads. The trace and
    // the latency histogram must both show the billed seconds while the
    // test itself finishes in wall-clock milliseconds.
    let patch = small_patch(300, 90);
    let vclock = qserv::VirtualClock::shared();
    let q = ClusterBuilder::new(4)
        .replication(2)
        .fault_plan(FaultPlan::new(10))
        .clock(vclock.clone())
        .build(&patch.objects, &patch.sources);
    q.cluster()
        .faults()
        .delay(None, Some(FabricOp::Write), Duration::from_secs(2));

    let wall = std::time::Instant::now();
    let traced = q.query_traced(PAPER_QUERIES[0]).unwrap();
    assert_eq!(traced.rows.scalar(), Some(&Value::Int(300)));

    let delays = q.cluster().faults().stats().delays_injected;
    assert!(delays > 0, "the delay rule must have fired");
    // Each injected delay advanced the shared timeline by its full 2 s.
    use qserv::Clock;
    assert!(
        vclock.now() >= Duration::from_secs(2) * delays as u32,
        "virtual clock advanced {:?} for {delays} delays",
        vclock.now()
    );
    // Latency is billed in virtual time: every bundle does one delayed
    // write, so every bundle span lasts ≥ 2 virtual seconds…
    let bundle_spans: Vec<_> = traced
        .trace
        .spans()
        .into_iter()
        .filter(|s| s.name == "bundle")
        .collect();
    assert!(!bundle_spans.is_empty(), "trace has bundle spans");
    for s in &bundle_spans {
        assert!(
            s.duration_ns() >= 2_000_000_000,
            "bundle span billed only {} ns of virtual time",
            s.duration_ns()
        );
    }
    // …and the per-chunk dispatch-latency histogram agrees.
    let h = traced
        .metrics
        .histogram(qserv::stats::names::CHUNK_LATENCY_NS);
    assert_eq!(h.count, traced.stats.chunks_dispatched as u64);
    assert!(h.min >= 2_000_000_000, "histogram min {} ns", h.min);
    // The whole thing must not have slept for real.
    assert!(
        wall.elapsed() < Duration::from_secs(5),
        "virtual delays must not consume wall time (took {:?})",
        wall.elapsed()
    );
}

#[test]
fn virtual_clock_chaos_runs_are_bit_reproducible() {
    // Same seed, same virtual clock, single dispatcher thread: the whole
    // observable output — rows, trace JSON (timestamps included), and
    // metrics JSON — must be byte-identical across runs.
    let patch = small_patch(300, 91);
    let run = || {
        let vclock = qserv::VirtualClock::shared();
        let mut q = ClusterBuilder::new(4)
            .replication(2)
            .fault_plan(FaultPlan::new(17))
            .clock(vclock)
            .build(&patch.objects, &patch.sources);
        // One dispatcher thread: chunk ordering (and therefore span
        // ordering and fault-schedule interleaving) is sequential.
        // Byte-comparing traces is gated on this serial path on
        // purpose: with dispatch_width > 1, worker threads race for
        // chunks and the streaming merger folds results in completion
        // order, so span start/stop interleavings — and which retry
        // consumes which seeded fault — differ run to run even on a
        // virtual clock. Rows stay identical either way (the merge is
        // order-insensitive); only the *observability byte stream* is
        // nondeterministic, which is why this reproducibility check
        // pins the width instead of weakening the comparison.
        q.dispatch_width = 1;
        q.cluster()
            .faults()
            .fail_next(None, Some(FabricOp::Write), 3);
        q.cluster()
            .faults()
            .delay(None, Some(FabricOp::Read), Duration::from_millis(5));
        let t = q.query_traced(PAPER_QUERIES[0]).expect("chaotic run");
        t.trace.validate().expect("well-formed trace");
        (t.rows, t.trace.to_json(), t.metrics.to_json())
    };
    let (rows_a, trace_a, metrics_a) = run();
    let (rows_b, trace_b, metrics_b) = run();
    assert_eq!(rows_a, rows_b, "same seed ⇒ same rows");
    assert_eq!(trace_a, trace_b, "same seed ⇒ bit-identical trace JSON");
    assert_eq!(metrics_a, metrics_b, "same seed ⇒ bit-identical metrics");
    assert!(
        trace_a.contains("\"outcome\":\"retry\""),
        "the reproduced schedule actually exercised retries: {trace_a}"
    );
}
