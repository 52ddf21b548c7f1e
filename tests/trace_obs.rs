//! Query-trace observability: a full distributed query must produce one
//! well-formed span tree covering master → fabric → worker → merge (the
//! proxy layer is covered in `crates/proxy/tests/chaos.rs`), with
//! timestamps that nest consistently, and the structure must survive
//! chaos-forced retries — property-tested over fault schedules.

mod common;

use common::small_patch;
use proptest::prelude::*;
use qserv::{ClusterBuilder, FabricOp, FaultPlan, QueryStats, Value};
use qserv_datagen::generate::Patch;
use std::sync::OnceLock;
use std::time::Duration;

fn patch() -> &'static Patch {
    static PATCH: OnceLock<Patch> = OnceLock::new();
    PATCH.get_or_init(|| small_patch(400, 70))
}

/// The chunk results a trace's attempts brought back: each attempt span
/// carries one message's `parts`.
fn parts_of(spans: &[qserv::trace::SpanRecord]) -> usize {
    spans
        .iter()
        .filter(|s| s.name == "attempt")
        .map(|s| {
            s.attr("parts")
                .and_then(|p| p.parse::<usize>().ok())
                .unwrap_or(0)
        })
        .sum()
}

#[test]
fn traced_query_covers_every_layer() {
    let q = ClusterBuilder::new(3).build(&patch().objects, &patch().sources);
    let traced = q
        .query_traced("SELECT count(*) AS n, chunkId FROM Object GROUP BY chunkId ORDER BY chunkId")
        .expect("traced group-by");
    traced.trace.validate().expect("well-formed trace");

    let spans = traced.trace.spans();
    for name in [
        "query",
        "master.query",
        "master.analyze",
        "master.dispatch",
        "bundle",
        "attempt",
        "fabric.open",
        "fabric.write",
        "fabric.read",
        "fabric.close",
        "worker.statement",
        "merge.fold",
        "merge.finish",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "trace missing a {name} span"
        );
    }

    // The worker executes synchronously inside the write transaction, so
    // its statement spans nest under fabric.write spans.
    let name_of = |id| spans.iter().find(|s| s.id == id).map(|s| s.name.as_str());
    for s in spans.iter().filter(|s| s.name == "worker.statement") {
        let parent = s.parent.expect("worker spans are never roots");
        assert_eq!(name_of(parent), Some("fabric.write"));
    }
    // Attempts nest under their bundle; bundles under the dispatch phase.
    for s in spans.iter().filter(|s| s.name == "attempt") {
        assert_eq!(name_of(s.parent.unwrap()), Some("bundle"));
    }
    for s in spans.iter().filter(|s| s.name == "bundle") {
        assert_eq!(name_of(s.parent.unwrap()), Some("master.dispatch"));
    }
    // The attempts' parts are the dispatched chunks, and the JSON export
    // carries the tree (children arrays) for external tooling.
    assert_eq!(parts_of(&spans), traced.stats.chunks_dispatched);
    let json = traced.trace.to_json();
    assert!(json.starts_with('['), "export is a JSON document");
    assert!(json.contains("\"children\":["), "export nests children");

    // The stats struct is exactly a view of the metrics snapshot.
    assert_eq!(traced.stats, QueryStats::from_snapshot(&traced.metrics));
}

#[test]
fn trace_timestamps_are_monotonically_consistent() {
    let q = ClusterBuilder::new(3).build(&patch().objects, &patch().sources);
    let traced = q
        .query_traced("SELECT COUNT(*) FROM Object")
        .expect("traced count");
    let spans = traced.trace.spans();
    // Every span ends no earlier than it starts, and sits inside its
    // parent's interval — the "monotonically consistent" contract
    // validate() enforces; spelled out here against the raw records.
    for s in &spans {
        let end = s.end_ns.expect("every span ended");
        assert!(s.start_ns <= end, "span {} runs backwards", s.name);
        if let Some(pid) = s.parent {
            let p = spans.iter().find(|x| x.id == pid).unwrap();
            assert!(
                p.start_ns <= s.start_ns && end <= p.end_ns.unwrap(),
                "span {} escapes its parent {}",
                s.name,
                p.name
            );
        }
    }
    traced.trace.validate().expect("validate agrees");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever the fault schedule does — transient write failures,
    /// probabilistic read failures, injected delays — a query that
    /// completes must hand back a structurally valid trace whose chunk
    /// and retry bookkeeping matches its own stats.
    #[test]
    fn traces_stay_well_formed_under_chaos(
        seed in 1u64..65,
        write_faults in 0u64..6,
        read_p in 0.0f64..0.25,
        delay_ms in 0u64..5,
    ) {
        let q = ClusterBuilder::new(4)
            .replication(2)
            .fault_plan(FaultPlan::new(seed))
            .build(&patch().objects, &patch().sources);
        let faults = q.cluster().faults();
        faults.fail_next(None, Some(FabricOp::Write), write_faults);
        faults.fail_with_probability(None, Some(FabricOp::Read), read_p);
        if delay_ms > 0 {
            faults.delay(None, Some(FabricOp::Read), Duration::from_millis(delay_ms));
        }
        // Heavy schedules may legitimately exhaust bounded retries; the
        // error path is covered by the chaos suite, so only Ok is checked.
        if let Ok(traced) = q.query_traced("SELECT COUNT(*) FROM Object") {
            prop_assert_eq!(traced.rows.scalar(), Some(&Value::Int(400)));
            prop_assert!(traced.trace.validate().is_ok(), "invalid trace");
            let spans = traced.trace.spans();
            prop_assert_eq!(parts_of(&spans), traced.stats.chunks_dispatched);
            // Chunks that retried show extra attempt spans, and
            // retry-marked attempts appear iff stats saw retries.
            let retry_attempts = spans
                .iter()
                .filter(|s| s.name == "attempt" && s.attr("outcome") == Some("retry"))
                .count();
            prop_assert_eq!(
                retry_attempts > 0,
                traced.stats.chunks_retried > 0,
                "trace and stats disagree about retries"
            );
        }
    }
}
