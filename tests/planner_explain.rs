//! The planner's user-facing surfaces: golden EXPLAIN snapshots for the
//! paper's query shapes, estimator accuracy bounds (q-error), the
//! planner fields exported through metrics and trace JSON, and the
//! service's EXPLAIN agreeing with what admission does now: the epoch a
//! query would pin and the class it would queue under.
//!
//! Golden fixtures live in `tests/golden_plans/*.txt`. To regenerate
//! after an intentional planner change:
//! `UPDATE_GOLDENS=1 cargo test --test planner_explain golden`.

mod common;

use common::{cluster_from, small_patch};
use qserv::service::{QueryClass, QueryService, ServiceConfig};
use qserv::{Chunker, ClusterBuilder, Qserv};
use qserv_datagen::generate::{CatalogConfig, Patch};
use qserv_sphgeom::{Angle, SphericalBox};
use std::path::Path;
use std::sync::{Arc, OnceLock};

fn fixture() -> &'static Qserv {
    static FIX: OnceLock<Qserv> = OnceLock::new();
    FIX.get_or_init(|| {
        let patch = small_patch(600, 4242);
        cluster_from(&patch, 4)
    })
}

/// A full-sky catalog at the benchmark's partitioning: 18 stripes × 10
/// sub-stripes with 0.05° overlap over RA 0–359.9°, decl ±60° (≈400
/// populated chunks), 4 nodes. The 4-chunk [`fixture`] never exercises
/// costing hundreds of chunks, which is where the planner spends its
/// time on an objectId lookup.
fn full_sky() -> &'static Qserv {
    static FIX: OnceLock<Qserv> = OnceLock::new();
    FIX.get_or_init(|| {
        let patch = Patch::generate(&CatalogConfig {
            objects: 5000,
            mean_sources_per_object: 2.0,
            seed: 3636,
            footprint: SphericalBox::from_degrees(0.0, -60.0, 359.9, 60.0),
        });
        let chunker = Chunker::new(18, 10, Angle::from_degrees(0.05)).expect("valid partitioning");
        ClusterBuilder::new(4)
            .chunker(chunker)
            .build(&patch.objects, &patch.sources)
    })
}

/// Renders an EXPLAIN table as stable `item = value` lines.
fn render_explain(q: &Qserv, sql: &str) -> String {
    let table = q.explain_table(sql).expect("explain");
    assert_eq!(table.columns, vec!["item", "value"]);
    let mut out = String::new();
    for row in &table.rows {
        let (qserv::Value::Str(k), qserv::Value::Str(v)) = (&row[0], &row[1]) else {
            panic!("EXPLAIN cells are strings: {row:?}");
        };
        out.push_str(k);
        out.push_str(" = ");
        out.push_str(v);
        out.push('\n');
    }
    out
}

/// Compares against (or, under `UPDATE_GOLDENS=1`, rewrites) the
/// committed snapshot.
fn assert_golden(name: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden_plans")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDENS=1"));
    assert_eq!(
        rendered, expected,
        "EXPLAIN drifted from golden {name}; if intentional, regenerate with UPDATE_GOLDENS=1"
    );
}

#[test]
fn golden_objectid_lookup() {
    assert_golden(
        "objectid_lookup",
        &render_explain(
            fixture(),
            "SELECT ra_PS, decl_PS FROM Object WHERE objectId = 42",
        ),
    );
}

#[test]
fn golden_region_scan() {
    assert_golden(
        "region_scan",
        &render_explain(
            fixture(),
            "SELECT objectId, ra_PS, decl_PS FROM Object \
             WHERE qserv_areaspec_box(359.0, -1.2, 2.5, 1.2) AND fluxToAbMag(zFlux_PS) < 24",
        ),
    );
}

#[test]
fn golden_near_neighbor() {
    assert_golden(
        "near_neighbor",
        &render_explain(
            fixture(),
            "SELECT count(*) FROM Object o1, Object o2 \
             WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05 \
             AND o1.objectId != o2.objectId",
        ),
    );
}

#[test]
fn golden_topn() {
    assert_golden(
        "topn",
        &render_explain(
            fixture(),
            "SELECT objectId, ra_PS FROM Object ORDER BY objectId DESC LIMIT 10",
        ),
    );
}

/// The planner's full decision record on the full-sky catalog, at full
/// `f64` precision (the EXPLAIN table rounds to 4 decimals), for each
/// statement class the benchmark sends: a change to how statistics are
/// read must leave every choice, estimate and cost bit-identical.
#[test]
fn golden_full_sky_choices() {
    let q = full_sky();
    let statements = [
        ("LV1", "SELECT * FROM Object WHERE objectId = 1234"),
        (
            "LV2",
            "SELECT sourceId, taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), \
             ra, decl FROM Source WHERE objectId = 777",
        ),
        (
            "IN",
            "SELECT objectId, ra_PS FROM Object WHERE objectId IN (3, 1500, 2999, 4321)",
        ),
        (
            "LV3",
            "SELECT COUNT(*) FROM Object \
             WHERE ra_PS BETWEEN 120.5 AND 121.5 AND decl_PS BETWEEN 10.0 AND 11.0 \
             AND fluxToAbMag(zFlux_PS) BETWEEN 18 AND 25 \
             AND fluxToAbMag(gFlux_PS)-fluxToAbMag(rFlux_PS) BETWEEN -0.5 AND 0.5",
        ),
        ("HV1", "SELECT COUNT(*) FROM Object"),
        (
            "HVS",
            "SELECT COUNT(*), AVG(psfFlux) FROM Source WHERE psfFlux > 2500.0",
        ),
        (
            "ZONE",
            "SELECT COUNT(*) FROM Object WHERE decl_PS BETWEEN 12.5 AND 16.5",
        ),
        (
            "TOPN",
            "SELECT objectId, ra_PS FROM Object ORDER BY objectId DESC LIMIT 10",
        ),
    ];
    let mut out = String::new();
    for (class, sql) in statements {
        let explain = q.explain(sql).expect("explain");
        out.push_str(&format!(
            "{class}: {sql}\nchunks = {}\n{:?}\n\n",
            explain.chunks.len(),
            explain.choice
        ));
    }
    assert_golden("full_sky_choices", &out);
}

/// Estimator accuracy on a datagen workload: every estimate within a
/// bounded q-error of the actual row count, and the estimate/actual
/// pair exported through the stats view.
#[test]
fn estimator_qerror_is_bounded() {
    let q = fixture();
    let workload = [
        "SELECT objectId FROM Object WHERE objectId = 101",
        "SELECT objectId FROM Object WHERE objectId IN (5, 105, 205, 305)",
        "SELECT objectId FROM Object WHERE decl_PS < 0.0",
        "SELECT objectId FROM Object WHERE decl_PS < 0.0 AND ra_PS > 1.0",
        "SELECT objectId, ra_PS FROM Object ORDER BY objectId LIMIT 20",
        "SELECT COUNT(*) FROM Object",
    ];
    for sql in workload {
        let (_, stats) = q.query_with_stats(sql).expect("runs");
        let qerr = stats.planner_qerror_pct as f64 / 100.0;
        assert!(
            (1.0..=16.0).contains(&qerr),
            "q-error {qerr} out of bounds for {sql} (est {})",
            stats.planner_est_rows
        );
    }
}

/// The planner's choice and its estimate-vs-actual error ride the span
/// tree: `master.analyze` records the access path and estimate, the
/// query root records the q-error — all visible in the exported JSON.
#[test]
fn trace_json_carries_planner_annotations() {
    let q = fixture();
    let traced = q
        .query_traced("SELECT ra_PS FROM Object WHERE objectId = 57")
        .expect("traced run");
    let json = traced.trace.to_json();
    for key in [
        "planner.access",
        "planner.est_rows",
        "planner.actual_rows",
        "planner.qerror",
    ] {
        assert!(json.contains(key), "trace JSON missing {key}: {json}");
    }
    assert!(json.contains("IndexLookup"), "{json}");
    // The stats view exposes the same numbers for metrics consumers
    // (q-error is floored at 1.0, surfaced as percent).
    assert!(traced.stats.planner_qerror_pct >= 100);
}

/// The value of one `item` row of an EXPLAIN table.
fn explain_item(plan: &qserv::ResultTable, item: &str) -> String {
    plan.rows
        .iter()
        .find_map(|r| match (&r[0], &r[1]) {
            (qserv::Value::Str(k), qserv::Value::Str(v)) if k == item => Some(v.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("EXPLAIN reports no {item} row"))
}

/// Regression: membership changes commit placement epochs, and EXPLAIN
/// must report the epoch a query would pin now, not the one it was
/// first planned against.
#[test]
fn explain_follows_the_placement_epoch() {
    let patch = small_patch(300, 910);
    let qserv = Arc::new(
        qserv::ClusterBuilder::new(2)
            .standby_nodes(1)
            .build(&patch.objects, &patch.sources),
    );
    let service = QueryService::start(Arc::clone(&qserv), ServiceConfig::default());
    let sql = "SELECT COUNT(*) FROM Object";
    let epoch_of = |plan: &qserv::ResultTable| explain_item(plan, "placement_epoch");

    let before = service.explain(sql).expect("explain");
    assert_eq!(epoch_of(&before), qserv.placement().epoch().to_string());
    qserv.join_node(2).expect("standby joins");
    let joined = qserv.placement().epoch();
    assert!(joined > 0, "joining commits at least one epoch");
    let after = service.explain(sql).expect("explain after join");
    assert_eq!(
        epoch_of(&after),
        joined.to_string(),
        "EXPLAIN must report the epoch a query would pin now"
    );
}

/// Regression: the service's EXPLAIN decided `class` at the default
/// threshold while admission used the configured one, so at threshold 0
/// a one-chunk lookup read `interactive` yet queued as a scan.
#[test]
fn service_explain_reports_the_class_admission_assigns() {
    let patch = small_patch(300, 911);
    let service = QueryService::start(
        Arc::new(cluster_from(&patch, 2)),
        ServiceConfig {
            interactive_chunk_threshold: 0,
            ..ServiceConfig::default()
        },
    );
    let sql = "SELECT objectId, ra_PS FROM Object WHERE objectId = 11";
    let plan = service.explain(sql).expect("explain");
    assert_eq!(explain_item(&plan, "chunks"), "1");
    assert_eq!(explain_item(&plan, "class"), "scan");
    let handle = service.submit(sql).expect("admitted");
    assert_eq!(handle.class, QueryClass::Scan);
    handle.wait().result.expect("lookup runs");
}
