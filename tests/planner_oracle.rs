//! Plan-equivalence property battery: generated queries executed under
//! *every* plan the planner can be forced into (the
//! [`qserv::PlanOverride`] hook enumerates all combinations of
//! index-vs-scan, top-n pushdown, and filter reordering) must return
//! bit-identical results — a plan is an execution strategy, never a
//! semantics change — and the common result must match the monolithic
//! single-engine interpreter oracle.

mod common;

use common::{cluster_from, monolithic_db, small_patch, sorted_rows};
use proptest::prelude::*;
use qserv::{PlanOverride, Qserv};
use qserv_engine::db::Database;
use qserv_engine::exec::execute;
use qserv_sqlparse::parse_select;
use std::sync::OnceLock;

struct Fixture {
    /// One cluster per plan variant, built once: the planner's own
    /// choice first, then each enumerated override.
    variants: Vec<(Option<PlanOverride>, Qserv)>,
    local: Database,
}

impl Fixture {
    fn cluster(&self, ov: Option<PlanOverride>) -> &Qserv {
        let (_, q) = self
            .variants
            .iter()
            .find(|(v, _)| *v == ov)
            .expect("every variant has a cluster");
        q
    }
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let patch = small_patch(600, 4242);
        let variants = std::iter::once(None)
            .chain(PlanOverride::enumerate().into_iter().map(Some))
            .map(|ov| {
                let mut q = cluster_from(&patch, 4);
                q.plan_override = ov;
                (ov, q)
            })
            .collect();
        Fixture {
            variants,
            local: monolithic_db(&patch),
        }
    })
}

/// Runs `sql` once per enumerated override plus the planner's own
/// choice: every run must be bit-identical (rows AND order), and the
/// shared result must match the interpreter oracle — exactly when the
/// query is ordered, as a row set otherwise.
fn assert_plan_equivalent(sql: &str, ordered: bool) {
    let f = fixture();
    let reference = f
        .cluster(None)
        .query(sql)
        .unwrap_or_else(|e| panic!("planner {sql}: {e}"));
    for ov in PlanOverride::enumerate() {
        let r = f
            .cluster(Some(ov))
            .query(sql)
            .unwrap_or_else(|e| panic!("{ov:?} {sql}: {e}"));
        assert_eq!(r, reference, "plan {ov:?} diverged for {sql}");
    }
    let local = execute(&f.local, &parse_select(sql).expect("parses"))
        .unwrap_or_else(|e| panic!("local {sql}: {e}"));
    if ordered {
        assert_eq!(
            reference.rows, local.rows,
            "ordered rows differ from the oracle for {sql}"
        );
    } else {
        assert_eq!(
            sorted_rows(&reference.rows),
            sorted_rows(&local.rows),
            "rows differ from the oracle for {sql}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn point_lookups_under_all_plans(oid in 1i64..600) {
        assert_plan_equivalent(
            &format!("SELECT objectId, ra_PS, decl_PS FROM Object WHERE objectId = {oid}"),
            false,
        );
    }

    #[test]
    fn in_lists_under_all_plans(
        a in 1i64..600,
        b in 1i64..600,
        c in 1i64..600,
        d in 1i64..1200,
    ) {
        // `d` may miss the catalog entirely: absent keys must not
        // perturb any plan.
        assert_plan_equivalent(
            &format!("SELECT objectId, ra_PS FROM Object WHERE objectId IN ({a}, {b}, {c}, {d})"),
            false,
        );
    }

    #[test]
    fn range_scans_under_all_plans(
        cut in 18.0f64..27.0,
        decl in -7.0f64..7.0,
    ) {
        // Expensive conjunct first: the reordering override has real
        // work to do (or undo).
        assert_plan_equivalent(
            &format!(
                "SELECT objectId FROM Object \
                 WHERE fluxToAbMag(zFlux_PS) < {cut} AND decl_PS < {decl}"
            ),
            false,
        );
    }

    #[test]
    fn topn_under_all_plans(k in 1u64..40, desc in any::<bool>()) {
        // ORDER BY a proven-unique key: pushdown is sound and the final
        // prefix is fully determined, so even the oracle must agree on
        // byte-exact row order.
        assert_plan_equivalent(
            &format!(
                "SELECT objectId, ra_PS, decl_PS FROM Object ORDER BY objectId{} LIMIT {k}",
                if desc { " DESC" } else { "" }
            ),
            true,
        );
    }

    #[test]
    fn filtered_topn_under_all_plans(cut in 19.0f64..26.0, k in 1u64..25) {
        assert_plan_equivalent(
            &format!(
                "SELECT objectId FROM Object \
                 WHERE fluxToAbMag(iFlux_PS) < {cut} ORDER BY objectId DESC LIMIT {k}"
            ),
            true,
        );
    }

    #[test]
    fn aggregates_under_all_plans(a in 1i64..600, b in 1i64..600) {
        // Integer-exact aggregates: bit-identity must hold even when
        // the index path elides chunks from the fold sequence.
        assert_plan_equivalent(
            &format!("SELECT COUNT(*) FROM Object WHERE objectId IN ({a}, {b})"),
            false,
        );
        assert_plan_equivalent(
            "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId",
            false,
        );
    }
}

#[test]
fn override_enumeration_covers_every_combination() {
    let all = PlanOverride::enumerate();
    assert_eq!(all.len(), 8);
    let mut seen = std::collections::BTreeSet::new();
    for ov in &all {
        seen.insert((ov.use_index, ov.push_topn, ov.reorder));
        assert!(ov.use_index.is_some() && ov.push_topn.is_some() && ov.reorder.is_some());
    }
    assert_eq!(seen.len(), 8, "enumeration must not repeat combinations");
}

#[test]
fn override_hook_actually_changes_the_plan() {
    let f = fixture();
    let sql = "SELECT ra_PS FROM Object WHERE objectId = 77";
    let plan_of = |ov: Option<PlanOverride>| {
        let table = f.cluster(ov).explain_table(sql).expect("explain");
        table
            .rows
            .iter()
            .find(|r| r[0].to_string().contains("access_path"))
            .expect("access_path row")[1]
            .to_string()
    };
    let forced_scan = plan_of(Some(PlanOverride {
        use_index: Some(false),
        push_topn: Some(false),
        reorder: Some(false),
    }));
    let forced_index = plan_of(Some(PlanOverride {
        use_index: Some(true),
        push_topn: Some(false),
        reorder: Some(false),
    }));
    assert!(forced_scan.contains("full_scan"), "{forced_scan}");
    assert!(forced_index.contains("index_lookup"), "{forced_index}");
}
