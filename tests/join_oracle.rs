//! Join-path oracle suite: the distributed near-neighbor self-join and
//! the cross-catalog XMatch operator must return *exactly* the rows a
//! brute-force single-node oracle computes over the same catalog —
//! including pairs that straddle chunk and subchunk borders, which only
//! the overlap-subchunk machinery can find. Randomized skies and radii
//! come from proptest; one fixed case runs the whole path under a seeded
//! fabric-fault schedule.

mod common;

use common::{cluster_from, small_patch, sorted_rows};
use proptest::prelude::*;
use qserv::{ClusterBuilder, FabricOp, FaultPlan, Qserv, Value, XMatchSpec};
use qserv_datagen::generate::{CatalogConfig, ObjectRow, Patch, RefObjectRow};
use qserv_partition::chunker::Chunker;
use qserv_sphgeom::{angular_separation_deg, LonLat, SphericalBox};

/// Brute-force near-neighbor self-join: every ordered pair of distinct
/// objects with angular separation strictly below `radius` degrees.
/// O(n²), no partitioning, no overlap tables — the semantic ground truth.
fn oracle_self_pairs(objects: &[ObjectRow], radius: f64) -> Vec<Vec<Value>> {
    let mut pairs = Vec::new();
    for a in objects {
        for b in objects {
            if a.object_id != b.object_id
                && angular_separation_deg(a.ra_ps, a.decl_ps, b.ra_ps, b.decl_ps) < radius
            {
                pairs.push(vec![Value::Int(a.object_id), Value::Int(b.object_id)]);
            }
        }
    }
    pairs
}

/// Brute-force XMatch: for each object, the nearest reference object
/// within `radius` degrees (inclusive, matching the dispatched `<=`),
/// ties broken toward the smaller refObjectId — the same total order the
/// distributed keep-nearest merge fold uses. Objects with no candidate
/// in range are omitted. Rows ascend by objectId, mirroring the merge.
fn oracle_xmatch(objects: &[ObjectRow], refs: &[RefObjectRow], radius: f64) -> Vec<Vec<Value>> {
    let mut rows = Vec::new();
    for o in objects {
        let mut best: Option<(f64, i64)> = None;
        for r in refs {
            let d = angular_separation_deg(o.ra_ps, o.decl_ps, r.ra, r.decl);
            if d <= radius {
                let better = match best {
                    None => true,
                    Some((bd, bid)) => d < bd || (d == bd && r.ref_object_id < bid),
                };
                if better {
                    best = Some((d, r.ref_object_id));
                }
            }
        }
        if let Some((d, rid)) = best {
            rows.push(vec![
                Value::Int(o.object_id),
                Value::Int(rid),
                Value::Float(d),
            ]);
        }
    }
    rows
}

fn pairs_sql(radius: f64) -> String {
    format!(
        "SELECT o1.objectId, o2.objectId FROM Object o1, Object o2 \
         WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < {radius:?} \
         AND o1.objectId != o2.objectId"
    )
}

fn cluster_with_refs(patch: &Patch, refs: &[RefObjectRow], nodes: usize) -> Qserv {
    ClusterBuilder::new(nodes)
        .ref_objects(refs)
        .build(&patch.objects, &patch.sources)
}

#[test]
fn self_join_matches_oracle_and_crosses_chunk_borders() {
    // The case must actually exercise the overlap machinery: scan seeds
    // deterministically for a sky where at least one oracle pair has its
    // endpoints in *different* chunks — a partition-only join (no
    // overlap tables) would miss exactly those pairs. The PT1.1
    // footprint crosses the decl=0 stripe border and an RA chunk
    // border, so a dense-enough sky always yields straddlers.
    let radius = 0.09; // just inside the 0.1° overlap
    let chunker = Chunker::test_small();
    let (patch, want, straddlers) = (5401..5433)
        .find_map(|seed| {
            let patch = small_patch(900, seed);
            let want = oracle_self_pairs(&patch.objects, radius);
            let chunk_of = |oid: i64| {
                let o = &patch.objects[(oid - 1) as usize];
                chunker
                    .locate(&LonLat::from_degrees(o.ra_ps, o.decl_ps))
                    .chunk_id
            };
            let straddlers = want
                .iter()
                .filter(|p| {
                    let (Value::Int(a), Value::Int(b)) = (&p[0], &p[1]) else {
                        panic!("pair columns are ids")
                    };
                    chunk_of(*a) != chunk_of(*b)
                })
                .count();
            (straddlers > 0).then_some((patch, want, straddlers))
        })
        .expect("some seed in 5401..5433 yields a border-straddling pair");
    assert!(straddlers > 0 && want.len() > straddlers);

    let q = cluster_from(&patch, 4);
    let got = q.query(&pairs_sql(radius)).expect("distributed join");
    assert_eq!(sorted_rows(&got.rows), sorted_rows(&want));
}

#[test]
fn self_join_matches_oracle_at_the_poles_and_the_ra_seam() {
    // Toward the poles the chunker's stripes hold ever fewer, wider
    // chunks and subchunks in RA, all meeting at the pole itself; at RA
    // 0 the dilated overlap must wrap 360° → 0°. Each sky holds ≈700
    // objects, dense enough that pairs cross subchunk borders (which
    // only the overlap tables can join) in every one, and the seam in
    // the last.
    let radius = 0.09; // just inside the 0.1° overlap
    let chunker = Chunker::test_small();
    let skies = [
        // Caps centred at decl −89.7° and +89.5°, RA all round.
        SphericalBox::from_degrees(0.0, -90.0, 360.0, -89.4),
        SphericalBox::from_degrees(0.0, 89.0, 360.0, 90.0),
        // A band at decl −85°, across several RA chunk borders.
        SphericalBox::from_degrees(0.0, -85.4, 40.0, -84.6),
        // The RA seam on the equator: 359.3° → 0.5°.
        SphericalBox::from_degrees(359.3, -0.4, 0.5, 0.4),
    ];
    for (i, footprint) in skies.into_iter().enumerate() {
        let patch = Patch::generate(&CatalogConfig {
            objects: 700,
            mean_sources_per_object: 1.0,
            seed: 5406 + i as u64,
            footprint,
        });
        let want = oracle_self_pairs(&patch.objects, radius);
        let object = |v: &Value| {
            let Value::Int(id) = v else {
                panic!("pair columns are ids")
            };
            &patch.objects[(*id - 1) as usize]
        };
        let subchunk_of = |o: &ObjectRow| {
            let at = chunker.locate(&LonLat::from_degrees(o.ra_ps, o.decl_ps));
            (at.chunk_id, at.subchunk_id)
        };
        let straddlers = want
            .iter()
            .filter(|p| subchunk_of(object(&p[0])) != subchunk_of(object(&p[1])))
            .count();
        assert!(straddlers > 0, "sky {i}: no pair crosses a subchunk border");
        if i == 3 {
            let seam = want
                .iter()
                .filter(|p| (object(&p[0]).ra_ps - object(&p[1]).ra_ps).abs() > 180.0)
                .count();
            assert!(seam > 0, "no pair crosses RA 0");
        }

        let q = cluster_from(&patch, 4);
        let got = q.query(&pairs_sql(radius)).expect("distributed join");
        assert_eq!(
            sorted_rows(&got.rows),
            sorted_rows(&want),
            "sky {i} diverged from the oracle"
        );
    }
}

#[test]
fn xmatch_matches_oracle_bit_for_bit() {
    let patch = small_patch(500, 5402);
    let refs = patch.generate_ref_catalog(5402);
    let q = cluster_with_refs(&patch, &refs, 4);
    let (got, _) = q.xmatch(&XMatchSpec::object_to_ref(0.01)).expect("xmatch");
    assert_eq!(got.columns, vec!["objectId", "refObjectId", "dist"]);
    let want = oracle_xmatch(&patch.objects, &refs, 0.01);
    assert!(want.len() > 100, "most objects have a counterpart in range");
    // The distributed result is already sorted ascending by objectId and
    // the distance arithmetic is shared, so this comparison is *exact* —
    // ordering, ids, and distance bits.
    assert_eq!(got.rows, want);
}

#[test]
fn xmatch_rejects_invalid_radii() {
    let patch = small_patch(50, 5403);
    let refs = patch.generate_ref_catalog(5403);
    let q = cluster_with_refs(&patch, &refs, 2);
    // Beyond the partitioning overlap: candidates would be invisible to
    // the owning chunk, so the operator must refuse rather than silently
    // drop matches.
    let overlap = 0.1;
    let err = q
        .xmatch(&XMatchSpec::object_to_ref(overlap * 2.0))
        .unwrap_err();
    assert!(
        err.to_string().contains("overlap"),
        "error should explain the overlap bound: {err}"
    );
    assert!(q.xmatch(&XMatchSpec::object_to_ref(0.0)).is_err());
    assert!(q.xmatch(&XMatchSpec::object_to_ref(-0.01)).is_err());
    // An unpartitioned right table is rejected at spec validation.
    let mut spec = XMatchSpec::object_to_ref(0.01);
    spec.right = "Filter".to_string();
    assert!(q.xmatch(&spec).is_err());
}

#[test]
fn join_path_survives_fabric_faults_and_leaks_nothing() {
    // Worker failures mid-join: the first writes fail outright and 20%
    // of reads fail transiently. With replication the retried chunks
    // must land on the other replica and both join flavors must still
    // equal the oracle, with no stranded /result/* transactions.
    let patch = small_patch(400, 5404);
    let refs = patch.generate_ref_catalog(5404);
    let q = ClusterBuilder::new(4)
        .replication(2)
        .fault_plan(FaultPlan::new(11))
        .ref_objects(&refs)
        .build(&patch.objects, &patch.sources);
    q.cluster()
        .faults()
        .fail_next(None, Some(FabricOp::Write), 4);
    q.cluster()
        .faults()
        .fail_with_probability(None, Some(FabricOp::Read), 0.2);

    let radius = 0.04;
    let got = q.query(&pairs_sql(radius)).expect("join under faults");
    assert_eq!(
        sorted_rows(&got.rows),
        sorted_rows(&oracle_self_pairs(&patch.objects, radius))
    );

    let (matched, stats) = q
        .xmatch(&XMatchSpec::object_to_ref(0.01))
        .expect("xmatch under faults");
    assert_eq!(matched.rows, oracle_xmatch(&patch.objects, &refs, 0.01));
    assert!(
        stats.injected_faults_observed > 0 || stats.chunks_retried > 0,
        "the fault schedule must actually have exercised the retry path"
    );
    assert!(
        q.cluster().faults().stats().total() > 0,
        "fabric faults must have fired somewhere in the run"
    );
    for (id, server) in q.cluster().servers().iter().enumerate() {
        let leaked = server.file_names("/result/");
        assert!(
            leaked.is_empty(),
            "server {id} leaked result files: {leaked:?}"
        );
    }
}

#[test]
fn join_results_bit_identical_across_dispatch_widths() {
    // Merge-path determinism: whether chunk results arrive serially or
    // from racing dispatcher threads, the reorder buffer (joins) and the
    // commutative keep-nearest fold (xmatch) must make the final tables
    // byte-identical — same row order, same bits.
    let patch = small_patch(450, 5405);
    let refs = patch.generate_ref_catalog(5405);
    let run = |width: usize| {
        let mut q = cluster_with_refs(&patch, &refs, 4);
        q.dispatch_width = width;
        let pairs = q.query(&pairs_sql(0.05)).expect("join");
        let (matched, _) = q.xmatch(&XMatchSpec::object_to_ref(0.008)).expect("xmatch");
        (pairs.rows, matched.rows)
    };
    let serial = run(1);
    for _ in 0..3 {
        assert_eq!(run(8), serial, "dispatch width changed the result bytes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random skies, random radii: the distributed near-neighbor
    /// self-join over a freshly partitioned cluster always equals the
    /// brute-force O(n²) oracle, for any radius within the overlap.
    #[test]
    fn random_sky_self_join_equals_oracle(
        objects in 80usize..220,
        seed in 1u64..100_000,
        radius in 0.005f64..0.09,
    ) {
        let patch = small_patch(objects, seed);
        let q = cluster_from(&patch, 3);
        let got = q.query(&pairs_sql(radius)).expect("distributed join");
        prop_assert_eq!(
            sorted_rows(&got.rows),
            sorted_rows(&oracle_self_pairs(&patch.objects, radius)),
            "self-join diverged from oracle (objects={}, seed={}, r={})",
            objects, seed, radius
        );
    }

    /// Random two-catalog skies: XMatch against an independently drawn
    /// reference catalog equals the nearest-per-object oracle exactly,
    /// for any radius within the overlap.
    #[test]
    fn random_sky_xmatch_equals_oracle(
        objects in 60usize..180,
        seed in 1u64..100_000,
        ref_seed in 1u64..100_000,
        radius in 0.002f64..0.09,
    ) {
        let patch = small_patch(objects, seed);
        let refs = patch.generate_ref_catalog(ref_seed);
        let q = cluster_with_refs(&patch, &refs, 3);
        let (got, _) = q.xmatch(&XMatchSpec::object_to_ref(radius)).expect("xmatch");
        prop_assert_eq!(
            got.rows,
            oracle_xmatch(&patch.objects, &refs, radius),
            "xmatch diverged from oracle (objects={}, seed={}, ref_seed={}, r={})",
            objects, seed, ref_seed, radius
        );
    }
}
