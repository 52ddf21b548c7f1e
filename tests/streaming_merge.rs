//! Streaming result pipeline tests.
//!
//! Two layers:
//!
//! * property tests pinning the incremental [`Merger`] — its parts
//!   appended, or pushed into the engine's sink for the merge
//!   statement — to the collect-then-merge oracle (`merge_tables` +
//!   merge-statement execution) over randomized chunk-result shapes —
//!   one Int or Float type per column and case, parts whose column is
//!   all NULL and typed the other way (such a part carries no type
//!   vote), NULL group keys, empty parts, shuffled arrival order — and
//!   parts that disagree on a populated column failing alike on both
//!   paths. The oracle runs the engine's own sink, so ORDER BY (with
//!   and without LIMIT) and GROUP BY `COUNT(*)`/integer `SUM` are also
//!   pinned to a plain-Rust reference over the parts in chunk order;
//! * cluster tests: the live cluster returns what a single-node engine
//!   returns over the unpartitioned rows, and a pushed-down `LIMIT`
//!   cancels the chunk queue early so strictly fewer chunks are
//!   dispatched.

mod common;

use common::{assert_matches_local, cluster_from, monolithic_db, small_patch};
use proptest::prelude::*;
use qserv::analysis::analyze;
use qserv::rewrite::{build_plan, PhysicalPlan};
use qserv::testing::merge_oracle;
use qserv::{CatalogMeta, Chunker, ClusterBuilder, MergeShape, Merger, QservError};
use qserv_engine::exec::execute;
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use qserv_sphgeom::Angle;
use qserv_sqlparse::parse_select;
use std::cmp::Ordering;

fn plan_for(sql: &str) -> PhysicalPlan {
    let meta = CatalogMeta::lsst();
    let a = analyze(&parse_select(sql).expect("parses"), &meta).expect("analyzes");
    build_plan(&a, &meta).expect("plans")
}

/// splitmix64 — deterministic value generation inside a property case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// What a generated column holds; `key` uses a tiny value range so that
/// groups collide across parts.
#[derive(Clone, Copy)]
enum Kind {
    Key,
    Num,
}

/// Draws each column's type once per case: the chunk results of one
/// statement agree on their column types.
fn gen_types(rng: &mut Rng, cols: &[(&str, Kind)]) -> Vec<ColumnType> {
    cols.iter()
        .map(|_| {
            if rng.below(2) == 0 {
                ColumnType::Int
            } else {
                ColumnType::Float
            }
        })
        .collect()
}

/// The other numeric type.
fn flip(ty: ColumnType) -> ColumnType {
    match ty {
        ColumnType::Int => ColumnType::Float,
        _ => ColumnType::Int,
    }
}

/// Generates one chunk-result part typed `tys`. With `sprinkle`, NULLs
/// are sprinkled in, and now and then a column is all NULL in the part
/// and typed the other way (a result dump types an all-NULL column
/// Float whatever the other chunks hold), which must carry no vote.
/// Without it, every cell is populated.
fn gen_part(
    rng: &mut Rng,
    cols: &[(&str, Kind)],
    tys: &[ColumnType],
    rows: usize,
    sprinkle: bool,
) -> Table {
    let all_null: Vec<bool> = cols.iter().map(|_| sprinkle && rng.below(6) == 0).collect();
    let schema = Schema::new(
        cols.iter()
            .zip(tys)
            .zip(&all_null)
            .map(|(((n, _), t), &null)| ColumnDef::new(n, if null { flip(*t) } else { *t }))
            .collect(),
    );
    let mut t = Table::new(schema);
    for _ in 0..rows {
        let row: Vec<Value> = cols
            .iter()
            .zip(tys)
            .zip(&all_null)
            .map(|(((_, kind), ty), &null)| {
                if null || (sprinkle && rng.below(8) == 0) {
                    return Value::Null;
                }
                let v = match kind {
                    Kind::Key => rng.below(4) as i64,
                    Kind::Num => rng.below(200) as i64 - 100,
                };
                match ty {
                    ColumnType::Int => Value::Int(v),
                    ColumnType::Float => Value::Float(v as f64 * 0.5),
                    ColumnType::Str => unreachable!("numeric columns only"),
                }
            })
            .collect();
        t.push_row(row).expect("row matches generated schema");
    }
    t
}

/// `nparts` parts of up to `max_rows` rows under one per-case typing.
fn gen_parts(rng: &mut Rng, cols: &[(&str, Kind)], nparts: usize, max_rows: u64) -> Vec<Table> {
    let tys = gen_types(rng, cols);
    (0..nparts)
        .map(|_| {
            let rows = rng.below(max_rows) as usize;
            gen_part(rng, cols, &tys, rows, true)
        })
        .collect()
}

/// Folds `parts` into a fresh [`Merger`] in a seeded shuffle of the
/// arrival order (sequence numbers still identify chunk order). Returns
/// the first fold error, or the merger to finish.
fn fold_shuffled(
    plan: &PhysicalPlan,
    parts: Vec<Table>,
    rng: &mut Rng,
) -> Result<Merger, QservError> {
    let mut order: Vec<usize> = (0..parts.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut parts: Vec<Option<Table>> = parts.into_iter().map(Some).collect();
    let mut merger = Merger::new(plan);
    for seq in order {
        let part = parts[seq].take().expect("each seq folds once");
        merger.fold(seq, part)?;
    }
    Ok(merger)
}

/// Streams `parts` through [`fold_shuffled`] and checks the result
/// against the barrier oracle over the same parts, which must fail
/// exactly when `disagree` says the parts do.
fn assert_streaming_matches_oracle(
    plan: &PhysicalPlan,
    parts: Vec<Table>,
    disagree: bool,
    rng: &mut Rng,
) {
    let oracle = merge_oracle(&plan.merge_stmt, parts.clone());
    assert_eq!(oracle.is_err(), disagree, "oracle: {oracle:?}");
    match (oracle, fold_shuffled(plan, parts, rng)) {
        (Ok((expect, _)), Ok(merger)) => {
            let got = merger.finish().expect("streaming finish");
            assert_eq!(got, expect, "streaming diverged from oracle");
        }
        (Err(expect), Err(got)) => assert_eq!(expect.to_string(), got.to_string()),
        (Err(expect), Ok(merger)) => {
            let got = merger
                .finish()
                .expect_err("oracle errored; streaming must too");
            assert_eq!(expect.to_string(), got.to_string());
        }
        (Ok(_), Err(got)) => panic!("streaming errored where oracle succeeded: {got}"),
    }
}

/// The rows of `parts` concatenated in chunk order: what every merged
/// answer is defined over.
fn concat_rows(parts: &[Table]) -> Vec<Vec<Value>> {
    parts
        .iter()
        .flat_map(|t| (0..t.num_rows()).map(move |r| t.row(r)))
        .collect()
}

/// ORDER BY `keys` — `(column, descending)` pairs — over the parts: a
/// stable sort by [`Value::total_cmp`], so ties keep chunk order, then
/// the first `limit` rows.
fn sorted_reference(
    parts: &[Table],
    keys: &[(usize, bool)],
    limit: Option<usize>,
) -> Vec<Vec<Value>> {
    let mut rows = concat_rows(parts);
    rows.sort_by(|a, b| {
        keys.iter()
            .map(|&(i, desc)| {
                let ord = a[i].total_cmp(&b[i]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows.truncate(limit.unwrap_or(rows.len()));
    rows
}

/// GROUP BY column 0, every other column an integer partial to add up
/// (a chunk's `COUNT(*)` or `SUM`): one row per group in order of first
/// appearance, NULL partials skipped, NULL for a group that has none.
fn group_sums_reference(parts: &[Table]) -> Vec<Vec<Value>> {
    let mut groups: Vec<(Value, Vec<Option<i64>>)> = Vec::new();
    for row in concat_rows(parts) {
        let g = match groups
            .iter()
            .position(|(key, _)| key.total_cmp(&row[0]).is_eq())
        {
            Some(g) => g,
            None => {
                groups.push((row[0].clone(), vec![None; row.len() - 1]));
                groups.len() - 1
            }
        };
        for (sum, v) in groups[g].1.iter_mut().zip(&row[1..]) {
            if let Value::Int(x) = v {
                *sum = Some(sum.unwrap_or(0) + x);
            }
        }
    }
    groups
        .into_iter()
        .map(|(key, sums)| {
            std::iter::once(key)
                .chain(sums.into_iter().map(|s| s.map_or(Value::Null, Value::Int)))
                .collect()
        })
        .collect()
}

/// Streams `parts` through [`fold_shuffled`] and checks the merged rows
/// against `expect`, computed without the engine.
fn assert_streaming_matches_reference(
    plan: &PhysicalPlan,
    parts: Vec<Table>,
    expect: Vec<Vec<Value>>,
    rng: &mut Rng,
) {
    let got = fold_shuffled(plan, parts, rng)
        .and_then(Merger::finish)
        .expect("streamed merge");
    assert_eq!(got.rows, expect, "streaming diverged from the reference");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GROUP BY fold: running per-group accumulators, NULL keys.
    #[test]
    fn fold_group_by_matches_oracle(seed in 0u64..u64::MAX / 2, nparts in 1usize..7) {
        let plan = plan_for(
            "SELECT chunkId, COUNT(*), SUM(ra_PS), AVG(decl_PS), \
             MIN(ra_PS), MAX(ra_PS) FROM Object GROUP BY chunkId",
        );
        prop_assert_eq!(&plan.shape, &MergeShape::Query);
        let cols: Vec<(&str, Kind)> = vec![
            ("chunkId", Kind::Key),
            ("COUNT(*)", Kind::Num),
            ("SUM(ra_PS)", Kind::Num),
            ("SUM(decl_PS)", Kind::Num),
            ("COUNT(decl_PS)", Kind::Num),
            ("MIN(ra_PS)", Kind::Num),
            ("MAX(ra_PS)", Kind::Num),
        ];
        let mut rng = Rng(seed);
        let parts = gen_parts(&mut rng, &cols, nparts, 5);
        assert_streaming_matches_oracle(&plan, parts, false, &mut rng);
    }

    /// Global aggregation (no GROUP BY) folds to a single row.
    #[test]
    fn fold_global_agg_matches_oracle(seed in 0u64..u64::MAX / 2, nparts in 1usize..7) {
        let plan = plan_for(
            "SELECT COUNT(*), SUM(ra_PS), AVG(ra_PS), MIN(decl_PS), MAX(decl_PS) FROM Object",
        );
        prop_assert_eq!(&plan.shape, &MergeShape::Query);
        let cols: Vec<(&str, Kind)> = vec![
            ("COUNT(*)", Kind::Num),
            ("SUM(ra_PS)", Kind::Num),
            ("COUNT(ra_PS)", Kind::Num),
            ("MIN(decl_PS)", Kind::Num),
            ("MAX(decl_PS)", Kind::Num),
        ];
        let mut rng = Rng(seed);
        let parts = gen_parts(&mut rng, &cols, nparts, 4);
        assert_streaming_matches_oracle(&plan, parts, false, &mut rng);
    }

    /// Plain append (no aggregation, no ORDER BY, no LIMIT).
    #[test]
    fn append_matches_oracle(seed in 0u64..u64::MAX / 2, nparts in 1usize..7) {
        let plan = plan_for("SELECT objectId, ra_PS FROM Object");
        prop_assert_eq!(&plan.shape, &MergeShape::Append { cutoff: None });
        let cols: Vec<(&str, Kind)> = vec![("objectId", Kind::Num), ("ra_PS", Kind::Num)];
        let mut rng = Rng(seed);
        let parts = gen_parts(&mut rng, &cols, nparts, 5);
        assert_streaming_matches_oracle(&plan, parts, false, &mut rng);
    }

    /// Append with a pushed-down LIMIT: the merger may stop early.
    #[test]
    fn append_limit_cutoff_matches_oracle(seed in 0u64..u64::MAX / 2, nparts in 1usize..7) {
        let plan = plan_for("SELECT objectId FROM Object LIMIT 6");
        prop_assert_eq!(&plan.shape, &MergeShape::Append { cutoff: Some(6) });
        let cols: Vec<(&str, Kind)> = vec![("objectId", Kind::Num)];
        let mut rng = Rng(seed);
        let parts = gen_parts(&mut rng, &cols, nparts, 5);
        assert_streaming_matches_oracle(&plan, parts, false, &mut rng);
    }

    /// ORDER BY … LIMIT: the sink keeps a bounded top-n candidate set
    /// whose final contents (including tie-breaking by arrival order)
    /// must match the oracle's stable sort over the full concatenation.
    #[test]
    fn topn_matches_oracle(seed in 0u64..u64::MAX / 2, nparts in 1usize..7) {
        let plan = plan_for(
            "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC, objectId LIMIT 4",
        );
        prop_assert_eq!(&plan.shape, &MergeShape::Query);
        let cols: Vec<(&str, Kind)> = vec![("objectId", Kind::Key), ("ra_PS", Kind::Key)];
        let mut rng = Rng(seed);
        let parts = gen_parts(&mut rng, &cols, nparts, 6);
        assert_streaming_matches_oracle(&plan, parts, false, &mut rng);
    }

    /// Every merge statement runs through the engine's sink: shapes that
    /// once finished through the oracle, or fell back to it at run time.
    #[test]
    fn query_shapes_match_oracle(
        seed in 0u64..u64::MAX / 2,
        nparts in 1usize..7,
        case in 0usize..7,
    ) {
        let (sql, keys): (&str, &[&str]) = match case {
            // ORDER BY without LIMIT: a full sort at finish.
            0 => ("SELECT objectId, ra_PS FROM Object ORDER BY ra_PS, objectId DESC", &["ra_PS"]),
            // Top-n on an expression the sink evaluates per row.
            1 => ("SELECT * FROM Object ORDER BY ra_PS - decl_PS DESC LIMIT 3", &["ra_PS", "decl_PS"]),
            // Top-n on a key that is no output column: a hidden QS_OB0.
            2 => ("SELECT objectId FROM Object ORDER BY ra_PS + decl_PS LIMIT 4", &["QS_OB0"]),
            // Two group keys, ordered by an aggregate output, limited.
            3 => (
                "SELECT chunkId, subChunkId, COUNT(*) AS n, SUM(ra_PS) FROM Object \
                 GROUP BY chunkId, subChunkId ORDER BY n DESC, chunkId LIMIT 3",
                &["chunkId", "subChunkId"],
            ),
            // An expression over aggregates.
            4 => ("SELECT SUM(ra_PS) / COUNT(*), MAX(decl_PS) - MIN(decl_PS) FROM Object", &[]),
            // GROUP BY an expression: a hidden QS_GB0 key column.
            5 => ("SELECT COUNT(*), AVG(ra_PS) FROM Object GROUP BY chunkId * 2", &["QS_GB0"]),
            // LIMIT 0 under GROUP BY.
            _ => ("SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId LIMIT 0", &["chunkId"]),
        };
        let plan = plan_for(sql);
        prop_assert_eq!(&plan.shape, &MergeShape::Query);
        let names: Vec<String> = if sql.starts_with("SELECT *") {
            keys.iter().map(|k| k.to_string()).collect()
        } else {
            plan.chunk_stmt.projections.iter().map(|p| p.output_name()).collect()
        };
        let cols: Vec<(&str, Kind)> = names
            .iter()
            .map(|n| (n.as_str(), if keys.contains(&n.as_str()) { Kind::Key } else { Kind::Num }))
            .collect();
        let mut rng = Rng(seed);
        let parts = gen_parts(&mut rng, &cols, nparts, 6);
        assert_streaming_matches_oracle(&plan, parts, false, &mut rng);
    }

    /// A part whose populated column has the other type than an earlier
    /// populated part makes the streamed merge fail exactly as the
    /// oracle does, whatever the merge shape and arrival order.
    #[test]
    fn disagreeing_parts_fail_alike(
        seed in 0u64..u64::MAX / 2,
        nparts in 0usize..5,
        shape in 0usize..3,
    ) {
        let (sql, cols): (&str, Vec<(&str, Kind)>) = match shape {
            0 => ("SELECT objectId, ra_PS FROM Object", vec![("objectId", Kind::Num), ("ra_PS", Kind::Num)]),
            1 => (
                "SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId",
                vec![("chunkId", Kind::Key), ("COUNT(*)", Kind::Num)],
            ),
            _ => (
                "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC, objectId LIMIT 4",
                vec![("objectId", Kind::Key), ("ra_PS", Kind::Key)],
            ),
        };
        let plan = plan_for(sql);
        let mut rng = Rng(seed);
        let tys = gen_types(&mut rng, &cols);
        let mut parts: Vec<Table> = (0..nparts)
            .map(|_| {
                let rows = rng.below(4) as usize;
                gen_part(&mut rng, &cols, &tys, rows, true)
            })
            .collect();
        // One fully populated part as typed, one with a column flipped,
        // each at a random chunk position.
        let mut flipped = tys.clone();
        let col = rng.below(cols.len() as u64) as usize;
        flipped[col] = flip(flipped[col]);
        for part_tys in [&tys, &flipped] {
            let rows = 1 + rng.below(3) as usize;
            let part = gen_part(&mut rng, &cols, part_tys, rows, false);
            let at = rng.below(parts.len() as u64 + 1) as usize;
            parts.insert(at, part);
        }
        assert_streaming_matches_oracle(&plan, parts, true, &mut rng);
    }

    /// ORDER BY … LIMIT against the reference. The sort keys tie often
    /// and `objectId` tells tied rows apart, so the rows a bounded top-n
    /// keeps must be the earliest in chunk order.
    #[test]
    fn topn_matches_reference(seed in 0u64..u64::MAX / 2, nparts in 1usize..7) {
        let plan = plan_for(
            "SELECT objectId, ra_PS, decl_PS FROM Object ORDER BY ra_PS DESC, decl_PS LIMIT 4",
        );
        prop_assert_eq!(&plan.shape, &MergeShape::Query);
        let cols: Vec<(&str, Kind)> =
            vec![("objectId", Kind::Num), ("ra_PS", Kind::Key), ("decl_PS", Kind::Key)];
        let mut rng = Rng(seed);
        let parts = gen_parts(&mut rng, &cols, nparts, 6);
        let expect = sorted_reference(&parts, &[(1, true), (2, false)], Some(4));
        assert_streaming_matches_reference(&plan, parts, expect, &mut rng);
    }

    /// ORDER BY without LIMIT against the reference: a full stable sort.
    #[test]
    fn order_by_matches_reference(seed in 0u64..u64::MAX / 2, nparts in 1usize..7) {
        let plan = plan_for("SELECT objectId, ra_PS FROM Object ORDER BY ra_PS");
        prop_assert_eq!(&plan.shape, &MergeShape::Query);
        let cols: Vec<(&str, Kind)> = vec![("objectId", Kind::Num), ("ra_PS", Kind::Key)];
        let mut rng = Rng(seed);
        let parts = gen_parts(&mut rng, &cols, nparts, 6);
        let expect = sorted_reference(&parts, &[(1, false)], None);
        assert_streaming_matches_reference(&plan, parts, expect, &mut rng);
    }

    /// GROUP BY with `COUNT(*)` and an integer `SUM` against the
    /// reference: partials add up per group, groups in first appearance.
    #[test]
    fn group_count_sum_matches_reference(seed in 0u64..u64::MAX / 2, nparts in 1usize..7) {
        let plan = plan_for("SELECT chunkId, COUNT(*), SUM(objectId) FROM Object GROUP BY chunkId");
        prop_assert_eq!(&plan.shape, &MergeShape::Query);
        let cols: Vec<(&str, Kind)> =
            vec![("chunkId", Kind::Key), ("COUNT(*)", Kind::Num), ("SUM(objectId)", Kind::Num)];
        let mut rng = Rng(seed);
        let parts: Vec<Table> = (0..nparts)
            .map(|_| {
                let rows = rng.below(6) as usize;
                gen_part(&mut rng, &cols, &[ColumnType::Int; 3], rows, true)
            })
            .collect();
        let expect = group_sums_reference(&parts);
        assert_streaming_matches_reference(&plan, parts, expect, &mut rng);
    }
}

/// The streaming pipeline on a live cluster agrees with a single-node
/// engine over the unpartitioned rows (order-insensitively unless the
/// query orders, approximately for float aggregates, whose distributed
/// summation reassociates).
#[test]
fn streaming_cluster_agrees_with_single_node_oracle() {
    let patch = small_patch(500, 91);
    let q = cluster_from(&patch, 3);
    let db = monolithic_db(&patch);
    for sql in [
        "SELECT COUNT(*) FROM Object",
        "SELECT chunkId, COUNT(*), AVG(ra_PS) FROM Object GROUP BY chunkId",
        "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC LIMIT 7",
        "SELECT objectId FROM Object WHERE decl_PS < 0.0",
        "SELECT MIN(ra_PS), MAX(ra_PS), SUM(uFlux_SG) FROM Object",
    ] {
        let streamed = q.query(sql).expect("cluster query");
        let local = execute(&db, &parse_select(sql).expect("parses")).expect("oracle query");
        assert_matches_local(sql, &streamed, &local);
    }
}

/// A pushed-down LIMIT with no ORDER BY cancels the chunk queue: the
/// master dispatches strictly fewer chunks than the query's chunk set,
/// and accounts for the rest in `chunks_skipped_by_limit`.
#[test]
fn limit_cutoff_dispatches_fewer_chunks() {
    let patch = small_patch(600, 42);
    let mut q = cluster_from(&patch, 4);
    // Serialize dispatch so the cutoff fires before the queue drains.
    q.dispatch_width = 1;
    let sql = "SELECT objectId FROM Object LIMIT 2";
    let chunk_set = q.explain(sql).expect("explain").chunks.len();
    assert!(chunk_set > 1, "need a multi-chunk query for a cutoff test");
    let (result, stats) = q.query_with_stats(sql).expect("limited query");
    assert_eq!(result.rows.len(), 2);
    assert!(
        stats.chunks_dispatched < chunk_set,
        "LIMIT cutoff did not cancel the queue: dispatched {} of {chunk_set}",
        stats.chunks_dispatched
    );
    assert!(stats.chunks_skipped_by_limit >= 1);
    assert_eq!(
        stats.chunks_dispatched + stats.chunks_skipped_by_limit,
        chunk_set
    );
}

/// Whether chunk results are folded as the calling thread produces them
/// or arrive out of order from helper threads, the reorder buffer makes
/// float accumulation order — every bit of a SUM/AVG — and the rows a
/// LIMIT keeps the same, and every chunk is still either dispatched or
/// counted as skipped.
#[test]
fn results_bit_identical_across_dispatch_widths() {
    let patch = small_patch(600, 42);
    // 2° stripes: a few dozen chunks over the PT1.1 patch.
    let chunker = Chunker::new(90, 4, Angle::from_degrees(0.05)).expect("valid partitioning");
    let statements = [
        "SELECT COUNT(*), SUM(uFlux_SG), AVG(ra_PS) FROM Object",
        "SELECT chunkId, COUNT(*), AVG(decl_PS) FROM Object GROUP BY chunkId",
        "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC LIMIT 7",
        "SELECT objectId FROM Object WHERE decl_PS < 0.0",
        "SELECT objectId FROM Object LIMIT 2",
    ];
    let run = |width: usize| {
        let mut q = ClusterBuilder::new(4)
            .chunker(chunker.clone())
            .build(&patch.objects, &patch.sources);
        q.dispatch_width = width;
        statements
            .iter()
            .map(|sql| {
                let chunk_set = q.explain(sql).expect("explain").chunks.len();
                let (result, stats) = q.query_with_stats(sql).expect("cluster query");
                assert_eq!(
                    stats.chunks_dispatched + stats.chunks_skipped_by_limit,
                    chunk_set,
                    "width {width}: {sql}"
                );
                result.rows
            })
            .collect::<Vec<_>>()
    };
    let serial = run(1);
    for width in [2, 3, 8] {
        assert_eq!(run(width), serial, "width {width} changed the result bytes");
    }
}
