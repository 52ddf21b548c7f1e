//! Vectorized-vs-interpreted equivalence: the columnar kernels must be
//! bit-identical to the tree-walking interpreter (the semantic oracle) on
//! every statement they accept — same columns, same rows, same row order,
//! NaN and NULL three-valued logic included.

mod common;

use common::{monolithic_db, small_patch};
use proptest::prelude::*;
use qserv_engine::db::Database;
use qserv_engine::exec::{execute_with_mode, ExecMode, ExecPath};
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_engine::value::Value;
use qserv_sqlparse::parse_select;
use std::cmp::Ordering;
use std::sync::OnceLock;

fn catalog() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| monolithic_db(&small_patch(400, 4242)))
}

/// A table thick with NULLs in every column type, plus a Float column of
/// NaN, ±inf and signed zeros, for three-valued-logic and IEEE edge cases
/// the synthesized catalog never produces.
fn nullable_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut t = Table::new(Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("x", ColumnType::Float),
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("tag", ColumnType::Str),
            ColumnDef::new("f", ColumnType::Float),
        ]));
        for i in 0..240i64 {
            let x = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Float((i as f64) * 0.75 - 40.0)
            };
            let k = if i % 7 == 3 {
                Value::Null
            } else {
                Value::Int(i % 9 - 4)
            };
            let tag = if i % 11 == 5 {
                Value::Null
            } else {
                Value::Str(format!("t{}", i % 4))
            };
            // IEEE edge values: NaN, ±inf and both signed zeros.
            let f = match i % 13 {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(f64::INFINITY),
                2 => Value::Float(f64::NEG_INFINITY),
                3 => Value::Float(-0.0),
                4 => Value::Float(0.0),
                5 => Value::Null,
                _ => Value::Float((i % 17) as f64 - 8.0),
            };
            t.push_row(vec![Value::Int(i), x, k, tag, f]).expect("fits");
        }
        t.build_index("id").expect("id indexes");
        let mut db = Database::new();
        db.create_table("T", t);
        db
    })
}

/// Bit-level row equality: `total_cmp` distinguishes NaN payloads and
/// signed zeros, which `==` on floats would paper over.
fn rows_identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra
                    .iter()
                    .zip(rb)
                    .all(|(x, y)| x.total_cmp(y) == Ordering::Equal)
        })
}

/// Runs `sql` down both paths and asserts the vectorized result is
/// bit-identical to the interpreted one. The statement must compile —
/// these tests pin the path rather than silently falling back.
fn assert_paths_agree(db: &Database, sql: &str) {
    let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{sql} parses: {e}"));
    let (interp, ipath) = execute_with_mode(db, &stmt, ExecMode::Interpreted)
        .unwrap_or_else(|e| panic!("interpreter {sql}: {e}"));
    assert_eq!(ipath, ExecPath::Interpreted);
    let (vector, vpath) = execute_with_mode(db, &stmt, ExecMode::Vectorized)
        .unwrap_or_else(|e| panic!("{sql} must vectorize: {e}"));
    assert_eq!(vpath, ExecPath::Vectorized);
    assert_eq!(vector.columns, interp.columns, "columns differ for {sql}");
    assert!(
        rows_identical(&vector.rows, &interp.rows),
        "rows differ for {sql}\nvectorized: {:?}\ninterpreted: {:?}",
        vector.rows,
        interp.rows
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Numeric range AND-chains — the fused fast path of the tentpole.
    #[test]
    fn range_chains_agree(
        lon in -10.0f64..370.0,
        w in 0.0f64..90.0,
        lat in -30.0f64..10.0,
        h in 0.0f64..25.0,
        strict in proptest::collection::vec(any::<bool>(), 1..4),
    ) {
        let (ge, le) = (
            if strict[0] { ">" } else { ">=" },
            if strict[strict.len() - 1] { "<" } else { "<=" },
        );
        assert_paths_agree(catalog(), &format!(
            "SELECT objectId, ra_PS, decl_PS FROM Object \
             WHERE ra_PS {ge} {lon} AND ra_PS {le} {} AND decl_PS BETWEEN {lat} AND {}",
            lon + w, lat + h
        ));
    }

    // Spatial-box UDF against the same fused kernel.
    #[test]
    fn spatial_boxes_agree(
        lon in 350.0f64..370.0,
        lat in -9.0f64..7.0,
        w in 0.1f64..12.0,
        h in 0.1f64..6.0,
    ) {
        assert_paths_agree(catalog(), &format!(
            "SELECT objectId FROM Object \
             WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, {lon}, {lat}, {}, {}) = 1",
            lon + w, lat + h
        ));
    }

    // objectId point and IN predicates (the index fast path).
    #[test]
    fn id_predicates_agree(a in 1i64..500, b in 1i64..500, c in 1i64..500) {
        assert_paths_agree(catalog(), &format!(
            "SELECT objectId, ra_PS FROM Object WHERE objectId = {a}"
        ));
        assert_paths_agree(catalog(), &format!(
            "SELECT objectId FROM Object WHERE objectId IN ({a}, {b}, {c})"
        ));
        assert_paths_agree(catalog(), &format!(
            "SELECT objectId FROM Object WHERE objectId NOT IN ({a}, {b})"
        ));
    }

    // General expression programs: functions, arithmetic, OR, NOT.
    #[test]
    fn expression_programs_agree(cut in 15.0f64..30.0, flux in 1e2f64..1e6) {
        assert_paths_agree(catalog(), &format!(
            "SELECT objectId FROM Object WHERE fluxToAbMag(zFlux_PS) < {cut}"
        ));
        assert_paths_agree(catalog(), &format!(
            "SELECT objectId, zFlux_PS + uFlux_SG FROM Object \
             WHERE zFlux_PS > {flux} OR NOT (uFlux_SG <= {flux})"
        ));
    }

    // Aggregation straight off the columns, global and grouped.
    #[test]
    fn aggregates_agree(lon in 0.0f64..300.0, w in 10.0f64..60.0) {
        assert_paths_agree(catalog(), &format!(
            "SELECT COUNT(*), SUM(zFlux_PS), AVG(ra_PS), MIN(decl_PS), MAX(decl_PS) \
             FROM Object WHERE ra_PS BETWEEN {lon} AND {}", lon + w
        ));
        assert_paths_agree(catalog(), &format!(
            "SELECT chunkId, COUNT(*), SUM(zFlux_PS), MIN(ra_PS) FROM Object \
             WHERE ra_PS BETWEEN {lon} AND {} GROUP BY chunkId", lon + w
        ));
        // Ungrouped with a bare projection (taken from the first selected
        // row), and SUM over an Int column.
        assert_paths_agree(catalog(), &format!(
            "SELECT chunkId, COUNT(*), SUM(objectId), MAX(objectId) FROM Object \
             WHERE ra_PS BETWEEN {lon} AND {}", lon + w
        ));
    }

    // Random comparisons over the NULL-heavy table: every 3VL outcome of
    // a WHERE must drop the row on both paths alike.
    #[test]
    fn null_threevalued_filters_agree(
        t in -45.0f64..145.0,
        v in -5i64..5,
        cmp in 0usize..4,
    ) {
        let op = ["<", "<=", ">", ">="][cmp];
        let db = nullable_db();
        assert_paths_agree(db, &format!("SELECT id, x, k FROM T WHERE x {op} {t}"));
        assert_paths_agree(db, &format!("SELECT id FROM T WHERE NOT (x {op} {t})"));
        assert_paths_agree(db, &format!(
            "SELECT id, tag FROM T WHERE x {op} {t} OR k = {v}"
        ));
        assert_paths_agree(db, &format!(
            "SELECT id FROM T WHERE x IS NOT NULL AND x {op} {t} AND k IN ({v}, {})",
            v + 2
        ));
    }

    // Aggregates over NULLs: COUNT(col) skips them, COUNT(*) does not,
    // SUM/AVG/MIN/MAX ignore them, and a NULL GROUP BY key forms its own
    // group — on both paths, identically.
    #[test]
    fn null_aggregates_agree(t in -45.0f64..145.0) {
        let db = nullable_db();
        assert_paths_agree(db, &format!(
            "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) \
             FROM T WHERE x < {t} OR x IS NULL"
        ));
        assert_paths_agree(db, &format!(
            "SELECT k, COUNT(*), COUNT(x), SUM(x) FROM T WHERE x < {t} \
             OR x IS NULL GROUP BY k"
        ));
        // Ungrouped with a bare projection; MIN/MAX over Str, SUM/AVG over Int.
        assert_paths_agree(db, &format!(
            "SELECT k, COUNT(*), SUM(x) FROM T WHERE x < {t}"
        ));
        assert_paths_agree(db, &format!(
            "SELECT MIN(tag), MAX(tag), COUNT(tag), SUM(id), AVG(id), MIN(id) \
             FROM T WHERE x < {t} OR x IS NULL"
        ));
        assert_paths_agree(db, &format!(
            "SELECT k, MIN(tag), MAX(tag), SUM(id) FROM T WHERE x < {t} GROUP BY k"
        ));
        // NaN, ±inf and signed zeros through every kind, global and grouped.
        assert_paths_agree(db, &format!(
            "SELECT COUNT(f), SUM(f), AVG(f), MIN(f), MAX(f) FROM T \
             WHERE x < {t} OR x IS NULL"
        ));
        assert_paths_agree(db, &format!(
            "SELECT k, SUM(f), AVG(f), MIN(f), MAX(f) FROM T WHERE x < {t} GROUP BY k"
        ));
        // Empty selections: one row of empty aggregates, or no group at all.
        assert_paths_agree(db, &format!(
            "SELECT k, COUNT(*), SUM(x), MIN(tag) FROM T WHERE x < {t} AND x > {t}"
        ));
        assert_paths_agree(db, &format!(
            "SELECT k, COUNT(*), SUM(x) FROM T WHERE x < {t} AND x > {t} GROUP BY k"
        ));
        // Row 3 is the first selected row and its key is NULL.
        assert_paths_agree(db, &format!(
            "SELECT k, COUNT(*), SUM(f), MIN(tag) FROM T \
             WHERE id >= 3 AND (k IS NULL OR x < {t}) GROUP BY k"
        ));
    }
}

/// Deterministic 3VL edge cases, pinned against hand-computed facts so
/// the oracle itself is checked, not just path agreement.
#[test]
fn null_semantics_are_threevalued() {
    let db = nullable_db();
    let run = |sql: &str| {
        assert_paths_agree(db, sql);
        let stmt = parse_select(sql).expect("parses");
        execute_with_mode(db, &stmt, ExecMode::Vectorized)
            .expect("vectorizes")
            .0
    };
    let count = |sql: &str| run(sql).rows[0][0].as_i64().expect("int scalar");

    // 240 rows, x is NULL on the 48 multiples of 5.
    assert_eq!(count("SELECT COUNT(*) FROM T"), 240);
    assert_eq!(count("SELECT COUNT(x) FROM T"), 192);
    assert_eq!(count("SELECT COUNT(*) FROM T WHERE x IS NULL"), 48);

    // UNKNOWN never passes a WHERE: the tautology and its complement
    // both lose exactly the NULL rows.
    assert_eq!(count("SELECT COUNT(*) FROM T WHERE x > 0 OR x <= 0"), 192);
    assert_eq!(
        count("SELECT COUNT(*) FROM T WHERE NOT (x > 0) AND NOT (x <= 0)"),
        0
    );

    // IN over a NULL needle is UNKNOWN, so NULL k never matches; NOT IN
    // likewise excludes the NULLs.
    let in_rows = run("SELECT id FROM T WHERE k IN (-4, 4)").rows.len();
    let not_in_rows = run("SELECT id FROM T WHERE k NOT IN (-4, 4)").rows.len();
    let null_k = count("SELECT COUNT(*) FROM T WHERE k IS NULL");
    assert_eq!(in_rows + not_in_rows + null_k as usize, 240);
}

/// The NULL group is a real group with NULL aggregates over an all-NULL
/// argument column.
#[test]
fn null_group_aggregates() {
    let db = nullable_db();
    let sql = "SELECT k, COUNT(*), SUM(x), MIN(x) FROM T GROUP BY k";
    assert_paths_agree(db, sql);
    let stmt = parse_select(sql).expect("parses");
    let (r, _) = execute_with_mode(db, &stmt, ExecMode::Vectorized).expect("vectorizes");
    // k spans -4..=4 plus the NULL group.
    assert_eq!(r.rows.len(), 10);
    assert!(r.rows.iter().any(|row| row[0] == Value::Null));
    // SUM of zero non-NULL inputs is NULL, never 0.
    let all_null_sum = "SELECT SUM(x) FROM T WHERE x IS NULL";
    assert_paths_agree(db, all_null_sum);
    let stmt = parse_select(all_null_sum).expect("parses");
    let (r, _) = execute_with_mode(db, &stmt, ExecMode::Vectorized).expect("vectorizes");
    assert_eq!(r.rows[0][0], Value::Null);
}

/// The shapes the fused aggregation takes apart, pinned to facts: a
/// bare projection of an ungrouped aggregate comes from the first
/// selected row, an empty selection gives one row ungrouped and none
/// grouped, a NULL first-seen key leads the group order, and MIN keeps
/// the first of two equal signed zeros.
#[test]
fn fused_aggregate_shapes() {
    let db = nullable_db();
    let run = |sql: &str| {
        assert_paths_agree(db, sql);
        let stmt = parse_select(sql).expect("parses");
        execute_with_mode(db, &stmt, ExecMode::Vectorized)
            .expect("vectorizes")
            .0
            .rows
    };
    // Only rows 1 and 2 pass; k is -3 on row 1 and -2 on row 2.
    assert_eq!(
        run("SELECT k, COUNT(*), SUM(id) FROM T WHERE id > 0 AND id < 3"),
        vec![vec![Value::Int(-3), Value::Int(2), Value::Int(3)]]
    );
    assert_eq!(
        run("SELECT k, COUNT(*), SUM(x), MIN(tag) FROM T WHERE x > 1000"),
        vec![vec![Value::Null, Value::Int(0), Value::Null, Value::Null]]
    );
    assert!(run("SELECT k, COUNT(*) FROM T WHERE x > 1000 GROUP BY k").is_empty());
    let groups = run("SELECT k, COUNT(*) FROM T WHERE id >= 3 GROUP BY k");
    assert_eq!(groups[0][0], Value::Null);
    assert_eq!(groups.len(), 10);
    // f is -0.0 on row 3 and 0.0 on row 4: neither is less than the other.
    let min = run("SELECT MIN(f), MAX(f) FROM T WHERE id >= 3 AND id <= 4");
    assert_eq!(min[0][0].total_cmp(&Value::Float(-0.0)), Ordering::Equal);
    assert_eq!(min[0][1].total_cmp(&Value::Float(-0.0)), Ordering::Equal);
}

/// Statements the compiler refuses (joins, multi-table FROM) still run —
/// interpreted — under Auto, and error under pinned Vectorized mode.
#[test]
fn uncompilable_statements_fall_back() {
    let db = catalog();
    let sql = "SELECT COUNT(*) FROM Object o1, Object o2 \
               WHERE o1.objectId = o2.objectId AND o1.objectId < 20";
    let stmt = parse_select(sql).expect("parses");
    let (_, path) = execute_with_mode(db, &stmt, ExecMode::Auto).expect("auto runs");
    assert_eq!(path, ExecPath::Interpreted);
    assert!(execute_with_mode(db, &stmt, ExecMode::Vectorized).is_err());
}
