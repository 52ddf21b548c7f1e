//! Vectorized near-neighbor join: the compiled distance kernel for
//! two-table statements whose cross predicates are one angular-distance
//! cut plus integer column comparisons — the shape every worker-side
//! near-neighbor and XMatch statement has after the frontend's rewrite
//! (`qserv_angSep(a.lon, a.lat, b.lon, b.lat) < r AND a.id != b.id`).
//!
//! The interpreter evaluates that predicate with a nested loop: per pair
//! it builds `Bindings`, walks the expression tree, constructs two
//! `LonLat`s and converts both to unit vectors. This module instead
//! precomputes one unit vector per candidate row, sorts the build side by
//! declination, and for each probe row scans only the rows within
//! `±(r + ε)` of its declination — sound because great-circle separation
//! is bounded below by the declination difference — evaluating the
//! distance over dense `f64` columns.
//!
//! Like `crate::compile`, planning is conservative: any cross predicate
//! outside the recognized shapes refuses to plan and the executor falls
//! back to the interpreter, which stays the semantic oracle. The distance
//! itself goes through `qserv_sphgeom::chord2`/`chord2_to_angle`, the
//! exact arithmetic of `angular_separation_deg`, so accept/reject
//! decisions are bit-identical to the interpreter's
//! (`tests/join_oracle.rs` and `tests/vectorized.rs` enforce this).

use crate::eval::Bindings;
use crate::exec::{column_of, ExecError, RowSink};
use crate::schema::ColumnType;
use crate::table::{ColumnSlice, Table};
use qserv_sphgeom::{chord2_to_angle, LonLat, UnitVector3};
use qserv_sqlparse::ast::{BinaryOp, Expr, Literal};
use std::sync::Arc;

/// Safety margin added to the declination window, in degrees. The window
/// bound `|Δdecl| ≤ separation` holds exactly in real arithmetic; the
/// computed separation differs from the true one by a few ULP, so a
/// nano-degree of slack (~3 µas, far below catalog astrometry) makes the
/// pruning conservative without admitting meaningfully more candidates.
const DECL_MARGIN_DEG: f64 = 1e-9;

/// One integer cross-column comparison, oriented as
/// `binding0.col ⟨op⟩ binding1.col`.
struct IntCmp {
    c0: usize,
    c1: usize,
    op: BinaryOp,
}

/// A planned vectorized distance join over two bindings.
pub(crate) struct DistJoinPlan {
    /// Per binding: (lon column, lat column) of the distance predicate.
    lon: [usize; 2],
    lat: [usize; 2],
    /// Distance cut in degrees.
    radius: f64,
    /// `true` for `<`, `false` for `<=`.
    strict: bool,
    /// Remaining cross conjuncts, all integer column comparisons.
    residuals: Vec<IntCmp>,
}

/// Recognizes the vectorizable two-table join shape: exactly one
/// `qserv_angSep(lon_a, lat_a, lon_b, lat_b) < r` (or `<=`, either
/// argument orientation, literal on either side) cross conjunct, every
/// other cross conjunct an integer column comparison across the two
/// bindings. `None` falls back to the interpreter.
pub(crate) fn plan_dist_join(
    bindings: &[(String, Arc<Table>)],
    cross: &[&Expr],
) -> Option<DistJoinPlan> {
    let names = [bindings[0].0.as_str(), bindings[1].0.as_str()];
    let mut dist: Option<([usize; 2], [usize; 2], f64, bool)> = None;
    let mut residuals = Vec::new();

    for c in cross {
        if let Some((lon, lat, radius, strict)) = recognize_angsep(c, &names, bindings) {
            if dist.is_some() {
                return None; // two distance cuts: out of scope
            }
            dist = Some((lon, lat, radius, strict));
            continue;
        }
        residuals.push(recognize_int_cmp(c, &names, bindings)?);
    }

    let (lon, lat, radius, strict) = dist?;
    Some(DistJoinPlan {
        lon,
        lat,
        radius,
        strict,
        residuals,
    })
}

/// `qserv_angSep(c, c, c, c) ⟨ < | <= ⟩ numeric-literal`, either
/// orientation. The first argument pair must be the coordinates of one
/// binding, the second pair the other's; all four numeric columns.
fn recognize_angsep(
    e: &Expr,
    names: &[&str; 2],
    bindings: &[(String, Arc<Table>)],
) -> Option<([usize; 2], [usize; 2], f64, bool)> {
    let Expr::Binary { op, lhs, rhs } = e else {
        return None;
    };
    // Normalize to `angsep(...) op literal`.
    let (func, lit, op) = if let Some(r) = num_lit_f64(rhs) {
        (&**lhs, r, *op)
    } else if let Some(l) = num_lit_f64(lhs) {
        let flipped = match op {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            _ => return None,
        };
        (&**rhs, l, flipped)
    } else {
        return None;
    };
    // Only upper cuts: a lower distance bound admits nearly every pair,
    // which the declination window cannot prune.
    let strict = match op {
        BinaryOp::Lt => true,
        BinaryOp::LtEq => false,
        _ => return None,
    };
    let Expr::Function { name, args } = func else {
        return None;
    };
    if !matches!(
        name.to_ascii_lowercase().as_str(),
        "qserv_angsep" | "scisql_angsep"
    ) || args.len() != 4
    {
        return None;
    }
    let mut cols = [(0usize, 0usize); 4];
    for (slot, a) in cols.iter_mut().zip(args) {
        let (bi, ci) = column_of(a, names, bindings)?;
        if bindings[bi].1.schema().columns()[ci].ty == ColumnType::Str {
            return None; // non-NULL strings error in the interpreter
        }
        *slot = (bi, ci);
    }
    // (args[0], args[1]) one binding, (args[2], args[3]) the other.
    let (b_first, b_second) = (cols[0].0, cols[2].0);
    if cols[1].0 != b_first || cols[3].0 != b_second || b_first == b_second {
        return None;
    }
    let mut lon = [0usize; 2];
    let mut lat = [0usize; 2];
    lon[b_first] = cols[0].1;
    lat[b_first] = cols[1].1;
    lon[b_second] = cols[2].1;
    lat[b_second] = cols[3].1;
    Some((lon, lat, lit, strict))
}

fn num_lit_f64(e: &Expr) -> Option<f64> {
    match e {
        Expr::Literal(Literal::Int(v)) => Some(*v as f64),
        Expr::Literal(Literal::Float(v)) => Some(*v),
        _ => None,
    }
}

/// `col ⟨cmp⟩ col` across the two bindings, both integer columns,
/// oriented as `binding0.col op binding1.col`.
fn recognize_int_cmp(
    e: &Expr,
    names: &[&str; 2],
    bindings: &[(String, Arc<Table>)],
) -> Option<IntCmp> {
    let Expr::Binary { op, lhs, rhs } = e else {
        return None;
    };
    if !matches!(
        op,
        BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq
    ) {
        return None;
    }
    let l = column_of(lhs, names, bindings)?;
    let r = column_of(rhs, names, bindings)?;
    if l.0 == r.0 {
        return None;
    }
    for &(bi, ci) in [&l, &r] {
        if bindings[bi].1.schema().columns()[ci].ty != ColumnType::Int {
            return None;
        }
    }
    let (c0, c1, op) = if l.0 == 0 {
        (l.1, r.1, *op)
    } else {
        let flipped = match op {
            BinaryOp::Eq => BinaryOp::Eq,
            BinaryOp::NotEq => BinaryOp::NotEq,
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            _ => unreachable!("filtered above"),
        };
        (r.1, l.1, flipped)
    };
    Some(IntCmp { c0, c1, op })
}

/// Numeric column reader over dense storage.
enum NumCol<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl NumCol<'_> {
    fn new(table: &Table, col: usize) -> NumCol<'_> {
        match table.column_slice(col) {
            ColumnSlice::Int(v) => NumCol::I(v),
            ColumnSlice::Float(v) => NumCol::F(v),
            ColumnSlice::Str(_) => unreachable!("plan guarantees a numeric column"),
        }
    }

    fn get(&self, i: usize) -> f64 {
        match self {
            NumCol::I(v) => v[i] as f64,
            NumCol::F(v) => v[i],
        }
    }
}

/// The build side, declination-sorted: one precomputed unit vector per
/// usable candidate row.
struct BuildSide {
    decl: Vec<f64>,
    rows: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
}

/// Executes a planned distance join over the candidate rows, feeding
/// matched pairs to `sink` in the interpreter's nested-loop order
/// (probe rows ascending, build rows ascending within each probe row).
pub(crate) fn run_dist_join(
    plan: &DistJoinPlan,
    bindings: &[(String, Arc<Table>)],
    candidates: &[Vec<u32>],
    sink: &mut RowSink,
    quick_limit: Option<usize>,
) -> Result<(), ExecError> {
    let (n0, t0) = (&bindings[0].0, &bindings[0].1);
    let (n1, t1) = (&bindings[1].0, &bindings[1].1);

    // Build side (binding 1): rows with a NULL or non-finite coordinate
    // can never satisfy the distance cut (NULL propagates to a NULL
    // predicate, NaN fails every comparison), so they drop here exactly
    // as the interpreter drops them per pair.
    let lon1 = NumCol::new(t1, plan.lon[1]);
    let lat1 = NumCol::new(t1, plan.lat[1]);
    let lon1_nulls = t1.null_mask(plan.lon[1]);
    let lat1_nulls = t1.null_mask(plan.lat[1]);
    let mut entries: Vec<(f64, u32, UnitVector3)> = Vec::with_capacity(candidates[1].len());
    for &r in &candidates[1] {
        let i = r as usize;
        if lon1_nulls[i] || lat1_nulls[i] {
            continue;
        }
        let (lo, la) = (lon1.get(i), lat1.get(i));
        if !lo.is_finite() || !la.is_finite() {
            continue;
        }
        let v = LonLat::from_degrees(lo, la).to_vector();
        // LonLat clamps declination; window on the clamped value.
        entries.push((la.clamp(-90.0, 90.0), r, v));
    }
    entries.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut build = BuildSide {
        decl: Vec::with_capacity(entries.len()),
        rows: Vec::with_capacity(entries.len()),
        xs: Vec::with_capacity(entries.len()),
        ys: Vec::with_capacity(entries.len()),
        zs: Vec::with_capacity(entries.len()),
    };
    for (d, r, v) in entries {
        build.decl.push(d);
        build.rows.push(r);
        build.xs.push(v.x());
        build.ys.push(v.y());
        build.zs.push(v.z());
    }

    // Residual column slices (all Int by plan construction): null masks
    // and data for both sides, plus the comparison operator.
    type ResidualSlices<'a> = (&'a [bool], &'a [i64], &'a [bool], &'a [i64], BinaryOp);
    let residuals: Vec<ResidualSlices> = plan
        .residuals
        .iter()
        .map(|rc| {
            let ColumnSlice::Int(d0) = t0.column_slice(rc.c0) else {
                unreachable!("plan guarantees integer residual columns");
            };
            let ColumnSlice::Int(d1) = t1.column_slice(rc.c1) else {
                unreachable!("plan guarantees integer residual columns");
            };
            (t0.null_mask(rc.c0), d0, t1.null_mask(rc.c1), d1, rc.op)
        })
        .collect();

    let lon0 = NumCol::new(t0, plan.lon[0]);
    let lat0 = NumCol::new(t0, plan.lat[0]);
    let lon0_nulls = t0.null_mask(plan.lon[0]);
    let lat0_nulls = t0.null_mask(plan.lat[0]);
    let window = plan.radius + DECL_MARGIN_DEG;

    let mut b = Bindings::new(vec![(n0, t0, 0), (n1, t1, 0)]);
    let mut matched: Vec<u32> = Vec::new();
    for &r0 in &candidates[0] {
        let i0 = r0 as usize;
        if lon0_nulls[i0] || lat0_nulls[i0] {
            continue;
        }
        let (lo, la) = (lon0.get(i0), lat0.get(i0));
        if !lo.is_finite() || !la.is_finite() {
            continue;
        }
        let v0 = LonLat::from_degrees(lo, la).to_vector();
        let d0 = la.clamp(-90.0, 90.0);
        let from = build.decl.partition_point(|d| *d < d0 - window);
        let to = build.decl.partition_point(|d| *d <= d0 + window);

        matched.clear();
        'pair: for i in from..to {
            let dx = v0.x() - build.xs[i];
            let dy = v0.y() - build.ys[i];
            let dz = v0.z() - build.zs[i];
            let sep = chord2_to_angle(dx * dx + dy * dy + dz * dz).degrees();
            let pass = if plan.strict {
                sep < plan.radius
            } else {
                sep <= plan.radius
            };
            if !pass {
                continue;
            }
            let i1 = build.rows[i] as usize;
            for (n0m, d0c, n1m, d1c, op) in &residuals {
                if n0m[i0] || n1m[i1] {
                    continue 'pair; // NULL comparison is UNKNOWN: drop
                }
                let ord = d0c[i0].cmp(&d1c[i1]);
                let pass = match op {
                    BinaryOp::Eq => ord.is_eq(),
                    BinaryOp::NotEq => ord.is_ne(),
                    BinaryOp::Lt => ord.is_lt(),
                    BinaryOp::LtEq => ord.is_le(),
                    BinaryOp::Gt => ord.is_gt(),
                    BinaryOp::GtEq => ord.is_ge(),
                    _ => unreachable!("plan filters operators"),
                };
                if !pass {
                    continue 'pair;
                }
            }
            matched.push(build.rows[i]);
        }
        // The interpreter visits build rows in candidate (ascending row)
        // order; restore it so row output order is identical.
        matched.sort_unstable();
        b.set_row(0, i0);
        for &r1 in &matched {
            b.set_row(1, r1 as usize);
            sink.consume(&b)?;
            if sink.emitted_at_least(quick_limit) {
                return Ok(());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::exec::{execute_with_mode, ExecMode, ExecPath};
    use crate::schema::{ColumnDef, Schema};
    use crate::value::Value;
    use qserv_sqlparse::parse_select;

    fn sky_table(rows: &[(i64, f64, f64)]) -> Table {
        let mut t = Table::new(Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("ra", ColumnType::Float),
            ColumnDef::new("decl", ColumnType::Float),
        ]));
        for &(id, ra, decl) in rows {
            t.push_row(vec![
                Value::Int(id),
                if ra.is_nan() {
                    Value::Null
                } else {
                    Value::Float(ra)
                },
                Value::Float(decl),
            ])
            .expect("schema matches");
        }
        t
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "P",
            sky_table(&[
                (1, 10.0, 0.0),
                (2, 10.02, 0.01),
                (3, 200.0, 45.0),
                (4, f64::NAN, 0.0), // NULL ra
            ]),
        );
        db.create_table(
            "Q",
            sky_table(&[(11, 10.01, 0.0), (12, 200.01, 45.0), (13, 350.0, -30.0)]),
        );
        db
    }

    fn both_paths(sql: &str) -> (crate::exec::ResultTable, crate::exec::ResultTable) {
        let stmt = parse_select(sql).expect("parses");
        let d = db();
        let (vec_r, path) = execute_with_mode(&d, &stmt, ExecMode::Vectorized).expect("vectorized");
        assert_eq!(path, ExecPath::Vectorized);
        let (int_r, path) = execute_with_mode(&d, &stmt, ExecMode::Interpreted).expect("interp");
        assert_eq!(path, ExecPath::Interpreted);
        (vec_r, int_r)
    }

    #[test]
    fn distance_join_matches_interpreter_exactly() {
        let (v, i) = both_paths(
            "SELECT a.id, b.id, qserv_angSep(a.ra, a.decl, b.ra, b.decl) FROM P a, Q b \
             WHERE qserv_angSep(a.ra, a.decl, b.ra, b.decl) < 0.05",
        );
        assert_eq!(v, i);
        assert_eq!(v.num_rows(), 3); // (1,11), (2,11), (3,12)
    }

    #[test]
    fn self_join_with_residual_matches_interpreter() {
        let (v, i) = both_paths(
            "SELECT count(*) FROM P o1, P o2 \
             WHERE qserv_angSep(o1.ra, o1.decl, o2.ra, o2.decl) < 0.05 AND o1.id != o2.id",
        );
        assert_eq!(v, i);
        assert_eq!(v.scalar(), Some(&Value::Int(2))); // (1,2) both orders
    }

    #[test]
    fn argument_orientation_is_symmetric() {
        // Second argument pair names binding a: still plans and agrees.
        let (v, i) = both_paths(
            "SELECT a.id, b.id FROM P a, Q b \
             WHERE qserv_angSep(b.ra, b.decl, a.ra, a.decl) <= 0.05 \
             ORDER BY a.id, b.id",
        );
        assert_eq!(v, i);
    }

    #[test]
    fn literal_on_left_flips() {
        let (v, i) = both_paths(
            "SELECT count(*) FROM P a, Q b \
             WHERE 0.05 > qserv_angSep(a.ra, a.decl, b.ra, b.decl)",
        );
        assert_eq!(v, i);
    }

    #[test]
    fn unsupported_shapes_refuse_to_plan() {
        let d = db();
        for sql in [
            // Lower distance bound: no declination pruning possible.
            "SELECT count(*) FROM P a, Q b WHERE qserv_angSep(a.ra, a.decl, b.ra, b.decl) > 0.05",
            // No distance cut at all.
            "SELECT count(*) FROM P a, Q b WHERE a.id != b.id",
            // Non-integer residual comparison.
            "SELECT count(*) FROM P a, Q b \
             WHERE qserv_angSep(a.ra, a.decl, b.ra, b.decl) < 0.05 AND a.ra < b.ra",
        ] {
            let stmt = parse_select(sql).expect("parses");
            let e = execute_with_mode(&d, &stmt, ExecMode::Vectorized);
            assert!(
                matches!(e, Err(ExecError::Unsupported(_))),
                "{sql} should refuse the vectorized path"
            );
        }
    }
}
