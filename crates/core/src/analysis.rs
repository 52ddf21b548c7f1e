//! Query analysis (paper §5.3).
//!
//! Parsing serves several functions in Qserv, quoted from the paper:
//! *detect spatial restrictions* (so spatial queries don't become full-sky
//! queries), *detect index opportunities* (the objectId secondary index),
//! *detect database and table references* (for rewriting and access
//! restriction), *detect aliases and joins*, and *prepare for results
//! merging and aggregation*. [`analyze`] performs all of those over a
//! parsed statement and produces an [`Analysis`] the rewriter consumes.

use crate::error::QservError;
use crate::meta::CatalogMeta;
use qserv_engine::eval::is_aggregate;
use qserv_sphgeom::region::Region;
use qserv_sphgeom::{Angle, LonLat, SphericalBox, SphericalCircle};
use qserv_sqlparse::ast::{BinaryOp, Expr, Literal, SelectStatement};

/// A frontend spatial restriction: the region named by a
/// `qserv_areaspec_*` pseudo-function. Real Qserv grew several of these;
/// the paper's evaluation uses the box, and the circle is the natural
/// companion for radius searches.
#[derive(Clone, Copy, Debug)]
pub enum SpatialSpec {
    /// `qserv_areaspec_box(lonMin, latMin, lonMax, latMax)`.
    Box(SphericalBox),
    /// `qserv_areaspec_circle(lon, lat, radiusDeg)`.
    Circle {
        /// Center right ascension, degrees.
        ra: f64,
        /// Center declination, degrees.
        decl: f64,
        /// Angular radius, degrees.
        radius: f64,
    },
}

impl SpatialSpec {
    /// A conservative bounding box, used for chunk selection.
    pub fn bounding_box(&self) -> SphericalBox {
        match self {
            SpatialSpec::Box(b) => *b,
            SpatialSpec::Circle { ra, decl, radius } => SphericalCircle::new(
                LonLat::from_degrees(*ra, *decl),
                Angle::from_degrees(*radius),
            )
            .bounding_box(),
        }
    }
}

/// How a multi-table query executes across partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinClass {
    /// Single partitioned table (or none): plain chunk dispatch.
    None,
    /// Two partitioned tables joined by an equality key (SHV2's
    /// `o.objectId = s.objectId`): chunk-granularity join, second binding
    /// reads chunk ∪ overlap.
    ChunkEqui,
    /// Spatial near-neighbour join (SHV1's `qserv_angSep(...) < r`):
    /// executed over on-the-fly subchunk tables with overlap (§4.4, §5.2).
    SubchunkNear,
}

/// The analyzer's findings for one statement.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The statement, with the `qserv_areaspec_box` pseudo-function
    /// removed from the WHERE clause (it is a directive to the frontend,
    /// not a row predicate — the rewriter re-materializes it as a worker
    /// UDF call).
    pub stmt: SelectStatement,
    /// The spatial restriction, when one was given.
    pub spatial: Option<SpatialSpec>,
    /// objectId values from an index-usable predicate
    /// (`objectId = k` / `objectId IN (...)`).
    pub index_ids: Option<Vec<i64>>,
    /// Indices into `stmt.from` of partitioned tables.
    pub partitioned: Vec<usize>,
    /// Join classification.
    pub join: JoinClass,
    /// True when any projection aggregates (or GROUP BY is present), so
    /// results need two-phase aggregation (§5.3's example).
    pub aggregated: bool,
}

/// Analyzes a statement against the catalog metadata.
pub fn analyze(stmt: &SelectStatement, meta: &CatalogMeta) -> Result<Analysis, QservError> {
    let mut stmt = stmt.clone();

    // --- Table references, aliases and distribution ---------------------
    let mut partitioned = Vec::new();
    for (i, tref) in stmt.from.iter().enumerate() {
        if let Some(db) = &tref.database {
            if db != meta.database() {
                return Err(QservError::Analysis(format!(
                    "unknown database {db} (only {} is served)",
                    meta.database()
                )));
            }
        }
        match meta.table(&tref.table) {
            Some(_) if meta.is_partitioned(&tref.table) => partitioned.push(i),
            Some(_) => {} // replicated: present on every worker as-is
            None => {
                return Err(QservError::Analysis(format!(
                    "unknown table {}",
                    tref.table
                )))
            }
        }
    }
    if partitioned.len() > 2 {
        return Err(QservError::Analysis(
            "queries may join at most two partitioned tables".to_string(),
        ));
    }

    // --- Spatial restriction ---------------------------------------------
    // qserv_areaspec_box must appear as a top-level AND conjunct: under an
    // OR it would not be a restriction at all.
    let mut spatial: Option<SpatialSpec> = None;
    if let Some(w) = stmt.where_clause.take() {
        let (residual, boxes) = extract_areaspec(w)?;
        match boxes.len() {
            0 => {}
            1 => spatial = Some(boxes[0]),
            _ => {
                return Err(QservError::Analysis(
                    "multiple qserv_areaspec_* restrictions are not supported".to_string(),
                ))
            }
        }
        stmt.where_clause = residual;
    }
    // areaspec anywhere else (e.g. under OR / in projections) is an error.
    let mut misplaced = false;
    let mut check = |e: &Expr| {
        e.visit(&mut |n| {
            if let Expr::Function { name, .. } = n {
                if is_areaspec(name) {
                    misplaced = true;
                }
            }
        });
    };
    for p in &stmt.projections {
        check(&p.expr);
    }
    if let Some(w) = &stmt.where_clause {
        check(w);
    }
    if misplaced {
        return Err(QservError::Analysis(
            "qserv_areaspec_* must be a top-level AND term of the WHERE clause".to_string(),
        ));
    }

    // --- Index opportunity -------------------------------------------------
    let index_ids = find_index_ids(&stmt, meta, &partitioned);

    // --- Aggregation ---------------------------------------------------------
    let aggregated = !stmt.group_by.is_empty()
        || stmt.projections.iter().any(|p| {
            let mut agg = false;
            p.expr.visit(&mut |e| {
                if let Expr::Function { name, .. } = e {
                    if is_aggregate(name) {
                        agg = true;
                    }
                }
            });
            agg
        });

    // --- Join classification --------------------------------------------------
    let join = classify_join(&stmt, &partitioned)?;

    Ok(Analysis {
        stmt,
        spatial,
        index_ids,
        partitioned,
        join,
        aggregated,
    })
}

/// True when `name` is a frontend spatial pseudo-function.
fn is_areaspec(name: &str) -> bool {
    name.eq_ignore_ascii_case("qserv_areaspec_box")
        || name.eq_ignore_ascii_case("qserv_areaspec_circle")
}

/// Removes top-level `qserv_areaspec_*` conjuncts from a WHERE
/// expression, returning the residual predicate and the extracted specs.
fn extract_areaspec(where_clause: Expr) -> Result<(Option<Expr>, Vec<SpatialSpec>), QservError> {
    fn numeric_args(name: &str, args: &[Expr], n: usize) -> Result<Vec<f64>, QservError> {
        if args.len() != n {
            return Err(QservError::Analysis(format!(
                "{name} takes {n} arguments, got {}",
                args.len()
            )));
        }
        args.iter()
            .map(|a| match a {
                Expr::Literal(Literal::Int(v)) => Ok(*v as f64),
                Expr::Literal(Literal::Float(v)) => Ok(*v),
                other => Err(QservError::Analysis(format!(
                    "{name} arguments must be numeric literals, got {}",
                    other.to_sql()
                ))),
            })
            .collect()
    }
    fn walk(e: Expr, specs: &mut Vec<SpatialSpec>) -> Result<Option<Expr>, QservError> {
        match e {
            Expr::Binary {
                op: BinaryOp::And,
                lhs,
                rhs,
            } => {
                let l = walk(*lhs, specs)?;
                let r = walk(*rhs, specs)?;
                Ok(match (l, r) {
                    (Some(l), Some(r)) => Some(Expr::and(l, r)),
                    (Some(x), None) | (None, Some(x)) => Some(x),
                    (None, None) => None,
                })
            }
            Expr::Function { ref name, ref args }
                if name.eq_ignore_ascii_case("qserv_areaspec_box") =>
            {
                let v = numeric_args("qserv_areaspec_box", args, 4)?;
                specs.push(SpatialSpec::Box(SphericalBox::from_degrees(
                    v[0], v[1], v[2], v[3],
                )));
                Ok(None)
            }
            Expr::Function { ref name, ref args }
                if name.eq_ignore_ascii_case("qserv_areaspec_circle") =>
            {
                let v = numeric_args("qserv_areaspec_circle", args, 3)?;
                if !(0.0..=180.0).contains(&v[2]) {
                    return Err(QservError::Analysis(format!(
                        "qserv_areaspec_circle radius must be in [0°, 180°], got {}",
                        v[2]
                    )));
                }
                specs.push(SpatialSpec::Circle {
                    ra: v[0],
                    decl: v[1],
                    radius: v[2],
                });
                Ok(None)
            }
            other => Ok(Some(other)),
        }
    }
    let mut specs = Vec::new();
    let residual = walk(where_clause, &mut specs)?;
    Ok((residual, specs))
}

/// Finds `idxcol = k` / `idxcol IN (k...)` predicates over a secondary
/// indexed column of a partitioned FROM table.
fn find_index_ids(
    stmt: &SelectStatement,
    meta: &CatalogMeta,
    partitioned: &[usize],
) -> Option<Vec<i64>> {
    let w = stmt.where_clause.as_ref()?;
    // Collect the indexed column names visible in this query.
    let indexed: Vec<&str> = partitioned
        .iter()
        .filter_map(|&i| meta.table(&stmt.from[i].table))
        .filter_map(|tm| tm.index_col.as_deref())
        .collect();
    if indexed.is_empty() {
        return None;
    }
    let is_indexed_col = |e: &Expr| -> bool {
        matches!(e, Expr::Column { name, .. } if indexed.contains(&name.as_str()))
    };
    let int_lit = |e: &Expr| -> Option<i64> {
        match e {
            Expr::Literal(Literal::Int(v)) => Some(*v),
            _ => None,
        }
    };
    // Only top-level AND conjuncts are usable restrictions.
    for c in w.conjuncts() {
        match c {
            Expr::Binary {
                op: BinaryOp::Eq,
                lhs,
                rhs,
            } => {
                if is_indexed_col(lhs) {
                    if let Some(v) = int_lit(rhs) {
                        return Some(vec![v]);
                    }
                }
                if is_indexed_col(rhs) {
                    if let Some(v) = int_lit(lhs) {
                        return Some(vec![v]);
                    }
                }
            }
            Expr::InList {
                expr,
                negated: false,
                list,
            } if is_indexed_col(expr) => {
                let vals: Option<Vec<i64>> = list.iter().map(int_lit).collect();
                if let Some(vals) = vals {
                    return Some(vals);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts the numeric interval restrictions usable for chunk-level
/// zone-map pruning: each returned `(column, lo, hi)` means every
/// qualifying row satisfies `column ∈ [lo, hi]` (infinities for open
/// sides). Only top-level AND conjuncts of shape `col ⋈ literal`
/// (either orientation), non-negated `col BETWEEN lit AND lit` and
/// non-negated `col IN (literals)` qualify — anything under OR/NOT is
/// not a restriction. Bounds are widened to non-strict intervals, which
/// is conservative for pruning (the prune test itself only trusts
/// strict inequality; see [`crate::meta::ColumnZone::excluded_by`]).
pub fn zone_restrictions(stmt: &SelectStatement) -> Vec<(String, f64, f64)> {
    fn num(e: &Expr) -> Option<f64> {
        match e {
            Expr::Literal(Literal::Int(v)) => Some(*v as f64),
            Expr::Literal(Literal::Float(v)) => Some(*v),
            _ => None,
        }
    }
    fn col_name(e: &Expr) -> Option<&str> {
        match e {
            Expr::Column { name, .. } => Some(name.as_str()),
            _ => None,
        }
    }
    let Some(w) = &stmt.where_clause else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for c in w.conjuncts() {
        match c {
            Expr::Binary { op, lhs, rhs } => {
                let (col, lit, op) = if let (Some(c), Some(l)) = (col_name(lhs), num(rhs)) {
                    (c, l, *op)
                } else if let (Some(c), Some(l)) = (col_name(rhs), num(lhs)) {
                    let flipped = match op {
                        BinaryOp::Eq => BinaryOp::Eq,
                        BinaryOp::Lt => BinaryOp::Gt,
                        BinaryOp::LtEq => BinaryOp::GtEq,
                        BinaryOp::Gt => BinaryOp::Lt,
                        BinaryOp::GtEq => BinaryOp::LtEq,
                        _ => continue,
                    };
                    (c, l, flipped)
                } else {
                    continue;
                };
                let (lo, hi) = match op {
                    BinaryOp::Eq => (lit, lit),
                    BinaryOp::Lt | BinaryOp::LtEq => (f64::NEG_INFINITY, lit),
                    BinaryOp::Gt | BinaryOp::GtEq => (lit, f64::INFINITY),
                    _ => continue,
                };
                if lit.is_nan() {
                    continue;
                }
                out.push((col.to_string(), lo, hi));
            }
            Expr::Between {
                expr,
                negated: false,
                low,
                high,
            } => {
                if let (Some(c), Some(lo), Some(hi)) = (col_name(expr), num(low), num(high)) {
                    if !lo.is_nan() && !hi.is_nan() {
                        out.push((c.to_string(), lo, hi));
                    }
                }
            }
            Expr::InList {
                expr,
                negated: false,
                list,
            } => {
                if let Some(c) = col_name(expr) {
                    let vals: Option<Vec<f64>> = list.iter().map(num).collect();
                    if let Some(vals) = vals {
                        if !vals.is_empty() && vals.iter().all(|v| !v.is_nan()) {
                            let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                            out.push((c.to_string(), lo, hi));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Classifies a join between partitioned tables.
fn classify_join(stmt: &SelectStatement, partitioned: &[usize]) -> Result<JoinClass, QservError> {
    if partitioned.len() < 2 {
        return Ok(JoinClass::None);
    }
    let names: Vec<&str> = partitioned
        .iter()
        .map(|&i| stmt.from[i].binding_name())
        .collect();
    let w = match &stmt.where_clause {
        Some(w) => w,
        None => {
            return Err(QservError::Analysis(
                "a join of two partitioned tables needs a join predicate".to_string(),
            ))
        }
    };
    let cs = w.conjuncts();

    // Which bindings does an expression reference (by qualifier)?
    let refs = |e: &Expr| -> (bool, bool) {
        let mut a = false;
        let mut b = false;
        e.visit(&mut |n| {
            if let Expr::Column {
                qualifier: Some(q), ..
            } = n
            {
                if q == names[0] {
                    a = true;
                }
                if q == names[1] {
                    b = true;
                }
            }
        });
        (a, b)
    };

    // Equality join key spanning both bindings?
    for c in &cs {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } = c
        {
            let (la, lb) = refs(lhs);
            let (ra, rb) = refs(rhs);
            if (la && rb && !lb && !ra) || (lb && ra && !la && !rb) {
                return Ok(JoinClass::ChunkEqui);
            }
        }
    }
    // Any cross-binding predicate (the near-neighbour distance cut)?
    for c in &cs {
        let (a, b) = refs(c);
        if a && b {
            return Ok(JoinClass::SubchunkNear);
        }
    }
    Err(QservError::Analysis(
        "join of two partitioned tables requires an equality key or a spatial predicate \
         referencing both tables (unconstrained cross products are not distributable)"
            .to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserv_sqlparse::parse_select;

    fn analyze_sql(sql: &str) -> Result<Analysis, QservError> {
        analyze(&parse_select(sql).unwrap(), &CatalogMeta::lsst())
    }

    #[test]
    fn lv1_uses_secondary_index() {
        let a = analyze_sql("SELECT * FROM Object WHERE objectId = 42").unwrap();
        assert_eq!(a.index_ids, Some(vec![42]));
        assert!(a.spatial.is_none());
        assert_eq!(a.join, JoinClass::None);
        assert!(!a.aggregated);
        assert_eq!(a.partitioned, vec![0]);
    }

    #[test]
    fn in_list_index_opportunity() {
        let a = analyze_sql("SELECT * FROM Source WHERE objectId IN (1, 2, 3)").unwrap();
        assert_eq!(a.index_ids, Some(vec![1, 2, 3]));
    }

    #[test]
    fn reversed_equality_detected() {
        let a = analyze_sql("SELECT * FROM Object WHERE 42 = objectId").unwrap();
        assert_eq!(a.index_ids, Some(vec![42]));
    }

    #[test]
    fn non_literal_or_negated_predicates_do_not_use_index() {
        let a = analyze_sql("SELECT * FROM Object WHERE objectId = ra_PS").unwrap();
        assert_eq!(a.index_ids, None);
        let a = analyze_sql("SELECT * FROM Object WHERE objectId NOT IN (1)").unwrap();
        assert_eq!(a.index_ids, None);
        // Under OR the predicate is not a restriction.
        let a = analyze_sql("SELECT * FROM Object WHERE objectId = 1 OR ra_PS > 0").unwrap();
        assert_eq!(a.index_ids, None);
    }

    #[test]
    fn areaspec_extracted_and_removed() {
        let a = analyze_sql(
            "SELECT AVG(uFlux_SG) FROM Object \
             WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04",
        )
        .unwrap();
        let b = a.spatial.unwrap().bounding_box();
        assert_eq!(b.lon_min_deg(), 0.0);
        assert_eq!(b.lat_max_deg(), 10.0);
        // Residual WHERE no longer mentions the pseudo-function.
        let residual = a.stmt.where_clause.unwrap().to_sql();
        assert_eq!(residual, "uRadius_PS > 0.04");
        assert!(a.aggregated);
    }

    #[test]
    fn areaspec_alone_leaves_no_where() {
        let a = analyze_sql("SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(-5, -5, 5, -5)")
            .unwrap();
        assert!(a.spatial.is_some());
        assert!(a.stmt.where_clause.is_none());
    }

    #[test]
    fn areaspec_with_negative_bounds_like_shv1() {
        let a = analyze_sql(
            "SELECT count(*) FROM Object o1, Object o2 \
             WHERE qserv_areaspec_box(-5, -5, 5, -5) \
             AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
        )
        .unwrap();
        assert!(a.spatial.is_some());
        assert_eq!(a.join, JoinClass::SubchunkNear);
        assert_eq!(a.partitioned, vec![0, 1]);
    }

    #[test]
    fn shv2_is_chunk_equi_join() {
        let a = analyze_sql(
            "SELECT o.objectId, s.sourceId FROM Object o, Source s \
             WHERE qserv_areaspec_box(224.1, -7.5, 237.1, 5.5) \
             AND o.objectId = s.objectId \
             AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045",
        )
        .unwrap();
        assert_eq!(a.join, JoinClass::ChunkEqui);
    }

    #[test]
    fn misplaced_areaspec_rejected() {
        assert!(
            analyze_sql("SELECT * FROM Object WHERE qserv_areaspec_box(0,0,1,1) OR ra_PS > 0")
                .is_err()
        );
        assert!(analyze_sql("SELECT qserv_areaspec_box(0,0,1,1) FROM Object").is_err());
        assert!(analyze_sql("SELECT * FROM Object WHERE qserv_areaspec_box(1,2,3)").is_err());
        assert!(
            analyze_sql("SELECT * FROM Object WHERE qserv_areaspec_box(ra_PS, 0, 1, 1)").is_err()
        );
        assert!(analyze_sql(
            "SELECT * FROM Object WHERE qserv_areaspec_box(0,0,1,1) AND qserv_areaspec_box(2,2,3,3)"
        )
        .is_err());
    }

    #[test]
    fn unknown_table_and_database_rejected() {
        assert!(analyze_sql("SELECT * FROM Nonsense").is_err());
        assert!(analyze_sql("SELECT * FROM OtherDB.Object").is_err());
        assert!(analyze_sql("SELECT * FROM LSST.Object WHERE objectId = 1").is_ok());
    }

    #[test]
    fn replicated_table_allowed_not_partitioned() {
        let a = analyze_sql("SELECT * FROM Filter").unwrap();
        assert!(a.partitioned.is_empty());
        assert_eq!(a.join, JoinClass::None);
    }

    #[test]
    fn unconstrained_cross_product_rejected() {
        assert!(analyze_sql("SELECT count(*) FROM Object o1, Object o2").is_err());
        assert!(
            analyze_sql("SELECT count(*) FROM Object o1, Object o2 WHERE o1.ra_PS > 0").is_err()
        );
    }

    #[test]
    fn aggregation_detected() {
        assert!(
            analyze_sql("SELECT COUNT(*) FROM Object")
                .unwrap()
                .aggregated
        );
        assert!(
            analyze_sql("SELECT ra_PS FROM Object GROUP BY ra_PS")
                .unwrap()
                .aggregated
        );
        assert!(!analyze_sql("SELECT ra_PS FROM Object").unwrap().aggregated);
        // Aggregates nested in expressions count.
        assert!(
            analyze_sql("SELECT SUM(ra_PS) / COUNT(*) FROM Object")
                .unwrap()
                .aggregated
        );
    }

    #[test]
    fn zone_restrictions_extract_intervals() {
        let stmt = parse_select(
            "SELECT * FROM Object WHERE ra_PS BETWEEN 30 AND 60 AND decl_PS < 5 \
             AND 2.5 <= zFlux_PS AND objectId IN (10, 3, 7) AND chunkId = 4",
        )
        .unwrap();
        let r = zone_restrictions(&stmt);
        assert_eq!(
            r,
            vec![
                ("ra_PS".to_string(), 30.0, 60.0),
                ("decl_PS".to_string(), f64::NEG_INFINITY, 5.0),
                ("zFlux_PS".to_string(), 2.5, f64::INFINITY),
                ("objectId".to_string(), 3.0, 10.0),
                ("chunkId".to_string(), 4.0, 4.0),
            ]
        );
    }

    #[test]
    fn zone_restrictions_skip_or_not_and_non_literals() {
        let stmt = parse_select(
            "SELECT * FROM Object WHERE (ra_PS > 10 OR decl_PS > 0) \
             AND objectId NOT IN (1) AND ra_PS > decl_PS \
             AND fluxToAbMag(zFlux_PS) < 20",
        )
        .unwrap();
        assert!(zone_restrictions(&stmt).is_empty());
        let none = parse_select("SELECT * FROM Object").unwrap();
        assert!(zone_restrictions(&none).is_empty());
    }

    #[test]
    fn hv3_density_query_analysis() {
        let a = analyze_sql(
            "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId \
             FROM Object GROUP BY chunkId",
        )
        .unwrap();
        assert!(a.aggregated);
        assert_eq!(a.join, JoinClass::None);
        assert!(a.spatial.is_none());
        assert!(a.index_ids.is_none());
    }
}
