//! Physical query generation (paper §5.3–5.4).
//!
//! Turns an analyzed user statement into (a) a *chunk query template*
//! rendered once per chunk bundle for worker execution, and (b) the
//! *merge query* the master runs over the gathered results, with its
//! [`MergeShape`]: the identity merge streams its parts, any other runs
//! on the engine as they arrive. The paper's worked example is the
//! specification:
//!
//! > The `AVG(uFlux_SG)` function call is converted into a
//! > `SUM(uFlux_SG)` and `COUNT(uFlux_SG)` pair for chunk queries and
//! > ``SUM(`SUM(uFlux_SG)`) / SUM(`COUNT(uFlux_SG)`)`` to aggregate the
//! > resulting rows… The reference to the `Object` table is converted to
//! > `LSST.Object_CC`… The `qserv_areaspec_box(…)` pseudo-function call…
//! > is rewritten as `qserv_ptInSphericalBox(ra_PS, decl_PS, …) = 1`.
//!
//! Worker-side table naming (paper §5.2 plus the overlap stores of §4.4):
//!
//! | name                 | contents                                      |
//! |----------------------|-----------------------------------------------|
//! | `T_CC`               | rows owned by chunk CC                        |
//! | `TOverlap_CC`        | neighbours' rows within overlap of CC         |
//! | `TUnion_CC`          | `T_CC ∪ TOverlap_CC` (generated on demand)    |
//! | `T_CC_SS`            | owned rows in subchunk SS (on demand)         |
//! | `TFullOverlap_CC_SS` | all rows in SS dilated by overlap (on demand) |

use crate::analysis::{Analysis, JoinClass, SpatialSpec};
use crate::error::QservError;
use crate::meta::CatalogMeta;
use qserv_engine::eval::is_aggregate;
use qserv_engine::exec::output_index;
use qserv_sqlparse::ast::{BinaryOp, Expr, OrderItem, Projection, SelectStatement, TableRef};

/// The distributable form of one user query.
#[derive(Clone, Debug)]
pub struct PhysicalPlan {
    /// Chunk-query template. FROM still names logical tables;
    /// [`render_chunk_message`] substitutes per-chunk physical names.
    pub chunk_stmt: SelectStatement,
    /// The master's merge query over the accumulated `result` table.
    pub merge_stmt: SelectStatement,
    /// Join classification carried from analysis.
    pub join: JoinClass,
    /// Indices into `chunk_stmt.from` of partitioned tables.
    pub partitioned: Vec<usize>,
    /// Spatial restriction carried from analysis (for chunk selection).
    pub spatial: Option<SpatialSpec>,
    /// How chunk results can be folded into merge state incrementally.
    pub shape: MergeShape,
}

/// How the master's streaming pipeline (`crate::merge`) combines chunk
/// results, decided once at plan time from the merge statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeShape {
    /// The identity merge (`SELECT * FROM result [LIMIT n]`): a
    /// non-aggregated statement without ORDER BY. Its answer is its
    /// parts, which leave as they arrive. When `cutoff` is set (a
    /// pushed-down `LIMIT n`), the pipeline is satisfied after n rows and
    /// the remaining chunk queue can be cancelled — undispatched chunks
    /// are never sent.
    Append {
        /// The pushed-down row budget, if any.
        cutoff: Option<u64>,
    },
    /// Cross-catalog XMatch keep-nearest: per distinct `key` value keep
    /// the single row whose `dist` column is smallest (ties broken by a
    /// deterministic full-row comparison), emitting rows in ascending
    /// key order at finish. Installed by the frontend's XMatch operator
    /// — [`build_plan`] never produces it, because the merge SQL subset
    /// cannot express a per-group argmin.
    Nearest {
        /// Chunk-result column carrying the match key (catalog A's id).
        key: String,
        /// Chunk-result column carrying the candidate distance.
        dist: String,
    },
    /// Every other merge: the merge statement runs over the chunk
    /// results, fed to the engine in chunk order as they arrive.
    Query,
}

/// Builds the physical plan from an analysis.
pub fn build_plan(analysis: &Analysis, meta: &CatalogMeta) -> Result<PhysicalPlan, QservError> {
    let mut chunk_stmt = analysis.stmt.clone();

    if analysis.partitioned.is_empty() && !chunk_stmt.from.is_empty() {
        return Err(QservError::Analysis(
            "query references no partitioned table; nothing to distribute".to_string(),
        ));
    }
    if matches!(
        analysis.join,
        JoinClass::ChunkEqui | JoinClass::SubchunkNear
    ) && chunk_stmt
        .projections
        .iter()
        .any(|p| matches!(p.expr, Expr::Star))
    {
        return Err(QservError::Analysis(
            "SELECT * is not supported in joins (duplicate column names); project columns explicitly"
                .to_string(),
        ));
    }

    // Pin binding names: give every partitioned table an explicit alias so
    // column qualifiers keep resolving after the table is renamed to its
    // chunk form.
    for &i in &analysis.partitioned {
        let t = &mut chunk_stmt.from[i];
        if t.alias.is_none() {
            t.alias = Some(t.table.clone());
        }
    }

    // Re-materialize the spatial restriction as a worker UDF predicate
    // on the first partitioned table's partition columns (§5.3's
    // `qserv_ptInSphericalBox(ra_PS, decl_PS, ...) = 1`; circles become
    // `qserv_angSep(ra_PS, decl_PS, center...) <= r`).
    if let Some(spec) = &analysis.spatial {
        let director = &chunk_stmt.from[analysis.partitioned[0]];
        let pinfo = meta
            .partition_info(&director.table)
            .expect("analysis guarantees the table is partitioned");
        let binding = director.binding_name().to_string();
        let pred = match spec {
            SpatialSpec::Box(b) => Expr::binary(
                Expr::func(
                    "qserv_ptInSphericalBox",
                    vec![
                        Expr::qcol(&binding, &pinfo.lon_col),
                        Expr::qcol(&binding, &pinfo.lat_col),
                        Expr::float(b.lon_min_deg()),
                        Expr::float(b.lat_min_deg()),
                        Expr::float(b.lon_min_deg() + b.lon_extent_deg()),
                        Expr::float(b.lat_max_deg()),
                    ],
                ),
                BinaryOp::Eq,
                Expr::int(1),
            ),
            SpatialSpec::Circle { ra, decl, radius } => Expr::binary(
                Expr::func(
                    "qserv_angSep",
                    vec![
                        Expr::qcol(&binding, &pinfo.lon_col),
                        Expr::qcol(&binding, &pinfo.lat_col),
                        Expr::float(*ra),
                        Expr::float(*decl),
                    ],
                ),
                BinaryOp::LtEq,
                Expr::float(*radius),
            ),
        };
        chunk_stmt.where_clause = Some(match chunk_stmt.where_clause.take() {
            Some(w) => Expr::and(pred, w),
            None => pred,
        });
    }

    // Split projections for two-phase aggregation.
    let merge_stmt = if analysis.aggregated {
        split_aggregates(&mut chunk_stmt)
    } else {
        plain_merge(&mut chunk_stmt)
    };

    let shape = if !analysis.aggregated && merge_stmt.order_by.is_empty() {
        MergeShape::Append {
            cutoff: merge_stmt.limit,
        }
    } else {
        MergeShape::Query
    };
    Ok(PhysicalPlan {
        chunk_stmt,
        merge_stmt,
        join: analysis.join,
        partitioned: analysis.partitioned.clone(),
        spatial: analysis.spatial,
        shape,
    })
}

/// For a non-aggregated query: chunk queries project the user expressions
/// (aliased to stable output names) and the merge passes rows through with
/// the user's ORDER BY / LIMIT. An ORDER BY key that is not an output
/// column rides along as a hidden chunk column `QS_OB<i>`, and the merge
/// then projects only the visible columns.
fn plain_merge(chunk_stmt: &mut SelectStatement) -> SelectStatement {
    let names = output_names(chunk_stmt);
    let mut order_by = chunk_stmt.order_by.clone();
    let mut hidden = Vec::new();
    // A `*` result holds every column a key can read: keys stay as written.
    if !chunk_stmt
        .projections
        .iter()
        .any(|p| matches!(p.expr, Expr::Star))
    {
        for (i, o) in order_by.iter_mut().enumerate() {
            o.expr = output_key(chunk_stmt, &names, &o.expr).unwrap_or_else(|| {
                let name = format!("QS_OB{i}");
                hidden.push(Projection {
                    expr: o.expr.clone(),
                    alias: Some(name.clone()),
                });
                result_col(&name)
            });
        }
    }
    for p in chunk_stmt.projections.iter_mut() {
        if p.alias.is_none() && !matches!(p.expr, Expr::Column { .. } | Expr::Star) {
            p.alias = Some(p.expr.to_sql());
        }
    }
    let projections = if hidden.is_empty() {
        vec![Projection {
            expr: Expr::Star,
            alias: None,
        }]
    } else {
        chunk_stmt.projections.extend(hidden);
        names
            .iter()
            .map(|n| Projection {
                expr: result_col(n),
                alias: Some(n.clone()),
            })
            .collect()
    };
    let merge = SelectStatement {
        projections,
        from: vec![TableRef::named("result")],
        where_clause: None,
        group_by: vec![],
        order_by,
        limit: chunk_stmt.limit,
    };
    // LIMIT may be pushed to chunk queries only when there is no ORDER BY
    // (any N rows per chunk then suffice). With an ORDER BY, every chunk
    // must return all matches so the merge can pick the global top-N.
    if !chunk_stmt.order_by.is_empty() {
        chunk_stmt.limit = None;
    }
    chunk_stmt.order_by.clear();
    merge
}

/// The output column names of a user statement, in SELECT order.
fn output_names(stmt: &SelectStatement) -> Vec<String> {
    stmt.projections
        .iter()
        .map(Projection::output_name)
        .collect()
}

/// The merge-side form of a user ORDER BY key: when the key names one of
/// the statement's output columns `names` by the engine's own rule
/// ([`output_index`]), a reference to that output column by its name;
/// `None` otherwise.
fn output_key(stmt: &SelectStatement, names: &[String], key: &Expr) -> Option<Expr> {
    output_index(names, stmt, key).map(|i| result_col(&names[i]))
}

/// A backtick-quoted reference to a chunk-result column.
fn result_col(name: &str) -> Expr {
    Expr::Column {
        qualifier: None,
        name: name.to_string(),
        quoted: true,
    }
}

/// Rewrites aggregated projections into the chunk/merge pair of §5.3,
/// replacing `chunk_stmt`'s projections with component aggregates and
/// group keys and returning the merge statement.
fn split_aggregates(chunk_stmt: &mut SelectStatement) -> SelectStatement {
    let mut chunk_projs: Vec<Projection> = Vec::new();
    let mut merge_projs: Vec<Projection> = Vec::new();

    let add_chunk_proj = |chunk_projs: &mut Vec<Projection>, expr: Expr, name: &str| {
        if !chunk_projs.iter().any(|p| p.alias.as_deref() == Some(name)) {
            chunk_projs.push(Projection {
                expr,
                alias: Some(name.to_string()),
            });
        }
    };

    for p in &chunk_stmt.projections {
        let out_name = p.output_name();

        // Pass 1: find the aggregate calls in this projection and add
        // their chunk-level components.
        let mut aggs: Vec<Expr> = Vec::new();
        p.expr.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate(name) && !aggs.contains(e) {
                    aggs.push(e.clone());
                }
            }
        });
        for a in &aggs {
            let (name, args) = match a {
                Expr::Function { name, args } => (name.to_ascii_lowercase(), args),
                _ => unreachable!("aggs holds Function nodes only"),
            };
            match (name.as_str(), args.first()) {
                ("avg", Some(arg)) => {
                    let sum_name = format!("SUM({})", arg.to_sql());
                    let cnt_name = format!("COUNT({})", arg.to_sql());
                    add_chunk_proj(
                        &mut chunk_projs,
                        Expr::func("SUM", vec![arg.clone()]),
                        &sum_name,
                    );
                    add_chunk_proj(
                        &mut chunk_projs,
                        Expr::func("COUNT", vec![arg.clone()]),
                        &cnt_name,
                    );
                }
                _ => {
                    add_chunk_proj(&mut chunk_projs, a.clone(), &a.to_sql());
                }
            }
        }

        if aggs.is_empty() {
            // A group key (or per-group constant): chunk projects it, merge
            // passes it through by output name.
            add_chunk_proj(&mut chunk_projs, p.expr.clone(), &out_name);
            merge_projs.push(Projection {
                expr: result_col(&out_name),
                alias: Some(out_name),
            });
        } else {
            // Pass 2: rewrite the projection, mapping each aggregate node
            // to its merge-side expression (a pure function of the node).
            let merge_expr = p.expr.clone().rewrite(&mut |e| {
                if let Expr::Function { name, args } = &e {
                    if is_aggregate(name) {
                        let sql = e.to_sql();
                        let lname = name.to_ascii_lowercase();
                        return match (lname.as_str(), args.first()) {
                            ("avg", Some(arg)) => Expr::binary(
                                Expr::func(
                                    "SUM",
                                    vec![result_col(&format!("SUM({})", arg.to_sql()))],
                                ),
                                BinaryOp::Div,
                                Expr::func(
                                    "SUM",
                                    vec![result_col(&format!("COUNT({})", arg.to_sql()))],
                                ),
                            ),
                            ("count", _) | ("sum", _) => Expr::func("SUM", vec![result_col(&sql)]),
                            ("min", _) => Expr::func("MIN", vec![result_col(&sql)]),
                            ("max", _) => Expr::func("MAX", vec![result_col(&sql)]),
                            _ => e,
                        };
                    }
                }
                e
            });
            merge_projs.push(Projection {
                expr: merge_expr,
                alias: Some(out_name),
            });
        }
    }

    // GROUP BY: the chunk query groups by the user's expressions; the
    // merge re-groups by the corresponding chunk-result columns. Keys not
    // already projected get hidden projections.
    let mut merge_group_by = Vec::new();
    for (i, g) in chunk_stmt.group_by.iter().enumerate() {
        let gsql = g.to_sql();
        // A chunk projection whose expression (or alias target) is this key?
        let existing = chunk_projs
            .iter()
            .find(|p| p.expr.to_sql() == gsql || p.alias.as_deref() == Some(gsql.as_str()));
        let col_name = match existing {
            Some(p) => p.output_name(),
            None => {
                let hidden = format!("QS_GB{i}");
                chunk_projs.push(Projection {
                    expr: g.clone(),
                    alias: Some(hidden.clone()),
                });
                hidden
            }
        };
        merge_group_by.push(result_col(&col_name));
    }

    // ORDER BY reads the merge's output columns; a key that names none
    // stays as written, and the merge rejects it as the engine does.
    let names = output_names(chunk_stmt);
    let order_by = chunk_stmt
        .order_by
        .iter()
        .map(|o| OrderItem {
            expr: output_key(chunk_stmt, &names, &o.expr).unwrap_or_else(|| o.expr.clone()),
            desc: o.desc,
        })
        .collect();
    let merge = SelectStatement {
        projections: merge_projs,
        from: vec![TableRef::named("result")],
        where_clause: None,
        group_by: merge_group_by,
        order_by,
        limit: chunk_stmt.limit,
    };
    chunk_stmt.projections = chunk_projs;
    chunk_stmt.order_by.clear();
    chunk_stmt.limit = None; // LIMIT on partial aggregates would be wrong
    merge
}

/// The physical table name of chunk `CC` for base table `t`.
pub fn chunk_table(t: &str, chunk: i32) -> String {
    format!("{t}_{chunk}")
}

/// The overlap-store table of chunk `CC` (loader-created).
pub fn overlap_table(t: &str, chunk: i32) -> String {
    format!("{t}Overlap_{chunk}")
}

/// The on-demand chunk ∪ overlap union table.
pub fn union_table(t: &str, chunk: i32) -> String {
    format!("{t}Union_{chunk}")
}

/// The on-demand subchunk table `T_CC_SS`.
pub fn subchunk_table(t: &str, chunk: i32, subchunk: i32) -> String {
    format!("{t}_{chunk}_{subchunk}")
}

/// The on-demand dilated subchunk table `TFullOverlap_CC_SS`.
pub fn full_overlap_table(t: &str, chunk: i32, subchunk: i32) -> String {
    format!("{t}FullOverlap_{chunk}_{subchunk}")
}

/// Renders the full dispatch message for one chunk: the `-- SUBCHUNKS:`
/// header line followed by one or more `;`-terminated SQL statements
/// (paper §5.4 "Chunk Query Representation").
pub fn render_chunk_message(
    plan: &PhysicalPlan,
    meta: &CatalogMeta,
    chunk: i32,
    subchunks: &[i32],
) -> String {
    let mut msg = String::from("-- SUBCHUNKS:");
    push_ids(&mut msg, subchunks);

    let db = meta.database().to_string();
    match plan.join {
        JoinClass::None | JoinClass::ChunkEqui => {
            let mut stmt = plan.chunk_stmt.clone();
            for (pos, &i) in plan.partitioned.iter().enumerate() {
                let t = &mut stmt.from[i];
                t.database = Some(db.clone());
                t.table = if plan.join == JoinClass::ChunkEqui && pos == 1 {
                    // Second binding reads chunk ∪ overlap so borderline
                    // partners are never missed (§4.4 "Overlap").
                    union_table(&t.table, chunk)
                } else {
                    chunk_table(&t.table, chunk)
                };
            }
            msg.push_str(&stmt.to_sql());
            msg.push_str(";\n");
        }
        JoinClass::SubchunkNear => {
            // One statement per subchunk: o1 over the subchunk's owned
            // rows, o2 over the overlap-dilated subchunk (§4.4, §5.2).
            for &ss in subchunks {
                let mut stmt = plan.chunk_stmt.clone();
                for (pos, &i) in plan.partitioned.iter().enumerate() {
                    let t = &mut stmt.from[i];
                    t.database = Some(db.clone());
                    t.table = if pos == 0 {
                        subchunk_table(&t.table, chunk, ss)
                    } else {
                        full_overlap_table(&t.table, chunk, ss)
                    };
                }
                msg.push_str(&stmt.to_sql());
                msg.push_str(";\n");
            }
        }
    }
    msg
}

/// Appends ` a, b, c` and a newline: a header line's id list.
fn push_ids(msg: &mut String, ids: &[i32]) {
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            msg.push(',');
        }
        msg.push(' ');
        msg.push_str(&id.to_string());
    }
    msg.push('\n');
}

/// Renders the message of one chunk bundle: `(chunk, subchunks)` pairs a
/// worker runs the statement over, in order. The statements are
/// rendered once, for the first chunk — a bundle of one is exactly
/// [`render_chunk_message`]'s message. A longer bundle adds a
/// `-- CHUNKS:` line naming every chunk, the first one first; the worker
/// re-binds the first chunk's table names to each further chunk. A
/// near-neighbour plan's statements differ per subchunk, so each further
/// chunk gets its own `-- SUBCHUNKS <chunk>:` line, and the worker runs
/// the first statement once per subchunk listed there.
pub fn render_bundle_message(
    plan: &PhysicalPlan,
    meta: &CatalogMeta,
    bundle: &[(i32, Vec<i32>)],
) -> String {
    let [(first, subchunks), rest @ ..] = bundle else {
        panic!("a bundle holds at least one chunk");
    };
    let msg = render_chunk_message(plan, meta, *first, subchunks);
    if rest.is_empty() {
        return msg;
    }
    let mut header = String::from("-- CHUNKS:");
    push_ids(
        &mut header,
        &bundle.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
    );
    if plan.join == JoinClass::SubchunkNear {
        for (chunk, subchunks) in rest {
            header.push_str(&format!("-- SUBCHUNKS {chunk}:"));
            push_ids(&mut header, subchunks);
        }
    }
    header + &msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use qserv_sqlparse::parse_select;

    fn plan_for(sql: &str) -> PhysicalPlan {
        let meta = CatalogMeta::lsst();
        let a = analyze(&parse_select(sql).unwrap(), &meta).unwrap();
        build_plan(&a, &meta).unwrap()
    }

    #[test]
    fn paper_example_from_5_3() {
        // The worked example of §5.3.
        let p = plan_for(
            "SELECT AVG(uFlux_SG) FROM Object \
             WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04;",
        );
        let chunk_sql = p.chunk_stmt.to_sql();
        assert!(
            chunk_sql.contains("SUM(uFlux_SG) AS `SUM(uFlux_SG)`"),
            "chunk query must split AVG into SUM: {chunk_sql}"
        );
        assert!(
            chunk_sql.contains("COUNT(uFlux_SG) AS `COUNT(uFlux_SG)`"),
            "…and COUNT: {chunk_sql}"
        );
        assert!(
            chunk_sql.contains(
                "qserv_ptInSphericalBox(Object.ra_PS, Object.decl_PS, 0.0, 0.0, 10.0, 10.0) = 1"
            ),
            "areaspec must become the worker UDF predicate: {chunk_sql}"
        );
        assert!(chunk_sql.contains("uRadius_PS > 0.04"));
        let merge_sql = p.merge_stmt.to_sql();
        assert!(
            merge_sql.contains("SUM(`SUM(uFlux_SG)`) / SUM(`COUNT(uFlux_SG)`)"),
            "merge must recombine the pair: {merge_sql}"
        );
        assert!(merge_sql.contains("FROM result"));
    }

    #[test]
    fn chunk_table_substitution_like_paper() {
        let p = plan_for("SELECT COUNT(*) FROM Object");
        let msg = render_chunk_message(&p, &CatalogMeta::lsst(), 1234, &[]);
        assert!(
            msg.contains("FROM LSST.Object_1234 AS Object"),
            "table must become LSST.Object_CC: {msg}"
        );
        assert!(msg.starts_with("-- SUBCHUNKS:\n"), "header first: {msg}");
        assert!(msg.trim_end().ends_with(';'));
    }

    #[test]
    fn count_star_merge_is_sum() {
        let p = plan_for("SELECT COUNT(*) FROM Object");
        assert!(p.chunk_stmt.to_sql().contains("COUNT(*) AS `COUNT(*)`"));
        let merge = p.merge_stmt.to_sql();
        assert!(merge.contains("SUM(`COUNT(*)`) AS `COUNT(*)`"), "{merge}");
    }

    #[test]
    fn min_max_merge_preserved() {
        let p = plan_for("SELECT MIN(ra_PS), MAX(ra_PS) FROM Object");
        let merge = p.merge_stmt.to_sql();
        assert!(merge.contains("MIN(`MIN(ra_PS)`)"));
        assert!(merge.contains("MAX(`MAX(ra_PS)`)"));
    }

    #[test]
    fn hv3_group_by_round_trip() {
        let p = plan_for(
            "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId \
             FROM Object GROUP BY chunkId",
        );
        let chunk = p.chunk_stmt.to_sql();
        // Chunk query groups by chunkId and projects it plus components.
        assert!(chunk.contains("GROUP BY chunkId"));
        assert!(chunk.contains("count(*) AS `count(*)`"));
        assert!(chunk.contains("SUM(ra_PS)"));
        assert!(chunk.contains("COUNT(decl_PS)"));
        assert!(chunk.contains("chunkId"));
        let merge = p.merge_stmt.to_sql();
        assert!(merge.contains("SUM(`count(*)`) AS n"), "{merge}");
        assert!(merge.contains("GROUP BY `chunkId`"), "{merge}");
        assert!(merge.contains("AS `AVG(ra_PS)`"), "{merge}");
    }

    #[test]
    fn group_key_not_projected_gets_hidden_column() {
        let p = plan_for("SELECT COUNT(*) FROM Object GROUP BY chunkId");
        let chunk = p.chunk_stmt.to_sql();
        assert!(chunk.contains("chunkId AS QS_GB0"), "{chunk}");
        let merge = p.merge_stmt.to_sql();
        assert!(merge.contains("GROUP BY `QS_GB0`"), "{merge}");
        // But the hidden key is not a merge output column.
        assert!(!merge.contains("QS_GB0`,"));
    }

    #[test]
    fn shared_aggregate_component_deduplicated() {
        let p = plan_for("SELECT AVG(ra_PS), SUM(ra_PS) FROM Object");
        let sums = p
            .chunk_stmt
            .projections
            .iter()
            .filter(|x| x.alias.as_deref() == Some("SUM(ra_PS)"))
            .count();
        assert_eq!(sums, 1, "SUM(ra_PS) projected once, used twice");
    }

    #[test]
    fn expression_over_aggregates() {
        let p = plan_for("SELECT SUM(ra_PS) / COUNT(*) FROM Object");
        let merge = p.merge_stmt.to_sql();
        assert!(
            merge.contains("SUM(`SUM(ra_PS)`) / SUM(`COUNT(*)`)"),
            "{merge}"
        );
    }

    #[test]
    fn plain_query_pass_through_merge() {
        let p = plan_for("SELECT objectId, ra_PS FROM Object WHERE objectId = 7");
        assert_eq!(p.merge_stmt.to_sql(), "SELECT * FROM result");
        assert!(p.chunk_stmt.to_sql().contains("objectId = 7"));
    }

    #[test]
    fn projection_expressions_get_stable_aliases() {
        let p = plan_for("SELECT fluxToAbMag(psfFlux) FROM Source WHERE objectId = 1");
        let chunk = p.chunk_stmt.to_sql();
        assert!(
            chunk.contains("fluxToAbMag(psfFlux) AS `fluxToAbMag(psfFlux)`"),
            "{chunk}"
        );
    }

    #[test]
    fn order_by_and_limit_stay_at_merge() {
        let p = plan_for("SELECT objectId FROM Object ORDER BY objectId DESC LIMIT 5");
        assert!(p.chunk_stmt.order_by.is_empty());
        // With ORDER BY the limit cannot be pushed down: the global top-5
        // needs every chunk's full candidate set.
        assert_eq!(p.chunk_stmt.limit, None);
        let p2 = plan_for("SELECT objectId FROM Object LIMIT 5");
        assert_eq!(p2.chunk_stmt.limit, Some(5)); // valid pushdown
        let merge = p.merge_stmt.to_sql();
        // The key names the output column by its name, quoted.
        assert!(
            merge.contains("ORDER BY `objectId` DESC LIMIT 5"),
            "{merge}"
        );
    }

    #[test]
    fn aggregate_limit_not_pushed_down() {
        let p = plan_for("SELECT COUNT(*) FROM Object GROUP BY chunkId LIMIT 3");
        assert_eq!(p.chunk_stmt.limit, None);
        assert_eq!(p.merge_stmt.limit, Some(3));
    }

    #[test]
    fn near_neighbor_renders_per_subchunk_statements() {
        let p = plan_for(
            "SELECT count(*) FROM Object o1, Object o2 \
             WHERE qserv_areaspec_box(-5, -5, 5, -5) \
             AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
        );
        let msg = render_chunk_message(&p, &CatalogMeta::lsst(), 77, &[3, 8]);
        assert!(msg.starts_with("-- SUBCHUNKS: 3, 8\n"), "{msg}");
        assert!(msg.contains("FROM LSST.Object_77_3 AS o1, LSST.ObjectFullOverlap_77_3 AS o2"));
        assert!(msg.contains("FROM LSST.Object_77_8 AS o1, LSST.ObjectFullOverlap_77_8 AS o2"));
        assert_eq!(msg.matches(";\n").count(), 2);
        // Spatial restriction applies to the owned (o1) side.
        assert!(msg.contains("qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS"));
    }

    #[test]
    fn chunk_equi_join_uses_union_second_binding() {
        let p = plan_for(
            "SELECT o.objectId, s.sourceId FROM Object o, Source s \
             WHERE o.objectId = s.objectId",
        );
        let msg = render_chunk_message(&p, &CatalogMeta::lsst(), 5, &[]);
        assert!(
            msg.contains("FROM LSST.Object_5 AS o, LSST.SourceUnion_5 AS s"),
            "{msg}"
        );
    }

    #[test]
    fn a_bundle_of_one_is_the_chunk_message() {
        let meta = CatalogMeta::lsst();
        for sql in [
            "SELECT COUNT(*) FROM Object",
            "SELECT count(*) FROM Object o1, Object o2 \
             WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
        ] {
            let p = plan_for(sql);
            assert_eq!(
                render_bundle_message(&p, &meta, &[(42, vec![1, 2])]),
                render_chunk_message(&p, &meta, 42, &[1, 2])
            );
        }
    }

    #[test]
    fn a_bundle_names_its_chunks_and_renders_the_first() {
        let meta = CatalogMeta::lsst();
        let p = plan_for("SELECT COUNT(*) FROM Object");
        let msg = render_bundle_message(&p, &meta, &[(5, vec![]), (9, vec![]), (12, vec![])]);
        assert!(
            msg.starts_with("-- CHUNKS: 5, 9, 12\n-- SUBCHUNKS:\n"),
            "{msg}"
        );
        assert!(msg.contains("FROM LSST.Object_5 AS Object"), "{msg}");
        assert!(!msg.contains("Object_9"), "rendered once: {msg}");
        let nn = plan_for(
            "SELECT count(*) FROM Object o1, Object o2 \
             WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
        );
        let msg = render_bundle_message(&nn, &meta, &[(5, vec![1, 2]), (9, vec![]), (12, vec![3])]);
        assert!(
            msg.starts_with(
                "-- CHUNKS: 5, 9, 12\n-- SUBCHUNKS 9:\n-- SUBCHUNKS 12: 3\n-- SUBCHUNKS: 1, 2\n"
            ),
            "{msg}"
        );
        assert_eq!(msg.matches(";\n").count(), 2, "{msg}");
    }

    #[test]
    fn star_in_join_rejected() {
        let meta = CatalogMeta::lsst();
        let a = analyze(
            &parse_select("SELECT * FROM Object o, Source s WHERE o.objectId = s.objectId")
                .unwrap(),
            &meta,
        )
        .unwrap();
        assert!(build_plan(&a, &meta).is_err());
    }

    #[test]
    fn rendered_messages_reparse() {
        // Every statement in every rendered message must parse — workers
        // run a real parser on them.
        for sql in [
            "SELECT COUNT(*) FROM Object",
            "SELECT AVG(uFlux_SG) FROM Object WHERE qserv_areaspec_box(0.0,0.0,10.0,10.0) AND uRadius_PS > 0.04",
            "SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object GROUP BY chunkId",
            "SELECT o.objectId, s.sourceId FROM Object o, Source s WHERE o.objectId = s.objectId",
            "SELECT count(*) FROM Object o1, Object o2 WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
        ] {
            let p = plan_for(sql);
            let msg = render_chunk_message(&p, &CatalogMeta::lsst(), 42, &[1, 2]);
            for stmt in msg.lines().skip(1).collect::<String>().split(';') {
                let stmt = stmt.trim();
                if !stmt.is_empty() {
                    parse_select(stmt).unwrap_or_else(|e| {
                        panic!("rendered statement failed to reparse: {e}\n{stmt}")
                    });
                }
            }
            // Merge statements must reparse too.
            parse_select(&p.merge_stmt.to_sql()).expect("merge reparses");
        }
    }

    #[test]
    fn replicated_only_query_rejected() {
        let meta = CatalogMeta::lsst();
        let a = analyze(&parse_select("SELECT * FROM Filter").unwrap(), &meta).unwrap();
        assert!(build_plan(&a, &meta).is_err());
    }
}
