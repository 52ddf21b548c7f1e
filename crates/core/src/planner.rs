//! Cost-based query planning.
//!
//! The paper's workload mix — interactive objectId lookups against
//! full-sky scans (§2, §6) — is exactly where a wrong access-path
//! choice costs orders of magnitude, and "Designing a Multi-petabyte
//! Database for LSST" motivates statistics-driven planning at this
//! scale. This module is the frontend's small cost model, fed by the
//! statistics the loader registers into [`crate::meta`]:
//!
//! * per-chunk **zone maps** ([`ChunkZones`]: column min/max per chunk),
//! * per-chunk **row counts** and per-column **distinct-value counts**
//!   ([`TableStats`]), collected at load time by
//!   [`qserv_engine::storage::table_column_stats`].
//!
//! It makes four decisions for a prepared query:
//!
//! 1. **Selectivity estimation per WHERE conjunct** with filter
//!    reordering: conjuncts are ranked by `(1 − selectivity) / cost`
//!    (drop rate per unit of evaluation work) and the chunk query's
//!    WHERE clause is rebuilt in that order. Pure conjuncts commute, so
//!    any order is semantics-preserving; the property battery in
//!    `tests/planner_oracle.rs` pins that.
//! 2. **Index-vs-scan** for the chunk set: when an objectId point/IN
//!    predicate is present, compare the cost of dispatching only the
//!    secondary index's chunks against the zone-pruned full scan.
//! 3. **ORDER BY + LIMIT top-n pushdown**: when statistics *prove* an
//!    ORDER BY column is a unique NULL-free key (exact distinct ==
//!    valid == rows), ties are impossible, the order is total, and each
//!    chunk's local top-n is a superset of its contribution to the
//!    global top-n — so the ORDER BY and LIMIT are pushed into the
//!    chunk query and the merge re-sorts a bounded set. Without the
//!    uniqueness proof the pushdown is skipped: a tied key could make
//!    different plans pick different (all correct, not bit-identical)
//!    prefixes.
//! 4. **Shared-scan convoy attachment** and the admission estimate: a
//!    full-scan plan over more chunks than the interactive threshold is
//!    marked for convoy attachment, and the costed chunk-elision result
//!    (the planned chunk count) is what the service's interactive/scan
//!    classification consumes.
//!
//! [`PlanOverride`] forces individual decisions — the plan-equivalence
//! test battery executes a query under every override combination and
//! asserts bit-identical results against the single-node oracle.

use crate::analysis::{zone_restrictions, Analysis, JoinClass};
use crate::meta::{ChunkZones, ColumnStat, ColumnZone, TableStats};
use crate::rewrite::PhysicalPlan;
use qserv_sqlparse::ast::{BinaryOp, Expr, Literal};
use std::collections::HashMap;

/// Dispatch overhead per chunk, in cost units. Dominates at paper scale
/// — "table-scanning being the norm" (§4.3) is about chunk volume, not
/// per-row CPU.
const COST_PER_CHUNK: f64 = 1000.0;
/// Secondary-index probe cost per key.
const COST_PER_PROBE: f64 = 10.0;
/// Per-row weight of one unit of predicate-evaluation cost.
const COST_PER_ROW_EVAL: f64 = 0.01;
/// Per-row weight of materializing an output row into the merge.
const COST_PER_ROW_OUT: f64 = 0.05;
/// Selectivity assumed for conjuncts the estimator cannot model.
const DEFAULT_SEL: f64 = 0.33;
/// Selectivity assumed for a range over a column with no zone info.
const DEFAULT_RANGE_SEL: f64 = 0.3;
/// Selectivity assumed for an equality over a column with no distinct
/// count.
const DEFAULT_EQ_SEL: f64 = 0.1;
/// Chunk-count threshold between interactive and scan classification:
/// the query service's default admission threshold, and the one
/// [`crate::Qserv::explain_table`]'s `class` row is decided at.
pub const DEFAULT_INTERACTIVE_CHUNKS: usize = 8;

/// Forces individual planner decisions — the hook the plan-equivalence
/// battery uses to execute every enumerable plan of a query. `None`
/// fields leave the decision to the cost model. Overrides only select
/// among *sound* plans: `push_topn: Some(true)` still requires the
/// uniqueness proof, it just re-enables a pushdown the cost model might
/// skip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanOverride {
    /// Force the secondary-index chunk narrowing on (`Some(true)`, kept
    /// only when an index predicate exists) or off (`Some(false)`).
    pub use_index: Option<bool>,
    /// Force ORDER BY + LIMIT pushdown off (`Some(false)`); `Some(true)`
    /// allows it whenever sound.
    pub push_topn: Option<bool>,
    /// Force predicate reordering off (`Some(false)`) or allow it
    /// (`Some(true)`).
    pub reorder: Option<bool>,
}

impl PlanOverride {
    /// Every combination of forced decisions — the plan lattice the
    /// oracle battery executes. 8 entries (2³).
    pub fn enumerate() -> Vec<PlanOverride> {
        let mut out = Vec::with_capacity(8);
        for &use_index in &[false, true] {
            for &push_topn in &[false, true] {
                for &reorder in &[false, true] {
                    out.push(PlanOverride {
                        use_index: Some(use_index),
                        push_topn: Some(push_topn),
                        reorder: Some(reorder),
                    });
                }
            }
        }
        out
    }
}

/// The chosen access path for the chunk set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AccessPath {
    /// Dispatch only the chunks the secondary index maps the point/IN
    /// keys to.
    IndexLookup {
        /// Number of lookup keys.
        keys: usize,
    },
    /// Dispatch the (zone-pruned) spatial chunk set.
    #[default]
    FullScan,
}

/// One WHERE conjunct's estimate, in the order the plan evaluates them.
#[derive(Clone, Debug, PartialEq)]
pub struct ConjunctEstimate {
    /// Rendered predicate text.
    pub predicate: String,
    /// Estimated fraction of rows passing (row-weighted across chunks).
    pub selectivity: f64,
    /// Relative evaluation cost (expression size; function calls are
    /// weighted heavily).
    pub cost: f64,
}

/// Everything the planner decided for one query, kept on the prepared
/// plan for EXPLAIN, metrics, and the shared-scan scheduler.
#[derive(Clone, Debug, Default)]
pub struct PlanChoice {
    /// Chunk-set access path.
    pub access: AccessPath,
    /// Conjunct estimates in chosen evaluation order.
    pub conjuncts: Vec<ConjunctEstimate>,
    /// Whether the chunk query's WHERE clause was rebuilt in a new order.
    pub reordered: bool,
    /// `Some(n)` when ORDER BY + LIMIT n was pushed into the chunk query.
    pub topn_pushdown: Option<u64>,
    /// Estimated rows in the *merged* result.
    pub est_rows: f64,
    /// Estimated total cost of the chosen plan, in cost units.
    pub est_cost: f64,
    /// Chunk count of the full-scan alternative (after zone elision).
    pub scan_chunks: usize,
    /// Chunk count of the index alternative, when one exists.
    pub index_chunks: Option<usize>,
    /// Whether a shared-scan convoy should pick this query up (scan
    /// access over more chunks than the interactive threshold).
    pub attach_convoy: bool,
}

/// Planner inputs assembled by `Qserv::prepare`.
pub(crate) struct PlannerContext<'a> {
    pub analysis: &'a Analysis,
    pub zones: &'a ChunkZones,
    pub stats: &'a TableStats,
    /// Placement ∩ spatial restriction — the full-scan candidate set.
    pub scan_chunks: Vec<i32>,
    /// `scan_chunks` ∩ secondary-index chunks, when an index predicate
    /// exists.
    pub index_chunks: Option<Vec<i32>>,
}

/// Planner output: the decision record plus the chunk set to dispatch.
pub(crate) struct Planned {
    pub choice: PlanChoice,
    pub chunks: Vec<i32>,
    pub chunks_pruned: usize,
}

/// What the estimator understood about one conjunct.
enum ConjunctKind {
    /// `col = literal`.
    Eq(f64),
    /// `col ∈ [lo, hi]` from a comparison or BETWEEN.
    Range(f64, f64),
    /// `col IN (k integer literals)`.
    In(Vec<f64>),
    /// Anything else — estimated at [`DEFAULT_SEL`].
    Opaque,
}

/// Rebuilds a left-associated AND chain from conjuncts.
fn join_conjuncts(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let first = if conjuncts.is_empty() {
        return None;
    } else {
        conjuncts.remove(0)
    };
    Some(conjuncts.into_iter().fold(first, |acc, c| Expr::Binary {
        op: BinaryOp::And,
        lhs: Box::new(acc),
        rhs: Box::new(c),
    }))
}

fn literal_num(e: &Expr) -> Option<f64> {
    match e {
        Expr::Literal(Literal::Int(v)) => Some(*v as f64),
        Expr::Literal(Literal::Float(v)) => Some(*v),
        _ => None,
    }
}

fn bare_column(e: &Expr) -> Option<&str> {
    match e {
        Expr::Column {
            qualifier: None,
            name,
            ..
        } => Some(name),
        // A qualifier is fine for estimation purposes — single-table
        // queries have one binding, so `o.ra_PS` and `ra_PS` are the
        // same column.
        Expr::Column {
            qualifier: Some(_),
            name,
            ..
        } => Some(name),
        _ => None,
    }
}

/// Classifies a conjunct for the estimator: the column it restricts
/// and how, or `None` when it is [`ConjunctKind::Opaque`].
fn classify_conjunct(e: &Expr) -> Option<(&str, ConjunctKind)> {
    match e {
        Expr::Binary { op, lhs, rhs } => {
            let (col, lit, flipped) = match (bare_column(lhs), literal_num(rhs)) {
                (Some(c), Some(v)) => (c, v, false),
                _ => match (literal_num(lhs), bare_column(rhs)) {
                    (Some(v), Some(c)) => (c, v, true),
                    _ => return None,
                },
            };
            let kind = match (op, flipped) {
                (BinaryOp::Eq, _) => ConjunctKind::Eq(lit),
                (BinaryOp::Lt | BinaryOp::LtEq, false) | (BinaryOp::Gt | BinaryOp::GtEq, true) => {
                    ConjunctKind::Range(f64::NEG_INFINITY, lit)
                }
                (BinaryOp::Gt | BinaryOp::GtEq, false) | (BinaryOp::Lt | BinaryOp::LtEq, true) => {
                    ConjunctKind::Range(lit, f64::INFINITY)
                }
                _ => return None,
            };
            Some((col, kind))
        }
        Expr::Between {
            expr,
            negated: false,
            low,
            high,
        } => match (bare_column(expr), literal_num(low), literal_num(high)) {
            (Some(c), Some(lo), Some(hi)) => Some((c, ConjunctKind::Range(lo, hi))),
            _ => None,
        },
        Expr::InList {
            expr,
            negated: false,
            list,
        } => {
            let col = bare_column(expr)?;
            let vals: Option<Vec<f64>> = list.iter().map(literal_num).collect();
            Some((col, ConjunctKind::In(vals?)))
        }
        _ => None,
    }
}

/// Relative evaluation cost of an expression: node count, with function
/// calls weighted at 8 (a `qserv_angSep` beats a comparison by far).
fn expr_cost(e: &Expr) -> f64 {
    let mut cost = 0.0;
    e.visit(&mut |node| {
        cost += match node {
            Expr::Function { .. } => 8.0,
            _ => 1.0,
        };
    });
    cost
}

/// One conjunct with the statistics of its column resolved once per
/// statement: per chunk, estimating it is one chunk-id probe.
struct Costed<'a> {
    kind: ConjunctKind,
    /// Relative evaluation cost ([`expr_cost`]).
    cost: f64,
    /// The column's zones by chunk, when registered.
    zones: Option<&'a HashMap<i64, ColumnZone>>,
    /// The column's table-wide statistic, when registered.
    stat: Option<ColumnStat>,
}

impl<'a> Costed<'a> {
    /// Classifies `e` and, for a single-table statement, resolves its
    /// column's statistics in `table`.
    fn new(e: &Expr, table: Option<&str>, zones: &'a ChunkZones, stats: &TableStats) -> Self {
        let (kind, zones, stat) = match (classify_conjunct(e), table) {
            (Some((col, kind)), Some(table)) => (
                kind,
                zones.column_zones(table, col),
                stats.column(table, col),
            ),
            (Some((_, kind)), None) => (kind, None, None),
            (None, _) => (ConjunctKind::Opaque, None, None),
        };
        Costed {
            kind,
            cost: expr_cost(e),
            zones,
            stat,
        }
    }

    /// Estimated fraction of chunk `chunk`'s rows passing the conjunct,
    /// using the chunk's zone and the table's distinct count.
    fn selectivity(&self, chunk: i32) -> f64 {
        let zone = self.zones.and_then(|z| z.get(&i64::from(chunk)));
        let sel = match &self.kind {
            ConjunctKind::Eq(v) => {
                if zone.is_some_and(|z| z.excluded_by(*v, *v)) {
                    return 0.0;
                }
                match self.stat {
                    Some(c) if c.distinct > 0 => 1.0 / c.distinct as f64,
                    _ => DEFAULT_EQ_SEL,
                }
            }
            ConjunctKind::Range(lo, hi) => match zone {
                Some(z) if z.valid > 0 && z.max > z.min => {
                    let overlap = hi.min(z.max) - lo.max(z.min);
                    (overlap / (z.max - z.min)).clamp(0.0, 1.0)
                }
                Some(z) => {
                    // Degenerate zone: a single value (or none).
                    if z.valid == 0 || z.min < *lo || z.min > *hi {
                        0.0
                    } else {
                        1.0
                    }
                }
                None => DEFAULT_RANGE_SEL,
            },
            ConjunctKind::In(vals) => {
                let in_zone = match zone {
                    Some(z) => vals.iter().filter(|v| !z.excluded_by(**v, **v)).count(),
                    None => vals.len(),
                };
                match self.stat {
                    Some(c) if c.distinct > 0 => in_zone as f64 / c.distinct as f64,
                    _ => (in_zone as f64 * DEFAULT_EQ_SEL).min(0.5),
                }
            }
            ConjunctKind::Opaque => DEFAULT_SEL,
        };
        sel.clamp(0.0, 1.0)
    }
}

/// Rows loaded into chunk `chunk`, from the table's resolved row map.
fn rows_of(chunk_rows: Option<&HashMap<i64, u64>>, chunk: i32) -> f64 {
    chunk_rows
        .and_then(|r| r.get(&i64::from(chunk)))
        .copied()
        .unwrap_or(0) as f64
}

/// Estimated selected rows and evaluation cost of running `conjuncts`
/// (in the given order) over chunk set `chunks`: per chunk, rows × the
/// product of selectivities, with each conjunct's evaluation charged
/// only for the rows surviving the ones before it.
fn estimate_set(
    chunks: &[i32],
    conjuncts: &[Costed<'_>],
    chunk_rows: Option<&HashMap<i64, u64>>,
) -> (f64, f64) {
    let mut rows_out = 0.0;
    let mut eval_cost = 0.0;
    for &c in chunks {
        let mut surviving = rows_of(chunk_rows, c);
        for conjunct in conjuncts {
            eval_cost += surviving * conjunct.cost * COST_PER_ROW_EVAL;
            surviving *= conjunct.selectivity(c);
        }
        rows_out += surviving;
    }
    (rows_out, eval_cost)
}

/// Runs the cost model over a built physical plan, choosing the access
/// path and chunk set, reordering the chunk query's WHERE conjuncts,
/// and pushing ORDER BY + LIMIT down when provably sound. Mutates
/// `plan.chunk_stmt` only; the merge statement — and therefore the
/// final semantics — is untouched.
pub(crate) fn choose(
    ctx: PlannerContext<'_>,
    ov: Option<&PlanOverride>,
    plan: &mut PhysicalPlan,
) -> Planned {
    let analysis = ctx.analysis;
    let ov = ov.copied().unwrap_or_default();
    let table = (analysis.join == JoinClass::None && analysis.partitioned.len() == 1)
        .then(|| analysis.stmt.from[analysis.partitioned[0]].table.as_str());

    // Zone-map chunk elision on both candidate sets. Sound because a
    // pruned chunk would contribute zero rows anyway — the workers
    // still apply the full predicate — so elision only skips dispatches
    // whose results are the merge's fold identity.
    let mut scan_chunks = ctx.scan_chunks;
    let mut index_chunks = ctx.index_chunks;
    let mut scan_pruned = 0usize;
    let mut index_pruned = 0usize;
    if let Some(table) = table {
        let restrictions = zone_restrictions(&analysis.stmt);
        scan_pruned = ctx
            .zones
            .elide_chunks(table, &restrictions, &mut scan_chunks);
        if let Some(idx) = &mut index_chunks {
            index_pruned = ctx.zones.elide_chunks(table, &restrictions, idx);
        }
    }

    // Conjunct estimates over the chunk query's WHERE clause (which
    // carries the re-materialized spatial predicate too). Statistics are
    // resolved here, once per statement: the table's row map and each
    // conjunct's column zones and stat. Per chunk, what remains is a
    // chunk-id probe into each.
    let chunk_rows = table.and_then(|t| ctx.stats.chunk_rows(t));
    let mut conjunct_exprs: Vec<Expr> = plan
        .chunk_stmt
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();
    let mut costed: Vec<Costed<'_>> = conjunct_exprs
        .iter()
        .map(|e| Costed::new(e, table, ctx.zones, ctx.stats))
        .collect();

    // Filter reordering: rank by drop rate per unit cost, (1 − sel)/cost
    // descending. Stable, so equal ranks keep the user's order. Applies
    // only to the single-table case, where the per-chunk row counts
    // weigh the selectivities.
    let reorder_allowed = ov.reorder != Some(false) && table.is_some();
    let mut order: Vec<usize> = (0..conjunct_exprs.len()).collect();
    let global_sels: Vec<f64> = match table {
        Some(_) => costed
            .iter()
            .map(|conjunct| {
                let mut num = 0.0;
                let mut den = 0.0;
                for &c in &scan_chunks {
                    let rows = rows_of(chunk_rows, c);
                    num += rows * conjunct.selectivity(c);
                    den += rows;
                }
                if den > 0.0 {
                    num / den
                } else {
                    DEFAULT_SEL
                }
            })
            .collect(),
        None => vec![DEFAULT_SEL; costed.len()],
    };
    let mut reordered = false;
    if reorder_allowed && order.len() > 1 {
        order.sort_by(|&a, &b| {
            let rank = |i: usize| (1.0 - global_sels[i]) / costed[i].cost.max(1.0);
            rank(b)
                .partial_cmp(&rank(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if order.windows(2).any(|w| w[0] > w[1]) {
            reordered = true;
            let new_exprs: Vec<Expr> = order.iter().map(|&i| conjunct_exprs[i].clone()).collect();
            plan.chunk_stmt.where_clause = join_conjuncts(new_exprs.clone());
            conjunct_exprs = new_exprs;
            let mut slots: Vec<Option<Costed<'_>>> = costed.into_iter().map(Some).collect();
            costed = order
                .iter()
                .map(|&i| slots[i].take().expect("order is a permutation"))
                .collect();
        }
    }
    let ordered_sels: Vec<f64> = if reordered {
        order.iter().map(|&i| global_sels[i]).collect()
    } else {
        global_sels
    };

    // Cost the two access paths.
    let (scan_rows, scan_eval) = match table {
        Some(_) => estimate_set(&scan_chunks, &costed, chunk_rows),
        None => (0.0, 0.0),
    };
    let scan_cost =
        scan_chunks.len() as f64 * COST_PER_CHUNK + scan_eval + scan_rows * COST_PER_ROW_OUT;
    let index_alt = index_chunks.as_ref().map(|idx| {
        let keys = analysis.index_ids.as_ref().map_or(0, |ids| ids.len());
        let (rows, _) = match table {
            Some(_) => estimate_set(idx, &costed, chunk_rows),
            None => (0.0, 0.0),
        };
        let cost = idx.len() as f64 * COST_PER_CHUNK
            + keys as f64 * COST_PER_PROBE
            + rows * COST_PER_ROW_OUT;
        (keys, rows, cost)
    });

    let use_index = match (ov.use_index, &index_alt) {
        (_, None) => false,
        (Some(forced), Some(_)) => forced,
        // Tie goes to the index: its chunk set is a subset, so it is
        // never worse.
        (None, Some((_, _, index_cost))) => *index_cost <= scan_cost,
    };
    let (access, chunks, chunks_pruned, selected_rows, est_cost) = if use_index {
        let idx = index_chunks.clone().expect("use_index implies index set");
        let (keys, rows, cost) = index_alt.expect("use_index implies alternative");
        (
            AccessPath::IndexLookup { keys },
            idx,
            index_pruned,
            rows,
            cost,
        )
    } else {
        (
            AccessPath::FullScan,
            scan_chunks.clone(),
            scan_pruned,
            scan_rows,
            scan_cost,
        )
    };

    // ORDER BY + LIMIT top-n pushdown, gated on a proven-unique sort
    // key so every plan yields the identical prefix.
    let mut topn_pushdown = None;
    if ov.push_topn != Some(false) && !analysis.aggregated {
        if let (Some(table), Some(n)) = (table, plan.merge_stmt.limit) {
            let keys_sound = !plan.merge_stmt.order_by.is_empty()
                && plan.merge_stmt.order_by.iter().all(|o| {
                    matches!(
                        &o.expr,
                        Expr::Column {
                            qualifier: None,
                            ..
                        }
                    )
                })
                && plan.merge_stmt.order_by.iter().any(|o| {
                    matches!(&o.expr, Expr::Column { name, .. }
                        if ctx.stats.is_unique_key(table, name))
                });
            if keys_sound {
                plan.chunk_stmt.order_by = plan.merge_stmt.order_by.clone();
                plan.chunk_stmt.limit = Some(n);
                topn_pushdown = Some(n);
            }
        }
    }

    // Merged-result row estimate: selected rows, shrunk by grouping or
    // a LIMIT.
    let mut est_rows = selected_rows;
    if analysis.aggregated {
        est_rows = if analysis.stmt.group_by.is_empty() {
            1.0
        } else {
            let groups: f64 = match table {
                Some(table) => analysis
                    .stmt
                    .group_by
                    .iter()
                    .map(|g| match bare_column(g) {
                        Some(col) => ctx
                            .stats
                            .column(table, col)
                            .map_or(DEFAULT_SEL * selected_rows.max(1.0), |c| c.distinct as f64),
                        None => DEFAULT_SEL * selected_rows.max(1.0),
                    })
                    .product(),
                None => selected_rows,
            };
            groups.min(selected_rows)
        };
    }
    if let Some(l) = analysis.stmt.limit {
        est_rows = est_rows.min(l as f64);
    }

    let attach_convoy = access == AccessPath::FullScan && chunks.len() > DEFAULT_INTERACTIVE_CHUNKS;
    let conjuncts = conjunct_exprs
        .iter()
        .zip(&ordered_sels)
        .zip(&costed)
        .map(|((e, sel), conjunct)| ConjunctEstimate {
            predicate: e.to_sql(),
            selectivity: *sel,
            cost: conjunct.cost,
        })
        .collect();
    Planned {
        choice: PlanChoice {
            access,
            conjuncts,
            reordered,
            topn_pushdown,
            est_rows,
            est_cost,
            scan_chunks: scan_chunks.len(),
            index_chunks: index_chunks.as_ref().map(Vec::len),
            attach_convoy,
        },
        chunks,
        chunks_pruned,
    }
}

impl PlanChoice {
    /// The q-error of the row estimate against an observed actual:
    /// `max(est/actual, actual/est)` with both sides floored at 1 row.
    /// 1.0 is a perfect estimate.
    pub fn q_error(&self, actual_rows: u64) -> f64 {
        let est = self.est_rows.max(1.0);
        let act = (actual_rows as f64).max(1.0);
        (est / act).max(act / est)
    }

    /// Renders the choice as deterministic `(item, value)` rows — the
    /// body of the EXPLAIN result table.
    pub fn render_rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        let access = match self.access {
            AccessPath::IndexLookup { keys } => format!("index_lookup(keys={keys})"),
            AccessPath::FullScan => "full_scan".to_string(),
        };
        rows.push(("access_path".to_string(), access));
        rows.push(("scan_chunks".to_string(), self.scan_chunks.to_string()));
        rows.push((
            "index_chunks".to_string(),
            self.index_chunks.map_or("-".to_string(), |n| n.to_string()),
        ));
        for (i, c) in self.conjuncts.iter().enumerate() {
            rows.push((
                format!("predicate[{i}]"),
                format!(
                    "{} (sel={:.4} cost={:.0})",
                    c.predicate, c.selectivity, c.cost
                ),
            ));
        }
        rows.push(("reordered".to_string(), self.reordered.to_string()));
        rows.push((
            "topn_pushdown".to_string(),
            self.topn_pushdown
                .map_or("off".to_string(), |n| format!("n={n}")),
        ));
        rows.push(("est_rows".to_string(), format!("{:.1}", self.est_rows)));
        rows.push(("est_cost".to_string(), format!("{:.1}", self.est_cost)));
        rows.push((
            "shared_scan".to_string(),
            if self.attach_convoy {
                "attach".to_string()
            } else {
                "independent".to_string()
            },
        ));
        rows
    }
}
