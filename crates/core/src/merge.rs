//! Incremental (streaming) result merging.
//!
//! The paper's §5.3 master gathers *every* per-chunk result table and
//! only then runs the merge query — a hard barrier whose peak memory is
//! the sum of all chunk results. [`Merger`], the only merge the master
//! runs, folds each chunk result into running merge state *as it
//! arrives*, keyed by the plan-time [`MergeShape`] classification:
//!
//! * **Append** — non-aggregated chunk tables are kept whole, in chunk
//!   order; a pushed-down `LIMIT n` (no ORDER BY) trims the part that
//!   reaches row n, column by column, and marks the merger *satisfied*
//!   so the dispatcher can cancel the remaining chunk queue.
//! * **Fold** — partial aggregates combine into per-group accumulator
//!   state (a hash on the group key), so peak memory is O(groups).
//! * **TopN** — `ORDER BY … LIMIT n` keeps a bounded top-n candidate set
//!   instead of the full sort input.
//! * **Barrier** — everything else buffers parts and runs the oracle.
//!
//! Exactness: parts are applied in sequence order — the master numbers
//! them along its dispatch walk — with out-of-order arrivals waiting in
//! a reorder buffer; accumulators are the engine's own [`AggAcc`], and
//! every result column has one type: the type of the first part, in that
//! order, that holds a non-NULL value in it. A part
//! whose column is all NULL carries no vote, and a later populated part
//! that disagrees is a [`QservError::Merge`] (§5.4 loads every chunk's
//! dump into one merge table, so chunk results share one schema).
//! [`Merger`] and [`merge_tables`] vote through the same function, and
//! a result that leaves as rows (a fold's final answer, a FROM-less
//! statement, a proxy verb's table) becomes a part through
//! [`ResultTable::into_table`] and votes through it too
//! ([`StreamBatch::of_result`]): one value rule and one vote rule type
//! every result column. The parts leave as they are — the proxy
//! forwards each as its own column frame, typed by its own schema, so
//! nothing downstream votes again.
//!
//! The Append shape's merge statement is the identity
//! (`SELECT * FROM result [LIMIT n]`), so its answer is its parts:
//! they leave through [`Merger::drain_ready`] as they arrive, and
//! [`Merger::finish`] runs no query for them. Every other shape runs
//! its compacted state through the ordinary merge query, so the final
//! projection, ORDER BY, and LIMIT semantics are byte-identical to
//! collecting every part first. The row-at-a-time [`merge_tables`] +
//! merge-query pair ([`merge_oracle`]) stays in-tree as the semantic
//! oracle the merge property tests compare against, and as the merge of
//! the Barrier shape and of an Append under ORDER BY. (One knowing
//! concession: a pushed-down LIMIT cutoff answers from the chunks it
//! saw, so a disagreeing part past the cutoff is never seen and raises
//! no error.)

use crate::error::QservError;
use crate::rewrite::{ColumnRole, MergeShape, PhysicalPlan};
use qserv_engine::db::Database;
use qserv_engine::exec::{execute, AggAcc, AggKind, ResultTable};
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_engine::value::{GroupKey, Value};
use qserv_sqlparse::ast::{Expr, OrderItem, SelectStatement};
use std::collections::{BTreeMap, HashMap};

/// One batch of merged rows emitted mid-query by a streaming sink (see
/// [`crate::QueryService::submit_streaming`]): the chunk tables the
/// merge has finished with since the last drain, moved out of the
/// merger uncopied. A column's type is the type of the first part, in
/// order across the batches of one query, that holds a non-NULL value
/// in it; parts that populate it agree (the merger rejects a
/// disagreeing one).
#[derive(Debug, Clone)]
pub struct StreamBatch {
    /// Output column names (identical across every batch of one query).
    pub columns: Vec<String>,
    /// The batch's rows, as whole tables in final order. Read a cell
    /// through [`Table::column_slice`] and [`Table::null_mask`]; a
    /// part's own schema type may differ from the column's type only in
    /// a column that is all NULL in that part.
    pub parts: Vec<Table>,
}

impl StreamBatch {
    /// A finished result as one batch: the rows become one part through
    /// [`ResultTable::into_table`], whose columns vote like any part's.
    pub fn of_result(result: ResultTable) -> StreamBatch {
        let columns = result.columns.clone();
        StreamBatch {
            columns,
            parts: vec![result.into_table()],
        }
    }

    /// Rows across the batch's parts.
    pub fn num_rows(&self) -> usize {
        self.parts.iter().map(Table::num_rows).sum()
    }
}

/// Reassembles a streamed query from its [`StreamBatch`]es into the
/// single table a buffered execution would have returned — the
/// consumer-side inverse of [`Merger::drain_ready`], used by the query
/// service's buffered `submit`, [`crate::StreamHandle::collect`],
/// [`Merger::finish`], and any caller that wants streaming transport
/// with a buffered API. It is the one place chunk tables become rows.
#[derive(Debug, Default)]
pub struct StreamCollector {
    columns: Option<Vec<String>>,
    parts: Vec<Table>,
}

impl StreamCollector {
    /// An empty collector.
    pub fn new() -> StreamCollector {
        StreamCollector::default()
    }

    /// Appends one batch's parts; the first batch fixes the columns.
    pub fn push(&mut self, batch: StreamBatch) {
        self.columns.get_or_insert(batch.columns);
        self.parts.extend(batch.parts);
    }

    /// The assembled table. Empty (no batches at all — an error before
    /// the final batch) yields an empty, columnless table.
    pub fn table(self) -> ResultTable {
        let rows = self
            .parts
            .iter()
            .flat_map(|part| (0..part.num_rows()).map(|r| part.row(r)))
            .collect();
        ResultTable {
            columns: self.columns.unwrap_or_default(),
            rows,
        }
    }
}

/// Concatenates per-chunk result tables under one type per column — the
/// type of the first part, in chunk order, that populates it (see the
/// module doc); a column no part populates is Float. This is the oracle
/// the streaming shapes are verified against.
pub fn merge_tables(parts: Vec<Table>) -> Result<Table, QservError> {
    let Some(first) = parts.first() else {
        return Ok(Table::new(Schema::new(vec![])));
    };
    let names = column_names(first);
    let mut votes: Vec<Option<ColumnType>> = vec![None; names.len()];
    for part in &parts {
        vote(&names, &mut votes, part)?;
    }
    let rows = parts
        .iter()
        .flat_map(|part| (0..part.num_rows()).map(|r| part.row(r)));
    build_table(&names, &votes, rows)
}

/// The barrier path: accumulate all parts into one table, run the merge
/// query. Returns the result plus the merged row count (for stats).
pub fn merge_oracle(
    merge_stmt: &SelectStatement,
    parts: Vec<Table>,
) -> Result<(ResultTable, usize), QservError> {
    let merged = merge_tables(parts)?;
    let rows = merged.num_rows();
    let mut db = Database::new();
    db.create_table("result", merged);
    let result = execute(&db, merge_stmt)?;
    Ok((result, rows))
}

/// A part's column names, in order.
fn column_names(part: &Table) -> Vec<String> {
    part.schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect()
}

/// The type a part's column `i` votes for: its schema type, or `None`
/// when every cell is NULL (a part with no rows votes for nothing).
fn ballot(part: &Table, i: usize) -> Option<ColumnType> {
    let all_null = part.null_mask(i).iter().all(|&null| null);
    (!all_null).then(|| part.schema().columns()[i].ty)
}

/// Checks a part's column names against the first part's, then lets it
/// vote: each column's type is the type of the first part, in chunk
/// order, that holds a non-NULL value in it. A column that is all NULL
/// in this part (or a part with no rows) carries no vote — its result
/// schema types such a column Float whatever the other chunks hold. A
/// populated column that disagrees with the settled type is an error.
/// [`Merger`] and [`merge_tables`] both vote here, in chunk order.
fn vote(
    names: &[String],
    votes: &mut [Option<ColumnType>],
    part: &Table,
) -> Result<(), QservError> {
    let cols = part.schema().columns();
    if cols.len() != names.len() || cols.iter().zip(names).any(|(c, n)| &c.name != n) {
        return Err(QservError::Merge(format!(
            "chunk results disagree on columns: {:?} vs {:?}",
            names,
            cols.iter().map(|c| &c.name).collect::<Vec<_>>()
        )));
    }
    for i in 0..cols.len() {
        let Some(ty) = ballot(part, i) else {
            continue;
        };
        match votes[i] {
            None => votes[i] = Some(ty),
            Some(t) if t == ty => {}
            Some(t) => {
                return Err(QservError::Merge(format!(
                    "column {} has incompatible types across chunks: {t} vs {ty}",
                    names[i]
                )))
            }
        }
    }
    Ok(())
}

/// Per-group running state of a [`State::Fold`].
struct Group {
    /// First-seen raw value per Key/Rep column (NULL placeholder under
    /// accumulator columns).
    reps: Vec<Value>,
    /// One accumulator per Sum/Min/Max column.
    accs: Vec<Option<AggAcc>>,
}

/// Role vector resolved against actual part columns.
struct FoldResolved {
    roles: Vec<ColumnRole>,
    /// Column indices participating in group identity, ascending.
    key_pos: Vec<usize>,
}

enum State {
    Append {
        /// Chunk tables in chunk order, not yet drained.
        parts: Vec<Table>,
        cutoff: Option<u64>,
        satisfied: bool,
    },
    TopN {
        n: usize,
        order: Vec<OrderItem>,
        /// Resolved (column index, desc) sort keys; `None` until the
        /// first part arrives.
        keys: Option<Vec<(usize, bool)>>,
        /// Candidate rows tagged with arrival rank (for stable ties);
        /// compacted back to n whenever it doubles.
        rows: Vec<(Vec<Value>, u64)>,
        arrival: u64,
    },
    Fold {
        /// (chunk output column name, role) from the plan.
        cols: Vec<(String, ColumnRole)>,
        resolved: Option<FoldResolved>,
        groups: HashMap<Vec<GroupKey>, Group>,
        /// Group keys in first-seen order.
        order: Vec<Vec<GroupKey>>,
    },
    Nearest {
        key: String,
        dist: String,
        /// (key column index, dist column index); `None` until the first
        /// part arrives. Unlike TopN/Fold there is no safe downgrade —
        /// the merge SQL cannot express keep-nearest — so resolution
        /// failure is an error.
        resolved: Option<(usize, usize)>,
        /// Best (minimum-distance) row seen so far per key. The update
        /// rule is commutative and associative, so the outcome is
        /// independent of part arrival order.
        best: HashMap<GroupKey, Vec<Value>>,
    },
    Barrier {
        parts: Vec<Table>,
    },
}

/// Folds per-chunk result tables into running merge state as they
/// arrive. Feed with [`Merger::fold`] (tagging each part with its
/// position in the fold order), then [`Merger::finish`].
pub struct Merger {
    merge_stmt: SelectStatement,
    state: State,
    /// Column names, fixed by the first part to arrive — so a merger
    /// satisfied before any part applies (`LIMIT 0`) still has them.
    names: Option<Vec<String>>,
    /// Per-column type votes (see [`vote`]).
    votes: Vec<Option<ColumnType>>,
    /// Reorder buffer for out-of-order arrivals.
    pending: BTreeMap<usize, Table>,
    next_seq: usize,
    peak_buffered: usize,
    rows_folded: usize,
}

impl Merger {
    /// A merger for one query, shaped by the plan's [`MergeShape`].
    pub fn new(plan: &PhysicalPlan) -> Merger {
        let state = match &plan.shape {
            MergeShape::Append { cutoff } => State::Append {
                parts: Vec::new(),
                cutoff: *cutoff,
                satisfied: *cutoff == Some(0),
            },
            MergeShape::TopN { n } => State::TopN {
                n: *n as usize,
                order: plan.merge_stmt.order_by.clone(),
                keys: None,
                rows: Vec::new(),
                arrival: 0,
            },
            MergeShape::Fold { roles } => State::Fold {
                cols: plan
                    .chunk_stmt
                    .projections
                    .iter()
                    .map(|p| p.output_name())
                    .zip(roles.iter().copied())
                    .collect(),
                resolved: None,
                groups: HashMap::new(),
                order: Vec::new(),
            },
            MergeShape::Nearest { key, dist } => State::Nearest {
                key: key.clone(),
                dist: dist.clone(),
                resolved: None,
                best: HashMap::new(),
            },
            MergeShape::Barrier => State::Barrier { parts: Vec::new() },
        };
        Merger {
            merge_stmt: plan.merge_stmt.clone(),
            state,
            names: None,
            votes: Vec::new(),
            pending: BTreeMap::new(),
            next_seq: 0,
            peak_buffered: 0,
            rows_folded: 0,
        }
    }

    /// True once no further parts can change the result (a pushed-down
    /// LIMIT is met): the dispatcher may cancel the remaining chunks.
    pub fn satisfied(&self) -> bool {
        match &self.state {
            State::Append { satisfied, .. } => *satisfied,
            State::TopN { n, .. } => *n == 0,
            _ => false,
        }
    }

    /// Rows consumed into merge state so far.
    pub fn rows_folded(&self) -> usize {
        self.rows_folded
    }

    /// High-water mark of parts held materialized at once (reorder
    /// buffer plus any barrier buffering).
    pub fn peak_buffered_parts(&self) -> usize {
        self.peak_buffered
    }

    /// Approximate bytes of live merge state (reorder buffer + shape
    /// state) — a peak-memory proxy.
    pub fn state_bytes(&self) -> u64 {
        fn value_bytes(v: &Value) -> u64 {
            16 + match v {
                Value::Str(s) => s.len() as u64,
                _ => 0,
            }
        }
        let pending: u64 = self.pending.values().map(|t| t.footprint_bytes()).sum();
        pending
            + match &self.state {
                State::Append { parts, .. } | State::Barrier { parts } => {
                    parts.iter().map(|t| t.footprint_bytes()).sum()
                }
                State::TopN { rows, .. } => rows
                    .iter()
                    .flat_map(|(r, _)| r)
                    .map(value_bytes)
                    .sum::<u64>(),
                State::Fold { groups, .. } => groups
                    .values()
                    .map(|g| g.reps.iter().map(value_bytes).sum::<u64>() + 32 * g.accs.len() as u64)
                    .sum(),
                State::Nearest { best, .. } => best
                    .values()
                    .map(|r| r.iter().map(value_bytes).sum::<u64>())
                    .sum(),
            }
    }

    /// True when this merger's shape supports incremental row emission:
    /// the Append state under a pure `SELECT * FROM result [LIMIT n]`
    /// merge statement (what `plain_merge` builds for the Append
    /// classification without ORDER BY). Every in-order fold then
    /// appends final rows — no projection, reordering, or grouping
    /// remains — so they can leave through [`Merger::drain_ready`]
    /// immediately. The Append state never downgrades, so
    /// streamability is stable for the life of the query.
    fn streamable(&self) -> bool {
        matches!(self.state, State::Append { .. })
            && self.merge_stmt.where_clause.is_none()
            && self.merge_stmt.group_by.is_empty()
            && self.merge_stmt.order_by.is_empty()
            && self.merge_stmt.projections.len() == 1
            && self.merge_stmt.projections[0].alias.is_none()
            && matches!(self.merge_stmt.projections[0].expr, Expr::Star)
    }

    /// Moves the chunk tables appended since the last drain out as a
    /// [`StreamBatch`]; `None` when the shape is not the identity
    /// Append, or no row has arrived since.
    /// Drained parts are *gone* from the merge state — [`Merger::finish`]
    /// answers with the undrained remainder alone (exact, because the
    /// Append cutoff already capped drained + remaining at n).
    pub fn drain_ready(&mut self) -> Option<StreamBatch> {
        if !self.streamable() {
            return None;
        }
        let names = self.names.as_ref()?;
        let State::Append { parts, .. } = &mut self.state else {
            return None;
        };
        if parts.iter().all(Table::is_empty) {
            return None;
        }
        Some(StreamBatch {
            columns: names.clone(),
            parts: std::mem::take(parts),
        })
    }

    /// Folds one chunk result. `seq` is the part's position in the fold
    /// order (0, 1, 2, …); parts arriving ahead of their turn wait in the
    /// reorder buffer so folds stay deterministic (float addition is not
    /// associative — in-order folding is what makes the streaming result
    /// bit-identical to the oracle's).
    pub fn fold(&mut self, seq: usize, part: Table) -> Result<(), QservError> {
        if self.names.is_none() {
            let names = column_names(&part);
            self.votes = vec![None; names.len()];
            self.names = Some(names);
        }
        if self.satisfied() {
            return Ok(());
        }
        self.pending.insert(seq, part);
        self.note_buffered();
        while let Some(part) = self.pending.remove(&self.next_seq) {
            self.next_seq += 1;
            self.apply(part)?;
            if self.satisfied() {
                self.pending.clear();
                break;
            }
        }
        self.note_buffered();
        Ok(())
    }

    fn note_buffered(&mut self) {
        let barrier = match &self.state {
            State::Barrier { parts } => parts.len(),
            _ => 0,
        };
        self.peak_buffered = self.peak_buffered.max(self.pending.len() + barrier);
    }

    /// Applies one in-order part to the shape state.
    fn apply(&mut self, mut part: Table) -> Result<(), QservError> {
        // Schema vote first, against the names `fold` took.
        let names = self.names.as_ref().expect("fold names the columns");
        vote(names, &mut self.votes, &part)?;

        // Nearest resolves its two named columns on the first part. There
        // is no safe downgrade (the merge SQL cannot express keep-nearest)
        // so a miss is an error, not a barrier.
        if let State::Nearest {
            key,
            dist,
            resolved: resolved @ None,
            ..
        } = &mut self.state
        {
            let ki = names.iter().position(|c| c == key);
            let di = names.iter().position(|c| c == dist);
            if let (Some(k), Some(d)) = (ki, di) {
                *resolved = Some((k, d));
            } else {
                let msg = format!(
                    "XMatch merge needs columns {key:?} and {dist:?}; chunk result has {names:?}"
                );
                return Err(QservError::Merge(msg));
            }
        }

        // First-part resolution: shapes that cannot bind to the actual
        // columns downgrade to the barrier (always-correct) state.
        let downgrade = match &mut self.state {
            State::TopN {
                order,
                keys: keys @ None,
                ..
            } => {
                // Mirror of the engine's `output_index` over a
                // `SELECT * FROM result` merge: an ORDER BY key must
                // match an output column by rendered SQL text, else the
                // engine would evaluate it as a hidden sort key — which
                // needs full rows, not a heap.
                let resolved: Option<Vec<(usize, bool)>> = order
                    .iter()
                    .map(|o| {
                        let sql = o.expr.to_sql();
                        names.iter().position(|c| *c == sql).map(|i| (i, o.desc))
                    })
                    .collect();
                match resolved {
                    Some(k) => {
                        *keys = Some(k);
                        false
                    }
                    None => true,
                }
            }
            State::Fold {
                cols,
                resolved: resolved @ None,
                ..
            } => {
                let roles: Option<Vec<ColumnRole>> = names
                    .iter()
                    .map(|n| cols.iter().find(|(cn, _)| cn == n).map(|(_, role)| *role))
                    .collect();
                match roles {
                    Some(roles) if roles.len() == cols.len() => {
                        let key_pos = roles
                            .iter()
                            .enumerate()
                            .filter(|(_, r)| **r == ColumnRole::Key)
                            .map(|(i, _)| i)
                            .collect();
                        *resolved = Some(FoldResolved { roles, key_pos });
                        false
                    }
                    _ => true,
                }
            }
            _ => false,
        };
        if downgrade {
            self.state = State::Barrier { parts: Vec::new() };
        }

        match &mut self.state {
            State::Append {
                parts,
                cutoff,
                satisfied,
            } => {
                // The Append state's folded rows are the rows it holds
                // or has drained, so the cutoff's room is what remains.
                if let Some(n) = *cutoff {
                    let room = n.saturating_sub(self.rows_folded as u64);
                    if part.num_rows() as u64 >= room {
                        part.truncate(room as usize);
                        *satisfied = true;
                    }
                }
                self.rows_folded += part.num_rows();
                parts.push(part);
            }
            State::TopN {
                n,
                keys,
                rows,
                arrival,
                ..
            } => {
                let keys = keys.as_ref().expect("resolved above");
                for r in 0..part.num_rows() {
                    rows.push((part.row(r), *arrival));
                    *arrival += 1;
                    self.rows_folded += 1;
                    if *n > 0 && rows.len() >= 2 * *n {
                        rows.sort_by(|a, b| cmp_candidates(a, b, keys));
                        rows.truncate(*n);
                    }
                }
            }
            State::Fold {
                resolved,
                groups,
                order,
                ..
            } => {
                let resolved = resolved.as_ref().expect("resolved above");
                // Hot path: the table is columnar, so cells are read
                // individually and the group key is built in a reused
                // scratch buffer — no per-row Vec allocations unless the
                // row opens a new group.
                let ncols = resolved.roles.len();
                let mut scratch: Vec<GroupKey> = Vec::with_capacity(resolved.key_pos.len());
                for r in 0..part.num_rows() {
                    self.rows_folded += 1;
                    scratch.clear();
                    for &i in &resolved.key_pos {
                        scratch.push(part.get(r, i).group_key());
                    }
                    if let Some(g) = groups.get_mut(scratch.as_slice()) {
                        for (i, acc) in g.accs.iter_mut().enumerate() {
                            if let Some(acc) = acc {
                                acc.update(Some(&part.get(r, i)));
                            }
                        }
                    } else {
                        let mut reps = vec![Value::Null; ncols];
                        let mut accs: Vec<Option<AggAcc>> = Vec::with_capacity(ncols);
                        for (i, role) in resolved.roles.iter().enumerate() {
                            let kind = match role {
                                ColumnRole::Sum => Some(AggKind::Sum),
                                ColumnRole::Min => Some(AggKind::Min),
                                ColumnRole::Max => Some(AggKind::Max),
                                ColumnRole::Key | ColumnRole::Rep => None,
                            };
                            match kind {
                                Some(k) => {
                                    let mut acc = AggAcc::new(k);
                                    acc.update(Some(&part.get(r, i)));
                                    accs.push(Some(acc));
                                }
                                None => {
                                    reps[i] = part.get(r, i);
                                    accs.push(None);
                                }
                            }
                        }
                        let key = scratch.clone();
                        order.push(key.clone());
                        groups.insert(key, Group { reps, accs });
                    }
                }
            }
            State::Nearest { resolved, best, .. } => {
                let (ki, di) = resolved.expect("resolved above");
                for r in 0..part.num_rows() {
                    self.rows_folded += 1;
                    let row = part.row(r);
                    let key = row[ki].group_key();
                    upsert_nearest(best, key, row, di);
                }
            }
            State::Barrier { parts } => {
                self.rows_folded += part.num_rows();
                parts.push(part);
            }
        }
        Ok(())
    }

    /// Runs the merge query over the compacted state and returns the
    /// final result (rows assembled by a [`StreamCollector`]).
    pub fn finish(self) -> Result<ResultTable, QservError> {
        let mut rows = StreamCollector::new();
        rows.push(self.finish_batch()?);
        Ok(rows.table())
    }

    /// The final result as the last batch of the stream: the identity
    /// Append's undrained parts as they are; for every other shape, the
    /// merge statement's answer over the compacted state
    /// ([`StreamBatch::of_result`]).
    pub(crate) fn finish_batch(self) -> Result<StreamBatch, QservError> {
        let identity = self.streamable();
        let names = self.names.unwrap_or_default();
        let votes = self.votes;
        let table = match self.state {
            State::Append { parts, .. } if identity => {
                return Ok(StreamBatch {
                    columns: names,
                    parts,
                });
            }
            State::Append { parts, .. } | State::Barrier { parts } => {
                let (result, _) = merge_oracle(&self.merge_stmt, parts)?;
                return Ok(StreamBatch::of_result(result));
            }
            State::TopN {
                n, keys, mut rows, ..
            } => {
                if let Some(keys) = &keys {
                    rows.sort_by(|a, b| cmp_candidates(a, b, keys));
                    rows.truncate(n);
                }
                build_table(&names, &votes, rows.into_iter().map(|(r, _)| r))?
            }
            State::Fold {
                resolved,
                groups,
                order,
                ..
            } => {
                let mut rows: Vec<Vec<Value>> = Vec::with_capacity(order.len());
                if let Some(resolved) = &resolved {
                    for key in &order {
                        let g = &groups[key];
                        let row: Vec<Value> = resolved
                            .roles
                            .iter()
                            .enumerate()
                            .map(|(i, role)| match role {
                                ColumnRole::Key | ColumnRole::Rep => g.reps[i].clone(),
                                _ => g.accs[i]
                                    .as_ref()
                                    .expect("acc role has an accumulator")
                                    .finish(),
                            })
                            .collect();
                        rows.push(row);
                    }
                }
                build_table(&names, &votes, rows)?
            }
            State::Nearest { resolved, best, .. } => {
                let mut rows: Vec<Vec<Value>> = best.into_values().collect();
                if let Some((ki, _)) = resolved {
                    // Keys are unique per row, so ordering by key alone is
                    // a total, arrival-order-independent order.
                    rows.sort_by(|a, b| a[ki].total_cmp(&b[ki]));
                }
                build_table(&names, &votes, rows)?
            }
        };
        let mut db = Database::new();
        db.create_table("result", table);
        Ok(StreamBatch::of_result(execute(&db, &self.merge_stmt)?))
    }
}

/// Keep-nearest update: replaces the stored best row for `key` when
/// `row` is strictly closer, with equal distances broken by full-row
/// lexicographic comparison. Commutative and associative, so the merged
/// outcome is independent of fold order.
fn upsert_nearest(
    best: &mut HashMap<GroupKey, Vec<Value>>,
    key: GroupKey,
    row: Vec<Value>,
    di: usize,
) {
    match best.entry(key) {
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(row);
        }
        std::collections::hash_map::Entry::Occupied(mut e) => {
            let cur = e.get();
            let replace = match row[di].total_cmp(&cur[di]) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => row
                    .iter()
                    .zip(cur.iter())
                    .find_map(|(a, b)| match a.total_cmp(b) {
                        std::cmp::Ordering::Equal => None,
                        ord => Some(ord == std::cmp::Ordering::Less),
                    })
                    .unwrap_or(false),
            };
            if replace {
                e.insert(row);
            }
        }
    }
}

/// Total order over top-n candidates: the resolved sort keys first
/// (ties broken by arrival rank), reproducing the engine's stable
/// sort-then-truncate.
fn cmp_candidates(
    a: &(Vec<Value>, u64),
    b: &(Vec<Value>, u64),
    keys: &[(usize, bool)],
) -> std::cmp::Ordering {
    for &(i, desc) in keys {
        let ord = a.0[i].total_cmp(&b.0[i]);
        if ord != std::cmp::Ordering::Equal {
            return if desc { ord.reverse() } else { ord };
        }
    }
    a.1.cmp(&b.1)
}

/// Materializes buffered rows under the voted schema; a column no part
/// populated is Float.
fn build_table(
    names: &[String],
    votes: &[Option<ColumnType>],
    rows: impl IntoIterator<Item = Vec<Value>>,
) -> Result<Table, QservError> {
    let schema = Schema::new(
        names
            .iter()
            .zip(votes)
            .map(|(n, t)| ColumnDef::new(n, t.unwrap_or(ColumnType::Float)))
            .collect(),
    );
    let mut out = Table::new(schema);
    for row in rows {
        out.push_row(row)
            .map_err(|e| QservError::Merge(e.to_string()))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::meta::CatalogMeta;
    use crate::rewrite::build_plan;
    use qserv_sqlparse::parse_select;

    fn table_of(cols: &[(&str, ColumnType)], rows: Vec<Vec<Value>>) -> Table {
        let schema = Schema::new(cols.iter().map(|(n, t)| ColumnDef::new(n, *t)).collect());
        let mut t = Table::new(schema);
        for r in rows {
            t.push_row(r).unwrap();
        }
        t
    }

    fn plan_for(sql: &str) -> PhysicalPlan {
        let meta = CatalogMeta::lsst();
        let a = analyze(&parse_select(sql).unwrap(), &meta).unwrap();
        build_plan(&a, &meta).unwrap()
    }

    #[test]
    fn merge_tables_rejects_int_vs_float() {
        let a = table_of(&[("x", ColumnType::Int)], vec![vec![Value::Int(1)]]);
        let b = table_of(&[("x", ColumnType::Float)], vec![vec![Value::Float(2.5)]]);
        let err = merge_tables(vec![a, b]).unwrap_err();
        assert!(matches!(err, QservError::Merge(_)), "{err}");
    }

    #[test]
    fn null_only_part_does_not_vote() {
        // An all-NULL column is typed Float by its worker; between two Int
        // parts it leaves the column Int, streamed and oracle alike.
        let plan = plan_for("SELECT objectId FROM Object");
        let int = |v: i64| table_of(&[("objectId", ColumnType::Int)], vec![vec![Value::Int(v)]]);
        let nulls = table_of(
            &[("objectId", ColumnType::Float)],
            vec![vec![Value::Null], vec![Value::Null]],
        );
        let parts = vec![int(1), nulls, int(2)];
        let m = merge_tables(parts.clone()).unwrap();
        assert_eq!(m.schema().columns()[0].ty, ColumnType::Int);
        let mut merger = Merger::new(&plan);
        for (seq, part) in parts.into_iter().enumerate() {
            merger.fold(seq, part).unwrap();
        }
        let batch = merger.finish_batch().unwrap();
        let ballots: Vec<_> = batch.parts.iter().map(|part| ballot(part, 0)).collect();
        assert_eq!(
            ballots,
            vec![Some(ColumnType::Int), None, Some(ColumnType::Int)]
        );
        let mut rows = StreamCollector::new();
        rows.push(batch);
        let r = rows.table();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1)],
                vec![Value::Null],
                vec![Value::Null],
                vec![Value::Int(2)]
            ]
        );
    }

    #[test]
    fn merge_tables_empty_part_adopts_other_schema() {
        let empty = table_of(&[("x", ColumnType::Float)], vec![]);
        let full = table_of(&[("x", ColumnType::Int)], vec![vec![Value::Int(3)]]);
        let m = merge_tables(vec![empty, full]).unwrap();
        assert_eq!(m.schema().columns()[0].ty, ColumnType::Int);
        assert_eq!(m.num_rows(), 1);
    }

    #[test]
    fn merge_tables_rejects_mismatched_columns() {
        let a = table_of(&[("x", ColumnType::Int)], vec![]);
        let b = table_of(&[("y", ColumnType::Int)], vec![]);
        assert!(merge_tables(vec![a, b]).is_err());
    }

    #[test]
    fn merge_tables_no_parts_is_empty() {
        let m = merge_tables(vec![]).unwrap();
        assert_eq!(m.num_rows(), 0);
    }

    #[test]
    fn append_cutoff_satisfies_mid_part() {
        let plan = plan_for("SELECT objectId FROM Object LIMIT 3");
        assert_eq!(plan.shape, MergeShape::Append { cutoff: Some(3) });
        let mut m = Merger::new(&plan);
        let part = table_of(
            &[("objectId", ColumnType::Int)],
            (0..5).map(|i| vec![Value::Int(i)]).collect(),
        );
        m.fold(0, part).unwrap();
        assert!(m.satisfied());
        assert_eq!(m.rows_folded(), 3);
        let r = m.finish().unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(2)]
            ]
        );
    }

    #[test]
    fn out_of_order_parts_fold_in_chunk_order() {
        let plan = plan_for("SELECT objectId FROM Object");
        let part = |v: i64| table_of(&[("objectId", ColumnType::Int)], vec![vec![Value::Int(v)]]);
        let mut m = Merger::new(&plan);
        m.fold(2, part(2)).unwrap();
        m.fold(1, part(1)).unwrap();
        assert_eq!(m.rows_folded(), 0, "parts wait for seq 0");
        assert_eq!(m.peak_buffered_parts(), 2);
        m.fold(0, part(0)).unwrap();
        assert_eq!(m.rows_folded(), 3);
        let r = m.finish().unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(2)]
            ]
        );
    }

    #[test]
    fn topn_keeps_bounded_candidates() {
        let plan = plan_for("SELECT objectId FROM Object ORDER BY objectId DESC LIMIT 2");
        assert_eq!(plan.shape, MergeShape::TopN { n: 2 });
        let mut m = Merger::new(&plan);
        for (seq, base) in [0i64, 100, 50].into_iter().enumerate() {
            let part = table_of(
                &[("objectId", ColumnType::Int)],
                (0..20).map(|i| vec![Value::Int(base + i)]).collect(),
            );
            m.fold(seq, part).unwrap();
        }
        assert!(m.state_bytes() < 20 * 3 * 16, "candidate set stays bounded");
        let r = m.finish().unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(119)], vec![Value::Int(118)]]);
    }

    #[test]
    fn incompatible_types_error_matches_oracle() {
        let plan = plan_for("SELECT objectId FROM Object");
        let a = table_of(&[("objectId", ColumnType::Int)], vec![vec![Value::Int(1)]]);
        let b = table_of(
            &[("objectId", ColumnType::Str)],
            vec![vec![Value::Str("x".into())]],
        );
        let oracle_err = merge_tables(vec![a.clone(), b.clone()]).unwrap_err();
        let mut m = Merger::new(&plan);
        m.fold(0, a).unwrap();
        let stream_err = m.fold(1, b).unwrap_err();
        assert_eq!(oracle_err.to_string(), stream_err.to_string());
    }
}
