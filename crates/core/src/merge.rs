//! Incremental (streaming) result merging.
//!
//! The paper's §5.3 master gathers *every* per-chunk result table and
//! only then runs the merge query — a hard barrier whose peak memory is
//! the sum of all chunk results. [`Merger`], the only merge the master
//! runs, folds each chunk result into running merge state *as it
//! arrives*, keyed by the plan-time [`MergeShape`] classification:
//!
//! * **Append** — non-aggregated rows are appended directly; a
//!   pushed-down `LIMIT n` (no ORDER BY) marks the merger *satisfied*
//!   after n rows so the dispatcher can cancel the remaining chunk queue.
//! * **Fold** — partial aggregates combine into per-group accumulator
//!   state (a hash on the group key), so peak memory is O(groups).
//! * **TopN** — `ORDER BY … LIMIT n` keeps a bounded top-n candidate set
//!   instead of the full sort input.
//! * **Barrier** — everything else buffers parts and runs the oracle.
//!
//! Exactness: parts are applied in ascending chunk order (out-of-order
//! arrivals wait in a reorder buffer), accumulators are the engine's own
//! [`AggAcc`], and column-type widening replays [`merge_tables`]'s voting
//! incrementally — when a column's vote flips Int→Float, existing group
//! keys are re-coerced and re-keyed. The compacted state is then run
//! through the ordinary merge query, so the final projection, ORDER BY,
//! and LIMIT semantics are byte-identical to collecting every part
//! first. The row-at-a-time [`merge_tables`] + merge-query pair
//! ([`merge_oracle`]) stays in-tree as the semantic oracle the merge
//! property tests compare against, and as the Barrier shape's merge.
//! (One knowing concession: a pushed-down LIMIT cutoff answers from the
//! chunks it saw, which is a *valid* LIMIT answer but only bit-identical
//! to the oracle when workers return type-stable columns — which the
//! real pipeline does by construction.)

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
/// [`crate::Qserv::query_streaming`]): the rows appended since the last
/// drain, coerced under the type votes in effect when the batch was
/// cut. A later chunk may widen a column Int→Float, so consumers that
/// accumulate batches must re-coerce earlier rows when `types` widen —
/// which is exact, because the only widening step is Int→Float.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamBatch {
    /// Output column names (identical across every batch of one query).
    pub columns: Vec<String>,
    /// Per-column type votes at drain time; `None` means no populated
    /// part has voted yet (the column is all-NULL so far).
    pub types: Vec<Option<ColumnType>>,
    /// The batch rows, coerced under `types`.
    pub rows: Vec<Vec<Value>>,
}

/// Reassembles a streamed query from its [`StreamBatch`]es into the
/// single table a buffered execution would have returned — the
/// consumer-side inverse of [`Merger::drain_ready`], used by the query
/// service's buffered `submit`, [`crate::StreamHandle::collect`], and
/// any caller that wants streaming transport with a buffered API.
/// When a batch widens a column's type
/// (Int→Float, the only widening step), previously collected Int rows
/// are re-coerced, which is exact.
#[derive(Debug, Default)]
pub struct StreamCollector {
    columns: Option<Vec<String>>,
    types: Vec<Option<ColumnType>>,
    rows: Vec<Vec<Value>>,
}

impl StreamCollector {
    /// An empty collector.
    pub fn new() -> StreamCollector {
        StreamCollector::default()
    }

    /// Folds one batch in, re-coercing earlier rows under any widened
    /// column types.
    pub fn push(&mut self, batch: StreamBatch) {
        if self.columns.is_none() {
            self.columns = Some(batch.columns);
            self.types = vec![None; batch.types.len()];
        }
        for (i, ty) in batch.types.iter().enumerate() {
            let widened = matches!(
                (self.types[i], ty),
                (None, Some(_)) | (Some(ColumnType::Int), Some(ColumnType::Float))
            );
            if widened {
                self.types[i] = *ty;
                if *ty == Some(ColumnType::Float) {
                    for row in &mut self.rows {
                        if let Value::Int(x) = row[i] {
                            row[i] = Value::Float(x as f64);
                        }
                    }
                }
            }
        }
        let types = &self.types;
        self.rows.extend(batch.rows.into_iter().map(|row| {
            row.into_iter()
                .zip(types)
                .map(|(v, t)| coerce_owned(v, *t))
                .collect()
        }));
    }

    /// The assembled table. Empty (no batches at all — an error before
    /// the final batch) yields an empty, columnless table.
    pub fn table(self) -> ResultTable {
        ResultTable {
            columns: self.columns.unwrap_or_default(),
            rows: self.rows,
        }
    }
}

/// Per-column types inferred by scanning a final result's values (the
/// tag source for shapes that emit a single terminal batch): any Float
/// makes the column Float, else any Int makes it Int, any Str makes it
/// Str, all-NULL stays `None`. Mixed Int/Float cannot occur in merge
/// output (values were coerced under the vote), and Str never mixes
/// with numerics (the vote errors on that), so scanning is a fold over
/// the same lattice the vote walks.
pub fn infer_value_types(result: &ResultTable) -> Vec<Option<ColumnType>> {
    let mut types: Vec<Option<ColumnType>> = vec![None; result.columns.len()];
    for row in &result.rows {
        for (slot, v) in types.iter_mut().zip(row) {
            let seen = match v {
                Value::Null => continue,
                Value::Int(_) => ColumnType::Int,
                Value::Float(_) => ColumnType::Float,
                Value::Str(_) => ColumnType::Str,
            };
            *slot = Some(match (*slot, seen) {
                (None, t) => t,
                (Some(ColumnType::Int), ColumnType::Float)
                | (Some(ColumnType::Float), ColumnType::Int) => ColumnType::Float,
                (Some(a), _) => a,
            });
        }
    }
    types
}

/// Concatenates per-chunk result tables, unifying schemas by widening
/// (Int + Float ⇒ Float; an empty chunk's all-NULL "Float" columns adopt
/// the populated chunks' types). This is the oracle the streaming shapes
/// are verified against.
pub fn merge_tables(parts: Vec<Table>) -> Result<Table, QservError> {
    let Some(first) = parts.first() else {
        return Ok(Table::new(Schema::new(vec![])));
    };
    let names: Vec<String> = first
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    // Widen column types across parts. Empty parts carry no evidence
    // (their dump schemas default all-NULL columns to Float), so only
    // populated parts vote; columns never populated stay Float.
    let mut types: Vec<Option<ColumnType>> = vec![None; names.len()];
    for part in &parts {
        check_names(&names, part)?;
        if part.num_rows() == 0 {
            continue;
        }
        for (i, c) in part.schema().columns().iter().enumerate() {
            types[i] = Some(vote_one(types[i], c.ty, &names[i])?.0);
        }
    }
    let types: Vec<ColumnType> = types
        .into_iter()
        .map(|t| t.unwrap_or(ColumnType::Float))
        .collect();
    let schema = Schema::new(
        names
            .iter()
            .zip(&types)
            .map(|(n, t)| ColumnDef::new(n, *t))
            .collect(),
    );
    let mut out = Table::new(schema);
    for part in &parts {
        for r in 0..part.num_rows() {
            let row: Vec<Value> = part
                .row(r)
                .into_iter()
                .zip(&types)
                .map(|(v, t)| coerce_owned(v, Some(*t)))
                .collect();
            out.push_row(row)
                .map_err(|e| QservError::Merge(e.to_string()))?;
        }
    }
    Ok(out)
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

/// Validates a part's column names against the first part's.
fn check_names(names: &[String], part: &Table) -> Result<(), QservError> {
    let cols = part.schema().columns();
    if cols.len() != names.len() || cols.iter().zip(names).any(|(c, n)| &c.name != n) {
        return Err(QservError::Merge(format!(
            "chunk results disagree on columns: {:?} vs {:?}",
            names,
            cols.iter().map(|c| &c.name).collect::<Vec<_>>()
        )));
    }
    Ok(())
}

/// One step of the widening vote; the bool is "flipped Int→Float now",
/// which obliges a [`State::Fold`] re-key of existing groups.
fn vote_one(
    prev: Option<ColumnType>,
    seen: ColumnType,
    name: &str,
) -> Result<(ColumnType, bool), QservError> {
    match (prev, seen) {
        (None, t) => Ok((t, false)),
        (Some(a), b) if a == b => Ok((a, false)),
        (Some(ColumnType::Int), ColumnType::Float) => Ok((ColumnType::Float, true)),
        (Some(ColumnType::Float), ColumnType::Int) => Ok((ColumnType::Float, false)),
        (Some(a), b) => Err(QservError::Merge(format!(
            "column {name} has incompatible types across chunks: {a} vs {b}"
        ))),
    }
}

/// Widens a raw value to the column's current vote (the coercion
/// [`merge_tables`] applies when materializing the merged table).
fn coerce_owned(v: Value, ty: Option<ColumnType>) -> Value {
    match (ty, v) {
        (Some(ColumnType::Float), Value::Int(x)) => Value::Float(x as f64),
        (_, v) => v,
    }
}

fn coerce(v: &Value, ty: Option<ColumnType>) -> Value {
    coerce_owned(v.clone(), ty)
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
        rows: Vec<Vec<Value>>,
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
/// position in the ascending chunk order), then [`Merger::finish`].
pub struct Merger {
    merge_stmt: SelectStatement,
    state: State,
    /// Column names, fixed by the first applied part.
    names: Option<Vec<String>>,
    /// Per-column widening votes (populated parts only).
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
                rows: Vec::new(),
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
                State::Append { rows, .. } => rows.iter().flatten().map(value_bytes).sum::<u64>(),
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
                State::Barrier { parts } => parts.iter().map(|t| t.footprint_bytes()).sum(),
            }
    }

    /// True when this merger's shape supports incremental row emission:
    /// the Append state under a pure `SELECT * FROM result [LIMIT n]`
    /// merge statement (exactly what `plain_merge` builds for the
    /// Append classification). Every in-order fold then appends final
    /// rows — no projection, reordering, or grouping remains — so they
    /// can leave through [`Merger::drain_ready`] immediately. The
    /// Append state never downgrades, so streamability is stable for
    /// the life of the query.
    pub fn streamable(&self) -> bool {
        matches!(self.state, State::Append { .. })
            && self.merge_stmt.where_clause.is_none()
            && self.merge_stmt.group_by.is_empty()
            && self.merge_stmt.order_by.is_empty()
            && self.merge_stmt.projections.len() == 1
            && self.merge_stmt.projections[0].alias.is_none()
            && matches!(self.merge_stmt.projections[0].expr, Expr::Star)
    }

    /// The per-column widening votes so far (`None` = no populated part
    /// has voted). Exposed so the streaming epilogue can type its final
    /// batch under the same votes the buffered path materializes with.
    pub fn vote_types(&self) -> &[Option<ColumnType>] {
        &self.votes
    }

    /// Takes the rows appended since the last drain as a [`StreamBatch`]
    /// coerced under the current votes; `None` when the shape is not
    /// [`Merger::streamable`], no part has applied yet, or nothing new
    /// has arrived. Drained rows are *gone* from the merge state —
    /// [`Merger::finish`] returns only the undrained remainder (its
    /// `SELECT * … LIMIT n` over the remainder is still exact, because
    /// the Append cutoff already capped drained + remaining at n).
    pub fn drain_ready(&mut self) -> Option<StreamBatch> {
        if !self.streamable() {
            return None;
        }
        let names = self.names.as_ref()?;
        let State::Append { rows, .. } = &mut self.state else {
            return None;
        };
        if rows.is_empty() {
            return None;
        }
        let taken = std::mem::take(rows);
        let types = self.votes.clone();
        let rows = taken
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .zip(&self.votes)
                    .map(|(v, t)| coerce_owned(v, *t))
                    .collect()
            })
            .collect();
        Some(StreamBatch {
            columns: names.clone(),
            types,
            rows,
        })
    }

    /// Folds one chunk result. `seq` is the part's position in ascending
    /// chunk order; parts arriving ahead of their turn wait in the
    /// reorder buffer so folds stay deterministic (float addition is not
    /// associative — in-order folding is what makes the streaming result
    /// bit-identical to the oracle's).
    pub fn fold(&mut self, seq: usize, part: Table) -> Result<(), QservError> {
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
    fn apply(&mut self, part: Table) -> Result<(), QservError> {
        // Schema vote first: fixes names on the first part, widens types
        // on every populated one.
        let cols = part.schema().columns();
        if self.names.is_none() {
            self.names = Some(cols.iter().map(|c| c.name.clone()).collect());
            self.votes = vec![None; cols.len()];
        }
        let names = self.names.as_ref().expect("set above");
        check_names(names, &part)?;
        let mut flipped: Vec<usize> = Vec::new();
        if part.num_rows() > 0 {
            for (i, c) in cols.iter().enumerate() {
                let (ty, flip) = vote_one(self.votes[i], c.ty, &names[i])?;
                self.votes[i] = Some(ty);
                if flip {
                    flipped.push(i);
                }
            }
        }

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

        let votes = &self.votes;
        match &mut self.state {
            State::Append {
                rows,
                cutoff,
                satisfied,
            } => {
                for r in 0..part.num_rows() {
                    if *satisfied {
                        break;
                    }
                    rows.push(part.row(r));
                    self.rows_folded += 1;
                    if let Some(n) = cutoff {
                        if rows.len() as u64 >= *n {
                            *satisfied = true;
                        }
                    }
                }
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
                // An Int→Float flip on a key column changes group
                // identity (Int(1) and Float(1.0) hash apart): re-key
                // every existing group under the widened vote. Distinct
                // Int keys rounding to one f64 merge here, exactly as
                // the oracle's upfront widening would have merged them.
                if flipped.iter().any(|i| resolved.key_pos.contains(i)) {
                    let mut regrouped: HashMap<Vec<GroupKey>, Group> =
                        HashMap::with_capacity(groups.len());
                    let mut reordered: Vec<Vec<GroupKey>> = Vec::with_capacity(order.len());
                    for old_key in order.drain(..) {
                        let g = groups.remove(&old_key).expect("order tracks groups");
                        let new_key: Vec<GroupKey> = resolved
                            .key_pos
                            .iter()
                            .map(|&i| coerce(&g.reps[i], votes[i]).group_key())
                            .collect();
                        match regrouped.entry(new_key.clone()) {
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(g);
                                reordered.push(new_key);
                            }
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                merge_groups(e.get_mut(), g);
                            }
                        }
                    }
                    *groups = regrouped;
                    *order = reordered;
                }
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
                        scratch.push(coerce(&part.get(r, i), votes[i]).group_key());
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
                let (ki, _di) = resolved.expect("resolved above");
                // An Int→Float flip on the key column changes group
                // identity: re-key surviving rows under the widened vote
                // (mirrors the Fold re-key).
                if flipped.contains(&ki) {
                    let old = std::mem::take(best);
                    for (_, row) in old {
                        let key = coerce(&row[ki], votes[ki]).group_key();
                        upsert_nearest(best, key, row, resolved.expect("resolved").1);
                    }
                }
                let di = resolved.expect("resolved above").1;
                for r in 0..part.num_rows() {
                    self.rows_folded += 1;
                    let row = part.row(r);
                    let key = coerce(&row[ki], votes[ki]).group_key();
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
    /// final result.
    pub fn finish(self) -> Result<ResultTable, QservError> {
        let names = self.names.unwrap_or_default();
        let votes = self.votes;
        let table = match self.state {
            State::Barrier { parts } => {
                return merge_oracle(&self.merge_stmt, parts).map(|(r, _)| r);
            }
            State::Append { rows, .. } => build_table(&names, &votes, rows)?,
            State::TopN {
                n, keys, mut rows, ..
            } => {
                if let Some(keys) = &keys {
                    rows.sort_by(|a, b| cmp_candidates(a, b, keys));
                    rows.truncate(n);
                }
                build_table(&names, &votes, rows.into_iter().map(|(r, _)| r).collect())?
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
                                _ => {
                                    let widen = votes[i] == Some(ColumnType::Float);
                                    g.accs[i]
                                        .as_ref()
                                        .expect("acc role has an accumulator")
                                        .finish_widened(widen)
                                }
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
        execute(&db, &self.merge_stmt).map_err(QservError::from)
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

/// Materializes buffered raw rows under the voted schema.
fn build_table(
    names: &[String],
    votes: &[Option<ColumnType>],
    rows: Vec<Vec<Value>>,
) -> Result<Table, QservError> {
    let types: Vec<ColumnType> = votes
        .iter()
        .map(|t| t.unwrap_or(ColumnType::Float))
        .collect();
    let schema = Schema::new(
        names
            .iter()
            .zip(&types)
            .map(|(n, t)| ColumnDef::new(n, *t))
            .collect(),
    );
    let mut out = Table::new(schema);
    for row in rows {
        let row: Vec<Value> = row
            .into_iter()
            .zip(&types)
            .map(|(v, t)| coerce_owned(v, Some(*t)))
            .collect();
        out.push_row(row)
            .map_err(|e| QservError::Merge(e.to_string()))?;
    }
    Ok(out)
}

/// Merges a later group into an earlier one — only reachable when an
/// Int→Float key flip rounds two distinct Int keys onto one f64.
fn merge_groups(into: &mut Group, from: Group) {
    for (a, b) in into.accs.iter_mut().zip(from.accs) {
        if let (Some(a), Some(b)) = (a.as_mut(), b) {
            combine_acc(a, &b);
        }
    }
}

/// Combines two accumulators over disjoint row sets.
fn combine_acc(a: &mut AggAcc, b: &AggAcc) {
    match b {
        AggAcc::Count(y) => {
            if let AggAcc::Count(x) = a {
                *x += *y;
            }
        }
        AggAcc::Sum {
            int: i2,
            float: f2,
            saw_float: sf2,
            saw_any: sa2,
        } => {
            if let AggAcc::Sum {
                int,
                float,
                saw_float,
                saw_any,
            } = a
            {
                *int = int.saturating_add(*i2);
                *float += *f2;
                *saw_float |= *sf2;
                *saw_any |= *sa2;
            }
        }
        AggAcc::Avg { sum: s2, n: n2 } => {
            if let AggAcc::Avg { sum, n } = a {
                *sum += *s2;
                *n += *n2;
            }
        }
        AggAcc::MinMax { best: Some(v), .. } => a.update(Some(v)),
        AggAcc::MinMax { best: None, .. } => {}
    }
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
    fn merge_tables_widens_int_to_float() {
        let a = table_of(&[("x", ColumnType::Int)], vec![vec![Value::Int(1)]]);
        let b = table_of(&[("x", ColumnType::Float)], vec![vec![Value::Float(2.5)]]);
        let m = merge_tables(vec![a, b]).unwrap();
        assert_eq!(m.num_rows(), 2);
        assert_eq!(m.get(0, 0), Value::Float(1.0));
        assert_eq!(m.get(1, 0), Value::Float(2.5));
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
    fn fold_matches_oracle_with_widening_rekey() {
        // Part 0 types the group key Int, part 1 flips it to Float:
        // Int(1) groups must re-key onto Float(1.0).
        let plan = plan_for("SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId");
        let cols_int = [("chunkId", ColumnType::Int), ("COUNT(*)", ColumnType::Int)];
        let cols_float = [
            ("chunkId", ColumnType::Float),
            ("COUNT(*)", ColumnType::Int),
        ];
        let p0 = table_of(
            &cols_int,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        );
        let p1 = table_of(
            &cols_float,
            vec![
                vec![Value::Float(1.0), Value::Int(5)],
                vec![Value::Null, Value::Int(7)],
            ],
        );
        let (oracle, _) = merge_oracle(&plan.merge_stmt, vec![p0.clone(), p1.clone()]).unwrap();
        let mut m = Merger::new(&plan);
        m.fold(0, p0).unwrap();
        m.fold(1, p1).unwrap();
        let streamed = m.finish().unwrap();
        assert_eq!(streamed, oracle);
        // Int(1) and Float(1.0) landed in one group: 3 groups total.
        assert_eq!(streamed.num_rows(), 3);
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
