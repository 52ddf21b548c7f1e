//! Incremental (streaming) result merging.
//!
//! The paper's §5.3 master loads every chunk result into one merge table
//! and runs the merge query over it on the engine it already has. The
//! [`Merger`], the only merge the master runs, does the same without the
//! barrier: each chunk result feeds the merge as it arrives, in chunk
//! order, keyed by the plan-time [`MergeShape`]:
//!
//! * **Append** — the identity merge (`SELECT * FROM result [LIMIT n]`):
//!   its answer is its parts. Chunk tables are kept whole, in chunk
//!   order, and leave through [`Merger::drain_ready`] as they arrive; a
//!   pushed-down `LIMIT n` trims the part that reaches row n, column by
//!   column, and marks the merger *satisfied* so the dispatcher can
//!   cancel the remaining chunk queue.
//! * **Nearest** — XMatch keep-nearest, which the merge SQL cannot
//!   express: the closest row per key, emitted as one part at finish.
//! * **Query** — every other merge: each part is pushed into the
//!   engine's [`TableSink`] for the merge statement, which finishes
//!   exactly as the statement would over the concatenated parts —
//!   grouping, the post-aggregate projection (§5.3's `SUM/SUM` for AVG),
//!   ORDER BY and LIMIT are the engine's own. Under `ORDER BY … LIMIT n`
//!   the sink holds at most 2n rows, so a global top-n never materializes
//!   every candidate.
//!
//! Exactness: parts are applied in sequence order — the master numbers
//! them along its dispatch walk — with out-of-order arrivals waiting in
//! a reorder buffer, so the merge statement reads the same rows in the
//! same order as over the concatenation (float addition is not
//! associative). Every result column has one type: the type of the first
//! part, in that order, that holds a non-NULL value in it. A part whose
//! column is all NULL carries no vote, and a later populated part that
//! disagrees is a [`QservError::Merge`] (§5.4 loads every chunk's dump
//! into one merge table, so chunk results share one schema). [`Merger`]
//! and [`merge_tables`] vote through the same function, and a result
//! that leaves as rows (a Query merge's answer, a FROM-less statement, a
//! proxy verb's table) becomes a part through
//! [`ResultTable::into_table`] and votes through it too
//! ([`StreamBatch::of_result`]): one value rule and one vote rule type
//! every result column. The parts leave as they are — the proxy
//! forwards each as its own column frame, typed by its own schema, so
//! nothing downstream votes again.
//!
//! The row-at-a-time [`merge_tables`] + merge-query pair
//! ([`merge_oracle`]) stays in-tree as the semantic oracle the merge
//! property tests compare against. (One knowing concession: a
//! pushed-down LIMIT cutoff answers from the chunks it saw, so a
//! disagreeing part past the cutoff is never seen and raises no error.)

use crate::error::QservError;
use crate::rewrite::{MergeShape, PhysicalPlan};
use qserv_engine::exec::{ResultTable, TableSink};
use qserv_engine::schema::{ColumnDef, ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_engine::value::{GroupKey, Value};
use qserv_sqlparse::ast::SelectStatement;
use std::collections::{BTreeMap, HashMap};

#[cfg(doc)]
use crate::testing::{merge_oracle, merge_tables};

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

/// A part's column names, in order.
pub(crate) fn column_names(part: &Table) -> Vec<String> {
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
pub(crate) fn vote(
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

enum State {
    Append {
        /// Chunk tables in chunk order, not yet drained.
        parts: Vec<Table>,
        cutoff: Option<u64>,
        satisfied: bool,
    },
    Nearest {
        key: String,
        dist: String,
        /// (key column index, dist column index); `None` until the first
        /// part arrives. The merge SQL cannot express keep-nearest, so
        /// failing to resolve them is an error.
        resolved: Option<(usize, usize)>,
        /// Best (minimum-distance) row seen so far per key. The update
        /// rule is commutative and associative, so the outcome is
        /// independent of part arrival order.
        best: HashMap<GroupKey, Vec<Value>>,
    },
    Query {
        merge_stmt: SelectStatement,
        /// The engine's sink for the merge statement, built on the first
        /// part from its columns.
        sink: Option<Box<TableSink>>,
    },
}

/// Folds per-chunk result tables into the merge as they arrive. Feed
/// with [`Merger::fold`] (tagging each part with its position in the
/// fold order), then [`Merger::finish`].
pub struct Merger {
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
            MergeShape::Nearest { key, dist } => State::Nearest {
                key: key.clone(),
                dist: dist.clone(),
                resolved: None,
                best: HashMap::new(),
            },
            MergeShape::Query => State::Query {
                merge_stmt: plan.merge_stmt.clone(),
                sink: None,
            },
        };
        Merger {
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
        matches!(
            self.state,
            State::Append {
                satisfied: true,
                ..
            }
        )
    }

    /// Rows consumed into merge state so far.
    pub fn rows_folded(&self) -> usize {
        self.rows_folded
    }

    /// High-water mark of parts waiting at once in the reorder buffer.
    pub fn peak_buffered_parts(&self) -> usize {
        self.peak_buffered
    }

    /// Moves the chunk tables appended since the last drain out as a
    /// [`StreamBatch`]; `None` unless the merge is the identity Append
    /// and a row has arrived since. Only the identity Append streams:
    /// its parts are final rows as they stand — no projection,
    /// reordering, or grouping remains.
    /// Drained parts are *gone* from the merge state — [`Merger::finish`]
    /// answers with the undrained remainder alone (exact, because the
    /// Append cutoff already capped drained + remaining at n).
    pub fn drain_ready(&mut self) -> Option<StreamBatch> {
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
        self.peak_buffered = self.peak_buffered.max(self.pending.len());
        while let Some(part) = self.pending.remove(&self.next_seq) {
            self.next_seq += 1;
            self.apply(part)?;
            if self.satisfied() {
                self.pending.clear();
                break;
            }
        }
        Ok(())
    }

    /// Applies one in-order part to the merge state.
    fn apply(&mut self, mut part: Table) -> Result<(), QservError> {
        // Schema vote first, against the names `fold` took.
        let names = self.names.as_ref().expect("fold names the columns");
        vote(names, &mut self.votes, &part)?;
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
            State::Nearest {
                key,
                dist,
                resolved,
                best,
            } => {
                let (ki, di) = match *resolved {
                    Some(at) => at,
                    None => {
                        let ki = names.iter().position(|c| c == key);
                        let di = names.iter().position(|c| c == dist);
                        let (Some(ki), Some(di)) = (ki, di) else {
                            return Err(QservError::Merge(format!(
                                "XMatch merge needs columns {key:?} and {dist:?}; chunk result has {names:?}"
                            )));
                        };
                        *resolved.insert((ki, di))
                    }
                };
                for r in 0..part.num_rows() {
                    let row = part.row(r);
                    let key = row[ki].group_key();
                    upsert_nearest(best, key, row, di);
                }
                self.rows_folded += part.num_rows();
            }
            State::Query { merge_stmt, sink } => {
                let sink = match sink {
                    Some(sink) => sink,
                    None => sink.insert(Box::new(TableSink::new(merge_stmt, part.schema())?)),
                };
                sink.push(&part)?;
                self.rows_folded += part.num_rows();
            }
        }
        Ok(())
    }

    /// The final result (rows assembled by a [`StreamCollector`]).
    pub fn finish(self) -> Result<ResultTable, QservError> {
        let mut rows = StreamCollector::new();
        rows.push(self.finish_batch()?);
        Ok(rows.table())
    }

    /// The final result as the last batch of the stream: the identity
    /// Append's undrained parts as they are; the nearest rows as one
    /// part; for a Query merge, the sink's answer
    /// ([`StreamBatch::of_result`]).
    pub(crate) fn finish_batch(self) -> Result<StreamBatch, QservError> {
        let names = self.names.unwrap_or_default();
        match self.state {
            State::Append { parts, .. } => Ok(StreamBatch {
                columns: names,
                parts,
            }),
            State::Nearest { resolved, best, .. } => {
                let mut rows: Vec<Vec<Value>> = best.into_values().collect();
                if let Some((ki, _)) = resolved {
                    // Keys are unique per row, so ordering by key alone is
                    // a total, arrival-order-independent order.
                    rows.sort_by(|a, b| a[ki].total_cmp(&b[ki]));
                }
                let part = build_table(&names, &self.votes, rows)?;
                Ok(StreamBatch {
                    columns: names,
                    parts: vec![part],
                })
            }
            State::Query { merge_stmt, sink } => {
                // No part arrived: the statement over an empty table.
                let sink = match sink {
                    Some(sink) => *sink,
                    None => TableSink::new(&merge_stmt, &Schema::new(vec![]))?,
                };
                Ok(StreamBatch::of_result(sink.finish()?))
            }
        }
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

/// Materializes rows under the voted schema; a column no part populated
/// is Float.
pub(crate) fn build_table(
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
    use crate::testing::merge_tables;
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
