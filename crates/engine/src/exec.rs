//! The query executor.
//!
//! Executes a parsed [`SelectStatement`] against a [`Database`]: FROM
//! resolution, predicate-driven row selection (full scan, objectId index
//! lookup, hash equi-join or nested-loop join), grouping and aggregation,
//! projection, ordering and limiting.
//!
//! The planning mirrors what the paper relies on from MySQL:
//! * selections are **full scans** by default (§4.3: "table-scanning being
//!   the norm rather than the exception");
//! * the one exception is the per-chunk **objectId index** (§5.5), used for
//!   `objectId = ?` / `objectId IN (...)` point predicates;
//! * spatial near-neighbour joins run as **nested loops over subchunk
//!   tables**, which is exactly the O(kn) structure of §4.4 — the executor
//!   additionally recognizes integer equi-join predicates and builds a hash
//!   table (MySQL would use the objectId index the same way).

use crate::db::Database;
use crate::eval::{eval, eval_predicate, is_aggregate, Bindings, EvalError};
use crate::schema::{ColumnDef, ColumnType, Schema};
use crate::table::Table;
use crate::value::{GroupKey, Value};
use qserv_sqlparse::ast::{BinaryOp, Expr, Literal, SelectStatement};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors from query execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// FROM references a table the database does not have.
    UnknownTable(String),
    /// Two FROM entries bind the same name.
    DuplicateBinding(String),
    /// Expression evaluation failed.
    Eval(EvalError),
    /// Statement shape not supported (message explains).
    Unsupported(String),
    /// Reading a stored chunk file failed.
    Storage(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table {t}"),
            ExecError::DuplicateBinding(b) => write!(f, "duplicate table binding {b}"),
            ExecError::Eval(e) => write!(f, "{e}"),
            ExecError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ExecError::Storage(m) => write!(f, "storage: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<EvalError> for ExecError {
    fn from(e: EvalError) -> ExecError {
        ExecError::Eval(e)
    }
}

/// A materialized query result: named columns, row-major values.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ResultTable {
    /// Output column names, in SELECT order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl ResultTable {
    /// Index of an output column by exact name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The single value of a one-row, one-column result (e.g. COUNT(*)),
    /// when it has that shape.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => Some(&self.rows[0][0]),
            _ => None,
        }
    }

    /// Converts into a typed [`Table`]: how a result that exists as
    /// rows (a worker's chunk answer, a fold's final answer, a proxy
    /// verb's table) becomes the column frame it travels as. Column
    /// types are inferred by scanning
    /// every row and widening: any Str makes the column Str, else any
    /// Float makes it Float, else Int; all-NULL columns become Float.
    pub fn into_table(self) -> Table {
        // One pass over the rows collects every column's type flags.
        let ncols = self.columns.len();
        let mut saw_int = vec![false; ncols];
        let mut saw_float = vec![false; ncols];
        let mut saw_str = vec![false; ncols];
        for r in &self.rows {
            for (i, v) in r.iter().enumerate() {
                match v {
                    Value::Null => {}
                    Value::Int(_) => saw_int[i] = true,
                    Value::Float(_) => saw_float[i] = true,
                    Value::Str(_) => saw_str[i] = true,
                }
            }
        }
        let mut defs = Vec::with_capacity(ncols);
        for (i, name) in self.columns.iter().enumerate() {
            let ty = if saw_str[i] {
                ColumnType::Str
            } else if saw_float[i] {
                ColumnType::Float
            } else if saw_int[i] {
                ColumnType::Int
            } else {
                ColumnType::Float
            };
            defs.push(ColumnDef::new(name, ty));
        }
        let mut t = Table::new(Schema::new(defs));
        // `push_row` widens an Int landing in a Float column.
        for row in self.rows {
            t.push_row(row).expect("inferred schema admits its rows");
        }
        t
    }
}

/// Which execution path [`execute_with_mode`] may take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Vectorize single-table scans when compilable, fall back to the
    /// interpreter otherwise (the default).
    Auto,
    /// Tree-walking interpreter only — the semantic oracle.
    Interpreted,
    /// Vectorized only: `Unsupported` when the statement cannot compile.
    /// Used by benches and equivalence tests to pin the path.
    Vectorized,
}

/// Which path actually executed a statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecPath {
    /// Compiled predicates + columnar kernels (`crate::vector`).
    Vectorized,
    /// Row-at-a-time tree-walking interpreter.
    Interpreted,
}

/// Executes `stmt` against `db`.
pub fn execute(db: &Database, stmt: &SelectStatement) -> Result<ResultTable, ExecError> {
    execute_with_mode(db, stmt, ExecMode::Auto).map(|(r, _)| r)
}

/// Executes `stmt` against `db` on a chosen execution path.
pub fn execute_with_mode(
    db: &Database,
    stmt: &SelectStatement,
    mode: ExecMode,
) -> Result<(ResultTable, ExecPath), ExecError> {
    execute_detailed(db, stmt, mode).map(|(r, p, _)| (r, p))
}

/// Per-statement paged-scan statistics of a stored (on-disk) table:
/// row-group pages elided by the zone maps versus read, and how many of
/// those came from the residency cache. All stay zero for in-memory
/// tables and interpreted executions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Row-group pages skipped via zone maps without touching their bytes.
    pub pages_pruned: u64,
    /// Row-group pages the scan read, from the cache or from disk.
    pub pages_scanned: u64,
    /// The scanned pages served entirely from the residency cache, no
    /// file touched.
    pub pages_cached: u64,
}

/// Like [`execute_with_mode`], additionally reporting paged-scan page
/// statistics (the worker forwards them to the master's query stats).
pub fn execute_detailed(
    db: &Database,
    stmt: &SelectStatement,
    mode: ExecMode,
) -> Result<(ResultTable, ExecPath, ScanStats), ExecError> {
    let storage_err = |e: std::io::Error| ExecError::Storage(e.to_string());
    // Resolve FROM bindings. A stored (on-disk) table materializes from
    // the residency cache's pages, except as the sole table of a
    // statement outside interpreted mode: that binds its zero-row *shape*
    // so the scan can run paged, with zone-map elision.
    let mut bindings: Vec<(String, Arc<Table>)> = Vec::new();
    let mut stored_single: Option<Arc<crate::storage::StoredChunk>> = None;
    for tref in &stmt.from {
        let name = tref.binding_name().to_string();
        if bindings.iter().any(|(b, _)| *b == name) {
            return Err(ExecError::DuplicateBinding(name));
        }
        if let Some(table) = db.table(&tref.table) {
            bindings.push((name, Arc::clone(table)));
        } else if let Some(chunk) = db.stored(&tref.table) {
            if stmt.from.len() == 1 && mode != ExecMode::Interpreted {
                stored_single = Some(Arc::clone(chunk));
                bindings.push((name, Arc::clone(chunk.shape())));
            } else {
                let table = chunk.resident(db.residency()).map_err(storage_err)?;
                bindings.push((name, table));
            }
        } else {
            return Err(ExecError::UnknownTable(tref.table.clone()));
        }
    }
    if bindings.is_empty() {
        if mode == ExecMode::Vectorized {
            return Err(ExecError::Unsupported(
                "tableless statements are not vectorizable".to_string(),
            ));
        }
        return execute_tableless(stmt).map(|r| (r, ExecPath::Interpreted, ScanStats::default()));
    }

    let aggregated = stmt_is_aggregated(stmt);
    let conjuncts = stmt
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts())
        .unwrap_or_default();

    // Attribute each conjunct to the single binding it references, or to
    // the cross-binding residue.
    let names: Vec<&str> = bindings.iter().map(|(n, _)| n.as_str()).collect();
    let mut per_binding: Vec<Vec<&Expr>> = vec![Vec::new(); bindings.len()];
    let mut cross: Vec<&Expr> = Vec::new();
    for c in &conjuncts {
        match sole_binding(c, &names, &bindings) {
            Some(i) => per_binding[i].push(c),
            None => cross.push(c),
        }
    }

    // Early-exit limit for plain (non-aggregated, unordered) selections.
    let quick_limit = if !aggregated && stmt.order_by.is_empty() {
        stmt.limit.map(|l| l as usize)
    } else {
        None
    };

    let schemas: Vec<(&str, &Schema)> = bindings
        .iter()
        .map(|(name, table)| (name.as_str(), table.schema()))
        .collect();
    let mut sink = RowSink::new(stmt, &schemas, aggregated)?;

    // Vectorized path: a single-table scan whose filters and output all
    // compile runs over columnar kernels; anything else falls through to
    // the interpreter, which stays the semantic oracle. A stored binding
    // compiles against its shape and runs paged: zone maps elide
    // row-group pages the kernels provably reject, and the scan table
    // holds only the referenced columns of the surviving pages, taken
    // from the residency cache (decoded and admitted on a miss) — no
    // full materialization, no row pivot. When it does not compile, it
    // materializes for the interpreter.
    if bindings.len() == 1 && mode != ExecMode::Interpreted {
        let (name, table) = &bindings[0];
        if let Some(mut plan) = crate::compile::compile_single(stmt, name, table, &sink, &conjuncts)
        {
            let paged;
            let (scan, stats) = match &stored_single {
                Some(chunk) => {
                    // Decoded pages carry no index; scan every surviving page.
                    plan.seed = None;
                    let keep = crate::storage::prune_mask(chunk.file().footer(), &plan.kernels);
                    let needed = plan.referenced_cols(table.schema().len());
                    let (scan, pages_cached) = chunk
                        .scan_table(db.residency(), &keep, &needed)
                        .map_err(storage_err)?;
                    paged = scan;
                    let pages_scanned = keep.iter().filter(|&&k| k).count() as u64;
                    let stats = ScanStats {
                        pages_pruned: keep.len() as u64 - pages_scanned,
                        pages_scanned,
                        pages_cached,
                    };
                    (&paged, stats)
                }
                None => (&**table, ScanStats::default()),
            };
            crate::vector::run(&plan, scan, &mut sink, quick_limit);
            return sink.finish().map(|r| (r, ExecPath::Vectorized, stats));
        }
    }
    if let Some(chunk) = stored_single {
        if mode == ExecMode::Vectorized {
            return Err(ExecError::Unsupported(
                "statement is not vectorizable".to_string(),
            ));
        }
        bindings[0].1 = chunk.resident(db.residency()).map_err(storage_err)?;
    }
    // Vectorized join path: a two-table join whose cross predicates are
    // one angular-distance cut plus integer comparisons runs the compiled
    // distance kernel (per-binding filters still seed candidates below).
    let dist_plan = if bindings.len() == 2 && mode != ExecMode::Interpreted {
        crate::joinvec::plan_dist_join(&bindings, &cross)
    } else {
        None
    };
    if mode == ExecMode::Vectorized && dist_plan.is_none() {
        return Err(ExecError::Unsupported(
            "statement is not vectorizable".to_string(),
        ));
    }

    // Candidate rows per binding: index lookup when possible, else a
    // filtered scan.
    let mut candidates: Vec<Vec<u32>> = Vec::with_capacity(bindings.len());
    for (i, (name, table)) in bindings.iter().enumerate() {
        candidates.push(candidate_rows(name, table, &per_binding[i])?);
    }

    match bindings.len() {
        1 => {
            let (name, table) = &bindings[0];
            let mut b = Bindings::single(name, table, 0);
            for &r in &candidates[0] {
                b.set_row(0, r as usize);
                // Cross predicates are impossible with one binding, but
                // ambiguous/unresolvable conjuncts land there; apply them.
                if all_pass(&cross, &b)? {
                    sink.consume(&b)?;
                    if sink.emitted_at_least(quick_limit) {
                        break;
                    }
                }
            }
        }
        2 => {
            if let Some(plan) = &dist_plan {
                crate::joinvec::run_dist_join(
                    plan,
                    &bindings,
                    &candidates,
                    &mut sink,
                    quick_limit,
                )?;
                return sink
                    .finish()
                    .map(|r| (r, ExecPath::Vectorized, ScanStats::default()));
            }
            join_two(&bindings, &candidates, &cross, &mut sink, quick_limit)?;
        }
        n => {
            return Err(ExecError::Unsupported(format!(
                "{n}-way joins are not supported (Qserv's evaluation uses at most two tables)"
            )));
        }
    }

    sink.finish()
        .map(|r| (r, ExecPath::Interpreted, ScanStats::default()))
}

/// An incremental execution of a single-table statement: it takes the
/// table's rows one table at a time and finishes exactly as [`execute`]
/// would over their concatenation, in push order. It is the sink every
/// execution feeds, fed row by row; the master runs its merge statement
/// through one, over chunk results as they arrive (paper §5.3). Under
/// `ORDER BY … LIMIT n` it holds at most 2n plain rows.
pub struct TableSink {
    /// The FROM binding's name, which qualified columns resolve against.
    binding: String,
    sink: RowSink,
}

impl TableSink {
    /// A sink for `stmt`, whose one FROM table has `schema` (`*` expands
    /// to its columns). A WHERE clause is unsupported.
    pub fn new(stmt: &SelectStatement, schema: &Schema) -> Result<TableSink, ExecError> {
        let [table] = stmt.from.as_slice() else {
            return Err(ExecError::Unsupported(
                "a table sink reads exactly one table".to_string(),
            ));
        };
        if stmt.where_clause.is_some() {
            return Err(ExecError::Unsupported(
                "WHERE in a table sink's statement".to_string(),
            ));
        }
        let binding = table.binding_name().to_string();
        let sink = RowSink::new(stmt, &[(&binding, schema)], stmt_is_aggregated(stmt))?;
        Ok(TableSink { binding, sink })
    }

    /// Consumes every row of `table`, which has the columns the sink was
    /// built with (a column's type may differ where it holds only NULL).
    pub fn push(&mut self, table: &Table) -> Result<(), ExecError> {
        let mut b = Bindings::single(&self.binding, table, 0);
        for r in 0..table.num_rows() {
            b.set_row(0, r);
            self.sink.consume(&b)?;
        }
        Ok(())
    }

    /// The statement's answer over every row pushed.
    pub fn finish(self) -> Result<ResultTable, ExecError> {
        self.sink.finish()
    }
}

/// Executes a FROM-less statement (`SELECT 1 + 1`).
fn execute_tableless(stmt: &SelectStatement) -> Result<ResultTable, ExecError> {
    if stmt.where_clause.is_some() || !stmt.group_by.is_empty() {
        return Err(ExecError::Unsupported(
            "WHERE/GROUP BY without FROM".to_string(),
        ));
    }
    let empty = Bindings::new(vec![]);
    let mut columns = Vec::new();
    let mut row = Vec::new();
    for p in &stmt.projections {
        if matches!(p.expr, Expr::Star) {
            return Err(ExecError::Unsupported("SELECT * without FROM".to_string()));
        }
        columns.push(p.output_name());
        row.push(eval(&p.expr, &empty)?);
    }
    Ok(ResultTable {
        columns,
        rows: vec![row],
    })
}

/// Returns `Some(i)` when every column in `expr` resolves to binding `i`
/// alone; `None` when it references several bindings, none, or is
/// ambiguous.
fn sole_binding(expr: &Expr, names: &[&str], bindings: &[(String, Arc<Table>)]) -> Option<usize> {
    let mut owner: Option<usize> = None;
    let mut bad = false;
    expr.visit(&mut |e| {
        if let Expr::Column {
            qualifier, name, ..
        } = e
        {
            let idx = match qualifier {
                Some(q) => names.iter().position(|n| n == q),
                None => {
                    // Unqualified: unique schema owner or ambiguous.
                    let hits: Vec<usize> = bindings
                        .iter()
                        .enumerate()
                        .filter(|(_, (_, t))| t.schema().index_of(name).is_some())
                        .map(|(i, _)| i)
                        .collect();
                    if hits.len() == 1 {
                        Some(hits[0])
                    } else {
                        None
                    }
                }
            };
            match idx {
                Some(i) => match owner {
                    None => owner = Some(i),
                    Some(o) if o == i => {}
                    Some(_) => bad = true,
                },
                None => bad = true,
            }
        }
    });
    if bad {
        None
    } else {
        owner
    }
}

/// Computes the candidate row ids of one binding: an index lookup when a
/// conjunct is `idxcol = int` / `idxcol IN (ints)`, otherwise a filtered
/// scan of all rows. The remaining conjuncts are verified either way, so
/// using the index is purely an optimization.
fn candidate_rows(
    name: &str,
    table: &Arc<Table>,
    conjuncts: &[&Expr],
) -> Result<Vec<u32>, ExecError> {
    let mut seed: Option<Vec<u32>> = None;
    if let Some(idx_col) = table.indexed_column() {
        for c in conjuncts {
            if let Some(keys) = index_keys(c, idx_col) {
                let mut rows: Vec<u32> = keys
                    .iter()
                    .flat_map(|k| table.index_lookup(*k).iter().copied())
                    .collect();
                rows.sort_unstable();
                rows.dedup();
                seed = Some(rows);
                break;
            }
        }
    }
    let mut b = Bindings::single(name, table, 0);
    let mut out = Vec::new();
    match seed {
        Some(rows) => {
            for r in rows {
                b.set_row(0, r as usize);
                if all_pass(conjuncts, &b)? {
                    out.push(r);
                }
            }
        }
        None => {
            // Sorted-probe fast path: an un-indexed `intcol IN (int
            // literals)` conjunct rejects rows by binary search before
            // the general evaluator runs — O(log k) per row instead of
            // a linear pass over the k-item list. Probe failure implies
            // the conjunct is false (or NULL) for the row, so skipping
            // it never changes the answer; survivors still run the full
            // conjunct list.
            let probe = conjuncts.iter().find_map(|c| in_probe(c, name, table));
            match probe {
                Some((ci, keys)) => {
                    let nulls = table.null_mask(ci);
                    if let crate::table::ColumnSlice::Int(vals) = table.column_slice(ci) {
                        for r in 0..table.num_rows() {
                            if nulls[r] || keys.binary_search(&vals[r]).is_err() {
                                continue;
                            }
                            b.set_row(0, r);
                            if all_pass(conjuncts, &b)? {
                                out.push(r as u32);
                            }
                        }
                    }
                }
                None => {
                    for r in 0..table.num_rows() {
                        b.set_row(0, r);
                        if all_pass(conjuncts, &b)? {
                            out.push(r as u32);
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// When `conjunct` is a non-negated `intcol IN (<int literals>)` over a
/// dense Int column of `table` (unqualified or qualified by this
/// binding's name), returns the column's index and the sorted,
/// deduplicated key list for binary-search probing.
fn in_probe(conjunct: &Expr, binding: &str, table: &Table) -> Option<(usize, Vec<i64>)> {
    let Expr::InList {
        expr,
        negated: false,
        list,
    } = conjunct
    else {
        return None;
    };
    let Expr::Column {
        qualifier, name, ..
    } = expr.as_ref()
    else {
        return None;
    };
    if qualifier.as_deref().is_some_and(|q| q != binding) {
        return None;
    }
    let ci = table.schema().index_of(name)?;
    if table.schema().columns()[ci].ty != ColumnType::Int {
        return None;
    }
    let mut keys: Vec<i64> = list
        .iter()
        .map(|e| match e {
            Expr::Literal(Literal::Int(v)) => Some(*v),
            _ => None,
        })
        .collect::<Option<Vec<i64>>>()?;
    keys.sort_unstable();
    keys.dedup();
    Some((ci, keys))
}

/// When `conjunct` is `col = <int literal>` or `col IN (<int literals>)`
/// over the indexed column, returns the key list.
pub(crate) fn index_keys(conjunct: &Expr, idx_col: &str) -> Option<Vec<i64>> {
    fn col_is(e: &Expr, idx_col: &str) -> bool {
        matches!(e, Expr::Column { name, .. } if name == idx_col)
    }
    fn int_of(e: &Expr) -> Option<i64> {
        match e {
            Expr::Literal(Literal::Int(v)) => Some(*v),
            _ => None,
        }
    }
    match conjunct {
        Expr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } => {
            if col_is(lhs, idx_col) {
                int_of(rhs).map(|v| vec![v])
            } else if col_is(rhs, idx_col) {
                int_of(lhs).map(|v| vec![v])
            } else {
                None
            }
        }
        Expr::InList {
            expr,
            negated: false,
            list,
        } if col_is(expr, idx_col) => list.iter().map(int_of).collect(),
        _ => None,
    }
}

fn all_pass(conjuncts: &[&Expr], b: &Bindings<'_>) -> Result<bool, ExecError> {
    for c in conjuncts {
        if !eval_predicate(c, b)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Two-table join: hash join on an integer equi-key when one exists,
/// otherwise a nested loop. Cross conjuncts are applied to each joined
/// pair.
fn join_two(
    bindings: &[(String, Arc<Table>)],
    candidates: &[Vec<u32>],
    cross: &[&Expr],
    sink: &mut RowSink,
    quick_limit: Option<usize>,
) -> Result<(), ExecError> {
    let (n0, t0) = (&bindings[0].0, &bindings[0].1);
    let (n1, t1) = (&bindings[1].0, &bindings[1].1);
    let names = [n0.as_str(), n1.as_str()];

    // Find an equi-join conjunct `x = y` with one side per binding, both
    // integer columns.
    let equi = cross.iter().find_map(|c| {
        if let Expr::Binary {
            op: BinaryOp::Eq,
            lhs,
            rhs,
        } = c
        {
            let l = column_of(lhs, &names, bindings)?;
            let r = column_of(rhs, &names, bindings)?;
            if l.0 != r.0 {
                // Orient as (binding0 column, binding1 column).
                return if l.0 == 0 {
                    Some((l.1, r.1))
                } else {
                    Some((r.1, l.1))
                };
            }
        }
        None
    });

    let mut b = Bindings::new(vec![(n0, t0, 0), (n1, t1, 0)]);
    match equi {
        Some((c0, c1)) => {
            // Build a hash table over the smaller candidate side (side 1
            // keys → row ids), probe with side 0.
            let mut map: HashMap<GroupKey, Vec<u32>> = HashMap::new();
            for &r in &candidates[1] {
                let v = t1.get(r as usize, c1);
                if !v.is_null() {
                    map.entry(v.group_key()).or_default().push(r);
                }
            }
            for &r0 in &candidates[0] {
                let v = t0.get(r0 as usize, c0);
                if v.is_null() {
                    continue;
                }
                if let Some(rows1) = map.get(&v.group_key()) {
                    b.set_row(0, r0 as usize);
                    for &r1 in rows1 {
                        b.set_row(1, r1 as usize);
                        if all_pass(cross, &b)? {
                            sink.consume(&b)?;
                            if sink.emitted_at_least(quick_limit) {
                                return Ok(());
                            }
                        }
                    }
                }
            }
        }
        None => {
            for &r0 in &candidates[0] {
                b.set_row(0, r0 as usize);
                for &r1 in &candidates[1] {
                    b.set_row(1, r1 as usize);
                    if all_pass(cross, &b)? {
                        sink.consume(&b)?;
                        if sink.emitted_at_least(quick_limit) {
                            return Ok(());
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// When `e` is a bare column of one of the two bindings, returns
/// `(binding index, column index)`.
pub(crate) fn column_of(
    e: &Expr,
    names: &[&str; 2],
    bindings: &[(String, Arc<Table>)],
) -> Option<(usize, usize)> {
    if let Expr::Column {
        qualifier, name, ..
    } = e
    {
        match qualifier {
            Some(q) => {
                let bi = names.iter().position(|n| n == q)?;
                let ci = bindings[bi].1.schema().index_of(name)?;
                Some((bi, ci))
            }
            None => {
                let hits: Vec<(usize, usize)> = bindings
                    .iter()
                    .enumerate()
                    .filter_map(|(i, (_, t))| t.schema().index_of(name).map(|c| (i, c)))
                    .collect();
                if hits.len() == 1 {
                    Some(hits[0])
                } else {
                    None
                }
            }
        }
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Row sink: projection for plain queries, accumulation for aggregates.
// ---------------------------------------------------------------------------

fn stmt_is_aggregated(stmt: &SelectStatement) -> bool {
    if !stmt.group_by.is_empty() {
        return true;
    }
    stmt.projections.iter().any(|p| {
        let mut agg = false;
        p.expr.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate(name) {
                    agg = true;
                }
            }
        });
        agg
    })
}

/// One aggregate call found in the projections.
pub(crate) struct AggSpec {
    /// Canonical SQL text of the call (the merge key the frontend's
    /// rewriting relies on, paper §5.3).
    sql: String,
    pub(crate) kind: AggKind,
    /// Argument expression (`None` for COUNT(*)).
    pub(crate) arg: Option<Expr>,
}

/// The aggregate functions the executor implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AggKind {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// A running accumulator for one aggregate in one group.
#[derive(Clone)]
pub(crate) enum AggAcc {
    Count(i64),
    Sum {
        int: i64,
        float: f64,
        saw_float: bool,
        saw_any: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    MinMax {
        best: Option<Value>,
        want_max: bool,
    },
}

impl AggAcc {
    pub(crate) fn new(kind: AggKind) -> AggAcc {
        match kind {
            AggKind::CountStar | AggKind::Count => AggAcc::Count(0),
            AggKind::Sum => AggAcc::Sum {
                int: 0,
                float: 0.0,
                saw_float: false,
                saw_any: false,
            },
            AggKind::Avg => AggAcc::Avg { sum: 0.0, n: 0 },
            AggKind::Min => AggAcc::MinMax {
                best: None,
                want_max: false,
            },
            AggKind::Max => AggAcc::MinMax {
                best: None,
                want_max: true,
            },
        }
    }

    pub(crate) fn update(&mut self, v: Option<&Value>) {
        match self {
            AggAcc::Count(n) => {
                // COUNT(*) passes None (count every row); COUNT(expr)
                // counts non-NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggAcc::Sum {
                int,
                float,
                saw_float,
                saw_any,
            } => {
                if let Some(val) = v {
                    match val {
                        Value::Int(x) => {
                            *int = int.saturating_add(*x);
                            *float += *x as f64;
                            *saw_any = true;
                        }
                        Value::Float(x) => {
                            *float += x;
                            *saw_float = true;
                            *saw_any = true;
                        }
                        _ => {}
                    }
                }
            }
            AggAcc::Avg { sum, n } => {
                if let Some(val) = v {
                    if let Some(x) = val.as_f64() {
                        *sum += x;
                        *n += 1;
                    }
                }
            }
            AggAcc::MinMax { best, want_max } => {
                if let Some(val) = v {
                    if val.is_null() {
                        return;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => match val.sql_cmp(b) {
                            Some(o) => {
                                if *want_max {
                                    o.is_gt()
                                } else {
                                    o.is_lt()
                                }
                            }
                            None => false,
                        },
                    };
                    if better {
                        *best = Some(val.clone());
                    }
                }
            }
        }
    }

    pub(crate) fn finish(&self) -> Value {
        match self {
            AggAcc::Count(n) => Value::Int(*n),
            AggAcc::Sum {
                int,
                float,
                saw_float,
                saw_any,
            } => {
                if !saw_any {
                    Value::Null // SUM of no rows is NULL in SQL.
                } else if *saw_float {
                    float_result(*float)
                } else {
                    Value::Int(*int)
                }
            }
            AggAcc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    float_result(sum / *n as f64)
                }
            }
            AggAcc::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
        }
    }
}

/// A SUM or AVG result as a value. The sign and payload of a NaN that
/// arithmetic produced are unspecified (the compiler may commute an
/// addition, and `inf + -inf` gives the platform's default NaN), so a NaN
/// result leaves as the one canonical NaN: the same bits whichever
/// kernel accumulated it.
fn float_result(x: f64) -> Value {
    Value::Float(if x.is_nan() { f64::NAN } else { x })
}

/// Consumes joined row combinations and produces the result table. It
/// owns what it reads of the statement, so it outlives the borrow it
/// was built from (a [`TableSink`] keeps one across pushes).
pub(crate) struct RowSink {
    aggregated: bool,
    /// Expanded output column names.
    columns: Vec<String>,
    /// For plain queries: projection expressions (Star already expanded).
    plain_exprs: Vec<Expr>,
    /// Extra hidden sort-key expressions appended to plain rows.
    hidden_sort: Vec<Expr>,
    /// The GROUP BY key expressions.
    group_by: Vec<Expr>,
    /// ORDER BY as (row position, desc): an output column, or a hidden
    /// sort key past the visible columns.
    order: Vec<(usize, bool)>,
    limit: Option<usize>,
    rows: Vec<Vec<Value>>,
    /// For aggregate queries.
    aggs: Vec<AggSpec>,
    /// Rewritten projections with aggregate calls replaced by references
    /// into the per-group accumulator pseudo table.
    agg_projected: Vec<Expr>,
    groups: HashMap<Vec<GroupKey>, GroupState>,
    group_order: Vec<Vec<GroupKey>>,
}

/// Per-group accumulator state plus representative row values for
/// non-aggregate expressions.
struct GroupState {
    accs: Vec<AggAcc>,
    /// Values of the group-by keys and of every bare column the
    /// projections need, captured from the group's first row.
    rep: Vec<Value>,
}

impl RowSink {
    /// A sink for `stmt` over FROM bindings with these (name, schema)
    /// pairs, in FROM order: `*` expands to their columns.
    fn new(
        stmt: &SelectStatement,
        bindings: &[(&str, &Schema)],
        aggregated: bool,
    ) -> Result<RowSink, ExecError> {
        let mut columns = Vec::new();
        let mut plain_exprs = Vec::new();
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut agg_projected = Vec::new();

        for p in &stmt.projections {
            if matches!(p.expr, Expr::Star) {
                if aggregated {
                    return Err(ExecError::Unsupported(
                        "SELECT * with aggregation".to_string(),
                    ));
                }
                for (bname, schema) in bindings {
                    for c in schema.columns() {
                        columns.push(c.name.clone());
                        plain_exprs.push(Expr::Column {
                            qualifier: Some(bname.to_string()),
                            name: c.name.clone(),
                            quoted: false,
                        });
                    }
                }
                continue;
            }
            columns.push(p.output_name());
            if aggregated {
                // Replace each aggregate call with a pseudo column keyed by
                // its SQL text; remember the spec.
                let rewritten = p.expr.clone().rewrite(&mut |e| match &e {
                    Expr::Function { name, args } if is_aggregate(name) => {
                        let sql = e.to_sql();
                        if !aggs.iter().any(|a| a.sql == sql) {
                            let lname = name.to_ascii_lowercase();
                            let (kind, arg) = match (lname.as_str(), args.first()) {
                                ("count", Some(Expr::Star)) | ("count", None) => {
                                    (AggKind::CountStar, None)
                                }
                                ("count", Some(a)) => (AggKind::Count, Some(a.clone())),
                                ("sum", Some(a)) => (AggKind::Sum, Some(a.clone())),
                                ("avg", Some(a)) => (AggKind::Avg, Some(a.clone())),
                                ("min", Some(a)) => (AggKind::Min, Some(a.clone())),
                                ("max", Some(a)) => (AggKind::Max, Some(a.clone())),
                                _ => (AggKind::CountStar, None),
                            };
                            aggs.push(AggSpec {
                                sql: sql.clone(),
                                kind,
                                arg,
                            });
                        }
                        Expr::Column {
                            qualifier: Some("__agg".to_string()),
                            name: sql,
                            quoted: false,
                        }
                    }
                    _ => e.clone(),
                });
                agg_projected.push(rewritten);
            } else {
                plain_exprs.push(p.expr.clone());
            }
        }

        // ORDER BY keys: an output column, or (plain queries only) a
        // hidden sort key appended to each row.
        let mut order = Vec::with_capacity(stmt.order_by.len());
        let mut hidden_sort = Vec::new();
        for o in &stmt.order_by {
            let at = match output_index(&columns, stmt, &o.expr) {
                Some(i) => i,
                None if aggregated => {
                    return Err(ExecError::Unsupported(format!(
                        "ORDER BY {} must name an output column of an aggregate query",
                        o.expr.to_sql()
                    )))
                }
                None => {
                    hidden_sort.push(o.expr.clone());
                    columns.len() + hidden_sort.len() - 1
                }
            };
            order.push((at, o.desc));
        }

        Ok(RowSink {
            aggregated,
            columns,
            plain_exprs,
            hidden_sort,
            group_by: stmt.group_by.clone(),
            order,
            limit: stmt.limit.map(|l| l as usize),
            rows: Vec::new(),
            aggs,
            agg_projected,
            groups: HashMap::new(),
            group_order: Vec::new(),
        })
    }

    pub(crate) fn consume(&mut self, b: &Bindings<'_>) -> Result<(), ExecError> {
        if self.aggregated {
            let key_vals = self
                .group_by
                .iter()
                .map(|g| eval(g, b))
                .collect::<Result<Vec<_>, _>>()?;
            let mut arg_vals = Vec::with_capacity(self.aggs.len());
            for a in &self.aggs {
                arg_vals.push(match (&a.kind, &a.arg) {
                    (AggKind::CountStar, _) | (_, None) => None,
                    (_, Some(arg)) => Some(eval(arg, b)?),
                });
            }
            // Representative values of the non-aggregate projections, on
            // a group's first row; projections over aggregates are
            // computed in finish() and hold a NULL placeholder.
            let reps = |projected: &[Expr]| {
                projected
                    .iter()
                    .map(|proj| {
                        if references_agg(proj) {
                            Ok(Value::Null)
                        } else {
                            eval(proj, b)
                        }
                    })
                    .collect()
            };
            Ok(self.consume_agg_row(key_vals, &arg_vals, reps)?)
        } else {
            let mut row = Vec::with_capacity(self.plain_exprs.len() + self.hidden_sort.len());
            for e in &self.plain_exprs {
                row.push(eval(e, b)?);
            }
            for e in &self.hidden_sort {
                row.push(eval(e, b)?);
            }
            self.consume_plain_row(row);
            Ok(())
        }
    }

    /// True when `limit` is set and at least that many plain rows exist.
    pub(crate) fn emitted_at_least(&self, limit: Option<usize>) -> bool {
        match limit {
            Some(l) => !self.aggregated && self.rows.len() >= l,
            None => false,
        }
    }

    // -- vectorized-path entry points (crate::compile / crate::vector) --

    /// Whether this sink accumulates aggregates.
    pub(crate) fn is_aggregated(&self) -> bool {
        self.aggregated
    }

    /// Star-expanded plain projection expressions.
    pub(crate) fn plain_exprs(&self) -> &[Expr] {
        &self.plain_exprs
    }

    /// Hidden ORDER BY key expressions appended to plain rows.
    pub(crate) fn hidden_sort(&self) -> &[Expr] {
        &self.hidden_sort
    }

    /// The deduplicated aggregate specs.
    pub(crate) fn agg_specs(&self) -> &[AggSpec] {
        &self.aggs
    }

    /// Projections with aggregate calls rewritten to `__agg` references.
    pub(crate) fn agg_projected(&self) -> &[Expr] {
        &self.agg_projected
    }

    /// Accepts one fully evaluated plain output row (visible projections
    /// followed by hidden sort keys) — the vectorized equivalent of the
    /// non-aggregated arm of [`RowSink::consume`].
    pub(crate) fn consume_plain_row(&mut self, row: Vec<Value>) {
        keep_row(&mut self.rows, &self.order, self.limit, row);
    }

    /// Accepts one evaluated row for aggregation — the one group entry
    /// for per-row input, interpreted and vectorized alike: `key_vals`
    /// are the GROUP BY key values, `arg_vals` the aggregate arguments
    /// (`None` for COUNT(*)), and `rep_tail` produces the representative
    /// values of the rewritten projections it is handed, called only on
    /// a group's first row.
    pub(crate) fn consume_agg_row<E>(
        &mut self,
        key_vals: Vec<Value>,
        arg_vals: &[Option<Value>],
        rep_tail: impl FnOnce(&[Expr]) -> Result<Vec<Value>, E>,
    ) -> Result<(), E> {
        let key: Vec<GroupKey> = key_vals.iter().map(Value::group_key).collect();
        let state = match self.groups.get_mut(&key) {
            Some(s) => s,
            None => {
                self.group_order.push(key.clone());
                let accs = self.aggs.iter().map(|a| AggAcc::new(a.kind)).collect();
                let state = GroupState {
                    accs,
                    rep: key_vals,
                };
                self.groups.insert(key.clone(), state);
                self.groups.get_mut(&key).expect("just inserted")
            }
        };
        for (acc, v) in state.accs.iter_mut().zip(arg_vals) {
            acc.update(v.as_ref());
        }
        if state.rep.len() == self.group_by.len() {
            state.rep.extend(rep_tail(&self.agg_projected)?);
        }
        Ok(())
    }

    /// Installs one group of a fused aggregation — the group entry for
    /// column-wise input: its key values, its accumulators (one per
    /// spec, in exact sequential-`update` state) and the representative
    /// projection values of its first row. Groups must arrive in
    /// first-appearance order, matching `consume_agg_row`'s
    /// `group_order`.
    pub(crate) fn install_group(
        &mut self,
        key_vals: Vec<Value>,
        accs: Vec<AggAcc>,
        rep_tail: Vec<Value>,
    ) {
        let key: Vec<GroupKey> = key_vals.iter().map(Value::group_key).collect();
        let mut rep = key_vals;
        rep.extend(rep_tail);
        self.group_order.push(key.clone());
        self.groups.insert(key, GroupState { accs, rep });
    }

    fn finish(mut self) -> Result<ResultTable, ExecError> {
        if self.aggregated {
            // Global aggregate with zero input rows still yields one row
            // (COUNT(*) = 0) when there is no GROUP BY.
            if self.groups.is_empty() && self.group_by.is_empty() {
                let accs: Vec<AggAcc> = self.aggs.iter().map(|a| AggAcc::new(a.kind)).collect();
                // No rows to evaluate bare columns against: NULL.
                let rep = vec![Value::Null; self.agg_projected.len()];
                self.group_order.push(Vec::new());
                self.groups.insert(Vec::new(), GroupState { accs, rep });
            }
            for key in &self.group_order {
                let state = &self.groups[key];
                // Pseudo table carrying this group's aggregate results.
                let mut schema = Schema::default();
                let mut agg_row = Vec::new();
                for (spec, acc) in self.aggs.iter().zip(&state.accs) {
                    let v = acc.finish();
                    let ty = match &v {
                        Value::Int(_) => ColumnType::Int,
                        Value::Float(_) | Value::Null => ColumnType::Float,
                        Value::Str(_) => ColumnType::Str,
                    };
                    schema.push(ColumnDef::new(&spec.sql, ty));
                    agg_row.push(v);
                }
                let mut pseudo = Table::new(schema);
                pseudo
                    .push_row(agg_row)
                    .expect("schema built from the row itself");
                let b = Bindings::single("__agg", &pseudo, 0);
                let nkeys = self.group_by.len();
                let mut row = Vec::with_capacity(self.agg_projected.len());
                for (i, proj) in self.agg_projected.iter().enumerate() {
                    if references_agg(proj) {
                        row.push(eval(proj, &b)?);
                    } else {
                        // Representative value captured from the group's
                        // first row.
                        row.push(state.rep[nkeys + i].clone());
                    }
                }
                keep_row(&mut self.rows, &self.order, self.limit, row);
            }
        }

        order_rows(&mut self.rows, &self.order, self.limit);
        // Strip hidden sort keys.
        let visible = self.columns.len();
        for r in &mut self.rows {
            r.truncate(visible);
        }
        Ok(ResultTable {
            columns: self.columns,
            rows: self.rows,
        })
    }
}

/// Appends one output row to `rows`, the answer so far in arrival order.
/// Under `LIMIT n` the rows are compacted to their first n under
/// [`order_rows`] whenever they reach 2n, so they never hold more than
/// 2n: the rows kept stay in order and every later row arrives after
/// them, so position breaks ties as arrival does, and the answer is the
/// stable sort's prefix over every row.
fn keep_row(
    rows: &mut Vec<Vec<Value>>,
    order: &[(usize, bool)],
    limit: Option<usize>,
    row: Vec<Value>,
) {
    rows.push(row);
    if let Some(n) = limit {
        if rows.len() >= 2 * n {
            order_rows(rows, order, limit);
        }
    }
}

/// Sorts rows stably by the ORDER BY keys — (row position, desc) pairs —
/// and keeps the first `limit`.
fn order_rows(rows: &mut Vec<Vec<Value>>, order: &[(usize, bool)], limit: Option<usize>) {
    if !order.is_empty() {
        rows.sort_by(|a, b| {
            for &(i, desc) in order {
                let ord = a[i].total_cmp(&b[i]);
                if ord != std::cmp::Ordering::Equal {
                    return if desc { ord.reverse() } else { ord };
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
}

/// True when `expr` references the `__agg` pseudo binding.
pub(crate) fn references_agg(expr: &Expr) -> bool {
    let mut found = false;
    expr.visit(&mut |e| {
        if let Expr::Column {
            qualifier: Some(q), ..
        } = e
        {
            if q == "__agg" {
                found = true;
            }
        }
    });
    found
}

/// Resolves an ORDER BY expression to an index into `columns`, the
/// output column names of `stmt`: by alias or rendered SQL text (a
/// backtick-quoted identifier by its name), or by bare column name. The
/// master's rewriting resolves a user's ORDER BY by this same rule.
pub fn output_index(columns: &[String], stmt: &SelectStatement, expr: &Expr) -> Option<usize> {
    let sql = match expr {
        Expr::Column {
            qualifier: None,
            name,
            quoted: true,
        } => name.clone(),
        _ => expr.to_sql(),
    };
    if let Some(i) = columns.iter().position(|c| *c == sql) {
        return Some(i);
    }
    // A bare column may also match a projection whose *expression* is that
    // column even though the output name is an alias.
    if let Expr::Column { name, .. } = expr {
        for (i, p) in stmt.projections.iter().enumerate() {
            if let Expr::Column { name: pn, .. } = &p.expr {
                if pn == name && i < columns.len() {
                    return Some(i);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use qserv_sqlparse::parse_select;

    /// A tiny Object-chunk-like table.
    fn object_table() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ColumnDef::new("objectId", ColumnType::Int),
            ColumnDef::new("ra_PS", ColumnType::Float),
            ColumnDef::new("decl_PS", ColumnType::Float),
            ColumnDef::new("zFlux_PS", ColumnType::Float),
            ColumnDef::new("chunkId", ColumnType::Int),
        ]));
        let rows = [
            (1i64, 1.0, 1.0, 100.0, 7i64),
            (2, 1.5, 1.5, 200.0, 7),
            (3, 2.5, 2.5, 50.0, 8),
            (4, 3.0, 3.0, 400.0, 8),
            (5, 3.5, 3.5, 0.0, 9),
        ];
        for (id, ra, decl, flux, chunk) in rows {
            t.push_row(vec![
                Value::Int(id),
                Value::Float(ra),
                Value::Float(decl),
                if flux == 0.0 {
                    Value::Null
                } else {
                    Value::Float(flux)
                },
                Value::Int(chunk),
            ])
            .unwrap();
        }
        t.build_index("objectId").unwrap();
        t
    }

    fn source_table() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ColumnDef::new("sourceId", ColumnType::Int),
            ColumnDef::new("objectId", ColumnType::Int),
            ColumnDef::new("ra", ColumnType::Float),
            ColumnDef::new("decl", ColumnType::Float),
            ColumnDef::new("psfFlux", ColumnType::Float),
        ]));
        for (sid, oid, ra, decl, flux) in [
            (10i64, 1i64, 1.0, 1.0, 90.0),
            (11, 1, 1.001, 1.0, 95.0),
            (12, 2, 1.5, 1.5, 190.0),
            (13, 9, 9.0, 9.0, 10.0), // orphan source
        ] {
            t.push_row(vec![
                Value::Int(sid),
                Value::Int(oid),
                Value::Float(ra),
                Value::Float(decl),
                Value::Float(flux),
            ])
            .unwrap();
        }
        t.build_index("objectId").unwrap();
        t
    }

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("Object", object_table());
        db.create_table("Source", source_table());
        db
    }

    fn run(sql: &str) -> ResultTable {
        execute(&db(), &parse_select(sql).unwrap()).unwrap()
    }

    #[test]
    fn select_star_by_object_id() {
        let r = run("SELECT * FROM Object WHERE objectId = 3");
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.columns.len(), 5);
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert_eq!(r.rows[0][4], Value::Int(8));
    }

    #[test]
    fn index_and_scan_agree() {
        // Same predicate with and without a usable index shape.
        let via_index = run("SELECT objectId FROM Object WHERE objectId = 2");
        let via_scan = run("SELECT objectId FROM Object WHERE objectId + 0 = 2");
        assert_eq!(via_index.rows, via_scan.rows);
    }

    #[test]
    fn in_list_uses_index() {
        let r = run("SELECT objectId FROM Object WHERE objectId IN (1, 4, 99) ORDER BY objectId");
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(4)]]);
    }

    #[test]
    fn count_star() {
        let r = run("SELECT COUNT(*) FROM Object");
        assert_eq!(r.scalar(), Some(&Value::Int(5)));
    }

    #[test]
    fn count_of_empty_selection_is_zero_row() {
        let r = run("SELECT COUNT(*) FROM Object WHERE objectId = 999");
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn count_column_skips_nulls() {
        let r = run("SELECT COUNT(zFlux_PS) FROM Object");
        assert_eq!(r.scalar(), Some(&Value::Int(4)));
    }

    #[test]
    fn sum_avg_min_max() {
        let r = run("SELECT SUM(chunkId), AVG(ra_PS), MIN(ra_PS), MAX(ra_PS) FROM Object");
        assert_eq!(r.rows[0][0], Value::Int(39));
        assert_eq!(
            r.rows[0][1],
            Value::Float((1.0 + 1.5 + 2.5 + 3.0 + 3.5) / 5.0)
        );
        assert_eq!(r.rows[0][2], Value::Float(1.0));
        assert_eq!(r.rows[0][3], Value::Float(3.5));
    }

    #[test]
    fn sum_of_no_rows_is_null() {
        let r = run("SELECT SUM(ra_PS) FROM Object WHERE objectId = 999");
        assert_eq!(r.scalar(), Some(&Value::Null));
    }

    #[test]
    fn group_by_chunk_density_like_hv3() {
        let r = run(
            "SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object GROUP BY chunkId ORDER BY chunkId",
        );
        assert_eq!(r.columns, vec!["n", "AVG(ra_PS)", "chunkId"]);
        assert_eq!(r.num_rows(), 3);
        assert_eq!(
            r.rows[0],
            vec![Value::Int(2), Value::Float(1.25), Value::Int(7)]
        );
        assert_eq!(
            r.rows[2],
            vec![Value::Int(1), Value::Float(3.5), Value::Int(9)]
        );
    }

    #[test]
    fn aggregate_expression_over_aggregates() {
        // The master's merge query shape: SUM(x)/SUM(y).
        let r = run("SELECT SUM(chunkId) / COUNT(*) FROM Object");
        assert_eq!(r.rows[0][0], Value::Float(39.0 / 5.0));
    }

    #[test]
    fn nan_sums_and_means_leave_as_the_canonical_nan() {
        // inf + -inf yields the platform's default NaN (negative on
        // x86-64); a NaN operand may reach the result with either sign.
        let nan_bits = |v: Value| match v {
            Value::Float(x) => x.to_bits(),
            other => panic!("float expected, got {other:?}"),
        };
        for args in [
            vec![f64::INFINITY, f64::NEG_INFINITY],
            vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN],
            vec![-f64::NAN, 1.0],
        ] {
            for kind in [AggKind::Sum, AggKind::Avg] {
                let mut acc = AggAcc::new(kind);
                for x in &args {
                    acc.update(Some(&Value::Float(*x)));
                }
                assert_eq!(
                    nan_bits(acc.finish()),
                    f64::NAN.to_bits(),
                    "{kind:?} {args:?}"
                );
            }
        }
    }

    #[test]
    fn where_with_udf_filter_like_hv2() {
        let r =
            run("SELECT objectId FROM Object WHERE fluxToAbMag(zFlux_PS) < 26 ORDER BY objectId");
        // mag(100)=26.4, mag(200)=25.65, mag(50)=27.15, mag(400)=24.9.
        assert_eq!(r.rows, vec![vec![Value::Int(2)], vec![Value::Int(4)]]);
    }

    #[test]
    fn null_flux_rows_filtered_by_udf_predicate() {
        let r = run("SELECT objectId FROM Object WHERE fluxToAbMag(zFlux_PS) > 0");
        assert_eq!(r.num_rows(), 4); // object 5 has NULL flux
    }

    #[test]
    fn equi_join_object_source() {
        let r = run("SELECT o.objectId, s.sourceId FROM Object o, Source s \
             WHERE o.objectId = s.objectId ORDER BY s.sourceId");
        assert_eq!(r.num_rows(), 3); // orphan source 13 drops out
        assert_eq!(r.rows[0], vec![Value::Int(1), Value::Int(10)]);
        assert_eq!(r.rows[2], vec![Value::Int(2), Value::Int(12)]);
    }

    #[test]
    fn join_with_cross_predicate_like_shv2() {
        let r = run(
            "SELECT o.objectId, s.sourceId FROM Object o, Source s \
             WHERE o.objectId = s.objectId AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0005",
        );
        // Only source 11 is displaced from its object by > 0.0005 deg.
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.rows[0][1], Value::Int(11));
    }

    #[test]
    fn self_join_near_neighbor_like_shv1() {
        let r = run("SELECT count(*) FROM Object o1, Object o2 \
             WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.8 \
             AND o1.objectId != o2.objectId");
        // Pairs within 0.8 deg (~0.707 separation): (1,2), (3,4), (4,5),
        // each counted in both orders.
        assert_eq!(r.scalar(), Some(&Value::Int(6)));
    }

    #[test]
    fn nested_loop_join_without_equi_key() {
        let r = run("SELECT count(*) FROM Object o1, Object o2 WHERE o1.ra_PS < o2.ra_PS");
        assert_eq!(r.scalar(), Some(&Value::Int(10))); // 5 choose 2 ordered
    }

    #[test]
    fn order_by_desc_and_limit() {
        let r = run("SELECT objectId FROM Object ORDER BY ra_PS DESC LIMIT 2");
        assert_eq!(r.rows, vec![vec![Value::Int(5)], vec![Value::Int(4)]]);
    }

    #[test]
    fn order_by_expression_not_projected() {
        let r = run("SELECT objectId FROM Object ORDER BY -ra_PS LIMIT 1");
        assert_eq!(r.rows[0][0], Value::Int(5));
        assert_eq!(r.columns.len(), 1); // hidden key stripped
    }

    #[test]
    fn limit_without_order_short_circuits() {
        let r = run("SELECT objectId FROM Object LIMIT 3");
        assert_eq!(r.num_rows(), 3);
    }

    #[test]
    fn tableless_select() {
        let r = run("SELECT 1 + 1, 3 * 2");
        assert_eq!(r.rows[0], vec![Value::Int(2), Value::Int(6)]);
    }

    #[test]
    fn spatial_box_udf_restriction() {
        let r = run("SELECT objectId FROM Object \
             WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, 0.0, 0.0, 2.0, 2.0) = 1 \
             ORDER BY objectId");
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn between_filter_like_lv3() {
        let r = run(
            "SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS BETWEEN 1 AND 2",
        );
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn unknown_table_and_duplicate_binding() {
        let e = execute(&db(), &parse_select("SELECT * FROM Nope").unwrap());
        assert!(matches!(e, Err(ExecError::UnknownTable(_))));
        let e = execute(
            &db(),
            &parse_select("SELECT 1 FROM Object o, Source o").unwrap(),
        );
        assert!(matches!(e, Err(ExecError::DuplicateBinding(_))));
    }

    #[test]
    fn three_way_join_unsupported() {
        let e = execute(
            &db(),
            &parse_select("SELECT 1 FROM Object a, Object b, Object c").unwrap(),
        );
        assert!(matches!(e, Err(ExecError::Unsupported(_))));
    }

    #[test]
    fn result_into_table_round_trip() {
        let r = run("SELECT objectId, ra_PS FROM Object WHERE objectId <= 2");
        let t = r.clone().into_table();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.schema().columns()[0].ty, ColumnType::Int);
        assert_eq!(t.schema().columns()[1].ty, ColumnType::Float);
        assert_eq!(t.get_by_name(0, "ra_PS"), Some(Value::Float(1.0)));
    }

    #[test]
    fn group_by_key_is_projected_via_rep_values() {
        let r = run("SELECT chunkId, COUNT(*) FROM Object GROUP BY chunkId ORDER BY chunkId");
        assert_eq!(r.rows[0], vec![Value::Int(7), Value::Int(2)]);
        assert_eq!(r.rows[1], vec![Value::Int(8), Value::Int(2)]);
    }

    #[test]
    fn table_sink_holds_at_most_2n_rows_under_order_by_limit() {
        // 10 000 rows pushed 10 at a time; the sort key takes 5 values,
        // so the answer is decided by ties, broken by arrival.
        let stmt = parse_select("SELECT id, k FROM t ORDER BY k DESC LIMIT 10").unwrap();
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnType::Int),
            ColumnDef::new("k", ColumnType::Int),
        ]);
        let mut sink = TableSink::new(&stmt, &schema).unwrap();
        let mut all = Table::new(schema.clone());
        for part in 0..1000i64 {
            let mut t = Table::new(schema.clone());
            for i in part * 10..part * 10 + 10 {
                let row = vec![Value::Int(i), Value::Int((i * 7919) % 5)];
                t.push_row(row.clone()).unwrap();
                all.push_row(row).unwrap();
            }
            sink.push(&t).unwrap();
            assert!(
                sink.sink.rows.len() <= 20,
                "{} rows held",
                sink.sink.rows.len()
            );
        }
        let got = sink.finish().unwrap();
        let mut expect: Vec<Vec<Value>> = (0..all.num_rows()).map(|r| all.row(r)).collect();
        expect.sort_by(|a, b| b[1].total_cmp(&a[1]));
        expect.truncate(10);
        assert_eq!(got.rows, expect);
        let mut db = Database::new();
        db.create_table("t", all);
        assert_eq!(got, execute(&db, &stmt).unwrap());
    }

    #[test]
    fn table_sink_equals_execute_over_the_concatenation() {
        let t = object_table();
        let mut db = Database::new();
        db.create_table("Object", t.clone());
        for sql in [
            "SELECT chunkId, COUNT(*), SUM(ra_PS) / COUNT(*) FROM Object GROUP BY chunkId ORDER BY chunkId DESC",
            "SELECT objectId FROM Object ORDER BY -ra_PS",
            "SELECT * FROM Object LIMIT 3",
            "SELECT MAX(zFlux_PS) FROM Object",
        ] {
            let stmt = parse_select(sql).unwrap();
            let mut sink = TableSink::new(&stmt, t.schema()).unwrap();
            for r in 0..t.num_rows() {
                let mut one = Table::new(t.schema().clone());
                one.push_row(t.row(r)).unwrap();
                sink.push(&one).unwrap();
            }
            assert_eq!(sink.finish().unwrap(), execute(&db, &stmt).unwrap(), "{sql}");
        }
        let filtered = parse_select("SELECT objectId FROM Object WHERE ra_PS > 1").unwrap();
        assert!(matches!(
            TableSink::new(&filtered, t.schema()),
            Err(ExecError::Unsupported(_))
        ));
    }

    #[test]
    fn empty_group_by_result_is_empty() {
        let r = run("SELECT chunkId, COUNT(*) FROM Object WHERE objectId = 999 GROUP BY chunkId");
        assert_eq!(r.num_rows(), 0);
    }
}
