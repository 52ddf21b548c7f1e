//! The collect-then-merge oracle the streaming merge is checked against:
//! paper §5.3's barrier, which loads every chunk result into one table
//! and then runs the merge statement over it. Tests call it; the master
//! does not.

use crate::error::QservError;
use crate::merge::{build_table, column_names, vote};
use qserv_engine::db::Database;
use qserv_engine::exec::{execute, ResultTable};
use qserv_engine::schema::{ColumnType, Schema};
use qserv_engine::table::Table;
use qserv_sqlparse::ast::SelectStatement;

/// Concatenates per-chunk result tables under one type per column — the
/// type of the first part, in chunk order, that populates it (see
/// [`crate::merge`]); a column no part populates is Float.
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

/// The barrier merge of paper §5.3: accumulate all parts into one table,
/// run the merge query. Returns the result plus the merged row count.
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
