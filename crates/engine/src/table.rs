//! Columnar table storage with an optional integer primary index.
//!
//! Tables are append-only (Qserv is a read-optimized catalog store;
//! "Support for updates has not been implemented", paper §5). Storage is
//! column-major: one dense vector per column plus a null mask, which gives
//! full-scan queries the sequential access pattern the paper's design
//! assumes (§4.3 "Shared scanning" — scans, not seeks, are the norm).
//!
//! A table may carry one index on one integer column — in Qserv that is
//! always `objectId` (paper §5.5: "Chunk tables on workers' MySQL instances
//! are also indexed by objectId").

use crate::schema::{ColumnType, Schema};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from table construction and row insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableError {
    /// Row arity does not match the schema.
    WrongArity {
        /// Columns expected.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A value does not fit its column type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// Description of the offending value.
        value: String,
    },
    /// The requested index column does not exist or is not an integer.
    BadIndexColumn(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::WrongArity { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            TableError::TypeMismatch { column, value } => {
                write!(f, "value {value} does not fit column {column}")
            }
            TableError::BadIndexColumn(c) => {
                write!(f, "cannot index column {c}: missing or not integer")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// One column's data.
#[derive(Clone, Debug)]
pub(crate) enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
}

/// A borrowed view of one column's dense storage. Null slots hold the
/// column default (0 / 0.0 / ""); callers must consult
/// [`Table::null_mask`] before trusting a slot.
#[derive(Clone, Copy, Debug)]
pub enum ColumnSlice<'a> {
    /// Integer column.
    Int(&'a [i64]),
    /// Float column.
    Float(&'a [f64]),
    /// String column.
    Str(&'a [String]),
}

impl ColumnData {
    fn new(ty: ColumnType) -> ColumnData {
        ColumnData::with_capacity(ty, 0)
    }

    pub(crate) fn with_capacity(ty: ColumnType, rows: usize) -> ColumnData {
        match ty {
            ColumnType::Int => ColumnData::Int(Vec::with_capacity(rows)),
            ColumnType::Float => ColumnData::Float(Vec::with_capacity(rows)),
            ColumnType::Str => ColumnData::Str(Vec::with_capacity(rows)),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// Appends `other`'s values.
    ///
    /// # Panics
    /// Panics when the two are of different column types.
    pub(crate) fn extend_from(&mut self, other: &ColumnData) {
        match (self, other) {
            (ColumnData::Int(v), ColumnData::Int(o)) => v.extend_from_slice(o),
            (ColumnData::Float(v), ColumnData::Float(o)) => v.extend_from_slice(o),
            (ColumnData::Str(v), ColumnData::Str(o)) => v.extend_from_slice(o),
            _ => panic!("column type mismatch"),
        }
    }

    fn truncate(&mut self, rows: usize) {
        match self {
            ColumnData::Int(v) => v.truncate(rows),
            ColumnData::Float(v) => v.truncate(rows),
            ColumnData::Str(v) => v.truncate(rows),
        }
    }

    fn push_default(&mut self) {
        match self {
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(String::new()),
        }
    }
}

/// A columnar table.
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    columns: Vec<ColumnData>,
    nulls: Vec<Vec<bool>>,
    rows: usize,
    /// `(column index, value → row ids)` for the indexed column.
    index: Option<(usize, BTreeMap<i64, Vec<u32>>)>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnData::new(c.ty))
            .collect();
        let nulls = schema.columns().iter().map(|_| Vec::new()).collect();
        Table {
            schema,
            columns,
            nulls,
            rows: 0,
            index: None,
        }
    }

    /// Assembles a table directly from dense column vectors and null
    /// masks — the chunk decoder's constructor ([`crate::storage`]). Null
    /// slots must already hold the column defaults (0 / 0.0 / ""), exactly
    /// as [`Table::push_row`] leaves them, so a decode round-trips
    /// bit-identically. A `None` column is *absent*: the table has `rows`
    /// rows but no storage for it, and reading it panics — a projected
    /// scan table holds only the columns its plan references.
    ///
    /// # Panics
    /// Panics when column counts or lengths disagree with the schema.
    pub(crate) fn from_columns(
        schema: Schema,
        columns: Vec<Option<(ColumnData, Vec<bool>)>>,
        rows: usize,
    ) -> Table {
        assert_eq!(columns.len(), schema.len(), "column count mismatch");
        let (columns, nulls) = columns
            .into_iter()
            .zip(schema.columns())
            .enumerate()
            .map(|(i, (col, def))| match col {
                Some((data, nulls)) => {
                    assert_eq!(data.len(), rows, "column {i} length mismatch");
                    assert_eq!(nulls.len(), rows, "null mask {i} length mismatch");
                    (data, nulls)
                }
                None => (ColumnData::new(def.ty), Vec::new()),
            })
            .unzip();
        Table {
            schema,
            columns,
            nulls,
            rows,
            index: None,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Estimated on-disk footprint in bytes: schema row width × rows, the
    /// accounting the paper's Table 1 uses plus exact string lengths.
    pub fn footprint_bytes(&self) -> u64 {
        let mut fixed = 0u64;
        let mut var = 0u64;
        for (i, c) in self.schema.columns().iter().enumerate() {
            match c.ty {
                ColumnType::Str => {
                    if let ColumnData::Str(v) = &self.columns[i] {
                        var += v.iter().map(|s| s.len() as u64).sum::<u64>();
                    }
                }
                _ => fixed += c.ty.fixed_width() as u64,
            }
        }
        fixed * self.rows as u64 + var
    }

    /// Appends a row. Integer values widen to float columns; anything else
    /// mismatched is an error.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::WrongArity {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        // Validate before mutating so a failed push leaves no partial row.
        for (i, v) in row.iter().enumerate() {
            let def = &self.schema.columns()[i];
            if !def.ty.admits(v) {
                return Err(TableError::TypeMismatch {
                    column: def.name.clone(),
                    value: v.to_string(),
                });
            }
        }
        let row_id = self.rows as u32;
        for (i, v) in row.into_iter().enumerate() {
            match v {
                Value::Null => {
                    self.columns[i].push_default();
                    self.nulls[i].push(true);
                }
                Value::Int(x) => {
                    match &mut self.columns[i] {
                        ColumnData::Int(col) => col.push(x),
                        ColumnData::Float(col) => col.push(x as f64),
                        ColumnData::Str(_) => unreachable!("validated above"),
                    }
                    self.nulls[i].push(false);
                    if let Some((idx_col, map)) = &mut self.index {
                        if *idx_col == i {
                            map.entry(x).or_default().push(row_id);
                        }
                    }
                }
                Value::Float(x) => {
                    match &mut self.columns[i] {
                        ColumnData::Float(col) => col.push(x),
                        _ => unreachable!("validated above"),
                    }
                    self.nulls[i].push(false);
                }
                Value::Str(s) => {
                    match &mut self.columns[i] {
                        ColumnData::Str(col) => col.push(s),
                        _ => unreachable!("validated above"),
                    }
                    self.nulls[i].push(false);
                }
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Reads one cell.
    ///
    /// # Panics
    /// Panics when `row` or `col` is out of bounds (internal invariant;
    /// executor row ids always come from this table).
    pub fn get(&self, row: usize, col: usize) -> Value {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        if self.nulls[col][row] {
            return Value::Null;
        }
        match &self.columns[col] {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Str(v) => Value::Str(v[row].clone()),
        }
    }

    /// Borrows column `col`'s dense storage for vectorized kernels.
    ///
    /// # Panics
    /// Panics when `col` is out of bounds.
    pub fn column_slice(&self, col: usize) -> ColumnSlice<'_> {
        match &self.columns[col] {
            ColumnData::Int(v) => ColumnSlice::Int(v),
            ColumnData::Float(v) => ColumnSlice::Float(v),
            ColumnData::Str(v) => ColumnSlice::Str(v),
        }
    }

    /// Borrows column `col`'s null mask (`true` = NULL).
    ///
    /// # Panics
    /// Panics when `col` is out of bounds.
    pub fn null_mask(&self, col: usize) -> &[bool] {
        &self.nulls[col]
    }

    /// Reads one cell by column name; `None` for an unknown column.
    pub fn get_by_name(&self, row: usize, name: &str) -> Option<Value> {
        self.schema.index_of(name).map(|c| self.get(row, c))
    }

    /// Materializes one full row.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.schema.len()).map(|c| self.get(row, c)).collect()
    }

    /// Builds (or rebuilds) the index on integer column `name`. In Qserv
    /// this is invoked for `objectId` on every chunk table.
    pub fn build_index(&mut self, name: &str) -> Result<(), TableError> {
        let col = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::BadIndexColumn(name.to_string()))?;
        let data = match &self.columns[col] {
            ColumnData::Int(v) => v,
            _ => return Err(TableError::BadIndexColumn(name.to_string())),
        };
        let mut map: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (row, (&v, &is_null)) in data.iter().zip(&self.nulls[col]).enumerate() {
            if !is_null {
                map.entry(v).or_default().push(row as u32);
            }
        }
        self.index = Some((col, map));
        Ok(())
    }

    /// The name of the indexed column, when an index exists.
    pub fn indexed_column(&self) -> Option<&str> {
        self.index
            .as_ref()
            .map(|(c, _)| self.schema.columns()[*c].name.as_str())
    }

    /// Row ids whose indexed column equals `key` (empty when no index or no
    /// match). The executor consults [`Table::indexed_column`] first.
    pub fn index_lookup(&self, key: i64) -> &[u32] {
        match &self.index {
            Some((_, map)) => map.get(&key).map(|v| v.as_slice()).unwrap_or(&[]),
            None => &[],
        }
    }

    /// An `Arc`'d empty clone of this table's shape (schema + index
    /// definition, no rows) — used when deriving subchunk tables.
    pub fn empty_like(&self) -> Table {
        let mut t = Table::new(self.schema.clone());
        if let Some((c, _)) = &self.index {
            t.index = Some((*c, BTreeMap::new()));
        }
        t
    }

    /// Keeps the first `rows` rows (no-op when the table has no more),
    /// cutting each column and null mask in place: no row is
    /// materialized, and the kept cells are untouched bits. The index,
    /// if any, forgets the cut rows.
    pub fn truncate(&mut self, rows: usize) {
        if rows >= self.rows {
            return;
        }
        for (col, nulls) in self.columns.iter_mut().zip(&mut self.nulls) {
            col.truncate(rows);
            nulls.truncate(rows);
        }
        self.rows = rows;
        if let Some((_, map)) = &mut self.index {
            map.retain(|_, ids| {
                ids.retain(|&r| (r as usize) < rows);
                !ids.is_empty()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn obj_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("objectId", ColumnType::Int),
            ColumnDef::new("ra_PS", ColumnType::Float),
            ColumnDef::new("name", ColumnType::Str),
        ])
    }

    fn sample() -> Table {
        let mut t = Table::new(obj_schema());
        t.push_row(vec![
            Value::Int(1),
            Value::Float(10.5),
            Value::Str("a".into()),
        ])
        .unwrap();
        t.push_row(vec![Value::Int(2), Value::Null, Value::Str("b".into())])
            .unwrap();
        t.push_row(vec![
            Value::Int(1),
            Value::Float(11.0),
            Value::Str("c".into()),
        ])
        .unwrap();
        t
    }

    #[test]
    fn push_and_get() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.get(0, 0), Value::Int(1));
        assert_eq!(t.get(1, 1), Value::Null);
        assert_eq!(t.get(2, 2), Value::Str("c".into()));
        assert_eq!(t.get_by_name(0, "ra_PS"), Some(Value::Float(10.5)));
        assert_eq!(t.get_by_name(0, "missing"), None);
    }

    #[test]
    fn int_widens_to_float_column() {
        let mut t = Table::new(obj_schema());
        t.push_row(vec![Value::Int(1), Value::Int(7), Value::Str("".into())])
            .unwrap();
        assert_eq!(t.get(0, 1), Value::Float(7.0));
    }

    #[test]
    fn arity_and_type_checked() {
        let mut t = Table::new(obj_schema());
        assert!(matches!(
            t.push_row(vec![Value::Int(1)]),
            Err(TableError::WrongArity { .. })
        ));
        assert!(matches!(
            t.push_row(vec![
                Value::Str("x".into()),
                Value::Float(0.0),
                Value::Str("".into())
            ]),
            Err(TableError::TypeMismatch { .. })
        ));
        // Failed pushes leave the table unchanged.
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn index_lookup_finds_all_rows() {
        let mut t = sample();
        t.build_index("objectId").unwrap();
        assert_eq!(t.indexed_column(), Some("objectId"));
        assert_eq!(t.index_lookup(1), &[0, 2]);
        assert_eq!(t.index_lookup(2), &[1]);
        assert!(t.index_lookup(99).is_empty());
    }

    #[test]
    fn index_maintained_on_push() {
        let mut t = sample();
        t.build_index("objectId").unwrap();
        t.push_row(vec![Value::Int(2), Value::Null, Value::Str("d".into())])
            .unwrap();
        assert_eq!(t.index_lookup(2), &[1, 3]);
    }

    #[test]
    fn index_skips_nulls() {
        let mut t = Table::new(obj_schema());
        t.push_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        t.build_index("objectId").unwrap();
        assert!(t.index_lookup(0).is_empty());
    }

    #[test]
    fn bad_index_column_rejected() {
        let mut t = sample();
        assert!(t.build_index("ra_PS").is_err());
        assert!(t.build_index("nope").is_err());
    }

    #[test]
    fn footprint_accounting() {
        let t = sample();
        // 2 fixed 8-byte columns x 3 rows + 3 single-char strings.
        assert_eq!(t.footprint_bytes(), 16 * 3 + 3);
    }

    #[test]
    fn truncate_keeps_a_bit_exact_prefix() {
        let mut t = Table::new(obj_schema());
        let rows = [
            (
                Value::Int(1),
                Value::Float(f64::NAN),
                Value::Str("a\tb".into()),
            ),
            (Value::Null, Value::Float(-0.0), Value::Null),
            (Value::Int(3), Value::Null, Value::Str(String::new())),
            (Value::Int(1), Value::Float(2.5), Value::Str("d".into())),
        ];
        for (a, b, c) in rows {
            t.push_row(vec![a, b, c]).unwrap();
        }
        t.build_index("objectId").unwrap();
        t.truncate(9);
        assert_eq!(t.num_rows(), 4, "a longer bound is a no-op");
        t.truncate(3);
        assert_eq!(t.num_rows(), 3);
        let nan = match t.get(0, 1) {
            Value::Float(f) => f,
            v => panic!("NaN cell read back as {v:?}"),
        };
        assert_eq!(nan.to_bits(), f64::NAN.to_bits());
        match t.get(1, 1) {
            Value::Float(z) => assert_eq!(z.to_bits(), (-0.0f64).to_bits()),
            v => panic!("-0.0 cell read back as {v:?}"),
        }
        assert_eq!(t.row(1)[0], Value::Null);
        assert_eq!(t.row(1)[2], Value::Null);
        assert_eq!(t.get(0, 2), Value::Str("a\tb".into()));
        assert_eq!(t.get(2, 2), Value::Str(String::new()));
        assert_eq!(t.null_mask(1), &[false, false, true]);
        assert_eq!(t.index_lookup(1), &[0], "the cut row leaves the index");
        assert!(matches!(t.column_slice(2), ColumnSlice::Str(v) if v.len() == 3));
        t.truncate(0);
        assert!(t.is_empty());
        assert!(t.null_mask(0).is_empty());
        assert!(t.index_lookup(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        sample().get(99, 0);
    }
}
