//! `mysqldump`-style result transfer.
//!
//! Paper §5.4: "Results from a chunk query are transferred as SQL
//! statements. The worker executes mysqldump on the result table and the
//! resulting byte stream is read byte-for-byte by the master, which
//! executes the SQL statements to load results into its local database."
//! This module is both ends of that pipe: [`dump_table`] renders a result
//! table as `CREATE TABLE` + batched `INSERT` statements, and [`load_dump`]
//! parses such a stream back into a [`Table`]. The paper calls out the
//! overhead of this text round-trip (§7.1), and results no longer take
//! it: they travel as [`crate::storage::encode_frame`] result frames.
//! This module stays public only for the end-to-end benchmark's traced
//! replay (`api.rs`) and the `figures` binary's Ablation E, which
//! measure the text path against the frames.

use crate::schema::{ColumnDef, ColumnType, Schema};
use crate::table::Table;
use crate::value::Value;
use qserv_sqlparse::lexer::{tokenize, Token, TokenKind};
use std::fmt;
use std::fmt::Write as _;

/// Rows per INSERT statement in a dump (mysqldump batches similarly via
/// `--extended-insert`).
const ROWS_PER_INSERT: usize = 256;

/// Errors from parsing a dump stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DumpError {
    /// Description of the malformed input.
    pub message: String,
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dump error: {}", self.message)
    }
}

impl std::error::Error for DumpError {}

fn sql_type(ty: ColumnType) -> &'static str {
    match ty {
        ColumnType::Int => "BIGINT",
        ColumnType::Float => "DOUBLE",
        ColumnType::Str => "TEXT",
    }
}

/// Serializes `table` as SQL text creating and populating `name`.
pub fn dump_table(name: &str, table: &Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- qserv result dump");
    let _ = write!(out, "CREATE TABLE `{name}` (");
    for (i, c) in table.schema().columns().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "`{}` {}", c.name, sql_type(c.ty));
    }
    out.push_str(");\n");

    let mut r = 0;
    while r < table.num_rows() {
        let _ = write!(out, "INSERT INTO `{name}` VALUES ");
        let end = (r + ROWS_PER_INSERT).min(table.num_rows());
        for (k, row) in (r..end).enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push('(');
            for (i, v) in table.row(row).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(')');
        }
        out.push_str(";\n");
        r = end;
    }
    out
}

/// Parses a dump produced by [`dump_table`] back into a table and its
/// name. Tolerates arbitrary whitespace, comments and INSERT batching, so
/// any dump with this statement shape loads — not just our own output.
pub fn load_dump(sql: &str) -> Result<(String, Table), DumpError> {
    let tokens = tokenize(sql).map_err(|e| DumpError {
        message: format!("bad token: {e}"),
    })?;
    let mut p = DumpParser { tokens, pos: 0 };
    let (name, schema) = p.create_table()?;
    let mut table = Table::new(schema);
    while p.peek().is_some() {
        p.insert_into(&name, &mut table)?;
    }
    Ok((name, table))
}

struct DumpParser {
    tokens: Vec<Token>,
    pos: usize,
}

impl DumpParser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, DumpError> {
        Err(DumpError {
            message: message.into(),
        })
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), DumpError> {
        match self.bump() {
            Some(k) if k.is_kw(kw) => Ok(()),
            other => self.err(format!("expected {kw}, got {other:?}")),
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), DumpError> {
        match self.bump() {
            Some(k) if k == kind => Ok(()),
            other => self.err(format!("expected {kind:?}, got {other:?}")),
        }
    }

    fn ident(&mut self) -> Result<String, DumpError> {
        match self.bump() {
            Some(TokenKind::Ident(s)) | Some(TokenKind::QuotedIdent(s)) => Ok(s),
            other => self.err(format!("expected identifier, got {other:?}")),
        }
    }

    fn create_table(&mut self) -> Result<(String, Schema), DumpError> {
        self.expect_kw("create")?;
        self.expect_kw("table")?;
        let name = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut defs = Vec::new();
        loop {
            let col = self.ident()?;
            let ty_name = self.ident()?;
            let ty = match ty_name.to_ascii_uppercase().as_str() {
                "BIGINT" | "INT" | "INTEGER" => ColumnType::Int,
                "DOUBLE" | "FLOAT" | "REAL" => ColumnType::Float,
                "TEXT" | "VARCHAR" | "CHAR" => ColumnType::Str,
                other => return self.err(format!("unknown column type {other}")),
            };
            defs.push(ColumnDef::new(&col, ty));
            match self.bump() {
                Some(TokenKind::Comma) => continue,
                Some(TokenKind::RParen) => break,
                other => return self.err(format!("expected ',' or ')', got {other:?}")),
            }
        }
        self.expect(TokenKind::Semicolon)?;
        Ok((name, Schema::new(defs)))
    }

    fn insert_into(&mut self, name: &str, table: &mut Table) -> Result<(), DumpError> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let target = self.ident()?;
        if target != name {
            return self.err(format!("INSERT into {target}, expected {name}"));
        }
        self.expect_kw("values")?;
        loop {
            self.expect(TokenKind::LParen)?;
            let mut row = Vec::with_capacity(table.schema().len());
            loop {
                row.push(self.value()?);
                match self.bump() {
                    Some(TokenKind::Comma) => continue,
                    Some(TokenKind::RParen) => break,
                    other => return self.err(format!("expected ',' or ')', got {other:?}")),
                }
            }
            table.push_row(row).map_err(|e| DumpError {
                message: e.to_string(),
            })?;
            match self.bump() {
                Some(TokenKind::Comma) => continue,
                Some(TokenKind::Semicolon) => break,
                other => return self.err(format!("expected ',' or ';', got {other:?}")),
            }
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value, DumpError> {
        let negative = if self.peek() == Some(&TokenKind::Minus) {
            self.pos += 1;
            true
        } else {
            false
        };
        match self.bump() {
            Some(TokenKind::Number(n)) => {
                // Parse sign and magnitude together: i64::MIN's magnitude
                // does not fit in i64, so negating after parsing would
                // reject it.
                let text = if negative { format!("-{n}") } else { n };
                if !text.contains('.') && !text.contains(['e', 'E']) {
                    let v: i64 = text.parse().map_err(|_| DumpError {
                        message: format!("bad integer {text}"),
                    })?;
                    Ok(Value::Int(v))
                } else {
                    let v: f64 = text.parse().map_err(|_| DumpError {
                        message: format!("bad float {text}"),
                    })?;
                    Ok(Value::Float(v))
                }
            }
            Some(TokenKind::Str(s)) if !negative => Ok(Value::Str(s)),
            Some(TokenKind::Ident(w)) if !negative && w.eq_ignore_ascii_case("null") => {
                Ok(Value::Null)
            }
            // Exactly `Value`'s spelling: a case-flipped payload is
            // corruption, and fails so the chunk is retried.
            Some(TokenKind::Ident(w)) if !negative && w == "NaN" => Ok(Value::Float(f64::NAN)),
            other => self.err(format!("expected value, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ColumnDef::new("objectId", ColumnType::Int),
            ColumnDef::new("ra_PS", ColumnType::Float),
            ColumnDef::new("note", ColumnType::Str),
        ]));
        t.push_row(vec![
            Value::Int(-7),
            Value::Float(10.25),
            Value::Str("it's".into()),
        ])
        .unwrap();
        t.push_row(vec![Value::Int(8), Value::Null, Value::Str(String::new())])
            .unwrap();
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let text = dump_table("result_ab12", &t);
        let (name, loaded) = load_dump(&text).unwrap();
        assert_eq!(name, "result_ab12");
        assert_eq!(loaded.num_rows(), t.num_rows());
        for r in 0..t.num_rows() {
            assert_eq!(loaded.row(r), t.row(r));
        }
        assert_eq!(loaded.schema(), t.schema());
    }

    #[test]
    fn empty_table_round_trips() {
        let t = Table::new(Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]));
        let text = dump_table("empty", &t);
        let (_, loaded) = load_dump(&text).unwrap();
        assert_eq!(loaded.num_rows(), 0);
        assert_eq!(loaded.schema().len(), 1);
    }

    #[test]
    fn batching_splits_inserts() {
        let mut t = Table::new(Schema::new(vec![ColumnDef::new("x", ColumnType::Int)]));
        for i in 0..600 {
            t.push_row(vec![Value::Int(i)]).unwrap();
        }
        let text = dump_table("big", &t);
        assert_eq!(text.matches("INSERT INTO").count(), 3); // 256+256+88
        let (_, loaded) = load_dump(&text).unwrap();
        assert_eq!(loaded.num_rows(), 600);
        assert_eq!(loaded.get(599, 0), Value::Int(599));
    }

    #[test]
    fn float_precision_survives() {
        let mut t = Table::new(Schema::new(vec![ColumnDef::new("v", ColumnType::Float)]));
        for v in [std::f64::consts::PI, 1e-300, -2.5e17, 0.1 + 0.2] {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        let (_, loaded) = load_dump(&dump_table("f", &t)).unwrap();
        for r in 0..t.num_rows() {
            assert_eq!(
                loaded.get(r, 0),
                t.get(r, 0),
                "row {r} must round-trip exactly"
            );
        }
    }

    #[test]
    fn non_finite_floats_round_trip() {
        let mut t = Table::new(Schema::new(vec![ColumnDef::new("v", ColumnType::Float)]));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        let text = dump_table("f", &t);
        let (_, loaded) = load_dump(&text).unwrap();
        for r in 0..t.num_rows() {
            let (Value::Float(want), Value::Float(got)) = (t.get(r, 0), loaded.get(r, 0)) else {
                panic!("row {r} must stay a float: {text}");
            };
            if want.is_nan() {
                assert!(got.is_nan(), "row {r}: {got}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "row {r}: {got}");
            }
        }
        // Only the exact spelling reads as NaN: anything else is corrupt.
        for bad in ["nan", "NAN", "-NaN", "inf"] {
            let corrupt = text.replacen("NaN", bad, 1);
            assert!(load_dump(&corrupt).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn extreme_integers_round_trip() {
        let mut t = Table::new(Schema::new(vec![ColumnDef::new("v", ColumnType::Int)]));
        for v in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
            t.push_row(vec![Value::Int(v)]).unwrap();
        }
        let (_, loaded) = load_dump(&dump_table("x", &t)).unwrap();
        for r in 0..t.num_rows() {
            assert_eq!(loaded.get(r, 0), t.get(r, 0));
        }
    }

    #[test]
    fn string_quotes_escaped() {
        let mut t = Table::new(Schema::new(vec![ColumnDef::new("s", ColumnType::Str)]));
        t.push_row(vec![Value::Str("a'b''c".into())]).unwrap();
        let (_, loaded) = load_dump(&dump_table("s", &t)).unwrap();
        assert_eq!(loaded.get(0, 0), Value::Str("a'b''c".into()));
    }

    #[test]
    fn malformed_dumps_rejected() {
        assert!(load_dump("").is_err());
        assert!(load_dump("CREATE TABLE t (x BIGINT)").is_err()); // missing ;
        assert!(load_dump("CREATE TABLE t (x WIDGET);").is_err());
        assert!(
            load_dump("CREATE TABLE t (x BIGINT);\nINSERT INTO u VALUES (1);").is_err(),
            "INSERT into a different table must be rejected"
        );
        assert!(load_dump("CREATE TABLE t (x BIGINT);\nINSERT INTO t VALUES (1, 2);").is_err());
    }

    #[test]
    fn foreign_but_wellformed_dump_loads() {
        // Hand-written dump with different spacing/case than ours.
        let text = "create table R ( a bigint , b double , c text );\n\
                    insert into R values ( 1 , 2.5 , 'x' ) , ( -2 , -0.5 , NULL );";
        let (name, t) = load_dump(text).unwrap();
        assert_eq!(name, "R");
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.get(1, 0), Value::Int(-2));
        assert_eq!(t.get(1, 2), Value::Null);
    }
}
