//! Wire encoding: TSV escaping, value round-tripping, frame limits,
//! and the `#<sid>` multiplexing tag.

use qserv_engine::schema::ColumnType;
use qserv_engine::table::ColumnSlice;
use qserv_engine::value::Value;
use std::fmt;
use std::io::Write as _;

/// Largest statement (bytes between `;` terminators) the server
/// accepts on one connection. A client that exceeds it without ever
/// completing a statement gets an `ERR` frame and the connection is
/// closed — there is no way to resynchronize inside an unbounded blob.
pub const MAX_STATEMENT_BYTES: usize = 1 << 20;

/// A malformed frame or value on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// Description of the malformed input.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

fn err<T>(message: impl Into<String>) -> Result<T, ProtocolError> {
    Err(ProtocolError {
        message: message.into(),
    })
}

/// Appends `s` to `out` escaped as a string cell: `\` → `\\`, TAB →
/// `\t`, LF → `\n`, CR → `\r`, copying the runs between escapes whole.
fn write_escaped(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escaped: &[u8] = match b {
            b'\\' => b"\\\\",
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        out.extend_from_slice(escaped);
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
}

/// Reverses the escaping of a string cell.
pub fn unescape(s: &str) -> Result<String, ProtocolError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('N') => return err("\\N is only valid as a whole cell"),
            other => return err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

/// The wire type tag of a value/column.
pub fn type_tag(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Int(_) => "int",
        Value::Float(_) => "float",
        Value::Str(_) => "str",
    }
}

/// The wire tag of a merge-time column vote (`None` = all-NULL so far).
pub fn column_tag(ty: Option<ColumnType>) -> &'static str {
    match ty {
        None => "null",
        Some(ColumnType::Int) => "int",
        Some(ColumnType::Float) => "float",
        Some(ColumnType::Str) => "str",
    }
}

/// Splits the optional session tag off a statement or frame:
/// `#<sid> <body>` → `(Some(sid), body)`, anything else → `(None, s)`.
/// The tag must be all-digit and followed by whitespace — a leading `#`
/// that is not a well-formed tag (say a comment) passes through intact.
pub fn split_sid(s: &str) -> (Option<u64>, &str) {
    let Some(tail) = s.strip_prefix('#') else {
        return (None, s);
    };
    let digits = tail.len() - tail.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return (None, s);
    }
    let rest = &tail[digits..];
    if !rest.starts_with(char::is_whitespace) {
        return (None, s);
    }
    match tail[..digits].parse::<u64>() {
        Ok(sid) => (Some(sid), rest.trim_start_matches(char::is_whitespace)),
        Err(_) => (None, s), // overflow: not a usable tag
    }
}

/// Renders the frame prefix for a tagged response (empty when the
/// request carried no tag).
pub fn sid_prefix(sid: Option<u64>) -> String {
    match sid {
        Some(sid) => format!("#{sid} "),
        None => String::new(),
    }
}

/// Encodes one value as a TSV cell.
pub fn encode_value(v: &Value) -> String {
    let mut out = Vec::new();
    write_value(&mut out, v);
    String::from_utf8(out).expect("cells are UTF-8")
}

/// Appends one value to `out` as a TSV cell: `\N` for NULL, decimal
/// numbers, escaped strings. The one spelling of a cell — `ROWS`
/// frames are written through it, cell by cell in place, straight into
/// the connection's output buffer, and [`encode_value`] wraps it.
pub fn write_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.extend_from_slice(b"\\N"),
        // Writing to a `Vec` cannot fail.
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        // `{}` on f64 prints the shortest round-tripping form.
        Value::Float(f) => {
            let _ = write!(out, "{f}");
        }
        Value::Str(s) => write_escaped(out, s),
    }
}

/// Appends cell `row` of a column read in place — its dense slice and
/// the cell's null flag — spelled as [`write_value`] spells the cell's
/// value, without copying a string out of the column.
pub(crate) fn write_cell(out: &mut Vec<u8>, col: ColumnSlice<'_>, null: bool, row: usize) {
    match col {
        _ if null => write_value(out, &Value::Null),
        ColumnSlice::Int(v) => write_value(out, &Value::Int(v[row])),
        ColumnSlice::Float(v) => write_value(out, &Value::Float(v[row])),
        ColumnSlice::Str(v) => write_escaped(out, &v[row]),
    }
}

/// Decodes one TSV cell under a column type tag (`int`/`float`/`str`).
pub fn decode_value(cell: &str, ty: &str) -> Result<Value, ProtocolError> {
    if cell == "\\N" {
        return Ok(Value::Null);
    }
    match ty {
        "int" => cell
            .parse::<i64>()
            .map(Value::Int)
            .or_else(|_| err(format!("bad int cell {cell:?}"))),
        "float" => cell
            .parse::<f64>()
            .map(Value::Float)
            .or_else(|_| err(format!("bad float cell {cell:?}"))),
        "str" => Ok(Value::Str(unescape(cell)?)),
        // An all-NULL column has no better tag; any non-\N cell is bad.
        "null" => err(format!("non-null cell {cell:?} in null-typed column")),
        other => err(format!("unknown type tag {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trip() {
        for s in [
            "",
            "plain",
            "tab\there",
            "line\nbreak",
            "back\\slash",
            "\r\n\t\\",
        ] {
            let cell = encode_value(&Value::Str(s.into()));
            assert_eq!(unescape(&cell).unwrap(), s, "{s:?}");
        }
    }

    #[test]
    fn escaped_cells_are_single_line_single_column() {
        let e = encode_value(&Value::Str("a\tb\nc".into()));
        assert!(!e.contains('\t'));
        assert!(!e.contains('\n'));
    }

    #[test]
    fn value_round_trip() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(std::f64::consts::PI),
            Value::Float(1e-300),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::NAN),
            Value::Str("it's\ta\nstring\\".into()),
        ] {
            let ty = if v.is_null() { "str" } else { type_tag(&v) };
            let cell = encode_value(&v);
            match (decode_value(&cell, ty).unwrap(), &v) {
                (Value::Float(got), Value::Float(want)) if want.is_nan() => {
                    assert!(got.is_nan(), "{cell:?}")
                }
                (got, _) => assert_eq!(got, v, "{v:?}"),
            }
        }
    }

    #[test]
    fn null_cell_decodes_under_any_type() {
        for ty in ["int", "float", "str", "null"] {
            assert_eq!(decode_value("\\N", ty).unwrap(), Value::Null);
        }
    }

    #[test]
    fn bad_cells_rejected() {
        assert!(decode_value("abc", "int").is_err());
        assert!(decode_value("abc", "float").is_err());
        assert!(decode_value("x", "null").is_err());
        assert!(decode_value("x", "bogus").is_err());
        assert!(unescape("trailing\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }

    #[test]
    fn sid_tags_parse_and_pass_through() {
        assert_eq!(split_sid("#7 SELECT 1"), (Some(7), "SELECT 1"));
        assert_eq!(split_sid("#12  KILL 3"), (Some(12), "KILL 3"));
        assert_eq!(split_sid("SELECT 1"), (None, "SELECT 1"));
        // Malformed tags are not tags.
        assert_eq!(split_sid("#x SELECT 1"), (None, "#x SELECT 1"));
        assert_eq!(split_sid("#7SELECT 1"), (None, "#7SELECT 1"));
        assert_eq!(split_sid("#"), (None, "#"));
        assert_eq!(sid_prefix(Some(3)), "#3 ");
        assert_eq!(sid_prefix(None), "");
    }

    #[test]
    fn literal_backslash_n_string_survives() {
        // A *string* "\N" must not collide with the NULL marker.
        let v = Value::Str("\\N".into());
        let cell = encode_value(&v);
        assert_eq!(cell, "\\\\N");
        assert_eq!(decode_value(&cell, "str").unwrap(), v);
    }
}
