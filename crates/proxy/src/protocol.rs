//! Wire limits and errors, and a TSV spelling of one value.
//!
//! [`encode_value`], [`decode_value`] and [`type_tag`] are on no
//! product path — results reach the client as column frames (see the
//! [crate docs](crate)). They stay public because the benchmark's
//! replay still times them.

use qserv_engine::value::Value;
use std::fmt;

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

/// Escapes a string cell: `\` → `\\`, TAB → `\t`, LF → `\n`, CR → `\r`.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses the escaping of a string cell.
fn unescape(s: &str) -> Result<String, ProtocolError> {
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

/// Encodes one value as a TSV cell: `\N` for NULL, decimal numbers,
/// escaped strings.
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "\\N".to_string(),
        Value::Int(i) => i.to_string(),
        // `{}` on f64 prints the shortest round-tripping form.
        Value::Float(f) => f.to_string(),
        Value::Str(s) => escape(s),
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
    fn literal_backslash_n_string_survives() {
        // A *string* "\N" must not collide with the NULL marker.
        let v = Value::Str("\\N".into());
        let cell = encode_value(&v);
        assert_eq!(cell, "\\\\N");
        assert_eq!(decode_value(&cell, "str").unwrap(), v);
    }
}
