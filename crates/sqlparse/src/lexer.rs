//! SQL tokenizer.
//!
//! Produces a flat token stream with byte offsets for error reporting.
//! Keywords are recognized case-insensitively but identifiers preserve
//! their original spelling (LSST column names like `ra_PS` are
//! case-sensitive in practice). Backtick-quoted identifiers are supported
//! because Qserv's aggregate rewriting produces names like
//! `` `SUM(uFlux_SG)` `` (paper §5.3 example).

use std::fmt;

/// A lexical error with its byte offset in the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// The kind of a token.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Unquoted identifier or keyword (`Object`, `SELECT`, `ra_PS`).
    Ident(String),
    /// Backtick-quoted identifier (contents, unquoted).
    QuotedIdent(String),
    /// Numeric literal (kept as text; parsed on demand).
    Number(String),
    /// Single-quoted string literal (contents, unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `.`
    Dot,
    /// `;`
    Semicolon,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `!=` or `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl TokenKind {
    /// True when this is the keyword `kw` (case-insensitive). Only unquoted
    /// identifiers can be keywords.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// A token plus its source location.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token kind and text.
    pub kind: TokenKind,
    /// Byte offset where the token starts.
    pub offset: usize,
}

/// Tokenizes `input`, skipping whitespace and `--` line comments.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment (used for the SUBCHUNKS header, paper §5.4).
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: i,
                });
                i += 1;
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: i,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: i,
                });
                i += 1;
            }
            b';' => {
                tokens.push(Token {
                    kind: TokenKind::Semicolon,
                    offset: i,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: i,
                });
                i += 1;
            }
            b'+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    offset: i,
                });
                i += 1;
            }
            b'-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    offset: i,
                });
                i += 1;
            }
            b'/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    offset: i,
                });
                i += 1;
            }
            b'%' => {
                tokens.push(Token {
                    kind: TokenKind::Percent,
                    offset: i,
                });
                i += 1;
            }
            b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: i,
                });
                i += 1;
            }
            b'!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    return Err(LexError {
                        offset: i,
                        message: "unexpected '!' (did you mean '!=' ?)".into(),
                    });
                }
            }
            b'<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::LtEq,
                        offset: i,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::GtEq,
                        offset: i,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'.' => {
                // Could be a qualified-name dot or the start of `.5`.
                if i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    let (num, next) = lex_number(bytes, i);
                    tokens.push(Token {
                        kind: TokenKind::Number(num),
                        offset: i,
                    });
                    i = next;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Dot,
                        offset: i,
                    });
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let (num, next) = lex_number(bytes, i);
                tokens.push(Token {
                    kind: TokenKind::Number(num),
                    offset: i,
                });
                i = next;
            }
            b'\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            offset: start,
                            message: "unterminated string literal".into(),
                        });
                    }
                    if bytes[i] == b'\'' {
                        // '' is an escaped quote.
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        s.push(bytes[i] as char);
                        i += 1;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
            }
            b'`' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            offset: start,
                            message: "unterminated quoted identifier".into(),
                        });
                    }
                    if bytes[i] == b'`' {
                        i += 1;
                        // MySQL's rule: inside backticks, a backtick is
                        // written twice.
                        if bytes.get(i) != Some(&b'`') {
                            break;
                        }
                    }
                    s.push(bytes[i] as char);
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::QuotedIdent(s),
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                let word = std::str::from_utf8(&bytes[start..i])
                    .expect("ASCII slice is valid UTF-8")
                    .to_string();
                tokens.push(Token {
                    kind: TokenKind::Ident(word),
                    offset: start,
                });
            }
            other => {
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character {:?}", other as char),
                });
            }
        }
    }
    Ok(tokens)
}

/// Lexes a numeric literal starting at `start`: digits, optional fraction,
/// optional exponent. Returns the text and the index after it.
fn lex_number(bytes: &[u8], start: usize) -> (String, usize) {
    let mut i = start;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if i < bytes.len() && bytes[i] == b'.' {
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        let mut j = i + 1;
        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
            j += 1;
        }
        if j < bytes.len() && bytes[j].is_ascii_digit() {
            i = j;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
        }
    }
    (
        std::str::from_utf8(&bytes[start..i])
            .expect("ASCII slice is valid UTF-8")
            .to_string(),
        i,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_select() {
        let ks = kinds("SELECT * FROM Object WHERE objectId = 42;");
        assert_eq!(ks.len(), 9);
        assert!(ks[0].is_kw("select"));
        assert_eq!(ks[1], TokenKind::Star);
        assert!(ks[2].is_kw("FROM"));
        assert_eq!(ks[3], TokenKind::Ident("Object".into()));
        assert_eq!(ks[6], TokenKind::Eq);
        assert_eq!(ks[7], TokenKind::Number("42".into()));
        assert_eq!(ks[8], TokenKind::Semicolon);
    }

    #[test]
    fn numbers_with_fraction_and_exponent() {
        assert_eq!(kinds("21.5"), vec![TokenKind::Number("21.5".into())]);
        assert_eq!(kinds(".04"), vec![TokenKind::Number(".04".into())]);
        assert_eq!(kinds("1e9"), vec![TokenKind::Number("1e9".into())]);
        assert_eq!(kinds("2.5E-3"), vec![TokenKind::Number("2.5E-3".into())]);
    }

    #[test]
    fn negative_number_is_minus_then_number() {
        let ks = kinds("-5");
        assert_eq!(ks, vec![TokenKind::Minus, TokenKind::Number("5".into())]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(kinds("<"), vec![TokenKind::Lt]);
        assert_eq!(kinds("<="), vec![TokenKind::LtEq]);
        assert_eq!(kinds(">"), vec![TokenKind::Gt]);
        assert_eq!(kinds(">="), vec![TokenKind::GtEq]);
        assert_eq!(kinds("!="), vec![TokenKind::NotEq]);
        assert_eq!(kinds("<>"), vec![TokenKind::NotEq]);
    }

    #[test]
    fn qualified_names_and_dots() {
        let ks = kinds("o1.ra_PS");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("o1".into()),
                TokenKind::Dot,
                TokenKind::Ident("ra_PS".into()),
            ]
        );
    }

    #[test]
    fn backtick_quoted_identifier() {
        let ks = kinds("SUM(`COUNT(uFlux_SG)`)");
        assert_eq!(ks[2], TokenKind::QuotedIdent("COUNT(uFlux_SG)".into()));
    }

    #[test]
    fn string_literals_with_escape() {
        assert_eq!(kinds("'abc'"), vec![TokenKind::Str("abc".into())]);
        assert_eq!(kinds("'a''b'"), vec![TokenKind::Str("a'b".into())]);
    }

    #[test]
    fn line_comments_skipped() {
        let ks = kinds("-- SUBCHUNKS: 1, 2\nSELECT 1");
        assert!(ks[0].is_kw("select"));
        assert_eq!(ks.len(), 2);
    }

    #[test]
    fn minus_not_comment() {
        let ks = kinds("a - b");
        assert_eq!(ks.len(), 3);
        assert_eq!(ks[1], TokenKind::Minus);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
        assert!(tokenize("`oops").is_err());
    }

    #[test]
    fn bad_character_errors_with_offset() {
        let err = tokenize("SELECT #").unwrap_err();
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn bang_without_eq_errors() {
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(kinds("select")[0].is_kw("SELECT"));
        assert!(kinds("SeLeCt")[0].is_kw("select"));
        assert!(!TokenKind::QuotedIdent("select".into()).is_kw("select"));
    }
}
