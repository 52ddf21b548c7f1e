//! Recursive-descent parser for the Qserv SQL subset.
//!
//! Precedence climbing over the token stream from [`crate::lexer`],
//! producing the AST of [`crate::ast`]. Matches the grammar the original
//! system accepted in the paper's evaluation: single SELECT statements, no
//! subqueries (§5.3).

use crate::ast::{
    BinaryOp, Expr, Literal, OrderItem, Projection, SelectStatement, TableRef, UnaryOp,
};
use crate::lexer::{tokenize, Token, TokenKind};
use std::fmt;

/// A parse error with a byte offset (when attributable) and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending token, or the input length at EOF.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Words that terminate an expression/alias position and therefore can
/// never be implicit aliases.
const RESERVED: &[&str] = &[
    "from", "where", "group", "order", "limit", "as", "and", "or", "not", "between", "in", "is",
    "null", "by", "desc", "asc", "select", "join", "on", "inner", "cross", "left", "right", "full",
    "outer",
];

fn is_reserved(word: &str) -> bool {
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

/// Parses a single SELECT statement (optionally `;`-terminated).
pub fn parse_select(sql: &str) -> Result<SelectStatement, ParseError> {
    let tokens = tokenize(sql).map_err(|e| ParseError {
        offset: e.offset,
        message: e.message,
    })?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: sql.len(),
    };
    let stmt = p.select()?;
    // Allow a trailing semicolon, then require EOF.
    p.eat(&TokenKind::Semicolon);
    if let Some(t) = p.peek() {
        return Err(ParseError {
            offset: t.offset,
            message: format!("unexpected trailing token {:?}", t.kind),
        });
    }
    Ok(stmt)
}

/// Splits the `EXPLAIN` verb off a statement, returning the inner SQL.
/// The verb is case-insensitive and must be followed by whitespace, so
/// ordinary SQL (which never starts with EXPLAIN) passes through as
/// `None`. `EXPLAIN` is a planner verb, not part of the SELECT grammar:
/// callers strip it here and plan the inner statement without executing.
pub fn strip_explain(sql: &str) -> Option<&str> {
    let sql = sql.trim_start();
    sql.get(..7)
        .filter(|verb| verb.eq_ignore_ascii_case("EXPLAIN"))?;
    let tail = &sql[7..];
    if tail.starts_with(char::is_whitespace) {
        Some(tail.trim_start())
    } else {
        None
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kind(&self) -> Option<&TokenKind> {
        self.peek().map(|t| &t.kind)
    }

    fn peek2_kind(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.peek().map(|t| t.offset).unwrap_or(self.input_len)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.offset(),
            message: message.into(),
        })
    }

    /// Consumes the next token if it equals `kind`.
    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes the next token if it is keyword `kw`.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek_kind(), Some(k) if k.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}"))
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            self.err(format!("expected {what}"))
        }
    }

    /// An identifier token (quoted or not); errors otherwise.
    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek_kind() {
            Some(TokenKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            Some(TokenKind::QuotedIdent(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => self.err(format!("expected {what}")),
        }
    }

    fn select(&mut self) -> Result<SelectStatement, ParseError> {
        self.expect_kw("select")?;
        let mut projections = vec![self.projection()?];
        while self.eat(&TokenKind::Comma) {
            projections.push(self.projection()?);
        }
        // FROM list: comma joins plus explicit `[INNER|CROSS] JOIN ... [ON p]`.
        // Explicit joins are desugared immediately — the joined table lands in
        // the comma FROM list and ON predicates are ANDed into WHERE — so the
        // analyzer sees one canonical shape (the paper's §5.3 grammar only
        // has comma joins; ON is sugar the frontend accepts).
        let mut from = Vec::new();
        let mut join_on: Vec<Expr> = Vec::new();
        if self.eat_kw("from") {
            from.push(self.table_ref()?);
            loop {
                if self.eat(&TokenKind::Comma) {
                    from.push(self.table_ref()?);
                } else if self.eat_kw("cross") {
                    self.expect_kw("join")?;
                    from.push(self.table_ref()?);
                } else if self.eat_kw("inner") {
                    self.expect_kw("join")?;
                    from.push(self.table_ref()?);
                    self.expect_kw("on")?;
                    join_on.push(self.expr()?);
                } else if self.eat_kw("join") {
                    from.push(self.table_ref()?);
                    self.expect_kw("on")?;
                    join_on.push(self.expr()?);
                } else if matches!(self.peek_kind(),
                    Some(k) if k.is_kw("left") || k.is_kw("right")
                        || k.is_kw("full") || k.is_kw("outer"))
                {
                    return self.err("outer joins are not supported");
                } else {
                    break;
                }
            }
        }
        let explicit_where = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        // Fold ON conjuncts and the explicit WHERE into one left-associative
        // AND chain (the printer re-parenthesizes as needed, so this is a
        // fixed point of to_sql regardless of the original spelling).
        let where_clause = join_on
            .into_iter()
            .chain(explicit_where)
            .reduce(|l, r| Expr::binary(l, BinaryOp::And, r));
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.advance() {
                Some(Token {
                    kind: TokenKind::Number(n),
                    offset,
                }) => Some(n.parse::<u64>().map_err(|_| ParseError {
                    offset,
                    message: format!("LIMIT must be a non-negative integer, got {n}"),
                })?),
                _ => return self.err("expected integer after LIMIT"),
            }
        } else {
            None
        };
        Ok(SelectStatement {
            projections,
            from,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn projection(&mut self) -> Result<Projection, ParseError> {
        // Bare `*` projection (not followed by an operator — `SELECT *` vs
        // an expression can't be confused because `*` can't start an
        // expression).
        if self.peek_kind() == Some(&TokenKind::Star) {
            self.pos += 1;
            return Ok(Projection {
                expr: Expr::Star,
                alias: None,
            });
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.expect_ident("alias after AS")?)
        } else {
            match self.peek_kind() {
                Some(TokenKind::Ident(w)) if !is_reserved(w) => {
                    let w = w.clone();
                    self.pos += 1;
                    Some(w)
                }
                _ => None,
            }
        };
        Ok(Projection { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, ParseError> {
        let first = self.expect_ident("table name")?;
        let (database, table) = if self.eat(&TokenKind::Dot) {
            (Some(first), self.expect_ident("table name after '.'")?)
        } else {
            (None, first)
        };
        let alias = if self.eat_kw("as") {
            Some(self.expect_ident("alias after AS")?)
        } else {
            match self.peek_kind() {
                Some(TokenKind::Ident(w)) if !is_reserved(w) => {
                    let w = w.clone();
                    self.pos += 1;
                    Some(w)
                }
                _ => None,
            }
        };
        Ok(TableRef {
            database,
            table,
            alias,
        })
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(lhs, BinaryOp::Or, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(lhs, BinaryOp::And, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("not") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.predicate()
    }

    /// Comparison / BETWEEN / IN / IS NULL — one shared, left-associative
    /// level (MySQL's behaviour): `a >= b < c` is `(a >= b) < c`, and a
    /// comparison result may feed a postfix predicate
    /// (`a = b IS NULL` is `(a = b) IS NULL`). Iterating here keeps the
    /// grammar a fixed point of the AST printer, which never parenthesizes
    /// a same-level left operand.
    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        loop {
            // [NOT] BETWEEN / IN
            let negated = matches!(self.peek_kind(), Some(k) if k.is_kw("not"))
                && matches!(self.peek2_kind(), Some(k) if k.is_kw("between") || k.is_kw("in"));
            if negated {
                self.pos += 1; // consume NOT
            }
            if self.eat_kw("between") {
                let low = self.additive()?;
                self.expect_kw("and")?;
                let high = self.additive()?;
                lhs = Expr::Between {
                    expr: Box::new(lhs),
                    negated,
                    low: Box::new(low),
                    high: Box::new(high),
                };
                continue;
            }
            if self.eat_kw("in") {
                self.expect(&TokenKind::LParen, "'(' after IN")?;
                let mut list = vec![self.expr()?];
                while self.eat(&TokenKind::Comma) {
                    list.push(self.expr()?);
                }
                self.expect(&TokenKind::RParen, "')' closing IN list")?;
                lhs = Expr::InList {
                    expr: Box::new(lhs),
                    negated,
                    list,
                };
                continue;
            }
            if negated {
                return self.err("expected BETWEEN or IN after NOT");
            }
            if self.eat_kw("is") {
                let negated = self.eat_kw("not");
                self.expect_kw("null")?;
                lhs = Expr::IsNull {
                    expr: Box::new(lhs),
                    negated,
                };
                continue;
            }
            let op = match self.peek_kind() {
                Some(TokenKind::Eq) => Some(BinaryOp::Eq),
                Some(TokenKind::NotEq) => Some(BinaryOp::NotEq),
                Some(TokenKind::Lt) => Some(BinaryOp::Lt),
                Some(TokenKind::LtEq) => Some(BinaryOp::LtEq),
                Some(TokenKind::Gt) => Some(BinaryOp::Gt),
                Some(TokenKind::GtEq) => Some(BinaryOp::GtEq),
                _ => None,
            };
            if let Some(op) = op {
                self.pos += 1;
                let rhs = self.additive()?;
                lhs = Expr::binary(lhs, op, rhs);
                continue;
            }
            return Ok(lhs);
        }
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::Plus) => BinaryOp::Add,
                Some(TokenKind::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::binary(lhs, op, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::Star) => BinaryOp::Mul,
                Some(TokenKind::Slash) => BinaryOp::Div,
                Some(TokenKind::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::binary(lhs, op, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::Minus) {
            // Fold a negated literal directly, so `-5` is a literal (the
            // common case in qserv_areaspec_box(-5,-5,5,-5)).
            if let Some(TokenKind::Number(_)) = self.peek_kind() {
                if let Expr::Literal(lit) = self.primary()? {
                    return Ok(Expr::Literal(match lit {
                        Literal::Int(v) => Literal::Int(-v),
                        Literal::Float(v) => Literal::Float(-v),
                        other => other,
                    }));
                }
                unreachable!("number token parses to a literal");
            }
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat(&TokenKind::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let tok = match self.advance() {
            Some(t) => t,
            None => return self.err("unexpected end of input"),
        };
        match tok.kind {
            TokenKind::Number(text) => {
                if !text.contains('.') && !text.contains(['e', 'E']) {
                    match text.parse::<i64>() {
                        Ok(v) => Ok(Expr::Literal(Literal::Int(v))),
                        Err(_) => Ok(Expr::Literal(Literal::Float(text.parse().map_err(
                            |_| ParseError {
                                offset: tok.offset,
                                message: format!("bad number {text}"),
                            },
                        )?))),
                    }
                } else {
                    Ok(Expr::Literal(Literal::Float(text.parse().map_err(
                        |_| ParseError {
                            offset: tok.offset,
                            message: format!("bad number {text}"),
                        },
                    )?)))
                }
            }
            TokenKind::Str(s) => Ok(Expr::Literal(Literal::Str(s))),
            TokenKind::LParen => {
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Literal::Null));
                }
                // Function call?
                if self.peek_kind() == Some(&TokenKind::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek_kind() != Some(&TokenKind::RParen) {
                        loop {
                            // COUNT(*) — a lone star argument.
                            if self.peek_kind() == Some(&TokenKind::Star)
                                && matches!(
                                    self.peek2_kind(),
                                    Some(&TokenKind::RParen) | Some(&TokenKind::Comma)
                                )
                            {
                                self.pos += 1;
                                args.push(Expr::Star);
                            } else {
                                args.push(self.expr()?);
                            }
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, "')' closing argument list")?;
                    return Ok(Expr::Function { name, args });
                }
                // Qualified column?
                if self.peek_kind() == Some(&TokenKind::Dot) {
                    self.pos += 1;
                    let col = self.expect_ident("column name after '.'")?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                        quoted: false,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name,
                    quoted: false,
                })
            }
            TokenKind::QuotedIdent(name) => Ok(Expr::Column {
                qualifier: None,
                name,
                quoted: true,
            }),
            other => Err(ParseError {
                offset: tok.offset,
                message: format!("unexpected token {other:?} in expression"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) -> String {
        parse_select(sql).unwrap().to_sql()
    }

    #[test]
    fn explain_verb_strips() {
        assert_eq!(strip_explain("EXPLAIN SELECT 1"), Some("SELECT 1"));
        assert_eq!(strip_explain("explain  SELECT 1"), Some("SELECT 1"));
        assert_eq!(strip_explain("  Explain\tSELECT 1"), Some("SELECT 1"));
        assert_eq!(strip_explain("EXPLAINED x"), None);
        assert_eq!(strip_explain("EXPLAIN"), None);
        assert_eq!(strip_explain("SELECT 1"), None);
    }

    #[test]
    fn lv1_object_retrieval() {
        let s = parse_select("SELECT * FROM Object WHERE objectId = 12345").unwrap();
        assert_eq!(s.projections.len(), 1);
        assert_eq!(s.projections[0].expr, Expr::Star);
        assert_eq!(s.from[0].table, "Object");
        assert!(matches!(
            s.where_clause,
            Some(Expr::Binary {
                op: BinaryOp::Eq,
                ..
            })
        ));
    }

    #[test]
    fn lv2_time_series() {
        let s = parse_select(
            "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl \
             FROM Source WHERE objectId = 42;",
        )
        .unwrap();
        assert_eq!(s.projections.len(), 5);
        assert!(
            matches!(&s.projections[1].expr, Expr::Function { name, .. } if name == "fluxToAbMag")
        );
    }

    #[test]
    fn lv3_spatial_filter_with_between() {
        let s = parse_select(
            "SELECT COUNT(*) FROM Object \
             WHERE ra_PS BETWEEN 1 AND 2 \
             AND decl_PS BETWEEN 3 AND 4 \
             AND fluxToAbMag(zFlux_PS) BETWEEN 21 AND 21.5 \
             AND fluxToAbMag(gFlux_PS)-fluxToAbMag(rFlux_PS) BETWEEN 0.3 AND 0.4",
        )
        .unwrap();
        // The WHERE is a left-deep AND chain of 4 BETWEENs.
        let mut betweens = 0;
        s.where_clause.as_ref().unwrap().visit(&mut |e| {
            if matches!(e, Expr::Between { .. }) {
                betweens += 1;
            }
        });
        assert_eq!(betweens, 4);
    }

    #[test]
    fn hv3_group_by_with_alias() {
        let s = parse_select(
            "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId",
        )
        .unwrap();
        assert_eq!(s.projections[0].alias.as_deref(), Some("n"));
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.projections[1].output_name(), "AVG(ra_PS)");
    }

    #[test]
    fn shv1_self_join() {
        let s = parse_select(
            "SELECT count(*) FROM Object o1, Object o2 \
             WHERE qserv_areaspec_box(-5,-5,5,-5) \
             AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
        )
        .unwrap();
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[0].binding_name(), "o1");
        assert_eq!(s.from[1].binding_name(), "o2");
        // Negative literals folded.
        let mut found_box = false;
        s.where_clause.as_ref().unwrap().visit(&mut |e| {
            if let Expr::Function { name, args } = e {
                if name == "qserv_areaspec_box" {
                    found_box = true;
                    assert_eq!(args[0], Expr::Literal(Literal::Int(-5)));
                }
            }
        });
        assert!(found_box);
    }

    #[test]
    fn shv2_join_between_tables() {
        let s = parse_select(
            "SELECT o.objectId, s.sourceId, s.ra, s.decl, o.ra_PS, o.decl_PS \
             FROM Object o, Source s \
             WHERE qserv_areaspec_box(224.1, -7.5, 237.1, 5.5) \
             AND o.objectId = s.objectId \
             AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045",
        )
        .unwrap();
        assert_eq!(s.from[1].alias.as_deref(), Some("s"));
        assert!(matches!(
            &s.projections[0].expr,
            Expr::Column { qualifier: Some(q), name, .. } if q == "o" && name == "objectId"
        ));
    }

    #[test]
    fn avg_aggregation_example_from_5_3() {
        let s = parse_select(
            "SELECT AVG(uFlux_SG) FROM Object \
             WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04;",
        )
        .unwrap();
        assert_eq!(s.projections[0].output_name(), "AVG(uFlux_SG)");
    }

    #[test]
    fn explicit_join_on_desugars_to_comma_from_plus_where() {
        let a = parse_select(
            "SELECT o.objectId, s.sourceId FROM Object o JOIN Source s ON o.objectId = s.objectId \
             WHERE s.flux > 3",
        )
        .unwrap();
        let b = parse_select(
            "SELECT o.objectId, s.sourceId FROM Object o, Source s \
             WHERE o.objectId = s.objectId AND s.flux > 3",
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn inner_join_is_plain_join() {
        let a = parse_select("SELECT * FROM A INNER JOIN B ON A.x = B.x").unwrap();
        let b = parse_select("SELECT * FROM A JOIN B ON A.x = B.x").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.from.len(), 2);
    }

    #[test]
    fn cross_join_has_no_on() {
        let s = parse_select("SELECT count(*) FROM A CROSS JOIN B").unwrap();
        assert_eq!(s.from.len(), 2);
        assert!(s.where_clause.is_none());
        // ON after CROSS JOIN is a syntax error.
        assert!(parse_select("SELECT * FROM A CROSS JOIN B ON A.x = B.x").is_err());
    }

    #[test]
    fn chained_joins_fold_on_conjuncts_left_to_right() {
        let a =
            parse_select("SELECT * FROM A JOIN B ON A.x = B.x JOIN C ON B.y = C.y WHERE C.z = 1")
                .unwrap();
        let b = parse_select("SELECT * FROM A, B, C WHERE A.x = B.x AND B.y = C.y AND C.z = 1")
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn join_on_roundtrips_through_printer() {
        let s = parse_select(
            "SELECT o.objectId FROM Object o JOIN Source s \
             ON o.objectId = s.objectId AND s.flux > 3",
        )
        .unwrap();
        let once = s.to_sql();
        assert_eq!(parse_select(&once).unwrap(), s);
    }

    #[test]
    fn names_containing_backticks_roundtrip_through_printer() {
        let quoted = |name: &str| Expr::Column {
            qualifier: None,
            name: name.to_string(),
            quoted: true,
        };
        let s = SelectStatement {
            projections: vec![
                Projection {
                    expr: Expr::func("SUM", vec![quoted("ra_PS")]),
                    alias: Some("SUM(`ra_PS`)".to_string()),
                },
                Projection {
                    expr: quoted("`chunkId`"),
                    alias: None,
                },
            ],
            from: vec![TableRef::named("Object")],
            where_clause: None,
            group_by: vec![quoted("a``b")],
            order_by: vec![],
            limit: None,
        };
        let once = s.to_sql();
        assert_eq!(
            once,
            "SELECT SUM(`ra_PS`) AS `SUM(``ra_PS``)`, ```chunkId``` FROM Object GROUP BY `a````b`"
        );
        assert_eq!(parse_select(&once).unwrap(), s);
    }

    #[test]
    fn outer_joins_rejected_with_message() {
        for q in [
            "SELECT * FROM A LEFT JOIN B ON A.x = B.x",
            "SELECT * FROM A RIGHT JOIN B ON A.x = B.x",
            "SELECT * FROM A FULL OUTER JOIN B ON A.x = B.x",
            "SELECT * FROM A LEFT OUTER JOIN B ON A.x = B.x",
        ] {
            let e = parse_select(q).unwrap_err();
            assert!(e.message.contains("outer joins"), "{q}: {e}");
        }
    }

    #[test]
    fn join_requires_on() {
        assert!(parse_select("SELECT * FROM A JOIN B").is_err());
        assert!(parse_select("SELECT * FROM A INNER JOIN B WHERE A.x = 1").is_err());
    }

    #[test]
    fn database_qualified_table() {
        let s = parse_select("SELECT x FROM LSST.Object_1234").unwrap();
        assert_eq!(s.from[0].database.as_deref(), Some("LSST"));
        assert_eq!(s.from[0].table, "Object_1234");
    }

    #[test]
    fn order_by_and_limit() {
        let s = parse_select("SELECT a, b FROM T ORDER BY a DESC, b LIMIT 100").unwrap();
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(100));
    }

    #[test]
    fn in_list_and_is_null_and_not() {
        let s =
            parse_select("SELECT a FROM T WHERE a IN (1, 2, 3) AND b IS NOT NULL AND NOT c = 1")
                .unwrap();
        let w = s.where_clause.unwrap();
        let sql = w.to_sql();
        assert!(sql.contains("IN (1, 2, 3)"));
        assert!(sql.contains("IS NOT NULL"));
        assert!(sql.contains("NOT "));
    }

    #[test]
    fn not_between_and_not_in() {
        let s =
            parse_select("SELECT a FROM T WHERE a NOT BETWEEN 1 AND 2 AND b NOT IN (3)").unwrap();
        let sql = s.where_clause.unwrap().to_sql();
        assert!(sql.contains("NOT BETWEEN"));
        assert!(sql.contains("NOT IN"));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_select("SELECT a + b * c - d / e FROM T").unwrap();
        assert_eq!(s.projections[0].expr.to_sql(), "a + b * c - d / e");
    }

    #[test]
    fn parenthesized_expression() {
        let s = parse_select("SELECT (a + b) * c FROM T").unwrap();
        assert_eq!(s.projections[0].expr.to_sql(), "(a + b) * c");
    }

    #[test]
    fn quoted_ident_aggregation_merge_query() {
        // The frontend's merge query uses backticked physical column names
        // (paper §5.3): SUM(`SUM(uFlux_SG)`) / SUM(`COUNT(uFlux_SG)`).
        let s =
            parse_select("SELECT SUM(`SUM(uFlux_SG)`) / SUM(`COUNT(uFlux_SG)`) FROM result_table")
                .unwrap();
        let sql = s.projections[0].expr.to_sql();
        assert_eq!(sql, "SUM(`SUM(uFlux_SG)`) / SUM(`COUNT(uFlux_SG)`)");
    }

    #[test]
    fn implicit_alias_without_as() {
        let s = parse_select("SELECT a x FROM T y").unwrap();
        assert_eq!(s.projections[0].alias.as_deref(), Some("x"));
        assert_eq!(s.from[0].alias.as_deref(), Some("y"));
    }

    #[test]
    fn missing_from_is_allowed() {
        // `SELECT 1` — useful for engine testing.
        let s = parse_select("SELECT 1 + 1").unwrap();
        assert!(s.from.is_empty());
    }

    #[test]
    fn errors_reported() {
        assert!(parse_select("").is_err());
        assert!(parse_select("SELECT").is_err());
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("SELECT a FROM T WHERE").is_err());
        assert!(parse_select("SELECT a FROM T LIMIT x").is_err());
        assert!(parse_select("SELECT a FROM T extra garbage ,").is_err());
        assert!(parse_select("SELECT a FROM T WHERE a NOT 5").is_err());
        assert!(parse_select("INSERT INTO T VALUES (1)").is_err());
    }

    #[test]
    fn trailing_semicolon_ok_but_two_statements_rejected() {
        assert!(parse_select("SELECT a FROM T;").is_ok());
        assert!(parse_select("SELECT a FROM T; SELECT b FROM U").is_err());
    }

    #[test]
    fn count_star_in_middle_of_args_rejected_gracefully() {
        // `f(*, 1)` parses star argument then comma — accept as Star arg
        // list (MySQL would reject; we accept COUNT-like usage only).
        let s = parse_select("SELECT COUNT(*) FROM T").unwrap();
        assert_eq!(s.projections[0].expr, Expr::func("COUNT", vec![Expr::Star]));
    }

    #[test]
    fn roundtrip_paper_queries() {
        // parse → print → parse must be a fixed point (print is canonical).
        for q in [
            "SELECT * FROM Object WHERE objectId = 12345",
            "SELECT COUNT(*) FROM Object",
            "SELECT objectId, ra_PS, decl_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 4",
            "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object GROUP BY chunkId",
            "SELECT count(*) FROM Object AS o1, Object AS o2 WHERE qserv_areaspec_box(-5, -5, 5, -5) AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
        ] {
            let once = roundtrip(q);
            let twice = roundtrip(&once);
            assert_eq!(once, twice, "printing must be canonical for {q}");
        }
    }

    #[test]
    fn deep_nesting_parses() {
        let mut q = String::from("SELECT ");
        for _ in 0..50 {
            q.push('(');
        }
        q.push('1');
        for _ in 0..50 {
            q.push(')');
        }
        q.push_str(" FROM T");
        assert!(parse_select(&q).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    //! Printer/parser round-trip on *generated* ASTs: for any expression
    //! the AST printer can emit, parsing the text must reproduce the AST
    //! exactly. The frontend's whole rewriting pipeline leans on this
    //! (chunk queries are printed ASTs that workers re-parse).

    use crate::ast::{BinaryOp, Expr, Literal, Projection, SelectStatement, TableRef};
    use crate::parser::parse_select;
    use proptest::prelude::*;

    fn ident() -> impl Strategy<Value = String> {
        "[a-zA-Z][a-zA-Z0-9_]{0,10}".prop_filter("not reserved", |s| {
            !super::is_reserved(s) && !s.eq_ignore_ascii_case("count")
        })
    }

    fn literal() -> impl Strategy<Value = Literal> {
        prop_oneof![
            any::<i32>().prop_map(|v| Literal::Int(v as i64)),
            // Finite floats; printing uses shortest-round-trip form.
            (-1.0e12f64..1.0e12).prop_map(Literal::Float),
            "[a-z '\\\\]{0,8}".prop_map(Literal::Str),
            Just(Literal::Null),
        ]
    }

    fn expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            literal().prop_map(Expr::Literal),
            ident().prop_map(|n| Expr::col(&n)),
            (ident(), ident()).prop_map(|(q, n)| Expr::qcol(&q, &n)),
        ];
        leaf.prop_recursive(4, 48, 4, |inner| {
            prop_oneof![
                (
                    inner.clone(),
                    prop_oneof![
                        Just(BinaryOp::Add),
                        Just(BinaryOp::Sub),
                        Just(BinaryOp::Mul),
                        Just(BinaryOp::Div),
                        Just(BinaryOp::Eq),
                        Just(BinaryOp::Lt),
                        Just(BinaryOp::GtEq),
                        Just(BinaryOp::And),
                        Just(BinaryOp::Or),
                    ],
                    inner.clone()
                )
                    .prop_map(|(l, op, r)| Expr::binary(l, op, r)),
                (ident(), proptest::collection::vec(inner.clone(), 0..3))
                    .prop_map(|(n, args)| Expr::func(&n, args)),
                (inner.clone(), any::<bool>(), inner.clone(), inner.clone()).prop_map(
                    |(e, neg, lo, hi)| Expr::Between {
                        expr: Box::new(e),
                        negated: neg,
                        low: Box::new(lo),
                        high: Box::new(hi),
                    }
                ),
                (
                    inner.clone(),
                    any::<bool>(),
                    proptest::collection::vec(inner.clone(), 1..3)
                )
                    .prop_map(|(e, neg, list)| Expr::InList {
                        expr: Box::new(e),
                        negated: neg,
                        list,
                    }),
                (inner, any::<bool>()).prop_map(|(e, neg)| Expr::IsNull {
                    expr: Box::new(e),
                    negated: neg,
                }),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn printed_statements_reparse_to_same_ast(
            proj in expr(),
            wher in expr(),
            table in ident(),
            limit in proptest::option::of(0u64..1000),
        ) {
            let stmt = SelectStatement {
                projections: vec![Projection { expr: proj, alias: None }],
                from: vec![TableRef::named(&table)],
                where_clause: Some(wher),
                group_by: vec![],
                order_by: vec![],
                limit,
            };
            let sql = stmt.to_sql();
            let reparsed = parse_select(&sql)
                .unwrap_or_else(|e| panic!("printed SQL failed to parse: {e}\n{sql}"));
            prop_assert_eq!(reparsed, stmt, "{}", sql);
        }
    }
}
