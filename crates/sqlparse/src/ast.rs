//! Abstract syntax tree for the Qserv SQL subset, with SQL printing.
//!
//! The printer matters as much as the parser here: Qserv's frontend
//! *rewrites* user queries into per-chunk physical queries (paper §5.3), so
//! every node must render back to valid SQL. `parse(print(ast)) == ast`
//! round-tripping is property-tested in the parser module.

use std::fmt;

/// A literal value.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// SQL NULL.
    Null,
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => {
                if v.is_infinite() {
                    // `inf` would lex as an identifier; an overflowing
                    // number re-parses as ±inf.
                    write!(f, "{}1e999", if *v < 0.0 { "-" } else { "" })
                } else if v.fract() == 0.0 && v.abs() < 1e15 {
                    // Keep a decimal point so it re-lexes as a float.
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

/// Binary operators, loosest-binding last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinaryOp {
    /// Binding strength; higher binds tighter. Used by the printer to emit
    /// minimal parentheses and by the parser for precedence climbing.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
        }
    }

    /// The SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A column reference, optionally qualified (`o1.ra_PS`). `quoted`
    /// marks backtick-quoted names such as `` `SUM(uFlux_SG)` `` which must
    /// be re-printed quoted.
    Column {
        /// Table or alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
        /// True when the name requires backtick quoting.
        quoted: bool,
    },
    /// A literal.
    Literal(Literal),
    /// `lhs op rhs`.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `-expr` or `NOT expr`.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// A function call, including aggregates and the `qserv_*`
    /// pseudo-functions. `COUNT(*)` is a call whose single argument is
    /// [`Expr::Star`].
    Function {
        /// Function name, original spelling preserved.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `*` — valid as a projection or as the argument of `COUNT`.
    Star,
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `NOT IN`.
        negated: bool,
        /// Candidate list.
        list: Vec<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for an unqualified column.
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
            quoted: false,
        }
    }

    /// Convenience constructor for a qualified column.
    pub fn qcol(qualifier: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.to_string()),
            name: name.to_string(),
            quoted: false,
        }
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// Convenience constructor for a float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Literal(Literal::Float(v))
    }

    /// Convenience constructor for a binary expression.
    pub fn binary(lhs: Expr, op: BinaryOp, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience constructor for a function call.
    pub fn func(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Function {
            name: name.to_string(),
            args,
        }
    }

    /// ANDs two expressions.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(lhs, BinaryOp::And, rhs)
    }

    /// The top-level AND conjuncts, left to right: nested ANDs flatten,
    /// anything else (an OR included) is one leaf.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary {
                op: BinaryOp::And,
                lhs,
                rhs,
            } = e
            {
                walk(lhs, out);
                walk(rhs, out);
            } else {
                out.push(e);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Renders the expression as SQL, with minimal parentheses.
    pub fn to_sql(&self) -> String {
        let mut s = String::new();
        self.write_sql(&mut s, 0);
        s
    }

    fn write_sql(&self, out: &mut String, parent_prec: u8) {
        match self {
            Expr::Column {
                qualifier,
                name,
                quoted,
            } => {
                if let Some(q) = qualifier {
                    out.push_str(q);
                    out.push('.');
                }
                if *quoted {
                    write_quoted(out, name);
                } else {
                    out.push_str(name);
                }
            }
            Expr::Literal(l) => out.push_str(&l.to_string()),
            Expr::Binary { op, lhs, rhs } => {
                let prec = op.precedence();
                let need_paren = prec < parent_prec;
                if need_paren {
                    out.push('(');
                }
                lhs.write_sql(out, prec);
                out.push(' ');
                out.push_str(op.sql());
                out.push(' ');
                // Right side: require strictly higher precedence so that
                // left-associative chains print without parens but
                // a - (b - c) keeps them.
                rhs.write_sql(out, prec + 1);
                if need_paren {
                    out.push(')');
                }
            }
            Expr::Unary { op, expr } => {
                match op {
                    UnaryOp::Neg => out.push('-'),
                    UnaryOp::Not => out.push_str("NOT "),
                }
                expr.write_sql(out, 7);
            }
            Expr::Function { name, args } => {
                out.push_str(name);
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    a.write_sql(out, 0);
                }
                out.push(')');
            }
            Expr::Star => out.push('*'),
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let need_paren = 3 < parent_prec;
                if need_paren {
                    out.push('(');
                }
                expr.write_sql(out, 4);
                if *negated {
                    out.push_str(" NOT");
                }
                out.push_str(" BETWEEN ");
                // Bounds re-parse as `additive`, so anything at comparison
                // precedence or looser needs parentheses.
                low.write_sql(out, 5);
                out.push_str(" AND ");
                high.write_sql(out, 5);
                if need_paren {
                    out.push(')');
                }
            }
            Expr::InList {
                expr,
                negated,
                list,
            } => {
                let need_paren = 3 < parent_prec;
                if need_paren {
                    out.push('(');
                }
                expr.write_sql(out, 4);
                if *negated {
                    out.push_str(" NOT");
                }
                out.push_str(" IN (");
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    e.write_sql(out, 0);
                }
                out.push(')');
                if need_paren {
                    out.push(')');
                }
            }
            Expr::IsNull { expr, negated } => {
                let need_paren = 3 < parent_prec;
                if need_paren {
                    out.push('(');
                }
                expr.write_sql(out, 4);
                out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
                if need_paren {
                    out.push(')');
                }
            }
        }
    }

    /// Visits this expression and all descendants, depth-first.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(f);
                rhs.visit(f);
            }
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Column { .. } | Expr::Literal(_) | Expr::Star => {}
        }
    }

    /// Rewrites the expression bottom-up: `f` is applied to each node after
    /// its children have been rewritten, and may replace the node.
    pub fn rewrite(self, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
        let recursed = match self {
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op,
                lhs: Box::new(lhs.rewrite(f)),
                rhs: Box::new(rhs.rewrite(f)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op,
                expr: Box::new(expr.rewrite(f)),
            },
            Expr::Function { name, args } => Expr::Function {
                name,
                args: args.into_iter().map(|a| a.rewrite(f)).collect(),
            },
            Expr::Between {
                expr,
                negated,
                low,
                high,
            } => Expr::Between {
                expr: Box::new(expr.rewrite(f)),
                negated,
                low: Box::new(low.rewrite(f)),
                high: Box::new(high.rewrite(f)),
            },
            Expr::InList {
                expr,
                negated,
                list,
            } => Expr::InList {
                expr: Box::new(expr.rewrite(f)),
                negated,
                list: list.into_iter().map(|e| e.rewrite(f)).collect(),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.rewrite(f)),
                negated,
            },
            leaf => leaf,
        };
        f(recursed)
    }
}

/// Writes `name` backtick-quoted, each backtick in it doubled (MySQL's
/// spelling, which the lexer reads back).
fn write_quoted(out: &mut String, name: &str) {
    out.push('`');
    out.push_str(&name.replace('`', "``"));
    out.push('`');
}

/// One projected item: an expression with an optional alias.
#[derive(Clone, Debug, PartialEq)]
pub struct Projection {
    /// The projected expression ([`Expr::Star`] for `SELECT *`).
    pub expr: Expr,
    /// `AS alias`, when present.
    pub alias: Option<String>,
}

impl Projection {
    /// Renders as SQL. Aliases that are not plain identifiers (Qserv's
    /// aggregate rewriting aliases columns as `` `SUM(uFlux_SG)` ``) are
    /// backtick-quoted so the output re-parses.
    pub fn to_sql(&self) -> String {
        match &self.alias {
            Some(a) => {
                let plain = !a.is_empty()
                    && a.chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                    && a.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                let mut sql = format!("{} AS ", self.expr.to_sql());
                if plain {
                    sql.push_str(a);
                } else {
                    write_quoted(&mut sql, a);
                }
                sql
            }
            None => self.expr.to_sql(),
        }
    }

    /// The output column name: the alias when present, otherwise the
    /// expression's SQL text (MySQL's convention, which the aggregate
    /// rewriting in paper §5.3 relies on: `` `SUM(uFlux_SG)` ``).
    pub fn output_name(&self) -> String {
        match &self.alias {
            Some(a) => a.clone(),
            None => self.expr.to_sql(),
        }
    }
}

/// A table reference in the FROM list.
#[derive(Clone, Debug, PartialEq)]
pub struct TableRef {
    /// Database qualifier (`LSST.Object` → `LSST`), when present.
    pub database: Option<String>,
    /// Table name.
    pub table: String,
    /// Alias (`Object o1` → `o1`), when present.
    pub alias: Option<String>,
}

impl TableRef {
    /// Creates an unqualified, unaliased reference.
    pub fn named(table: &str) -> TableRef {
        TableRef {
            database: None,
            table: table.to_string(),
            alias: None,
        }
    }

    /// The name other parts of the query use to refer to this table: the
    /// alias when present, otherwise the bare table name.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }

    /// Renders as SQL.
    pub fn to_sql(&self) -> String {
        let mut s = String::new();
        if let Some(db) = &self.database {
            s.push_str(db);
            s.push('.');
        }
        s.push_str(&self.table);
        if let Some(a) = &self.alias {
            s.push_str(" AS ");
            s.push_str(a);
        }
        s
    }
}

/// One ORDER BY item.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderItem {
    /// Sort key expression.
    pub expr: Expr,
    /// True for `DESC`.
    pub desc: bool,
}

/// A parsed SELECT statement.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStatement {
    /// Projected items.
    pub projections: Vec<Projection>,
    /// FROM list (comma joins; Qserv's near-neighbour queries use
    /// `FROM Object o1, Object o2`).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

impl SelectStatement {
    /// Renders the statement as SQL (no trailing semicolon).
    pub fn to_sql(&self) -> String {
        let mut s = String::from("SELECT ");
        for (i, p) in self.projections.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&p.to_sql());
        }
        if !self.from.is_empty() {
            s.push_str(" FROM ");
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&t.to_sql());
            }
        }
        if let Some(w) = &self.where_clause {
            s.push_str(" WHERE ");
            s.push_str(&w.to_sql());
        }
        if !self.group_by.is_empty() {
            s.push_str(" GROUP BY ");
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&g.to_sql());
            }
        }
        if !self.order_by.is_empty() {
            s.push_str(" ORDER BY ");
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&o.expr.to_sql());
                if o.desc {
                    s.push_str(" DESC");
                }
            }
        }
        if let Some(l) = self.limit {
            s.push_str(&format!(" LIMIT {l}"));
        }
        s
    }
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands_left_to_right() {
        let (a, b, c, d) = (
            Expr::col("a"),
            Expr::col("b"),
            Expr::col("c"),
            Expr::col("d"),
        );
        let either = Expr::binary(c.clone(), BinaryOp::Or, d.clone());
        // (a AND (b AND (c OR d))) AND a
        let e = Expr::and(
            Expr::and(a.clone(), Expr::and(b.clone(), either.clone())),
            a.clone(),
        );
        assert_eq!(e.conjuncts(), vec![&a, &b, &either, &a]);
        assert_eq!(either.conjuncts(), vec![&either]);
    }

    #[test]
    fn literal_display() {
        assert_eq!(Literal::Int(42).to_string(), "42");
        assert_eq!(Literal::Float(1.5).to_string(), "1.5");
        assert_eq!(Literal::Float(2.0).to_string(), "2.0");
        assert_eq!(Literal::Float(f64::INFINITY).to_string(), "1e999");
        assert_eq!(Literal::Float(f64::NEG_INFINITY).to_string(), "-1e999");
        assert_eq!(Literal::Str("a'b".into()).to_string(), "'a''b'");
        assert_eq!(Literal::Null.to_string(), "NULL");
        // Every rendering parses back to the literal it came from.
        for lit in [
            Literal::Int(42),
            Literal::Float(1.5),
            Literal::Float(f64::INFINITY),
            Literal::Float(f64::NEG_INFINITY),
            Literal::Str("a'b".into()),
        ] {
            let stmt = crate::parse_select(&format!("SELECT {lit} FROM t")).unwrap();
            assert_eq!(stmt.projections[0].expr, Expr::Literal(lit));
        }
    }

    #[test]
    fn expr_printing_minimal_parens() {
        // a + b * c needs no parens.
        let e = Expr::binary(
            Expr::col("a"),
            BinaryOp::Add,
            Expr::binary(Expr::col("b"), BinaryOp::Mul, Expr::col("c")),
        );
        assert_eq!(e.to_sql(), "a + b * c");
        // (a + b) * c needs them.
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinaryOp::Add, Expr::col("b")),
            BinaryOp::Mul,
            Expr::col("c"),
        );
        assert_eq!(e.to_sql(), "(a + b) * c");
    }

    #[test]
    fn right_associated_subtraction_keeps_parens() {
        let e = Expr::binary(
            Expr::col("a"),
            BinaryOp::Sub,
            Expr::binary(Expr::col("b"), BinaryOp::Sub, Expr::col("c")),
        );
        assert_eq!(e.to_sql(), "a - (b - c)");
    }

    #[test]
    fn or_inside_and_parenthesized() {
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinaryOp::Or, Expr::col("b")),
            BinaryOp::And,
            Expr::col("c"),
        );
        assert_eq!(e.to_sql(), "(a OR b) AND c");
    }

    #[test]
    fn function_and_star() {
        let e = Expr::func("COUNT", vec![Expr::Star]);
        assert_eq!(e.to_sql(), "COUNT(*)");
        let e = Expr::func(
            "qserv_angSep",
            vec![Expr::qcol("o1", "ra_PS"), Expr::float(0.5)],
        );
        assert_eq!(e.to_sql(), "qserv_angSep(o1.ra_PS, 0.5)");
    }

    #[test]
    fn quoted_column_round_trips() {
        let e = Expr::Column {
            qualifier: None,
            name: "SUM(uFlux_SG)".into(),
            quoted: true,
        };
        assert_eq!(e.to_sql(), "`SUM(uFlux_SG)`");
    }

    #[test]
    fn between_and_in_and_isnull() {
        let b = Expr::Between {
            expr: Box::new(Expr::col("x")),
            negated: false,
            low: Box::new(Expr::int(1)),
            high: Box::new(Expr::int(2)),
        };
        assert_eq!(b.to_sql(), "x BETWEEN 1 AND 2");
        let i = Expr::InList {
            expr: Box::new(Expr::col("x")),
            negated: true,
            list: vec![Expr::int(1), Expr::int(2)],
        };
        assert_eq!(i.to_sql(), "x NOT IN (1, 2)");
        let n = Expr::IsNull {
            expr: Box::new(Expr::col("x")),
            negated: true,
        };
        assert_eq!(n.to_sql(), "x IS NOT NULL");
    }

    #[test]
    fn select_statement_prints() {
        let s = SelectStatement {
            projections: vec![Projection {
                expr: Expr::func("AVG", vec![Expr::col("uFlux_SG")]),
                alias: None,
            }],
            from: vec![TableRef::named("Object")],
            where_clause: Some(Expr::binary(
                Expr::col("uRadius_PS"),
                BinaryOp::Gt,
                Expr::float(0.04),
            )),
            group_by: vec![],
            order_by: vec![],
            limit: None,
        };
        assert_eq!(
            s.to_sql(),
            "SELECT AVG(uFlux_SG) FROM Object WHERE uRadius_PS > 0.04"
        );
    }

    #[test]
    fn select_with_everything() {
        let s = SelectStatement {
            projections: vec![
                Projection {
                    expr: Expr::func("count", vec![Expr::Star]),
                    alias: Some("n".into()),
                },
                Projection {
                    expr: Expr::col("chunkId"),
                    alias: None,
                },
            ],
            from: vec![TableRef {
                database: Some("LSST".into()),
                table: "Object".into(),
                alias: Some("o".into()),
            }],
            where_clause: None,
            group_by: vec![Expr::col("chunkId")],
            order_by: vec![OrderItem {
                expr: Expr::col("n"),
                desc: true,
            }],
            limit: Some(10),
        };
        assert_eq!(
            s.to_sql(),
            "SELECT count(*) AS n, chunkId FROM LSST.Object AS o GROUP BY chunkId ORDER BY n DESC LIMIT 10"
        );
    }

    #[test]
    fn projection_output_name() {
        let p = Projection {
            expr: Expr::func("SUM", vec![Expr::col("x")]),
            alias: None,
        };
        assert_eq!(p.output_name(), "SUM(x)");
        let p = Projection {
            expr: Expr::col("x"),
            alias: Some("y".into()),
        };
        assert_eq!(p.output_name(), "y");
    }

    #[test]
    fn visit_reaches_all_nodes() {
        let e = Expr::binary(
            Expr::func("f", vec![Expr::col("a"), Expr::col("b")]),
            BinaryOp::Add,
            Expr::int(1),
        );
        let mut cols = vec![];
        e.visit(&mut |n| {
            if let Expr::Column { name, .. } = n {
                cols.push(name.clone());
            }
        });
        assert_eq!(cols, vec!["a", "b"]);
    }

    #[test]
    fn rewrite_replaces_bottom_up() {
        let e = Expr::binary(Expr::col("a"), BinaryOp::Add, Expr::col("a"));
        let rewritten = e.rewrite(&mut |n| match n {
            Expr::Column { name, .. } if name == "a" => Expr::int(7),
            other => other,
        });
        assert_eq!(rewritten.to_sql(), "7 + 7");
    }

    #[test]
    fn binding_name_prefers_alias() {
        let t = TableRef {
            database: None,
            table: "Object".into(),
            alias: Some("o1".into()),
        };
        assert_eq!(t.binding_name(), "o1");
        assert_eq!(TableRef::named("Source").binding_name(), "Source");
    }
}
