//! One-time query compilation for the vectorized execution path.
//!
//! A single-table scan is *compiled* once per query: every column
//! reference is resolved to a column index in the bound table, the WHERE
//! conjuncts are lowered to columnar [`Kernel`]s (with fused fast paths
//! for the shapes the frontend's rewriter actually emits — numeric range
//! AND-chains, `objectId` point/IN predicates and the
//! `qserv_ptInSphericalBox(...) = 1` spatial restriction), and the
//! projection / GROUP BY expressions are lowered to flat postfix
//! [`Program`]s. The per-row hot loop then runs with no string lookups,
//! no `Bindings` construction and no tree walks.
//!
//! Compilation is *conservative*: any shape whose runtime behaviour could
//! diverge from the interpreter — unknown or wrong-arity functions,
//! possibly-string function arguments, unresolvable columns, aggregates
//! in scalar position — refuses to compile (`None`), and the executor
//! falls back to the tree-walking interpreter, which remains the semantic
//! oracle. A compiled program is therefore *infallible* at runtime: every
//! error the interpreter could raise is detected statically here instead.

use crate::eval::is_aggregate;
use crate::exec::{index_keys, references_agg, AggKind, RowSink};
use crate::functions;
use crate::schema::ColumnType;
use crate::table::Table;
use crate::value::Value;
use qserv_sphgeom::SphericalBox;
use qserv_sqlparse::ast::{BinaryOp, Expr, Literal, SelectStatement, UnaryOp};

/// A numeric literal bound, kept in its source type so kernel comparisons
/// reproduce [`Value::sql_cmp`] exactly (Int↔Int compares as `i64`, any
/// mixed pair as `f64`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum NumLit {
    /// Integer literal.
    I(i64),
    /// Float literal.
    F(f64),
}

/// One columnar filter kernel; applied in conjunct order, each narrows
/// the selection vector.
#[derive(Clone, Debug)]
pub(crate) enum Kernel {
    /// Numeric range test on one column; bounds are `(literal, strict)`.
    /// Covers `<`, `<=`, `>`, `>=`, `=` and non-negated `BETWEEN`.
    Range {
        col: usize,
        lo: Option<(NumLit, bool)>,
        hi: Option<(NumLit, bool)>,
    },
    /// `col IN (int literals)` over an integer column; keys sorted and
    /// deduplicated for binary search.
    IntIn { col: usize, keys: Vec<i64> },
    /// `qserv_ptInSphericalBox(lon, lat, ...) = 1` with literal bounds.
    Box2D {
        lon: usize,
        lat: usize,
        bx: SphericalBox,
    },
    /// `func(numeric-col) ⋈ literal` for a unary float-or-NULL scalar
    /// function — the `fluxToAbMag(zFlux_PS) BETWEEN lo AND hi`
    /// magnitude-cut shape. The function result is always `Float` (or
    /// NULL, which fails the filter), so [`Value::sql_cmp`] against
    /// either literal kind reduces to an `f64` comparison and the bounds
    /// are pre-converted; no per-row `Value` boxing or argument `Vec`
    /// remains on the hot path.
    FnRange {
        fun: FnId,
        col: usize,
        lo: Option<(f64, bool)>,
        hi: Option<(f64, bool)>,
    },
    /// General predicate evaluated as a compiled program.
    Program(Program),
}

/// The unary scalar functions with a fused range kernel. Each returns
/// `Float` or NULL for any numeric input, mirroring
/// [`crate::functions::call`] exactly (NULL maps to `None`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FnId {
    /// `fluxToAbMag(x)` — NULL for non-positive or non-finite flux.
    FluxToAbMag,
    /// `abMagToFlux(x)` — total.
    AbMagToFlux,
    /// `sqrt(x)` — NULL for negative input.
    Sqrt,
    /// `log10(x)` — NULL for non-positive input.
    Log10,
    /// `ln(x)` — NULL for non-positive input.
    Ln,
}

impl FnId {
    /// The fused scalar, routed through the same free functions
    /// [`crate::functions::call`] uses so the kernel cannot drift from
    /// the interpreter.
    #[inline]
    pub(crate) fn apply(self, x: f64) -> Option<f64> {
        match self {
            FnId::FluxToAbMag => functions::flux_to_ab_mag(x),
            FnId::AbMagToFlux => Some(functions::ab_mag_to_flux(x)),
            FnId::Sqrt => (x >= 0.0 || x.is_nan()).then(|| x.sqrt()),
            FnId::Log10 => (x > 0.0 || x.is_nan()).then(|| x.log10()),
            FnId::Ln => (x > 0.0 || x.is_nan()).then(|| x.ln()),
        }
    }

    fn from_name(lname: &str) -> Option<FnId> {
        Some(match lname {
            "fluxtoabmag" => FnId::FluxToAbMag,
            "abmagtoflux" => FnId::AbMagToFlux,
            "sqrt" => FnId::Sqrt,
            "log10" => FnId::Log10,
            "ln" => FnId::Ln,
            _ => return None,
        })
    }
}

/// A flat postfix program over one table's columns. Logical AND/OR use
/// jump ops so short-circuit behaviour (and therefore error and NULL
/// semantics) matches the interpreter exactly.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    pub(crate) ops: Vec<Op>,
}

/// One program instruction.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// Push the current row's value of a column.
    PushCol(usize),
    /// Push a constant.
    PushLit(Value),
    /// Apply a non-logical binary operator to the top two values.
    Bin(BinaryOp),
    /// If the top of stack is definitely false, replace it with `0` and
    /// skip `skip` ops (the rhs and its fold) — the interpreter's AND
    /// short-circuit.
    AndJump(usize),
    /// Dual of [`Op::AndJump`] for OR: skip on definitely true.
    OrJump(usize),
    /// Kleene-AND the top two values.
    AndFold,
    /// Kleene-OR the top two values.
    OrFold,
    /// Arithmetic negation of the top value.
    Neg,
    /// Three-valued NOT of the top value.
    Not,
    /// Call a scalar function on the top `argc` values (validated at
    /// compile time: known, right arity, numeric arguments).
    Call { name: String, argc: usize },
    /// BETWEEN over the top three values (`expr`, `low`, `high`).
    Between { negated: bool },
    /// IN over the top `1 + n` values (`expr`, then `n` list items).
    InList { negated: bool, n: usize },
    /// IS [NOT] NULL of the top value.
    IsNull { negated: bool },
}

/// How a compiled scan produces output rows.
#[derive(Clone, Debug)]
pub(crate) enum OutputPlan {
    /// Plain projection: one program per output column (visible
    /// projections followed by hidden sort keys).
    Plain { exprs: Vec<Program> },
    /// Aggregation.
    Agg {
        /// GROUP BY key programs.
        keys: Vec<Program>,
        /// Per aggregate spec: argument program (`None` for COUNT(*)).
        args: Vec<Option<Program>>,
        /// Per projected expression: representative-row program, `None`
        /// when the projection references aggregate results (computed at
        /// finish time instead).
        rep: Vec<Option<Program>>,
        /// When every aggregate argument is a bare column and the query
        /// is ungrouped or groups by a single integer column, the fused
        /// accumulation plan.
        fused: Option<GroupFused>,
    },
}

/// Fused aggregation: the selection is split into groups — one group of
/// every selected row when ungrouped, else one member list per value of
/// an integer key column — and each aggregate runs as a tight per-kind
/// loop over each group's member rows.
#[derive(Clone, Debug)]
pub(crate) struct GroupFused {
    /// The GROUP BY key column (integer-typed); `None` when ungrouped.
    pub(crate) key_col: Option<usize>,
    /// Per aggregate spec: kind and argument column (`None` for
    /// COUNT(*)), aligned with `OutputPlan::Agg::args`.
    pub(crate) args: Vec<(AggKind, Option<usize>)>,
}

/// A fully compiled single-table scan.
#[derive(Clone, Debug)]
pub(crate) struct VecPlan {
    /// Index keys seeding the selection (same first-conjunct rule as the
    /// interpreter's `candidate_rows`); `None` means full scan.
    pub(crate) seed: Option<Vec<i64>>,
    /// Filter kernels, in conjunct order.
    pub(crate) kernels: Vec<Kernel>,
    /// Output production.
    pub(crate) output: OutputPlan,
}

impl VecPlan {
    /// The set of table columns this plan reads, as a mask over `ncols`
    /// columns — what a paged scan must actually decode. Covers filter
    /// kernels, every output program and the fused aggregation columns.
    pub(crate) fn referenced_cols(&self, ncols: usize) -> Vec<bool> {
        fn mark_program(p: &Program, mask: &mut [bool]) {
            for op in &p.ops {
                if let Op::PushCol(c) = op {
                    mask[*c] = true;
                }
            }
        }
        let mut mask = vec![false; ncols];
        for k in &self.kernels {
            match k {
                Kernel::Range { col, .. }
                | Kernel::IntIn { col, .. }
                | Kernel::FnRange { col, .. } => mask[*col] = true,
                Kernel::Box2D { lon, lat, .. } => {
                    mask[*lon] = true;
                    mask[*lat] = true;
                }
                Kernel::Program(p) => mark_program(p, &mut mask),
            }
        }
        match &self.output {
            OutputPlan::Plain { exprs } => {
                for p in exprs {
                    mark_program(p, &mut mask);
                }
            }
            OutputPlan::Agg {
                keys,
                args,
                rep,
                fused,
            } => {
                for p in keys {
                    mark_program(p, &mut mask);
                }
                for p in args.iter().chain(rep).flatten() {
                    mark_program(p, &mut mask);
                }
                if let Some(gf) = fused {
                    let arg_cols = gf.args.iter().map(|(_, c)| c);
                    for c in std::iter::once(&gf.key_col).chain(arg_cols).flatten() {
                        mask[*c] = true;
                    }
                }
            }
        }
        mask
    }
}

/// Static expression type: only string literals and string columns are
/// `Str`; every other expression yields numeric-or-NULL values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ty {
    Num,
    Str,
}

/// Compilation context: the single FROM binding and its table.
struct Ctx<'a> {
    binding: &'a str,
    table: &'a Table,
}

impl Ctx<'_> {
    /// Resolves a column reference against the single binding; `None` on
    /// a mismatched qualifier or unknown column (the interpreter raises
    /// the corresponding error, so the caller must fall back).
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Option<(usize, Ty)> {
        if let Some(q) = qualifier {
            if q != self.binding {
                return None;
            }
        }
        let col = self.table.schema().index_of(name)?;
        let ty = match self.table.schema().columns()[col].ty {
            ColumnType::Str => Ty::Str,
            _ => Ty::Num,
        };
        Some((col, ty))
    }

    /// `e` as a numeric (Int or Float) column of the binding.
    fn numeric_col(&self, e: &Expr) -> Option<usize> {
        if let Expr::Column {
            qualifier, name, ..
        } = e
        {
            let (col, ty) = self.resolve(qualifier.as_deref(), name)?;
            if ty == Ty::Num {
                return Some(col);
            }
        }
        None
    }

    /// `e` as an integer column of the binding.
    fn int_col(&self, e: &Expr) -> Option<usize> {
        let col = self.numeric_col(e)?;
        matches!(self.table.schema().columns()[col].ty, ColumnType::Int).then_some(col)
    }
}

/// Compiles a single-table statement into a [`VecPlan`]; `None` when any
/// part is out of scope for vectorized execution.
pub(crate) fn compile_single(
    stmt: &SelectStatement,
    binding: &str,
    table: &Table,
    sink: &RowSink,
    conjuncts: &[&Expr],
) -> Option<VecPlan> {
    let ctx = Ctx { binding, table };

    let mut kernels = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        kernels.push(compile_conjunct(&ctx, c)?);
    }

    // Index seed: identical first-matching-conjunct rule to the
    // interpreter; the kernels re-verify every conjunct either way.
    let mut seed = None;
    if let Some(idx_col) = table.indexed_column() {
        for c in conjuncts {
            if let Some(keys) = index_keys(c, idx_col) {
                seed = Some(keys);
                break;
            }
        }
    }

    let output = if sink.is_aggregated() {
        let keys = stmt
            .group_by
            .iter()
            .map(|g| compile_program(&ctx, g))
            .collect::<Option<Vec<_>>>()?;
        let mut args = Vec::with_capacity(sink.agg_specs().len());
        for spec in sink.agg_specs() {
            args.push(match (spec.kind, &spec.arg) {
                (AggKind::CountStar, _) | (_, None) => None,
                (_, Some(a)) => Some(compile_program(&ctx, a)?),
            });
        }
        let mut rep = Vec::with_capacity(sink.agg_projected().len());
        for proj in sink.agg_projected() {
            rep.push(if references_agg(proj) {
                None
            } else {
                Some(compile_program(&ctx, proj)?)
            });
        }
        let key_col = match stmt.group_by.as_slice() {
            [] => Some(None),
            [key] => ctx.int_col(key).map(Some),
            _ => None,
        };
        let fused = key_col
            .zip(fused_args(&ctx, sink))
            .map(|(key_col, args)| GroupFused { key_col, args });
        OutputPlan::Agg {
            keys,
            args,
            rep,
            fused,
        }
    } else {
        let mut exprs = Vec::new();
        for e in sink.plain_exprs().iter().chain(sink.hidden_sort()) {
            exprs.push(compile_program(&ctx, e)?);
        }
        OutputPlan::Plain { exprs }
    };

    Some(VecPlan {
        seed,
        kernels,
        output,
    })
}

/// The fused per-column accumulation plan, when every aggregate argument
/// is a bare column (or COUNT(*)).
fn fused_args(ctx: &Ctx<'_>, sink: &RowSink) -> Option<Vec<(AggKind, Option<usize>)>> {
    let mut out = Vec::with_capacity(sink.agg_specs().len());
    for spec in sink.agg_specs() {
        out.push(match (spec.kind, &spec.arg) {
            (AggKind::CountStar, _) | (_, None) => (spec.kind, None),
            (
                k,
                Some(Expr::Column {
                    qualifier, name, ..
                }),
            ) => {
                let (col, _) = ctx.resolve(qualifier.as_deref(), name)?;
                (k, Some(col))
            }
            _ => return None,
        });
    }
    Some(out)
}

/// Compiles one WHERE conjunct into a kernel: a fused fast path when the
/// shape allows, otherwise a general program.
fn compile_conjunct(ctx: &Ctx<'_>, e: &Expr) -> Option<Kernel> {
    if let Some(k) = recognize_range(ctx, e) {
        return Some(k);
    }
    if let Some(k) = recognize_int_in(ctx, e) {
        return Some(k);
    }
    if let Some(k) = recognize_box(ctx, e) {
        return Some(k);
    }
    if let Some(k) = recognize_fn_range(ctx, e) {
        return Some(k);
    }
    compile_program(ctx, e).map(Kernel::Program)
}

fn num_lit(e: &Expr) -> Option<NumLit> {
    match e {
        Expr::Literal(Literal::Int(v)) => Some(NumLit::I(*v)),
        Expr::Literal(Literal::Float(v)) => Some(NumLit::F(*v)),
        _ => None,
    }
}

/// `numeric-col ⋈ numeric-literal` (either orientation) and non-negated
/// BETWEEN become a [`Kernel::Range`].
fn recognize_range(ctx: &Ctx<'_>, e: &Expr) -> Option<Kernel> {
    fn flip(op: BinaryOp) -> Option<BinaryOp> {
        Some(match op {
            BinaryOp::Eq => BinaryOp::Eq,
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            _ => return None,
        })
    }
    match e {
        Expr::Binary { op, lhs, rhs } => {
            let (col, lit, op) = if let (Some(c), Some(l)) = (ctx.numeric_col(lhs), num_lit(rhs)) {
                (c, l, *op)
            } else if let (Some(c), Some(l)) = (ctx.numeric_col(rhs), num_lit(lhs)) {
                (c, l, flip(*op)?)
            } else {
                return None;
            };
            let (lo, hi) = match op {
                BinaryOp::Eq => (Some((lit, false)), Some((lit, false))),
                BinaryOp::Lt => (None, Some((lit, true))),
                BinaryOp::LtEq => (None, Some((lit, false))),
                BinaryOp::Gt => (Some((lit, true)), None),
                BinaryOp::GtEq => (Some((lit, false)), None),
                _ => return None,
            };
            Some(Kernel::Range { col, lo, hi })
        }
        Expr::Between {
            expr,
            negated: false,
            low,
            high,
        } => {
            let col = ctx.numeric_col(expr)?;
            Some(Kernel::Range {
                col,
                lo: Some((num_lit(low)?, false)),
                hi: Some((num_lit(high)?, false)),
            })
        }
        _ => None,
    }
}

/// `func(numeric-col) ⋈ numeric-literal` (either orientation) and
/// non-negated `func(col) BETWEEN lit AND lit` become a
/// [`Kernel::FnRange`] for the fused unary functions.
fn recognize_fn_range(ctx: &Ctx<'_>, e: &Expr) -> Option<Kernel> {
    fn fn_col(ctx: &Ctx<'_>, e: &Expr) -> Option<(FnId, usize)> {
        let Expr::Function { name, args } = e else {
            return None;
        };
        let fun = FnId::from_name(name.to_ascii_lowercase().as_str())?;
        if args.len() != 1 {
            return None;
        }
        Some((fun, ctx.numeric_col(&args[0])?))
    }
    fn bound_f64(e: &Expr) -> Option<f64> {
        Some(match num_lit(e)? {
            NumLit::I(v) => v as f64,
            NumLit::F(v) => v,
        })
    }
    fn flip(op: BinaryOp) -> Option<BinaryOp> {
        Some(match op {
            BinaryOp::Eq => BinaryOp::Eq,
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            _ => return None,
        })
    }
    match e {
        Expr::Binary { op, lhs, rhs } => {
            let ((fun, col), lit, op) =
                if let (Some(fc), Some(l)) = (fn_col(ctx, lhs), bound_f64(rhs)) {
                    (fc, l, *op)
                } else if let (Some(fc), Some(l)) = (fn_col(ctx, rhs), bound_f64(lhs)) {
                    (fc, l, flip(*op)?)
                } else {
                    return None;
                };
            let (lo, hi) = match op {
                BinaryOp::Eq => (Some((lit, false)), Some((lit, false))),
                BinaryOp::Lt => (None, Some((lit, true))),
                BinaryOp::LtEq => (None, Some((lit, false))),
                BinaryOp::Gt => (Some((lit, true)), None),
                BinaryOp::GtEq => (Some((lit, false)), None),
                _ => return None,
            };
            Some(Kernel::FnRange { fun, col, lo, hi })
        }
        Expr::Between {
            expr,
            negated: false,
            low,
            high,
        } => {
            let (fun, col) = fn_col(ctx, expr)?;
            Some(Kernel::FnRange {
                fun,
                col,
                lo: Some((bound_f64(low)?, false)),
                hi: Some((bound_f64(high)?, false)),
            })
        }
        _ => None,
    }
}

/// `int-col IN (int literals)` becomes a [`Kernel::IntIn`].
fn recognize_int_in(ctx: &Ctx<'_>, e: &Expr) -> Option<Kernel> {
    if let Expr::InList {
        expr,
        negated: false,
        list,
    } = e
    {
        let col = ctx.int_col(expr)?;
        let mut keys = Vec::with_capacity(list.len());
        for item in list {
            match item {
                Expr::Literal(Literal::Int(v)) => keys.push(*v),
                _ => return None,
            }
        }
        keys.sort_unstable();
        keys.dedup();
        return Some(Kernel::IntIn { col, keys });
    }
    None
}

/// `qserv_ptInSphericalBox(loncol, latcol, literals...) = 1` (either
/// orientation) becomes a [`Kernel::Box2D`] with the box precomputed.
fn recognize_box(ctx: &Ctx<'_>, e: &Expr) -> Option<Kernel> {
    fn is_int_one(e: &Expr) -> bool {
        matches!(e, Expr::Literal(Literal::Int(1)))
    }
    let Expr::Binary {
        op: BinaryOp::Eq,
        lhs,
        rhs,
    } = e
    else {
        return None;
    };
    let func = if is_int_one(rhs) {
        lhs
    } else if is_int_one(lhs) {
        rhs
    } else {
        return None;
    };
    let Expr::Function { name, args } = &**func else {
        return None;
    };
    let lname = name.to_ascii_lowercase();
    if !matches!(
        lname.as_str(),
        "qserv_ptinsphericalbox" | "scisql_s2ptinbox"
    ) || args.len() != 6
    {
        return None;
    }
    let lon = ctx.numeric_col(&args[0])?;
    let lat = ctx.numeric_col(&args[1])?;
    let mut b = [0.0f64; 4];
    for (slot, a) in b.iter_mut().zip(&args[2..]) {
        *slot = match num_lit(a)? {
            NumLit::I(v) => v as f64,
            NumLit::F(v) => v,
        };
    }
    Some(Kernel::Box2D {
        lon,
        lat,
        bx: SphericalBox::from_degrees(b[0], b[1], b[2], b[3]),
    })
}

fn compile_program(ctx: &Ctx<'_>, e: &Expr) -> Option<Program> {
    let mut ops = Vec::new();
    compile_expr(ctx, e, &mut ops)?;
    Some(Program { ops })
}

/// Known-function arity table; must stay in sync with
/// [`crate::functions::call`] so compiled calls cannot error at runtime.
fn arity_ok(lname: &str, n: usize) -> bool {
    match lname {
        "fluxtoabmag" | "abmagtoflux" | "abs" | "sqrt" | "floor" | "ceil" | "log10" | "ln" => {
            n == 1
        }
        "pow" | "power" => n == 2,
        "qserv_angsep" | "scisql_angsep" => n == 4,
        "qserv_ptinsphericalbox" | "scisql_s2ptinbox" => n == 6,
        "least" | "greatest" => n >= 1,
        _ => false,
    }
}

/// Lowers `e` to postfix ops, returning its static type; `None` aborts
/// compilation (the caller falls back to the interpreter).
fn compile_expr(ctx: &Ctx<'_>, e: &Expr, ops: &mut Vec<Op>) -> Option<Ty> {
    match e {
        Expr::Literal(l) => {
            let (v, ty) = match l {
                Literal::Int(v) => (Value::Int(*v), Ty::Num),
                Literal::Float(v) => (Value::Float(*v), Ty::Num),
                Literal::Str(s) => (Value::Str(s.clone()), Ty::Str),
                Literal::Null => (Value::Null, Ty::Num),
            };
            ops.push(Op::PushLit(v));
            Some(ty)
        }
        Expr::Column {
            qualifier, name, ..
        } => {
            let (col, ty) = ctx.resolve(qualifier.as_deref(), name)?;
            ops.push(Op::PushCol(col));
            Some(ty)
        }
        Expr::Star => None,
        Expr::Unary { op, expr } => {
            compile_expr(ctx, expr, ops)?;
            ops.push(match op {
                UnaryOp::Neg => Op::Neg,
                UnaryOp::Not => Op::Not,
            });
            Some(Ty::Num)
        }
        Expr::Binary { op, lhs, rhs } => {
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    compile_expr(ctx, lhs, ops)?;
                    let jump_at = ops.len();
                    ops.push(if *op == BinaryOp::And {
                        Op::AndJump(0)
                    } else {
                        Op::OrJump(0)
                    });
                    compile_expr(ctx, rhs, ops)?;
                    ops.push(if *op == BinaryOp::And {
                        Op::AndFold
                    } else {
                        Op::OrFold
                    });
                    let skip = ops.len() - jump_at - 1;
                    ops[jump_at] = if *op == BinaryOp::And {
                        Op::AndJump(skip)
                    } else {
                        Op::OrJump(skip)
                    };
                }
                _ => {
                    compile_expr(ctx, lhs, ops)?;
                    compile_expr(ctx, rhs, ops)?;
                    ops.push(Op::Bin(*op));
                }
            }
            Some(Ty::Num)
        }
        Expr::Between {
            expr,
            negated,
            low,
            high,
        } => {
            compile_expr(ctx, expr, ops)?;
            compile_expr(ctx, low, ops)?;
            compile_expr(ctx, high, ops)?;
            ops.push(Op::Between { negated: *negated });
            Some(Ty::Num)
        }
        Expr::InList {
            expr,
            negated,
            list,
        } => {
            compile_expr(ctx, expr, ops)?;
            for item in list {
                compile_expr(ctx, item, ops)?;
            }
            ops.push(Op::InList {
                negated: *negated,
                n: list.len(),
            });
            Some(Ty::Num)
        }
        Expr::IsNull { expr, negated } => {
            compile_expr(ctx, expr, ops)?;
            ops.push(Op::IsNull { negated: *negated });
            Some(Ty::Num)
        }
        Expr::Function { name, args } => {
            // Aggregates, unknown names and wrong arities would raise
            // runtime errors in the interpreter; refuse so the fallback
            // reproduces them. String-typed arguments error in
            // `functions::call` when non-NULL, so refuse those too.
            if is_aggregate(name) || !functions::is_known(name) {
                return None;
            }
            if !arity_ok(name.to_ascii_lowercase().as_str(), args.len()) {
                return None;
            }
            for a in args {
                if compile_expr(ctx, a, ops)? != Ty::Num {
                    return None;
                }
            }
            ops.push(Op::Call {
                name: name.clone(),
                argc: args.len(),
            });
            Some(Ty::Num)
        }
    }
}
