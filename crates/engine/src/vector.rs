//! Columnar execution of a compiled [`VecPlan`].
//!
//! Filtering builds a selection vector of passing row ids: the first
//! kernel (or the objectId index seed) produces it, each later kernel
//! narrows it, and output production — projection or aggregation — runs
//! only over the survivors. Kernels read the table's dense column
//! vectors directly; general predicates and projections run as flat
//! postfix programs with an explicit value stack, reused across rows.
//!
//! Aggregation over bare columns has one kernel, [`fused_one`]: a tight
//! per-kind loop folding one aggregate over a list of row ids. An
//! ungrouped aggregate is the one group whose rows are the whole
//! selection; a GROUP BY on one integer column first splits the
//! selection into per-group member lists ([`group_members`]) and runs
//! the kernel per group. Any other aggregate enters its groups row by
//! row through [`RowSink::consume_agg_row`], as the interpreter does.
//!
//! Programs compiled by [`crate::compile`] are infallible (every
//! interpreter error is excluded statically), so this module returns
//! plain values. Semantics — NULL handling, short-circuits, aggregate
//! accumulation — are bit-identical to the interpreter; the equivalence
//! property tests in `tests/vectorized.rs` enforce that.

use crate::compile::{GroupFused, Kernel, NumLit, Op, OutputPlan, Program, VecPlan};
use crate::eval::{truth, tv};
use crate::exec::{AggAcc, AggKind, RowSink};
use crate::functions;
use crate::table::{ColumnSlice, Table};
use crate::value::Value;
use qserv_sphgeom::{LonLat, Region};
use qserv_sqlparse::ast::BinaryOp;
use std::collections::HashMap;
use std::convert::Infallible;

/// Runs a compiled plan over `table`, feeding `sink`.
pub(crate) fn run(plan: &VecPlan, table: &Table, sink: &mut RowSink, quick_limit: Option<usize>) {
    let mut stack: Vec<Value> = Vec::new();

    // Selection vector.
    let (mut sel, rest): (Vec<u32>, &[Kernel]) = match (&plan.seed, plan.kernels.split_first()) {
        (Some(keys), _) => {
            let mut rows: Vec<u32> = keys
                .iter()
                .flat_map(|k| table.index_lookup(*k).iter().copied())
                .collect();
            rows.sort_unstable();
            rows.dedup();
            (rows, &plan.kernels)
        }
        (None, Some((first, more))) => (
            filter_rows(first, table, &mut stack, 0..table.num_rows() as u32),
            more,
        ),
        (None, None) => ((0..table.num_rows() as u32).collect(), &plan.kernels),
    };
    for k in rest {
        if sel.is_empty() {
            break;
        }
        sel = filter_rows(k, table, &mut stack, sel.iter().copied());
    }

    // Output.
    match &plan.output {
        OutputPlan::Plain { exprs } => {
            for &r in &sel {
                let row = exprs
                    .iter()
                    .map(|p| eval_program(p, table, r as usize, &mut stack))
                    .collect();
                sink.consume_plain_row(row);
                if sink.emitted_at_least(quick_limit) {
                    break;
                }
            }
        }
        OutputPlan::Agg {
            keys,
            args,
            rep,
            fused,
        } => match fused {
            Some(gf) => run_fused(gf, rep, table, &sel, sink, &mut stack),
            None => {
                for &r in &sel {
                    let row = r as usize;
                    let key_vals: Vec<Value> = keys
                        .iter()
                        .map(|p| eval_program(p, table, row, &mut stack))
                        .collect();
                    let arg_vals: Vec<Option<Value>> = args
                        .iter()
                        .map(|a| a.as_ref().map(|p| eval_program(p, table, row, &mut stack)))
                        .collect();
                    let reps = |_: &[_]| Ok(eval_reps(rep, table, row, &mut stack));
                    let Ok(()) = sink.consume_agg_row::<Infallible>(key_vals, &arg_vals, reps);
                }
            }
        },
    }
}

/// A group's representative projection values, evaluated on its first
/// row (NULL placeholders where the projection references aggregates).
fn eval_reps(
    rep: &[Option<Program>],
    table: &Table,
    row: usize,
    stack: &mut Vec<Value>,
) -> Vec<Value> {
    rep.iter()
        .map(|p| match p {
            Some(prog) => eval_program(prog, table, row, stack),
            None => Value::Null,
        })
        .collect()
}

/// Numeric column view: reads Int or Float storage as `f64`.
enum NumView<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl NumView<'_> {
    fn new(table: &Table, col: usize) -> NumView<'_> {
        match table.column_slice(col) {
            ColumnSlice::Int(v) => NumView::I(v),
            ColumnSlice::Float(v) => NumView::F(v),
            ColumnSlice::Str(_) => unreachable!("compile guarantees a numeric column"),
        }
    }

    fn get(&self, i: usize) -> f64 {
        match self {
            NumView::I(v) => v[i] as f64,
            NumView::F(v) => v[i],
        }
    }
}

/// Lowers an optional bound to a concrete `f64` with strictness, using an
/// infinity sentinel for "absent" (non-strict compare against ±∞ admits
/// everything except NaN, and NaN fails every present bound anyway —
/// exactly the `partial_cmp → None → false` behavior of the slow path).
fn f64_bound(b: &Option<(NumLit, bool)>, absent: f64) -> (f64, bool) {
    match b {
        Some((NumLit::I(k), s)) => (*k as f64, *s),
        Some((NumLit::F(x), s)) => (*x, *s),
        None => (absent, false),
    }
}

/// Applies one kernel to a stream of row ids, returning the survivors.
fn filter_rows<I: Iterator<Item = u32>>(
    k: &Kernel,
    table: &Table,
    stack: &mut Vec<Value>,
    rows: I,
) -> Vec<u32> {
    match k {
        Kernel::Range { col, lo, hi } => {
            let nulls = table.null_mask(*col);
            match table.column_slice(*col) {
                ColumnSlice::Int(data) => {
                    let all_int = matches!(lo, None | Some((NumLit::I(_), _)))
                        && matches!(hi, None | Some((NumLit::I(_), _)));
                    if all_int {
                        // Pure-integer bounds compare exactly as i64
                        // (min/max sentinels for absent bounds are
                        // non-strict, so they admit everything).
                        let (lo_v, lo_s) = match lo {
                            Some((NumLit::I(k), s)) => (*k, *s),
                            _ => (i64::MIN, false),
                        };
                        let (hi_v, hi_s) = match hi {
                            Some((NumLit::I(k), s)) => (*k, *s),
                            _ => (i64::MAX, false),
                        };
                        rows.filter(|&r| {
                            let i = r as usize;
                            !nulls[i] && {
                                let v = data[i];
                                (if lo_s { v > lo_v } else { v >= lo_v })
                                    && (if hi_s { v < hi_v } else { v <= hi_v })
                            }
                        })
                        .collect()
                    } else {
                        // A float bound forces the f64 comparison sql_cmp
                        // uses for mixed Int/Float operands.
                        let (lo_v, lo_s) = f64_bound(lo, f64::NEG_INFINITY);
                        let (hi_v, hi_s) = f64_bound(hi, f64::INFINITY);
                        rows.filter(|&r| {
                            let i = r as usize;
                            !nulls[i] && {
                                let v = data[i] as f64;
                                (if lo_s { v > lo_v } else { v >= lo_v })
                                    && (if hi_s { v < hi_v } else { v <= hi_v })
                            }
                        })
                        .collect()
                    }
                }
                ColumnSlice::Float(data) => {
                    let (lo_v, lo_s) = f64_bound(lo, f64::NEG_INFINITY);
                    let (hi_v, hi_s) = f64_bound(hi, f64::INFINITY);
                    rows.filter(|&r| {
                        let i = r as usize;
                        !nulls[i] && {
                            let v = data[i];
                            (if lo_s { v > lo_v } else { v >= lo_v })
                                && (if hi_s { v < hi_v } else { v <= hi_v })
                        }
                    })
                    .collect()
                }
                ColumnSlice::Str(_) => unreachable!("range kernel over non-numeric column"),
            }
        }
        Kernel::IntIn { col, keys } => {
            let nulls = table.null_mask(*col);
            match table.column_slice(*col) {
                ColumnSlice::Int(data) => rows
                    .filter(|&r| {
                        !nulls[r as usize] && keys.binary_search(&data[r as usize]).is_ok()
                    })
                    .collect(),
                _ => unreachable!("IN kernel over non-integer column"),
            }
        }
        Kernel::Box2D { lon, lat, bx } => {
            let lon_nulls = table.null_mask(*lon);
            let lat_nulls = table.null_mask(*lat);
            let lon_v = NumView::new(table, *lon);
            let lat_v = NumView::new(table, *lat);
            rows.filter(|&r| {
                let i = r as usize;
                !lon_nulls[i]
                    && !lat_nulls[i]
                    && bx.contains(&LonLat::from_degrees(lon_v.get(i), lat_v.get(i)))
            })
            .collect()
        }
        Kernel::FnRange { fun, col, lo, hi } => {
            let nulls = table.null_mask(*col);
            let view = NumView::new(table, *col);
            let (lo_v, lo_s) = lo.unwrap_or((f64::NEG_INFINITY, false));
            let (hi_v, hi_s) = hi.unwrap_or((f64::INFINITY, false));
            rows.filter(|&r| {
                let i = r as usize;
                if nulls[i] {
                    return false; // NULL argument → NULL result → false.
                }
                match fun.apply(view.get(i)) {
                    // NaN results fail both comparisons, matching the
                    // interpreter's `sql_cmp → None → false`.
                    Some(m) => {
                        (if lo_s { m > lo_v } else { m >= lo_v })
                            && (if hi_s { m < hi_v } else { m <= hi_v })
                    }
                    None => false,
                }
            })
            .collect()
        }
        Kernel::Program(p) => rows
            .filter(|&r| truth(&eval_program(p, table, r as usize, stack)) == Some(true))
            .collect(),
    }
}

/// Evaluates a compiled program for one row. Infallible by construction
/// (see [`crate::compile`]).
pub(crate) fn eval_program(
    p: &Program,
    table: &Table,
    row: usize,
    stack: &mut Vec<Value>,
) -> Value {
    stack.clear();
    let ops = &p.ops;
    let mut pc = 0;
    while pc < ops.len() {
        match &ops[pc] {
            Op::PushCol(c) => stack.push(table.get(row, *c)),
            Op::PushLit(v) => stack.push(v.clone()),
            Op::Bin(op) => {
                let r = stack.pop().expect("program stack");
                let l = stack.pop().expect("program stack");
                stack.push(apply_bin(*op, &l, &r));
            }
            Op::AndJump(skip) => {
                let top = stack.last_mut().expect("program stack");
                if truth(top) == Some(false) {
                    *top = Value::Int(0);
                    pc += skip;
                }
            }
            Op::OrJump(skip) => {
                let top = stack.last_mut().expect("program stack");
                if truth(top) == Some(true) {
                    *top = Value::Int(1);
                    pc += skip;
                }
            }
            Op::AndFold => {
                let r = stack.pop().expect("program stack");
                let l = stack.pop().expect("program stack");
                stack.push(tv(match (truth(&l), truth(&r)) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                }));
            }
            Op::OrFold => {
                let r = stack.pop().expect("program stack");
                let l = stack.pop().expect("program stack");
                stack.push(tv(match (truth(&l), truth(&r)) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                }));
            }
            Op::Neg => {
                let v = stack.pop().expect("program stack");
                stack.push(v.neg());
            }
            Op::Not => {
                let v = stack.pop().expect("program stack");
                stack.push(tv(truth(&v).map(|b| !b)));
            }
            Op::Call { name, argc } => {
                let at = stack.len() - argc;
                let args = stack.split_off(at);
                let v = functions::call(name, &args).expect("compile-time validated call");
                stack.push(v);
            }
            Op::Between { negated } => {
                let hi = stack.pop().expect("program stack");
                let lo = stack.pop().expect("program stack");
                let v = stack.pop().expect("program stack");
                let inside = match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => Some(a.is_ge() && b.is_le()),
                    _ => None,
                };
                stack.push(tv(if *negated { inside.map(|b| !b) } else { inside }));
            }
            Op::InList { negated, n } => {
                let at = stack.len() - n;
                let items = stack.split_off(at);
                let v = stack.pop().expect("program stack");
                let mut saw_null = false;
                let mut found = false;
                for it in &items {
                    match v.sql_eq(it) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                let r = if found {
                    Some(true)
                } else if saw_null || v.is_null() {
                    None
                } else {
                    Some(false)
                };
                stack.push(tv(if *negated { r.map(|b| !b) } else { r }));
            }
            Op::IsNull { negated } => {
                let v = stack.pop().expect("program stack");
                stack.push(tv(Some(v.is_null() != *negated)));
            }
        }
        pc += 1;
    }
    stack.pop().expect("program leaves one value")
}

/// The interpreter's non-logical binary operator semantics.
fn apply_bin(op: BinaryOp, l: &Value, r: &Value) -> Value {
    match op {
        BinaryOp::Add => l.add(r),
        BinaryOp::Sub => l.sub(r),
        BinaryOp::Mul => l.mul(r),
        BinaryOp::Div => l.div(r),
        BinaryOp::Mod => l.rem(r),
        BinaryOp::Eq => tv(l.sql_eq(r)),
        BinaryOp::NotEq => tv(l.sql_eq(r).map(|b| !b)),
        BinaryOp::Lt => tv(l.sql_cmp(r).map(|o| o.is_lt())),
        BinaryOp::LtEq => tv(l.sql_cmp(r).map(|o| o.is_le())),
        BinaryOp::Gt => tv(l.sql_cmp(r).map(|o| o.is_gt())),
        BinaryOp::GtEq => tv(l.sql_cmp(r).map(|o| o.is_ge())),
        BinaryOp::And | BinaryOp::Or => unreachable!("compiled to jump + fold ops"),
    }
}

/// Fused aggregation: splits the selection into groups — the whole
/// selection when ungrouped (no group at all when it is empty, as for
/// the interpreter), else [`group_members`] — and runs [`fused_one`] once
/// per group and spec. Representative values come from each group's
/// first member row.
fn run_fused(
    gf: &GroupFused,
    rep: &[Option<Program>],
    table: &Table,
    sel: &[u32],
    sink: &mut RowSink,
    stack: &mut Vec<Value>,
) {
    let mut install = |key_vals: Vec<Value>, members: &[u32]| {
        let accs = gf
            .args
            .iter()
            .map(|&(kind, col)| fused_one(kind, col, table, members))
            .collect();
        let reps = eval_reps(rep, table, members[0] as usize, stack);
        sink.install_group(key_vals, accs, reps);
    };
    match gf.key_col {
        None if sel.is_empty() => {}
        None => install(Vec::new(), sel),
        Some(key_col) => {
            for (key, members) in group_members(table, key_col, sel) {
                install(vec![key], &members);
            }
        }
    }
}

/// Partitions the selection by the integer key column `key_col` into
/// per-group member lists, in first-appearance order (the interpreter's
/// `group_order`); NULL keys form one group. Rows stay in selection
/// order inside a group, so a per-kind loop over a member list leaves
/// every accumulator in the exact state sequential `update` calls would.
fn group_members(table: &Table, key_col: usize, sel: &[u32]) -> Vec<(Value, Vec<u32>)> {
    let nulls = table.null_mask(key_col);
    let ColumnSlice::Int(keys) = table.column_slice(key_col) else {
        unreachable!("compile guarantees an integer key column");
    };
    let mut slot_of: HashMap<Option<i64>, usize> = HashMap::new();
    let mut groups: Vec<(Value, Vec<u32>)> = Vec::new();
    for &r in sel {
        let i = r as usize;
        let key = (!nulls[i]).then_some(keys[i]);
        let slot = *slot_of.entry(key).or_insert_with(|| {
            groups.push((key.map_or(Value::Null, Value::Int), Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(r);
    }
    groups
}

/// One aggregate spec over one group's member rows: a tight per-kind
/// loop straight off the column. The accumulator finishes in the exact
/// state `AggAcc::update` would have left it in.
fn fused_one(kind: AggKind, col: Option<usize>, table: &Table, rows: &[u32]) -> AggAcc {
    let acc = AggAcc::new(kind);
    let Some(c) = col else {
        // COUNT(*) counts every selected row; any other argument-less
        // spec never updates (mirrors `update(None)`).
        if kind == AggKind::CountStar {
            return AggAcc::Count(rows.len() as i64);
        }
        return acc;
    };
    let nulls = table.null_mask(c);
    match kind {
        AggKind::CountStar => AggAcc::Count(rows.len() as i64),
        AggKind::Count => {
            AggAcc::Count(rows.iter().filter(|&&r| !nulls[r as usize]).count() as i64)
        }
        AggKind::Sum => match table.column_slice(c) {
            ColumnSlice::Int(data) => {
                let mut int = 0i64;
                let mut float = 0.0f64;
                let mut saw_any = false;
                for &r in rows {
                    let i = r as usize;
                    if !nulls[i] {
                        int = int.saturating_add(data[i]);
                        float += data[i] as f64;
                        saw_any = true;
                    }
                }
                AggAcc::Sum {
                    int,
                    float,
                    saw_float: false,
                    saw_any,
                }
            }
            ColumnSlice::Float(data) => {
                let mut float = 0.0f64;
                let mut saw_any = false;
                for &r in rows {
                    let i = r as usize;
                    if !nulls[i] {
                        float += data[i];
                        saw_any = true;
                    }
                }
                AggAcc::Sum {
                    int: 0,
                    float,
                    saw_float: saw_any,
                    saw_any,
                }
            }
            // SUM of a string column never accumulates (as in `update`).
            ColumnSlice::Str(_) => acc,
        },
        AggKind::Avg => match table.column_slice(c) {
            ColumnSlice::Str(_) => acc,
            slice => {
                let v = match slice {
                    ColumnSlice::Int(data) => NumView::I(data),
                    ColumnSlice::Float(data) => NumView::F(data),
                    ColumnSlice::Str(_) => unreachable!("matched above"),
                };
                let mut sum = 0.0f64;
                let mut n = 0i64;
                for &r in rows {
                    let i = r as usize;
                    if !nulls[i] {
                        sum += v.get(i);
                        n += 1;
                    }
                }
                AggAcc::Avg { sum, n }
            }
        },
        AggKind::Min | AggKind::Max => {
            let want_max = kind == AggKind::Max;
            let best = match table.column_slice(c) {
                ColumnSlice::Int(data) => {
                    let mut best: Option<i64> = None;
                    for &r in rows {
                        let i = r as usize;
                        if nulls[i] {
                            continue;
                        }
                        let better = match best {
                            None => true,
                            Some(b) => {
                                if want_max {
                                    data[i] > b
                                } else {
                                    data[i] < b
                                }
                            }
                        };
                        if better {
                            best = Some(data[i]);
                        }
                    }
                    best.map(Value::Int)
                }
                ColumnSlice::Float(data) => {
                    let mut best: Option<f64> = None;
                    for &r in rows {
                        let i = r as usize;
                        if nulls[i] {
                            continue;
                        }
                        // partial_cmp None (NaN) is "not better", exactly
                        // like sql_cmp in `update`.
                        let better = match best {
                            None => true,
                            Some(b) => data[i]
                                .partial_cmp(&b)
                                .map(|o| if want_max { o.is_gt() } else { o.is_lt() })
                                .unwrap_or(false),
                        };
                        if better {
                            best = Some(data[i]);
                        }
                    }
                    best.map(Value::Float)
                }
                ColumnSlice::Str(data) => {
                    let mut best: Option<usize> = None;
                    for &r in rows {
                        let i = r as usize;
                        if nulls[i] {
                            continue;
                        }
                        let better = match best {
                            None => true,
                            Some(b) => {
                                let o = data[i].cmp(&data[b]);
                                if want_max {
                                    o.is_gt()
                                } else {
                                    o.is_lt()
                                }
                            }
                        };
                        if better {
                            best = Some(i);
                        }
                    }
                    best.map(|i| Value::Str(data[i].clone()))
                }
            };
            AggAcc::MinMax { best, want_max }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType, Schema};
    use qserv_sphgeom::SphericalBox;
    use std::cmp::Ordering;

    /// Five rows over an Int and a Float column, with a NULL in each and
    /// a NaN in the float — the values every kernel must agree with the
    /// interpreter on.
    fn fixture() -> Table {
        let mut t = Table::new(Schema::new(vec![
            ColumnDef::new("n", ColumnType::Int),
            ColumnDef::new("x", ColumnType::Float),
        ]));
        let rows = vec![
            vec![Value::Int(1), Value::Float(1.0)],
            vec![Value::Int(2), Value::Float(f64::NAN)],
            vec![Value::Int(3), Value::Null],
            vec![Value::Null, Value::Float(-2.5)],
            vec![Value::Int(5), Value::Float(7.25)],
        ];
        for r in rows {
            t.push_row(r).expect("fits");
        }
        t
    }

    fn apply(k: &Kernel, t: &Table) -> Vec<u32> {
        let mut stack = Vec::new();
        filter_rows(k, t, &mut stack, 0..t.num_rows() as u32)
    }

    #[test]
    fn range_kernel_int_bounds() {
        let t = fixture();
        let k = Kernel::Range {
            col: 0,
            lo: Some((NumLit::I(2), false)),
            hi: Some((NumLit::I(5), true)),
        };
        assert_eq!(apply(&k, &t), vec![1, 2]); // 2 <= n < 5, NULL dropped
        let k = Kernel::Range {
            col: 0,
            lo: Some((NumLit::I(2), false)),
            hi: Some((NumLit::I(5), false)),
        };
        assert_eq!(apply(&k, &t), vec![1, 2, 4]); // hi now inclusive
    }

    #[test]
    fn range_kernel_absent_bounds_admit_all_but_null() {
        let t = fixture();
        let k = Kernel::Range {
            col: 0,
            lo: None,
            hi: None,
        };
        assert_eq!(apply(&k, &t), vec![0, 1, 2, 4]);
    }

    #[test]
    fn range_kernel_float_bound_on_int_column() {
        let t = fixture();
        // A float bound forces the f64 comparison sql_cmp would use.
        let k = Kernel::Range {
            col: 0,
            lo: Some((NumLit::F(2.5), true)),
            hi: None,
        };
        assert_eq!(apply(&k, &t), vec![2, 4]); // n > 2.5
    }

    #[test]
    fn range_kernel_nan_fails_every_bound() {
        let t = fixture();
        // Even the unbounded range drops NaN (and NULL), exactly as
        // `partial_cmp -> None -> false` does in the interpreter.
        let k = Kernel::Range {
            col: 1,
            lo: None,
            hi: None,
        };
        assert_eq!(apply(&k, &t), vec![0, 3, 4]);
        let k = Kernel::Range {
            col: 1,
            lo: Some((NumLit::F(0.0), true)),
            hi: None,
        };
        assert_eq!(apply(&k, &t), vec![0, 4]); // x > 0
    }

    #[test]
    fn int_in_kernel_skips_nulls() {
        let t = fixture();
        let k = Kernel::IntIn {
            col: 0,
            keys: vec![2, 5],
        }; // sorted
        assert_eq!(apply(&k, &t), vec![1, 4]);
        let k = Kernel::IntIn {
            col: 0,
            keys: vec![7],
        };
        assert!(apply(&k, &t).is_empty());
    }

    #[test]
    fn box_kernel_tests_membership_and_nulls() {
        let mut t = Table::new(Schema::new(vec![
            ColumnDef::new("ra", ColumnType::Float),
            ColumnDef::new("decl", ColumnType::Float),
        ]));
        for r in [
            vec![Value::Float(45.0), Value::Float(0.0)],  // inside
            vec![Value::Float(90.0), Value::Float(0.0)],  // outside in lon
            vec![Value::Float(45.0), Value::Float(20.0)], // outside in lat
            vec![Value::Null, Value::Float(0.0)],         // NULL lon
        ] {
            t.push_row(r).expect("fits");
        }
        let k = Kernel::Box2D {
            lon: 0,
            lat: 1,
            bx: SphericalBox::from_degrees(30.0, -5.0, 60.0, 5.0),
        };
        assert_eq!(apply(&k, &t), vec![0]);
    }

    #[test]
    fn program_kernel_is_three_valued() {
        let t = fixture();
        // NOT (x > 0): UNKNOWN for NULL and NaN rows, which a WHERE
        // filter must drop along with the plain `false` rows.
        let p = Program {
            ops: vec![
                Op::PushCol(1),
                Op::PushLit(Value::Int(0)),
                Op::Bin(BinaryOp::Gt),
                Op::Not,
            ],
        };
        assert_eq!(apply(&Kernel::Program(p), &t), vec![3]); // only x = -2.5
    }

    #[test]
    fn fn_range_kernel_matches_interpreter_call() {
        use crate::compile::FnId;
        let t = fixture();
        // sqrt(x) <= 2.0: row 0 (sqrt(1)=1) passes; NaN propagates and
        // fails; NULL drops; sqrt(-2.5) is NULL and drops; sqrt(7.25)
        // ≈ 2.69 fails the bound.
        let k = Kernel::FnRange {
            fun: FnId::Sqrt,
            col: 1,
            lo: None,
            hi: Some((2.0, false)),
        };
        assert_eq!(apply(&k, &t), vec![0]);

        // Cross-check every fused function against functions::call row
        // by row, with bounds that exercise both sides.
        for (fun, name) in [
            (FnId::FluxToAbMag, "fluxToAbMag"),
            (FnId::AbMagToFlux, "abMagToFlux"),
            (FnId::Sqrt, "sqrt"),
            (FnId::Log10, "log10"),
            (FnId::Ln, "ln"),
        ] {
            let (lo_v, hi_v) = (-10.0, 10.0);
            let k = Kernel::FnRange {
                fun,
                col: 1,
                lo: Some((lo_v, false)),
                hi: Some((hi_v, true)),
            };
            let expect: Vec<u32> = (0..t.num_rows() as u32)
                .filter(|&r| {
                    let v = t.get(r as usize, 1);
                    let out = crate::functions::call(name, &[v]).expect("known fn");
                    use crate::value::Value as V;
                    out.sql_cmp(&V::Float(lo_v))
                        .map(|o| o != Ordering::Less)
                        .unwrap_or(false)
                        && out
                            .sql_cmp(&V::Float(hi_v))
                            .map(|o| o == Ordering::Less)
                            .unwrap_or(false)
                })
                .collect();
            assert_eq!(apply(&k, &t), expect, "fn {name}");
        }
    }

    /// Reference accumulation: the interpreter's per-row AggAcc updates.
    fn oracle(kind: AggKind, col: Option<usize>, t: &Table, sel: &[u32]) -> AggAcc {
        let mut acc = AggAcc::new(kind);
        for &r in sel {
            let arg = col.map(|c| t.get(r as usize, c));
            acc.update(arg.as_ref());
        }
        acc
    }

    fn assert_same_finish(a: AggAcc, b: AggAcc) {
        // total_cmp equality: NaN == NaN here, unlike PartialEq.
        assert_eq!(a.finish().total_cmp(&b.finish()), Ordering::Equal);
    }

    #[test]
    fn fused_aggregates_match_accumulator_semantics() {
        let t = fixture();
        let sel: Vec<u32> = (0..t.num_rows() as u32).collect();
        for kind in [
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ] {
            for col in [0usize, 1] {
                assert_same_finish(
                    fused_one(kind, Some(col), &t, &sel),
                    oracle(kind, Some(col), &t, &sel),
                );
            }
        }
        assert_same_finish(
            fused_one(AggKind::CountStar, None, &t, &sel),
            oracle(AggKind::CountStar, None, &t, &sel),
        );
    }

    #[test]
    fn fused_aggregates_over_empty_selection() {
        let t = fixture();
        for kind in [AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max] {
            let v = fused_one(kind, Some(1), &t, &[]).finish();
            assert_eq!(v, Value::Null, "{kind:?} of nothing must be NULL");
        }
        assert_eq!(
            fused_one(AggKind::CountStar, None, &t, &[]).finish(),
            Value::Int(0)
        );
    }

    #[test]
    fn group_members_keep_first_appearance_and_selection_order() {
        // A NULL key first, then interleaved keys 2 and 1 (first
        // appearance is not key order), with NULL, NaN and −0.0
        // arguments inside the groups.
        let mut t = Table::new(Schema::new(vec![
            ColumnDef::new("k", ColumnType::Int),
            ColumnDef::new("x", ColumnType::Float),
        ]));
        let rows = vec![
            (Value::Null, Value::Float(1.0)),
            (Value::Int(2), Value::Float(f64::NAN)),
            (Value::Int(1), Value::Float(-0.0)),
            (Value::Int(2), Value::Null),
            (Value::Null, Value::Float(-2.5)),
            (Value::Int(1), Value::Float(0.0)),
            (Value::Int(2), Value::Float(0.5)),
        ];
        for (k, x) in rows {
            t.push_row(vec![k, x]).expect("fits");
        }
        let sel: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6];
        let groups = group_members(&t, 0, &sel);
        let keys: Vec<Value> = groups.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![Value::Null, Value::Int(2), Value::Int(1)]);
        let members: Vec<&[u32]> = groups.iter().map(|(_, m)| m.as_slice()).collect();
        assert_eq!(members, vec![&[0, 4][..], &[1, 3, 6], &[2, 5]]);
        // A narrowed selection only regroups its own rows.
        let narrowed = group_members(&t, 0, &[3, 5, 6]);
        assert_eq!(narrowed.len(), 2);
        assert_eq!(narrowed[0], (Value::Int(2), vec![3, 6]));
        for kind in [
            AggKind::CountStar,
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ] {
            let col = (kind != AggKind::CountStar).then_some(1);
            for (_, m) in &groups {
                assert_same_finish(fused_one(kind, col, &t, m), oracle(kind, col, &t, m));
            }
        }
    }
}
