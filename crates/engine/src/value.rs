//! The dynamic value type with SQL semantics.
//!
//! Comparisons and arithmetic follow MySQL's rules for the types we carry:
//! `NULL` propagates through every operation and never compares equal to
//! anything (three-valued logic), integers and floats compare numerically,
//! and division by zero yields `NULL` (MySQL's behaviour, which the paper's
//! aggregation rewrite `SUM(...)/SUM(...)` relies on for empty results).

use std::cmp::Ordering;
use std::fmt;

/// A dynamically-typed SQL value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(String),
}

impl Value {
    /// True when the value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as a float, when it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an integer, when it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// WHERE-clause truthiness: NULL and numeric zero are false, everything
    /// else (including non-empty strings) is true. Mirrors MySQL, where a
    /// predicate evaluates to 1/0/NULL.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// SQL comparison: `None` when either side is NULL or the types are
    /// incomparable, otherwise the ordering. Numeric types compare across
    /// Int/Float.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// SQL equality as a three-valued predicate: `None` for NULL operands.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Addition with NULL propagation; Int+Int stays Int (wrapping like
    /// MySQL's BIGINT would error — we saturate instead to stay total).
    pub fn add(&self, other: &Value) -> Value {
        Value::arith(self, other, |a, b| a.saturating_add(b), |a, b| a + b)
    }

    /// Subtraction with NULL propagation.
    pub fn sub(&self, other: &Value) -> Value {
        Value::arith(self, other, |a, b| a.saturating_sub(b), |a, b| a - b)
    }

    /// Multiplication with NULL propagation.
    pub fn mul(&self, other: &Value) -> Value {
        Value::arith(self, other, |a, b| a.saturating_mul(b), |a, b| a * b)
    }

    /// Division: always float (MySQL `/`), NULL on division by zero.
    pub fn div(&self, other: &Value) -> Value {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a / b)
                }
            }
            _ => Value::Null,
        }
    }

    /// Modulo: NULL on zero divisor; integer when both sides are integers.
    pub fn rem(&self, other: &Value) -> Value {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a % b)
                }
            }
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a % b)
                    }
                }
                _ => Value::Null,
            },
        }
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Value {
        match self {
            Value::Int(v) => Value::Int(v.saturating_neg()),
            Value::Float(v) => Value::Float(-v),
            _ => Value::Null,
        }
    }

    fn arith(
        a: &Value,
        b: &Value,
        int_op: impl Fn(i64, i64) -> i64,
        float_op: impl Fn(f64, f64) -> f64,
    ) -> Value {
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(int_op(*x, *y)),
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Value::Float(float_op(x, y)),
                _ => Value::Null,
            },
        }
    }

    /// A total ordering for sorting result rows: NULLs first, then
    /// numerics, then strings. (Used by ORDER BY; SQL leaves NULL placement
    /// implementation-defined and MySQL sorts NULLs first ascending.)
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                let (x, y) = (
                    a.as_f64().expect("rank 1 is numeric"),
                    b.as_f64().expect("rank 1 is numeric"),
                );
                x.total_cmp(&y)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// A hashable group-by key for this value. Floats are keyed by bit
    /// pattern (with -0.0 folded onto 0.0 so equal values group together).
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Int(v) => GroupKey::Int(*v),
            Value::Float(v) => {
                let f = if *v == 0.0 { 0.0 } else { *v };
                GroupKey::Float(f.to_bits())
            }
            Value::Str(s) => GroupKey::Str(s.clone()),
        }
    }
}

/// A hashable, equatable key derived from a [`Value`] for GROUP BY.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// NULL key (SQL groups NULLs together).
    Null,
    /// Integer key.
    Int(i64),
    /// Float key, by bit pattern.
    Float(u64),
    /// String key.
    Str(String),
}

impl fmt::Display for Value {
    /// SQL-literal rendering: the exact form used in dumped INSERT
    /// statements, so `Display` and [`crate::dump`] always agree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.is_nan() {
                    // The one identifier the dump parser reads as a float.
                    write!(f, "NaN")
                } else if v.is_infinite() {
                    // Overflows back to ±inf when re-read as a number.
                    write!(f, "{}1e999", if *v < 0.0 { "-" } else { "" })
                } else if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    // `{}` on f64 prints the shortest string that
                    // round-trips, so no precision is lost in transfer.
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn null_propagates() {
        assert!(Value::Null.add(&Value::Int(1)).is_null());
        assert!(Value::Int(1).mul(&Value::Null).is_null());
        assert!(Value::Null.sql_cmp(&Value::Int(1)).is_none());
        assert!(Value::Null.sql_eq(&Value::Null).is_none());
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Float(2.0).sql_eq(&Value::Int(2)), Some(true));
    }

    #[test]
    fn string_comparison() {
        assert_eq!(
            Value::Str("a".into()).sql_cmp(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
        // String vs number: incomparable in our subset.
        assert!(Value::Str("1".into()).sql_cmp(&Value::Int(1)).is_none());
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Value::Int(5));
        assert_eq!(Value::Int(2).mul(&Value::Int(3)), Value::Int(6));
        assert_eq!(Value::Int(2).sub(&Value::Int(3)), Value::Int(-1));
    }

    #[test]
    fn division_is_float_and_null_on_zero() {
        assert_eq!(Value::Int(5).div(&Value::Int(2)), Value::Float(2.5));
        assert!(Value::Int(5).div(&Value::Int(0)).is_null());
        assert!(Value::Float(5.0).div(&Value::Float(0.0)).is_null());
    }

    #[test]
    fn modulo() {
        assert_eq!(Value::Int(7).rem(&Value::Int(3)), Value::Int(1));
        assert!(Value::Int(7).rem(&Value::Int(0)).is_null());
        assert_eq!(Value::Float(7.5).rem(&Value::Int(2)), Value::Float(1.5));
    }

    #[test]
    fn saturating_int_overflow() {
        assert_eq!(
            Value::Int(i64::MAX).add(&Value::Int(1)),
            Value::Int(i64::MAX)
        );
        assert_eq!(Value::Int(i64::MIN).neg(), Value::Int(i64::MAX));
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(!Value::Float(0.0).is_truthy());
        assert!(Value::Int(1).is_truthy());
        assert!(Value::Float(-0.5).is_truthy());
        assert!(!Value::Str("".into()).is_truthy());
        assert!(Value::Str("x".into()).is_truthy());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("o'k".into()).to_string(), "'o''k'");
    }

    #[test]
    fn group_keys_fold_negative_zero() {
        assert_eq!(
            Value::Float(0.0).group_key(),
            Value::Float(-0.0).group_key()
        );
        assert_ne!(Value::Int(0).group_key(), Value::Float(0.0).group_key());
    }

    #[test]
    fn total_cmp_orders_nulls_first() {
        let mut vs = [
            Value::Str("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Float(1.5),
        ];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Float(1.5));
        assert_eq!(vs[2], Value::Int(3));
        assert_eq!(vs[3], Value::Str("a".into()));
    }

    proptest! {
        #[test]
        fn add_commutes(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            prop_assert_eq!(Value::Int(a).add(&Value::Int(b)), Value::Int(b).add(&Value::Int(a)));
        }

        #[test]
        fn cmp_antisymmetric(a in any::<f64>(), b in any::<f64>()) {
            prop_assume!(a.is_finite() && b.is_finite());
            let x = Value::Float(a);
            let y = Value::Float(b);
            let fwd = x.sql_cmp(&y);
            let rev = y.sql_cmp(&x);
            prop_assert_eq!(fwd.map(Ordering::reverse), rev);
        }

        #[test]
        fn total_cmp_is_total(a in any::<i64>(), b in any::<f64>()) {
            prop_assume!(!b.is_nan());
            // Never panics, always yields an ordering consistent both ways.
            let x = Value::Int(a);
            let y = Value::Float(b);
            prop_assert_eq!(x.total_cmp(&y), y.total_cmp(&x).reverse());
        }
    }
}
