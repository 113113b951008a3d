//! Value domains — an interval or a finite set over one typed column.
//!
//! A pushed-down predicate (`presto-parquet`'s `ScalarPredicate`), the
//! memory scan, the realtime kernel and the expression evaluator's `BETWEEN`
//! / `IN` all test column values against literals. [`TypedDomain`] is the
//! one place that decides which literals compare with a column *in the
//! column's own storage class* — so the test is a tight loop over `i64`,
//! `f64` or bytes with no [`Value`] per row — and which do not.

use crate::types::DataType;
use crate::value::Value;

/// A predicate over the values of one typed column: a closed interval or a
/// finite set. Built only by [`TypedDomain`], when every literal compares
/// with the column in the column's own class under [`Value::sql_cmp`], so
/// `contains` is exactly that comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain<T> {
    /// `lo <= v <= hi`.
    Interval(T, T),
    /// `v` is one of these.
    Set(Vec<T>),
}

impl<T: Copy + PartialOrd> Domain<T> {
    /// NaN is in no domain, as `sql_cmp` orders it with nothing.
    #[inline]
    pub fn contains(&self, v: T) -> bool {
        match self {
            Domain::Interval(lo, hi) => v >= *lo && v <= *hi,
            Domain::Set(values) => values.contains(&v),
        }
    }
}

/// A [`Domain`] in the storage class of one column. A scan or a kernel loops
/// over its own storage (a block, a segment column, a decoded leaf) with
/// `contains`; no value is boxed.
#[derive(Debug, Clone, PartialEq)]
pub enum TypedDomain<'p> {
    /// Over BIGINT, INTEGER, DATE or TIMESTAMP values, widened to `i64`.
    Int(Domain<i64>),
    /// Over DOUBLE values.
    Double(Domain<f64>),
    /// Over the UTF-8 bytes of VARCHAR values (byte order is `str` order).
    Bytes(Domain<&'p [u8]>),
}

impl<'p> TypedDomain<'p> {
    /// `lo <= v <= hi` over the non-NULL values of a `column`-typed column;
    /// a `None` bound is open. `None` when a bound compares with the column
    /// across classes (`clicks >= 89.5` on a BIGINT), is NULL or never
    /// compares at all, or when the interval would have to hold NaN (a
    /// DOUBLE range open at both ends does; no interval can).
    pub fn interval(
        column: &DataType,
        lo: Option<&'p Value>,
        hi: Option<&'p Value>,
    ) -> Option<TypedDomain<'p>> {
        fn ends<T>(
            lo: Option<Option<T>>,
            hi: Option<Option<T>>,
            min: Option<T>,
            max: Option<T>,
        ) -> Option<Domain<T>> {
            Some(Domain::Interval(lo.unwrap_or(min)?, hi.unwrap_or(max)?))
        }
        match column {
            DataType::Double => {
                lo.or(hi)?;
                let (lo, hi) = (lo.map(double_literal), hi.map(double_literal));
                ends(lo, hi, Some(f64::NEG_INFINITY), Some(f64::INFINITY)).map(TypedDomain::Double)
            }
            DataType::Varchar => {
                let (lo, hi) = (lo.map(bytes_literal), hi.map(bytes_literal));
                ends(lo, hi, Some(&b""[..]), None).map(TypedDomain::Bytes)
            }
            _ => {
                let literal = int_literal(column)?;
                ends(lo.map(&literal), hi.map(&literal), Some(i64::MIN), Some(i64::MAX))
                    .map(TypedDomain::Int)
            }
        }
    }

    /// `v` is one of `values`, over a `column`-typed column; `None` under
    /// the same conditions as [`TypedDomain::interval`].
    pub fn set(
        column: &DataType,
        values: impl IntoIterator<Item = &'p Value>,
    ) -> Option<TypedDomain<'p>> {
        let values = values.into_iter();
        match column {
            DataType::Double => values
                .map(double_literal)
                .collect::<Option<_>>()
                .map(|v| TypedDomain::Double(Domain::Set(v))),
            DataType::Varchar => values
                .map(bytes_literal)
                .collect::<Option<_>>()
                .map(|v| TypedDomain::Bytes(Domain::Set(v))),
            _ => values
                .map(int_literal(column)?)
                .collect::<Option<_>>()
                .map(|v| TypedDomain::Int(Domain::Set(v))),
        }
    }
}

/// Reader of the literals an integer-class `column` compares with as `i64`:
/// BIGINT / INTEGER take either integer width, DATE / TIMESTAMP their own.
fn int_literal(column: &DataType) -> Option<impl Fn(&Value) -> Option<i64> + '_> {
    matches!(column, DataType::Bigint | DataType::Integer | DataType::Date | DataType::Timestamp)
        .then_some(move |v: &Value| match (column, v) {
            (DataType::Bigint | DataType::Integer, Value::Bigint(_) | Value::Integer(_))
            | (DataType::Date, Value::Date(_))
            | (DataType::Timestamp, Value::Timestamp(_)) => v.as_i64(),
            _ => None,
        })
}

/// `sql_cmp` widens every numeric literal to `f64` against a DOUBLE.
fn double_literal(v: &Value) -> Option<f64> {
    match v {
        Value::Double(_) | Value::Bigint(_) | Value::Integer(_) => v.as_f64(),
        _ => None,
    }
}

fn bytes_literal(v: &Value) -> Option<&[u8]> {
    v.as_str().map(str::as_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_stay_in_the_column_class() {
        let (one, half, text) = (Value::Bigint(1), Value::Double(0.5), Value::Varchar("a".into()));
        assert_eq!(
            TypedDomain::interval(&DataType::Integer, Some(&one), None),
            Some(TypedDomain::Int(Domain::Interval(1, i64::MAX)))
        );
        assert_eq!(TypedDomain::interval(&DataType::Bigint, Some(&half), None), None);
        assert_eq!(TypedDomain::interval(&DataType::Date, Some(&one), Some(&one)), None);
        assert_eq!(
            TypedDomain::set(&DataType::Double, [&one, &half]),
            Some(TypedDomain::Double(Domain::Set(vec![1.0, 0.5])))
        );
        assert_eq!(TypedDomain::set(&DataType::Double, [&one, &text]), None);
        assert_eq!(TypedDomain::set(&DataType::Bigint, [&Value::Null]), None);
        // an unbounded DOUBLE range also accepts NaN, which no interval does
        assert_eq!(TypedDomain::interval(&DataType::Double, None, None), None);
        // VARCHAR has a least value but no greatest
        assert_eq!(
            TypedDomain::interval(&DataType::Varchar, None, Some(&text)),
            Some(TypedDomain::Bytes(Domain::Interval(b"", b"a")))
        );
        assert_eq!(TypedDomain::interval(&DataType::Varchar, Some(&text), None), None);
        assert_eq!(TypedDomain::interval(&DataType::Boolean, None, None), None);
    }

    #[test]
    fn nan_is_in_no_domain() {
        assert!(!Domain::Interval(f64::NEG_INFINITY, f64::INFINITY).contains(f64::NAN));
        assert!(!Domain::Set(vec![f64::NAN]).contains(f64::NAN));
        assert!(Domain::Set(vec![0.0]).contains(-0.0));
    }
}
