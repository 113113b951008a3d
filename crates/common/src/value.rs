//! Scalar values.
//!
//! `Value` is the row-at-a-time representation: literals in expressions, the
//! working currency of the *legacy* Parquet reader/writer (which the paper
//! criticizes for reconstructing records row by row, §V.C/§V.J), group-by
//! keys, and the oracle for property tests against the vectorized paths.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::types::DataType;

/// A single scalar (or nested) SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// BOOLEAN value.
    Boolean(bool),
    /// BIGINT value.
    Bigint(i64),
    /// INTEGER value.
    Integer(i32),
    /// DOUBLE value.
    Double(f64),
    /// VARCHAR value.
    Varchar(String),
    /// DATE value (days since epoch).
    Date(i32),
    /// TIMESTAMP value (millis since epoch).
    Timestamp(i64),
    /// ARRAY value.
    Array(Vec<Value>),
    /// MAP value as ordered key/value pairs.
    Map(Vec<(Value, Value)>),
    /// ROW (struct) value; fields are positional against the row type.
    Row(Vec<Value>),
}

impl Value {
    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Best-effort type of this value. `Null` and empty collections report
    /// against `fallback` where provided.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Bigint(_) => Some(DataType::Bigint),
            Value::Integer(_) => Some(DataType::Integer),
            Value::Double(_) => Some(DataType::Double),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Date(_) => Some(DataType::Date),
            Value::Timestamp(_) => Some(DataType::Timestamp),
            Value::Array(_) | Value::Map(_) | Value::Row(_) => None,
        }
    }

    /// Interpret as f64 for arithmetic, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Bigint(v) => Some(*v as f64),
            Value::Integer(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Interpret as i64, widening INTEGER and passing DATE/TIMESTAMP through.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Bigint(v) => Some(*v),
            Value::Integer(v) => Some(*v as i64),
            Value::Date(v) => Some(*v as i64),
            Value::Timestamp(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL or the types
    /// are incomparable (the engine is type-strict, but integer widths and
    /// int/double compare numerically as Presto does after coercion).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Varchar(a), Varchar(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Bigint(a), Bigint(b)) => Some(a.cmp(b)),
            (Integer(a), Integer(b)) => Some(a.cmp(b)),
            (Bigint(a), Integer(b)) => Some(a.cmp(&(*b as i64))),
            (Integer(a), Bigint(b)) => Some((*a as i64).cmp(b)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Double(a), Bigint(b)) => a.partial_cmp(&(*b as f64)),
            (Bigint(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Double(a), Integer(b)) => a.partial_cmp(&(*b as f64)),
            (Integer(a), Double(b)) => (*a as f64).partial_cmp(b),
            (Array(a), Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.sql_cmp(y)? {
                        Ordering::Equal => continue,
                        non_eq => return Some(non_eq),
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            (Row(a), Row(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.sql_cmp(y)? {
                        Ordering::Equal => continue,
                        non_eq => return Some(non_eq),
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => None,
        }
    }

    /// Total ordering with NULLS LAST, used by the sort operator: numbers
    /// (across INTEGER/BIGINT/DOUBLE) < NaN (all NaNs equal) < NULL, arrays
    /// and rows lexicographic in this same order. Pairs of incomparable
    /// types order by type tag. [`Block::cmp_with`](crate::Block::cmp_with)
    /// is this order on typed columns.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Array(a), Array(b)) | (Row(a), Row(b)) => a
                .iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| a.len().cmp(&b.len())),
            _ => self.sql_cmp(other).unwrap_or_else(|| match (self.as_f64(), other.as_f64()) {
                // sql_cmp leaves two numbers unordered only when one is NaN
                (Some(a), Some(b)) => a.is_nan().cmp(&b.is_nan()),
                _ => self.type_tag().cmp(&other.type_tag()),
            }),
        }
    }

    fn type_tag(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Boolean(_) => 1,
            Value::Bigint(_) => 2,
            Value::Integer(_) => 3,
            Value::Double(_) => 4,
            Value::Varchar(_) => 5,
            Value::Date(_) => 6,
            Value::Timestamp(_) => 7,
            Value::Array(_) => 8,
            Value::Map(_) => 9,
            Value::Row(_) => 10,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            // Note: group-by key equality treats NULL == NULL (SQL GROUP BY
            // groups nulls together), which is why Eq is implemented this way.
            (Null, Null) => true,
            // bitwise equality groups NaNs together, while `a == b` makes
            // 0.0 and -0.0 one group, matching SQL `=` on doubles
            (Double(a), Double(b)) => a.to_bits() == b.to_bits() || a == b,
            (Boolean(a), Boolean(b)) => a == b,
            (Bigint(a), Bigint(b)) => a == b,
            (Integer(a), Integer(b)) => a == b,
            (Varchar(a), Varchar(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (Timestamp(a), Timestamp(b)) => a == b,
            (Array(a), Array(b)) => a == b,
            (Map(a), Map(b)) => a == b,
            (Row(a), Row(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_tag().hash(state);
        match self {
            Value::Null => {}
            Value::Boolean(v) => v.hash(state),
            Value::Bigint(v) => v.hash(state),
            Value::Integer(v) => v.hash(state),
            // normalize -0.0 to 0.0 so Hash agrees with Eq (0.0 == -0.0)
            Value::Double(v) => {
                let normalized = if *v == 0.0 { 0.0f64 } else { *v };
                normalized.to_bits().hash(state)
            }
            Value::Varchar(v) => v.hash(state),
            Value::Date(v) => v.hash(state),
            Value::Timestamp(v) => v.hash(state),
            Value::Array(v) => v.hash(state),
            Value::Map(v) => v.hash(state),
            Value::Row(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Boolean(v) => write!(f, "{v}"),
            Value::Bigint(v) => write!(f, "{v}"),
            Value::Integer(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Varchar(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "date({v})"),
            Value::Timestamp(v) => write!(f, "ts({v})"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Map(entries) => {
                write!(f, "{{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}={v}")?;
                }
                write!(f, "}}")
            }
            Value::Row(fields) => {
                write!(f, "(")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{field}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Bigint(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_cmp_is_null_aware() {
        assert_eq!(Value::Null.sql_cmp(&Value::Bigint(1)), None);
        assert_eq!(Value::Bigint(2).sql_cmp(&Value::Bigint(3)), Some(Ordering::Less));
        assert_eq!(Value::Bigint(2).sql_cmp(&Value::Double(2.0)), Some(Ordering::Equal));
        assert_eq!(
            Value::Varchar("a".into()).sql_cmp(&Value::Varchar("b".into())),
            Some(Ordering::Less)
        );
        // type-strict: varchar vs bigint is incomparable
        assert_eq!(Value::Varchar("1".into()).sql_cmp(&Value::Bigint(1)), None);
    }

    #[test]
    fn total_cmp_puts_nulls_last() {
        let mut vals = vec![Value::Null, Value::Bigint(2), Value::Bigint(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals, vec![Value::Bigint(1), Value::Bigint(2), Value::Null]);
    }

    #[test]
    fn total_cmp_is_total_with_nan_after_the_numbers() {
        use Ordering::*;
        let nan = Value::Double(f64::NAN);
        assert_eq!(Value::Double(f64::INFINITY).total_cmp(&nan), Less);
        assert_eq!(nan.total_cmp(&Value::Double(-f64::NAN)), Equal);
        assert_eq!(nan.total_cmp(&Value::Bigint(i64::MAX)), Greater);
        assert_eq!(Value::Integer(7).total_cmp(&nan), Less);
        assert_eq!(nan.total_cmp(&Value::Null), Less);
        assert_eq!(Value::Integer(2).total_cmp(&Value::Double(2.5)), Less);
        assert_eq!(Value::Double(0.0).total_cmp(&Value::Double(-0.0)), Equal);
        // a NULL element no longer makes two arrays "equal to everything"
        let arr = |items: &[Value]| Value::Array(items.to_vec());
        assert_eq!(
            arr(&[1i64.into(), Value::Null]).total_cmp(&arr(&[1i64.into(), 3i64.into()])),
            Greater
        );

        // every third value NaN: `slice::sort` panics on a comparison that
        // is not a total order, and a sorted vector must stay put
        let mut vals: Vec<Value> = (0..5_000)
            .map(|i| match i % 3 {
                0 => Value::Double(f64::NAN),
                1 => Value::Double(((i * 7919) % 1013) as f64 - 500.0),
                _ if i % 11 == 0 => Value::Null,
                _ => Value::Double(-(((i * 104_729) % 997) as f64) / 8.0),
            })
            .collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals.windows(2).all(|w| w[0].total_cmp(&w[1]) != Greater));
        let first_nan = vals.iter().position(|v| matches!(v, Value::Double(x) if x.is_nan()));
        let first_null = vals.iter().position(Value::is_null);
        assert!(vals[..first_nan.unwrap()].iter().all(|v| v.as_f64().is_some_and(|x| !x.is_nan())));
        assert!(vals[first_null.unwrap()..].iter().all(Value::is_null));
        let once = format!("{vals:?}");
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(format!("{vals:?}"), once);
    }

    #[test]
    fn doubles_hash_and_eq_follow_sql_grouping() {
        assert_eq!(Value::Double(1.5), Value::Double(1.5));
        // SQL `=` says 0.0 = -0.0: they must be one group/join key
        assert_eq!(Value::Double(0.0), Value::Double(-0.0));
        assert_eq!(hash_of(&Value::Double(0.0)), hash_of(&Value::Double(-0.0)));
        // NaNs group together (bitwise), though NaN != NaN under sql_cmp
        assert_eq!(Value::Double(f64::NAN), Value::Double(f64::NAN));
        assert_eq!(hash_of(&Value::Double(2.5)), hash_of(&Value::Double(2.5)));
    }

    #[test]
    fn nested_values_compare_lexicographically() {
        let a = Value::Array(vec![Value::Bigint(1), Value::Bigint(2)]);
        let b = Value::Array(vec![Value::Bigint(1), Value::Bigint(3)]);
        assert_eq!(a.sql_cmp(&b), Some(Ordering::Less));
        let short = Value::Array(vec![Value::Bigint(1)]);
        assert_eq!(short.sql_cmp(&a), Some(Ordering::Less));
    }

    #[test]
    fn null_groups_together_for_group_by() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(hash_of(&Value::Null), hash_of(&Value::Null));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Bigint(5));
        assert_eq!(Value::from("x"), Value::Varchar("x".into()));
        assert_eq!(Value::Bigint(7).as_f64(), Some(7.0));
        assert_eq!(Value::Integer(7).as_i64(), Some(7));
        assert_eq!(Value::Varchar("s".into()).as_str(), Some("s"));
    }
}
