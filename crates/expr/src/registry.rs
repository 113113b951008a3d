//! Function registry: resolution of names + argument types into
//! [`FunctionHandle`]s, built-in scalar functions, and the plugin extension
//! point used by the geospatial plugin (§VI.E registers `st_point`,
//! `st_contains`, `build_geo_index`, ... through exactly this mechanism).

use std::collections::HashMap;
use std::sync::Arc;

use presto_common::{DataType, PrestoError, Result, Value};

use crate::expression::FunctionHandle;

/// Scalar implementation of a custom (plugin) function.
pub type CustomScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// Signature checker for a custom function: given argument types, return the
/// result type if the function accepts them.
pub type CustomSignatureFn = Arc<dyn Fn(&[DataType]) -> Option<DataType> + Send + Sync>;

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `eq(a, b)`
    Eq,
    /// `neq(a, b)`
    Neq,
    /// `lt(a, b)`
    Lt,
    /// `lte(a, b)`
    Lte,
    /// `gt(a, b)`
    Gt,
    /// `gte(a, b)`
    Gte,
    /// `add(a, b)`
    Add,
    /// `sub(a, b)`
    Sub,
    /// `mul(a, b)`
    Mul,
    /// `div(a, b)`
    Div,
    /// `mod(a, b)`
    Mod,
    /// `negate(a)`
    Negate,
    /// `not(a)`
    Not,
    /// `concat(a, b)`
    Concat,
    /// `lower(s)`
    Lower,
    /// `upper(s)`
    Upper,
    /// `length(s)`
    Length,
    /// `substr(s, start_1_based, len)`
    Substr,
    /// `like(s, pattern)` with `%` and `_` wildcards
    Like,
    /// `abs(x)`
    Abs,
    /// `floor(x)`
    Floor,
    /// `ceil(x)`
    Ceil,
    /// `round(x)`
    Round,
    /// `sqrt(x)`
    Sqrt,
    /// `cast(x)` — target type carried in the handle's return type
    Cast,
    /// `cardinality(array|map)`
    Cardinality,
    /// `element_at(map, key)` / `element_at(array, index)`
    ElementAt,
    /// `contains(array, value)`
    Contains,
    /// `transform(array, lambda)` — higher-order, exercises LambdaDefinition
    Transform,
    /// `filter(array, lambda)` — higher-order
    Filter,
}

impl Builtin {
    /// Canonical name used in handles and SQL.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Eq => "eq",
            Builtin::Neq => "neq",
            Builtin::Lt => "lt",
            Builtin::Lte => "lte",
            Builtin::Gt => "gt",
            Builtin::Gte => "gte",
            Builtin::Add => "add",
            Builtin::Sub => "sub",
            Builtin::Mul => "mul",
            Builtin::Div => "div",
            Builtin::Mod => "mod",
            Builtin::Negate => "negate",
            Builtin::Not => "not",
            Builtin::Concat => "concat",
            Builtin::Lower => "lower",
            Builtin::Upper => "upper",
            Builtin::Length => "length",
            Builtin::Substr => "substr",
            Builtin::Like => "like",
            Builtin::Abs => "abs",
            Builtin::Floor => "floor",
            Builtin::Ceil => "ceil",
            Builtin::Round => "round",
            Builtin::Sqrt => "sqrt",
            Builtin::Cast => "cast",
            Builtin::Cardinality => "cardinality",
            Builtin::ElementAt => "element_at",
            Builtin::Contains => "contains",
            Builtin::Transform => "transform",
            Builtin::Filter => "filter",
        }
    }

    fn all() -> &'static [Builtin] {
        use Builtin::*;
        &[
            Eq,
            Neq,
            Lt,
            Lte,
            Gt,
            Gte,
            Add,
            Sub,
            Mul,
            Div,
            Mod,
            Negate,
            Not,
            Concat,
            Lower,
            Upper,
            Length,
            Substr,
            Like,
            Abs,
            Floor,
            Ceil,
            Round,
            Sqrt,
            Cast,
            Cardinality,
            ElementAt,
            Contains,
            Transform,
            Filter,
        ]
    }

    /// Type-check argument types; return the result type if accepted.
    pub fn return_type(self, args: &[DataType]) -> Option<DataType> {
        use Builtin::*;
        let numeric = |t: &DataType| t.is_numeric();
        let comparable = |a: &DataType, b: &DataType| a == b || (numeric(a) && numeric(b));
        match self {
            Eq | Neq | Lt | Lte | Gt | Gte => match args {
                [a, b] if comparable(a, b) && a.is_orderable() => Some(DataType::Boolean),
                _ => None,
            },
            Add | Sub | Mul => match args {
                [a, b] if numeric(a) && numeric(b) => Some(promote(a, b)),
                _ => None,
            },
            Div => match args {
                [a, b] if numeric(a) && numeric(b) => {
                    // Presto integer division stays integral.
                    Some(promote(a, b))
                }
                _ => None,
            },
            Mod => match args {
                [a, b] if numeric(a) && numeric(b) => Some(promote(a, b)),
                _ => None,
            },
            Negate => match args {
                [a] if numeric(a) => Some(a.clone()),
                _ => None,
            },
            Not => match args {
                [DataType::Boolean] => Some(DataType::Boolean),
                _ => None,
            },
            Concat => match args {
                [DataType::Varchar, DataType::Varchar] => Some(DataType::Varchar),
                _ => None,
            },
            Lower | Upper => match args {
                [DataType::Varchar] => Some(DataType::Varchar),
                _ => None,
            },
            Length => match args {
                [DataType::Varchar] => Some(DataType::Bigint),
                _ => None,
            },
            Substr => match args {
                [DataType::Varchar, a, b] if numeric(a) && numeric(b) => Some(DataType::Varchar),
                _ => None,
            },
            Like => match args {
                [DataType::Varchar, DataType::Varchar] => Some(DataType::Boolean),
                _ => None,
            },
            Abs => match args {
                [a] if numeric(a) => Some(a.clone()),
                _ => None,
            },
            Floor | Ceil | Round => match args {
                [DataType::Double] => Some(DataType::Double),
                [a] if numeric(a) => Some(a.clone()),
                _ => None,
            },
            Sqrt => match args {
                [a] if numeric(a) => Some(DataType::Double),
                _ => None,
            },
            // cast's return type is chosen by the caller, not inferred.
            Cast => None,
            Cardinality => match args {
                [DataType::Array(_)] | [DataType::Map(_, _)] => Some(DataType::Bigint),
                _ => None,
            },
            ElementAt => match args {
                [DataType::Map(k, v), key] if key == &**k => Some((**v).clone()),
                [DataType::Array(e), idx] if numeric(idx) => Some((**e).clone()),
                _ => None,
            },
            Contains => match args {
                [DataType::Array(e), v] if v == &**e => Some(DataType::Boolean),
                _ => None,
            },
            // Higher-order signatures are resolved by the analyzer, which
            // knows the lambda's body type.
            Transform | Filter => None,
        }
    }

    /// Row-at-a-time evaluation (the vectorized fast paths live in
    /// [`crate::eval`]). `return_type` is the handle's resolved return type,
    /// which `cast` needs.
    pub fn eval_scalar(self, args: &[Value], return_type: &DataType) -> Result<Value> {
        use Builtin::*;
        let null_in = args.iter().any(Value::is_null);
        match self {
            Eq | Neq | Lt | Lte | Gt | Gte => {
                if null_in {
                    return Ok(Value::Null);
                }
                let ord = match args[0].sql_cmp(&args[1]) {
                    Some(ord) => ord,
                    // numeric but unordered = NaN involved: IEEE semantics
                    // (every comparison false except !=), matching the
                    // vectorized fast path
                    None if args[0].as_f64().is_some() && args[1].as_f64().is_some() => {
                        return Ok(Value::Boolean(matches!(self, Neq)));
                    }
                    None => {
                        return Err(PrestoError::Execution(format!(
                            "cannot compare {} and {}",
                            args[0], args[1]
                        )))
                    }
                };
                let b = match self {
                    Eq => ord == std::cmp::Ordering::Equal,
                    Neq => ord != std::cmp::Ordering::Equal,
                    Lt => ord == std::cmp::Ordering::Less,
                    Lte => ord != std::cmp::Ordering::Greater,
                    Gt => ord == std::cmp::Ordering::Greater,
                    Gte => ord != std::cmp::Ordering::Less,
                    _ => unreachable!(),
                };
                Ok(Value::Boolean(b))
            }
            Add | Sub | Mul | Div | Mod => {
                if null_in {
                    return Ok(Value::Null);
                }
                numeric_binop(self, &args[0], &args[1])
            }
            Negate => {
                if null_in {
                    return Ok(Value::Null);
                }
                match &args[0] {
                    // wrapping like the arithmetic ops: i64::MIN stays
                    // i64::MIN rather than panicking in debug builds
                    Value::Bigint(v) => Ok(Value::Bigint(v.wrapping_neg())),
                    Value::Integer(v) => Ok(Value::Integer(v.wrapping_neg())),
                    Value::Double(v) => Ok(Value::Double(-v)),
                    other => Err(PrestoError::Execution(format!("cannot negate {other}"))),
                }
            }
            Not => {
                if null_in {
                    return Ok(Value::Null);
                }
                Ok(Value::Boolean(
                    !args[0]
                        .as_bool()
                        .ok_or_else(|| PrestoError::Execution("NOT requires boolean".into()))?,
                ))
            }
            Concat => {
                if null_in {
                    return Ok(Value::Null);
                }
                Ok(Value::Varchar(format!(
                    "{}{}",
                    args[0].as_str().unwrap_or(""),
                    args[1].as_str().unwrap_or("")
                )))
            }
            Lower => str_fn(args, |s| s.to_lowercase()),
            Upper => str_fn(args, |s| s.to_uppercase()),
            Length => {
                if null_in {
                    return Ok(Value::Null);
                }
                Ok(Value::Bigint(args[0].as_str().map(|s| s.chars().count()).unwrap_or(0) as i64))
            }
            Substr => {
                if null_in {
                    return Ok(Value::Null);
                }
                let s = args[0].as_str().unwrap_or("");
                let start = args[1].as_i64().unwrap_or(1).max(1) as usize;
                let len = args[2].as_i64().unwrap_or(0).max(0) as usize;
                let out: String = s.chars().skip(start - 1).take(len).collect();
                Ok(Value::Varchar(out))
            }
            Like => {
                if null_in {
                    return Ok(Value::Null);
                }
                let s = args[0].as_str().unwrap_or("");
                let p = args[1].as_str().unwrap_or("");
                Ok(Value::Boolean(like_match(s, p)))
            }
            Abs => {
                if null_in {
                    return Ok(Value::Null);
                }
                match &args[0] {
                    Value::Bigint(v) => Ok(Value::Bigint(v.wrapping_abs())),
                    Value::Integer(v) => Ok(Value::Integer(v.wrapping_abs())),
                    Value::Double(v) => Ok(Value::Double(v.abs())),
                    other => Err(PrestoError::Execution(format!("abs of non-number {other}"))),
                }
            }
            Floor => f64_fn(args, f64::floor),
            Ceil => f64_fn(args, f64::ceil),
            Round => f64_fn(args, f64::round),
            Sqrt => {
                if null_in {
                    return Ok(Value::Null);
                }
                Ok(Value::Double(args[0].as_f64().unwrap_or(f64::NAN).sqrt()))
            }
            Cast => cast_value(&args[0], return_type),
            Cardinality => {
                if null_in {
                    return Ok(Value::Null);
                }
                match &args[0] {
                    Value::Array(items) => Ok(Value::Bigint(items.len() as i64)),
                    Value::Map(entries) => Ok(Value::Bigint(entries.len() as i64)),
                    other => Err(PrestoError::Execution(format!(
                        "cardinality of non-collection {other}"
                    ))),
                }
            }
            ElementAt => {
                if null_in {
                    return Ok(Value::Null);
                }
                match &args[0] {
                    Value::Map(entries) => Ok(entries
                        .iter()
                        .find(|(k, _)| k == &args[1])
                        .map(|(_, v)| v.clone())
                        .unwrap_or(Value::Null)),
                    Value::Array(items) => {
                        let idx = args[1].as_i64().unwrap_or(0);
                        if idx >= 1 && (idx as usize) <= items.len() {
                            Ok(items[idx as usize - 1].clone())
                        } else {
                            Ok(Value::Null)
                        }
                    }
                    other => Err(PrestoError::Execution(format!("element_at of {other}"))),
                }
            }
            Contains => {
                if null_in {
                    return Ok(Value::Null);
                }
                match &args[0] {
                    Value::Array(items) => {
                        // SQL semantics: found → true; NULL element present
                        // and not found → NULL; else false
                        let mut saw_null = false;
                        for item in items {
                            if item.is_null() {
                                saw_null = true;
                            } else if item.sql_cmp(&args[1]) == Some(std::cmp::Ordering::Equal) {
                                return Ok(Value::Boolean(true));
                            }
                        }
                        Ok(if saw_null { Value::Null } else { Value::Boolean(false) })
                    }
                    other => Err(PrestoError::Execution(format!("contains of {other}"))),
                }
            }
            Transform | Filter => Err(PrestoError::Internal(
                "higher-order functions are evaluated by the Evaluator, not eval_scalar".into(),
            )),
        }
    }
}

/// Numeric type of `a ⊕ b`: DOUBLE beats BIGINT beats INTEGER.
pub(crate) fn promote(a: &DataType, b: &DataType) -> DataType {
    if a == &DataType::Double || b == &DataType::Double {
        DataType::Double
    } else if a == &DataType::Bigint || b == &DataType::Bigint {
        DataType::Bigint
    } else {
        DataType::Integer
    }
}

fn str_fn(args: &[Value], f: impl Fn(&str) -> String) -> Result<Value> {
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Varchar(s) => Ok(Value::Varchar(f(s))),
        other => Err(PrestoError::Execution(format!("string function on {other}"))),
    }
}

fn f64_fn(args: &[Value], f: impl Fn(f64) -> f64) -> Result<Value> {
    match &args[0] {
        Value::Null => Ok(Value::Null),
        Value::Double(v) => Ok(Value::Double(f(*v))),
        Value::Bigint(v) => Ok(Value::Bigint(*v)),
        Value::Integer(v) => Ok(Value::Integer(*v)),
        other => Err(PrestoError::Execution(format!("math function on {other}"))),
    }
}

/// `a ⊕ b` on two non-NULL numbers. One overflow rule for both integer
/// widths: the result wraps in the width [`promote`] declares — BIGINT at
/// 64 bits, INTEGER × INTEGER at 32, like Java — so `i64::MIN / -1` is
/// `i64::MIN`, and a value always fits the type its handle promised. Only a
/// zero integer divisor is an error.
fn numeric_binop(op: Builtin, a: &Value, b: &Value) -> Result<Value> {
    use Builtin::*;
    if matches!(a, Value::Double(_)) || matches!(b, Value::Double(_)) {
        let (x, y) = (
            a.as_f64().ok_or_else(|| PrestoError::Execution(format!("non-number {a}")))?,
            b.as_f64().ok_or_else(|| PrestoError::Execution(format!("non-number {b}")))?,
        );
        let r = match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            Mod => x % y,
            _ => unreachable!(),
        };
        return Ok(Value::Double(r));
    }
    let (x, y) = (
        a.as_i64().ok_or_else(|| PrestoError::Execution(format!("non-number {a}")))?,
        b.as_i64().ok_or_else(|| PrestoError::Execution(format!("non-number {b}")))?,
    );
    if matches!(op, Div | Mod) && y == 0 {
        return Err(PrestoError::Execution("division by zero".into()));
    }
    let r = match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div => x.wrapping_div(y),
        Mod => x.wrapping_rem(y),
        _ => unreachable!(),
    };
    // two sign-extended 32-bit inputs: the low half of the 64-bit result
    // is the 32-bit wrapping result
    if matches!(a, Value::Integer(_)) && matches!(b, Value::Integer(_)) {
        return Ok(Value::Integer(r as i32));
    }
    Ok(Value::Bigint(r))
}

/// SQL LIKE with `%` (any run) and `_` (any single char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// CAST semantics. Type-strict engine: only explicit casts convert.
pub fn cast_value(v: &Value, target: &DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    let fail = || PrestoError::Execution(format!("cannot cast {v} to {target}"));
    match target {
        DataType::Bigint => match v {
            Value::Bigint(x) => Ok(Value::Bigint(*x)),
            Value::Integer(x) => Ok(Value::Bigint(*x as i64)),
            Value::Double(x) => Ok(Value::Bigint(*x as i64)),
            Value::Varchar(s) => s.trim().parse().map(Value::Bigint).map_err(|_| fail()),
            Value::Boolean(b) => Ok(Value::Bigint(*b as i64)),
            _ => Err(fail()),
        },
        DataType::Integer => match v {
            Value::Integer(x) => Ok(Value::Integer(*x)),
            Value::Bigint(x) => i32::try_from(*x).map(Value::Integer).map_err(|_| fail()),
            Value::Double(x) => Ok(Value::Integer(*x as i32)),
            Value::Varchar(s) => s.trim().parse().map(Value::Integer).map_err(|_| fail()),
            _ => Err(fail()),
        },
        DataType::Double => match v {
            Value::Double(x) => Ok(Value::Double(*x)),
            Value::Bigint(x) => Ok(Value::Double(*x as f64)),
            Value::Integer(x) => Ok(Value::Double(*x as f64)),
            Value::Varchar(s) => s.trim().parse().map(Value::Double).map_err(|_| fail()),
            _ => Err(fail()),
        },
        DataType::Varchar => Ok(Value::Varchar(v.to_string())),
        DataType::Boolean => match v {
            Value::Boolean(b) => Ok(Value::Boolean(*b)),
            Value::Varchar(s) => match s.as_str() {
                "true" => Ok(Value::Boolean(true)),
                "false" => Ok(Value::Boolean(false)),
                _ => Err(fail()),
            },
            _ => Err(fail()),
        },
        DataType::Date => match v {
            Value::Date(d) => Ok(Value::Date(*d)),
            Value::Bigint(x) => Ok(Value::Date(*x as i32)),
            Value::Integer(x) => Ok(Value::Date(*x)),
            _ => Err(fail()),
        },
        DataType::Timestamp => match v {
            Value::Timestamp(t) => Ok(Value::Timestamp(*t)),
            Value::Bigint(x) => Ok(Value::Timestamp(*x)),
            _ => Err(fail()),
        },
        _ => Err(fail()),
    }
}

/// A registered custom (plugin) function.
pub struct CustomFunction {
    /// Function name.
    pub name: String,
    /// Signature checker.
    pub signature: CustomSignatureFn,
    /// Row-at-a-time implementation.
    pub eval: CustomScalarFn,
}

/// Resolves function names to handles and implementations.
///
/// Cloning shares the registered functions.
#[derive(Clone)]
pub struct FunctionRegistry {
    builtins: HashMap<&'static str, Builtin>,
    custom: Arc<parking_lot_stub::RwLockish<HashMap<String, Arc<CustomFunction>>>>,
}

// `presto-expr` deliberately depends only on presto-common; a tiny internal
// lock keeps it that way without pulling parking_lot into this crate.
mod parking_lot_stub {
    use std::sync::RwLock;

    #[derive(Default)]
    pub struct RwLockish<T>(RwLock<T>);

    impl<T> RwLockish<T> {
        pub fn new(v: T) -> Self {
            RwLockish(RwLock::new(v))
        }
        pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
            self.0.read().unwrap_or_else(|e| e.into_inner())
        }
        pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
            self.0.write().unwrap_or_else(|e| e.into_inner())
        }
    }
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FunctionRegistry {
    /// Registry pre-loaded with all built-ins.
    pub fn new() -> FunctionRegistry {
        let mut builtins = HashMap::new();
        for b in Builtin::all() {
            builtins.insert(b.name(), *b);
        }
        FunctionRegistry {
            builtins,
            custom: Arc::new(parking_lot_stub::RwLockish::new(HashMap::new())),
        }
    }

    /// Register a plugin scalar function (the §VI.E plugin mechanism).
    pub fn register_custom(
        &self,
        name: impl Into<String>,
        signature: CustomSignatureFn,
        eval: CustomScalarFn,
    ) {
        let name = name.into();
        let f = Arc::new(CustomFunction { name: name.clone(), signature, eval });
        self.custom.write().insert(name, f);
    }

    /// Look up a built-in by name.
    pub fn builtin(&self, name: &str) -> Option<Builtin> {
        self.builtins.get(name).copied()
    }

    /// Look up a custom function by name.
    pub fn custom(&self, name: &str) -> Option<Arc<CustomFunction>> {
        self.custom.read().get(name).cloned()
    }

    /// True when `name` is known (built-in or custom).
    pub fn contains(&self, name: &str) -> bool {
        self.builtins.contains_key(name) || self.custom.read().contains_key(name)
    }

    /// Resolve `name(arg_types...)` to a self-contained handle.
    pub fn resolve(&self, name: &str, arg_types: &[DataType]) -> Result<FunctionHandle> {
        if let Some(b) = self.builtin(name) {
            if let Some(ret) = b.return_type(arg_types) {
                return Ok(FunctionHandle::new(name, arg_types.to_vec(), ret));
            }
            return Err(PrestoError::Analysis(format!(
                "function {name}({}) cannot be applied",
                arg_types.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
            )));
        }
        if let Some(c) = self.custom(name) {
            if let Some(ret) = (c.signature)(arg_types) {
                return Ok(FunctionHandle::new(name, arg_types.to_vec(), ret));
            }
            return Err(PrestoError::Analysis(format!(
                "function {name}({}) cannot be applied",
                arg_types.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(", ")
            )));
        }
        Err(PrestoError::Analysis(format!("unknown function '{name}'")))
    }

    /// Resolve an explicit CAST to `target`.
    pub fn resolve_cast(&self, from: &DataType, target: &DataType) -> FunctionHandle {
        FunctionHandle::new("cast", vec![from.clone()], target.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_builtin_with_type_check() {
        let r = FunctionRegistry::new();
        let h = r.resolve("eq", &[DataType::Bigint, DataType::Bigint]).unwrap();
        assert_eq!(h.return_type, DataType::Boolean);
        // numeric mixing allowed
        assert!(r.resolve("lt", &[DataType::Bigint, DataType::Double]).is_ok());
        // type-strict otherwise
        assert!(r.resolve("eq", &[DataType::Varchar, DataType::Bigint]).is_err());
        assert!(r.resolve("no_such_fn", &[]).is_err());
    }

    #[test]
    fn arithmetic_promotes_types() {
        let r = FunctionRegistry::new();
        assert_eq!(
            r.resolve("add", &[DataType::Integer, DataType::Integer]).unwrap().return_type,
            DataType::Integer
        );
        assert_eq!(
            r.resolve("add", &[DataType::Integer, DataType::Bigint]).unwrap().return_type,
            DataType::Bigint
        );
        assert_eq!(
            r.resolve("mul", &[DataType::Bigint, DataType::Double]).unwrap().return_type,
            DataType::Double
        );
    }

    #[test]
    fn scalar_eval_matches_sql_semantics() {
        let b = DataType::Boolean;
        assert_eq!(
            Builtin::Eq.eval_scalar(&[Value::Bigint(2), Value::Bigint(2)], &b).unwrap(),
            Value::Boolean(true)
        );
        assert_eq!(
            Builtin::Lt.eval_scalar(&[Value::Null, Value::Bigint(2)], &b).unwrap(),
            Value::Null
        );
        assert_eq!(
            Builtin::Add
                .eval_scalar(&[Value::Bigint(2), Value::Double(0.5)], &DataType::Double)
                .unwrap(),
            Value::Double(2.5)
        );
        assert!(Builtin::Div
            .eval_scalar(&[Value::Bigint(1), Value::Bigint(0)], &DataType::Bigint)
            .is_err());
        assert_eq!(
            Builtin::Substr
                .eval_scalar(
                    &[Value::Varchar("abcdef".into()), Value::Bigint(2), Value::Bigint(3)],
                    &DataType::Varchar
                )
                .unwrap(),
            Value::Varchar("bcd".into())
        );
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("driver_uuid", "driver%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("x", ""));
        assert!(like_match("needle in a haystack", "%needle%"));
    }

    #[test]
    fn casts_are_explicit_and_checked() {
        assert_eq!(
            cast_value(&Value::Varchar("42".into()), &DataType::Bigint).unwrap(),
            Value::Bigint(42)
        );
        assert_eq!(
            cast_value(&Value::Bigint(1), &DataType::Varchar).unwrap(),
            Value::Varchar("1".into())
        );
        assert!(cast_value(&Value::Varchar("abc".into()), &DataType::Bigint).is_err());
        assert_eq!(cast_value(&Value::Null, &DataType::Bigint).unwrap(), Value::Null);
        // narrowing checks range
        assert!(cast_value(&Value::Bigint(i64::MAX), &DataType::Integer).is_err());
    }

    #[test]
    fn custom_functions_register_and_resolve() {
        let r = FunctionRegistry::new();
        r.register_custom(
            "st_point",
            Arc::new(|args: &[DataType]| {
                (args == [DataType::Double, DataType::Double]).then_some(DataType::Varchar)
            }),
            Arc::new(|args: &[Value]| {
                Ok(Value::Varchar(format!(
                    "POINT ({} {})",
                    args[0].as_f64().unwrap_or(0.0),
                    args[1].as_f64().unwrap_or(0.0)
                )))
            }),
        );
        let h = r.resolve("st_point", &[DataType::Double, DataType::Double]).unwrap();
        assert_eq!(h.return_type, DataType::Varchar);
        let f = r.custom("st_point").unwrap();
        let v = (f.eval)(&[Value::Double(1.0), Value::Double(2.0)]).unwrap();
        assert_eq!(v, Value::Varchar("POINT (1 2)".into()));
        // shared across clones
        let clone = r.clone();
        assert!(clone.contains("st_point"));
    }

    #[test]
    fn element_at_and_collections() {
        let map = Value::Map(vec![(Value::Varchar("a".into()), Value::Double(1.0))]);
        assert_eq!(
            Builtin::ElementAt
                .eval_scalar(&[map.clone(), Value::Varchar("a".into())], &DataType::Double)
                .unwrap(),
            Value::Double(1.0)
        );
        assert_eq!(
            Builtin::ElementAt
                .eval_scalar(&[map.clone(), Value::Varchar("z".into())], &DataType::Double)
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Builtin::Cardinality.eval_scalar(&[map], &DataType::Bigint).unwrap(),
            Value::Bigint(1)
        );
        let arr = Value::Array(vec![Value::Bigint(5), Value::Bigint(6)]);
        assert_eq!(
            Builtin::ElementAt
                .eval_scalar(&[arr.clone(), Value::Bigint(2)], &DataType::Bigint)
                .unwrap(),
            Value::Bigint(6)
        );
        assert_eq!(
            Builtin::Contains.eval_scalar(&[arr, Value::Bigint(7)], &DataType::Boolean).unwrap(),
            Value::Boolean(false)
        );
    }
}
