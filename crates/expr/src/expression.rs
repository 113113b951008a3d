//! The RowExpression IR and its serialization.
//!
//! Table I of the paper lists the subtypes verbatim:
//!
//! | ExpressionType                | Represents |
//! |-------------------------------|------------|
//! | ConstantExpression            | Literal values such as (1L, BIGINT) |
//! | VariableReferenceExpression   | Reference to an input column |
//! | CallExpression                | Function calls: arithmetic, casts, UDFs |
//! | SpecialFormExpression         | IN, IF, IS_NULL, AND, DEREFERENCE, ... |
//! | LambdaDefinitionExpression    | Anonymous functions |

use std::fmt;

use presto_common::{DataType, Field, PrestoError, Result, Value};

/// Serializable function-resolution record.
///
/// §IV.B: "We resolve this by storing function resolution information in the
/// expression representation itself as a serializable functionHandle. This
/// makes it possible to consistently reference a function when we reuse the
/// expressions containing the function." A handle fully determines which
/// implementation runs: name + exact argument types + return type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FunctionHandle {
    /// Canonical function name (e.g. `eq`, `add`, `st_contains`).
    pub name: String,
    /// Resolved argument types.
    pub arg_types: Vec<DataType>,
    /// Resolved return type.
    pub return_type: DataType,
}

impl FunctionHandle {
    /// Construct a handle.
    pub fn new(name: impl Into<String>, arg_types: Vec<DataType>, return_type: DataType) -> Self {
        FunctionHandle { name: name.into(), arg_types, return_type }
    }
}

/// The special built-in forms of Table I ("E.g. IN, IF, IS_NULL, AND,
/// DEREFERENCE").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SpecialForm {
    /// Kleene-logic conjunction.
    And,
    /// Kleene-logic disjunction.
    Or,
    /// `arg0 IN (arg1, .., argN)`.
    In,
    /// `IF(cond, then, else)`.
    If,
    /// `arg0 IS NULL`.
    IsNull,
    /// First non-null argument.
    Coalesce,
    /// `BETWEEN(value, low, high)` inclusive.
    Between,
    /// Struct field access `arg0.<field_index>` — how `base.city_id` reaches
    /// into nested data (§V).
    Dereference {
        /// Index of the field within the row type of `arg0`.
        field_index: usize,
    },
}

impl SpecialForm {
    fn tag(&self) -> &'static str {
        match self {
            SpecialForm::And => "AND",
            SpecialForm::Or => "OR",
            SpecialForm::In => "IN",
            SpecialForm::If => "IF",
            SpecialForm::IsNull => "IS_NULL",
            SpecialForm::Coalesce => "COALESCE",
            SpecialForm::Between => "BETWEEN",
            SpecialForm::Dereference { .. } => "DEREFERENCE",
        }
    }
}

/// A self-contained, analyzable, serializable expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RowExpression {
    /// `ConstantExpression` — a literal with its type, e.g. `(1L, BIGINT)`.
    Constant {
        /// The literal value.
        value: Value,
        /// Its SQL type (needed because `NULL` carries no type of its own).
        data_type: DataType,
    },
    /// `VariableReferenceExpression` — "reference to an input column and a
    /// field of the output from previous relation expression".
    VariableReference {
        /// Column name, for display and re-binding.
        name: String,
        /// Channel (column index) in the input page.
        index: usize,
        /// Column type.
        data_type: DataType,
    },
    /// `CallExpression` — "function calls, which includes all arithmetic
    /// operations, casts, UDFs".
    Call {
        /// The resolved function.
        handle: FunctionHandle,
        /// Argument expressions.
        args: Vec<RowExpression>,
    },
    /// `SpecialFormExpression` — special built-in function calls.
    SpecialForm {
        /// Which form.
        form: SpecialForm,
        /// Arguments.
        args: Vec<RowExpression>,
        /// Result type.
        return_type: DataType,
    },
    /// `LambdaDefinitionExpression` — e.g. `(x BIGINT) -> x + 1`.
    LambdaDefinition {
        /// Parameter names and types.
        parameters: Vec<(String, DataType)>,
        /// Body; parameter references appear as `VariableReference` with
        /// indices `input_width + param_position` bound at evaluation time.
        body: Box<RowExpression>,
    },
}

impl RowExpression {
    // -------------------------------------------------------------- helpers

    /// A typed NULL literal.
    pub fn null(data_type: DataType) -> RowExpression {
        RowExpression::Constant { value: Value::Null, data_type }
    }

    /// A BIGINT literal.
    pub fn bigint(v: i64) -> RowExpression {
        RowExpression::Constant { value: Value::Bigint(v), data_type: DataType::Bigint }
    }

    /// A DOUBLE literal.
    pub fn double(v: f64) -> RowExpression {
        RowExpression::Constant { value: Value::Double(v), data_type: DataType::Double }
    }

    /// A VARCHAR literal.
    pub fn varchar(v: impl Into<String>) -> RowExpression {
        RowExpression::Constant { value: Value::Varchar(v.into()), data_type: DataType::Varchar }
    }

    /// A BOOLEAN literal.
    pub fn boolean(v: bool) -> RowExpression {
        RowExpression::Constant { value: Value::Boolean(v), data_type: DataType::Boolean }
    }

    /// A column reference.
    pub fn column(name: impl Into<String>, index: usize, data_type: DataType) -> RowExpression {
        RowExpression::VariableReference { name: name.into(), index, data_type }
    }

    /// The static type of this expression.
    pub fn data_type(&self) -> DataType {
        match self {
            RowExpression::Constant { data_type, .. } => data_type.clone(),
            RowExpression::VariableReference { data_type, .. } => data_type.clone(),
            RowExpression::Call { handle, .. } => handle.return_type.clone(),
            RowExpression::SpecialForm { return_type, .. } => return_type.clone(),
            RowExpression::LambdaDefinition { body, .. } => body.data_type(),
        }
    }

    /// True when the expression contains no variable references (and thus can
    /// be constant-folded).
    pub fn is_constant(&self) -> bool {
        match self {
            RowExpression::Constant { .. } => true,
            RowExpression::VariableReference { .. } => false,
            RowExpression::Call { args, .. } => args.iter().all(RowExpression::is_constant),
            RowExpression::SpecialForm { args, .. } => args.iter().all(RowExpression::is_constant),
            RowExpression::LambdaDefinition { .. } => false,
        }
    }

    /// Collect the distinct input column indices this expression reads, in
    /// ascending order. A lambda body's references are its parameters, not
    /// input columns, and are not collected.
    pub fn referenced_columns(&self) -> Vec<usize> {
        fn collect(e: &RowExpression, out: &mut Vec<usize>) {
            match e {
                RowExpression::VariableReference { index, .. } if !out.contains(index) => {
                    out.push(*index)
                }
                RowExpression::Call { args, .. } | RowExpression::SpecialForm { args, .. } => {
                    args.iter().for_each(|a| collect(a, out))
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out.sort_unstable();
        out
    }

    /// Pre-order visit of the expression tree.
    pub fn visit(&self, f: &mut impl FnMut(&RowExpression)) {
        f(self);
        match self {
            RowExpression::Call { args, .. } | RowExpression::SpecialForm { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            RowExpression::LambdaDefinition { body, .. } => body.visit(f),
            _ => {}
        }
    }

    /// Rebuild the tree bottom-up through `f`.
    pub fn rewrite(self, f: &impl Fn(RowExpression) -> RowExpression) -> RowExpression {
        let rebuilt = match self {
            RowExpression::Call { handle, args } => RowExpression::Call {
                handle,
                args: args.into_iter().map(|a| a.rewrite(f)).collect(),
            },
            RowExpression::SpecialForm { form, args, return_type } => RowExpression::SpecialForm {
                form,
                args: args.into_iter().map(|a| a.rewrite(f)).collect(),
                return_type,
            },
            RowExpression::LambdaDefinition { parameters, body } => {
                RowExpression::LambdaDefinition { parameters, body: Box::new(body.rewrite(f)) }
            }
            leaf => leaf,
        };
        f(rebuilt)
    }

    /// Move each input column reference to channel `to(old channel)`; a
    /// lambda body, whose references are its parameters, is left as it is.
    pub fn remap_columns(&self, to: &impl Fn(usize) -> usize) -> RowExpression {
        match self {
            RowExpression::VariableReference { name, index, data_type } => {
                RowExpression::VariableReference {
                    name: name.clone(),
                    index: to(*index),
                    data_type: data_type.clone(),
                }
            }
            RowExpression::Call { handle, args } => RowExpression::Call {
                handle: handle.clone(),
                args: args.iter().map(|a| a.remap_columns(to)).collect(),
            },
            RowExpression::SpecialForm { form, args, return_type } => RowExpression::SpecialForm {
                form: form.clone(),
                args: args.iter().map(|a| a.remap_columns(to)).collect(),
                return_type: return_type.clone(),
            },
            leaf => leaf.clone(),
        }
    }

    /// Split a conjunction into its conjuncts (flattening nested ANDs).
    pub fn conjuncts(&self) -> Vec<RowExpression> {
        match self {
            RowExpression::SpecialForm { form: SpecialForm::And, args, .. } => {
                args.iter().flat_map(|a| a.conjuncts()).collect()
            }
            other => vec![other.clone()],
        }
    }

    /// AND-combine conjuncts ( `None` for the empty list).
    pub fn combine_conjuncts(mut conjuncts: Vec<RowExpression>) -> Option<RowExpression> {
        match conjuncts.len() {
            0 => None,
            1 => Some(conjuncts.remove(0)),
            _ => Some(RowExpression::SpecialForm {
                form: SpecialForm::And,
                args: conjuncts,
                return_type: DataType::Boolean,
            }),
        }
    }

    // -------------------------------------------------------- serialization

    /// Serialize to the compact self-contained text form.
    ///
    /// This is the property Table I is about: the expression carries
    /// everything (types, resolved handles) needed for another system — a
    /// connector, a remote worker — to evaluate it without consulting the
    /// coordinator's analyzer. [`RowExpression::deserialize`] round-trips.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write_sexp(&mut out);
        out
    }

    fn write_sexp(&self, out: &mut String) {
        // `fmt::Write` into a `String` cannot fail: the results are dropped
        use std::fmt::Write;
        match self {
            RowExpression::Constant { value, data_type } => {
                let _ = write!(out, "(const {} {})", type_sexp(data_type), value_sexp(value));
            }
            RowExpression::VariableReference { name, index, data_type } => {
                let _ = write!(out, "(var {} {} {})", escape(name), index, type_sexp(data_type));
            }
            RowExpression::Call { handle, args } => {
                let _ = write!(out, "(call {} (", escape(&handle.name));
                for (i, t) in handle.arg_types.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(&type_sexp(t));
                }
                let _ = write!(out, ") {}", type_sexp(&handle.return_type));
                for a in args {
                    out.push(' ');
                    a.write_sexp(out);
                }
                out.push(')');
            }
            RowExpression::SpecialForm { form, args, return_type } => {
                let extra = match form {
                    SpecialForm::Dereference { field_index } => format!(" {field_index}"),
                    _ => String::new(),
                };
                let _ = write!(out, "(form {}{} {}", form.tag(), extra, type_sexp(return_type));
                for a in args {
                    out.push(' ');
                    a.write_sexp(out);
                }
                out.push(')');
            }
            RowExpression::LambdaDefinition { parameters, body } => {
                out.push_str("(lambda (");
                for (i, (name, t)) in parameters.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let _ = write!(out, "{}:{}", escape(name), type_sexp(t));
                }
                out.push_str(") ");
                body.write_sexp(out);
                out.push(')');
            }
        }
    }

    /// Parse the text form produced by [`RowExpression::serialize`].
    pub fn deserialize(text: &str) -> Result<RowExpression> {
        let mut parser = SexpParser { input: text.as_bytes(), pos: 0 };
        let expr = parser.parse_expr()?;
        parser.skip_ws();
        if parser.pos != parser.input.len() {
            return Err(PrestoError::Internal("trailing input after expression".into()));
        }
        Ok(expr)
    }
}

impl fmt::Display for RowExpression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowExpression::Constant { value, .. } => write!(f, "{value}"),
            RowExpression::VariableReference { name, .. } => write!(f, "{name}"),
            RowExpression::Call { handle, args } => {
                write!(f, "{}(", handle.name)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            RowExpression::SpecialForm { form, args, .. } => match form {
                SpecialForm::Dereference { .. } => write!(f, "{}.<{}>", args[0], form.tag()),
                SpecialForm::And | SpecialForm::Or => {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, " {} ", form.tag())?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
                _ => {
                    write!(f, "{}(", form.tag())?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
            },
            RowExpression::LambdaDefinition { parameters, body } => {
                write!(f, "(")?;
                for (i, (n, t)) in parameters.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}:{t}")?;
                }
                write!(f, ") -> {body}")
            }
        }
    }
}

// ------------------------------------------------------------------ sexp io

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

fn type_sexp(t: &DataType) -> String {
    match t {
        DataType::Boolean => "boolean".into(),
        DataType::Bigint => "bigint".into(),
        DataType::Integer => "integer".into(),
        DataType::Double => "double".into(),
        DataType::Varchar => "varchar".into(),
        DataType::Date => "date".into(),
        DataType::Timestamp => "timestamp".into(),
        DataType::Array(e) => format!("(array {})", type_sexp(e)),
        DataType::Map(k, v) => format!("(map {} {})", type_sexp(k), type_sexp(v)),
        DataType::Row(fields) => {
            let mut out = String::from("(row");
            for f in fields {
                out.push(' ');
                out.push_str(&escape(&f.name));
                out.push(' ');
                out.push_str(&type_sexp(&f.data_type));
            }
            out.push(')');
            out
        }
    }
}

fn value_sexp(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Boolean(b) => format!("(bool {b})"),
        Value::Bigint(x) => format!("(i64 {x})"),
        Value::Integer(x) => format!("(i32 {x})"),
        Value::Double(x) => format!("(f64 {})", x.to_bits()),
        Value::Varchar(s) => format!("(str {})", escape(s)),
        Value::Date(x) => format!("(date {x})"),
        Value::Timestamp(x) => format!("(ts {x})"),
        Value::Array(items) => {
            let mut out = String::from("(arr");
            for i in items {
                out.push(' ');
                out.push_str(&value_sexp(i));
            }
            out.push(')');
            out
        }
        Value::Map(entries) => {
            let mut out = String::from("(mapv");
            for (k, val) in entries {
                out.push(' ');
                out.push_str(&value_sexp(k));
                out.push(' ');
                out.push_str(&value_sexp(val));
            }
            out.push(')');
            out
        }
        Value::Row(items) => {
            let mut out = String::from("(rowv");
            for i in items {
                out.push(' ');
                out.push_str(&value_sexp(i));
            }
            out.push(')');
            out
        }
    }
}

struct SexpParser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> SexpParser<'a> {
    fn err(&self, msg: &str) -> PrestoError {
        PrestoError::Internal(format!("expression deserialize error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<()> {
        self.skip_ws();
        if self.pos < self.input.len() && self.input[self.pos] == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn word(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len()
            && !self.input[self.pos].is_ascii_whitespace()
            && self.input[self.pos] != b'('
            && self.input[self.pos] != b')'
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected word"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn quoted(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out: Vec<u8> = Vec::new();
        while self.pos < self.input.len() {
            match self.input[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid utf-8"));
                }
                b'\\' => {
                    self.pos += 1;
                    if self.pos < self.input.len() {
                        out.push(self.input[self.pos]);
                        self.pos += 1;
                    }
                }
                c => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
        Err(self.err("unterminated string"))
    }

    fn usize_word(&mut self) -> Result<usize> {
        self.word()?.parse().map_err(|_| self.err("expected integer"))
    }

    fn parse_type(&mut self) -> Result<DataType> {
        if self.peek() == Some(b'(') {
            self.eat(b'(')?;
            let kind = self.word()?;
            let t = match kind.as_str() {
                "array" => DataType::array(self.parse_type()?),
                "map" => {
                    let k = self.parse_type()?;
                    let v = self.parse_type()?;
                    DataType::map(k, v)
                }
                "row" => {
                    let mut fields = Vec::new();
                    while self.peek() != Some(b')') {
                        let name = self.quoted()?;
                        let t = self.parse_type()?;
                        fields.push(Field::new(name, t));
                    }
                    DataType::Row(fields)
                }
                other => return Err(self.err(&format!("unknown type '{other}'"))),
            };
            self.eat(b')')?;
            return Ok(t);
        }
        match self.word()?.as_str() {
            "boolean" => Ok(DataType::Boolean),
            "bigint" => Ok(DataType::Bigint),
            "integer" => Ok(DataType::Integer),
            "double" => Ok(DataType::Double),
            "varchar" => Ok(DataType::Varchar),
            "date" => Ok(DataType::Date),
            "timestamp" => Ok(DataType::Timestamp),
            other => Err(self.err(&format!("unknown type '{other}'"))),
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        if self.peek() != Some(b'(') {
            let w = self.word()?;
            return if w == "null" {
                Ok(Value::Null)
            } else {
                Err(self.err(&format!("unknown value '{w}'")))
            };
        }
        self.eat(b'(')?;
        let kind = self.word()?;
        let v = match kind.as_str() {
            "bool" => Value::Boolean(self.word()? == "true"),
            "i64" => Value::Bigint(self.word()?.parse().map_err(|_| self.err("bad i64"))?),
            "i32" => Value::Integer(self.word()?.parse().map_err(|_| self.err("bad i32"))?),
            "f64" => Value::Double(f64::from_bits(
                self.word()?.parse().map_err(|_| self.err("bad f64 bits"))?,
            )),
            "str" => Value::Varchar(self.quoted()?),
            "date" => Value::Date(self.word()?.parse().map_err(|_| self.err("bad date"))?),
            "ts" => Value::Timestamp(self.word()?.parse().map_err(|_| self.err("bad ts"))?),
            "arr" => {
                let mut items = Vec::new();
                while self.peek() != Some(b')') {
                    items.push(self.parse_value()?);
                }
                Value::Array(items)
            }
            "mapv" => {
                let mut entries = Vec::new();
                while self.peek() != Some(b')') {
                    let k = self.parse_value()?;
                    let v = self.parse_value()?;
                    entries.push((k, v));
                }
                Value::Map(entries)
            }
            "rowv" => {
                let mut items = Vec::new();
                while self.peek() != Some(b')') {
                    items.push(self.parse_value()?);
                }
                Value::Row(items)
            }
            other => return Err(self.err(&format!("unknown value kind '{other}'"))),
        };
        self.eat(b')')?;
        Ok(v)
    }

    fn parse_expr(&mut self) -> Result<RowExpression> {
        self.eat(b'(')?;
        let kind = self.word()?;
        let expr = match kind.as_str() {
            "const" => {
                let data_type = self.parse_type()?;
                let value = self.parse_value()?;
                RowExpression::Constant { value, data_type }
            }
            "var" => {
                let name = self.quoted()?;
                let index = self.usize_word()?;
                let data_type = self.parse_type()?;
                RowExpression::VariableReference { name, index, data_type }
            }
            "call" => {
                let name = self.quoted()?;
                self.eat(b'(')?;
                let mut arg_types = Vec::new();
                while self.peek() != Some(b')') {
                    arg_types.push(self.parse_type()?);
                }
                self.eat(b')')?;
                let return_type = self.parse_type()?;
                let mut args = Vec::new();
                while self.peek() != Some(b')') {
                    args.push(self.parse_expr()?);
                }
                RowExpression::Call {
                    handle: FunctionHandle::new(name, arg_types, return_type),
                    args,
                }
            }
            "form" => {
                let tag = self.word()?;
                let form = match tag.as_str() {
                    "AND" => SpecialForm::And,
                    "OR" => SpecialForm::Or,
                    "IN" => SpecialForm::In,
                    "IF" => SpecialForm::If,
                    "IS_NULL" => SpecialForm::IsNull,
                    "COALESCE" => SpecialForm::Coalesce,
                    "BETWEEN" => SpecialForm::Between,
                    "DEREFERENCE" => SpecialForm::Dereference { field_index: self.usize_word()? },
                    other => return Err(self.err(&format!("unknown form '{other}'"))),
                };
                let return_type = self.parse_type()?;
                let mut args = Vec::new();
                while self.peek() != Some(b')') {
                    args.push(self.parse_expr()?);
                }
                RowExpression::SpecialForm { form, args, return_type }
            }
            "lambda" => {
                self.eat(b'(')?;
                let mut parameters = Vec::new();
                while self.peek() != Some(b')') {
                    // Parameters serialize as "name":type with a colon join.
                    let name = self.quoted()?;
                    self.eat(b':')?;
                    let t = self.parse_type()?;
                    parameters.push((name, t));
                }
                self.eat(b')')?;
                let body = Box::new(self.parse_expr()?);
                RowExpression::LambdaDefinition { parameters, body }
            }
            other => return Err(self.err(&format!("unknown expression kind '{other}'"))),
        };
        self.eat(b')')?;
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_call() -> RowExpression {
        // eq(base.city_id, 12)
        let base = RowExpression::column(
            "base",
            0,
            DataType::row(vec![
                Field::new("driver_uuid", DataType::Varchar),
                Field::new("city_id", DataType::Bigint),
            ]),
        );
        let city = RowExpression::SpecialForm {
            form: SpecialForm::Dereference { field_index: 1 },
            args: vec![base],
            return_type: DataType::Bigint,
        };
        RowExpression::Call {
            handle: FunctionHandle::new(
                "eq",
                vec![DataType::Bigint, DataType::Bigint],
                DataType::Boolean,
            ),
            args: vec![city, RowExpression::bigint(12)],
        }
    }

    #[test]
    fn all_five_table_i_subtypes_serialize_round_trip() {
        let exprs = vec![
            RowExpression::Constant { value: Value::Bigint(1), data_type: DataType::Bigint },
            RowExpression::column("c0", 3, DataType::Varchar),
            sample_call(),
            RowExpression::SpecialForm {
                form: SpecialForm::In,
                args: vec![
                    RowExpression::column("x", 0, DataType::Bigint),
                    RowExpression::bigint(1),
                    RowExpression::bigint(2),
                ],
                return_type: DataType::Boolean,
            },
            RowExpression::LambdaDefinition {
                parameters: vec![("x".into(), DataType::Bigint), ("y".into(), DataType::Bigint)],
                body: Box::new(RowExpression::Call {
                    handle: FunctionHandle::new(
                        "add",
                        vec![DataType::Bigint, DataType::Bigint],
                        DataType::Bigint,
                    ),
                    args: vec![
                        RowExpression::column("x", 0, DataType::Bigint),
                        RowExpression::column("y", 1, DataType::Bigint),
                    ],
                }),
            },
        ];
        for e in exprs {
            let text = e.serialize();
            let back = RowExpression::deserialize(&text).unwrap();
            assert_eq!(back, e, "round trip failed for {text}");
        }
    }

    #[test]
    fn serialization_is_self_contained() {
        // The serialized form of a call carries the full resolved handle —
        // name, argument types, return type — exactly the Table I property.
        let text = sample_call().serialize();
        assert!(text.contains("\"eq\""));
        assert!(text.contains("bigint"));
        assert!(text.contains("boolean"));
        assert!(text.contains("DEREFERENCE 1"));
    }

    #[test]
    fn special_values_round_trip() {
        for v in [
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::Varchar("quote \" backslash \\ end".into()),
            Value::Array(vec![Value::Null, Value::Bigint(2)]),
            Value::Map(vec![(Value::Varchar("k".into()), Value::Double(1.5))]),
            Value::Row(vec![Value::Null]),
        ] {
            let e = RowExpression::Constant { value: v.clone(), data_type: DataType::Varchar };
            let back = RowExpression::deserialize(&e.serialize()).unwrap();
            match back {
                RowExpression::Constant { value, .. } => assert_eq!(value, v),
                _ => panic!("wrong subtype"),
            }
        }
    }

    #[test]
    fn conjunct_split_and_combine() {
        let a = RowExpression::boolean(true);
        let b = RowExpression::boolean(false);
        let c = RowExpression::column("c", 0, DataType::Boolean);
        let and_ab = RowExpression::combine_conjuncts(vec![a.clone(), b.clone()]).unwrap();
        let nested = RowExpression::combine_conjuncts(vec![and_ab.clone(), c.clone()]).unwrap();
        assert_eq!(nested.conjuncts(), vec![a.clone(), b, c]);
        assert_eq!(RowExpression::combine_conjuncts(vec![]), None);
        assert_eq!(RowExpression::combine_conjuncts(vec![a.clone()]), Some(a));
    }

    #[test]
    fn referenced_columns_and_remap() {
        let expr = sample_call();
        assert_eq!(expr.referenced_columns(), vec![0]);
        let remapped = expr.remap_columns(&|c| c + 5);
        assert_eq!(remapped.referenced_columns(), vec![5]);
        // a lambda's parameters are not input columns
        let lambda = RowExpression::LambdaDefinition {
            parameters: vec![("x".into(), DataType::Bigint)],
            body: Box::new(RowExpression::column("x", 0, DataType::Bigint)),
        };
        let call = RowExpression::SpecialForm {
            form: SpecialForm::And,
            args: vec![RowExpression::column("a", 2, DataType::Bigint), lambda.clone()],
            return_type: DataType::Boolean,
        };
        assert_eq!(call.referenced_columns(), vec![2]);
        let RowExpression::SpecialForm { args, .. } = call.remap_columns(&|c| c + 5) else {
            unreachable!()
        };
        assert_eq!(args, vec![RowExpression::column("a", 7, DataType::Bigint), lambda]);
    }

    #[test]
    fn is_constant_detects_foldability() {
        assert!(RowExpression::bigint(1).is_constant());
        assert!(!sample_call().is_constant());
        let fold = RowExpression::Call {
            handle: FunctionHandle::new(
                "add",
                vec![DataType::Bigint, DataType::Bigint],
                DataType::Bigint,
            ),
            args: vec![RowExpression::bigint(1), RowExpression::bigint(2)],
        };
        assert!(fold.is_constant());
    }

    #[test]
    fn display_is_readable() {
        assert!(sample_call().to_string().contains("eq("),);
        let l = RowExpression::LambdaDefinition {
            parameters: vec![("x".into(), DataType::Bigint)],
            body: Box::new(RowExpression::column("x", 0, DataType::Bigint)),
        };
        assert_eq!(l.to_string(), "(x:bigint) -> x");
    }
}
