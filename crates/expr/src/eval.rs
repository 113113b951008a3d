//! Vectorized expression evaluation over [`Page`]s.
//!
//! §III: Presto "processes a bunch of in memory encoded column values
//! vectorized, instead of row by row" and uses runtime code generation (ASM)
//! for expression evaluation. The Rust equivalent here is a monomorphized
//! vectorized interpreter. Every sub-expression evaluates to an operand — a
//! column (borrowed from the page when it is a bare reference) or one
//! **scalar**: a literal is never expanded into a column of copies, a
//! reference is never cloned, and only the final result is materialized.
//!
//! **Typed.** Arithmetic (`add` / `sub` / `mul` / `div` / `mod` / `negate`),
//! the six comparisons, `NOT` and the special forms `AND` / `OR` / `IS NULL`
//! / `BETWEEN` / `IN` / `IF` / `COALESCE` run as one loop each over
//! `(values, nulls)` (the private `kernels` module): numbers are widened
//! by the classes of the arguments as `Block::widen` does, VARCHAR compares
//! on bytes, DATE / TIMESTAMP as their integers; NULL masks are OR-ed (`AND`
//! / `OR` are Kleene over value and NULL bitmaps) and an error — a zero
//! integer divisor is the only one — is raised for a lane that is not NULL
//! and for no other. `BETWEEN` and `IN` over literals of the column's own
//! class are one [`presto_common::TypedDomain`] test, otherwise two
//! comparisons and an `AND` / one `=` per item and an `OR`. `IF` and
//! `COALESCE` stay lazy: an arm is evaluated over just the rows that take it
//! (a *selection* into the page, so an arm gathers only the columns it
//! names, and an untaken arm cannot fail the query) and the arms are blended
//! with one typed gather. Integers wrap in the width of their type —
//! BIGINT at 64 bits, INTEGER at 32 — in the kernels and in `eval_scalar`
//! alike, so a value always fits the type its handle declares.
//!
//! **Boxed.** Everything else — custom (plugin) functions, the string,
//! math and collection built-ins, `CAST`, comparisons of nested values — goes
//! through `call_block`, which boxes one row of arguments at a time into
//! [`Value`]s for the same scalar implementations
//! [`Evaluator::evaluate_scalar`] uses; lambdas are evaluated row by row.
//! That row-at-a-time evaluator is the oracle the typed path is
//! property-tested against (`tests/prop_roundtrip.rs`).
//!
//! The evaluator is also **dictionary-aware**: a function of one
//! dictionary-encoded column and constants is evaluated once per distinct
//! dictionary entry and re-mapped through the ids, the same trick that makes
//! dictionary pushdown (§V.G) pay off inside the engine.

use std::borrow::Cow;

use presto_common::{Block, DataType, Page, PrestoError, Result, Value};

use crate::expression::{FunctionHandle, RowExpression, SpecialForm};
use crate::kernels::{self, Arg, Kleene};
use crate::registry::{Builtin, FunctionRegistry};

/// Evaluates [`RowExpression`]s against pages.
#[derive(Clone)]
pub struct Evaluator {
    registry: FunctionRegistry,
}

/// What a sub-expression evaluates to over the selected rows of a page.
enum Operand<'a> {
    /// One value per row.
    Column(Cow<'a, Block>),
    /// The same value on every row.
    Scalar(Cow<'a, Value>),
}

impl<'a> Operand<'a> {
    fn column(block: Block) -> Operand<'a> {
        Operand::Column(Cow::Owned(block))
    }

    fn scalar(value: Value) -> Operand<'a> {
        Operand::Scalar(Cow::Owned(value))
    }

    fn is_null_scalar(&self) -> bool {
        matches!(self, Operand::Scalar(value) if value.is_null())
    }
}

/// Row `i` of the evaluated rows as a row of the page.
fn page_row(selection: Option<&[usize]>, i: usize) -> usize {
    selection.map_or(i, |rows| rows[i])
}

/// The page rows at `positions` of the evaluated rows (`None`: all of them).
fn narrow<'s>(
    selection: Option<&'s [usize]>,
    positions: Option<&'s [usize]>,
) -> Option<Cow<'s, [usize]>> {
    match (selection, positions) {
        (rows, None) => rows.map(Cow::Borrowed),
        (None, Some(positions)) => Some(Cow::Borrowed(positions)),
        (Some(rows), Some(positions)) => Some(positions.iter().map(|&p| rows[p]).collect()),
    }
}

impl Evaluator {
    /// Evaluator over the given function registry.
    pub fn new(registry: FunctionRegistry) -> Evaluator {
        Evaluator { registry }
    }

    /// The registry in use.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// Evaluate `expr` against every row of `page`, producing one block.
    pub fn evaluate(&self, expr: &RowExpression, page: &Page) -> Result<Block> {
        match self.eval(expr, page, None)? {
            Operand::Column(block) => Ok(block.into_owned()),
            Operand::Scalar(value) => Block::repeat(&expr.data_type(), &value, page.positions()),
        }
    }

    /// `expr` over the rows of `page` that `selection` names, in that order
    /// (`None`: every row).
    fn eval<'a>(
        &self,
        expr: &'a RowExpression,
        page: &'a Page,
        selection: Option<&[usize]>,
    ) -> Result<Operand<'a>> {
        let rows = selection.map_or(page.positions(), <[usize]>::len);
        match expr {
            RowExpression::Constant { value, .. } => Ok(Operand::Scalar(Cow::Borrowed(value))),
            RowExpression::VariableReference { index, .. } => {
                let block = page.blocks().get(*index).ok_or_else(|| {
                    PrestoError::Internal(format!(
                        "variable reference to channel {index} of a {}-column page",
                        page.column_count()
                    ))
                })?;
                Ok(Operand::Column(match selection {
                    None => Cow::Borrowed(block),
                    Some(rows) => Cow::Owned(block.take(rows)),
                }))
            }
            // no row, no work — and nothing that could fail
            _ if rows == 0 => Ok(Operand::column(Block::nulls(&expr.data_type(), 0))),
            RowExpression::Call { handle, args } => {
                self.eval_call(handle, args, page, selection, rows)
            }
            RowExpression::SpecialForm { form, args, return_type } => {
                self.eval_form(form, args, return_type, page, selection, rows)
            }
            RowExpression::LambdaDefinition { .. } => Err(PrestoError::Internal(
                "lambda definitions only appear as arguments of higher-order functions".into(),
            )),
        }
    }

    /// Row-at-a-time evaluation (slow path / test oracle). `row` carries the
    /// input values indexed by variable-reference channel.
    pub fn evaluate_scalar(&self, expr: &RowExpression, row: &[Value]) -> Result<Value> {
        match expr {
            RowExpression::Constant { value, .. } => Ok(value.clone()),
            RowExpression::VariableReference { index, .. } => {
                row.get(*index).cloned().ok_or_else(|| {
                    PrestoError::Internal(format!("variable reference {index} out of range"))
                })
            }
            RowExpression::Call { handle, args } => {
                if let Some(lambda_pos) =
                    args.iter().position(|a| matches!(a, RowExpression::LambdaDefinition { .. }))
                {
                    return self.evaluate_higher_order_scalar(
                        handle.name.as_str(),
                        args,
                        lambda_pos,
                        row,
                    );
                }
                let arg_values = args
                    .iter()
                    .map(|a| self.evaluate_scalar(a, row))
                    .collect::<Result<Vec<_>>>()?;
                self.call_scalar(&handle.name, &arg_values, &handle.return_type)
            }
            RowExpression::SpecialForm { form, args, .. } => {
                self.evaluate_form_scalar(form, args, row)
            }
            RowExpression::LambdaDefinition { .. } => Err(PrestoError::Internal(
                "lambda definitions only appear as arguments of higher-order functions".into(),
            )),
        }
    }

    fn call_scalar(&self, name: &str, args: &[Value], return_type: &DataType) -> Result<Value> {
        if let Some(b) = self.registry.builtin(name) {
            return b.eval_scalar(args, return_type);
        }
        if let Some(c) = self.registry.custom(name) {
            return (c.eval)(args);
        }
        Err(PrestoError::Execution(format!("unknown function '{name}'")))
    }

    // --------------------------------------------------------------- calls

    fn eval_call<'a>(
        &self,
        handle: &'a FunctionHandle,
        args: &'a [RowExpression],
        page: &'a Page,
        selection: Option<&[usize]>,
        rows: usize,
    ) -> Result<Operand<'a>> {
        // Higher-order functions take the lambda path.
        if args.iter().any(|a| matches!(a, RowExpression::LambdaDefinition { .. })) {
            return self.evaluate_higher_order(handle, args, page, selection, rows);
        }
        let operands =
            args.iter().map(|a| self.eval(a, page, selection)).collect::<Result<Vec<_>>>()?;
        let builtin = self.registry.builtin(&handle.name);
        let return_type = &handle.return_type;
        // Constants in, a constant out — once, not once per row.
        if let Some(values) = scalars(&operands) {
            return self.call_scalar(&handle.name, &values, return_type).map(Operand::scalar);
        }
        // Every built-in is NULL on a NULL argument.
        if builtin.is_some() && operands.iter().any(Operand::is_null_scalar) {
            return Ok(Operand::scalar(Value::Null));
        }
        let custom = match builtin {
            Some(_) => None,
            None => Some(self.registry.custom(&handle.name).ok_or_else(|| {
                PrestoError::Execution(format!("unknown function '{}'", handle.name))
            })?),
        };
        let boxed = |values: &[Value]| match (builtin, &custom) {
            (Some(b), _) => b.eval_scalar(values, return_type),
            (None, Some(c)) => (c.eval)(values),
            (None, None) => Err(PrestoError::Execution("unknown function".into())),
        };
        // A string or math function of one dictionary column keeps the
        // encoding: a dictionary of the function's values under the same ids.
        let keeps_encoding = !matches!(builtin, Some(Builtin::Negate | Builtin::Not));
        if let ([Operand::Column(column)], true) = (operands.as_slice(), keeps_encoding) {
            if let Block::Dictionary { dictionary, ids } = &**column {
                let entries = [Arg::Column(dictionary)];
                if let Ok(inner) = call_block(&entries, dictionary.len(), return_type, boxed) {
                    return Ok(Operand::column(Block::Dictionary {
                        dictionary: Box::new(inner),
                        ids: ids.clone(),
                    }));
                }
            }
        }
        over_flat_args(&operands, rows, |args, rows| {
            let typed = builtin.map(|b| typed_call(b, args, rows, return_type)).transpose()?;
            match typed.flatten() {
                Some(block) => Ok(block),
                None => call_block(args, rows, return_type, boxed),
            }
        })
        .map(Operand::column)
    }

    // ------------------------------------------------------- special forms

    fn eval_form<'a>(
        &self,
        form: &'a SpecialForm,
        args: &'a [RowExpression],
        return_type: &'a DataType,
        page: &'a Page,
        selection: Option<&[usize]>,
        rows: usize,
    ) -> Result<Operand<'a>> {
        check_arity(form, args)?;
        match form {
            SpecialForm::And | SpecialForm::Or => {
                let is_and = matches!(form, SpecialForm::And);
                // constants fold into one lane; columns into two bitmaps
                let mut constant = Some(is_and);
                let mut columns: Option<Kleene> = None;
                for arg in args {
                    match self.eval(arg, page, selection)? {
                        Operand::Scalar(value) => {
                            constant = kleene(is_and, constant, value.as_bool());
                        }
                        Operand::Column(block) => {
                            let flat = flatten(&block);
                            columns.get_or_insert_with(|| Kleene::new(is_and, rows)).column(&flat);
                        }
                    }
                }
                Ok(match columns {
                    None => Operand::scalar(constant.map_or(Value::Null, Value::Boolean)),
                    Some(mut columns) => {
                        columns.scalar(constant);
                        Operand::column(columns.finish())
                    }
                })
            }
            SpecialForm::IsNull => Ok(match self.eval(&args[0], page, selection)? {
                Operand::Scalar(value) => Operand::scalar(Value::Boolean(value.is_null())),
                Operand::Column(block) => Operand::column(kernels::is_null(&block)),
            }),
            SpecialForm::If => {
                // Lazy branches: each arm is evaluated only over the rows
                // that take it, so errors in the untaken arm (e.g. division
                // by zero) cannot fail the query — matching the scalar path.
                let condition = match self.eval(&args[0], page, selection)? {
                    Operand::Scalar(value) => {
                        let arm = if value.as_bool() == Some(true) { &args[1] } else { &args[2] };
                        return self.eval(arm, page, selection);
                    }
                    Operand::Column(block) => block,
                };
                let (then_rows, else_rows) = kernels::partition(&flatten(&condition));
                if else_rows.is_empty() {
                    return self.eval(&args[1], page, selection);
                }
                if then_rows.is_empty() {
                    return self.eval(&args[2], page, selection);
                }
                let mut parts = Vec::with_capacity(2);
                for (arm, positions) in [(&args[1], then_rows), (&args[2], else_rows)] {
                    let taken = narrow(selection, Some(&positions));
                    parts.push((self.eval(arm, page, taken.as_deref())?, Some(positions)));
                }
                blend(return_type, rows, parts).map(Operand::column)
            }
            SpecialForm::Coalesce => {
                // Lazy like IF: an argument is evaluated over the rows every
                // earlier one left NULL. `remaining` lists them; `None` is all.
                let mut remaining: Option<Vec<usize>> = None;
                let mut parts = Vec::new();
                for arg in args {
                    let taken = narrow(selection, remaining.as_deref());
                    let operand = self.eval(arg, page, taken.as_deref())?;
                    let still_null = match &operand {
                        Operand::Scalar(value) if value.is_null() => continue,
                        Operand::Scalar(_) => Vec::new(),
                        Operand::Column(block) => kernels::null_rows(block),
                    };
                    let left = still_null.iter().map(|&i| page_row(remaining.as_deref(), i));
                    let left: Vec<usize> = left.collect();
                    parts.push((operand, remaining.replace(left)));
                    if still_null.is_empty() {
                        break;
                    }
                }
                match parts.len() {
                    0 => Ok(Operand::scalar(Value::Null)),
                    // one part: where it is NULL, so is the result
                    1 => Ok(parts.remove(0).0),
                    // a row NULL in every part keeps pointing at the last one's NULL
                    _ => blend(return_type, rows, parts).map(Operand::column),
                }
            }
            SpecialForm::In | SpecialForm::Between => {
                let operands = args
                    .iter()
                    .map(|a| self.eval(a, page, selection))
                    .collect::<Result<Vec<_>>>()?;
                let scalar = |values: &[Value]| match form {
                    SpecialForm::In => in_values(&values[0], &values[1..]),
                    _ => between_values(&values[0], &values[1], &values[2]),
                };
                if operands[0].is_null_scalar() {
                    return Ok(Operand::scalar(Value::Null));
                }
                if let Some(values) = scalars(&operands) {
                    return Ok(Operand::scalar(scalar(&values)));
                }
                over_flat_args(&operands, rows, |args, rows| {
                    let typed = match form {
                        SpecialForm::In => kernels::in_list(args[0], &args[1..], rows),
                        _ => kernels::between(args[0], args[1], args[2], rows),
                    };
                    match typed {
                        Some(block) => Ok(block),
                        // nested values compare boxed
                        None => call_block(args, rows, return_type, |v| Ok(scalar(v))),
                    }
                })
                .map(Operand::column)
            }
            SpecialForm::Dereference { field_index } => {
                let base = match self.eval(&args[0], page, selection)? {
                    Operand::Scalar(value) => {
                        return dereference_value(&value, *field_index).map(Operand::scalar)
                    }
                    Operand::Column(block) => block,
                };
                dereference(base, *field_index).map(Operand::Column)
            }
        }
    }

    fn evaluate_form_scalar(
        &self,
        form: &SpecialForm,
        args: &[RowExpression],
        row: &[Value],
    ) -> Result<Value> {
        check_arity(form, args)?;
        match form {
            SpecialForm::And | SpecialForm::Or => {
                let is_and = matches!(form, SpecialForm::And);
                let mut state = Some(is_and);
                for arg in args {
                    let v = self.evaluate_scalar(arg, row)?;
                    state = kleene(is_and, state, v.as_bool());
                }
                Ok(state.map(Value::Boolean).unwrap_or(Value::Null))
            }
            SpecialForm::IsNull => {
                Ok(Value::Boolean(self.evaluate_scalar(&args[0], row)?.is_null()))
            }
            SpecialForm::If => {
                let cond = self.evaluate_scalar(&args[0], row)?;
                if cond.as_bool() == Some(true) {
                    self.evaluate_scalar(&args[1], row)
                } else {
                    self.evaluate_scalar(&args[2], row)
                }
            }
            SpecialForm::Coalesce => {
                for arg in args {
                    let v = self.evaluate_scalar(arg, row)?;
                    if !v.is_null() {
                        return Ok(v);
                    }
                }
                Ok(Value::Null)
            }
            // every operand is evaluated, as the vectorized path does: only
            // IF and COALESCE shield an argument from the rows it would fail on
            SpecialForm::In | SpecialForm::Between => {
                let values = args
                    .iter()
                    .map(|a| self.evaluate_scalar(a, row))
                    .collect::<Result<Vec<_>>>()?;
                Ok(match form {
                    SpecialForm::In => in_values(&values[0], &values[1..]),
                    _ => between_values(&values[0], &values[1], &values[2]),
                })
            }
            SpecialForm::Dereference { field_index } => {
                dereference_value(&self.evaluate_scalar(&args[0], row)?, *field_index)
            }
        }
    }

    // -------------------------------------------------------- higher order

    fn evaluate_higher_order<'a>(
        &self,
        handle: &FunctionHandle,
        args: &[RowExpression],
        page: &Page,
        selection: Option<&[usize]>,
        rows: usize,
    ) -> Result<Operand<'a>> {
        let mut out = Vec::with_capacity(rows);
        for i in 0..rows {
            let row = page.row(page_row(selection, i));
            out.push(self.evaluate_higher_order_scalar(&handle.name, args, 1, &row)?);
        }
        Block::from_values(&handle.return_type, &out).map(Operand::column)
    }

    fn evaluate_higher_order_scalar(
        &self,
        name: &str,
        args: &[RowExpression],
        lambda_pos: usize,
        row: &[Value],
    ) -> Result<Value> {
        let (params_len, body) = match &args[lambda_pos] {
            RowExpression::LambdaDefinition { parameters, body } => (parameters.len(), body),
            _ => return Err(PrestoError::Internal("expected lambda argument".into())),
        };
        let input = self.evaluate_scalar(&args[0], row)?;
        let items = match input {
            Value::Null => return Ok(Value::Null),
            Value::Array(items) => items,
            other => {
                return Err(PrestoError::Execution(format!(
                    "higher-order function {name} over non-array {other}"
                )))
            }
        };
        match name {
            "transform" => {
                let mut mapped = Vec::with_capacity(items.len());
                for item in items {
                    // Lambda parameter references are channels 0..params_len.
                    let lambda_row = lambda_args(item, params_len);
                    mapped.push(self.evaluate_scalar(body, &lambda_row)?);
                }
                Ok(Value::Array(mapped))
            }
            "filter" => {
                let mut kept = Vec::new();
                for item in items {
                    let lambda_row = lambda_args(item.clone(), params_len);
                    if self.evaluate_scalar(body, &lambda_row)?.as_bool() == Some(true) {
                        kept.push(item);
                    }
                }
                Ok(Value::Array(kept))
            }
            other => {
                Err(PrestoError::Execution(format!("unknown higher-order function '{other}'")))
            }
        }
    }
}

fn lambda_args(item: Value, params_len: usize) -> Vec<Value> {
    let mut row = vec![item];
    row.resize(params_len.max(1), Value::Null);
    row
}

/// A form built with the wrong number of arguments (a hand-written or
/// deserialized expression) is an error, not an index out of bounds.
fn check_arity(form: &SpecialForm, args: &[RowExpression]) -> Result<()> {
    let fits = match form {
        SpecialForm::If | SpecialForm::Between => args.len() == 3,
        SpecialForm::IsNull | SpecialForm::Dereference { .. } => args.len() == 1,
        SpecialForm::In => !args.is_empty(),
        SpecialForm::And | SpecialForm::Or | SpecialForm::Coalesce => true,
    };
    if fits {
        Ok(())
    } else {
        Err(PrestoError::Internal(format!("{form:?} of {} arguments", args.len())))
    }
}

/// A dictionary column decoded, any other as it is.
fn flatten(block: &Block) -> Cow<'_, Block> {
    match block {
        Block::Dictionary { .. } => Cow::Owned(block.decode_dictionary()),
        flat => Cow::Borrowed(flat),
    }
}

/// Field `index` of every row of the ROW column `base`; a NULL struct
/// makes the field NULL. A plain struct's child is moved out of an owned
/// base and borrowed from a borrowed one (copied only to lay the struct's
/// NULLs over it). Over a dictionary the field is a dictionary too: the
/// entries' field, read through the same ids.
fn dereference(base: Cow<'_, Block>, index: usize) -> Result<Cow<'_, Block>> {
    let missing = || PrestoError::Internal(format!("dereference of field {index} out of range"));
    let (entries, ids) = match base {
        Cow::Borrowed(Block::Row { children, nulls, .. }) => {
            let child = children.get(index).ok_or_else(missing)?;
            return Ok(match nulls {
                None => Cow::Borrowed(child),
                Some(nulls) => Cow::Owned(child.clone().null_where(nulls)),
            });
        }
        Cow::Owned(Block::Row { mut children, nulls, .. }) => {
            if index >= children.len() {
                return Err(missing());
            }
            let child = children.swap_remove(index);
            return Ok(Cow::Owned(match nulls {
                None => child,
                Some(nulls) => child.null_where(&nulls),
            }));
        }
        Cow::Borrowed(Block::Dictionary { dictionary, ids }) => {
            (dereference(Cow::Borrowed(dictionary), index)?, Cow::Borrowed(ids))
        }
        Cow::Owned(Block::Dictionary { dictionary, ids }) => {
            (dereference(Cow::Owned(*dictionary), index)?, Cow::Owned(ids))
        }
        other => {
            return Err(PrestoError::Execution(format!(
                "DEREFERENCE of non-row block {}",
                other.data_type()
            )))
        }
    };
    // a field that is a dictionary itself composes its ids: one level
    Ok(Cow::Owned(match entries.into_owned() {
        Block::Dictionary { dictionary, ids: inner } => {
            let ids = ids.iter().map(|&id| inner[id as usize]).collect();
            Block::Dictionary { dictionary, ids }
        }
        entries => Block::Dictionary { dictionary: Box::new(entries), ids: ids.into_owned() },
    }))
}

/// The operands' values when every one of them is a scalar.
fn scalars(operands: &[Operand<'_>]) -> Option<Vec<Value>> {
    operands
        .iter()
        .map(|o| match o {
            Operand::Scalar(value) => Some(value.as_ref().clone()),
            Operand::Column(_) => None,
        })
        .collect()
}

/// Run `kernel` over the operands as flat arguments and a row count. When
/// the only column among them is dictionary-encoded, the kernel runs once
/// per dictionary entry and its result is gathered through the ids; should
/// an entry no row refers to fail it, the rows decide.
fn over_flat_args(
    operands: &[Operand<'_>],
    rows: usize,
    kernel: impl Fn(&[Arg<'_>], usize) -> Result<Block>,
) -> Result<Block> {
    let mut columns = operands.iter().filter_map(|o| match o {
        Operand::Column(block) => Some(&**block),
        Operand::Scalar(_) => None,
    });
    if let (Some(Block::Dictionary { dictionary, ids }), None) = (columns.next(), columns.next()) {
        let args: Vec<Arg<'_>> = operands
            .iter()
            .map(|o| match o {
                Operand::Scalar(value) => Arg::Scalar(value),
                Operand::Column(_) => Arg::Column(dictionary),
            })
            .collect();
        let nested = matches!(**dictionary, Block::Dictionary { .. });
        if let (false, Ok(entries)) = (nested, kernel(&args, dictionary.len())) {
            let rows: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
            return Ok(entries.take(&rows));
        }
    }
    let flat: Vec<Option<Cow<'_, Block>>> = operands
        .iter()
        .map(|o| match o {
            Operand::Column(block) => Some(flatten(block)),
            Operand::Scalar(_) => None,
        })
        .collect();
    let args: Vec<Arg<'_>> = operands
        .iter()
        .zip(&flat)
        .map(|(o, flat)| match o {
            Operand::Scalar(value) => Arg::Scalar(value),
            Operand::Column(block) => Arg::Column(flat.as_deref().unwrap_or(block)),
        })
        .collect();
    kernel(&args, rows)
}

/// The typed form of a built-in call, when it has one for these arguments.
fn typed_call(
    builtin: Builtin,
    args: &[Arg<'_>],
    rows: usize,
    return_type: &DataType,
) -> Result<Option<Block>> {
    use Builtin::*;
    Ok(match (builtin, args) {
        (Add | Sub | Mul | Div | Mod, &[a, b]) => {
            kernels::arithmetic(builtin, a, b, rows, return_type)?
        }
        (Eq | Neq | Lt | Lte | Gt | Gte, &[a, b]) => kernels::compare(builtin, a, b, rows),
        (Negate, [Arg::Column(a)]) => kernels::negate(a),
        (Not, [Arg::Column(a)]) => kernels::not(a),
        _ => None,
    })
}

/// Row-wise application of a scalar function: one row of arguments boxed
/// at a time. What custom (plugin) functions and the built-ins without a
/// typed form run through.
fn call_block(
    args: &[Arg<'_>],
    rows: usize,
    return_type: &DataType,
    function: impl Fn(&[Value]) -> Result<Value>,
) -> Result<Block> {
    let mut out = Vec::with_capacity(rows);
    // scalars are boxed once, columns once per row
    let mut arg_values: Vec<Value> = args
        .iter()
        .map(|arg| match arg {
            Arg::Scalar(value) => (*value).clone(),
            Arg::Column(_) => Value::Null,
        })
        .collect();
    for i in 0..rows {
        for (slot, arg) in arg_values.iter_mut().zip(args) {
            if let Arg::Column(block) = arg {
                *slot = block.value(i);
            }
        }
        out.push(function(&arg_values)?);
    }
    Block::from_values(return_type, &out)
}

/// Assemble `rows` result rows from `parts`: row `k` of a part's column is
/// the result at the part's `k`-th position (`None`: every row, in order); a
/// scalar part is the result at all of its positions. A later part
/// overwrites an earlier one. One typed gather from the parts — no `Value`
/// per row, and no concatenated copy.
fn blend(
    return_type: &DataType,
    rows: usize,
    parts: Vec<(Operand<'_>, Option<Vec<usize>>)>,
) -> Result<Block> {
    // each result row's `(part, row)`
    let mut index = vec![(0, 0); rows];
    let mut sources: Vec<Cow<'_, Block>> = Vec::with_capacity(parts.len());
    for (part, (operand, positions)) in parts.into_iter().enumerate() {
        let (source, stride) = match operand {
            Operand::Scalar(value) => (Cow::Owned(Block::repeat(return_type, &value, 1)?), 0),
            // an arm narrower than the declared type (a BIGINT under DOUBLE)
            Operand::Column(block) => (block.widen(return_type).map_or(block, Cow::Owned), 1),
        };
        match &positions {
            Some(positions) => {
                positions.iter().enumerate().for_each(|(k, &p)| index[p] = (part, k * stride))
            }
            None => index.iter_mut().enumerate().for_each(|(k, slot)| *slot = (part, k * stride)),
        }
        sources.push(source);
    }
    let sources: Vec<&Block> = sources.iter().map(|s| &**s).collect();
    Block::gather_rows(&sources, index.into_iter())
}

/// `v IN (items)`: TRUE when an item equals `v`, else NULL when `v` or an
/// item is NULL, else FALSE. An item `v` never compares with equals nothing.
fn in_values(v: &Value, items: &[Value]) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    if items.iter().any(|item| item.sql_cmp(v) == Some(std::cmp::Ordering::Equal)) {
        return Value::Boolean(true);
    }
    if items.iter().any(Value::is_null) {
        Value::Null
    } else {
        Value::Boolean(false)
    }
}

/// `v BETWEEN lo AND hi`, which is `v >= lo AND v <= hi` in three-valued
/// logic with the comparisons' own semantics (a NaN is ordered with nothing:
/// FALSE) — except that a bound of a class `v` never compares with makes its
/// half NULL instead of an error.
fn between_values(v: &Value, lo: &Value, hi: &Value) -> Value {
    use std::cmp::Ordering;
    let half = |bound: &Value, out_of_range: Ordering| match v.sql_cmp(bound) {
        Some(ordering) => Some(ordering != out_of_range),
        None if v.as_f64().is_some() && bound.as_f64().is_some() => Some(false),
        None => None,
    };
    kleene(true, half(lo, Ordering::Less), half(hi, Ordering::Greater))
        .map_or(Value::Null, Value::Boolean)
}

fn dereference_value(base: &Value, field_index: usize) -> Result<Value> {
    match base {
        Value::Null => Ok(Value::Null),
        Value::Row(fields) => fields
            .get(field_index)
            .cloned()
            .ok_or_else(|| PrestoError::Internal("dereference field out of range".into())),
        other => Err(PrestoError::Execution(format!("DEREFERENCE of non-row value {other}"))),
    }
}

/// Kleene-logic combine step for AND (`is_and`) / OR chains; `None` is NULL.
fn kleene(is_and: bool, acc: Option<bool>, next: Option<bool>) -> Option<bool> {
    if is_and {
        match (acc, next) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        }
    } else {
        match (acc, next) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::FunctionHandle;
    use presto_common::Field;

    fn evaluator() -> Evaluator {
        Evaluator::new(FunctionRegistry::new())
    }

    fn eq_call(lhs: RowExpression, rhs: RowExpression) -> RowExpression {
        RowExpression::Call {
            handle: FunctionHandle::new(
                "eq",
                vec![lhs.data_type(), rhs.data_type()],
                DataType::Boolean,
            ),
            args: vec![lhs, rhs],
        }
    }

    #[test]
    fn constants_expand_to_page_length() {
        let page = Page::new(vec![Block::bigint(vec![1, 2, 3])]).unwrap();
        let b = evaluator().evaluate(&RowExpression::bigint(9), &page).unwrap();
        assert_eq!(b.to_values(), vec![9i64.into(), 9i64.into(), 9i64.into()]);
    }

    #[test]
    fn typed_comparison_matches_scalar_oracle() {
        let ev = evaluator();
        let page = Page::new(vec![Block::bigint(vec![10, 12, 12, 5])]).unwrap();
        let expr = eq_call(
            RowExpression::column("city_id", 0, DataType::Bigint),
            RowExpression::bigint(12),
        );
        let block = ev.evaluate(&expr, &page).unwrap();
        assert_eq!(block.to_values(), vec![false.into(), true.into(), true.into(), false.into()]);
        // oracle agreement
        for (i, expect) in [false, true, true, false].iter().enumerate() {
            let row = page.row(i);
            assert_eq!(ev.evaluate_scalar(&expr, &row).unwrap(), Value::Boolean(*expect));
        }
    }

    #[test]
    fn kleene_and_or_semantics() {
        let ev = evaluator();
        let page = Page::new(vec![Block::from_values(
            &DataType::Boolean,
            &[true.into(), false.into(), Value::Null],
        )
        .unwrap()])
        .unwrap();
        let col = RowExpression::column("b", 0, DataType::Boolean);
        let and_null = RowExpression::SpecialForm {
            form: SpecialForm::And,
            args: vec![col.clone(), RowExpression::null(DataType::Boolean)],
            return_type: DataType::Boolean,
        };
        let b = ev.evaluate(&and_null, &page).unwrap();
        // true AND NULL = NULL; false AND NULL = false; NULL AND NULL = NULL
        assert_eq!(b.to_values(), vec![Value::Null, false.into(), Value::Null]);

        let or_true = RowExpression::SpecialForm {
            form: SpecialForm::Or,
            args: vec![col, RowExpression::boolean(true)],
            return_type: DataType::Boolean,
        };
        let b = ev.evaluate(&or_true, &page).unwrap();
        assert_eq!(b.to_values(), vec![true.into(), true.into(), true.into()]);
    }

    #[test]
    fn in_list_null_semantics() {
        let ev = evaluator();
        let page = Page::new(vec![Block::from_values(
            &DataType::Bigint,
            &[1i64.into(), 5i64.into(), Value::Null],
        )
        .unwrap()])
        .unwrap();
        let col = RowExpression::column("x", 0, DataType::Bigint);
        let in_expr = RowExpression::SpecialForm {
            form: SpecialForm::In,
            args: vec![col, RowExpression::bigint(1), RowExpression::null(DataType::Bigint)],
            return_type: DataType::Boolean,
        };
        let b = ev.evaluate(&in_expr, &page).unwrap();
        // 1 IN (1, NULL) = true; 5 IN (1, NULL) = NULL; NULL IN (...) = NULL
        assert_eq!(b.to_values(), vec![true.into(), Value::Null, Value::Null]);
    }

    #[test]
    fn dereference_reads_nested_fields() {
        let ev = evaluator();
        let base_type = DataType::row(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new("city_id", DataType::Bigint),
        ]);
        let block = Block::from_values(
            &base_type,
            &[
                Value::Row(vec!["d1".into(), 12i64.into()]),
                Value::Null,
                Value::Row(vec!["d2".into(), 7i64.into()]),
            ],
        )
        .unwrap();
        let page = Page::new(vec![block]).unwrap();
        let deref = RowExpression::SpecialForm {
            form: SpecialForm::Dereference { field_index: 1 },
            args: vec![RowExpression::column("base", 0, base_type)],
            return_type: DataType::Bigint,
        };
        let b = ev.evaluate(&deref, &page).unwrap();
        assert_eq!(b.to_values(), vec![12i64.into(), Value::Null, 7i64.into()]);
    }

    /// DEREFERENCE over a dictionary of ROW entries — a NULL struct, an
    /// entry whose field is a dictionary itself, a nested ROW read twice —
    /// equals DEREFERENCE over the decoded block, and stays a dictionary.
    #[test]
    fn dereference_of_a_dictionary_reads_its_entries_field() {
        let ev = evaluator();
        let loc_type = DataType::row(vec![Field::new("lat", DataType::Double)]);
        let base_type = DataType::row(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new("city_id", DataType::Bigint),
            Field::new("loc", loc_type.clone()),
        ]);
        let row = |uuid: &str, city: Value, lat: Value| {
            Value::Row(vec![uuid.into(), city, Value::Row(vec![lat])])
        };
        let entries = Block::from_values(
            &base_type,
            &[
                row("d1", 12i64.into(), 1.5.into()),
                Value::Null,
                row("d2", Value::Null, Value::Null),
                row("d3", 7i64.into(), 2.5.into()),
            ],
        )
        .unwrap();
        // the uuids as a dictionary inside the struct
        let Block::Row { fields, mut children, len, nulls } = entries else { panic!("row") };
        let uuids =
            Block::Dictionary { dictionary: Box::new(children[0].clone()), ids: vec![3, 2, 1, 0] };
        children[0] = uuids;
        let entries = Block::Row { fields, children, len, nulls };
        let column =
            Block::Dictionary { dictionary: Box::new(entries), ids: vec![0, 1, 2, 0, 1, 3] };
        let deref = |base: RowExpression, field_index: usize, return_type: DataType| {
            RowExpression::SpecialForm {
                form: SpecialForm::Dereference { field_index },
                args: vec![base],
                return_type,
            }
        };
        let base = RowExpression::column("base", 0, base_type);
        let lat = deref(deref(base.clone(), 2, loc_type), 0, DataType::Double);
        let fields =
            [deref(base.clone(), 0, DataType::Varchar), deref(base, 1, DataType::Bigint), lat];
        let encoded = Page::new(vec![column.clone()]).unwrap();
        let decoded = Page::new(vec![column.decode_dictionary()]).unwrap();
        for expr in &fields {
            let via_ids = ev.evaluate(expr, &encoded).unwrap();
            assert!(matches!(via_ids, Block::Dictionary { .. }), "{via_ids:?}");
            let Block::Dictionary { dictionary, .. } = &via_ids else { unreachable!() };
            assert!(!matches!(**dictionary, Block::Dictionary { .. }), "nested");
            assert_eq!(via_ids.to_values(), ev.evaluate(expr, &decoded).unwrap().to_values());
        }
        let lats = ev.evaluate(&fields[2], &encoded).unwrap().to_values();
        assert_eq!(
            lats,
            [1.5.into(), Value::Null, Value::Null, 1.5.into(), Value::Null, 2.5.into()]
        );
    }

    #[test]
    fn dictionary_aware_evaluation_matches_decoded() {
        let ev = evaluator();
        let dict = Block::varchar(&["sf", "nyc"]);
        let col = Block::Dictionary { dictionary: Box::new(dict), ids: vec![0, 1, 0, 0] };
        let page_dict = Page::new(vec![col.clone()]).unwrap();
        let page_flat = Page::new(vec![col.decode_dictionary()]).unwrap();
        let expr = RowExpression::Call {
            handle: FunctionHandle::new("upper", vec![DataType::Varchar], DataType::Varchar),
            args: vec![RowExpression::column("c", 0, DataType::Varchar)],
        };
        let via_dict = ev.evaluate(&expr, &page_dict).unwrap();
        let via_flat = ev.evaluate(&expr, &page_flat).unwrap();
        assert_eq!(via_dict.to_values(), via_flat.to_values());
        // and the dictionary path preserved the encoding
        assert!(matches!(via_dict, Block::Dictionary { .. }));

        let cmp =
            eq_call(RowExpression::column("c", 0, DataType::Varchar), RowExpression::varchar("sf"));
        let via_dict = ev.evaluate(&cmp, &page_dict).unwrap();
        assert_eq!(via_dict.to_values(), vec![true.into(), false.into(), true.into(), true.into()]);
    }

    #[test]
    fn lambda_transform_and_filter() {
        let ev = evaluator();
        let arr_type = DataType::array(DataType::Bigint);
        let page = Page::new(vec![Block::from_values(
            &arr_type,
            &[Value::Array(vec![1i64.into(), 2i64.into(), 3i64.into()]), Value::Null],
        )
        .unwrap()])
        .unwrap();
        let lambda = RowExpression::LambdaDefinition {
            parameters: vec![("x".into(), DataType::Bigint)],
            body: Box::new(RowExpression::Call {
                handle: FunctionHandle::new(
                    "add",
                    vec![DataType::Bigint, DataType::Bigint],
                    DataType::Bigint,
                ),
                args: vec![
                    RowExpression::column("x", 0, DataType::Bigint),
                    RowExpression::bigint(10),
                ],
            }),
        };
        let transform = RowExpression::Call {
            handle: FunctionHandle::new(
                "transform",
                vec![arr_type.clone(), DataType::Bigint],
                arr_type.clone(),
            ),
            args: vec![RowExpression::column("a", 0, arr_type.clone()), lambda],
        };
        let b = ev.evaluate(&transform, &page).unwrap();
        assert_eq!(
            b.to_values(),
            vec![Value::Array(vec![11i64.into(), 12i64.into(), 13i64.into()]), Value::Null]
        );

        let filter_lambda = RowExpression::LambdaDefinition {
            parameters: vec![("x".into(), DataType::Bigint)],
            body: Box::new(RowExpression::Call {
                handle: FunctionHandle::new(
                    "gt",
                    vec![DataType::Bigint, DataType::Bigint],
                    DataType::Boolean,
                ),
                args: vec![
                    RowExpression::column("x", 0, DataType::Bigint),
                    RowExpression::bigint(1),
                ],
            }),
        };
        let filter = RowExpression::Call {
            handle: FunctionHandle::new(
                "filter",
                vec![arr_type.clone(), DataType::Boolean],
                arr_type.clone(),
            ),
            args: vec![RowExpression::column("a", 0, arr_type), filter_lambda],
        };
        let b = ev.evaluate(&filter, &page).unwrap();
        assert_eq!(b.to_values(), vec![Value::Array(vec![2i64.into(), 3i64.into()]), Value::Null]);
    }

    #[test]
    fn if_branches_are_lazy() {
        // division by zero in the untaken branch must not fail the query
        let ev = evaluator();
        let page = Page::new(vec![Block::bigint(vec![0, 2, 4])]).unwrap();
        let col = RowExpression::column("x", 0, DataType::Bigint);
        let is_zero = eq_call(col.clone(), RowExpression::bigint(0));
        let divide = RowExpression::Call {
            handle: FunctionHandle::new(
                "div",
                vec![DataType::Bigint, DataType::Bigint],
                DataType::Bigint,
            ),
            args: vec![RowExpression::bigint(100), col.clone()],
        };
        let safe_div = RowExpression::SpecialForm {
            form: SpecialForm::If,
            args: vec![is_zero, RowExpression::bigint(-1), divide],
            return_type: DataType::Bigint,
        };
        let out = ev.evaluate(&safe_div, &page).unwrap();
        assert_eq!(out.to_values(), vec![(-1i64).into(), 50i64.into(), 25i64.into()]);
    }

    #[test]
    fn errors_are_raised_only_for_lanes_that_are_not_null() {
        let ev = evaluator();
        let divide = |by: Block| {
            let page = Page::new(vec![Block::bigint(vec![6, i64::MIN]), by]).unwrap();
            let div = RowExpression::Call {
                handle: FunctionHandle::new(
                    "div",
                    vec![DataType::Bigint, DataType::Bigint],
                    DataType::Bigint,
                ),
                args: vec![
                    RowExpression::column("x", 0, DataType::Bigint),
                    RowExpression::column("y", 1, DataType::Bigint),
                ],
            };
            ev.evaluate(&div, &page)
        };
        // a zero under a NULL divides nothing
        let by = Block::Bigint { values: vec![3, 0], nulls: Some(vec![false, true]) };
        assert_eq!(divide(by).unwrap().to_values(), vec![2i64.into(), Value::Null]);
        let err = divide(Block::bigint(vec![3, 0])).unwrap_err();
        assert_eq!(err.to_string(), "EXECUTION_ERROR: division by zero");
        // i64::MIN / -1 wraps like every other integer overflow
        let wrapped = divide(Block::bigint(vec![-1, -1])).unwrap();
        assert_eq!(wrapped, Block::bigint(vec![-6, i64::MIN]));
    }

    #[test]
    fn between_is_two_comparisons_under_a_kleene_and() {
        let ev = evaluator();
        let page = Page::new(vec![Block::double(vec![1.0, 20.0, f64::NAN])]).unwrap();
        let between = |lo: RowExpression, hi: RowExpression| RowExpression::SpecialForm {
            form: SpecialForm::Between,
            args: vec![RowExpression::column("x", 0, DataType::Double), lo, hi],
            return_type: DataType::Boolean,
        };
        // 1 <= 10 AND NULL is NULL; 20 <= 10 is FALSE whatever the other half
        // is; a NaN is ordered with nothing
        for expr in [
            between(RowExpression::null(DataType::Double), RowExpression::bigint(10)),
            between(RowExpression::null(DataType::Varchar), RowExpression::double(10.0)),
        ] {
            let b = ev.evaluate(&expr, &page).unwrap();
            assert_eq!(b.to_values(), vec![Value::Null, false.into(), false.into()]);
            for (i, expected) in b.to_values().into_iter().enumerate() {
                assert_eq!(ev.evaluate_scalar(&expr, &page.row(i)).unwrap(), expected);
            }
        }
        let inside = between(RowExpression::bigint(0), RowExpression::double(10.0));
        let b = ev.evaluate(&inside, &page).unwrap();
        assert_eq!(b, Block::boolean(vec![true, false, false]));
    }

    #[test]
    fn if_coalesce_between() {
        let ev = evaluator();
        let page = Page::new(vec![Block::from_values(
            &DataType::Bigint,
            &[1i64.into(), 20i64.into(), Value::Null],
        )
        .unwrap()])
        .unwrap();
        let col = RowExpression::column("x", 0, DataType::Bigint);
        let between = RowExpression::SpecialForm {
            form: SpecialForm::Between,
            args: vec![col.clone(), RowExpression::bigint(0), RowExpression::bigint(10)],
            return_type: DataType::Boolean,
        };
        let b = ev.evaluate(&between, &page).unwrap();
        assert_eq!(b.to_values(), vec![true.into(), false.into(), Value::Null]);

        let coalesce = RowExpression::SpecialForm {
            form: SpecialForm::Coalesce,
            args: vec![col.clone(), RowExpression::bigint(-1)],
            return_type: DataType::Bigint,
        };
        let b = ev.evaluate(&coalesce, &page).unwrap();
        assert_eq!(b.to_values(), vec![1i64.into(), 20i64.into(), (-1i64).into()]);

        let iff = RowExpression::SpecialForm {
            form: SpecialForm::If,
            args: vec![between, RowExpression::varchar("in"), RowExpression::varchar("out")],
            return_type: DataType::Varchar,
        };
        let b = ev.evaluate(&iff, &page).unwrap();
        assert_eq!(b.to_values(), vec!["in".into(), "out".into(), "out".into()]);
    }
}
