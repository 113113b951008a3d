//! Semantic analysis: resolve names against catalogs, type-check
//! expressions, lower the AST to a [`LogicalPlan`].

use presto_common::{DataType, PrestoError, Result, Schema};
use presto_connectors::{CatalogRegistry, ColumnPath, ScanRequest};
use presto_expr::{AggregateFunction, FunctionRegistry, RowExpression, SpecialForm};
use presto_plan::logical::{AggregateExpr, AggregateStep, JoinKind, LogicalPlan, SortKey};
use presto_plan::split_equi_keys;

use crate::ast::{BinaryOp, Expr, JoinType, Query, QueryExpr, SelectItem, TableRef};

/// Session context for analysis.
#[derive(Clone)]
pub struct AnalyzerContext {
    /// Registered catalogs.
    pub catalogs: CatalogRegistry,
    /// Function registry (built-ins + plugins).
    pub registry: FunctionRegistry,
    /// Catalog used for unqualified table names.
    pub default_catalog: String,
    /// Schema used for unqualified table names.
    pub default_schema: String,
}

/// Analyze a query expression into a logical plan (rooted at an Output node,
/// or a Union of Output-rooted sides with its own Sort/Limit on top).
pub fn analyze(query: &QueryExpr, ctx: &AnalyzerContext) -> Result<LogicalPlan> {
    match query {
        QueryExpr::Select(q) => {
            let (plan, _) = analyze_query(q, ctx)?;
            Ok(plan)
        }
        QueryExpr::UnionAll { branches, order_by, limit } => {
            let mut inputs = Vec::with_capacity(branches.len());
            let mut names = Vec::new();
            for (i, branch) in branches.iter().enumerate() {
                let (plan, branch_names) = analyze_query(branch, ctx)?;
                if i == 0 {
                    names = branch_names;
                }
                inputs.push(plan);
            }
            let union = LogicalPlan::Union { inputs };
            union.output_schema()?; // type-check the sides

            // union-level ORDER BY: ordinals and first-branch output names
            let order = order_by
                .iter()
                .map(|(ast, desc)| {
                    let channel = output_channel(ast, &names)?.ok_or_else(|| {
                        PrestoError::Analysis(format!(
                            "cannot resolve ORDER BY expression '{}'",
                            ast.default_name()
                        ))
                    })?;
                    Ok((channel, *desc))
                })
                .collect::<Result<Vec<_>>>()?;
            sort_and_limit(union, &order, *limit)
        }
    }
}

// ------------------------------------------------------------------ scopes

#[derive(Debug, Clone)]
struct ScopeColumn {
    qualifier: Option<String>,
    name: String,
    data_type: DataType,
}

#[derive(Debug, Clone, Default)]
struct Scope {
    columns: Vec<ScopeColumn>,
}

impl Scope {
    /// Resolve an identifier chain to `(channel, remaining nested path)`.
    fn resolve(&self, parts: &[String]) -> Result<(usize, Vec<String>)> {
        // candidate interpretations, longest qualifier first
        let mut matches: Vec<(usize, Vec<String>)> = Vec::new();
        // qualifier.column[.fields...]
        if parts.len() >= 2 {
            for (i, c) in self.columns.iter().enumerate() {
                if c.qualifier.as_deref() == Some(parts[0].as_str()) && c.name == parts[1] {
                    matches.push((i, parts[2..].to_vec()));
                }
            }
        }
        // column[.fields...]
        if matches.is_empty() {
            for (i, c) in self.columns.iter().enumerate() {
                if c.name == parts[0] {
                    matches.push((i, parts[1..].to_vec()));
                }
            }
        }
        match matches.len() {
            0 => Err(PrestoError::Analysis(format!(
                "column '{}' cannot be resolved",
                parts.join(".")
            ))),
            1 => Ok(matches.remove(0)),
            _ => Err(PrestoError::Analysis(format!("column '{}' is ambiguous", parts.join(".")))),
        }
    }
}

// -------------------------------------------------------------------- FROM

fn analyze_table_ref(table_ref: &TableRef, ctx: &AnalyzerContext) -> Result<(LogicalPlan, Scope)> {
    match table_ref {
        TableRef::Table { parts, alias } => {
            let (mut catalog, mut schema, table) = match parts.len() {
                1 => (ctx.default_catalog.clone(), ctx.default_schema.clone(), parts[0].clone()),
                2 => (ctx.default_catalog.clone(), parts[0].clone(), parts[1].clone()),
                3 => (parts[0].clone(), parts[1].clone(), parts[2].clone()),
                n => return Err(PrestoError::Analysis(format!("table name has {n} parts"))),
            };
            let mut resolved = ctx.catalogs.table_schema(&catalog, &schema, &table);
            if resolved.is_err() && parts.len() == 2 && ctx.catalogs.get(&parts[0]).is_ok() {
                // `a.b` resolved as schema.table failed, but `a` names a
                // registered catalog — retry as catalog.default.table, the
                // reading `system.metrics` relies on.
                if let Ok(s) = ctx.catalogs.table_schema(&parts[0], "default", &table) {
                    catalog = parts[0].clone();
                    schema = "default".to_string();
                    resolved = Ok(s);
                }
            }
            let table_schema = resolved?;
            let request = ScanRequest::project(
                table_schema.fields().iter().map(|f| ColumnPath::whole(&f.name)).collect(),
            );
            let qualifier = alias.clone().unwrap_or_else(|| table.clone());
            let scope = Scope {
                columns: table_schema
                    .fields()
                    .iter()
                    .map(|f| ScopeColumn {
                        qualifier: Some(qualifier.clone()),
                        name: f.name.clone(),
                        data_type: f.data_type.clone(),
                    })
                    .collect(),
            };
            let plan = LogicalPlan::TableScan { catalog, schema, table, table_schema, request };
            Ok((plan, scope))
        }
        TableRef::Subquery { query, alias } => {
            let (plan, names) = analyze_query(query, ctx)?;
            let schema = plan.output_schema()?;
            let scope = Scope {
                columns: names
                    .iter()
                    .zip(schema.fields())
                    .map(|(n, f)| ScopeColumn {
                        qualifier: Some(alias.clone()),
                        name: n.clone(),
                        data_type: f.data_type.clone(),
                    })
                    .collect(),
            };
            Ok((plan, scope))
        }
        TableRef::Join { left, right, kind, on } => {
            let (left_plan, left_scope) = analyze_table_ref(left, ctx)?;
            let (right_plan, right_scope) = analyze_table_ref(right, ctx)?;
            let left_width = left_scope.columns.len();
            let mut combined = left_scope;
            combined.columns.extend(right_scope.columns);

            // Every ON join, INNER or LEFT, is one Join: its equi conjuncts
            // become hash keys and the rest its residual. Predicate pushdown
            // routes an INNER residual like WHERE conjuncts (the geospatial
            // rule finds st_contains in it, Fig 13); a LEFT residual decides
            // matching, so it stays on the join.
            let (keys, residual) = match (kind, on) {
                (JoinType::Cross, _) => (Vec::new(), None),
                (_, None) => {
                    return Err(PrestoError::Analysis("JOIN requires an ON condition".into()))
                }
                (_, Some(condition)) => {
                    let analyzed = analyze_expr(condition, &Binding::Rows(&combined), ctx)?;
                    require_boolean(&analyzed, "JOIN condition")?;
                    let (keys, rest) = split_equi_keys(analyzed.conjuncts(), left_width);
                    (keys, RowExpression::combine_conjuncts(rest))
                }
            };
            let kind = if *kind == JoinType::Left { JoinKind::Left } else { JoinKind::Inner };
            // the join emits its whole joined row until projection
            // pushdown narrows it
            let join = LogicalPlan::Join {
                left: Box::new(left_plan),
                right: Box::new(right_plan),
                kind,
                on: keys,
                residual,
                output: (0..combined.columns.len()).collect(),
            };
            Ok((join, combined))
        }
    }
}

// ------------------------------------------------------------- expressions

/// What the names in an expression bind to. Every clause's expressions go
/// through [`analyze_expr`]; only the binding differs.
enum Binding<'a> {
    /// The FROM relation's columns: JOIN ON, WHERE, GROUP BY, aggregate
    /// arguments, and every clause of a query without aggregation.
    Rows(&'a Scope),
    /// The Aggregate node's output, for SELECT, HAVING and ORDER BY after
    /// aggregation: a sub-expression equal to a GROUP BY item (channels
    /// `0..keys.len()`) or to an aggregate call (the channels after), or whose
    /// parts fail to bind but whose form over `rows` is an item's, is that
    /// channel; a column left over is an error.
    Groups { rows: &'a Scope, keys: Vec<Expr>, calls: Vec<&'a Expr>, schema: Schema },
}

fn analyze_expr(
    expr: &Expr,
    binding: &Binding<'_>,
    ctx: &AnalyzerContext,
) -> Result<RowExpression> {
    let Binding::Groups { rows, keys, calls, schema } = binding else {
        return analyze_parts(expr, binding, ctx);
    };
    let channel = keys
        .iter()
        .position(|k| k == expr)
        .or_else(|| calls.iter().position(|c| *c == expr).map(|i| keys.len() + i));
    if let Some(channel) = channel {
        return Ok(output_column(schema, channel));
    }
    // `t.datestr` under GROUP BY datestr; tried only where the parts fail to
    // bind, so what binds as written keeps its plan and pays nothing
    analyze_parts(expr, binding, ctx).or_else(|unbound| {
        let form = |e: &Expr| analyze_expr(e, &Binding::Rows(rows), ctx).ok();
        let wanted = form(expr);
        let channel = keys.iter().position(|k| wanted.is_some() && form(k) == wanted);
        channel.map(|c| output_column(schema, c)).ok_or(unbound)
    })
}

/// Translate `expr` node by node, its children through [`analyze_expr`].
fn analyze_parts(
    expr: &Expr,
    binding: &Binding<'_>,
    ctx: &AnalyzerContext,
) -> Result<RowExpression> {
    let analyze = |e: &Expr| analyze_expr(e, binding, ctx);
    match expr {
        Expr::Identifier(parts) => {
            let Binding::Rows(scope) = binding else {
                return Err(PrestoError::Analysis(format!(
                    "column '{}' must appear in GROUP BY or inside an aggregate",
                    parts.join(".")
                )));
            };
            let (channel, path) = scope.resolve(parts)?;
            let column = &scope.columns[channel];
            let mut out =
                RowExpression::column(column.name.clone(), channel, column.data_type.clone());
            // remaining parts dereference into nested structs (§V)
            for segment in &path {
                let DataType::Row(fields) = out.data_type() else {
                    return Err(PrestoError::Analysis(format!(
                        "cannot access field '{segment}' of non-struct type {}",
                        out.data_type()
                    )));
                };
                let idx = fields.iter().position(|f| f.name == *segment).ok_or_else(|| {
                    PrestoError::Analysis(format!("struct has no field '{segment}'"))
                })?;
                let field_type = fields[idx].data_type.clone();
                out = RowExpression::SpecialForm {
                    form: SpecialForm::Dereference { field_index: idx },
                    args: vec![out],
                    return_type: field_type,
                };
            }
            Ok(out)
        }
        Expr::Integer(n) => Ok(RowExpression::bigint(*n)),
        Expr::Float(f) => Ok(RowExpression::double(*f)),
        Expr::StringLit(s) => Ok(RowExpression::varchar(s.clone())),
        Expr::Boolean(b) => Ok(RowExpression::boolean(*b)),
        Expr::Null => Ok(RowExpression::null(DataType::Varchar)),
        Expr::BinaryOp { op, left, right } => {
            let (l, r) = (analyze(left)?, analyze(right)?);
            let name = match op {
                BinaryOp::And | BinaryOp::Or => {
                    require_boolean(&l, "AND/OR operand")?;
                    require_boolean(&r, "AND/OR operand")?;
                    return Ok(RowExpression::SpecialForm {
                        form: if *op == BinaryOp::And { SpecialForm::And } else { SpecialForm::Or },
                        args: vec![l, r],
                        return_type: DataType::Boolean,
                    });
                }
                BinaryOp::Eq => "eq",
                BinaryOp::Neq => "neq",
                BinaryOp::Lt => "lt",
                BinaryOp::Lte => "lte",
                BinaryOp::Gt => "gt",
                BinaryOp::Gte => "gte",
                BinaryOp::Add => "add",
                BinaryOp::Sub => "sub",
                BinaryOp::Mul => "mul",
                BinaryOp::Div => "div",
                BinaryOp::Mod => "mod",
                BinaryOp::Like => "like",
            };
            let handle = ctx.registry.resolve(name, &[l.data_type(), r.data_type()])?;
            Ok(RowExpression::Call { handle, args: vec![l, r] })
        }
        Expr::Not(inner) => {
            let e = analyze(inner)?;
            require_boolean(&e, "NOT operand")?;
            not(e, ctx)
        }
        Expr::Negate(inner) => {
            let e = analyze(inner)?;
            let handle = ctx.registry.resolve("negate", &[e.data_type()])?;
            Ok(RowExpression::Call { handle, args: vec![e] })
        }
        Expr::FunctionCall { name, args, .. } => {
            if is_aggregate_call(expr) {
                return Err(PrestoError::Analysis(format!(
                    "aggregate function {name}() is not allowed here"
                )));
            }
            let analyzed = args.iter().map(analyze).collect::<Result<Vec<_>>>()?;
            let arg_types: Vec<DataType> = analyzed.iter().map(|e| e.data_type()).collect();
            if name == "coalesce" {
                // the first non-NULL argument; all of one type
                return match arg_types.first() {
                    Some(t) if arg_types.iter().all(|a| a == t) => Ok(RowExpression::SpecialForm {
                        form: SpecialForm::Coalesce,
                        return_type: t.clone(),
                        args: analyzed,
                    }),
                    _ => Err(PrestoError::Analysis(format!(
                        "coalesce() takes arguments of one type, got {arg_types:?}"
                    ))),
                };
            }
            let handle = ctx.registry.resolve(name, &arg_types)?;
            Ok(RowExpression::Call { handle, args: analyzed })
        }
        Expr::InList { expr, list, negated } => {
            let args = std::iter::once(expr.as_ref()).chain(list).map(analyze);
            boolean_form(SpecialForm::In, args.collect::<Result<_>>()?, *negated, ctx)
        }
        Expr::Between { expr, low, high, negated } => {
            let args = vec![analyze(expr)?, analyze(low)?, analyze(high)?];
            boolean_form(SpecialForm::Between, args, *negated, ctx)
        }
        Expr::IsNull { expr, negated } => {
            boolean_form(SpecialForm::IsNull, vec![analyze(expr)?], *negated, ctx)
        }
        Expr::Cast { expr, type_name } => {
            let inner = analyze(expr)?;
            let target = parse_type_name(type_name)?;
            let handle = ctx.registry.resolve_cast(&inner.data_type(), &target);
            Ok(RowExpression::Call { handle, args: vec![inner] })
        }
        Expr::Case { operand, branches, else_expr } => {
            let operand = operand.as_deref().map(analyze).transpose()?;
            let branches = branches
                .iter()
                .map(|(w, t)| Ok((analyze(w)?, analyze(t)?)))
                .collect::<Result<Vec<_>>>()?;
            let else_expr = else_expr.as_deref().map(analyze).transpose()?;
            build_case(operand, branches, else_expr, ctx)
        }
    }
}

/// Output channel `channel` of a node whose output is `schema`.
fn output_column(schema: &Schema, channel: usize) -> RowExpression {
    let field = schema.field_at(channel);
    RowExpression::column(field.name.clone(), channel, field.data_type.clone())
}

/// `NOT e`.
fn not(e: RowExpression, ctx: &AnalyzerContext) -> Result<RowExpression> {
    let handle = ctx.registry.resolve("not", &[DataType::Boolean])?;
    Ok(RowExpression::Call { handle, args: vec![e] })
}

/// The boolean special form `form(args)`, under NOT when `negated`.
fn boolean_form(
    form: SpecialForm,
    args: Vec<RowExpression>,
    negated: bool,
    ctx: &AnalyzerContext,
) -> Result<RowExpression> {
    let e = RowExpression::SpecialForm { form, args, return_type: DataType::Boolean };
    if negated {
        not(e, ctx)
    } else {
        Ok(e)
    }
}

/// Lower CASE to nested IF special forms, unifying the result type.
fn build_case(
    operand: Option<RowExpression>,
    branches: Vec<(RowExpression, RowExpression)>,
    else_expr: Option<RowExpression>,
    ctx: &AnalyzerContext,
) -> Result<RowExpression> {
    let is_null_literal =
        |e: &RowExpression| matches!(e, RowExpression::Constant { value, .. } if value.is_null());
    // result type: first non-NULL THEN/ELSE; every other branch must agree
    let mut result_type: Option<DataType> = None;
    for candidate in branches.iter().map(|(_, t)| t).chain(else_expr.iter()) {
        if is_null_literal(candidate) {
            continue;
        }
        match &result_type {
            None => result_type = Some(candidate.data_type()),
            Some(t) if *t == candidate.data_type() => {}
            Some(t) => {
                return Err(PrestoError::Analysis(format!(
                    "CASE branches have mixed types: {t} vs {}",
                    candidate.data_type()
                )))
            }
        }
    }
    let result_type = result_type
        .ok_or_else(|| PrestoError::Analysis("CASE needs at least one non-NULL result".into()))?;
    let retype = |e: RowExpression| -> RowExpression {
        if is_null_literal(&e) {
            RowExpression::null(result_type.clone())
        } else {
            e
        }
    };
    let mut acc = else_expr.map(retype).unwrap_or_else(|| RowExpression::null(result_type.clone()));
    for (when, then) in branches.into_iter().rev() {
        let condition = match &operand {
            // CASE x WHEN v THEN ... ≡ IF(x = v, ...)
            Some(op) => {
                let handle = ctx.registry.resolve("eq", &[op.data_type(), when.data_type()])?;
                RowExpression::Call { handle, args: vec![op.clone(), when] }
            }
            None => {
                require_boolean(&when, "CASE WHEN condition")?;
                when
            }
        };
        acc = RowExpression::SpecialForm {
            form: SpecialForm::If,
            args: vec![condition, retype(then), acc],
            return_type: result_type.clone(),
        };
    }
    Ok(acc)
}

fn parse_type_name(name: &str) -> Result<DataType> {
    match name {
        "boolean" => Ok(DataType::Boolean),
        "bigint" => Ok(DataType::Bigint),
        "integer" | "int" => Ok(DataType::Integer),
        "double" => Ok(DataType::Double),
        "varchar" => Ok(DataType::Varchar),
        "date" => Ok(DataType::Date),
        "timestamp" => Ok(DataType::Timestamp),
        other => Err(PrestoError::Analysis(format!("unknown type '{other}'"))),
    }
}

fn require_boolean(e: &RowExpression, context: &str) -> Result<()> {
    if e.data_type() != DataType::Boolean {
        return Err(PrestoError::Analysis(format!(
            "{context} must be boolean, got {}",
            e.data_type()
        )));
    }
    Ok(())
}

// ------------------------------------------------------------------- query

fn analyze_query(query: &Query, ctx: &AnalyzerContext) -> Result<(LogicalPlan, Vec<String>)> {
    // FROM
    let (mut plan, scope) = match &query.from {
        Some(table_ref) => analyze_table_ref(table_ref, ctx)?,
        None => (
            // SELECT without FROM: a single empty row
            LogicalPlan::Values { schema: Schema::empty(), rows: vec![vec![]] },
            Scope::default(),
        ),
    };
    let rows = Binding::Rows(&scope);

    // WHERE
    if let Some(where_expr) = &query.where_clause {
        if contains_aggregate(where_expr) {
            return Err(PrestoError::Analysis("WHERE clause cannot contain aggregates".into()));
        }
        let predicate = analyze_expr(where_expr, &rows, ctx)?;
        require_boolean(&predicate, "WHERE clause")?;
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
    }

    // expand select items
    let mut items: Vec<(String, Expr)> = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Wildcard => {
                for c in &scope.columns {
                    // keep the qualifier so SELECT * over a join with shared
                    // column names resolves unambiguously
                    let parts = match &c.qualifier {
                        Some(q) => vec![q.clone(), c.name.clone()],
                        None => vec![c.name.clone()],
                    };
                    items.push((c.name.clone(), Expr::Identifier(parts)));
                }
            }
            SelectItem::Expression { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.default_name());
                items.push((name, expr.clone()));
            }
        }
    }
    let mut output_names: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    dedupe_names(&mut output_names);

    // aggregation: GROUP BY, HAVING, or an aggregate call in SELECT, HAVING
    // or ORDER BY
    let mut calls: Vec<&Expr> = Vec::new();
    let post_aggregation = items
        .iter()
        .map(|(_, e)| e)
        .chain(&query.having)
        .chain(query.order_by.iter().map(|(e, _)| e));
    for e in post_aggregation {
        collect_aggregates(e, &mut calls);
    }
    let binding = if query.group_by.is_empty() && calls.is_empty() && query.having.is_none() {
        rows
    } else {
        // GROUP BY items; an ordinal names a select item
        let keys = query
            .group_by
            .iter()
            .map(|g| {
                let key = match g {
                    Expr::Integer(n) => {
                        let idx = *n as usize;
                        if idx == 0 || idx > items.len() {
                            return Err(PrestoError::Analysis(format!(
                                "GROUP BY position {idx} is out of range"
                            )));
                        }
                        items[idx - 1].1.clone()
                    }
                    other => other.clone(),
                };
                if contains_aggregate(&key) {
                    return Err(PrestoError::Analysis("GROUP BY cannot contain aggregates".into()));
                }
                Ok(key)
            })
            .collect::<Result<Vec<_>>>()?;
        let group_by = keys.iter().map(|k| analyze_expr(k, &rows, ctx)).collect::<Result<_>>()?;
        let aggregates = calls
            .iter()
            .enumerate()
            .map(|(i, call)| analyze_aggregate(call, i, &rows, ctx))
            .collect::<Result<_>>()?;
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by,
            aggregates,
            step: AggregateStep::Single,
        };
        Binding::Groups { rows: &scope, keys, calls, schema: plan.output_schema()? }
    };

    let select_exprs: Vec<(String, RowExpression)> = output_names
        .iter()
        .zip(&items)
        .map(|(name, (_, ast))| Ok((name.clone(), analyze_expr(ast, &binding, ctx)?)))
        .collect::<Result<Vec<_>>>()?;
    if let Some(having) = &query.having {
        let predicate = analyze_expr(having, &binding, ctx)?;
        require_boolean(&predicate, "HAVING clause")?;
        plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
    }

    // ORDER BY: an ordinal, an output name, or an expression whose analyzed
    // form is a select item's
    let order = query
        .order_by
        .iter()
        .map(|(ast, desc)| {
            let channel = match output_channel(ast, &output_names)? {
                Some(channel) => channel,
                None => {
                    let key = analyze_expr(ast, &binding, ctx)?;
                    select_exprs.iter().position(|(_, e)| *e == key).ok_or_else(|| {
                        PrestoError::Analysis(
                            "ORDER BY expression must appear in the SELECT list".into(),
                        )
                    })?
                }
            };
            Ok((channel, *desc))
        })
        .collect::<Result<Vec<_>>>()?;

    plan = LogicalPlan::Project { input: Box::new(plan), expressions: select_exprs };
    if query.distinct {
        // DISTINCT = group by every output column
        let schema = plan.output_schema()?;
        let group_by = (0..schema.len()).map(|i| output_column(&schema, i)).collect();
        plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by,
            aggregates: vec![],
            step: AggregateStep::Single,
        };
    }
    plan = sort_and_limit(plan, &order, query.limit)?;
    let output = LogicalPlan::Output { input: Box::new(plan), names: output_names.clone() };
    Ok((output, output_names))
}

/// The output channel an ORDER BY key names as an ordinal or an output
/// name; `None` if it is neither.
fn output_channel(ast: &Expr, names: &[String]) -> Result<Option<usize>> {
    match ast {
        Expr::Integer(n) => {
            let idx = *n as usize;
            if idx == 0 || idx > names.len() {
                return Err(PrestoError::Analysis(format!(
                    "ORDER BY position {idx} is out of range"
                )));
            }
            Ok(Some(idx - 1))
        }
        Expr::Identifier(parts) if parts.len() == 1 => {
            Ok(names.iter().position(|n| *n == parts[0]))
        }
        _ => Ok(None),
    }
}

/// Sort `plan` on its output channels `(channel, descending)`, then LIMIT.
fn sort_and_limit(
    mut plan: LogicalPlan,
    order: &[(usize, bool)],
    limit: Option<u64>,
) -> Result<LogicalPlan> {
    if !order.is_empty() {
        let schema = plan.output_schema()?;
        let keys = order
            .iter()
            .map(|&(channel, descending)| SortKey {
                expr: output_column(&schema, channel),
                descending,
            })
            .collect();
        plan = LogicalPlan::Sort { input: Box::new(plan), keys };
    }
    if let Some(limit) = limit {
        plan = LogicalPlan::Limit { input: Box::new(plan), count: limit as usize };
    }
    Ok(plan)
}

// ------------------------------------------------------ aggregate plumbing

fn is_aggregate_call(e: &Expr) -> bool {
    matches!(e, Expr::FunctionCall { name, is_star, .. }
        if *is_star || AggregateFunction::from_name(name).is_some())
}

/// Push each outermost aggregate call in `e` onto `calls`, once each.
fn collect_aggregates<'a>(e: &'a Expr, calls: &mut Vec<&'a Expr>) {
    if !is_aggregate_call(e) {
        e.for_each_child(&mut |child| collect_aggregates(child, calls));
    } else if !calls.contains(&e) {
        calls.push(e);
    }
}

fn contains_aggregate(e: &Expr) -> bool {
    let mut calls = Vec::new();
    collect_aggregates(e, &mut calls);
    !calls.is_empty()
}

/// Lower collected aggregate call number `index`; its argument binds to the
/// FROM rows.
fn analyze_aggregate(
    call: &Expr,
    index: usize,
    rows: &Binding<'_>,
    ctx: &AnalyzerContext,
) -> Result<AggregateExpr> {
    let Expr::FunctionCall { name, args, is_star } = call else {
        return Err(PrestoError::Internal(format!("{call:?} is not an aggregate call")));
    };
    let function = if *is_star && name == "count" {
        AggregateFunction::CountStar
    } else {
        AggregateFunction::from_name(name)
            .ok_or_else(|| PrestoError::Analysis(format!("unknown aggregate '{name}'")))?
    };
    let argument = match (is_star, args.as_slice()) {
        (true, _) => None,
        (false, [arg]) => Some(analyze_expr(arg, rows, ctx)?),
        (false, _) => {
            return Err(PrestoError::Analysis(format!("{name}() takes exactly one argument")))
        }
    };
    // type-check
    function.return_type(argument.as_ref().map(|e| e.data_type()).as_ref())?;
    Ok(AggregateExpr { function, argument, name: format!("agg_{index}") })
}

fn dedupe_names(names: &mut [String]) {
    for i in 0..names.len() {
        let mut n = 1;
        while names[..i].contains(&names[i]) {
            names[i] = format!("{}_{n}", names[i]);
            n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use presto_common::Field;
    use presto_connectors::memory::MemoryConnector;
    use std::sync::Arc;

    fn test_ctx() -> AnalyzerContext {
        let catalogs = CatalogRegistry::new();
        let memory = MemoryConnector::new();
        memory
            .create_table(
                "default",
                "trips",
                Schema::new(vec![
                    Field::new("datestr", DataType::Varchar),
                    Field::new(
                        "base",
                        DataType::row(vec![
                            Field::new("driver_uuid", DataType::Varchar),
                            Field::new("city_id", DataType::Bigint),
                        ]),
                    ),
                    Field::new("fare", DataType::Double),
                ])
                .unwrap(),
                vec![],
            )
            .unwrap();
        memory
            .create_table(
                "default",
                "cities",
                Schema::new(vec![
                    Field::new("city_id", DataType::Bigint),
                    Field::new("geo_shape", DataType::Varchar),
                ])
                .unwrap(),
                vec![],
            )
            .unwrap();
        catalogs.register("memory", Arc::new(memory));
        AnalyzerContext {
            catalogs,
            registry: FunctionRegistry::new(),
            default_catalog: "memory".into(),
            default_schema: "default".into(),
        }
    }

    fn plan_for(sql: &str) -> LogicalPlan {
        let ctx = test_ctx();
        match parse_sql(sql).unwrap() {
            crate::ast::Statement::Query(q) => analyze(&q, &ctx).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn analyze_err(sql: &str) -> PrestoError {
        let ctx = test_ctx();
        match parse_sql(sql).unwrap() {
            crate::ast::Statement::Query(q) => analyze(&q, &ctx).unwrap_err(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simple_select_resolves_nested_fields() {
        let plan = plan_for(
            "SELECT base.driver_uuid FROM trips WHERE datestr = '2017-03-02' AND base.city_id IN (12)",
        );
        let schema = plan.output_schema().unwrap();
        assert_eq!(schema.fields()[0].name, "driver_uuid");
        assert_eq!(schema.fields()[0].data_type, DataType::Varchar);
    }

    #[test]
    fn wildcard_and_aliases() {
        let plan = plan_for("SELECT * FROM trips t");
        assert_eq!(plan.output_schema().unwrap().len(), 3);
        let plan = plan_for("SELECT t.fare AS price FROM trips t");
        assert_eq!(plan.output_schema().unwrap().fields()[0].name, "price");
        // SELECT * over a join whose sides share column names must expand
        // with qualifiers, not die with a spurious ambiguity error
        let plan = plan_for("SELECT * FROM cities a JOIN cities b ON a.city_id = b.city_id");
        let schema = plan.output_schema().unwrap();
        assert_eq!(schema.len(), 4);
    }

    #[test]
    fn group_by_ordinal_matches_paper_query() {
        let plan =
            plan_for("SELECT datestr, count(*) FROM trips GROUP BY 1 ORDER BY 2 DESC LIMIT 5");
        let schema = plan.output_schema().unwrap();
        assert_eq!(schema.fields()[0].name, "datestr");
        assert_eq!(schema.fields()[1].data_type, DataType::Bigint);
        // shape: Output(Limit(Sort(Project(Aggregate(...)))))
        let LogicalPlan::Output { input, .. } = &plan else { panic!() };
        let LogicalPlan::Limit { input, .. } = input.as_ref() else { panic!() };
        assert!(matches!(input.as_ref(), LogicalPlan::Sort { .. }));
    }

    #[test]
    fn having_and_aggregate_exprs() {
        let plan = plan_for(
            "SELECT datestr, sum(fare) AS total FROM trips \
             GROUP BY datestr HAVING count(*) > 2",
        );
        let schema = plan.output_schema().unwrap();
        assert_eq!(schema.fields()[1].name, "total");
        assert_eq!(schema.fields()[1].data_type, DataType::Double);
    }

    /// The first Join in `plan`, with what sits directly above it.
    fn find_join(plan: &LogicalPlan) -> Option<(&LogicalPlan, Option<&LogicalPlan>)> {
        fn walk<'a>(
            p: &'a LogicalPlan,
            parent: Option<&'a LogicalPlan>,
        ) -> Option<(&'a LogicalPlan, Option<&'a LogicalPlan>)> {
            match p {
                LogicalPlan::Join { .. } => Some((p, parent)),
                _ => p.children().into_iter().find_map(|c| walk(c, Some(p))),
            }
        }
        walk(plan, None)
    }

    #[test]
    fn inner_and_left_joins_split_keys_and_residual() {
        for (sql, want_kind) in [
            ("SELECT t.fare FROM trips t JOIN cities c ON c.city_id > 5 AND base.city_id = c.city_id", JoinKind::Inner),
            ("SELECT t.fare FROM trips t LEFT JOIN cities c ON base.city_id = c.city_id AND c.city_id > 5", JoinKind::Left),
        ] {
            let plan = plan_for(sql);
            let (join, above) = find_join(&plan).expect("join in plan");
            let LogicalPlan::Join { kind, on, residual, .. } = join else { unreachable!() };
            assert_eq!(*kind, want_kind, "{sql}");
            // the key's right side is over the right input's own channels
            assert_eq!(on.len(), 1, "{sql}");
            assert_eq!(on[0].1.referenced_columns(), vec![0], "{sql}");
            let residual = residual.as_ref().expect("the one-side conjunct stays on the join");
            assert_eq!(residual.referenced_columns(), vec![3], "{sql}");
            assert!(!matches!(above, Some(LogicalPlan::Filter { .. })), "{sql}");
        }
        // a key may name the right side first; CROSS JOIN has none
        let plan = plan_for("SELECT t.fare FROM trips t JOIN cities c ON c.city_id = base.city_id");
        let Some((LogicalPlan::Join { on, residual: None, .. }, _)) = find_join(&plan) else {
            panic!("expected a residual-free join");
        };
        assert_eq!(on[0].0.referenced_columns(), vec![1]);
        let plan = plan_for("SELECT t.fare FROM trips t CROSS JOIN cities c");
        let Some((LogicalPlan::Join { on, residual: None, .. }, _)) = find_join(&plan) else {
            panic!("expected a cross join");
        };
        assert!(on.is_empty());
    }

    #[test]
    fn distinct_becomes_group_by_all() {
        let plan = plan_for("SELECT DISTINCT datestr FROM trips");
        fn has_empty_agg(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Aggregate { aggregates, .. } => aggregates.is_empty(),
                _ => p.children().into_iter().any(has_empty_agg),
            }
        }
        assert!(has_empty_agg(&plan));
        // over an aggregation too: the distinct counts of the groups
        assert!(has_empty_agg(&plan_for("SELECT DISTINCT count(*) FROM trips GROUP BY datestr")));
    }

    #[test]
    fn coalesce_takes_arguments_of_one_type() {
        let plan = plan_for("SELECT coalesce(datestr, 'none') AS d FROM trips");
        assert_eq!(plan.output_schema().unwrap().fields()[0].data_type, DataType::Varchar);
        assert_eq!(analyze_err("SELECT coalesce(datestr, 1) FROM trips").code(), "ANALYSIS_ERROR");
    }

    #[test]
    fn subquery_scopes() {
        let plan =
            plan_for("SELECT s.d FROM (SELECT datestr AS d FROM trips LIMIT 10) s WHERE s.d = 'x'");
        assert_eq!(plan.output_schema().unwrap().fields()[0].name, "d");
    }

    #[test]
    fn analysis_errors() {
        assert!(analyze_err("SELECT nope FROM trips").message().contains("cannot be resolved"));
        assert!(analyze_err("SELECT datestr FROM missing_table").code() == "ANALYSIS_ERROR");
        assert!(analyze_err("SELECT fare FROM trips GROUP BY datestr")
            .message()
            .contains("must appear in GROUP BY"));
        assert!(analyze_err("SELECT count(*) FROM trips WHERE count(*) > 1")
            .message()
            .contains("WHERE clause cannot contain aggregates"));
        // HAVING alone makes a query aggregated, and a select alias is no
        // name in it
        for sql in [
            "SELECT fare FROM trips HAVING fare > 1.0",
            "SELECT datestr, count(*) AS n FROM trips GROUP BY 1 HAVING n > 1",
        ] {
            assert!(analyze_err(sql).message().contains("must appear in GROUP BY"), "{sql}");
        }
        assert!(analyze_err("SELECT datestr + 1 FROM trips").code() == "ANALYSIS_ERROR");
        // type-strict: no implicit varchar/bigint comparison
        assert!(analyze_err("SELECT * FROM trips WHERE datestr = 5").code() == "ANALYSIS_ERROR");
    }

    #[test]
    fn case_lowers_to_nested_if() {
        let plan = plan_for(
            "SELECT CASE WHEN fare > 20.0 THEN 'high' ELSE 'low' END AS bucket FROM trips",
        );
        let schema = plan.output_schema().unwrap();
        assert_eq!(schema.fields()[0].name, "bucket");
        assert_eq!(schema.fields()[0].data_type, DataType::Varchar);
        // mixed branch types are rejected (type-strict engine)
        let err = analyze_err("SELECT CASE WHEN fare > 20.0 THEN 'high' ELSE 1 END FROM trips");
        assert!(err.message().contains("mixed types"), "{err}");
        // all-NULL CASE is meaningless
        assert!(analyze_err("SELECT CASE WHEN fare > 1.0 THEN null END FROM trips")
            .message()
            .contains("non-NULL"));
    }

    #[test]
    fn case_with_aggregates_after_group_by() {
        let plan = plan_for(
            "SELECT datestr, CASE WHEN count(*) > 5 THEN 'busy' ELSE 'quiet' END              FROM trips GROUP BY 1",
        );
        assert_eq!(plan.output_schema().unwrap().len(), 2);
    }

    /// The output channels the plan's Sort orders by.
    fn sort_channels(plan: &LogicalPlan) -> Vec<Vec<usize>> {
        match plan {
            LogicalPlan::Sort { keys, .. } => {
                keys.iter().map(|k| k.expr.referenced_columns()).collect()
            }
            _ => plan.children().into_iter().flat_map(sort_channels).collect(),
        }
    }

    #[test]
    fn order_by_takes_an_ordinal_a_name_or_a_select_item() {
        for (sql, want) in [
            ("SELECT datestr, fare FROM trips ORDER BY 2", vec![vec![1]]),
            ("SELECT datestr AS d, fare FROM trips ORDER BY d", vec![vec![0]]),
            ("SELECT datestr, base.city_id FROM trips ORDER BY base.city_id", vec![vec![1]]),
            (
                "SELECT datestr, count(*) FROM trips GROUP BY 1 ORDER BY count(*) DESC, datestr",
                vec![vec![1], vec![0]],
            ),
        ] {
            assert_eq!(sort_channels(&plan_for(sql)), want, "{sql}");
        }
        for sql in [
            "SELECT datestr FROM trips ORDER BY fare",
            "SELECT datestr FROM trips GROUP BY 1 ORDER BY count(*)",
        ] {
            let err = analyze_err(sql);
            assert!(err.message().contains("must appear in the SELECT list"), "{sql}: {err}");
        }
        // a UNION ALL orders by ordinal or output name only
        let err =
            analyze_err("SELECT fare FROM trips UNION ALL SELECT fare FROM trips ORDER BY -fare");
        assert!(err.message().contains("cannot resolve ORDER BY"), "{err}");
    }

    /// The Aggregate output channels each expression of the plan's first
    /// Project reads.
    fn project_channels(plan: &LogicalPlan) -> Vec<Vec<usize>> {
        match plan {
            LogicalPlan::Project { expressions, .. } => {
                expressions.iter().map(|(_, e)| e.referenced_columns()).collect()
            }
            _ => plan.children().into_iter().flat_map(project_channels).collect(),
        }
    }

    #[test]
    fn a_group_key_binds_as_written_before_by_its_analyzed_form() {
        for (sql, want) in [
            // as written: the second key, although the first is the same column
            ("SELECT datestr, count(*) FROM trips t GROUP BY t.datestr, datestr", [1, 2]),
            // the parts bind as written, so the item is not the second key
            (
                "SELECT base.city_id + 1, count(*) FROM trips t \
                 GROUP BY base.city_id, t.base.city_id + 1",
                [0, 2],
            ),
            // only by its analyzed form
            ("SELECT t.datestr, count(*) FROM trips t GROUP BY datestr", [0, 1]),
            ("SELECT t.base.city_id + 1, count(*) FROM trips t GROUP BY base.city_id + 1", [0, 1]),
        ] {
            let want: Vec<Vec<usize>> = want.iter().map(|&c| vec![c]).collect();
            assert_eq!(project_channels(&plan_for(sql)), want, "{sql}");
        }
        let err = analyze_err("SELECT t.fare, count(*) FROM trips t GROUP BY datestr");
        assert!(err.message().contains("'t.fare' must appear in GROUP BY"), "{err}");
    }

    #[test]
    fn union_all_type_checks() {
        let plan = plan_for("SELECT fare FROM trips UNION ALL SELECT fare FROM trips");
        assert!(matches!(plan, LogicalPlan::Union { ref inputs } if inputs.len() == 2));
        assert_eq!(plan.output_schema().unwrap().fields()[0].data_type, DataType::Double);
        let err = analyze_err("SELECT fare FROM trips UNION ALL SELECT datestr FROM trips");
        assert!(err.message().contains("mismatched"), "{err}");
    }

    #[test]
    fn select_without_from() {
        let plan = plan_for("SELECT 1 + 1 AS two");
        let schema = plan.output_schema().unwrap();
        assert_eq!(schema.fields()[0].name, "two");
        assert_eq!(schema.fields()[0].data_type, DataType::Bigint);
    }
}
