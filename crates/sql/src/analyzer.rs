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
            let mut first_names: Option<Vec<String>> = None;
            for branch in branches {
                let (plan, names) = analyze_query(branch, ctx)?;
                if first_names.is_none() {
                    first_names = Some(names);
                }
                inputs.push(plan);
            }
            let names = first_names.expect("union has at least two branches");
            let union = LogicalPlan::Union { inputs };
            let schema = union.output_schema()?; // type-check the sides

            // union-level ORDER BY: ordinals and first-branch output names
            let mut plan = union;
            if !order_by.is_empty() {
                let mut keys = Vec::with_capacity(order_by.len());
                for (ast, desc) in order_by {
                    let expr = resolve_order_key(ast, &names, &schema, None, &[])?;
                    keys.push(SortKey { expr, descending: *desc });
                }
                plan = LogicalPlan::Sort { input: Box::new(plan), keys };
            }
            if let Some(limit) = limit {
                plan = LogicalPlan::Limit { input: Box::new(plan), count: *limit as usize };
            }
            Ok(plan)
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
                    let analyzed = analyze_expr(condition, &combined, ctx)?;
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

fn analyze_expr(expr: &Expr, scope: &Scope, ctx: &AnalyzerContext) -> Result<RowExpression> {
    match expr {
        Expr::Identifier(parts) => {
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
            let l = analyze_expr(left, scope, ctx)?;
            let r = analyze_expr(right, scope, ctx)?;
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    require_boolean(&l, "AND/OR operand")?;
                    require_boolean(&r, "AND/OR operand")?;
                    Ok(RowExpression::SpecialForm {
                        form: if *op == BinaryOp::And { SpecialForm::And } else { SpecialForm::Or },
                        args: vec![l, r],
                        return_type: DataType::Boolean,
                    })
                }
                _ => {
                    let name = match op {
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
                        BinaryOp::And | BinaryOp::Or => unreachable!(),
                    };
                    let handle = ctx.registry.resolve(name, &[l.data_type(), r.data_type()])?;
                    Ok(RowExpression::Call { handle, args: vec![l, r] })
                }
            }
        }
        Expr::Not(inner) => {
            let e = analyze_expr(inner, scope, ctx)?;
            require_boolean(&e, "NOT operand")?;
            let handle = ctx.registry.resolve("not", &[DataType::Boolean])?;
            Ok(RowExpression::Call { handle, args: vec![e] })
        }
        Expr::Negate(inner) => {
            let e = analyze_expr(inner, scope, ctx)?;
            let handle = ctx.registry.resolve("negate", &[e.data_type()])?;
            Ok(RowExpression::Call { handle, args: vec![e] })
        }
        Expr::FunctionCall { name, args, is_star } => {
            if AggregateFunction::from_name(name).is_some() || *is_star {
                return Err(PrestoError::Analysis(format!(
                    "aggregate function {name}() is not allowed here"
                )));
            }
            let analyzed: Vec<RowExpression> =
                args.iter().map(|a| analyze_expr(a, scope, ctx)).collect::<Result<Vec<_>>>()?;
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
            let needle = analyze_expr(expr, scope, ctx)?;
            let mut args = vec![needle];
            for item in list {
                args.push(analyze_expr(item, scope, ctx)?);
            }
            let in_expr = RowExpression::SpecialForm {
                form: SpecialForm::In,
                args,
                return_type: DataType::Boolean,
            };
            Ok(if *negated {
                let handle = ctx.registry.resolve("not", &[DataType::Boolean])?;
                RowExpression::Call { handle, args: vec![in_expr] }
            } else {
                in_expr
            })
        }
        Expr::Between { expr, low, high, negated } => {
            let between = RowExpression::SpecialForm {
                form: SpecialForm::Between,
                args: vec![
                    analyze_expr(expr, scope, ctx)?,
                    analyze_expr(low, scope, ctx)?,
                    analyze_expr(high, scope, ctx)?,
                ],
                return_type: DataType::Boolean,
            };
            Ok(if *negated {
                let handle = ctx.registry.resolve("not", &[DataType::Boolean])?;
                RowExpression::Call { handle, args: vec![between] }
            } else {
                between
            })
        }
        Expr::IsNull { expr, negated } => {
            let is_null = RowExpression::SpecialForm {
                form: SpecialForm::IsNull,
                args: vec![analyze_expr(expr, scope, ctx)?],
                return_type: DataType::Boolean,
            };
            Ok(if *negated {
                let handle = ctx.registry.resolve("not", &[DataType::Boolean])?;
                RowExpression::Call { handle, args: vec![is_null] }
            } else {
                is_null
            })
        }
        Expr::Cast { expr, type_name } => {
            let inner = analyze_expr(expr, scope, ctx)?;
            let target = parse_type_name(type_name)?;
            let handle = ctx.registry.resolve_cast(&inner.data_type(), &target);
            Ok(RowExpression::Call { handle, args: vec![inner] })
        }
        Expr::Case { operand, branches, else_expr } => {
            let operand = operand.as_ref().map(|o| analyze_expr(o, scope, ctx)).transpose()?;
            let analyzed: Vec<(RowExpression, RowExpression)> = branches
                .iter()
                .map(|(w, t)| Ok((analyze_expr(w, scope, ctx)?, analyze_expr(t, scope, ctx)?)))
                .collect::<Result<Vec<_>>>()?;
            let else_analyzed =
                else_expr.as_ref().map(|e| analyze_expr(e, scope, ctx)).transpose()?;
            build_case(operand, analyzed, else_analyzed, ctx)
        }
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

    // WHERE
    if let Some(where_expr) = &query.where_clause {
        if contains_aggregate(where_expr) {
            return Err(PrestoError::Analysis("WHERE clause cannot contain aggregates".into()));
        }
        let predicate = analyze_expr(where_expr, &scope, ctx)?;
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

    // aggregation?
    let has_aggregates = items.iter().any(|(_, e)| contains_aggregate(e))
        || query.having.as_ref().is_some_and(contains_aggregate)
        || query.order_by.iter().any(|(e, _)| contains_aggregate(e));
    let aggregated = !query.group_by.is_empty() || has_aggregates;

    let mut output_names: Vec<String> = items.iter().map(|(n, _)| n.clone()).collect();
    dedupe_names(&mut output_names);

    if aggregated {
        // resolve GROUP BY items (ordinals refer to select items)
        let mut group_asts: Vec<Expr> = Vec::with_capacity(query.group_by.len());
        for g in &query.group_by {
            let ast = match g {
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
            if contains_aggregate(&ast) {
                return Err(PrestoError::Analysis("GROUP BY cannot contain aggregates".into()));
            }
            group_asts.push(ast);
        }
        let group_exprs: Vec<RowExpression> =
            group_asts.iter().map(|g| analyze_expr(g, &scope, ctx)).collect::<Result<Vec<_>>>()?;

        // collect distinct aggregate calls across select/having/order by
        let mut agg_calls: Vec<Expr> = Vec::new();
        let mut collect = |e: &Expr| collect_aggregates(e, &mut agg_calls);
        for (_, e) in &items {
            collect(e);
        }
        if let Some(h) = &query.having {
            collect(h);
        }
        for (e, _) in &query.order_by {
            collect(e);
        }

        let mut aggregates = Vec::with_capacity(agg_calls.len());
        for (i, call) in agg_calls.iter().enumerate() {
            let Expr::FunctionCall { name, args, is_star } = call else {
                unreachable!("collect_aggregates only returns calls");
            };
            let function = if *is_star && name == "count" {
                AggregateFunction::CountStar
            } else {
                AggregateFunction::from_name(name)
                    .ok_or_else(|| PrestoError::Analysis(format!("unknown aggregate '{name}'")))?
            };
            let argument = if *is_star {
                None
            } else {
                if args.len() != 1 {
                    return Err(PrestoError::Analysis(format!(
                        "{name}() takes exactly one argument"
                    )));
                }
                Some(analyze_expr(&args[0], &scope, ctx)?)
            };
            // type-check
            function.return_type(argument.as_ref().map(|e| e.data_type()).as_ref())?;
            aggregates.push(AggregateExpr { function, argument, name: format!("agg_{i}") });
        }

        let agg_plan = LogicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: group_exprs.clone(),
            aggregates: aggregates.clone(),
            step: AggregateStep::Single,
        };
        let agg_schema = agg_plan.output_schema()?;

        // post-aggregation resolution: group items and aggregate calls map
        // to the aggregate node's output channels
        let resolver = PostAggResolver {
            group_asts: &group_asts,
            agg_calls: &agg_calls,
            agg_schema: &agg_schema,
            scope: &scope,
            ctx,
        };
        let select_exprs: Vec<(String, RowExpression)> = output_names
            .iter()
            .zip(items.iter())
            .map(|(name, (_, ast))| Ok((name.clone(), resolver.resolve(ast)?)))
            .collect::<Result<Vec<_>>>()?;

        plan = agg_plan;
        if let Some(having) = &query.having {
            let predicate = resolver.resolve(having)?;
            require_boolean(&predicate, "HAVING clause")?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate };
        }
        plan = LogicalPlan::Project { input: Box::new(plan), expressions: select_exprs.clone() };

        // ORDER BY over the projected output
        plan = apply_order_limit_output(
            plan,
            query,
            &output_names,
            Some(&resolver),
            &select_exprs,
            ctx,
        )?;
        Ok((plan, output_names))
    } else {
        let select_exprs: Vec<(String, RowExpression)> = output_names
            .iter()
            .zip(items.iter())
            .map(|(name, (_, ast))| Ok((name.clone(), analyze_expr(ast, &scope, ctx)?)))
            .collect::<Result<Vec<_>>>()?;
        plan = LogicalPlan::Project { input: Box::new(plan), expressions: select_exprs.clone() };

        if query.distinct {
            // DISTINCT = group by every output column
            let schema = plan.output_schema()?;
            let group_by = schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| RowExpression::column(f.name.clone(), i, f.data_type.clone()))
                .collect();
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by,
                aggregates: vec![],
                step: AggregateStep::Single,
            };
        }

        plan = apply_order_limit_output(plan, query, &output_names, None, &select_exprs, ctx)?;
        Ok((plan, output_names))
    }
}

fn apply_order_limit_output(
    mut plan: LogicalPlan,
    query: &Query,
    output_names: &[String],
    resolver: Option<&PostAggResolver<'_>>,
    select_exprs: &[(String, RowExpression)],
    _ctx: &AnalyzerContext,
) -> Result<LogicalPlan> {
    if !query.order_by.is_empty() {
        let schema = plan.output_schema()?;
        let mut keys = Vec::with_capacity(query.order_by.len());
        for (ast, desc) in &query.order_by {
            let expr = resolve_order_key(ast, output_names, &schema, resolver, select_exprs)?;
            keys.push(SortKey { expr, descending: *desc });
        }
        plan = LogicalPlan::Sort { input: Box::new(plan), keys };
    }
    if let Some(limit) = query.limit {
        plan = LogicalPlan::Limit { input: Box::new(plan), count: limit as usize };
    }
    Ok(LogicalPlan::Output { input: Box::new(plan), names: output_names.to_vec() })
}

/// Resolve an ORDER BY key: ordinal, output-name reference, or (in
/// aggregated queries) an expression present in the select list.
fn resolve_order_key(
    ast: &Expr,
    output_names: &[String],
    schema: &Schema,
    resolver: Option<&PostAggResolver<'_>>,
    select_exprs: &[(String, RowExpression)],
) -> Result<RowExpression> {
    if let Expr::Integer(n) = ast {
        let idx = *n as usize;
        if idx == 0 || idx > output_names.len() {
            return Err(PrestoError::Analysis(format!("ORDER BY position {idx} is out of range")));
        }
        let field = schema.field_at(idx - 1);
        return Ok(RowExpression::column(field.name.clone(), idx - 1, field.data_type.clone()));
    }
    if let Expr::Identifier(parts) = ast {
        if parts.len() == 1 {
            if let Some(idx) = output_names.iter().position(|n| *n == parts[0]) {
                let field = schema.field_at(idx);
                return Ok(RowExpression::column(field.name.clone(), idx, field.data_type.clone()));
            }
        }
    }
    // aggregated queries: find a select item with the same resolved form
    if let Some(r) = resolver {
        let resolved = r.resolve(ast)?;
        if let Some(idx) = select_exprs.iter().position(|(_, e)| *e == resolved) {
            let field = schema.field_at(idx);
            return Ok(RowExpression::column(field.name.clone(), idx, field.data_type.clone()));
        }
        return Err(PrestoError::Analysis(
            "ORDER BY expression must appear in the SELECT list".into(),
        ));
    }
    Err(PrestoError::Analysis(format!(
        "cannot resolve ORDER BY expression '{}'",
        ast.default_name()
    )))
}

// ------------------------------------------------------ aggregate plumbing

fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::FunctionCall { name, is_star, args } => {
            *is_star
                || AggregateFunction::from_name(name).is_some()
                || args.iter().any(contains_aggregate)
        }
        Expr::BinaryOp { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Not(e) | Expr::Negate(e) => contains_aggregate(e),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between { expr, low, high, .. } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::Cast { expr, .. } => contains_aggregate(expr),
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref().is_some_and(contains_aggregate)
                || branches.iter().any(|(w, t)| contains_aggregate(w) || contains_aggregate(t))
                || else_expr.as_deref().is_some_and(contains_aggregate)
        }
        _ => false,
    }
}

fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::FunctionCall { name, is_star, args } => {
            if *is_star || AggregateFunction::from_name(name).is_some() {
                if !out.contains(e) {
                    out.push(e.clone());
                }
            } else {
                for a in args {
                    collect_aggregates(a, out);
                }
            }
        }
        Expr::BinaryOp { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Not(e) | Expr::Negate(e) => collect_aggregates(e, out),
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for l in list {
                collect_aggregates(l, out);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::Cast { expr, .. } => collect_aggregates(expr, out),
        Expr::Case { operand, branches, else_expr } => {
            if let Some(op) = operand {
                collect_aggregates(op, out);
            }
            for (w, t) in branches {
                collect_aggregates(w, out);
                collect_aggregates(t, out);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out);
            }
        }
        _ => {}
    }
}

/// Rewrites post-aggregation expressions: group items and aggregate calls
/// become references to the Aggregate node's output channels.
struct PostAggResolver<'a> {
    group_asts: &'a [Expr],
    agg_calls: &'a [Expr],
    agg_schema: &'a Schema,
    scope: &'a Scope,
    ctx: &'a AnalyzerContext,
}

impl PostAggResolver<'_> {
    fn resolve(&self, ast: &Expr) -> Result<RowExpression> {
        // whole expression is a group item?
        if let Some(idx) = self.group_asts.iter().position(|g| g == ast) {
            let field = self.agg_schema.field_at(idx);
            return Ok(RowExpression::column(field.name.clone(), idx, field.data_type.clone()));
        }
        // whole expression is an aggregate call?
        if let Some(idx) = self.agg_calls.iter().position(|a| a == ast) {
            let channel = self.group_asts.len() + idx;
            let field = self.agg_schema.field_at(channel);
            return Ok(RowExpression::column(field.name.clone(), channel, field.data_type.clone()));
        }
        // recurse into compound expressions
        match ast {
            Expr::BinaryOp { op, left, right } => {
                let rewritten = Expr::BinaryOp {
                    op: *op,
                    left: Box::new(Expr::Null),
                    right: Box::new(Expr::Null),
                };
                let _ = rewritten;
                let l = self.resolve(left)?;
                let r = self.resolve(right)?;
                match op {
                    BinaryOp::And | BinaryOp::Or => Ok(RowExpression::SpecialForm {
                        form: if *op == BinaryOp::And { SpecialForm::And } else { SpecialForm::Or },
                        args: vec![l, r],
                        return_type: DataType::Boolean,
                    }),
                    _ => {
                        let name = match op {
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
                            _ => unreachable!(),
                        };
                        let handle =
                            self.ctx.registry.resolve(name, &[l.data_type(), r.data_type()])?;
                        Ok(RowExpression::Call { handle, args: vec![l, r] })
                    }
                }
            }
            Expr::Not(inner) => {
                let e = self.resolve(inner)?;
                let handle = self.ctx.registry.resolve("not", &[DataType::Boolean])?;
                Ok(RowExpression::Call { handle, args: vec![e] })
            }
            Expr::Negate(inner) => {
                let e = self.resolve(inner)?;
                let handle = self.ctx.registry.resolve("negate", &[e.data_type()])?;
                Ok(RowExpression::Call { handle, args: vec![e] })
            }
            Expr::Cast { expr, type_name } => {
                let inner = self.resolve(expr)?;
                let target = parse_type_name(type_name)?;
                let handle = self.ctx.registry.resolve_cast(&inner.data_type(), &target);
                Ok(RowExpression::Call { handle, args: vec![inner] })
            }
            Expr::FunctionCall { name, args, is_star: false } => {
                let analyzed: Vec<RowExpression> =
                    args.iter().map(|a| self.resolve(a)).collect::<Result<Vec<_>>>()?;
                let arg_types: Vec<DataType> = analyzed.iter().map(|e| e.data_type()).collect();
                let handle = self.ctx.registry.resolve(name, &arg_types)?;
                Ok(RowExpression::Call { handle, args: analyzed })
            }
            Expr::Case { operand, branches, else_expr } => {
                let operand = operand.as_ref().map(|o| self.resolve(o)).transpose()?;
                let analyzed: Vec<(RowExpression, RowExpression)> = branches
                    .iter()
                    .map(|(w, t)| Ok((self.resolve(w)?, self.resolve(t)?)))
                    .collect::<Result<Vec<_>>>()?;
                let else_analyzed = else_expr.as_ref().map(|e| self.resolve(e)).transpose()?;
                build_case(operand, analyzed, else_analyzed, self.ctx)
            }
            // literals pass through; bare identifiers must be group keys
            Expr::Integer(_)
            | Expr::Float(_)
            | Expr::StringLit(_)
            | Expr::Boolean(_)
            | Expr::Null => analyze_expr(ast, self.scope, self.ctx),
            Expr::Identifier(parts) => Err(PrestoError::Analysis(format!(
                "column '{}' must appear in GROUP BY or inside an aggregate",
                parts.join(".")
            ))),
            other => Err(PrestoError::Analysis(format!(
                "expression {other:?} is not valid after aggregation"
            ))),
        }
    }
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
