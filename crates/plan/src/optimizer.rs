//! The rule-based optimizer.
//!
//! Rules run in a fixed order (fold constants → fuse TopN → geospatial
//! rewrite → predicate pushdown → scan projection pruning → aggregation
//! pushdown → limit pushdown); each rule is individually toggleable so
//! experiments can ablate them.

use presto_common::{DataType, Result, Value};
use presto_connectors::{
    AggregationPushdown, CatalogRegistry, ColumnPath, PushdownPredicate, ScanRequest,
};
use presto_expr::{AggregateFunction, Evaluator, RowExpression, SpecialForm};
use presto_parquet::ScalarPredicate;

use crate::logical::{AggregateExpr, AggregateStep, JoinKind, LogicalPlan, SortKey};

/// Rule switches, all on by default.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Fold constant subexpressions.
    pub constant_folding: bool,
    /// Fuse Sort+Limit into TopN.
    pub topn_fusion: bool,
    /// Rewrite `st_contains` cross joins into QuadTree GeoJoins (Fig 13).
    pub geo_rewrite: bool,
    /// Push predicates through projects/joins and into scans (§IV.A).
    pub predicate_pushdown: bool,
    /// Prune scan projections, including nested column pruning (§V.D).
    pub projection_pushdown: bool,
    /// Push aggregations into connectors that support them (§IV.B).
    pub aggregation_pushdown: bool,
    /// Push limits into scans (§IV.A).
    pub limit_pushdown: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            constant_folding: true,
            topn_fusion: true,
            geo_rewrite: true,
            predicate_pushdown: true,
            projection_pushdown: true,
            aggregation_pushdown: true,
            limit_pushdown: true,
        }
    }
}

/// Optimize a plan against the registered catalogs.
pub fn optimize(
    plan: LogicalPlan,
    catalogs: &CatalogRegistry,
    evaluator: &Evaluator,
    config: &OptimizerConfig,
) -> Result<LogicalPlan> {
    let mut plan = plan;
    if config.constant_folding {
        plan = rewrite_expressions(plan, &|e| fold_expression(e, evaluator));
    }
    if config.topn_fusion {
        plan = transform_up(plan, &fuse_topn)?;
    }
    if config.geo_rewrite {
        plan = transform_up(plan, &rewrite_geo_join)?;
    }
    if config.predicate_pushdown {
        plan = push_predicates(plan, catalogs)?;
    }
    if config.projection_pushdown {
        // Normalize: every Aggregate / Sort-free consumer of raw columns
        // gets an explicit Project naming exactly the accesses it uses...
        plan = transform_up(plan, &project_below_aggregate)?;
        // ...then projections sink through joins toward the scans (a few
        // fixpoint rounds cover left-deep multi-join trees)...
        for _ in 0..4 {
            plan = transform_up(plan, &push_project_into_join)?;
            plan = transform_up(plan, &merge_projects)?;
        }
        // ...and finally Project→[Filter]→Scan becomes pruned scan columns
        // (including nested column pruning, §V.D).
        plan = transform_up(plan, &|p| prune_scan_projection(p, catalogs))?;
    }
    if config.aggregation_pushdown {
        plan = transform_up(plan, &|p| push_aggregation(p, catalogs))?;
    }
    if config.limit_pushdown {
        plan = transform_up(plan, &|p| push_limit(p, catalogs))?;
    }
    Ok(plan)
}

// ------------------------------------------------------------ plumbing

/// Rebuild the tree bottom-up through `f`.
fn transform_up(
    plan: LogicalPlan,
    f: &impl Fn(LogicalPlan) -> Result<LogicalPlan>,
) -> Result<LogicalPlan> {
    let with_children = plan.map_children(|child| transform_up(child, f))?;
    f(with_children)
}

/// Rewrite every expression in the plan through `f`.
fn rewrite_expressions(
    plan: LogicalPlan,
    f: &impl Fn(RowExpression) -> RowExpression,
) -> LogicalPlan {
    let rewrite_keys = |keys: Vec<SortKey>| -> Vec<SortKey> {
        keys.into_iter()
            .map(|k| SortKey { expr: k.expr.rewrite(f), descending: k.descending })
            .collect()
    };
    match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(rewrite_expressions(*input, f)),
            predicate: predicate.rewrite(f),
        },
        LogicalPlan::Project { input, expressions } => LogicalPlan::Project {
            input: Box::new(rewrite_expressions(*input, f)),
            expressions: expressions.into_iter().map(|(n, e)| (n, e.rewrite(f))).collect(),
        },
        LogicalPlan::Aggregate { input, group_by, aggregates, step } => LogicalPlan::Aggregate {
            input: Box::new(rewrite_expressions(*input, f)),
            group_by: group_by.into_iter().map(|e| e.rewrite(f)).collect(),
            aggregates: aggregates
                .into_iter()
                .map(|a| AggregateExpr {
                    function: a.function,
                    argument: a.argument.map(|e| e.rewrite(f)),
                    name: a.name,
                })
                .collect(),
            step,
        },
        LogicalPlan::Join { left, right, kind, on, residual } => LogicalPlan::Join {
            left: Box::new(rewrite_expressions(*left, f)),
            right: Box::new(rewrite_expressions(*right, f)),
            kind,
            on: on.into_iter().map(|(l, r)| (l.rewrite(f), r.rewrite(f))).collect(),
            residual: residual.map(|e| e.rewrite(f)),
        },
        LogicalPlan::GeoJoin { probe, fences, probe_lng, probe_lat, fence_shape } => {
            LogicalPlan::GeoJoin {
                probe: Box::new(rewrite_expressions(*probe, f)),
                fences: Box::new(rewrite_expressions(*fences, f)),
                probe_lng: probe_lng.rewrite(f),
                probe_lat: probe_lat.rewrite(f),
                fence_shape: fence_shape.rewrite(f),
            }
        }
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(rewrite_expressions(*input, f)),
            keys: rewrite_keys(keys),
        },
        LogicalPlan::TopN { input, keys, count } => LogicalPlan::TopN {
            input: Box::new(rewrite_expressions(*input, f)),
            keys: rewrite_keys(keys),
            count,
        },
        LogicalPlan::Limit { input, count } => {
            LogicalPlan::Limit { input: Box::new(rewrite_expressions(*input, f)), count }
        }
        LogicalPlan::Output { input, names } => {
            LogicalPlan::Output { input: Box::new(rewrite_expressions(*input, f)), names }
        }
        LogicalPlan::Union { inputs } => LogicalPlan::Union {
            inputs: inputs.into_iter().map(|i| rewrite_expressions(i, f)).collect(),
        },
        leaf => leaf,
    }
}

// -------------------------------------------------------- constant folding

fn fold_expression(expr: RowExpression, evaluator: &Evaluator) -> RowExpression {
    // Lambdas are not foldable, and IS_NULL-type forms over constants are
    // handled fine by the scalar evaluator.
    if !expr.is_constant() {
        return expr;
    }
    if matches!(expr, RowExpression::Constant { .. }) {
        return expr;
    }
    let data_type = expr.data_type();
    match evaluator.evaluate_scalar(&expr, &[]) {
        Ok(value) => RowExpression::Constant { value, data_type },
        // leave failing expressions (e.g. 1/0) in place: they must error at
        // execution time, not silently at plan time
        Err(_) => expr,
    }
}

// ------------------------------------------------------------- TopN fusion

fn fuse_topn(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Limit { input, count } => match *input {
            LogicalPlan::Sort { input: sorted, keys } => {
                LogicalPlan::TopN { input: sorted, keys, count }
            }
            other => LogicalPlan::Limit { input: Box::new(other), count },
        },
        other => other,
    })
}

// -------------------------------------------------------------- geo rewrite

/// Fig 13: `Filter[st_contains(shape, st_point(lng, lat))]` over a cross
/// join becomes a GeoJoin that builds a QuadTree over the fence side.
fn rewrite_geo_join(plan: LogicalPlan) -> Result<LogicalPlan> {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return Ok(plan);
    };
    let LogicalPlan::Join { left, right, kind: JoinKind::Inner, on, residual } = *input else {
        return Ok(LogicalPlan::Filter { input, predicate });
    };
    if !on.is_empty() {
        return Ok(LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join { left, right, kind: JoinKind::Inner, on, residual }),
            predicate,
        });
    }
    let left_width = left.output_schema()?.len();

    let mut conjuncts = predicate.conjuncts();
    if let Some(res) = &residual {
        conjuncts.extend(res.conjuncts());
    }
    let mut geo: Option<(RowExpression, RowExpression, RowExpression)> = None;
    let mut rest = Vec::new();
    for conjunct in conjuncts {
        if geo.is_none() {
            if let Some(parts) = match_st_contains(&conjunct, left_width) {
                geo = Some(parts);
                continue;
            }
        }
        rest.push(conjunct);
    }
    let Some((shape, lng, lat)) = geo else {
        return Ok(LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                on: vec![],
                residual,
            }),
            predicate,
        });
    };

    // probe = left (point side), fences = right (shape side); remap the
    // shape expression to fence-local channels.
    let shape_local = shift_columns(shape, -(left_width as isize));
    let geo_join = LogicalPlan::GeoJoin {
        probe: left,
        fences: right,
        probe_lng: lng,
        probe_lat: lat,
        fence_shape: shape_local,
    };
    Ok(match RowExpression::combine_conjuncts(rest) {
        Some(remaining) => LogicalPlan::Filter { input: Box::new(geo_join), predicate: remaining },
        None => geo_join,
    })
}

/// Match `st_contains(<right-side shape>, st_point(<left lng>, <left lat>))`,
/// returning `(shape over concat schema, lng over left, lat over left)`.
fn match_st_contains(
    expr: &RowExpression,
    left_width: usize,
) -> Option<(RowExpression, RowExpression, RowExpression)> {
    let RowExpression::Call { handle, args } = expr else {
        return None;
    };
    if handle.name != "st_contains" || args.len() != 2 {
        return None;
    }
    let shape = &args[0];
    let RowExpression::Call { handle: point_handle, args: point_args } = &args[1] else {
        return None;
    };
    if point_handle.name != "st_point" || point_args.len() != 2 {
        return None;
    }
    let from_right = |e: &RowExpression| {
        !e.referenced_columns().is_empty()
            && e.referenced_columns().iter().all(|&c| c >= left_width)
    };
    let from_left = |e: &RowExpression| e.referenced_columns().iter().all(|&c| c < left_width);
    if from_right(shape) && from_left(&point_args[0]) && from_left(&point_args[1]) {
        Some((shape.clone(), point_args[0].clone(), point_args[1].clone()))
    } else {
        None
    }
}

fn shift_columns(expr: RowExpression, delta: isize) -> RowExpression {
    expr.rewrite(&|e| match e {
        RowExpression::VariableReference { name, index, data_type } => {
            RowExpression::VariableReference {
                name,
                index: (index as isize + delta) as usize,
                data_type,
            }
        }
        other => other,
    })
}

// ------------------------------------------------------ predicate pushdown

fn push_predicates(plan: LogicalPlan, catalogs: &CatalogRegistry) -> Result<LogicalPlan> {
    // Process this node, then recurse into (possibly new) children.
    let plan = match plan {
        LogicalPlan::Filter { input, predicate } => push_filter(*input, predicate, catalogs)?,
        other => other,
    };
    plan.map_children(|child| push_predicates(child, catalogs))
}

/// Push the conjuncts of `predicate` as deep as possible over `input`.
fn push_filter(
    input: LogicalPlan,
    predicate: RowExpression,
    catalogs: &CatalogRegistry,
) -> Result<LogicalPlan> {
    match input {
        // merge stacked filters
        LogicalPlan::Filter { input: inner, predicate: inner_pred } => {
            let combined = RowExpression::combine_conjuncts(vec![inner_pred, predicate])
                .expect("two conjuncts");
            push_filter(*inner, combined, catalogs)
        }
        // inline project expressions into the predicate and push below
        LogicalPlan::Project { input: inner, expressions } => {
            let inlined = inline_projection(&predicate, &expressions);
            let pushed = push_filter(*inner, inlined, catalogs)?;
            Ok(LogicalPlan::Project { input: Box::new(pushed), expressions })
        }
        // route conjuncts to join sides; promote equi conjuncts to keys
        LogicalPlan::Join { left, right, kind, mut on, residual } => {
            let left_width = left.output_schema()?.len();
            let mut left_conjuncts = Vec::new();
            let mut right_conjuncts = Vec::new();
            let mut kept = Vec::new();
            let mut all = predicate.conjuncts();
            // An INNER join's ON residual is semantically a WHERE conjunct,
            // so it can be routed with the rest. A LEFT join's ON residual
            // decides *matching*, not row survival — it must stay attached
            // to the join untouched.
            let mut join_residual = None;
            match (kind, residual) {
                (JoinKind::Inner, Some(res)) => all.extend(res.conjuncts()),
                (_, res) => join_residual = res,
            }
            for conjunct in all {
                let refs = conjunct.referenced_columns();
                let all_left = refs.iter().all(|&c| c < left_width);
                let all_right = !refs.is_empty() && refs.iter().all(|&c| c >= left_width);
                if all_left && kind == JoinKind::Inner {
                    left_conjuncts.push(conjunct);
                } else if all_left && kind == JoinKind::Left {
                    // left-side conjuncts are safe to push below a left join
                    left_conjuncts.push(conjunct);
                } else if all_right && kind == JoinKind::Inner {
                    right_conjuncts.push(shift_columns(conjunct, -(left_width as isize)));
                } else if kind == JoinKind::Inner {
                    // try to promote eq(left, right) to a join key
                    if let RowExpression::Call { handle, args } = &conjunct {
                        if handle.name == "eq" && args.len() == 2 {
                            let l_refs = args[0].referenced_columns();
                            let r_refs = args[1].referenced_columns();
                            let zero_left = |v: &Vec<usize>| v.iter().all(|&c| c < left_width);
                            let zero_right = |v: &Vec<usize>| {
                                !v.is_empty() && v.iter().all(|&c| c >= left_width)
                            };
                            if zero_left(&l_refs) && zero_right(&r_refs) {
                                on.push((
                                    args[0].clone(),
                                    shift_columns(args[1].clone(), -(left_width as isize)),
                                ));
                                continue;
                            }
                            if zero_left(&r_refs) && zero_right(&l_refs) {
                                on.push((
                                    args[1].clone(),
                                    shift_columns(args[0].clone(), -(left_width as isize)),
                                ));
                                continue;
                            }
                        }
                    }
                    kept.push(conjunct);
                } else {
                    kept.push(conjunct);
                }
            }
            let new_left = match RowExpression::combine_conjuncts(left_conjuncts) {
                Some(p) => push_filter(*left, p, catalogs)?,
                None => *left,
            };
            let new_right = match RowExpression::combine_conjuncts(right_conjuncts) {
                Some(p) => push_filter(*right, p, catalogs)?,
                None => *right,
            };
            let join = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                kind,
                on,
                residual: join_residual,
            };
            Ok(match RowExpression::combine_conjuncts(kept) {
                Some(p) => LogicalPlan::Filter { input: Box::new(join), predicate: p },
                None => join,
            })
        }
        // convert eligible conjuncts into connector predicates
        LogicalPlan::TableScan { catalog, schema, table, table_schema, mut request } => {
            let connector = catalogs.get(&catalog)?;
            let mut residual = Vec::new();
            if connector.capabilities().predicate && request.aggregation.is_none() {
                for conjunct in predicate.conjuncts() {
                    match convert_to_pushdown(&conjunct, &request) {
                        Some(pushdown) => request.predicate.push(pushdown),
                        None => residual.push(conjunct),
                    }
                }
            } else {
                residual = predicate.conjuncts();
            }
            let scan = LogicalPlan::TableScan { catalog, schema, table, table_schema, request };
            Ok(match RowExpression::combine_conjuncts(residual) {
                Some(p) => LogicalPlan::Filter { input: Box::new(scan), predicate: p },
                None => scan,
            })
        }
        // barriers: keep the filter here
        other => Ok(LogicalPlan::Filter { input: Box::new(other), predicate }),
    }
}

/// Substitute projection expressions for their output channels inside `expr`.
fn inline_projection(
    expr: &RowExpression,
    expressions: &[(String, RowExpression)],
) -> RowExpression {
    expr.clone().rewrite(&|e| match e {
        RowExpression::VariableReference { index, .. } => expressions[index].1.clone(),
        other => other,
    })
}

/// Try to express a conjunct as a connector pushdown predicate. Supported
/// shapes: `col <op> literal`, `literal <op> col`, `col BETWEEN a AND b`,
/// `col IN (...)` where `col` is a scan output channel or a dereference
/// chain over one (nested predicate, e.g. `base.city_id = 12`).
fn convert_to_pushdown(
    conjunct: &RowExpression,
    request: &ScanRequest,
) -> Option<PushdownPredicate> {
    let column_of = |e: &RowExpression| -> Option<ColumnPath> { deref_chain(e, request) };
    let literal_of = |e: &RowExpression| -> Option<Value> {
        match e {
            RowExpression::Constant { value, .. } if !value.is_null() => Some(value.clone()),
            _ => None,
        }
    };
    match conjunct {
        RowExpression::Call { handle, args } if args.len() == 2 => {
            let (target, value, flipped) = match (column_of(&args[0]), literal_of(&args[1])) {
                (Some(c), Some(v)) => (c, v, false),
                _ => match (column_of(&args[1]), literal_of(&args[0])) {
                    (Some(c), Some(v)) => (c, v, true),
                    _ => return None,
                },
            };
            let predicate = match (handle.name.as_str(), flipped) {
                ("eq", _) => ScalarPredicate::Eq(value),
                ("gte", false) | ("lte", true) => {
                    ScalarPredicate::Range { min: Some(value), max: None }
                }
                ("lte", false) | ("gte", true) => {
                    ScalarPredicate::Range { min: None, max: Some(value) }
                }
                // strict bounds stay in the engine (our reader ranges are
                // inclusive); pushing them would change results
                _ => return None,
            };
            Some(PushdownPredicate { target, predicate })
        }
        RowExpression::SpecialForm { form: SpecialForm::Between, args, .. } => {
            let target = column_of(&args[0])?;
            let min = literal_of(&args[1])?;
            let max = literal_of(&args[2])?;
            Some(PushdownPredicate {
                target,
                predicate: ScalarPredicate::Range { min: Some(min), max: Some(max) },
            })
        }
        RowExpression::SpecialForm { form: SpecialForm::In, args, .. } => {
            let target = column_of(&args[0])?;
            let values: Option<Vec<Value>> = args[1..].iter().map(literal_of).collect();
            Some(PushdownPredicate { target, predicate: ScalarPredicate::In(values?) })
        }
        _ => None,
    }
}

/// Resolve a bare column or a dereference chain over a scan output channel
/// into the scan's [`ColumnPath`] vocabulary.
fn deref_chain(expr: &RowExpression, request: &ScanRequest) -> Option<ColumnPath> {
    match expr {
        RowExpression::VariableReference { index, .. } => request.columns.get(*index).cloned(),
        RowExpression::SpecialForm {
            form: SpecialForm::Dereference { field_index }, args, ..
        } => {
            let base = deref_chain(&args[0], request)?;
            // recover the field name from the base expression's row type
            let base_type = args[0].data_type();
            let DataType::Row(fields) = base_type else {
                return None;
            };
            let field = fields.get(*field_index)?;
            let mut path = base.path.clone();
            path.push(field.name.clone());
            Some(ColumnPath { column: base.column, path })
        }
        _ => None,
    }
}

// ------------------------------------------ projection pushdown (general)

/// True when `e` is an *access*: a bare column reference or a dereference
/// chain over one — the unit of projection pushdown.
fn is_access(e: &RowExpression) -> bool {
    match e {
        RowExpression::VariableReference { .. } => true,
        RowExpression::SpecialForm { form: SpecialForm::Dereference { .. }, args, .. } => {
            is_access(&args[0])
        }
        _ => false,
    }
}

/// Collect the distinct maximal accesses appearing in `e`. Lambda bodies are
/// skipped (their references are lambda-local).
fn collect_access_exprs(e: &RowExpression, out: &mut Vec<RowExpression>) {
    if is_access(e) {
        if !out.contains(e) {
            out.push(e.clone());
        }
        return;
    }
    match e {
        RowExpression::Call { args, .. } | RowExpression::SpecialForm { args, .. } => {
            for a in args {
                if matches!(a, RowExpression::LambdaDefinition { .. }) {
                    continue;
                }
                collect_access_exprs(a, out);
            }
        }
        _ => {}
    }
}

/// Replace each occurrence of `accesses[i]` in `e` with a reference to
/// channel `base + i`.
fn replace_accesses(e: &RowExpression, accesses: &[RowExpression], base: usize) -> RowExpression {
    if let Some(i) = accesses.iter().position(|a| a == e) {
        return RowExpression::column(access_name(&accesses[i]), base + i, e.data_type());
    }
    match e {
        RowExpression::Call { handle, args } => RowExpression::Call {
            handle: handle.clone(),
            args: args.iter().map(|a| replace_accesses(a, accesses, base)).collect(),
        },
        RowExpression::SpecialForm { form, args, return_type } => RowExpression::SpecialForm {
            form: form.clone(),
            args: args.iter().map(|a| replace_accesses(a, accesses, base)).collect(),
            return_type: return_type.clone(),
        },
        other => other.clone(),
    }
}

/// Display name for an access expression (`base.city_id`).
fn access_name(e: &RowExpression) -> String {
    match e {
        RowExpression::VariableReference { name, .. } => name.clone(),
        RowExpression::SpecialForm {
            form: SpecialForm::Dereference { field_index }, args, ..
        } => {
            let base = access_name(&args[0]);
            match args[0].data_type() {
                DataType::Row(fields) => {
                    format!("{base}.{}", fields[*field_index].name)
                }
                _ => format!("{base}.<{field_index}>"),
            }
        }
        other => format!("{other}"),
    }
}

/// True when `accesses` is exactly the identity projection of a `width`-wide
/// input (so wrapping in a Project would be useless churn).
fn is_identity_access_list(accesses: &[RowExpression], width: usize) -> bool {
    accesses.len() == width
        && accesses.iter().enumerate().all(
            |(i, a)| matches!(a, RowExpression::VariableReference { index, .. } if *index == i),
        )
}

/// Insert an explicit Project naming the accesses an Aggregate uses, so the
/// scan-pruning rule can see them (turns `Aggregate → Scan` into
/// `Aggregate → Project → Scan`). An aggregate that names no column at all
/// (`count(*)`) gets a Project of nothing, and its scan then reads nothing.
fn project_below_aggregate(plan: LogicalPlan) -> Result<LogicalPlan> {
    let LogicalPlan::Aggregate { input, group_by, aggregates, step } = plan else {
        return Ok(plan);
    };
    if matches!(*input, LogicalPlan::Project { .. }) || step != AggregateStep::Single {
        return Ok(LogicalPlan::Aggregate { input, group_by, aggregates, step });
    }
    let width = input.output_schema()?.len();
    let mut accesses = Vec::new();
    for g in &group_by {
        collect_access_exprs(g, &mut accesses);
    }
    for a in &aggregates {
        if let Some(arg) = &a.argument {
            collect_access_exprs(arg, &mut accesses);
        }
    }
    // `count(*)` names nothing: its scan (bare or under a filter) is asked
    // for no column; over any other input the plan stays as it was
    let over_scan = match &*input {
        LogicalPlan::Filter { input: inner, .. } => {
            matches!(**inner, LogicalPlan::TableScan { .. })
        }
        other => matches!(other, LogicalPlan::TableScan { .. }),
    };
    if is_identity_access_list(&accesses, width) || (accesses.is_empty() && !over_scan) {
        return Ok(LogicalPlan::Aggregate { input, group_by, aggregates, step });
    }
    let expressions: Vec<(String, RowExpression)> =
        accesses.iter().map(|a| (access_name(a), a.clone())).collect();
    let new_group: Vec<RowExpression> =
        group_by.iter().map(|g| replace_accesses(g, &accesses, 0)).collect();
    let new_aggs: Vec<AggregateExpr> = aggregates
        .iter()
        .map(|a| AggregateExpr {
            function: a.function,
            argument: a.argument.as_ref().map(|arg| replace_accesses(arg, &accesses, 0)),
            name: a.name.clone(),
        })
        .collect();
    Ok(LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Project { input, expressions }),
        group_by: new_group,
        aggregates: new_aggs,
        step,
    })
}

/// Push a Project's column requirements through a Join: each side gets its
/// own Project of exactly the accesses used by the outer projection, the
/// join keys, and the residual.
fn push_project_into_join(plan: LogicalPlan) -> Result<LogicalPlan> {
    let LogicalPlan::Project { input, expressions } = plan else {
        return Ok(plan);
    };
    let LogicalPlan::Join { left, right, kind, on, residual } = *input else {
        return Ok(LogicalPlan::Project { input, expressions });
    };
    let lw = left.output_schema()?.len();
    let rw = right.output_schema()?.len();

    // Accesses in combined-schema indexing (outer exprs + residual)...
    let mut combined: Vec<RowExpression> = Vec::new();
    for (_, e) in &expressions {
        collect_access_exprs(e, &mut combined);
    }
    if let Some(res) = &residual {
        collect_access_exprs(res, &mut combined);
    }
    // ...and side-local accesses from the join keys.
    let mut left_accesses: Vec<RowExpression> = Vec::new();
    let mut right_accesses: Vec<RowExpression> = Vec::new();
    for (l, r) in &on {
        collect_access_exprs(l, &mut left_accesses);
        collect_access_exprs(r, &mut right_accesses);
    }
    for access in &combined {
        let refs = access.referenced_columns();
        debug_assert_eq!(refs.len(), 1, "an access references exactly one channel");
        if refs[0] < lw {
            if !left_accesses.contains(access) {
                left_accesses.push(access.clone());
            }
        } else {
            let local = shift_columns(access.clone(), -(lw as isize));
            if !right_accesses.contains(&local) {
                right_accesses.push(local);
            }
        }
    }

    // Nothing to prune when both sides would keep everything.
    if is_identity_access_list(&left_accesses, lw) && is_identity_access_list(&right_accesses, rw) {
        return Ok(LogicalPlan::Project {
            input: Box::new(LogicalPlan::Join { left, right, kind, on, residual }),
            expressions,
        });
    }

    let wrap = |side: Box<LogicalPlan>, accesses: &[RowExpression], width: usize| {
        if is_identity_access_list(accesses, width) || accesses.is_empty() {
            (side, true)
        } else {
            let exprs: Vec<(String, RowExpression)> =
                accesses.iter().map(|a| (access_name(a), a.clone())).collect();
            (Box::new(LogicalPlan::Project { input: side, expressions: exprs }), false)
        }
    };
    let (new_left, left_identity) = wrap(left, &left_accesses, lw);
    let (new_right, right_identity) = wrap(right, &right_accesses, rw);
    let new_lw = if left_identity { lw } else { left_accesses.len() };

    // Remappers: side-local for keys, combined for residual/outer exprs.
    let remap_left = |e: &RowExpression| -> RowExpression {
        if left_identity {
            e.clone()
        } else {
            replace_accesses(e, &left_accesses, 0)
        }
    };
    let remap_right_local = |e: &RowExpression| -> RowExpression {
        if right_identity {
            e.clone()
        } else {
            replace_accesses(e, &right_accesses, 0)
        }
    };
    let remap_combined = |e: &RowExpression| -> RowExpression {
        // left accesses stay combined-indexed (channels 0..new_lw)...
        let e = if left_identity { e.clone() } else { replace_accesses(e, &left_accesses, 0) };
        // ...right accesses are matched in combined indexing, then mapped
        // to new_lw + position.
        if right_identity {
            // only the base offset changes (lw → new_lw)
            e.rewrite(&|x| match x {
                RowExpression::VariableReference { name, index, data_type } if index >= lw => {
                    RowExpression::VariableReference { name, index: index - lw + new_lw, data_type }
                }
                other => other,
            })
        } else {
            let combined_right: Vec<RowExpression> =
                right_accesses.iter().map(|a| shift_columns(a.clone(), lw as isize)).collect();
            replace_accesses(&e, &combined_right, new_lw)
        }
    };

    let new_on: Vec<(RowExpression, RowExpression)> =
        on.iter().map(|(l, r)| (remap_left(l), remap_right_local(r))).collect();
    let new_residual = residual.as_ref().map(&remap_combined);
    let new_exprs: Vec<(String, RowExpression)> =
        expressions.iter().map(|(n, e)| (n.clone(), remap_combined(e))).collect();
    Ok(LogicalPlan::Project {
        input: Box::new(LogicalPlan::Join {
            left: new_left,
            right: new_right,
            kind,
            on: new_on,
            residual: new_residual,
        }),
        expressions: new_exprs,
    })
}

/// Compose stacked Projects into one.
fn merge_projects(plan: LogicalPlan) -> Result<LogicalPlan> {
    let LogicalPlan::Project { input, expressions } = plan else {
        return Ok(plan);
    };
    let LogicalPlan::Project { input: inner, expressions: inner_exprs } = *input else {
        return Ok(LogicalPlan::Project { input, expressions });
    };
    let composed: Vec<(String, RowExpression)> =
        expressions.into_iter().map(|(n, e)| (n, inline_projection(&e, &inner_exprs))).collect();
    Ok(LogicalPlan::Project { input: inner, expressions: composed })
}

// --------------------------------------------- projection pushdown (scans)

/// Narrow a scan's projected columns to what its consumers actually use,
/// rewriting dereference chains into pruned nested paths (§V.D). Matches
/// `Project → [Filter →] TableScan`.
fn prune_scan_projection(plan: LogicalPlan, catalogs: &CatalogRegistry) -> Result<LogicalPlan> {
    let LogicalPlan::Project { input, expressions } = plan else {
        return Ok(plan);
    };
    // Peel an optional residual filter.
    let (filter, scan) = match *input {
        LogicalPlan::Filter { input: inner, predicate } => (Some(predicate), *inner),
        other => (None, other),
    };
    let LogicalPlan::TableScan { catalog, schema, table, table_schema, request } = scan else {
        // not a scan: rebuild untouched
        let inner = match filter {
            Some(predicate) => LogicalPlan::Filter { input: Box::new(scan), predicate },
            None => scan,
        };
        return Ok(LogicalPlan::Project { input: Box::new(inner), expressions });
    };
    let connector = catalogs.get(&catalog)?;
    let caps = connector.capabilities();
    if !caps.projection || request.aggregation.is_some() {
        let scan = LogicalPlan::TableScan { catalog, schema, table, table_schema, request };
        let inner = match filter {
            Some(predicate) => LogicalPlan::Filter { input: Box::new(scan), predicate },
            None => scan,
        };
        return Ok(LogicalPlan::Project { input: Box::new(inner), expressions });
    }

    // Collect the access paths used by the project expressions and the
    // residual filter. When nested pruning is unsupported (or a column is
    // used whole anywhere), fall back to whole columns.
    let mut needed: Vec<ColumnPath> = Vec::new();
    let mut add_path = |p: ColumnPath| {
        if !needed.contains(&p) {
            needed.push(p);
        }
    };
    let mut exprs_to_scan: Vec<&RowExpression> = expressions.iter().map(|(_, e)| e).collect();
    if let Some(f) = &filter {
        exprs_to_scan.push(f);
    }
    for e in &exprs_to_scan {
        for access in collect_accesses(e, &request) {
            let access =
                if caps.nested_pruning { access } else { ColumnPath::whole(access.column) };
            add_path(access);
        }
    }
    // Columns used whole subsume their nested paths.
    let whole: Vec<String> =
        needed.iter().filter(|p| p.path.is_empty()).map(|p| p.column.clone()).collect();
    needed.retain(|p| p.path.is_empty() || !whole.contains(&p.column));

    // Build the rewrite map: each retained access path becomes a channel.
    let new_columns = needed.clone();
    let new_request = ScanRequest { columns: new_columns.clone(), ..request.clone() };

    let rewrite = |e: &RowExpression| -> RowExpression {
        rewrite_accesses(e, &request, &new_columns, &table_schema)
    };
    let new_expressions: Vec<(String, RowExpression)> =
        expressions.iter().map(|(n, e)| (n.clone(), rewrite(e))).collect();
    let new_filter = filter.as_ref().map(rewrite);

    let scan =
        LogicalPlan::TableScan { catalog, schema, table, table_schema, request: new_request };
    let inner = match new_filter {
        Some(predicate) => LogicalPlan::Filter { input: Box::new(scan), predicate },
        // a Project of nothing over a scan of nothing (`count(*)`) is the scan
        None if new_expressions.is_empty() => return Ok(scan),
        None => scan,
    };
    Ok(LogicalPlan::Project { input: Box::new(inner), expressions: new_expressions })
}

/// Every maximal access path (bare channel or dereference chain) in `expr`.
fn collect_accesses(expr: &RowExpression, request: &ScanRequest) -> Vec<ColumnPath> {
    let mut out = Vec::new();
    collect_accesses_into(expr, request, &mut out);
    out
}

fn collect_accesses_into(expr: &RowExpression, request: &ScanRequest, out: &mut Vec<ColumnPath>) {
    if let Some(path) = deref_chain(expr, request) {
        out.push(path);
        return;
    }
    match expr {
        RowExpression::Call { args, .. } | RowExpression::SpecialForm { args, .. } => {
            for a in args {
                // lambda bodies reference lambda parameters, not input
                // channels — they must never be mistaken for scan accesses
                if matches!(a, RowExpression::LambdaDefinition { .. }) {
                    continue;
                }
                collect_accesses_into(a, request, out);
            }
        }
        _ => {}
    }
}

/// Replace each access path in `expr` with a reference to its new channel.
fn rewrite_accesses(
    expr: &RowExpression,
    old_request: &ScanRequest,
    new_columns: &[ColumnPath],
    table_schema: &presto_common::Schema,
) -> RowExpression {
    if let Some(path) = deref_chain(expr, old_request) {
        // exact path match, or fall back to the whole-column channel with
        // the dereference re-applied on top
        if let Some(idx) = new_columns.iter().position(|c| *c == path) {
            let dt = path.resolve_type(table_schema).unwrap_or(DataType::Varchar);
            return RowExpression::column(path.dotted(), idx, dt);
        }
        if let RowExpression::SpecialForm { form, args, return_type } = expr {
            let new_args: Vec<RowExpression> = args
                .iter()
                .map(|a| rewrite_accesses(a, old_request, new_columns, table_schema))
                .collect();
            return RowExpression::SpecialForm {
                form: form.clone(),
                args: new_args,
                return_type: return_type.clone(),
            };
        }
        if let RowExpression::VariableReference { name, data_type, .. } = expr {
            if let Some(idx) =
                new_columns.iter().position(|c| c.path.is_empty() && c.column == path.column)
            {
                return RowExpression::column(name.clone(), idx, data_type.clone());
            }
        }
        return expr.clone();
    }
    match expr {
        RowExpression::Call { handle, args } => RowExpression::Call {
            handle: handle.clone(),
            args: args
                .iter()
                .map(|a| rewrite_accesses(a, old_request, new_columns, table_schema))
                .collect(),
        },
        RowExpression::SpecialForm { form, args, return_type } => RowExpression::SpecialForm {
            form: form.clone(),
            args: args
                .iter()
                .map(|a| rewrite_accesses(a, old_request, new_columns, table_schema))
                .collect(),
            return_type: return_type.clone(),
        },
        // lambda bodies are parameter-scoped: leave them untouched
        lambda @ RowExpression::LambdaDefinition { .. } => lambda.clone(),
        other => other.clone(),
    }
}

// ------------------------------------------------------ aggregation pushdown

/// §IV.B: `Aggregate(single)` directly over a scan of a connector that
/// supports aggregation becomes a pushed-down scan plus a final-over-partial
/// aggregation (Fig 2's right-hand plan).
fn push_aggregation(plan: LogicalPlan, catalogs: &CatalogRegistry) -> Result<LogicalPlan> {
    let LogicalPlan::Aggregate { input, group_by, aggregates, step: AggregateStep::Single } = plan
    else {
        return Ok(plan);
    };
    let rebuild =
        |input: Box<LogicalPlan>, group_by: Vec<RowExpression>, aggregates: Vec<AggregateExpr>| {
            LogicalPlan::Aggregate { input, group_by, aggregates, step: AggregateStep::Single }
        };
    // See through a pruning Project over the scan (inserted by projection
    // pushdown): inline its expressions into the aggregate's own.
    let (input, group_by, aggregates, original) = match *input {
        LogicalPlan::Project { input: inner, expressions }
            if matches!(*inner, LogicalPlan::TableScan { .. }) =>
        {
            let original = rebuild(
                Box::new(LogicalPlan::Project {
                    input: inner.clone(),
                    expressions: expressions.clone(),
                }),
                group_by.clone(),
                aggregates.clone(),
            );
            let inlined_group: Vec<RowExpression> =
                group_by.iter().map(|g| inline_projection(g, &expressions)).collect();
            let inlined_aggs: Vec<AggregateExpr> = aggregates
                .iter()
                .map(|a| AggregateExpr {
                    function: a.function,
                    argument: a.argument.as_ref().map(|arg| inline_projection(arg, &expressions)),
                    name: a.name.clone(),
                })
                .collect();
            (inner, inlined_group, inlined_aggs, Some(original))
        }
        other => (Box::new(other), group_by, aggregates, None),
    };
    // On decline, restore the original (pruned-projection) shape.
    let rebuild = move |input: Box<LogicalPlan>,
                        group_by: Vec<RowExpression>,
                        aggregates: Vec<AggregateExpr>| {
        match original {
            Some(orig) => orig,
            None => {
                LogicalPlan::Aggregate { input, group_by, aggregates, step: AggregateStep::Single }
            }
        }
    };
    let LogicalPlan::TableScan { catalog, schema, table, table_schema, request } = *input else {
        return Ok(rebuild(input, group_by, aggregates));
    };
    let connector = catalogs.get(&catalog)?;
    let eligible = connector.capabilities().aggregation
        && request.aggregation.is_none()
        && request.limit.is_none();
    if !eligible {
        let scan = LogicalPlan::TableScan { catalog, schema, table, table_schema, request };
        return Ok(rebuild(Box::new(scan), group_by, aggregates));
    }

    // Group keys and aggregate arguments must be plain scan-column accesses,
    // and the functions must have mergeable partials.
    let mut group_paths = Vec::with_capacity(group_by.len());
    for g in &group_by {
        match deref_chain(g, &request) {
            Some(p) => group_paths.push(p),
            None => {
                let scan = LogicalPlan::TableScan { catalog, schema, table, table_schema, request };
                return Ok(rebuild(Box::new(scan), group_by, aggregates));
            }
        }
    }
    let mut agg_specs = Vec::with_capacity(aggregates.len());
    for a in &aggregates {
        let ok_fn = matches!(
            a.function,
            AggregateFunction::Count
                | AggregateFunction::CountStar
                | AggregateFunction::Sum
                | AggregateFunction::Min
                | AggregateFunction::Max
        );
        let arg_path = match &a.argument {
            None => None,
            Some(arg) => match deref_chain(arg, &request) {
                Some(p) => Some(p),
                None => {
                    let scan =
                        LogicalPlan::TableScan { catalog, schema, table, table_schema, request };
                    return Ok(rebuild(Box::new(scan), group_by, aggregates));
                }
            },
        };
        if !ok_fn {
            let scan = LogicalPlan::TableScan { catalog, schema, table, table_schema, request };
            return Ok(rebuild(Box::new(scan), group_by, aggregates));
        }
        agg_specs.push((a.function, arg_path));
    }

    // Build the pushed-down scan; its output is group columns then partials.
    let new_request = ScanRequest {
        columns: Vec::new(),
        aggregation: Some(AggregationPushdown {
            group_by: group_paths.clone(),
            aggregates: agg_specs,
        }),
        ..request
    };
    let scan_schema = new_request.output_schema(&table_schema)?;
    let scan =
        LogicalPlan::TableScan { catalog, schema, table, table_schema, request: new_request };
    // Final aggregation over the partial columns.
    let final_group: Vec<RowExpression> = (0..group_paths.len())
        .map(|i| {
            RowExpression::column(
                scan_schema.field_at(i).name.clone(),
                i,
                scan_schema.field_at(i).data_type.clone(),
            )
        })
        .collect();
    let final_aggs: Vec<AggregateExpr> = aggregates
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let channel = group_paths.len() + i;
            AggregateExpr {
                function: a.function,
                argument: Some(RowExpression::column(
                    scan_schema.field_at(channel).name.clone(),
                    channel,
                    scan_schema.field_at(channel).data_type.clone(),
                )),
                name: a.name.clone(),
            }
        })
        .collect();
    Ok(LogicalPlan::Aggregate {
        input: Box::new(scan),
        group_by: final_group,
        aggregates: final_aggs,
        step: AggregateStep::FinalOverPartial,
    })
}

// ------------------------------------------------------------ limit pushdown

fn push_limit(plan: LogicalPlan, catalogs: &CatalogRegistry) -> Result<LogicalPlan> {
    let LogicalPlan::Limit { input, count } = plan else {
        return Ok(plan);
    };
    // Descend through row-preserving projects to reach the scan.
    fn try_push(
        node: LogicalPlan,
        count: usize,
        catalogs: &CatalogRegistry,
    ) -> Result<LogicalPlan> {
        match node {
            LogicalPlan::Project { input, expressions } => {
                let pushed = try_push(*input, count, catalogs)?;
                Ok(LogicalPlan::Project { input: Box::new(pushed), expressions })
            }
            LogicalPlan::TableScan { catalog, schema, table, table_schema, mut request } => {
                let connector = catalogs.get(&catalog)?;
                // A limit hint composes with pushed predicates (connectors
                // apply predicate first), but not with pushed aggregations.
                if connector.capabilities().limit && request.aggregation.is_none() {
                    request.limit = Some(request.limit.map_or(count, |l| l.min(count)));
                }
                Ok(LogicalPlan::TableScan { catalog, schema, table, table_schema, request })
            }
            other => Ok(other),
        }
    }
    let pushed = try_push(*input, count, catalogs)?;
    // the engine-side Limit stays: pushdown is a hint, not a guarantee
    Ok(LogicalPlan::Limit { input: Box::new(pushed), count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{Field, Schema};
    use presto_connectors::memory::MemoryConnector;
    use presto_expr::{FunctionHandle, FunctionRegistry};
    use std::sync::Arc;

    fn catalogs() -> CatalogRegistry {
        let registry = CatalogRegistry::new();
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
        registry.register("memory", Arc::new(memory));
        let druid = presto_connectors::druid::druid_connector();
        druid
            .store()
            .create_table(
                "default",
                "events",
                Schema::new(vec![
                    Field::new("ts", DataType::Timestamp),
                    Field::new("country", DataType::Varchar),
                    Field::new("clicks", DataType::Bigint),
                ])
                .unwrap(),
            )
            .unwrap();
        registry.register("druid", Arc::new(druid));
        registry
    }

    fn evaluator() -> Evaluator {
        Evaluator::new(FunctionRegistry::new())
    }

    fn trips_scan() -> LogicalPlan {
        let schema = Schema::new(vec![
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
        .unwrap();
        LogicalPlan::TableScan {
            catalog: "memory".into(),
            schema: "default".into(),
            table: "trips".into(),
            table_schema: schema.clone(),
            request: ScanRequest::project(vec![
                ColumnPath::whole("datestr"),
                ColumnPath::whole("base"),
                ColumnPath::whole("fare"),
            ]),
        }
    }

    fn base_type() -> DataType {
        DataType::row(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new("city_id", DataType::Bigint),
        ])
    }

    fn eq(l: RowExpression, r: RowExpression) -> RowExpression {
        RowExpression::Call {
            handle: FunctionHandle::new(
                "eq",
                vec![l.data_type(), r.data_type()],
                DataType::Boolean,
            ),
            args: vec![l, r],
        }
    }

    fn city_id_deref() -> RowExpression {
        RowExpression::SpecialForm {
            form: SpecialForm::Dereference { field_index: 1 },
            args: vec![RowExpression::column("base", 1, base_type())],
            return_type: DataType::Bigint,
        }
    }

    #[test]
    fn constant_folding_collapses_literal_math() {
        let expr = RowExpression::Call {
            handle: FunctionHandle::new(
                "add",
                vec![DataType::Bigint, DataType::Bigint],
                DataType::Bigint,
            ),
            args: vec![RowExpression::bigint(2), RowExpression::bigint(3)],
        };
        let plan = LogicalPlan::Project {
            input: Box::new(trips_scan()),
            expressions: vec![("five".into(), expr)],
        };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        fn find_project(p: &LogicalPlan) -> Option<&Vec<(String, RowExpression)>> {
            match p {
                LogicalPlan::Project { expressions, .. } => Some(expressions),
                _ => p.children().into_iter().find_map(find_project),
            }
        }
        let exprs = find_project(&optimized).unwrap();
        assert_eq!(
            exprs[0].1,
            RowExpression::Constant { value: Value::Bigint(5), data_type: DataType::Bigint }
        );
    }

    #[test]
    fn predicate_pushes_into_scan_including_nested() {
        // WHERE datestr = '2017-03-02' AND base.city_id = 12
        let predicate = RowExpression::combine_conjuncts(vec![
            eq(
                RowExpression::column("datestr", 0, DataType::Varchar),
                RowExpression::varchar("2017-03-02"),
            ),
            eq(city_id_deref(), RowExpression::bigint(12)),
        ])
        .unwrap();
        let plan = LogicalPlan::Filter { input: Box::new(trips_scan()), predicate };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        // the filter disappears entirely; both conjuncts are in the request
        fn find_scan(p: &LogicalPlan) -> Option<&ScanRequest> {
            match p {
                LogicalPlan::TableScan { request, .. } => Some(request),
                _ => p.children().into_iter().find_map(find_scan),
            }
        }
        assert!(!matches!(optimized, LogicalPlan::Filter { .. }));
        let request = find_scan(&optimized).unwrap();
        assert_eq!(request.predicate.len(), 2);
        assert_eq!(request.predicate[1].target.dotted(), "base.city_id");
        assert_eq!(request.predicate[1].predicate, ScalarPredicate::Eq(Value::Bigint(12)));
    }

    #[test]
    fn nested_column_pruning_rewrites_projection() {
        // SELECT base.city_id FROM trips
        let plan = LogicalPlan::Project {
            input: Box::new(trips_scan()),
            expressions: vec![("city".into(), city_id_deref())],
        };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        let LogicalPlan::Project { input, expressions } = &optimized else {
            panic!("expected project, got {}", optimized.label());
        };
        let LogicalPlan::TableScan { request, .. } = input.as_ref() else {
            panic!("expected scan under project");
        };
        assert_eq!(request.columns.len(), 1);
        assert_eq!(request.columns[0].dotted(), "base.city_id");
        // projection expression became a bare channel reference
        assert!(matches!(expressions[0].1, RowExpression::VariableReference { index: 0, .. }));
    }

    #[test]
    fn aggregation_pushes_into_druid() {
        let druid_schema = Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new("country", DataType::Varchar),
            Field::new("clicks", DataType::Bigint),
        ])
        .unwrap();
        let scan = LogicalPlan::TableScan {
            catalog: "druid".into(),
            schema: "default".into(),
            table: "events".into(),
            table_schema: druid_schema,
            request: ScanRequest::project(vec![
                ColumnPath::whole("ts"),
                ColumnPath::whole("country"),
                ColumnPath::whole("clicks"),
            ]),
        };
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan),
            group_by: vec![RowExpression::column("country", 1, DataType::Varchar)],
            aggregates: vec![AggregateExpr {
                function: AggregateFunction::Sum,
                argument: Some(RowExpression::column("clicks", 2, DataType::Bigint)),
                name: "total".into(),
            }],
            step: AggregateStep::Single,
        };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        let LogicalPlan::Aggregate { input, step, .. } = &optimized else {
            panic!("expected final aggregate");
        };
        assert_eq!(*step, AggregateStep::FinalOverPartial);
        let LogicalPlan::TableScan { request, .. } = input.as_ref() else {
            panic!("expected scan");
        };
        let agg = request.aggregation.as_ref().expect("pushed aggregation");
        assert_eq!(agg.group_by[0].column, "country");
        assert_eq!(agg.aggregates[0].0, AggregateFunction::Sum);
    }

    #[test]
    fn aggregation_does_not_push_into_memory_connector() {
        let plan = LogicalPlan::Aggregate {
            input: Box::new(trips_scan()),
            group_by: vec![],
            aggregates: vec![AggregateExpr {
                function: AggregateFunction::CountStar,
                argument: None,
                name: "cnt".into(),
            }],
            step: AggregateStep::Single,
        };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        let LogicalPlan::Aggregate { input, step, .. } = &optimized else {
            panic!("expected aggregate");
        };
        assert_eq!(*step, AggregateStep::Single);
        let LogicalPlan::TableScan { request, .. } = input.as_ref() else {
            panic!("expected scan");
        };
        assert!(request.aggregation.is_none());
        // count(*) names no column, so the scan reads none
        assert!(request.columns.is_empty());
    }

    #[test]
    fn limit_pushes_through_project_into_scan() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(trips_scan()),
                expressions: vec![(
                    "datestr".into(),
                    RowExpression::column("datestr", 0, DataType::Varchar),
                )],
            }),
            count: 7,
        };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        fn find_scan(p: &LogicalPlan) -> Option<&ScanRequest> {
            match p {
                LogicalPlan::TableScan { request, .. } => Some(request),
                _ => p.children().into_iter().find_map(find_scan),
            }
        }
        assert_eq!(find_scan(&optimized).unwrap().limit, Some(7));
        // engine-side limit preserved
        assert!(matches!(optimized, LogicalPlan::Limit { count: 7, .. }));
    }

    #[test]
    fn sort_limit_fuses_to_topn() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(trips_scan()),
                keys: vec![SortKey {
                    expr: RowExpression::column("fare", 2, DataType::Double),
                    descending: true,
                }],
            }),
            count: 10,
        };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        assert!(matches!(optimized, LogicalPlan::TopN { count: 10, .. }));
    }

    #[test]
    fn geo_rewrite_builds_geojoin() {
        // trips(lng, lat) CROSS JOIN cities(city_id, shape)
        // WHERE st_contains(shape, st_point(lng, lat))
        let trips = LogicalPlan::Values {
            schema: Schema::new(vec![
                Field::new("lng", DataType::Double),
                Field::new("lat", DataType::Double),
            ])
            .unwrap(),
            rows: vec![],
        };
        let cities = LogicalPlan::Values {
            schema: Schema::new(vec![
                Field::new("city_id", DataType::Bigint),
                Field::new("shape", DataType::Varchar),
            ])
            .unwrap(),
            rows: vec![],
        };
        let st_point = RowExpression::Call {
            handle: FunctionHandle::new(
                "st_point",
                vec![DataType::Double, DataType::Double],
                DataType::Varchar,
            ),
            args: vec![
                RowExpression::column("lng", 0, DataType::Double),
                RowExpression::column("lat", 1, DataType::Double),
            ],
        };
        let st_contains = RowExpression::Call {
            handle: FunctionHandle::new(
                "st_contains",
                vec![DataType::Varchar, DataType::Varchar],
                DataType::Boolean,
            ),
            args: vec![RowExpression::column("shape", 3, DataType::Varchar), st_point],
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(trips),
                right: Box::new(cities),
                kind: JoinKind::Inner,
                on: vec![],
                residual: None,
            }),
            predicate: st_contains,
        };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        let LogicalPlan::GeoJoin { fence_shape, probe_lng, .. } = &optimized else {
            panic!("expected GeoJoin, got {}", optimized.label());
        };
        // shape expression remapped to fence-local channel 1
        assert_eq!(fence_shape.referenced_columns(), vec![1]);
        assert_eq!(probe_lng.referenced_columns(), vec![0]);
    }

    #[test]
    fn join_predicates_route_to_sides_and_keys() {
        // filter: left.fare > 10 AND left.datestr = right.datestr
        let left = trips_scan();
        let right = trips_scan();
        let gt_fare = RowExpression::Call {
            handle: FunctionHandle::new(
                "gte",
                vec![DataType::Double, DataType::Double],
                DataType::Boolean,
            ),
            args: vec![
                RowExpression::column("fare", 2, DataType::Double),
                RowExpression::double(10.0),
            ],
        };
        let join_key = eq(
            RowExpression::column("datestr", 0, DataType::Varchar),
            RowExpression::column("datestr_r", 3, DataType::Varchar),
        );
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind: JoinKind::Inner,
                on: vec![],
                residual: None,
            }),
            predicate: RowExpression::combine_conjuncts(vec![gt_fare, join_key]).unwrap(),
        };
        let optimized =
            optimize(plan, &catalogs(), &evaluator(), &OptimizerConfig::default()).unwrap();
        fn find_join(
            p: &LogicalPlan,
        ) -> Option<(&Vec<(RowExpression, RowExpression)>, &LogicalPlan)> {
            match p {
                LogicalPlan::Join { on, left, .. } => Some((on, left)),
                _ => p.children().into_iter().find_map(find_join),
            }
        }
        let (on, left) = find_join(&optimized).expect("join survives");
        assert_eq!(on.len(), 1, "equality conjunct became a join key");
        // fare predicate went into the left scan
        fn scan_request(p: &LogicalPlan) -> Option<&ScanRequest> {
            match p {
                LogicalPlan::TableScan { request, .. } => Some(request),
                _ => p.children().into_iter().find_map(scan_request),
            }
        }
        assert_eq!(scan_request(left).unwrap().predicate.len(), 1);
    }
}
