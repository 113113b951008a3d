//! The rule-based optimizer.
//!
//! Rules run in a fixed order, a policy: fold constants → fuse TopN →
//! geospatial rewrite → predicate pushdown → projection pushdown →
//! aggregation pushdown → limit pushdown. Each is individually toggleable so
//! experiments can ablate them. Projection pushdown is itself a sequence: an
//! explicit Project under each Aggregate, then the `push_project_into_join` +
//! `merge_projects` pair — which sinks a projection one join level per
//! round — repeated until a round changes nothing, then join narrowing (a
//! join emits only the channels the Project above it reads), then scan
//! pruning. Predicate pushdown and the geospatial rewrite run before it, so
//! they only ever see joins that emit their whole joined row.
//!
//! A rule rewrites the tree in place: it decides on a borrow, and takes a
//! node apart only when it fires.

use presto_common::{DataType, PrestoError, Result, Schema, Value};
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
    mut plan: LogicalPlan,
    catalogs: &CatalogRegistry,
    evaluator: &Evaluator,
    config: &OptimizerConfig,
) -> Result<LogicalPlan> {
    if config.constant_folding {
        plan = rewrite_expressions(plan, &|e| fold_expression(e, evaluator));
    }
    if config.topn_fusion {
        transform_up(&mut plan, &fuse_topn)?;
    }
    if config.geo_rewrite {
        transform_up(&mut plan, &rewrite_geo_join)?;
    }
    if config.predicate_pushdown {
        push_predicates(&mut plan, catalogs)?;
    }
    if config.projection_pushdown {
        // Normalize: every Aggregate over raw columns gets an explicit
        // Project naming exactly the accesses it uses...
        transform_up(&mut plan, &project_below_aggregate)?;
        // ...then projections sink through joins toward the scans, one join
        // level a round, until a round changes nothing...
        let mut changed = true;
        while changed {
            changed = transform_up(&mut plan, &push_project_into_join)?;
            changed |= transform_up(&mut plan, &merge_projects)?;
        }
        // ...then each join emits only what the Project above it reads...
        transform_up(&mut plan, &narrow_join_output)?;
        // ...and finally Project→[Filter]→Scan becomes pruned scan columns
        // (including nested column pruning, §V.D).
        transform_up(&mut plan, &|p| prune_scan_projection(p, catalogs))?;
    }
    if config.aggregation_pushdown {
        transform_up(&mut plan, &|p| push_aggregation(p, catalogs))?;
    }
    if config.limit_pushdown {
        transform_up(&mut plan, &|p| push_limit(p, catalogs))?;
    }
    Ok(plan)
}

// ------------------------------------------------------------ plumbing

/// Apply `rule` at every node, children first; true when it fired anywhere.
/// A rule answers whether it fired, and changes the node only if it did.
fn transform_up(
    plan: &mut LogicalPlan,
    rule: &impl Fn(&mut LogicalPlan) -> Result<bool>,
) -> Result<bool> {
    let mut fired = false;
    for child in plan.children_mut() {
        fired |= transform_up(child, rule)?;
    }
    Ok(rule(plan)? | fired)
}

/// Move `node` out of the tree, leaving an empty `Values` in its place: how
/// a rule that fires takes the node apart.
fn take(node: &mut LogicalPlan) -> LogicalPlan {
    std::mem::replace(node, LogicalPlan::Values { schema: Schema::empty(), rows: Vec::new() })
}

/// `input` under a Filter of `conjuncts`, or `input` itself when there are
/// none.
fn filter_over(input: LogicalPlan, conjuncts: Vec<RowExpression>) -> LogicalPlan {
    match RowExpression::combine_conjuncts(conjuncts) {
        Some(predicate) => LogicalPlan::Filter { input: Box::new(input), predicate },
        None => input,
    }
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
        LogicalPlan::Join { left, right, kind, on, residual, output } => LogicalPlan::Join {
            left: Box::new(rewrite_expressions(*left, f)),
            right: Box::new(rewrite_expressions(*right, f)),
            kind,
            on: on.into_iter().map(|(l, r)| (l.rewrite(f), r.rewrite(f))).collect(),
            residual: residual.map(|e| e.rewrite(f)),
            output,
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

fn fuse_topn(plan: &mut LogicalPlan) -> Result<bool> {
    let LogicalPlan::Limit { input, count } = plan else {
        return Ok(false);
    };
    let LogicalPlan::Sort { input: sorted, keys } = input.as_mut() else {
        return Ok(false);
    };
    let keys = std::mem::take(keys);
    *plan = LogicalPlan::TopN { input: Box::new(take(sorted)), keys, count: *count };
    Ok(true)
}

// -------------------------------------------------------------- geo rewrite

/// Fig 13: a cross join whose residual — or the Filter above it — holds
/// `st_contains(shape, st_point(lng, lat))` becomes a GeoJoin that builds a
/// QuadTree over the fence side.
fn rewrite_geo_join(plan: &mut LogicalPlan) -> Result<bool> {
    let (join, predicate) = match &mut *plan {
        LogicalPlan::Filter { input, predicate } => (input.as_mut(), Some(&*predicate)),
        join => (join, None),
    };
    let LogicalPlan::Join { left, right, kind: JoinKind::Inner, on, residual, .. } = join else {
        return Ok(false);
    };
    if !on.is_empty() {
        return Ok(false);
    }
    let left_width = left.output_schema()?.len();
    let mut rest: Vec<RowExpression> =
        predicate.into_iter().chain(residual.as_ref()).flat_map(|e| e.conjuncts()).collect();
    let Some((at, (shape, lng, lat))) =
        rest.iter().enumerate().find_map(|(i, c)| Some((i, match_st_contains(c, left_width)?)))
    else {
        return Ok(false);
    };
    rest.remove(at);

    // probe = left (point side), fences = right (shape side); remap the
    // shape expression to fence-local channels.
    let geo_join = LogicalPlan::GeoJoin {
        probe: Box::new(take(left)),
        fences: Box::new(take(right)),
        probe_lng: lng,
        probe_lat: lat,
        fence_shape: shift_columns(shape, -(left_width as isize)),
    };
    *plan = filter_over(geo_join, rest);
    Ok(true)
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

/// Push every Filter's predicate, and every inner join's residual, as deep
/// as it goes: this node first, then its (possibly new) children.
fn push_predicates(plan: &mut LogicalPlan, catalogs: &CatalogRegistry) -> Result<()> {
    let predicate = match plan {
        LogicalPlan::Filter { predicate, .. } => {
            Some(std::mem::replace(predicate, RowExpression::boolean(true)))
        }
        LogicalPlan::Join { kind: JoinKind::Inner, residual, .. } => residual.take(),
        _ => None,
    };
    if let Some(predicate) = predicate {
        let input = match take(plan) {
            LogicalPlan::Filter { input, .. } => *input,
            join => join,
        };
        *plan = push_filter(input, predicate, catalogs)?;
    }
    plan.children_mut().into_iter().try_for_each(|child| push_predicates(child, catalogs))
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
            let combined = RowExpression::SpecialForm {
                form: SpecialForm::And,
                args: vec![inner_pred, predicate],
                return_type: DataType::Boolean,
            };
            push_filter(*inner, combined, catalogs)
        }
        // inline project expressions into the predicate and push below
        LogicalPlan::Project { input: inner, expressions } => {
            let inlined = inline_projection(&predicate, &expressions);
            let pushed = push_filter(*inner, inlined, catalogs)?;
            Ok(LogicalPlan::Project { input: Box::new(pushed), expressions })
        }
        // route conjuncts to join sides; promote equi conjuncts to keys
        LogicalPlan::Join { left, right, kind, mut on, residual, output } => {
            let left_width = left.output_schema()?.len();
            // An INNER join's residual is semantically a WHERE conjunct, so
            // it is routed with the rest, ahead of them (ON before WHERE). A
            // LEFT join's residual decides *matching*, not row survival: it
            // stays on the join untouched, and only the preserved (left)
            // side may be filtered below it.
            let inner = kind == JoinKind::Inner;
            let (mut conjuncts, residual) = match residual {
                Some(res) if inner => (res.conjuncts(), None),
                res => (Vec::new(), res),
            };
            conjuncts.extend(predicate.conjuncts());
            let (to_left, to_right, mut kept) = route_to_sides(conjuncts, left_width, inner);
            if inner {
                let (keys, rest) = split_equi_keys(kept, left_width);
                on.extend(keys);
                kept = rest;
            }
            let join = LogicalPlan::Join {
                left: Box::new(push_conjuncts(*left, to_left, catalogs)?),
                right: Box::new(push_conjuncts(*right, to_right, catalogs)?),
                kind,
                on,
                residual,
                output,
            };
            Ok(filter_over(join, kept))
        }
        // the QuadTree join is an inner join: each side's own conjuncts go
        // below it, so the probe scan sees its predicate
        LogicalPlan::GeoJoin { probe, fences, probe_lng, probe_lat, fence_shape } => {
            let probe_width = probe.output_schema()?.len();
            let (to_probe, to_fences, kept) =
                route_to_sides(predicate.conjuncts(), probe_width, true);
            let geo_join = LogicalPlan::GeoJoin {
                probe: Box::new(push_conjuncts(*probe, to_probe, catalogs)?),
                fences: Box::new(push_conjuncts(*fences, to_fences, catalogs)?),
                probe_lng,
                probe_lat,
                fence_shape,
            };
            Ok(filter_over(geo_join, kept))
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
            Ok(filter_over(scan, residual))
        }
        // barriers: keep the filter here
        other => Ok(LogicalPlan::Filter { input: Box::new(other), predicate }),
    }
}

/// `input` with `conjuncts` pushed as deep as they go.
fn push_conjuncts(
    input: LogicalPlan,
    conjuncts: Vec<RowExpression>,
    catalogs: &CatalogRegistry,
) -> Result<LogicalPlan> {
    match RowExpression::combine_conjuncts(conjuncts) {
        Some(predicate) => push_filter(input, predicate, catalogs),
        None => Ok(input),
    }
}

/// Route conjuncts over a `left | right` joined schema, keeping their order:
/// those over the left side alone, those over the right side alone (shifted
/// to right-local channels; only when `to_right`), and the rest.
fn route_to_sides(
    conjuncts: Vec<RowExpression>,
    left_width: usize,
    to_right: bool,
) -> (Vec<RowExpression>, Vec<RowExpression>, Vec<RowExpression>) {
    let (mut left, mut right, mut rest) = (Vec::new(), Vec::new(), Vec::new());
    for conjunct in conjuncts {
        let refs = conjunct.referenced_columns();
        if refs.iter().all(|&c| c < left_width) {
            left.push(conjunct);
        } else if to_right && refs.iter().all(|&c| c >= left_width) {
            right.push(shift_columns(conjunct, -(left_width as isize)));
        } else {
            rest.push(conjunct);
        }
    }
    (left, right, rest)
}

/// Split join-condition conjuncts over a `left | right` joined schema into
/// equi-key pairs and the rest, keeping their order. A key is `eq(a, b)`
/// with one side over the left input alone and the other over the right
/// input alone, either way round; the right key is shifted to right-local
/// channels. The analyzer splits every `ON` with it, and predicate pushdown
/// promotes WHERE conjuncts across an inner join with it.
pub fn split_equi_keys(
    conjuncts: Vec<RowExpression>,
    left_width: usize,
) -> (Vec<(RowExpression, RowExpression)>, Vec<RowExpression>) {
    let over = |e: &RowExpression, left: bool| {
        let refs = e.referenced_columns();
        !refs.is_empty() && refs.iter().all(|&c| (c < left_width) == left)
    };
    let (mut keys, mut rest) = (Vec::new(), Vec::new());
    for conjunct in conjuncts {
        let key = match &conjunct {
            RowExpression::Call { handle, args } if handle.name == "eq" && args.len() == 2 => {
                let (a, b) = (&args[0], &args[1]);
                if over(a, true) && over(b, false) {
                    Some((a, b))
                } else if over(b, true) && over(a, false) {
                    Some((b, a))
                } else {
                    None
                }
            }
            _ => None,
        };
        match key {
            Some((l, r)) => {
                keys.push((l.clone(), shift_columns(r.clone(), -(left_width as isize))))
            }
            None => rest.push(conjunct),
        }
    }
    (keys, rest)
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

/// The access walker: visit the maximal accesses of `e`, left to right.
/// Lambda bodies are skipped (their references are lambda-local).
fn for_each_access(e: &RowExpression, f: &mut impl FnMut(&RowExpression)) {
    if is_access(e) {
        return f(e);
    }
    if let RowExpression::Call { args, .. } | RowExpression::SpecialForm { args, .. } = e {
        for a in args.iter().filter(|a| !matches!(a, RowExpression::LambdaDefinition { .. })) {
            for_each_access(a, f);
        }
    }
}

/// Append the distinct accesses of `exprs` to `out`, in first-seen order.
fn collect_accesses<'a>(
    exprs: impl IntoIterator<Item = &'a RowExpression>,
    out: &mut Vec<RowExpression>,
) {
    for e in exprs {
        for_each_access(e, &mut |a| {
            if !out.contains(a) {
                out.push(a.clone());
            }
        });
    }
}

/// `e` with each maximal access replaced by `f(access)` (lambda bodies
/// untouched).
fn map_accesses(e: &RowExpression, f: &impl Fn(&RowExpression) -> RowExpression) -> RowExpression {
    if is_access(e) {
        return f(e);
    }
    match e {
        RowExpression::Call { handle, args } => RowExpression::Call {
            handle: handle.clone(),
            args: args.iter().map(|a| map_accesses(a, f)).collect(),
        },
        RowExpression::SpecialForm { form, args, return_type } => RowExpression::SpecialForm {
            form: form.clone(),
            args: args.iter().map(|a| map_accesses(a, f)).collect(),
            return_type: return_type.clone(),
        },
        other => other.clone(),
    }
}

/// Replace each access of `e` listed in `accesses` with a reference to
/// channel `base + its position`.
fn replace_accesses(e: &RowExpression, accesses: &[RowExpression], base: usize) -> RowExpression {
    map_accesses(e, &|a| match accesses.iter().position(|x| x == a) {
        Some(i) => RowExpression::column(access_name(a), base + i, a.data_type()),
        None => a.clone(),
    })
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
/// (`count(*)`) gets a Project of nothing over a scan, which then reads
/// nothing, or over a join, whose sides then read their keys alone.
fn project_below_aggregate(plan: &mut LogicalPlan) -> Result<bool> {
    let LogicalPlan::Aggregate { input, group_by, aggregates, step: AggregateStep::Single } = plan
    else {
        return Ok(false);
    };
    if matches!(**input, LogicalPlan::Project { .. }) {
        return Ok(false);
    }
    let width = input.output_schema()?.len();
    let mut accesses = Vec::new();
    let arguments = aggregates.iter().filter_map(|a| a.argument.as_ref());
    collect_accesses(group_by.iter().chain(arguments), &mut accesses);
    // `count(*)` names nothing: its scan (bare or under a filter) is asked
    // for no column, and a join's sides for their keys alone
    // (`push_project_into_join`); over any other input the plan stays as
    // it was
    let prunable = match input.as_ref() {
        LogicalPlan::Filter { input: inner, .. } => {
            matches!(**inner, LogicalPlan::TableScan { .. })
        }
        other => matches!(other, LogicalPlan::TableScan { .. } | LogicalPlan::Join { .. }),
    };
    if is_identity_access_list(&accesses, width) || (accesses.is_empty() && !prunable) {
        return Ok(false);
    }
    for g in group_by.iter_mut() {
        *g = replace_accesses(g, &accesses, 0);
    }
    for arg in aggregates.iter_mut().filter_map(|a| a.argument.as_mut()) {
        *arg = replace_accesses(arg, &accesses, 0);
    }
    project_accesses(input, &accesses);
    Ok(true)
}

/// Put `node` under a Project of exactly `accesses`.
fn project_accesses(node: &mut LogicalPlan, accesses: &[RowExpression]) {
    let expressions = accesses.iter().map(|a| (access_name(a), a.clone())).collect();
    let input = Box::new(take(node));
    *node = LogicalPlan::Project { input, expressions };
}

/// Push a Project's column requirements through a Join: each side gets its
/// own Project of exactly the accesses used by the outer projection, the
/// join keys, and the residual — unless it would keep every column in place,
/// or none (a cross join side nothing reads), and then it stays as it is.
fn push_project_into_join(plan: &mut LogicalPlan) -> Result<bool> {
    let LogicalPlan::Project { input, expressions } = plan else {
        return Ok(false);
    };
    let LogicalPlan::Join { left, right, on, residual, output, .. } = input.as_mut() else {
        return Ok(false);
    };
    let lw = left.output_schema()?.len();
    let rw = right.output_schema()?.len();
    // the Project must index the whole joined row; a narrowed join is done
    if !output.iter().copied().eq(0..lw + rw) {
        return Ok(false);
    }

    // Side-local accesses from the join keys...
    let mut left_accesses = Vec::new();
    let mut right_accesses = Vec::new();
    collect_accesses(on.iter().map(|(l, _)| l), &mut left_accesses);
    collect_accesses(on.iter().map(|(_, r)| r), &mut right_accesses);
    // ...then those of the outer expressions and the residual, which index
    // the joined schema.
    let mut combined = Vec::new();
    collect_accesses(expressions.iter().map(|(_, e)| e).chain(residual.as_ref()), &mut combined);
    let is_left = |access: &RowExpression| {
        let refs = access.referenced_columns();
        debug_assert_eq!(refs.len(), 1, "an access references exactly one channel");
        refs[0] < lw
    };
    for access in &combined {
        let (side, access) = if is_left(access) {
            (&mut left_accesses, access.clone())
        } else {
            (&mut right_accesses, shift_columns(access.clone(), -(lw as isize)))
        };
        if !side.contains(&access) {
            side.push(access);
        }
    }

    let narrows = |accesses: &[RowExpression], width| {
        !accesses.is_empty() && !is_identity_access_list(accesses, width)
    };
    let (wrap_left, wrap_right) = (narrows(&left_accesses, lw), narrows(&right_accesses, rw));
    if !wrap_left && !wrap_right {
        return Ok(false);
    }
    let new_lw = if wrap_left { left_accesses.len() } else { lw };
    let new_rw = if wrap_right { right_accesses.len() } else { rw };

    // The keys are side-local; an access of the joined schema maps to its
    // side's new channel, the right side now starting at `new_lw`.
    let joined = |access: &RowExpression| {
        if !is_left(access) {
            let local = shift_columns(access.clone(), -(lw as isize));
            if wrap_right {
                replace_accesses(&local, &right_accesses, new_lw)
            } else {
                shift_columns(local, new_lw as isize)
            }
        } else if wrap_left {
            replace_accesses(access, &left_accesses, 0)
        } else {
            access.clone()
        }
    };
    for (l, r) in on.iter_mut() {
        if wrap_left {
            *l = replace_accesses(l, &left_accesses, 0);
        }
        if wrap_right {
            *r = replace_accesses(r, &right_accesses, 0);
        }
    }
    for e in expressions.iter_mut().map(|(_, e)| e).chain(residual.as_mut()) {
        *e = map_accesses(e, &joined);
    }
    if wrap_left {
        project_accesses(left, &left_accesses);
    }
    if wrap_right {
        project_accesses(right, &right_accesses);
    }
    *output = (0..new_lw + new_rw).collect();
    Ok(true)
}

/// Narrow a Join under a Project to the channels the Project reads, in
/// channel order, and move the Project's references onto them: the join
/// then emits no column that is dropped right above it (a key nothing else
/// reads, above all). Runs once projections have sunk through every join;
/// the residual still indexes the whole joined row.
fn narrow_join_output(plan: &mut LogicalPlan) -> Result<bool> {
    let LogicalPlan::Project { input, expressions } = plan else {
        return Ok(false);
    };
    let LogicalPlan::Join { output, .. } = input.as_mut() else {
        return Ok(false);
    };
    let mut read = vec![false; output.len()];
    for c in expressions.iter().flat_map(|(_, e)| e.referenced_columns()) {
        *read.get_mut(c).ok_or_else(|| {
            PrestoError::Plan(format!("project reads channel {c} of a {}-wide join", output.len()))
        })? = true;
    }
    if read.iter().all(|&r| r) {
        return Ok(false);
    }
    // the new channel of each one read
    let mut to = vec![0; output.len()];
    let mut kept = Vec::with_capacity(output.len());
    for (c, &channel) in output.iter().enumerate().filter(|(c, _)| read[*c]) {
        to[c] = kept.len();
        kept.push(channel);
    }
    *output = kept;
    for (_, e) in expressions.iter_mut() {
        *e = e.remap_columns(&|c| to[c]);
    }
    Ok(true)
}

/// Compose stacked Projects into one.
fn merge_projects(plan: &mut LogicalPlan) -> Result<bool> {
    let LogicalPlan::Project { input, expressions } = plan else {
        return Ok(false);
    };
    let LogicalPlan::Project { input: inner, expressions: inner_exprs } = input.as_mut() else {
        return Ok(false);
    };
    for (_, e) in expressions.iter_mut() {
        *e = inline_projection(e, inner_exprs);
    }
    let below = take(inner);
    **input = below;
    Ok(true)
}

// --------------------------------------------- projection pushdown (scans)

/// Narrow a scan's projected columns to what its consumers actually use,
/// rewriting dereference chains into pruned nested paths (§V.D). Matches
/// `Project → [Filter →] TableScan`.
fn prune_scan_projection(plan: &mut LogicalPlan, catalogs: &CatalogRegistry) -> Result<bool> {
    let LogicalPlan::Project { input, expressions } = plan else {
        return Ok(false);
    };
    // Peel an optional residual filter.
    let (mut filter, scan) = match input.as_mut() {
        LogicalPlan::Filter { input, predicate } => (Some(predicate), input.as_mut()),
        scan => (None, scan),
    };
    let LogicalPlan::TableScan { catalog, table_schema, request, .. } = scan else {
        return Ok(false);
    };
    let caps = catalogs.get(catalog)?.capabilities();
    if !caps.projection || request.aggregation.is_some() {
        return Ok(false);
    }

    // Collect the access paths used by the project expressions and the
    // residual filter. When nested pruning is unsupported (or a column is
    // used whole anywhere), fall back to whole columns.
    let mut needed: Vec<ColumnPath> = Vec::new();
    for e in expressions.iter().map(|(_, e)| e).chain(filter.as_deref()) {
        for_each_access(e, &mut |access| {
            let Some(path) = deref_chain(access, request) else { return };
            let path = if caps.nested_pruning { path } else { ColumnPath::whole(path.column) };
            if !needed.contains(&path) {
                needed.push(path);
            }
        });
    }
    // Columns used whole subsume their nested paths.
    let whole: Vec<String> =
        needed.iter().filter(|p| p.path.is_empty()).map(|p| p.column.clone()).collect();
    needed.retain(|p| p.path.is_empty() || !whole.contains(&p.column));

    // Each retained access path becomes a channel.
    let rewrite = |e: &RowExpression| {
        map_accesses(e, &|access| rewrite_access(access, request, &needed, table_schema))
    };
    for e in expressions.iter_mut().map(|(_, e)| e).chain(filter.as_deref_mut()) {
        *e = rewrite(e);
    }
    request.columns = needed;
    // a Project of nothing over a scan of nothing (`count(*)`) is the scan
    if filter.is_none() && expressions.is_empty() {
        let scan = take(input);
        *plan = scan;
    }
    Ok(true)
}

/// One access over the unpruned scan, rewritten to its pruned channel — or,
/// when only its whole column is read, to that column's channel with the
/// dereference re-applied on top.
fn rewrite_access(
    access: &RowExpression,
    old_request: &ScanRequest,
    new_columns: &[ColumnPath],
    table_schema: &Schema,
) -> RowExpression {
    let Some(path) = deref_chain(access, old_request) else {
        return access.clone();
    };
    if let Some(idx) = new_columns.iter().position(|c| *c == path) {
        let dt = path.resolve_type(table_schema).unwrap_or(DataType::Varchar);
        return RowExpression::column(path.dotted(), idx, dt);
    }
    match access {
        RowExpression::SpecialForm { form, args, return_type } => RowExpression::SpecialForm {
            form: form.clone(),
            args: args
                .iter()
                .map(|a| rewrite_access(a, old_request, new_columns, table_schema))
                .collect(),
            return_type: return_type.clone(),
        },
        RowExpression::VariableReference { name, data_type, .. } => {
            match new_columns.iter().position(|c| c.path.is_empty() && c.column == path.column) {
                Some(idx) => RowExpression::column(name.clone(), idx, data_type.clone()),
                None => access.clone(),
            }
        }
        other => other.clone(),
    }
}

// ------------------------------------------------------ aggregation pushdown

/// §IV.B: `Aggregate(single)` directly over a scan of a connector that
/// supports aggregation becomes a pushed-down scan plus a final-over-partial
/// aggregation (Fig 2's right-hand plan).
fn push_aggregation(plan: &mut LogicalPlan, catalogs: &CatalogRegistry) -> Result<bool> {
    let LogicalPlan::Aggregate { input, group_by, aggregates, step } = plan else {
        return Ok(false);
    };
    if *step != AggregateStep::Single {
        return Ok(false);
    }
    // See through a pruning Project over the scan (inserted by projection
    // pushdown): its expressions are inlined into the aggregate's own.
    let (projection, scan) = match input.as_mut() {
        LogicalPlan::Project { input, expressions } => (Some(&*expressions), input.as_mut()),
        scan => (None, scan),
    };
    let LogicalPlan::TableScan { catalog, table_schema, request, .. } = scan else {
        return Ok(false);
    };
    let caps = catalogs.get(catalog)?.capabilities();
    if !caps.aggregation || request.aggregation.is_some() || request.limit.is_some() {
        return Ok(false);
    }

    // Group keys and aggregate arguments must be plain scan-column accesses,
    // and the functions must have mergeable partials.
    let path_of = |e: &RowExpression| match projection {
        Some(expressions) => deref_chain(&inline_projection(e, expressions), request),
        None => deref_chain(e, request),
    };
    let Some(group_paths) = group_by.iter().map(path_of).collect::<Option<Vec<_>>>() else {
        return Ok(false);
    };
    let mut agg_specs = Vec::with_capacity(aggregates.len());
    for a in aggregates.iter() {
        let mergeable = matches!(
            a.function,
            AggregateFunction::Count
                | AggregateFunction::CountStar
                | AggregateFunction::Sum
                | AggregateFunction::Min
                | AggregateFunction::Max
        );
        let arg_path = a.argument.as_ref().map(path_of);
        if !mergeable || arg_path == Some(None) {
            return Ok(false);
        }
        agg_specs.push((a.function, arg_path.flatten()));
    }

    // The scan emits group columns then partials, and a final aggregation
    // over them stays above (Fig 2's right-hand plan).
    let groups = group_paths.len();
    request.columns = Vec::new();
    request.aggregation =
        Some(AggregationPushdown { group_by: group_paths, aggregates: agg_specs });
    let scan_schema = request.output_schema(table_schema)?;
    let column = |i: usize| {
        let field = scan_schema.field_at(i);
        RowExpression::column(field.name.clone(), i, field.data_type.clone())
    };
    *group_by = (0..groups).map(column).collect();
    for (i, a) in aggregates.iter_mut().enumerate() {
        a.argument = Some(column(groups + i));
    }
    *step = AggregateStep::FinalOverPartial;
    let scan = take(scan);
    **input = scan;
    Ok(true)
}

// ------------------------------------------------------------ limit pushdown

fn push_limit(plan: &mut LogicalPlan, catalogs: &CatalogRegistry) -> Result<bool> {
    let LogicalPlan::Limit { input, count } = plan else {
        return Ok(false);
    };
    // Descend through row-preserving projects to reach the scan; the
    // engine-side Limit stays: pushdown is a hint, not a guarantee.
    let mut node = input.as_mut();
    while let LogicalPlan::Project { input, .. } = node {
        node = input.as_mut();
    }
    let LogicalPlan::TableScan { catalog, request, .. } = node else {
        return Ok(false);
    };
    // A limit hint composes with pushed predicates (connectors apply
    // predicate first), but not with pushed aggregations.
    if !catalogs.get(catalog)?.capabilities().limit || request.aggregation.is_some() {
        return Ok(false);
    }
    request.limit = Some(request.limit.map_or(*count, |l| l.min(*count)));
    Ok(true)
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
            input: Box::new(
                LogicalPlan::join(trips, cities, JoinKind::Inner, vec![], None).unwrap(),
            ),
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
            input: Box::new(LogicalPlan::join(left, right, JoinKind::Inner, vec![], None).unwrap()),
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
