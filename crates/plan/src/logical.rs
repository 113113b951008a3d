//! The logical plan tree.
//!
//! Expressions inside plan nodes are [`RowExpression`]s whose variable
//! references are **channel indexes into the node's input schema** (inputs
//! of a join concatenate left then right).

use presto_common::{DataType, Field, PrestoError, Result, Schema, Value};
use presto_connectors::ScanRequest;
use presto_expr::{AggregateFunction, RowExpression};

/// Join kinds supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT OUTER JOIN.
    Left,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Key expression over the input schema.
    pub expr: RowExpression,
    /// Descending order?
    pub descending: bool,
}

/// One aggregate in an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateExpr {
    /// The function.
    pub function: AggregateFunction,
    /// Argument (`None` = `count(*)`).
    pub argument: Option<RowExpression>,
    /// Output column name.
    pub name: String,
}

/// Whether an Aggregate node sees raw rows or connector-produced partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateStep {
    /// Raw input rows; one-shot aggregation.
    Single,
    /// Input rows are partial aggregates from aggregation pushdown (Fig 2's
    /// "final aggregation" above the connector): counts are summed, sums are
    /// summed, min/max are re-min/maxed.
    FinalOverPartial,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan of a connector table; all pushdowns live in `request`.
    TableScan {
        /// Catalog (connector) name.
        catalog: String,
        /// Schema within the catalog.
        schema: String,
        /// Table name.
        table: String,
        /// Full table schema (pre-pushdown).
        table_schema: Schema,
        /// Pushdowns negotiated by the optimizer.
        request: ScanRequest,
    },
    /// Literal rows.
    Values {
        /// Output schema.
        schema: Schema,
        /// The rows.
        rows: Vec<Vec<Value>>,
    },
    /// WHERE / HAVING.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Boolean predicate over the input schema.
        predicate: RowExpression,
    },
    /// SELECT list / expression projection.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// `(output name, expression)` pairs.
        expressions: Vec<(String, RowExpression)>,
    },
    /// GROUP BY + aggregates (or global aggregation when `group_by` empty).
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Group-by key expressions.
        group_by: Vec<RowExpression>,
        /// Aggregates.
        aggregates: Vec<AggregateExpr>,
        /// Raw or final-over-partial.
        step: AggregateStep,
    },
    /// Join. The analyzer builds every `ON` join as one: its equi conjuncts
    /// become `on`, the rest `residual`. Empty `on` = cross join (with
    /// optional residual — where the geospatial rewrite finds `st_contains`).
    /// The joined row is `left ++ right`; the join emits its `output`
    /// channels of it, every one as built ([`LogicalPlan::join`]) and those
    /// the Project above reads once projection pushdown has narrowed it.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join kind.
        kind: JoinKind,
        /// Equi-join key pairs `(left key over left schema, right key over
        /// right schema)`.
        on: Vec<(RowExpression, RowExpression)>,
        /// Non-equi residual over the concatenated schema.
        residual: Option<RowExpression>,
        /// The channels of the concatenated schema the join emits, in
        /// order (a channel may repeat).
        output: Vec<usize>,
    },
    /// The §VI.E QuadTree join produced by the geospatial rewrite (Fig 13):
    /// probe points against an index built on the fly over the fence side.
    GeoJoin {
        /// Probe side (e.g. trips).
        probe: Box<LogicalPlan>,
        /// Fence side (e.g. cities); consumed entirely to build the index.
        fences: Box<LogicalPlan>,
        /// Probe longitude expression (over probe schema).
        probe_lng: RowExpression,
        /// Probe latitude expression (over probe schema).
        probe_lat: RowExpression,
        /// WKT geometry expression (over fence schema).
        fence_shape: RowExpression,
    },
    /// ORDER BY.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// ORDER BY + LIMIT fused.
    TopN {
        /// Input.
        input: Box<LogicalPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
        /// Row count.
        count: usize,
    },
    /// LIMIT.
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Row count.
        count: usize,
    },
    /// Final column naming (the query's SELECT list names).
    Output {
        /// Input.
        input: Box<LogicalPlan>,
        /// Output names, one per input column.
        names: Vec<String>,
    },
    /// UNION ALL: concatenation of inputs with identical column types.
    Union {
        /// The unioned inputs (at least two).
        inputs: Vec<LogicalPlan>,
    },
    /// Pages arriving from another plan fragment (inserted by the
    /// fragmenter; never produced by the analyzer).
    RemoteSource {
        /// Producing fragment.
        fragment: u32,
        /// Schema of the exchanged pages.
        schema: Schema,
    },
}

impl LogicalPlan {
    /// A join of `left` and `right` that emits every channel of `left ++
    /// right`.
    pub fn join(
        left: LogicalPlan,
        right: LogicalPlan,
        kind: JoinKind,
        on: Vec<(RowExpression, RowExpression)>,
        residual: Option<RowExpression>,
    ) -> Result<LogicalPlan> {
        let width = left.output_schema()?.len() + right.output_schema()?.len();
        Ok(LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            kind,
            on,
            residual,
            output: (0..width).collect(),
        })
    }

    /// The node's output schema.
    pub fn output_schema(&self) -> Result<Schema> {
        match self {
            LogicalPlan::TableScan { table_schema, request, .. } => {
                request.output_schema(table_schema)
            }
            LogicalPlan::Values { schema, .. } => Ok(schema.clone()),
            LogicalPlan::Filter { input, .. } => input.output_schema(),
            LogicalPlan::Project { input, expressions } => {
                let _ = input.output_schema()?; // validate subtree
                let fields = expressions
                    .iter()
                    .map(|(name, e)| Field::new(name.clone(), e.data_type()))
                    .collect();
                Schema::new(fields)
            }
            LogicalPlan::Aggregate { group_by, aggregates, step, .. } => {
                let mut fields = Vec::with_capacity(group_by.len() + aggregates.len());
                for (i, g) in group_by.iter().enumerate() {
                    fields.push(Field::new(format!("group_{i}"), g.data_type()));
                }
                for a in aggregates {
                    let out = match step {
                        // partial columns already carry the output type
                        AggregateStep::FinalOverPartial => match &a.argument {
                            Some(arg) => arg.data_type(),
                            None => DataType::Bigint,
                        },
                        AggregateStep::Single => a
                            .function
                            .return_type(a.argument.as_ref().map(|e| e.data_type()).as_ref())?,
                    };
                    fields.push(Field::new(a.name.clone(), out));
                }
                Schema::new(fields)
            }
            LogicalPlan::Join { left, right, output, .. } => {
                let joined = concat_fields(left, right)?;
                let mut fields = Vec::with_capacity(output.len());
                for &channel in output {
                    let field = joined.get(channel).ok_or_else(|| {
                        PrestoError::Plan(format!(
                            "join emits channel {channel} of {}",
                            joined.len()
                        ))
                    })?;
                    push_unique(&mut fields, field);
                }
                Schema::new(fields)
            }
            LogicalPlan::GeoJoin { probe, fences, .. } => {
                Schema::new(concat_fields(probe, fences)?)
            }
            LogicalPlan::Sort { input, .. } => input.output_schema(),
            LogicalPlan::TopN { input, .. } => input.output_schema(),
            LogicalPlan::Limit { input, .. } => input.output_schema(),
            LogicalPlan::Union { inputs } => {
                let first = inputs
                    .first()
                    .ok_or_else(|| PrestoError::Plan("empty UNION".into()))?
                    .output_schema()?;
                for other in &inputs[1..] {
                    let schema = other.output_schema()?;
                    if schema.len() != first.len()
                        || schema
                            .fields()
                            .iter()
                            .zip(first.fields())
                            .any(|(a, b)| a.data_type != b.data_type)
                    {
                        return Err(PrestoError::Analysis(format!(
                            "UNION inputs have mismatched types: {first} vs {schema}"
                        )));
                    }
                }
                Ok(first)
            }
            LogicalPlan::Output { input, names } => {
                let input_schema = input.output_schema()?;
                if names.len() != input_schema.len() {
                    return Err(PrestoError::Plan(format!(
                        "output has {} names for {} columns",
                        names.len(),
                        input_schema.len()
                    )));
                }
                Schema::new(
                    names
                        .iter()
                        .zip(input_schema.fields())
                        .map(|(n, f)| Field::new(n.clone(), f.data_type.clone()))
                        .collect(),
                )
            }
            LogicalPlan::RemoteSource { schema, .. } => Ok(schema.clone()),
        }
    }

    /// Children of this node, in input order.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::RemoteSource { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::TopN { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Output { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::GeoJoin { probe, fences, .. } => vec![probe, fences],
            LogicalPlan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// Children of this node, mutably, in input order: rules rewrite the
    /// tree in place.
    pub(crate) fn children_mut(&mut self) -> Vec<&mut LogicalPlan> {
        match self {
            LogicalPlan::TableScan { .. }
            | LogicalPlan::Values { .. }
            | LogicalPlan::RemoteSource { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::TopN { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Output { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::GeoJoin { probe, fences, .. } => vec![probe, fences],
            LogicalPlan::Union { inputs } => inputs.iter_mut().collect(),
        }
    }

    /// Short node label for EXPLAIN output.
    pub fn label(&self) -> String {
        match self {
            LogicalPlan::TableScan { catalog, schema, table, request, .. } => {
                let mut parts = Vec::new();
                if !request.predicate.is_empty() {
                    parts.push(format!("predicate ×{}", request.predicate.len()));
                }
                if request.aggregation.is_some() {
                    parts.push("aggregation pushed down".to_string());
                } else if request.columns.is_empty() {
                    // `count(*)`: rows are counted, nothing is read
                    parts.push("no columns".to_string());
                }
                if let Some(l) = request.limit {
                    parts.push(format!("limit {l}"));
                }
                let nested = request.columns.iter().filter(|c| !c.path.is_empty()).count();
                if nested > 0 {
                    parts.push(format!("nested pruning ×{nested}"));
                }
                if parts.is_empty() {
                    format!("TableScan[{catalog}.{schema}.{table}]")
                } else {
                    format!("TableScan[{catalog}.{schema}.{table}: {}]", parts.join(", "))
                }
            }
            LogicalPlan::Values { rows, .. } => format!("Values[{} rows]", rows.len()),
            LogicalPlan::Filter { predicate, .. } => format!("Filter[{predicate}]"),
            LogicalPlan::Project { expressions, .. } => {
                let names: Vec<&str> = expressions.iter().map(|(n, _)| n.as_str()).collect();
                format!("Project[{}]", names.join(", "))
            }
            LogicalPlan::Aggregate { group_by, aggregates, step, .. } => {
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| format!("{}({})", a.function.name(), a.name))
                    .collect();
                let step_label = match step {
                    AggregateStep::Single => "",
                    AggregateStep::FinalOverPartial => " final",
                };
                format!("Aggregate{step_label}[groups={}, {}]", group_by.len(), aggs.join(", "))
            }
            LogicalPlan::Join { left, right, kind, on, residual, output } => {
                let mut s = format!("{kind:?}Join[keys={}", on.len());
                if residual.is_some() {
                    s.push_str(", residual");
                }
                // a narrowed join says how many channels of the joined row
                // it emits
                let width = |p: &LogicalPlan| p.output_schema().map(|s| s.len());
                if let (Ok(l), Ok(r)) = (width(left), width(right)) {
                    if !output.iter().copied().eq(0..l + r) {
                        s.push_str(&format!(", output={}/{}", output.len(), l + r));
                    }
                }
                s.push(']');
                s
            }
            LogicalPlan::GeoJoin { .. } => "GeoJoin[build_geo_index → geo_contains]".to_string(),
            LogicalPlan::Sort { keys, .. } => format!("Sort[{} keys]", keys.len()),
            LogicalPlan::TopN { keys, count, .. } => {
                format!("TopN[{count} rows, {} keys]", keys.len())
            }
            LogicalPlan::Limit { count, .. } => format!("Limit[{count}]"),
            LogicalPlan::Output { names, .. } => format!("Output[{}]", names.join(", ")),
            LogicalPlan::Union { inputs } => format!("UnionAll[{} inputs]", inputs.len()),
            LogicalPlan::RemoteSource { fragment, .. } => {
                format!("RemoteSource[fragment {fragment}]")
            }
        }
    }
}

/// The fields of `left ++ right`.
fn concat_fields(left: &LogicalPlan, right: &LogicalPlan) -> Result<Vec<Field>> {
    let mut fields = left.output_schema()?.fields().to_vec();
    for f in right.output_schema()?.fields() {
        push_unique(&mut fields, f);
    }
    Ok(fields)
}

/// Append `field`, its name suffixed `_r` until no field before it has it:
/// join sides may share names (and a chain of joins, suffixed ones), and a
/// join may emit a channel twice.
fn push_unique(fields: &mut Vec<Field>, field: &Field) {
    let mut name = field.name.clone();
    while fields.iter().any(|g| g.name == name) {
        name.push_str("_r");
    }
    fields.push(Field::new(name, field.data_type.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_connectors::ColumnPath;

    fn scan() -> LogicalPlan {
        LogicalPlan::TableScan {
            catalog: "memory".into(),
            schema: "default".into(),
            table: "t".into(),
            table_schema: Schema::new(vec![
                Field::new("a", DataType::Bigint),
                Field::new("b", DataType::Varchar),
            ])
            .unwrap(),
            request: ScanRequest::project(vec![ColumnPath::whole("a"), ColumnPath::whole("b")]),
        }
    }

    #[test]
    fn schemas_flow_through_nodes() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Project {
                input: Box::new(scan()),
                expressions: vec![(
                    "a_plus_one".into(),
                    RowExpression::Call {
                        handle: presto_expr::FunctionHandle::new(
                            "add",
                            vec![DataType::Bigint, DataType::Bigint],
                            DataType::Bigint,
                        ),
                        args: vec![
                            RowExpression::column("a", 0, DataType::Bigint),
                            RowExpression::bigint(1),
                        ],
                    },
                )],
            }),
            count: 10,
        };
        let schema = plan.output_schema().unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.fields()[0].name, "a_plus_one");
        assert_eq!(schema.fields()[0].data_type, DataType::Bigint);
    }

    #[test]
    fn join_disambiguates_duplicate_names() {
        let plan = LogicalPlan::join(scan(), scan(), JoinKind::Inner, vec![], None).unwrap();
        let schema = plan.output_schema().unwrap();
        assert_eq!(
            schema.fields().iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "a_r", "b_r"]
        );
        assert_eq!(plan.label(), "InnerJoin[keys=0]");
        // a narrowed join emits its channels in its order, a repeated one
        // suffixed again, and says so in its label
        let mut narrowed = plan.clone();
        if let LogicalPlan::Join { output, .. } = &mut narrowed {
            *output = vec![3, 0, 3];
        }
        assert_eq!(
            narrowed
                .output_schema()
                .unwrap()
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>(),
            vec!["b_r", "a", "b_r_r"]
        );
        assert_eq!(narrowed.label(), "InnerJoin[keys=0, output=3/4]");
        // a third input (and a GeoJoin alike) keeps suffixing until unique
        let plan = LogicalPlan::GeoJoin {
            probe: Box::new(plan),
            fences: Box::new(scan()),
            probe_lng: RowExpression::column("a", 0, DataType::Bigint),
            probe_lat: RowExpression::column("a", 0, DataType::Bigint),
            fence_shape: RowExpression::column("b", 1, DataType::Varchar),
        };
        let schema = plan.output_schema().unwrap();
        assert_eq!(
            schema.fields().iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "a_r", "b_r", "a_r_r", "b_r_r"]
        );
    }

    #[test]
    fn aggregate_schema_for_both_steps() {
        let agg = |step| LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group_by: vec![RowExpression::column("b", 1, DataType::Varchar)],
            aggregates: vec![AggregateExpr {
                function: AggregateFunction::Count,
                argument: Some(RowExpression::column("a", 0, DataType::Bigint)),
                name: "cnt".into(),
            }],
            step,
        };
        let single = agg(AggregateStep::Single).output_schema().unwrap();
        assert_eq!(single.fields()[1].data_type, DataType::Bigint);
        let final_ = agg(AggregateStep::FinalOverPartial).output_schema().unwrap();
        assert_eq!(final_.fields()[1].data_type, DataType::Bigint);
    }

    #[test]
    fn output_validates_name_count() {
        let bad = LogicalPlan::Output { input: Box::new(scan()), names: vec!["only_one".into()] };
        assert!(bad.output_schema().is_err());
    }

    #[test]
    fn labels_surface_pushdowns() {
        let mut s = scan();
        if let LogicalPlan::TableScan { request, .. } = &mut s {
            request.limit = Some(5);
            request.columns = vec![ColumnPath::nested("b", &[])];
        }
        assert!(s.label().contains("limit 5"));
    }
}
