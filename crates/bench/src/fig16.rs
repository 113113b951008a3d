//! Fig 16: Druid vs Presto-Druid-connector latency.
//!
//! "20 druid production queries are used in the experiment. 14 of them have
//! predicates, 5 of them have limits, and 12 of them are aggregation
//! queries. ... with pushdown techniques, Presto-Druid connector adds less
//! than 15% overhead, compared with Druid query latency. Most of the
//! queries complete within 1 second."
//!
//! Both paths do the same store work (inverted-index filtering + native
//! aggregation); the connector path additionally pays SQL parsing, planning,
//! final aggregation and page conversion. Latency = real CPU time + the
//! store's virtual cost.

use std::time::{Duration, Instant};

use presto_common::{DataType, Field, Result, Schema, Value};
use presto_connectors::druid::druid_connector;
use presto_connectors::realtime::{NativeQuery, RealtimeConnector};
use presto_core::{PrestoEngine, Session};
use presto_expr::AggregateFunction;
use presto_parquet::ScalarPredicate;

use crate::report::{ms, Gate, Report, Table};

/// One benchmark query: the SQL the connector path runs and the equivalent
/// native Druid query.
pub struct Fig16Query {
    /// Query label (`q01`..`q20`).
    pub name: String,
    /// SQL for the connector path.
    pub sql: String,
    /// Native-API equivalent (aggregations / filters).
    pub native: NativeQuery,
    /// For non-aggregation queries: projected columns of the native scan.
    pub native_scan_columns: Option<Vec<String>>,
}

/// The built workload.
pub struct Fig16Workload {
    /// Engine with the `druid` catalog registered.
    pub engine: PrestoEngine,
    /// The connector (store access + cost probes).
    pub connector: RealtimeConnector,
    /// The 20 queries.
    pub queries: Vec<Fig16Query>,
}

/// Per-query result row.
#[derive(Debug, Clone)]
pub struct Fig16Result {
    /// Query label.
    pub name: String,
    /// Native Druid latency (virtual store cost + real CPU).
    pub native: Duration,
    /// Connector-path latency.
    pub connector: Duration,
    /// Connector overhead in percent.
    pub overhead_pct: f64,
    /// Whether the connector returned the native rows, as a multiset.
    pub same_rows: bool,
}

/// Build the Druid table (`druid.prod.events`) and the 20-query mix.
pub fn build(rows: usize) -> Result<Fig16Workload> {
    let connector = druid_connector();
    let schema = Schema::new(vec![
        Field::new("ts", DataType::Timestamp),
        Field::new("country", DataType::Varchar),
        Field::new("device", DataType::Varchar),
        Field::new("campaign", DataType::Varchar),
        Field::new("clicks", DataType::Bigint),
        Field::new("revenue", DataType::Double),
    ])?;
    connector.store().create_table("prod", "events", schema)?;
    let countries = ["us", "in", "br", "de", "jp", "fr", "gb", "mx"];
    let devices = ["ios", "android", "web"];
    let events: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Timestamp(i as i64 * 100),
                Value::Varchar(countries[i % 8].into()),
                Value::Varchar(devices[i % 3].into()),
                Value::Varchar(format!("camp{}", i % 40)),
                Value::Bigint((i % 100) as i64),
                Value::Double((i % 1000) as f64 / 10.0),
            ]
        })
        .collect();
    connector.store().ingest("prod", "events", events)?;

    let engine = PrestoEngine::new();
    engine.register_catalog("druid", std::sync::Arc::new(connector.clone()));

    let eq = |col: &str, v: &str| (col.to_string(), ScalarPredicate::Eq(Value::Varchar(v.into())));
    let agg_count = (AggregateFunction::CountStar, None::<String>);
    let sum_clicks = (AggregateFunction::Sum, Some("clicks".to_string()));
    let max_rev = (AggregateFunction::Max, Some("revenue".to_string()));
    let min_rev = (AggregateFunction::Min, Some("revenue".to_string()));

    // 20 queries: q01–q12 aggregations (q01–q09 predicated), q13–q17 limits
    // (q13–q16 predicated), q18–q20 scans (q18 predicated) → 14 predicates,
    // 5 limits, 12 aggregations, as in the paper.
    type Filters = Vec<(String, ScalarPredicate)>;
    type AggSpec<'a> = (&'a str, Filters, Vec<&'a str>, Vec<(AggregateFunction, Option<String>)>);
    let mut queries = Vec::new();
    let agg_specs: Vec<AggSpec<'_>> = vec![
        ("q01", vec![eq("country", "us")], vec!["device"], vec![agg_count.clone()]),
        ("q02", vec![eq("country", "in")], vec!["device"], vec![sum_clicks.clone()]),
        (
            "q03",
            vec![eq("device", "ios")],
            vec!["country"],
            vec![agg_count.clone(), sum_clicks.clone()],
        ),
        ("q04", vec![eq("device", "android")], vec!["country"], vec![max_rev.clone()]),
        ("q05", vec![eq("country", "br"), eq("device", "web")], vec![], vec![agg_count.clone()]),
        ("q06", vec![eq("campaign", "camp7")], vec!["country"], vec![sum_clicks.clone()]),
        ("q07", vec![eq("country", "de")], vec!["campaign"], vec![agg_count.clone()]),
        ("q08", vec![eq("device", "web")], vec!["country"], vec![min_rev.clone()]),
        (
            "q09",
            vec![(
                "clicks".to_string(),
                ScalarPredicate::Range { min: Some(Value::Bigint(90)), max: None },
            )],
            vec!["device"],
            vec![agg_count.clone()],
        ),
        ("q10", vec![], vec!["country"], vec![agg_count.clone(), sum_clicks.clone()]),
        ("q11", vec![], vec!["device"], vec![max_rev.clone(), min_rev.clone()]),
        ("q12", vec![], vec![], vec![sum_clicks.clone(), agg_count.clone()]),
    ];
    for (name, filters, group_by, aggregates) in agg_specs {
        let where_sql = filters_to_sql(&filters);
        let group_cols: Vec<String> = group_by.iter().map(|s| s.to_string()).collect();
        let select_aggs: Vec<String> = aggregates
            .iter()
            .map(|(f, arg)| match arg {
                None => "count(*)".to_string(),
                Some(a) => format!("{}({a})", f.name()),
            })
            .collect();
        let select = if group_cols.is_empty() {
            select_aggs.join(", ")
        } else {
            format!("{}, {}", group_cols.join(", "), select_aggs.join(", "))
        };
        let group_clause = if group_cols.is_empty() {
            String::new()
        } else {
            format!(" GROUP BY {}", group_cols.join(", "))
        };
        queries.push(Fig16Query {
            name: name.to_string(),
            sql: format!("SELECT {select} FROM events{where_sql}{group_clause}"),
            native: NativeQuery {
                filters: filters.clone(),
                group_by: group_cols,
                aggregates,
                limit: None,
            },
            native_scan_columns: None,
        });
    }
    // limit queries
    let limit_specs: Vec<(&str, Filters, usize)> = vec![
        ("q13", vec![eq("country", "us")], 100),
        ("q14", vec![eq("device", "ios")], 50),
        ("q15", vec![eq("campaign", "camp3")], 200),
        ("q16", vec![eq("country", "jp")], 20),
        ("q17", vec![], 100),
    ];
    for (name, filters, limit) in limit_specs {
        let where_sql = filters_to_sql(&filters);
        queries.push(Fig16Query {
            name: name.to_string(),
            sql: format!("SELECT country, device, clicks FROM events{where_sql} LIMIT {limit}"),
            native: NativeQuery {
                filters: filters.clone(),
                group_by: vec![],
                aggregates: vec![],
                limit: Some(limit),
            },
            native_scan_columns: Some(vec!["country".into(), "device".into(), "clicks".into()]),
        });
    }
    // projection scans (bounded output via a selective predicate on q18;
    // q19/q20 scan narrow projections)
    let scan_specs: Vec<(&str, Filters, Vec<&str>)> = vec![
        ("q18", vec![eq("campaign", "camp11")], vec!["campaign", "revenue"]),
        ("q19", vec![], vec!["country"]),
        ("q20", vec![], vec!["clicks"]),
    ];
    for (name, filters, cols) in scan_specs {
        let where_sql = filters_to_sql(&filters);
        queries.push(Fig16Query {
            name: name.to_string(),
            sql: format!("SELECT {} FROM events{where_sql}", cols.join(", ")),
            native: NativeQuery {
                filters: filters.clone(),
                group_by: vec![],
                aggregates: vec![],
                limit: None,
            },
            native_scan_columns: Some(cols.iter().map(|s| s.to_string()).collect()),
        });
    }
    Ok(Fig16Workload { engine, connector, queries })
}

fn filters_to_sql(filters: &[(String, ScalarPredicate)]) -> String {
    if filters.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = filters
        .iter()
        .map(|(col, p)| match p {
            ScalarPredicate::Eq(Value::Varchar(s)) => format!("{col} = '{s}'"),
            ScalarPredicate::Range { min: Some(v), max: None } => format!("{col} >= {v}"),
            other => unreachable!("the Fig 16 mix has no {other:?} filter"),
        })
        .collect();
    format!(" WHERE {}", parts.join(" AND "))
}

/// Rows in one total order, so two answers compare as multisets.
fn multiset(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let cmp = |a: &Vec<Value>, b: &Vec<Value>| {
        let first_difference = a.iter().zip(b).map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne());
        first_difference.unwrap_or_else(|| a.len().cmp(&b.len()))
    };
    rows.sort_by(cmp);
    rows
}

/// Run one query both ways: latencies, and whether the answers agree.
pub fn run_query(workload: &Fig16Workload, query: &Fig16Query) -> Result<Fig16Result> {
    // ---- native Druid path
    let store = workload.connector.store();
    #[allow(clippy::disallowed_methods, reason = "the figure reports real query latency")]
    let start = Instant::now();
    let (native_rows, virtual_cost) = match &query.native_scan_columns {
        None => {
            let result = store.execute_native("prod", "events", &query.native, None)?;
            (result.rows, result.cost)
        }
        Some(cols) => {
            let (native, limit) = (&query.native, query.native.limit);
            let (rows, cost) =
                store.scan_segments("prod", "events", cols, &native.filters, limit, None)?;
            (rows, cost.total())
        }
    };
    let native = start.elapsed() + virtual_cost;

    // ---- connector path (SQL through the engine, pushdowns on). Splits
    // run on parallel workers, so the virtual latency is the slowest
    // split's store cost, not the sum.
    workload.connector.take_last_scan_costs();
    let session = Session::new("druid", "prod");
    #[allow(clippy::disallowed_methods, reason = "the figure reports real query latency")]
    let start = Instant::now();
    let result = workload.engine.execute_with_session(&query.sql, &session)?;
    let split_costs = workload.connector.take_last_scan_costs();
    // Filter work runs on parallel workers (max); stream-out is serialized
    // toward the client (sum) — except for limit queries, where the client
    // cancels the remaining splits once the limit is satisfied (max).
    let filter: Duration = split_costs.iter().map(|c| c.filter).max().unwrap_or_default();
    let stream: Duration = if query.native.limit.is_some() {
        split_costs.iter().map(|c| c.stream).max().unwrap_or_default()
    } else {
        split_costs.iter().map(|c| c.stream).sum()
    };
    let connector = start.elapsed() + filter + stream;

    let overhead_pct = (connector.as_secs_f64() / native.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    let same_rows = multiset(result.rows()) == multiset(native_rows);
    Ok(Fig16Result { name: query.name.clone(), native, connector, overhead_pct, same_rows })
}

/// Run the whole figure.
pub fn run(rows: usize) -> Result<Vec<Fig16Result>> {
    let workload = build(rows)?;
    workload.queries.iter().map(|q| run_query(&workload, q)).collect()
}

/// The gate of Fig 16: the connector answers every query with the native
/// rows — an overhead measured against another answer measures nothing.
fn same_rows_gate(results: &[Fig16Result]) -> Gate {
    let differing: Vec<&str> =
        results.iter().filter(|r| !r.same_rows).map(|r| r.name.as_str()).collect();
    let detail = format!("the connector's rows differ from the native rows for {differing:?}");
    Gate::new("the connector returns the native rows for every query", differing.is_empty(), detail)
}

/// `paper-experiments fig16`: wall-clock, gated on the two paths' answers.
pub fn report() -> Result<Report> {
    let mut report = Report::new("\n=== Fig 16: Druid vs Presto-Druid connector ===");
    report.line("paper claim: connector adds <15% overhead; most queries < 1s\n");
    let results = run(200_000)?;
    let mut table = Table::new(
        "20 production-style queries (14 predicated, 5 limited, 12 aggregations)",
        &["query", "druid native", "presto-druid connector", "overhead"],
    );
    for r in &results {
        table.row(vec![
            r.name.clone(),
            ms(r.native),
            ms(r.connector),
            format!("{:+.1}%", r.overhead_pct),
        ]);
    }
    report.line(table.render());
    let mut overheads: Vec<f64> = results.iter().map(|r| r.overhead_pct).collect();
    overheads.sort_by(f64::total_cmp);
    let sub_second = results.iter().filter(|r| r.connector < Duration::from_secs(1)).count();
    report.line(format!("median overhead: {:+.1}%  (paper: <15%)", overheads[overheads.len() / 2]));
    report.line(format!("queries under 1s through the connector: {sub_second}/20\n"));
    report.gates.push(same_rows_gate(&results));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    #[test]
    fn query_mix_matches_the_paper() {
        let w = build(5_000).unwrap();
        assert_eq!(w.queries.len(), 20);
        let with_predicates = w.queries.iter().filter(|q| !q.native.filters.is_empty()).count();
        let with_limits = w.queries.iter().filter(|q| q.native.limit.is_some()).count();
        let aggregations = w.queries.iter().filter(|q| !q.native.aggregates.is_empty()).count();
        assert_eq!(with_predicates, 14);
        assert_eq!(with_limits, 5);
        assert_eq!(aggregations, 12);
    }

    #[test]
    fn connector_and_native_agree_on_every_query() {
        let results = run(10_000).unwrap();
        assert_eq!(results.len(), 20);
        assert_gates(&[same_rows_gate(&results)]);
    }

    #[test]
    fn latencies_are_produced_for_all_queries() {
        let results = run(5_000).unwrap();
        assert_eq!(results.len(), 20);
        for r in &results {
            assert!(r.native > Duration::ZERO, "{}", r.name);
            assert!(r.connector > Duration::ZERO, "{}", r.name);
        }
    }
}
