//! Fig 17: legacy vs new Parquet reader on a nested production-style
//! workload.
//!
//! "We take 21 of Uber production Presto queries, 4 of them are table scans,
//! where 2 of them are needle in a haystack type table scan. 5 of them are
//! group by queries, and another 12 of them are joins. ... our new Parquet
//! reader consistently achieves 2X – 10X speedup."
//!
//! The table is an Uber-trips-shaped nested schema (a `base` struct with 16
//! scalar fields, a nested struct, an array and a map — 20 leaves), written
//! with rows clustered by `city_id` so row-group statistics are tight, in
//! two `datestr` partitions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use presto_common::metrics::CounterSet;
use presto_common::{Block, DataType, Field, Page, Result, Schema, Value};
use presto_connectors::hive::{HiveConnector, HiveReaderConfig};
use presto_connectors::mysql::MySqlConnector;
use presto_core::{PrestoEngine, Session};
use presto_parquet::{WriterMode, WriterProperties};
use presto_storage::HdfsFileSystem;

use crate::report::{ms, Gate, Report, Table};

/// Query category, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Plain table scan.
    Scan,
    /// Needle-in-a-haystack scan (benefits from stats/dictionary skipping).
    NeedleScan,
    /// GROUP BY aggregation.
    GroupBy,
    /// Join with a dimension table.
    Join,
}

/// One benchmark query.
pub struct Fig17Query {
    /// Label `q01`..`q21`.
    pub name: String,
    /// The SQL.
    pub sql: String,
    /// Category.
    pub kind: QueryKind,
}

/// The built workload.
pub struct Fig17Workload {
    /// Engine with `hive` + `mysql` catalogs.
    pub engine: PrestoEngine,
    /// The Hive connector (reader switchboard).
    pub hive: HiveConnector,
    /// The simulated HDFS (virtual I/O clock).
    pub hdfs: HdfsFileSystem,
    /// The 21 queries.
    pub queries: Vec<Fig17Query>,
}

/// Per-query comparison.
#[derive(Debug, Clone)]
pub struct Fig17Result {
    /// Query label.
    pub name: String,
    /// Category.
    pub kind: QueryKind,
    /// Legacy-reader wall time.
    pub old_reader: Duration,
    /// New-reader wall time.
    pub new_reader: Duration,
    /// old / new.
    pub speedup: f64,
    /// Whether both readers returned the same multiset of rows.
    pub same_rows: bool,
}

/// The nested trips file schema (20 leaf columns).
pub fn trips_schema() -> Schema {
    let base_fields = vec![
        Field::new("driver_uuid", DataType::Varchar),
        Field::new("client_uuid", DataType::Varchar),
        Field::new("city_id", DataType::Bigint),
        Field::new("vehicle_id", DataType::Bigint),
        Field::new("status", DataType::Varchar),
        Field::new("product", DataType::Varchar),
        Field::new("fare", DataType::Double),
        Field::new("tip", DataType::Double),
        Field::new("distance_km", DataType::Double),
        Field::new("duration_s", DataType::Bigint),
        Field::new("surge", DataType::Double),
        Field::new("rating", DataType::Integer),
        Field::new("dest_lng", DataType::Double),
        Field::new("dest_lat", DataType::Double),
        Field::new("request_ts", DataType::Timestamp),
        Field::new("dropoff_ts", DataType::Timestamp),
        Field::new(
            "workflow",
            DataType::row(vec![
                Field::new("code", DataType::Integer),
                Field::new("tags", DataType::array(DataType::Varchar)),
            ]),
        ),
        Field::new("features", DataType::map(DataType::Varchar, DataType::Double)),
    ];
    Schema::new(vec![Field::new("base", DataType::row(base_fields))]).unwrap()
}

const STATUSES: [&str; 4] = ["completed", "canceled", "arrived", "dispatched"];
const PRODUCTS: [&str; 5] = ["uberx", "pool", "black", "xl", "eats"];

/// Build the warehouse and dimension table.
pub fn build(rows_per_partition: usize) -> Fig17Workload {
    let hdfs = HdfsFileSystem::with_defaults();
    let hive = HiveConnector::new(Arc::new(hdfs.clone()), CounterSet::new());
    hive.register_table(
        "rawdata",
        "trips",
        trips_schema(),
        "/warehouse/rawdata/trips",
        Some("datestr"),
    );
    let base_type = trips_schema().field_at(0).data_type.clone();
    let num_cities = 50i64;
    for day in ["2017-03-01", "2017-03-02"] {
        hive.add_partition("rawdata", "trips", day, true).unwrap();
        // rows clustered by city_id → tight row-group min/max stats
        let rows: Vec<Value> = (0..rows_per_partition)
            .map(|i| {
                let city = (i as i64 * num_cities) / rows_per_partition as i64;
                Value::Row(vec![
                    Value::Varchar(format!("driver-{:06}", i % 5000)),
                    Value::Varchar(format!("client-{:06}", i % 20_000)),
                    Value::Bigint(city),
                    Value::Bigint((i % 3000) as i64),
                    Value::Varchar(STATUSES[i % 4].into()),
                    Value::Varchar(PRODUCTS[i % 5].into()),
                    Value::Double(5.0 + (i % 80) as f64 * 0.5),
                    Value::Double((i % 10) as f64 * 0.25),
                    Value::Double(1.0 + (i % 300) as f64 / 10.0),
                    Value::Bigint(300 + (i % 3600) as i64),
                    Value::Double(1.0 + (i % 5) as f64 * 0.1),
                    Value::Integer((i % 5) as i32 + 1),
                    Value::Double(-122.4 + (i % 100) as f64 / 1000.0),
                    Value::Double(37.7 + (i % 100) as f64 / 1000.0),
                    Value::Timestamp(i as i64 * 1000),
                    Value::Timestamp(i as i64 * 1000 + 900_000),
                    Value::Row(vec![
                        Value::Integer((i % 7) as i32),
                        Value::Array(vec![Value::Varchar(format!("tag{}", i % 3))]),
                    ]),
                    Value::Map(vec![
                        (Value::Varchar("eta_error".into()), Value::Double((i % 9) as f64)),
                        (Value::Varchar("route_score".into()), Value::Double((i % 17) as f64)),
                    ]),
                ])
            })
            .collect();
        let page = Page::new(vec![Block::from_values(&base_type, &rows).unwrap()]).unwrap();
        hive.write_data_file(
            "rawdata",
            "trips",
            Some(day),
            "part-0.upq",
            &[page],
            WriterMode::Native,
            WriterProperties {
                row_group_rows: rows_per_partition / 16,
                ..WriterProperties::default()
            },
        )
        .unwrap();
    }

    let mysql = MySqlConnector::new();
    mysql
        .create_table(
            "ops",
            "cities",
            Schema::new(vec![
                Field::new("city_id", DataType::Bigint),
                Field::new("name", DataType::Varchar),
                Field::new("region", DataType::Varchar),
            ])
            .unwrap(),
        )
        .unwrap();
    mysql
        .insert(
            "ops",
            "cities",
            (0..num_cities)
                .map(|c| {
                    vec![
                        Value::Bigint(c),
                        Value::Varchar(format!("city{c}")),
                        Value::Varchar(format!("region{}", c % 5)),
                    ]
                })
                .collect(),
        )
        .unwrap();

    let engine = PrestoEngine::new();
    engine.register_catalog("hive", Arc::new(hive.clone()));
    engine.register_catalog("mysql", Arc::new(mysql));

    let q = |name: &str, kind: QueryKind, sql: &str| Fig17Query {
        name: name.into(),
        kind,
        sql: sql.into(),
    };
    let queries = vec![
        // ---- 4 table scans, 2 of them needle-in-a-haystack
        q("q01", QueryKind::Scan,
          "SELECT base.driver_uuid, base.client_uuid, base.fare, base.tip, base.distance_km, base.duration_s, base.surge, base.rating FROM trips WHERE datestr = '2017-03-01'"),
        q("q02", QueryKind::Scan,
          "SELECT base.city_id, base.status, base.product, base.workflow, base.features FROM trips"),
        q("q03", QueryKind::NeedleScan,
          "SELECT base.driver_uuid FROM trips WHERE datestr = '2017-03-02' AND base.city_id IN (12)"),
        q("q04", QueryKind::NeedleScan,
          "SELECT base.client_uuid FROM trips WHERE base.city_id = 49 AND base.rating = 5"),
        // ---- 5 group bys
        q("q05", QueryKind::GroupBy,
          "SELECT base.status, count(*), sum(base.fare), sum(base.tip), avg(base.distance_km) FROM trips GROUP BY 1"),
        q("q06", QueryKind::GroupBy,
          "SELECT base.city_id, sum(base.fare) FROM trips GROUP BY 1 ORDER BY 2 DESC LIMIT 10"),
        q("q07", QueryKind::GroupBy,
          "SELECT base.product, avg(base.distance_km) FROM trips WHERE datestr = '2017-03-01' GROUP BY 1"),
        q("q08", QueryKind::GroupBy,
          "SELECT base.rating, count(*), max(base.tip), min(base.fare), sum(base.duration_s) FROM trips GROUP BY 1 ORDER BY 1"),
        q("q09", QueryKind::GroupBy,
          "SELECT datestr, sum(base.surge * base.fare) FROM trips GROUP BY 1"),
        // ---- 12 joins
        q("q10", QueryKind::Join,
          "SELECT c.name, count(*), sum(t.base.fare), sum(t.base.tip), avg(t.base.surge) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id GROUP BY 1 ORDER BY 2 DESC LIMIT 5"),
        q("q11", QueryKind::Join,
          "SELECT c.region, sum(t.base.fare) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id GROUP BY 1"),
        q("q12", QueryKind::Join,
          "SELECT c.name, t.base.driver_uuid, t.base.client_uuid, t.base.status, t.base.fare FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id WHERE t.base.city_id = 7 LIMIT 20"),
        q("q13", QueryKind::Join,
          "SELECT c.region, avg(t.base.tip) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-01' GROUP BY 1"),
        q("q14", QueryKind::Join,
          "SELECT c.name, max(t.base.fare) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id WHERE t.base.status = 'completed' GROUP BY 1 ORDER BY 2 DESC LIMIT 10"),
        q("q15", QueryKind::Join,
          "SELECT c.region, count(*) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id WHERE t.base.product = 'pool' GROUP BY 1"),
        q("q16", QueryKind::Join,
          "SELECT t.base.driver_uuid, c.name FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id WHERE t.base.city_id IN (3, 5) AND t.base.rating >= 4 LIMIT 50"),
        q("q17", QueryKind::Join,
          "SELECT c.name, sum(t.base.duration_s) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id WHERE t.datestr = '2017-03-02' GROUP BY 1 ORDER BY 2 DESC LIMIT 8"),
        q("q18", QueryKind::Join,
          "SELECT c.region, min(t.base.fare), max(t.base.fare), sum(t.base.distance_km), sum(t.base.duration_s), count(*) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id GROUP BY 1"),
        q("q19", QueryKind::Join,
          "SELECT c.name, count(*) FROM trips t LEFT JOIN mysql.ops.cities c ON t.base.city_id = c.city_id GROUP BY 1 ORDER BY 2 DESC LIMIT 5"),
        q("q20", QueryKind::Join,
          "SELECT c.region, count(*) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id WHERE t.base.surge >= 1.3 GROUP BY 1"),
        q("q21", QueryKind::Join,
          "SELECT c.name, avg(t.base.distance_km) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id WHERE t.base.status = 'canceled' AND t.datestr = '2017-03-01' GROUP BY 1 ORDER BY 1 LIMIT 10"),
    ];
    Fig17Workload { engine, hive, hdfs, queries }
}

/// Execute one query under a reader configuration: its latency and its rows,
/// sorted (a multiset). Latency = real CPU time plus the virtual I/O time
/// the simulated HDFS charged (the paper's testbed pays real network/disk
/// I/O; the legacy reader moves far more bytes).
pub fn time_query(
    workload: &Fig17Workload,
    sql: &str,
    legacy: bool,
) -> Result<(Duration, Vec<Vec<Value>>)> {
    workload.hive.set_reader_config(HiveReaderConfig { use_legacy_reader: legacy });
    let session = Session::new("hive", "rawdata");
    let io_before = workload.hdfs.clock().now();
    #[allow(clippy::disallowed_methods, reason = "the figure reports real query latency")]
    let start = Instant::now();
    let result = workload.engine.execute_with_session(sql, &session)?;
    let elapsed = start.elapsed() + (workload.hdfs.clock().now() - io_before);
    let mut rows = result.rows();
    let key = |r: &Vec<Value>| r.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("|");
    rows.sort_by_cached_key(key);
    Ok((elapsed, rows))
}

/// Run the full figure (one measured pass per reader per query).
pub fn run(rows_per_partition: usize) -> Result<Vec<Fig17Result>> {
    let workload = build(rows_per_partition);
    workload
        .queries
        .iter()
        .map(|q| {
            let (old_reader, old_rows) = time_query(&workload, &q.sql, true)?;
            let (new_reader, new_rows) = time_query(&workload, &q.sql, false)?;
            Ok(Fig17Result {
                name: q.name.clone(),
                kind: q.kind,
                old_reader,
                new_reader,
                speedup: old_reader.as_secs_f64() / new_reader.as_secs_f64().max(1e-12),
                same_rows: old_rows == new_rows,
            })
        })
        .collect()
}

/// The gate of Fig 17: the two reader generations answer every query alike
/// — a faster reader that returns other rows measures nothing.
fn same_rows_gate(results: &[Fig17Result]) -> Gate {
    let differing: Vec<&str> =
        results.iter().filter(|r| !r.same_rows).map(|r| r.name.as_str()).collect();
    let detail = format!("the readers' rows differ for {differing:?}");
    Gate::new("both readers return the same rows for every query", differing.is_empty(), detail)
}

/// `paper-experiments fig17`: wall-clock, gated on the two readers' answers.
pub fn report() -> Result<Report> {
    let mut report = Report::new("\n=== Fig 17: legacy vs new Parquet reader ===");
    report.line("paper claim: 2–10x speedup across 21 queries; P90 5min → 40s\n");
    let results = run(60_000)?;
    let mut table = Table::new(
        "21 queries over nested trips (4 scans incl. 2 needle-in-haystack, 5 group-bys, 12 joins)",
        &["query", "kind", "old reader", "new reader", "speedup"],
    );
    for r in &results {
        table.row(vec![
            r.name.clone(),
            format!("{:?}", r.kind),
            ms(r.old_reader),
            ms(r.new_reader),
            format!("{:.1}x", r.speedup),
        ]);
    }
    report.line(table.render());
    let mut speedups: Vec<f64> = results.iter().map(|r| r.speedup).collect();
    speedups.sort_by(f64::total_cmp);
    report.line(format!(
        "speedup min/median/max: {:.1}x / {:.1}x / {:.1}x  (paper: 2–10x)\n",
        speedups[0],
        speedups[speedups.len() / 2],
        speedups[speedups.len() - 1]
    ));
    let same_rows = same_rows_gate(&results);
    if same_rows.passed {
        report
            .line(format!("both readers returned the same rows for all {} queries", results.len()));
    }
    report.gates.push(same_rows);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    #[test]
    fn workload_shape_matches_the_paper() {
        let w = build(2_000);
        assert_eq!(w.queries.len(), 21);
        let count = |k: QueryKind| w.queries.iter().filter(|q| q.kind == k).count();
        assert_eq!(count(QueryKind::Scan) + count(QueryKind::NeedleScan), 4);
        assert_eq!(count(QueryKind::NeedleScan), 2);
        assert_eq!(count(QueryKind::GroupBy), 5);
        assert_eq!(count(QueryKind::Join), 12);
        // the schema really is wide and nested
        assert_eq!(trips_schema().leaf_count(), 20);
        assert!(trips_schema().field_at(0).data_type.nesting_depth() >= 2);
    }

    #[test]
    fn both_readers_agree_on_every_query() {
        let results = run(2_000).unwrap();
        assert_eq!(results.len(), 21);
        assert_gates(&[same_rows_gate(&results)]);
    }
}
