//! §V.A integration test: schema evolution through the whole stack — files
//! written under old schemas queried under evolved table schemas.

use std::sync::Arc;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::CounterSet;
use presto_common::SimClock;
use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::hive::HiveConnector;
use presto_core::{PrestoEngine, Session};
use presto_parquet::{WriterMode, WriterProperties};
use presto_storage::HdfsFileSystem;

fn v1_schema() -> Schema {
    Schema::new(vec![Field::new(
        "base",
        DataType::row(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new("city_id", DataType::Bigint),
        ]),
    )])
    .unwrap()
}

fn v2_schema() -> Schema {
    // v2 adds base.surge and drops nothing
    Schema::new(vec![Field::new(
        "base",
        DataType::row(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new("city_id", DataType::Bigint),
            Field::new("surge", DataType::Double),
        ]),
    )])
    .unwrap()
}

/// Write one file under `file_schema` with `rows` trips.
fn write_file(hive: &HiveConnector, partition: &str, file_schema: &Schema, rows: usize) {
    let base_type = file_schema.field_at(0).data_type.clone();
    let width = match &base_type {
        DataType::Row(fields) => fields.len(),
        _ => unreachable!(),
    };
    let values: Vec<Value> = (0..rows)
        .map(|i| {
            let mut fields = vec![
                Value::Varchar(format!("drv-{partition}-{i}")),
                Value::Bigint((i % 10) as i64),
            ];
            if width > 2 {
                fields.push(Value::Double(1.0 + i as f64 / 100.0));
            }
            Value::Row(fields)
        })
        .collect();
    let page = Page::new(vec![Block::from_values(&base_type, &values).unwrap()]).unwrap();
    hive.write_data_file(
        "rawdata",
        "trips",
        Some(partition),
        "part-0.upq",
        &[page],
        WriterMode::Native,
        WriterProperties::default(),
    )
    .unwrap();
}

/// Two partitions: old files (v1) and new files (v2); the *table* schema in
/// the metastore is v2.
fn evolved_platform() -> PrestoEngine {
    let hdfs = HdfsFileSystem::with_defaults();
    let hive = HiveConnector::new(Arc::new(hdfs), CounterSet::new());
    // register with v1 first so the old partition's files carry v1
    hive.register_table("rawdata", "trips", v1_schema(), "/w/trips", Some("datestr"));
    hive.add_partition("rawdata", "trips", "old", true).unwrap();
    write_file(&hive, "old", &v1_schema(), 50);
    // schema service upgrades the table to v2; new files carry v2
    hive.register_table("rawdata", "trips", v2_schema(), "/w/trips", Some("datestr"));
    hive.add_partition("rawdata", "trips", "old", true).unwrap();
    hive.add_partition("rawdata", "trips", "new", true).unwrap();
    write_file(&hive, "new", &v2_schema(), 50);
    let engine = PrestoEngine::new();
    engine.register_catalog("hive", Arc::new(hive));
    engine
}

#[test]
fn added_field_reads_null_in_old_files_and_values_in_new() {
    let engine = evolved_platform();
    let session = Session::new("hive", "rawdata");
    let result = engine
        .execute_with_session(
            "SELECT datestr, base.surge FROM trips ORDER BY 1 LIMIT 100",
            &session,
        )
        .unwrap();
    let rows = result.rows();
    assert_eq!(rows.len(), 100);
    for row in &rows {
        match row[0].as_str().unwrap() {
            // §V.A: "When querying newly added fields in old data ... Presto
            // will return null"
            "old" => assert!(row[1].is_null(), "old files must read NULL surge"),
            "new" => assert!(!row[1].is_null(), "new files carry surge"),
            other => panic!("unexpected partition {other}"),
        }
    }
}

#[test]
fn old_fields_still_read_everywhere() {
    let engine = evolved_platform();
    let session = Session::new("hive", "rawdata");
    let result = engine
        .execute_with_session(
            "SELECT datestr, count(*), sum(base.city_id) FROM trips GROUP BY 1 ORDER BY 1",
            &session,
        )
        .unwrap();
    let rows = result.rows();
    assert_eq!(rows.len(), 2);
    // both partitions have 50 rows, city_id sum identical
    assert_eq!(rows[0][1], rows[1][1]);
    assert_eq!(rows[0][2], rows[1][2]);
}

#[test]
fn removed_field_is_ignored_when_reading_old_files() {
    // table schema drops city_id; old files still contain it
    let hdfs = HdfsFileSystem::with_defaults();
    let hive = HiveConnector::new(Arc::new(hdfs), CounterSet::new());
    hive.register_table("rawdata", "trips", v1_schema(), "/w/trips", Some("datestr"));
    hive.add_partition("rawdata", "trips", "old", true).unwrap();
    write_file(&hive, "old", &v1_schema(), 20);
    let reduced = Schema::new(vec![Field::new(
        "base",
        DataType::row(vec![Field::new("driver_uuid", DataType::Varchar)]),
    )])
    .unwrap();
    hive.register_table("rawdata", "trips", reduced, "/w/trips", Some("datestr"));
    hive.add_partition("rawdata", "trips", "old", true).unwrap();

    let engine = PrestoEngine::new();
    engine.register_catalog("hive", Arc::new(hive));
    let session = Session::new("hive", "rawdata");
    // §V.A: "When data is continuously ingested into the already removed
    // field, Presto just ignores them."
    let result = engine.execute_with_session("SELECT base FROM trips LIMIT 3", &session).unwrap();
    for row in result.rows() {
        match &row[0] {
            Value::Row(fields) => assert_eq!(fields.len(), 1, "only driver_uuid remains"),
            other => panic!("unexpected {other}"),
        }
    }
}

#[test]
fn type_change_is_rejected() {
    let hdfs = HdfsFileSystem::with_defaults();
    let hive = HiveConnector::new(Arc::new(hdfs), CounterSet::new());
    hive.register_table("rawdata", "trips", v1_schema(), "/w/trips", Some("datestr"));
    hive.add_partition("rawdata", "trips", "old", true).unwrap();
    write_file(&hive, "old", &v1_schema(), 10);
    // retype city_id bigint → varchar
    let retyped = Schema::new(vec![Field::new(
        "base",
        DataType::row(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new("city_id", DataType::Varchar),
        ]),
    )])
    .unwrap();
    hive.register_table("rawdata", "trips", retyped, "/w/trips", Some("datestr"));
    hive.add_partition("rawdata", "trips", "old", true).unwrap();

    let engine = PrestoEngine::new();
    engine.register_catalog("hive", Arc::new(hive));
    let session = Session::new("hive", "rawdata");
    let err = engine.execute_with_session("SELECT base.city_id FROM trips", &session).unwrap_err();
    // §V.A: "Field rename and type change are not allowed ... we do not
    // allow automatic type coercion"
    assert_eq!(err.code(), "SCHEMA_EVOLUTION_ERROR");
}

#[test]
fn file_rewritten_in_place_under_v2_serves_the_new_column() {
    let hdfs = HdfsFileSystem::with_defaults();
    let hive = Arc::new(HiveConnector::new(Arc::new(hdfs), CounterSet::new()));
    hive.register_table("rawdata", "trips", v1_schema(), "/w/trips", Some("datestr"));
    hive.add_partition("rawdata", "trips", "old", true).unwrap();
    write_file(&hive, "old", &v1_schema(), 20);
    let engine = PrestoEngine::new();
    engine.register_catalog("hive", hive.clone());
    let session = Session::new("hive", "rawdata");

    // a v1 scan leaves the file's handle (its size) in the worker-side cache
    let v1 = engine.execute_with_session("SELECT base.city_id FROM trips", &session).unwrap();
    assert_eq!(v1.rows().len(), 20);

    // the schema service bumps the table to v2 and a backfill rewrites the
    // same path with the wider (longer) file
    hive.register_table("rawdata", "trips", v2_schema(), "/w/trips", Some("datestr"));
    hive.add_partition("rawdata", "trips", "old", true).unwrap();
    write_file(&hive, "old", &v2_schema(), 20);

    // the rewritten file must never be read through the stale handle: the
    // scan finds the v2 footer and every row carries the new column
    let v2 = engine.execute_with_session("SELECT base.surge FROM trips", &session).unwrap();
    assert_eq!(v2.rows().len(), 20);
    assert!(v2.rows().iter().all(|row| !row[0].is_null()), "v2 rows carry surge");
}

#[test]
fn file_rewritten_in_place_is_not_answered_from_the_fragment_cache() {
    let hive =
        Arc::new(HiveConnector::new(Arc::new(HdfsFileSystem::with_defaults()), CounterSet::new()));
    let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
    hive.register_table("s", "flat", schema, "/w/flat", None);
    let write = |values: Vec<i64>| {
        hive.write_data_file(
            "s",
            "flat",
            None,
            "part-0.upq",
            &[Page::new(vec![Block::bigint(values)]).unwrap()],
            WriterMode::Native,
            WriterProperties::default(),
        )
        .unwrap();
    };
    let engine = PrestoEngine::new();
    engine.register_catalog("hive", hive.clone());
    let cluster = PrestoCluster::new(
        "cached",
        engine.clone(),
        ClusterConfig {
            affinity_scheduling: true,
            fragment_cache_entries: 64,
            ..ClusterConfig::default()
        },
        SimClock::new(),
    );
    let session = Session::new("hive", "s");
    let sum = |through_cluster: bool| {
        let sql = "SELECT sum(x) FROM flat";
        let result = match through_cluster {
            true => cluster.execute(sql, &session),
            false => engine.execute_with_session(sql, &session),
        };
        result.unwrap().rows()[0][0].clone()
    };

    write(vec![1, 2, 3]);
    assert_eq!(sum(true), Value::Bigint(6));
    assert_eq!(sum(true), Value::Bigint(6));
    assert_eq!(cluster.metrics().get("frc.hits"), 1, "the repeat is a cache hit");

    // same path, same row count, same file size: only the bytes differ
    write(vec![10, 20, 30]);
    assert_eq!(sum(false), Value::Bigint(60));
    assert_eq!(sum(true), Value::Bigint(60), "the cluster served the file it cached");
    assert_eq!(sum(true), Value::Bigint(60));
    assert_eq!(cluster.metrics().get("frc.hits"), 2, "the new version caches in turn");
}
