//! `SELECT count(*)` names no column, so no source is asked for one: the
//! plan shows a scan of no columns, every connector (and both Parquet
//! readers) answers with zero-column pages that carry only a row count, and
//! those pages cross a cluster's exchange and its fragment cache. A
//! connector that can aggregate still gets the whole aggregate instead. A
//! join under `count(*)` reads its join keys alone.

use std::sync::Arc;

use presto_at_scale::fixtures::demo_platform;
use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::names;
use presto_common::{Block, DataType, Field, Page, Schema, SimClock, Value};
use presto_connectors::hive::HiveReaderConfig;
use presto_connectors::memory::MemoryConnector;
use presto_connectors::pinot::pinot_connector;
use presto_core::{PrestoEngine, Session};
use presto_plan::OptimizerConfig;

const TRIPS_PER_DAY: usize = 2_500; // three 1,000-row row groups a file

fn count(engine: &PrestoEngine, sql: &str, session: &Session) -> i64 {
    let rows = engine.execute_with_session(sql, session).unwrap().rows();
    assert_eq!(rows.len(), 1, "{sql}");
    rows[0][0].as_i64().unwrap()
}

#[test]
fn count_star_reads_no_column_from_any_source() {
    let platform = demo_platform(TRIPS_PER_DAY);
    let engine = &platform.engine;
    let memory = MemoryConnector::new();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("name", DataType::Varchar),
    ])
    .unwrap();
    let page = |from: i64| {
        let ids: Vec<i64> = (from..from + 50).collect();
        let names: Vec<String> = ids.iter().map(|i| format!("n{i}")).collect();
        Page::new(vec![Block::bigint(ids), Block::varchar(&names)]).unwrap()
    };
    memory.create_table("default", "t", schema, vec![page(0), page(50), page(100)]).unwrap();
    engine.register_catalog("memory", Arc::new(memory));

    let sources = [
        ("memory", "default", "SELECT count(*) FROM t", 150),
        ("tpch", "tiny", "SELECT count(*) FROM lineitem", 20_000),
        ("mysql", "ops", "SELECT count(*) FROM cities", 25),
        ("hive", "rawdata", "SELECT count(*) FROM trips", 3 * TRIPS_PER_DAY as i64),
        // the partition predicate is pushed down; nothing is left to read
        (
            "hive",
            "rawdata",
            "SELECT count(*) FROM trips WHERE datestr = '2017-03-02'",
            TRIPS_PER_DAY as i64,
        ),
    ];
    for legacy in [false, true] {
        platform.hive.set_reader_config(HiveReaderConfig { use_legacy_reader: legacy });
        for (catalog, schema, sql, expected) in sources {
            let session = Session::new(catalog, schema);
            let plan = engine.explain(sql, &session).unwrap();
            let scan = plan.lines().last().unwrap().trim();
            assert!(scan.starts_with("TableScan[") && scan.contains("no columns"), "{sql}\n{plan}");
            assert!(!plan.contains("Project[]"), "{sql}\n{plan}");
            assert_eq!(count(engine, sql, &session), expected, "{sql} (legacy reader: {legacy})");
        }
    }
    platform.hive.set_reader_config(HiveReaderConfig::default());

    // a filter the source cannot take keeps exactly the column it tests
    let session = Session::new("tpch", "tiny");
    let sql = "SELECT count(*) FROM lineitem WHERE quantity * 2 < 10";
    let plan = engine.explain(sql, &session).unwrap();
    assert!(plan.contains("Project[]") && !plan.contains("no columns"), "{plan}");
    let all_columns =
        engine.execute_with_session("SELECT * FROM lineitem WHERE quantity * 2 < 10", &session);
    let expected = all_columns.unwrap().row_count();
    assert!(expected > 0 && expected < 20_000);
    assert_eq!(count(engine, sql, &session), expected as i64);
}

#[test]
fn zero_column_pages_cross_the_exchange_and_the_fragment_cache() {
    let platform = demo_platform(TRIPS_PER_DAY);
    let config = ClusterConfig {
        initial_workers: 4,
        affinity_scheduling: true,
        fragment_cache_entries: 64,
        ..ClusterConfig::default()
    };
    let cluster = PrestoCluster::new("zero-column", platform.engine, config, SimClock::new());
    for (catalog, schema, sql, expected) in [
        ("hive", "rawdata", "SELECT count(*) FROM trips", 3 * TRIPS_PER_DAY as i64),
        ("tpch", "tiny", "SELECT count(*) FROM lineitem", 20_000),
    ] {
        let session = Session::new(catalog, schema);
        // cold, then answered from the workers' fragment caches
        for run in 0..2 {
            let result = cluster.execute(sql, &session).unwrap();
            assert_eq!(result.rows(), vec![vec![Value::Bigint(expected)]], "{sql} run {run}");
        }
    }
    assert!(cluster.metrics().get(names::FRC_HITS) > 0);
    assert_eq!(cluster.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
}

#[test]
fn aggregating_connectors_still_take_the_whole_count() {
    let platform = demo_platform(100);
    let engine = &platform.engine;
    let pinot = pinot_connector();
    let schema = Schema::new(vec![
        Field::new("ts", DataType::Timestamp),
        Field::new("city", DataType::Varchar),
    ])
    .unwrap();
    pinot.store().create_table("realtime", "orders", schema).unwrap();
    let events = (0..60).map(|i| vec![Value::Timestamp(i), Value::Varchar(format!("c{}", i % 3))]);
    pinot.store().ingest("realtime", "orders", events.collect()).unwrap();
    engine.register_catalog("pinot", Arc::new(pinot));

    for (catalog, expected) in [("druid", 400), ("pinot", 60)] {
        let session = Session::new(catalog, "realtime");
        // the plan text of the commit before count(*) scans lost their columns
        assert_eq!(
            engine.explain("SELECT count(*) FROM orders", &session).unwrap(),
            format!(
                "Output[count_star]\n  Project[count_star]\n    \
                 Aggregate final[groups=0, count(agg_0)]\n      \
                 TableScan[{catalog}.realtime.orders: aggregation pushed down]\n"
            )
        );
        assert_eq!(count(engine, "SELECT count(*) FROM orders", &session), expected);
    }
}

const SELF_JOIN: &str = "SELECT count(*) FROM lineitem a JOIN lineitem b \
                         ON a.orderkey = b.orderkey AND a.linenumber = b.linenumber";

/// `count(*)` over a join names no column either: each side is narrowed to
/// its join keys instead of reading every column, and the join emits none
/// of the four.
#[test]
fn count_star_over_a_join_reads_only_the_join_keys() {
    let platform = demo_platform(100);
    let plan = platform.engine.explain(SELF_JOIN, &Session::new("tpch", "tiny")).unwrap();
    let lines: Vec<&str> = plan.lines().map(str::trim).collect();
    let join = lines.iter().position(|l| *l == "InnerJoin[keys=2, output=0/4]").expect(&plan);
    assert_eq!(lines[join - 1], "Project[]", "{plan}");
    assert_eq!(
        lines.iter().filter(|l| **l == "Project[orderkey, linenumber]").count(),
        2,
        "{plan}"
    );
}

#[test]
fn count_star_over_a_join_counts_what_the_unpruned_join_counts() {
    let platform = demo_platform(100);
    let unpruned = OptimizerConfig { projection_pushdown: false, ..OptimizerConfig::default() };
    for (catalog, schema, sql, expected) in [
        ("tpch", "tiny", SELF_JOIN, 20_000),
        (
            "tpch",
            "tiny",
            "SELECT count(*) FROM lineitem a LEFT JOIN lineitem b \
             ON a.orderkey = b.orderkey AND a.linenumber < b.linenumber",
            35_000,
        ),
        (
            "hive",
            "rawdata",
            "SELECT count(*) FROM trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id",
            300,
        ),
    ] {
        let session = Session::new(catalog, schema);
        let reference = session.clone().with_optimizer(unpruned.clone());
        assert!(!platform.engine.explain(sql, &reference).unwrap().contains("Project[]"), "{sql}");
        assert_eq!(count(&platform.engine, sql, &reference), expected, "{sql}");
        assert_eq!(count(&platform.engine, sql, &session), expected, "{sql}");
    }
}
