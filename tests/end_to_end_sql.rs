//! End-to-end SQL over the demo platform: every connector, nested data,
//! pushdowns, and result correctness against hand-computed oracles.

use std::sync::Arc;

use presto_at_scale::fixtures::{demo_platform, DemoPlatform};
use presto_common::{Block, Field, Page, PrestoError, Schema, Value};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};
use presto_plan::{LogicalPlan, OptimizerConfig};

fn platform() -> DemoPlatform {
    demo_platform(400)
}

#[test]
fn nested_predicate_and_projection() {
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let result = p
        .engine
        .execute_with_session(
            "SELECT base.driver_uuid, base.fare FROM trips \
             WHERE datestr = '2017-03-01' AND base.city_id = 12 AND base.fare >= 10.0",
            &session,
        )
        .unwrap();
    // oracle: day index d=0, city = (i*7+0)%25 == 12 → i ≡ 16 (mod 25)... walk it
    let expected: Vec<usize> =
        (0..400).filter(|i| (i * 7) % 25 == 12 && 5.0 + (i % 50) as f64 >= 10.0).collect();
    assert_eq!(result.row_count(), expected.len());
    for (row, i) in result.rows().iter().zip(expected.iter()) {
        assert_eq!(row[0], Value::Varchar(format!("driver-2017-03-01-{i}")));
    }
}

#[test]
fn cross_connector_join_and_aggregation() {
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let result = p
        .engine
        .execute_with_session(
            "SELECT count(*) FROM hive.rawdata.trips t \
             JOIN mysql.ops.cities c ON t.base.city_id = c.city_id \
             WHERE t.datestr = '2017-03-02'",
            &session,
        )
        .unwrap();
    // every trip's city_id ∈ [0, 25) and cities has all 25 ids
    assert_eq!(result.rows(), vec![vec![Value::Bigint(400)]]);
}

#[test]
fn druid_aggregation_pushdown_matches_engine_aggregation() {
    let p = platform();
    let session = Session::new("druid", "realtime");
    let sql = "SELECT city, count(*) AS orders, sum(amount) AS gmv FROM orders \
               WHERE status = 'completed' GROUP BY city ORDER BY city";
    let pushed = p.engine.execute_with_session(sql, &session).unwrap();
    let no_push = session.clone().with_optimizer(OptimizerConfig {
        aggregation_pushdown: false,
        ..OptimizerConfig::default()
    });
    let unpushed = p.engine.execute_with_session(sql, &no_push).unwrap();
    assert_eq!(pushed.rows(), unpushed.rows());
    assert!(pushed.row_count() > 0);
}

/// Every rule off: the analyzer's plan runs as it is.
fn no_rules() -> OptimizerConfig {
    OptimizerConfig {
        constant_folding: false,
        topn_fusion: false,
        geo_rewrite: false,
        predicate_pushdown: false,
        projection_pushdown: false,
        aggregation_pushdown: false,
        limit_pushdown: false,
    }
}

#[test]
fn optimizer_on_and_off_agree_across_query_battery() {
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let unoptimized = session.clone().with_optimizer(no_rules());
    let battery = [
        "SELECT base.city_id, count(*) FROM trips GROUP BY 1 ORDER BY 1",
        "SELECT base.status, sum(base.fare) FROM trips WHERE datestr = '2017-03-01' GROUP BY 1 ORDER BY 1",
        "SELECT base.driver_uuid FROM trips WHERE base.city_id IN (1, 2, 3) AND datestr = '2017-03-02' ORDER BY 1 LIMIT 25",
        "SELECT c.city_id, count(*) FROM hive.rawdata.trips t JOIN mysql.ops.cities c \
         ON t.base.city_id = c.city_id GROUP BY 1 ORDER BY 1",
        "SELECT base.vehicle_id, max(base.fare), min(base.fare) FROM trips \
         WHERE base.fare BETWEEN 10.0 AND 30.0 GROUP BY 1 ORDER BY 1 LIMIT 10",
        "SELECT count(*) FROM trips WHERE base.status <> 'completed'",
        "SELECT DISTINCT base.status FROM trips ORDER BY 1",
    ];
    for sql in battery {
        let on = p.engine.execute_with_session(sql, &session).unwrap();
        let off = p.engine.execute_with_session(sql, &unoptimized).unwrap();
        assert_eq!(on.rows(), off.rows(), "optimizer changed results for: {sql}");
    }
}

#[test]
fn geospatial_rewrite_agrees_with_naive_st_contains() {
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let sql = "SELECT c.city_id, count(*) FROM hive.rawdata.trips t \
               JOIN mysql.ops.cities c \
               ON st_contains(c.geo_shape, st_point(t.base.dest_lng, t.base.dest_lat)) \
               WHERE t.datestr = '2017-03-01' GROUP BY 1 ORDER BY 1";
    let rewritten = p.engine.execute_with_session(sql, &session).unwrap();
    let naive_session = session
        .clone()
        .with_optimizer(OptimizerConfig { geo_rewrite: false, ..OptimizerConfig::default() });
    let naive = p.engine.execute_with_session(sql, &naive_session).unwrap();
    assert_eq!(rewritten.rows(), naive.rows());
    assert!(rewritten.row_count() > 0, "some trips must land in geofences");
    // and the rewrite actually fired, with the WHERE pushed below it into
    // the trips scan: no filter is left above the QuadTree join
    let plan = p.engine.explain(sql, &session).unwrap();
    assert!(plan.contains("GeoJoin"), "{plan}");
    assert!(plan.contains("TableScan[hive.rawdata.trips: predicate ×1"), "{plan}");
    assert!(!plan.contains("Filter"), "{plan}");

    // an ON st_contains with no WHERE is found in the join's residual
    let no_where = "SELECT c.city_id, count(*) FROM hive.rawdata.trips t \
                    JOIN mysql.ops.cities c \
                    ON st_contains(c.geo_shape, st_point(t.base.dest_lng, t.base.dest_lat)) \
                    GROUP BY 1 ORDER BY 1";
    let plan = p.engine.explain(no_where, &session).unwrap();
    assert!(plan.contains("GeoJoin"), "{plan}");
    assert_eq!(
        p.engine.execute_with_session(no_where, &session).unwrap().rows(),
        p.engine.execute_with_session(no_where, &naive_session).unwrap().rows()
    );
}

#[test]
fn a_join_side_pruned_to_more_accesses_than_columns_keeps_the_other_side_in_place() {
    // trips is two columns wide, and three of its nested leaves are read
    // through the join; cities is read whole, so only the trips side is
    // re-projected and every cities reference moves by one channel, no more
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let sql = "SELECT t.base.fare, t.base.status, c.city_id, c.geo_shape \
               FROM hive.rawdata.trips t JOIN mysql.ops.cities c ON t.base.city_id = c.city_id \
               WHERE t.datestr = '2017-03-01' ORDER BY 1, 2, 3";
    let pruned = p.engine.execute_with_session(sql, &session).unwrap();
    let unpruned = p.engine.execute_with_session(sql, &session.with_optimizer(no_rules())).unwrap();
    assert_eq!(pruned.rows(), unpruned.rows());
    assert_eq!(pruned.row_count(), 400);
}

#[test]
fn tpch_lineitem_pricing_summary() {
    // the shape of TPC-H Q1 over the generated lineitem
    let p = platform();
    let session = Session::new("tpch", "tiny");
    let result = p
        .engine
        .execute_with_session(
            "SELECT returnflag, linestatus, count(*) AS cnt, sum(quantity) AS qty \
             FROM lineitem GROUP BY returnflag, linestatus ORDER BY 1, 2",
            &session,
        )
        .unwrap();
    assert_eq!(result.row_count(), 6); // 3 flags × 2 statuses
    let total: i64 = result.rows().iter().map(|r| r[2].as_i64().unwrap()).sum();
    assert_eq!(total, 20_000);
}

#[test]
fn insufficient_resources_on_big_join() {
    let p = platform();
    let session = Session::new("hive", "rawdata").with_memory_budget(1024);
    let err = p
        .engine
        .execute_with_session(
            "SELECT count(*) FROM trips a JOIN trips b ON a.base.city_id = b.base.city_id",
            &session,
        )
        .unwrap_err();
    assert_eq!(err.code(), "INSUFFICIENT_RESOURCES");
    assert!(err.message().contains("Insufficient Resource"));
}

#[test]
fn explain_surfaces_every_pushdown() {
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let plan = p
        .engine
        .explain(
            "SELECT base.driver_uuid FROM trips WHERE datestr = '2017-03-02' \
             AND base.city_id = 3 LIMIT 10",
            &session,
        )
        .unwrap();
    assert!(plan.contains("predicate"), "{plan}");
    assert!(plan.contains("nested pruning"), "{plan}");
    assert!(plan.contains("limit 10"), "{plan}");
}

#[test]
fn left_join_on_residual_null_extends_instead_of_dropping() {
    // A LEFT JOIN's ON residual decides matching, not row survival: rows
    // whose residual fails must appear null-extended.
    let p = platform();
    let session = Session::new("mysql", "ops");
    // cities: 25 rows with ids 0..25; self left-join with an ON conjunct
    // that can never hold keeps every left row exactly once, null-extended.
    let result = p
        .engine
        .execute_with_session(
            "SELECT count(*) FROM cities a LEFT JOIN cities b \
             ON a.city_id = b.city_id AND a.city_id > 100",
            &session,
        )
        .unwrap();
    assert_eq!(result.rows(), vec![vec![Value::Bigint(25)]]);

    // and a residual that holds for some: matched rows joined, others kept
    let result = p
        .engine
        .execute_with_session(
            "SELECT a.city_id, b.city_id FROM cities a LEFT JOIN cities b \
             ON a.city_id = b.city_id AND a.city_id < 3 ORDER BY 1",
            &session,
        )
        .unwrap();
    let rows = result.rows();
    assert_eq!(rows.len(), 25);
    for row in &rows {
        let a = row[0].as_i64().unwrap();
        if a < 3 {
            assert_eq!(row[1], Value::Bigint(a));
        } else {
            assert!(row[1].is_null(), "city {a} must be null-extended");
        }
    }
}

#[test]
fn left_join_without_an_equi_conjunct_keeps_its_unmatched_rows() {
    // With no equi key the join is a nested loop, and its LEFT rows whose
    // every pair fails the ON condition must still come back null-extended.
    let (engine, session) = memory_engine(vec![
        ("a", vec![("x", Block::bigint(vec![1, 2, 3]))]),
        ("b", vec![("y", Block::bigint(vec![2, 3, 4]))]),
    ]);
    for session in [&session, &session.clone().with_optimizer(no_rules())] {
        let sql = "SELECT a.x, b.y FROM a LEFT JOIN b ON a.x > b.y ORDER BY 1";
        assert_eq!(
            engine.execute_with_session(sql, session).unwrap().rows(),
            vec![
                vec![Value::Bigint(1), Value::Null],
                vec![Value::Bigint(2), Value::Null],
                vec![Value::Bigint(3), Value::Bigint(2)],
            ],
            "{sql}"
        );
        let sql = "SELECT count(*) FROM a LEFT JOIN b ON a.x > 10";
        assert_eq!(
            engine.execute_with_session(sql, session).unwrap().rows(),
            vec![vec![Value::Bigint(3)]],
            "{sql}"
        );
    }
}

/// An engine over one-page memory tables `memory.t.<name>`.
fn memory_engine(tables: Vec<(&str, Vec<(&str, Block)>)>) -> (PrestoEngine, Session) {
    let memory = MemoryConnector::new();
    for (name, columns) in tables {
        let fields = columns.iter().map(|(c, b)| Field::new(*c, b.data_type())).collect();
        let page = Page::new(columns.into_iter().map(|(_, b)| b).collect()).unwrap();
        memory.create_table("t", name, Schema::new(fields).unwrap(), vec![page]).unwrap();
    }
    let engine = PrestoEngine::new();
    engine.register_catalog("memory", Arc::new(memory));
    (engine, Session::new("memory", "t"))
}

#[test]
fn equi_join_across_numeric_widths_matches_the_eq_filter() {
    // The hash join must call equal what `=` calls equal. The reference is
    // the same condition as a WHERE over a cross join with predicate
    // pushdown off: a nested loop filtered by `eq`, which compares INTEGER,
    // BIGINT and DOUBLE numerically.
    let nan = f64::NAN;
    let (engine, pushed) = memory_engine(vec![
        (
            "a",
            vec![("i", Block::integer(vec![1, 2, 3])), ("d", Block::double(vec![1.0, -0.0, nan]))],
        ),
        ("b", vec![("k", Block::bigint(vec![1, 2, 4])), ("z", Block::double(vec![0.0, 2.5, nan]))]),
    ]);
    let unpushed = pushed.clone().with_optimizer(OptimizerConfig {
        predicate_pushdown: false,
        ..OptimizerConfig::default()
    });
    for (condition, expected) in [
        ("a.i = b.k", 2), // INTEGER × BIGINT: 1, 2
        ("a.d = b.k", 1), // DOUBLE × BIGINT: 1.0 = 1
        ("a.d = b.z", 1), // -0.0 = 0.0; NaN = nothing
        ("a.i = b.k AND a.d = b.k", 1),
        // a one-side conjunct in ON and no WHERE: pushed below the join, or
        // left on it as a residual when pushdown is off
        ("a.i = b.k AND b.z > 0.0", 1),
    ] {
        let reference = format!("SELECT count(*) FROM a CROSS JOIN b WHERE {condition}");
        let join = format!("SELECT count(*) FROM a JOIN b ON {condition}");
        for (sql, session) in [(&reference, &unpushed), (&join, &pushed), (&join, &unpushed)] {
            let result = engine.execute_with_session(sql, session).unwrap();
            assert_eq!(result.rows(), vec![vec![Value::Bigint(expected)]], "{sql}");
        }
    }
    let sql = "SELECT count(*) FROM a LEFT JOIN b ON a.d = b.z";
    for session in [&pushed, &unpushed] {
        let result = engine.execute_with_session(sql, session).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(3)]], "{sql}");
    }
}

#[test]
fn an_on_join_plans_as_one_hash_join_with_every_rule_off() {
    let (engine, session) = memory_engine(vec![
        ("a", vec![("x", Block::bigint(vec![1, 2, 3]))]),
        ("b", vec![("y", Block::bigint(vec![2, 3, 4]))]),
    ]);
    let off = session.with_optimizer(no_rules());
    let sql = "SELECT count(*) FROM a JOIN b ON a.x = b.y";
    let plan = engine.explain(sql, &off).unwrap();
    assert!(plan.contains("InnerJoin[keys=1]"), "{plan}");
    assert!(!plan.contains("Filter"), "{plan}");
    assert_eq!(
        engine.execute_with_session(sql, &off).unwrap().rows(),
        vec![vec![Value::Bigint(2)]]
    );
}

#[test]
fn a_project_over_a_join_narrows_what_the_join_emits() {
    let (engine, session) = memory_engine(vec![
        (
            "a",
            vec![("x", Block::bigint(vec![1, 2, 3])), ("p", Block::varchar(&["p1", "p2", "p3"]))],
        ),
        (
            "b",
            vec![("y", Block::bigint(vec![2, 3, 4])), ("q", Block::varchar(&["q2", "q3", "q4"]))],
        ),
    ]);
    let unpruned = session.clone().with_optimizer(OptimizerConfig {
        projection_pushdown: false,
        ..OptimizerConfig::default()
    });
    let sql = "SELECT b.q, a.p FROM a JOIN b ON a.x = b.y ORDER BY 1";
    // the keys are read by the join alone: it emits p and q, 2 of 4 channels
    let plan = engine.explain(sql, &session).unwrap();
    assert!(plan.contains("InnerJoin[keys=1, output=2/4]"), "{plan}");
    // without projection pushdown the join emits its whole joined row
    let whole = engine.explain(sql, &unpruned).unwrap();
    assert!(whole.contains("InnerJoin[keys=1]"), "{whole}");
    let expected = vec![
        vec![Value::Varchar("q2".into()), Value::Varchar("p2".into())],
        vec![Value::Varchar("q3".into()), Value::Varchar("p3".into())],
    ];
    for s in [&session, &unpruned] {
        assert_eq!(engine.execute_with_session(sql, s).unwrap().rows(), expected, "{sql}");
    }
}

#[test]
fn joins_of_inputs_sharing_a_column_name_plan_and_run() {
    // every table names its columns `k` and `v`: the joined schema suffixes
    // `_r` until a name is free (k, v, k_r, v_r, k_r_r, ...), at any depth
    let tables = ["a", "b", "c", "d"];
    let (engine, session) = memory_engine(
        tables
            .iter()
            .map(|&t| {
                (t, vec![("k", Block::bigint(vec![1, 2, 3])), ("v", Block::bigint(vec![1, 2, 4]))])
            })
            .collect(),
    );
    let off = session.clone().with_optimizer(no_rules());
    for n in [3, 4] {
        let mut sql = format!("SELECT count(*), sum(a.v + {}.v) FROM a", tables[n - 1]);
        for pair in tables[..n].windows(2) {
            sql += &format!(" JOIN {1} ON {0}.k = {1}.k", pair[0], pair[1]);
        }
        for s in [&session, &off] {
            let result = engine.execute_with_session(&sql, s).unwrap();
            assert_eq!(result.rows(), vec![vec![Value::Bigint(3), Value::Bigint(14)]], "{sql}");
        }
    }
}

#[test]
fn projection_pushdown_prunes_every_scan_of_a_long_join_chain() {
    // t<i>(k<i>, v<i>, pad<i>) joined left-deep on the keys under
    // `SELECT t1.v1`: t1 reads k1 and v1, every other table its key alone,
    // however deep the chain
    let columns: Vec<[String; 3]> =
        (1..=7).map(|i| [format!("k{i}"), format!("v{i}"), format!("pad{i}")]).collect();
    let names: Vec<String> = (1..=7).map(|i| format!("t{i}")).collect();
    let (engine, session) = memory_engine(
        names
            .iter()
            .zip(&columns)
            .map(|(t, [k, v, pad])| {
                (
                    t.as_str(),
                    vec![
                        (k.as_str(), Block::bigint(vec![1, 2, 3])),
                        (v.as_str(), Block::bigint(vec![10, 20, 30])),
                        (pad.as_str(), Block::bigint(vec![0, 0, 0])),
                    ],
                )
            })
            .collect(),
    );
    fn scans(plan: &LogicalPlan, out: &mut Vec<(String, Vec<String>)>) {
        if let LogicalPlan::TableScan { table, request, .. } = plan {
            let mut read: Vec<String> = request.columns.iter().map(|c| c.dotted()).collect();
            read.sort();
            out.push((table.clone(), read));
        }
        for child in plan.children() {
            scans(child, out);
        }
    }
    let off = session.clone().with_optimizer(no_rules());
    for n in [6, 7] {
        let mut sql = "SELECT t1.v1 FROM t1".to_string();
        for i in 2..=n {
            sql += &format!(" JOIN t{i} ON t{0}.k{0} = t{i}.k{i}", i - 1);
        }
        let mut read = Vec::new();
        scans(&engine.plan(&sql, &session).unwrap(), &mut read);
        read.sort();
        let mut want: Vec<(String, Vec<String>)> =
            (2..=n).map(|i| (format!("t{i}"), vec![format!("k{i}")])).collect();
        want.push(("t1".into(), vec!["k1".into(), "v1".into()]));
        want.sort();
        assert_eq!(read, want, "{sql}");
        let rows = engine.execute_with_session(&sql, &session).unwrap().rows();
        assert_eq!(rows, engine.execute_with_session(&sql, &off).unwrap().rows(), "{sql}");
        assert_eq!(rows.len(), 3, "{sql}");
    }
}

#[test]
fn order_by_a_double_column_holding_nan_is_a_total_order() {
    // every third x is NaN: `slice::sort` aborts on a comparison that is
    // not a total order, and so did ORDER BY and its TopN
    let rows = 5_000i64;
    let x = |id: i64| if id % 3 == 0 { f64::NAN } else { ((id * 7919) % 1013) as f64 / 4.0 };
    let (engine, session) = memory_engine(vec![(
        "t",
        vec![
            ("id", Block::bigint((0..rows).collect())),
            ("x", Block::double((0..rows).map(x).collect())),
        ],
    )]);
    let ids = |sql: &str| -> Vec<i64> {
        let result = engine.execute_with_session(sql, &session).unwrap();
        result.rows().iter().map(|r| r[0].as_i64().unwrap()).collect()
    };
    // numbers ascending, then the NaNs; each run of equals by id
    let (nans, mut numbers): (Vec<i64>, Vec<i64>) = (0..rows).partition(|&id| x(id).is_nan());
    numbers.sort_by(|&a, &b| x(a).partial_cmp(&x(b)).unwrap().then(a.cmp(&b)));
    let ascending: Vec<i64> = numbers.iter().chain(&nans).copied().collect();
    assert_eq!(ids("SELECT id, x FROM t ORDER BY x, id"), ascending);

    // descending reverses the order of x alone: NaN first, ids still ascending
    assert_eq!(ids("SELECT id, x FROM t ORDER BY x DESC, id LIMIT 5"), [0, 3, 6, 9, 12]);
    numbers.sort_by(|&a, &b| x(b).partial_cmp(&x(a)).unwrap().then(a.cmp(&b)));
    let top = ids(&format!("SELECT id, x FROM t ORDER BY x DESC, id LIMIT {}", nans.len() + 2));
    assert_eq!(top[nans.len()..], numbers[..2]);
}

#[test]
fn case_when_end_to_end_over_warehouse() {
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let result = p
        .engine
        .execute_with_session(
            "SELECT CASE WHEN base.fare >= 30.0 THEN 'premium' \
                         WHEN base.fare >= 15.0 THEN 'standard' \
                         ELSE 'budget' END AS tier, count(*) \
             FROM trips GROUP BY 1 ORDER BY 1",
            &session,
        )
        .unwrap();
    let total: i64 = result.rows().iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(total, 1200); // 3 partitions x 400 rows
    assert_eq!(result.rows().len(), 3);
}

#[test]
fn system_runtime_tables_answer_sql_on_a_live_cluster() {
    use presto_cluster::{ClusterConfig, PrestoCluster};
    use presto_common::SimClock;
    use std::time::Duration;

    // the whole demo platform, lifted onto a cluster: the system catalog
    // rides along and exposes the cluster's own runtime state through SQL
    let p = platform();
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(
        "e2e-system",
        p.engine,
        ClusterConfig { initial_workers: 3, ..ClusterConfig::default() },
        clock.clone(),
    );
    let session = Session::new("hive", "rawdata");
    cluster.execute("SELECT count(*) FROM trips WHERE datestr = '2017-03-01'", &session).unwrap();
    cluster.tick();
    clock.advance(Duration::from_millis(1));
    cluster.tick();

    let workers = cluster
        .execute("SELECT worker_id, lifecycle FROM system.runtime.workers", &session)
        .unwrap();
    assert_eq!(workers.rows().len(), 3);
    let queries = cluster
        .execute(
            "SELECT query_id, state FROM system.runtime.queries WHERE state = 'finished'",
            &session,
        )
        .unwrap();
    assert!(!queries.rows().is_empty(), "the trips query must appear as finished");
    let tasks = cluster.execute("SELECT count(*) FROM system.runtime.tasks", &session).unwrap();
    assert!(tasks.rows()[0][0].as_i64().unwrap() > 0, "scan tasks must be recorded");
    let metrics =
        cluster.execute("SELECT name, value FROM system.metrics ORDER BY name", &session).unwrap();
    assert!(
        metrics.rows().iter().any(|r| r[0] == Value::Varchar("telemetry.active_workers".into())),
        "system.metrics must list the sampler's gauges"
    );
}

/// `rows` as a multiset: sorted by their rendering.
fn multiset(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_cached_key(|r| format!("{r:?}"));
    rows
}

#[test]
fn having_on_a_group_key_equals_where_before_grouping() {
    // A predicate over the GROUP BY key keeps the same groups whether it
    // runs before grouping (WHERE) or after it (HAVING): one case per
    // expression form the analyzer lowers.
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let run = |sql: &str| {
        p.engine.execute_with_session(sql, &session).unwrap_or_else(|e| panic!("{sql}: {e}"))
    };
    let cases = [
        ("base.city_id", "base.city_id > 12"),
        ("base.city_id", "base.city_id BETWEEN 3 AND 9"),
        ("base.city_id", "base.city_id NOT BETWEEN 3 AND 9"),
        ("base.city_id", "base.city_id IN (1, 4, 9, 16)"),
        ("base.city_id", "base.city_id NOT IN (1, 4, 9, 16)"),
        ("base.city_id", "base.city_id IS NULL"),
        ("base.city_id", "base.city_id IS NOT NULL"),
        ("base.city_id", "NOT (base.city_id < 20)"),
        ("base.city_id", "base.city_id < 5 OR base.city_id > 20 AND base.city_id <> 22"),
        ("base.status", "base.status LIKE 'c%'"),
        ("base.city_id", "CASE WHEN base.city_id % 2 = 0 THEN 'even' ELSE 'odd' END = 'even'"),
        ("base.city_id", "CAST(base.city_id AS double) > 7.5"),
        ("base.city_id", "coalesce(base.city_id, 0) >= 11"),
        ("base.city_id", "base.city_id * 2 + 1 > 30"),
    ];
    for (key, predicate) in cases {
        let having =
            run(&format!("SELECT {key}, count(*) FROM trips GROUP BY {key} HAVING {predicate}"));
        let filtered =
            run(&format!("SELECT {key}, count(*) FROM trips WHERE {predicate} GROUP BY {key}"));
        assert_eq!(multiset(having.rows()), multiset(filtered.rows()), "{predicate}");
    }
}

#[test]
fn post_aggregation_clauses_take_every_expression_form() {
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let run = |sql: &str| p.engine.execute_with_session(sql, &session);
    let groups =
        run("SELECT base.city_id, count(*), max(base.fare) FROM trips GROUP BY 1 ORDER BY 1")
            .unwrap()
            .rows();
    assert_eq!(groups.len(), 25);
    // HAVING with BETWEEN, IN and IS NOT NULL over aggregates answers, as
    // the same filter over the grouped rows does
    type Keep = fn(&[Value]) -> bool;
    let keeps: [(&str, Keep); 4] = [
        ("count(*) BETWEEN 1 AND 100", |r| (1..=100).contains(&r[1].as_i64().unwrap_or(0))),
        ("count(*) IN (1, 2, 3)", |r| [1, 2, 3].contains(&r[1].as_i64().unwrap_or(0))),
        ("count(*) NOT IN (1, 2, 3)", |r| ![1, 2, 3].contains(&r[1].as_i64().unwrap_or(0))),
        ("max(base.fare) IS NOT NULL", |r| !r[2].is_null()),
    ];
    for (having, keep) in keeps {
        let sql = format!("SELECT base.city_id FROM trips GROUP BY 1 HAVING {having} ORDER BY 1");
        let got = run(&sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows();
        let want: Vec<Vec<Value>> =
            groups.iter().filter(|r| keep(r)).map(|r| vec![r[0].clone()]).collect();
        assert_eq!(got, want, "{sql}");
    }
    // coalesce over an aggregate in the SELECT list
    let sql = "SELECT base.city_id, coalesce(max(base.fare), 0.0) FROM trips GROUP BY 1 ORDER BY 1";
    let got = run(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows();
    let want: Vec<Vec<Value>> = groups.iter().map(|r| vec![r[0].clone(), r[2].clone()]).collect();
    assert_eq!(got, want);

    // a HAVING clause that is not boolean is an analysis error, not an
    // empty result or an execution error
    for having in ["count(*) AND true", "NOT count(*)"] {
        let sql = format!("SELECT base.city_id FROM trips GROUP BY 1 HAVING {having}");
        let err = run(&sql).unwrap_err();
        assert!(matches!(err, PrestoError::Analysis(_)), "{sql}: {err}");
    }
    // what the engine does not support stays a classified error
    for sql in [
        "SELECT base.city_id, count(*) AS n FROM trips GROUP BY 1 HAVING n > 1",
        "SELECT base.city_id FROM trips GROUP BY 1 ORDER BY count(*)",
    ] {
        let err = run(sql).unwrap_err();
        assert!(matches!(err, PrestoError::Analysis(_)), "{sql}: {err}");
    }
}

#[test]
fn a_plain_query_orders_by_a_select_item_written_out() {
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let run = |sql: &str| {
        p.engine.execute_with_session(sql, &session).unwrap_or_else(|e| panic!("{sql}: {e}"))
    };
    let by_expr =
        run("SELECT base.fare FROM trips WHERE datestr = '2017-03-01' ORDER BY base.fare");
    let by_ordinal = run("SELECT base.fare FROM trips WHERE datestr = '2017-03-01' ORDER BY 1");
    assert_eq!(by_expr.row_count(), 400);
    assert_eq!(by_expr.rows(), by_ordinal.rows());
}

#[test]
fn a_group_key_matches_a_select_item_written_another_way() {
    // GROUP BY items bind to SELECT items by what they analyze to, not by
    // how they are spelled: a qualified and an unqualified reference to one
    // column, or the same expression over either, are one key
    let p = platform();
    let session = Session::new("hive", "rawdata");
    let run = |sql: &str| {
        p.engine.execute_with_session(sql, &session).unwrap_or_else(|e| panic!("{sql}: {e}"))
    };
    let cases = [
        ("t.datestr", "datestr", "t.datestr"),
        ("datestr", "t.datestr", "datestr"),
        ("t.base.city_id % 7", "base.city_id % 7", "t.base.city_id % 7"),
        ("coalesce(base.city_id, 0) + 1", "coalesce(t.base.city_id, 0) + 1", "1"),
    ];
    for (select, group_by, same) in cases {
        let sql = |key: &str| format!("SELECT {select}, count(*) FROM trips t GROUP BY {key}");
        let (got, want) = (run(&sql(group_by)), run(&sql(same)));
        assert!(want.row_count() > 1, "{}", sql(same));
        assert_eq!(multiset(got.rows()), multiset(want.rows()), "{}", sql(group_by));
    }
}
