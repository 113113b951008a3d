//! Builds the tables each SQL workload queries, twice: once behind the
//! connector under test, and once as plain in-memory pages registered under
//! the *same* catalog/schema/table names in a second engine. The second
//! engine runs with [`oracle_rules`]; it is the oracle's independent path (no
//! Parquet, no HDFS, no Druid store, no projection/aggregation/limit
//! pushdown, no TopN fusion), and the same SQL text resolves against either.

use std::collections::BTreeMap;
use std::sync::Arc;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::CounterSet;
use presto_common::{Page, SimClock};
use presto_connectors::druid::druid_connector;
use presto_connectors::hive::HiveConnector;
use presto_connectors::memory::MemoryConnector;
use presto_connectors::mysql::MySqlConnector;
use presto_connectors::tpch::{generate_lineitem, lineitem_schema};
use presto_core::{PrestoEngine, Session};
use presto_parquet::{WriterMode, WriterProperties};
use presto_plan::OptimizerConfig;
use presto_storage::HdfsFileSystem;

use crate::data;

/// Fragment-cache entries per worker in `cluster_repeat`.
pub const FRAGMENT_CACHE_ENTRIES: usize = 64;
pub const CLUSTER_WORKERS: u32 = 4;
/// Seed of the generated `lineitem` (data is the same for every `--seed`).
pub const LINEITEM_DATA_SEED: u64 = 42;
pub const LINEITEM_PAGE_ROWS: usize = 10_000;

/// Full size, or a tenth of it for `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub quick: bool,
}

impl Scale {
    fn of(self, full: usize) -> usize {
        if self.quick {
            full / 10
        } else {
            full
        }
    }

    /// Rows per `trips` partition: 60k (48 cities × 1,250; 16 row groups).
    pub fn trips_partition_rows(self) -> usize {
        self.of(60_000)
    }

    pub fn lineitem_rows(self) -> usize {
        self.of(60_000)
    }

    pub fn events_rows(self) -> usize {
        self.of(200_000)
    }

    pub fn ingest_file_rows(self) -> usize {
        self.of(5_000)
    }
}

/// The oracle's optimizer: every rule off but predicate pushdown. The
/// analyzer emits an inner join as a cross join under a filter, and only that
/// rule turns it into a hash join; without it one join of the lake mix takes
/// 7 s and 2.7 GB.
pub fn oracle_rules() -> OptimizerConfig {
    OptimizerConfig {
        constant_folding: false,
        topn_fusion: false,
        geo_rewrite: false,
        predicate_pushdown: true,
        projection_pushdown: false,
        aggregation_pushdown: false,
        limit_pushdown: false,
    }
}

/// Everything a SQL workload runs against.
pub struct SqlFixture {
    /// The engine under test (for `cluster_repeat`: the cluster's engine).
    pub engine: PrestoEngine,
    pub session: Session,
    /// Set for `cluster_repeat`: ops go through `PrestoCluster::execute`.
    pub cluster: Option<Arc<PrestoCluster>>,
    /// Same tables as in-memory pages, run under [`oracle_rules`].
    pub reference: PrestoEngine,
    pub reference_session: Session,
    pub hdfs: Option<HdfsFileSystem>,
    pub hive: Option<HiveConnector>,
    /// Rows of each base table, by `catalog.table` — the "rows addressed"
    /// denominator of the scan metrics.
    pub table_rows: BTreeMap<String, u64>,
}

fn cities_connector() -> MySqlConnector {
    let mysql = MySqlConnector::new();
    mysql.create_table("ops", "cities", data::cities_schema()).expect("fresh connector");
    mysql.insert("ops", "cities", data::cities_rows()).expect("rows match the schema");
    mysql
}

/// The trips warehouse: 2 partitions on the HDFS simulator, each written as
/// `files` files of `row_groups` row groups, plus the MySQL dimension.
fn build_trips(scale: Scale, files: usize, row_groups: usize) -> SqlFixture {
    let partition_rows = scale.trips_partition_rows();
    let file_rows = partition_rows / files;
    let hdfs = HdfsFileSystem::with_defaults();
    let hive = HiveConnector::new(Arc::new(hdfs.clone()), CounterSet::new());
    hive.register_table(
        "rawdata",
        "trips",
        data::trips_schema(),
        "/warehouse/rawdata/trips",
        Some("datestr"),
    );
    let mut reference_pages = Vec::new();
    for (day, datestr) in data::DAYS.iter().enumerate() {
        hive.add_partition("rawdata", "trips", datestr, true).expect("table registered");
        for file in 0..files {
            let start = file * file_rows;
            let page = data::trips_file_page(day, start, file_rows, partition_rows);
            hive.write_data_file(
                "rawdata",
                "trips",
                Some(datestr),
                &format!("part-{file}.upq"),
                &[page],
                WriterMode::Native,
                WriterProperties {
                    row_group_rows: file_rows / row_groups,
                    ..WriterProperties::default()
                },
            )
            .expect("write trips file");
            reference_pages.push(data::trips_table_page(day, start, file_rows, partition_rows));
        }
    }
    let mysql = cities_connector();

    let engine = PrestoEngine::new();
    engine.register_catalog("hive", Arc::new(hive.clone()));
    engine.register_catalog("mysql", Arc::new(mysql.clone()));

    let memory = MemoryConnector::new();
    memory
        .create_table("rawdata", "trips", data::trips_table_schema(), reference_pages)
        .expect("pages match the schema");
    let reference = PrestoEngine::new();
    reference.register_catalog("hive", Arc::new(memory));
    reference.register_catalog("mysql", Arc::new(mysql));

    let session = Session::new("hive", "rawdata");
    SqlFixture {
        engine,
        reference,
        reference_session: session.clone().with_optimizer(oracle_rules()),
        session,
        cluster: None,
        hdfs: Some(hdfs),
        hive: Some(hive),
        table_rows: BTreeMap::from([
            ("hive.trips".to_string(), (partition_rows * data::DAYS.len()) as u64),
            ("mysql.cities".to_string(), data::DIM_CITIES as u64),
        ]),
    }
}

/// `lake_adhoc`: one file of 16 row groups per partition, engine-direct.
pub fn build_lake(scale: Scale) -> SqlFixture {
    build_trips(scale, 1, 16)
}

/// `cluster_repeat`: 8 files of 2 row groups per partition (16 splits)
/// behind a 4-worker cluster with affinity scheduling and a 64-entry
/// fragment result cache per worker.
pub fn build_cluster(scale: Scale) -> SqlFixture {
    let mut fixture = build_trips(scale, 8, 2);
    let cluster = PrestoCluster::new(
        "bench",
        fixture.engine.clone(),
        ClusterConfig {
            initial_workers: CLUSTER_WORKERS,
            affinity_scheduling: true,
            fragment_cache_entries: FRAGMENT_CACHE_ENTRIES,
            ..ClusterConfig::default()
        },
        SimClock::new(),
    );
    fixture.engine = cluster.engine().clone();
    fixture.cluster = Some(cluster);
    fixture
}

pub fn lineitem_pages(rows: usize) -> Vec<Page> {
    (0..rows)
        .step_by(LINEITEM_PAGE_ROWS)
        .map(|start| {
            generate_lineitem(start, LINEITEM_PAGE_ROWS.min(rows - start), LINEITEM_DATA_SEED)
                .expect("generator output matches its schema")
        })
        .collect()
}

/// `mem_exec`: `lineitem` preloaded into the memory connector. The oracle
/// queries the same connector under [`oracle_rules`].
pub fn build_mem_exec(scale: Scale) -> SqlFixture {
    let rows = scale.lineitem_rows();
    let memory = MemoryConnector::new();
    memory
        .create_table("default", "lineitem", lineitem_schema(), lineitem_pages(rows))
        .expect("pages match the schema");
    let engine = PrestoEngine::new();
    engine.register_catalog("memory", Arc::new(memory));
    let session = Session::new("memory", "default");
    SqlFixture {
        reference: engine.clone(),
        engine,
        reference_session: session.clone().with_optimizer(oracle_rules()),
        session,
        cluster: None,
        hdfs: None,
        hive: None,
        table_rows: BTreeMap::from([("memory.lineitem".to_string(), rows as u64)]),
    }
}

/// `realtime_dash`: the `events` table in a Druid store (segments, inverted
/// indexes, native aggregation) behind the Presto-Druid connector.
pub fn build_realtime(scale: Scale) -> SqlFixture {
    let rows = scale.events_rows();
    let druid = druid_connector();
    druid.store().create_table("prod", "events", data::events_schema()).expect("fresh store");
    let memory = MemoryConnector::new();
    let mut reference_pages = Vec::new();
    const CHUNK: usize = 20_000;
    for start in (0..rows).step_by(CHUNK) {
        let n = CHUNK.min(rows - start);
        druid.store().ingest("prod", "events", data::events_rows(start, n)).expect("ingest");
        reference_pages.push(data::events_page(start, n));
    }
    memory
        .create_table("prod", "events", data::events_schema(), reference_pages)
        .expect("pages match the schema");

    let engine = PrestoEngine::new();
    engine.register_catalog("druid", Arc::new(druid));
    let reference = PrestoEngine::new();
    reference.register_catalog("druid", Arc::new(memory));
    let session = Session::new("druid", "prod");
    SqlFixture {
        engine,
        reference,
        reference_session: session.clone().with_optimizer(oracle_rules()),
        session,
        cluster: None,
        hdfs: None,
        hive: None,
        table_rows: BTreeMap::from([("druid.events".to_string(), rows as u64)]),
    }
}
