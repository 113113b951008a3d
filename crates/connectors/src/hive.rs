//! The Hive connector: partitioned Parquet-format tables on a (simulated)
//! distributed filesystem — the batch-analytics backbone of §II's
//! deployments and the substrate of the Fig 17 reader experiment.
//!
//! Pieces wired together here:
//! - an in-memory **metastore** (tables, partitions, sealed/open flags) —
//!   "Schemas are managed as a service outside of Presto" (§V.A);
//! - **partition pruning** in the split manager (predicate on the partition
//!   column prunes directories before any listFiles);
//! - the §VII.A **file-list cache** for sealed partitions;
//! - the §VII.B **file-handle cache** (`getFileInfo` only — every scan still
//!   reads and decodes the footer; `presto_cache::FooterCache` serves the
//!   §VII experiment, not this path);
//! - both **reader generations**: the connector runs the new reader, or the
//!   legacy one (`use_legacy_reader`) as Fig 17's baseline.

use std::collections::BTreeMap;
use std::sync::Arc;

use presto_cache::{FileHandleCache, FileListCache};
use presto_common::ids::SplitId;
use presto_common::metrics::{names, CounterSet};
use presto_common::sync::{Rank, RwLock};
use presto_common::{Block, Page, PrestoError, Result, Schema, Value};
use presto_parquet::reader::FsSource;
use presto_parquet::reader_new::{self, ProjectedColumn, ReadOptions};
use presto_parquet::reader_old;
use presto_parquet::{ColumnPredicate, FilePredicate, FileWriter, WriterMode, WriterProperties};
use presto_storage::FileSystem;

use crate::memory::scan_page;
use crate::spi::{
    ColumnPath, Connector, ConnectorSplit, PushdownPredicate, ScanCapabilities, ScanHooks,
    ScanRequest, SplitPayload,
};

/// A partition entry in the metastore.
#[derive(Debug, Clone)]
pub struct HivePartition {
    /// Partition column value (e.g. `2017-03-02`).
    pub value: String,
    /// Directory holding the partition's files.
    pub path: String,
    /// Sealed partitions are immutable and cacheable (§VII.A); open
    /// partitions receive near-real-time ingestion and bypass the cache.
    pub sealed: bool,
}

#[derive(Debug, Clone)]
struct HiveTableDef {
    /// Schema of the *files* (partition column not included).
    file_schema: Schema,
    location: String,
    partition_column: Option<String>,
    partitions: Vec<HivePartition>,
}

impl HiveTableDef {
    /// Table schema as queries see it: file columns + partition column.
    fn table_schema(&self) -> Result<Schema> {
        match &self.partition_column {
            None => Ok(self.file_schema.clone()),
            Some(p) => {
                let mut fields = self.file_schema.fields().to_vec();
                fields.push(presto_common::Field::new(p.clone(), presto_common::DataType::Varchar));
                Schema::new(fields)
            }
        }
    }
}

/// Reader configuration — Fig 17's one switch between the two reader
/// generations.
#[derive(Debug, Clone, Default)]
pub struct HiveReaderConfig {
    /// Use the legacy reader end to end (off: the new reader, with every
    /// pushdown of [`ReadOptions::new`]).
    pub use_legacy_reader: bool,
}

/// The Hive connector. Cloning shares metastore, caches and filesystem.
#[derive(Clone)]
pub struct HiveConnector {
    fs: Arc<dyn FileSystem>,
    tables: Arc<RwLock<BTreeMap<(String, String), HiveTableDef>>>,
    file_lists: FileListCache,
    handles: FileHandleCache,
    /// Writes through this connector, per path: what tells a file rewritten
    /// in place from the one a cached scan result was computed from.
    write_generations: Arc<RwLock<BTreeMap<String, u64>>>,
    reader_config: Arc<RwLock<HiveReaderConfig>>,
    metrics: CounterSet,
}

impl HiveConnector {
    /// Connector over a filesystem, with caches reporting to `metrics`.
    pub fn new(fs: Arc<dyn FileSystem>, metrics: CounterSet) -> HiveConnector {
        HiveConnector {
            file_lists: FileListCache::new(fs.clone(), metrics.clone()),
            handles: FileHandleCache::new(fs.clone(), 4096, metrics.clone()),
            fs,
            tables: Arc::new(RwLock::new(Rank::HiveTables, BTreeMap::new())),
            write_generations: Arc::new(RwLock::new(Rank::HiveWriteGenerations, BTreeMap::new())),
            reader_config: Arc::new(RwLock::new(
                Rank::HiveReaderConfig,
                HiveReaderConfig::default(),
            )),
            metrics,
        }
    }

    /// The shared counters (cache + reader activity).
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Swap the reader configuration (the Fig 17 experiment).
    pub fn set_reader_config(&self, config: HiveReaderConfig) {
        *self.reader_config.write() = config;
    }

    /// Current reader configuration.
    pub fn reader_config(&self) -> HiveReaderConfig {
        self.reader_config.read().clone()
    }

    /// Register a table. `file_schema` is the schema of the files (without
    /// the partition column).
    pub fn register_table(
        &self,
        schema_name: &str,
        table: &str,
        file_schema: Schema,
        location: &str,
        partition_column: Option<&str>,
    ) {
        self.tables.write().insert(
            (schema_name.into(), table.into()),
            HiveTableDef {
                file_schema,
                location: location.to_string(),
                partition_column: partition_column.map(str::to_string),
                partitions: Vec::new(),
            },
        );
    }

    /// Add a partition (directory `location/<col>=<value>`).
    pub fn add_partition(
        &self,
        schema_name: &str,
        table: &str,
        value: &str,
        sealed: bool,
    ) -> Result<String> {
        let mut tables = self.tables.write();
        let def = tables
            .get_mut(&(schema_name.to_string(), table.to_string()))
            .ok_or_else(|| PrestoError::Connector(format!("no table {schema_name}.{table}")))?;
        let col = def
            .partition_column
            .clone()
            .ok_or_else(|| PrestoError::Connector(format!("table {table} is not partitioned")))?;
        let path = format!("{}/{col}={value}", def.location);
        def.partitions.push(HivePartition { value: value.to_string(), path: path.clone(), sealed });
        Ok(path)
    }

    /// Write pages as one file into a partition (or the table root for
    /// unpartitioned tables) and return its path.
    #[allow(clippy::too_many_arguments)]
    pub fn write_data_file(
        &self,
        schema_name: &str,
        table: &str,
        partition_value: Option<&str>,
        file_name: &str,
        pages: &[Page],
        mode: WriterMode,
        props: WriterProperties,
    ) -> Result<String> {
        let def = self
            .tables
            .read()
            .get(&(schema_name.to_string(), table.to_string()))
            .cloned()
            .ok_or_else(|| PrestoError::Connector(format!("no table {schema_name}.{table}")))?;
        let dir = match (partition_value, &def.partition_column) {
            (Some(v), Some(col)) => format!("{}/{col}={v}", def.location),
            (None, None) => def.location.clone(),
            _ => {
                return Err(PrestoError::Connector(
                    "partition value must match table partitioning".into(),
                ))
            }
        };
        let mut writer = FileWriter::new(def.file_schema.clone(), props, mode)?;
        for page in pages {
            writer.write_page(page)?;
        }
        let path = format!("{dir}/{file_name}");
        self.fs.write(&path, &writer.finish()?)?;
        // the directory's cached listing (sealed partitions and the
        // unpartitioned table root are cacheable) no longer matches disk,
        // and neither does the path's cached size if it was rewritten in
        // place — a stale size misplaces the footer — nor any scan result
        // cached downstream under the split's previous version
        self.file_lists.invalidate(&dir);
        self.handles.invalidate(&path);
        *self.write_generations.write().entry(path.clone()).or_default() += 1;
        Ok(path)
    }

    fn table_def(&self, schema: &str, table: &str) -> Result<HiveTableDef> {
        self.tables.read().get(&(schema.to_string(), table.to_string())).cloned().ok_or_else(|| {
            PrestoError::Analysis(format!("table hive.{schema}.{table} does not exist"))
        })
    }
}

impl Connector for HiveConnector {
    fn name(&self) -> &str {
        "hive"
    }

    fn list_schemas(&self) -> Vec<String> {
        let mut out: Vec<String> = self.tables.read().keys().map(|(s, _)| s.clone()).collect();
        out.dedup();
        out
    }

    fn list_tables(&self, schema: &str) -> Result<Vec<String>> {
        Ok(self.tables.read().keys().filter(|(s, _)| s == schema).map(|(_, t)| t.clone()).collect())
    }

    fn table_schema(&self, schema: &str, table: &str) -> Result<Schema> {
        self.table_def(schema, table)?.table_schema()
    }

    fn capabilities(&self) -> ScanCapabilities {
        ScanCapabilities {
            projection: true,
            nested_pruning: true,
            predicate: true,
            limit: true,
            aggregation: false,
        }
    }

    fn splits(
        &self,
        schema: &str,
        table: &str,
        request: &ScanRequest,
    ) -> Result<Vec<ConnectorSplit>> {
        let def = self.table_def(schema, table)?;
        let mut splits = Vec::new();
        let mut next_id = 0u64;
        let mut push_files = |dir: &str,
                              sealed: bool,
                              partition: Option<(String, String)>,
                              splits: &mut Vec<ConnectorSplit>|
         -> Result<()> {
            let files = self.file_lists.list_partition(dir, sealed)?;
            let generations = self.write_generations.read();
            for file in files.iter() {
                let generation = generations.get(&file.path).copied().unwrap_or(0);
                splits.push(ConnectorSplit {
                    id: SplitId(next_id),
                    schema: schema.to_string(),
                    table: table.to_string(),
                    payload: SplitPayload::HiveFile {
                        path: file.path.clone(),
                        partition: partition.clone(),
                        version: (file.size, generation),
                    },
                });
                next_id += 1;
            }
            Ok(())
        };

        match &def.partition_column {
            None => push_files(&def.location, true, None, &mut splits)?,
            Some(col) => {
                for p in &def.partitions {
                    // Partition pruning: predicate conjuncts on the partition
                    // column filter directories before any listFiles.
                    let survives = request
                        .predicate
                        .iter()
                        .filter(|c| c.target.column == *col && c.target.path.is_empty())
                        .all(|c| c.predicate.matches(&Value::Varchar(p.value.clone())));
                    if !survives {
                        self.metrics.incr(names::HIVE_PARTITIONS_PRUNED);
                        continue;
                    }
                    push_files(
                        &p.path,
                        p.sealed,
                        Some((col.clone(), p.value.clone())),
                        &mut splits,
                    )?;
                }
            }
        }
        Ok(splits)
    }

    fn scan_split(
        &self,
        split: &ConnectorSplit,
        request: &ScanRequest,
        hooks: &ScanHooks,
    ) -> Result<Vec<Page>> {
        if request.aggregation.is_some() {
            return Err(PrestoError::Connector(
                "hive connector does not support aggregation pushdown".into(),
            ));
        }
        let (path, partition) = match &split.payload {
            SplitPayload::HiveFile { path, partition, .. } => (path, partition),
            other => {
                return Err(PrestoError::Connector(format!(
                    "hive connector got foreign split {other:?}"
                )))
            }
        };
        let def = self.table_def(&split.schema, &split.table)?;
        let config = self.reader_config();

        // Separate partition-column projections/predicates (virtual column)
        // from file-column ones.
        let part_col = partition.as_ref().map(|(c, _)| c.as_str());
        let file_columns: Vec<&ColumnPath> =
            request.columns.iter().filter(|c| Some(c.column.as_str()) != part_col).collect();
        let file_predicates: Vec<&PushdownPredicate> = request
            .predicate
            .iter()
            .filter(|p| Some(p.target.column.as_str()) != part_col)
            .collect();
        // Partition predicates were used for pruning, but Range conjuncts may
        // not have pruned exactly — re-verify against the value.
        if let Some((col, value)) = partition {
            for p in &request.predicate {
                if p.target.column == *col && !p.predicate.matches(&Value::Varchar(value.clone())) {
                    return Ok(Vec::new());
                }
            }
        }

        // File handle via the worker-side cache (§VII.B saves getFileInfo).
        let status = self.handles.get_file_info(path)?;
        let source = FsSource::open_with_size(self.fs.clone(), path, status.size);

        let mut pages = if config.use_legacy_reader {
            // Legacy path: whole top-level columns, no pushdown of any kind;
            // predicate and nested projection applied row-wise afterwards
            // (Fig 4 step 3: "evaluate predicates on columnar blocks").
            let mut top_columns: Vec<String> = Vec::new();
            for c in &file_columns {
                if !top_columns.contains(&c.column) {
                    top_columns.push(c.column.clone());
                }
            }
            for p in &file_predicates {
                if !top_columns.contains(&p.target.column) {
                    top_columns.push(p.target.column.clone());
                }
            }
            let read_schema = def
                .file_schema
                .project(&top_columns.iter().map(String::as_str).collect::<Vec<_>>())?;
            let (raw_pages, stats) = reader_old::read(&source, &def.file_schema, &top_columns)?;
            self.metrics.add(names::HIVE_LEAVES_DECODED, stats.leaves_decoded as u64);
            let mut out = Vec::with_capacity(raw_pages.len());
            for page in raw_pages {
                out.push(scan_page(&read_schema, &page, &file_predicates, None, &file_columns)?);
            }
            out
        } else {
            // New reader: pruned projections + pushed predicate.
            let projections: Vec<ProjectedColumn> = file_columns
                .iter()
                .map(|c| ProjectedColumn { column: c.column.clone(), sub_path: c.path.clone() })
                .collect();
            let predicate = FilePredicate {
                conjuncts: file_predicates
                    .iter()
                    .map(|p| ColumnPredicate {
                        leaf_path: p.target.dotted(),
                        predicate: p.predicate.clone(),
                    })
                    .collect(),
            };
            let options = ReadOptions::new(projections).with_predicate(predicate);
            let (pages, stats) = reader_new::read(&source, &def.file_schema, &options)?;
            self.metrics.add(names::HIVE_LEAVES_DECODED, stats.leaves_decoded as u64);
            self.metrics.add(
                names::HIVE_ROW_GROUPS_SKIPPED,
                (stats.skipped_by_stats + stats.skipped_by_dictionary + stats.skipped_by_lazy)
                    as u64,
            );
            pages
        };
        for _ in &pages {
            hooks.on_page()?;
        }

        // Limit pushdown: stop after `limit` rows.
        if let Some(limit) = request.limit {
            let mut kept = 0usize;
            let mut truncated = Vec::new();
            for page in pages {
                if kept >= limit {
                    break;
                }
                let take = (limit - kept).min(page.positions());
                kept += take;
                truncated.push(if take == page.positions() { page } else { page.slice(0, take) });
            }
            pages = truncated;
        }

        // Append the partition column where projected: constant per split,
        // so one dictionary entry every row points at.
        if let Some((col, value)) = partition {
            let positions: Vec<usize> = request
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.column == *col)
                .map(|(i, _)| i)
                .collect();
            if !positions.is_empty() {
                let mut with_part = Vec::with_capacity(pages.len());
                for page in pages {
                    let rows = page.positions();
                    let mut blocks: Vec<Option<Arc<Block>>> = vec![None; request.columns.len()];
                    let mut file_iter = page.into_blocks().into_iter();
                    for (i, c) in request.columns.iter().enumerate() {
                        if c.column == *col {
                            blocks[i] = Some(Arc::new(Block::Dictionary {
                                dictionary: Box::new(Block::varchar(&[value.as_str()])),
                                ids: vec![0; rows],
                            }));
                        } else {
                            blocks[i] = file_iter.next();
                        }
                    }
                    with_part.push(Page::from_columns(
                        blocks.into_iter().map(|b| b.expect("all slots filled")).collect(),
                    )?);
                }
                pages = with_part;
            }
        }
        Ok(pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{DataType, Field};
    use presto_parquet::ScalarPredicate;
    use presto_storage::HdfsFileSystem;

    fn trips_file_schema() -> Schema {
        Schema::new(vec![Field::new(
            "base",
            DataType::row(vec![
                Field::new("driver_uuid", DataType::Varchar),
                Field::new("city_id", DataType::Bigint),
                Field::new("fare", DataType::Double),
            ]),
        )])
        .unwrap()
    }

    fn loaded_hive() -> (HiveConnector, HdfsFileSystem) {
        let hdfs = HdfsFileSystem::with_defaults();
        let hive = HiveConnector::new(Arc::new(hdfs.clone()), CounterSet::new());
        hive.register_table(
            "rawdata",
            "trips",
            trips_file_schema(),
            "/warehouse/rawdata/trips",
            Some("datestr"),
        );
        for (day, sealed) in [("2017-03-01", true), ("2017-03-02", true), ("2017-03-03", false)] {
            hive.add_partition("rawdata", "trips", day, sealed).unwrap();
            let base_type = trips_file_schema().field_at(0).data_type.clone();
            let rows: Vec<Value> = (0..100)
                .map(|i| {
                    Value::Row(vec![
                        Value::Varchar(format!("drv-{day}-{i}")),
                        Value::Bigint(i % 20),
                        Value::Double(i as f64),
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
                WriterProperties { row_group_rows: 25, ..WriterProperties::default() },
            )
            .unwrap();
        }
        (hive, hdfs)
    }

    /// The paper's example query: SELECT base.driver_uuid FROM trips WHERE
    /// datestr = '2017-03-02' AND base.city_id IN (12)
    fn paper_query_request() -> ScanRequest {
        ScanRequest {
            columns: vec![ColumnPath::nested("base", &["driver_uuid"])],
            predicate: vec![
                PushdownPredicate {
                    target: ColumnPath::whole("datestr"),
                    predicate: ScalarPredicate::Eq(Value::Varchar("2017-03-02".into())),
                },
                PushdownPredicate {
                    target: ColumnPath::nested("base", &["city_id"]),
                    predicate: ScalarPredicate::In(vec![Value::Bigint(12)]),
                },
            ],
            limit: None,
            aggregation: None,
        }
    }

    #[test]
    fn partition_pruning_limits_splits() {
        let (hive, _) = loaded_hive();
        let request = paper_query_request();
        let splits = hive.splits("rawdata", "trips", &request).unwrap();
        assert_eq!(splits.len(), 1, "only the 2017-03-02 partition survives");
        assert_eq!(hive.metrics().get(names::HIVE_PARTITIONS_PRUNED), 2);
    }

    #[test]
    fn paper_query_new_and_legacy_readers_agree() {
        let (hive, _) = loaded_hive();
        let request = paper_query_request();
        let splits = hive.splits("rawdata", "trips", &request).unwrap();

        let run = |legacy: bool| -> Vec<Vec<Value>> {
            hive.set_reader_config(HiveReaderConfig { use_legacy_reader: legacy });
            splits
                .iter()
                .flat_map(|s| hive.scan_split(s, &request, &ScanHooks::none()).unwrap())
                .flat_map(|p| p.rows())
                .collect()
        };
        let new_rows = run(false);
        let old_rows = run(true);
        assert_eq!(new_rows, old_rows);
        // city_id in (12): rows 12, 32, 52, 72, 92 → 5 rows
        assert_eq!(new_rows.len(), 5);
        assert!(new_rows.iter().all(|r| r[0].as_str().unwrap().starts_with("drv-2017-03-02-")));
    }

    #[test]
    fn new_reader_decodes_far_fewer_leaves() {
        let (hive, _) = loaded_hive();
        let request = paper_query_request();
        let splits = hive.splits("rawdata", "trips", &request).unwrap();

        hive.metrics().reset();
        hive.set_reader_config(HiveReaderConfig::default());
        for s in &splits {
            hive.scan_split(s, &request, &ScanHooks::none()).unwrap();
        }
        let new_leaves = hive.metrics().get(names::HIVE_LEAVES_DECODED);

        hive.metrics().reset();
        hive.set_reader_config(HiveReaderConfig { use_legacy_reader: true });
        for s in &splits {
            hive.scan_split(s, &request, &ScanHooks::none()).unwrap();
        }
        let old_leaves = hive.metrics().get(names::HIVE_LEAVES_DECODED);
        assert!(
            new_leaves < old_leaves,
            "pruning+skipping must reduce decode work: {new_leaves} vs {old_leaves}"
        );
    }

    #[test]
    fn partition_column_projects_as_constant() {
        let (hive, _) = loaded_hive();
        let request = ScanRequest {
            columns: vec![ColumnPath::whole("datestr"), ColumnPath::nested("base", &["city_id"])],
            predicate: vec![PushdownPredicate {
                target: ColumnPath::whole("datestr"),
                predicate: ScalarPredicate::Eq(Value::Varchar("2017-03-01".into())),
            }],
            limit: Some(3),
            aggregation: None,
        };
        let splits = hive.splits("rawdata", "trips", &request).unwrap();
        let pages: Vec<Page> = splits
            .iter()
            .flat_map(|s| hive.scan_split(s, &request, &ScanHooks::none()).unwrap())
            .collect();
        let rows: Vec<Vec<Value>> = pages.iter().flat_map(|p| p.rows()).collect();
        assert_eq!(rows.len(), 3); // limit pushdown
        for r in &rows {
            assert_eq!(r[0], Value::Varchar("2017-03-01".into()));
        }
    }

    #[test]
    fn writes_invalidate_cached_file_lists() {
        let hdfs = HdfsFileSystem::with_defaults();
        let hive = HiveConnector::new(Arc::new(hdfs), CounterSet::new());
        // unpartitioned table: its root directory listing is cacheable
        let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
        hive.register_table("s", "flat", schema, "/w/flat", None);
        let one_page = || {
            Page::new(vec![Block::from_values(&DataType::Bigint, &[Value::Bigint(1)]).unwrap()])
                .unwrap()
        };
        hive.write_data_file(
            "s",
            "flat",
            None,
            "part-0.upq",
            &[one_page()],
            WriterMode::Native,
            WriterProperties::default(),
        )
        .unwrap();
        let request = ScanRequest::project(vec![ColumnPath::whole("x")]);
        assert_eq!(hive.splits("s", "flat", &request).unwrap().len(), 1);
        // a new file arrives: the next scan must see it, not the cached list
        hive.write_data_file(
            "s",
            "flat",
            None,
            "part-1.upq",
            &[one_page()],
            WriterMode::Native,
            WriterProperties::default(),
        )
        .unwrap();
        assert_eq!(hive.splits("s", "flat", &request).unwrap().len(), 2);
    }

    #[test]
    fn rewriting_a_scanned_file_in_place_is_read_at_its_new_size() {
        let hive = HiveConnector::new(Arc::new(HdfsFileSystem::with_defaults()), CounterSet::new());
        let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
        hive.register_table("s", "flat", schema, "/w/flat", None);
        let request = ScanRequest::project(vec![ColumnPath::whole("x")]);
        // scan → rewrite bigger → scan → rewrite smaller → scan: each scan
        // must find the footer of the file as it is now, not where the
        // handle cached by the previous scan says it ends
        for rows in [3i64, 5_000, 2] {
            hive.write_data_file(
                "s",
                "flat",
                None,
                "part-0.upq",
                &[Page::new(vec![Block::bigint((0..rows).collect())]).unwrap()],
                WriterMode::Native,
                WriterProperties::default(),
            )
            .unwrap();
            let splits = hive.splits("s", "flat", &request).unwrap();
            assert_eq!(splits.len(), 1);
            let scanned: usize = hive
                .scan_split(&splits[0], &request, &ScanHooks::none())
                .unwrap()
                .iter()
                .map(Page::positions)
                .sum();
            assert_eq!(scanned, rows as usize);
        }
    }

    #[test]
    fn sealed_partition_listings_are_cached_open_are_not() {
        let (hive, hdfs) = loaded_hive();
        let request = ScanRequest::project(vec![ColumnPath::nested("base", &["city_id"])]);
        hdfs.metrics().reset();
        for _ in 0..5 {
            hive.splits("rawdata", "trips", &request).unwrap();
        }
        // 2 sealed partitions: 1 listFiles each (cached after); 1 open
        // partition: 5 listFiles (bypass every time)
        assert_eq!(hdfs.metrics().get(names::HDFS_LIST_FILES), 2 + 5);
    }
}
