//! The connector SPI (§IV).
//!
//! The paper lists the interface pieces verbatim: *ConnectorMetadata* ("which
//! defines schemas, tables, columns"), *ConnectorSplitManager* ("how Presto
//! divide\[s\] the underlying data into splits, and process\[es\] them in
//! parallel"), *ConnectorSplit* ("one processing unit, or one shard of
//! underlying data"), and *ConnectorRecordSetProvider* ("upon getting data
//! streams from underlying systems, how Presto parse\[s\] and transform\[s\]
//! them into Presto engine" pages). [`Connector`] carries all four roles,
//! plus the pushdown contract of §IV.A/§IV.B.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use presto_common::fault::{FaultInjector, PageFault};
use presto_common::ids::SplitId;
use presto_common::{DataType, Page, PrestoError, Result, Schema};
use presto_expr::AggregateFunction;
use presto_parquet::ScalarPredicate;

/// A column reference with an optional nested struct sub-path — the unit of
/// projection pushdown, including nested column pruning (`base.city_id`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnPath {
    /// Top-level column name.
    pub column: String,
    /// Struct field path below it (empty = whole column).
    pub path: Vec<String>,
}

impl ColumnPath {
    /// Whole top-level column.
    pub fn whole(column: impl Into<String>) -> ColumnPath {
        ColumnPath { column: column.into(), path: Vec::new() }
    }

    /// Nested path.
    pub fn nested(column: impl Into<String>, path: &[&str]) -> ColumnPath {
        ColumnPath { column: column.into(), path: path.iter().map(|s| s.to_string()).collect() }
    }

    /// Dotted display / leaf-path form (`base.city_id`).
    pub fn dotted(&self) -> String {
        let mut s = self.column.clone();
        for p in &self.path {
            s.push('.');
            s.push_str(p);
        }
        s
    }

    /// Resolve this path's type against a table schema.
    pub fn resolve_type(&self, schema: &Schema) -> Result<DataType> {
        let field = schema
            .field(&self.column)
            .ok_or_else(|| PrestoError::Analysis(format!("no column '{}'", self.column)))?;
        let sub: Vec<&str> = self.path.iter().map(String::as_str).collect();
        Ok(field.data_type.resolve_path(&sub)?.clone())
    }
}

/// One conjunct of predicate pushdown, bound to a (possibly nested) column.
#[derive(Debug, Clone, PartialEq)]
pub struct PushdownPredicate {
    /// The column (or nested leaf) the predicate constrains.
    pub target: ColumnPath,
    /// The value-domain predicate.
    pub predicate: ScalarPredicate,
}

/// Aggregation pushdown (§IV.B, Fig 2): the connector executes the partial
/// aggregation and streams only aggregated rows; the engine runs the final
/// aggregation over the partials.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationPushdown {
    /// GROUP BY columns.
    pub group_by: Vec<ColumnPath>,
    /// Aggregates: function + argument (`None` = `count(*)`).
    pub aggregates: Vec<(AggregateFunction, Option<ColumnPath>)>,
}

/// What a scan asks of a connector. The planner only populates fields the
/// connector's [`ScanCapabilities`] advertise; everything populated is a
/// contract the connector must apply exactly (except `limit`, which is a
/// hint to stop early — the engine re-applies it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanRequest {
    /// Projection (with nested pruning paths). Ignored when `aggregation`
    /// is set (the output is the aggregation's).
    pub columns: Vec<ColumnPath>,
    /// Conjuncts to apply; rows streamed must satisfy all of them.
    pub predicate: Vec<PushdownPredicate>,
    /// Early-out hint.
    pub limit: Option<usize>,
    /// Aggregation to execute inside the connector.
    pub aggregation: Option<AggregationPushdown>,
}

impl ScanRequest {
    /// A plain projection scan.
    pub fn project(columns: Vec<ColumnPath>) -> ScanRequest {
        ScanRequest { columns, ..ScanRequest::default() }
    }

    /// The schema of pages this request produces against `table_schema`.
    pub fn output_schema(&self, table_schema: &Schema) -> Result<Schema> {
        match &self.aggregation {
            Some(agg) => {
                let mut fields = Vec::new();
                for g in &agg.group_by {
                    fields
                        .push(presto_common::Field::new(g.dotted(), g.resolve_type(table_schema)?));
                }
                for (i, (func, arg)) in agg.aggregates.iter().enumerate() {
                    let input = match arg {
                        Some(path) => Some(path.resolve_type(table_schema)?),
                        None => None,
                    };
                    let out = func.return_type(input.as_ref())?;
                    fields.push(presto_common::Field::new(format!("agg_{i}"), out));
                }
                Schema::new(fields)
            }
            None => {
                let mut fields = Vec::new();
                for c in &self.columns {
                    fields
                        .push(presto_common::Field::new(c.dotted(), c.resolve_type(table_schema)?));
                }
                Schema::new(fields)
            }
        }
    }
}

/// Which pushdowns a connector supports — what the planner consults before
/// populating a [`ScanRequest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCapabilities {
    /// Projection pushdown (always includes whole columns; `nested_pruning`
    /// additionally allows sub-paths).
    pub projection: bool,
    /// Nested column pruning within projections.
    pub nested_pruning: bool,
    /// Predicate pushdown.
    pub predicate: bool,
    /// Limit pushdown.
    pub limit: bool,
    /// Aggregation pushdown (§IV.B).
    pub aggregation: bool,
}

/// Connector-specific split payload — "one shard of underlying data".
#[derive(Debug, Clone, PartialEq)]
pub enum SplitPayload {
    /// One warehouse file (plus its partition column value, if any).
    HiveFile {
        /// File path on the connector's filesystem.
        path: String,
        /// `(partition_column, value)` when the table is partitioned.
        partition: Option<(String, String)>,
        /// Which bytes the path held when it was listed: the listing's size
        /// and the connector's count of writes to the path. A result cached
        /// for one version is not an answer for another; placement ignores
        /// it.
        version: (u64, u64),
    },
    /// One chunk of an in-memory table.
    Memory {
        /// Chunk index.
        chunk: usize,
    },
    /// A whole row-store table (OLTP stores stream one split).
    MySql,
    /// A range of real-time segments.
    Segments {
        /// First segment (inclusive).
        start: usize,
        /// Last segment (exclusive).
        end: usize,
    },
    /// A generated TPC-H row range.
    Tpch {
        /// First row.
        start: usize,
        /// Row count.
        count: usize,
    },
    /// A whole `system` table, materialized from live cluster telemetry at
    /// scan time (one split per table; never cacheable — the rows change
    /// between snapshots).
    System,
}

/// A schedulable unit of scan work.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectorSplit {
    /// Unique id within the scan.
    pub id: SplitId,
    /// Target schema name.
    pub schema: String,
    /// Target table name.
    pub table: String,
    /// Connector-specific shard descriptor.
    pub payload: SplitPayload,
}

/// A storage system plugged into the engine. One instance = one catalog
/// (`catalog.schema.table` naming, §IV).
pub trait Connector: Send + Sync {
    /// Connector (catalog) kind name, e.g. `hive`, `mysql`, `druid`.
    fn name(&self) -> &str;

    /// ConnectorMetadata: schemas.
    fn list_schemas(&self) -> Vec<String>;

    /// ConnectorMetadata: tables of a schema.
    fn list_tables(&self, schema: &str) -> Result<Vec<String>>;

    /// ConnectorMetadata: a table's columns.
    fn table_schema(&self, schema: &str, table: &str) -> Result<Schema>;

    /// Pushdown capabilities.
    fn capabilities(&self) -> ScanCapabilities;

    /// ConnectorSplitManager: divide the scan into parallel splits. The
    /// request is visible so split pruning (e.g. Hive partition pruning) can
    /// use the predicate.
    fn splits(
        &self,
        schema: &str,
        table: &str,
        request: &ScanRequest,
    ) -> Result<Vec<ConnectorSplit>>;

    /// ConnectorRecordSetProvider: stream one split as engine pages, with
    /// every pushdown in `request` applied. Implementations call
    /// [`ScanHooks::on_page`] once per emitted page so mid-stream faults
    /// (stalls, torn streams) fire at realistic points inside the scan.
    fn scan_split(
        &self,
        split: &ConnectorSplit,
        request: &ScanRequest,
        hooks: &ScanHooks,
    ) -> Result<Vec<Page>>;
}

/// Mid-stream instrumentation threaded through [`Connector::scan_split`].
///
/// Connectors call [`ScanHooks::on_page`] once per page they are about to
/// emit; the hook consults the task's [`FaultInjector`] with the page's
/// 1-based ordinal. An injected stall is *accumulated* here (virtual time —
/// the coordinator adds it to the task's runtime; scan code never touches
/// the shared clock), and an injected tear surfaces as a retryable
/// [`PrestoError::WorkerFailed`] so the split is reassigned like any other
/// mid-flight worker loss. [`ScanHooks::none`] is the no-op default used by
/// local (non-cluster) execution and unit tests.
#[derive(Debug, Default)]
pub struct ScanHooks {
    injector: Option<Arc<FaultInjector>>,
    worker_id: u32,
    task_seq: u64,
    pages: AtomicU64,
    stalled_nanos: AtomicU64,
}

impl ScanHooks {
    /// No-op hooks: pages are counted, nothing ever stalls or tears.
    pub fn none() -> ScanHooks {
        ScanHooks::default()
    }

    /// Hooks wired to `injector` for the `task_seq`-th task (1-based) on
    /// worker `worker_id`.
    pub fn for_task(injector: Arc<FaultInjector>, worker_id: u32, task_seq: u64) -> ScanHooks {
        ScanHooks {
            injector: injector.is_enabled().then_some(injector),
            worker_id,
            task_seq,
            pages: AtomicU64::new(0),
            stalled_nanos: AtomicU64::new(0),
        }
    }

    /// Announce the next page of the stream. Returns an error if the plan
    /// tears the stream at this page; an injected stall is added to
    /// [`ScanHooks::stalled`] and the scan proceeds.
    pub fn on_page(&self) -> Result<()> {
        let ordinal = self.pages.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(injector) = &self.injector else {
            return Ok(());
        };
        match injector.on_scan_page(self.worker_id, self.task_seq, ordinal) {
            PageFault::None => Ok(()),
            PageFault::Stall(delay) => {
                let nanos = u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX);
                self.stalled_nanos.fetch_add(nanos, Ordering::Relaxed);
                Ok(())
            }
            PageFault::Tear => Err(PrestoError::WorkerFailed {
                worker_id: self.worker_id,
                message: format!("scan stream tore at page {ordinal} (injected)"),
            }),
        }
    }

    /// Total virtual stall time injected into this scan so far.
    pub fn stalled(&self) -> Duration {
        Duration::from_nanos(self.stalled_nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("city", DataType::Varchar),
            Field::new("base", DataType::row(vec![Field::new("city_id", DataType::Bigint)])),
            Field::new("fare", DataType::Double),
        ])
        .unwrap()
    }

    #[test]
    fn column_paths_resolve_types() {
        let s = schema();
        assert_eq!(ColumnPath::whole("fare").resolve_type(&s).unwrap(), DataType::Double);
        let nested = ColumnPath::nested("base", &["city_id"]);
        assert_eq!(nested.resolve_type(&s).unwrap(), DataType::Bigint);
        assert_eq!(nested.dotted(), "base.city_id");
        assert!(ColumnPath::whole("missing").resolve_type(&s).is_err());
    }

    #[test]
    fn projection_request_output_schema() {
        let req = ScanRequest::project(vec![
            ColumnPath::nested("base", &["city_id"]),
            ColumnPath::whole("fare"),
        ]);
        let out = req.output_schema(&schema()).unwrap();
        assert_eq!(out.fields()[0].name, "base.city_id");
        assert_eq!(out.fields()[0].data_type, DataType::Bigint);
        assert_eq!(out.fields()[1].data_type, DataType::Double);
    }

    #[test]
    fn aggregation_request_output_schema() {
        let req = ScanRequest {
            aggregation: Some(AggregationPushdown {
                group_by: vec![ColumnPath::whole("city")],
                aggregates: vec![
                    (AggregateFunction::CountStar, None),
                    (AggregateFunction::Max, Some(ColumnPath::whole("fare"))),
                ],
            }),
            ..ScanRequest::default()
        };
        let out = req.output_schema(&schema()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.fields()[0].name, "city");
        assert_eq!(out.fields()[1].data_type, DataType::Bigint); // count
        assert_eq!(out.fields()[2].data_type, DataType::Double); // max(fare)
    }
}
