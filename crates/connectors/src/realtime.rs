//! Real-time OLAP store simulator — the substrate behind the Druid and
//! Pinot connectors (§IV.B).
//!
//! "Druid and Pinot are real time systems, which have in memory bitmap
//! indices, inverted indices, pre-aggregations or dictionaries, enabling
//! sub-second query latency." This store models the indexes and
//! dictionaries, and keeps data in that encoded, columnar form from the
//! moment a segment is sealed until a [`Page`] leaves the connector:
//!
//! - data lands in immutable **segments** (`realtime/segment.rs`), every
//!   column a NOT NULL engine [`presto_common::Block`]: per dimension a
//!   `Block::Dictionary` over its sorted values with a CSR **inverted
//!   index** (code → row ids); `ts` and each metric a typed block. There is
//!   **no rollup at ingest**: the raw scan path (and anything checking
//!   answers row by row) needs every event, so pre-aggregation happens per
//!   query, not per segment;
//! - one columnar **kernel** (`realtime/kernel.rs`) serves every entry
//!   point: bind column names once, select rows by driving from the most
//!   selective posting list and probing the other conjuncts, then either
//!   aggregate them through the engine's `GroupedAccumulator` (the states
//!   the final step merges) or gather blocks;
//! - the **native query API** ([`RealtimeStore::execute_native`]) returns
//!   aggregated rows with a virtual cost — the sub-second path;
//! - the **raw scan API** ([`RealtimeStore::scan_segments`]) streams
//!   (filtered, projected) rows out, charging per streamed row — what a
//!   connector without aggregation pushdown falls back to;
//! - the connector's `scan_split` emits the kernel's pages as they are:
//!   partial aggregates as typed blocks, raw scans as `Block::Dictionary`
//!   over each segment's dictionary plus typed slices, one page per segment.
//!
//! Virtual costs are a model of Druid, not of this code. They are returned
//! per call so benchmarks can model parallel split execution (latency = max
//! over splits) rather than serializing on a global clock.

mod kernel;
mod segment;

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use presto_common::ids::SplitId;
use presto_common::metrics::{names, CounterSet};
use presto_common::sync::{Rank, RwLock};
use presto_common::{DataType, Page, PrestoError, Result, Schema, Value};
use presto_expr::AggregateFunction;
use presto_parquet::ScalarPredicate;

use crate::spi::{
    ColumnPath, Connector, ConnectorSplit, ScanCapabilities, ScanHooks, ScanRequest, SplitPayload,
};
use kernel::GroupedAggregation;
use segment::{ColumnRef, Segment};

/// Store cost model (virtual time).
#[derive(Debug, Clone)]
pub struct RealtimeCostModel {
    /// Fixed broker/query-planning overhead per native query per segment.
    pub per_segment_base: Duration,
    /// Cost per row that survives the index filter and is aggregated.
    pub per_matched_row: Duration,
    /// Cost per row streamed out of the raw scan path.
    pub per_streamed_row: Duration,
}

impl Default for RealtimeCostModel {
    fn default() -> Self {
        RealtimeCostModel {
            per_segment_base: Duration::from_micros(500),
            per_matched_row: Duration::from_nanos(150),
            per_streamed_row: Duration::from_micros(2),
        }
    }
}

/// A table: time column + dimension columns (varchar) + metric columns
/// (bigint/integer/double), the classic Druid/Pinot shape.
pub struct RealtimeTable {
    schema: Schema,
    /// Where each column of `schema` lives inside a segment.
    columns: Vec<ColumnRef>,
    segments: Vec<Segment>,
}

impl RealtimeTable {
    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total rows.
    pub fn row_count(&self) -> usize {
        self.segments.iter().map(|s| s.rows).sum()
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Resolve a column name to its in-segment handle and SQL type.
    fn column(&self, name: &str) -> Result<(ColumnRef, &DataType)> {
        let index = self
            .schema
            .index_of(name)
            .ok_or_else(|| PrestoError::Connector(format!("no column '{name}'")))?;
        Ok((self.columns[index], &self.schema.field_at(index).data_type))
    }

    /// The segments of `range` (`None` = all), clipped to those that exist.
    fn segments(&self, range: Option<(usize, usize)>) -> &[Segment] {
        let (start, end) = range.unwrap_or((0, self.segments.len()));
        self.segments.get(start..end.min(self.segments.len())).unwrap_or(&[])
    }
}

/// A native filter + group-by + aggregate query.
#[derive(Debug, Clone, Default)]
pub struct NativeQuery {
    /// Conjunctive filters by column name.
    pub filters: Vec<(String, ScalarPredicate)>,
    /// GROUP BY column names.
    pub group_by: Vec<String>,
    /// Aggregates: function + column name (`None` = count(*)).
    pub aggregates: Vec<(AggregateFunction, Option<String>)>,
    /// LIMIT on output rows.
    pub limit: Option<usize>,
}

/// Virtual cost of one scan, decomposed so latency models can treat the
/// per-segment filter work as parallel and the stream-out as serialized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCost {
    /// Slowest segment's filter/aggregate work (parallel across segments).
    pub filter: Duration,
    /// Rows-over-the-wire cost (serialized toward the consumer).
    pub stream: Duration,
}

impl ScanCost {
    /// Total as a single duration.
    pub fn total(&self) -> Duration {
        self.filter + self.stream
    }
}

/// Result of a native query: output rows plus the virtual cost incurred.
#[derive(Debug)]
pub struct NativeResult {
    /// Output rows: group-by values then aggregate values.
    pub rows: Vec<Vec<Value>>,
    /// Virtual execution cost.
    pub cost: Duration,
    /// Rows that survived the index filter (work actually done).
    pub rows_matched: u64,
}

type RealtimeTables = BTreeMap<(String, String), Arc<RealtimeTable>>;

/// The store: named tables of segments. Cloning shares the data.
///
/// Counters recorded: `rt.native_queries`, `rt.rows_matched`,
/// `rt.rows_streamed`.
#[derive(Clone)]
pub struct RealtimeStore {
    kind: &'static str,
    tables: Arc<RwLock<RealtimeTables>>,
    cost: Arc<RealtimeCostModel>,
    metrics: CounterSet,
    rows_per_segment: usize,
}

impl RealtimeStore {
    /// New store; `kind` is `druid` or `pinot` (for messages/metrics only).
    pub fn new(
        kind: &'static str,
        rows_per_segment: usize,
        cost: RealtimeCostModel,
    ) -> RealtimeStore {
        RealtimeStore {
            kind,
            tables: Arc::new(RwLock::new(Rank::RealtimeTables, BTreeMap::new())),
            cost: Arc::new(cost),
            metrics: CounterSet::new(),
            rows_per_segment: rows_per_segment.max(1),
        }
    }

    /// Store kind name.
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The shared counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Create a table. The schema must be: one `timestamp` column, then any
    /// number of varchar dimensions and numeric metrics.
    pub fn create_table(&self, schema_name: &str, table: &str, schema: Schema) -> Result<()> {
        // each column's position within its kind's vector of a segment
        let (mut dims, mut numbers) = (0, 0);
        let next = |counter: &mut usize| {
            *counter += 1;
            *counter - 1
        };
        let mut has_time = false;
        let mut columns = Vec::with_capacity(schema.len());
        for f in schema.fields() {
            columns.push(match &f.data_type {
                DataType::Timestamp if !has_time => {
                    has_time = true;
                    ColumnRef::Number(next(&mut numbers))
                }
                DataType::Varchar => ColumnRef::Dim(next(&mut dims)),
                DataType::Bigint | DataType::Integer | DataType::Double => {
                    ColumnRef::Number(next(&mut numbers))
                }
                other => {
                    return Err(PrestoError::Connector(format!(
                        "{} does not support column type {other}",
                        self.kind
                    )))
                }
            });
        }
        if !has_time {
            return Err(PrestoError::Connector(format!(
                "{} tables need a timestamp column",
                self.kind
            )));
        }
        self.tables.write().insert(
            (schema_name.into(), table.into()),
            Arc::new(RealtimeTable { schema, columns, segments: Vec::new() }),
        );
        Ok(())
    }

    /// Ingest rows (in event-time order), sealing segments of
    /// `rows_per_segment` with dictionaries and inverted indexes. The rows
    /// are read once and dropped; nothing row-shaped is kept.
    ///
    /// Columns are effectively NOT NULL, like Druid's default ingestion:
    /// NULL dimensions coerce to `""` and NULL metrics to `0` at ingest.
    /// Queries (pushed down or not) see the coerced values consistently.
    pub fn ingest(&self, schema_name: &str, table: &str, rows: Vec<Vec<Value>>) -> Result<()> {
        let mut tables = self.tables.write();
        let key = (schema_name.to_string(), table.to_string());
        let shared = tables
            .get_mut(&key)
            .ok_or_else(|| PrestoError::Connector(format!("no table {schema_name}.{table}")))?;
        // tables are Arc-shared snapshots: append in place only while no
        // scan holds one
        let t = Arc::get_mut(shared).ok_or_else(|| {
            PrestoError::Connector("cannot ingest while scans hold table snapshots".into())
        })?;
        if rows.iter().any(|r| r.len() != t.schema.len()) {
            return Err(PrestoError::Connector("row width mismatch at ingest".into()));
        }
        t.segments.reserve_exact(rows.len().div_ceil(self.rows_per_segment));
        for chunk in rows.chunks(self.rows_per_segment) {
            t.segments.push(Segment::seal(&t.schema, &t.columns, chunk));
        }
        Ok(())
    }

    /// Look up a table snapshot.
    pub fn table(&self, schema_name: &str, table: &str) -> Result<Arc<RealtimeTable>> {
        self.tables.read().get(&(schema_name.to_string(), table.to_string())).cloned().ok_or_else(
            || {
                PrestoError::Analysis(format!(
                    "table {}.{schema_name}.{table} does not exist",
                    self.kind
                ))
            },
        )
    }

    /// All `(schema, table)` names.
    pub fn table_names(&self) -> Vec<(String, String)> {
        self.tables.read().keys().cloned().collect()
    }

    /// Execute a native query over a segment range (`None` = all segments).
    /// This is the sub-second path: inverted indexes produce matching row
    /// ids, only those rows are aggregated. Output rows are sorted by group
    /// key; a group exists only if a row matched it, so a filter matching
    /// nothing returns no rows, even without GROUP BY.
    pub fn execute_native(
        &self,
        schema_name: &str,
        table: &str,
        query: &NativeQuery,
        segment_range: Option<(usize, usize)>,
    ) -> Result<NativeResult> {
        let (page, cost, rows_matched) =
            self.aggregate(schema_name, table, query, segment_range)?;
        let mut rows = page.rows();
        if let Some(limit) = query.limit {
            rows.truncate(limit);
        }
        Ok(NativeResult { rows, cost, rows_matched })
    }

    /// Raw scan of a segment range: stream (filtered, projected) rows out —
    /// the no-aggregation-pushdown path. Returns rows plus virtual cost. A
    /// `limit` stops at the segment that satisfies it; every segment
    /// visited is charged for all the rows it matched.
    #[allow(clippy::type_complexity)]
    pub fn scan_segments(
        &self,
        schema_name: &str,
        table: &str,
        columns: &[String],
        filters: &[(String, ScalarPredicate)],
        limit: Option<usize>,
        segment_range: Option<(usize, usize)>,
    ) -> Result<(Vec<Vec<Value>>, ScanCost)> {
        let (pages, cost) =
            self.scan(schema_name, table, columns, filters, limit, segment_range)?;
        Ok((pages.iter().flat_map(Page::rows).collect(), cost))
    }

    /// Virtual cost of one segment in which `matched` rows pass the filter.
    fn segment_cost(&self, matched: usize) -> Duration {
        self.cost.per_segment_base + self.cost.per_matched_row * matched as u32
    }

    /// The native query as one partial-aggregate page (ignoring its limit),
    /// its virtual cost and its matched-row count.
    fn aggregate(
        &self,
        schema_name: &str,
        table: &str,
        query: &NativeQuery,
        segment_range: Option<(usize, usize)>,
    ) -> Result<(Page, Duration, u64)> {
        self.metrics.incr(names::RT_NATIVE_QUERIES);
        let t = self.table(schema_name, table)?;
        let conjuncts = kernel::compile(&t, &query.filters)?;
        let segments = t.segments(segment_range);
        let mut aggregation =
            GroupedAggregation::new(&t, segments, &query.group_by, &query.aggregates)?;
        // Segments are scanned by parallel historicals: the query's latency
        // is the slowest segment's cost, not the sum.
        let mut cost = Duration::ZERO;
        let mut matched = 0u64;
        let mut candidates = Vec::new();
        for (s, seg) in segments.iter().enumerate() {
            let selection = kernel::select(seg, &conjuncts, &mut candidates);
            matched += selection.len() as u64;
            cost = cost.max(self.segment_cost(selection.len()));
            aggregation.consume(s, &selection)?;
        }
        self.metrics.add(names::RT_ROWS_MATCHED, matched);
        Ok((aggregation.finish()?, cost, matched))
    }

    /// The raw scan as one page per segment that streamed rows.
    fn scan(
        &self,
        schema_name: &str,
        table: &str,
        columns: &[String],
        filters: &[(String, ScalarPredicate)],
        limit: Option<usize>,
        segment_range: Option<(usize, usize)>,
    ) -> Result<(Vec<Page>, ScanCost)> {
        let t = self.table(schema_name, table)?;
        let columns: Vec<ColumnRef> = columns
            .iter()
            .map(|name| t.column(name).map(|(column, _)| column))
            .collect::<Result<_>>()?;
        let conjuncts = kernel::compile(&t, filters)?;
        // parallel historicals again: max per-segment filter cost, plus
        // serialized stream-out of every row that crosses the wire
        let mut filter = Duration::ZERO;
        let mut wanted = limit.unwrap_or(usize::MAX);
        let mut streamed = 0usize;
        let mut pages = Vec::new();
        let mut candidates = Vec::new();
        for seg in t.segments(segment_range) {
            if wanted == 0 {
                break;
            }
            let selection = kernel::select(seg, &conjuncts, &mut candidates);
            filter = filter.max(self.segment_cost(selection.len()));
            let selection = selection.first(wanted);
            if selection.len() > 0 {
                pages.push(kernel::gather_page(seg, &columns, &selection)?);
                wanted -= selection.len();
                streamed += selection.len();
            }
        }
        self.metrics.add(names::RT_ROWS_STREAMED, streamed as u64);
        Ok((pages, ScanCost { filter, stream: self.cost.per_streamed_row * streamed as u32 }))
    }
}

// --------------------------------------------------------------- connector

/// Segments per split when the split manager shards a table.
const SEGMENTS_PER_SPLIT: usize = 4;

/// Split-scan costs kept until taken; older ones are dropped. Far above the
/// split count of any one query (1,024 splits = 40M Druid rows).
const SCAN_COST_HISTORY: usize = 1024;

/// The Presto connector over a [`RealtimeStore`] — shared by the Druid and
/// Pinot connectors, which differ only in store personality.
///
/// With **aggregation pushdown** (§IV.B, Fig 2), each split executes the
/// partial aggregation natively in the store ("only stream aggregated
/// results to Presto"); without it, splits stream raw (filtered, projected)
/// rows the slow way. The virtual cost of store work for the *last* scan is
/// exposed via [`RealtimeConnector::take_last_scan_cost`] so benchmarks can
/// model parallel splits.
#[derive(Clone)]
pub struct RealtimeConnector {
    store: RealtimeStore,
    last_scan_costs: Arc<RwLock<VecDeque<ScanCost>>>,
}

impl RealtimeConnector {
    /// Wrap a store.
    pub fn new(store: RealtimeStore) -> RealtimeConnector {
        RealtimeConnector {
            store,
            last_scan_costs: Arc::new(RwLock::new(Rank::RealtimeScanCosts, VecDeque::new())),
        }
    }

    /// The underlying store (for ingest and native-path baselines).
    pub fn store(&self) -> &RealtimeStore {
        &self.store
    }

    /// Total virtual store cost accumulated since the last call.
    pub fn take_last_scan_cost(&self) -> Duration {
        self.take_last_scan_costs().into_iter().map(|c| c.total()).sum()
    }

    /// Per-split virtual costs since the last call (only the newest are
    /// kept when nobody takes them: a bounded history, not a log). Splits
    /// execute on parallel workers, so a latency model takes the max of the
    /// filter parts and (for unlimited scans) the sum of the stream parts.
    pub fn take_last_scan_costs(&self) -> Vec<ScanCost> {
        std::mem::take(&mut *self.last_scan_costs.write()).into()
    }

    fn add_cost(&self, c: ScanCost) {
        let mut costs = self.last_scan_costs.write();
        if costs.len() == SCAN_COST_HISTORY {
            costs.pop_front();
        }
        costs.push_back(c);
    }
}

/// The name of a pushed-down column; the store has no nested columns.
fn flat_column(path: &ColumnPath) -> Result<String> {
    if !path.path.is_empty() {
        return Err(PrestoError::Connector(format!(
            "realtime stores have flat columns; nested path {} unsupported",
            path.dotted()
        )));
    }
    Ok(path.column.clone())
}

impl Connector for RealtimeConnector {
    fn name(&self) -> &str {
        self.store.kind()
    }

    fn list_schemas(&self) -> Vec<String> {
        let mut out: Vec<String> = self.store.table_names().into_iter().map(|(s, _)| s).collect();
        out.dedup();
        out
    }

    fn list_tables(&self, schema: &str) -> Result<Vec<String>> {
        Ok(self
            .store
            .table_names()
            .into_iter()
            .filter(|(s, _)| s == schema)
            .map(|(_, t)| t)
            .collect())
    }

    fn table_schema(&self, schema: &str, table: &str) -> Result<Schema> {
        Ok(self.store.table(schema, table)?.schema().clone())
    }

    fn capabilities(&self) -> ScanCapabilities {
        ScanCapabilities {
            projection: true,
            nested_pruning: false,
            predicate: true,
            limit: true,
            aggregation: true,
        }
    }

    fn splits(
        &self,
        schema: &str,
        table: &str,
        _request: &ScanRequest,
    ) -> Result<Vec<ConnectorSplit>> {
        let t = self.store.table(schema, table)?;
        let n = t.segment_count().max(1);
        let mut splits = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + SEGMENTS_PER_SPLIT).min(n);
            splits.push(ConnectorSplit {
                id: SplitId(splits.len() as u64),
                schema: schema.to_string(),
                table: table.to_string(),
                payload: SplitPayload::Segments { start, end },
            });
            start = end;
        }
        Ok(splits)
    }

    fn scan_split(
        &self,
        split: &ConnectorSplit,
        request: &ScanRequest,
        hooks: &ScanHooks,
    ) -> Result<Vec<Page>> {
        let range = match &split.payload {
            SplitPayload::Segments { start, end } => Some((*start, *end)),
            other => {
                return Err(PrestoError::Connector(format!(
                    "{} connector got foreign split {other:?}",
                    self.name()
                )))
            }
        };
        let filters = request
            .predicate
            .iter()
            .map(|p| Ok((flat_column(&p.target)?, p.predicate.clone())))
            .collect::<Result<Vec<_>>>()?;

        match &request.aggregation {
            Some(agg) => {
                // Aggregation pushdown: run the partial aggregation natively
                // per split; stream only aggregated rows (Fig 2 right side).
                let query = NativeQuery {
                    filters,
                    group_by: agg.group_by.iter().map(flat_column).collect::<Result<_>>()?,
                    aggregates: agg
                        .aggregates
                        .iter()
                        .map(|(f, arg)| Ok((*f, arg.as_ref().map(flat_column).transpose()?)))
                        .collect::<Result<_>>()?,
                    // limits cannot be applied to partials before the final
                    // aggregation, so they stay in the engine
                    limit: None,
                };
                let (page, cost, _) =
                    self.store.aggregate(&split.schema, &split.table, &query, range)?;
                self.add_cost(ScanCost { filter: cost, stream: Duration::ZERO });
                hooks.on_page()?;
                Ok(vec![page])
            }
            None => {
                let columns: Vec<String> =
                    request.columns.iter().map(flat_column).collect::<Result<_>>()?;
                let (pages, cost) = self.store.scan(
                    &split.schema,
                    &split.table,
                    &columns,
                    &filters,
                    request.limit,
                    range,
                )?;
                self.add_cost(cost);
                for _ in &pages {
                    hooks.on_page()?;
                }
                Ok(pages)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::Field;

    fn events_schema() -> Schema {
        Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new("country", DataType::Varchar),
            Field::new("device", DataType::Varchar),
            Field::new("clicks", DataType::Bigint),
            Field::new("revenue", DataType::Double),
        ])
        .unwrap()
    }

    fn store_with_events(rows: usize, rows_per_segment: usize) -> RealtimeStore {
        let store = RealtimeStore::new("druid", rows_per_segment, RealtimeCostModel::default());
        store.create_table("default", "events", events_schema()).unwrap();
        let countries = ["us", "in", "br", "de"];
        let devices = ["ios", "android"];
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Timestamp(i as i64 * 1000),
                    Value::Varchar(countries[i % 4].into()),
                    Value::Varchar(devices[i % 2].into()),
                    Value::Bigint((i % 10) as i64),
                    Value::Double(i as f64 * 0.5),
                ]
            })
            .collect();
        store.ingest("default", "events", data).unwrap();
        store
    }

    #[test]
    fn ingest_builds_segments_with_dictionaries() {
        let store = store_with_events(1000, 250);
        let t = store.table("default", "events").unwrap();
        assert_eq!(t.segment_count(), 4);
        assert_eq!(t.row_count(), 1000);
    }

    #[test]
    fn native_group_by_aggregation() {
        let store = store_with_events(1000, 250);
        let q = NativeQuery {
            filters: vec![],
            group_by: vec!["country".into()],
            aggregates: vec![
                (AggregateFunction::CountStar, None),
                (AggregateFunction::Sum, Some("clicks".into())),
            ],
            limit: None,
        };
        let result = store.execute_native("default", "events", &q, None).unwrap();
        assert_eq!(result.rows.len(), 4);
        // each country has 250 rows
        for row in &result.rows {
            assert_eq!(row[1], Value::Bigint(250));
        }
        assert_eq!(result.rows_matched, 1000);
        assert!(result.cost > Duration::ZERO);
    }

    #[test]
    fn inverted_index_filter_reduces_matched_rows() {
        let store = store_with_events(1000, 250);
        let q = NativeQuery {
            filters: vec![("country".into(), ScalarPredicate::Eq(Value::Varchar("us".into())))],
            group_by: vec!["device".into()],
            aggregates: vec![(AggregateFunction::CountStar, None)],
            limit: None,
        };
        let result = store.execute_native("default", "events", &q, None).unwrap();
        assert_eq!(result.rows_matched, 250, "index must narrow to the us rows only");
        let total: i64 = result.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(total, 250);
    }

    #[test]
    fn compound_filters_intersect_indexes_and_residuals() {
        let store = store_with_events(1000, 250);
        let q = NativeQuery {
            filters: vec![
                ("country".into(), ScalarPredicate::In(vec!["us".into(), "in".into()])),
                ("device".into(), ScalarPredicate::Eq(Value::Varchar("ios".into()))),
                (
                    "clicks".into(),
                    ScalarPredicate::Range { min: Some(Value::Bigint(5)), max: None },
                ),
            ],
            group_by: vec![],
            aggregates: vec![(AggregateFunction::CountStar, None)],
            limit: None,
        };
        let result = store.execute_native("default", "events", &q, None).unwrap();
        // oracle
        let expected = (0..1000)
            .filter(|i| (i % 4 == 0 || i % 4 == 1) && i % 2 == 0 && i % 10 >= 5)
            .count() as i64;
        assert_eq!(result.rows[0][0], Value::Bigint(expected));
    }

    #[test]
    fn segment_ranges_partition_the_work() {
        let store = store_with_events(1000, 250);
        let q = NativeQuery {
            filters: vec![],
            group_by: vec![],
            aggregates: vec![(AggregateFunction::Sum, Some("clicks".into()))],
            limit: None,
        };
        let whole = store.execute_native("default", "events", &q, None).unwrap();
        let a = store.execute_native("default", "events", &q, Some((0, 2))).unwrap();
        let b = store.execute_native("default", "events", &q, Some((2, 4))).unwrap();
        let sum = |r: &NativeResult| r.rows[0][0].as_i64().unwrap();
        assert_eq!(sum(&whole), sum(&a) + sum(&b));
    }

    #[test]
    fn raw_scan_streams_filtered_rows_with_cost() {
        let store = store_with_events(1000, 250);
        let (rows, cost) = store
            .scan_segments(
                "default",
                "events",
                &["country".into(), "revenue".into()],
                &[("device".into(), ScalarPredicate::Eq(Value::Varchar("ios".into())))],
                None,
                None,
            )
            .unwrap();
        assert_eq!(rows.len(), 500);
        assert!(cost.total() > Duration::ZERO);
        // limit stops the stream early
        let (limited, _) = store
            .scan_segments("default", "events", &["country".into()], &[], Some(10), None)
            .unwrap();
        assert_eq!(limited.len(), 10);
    }

    #[test]
    fn scan_is_costlier_than_native_for_aggregations() {
        // The §IV.B argument: streaming raw rows out costs far more than
        // shipping the aggregation to the store.
        let store = store_with_events(10_000, 1000);
        let q = NativeQuery {
            filters: vec![],
            group_by: vec!["country".into()],
            aggregates: vec![(AggregateFunction::Sum, Some("revenue".into()))],
            limit: None,
        };
        let native = store.execute_native("default", "events", &q, None).unwrap();
        let (_, scan_cost) = store
            .scan_segments(
                "default",
                "events",
                &["country".into(), "revenue".into()],
                &[],
                None,
                None,
            )
            .unwrap();
        assert!(
            scan_cost.total() > native.cost * 3,
            "raw streaming ({scan_cost:?}) should dwarf native ({:?})",
            native.cost
        );
    }

    #[test]
    fn limit_zero_streams_no_row_and_charges_nothing() {
        let store = store_with_events(1000, 250);
        let (rows, cost) = store
            .scan_segments("default", "events", &["country".into()], &[], Some(0), None)
            .unwrap();
        assert!(rows.is_empty());
        assert_eq!(cost, ScanCost::default());
        assert_eq!(store.metrics().get(names::RT_ROWS_STREAMED), 0);
    }

    #[test]
    fn bigint_metrics_are_exact_above_2_pow_53() {
        let store = RealtimeStore::new("druid", 2, RealtimeCostModel::default());
        let schema = Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new("big", DataType::Bigint),
            Field::new("small", DataType::Integer),
        ])
        .unwrap();
        store.create_table("s", "t", schema).unwrap();
        let bigs = [i64::MAX - 1, -(1 << 53) - 1, 9_007_199_254_740_993];
        let smalls = [i32::MAX, i32::MIN, 7];
        let rows = (0..3)
            .map(|i| vec![Value::Timestamp(i as i64), bigs[i].into(), smalls[i].into()])
            .collect();
        store.ingest("s", "t", rows).unwrap();

        let (rows, _) = store
            .scan_segments("s", "t", &["big".into(), "small".into()], &[], None, None)
            .unwrap();
        let expected: Vec<Vec<Value>> =
            (0..3).map(|i| vec![Value::Bigint(bigs[i]), Value::Integer(smalls[i])]).collect();
        assert_eq!(rows, expected);

        let aggregate = |function, column: &str| {
            let query = NativeQuery {
                aggregates: vec![(function, Some(column.to_string()))],
                ..NativeQuery::default()
            };
            store.execute_native("s", "t", &query, None).unwrap().rows[0][0].clone()
        };
        // sums wrap, as `Accumulator::Sum` does
        let wrapped = bigs.iter().fold(0i64, |sum, x| sum.wrapping_add(*x));
        assert_eq!(aggregate(AggregateFunction::Sum, "big"), Value::Bigint(wrapped));
        assert_eq!(aggregate(AggregateFunction::Min, "big"), Value::Bigint(bigs[1]));
        assert_eq!(aggregate(AggregateFunction::Max, "big"), Value::Bigint(bigs[0]));
        assert_eq!(aggregate(AggregateFunction::Sum, "small"), Value::Bigint(6));
        assert_eq!(aggregate(AggregateFunction::Min, "small"), Value::Integer(i32::MIN));
        assert_eq!(aggregate(AggregateFunction::Max, "small"), Value::Integer(i32::MAX));
    }

    #[test]
    fn untaken_scan_costs_are_bounded_and_the_last_query_still_reads_its_own() {
        // 5 segments → 2 splits
        let connector = RealtimeConnector::new(store_with_events(1000, 200));
        let request = ScanRequest::project(vec![ColumnPath::whole("clicks")]);
        let splits = connector.splits("default", "events", &request).unwrap();
        assert_eq!(splits.len(), 2);
        for _ in 0..5_000 {
            for split in &splits {
                connector.scan_split(split, &request, &ScanHooks::none()).unwrap();
            }
        }
        // what an engine that never asks leaves behind
        assert_eq!(connector.last_scan_costs.read().len(), SCAN_COST_HISTORY);
        // fig16 and the dashboard example: drain, run one query, read its splits
        assert_eq!(connector.take_last_scan_costs().len(), SCAN_COST_HISTORY);
        let expected: Vec<ScanCost> = [(0, 4), (4, 5)]
            .into_iter()
            .map(|range| {
                let columns = ["clicks".to_string()];
                connector
                    .store()
                    .scan_segments("default", "events", &columns, &[], None, Some(range))
                    .unwrap()
                    .1
            })
            .collect();
        for split in &splits {
            connector.scan_split(split, &request, &ScanHooks::none()).unwrap();
        }
        assert_eq!(connector.take_last_scan_costs(), expected);
        assert_eq!(connector.take_last_scan_cost(), Duration::ZERO);
    }

    #[test]
    fn rejects_bad_schemas_and_unknown_tables() {
        let store = RealtimeStore::new("pinot", 100, RealtimeCostModel::default());
        let no_time = Schema::new(vec![Field::new("d", DataType::Varchar)]).unwrap();
        assert!(store.create_table("s", "t", no_time).is_err());
        let nested = Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new("x", DataType::array(DataType::Bigint)),
        ])
        .unwrap();
        assert!(store.create_table("s", "t", nested).is_err());
        assert!(store.table("s", "missing").is_err());
    }
}
