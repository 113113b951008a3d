//! MySQL connector over a simulated OLTP row store.
//!
//! §IV: "MySQL is used widely in all companies with transaction support" and
//! "users could join Hadoop data with MySQL data using Presto-Hive-connector
//! and Presto-MySQL-connector, no need to copy any data." The store also
//! backs the federation gateway's routing table (§VIII: "The user and group
//! to cluster mapping data is stored in MySQL. Presto administrators could
//! play with MySQL to dynamically redirect any traffic").
//!
//! Pushdown: "it is desirable to let MySQL only stream filtered, projected,
//! and limited rows into Presto, instead of streaming the whole table"
//! (§IV.A) — so predicate/projection/limit are applied store-side here and
//! counted, letting experiments show the bytes-over-the-wire difference.

use std::collections::BTreeMap;
use std::sync::Arc;

use presto_common::ids::SplitId;
use presto_common::metrics::{names, CounterSet};
use presto_common::sync::{Rank, RwLock};
use presto_common::{Block, Page, PrestoError, Result, Schema, Value};

use crate::memory::scan_page;
use crate::spi::{
    Connector, ConnectorSplit, ScanCapabilities, ScanHooks, ScanRequest, SplitPayload,
};

struct MySqlTable {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

/// The simulated MySQL server. Cloning shares the database.
///
/// Counters: `mysql.rows_scanned`, `mysql.rows_streamed`, `mysql.statements`.
#[derive(Clone)]
pub struct MySqlConnector {
    tables: Arc<RwLock<BTreeMap<(String, String), MySqlTable>>>,
    metrics: CounterSet,
}

impl Default for MySqlConnector {
    fn default() -> MySqlConnector {
        MySqlConnector::new()
    }
}

impl MySqlConnector {
    /// Empty server.
    pub fn new() -> MySqlConnector {
        MySqlConnector {
            tables: Arc::new(RwLock::new(Rank::MySqlTables, BTreeMap::new())),
            metrics: CounterSet::new(),
        }
    }

    /// The shared counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// `CREATE TABLE`.
    pub fn create_table(&self, schema_name: &str, table: &str, schema: Schema) -> Result<()> {
        self.metrics.incr(names::MYSQL_STATEMENTS);
        self.tables
            .write()
            .insert((schema_name.into(), table.into()), MySqlTable { schema, rows: Vec::new() });
        Ok(())
    }

    /// `INSERT INTO ... VALUES ...` (multi-row).
    pub fn insert(&self, schema_name: &str, table: &str, rows: Vec<Vec<Value>>) -> Result<()> {
        self.metrics.incr(names::MYSQL_STATEMENTS);
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&(schema_name.to_string(), table.to_string()))
            .ok_or_else(|| PrestoError::Connector(format!("no table {schema_name}.{table}")))?;
        for row in &rows {
            if row.len() != t.schema.len() {
                return Err(PrestoError::Connector(format!(
                    "row width {} does not match table width {}",
                    row.len(),
                    t.schema.len()
                )));
            }
        }
        t.rows.extend(rows);
        Ok(())
    }

    /// `UPDATE ... SET set_col = set_value WHERE where_col = where_value`;
    /// returns rows changed.
    pub fn update_where(
        &self,
        schema_name: &str,
        table: &str,
        set_col: &str,
        set_value: Value,
        where_col: &str,
        where_value: &Value,
    ) -> Result<usize> {
        self.metrics.incr(names::MYSQL_STATEMENTS);
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&(schema_name.to_string(), table.to_string()))
            .ok_or_else(|| PrestoError::Connector(format!("no table {schema_name}.{table}")))?;
        let set_idx = t
            .schema
            .index_of(set_col)
            .ok_or_else(|| PrestoError::Connector(format!("no column '{set_col}'")))?;
        let where_idx = t
            .schema
            .index_of(where_col)
            .ok_or_else(|| PrestoError::Connector(format!("no column '{where_col}'")))?;
        let mut changed = 0;
        for row in &mut t.rows {
            if row[where_idx] == *where_value {
                row[set_idx] = set_value.clone();
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Point lookup used by the gateway: first row where `col = value`.
    pub fn lookup(
        &self,
        schema_name: &str,
        table: &str,
        column: &str,
        value: &Value,
    ) -> Result<Option<Vec<Value>>> {
        self.metrics.incr(names::MYSQL_STATEMENTS);
        let tables = self.tables.read();
        let t = tables
            .get(&(schema_name.to_string(), table.to_string()))
            .ok_or_else(|| PrestoError::Connector(format!("no table {schema_name}.{table}")))?;
        let idx = t
            .schema
            .index_of(column)
            .ok_or_else(|| PrestoError::Connector(format!("no column '{column}'")))?;
        Ok(t.rows.iter().find(|row| row[idx] == *value).cloned())
    }

    fn to_page(&self, schema: &Schema, rows: &[Vec<Value>]) -> Result<Page> {
        let mut blocks = Vec::with_capacity(schema.len());
        for (c, field) in schema.fields().iter().enumerate() {
            let column: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            blocks.push(Block::from_values(&field.data_type, &column)?);
        }
        if blocks.is_empty() {
            Ok(Page::zero_column(rows.len()))
        } else {
            Page::new(blocks)
        }
    }
}

impl Connector for MySqlConnector {
    fn name(&self) -> &str {
        "mysql"
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
        self.tables
            .read()
            .get(&(schema.to_string(), table.to_string()))
            .map(|t| t.schema.clone())
            .ok_or_else(|| {
                PrestoError::Analysis(format!("table mysql.{schema}.{table} does not exist"))
            })
    }

    fn capabilities(&self) -> ScanCapabilities {
        ScanCapabilities {
            projection: true,
            nested_pruning: false, // row store has flat columns
            predicate: true,
            limit: true,
            aggregation: false,
        }
    }

    fn splits(
        &self,
        schema: &str,
        table: &str,
        _request: &ScanRequest,
    ) -> Result<Vec<ConnectorSplit>> {
        // An OLTP store streams through one connection: one split.
        self.table_schema(schema, table)?;
        Ok(vec![ConnectorSplit {
            id: SplitId(0),
            schema: schema.to_string(),
            table: table.to_string(),
            payload: SplitPayload::MySql,
        }])
    }

    fn scan_split(
        &self,
        split: &ConnectorSplit,
        request: &ScanRequest,
        hooks: &ScanHooks,
    ) -> Result<Vec<Page>> {
        if !matches!(split.payload, SplitPayload::MySql) {
            return Err(PrestoError::Connector("mysql connector got foreign split".into()));
        }
        let tables = self.tables.read();
        let t = tables
            .get(&(split.schema.clone(), split.table.clone()))
            .ok_or_else(|| PrestoError::Connector(format!("no table {}", split.table)))?;
        self.metrics.add(names::MYSQL_ROWS_SCANNED, t.rows.len() as u64);
        let full = self.to_page(&t.schema, &t.rows)?;

        // WHERE, LIMIT and the SELECT column list all run server-side
        // (predicate, limit and projection pushdown)
        let page =
            scan_page(&t.schema, &full, &request.predicate, request.limit, &request.columns)?;
        hooks.on_page()?;
        self.metrics.add(names::MYSQL_ROWS_STREAMED, page.positions() as u64);
        Ok(vec![page])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spi::{ColumnPath, PushdownPredicate};
    use presto_common::{DataType, Field};
    use presto_parquet::ScalarPredicate;

    fn routing_table() -> MySqlConnector {
        let c = MySqlConnector::new();
        let schema = Schema::new(vec![
            Field::new("user_group", DataType::Varchar),
            Field::new("cluster", DataType::Varchar),
        ])
        .unwrap();
        c.create_table("presto", "routing", schema).unwrap();
        c.insert(
            "presto",
            "routing",
            vec![
                vec!["ads".into(), "dedicated-1".into()],
                vec!["growth".into(), "shared".into()],
                vec!["eats".into(), "dedicated-2".into()],
            ],
        )
        .unwrap();
        c
    }

    #[test]
    fn crud_operations() {
        let c = routing_table();
        assert_eq!(
            c.lookup("presto", "routing", "user_group", &"ads".into()).unwrap().unwrap()[1],
            Value::Varchar("dedicated-1".into())
        );
        assert_eq!(
            c.update_where(
                "presto",
                "routing",
                "cluster",
                "shared".into(),
                "user_group",
                &"ads".into()
            )
            .unwrap(),
            1
        );
        assert_eq!(
            c.lookup("presto", "routing", "user_group", &"ads".into()).unwrap().unwrap()[1],
            Value::Varchar("shared".into())
        );
        // width validation
        assert!(c.insert("presto", "routing", vec![vec!["x".into()]]).is_err());
    }

    #[test]
    fn scan_applies_pushdowns_server_side() {
        let c = routing_table();
        let request = ScanRequest {
            columns: vec![ColumnPath::whole("cluster")],
            predicate: vec![PushdownPredicate {
                target: ColumnPath::whole("user_group"),
                predicate: ScalarPredicate::Eq(Value::Varchar("growth".into())),
            }],
            limit: None,
            aggregation: None,
        };
        let splits = c.splits("presto", "routing", &request).unwrap();
        assert_eq!(splits.len(), 1);
        let pages = c.scan_split(&splits[0], &request, &ScanHooks::none()).unwrap();
        assert_eq!(pages[0].positions(), 1);
        assert_eq!(pages[0].row(0), vec![Value::Varchar("shared".into())]);
        // only the matching row crossed the wire
        assert_eq!(c.metrics().get(names::MYSQL_ROWS_SCANNED), 3);
        assert_eq!(c.metrics().get(names::MYSQL_ROWS_STREAMED), 1);
    }

    #[test]
    fn limit_pushdown_truncates_stream() {
        let c = routing_table();
        let request = ScanRequest {
            columns: vec![ColumnPath::whole("user_group")],
            limit: Some(2),
            ..ScanRequest::default()
        };
        let splits = c.splits("presto", "routing", &request).unwrap();
        let pages = c.scan_split(&splits[0], &request, &ScanHooks::none()).unwrap();
        assert_eq!(pages[0].positions(), 2);
        assert_eq!(c.metrics().get(names::MYSQL_ROWS_STREAMED), 2);
    }
}
