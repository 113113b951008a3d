#![warn(missing_docs)]

//! The connector framework (§IV) and its implementations.
//!
//! "Presto has a connector interface and implementations to run SQL queries
//! on heterogeneous storage systems." The SPI ([`spi`]) mirrors the paper's
//! pieces: connector metadata (schemas/tables/columns), the split manager
//! (how a table divides into parallel units), splits, and the record-set
//! provider (how a split's data streams into engine pages) — plus the
//! pushdown capability negotiation that §IV.A/§IV.B are about: projection,
//! predicate, limit, and aggregation pushdown.
//!
//! Connectors implemented (every system named by the paper's experiments):
//!
//! | module | models | pushdowns |
//! |--------|--------|-----------|
//! | [`hive`] | HDFS + Parquet warehouse | projection (incl. nested pruning), predicate (stats/dictionary/lazy via the new reader), limit, partition pruning |
//! | [`mysql`] | OLTP row store (also backs the gateway's routing table, §VIII) | projection, predicate, limit |
//! | [`druid`] / [`pinot`] | real-time OLAP stores: dictionary columns, CSR inverted indexes, typed metric columns, no rollup ([`realtime`]; §IV.B, Fig 16) | projection, predicate, limit, **aggregation** |
//! | [`memory`] | in-memory tables for tests/examples | projection, predicate, limit |
//! | [`tpch`] | TPC-H LINEITEM generator (Figs 18–20 workloads) | projection |

pub mod catalog;
pub mod druid;
pub mod hive;
pub mod memory;
pub mod mysql;
pub mod pinot;
pub mod realtime;
pub mod spi;
pub mod system;
pub mod tpch;

pub use catalog::CatalogRegistry;
pub use spi::{
    AggregationPushdown, ColumnPath, Connector, ConnectorSplit, PushdownPredicate,
    ScanCapabilities, ScanHooks, ScanRequest, SplitPayload,
};
pub use system::SystemConnector;
