#![warn(missing_docs)]
#![deny(clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Vectorized plan execution (§III: "Some workers are scanning files, some
//! workers are streaming data from underlying connectors, and some workers
//! are running SQL aggregations, joins, etc.").
//!
//! The executor evaluates a [`presto_plan::LogicalPlan`] over pages:
//! connector scans, vectorized filter/project, hash aggregation (single and
//! final-over-partial for aggregation pushdown), hash joins and cross joins,
//! the QuadTree [`GeoJoin`](presto_plan::LogicalPlan::GeoJoin) of §VI, sort
//! / top-N / limit, and exchange sources bound by the cluster runtime.
//! The breakers stay on typed columns: [`presto_common::keys`] turns key
//! columns into dense group/join ids; [`executor`] says what each operator
//! does with them.
//!
//! Memory is accounted against a session budget; exceeding it raises the
//! paper's infamous `"Insufficient Resource"` error (§XII.C: "When users are
//! joining two large tables, Presto will return an error").

pub mod context;
pub mod exchange;
pub mod executor;

pub use context::ExecutionContext;
pub use executor::execute;
