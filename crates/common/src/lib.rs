#![warn(missing_docs)]
#![deny(clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Core types shared by every crate in the Presto-at-scale reproduction.
//!
//! This crate defines the vocabulary of the engine described in
//! *"From Batch Processing to Real Time Analytics: Running Presto at Scale"*
//! (ICDE 2022):
//!
//! - [`types::DataType`] — the SQL type system, including arbitrarily nested
//!   `ROW` / `ARRAY` / `MAP` types (§V of the paper is about nested data).
//! - [`block::Block`] — in-memory **columnar** vectors. Presto is a vectorized
//!   engine that processes "a bunch of in memory encoded column values
//!   vectorized, instead of row by row" (§III); blocks are that encoding,
//!   including dictionary-encoded blocks.
//! - [`page::Page`] — a horizontal slice of blocks, the unit streamed between
//!   operators and connectors.
//! - [`domain::TypedDomain`] — an interval or set of literals in one column's
//!   storage class: what a pushed-down predicate, a scan and the evaluator's
//!   `BETWEEN` / `IN` loop over instead of boxed values.
//! - [`order::RowOrder`] — row order under sort keys on typed columns of
//!   one or more pages, with a stable sort of packed `u64` ranks, a
//!   bounded-heap top-N, and a gather of the ordered rows from the pages.
//! - [`keys::KeyTable`] — the one row-key codec: key columns, or a selection
//!   of their rows, become dense ids for every GROUP BY and hash join.
//! - [`dictionary::DictionaryBuilder`] — the one rule for when a column is
//!   worth dictionary encoding, shared by the Parquet writer and the memory
//!   connector.
//! - [`value::Value`] — scalar values used for literals, row-at-a-time paths
//!   (the *legacy* Parquet reader operates on these) and test oracles.
//! - [`clock::SimClock`] — a virtual clock used by the storage and cluster
//!   simulators so latency experiments are deterministic.
//! - [`cost::COST`] — the one cost model of virtual work, and the experiments' time unit.
//! - [`metrics::CounterSet`] — named counters used to report call-count
//!   results (e.g. §VII's "listFiles calls reduced to less than 40%"), plus
//!   log-bucketed [`metrics::Histogram`]s for latency distributions.
//! - [`fault::FaultInjector`] — seeded, declarative fault injection so the
//!   cluster's crash-recovery paths replay deterministically.
//! - [`trace::Trace`] — hierarchical virtual-time spans (query → stage →
//!   task → operator) with a seed-deterministic digest, backing
//!   `EXPLAIN ANALYZE` and the chaos suite's determinism check.

pub mod block;
pub mod clock;
pub mod cost;
pub mod dictionary;
pub mod domain;
pub mod error;
pub mod fault;
pub mod ids;
pub mod keys;
pub mod metrics;
pub mod order;
pub mod page;
pub mod ring;
pub mod rng;
pub mod sync;
pub mod telemetry;
pub mod trace;
pub mod types;
pub mod value;

pub use block::{Block, Run};
pub use clock::SimClock;
pub use domain::{Domain, TypedDomain};
pub use error::{PrestoError, Result};
pub use fault::{FaultDecision, FaultInjector, FaultPlan, FaultSpec};
pub use metrics::{CounterSet, GaugeSet, Histogram, HistogramSet, TimeSeries, TimeSeriesSet};
pub use order::{OrderedRows, RowOrder};
pub use page::{selected_rows, Page};
pub use ring::HashRing;
pub use telemetry::{QueryRow, TaskRow, TelemetryRegistry, WorkerRow};
pub use trace::{OperatorStats, Span, SpanId, SpanKind, Trace};
pub use types::{DataType, Field, Schema};
pub use value::Value;
