#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! The engine facade: sessions, catalogs, and end-to-end SQL.
//!
//! [`engine::PrestoEngine`] wires the whole paper-stack together: SQL text →
//! parser → analyzer → rule-based optimizer (with every §IV/§V/§VI pushdown
//! and rewrite) → fragmenter → vectorized execution over connectors. The
//! geospatial plugin (§VI.E) is registered by default, so `st_point` /
//! `st_contains` work both as plain functions and as the QuadTree join
//! rewrite.

pub mod engine;
pub mod plugin;
pub mod session;

pub use engine::{PlannedQuery, PrestoEngine, QueryInfo, QueryResult};
pub use session::Session;
