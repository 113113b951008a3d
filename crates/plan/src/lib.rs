#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Logical planning: the plan tree, the rule-based optimizer, and the plan
//! fragmenter (§III, Fig 1: "Analyzer generates logical plan ... optimizers
//! run several rounds of optimizations ... The fragmenter divides the plan
//! into fragments").
//!
//! The optimizer implements the paper's pushdowns as rules:
//! - constant folding;
//! - **predicate pushdown** through projects/joins and into connector scans
//!   (§IV.A);
//! - **projection pushdown** with **nested column pruning** (§IV.A, §V.D);
//! - **limit pushdown** (§IV.A);
//! - **aggregation pushdown** into connectors that advertise it (§IV.B,
//!   Fig 2) — the scan emits partial aggregates, the plan keeps a final
//!   aggregation above;
//! - the **geospatial rewrite** (§VI.E, Fig 13): a cross join on
//!   `st_contains(shape, st_point(lng, lat))` becomes a QuadTree-backed
//!   [`logical::LogicalPlan::GeoJoin`] (the `build_geo_index` plan);
//! - Sort+Limit fusion into TopN.
//!
//! Per §XII.A ("Collecting statistics is hard"), this is deliberately a
//! *rule-based* optimizer: production Presto at these companies runs with
//! rules and session toggles, not a cost model.

pub mod explain;
pub mod fragment;
pub mod logical;
pub mod optimizer;

pub use explain::{explain, explain_analyze};
pub use fragment::{fragment_plan, PlanFragment};
pub use logical::{AggregateExpr, AggregateStep, JoinKind, LogicalPlan, SortKey};
pub use optimizer::{optimize, split_equi_keys, OptimizerConfig};
