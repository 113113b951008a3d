#![warn(missing_docs)]
#![deny(clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Cluster-wide multi-query workload simulation.
//!
//! PR 5's discrete-event scheduler simulated *one* query at a time; this
//! crate lifts it to the cluster: thousands of Zipf-skewed tenants submit
//! tens of thousands of queries against one simulated Presto cluster, with
//! Poisson or diurnal arrival processes, per-tenant weighted fair queuing
//! inside priority lanes, and per-tenant latency SLO reports — all on
//! the virtual [`presto_common::SimClock`], deterministic in
//! `(seed, config)`.
//!
//! - [`workload`] — arrival processes, the Zipf tenant sampler, tenant
//!   classes (interactive / dashboard / batch) and the plan-template
//!   catalog, every draw pure in `(seed, stream, index)`;
//! - [`slo`] — declared per-class p99 targets in virtual time;
//! - [`sim`] — the event loop: queries queue under WFQ or FIFO, dispatch
//!   into real cluster executions on [`presto_common::SimClock::fork`]ed
//!   timelines, and fold their latencies and trace digests into a
//!   [`sim::SimReport`].

pub mod sim;
pub mod slo;
pub mod workload;

pub use sim::{
    run_simulation, ElasticPlan, ElasticReport, SchedulerMode, SimConfig, SimReport, TenantReport,
    SPOT_CLASS,
};
pub use slo::SloPolicy;
pub use workload::{tenant_class, ArrivalProcess, PlanTemplate, TenantClass, ZipfSampler};
