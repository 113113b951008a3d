#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! The simulated distributed runtime: clusters of workers, elasticity, and
//! the federation gateway.
//!
//! - [`worker::Worker`] — a worker node with the §IX graceful-shutdown state
//!   machine (`ACTIVE → SHUTTING_DOWN → (drain + 2× grace period) →
//!   TERMINATED`);
//! - [`cluster::PrestoCluster`] — one coordinator + N workers; distributed
//!   query execution parallelizes leaf-fragment splits across active
//!   workers on real threads; supports graceful expansion ("simply add more
//!   workers ... automatically added to the existing cluster") and shrink;
//! - [`gateway::PrestoGateway`] — the §VIII federation gateway: HTTP-redirect
//!   semantics, user/group → cluster routing stored in the MySQL simulator,
//!   dynamic re-routing for zero-downtime maintenance.

pub mod autoscaler;
pub mod cluster;
pub mod gateway;
pub mod worker;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScaleDecision};
pub use cluster::{ClusterConfig, PrestoCluster};
pub use gateway::{PrestoGateway, Redirect};
pub use worker::{Worker, WorkerHealth, WorkerLifecycle, WorkerState};
