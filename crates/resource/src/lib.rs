#![warn(missing_docs)]
#![deny(clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Resource management for the engine (§XII.C of the paper).
//!
//! Interactive Presto at scale runs many queries against a fixed memory
//! fleet; this crate supplies the mechanisms that make that safe:
//!
//! - [`pool`] — a cluster-level [`MemoryPool`] parceled into per-query
//!   [`QueryPool`]s with RAII [`Reservation`] guards and an OOM arbiter
//!   that revokes spillable memory first and kills the largest query last;
//! - [`wfq`] — virtual-time weighted fair queuing across tenants inside
//!   [`QueryPriority`] lanes (plus the naive FIFO counterfactual), the
//!   dispatch queue the workload simulator drives;
//! - [`spill`] — partition serialization for blocking operators through the
//!   native Parquet writer onto any [`presto_storage::FileSystem`].
//!
//! [`ResourceManager`] bundles the memory pool and the spill filesystem for
//! the engine facade.

pub mod pool;
pub mod spill;
pub mod wfq;

pub use pool::{MemoryPool, QueryPool, Reservation, ReservationKind};
pub use spill::{SpillFile, SpillManager};
pub use wfq::{FifoQueue, QueryPriority, QueuedQuery, WfqScheduler};

use std::sync::Arc;

use presto_common::metrics::CounterSet;
use presto_common::{Result, SimClock};
use presto_storage::{FileSystem, InMemoryFileSystem};

/// The engine-facing bundle: one cluster memory pool, one spill filesystem
/// and the virtual clock queries run on. Cloning shares all three.
#[derive(Clone)]
pub struct ResourceManager {
    pool: MemoryPool,
    spill_fs: Arc<dyn FileSystem>,
    clock: SimClock,
}

impl ResourceManager {
    /// Manager over a cluster-wide memory budget in bytes (`None` =
    /// unbounded), spilling to an in-memory filesystem.
    pub fn new(cluster_memory_bytes: Option<usize>, clock: SimClock) -> ResourceManager {
        let spill_fs = Arc::new(InMemoryFileSystem::new());
        ResourceManager::with_spill_fs(cluster_memory_bytes, clock, spill_fs)
    }

    /// Manager spilling to an explicit filesystem (benches use a local
    /// tempdir-backed one).
    pub fn with_spill_fs(
        cluster_memory_bytes: Option<usize>,
        clock: SimClock,
        spill_fs: Arc<dyn FileSystem>,
    ) -> ResourceManager {
        ResourceManager { pool: MemoryPool::new(cluster_memory_bytes), spill_fs, clock }
    }

    /// An unbounded manager (the default engine configuration).
    pub fn unbounded() -> ResourceManager {
        ResourceManager::new(None, SimClock::new())
    }

    /// The cluster memory pool.
    pub fn pool(&self) -> &MemoryPool {
        &self.pool
    }

    /// The shared virtual clock engine-direct queries run on.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Admission, which admits every query at once. Nothing in the engine
    /// calls it; it stays only for the `resource.admit_ns` probe of the
    /// wall-clock benchmark (`benchmark/src/probes.rs`).
    pub fn admission(&self) -> Admission {
        Admission
    }

    /// A spill manager for one query, writing under a per-query directory
    /// and accounting into that query's `metrics`.
    pub fn spill_manager(&self, query_id: u64, metrics: CounterSet) -> SpillManager {
        SpillManager::new(self.spill_fs.clone(), format!("/spill/q{query_id}"), metrics)
    }
}

impl std::fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceManager").field("pool", &self.pool).finish()
    }
}

/// See [`ResourceManager::admission`].
#[derive(Debug)]
pub struct Admission;

/// What [`Admission::admit`] hands out; holds nothing.
#[derive(Debug)]
pub struct AdmissionPermit;

impl Admission {
    /// Admit a query: always, at once.
    pub fn admit(
        &self,
        _user: &str,
        _priority: QueryPriority,
        _metrics: &CounterSet,
    ) -> Result<AdmissionPermit> {
        Ok(AdmissionPermit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manager_wires_pool_and_spill() {
        let manager = ResourceManager::new(Some(1 << 20), SimClock::new());
        let metrics = CounterSet::new();
        let query = manager.pool().register_query(Some(1024));
        let _res = query.reserve(512, ReservationKind::User).unwrap();
        assert_eq!(manager.pool().used(), 512);

        let spill = manager.spill_manager(query.query_id(), metrics.clone());
        let schema = presto_common::Schema::new(vec![presto_common::Field::new(
            "x",
            presto_common::DataType::Bigint,
        )])
        .unwrap();
        let page =
            presto_common::Page::new(vec![presto_common::Block::bigint(vec![1, 2, 3])]).unwrap();
        let file = spill.spill_pages(&schema, &[page]).unwrap();
        assert_eq!(spill.read(&file).unwrap()[0].positions(), 3);
        assert!(metrics.get("spill.bytes_written") > 0);
    }
}
