//! The worker lifecycle: expansion, graceful decommission, revocation
//! storms, the lifecycle poll and tick, and the fragment-cache migration
//! that keeps affinity caches warm through a drain.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use presto_cache::fragment::FragmentResultCache;
use presto_common::metrics::names;
use presto_common::telemetry::WorkerRow;
use presto_common::{HashRing, PrestoError, Result};

use super::scheduler::ring_identity;
use super::telemetry::lifecycle_str;
use super::PrestoCluster;
use crate::worker::{Worker, WorkerLifecycle, WorkerState, DEFAULT_WORKER_CLASS};

impl PrestoCluster {
    /// §IX expansion: "we could simply add more workers, configured with
    /// the same coordinator. New workers are automatically added to the
    /// existing cluster."
    pub fn expand(&self, count: u32) {
        self.expand_class(count, DEFAULT_WORKER_CLASS);
    }

    /// [`PrestoCluster::expand`] with an explicit capacity class — e.g.
    /// `"spot"` workers that a [`FaultSpec::RevokeClass`] storm can take
    /// out en masse.
    ///
    /// [`FaultSpec::RevokeClass`]: presto_common::fault::FaultSpec::RevokeClass
    pub fn expand_class(&self, count: u32, class: &str) {
        // lock order: fragment_caches before workers, matching the scan
        // path (which reads a worker's cache before dispatching to it)
        let mut caches = self.fragment_caches.write();
        let mut workers = self.workers.write();
        for _ in 0..count {
            let id = self.next_worker_id.fetch_add(1, Ordering::Relaxed);
            workers.push(Worker::new(id, self.clock.clone(), self.config.grace_period, class));
            if self.config.fragment_cache_entries > 0 {
                caches.insert(id, self.new_fragment_cache());
            }
        }
    }

    fn new_fragment_cache(&self) -> FragmentResultCache {
        FragmentResultCache::new(self.config.fragment_cache_entries, self.metrics.clone())
    }

    /// The fragment result cache of a worker about to run a task (`None`
    /// with caching off). A worker whose cache died with it — crashed,
    /// quarantined, revoked — and that is back in service starts an empty
    /// one here.
    pub(super) fn fragment_cache(&self, worker_id: u32) -> Option<FragmentResultCache> {
        if self.config.fragment_cache_entries == 0 {
            return None;
        }
        let mut caches = self.fragment_caches.write();
        Some(caches.entry(worker_id).or_insert_with(|| self.new_fragment_cache()).clone())
    }

    /// Gracefully decommission one worker (`Active → Draining →
    /// Decommissioned`): migrate its fragment-cache entries to each entry's
    /// consistent successor (counted as `cluster.cache_entries_migrated`),
    /// then start the §IX shutdown state machine. The draining worker
    /// accepts no new splits; its queued splits are handed off by the scan
    /// scheduler (`cluster.splits_handed_off`). A worker that is not
    /// `Active` is left alone — its drain is already underway or it is
    /// gone. Errors only for an unknown worker id.
    pub fn decommission_worker(&self, worker_id: u32) -> Result<()> {
        let workers = self.workers.read();
        let worker = workers
            .iter()
            .find(|w| w.id == worker_id)
            .ok_or_else(|| PrestoError::Execution(format!("no worker {worker_id}")))?;
        if worker.state() != WorkerState::Active {
            return Ok(());
        }
        // Successor set for cache migration: every *other* worker still in
        // Active state — the fleet the scheduler's ring will see once this
        // worker is gone.
        let survivors: Vec<u32> = workers
            .iter()
            .filter(|w| w.id != worker_id && w.state() == WorkerState::Active)
            .map(|w| w.id)
            .collect();
        worker.request_shutdown();
        drop(workers);
        self.migrate_caches(worker_id, &survivors);
        Ok(())
    }

    /// Schedule a graceful decommission of `worker_id` at virtual time
    /// `at`, fired by [`PrestoCluster::poll_lifecycle`]. Because the scan
    /// scheduler polls as its event loop advances, a scheduled drain lands
    /// mid-query and exercises the queued-split handoff path.
    pub fn schedule_decommission(&self, worker_id: u32, at: Duration) {
        self.pending_drains.lock().push((at, worker_id));
    }

    /// Abruptly lose every worker of `class` that is still in the fleet —
    /// the spot revocation storm. In-flight tasks on those workers are
    /// lost, their queued splits get reassigned to survivors by the scan
    /// scheduler's retry machinery, and their worker-side caches die with
    /// them. Returns how many workers were revoked (counted as
    /// `cluster.workers_revoked`).
    pub fn revoke_class(&self, class: &str) -> usize {
        let workers = self.workers.read();
        let mut revoked: Vec<u32> = Vec::new();
        for w in workers.iter() {
            if w.class() == class
                && !matches!(w.state(), WorkerState::Crashed | WorkerState::Terminated)
            {
                w.crash();
                revoked.push(w.id);
            }
        }
        drop(workers);
        if !revoked.is_empty() {
            self.metrics.add(names::CLUSTER_WORKERS_REVOKED, revoked.len() as u64);
            let mut caches = self.fragment_caches.write();
            for id in &revoked {
                caches.remove(id);
            }
        }
        revoked.len()
    }

    /// Any revocation specs or scheduled drains that could fire as virtual
    /// time advances? Cheap guard so the scan scheduler's hot loop skips
    /// the poll entirely in the common (no-elasticity) case.
    pub fn has_lifecycle_events(&self) -> bool {
        self.config.fault_injector.has_revocations() || !self.pending_drains.lock().is_empty()
    }

    /// Fire every lifecycle event due by virtual time `now`: revocation
    /// storms declared in the fault plan and scheduled graceful
    /// decommissions. Called by [`PrestoCluster::tick`] on the master
    /// clock and by the scan scheduler on the query clock, so storms and
    /// drains land mid-query too. Each event fires exactly once.
    pub fn poll_lifecycle(&self, now: Duration) {
        let injector = &self.config.fault_injector;
        if injector.has_revocations() {
            for class in injector.revocations_due(now) {
                self.revoke_class(&class);
            }
        }
        let due: Vec<u32> = {
            let mut drains = self.pending_drains.lock();
            if drains.is_empty() {
                Vec::new()
            } else {
                let mut due = Vec::new();
                drains.retain(|&(at, id)| {
                    let fire = now >= at;
                    if fire {
                        due.push(id);
                    }
                    !fire
                });
                due
            }
        };
        for id in due {
            // the worker may already be gone (revoked, reaped) — fine
            let _ = self.decommission_worker(id);
        }
    }

    /// Copy a departing worker's fragment-cache entries to each entry's
    /// consistent-hash successor among `survivors` — the owner a
    /// survivors-only ring assigns, i.e. exactly where the affinity
    /// scheduler will send the split next. A copy shares the entry's
    /// columns, so no data moves. Entries iterate in key order,
    /// so any LRU evictions the copies cause downstream are deterministic.
    /// The source cache stays in place — the draining worker may still
    /// serve grace-period tasks from it — and dies with the worker at reap
    /// time.
    fn migrate_caches(&self, from: u32, survivors: &[u32]) {
        if survivors.is_empty() {
            return;
        }
        let ring = HashRing::with_workers_default(survivors.iter().copied());
        let caches = self.fragment_caches.read();
        let Some(source) = caches.get(&from) else { return };
        let mut migrated = 0u64;
        for (key, pages) in source.entries() {
            let Some(owner) = ring.owner(ring_identity(&key.split_identity)) else { continue };
            if let Some(successor) = caches.get(&owner) {
                successor.put(key, pages.as_ref().clone());
                migrated += 1;
            }
        }
        drop(caches);
        if migrated > 0 {
            self.metrics.add(names::CLUSTER_CACHE_ENTRIES_MIGRATED, migrated);
        }
    }

    /// Advance worker state machines; reap terminated workers (counted as
    /// `cluster.workers_decommissioned` — only the polite path reaches
    /// `Terminated`). Fires due lifecycle events first. Returns the number
    /// of live workers remaining.
    pub fn tick(&self) -> usize {
        self.poll_lifecycle(self.clock.now());
        // lock order: fragment_caches before workers (see expand_class)
        let mut caches = self.fragment_caches.write();
        let mut workers = self.workers.write();
        for w in workers.iter() {
            w.tick();
        }
        let mut decommissioned = 0u64;
        let mut reaped: Vec<Arc<Worker>> = Vec::new();
        workers.retain(|w| {
            let live = w.state() != WorkerState::Terminated;
            if !live {
                // a terminated worker takes its in-memory caches with it;
                // anything worth keeping was migrated when the drain began
                caches.remove(&w.id);
                decommissioned += 1;
                reaped.push(w.clone());
            }
            live
        });
        drop(caches);
        let remaining = workers.len();
        drop(workers);
        if decommissioned > 0 {
            self.metrics.add(names::CLUSTER_WORKERS_DECOMMISSIONED, decommissioned);
        }
        // reaped workers keep a terminal row in system.runtime.workers
        for w in reaped {
            self.telemetry.record_worker(WorkerRow {
                worker_id: w.id,
                class: w.class().to_string(),
                lifecycle: lifecycle_str(WorkerLifecycle::Decommissioned).to_string(),
                active_tasks: 0,
                completed_tasks: w.completed_tasks() as u64,
                busy_pct: 0,
            });
        }
        self.sample_telemetry();
        remaining
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::cluster;
    use super::*;
    use crate::worker::{WorkerHealth, DEFAULT_PROBATION_WINDOW, DEFAULT_QUARANTINE_PERIOD};
    use crate::ClusterConfig;
    use presto_common::{FaultInjector, FaultPlan, SimClock, Value};
    use presto_connectors::tpch::TpchConnector;
    use presto_core::{PrestoEngine, Session};

    #[test]
    fn expansion_adds_capacity() {
        let c = cluster();
        assert_eq!(c.active_workers().len(), 3);
        c.expand(2);
        assert_eq!(c.active_workers().len(), 5);
        // new workers participate immediately
        c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        assert!(c.workers().iter().any(|w| w.id >= 3 && w.completed_tasks() > 0));
    }

    #[test]
    fn graceful_shrink_never_fails_queries() {
        let c = cluster();
        c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        // drain worker 0
        c.decommission_worker(0).unwrap();
        // queries keep running while the worker drains
        for _ in 0..5 {
            c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
            c.clock().advance(Duration::from_secs(1));
            c.tick();
        }
        // finish both grace periods
        c.clock().advance(Duration::from_secs(5));
        c.tick();
        c.clock().advance(Duration::from_secs(5));
        let remaining = c.tick();
        assert_eq!(remaining, 2, "worker 0 terminated");
        assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
        // and the cluster still works
        let result = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(80)]]);
    }

    #[test]
    fn affinity_keeps_caches_warm_through_expansion() {
        let engine = PrestoEngine::new();
        engine.register_catalog("tpch", Arc::new(presto_connectors::tpch::TpchConnector::new()));
        let mk = |affinity: bool| {
            let c = PrestoCluster::new(
                "t",
                engine.clone(),
                ClusterConfig {
                    initial_workers: 4,
                    affinity_scheduling: affinity,
                    fragment_cache_entries: 64,
                    ..ClusterConfig::default()
                },
                SimClock::new(),
            );
            let session = Session::new("tpch", "small");
            let sql = "SELECT count(*) FROM lineitem";
            c.execute(sql, &session).unwrap(); // warm caches
            c.metrics().reset();
            c.expand(1); // fleet change
            c.execute(sql, &session).unwrap();
            (c.metrics().get(names::FRC_HITS), c.metrics().get(names::FRC_MISSES))
        };
        // with affinity, most splits still land on their warm worker
        let (affinity_hits, affinity_misses) = mk(true);
        assert!(
            affinity_hits > affinity_misses,
            "affinity should keep most splits warm: {affinity_hits} hits vs {affinity_misses} misses"
        );
        // round-robin reshuffles on expansion, losing most of the cache
        let (rr_hits, _) = mk(false);
        assert!(
            affinity_hits > rr_hits,
            "affinity ({affinity_hits}) must beat round-robin ({rr_hits})"
        );
    }

    #[test]
    fn no_active_workers_is_an_error() {
        let c = cluster();
        for w in c.workers() {
            w.request_shutdown();
        }
        c.clock().advance(Duration::from_secs(3));
        c.tick();
        let err = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap_err();
        assert!(err.message().contains("no active workers"));
    }

    #[test]
    fn a_worker_back_in_service_caches_its_splits_again() {
        // worker 0 fails its first task and is quarantined, which drops its
        // fragment cache; once quarantine and probation have passed, its
        // splits must be cached again — counted as misses, then hits
        let engine = PrestoEngine::new();
        engine.register_catalog("tpch", Arc::new(TpchConnector::new()));
        let c = PrestoCluster::new(
            "t",
            engine,
            ClusterConfig {
                initial_workers: 4,
                affinity_scheduling: true,
                fragment_cache_entries: 64,
                blacklist_after: 1,
                fault_injector: FaultInjector::new(7, FaultPlan::new().fail_task(0, 1)),
                ..ClusterConfig::default()
            },
            SimClock::new(),
        );
        let session = Session::new("tpch", "small");
        let sql = "SELECT count(*) FROM lineitem";
        c.execute(sql, &session).unwrap();
        let w0 = c.workers()[0].clone();
        assert!(w0.is_blacklisted());
        c.clock().advance(DEFAULT_QUARANTINE_PERIOD + DEFAULT_PROBATION_WINDOW);
        assert_eq!(w0.health(), WorkerHealth::Healthy);
        c.execute(sql, &session).unwrap();
        c.metrics().reset();
        c.execute(sql, &session).unwrap();
        assert_eq!(c.metrics().get(names::FRC_HITS), c.metrics().get(names::CLUSTER_TASKS));
        assert_eq!(c.metrics().get(names::FRC_MISSES), 0);
    }
}
