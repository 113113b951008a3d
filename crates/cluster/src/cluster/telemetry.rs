//! Cluster telemetry: the snapshot sampler behind `system.runtime.*` and
//! the time series, and the fragment-cache digest.

use std::collections::BTreeMap;

use presto_common::metrics::{names, Fnv};
use presto_common::telemetry::WorkerRow;

use super::PrestoCluster;
use crate::worker::WorkerLifecycle;

#[derive(Default)]
pub(super) struct TelemetrySampler {
    last_at_us: u64,
    last_busy: BTreeMap<u32, u64>,
}

/// The lowercase lifecycle strings `system.runtime.workers` exposes.
pub(super) fn lifecycle_str(lifecycle: WorkerLifecycle) -> &'static str {
    match lifecycle {
        WorkerLifecycle::Active => "active",
        WorkerLifecycle::Draining => "draining",
        WorkerLifecycle::Decommissioned => "decommissioned",
        WorkerLifecycle::Revoked => "revoked",
    }
}

impl PrestoCluster {
    /// Canonical FNV fold of the per-worker fragment caches (in worker-id
    /// order). Bit-identical across same-seed runs — the revocation-storm
    /// determinism check folds this into the run digest.
    pub fn cache_digest(&self) -> u64 {
        let mut h = Fnv::new();
        let caches = self.fragment_caches.read();
        h.write(caches.len() as u64);
        for (worker, cache) in caches.iter() {
            h.write(u64::from(*worker));
            h.write(cache.digest());
        }
        h.finish()
    }

    /// Take one cluster-wide telemetry snapshot at the current virtual
    /// instant: per-worker busy fraction over the window since the last
    /// snapshot, queue depth, memory-pool utilization, fragment-cache hit
    /// rate, and one `system.runtime.workers` row per live worker.
    pub(super) fn sample_telemetry(&self) {
        let now = self.clock.now();
        let now_us = u64::try_from(now.as_micros()).unwrap_or(u64::MAX);
        let workers = self.workers();
        let mut sampler = self.sampler.lock();
        let elapsed = now_us.saturating_sub(sampler.last_at_us);
        if elapsed == 0 {
            // same virtual instant as the last snapshot: there is no
            // window to attribute busy time to, so resampling would only
            // duplicate buckets
            return;
        }
        sampler.last_at_us = now_us;
        let mut fleet_sum = 0u64;
        let mut active = 0u64;
        let mut rows = Vec::with_capacity(workers.len());
        for w in &workers {
            let total = w.busy_micros();
            let prev = sampler.last_busy.insert(w.id, total).unwrap_or(0);
            let busy_pct = (total.saturating_sub(prev).saturating_mul(100) / elapsed).min(100);
            let lifecycle = w.lifecycle();
            if lifecycle == WorkerLifecycle::Active {
                fleet_sum += busy_pct;
                active += 1;
            }
            rows.push(WorkerRow {
                worker_id: w.id,
                class: w.class().to_string(),
                lifecycle: lifecycle_str(lifecycle).to_string(),
                active_tasks: w.active_tasks() as u64,
                completed_tasks: w.completed_tasks() as u64,
                busy_pct,
            });
        }
        sampler.last_busy.retain(|id, _| workers.iter().any(|w| w.id == *id));
        drop(sampler);
        for row in rows {
            self.telemetry.sample_for(names::TS_WORKER_BUSY_PCT, row.worker_id, now, row.busy_pct);
            self.telemetry.record_worker(row);
        }
        let fleet_busy = fleet_sum.checked_div(active).unwrap_or(0);
        self.telemetry.sample(names::TS_FLEET_BUSY_PCT, now, fleet_busy);
        self.telemetry.set_gauge(names::GAUGE_FLEET_BUSY_PCT, fleet_busy);
        self.telemetry.set_gauge(names::GAUGE_ACTIVE_WORKERS, active);
        let resources = self.engine.resources();
        let depth = resources.admission().queued() as u64;
        self.telemetry.sample(names::TS_QUEUE_DEPTH, now, depth);
        let pool = resources.pool();
        let mem_pct = match pool.budget() {
            Some(budget) if budget > 0 => {
                ((pool.used() as u64).saturating_mul(100) / budget as u64).min(100)
            }
            _ => 0,
        };
        self.telemetry.sample(names::TS_MEMORY_UTIL_PCT, now, mem_pct);
        let hits = self.metrics.get(names::FRC_HITS);
        let lookups = hits + self.metrics.get(names::FRC_MISSES);
        let hit_pct = hits.saturating_mul(100).checked_div(lookups).unwrap_or(0);
        self.telemetry.sample(names::TS_CACHE_HIT_PCT, now, hit_pct);
        self.telemetry.note_snapshot();
    }
}
