//! Cluster-wide telemetry: the queryable state behind `system.runtime`.
//!
//! The paper's operational lesson is that a fleet is run off its telemetry —
//! per-worker utilization, queue depth, query states — and Presto exposes
//! exactly that back through SQL (`system.runtime`). [`TelemetryRegistry`]
//! is the deterministic reproduction: every sample is stamped from the
//! virtual clock, every row set lives in a `BTreeMap` so materialization
//! order is canonical, and [`TelemetryRegistry::digest`] folds the whole
//! registry with the same FNV-1a the trace digests use — bit-identical
//! across same-seed runs.
//!
//! The cluster writes here from `PrestoCluster::tick` (worker rows, the
//! utilization time series, gauges) and from its query/task completion
//! paths; the `system` connector reads it back as ordinary tables.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::cost::TASK_US;
use crate::sync::{Rank, RwLock};

use crate::metrics::{Fnv, GaugeSet, TimeSeriesSet};

/// Default sampling interval for telemetry time series (virtual µs).
pub const DEFAULT_TELEMETRY_INTERVAL_US: u64 = 5 * TASK_US;

/// Default ring capacity (buckets) for telemetry time series.
pub const DEFAULT_TELEMETRY_CAPACITY: usize = 1024;

/// Oldest rows are evicted beyond this many per table, so a long sim run
/// cannot grow the registry without bound.
pub const MAX_ROWS_PER_TABLE: usize = 4096;

/// One row of `system.runtime.workers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerRow {
    /// Worker id within its cluster.
    pub worker_id: u32,
    /// Capacity class (e.g. `"ondemand"`, `"spot"`).
    pub class: String,
    /// Coarse lifecycle: `active`, `draining`, `decommissioned`, `revoked`.
    pub lifecycle: String,
    /// Tasks running at the last snapshot.
    pub active_tasks: u64,
    /// Tasks completed over the worker's lifetime.
    pub completed_tasks: u64,
    /// Busy fraction over the last sampling window, percent.
    pub busy_pct: u64,
}

/// One row of `system.runtime.queries`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRow {
    /// Cluster-assigned query sequence number.
    pub query_id: u64,
    /// Terminal state: `finished` or `failed`.
    pub state: String,
    /// End-to-end virtual latency, µs.
    pub latency_us: u64,
    /// Peak bytes reserved against the query's memory pool.
    pub peak_memory_bytes: u64,
    /// Fleet busy-fraction peak sampled while the query ran, percent.
    pub peak_busy_pct: u64,
    /// Telemetry snapshots taken while the query ran.
    pub snapshots: u64,
}

/// One row of `system.runtime.tasks`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRow {
    /// Monotone task sequence number within the cluster.
    pub task_id: u64,
    /// The query the task belonged to.
    pub query_id: u64,
    /// Worker that completed the task.
    pub worker_id: u32,
    /// Terminal state (`finished`).
    pub state: String,
    /// Virtual runtime of the task, µs.
    pub runtime_us: u64,
}

#[derive(Debug, Default)]
struct TelemetryInner {
    workers: BTreeMap<u32, WorkerRow>,
    queries: BTreeMap<u64, QueryRow>,
    tasks: BTreeMap<u64, TaskRow>,
    snapshots: u64,
}

/// The cluster-wide telemetry store: time series + gauges + the row sets
/// `system.runtime` exposes. All row maps are `BTreeMap`s so iteration —
/// and therefore table materialization and digests — is canonical.
#[derive(Debug)]
pub struct TelemetryRegistry {
    series: TimeSeriesSet,
    gauges: GaugeSet,
    inner: RwLock<TelemetryInner>,
}

impl Default for TelemetryRegistry {
    fn default() -> TelemetryRegistry {
        TelemetryRegistry::new()
    }
}

impl TelemetryRegistry {
    /// Registry with the default interval/capacity.
    pub fn new() -> TelemetryRegistry {
        TelemetryRegistry::with_config(DEFAULT_TELEMETRY_INTERVAL_US, DEFAULT_TELEMETRY_CAPACITY)
    }

    /// Registry with an explicit series interval (virtual µs) and ring
    /// capacity (buckets).
    pub fn with_config(interval_us: u64, capacity: usize) -> TelemetryRegistry {
        TelemetryRegistry {
            series: TimeSeriesSet::new(interval_us, capacity),
            gauges: GaugeSet::new(),
            inner: RwLock::new(Rank::Telemetry, TelemetryInner::default()),
        }
    }

    /// The shared time-series set.
    pub fn series(&self) -> &TimeSeriesSet {
        &self.series
    }

    /// The shared gauge set.
    pub fn gauges(&self) -> &GaugeSet {
        &self.gauges
    }

    /// Record one observation under `name` at virtual instant `at`.
    pub fn sample(&self, name: &str, at: Duration, value: u64) {
        self.series.sample(name, at, value);
    }

    /// Record one observation under the `id`-keyed variant of `name`.
    pub fn sample_for(&self, name: &str, id: u32, at: Duration, value: u64) {
        self.series.sample_for(name, id, at, value);
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: u64) {
        self.gauges.set_gauge(name, value);
    }

    /// Current gauge value (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.gauge(name)
    }

    /// One cluster-wide snapshot completed: bump the snapshot counter.
    pub fn note_snapshot(&self) {
        self.inner.write().snapshots += 1;
    }

    /// Snapshots taken so far.
    pub fn snapshots(&self) -> u64 {
        self.inner.read().snapshots
    }

    /// Upsert one worker row (keyed by worker id).
    pub fn record_worker(&self, row: WorkerRow) {
        self.inner.write().workers.insert(row.worker_id, row);
    }

    /// Upsert one query row (keyed by query id, oldest evicted beyond
    /// [`MAX_ROWS_PER_TABLE`]).
    pub fn record_query(&self, row: QueryRow) {
        let mut inner = self.inner.write();
        inner.queries.insert(row.query_id, row);
        while inner.queries.len() > MAX_ROWS_PER_TABLE {
            let oldest = inner.queries.keys().next().copied();
            if let Some(k) = oldest {
                inner.queries.remove(&k);
            }
        }
    }

    /// Upsert one task row (keyed by task id, oldest evicted beyond
    /// [`MAX_ROWS_PER_TABLE`]).
    pub fn record_task(&self, row: TaskRow) {
        let mut inner = self.inner.write();
        inner.tasks.insert(row.task_id, row);
        while inner.tasks.len() > MAX_ROWS_PER_TABLE {
            let oldest = inner.tasks.keys().next().copied();
            if let Some(k) = oldest {
                inner.tasks.remove(&k);
            }
        }
    }

    /// Worker rows in worker-id order.
    pub fn workers(&self) -> Vec<WorkerRow> {
        self.inner.read().workers.values().cloned().collect()
    }

    /// Query rows in query-id order.
    pub fn queries(&self) -> Vec<QueryRow> {
        self.inner.read().queries.values().cloned().collect()
    }

    /// Task rows in task-id order.
    pub fn tasks(&self) -> Vec<TaskRow> {
        self.inner.read().tasks.values().cloned().collect()
    }

    /// Named metric rows for `system.metrics`: every time series (kind
    /// `timeseries`, value = last retained bucket, samples = accepted
    /// sample count) and every gauge (kind `gauge`), in name order.
    pub fn metric_rows(&self) -> Vec<(String, String, u64, u64)> {
        let mut out = Vec::new();
        for (name, ts) in self.series.snapshot() {
            let last = ts.points().last().map(|&(_, v)| v).unwrap_or(0);
            out.push((name, "timeseries".to_string(), last, ts.samples()));
        }
        for (name, value) in self.gauges.snapshot() {
            out.push((name, "gauge".to_string(), value, 0));
        }
        out
    }

    /// Canonical digest over the whole registry: snapshots, rows in key
    /// order, every series, every gauge. Bit-identical across same-seed
    /// runs of the same workload.
    pub fn digest(&self) -> u64 {
        let inner = self.inner.read();
        let mut h = Fnv::new();
        h.write(inner.snapshots);
        for (id, w) in &inner.workers {
            h.write(u64::from(*id));
            h.write_str(&w.class);
            h.write_str(&w.lifecycle);
            h.write(w.active_tasks);
            h.write(w.completed_tasks);
            h.write(w.busy_pct);
        }
        for (id, q) in &inner.queries {
            h.write(*id);
            h.write_str(&q.state);
            h.write(q.latency_us);
            h.write(q.peak_memory_bytes);
            h.write(q.peak_busy_pct);
            h.write(q.snapshots);
        }
        for (id, t) in &inner.tasks {
            h.write(*id);
            h.write(t.query_id);
            h.write(u64::from(t.worker_id));
            h.write_str(&t.state);
            h.write(t.runtime_us);
        }
        drop(inner);
        h.write(self.series.digest());
        for (name, value) in self.gauges.snapshot() {
            h.write_str(&name);
            h.write(value);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::names;

    fn worker(id: u32, lifecycle: &str, busy: u64) -> WorkerRow {
        WorkerRow {
            worker_id: id,
            class: "ondemand".to_string(),
            lifecycle: lifecycle.to_string(),
            active_tasks: 0,
            completed_tasks: 3,
            busy_pct: busy,
        }
    }

    #[test]
    fn rows_materialize_in_key_order() {
        let t = TelemetryRegistry::new();
        t.record_worker(worker(5, "active", 80));
        t.record_worker(worker(1, "draining", 10));
        t.record_worker(worker(3, "active", 50));
        let ids: Vec<u32> = t.workers().iter().map(|w| w.worker_id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn row_caps_evict_oldest() {
        let t = TelemetryRegistry::new();
        for id in 0..(MAX_ROWS_PER_TABLE as u64 + 10) {
            t.record_task(TaskRow {
                task_id: id,
                query_id: id / 4,
                worker_id: (id % 3) as u32,
                state: "finished".to_string(),
                runtime_us: id,
            });
        }
        let tasks = t.tasks();
        assert_eq!(tasks.len(), MAX_ROWS_PER_TABLE);
        assert_eq!(tasks[0].task_id, 10); // oldest ten evicted
    }

    #[test]
    fn digest_is_replay_stable_and_state_sensitive() {
        let build = |busy: u64| {
            let t = TelemetryRegistry::new();
            t.record_worker(worker(0, "active", busy));
            t.sample(names::TS_FLEET_BUSY_PCT, Duration::from_micros(700), busy);
            t.set_gauge(names::GAUGE_FLEET_BUSY_PCT, busy);
            t.note_snapshot();
            t
        };
        assert_eq!(build(40).digest(), build(40).digest());
        assert_ne!(build(40).digest(), build(41).digest());
        assert_eq!(build(40).snapshots(), 1);
        assert_eq!(build(40).metric_rows().len(), 2);
    }
}
