//! One Presto cluster: a coordinator and N workers (§III), with graceful
//! expansion and shrink (§IX) and crash recovery (§XII).
//!
//! Distributed execution model: the coordinator plans and fragments the
//! query; each leaf (scan) fragment's connector splits are assigned
//! round-robin (or by §VII affinity) to ACTIVE workers and executed on real
//! threads; intermediate pages flow back as exchanges; the root fragment
//! runs on the coordinator.
//!
//! Fault tolerance: every task start consults the cluster's
//! [`FaultInjector`]; when a task fails with a *retryable* error (worker
//! crash, injected fault, mid-stream scan tear, transient-retry exhaustion
//! in storage) the coordinator reassigns only the unfinished splits to
//! surviving workers under a per-split attempt cap and virtual-time
//! exponential backoff. Flaky-but-alive workers are quarantined by the
//! consecutive-failure blacklist and re-admitted through a half-open
//! probation window ([`crate::worker::WorkerHealth`]).
//!
//! Scheduling is a serial discrete-event simulation on the coordinator
//! thread: every task attempt gets a virtual duration (fixed overhead +
//! per-row cost + injected stalls) and completes at a virtual timestamp
//! drawn from an event heap, so task interleaving, retries, and
//! speculation are all pure functions of (seed, plan, cluster config).
//!
//! Speculative execution (straggler mitigation): once enough siblings of a
//! scan fragment have completed, any running attempt whose elapsed virtual
//! time exceeds a configurable quantile of the completed sibling runtimes
//! gets a duplicate attempt on a different idle worker. First result wins;
//! the loser is cancelled. Every decision is recorded —
//! `cluster.speculative_launches` / `_wins` / `_wasted` counters and a
//! `Speculate` trace span per launch.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use presto_cache::fragment::{fingerprint, FragmentKey, FragmentResultCache};
use presto_common::metrics::{names, CounterSet, Fnv, Histogram, HistogramSet};
use presto_common::telemetry::{QueryRow, TaskRow, TelemetryRegistry, WorkerRow};
use presto_common::trace::{SpanId, SpanKind, Trace};
use presto_common::HashRing;
use presto_common::{FaultDecision, FaultInjector, Page, PrestoError, Result, SimClock};
use presto_connectors::{
    Connector, ConnectorSplit, ScanHooks, ScanRequest, SplitPayload, SystemConnector,
};
use presto_core::{AdmittedQuery, PrestoEngine, QueryResult, Session};
use presto_plan::{fragment_plan, LogicalPlan, PlanFragment};
use presto_resource::{AdmissionConfig, QueryPriority, ResourceConfig, ResourceManager};

use crate::worker::{
    Worker, WorkerLifecycle, WorkerState, DEFAULT_GRACE_PERIOD, DEFAULT_PROBATION_WINDOW,
    DEFAULT_QUARANTINE_PERIOD, DEFAULT_WORKER_CLASS,
};

/// Fixed virtual cost of one scan task (queueing, setup, page handoff).
const SCAN_TASK_BASE: Duration = Duration::from_micros(100);

/// Virtual per-row scan cost in nanoseconds.
const SCAN_ROW_NANOS: u64 = 100;

/// First retry backoff; doubles per retry round. Waits advance the virtual
/// [`SimClock`], never the wall clock.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Scheduler estimate of the worker memory one in-flight split occupies.
/// Reservations made with it are a *placement score* input, not
/// enforcement — the cluster-wide [`presto_resource::MemoryPool`] enforces.
const SPLIT_MEMORY_ESTIMATE: u64 = 1 << 20;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Workers started at launch.
    pub initial_workers: u32,
    /// `shutdown.grace-period` (§IX; the paper's default is 2 minutes).
    pub grace_period: Duration,
    /// §VII affinity scheduler: route each split to the same worker via
    /// the consistent-hash ring (instead of round-robin), so worker-side
    /// caches stay hot across queries and fleet changes.
    pub affinity_scheduling: bool,
    /// §VII fragment result cache: per-worker entries (0 = disabled). Only
    /// immutable splits (warehouse files, generated data) are cached.
    pub fragment_cache_entries: usize,
    /// Cluster-wide memory pool in bytes (`None` = unbounded).
    pub cluster_memory_bytes: Option<usize>,
    /// Coordinator admission control (defaults admit everything at once).
    pub admission: AdmissionConfig,
    /// Deterministic fault harness consulted at every task start
    /// (disabled by default — no faults, no lock contention).
    pub fault_injector: Arc<FaultInjector>,
    /// Recover from retryable task failures by reassigning the unfinished
    /// splits to surviving workers (on by default). With recovery off, the
    /// first task failure fails the whole query — the pre-§XII behaviour
    /// the chaos experiment compares against.
    pub fault_recovery: bool,
    /// Times one split may be attempted before the query fails.
    pub max_split_attempts: u32,
    /// Quarantine a worker after this many *consecutive* task failures
    /// (0 = never blacklist).
    pub blacklist_after: u32,
    /// How long a blacklisted worker sits in quarantine before probation.
    pub quarantine_period: Duration,
    /// Half-open probation window after quarantine: the worker serves only
    /// low-priority splits; one failure re-quarantines it.
    pub probation_window: Duration,
    /// Straggler mitigation via speculative duplicate attempts.
    pub speculation: SpeculationConfig,
    /// Per-worker memory budget the affinity placement score respects
    /// (`None` = headroom ignored): an owner whose headroom cannot fit
    /// the next split is skipped in favour of its ring successor.
    pub worker_memory_bytes: Option<u64>,
}

/// Speculative execution of straggler splits.
///
/// When a running attempt's elapsed virtual time exceeds `quantile` of the
/// completed sibling runtimes in the same scan fragment, the coordinator
/// launches one duplicate attempt on a different idle worker; the first
/// result wins and the loser is cancelled. At most one duplicate is live
/// per split, and nothing is judged until `min_completed` siblings have
/// finished (small fragments have no statistics worth trusting).
#[derive(Debug, Clone)]
pub struct SpeculationConfig {
    /// Launch duplicates at all (on by default).
    pub enabled: bool,
    /// Sibling-runtime quantile a running attempt must *strictly* exceed.
    pub quantile: f64,
    /// Completed siblings required before stragglers can be judged.
    pub min_completed: u64,
    /// Seed the sibling-runtime yardstick from the previous run of the
    /// same plan fingerprint (on by default). A fragment with too few
    /// splits to ever reach `min_completed` siblings — a single wave, or a
    /// single split — can then speculate *in-wave* on its very first
    /// straggler, using the runtimes the last identical fragment recorded.
    pub seed_from_history: bool,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        SpeculationConfig {
            enabled: true,
            quantile: 0.99,
            min_completed: 3,
            seed_from_history: true,
        }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            initial_workers: 4,
            grace_period: DEFAULT_GRACE_PERIOD,
            affinity_scheduling: false,
            fragment_cache_entries: 0,
            cluster_memory_bytes: None,
            admission: AdmissionConfig::default(),
            fault_injector: FaultInjector::disabled(),
            fault_recovery: true,
            max_split_attempts: 4,
            blacklist_after: 3,
            quarantine_period: DEFAULT_QUARANTINE_PERIOD,
            probation_window: DEFAULT_PROBATION_WINDOW,
            speculation: SpeculationConfig::default(),
            worker_memory_bytes: None,
        }
    }
}

/// A cluster: coordinator state + worker pool.
///
/// Counters: `cluster.queries`, `cluster.tasks`, `cluster.queries_failed`
/// (the query *started* and then died), `cluster.queries_rejected` (refused
/// at the door — maintenance drain, admission queue full, or a statement
/// that does not parse or plan),
/// `cluster.worker_failures`, `cluster.split_retries`, and
/// `cluster.blacklisted_workers`.
pub struct PrestoCluster {
    name: String,
    engine: PrestoEngine,
    workers: RwLock<Vec<Arc<Worker>>>,
    next_worker_id: AtomicU32,
    clock: SimClock,
    config: ClusterConfig,
    metrics: CounterSet,
    /// Latency/backoff distributions (`cluster.query_latency_us`,
    /// `cluster.retry_backoff_us`).
    histograms: HistogramSet,
    /// Administrators drain whole clusters for maintenance (§VIII); a
    /// draining cluster refuses new queries so the gateway re-routes.
    /// A single flag — an atomic, not a lock, so it never shows up in the
    /// lock-order analysis.
    maintenance: AtomicBool,
    queries_started: AtomicU64,
    /// Graceful decommissions scheduled for a future virtual instant,
    /// fired by [`PrestoCluster::poll_lifecycle`] — the scan scheduler
    /// polls mid-query, so a drain can land while splits are queued.
    pending_drains: Mutex<Vec<(Duration, u32)>>,
    /// Per-worker fragment result caches (die with their worker, like any
    /// worker-side memory cache). A `BTreeMap`, not a `HashMap`: cache
    /// digests and migrations walk it, and same-seed runs must walk it in
    /// the same order.
    fragment_caches: RwLock<BTreeMap<u32, FragmentResultCache>>,
    /// Completed task runtimes per plan fingerprint, merged in after every
    /// successful scan fragment. Seeds the next identical fragment's
    /// straggler yardstick so single-wave fragments can speculate in-wave.
    runtime_history: RwLock<HashMap<u64, Histogram>>,
    /// Cluster-wide telemetry: per-worker busy-fraction series, queue/
    /// memory/cache samples, and the row sets the `system` catalog exposes.
    /// Shared with the engine (EXPLAIN ANALYZE footer) and the `system`
    /// connector.
    telemetry: Arc<TelemetryRegistry>,
    /// Per-worker cumulative-busy baselines from the previous telemetry
    /// snapshot, so each snapshot attributes only the delta.
    sampler: Mutex<TelemetrySampler>,
    /// Monotone task sequence feeding `system.runtime.tasks`.
    next_task_id: AtomicU64,
}

#[derive(Default)]
struct TelemetrySampler {
    last_at_us: u64,
    last_busy: BTreeMap<u32, u64>,
}

/// The lowercase lifecycle strings `system.runtime.workers` exposes.
fn lifecycle_str(lifecycle: WorkerLifecycle) -> &'static str {
    match lifecycle {
        WorkerLifecycle::Active => "active",
        WorkerLifecycle::Draining => "draining",
        WorkerLifecycle::Decommissioned => "decommissioned",
        WorkerLifecycle::Revoked => "revoked",
    }
}

impl PrestoCluster {
    /// Launch a cluster.
    pub fn new(
        name: impl Into<String>,
        engine: PrestoEngine,
        config: ClusterConfig,
        clock: SimClock,
    ) -> Arc<PrestoCluster> {
        // The coordinator owns the cluster-wide resource manager: one
        // memory pool and one admission queue shared by every query this
        // cluster runs. The engine's fragments account against it.
        let engine = engine.with_resources(ResourceManager::new(
            ResourceConfig {
                cluster_memory_bytes: config.cluster_memory_bytes,
                admission: config.admission.clone(),
            },
            clock.clone(),
        ));
        // The telemetry registry is shared three ways: the cluster writes
        // snapshots into it, the engine reads it for the EXPLAIN ANALYZE
        // footer, and the `system` catalog exposes it back through SQL.
        let telemetry = Arc::new(TelemetryRegistry::new());
        let engine = engine.with_telemetry(telemetry.clone());
        engine.register_catalog("system", Arc::new(SystemConnector::new(telemetry.clone())));
        let cluster = PrestoCluster {
            name: name.into(),
            engine,
            workers: RwLock::new(Vec::new()),
            next_worker_id: AtomicU32::new(0),
            clock,
            config,
            metrics: CounterSet::new(),
            histograms: HistogramSet::new(),
            maintenance: AtomicBool::new(false),
            queries_started: AtomicU64::new(0),
            pending_drains: Mutex::new(Vec::new()),
            fragment_caches: RwLock::new(BTreeMap::new()),
            runtime_history: RwLock::new(HashMap::new()),
            telemetry,
            sampler: Mutex::new(TelemetrySampler::default()),
            next_task_id: AtomicU64::new(0),
        };
        let cluster = Arc::new(cluster);
        cluster.expand(cluster.config.initial_workers);
        cluster
    }

    /// Cluster name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine (catalog registration etc.).
    pub fn engine(&self) -> &PrestoEngine {
        &self.engine
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Latency and backoff distributions recorded by this cluster.
    pub fn histograms(&self) -> &HistogramSet {
        &self.histograms
    }

    /// The cluster's telemetry registry — the store behind the `system`
    /// catalog's tables.
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.telemetry
    }

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
            workers.push(Worker::with_class(
                id,
                self.clock.clone(),
                self.config.grace_period,
                self.config.quarantine_period,
                self.config.probation_window,
                class,
            ));
            if self.config.fragment_cache_entries > 0 {
                caches.insert(
                    id,
                    FragmentResultCache::new(
                        self.config.fragment_cache_entries,
                        self.metrics.clone(),
                    ),
                );
            }
        }
    }

    /// All workers (any state).
    pub fn workers(&self) -> Vec<Arc<Worker>> {
        self.workers.read().clone()
    }

    /// Workers currently accepting tasks (at normal priority).
    pub fn active_workers(&self) -> Vec<Arc<Worker>> {
        self.workers.read().iter().filter(|w| w.accepts_tasks()).cloned().collect()
    }

    /// Workers eligible for a query at the given priority: probation
    /// (half-open) workers only count for low-priority work.
    fn eligible_workers(&self, priority: QueryPriority) -> Vec<Arc<Worker>> {
        self.workers.read().iter().filter(|w| w.accepts_tasks_for(priority)).cloned().collect()
    }

    /// §IX shrink: send the shutdown command to one worker. Equivalent to
    /// [`PrestoCluster::decommission_worker`] — the graceful path always
    /// migrates the departing worker's cache entries.
    pub fn request_worker_shutdown(&self, worker_id: u32) -> Result<()> {
        self.decommission_worker(worker_id)
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
    /// scheduler will send the split next. Entries iterate in key order,
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
                successor.put_shared(key, pages);
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
    fn sample_telemetry(&self) {
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

    /// Enter/exit maintenance (drain) mode.
    pub fn set_maintenance(&self, on: bool) {
        self.maintenance.store(on, Ordering::Relaxed);
    }

    /// Is the cluster refusing new queries?
    pub fn in_maintenance(&self) -> bool {
        self.maintenance.load(Ordering::Relaxed)
    }

    /// Queries executed so far.
    pub fn queries_started(&self) -> u64 {
        self.queries_started.load(Ordering::Relaxed)
    }

    /// Execute a query with distributed scan fragments.
    ///
    /// Every statement comes through the engine's front door
    /// ([`PrestoEngine::run_query`]: parse, plan, `EXPLAIN`, admission, the
    /// query span and stopwatch); what the cluster adds is *how the plan
    /// runs* and its own counters and telemetry row. `EXPLAIN` answers with
    /// the plan and starts nothing; `EXPLAIN ANALYZE` runs distributed.
    ///
    /// Refusals are not failures: a maintenance drain, a full admission
    /// queue or a statement that does not plan turns the query away *before
    /// it starts* and counts as `cluster.queries_rejected`, so
    /// `cluster.queries_failed` is reserved for queries that actually ran
    /// and died. The maintenance refusal is
    /// [`PrestoError::ClusterUnavailable`] — retryable, so a gateway that
    /// raced the drain can fail the query over to a healthy cluster.
    pub fn execute(&self, sql: &str, session: &Session) -> Result<QueryResult> {
        let clock = self.clock.clone();
        self.execute_clocked(sql, session, &clock)
    }

    /// [`PrestoCluster::execute`] on an explicit virtual clock.
    ///
    /// A multi-query simulator interleaves queries in virtual time by
    /// giving each in-flight query a [`SimClock::fork`] of its master
    /// timeline: the query's task waits and retry backoffs advance the
    /// fork only, so two overlapping queries no longer serialize each
    /// other's virtual costs through the cluster-wide clock. Admission
    /// accounting still runs on the cluster clock; service time is a pure
    /// function of the plan, so forked runs stay deterministic.
    pub fn execute_clocked(
        &self,
        sql: &str,
        session: &Session,
        clock: &SimClock,
    ) -> Result<QueryResult> {
        if self.in_maintenance() {
            self.metrics.incr(names::CLUSTER_QUERIES_REJECTED);
            return Err(PrestoError::ClusterUnavailable(format!(
                "cluster {} is in maintenance",
                self.name
            )));
        }
        let mut query_id = None;
        let (result, info) = self.engine.run_query(sql, session, clock, |query| {
            let id = self.queries_started.fetch_add(1, Ordering::Relaxed) + 1;
            self.metrics.incr(names::CLUSTER_QUERIES);
            query_id = Some(id);
            self.run_distributed(query, session, id, clock)
        });
        let Some(query_id) = query_id else {
            // never started: EXPLAIN's plan text, or turned away at the door
            if result.is_err() {
                self.metrics.incr(names::CLUSTER_QUERIES_REJECTED);
            }
            return result;
        };
        self.telemetry.record_query(QueryRow {
            query_id,
            state: if result.is_err() { "failed" } else { "finished" }.to_string(),
            latency_us: u64::try_from(info.latency.as_micros()).unwrap_or(u64::MAX),
            peak_memory_bytes: info.peak_memory as u64,
            peak_busy_pct: self.telemetry.series().get(names::TS_FLEET_BUSY_PCT).peak(),
            snapshots: self.telemetry.snapshots(),
        });
        match &result {
            Ok(_) => self
                .histograms
                .record(names::HIST_CLUSTER_QUERY_LATENCY_US, info.latency.as_micros() as u64),
            Err(_) => self.metrics.incr(names::CLUSTER_QUERIES_FAILED),
        }
        result
    }

    /// How this cluster runs an admitted query's plan: fragment it, spread
    /// each scan fragment's splits across the workers on the query's clock,
    /// then run the root fragment on the coordinator over the exchanges.
    fn run_distributed(
        &self,
        query: &AdmittedQuery<'_>,
        session: &Session,
        query_id: u64,
        clock: &SimClock,
    ) -> Result<Vec<Page>> {
        let &AdmittedQuery { metrics, trace, root, .. } = query;
        let fragments = fragment_plan(query.plan.clone())?;
        let mut exchanges: Vec<(u32, Vec<Page>)> = Vec::new();
        for fragment in &fragments[1..] {
            let LogicalPlan::TableScan { catalog, schema, table, request, .. } = &fragment.plan
            else {
                return Err(PrestoError::Internal(format!(
                    "fragment {} is not a table scan",
                    fragment.id
                )));
            };
            let stage =
                trace.begin(SpanKind::Stage, format!("fragment[{}]", fragment.id), Some(root));
            let connector = self.engine.catalogs().get(catalog)?;
            let splits = match connector.splits(schema, table, request) {
                Ok(splits) => splits,
                Err(e) => {
                    trace.end(stage);
                    return Err(e);
                }
            };
            // distinct splits, not attempts: retries do not inflate the tally
            self.metrics.add(names::CLUSTER_TASKS, splits.len() as u64);
            let pages = self.run_scan_fragment(
                fragment,
                &splits,
                &connector,
                request,
                session.priority,
                query_id,
                trace,
                stage,
                clock,
            );
            trace.end(stage);
            let pages = self.deliver_exchange(fragment.id, pages?, clock)?;
            exchanges.push((fragment.id, pages));
        }

        // Root fragment runs on the coordinator.
        let stage =
            trace.begin(SpanKind::Stage, format!("fragment[{}]", fragments[0].id), Some(root));
        let pages = self.engine.run_plan(
            &fragments[0].plan,
            exchanges,
            session,
            metrics,
            trace,
            Some(stage),
        );
        trace.end(stage);
        pages
    }

    /// Run one scan fragment's splits across the eligible workers as a
    /// serial discrete-event simulation, recovering from retryable task
    /// failures (§XII) and speculating on stragglers.
    ///
    /// Split assignment: affinity scheduling (§VII) routes each split to a
    /// stable worker via the consistent-hash ring; otherwise splits
    /// round-robin. Each worker drains its queue serially in virtual time;
    /// attempt completions come off an event heap ordered by (virtual time,
    /// launch sequence), so every schedule — retries with exponential backoff,
    /// straggler duplicates, first-result-wins races — is deterministic. A
    /// worker that crashed or got blacklisted loses its fragment result
    /// cache, like any worker-side memory.
    #[allow(clippy::too_many_arguments)]
    fn run_scan_fragment(
        &self,
        fragment: &PlanFragment,
        splits: &[ConnectorSplit],
        connector: &Arc<dyn Connector>,
        request: &ScanRequest,
        priority: QueryPriority,
        query_id: u64,
        trace: &Trace,
        stage: SpanId,
        clock: &SimClock,
    ) -> Result<Vec<Page>> {
        let workers = self.eligible_workers(priority);
        if workers.is_empty() {
            return Err(self.no_active_workers());
        }
        // Pushdowns are part of the fragment identity: two queries only
        // share cached results when their pushed-down scans agree.
        let plan_fingerprint = fingerprint(&format!("{:?}", fragment.plan));
        // Seed the straggler yardstick from the last run of this exact
        // fragment, so a single-wave fragment (fewer splits than
        // `min_completed`) can still judge its very first straggler. The
        // seed is `min_completed` copies of the *median* historical
        // runtime, not the raw histogram: a straggler that completed last
        // run would otherwise drag the p99 yardstick up to its own runtime
        // and grant every future straggler amnesty.
        let spec = &self.config.speculation;
        let sibling_us = if spec.enabled && spec.seed_from_history {
            match self.runtime_history.read().get(&plan_fingerprint) {
                Some(history) if history.count() > 0 => {
                    let typical = history.quantile(0.5);
                    let mut seeded = Histogram::new();
                    for _ in 0..spec.min_completed.max(1) {
                        seeded.record(typical);
                    }
                    seeded
                }
                _ => Histogram::new(),
            }
        } else {
            Histogram::new()
        };
        if sibling_us.count() > 0 {
            self.metrics.incr(names::CLUSTER_SPECULATION_SEEDED);
            trace.set_attr(stage, "seeded_runtimes", sibling_us.count());
        }
        let mut sched = ScanScheduler {
            cluster: self,
            clock,
            fragment,
            splits,
            connector,
            request,
            priority,
            query_id,
            trace,
            stage,
            plan_fingerprint,
            queues: vec![VecDeque::new(); workers.len()],
            busy: vec![None; workers.len()],
            workers,
            attempts: Vec::new(),
            live: vec![Vec::new(); splits.len()],
            results: vec![None; splits.len()],
            failures: vec![0; splits.len()],
            done: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            sibling_us,
            fresh_us: Histogram::new(),
        };
        sched.run()?;
        if sched.fresh_us.count() > 0 {
            // Only *observed* runtimes feed the history — seeded values
            // never re-enter, so stale estimates age out after one run.
            self.runtime_history.write().insert(plan_fingerprint, sched.fresh_us.clone());
        }

        // splits stay ordered so results are deterministic
        let mut pages = Vec::new();
        for (i, slot) in sched.results.into_iter().enumerate() {
            match slot {
                Some(p) => pages.extend(p),
                None => {
                    return Err(PrestoError::Internal(format!(
                        "split {i} never produced a result on cluster {}",
                        self.name
                    )))
                }
            }
        }
        Ok(pages)
    }

    fn no_active_workers(&self) -> PrestoError {
        PrestoError::ClusterUnavailable(format!("cluster {} has no active workers", self.name))
    }

    /// Deliver a finished scan fragment's pages across the simulated
    /// exchange channel. A mid-stream tear fails the transfer with a
    /// retryable error; the producer still buffers the pages, so the
    /// coordinator retries the whole delivery (counted as
    /// `cluster.exchange_retries`) under the split attempt cap with
    /// virtual-time backoff. With recovery off the first tear is fatal.
    fn deliver_exchange(
        &self,
        fragment: u32,
        pages: Vec<Page>,
        clock: &SimClock,
    ) -> Result<Vec<Page>> {
        let injector = &self.config.fault_injector;
        if !injector.is_enabled() {
            return Ok(pages);
        }
        let mut backoff = RETRY_BACKOFF_BASE;
        let mut attempt = 1u64;
        loop {
            match presto_exec::exchange::deliver(injector, clock, fragment, &pages, attempt) {
                Ok(_stalled) => return Ok(pages),
                Err(e)
                    if self.config.fault_recovery
                        && e.is_retryable()
                        && attempt < u64::from(self.config.max_split_attempts.max(1)) =>
                {
                    self.metrics.incr(names::CLUSTER_EXCHANGE_RETRIES);
                    self.histograms
                        .record(names::HIST_CLUSTER_RETRY_BACKOFF_US, backoff.as_micros() as u64);
                    clock.advance(backoff);
                    backoff = backoff.saturating_mul(2);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One split on one worker: task guard, fragment-cache lookup, connector
    /// scan with mid-stream fault hooks. Output from a worker that crashed
    /// while the task was in flight is discarded — a dead node's partial
    /// results cannot be trusted. Cache hits skip the connector entirely,
    /// so mid-stream scan faults never fire for them.
    #[allow(clippy::too_many_arguments)]
    fn execute_one_split(
        &self,
        worker: &Arc<Worker>,
        split: &ConnectorSplit,
        connector: &Arc<dyn Connector>,
        request: &ScanRequest,
        plan_fingerprint: u64,
        cache: Option<&FragmentResultCache>,
        hooks: &ScanHooks,
    ) -> Result<Vec<Page>> {
        let _task = worker.begin_task()?;
        let key = FragmentKey { plan_fingerprint, split_identity: cache_identity(&split.payload) };
        let cacheable = cache.is_some() && is_immutable_split(&split.payload);
        if cacheable {
            if let Some(hit) = cache.and_then(|c| c.get(&key)) {
                return Ok(hit.as_ref().clone());
            }
        }
        let pages = connector.scan_split(split, request, hooks)?;
        if worker.state() == WorkerState::Crashed {
            return Err(worker_failed(worker.id, "crashed while the task was in flight"));
        }
        if cacheable {
            if let Some(c) = cache {
                c.put(key, pages.clone());
            }
        }
        Ok(pages)
    }
}

/// Scheduler event: an attempt reaching the end of its virtual duration,
/// or a wake-up to re-run dispatch once a retry backoff deadline arrives.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum SchedEvent {
    /// Attempt `.0` completes.
    Complete(usize),
    /// Nothing completes; just dispatch queued work.
    Wake,
}

/// One launched task attempt (original or speculative duplicate). The
/// outcome is computed eagerly at launch — legal because workers never
/// advance the shared clock — and consumed when the completion event fires,
/// so a cancelled loser's outcome is simply discarded.
struct Attempt {
    split: usize,
    /// Index into the scheduler's worker snapshot.
    worker: usize,
    speculative: bool,
    start: Duration,
    duration: Duration,
    span: SpanId,
    outcome: Option<Result<Vec<Page>>>,
    cancelled: bool,
}

/// A split waiting in a worker's queue; retries carry a backoff deadline.
#[derive(Clone)]
struct QueuedSplit {
    split: usize,
    not_before: Duration,
}

/// Serial discrete-event scheduler for one scan fragment: per-worker split
/// queues, an event heap keyed by (virtual time, launch sequence), local
/// sibling-runtime statistics for straggler detection, and
/// first-result-wins races between originals and speculative duplicates.
struct ScanScheduler<'a> {
    cluster: &'a PrestoCluster,
    /// The query's virtual timeline (a fork of the master clock when the
    /// cluster runs under a multi-query simulator).
    clock: &'a SimClock,
    fragment: &'a PlanFragment,
    splits: &'a [ConnectorSplit],
    connector: &'a Arc<dyn Connector>,
    request: &'a ScanRequest,
    priority: QueryPriority,
    /// Cluster-assigned query sequence, stamped onto telemetry task rows.
    query_id: u64,
    trace: &'a Trace,
    stage: SpanId,
    plan_fingerprint: u64,
    workers: Vec<Arc<Worker>>,
    queues: Vec<VecDeque<QueuedSplit>>,
    /// Per worker: the attempt currently running on it.
    busy: Vec<Option<usize>>,
    attempts: Vec<Attempt>,
    /// Per split: ids of attempts still in flight.
    live: Vec<Vec<usize>>,
    results: Vec<Option<Vec<Page>>>,
    /// Per split: failed attempts so far (the retry budget).
    failures: Vec<u32>,
    done: usize,
    heap: BinaryHeap<Reverse<(Duration, u64, SchedEvent)>>,
    seq: u64,
    /// Completed sibling runtimes (µs) — the straggler yardstick. May be
    /// pre-seeded from the cluster's per-fingerprint runtime history.
    sibling_us: Histogram,
    /// Runtimes observed *this* run only; merged back into the history so
    /// seeded estimates never compound across runs.
    fresh_us: Histogram,
}

impl ScanScheduler<'_> {
    fn run(&mut self) -> Result<()> {
        // Initial assignment: affinity or round-robin over the eligible
        // snapshot, same as the pre-speculation scheduler. The affinity
        // path builds one ring for the whole fragment — the same default
        // ring `migrate_caches` builds over a drain's survivors, so migrated
        // fragment-cache entries land where the next split will be sent.
        let ring = self
            .cluster
            .config
            .affinity_scheduling
            .then(|| HashRing::with_workers_default(self.workers.iter().map(|w| w.id)));
        // Bytes this placement pass has already promised per worker, so a
        // burst of same-owner splits spills to successors instead of
        // stacking on one worker before any attempt starts.
        let mut assigned = vec![0u64; self.workers.len()];
        for i in 0..self.splits.len() {
            let w = match &ring {
                Some(ring) => {
                    // `workers` was checked non-empty by the caller; fall
                    // back to round-robin rather than panicking if that
                    // ever breaks.
                    let identity = split_identity(&self.splits[i].payload);
                    self.place_split(ring, &identity, &assigned).unwrap_or(i % self.workers.len())
                }
                None => i % self.workers.len(),
            };
            assigned[w] = assigned[w].saturating_add(SPLIT_MEMORY_ESTIMATE);
            self.queues[w].push_back(QueuedSplit { split: i, not_before: Duration::ZERO });
        }
        // Lifecycle events (revocation storms, scheduled drains) that are
        // already due must fire before the first wave launches.
        let poll_lifecycle = self.cluster.has_lifecycle_events();
        if poll_lifecycle {
            self.cluster.poll_lifecycle(self.clock.now());
        }
        self.dispatch(self.clock.now())?;
        while let Some(Reverse((at, _seq, event))) = self.heap.pop() {
            if self.done == self.splits.len() {
                break;
            }
            let now = self.clock.now();
            if at > now {
                self.clock.advance(at - now);
            }
            let now = self.clock.now();
            if poll_lifecycle {
                // a storm or drain whose instant just passed lands *inside*
                // this query: dispatch below reassigns the victims' queues
                self.cluster.poll_lifecycle(now);
            }
            if let SchedEvent::Complete(id) = event {
                self.complete(id, now)?;
            }
            self.dispatch(now)?;
            self.check_stragglers(now);
        }
        Ok(())
    }

    /// Start one attempt on an idle worker. The fault injector is consulted
    /// *before* touching the worker or the cache, so the task-level fault
    /// schedule stays a pure function of (seed, worker, per-worker task
    /// ordinal); injected task faults take zero virtual time, real scans
    /// cost base + per-row work + whatever mid-stream stalls were injected.
    fn start_attempt(&mut self, wi: usize, split: usize, speculative: bool, now: Duration) {
        let cluster = self.cluster;
        let worker = self.workers[wi].clone();
        // headroom accounting: held for the attempt's lifetime, released
        // exactly once on completion or cancellation
        worker.reserve_memory(SPLIT_MEMORY_ESTIMATE);
        let span = self.trace.begin(SpanKind::Task, format!("split[{split}]"), Some(self.stage));
        self.trace.set_attr(span, "worker", u64::from(worker.id));
        if speculative {
            self.trace.set_attr(span, "speculative", 1);
        }
        let injector = &cluster.config.fault_injector;
        let task = injector.begin_task(worker.id, self.clock.now());
        let (outcome, duration) = match task.decision {
            FaultDecision::CrashWorker => {
                // abrupt node death: this attempt is lost instantly and the
                // worker's still-queued splits get reassigned by dispatch
                worker.crash();
                (Err(worker_failed(worker.id, "crashed (injected)")), Duration::ZERO)
            }
            FaultDecision::FailTask => {
                (Err(worker_failed(worker.id, "dropped the task (injected fault)")), Duration::ZERO)
            }
            FaultDecision::None => {
                let cache = cluster.fragment_caches.read().get(&worker.id).cloned();
                let hooks = ScanHooks::for_task(injector.clone(), worker.id, task.seq);
                let splits = self.splits;
                let connector = self.connector;
                let request = self.request;
                let plan_fingerprint = self.plan_fingerprint;
                let fragment_id = self.fragment.id;
                // a panicking scan task must fail its query, not the whole
                // coordinator loop
                let result = catch_unwind(AssertUnwindSafe(|| {
                    cluster.execute_one_split(
                        &worker,
                        &splits[split],
                        connector,
                        request,
                        plan_fingerprint,
                        cache.as_ref(),
                        &hooks,
                    )
                }))
                .unwrap_or_else(|_| {
                    Err(PrestoError::Internal(format!(
                        "scan task panicked on cluster {} (fragment {})",
                        cluster.name, fragment_id
                    )))
                });
                let rows: u64 = result
                    .as_ref()
                    .map(|pages| pages.iter().map(|p| p.positions() as u64).sum())
                    .unwrap_or(0);
                let duration =
                    SCAN_TASK_BASE + Duration::from_nanos(rows * SCAN_ROW_NANOS) + hooks.stalled();
                (result, duration)
            }
        };
        let id = self.attempts.len();
        self.attempts.push(Attempt {
            split,
            worker: wi,
            speculative,
            start: now,
            duration,
            span,
            outcome: Some(outcome),
            cancelled: false,
        });
        self.busy[wi] = Some(id);
        self.live[split].push(id);
        self.push_event(now + duration, SchedEvent::Complete(id));
    }

    /// Process one attempt completion: the first successful attempt per
    /// split wins and cancels any live duplicate; a retryable failure burns
    /// one unit of the split's attempt budget and schedules a backoff
    /// retry (unless a duplicate is still running); a terminal failure —
    /// non-retryable, recovery off, or budget exhausted — cancels every
    /// live attempt and fails the fragment.
    fn complete(&mut self, id: usize, now: Duration) -> Result<()> {
        if self.attempts[id].cancelled {
            return Ok(());
        }
        let Some(outcome) = self.attempts[id].outcome.take() else {
            return Ok(());
        };
        let (split, wi, speculative, duration, span) = {
            let a = &self.attempts[id];
            (a.split, a.worker, a.speculative, a.duration, a.span)
        };
        self.busy[wi] = None;
        self.live[split].retain(|&x| x != id);
        let worker = self.workers[wi].clone();
        worker.release_memory(SPLIT_MEMORY_ESTIMATE);
        // The outcome was computed eagerly at launch; if the worker was
        // revoked while the attempt was notionally in flight, its result
        // cannot be trusted — convert to the retryable infrastructure
        // failure so the split re-runs on a survivor.
        let outcome = match outcome {
            Ok(_) if worker.state() == WorkerState::Crashed => {
                Err(worker_failed(worker.id, "was revoked while the task was in flight"))
            }
            other => other,
        };
        match outcome {
            Ok(pages) => {
                worker.record_task_success();
                // the attempt occupied the worker's virtual timeline whether
                // or not it wins the race below — busy time accrues here
                worker.add_busy_micros(duration.as_micros() as u64);
                let rows: u64 = pages.iter().map(|p| p.positions() as u64).sum();
                self.trace.set_attr(span, "rows_out", rows);
                self.trace.end(span);
                if self.results[split].is_some() {
                    // the race was already decided (defensive: losers are
                    // normally cancelled before their event fires)
                    if speculative {
                        self.cluster.metrics.incr(names::CLUSTER_SPECULATIVE_WASTED);
                    }
                    return Ok(());
                }
                let us = duration.as_micros() as u64;
                self.sibling_us.record(us);
                self.fresh_us.record(us);
                self.cluster.histograms.record(names::HIST_CLUSTER_TASK_RUNTIME_US, us);
                let task_id = self.cluster.next_task_id.fetch_add(1, Ordering::Relaxed) + 1;
                self.cluster.telemetry.record_task(TaskRow {
                    task_id,
                    query_id: self.query_id,
                    worker_id: worker.id,
                    state: "finished".to_string(),
                    runtime_us: us,
                });
                if speculative {
                    self.cluster.metrics.incr(names::CLUSTER_SPECULATIVE_WINS);
                }
                self.results[split] = Some(pages);
                self.done += 1;
                // first result wins: cancel the live loser(s) of the race
                for loser in self.live[split].clone() {
                    self.cancel_attempt(loser);
                }
                Ok(())
            }
            Err(e) => {
                self.trace.set_attr(span, "error", 1);
                self.trace.end(span);
                if e.is_retryable() {
                    self.cluster.metrics.incr(names::CLUSTER_WORKER_FAILURES);
                }
                if worker.record_task_failure(self.cluster.config.blacklist_after) {
                    self.cluster.metrics.incr(names::CLUSTER_BLACKLISTED_WORKERS);
                }
                if worker.state() == WorkerState::Crashed || worker.is_blacklisted() {
                    // a dead or quarantined worker takes its in-memory
                    // fragment cache with it
                    self.cluster.fragment_caches.write().remove(&worker.id);
                }
                if !(self.cluster.config.fault_recovery && e.is_retryable()) {
                    self.fail_all();
                    return Err(e);
                }
                if speculative {
                    self.cluster.metrics.incr(names::CLUSTER_SPECULATIVE_WASTED);
                }
                if self.results[split].is_some() {
                    return Ok(());
                }
                self.failures[split] += 1;
                if !self.live[split].is_empty() {
                    // a duplicate of this split is still running; it will
                    // schedule the retry itself if it also fails
                    return Ok(());
                }
                if self.failures[split] >= self.cluster.config.max_split_attempts {
                    let err = attempts_exhausted(split, self.cluster.config.max_split_attempts, &e);
                    self.fail_all();
                    return Err(err);
                }
                self.cluster.metrics.incr(names::CLUSTER_SPLIT_RETRIES);
                let backoff = RETRY_BACKOFF_BASE
                    .saturating_mul(2u32.saturating_pow(self.failures[split] - 1));
                self.cluster
                    .histograms
                    .record(names::HIST_CLUSTER_RETRY_BACKOFF_US, backoff.as_micros() as u64);
                let target = self.choose_worker()?;
                self.queues[target].push_back(QueuedSplit { split, not_before: now + backoff });
                self.push_event(now + backoff, SchedEvent::Wake);
                Ok(())
            }
        }
    }

    /// Start queued work on every idle eligible worker. A worker that can
    /// no longer serve this query (crashed, draining, quarantined) loses
    /// its queue: the never-started splits move silently to eligible
    /// workers — they are reassignments, not retries.
    fn dispatch(&mut self, now: Duration) -> Result<()> {
        let mut displaced: Vec<QueuedSplit> = Vec::new();
        for wi in 0..self.workers.len() {
            if !self.workers[wi].accepts_tasks_for(self.priority) && !self.queues[wi].is_empty() {
                if self.workers[wi].lifecycle() == WorkerLifecycle::Draining {
                    // a polite handoff, not a crash reassignment
                    self.cluster
                        .metrics
                        .add(names::CLUSTER_SPLITS_HANDED_OFF, self.queues[wi].len() as u64);
                }
                displaced.extend(self.queues[wi].drain(..));
            }
        }
        for q in displaced {
            if self.results[q.split].is_some() {
                continue;
            }
            let target = self.choose_worker()?;
            self.queues[target].push_back(q);
        }
        for wi in 0..self.workers.len() {
            while self.busy[wi].is_none() && self.workers[wi].accepts_tasks_for(self.priority) {
                let Some(front) = self.queues[wi].front() else { break };
                if front.not_before > now {
                    // backoff deadline in the future: wake up then
                    let at = front.not_before;
                    self.push_event(at, SchedEvent::Wake);
                    break;
                }
                let Some(q) = self.queues[wi].pop_front() else { break };
                if self.results[q.split].is_some() {
                    continue;
                }
                self.start_attempt(wi, q.split, false, now);
            }
        }
        Ok(())
    }

    /// Straggler detection: once `min_completed` siblings have finished,
    /// any sole live non-speculative attempt whose elapsed virtual time
    /// *strictly* exceeds the configured quantile of completed sibling
    /// runtimes gets one duplicate on a different idle eligible worker.
    /// Every launch is recorded as a `Speculate` span and counted.
    fn check_stragglers(&mut self, now: Duration) {
        let spec = &self.cluster.config.speculation;
        if !spec.enabled
            || self.done == self.splits.len()
            || self.sibling_us.count() < spec.min_completed.max(1)
        {
            return;
        }
        let threshold_us = self.sibling_us.quantile(spec.quantile);
        for split in 0..self.splits.len() {
            // one live original and no duplicate yet
            if self.results[split].is_some() || self.live[split].len() != 1 {
                continue;
            }
            let id = self.live[split][0];
            if self.attempts[id].speculative {
                continue;
            }
            let from = self.attempts[id].worker;
            let elapsed_us = now.saturating_sub(self.attempts[id].start).as_micros() as u64;
            if elapsed_us <= threshold_us {
                // Not a straggler *yet*: revisit at the instant it would
                // cross the yardstick. Without this wake-up a quiet tail is
                // never re-judged — a two-split fragment has exactly one
                // sibling completion to piggyback on, and it lands before
                // the straggler's elapsed time exceeds the threshold.
                self.push_event(
                    self.attempts[id].start + Duration::from_micros(threshold_us + 1),
                    SchedEvent::Wake,
                );
                continue;
            }
            // an idle eligible worker that is not the straggler's own
            let Some(to) = (0..self.workers.len())
                .filter(|&w| {
                    w != from
                        && self.busy[w].is_none()
                        && self.queues[w].is_empty()
                        && self.workers[w].accepts_tasks_for(self.priority)
                })
                .min_by_key(|&w| self.workers[w].id)
            else {
                continue;
            };
            self.cluster.metrics.incr(names::CLUSTER_SPECULATIVE_LAUNCHES);
            let span =
                self.trace.begin(SpanKind::Speculate, format!("split[{split}]"), Some(self.stage));
            self.trace.set_attr(span, "from_worker", u64::from(self.workers[from].id));
            self.trace.set_attr(span, "to_worker", u64::from(self.workers[to].id));
            self.trace.set_attr(span, "elapsed_us", elapsed_us);
            self.trace.set_attr(span, "threshold_us", threshold_us);
            self.trace.end(span);
            self.start_attempt(to, split, true, now);
        }
    }

    /// Cancel a live attempt: close its span, free its worker, and discard
    /// its eagerly-computed outcome. Cancelled duplicates count as wasted
    /// speculative work.
    fn cancel_attempt(&mut self, id: usize) {
        if self.attempts[id].cancelled || self.attempts[id].outcome.is_none() {
            return;
        }
        self.attempts[id].cancelled = true;
        self.attempts[id].outcome = None;
        self.workers[self.attempts[id].worker].release_memory(SPLIT_MEMORY_ESTIMATE);
        self.trace.set_attr(self.attempts[id].span, "cancelled", 1);
        self.trace.end(self.attempts[id].span);
        if self.attempts[id].speculative {
            self.cluster.metrics.incr(names::CLUSTER_SPECULATIVE_WASTED);
        }
        let wi = self.attempts[id].worker;
        if self.busy[wi] == Some(id) {
            self.busy[wi] = None;
        }
        let split = self.attempts[id].split;
        self.live[split].retain(|&x| x != id);
    }

    /// Terminal failure: cancel everything still in flight so their spans
    /// close before the fragment's error propagates.
    fn fail_all(&mut self) {
        let ids: Vec<usize> = self.live.iter().flatten().copied().collect();
        for id in ids {
            self.cancel_attempt(id);
        }
    }

    /// Affinity placement with the memory-headroom score folded in: the
    /// split goes to its ring owner unless the owner's headroom (per-worker
    /// budget minus live reservations minus what this pass already
    /// promised) cannot fit another split — then the ring successors are
    /// walked in order and the first with room wins (counted as
    /// `cluster.splits_diverted`). With no budget configured, or when no
    /// worker has room, the primary owner gets the split anyway: headroom
    /// shapes placement, the cluster-wide memory pool enforces.
    fn place_split(&self, ring: &HashRing, identity: &str, assigned: &[u64]) -> Option<usize> {
        let owners = ring.successors(identity, self.workers.len());
        let index_of = |id: u32| self.workers.iter().position(|w| w.id == id);
        let Some(budget) = self.cluster.config.worker_memory_bytes else {
            return owners.first().copied().and_then(index_of);
        };
        let mut primary = None;
        for owner in owners {
            let Some(wi) = index_of(owner) else { continue };
            if primary.is_none() {
                primary = Some(wi);
            }
            let promised = self.workers[wi]
                .memory_reserved()
                .saturating_add(assigned[wi])
                .saturating_add(SPLIT_MEMORY_ESTIMATE);
            if promised <= budget {
                if primary != Some(wi) {
                    self.cluster.metrics.incr(names::CLUSTER_SPLITS_DIVERTED);
                }
                return Some(wi);
            }
        }
        primary
    }

    /// Deterministic target for a retried or displaced split: the eligible
    /// worker with the least pending work, ties broken by lowest id.
    fn choose_worker(&self) -> Result<usize> {
        (0..self.workers.len())
            .filter(|&w| self.workers[w].accepts_tasks_for(self.priority))
            .min_by_key(|&w| {
                (self.queues[w].len() + usize::from(self.busy[w].is_some()), self.workers[w].id)
            })
            .ok_or_else(|| self.cluster.no_active_workers())
    }

    fn push_event(&mut self, at: Duration, event: SchedEvent) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, event)));
    }
}

/// A retryable infrastructure failure attributed to one worker.
fn worker_failed(worker_id: u32, what: &str) -> PrestoError {
    PrestoError::WorkerFailed { worker_id, message: format!("worker {worker_id} {what}") }
}

/// Wrap the last retryable error once a split's attempt budget is spent.
/// The wrapper keeps the retryable *class*: this coordinator is giving up,
/// but the gateway may still fail the whole query over to another cluster,
/// where the split gets a fresh budget.
fn attempts_exhausted(split: usize, cap: u32, last: &PrestoError) -> PrestoError {
    let context = format!("split {split} failed {cap} attempts, giving up: {last}");
    match last {
        PrestoError::WorkerFailed { worker_id, .. } => {
            PrestoError::WorkerFailed { worker_id: *worker_id, message: context }
        }
        _ => PrestoError::ClusterUnavailable(context),
    }
}

/// Stable identity of a split: the key affinity scheduling and cache
/// migration place it by on the ring.
fn split_identity(payload: &SplitPayload) -> String {
    match payload {
        SplitPayload::HiveFile { path, .. } => format!("hive:{path}"),
        SplitPayload::Memory { chunk } => format!("memory:{chunk}"),
        SplitPayload::MySql => "mysql".to_string(),
        SplitPayload::Segments { start, end } => format!("segments:{start}-{end}"),
        SplitPayload::Tpch { start, count } => format!("tpch:{start}+{count}"),
        SplitPayload::System => "system".to_string(),
    }
}

/// Parts a warehouse file's [`split_identity`] from its version in a
/// fragment-cache key. It sorts below every path byte, so keys still order
/// (and migrate, and evict) as their ring identities do.
const VERSION_SEPARATOR: char = '\0';

/// A split's identity in the fragment result cache: where it lives on the
/// ring, and for a warehouse file which version of it was scanned — a file
/// rewritten in place is a new entry, not a stale hit.
fn cache_identity(payload: &SplitPayload) -> String {
    let identity = split_identity(payload);
    match payload {
        SplitPayload::HiveFile { version: (size, generation), .. } => {
            format!("{identity}{VERSION_SEPARATOR}{size}.{generation}")
        }
        _ => identity,
    }
}

/// The [`split_identity`] a [`cache_identity`] was built on.
fn ring_identity(cache_identity: &str) -> &str {
    cache_identity.split_once(VERSION_SEPARATOR).map_or(cache_identity, |(ring, _)| ring)
}

/// Only splits over immutable data may be result-cached: a warehouse file
/// is keyed by its version, generated TPC-H data is deterministic. Memory
/// and MySQL tables mutate; real-time segments keep arriving — and `system`
/// tables are live telemetry, different on every snapshot.
fn is_immutable_split(payload: &SplitPayload) -> bool {
    matches!(payload, SplitPayload::HiveFile { .. } | SplitPayload::Tpch { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{Block, DataType, Field, Schema, Value};
    use presto_connectors::memory::MemoryConnector;

    fn cluster_with(config: ClusterConfig) -> Arc<PrestoCluster> {
        let engine = PrestoEngine::new();
        let memory = MemoryConnector::new();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Bigint),
            Field::new("city", DataType::Varchar),
        ])
        .unwrap();
        // several pages → several splits → distributed scan
        let pages: Vec<Page> = (0..8)
            .map(|p| {
                Page::new(vec![
                    Block::bigint((p * 10..p * 10 + 10).collect()),
                    Block::varchar(&["sf"; 10]),
                ])
                .unwrap()
            })
            .collect();
        memory.create_table("default", "t", schema, pages).unwrap();
        engine.register_catalog("memory", Arc::new(memory));
        PrestoCluster::new("test", engine, config, SimClock::new())
    }

    fn cluster() -> Arc<PrestoCluster> {
        cluster_with(ClusterConfig {
            initial_workers: 3,
            grace_period: Duration::from_secs(2),
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn distributed_query_spreads_tasks_over_workers() {
        let c = cluster();
        let result = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(80)]]);
        assert_eq!(c.metrics().get("cluster.tasks"), 8);
        // every worker did some splits
        let done: Vec<usize> = c.workers().iter().map(|w| w.completed_tasks()).collect();
        assert!(done.iter().all(|&d| d > 0), "{done:?}");
        assert_eq!(done.iter().sum::<usize>(), 8);
    }

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
        c.request_worker_shutdown(0).unwrap();
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
        assert_eq!(c.metrics().get("cluster.queries_failed"), 0);
        // and the cluster still works
        let result = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(80)]]);
    }

    #[test]
    fn fragment_result_cache_serves_repeat_queries() {
        let engine = PrestoEngine::new();
        engine.register_catalog("tpch", Arc::new(presto_connectors::tpch::TpchConnector::new()));
        let c = PrestoCluster::new(
            "cached",
            engine,
            ClusterConfig {
                initial_workers: 3,
                affinity_scheduling: true,
                fragment_cache_entries: 64,
                ..ClusterConfig::default()
            },
            SimClock::new(),
        );
        let session = Session::new("tpch", "tiny");
        let sql = "SELECT returnflag, count(*) FROM lineitem GROUP BY 1";
        let first = c.execute(sql, &session).unwrap();
        assert_eq!(c.metrics().get("frc.hits"), 0);
        let misses_after_first = c.metrics().get("frc.misses");
        assert!(misses_after_first > 0, "first run populates the cache");

        // the dashboard refreshes: identical query, all splits served from
        // worker memory
        let second = c.execute(sql, &session).unwrap();
        assert_eq!(first.rows(), second.rows());
        assert_eq!(c.metrics().get("frc.misses"), misses_after_first);
        assert_eq!(c.metrics().get("frc.hits"), misses_after_first);

        // a different pushdown shape must not share results
        let other = "SELECT returnflag, count(*) FROM lineitem \
                     WHERE linestatus = 'O' GROUP BY 1";
        c.execute(other, &session).unwrap();
        assert!(c.metrics().get("frc.misses") > misses_after_first);
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
            (c.metrics().get("frc.hits"), c.metrics().get("frc.misses"))
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
    fn headroom_diverts_splits_off_saturated_owners() {
        // A budget of one split per worker: the first split a placement
        // pass promises each owner fits, every later same-owner split must
        // walk the ring to a successor — and the query still succeeds.
        let c = cluster_with(ClusterConfig {
            initial_workers: 3,
            affinity_scheduling: true,
            worker_memory_bytes: Some(SPLIT_MEMORY_ESTIMATE),
            ..ClusterConfig::default()
        });
        let result = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(80)]]);
        // 8 splits over 3 single-split budgets cannot avoid diverting
        assert!(c.metrics().get(names::CLUSTER_SPLITS_DIVERTED) > 0);
        // reservations drain once the query finishes
        for w in c.workers() {
            assert_eq!(w.memory_reserved(), 0, "worker {} leaked a reservation", w.id);
        }
    }

    #[test]
    fn memory_reservations_release_even_with_faults() {
        use presto_common::fault::FaultPlan;
        let c = cluster_with(ClusterConfig {
            initial_workers: 3,
            affinity_scheduling: true,
            worker_memory_bytes: Some(4 * SPLIT_MEMORY_ESTIMATE),
            fault_injector: FaultInjector::new(7, FaultPlan::new().fail_rate(0.3)),
            ..ClusterConfig::default()
        });
        c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        for w in c.workers() {
            assert_eq!(w.memory_reserved(), 0, "worker {} leaked a reservation", w.id);
        }
    }

    #[test]
    fn maintenance_refuses_queries() {
        let c = cluster();
        c.set_maintenance(true);
        assert!(c.execute("SELECT 1", &Session::default()).is_err());
        c.set_maintenance(false);
        assert!(c.execute("SELECT 1", &Session::default()).is_ok());
    }

    #[test]
    fn refusals_are_rejected_not_failed() {
        let c = cluster();
        c.set_maintenance(true);
        let err = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap_err();
        assert_eq!(err.code(), "CLUSTER_UNAVAILABLE");
        assert!(err.is_retryable(), "a gateway that raced the drain may re-route");
        assert_eq!(c.metrics().get("cluster.queries_rejected"), 1);
        assert_eq!(c.metrics().get("cluster.queries_failed"), 0);
        assert_eq!(c.queries_started(), 0, "the query never started");
    }

    #[test]
    fn admission_overflow_is_rejected_not_failed() {
        let c = cluster_with(ClusterConfig {
            initial_workers: 1,
            admission: AdmissionConfig {
                max_concurrent: Some(0),
                max_queued: 0,
                ..AdmissionConfig::default()
            },
            ..ClusterConfig::default()
        });
        let err = c.execute("SELECT 1", &Session::default()).unwrap_err();
        assert_eq!(err.code(), "INSUFFICIENT_RESOURCES");
        assert_eq!(c.metrics().get("cluster.queries_rejected"), 1);
        assert_eq!(c.metrics().get("cluster.queries_failed"), 0);
        assert_eq!(c.queries_started(), 0);
    }

    #[test]
    fn injected_crash_recovers_via_split_reassignment() {
        use presto_common::{FaultInjector, FaultPlan};
        // worker 1 dies when it starts its second task; its unfinished
        // splits move to the two survivors and the query still answers
        // correctly.
        let c = cluster_with(ClusterConfig {
            initial_workers: 3,
            fault_injector: FaultInjector::new(7, FaultPlan::new().crash_on_task(1, 2)),
            ..ClusterConfig::default()
        });
        let result = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(80)]]);
        assert!(c.metrics().get("cluster.split_retries") >= 1);
        assert_eq!(c.metrics().get("cluster.worker_failures"), 1);
        assert_eq!(c.metrics().get("cluster.queries_failed"), 0);
        let crashed: Vec<u32> = c
            .workers()
            .iter()
            .filter(|w| w.state() == WorkerState::Crashed)
            .map(|w| w.id)
            .collect();
        assert_eq!(crashed, vec![1]);
    }

    #[test]
    fn recovery_off_fails_the_query_on_the_same_schedule() {
        use presto_common::{FaultInjector, FaultPlan};
        let c = cluster_with(ClusterConfig {
            initial_workers: 3,
            fault_injector: FaultInjector::new(7, FaultPlan::new().crash_on_task(1, 2)),
            fault_recovery: false,
            ..ClusterConfig::default()
        });
        let err = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap_err();
        assert_eq!(err.code(), "WORKER_FAILED");
        assert_eq!(c.metrics().get("cluster.split_retries"), 0);
        assert_eq!(c.metrics().get("cluster.queries_failed"), 1);
    }

    #[test]
    fn attempt_cap_gives_up_with_a_retryable_error() {
        use presto_common::{FaultInjector, FaultPlan};
        // one worker that drops every task: the only candidate for every
        // reattempt keeps failing until the per-split budget runs out
        let c = cluster_with(ClusterConfig {
            initial_workers: 1,
            fault_injector: FaultInjector::new(3, FaultPlan::new().fail_rate(1.0)),
            max_split_attempts: 3,
            blacklist_after: 0, // keep the flaky worker schedulable
            ..ClusterConfig::default()
        });
        let before = c.clock().now();
        let err = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap_err();
        assert!(err.is_retryable(), "the gateway may still fail over: {err}");
        assert!(err.message().contains("giving up"), "{err}");
        assert_eq!(c.metrics().get("cluster.queries_failed"), 1);
        // two retry rounds happened, with backoff on the virtual clock
        assert!(c.metrics().get("cluster.split_retries") >= 2);
        assert!(c.clock().now() > before, "backoff advances virtual time");
    }

    #[test]
    fn flaky_worker_is_blacklisted_and_quarantined() {
        use presto_common::{FaultInjector, FaultPlan};
        // worker 0 drops its first three tasks, then would behave — but by
        // then the consecutive-failure blacklist has quarantined it, so the
        // retries (and every later query) run on workers 1 and 2.
        let c = cluster_with(ClusterConfig {
            initial_workers: 3,
            fault_injector: FaultInjector::new(
                5,
                FaultPlan::new().fail_task(0, 1).fail_task(0, 2).fail_task(0, 3),
            ),
            blacklist_after: 3,
            ..ClusterConfig::default()
        });
        let result = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        assert_eq!(result.rows(), vec![vec![Value::Bigint(80)]]);
        assert_eq!(c.metrics().get("cluster.blacklisted_workers"), 1);
        let w0 = &c.workers()[0];
        assert!(w0.is_blacklisted());
        assert_eq!(w0.state(), WorkerState::Active, "quarantined, not dead");
        assert!(!w0.accepts_tasks());
        // later queries never touch the quarantined worker
        let done_before = w0.completed_tasks();
        c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        assert_eq!(w0.completed_tasks(), done_before);
    }

    #[test]
    fn queries_record_traces_and_latency_histograms() {
        let c = cluster();
        let r = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        let spans = r.info.trace.spans();
        assert!(spans.iter().any(|s| s.kind == SpanKind::Query));
        assert!(spans.iter().any(|s| s.kind == SpanKind::Stage));
        // one task span per split, parented under the scan stage
        assert_eq!(spans.iter().filter(|s| s.kind == SpanKind::Task).count(), 8);
        assert!(r.info.latency > Duration::ZERO, "the cost model advances virtual time");
        let h = c.histograms().get(names::HIST_CLUSTER_QUERY_LATENCY_US);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), r.info.latency.as_micros() as u64);
    }

    #[test]
    fn retry_backoff_lands_in_the_histogram() {
        use presto_common::{FaultInjector, FaultPlan};
        let c = cluster_with(ClusterConfig {
            initial_workers: 3,
            fault_injector: FaultInjector::new(7, FaultPlan::new().crash_on_task(1, 2)),
            ..ClusterConfig::default()
        });
        c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
        let h = c.histograms().get(names::HIST_CLUSTER_RETRY_BACKOFF_US);
        assert!(h.count() >= 1, "at least one backoff round ran");
        assert!(h.min() >= RETRY_BACKOFF_BASE.as_micros() as u64);
    }

    #[test]
    fn same_seed_chaos_runs_produce_identical_trace_digests() {
        use presto_common::{FaultInjector, FaultPlan};
        let digest_of = || {
            let c = cluster_with(ClusterConfig {
                initial_workers: 3,
                fault_injector: FaultInjector::new(
                    7,
                    FaultPlan::new().crash_on_task(1, 2).fail_task(0, 3),
                ),
                ..ClusterConfig::default()
            });
            let r = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap();
            r.info.trace.digest()
        };
        assert_eq!(digest_of(), digest_of(), "trace digests must be bit-identical");
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
}
