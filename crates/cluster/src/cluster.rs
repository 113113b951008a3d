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
//! time exceeds the p99 of the completed sibling runtimes gets a duplicate
//! attempt on a different idle worker. First result wins; the loser is
//! cancelled. Every decision is recorded — `cluster.speculative_launches` /
//! `_wins` / `_wasted` counters and a `Speculate` trace span per launch.
//!
//! This module holds construction, the accessors and the query path
//! (`execute_clocked` → `run_distributed` → `deliver_exchange`). The scan
//! scheduler, the worker lifecycle (expand, decommission, revoke, tick,
//! cache migration) and the telemetry sampler are its child modules.

mod lifecycle;
mod scheduler;
mod telemetry;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use presto_cache::fragment::FragmentResultCache;
use presto_common::metrics::{names, CounterSet, Histogram, HistogramSet};
use presto_common::sync::{Mutex, Rank, RwLock};
use presto_common::telemetry::{QueryRow, TelemetryRegistry};
use presto_common::trace::SpanKind;
use presto_common::{FaultInjector, Page, PrestoError, Result, SimClock};
use presto_connectors::SystemConnector;
use presto_core::{PlannedQuery, PrestoEngine, QueryResult, Session};
use presto_plan::{fragment_plan, LogicalPlan};
use presto_resource::{QueryPriority, ResourceManager};

use crate::worker::{Worker, DEFAULT_GRACE_PERIOD};
use telemetry::TelemetrySampler;

/// First retry backoff; doubles per retry round. Waits advance the virtual
/// [`SimClock`], never the wall clock.
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Times one split (or one exchange delivery) may be attempted before the
/// query fails.
const MAX_SPLIT_ATTEMPTS: u32 = 4;

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
    /// Deterministic fault harness consulted at every task start
    /// (disabled by default — no faults, no lock contention).
    pub fault_injector: Arc<FaultInjector>,
    /// Recover from retryable task failures by reassigning the unfinished
    /// splits to surviving workers (on by default). With recovery off, the
    /// first task failure fails the whole query — the pre-§XII behaviour
    /// the chaos experiment compares against.
    pub fault_recovery: bool,
    /// Quarantine a worker after this many *consecutive* task failures
    /// (0 = never blacklist). Quarantine and the probation that follows it
    /// last [`crate::worker::DEFAULT_QUARANTINE_PERIOD`] and
    /// [`crate::worker::DEFAULT_PROBATION_WINDOW`].
    pub blacklist_after: u32,
    /// Straggler mitigation via speculative duplicate attempts (on by
    /// default): a running attempt slower than the p99 of its completed
    /// siblings gets one duplicate on a different idle worker, and the
    /// first result wins. The yardstick is seeded from the last run of the
    /// same fragment, so a single-wave fragment can speculate too.
    pub speculation: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            initial_workers: 4,
            grace_period: DEFAULT_GRACE_PERIOD,
            affinity_scheduling: false,
            fragment_cache_entries: 0,
            cluster_memory_bytes: None,
            fault_injector: FaultInjector::disabled(),
            fault_recovery: true,
            blacklist_after: 3,
            speculation: true,
        }
    }
}

/// A cluster: coordinator state + worker pool.
///
/// Counters: `cluster.queries`, `cluster.tasks`, `cluster.queries_failed`
/// (the query *started* and then died), `cluster.queries_rejected` (refused
/// at the door — maintenance drain, or a statement that does not parse or
/// plan), `cluster.worker_failures`, `cluster.split_retries`, and
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
    /// A single flag — an atomic, not a lock, so it needs no `Rank`.
    maintenance: AtomicBool,
    queries_started: AtomicU64,
    /// Graceful decommissions scheduled for a future virtual instant,
    /// fired by [`PrestoCluster::poll_lifecycle`] — the scan scheduler
    /// polls mid-query, so a drain can land while splits are queued.
    pending_drains: Mutex<Vec<(Duration, u32)>>,
    /// Per-worker fragment result caches (die with their worker, like any
    /// worker-side memory cache; a worker back in service starts an empty
    /// one with its next task). A `BTreeMap`, not a `HashMap`: cache
    /// digests and migrations walk it, and same-seed runs must walk it in
    /// the same order.
    fragment_caches: RwLock<BTreeMap<u32, FragmentResultCache>>,
    /// Completed task runtimes per plan fingerprint, merged in after every
    /// successful scan fragment. Seeds the next identical fragment's
    /// straggler yardstick so single-wave fragments can speculate in-wave.
    runtime_history: RwLock<BTreeMap<u64, Histogram>>,
    /// Cluster-wide telemetry: per-worker busy-fraction series, memory/
    /// cache samples, and the row sets the `system` catalog exposes.
    /// Shared with the engine (EXPLAIN ANALYZE footer) and the `system`
    /// connector.
    telemetry: Arc<TelemetryRegistry>,
    /// Per-worker cumulative-busy baselines from the previous telemetry
    /// snapshot, so each snapshot attributes only the delta.
    sampler: Mutex<TelemetrySampler>,
    /// Monotone task sequence feeding `system.runtime.tasks`.
    next_task_id: AtomicU64,
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
        // memory pool shared by every query this cluster runs. The engine's
        // fragments account against it.
        let engine =
            engine.with_resources(ResourceManager::new(config.cluster_memory_bytes, clock.clone()));
        // The telemetry registry is shared three ways: the cluster writes
        // snapshots into it, the engine reads it for the EXPLAIN ANALYZE
        // footer, and the `system` catalog exposes it back through SQL.
        let telemetry = Arc::new(TelemetryRegistry::new());
        let engine = engine.with_telemetry(telemetry.clone());
        engine.register_catalog("system", Arc::new(SystemConnector::new(telemetry.clone())));
        let cluster = PrestoCluster {
            name: name.into(),
            engine,
            workers: RwLock::new(Rank::ClusterWorkers, Vec::new()),
            next_worker_id: AtomicU32::new(0),
            clock,
            config,
            metrics: CounterSet::new(),
            histograms: HistogramSet::new(),
            maintenance: AtomicBool::new(false),
            queries_started: AtomicU64::new(0),
            pending_drains: Mutex::new(Rank::ClusterPendingDrains, Vec::new()),
            fragment_caches: RwLock::new(Rank::ClusterFragmentCaches, BTreeMap::new()),
            runtime_history: RwLock::new(Rank::ClusterRuntimeHistory, BTreeMap::new()),
            telemetry,
            sampler: Mutex::new(Rank::ClusterSampler, TelemetrySampler::default()),
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
    /// ([`PrestoEngine::run_query`]: parse, plan, `EXPLAIN`, the query span
    /// and stopwatch); what the cluster adds is *how the plan runs* and its
    /// own counters and telemetry row. `EXPLAIN` answers with
    /// the plan and starts nothing; `EXPLAIN ANALYZE` runs distributed.
    ///
    /// Refusals are not failures: a maintenance drain or a statement that
    /// does not plan turns the query away *before it starts* and counts as
    /// `cluster.queries_rejected`, so
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
    /// other's virtual costs through the cluster-wide clock. Service time is
    /// a pure function of the plan, so forked runs stay deterministic.
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
        query: &PlannedQuery<'_>,
        session: &Session,
        query_id: u64,
        clock: &SimClock,
    ) -> Result<Vec<Page>> {
        let &PlannedQuery { metrics, trace, root, .. } = query;
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
                        && attempt < u64::from(MAX_SPLIT_ATTEMPTS) =>
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerState;
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

    pub(super) fn cluster() -> Arc<PrestoCluster> {
        cluster_with(ClusterConfig {
            initial_workers: 3,
            grace_period: Duration::from_secs(2),
            ..ClusterConfig::default()
        })
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
            blacklist_after: 0, // keep the flaky worker schedulable
            ..ClusterConfig::default()
        });
        let before = c.clock().now();
        let err = c.execute("SELECT count(*) FROM t", &Session::default()).unwrap_err();
        assert!(err.is_retryable(), "the gateway may still fail over: {err}");
        assert!(err.message().contains("giving up"), "{err}");
        assert_eq!(c.metrics().get("cluster.queries_failed"), 1);
        // MAX_SPLIT_ATTEMPTS - 1 retry rounds, with backoff on the virtual clock
        assert!(c.metrics().get("cluster.split_retries") >= u64::from(MAX_SPLIT_ATTEMPTS - 1));
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
}
