//! The cluster-wide multi-query discrete-event simulation.
//!
//! One master [`SimClock`] carries the cluster timeline. Arrivals pop off
//! an event heap; each query waits in the configured queue discipline
//! (per-tenant WFQ or the naive global FIFO) until a dispatch slot frees
//! up, then executes *for real* on the cluster — planner, fragments,
//! distributed scan scheduling — against a [`SimClock::fork`] of the
//! master clock, so overlapping queries advance their own virtual
//! timelines without serializing each other. The fork's elapsed time is
//! the query's service time; its completion is scheduled back onto the
//! master heap. Everything — arrival times, tenant picks, dispatch order,
//! service times, digests — is a pure function of `(seed, config)`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;
use std::time::Duration;

use presto_cluster::{
    Autoscaler, AutoscalerConfig, ClusterConfig, PrestoCluster, ScaleDecision, WorkerLifecycle,
};
use presto_common::fault::{FaultInjector, FaultPlan};
use presto_common::metrics::{names, CounterSet, Histogram, HistogramSet, TimeSeries};
use presto_common::rng::mix64;
use presto_common::{Block, DataType, Field, Page, PrestoError, Result, Schema, SimClock};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};
use presto_resource::{FifoQueue, QueuedQuery, WfqScheduler};

use crate::slo::SloPolicy;
use crate::workload::{
    pick_template, tenant_class, tenant_weight, ArrivalProcess, TenantClass, ZipfSampler,
    LARGE_PAGES, MEDIUM_PAGES, SMALL_PAGES,
};

/// Rows per page in the seeded tables (kept small: the rows are scanned
/// for real on every query).
const ROWS_PER_PAGE: usize = 64;

/// Rough virtual cost of one scan wave (task base + per-row work), used
/// only as the WFQ cost estimate at enqueue time.
const WAVE_COST_US: u64 = 110;

/// Patience window of a standing reservation, in virtual µs. While a
/// wide query's grant assembles, narrow queries may still dispatch if
/// they are estimated to finish within `max(horizon, reserved_at +
/// patience)` — early in the window traffic flows freely, and as the
/// deadline nears borrowing dries up so the freed units accumulate.
/// Roughly one batch-query service time: wide enough that dashboards are
/// not starved by back-to-back reservations, tight enough that a wide
/// grant assembles within a few milliseconds.
const RESERVE_PATIENCE_US: u64 = 1_200;

/// Elastic lifecycle cadence: under an [`ElasticPlan`] the cluster is ticked
/// (drain phases advanced, terminated workers reaped, due revocations
/// fired) and the autoscaler evaluated every this-many virtual µs.
const TICK_EVERY_US: u64 = 500;

/// `shutdown.grace-period` of the simulated cluster under an
/// [`ElasticPlan`] — short, so drains run to `Terminated` within the
/// simulation window (the paper's 2-minute default would outlive the run).
const ELASTIC_GRACE_PERIOD: Duration = Duration::from_micros(200);

/// Queue discipline the simulated coordinator dispatches with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Per-tenant weighted fair queuing inside priority lanes.
    Wfq,
    /// One global FIFO ignoring lanes, tenants and weights — the
    /// counterfactual the experiment quantifies WFQ against.
    Fifo,
}

impl SchedulerMode {
    /// Lowercase mode name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerMode::Wfq => "wfq",
            SchedulerMode::Fifo => "fifo",
        }
    }
}

/// The class name spot (preemptible) capacity runs under. A
/// [`ElasticPlan::revoke_spot_at_us`] storm flips every worker of this
/// class to `Revoked` at one virtual instant.
pub const SPOT_CLASS: &str = "spot";

/// Elastic-lifecycle events layered onto a simulation run: periodic
/// lifecycle ticks, an optional queue-driven autoscaler, scheduled graceful
/// decommissions, and an optional spot-revocation storm. All times are
/// virtual µs on the master timeline, so the whole scenario stays a pure
/// function of `(seed, config)`.
#[derive(Debug, Clone)]
pub struct ElasticPlan {
    /// Autoscaler policy; `None` runs a fixed fleet (plus the events below).
    pub autoscaler: Option<AutoscalerConfig>,
    /// Preemptible workers added to the fleet at start, class [`SPOT_CLASS`].
    pub spot_workers: u32,
    /// Revoke the whole spot class at this virtual instant (the storm).
    pub revoke_spot_at_us: Option<u64>,
    /// Gracefully decommission the coldest active worker at each of these
    /// virtual instants (scale-down under live load).
    pub decommission_at_us: Vec<u64>,
    /// Recovery budget after the storm: the report flags whether active
    /// capacity returned to its pre-storm level within this many virtual µs.
    pub recovery_bound_us: u64,
}

impl Default for ElasticPlan {
    fn default() -> Self {
        ElasticPlan {
            autoscaler: None,
            spot_workers: 0,
            revoke_spot_at_us: None,
            decommission_at_us: Vec::new(),
            recovery_bound_us: 5_000_000,
        }
    }
}

/// What the elastic lifecycle did during one run (all counters come from
/// the cluster's own metrics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticReport {
    /// Autoscaler scale-out actions.
    pub scale_outs: u64,
    /// Workers the autoscaler added in total.
    pub workers_added: u64,
    /// Autoscaler scale-in actions (graceful decommissions).
    pub scale_ins: u64,
    /// Workers that completed the full drain and were reaped.
    pub workers_decommissioned: u64,
    /// Workers lost abruptly to revocation.
    pub workers_revoked: u64,
    /// Queued splits displaced off draining workers onto survivors.
    pub splits_handed_off: u64,
    /// Fragment-cache entries migrated to consistent successors.
    pub cache_entries_migrated: u64,
    /// The storm instant, when one was planned.
    pub storm_at_us: Option<u64>,
    /// First tick at/after the storm where active capacity was back at its
    /// pre-storm level (`None` = never recovered within the run).
    pub recovered_at_us: Option<u64>,
    /// The declared recovery budget.
    pub recovery_bound_us: u64,
    /// Largest active fleet observed at any tick.
    pub peak_workers: usize,
    /// Active fleet when the run ended.
    pub final_workers: usize,
    /// Every autoscaler action in timeline order: `(virtual µs, delta)`
    /// where delta is `+added` for a scale-out and `-1` for a scale-in.
    /// This is the trace the busy-vs-queue counterfactual compares.
    pub actions: Vec<(u64, i64)>,
}

impl ElasticReport {
    /// Did capacity recover from the storm within the declared budget?
    /// Vacuously true when no storm was planned.
    pub fn recovered_within_bound(&self) -> bool {
        match (self.storm_at_us, self.recovered_at_us) {
            (None, _) => true,
            (Some(storm), Some(rec)) => rec.saturating_sub(storm) <= self.recovery_bound_us,
            (Some(_), None) => false,
        }
    }
}

/// Simulation parameters. The default is the paper-scale experiment: a
/// thousand Zipf-skewed tenants, ten thousand queries, a diurnal rush that
/// transiently exceeds the dispatch capacity.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Workload RNG seed.
    pub seed: u64,
    /// Tenant population.
    pub tenants: u32,
    /// Queries to simulate.
    pub queries: u64,
    /// Zipf exponent for tenant popularity (0 = uniform).
    pub zipf_exponent: f64,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Workers in the simulated cluster.
    pub workers: u32,
    /// Concurrent execution slot-units at the coordinator. An admitted
    /// query holds its class's [`TenantClass::slot_units`] until it
    /// completes, so a batch query occupies five times the capacity of an
    /// interactive one — more than half the default budget, which is what
    /// makes naive FIFO's head-of-line blocking expensive.
    pub slots: usize,
    /// Queue discipline.
    pub mode: SchedulerMode,
    /// Declared per-class latency SLOs.
    pub slos: SloPolicy,
    /// Elastic-lifecycle events layered onto the run (`None` = the fixed
    /// fleet the queueing experiments assume).
    pub elastic: Option<ElasticPlan>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 7,
            tenants: 1000,
            queries: 10_000,
            zipf_exponent: 0.7,
            arrival: ArrivalProcess::Diurnal {
                mean_interarrival_us: 180.0,
                amplitude: 0.3,
                cycle_us: 200_000,
            },
            workers: 8,
            slots: 8,
            mode: SchedulerMode::Wfq,
            slos: SloPolicy::default(),
            elastic: None,
        }
    }
}

/// One tenant's row in the SLO report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant id (its Zipf rank).
    pub tenant: u32,
    /// Workload class.
    pub class: TenantClass,
    /// Queries the tenant completed.
    pub queries: u64,
    /// Median end-to-end latency (virtual µs).
    pub p50_us: u64,
    /// p99 end-to-end latency (virtual µs).
    pub p99_us: u64,
    /// The p99 target the tenant's class declared.
    pub slo_p99_us: u64,
    /// Did the tenant meet its SLO?
    pub within_slo: bool,
}

/// Everything one simulation run produced.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Queue discipline that ran.
    pub mode: SchedulerMode,
    /// Queries that arrived.
    pub arrivals: u64,
    /// Queries that completed.
    pub completed: u64,
    /// Queries that failed (none, absent injected faults).
    pub failed: u64,
    /// Virtual time from first arrival to last completion (µs).
    pub makespan_us: u64,
    /// Order-sensitive fold of `(query, tenant, latency)` over every
    /// completion — bit-identical across same-seed runs.
    pub digest: u64,
    /// Fold of every query's trace digest, in dispatch order.
    pub trace_digest: u64,
    /// End-to-end latency across all queries (virtual µs).
    pub latency_us: Histogram,
    /// Time spent queued before dispatch (virtual µs).
    pub queue_wait_us: Histogram,
    /// Latency broken down by workload class, keyed by class name.
    pub class_latency_us: BTreeMap<&'static str, Histogram>,
    /// Latency per tenant (only tenants that completed ≥ 1 query).
    pub tenant_latency_us: BTreeMap<u32, Histogram>,
    /// Per-tenant SLO rows, sorted by tenant id.
    pub tenants: Vec<TenantReport>,
    /// The worst per-tenant p99 (virtual µs) and which tenant owns it.
    pub worst_p99_us: u64,
    /// Tenant owning `worst_p99_us`.
    pub worst_tenant: u32,
    /// Tenants that missed their declared SLO.
    pub slo_violations: u64,
    /// `sim.arrivals` / `sim.completed` / `sim.failed`.
    pub metrics: CounterSet,
    /// `sim.latency_us` / `sim.queue_wait_us` under the shared names.
    pub histograms: HistogramSet,
    /// Elastic-lifecycle outcome, when the config planned one.
    pub elastic: Option<ElasticReport>,
    /// FNV fold of the cluster's [`TelemetryRegistry`] at end of run —
    /// workers, queries, tasks, every time series and gauge. Bit-identical
    /// across same-seed runs.
    ///
    /// [`TelemetryRegistry`]: presto_common::telemetry::TelemetryRegistry
    pub telemetry_digest: u64,
    /// FNV fold of the per-worker fragment caches at end of run. The
    /// revocation-storm determinism test pins this bit-identical across
    /// same-seed runs: a storm must tear caches down the same way twice.
    pub cache_digest: u64,
    /// Telemetry snapshots the cluster took (one per lifecycle tick).
    pub telemetry_snapshots: u64,
    /// End-of-run copy of every named time series the sampler maintained
    /// (worker and fleet busy-fraction, memory/cache utilization).
    pub telemetry_series: BTreeMap<String, TimeSeries>,
}

impl SimReport {
    /// Tenant rows for one class, in tenant order.
    pub fn class_rows(&self, class: TenantClass) -> impl Iterator<Item = &TenantReport> {
        self.tenants.iter().filter(move |t| t.class == class)
    }

    /// Do all tenants of `class` meet their declared SLO?
    pub fn class_within_slo(&self, class: TenantClass) -> bool {
        self.class_rows(class).all(|t| t.within_slo)
    }
}

/// Per-query bookkeeping, filled in arrival order.
struct QueryMeta {
    arrival_us: u64,
    tenant: u32,
    class: TenantClass,
    units: usize,
    cost_us: u64,
    sql: &'static str,
}

/// Events on the master timeline. Completions order before arrivals at the
/// same instant only through their push sequence — both orders are
/// deterministic, which is all the digests need.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Query `.0` arrives.
    Arrive(u64),
    /// Query `.0` finishes service.
    Complete(u64),
    /// Lifecycle tick: advance drains, fire due revocations and scheduled
    /// decommissions, evaluate the autoscaler. Only scheduled when the
    /// config carries an [`ElasticPlan`].
    Tick,
}

enum Queue {
    Wfq(WfqScheduler),
    Fifo(FifoQueue),
}

impl Queue {
    fn push(&mut self, tenant: u32, weight: u64, class: TenantClass, cost_us: u64, item: u64) {
        match self {
            Queue::Wfq(q) => q.push(tenant, weight, class.lane(), cost_us, item),
            Queue::Fifo(q) => q.push(QueuedQuery { tenant, lane: class.lane(), item }),
        }
    }

    /// Queries waiting — the autoscaler's queue-depth signal.
    fn len(&self) -> usize {
        match self {
            Queue::Wfq(q) => q.len(),
            Queue::Fifo(q) => q.len(),
        }
    }
}

/// Build the simulated cluster: seeded memory tables, no faults, no
/// fragment caches, speculation off. With all
/// variance sources disabled, a query's service time is a pure function of
/// its SQL — so WFQ-vs-FIFO differences are pure queueing effects.
fn build_cluster(config: &SimConfig, clock: &SimClock) -> Result<Arc<PrestoCluster>> {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("shard", DataType::Bigint),
    ])?;
    for (table, pages) in
        [("sim_small", SMALL_PAGES), ("sim_medium", MEDIUM_PAGES), ("sim_large", LARGE_PAGES)]
    {
        let mut data = Vec::with_capacity(pages);
        for p in 0..pages {
            let base = (p * ROWS_PER_PAGE) as i64;
            let ids: Vec<i64> = (base..base + ROWS_PER_PAGE as i64).collect();
            let shards: Vec<i64> = ids.iter().map(|id| id % 16).collect();
            data.push(Page::new(vec![Block::bigint(ids), Block::bigint(shards)])?);
        }
        memory.create_table("default", table, schema.clone(), data)?;
    }
    engine.register_catalog("memory", Arc::new(memory));
    let mut cluster_config = ClusterConfig {
        initial_workers: config.workers.max(1),
        speculation: false,
        ..ClusterConfig::default()
    };
    if let Some(plan) = &config.elastic {
        cluster_config.grace_period = ELASTIC_GRACE_PERIOD;
        if let Some(at) = plan.revoke_spot_at_us {
            cluster_config.fault_injector = FaultInjector::new(
                config.seed,
                FaultPlan::new().revoke_class(SPOT_CLASS, Duration::from_micros(at)),
            );
        }
    }
    Ok(PrestoCluster::new("sim", engine, cluster_config, clock.clone()))
}

/// Workers currently in the `Active` lifecycle state.
fn active_fleet(cluster: &PrestoCluster) -> usize {
    cluster.workers().iter().filter(|w| w.lifecycle() == WorkerLifecycle::Active).count()
}

/// The coldest active worker: fewest completed tasks, ties to the newest.
/// Scheduled decommissions target it, mirroring the autoscaler's scale-in
/// choice.
fn coldest_worker(cluster: &PrestoCluster) -> Option<u32> {
    cluster
        .workers()
        .iter()
        .filter(|w| w.lifecycle() == WorkerLifecycle::Active)
        .min_by_key(|w| (w.completed_tasks(), Reverse(w.id)))
        .map(|w| w.id)
}

/// Run one simulation to completion and report.
pub fn run_simulation(config: &SimConfig) -> Result<SimReport> {
    if config.queries == 0 {
        return Err(PrestoError::Execution("simulation needs at least one query".into()));
    }
    let widest = [TenantClass::Interactive, TenantClass::Dashboard, TenantClass::Batch]
        .into_iter()
        .map(TenantClass::slot_units)
        .max()
        .unwrap_or(1);
    if config.slots.max(1) < widest {
        return Err(PrestoError::Execution(format!(
            "slots ({}) must cover the widest grant ({widest} units) or wide queries never run",
            config.slots
        )));
    }
    let clock = SimClock::new();
    let cluster = build_cluster(config, &clock)?;
    let zipf = ZipfSampler::new(config.tenants, config.zipf_exponent);
    let metrics = CounterSet::new();
    let histograms = HistogramSet::new();

    // Elastic lifecycle: spot capacity, scheduled drains, the autoscaler.
    let scaler = config
        .elastic
        .as_ref()
        .and_then(|plan| plan.autoscaler.clone().map(|cfg| Autoscaler::new(cluster.clone(), cfg)));
    let mut decommissions: Vec<u64> =
        config.elastic.as_ref().map(|p| p.decommission_at_us.clone()).unwrap_or_default();
    decommissions.sort_unstable();
    let mut next_decommission = 0usize;
    if let Some(plan) = &config.elastic {
        if plan.spot_workers > 0 {
            cluster.expand_class(plan.spot_workers, SPOT_CLASS);
        }
    }
    // The storm-recovery target is the fleet as provisioned, captured
    // before any lifecycle event can fire.
    let pre_storm_target = active_fleet(&cluster);
    let mut peak_workers = pre_storm_target;
    let mut recovered_at_us: Option<u64> = None;
    let mut scale_actions: Vec<(u64, i64)> = Vec::new();

    let mut queue = match config.mode {
        SchedulerMode::Wfq => Queue::Wfq(WfqScheduler::new()),
        SchedulerMode::Fifo => Queue::Fifo(FifoQueue::new()),
    };
    let mut heap: BinaryHeap<Reverse<(u64, u64, Event)>> = BinaryHeap::new();
    let mut heap_seq = 0u64;
    let push_event =
        |heap: &mut BinaryHeap<Reverse<(u64, u64, Event)>>, seq: &mut u64, at: u64, ev: Event| {
            *seq += 1;
            heap.push(Reverse((at, *seq, ev)));
        };

    let mut meta: Vec<QueryMeta> = Vec::with_capacity(config.queries as usize);
    let mut dispatched_at: Vec<u64> = vec![0; config.queries as usize];
    let mut free_units = config.slots.max(1);
    // in-flight queries, keyed (completion time, query) → slot-units held;
    // the backfill horizon walks this in completion order
    let mut running: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    // measured service time per template — service is a pure function of
    // the SQL here, so after one run of a template the estimate is exact
    let mut service_est: BTreeMap<&'static str, u64> = BTreeMap::new();
    // a wide query whose grant is wider than the free capacity, and when
    // it was reserved: freed units accrue to it instead of being raided
    // by fresh narrow arrivals
    let mut reserved: Option<(u64, u64)> = None;

    let mut latency_us = Histogram::new();
    let mut queue_wait_us = Histogram::new();
    let mut class_latency: BTreeMap<&'static str, Histogram> = BTreeMap::new();
    let mut tenant_latency: BTreeMap<u32, Histogram> = BTreeMap::new();
    let mut digest = 0u64;
    let mut trace_digest = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;

    // waves a template needs at this worker count → WFQ cost estimate
    let workers = config.workers.max(1) as usize;
    let cost_of = |pages: usize| (pages.div_ceil(workers) as u64) * WAVE_COST_US;

    let first_gap = config.arrival.gap_us(config.seed, 0, 0) as u64;
    push_event(&mut heap, &mut heap_seq, first_gap, Event::Arrive(0));
    if config.elastic.is_some() {
        push_event(&mut heap, &mut heap_seq, TICK_EVERY_US, Event::Tick);
    }

    while let Some(Reverse((at, _seq, event))) = heap.pop() {
        let now_us = clock.now().as_micros() as u64;
        if at > now_us {
            clock.advance_micros(at - now_us);
        }
        let now_us = clock.now().as_micros() as u64;

        match event {
            Event::Arrive(idx) => {
                metrics.incr(names::SIM_ARRIVALS);
                let tenant = zipf.tenant_for(config.seed, idx);
                let class = tenant_class(tenant, config.tenants);
                let template = pick_template(config.seed, idx, class);
                let cost_us = cost_of(template.pages);
                meta.push(QueryMeta {
                    arrival_us: now_us,
                    tenant,
                    class,
                    units: class.slot_units(),
                    cost_us,
                    sql: template.sql,
                });
                let weight = tenant_weight(tenant, config.zipf_exponent, class);
                queue.push(tenant, weight, class, cost_us, idx);
                if idx + 1 < config.queries {
                    let gap = config.arrival.gap_us(config.seed, idx + 1, now_us) as u64;
                    push_event(&mut heap, &mut heap_seq, now_us + gap, Event::Arrive(idx + 1));
                }
            }
            Event::Complete(idx) => {
                free_units += meta[idx as usize].units;
                running.remove(&(now_us, idx));
                let m = &meta[idx as usize];
                let latency = now_us.saturating_sub(m.arrival_us);
                latency_us.record(latency);
                histograms.record(names::HIST_SIM_LATENCY_US, latency);
                class_latency.entry(m.class.name()).or_default().record(latency);
                tenant_latency.entry(m.tenant).or_default().record(latency);
                digest = mix64(digest ^ mix64(idx) ^ mix64(u64::from(m.tenant)) ^ mix64(latency));
                completed += 1;
                metrics.incr(names::SIM_COMPLETED);
            }
            Event::Tick => {
                // `config.elastic` is always Some here — ticks are only
                // ever scheduled under a plan.
                if let Some(plan) = &config.elastic {
                    // advance drain phases, reap terminated workers, fire
                    // any revocation that came due on the master timeline
                    cluster.tick();
                    // scheduled graceful scale-downs: drain the coldest
                    // active worker at each planned instant
                    while next_decommission < decommissions.len()
                        && decommissions[next_decommission] <= now_us
                    {
                        next_decommission += 1;
                        if let Some(victim) = coldest_worker(&cluster) {
                            let _ = cluster.decommission_worker(victim);
                        }
                    }
                    if let Some(scaler) = &scaler {
                        match scaler.evaluate(queue.len()) {
                            ScaleDecision::Out { added } => {
                                scale_actions.push((now_us, i64::from(added)));
                            }
                            ScaleDecision::In { .. } => scale_actions.push((now_us, -1)),
                            ScaleDecision::Hold => {}
                        }
                    }
                    let active = active_fleet(&cluster);
                    peak_workers = peak_workers.max(active);
                    if let Some(storm) = plan.revoke_spot_at_us {
                        if recovered_at_us.is_none()
                            && now_us >= storm
                            && cluster.metrics().get(names::CLUSTER_WORKERS_REVOKED) > 0
                            && active >= pre_storm_target
                        {
                            recovered_at_us = Some(now_us);
                        }
                    }
                    if completed + failed < config.queries {
                        push_event(&mut heap, &mut heap_seq, now_us + TICK_EVERY_US, Event::Tick);
                    }
                }
            }
        }

        // dispatch: fill the free slot-units from the queue discipline
        loop {
            let avail = free_units;
            if avail == 0 {
                break;
            }
            let next = match &mut queue {
                // The naive baseline: strict arrival order. The oldest
                // query dispatches only when its grant fits; nothing may
                // jump the head, so a wide head idles the free capacity
                // behind it — the head-of-line blocking that motivated
                // replacing the naive admission queue.
                Queue::Fifo(q) => q.pop_if(|cand| meta[cand.item as usize].units <= avail),
                // WFQ with a standing reservation: the virtual-time head
                // dispatches when its grant fits; when it does not, freed
                // units accrue to it instead of being raided by fresh
                // narrow arrivals.
                Queue::Wfq(q) => {
                    if let Some((r, reserved_at)) = reserved {
                        if meta[r as usize].units <= avail {
                            reserved = None;
                            q.pop_first_fit(|cand| cand.item == r)
                        } else {
                            // The reserved grant is still wider than the
                            // free capacity. Walk the in-flight
                            // completions to the earliest instant it
                            // could be satisfied, then backfill only
                            // queries estimated to finish before that
                            // horizon — they borrow units the wide query
                            // cannot use yet, without delaying it. The
                            // patience window keeps narrow traffic
                            // flowing while the grant assembles: early in
                            // the reservation anything short enough to
                            // finish inside the window may borrow, and as
                            // the deadline nears, borrowing dries up and
                            // the freed units accumulate.
                            let mut acc = avail;
                            let mut horizon = None;
                            for (&(end_us, _), &units) in &running {
                                acc += units;
                                if acc >= meta[r as usize].units {
                                    horizon = Some(end_us);
                                    break;
                                }
                            }
                            let Some(horizon) = horizon else { break };
                            let bound = horizon.max(reserved_at + RESERVE_PATIENCE_US);
                            q.pop_first_fit(|cand| {
                                let c = &meta[cand.item as usize];
                                let est = service_est.get(c.sql).copied().unwrap_or(c.cost_us * 3);
                                cand.item != r && c.units <= avail && now_us + est <= bound
                            })
                        }
                    } else if let Some(blocked) =
                        q.peek_first_unfit(|cand| meta[cand.item as usize].units <= avail)
                    {
                        // The earliest-tag query whose grant is wider than
                        // the free capacity — not necessarily the global
                        // head: under strict lane priority, narrow urgent
                        // queries would otherwise raid every freed unit and
                        // a wide query one lane down would never see its
                        // grant accumulate.
                        reserved = Some((blocked.item, now_us));
                        continue;
                    } else {
                        // everything queued fits: dispatch in virtual-time
                        // order
                        q.pop()
                    }
                }
            };
            let Some(next) = next else { break };
            let idx = next.item;
            let m = &meta[idx as usize];
            let wait = now_us.saturating_sub(m.arrival_us);
            queue_wait_us.record(wait);
            histograms.record(names::HIST_SIM_QUEUE_WAIT_US, wait);
            dispatched_at[idx as usize] = now_us;
            let session = Session::new("memory", "default").with_priority(m.class.lane());
            // the query's own timeline: a fork of the master clock
            let fork = clock.fork();
            match cluster.execute_clocked(m.sql, &session, &fork) {
                Ok(result) => {
                    free_units -= m.units;
                    trace_digest = mix64(trace_digest ^ result.info.trace.digest());
                    let service_us = (result.info.latency.as_micros() as u64).max(1);
                    running.insert((now_us + service_us, idx), m.units);
                    service_est.insert(m.sql, service_us);
                    push_event(&mut heap, &mut heap_seq, now_us + service_us, Event::Complete(idx));
                }
                Err(_) => {
                    // no fault sources are enabled, but a failure must not
                    // wedge the loop: count it and release the query
                    failed += 1;
                    metrics.incr(names::SIM_FAILED);
                    digest = mix64(digest ^ mix64(idx) ^ 0xbad);
                }
            }
        }
    }

    let makespan_us = clock.now().as_micros() as u64;
    let mut tenants = Vec::with_capacity(tenant_latency.len());
    let mut worst_p99_us = 0u64;
    let mut worst_tenant = 0u32;
    let mut slo_violations = 0u64;
    for (&tenant, hist) in &tenant_latency {
        let class = tenant_class(tenant, config.tenants);
        let p99 = hist.quantile(0.99);
        let target = config.slos.p99_target(class);
        let within = p99 <= target;
        if !within {
            slo_violations += 1;
        }
        if p99 > worst_p99_us {
            worst_p99_us = p99;
            worst_tenant = tenant;
        }
        tenants.push(TenantReport {
            tenant,
            class,
            queries: hist.count(),
            p50_us: hist.quantile(0.5),
            p99_us: p99,
            slo_p99_us: target,
            within_slo: within,
        });
    }

    let elastic = config.elastic.as_ref().map(|plan| ElasticReport {
        scale_outs: cluster.metrics().get(names::CLUSTER_SCALE_OUTS),
        workers_added: cluster.metrics().get(names::CLUSTER_SCALE_OUT_WORKERS),
        scale_ins: cluster.metrics().get(names::CLUSTER_SCALE_INS),
        workers_decommissioned: cluster.metrics().get(names::CLUSTER_WORKERS_DECOMMISSIONED),
        workers_revoked: cluster.metrics().get(names::CLUSTER_WORKERS_REVOKED),
        splits_handed_off: cluster.metrics().get(names::CLUSTER_SPLITS_HANDED_OFF),
        cache_entries_migrated: cluster.metrics().get(names::CLUSTER_CACHE_ENTRIES_MIGRATED),
        storm_at_us: plan.revoke_spot_at_us,
        recovered_at_us,
        recovery_bound_us: plan.recovery_bound_us,
        peak_workers,
        final_workers: active_fleet(&cluster),
        actions: scale_actions,
    });

    Ok(SimReport {
        mode: config.mode,
        arrivals: metrics.get(names::SIM_ARRIVALS),
        completed,
        failed,
        makespan_us,
        digest,
        trace_digest,
        latency_us,
        queue_wait_us,
        class_latency_us: class_latency,
        tenant_latency_us: tenant_latency,
        tenants,
        worst_p99_us,
        worst_tenant,
        slo_violations,
        metrics,
        histograms,
        elastic,
        telemetry_digest: cluster.telemetry().digest(),
        cache_digest: cluster.cache_digest(),
        telemetry_snapshots: cluster.telemetry().snapshots(),
        telemetry_series: cluster.telemetry().series().snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(mode: SchedulerMode) -> SimConfig {
        SimConfig {
            seed: 11,
            tenants: 60,
            queries: 600,
            zipf_exponent: 1.0,
            arrival: ArrivalProcess::Diurnal {
                mean_interarrival_us: 100.0,
                amplitude: 0.6,
                cycle_us: 20_000,
            },
            workers: 4,
            slots: 6,
            mode,
            slos: SloPolicy::default(),
            elastic: None,
        }
    }

    #[test]
    fn simulation_completes_every_query() {
        let report = run_simulation(&small_config(SchedulerMode::Wfq)).unwrap();
        assert_eq!(report.arrivals, 600);
        assert_eq!(report.completed, 600);
        assert_eq!(report.failed, 0);
        assert!(report.makespan_us > 0);
        assert_eq!(report.latency_us.count(), 600);
        assert_eq!(report.queue_wait_us.count(), 600);
        // every class appears
        assert_eq!(report.class_latency_us.len(), 3);
        let total: u64 = report.tenants.iter().map(|t| t.queries).sum();
        assert_eq!(total, 600);
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let a = run_simulation(&small_config(SchedulerMode::Wfq)).unwrap();
        let b = run_simulation(&small_config(SchedulerMode::Wfq)).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.tenant_latency_us, b.tenant_latency_us);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_simulation(&small_config(SchedulerMode::Wfq)).unwrap();
        let mut config = small_config(SchedulerMode::Wfq);
        config.seed = 12;
        let b = run_simulation(&config).unwrap();
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn wfq_and_fifo_see_the_same_workload() {
        let wfq = run_simulation(&small_config(SchedulerMode::Wfq)).unwrap();
        let fifo = run_simulation(&small_config(SchedulerMode::Fifo)).unwrap();
        assert_eq!(wfq.arrivals, fifo.arrivals);
        assert_eq!(wfq.completed, fifo.completed);
        // same queries, different order → different latency digests
        assert_ne!(wfq.digest, fifo.digest);
    }

    fn elastic_config(plan: ElasticPlan) -> SimConfig {
        SimConfig {
            seed: 23,
            tenants: 30,
            queries: 400,
            zipf_exponent: 0.8,
            arrival: ArrivalProcess::Diurnal {
                mean_interarrival_us: 120.0,
                amplitude: 0.5,
                cycle_us: 20_000,
            },
            workers: 4,
            slots: 6,
            mode: SchedulerMode::Wfq,
            slos: SloPolicy::default(),
            elastic: Some(plan),
        }
    }

    fn storm_plan() -> ElasticPlan {
        ElasticPlan {
            autoscaler: Some(AutoscalerConfig {
                max_workers: 16,
                high_water_depth: 2,
                scale_in_after: Duration::from_millis(200),
                cooldown: Duration::from_micros(1_000),
                ..AutoscalerConfig::default()
            }),
            spot_workers: 4,
            revoke_spot_at_us: Some(8_000),
            recovery_bound_us: 2_000_000,
            ..ElasticPlan::default()
        }
    }

    #[test]
    fn graceful_decommission_mid_run_fails_nothing() {
        let report = run_simulation(&elastic_config(ElasticPlan {
            decommission_at_us: vec![5_000, 12_000],
            ..ElasticPlan::default()
        }))
        .unwrap();
        assert_eq!(report.failed, 0, "graceful drains must not fail queries");
        assert_eq!(report.completed, 400);
        let e = report.elastic.unwrap();
        assert_eq!(e.workers_decommissioned, 2, "both drains ran to the reaper");
        assert_eq!(e.final_workers, 2);
    }

    #[test]
    fn spot_storm_recovers_within_bound_with_zero_failures() {
        let report = run_simulation(&elastic_config(storm_plan())).unwrap();
        assert_eq!(report.failed, 0, "survivors plus retries must absorb the storm");
        assert_eq!(report.completed, 400);
        let e = report.elastic.unwrap();
        assert_eq!(e.workers_revoked, 4, "the whole spot class went down");
        assert!(e.scale_outs > 0, "the autoscaler must backfill");
        assert!(
            e.recovered_at_us.is_some() && e.recovered_within_bound(),
            "capacity must return to the pre-storm level within the budget: {e:?}"
        );
    }

    #[test]
    fn elastic_runs_are_deterministic() {
        let a = run_simulation(&elastic_config(storm_plan())).unwrap();
        let b = run_simulation(&elastic_config(storm_plan())).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.elastic, b.elastic);
        assert_eq!(a.cache_digest, b.cache_digest, "storms must tear caches down identically");
    }

    #[test]
    fn wfq_protects_the_interactive_lane_under_the_rush() {
        let wfq = run_simulation(&small_config(SchedulerMode::Wfq)).unwrap();
        let fifo = run_simulation(&small_config(SchedulerMode::Fifo)).unwrap();
        let wfq_p99 = wfq.class_latency_us["interactive"].quantile(0.99);
        let fifo_p99 = fifo.class_latency_us["interactive"].quantile(0.99);
        assert!(
            wfq_p99 < fifo_p99,
            "interactive p99 under wfq ({wfq_p99}µs) should beat fifo ({fifo_p99}µs)"
        );
    }
}
