//! The scan scheduler: one scan fragment's splits placed on workers (ring
//! owner under §VII affinity, else round-robin) and run as a serial
//! discrete-event simulation with retries (§XII) and speculation.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use presto_cache::fragment::{fingerprint, FragmentKey, FragmentResultCache};
use presto_common::metrics::{names, Histogram};
use presto_common::telemetry::TaskRow;
use presto_common::trace::{SpanId, SpanKind, Trace};
use presto_common::HashRing;
use presto_common::{FaultDecision, Page, PrestoError, Result, SimClock};
use presto_connectors::{Connector, ConnectorSplit, ScanHooks, ScanRequest, SplitPayload};
use presto_plan::PlanFragment;
use presto_resource::QueryPriority;

use super::{PrestoCluster, RETRY_BACKOFF_BASE};
use crate::worker::{Worker, WorkerLifecycle, WorkerState};

/// Fixed virtual cost of one scan task (queueing, setup, page handoff).
const SCAN_TASK_BASE: Duration = Duration::from_micros(100);

/// Virtual per-row scan cost in nanoseconds.
const SCAN_ROW_NANOS: u64 = 100;

/// Sibling-runtime quantile a running attempt must *strictly* exceed to be
/// judged a straggler.
const SPECULATION_QUANTILE: f64 = 0.99;

/// Completed siblings required before stragglers can be judged (small
/// fragments have no statistics worth trusting).
const SPECULATION_MIN_COMPLETED: u64 = 3;

impl PrestoCluster {
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
    /// cache, like any worker-side memory, and starts an empty one with its
    /// next task.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_scan_fragment(
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
        // `SPECULATION_MIN_COMPLETED`) can still judge its very first
        // straggler. The seed is that many copies of the *median*
        // historical runtime, not the raw histogram: a straggler that
        // completed last run would otherwise drag the p99 yardstick up to
        // its own runtime and grant every future straggler amnesty.
        let mut sibling_us = Histogram::new();
        if self.config.speculation {
            if let Some(history) = self.runtime_history.read().get(&plan_fingerprint) {
                if history.count() > 0 {
                    let typical = history.quantile(0.5);
                    for _ in 0..SPECULATION_MIN_COMPLETED {
                        sibling_us.record(typical);
                    }
                }
            }
        }
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
        // snapshot. The affinity path builds one ring for the whole
        // fragment — the same default ring `migrate_caches` builds over a
        // drain's survivors, so migrated fragment-cache entries land where
        // the next split will be sent.
        let ring = self
            .cluster
            .config
            .affinity_scheduling
            .then(|| HashRing::with_workers_default(self.workers.iter().map(|w| w.id)));
        for i in 0..self.splits.len() {
            let w = match &ring {
                // `workers` was checked non-empty by the caller; fall back
                // to round-robin rather than panicking if that ever breaks.
                Some(ring) => self.place_split(ring, i).unwrap_or(i % self.workers.len()),
                None => i % self.workers.len(),
            };
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
                let cache = cluster.fragment_cache(worker.id);
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

    /// Straggler detection: once `SPECULATION_MIN_COMPLETED` siblings have
    /// finished, any sole live non-speculative attempt whose elapsed
    /// virtual time *strictly* exceeds `SPECULATION_QUANTILE` of completed
    /// sibling runtimes gets one duplicate on a different idle eligible
    /// worker. Every launch is recorded as a `Speculate` span and counted.
    fn check_stragglers(&mut self, now: Duration) {
        if !self.cluster.config.speculation
            || self.done == self.splits.len()
            || self.sibling_us.count() < SPECULATION_MIN_COMPLETED
        {
            return;
        }
        let threshold_us = self.sibling_us.quantile(SPECULATION_QUANTILE);
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

    /// Affinity placement: split `i` goes to the worker that owns its
    /// [`split_identity`] on the ring.
    fn place_split(&self, ring: &HashRing, i: usize) -> Option<usize> {
        let owner = ring.owner(&split_identity(&self.splits[i].payload))?;
        self.workers.iter().position(|w| w.id == owner)
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
pub(super) fn ring_identity(cache_identity: &str) -> &str {
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
    use super::super::tests::cluster;
    use super::*;
    use crate::ClusterConfig;
    use presto_common::{SimClock, Value};
    use presto_core::{PrestoEngine, Session};

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
}
