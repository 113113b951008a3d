//! Worker nodes, the graceful-shutdown state machine (§IX), and the
//! *impolite* failure modes the fleet must survive (§XII).
//!
//! "Upon receiving the command, presto worker will enter SHUTTING_DOWN
//! state: sleep for shutdown.grace-period, which defaults to 2 minutes.
//! After this, the coordinator is aware of the shutdown and stops sending
//! tasks to the worker. The worker will block until all active tasks are
//! complete. The worker will sleep for the grace period again in order to
//! ensure the coordinator sees all tasks are complete. Finally, the presto
//! worker will shut down."
//!
//! Unlike the polite drain, [`Worker::crash`] models abrupt node loss: no
//! grace period, in-flight tasks are gone, and `begin_task` surfaces
//! [`PrestoError::WorkerFailed`] so the coordinator can reassign the lost
//! splits. A flaky-but-alive host is quarantined through the
//! consecutive-failure blacklist ([`Worker::record_task_failure`]), and
//! re-admitted through a **probation** half-open state: after the
//! quarantine window the worker may serve only low-priority splits for a
//! probation window; one more failure there re-quarantines it immediately,
//! while surviving the window restores full health.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use presto_common::sync::{Mutex, Rank};
use presto_common::{PrestoError, Result, SimClock};
use presto_resource::QueryPriority;

/// Default `shutdown.grace-period` (the paper's 2 minutes).
pub const DEFAULT_GRACE_PERIOD: Duration = Duration::from_secs(120);

/// How long a worker stays quarantined after the blacklist trips.
pub const DEFAULT_QUARANTINE_PERIOD: Duration = Duration::from_secs(300);

/// The probation (half-open) window after quarantine expires, or after a
/// revoked worker rejoins.
pub const DEFAULT_PROBATION_WINDOW: Duration = Duration::from_secs(60);

/// Default worker class — stable on-demand capacity, never revoked.
pub const DEFAULT_WORKER_CLASS: &str = "ondemand";

/// The coarse elastic lifecycle, the view the autoscaler and the
/// decommission machinery reason about. It collapses the fine-grained §IX
/// shutdown phases: `Active → Draining → Decommissioned` is the polite
/// path, `Revoked` is abrupt loss (crash or spot revocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerLifecycle {
    /// In the fleet, eligible for new splits.
    Active,
    /// Leaving politely: accepts no new splits, finishes or hands off its
    /// queued work (any `ShuttingDown*` state).
    Draining,
    /// Left the fleet as a planned departure.
    Decommissioned,
    /// Lost abruptly — crash or spot revocation. In-flight work is gone;
    /// rejoining the fleet goes through probation, never straight to
    /// full health.
    Revoked,
}

/// Blacklist circuit-breaker health, orthogonal to [`WorkerState`] (a
/// quarantined worker still reports `Active` — it is alive, just untrusted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Fully trusted.
    Healthy,
    /// Blacklisted: accepts nothing until `until` (virtual time).
    Quarantined {
        /// Virtual time the quarantine lifts into probation.
        until: Duration,
    },
    /// Half-open: serves only low-priority splits until `until`; a single
    /// failure here re-quarantines, surviving the window restores health.
    Probation {
        /// Virtual time full health returns.
        until: Duration,
    },
}

/// Worker lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Accepting tasks.
    Active,
    /// Draining: sleeping the first grace period (coordinator may not have
    /// noticed yet).
    ShuttingDownGrace1,
    /// Draining: grace elapsed, waiting for active tasks to finish.
    ShuttingDownDraining,
    /// Tasks done: sleeping the second grace period so the coordinator sees
    /// completion.
    ShuttingDownGrace2,
    /// Gone.
    Terminated,
    /// Abrupt death (kernel panic, OOM-kill, injected fault): no grace
    /// period, in-flight tasks lost. A crashed worker stays visible to the
    /// operator (unlike [`WorkerState::Terminated`], it is never reaped as
    /// a *planned* departure) but accepts no tasks.
    Crashed,
}

struct WorkerInner {
    state: WorkerState,
    /// Virtual time the current shutdown phase started.
    phase_started: Duration,
}

/// One worker node.
pub struct Worker {
    /// Worker id within its cluster.
    pub id: u32,
    inner: Mutex<WorkerInner>,
    active_tasks: AtomicUsize,
    completed_tasks: AtomicUsize,
    /// Cumulative virtual µs this worker spent running tasks — the raw
    /// series behind the telemetry busy-fraction samples (each snapshot
    /// takes the delta since the previous one).
    busy_us: AtomicU64,
    consecutive_failures: AtomicU32,
    health: Mutex<WorkerHealth>,
    clock: SimClock,
    grace_period: Duration,
    /// Capacity class (e.g. `"ondemand"`, `"spot"`) — the unit a
    /// revocation storm targets.
    class: String,
}

impl Worker {
    /// New active worker of capacity class `class` (e.g.
    /// [`DEFAULT_WORKER_CLASS`], `"spot"`) on a shared virtual clock.
    /// Quarantine and probation last [`DEFAULT_QUARANTINE_PERIOD`] and
    /// [`DEFAULT_PROBATION_WINDOW`].
    pub fn new(id: u32, clock: SimClock, grace_period: Duration, class: &str) -> Arc<Worker> {
        Arc::new(Worker {
            id,
            inner: Mutex::new(
                Rank::WorkerInner,
                WorkerInner { state: WorkerState::Active, phase_started: clock.now() },
            ),
            active_tasks: AtomicUsize::new(0),
            completed_tasks: AtomicUsize::new(0),
            busy_us: AtomicU64::new(0),
            consecutive_failures: AtomicU32::new(0),
            health: Mutex::new(Rank::WorkerHealth, WorkerHealth::Healthy),
            clock,
            grace_period,
            class: class.to_string(),
        })
    }

    /// Current state.
    pub fn state(&self) -> WorkerState {
        self.inner.lock().state
    }

    /// The coarse elastic lifecycle view of [`Worker::state`].
    pub fn lifecycle(&self) -> WorkerLifecycle {
        match self.state() {
            WorkerState::Active => WorkerLifecycle::Active,
            WorkerState::ShuttingDownGrace1
            | WorkerState::ShuttingDownDraining
            | WorkerState::ShuttingDownGrace2 => WorkerLifecycle::Draining,
            WorkerState::Terminated => WorkerLifecycle::Decommissioned,
            WorkerState::Crashed => WorkerLifecycle::Revoked,
        }
    }

    /// Capacity class (e.g. `"ondemand"`, `"spot"`).
    pub fn class(&self) -> &str {
        &self.class
    }

    /// Tasks currently running.
    pub fn active_tasks(&self) -> usize {
        self.active_tasks.load(Ordering::Relaxed)
    }

    /// Tasks completed over the worker's lifetime.
    pub fn completed_tasks(&self) -> usize {
        self.completed_tasks.load(Ordering::Relaxed)
    }

    /// Account `us` virtual µs of task runtime to this worker.
    pub fn add_busy_micros(&self, us: u64) {
        self.busy_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Cumulative virtual µs spent running tasks.
    pub fn busy_micros(&self) -> u64 {
        self.busy_us.load(Ordering::Relaxed)
    }

    /// Can the scheduler assign new tasks here? Only ACTIVE workers accept
    /// ("the coordinator ... stops sending tasks to the worker"), and a
    /// blacklisted worker is quarantined even while it reports ACTIVE.
    /// Equivalent to [`Worker::accepts_tasks_for`] at normal priority.
    pub fn accepts_tasks(&self) -> bool {
        self.accepts_tasks_for(QueryPriority::Normal)
    }

    /// Priority-aware acceptance: a worker on probation is half-open and
    /// serves only [`QueryPriority::Low`] splits, so a still-sick node can
    /// never absorb a hot query's work on re-admission.
    pub fn accepts_tasks_for(&self, priority: QueryPriority) -> bool {
        if self.state() != WorkerState::Active {
            return false;
        }
        match self.health() {
            WorkerHealth::Healthy => true,
            WorkerHealth::Quarantined { .. } => false,
            WorkerHealth::Probation { .. } => priority == QueryPriority::Low,
        }
    }

    /// Abrupt node death: the state machine jumps straight to
    /// [`WorkerState::Crashed`] with no grace period. In-flight tasks are
    /// lost — their results must not be trusted, and new `begin_task`
    /// calls surface [`PrestoError::WorkerFailed`].
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        if inner.state != WorkerState::Terminated {
            inner.state = WorkerState::Crashed;
            inner.phase_started = self.clock.now();
        }
    }

    /// Consecutive-failure bookkeeping for the blacklist: one more task on
    /// this worker failed. Crossing `blacklist_after` consecutive failures
    /// (0 = never) quarantines the worker, and *any* failure while on
    /// probation re-quarantines it immediately (the half-open circuit
    /// re-opens on the first sign of sickness). Returns `true` exactly when
    /// this call newly quarantined it, so the caller can count the event.
    pub fn record_task_failure(&self, blacklist_after: u32) -> bool {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if blacklist_after == 0 {
            return false;
        }
        match self.health() {
            WorkerHealth::Probation { .. } => {
                self.quarantine();
                true
            }
            WorkerHealth::Healthy if failures >= blacklist_after => {
                self.quarantine();
                true
            }
            _ => false,
        }
    }

    fn quarantine(&self) {
        *self.health.lock() =
            WorkerHealth::Quarantined { until: self.clock.now() + DEFAULT_QUARANTINE_PERIOD };
    }

    /// A task completed successfully: the failure streak resets (the
    /// blacklist targets *consecutive* failures, not a lifetime tally).
    pub fn record_task_success(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
    }

    /// Consecutive task failures so far.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures.load(Ordering::SeqCst)
    }

    /// Is the worker quarantined by the consecutive-failure blacklist?
    /// A worker on probation is *not* blacklisted — it is half-open.
    pub fn is_blacklisted(&self) -> bool {
        matches!(self.health(), WorkerHealth::Quarantined { .. })
    }

    /// Current blacklist health, lazily promoted against the virtual clock:
    /// an expired quarantine becomes probation, an expired probation becomes
    /// full health. Promotion is lazy because nothing else in the simulation
    /// runs between events — the state is whatever the clock says it is.
    pub fn health(&self) -> WorkerHealth {
        let mut health = self.health.lock();
        loop {
            let now = self.clock.now();
            let next = match *health {
                WorkerHealth::Quarantined { until } if now >= until => {
                    WorkerHealth::Probation { until: until + DEFAULT_PROBATION_WINDOW }
                }
                WorkerHealth::Probation { until } if now >= until => WorkerHealth::Healthy,
                stable => return stable,
            };
            *health = next;
        }
    }

    /// Begin a task. Errors if the worker is not accepting.
    pub fn begin_task(&self) -> Result<TaskGuard<'_>> {
        // The task count must rise while the state lock is held: otherwise a
        // concurrent tick() between the state check and the increment could
        // see zero active tasks and advance Draining → Grace2 with a task
        // about to run.
        let inner = self.inner.lock();
        // During the first grace period the coordinator may not know yet;
        // tasks assigned in that window are still accepted and drained —
        // that is the point of the grace period.
        match inner.state {
            WorkerState::Active | WorkerState::ShuttingDownGrace1 => {}
            WorkerState::Crashed => {
                // infrastructure fault — retryable, unlike the polite
                // refusals below which the scheduler should never hit
                return Err(PrestoError::WorkerFailed {
                    worker_id: self.id,
                    message: format!("worker {} crashed", self.id),
                });
            }
            other => {
                return Err(PrestoError::Execution(format!(
                    "worker {} is {:?}, cannot accept tasks",
                    self.id, other
                )))
            }
        }
        self.active_tasks.fetch_add(1, Ordering::SeqCst);
        drop(inner);
        Ok(TaskGuard { worker: self })
    }

    /// A revoked (crashed) worker comes back — the spot instance was
    /// re-granted or the host rebooted. It re-enters the fleet **on
    /// probation**, never at full health: in-flight work was lost when it
    /// died, so it serves only low-priority splits for the probation window
    /// and one failure there re-quarantines it. No-op unless the worker is
    /// currently [`WorkerState::Crashed`].
    pub fn rejoin(&self) {
        {
            let mut inner = self.inner.lock();
            if inner.state != WorkerState::Crashed {
                return;
            }
            inner.state = WorkerState::Active;
            inner.phase_started = self.clock.now();
        }
        self.consecutive_failures.store(0, Ordering::SeqCst);
        *self.health.lock() =
            WorkerHealth::Probation { until: self.clock.now() + DEFAULT_PROBATION_WINDOW };
    }

    /// Administrator command: begin graceful shutdown.
    pub fn request_shutdown(&self) {
        let mut inner = self.inner.lock();
        if inner.state == WorkerState::Active {
            inner.state = WorkerState::ShuttingDownGrace1;
            inner.phase_started = self.clock.now();
        }
    }

    /// Advance the shutdown state machine against the virtual clock.
    /// Transitions cascade within one tick when their conditions already
    /// hold (e.g. grace 1 elapsed *and* no tasks → straight to grace 2).
    /// Returns the (possibly new) state.
    pub fn tick(&self) -> WorkerState {
        let mut inner = self.inner.lock();
        loop {
            let now = self.clock.now();
            let elapsed = now.saturating_sub(inner.phase_started);
            let next = match inner.state {
                WorkerState::ShuttingDownGrace1 if elapsed >= self.grace_period => {
                    WorkerState::ShuttingDownDraining
                }
                WorkerState::ShuttingDownDraining
                    if self.active_tasks.load(Ordering::SeqCst) == 0 =>
                {
                    WorkerState::ShuttingDownGrace2
                }
                WorkerState::ShuttingDownGrace2 if elapsed >= self.grace_period => {
                    WorkerState::Terminated
                }
                stable => return stable,
            };
            inner.state = next;
            inner.phase_started = now;
        }
    }
}

/// RAII guard for a running task.
pub struct TaskGuard<'a> {
    worker: &'a Worker,
}

impl std::fmt::Debug for TaskGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskGuard").field("worker", &self.worker.id).finish()
    }
}

impl Drop for TaskGuard<'_> {
    fn drop(&mut self) {
        self.worker.active_tasks.fetch_sub(1, Ordering::SeqCst);
        self.worker.completed_tasks.fetch_add(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_walks_every_state() {
        let clock = SimClock::new();
        let grace = Duration::from_secs(120);
        let worker = Worker::new(1, clock.clone(), grace, DEFAULT_WORKER_CLASS);
        assert_eq!(worker.state(), WorkerState::Active);
        assert!(worker.accepts_tasks());

        // a task is running when shutdown is requested
        let task = worker.begin_task().unwrap();
        worker.request_shutdown();
        assert_eq!(worker.state(), WorkerState::ShuttingDownGrace1);
        assert!(!worker.accepts_tasks());

        // the first grace period must fully elapse
        clock.advance(grace / 2);
        assert_eq!(worker.tick(), WorkerState::ShuttingDownGrace1);
        clock.advance(grace / 2);
        assert_eq!(worker.tick(), WorkerState::ShuttingDownDraining);

        // cannot terminate while the task runs
        clock.advance(grace * 10);
        assert_eq!(worker.tick(), WorkerState::ShuttingDownDraining);
        drop(task);
        assert_eq!(worker.tick(), WorkerState::ShuttingDownGrace2);

        // second grace period
        assert_eq!(worker.tick(), WorkerState::ShuttingDownGrace2);
        clock.advance(grace);
        assert_eq!(worker.tick(), WorkerState::Terminated);
        assert_eq!(worker.completed_tasks(), 1);
        assert_eq!(worker.active_tasks(), 0);
    }

    #[test]
    fn grace1_still_accepts_straggler_tasks() {
        // §IX: during the first grace period the coordinator may not yet
        // know about the shutdown; tasks it sends must still be served.
        let clock = SimClock::new();
        let worker = Worker::new(1, clock.clone(), Duration::from_secs(10), DEFAULT_WORKER_CLASS);
        worker.request_shutdown();
        let task = worker.begin_task().unwrap();
        drop(task);
        clock.advance(Duration::from_secs(10));
        worker.tick();
        // after grace 1, new tasks are refused
        assert!(worker.begin_task().is_err());
    }

    #[test]
    fn crash_skips_every_grace_period() {
        let clock = SimClock::new();
        let worker = Worker::new(5, clock.clone(), Duration::from_secs(120), DEFAULT_WORKER_CLASS);
        let _task = worker.begin_task().unwrap();
        worker.crash();
        assert_eq!(worker.state(), WorkerState::Crashed);
        assert!(!worker.accepts_tasks());
        // no amount of ticking resurrects or terminates a crashed worker
        clock.advance(Duration::from_secs(600));
        assert_eq!(worker.tick(), WorkerState::Crashed);
        // new tasks surface the retryable infrastructure error
        let err = worker.begin_task().unwrap_err();
        assert_eq!(err.code(), "WORKER_FAILED");
        assert!(err.is_retryable());
    }

    #[test]
    fn lifecycle_collapses_the_shutdown_phases() {
        let clock = SimClock::new();
        let grace = Duration::from_secs(10);
        let worker = Worker::new(1, clock.clone(), grace, DEFAULT_WORKER_CLASS);
        assert_eq!(worker.lifecycle(), WorkerLifecycle::Active);
        assert_eq!(worker.class(), DEFAULT_WORKER_CLASS);
        worker.request_shutdown();
        assert_eq!(worker.lifecycle(), WorkerLifecycle::Draining);
        clock.advance(grace);
        worker.tick();
        assert_eq!(worker.lifecycle(), WorkerLifecycle::Draining); // grace 2
        clock.advance(grace);
        worker.tick();
        assert_eq!(worker.lifecycle(), WorkerLifecycle::Decommissioned);

        let lost = Worker::new(2, clock, grace, "spot");
        assert_eq!(lost.class(), "spot");
        lost.crash();
        assert_eq!(lost.lifecycle(), WorkerLifecycle::Revoked);
    }

    #[test]
    fn rejoin_enters_probation_not_full_health() {
        let clock = SimClock::new();
        let worker = Worker::new(3, clock.clone(), Duration::from_secs(1), DEFAULT_WORKER_CLASS);
        worker.crash();
        assert_eq!(worker.lifecycle(), WorkerLifecycle::Revoked);
        worker.rejoin();
        assert_eq!(worker.state(), WorkerState::Active);
        assert!(matches!(worker.health(), WorkerHealth::Probation { .. }));
        // half-open: low-priority work only
        assert!(!worker.accepts_tasks());
        assert!(worker.accepts_tasks_for(QueryPriority::Low));
        // surviving the window restores full health
        clock.advance(Duration::from_secs(60));
        assert_eq!(worker.health(), WorkerHealth::Healthy);
        assert!(worker.accepts_tasks());
    }

    #[test]
    fn rejoin_is_a_noop_for_live_or_terminated_workers() {
        let clock = SimClock::new();
        let worker = Worker::new(4, clock.clone(), Duration::from_secs(1), DEFAULT_WORKER_CLASS);
        worker.rejoin();
        assert_eq!(worker.health(), WorkerHealth::Healthy, "live worker untouched");
        worker.request_shutdown();
        clock.advance(Duration::from_secs(2));
        worker.tick();
        clock.advance(Duration::from_secs(2));
        worker.tick();
        assert_eq!(worker.state(), WorkerState::Terminated);
        worker.rejoin();
        assert_eq!(worker.state(), WorkerState::Terminated, "planned departures stay gone");
    }

    #[test]
    fn blacklist_trips_on_consecutive_failures_only() {
        let worker = Worker::new(2, SimClock::new(), Duration::from_secs(1), DEFAULT_WORKER_CLASS);
        assert!(!worker.record_task_failure(3));
        assert!(!worker.record_task_failure(3));
        worker.record_task_success(); // streak broken
        assert!(!worker.record_task_failure(3));
        assert!(!worker.record_task_failure(3));
        assert!(!worker.is_blacklisted());
        assert!(worker.record_task_failure(3), "third consecutive failure trips");
        assert!(worker.is_blacklisted());
        assert!(!worker.accepts_tasks());
        // the event fires once, even if failures keep coming
        assert!(!worker.record_task_failure(3));
    }

    #[test]
    fn blacklist_disabled_with_zero_threshold() {
        let worker = Worker::new(2, SimClock::new(), Duration::from_secs(1), DEFAULT_WORKER_CLASS);
        for _ in 0..50 {
            assert!(!worker.record_task_failure(0));
        }
        assert!(!worker.is_blacklisted());
    }

    #[test]
    fn quarantine_lifts_into_probation_then_full_health() {
        let clock = SimClock::new();
        let worker = Worker::new(7, clock.clone(), Duration::from_secs(1), DEFAULT_WORKER_CLASS);
        for _ in 0..3 {
            worker.record_task_failure(3);
        }
        assert!(worker.is_blacklisted());
        assert!(!worker.accepts_tasks_for(QueryPriority::Low));

        // quarantine expires → half-open: low-priority work only
        clock.advance(Duration::from_secs(300));
        assert!(matches!(worker.health(), WorkerHealth::Probation { .. }));
        assert!(!worker.is_blacklisted());
        assert!(!worker.accepts_tasks());
        assert!(!worker.accepts_tasks_for(QueryPriority::High));
        assert!(worker.accepts_tasks_for(QueryPriority::Low));

        // surviving the probation window restores full trust
        clock.advance(Duration::from_secs(60));
        assert_eq!(worker.health(), WorkerHealth::Healthy);
        assert!(worker.accepts_tasks());
    }

    #[test]
    fn failure_during_probation_requarantines_immediately() {
        let clock = SimClock::new();
        let worker = Worker::new(7, clock.clone(), Duration::from_secs(1), DEFAULT_WORKER_CLASS);
        for _ in 0..3 {
            worker.record_task_failure(3);
        }
        clock.advance(Duration::from_secs(300));
        assert!(matches!(worker.health(), WorkerHealth::Probation { .. }));
        // one failure is enough — no need to rebuild a streak of 3
        worker.record_task_success();
        assert!(worker.record_task_failure(3), "probation failure re-quarantines");
        assert!(worker.is_blacklisted());
        assert!(!worker.accepts_tasks_for(QueryPriority::Low));
    }
}
