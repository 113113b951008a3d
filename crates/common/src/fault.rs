//! Deterministic fault injection for chaos experiments.
//!
//! The paper's operational claims (§VIII gateway re-routing, §IX elasticity,
//! §XII lessons) are about *surviving* bad hosts and node loss, not just
//! about the happy path. To test that reproducibly, this module provides a
//! seeded [`FaultInjector`] the cluster consults at every task start through
//! a cheap [`Arc`] handle. Faults are declared up front as a [`FaultPlan`]
//! (crash worker W at virtual time T, fail the k-th task on worker W,
//! probabilistic task faults at rate p) and every decision is a pure
//! function of `(seed, worker, per-worker task sequence)` plus the virtual
//! [`SimClock`](crate::SimClock) — never the wall clock and never a shared
//! PRNG stream, so the same seed replays the same fault schedule no matter
//! how the host interleaves worker threads.
//!
//! Beyond task-start faults, the plan can also fire **mid-stream**: scan
//! hooks ([`FaultInjector::on_scan_page`]) stall or tear a connector's page
//! stream partway through a split, and exchange hooks
//! ([`FaultInjector::on_exchange_page`]) do the same to pages in transit
//! between fragments. Page-level decisions are stateless — pure in
//! `(seed, worker, task ordinal, page ordinal)` for scans and
//! `(seed, fragment, page ordinal, delivery attempt)` for exchanges — so
//! they replay identically without any shared bookkeeping.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sync::{Mutex, Rank};

/// One declared fault. Task sequence numbers are **1-based and
/// per-worker**: a worker's first task is sequence 1.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Crash worker `worker_id` at the first task it starts at or after
    /// virtual time `at` (fires once).
    CrashAt {
        /// Target worker.
        worker_id: u32,
        /// Virtual time threshold.
        at: Duration,
    },
    /// Crash worker `worker_id` when it starts its `task_seq`-th task.
    CrashOnTask {
        /// Target worker.
        worker_id: u32,
        /// 1-based task sequence number on that worker.
        task_seq: u64,
    },
    /// Transiently fail the `task_seq`-th task on worker `worker_id` (the
    /// worker survives — the flaky-host case).
    FailTask {
        /// Target worker.
        worker_id: u32,
        /// 1-based task sequence number on that worker.
        task_seq: u64,
    },
    /// Every task on every worker fails with probability `rate`, decided by
    /// a stateless hash of `(seed, worker, task sequence)` so the draw is
    /// reproducible under any thread interleaving.
    FailRate {
        /// Probability in `[0, 1]` that a task fails.
        rate: f64,
    },
    /// Stall the scan stream for `delay` of virtual time just before the
    /// `page_ordinal`-th page (1-based) of the `task_seq`-th task on worker
    /// `worker_id` — the slow-disk / hot-neighbour straggler case.
    StallScanPage {
        /// Target worker.
        worker_id: u32,
        /// 1-based task sequence number on that worker.
        task_seq: u64,
        /// 1-based page ordinal within the scan.
        page_ordinal: u64,
        /// Virtual-time stall to add to the scan.
        delay: Duration,
    },
    /// Tear the scan stream at the `page_ordinal`-th page of the
    /// `task_seq`-th task on worker `worker_id`: pages before the tear were
    /// produced, the rest of the split is lost mid-stream.
    TearScanPage {
        /// Target worker.
        worker_id: u32,
        /// 1-based task sequence number on that worker.
        task_seq: u64,
        /// 1-based page ordinal at which the stream tears.
        page_ordinal: u64,
    },
    /// Every scanned page stalls for `delay` with probability `rate`,
    /// decided by a stateless hash of `(seed, worker, task, page ordinal)`.
    ScanStallRate {
        /// Probability in `[0, 1]` that a page stalls.
        rate: f64,
        /// Virtual-time stall per hit.
        delay: Duration,
    },
    /// Every scanned page tears the stream with probability `rate`, decided
    /// by a stateless hash of `(seed, worker, task, page ordinal)`.
    ScanTearRate {
        /// Probability in `[0, 1]` that a page tears the stream.
        rate: f64,
    },
    /// Stall delivery of the `page_ordinal`-th page of fragment `fragment`'s
    /// exchange for `delay` of virtual time (fires on the first delivery
    /// attempt only, so a retried exchange proceeds at full speed).
    StallExchangePage {
        /// Producing fragment id.
        fragment: u32,
        /// 1-based page ordinal within the exchange.
        page_ordinal: u64,
        /// Virtual-time stall to add to delivery.
        delay: Duration,
    },
    /// Tear the exchange of fragment `fragment` at the `page_ordinal`-th
    /// page (first delivery attempt only — the retry succeeds).
    TearExchangePage {
        /// Producing fragment id.
        fragment: u32,
        /// 1-based page ordinal at which the exchange tears.
        page_ordinal: u64,
    },
    /// Every exchange page tears with probability `rate`, decided by a
    /// stateless hash of `(seed, fragment, page ordinal, delivery attempt)`
    /// — the attempt is in the draw so retries can succeed.
    ExchangeTearRate {
        /// Probability in `[0, 1]` that a page tears the exchange.
        rate: f64,
    },
    /// Revoke an entire worker class at virtual time `at` — the
    /// spot-instance storm. Unlike the task-start faults this spec is
    /// *polled*: the cluster calls [`FaultInjector::revocations_due`] as
    /// virtual time advances and abruptly loses every worker of the class
    /// the first time `now >= at` (fires once).
    RevokeClass {
        /// Worker class to revoke (e.g. `"spot"`).
        class: String,
        /// Virtual instant at which the class is lost.
        at: Duration,
    },
}

/// A declarative set of faults to inject, built up fluently:
///
/// ```
/// use std::time::Duration;
/// use presto_common::fault::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .crash_at(0, Duration::from_secs(5))
///     .fail_task(2, 1)
///     .fail_rate(0.05);
/// assert_eq!(plan.specs().len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// The declared faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Crash `worker_id` at the first task it starts at/after virtual `at`.
    pub fn crash_at(mut self, worker_id: u32, at: Duration) -> FaultPlan {
        self.specs.push(FaultSpec::CrashAt { worker_id, at });
        self
    }

    /// Crash `worker_id` when it starts its `task_seq`-th task (1-based).
    pub fn crash_on_task(mut self, worker_id: u32, task_seq: u64) -> FaultPlan {
        self.specs.push(FaultSpec::CrashOnTask { worker_id, task_seq });
        self
    }

    /// Transiently fail the `task_seq`-th task on `worker_id` (1-based).
    pub fn fail_task(mut self, worker_id: u32, task_seq: u64) -> FaultPlan {
        self.specs.push(FaultSpec::FailTask { worker_id, task_seq });
        self
    }

    /// Fail every task with probability `rate`.
    pub fn fail_rate(mut self, rate: f64) -> FaultPlan {
        self.specs.push(FaultSpec::FailRate { rate });
        self
    }

    /// Stall the given scan page (1-based task and page ordinals) by `delay`.
    pub fn stall_scan_page(
        mut self,
        worker_id: u32,
        task_seq: u64,
        page_ordinal: u64,
        delay: Duration,
    ) -> FaultPlan {
        self.specs.push(FaultSpec::StallScanPage { worker_id, task_seq, page_ordinal, delay });
        self
    }

    /// Tear the scan stream at the given page (1-based ordinals).
    pub fn tear_scan_page(mut self, worker_id: u32, task_seq: u64, page_ordinal: u64) -> FaultPlan {
        self.specs.push(FaultSpec::TearScanPage { worker_id, task_seq, page_ordinal });
        self
    }

    /// Stall every scanned page by `delay` with probability `rate`.
    pub fn scan_stall_rate(mut self, rate: f64, delay: Duration) -> FaultPlan {
        self.specs.push(FaultSpec::ScanStallRate { rate, delay });
        self
    }

    /// Tear the scan stream at any page with probability `rate`.
    pub fn scan_tear_rate(mut self, rate: f64) -> FaultPlan {
        self.specs.push(FaultSpec::ScanTearRate { rate });
        self
    }

    /// Stall delivery of the given exchange page by `delay` (first attempt).
    pub fn stall_exchange_page(
        mut self,
        fragment: u32,
        page_ordinal: u64,
        delay: Duration,
    ) -> FaultPlan {
        self.specs.push(FaultSpec::StallExchangePage { fragment, page_ordinal, delay });
        self
    }

    /// Tear the given exchange at the given page (first attempt only).
    pub fn tear_exchange_page(mut self, fragment: u32, page_ordinal: u64) -> FaultPlan {
        self.specs.push(FaultSpec::TearExchangePage { fragment, page_ordinal });
        self
    }

    /// Tear any exchange page with probability `rate` (attempt-aware draw).
    pub fn exchange_tear_rate(mut self, rate: f64) -> FaultPlan {
        self.specs.push(FaultSpec::ExchangeTearRate { rate });
        self
    }

    /// Revoke every worker of `class` at virtual time `at` (fires once).
    pub fn revoke_class(mut self, class: &str, at: Duration) -> FaultPlan {
        self.specs.push(FaultSpec::RevokeClass { class: class.to_string(), at });
        self
    }

    /// Does the plan declare any [`FaultSpec::RevokeClass`] spec?
    pub fn has_revocations(&self) -> bool {
        self.specs.iter().any(|s| matches!(s, FaultSpec::RevokeClass { .. }))
    }
}

/// What the injector decided for one task start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Run the task normally.
    None,
    /// The task fails transiently; the worker stays up.
    FailTask,
    /// The worker dies; this task and everything in flight on the worker
    /// is lost.
    CrashWorker,
}

/// What the injector decided for one mid-stream page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFault {
    /// Deliver the page normally.
    None,
    /// Deliver the page after this much extra virtual time.
    Stall(Duration),
    /// The stream tears here: this page and everything after it is lost
    /// and the consumer sees a retryable failure.
    Tear,
}

/// A task admission ticket: the worker-local 1-based task ordinal the
/// injector assigned, plus its task-start decision. The ordinal keys all
/// later mid-stream draws for the task via
/// [`FaultInjector::on_scan_page`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStart {
    /// 1-based per-worker task sequence number assigned to this task.
    pub seq: u64,
    /// The task-start fault decision.
    pub decision: FaultDecision,
}

/// Per-injector mutable state, guarded by one mutex so sequence draws are
/// atomic with the once-only bookkeeping of timed crashes.
#[derive(Default)]
struct FaultState {
    /// Next 1-based task sequence per worker.
    task_seq: BTreeMap<u32, u64>,
    /// Which [`FaultSpec::CrashAt`] entries already fired (by spec index).
    fired: Vec<bool>,
}

/// The seeded fault-injection harness.
///
/// Sites call [`FaultInjector::on_task_start`] once per task; the injector
/// advances that worker's private sequence counter and evaluates the plan.
/// Construction returns an [`Arc`] so the handle is cheap to share with
/// every scheduler and worker thread. [`FaultInjector::disabled`] is the
/// no-fault default and short-circuits before taking any lock.
pub struct FaultInjector {
    seed: u64,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    crashes_injected: AtomicU64,
    task_faults_injected: AtomicU64,
    stalls_injected: AtomicU64,
    tears_injected: AtomicU64,
    revocations_injected: AtomicU64,
}

impl FaultInjector {
    /// An injector evaluating `plan` under `seed`.
    pub fn new(seed: u64, plan: FaultPlan) -> Arc<FaultInjector> {
        let fired = vec![false; plan.specs.len()];
        Arc::new(FaultInjector {
            seed,
            plan,
            state: Mutex::new(Rank::FaultInjector, FaultState { task_seq: BTreeMap::new(), fired }),
            crashes_injected: AtomicU64::new(0),
            task_faults_injected: AtomicU64::new(0),
            stalls_injected: AtomicU64::new(0),
            tears_injected: AtomicU64::new(0),
            revocations_injected: AtomicU64::new(0),
        })
    }

    /// The no-fault injector (the production default).
    pub fn disabled() -> Arc<FaultInjector> {
        FaultInjector::new(0, FaultPlan::new())
    }

    /// Does the plan declare any fault at all?
    pub fn is_enabled(&self) -> bool {
        !self.plan.specs.is_empty()
    }

    /// Worker crashes injected so far.
    pub fn crashes_injected(&self) -> u64 {
        self.crashes_injected.load(Ordering::Relaxed)
    }

    /// Transient task faults injected so far.
    pub fn task_faults_injected(&self) -> u64 {
        self.task_faults_injected.load(Ordering::Relaxed)
    }

    /// Mid-stream page stalls injected so far (scan + exchange).
    pub fn stalls_injected(&self) -> u64 {
        self.stalls_injected.load(Ordering::Relaxed)
    }

    /// Mid-stream page tears injected so far (scan + exchange).
    pub fn tears_injected(&self) -> u64 {
        self.tears_injected.load(Ordering::Relaxed)
    }

    /// Worker-class revocations fired so far.
    pub fn revocations_injected(&self) -> u64 {
        self.revocations_injected.load(Ordering::Relaxed)
    }

    /// Does the plan declare any class revocation? Cheap enough to guard a
    /// per-event poll in the scan scheduler's hot loop.
    pub fn has_revocations(&self) -> bool {
        self.plan.has_revocations()
    }

    /// Worker classes whose revocation instant has arrived by virtual time
    /// `now`. Each [`FaultSpec::RevokeClass`] fires exactly once: the first
    /// poll at/after its `at` returns the class, later polls do not. Classes
    /// are returned in spec-declaration order, so the storm schedule is pure
    /// in `(plan, poll instants)`.
    pub fn revocations_due(&self, now: Duration) -> Vec<String> {
        if !self.has_revocations() {
            return Vec::new();
        }
        let mut state = self.state.lock();
        let mut due = Vec::new();
        for (idx, spec) in self.plan.specs.iter().enumerate() {
            if let FaultSpec::RevokeClass { class, at } = spec {
                if now >= *at && !state.fired[idx] {
                    state.fired[idx] = true;
                    due.push(class.clone());
                }
            }
        }
        drop(state);
        self.revocations_injected.fetch_add(due.len() as u64, Ordering::Relaxed);
        due
    }

    /// Consult the plan for the task `worker_id` is about to start at
    /// virtual time `now`. Crash specs take precedence over transient
    /// faults; among crashes, timed ones fire before sequence-numbered ones.
    pub fn on_task_start(&self, worker_id: u32, now: Duration) -> FaultDecision {
        self.begin_task(worker_id, now).decision
    }

    /// Like [`FaultInjector::on_task_start`] but also returns the 1-based
    /// per-worker task ordinal assigned, which keys mid-stream scan draws
    /// ([`FaultInjector::on_scan_page`]) for the rest of the task.
    pub fn begin_task(&self, worker_id: u32, now: Duration) -> TaskStart {
        let mut state = self.state.lock();
        let seq_entry = state.task_seq.entry(worker_id).or_insert(0);
        *seq_entry += 1;
        let seq = *seq_entry;
        if !self.is_enabled() {
            return TaskStart { seq, decision: FaultDecision::None };
        }

        let mut decision = FaultDecision::None;
        for (idx, spec) in self.plan.specs.iter().enumerate() {
            let hit = match *spec {
                FaultSpec::CrashAt { worker_id: w, at } => {
                    if w == worker_id && now >= at && !state.fired[idx] {
                        state.fired[idx] = true;
                        FaultDecision::CrashWorker
                    } else {
                        FaultDecision::None
                    }
                }
                FaultSpec::CrashOnTask { worker_id: w, task_seq } => {
                    if w == worker_id && task_seq == seq {
                        FaultDecision::CrashWorker
                    } else {
                        FaultDecision::None
                    }
                }
                FaultSpec::FailTask { worker_id: w, task_seq } => {
                    if w == worker_id && task_seq == seq {
                        FaultDecision::FailTask
                    } else {
                        FaultDecision::None
                    }
                }
                FaultSpec::FailRate { rate } => {
                    if unit_draw(self.seed, worker_id, seq) < rate {
                        FaultDecision::FailTask
                    } else {
                        FaultDecision::None
                    }
                }
                // mid-stream and polled specs never fire at task start
                FaultSpec::StallScanPage { .. }
                | FaultSpec::TearScanPage { .. }
                | FaultSpec::ScanStallRate { .. }
                | FaultSpec::ScanTearRate { .. }
                | FaultSpec::StallExchangePage { .. }
                | FaultSpec::TearExchangePage { .. }
                | FaultSpec::ExchangeTearRate { .. }
                | FaultSpec::RevokeClass { .. } => FaultDecision::None,
            };
            // a crash dominates a transient fault for the same task
            if rank(hit) > rank(decision) {
                decision = hit;
            }
        }
        drop(state);
        match decision {
            FaultDecision::CrashWorker => {
                self.crashes_injected.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::FailTask => {
                self.task_faults_injected.fetch_add(1, Ordering::Relaxed);
            }
            FaultDecision::None => {}
        }
        TaskStart { seq, decision }
    }

    /// Consult the plan for the `page_ordinal`-th page (1-based) the
    /// `task_seq`-th task on `worker_id` is about to emit. Stateless: the
    /// answer is pure in `(seed, worker, task ordinal, page ordinal)`, so a
    /// replayed task sees the identical stall/tear schedule. A tear
    /// dominates a stall on the same page.
    pub fn on_scan_page(&self, worker_id: u32, task_seq: u64, page_ordinal: u64) -> PageFault {
        if !self.is_enabled() {
            return PageFault::None;
        }
        let mut fault = PageFault::None;
        for spec in self.plan.specs.iter() {
            let hit = match *spec {
                FaultSpec::StallScanPage { worker_id: w, task_seq: t, page_ordinal: p, delay } => {
                    if w == worker_id && t == task_seq && p == page_ordinal {
                        PageFault::Stall(delay)
                    } else {
                        PageFault::None
                    }
                }
                FaultSpec::TearScanPage { worker_id: w, task_seq: t, page_ordinal: p } => {
                    if w == worker_id && t == task_seq && p == page_ordinal {
                        PageFault::Tear
                    } else {
                        PageFault::None
                    }
                }
                FaultSpec::ScanStallRate { rate, delay } => {
                    let draw = unit_draw(
                        self.seed ^ SCAN_STALL_SALT,
                        worker_id,
                        mix(task_seq) ^ page_ordinal,
                    );
                    if draw < rate {
                        PageFault::Stall(delay)
                    } else {
                        PageFault::None
                    }
                }
                FaultSpec::ScanTearRate { rate } => {
                    let draw = unit_draw(
                        self.seed ^ SCAN_TEAR_SALT,
                        worker_id,
                        mix(task_seq) ^ page_ordinal,
                    );
                    if draw < rate {
                        PageFault::Tear
                    } else {
                        PageFault::None
                    }
                }
                _ => PageFault::None,
            };
            if page_rank(hit) > page_rank(fault) {
                fault = hit;
            }
        }
        self.note_page_fault(fault);
        fault
    }

    /// Consult the plan for the `page_ordinal`-th page (1-based) of fragment
    /// `fragment`'s exchange on delivery attempt `attempt` (1-based).
    /// Stateless and pure in `(seed, fragment, page ordinal, attempt)`;
    /// one-shot specs fire on the first attempt only so retries can succeed,
    /// while rate specs include the attempt in the draw.
    pub fn on_exchange_page(&self, fragment: u32, page_ordinal: u64, attempt: u64) -> PageFault {
        if !self.is_enabled() {
            return PageFault::None;
        }
        let mut fault = PageFault::None;
        for spec in self.plan.specs.iter() {
            let hit = match *spec {
                FaultSpec::StallExchangePage { fragment: f, page_ordinal: p, delay } => {
                    if f == fragment && p == page_ordinal && attempt == 1 {
                        PageFault::Stall(delay)
                    } else {
                        PageFault::None
                    }
                }
                FaultSpec::TearExchangePage { fragment: f, page_ordinal: p } => {
                    if f == fragment && p == page_ordinal && attempt == 1 {
                        PageFault::Tear
                    } else {
                        PageFault::None
                    }
                }
                FaultSpec::ExchangeTearRate { rate } => {
                    let draw = unit_draw(
                        self.seed ^ EXCHANGE_TEAR_SALT,
                        fragment,
                        mix(page_ordinal) ^ attempt,
                    );
                    if draw < rate {
                        PageFault::Tear
                    } else {
                        PageFault::None
                    }
                }
                _ => PageFault::None,
            };
            if page_rank(hit) > page_rank(fault) {
                fault = hit;
            }
        }
        self.note_page_fault(fault);
        fault
    }

    fn note_page_fault(&self, fault: PageFault) {
        match fault {
            PageFault::Stall(_) => {
                self.stalls_injected.fetch_add(1, Ordering::Relaxed);
            }
            PageFault::Tear => {
                self.tears_injected.fetch_add(1, Ordering::Relaxed);
            }
            PageFault::None => {}
        }
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("seed", &self.seed)
            .field("specs", &self.plan.specs)
            .field("crashes_injected", &self.crashes_injected())
            .field("task_faults_injected", &self.task_faults_injected())
            .field("stalls_injected", &self.stalls_injected())
            .field("tears_injected", &self.tears_injected())
            .field("revocations_injected", &self.revocations_injected())
            .finish()
    }
}

fn rank(d: FaultDecision) -> u8 {
    match d {
        FaultDecision::None => 0,
        FaultDecision::FailTask => 1,
        FaultDecision::CrashWorker => 2,
    }
}

fn page_rank(f: PageFault) -> u8 {
    match f {
        PageFault::None => 0,
        PageFault::Stall(_) => 1,
        PageFault::Tear => 2,
    }
}

/// Domain-separation salts so scan-stall, scan-tear, and exchange-tear rate
/// draws are independent streams even under the same seed.
const SCAN_STALL_SALT: u64 = 0x5CA7_57A1_1000_0001;
const SCAN_TEAR_SALT: u64 = 0x5CA7_7EA2_0000_0002;
const EXCHANGE_TEAR_SALT: u64 = 0xE8C4_7EA2_0000_0003;

/// Well-distributed 64-bit mixing of the `(seed, worker, seq)` triple —
/// the shared [`crate::rng`] SplitMix64 finalizer.
fn mix(z: u64) -> u64 {
    crate::rng::mix64(z)
}

/// A uniform draw in `[0, 1)` that depends only on the triple — identical
/// under any thread interleaving. The worker id is the draw's stream.
fn unit_draw(seed: u64, worker_id: u32, seq: u64) -> f64 {
    crate::rng::unit_draw(seed, u64::from(worker_id), seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        for w in 0..4 {
            for _ in 0..100 {
                assert_eq!(inj.on_task_start(w, Duration::ZERO), FaultDecision::None);
            }
        }
        assert_eq!(inj.crashes_injected(), 0);
        assert_eq!(inj.task_faults_injected(), 0);
    }

    #[test]
    fn timed_crash_fires_once_at_virtual_time() {
        let inj = FaultInjector::new(7, FaultPlan::new().crash_at(1, Duration::from_secs(10)));
        // before T: nothing
        assert_eq!(inj.on_task_start(1, Duration::from_secs(9)), FaultDecision::None);
        // other workers never crash
        assert_eq!(inj.on_task_start(0, Duration::from_secs(11)), FaultDecision::None);
        // at/after T: exactly one crash
        assert_eq!(inj.on_task_start(1, Duration::from_secs(10)), FaultDecision::CrashWorker);
        assert_eq!(inj.on_task_start(1, Duration::from_secs(11)), FaultDecision::None);
        assert_eq!(inj.crashes_injected(), 1);
    }

    #[test]
    fn kth_task_faults_are_per_worker() {
        let inj = FaultInjector::new(7, FaultPlan::new().fail_task(2, 3).crash_on_task(0, 2));
        // worker 2: third task fails
        assert_eq!(inj.on_task_start(2, Duration::ZERO), FaultDecision::None);
        assert_eq!(inj.on_task_start(2, Duration::ZERO), FaultDecision::None);
        assert_eq!(inj.on_task_start(2, Duration::ZERO), FaultDecision::FailTask);
        assert_eq!(inj.on_task_start(2, Duration::ZERO), FaultDecision::None);
        // worker 0: second task crashes it — its own counter, not worker 2's
        assert_eq!(inj.on_task_start(0, Duration::ZERO), FaultDecision::None);
        assert_eq!(inj.on_task_start(0, Duration::ZERO), FaultDecision::CrashWorker);
        assert_eq!(inj.task_faults_injected(), 1);
        assert_eq!(inj.crashes_injected(), 1);
    }

    #[test]
    fn rate_draws_are_deterministic_and_roughly_uniform() {
        let draws = |seed: u64| -> Vec<FaultDecision> {
            let inj = FaultInjector::new(seed, FaultPlan::new().fail_rate(0.25));
            (0..400).map(|i| inj.on_task_start(i % 4, Duration::ZERO)).collect()
        };
        let a = draws(42);
        let b = draws(42);
        assert_eq!(a, b, "same seed, same schedule");
        let hits = a.iter().filter(|d| **d == FaultDecision::FailTask).count();
        assert!((50..150).contains(&hits), "rate 0.25 over 400 draws, got {hits}");
        let c = draws(43);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn rate_draws_ignore_thread_interleaving() {
        // Decisions for worker w depend only on w's own sequence numbers, so
        // drawing workers in a different global order changes nothing.
        let inj1 = FaultInjector::new(9, FaultPlan::new().fail_rate(0.5));
        let mut order1 = Vec::new();
        for w in [0u32, 1, 0, 1, 0, 1] {
            order1.push((w, inj1.on_task_start(w, Duration::ZERO)));
        }
        let inj2 = FaultInjector::new(9, FaultPlan::new().fail_rate(0.5));
        let mut order2 = Vec::new();
        for w in [1u32, 1, 1, 0, 0, 0] {
            order2.push((w, inj2.on_task_start(w, Duration::ZERO)));
        }
        let per_worker = |log: &[(u32, FaultDecision)], w: u32| -> Vec<FaultDecision> {
            log.iter().filter(|(x, _)| *x == w).map(|(_, d)| *d).collect()
        };
        assert_eq!(per_worker(&order1, 0), per_worker(&order2, 0));
        assert_eq!(per_worker(&order1, 1), per_worker(&order2, 1));
    }

    #[test]
    fn crash_dominates_transient_fault_on_same_task() {
        let inj = FaultInjector::new(1, FaultPlan::new().fail_task(3, 1).crash_on_task(3, 1));
        assert_eq!(inj.on_task_start(3, Duration::ZERO), FaultDecision::CrashWorker);
    }

    #[test]
    fn begin_task_hands_out_per_worker_ordinals() {
        let inj = FaultInjector::new(5, FaultPlan::new().fail_task(1, 2));
        assert_eq!(inj.begin_task(0, Duration::ZERO).seq, 1);
        assert_eq!(inj.begin_task(1, Duration::ZERO).seq, 1);
        assert_eq!(inj.begin_task(0, Duration::ZERO).seq, 2);
        let t = inj.begin_task(1, Duration::ZERO);
        assert_eq!(t.seq, 2);
        assert_eq!(t.decision, FaultDecision::FailTask);
    }

    #[test]
    fn targeted_scan_page_faults_hit_exact_ordinals() {
        let delay = Duration::from_millis(40);
        let inj = FaultInjector::new(
            3,
            FaultPlan::new().stall_scan_page(1, 2, 3, delay).tear_scan_page(0, 1, 2),
        );
        assert_eq!(inj.on_scan_page(1, 2, 3), PageFault::Stall(delay));
        assert_eq!(inj.on_scan_page(1, 2, 2), PageFault::None);
        assert_eq!(inj.on_scan_page(1, 1, 3), PageFault::None);
        assert_eq!(inj.on_scan_page(2, 2, 3), PageFault::None);
        assert_eq!(inj.on_scan_page(0, 1, 2), PageFault::Tear);
        assert_eq!(inj.on_scan_page(0, 1, 1), PageFault::None);
        assert_eq!(inj.stalls_injected(), 1);
        assert_eq!(inj.tears_injected(), 1);
    }

    #[test]
    fn scan_page_rate_draws_are_pure_in_the_quadruple() {
        let plan =
            FaultPlan::new().scan_stall_rate(0.3, Duration::from_millis(10)).scan_tear_rate(0.05);
        let a = FaultInjector::new(11, plan.clone());
        let b = FaultInjector::new(11, plan.clone());
        // different call order, same per-coordinate answers
        let mut hits = 0usize;
        for w in 0..3u32 {
            for t in 1..=4u64 {
                for p in 1..=8u64 {
                    let fa = a.on_scan_page(w, t, p);
                    if fa != PageFault::None {
                        hits += 1;
                    }
                    assert_eq!(fa, b.on_scan_page(w, t, p), "w={w} t={t} p={p}");
                    // repeated query of the same coordinate: same answer
                    assert_eq!(fa, a.on_scan_page(w, t, p));
                }
            }
        }
        assert!(hits > 0, "rates 0.3/0.05 over 96 pages should hit at least once");
        // a different seed yields a different schedule somewhere
        let c = FaultInjector::new(12, plan);
        let differs = (1..=8u64).any(|p| a.on_scan_page(0, 1, p) != c.on_scan_page(0, 1, p))
            || (1..=8u64).any(|p| a.on_scan_page(1, 2, p) != c.on_scan_page(1, 2, p))
            || (1..=8u64).any(|p| a.on_scan_page(2, 3, p) != c.on_scan_page(2, 3, p));
        assert!(differs, "seed must matter");
    }

    #[test]
    fn one_shot_exchange_faults_spare_the_retry() {
        let delay = Duration::from_millis(25);
        let inj = FaultInjector::new(
            9,
            FaultPlan::new().stall_exchange_page(1, 2, delay).tear_exchange_page(1, 3),
        );
        assert_eq!(inj.on_exchange_page(1, 1, 1), PageFault::None);
        assert_eq!(inj.on_exchange_page(1, 2, 1), PageFault::Stall(delay));
        assert_eq!(inj.on_exchange_page(1, 3, 1), PageFault::Tear);
        // second delivery attempt sails through
        assert_eq!(inj.on_exchange_page(1, 2, 2), PageFault::None);
        assert_eq!(inj.on_exchange_page(1, 3, 2), PageFault::None);
        // other fragments untouched
        assert_eq!(inj.on_exchange_page(2, 3, 1), PageFault::None);
    }

    #[test]
    fn exchange_tear_rate_draw_includes_the_attempt() {
        let plan = FaultPlan::new().exchange_tear_rate(0.5);
        let inj = FaultInjector::new(21, plan.clone());
        let replay = FaultInjector::new(21, plan);
        let mut torn = 0usize;
        let mut recovered = 0usize;
        for p in 1..=64u64 {
            let first = inj.on_exchange_page(1, p, 1);
            assert_eq!(first, replay.on_exchange_page(1, p, 1), "page {p}");
            if first == PageFault::Tear {
                torn += 1;
                if inj.on_exchange_page(1, p, 2) == PageFault::None {
                    recovered += 1;
                }
            }
        }
        assert!(torn > 0, "rate 0.5 over 64 pages must tear at least once");
        assert!(recovered > 0, "attempt is in the draw, so some retries must succeed");
    }

    #[test]
    fn class_revocation_fires_once_at_virtual_time() {
        let inj = FaultInjector::new(
            5,
            FaultPlan::new()
                .revoke_class("spot", Duration::from_millis(10))
                .revoke_class("preemptible", Duration::from_millis(30)),
        );
        assert!(inj.has_revocations());
        assert!(inj.revocations_due(Duration::from_millis(9)).is_empty());
        assert_eq!(inj.revocations_due(Duration::from_millis(10)), vec!["spot".to_string()]);
        // already fired: later polls stay quiet until the next spec is due
        assert!(inj.revocations_due(Duration::from_millis(20)).is_empty());
        assert_eq!(inj.revocations_due(Duration::from_millis(30)), vec!["preemptible".to_string()]);
        assert!(inj.revocations_due(Duration::from_secs(60)).is_empty());
        assert_eq!(inj.revocations_injected(), 2);
    }

    #[test]
    fn revocation_specs_never_fire_at_task_start() {
        let inj = FaultInjector::new(5, FaultPlan::new().revoke_class("spot", Duration::ZERO));
        assert_eq!(inj.on_task_start(0, Duration::from_secs(1)), FaultDecision::None);
        assert_eq!(inj.crashes_injected(), 0);
        // a poll past the instant still fires exactly once
        assert_eq!(inj.revocations_due(Duration::from_secs(1)), vec!["spot".to_string()]);
    }

    #[test]
    fn scan_and_exchange_draw_streams_are_independent() {
        // Same rate for both: with domain-separated salts the hit patterns
        // must not be identical across 64 coordinates.
        let inj =
            FaultInjector::new(33, FaultPlan::new().scan_tear_rate(0.4).exchange_tear_rate(0.4));
        let scan: Vec<bool> =
            (1..=64u64).map(|p| inj.on_scan_page(1, 1, p) == PageFault::Tear).collect();
        let exch: Vec<bool> =
            (1..=64u64).map(|p| inj.on_exchange_page(1, p, 1) == PageFault::Tear).collect();
        assert_ne!(scan, exch);
    }
}
