//! Speculative execution + mid-stream fault suite: straggler splits get a
//! duplicate attempt once they cross the p99 of their completed siblings,
//! first result wins, and everything replays bit-for-bit on the same seed.
//! Also covers the exchange-tear retry path and the blacklist probation
//! (half-open) state, plus property tests over the scheduler invariants
//! and the purity of mid-stream fault decisions.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use presto_cluster::worker::{DEFAULT_PROBATION_WINDOW, DEFAULT_QUARANTINE_PERIOD};
use presto_cluster::{ClusterConfig, PrestoCluster, WorkerHealth};
use presto_common::fault::PageFault;
use presto_common::metrics::names;
use presto_common::trace::{Span, SpanKind};
use presto_common::{
    Block, DataType, FaultInjector, FaultPlan, Field, Page, Schema, SimClock, Value,
};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};
use presto_resource::QueryPriority;

mod common;
use common::cluster;

const SUM_SQL: &str = "SELECT sum(x), count(*) FROM t";

/// sum(0..600) = 179700 over 600 rows — the answer every mode must agree on.
fn expected_rows() -> Vec<Vec<Value>> {
    vec![vec![Value::Bigint(179_700), Value::Bigint(600)]]
}

/// One split on worker 0 stalls 50 ms mid-stream — a ~500× straggler next
/// to its ~100 µs siblings.
fn one_straggler() -> Arc<FaultInjector> {
    FaultInjector::new(7, FaultPlan::new().stall_scan_page(0, 1, 1, Duration::from_millis(50)))
}

// ------------------------------------------------------------- end to end

#[test]
fn straggler_is_speculated_and_the_duplicate_wins() {
    let c = cluster(ClusterConfig { fault_injector: one_straggler(), ..ClusterConfig::default() });
    let result = c.execute(SUM_SQL, &Session::default()).unwrap();
    assert_eq!(result.rows(), expected_rows());
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
    assert!(c.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES) >= 1, "straggler not speculated");
    assert!(c.metrics().get(names::CLUSTER_SPECULATIVE_WINS) >= 1, "duplicate should win its race");
    // the race ends well before the 50 ms stall would have
    assert!(c.clock().now() < Duration::from_millis(50), "query waited out the straggler anyway");
}

#[test]
fn speculation_off_counterfactual_is_strictly_slower_on_the_same_schedule() {
    let on = cluster(ClusterConfig { fault_injector: one_straggler(), ..ClusterConfig::default() });
    let off = cluster(ClusterConfig {
        fault_injector: one_straggler(),
        speculation: false,
        ..ClusterConfig::default()
    });
    assert_eq!(on.execute(SUM_SQL, &Session::default()).unwrap().rows(), expected_rows());
    assert_eq!(off.execute(SUM_SQL, &Session::default()).unwrap().rows(), expected_rows());
    assert_eq!(off.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES), 0);
    assert!(
        on.clock().now() < off.clock().now(),
        "speculation on ({:?}) must beat speculation off ({:?}) on the identical fault schedule",
        on.clock().now(),
        off.clock().now()
    );
    // off waits out the full injected stall
    assert!(off.clock().now() >= Duration::from_millis(50));
}

#[test]
fn speculated_answers_match_the_fault_free_run() {
    let clean = cluster(ClusterConfig::default());
    let stalled = cluster(ClusterConfig {
        fault_injector: FaultInjector::new(
            9,
            FaultPlan::new().scan_stall_rate(0.20, Duration::from_millis(5)),
        ),
        ..ClusterConfig::default()
    });
    let session = Session::default();
    for _ in 0..5 {
        let a = clean.execute(SUM_SQL, &session).unwrap();
        let b = stalled.execute(SUM_SQL, &session).unwrap();
        assert_eq!(a.rows(), b.rows(), "speculation must never change an answer");
    }
    assert!(stalled.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES) > 0);
    assert_eq!(stalled.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
}

#[test]
fn fault_free_runs_never_speculate() {
    // uniform virtual task durations: no split ever crosses the sibling
    // quantile, so a healthy cluster must not burn duplicate work
    let c = cluster(ClusterConfig::default());
    let session = Session::default();
    for _ in 0..5 {
        assert_eq!(c.execute(SUM_SQL, &session).unwrap().rows(), expected_rows());
    }
    assert_eq!(c.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES), 0);
    assert_eq!(c.metrics().get(names::CLUSTER_SPECULATIVE_WINS), 0);
    assert_eq!(c.metrics().get(names::CLUSTER_SPECULATIVE_WASTED), 0);
}

#[test]
fn speculate_span_records_the_race() {
    let c = cluster(ClusterConfig { fault_injector: one_straggler(), ..ClusterConfig::default() });
    let result = c.execute(SUM_SQL, &Session::default()).unwrap();
    let spans = result.info.trace.spans();
    let spec: Vec<&Span> = spans.iter().filter(|s| s.kind == SpanKind::Speculate).collect();
    assert!(!spec.is_empty(), "no Speculate span in the trace");
    for s in &spec {
        assert!(s.attrs.contains_key("from_worker"), "{:?}", s.attrs);
        assert!(s.attrs.contains_key("to_worker"));
        assert!(s.attrs.contains_key("elapsed_us"));
        assert!(s.attrs.contains_key("threshold_us"));
        assert!(s.attrs["elapsed_us"] > s.attrs["threshold_us"]);
        assert_ne!(s.attrs["from_worker"], s.attrs["to_worker"]);
    }
    // the winning duplicate is a Task span marked speculative with rows out
    assert!(
        spans.iter().any(|s| s.kind == SpanKind::Task
            && s.attrs.get("speculative") == Some(&1)
            && s.attrs.contains_key("rows_out")),
        "no winning speculative task span"
    );
}

#[test]
fn same_seed_replays_identical_digests_and_launch_counts() {
    let run = || {
        let c = cluster(ClusterConfig {
            fault_injector: FaultInjector::new(
                42,
                FaultPlan::new().scan_stall_rate(0.15, Duration::from_millis(8)),
            ),
            ..ClusterConfig::default()
        });
        let session = Session::default();
        let mut digests = Vec::new();
        for _ in 0..8 {
            digests.push(c.execute(SUM_SQL, &session).unwrap().info.trace.digest());
        }
        (
            digests,
            c.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES),
            c.metrics().get(names::CLUSTER_SPECULATIVE_WINS),
            c.metrics().get(names::CLUSTER_SPECULATIVE_WASTED),
            c.clock().now(),
        )
    };
    let a = run();
    let b = run();
    assert!(a.1 > 0, "the schedule must speculate for this test to mean anything");
    assert_eq!(a, b, "same seed ⇒ same span trees, same speculation, same virtual time");
}

// --------------------------------------------------------- exchange faults

#[test]
fn exchange_tear_is_retried_to_success_on_the_virtual_clock() {
    // one-shot tears fire on delivery attempt 1 only, so the retry succeeds
    let c = cluster(ClusterConfig {
        fault_injector: FaultInjector::new(
            3,
            FaultPlan::new().tear_exchange_page(0, 1).tear_exchange_page(1, 1),
        ),
        ..ClusterConfig::default()
    });
    let result = c.execute(SUM_SQL, &Session::default()).unwrap();
    assert_eq!(result.rows(), expected_rows());
    assert!(c.metrics().get(names::CLUSTER_EXCHANGE_RETRIES) >= 1, "tear did not force a retry");
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
    // the retry backoff landed on the virtual clock
    assert!(c.clock().now() >= Duration::from_millis(50));
}

#[test]
fn exchange_tears_exhaust_the_attempt_budget_when_recovery_is_off() {
    let c = cluster(ClusterConfig {
        fault_injector: FaultInjector::new(3, FaultPlan::new().tear_exchange_page(1, 1)),
        fault_recovery: false,
        ..ClusterConfig::default()
    });
    let err = c.execute(SUM_SQL, &Session::default()).unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert_eq!(c.metrics().get(names::CLUSTER_EXCHANGE_RETRIES), 0);
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 1);
}

// ------------------------------------------------------ probation half-open

#[test]
fn probation_worker_serves_only_low_priority_until_the_window_closes() {
    let quarantine = DEFAULT_QUARANTINE_PERIOD;
    let probation = DEFAULT_PROBATION_WINDOW;
    let c = cluster(ClusterConfig {
        fault_injector: FaultInjector::new(5, FaultPlan::new().fail_task(0, 1)),
        blacklist_after: 1,
        ..ClusterConfig::default()
    });
    let session = Session::default();
    assert_eq!(c.execute(SUM_SQL, &session).unwrap().rows(), expected_rows());
    let w0 = c.workers()[0].clone();
    assert!(w0.is_blacklisted(), "one failure at blacklist_after=1 must quarantine");
    assert_eq!(c.metrics().get(names::CLUSTER_BLACKLISTED_WORKERS), 1);

    // quarantine elapses → half-open probation: low-priority traffic only
    c.clock().advance(quarantine);
    assert!(matches!(w0.health(), WorkerHealth::Probation { .. }), "{:?}", w0.health());
    assert!(!w0.accepts_tasks_for(QueryPriority::Normal));
    assert!(w0.accepts_tasks_for(QueryPriority::Low));

    let before = w0.completed_tasks();
    assert_eq!(c.execute(SUM_SQL, &session).unwrap().rows(), expected_rows());
    assert_eq!(w0.completed_tasks(), before, "normal-priority splits on a probation worker");

    let low = Session::default().with_priority(QueryPriority::Low);
    assert_eq!(c.execute(SUM_SQL, &low).unwrap().rows(), expected_rows());
    assert!(w0.completed_tasks() > before, "probation worker should serve low-priority splits");

    // a clean probation window restores full health
    c.clock().advance(probation);
    assert_eq!(w0.health(), WorkerHealth::Healthy);
    assert!(w0.accepts_tasks_for(QueryPriority::Normal));
}

#[test]
fn refailing_probation_worker_requarantines_without_absorbing_normal_splits() {
    // regression: a re-admitted worker that fails again must go straight
    // back to quarantine — one strike, not a fresh `blacklist_after` budget
    let quarantine = DEFAULT_QUARANTINE_PERIOD;
    let c = cluster(ClusterConfig {
        // tasks 1+2 trip the threshold (→ quarantine); task 3 is the first
        // probation task and must re-quarantine on its own
        fault_injector: FaultInjector::new(
            5,
            FaultPlan::new().fail_task(0, 1).fail_task(0, 2).fail_task(0, 3),
        ),
        blacklist_after: 2,
        ..ClusterConfig::default()
    });
    let session = Session::default();
    // worker 0 fails both its first tasks mid-query and trips the threshold
    assert_eq!(c.execute(SUM_SQL, &session).unwrap().rows(), expected_rows());
    let w0 = c.workers()[0].clone();
    assert!(w0.is_blacklisted());
    assert_eq!(c.metrics().get(names::CLUSTER_BLACKLISTED_WORKERS), 1);

    c.clock().advance(quarantine);
    assert!(matches!(w0.health(), WorkerHealth::Probation { .. }));

    // the low-priority probe hits worker 0's injected third failure: the
    // query still answers (split retried elsewhere) and the worker is
    // re-quarantined after ONE failure despite blacklist_after = 2
    let low = Session::default().with_priority(QueryPriority::Low);
    assert_eq!(c.execute(SUM_SQL, &low).unwrap().rows(), expected_rows());
    assert!(w0.is_blacklisted(), "probation failure must re-quarantine immediately");
    assert_eq!(c.metrics().get(names::CLUSTER_BLACKLISTED_WORKERS), 2);

    // the hot normal-priority query never lands on the relapsed worker
    let before = w0.completed_tasks();
    assert_eq!(c.execute(SUM_SQL, &session).unwrap().rows(), expected_rows());
    assert_eq!(w0.completed_tasks(), before);
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
}

// --------------------------------------------- history-seeded yardstick

/// 2-page table → 2 splits: fewer than the 3 completed siblings speculation
/// waits for, so an unseeded fragment can never judge a straggler within
/// one run.
fn narrow_engine() -> PrestoEngine {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
    let pages: Vec<Page> = (0..2)
        .map(|p| Page::new(vec![Block::bigint((p * 50..p * 50 + 50).collect())]).unwrap())
        .collect();
    memory.create_table("default", "narrow", schema, pages).unwrap();
    engine.register_catalog("memory", Arc::new(memory));
    engine
}

const NARROW_SQL: &str = "SELECT sum(x), count(*) FROM narrow";

/// sum(0..100) = 4950 over 100 rows.
fn narrow_rows() -> Vec<Vec<Value>> {
    vec![vec![Value::Bigint(4_950), Value::Bigint(100)]]
}

/// One worker's split stalls 50 ms on the first *and* second query (task
/// ordinals count per worker across queries, so both runs hit the stall).
fn narrow_cluster(stalled_worker: u32) -> Arc<PrestoCluster> {
    PrestoCluster::new(
        "seeded",
        narrow_engine(),
        ClusterConfig {
            initial_workers: 2,
            fault_injector: FaultInjector::new(
                7,
                FaultPlan::new()
                    .stall_scan_page(stalled_worker, 1, 1, Duration::from_millis(50))
                    .stall_scan_page(stalled_worker, 2, 1, Duration::from_millis(50)),
            ),
            ..ClusterConfig::default()
        },
        SimClock::new(),
    )
}

/// The worker that affinity scheduling hands the stalled split to; the
/// fast split must land on the other worker or the test means nothing.
const NARROW_STALLED_WORKER: u32 = 0;

#[test]
fn runtime_history_seeds_speculation_for_single_wave_fragments() {
    // regression: before history seeding, a fragment with fewer splits
    // than speculation's 3 completed siblings could never speculate — the
    // second identical run waited out the full stall exactly like the first
    let c = narrow_cluster(NARROW_STALLED_WORKER);
    let session = Session::default();

    // run 1: no history yet → yardstick starts empty, 2 siblings < 3, so
    // the stall is waited out and nothing speculates
    assert_eq!(c.execute(NARROW_SQL, &session).unwrap().rows(), narrow_rows());
    let after_first = c.clock().now();
    assert!(after_first >= Duration::from_millis(50), "run 1 must wait out the stall");
    assert_eq!(c.metrics().get(names::CLUSTER_SPECULATION_SEEDED), 0);
    assert_eq!(c.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES), 0);

    // run 2: the yardstick is seeded from run 1's observed runtimes, so
    // the returning straggler is judged and duplicated away
    let result = c.execute(NARROW_SQL, &session).unwrap();
    assert_eq!(result.rows(), narrow_rows());
    let second = c.clock().now() - after_first;
    assert!(c.metrics().get(names::CLUSTER_SPECULATION_SEEDED) >= 1, "yardstick never seeded");
    assert!(c.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES) >= 1, "straggler not speculated");
    assert!(c.metrics().get(names::CLUSTER_SPECULATIVE_WINS) >= 1, "duplicate should win");
    assert!(second < Duration::from_millis(50), "seeded run must dodge the stall, took {second:?}");
}

// ------------------------------------------------------------- properties

/// Group the Task spans of one query trace by (stage, split name).
fn split_attempts(spans: &[Span]) -> Vec<Vec<&Span>> {
    let mut groups: std::collections::BTreeMap<(u64, &str), Vec<&Span>> =
        std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.kind == SpanKind::Task) {
        let parent = s.parent.map(|p| p.index() as u64).unwrap_or(u64::MAX);
        groups.entry((parent, s.name.as_str())).or_default().push(s);
    }
    groups.into_values().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Scheduler invariants, read off the span tree: a completed split is
    /// never duplicated (no attempt starts at or after the first win), at
    /// most one speculative duplicate is live at a time, and at most two
    /// attempts of a split ever overlap (original + one duplicate).
    #[test]
    fn no_completed_split_is_duplicated_and_at_most_one_live_duplicate(seed in any::<u64>()) {
        let c = cluster(ClusterConfig {
            fault_injector: FaultInjector::new(
                seed,
                FaultPlan::new().scan_stall_rate(0.25, Duration::from_millis(4)),
            ),
            ..ClusterConfig::default()
        });
        let result = c.execute(SUM_SQL, &Session::default()).unwrap();
        prop_assert_eq!(result.rows(), expected_rows());
        let spans = result.info.trace.spans();
        for attempts in split_attempts(&spans) {
            // completion = first winning attempt's end
            let won = attempts
                .iter()
                .filter(|s| s.attrs.contains_key("rows_out") && !s.attrs.contains_key("cancelled"))
                .filter_map(|s| s.end)
                .min();
            let won = won.expect("every split must complete");
            for s in &attempts {
                prop_assert!(s.start < won, "attempt launched at/after the split completed");
            }
            // sweep: ≤ 2 concurrent attempts, ≤ 1 of them speculative
            for s in &attempts {
                let live = attempts
                    .iter()
                    .filter(|o| o.start <= s.start && o.end.is_none_or(|e| e > s.start));
                let (mut total, mut speculative) = (0, 0);
                for o in live {
                    total += 1;
                    if o.attrs.get("speculative") == Some(&1) {
                        speculative += 1;
                    }
                }
                prop_assert!(total <= 2, "more than one duplicate live for a split");
                prop_assert!(speculative <= 1, "two speculative attempts live at once");
            }
        }
    }

    /// The full speculation schedule is pure in (seed, plan, config):
    /// three fresh clusters replay identical traces and counters.
    #[test]
    fn speculation_decisions_are_pure_in_seed_plan_and_config(seed in any::<u64>()) {
        let run = || {
            let c = cluster(ClusterConfig {
                fault_injector: FaultInjector::new(
                    seed,
                    FaultPlan::new().scan_stall_rate(0.15, Duration::from_millis(6)),
                ),
                ..ClusterConfig::default()
            });
            let session = Session::default();
            let mut digests = Vec::new();
            for _ in 0..3 {
                digests.push(c.execute(SUM_SQL, &session).unwrap().info.trace.digest());
            }
            (
                digests,
                c.metrics().get(names::CLUSTER_SPECULATIVE_LAUNCHES),
                c.metrics().get(names::CLUSTER_SPECULATIVE_WINS),
                c.clock().now(),
            )
        };
        let (a, b, c) = (run(), run(), run());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mid-stream scan faults are pure in (seed, worker, task ordinal,
    /// page ordinal): independent injectors with the same seed and plan
    /// agree on every draw.
    #[test]
    fn scan_page_faults_are_pure_in_worker_task_and_page(
        seed in any::<u64>(),
        stall_rate in 0.0f64..0.6,
        tear_rate in 0.0f64..0.6,
    ) {
        let plan = || {
            FaultPlan::new()
                .scan_stall_rate(stall_rate, Duration::from_millis(2))
                .scan_tear_rate(tear_rate)
        };
        let a = FaultInjector::new(seed, plan());
        let b = FaultInjector::new(seed, plan());
        for worker in 0..4u32 {
            for task in 1..6u64 {
                for page in 1..8u64 {
                    let fa = a.on_scan_page(worker, task, page);
                    prop_assert_eq!(fa, b.on_scan_page(worker, task, page));
                    // asking again changes nothing: the draw is stateless
                    prop_assert_eq!(fa, a.on_scan_page(worker, task, page));
                }
            }
        }
    }

    /// Exchange faults are pure in (seed, fragment, page ordinal, attempt),
    /// and a different attempt re-draws — the retry path can succeed.
    #[test]
    fn exchange_page_faults_are_pure_in_fragment_page_and_attempt(
        seed in any::<u64>(),
        tear_rate in 0.0f64..0.6,
    ) {
        let a = FaultInjector::new(seed, FaultPlan::new().exchange_tear_rate(tear_rate));
        let b = FaultInjector::new(seed, FaultPlan::new().exchange_tear_rate(tear_rate));
        let mut varies = false;
        let mut any_fault = false;
        for fragment in 0..4u32 {
            for page in 1..8u64 {
                let first = a.on_exchange_page(fragment, page, 1);
                for attempt in 1..5u64 {
                    let fa = a.on_exchange_page(fragment, page, attempt);
                    prop_assert_eq!(fa, b.on_exchange_page(fragment, page, attempt));
                    prop_assert_eq!(fa, a.on_exchange_page(fragment, page, attempt));
                    varies |= fa != first;
                    any_fault |= fa != PageFault::None;
                }
            }
        }
        // the attempt is part of the draw: whenever the rate injects
        // anything at all, some retry must see a different decision
        if tear_rate > 0.05 && any_fault {
            prop_assert!(varies, "attempt number never changed a decision");
        }
    }
}
