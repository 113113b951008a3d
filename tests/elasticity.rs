//! Elastic-lifecycle suite: §IX graceful expansion and shrink under a live
//! query stream ("The worker will block until all active tasks are
//! complete"), the half-open probation contract under spot revocation (a
//! revoked worker that rejoins enters probation, never full health, and one
//! probation failure re-quarantines it), the revocation storm end to end
//! (half the fleet dies mid-query, every answer still lands via retry on
//! the survivors), and a property test that graceful decommission of *any*
//! single worker mid-run is invisible to queries.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use presto_cluster::worker::DEFAULT_PROBATION_WINDOW;
use presto_cluster::{ClusterConfig, PrestoCluster, WorkerHealth, WorkerLifecycle, WorkerState};
use presto_common::metrics::names;
use presto_common::{FaultInjector, FaultPlan, Value};
use presto_core::Session;
use presto_resource::QueryPriority;

mod common;
use common::cluster;

const SUM_SQL: &str = "SELECT sum(x), count(*) FROM t";

/// sum(0..600) = 179700 over 600 rows — the answer every scenario must agree on.
fn expected_rows() -> Vec<Vec<Value>> {
    vec![vec![Value::Bigint(179_700), Value::Bigint(600)]]
}

// ------------------------------------------- §IX expansion and shrink

/// `workers` workers under the paper's 2-minute `shutdown.grace-period`.
fn paper_grace_cluster(workers: u32) -> Arc<PrestoCluster> {
    cluster(ClusterConfig {
        initial_workers: workers,
        grace_period: Duration::from_secs(120),
        ..ClusterConfig::default()
    })
}

#[test]
fn expansion_takes_effect_without_restart() {
    let c = paper_grace_cluster(1);
    let session = Session::default();
    c.execute("SELECT count(*) FROM t", &session).unwrap();
    let before: usize = c.workers().iter().map(|w| w.completed_tasks()).sum();
    assert_eq!(before, 12);
    c.expand(3);
    c.execute("SELECT count(*) FROM t", &session).unwrap();
    // new workers picked up splits on the very next query
    let newcomers: usize =
        c.workers().iter().filter(|w| w.id > 0).map(|w| w.completed_tasks()).sum();
    assert!(newcomers > 0);
}

#[test]
fn shrink_follows_the_paper_state_machine() {
    let c = paper_grace_cluster(4);
    let session = Session::default();
    c.decommission_worker(3).unwrap();
    let worker = c.workers().into_iter().find(|w| w.id == 3).unwrap();
    assert_eq!(worker.state(), WorkerState::ShuttingDownGrace1);

    // first grace period: 2 minutes
    c.clock().advance(Duration::from_secs(120));
    c.tick();
    assert_eq!(worker.state(), WorkerState::ShuttingDownGrace2); // no tasks → drained immediately

    // second grace period
    c.clock().advance(Duration::from_secs(120));
    let live = c.tick();
    assert_eq!(worker.state(), WorkerState::Terminated);
    assert_eq!(live, 3);

    // cluster still answers correctly
    let result = c.execute("SELECT count(*) FROM t", &session).unwrap();
    assert_eq!(result.rows(), vec![vec![Value::Bigint(600)]]);
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
}

#[test]
fn queries_running_during_shrink_never_fail() {
    let c = paper_grace_cluster(4);
    let session = Session::default();
    // drain half the fleet while querying
    c.decommission_worker(2).unwrap();
    c.decommission_worker(3).unwrap();
    for _ in 0..20 {
        assert_eq!(c.execute(SUM_SQL, &session).unwrap().rows(), expected_rows());
        c.clock().advance(Duration::from_secs(30));
        c.tick();
    }
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
    assert_eq!(c.active_workers().len(), 2);
}

#[test]
fn distributed_results_match_single_node_engine() {
    let c = paper_grace_cluster(3);
    let session = Session::default();
    let sql = "SELECT count(*), sum(x), min(x), max(x) FROM t";
    let distributed = c.execute(sql, &session).unwrap();
    let local = c.engine().execute_with_session(sql, &session).unwrap();
    assert_eq!(distributed.rows(), local.rows());
}

// --------------------------------------------- rejoin lands in probation

#[test]
fn revoked_worker_rejoins_on_probation_not_at_full_health() {
    let probation = DEFAULT_PROBATION_WINDOW;
    let c = cluster(ClusterConfig::default());
    let session = Session::default();

    // spot revocation takes worker 0 out abruptly; the query rides the
    // survivors and the fleet sees the loss as `Revoked`, not a drain
    let w0 = c.workers()[0].clone();
    w0.crash();
    assert_eq!(w0.lifecycle(), WorkerLifecycle::Revoked);
    assert_eq!(c.execute(SUM_SQL, &session).unwrap().rows(), expected_rows());
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);

    // the instance is re-granted: back to Active, but only half-open —
    // its in-flight work died with it, so trust is earned back first
    w0.rejoin();
    assert_eq!(w0.lifecycle(), WorkerLifecycle::Active);
    assert!(matches!(w0.health(), WorkerHealth::Probation { .. }), "{:?}", w0.health());
    assert!(!w0.accepts_tasks_for(QueryPriority::Normal));
    assert!(w0.accepts_tasks_for(QueryPriority::Low));

    // normal-priority traffic keeps avoiding it while on probation
    let before = w0.completed_tasks();
    assert_eq!(c.execute(SUM_SQL, &session).unwrap().rows(), expected_rows());
    assert_eq!(w0.completed_tasks(), before, "normal splits on a probation worker");

    // a clean probation window restores full health
    c.clock().advance(probation);
    assert_eq!(w0.health(), WorkerHealth::Healthy);
    assert!(w0.accepts_tasks_for(QueryPriority::Normal));
}

#[test]
fn probation_failure_after_rejoin_requarantines_immediately() {
    // the rejoined worker's very first task fails: one strike must send it
    // straight back to quarantine even though blacklist_after = 2
    let c = cluster(ClusterConfig {
        fault_injector: FaultInjector::new(11, FaultPlan::new().fail_task(0, 1)),
        blacklist_after: 2,
        ..ClusterConfig::default()
    });
    let w0 = c.workers()[0].clone();
    w0.crash();
    w0.rejoin();
    assert!(matches!(w0.health(), WorkerHealth::Probation { .. }));

    // the low-priority probe hits the injected failure: the query still
    // answers (split retried elsewhere) and the worker is re-quarantined
    let low = Session::default().with_priority(QueryPriority::Low);
    assert_eq!(c.execute(SUM_SQL, &low).unwrap().rows(), expected_rows());
    assert!(w0.is_blacklisted(), "probation failure must re-quarantine immediately");
    assert_eq!(c.metrics().get(names::CLUSTER_BLACKLISTED_WORKERS), 1);
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);

    // and the relapsed worker absorbs no normal-priority splits
    let before = w0.completed_tasks();
    assert_eq!(c.execute(SUM_SQL, &Session::default()).unwrap().rows(), expected_rows());
    assert_eq!(w0.completed_tasks(), before);
}

// ------------------------------------------------ storm hits mid-query

#[test]
fn revocation_storm_mid_query_answers_on_the_survivors() {
    // 4 on-demand + 4 spot; the whole spot class is revoked 50 virtual µs
    // in — while their first-wave splits are still in flight
    let c = cluster(ClusterConfig {
        fault_injector: FaultInjector::new(
            13,
            FaultPlan::new().revoke_class("spot", Duration::from_micros(50)),
        ),
        ..ClusterConfig::default()
    });
    c.expand_class(4, "spot");
    assert_eq!(c.workers().len(), 8);

    let result = c.execute(SUM_SQL, &Session::default()).unwrap();
    assert_eq!(result.rows(), expected_rows());
    assert_eq!(c.metrics().get(names::CLUSTER_WORKERS_REVOKED), 4);
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
    let revoked = c.workers().iter().filter(|w| w.lifecycle() == WorkerLifecycle::Revoked).count();
    assert_eq!(revoked, 4, "every spot worker must be revoked, no on-demand ones");

    // the survivors keep answering after the storm
    assert_eq!(c.execute(SUM_SQL, &Session::default()).unwrap().rows(), expected_rows());
    assert_eq!(c.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
}

// ----------------------------------- decommission is invisible to queries

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Gracefully decommissioning any single worker mid-run never changes
    /// a query answer and never increments `cluster.queries_failed` — the
    /// drain hands queued splits to survivors and the state machine runs
    /// to the reaper without a query ever noticing.
    #[test]
    fn graceful_decommission_of_any_worker_is_invisible(
        seed in 0u64..1_000,
        victim in 0u32..4,
        drain_after_us in 50u64..400,
    ) {
        // the seed varies the (deterministic) fault-injector stream both
        // clusters carry; no faults are planned, so both runs stay clean
        let grace = Duration::from_micros(100);
        let baseline = cluster(ClusterConfig {
            grace_period: grace,
            fault_injector: FaultInjector::new(seed, FaultPlan::new()),
            ..ClusterConfig::default()
        });
        let subject = cluster(ClusterConfig {
            grace_period: grace,
            fault_injector: FaultInjector::new(seed, FaultPlan::new()),
            ..ClusterConfig::default()
        });

        let session = Session::default();
        subject.schedule_decommission(
            victim,
            subject.clock().now() + Duration::from_micros(drain_after_us),
        );
        for _ in 0..3 {
            let a = baseline.execute(SUM_SQL, &session).unwrap();
            let b = subject.execute(SUM_SQL, &session).unwrap();
            prop_assert_eq!(a.rows(), b.rows());
        }
        prop_assert_eq!(subject.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);

        // the drain runs to the reaper; each grace phase restarts its
        // timer, so two advance+tick cycles are needed
        for _ in 0..2 {
            subject.clock().advance(Duration::from_millis(1));
            subject.tick();
        }
        prop_assert_eq!(subject.metrics().get(names::CLUSTER_WORKERS_DECOMMISSIONED), 1);
        prop_assert_eq!(subject.workers().len(), 3);

        // and the shrunken fleet still answers correctly
        prop_assert_eq!(
            subject.execute(SUM_SQL, &session).unwrap().rows(),
            expected_rows()
        );
        prop_assert_eq!(subject.metrics().get(names::CLUSTER_QUERIES_FAILED), 0);
    }
}

// ------------------------- the fragment caches ride the lifecycle

/// One same-seed storm run: 4 on-demand + 4 spot workers with fragment
/// caches, the spot class revoked while the first (cacheable, TPC-H) scan
/// is filling them.
fn storm_run(seed: u64) -> (u64, Vec<Vec<Value>>) {
    let c = cluster(ClusterConfig {
        affinity_scheduling: true,
        fragment_cache_entries: 64,
        fault_injector: FaultInjector::new(
            seed,
            FaultPlan::new().revoke_class("spot", Duration::from_micros(50)),
        ),
        ..ClusterConfig::default()
    });
    c.expand_class(4, "spot");

    let tpch = Session::new("tpch", "tiny");
    let mut rows = Vec::new();
    for _ in 0..3 {
        rows.extend(c.execute("SELECT count(*) FROM lineitem", &tpch).unwrap().rows());
        rows.extend(c.execute(SUM_SQL, &Session::default()).unwrap().rows());
    }
    assert_eq!(c.metrics().get(names::CLUSTER_WORKERS_REVOKED), 4);
    assert!(c.metrics().get(names::FRC_HITS) > 0, "the survivors' caches must be in play");
    (c.cache_digest(), rows)
}

#[test]
fn same_seed_storms_tear_caches_down_identically() {
    let (digest_a, rows_a) = storm_run(29);
    let (digest_b, rows_b) = storm_run(29);
    assert_eq!(rows_a, rows_b);
    assert_eq!(
        digest_a, digest_b,
        "same-seed revocation storms must leave bit-identical cache state"
    );

    // a different seed revokes at the same instant but shuffles retry
    // draws; answers agree, and the digest is at least well-defined
    let (digest_c, rows_c) = storm_run(31);
    assert_eq!(rows_a, rows_c);
    let _ = digest_c;
}
