//! §XII integration suite: end-to-end query fault tolerance under
//! deterministic fault injection — worker crash recovery via split
//! reassignment, recovery-off counterfactuals on the same fault schedule,
//! same-seed reproducibility, cancellation of doomed queries, and gateway
//! failover after a cluster-level failure.

use std::time::Duration;

use presto_cluster::{ClusterConfig, PrestoCluster, PrestoGateway, WorkerState};
use presto_common::{FaultInjector, FaultPlan, SimClock, Value};
use presto_connectors::mysql::MySqlConnector;
use presto_core::Session;

mod common;
use common::{cluster, engine_with_table};

const COUNT_SQL: &str = "SELECT count(*) FROM t";

#[test]
fn worker_crash_mid_query_recovers_via_split_reassignment() {
    // worker 2 dies when it picks up its second split; the coordinator
    // reassigns its unfinished splits to the three survivors and the query
    // still answers correctly.
    let c = cluster(ClusterConfig {
        initial_workers: 4,
        fault_injector: FaultInjector::new(11, FaultPlan::new().crash_on_task(2, 2)),
        ..ClusterConfig::default()
    });
    let result = c.execute(COUNT_SQL, &Session::default()).unwrap();
    assert_eq!(result.rows(), vec![vec![Value::Bigint(600)]]);
    assert!(c.metrics().get("cluster.split_retries") > 0, "splits were reassigned");
    assert_eq!(c.metrics().get("cluster.queries_failed"), 0);
    assert_eq!(c.metrics().get("cluster.worker_failures"), 1);
    let crashed: Vec<u32> =
        c.workers().iter().filter(|w| w.state() == WorkerState::Crashed).map(|w| w.id).collect();
    assert_eq!(crashed, vec![2]);
    // the shrunken fleet keeps serving later queries without the dead node
    let again = c.execute(COUNT_SQL, &Session::default()).unwrap();
    assert_eq!(again.rows(), vec![vec![Value::Bigint(600)]]);
}

#[test]
fn recovery_disabled_fails_on_the_same_fault_schedule() {
    // identical seed and plan as the recovery test: with recovery off the
    // very same injected crash fails the query instead.
    let c = cluster(ClusterConfig {
        initial_workers: 4,
        fault_injector: FaultInjector::new(11, FaultPlan::new().crash_on_task(2, 2)),
        fault_recovery: false,
        ..ClusterConfig::default()
    });
    let err = c.execute(COUNT_SQL, &Session::default()).unwrap_err();
    assert_eq!(err.code(), "WORKER_FAILED");
    assert_eq!(c.metrics().get("cluster.split_retries"), 0);
    assert_eq!(c.metrics().get("cluster.queries_failed"), 1);
}

#[test]
fn same_seed_twice_replays_byte_identical_results_and_counters() {
    let run = || {
        let c = cluster(ClusterConfig {
            initial_workers: 4,
            fault_injector: FaultInjector::new(
                42,
                FaultPlan::new().fail_rate(0.2).crash_on_task(1, 3),
            ),
            max_split_attempts: 6,
            blacklist_after: 0, // keep every surviving worker schedulable
            ..ClusterConfig::default()
        });
        let session = Session::default();
        let mut transcript = Vec::new();
        for _ in 0..10 {
            let r = c.execute("SELECT sum(x), count(*) FROM t", &session).unwrap();
            transcript.push(format!("{:?}", r.rows()));
        }
        (
            transcript,
            c.metrics().get("cluster.split_retries"),
            c.metrics().get("cluster.worker_failures"),
            c.metrics().get("cluster.queries_failed"),
            c.clock().now(),
        )
    };
    let a = run();
    let b = run();
    assert!(a.1 > 0, "the schedule must contain retries for this to mean anything");
    assert_eq!(a, b, "same seed ⇒ same rows, same counters, same virtual time");
}

#[test]
fn timed_crash_fires_at_virtual_time() {
    let c = cluster(ClusterConfig {
        initial_workers: 3,
        fault_injector: FaultInjector::new(
            2,
            FaultPlan::new().crash_at(0, Duration::from_secs(60)),
        ),
        ..ClusterConfig::default()
    });
    let session = Session::default();
    c.execute(COUNT_SQL, &session).unwrap();
    assert_eq!(c.workers()[0].state(), WorkerState::Active, "before T nothing happens");
    c.clock().advance(Duration::from_secs(60));
    let result = c.execute(COUNT_SQL, &session).unwrap();
    assert_eq!(result.rows(), vec![vec![Value::Bigint(600)]]);
    assert_eq!(c.workers()[0].state(), WorkerState::Crashed);
    assert_eq!(c.metrics().get("cluster.queries_failed"), 0);
}

#[test]
fn terminal_failure_cancels_remaining_scans() {
    // recovery off: the injected fault on the very first task dooms the
    // query; the shared cancel flag stops the worker from scanning any of
    // the remaining 11 splits.
    let c = cluster(ClusterConfig {
        initial_workers: 1,
        fault_injector: FaultInjector::new(1, FaultPlan::new().fail_task(0, 1)),
        fault_recovery: false,
        ..ClusterConfig::default()
    });
    let err = c.execute(COUNT_SQL, &Session::default()).unwrap_err();
    assert!(err.is_retryable(), "{err}");
    assert_eq!(c.metrics().get("cluster.queries_failed"), 1);
    assert_eq!(
        c.workers()[0].completed_tasks(),
        0,
        "cancellation stopped the doomed query's remaining splits"
    );
}

#[test]
fn gateway_fails_over_after_the_cluster_gives_up() {
    // the primary's only workers drop every task, so the per-split attempt
    // budget runs out and the cluster fails the query with a *retryable*
    // error — which the gateway turns into one failover to the default
    // route's cluster.
    let gateway = PrestoGateway::new(MySqlConnector::new()).unwrap();
    let primary = PrestoCluster::new(
        "primary",
        engine_with_table(),
        ClusterConfig {
            initial_workers: 2,
            fault_injector: FaultInjector::new(5, FaultPlan::new().fail_rate(1.0)),
            max_split_attempts: 2,
            blacklist_after: 0,
            ..ClusterConfig::default()
        },
        SimClock::new(),
    );
    let fallback = PrestoCluster::new(
        "standby",
        engine_with_table(),
        ClusterConfig { initial_workers: 2, ..ClusterConfig::default() },
        SimClock::new(),
    );
    gateway.add_cluster(primary.clone());
    gateway.add_cluster(fallback.clone());
    gateway.set_route("*", "standby").unwrap();
    gateway.set_route("ads", "primary").unwrap();

    let result = gateway.submit("ads", COUNT_SQL, &Session::default()).unwrap();
    assert_eq!(result.rows(), vec![vec![Value::Bigint(600)]]);
    assert_eq!(gateway.metrics().get("gateway.retried_queries"), 1);
    assert_eq!(primary.metrics().get("cluster.queries_failed"), 1);
    assert_eq!(fallback.metrics().get("cluster.queries_failed"), 0);
    assert_eq!(fallback.queries_started(), 1);
}
