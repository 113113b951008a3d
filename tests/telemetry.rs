//! Telemetry layer end-to-end: property-based invariants for the
//! fixed-interval [`TimeSeries`] ring buffer (wraparound, merge
//! associativity, sample-count bounds, digest stability under thread
//! interleaving) plus bit-identical `system.*` table scans across
//! same-seed cluster runs.
//!
//! [`TimeSeries`]: presto_common::TimeSeries

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::names;
use presto_common::{
    Block, DataType, Field, Page, Schema, SimClock, TimeSeries, TimeSeriesSet, Value,
};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};

// ------------------------------------------------------ ring-buffer invariants

fn series_from(interval_us: u64, capacity: usize, samples: &[(u64, u64)]) -> TimeSeries {
    let mut ts = TimeSeries::new(interval_us, capacity);
    for &(at_us, v) in samples {
        ts.record(Duration::from_micros(at_us), v);
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wraparound_retains_exactly_the_newest_buckets(
        interval_us in 1u64..1_000,
        capacity in 1usize..32,
        buckets in 2usize..200,
        value in 1u64..1_000,
    ) {
        // one sample per consecutive bucket: the window must slide, keeping
        // the last `capacity` buckets with their values intact
        let samples: Vec<(u64, u64)> =
            (0..buckets).map(|b| (b as u64 * interval_us, value)).collect();
        let ts = series_from(interval_us, capacity, &samples);
        prop_assert_eq!(ts.len(), buckets.min(capacity));
        prop_assert_eq!(ts.samples(), buckets as u64, "in-order samples are never dropped");
        let points = ts.points();
        let first_kept = buckets.saturating_sub(capacity) as u64;
        prop_assert_eq!(points[0].0, first_kept * interval_us, "window starts at the slide point");
        prop_assert!(points.iter().all(|&(_, v)| v == value), "values survive the wrap");
        prop_assert_eq!(ts.peak(), value);
    }

    #[test]
    fn same_bucket_samples_accumulate_and_len_is_bounded(
        interval_us in 1u64..500,
        capacity in 1usize..16,
        offsets in proptest::collection::vec((0u64..10_000, 1u64..100), 1..64),
    ) {
        let ts = series_from(interval_us, capacity, &offsets);
        prop_assert!(ts.len() <= ts.capacity(), "never more than capacity buckets");
        prop_assert!(ts.samples() <= offsets.len() as u64, "accepted ≤ offered");
        prop_assert!(ts.samples() >= 1, "the first sample is always accepted");
        // recorded in time order, nothing is ever too old to accept
        let mut sorted = offsets.clone();
        sorted.sort();
        let ordered = series_from(interval_us, capacity, &sorted);
        prop_assert_eq!(ordered.samples(), offsets.len() as u64);
    }

    #[test]
    fn merge_is_associative_and_commutative(
        interval_us in 1u64..200,
        capacity in 1usize..16,
        a in proptest::collection::vec((0u64..5_000, 0u64..50), 0..24),
        b in proptest::collection::vec((0u64..5_000, 0u64..50), 0..24),
        c in proptest::collection::vec((0u64..5_000, 0u64..50), 0..24),
    ) {
        let build = |samples: &[(u64, u64)]| {
            let mut sorted = samples.to_vec();
            sorted.sort();
            series_from(interval_us, capacity, &sorted)
        };
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
        let mut left = build(&a);
        left.merge(&build(&b));
        left.merge(&build(&c));
        let mut bc = build(&b);
        bc.merge(&build(&c));
        let mut right = build(&a);
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.digest(), right.digest());
        // a ⊕ b == b ⊕ a
        let mut ab = build(&a);
        ab.merge(&build(&b));
        let mut ba = build(&b);
        ba.merge(&build(&a));
        prop_assert_eq!(&ab, &ba);
    }

    #[test]
    fn set_digest_is_stable_under_worker_thread_interleaving(
        seed in any::<u64>(),
        workers in 2u32..6,
        ticks in 1u64..40,
    ) {
        // every worker thread samples its own keyed series; however the OS
        // interleaves them, the BTree-keyed registry digests identically
        let run = || {
            let set = TimeSeriesSet::new(100, 64);
            let handles: Vec<_> = (0..workers)
                .map(|id| {
                    let set = set.clone();
                    std::thread::spawn(move || {
                        for t in 0..ticks {
                            let v = (seed ^ u64::from(id)).wrapping_mul(t + 1) % 100;
                            set.sample_for(
                                names::TS_WORKER_BUSY_PCT,
                                id,
                                Duration::from_micros(t * 100),
                                v,
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("sampler thread panicked");
            }
            set.digest()
        };
        prop_assert_eq!(run(), run());
    }
}

// ------------------------------------------------- system tables end-to-end

fn engine_with_orders() -> PrestoEngine {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let orders = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("city", DataType::Varchar),
    ])
    .unwrap();
    let cities = ["sf", "nyc", "la"];
    let pages: Vec<Page> = (0..4)
        .map(|p| {
            let ids: Vec<i64> = (p * 25..p * 25 + 25).collect();
            let names: Vec<&str> = ids.iter().map(|&i| cities[i as usize % 3]).collect();
            Page::new(vec![Block::bigint(ids), Block::varchar(&names)]).unwrap()
        })
        .collect();
    memory.create_table("default", "orders", orders, pages).unwrap();
    engine.register_catalog("memory", Arc::new(memory));
    engine
}

const SYSTEM_TABLES: [&str; 4] =
    ["system.runtime.queries", "system.runtime.tasks", "system.runtime.workers", "system.metrics"];

fn run_and_scan_system_tables() -> Vec<Vec<Vec<Value>>> {
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(
        "sys-e2e",
        engine_with_orders(),
        ClusterConfig { initial_workers: 3, ..ClusterConfig::default() },
        clock.clone(),
    );
    let session = Session::default();
    for _ in 0..4 {
        cluster
            .execute("SELECT city, count(*) FROM orders GROUP BY 1 ORDER BY 1", &session)
            .unwrap();
    }
    cluster.tick();
    clock.advance(Duration::from_millis(1));
    cluster.tick();
    SYSTEM_TABLES
        .iter()
        .map(|table| {
            let result = cluster.execute(&format!("SELECT * FROM {table}"), &session).unwrap();
            result.rows()
        })
        .collect()
}

#[test]
fn system_tables_reflect_live_cluster_state() {
    let tables = run_and_scan_system_tables();
    let (queries, tasks, workers, metrics) = (&tables[0], &tables[1], &tables[2], &tables[3]);

    // 4 user queries plus the system scans issued before each table read
    assert!(queries.len() >= 4, "system.runtime.queries rows: {}", queries.len());
    assert!(
        queries.iter().all(|r| r[1] == Value::Varchar("finished".into())),
        "all queries finished"
    );
    assert!(!tasks.is_empty(), "system.runtime.tasks must list completed scan tasks");
    assert_eq!(workers.len(), 3, "one row per worker");
    assert!(
        workers.iter().all(|r| r[2] == Value::Varchar("active".into())),
        "all workers active: {workers:?}"
    );
    // metrics table lists the sampler's series (worker busy, fleet busy,
    // memory, cache) plus the gauges
    let metric_names: Vec<String> = metrics.iter().map(|r| r[0].to_string()).collect();
    for expect in [names::TS_FLEET_BUSY_PCT, names::TS_MEMORY_UTIL_PCT, names::GAUGE_ACTIVE_WORKERS]
    {
        assert!(
            metric_names.iter().any(|n| n.contains(expect)),
            "system.metrics missing {expect}: {metric_names:?}"
        );
    }
}

#[test]
fn system_table_scans_are_bit_identical_across_same_seed_runs() {
    let (a, b) = (run_and_scan_system_tables(), run_and_scan_system_tables());
    assert_eq!(a, b, "same-seed system.* scans must return identical rows");
}

#[test]
fn projection_and_predicate_push_into_system_tables() {
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(
        "sys-pushdown",
        engine_with_orders(),
        ClusterConfig { initial_workers: 2, ..ClusterConfig::default() },
        clock.clone(),
    );
    let session = Session::default();
    cluster.execute("SELECT count(*) FROM orders", &session).unwrap();
    cluster.tick();
    let result = cluster
        .execute(
            "SELECT worker_id FROM system.runtime.workers WHERE lifecycle = 'active' \
             ORDER BY worker_id",
            &session,
        )
        .unwrap();
    let rows = result.rows();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], vec![Value::Bigint(0)]);
    assert_eq!(rows[1], vec![Value::Bigint(1)]);
}
