//! Observability layer end-to-end: histogram invariants (property-based),
//! EXPLAIN ANALYZE over a join+aggregation, and bit-identical trace digests
//! for same-seed fault-injected cluster runs.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::{names, CounterSet, Histogram};
use presto_common::trace::SpanKind;
use presto_common::{
    Block, DataType, FaultInjector, FaultPlan, Field, Page, Schema, SimClock, Value,
};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};

// ------------------------------------------------------ histogram invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(any::<u64>(), 1..200),
        qs in proptest::collection::vec(0.0f64..1.0, 2..8),
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        // p(0) is the upper bound of min's log2 bucket: within [min, 2·min]
        let p0 = h.quantile(0.0);
        prop_assert!(p0 >= lo && p0 <= lo.saturating_mul(2).min(hi).max(lo), "p(0) = {p0}");
        prop_assert_eq!(h.quantile(1.0), hi, "p(1) is exactly the max");
        let mut qs = qs;
        qs.sort_by(f64::total_cmp);
        for pair in qs.windows(2) {
            // monotone in q, and always inside the observed range
            prop_assert!(h.quantile(pair[0]) <= h.quantile(pair[1]));
        }
        for &q in &qs {
            let v = h.quantile(q);
            prop_assert!(v >= lo && v <= hi, "p({q}) = {v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantile_stays_within_its_bucket(value in any::<u64>(), extra in any::<u64>()) {
        // log2 buckets: an estimate may round up, but never past twice the
        // true value (bucket i covers [2^(i-1), 2^i - 1]) nor past the max.
        let mut h = Histogram::new();
        h.record(value);
        h.record(extra);
        let p50 = h.quantile(0.5);
        let floor = value.min(extra);
        prop_assert!(p50 >= floor);
        prop_assert!(p50 <= floor.saturating_mul(2).max(1).min(h.max()));
    }

    #[test]
    fn merge_is_associative_and_matches_bulk_recording(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
        c in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let hist = |values: &[u64]| {
            let mut h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            h
        };
        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut left = hist(&a);
        left.merge(&hist(&b));
        left.merge(&hist(&c));
        let mut bc = hist(&b);
        bc.merge(&hist(&c));
        let mut right = hist(&a);
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // and both equal recording everything into one histogram
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &hist(&all));
    }
}

#[test]
fn counter_clear_drops_stale_keys_between_phases() {
    let metrics = CounterSet::new();
    metrics.incr(names::FRC_HITS);
    metrics.reset();
    assert!(metrics.snapshot().contains_key(names::FRC_HITS), "reset keeps stale keys");
    metrics.clear();
    assert!(metrics.snapshot().is_empty(), "clear drops them");
    metrics.incr(names::FRC_MISSES);
    assert_eq!(metrics.snapshot().len(), 1);
}

// ------------------------------------------------------------- e2e fixtures

fn engine_with_orders() -> PrestoEngine {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let cities = ["sf", "nyc", "la"];
    let orders = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("city", DataType::Varchar),
        Field::new("amount", DataType::Double),
    ])
    .unwrap();
    let pages: Vec<Page> = (0..6)
        .map(|p| {
            let ids: Vec<i64> = (p * 20..p * 20 + 20).collect();
            let names: Vec<&str> = ids.iter().map(|&i| cities[i as usize % 3]).collect();
            let amounts: Vec<f64> = ids.iter().map(|&i| i as f64).collect();
            Page::new(vec![Block::bigint(ids), Block::varchar(&names), Block::double(amounts)])
                .unwrap()
        })
        .collect();
    memory.create_table("default", "orders", orders, pages).unwrap();
    let rates = Schema::new(vec![
        Field::new("city", DataType::Varchar),
        Field::new("fee", DataType::Double),
    ])
    .unwrap();
    let page =
        Page::new(vec![Block::varchar(&cities), Block::double(vec![1.0, 2.0, 3.0])]).unwrap();
    memory.create_table("default", "rates", rates, vec![page]).unwrap();
    engine.register_catalog("memory", Arc::new(memory));
    engine
}

const JOIN_AGG: &str = "SELECT o.city, count(*), sum(o.amount) \
                        FROM orders o JOIN rates r ON o.city = r.city \
                        GROUP BY 1 ORDER BY 1";

#[test]
fn explain_analyze_annotates_every_operator_of_a_join_agg() {
    let engine = engine_with_orders();
    let result = engine.execute(&format!("EXPLAIN ANALYZE {JOIN_AGG}")).unwrap();
    let text = result.rows()[0][0].to_string();
    for operator in ["TableScan", "InnerJoin", "Aggregate", "Sort"] {
        assert!(text.contains(operator), "missing {operator} in:\n{text}");
    }
    // every line is either an annotated operator or the telemetry footer
    let (footer, operators): (Vec<&str>, Vec<&str>) = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .partition(|l| l.trim_start().starts_with("Telemetry"));
    for line in operators {
        for stat in ["rows:", "busy:", "peak:", "spilled:"] {
            assert!(line.contains(stat), "operator missing {stat}: {line}");
        }
    }
    assert_eq!(footer.len(), 1, "exactly one telemetry footer:\n{text}");
    assert!(footer[0].contains("snapshots:") && footer[0].contains("peak busy:"), "{}", footer[0]);
    // EXPLAIN ANALYZE really ran the query: the scans saw the table's rows
    assert!(text.contains("120 in"), "orders scan should read 120 rows:\n{text}");
}

#[test]
fn explain_analyze_matches_the_plain_query_answer() {
    let engine = engine_with_orders();
    let plain = engine.execute(JOIN_AGG).unwrap();
    assert_eq!(plain.rows()[0][0], Value::Varchar("la".into()));
    // the analyzed run reports the same cardinalities the plain run returned
    let analyzed = engine.execute(&format!("EXPLAIN ANALYZE {JOIN_AGG}")).unwrap();
    let text = analyzed.rows()[0][0].to_string();
    assert!(text.contains(&format!("{} out", plain.rows().len())), "{text}");
}

#[test]
fn cluster_trace_covers_query_stage_task_operator() {
    let cluster = PrestoCluster::new(
        "obs-e2e",
        engine_with_orders(),
        ClusterConfig { initial_workers: 3, ..ClusterConfig::default() },
        SimClock::new(),
    );
    let result = cluster.execute(JOIN_AGG, &Session::default()).unwrap();
    let spans = result.info.trace.spans();
    for kind in [SpanKind::Query, SpanKind::Stage, SpanKind::Task, SpanKind::Operator] {
        assert!(spans.iter().any(|s| s.kind == kind), "no {kind:?} span");
    }
    assert!(result.info.latency > Duration::ZERO);
    let h = cluster.histograms().get(names::HIST_CLUSTER_QUERY_LATENCY_US);
    assert_eq!(h.count(), 1);
}

#[test]
fn explain_analyze_footer_reports_cluster_telemetry_after_ticks() {
    let clock = SimClock::new();
    let cluster = PrestoCluster::new(
        "obs-telemetry",
        engine_with_orders(),
        ClusterConfig { initial_workers: 3, ..ClusterConfig::default() },
        clock.clone(),
    );
    // before any lifecycle tick: the footer exists but shows zero snapshots
    let cold = cluster.engine().execute(&format!("EXPLAIN ANALYZE {JOIN_AGG}")).unwrap().rows()[0]
        [0]
    .to_string();
    assert!(cold.contains("snapshots: 0"), "{cold}");

    // run load, then take two telemetry snapshots on the cluster clock
    for _ in 0..3 {
        cluster.execute(JOIN_AGG, &Session::default()).unwrap();
    }
    cluster.tick();
    clock.advance(Duration::from_millis(2));
    cluster.tick();

    let text = cluster.engine().execute(&format!("EXPLAIN ANALYZE {JOIN_AGG}")).unwrap().rows()[0]
        [0]
    .to_string();
    let footer = text
        .lines()
        .find(|l| l.trim_start().starts_with("Telemetry"))
        .expect("EXPLAIN ANALYZE must end with a telemetry footer");
    assert!(footer.contains("snapshots: 2"), "{footer}");
    // the fleet ran real (virtual-time) work before the first snapshot, so
    // the sampled peak busy-fraction is a live nonzero percentage
    assert!(!footer.contains("peak busy: 0%"), "{footer}");
    assert_eq!(
        cluster.telemetry().snapshots(),
        2,
        "footer and registry must agree on the snapshot count"
    );
}

#[test]
fn same_seed_chaos_streams_replay_identical_trace_digests() {
    let run = || {
        let cluster = PrestoCluster::new(
            "chaos-e2e",
            engine_with_orders(),
            ClusterConfig {
                initial_workers: 3,
                fault_injector: FaultInjector::new(
                    11,
                    FaultPlan::new().fail_rate(0.15).crash_on_task(1, 9),
                ),
                ..ClusterConfig::default()
            },
            SimClock::new(),
        );
        let session = Session::default();
        let mut digests = Vec::new();
        for _ in 0..10 {
            if let Ok(result) = cluster.execute(JOIN_AGG, &session) {
                digests.push(result.info.trace.digest());
            }
        }
        assert!(!digests.is_empty(), "some queries must survive the chaos");
        digests
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed must replay the exact same span trees");
}
