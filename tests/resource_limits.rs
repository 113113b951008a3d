//! Integration tests for the resource-management subsystem (§XII.C):
//! budgeted queries spilling under concurrency, spill-to-disk result
//! equality, and the OOM arbiter.

use std::sync::Arc;
use std::time::Duration;

use presto_common::metrics::CounterSet;
use presto_common::{Block, DataType, Field, Page, Schema, SimClock, Value};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};
use presto_resource::{MemoryPool, ReservationKind, ResourceManager, SpillManager};
use proptest::prelude::*;

/// An engine over a 64-row trips table (8 cities, 8 trips each).
fn engine_with_trips() -> PrestoEngine {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("city", DataType::Varchar),
        Field::new("fare", DataType::Double),
    ])
    .unwrap();
    let cities: Vec<String> = (0..64).map(|i| format!("city{}", i % 8)).collect();
    let city_refs: Vec<&str> = cities.iter().map(String::as_str).collect();
    let page = Page::new(vec![
        Block::bigint((0..64).collect()),
        Block::varchar(&city_refs),
        Block::double((0..64).map(|i| i as f64).collect()),
    ])
    .unwrap();
    memory.create_table("default", "trips", schema, vec![page]).unwrap();
    engine.register_catalog("memory", Arc::new(memory));
    engine
}

const JOIN_SQL: &str = "SELECT count(*) FROM trips a JOIN trips b ON a.city = b.city";

/// N concurrent queries, each under a memory budget of half the join's
/// unconstrained peak: every query spills, returns the unconstrained rows,
/// and the cluster pool drains to 0 once the burst is over.
#[test]
fn concurrent_budgeted_queries_spill_and_drain_the_pool() {
    const N: usize = 4;
    let engine = engine_with_trips();

    // Self-calibrate the budget: half the unconstrained peak forces spilling.
    let unconstrained = engine.execute_with_session(JOIN_SQL, &Session::default()).unwrap();
    let expected = unconstrained.rows();
    let peak = unconstrained.metrics.get("memory.reserved_peak") as usize;
    assert!(peak > 0, "join should have reserved memory");
    let budget = peak / 2;

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let engine = engine.clone();
                scope.spawn(move || {
                    let session = Session::default().with_memory_budget(budget).with_spill(true);
                    engine.execute_with_session(JOIN_SQL, &session)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for result in results {
        let result = result.expect("every budgeted query completes");
        assert_eq!(result.rows(), expected);
        assert!(result.metrics.get("spill.bytes_written") > 0, "budgeted queries should spill");
    }
    assert_eq!(engine.resources().pool().used(), 0, "pool drained after the burst");
}

/// Spilling must not change results: aggregation, join, and sort all return
/// exactly what the unconstrained run returns.
#[test]
fn spilled_queries_match_unconstrained_results() {
    let engine = engine_with_trips();
    let queries = [
        "SELECT city, count(*), sum(fare) FROM trips GROUP BY city",
        "SELECT count(*) FROM trips a JOIN trips b ON a.city = b.city",
        "SELECT id, fare FROM trips ORDER BY fare DESC, id",
    ];
    for sql in queries {
        let unconstrained = engine.execute_with_session(sql, &Session::default()).unwrap();
        let peak = unconstrained.metrics.get("memory.reserved_peak") as usize;
        assert!(peak > 0, "{sql}: expected a blocking operator");
        let session = Session::default().with_memory_budget(peak / 2).with_spill(true);
        let spilled = engine.execute_with_session(sql, &session).unwrap();
        assert_eq!(spilled.rows(), unconstrained.rows(), "{sql}");
        assert!(spilled.metrics.get("spill.files") > 0, "{sql}: expected the query to spill");
    }
}

/// With spill disabled and the cluster pool exhausted, the OOM arbiter kills
/// the largest query — here the requester itself is the only (and largest)
/// query, and its error is the dedicated `EXCEEDED_MEMORY_LIMIT` code, not
/// the per-query budget message.
#[test]
fn oom_arbiter_kills_the_requester_when_it_is_largest() {
    // below the join's key table (8 cities × 48 bytes): its build side
    // holds no column, as nothing above reads one
    let engine =
        engine_with_trips().with_resources(ResourceManager::new(Some(256), SimClock::new()));
    let err = engine.execute_with_session(JOIN_SQL, &Session::default()).unwrap_err();
    assert_eq!(err.code(), "EXCEEDED_MEMORY_LIMIT", "{err}");
    assert_eq!(engine.resources().pool().used(), 0, "killed query released everything");
    // the pool recovered: small queries still run
    let small = engine.execute("SELECT count(*) FROM trips").unwrap();
    assert_eq!(small.rows(), vec![vec![Value::Bigint(64)]]);
}

/// Two queries on one bounded pool: when the pool runs dry the arbiter kills
/// the LARGEST query, and the smaller requester then proceeds.
#[test]
fn oom_arbiter_spares_the_smaller_query() {
    let cluster = MemoryPool::new(Some(1000));
    let big = cluster.register_query(None);
    let small = cluster.register_query(None);

    let (big_result, small_result) = std::thread::scope(|scope| {
        let big_handle = scope.spawn(|| -> Result<(), presto_common::PrestoError> {
            let _guard = big.reserve(800, ReservationKind::User)?;
            // simulate an executing operator hitting page boundaries until
            // the arbiter's verdict arrives
            loop {
                big.check_killed()?;
                #[allow(clippy::disallowed_methods, reason = "the test polls the arbiter thread")]
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // wait until the big query holds its memory
        while cluster.used() < 800 {
            #[allow(clippy::disallowed_methods, reason = "the test polls the arbiter thread")]
            std::thread::sleep(Duration::from_millis(1));
        }
        let small_handle = scope.spawn(|| {
            let guard = small.reserve(400, ReservationKind::User)?;
            drop(guard);
            Ok::<(), presto_common::PrestoError>(())
        });
        (big_handle.join().unwrap(), small_handle.join().unwrap())
    });

    let err = big_result.unwrap_err();
    assert_eq!(err.code(), "EXCEEDED_MEMORY_LIMIT", "{err}");
    small_result.expect("the smaller query survives and gets its memory");
    assert!(!small.is_killed());
    assert_eq!(cluster.used(), 0);
}

// ------------------------------------------------ spill round-trip property

fn arb_value(dt: &DataType) -> BoxedStrategy<Value> {
    match dt {
        DataType::Bigint => prop_oneof![
            4 => any::<i64>().prop_map(Value::Bigint),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Double => prop_oneof![
            4 => (-1e12f64..1e12).prop_map(Value::Double),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Varchar => prop_oneof![
            4 => "[a-z]{0,12}".prop_map(Value::Varchar),
            1 => Just(Value::Null),
        ]
        .boxed(),
        _ => unreachable!("unused in this test"),
    }
}

fn arb_pages() -> impl Strategy<Value = (Schema, Vec<Page>)> {
    let types = [DataType::Bigint, DataType::Double, DataType::Varchar];
    let schema = Schema::new(
        types.iter().enumerate().map(|(i, dt)| Field::new(format!("col{i}"), dt.clone())).collect(),
    )
    .unwrap();
    let row =
        (arb_value(&DataType::Bigint), arb_value(&DataType::Double), arb_value(&DataType::Varchar))
            .prop_map(|(a, b, c)| vec![a, b, c]);
    let page = proptest::collection::vec(row, 1..40).prop_map({
        let schema = schema.clone();
        move |rows| {
            let blocks = schema
                .fields()
                .iter()
                .enumerate()
                .map(|(c, field)| {
                    let column: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                    Block::from_values(&field.data_type, &column).unwrap()
                })
                .collect();
            Page::new(blocks).unwrap()
        }
    });
    proptest::collection::vec(page, 1..4).prop_map(move |pages| (schema.clone(), pages))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary pages survive a spill → read-back cycle row for row.
    #[test]
    fn spill_round_trips_arbitrary_pages(input in arb_pages()) {
        let (schema, pages) = input;
        let spill = SpillManager::in_memory(CounterSet::new());
        let file = spill.spill_pages(&schema, &pages).unwrap();
        let back = spill.read(&file).unwrap();
        let original: Vec<Vec<Value>> = pages.iter().flat_map(|p| p.rows()).collect();
        let restored: Vec<Vec<Value>> = back.iter().flat_map(|p| p.rows()).collect();
        prop_assert_eq!(restored, original);
        prop_assert!(spill.metrics().get("spill.bytes_written") > 0);
        spill.remove(file).unwrap();
    }
}
