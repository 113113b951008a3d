//! The Druid/Pinot store's columnar kernel against a row-at-a-time
//! reference:
//! - random tables × random native queries, raw scans and connector split
//!   scans must return exactly what a naive evaluator over `Vec<Vec<Value>>`
//!   returns (doubles bit for bit), and charge exactly the closed-form
//!   virtual cost;
//! - through SQL, Druid and Pinot must answer the same with every pushdown
//!   on and off, including plans that run filter / project / aggregate /
//!   join / sort over the `Block::Dictionary` pages a raw scan emits.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::druid::druid_connector;
use presto_connectors::memory::MemoryConnector;
use presto_connectors::pinot::pinot_connector;
use presto_connectors::realtime::{
    NativeQuery, RealtimeConnector, RealtimeCostModel, RealtimeStore, ScanCost,
};
use presto_connectors::{
    AggregationPushdown, ColumnPath, Connector, PushdownPredicate, ScanHooks, ScanRequest,
    SplitPayload,
};
use presto_core::{PrestoEngine, Session};
use presto_expr::{Accumulator, AggregateFunction};
use presto_parquet::ScalarPredicate;
use presto_plan::OptimizerConfig;

// ------------------------------------------------------ reference evaluator

const COLUMNS: [(&str, DataType); 6] = [
    ("ts", DataType::Timestamp),
    ("d0", DataType::Varchar),
    ("d1", DataType::Varchar),
    ("big", DataType::Bigint),
    ("int", DataType::Integer),
    ("dbl", DataType::Double),
];

fn schema() -> Schema {
    Schema::new(COLUMNS.iter().map(|(n, t)| Field::new(*n, t.clone())).collect()).unwrap()
}

fn column_index(name: &str) -> usize {
    COLUMNS.iter().position(|(n, _)| *n == name).unwrap()
}

fn cost_model() -> RealtimeCostModel {
    RealtimeCostModel {
        per_segment_base: Duration::from_micros(600),
        per_matched_row: Duration::from_nanos(150),
        per_streamed_row: Duration::from_micros(2),
    }
}

/// What ingest stores for a cell: columns are NOT NULL, a NULL or mistyped
/// cell is `""` / `0`, numbers are cast to the column's type.
fn coerce(data_type: &DataType, v: &Value) -> Value {
    let integer = |v: &Value| match v {
        Value::Bigint(x) => *x,
        Value::Integer(x) => i64::from(*x),
        Value::Double(x) => *x as i64,
        _ => 0,
    };
    match data_type {
        DataType::Timestamp => Value::Timestamp(v.as_i64().unwrap_or(0)),
        DataType::Varchar => Value::Varchar(v.as_str().unwrap_or("").to_string()),
        DataType::Bigint => Value::Bigint(integer(v)),
        DataType::Integer => {
            Value::Integer(integer(v).clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32)
        }
        _ => Value::Double(v.as_f64().unwrap_or(0.0)),
    }
}

/// The store as the parent commit ran it: rows, one cell at a time.
struct Reference {
    segments: Vec<Vec<Vec<Value>>>,
    cost: RealtimeCostModel,
}

impl Reference {
    fn range(&self, range: Option<(usize, usize)>) -> &[Vec<Vec<Value>>] {
        let (start, end) = range.unwrap_or((0, self.segments.len()));
        self.segments.get(start..end.min(self.segments.len())).unwrap_or(&[])
    }

    fn matching<'a>(
        segment: &'a [Vec<Value>],
        filters: &[(String, ScalarPredicate)],
    ) -> Vec<&'a Vec<Value>> {
        segment
            .iter()
            .filter(|row| filters.iter().all(|(c, p)| p.matches(&row[column_index(c)])))
            .collect()
    }

    fn segment_cost(&self, matched: usize) -> Duration {
        self.cost.per_segment_base + self.cost.per_matched_row * matched as u32
    }

    fn native(
        &self,
        query: &NativeQuery,
        range: Option<(usize, usize)>,
    ) -> (Vec<Vec<Value>>, Duration, u64) {
        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        let (mut cost, mut matched) = (Duration::ZERO, 0u64);
        for segment in self.range(range) {
            let rows = Self::matching(segment, &query.filters);
            matched += rows.len() as u64;
            cost = cost.max(self.segment_cost(rows.len()));
            for row in rows {
                let key = query.group_by.iter().map(|g| row[column_index(g)].clone()).collect();
                let accumulators = groups.entry(key).or_insert_with(|| {
                    query.aggregates.iter().map(|(f, _)| f.new_accumulator()).collect()
                });
                for (acc, (function, argument)) in accumulators.iter_mut().zip(&query.aggregates) {
                    match (function, argument) {
                        (AggregateFunction::CountStar, _) | (_, None) => acc.add_count(1),
                        (_, Some(c)) => acc.add(&row[column_index(c)]),
                    }
                }
            }
        }
        let mut rows: Vec<Vec<Value>> = groups
            .into_iter()
            .map(|(mut key, accumulators)| {
                key.extend(accumulators.iter().map(Accumulator::finish));
                key
            })
            .collect();
        // NULLS LAST total order on the key; NaN after the numbers; keys
        // that order calls equal (NaN payloads) by their DOUBLE bits
        let keys = query.group_by.len();
        rows.sort_by(|a, b| {
            let (a, b) = (&a[..keys], &b[..keys]);
            let by_key = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
            let by_bits = a.iter().zip(b).map(|(x, y)| double_bits(x).cmp(&double_bits(y)));
            by_key.chain(by_bits).find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
        });
        if let Some(limit) = query.limit {
            rows.truncate(limit);
        }
        (rows, cost, matched)
    }

    fn scan(
        &self,
        columns: &[String],
        filters: &[(String, ScalarPredicate)],
        limit: Option<usize>,
        range: Option<(usize, usize)>,
    ) -> (Vec<Vec<Value>>, ScanCost) {
        let full = |n: usize| limit.is_some_and(|l| n >= l);
        let mut out = Vec::new();
        let mut filter = Duration::ZERO;
        for segment in self.range(range) {
            if full(out.len()) {
                break;
            }
            // a segment the scan visits is charged for every row it matched
            let rows = Self::matching(segment, filters);
            filter = filter.max(self.segment_cost(rows.len()));
            for row in rows {
                if full(out.len()) {
                    break;
                }
                out.push(columns.iter().map(|c| row[column_index(c)].clone()).collect());
            }
        }
        let stream = self.cost.per_streamed_row * out.len() as u32;
        (out, ScanCost { filter, stream })
    }
}

// --------------------------------------------------------------- generators

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len() as u64) as usize]
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

const BIGS: [i64; 8] = [
    i64::MAX - 1,
    i64::MIN + 1,
    (1 << 53) + 1,
    -(1 << 53) - 1,
    9_007_199_254_740_993,
    3_000_000_000,
    -7,
    90,
];
/// A second NaN payload: groups on it and on `f64::NAN` are distinct, and
/// equal under `total_cmp`.
const OTHER_NAN: f64 = f64::from_bits(0x7ff8_0000_0000_0001);
const DOUBLES: [f64; 9] = [-0.0, 0.0, 1e300, -1e300, f64::INFINITY, f64::NAN, OTHER_NAN, 89.5, 0.1];

fn double_bits(v: &Value) -> Option<u64> {
    match v {
        Value::Double(x) => Some(x.to_bits()),
        _ => None,
    }
}

/// A random table: the store holding it and the reference's copy.
fn random_table(rng: &mut TestRng) -> (RealtimeStore, Reference) {
    let rows_per_segment = 1 + rng.below(40) as usize;
    let store = RealtimeStore::new("druid", rows_per_segment, cost_model());
    store.create_table("s", "t", schema()).unwrap();
    let rows = if chance(rng, 5) { 0 } else { rng.below(260) as usize };
    // cardinality 1 … rows; clustered values are absent from most segments
    let cardinalities = [*pick(rng, &[1, 2, 5, 17, rows.max(1)]), *pick(rng, &[2, 3, 11])];
    let clustered = chance(rng, 50);
    let mut reference = Reference { segments: Vec::new(), cost: cost_model() };
    let mut next = 0usize;
    while next < rows || (rows == 0 && next == 0) {
        let batch = (1 + rng.below(120) as usize).min(rows - next);
        let data: Vec<Vec<Value>> = (next..next + batch)
            .map(|i| {
                let dim = |rng: &mut TestRng, d: usize| {
                    let at = if clustered { i / (5 + 4 * d) } else { rng.below(1 << 20) as usize };
                    Value::Varchar(format!("v{d}_{:03}", at % cardinalities[d]))
                };
                let mut row = vec![
                    Value::Timestamp(i as i64 * 10 - 50),
                    dim(rng, 0),
                    dim(rng, 1),
                    if chance(rng, 70) {
                        Value::Bigint(rng.below(11) as i64 - 5)
                    } else {
                        Value::Bigint(*pick(rng, &BIGS))
                    },
                    Value::Integer(*pick(rng, &[i32::MAX, i32::MIN, -1, 0, 1, 2, 3])),
                    if chance(rng, 70) {
                        Value::Double(rng.below(40) as f64 * 0.25 - 2.0)
                    } else {
                        Value::Double(*pick(rng, &DOUBLES))
                    },
                ];
                // NULLs and mistyped numbers, coerced at ingest
                for cell in row.iter_mut() {
                    if chance(rng, 4) {
                        *cell = Value::Null;
                    }
                }
                if chance(rng, 3) {
                    row[3] = Value::Double(2.75);
                    row[4] = Value::Bigint(5_000_000_000);
                    row[5] = Value::Bigint(3);
                }
                row
            })
            .collect();
        for chunk in data.chunks(rows_per_segment) {
            reference.segments.push(
                chunk
                    .iter()
                    .map(|r| r.iter().zip(&COLUMNS).map(|(v, (_, t))| coerce(t, v)).collect())
                    .collect(),
            );
        }
        store.ingest("s", "t", data).unwrap();
        next += batch.max(1);
    }
    (store, reference)
}

/// A literal to compare `column` with: mostly a value some row holds,
/// sometimes one no row holds, one that needs `sql_cmp` (`big >= 89.5`),
/// an incomparable one (`ts = 7`, `d0 = 7`) or NULL.
fn random_literal(rng: &mut TestRng, column: &str, reference: &Reference) -> Value {
    let rows: Vec<&Vec<Value>> = reference.segments.iter().flatten().collect();
    match rng.below(20) {
        0 => Value::Double(*pick(rng, &[89.5, -0.5, 2.0, 9.007_199_254_740_993e15, f64::NAN])),
        1 => Value::Bigint(*pick(rng, &[0, 2, 90, i64::MAX])),
        2 => Value::Integer(1),
        3 => Value::Varchar(pick(rng, &["", "missing", "v0_", "v1_001"]).to_string()),
        4 => Value::Timestamp(rng.below(300) as i64 * 10 - 45),
        5 if chance(rng, 30) => Value::Null,
        _ if rows.is_empty() => Value::Bigint(1),
        _ => pick(rng, &rows)[column_index(column)].clone(),
    }
}

fn random_filters(rng: &mut TestRng, reference: &Reference) -> Vec<(String, ScalarPredicate)> {
    (0..*pick(rng, &[0, 0, 1, 1, 1, 2, 2, 3]))
        .map(|_| {
            let column = COLUMNS[rng.below(6) as usize].0;
            let pred = match rng.below(6) {
                0 | 1 => ScalarPredicate::Eq(random_literal(rng, column, reference)),
                2 => ScalarPredicate::In(
                    (0..rng.below(5)).map(|_| random_literal(rng, column, reference)).collect(),
                ),
                _ => {
                    let a = random_literal(rng, column, reference);
                    let b = random_literal(rng, column, reference);
                    let (min, max) = match a.sql_cmp(&b) {
                        Some(std::cmp::Ordering::Greater) => (b, a),
                        _ => (a, b),
                    };
                    ScalarPredicate::Range {
                        min: chance(rng, 70).then_some(min),
                        max: chance(rng, 70).then_some(max),
                    }
                }
            };
            (column.to_string(), pred)
        })
        .collect()
}

fn random_aggregates(rng: &mut TestRng) -> Vec<(AggregateFunction, Option<String>)> {
    use AggregateFunction::*;
    (0..rng.below(4))
        .map(|_| {
            let any = COLUMNS[rng.below(6) as usize].0.to_string();
            let metric = pick(rng, &["big", "int", "dbl"]).to_string();
            match rng.below(8) {
                0 | 1 => (CountStar, None),
                2 => (Count, Some(any)),
                3 | 4 => (Sum, Some(metric)),
                5 => (Min, Some(any)),
                6 => (Max, Some(any)),
                _ => (Avg, Some(metric)),
            }
        })
        .collect()
}

/// Up to `at_most` columns; half the time dimensions only.
fn random_columns(rng: &mut TestRng, at_most: u64) -> Vec<String> {
    let from = if chance(rng, 50) { 1..3 } else { 0..6 };
    (0..rng.below(at_most + 1))
        .map(|_| COLUMNS[from.start + rng.below((from.end - from.start) as u64) as usize].0.into())
        .collect()
}

fn random_range(rng: &mut TestRng, segments: usize) -> Option<(usize, usize)> {
    if chance(rng, 50) {
        return None;
    }
    let start = rng.below(segments as u64 + 2) as usize;
    Some((start, start + rng.below(segments as u64 + 2) as usize))
}

fn random_limit(rng: &mut TestRng) -> Option<usize> {
    *pick(rng, &[None, None, None, None, Some(0), Some(1), Some(7), Some(40), Some(usize::MAX)])
}

/// Rows with doubles spelled out to the bit (`-0.0` ≠ `0.0`).
fn exact(rows: &[Vec<Value>]) -> String {
    format!("{rows:?}")
}

fn flatten(pages: &[Page]) -> Vec<Vec<Value>> {
    pages.iter().flat_map(Page::rows).collect()
}

/// One random table and eight random requests against it, through every
/// entry point: the native query, the raw scan and each split of the
/// connector, aggregated and raw.
fn kernel_case(seed: u64) {
    let rng = &mut TestRng::deterministic(&format!("realtime-native-{seed}"));
    let (store, reference) = random_table(rng);
    let connector = RealtimeConnector::new(store.clone());
    let segments = reference.segments.len();
    prop_assert_eq!(store.table("s", "t").unwrap().segment_count(), segments, "seed {}", seed);
    let (mut native_queries, mut matched, mut streamed) = (0u64, 0u64, 0u64);

    for _ in 0..8 {
        let query = NativeQuery {
            filters: random_filters(rng, &reference),
            group_by: random_columns(rng, 3),
            aggregates: random_aggregates(rng),
            limit: random_limit(rng),
        };
        let columns = random_columns(rng, 4);
        let range = random_range(rng, segments);
        let context = format!("seed {seed}: {query:?} columns {columns:?} range {range:?}");

        // the two store entry points
        let got = store.execute_native("s", "t", &query, range).unwrap();
        let (rows, cost, rows_matched) = reference.native(&query, range);
        prop_assert_eq!(exact(&got.rows), exact(&rows), "native rows: {}", context);
        prop_assert_eq!((got.cost, got.rows_matched), (cost, rows_matched), "{}", context);
        native_queries += 1;
        matched += rows_matched;
        let (got_rows, got_cost) =
            store.scan_segments("s", "t", &columns, &query.filters, query.limit, range).unwrap();
        let (rows, cost) = reference.scan(&columns, &query.filters, query.limit, range);
        prop_assert_eq!(exact(&got_rows), exact(&rows), "scan rows: {}", context);
        prop_assert_eq!(got_cost, cost, "{}", context);
        streamed += rows.len() as u64;

        // the connector: every split, aggregated and raw
        let predicate: Vec<PushdownPredicate> = query
            .filters
            .iter()
            .map(|(c, p)| PushdownPredicate { target: ColumnPath::whole(c), predicate: p.clone() })
            .collect();
        let aggregated = ScanRequest {
            predicate: predicate.clone(),
            aggregation: Some(AggregationPushdown {
                group_by: query.group_by.iter().map(ColumnPath::whole).collect(),
                aggregates: query
                    .aggregates
                    .iter()
                    .map(|(f, c)| (*f, c.as_ref().map(ColumnPath::whole)))
                    .collect(),
            }),
            ..ScanRequest::default()
        };
        let raw = ScanRequest {
            columns: columns.iter().map(ColumnPath::whole).collect(),
            predicate,
            limit: query.limit,
            aggregation: None,
        };
        let unlimited = NativeQuery { limit: None, ..query.clone() };
        connector.take_last_scan_costs();
        let mut expected_costs = Vec::new();
        for split in connector.splits("s", "t", &raw).unwrap() {
            let SplitPayload::Segments { start, end } = split.payload else { panic!("split") };
            let pages = connector.scan_split(&split, &aggregated, &ScanHooks::none()).unwrap();
            let (rows, cost, rows_matched) = reference.native(&unlimited, Some((start, end)));
            prop_assert_eq!(exact(&flatten(&pages)), exact(&rows), "partials: {}", context);
            expected_costs.push(ScanCost { filter: cost, stream: Duration::ZERO });
            native_queries += 1;
            matched += rows_matched;

            let pages = connector.scan_split(&split, &raw, &ScanHooks::none()).unwrap();
            let (rows, cost) =
                reference.scan(&columns, &query.filters, query.limit, Some((start, end)));
            prop_assert_eq!(exact(&flatten(&pages)), exact(&rows), "raw split: {}", context);
            prop_assert!(pages.iter().all(|p| !p.is_empty()), "no empty pages: {}", context);
            expected_costs.push(cost);
            streamed += rows.len() as u64;
        }
        prop_assert_eq!(connector.take_last_scan_costs(), expected_costs, "{}", context);
    }
    let counter = |name: &str| store.metrics().get(name);
    prop_assert_eq!(
        (counter("rt.native_queries"), counter("rt.rows_matched"), counter("rt.rows_streamed")),
        (native_queries, matched, streamed),
        "seed {}",
        seed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_equals_row_at_a_time_reference(seed in any::<u64>()) {
        kernel_case(seed);
    }
}

/// [`kernel_case`] over 10k seeds, at soak size.
#[test]
#[ignore = "release soak: `cargo test --release -p presto-at-scale --test realtime_native -- --ignored`"]
fn kernel_equals_row_at_a_time_reference_soak() {
    (0..10_000).for_each(kernel_case);
}

#[test]
fn raw_scans_stay_dictionary_encoded_until_the_limit_makes_that_the_larger_copy() {
    let store = RealtimeStore::new("druid", 100, cost_model());
    store.create_table("s", "t", schema()).unwrap();
    let rows = (0..100i64)
        .map(|i| {
            vec![
                Value::Timestamp(i),
                Value::Varchar(format!("c{}", i % 4)),
                Value::Varchar(format!("u{i:03}")),
                Value::Bigint(i),
                Value::Integer(i as i32),
                Value::Double(i as f64),
            ]
        })
        .collect();
    store.ingest("s", "t", rows).unwrap();
    let connector = RealtimeConnector::new(store);
    let scan = |limit| {
        let request = ScanRequest {
            columns: ["d0", "d1", "int"].into_iter().map(ColumnPath::whole).collect(),
            limit,
            ..ScanRequest::default()
        };
        let split = &connector.splits("s", "t", &request).unwrap()[0];
        connector.scan_split(split, &request, &ScanHooks::none()).unwrap().remove(0)
    };
    let whole = scan(None);
    assert!(
        matches!(whole.block(0), Block::Dictionary { dictionary, .. } if dictionary.len() == 4)
    );
    assert!(matches!(whole.block(1), Block::Dictionary { .. }));
    assert!(matches!(whole.block(2), Block::Integer { .. }));
    // 10 rows: fewer than d1's 100 dictionary entries, more than d0's 4
    let limited = scan(Some(10));
    assert!(matches!(limited.block(0), Block::Dictionary { .. }));
    assert!(matches!(limited.block(1), Block::Varchar { .. }));
    assert_eq!(limited.rows(), whole.rows()[..10]);
}

/// Groups whose DOUBLE keys differ only in NaN payload tie under
/// `total_cmp`: native rows and the connector's partial page order them by
/// their bits, whatever order the group map holds them in (each fresh
/// store's map hashes with fresh seeds).
#[test]
fn nan_payload_groups_come_out_in_one_order() {
    let schema = Schema::new(vec![
        Field::new("ts", DataType::Timestamp),
        Field::new("d", DataType::Varchar),
        Field::new("x", DataType::Double),
    ])
    .unwrap();
    let (low, high) = (f64::NAN, OTHER_NAN);
    let (low, high) = if low.to_bits() < high.to_bits() { (low, high) } else { (high, low) };
    let expected = vec![Some(low.to_bits()), Some(high.to_bits())];
    let query = NativeQuery {
        group_by: vec!["x".into()],
        aggregates: vec![(AggregateFunction::CountStar, None)],
        ..NativeQuery::default()
    };
    let request = ScanRequest {
        aggregation: Some(AggregationPushdown {
            group_by: vec![ColumnPath::whole("x")],
            aggregates: vec![(AggregateFunction::CountStar, None)],
        }),
        ..ScanRequest::default()
    };
    for _ in 0..32 {
        let store = RealtimeStore::new("druid", 10, cost_model());
        store.create_table("s", "t", schema.clone()).unwrap();
        // the higher payload first, so ingest order is not the answer
        let rows = [high, low]
            .iter()
            .enumerate()
            .map(|(i, x)| {
                vec![Value::Timestamp(i as i64), Value::Varchar("a".into()), Value::Double(*x)]
            })
            .collect();
        store.ingest("s", "t", rows).unwrap();
        let native = store.execute_native("s", "t", &query, None).unwrap();
        let bits: Vec<_> = native.rows.iter().map(|r| double_bits(&r[0])).collect();
        assert_eq!(bits, expected, "native rows");
        let connector = RealtimeConnector::new(store);
        let split = &connector.splits("s", "t", &request).unwrap()[0];
        let pages = connector.scan_split(split, &request, &ScanHooks::none()).unwrap();
        let bits: Vec<_> = flatten(&pages).iter().map(|r| double_bits(&r[0])).collect();
        assert_eq!(bits, expected, "partial page");
    }
}

#[test]
fn aggregates_sql_would_reject_are_errors_not_nulls() {
    let store = RealtimeStore::new("druid", 10, cost_model());
    store.create_table("s", "t", schema()).unwrap();
    let query = |function, column: Option<&str>| NativeQuery {
        aggregates: vec![(function, column.map(str::to_string))],
        ..NativeQuery::default()
    };
    for bad in [
        query(AggregateFunction::Sum, Some("d0")),
        query(AggregateFunction::Sum, Some("ts")),
        query(AggregateFunction::Sum, None),
        query(AggregateFunction::Max, None),
        query(AggregateFunction::Count, Some("nope")),
    ] {
        assert!(store.execute_native("s", "t", &bad, None).is_err(), "{bad:?}");
    }
    let by_unknown = NativeQuery { group_by: vec!["nope".into()], ..NativeQuery::default() };
    assert!(store.execute_native("s", "t", &by_unknown, None).is_err());
    let on_unknown = [("nope".to_string(), ScalarPredicate::Eq(Value::Bigint(1)))];
    assert!(store.scan_segments("s", "t", &[], &on_unknown, None, None).is_err());
    assert!(store.scan_segments("s", "t", &["nope".into()], &[], None, None).is_err());
}

// ---------------------------------------------------------------- SQL level

const COUNTRIES: [&str; 5] = ["us", "in", "br", "de", "jp"];
const DEVICES: [&str; 3] = ["ios", "android", "web"];

/// An engine with `connector` as catalog `rt` (7,000 events, so Druid has
/// one segment and Pinot two) and a small memory table to join against.
fn engine_over(connector: RealtimeConnector) -> PrestoEngine {
    let events = Schema::new(vec![
        Field::new("ts", DataType::Timestamp),
        Field::new("country", DataType::Varchar),
        Field::new("device", DataType::Varchar),
        Field::new("clicks", DataType::Bigint),
        Field::new("revenue", DataType::Double),
    ])
    .unwrap();
    connector.store().create_table("prod", "events", events).unwrap();
    let rows = (0..7_000usize)
        .map(|i| {
            vec![
                Value::Timestamp(i as i64 * 100),
                Value::Varchar(COUNTRIES[i % 5].into()),
                Value::Varchar(DEVICES[(i / 5) % 3].into()),
                Value::Bigint((i % 100) as i64),
                Value::Double((i % 1000) as f64 * 0.125),
            ]
        })
        .collect();
    connector.store().ingest("prod", "events", rows).unwrap();

    let memory = MemoryConnector::new();
    let regions = Schema::new(vec![
        Field::new("country", DataType::Varchar),
        Field::new("region", DataType::Varchar),
    ])
    .unwrap();
    let page = Page::new(vec![
        Block::varchar(&["us", "br", "de", "fr"]),
        Block::varchar(&["amer", "amer", "emea", "emea"]),
    ])
    .unwrap();
    memory.create_table("ref", "regions", regions, vec![page]).unwrap();

    let engine = PrestoEngine::new();
    engine.register_catalog("rt", Arc::new(connector));
    engine.register_catalog("memory", Arc::new(memory));
    engine
}

#[test]
fn druid_and_pinot_answer_the_same_with_pushdown_on_and_off() {
    let battery = [
        // pushable: predicate + aggregation / limit / projection
        "SELECT device, count(*), sum(clicks) FROM events WHERE country = 'us' GROUP BY device",
        "SELECT country, min(revenue), max(revenue), sum(revenue) FROM events \
         WHERE country IN ('us', 'de', 'xx') AND clicks BETWEEN 10 AND 60 GROUP BY country",
        "SELECT min(country), max(device), count(clicks), min(ts) FROM events",
        "SELECT country, device, count(*) FROM events WHERE clicks >= 89.5 GROUP BY country, device",
        "SELECT clicks, count(*), max(ts) FROM events WHERE revenue <= 60 GROUP BY clicks",
        "SELECT count(*) FROM events WHERE country = 'nowhere'",
        "SELECT country, device, clicks FROM events WHERE device = 'web' LIMIT 0",
        "SELECT country, revenue FROM events WHERE country = 'jp' AND revenue > 120.0",
        // not pushable: the engine filters, projects, aggregates, joins and
        // sorts the dictionary-encoded pages the raw scan emits
        "SELECT country, count(*), sum(clicks) FROM events WHERE country <> 'us' GROUP BY country",
        "SELECT upper(device), count(*) FROM events GROUP BY upper(device)",
        "SELECT r.region, e.device, count(*), sum(e.clicks) FROM events e \
         JOIN memory.ref.regions r ON e.country = r.country GROUP BY r.region, e.device",
        "SELECT country, device, clicks FROM events WHERE clicks >= 98 \
         ORDER BY country, device, clicks",
        "SELECT country FROM events ORDER BY country",
        "SELECT DISTINCT country, device FROM events",
    ];
    let off = OptimizerConfig {
        predicate_pushdown: false,
        projection_pushdown: false,
        aggregation_pushdown: false,
        limit_pushdown: false,
        ..OptimizerConfig::default()
    };
    let sorted = |mut rows: Vec<Vec<Value>>| {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b)
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    };
    let mut answers: Vec<Vec<Vec<Vec<Value>>>> = Vec::new();
    for connector in [druid_connector(), pinot_connector()] {
        let engine = engine_over(connector);
        let pushed = Session::new("rt", "prod");
        let unpushed = pushed.clone().with_optimizer(off.clone());
        answers.push(
            battery
                .iter()
                .map(|sql| {
                    let on = engine.execute_with_session(sql, &pushed).unwrap();
                    let off = engine.execute_with_session(sql, &unpushed).unwrap();
                    let on = sorted(on.rows());
                    assert_eq!(on, sorted(off.rows()), "pushdown changed the answer of: {sql}");
                    on
                })
                .collect(),
        );
    }
    // 5,000-row and 10,000-row segments add doubles in the same row order
    assert_eq!(answers[0], answers[1], "druid and pinot disagree");
    let rows = |i: usize| answers[0][i].len();
    assert_eq!((rows(0), rows(5), rows(6), rows(9), rows(12), rows(13)), (3, 1, 0, 3, 7_000, 15));
}

#[test]
fn limit_zero_through_the_druid_catalog_streams_no_row() {
    let connector = druid_connector();
    let engine = engine_over(connector.clone());
    let session = Session::new("rt", "prod");
    let result = engine
        .execute_with_session(
            "SELECT country, clicks FROM events WHERE device = 'ios' LIMIT 0",
            &session,
        )
        .unwrap();
    assert_eq!(result.row_count(), 0);
    assert_eq!(connector.store().metrics().get("rt.rows_streamed"), 0);
    assert_eq!(
        connector.take_last_scan_costs().iter().map(|c| c.stream).sum::<Duration>(),
        Duration::ZERO
    );
}
