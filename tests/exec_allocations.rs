//! A noise-free guard on what the typed breakers bought: the number of heap
//! allocations a group-by, join, sort or top-N makes does not scale with
//! its input rows. A row-at-a-time operator allocates per row (a
//! `Vec<Value>` key, a `String` per VARCHAR cell); a typed one allocates per
//! page, per column and per *new* group. Counts are exact on any machine,
//! so this holds on a noisy VM where a timing could not. A join's key table,
//! sized once for its build side, allocates the same at any row count. The
//! largest single allocation guards what must not be copied at all: a
//! column under `count(*)`, a stored column a memory scan returns whole,
//! and the pages a root fragment's exchanges deliver; and what must stay
//! narrow: a sort's per-row state. The bytes a
//! GROUP BY over dictionary strings allocates guard its per-row key state,
//! and a Druid GROUP BY's allocations its per-segment key state.

#[path = "common/counting.rs"]
mod counting;

use std::sync::Arc;

use presto_common::keys::KeyTable;
use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::druid::{druid_store, DRUID_ROWS_PER_SEGMENT};
use presto_connectors::memory::MemoryConnector;
use presto_connectors::realtime::RealtimeConnector;
use presto_connectors::{
    AggregationPushdown, ColumnPath, Connector, PushdownPredicate, ScanHooks, ScanRequest,
};
use presto_core::{PrestoEngine, Session};
use presto_expr::AggregateFunction;
use presto_parquet::ScalarPredicate;
use presto_plan::{LogicalPlan, PlanFragment};

/// An engine over `memory.t.facts`: `rows` rows in two pages. `id` is
/// unique, `bucket` has `rows / 4` values, `flag` and `grade` six between
/// them, `price` is nearly unique.
fn engine(rows: usize) -> (PrestoEngine, Session) {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("bucket", DataType::Bigint),
        Field::new("line", DataType::Integer),
        Field::new("flag", DataType::Varchar),
        Field::new("grade", DataType::Varchar),
        Field::new("price", DataType::Double),
    ])
    .unwrap();
    let page = |from: usize, to: usize| {
        let ids = || from..to;
        Page::new(vec![
            Block::bigint(ids().map(|i| i as i64).collect()),
            Block::bigint(ids().map(|i| (i / 4) as i64).collect()),
            Block::integer(ids().map(|i| (i % 4) as i32).collect()),
            Block::varchar(&ids().map(|i| ["R", "A", "N"][i % 3]).collect::<Vec<_>>()),
            Block::varchar(&ids().map(|i| ["O", "F"][(i / 3) % 2]).collect::<Vec<_>>()),
            Block::double(ids().map(|i| ((i * 7919) % 10_007) as f64 / 8.0).collect()),
        ])
        .unwrap()
    };
    let memory = MemoryConnector::new();
    memory
        .create_table("t", "facts", schema, vec![page(0, rows / 2), page(rows / 2, rows)])
        .unwrap();
    let engine = PrestoEngine::new();
    engine.register_catalog("memory", Arc::new(memory));
    (engine, Session::new("memory", "t"))
}

const QUERIES: [(&str, &str); 5] = [
    (
        "low-NDV group-by",
        "SELECT flag, grade, count(*), sum(price), avg(price) FROM facts GROUP BY 1, 2",
    ),
    ("high-NDV group-by", "SELECT bucket, count(*), sum(price) FROM facts GROUP BY 1"),
    (
        "unique-key join",
        "SELECT count(*), sum(a.price + b.price) FROM facts a JOIN facts b \
         ON a.bucket = b.bucket AND a.line = b.line",
    ),
    ("3-key sort", "SELECT bucket, line, price FROM facts ORDER BY price DESC, bucket, line"),
    (
        "top-100",
        "SELECT bucket, line, price FROM facts ORDER BY price DESC, bucket, line LIMIT 100",
    ),
];

/// Allocations of one execution of each query over `rows` rows.
fn allocations(rows: usize) -> Vec<u64> {
    let (engine, session) = engine(rows);
    QUERIES
        .iter()
        .map(|(name, sql)| {
            let before = counting::allocations();
            let result = engine.execute_with_session(sql, &session);
            let after = counting::allocations();
            assert!(result.unwrap().row_count() > 0, "{name}");
            after - before
        })
        .collect()
}

#[test]
fn breaker_allocations_do_not_scale_with_rows() {
    const N: usize = 20_000;
    let (small, large) = (allocations(N), allocations(2 * N));
    for (((name, _), small), large) in QUERIES.iter().zip(small).zip(large) {
        // Same pages, same columns; at most a few more doublings of the
        // vectors and tables that grow with groups or rows. One allocation
        // per row would add N.
        let grew = large.saturating_sub(small);
        assert!(grew <= 64, "{name}: {small} allocations over {N} rows, {large} over {}", 2 * N);
        assert!(large < N as u64 / 10, "{name}: {large} allocations is no bounded set-up");
    }
}

/// A hashed join key table is sized once, from its build side's row count:
/// fed that many distinct keys a page at a time (7919 apart, too sparse for
/// the dense layout), it makes as many allocations at 40k rows as at 10k. A table that doubled from 16 slots would
/// reallocate its slots about log2(n / 8) times, and its keys as often.
#[test]
fn a_sized_join_table_allocates_the_same_at_any_row_count() {
    const PAGES: usize = 8;
    let allocations = |n: usize| {
        let pages: Vec<Block> = (0..PAGES)
            .map(|p| {
                Block::bigint(
                    (p * n / PAGES..(p + 1) * n / PAGES).map(|k| k as i64 * 7919).collect(),
                )
            })
            .collect();
        let build: Vec<&[Block]> = pages.iter().map(std::slice::from_ref).collect();
        let mut ids = Vec::with_capacity(n / PAGES);
        let before = counting::allocations();
        let mut table = KeyTable::join(&[DataType::Bigint], &build);
        for page in &pages {
            table.resolve(&[page], None, true, &mut ids).unwrap();
        }
        let after = counting::allocations();
        assert_eq!(table.distinct(), n);
        assert_eq!(table.dense_bytes(), 0, "the table is hashed");
        after - before
    };
    let (small, large) = (allocations(10_000), allocations(40_000));
    assert_eq!(small, large, "allocations at 10k and at 40k build rows");
}

/// A sort over two pages ranks each row as one `u64` and gathers its output
/// from the input pages: nothing it allocates is wider than 8 bytes a row
/// (its ranks, their radix scratch, an output column). A `(u64, u32)`
/// tuple a row would be 16.
#[test]
fn a_two_page_sort_allocates_at_most_eight_bytes_a_row_at_once() {
    const ROWS: usize = 40_000;
    let (engine, session) = engine(ROWS);
    let sql = QUERIES.iter().find(|(name, _)| *name == "3-key sort").unwrap().1;
    counting::forget_largest();
    let result = engine.execute_with_session(sql, &session).unwrap();
    let largest = counting::largest();
    assert_eq!(result.row_count(), ROWS);
    assert!(largest <= 8 * ROWS + 4096, "one allocation of {largest} bytes over {ROWS} rows");
}

/// The expression-bearing shapes: arithmetic under a filter, CASE, IN,
/// BETWEEN … AND, and `count(*)` alone. Evaluated through `Vec<Value>` and a
/// `String` per VARCHAR cell, each of these allocates per row.
const EXPRESSIONS: [(&str, &str); 5] = [
    (
        "arithmetic under BETWEEN",
        "SELECT sum(price * (1 - price / 2000)) FROM facts WHERE bucket BETWEEN 10 AND 90",
    ),
    ("CASE", "SELECT sum(CASE WHEN line < 2 THEN id ELSE bucket END), max(price) FROM facts"),
    ("IN over VARCHAR", "SELECT sum(CASE WHEN flag IN ('R', 'A') THEN 1 ELSE 0 END) FROM facts"),
    (
        "BETWEEN AND <",
        "SELECT count(*) FROM facts WHERE (bucket BETWEEN 10 AND 90 AND price < 400.0) = (line < 3)",
    ),
    ("count(*)", "SELECT count(*) FROM facts"),
];

#[test]
fn expression_allocations_are_the_same_at_any_row_count() {
    let run = |rows: usize| -> Vec<(u64, usize)> {
        let (engine, session) = engine(rows);
        EXPRESSIONS
            .iter()
            .map(|(name, sql)| {
                counting::forget_largest();
                let before = counting::allocations();
                let result = engine.execute_with_session(sql, &session);
                let after = counting::allocations();
                assert_eq!(result.unwrap().row_count(), 1, "{name}");
                (after - before, counting::largest())
            })
            .collect()
    };
    const N: usize = 2_000;
    for (((name, _), (small, _)), (large, largest)) in
        EXPRESSIONS.iter().zip(run(N)).zip(run(2 * N))
    {
        assert_eq!(small, large, "{name}: allocations at {N} rows and at {}", 2 * N);
        // a scan that is asked for no column allocates no column buffer: the
        // smallest one (a mask, a byte a row) would be this large
        if *name == "count(*)" {
            assert!(largest < N, "{name}: one allocation of {largest} bytes");
        }
    }
}

/// The coordinator's root fragment reads its exchanges where they were
/// delivered: the pages bound to a `RemoteSource` are moved into the plan,
/// never copied, so the root allocates nothing as large as one exchanged
/// column.
#[test]
fn the_root_fragment_moves_its_exchanged_pages() {
    const ROWS: usize = 100_000;
    let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
    let pages: Vec<Page> = (0..3)
        .map(|p| Page::new(vec![Block::bigint((0..ROWS as i64).map(|i| i * p).collect())]).unwrap())
        .collect();
    let root = PlanFragment {
        id: 0,
        plan: LogicalPlan::Output {
            input: Box::new(LogicalPlan::RemoteSource { fragment: 1, schema }),
            names: vec!["x".into()],
        },
    };
    let engine = PrestoEngine::new();
    counting::forget_largest();
    let out = engine.execute_fragment(&root, vec![(1, pages)], &Session::default()).unwrap();
    let largest = counting::largest();
    assert_eq!(out.iter().map(Page::positions).sum::<usize>(), 3 * ROWS);
    let column = ROWS * std::mem::size_of::<i64>();
    assert!(largest < column, "one allocation of {largest} bytes; a column is {column}");
}

/// A memory scan of whole columns hands out the stored columns, shared, so
/// an aggregate over them allocates nothing as large as one page's column
/// (N/2 rows × 8 B), at N rows or at 2N. A scan that copied what it returns
/// would allocate exactly that, once per page and column.
#[test]
fn a_scan_of_whole_memory_columns_copies_no_column() {
    const SHAPES: [&str; 3] = [
        "SELECT id, price, id FROM facts",
        "SELECT count(*), sum(price), max(id) FROM facts",
        "SELECT flag, sum(price), min(bucket) FROM facts GROUP BY 1",
    ];
    const N: usize = 20_000;
    for rows in [N, 2 * N] {
        let (engine, session) = engine(rows);
        let column = rows / 2 * std::mem::size_of::<i64>();
        for sql in SHAPES {
            counting::forget_largest();
            let result = engine.execute_with_session(sql, &session).unwrap();
            let largest = counting::largest();
            assert!(result.row_count() > 0, "{sql}");
            assert!(
                largest < column,
                "{sql} over {rows} rows: one allocation of {largest} bytes; a page's column is \
                 {column}"
            );
        }
    }
}

/// A GROUP BY over two dictionary VARCHAR columns reads each page's keys as
/// digits of a dense table, one lookup per dictionary entry: per row it
/// allocates only the ids the scan hands out (4 B a column), the keys'
/// offsets (8 B) and their group ids (4 B). Interning the strings per row
/// would add a key word and an id per column, 24 B or more.
#[test]
fn a_group_by_over_dictionary_varchars_allocates_no_per_row_key_state() {
    const PAGES: usize = 6;
    const ROWS: usize = 60_000;
    let schema = Schema::new(vec![
        Field::new("flag", DataType::Varchar),
        Field::new("status", DataType::Varchar),
    ])
    .unwrap();
    // each page's entries in its own order, then one no row uses
    let column = |used: &[&str], page: usize, value: fn(usize) -> usize| {
        let n = used.len();
        let mut entries = used.to_vec();
        entries.rotate_left(page % n);
        entries.push("unused");
        let rows = page * ROWS / PAGES..(page + 1) * ROWS / PAGES;
        let ids = rows.map(|i| ((value(i) + n - page % n) % n) as u32).collect();
        Block::Dictionary { dictionary: Box::new(Block::varchar(&entries)), ids }
    };
    let pages = (0..PAGES)
        .map(|p| {
            let flag = column(&["R", "A", "N"], p, |i| i % 3);
            let status = column(&["O", "F"], p, |i| i / 3 % 2);
            Page::new(vec![flag, status]).unwrap()
        })
        .collect();
    let memory = MemoryConnector::new();
    memory.create_table("t", "codes", schema, pages).unwrap();
    let engine = PrestoEngine::new();
    engine.register_catalog("memory", Arc::new(memory));
    let session = Session::new("memory", "t");
    let sql = "SELECT flag, status, count(*) FROM codes GROUP BY 1, 2";
    let before = counting::bytes();
    let result = engine.execute_with_session(sql, &session).unwrap();
    let bytes = counting::bytes() - before;
    assert_eq!(result.row_count(), 6);
    let bound = (2 * 4 + 8 + 4) * ROWS + (64 << 10);
    assert!(bytes as usize <= bound, "{bytes} bytes allocated over {ROWS} rows, bound {bound}");
}

/// A `druid_store()` connector holding `rt.events`: six segments, whose
/// rows run through `values` campaigns, three countries and 13 `clicks`.
fn druid_events(values: usize) -> RealtimeConnector {
    const SEGMENTS: usize = 6;
    let connector = RealtimeConnector::new(druid_store());
    let schema = Schema::new(vec![
        Field::new("ts", DataType::Timestamp),
        Field::new("campaign", DataType::Varchar),
        Field::new("country", DataType::Varchar),
        Field::new("clicks", DataType::Bigint),
    ])
    .unwrap();
    let store = connector.store();
    store.create_table("rt", "events", schema).unwrap();
    let rows = (0..SEGMENTS * DRUID_ROWS_PER_SEGMENT)
        .map(|i| {
            vec![
                Value::Timestamp(i as i64),
                Value::from(format!("c{}", i % values).as_str()),
                Value::from(["us", "de", "jp"][i / 7 % 3]),
                Value::Bigint((i % 13) as i64),
            ]
        })
        .collect();
    store.ingest("rt", "events", rows).unwrap();
    connector
}

/// `column = value`, pushed down.
fn equals(column: &str, value: &str) -> PushdownPredicate {
    PushdownPredicate {
        target: ColumnPath::whole(column),
        predicate: ScalarPredicate::Eq(Value::from(value)),
    }
}

/// The pushed-down `count(*), sum(clicks) … GROUP BY group_by` under
/// `predicate`, over every split of `rt.events`: each split's groups, and
/// the allocations and the largest one the scans made.
fn druid_group_by(
    connector: &RealtimeConnector,
    group_by: &str,
    predicate: Vec<PushdownPredicate>,
) -> (Vec<usize>, u64, usize) {
    let request = ScanRequest {
        predicate,
        aggregation: Some(AggregationPushdown {
            group_by: vec![ColumnPath::whole(group_by)],
            aggregates: vec![
                (AggregateFunction::CountStar, None),
                (AggregateFunction::Sum, Some(ColumnPath::whole("clicks"))),
            ],
        }),
        ..ScanRequest::default()
    };
    let splits = connector.splits("rt", "events", &request).unwrap();
    assert!(splits.len() > 1, "{} splits", splits.len());
    let before = counting::allocations();
    counting::forget_largest();
    let groups = splits
        .iter()
        .map(|split| connector.scan_split(split, &request, &ScanHooks::none()).unwrap())
        .map(|pages| pages[0].positions())
        .collect();
    (groups, counting::allocations() - before, counting::largest())
}

/// A Druid GROUP BY on one dimension numbers its groups through the
/// engine's key table, one lookup per dictionary entry a segment's rows
/// use: the allocations of its partial aggregation — every split of a
/// six-segment table, with and without a filter — do not grow with the
/// values each segment holds, at 8 or 64 of them. A key built per
/// (segment, value) — a `Vec<Value>` and its `String` — would add two
/// allocations for each, 672 a query from 8 to 64.
#[test]
fn a_druid_group_by_allocates_nothing_per_segment_value() {
    let allocations = |values: usize| {
        let connector = druid_events(values);
        let filters = [vec![], vec![equals("country", "us")]];
        filters.map(|predicate| {
            let (groups, allocations, _) = druid_group_by(&connector, "campaign", predicate);
            assert!(groups.iter().all(|&g| g == values), "{groups:?}");
            allocations
        })
    };
    let (few, many) = (allocations(8), allocations(64));
    for ((filter, few), many) in ["unfiltered", "filtered"].iter().zip(few).zip(many) {
        let grew = many.saturating_sub(few);
        assert!(grew <= 48, "{filter}: {few} allocations at 8 values a segment, {many} at 64");
    }
}

/// A Druid GROUP BY on a metric under a selective filter reads the stored
/// column through the selection, one selected row at a time: nothing it
/// allocates is as large as one byte per row of a segment. A digit for
/// every row of the column (8 B each) would be 80 KB a segment.
#[test]
fn a_druid_group_by_on_a_metric_reads_only_the_selected_rows() {
    let connector = druid_events(64);
    let (groups, _, largest) = druid_group_by(&connector, "clicks", vec![equals("campaign", "c0")]);
    assert!(groups.iter().all(|&g| g == 13), "{groups:?}");
    assert!(
        largest < DRUID_ROWS_PER_SEGMENT,
        "one allocation of {largest} bytes; a segment holds {DRUID_ROWS_PER_SEGMENT} rows"
    );
}
