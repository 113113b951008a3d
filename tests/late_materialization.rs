//! Late materialisation: a value that does not change between operators is
//! not copied.
//!
//! - A hash join's *dense* probe page — at least as many matched pairs as
//!   build rows — carries every build column as `Block::Dictionary` ids
//!   into the build column; a *sparse* page gathers. The join differential
//!   below runs each plan over one dense probe page and over one-row (so
//!   sparse, gathered) probe pages, in memory and through a forced Grace
//!   spill, and demands the same rows.
//! - `KeyTable` resolves a key that is one dictionary column once per
//!   entry its rows use; the ids must equal those of the decoded column,
//!   in group-by and in join mode (property test).
//! - The Hive partition column is a one-entry dictionary under both reader
//!   generations, with the values it always had.

use std::sync::Arc;

use proptest::prelude::*;

use presto_common::keys::KeyTable;
use presto_common::metrics::CounterSet;
use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::hive::{HiveConnector, HiveReaderConfig};
use presto_connectors::{CatalogRegistry, ColumnPath, Connector, ScanHooks, ScanRequest};
use presto_core::{PrestoEngine, Session};
use presto_exec::{execute, ExecutionContext};
use presto_expr::{FunctionHandle, RowExpression};
use presto_parquet::{WriterMode, WriterProperties};
use presto_plan::logical::{JoinKind, LogicalPlan};
use presto_resource::SpillManager;
use presto_storage::HdfsFileSystem;

// ------------------------------------------------------------ join

fn values(dt: &DataType, values: &[Value]) -> Block {
    Block::from_values(dt, values).unwrap()
}

fn dictionary(dt: &DataType, entries: &[Value], ids: Vec<u32>) -> Block {
    Block::Dictionary { dictionary: Box::new(values(dt, entries)), ids }
}

/// Six build rows keyed on a dictionary DOUBLE column — `1, 2, 2, NaN,
/// NULL, -0.0`, its entries in another order with one unused — and a
/// payload of every block shape: plain BIGINT, a VARCHAR dictionary with a
/// NULL entry, an unused one and shared ones, ARRAY, MAP and ROW.
fn build_table() -> (Schema, Page) {
    let info = DataType::row(vec![
        Field::new("id", DataType::Bigint),
        Field::new("label", DataType::Varchar),
    ]);
    let attrs = DataType::map(DataType::Varchar, DataType::Double);
    let schema = Schema::new(vec![
        Field::new("k", DataType::Double),
        Field::new("n", DataType::Bigint),
        Field::new("name", DataType::Varchar),
        Field::new("tags", DataType::array(DataType::Bigint)),
        Field::new("attrs", attrs.clone()),
        Field::new("info", info.clone()),
    ])
    .unwrap();
    let d = Value::Double;
    let s = |v: &str| Value::Varchar(v.into());
    let row = |id: i64, label: Value| Value::Row(vec![Value::Bigint(id), label]);
    let page = Page::new(vec![
        dictionary(
            &DataType::Double,
            &[d(9.0), Value::Null, d(2.0), d(f64::NAN), d(1.0), d(-0.0)],
            vec![4, 2, 2, 3, 1, 5],
        ),
        Block::bigint((0..6).collect()),
        dictionary(
            &DataType::Varchar,
            &[s("c"), s("a"), s("b"), Value::Null, s("spare")],
            vec![1, 2, 0, 3, 1, 2],
        ),
        values(
            &DataType::array(DataType::Bigint),
            &[
                Value::Array(vec![Value::Bigint(1)]),
                Value::Array(vec![]),
                Value::Null,
                Value::Array(vec![Value::Bigint(2), Value::Null]),
                Value::Array(vec![Value::Bigint(4)]),
                Value::Array(vec![Value::Bigint(5), Value::Bigint(6), Value::Bigint(7)]),
            ],
        ),
        values(
            &attrs,
            &[
                Value::Map(vec![(s("a"), d(1.0))]),
                Value::Map(vec![]),
                Value::Map(vec![(s("b"), d(2.0)), (s("c"), d(f64::NAN))]),
                Value::Null,
                Value::Map(vec![(s("d"), d(-0.0))]),
                Value::Map(vec![(s("e"), Value::Null)]),
            ],
        ),
        values(
            &info,
            &[
                row(1, s("x")),
                Value::Null,
                row(3, Value::Null),
                row(4, s("y")),
                row(5, s("z")),
                row(6, s("w")),
            ],
        ),
    ])
    .unwrap();
    (schema, page)
}

/// One probe page of `(pk DOUBLE, v BIGINT)`, `v` the row number.
fn probe_table(keys: &[Value]) -> (Schema, Page) {
    let schema =
        Schema::new(vec![Field::new("pk", DataType::Double), Field::new("v", DataType::Bigint)])
            .unwrap();
    let page = Page::new(vec![
        values(&DataType::Double, keys),
        Block::bigint((0..keys.len() as i64).collect()),
    ])
    .unwrap();
    (schema, page)
}

/// Twelve probe rows, eleven pairs; `4`, NaN, NULL, `5` and `7` match
/// nothing, `0.0` meets the build's `-0.0`.
fn probe_with_misses() -> Vec<Value> {
    [1.0, 2.0, 2.0, 4.0, f64::NAN]
        .map(Value::Double)
        .into_iter()
        .chain([Value::Null])
        .chain([1.0, 2.0, 2.0, 0.0, 5.0, 7.0].map(Value::Double))
        .collect()
}

/// Six probe rows that all match: nine pairs.
fn probe_without_misses() -> Vec<Value> {
    [1.0, 2.0, 2.0, 0.0, 1.0, 2.0].map(Value::Double).to_vec()
}

/// Build `n` (channel 3 of the joined page) < probe `v` (channel 1).
fn residual() -> RowExpression {
    RowExpression::Call {
        handle: FunctionHandle::new(
            "lt",
            vec![DataType::Bigint, DataType::Bigint],
            DataType::Boolean,
        ),
        args: vec![
            RowExpression::column("n", 3, DataType::Bigint),
            RowExpression::column("v", 1, DataType::Bigint),
        ],
    }
}

fn join_plan(
    probe: &Schema,
    build: &Schema,
    kind: JoinKind,
    residual: Option<RowExpression>,
) -> LogicalPlan {
    LogicalPlan::join(
        LogicalPlan::RemoteSource { fragment: 0, schema: probe.clone() },
        LogicalPlan::RemoteSource { fragment: 1, schema: build.clone() },
        kind,
        vec![(
            RowExpression::column("pk", 0, DataType::Double),
            RowExpression::column("k", 0, DataType::Double),
        )],
        residual,
    )
    .unwrap()
}

/// Run `plan` with `probe` and `build` bound to its two sources; with a
/// `budget`, under that memory limit with a spill manager attached. The
/// output pages, the peak reservation and whether anything spilled.
fn run(
    plan: &LogicalPlan,
    probe: Vec<Page>,
    build: &Page,
    budget: Option<usize>,
) -> (Vec<Page>, usize, bool) {
    let mut ctx = ExecutionContext::new(CatalogRegistry::new());
    if let Some(bytes) = budget {
        ctx = ctx.with_memory_budget(bytes);
        let spill = SpillManager::in_memory(ctx.metrics.clone());
        let pool = ctx.pool.clone();
        ctx = ctx.with_resources(pool, Some(Arc::new(spill)));
    }
    ctx.bind_remote_source(0, probe);
    ctx.bind_remote_source(1, vec![build.clone()]);
    let pages = execute(plan, &ctx).unwrap();
    assert_eq!(ctx.reserved_memory(), 0, "reservation leaked");
    (pages, ctx.pool.peak(), ctx.metrics.get("spill.files") > 0)
}

/// Rows in an order of their own, formatted so doubles compare to the bit.
fn canonical(pages: &[Page]) -> Vec<String> {
    let mut rows: Vec<String> =
        pages.iter().flat_map(Page::rows).map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

#[test]
fn dense_join_pages_carry_build_columns_as_dictionaries_and_answer_as_gathered() {
    let (build_schema, build) = build_table();
    let cases = [
        ("inner", JoinKind::Inner, probe_with_misses(), None),
        ("left with misses", JoinKind::Left, probe_with_misses(), None),
        ("left without misses", JoinKind::Left, probe_without_misses(), None),
        ("inner with a residual", JoinKind::Inner, probe_with_misses(), Some(residual())),
        ("left with a residual", JoinKind::Left, probe_with_misses(), Some(residual())),
    ];
    for (name, kind, keys, residual) in cases {
        let (probe_schema, probe) = probe_table(&keys);
        let plan = join_plan(&probe_schema, &build_schema, kind, residual);

        // one probe page: dense, every build column a dictionary over the
        // build column's innermost entries (plus one NULL for LEFT)
        let (dense, peak, _) = run(&plan, vec![probe.clone()], &build, None);
        assert_eq!(dense.len(), 1, "{name}");
        for (c, column) in dense[0].blocks()[2..].iter().enumerate() {
            let Block::Dictionary { dictionary, .. } = column.as_ref() else {
                panic!("{name}: build column {c} of a dense page is {column:?}");
            };
            assert!(!matches!(**dictionary, Block::Dictionary { .. }), "{name}: nested");
            let entries = match build.block(c) {
                Block::Dictionary { dictionary, .. } => dictionary.len(),
                plain => plain.len(),
            };
            assert_eq!(dictionary.len(), entries + usize::from(kind == JoinKind::Left), "{name}");
        }

        // one-row probe pages: at most two pairs each, so every page gathers
        // (a dictionary column through `take` stays one, unless a miss
        // null-extends it)
        let rows: Vec<Page> = (0..probe.positions()).map(|i| probe.slice(i, 1)).collect();
        let (gathered, _, _) = run(&plan, rows, &build, None);
        for page in &gathered {
            let miss = page.block(3).is_null(0);
            for c in (0..6).filter(|&c| miss || !matches!(build.block(c), Block::Dictionary { .. }))
            {
                let column = page.block(2 + c);
                assert!(!matches!(column, Block::Dictionary { .. }), "{name}: sparse {column:?}");
            }
        }
        assert_eq!(canonical(&dense), canonical(&gathered), "{name}");

        // a forced Grace spill joins partition by partition
        let (spilled, _, did_spill) = run(&plan, vec![probe], &build, Some(peak - 1));
        assert!(did_spill, "{name}: did not spill");
        assert_eq!(canonical(&spilled), canonical(&gathered), "{name}: spilled");
    }
}

// ------------------------------------------------------------- keys

/// A key type and the values its columns draw from: duplicates come from
/// drawing twice, and each pool holds NULL (and, for DOUBLE, NaNs of two
/// payloads, `0.0` and `-0.0`).
fn key_types() -> Vec<(DataType, Vec<Value>)> {
    let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    vec![
        (DataType::Integer, vec![Value::Null, 0i32.into(), (-1i32).into(), i32::MAX.into()]),
        (DataType::Bigint, vec![Value::Null, 7i64.into(), i64::MIN.into(), 0i64.into()]),
        (
            DataType::Double,
            vec![
                Value::Null,
                f64::NAN.into(),
                other_nan.into(),
                0.0f64.into(),
                (-0.0f64).into(),
                2.5f64.into(),
            ],
        ),
        (DataType::Varchar, vec![Value::Null, "".into(), "a".into(), "\u{5}".into(), "ab".into()]),
        (
            DataType::array(DataType::Bigint),
            vec![
                Value::Null,
                Value::Array(vec![]),
                Value::Array(vec![Value::Null]),
                Value::Array(vec![1i64.into(), 2i64.into()]),
            ],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ids of a dictionary key column — duplicate, unused, NULL and NaN
    /// entries among them — equal those of its decoded column, page after
    /// page on one table: group-by inserting throughout, join building from
    /// the first page and probing with the rest.
    #[test]
    fn dictionary_key_ids_equal_the_decoded_columns(
        pick in 0usize..5,
        codes in proptest::collection::vec(0usize..12, 1..10),
        pages in proptest::collection::vec(
            proptest::collection::vec(any::<proptest::sample::Index>(), 0..30),
            1..4,
        ),
    ) {
        let (dt, pool) = &key_types()[pick];
        let entries: Vec<Value> = codes.iter().map(|&c| pool[c % pool.len()].clone()).collect();
        let dictionary = values(dt, &entries);
        let columns: Vec<Block> = pages
            .iter()
            .map(|picks| {
                let ids = picks.iter().map(|p| p.index(entries.len()) as u32).collect();
                Block::Dictionary { dictionary: Box::new(dictionary.clone()), ids }
            })
            .collect();
        let plain: Vec<Block> = columns.iter().map(Block::decode_dictionary).collect();
        for join in [false, true] {
            // a group-by table over every page, a join table over the first
            let table = |columns: &[Block]| {
                let pages: Vec<&[Block]> = columns.iter().map(std::slice::from_ref).collect();
                match join {
                    true => KeyTable::join(std::slice::from_ref(dt), &pages[..1]),
                    false => KeyTable::group_by(std::slice::from_ref(dt), &pages),
                }
            };
            let (mut encoded, mut decoded) = (table(&columns), table(&plain));
            for (page, (column, plain)) in columns.iter().zip(&plain).enumerate() {
                let insert = !join || page == 0;
                let (mut via_entries, mut via_rows) = (Vec::new(), Vec::new());
                encoded.resolve(&[column], None, insert, &mut via_entries).unwrap();
                decoded.resolve(&[plain], None, insert, &mut via_rows).unwrap();
                prop_assert_eq!(via_entries, via_rows);
                prop_assert_eq!(encoded.distinct(), decoded.distinct());
            }
        }
    }
}

// -------------------------------------------------- partition column

const DAYS: [&str; 2] = ["2017-03-01", "2017-03-02"];

/// `hive.rawdata.trips`: a DOUBLE `fare` in files of 40 rows (four row
/// groups), one file per `datestr` partition.
fn partitioned_hive() -> HiveConnector {
    let schema = Schema::new(vec![Field::new("fare", DataType::Double)]).unwrap();
    let hive = HiveConnector::new(Arc::new(HdfsFileSystem::with_defaults()), CounterSet::new());
    hive.register_table("rawdata", "trips", schema, "/warehouse/rawdata/trips", Some("datestr"));
    for (d, day) in DAYS.iter().enumerate() {
        hive.add_partition("rawdata", "trips", day, true).unwrap();
        let page = Page::new(vec![Block::double((0..40).map(|i| (d * 100 + i) as f64).collect())])
            .unwrap();
        let props = WriterProperties { row_group_rows: 10, ..WriterProperties::default() };
        hive.write_data_file(
            "rawdata",
            "trips",
            Some(day),
            "part-0.upq",
            &[page],
            WriterMode::Native,
            props,
        )
        .unwrap();
    }
    hive
}

#[test]
fn partition_column_is_a_one_entry_dictionary_under_both_readers() {
    let hive = partitioned_hive();
    let request =
        ScanRequest::project(vec![ColumnPath::whole("fare"), ColumnPath::whole("datestr")]);
    for legacy in [false, true] {
        hive.set_reader_config(HiveReaderConfig { use_legacy_reader: legacy });
        let splits = hive.splits("rawdata", "trips", &request).unwrap();
        assert_eq!(splits.len(), DAYS.len());
        for (split, day) in splits.iter().zip(DAYS) {
            let mut fares = Vec::new();
            for page in hive.scan_split(split, &request, &ScanHooks::none()).unwrap() {
                let Block::Dictionary { dictionary, ids } = page.block(1) else {
                    panic!("legacy={legacy}: partition column is {:?}", page.block(1));
                };
                assert_eq!(dictionary.to_values(), vec![Value::Varchar(day.into())]);
                assert!(ids.iter().all(|&id| id == 0));
                let expected = vec![Value::Varchar(day.into()); page.positions()];
                assert_eq!(page.block(1).to_values(), expected);
                fares.extend(page.block(0).to_values());
            }
            let base = if day == DAYS[0] { 0.0 } else { 100.0 };
            let expected: Vec<Value> = (0..40).map(|i| Value::Double(base + i as f64)).collect();
            assert_eq!(fares, expected, "legacy={legacy} {day}");
        }

        // grouped on, the partition column takes the dictionary key path
        let engine = PrestoEngine::new();
        engine.register_catalog("hive", Arc::new(hive.clone()));
        let result = engine
            .execute_with_session(
                "SELECT datestr, count(*), sum(fare) FROM trips GROUP BY 1 ORDER BY 1",
                &Session::new("hive", "rawdata"),
            )
            .unwrap();
        assert_eq!(
            result.rows(),
            vec![
                vec![Value::Varchar(DAYS[0].into()), Value::Bigint(40), Value::Double(780.0)],
                vec![Value::Varchar(DAYS[1].into()), Value::Bigint(40), Value::Double(4780.0)],
            ]
        );
    }
}
