//! Property-based tests over the core invariants:
//! - codec round trip on arbitrary bytes;
//! - Parquet write→read round trip on arbitrary nested values (both writer
//!   generations, both reader generations);
//! - old-reader ≡ new-reader result equivalence under arbitrary predicates;
//! - QuadTree query ≡ brute-force scan;
//! - RowExpression serialization round trip;
//! - vectorized expression evaluation ≡ the scalar oracle.

mod common;

use proptest::prelude::*;

use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_geo::geometry::{BoundingBox, Point};
use presto_geo::QuadTree;
use presto_parquet::reader::BytesSource;
use presto_parquet::reader_new::{ProjectedColumn, ReadOptions};
use presto_parquet::{
    reader_old, Codec, FilePredicate, FileWriter, ScalarPredicate, WriterMode, WriterProperties,
};

// ------------------------------------------------------------------ codecs

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for codec in [Codec::None, Codec::Fast, Codec::Deep] {
            let compressed = codec.compress(&data);
            let back = codec.decompress(&compressed).unwrap();
            prop_assert_eq!(&back, &data);
        }
    }

    #[test]
    fn codec_round_trips_compressible_bytes(
        pattern in proptest::collection::vec(any::<u8>(), 1..32),
        repeats in 1usize..200,
    ) {
        let data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * repeats).copied().collect();
        for codec in [Codec::Fast, Codec::Deep] {
            let compressed = codec.compress(&data);
            prop_assert_eq!(codec.decompress(&compressed).unwrap(), data.clone());
        }
    }
}

// ------------------------------------------------- nested value generation

fn arb_scalar(dt: &DataType) -> BoxedStrategy<Value> {
    match dt {
        DataType::Bigint => prop_oneof![
            3 => any::<i64>().prop_map(Value::Bigint),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Double => prop_oneof![
            3 => (-1e9f64..1e9).prop_map(Value::Double),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Varchar => prop_oneof![
            3 => "[a-z0-9]{0,12}".prop_map(Value::Varchar),
            1 => Just(Value::Null),
        ]
        .boxed(),
        DataType::Boolean => prop_oneof![
            3 => any::<bool>().prop_map(Value::Boolean),
            1 => Just(Value::Null),
        ]
        .boxed(),
        other => panic!("no generator for {other}"),
    }
}

/// A value of `dt`: NULL one time in ten at every nested level (one in four
/// for scalars), lists and maps of 0..4 entries.
fn arb_value(dt: &DataType) -> BoxedStrategy<Value> {
    let or_null =
        |present: BoxedStrategy<Value>| prop_oneof![9 => present, 1 => Just(Value::Null)].boxed();
    match dt {
        DataType::Array(element) => or_null(
            proptest::collection::vec(arb_value(element), 0..4).prop_map(Value::Array).boxed(),
        ),
        DataType::Map(_, value) => or_null(
            proptest::collection::vec(("[a-c]", arb_value(value)), 0..3)
                .prop_map(|entries| {
                    Value::Map(entries.into_iter().map(|(k, v)| (Value::Varchar(k), v)).collect())
                })
                .boxed(),
        ),
        DataType::Row(fields) => {
            let items = fields.iter().fold(Just(Vec::new()).boxed(), |items, field| {
                (items, arb_value(&field.data_type))
                    .prop_map(|(mut items, item)| {
                        items.push(item);
                        items
                    })
                    .boxed()
            });
            or_null(items.prop_map(Value::Row).boxed())
        }
        scalar => arb_scalar(scalar),
    }
}

fn arb_nested_value() -> BoxedStrategy<Value> {
    arb_value(&common::nested_test_type())
}

/// Rows per row group: at least three groups from three rows up.
fn group_rows(rows: usize) -> usize {
    (rows / 3).clamp(1, 7)
}

fn file_for(values: &[Value], mode: WriterMode, codec: Codec) -> Vec<u8> {
    let schema = Schema::new(vec![Field::new("base", common::nested_test_type())]).unwrap();
    let block = Block::from_values(&common::nested_test_type(), values).unwrap();
    let row_group_rows = group_rows(values.len());
    let mut writer = FileWriter::new(
        schema,
        WriterProperties { codec, row_group_rows, ..WriterProperties::default() },
        mode,
    )
    .unwrap();
    writer.write_page(&Page::new(vec![block]).unwrap()).unwrap();
    writer.finish().unwrap()
}

/// The struct paths the new reader is asked for in one read: the whole
/// column and pruned sub-paths of every shape (several share leaves).
const PROJECTED_PATHS: [&[&str]; 7] =
    [&[], &["id"], &["tags"], &["inner"], &["inner", "flags"], &["legs"], &["attrs"]];

/// `values` of the column narrowed to the struct path `path`, with their type:
/// a NULL struct reads as NULL in every field below it.
fn narrowed(values: &[Value], path: &[&str]) -> (DataType, Vec<Value>) {
    let mut dt = common::nested_test_type();
    let mut values = values.to_vec();
    for segment in path {
        let DataType::Row(fields) = &dt else { panic!("{segment} is not under a struct") };
        let at = fields.iter().position(|f| f.name == *segment).expect("field exists");
        for v in &mut values {
            if let Value::Row(items) = v {
                *v = items.swap_remove(at);
            }
        }
        dt = fields[at].data_type.clone();
    }
    (dt, values)
}

/// Read [`PROJECTED_PATHS`] with the new reader, keeping rows with
/// `base.id >= min_id` when given, and hold every block it returns against
/// what [`Block::from_values`] builds from the written values of the same
/// row group: not only the same values but the same block — NULL slots
/// zeroed, no mask where no NULL survives, offsets rebased per group.
fn assert_new_reader_builds_canonical_blocks(
    source: &BytesSource,
    values: &[Value],
    min_id: Option<i64>,
) {
    let schema = Schema::new(vec![Field::new("base", common::nested_test_type())]).unwrap();
    let projections =
        PROJECTED_PATHS.iter().map(|path| ProjectedColumn::path("base", path)).collect();
    let mut options = ReadOptions::new(projections);
    if let Some(min_id) = min_id {
        options = options.with_predicate(FilePredicate::single(
            "base.id",
            ScalarPredicate::Range { min: Some(Value::Bigint(min_id)), max: None },
        ));
    }
    let (pages, stats) = presto_parquet::reader_new::read(source, &schema, &options).unwrap();
    assert!(values.len() < 3 || stats.row_groups_total >= 3, "{stats:?}");

    let keeps = |v: &Value| match (min_id, v) {
        (None, _) => true,
        (Some(min_id), Value::Row(items)) => matches!(items[0], Value::Bigint(id) if id >= min_id),
        (Some(_), _) => false,
    };
    // a row group the predicate empties yields no page
    let expected_groups: Vec<Vec<Value>> = values
        .chunks(group_rows(values.len()))
        .map(|group| group.iter().filter(|v| keeps(v)).cloned().collect::<Vec<_>>())
        .filter(|kept| !kept.is_empty() || min_id.is_none())
        .collect();
    assert_eq!(pages.len(), expected_groups.len());
    for (page, group) in pages.iter().zip(&expected_groups) {
        for (column, path) in PROJECTED_PATHS.iter().enumerate() {
            let (dt, expected) = narrowed(group, path);
            assert_eq!(
                page.block(column),
                &Block::from_values(&dt, &expected).unwrap(),
                "base.{}",
                path.join(".")
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parquet_round_trips_arbitrary_nested_values(
        values in proptest::collection::vec(arb_nested_value(), 1..30),
        native in any::<bool>(),
        codec_pick in 0u8..3,
    ) {
        let codec = match codec_pick { 0 => Codec::None, 1 => Codec::Fast, _ => Codec::Deep };
        let mode = if native { WriterMode::Native } else { WriterMode::Legacy };
        let schema = Schema::new(vec![Field::new("base", common::nested_test_type())]).unwrap();
        let bytes = file_for(&values, mode, codec);
        // the two writers differ in how they shred, never in what they write
        let other = if native { WriterMode::Legacy } else { WriterMode::Native };
        prop_assert!(bytes == file_for(&values, other, codec), "native != legacy bytes");
        let source = BytesSource::new(bytes);

        // legacy reader
        let (old_pages, _) = reader_old::read(&source, &schema, &["base".into()]).unwrap();
        let old_values: Vec<Value> =
            old_pages.iter().flat_map(|p| p.rows()).map(|mut r| r.remove(0)).collect();
        prop_assert_eq!(&old_values, &values);

        // new reader: the same values ...
        let options = ReadOptions::new(vec![ProjectedColumn::whole("base")]);
        let (new_pages, _) = presto_parquet::reader_new::read(&source, &schema, &options).unwrap();
        let new_values: Vec<Value> =
            new_pages.iter().flat_map(|p| p.rows()).map(|mut r| r.remove(0)).collect();
        prop_assert_eq!(&new_values, &values);
        // ... in the very blocks `from_values` builds, whole and pruned
        assert_new_reader_builds_canonical_blocks(&source, &values, None);
    }

    #[test]
    fn readers_agree_under_arbitrary_predicates(
        values in proptest::collection::vec(arb_nested_value(), 1..40),
        threshold in any::<i64>(),
    ) {
        let schema = Schema::new(vec![Field::new("base", common::nested_test_type())]).unwrap();
        let bytes = file_for(&values, WriterMode::Native, Codec::Fast);
        let source = BytesSource::new(bytes);

        // new reader with pushed predicate base.id >= threshold
        let options = ReadOptions::new(vec![ProjectedColumn::path("base", &["id"])])
            .with_predicate(FilePredicate::single(
                "base.id",
                ScalarPredicate::Range { min: Some(Value::Bigint(threshold)), max: None },
            ));
        let (pages, _) = presto_parquet::reader_new::read(&source, &schema, &options).unwrap();
        let got: Vec<Value> =
            pages.iter().flat_map(|p| p.rows()).map(|mut r| r.remove(0)).collect();

        // oracle: filter the original values
        let expected: Vec<Value> = values
            .iter()
            .filter_map(|v| match v {
                Value::Row(fields) => match &fields[0] {
                    Value::Bigint(id) if *id >= threshold => Some(Value::Bigint(*id)),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        prop_assert_eq!(got, expected);

        // and the masked blocks of every shape, whole and pruned
        assert_new_reader_builds_canonical_blocks(&source, &values, Some(threshold));
    }
}

// ---------------------------------------------------------------- quadtree

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quadtree_equals_brute_force(
        boxes in proptest::collection::vec(
            (0.0f64..100.0, 0.0f64..100.0, 0.1f64..20.0, 0.1f64..20.0),
            1..60,
        ),
        queries in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..20),
    ) {
        let mut tree = QuadTree::new(BoundingBox::new(0.0, 0.0, 120.0, 120.0));
        let built: Vec<BoundingBox> = boxes
            .iter()
            .map(|&(x, y, w, h)| BoundingBox::new(x, y, x + w, y + h))
            .collect();
        for (i, b) in built.iter().enumerate() {
            tree.insert(i as u32, *b);
        }
        for (qx, qy) in queries {
            let p = Point::new(qx, qy);
            let mut got = tree.query_point(&p);
            got.sort_unstable();
            let expected: Vec<u32> = built
                .iter()
                .enumerate()
                .filter(|(_, b)| b.contains_point(&p))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, expected);
        }
    }
}

// ------------------------------------------------------------- expressions

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn row_expression_serialization_round_trips(
        value in arb_nested_value(),
    ) {
        use presto_expr::RowExpression;
        let expr = RowExpression::Constant { value, data_type: common::nested_test_type() };
        let text = expr.serialize();
        prop_assert_eq!(RowExpression::deserialize(&text).unwrap(), expr);
    }

    #[test]
    fn vectorized_eval_matches_scalar_oracle(
        lhs in proptest::collection::vec(arb_scalar(&DataType::Bigint), 1..50),
        constant in any::<i64>(),
    ) {
        use presto_expr::{Evaluator, FunctionHandle, FunctionRegistry, RowExpression};
        let evaluator = Evaluator::new(FunctionRegistry::new());
        let block = Block::from_values(&DataType::Bigint, &lhs).unwrap();
        let page = Page::new(vec![block]).unwrap();
        for fn_name in ["eq", "lt", "gte", "add", "mul"] {
            let ret = if matches!(fn_name, "add" | "mul") {
                DataType::Bigint
            } else {
                DataType::Boolean
            };
            let expr = RowExpression::Call {
                handle: FunctionHandle::new(
                    fn_name,
                    vec![DataType::Bigint, DataType::Bigint],
                    ret,
                ),
                args: vec![
                    RowExpression::column("x", 0, DataType::Bigint),
                    RowExpression::bigint(constant),
                ],
            };
            let vectorized = evaluator.evaluate(&expr, &page).unwrap();
            for i in 0..page.positions() {
                let row = page.row(i);
                let scalar = evaluator.evaluate_scalar(&expr, &row).unwrap();
                prop_assert_eq!(vectorized.value(i), scalar, "{} at {}", fn_name, i);
            }
        }
    }
}

// ------------------------------------------------------------------ parser

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The SQL frontend must never panic, whatever bytes arrive (§II: 2M+
    /// queries/day of arbitrary user input).
    #[test]
    fn parser_never_panics(input in "\\PC{0,120}") {
        let _ = presto_sql::parse_sql(&input);
    }

    /// ... including inputs that start out looking like real queries.
    #[test]
    fn parser_never_panics_on_query_like_input(
        tail in "[a-z0-9_ .,'()=<>*]{0,80}",
    ) {
        let _ = presto_sql::parse_sql(&format!("SELECT {tail}"));
        let _ = presto_sql::parse_sql(&format!("SELECT a FROM t WHERE {tail}"));
    }
}

// ------------------------------------------------------------------ blocks

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Columnar gather must agree with the scalar oracle for any nested
    /// values and any index set (the reshaping primitive under every join,
    /// sort and filter).
    #[test]
    fn block_take_matches_value_gather(
        values in proptest::collection::vec(arb_nested_value(), 1..20),
        picks in proptest::collection::vec(any::<proptest::sample::Index>(), 0..40),
    ) {
        let block = Block::from_values(&common::nested_test_type(), &values).unwrap();
        let indices: Vec<usize> = picks.iter().map(|p| p.index(values.len())).collect();
        let taken = block.take(&indices);
        let expected: Vec<Value> = indices.iter().map(|&i| values[i].clone()).collect();
        prop_assert_eq!(taken.to_values(), expected);
    }

    /// Filter ≡ take-of-selected-indices ≡ scalar filtering.
    #[test]
    fn block_filter_matches_oracle(
        values in proptest::collection::vec(arb_nested_value(), 1..20),
        mask_seed in proptest::collection::vec(any::<bool>(), 1..20),
    ) {
        let mask: Vec<bool> =
            (0..values.len()).map(|i| mask_seed[i % mask_seed.len()]).collect();
        let block = Block::from_values(&common::nested_test_type(), &values).unwrap();
        let filtered = block.filter(&mask);
        let expected: Vec<Value> = values
            .iter()
            .zip(&mask)
            .filter(|(_, &keep)| keep)
            .map(|(v, _)| v.clone())
            .collect();
        prop_assert_eq!(filtered.to_values(), expected);
    }
}
