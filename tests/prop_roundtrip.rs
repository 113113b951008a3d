//! Property-based tests over the core invariants:
//! - codec round trip on arbitrary bytes;
//! - Parquet write→read round trip on arbitrary nested values (both writer
//!   generations, both reader generations);
//! - old-reader ≡ new-reader result equivalence under arbitrary predicates;
//! - QuadTree query ≡ brute-force scan;
//! - RowExpression serialization round trip;
//! - vectorized expression evaluation ≡ the scalar oracle, over generated
//!   expression trees.

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
    let mut writer =
        FileWriter::new(schema, WriterProperties { codec, row_group_rows }, mode).unwrap();
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
/// `base.id >= min_id` when given, and hold every block it returns, its
/// dictionary chunks decoded, against what [`Block::from_values`] builds
/// from the written values of the same row group: not only the same values
/// but the same block — NULL slots zeroed, no mask where no NULL survives,
/// offsets rebased per group.
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
                common::decoded(page.block(column)),
                Block::from_values(&dt, &expected).unwrap(),
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
}

// A type-driven generator of expression trees and the pages they read. The
// value pools are small and edge-heavy (NaN, ±0.0, ±inf, `i64` / `i32`
// extremes, zero divisors, NULLs) so comparisons hit, divisions fail and
// integers wrap within a few hundred cases.
mod expressions {
    use presto_common::rng::mix64;
    use presto_common::{Block, DataType, Page, Value};
    use presto_expr::{FunctionRegistry, RowExpression, SpecialForm};

    pub const TYPES: [DataType; 6] = [
        DataType::Bigint,
        DataType::Integer,
        DataType::Double,
        DataType::Varchar,
        DataType::Boolean,
        DataType::Date,
    ];
    const NUMERIC: [DataType; 3] = [DataType::Bigint, DataType::Integer, DataType::Double];

    pub struct Gen(pub u64);

    impl Gen {
        pub fn below(&mut self, bound: usize) -> usize {
            self.0 = mix64(self.0);
            (self.0 % bound as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<T: Clone>(&mut self, pool: &[T]) -> T {
            pool[self.below(pool.len())].clone()
        }

        /// A non-NULL value of `dt` from its pool.
        fn value(&mut self, dt: &DataType) -> Value {
            match dt {
                DataType::Bigint => {
                    Value::Bigint(self.pick(&[0, 1, -1, 2, 3, 7, i64::MAX, i64::MIN, i64::MIN + 1]))
                }
                DataType::Integer => {
                    Value::Integer(self.pick(&[0, 1, -1, 2, 3, 65_536, i32::MAX, i32::MIN]))
                }
                DataType::Double => Value::Double(self.pick(&[
                    0.0,
                    -0.0,
                    1.0,
                    -1.0,
                    2.5,
                    3.0,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    9.007199254740993e15,
                ])),
                DataType::Varchar => Value::Varchar(self.pick(&["", "a", "b", "ab", "AIR"]).into()),
                DataType::Boolean => Value::Boolean(self.chance(50)),
                _ => Value::Date(self.pick(&[0, 1, -1, 17_000, i32::MAX, i32::MIN])),
            }
        }

        fn nullable_value(&mut self, dt: &DataType, null_percent: usize) -> Value {
            if self.chance(null_percent) {
                Value::Null
            } else {
                self.value(dt)
            }
        }

        /// `rows` rows: every type as a plain column (channels 0..6), then
        /// every type dictionary-encoded (6..12) over a dictionary that may
        /// hold NULL entries and entries no row refers to. Half the pages
        /// have no NULL in their plain columns.
        pub fn page(&mut self, rows: usize) -> Page {
            let null_percent = if self.chance(50) { 0 } else { 25 };
            let mut blocks = Vec::new();
            for dt in &TYPES {
                let values: Vec<Value> =
                    (0..rows).map(|_| self.nullable_value(dt, null_percent)).collect();
                blocks.push(Block::from_values(dt, &values).unwrap());
            }
            for dt in &TYPES {
                let entries: Vec<Value> = (0..4).map(|_| self.nullable_value(dt, 20)).collect();
                let used = 1 + self.below(4);
                blocks.push(Block::Dictionary {
                    dictionary: Box::new(Block::from_values(dt, &entries).unwrap()),
                    ids: (0..rows).map(|_| self.below(used) as u32).collect(),
                });
            }
            Page::new(blocks).unwrap()
        }

        fn leaf(&mut self, dt: &DataType) -> RowExpression {
            let channel = TYPES.iter().position(|t| t == dt).unwrap();
            match self.below(10) {
                0..=4 => RowExpression::column("plain", channel, dt.clone()),
                5 | 6 => RowExpression::column("dict", TYPES.len() + channel, dt.clone()),
                7 => RowExpression::null(dt.clone()),
                _ => RowExpression::Constant { value: self.value(dt), data_type: dt.clone() },
            }
        }

        fn call(name: &str, args: Vec<RowExpression>) -> RowExpression {
            let types: Vec<DataType> = args.iter().map(RowExpression::data_type).collect();
            let handle = FunctionRegistry::new().resolve(name, &types).unwrap();
            RowExpression::Call { handle, args }
        }

        fn form(form: SpecialForm, args: Vec<RowExpression>, dt: &DataType) -> RowExpression {
            RowExpression::SpecialForm { form, args, return_type: dt.clone() }
        }

        /// A type another value of `dt` is compared with: itself, or for a
        /// number any number.
        fn comparable(&mut self, dt: &DataType) -> DataType {
            if dt.is_numeric() && self.chance(40) {
                self.pick(&NUMERIC)
            } else {
                dt.clone()
            }
        }

        /// An expression of type `dt`, at most `depth` operators deep.
        pub fn expr(&mut self, dt: &DataType, depth: usize) -> RowExpression {
            if depth == 0 || self.chance(15) {
                return self.leaf(dt);
            }
            let d = depth - 1;
            match self.below(10) {
                0 | 1 => {
                    let cond = self.expr(&DataType::Boolean, d);
                    let args = vec![cond, self.expr(dt, d), self.expr(dt, d)];
                    Self::form(SpecialForm::If, args, dt)
                }
                2 => {
                    let args = (0..1 + self.below(3)).map(|_| self.expr(dt, d)).collect();
                    Self::form(SpecialForm::Coalesce, args, dt)
                }
                _ if *dt == DataType::Boolean => self.predicate(d),
                _ if dt.is_numeric() => {
                    if self.chance(15) {
                        return Self::call("negate", vec![self.expr(dt, d)]);
                    }
                    // the argument types whose promotion is `dt`
                    let narrower: &[DataType] = match dt {
                        DataType::Double => &NUMERIC,
                        DataType::Bigint => &NUMERIC[..2],
                        _ => &NUMERIC[1..2],
                    };
                    let mut types = [dt.clone(), self.pick(narrower)];
                    if *dt == DataType::Integer || self.chance(50) {
                        types.swap(0, 1);
                    }
                    let op = self.pick(&["add", "sub", "mul", "div", "mod"]);
                    Self::call(op, vec![self.expr(&types[0], d), self.expr(&types[1], d)])
                }
                _ => self.leaf(dt),
            }
        }

        fn predicate(&mut self, d: usize) -> RowExpression {
            let boolean = DataType::Boolean;
            let of = self.pick(&TYPES);
            match self.below(9) {
                0..=2 => {
                    let op = self.pick(&["eq", "neq", "lt", "lte", "gt", "gte"]);
                    let other = self.comparable(&of);
                    Self::call(op, vec![self.expr(&of, d), self.expr(&other, d)])
                }
                3 => Self::call("not", vec![self.expr(&boolean, d)]),
                4 => {
                    let form = if self.chance(50) { SpecialForm::And } else { SpecialForm::Or };
                    let args = (0..2 + self.below(2)).map(|_| self.expr(&boolean, d)).collect();
                    Self::form(form, args, &boolean)
                }
                5 => Self::form(SpecialForm::IsNull, vec![self.expr(&of, d)], &boolean),
                6 => {
                    // bounds: mostly literals of a comparable type, now and
                    // then an expression or a type that never compares
                    let mut args = vec![self.expr(&of, d)];
                    for _ in 0..2 {
                        let bound = match self.below(10) {
                            0 => self.pick(&TYPES),
                            _ => self.comparable(&of),
                        };
                        args.push(if self.chance(70) {
                            self.leaf(&bound)
                        } else {
                            self.expr(&bound, d)
                        });
                    }
                    Self::form(SpecialForm::Between, args, &boolean)
                }
                _ => {
                    let mut args = vec![self.expr(&of, d)];
                    let constant = self.chance(70);
                    for _ in 0..1 + self.below(4) {
                        let item = match self.below(10) {
                            0 => self.pick(&TYPES),
                            _ => self.comparable(&of),
                        };
                        args.push(match (constant, self.chance(15)) {
                            (true, true) => RowExpression::null(item),
                            (true, false) => RowExpression::Constant {
                                value: self.value(&item),
                                data_type: item,
                            },
                            (false, _) => self.expr(&item, d),
                        });
                    }
                    Self::form(SpecialForm::In, args, &boolean)
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// `Evaluator::evaluate` against `evaluate_scalar` row by row: both fail
    /// with the same class of error, or both succeed and the block is the
    /// one `Block::from_values` builds from the scalar answers — down to the
    /// zeroed slot under a NULL and `nulls: None` when no NULL survives.
    #[test]
    fn vectorized_eval_matches_scalar_oracle(seed in any::<u64>()) {
        use presto_expr::{Evaluator, FunctionRegistry};
        let evaluator = Evaluator::new(FunctionRegistry::new());
        let mut gen = expressions::Gen(seed);
        let rows = match gen.below(8) { 0 => 0, 1 => 1, _ => 2 + gen.below(30) };
        let page = gen.page(rows);
        for _ in 0..12 {
            let dt = expressions::TYPES[gen.below(expressions::TYPES.len())].clone();
            let depth = 1 + gen.below(3);
            let expr = gen.expr(&dt, depth);
            let vectorized = evaluator.evaluate(&expr, &page);
            let scalar: presto_common::Result<Vec<Value>> =
                (0..rows).map(|i| evaluator.evaluate_scalar(&expr, &page.row(i))).collect();
            let context = || format!("{}\nover {page:?}", expr.serialize());
            match (vectorized, scalar) {
                (Ok(block), Ok(values)) => {
                    let expected = Block::from_values(&dt, &values).unwrap();
                    // Debug tells NaN from NaN-free and -0.0 from 0.0; `==` does not
                    prop_assert_eq!(
                        format!("{:?}", block.decode_dictionary()),
                        format!("{expected:?}"),
                        "{}", context()
                    );
                }
                (Err(v), Err(s)) => prop_assert_eq!(v.code(), s.code(), "{}", context()),
                (v, s) => panic!("vectorized {v:?}\nscalar {s:?}\n{}", context()),
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
