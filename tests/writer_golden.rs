//! The writer's "same bytes" contract, pinned.
//!
//! Figs 18–20 compare two writer *architectures*; that is only a fair
//! comparison while both produce the same file, and a faster chunk encoder is
//! only an optimisation while the file it produces is the one it produced
//! before. The digests in [`GOLDEN`] cover a fixed set of pages × every codec
//! × {one row group, 7-row groups}. The `None` ones were recorded from the
//! commit before the native writer went column-wise; the `Deep` ones were
//! re-recorded when `Deep`'s search was bounded, and the `Fast` ones when
//! `Fast` took Snappy's search; each change moved what its codec writes but
//! not its format (see [`GOLDEN`]). Each case is written by both writer
//! modes, the two files must be equal byte for byte, and their digest must be
//! the recorded one.

mod common;

use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::tpch::{generate_lineitem, lineitem_schema};
use presto_parquet::reader::BytesSource;
use presto_parquet::reader_new::{self, ProjectedColumn, ReadOptions};
use presto_parquet::{reader_old, Codec, FileWriter, WriterMode, WriterProperties};

fn write(schema: &Schema, page: &Page, mode: WriterMode, codec: Codec, cap: usize) -> Vec<u8> {
    let props = WriterProperties { codec, row_group_rows: cap };
    let mut writer = FileWriter::new(schema.clone(), props, mode).unwrap();
    writer.write_page(page).unwrap();
    writer.finish().unwrap()
}

/// FNV-1a, 64 bit.
fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A value of `dt`: NULL one time in eight at every level, lists and maps
/// of 0..4 entries (so NULL structs, NULL and empty lists and maps, and NULL
/// leaves all occur).
fn arbitrary(dt: &DataType, rng: &mut SplitMix) -> Value {
    if rng.below(8) == 0 {
        return Value::Null;
    }
    match dt {
        DataType::Bigint => Value::Bigint(rng.below(50) as i64 - 25),
        DataType::Double => Value::Double(rng.below(64) as f64 * 0.25 - 4.0),
        DataType::Boolean => Value::Boolean(rng.below(2) == 0),
        DataType::Varchar => Value::Varchar(format!("v{}", rng.below(12))),
        DataType::Array(element) => {
            Value::Array((0..rng.below(4)).map(|_| arbitrary(element, rng)).collect())
        }
        DataType::Map(_, value) => Value::Map(
            (0..rng.below(4))
                .map(|k| (Value::Varchar(format!("k{k}")), arbitrary(value, rng)))
                .collect(),
        ),
        DataType::Row(fields) => {
            Value::Row(fields.iter().map(|f| arbitrary(&f.data_type, rng)).collect())
        }
        other => panic!("no generator for {other}"),
    }
}

fn columns(columns: Vec<(&str, DataType, Vec<Value>)>) -> (Schema, Page) {
    let fields = columns.iter().map(|(name, dt, _)| Field::new(*name, dt.clone())).collect();
    let blocks =
        columns.iter().map(|(_, dt, values)| Block::from_values(dt, values).unwrap()).collect();
    (Schema::new(fields).unwrap(), Page::new(blocks).unwrap())
}

fn cases() -> Vec<(&'static str, Schema, Page)> {
    let mut rng = SplitMix(20261005);
    let nested: Vec<Value> =
        (0..120).map(|_| arbitrary(&common::nested_test_type(), &mut rng)).collect();
    let (nested_schema, nested_page) = columns(vec![("base", common::nested_test_type(), nested)]);

    let (null_schema, null_page) = columns(vec![
        ("a", DataType::Bigint, vec![Value::Null; 40]),
        ("b", DataType::Varchar, vec![Value::Null; 40]),
        ("c", DataType::array(DataType::Bigint), vec![Value::Null; 40]),
    ]);

    // NaN never reaches min / max; +0.0 and -0.0 tie under `sql_cmp`, so the
    // one seen first stays (and its sign bit is in the footer)
    let d = Value::Double;
    let (double_schema, double_page) = columns(vec![
        (
            "mixed",
            DataType::Double,
            vec![
                d(f64::NAN),
                d(-0.0),
                d(0.0),
                Value::Null,
                d(1.5),
                d(f64::NAN),
                d(f64::NEG_INFINITY),
                d(0.0),
                d(f64::INFINITY),
                d(-2.25),
                d(-0.0),
                d(7.0),
            ],
        ),
        (
            "zeros",
            DataType::Double,
            [0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0].map(d).to_vec(),
        ),
        ("nans", DataType::Double, vec![d(f64::NAN); 12]),
    ]);

    // minima and maxima longer than the 64 characters a footer keeps, one-
    // and multi-byte; `edge` holds a 64-character string above a longer one
    // it shares 63 characters with, in both orders
    let long = |lead: &str, fill: char, n: usize| {
        Value::Varchar(format!("{lead}{}", fill.to_string().repeat(n)))
    };
    let p63 = "p".repeat(63);
    let (varchar_schema, varchar_page) = columns(vec![
        (
            "ascii",
            DataType::Varchar,
            vec![
                long("m", 'x', 90),
                long("a", 'b', 200),
                long("z", 'y', 70),
                Value::Null,
                long("a", 'b', 100),
                long("z", 'y', 150),
                long("k", 'k', 3),
                long("a", 'b', 63),
            ],
        ),
        (
            "wide",
            DataType::Varchar,
            vec![
                long("é", 'ü', 80),
                long("é", 'ü', 64),
                long("日", '本', 100),
                long("日", '本', 63),
                long("a", 'é', 65),
                Value::Null,
                long("日", '木', 70),
                long("", '\u{10FFFF}', 66),
            ],
        ),
        (
            "edge",
            DataType::Varchar,
            vec![
                Value::Varchar(format!("{p63}abc")),
                Value::Varchar(format!("{p63}q")),
                Value::Varchar(format!("{p63}ab")),
                Value::Varchar(format!("{p63}a")),
                Value::Varchar(p63.clone()),
                Value::Varchar(format!("{p63}abd")),
                Value::Null,
                Value::Varchar(format!("{p63}r")),
            ],
        ),
        (
            "edge_reversed",
            DataType::Varchar,
            vec![
                Value::Varchar(format!("{p63}q")),
                Value::Varchar(format!("{p63}abc")),
                Value::Varchar(p63.clone()),
                Value::Varchar(format!("{p63}a")),
                Value::Null,
                Value::Varchar(format!("{p63}ab")),
                Value::Varchar(p63.clone()),
                Value::Varchar(format!("{p63}abd")),
            ],
        ),
    ]);

    // 1,025 distinct values is one more than a dictionary may hold: those
    // columns fall back to plain, the 1,024-distinct ones stay encoded
    let rows = 3_000usize;
    let cycle = |n: usize, f: &dyn Fn(usize) -> Value| (0..rows).map(|i| f(i % n)).collect();
    let (distinct_schema, distinct_page) = columns(vec![
        ("bigint_1025", DataType::Bigint, cycle(1025, &|i| Value::Bigint(i as i64 * 3))),
        ("bigint_1024", DataType::Bigint, cycle(1024, &|i| Value::Bigint(i as i64 * 3))),
        ("integer_1025", DataType::Integer, cycle(1025, &|i| Value::Integer(i as i32 - 500))),
        ("varchar_1025", DataType::Varchar, cycle(1025, &|i| Value::Varchar(format!("s{i}")))),
        ("varchar_1024", DataType::Varchar, cycle(1024, &|i| Value::Varchar(format!("s{i}")))),
        ("date_9", DataType::Date, cycle(9, &|i| Value::Date(17_000 + i as i32))),
    ]);

    vec![
        ("lineitem", lineitem_schema(), generate_lineitem(0, 700, 42).unwrap()),
        ("trips", common::trips_schema(), common::trips_page(600)),
        ("nested", nested_schema, nested_page),
        ("all_null", null_schema, null_page),
        ("doubles", double_schema, double_page),
        ("long_varchar", varchar_schema, varchar_page),
        ("distinct", distinct_schema, distinct_page),
    ]
}

const CODECS: [Codec; 3] = [Codec::None, Codec::Fast, Codec::Deep];
/// Row-group caps: the whole page in one group, and 7-row groups.
const CAPS: [usize; 2] = [usize::MAX, 7];

/// `(case, [digest; codec × cap])`, codec-major in the order of [`CODECS`]
/// and [`CAPS`]. Columns 5–6 (`Deep`) moved when its search was bounded — a
/// lazy probe only after a match shorter than 6 bytes, and a skip through a
/// streak of positions without a match. Columns 3–4 (`Fast`) moved when it
/// took Snappy's search — the same skip, only searched positions and a
/// match's last two entered in the head table, and a match extended
/// backwards over the literals before it — and the `None` and `Deep` columns
/// did not. Each time `all_null`'s stayed put: its pages are too short to
/// search.
const GOLDEN: [(&str, [u64; 6]); 7] = [
    (
        "lineitem",
        [
            0x23cc_1ada_5a99_9f9d,
            0x2bdd_ac8d_d31a_6260,
            0xd281_001e_73c4_4456,
            0xd8ff_e4d5_62d7_858f,
            0x60ac_5afb_6cce_c19d,
            0x826e_78c0_0734_0700,
        ],
    ),
    (
        "trips",
        [
            0x1245_730b_234a_e865,
            0x9759_ad9b_7c92_9fdf,
            0xc9d3_79a3_5ba6_17fc,
            0x9a27_925e_c92c_bcc8,
            0xb0cd_1a5d_8e3f_9299,
            0xa19e_51ee_4bf1_09db,
        ],
    ),
    (
        "nested",
        [
            0x665d_b4c6_b876_81a0,
            0x23c8_356c_589f_01af,
            0x80f5_0508_5d00_a07e,
            0xcaee_01f0_2ab3_6f53,
            0x1b8d_b317_9b8f_bea3,
            0xcf08_1d94_738c_f634,
        ],
    ),
    (
        "all_null",
        [
            0x72e3_0794_0fe7_baaa,
            0x9237_081e_d5dd_b3a6,
            0x6fe4_d106_2229_37c6,
            0xba54_b31d_e0fe_fdaf,
            0x2a10_2c4c_9089_1a9d,
            0x62a5_c761_3057_d803,
        ],
    ),
    (
        "doubles",
        [
            0x7624_6829_5320_17cd,
            0x1bcc_7a9c_aa0b_14d6,
            0xf866_7136_f318_face,
            0xed68_8404_85e9_b936,
            0x6932_2d55_ef5a_9225,
            0x344b_ea86_2698_bea5,
        ],
    ),
    (
        "long_varchar",
        [
            0xe1d9_3146_f2bd_5f6b,
            0x5438_f717_0a10_1e69,
            0xc2fd_2aa4_52a1_e91a,
            0x9a9c_15f6_7c64_04da,
            0xd9b6_e519_40d5_e3ac,
            0x256e_6c98_cc75_7e16,
        ],
    ),
    (
        "distinct",
        [
            0xc0f7_21c7_e8e8_dbc8,
            0xed07_892c_9a46_fe3c,
            0xbda2_8dcf_8c15_6f32,
            0x1c7a_1908_c257_4dc5,
            0xf9e4_1d35_5b91_e8c0,
            0x6720_50f3_065a_c226,
        ],
    ),
];

#[test]
fn every_file_is_the_file_the_parent_commit_wrote() {
    let mut actual = Vec::new();
    for (name, schema, page) in cases() {
        let mut digests = [0u64; 6];
        for (c, codec) in CODECS.into_iter().enumerate() {
            for (g, cap) in CAPS.into_iter().enumerate() {
                let native = write(&schema, &page, WriterMode::Native, codec, cap);
                let legacy = write(&schema, &page, WriterMode::Legacy, codec, cap);
                assert!(native == legacy, "{name} {codec:?} cap {cap}: native != legacy bytes");
                digests[c * CAPS.len() + g] = digest(&native);
            }
        }
        actual.push((name, digests));
    }
    let table: String = actual
        .iter()
        .map(|(name, digests)| format!("    ({name:?}, {digests:#018x?}),\n"))
        .collect();
    assert!(actual == GOLDEN, "digests moved; the files are now:\n{table}");
}

/// Bounding `Deep`'s search costs little ratio: the 5k-row lineitem page
/// `ingest_write` writes, in one row group, stays within +0.5% of the
/// 215,511 bytes the unbounded search wrote.
#[test]
fn the_deep_lineitem_file_stays_within_half_a_percent_of_the_unbounded_search() {
    let page = generate_lineitem(0, 5_000, 42).unwrap();
    let file = write(&lineitem_schema(), &page, WriterMode::Native, Codec::Deep, usize::MAX);
    assert!(file.len() <= 216_589, "{} bytes", file.len());
}

/// `Fast`'s skip and sparse head table cost little ratio: the same page
/// under `Fast` stays within +3% of the 251,702 bytes the search of every
/// position wrote.
#[test]
fn the_fast_lineitem_file_stays_within_three_percent_of_the_every_position_search() {
    let page = generate_lineitem(0, 5_000, 42).unwrap();
    let file = write(&lineitem_schema(), &page, WriterMode::Native, Codec::Fast, usize::MAX);
    assert!(file.len() <= 259_253, "{} bytes", file.len());
}

#[test]
fn the_distinct_case_pins_the_dictionary_cut_off() {
    use presto_parquet::metadata::{Encoding, FileMetadata};
    let (_, schema, page) = cases().pop().unwrap();
    let bytes = write(&schema, &page, WriterMode::Native, Codec::None, usize::MAX);
    let footer_len =
        u32::from_le_bytes(bytes[bytes.len() - 8..bytes.len() - 4].try_into().unwrap()) as usize;
    let meta =
        FileMetadata::deserialize(&bytes[bytes.len() - 8 - footer_len..bytes.len() - 8]).unwrap();
    let encodings: Vec<Encoding> = meta.row_groups[0].columns.iter().map(|c| c.encoding).collect();
    use Encoding::{Dictionary, Plain};
    assert_eq!(encodings, [Plain, Dictionary, Plain, Plain, Dictionary, Dictionary]);
}

/// A `Block::Dictionary` is a legal child of a `Row`, an `Array` or a `Map`;
/// before the column-wise shredder only a top-level one was accepted.
#[test]
fn dictionary_blocks_below_the_top_level_write_and_read_back() {
    let words = Block::Dictionary {
        dictionary: Box::new(
            Block::from_values(
                &DataType::Varchar,
                &["uberx".into(), Value::Null, "pool".into(), "black".into()],
            )
            .unwrap(),
        ),
        ids: vec![2, 0, 1, 3, 0, 0, 2, 1, 3, 3],
    };
    let fields =
        vec![Field::new("product", DataType::Varchar), Field::new("city_id", DataType::Bigint)];
    let row = Block::Row {
        fields: fields.clone(),
        children: vec![words.clone(), Block::bigint((0..10).collect())],
        len: 10,
        nulls: Some(vec![false, false, false, true, false, false, false, false, false, false]),
    };
    let list = Block::Array {
        element_type: DataType::Varchar,
        offsets: vec![0, 3, 3, 4, 10],
        elements: Box::new(words.clone()),
        nulls: Some(vec![false, false, true, false]),
    };
    let map = Block::Map {
        key_type: DataType::Varchar,
        value_type: DataType::Varchar,
        offsets: vec![0, 2, 2, 6, 10],
        keys: Box::new(Block::varchar(&(0..10).map(|k| format!("k{k}")).collect::<Vec<_>>())),
        values: Box::new(words),
        nulls: None,
    };
    for (dt, block) in [
        (DataType::row(fields), row),
        (DataType::array(DataType::Varchar), list),
        (DataType::map(DataType::Varchar, DataType::Varchar), map),
    ] {
        let schema = Schema::new(vec![Field::new("c", dt.clone())]).unwrap();
        let expected = block.to_values();
        let page = Page::new(vec![block]).unwrap();
        for cap in [usize::MAX, 3] {
            let native = write(&schema, &page, WriterMode::Native, Codec::Fast, cap);
            let legacy = write(&schema, &page, WriterMode::Legacy, Codec::Fast, cap);
            assert!(native == legacy, "{dt} cap {cap}: native != legacy bytes");
            let source = BytesSource::new(native);
            let (old, _) = reader_old::read(&source, &schema, &["c".into()]).unwrap();
            let options = ReadOptions::new(vec![ProjectedColumn::whole("c")]);
            let (new, _) = reader_new::read(&source, &schema, &options).unwrap();
            for pages in [old, new] {
                let values: Vec<Value> =
                    pages.iter().flat_map(|p| p.rows()).map(|mut r| r.remove(0)).collect();
                assert_eq!(values, expected, "{dt} cap {cap}");
            }
        }
    }
}
