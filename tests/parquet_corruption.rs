//! Hostile files against both reader generations: every single-byte
//! corruption and every truncation of a small nested file must read back
//! `Ok` (the damage hit a byte that does not change the answer's shape, or
//! only a value) or fail with a classified [`PrestoError`] — never a panic,
//! and never an `Internal` error, which would mean a layer trusted the file.
//!
//! The new reader builds blocks by indexing sibling leaf streams with the
//! structure its pilot leaf found, so everything the record assembler used
//! to discover lazily (levels above the leaf's maxima, a chunk that does not
//! start a record, leaves that disagree on a column's shape, a value count
//! that does not match the levels) is validated up front; this is the test
//! of that validation.

use std::panic::{catch_unwind, AssertUnwindSafe};

use presto_common::{Block, DataType, Field, Page, PrestoError, Schema, Value};
use presto_parquet::encoding::{rle_encode, ByteWriter};
use presto_parquet::metadata::{Encoding, MAGIC};
use presto_parquet::reader::{read_metadata, BytesSource};
use presto_parquet::reader_new::{self, ProjectedColumn, ReadOptions};
use presto_parquet::{
    reader_old, Codec, FilePredicate, FileWriter, FlatSchema, ScalarPredicate, WriterMode,
    WriterProperties,
};

fn nested_type() -> DataType {
    DataType::row(vec![
        Field::new("id", DataType::Bigint),
        Field::new("status", DataType::Varchar),
        Field::new("tags", DataType::array(DataType::Varchar)),
        Field::new("props", DataType::map(DataType::Varchar, DataType::Double)),
        Field::new(
            "legs",
            DataType::array(DataType::row(vec![
                Field::new("stop", DataType::Integer),
                Field::new("codes", DataType::array(DataType::Bigint)),
            ])),
        ),
    ])
}

fn schema() -> Schema {
    Schema::new(vec![Field::new("base", nested_type())]).unwrap()
}

/// 18 rows in 3 row groups: NULL and empty lists, NULL structs inside
/// lists, a dictionary-encoded leaf (`status`) and plain ones.
fn values() -> Vec<Value> {
    (0..18i64)
        .map(|i| {
            if i % 7 == 6 {
                return Value::Null;
            }
            let tags = match i % 4 {
                0 => Value::Null,
                1 => Value::Array(vec![]),
                _ => Value::Array(vec![format!("t{i}").into(), Value::Null]),
            };
            let props = match i % 3 {
                0 => Value::Map(vec![
                    ("k".into(), Value::Double(i as f64)),
                    ("n".into(), Value::Null),
                ]),
                1 => Value::Map(vec![]),
                _ => Value::Null,
            };
            let leg = |n: i64| {
                Value::Row(vec![
                    Value::Integer(n as i32),
                    Value::Array((0..n % 3).map(Value::Bigint).collect()),
                ])
            };
            let legs = match i % 5 {
                0 => Value::Array(vec![leg(i), Value::Null, leg(i + 1)]),
                1 => Value::Array(vec![]),
                2 => Value::Null,
                _ => Value::Array(vec![leg(i)]),
            };
            Value::Row(vec![
                Value::Bigint(i),
                Value::Varchar(["open", "done"][(i % 2) as usize].into()),
                tags,
                props,
                legs,
            ])
        })
        .collect()
}

fn file(codec: Codec) -> Vec<u8> {
    let block = Block::from_values(&nested_type(), &values()).unwrap();
    let props = WriterProperties { codec, row_group_rows: 6 };
    let mut writer = FileWriter::new(schema(), props, WriterMode::Native).unwrap();
    writer.write_page(&Page::new(vec![block]).unwrap()).unwrap();
    writer.finish().unwrap()
}

/// Both readers over `bytes`; the new one with the whole column, pruned
/// sub-paths and a pushed predicate, so every builder arm and the mask run.
fn read_both(bytes: Vec<u8>) -> Vec<Result<usize, PrestoError>> {
    let source = BytesSource::new(bytes);
    let rows = |pages: Vec<Page>| pages.iter().map(Page::positions).sum::<usize>();
    let whole = ReadOptions::new(vec![
        ProjectedColumn::whole("base"),
        ProjectedColumn::path("base", &["legs"]),
        ProjectedColumn::path("base", &["props"]),
    ]);
    let needle = ReadOptions::new(vec![
        ProjectedColumn::path("base", &["tags"]),
        ProjectedColumn::path("base", &["status"]),
    ])
    .with_predicate(FilePredicate {
        conjuncts: vec![
            presto_parquet::ColumnPredicate {
                leaf_path: "base.id".into(),
                predicate: ScalarPredicate::Range { min: Some(Value::Bigint(4)), max: None },
            },
            presto_parquet::ColumnPredicate {
                leaf_path: "base.status".into(),
                predicate: ScalarPredicate::Eq(Value::Varchar("open".into())),
            },
        ],
    });
    vec![
        reader_new::read(&source, &schema(), &whole).map(|(pages, _)| rows(pages)),
        reader_new::read(&source, &schema(), &needle).map(|(pages, _)| rows(pages)),
        reader_old::read(&source, &schema(), &["base".into()]).map(|(pages, _)| rows(pages)),
    ]
}

fn assert_survives(bytes: Vec<u8>, what: &str) {
    let outcomes = catch_unwind(AssertUnwindSafe(|| read_both(bytes)))
        .unwrap_or_else(|_| panic!("{what}: a reader panicked"));
    for (reader, outcome) in ["new/whole", "new/needle", "legacy"].iter().zip(outcomes) {
        if let Err(error) = outcome {
            assert!(
                !matches!(error, PrestoError::Internal(_)),
                "{what}: {reader} reader failed unclassified: {error}"
            );
        }
    }
}

#[test]
fn the_undamaged_file_reads_back() {
    for codec in [Codec::None, Codec::Fast] {
        let outcomes = read_both(file(codec));
        assert_eq!(outcomes[0].as_ref().unwrap(), &18);
        assert_eq!(outcomes[2].as_ref().unwrap(), &18);
        // ids 4.. that are "open" (even) and not in a NULL struct
        let kept = |v: &&Value| match v {
            Value::Row(fields) => matches!(fields[0], Value::Bigint(i) if i >= 4 && i % 2 == 0),
            _ => false,
        };
        let expected = values().iter().filter(kept).count();
        assert_eq!(outcomes[1].as_ref().unwrap(), &expected);
    }
}

#[test]
fn every_flipped_byte_is_ok_or_a_classified_error() {
    for codec in [Codec::None, Codec::Fast] {
        let clean = file(codec);
        for at in 0..clean.len() {
            for flip in [0xFFu8, 0x01, 0x80] {
                let mut bytes = clean.clone();
                bytes[at] ^= flip;
                assert_survives(bytes, &format!("{codec:?} byte {at} ^ {flip:#04x}"));
            }
        }
    }
}

/// A one-column, one-group, uncompressed file of 8 VARCHARs over two
/// distinct values — so dictionary-encoded, entries `a`, `b` — whose data
/// page is replaced by `page`, appended after the chunks it had.
fn with_data_page(page: impl FnOnce(&mut ByteWriter, u16)) -> (Schema, Vec<u8>) {
    let schema = Schema::new(vec![Field::new("s", DataType::Varchar)]).unwrap();
    let props = WriterProperties { codec: Codec::None, ..WriterProperties::default() };
    let mut writer = FileWriter::new(schema.clone(), props, WriterMode::Native).unwrap();
    let words: Vec<&str> = (0..8).map(|i| ["a", "b"][i % 2]).collect();
    writer.write_page(&Page::new(vec![Block::varchar(&words)]).unwrap()).unwrap();
    let file = writer.finish().unwrap();
    let mut meta = read_metadata(&BytesSource::new(file.clone())).unwrap();
    assert_eq!(meta.row_groups[0].columns[0].encoding, Encoding::Dictionary);

    let max_def = FlatSchema::new(schema.clone()).unwrap().leaves[0].max_def;
    let mut w = ByteWriter::new();
    page(&mut w, max_def);
    let footer_len = u32::from_le_bytes(file[file.len() - 8..file.len() - 4].try_into().unwrap());
    let mut out = file[..file.len() - 8 - footer_len as usize].to_vec();
    meta.row_groups[0].columns[0].data_page = (out.len() as u64, w.len() as u64);
    out.extend_from_slice(w.as_bytes());
    let footer = meta.serialize();
    out.extend_from_slice(&footer);
    out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
    out.extend_from_slice(MAGIC);
    (schema, out)
}

/// Both readers' verdicts on `file`, which must be a classified error.
fn assert_format_error_under_both_readers(schema: &Schema, file: Vec<u8>, what: &str) {
    let source = BytesSource::new(file);
    let options = ReadOptions::new(vec![ProjectedColumn::whole("s")]);
    let new = reader_new::read(&source, schema, &options).map(|(pages, _)| pages);
    let old = reader_old::read(&source, schema, &["s".into()]).map(|(pages, _)| pages);
    for (reader, outcome) in [("new", new), ("legacy", old)] {
        match outcome {
            Err(PrestoError::Format(_)) => {}
            other => panic!("{what}: the {reader} reader gave {other:?}"),
        }
    }
}

/// Dictionary ids are varints that must fit where they land: an id of
/// 2^32 + 1 is not entry 1, and an id past the dictionary is no entry at all.
#[test]
fn hand_built_dictionary_ids_out_of_range_are_format_errors() {
    for (id, what) in [((1u64 << 32) + 1, "id 2^32 + 1"), (2, "id 2 of 2 entries")] {
        let (schema, file) = with_data_page(|w, max_def| {
            w.u8(Encoding::Dictionary.tag());
            rle_encode(&[0u16; 8], w);
            rle_encode(&[max_def; 8], w);
            // eight ids: a run of seven 0s, then one literal
            w.varint(8);
            w.varint((7 << 1) | 1);
            w.varint(0);
            w.varint(1 << 1);
            w.varint(id);
        });
        assert_format_error_under_both_readers(&schema, file, what);
    }
}

/// A definition level of 2^32 is not level 0 (the legacy reader decodes
/// levels one at a time, through the same RLE decoder as ids): a plain page
/// whose first level is 2^32 and the other seven are defined, with the seven
/// values they say.
#[test]
fn a_hand_built_level_past_32_bits_is_a_format_error() {
    let (schema, file) = with_data_page(|w, max_def| {
        w.u8(Encoding::Plain.tag());
        rle_encode(&[0u16; 8], w);
        w.varint(8);
        w.varint(1 << 1);
        w.varint(1 << 32);
        w.varint((7 << 1) | 1);
        w.varint(u64::from(max_def));
        w.varint(7);
        (0..7).for_each(|_| w.bytes(b"a"));
    });
    assert_format_error_under_both_readers(&schema, file, "level 2^32");
}

#[test]
fn every_truncation_is_a_classified_error() {
    for codec in [Codec::None, Codec::Fast] {
        let clean = file(codec);
        for len in 0..clean.len() {
            assert_survives(clean[..len].to_vec(), &format!("{codec:?} cut to {len} bytes"));
        }
    }
}
