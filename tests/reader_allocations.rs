//! A noise-free guard on what building nested blocks straight from the
//! level streams bought: the number of heap allocations the new reader makes
//! for arrays, maps and structs does not depend on the number of rows. A
//! record assembler allocates per cell per level (a boxed `Value`, a `String`
//! per VARCHAR, a `Vec` per list); the direct builder allocates per chunk and
//! per block. Counts are exact on any machine, so this holds on a noisy VM
//! where a timing could not. The same goes for sizes: a dictionary chunk
//! read as a `Block::Dictionary` never allocates a buffer of its decoded
//! payload. (`exec_allocations.rs` is the same guard for the executor's
//! breakers.)

#[path = "common/counting.rs"]
mod counting;

use presto_common::{Block, DataType, Field, Page, Schema};
use presto_parquet::reader::BytesSource;
use presto_parquet::reader_new::{self, ProjectedColumn, ReadOptions};
use presto_parquet::{Codec, FileWriter, WriterMode, WriterProperties};

const ROW_GROUPS: usize = 4;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("tags", DataType::array(DataType::Varchar)),
        Field::new("features", DataType::map(DataType::Varchar, DataType::Double)),
        Field::new(
            "workflow",
            DataType::row(vec![
                Field::new("code", DataType::Integer),
                Field::new("steps", DataType::array(DataType::Varchar)),
            ]),
        ),
    ])
    .unwrap()
}

/// `rows` rows in [`ROW_GROUPS`] row groups. Lists of 0–3 entries with NULL
/// lists, NULL structs and NULL elements among them, so every level stream
/// is a real mixture and no chunk takes a constant-run shortcut.
fn file(rows: usize) -> Vec<u8> {
    let ids = || 0..rows;
    let lists = |null_every: usize| -> (Vec<u32>, Option<Vec<bool>>) {
        let mut offsets = vec![0u32];
        for i in ids() {
            let len = if i % null_every == 0 { 0 } else { (i % 4) as u32 };
            offsets.push(offsets[i] + len);
        }
        (offsets, Some(ids().map(|i| i % null_every == 0).collect()))
    };
    let strings = |n: u32, prefix: &str| {
        let owned: Vec<String> = (0..n).map(|j| format!("{prefix}{}", j % 50)).collect();
        match Block::varchar(&owned) {
            Block::Varchar { offsets, bytes, .. } => Block::Varchar {
                offsets,
                bytes,
                nulls: Some((0..n).map(|j| j % 13 == 0).collect()),
            },
            other => other,
        }
    };

    let (tag_offsets, tag_nulls) = lists(11);
    let tags = Block::Array {
        element_type: DataType::Varchar,
        elements: Box::new(strings(tag_offsets[rows], "tag")),
        offsets: tag_offsets,
        nulls: tag_nulls,
    };
    let (feature_offsets, feature_nulls) = lists(7);
    let entries = feature_offsets[rows];
    let features = Block::Map {
        key_type: DataType::Varchar,
        value_type: DataType::Double,
        keys: Box::new(Block::varchar(
            &(0..entries).map(|j| format!("feature{}", j % 9)).collect::<Vec<_>>(),
        )),
        values: Box::new(Block::Double {
            values: (0..entries).map(|j| f64::from(j % 17) * 0.5).collect(),
            nulls: Some((0..entries).map(|j| j % 5 == 0).collect()),
        }),
        offsets: feature_offsets,
        nulls: feature_nulls,
    };
    let (step_offsets, step_nulls) = lists(9);
    let workflow = Block::Row {
        fields: match &schema().field_at(2).data_type {
            DataType::Row(fields) => fields.clone(),
            other => panic!("{other} is not a struct"),
        },
        children: vec![
            Block::integer(ids().map(|i| (i % 7) as i32).collect()),
            Block::Array {
                element_type: DataType::Varchar,
                elements: Box::new(strings(step_offsets[rows], "step")),
                offsets: step_offsets,
                nulls: step_nulls,
            },
        ],
        len: rows,
        nulls: Some(ids().map(|i| i % 10 == 3).collect()),
    };

    // canonical form (a NULL struct's fields are NULL, NULL slots zeroed)
    let page = Page::new(vec![tags, features, workflow]).unwrap();
    let page = Page::new(
        page.blocks()
            .iter()
            .map(|b| Block::from_values(&b.data_type(), &b.to_values()).unwrap())
            .collect(),
    )
    .unwrap();
    let props = WriterProperties { codec: Codec::Fast, row_group_rows: rows / ROW_GROUPS };
    let mut writer = FileWriter::new(schema(), props, WriterMode::Native).unwrap();
    writer.write_page(&page).unwrap();
    writer.finish().unwrap()
}

/// Allocations of one `reader_new::read` of all three columns of a
/// `rows`-row file, with the rows and row groups it read.
fn read_allocations(rows: usize) -> (u64, usize, usize) {
    let source = BytesSource::new(file(rows));
    let options = ReadOptions::new(
        ["tags", "features", "workflow"].iter().map(|c| ProjectedColumn::whole(*c)).collect(),
    );
    let before = counting::allocations();
    let (pages, stats) = reader_new::read(&source, &schema(), &options).unwrap();
    let after = counting::allocations();
    (after - before, pages.iter().map(Page::positions).sum(), stats.row_groups_total)
}

/// A dictionary chunk stays encoded through the read: no buffer of its
/// decoded payload is ever allocated, only the ids (4 bytes a row) and the
/// page's few entries.
#[test]
fn a_dictionary_chunk_is_never_decoded_to_its_payload() {
    const ROWS: usize = 100_000;
    let words: Vec<String> =
        (0..16).map(|k| format!("status-{k:02}-of-a-long-enum-name")).collect();
    let column: Vec<&str> = (0..ROWS).map(|i| words[i * 7 % 16].as_str()).collect();
    let payload: usize = column.iter().map(|w| w.len()).sum();
    let schema = Schema::new(vec![Field::new("status", DataType::Varchar)]).unwrap();
    let props = WriterProperties { codec: Codec::Fast, row_group_rows: ROWS };
    let mut writer = FileWriter::new(schema.clone(), props, WriterMode::Native).unwrap();
    writer.write_page(&Page::new(vec![Block::varchar(&column)]).unwrap()).unwrap();
    let source = BytesSource::new(writer.finish().unwrap());

    counting::forget_largest();
    let options = ReadOptions::new(vec![ProjectedColumn::whole("status")]);
    let (pages, _) = reader_new::read(&source, &schema, &options).unwrap();
    let largest = counting::largest();
    assert!(
        largest < payload,
        "an allocation of {largest} bytes reading a {payload}-byte dictionary column"
    );
    assert_eq!(pages.iter().map(Page::positions).sum::<usize>(), ROWS);
    assert!(matches!(pages[0].block(0), Block::Dictionary { .. }));
}

#[test]
fn nested_read_allocations_do_not_scale_with_rows() {
    const N: usize = 2_000;
    let (small, small_rows, small_groups) = read_allocations(N);
    let (large, large_rows, large_groups) = read_allocations(2 * N);
    assert_eq!((small_rows, large_rows), (N, 2 * N));
    assert_eq!(small_groups, large_groups);
    // Same row groups, same leaves, same blocks: every buffer is sized from
    // its chunk before it is filled, so twice the rows is the same number of
    // (larger) allocations. One allocation per row would add N.
    assert_eq!(small, large, "{small} allocations over {N} rows, {large} over {}", 2 * N);
}
