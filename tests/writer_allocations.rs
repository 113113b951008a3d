//! A noise-free guard on what shredding by column and keeping the chunk
//! encoder typed bought: the number of heap allocations one file write makes
//! is a matter of how many leaves the schema has, not how many rows the page
//! holds. A row-at-a-time shredder grows its sinks a value at a time, boxed
//! statistics allocate a `String` per VARCHAR value, and a `HashMap`
//! dictionary a `Vec<u8>` per distinct string; the column-wise writer
//! allocates per buffer. Counts are exact on any machine, so this holds on a
//! noisy VM where a timing could not. (`reader_allocations.rs` is the same
//! guard for the read side.)

mod common;
#[path = "common/counting.rs"]
mod counting;

use presto_parquet::{Codec, FileWriter, FlatSchema, WriterMode, WriterProperties};

/// Allocations of writing `rows` trips as one file of `groups` row groups.
fn write_allocations(rows: usize, groups: usize, mode: WriterMode) -> u64 {
    let page = common::trips_page(rows);
    let props = WriterProperties { codec: Codec::Fast, row_group_rows: rows / groups };
    let before = counting::allocations();
    let mut writer = FileWriter::new(common::trips_schema(), props, mode).unwrap();
    writer.write_page(&page).unwrap();
    let bytes = writer.finish().unwrap();
    let after = counting::allocations();
    assert!(bytes.len() > rows);
    after - before
}

#[test]
fn native_write_allocations_follow_the_leaves_not_the_rows() {
    const ROWS: usize = 5_000;
    let leaves = FlatSchema::new(common::trips_schema()).unwrap().leaves.len() as u64;
    assert_eq!(leaves, 20);

    // per leaf: a sink's buffers, its footer entry and bounds, and its share
    // of the output growing; per file: the schema, the scratch, the footer
    let one_group = write_allocations(ROWS, 1, WriterMode::Native);
    assert!(one_group <= 16 * leaves, "{one_group} allocations for {leaves} leaves");

    // twice the rows: the same buffers, a doubling or two larger
    let doubled = write_allocations(2 * ROWS, 1, WriterMode::Native);
    assert!(doubled <= one_group + leaves, "{one_group} over {ROWS} rows, {doubled} over twice");

    // sixteen row groups reuse one set of sinks and scratch: what a group
    // adds is its footer entries, not its buffers
    let sixteen = write_allocations(ROWS, 16, WriterMode::Native);
    assert!(sixteen <= one_group + 15 * 2 * leaves, "{one_group} in one group, {sixteen} in 16");

    // the record-reconstructing writer is what allocating per value looks like
    let legacy = write_allocations(ROWS, 1, WriterMode::Legacy);
    assert!(legacy > 10 * ROWS as u64, "{legacy}");
}
