//! The **legacy** open-source Parquet reader (§V.C, Fig 4).
//!
//! "The original reader conducts analysis in three steps: (1) reads all
//! Parquet data row by row using the open source Parquet library; (2)
//! transforms row-based records into columnar Presto blocks in-memory for
//! all nested columns; and (3) evaluates the predicate on these blocks,
//! executing the queries in our Presto engine."
//!
//! Faithfully reproduced inefficiencies:
//! - **no nested column pruning** — every leaf of a requested top-level
//!   column is read and decoded, even when the query touches one field of a
//!   50-field struct;
//! - **row-by-row assembly** — triplets become [`Value`] records first, and
//!   only then columnar blocks (the row→column transform of step 2);
//! - **no statistics or dictionary skipping** — every row group is read;
//! - **no lazy reads** — predicates are evaluated by the engine afterwards
//!   (step 3);
//! - **non-vectorized decoding** — triplet-at-a-time.

use presto_common::{Block, Page, Result, Schema, Value};

use crate::reader::{chunk_for, decode_chunk, read_metadata, ChunkSource};
use crate::schema::{adapt_value, resolve_schemas, ColumnResolution, FlatSchema};
use crate::shred::{assemble_column, LeafCursor, LeafData};

/// Observability counters for experiments and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LegacyReadStats {
    /// Row groups read (always all of them).
    pub row_groups_read: usize,
    /// Leaf chunks decoded.
    pub leaves_decoded: usize,
    /// Records materialized as [`Value`]s.
    pub records_assembled: usize,
}

/// Read `columns` (top-level names from `table_schema`) from a file,
/// producing one [`Page`] per row group.
pub fn read(
    source: &dyn ChunkSource,
    table_schema: &Schema,
    columns: &[String],
) -> Result<(Vec<Page>, LegacyReadStats)> {
    let meta = read_metadata(source)?;
    let file_flat = FlatSchema::new(meta.schema.clone())?;

    let projected_table =
        table_schema.project(&columns.iter().map(String::as_str).collect::<Vec<_>>())?;
    let resolutions = resolve_schemas(&projected_table, &meta.schema)?;

    let mut stats = LegacyReadStats::default();
    let mut pages = Vec::with_capacity(meta.row_groups.len());

    for rg in &meta.row_groups {
        stats.row_groups_read += 1;
        let rows = rg.num_rows as usize;
        let mut blocks = Vec::with_capacity(columns.len());

        for (slot, resolution) in resolutions.iter().enumerate() {
            let table_type = &projected_table.field_at(slot).data_type;
            match resolution {
                ColumnResolution::MissingReturnsNull => {
                    // §V.A: newly added fields read as NULL in old files.
                    blocks.push(Block::nulls(table_type, rows));
                }
                ColumnResolution::Present { file_column } => {
                    let root = &file_flat.roots[*file_column];
                    let file_type = &meta.schema.field_at(*file_column).data_type;

                    // Step 1: read ALL leaves of this top-level column —
                    // no pruning, triplet-at-a-time decode.
                    let mut leaf_data: Vec<LeafData> =
                        file_flat.leaves.iter().map(LeafData::new).collect();
                    for leaf_idx in root.leaf_indices() {
                        leaf_data[leaf_idx] = decode_chunk(
                            source,
                            chunk_for(rg, leaf_idx)?,
                            &file_flat.leaves[leaf_idx],
                            /* vectorized = */ false,
                            None,
                        )?;
                        stats.leaves_decoded += 1;
                    }

                    // Step 1 (cont.): assemble row-based records.
                    let mut cursors: Vec<LeafCursor<'_>> =
                        leaf_data.iter().map(LeafCursor::new).collect();
                    let records = assemble_column(root, &mut cursors)?;
                    stats.records_assembled += records.len();

                    // Schema evolution shaping happens record-by-record too.
                    let adapted: Vec<Value> = if file_type == table_type {
                        records
                    } else {
                        records.iter().map(|v| adapt_value(v, file_type, table_type)).collect()
                    };

                    // Step 2: transform row-based records into columnar
                    // blocks.
                    blocks.push(Block::from_values(table_type, &adapted)?);
                }
            }
        }

        pages.push(if blocks.is_empty() { Page::zero_column(rows) } else { Page::new(blocks)? });
    }
    Ok((pages, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::BytesSource;
    use crate::writer::{FileWriter, WriterMode, WriterProperties};
    use presto_common::{DataType, Field};

    fn nested_schema() -> Schema {
        Schema::new(vec![
            Field::new("datestr", DataType::Varchar),
            Field::new(
                "base",
                DataType::row(vec![
                    Field::new("driver_uuid", DataType::Varchar),
                    Field::new("city_id", DataType::Bigint),
                ]),
            ),
        ])
        .unwrap()
    }

    fn sample_file() -> Vec<u8> {
        let mut w = FileWriter::new(
            nested_schema(),
            WriterProperties { row_group_rows: 50, ..WriterProperties::default() },
            WriterMode::Native,
        )
        .unwrap();
        for chunk in [(0i64..50), (50i64..100)] {
            let rows: Vec<i64> = chunk.collect();
            let datestr = Block::varchar(
                &rows.iter().map(|i| format!("2017-03-{:02}", i % 28 + 1)).collect::<Vec<_>>(),
            );
            let base = Block::from_values(
                &nested_schema().field_at(1).data_type,
                &rows
                    .iter()
                    .map(|i| {
                        Value::Row(vec![
                            Value::Varchar(format!("driver-{i}")),
                            Value::Bigint(i % 13),
                        ])
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            w.write_page(&Page::new(vec![datestr, base]).unwrap()).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn reads_all_rows_in_all_groups() {
        let source = BytesSource::new(sample_file());
        let (pages, stats) =
            read(&source, &nested_schema(), &["datestr".into(), "base".into()]).unwrap();
        assert_eq!(pages.iter().map(Page::positions).sum::<usize>(), 100);
        assert_eq!(stats.row_groups_read, 2);
        // 3 leaves (datestr + 2 under base) per row group
        assert_eq!(stats.leaves_decoded, 6);
        assert_eq!(stats.records_assembled, 200); // both columns, all rows
        let first = pages[0].row(0);
        assert_eq!(first[0], Value::Varchar("2017-03-01".into()));
        assert_eq!(first[1], Value::Row(vec![Value::Varchar("driver-0".into()), Value::Bigint(0)]));
    }

    #[test]
    fn no_pruning_even_for_single_needed_field() {
        // The legacy reader cannot skip base.driver_uuid even though the
        // caller only wants base — it always reads the whole struct; pruning
        // to base.city_id alone is a new-reader capability.
        let source = BytesSource::new(sample_file());
        let (_, stats) = read(&source, &nested_schema(), &["base".into()]).unwrap();
        assert_eq!(stats.leaves_decoded, 4); // 2 leaves × 2 row groups
    }

    #[test]
    fn schema_evolution_added_column_reads_null() {
        let mut evolved_fields = nested_schema().fields().to_vec();
        evolved_fields.push(Field::new("new_col", DataType::Double));
        let evolved = Schema::new(evolved_fields).unwrap();
        let source = BytesSource::new(sample_file());
        let (pages, _) = read(&source, &evolved, &["new_col".into()]).unwrap();
        assert!(pages.iter().all(|p| (0..p.positions()).all(|i| p.row(i)[0].is_null())));
    }

    #[test]
    fn schema_evolution_added_struct_field_reads_null() {
        let evolved = Schema::new(vec![
            Field::new("datestr", DataType::Varchar),
            Field::new(
                "base",
                DataType::row(vec![
                    Field::new("city_id", DataType::Bigint), // reordered
                    Field::new("surge", DataType::Double),   // added
                ]),
            ),
        ])
        .unwrap();
        let source = BytesSource::new(sample_file());
        let (pages, _) = read(&source, &evolved, &["base".into()]).unwrap();
        match &pages[0].row(0)[0] {
            Value::Row(fields) => {
                assert_eq!(fields[0], Value::Bigint(0)); // reordered, kept
                assert_eq!(fields[1], Value::Null); // added → NULL
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn schema_evolution_type_change_rejected() {
        let retyped = Schema::new(vec![
            Field::new("datestr", DataType::Bigint), // was varchar
            nested_schema().field_at(1).clone(),
        ])
        .unwrap();
        let source = BytesSource::new(sample_file());
        let err = read(&source, &retyped, &["datestr".into()]).unwrap_err();
        assert_eq!(err.code(), "SCHEMA_EVOLUTION_ERROR");
    }
}
