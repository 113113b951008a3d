//! File writers: the **legacy** record-reconstructing writer and the
//! **native** columnar writer (§V.J).
//!
//! Both produce byte-identical *format* (same footer, same pages) — the
//! difference is purely how blocks become triplets:
//!
//! - legacy: "iterates each columnar block in a page and reconstructs every
//!   single record, then it consumes each individual record and writes value
//!   bytes" — a column→row transform followed by a row→column transform;
//! - native: "writes directly from Presto's in-memory data structure to
//!   Parquet's columnar file format, including data values, repetition
//!   values, and definition values."
//!
//! Figures 18–20 measure exactly this difference under three codecs.

use std::collections::HashMap;

use presto_common::{Page, PrestoError, Result, Schema, Value};

use crate::codec::Codec;
use crate::columnar::shred_block;
use crate::encoding::{rle_encode, ByteWriter};
use crate::metadata::{
    update_stats, ColumnChunkMeta, ColumnStats, Encoding, FileMetadata, RowGroupMeta,
    FORMAT_VERSION, MAGIC,
};
use crate::schema::{FlatSchema, PhysicalType};
use crate::shred::{shred_one, LeafData, LeafValues};

/// Writer tuning knobs.
#[derive(Debug, Clone)]
pub struct WriterProperties {
    /// Page compression codec.
    pub codec: Codec,
    /// Most rows a row group may hold.
    pub row_group_rows: usize,
    /// Enable dictionary encoding when profitable.
    pub dictionary_enabled: bool,
    /// Upper bound on dictionary entries per chunk.
    pub max_dictionary_entries: usize,
}

impl Default for WriterProperties {
    fn default() -> Self {
        WriterProperties {
            codec: Codec::Fast,
            row_group_rows: 10_000,
            dictionary_enabled: true,
            max_dictionary_entries: 1024,
        }
    }
}

/// Which triplet-production strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterMode {
    /// The old open-source writer: block → records → triplets.
    Legacy,
    /// The new native writer: block → triplets directly.
    Native,
}

/// Streaming file writer; feed [`Page`]s, then [`FileWriter::finish`].
pub struct FileWriter {
    flat: FlatSchema,
    props: WriterProperties,
    mode: WriterMode,
    sinks: Vec<LeafData>,
    rows_buffered: usize,
    out: Vec<u8>,
    row_groups: Vec<RowGroupMeta>,
    total_rows: u64,
}

impl FileWriter {
    /// New writer for `schema`.
    pub fn new(schema: Schema, props: WriterProperties, mode: WriterMode) -> Result<FileWriter> {
        let flat = FlatSchema::new(schema)?;
        let sinks = flat.leaves.iter().map(LeafData::new).collect();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        Ok(FileWriter {
            flat,
            props,
            mode,
            sinks,
            rows_buffered: 0,
            out,
            row_groups: Vec::new(),
            total_rows: 0,
        })
    }

    /// The flattened schema being written.
    pub fn flat_schema(&self) -> &FlatSchema {
        &self.flat
    }

    /// Append one page. Column order and types must match the schema.
    pub fn write_page(&mut self, page: &Page) -> Result<()> {
        if page.column_count() != self.flat.schema.len() {
            return Err(PrestoError::Internal(format!(
                "page has {} columns, schema has {}",
                page.column_count(),
                self.flat.schema.len()
            )));
        }
        // `row_group_rows` is a cap: a page that crosses a row-group boundary
        // is cut there, so a file written from one big page still has the
        // groups it was asked for (and the per-group statistics and
        // dictionaries row-group skipping lives on).
        let cap = self.props.row_group_rows.max(1);
        let mut written = 0;
        while written < page.positions() {
            let rows = (cap - self.rows_buffered).min(page.positions() - written);
            if rows == page.positions() {
                self.buffer(page)?;
            } else {
                self.buffer(&page.slice(written, rows))?;
            }
            written += rows;
            if self.rows_buffered == cap {
                self.flush_row_group()?;
            }
        }
        Ok(())
    }

    /// Shred one page (all of which fits the open row group) into the sinks.
    fn buffer(&mut self, page: &Page) -> Result<()> {
        match self.mode {
            WriterMode::Native => {
                // Direct: every block shreds straight into the leaf sinks.
                for (root, block) in self.flat.roots.iter().zip(page.blocks()) {
                    shred_block(root, block, &mut self.sinks)?;
                }
            }
            WriterMode::Legacy => {
                // Step 1 of the old writer: reconstruct every record from the
                // columnar page (column → row transform, with per-value
                // allocation).
                let records: Vec<Vec<Value>> = page.rows();
                // Step 2: consume each record, value by value (row → column
                // transform back into triplets).
                for record in &records {
                    for (c, root) in self.flat.roots.iter().enumerate() {
                        shred_one(root, &record[c], &mut self.sinks)?;
                    }
                }
            }
        }
        self.rows_buffered += page.positions();
        self.total_rows += page.positions() as u64;
        Ok(())
    }

    fn flush_row_group(&mut self) -> Result<()> {
        if self.rows_buffered == 0 {
            return Ok(());
        }
        let mut columns = Vec::with_capacity(self.sinks.len());
        let fresh: Vec<LeafData> = self.flat.leaves.iter().map(LeafData::new).collect();
        let sinks = std::mem::replace(&mut self.sinks, fresh);
        for (leaf_idx, data) in sinks.into_iter().enumerate() {
            let leaf = &self.flat.leaves[leaf_idx];
            columns.push(write_chunk(
                &mut self.out,
                leaf_idx as u32,
                leaf.physical,
                &data,
                &self.props,
            )?);
        }
        self.row_groups.push(RowGroupMeta { num_rows: self.rows_buffered as u64, columns });
        self.rows_buffered = 0;
        Ok(())
    }

    /// Flush the tail row group, write the footer, and return the file bytes.
    pub fn finish(mut self) -> Result<Vec<u8>> {
        self.flush_row_group()?;
        let metadata = FileMetadata {
            version: FORMAT_VERSION,
            schema: self.flat.schema.clone(),
            num_rows: self.total_rows,
            row_groups: self.row_groups,
        };
        let footer = metadata.serialize();
        let footer_len = footer.len() as u32;
        self.out.extend_from_slice(&footer);
        self.out.extend_from_slice(&footer_len.to_le_bytes());
        self.out.extend_from_slice(MAGIC);
        Ok(self.out)
    }
}

/// Serialize one column chunk (dictionary page + data page), returning its
/// footer entry.
fn write_chunk(
    out: &mut Vec<u8>,
    leaf_index: u32,
    physical: PhysicalType,
    data: &LeafData,
    props: &WriterProperties,
) -> Result<ColumnChunkMeta> {
    // Column statistics over defined values.
    let mut stats = ColumnStats { null_count: data.null_count() as u64, ..Default::default() };
    for i in 0..data.values.len() {
        update_stats(&mut stats, &data.values.get(i, &data.scalar_type));
    }

    // Dictionary decision: small distinct set on a large chunk.
    let dictionary = if props.dictionary_enabled {
        build_dictionary(&data.values, physical, props.max_dictionary_entries)
    } else {
        None
    };

    let codec = props.codec;
    match dictionary {
        Some((dict_values, ids)) => {
            let mut dict_page = ByteWriter::new();
            write_leaf_values(&dict_values, &mut dict_page);
            let dict_compressed = codec.compress(dict_page.as_bytes());
            let dict_offset = out.len() as u64;
            out.extend_from_slice(&dict_compressed);

            let mut data_page = ByteWriter::new();
            data_page.u8(Encoding::Dictionary.tag());
            encode_levels(data, &mut data_page);
            rle_encode(&ids, &mut data_page);
            let data_compressed = codec.compress(data_page.as_bytes());
            let data_offset = out.len() as u64;
            out.extend_from_slice(&data_compressed);

            Ok(ColumnChunkMeta {
                leaf_index,
                codec,
                encoding: Encoding::Dictionary,
                num_triplets: data.len() as u64,
                dictionary_page: Some((dict_offset, dict_compressed.len() as u64)),
                dictionary_count: dict_values.len() as u32,
                data_page: (data_offset, data_compressed.len() as u64),
                stats,
            })
        }
        None => {
            let mut data_page = ByteWriter::new();
            data_page.u8(Encoding::Plain.tag());
            encode_levels(data, &mut data_page);
            write_leaf_values(&data.values, &mut data_page);
            let data_compressed = codec.compress(data_page.as_bytes());
            let data_offset = out.len() as u64;
            out.extend_from_slice(&data_compressed);

            Ok(ColumnChunkMeta {
                leaf_index,
                codec,
                encoding: Encoding::Plain,
                num_triplets: data.len() as u64,
                dictionary_page: None,
                dictionary_count: 0,
                data_page: (data_offset, data_compressed.len() as u64),
                stats,
            })
        }
    }
}

fn encode_levels(data: &LeafData, w: &mut ByteWriter) {
    rle_encode(&data.reps.to_u32s(), w);
    rle_encode(&data.defs.to_u32s(), w);
}

/// Plain-encode a value vector: varint count, then payload.
pub fn write_leaf_values(values: &LeafValues, w: &mut ByteWriter) {
    w.varint(values.len() as u64);
    match values {
        LeafValues::Bool(v) => {
            for &b in v {
                w.u8(b as u8);
            }
        }
        LeafValues::I32(v) => {
            for &x in v {
                w.i32(x);
            }
        }
        LeafValues::I64(v) => {
            for &x in v {
                w.i64(x);
            }
        }
        LeafValues::F64(v) => {
            for &x in v {
                w.f64(x);
            }
        }
        LeafValues::Bytes { offsets, data } => {
            for i in 0..offsets.len() - 1 {
                w.bytes(&data[offsets[i] as usize..offsets[i + 1] as usize]);
            }
        }
    }
}

/// Build a dictionary when the distinct set is small enough to pay off.
/// Returns the dictionary values and per-defined-value ids.
fn build_dictionary(
    values: &LeafValues,
    physical: PhysicalType,
    max_entries: usize,
) -> Option<(LeafValues, Vec<u32>)> {
    let n = values.len();
    if n < 8 {
        return None;
    }
    match values {
        LeafValues::I64(v) => {
            let mut dict: Vec<i64> = Vec::new();
            let mut index: HashMap<i64, u32> = HashMap::new();
            let mut ids = Vec::with_capacity(n);
            for &x in v {
                let id = *index.entry(x).or_insert_with(|| {
                    dict.push(x);
                    (dict.len() - 1) as u32
                });
                if dict.len() > max_entries {
                    return None;
                }
                ids.push(id);
            }
            (dict.len() * 2 <= n).then_some((LeafValues::I64(dict), ids))
        }
        LeafValues::I32(v) => {
            let mut dict: Vec<i32> = Vec::new();
            let mut index: HashMap<i32, u32> = HashMap::new();
            let mut ids = Vec::with_capacity(n);
            for &x in v {
                let id = *index.entry(x).or_insert_with(|| {
                    dict.push(x);
                    (dict.len() - 1) as u32
                });
                if dict.len() > max_entries {
                    return None;
                }
                ids.push(id);
            }
            (dict.len() * 2 <= n).then_some((LeafValues::I32(dict), ids))
        }
        LeafValues::Bytes { offsets, data } => {
            let mut dict_offsets = vec![0u32];
            let mut dict_data: Vec<u8> = Vec::new();
            let mut index: HashMap<Vec<u8>, u32> = HashMap::new();
            let mut ids = Vec::with_capacity(n);
            for i in 0..n {
                let s = &data[offsets[i] as usize..offsets[i + 1] as usize];
                match index.get(s) {
                    Some(&id) => ids.push(id),
                    None => {
                        let id = index.len() as u32;
                        if index.len() + 1 > max_entries {
                            return None;
                        }
                        index.insert(s.to_vec(), id);
                        dict_data.extend_from_slice(s);
                        dict_offsets.push(dict_data.len() as u32);
                        ids.push(id);
                    }
                }
            }
            (index.len() * 2 <= n)
                .then_some((LeafValues::Bytes { offsets: dict_offsets, data: dict_data }, ids))
        }
        // booleans and doubles: dictionary rarely pays; skip (as real
        // writers do for BOOLEAN, and DOUBLE dictionaries are uncommon)
        _ => {
            let _ = physical;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{Block, DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("id", DataType::Bigint), Field::new("city", DataType::Varchar)])
            .unwrap()
    }

    fn page() -> Page {
        Page::new(vec![
            Block::bigint((0..100).collect()),
            Block::varchar(&(0..100).map(|i| format!("city{}", i % 5)).collect::<Vec<_>>()),
        ])
        .unwrap()
    }

    #[test]
    fn native_and_legacy_writers_produce_identical_files() {
        let props = WriterProperties::default();
        let mut native = FileWriter::new(schema(), props.clone(), WriterMode::Native).unwrap();
        native.write_page(&page()).unwrap();
        let native_bytes = native.finish().unwrap();

        let mut legacy = FileWriter::new(schema(), props, WriterMode::Legacy).unwrap();
        legacy.write_page(&page()).unwrap();
        let legacy_bytes = legacy.finish().unwrap();

        assert_eq!(native_bytes, legacy_bytes);
    }

    #[test]
    fn file_has_magic_and_footer() {
        let mut w =
            FileWriter::new(schema(), WriterProperties::default(), WriterMode::Native).unwrap();
        w.write_page(&page()).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(&bytes[bytes.len() - 4..], MAGIC);
        let meta = footer_of(&bytes);
        assert_eq!(meta.num_rows, 100);
        assert_eq!(meta.row_groups.len(), 1);
        // city has 5 distinct values over 100 rows → dictionary-encoded
        assert_eq!(meta.row_groups[0].columns[1].encoding, Encoding::Dictionary);
        assert_eq!(meta.row_groups[0].columns[1].dictionary_count, 5);
        // id is all-distinct → plain
        assert_eq!(meta.row_groups[0].columns[0].encoding, Encoding::Plain);
    }

    fn footer_of(bytes: &[u8]) -> FileMetadata {
        let footer_len =
            u32::from_le_bytes(bytes[bytes.len() - 8..bytes.len() - 4].try_into().unwrap())
                as usize;
        FileMetadata::deserialize(&bytes[bytes.len() - 8 - footer_len..bytes.len() - 8]).unwrap()
    }

    #[test]
    fn one_big_page_is_cut_into_the_row_groups_asked_for() {
        let schema = Schema::new(vec![Field::new("id", DataType::Bigint)]).unwrap();
        let page = Page::new(vec![Block::bigint((0..10_000).collect())]).unwrap();
        let props = WriterProperties { row_group_rows: 1_000, ..WriterProperties::default() };
        let mut files = Vec::new();
        for mode in [WriterMode::Native, WriterMode::Legacy] {
            let mut w = FileWriter::new(schema.clone(), props.clone(), mode).unwrap();
            w.write_page(&page).unwrap();
            files.push(w.finish().unwrap());
        }
        assert_eq!(files[0], files[1], "both writer modes cut at the same rows");
        let meta = footer_of(&files[0]);
        assert_eq!(meta.num_rows, 10_000);
        assert_eq!(meta.row_groups.len(), 10);
        for (g, rg) in meta.row_groups.iter().enumerate() {
            let first = g as i64 * 1_000;
            assert_eq!(rg.num_rows, 1_000);
            assert_eq!(rg.columns[0].stats.min, Some(Value::Bigint(first)));
            assert_eq!(rg.columns[0].stats.max, Some(Value::Bigint(first + 999)));
        }
    }

    #[test]
    fn row_groups_fill_across_pages_and_leave_a_tail() {
        let props = WriterProperties { row_group_rows: 40, ..WriterProperties::default() };
        let mut w = FileWriter::new(schema(), props, WriterMode::Native).unwrap();
        w.write_page(&page().slice(0, 30)).unwrap();
        w.write_page(&page().slice(30, 70)).unwrap(); // 100 rows in all
        let meta = footer_of(&w.finish().unwrap());
        assert_eq!(meta.num_rows, 100);
        let sizes: Vec<u64> = meta.row_groups.iter().map(|g| g.num_rows).collect();
        assert_eq!(sizes, vec![40, 40, 20]);
        // the second group spans the page boundary: ids 40..80
        assert_eq!(meta.row_groups[1].columns[0].stats.min, Some(Value::Bigint(40)));
        assert_eq!(meta.row_groups[1].columns[0].stats.max, Some(Value::Bigint(79)));
    }

    #[test]
    fn page_column_mismatch_is_rejected() {
        let mut w =
            FileWriter::new(schema(), WriterProperties::default(), WriterMode::Native).unwrap();
        let bad = Page::new(vec![Block::bigint(vec![1])]).unwrap();
        assert!(w.write_page(&bad).is_err());
    }
}
