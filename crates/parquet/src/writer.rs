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

use presto_common::dictionary::DictionaryBuilder;
use presto_common::{Page, PrestoError, Result, Schema, Value};

use crate::codec::{Codec, MatchTables};
use crate::columnar::shred_block;
use crate::encoding::{rle_encode, rle_encode_levels, ByteWriter};
use crate::metadata::{
    chunk_stats, ColumnChunkMeta, Encoding, FileMetadata, RowGroupMeta, FORMAT_VERSION, MAGIC,
};
use crate::schema::FlatSchema;
use crate::shred::{shred_one, LeafData, LeafValues};

/// Writer tuning knobs.
#[derive(Debug, Clone)]
pub struct WriterProperties {
    /// Page compression codec.
    pub codec: Codec,
    /// Most rows a row group may hold.
    pub row_group_rows: usize,
}

impl Default for WriterProperties {
    fn default() -> Self {
        WriterProperties { codec: Codec::Fast, row_group_rows: 10_000 }
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
    /// One sink per leaf, cleared — not rebuilt — after every row group.
    sinks: Vec<LeafData>,
    scratch: ChunkScratch,
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
            scratch: ChunkScratch::default(),
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
            self.buffer(page, written, rows)?;
            written += rows;
            if self.rows_buffered == cap {
                self.flush_row_group();
            }
        }
        Ok(())
    }

    /// Shred `rows` rows of a page from row `first` (all of which fit the
    /// open row group) into the sinks.
    fn buffer(&mut self, page: &Page, first: usize, rows: usize) -> Result<()> {
        match self.mode {
            WriterMode::Native => {
                // Direct: every block shreds its row range straight into the
                // leaf sinks; the page is never sliced.
                for (root, block) in self.flat.roots.iter().zip(page.blocks()) {
                    shred_block(root, block, first..first + rows, &mut self.sinks)?;
                }
            }
            WriterMode::Legacy => {
                // Step 1 of the old writer: reconstruct every record from the
                // columnar page (column → row transform, with per-value
                // allocation).
                let records: Vec<Vec<Value>> = if rows == page.positions() {
                    page.rows()
                } else {
                    page.slice(first, rows).rows()
                };
                // Step 2: consume each record, value by value (row → column
                // transform back into triplets).
                for record in &records {
                    for (c, root) in self.flat.roots.iter().enumerate() {
                        shred_one(root, &record[c], &mut self.sinks)?;
                    }
                }
            }
        }
        self.rows_buffered += rows;
        self.total_rows += rows as u64;
        Ok(())
    }

    fn flush_row_group(&mut self) {
        if self.rows_buffered == 0 {
            return;
        }
        let mut columns = Vec::with_capacity(self.sinks.len());
        for (leaf_idx, data) in self.sinks.iter_mut().enumerate() {
            columns.push(write_chunk(
                &mut self.out,
                leaf_idx as u32,
                data,
                &self.props,
                &mut self.scratch,
            ));
            data.clear();
        }
        self.row_groups.push(RowGroupMeta { num_rows: self.rows_buffered as u64, columns });
        self.rows_buffered = 0;
    }

    /// Flush the tail row group, write the footer, and return the file bytes.
    pub fn finish(mut self) -> Result<Vec<u8>> {
        self.flush_row_group();
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

/// What one writer reuses for every page of every chunk of every row group.
#[derive(Default)]
struct ChunkScratch {
    /// The page being encoded, before compression.
    page: ByteWriter,
    tables: MatchTables,
    dictionary: DictionaryBuilder,
}

/// Serialize one column chunk (dictionary page + data page) onto `out`,
/// returning its footer entry.
fn write_chunk(
    out: &mut Vec<u8>,
    leaf_index: u32,
    data: &LeafData,
    props: &WriterProperties,
    scratch: &mut ChunkScratch,
) -> ColumnChunkMeta {
    let ChunkScratch { page, tables, dictionary } = scratch;
    let mut compress = |page: &ByteWriter| {
        let offset = out.len();
        props.codec.compress_into(page.as_bytes(), tables, out);
        (offset as u64, (out.len() - offset) as u64)
    };

    // Dictionary decision: small distinct set on a large chunk.
    let encoded = build_dictionary(dictionary, &data.values);
    let dictionary_page = encoded.then(|| {
        page.clear();
        write_values(&data.values, Some(dictionary.firsts()), page);
        compress(page)
    });

    let encoding = if encoded { Encoding::Dictionary } else { Encoding::Plain };
    page.clear();
    page.u8(encoding.tag());
    rle_encode_levels(&data.reps, page);
    rle_encode_levels(&data.defs, page);
    if encoded {
        rle_encode(dictionary.ids(), page);
    } else {
        write_values(&data.values, None, page);
    }
    ColumnChunkMeta {
        leaf_index,
        codec: props.codec,
        encoding,
        num_triplets: data.len() as u64,
        dictionary_page,
        dictionary_count: if encoded { dictionary.firsts().len() as u32 } else { 0 },
        data_page: compress(page),
        stats: chunk_stats(data, encoded.then(|| dictionary.firsts())),
    }
}

/// Plain-encode values: varint count, then payload — every value, or the
/// ones at `picks` (a dictionary page: the first of each distinct value).
fn write_values(values: &LeafValues, picks: Option<&[usize]>, w: &mut ByteWriter) {
    fn each(count: usize, picks: Option<&[usize]>, put: impl FnMut(usize)) {
        match picks {
            None => (0..count).for_each(put),
            Some(picks) => picks.iter().copied().for_each(put),
        }
    }
    let count = picks.map_or(values.len(), <[usize]>::len);
    w.varint(count as u64);
    match values {
        LeafValues::Bool(v) => each(count, picks, |i| w.u8(v[i] as u8)),
        LeafValues::I32(v) => each(count, picks, |i| w.i32(v[i])),
        LeafValues::I64(v) => each(count, picks, |i| w.i64(v[i])),
        LeafValues::F64(v) => each(count, picks, |i| w.f64(v[i])),
        LeafValues::Bytes { offsets, data } => each(count, picks, |i| {
            w.bytes(&data[offsets[i] as usize..offsets[i + 1] as usize]);
        }),
    }
}

/// Build `values`' dictionary into `dictionary` when [`DictionaryBuilder`]'s
/// rule says it pays. True when it does.
fn build_dictionary(dictionary: &mut DictionaryBuilder, values: &LeafValues) -> bool {
    match values {
        LeafValues::I64(v) => dictionary.assign(v.len(), |i| v[i], |x| x as u64),
        LeafValues::I32(v) => dictionary.assign(v.len(), |i| v[i], |x| x as u64),
        LeafValues::Bytes { offsets, data } => dictionary.assign_strings(offsets, data, None),
        // booleans and doubles: dictionary rarely pays; skip (as real
        // writers do for BOOLEAN, and DOUBLE dictionaries are uncommon)
        LeafValues::Bool(_) | LeafValues::F64(_) => false,
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
