//! Shared reader plumbing: chunk sources, footer reading, page decoding.
//!
//! Both reader generations use this module; the difference between them is
//! *which* chunks they read and *how* they turn triplets into engine data
//! (see [`crate::reader_old`] and [`crate::reader_new`]).

use std::sync::Arc;

use presto_common::{PrestoError, Result};
use presto_storage::FileSystem;

use crate::encoding::{rle_decode, rle_decode_levels, ByteReader};
use crate::metadata::{ColumnChunkMeta, Encoding, FileMetadata, RowGroupMeta, MAGIC};
use crate::schema::{LeafColumn, PhysicalType};
use crate::shred::{LeafData, LeafValues, Levels};

/// Random-access byte source for one file.
pub trait ChunkSource: Send + Sync {
    /// Total file size.
    fn size(&self) -> u64;
    /// Read `[offset, offset + len)`.
    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>>;
}

/// Chunk source over an in-memory buffer.
#[derive(Debug, Clone)]
pub struct BytesSource {
    data: Arc<Vec<u8>>,
}

impl BytesSource {
    /// Wrap file bytes.
    pub fn new(data: Vec<u8>) -> BytesSource {
        BytesSource { data: Arc::new(data) }
    }
}

impl ChunkSource for BytesSource {
    fn size(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        // offsets come from the footer, which may be corrupt: no overflow
        offset
            .checked_add(len)
            .and_then(|end| self.data.get(offset as usize..end as usize))
            .map(<[u8]>::to_vec)
            .ok_or_else(|| PrestoError::Format("read past end of file buffer".into()))
    }
}

/// Chunk source over a (simulated remote) filesystem — every read costs
/// whatever the filesystem charges, which is how reader I/O savings show up
/// in the storage counters.
pub struct FsSource {
    fs: Arc<dyn FileSystem>,
    path: String,
    size: u64,
}

impl FsSource {
    /// Open `path` on `fs`.
    pub fn open(fs: Arc<dyn FileSystem>, path: &str) -> Result<FsSource> {
        let info = fs.get_file_info(path)?;
        Ok(FsSource { fs, path: path.to_string(), size: info.size })
    }

    /// Open with a known size (skips the `getFileInfo` call — what the
    /// file-handle cache of §VII.B enables).
    pub fn open_with_size(fs: Arc<dyn FileSystem>, path: &str, size: u64) -> FsSource {
        FsSource { fs, path: path.to_string(), size }
    }
}

impl ChunkSource for FsSource {
    fn size(&self) -> u64 {
        self.size
    }

    fn read_range(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.fs.read_range(&self.path, offset, len)
    }
}

/// Read and parse the footer ("Parquet Footer: File Metadata, Row Group
/// Metadata" in Figs 3–9).
pub fn read_metadata(source: &dyn ChunkSource) -> Result<FileMetadata> {
    let size = source.size();
    if size < 12 {
        return Err(PrestoError::Format("file too small".into()));
    }
    let tail = source.read_range(size - 8, 8)?;
    if &tail[4..] != MAGIC {
        return Err(PrestoError::Format("bad trailing magic".into()));
    }
    let footer_len = u32::from_le_bytes(tail[..4].try_into().unwrap()) as u64;
    if footer_len + 12 > size {
        return Err(PrestoError::Format("footer length exceeds file".into()));
    }
    let footer = source.read_range(size - 8 - footer_len, footer_len)?;
    FileMetadata::deserialize(&footer)
}

/// Read and decode a chunk's dictionary page (if any) — the cheap probe
/// dictionary pushdown does before deciding to read the data page.
pub fn read_dictionary(
    source: &dyn ChunkSource,
    chunk: &ColumnChunkMeta,
    leaf: &LeafColumn,
) -> Result<Option<LeafValues>> {
    let (offset, len) = match chunk.dictionary_page {
        Some(loc) => loc,
        None => return Ok(None),
    };
    let compressed = source.read_range(offset, len)?;
    let raw = chunk.codec.decompress(compressed)?;
    let mut r = ByteReader::new(&raw);
    Ok(Some(read_leaf_values(leaf.physical, &mut r, true)?))
}

/// The chunk of leaf `leaf_idx` in a row group. The writer lays chunks out
/// in leaf order, so this is an index, not a search.
pub fn chunk_for(rg: &RowGroupMeta, leaf_idx: usize) -> Result<&ColumnChunkMeta> {
    rg.columns
        .get(leaf_idx)
        .filter(|c| c.leaf_index as usize == leaf_idx)
        .ok_or_else(|| PrestoError::Format(format!("row group missing chunk for leaf {leaf_idx}")))
}

/// Decode one column chunk into a triplet stream.
///
/// `vectorized` selects between the batched decoder (§V.I: level runs
/// decoded once to `u16` and kept as runs where the stream is one, bulk
/// fixed-width value copies), which the new reader always takes, and a
/// deliberately triplet-at-a-time scalar decoder matching the
/// pre-vectorization reader, which only the legacy reader takes (Fig 17's
/// baseline). Either way a
/// dictionary-encoded chunk stays encoded: its dictionary page's entries
/// and one id per defined value ([`LeafData::ids`]). `probed` is the
/// chunk's dictionary when the caller has already read it (dictionary
/// pushdown), so the page is not fetched twice.
///
/// Whatever the file holds, the stream returned is one the block builder
/// can index without looking: as many levels as the footer says, no level
/// above the leaf's maxima, a first entry that starts a record, exactly one
/// value (or id) per fully defined entry, and no id past the dictionary.
pub fn decode_chunk(
    source: &dyn ChunkSource,
    chunk: &ColumnChunkMeta,
    leaf: &LeafColumn,
    vectorized: bool,
    probed: Option<LeafValues>,
) -> Result<LeafData> {
    let (offset, len) = chunk.data_page;
    let compressed = source.read_range(offset, len)?;
    let raw = chunk.codec.decompress(compressed)?;
    let mut r = ByteReader::new(&raw);
    let encoding = Encoding::from_tag(r.u8()?)?;

    let entries = usize::try_from(chunk.num_triplets)
        .map_err(|_| PrestoError::Format("chunk entry count exceeds the address space".into()))?;
    let (reps, defs) = if vectorized {
        (
            rle_decode_levels(&mut r, entries, leaf.max_rep)?,
            rle_decode_levels(&mut r, entries, leaf.max_def)?,
        )
    } else {
        // Scalar loop with per-element handling (the slow path keeps the
        // exact element-by-element structure of the old decoder).
        let mut scalar_levels = |max_level: u16| -> Result<Levels> {
            let wide = rle_decode(&mut r)?;
            if wide.len() != entries {
                return Err(PrestoError::Format(format!(
                    "level stream has {} entries, the footer says {entries}",
                    wide.len()
                )));
            }
            let mut levels = Vec::with_capacity(wide.len());
            for &x in &wide {
                if x > u32::from(max_level) {
                    return Err(PrestoError::Format(format!(
                        "level {x} above the leaf's {max_level}"
                    )));
                }
                levels.push(x as u16);
            }
            Ok(Levels::Each(levels))
        };
        (scalar_levels(leaf.max_rep)?, scalar_levels(leaf.max_def)?)
    };
    if entries > 0 && reps.get(0) != 0 {
        return Err(PrestoError::Format("chunk does not start at a record boundary".into()));
    }

    let (values, ids) = match encoding {
        Encoding::Plain => (read_leaf_values(leaf.physical, &mut r, vectorized)?, None),
        Encoding::Dictionary => {
            let dict = match probed {
                Some(dict) => dict,
                None => read_dictionary(source, chunk, leaf)?.ok_or_else(|| {
                    PrestoError::Format("dictionary-encoded chunk without dictionary page".into())
                })?,
            };
            let ids = rle_decode(&mut r)?;
            // every id is checked here, once, so nothing downstream has to
            if let Some(&id) = ids.iter().max().filter(|&&id| id as usize >= dict.len()) {
                return Err(PrestoError::Format(format!(
                    "dictionary id {id} out of range ({} entries)",
                    dict.len()
                )));
            }
            (dict, Some(ids))
        }
    };
    let data = LeafData {
        reps,
        defs,
        values,
        ids,
        max_def: leaf.max_def,
        scalar_type: leaf.scalar_type.clone(),
    };
    if data.value_count() != data.defs.count_at(leaf.max_def) {
        return Err(PrestoError::Format("value count does not match levels".into()));
    }
    Ok(data)
}

/// Decode a plain value vector. The vectorized path copies fixed-width
/// payloads in bulk; the scalar path reads element by element.
pub fn read_leaf_values(
    physical: PhysicalType,
    r: &mut ByteReader<'_>,
    vectorized: bool,
) -> Result<LeafValues> {
    let n = r.varint()? as usize;
    match physical {
        PhysicalType::Bool => {
            let raw = r.raw(n)?; // bounds-checked: n is validated here
            Ok(LeafValues::Bool(raw.iter().map(|&b| b != 0).collect()))
        }
        PhysicalType::I32 => {
            if vectorized {
                Ok(LeafValues::I32(fixed_width(r.raw(n.saturating_mul(4))?, i32::from_le_bytes)))
            } else {
                let mut out = Vec::new();
                for _ in 0..n {
                    out.push(r.i32()?);
                }
                Ok(LeafValues::I32(out))
            }
        }
        PhysicalType::I64 => {
            if vectorized {
                Ok(LeafValues::I64(fixed_width(r.raw(n.saturating_mul(8))?, i64::from_le_bytes)))
            } else {
                let mut out = Vec::new();
                for _ in 0..n {
                    out.push(r.i64()?);
                }
                Ok(LeafValues::I64(out))
            }
        }
        PhysicalType::F64 => {
            if vectorized {
                Ok(LeafValues::F64(fixed_width(r.raw(n.saturating_mul(8))?, f64::from_le_bytes)))
            } else {
                let mut out = Vec::new();
                for _ in 0..n {
                    out.push(r.f64()?);
                }
                Ok(LeafValues::F64(out))
            }
        }
        PhysicalType::Bytes => {
            // n is untrusted until the per-value reads validate it, but each
            // value takes at least its length byte and the payloads are the
            // rest of the page: both buffers are sized once, from the page
            let mut offsets = Vec::with_capacity(n.min(r.remaining()) + 1);
            offsets.push(0u32);
            let mut data = Vec::with_capacity(r.remaining().saturating_sub(n));
            for _ in 0..n {
                // a length below 0x80 is its own one-byte varint
                let b = match *r.rest() {
                    [len, ..] if len < 0x80 => &r.raw(1 + usize::from(len))?[1..],
                    _ => r.bytes()?,
                };
                data.extend_from_slice(b);
                offsets.push(data.len() as u32);
            }
            Ok(LeafValues::Bytes { offsets, data })
        }
    }
}

/// `raw` as little-endian `W`-byte values, in one pass that allocates once.
fn fixed_width<T, const W: usize>(raw: &[u8], from_le: impl Fn([u8; W]) -> T) -> Vec<T> {
    raw.chunks_exact(W).map(|c| from_le(c.try_into().expect("chunks of W bytes"))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{FileWriter, WriterMode, WriterProperties};
    use presto_common::{Block, DataType, Field, Page, Schema};

    fn write_sample(codec: crate::codec::Codec) -> Vec<u8> {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Bigint),
            Field::new("city", DataType::Varchar),
        ])
        .unwrap();
        let mut w = FileWriter::new(
            schema,
            WriterProperties { codec, ..WriterProperties::default() },
            WriterMode::Native,
        )
        .unwrap();
        let page = Page::new(vec![
            Block::bigint((0..200).collect()),
            Block::varchar(&(0..200).map(|i| format!("c{}", i % 3)).collect::<Vec<_>>()),
        ])
        .unwrap();
        w.write_page(&page).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn metadata_reads_back() {
        for codec in
            [crate::codec::Codec::None, crate::codec::Codec::Fast, crate::codec::Codec::Deep]
        {
            let bytes = write_sample(codec);
            let source = BytesSource::new(bytes);
            let meta = read_metadata(&source).unwrap();
            assert_eq!(meta.num_rows, 200);
            assert_eq!(meta.row_groups.len(), 1);
            assert_eq!(meta.row_groups[0].columns[0].codec, codec);
        }
    }

    #[test]
    fn chunks_decode_both_paths() {
        let bytes = write_sample(crate::codec::Codec::Fast);
        let source = BytesSource::new(bytes);
        let meta = read_metadata(&source).unwrap();
        let flat = crate::schema::FlatSchema::new(meta.schema.clone()).unwrap();
        for (i, leaf) in flat.leaves.iter().enumerate() {
            let chunk = &meta.row_groups[0].columns[i];
            let vec_data = decode_chunk(&source, chunk, leaf, true, None).unwrap();
            let scalar_data = decode_chunk(&source, chunk, leaf, false, None).unwrap();
            assert_eq!(vec_data, scalar_data);
            assert_eq!(vec_data.len(), 200);
        }
    }

    #[test]
    fn dictionary_page_is_separately_readable() {
        let bytes = write_sample(crate::codec::Codec::Fast);
        let source = BytesSource::new(bytes);
        let meta = read_metadata(&source).unwrap();
        let flat = crate::schema::FlatSchema::new(meta.schema.clone()).unwrap();
        // city column (leaf 1) has 3 distinct values → dictionary
        let chunk = &meta.row_groups[0].columns[1];
        let dict = read_dictionary(&source, chunk, &flat.leaves[1]).unwrap().unwrap();
        assert_eq!(dict.len(), 3);
        // id column is plain
        let chunk0 = &meta.row_groups[0].columns[0];
        assert!(read_dictionary(&source, chunk0, &flat.leaves[0]).unwrap().is_none());
    }

    #[test]
    fn corrupted_files_error_cleanly() {
        let bytes = write_sample(crate::codec::Codec::Fast);
        // bad trailing magic
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] = b'X';
        assert!(read_metadata(&BytesSource::new(bad)).is_err());
        // truncated
        assert!(read_metadata(&BytesSource::new(bytes[..10].to_vec())).is_err());
        assert!(read_metadata(&BytesSource::new(vec![0; 4])).is_err());
    }
}
