//! File footer metadata.
//!
//! "Each Parquet file has a footer that stores codecs, encoding information,
//! as well as column-level statistics, e.g., the minimum and maximum number
//! of column values" (§V.B). The footer is what the new reader's predicate
//! pushdown (Fig 7) consults to skip row groups, and what the worker-side
//! footer cache (§VII.B) keeps hot ("footers ... are the indexes to the data
//! itself").
//!
//! Physical file layout:
//!
//! ```text
//! "UPQ1" | row group 0 chunks | row group 1 chunks | ... | footer | footer_len: u32 | "UPQ1"
//! ```

use presto_common::{DataType, PrestoError, Result, Value};

use crate::codec::Codec;
use crate::encoding::{ByteReader, ByteWriter};
use crate::schema::{read_schema, write_schema};
use crate::shred::{LeafData, LeafValues};
use presto_common::Schema;

/// File magic, both leading and trailing.
pub const MAGIC: &[u8; 4] = b"UPQ1";
/// Footer format version.
pub const FORMAT_VERSION: u16 = 1;

/// Value encoding of a data page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Values stored inline.
    Plain,
    /// Values are RLE ids into the chunk's dictionary page.
    Dictionary,
}

impl Encoding {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Dictionary => 1,
        }
    }

    /// Parse an on-disk tag.
    pub fn from_tag(t: u8) -> Result<Encoding> {
        match t {
            0 => Ok(Encoding::Plain),
            1 => Ok(Encoding::Dictionary),
            other => Err(PrestoError::Format(format!("unknown encoding tag {other}"))),
        }
    }
}

/// Column-level statistics stored per chunk.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Minimum defined value (absent when the chunk is all-null).
    pub min: Option<Value>,
    /// Maximum defined value.
    pub max: Option<Value>,
    /// Number of null (undefined) triplets.
    pub null_count: u64,
}

/// Metadata for one leaf column chunk within a row group.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnChunkMeta {
    /// Index into the flattened schema's leaves.
    pub leaf_index: u32,
    /// Codec for both dictionary and data pages.
    pub codec: Codec,
    /// Value encoding of the data page.
    pub encoding: Encoding,
    /// Number of triplets (levels) in the chunk.
    pub num_triplets: u64,
    /// Dictionary page location (offset, compressed length); `None` when
    /// plain-encoded.
    pub dictionary_page: Option<(u64, u64)>,
    /// Number of dictionary entries.
    pub dictionary_count: u32,
    /// Data page location (offset, compressed length).
    pub data_page: (u64, u64),
    /// Column statistics.
    pub stats: ColumnStats,
}

/// Metadata for one row group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowGroupMeta {
    /// Top-level row count of the group.
    pub num_rows: u64,
    /// One chunk per leaf column, in leaf order.
    pub columns: Vec<ColumnChunkMeta>,
}

/// The file footer.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMetadata {
    /// Format version.
    pub version: u16,
    /// The file's (nested) schema.
    pub schema: Schema,
    /// Total top-level rows.
    pub num_rows: u64,
    /// Row groups in file order.
    pub row_groups: Vec<RowGroupMeta>,
}

impl FileMetadata {
    /// Serialize the footer body (without length/magic trailer).
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u16(self.version);
        write_schema(&self.schema, &mut w);
        w.u64(self.num_rows);
        w.varint(self.row_groups.len() as u64);
        for rg in &self.row_groups {
            w.u64(rg.num_rows);
            w.varint(rg.columns.len() as u64);
            for c in &rg.columns {
                w.u32(c.leaf_index);
                w.u8(c.codec.tag());
                w.u8(c.encoding.tag());
                w.u64(c.num_triplets);
                match c.dictionary_page {
                    Some((off, len)) => {
                        w.u8(1);
                        w.u64(off);
                        w.u64(len);
                    }
                    None => w.u8(0),
                }
                w.u32(c.dictionary_count);
                w.u64(c.data_page.0);
                w.u64(c.data_page.1);
                write_stats(&c.stats, &mut w);
            }
        }
        w.into_bytes()
    }

    /// Parse a footer body.
    pub fn deserialize(data: &[u8]) -> Result<FileMetadata> {
        let mut r = ByteReader::new(data);
        let version = r.u16()?;
        if version != FORMAT_VERSION {
            return Err(PrestoError::Format(format!("unsupported format version {version}")));
        }
        let schema = read_schema(&mut r)?;
        let num_rows = r.u64()?;
        // counts are untrusted: reserve no more than the bytes left could hold
        let n_groups = r.varint()? as usize;
        let mut row_groups = Vec::with_capacity(n_groups.min(r.remaining()));
        for _ in 0..n_groups {
            let rows = r.u64()?;
            let n_cols = r.varint()? as usize;
            let mut columns = Vec::with_capacity(n_cols.min(r.remaining()));
            for _ in 0..n_cols {
                let leaf_index = r.u32()?;
                let codec = Codec::from_tag(r.u8()?)?;
                let encoding = Encoding::from_tag(r.u8()?)?;
                let num_triplets = r.u64()?;
                let dictionary_page = if r.u8()? == 1 { Some((r.u64()?, r.u64()?)) } else { None };
                let dictionary_count = r.u32()?;
                let data_page = (r.u64()?, r.u64()?);
                let stats = read_stats(&mut r)?;
                columns.push(ColumnChunkMeta {
                    leaf_index,
                    codec,
                    encoding,
                    num_triplets,
                    dictionary_page,
                    dictionary_count,
                    data_page,
                    stats,
                });
            }
            row_groups.push(RowGroupMeta { num_rows: rows, columns });
        }
        let group_rows = row_groups.iter().try_fold(0u64, |sum, rg| sum.checked_add(rg.num_rows));
        if group_rows != Some(num_rows) {
            return Err(PrestoError::Format(format!(
                "row groups hold {group_rows:?} rows, the file says {num_rows}"
            )));
        }
        Ok(FileMetadata { version, schema, num_rows, row_groups })
    }

    /// Approximate in-memory footprint, used by the footer cache's budget.
    pub fn memory_size(&self) -> usize {
        64 + self.row_groups.iter().map(|rg| 16 + rg.columns.len() * 128).sum::<usize>()
    }
}

fn write_stats(stats: &ColumnStats, w: &mut ByteWriter) {
    w.u64(stats.null_count);
    write_opt_value(&stats.min, w);
    write_opt_value(&stats.max, w);
}

fn read_stats(r: &mut ByteReader<'_>) -> Result<ColumnStats> {
    let null_count = r.u64()?;
    let min = read_opt_value(r)?;
    let max = read_opt_value(r)?;
    Ok(ColumnStats { min, max, null_count })
}

fn write_opt_value(v: &Option<Value>, w: &mut ByteWriter) {
    match v {
        None => w.u8(0),
        Some(Value::Boolean(b)) => {
            w.u8(1);
            w.u8(*b as u8);
        }
        Some(Value::Integer(x)) => {
            w.u8(2);
            w.i32(*x);
        }
        Some(Value::Bigint(x)) => {
            w.u8(3);
            w.i64(*x);
        }
        Some(Value::Double(x)) => {
            w.u8(4);
            w.f64(*x);
        }
        Some(Value::Varchar(s)) => {
            w.u8(5);
            // already bounded by chunk_stats; truncating here would break
            // the min-lower-bound / max-upper-bound invariants it maintains
            w.string(s);
        }
        Some(Value::Date(x)) => {
            w.u8(6);
            w.i32(*x);
        }
        Some(Value::Timestamp(x)) => {
            w.u8(7);
            w.i64(*x);
        }
        // nested values never appear in stats
        Some(_) => w.u8(0),
    }
}

fn read_opt_value(r: &mut ByteReader<'_>) -> Result<Option<Value>> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Value::Boolean(r.u8()? != 0)),
        2 => Some(Value::Integer(r.i32()?)),
        3 => Some(Value::Bigint(r.i64()?)),
        4 => Some(Value::Double(r.f64()?)),
        5 => Some(Value::Varchar(r.string()?)),
        6 => Some(Value::Date(r.i32()?)),
        7 => Some(Value::Timestamp(r.i64()?)),
        other => return Err(PrestoError::Format(format!("unknown stats value tag {other}"))),
    })
}

/// Characters of a VARCHAR bound the footer keeps.
const STATS_CHARS: usize = 64;

/// Byte length of the first `n` characters of the UTF-8 string `s`, when it
/// holds more than `n`.
fn char_prefix(s: &[u8], n: usize) -> Option<usize> {
    if s.len() <= n {
        return None;
    }
    s.iter().enumerate().filter(|(_, &b)| b & 0xC0 != 0x80).nth(n).map(|(at, _)| at)
}

/// First-seen minimum and maximum under `<` (ties keep the earlier value, as
/// [`Value::sql_cmp`] improving only on `Less` / `Greater` does), wrapped
/// for the footer.
fn bounds<T: Copy + PartialOrd>(
    mut values: impl Iterator<Item = T>,
    wrap: fn(T) -> Value,
) -> Option<(Value, Value)> {
    let first = values.next()?;
    let (min, max) = values.fold((first, first), |(min, max), v| {
        (if v < min { v } else { min }, if v > max { v } else { max })
    });
    Some((wrap(min), wrap(max)))
}

/// The positions of `n` values a chunk's statistics read: all of them, or
/// only the `firsts`.
fn picks(n: usize, firsts: Option<&[usize]>) -> impl Iterator<Item = usize> + '_ {
    let all = if firsts.is_some() { 0 } else { n };
    firsts.unwrap_or_default().iter().copied().chain(0..all)
}

/// Bounds of a chunk's strings, compared as the footer will hold them: a
/// minimum is cut to its first 64 characters — a prefix sorts at or below
/// the string, so that is a valid *lower* bound — and a maximum longer than
/// that becomes its first 63 characters and `char::MAX`, which sorts above
/// every continuation (plain truncation would let pushdown skip row groups
/// holding strings above it). Later strings meet the bound so rounded, not
/// the string it came from — a string met again moves neither bound.
fn string_bounds<'d>(mut strings: impl Iterator<Item = &'d [u8]>) -> Option<(Value, Value)> {
    /// `char::MAX` in UTF-8.
    const CEILING: [u8; 4] = [0xF4, 0x8F, 0xBF, 0xBF];
    let text = |s: &[u8]| String::from_utf8_lossy(s).into_owned();
    let first = strings.next()?;
    fn floor(s: &[u8]) -> &[u8] {
        &s[..char_prefix(s, STATS_CHARS).unwrap_or(s.len())]
    }
    fn capped(s: &[u8]) -> (&[u8], bool) {
        match char_prefix(s, STATS_CHARS) {
            Some(_) => (&s[..char_prefix(s, STATS_CHARS - 1).unwrap_or(s.len())], true),
            None => (s, false),
        }
    }
    let (mut min, (mut max, mut rounded)) = (floor(first), capped(first));
    for s in strings {
        if s < min {
            min = floor(s);
        }
        let above = if rounded { s.iter().gt(max.iter().chain(&CEILING)) } else { s > max };
        if above {
            (max, rounded) = capped(s);
        }
    }
    let mut max = text(max);
    if rounded {
        max.push(char::MAX);
    }
    Some((Value::Varchar(text(min)), Value::Varchar(max)))
}

/// Statistics of one chunk: the NULL count from its levels, minimum and
/// maximum from one typed pass over its values. NaN is unordered — it would
/// poison a bound (nothing ever replaces it) and make pushdown skip row
/// groups it must read — so NaNs do not contribute. With `firsts` — a
/// dictionary's entries, the index of each distinct value's first
/// occurrence, in that order — the pass reads only those: a value met again
/// moves no bound, so the statistics are the same.
pub fn chunk_stats(data: &LeafData, firsts: Option<&[usize]>) -> ColumnStats {
    let at = || picks(data.values.len(), firsts);
    let bounds = match (&data.values, &data.scalar_type) {
        (LeafValues::Bool(v), _) => bounds(at().map(|i| v[i]), Value::Boolean),
        (LeafValues::I32(v), DataType::Date) => bounds(at().map(|i| v[i]), Value::Date),
        (LeafValues::I32(v), _) => bounds(at().map(|i| v[i]), Value::Integer),
        (LeafValues::I64(v), DataType::Timestamp) => bounds(at().map(|i| v[i]), Value::Timestamp),
        (LeafValues::I64(v), _) => bounds(at().map(|i| v[i]), Value::Bigint),
        (LeafValues::F64(v), _) => {
            bounds(at().map(|i| v[i]).filter(|x| !x.is_nan()), Value::Double)
        }
        (LeafValues::Bytes { offsets, data }, _) => {
            string_bounds(at().map(|i| &data[offsets[i] as usize..offsets[i + 1] as usize]))
        }
    };
    let (min, max) = bounds.map_or((None, None), |(min, max)| (Some(min), Some(max)));
    ColumnStats { min, max, null_count: data.null_count() as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::Field;

    fn sample_metadata() -> FileMetadata {
        FileMetadata {
            version: FORMAT_VERSION,
            schema: Schema::new(vec![
                Field::new("a", DataType::Bigint),
                Field::new("b", DataType::Varchar),
            ])
            .unwrap(),
            num_rows: 100,
            row_groups: vec![RowGroupMeta {
                num_rows: 100,
                columns: vec![
                    ColumnChunkMeta {
                        leaf_index: 0,
                        codec: Codec::Fast,
                        encoding: Encoding::Plain,
                        num_triplets: 100,
                        dictionary_page: None,
                        dictionary_count: 0,
                        data_page: (4, 320),
                        stats: ColumnStats {
                            min: Some(Value::Bigint(-5)),
                            max: Some(Value::Bigint(99)),
                            null_count: 3,
                        },
                    },
                    ColumnChunkMeta {
                        leaf_index: 1,
                        codec: Codec::Deep,
                        encoding: Encoding::Dictionary,
                        num_triplets: 100,
                        dictionary_page: Some((324, 50)),
                        dictionary_count: 7,
                        data_page: (374, 60),
                        stats: ColumnStats {
                            min: Some(Value::Varchar("aaa".into())),
                            max: Some(Value::Varchar("zzz".into())),
                            null_count: 0,
                        },
                    },
                ],
            }],
        }
    }

    #[test]
    fn footer_round_trips() {
        let meta = sample_metadata();
        let bytes = meta.serialize();
        let back = FileMetadata::deserialize(&bytes).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn footer_rejects_bad_version_and_truncation() {
        let meta = sample_metadata();
        let mut bytes = meta.serialize();
        assert!(FileMetadata::deserialize(&bytes[..bytes.len() - 4]).is_err());
        bytes[0] = 0xFF;
        assert!(FileMetadata::deserialize(&bytes).is_err());
    }

    /// One column of `values` shredded into its leaf.
    fn leaf_of(dt: DataType, values: &[Value]) -> LeafData {
        let leaf = crate::schema::FlatSchema::new(Schema::new(vec![Field::new("c", dt)]).unwrap())
            .unwrap();
        let mut sinks = vec![LeafData::new(&leaf.leaves[0])];
        crate::shred::shred_column(&leaf.roots[0], values, &mut sinks).unwrap();
        sinks.pop().unwrap()
    }

    fn stats_of(dt: DataType, values: &[Value]) -> ColumnStats {
        chunk_stats(&leaf_of(dt, values), None)
    }

    #[test]
    fn chunk_stats_bound_and_truncate() {
        let stats = stats_of(
            DataType::Bigint,
            &[Value::Bigint(5), Value::Null, Value::Bigint(-2), Value::Bigint(10)],
        );
        assert_eq!(stats.min, Some(Value::Bigint(-2)));
        assert_eq!(stats.max, Some(Value::Bigint(10)));
        assert_eq!(stats.null_count, 1);
        assert_eq!(stats_of(DataType::Date, &[Value::Date(3)]).max, Some(Value::Date(3)));
        assert_eq!(stats_of(DataType::Varchar, &[Value::Null]).min, None);

        let long = "x".repeat(200);
        let s = stats_of(DataType::Varchar, &[Value::Varchar(long.clone())]);
        match &s.min {
            Some(Value::Varchar(v)) => {
                assert_eq!(v.chars().count(), 64);
                assert!(v.as_str() <= long.as_str(), "min must stay a lower bound");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &s.max {
            Some(Value::Varchar(v)) => {
                assert_eq!(v.chars().count(), 64);
                assert!(v.as_str() >= long.as_str(), "max must stay an upper bound");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A string from a drawn shape: `len` characters of `stem`, the 64th
    /// (the cut) `cut` and the rest `'a'`s.
    fn drawn_string((stem, len, cut): (u8, u8, u8)) -> Value {
        let stem = ['a', 'b', 'é', char::MAX][stem as usize];
        let len = [0, 1, 62, 63, 64, 65, 66, 100][len as usize];
        let cut = ['a', 'z', 'é', char::MAX][cut as usize];
        let s = (0..len).map(|i| match i {
            63 => cut,
            0..63 => stem,
            _ => 'a',
        });
        Value::Varchar(s.collect())
    }

    /// Statistics of `values` over every defined value, and over the first
    /// occurrence of each distinct one.
    fn stats_all_and_firsts(dt: DataType, values: &[Value]) -> (ColumnStats, ColumnStats) {
        let leaf = leaf_of(dt, values);
        let defined: Vec<&Value> = values.iter().filter(|v| !v.is_null()).collect();
        let firsts: Vec<usize> =
            (0..defined.len()).filter(|&i| !defined[..i].contains(&defined[i])).collect();
        (chunk_stats(&leaf, None), chunk_stats(&leaf, Some(&firsts)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]

        #[test]
        fn stats_over_the_firsts_are_stats_over_all_values(
            strings in proptest::collection::vec((0u8..4, 0u8..8, 0u8..4), 0..40),
            repeats in proptest::collection::vec(0usize..40, 0..80),
            ints in proptest::collection::vec(0usize..6, 0..60),
        ) {
            // each string again at drawn positions, NULLs among them
            let drawn: Vec<Value> = strings.into_iter().map(drawn_string).collect();
            let mut values = drawn.clone();
            for &r in &repeats {
                values.push(drawn.get(r).cloned().unwrap_or(Value::Null));
            }
            let (all, firsts) = stats_all_and_firsts(DataType::Varchar, &values);
            proptest::prop_assert_eq!(all, firsts);
            let bigints: Vec<Value> =
                ints.iter().map(|&i| Value::Bigint([i64::MIN, -5, 0, 3, 4, i64::MAX][i])).collect();
            let (all, firsts) = stats_all_and_firsts(DataType::Bigint, &bigints);
            proptest::prop_assert_eq!(all, firsts);
            let dates: Vec<Value> =
                ints.iter().map(|&i| Value::Date([i32::MIN, -5, 0, 3, 4, i32::MAX][i])).collect();
            let (all, firsts) = stats_all_and_firsts(DataType::Date, &dates);
            proptest::prop_assert_eq!(all, firsts);
        }
    }

    #[test]
    fn nan_does_not_poison_double_stats() {
        let d = Value::Double;
        let s = stats_of(DataType::Double, &[d(f64::NAN), d(3.0), d(-1.0), d(f64::NAN)]);
        assert_eq!(s.min, Some(Value::Double(-1.0)));
        assert_eq!(s.max, Some(Value::Double(3.0)));
        // +0.0 and -0.0 tie: the one seen first stays
        let s = stats_of(DataType::Double, &[d(0.0), d(-0.0)]);
        assert!(matches!(s.min, Some(Value::Double(z)) if z.is_sign_positive()));
    }
}
