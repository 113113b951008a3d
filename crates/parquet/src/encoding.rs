//! Byte-level encoding primitives: little-endian scalars, varints,
//! length-prefixed byte strings, and the RLE/bit-hybrid run encoding used for
//! repetition levels, definition levels and dictionary ids.

use presto_common::{PrestoError, Result};

use crate::shred::Levels;

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drop what was written, keeping the buffer for the next page.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Take the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write u16 LE.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write u32 LE.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write u64 LE.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write i32 LE.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write i64 LE.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write f64 LE.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write varint length + raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write a UTF-8 string (varint length + bytes).
    pub fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Sequential binary reader with bounds checking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let slice =
            self.pos.checked_add(n).and_then(|end| self.buf.get(self.pos..end)).ok_or_else(
                || PrestoError::Format(format!("truncated input at byte {}", self.pos)),
            )?;
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read u16 LE.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read u32 LE.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read u64 LE.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read i32 LE.
    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read i64 LE.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read f64 LE.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The bytes not read yet, without consuming them ([`ByteReader::raw`]
    /// consumes what a caller takes of them).
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Read LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
            // the 10th byte holds bit 63 alone: anything more is past 64 bits
            if shift == 63 && byte > 1 {
                return Err(PrestoError::Format("varint overflows 64 bits".into()));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read varint length + bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.varint()? as usize;
        self.take(n)
    }

    /// Read `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| PrestoError::Format("invalid utf-8 string".into()))
    }
}

/// RLE-encode a stream of small integers (levels, dictionary ids).
///
/// Format: repeated groups of `varint header` where header = `count << 1 |
/// is_run`. A run group is followed by a single varint value; a literal
/// group by `count` varint values. Nested data's levels are extremely
/// run-heavy (flat non-null data is one giant run), which is why the fast
/// non-nested path of the vectorized reader (§V.I) can skip level decoding
/// almost entirely.
pub fn rle_encode<T: Copy + PartialEq + Into<u64>>(values: &[T], out: &mut ByteWriter) {
    out.varint(values.len() as u64);
    let run_at = |i: usize| values[i..].iter().take_while(|&&v| v == values[i]).count();
    let mut i = 0;
    while i < values.len() {
        let run = run_at(i);
        if run >= 4 {
            out.varint(((run as u64) << 1) | 1);
            out.varint(values[i].into());
            i += run;
        } else {
            // gather literals until the next long run
            let start = i;
            i += run;
            while i < values.len() {
                let next_run = run_at(i);
                if next_run >= 4 {
                    break;
                }
                i += next_run;
            }
            out.varint(((i - start) as u64) << 1);
            for &v in &values[start..i] {
                out.varint(v.into());
            }
        }
    }
}

/// [`rle_encode`] a level stream as it is held: a [`Levels::Run`] is one
/// group, never expanded to be measured again.
pub fn rle_encode_levels(levels: &Levels, out: &mut ByteWriter) {
    match levels {
        Levels::Run { level, len } if *len >= 4 => {
            out.varint(*len as u64);
            out.varint(((*len as u64) << 1) | 1);
            out.varint(u64::from(*level));
        }
        Levels::Run { level, len } => rle_encode(&[*level; 3][..*len], out),
        Levels::Each(levels) => rle_encode(levels, out),
    }
}

/// One group header of an [`rle_encode`]d stream: `(count, is_run)`, with
/// `count` checked against the `left` entries the stream still owes.
fn rle_group(reader: &mut ByteReader<'_>, left: usize) -> Result<(usize, bool)> {
    let header = reader.varint()?;
    let count = (header >> 1) as usize;
    if count == 0 {
        return Err(PrestoError::Format("zero-length RLE group".into()));
    }
    if count > left {
        return Err(PrestoError::Format("RLE stream length mismatch".into()));
    }
    Ok((count, header & 1 == 1))
}

/// Append a literal group of `count` values to `out`. The values at most
/// `one_byte_max` (≤ `0x7f`) that lead the group are one-byte varints, taken
/// as one slice; `value` reads the varint that ends such a stretch, and
/// rejects it if it is out of range.
fn rle_literals<T: From<u8>>(
    reader: &mut ByteReader<'_>,
    count: usize,
    one_byte_max: u8,
    out: &mut Vec<T>,
    value: impl Fn(&mut ByteReader<'_>) -> Result<T>,
) -> Result<()> {
    let mut left = count;
    while left > 0 {
        let rest = reader.rest();
        let window = &rest[..left.min(rest.len())];
        let ones = window.iter().position(|&b| b > one_byte_max).unwrap_or(window.len());
        out.extend(reader.raw(ones)?.iter().map(|&b| T::from(b)));
        left -= ones;
        if left > 0 {
            out.push(value(reader)?);
            left -= 1;
        }
    }
    Ok(())
}

/// Decode an [`rle_encode`]d stream.
pub fn rle_decode(reader: &mut ByteReader<'_>) -> Result<Vec<u32>> {
    let total = reader.varint()? as usize;
    // the count is untrusted input: cap the up-front reservation so a
    // corrupted varint cannot force a giant allocation before any data is
    // validated (the vec still grows to `total` if the stream really is
    // that long)
    let mut out = Vec::with_capacity(total.min(1 << 16));
    // a value past 32 bits is corruption, never a value to truncate
    let value = |reader: &mut ByteReader<'_>| -> Result<u32> {
        let v = reader.varint()?;
        u32::try_from(v).map_err(|_| PrestoError::Format(format!("RLE value {v} exceeds 32 bits")))
    };
    while out.len() < total {
        let (count, is_run) = rle_group(reader, total - out.len())?;
        if is_run {
            let v = value(reader)?;
            out.resize(out.len() + count, v);
        } else {
            rle_literals(reader, count, 0x7f, &mut out, value)?;
        }
    }
    Ok(out)
}

/// Decode an [`rle_encode`]d stream of `expected` repetition or definition
/// levels straight to `u16`, rejecting any level above `max_level`. A
/// stream that is one run — a flat NOT NULL column's, both of them — stays a
/// [`Levels::Run`]: nothing per entry is allocated or scanned.
pub fn rle_decode_levels(
    reader: &mut ByteReader<'_>,
    expected: usize,
    max_level: u16,
) -> Result<Levels> {
    let total = reader.varint()? as usize;
    if total != expected {
        return Err(PrestoError::Format(format!(
            "level stream has {total} entries, the footer says {expected}"
        )));
    }
    let level = |reader: &mut ByteReader<'_>| -> Result<u16> {
        let v = reader.varint()?;
        if v > u64::from(max_level) {
            return Err(PrestoError::Format(format!("level {v} above the leaf's {max_level}")));
        }
        Ok(v as u16)
    };
    if total == 0 {
        return Ok(Levels::default());
    }
    let mut group = rle_group(reader, total)?;
    if group == (total, true) {
        return Ok(Levels::Run { level: level(reader)?, len: total });
    }
    // `total` is the footer's count confirmed by the page, still untrusted:
    // cap the reservation, the vec grows only as groups really arrive
    let mut out: Vec<u16> = Vec::with_capacity(total.min(1 << 16));
    // a one-byte varint is a level as long as the leaf allows it
    let one_byte_max = max_level.min(0x7f) as u8;
    loop {
        let (count, is_run) = group;
        if is_run {
            let v = level(reader)?;
            out.resize(out.len() + count, v);
        } else {
            rle_literals(reader, count, one_byte_max, &mut out, level)?;
        }
        if out.len() == total {
            break;
        }
        group = rle_group(reader, total - out.len())?;
    }
    Ok(Levels::Each(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_leaf_values;
    use crate::schema::PhysicalType;
    use crate::shred::LeafValues;

    #[test]
    fn scalar_round_trips() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(65535);
        w.u32(123456);
        w.u64(u64::MAX);
        w.i32(-5);
        w.i64(i64::MIN);
        w.f64(3.5);
        w.varint(300);
        w.string("héllo");
        w.bytes(b"\x00\x01");
        let data = w.into_bytes();
        let mut r = ByteReader::new(&data);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123456);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i32().unwrap(), -5);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert_eq!(r.varint().unwrap(), 300);
        assert_eq!(r.string().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), b"\x00\x01");
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err());
    }

    #[test]
    fn rle_round_trips() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![1],
            vec![1, 1, 1, 1, 1, 1],
            vec![1, 2, 3, 4, 5],
            vec![0; 100_000],
            vec![5, 5, 5, 5, 9, 1, 2, 3, 7, 7, 7, 7, 7, 0],
        ];
        for case in cases {
            let mut w = ByteWriter::new();
            rle_encode(&case, &mut w);
            let data = w.into_bytes();
            let mut r = ByteReader::new(&data);
            assert_eq!(rle_decode(&mut r).unwrap(), case);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn rle_runs_compress_well() {
        let run = vec![3u32; 100_000];
        let mut w = ByteWriter::new();
        rle_encode(&run, &mut w);
        assert!(w.len() < 16, "a single run must be tiny, got {}", w.len());
    }

    #[test]
    fn rle_rejects_corruption() {
        let mut w = ByteWriter::new();
        rle_encode(&[1u32, 2, 3, 4, 5, 6, 7, 8], &mut w);
        let data = w.into_bytes();
        let mut r = ByteReader::new(&data[..data.len() - 2]);
        assert!(rle_decode(&mut r).is_err());
    }

    #[test]
    fn rle_values_past_32_bits_are_format_errors() {
        // a run of two 2^32 + 1, and a literal group of one 2^32: neither may
        // read back as 1 or 0
        for (count, is_run, value) in [(2u64, 1, (1u64 << 32) + 1), (1, 0, 1 << 32)] {
            let mut w = ByteWriter::new();
            w.varint(count);
            w.varint((count << 1) | is_run);
            w.varint(value);
            let data = w.into_bytes();
            let err = rle_decode(&mut ByteReader::new(&data)).unwrap_err();
            assert!(matches!(err, PrestoError::Format(_)), "{err}");
        }
        // the largest 32-bit value still reads
        let mut w = ByteWriter::new();
        rle_encode(&[u32::MAX; 5], &mut w);
        let data = w.into_bytes();
        assert_eq!(rle_decode(&mut ByteReader::new(&data)).unwrap(), vec![u32::MAX; 5]);
    }

    /// A varint reaches 64 bits and no further: its 10th byte may hold bit
    /// 63 and nothing else.
    #[test]
    fn varints_past_64_bits_are_format_errors() {
        let ten = |last: u8| [[0xff; 9].as_slice(), &[last]].concat();
        let mut w = ByteWriter::new();
        w.varint(u64::MAX);
        assert_eq!(w.as_bytes(), ten(0x01));
        assert_eq!(ByteReader::new(&ten(0x01)).varint().unwrap(), u64::MAX);
        for last in [0x02, 0x7f, 0x81] {
            let err = ByteReader::new(&ten(last)).varint().unwrap_err();
            assert!(matches!(err, PrestoError::Format(_)), "10th byte {last:#x}: {err}");
        }
    }

    /// [`rle_decode`] a value at a time: the reference its literal-group
    /// fast path is held to.
    fn rle_decode_bytewise(reader: &mut ByteReader<'_>) -> Result<Vec<u32>> {
        let total = reader.varint()? as usize;
        let value = |reader: &mut ByteReader<'_>| -> Result<u32> {
            let v = reader.varint()?;
            u32::try_from(v).map_err(|_| PrestoError::Format("past 32 bits".into()))
        };
        let mut out = Vec::new();
        while out.len() < total {
            let (count, is_run) = rle_group(reader, total - out.len())?;
            if is_run {
                let v = value(reader)?;
                out.resize(out.len() + count, v);
            } else {
                for _ in 0..count {
                    out.push(value(reader)?);
                }
            }
        }
        Ok(out)
    }

    /// [`rle_decode_levels`] a level at a time, expanded.
    fn rle_decode_levels_bytewise(
        reader: &mut ByteReader<'_>,
        expected: usize,
        max_level: u16,
    ) -> Result<Vec<u16>> {
        if reader.varint()? != expected as u64 {
            return Err(PrestoError::Format("count".into()));
        }
        let level = |reader: &mut ByteReader<'_>| -> Result<u16> {
            let v = reader.varint()?;
            match u16::try_from(v) {
                Ok(v) if v <= max_level => Ok(v),
                _ => Err(PrestoError::Format("above max".into())),
            }
        };
        let mut out = Vec::new();
        while out.len() < expected {
            let (count, is_run) = rle_group(reader, expected - out.len())?;
            if is_run {
                let v = level(reader)?;
                out.resize(out.len() + count, v);
            } else {
                for _ in 0..count {
                    out.push(level(reader)?);
                }
            }
        }
        Ok(out)
    }

    /// `v` as a varint of exactly `width` bytes: continuation bytes pad a
    /// value that needs fewer, as a decoder must accept.
    fn varint_of_width(v: u64, width: usize) -> Vec<u8> {
        assert!(v >> (7 * width) == 0, "{v} needs more than {width} bytes");
        let mut out: Vec<u8> = (0..width).map(|i| (v >> (7 * i)) as u8 | 0x80).collect();
        out[width - 1] &= 0x7f;
        out
    }

    /// 1- to 5-byte varints of values from `values`, each paired with its
    /// width.
    fn wide_values(values: &[u64]) -> Vec<(u64, usize)> {
        let mut wide = Vec::new();
        for &v in values {
            let needs = (1..=9).find(|&w| v >> (7 * w) == 0).unwrap_or(10);
            wide.extend((needs..=5).map(|w| (v, w)));
        }
        wide
    }

    /// RLE streams of a run, a literal group of 1–9 values, and a run, where
    /// the group holds `wide` at one position, at each in turn, and at all
    /// of them; every other value is the one-byte `fill(i)`.
    fn literal_groups_holding(wide: &[u8], fill: &dyn Fn(usize) -> u64) -> Vec<(usize, Vec<u8>)> {
        let mut streams = Vec::new();
        for group in 1..=9usize {
            for at in 0..=group {
                let mut w = ByteWriter::new();
                w.varint(4 + group as u64 + 5);
                w.varint((4 << 1) | 1);
                w.varint(fill(0));
                w.varint((group as u64) << 1);
                for i in 0..group {
                    if i == at || at == group {
                        w.raw(wide);
                    } else {
                        w.varint(fill(i));
                    }
                }
                w.varint((5 << 1) | 1);
                w.varint(fill(1));
                streams.push((4 + group + 5, w.into_bytes()));
            }
        }
        streams
    }

    /// `fast` and `reference` over `stream` cut at every byte: both fail,
    /// `fast` with `Format`, or both return the same values having read the
    /// same bytes. True when the whole stream decoded.
    fn agree_at_every_cut<T: PartialEq + std::fmt::Debug>(
        stream: &[u8],
        fast: &dyn Fn(&mut ByteReader<'_>) -> Result<T>,
        reference: &dyn Fn(&mut ByteReader<'_>) -> Result<T>,
    ) -> bool {
        let mut whole = false;
        for cut in 0..=stream.len() {
            let (mut f, mut r) = (ByteReader::new(&stream[..cut]), ByteReader::new(&stream[..cut]));
            match (reference(&mut r), fast(&mut f)) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(got, want, "{stream:?} cut at {cut}");
                    assert_eq!(f.position(), r.position(), "{stream:?} cut at {cut}");
                    whole = cut == stream.len();
                }
                (Err(_), Err(PrestoError::Format(_))) => {}
                (want, got) => panic!("{stream:?} cut at {cut}: reference {want:?}, fast {got:?}"),
            }
        }
        whole
    }

    #[test]
    fn rle_literal_groups_decode_as_value_at_a_time() {
        let values = [0, 5, 0x7f, 0x80, 1 << 14, 1 << 21, 1 << 28, u32::MAX.into(), 1 << 32];
        for (v, width) in wide_values(&values) {
            let wide = varint_of_width(v, width);
            for (_, stream) in literal_groups_holding(&wide, &|i| (i as u64 * 37) % 0x80) {
                let decoded = agree_at_every_cut(&stream, &rle_decode, &rle_decode_bytewise);
                // an id past 32 bits is never truncated to one
                assert_eq!(decoded, v <= u32::MAX.into(), "{v} in {width} bytes");
            }
        }
    }

    #[test]
    fn level_literal_groups_decode_as_level_at_a_time() {
        for max_level in [1u16, 3, 0x7f, 200] {
            let top = u64::from(max_level);
            for (v, width) in wide_values(&[0, top, top + 1]) {
                let wide = varint_of_width(v, width);
                let fill = |i: usize| i as u64 % (top.min(0x7f) + 1);
                for (expected, stream) in literal_groups_holding(&wide, &fill) {
                    let fast = |r: &mut ByteReader<'_>| {
                        rle_decode_levels(r, expected, max_level).map(|l| l.iter().collect())
                    };
                    let reference =
                        |r: &mut ByteReader<'_>| rle_decode_levels_bytewise(r, expected, max_level);
                    let decoded = agree_at_every_cut(&stream, &fast, &reference);
                    // a level above the leaf's is `Format`, one byte or not
                    assert_eq!(decoded, v <= top, "level {v} in {width} bytes, max {max_level}");
                }
            }
        }
    }

    /// A plain byte-array page read a length varint at a time.
    fn byte_arrays_bytewise(reader: &mut ByteReader<'_>) -> Result<LeafValues> {
        let n = reader.varint()? as usize;
        let (mut offsets, mut data) = (vec![0u32], Vec::new());
        for _ in 0..n {
            data.extend_from_slice(reader.bytes()?);
            offsets.push(data.len() as u32);
        }
        Ok(LeafValues::Bytes { offsets, data })
    }

    /// Pages of 1–5 byte arrays where one value's length, at each position
    /// in turn and at all of them, is a 1- to 5-byte varint.
    #[test]
    fn byte_array_lengths_decode_as_varint_at_a_time() {
        let fast = |r: &mut ByteReader<'_>| read_leaf_values(PhysicalType::Bytes, r, true);
        for (len, width) in wide_values(&[0, 3, 0x7f, 0x80, 130]) {
            for count in 1..=5usize {
                for at in 0..=count {
                    let mut w = ByteWriter::new();
                    w.varint(count as u64);
                    for i in 0..count {
                        if i == at || at == count {
                            w.raw(&varint_of_width(len, width));
                            w.raw(&(0..len).map(|b| b as u8).collect::<Vec<_>>());
                        } else {
                            w.bytes(&vec![i as u8; i % 5]);
                        }
                    }
                    let stream = w.into_bytes();
                    assert!(agree_at_every_cut(&stream, &fast, &byte_arrays_bytewise));
                }
            }
        }
    }
}
