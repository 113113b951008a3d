//! Compression codecs.
//!
//! Figures 18–20 of the paper compare writer throughput under Snappy, Gzip
//! and no compression. We cannot ship those exact codecs, so this module
//! implements two from-scratch LZ77-family codecs with the same *cost
//! profiles* (documented substitution, see DESIGN.md):
//!
//! - [`Codec::Fast`] — Snappy-like: greedy matching, one hash probe,
//!   speed-biased, modest ratio;
//! - [`Codec::Deep`] — Gzip-like: chained hash with many probes and lazy
//!   matching, noticeably slower, better ratio;
//! - [`Codec::None`] — passthrough.
//!
//! Wire format (both LZ codecs): varint uncompressed length, then a token
//! stream. Token tag byte `t`: low bit 0 → literal run of `t >> 1` + 1 bytes
//! follows; low bit 1 → match with length `(t >> 1) + MIN_MATCH` and varint
//! distance following.

use std::borrow::Cow;

use presto_common::{PrestoError, Result};

/// Minimum match length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum run length representable in one token.
const MAX_RUN: usize = 128;

/// Compression codec identifier, stored per column chunk in the footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression.
    None,
    /// Speed-biased LZ (the Snappy stand-in).
    Fast,
    /// Ratio-biased LZ (the Gzip stand-in).
    Deep,
}

impl Codec {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Fast => 1,
            Codec::Deep => 2,
        }
    }

    /// Parse an on-disk tag.
    pub fn from_tag(tag: u8) -> Result<Codec> {
        match tag {
            0 => Ok(Codec::None),
            1 => Ok(Codec::Fast),
            2 => Ok(Codec::Deep),
            other => Err(PrestoError::Format(format!("unknown codec tag {other}"))),
        }
    }

    /// Human-readable name used in bench output.
    pub fn name(self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Fast => "fast(snappy-like)",
            Codec::Deep => "deep(gzip-like)",
        }
    }

    /// Compress `data`.
    pub fn compress(self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut MatchTables::default(), &mut out);
        out
    }

    /// Append `data` compressed to `out`, finding matches through `tables`
    /// (any state: a writer keeps one and passes it for every page).
    pub(crate) fn compress_into(self, data: &[u8], tables: &mut MatchTables, out: &mut Vec<u8>) {
        match self {
            Codec::None => out.extend_from_slice(data),
            Codec::Fast => lz_compress::<false>(data, tables, out),
            Codec::Deep => lz_compress::<true>(data, tables, out),
        }
    }

    /// Decompress a buffer produced by [`Codec::compress`]. A buffer handed
    /// over by value is what [`Codec::None`] returns, not a copy of it.
    pub fn decompress<'a>(self, data: impl Into<Cow<'a, [u8]>>) -> Result<Vec<u8>> {
        let data = data.into();
        match self {
            Codec::None => Ok(data.into_owned()),
            Codec::Fast | Codec::Deep => lz_decompress(&data),
        }
    }
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let byte = *data.get(*pos).ok_or_else(|| PrestoError::Format("truncated varint".into()))?;
        *pos += 1;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(PrestoError::Format("varint too long".into()));
        }
    }
}

/// The 4 bytes at `data[i..]`.
#[inline]
fn word4(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().unwrap_or_default())
}

/// Hash of 4 bytes.
#[inline]
fn hash4(word: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B1) >> 17) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 14;
const CHAIN_SIZE: usize = 1 << 16;

/// The compressor's match-finding tables, reusable from one page to the
/// next without being zeroed in between: `head[h]` is the most recent
/// position with hash `h`, `chain[i & mask]` the position before `i` with the
/// same hash, every position held (and the chain indexed) as `base + 1 +
/// position`, where `base` rises by a page's length after every page. What an
/// earlier page left behind, like the 0 of a slot never written, then lies
/// further back than the current page's first byte, and the one window test
/// every candidate takes anyway rejects it, exactly as an empty slot.
#[derive(Default)]
pub(crate) struct MatchTables {
    head: Vec<u32>,
    chain: Vec<u32>,
    base: u32,
}

impl MatchTables {
    /// Tables that hold nothing of an earlier page, for a page of `len`
    /// bytes; the chain only when the caller follows it.
    fn fresh(&mut self, len: usize, chained: bool) {
        self.head.resize(HASH_SIZE, 0);
        if chained {
            self.chain.resize(CHAIN_SIZE, 0);
        }
        // entries reach `base + len`: start over where that would wrap
        if u32::try_from(len).ok().and_then(|len| self.base.checked_add(len)).is_none() {
            self.head.fill(0);
            self.chain.fill(0);
            self.base = 0;
        }
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `max_len` (`a < b`, `b + max_len <= data.len()`), a word at a time.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let (x, y) = (&data[a..a + max_len], &data[b..b + max_len]);
    let mut len = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let differ = u64::from_le_bytes(wx.try_into().unwrap_or_default())
            ^ u64::from_le_bytes(wy.try_into().unwrap_or_default());
        if differ != 0 {
            return len + (differ.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + x[len..].iter().zip(&y[len..]).take_while(|(p, q)| p == q).count()
}

/// LZ77 with a chained hash table. `DEEP` examines up to 32 chain entries
/// per position and defers a match by one position when the next one has a
/// longer match (Gzip-style); otherwise one probe, greedy (Snappy-style) —
/// which never reads the chain and so does not keep one.
fn lz_compress<const DEEP: bool>(data: &[u8], tables: &mut MatchTables, out: &mut Vec<u8>) {
    out.reserve(data.len() / 2 + 16);
    write_varint(out, data.len() as u64);
    if data.len() < MIN_MATCH + 4 {
        emit_literals(out, data);
        return;
    }
    tables.fresh(data.len(), DEEP);
    let bias = tables.base + 1;
    let head = <&mut [u32; HASH_SIZE]>::try_from(&mut tables.head[..])
        .expect("`fresh` sizes the head table");
    let chain = &mut tables.chain[..];
    // the last position four bytes start at, exclusive
    let hashable = data.len() - (MIN_MATCH - 1);

    let find_match = |head: &[u32; HASH_SIZE], chain: &[u32], pos: usize| {
        if pos >= hashable {
            return None;
        }
        let max_len = (data.len() - pos).min(MAX_RUN - 1 + MIN_MATCH);
        let first = word4(data, pos);
        let (at, reach) = (bias + pos as u32, pos.min(CHAIN_SIZE - 1) as u32);
        let mut best: Option<(usize, usize)> = None;
        let mut cand = head[hash4(first)];
        for _ in 0..if DEEP { 32 } else { 1 } {
            // a candidate lies 1..=reach bytes back: in this page and in the
            // window; empty, stale and (never) later entries fall outside
            let dist = at.wrapping_sub(cand);
            if dist.wrapping_sub(1) >= reach {
                break;
            }
            let c = pos - dist as usize;
            // only a candidate that also matches one byte past the best so
            // far can beat it; most fail that byte, or the first four
            let best_len = best.map_or(0, |(len, _)| len);
            if word4(data, c) == first && data[c + best_len] == data[pos + best_len] {
                let len = common_prefix(data, c, pos, max_len);
                if len > best_len {
                    best = Some((len, dist as usize));
                    if len == max_len {
                        break;
                    }
                }
            }
            if !DEEP {
                break;
            }
            cand = chain[cand as usize & (CHAIN_SIZE - 1)];
        }
        best
    };

    // enter positions `from..to` into the tables
    let insert = |head: &mut [u32; HASH_SIZE], chain: &mut [u32], from: usize, to: usize| {
        for p in from..to.min(hashable) {
            let (h, at) = (hash4(word4(data, p)), bias + p as u32);
            if DEEP {
                chain[at as usize & (CHAIN_SIZE - 1)] = head[h];
            }
            head[h] = at;
        }
    };

    let mut pos = 0;
    let mut literal_start = 0;
    // the match found at `pos` while deciding to defer the one before it
    let mut deferred = None;
    while pos < data.len() {
        let found = deferred.take().unwrap_or_else(|| find_match(head, chain, pos));
        let mut inserted = pos;
        if let (Some((len, _)), true) = (found, DEEP && pos + 1 < data.len()) {
            // Lazy: if the next position has a longer match, emit a literal
            // here instead.
            insert(head, chain, pos, pos + 1);
            inserted += 1;
            let next = find_match(head, chain, pos + 1);
            if matches!(next, Some((next_len, _)) if next_len > len + 1) {
                deferred = Some(next);
                pos += 1;
                continue;
            }
        }
        let len = match found {
            Some((len, dist)) => {
                emit_literals(out, &data[literal_start..pos]);
                // match token
                out.push((((len - MIN_MATCH) as u8) << 1) | 1);
                write_varint(out, dist as u64);
                literal_start = pos + len;
                len
            }
            None => 1,
        };
        insert(head, chain, inserted, pos + len);
        pos += len;
    }
    emit_literals(out, &data[literal_start..]);
    // (a page too long for `u32` positions leaves nothing the next can trust)
    tables.base = u32::try_from(data.len()).map_or(u32::MAX, |len| tables.base + len);
}

fn emit_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(MAX_RUN);
        out.push(((n - 1) as u8) << 1);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

fn lz_decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0;
    let total = read_varint(data, &mut pos)? as usize;
    // untrusted length: cap the reservation; growth is validated by the
    // token stream itself
    let mut out = Vec::with_capacity(total.min(1 << 20));
    while out.len() < total {
        let tag =
            *data.get(pos).ok_or_else(|| PrestoError::Format("truncated LZ stream".into()))?;
        pos += 1;
        if tag & 1 == 0 {
            let n = (tag >> 1) as usize + 1;
            let lits = data
                .get(pos..pos + n)
                .ok_or_else(|| PrestoError::Format("truncated literal run".into()))?;
            out.extend_from_slice(lits);
            pos += n;
        } else {
            let len = (tag >> 1) as usize + MIN_MATCH;
            let dist = read_varint(data, &mut pos)? as usize;
            if dist == 0 || dist > out.len() {
                return Err(PrestoError::Format("invalid match distance".into()));
            }
            // A match shorter than its distance is one copy. A longer one
            // overlaps its own output: from `start` on the output repeats
            // with period `dist`, so each pass copies all of it there is so
            // far, doubling the stretch the next pass can copy.
            let start = out.len() - dist;
            let mut left = len;
            while left > 0 {
                let n = left.min(out.len() - start);
                out.extend_from_within(start..start + n);
                left -= n;
            }
        }
    }
    if out.len() != total {
        return Err(PrestoError::Format("LZ stream length mismatch".into()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(codec: Codec, data: &[u8]) {
        let compressed = codec.compress(data);
        let back = codec.decompress(compressed).unwrap();
        assert_eq!(back, data, "round trip failed for {codec:?} len={}", data.len());
    }

    /// The decoder byte at a time, as the stream format defines a match:
    /// each output byte copies the one `dist` back, which may be one this
    /// match wrote.
    fn decompress_bytewise(data: &[u8]) -> Result<Vec<u8>> {
        let mut pos = 0;
        let total = read_varint(data, &mut pos)? as usize;
        let mut out = Vec::new();
        while out.len() < total {
            let tag = *data.get(pos).ok_or_else(|| PrestoError::Format("truncated".into()))?;
            pos += 1;
            if tag & 1 == 0 {
                let n = (tag >> 1) as usize + 1;
                let lits =
                    data.get(pos..pos + n).ok_or_else(|| PrestoError::Format("lits".into()))?;
                out.extend_from_slice(lits);
                pos += n;
            } else {
                let dist = read_varint(data, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(PrestoError::Format("distance".into()));
                }
                for _ in 0..(tag >> 1) as usize + MIN_MATCH {
                    out.push(out[out.len() - dist]);
                }
            }
        }
        Ok(out)
    }

    /// A match token of `len` bytes (`MIN_MATCH..=MAX_RUN - 1 + MIN_MATCH`)
    /// `dist` bytes back.
    fn push_match(stream: &mut Vec<u8>, len: usize, dist: usize) {
        stream.push((((len - MIN_MATCH) as u8) << 1) | 1);
        write_varint(stream, dist as u64);
    }

    /// Every period 1–16 and every match length up to the longest a token
    /// holds, copied both from within reach (`dist >= len`) and overlapping
    /// its own output, from hand-built streams and from the compressors.
    #[test]
    fn matches_of_every_period_and_length_decode_as_bytewise_copies() {
        const LONGEST: usize = MAX_RUN - 1 + MIN_MATCH;
        assert_eq!(LONGEST, 131);
        for period in 1..=16usize {
            let seed: Vec<u8> = (0..period).map(|i| (i * 37 + period) as u8).collect();
            for len in MIN_MATCH..=LONGEST {
                // the seed, then one match `period` back (overlapping
                // whenever len > period), then one from before the seed's
                // repeat at a distance ≥ len (never overlapping)
                let mut stream = Vec::new();
                let total = period + len + len;
                write_varint(&mut stream, total as u64);
                emit_literals(&mut stream, &seed);
                push_match(&mut stream, len, period);
                push_match(&mut stream, len, len);
                let expected = decompress_bytewise(&stream).unwrap();
                assert_eq!(expected.len(), total);
                let got = lz_decompress(&stream).unwrap();
                assert_eq!(got, expected, "period {period}, length {len}");
                // ... and what the compressors make of the same bytes
                for codec in [Codec::Fast, Codec::Deep] {
                    round_trip(codec, &expected);
                }
            }
            let periodic: Vec<u8> = seed.iter().cycle().take(period * 300).copied().collect();
            for codec in [Codec::Fast, Codec::Deep] {
                round_trip(codec, &periodic);
            }
        }
    }

    #[test]
    fn corrupt_matches_are_format_errors() {
        let format = |stream: &[u8]| matches!(lz_decompress(stream), Err(PrestoError::Format(_)));
        // distance 0, and one past everything written so far
        for dist in [0, 4] {
            let mut stream = vec![10];
            emit_literals(&mut stream, b"abc");
            push_match(&mut stream, 7, dist);
            assert!(format(&stream), "distance {dist}");
        }
        // a match cut off before its distance
        let mut cut = vec![10];
        emit_literals(&mut cut, b"abc");
        cut.push((((7 - MIN_MATCH) as u8) << 1) | 1);
        assert!(format(&cut));
        // a stream that ends short of its length, and one that overshoots it
        // with an overlapping match
        let mut short = vec![20];
        emit_literals(&mut short, b"abc");
        push_match(&mut short, 7, 1);
        assert!(format(&short));
        let mut long = vec![5];
        emit_literals(&mut long, b"ab");
        push_match(&mut long, 40, 2);
        assert!(format(&long));
        // a length past any real page reserves no more than the cap
        let mut huge = Vec::new();
        write_varint(&mut huge, u64::MAX >> 1);
        emit_literals(&mut huge, b"abc");
        assert!(format(&huge));
    }

    #[test]
    fn round_trips_basic_inputs() {
        for codec in [Codec::None, Codec::Fast, Codec::Deep] {
            round_trip(codec, b"");
            round_trip(codec, b"a");
            round_trip(codec, b"abcabcabcabcabcabcabcabc");
            round_trip(codec, &vec![0u8; 10_000]);
            let patterned: Vec<u8> = (0..50_000u32).map(|i| (i % 7) as u8).collect();
            round_trip(codec, &patterned);
        }
    }

    #[test]
    fn round_trips_pseudorandom_input() {
        // xorshift pseudo-random bytes — nearly incompressible
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xff) as u8
            })
            .collect();
        for codec in [Codec::Fast, Codec::Deep] {
            round_trip(codec, &data);
        }
    }

    #[test]
    fn deep_compresses_better_than_fast_on_redundant_data() {
        // repeated phrases with slight perturbation — where extra probes help
        let mut data = Vec::new();
        for i in 0..2000 {
            data.extend_from_slice(format!("driver_uuid={} city=12 status=ok ", i % 97).as_bytes());
        }
        let fast = Codec::Fast.compress(&data).len();
        let deep = Codec::Deep.compress(&data).len();
        assert!(fast < data.len(), "fast must compress");
        assert!(deep <= fast, "deep ({deep}) should beat fast ({fast})");
    }

    #[test]
    fn tags_round_trip() {
        for codec in [Codec::None, Codec::Fast, Codec::Deep] {
            assert_eq!(Codec::from_tag(codec.tag()).unwrap(), codec);
        }
        assert!(Codec::from_tag(9).is_err());
    }

    #[test]
    fn corrupted_streams_error_not_panic() {
        let good = Codec::Fast.compress(b"hello world hello world hello world");
        assert!(Codec::Fast.decompress(&good[..good.len() / 2]).is_err());
        assert!(Codec::Fast.decompress(vec![0xff, 0xff, 0xff]).is_err());
        assert!(Codec::Fast.decompress(Vec::new()).is_err());
    }

    #[test]
    fn no_compression_hands_back_the_buffer_it_was_given() {
        let page = b"a page that was never compressed".to_vec();
        let at = page.as_ptr();
        let back = Codec::None.decompress(page).unwrap();
        assert_eq!(back.as_ptr(), at, "moved, not copied");
        assert_eq!(Codec::None.decompress(&back[..6]).unwrap(), b"a page");
    }
}
