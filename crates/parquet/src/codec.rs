//! Compression codecs.
//!
//! Figures 18–20 of the paper compare writer throughput under Snappy, Gzip
//! and no compression. We cannot ship those exact codecs, so this module
//! implements two from-scratch LZ77-family codecs with the same *cost
//! profiles* (documented substitution, see DESIGN.md):
//!
//! - [`Codec::Fast`] — Snappy-like: greedy matching with one hash probe at
//!   each position searched, and only those positions and the last two of
//!   each match entered in the hash; a match is extended backwards over the
//!   literals before it (LZ4's catch-up); speed-biased, modest ratio;
//! - [`Codec::Deep`] — Gzip-like: a chained hash walked up to 32 entries
//!   deep at every position searched, a lazy probe of the next position
//!   after a match shorter than 6 bytes, and every position entered in the
//!   hash; slower, better ratio;
//! - [`Codec::None`] — passthrough.
//!
//! Both LZ codecs search ever fewer positions through a streak without a
//! match (Snappy's skip), and neither has an entropy stage.
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
/// The most bytes one token yields: a match of the longest length.
const LONGEST_TOKEN: usize = MAX_RUN - 1 + MIN_MATCH;

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
            Codec::Fast => fast_compress(data, tables, out),
            Codec::Deep => deep_compress(data, tables, out),
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
/// The farthest back a match may reach: one less than the chain's length.
const MAX_DIST: usize = CHAIN_SIZE - 1;

/// After `m` positions in a row without a match, the next search is
/// `1 + (m >> SKIP_SHIFT)` positions on (Snappy's skip), in both codecs.
const SKIP_SHIFT: u32 = 5;
/// [`Codec::Deep`]: chain entries examined per position.
const DEEP_CHAIN: usize = 32;
/// [`Codec::Deep`]: a match this long or longer is taken without probing the
/// next position for a longer one (zlib's `max_lazy`).
const DEEP_LAZY_BELOW: usize = 6;

/// The compressor's match-finding tables, reusable from one page to the
/// next without being zeroed in between: `head[h]` is the most recent
/// position entered with hash `h`, `chain[i & mask]` the position before `i`
/// with the same hash, every position held (and the chain indexed) as `base +
/// 1 + position`, where `base` rises by a page's length after every page. What
/// an earlier page left behind, like the 0 of a slot never written, then lies
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
    /// bytes; the chain only when the caller follows it. Returns the bias
    /// that turns a position of the page into its table entry.
    fn fresh(&mut self, len: usize, chained: bool) -> u32 {
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
        self.base + 1
    }

    /// The head table, sized by [`MatchTables::fresh`], and the chain.
    fn parts(&mut self) -> (&mut [u32; HASH_SIZE], &mut [u32]) {
        let head = <&mut [u32; HASH_SIZE]>::try_from(&mut self.head[..])
            .expect("`fresh` sizes the head table");
        (head, &mut self.chain[..])
    }

    /// Move `base` past a page of `len` bytes (a page too long for `u32`
    /// positions leaves nothing the next can trust).
    fn advance(&mut self, len: usize) {
        self.base = u32::try_from(len).map_or(u32::MAX, |len| self.base + len);
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

/// Start `data`'s stream with its length. A page too short to search is
/// then written whole as literals (`None`); otherwise `tables` are made
/// ready for it ([`MatchTables::fresh`]) and its bias returned.
fn begin_stream(
    data: &[u8],
    tables: &mut MatchTables,
    chained: bool,
    out: &mut Vec<u8>,
) -> Option<u32> {
    out.reserve(data.len() / 2 + 16);
    write_varint(out, data.len() as u64);
    if data.len() < MIN_MATCH + 4 {
        emit_literals(out, data);
        return None;
    }
    Some(tables.fresh(data.len(), chained))
}

/// A match token: `len` bytes (`MIN_MATCH..=LONGEST_TOKEN`) from `dist` back.
#[inline]
fn emit_match(out: &mut Vec<u8>, len: usize, dist: usize) {
    out.push((((len - MIN_MATCH) as u8) << 1) | 1);
    if dist < 0x80 {
        out.push(dist as u8);
    } else {
        write_varint(out, dist as u64);
    }
}

/// [`Codec::Fast`], Snappy's search: one probe of the head table at each
/// position searched, greedy. Through a streak of misses the search skips
/// ([`SKIP_SHIFT`]); a match it finds is first extended backwards over the
/// literals it passed (LZ4's catch-up), so the skip costs little ratio. A
/// searched position enters the head table; of a match, only its last two
/// positions do.
fn fast_compress(data: &[u8], tables: &mut MatchTables, out: &mut Vec<u8>) {
    let Some(bias) = begin_stream(data, tables, false, out) else {
        return;
    };
    let (head, _) = tables.parts();
    // the last position four bytes start at, exclusive
    let hashable = data.len() - (MIN_MATCH - 1);
    let (mut pos, mut literal_start, mut misses) = (0, 0, 0);
    while pos < hashable {
        let word = word4(data, pos);
        let at = bias + pos as u32;
        let slot = &mut head[hash4(word)];
        // a candidate lies 1..=MAX_DIST bytes back, in this page; empty and
        // stale entries fall outside
        let dist = at.wrapping_sub(std::mem::replace(slot, at)) as usize;
        if dist.wrapping_sub(1) >= pos.min(MAX_DIST) || word4(data, pos - dist) != word {
            misses += 1;
            pos += 1 + (misses >> SKIP_SHIFT);
            continue;
        }
        // catch-up: the bytes before both ends may match too, back to the
        // pending literals' start (and no further than one token holds)
        let floor = literal_start.max(dist).max(pos.saturating_sub(LONGEST_TOKEN - MIN_MATCH));
        let mut start = pos;
        while start > floor && data[start - 1] == data[start - 1 - dist] {
            start -= 1;
        }
        let back = pos - start;
        let len = back
            + common_prefix(data, pos - dist, pos, (data.len() - pos).min(LONGEST_TOKEN - back));
        emit_short_literals(out, data, literal_start, start);
        emit_match(out, len, dist);
        pos = start + len;
        literal_start = pos;
        misses = 0;
        // (past `hashable` the loop is over, and an entry could only be stale)
        if pos < hashable {
            for p in [pos - 2, pos - 1] {
                head[hash4(word4(data, p))] = bias + p as u32;
            }
        }
    }
    emit_literals(out, &data[literal_start..]);
    tables.advance(data.len());
}

/// The literals `data[from..to]`. A run of at most 16 bytes with 16 bytes of
/// `data` to copy is copied as one fixed-width block behind its tag and cut
/// back, an empty one included (to nothing), without a branch on its length.
#[inline]
fn emit_short_literals(out: &mut Vec<u8>, data: &[u8], from: usize, to: usize) {
    let n = to - from;
    if n <= 16 && from + 16 <= data.len() {
        let end = out.len() + n + usize::from(n > 0);
        out.push((n.wrapping_sub(1) as u8) << 1);
        out.extend_from_slice(&data[from..from + 16]);
        out.truncate(end);
    } else {
        emit_literals(out, &data[from..to]);
    }
}

/// [`Codec::Deep`], Gzip's search: LZ77 with a chained hash table, examining
/// up to [`DEEP_CHAIN`] chain entries per position searched, deferring a
/// match shorter than [`DEEP_LAZY_BELOW`] by one position when the next one
/// has a longer match, and through a streak of positions without a match
/// searching ever fewer of them ([`SKIP_SHIFT`]). Every position enters the
/// tables.
fn deep_compress(data: &[u8], tables: &mut MatchTables, out: &mut Vec<u8>) {
    let Some(bias) = begin_stream(data, tables, true, out) else {
        return;
    };
    let (head, chain) = tables.parts();
    // the last position four bytes start at, exclusive
    let hashable = data.len() - (MIN_MATCH - 1);

    let find_match = |head: &[u32; HASH_SIZE], chain: &[u32], pos: usize| {
        if pos >= hashable {
            return None;
        }
        let max_len = (data.len() - pos).min(LONGEST_TOKEN);
        let first = word4(data, pos);
        let (at, reach) = (bias + pos as u32, pos.min(MAX_DIST) as u32);
        let mut best: Option<(usize, usize)> = None;
        let mut cand = head[hash4(first)];
        for _ in 0..DEEP_CHAIN {
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
            cand = chain[cand as usize & (CHAIN_SIZE - 1)];
        }
        best
    };

    // enter positions `from..to` into the tables
    let insert = |head: &mut [u32; HASH_SIZE], chain: &mut [u32], from: usize, to: usize| {
        for p in from..to.min(hashable) {
            let (h, at) = (hash4(word4(data, p)), bias + p as u32);
            chain[at as usize & (CHAIN_SIZE - 1)] = head[h];
            head[h] = at;
        }
    };

    let mut pos = 0;
    let mut literal_start = 0;
    // positions searched in a row without a match
    let mut misses = 0;
    // the match found at `pos` while deciding to defer the one before it
    let mut deferred = None;
    while pos < data.len() {
        let found = deferred.take().unwrap_or_else(|| find_match(head, chain, pos));
        let mut inserted = pos;
        let lazy = found.filter(|&(len, _)| len < DEEP_LAZY_BELOW && pos + 1 < data.len());
        if let Some((len, _)) = lazy {
            // Lazy: if the next position has a longer match than this short
            // one, emit a literal here instead.
            insert(head, chain, pos, pos + 1);
            inserted += 1;
            let next = find_match(head, chain, pos + 1);
            if matches!(next, Some((next_len, _)) if next_len > len + 1) {
                deferred = Some(next);
                pos += 1;
                continue;
            }
        }
        let step = match found {
            Some((len, dist)) => {
                emit_literals(out, &data[literal_start..pos]);
                emit_match(out, len, dist);
                literal_start = pos + len;
                misses = 0;
                len
            }
            None => {
                misses += 1;
                1 + (misses >> SKIP_SHIFT)
            }
        };
        insert(head, chain, inserted, pos + step);
        pos += step;
    }
    emit_literals(out, &data[literal_start..]);
    tables.advance(data.len());
}

fn emit_literals(out: &mut Vec<u8>, mut lits: &[u8]) {
    while !lits.is_empty() {
        let n = lits.len().min(MAX_RUN);
        out.push(((n - 1) as u8) << 1);
        out.extend_from_slice(&lits[..n]);
        lits = &lits[n..];
    }
}

/// Bytes the decoder allocates past a page's length, so that a short literal
/// and the last block of a match are copied as whole fixed-width blocks.
const SLACK: usize = 16;

/// Decode into one buffer allocated at the page's length (plus [`SLACK`]).
/// A literal of at most 16 bytes is copied as one 16-byte block, and a match
/// that does not overlap itself in 16-byte blocks; what a block writes past
/// its token lands in the slack or under the next token, and the buffer is
/// cut to the page's length at the end.
fn lz_decompress(data: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0;
    let total = read_varint(data, &mut pos)?;
    // every token takes at least two bytes of the stream and yields at most
    // `LONGEST_TOKEN`: a longer claim is corrupt before anything is allocated
    let total = usize::try_from(total)
        .ok()
        .filter(|&total| total <= (data.len() - pos) / 2 * LONGEST_TOKEN)
        .ok_or_else(|| PrestoError::Format("LZ length exceeds what its stream holds".into()))?;
    let overshoot = || PrestoError::Format("LZ stream length mismatch".into());
    let mut out = vec![0u8; total + SLACK];
    let mut len = 0;
    while len < total {
        let tag =
            *data.get(pos).ok_or_else(|| PrestoError::Format("truncated LZ stream".into()))?;
        pos += 1;
        if tag & 1 == 0 {
            let n = (tag >> 1) as usize + 1;
            if n > total - len {
                return Err(overshoot());
            }
            if n <= 16 && pos + 16 <= data.len() {
                out[len..len + 16].copy_from_slice(&data[pos..pos + 16]);
            } else {
                let lits = data
                    .get(pos..pos + n)
                    .ok_or_else(|| PrestoError::Format("truncated literal run".into()))?;
                out[len..len + n].copy_from_slice(lits);
            }
            pos += n;
            len += n;
        } else {
            let n = (tag >> 1) as usize + MIN_MATCH;
            let dist = match data.get(pos) {
                Some(&byte) if byte < 0x80 => {
                    pos += 1;
                    usize::from(byte)
                }
                _ => read_varint(data, &mut pos)? as usize,
            };
            if dist == 0 || dist > len {
                return Err(PrestoError::Format("invalid match distance".into()));
            }
            if n > total - len {
                return Err(overshoot());
            }
            let start = len - dist;
            if n <= dist {
                // every byte a block is there to copy lies before `len`,
                // final before this match began, whatever else it loads
                for i in (0..n).step_by(16) {
                    out.copy_within(start + i..start + i + 16, len + i);
                }
            } else {
                // A match that overlaps itself: from `start` on the output
                // repeats with period `dist`, so each pass copies all of it
                // there is so far, doubling the next pass's stretch. (Blocks
                // here would each load across the last two stores, which the
                // CPU cannot forward.)
                let (mut at, end) = (len, len + n);
                while at < end {
                    let run = (end - at).min(at - start);
                    out.copy_within(start..start + run, at);
                    at += run;
                }
            }
            len += n;
        }
    }
    out.truncate(total);
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
        if out.len() != total {
            return Err(PrestoError::Format("overshoot".into()));
        }
        Ok(out)
    }

    /// `lz_decompress` errs exactly when the reference does, always with
    /// `Format`, and returns the reference's bytes otherwise. True when the
    /// stream decoded.
    fn agrees_with_bytewise(stream: &[u8], what: &dyn Fn() -> String) -> bool {
        match (decompress_bytewise(stream), lz_decompress(stream)) {
            (Ok(want), Ok(got)) => {
                assert!(got == want, "{}: bytes differ", what());
                true
            }
            (Err(_), Err(PrestoError::Format(_))) => false,
            (want, got) => panic!("{}: reference {want:?}, decoder {got:?}", what()),
        }
    }

    /// Every period 1–16 and every match length up to the longest a token
    /// holds, copied both from within reach (`dist >= len`) and overlapping
    /// its own output, from hand-built streams and from the compressors.
    #[test]
    fn matches_of_every_period_and_length_decode_as_bytewise_copies() {
        assert_eq!(LONGEST_TOKEN, 131);
        for period in 1..=16usize {
            let seed: Vec<u8> = (0..period).map(|i| (i * 37 + period) as u8).collect();
            for len in MIN_MATCH..=LONGEST_TOKEN {
                // the seed, then one match `period` back (overlapping
                // whenever len > period), then one from before the seed's
                // repeat at a distance ≥ len (never overlapping)
                let mut stream = Vec::new();
                let total = period + len + len;
                write_varint(&mut stream, total as u64);
                emit_literals(&mut stream, &seed);
                emit_match(&mut stream, len, period);
                emit_match(&mut stream, len, len);
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
            emit_match(&mut stream, 7, dist);
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
        emit_match(&mut short, 7, 1);
        assert!(format(&short));
        let mut long = vec![5];
        emit_literals(&mut long, b"ab");
        emit_match(&mut long, 40, 2);
        assert!(format(&long));
        // a length past what the stream's tokens could yield is rejected
        // before anything is allocated ...
        let mut huge = Vec::new();
        write_varint(&mut huge, u64::MAX >> 1);
        emit_literals(&mut huge, b"abc");
        assert!(format(&huge));
        // ... but the densest stream there is, two-byte tokens of the
        // longest match, decodes
        let mut dense = Vec::new();
        write_varint(&mut dense, 1 + 64 * LONGEST_TOKEN as u64);
        emit_literals(&mut dense, b"a");
        for _ in 0..64 {
            emit_match(&mut dense, LONGEST_TOKEN, 1);
        }
        assert_eq!(lz_decompress(&dense).unwrap(), vec![b'a'; 1 + 64 * LONGEST_TOKEN]);
    }

    /// A varint reaches 64 bits and no further: its 10th byte may hold bit
    /// 63 and nothing else.
    #[test]
    fn varints_past_64_bits_are_format_errors() {
        let ten = |last: u8| [[0xff; 9].as_slice(), &[last]].concat();
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX);
        assert_eq!(max, ten(0x01));
        assert_eq!(read_varint(&max, &mut 0).unwrap(), u64::MAX);
        for last in [0x02, 0x7f, 0x81] {
            let err = read_varint(&ten(last), &mut 0).unwrap_err();
            assert!(matches!(err, PrestoError::Format(_)), "10th byte {last:#x}: {err}");
            // ... as a page length, and as a match distance
            let mut length = ten(last);
            emit_literals(&mut length, b"abcd");
            assert!(matches!(lz_decompress(&length), Err(PrestoError::Format(_))));
            let mut distance = vec![8];
            emit_literals(&mut distance, b"abcd");
            distance.push(1);
            distance.extend_from_slice(&ten(last));
            assert!(matches!(lz_decompress(&distance), Err(PrestoError::Format(_))));
        }
    }

    /// Every literal length, and matches of every length at distances on
    /// both sides of the 16-byte block width (so each overlapping itself and
    /// not), each ending 0–31 bytes
    /// before the end of the output (a literal follows) and of the input
    /// (bytes past the page's end follow): where the block copies reach into
    /// the slack, and where the stream has fewer than 16 bytes left.
    #[test]
    fn tokens_ending_at_every_slack_edge_decode_as_bytewise() {
        let bytes: Vec<u8> =
            (0..200u32).map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8).collect();
        let (seed, fill) = bytes.split_at(40);
        let mut lasts: Vec<(usize, Vec<u8>)> = (1..=MAX_RUN)
            .map(|n| {
                let mut token = Vec::new();
                emit_literals(&mut token, &fill[..n]);
                (n, token)
            })
            .collect();
        for dist in [1, 3, 7, 8, 9, 15, 16, 17, 40] {
            for len in MIN_MATCH..=LONGEST_TOKEN {
                let mut token = Vec::new();
                emit_match(&mut token, len, dist);
                lasts.push((len, token));
            }
        }
        for (len, last) in &lasts {
            for edge in 0..32 {
                for (tail, past_end) in [(edge, 0), (0, edge)] {
                    let mut stream = Vec::new();
                    write_varint(&mut stream, (seed.len() + len + tail) as u64);
                    emit_literals(&mut stream, seed);
                    stream.extend_from_slice(last);
                    emit_literals(&mut stream, &fill[..tail]);
                    stream.extend_from_slice(&fill[..past_end]);
                    let what = || format!("{last:?} then {tail} bytes, {past_end} past the end");
                    assert!(agrees_with_bytewise(&stream, &what), "{}", what());
                }
            }
        }
    }

    /// A file of the lake's trips shape in 16 row groups of `group_rows`:
    /// high-entropy uuids, ids, durations, timestamps and map values beside
    /// dictionary-encoded columns, flat and nested.
    fn trips_shaped_file(codec: Codec, group_rows: usize) -> Vec<u8> {
        use crate::writer::{FileWriter, WriterMode, WriterProperties};
        use presto_common::{Block, DataType, Field, Page, Schema};
        let rows = 16 * group_rows;
        let strings =
            |f: &dyn Fn(usize) -> String| Block::varchar(&(0..rows).map(f).collect::<Vec<_>>());
        let bigints = |f: &dyn Fn(usize) -> i64| Block::bigint((0..rows).map(f).collect());
        let schema = Schema::new(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new("client_uuid", DataType::Varchar),
            Field::new("city_id", DataType::Bigint),
            Field::new("vehicle_id", DataType::Bigint),
            Field::new("status", DataType::Varchar),
            Field::new("fare", DataType::Double),
            Field::new("duration_s", DataType::Bigint),
            Field::new("request_ts", DataType::Timestamp),
            Field::new("tags", DataType::array(DataType::Varchar)),
            Field::new("features", DataType::map(DataType::Varchar, DataType::Double)),
        ])
        .unwrap();
        let page = Page::new(vec![
            strings(&|i| format!("driver-{:06}", i % 5000)),
            strings(&|i| format!("client-{:06}", i % 20_000)),
            bigints(&|i| (i * 48 / rows) as i64),
            bigints(&|i| (i % 3000) as i64),
            strings(&|i| ["completed", "canceled", "arrived"][i % 3].to_string()),
            Block::double((0..rows).map(|i| 5.0 + (i % 80) as f64 * 0.5).collect()),
            bigints(&|i| 300 + (i % 3600) as i64),
            Block::Timestamp { values: (0..rows).map(|i| i as i64 * 1000).collect(), nulls: None },
            Block::Array {
                element_type: DataType::Varchar,
                offsets: (0..=rows as u32).collect(),
                elements: Box::new(strings(&|i| format!("tag{}", i % 3))),
                nulls: None,
            },
            Block::Map {
                key_type: DataType::Varchar,
                value_type: DataType::Double,
                offsets: (0..=rows as u32).map(|i| i * 2).collect(),
                keys: Box::new(Block::varchar(&["eta_error", "route_score"].repeat(rows))),
                values: Box::new(Block::double(
                    (0..rows).flat_map(|i| [(i % 9) as f64, (i % 17) as f64]).collect(),
                )),
                nulls: None,
            },
        ])
        .unwrap();
        let properties = WriterProperties { codec, row_group_rows: group_rows };
        let mut writer = FileWriter::new(schema, properties, WriterMode::Native).unwrap();
        writer.write_page(&page).unwrap();
        writer.finish().unwrap()
    }

    /// Each compressed page (data and dictionary) of every leaf chunk.
    fn pages_of(file: &[u8]) -> Vec<(String, Vec<u8>)> {
        let source = crate::reader::BytesSource::new(file.to_vec());
        let meta = crate::reader::read_metadata(&source).unwrap();
        assert_eq!(meta.row_groups.len(), 16);
        let mut pages = Vec::new();
        for (group, row_group) in meta.row_groups.iter().enumerate() {
            for chunk in &row_group.columns {
                for (offset, len) in
                    [Some(chunk.data_page), chunk.dictionary_page].into_iter().flatten()
                {
                    let what = format!("group {group}, leaf {}, at {offset}", chunk.leaf_index);
                    pages.push((what, file[offset as usize..(offset + len) as usize].to_vec()));
                }
            }
        }
        pages
    }

    fn trips_pages_decode_as_bytewise(group_rows: usize) {
        for codec in [Codec::Fast, Codec::Deep] {
            for (what, page) in pages_of(&trips_shaped_file(codec, group_rows)) {
                let what = || format!("{codec:?}, {what}");
                assert!(agrees_with_bytewise(&page, &what), "{}", what());
            }
        }
    }

    #[test]
    fn every_page_of_a_trips_shaped_file_decodes_as_bytewise() {
        trips_pages_decode_as_bytewise(256);
    }

    #[test]
    #[ignore = "release soak: `cargo test --release -p presto-parquet -- --ignored`"]
    fn every_page_of_a_full_size_trips_shaped_file_decodes_as_bytewise() {
        trips_pages_decode_as_bytewise(3750);
    }

    /// `page` cut at every byte, and with every byte flipped three ways.
    fn damaged_pages_fail_where_bytewise_does(page: &[u8]) {
        for cut in 0..page.len() {
            agrees_with_bytewise(&page[..cut], &|| format!("cut at {cut}"));
        }
        let mut flipped = page.to_vec();
        for at in 0..page.len() {
            for mask in [0x01, 0x80, 0xff] {
                flipped[at] ^= mask;
                agrees_with_bytewise(&flipped, &|| format!("byte {at} ^ {mask:#x}"));
                flipped[at] ^= mask;
            }
        }
    }

    /// The first uuid page of a trips-shaped file: literals and matches of
    /// every kind, one-byte and two-byte distances.
    fn uuid_page(codec: Codec, group_rows: usize) -> Vec<u8> {
        let file = trips_shaped_file(codec, group_rows);
        pages_of(&file).swap_remove(0).1
    }

    #[test]
    fn damaged_small_pages_fail_where_bytewise_does() {
        for codec in [Codec::Fast, Codec::Deep] {
            damaged_pages_fail_where_bytewise_does(&uuid_page(codec, 48));
        }
    }

    #[test]
    #[ignore = "release soak: `cargo test --release -p presto-parquet -- --ignored`"]
    fn damaged_full_size_pages_fail_where_bytewise_does() {
        for codec in [Codec::Fast, Codec::Deep] {
            damaged_pages_fail_where_bytewise_does(&uuid_page(codec, 3750));
        }
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

    /// `len` xorshift pseudo-random bytes from `seed` (not 0) — nearly
    /// incompressible.
    fn noise(mut x: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xff) as u8
            })
            .collect()
    }

    /// Noise round-trips, and where nothing matches both codecs write the
    /// literal framing and no more: a tag per 128 bytes and the length varint.
    #[test]
    fn round_trips_pseudorandom_input() {
        for len in [1, 127, 128, 129, 5_000, 20_000, 100_000] {
            let data = noise(0x1234_5678 + len as u64, len);
            for codec in [Codec::Fast, Codec::Deep] {
                round_trip(codec, &data);
                let packed = codec.compress(&data).len();
                let bound = len + len.div_ceil(MAX_RUN) + 10;
                assert!(packed <= bound, "{codec:?}: {len} bytes packed into {packed}");
            }
        }
    }

    /// `pages` compressed in turn through one set of tables, once from
    /// empty tables and then on from `base`, each against the same page
    /// compressed with fresh tables: what earlier pages left in the tables
    /// must not change a byte.
    fn streams_do_not_depend_on_history(codec: Codec, pages: &[Vec<u8>], base: u32) {
        let mut tables = MatchTables::default();
        for pass in 0..2 {
            if pass == 1 {
                tables.base = base;
            }
            for (i, page) in pages.iter().enumerate() {
                let mut stream = Vec::new();
                codec.compress_into(page, &mut tables, &mut stream);
                assert!(
                    stream == codec.compress(page),
                    "{codec:?}, pass {pass}, page {i} of {} bytes, tables from base {base:#x}",
                    page.len()
                );
                assert_eq!(codec.decompress(stream).unwrap(), *page);
            }
        }
    }

    /// Noise, long runs, short periods and trips-shaped files: pages that
    /// meet the entries of pages like them and unlike them.
    fn history_pages() -> Vec<Vec<u8>> {
        let periodic =
            |period: usize, len: usize| noise(0xFACE + period as u64, period).repeat(len / period);
        vec![
            noise(0x0DD5, 20_000),
            vec![7u8; 30_000],
            periodic(3, 9_000),
            trips_shaped_file(Codec::None, 48),
            noise(0x0DD6, 300),
            periodic(7, 40_000),
            [noise(0x0DD7, 5_000), vec![0u8; 5_000], noise(0x0DD7, 5_000)].concat(),
            periodic(2, 12),
            trips_shaped_file(Codec::None, 16),
        ]
    }

    /// A page's stream is the one fresh tables give it, whatever the tables
    /// held before: the pages once more after them, from where they left
    /// off, from a `base` a little below the `u32` wrap (some page in the
    /// sequence starts the tables over, which still hold the first pass's
    /// entries from the bottom of the range), from one that puts a page's
    /// last entry on `u32::MAX` exactly (the next starts over), and from the
    /// wrap itself (the first starts over).
    #[test]
    fn a_pages_stream_does_not_depend_on_the_match_tables_history() {
        let pages = history_pages();
        let total: usize = pages.iter().map(Vec::len).sum();
        let first_four: usize = pages[..4].iter().map(Vec::len).sum();
        let below = |n: usize| u32::MAX - u32::try_from(n).unwrap();
        for codec in [Codec::Fast, Codec::Deep] {
            for base in [total as u32, below(total / 2), below(first_four), u32::MAX] {
                streams_do_not_depend_on_history(codec, &pages, base);
            }
        }
    }

    /// `(output offset, length, match distance)` of each token of a stream;
    /// a literal run has no distance.
    fn tokens(stream: &[u8]) -> Vec<(usize, usize, Option<usize>)> {
        let mut pos = 0;
        let total = read_varint(stream, &mut pos).unwrap() as usize;
        let (mut at, mut tokens) = (0, Vec::new());
        while at < total {
            let tag = stream[pos];
            pos += 1;
            let token = if tag & 1 == 0 {
                let n = (tag >> 1) as usize + 1;
                pos += n;
                (at, n, None)
            } else {
                let dist = read_varint(stream, &mut pos).unwrap() as usize;
                (at, (tag >> 1) as usize + MIN_MATCH, Some(dist))
            };
            at += token.1;
            tokens.push(token);
        }
        tokens
    }

    /// 8 KB of noise, a 2 KB phrase, 16 KB of noise, the phrase again.
    /// Through the noise `Deep` searches ever fewer positions, yet its first
    /// search in the second copy is the one the skip rule puts there —
    /// counting the streak from the first copy's last match, so a match ended
    /// the streak — at most one stride late, and from there the copy is
    /// matches.
    #[test]
    fn deep_finds_a_repeat_after_noise_within_one_skip_stride() {
        // the phrase repeats itself, so that its first copy ends on matches
        let phrase = noise(0x5EED_0003, 1 << 10).repeat(2);
        let data =
            [noise(0x5EED_0001, 8 << 10), phrase.clone(), noise(0x5EED_0002, 16 << 10), phrase]
                .concat();
        let second = data.len() - (2 << 10);
        let stream = Codec::Deep.compress(&data);
        assert_eq!(lz_decompress(&stream).unwrap(), data);
        let (before, after): (Vec<_>, Vec<_>) =
            tokens(&stream).into_iter().partition(|t| t.0 < second);
        let (at, len, _) = *before.iter().rfind(|t| t.2.is_some()).unwrap();
        assert!(at >= 8 << 10, "the streak before the second copy starts in the first");
        let (mut searched, mut misses) = (at + len, 0);
        while searched < second {
            misses += 1;
            searched += 1 + (misses >> SKIP_SHIFT);
        }
        let stride = 1 + (misses >> SKIP_SHIFT);
        assert!(stride > 1, "the noise is long enough to skip");
        let first = after.iter().find(|t| t.2.is_some()).unwrap().0;
        assert!(first < second + stride, "first match at {first}, second copy at {second}");
        assert_eq!(first, searched);
        let literals: usize =
            after.iter().filter(|t| t.2.is_none() && t.0 > first).map(|t| t.1).sum();
        assert!(literals < MIN_MATCH, "{literals} literal bytes after the first match");
    }

    /// 8 KB of noise, 64 zeros, a 32-byte phrase, 4 KB of noise, the phrase
    /// again. The zeros end on a match, so `Fast` then searches each of the
    /// phrase's 32 positions and enters every one; through the noise that
    /// follows it searches ever fewer, yet its first search in the second
    /// copy — the one the skip rule puts there, counting the streak from the
    /// zeros' match, so at most one stride late — finds the first copy, and
    /// the catch-up carries the match back to the copy's first byte.
    #[test]
    fn fast_finds_a_repeat_after_noise_within_one_skip_stride() {
        let phrase = noise(0x5EED_0013, 32);
        let data =
            [noise(0x5EED_0011, 8 << 10), vec![0; 64], phrase.clone(), noise(0x5EED_0012, 4 << 10)]
                .concat();
        let (first_copy, second) = ((8 << 10) + 64, data.len());
        let data = [data, phrase].concat();
        let stream = Codec::Fast.compress(&data);
        assert_eq!(lz_decompress(&stream).unwrap(), data);
        let (before, after): (Vec<_>, Vec<_>) =
            tokens(&stream).into_iter().partition(|t| t.0 < second);
        let (at, len, _) = *before.iter().rfind(|t| t.2.is_some()).unwrap();
        assert_eq!(at + len, first_copy, "the streak before the second copy starts at the first");
        let (mut searched, mut misses) = (first_copy, 0);
        while searched < second {
            misses += 1;
            searched += 1 + (misses >> SKIP_SHIFT);
        }
        let stride = 1 + (misses >> SKIP_SHIFT);
        assert!(stride > 1, "the noise is long enough to skip");
        assert!(searched + MIN_MATCH <= data.len(), "the search lands inside the second copy");
        // the second copy is one match, of the first
        assert_eq!(after, [(second, 32, Some(second - first_copy))]);
    }

    /// 2 KB of noise, its first 100 bytes again, 2 KB of other noise. The
    /// tables `Fast` leaves hold exactly the positions the skip rule searches
    /// (each entered where it was searched) and, of the one match, its last
    /// two positions: the head table is rebuilt here from that rule alone.
    #[test]
    fn fast_enters_the_positions_it_searches_and_a_matchs_last_two() {
        let data =
            [noise(0x5EED_0021, 2 << 10), noise(0x5EED_0021, 100), noise(0x5EED_0022, 2 << 10)]
                .concat();
        let (copy, hashable) = (2 << 10, data.len() - (MIN_MATCH - 1));
        // the positions searched from `from` until one reaches `to`
        let search = |from: usize, to: usize| {
            let (mut searched, mut pos, mut misses) = (Vec::new(), from, 0);
            while pos < to {
                searched.push(pos);
                misses += 1;
                pos += 1 + (misses >> SKIP_SHIFT);
            }
            (searched, pos)
        };
        let (mut entered, hit) = search(0, copy);
        assert!(hit > copy, "the copy is found past its first byte, then caught up");
        entered.push(hit);
        entered.extend([copy + 98, copy + 99]);
        entered.extend(search(copy + 100, hashable).0);
        let mut want = vec![0u32; HASH_SIZE];
        for &p in &entered {
            want[hash4(word4(&data, p))] = 1 + p as u32;
        }

        let (mut tables, mut stream) = (MatchTables::default(), Vec::new());
        Codec::Fast.compress_into(&data, &mut tables, &mut stream);
        let matches: Vec<_> = tokens(&stream).into_iter().filter(|t| t.2.is_some()).collect();
        assert_eq!(matches, [(copy, 100, Some(copy))]);
        assert!(tables.head == want, "the head table holds other positions");
    }

    /// Where a page's entries would wrap `u32`, the tables start over: after
    /// a page of 20 KB, one of 5 KB from a `base` just below the wrap leaves
    /// only its own entries behind (`1..=5000`), in the head and the chain.
    #[test]
    fn the_tables_start_over_where_positions_would_wrap() {
        for codec in [Codec::Fast, Codec::Deep] {
            let mut tables = MatchTables::default();
            codec.compress_into(&noise(0x0DD8, 20_000), &mut tables, &mut Vec::new());
            assert!(tables.head.iter().any(|&at| at > 5_000));
            tables.base = u32::MAX - 100;
            codec.compress_into(&noise(0x0DD9, 5_000), &mut tables, &mut Vec::new());
            let stale = tables.head.iter().chain(&tables.chain).find(|&&at| at > 5_000);
            assert_eq!(stale, None, "{codec:?}");
            assert_eq!(tables.base, 5_000);
        }
    }

    /// xorshift64*: the soak's choices.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Eight different 4-byte words that share one head slot.
    fn colliding_words() -> Vec<[u8; 4]> {
        let words = (1..).map(|i: u32| i.wrapping_mul(0x0100_0193) ^ 0x5A5A_5A5A);
        let slot = hash4(0x5A5A_5A5A ^ 0x0100_0193);
        words.filter(|&w| hash4(w) == slot).take(8).map(u32::to_le_bytes).collect()
    }

    /// One input of the soak: noise and runs, a short period, words that
    /// collide in the head table, a length at a token or search edge, or a
    /// phrase repeated at the window's edge.
    fn soak_input(rng: &mut Rng, collisions: &[[u8; 4]]) -> Vec<u8> {
        let mut data = Vec::new();
        match rng.below(5) {
            0 => {
                for _ in 0..1 + rng.below(8) {
                    let len = rng.below(400);
                    if rng.below(2) == 0 {
                        data.extend(noise(rng.next() | 1, len));
                    } else {
                        data.extend(std::iter::repeat_n(rng.next() as u8, len));
                    }
                }
            }
            1 => {
                let period = 1 + rng.below(9);
                let cycle = noise(rng.next() | 1, period);
                data.extend(cycle.iter().cycle().take(rng.below(3_000)));
                // now and then a byte out of step
                if !data.is_empty() && rng.below(2) == 0 {
                    let at = rng.below(data.len());
                    data[at] ^= 0x40;
                }
            }
            2 => {
                for _ in 0..rng.below(600) {
                    data.extend(collisions[rng.below(collisions.len())]);
                }
            }
            3 => {
                let edges = [MIN_MATCH + 4, MAX_RUN, LONGEST_TOKEN];
                let len = edges[rng.below(edges.len())] + rng.below(3) - 1;
                let period = 1 + rng.below(len);
                data.extend(noise(rng.next() | 1, period).iter().cycle().take(len));
            }
            _ => {
                let phrase = noise(rng.next() | 1, MIN_MATCH + rng.below(60));
                let dist = MAX_DIST - 1 + rng.below(3);
                data.extend(&phrase);
                data.extend(noise(rng.next() | 1, dist - phrase.len()));
                data.extend(&phrase);
            }
        }
        data
    }

    /// 10k seeded inputs through both codecs, each over one set of tables
    /// that is never reset (its `base` now and then moved just below the
    /// wrap): every stream decodes to its input and is the stream fresh
    /// tables give it.
    #[test]
    #[ignore = "release soak: `cargo test --release -p presto-parquet -- --ignored`"]
    fn seeded_inputs_round_trip_over_reused_tables() {
        let collisions = colliding_words();
        assert_eq!(collisions.len(), 8);
        let mut rng = Rng(0x50A4_C0DE);
        let mut tables = [MatchTables::default(), MatchTables::default()];
        for seed in 0..10_000 {
            let input = soak_input(&mut rng, &collisions);
            for (codec, tables) in [Codec::Fast, Codec::Deep].into_iter().zip(&mut tables) {
                if rng.below(300) == 0 {
                    tables.base = u32::MAX - rng.below(200_000) as u32;
                }
                let mut stream = Vec::new();
                codec.compress_into(&input, tables, &mut stream);
                let what = || format!("{codec:?}, input {seed} of {} bytes", input.len());
                assert!(stream == codec.compress(&input), "{}: history moved the stream", what());
                assert!(lz_decompress(&stream).unwrap() == input, "{}: round trip", what());
                let farthest = tokens(&stream).into_iter().filter_map(|t| t.2).max();
                assert!(farthest.unwrap_or(0) <= MAX_DIST, "{}: a match {farthest:?} back", what());
            }
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
