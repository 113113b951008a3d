//! The workspace's one dictionary rule: a column is worth dictionary
//! encoding when its values hold at most [`MAX_DICTIONARY_ENTRIES`]
//! distinct values and at most half as many as there are values. The
//! Parquet writer decides each column chunk by it, and the memory connector
//! each VARCHAR column of a page it stores.

/// Upper bound on dictionary entries per column chunk or page.
pub const MAX_DICTIONARY_ENTRIES: usize = 1024;

/// Multiplier of the dictionary table's multiplicative hash (2^64 / φ).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A hash of `bytes`, folded eight at a time: what
/// [`DictionaryBuilder::assign_strings`] files a long string under, and,
/// mixed once more, the executor's key tables.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    let mut mix = |word: u64| h = (h ^ word).wrapping_mul(MIX).rotate_left(29);
    let mut words = bytes.chunks_exact(8);
    for word in words.by_ref() {
        mix(u64::from_le_bytes(word.try_into().unwrap_or_default()));
    }
    mix(words.remainder().iter().fold(0, |w, &b| (w << 8) | u64::from(b)));
    h
}

/// The string `bytes[start..end]`, when it is at most 7 bytes, as one word:
/// its bytes zero-padded, then its length in the top byte — so `"a"` and
/// `"a\0"` differ. Read as one load and a mask where the payload allows.
pub fn short_word(bytes: &[u8], start: usize, end: usize) -> Option<u64> {
    let len = end - start;
    if len > 7 {
        return None;
    }
    let low = match bytes.get(start..start + 8) {
        Some(eight) => {
            let word = u64::from_le_bytes(<[u8; 8]>::try_from(eight).unwrap_or_default());
            word & ((1 << (8 * len)) - 1)
        }
        None => bytes[start..end].iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b)),
    };
    Some(low | (len as u64) << 56)
}

/// A string as a dictionary key: one word when it packs ([`short_word`]),
/// else its bytes.
#[derive(Clone, Copy, PartialEq)]
enum Text<'a> {
    Short(u64),
    Long(&'a [u8]),
}

/// Assigns dictionary ids to a column's values in first-seen order, through
/// one open-addressed table over keys borrowed from the column — an `i32`,
/// an `i64` or a byte slice; nothing is copied per distinct value. The hash
/// is not keyed: the table never holds more than the dictionary cut-off, so
/// crafted collisions cost at most that many probes per value. A builder is
/// reused: each build clears what the last one left.
#[derive(Default)]
pub struct DictionaryBuilder {
    /// Open-addressed slots: 0 for empty, else a dictionary id + 1.
    table: Vec<u32>,
    /// Per dictionary id, the index of the value that introduced it.
    firsts: Vec<usize>,
    /// Per value, its dictionary id.
    ids: Vec<u32>,
}

impl DictionaryBuilder {
    /// Build a dictionary over the `n` values `key(0..n)`, hashed by `hash`,
    /// when it pays: at least 8 values, at most [`MAX_DICTIONARY_ENTRIES`]
    /// distinct, and at most half as many distinct as values. The build
    /// stops at the first value past either cut-off. True when it passes,
    /// with [`firsts`](Self::firsts) and [`ids`](Self::ids) filled.
    pub fn assign<K: Copy + PartialEq>(
        &mut self,
        n: usize,
        key: impl Fn(usize) -> K,
        hash: impl Fn(K) -> u64,
    ) -> bool {
        if n < 8 {
            return false;
        }
        // the distinct count only grows: past either cut-off the answer is no
        let limit = MAX_DICTIONARY_ENTRIES.min(n / 2);
        let slots = (2 * limit + 2).next_power_of_two();
        let shift = 64 - slots.trailing_zeros();
        self.table.clear();
        self.table.resize(slots, 0);
        self.firsts.clear();
        self.ids.clear();
        self.ids.reserve(n);
        for i in 0..n {
            let k = key(i);
            let mut slot = (hash(k).wrapping_mul(MIX) >> shift) as usize;
            let id = loop {
                match self.table[slot] {
                    0 if self.firsts.len() == limit => return false,
                    0 => {
                        self.firsts.push(i);
                        self.table[slot] = self.firsts.len() as u32;
                        break self.firsts.len() as u32 - 1;
                    }
                    id if key(self.firsts[id as usize - 1]) == k => break id - 1,
                    _ => slot = (slot + 1) & (slots - 1),
                }
            };
            self.ids.push(id);
        }
        true
    }

    /// [`assign`](Self::assign) over strings: row `r`'s is
    /// `bytes[offsets[r]..offsets[r + 1]]`, and the values are those of the
    /// rows in `rows`, or of every row. A string of at most 7 bytes is
    /// compared and hashed as one word.
    pub fn assign_strings(
        &mut self,
        offsets: &[u32],
        bytes: &[u8],
        rows: Option<&[usize]>,
    ) -> bool {
        let n = rows.map_or(offsets.len().saturating_sub(1), <[usize]>::len);
        let key = |i: usize| {
            let row = rows.map_or(i, |rows| rows[i]);
            let (start, end) = (offsets[row] as usize, offsets[row + 1] as usize);
            match short_word(bytes, start, end) {
                Some(word) => Text::Short(word),
                None => Text::Long(&bytes[start..end]),
            }
        };
        let hash = |text| match text {
            Text::Short(word) => word,
            Text::Long(string) => hash_bytes(string),
        };
        self.assign(n, key, hash)
    }

    /// Per dictionary id, the index of the value that introduced it.
    pub fn firsts(&self) -> &[usize] {
        &self.firsts
    }

    /// Per value, its dictionary id.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(values: &[i64]) -> Option<(Vec<usize>, Vec<u32>)> {
        let mut builder = DictionaryBuilder::default();
        let built = builder.assign(values.len(), |i| values[i], |v| v as u64);
        built.then(|| (builder.firsts().to_vec(), builder.ids().to_vec()))
    }

    #[test]
    fn ids_are_first_seen_and_the_cut_offs_hold() {
        let (firsts, ids) = build(&[5, 3, 5, 5, 3, 9, 3, 5]).unwrap();
        assert_eq!(firsts, [0, 1, 5]);
        assert_eq!(ids, [0, 1, 0, 0, 1, 2, 1, 0]);
        // fewer than 8 values, or more distinct than half of them: no
        assert_eq!(build(&[1, 1, 1, 1, 1, 1, 1]), None);
        assert!(build(&[0, 1, 2, 3, 0, 1, 2, 3]).is_some());
        assert_eq!(build(&[0, 1, 2, 3, 4, 1, 2, 3]), None);
        // exactly the entry cap distinct passes, one more does not
        let capped: Vec<i64> = (0..2 * MAX_DICTIONARY_ENTRIES as i64).map(|i| i / 2).collect();
        assert!(build(&capped).is_some());
        let over: Vec<i64> = (0..4 * MAX_DICTIONARY_ENTRIES as i64 + 4).map(|i| i / 4).collect();
        assert_eq!(build(&over), None);
        // strings, short and long; a reused builder forgets the last build
        let mut builder = DictionaryBuilder::default();
        let long = "abcdefgh";
        let strings = [long, "a", long, "", "a", long, "", long, "a\0"];
        let (mut offsets, mut bytes) = (vec![0], Vec::new());
        for s in strings {
            bytes.extend_from_slice(s.as_bytes());
            offsets.push(bytes.len() as u32);
        }
        assert!(builder.assign_strings(&offsets, &bytes, None));
        assert_eq!(builder.ids(), [0, 1, 0, 2, 1, 0, 2, 0, 3]);
        let reversed: Vec<usize> = (0..8).rev().collect();
        assert!(builder.assign_strings(&offsets, &bytes, Some(&reversed)));
        assert_eq!(
            (builder.firsts(), builder.ids()),
            (&[0, 1, 3][..], &[0, 1, 0, 2, 1, 0, 2, 0][..])
        );
    }
}
