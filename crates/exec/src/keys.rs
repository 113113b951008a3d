//! The row-key codec every breaker shares: the key columns of a page become
//! one key per row, and a [`KeyTable`] maps each distinct key to a dense
//! `u32` id in first-seen order. Operators work on the ids — slot arrays for
//! aggregation, row chains for the hash join — never on a `Vec<Value>`.
//!
//! **Layouts.** A table is built over the key columns it will hold — a join
//! table over its build side's, a GROUP BY table over its input's — and its
//! layout is chosen from them. When every key column reads as a small
//! digit and their spans multiply to few enough slots (see Sizing), the
//! table is *dense*: each column's digit is one place of a mixed-radix
//! offset into a `Vec<u32>` of ids — no hash, no compare, no key stored. A
//! BOOLEAN, INTEGER, BIGINT, DATE or TIMESTAMP column (plain, or a
//! dictionary over one) has its value, less its smallest, as its digit. A
//! VARCHAR column beside another key column, whose every block is a
//! [`Block::Dictionary`], has its string's id as its digit: when the table
//! is built, each page's entries are interned once into one table of the
//! column's distinct strings; a page's rows then take their digits through
//! its entries, one lookup per entry and none per row. (A key that is one
//! dictionary column alone is resolved per entry already, below.) A GROUP
//! BY column that holds a NULL gets one more digit for it. Otherwise
//! BOOLEAN/INTEGER/BIGINT/DATE/TIMESTAMP/DOUBLE columns pack
//! into one word, value bits plus a NULL bit each (2, 33 or 65 bits): a
//! `u64` while they fit, else a `u128`. A VARCHAR column packs too, as a
//! 32-bit id plus its NULL bit: each column interns its strings to dense ids
//! in first-seen order, one counter per column — a string of at most 7
//! bytes packed with its length into one word and found in a word table, a
//! longer one in a byte arena. A nested column, or more than 128 bits, makes
//! the whole key bytes in one arena: per column a type tag and the value —
//! fixed-width as 8 bytes, VARCHAR length-prefixed, nested values
//! recursively with element counts. A [`Block::Dictionary`] column is
//! encoded once per dictionary entry, or interned once per entry its rows
//! use; a key that is one dictionary column is also hashed and looked up
//! once per entry its rows use.
//!
//! **Sizing.** A hashed table of `n` rows' keys would reach `2n` slots
//! rounded up to a power of two (at least 16). A table is dense exactly when
//! the product of its columns' spans is at most that slot count: an
//! integral column spans `max − min + 1`, a VARCHAR column the distinct
//! strings of its dictionaries (used by a row or not), either plus the NULL
//! digit. So a dense table is never larger than the hash table it replaces,
//! and a span or product past `u64` (checked, never wrapped) keeps the
//! table hashed; so do VARCHAR dictionaries whose entries, over all pages,
//! outnumber those slots, which bounds what building the table interns. A
//! hashed GROUP BY table starts empty and doubles from 16 slots. A hashed
//! join table is sized once from its build side's row count, an upper
//! bound on its distinct keys, and never grows.
//!
//! **Contract.** Two rows get one id exactly when their keys are equal as
//! `Vec<Value>` under `Value: Eq`: NULL equals NULL, `0.0` equals `-0.0`,
//! NaNs compare bitwise. A [`KeyTable::join`] table differs in one way: a
//! row holding a NULL or a NaN has *no* key ([`NO_KEY`]), as SQL `=` is
//! never true of either. A lookup without `insert` adds nothing, not even an
//! interned string: a string never seen, or a value outside a dense table's
//! range, gives its row [`NO_KEY`]. Every layout deals the same ids, so
//! nothing ordered by them depends on the layout. A key inserted must be one
//! of the columns the table was built over: a dense table has no slot for
//! another and fails. (Join
//! sides of different numeric width are brought to their
//! [`DataType::comparison_type`] first; group-by keys keep their own type.)
//! Hashing is a fixed multiplicative mix, so ids — and all that is ordered
//! by them — repeat on every run.

use std::borrow::Borrow;

use presto_common::block::NullMask;
use presto_common::dictionary::{hash_bytes, short_word};
use presto_common::{Block, DataType, PrestoError, Result, Value};

/// The id of a row that has no key.
pub const NO_KEY: u32 = u32::MAX;

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bits a column takes in a packed word (value + NULL flag; a VARCHAR's
/// value is its interned id); `None` for a column that needs the byte
/// layout.
fn packed_bits(data_type: &DataType) -> Option<u32> {
    match data_type {
        DataType::Boolean => Some(2),
        DataType::Integer | DataType::Date | DataType::Varchar => Some(33),
        DataType::Bigint | DataType::Timestamp | DataType::Double => Some(65),
        _ => None,
    }
}

/// The key bits of a DOUBLE: `-0.0` folds into `0.0`, NaNs stay bitwise.
fn double_bits(v: f64) -> u64 {
    f64::to_bits(if v == 0.0 { 0.0 } else { v })
}

/// One fixed-width column: its byte-layout tag, key bits per row (zero under
/// a NULL) and NULL mask; with `nan_is_null`, NaN rows join the mask. `None`
/// for a column without a fixed-width form.
fn lane(block: &Block, nan_is_null: bool) -> Option<(u8, Vec<u64>, NullMask)> {
    let wide = |values: &[i64]| values.iter().map(|&v| v as u64).collect();
    let narrow = |values: &[i32]| values.iter().map(|&v| u64::from(v as u32)).collect();
    let (tag, mut bits, mut nulls): (u8, Vec<u64>, NullMask) = match block {
        Block::Boolean { values, nulls } => {
            (1, values.iter().map(|&v| u64::from(v)).collect(), nulls.clone())
        }
        Block::Bigint { values, nulls } => (2, wide(values), nulls.clone()),
        Block::Integer { values, nulls } => (3, narrow(values), nulls.clone()),
        Block::Double { values, nulls } => {
            let mut nulls = nulls.clone();
            if nan_is_null && values.iter().any(|v| v.is_nan()) {
                let mask = nulls.get_or_insert_with(|| vec![false; values.len()]);
                mask.iter_mut().zip(values).for_each(|(null, v)| *null |= v.is_nan());
            }
            (4, values.iter().map(|&v| double_bits(v)).collect(), nulls)
        }
        Block::Date { values, nulls } => (6, narrow(values), nulls.clone()),
        Block::Timestamp { values, nulls } => (7, wide(values), nulls.clone()),
        Block::Dictionary { dictionary, ids } => {
            let (tag, bits, nulls) = lane(dictionary, nan_is_null)?;
            let nulls = nulls.map(|n| ids.iter().map(|&i| n[i as usize]).collect());
            return Some((tag, ids.iter().map(|&i| bits[i as usize]).collect(), nulls));
        }
        _ => return None,
    };
    match nulls.as_ref().filter(|mask| mask.contains(&true)) {
        Some(mask) => bits.iter_mut().zip(mask).filter(|(_, n)| **n).for_each(|(b, _)| *b = 0),
        None => nulls = None,
    }
    Some((tag, bits, nulls))
}

fn put_fixed(out: &mut Vec<u8>, tag: u8, bits: u64) {
    out.push(tag);
    out.extend_from_slice(&bits.to_le_bytes());
}

fn put_counted(out: &mut Vec<u8>, tag: u8, count: usize) {
    out.push(tag);
    out.extend_from_slice(&(count as u32).to_le_bytes());
}

/// One value in the byte layout, with the tags and forms [`Cells::encode`]
/// writes for typed columns. Nested values recurse, so equal values (as
/// `Value: Eq`), and only those, encode to equal bytes.
fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Boolean(b) => put_fixed(out, 1, u64::from(*b)),
        Value::Bigint(x) => put_fixed(out, 2, *x as u64),
        Value::Integer(x) => put_fixed(out, 3, u64::from(*x as u32)),
        Value::Double(x) => put_fixed(out, 4, double_bits(*x)),
        Value::Varchar(s) => {
            put_counted(out, 5, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Date(x) => put_fixed(out, 6, u64::from(*x as u32)),
        Value::Timestamp(x) => put_fixed(out, 7, *x as u64),
        Value::Array(items) | Value::Row(items) => {
            put_counted(out, if matches!(v, Value::Array(_)) { 8 } else { 10 }, items.len());
            items.iter().for_each(|item| put_value(out, item));
        }
        Value::Map(entries) => {
            put_counted(out, 9, entries.len());
            for (key, value) in entries {
                put_value(out, key);
                put_value(out, value);
            }
        }
    }
}

/// One column's cells in the byte layout, encoded and hashed once per row —
/// or once per dictionary entry, rows reaching theirs through `ids`.
struct Cells<'a> {
    bytes: Vec<u8>,
    ends: Vec<u32>,
    hashes: Vec<u64>,
    ids: Option<&'a [u32]>,
}

impl<'a> Cells<'a> {
    fn encode(block: &'a Block, nan_is_null: bool) -> Cells<'a> {
        if let Block::Dictionary { dictionary, ids } = block {
            if !matches!(**dictionary, Block::Dictionary { .. }) {
                return Cells { ids: Some(ids), ..Cells::encode(dictionary, nan_is_null) };
            }
        }
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(block.len());
        if let Some((tag, bits, nulls)) = lane(block, nan_is_null) {
            for (i, &b) in bits.iter().enumerate() {
                match nulls.as_ref().is_some_and(|n| n[i]) {
                    true => bytes.push(0),
                    false => put_fixed(&mut bytes, tag, b),
                }
                ends.push(bytes.len() as u32);
            }
        } else if let Block::Varchar { offsets, bytes: payload, nulls } = block {
            for (i, w) in offsets.windows(2).enumerate() {
                if nulls.as_ref().is_some_and(|n| n[i]) {
                    bytes.push(0);
                } else {
                    put_counted(&mut bytes, 5, (w[1] - w[0]) as usize);
                    bytes.extend_from_slice(&payload[w[0] as usize..w[1] as usize]);
                }
                ends.push(bytes.len() as u32);
            }
        } else {
            for i in 0..block.len() {
                put_value(&mut bytes, &block.value(i));
                ends.push(bytes.len() as u32);
            }
        }
        let starts = std::iter::once(&0).chain(&ends);
        let hashes = starts
            .zip(&ends)
            .map(|(&s, &e)| hash_bytes(&bytes[s as usize..e as usize]).wrapping_mul(MIX));
        Cells { hashes: hashes.collect(), bytes, ends, ids: None }
    }

    /// The cell of `row` and its hash.
    fn cell(&self, row: usize) -> (&[u8], u64) {
        let i = self.ids.map_or(row, |ids| ids[row] as usize);
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        (&self.bytes[start..self.ends[i] as usize], self.hashes[i])
    }
}

/// Open-addressed slots holding key ids, at most half full.
#[derive(Default)]
struct Slots(Vec<u32>);

impl Slots {
    /// How many slots take `keys` keys without growing.
    fn count(keys: usize) -> usize {
        match keys {
            0 => 0,
            n => (2 * n).next_power_of_two().max(16),
        }
    }

    /// Slots that take `keys` keys without growing.
    fn sized(keys: usize) -> Slots {
        Slots(vec![NO_KEY; Slots::count(keys)])
    }

    /// The id of the key `is_key` recognises among those hashing like
    /// `hash`, or the empty slot where it belongs.
    fn probe(&self, hash: u64, is_key: impl Fn(u32) -> bool) -> std::result::Result<u32, usize> {
        if self.0.is_empty() {
            return Err(0);
        }
        let mask = self.0.len() - 1;
        let mut slot = (hash >> 32) as usize & mask;
        loop {
            match self.0[slot] {
                NO_KEY => return Err(slot),
                id if is_key(id) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The id of the key `is_key` recognises. A key not among the
    /// `hashes.len()` present is filed under the next id when `insert` is
    /// set (the caller then stores it) and is [`NO_KEY`] otherwise. Slots
    /// not [`Slots::sized`] double from 16 — a table costs nothing until it
    /// holds a key.
    fn resolve(
        &mut self,
        hash: u64,
        is_key: impl Fn(u32) -> bool,
        insert: bool,
        hashes: impl ExactSizeIterator<Item = u64>,
    ) -> u32 {
        let next_id = hashes.len() as u32;
        if insert && (hashes.len() + 1) * 2 > self.0.len() {
            self.0 = vec![NO_KEY; (self.0.len() * 2).max(16)];
            for (id, hash) in hashes.enumerate() {
                if let Err(slot) = self.probe(hash, |_| false) {
                    self.0[slot] = id as u32;
                }
            }
        }
        match self.probe(hash, is_key) {
            Ok(id) => id,
            Err(slot) if insert => {
                self.0[slot] = next_id;
                next_id
            }
            Err(_) => NO_KEY,
        }
    }
}

/// A packed key word.
trait Word: Copy + Eq + Default {
    fn field(bits: u64, shift: u32) -> Self;
    fn merge(&mut self, other: Self);
    fn mix(self) -> u64;
}

impl Word for u64 {
    fn field(bits: u64, shift: u32) -> u64 {
        bits << shift
    }
    fn merge(&mut self, other: u64) {
        *self |= other;
    }
    fn mix(self) -> u64 {
        (self ^ (self >> 32)).wrapping_mul(MIX)
    }
}

impl Word for u128 {
    fn field(bits: u64, shift: u32) -> u128 {
        u128::from(bits) << shift
    }
    fn merge(&mut self, other: u128) {
        *self |= other;
    }
    fn mix(self) -> u64 {
        ((self as u64) ^ ((self >> 64) as u64).wrapping_mul(MIX).rotate_left(31)).mix()
    }
}

/// The distinct keys of one layout, by id.
trait Keys {
    fn len(&self) -> usize;
    /// Make room for `keys` distinct keys, so that holding them never grows
    /// the table.
    fn reserve(&mut self, keys: usize);
    /// Distinct strings interned, over all key columns.
    fn interned(&self) -> usize {
        0
    }
    /// Bytes allocated whole when the table is built (a dense table's slots).
    fn dense_bytes(&self) -> usize {
        0
    }
    /// The id of every row of `keys` into `ids`; `types` are the columns'.
    fn resolve(
        &mut self,
        types: &[DataType],
        keys: &[&Block],
        mode: Mode,
        ids: &mut Vec<u32>,
    ) -> Result<()>;
}

/// What a table does with a page's keys.
#[derive(Clone, Copy)]
struct Mode {
    /// Group-by: NULL and NaN are key values. Join: a row holding one has
    /// no key.
    nulls_match: bool,
    /// Give a new key the next id (else it gets [`NO_KEY`]).
    insert: bool,
}

/// Distinct packed words, by id.
#[derive(Default)]
struct Words<W> {
    keys: Vec<W>,
    slots: Slots,
}

impl<W: Word> Words<W> {
    /// The id of `word`. A new word gets the next id with `insert`, else
    /// [`NO_KEY`].
    fn find(&mut self, word: W, insert: bool) -> u32 {
        let (keys, hashes) = (&self.keys, self.keys.iter().map(|k| k.mix()));
        let id = self.slots.resolve(word.mix(), |id| keys[id as usize] == word, insert, hashes);
        if id as usize == self.keys.len() {
            self.keys.push(word);
        }
        id
    }
}

/// Row keys packed into words: fixed-width lanes and interned VARCHAR ids.
struct Packed<W> {
    words: Words<W>,
    /// One per key column; only a VARCHAR column's ever holds a string.
    interners: Vec<Interner>,
}

impl<W: Word> Packed<W> {
    fn new(columns: usize) -> Packed<W> {
        let interners = std::iter::repeat_with(Interner::default).take(columns).collect();
        Packed { words: Words::default(), interners }
    }
}

impl<W: Word> Keys for Packed<W> {
    fn len(&self) -> usize {
        self.words.keys.len()
    }

    fn reserve(&mut self, keys: usize) {
        self.words.keys.reserve_exact(keys);
        self.words.slots = Slots::sized(keys);
    }

    fn interned(&self) -> usize {
        self.interners.iter().map(Interner::len).sum()
    }

    /// Pack the columns into words a column at a time, then probe per row.
    fn resolve(
        &mut self,
        types: &[DataType],
        keys: &[&Block],
        mode: Mode,
        ids: &mut Vec<u32>,
    ) -> Result<()> {
        let rows = keys.first().map_or(0, |block| block.len());
        let mut words = vec![W::default(); rows];
        let mut keyless = vec![false; rows];
        let mut shift = 0;
        for ((block, data_type), interner) in keys.iter().zip(types).zip(&mut self.interners) {
            let value_bits = packed_bits(data_type).unwrap_or(65) - 1;
            let (bits, nulls) = match data_type {
                DataType::Varchar => interner.lane(block, mode.insert, &mut keyless),
                _ => match lane(block, !mode.nulls_match) {
                    Some((_, bits, nulls)) => (bits, nulls),
                    None => continue,
                },
            };
            words.iter_mut().zip(&bits).for_each(|(w, &b)| w.merge(W::field(b, shift)));
            for (row, _) in nulls.iter().flatten().enumerate().filter(|(_, null)| **null) {
                words[row].merge(W::field(1, shift + value_bits));
                keyless[row] |= !mode.nulls_match;
            }
            shift += value_bits + 1;
        }
        let found = words.iter().zip(&keyless).map(|(&word, &keyless)| match keyless {
            true => NO_KEY,
            false => self.words.find(word, mode.insert),
        });
        ids.extend(found);
        Ok(())
    }
}

/// One VARCHAR key column's distinct strings → dense `u32` ids in
/// first-seen order. Short strings ([`short_word`]) and long ones (a byte
/// arena) are found in tables of their own but take their ids from one
/// counter, so no two strings share an id.
#[derive(Default)]
struct Interner {
    short: Words<u64>,
    long: ByteKeys,
    /// The id of each string in `short` / `long`, by its position there.
    short_ids: Vec<u32>,
    long_ids: Vec<u32>,
}

impl Interner {
    fn len(&self) -> usize {
        self.short_ids.len() + self.long_ids.len()
    }

    /// The id of the string `bytes[start..end]`. A new string gets the next
    /// id with `insert`, else [`NO_KEY`].
    fn id(&mut self, bytes: &[u8], start: usize, end: usize, insert: bool) -> u32 {
        let next = self.len() as u32;
        let (at, ids) = match short_word(bytes, start, end) {
            Some(word) => (self.short.find(word, insert), &mut self.short_ids),
            None => {
                let s = &bytes[start..end];
                (
                    self.long.find(hash_bytes(s).wrapping_mul(MIX), || std::iter::once(s), insert),
                    &mut self.long_ids,
                )
            }
        };
        match at {
            NO_KEY => NO_KEY,
            new if new as usize == ids.len() => {
                ids.push(next);
                next
            }
            known => ids[known as usize],
        }
    }

    /// The id of each row's string (0 under a NULL) and the column's NULL
    /// mask. A string the table has not seen, under a lookup without
    /// `insert`, makes its row `keyless`. A dictionary interns only the
    /// entries its rows use, in the order they first use them, then gathers.
    fn lane(&mut self, block: &Block, insert: bool, keyless: &mut [bool]) -> (Vec<u64>, NullMask) {
        if let Block::Dictionary { dictionary, ids: rows } = block {
            let (position, used) = first_uses(rows, dictionary.len());
            let mut used_keyless = vec![false; used.len()];
            let (bits, nulls) = self.lane(&dictionary.take(&used), insert, &mut used_keyless);
            let entry = |row: usize| position[rows[row] as usize] as usize;
            keyless.iter_mut().enumerate().for_each(|(row, k)| *k |= used_keyless[entry(row)]);
            let nulls = nulls.map(|n| (0..rows.len()).map(|row| n[entry(row)]).collect());
            return ((0..rows.len()).map(|row| bits[entry(row)]).collect(), nulls);
        }
        let Block::Varchar { offsets, bytes, nulls } = block else {
            // no other block is VARCHAR; resolve checked the type
            keyless.iter_mut().for_each(|k| *k = true);
            return (vec![0; block.len()], None);
        };
        let nulls = nulls.clone().filter(|mask| mask.contains(&true));
        let mut bits = Vec::with_capacity(block.len());
        for (row, w) in offsets.windows(2).enumerate() {
            if nulls.as_ref().is_some_and(|n| n[row]) {
                bits.push(0);
                continue;
            }
            let id = self.id(bytes, w[0] as usize, w[1] as usize, insert);
            keyless[row] |= id == NO_KEY;
            bits.push(u64::from(id));
        }
        (bits, nulls)
    }
}

/// The entries of a dictionary of `entries` that `rows` use, in the order
/// rows first use them, and each entry's position in that list.
fn first_uses(rows: &[u32], entries: usize) -> (Vec<u32>, Vec<usize>) {
    let mut position = vec![NO_KEY; entries];
    let mut used = Vec::new();
    for &entry in rows {
        if position[entry as usize] == NO_KEY {
            position[entry as usize] = used.len() as u32;
            used.push(entry as usize);
        }
    }
    (position, used)
}

/// Byte keys in one arena.
#[derive(Default)]
struct ByteKeys {
    arena: Vec<u8>,
    ends: Vec<u32>,
    hashes: Vec<u64>,
    slots: Slots,
}

impl ByteKeys {
    /// The id of the key hashing to `hash` whose bytes are the `cells`
    /// strung together — self-delimiting cells, so equal concatenations are
    /// equal cells. A new key is copied in and gets the next id with
    /// `insert`, else [`NO_KEY`].
    fn find<'c, I: Iterator<Item = &'c [u8]>>(
        &mut self,
        hash: u64,
        cells: impl Fn() -> I,
        insert: bool,
    ) -> u32 {
        let (arena, ends, hashes) = (&self.arena, &self.ends, &self.hashes);
        let is_key = |id: u32| {
            let start = if id == 0 { 0 } else { ends[id as usize - 1] as usize };
            let key = &arena[start..ends[id as usize] as usize];
            hashes[id as usize] == hash
                && cells()
                    .try_fold(key, |rest, cell| rest.strip_prefix(cell))
                    .is_some_and(<[u8]>::is_empty)
        };
        let id = self.slots.resolve(hash, is_key, insert, hashes.iter().copied());
        if id as usize == self.ends.len() {
            cells().for_each(|cell| self.arena.extend_from_slice(cell));
            self.ends.push(self.arena.len() as u32);
            self.hashes.push(hash);
        }
        id
    }
}

impl Keys for ByteKeys {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn reserve(&mut self, keys: usize) {
        self.ends.reserve_exact(keys);
        self.hashes.reserve_exact(keys);
        self.slots = Slots::sized(keys);
    }

    /// Encode and hash each column's cells once; a row's key is its cells
    /// strung together, its hash theirs folded. Only a new key is copied.
    fn resolve(
        &mut self,
        _: &[DataType],
        keys: &[&Block],
        mode: Mode,
        ids: &mut Vec<u32>,
    ) -> Result<()> {
        let columns: Vec<Cells<'_>> =
            keys.iter().map(|block| Cells::encode(block, !mode.nulls_match)).collect();
        for row in 0..keys.first().map_or(0, |block| block.len()) {
            let cells = || columns.iter().map(|column| column.cell(row));
            if !mode.nulls_match && cells().any(|(cell, _)| cell == [0]) {
                ids.push(NO_KEY);
                continue;
            }
            let hash = cells().fold(0u64, |h, (_, cell_hash)| (h ^ cell_hash).wrapping_mul(MIX));
            ids.push(self.find(hash, || cells().map(|(cell, _)| cell), mode.insert));
        }
        Ok(())
    }
}

/// A row offset that names no slot: a NULL with no digit, or a value
/// outside its column's range. Adding a digit to it saturates, so it stays.
const KEYLESS: usize = usize::MAX;

/// Whether the key columns `types` can be dense digits: integral ones, and
/// VARCHARs whose blocks are all dictionaries beside another column. (A key
/// that is one dictionary column is resolved once per entry its rows use
/// already, [`KeyTable::resolve_entries`].)
fn has_digits(types: &[DataType]) -> bool {
    use DataType::*;
    let digit = |t: &DataType| match t {
        Boolean | Integer | Bigint | Date | Timestamp => true,
        Varchar => types.len() > 1,
        _ => false,
    };
    types.iter().all(digit)
}

/// The values of an integral column, as `i64`, into `f` (`None` under a
/// NULL); `None` for a column of another kind. A dictionary gives its
/// entries, used by a row or not.
fn for_integers(block: &Block, f: impl FnMut(Option<i64>)) -> Option<()> {
    fn each<T: Copy>(
        values: &[T],
        nulls: &NullMask,
        int: fn(T) -> i64,
        f: impl FnMut(Option<i64>),
    ) {
        match nulls {
            None => values.iter().map(|&v| Some(int(v))).for_each(f),
            Some(mask) => {
                values.iter().zip(mask).map(|(&v, &null)| (!null).then(|| int(v))).for_each(f)
            }
        }
    }
    match block {
        Block::Boolean { values, nulls } => each(values, nulls, i64::from, f),
        Block::Integer { values, nulls } | Block::Date { values, nulls } => {
            each(values, nulls, i64::from, f)
        }
        Block::Bigint { values, nulls } | Block::Timestamp { values, nulls } => {
            each(values, nulls, |v| v, f)
        }
        Block::Dictionary { dictionary, .. } => return for_integers(dictionary, f),
        _ => return None,
    }
    Some(())
}

/// How a [`Radix`] reads a value's digit.
enum Digits {
    /// An integer `v` with `min <= v < min + values` is the digit `v − min`.
    Range { min: i64 },
    /// A string is its id among the distinct strings of the dictionaries
    /// the table was built over, in first-seen order.
    Strings(Interner),
}

impl Digits {
    /// An integral column's digits over `blocks` (one per page): its range,
    /// the values in it, and whether a block holds a NULL.
    fn range<'b>(blocks: impl Iterator<Item = Option<&'b Block>>) -> Option<(Digits, u64, bool)> {
        let (mut min, mut max, mut nulls) = (i64::MAX, i64::MIN, false);
        for block in blocks {
            for_integers(block?, |v| match v {
                Some(v) => (min, max) = (min.min(v), max.max(v)),
                None => nulls = true,
            })?;
        }
        let values = match min <= max {
            true => max.abs_diff(min).checked_add(1)?,
            false => 0,
        };
        Some((Digits::Range { min }, values, nulls))
    }

    /// A VARCHAR column's digits over `blocks` (one per page), each a
    /// dictionary over plain strings: every entry's string is interned once,
    /// used by a row or not; and whether an entry is NULL. `None` for another
    /// block, or more than `limit` entries in all.
    fn strings<'b>(
        blocks: impl Iterator<Item = Option<&'b Block>>,
        limit: usize,
    ) -> Option<(Digits, u64, bool)> {
        let (mut strings, mut entries, mut nulls) = (Interner::default(), 0, false);
        for block in blocks {
            let Block::Dictionary { dictionary, .. } = block? else {
                return None;
            };
            let Block::Varchar { offsets, bytes, nulls: mask } = &**dictionary else {
                return None;
            };
            entries += dictionary.len();
            if entries > limit {
                return None;
            }
            for (entry, w) in offsets.windows(2).enumerate() {
                match mask.as_ref().is_some_and(|mask| mask[entry]) {
                    true => nulls = true,
                    false => _ = strings.id(bytes, w[0] as usize, w[1] as usize, true),
                }
            }
        }
        let values = strings.len() as u64;
        Some((Digits::Strings(strings), values, nulls))
    }
}

/// One column's digit of a [`Dense`] offset: a value's digit by `digits`
/// when it is below `values`, a NULL `null` (already weighed; [`KEYLESS`]
/// when the column has no NULL digit); each digit weighs `stride`.
struct Radix {
    digits: Digits,
    values: u64,
    null: usize,
    stride: usize,
}

impl Radix {
    /// Add each row's digit, weighed, to its offset in `offsets`. A
    /// dictionary's digits are read once per entry, then gathered.
    fn add(&mut self, block: &Block, offsets: &mut [usize]) {
        if let Block::Dictionary { dictionary, ids } = block {
            let mut entries = vec![0; dictionary.len()];
            self.add(dictionary, &mut entries);
            let rows = offsets.iter_mut().zip(ids);
            rows.for_each(|(offset, &id)| *offset = offset.saturating_add(entries[id as usize]));
            return;
        }
        let Radix { digits, values, null, stride } = self;
        let (values, null, stride) = (*values, *null, *stride);
        let added = match digits {
            Digits::Range { min } => {
                let min = *min;
                let digit = |v: Option<i64>| match v {
                    None => null,
                    Some(v) => match (v as u64).wrapping_sub(min as u64) {
                        d if d < values => d as usize * stride,
                        _ => KEYLESS,
                    },
                };
                let mut rows = offsets.iter_mut();
                for_integers(block, |v| {
                    if let Some(offset) = rows.next() {
                        *offset = offset.saturating_add(digit(v));
                    }
                })
            }
            Digits::Strings(strings) => match block {
                Block::Varchar { offsets: ends, bytes, nulls } => {
                    let rows = offsets.iter_mut().zip(ends.windows(2)).enumerate();
                    for (row, (offset, w)) in rows {
                        let digit = match nulls.as_ref().is_some_and(|mask| mask[row]) {
                            true => null,
                            false => match strings.id(bytes, w[0] as usize, w[1] as usize, false) {
                                NO_KEY => KEYLESS,
                                id => id as usize * stride,
                            },
                        };
                        *offset = offset.saturating_add(digit);
                    }
                    Some(())
                }
                _ => None,
            },
        };
        if added.is_none() {
            offsets.fill(KEYLESS);
        }
    }
}

/// Keys whose columns each read as few enough digits — integers of a small
/// range, strings of few dictionary entries: a key's id sits at its
/// mixed-radix offset, one [`Radix`] digit per column.
struct Dense {
    radices: Vec<Radix>,
    slots: Vec<u32>,
    len: usize,
}

impl Dense {
    /// The dense layout of the key columns `pages` (per page, per column,
    /// of `types`) when their spans multiply to at least 1 and at most
    /// `slots`; with `null_digit`, a column holding a NULL spans one more.
    /// An integral column spans its range ([`Digits::range`]), a VARCHAR one
    /// its dictionaries' distinct strings ([`Digits::strings`]). `None` for
    /// another column, another product, or a span or product past `u64`.
    fn fit<K: Borrow<Block>>(
        types: &[DataType],
        pages: &[impl AsRef<[K]>],
        null_digit: bool,
        slots: usize,
    ) -> Option<Dense> {
        if !has_digits(types) {
            return None;
        }
        let mut radices = Vec::with_capacity(types.len());
        let mut product = 1u64;
        for (column, data_type) in types.iter().enumerate() {
            let blocks = pages.iter().map(|page| page.as_ref().get(column).map(Borrow::borrow));
            let (digits, values, nulls) = match data_type {
                DataType::Varchar => Digits::strings(blocks, slots)?,
                _ => Digits::range(blocks)?,
            };
            let null_digit = null_digit && nulls;
            let stride = product;
            product = product.checked_mul(values.checked_add(u64::from(null_digit))?)?;
            if product > slots as u64 {
                return None;
            }
            // both are at most the product, which fits `slots`
            let null = if null_digit { (values * stride) as usize } else { KEYLESS };
            radices.push(Radix { digits, values, null, stride: stride as usize });
        }
        (1..=slots as u64).contains(&product).then(|| Dense {
            radices,
            slots: vec![NO_KEY; product as usize],
            len: 0,
        })
    }
}

impl Keys for Dense {
    fn len(&self) -> usize {
        self.len
    }

    /// Nothing: the slots were allocated whole.
    fn reserve(&mut self, _: usize) {}

    fn dense_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }

    /// Sum each column's weighed digits a column at a time, then read (or
    /// deal) the id at each row's offset.
    fn resolve(
        &mut self,
        _: &[DataType],
        keys: &[&Block],
        mode: Mode,
        ids: &mut Vec<u32>,
    ) -> Result<()> {
        let mut offsets = vec![0; keys.first().map_or(0, |block| block.len())];
        for (block, radix) in keys.iter().zip(&mut self.radices) {
            radix.add(block, &mut offsets);
        }
        for (row, &offset) in offsets.iter().enumerate() {
            let id = match self.slots.get_mut(offset) {
                Some(slot) if *slot == NO_KEY && mode.insert => {
                    *slot = self.len as u32;
                    self.len += 1;
                    *slot
                }
                Some(slot) => *slot,
                // a lookup outside the range, or a join row holding a NULL:
                // no key
                None if !mode.insert
                    || !mode.nulls_match && keys.iter().any(|b| b.is_null(row)) =>
                {
                    NO_KEY
                }
                None => {
                    return Err(PrestoError::Internal(
                        "a key outside the columns its dense key table was built over".into(),
                    ))
                }
            };
            ids.push(id);
        }
        Ok(())
    }
}

/// Distinct row keys → dense ids, numbered from 0 in first-seen order.
pub struct KeyTable {
    types: Vec<DataType>,
    nulls_match: bool,
    keys: Box<dyn Keys>,
}

impl KeyTable {
    /// A table over the key columns `pages` (per page, per column, of
    /// `types`), laid out from them.
    fn new<K: Borrow<Block>>(
        types: &[DataType],
        pages: &[impl AsRef<[K]>],
        nulls_match: bool,
    ) -> KeyTable {
        let rows = pages.iter().map(|page| page.as_ref().first().map_or(0, |b| b.borrow().len()));
        let rows = rows.sum();
        let bits = types.iter().try_fold(0u32, |sum, t| Some(sum + packed_bits(t)?));
        let mut keys: Box<dyn Keys> =
            match Dense::fit(types, pages, nulls_match, Slots::count(rows)) {
                Some(dense) => Box::new(dense),
                None => match bits {
                    Some(0..=64) => Box::new(Packed::<u64>::new(types.len())),
                    Some(65..=128) => Box::new(Packed::<u128>::new(types.len())),
                    _ => Box::new(ByteKeys::default()),
                },
            };
        if !nulls_match {
            keys.reserve(rows);
        }
        KeyTable { types: types.to_vec(), nulls_match, keys }
    }

    /// A table of GROUP BY keys over the key columns `input` (per page, per
    /// column, of `types`): equality is `Vec<Value>` equality. A hashed
    /// table starts empty and grows with its keys.
    pub fn group_by<K: Borrow<Block>>(types: &[DataType], input: &[impl AsRef<[K]>]) -> KeyTable {
        KeyTable::new(types, input, true)
    }

    /// A table of equi-join keys over the build side's key columns `build`
    /// (per page, per column, of `types`): as [`KeyTable::group_by`], except
    /// that a row holding a NULL or a NaN gets [`NO_KEY`]. A hashed table is
    /// sized once for `build`'s rows and never grows while it holds no more
    /// distinct keys.
    pub fn join<K: Borrow<Block>>(types: &[DataType], build: &[impl AsRef<[K]>]) -> KeyTable {
        KeyTable::new(types, build, false)
    }

    /// Distinct keys so far.
    pub fn distinct(&self) -> usize {
        self.keys.len()
    }

    /// Distinct strings interned so far, over all VARCHAR key columns (none
    /// under the byte layout). Only a resolve with `insert` adds one.
    pub fn interned(&self) -> usize {
        self.keys.interned()
    }

    /// The bytes of a dense table's slots, allocated whole when it was
    /// built; 0 for a hashed table, whose memory grows with its keys.
    pub fn dense_bytes(&self) -> usize {
        self.keys.dense_bytes()
    }

    /// The id of each row of the key columns `keys` into `ids` (replacing
    /// its contents). With `insert`, a new key gets the next id; without,
    /// [`NO_KEY`]. Fails when a column is not of the type the table was
    /// built for — the layout was chosen from those — and when a dense
    /// table is to insert a key outside the columns it was built over.
    pub fn resolve(
        &mut self,
        keys: &[impl Borrow<Block>],
        insert: bool,
        ids: &mut Vec<u32>,
    ) -> Result<()> {
        let keys: Vec<&Block> = keys.iter().map(Borrow::borrow).collect();
        let actual: Vec<DataType> = keys.iter().map(|block| block.data_type()).collect();
        if actual != self.types {
            return Err(PrestoError::Internal(format!(
                "key columns are {actual:?}, the key table was built for {:?}",
                self.types
            )));
        }
        ids.clear();
        ids.reserve(keys.first().map_or(0, |block| block.len()));
        let mode = Mode { nulls_match: self.nulls_match, insert };
        match keys[..] {
            [Block::Dictionary { dictionary, ids: entries }] => {
                self.resolve_entries(dictionary, entries, mode, ids)
            }
            _ => self.keys.resolve(&self.types, &keys, mode, ids),
        }
    }

    /// One dictionary key column: resolve only the entries its rows use, in
    /// the order rows first use them — so a new key gets the id the per-row
    /// path would deal it — then give each row its entry's id.
    fn resolve_entries(
        &mut self,
        dictionary: &Block,
        rows: &[u32],
        mode: Mode,
        ids: &mut Vec<u32>,
    ) -> Result<()> {
        let (position, used) = first_uses(rows, dictionary.len());
        let mut used_ids = Vec::with_capacity(used.len());
        self.keys.resolve(&self.types, &[&dictionary.take(&used)], mode, &mut used_ids)?;
        ids.extend(rows.iter().map(|&entry| used_ids[position[entry as usize] as usize]));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #[allow(clippy::disallowed_types, reason = "a lookup-only oracle of first-seen ids")]
    use std::collections::HashMap;

    use super::*;

    fn bigints(values: &[Option<i64>]) -> Block {
        let values: Vec<Value> =
            values.iter().map(|v| v.map_or(Value::Null, Value::Bigint)).collect();
        Block::from_values(&DataType::Bigint, &values).unwrap()
    }

    /// The ids of one page of `columns` dealt by `table`, inserting.
    fn ids(table: &mut KeyTable, columns: &[Block]) -> Vec<u32> {
        let mut ids = Vec::new();
        table.resolve(columns, true, &mut ids).unwrap();
        ids
    }

    /// Whether a table over the one page `columns` is dense, as a join
    /// table or as a GROUP BY table.
    fn dense(columns: &[Block]) -> (bool, bool) {
        let types: Vec<DataType> = columns.iter().map(Block::data_type).collect();
        let join = KeyTable::join(&types, &[columns]).dense_bytes() > 0;
        (join, KeyTable::group_by(&types, &[columns]).dense_bytes() > 0)
    }

    #[test]
    fn a_span_product_up_to_the_slot_count_is_dense() {
        // 8 rows: a hashed table takes 16 slots
        let column = |top: i64| bigints(&[0, top, 1, 2, 3, 4, 5, 6].map(Some));
        assert_eq!(dense(&[column(15)]), (true, true));
        assert_eq!(dense(&[column(16)]), (false, false));
        // a GROUP BY column holding a NULL spans one more; a join's does not
        let nullable = |top: i64| bigints(&[Some(0), Some(top), None, Some(1), Some(2)]);
        assert_eq!(Slots::count(5), 16);
        assert_eq!(dense(&[nullable(14)]), (true, true));
        assert_eq!(dense(&[nullable(15)]), (true, false));
        assert_eq!(dense(&[nullable(16)]), (false, false));
        // spans multiply: 4 × 4 fits, 4 × 5 does not
        let small = |top: i64| bigints(&[0, top, 1, 2, 0, 1, 2, 3].map(Some));
        assert_eq!(dense(&[small(3), small(3)]), (true, true));
        assert_eq!(dense(&[small(3), small(4)]), (false, false));
        // and the dense table deals the ids in first-seen order
        let types = [DataType::Bigint, DataType::Bigint];
        let (a, b) = (small(3), bigints(&[0, 1, 1, 2, 0, 1, 2, 3].map(Some)));
        let columns = [a, b];
        let mut table = KeyTable::group_by(&types, &[&columns]);
        assert_eq!(ids(&mut table, &columns), [0, 1, 2, 3, 0, 2, 3, 4]);
    }

    #[test]
    fn spans_past_u64_stay_hashed_and_never_wrap() {
        let extremes = bigints(&[Some(i64::MIN), Some(i64::MAX), Some(i64::MIN)]);
        assert_eq!(dense(std::slice::from_ref(&extremes)), (false, false));
        let mut table = KeyTable::group_by(&[DataType::Bigint], &[[&extremes]]);
        assert_eq!(ids(&mut table, std::slice::from_ref(&extremes)), [0, 1, 0]);
        // spans 3 and (2^64 + 2) / 3 multiply to 2^64 + 2: wrapped, 2 slots
        let wide: u64 = 6_148_914_691_236_517_206;
        assert_eq!(u128::from(wide) * 3, (1u128 << 64) + 2);
        let far = wide as i64 - 1;
        let columns =
            [bigints(&[0, 2, 0, 2, 0].map(Some)), bigints(&[0, far, far, 0, 0].map(Some))];
        assert_eq!(dense(&columns), (false, false));
        let types = [DataType::Bigint, DataType::Bigint];
        let mut table = KeyTable::join(&types, &[&columns]);
        assert_eq!(ids(&mut table, &columns), [0, 1, 2, 3, 0]);
    }

    #[test]
    fn boolean_and_dictionary_keys_resolve_densely() {
        let flags = Block::from_values(
            &DataType::Boolean,
            &[true.into(), false.into(), Value::Null, true.into()],
        )
        .unwrap();
        let types = [DataType::Boolean];
        let mut groups = KeyTable::group_by(&types, &[[&flags]]);
        let mut joins = KeyTable::join(&types, &[[&flags]]);
        assert!(groups.dense_bytes() > 0 && joins.dense_bytes() > 0);
        assert_eq!(ids(&mut groups, std::slice::from_ref(&flags)), [0, 1, 2, 0]);
        assert_eq!(ids(&mut joins, std::slice::from_ref(&flags)), [0, 1, NO_KEY, 0]);
        let mut found = Vec::new();
        joins.resolve(&[Block::boolean(vec![false, true])], false, &mut found).unwrap();
        assert_eq!(found, [1, 0]);

        // entry 1 (9) is in the dictionary, used by no row
        let dictionary = || Box::new(Block::integer(vec![7, 9, 5]));
        let codes = Block::Dictionary { dictionary: dictionary(), ids: vec![0, 2, 0, 2] };
        let types = [DataType::Integer];
        let mut joins = KeyTable::join(&types, &[[&codes]]);
        assert!(joins.dense_bytes() > 0);
        assert_eq!(ids(&mut joins, std::slice::from_ref(&codes)), [0, 1, 0, 1]);
        // in range but never inserted, or outside the range: no key
        joins.resolve(&[Block::integer(vec![5, 9, 6, 7, 4, 10])], false, &mut found).unwrap();
        assert_eq!(found, [1, NO_KEY, NO_KEY, 0, NO_KEY, NO_KEY]);
        // beside a second column, the dictionary's digits are read per entry
        let columns = [codes, Block::boolean(vec![true, true, false, true])];
        let types = [DataType::Integer, DataType::Boolean];
        let mut groups = KeyTable::group_by(&types, &[&columns]);
        assert!(groups.dense_bytes() > 0);
        assert_eq!(ids(&mut groups, &columns), [0, 1, 2, 1]);
    }

    #[test]
    fn varchar_dictionaries_beside_another_column_are_digits() {
        let strings = |entries: &[Option<&str>], ids: Vec<u32>| {
            let values: Vec<Value> =
                entries.iter().map(|s| s.map_or(Value::Null, Value::from)).collect();
            let dictionary = Box::new(Block::from_values(&DataType::Varchar, &values).unwrap());
            Block::Dictionary { dictionary, ids }
        };
        // two pages: entries in another order, repeated, NULL and unused
        let pages = [
            [
                strings(&[Some("b"), Some("a"), None], vec![0, 1, 2, 0]),
                bigints(&[1, 1, 2, 2].map(Some)),
            ],
            [
                strings(&[Some("a"), Some("zz"), Some("a"), None, Some("b")], vec![0, 2, 4, 3]),
                bigints(&[1, 2, 1, 1].map(Some)),
            ],
        ];
        let types = [DataType::Varchar, DataType::Bigint];
        let mut groups = KeyTable::group_by(&types, &pages);
        let mut joins = KeyTable::join(&types, &pages);
        // 3 strings + NULL × 2 values, and 3 × 2 for the join: 8 rows, 16 slots
        assert_eq!((groups.dense_bytes(), joins.dense_bytes()), (8 * 4, 6 * 4));
        assert_eq!(ids(&mut groups, &pages[0]), [0, 1, 2, 3]);
        assert_eq!(ids(&mut groups, &pages[1]), [1, 4, 0, 5]);
        assert_eq!(ids(&mut joins, &pages[0]), [0, 1, NO_KEY, 2]);
        assert_eq!(ids(&mut joins, &pages[1]), [1, 3, 0, NO_KEY]);
        // a probe of strings the build never held, plain or a dictionary
        let probe = [Block::varchar(&["a", "c", "zz", "b"]), bigints(&[1, 1, 2, 2].map(Some))];
        let mut found = Vec::new();
        joins.resolve(&probe, false, &mut found).unwrap();
        assert_eq!(found, [1, NO_KEY, NO_KEY, 2]);
        let probe =
            [strings(&[Some("c"), Some("b")], vec![1, 0, 1]), bigints(&[1, 1, 2].map(Some))];
        joins.resolve(&probe, false, &mut found).unwrap();
        assert_eq!(found, [0, NO_KEY, 2]);
        // a plain page, or one dictionary column alone, stays hashed
        let plain = [Block::varchar(&["a", "b"]), bigints(&[1, 2].map(Some))];
        assert_eq!(dense(&plain), (false, false));
        assert_eq!(dense(&pages[0][..1]), (false, false));
    }

    #[test]
    fn a_dense_table_deals_the_same_ids_in_any_column_order() {
        // spans 60k × 7 over 140k rows (2^19 slots), and 2 × 3 × 50 over 300
        let wide: Vec<i64> = (0..140_000).map(|i| i % 60_000).collect();
        let narrow: Vec<i64> = (0..140_000).map(|i| (i / 60_000 + i) % 7).collect();
        let pair = [Block::bigint(wide), Block::bigint(narrow)];
        let three = [
            Block::bigint((0..300).map(|i| i % 2).collect()),
            Block::bigint((0..300).map(|i| (i / 2) % 3).collect()),
            Block::bigint((0..300).map(|i| (i * 7) % 50).collect()),
        ];
        let orders: [&[usize]; 8] = [
            &[0, 1],
            &[1, 0],
            &[0, 1, 2],
            &[0, 2, 1],
            &[1, 0, 2],
            &[1, 2, 0],
            &[2, 0, 1],
            &[2, 1, 0],
        ];
        for order in orders {
            let (source, slots) = match order.len() {
                2 => (&pair[..], 60_000 * 7),
                _ => (&three[..], 2 * 3 * 50),
            };
            let columns: Vec<Block> = order.iter().map(|&c| source[c].clone()).collect();
            let types = vec![DataType::Bigint; columns.len()];
            let rows = columns[0].len();
            // every id first-seen, the same in any order
            #[allow(clippy::disallowed_types, reason = "lookup only; ids follow row order")]
            let mut first_seen = HashMap::new();
            let keys: Vec<u32> = (0..rows)
                .map(|row| {
                    let key: Vec<Value> = source.iter().map(|block| block.value(row)).collect();
                    let next = first_seen.len() as u32;
                    *first_seen.entry(key).or_insert(next)
                })
                .collect();
            for mut table in
                [KeyTable::group_by(&types, &[&columns]), KeyTable::join(&types, &[&columns])]
            {
                assert_eq!(table.dense_bytes(), slots * 4, "{order:?}");
                assert_eq!(ids(&mut table, &columns), keys, "{order:?}");
            }
        }
    }

    #[test]
    fn a_dense_table_refuses_to_insert_outside_its_columns() {
        let built = bigints(&[Some(1), Some(2), Some(3)]);
        let mut groups = KeyTable::group_by(&[DataType::Bigint], &[[&built]]);
        let mut joins = KeyTable::join(&[DataType::Bigint], &[[&built]]);
        let mut ids = Vec::new();
        assert!(groups.resolve(&[bigints(&[Some(4)])], true, &mut ids).is_err());
        assert!(groups.resolve(&[bigints(&[None])], true, &mut ids).is_err());
        assert!(joins.resolve(&[bigints(&[Some(0)])], true, &mut ids).is_err());
        // a join row holding a NULL has no key, whatever the range
        joins.resolve(&[bigints(&[None, Some(2)])], true, &mut ids).unwrap();
        assert_eq!(ids, [NO_KEY, 0]);
    }
}
