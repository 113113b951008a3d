//! Answer digests: a row count plus a 64-bit fold of the rows, cheap enough
//! to take after every op and compare against the oracle's.
//!
//! Every value gets an FNV-1a hash of a canonical encoding, computed a
//! column at a time (a dictionary-encoded column and its flat form hash the
//! same); a row's hash folds its values' hashes in column order. The
//! unordered digest sums the mixed row hashes — a multiset hash, equal for
//! any row order, with no sort. Doubles are rounded to 40 mantissa bits
//! first: two paths that add the same numbers in a different order must
//! still agree.

use presto_common::{Block, Page};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// How an op's answer is compared with the oracle's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Same multiset of rows, any order.
    Unordered,
    /// Same rows in the same order (total `ORDER BY`).
    Ordered,
    /// Same number of rows: `LIMIT` without a total order may return any
    /// qualifying subset.
    CountOnly,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash of one scalar: its class tag, then eight payload bytes.
fn scalar(tag: u8, payload: u64) -> u64 {
    fnv_bytes(fnv_bytes(FNV_OFFSET, &[tag]), &payload.to_le_bytes())
}

/// Fold a component hash into a running hash (order-sensitive).
fn combine(h: u64, part: u64) -> u64 {
    (h.rotate_left(5) ^ part).wrapping_mul(FNV_PRIME)
}

const NULL_HASH: u64 = 0x6e75_6c6c_6e75_6c6c;
const TAG_BOOL: u8 = 1;
/// INTEGER and BIGINT share a tag: the same number digests the same.
const TAG_INT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_DATE: u8 = 5;
const TAG_TS: u8 = 6;
const LIST_SEED: u64 = 0x6c69_7374_6c69_7374;

/// Round to 40 mantissa bits; all zeros and all NaNs collapse to one pattern.
fn canonical_double(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits().wrapping_add(0x800) & !0xFFF
    }
}

fn str_hash(s: &[u8]) -> u64 {
    fnv_bytes(FNV_OFFSET ^ s.len() as u64, s)
}

/// One hash per position of `block`, the same for every physical encoding
/// of the same logical values (flat, dictionary, with or without a mask).
fn value_hashes(block: &Block) -> Vec<u64> {
    fn flat<T: Copy>(
        values: &[T],
        nulls: &Option<Vec<bool>>,
        tag: u8,
        encode: impl Fn(T) -> u64,
    ) -> Vec<u64> {
        let mut out: Vec<u64> = values.iter().map(|v| scalar(tag, encode(*v))).collect();
        mask(&mut out, nulls);
        out
    }
    fn mask(hashes: &mut [u64], nulls: &Option<Vec<bool>>) {
        if let Some(nulls) = nulls {
            for (h, is_null) in hashes.iter_mut().zip(nulls) {
                if *is_null {
                    *h = NULL_HASH;
                }
            }
        }
    }
    /// Fold each row's run of element hashes into one hash per row.
    fn runs(offsets: &[u32], elements: &[u64], nulls: &Option<Vec<bool>>) -> Vec<u64> {
        let mut out: Vec<u64> = offsets
            .windows(2)
            .map(|w| {
                let run = &elements[w[0] as usize..w[1] as usize];
                run.iter().fold(LIST_SEED ^ run.len() as u64, |h, e| combine(h, *e))
            })
            .collect();
        mask(&mut out, nulls);
        out
    }
    match block {
        Block::Boolean { values, nulls } => flat(values, nulls, TAG_BOOL, u64::from),
        Block::Bigint { values, nulls } => flat(values, nulls, TAG_INT, |v| v as u64),
        Block::Integer { values, nulls } => flat(values, nulls, TAG_INT, |v| i64::from(v) as u64),
        Block::Double { values, nulls } => flat(values, nulls, TAG_DOUBLE, canonical_double),
        Block::Date { values, nulls } => flat(values, nulls, TAG_DATE, |v| i64::from(v) as u64),
        Block::Timestamp { values, nulls } => flat(values, nulls, TAG_TS, |v| v as u64),
        Block::Varchar { offsets, bytes, nulls } => {
            let mut out: Vec<u64> = offsets
                .windows(2)
                .map(|w| str_hash(&bytes[w[0] as usize..w[1] as usize]))
                .collect();
            mask(&mut out, nulls);
            out
        }
        Block::Array { offsets, elements, nulls, .. } => {
            runs(offsets, &value_hashes(elements), nulls)
        }
        Block::Map { offsets, keys, values, nulls, .. } => {
            let entries: Vec<u64> = value_hashes(keys)
                .into_iter()
                .zip(value_hashes(values))
                .map(|(k, v)| combine(k, v))
                .collect();
            runs(offsets, &entries, nulls)
        }
        Block::Row { children, len, nulls, .. } => {
            let mut out = vec![LIST_SEED ^ children.len() as u64; *len];
            for child in children {
                for (h, c) in out.iter_mut().zip(value_hashes(child)) {
                    *h = combine(*h, c);
                }
            }
            mask(&mut out, nulls);
            out
        }
        Block::Dictionary { dictionary, ids } => {
            let entries = value_hashes(dictionary);
            ids.iter().map(|id| entries[*id as usize]).collect()
        }
    }
}

/// Spread a row hash before summing, so that near-equal rows do not cancel.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 32;
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^ (h >> 32)
}

pub fn digest_pages(pages: &[Page], check: Check) -> Digest {
    let mut rows = 0u64;
    let mut hash = 0u64;
    for page in pages {
        rows += page.positions() as u64;
        if check == Check::CountOnly {
            continue;
        }
        let mut row_hashes = vec![FNV_OFFSET; page.positions()];
        for block in page.blocks() {
            for (h, v) in row_hashes.iter_mut().zip(value_hashes(block)) {
                *h = combine(*h, v);
            }
        }
        for h in row_hashes {
            hash = match check {
                Check::Ordered => combine(hash, h),
                _ => hash.wrapping_add(mix(h)),
            };
        }
    }
    Digest { rows, hash }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{DataType, Value};

    fn page(keys: &[&str], sums: &[f64]) -> Page {
        Page::new(vec![Block::varchar(keys), Block::double(sums.to_vec())]).unwrap()
    }

    #[test]
    fn unordered_digest_ignores_row_order_and_page_boundaries() {
        let a = [page(&["x", "y"], &[1.5, 2.5]), page(&["z"], &[4.0])];
        let b = [page(&["z", "x", "y"], &[4.0, 1.5, 2.5])];
        assert_eq!(digest_pages(&a, Check::Unordered), digest_pages(&b, Check::Unordered));
        assert_ne!(digest_pages(&a, Check::Ordered), digest_pages(&b, Check::Ordered));
        assert_eq!(digest_pages(&a, Check::Ordered), digest_pages(&a, Check::Ordered));
        assert_eq!(digest_pages(&b, Check::CountOnly), Digest { rows: 3, hash: 0 });
    }

    #[test]
    fn a_corrupted_answer_changes_the_digest() {
        let good = digest_pages(&[page(&["x", "y"], &[1.5, 2.5])], Check::Unordered);
        for bad in [
            page(&["x", "y"], &[1.5, 2.75]),          // wrong value
            page(&["x", "x"], &[1.5, 2.5]),           // wrong key
            page(&["x", "y", "y"], &[1.5, 2.5, 2.5]), // duplicated row
            page(&["x"], &[1.5]),                     // missing row
        ] {
            assert_ne!(digest_pages(&[bad], Check::Unordered), good);
        }
        // swapping values between rows is not a reorder of rows
        let swapped = digest_pages(&[page(&["x", "y"], &[2.5, 1.5])], Check::Unordered);
        assert_ne!(swapped, good);
    }

    #[test]
    fn summation_order_noise_in_doubles_is_tolerated() {
        let exact: f64 = 0.1 + 0.2 + 0.3;
        let reordered: f64 = 0.3 + 0.2 + 0.1;
        assert_ne!(exact.to_bits(), reordered.to_bits());
        assert_eq!(
            digest_pages(&[page(&["k"], &[exact])], Check::Unordered),
            digest_pages(&[page(&["k"], &[reordered])], Check::Unordered)
        );
        assert_eq!(canonical_double(0.0), canonical_double(-0.0));
    }

    #[test]
    fn encodings_of_one_column_digest_alike() {
        let flat = Block::varchar(&["a", "b", "a"]);
        let dict = Block::Dictionary {
            dictionary: Box::new(Block::varchar(&["a", "b"])),
            ids: vec![0, 1, 0],
        };
        let with_nulls = Block::from_values(
            &DataType::Bigint,
            &[Value::Bigint(1), Value::Null, Value::Bigint(3)],
        )
        .unwrap();
        let ints = Block::from_values(
            &DataType::Integer,
            &[Value::Integer(1), Value::Null, Value::Integer(3)],
        )
        .unwrap();
        let a = Page::new(vec![flat, with_nulls]).unwrap();
        let b = Page::new(vec![dict, ints]).unwrap();
        assert_eq!(digest_pages(&[a], Check::Ordered), digest_pages(&[b], Check::Ordered));
    }
}
