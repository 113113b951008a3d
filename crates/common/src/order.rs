//! Row order under sort keys, on typed columns: the comparator, the sort and
//! the top-N the sort, top-N and aggregation-emit operators share.
//!
//! The rows may lie in several pages. A sort never concatenates them: it
//! ranks each row as one `u64` — the first key's order prefix in the high
//! bits, the row's (page, position) address in the low ones — sorts the
//! ranks, and the caller gathers the output straight from the input pages
//! ([`OrderedRows::gather`]).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::block::Block;
use crate::error::{PrestoError, Result};
use crate::page::Page;

/// From this many rows on, the ranks are sorted by radix passes over their
/// top bits; below it, by `sort_unstable`.
const RADIX_MIN_ROWS: usize = 512;

/// The order of rows spread over pages under sort keys: per key column
/// [`Block::cmp_with`] — the order of [`Value::total_cmp`](crate::Value),
/// numbers < NaN < NULL — reversed when the column's flag says descending.
/// Rows equal on every key keep their input order: by page, then position.
pub struct RowOrder<'a> {
    /// Per key, most significant first: its block in each page, and
    /// whether it descends.
    keys: Vec<(Vec<Cow<'a, Block>>, bool)>,
    /// Each page's row count.
    rows: Vec<usize>,
    address: Address,
    /// Whether rows equal on every key are then told apart by the bits of
    /// their DOUBLE keys (see [`RowOrder::ties_by_bits`]).
    by_bits: bool,
}

impl<'a> RowOrder<'a> {
    /// Order the rows of pages holding `rows[p]` rows each by `keys`, most
    /// significant first: per key, its block in each page, and whether it
    /// descends.
    pub fn new(rows: Vec<usize>, keys: Vec<(Vec<Cow<'a, Block>>, bool)>) -> RowOrder<'a> {
        debug_assert!(keys.iter().all(|(blocks, _)| {
            blocks.len() == rows.len() && blocks.iter().zip(&rows).all(|(b, &n)| b.len() == n)
        }));
        RowOrder { address: Address::of(&rows), keys, rows, by_bits: false }
    }

    /// Tell rows equal on every key apart, before their input order, by the
    /// bits of their DOUBLE keys, column by column: NaNs of different
    /// payloads and `-0.0` / `0.0`, equal under the key order, then come
    /// out in one order whatever order they went in.
    pub fn ties_by_bits(mut self) -> RowOrder<'a> {
        self.by_bits = true;
        self
    }

    /// Compare rows `(page, position)` on the keys alone.
    fn cmp(&self, (p, r): (usize, usize), (q, s): (usize, usize)) -> Ordering {
        for (blocks, descending) in &self.keys {
            match blocks[p].cmp_with(r, &blocks[q], s) {
                Ordering::Equal => {}
                ord if *descending => return ord.reverse(),
                ord => return ord,
            }
        }
        if self.by_bits {
            for (blocks, _) in &self.keys {
                match double_bits(&blocks[p], r).cmp(&double_bits(&blocks[q], s)) {
                    Ordering::Equal => {}
                    ord => return ord,
                }
            }
        }
        Ordering::Equal
    }

    /// Each row's rank (see [`RowOrder::sorted`]), in input order. A rank
    /// below another in its prefix bits is ordered before it; a tie there
    /// decides nothing.
    fn ranks(&self) -> Vec<u64> {
        let address = self.address;
        let mut ranks = Vec::with_capacity(self.rows.iter().sum());
        let Some((first, descending)) = self.keys.first() else {
            for (page, &rows) in self.rows.iter().enumerate() {
                ranks.extend((0..rows).map(|row| address.pack(page, row)));
            }
            return ranks;
        };
        for block in first {
            block.order_prefixes(&mut ranks);
        }
        let flip = if *descending { u64::MAX } else { 0 };
        let lead = ranks.first().map_or(0, |&p| p ^ flip);
        let shared =
            ranks.iter().fold(0, |varying, &p| varying | (p ^ flip ^ lead)).leading_zeros();
        let mut next = ranks.iter_mut();
        for (page, &rows) in self.rows.iter().enumerate() {
            for (row, rank) in (0..rows).zip(&mut next) {
                let prefix = (*rank ^ flip).checked_shl(shared).unwrap_or(0);
                *rank = (prefix & !address.mask()) | address.pack(page, row);
            }
        }
        ranks
    }

    /// Ranks `a` and `b` in the order: by their prefix bits, then — when
    /// those tie — the keys, then the address (input order).
    fn cmp_ranks(&self, a: u64, b: u64) -> Ordering {
        let address = self.address;
        if (a ^ b) >> address.bits != 0 {
            return a.cmp(&b);
        }
        self.cmp(address.unpack(a), address.unpack(b)).then(a.cmp(&b))
    }

    /// All rows in order (a stable sort), by their ranks: one `u64` a row,
    /// the first key's [`Block::order_prefixes`] entry (flipped when it
    /// descends, the high bits every row shares dropped) truncated to the
    /// bits above the row's address. Ranks are distinct — each holds its
    /// row's address — so sorting them ascending is stable: see
    /// `sort_ranks`. Ranks already in order take no pass. Only a run of
    /// ranks whose prefixes tie, which that leaves in input order, is then
    /// sorted on the full keys, stably.
    pub fn sorted(&self) -> OrderedRows {
        let address = self.address;
        let mut ranks = self.ranks();
        if ranks.is_sorted() {
            // already in order, as groups that arrive in key order are
        } else if ranks.len() < RADIX_MIN_ROWS {
            ranks.sort_unstable();
        } else {
            sort_ranks(&mut ranks, 64, address.bits);
        }
        if !self.keys.is_empty() {
            let prefix = |rank: &u64| rank >> address.bits;
            for tie in ranks.chunk_by_mut(|a, b| prefix(a) == prefix(b)).filter(|r| r.len() > 1) {
                tie.sort_by(|&a, &b| self.cmp(address.unpack(a), address.unpack(b)));
            }
        }
        OrderedRows { ranks, address }
    }

    /// The first `count` of [`RowOrder::sorted`], through a bounded heap of
    /// the `count` best rows so far: O(rows · log count), most comparisons
    /// of one rank's prefix bits with another's.
    pub fn top(&self, count: usize) -> OrderedRows {
        let mut best: BinaryHeap<Ranked<'_, 'a>> = BinaryHeap::new();
        for row in self.ranks().into_iter().map(|rank| Ranked(rank, self)) {
            if best.len() < count {
                best.push(row);
            } else if let Some(mut worst) = best.peek_mut().filter(|worst| row < **worst) {
                *worst = row;
            }
        }
        let ranks = best.into_sorted_vec().iter().map(|ranked| ranked.0).collect();
        OrderedRows { ranks, address: self.address }
    }
}

/// A DOUBLE row's bits; `None` for a NULL or another type.
fn double_bits(block: &Block, row: usize) -> Option<u64> {
    match block {
        Block::Double { values, nulls } => {
            nulls.as_ref().is_none_or(|n| !n[row]).then(|| values[row].to_bits())
        }
        Block::Dictionary { dictionary, ids } => double_bits(dictionary, ids[row] as usize),
        _ => None,
    }
}

/// Sorts distinct `ranks`, equal in their bits from `high` up and in order
/// in the `address_bits` below their prefixes, ascending: a radix pass over
/// each byte of the top `bit_length(n) + 8` bits below `high`
/// ([`radix_low`]), then each run of ranks those bits tie sorted whole. Ranks
/// spread over those bits leave runs of a few ties, which `sort_unstable`
/// sorts; a run of [`RADIX_MIN_ROWS`] or more — a key whose values crowd a
/// narrow band beside a far one, as a NULL (the top prefix) does — is
/// sorted the same way below `low`.
fn sort_ranks(ranks: &mut Vec<u64>, high: u32, address_bits: u32) {
    let low = radix_low(ranks.len(), high, address_bits);
    radix_sort(ranks, low);
    if low == address_bits {
        return;
    }
    for run in ranks.chunk_by_mut(|a, b| a >> low == b >> low) {
        if run.len() >= RADIX_MIN_ROWS {
            let mut sorted = run.to_vec();
            sort_ranks(&mut sorted, low, address_bits);
            run.copy_from_slice(&sorted);
        } else {
            run.sort_unstable();
        }
    }
}

/// The lowest rank bit a radix sort of `rows` ranks below bit `high` reads:
/// the `bit_length(rows) + 8` bits below it, rounded up to a byte, but none
/// of the `address_bits` below the prefix.
fn radix_low(rows: usize, high: u32, address_bits: u32) -> u32 {
    let width = (usize::BITS - rows.leading_zeros() + 8).next_multiple_of(8);
    high.saturating_sub(width).max(address_bits)
}

/// A stable LSD radix sort of `ranks` on their bits from `low` up, a byte a
/// pass, through one scratch buffer of the same size. Ranks equal in those
/// bits keep their order, so bits below `low` that are already in order
/// need no pass; nor does a byte every rank shares.
fn radix_sort(ranks: &mut Vec<u64>, low: u32) {
    let digits = (64 - low).div_ceil(8) as usize;
    let digit = |rank: u64, d: usize| (rank >> (low as usize + 8 * d)) as usize & 0xff;
    let mut counts = [[0usize; 256]; 8];
    for &rank in ranks.iter() {
        for (d, count) in counts[..digits].iter_mut().enumerate() {
            count[digit(rank, d)] += 1;
        }
    }
    let mut scratch = vec![0u64; ranks.len()];
    for (d, count) in counts[..digits].iter().enumerate() {
        if count[digit(ranks[0], d)] == ranks.len() {
            continue;
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (next, count) in next.iter_mut().zip(count) {
            *next = sum;
            sum += count;
        }
        for &rank in ranks.iter() {
            let slot = &mut next[digit(rank, d)];
            scratch[*slot] = rank;
            *slot += 1;
        }
        std::mem::swap(ranks, &mut scratch);
    }
}

/// Where a row lives, packed into a rank's low bits: `page << row_bits |
/// position`, as narrow as the pages allow.
#[derive(Clone, Copy)]
struct Address {
    row_bits: u32,
    /// `row_bits` and the page bits above them.
    bits: u32,
}

impl Address {
    fn of(rows: &[usize]) -> Address {
        let bits = |n: usize| usize::BITS - n.saturating_sub(1).leading_zeros();
        let row_bits = bits(rows.iter().copied().max().unwrap_or(0));
        let bits = row_bits + bits(rows.len());
        assert!(bits < 64, "a sort ranks fewer than 2^63 rows");
        Address { row_bits, bits }
    }

    fn mask(self) -> u64 {
        (1 << self.bits) - 1
    }

    fn pack(self, page: usize, row: usize) -> u64 {
        ((page as u64) << self.row_bits) | row as u64
    }

    fn unpack(self, rank: u64) -> (usize, usize) {
        let address = rank & self.mask();
        ((address >> self.row_bits) as usize, (address & ((1 << self.row_bits) - 1)) as usize)
    }
}

/// Rows of a [`RowOrder`]'s pages in order: one rank each, the row's
/// address in its low bits.
pub struct OrderedRows {
    ranks: Vec<u64>,
    address: Address,
}

impl OrderedRows {
    /// Each row's `(page, position)`, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (usize, usize)> + Clone + '_ {
        let address = self.address;
        self.ranks.iter().map(move |&rank| address.unpack(rank))
    }

    /// The rows of `pages` (the pages ordered) as one page. One page is
    /// taken, so its dictionaries stay encoded; the rows of several are
    /// gathered straight from them into plain blocks, column by column
    /// ([`Block::gather`]).
    pub fn gather(self, pages: &[Page]) -> Result<Page> {
        let first =
            pages.first().ok_or_else(|| PrestoError::Internal("gather of zero pages".into()))?;
        if pages.len() == 1 {
            // the positions in the ranks' own buffer
            let address = self.address;
            let positions: Vec<usize> =
                self.ranks.into_iter().map(|rank| address.unpack(rank).1).collect();
            return Ok(first.take(&positions));
        }
        let width = first.column_count();
        if pages.iter().any(|p| p.column_count() != width) {
            return Err(PrestoError::Internal("gather from pages with different widths".into()));
        }
        if width == 0 {
            return Ok(Page::zero_column(self.ranks.len()));
        }
        let column = |c| {
            Block::gather_rows(&pages.iter().map(|p| p.block(c)).collect::<Vec<_>>(), self.iter())
        };
        Page::new((0..width).map(column).collect::<Result<_>>()?)
    }
}

/// A row's rank under a [`RowOrder`].
struct Ranked<'o, 'a>(u64, &'o RowOrder<'a>);

impl Ord for Ranked<'_, '_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.1.cmp_ranks(self.0, other.0)
    }
}

impl PartialOrd for Ranked<'_, '_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked<'_, '_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked<'_, '_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;
    use crate::value::Value;

    /// Rows' positions in the order of a one-page sort.
    fn positions(rows: &OrderedRows) -> Vec<usize> {
        rows.iter().map(|(_, row)| row).collect()
    }

    #[test]
    fn top_is_the_head_of_the_stable_sort() {
        let nan = f64::NAN;
        let x = Block::from_values(
            &DataType::Double,
            &[
                2.0.into(),
                nan.into(),
                Value::Null,
                2.0.into(),
                (-1.0).into(),
                nan.into(),
                2.0.into(),
            ],
        )
        .unwrap();
        let tie = Block::varchar(&["b", "a", "a", "b", "c", "a", "a"]);
        for descending in [false, true] {
            let order = RowOrder::new(
                vec![7],
                vec![
                    (vec![Cow::Borrowed(&x)], descending),
                    (vec![Cow::Borrowed(&tie)], !descending),
                ],
            );
            let sorted = positions(&order.sorted());
            let expected: [usize; 7] =
                if descending { [2, 1, 5, 6, 0, 3, 4] } else { [4, 0, 3, 6, 1, 5, 2] };
            assert_eq!(sorted, expected);
            for count in 0..=8 {
                assert_eq!(positions(&order.top(count)), sorted[..count.min(7)], "top {count}");
            }
        }
        // no keys: input order
        let none = RowOrder::new(vec![3], Vec::new());
        assert_eq!(positions(&none.sorted()), [0, 1, 2]);
        assert_eq!(positions(&none.top(2)), [0, 1]);
    }

    /// The sort before ranks were packed: `(prefix, row)` tuples over one
    /// concatenated column per key, each run of tied prefixes then sorted
    /// on the keys, stably.
    fn tuple_sorted(keys: &[(Block, bool)], rows: usize) -> Vec<usize> {
        let mut prefixes = Vec::new();
        match keys.first() {
            Some((block, descending)) => {
                block.order_prefixes(&mut prefixes);
                if *descending {
                    prefixes.iter_mut().for_each(|p| *p = !*p);
                }
            }
            None => prefixes.resize(rows, 0),
        }
        let cmp = |a: usize, b: usize| {
            let ord = |(block, descending): &(Block, bool)| match block.cmp_with(a, block, b) {
                ord if *descending => ord.reverse(),
                ord => ord,
            };
            keys.iter().map(ord).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        };
        let mut ranked: Vec<(u64, u32)> = prefixes.into_iter().zip(0..rows as u32).collect();
        ranked.sort_unstable();
        for tie in ranked.chunk_by_mut(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
            tie.sort_by(|a, b| cmp(a.1 as usize, b.1 as usize));
        }
        ranked.iter().map(|&(_, row)| row as usize).collect()
    }

    /// Columns of `rows` rows whose values tie in their high prefix bits:
    /// doubles a few ulps apart around one value, with `-0.0`, `0.0`, NaNs
    /// of two payloads and NULLs among them; strings sharing their first 8
    /// bytes; a BIGINT that breaks some of the ties; distinct doubles
    /// `1.0 + k·2⁻⁴⁰`, shuffled, that share their top 24 bits — sign,
    /// exponent and 12 mantissa bits — and differ only below them, with a
    /// NULL every 97 rows so those bits stay in the ranks' top ones (the
    /// non-NULL rows crowd one run, which is radix-sorted again below); and
    /// BIGINTs spread over the whole range, so that every byte a radix
    /// reads orders some rows.
    fn tied_columns(rows: usize) -> Vec<Block> {
        let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
        let double = |i: usize| match i % 23 {
            0 => Value::Null,
            1 => f64::NAN.into(),
            2 => other_nan.into(),
            3 => (-0.0f64).into(),
            4 => 0.0f64.into(),
            k => f64::from_bits(1000.5f64.to_bits() + (i * 7 + k) as u64 % 5).into(),
        };
        let doubles: Vec<Value> = (0..rows).map(double).collect();
        let strings: Vec<Value> = (0..rows)
            .map(|i| match i % 17 {
                0 => Value::Null,
                k => Value::Varchar(format!("abcdefgh{}", (i * 31 + k) % 7)),
            })
            .collect();
        let near_one: Vec<Value> = (0..rows)
            .map(|i| match i % 97 {
                0 => Value::Null,
                _ => (1.0 + ((i * 7919) % rows) as f64 * 2f64.powi(-40)).into(),
            })
            .collect();
        vec![
            Block::from_values(&DataType::Double, &doubles).unwrap(),
            Block::from_values(&DataType::Varchar, &strings).unwrap(),
            Block::bigint((0..rows).map(|i| (i % 3) as i64).collect()),
            Block::from_values(&DataType::Double, &near_one).unwrap(),
            Block::bigint((0..rows as u64).map(|i| scattered(i) as i64).collect()),
        ]
    }

    /// `i` scattered over the whole `u64` range (a multiply, an xor-shift
    /// and a multiply: the top bits of `i` times a constant alone are too
    /// evenly spread to tie).
    fn scattered(i: u64) -> u64 {
        let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (x ^ x >> 29).wrapping_mul(0xbf58_476d_1ce4_e5b9)
    }

    #[test]
    fn a_radix_reads_the_top_bytes_a_row_count_needs() {
        // bit_length(rows) + 8, rounded up to a byte, never into the address
        assert_eq!(radix_low(RADIX_MIN_ROWS, 64, 10), 64 - 24);
        assert_eq!(radix_low(60_000, 64, 17), 64 - 24);
        assert_eq!(radix_low(65_535, 64, 16), 64 - 24);
        assert_eq!(radix_low(65_536, 64, 17), 64 - 32);
        assert_eq!(radix_low(65_536, 64, 50), 50);
        // a run left that long reads the bits below the first radix's
        assert_eq!(radix_low(60_000, 40, 17), 17);
        assert_eq!(radix_low(60_000, 48, 17), 48 - 24);
        // the shared top 24 bits of `1.0 + k·2⁻⁴⁰`
        let (one, next) = (1f64.to_bits(), (1.0 + 65_535.0 * 2f64.powi(-40)).to_bits());
        assert_eq!((one ^ next) >> 40, 0);
        assert_ne!(one, next);
    }

    /// `rows` rows cut into pages of unequal sizes (empty ones included)
    /// and, every other page, behind a dictionary.
    fn paged(columns: &[Block], cuts: &[usize]) -> Vec<Vec<Block>> {
        let rows = columns[0].len();
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(rows)).collect();
        bounds.insert(0, 0);
        bounds.push(rows);
        bounds
            .windows(2)
            .enumerate()
            .map(|(p, w)| {
                let slice = |c: &Block| c.slice(w[0], w[1].saturating_sub(w[0]));
                columns
                    .iter()
                    .map(|c| match p % 2 {
                        0 => slice(c),
                        _ => Block::Dictionary {
                            dictionary: Box::new(slice(c)),
                            ids: (0..w[1].saturating_sub(w[0]) as u32).collect(),
                        },
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn ranks_sort_as_the_tuple_sort_did_at_every_edge() {
        // the radix cutoff, and where the address or the radix width grows
        let sizes = [
            0,
            1,
            255,
            256,
            257,
            RADIX_MIN_ROWS - 1,
            RADIX_MIN_ROWS,
            RADIX_MIN_ROWS + 1,
            4095,
            4096,
            4097,
            65_535,
            1 << 16,
            (1 << 16) + 1,
        ];
        for rows in sizes {
            let columns = tied_columns(rows);
            // one page, then pages of unequal sizes
            for cuts in [vec![], vec![rows / 3, rows / 3, rows / 2 + 1]] {
                let pages = paged(&columns, &cuts);
                let lens: Vec<usize> = pages.iter().map(|p| p[0].len()).collect();
                let starts: Vec<usize> =
                    lens.iter().scan(0, |at, n| Some(std::mem::replace(at, *at + n))).collect();
                for key_columns in [vec![0, 2], vec![1, 0], vec![2], vec![3], vec![3, 1], vec![4]] {
                    for descending in [false, true] {
                        let keys: Vec<(Block, bool)> = key_columns
                            .iter()
                            .map(|&c| (columns[c].clone(), descending ^ (c == 2)))
                            .collect();
                        let paged_keys = keys
                            .iter()
                            .zip(&key_columns)
                            .map(|((_, d), &c)| {
                                (pages.iter().map(|p| Cow::Borrowed(&p[c])).collect(), *d)
                            })
                            .collect();
                        let order = RowOrder::new(lens.clone(), paged_keys);
                        let sorted: Vec<usize> =
                            order.sorted().iter().map(|(p, row)| starts[p] + row).collect();
                        let what = format!("{rows} rows, cuts {cuts:?}, keys {key_columns:?}");
                        assert_eq!(sorted, tuple_sorted(&keys, rows), "{what} desc {descending}");
                    }
                }
            }
        }
    }

    #[test]
    fn gathered_pages_equal_concat_then_take() {
        let columns = tied_columns(40);
        let pages: Vec<Page> = paged(&columns, &[9, 9, 30])
            .into_iter()
            .map(|blocks| Page::new(blocks).unwrap())
            .collect();
        let lens: Vec<usize> = pages.iter().map(Page::positions).collect();
        let keys = vec![(pages.iter().map(|p| Cow::Borrowed(p.block(1))).collect(), true)];
        let order = RowOrder::new(lens.clone(), keys);
        let concat = Page::concat(&pages).unwrap();
        let starts: Vec<usize> =
            lens.iter().scan(0, |at, n| Some(std::mem::replace(at, *at + n))).collect();
        for rows in [order.sorted(), order.top(5), order.top(0)] {
            let global: Vec<usize> = rows.iter().map(|(p, row)| starts[p] + row).collect();
            let expected = concat.take(&global);
            // to the bit: `==` would call two NaNs different
            assert_eq!(format!("{:?}", rows.gather(&pages).unwrap()), format!("{expected:?}"));
        }
        // one page is taken as it is: its dictionaries stay encoded
        let one = &pages[1..2];
        let rows = RowOrder::new(vec![one[0].positions()], Vec::new()).sorted();
        assert!(matches!(rows.gather(one).unwrap().block(0), Block::Dictionary { .. }));
    }

    #[test]
    fn ties_by_bits_orders_what_the_keys_call_equal() {
        let nan = f64::from_bits(f64::NAN.to_bits() | 1);
        let x = Block::double(vec![nan, 0.0, f64::NAN, -0.0, 1.0]);
        let order = RowOrder::new(vec![5], vec![(vec![Cow::Borrowed(&x)], false)]);
        assert_eq!(positions(&order.sorted()), [1, 3, 4, 0, 2], "stable");
        let order = order.ties_by_bits();
        assert_eq!(positions(&order.sorted()), [1, 3, 4, 2, 0], "by bits");
    }
}
