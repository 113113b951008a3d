//! Row order under sort keys, on typed columns: the comparator the sort,
//! top-N and aggregation-emit operators share.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::block::Block;

/// The order of a page's rows under sort keys: per key column
/// [`Block::cmp_rows`] — the order of [`Value::total_cmp`](crate::Value),
/// numbers < NaN < NULL — reversed when the column's flag says descending.
/// Rows equal on every key keep their input order.
pub struct RowOrder<'a>(Vec<(Cow<'a, Block>, bool)>);

impl<'a> RowOrder<'a> {
    /// Order by `columns`, most significant first: `(keys, descending)`.
    pub fn new(columns: Vec<(Cow<'a, Block>, bool)>) -> RowOrder<'a> {
        RowOrder(columns)
    }

    /// Compare rows `a` and `b` on the keys alone.
    pub fn cmp(&self, a: usize, b: usize) -> Ordering {
        for (block, descending) in &self.0 {
            match block.cmp_rows(a, b) {
                Ordering::Equal => {}
                ord if *descending => return ord.reverse(),
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Rows `0..rows` in order (a stable sort). Each row is a `(prefix,
    /// row)` tuple — the first key's [`Block::order_prefixes`] entry and its
    /// position — sorted in their primitive order; only a run of rows whose
    /// prefixes tie, which that leaves in row order, is then sorted on the
    /// keys, stably.
    pub fn sorted(&self, rows: usize) -> Vec<usize> {
        let prefixes = match self.0.first() {
            Some((block, false)) => block.order_prefixes(),
            Some((block, true)) => block.order_prefixes().iter().map(|p| !p).collect(),
            None => vec![0; rows],
        };
        let mut ranked: Vec<(u64, u32)> = prefixes.into_iter().zip(0..rows as u32).collect();
        ranked.sort_unstable();
        for tie in ranked.chunk_by_mut(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
            tie.sort_by(|a, b| self.cmp(a.1 as usize, b.1 as usize));
        }
        ranked.iter().map(|&(_, row)| row as usize).collect()
    }

    /// The first `count` of [`RowOrder::sorted`], through a bounded heap of
    /// the `count` best rows so far: O(rows · log count).
    pub fn top(&self, rows: usize, count: usize) -> Vec<usize> {
        let mut best: BinaryHeap<Ranked<'_, 'a>> = BinaryHeap::new();
        for row in (0..rows).map(|row| Ranked(row, self)) {
            if best.len() < count {
                best.push(row);
            } else if let Some(mut worst) = best.peek_mut().filter(|worst| row < **worst) {
                *worst = row;
            }
        }
        best.into_sorted_vec().iter().map(|ranked| ranked.0).collect()
    }
}

/// A row ranked by a [`RowOrder`], ties by position.
struct Ranked<'o, 'a>(usize, &'o RowOrder<'a>);

impl Ord for Ranked<'_, '_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.1.cmp(self.0, other.0).then(self.0.cmp(&other.0))
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
            let order = RowOrder::new(vec![
                (Cow::Borrowed(&x), descending),
                (Cow::Borrowed(&tie), !descending),
            ]);
            let sorted = order.sorted(7);
            let expected: [usize; 7] =
                if descending { [2, 1, 5, 6, 0, 3, 4] } else { [4, 0, 3, 6, 1, 5, 2] };
            assert_eq!(sorted, expected);
            for count in 0..=8 {
                assert_eq!(order.top(7, count), sorted[..count.min(7)], "top {count}");
            }
        }
        // no keys: input order
        assert_eq!(RowOrder::new(Vec::new()).sorted(3), [0, 1, 2]);
        assert_eq!(RowOrder::new(Vec::new()).top(3, 2), [0, 1]);
    }
}
