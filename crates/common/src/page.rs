//! Pages — the unit of data flow between operators, connectors and stages.
//!
//! §IV.A: "Hadoop data and MySQL data are streamed in Presto pages into the
//! Presto engine." A [`Page`] is a batch of rows in columnar form: one
//! [`Block`] per output column, all the same length.
//!
//! A page shares its columns: each is an `Arc<Block>`, so cloning a page,
//! projecting it, or handing a stored column to a scan is a refcount, not a
//! copy. An operator that changes rows (`take`, `slice`, `filter`,
//! `concat`) builds new columns. [`Page::memory_size`] counts every column
//! in full whoever else holds it, so what an operator reserves does not
//! depend on what it shares.

use std::sync::Arc;

use crate::block::Block;
use crate::error::{PrestoError, Result};
use crate::value::Value;

/// The positions where `mask` is true, ascending: the rows a selection
/// keeps. A counting pass sizes the result. Then, within each run of 16
/// flags, every row id is written at a cursor its flag advances: no branch
/// on a flag, so a mask that flips at random costs what a constant one
/// does. A run with no flag set is skipped whole, so a sparse mask costs
/// little more than reading it.
pub fn selected_rows(mask: &[bool]) -> Vec<usize> {
    const RUN: usize = 16;
    let kept = mask.iter().filter(|&&keep| keep).count();
    // the cursor sits at `kept` while trailing unset flags are written
    let mut rows = vec![0; kept + 1];
    let mut n = 0;
    for (start, flags) in (0..).step_by(RUN).zip(mask.chunks(RUN)) {
        // one OR over the run, not a test per flag
        if !flags.iter().fold(false, |any, &keep| any | keep) {
            continue;
        }
        for (i, &keep) in (start..).zip(flags) {
            rows[n] = i;
            n += usize::from(keep);
        }
    }
    rows.truncate(kept);
    rows
}

/// A horizontal batch of rows stored column-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    blocks: Vec<Arc<Block>>,
    positions: usize,
}

impl Page {
    /// Build a page from blocks; all blocks must have the same length.
    pub fn new(blocks: Vec<Block>) -> Result<Page> {
        Page::from_columns(blocks.into_iter().map(Arc::new).collect())
    }

    /// Build a page from shared columns; all must have the same length.
    pub fn from_columns(blocks: Vec<Arc<Block>>) -> Result<Page> {
        let positions = blocks.first().map_or(0, |b| b.len());
        for b in &blocks {
            if b.len() != positions {
                return Err(PrestoError::Internal(format!(
                    "page blocks disagree on row count: {} vs {}",
                    b.len(),
                    positions
                )));
            }
        }
        Ok(Page { blocks, positions })
    }

    /// A page with row count but no columns (used by `SELECT count(*)` scans
    /// that read no columns at all).
    pub fn zero_column(positions: usize) -> Page {
        Page { blocks: Vec::new(), positions }
    }

    /// An empty page with no rows and no columns.
    pub fn empty() -> Page {
        Page { blocks: Vec::new(), positions: 0 }
    }

    /// Number of rows.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// True when the page has no rows.
    pub fn is_empty(&self) -> bool {
        self.positions == 0
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.blocks.len()
    }

    /// The shared columns.
    pub fn blocks(&self) -> &[Arc<Block>] {
        &self.blocks
    }

    /// One column by index.
    pub fn block(&self, i: usize) -> &Block {
        &self.blocks[i]
    }

    /// One shared column by index: clone it to hold the column without
    /// copying it.
    pub fn column(&self, i: usize) -> &Arc<Block> {
        &self.blocks[i]
    }

    /// Consume the page, returning its shared columns.
    pub fn into_blocks(self) -> Vec<Arc<Block>> {
        self.blocks
    }

    /// Materialize row `i` as scalar values (slow path).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.blocks.iter().map(|b| b.value(i)).collect()
    }

    /// Materialize all rows (slow path, for tests and result sets).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.positions).map(|i| self.row(i)).collect()
    }

    /// Keep rows where `selection` is true. A mask that keeps every row
    /// shares the columns.
    pub fn filter(&self, selection: &[bool]) -> Page {
        debug_assert_eq!(selection.len(), self.positions);
        if !selection.contains(&false) {
            return self.clone();
        }
        if self.blocks.is_empty() {
            return Page::zero_column(selection.iter().filter(|&&keep| keep).count());
        }
        // the kept rows once, for every column
        self.take(&selected_rows(selection))
    }

    /// Gather the given row indices.
    pub fn take(&self, indices: &[usize]) -> Page {
        let blocks = self.blocks.iter().map(|b| Arc::new(b.take(indices))).collect();
        Page { blocks, positions: indices.len() }
    }

    /// Contiguous row range `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Page {
        let blocks = self.blocks.iter().map(|b| Arc::new(b.slice(offset, len))).collect();
        Page { blocks, positions: len }
    }

    /// Project a subset of columns by index; the columns are shared.
    pub fn project(&self, columns: &[usize]) -> Page {
        let blocks = columns.iter().map(|&i| self.blocks[i].clone()).collect();
        Page { blocks, positions: self.positions }
    }

    /// Vertically concatenate pages with identical column layouts.
    pub fn concat(pages: &[Page]) -> Result<Page> {
        let first =
            pages.first().ok_or_else(|| PrestoError::Internal("concat of zero pages".into()))?;
        let ncols = first.column_count();
        if pages.iter().any(|p| p.column_count() != ncols) {
            return Err(PrestoError::Internal("concat of pages with different widths".into()));
        }
        let column = |c: usize| {
            Block::concat(&pages.iter().map(|p| p.block(c)).collect::<Vec<_>>()).map(Arc::new)
        };
        let blocks = (0..ncols).map(column).collect::<Result<_>>()?;
        Ok(Page { blocks, positions: pages.iter().map(Page::positions).sum() })
    }

    /// Approximate heap size, for memory accounting.
    pub fn memory_size(&self) -> usize {
        self.blocks.iter().map(|b| b.memory_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference(mask: &[bool]) -> Vec<usize> {
        mask.iter().enumerate().filter(|(_, &keep)| keep).map(|(i, _)| i).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `selected_rows` is the ascending ids of the set flags, at every
        /// density from all-false (0) to all-true (100).
        #[test]
        fn selected_rows_are_the_set_positions(
            len in 0usize..201,
            density in 0u64..101,
            draws in proptest::collection::vec(0u64..100, 200..201),
        ) {
            let mask: Vec<bool> = draws[..len].iter().map(|&d| d < density).collect();
            prop_assert_eq!(selected_rows(&mask), reference(&mask));
        }
    }

    #[test]
    fn selected_rows_of_constant_and_single_bit_masks() {
        for len in 0..=200 {
            assert_eq!(selected_rows(&vec![false; len]), Vec::<usize>::new());
            assert_eq!(selected_rows(&vec![true; len]), (0..len).collect::<Vec<_>>());
            for bit in 0..len {
                let mut mask = vec![false; len];
                mask[bit] = true;
                assert_eq!(selected_rows(&mask), vec![bit]);
                mask.iter_mut().for_each(|keep| *keep = !*keep);
                assert_eq!(selected_rows(&mask), reference(&mask));
            }
        }
    }

    fn page() -> Page {
        Page::new(vec![Block::bigint(vec![1, 2, 3]), Block::varchar(&["a", "b", "c"])]).unwrap()
    }

    #[test]
    fn construction_checks_lengths() {
        assert!(Page::new(vec![Block::bigint(vec![1]), Block::bigint(vec![1, 2])]).is_err());
        assert_eq!(page().positions(), 3);
        assert_eq!(page().column_count(), 2);
    }

    #[test]
    fn filter_take_slice_project() {
        let p = page();
        assert_eq!(p.filter(&[true, false, true]).rows().len(), 2);
        assert_eq!(p.take(&[2, 2]).row(0), vec![3i64.into(), "c".into()]);
        assert_eq!(p.slice(1, 1).row(0), vec![2i64.into(), "b".into()]);
        let projected = p.project(&[1]);
        assert_eq!(projected.column_count(), 1);
        assert_eq!(projected.row(0), vec!["a".into()]);
    }

    /// `clone` and `project` hand out the page's own columns; every
    /// operator that changes rows builds new ones.
    #[test]
    fn clone_and_project_share_columns_and_row_operators_do_not() {
        let p = page();
        let shares = |q: &Page, c: usize, of: usize| Arc::ptr_eq(q.column(c), p.column(of));
        let clone = p.clone();
        assert!(shares(&clone, 0, 0) && shares(&clone, 1, 1));
        let projected = p.project(&[1, 0, 1]);
        assert!(shares(&projected, 0, 1) && shares(&projected, 1, 0) && shares(&projected, 2, 1));
        // a filter that drops nothing is a clone; one that drops a row
        // gathers its own columns
        let unfiltered = p.filter(&[true, true, true]);
        assert!(shares(&unfiltered, 0, 0) && shares(&unfiltered, 1, 1));
        let filtered = p.filter(&[true, false, true]);
        assert!(filtered.positions() == 2 && (0..2).all(|c| !shares(&filtered, c, c)));
        let rebuilt =
            [p.take(&[0, 1, 2]), p.slice(0, 3), Page::concat(std::slice::from_ref(&p)).unwrap()];
        for q in &rebuilt {
            assert_eq!(q, &p);
            assert!((0..2).all(|c| !shares(q, c, c)));
        }
        let shared = Page::from_columns(vec![p.column(1).clone()]).unwrap();
        assert!(shares(&shared, 0, 1));
        assert_eq!(shared.memory_size(), p.block(1).memory_size());
    }

    #[test]
    fn zero_column_pages_carry_row_counts() {
        let p = Page::zero_column(5);
        assert_eq!(p.positions(), 5);
        assert_eq!(p.filter(&[true, true, false, false, false]).positions(), 2);
        let joined = Page::concat(&[Page::zero_column(2), Page::zero_column(3)]).unwrap();
        assert_eq!(joined.positions(), 5);
    }

    #[test]
    fn concat_stacks_pages() {
        let joined = Page::concat(&[page(), page()]).unwrap();
        assert_eq!(joined.positions(), 6);
        assert_eq!(joined.row(5), vec![3i64.into(), "c".into()]);
        let bad = Page::concat(&[page(), Page::zero_column(1)]);
        assert!(bad.is_err());
    }
}
