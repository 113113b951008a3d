//! Pages — the unit of data flow between operators, connectors and stages.
//!
//! §IV.A: "Hadoop data and MySQL data are streamed in Presto pages into the
//! Presto engine." A [`Page`] is a batch of rows in columnar form: one
//! [`Block`] per output column, all the same length.

use crate::block::Block;
use crate::error::{PrestoError, Result};
use crate::value::Value;

/// A horizontal batch of rows stored column-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    blocks: Vec<Block>,
    positions: usize,
}

impl Page {
    /// Build a page from blocks; all blocks must have the same length.
    pub fn new(blocks: Vec<Block>) -> Result<Page> {
        let positions = blocks.first().map(Block::len).unwrap_or(0);
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

    /// The column blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// One column by index.
    pub fn block(&self, i: usize) -> &Block {
        &self.blocks[i]
    }

    /// Consume the page, returning its blocks.
    pub fn into_blocks(self) -> Vec<Block> {
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

    /// Keep rows where `selection` is true.
    pub fn filter(&self, selection: &[bool]) -> Page {
        debug_assert_eq!(selection.len(), self.positions);
        let kept = selection.iter().filter(|&&b| b).count();
        if self.blocks.is_empty() {
            return Page::zero_column(kept);
        }
        // the kept rows once, for every column
        let mut rows = Vec::with_capacity(kept);
        rows.extend(selection.iter().enumerate().filter(|(_, &keep)| keep).map(|(i, _)| i));
        self.take(&rows)
    }

    /// Gather the given row indices.
    pub fn take(&self, indices: &[usize]) -> Page {
        if self.blocks.is_empty() {
            return Page::zero_column(indices.len());
        }
        let blocks = self.blocks.iter().map(|b| b.take(indices)).collect();
        Page { blocks, positions: indices.len() }
    }

    /// Contiguous row range `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Page {
        if self.blocks.is_empty() {
            return Page::zero_column(len);
        }
        let blocks = self.blocks.iter().map(|b| b.slice(offset, len)).collect();
        Page { blocks, positions: len }
    }

    /// Project a subset of columns by index.
    pub fn project(&self, columns: &[usize]) -> Page {
        let blocks = columns.iter().map(|&i| self.blocks[i].clone()).collect();
        Page { blocks, positions: self.positions }
    }

    /// Append a column.
    pub fn with_block(mut self, block: Block) -> Result<Page> {
        if block.len() != self.positions {
            return Err(PrestoError::Internal(format!(
                "appended block has {} rows, page has {}",
                block.len(),
                self.positions
            )));
        }
        self.blocks.push(block);
        Ok(self)
    }

    /// Vertically concatenate pages with identical column layouts.
    pub fn concat(pages: &[Page]) -> Result<Page> {
        let first =
            pages.first().ok_or_else(|| PrestoError::Internal("concat of zero pages".into()))?;
        let ncols = first.column_count();
        if pages.iter().any(|p| p.column_count() != ncols) {
            return Err(PrestoError::Internal("concat of pages with different widths".into()));
        }
        if ncols == 0 {
            return Ok(Page::zero_column(pages.iter().map(Page::positions).sum()));
        }
        let mut blocks = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let cols: Vec<&Block> = pages.iter().map(|p| &p.blocks[c]).collect();
            blocks.push(Block::concat(&cols)?);
        }
        Page::new(blocks)
    }

    /// Approximate heap size, for memory accounting.
    pub fn memory_size(&self) -> usize {
        self.blocks.iter().map(Block::memory_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn with_block_validates_length() {
        let p = page();
        assert!(p.clone().with_block(Block::double(vec![1.0])).is_err());
        let p2 = p.with_block(Block::double(vec![0.1, 0.2, 0.3])).unwrap();
        assert_eq!(p2.column_count(), 3);
    }
}
