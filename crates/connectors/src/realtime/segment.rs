//! Sealed segments: the columnar, encoded layout every query runs on.
//!
//! A segment never holds a row. Every column is the NOT NULL [`Block`] the
//! engine reads: a dimension is a [`Block::Dictionary`] over its sorted
//! distinct values, with a CSR inverted index (code → ascending row ids);
//! `ts` is a `Timestamp` block and a metric a `Bigint`, `Integer` or
//! `Double` one. Every vector is allocated at its exact size when the
//! segment is sealed.

use std::collections::HashMap;

use presto_common::{Block, DataType, Schema, Value};

/// Where a table column lives inside each [`Segment`], resolved from the
/// schema once when the table is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ColumnRef {
    /// A VARCHAR dimension: index into [`Segment::dims`].
    Dim(usize),
    /// `ts` or a metric: index into [`Segment::numbers`].
    Number(usize),
}

/// One dictionary-encoded dimension column with its inverted index.
#[derive(Debug)]
pub(super) struct DimColumn {
    /// The column: a [`Block::Dictionary`] whose dictionary holds the
    /// distinct values in ascending order, NOT NULL, and whose ids are
    /// every row's code.
    column: Block,
    /// CSR inverted index: row ids grouped by code, ascending within a code.
    postings: Vec<u32>,
    /// `postings[starts[c]..starts[c + 1]]` are the rows holding code `c`.
    starts: Vec<u32>,
}

impl DimColumn {
    /// Seal column `c` of `rows`; NULL and non-string cells become `""`.
    fn seal(rows: &[Vec<Value>], c: usize) -> DimColumn {
        // first-seen codes, then renumbered in value order
        let mut first_seen: HashMap<&str, u32> = HashMap::new();
        let mut values: Vec<&str> = Vec::new();
        let mut ids: Vec<u32> = Vec::with_capacity(rows.len());
        for r in rows {
            let s = r[c].as_str().unwrap_or("");
            ids.push(*first_seen.entry(s).or_insert_with(|| {
                values.push(s);
                (values.len() - 1) as u32
            }));
        }
        let mut order: Vec<u32> = (0..values.len() as u32).collect();
        order.sort_unstable_by_key(|&old| values[old as usize]);
        let mut rank = vec![0u32; values.len()];
        for (new, &old) in order.iter().enumerate() {
            rank[old as usize] = new as u32;
        }
        for id in &mut ids {
            *id = rank[*id as usize];
        }

        let mut offsets = Vec::with_capacity(values.len() + 1);
        let mut bytes = Vec::with_capacity(values.iter().map(|v| v.len()).sum());
        offsets.push(0u32);
        for &old in &order {
            bytes.extend_from_slice(values[old as usize].as_bytes());
            offsets.push(bytes.len() as u32);
        }

        // counting sort of the row ids by code
        let mut starts = vec![0u32; values.len() + 1];
        for &id in &ids {
            starts[id as usize + 1] += 1;
        }
        for code in 0..values.len() {
            starts[code + 1] += starts[code];
        }
        let mut next = starts.clone();
        let mut postings = vec![0u32; ids.len()];
        for (row, &id) in ids.iter().enumerate() {
            postings[next[id as usize] as usize] = row as u32;
            next[id as usize] += 1;
        }
        let dictionary = Box::new(Block::Varchar { offsets, bytes, nulls: None });
        DimColumn { column: Block::Dictionary { dictionary, ids }, postings, starts }
    }

    /// The dictionary code of every row.
    pub(super) fn ids(&self) -> &[u32] {
        match &self.column {
            Block::Dictionary { ids, .. } => ids,
            _ => &[],
        }
    }

    /// The distinct values, in ascending order.
    fn dictionary(&self) -> &Block {
        match &self.column {
            Block::Dictionary { dictionary, .. } => dictionary,
            plain => plain,
        }
    }

    /// Number of distinct values.
    pub(super) fn cardinality(&self) -> usize {
        self.starts.len() - 1
    }

    /// The dictionary entry for `code`.
    pub(super) fn value(&self, code: u32) -> &str {
        self.dictionary().str_at(code as usize).unwrap_or("")
    }

    /// The code of `s`, if any row holds it (binary search).
    pub(super) fn code_of(&self, s: &[u8]) -> Option<u32> {
        let (mut lo, mut hi) = (0u32, self.cardinality() as u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.value(mid).as_bytes().cmp(s) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Ascending row ids holding `code`.
    pub(super) fn postings(&self, code: u32) -> &[u32] {
        let c = code as usize;
        &self.postings[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// A VARCHAR block of the rows whose codes are `ids`: dictionary-encoded
    /// over this segment's dictionary, or flat when that is the smaller copy.
    pub(super) fn block(&self, ids: Vec<u32>) -> Block {
        if ids.len() < self.cardinality() {
            let indices: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
            self.dictionary().take(&indices)
        } else {
            Block::Dictionary { dictionary: Box::new(self.dictionary().clone()), ids }
        }
    }
}

/// One immutable segment.
#[derive(Debug)]
pub(super) struct Segment {
    pub(super) rows: usize,
    pub(super) dims: Vec<DimColumn>,
    /// `ts` (ascending within the segment) and the metrics.
    pub(super) numbers: Vec<Block>,
}

impl Segment {
    /// Seal `rows` (each as wide as `schema`, whose columns live at
    /// `columns`) into a segment. Columns are NOT NULL: a NULL or mistyped
    /// cell becomes `""` / `0`, and numeric cells are cast to their
    /// column's type.
    pub(super) fn seal(schema: &Schema, columns: &[ColumnRef], rows: &[Vec<Value>]) -> Segment {
        let mut seg = Segment { rows: rows.len(), dims: Vec::new(), numbers: Vec::new() };
        // `columns` lists each store in index order, so pushes line up
        for (c, (column, field)) in columns.iter().zip(schema.fields()).enumerate() {
            match column {
                ColumnRef::Dim(_) => seg.dims.push(DimColumn::seal(rows, c)),
                ColumnRef::Number(_) => seg.numbers.push(seal_number(&field.data_type, rows, c)),
            }
        }
        seg
    }

    /// The block holding `column`.
    pub(super) fn column(&self, column: ColumnRef) -> &Block {
        match column {
            ColumnRef::Dim(d) => &self.dims[d].column,
            ColumnRef::Number(i) => &self.numbers[i],
        }
    }
}

/// Column `c` of `rows` as a NOT NULL block of `data_type`: `Timestamp`,
/// `Integer` (clamped to the `i32` range), `Double`, else `Bigint`.
fn seal_number(data_type: &DataType, rows: &[Vec<Value>], c: usize) -> Block {
    let integer = |v: &Value| match v {
        Value::Bigint(x) => *x,
        Value::Integer(x) => i64::from(*x),
        Value::Double(x) => *x as i64,
        _ => 0,
    };
    match data_type {
        DataType::Timestamp => Block::Timestamp {
            values: rows.iter().map(|r| r[c].as_i64().unwrap_or(0)).collect(),
            nulls: None,
        },
        DataType::Integer => Block::integer(
            rows.iter()
                .map(|r| integer(&r[c]).clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32)
                .collect(),
        ),
        DataType::Double => {
            Block::double(rows.iter().map(|r| r[c].as_f64().unwrap_or(0.0)).collect())
        }
        _ => Block::bigint(rows.iter().map(|r| integer(&r[c])).collect()),
    }
}
