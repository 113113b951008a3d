//! Sealed segments: the columnar, encoded layout every query runs on.
//!
//! A segment never holds a row. Dimensions are a sorted dictionary, one
//! code per row and a CSR inverted index (code → ascending row ids);
//! `ts` and BIGINT/INTEGER metrics are `i64` columns; DOUBLE metrics are
//! `f64` columns. Every vector is allocated at its exact size when the
//! segment is sealed.

use std::collections::HashMap;

use presto_common::{Block, Value};

/// How an `i64`-backed column presents its values to SQL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum IntKind {
    /// The event-time column.
    Timestamp,
    /// A BIGINT metric.
    Bigint,
    /// An INTEGER metric (stored widened; ingest clamps to the `i32` range).
    Integer,
}

impl IntKind {
    /// The scalar for a stored value.
    pub(super) fn value(self, x: i64) -> Value {
        match self {
            IntKind::Timestamp => Value::Timestamp(x),
            IntKind::Bigint => Value::Bigint(x),
            IntKind::Integer => Value::Integer(x as i32),
        }
    }

    /// A NOT NULL block of this kind over stored values.
    pub(super) fn block(self, values: Vec<i64>) -> Block {
        match self {
            IntKind::Timestamp => Block::Timestamp { values, nulls: None },
            IntKind::Bigint => Block::bigint(values),
            IntKind::Integer => Block::integer(values.into_iter().map(|x| x as i32).collect()),
        }
    }
}

/// Where a table column lives inside each [`Segment`], resolved from the
/// schema once when the table is created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ColumnRef {
    /// A VARCHAR dimension: index into [`Segment::dims`].
    Dim(usize),
    /// `ts` or an integer metric: index into [`Segment::ints`].
    Int(usize, IntKind),
    /// A DOUBLE metric: index into [`Segment::doubles`].
    Double(usize),
}

/// One dictionary-encoded dimension column with its inverted index.
#[derive(Debug)]
pub(super) struct DimColumn {
    /// The distinct values in ascending order, as a NOT NULL VARCHAR block
    /// so raw scans can hand it out as a [`Block::Dictionary`] dictionary.
    dictionary: Block,
    /// The dictionary code of every row.
    pub(super) ids: Vec<u32>,
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
        DimColumn {
            dictionary: Block::Varchar { offsets, bytes, nulls: None },
            ids,
            postings,
            starts,
        }
    }

    /// Number of distinct values.
    pub(super) fn cardinality(&self) -> usize {
        self.starts.len() - 1
    }

    /// The dictionary entry for `code`.
    pub(super) fn value(&self, code: u32) -> &str {
        self.dictionary.str_at(code as usize).unwrap_or("")
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
            self.dictionary.take(&indices)
        } else {
            Block::Dictionary { dictionary: Box::new(self.dictionary.clone()), ids }
        }
    }
}

/// One immutable segment.
#[derive(Debug)]
pub(super) struct Segment {
    pub(super) rows: usize,
    pub(super) dims: Vec<DimColumn>,
    /// `ts` (ascending within the segment) and the integer metrics.
    pub(super) ints: Vec<Vec<i64>>,
    pub(super) doubles: Vec<Vec<f64>>,
}

impl Segment {
    /// Seal `rows` (each as wide as `columns`) into a segment. Columns are
    /// NOT NULL: a NULL or mistyped cell becomes `""` / `0`, and numeric
    /// cells are cast to their column's type.
    pub(super) fn seal(columns: &[ColumnRef], rows: &[Vec<Value>]) -> Segment {
        let mut seg =
            Segment { rows: rows.len(), dims: Vec::new(), ints: Vec::new(), doubles: Vec::new() };
        // `columns` lists each store in index order, so pushes line up
        for (c, column) in columns.iter().enumerate() {
            match column {
                ColumnRef::Dim(_) => seg.dims.push(DimColumn::seal(rows, c)),
                ColumnRef::Int(_, IntKind::Timestamp) => {
                    seg.ints.push(rows.iter().map(|r| r[c].as_i64().unwrap_or(0)).collect());
                }
                ColumnRef::Int(_, kind) => {
                    let stored = |v: &Value| {
                        let x = match v {
                            Value::Bigint(x) => *x,
                            Value::Integer(x) => i64::from(*x),
                            Value::Double(x) => *x as i64,
                            _ => 0,
                        };
                        match kind {
                            IntKind::Integer => x.clamp(i64::from(i32::MIN), i64::from(i32::MAX)),
                            _ => x,
                        }
                    };
                    seg.ints.push(rows.iter().map(|r| stored(&r[c])).collect());
                }
                ColumnRef::Double(_) => {
                    seg.doubles.push(rows.iter().map(|r| r[c].as_f64().unwrap_or(0.0)).collect());
                }
            }
        }
        seg
    }

    /// The cell at (`column`, `row`) as a scalar — the row-at-a-time view
    /// the reference paths use.
    pub(super) fn value(&self, column: ColumnRef, row: usize) -> Value {
        match column {
            ColumnRef::Dim(d) => {
                let dim = &self.dims[d];
                Value::Varchar(dim.value(dim.ids[row]).to_string())
            }
            ColumnRef::Int(i, kind) => kind.value(self.ints[i][row]),
            ColumnRef::Double(i) => Value::Double(self.doubles[i][row]),
        }
    }
}
