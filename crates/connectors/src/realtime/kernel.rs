//! The columnar kernel behind every entry point of the store: select rows
//! from the indexes, then either aggregate them or gather them into blocks.
//! Nothing here builds a row.
//!
//! Typed fast paths cover what dashboards send (dimension `=`/`IN`,
//! integer and double ranges). Grouping and aggregation are the engine's:
//! the executor's [`Grouping`], a key table over the split's stored key
//! columns, numbers each selected row's group, and each aggregate is a
//! [`GroupedAccumulator`], handed the segment's column block, the selected
//! rows and each row's group id — so the store's groups and partial states
//! are the ones the engine's final step merges. Everything else takes the
//! *reference* form of the same step — [`ScalarPredicate::matches`] on a
//! scalar, the accumulator's own per-group [`presto_expr::Accumulator`] —
//! chosen from the request's column kinds and literal types alone.

use std::borrow::Cow;

use presto_common::keys::Grouping;
use presto_common::{Block, DataType, Page, Result, RowOrder, Value};
use presto_expr::{AggregateFunction, GroupedAccumulator};
use presto_parquet::{Domain, ScalarPredicate, TypedPredicate};

use super::segment::{ColumnRef, DimColumn, Segment};
use super::RealtimeTable;

// ---------------------------------------------------------------- selection

/// The rows of one segment that pass a filter, in ascending order.
#[derive(Debug, Clone, Copy)]
pub(super) enum Selection<'a> {
    /// Every row `0..n`.
    All(usize),
    /// These rows: a posting list of the segment, or the caller's buffer.
    Rows(&'a [u32]),
}

impl<'a> Selection<'a> {
    pub(super) fn len(&self) -> usize {
        match self {
            Selection::All(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// The first `n` selected rows.
    pub(super) fn first(self, n: usize) -> Selection<'a> {
        match self {
            Selection::All(all) => Selection::All(all.min(n)),
            Selection::Rows(rows) => Selection::Rows(&rows[..rows.len().min(n)]),
        }
    }

    /// The selected rows; `None` for every row.
    fn rows(&self) -> Option<&'a [u32]> {
        match self {
            Selection::All(_) => None,
            Selection::Rows(rows) => Some(rows),
        }
    }

    /// The selected values of `column`.
    fn gather<T: Copy>(&self, column: &[T]) -> Vec<T> {
        match self {
            Selection::All(n) => column[..*n].to_vec(),
            Selection::Rows(rows) => rows.iter().map(|&r| column[r as usize]).collect(),
        }
    }

    /// The selected rows of `block`.
    fn take(&self, block: &Block) -> Block {
        match self {
            Selection::All(n) if *n == block.len() => block.clone(),
            Selection::All(n) => block.slice(0, *n),
            Selection::Rows(rows) => {
                block.take(&rows.iter().map(|&r| r as usize).collect::<Vec<_>>())
            }
        }
    }
}

/// One filter conjunct, bound to its column once per call.
pub(super) enum Conjunct<'q> {
    /// A dimension predicate: evaluated on each segment's dictionary.
    Dim(usize, &'q ScalarPredicate),
    /// `ts` or an integer metric (index into `Segment::numbers`) within an
    /// interval or set.
    Int(usize, Domain<i64>),
    /// A double metric within an interval or set (NaN is outside every one).
    Double(usize, Domain<f64>),
    /// A numeric column whose literals need [`Value::sql_cmp`]: whatever
    /// [`ScalarPredicate::matches`] says of each candidate row's scalar.
    Reference(ColumnRef, &'q ScalarPredicate),
}

/// Bind `filters` to `table`'s columns.
pub(super) fn compile<'q>(
    table: &RealtimeTable,
    filters: &'q [(String, ScalarPredicate)],
) -> Result<Vec<Conjunct<'q>>> {
    filters
        .iter()
        .map(|(name, pred)| {
            let (column, data_type) = table.column(name)?;
            Ok(match (column, pred.typed(data_type)) {
                (ColumnRef::Dim(d), _) => Conjunct::Dim(d, pred),
                (ColumnRef::Number(i), Some(TypedPredicate::Int(domain))) => {
                    Conjunct::Int(i, domain)
                }
                (ColumnRef::Number(i), Some(TypedPredicate::Double(domain))) => {
                    Conjunct::Double(i, domain)
                }
                _ => Conjunct::Reference(column, pred),
            })
        })
        .collect()
}

/// The ascending dictionary codes of `dim` whose values satisfy `pred`: a
/// binary search per literal of a point or a set, else one test per entry.
fn matching_codes(dim: &DimColumn, pred: &ScalarPredicate) -> Vec<u32> {
    let entries = 0..dim.cardinality() as u32;
    match pred.typed(&DataType::Varchar) {
        Some(TypedPredicate::Bytes(Domain::Interval(lo, hi))) if lo == hi => {
            dim.code_of(lo).into_iter().collect()
        }
        Some(TypedPredicate::Bytes(Domain::Set(values))) => {
            let mut codes: Vec<u32> = values.iter().filter_map(|v| dim.code_of(v)).collect();
            codes.sort_unstable();
            codes.dedup();
            codes
        }
        Some(TypedPredicate::Bytes(range)) => {
            entries.filter(|&code| range.contains(dim.value(code).as_bytes())).collect()
        }
        _ => entries
            .filter(|&code| pred.matches(&Value::Varchar(dim.value(code).to_string())))
            .collect(),
    }
}

/// Narrow the candidates to those passing `test`: the first probe of an
/// unindexed filter reads every row, later ones only the survivors.
fn probe(every_row: Option<usize>, rows: &mut Vec<u32>, test: impl Fn(usize) -> bool) {
    match every_row {
        Some(n) => rows.extend((0..n as u32).filter(|&r| test(r as usize))),
        None => rows.retain(|&r| test(r as usize)),
    }
}

/// The rows of `seg` passing every conjunct. Dimension conjuncts become
/// code sets on this segment's dictionaries; the one with the fewest
/// postings supplies the candidates and every other conjunct probes them.
pub(super) fn select<'a>(
    seg: &'a Segment,
    conjuncts: &[Conjunct<'_>],
    buf: &'a mut Vec<u32>,
) -> Selection<'a> {
    if conjuncts.is_empty() {
        return Selection::All(seg.rows);
    }
    let mut dims: Vec<(&DimColumn, Vec<u32>, usize)> = Vec::new();
    for conjunct in conjuncts {
        if let Conjunct::Dim(d, pred) = conjunct {
            let dim = &seg.dims[*d];
            let codes = matching_codes(dim, pred);
            let postings: usize = codes.iter().map(|&code| dim.postings(code).len()).sum();
            if postings == 0 {
                return Selection::Rows(&[]);
            }
            dims.push((dim, codes, postings));
        }
    }
    // `country = 'us'` alone is its posting list, borrowed
    if let ([(dim, codes, _)], 1) = (&dims[..], conjuncts.len()) {
        if let [code] = codes[..] {
            return Selection::Rows(dim.postings(code));
        }
    }

    buf.clear();
    let driver = (0..dims.len()).min_by_key(|&i| dims[i].2);
    let mut every_row = Some(seg.rows);
    if let Some(i) = driver {
        let (dim, codes, _) = &dims[i];
        for &code in codes {
            buf.extend_from_slice(dim.postings(code));
        }
        if codes.len() > 1 {
            buf.sort_unstable();
        }
        every_row = None;
    }
    // each probe takes its slices by value, which keeps them in registers
    // while `retain` writes the candidates
    for (i, (dim, codes, _)) in dims.iter().enumerate() {
        if Some(i) == driver {
            continue;
        }
        if let [code] = codes[..] {
            let ids = dim.ids();
            probe(every_row.take(), buf, move |r| ids[r] == code);
        } else {
            let mut member = vec![false; dim.cardinality()];
            for &code in codes {
                member[code as usize] = true;
            }
            let ids = dim.ids();
            let member = &member[..];
            probe(every_row.take(), buf, move |r| member[ids[r] as usize]);
        }
    }
    for conjunct in conjuncts {
        match conjunct {
            Conjunct::Dim(..) => {}
            // compiled from the column's type, so the block is of it
            Conjunct::Int(i, domain) => match &seg.numbers[*i] {
                Block::Bigint { values, .. } | Block::Timestamp { values, .. } => {
                    let values = &values[..];
                    probe(every_row.take(), buf, move |r| domain.contains(values[r]));
                }
                Block::Integer { values, .. } => {
                    let values = &values[..];
                    probe(every_row.take(), buf, move |r| domain.contains(i64::from(values[r])));
                }
                other => unreachable!("an integer domain over {}", other.data_type()),
            },
            Conjunct::Double(i, domain) => match &seg.numbers[*i] {
                Block::Double { values, .. } => {
                    let values = &values[..];
                    probe(every_row.take(), buf, move |r| domain.contains(values[r]));
                }
                other => unreachable!("a double domain over {}", other.data_type()),
            },
            Conjunct::Reference(column, pred) => {
                let block = seg.column(*column);
                probe(every_row.take(), buf, |r| pred.matches(&block.value(r)));
            }
        }
    }
    Selection::Rows(buf)
}

// -------------------------------------------------------------- aggregation

/// A grouped partial aggregation over the segments of one split: groups
/// and their accumulators live for the whole split, so each group's values
/// are added in ascending row order across segments.
pub(super) struct GroupedAggregation<'s> {
    segments: &'s [Segment],
    /// The stored key columns, borrowed: `by` a segment, segment by segment.
    keys: Vec<&'s Block>,
    by: usize,
    /// The groups, laid out over the split's stored key columns.
    grouping: Grouping,
    /// Each aggregate's state and the column it reads (`None`: `count(*)`).
    aggregates: Vec<(GroupedAccumulator, Option<ColumnRef>)>,
    /// Output column types: the group-by columns', then the aggregates'.
    types: Vec<DataType>,
}

impl<'s> GroupedAggregation<'s> {
    /// Bind the request to `table`'s columns, over the split's `segments`.
    /// Fails for an unknown column or an aggregate SQL would reject (`sum`
    /// of a dimension, `sum()`).
    pub(super) fn new(
        table: &RealtimeTable,
        segments: &'s [Segment],
        group_by: &[String],
        aggregates: &[(AggregateFunction, Option<String>)],
    ) -> Result<GroupedAggregation<'s>> {
        let mut types = Vec::with_capacity(group_by.len() + aggregates.len());
        let mut by = Vec::with_capacity(group_by.len());
        for name in group_by {
            let (column, data_type) = table.column(name)?;
            by.push(column);
            types.push(data_type.clone());
        }
        let mut states = Vec::with_capacity(aggregates.len());
        for (function, argument) in aggregates {
            let argument = argument.as_deref().map(|name| table.column(name)).transpose()?;
            let argument_type = argument.map(|(_, data_type)| data_type);
            let output = function.return_type(argument_type)?;
            let state = GroupedAccumulator::new(*function, argument_type, &output, false);
            states.push((state, argument.map(|(column, _)| column)));
            types.push(output);
        }
        let keys: Vec<&Block> =
            segments.iter().flat_map(|seg| by.iter().map(|&column| seg.column(column))).collect();
        let parts: Vec<&[&Block]> = keys.chunks(by.len().max(1)).collect();
        let grouping = Grouping::new(&types[..by.len()], &parts);
        Ok(GroupedAggregation { segments, keys, by: by.len(), grouping, aggregates: states, types })
    }

    /// Aggregate the selected rows of the split's segment `s`.
    pub(super) fn consume(&mut self, s: usize, sel: &Selection) -> Result<()> {
        if sel.len() == 0 {
            return Ok(());
        }
        let (seg, keys) = (&self.segments[s], &self.keys[s * self.by..(s + 1) * self.by]);
        let groups = self.grouping.resolve(s, keys, sel.rows())?;
        for (state, column) in &mut self.aggregates {
            state.resize(groups);
            let column = column.map(|c| seg.column(c));
            state.update(self.grouping.ids(), column, sel.rows(), sel.len())?;
        }
        Ok(())
    }

    /// The partial-aggregate page: one row per group that matched a row,
    /// group columns then aggregates, each key the value of its group's
    /// first row. It is sorted by key as the executor's aggregate emits
    /// (NULLS LAST total order, then the bits of DOUBLE keys, so NaNs of
    /// different payloads come out in one order), whatever order the groups
    /// were found in.
    pub(super) fn finish(self) -> Result<Page> {
        let GroupedAggregation { keys, by, grouping, aggregates, types, .. } = self;
        let groups = grouping.groups();
        if types.is_empty() {
            return Ok(Page::zero_column(groups));
        }
        let mut blocks = grouping.keys(&keys.chunks(by.max(1)).collect::<Vec<_>>())?;
        for (mut state, _) in aggregates {
            state.resize(groups);
            blocks.push(state.finish()?);
        }
        let page = Page::new(blocks)?;
        if by == 0 {
            return Ok(page);
        }
        let keys = (0..by).map(|k| (vec![Cow::Borrowed(page.block(k))], false)).collect();
        let order = RowOrder::new(vec![groups], keys).ties_by_bits().sorted();
        order.gather(std::slice::from_ref(&page))
    }
}

// --------------------------------------------------------------------- scan

/// The selected rows of `seg` as one page of `columns`: dimensions stay
/// dictionary-encoded, numbers are typed blocks.
pub(super) fn gather_page(seg: &Segment, columns: &[ColumnRef], sel: &Selection) -> Result<Page> {
    if columns.is_empty() {
        return Ok(Page::zero_column(sel.len()));
    }
    let blocks = columns
        .iter()
        .map(|&column| match column {
            ColumnRef::Dim(d) => seg.dims[d].block(sel.gather(seg.dims[d].ids())),
            ColumnRef::Number(i) => sel.take(&seg.numbers[i]),
        })
        .collect();
    Page::new(blocks)
}
