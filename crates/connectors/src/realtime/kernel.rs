//! The columnar kernel behind every entry point of the store: select rows
//! from the indexes, then either aggregate them or gather them into blocks.
//! Nothing here builds a row.
//!
//! Typed fast paths cover what dashboards send (dimension `=`/`IN`,
//! integer and double ranges, group-by on dimensions). Aggregation is the
//! engine's: each aggregate is a [`GroupedAccumulator`], handed the
//! segment's column block, the selected rows and each row's group slot, so
//! the store's partial states are the ones the engine's final step merges.
//! Everything else takes the *reference* form of the same step —
//! [`ScalarPredicate::matches`] on a scalar, a hashed `Vec<Value>` key, the
//! accumulator's own per-group [`presto_expr::Accumulator`] — chosen from
//! the request's column kinds and literal types alone.

use std::cmp::Ordering;
use std::collections::HashMap;

use presto_common::{Block, DataType, Page, Result, Value};
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

    /// Replace `out` with `f` of each selected value of `column`.
    fn gather_into<T: Copy, U>(&self, column: &[T], out: &mut Vec<U>, f: impl FnMut(T) -> U) {
        out.clear();
        match self {
            Selection::All(n) => out.extend(column[..*n].iter().copied().map(f)),
            Selection::Rows(rows) => out.extend(rows.iter().map(|&r| column[r as usize]).map(f)),
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

/// A dense `local codes → slot` table is used while the product of the
/// group-by dictionaries' sizes stays below this many entries (256 KB).
const DENSE_REMAP_MAX: usize = 1 << 16;

/// The groups of one split: key → slot, plus the per-segment scratch that
/// maps selected rows to slots.
struct Groups {
    by: Vec<ColumnRef>,
    /// Group key → slot, slots numbered in first-seen order.
    slots: HashMap<Vec<Value>, u32>,
    // kept across segments for their capacity
    remap: Vec<u32>,
    codes: Vec<u32>,
    row_slots: Vec<u32>,
}

impl Groups {
    /// The slot of every selected row of `seg` (`None`: no GROUP BY, every
    /// row in slot 0), creating slots for new keys, and the number of slots
    /// so far.
    fn assign(&mut self, seg: &Segment, sel: &Selection) -> Result<(Option<&[u32]>, usize)> {
        let Groups { by, slots, remap, codes, row_slots } = self;
        let mut slot_of = |key: Vec<Value>| {
            let next = slots.len() as u32;
            *slots.entry(key).or_insert(next)
        };
        if by.is_empty() {
            slot_of(Vec::new());
            return Ok((None, 1));
        }
        // all-dimension keys: the codes index a per-segment remap table, so
        // a key is built once per new code combination, not once per row
        let dims: Option<Vec<&DimColumn>> = by
            .iter()
            .map(|column| match column {
                ColumnRef::Dim(d) => Some(&seg.dims[*d]),
                ColumnRef::Number(_) => None,
            })
            .collect();
        let dense = dims.and_then(|dims| {
            let size = dims.iter().try_fold(1usize, |n, d| n.checked_mul(d.cardinality()))?;
            (size <= DENSE_REMAP_MAX).then_some((dims, size))
        });
        match dense {
            Some((dims, size)) => {
                remap.clear();
                remap.resize(size, u32::MAX);
                // a slice, not the `Vec`: kept in registers across the loop
                let remap = &mut remap[..];
                let mut slot_at = |local: u32| {
                    let local = local as usize;
                    if remap[local] == u32::MAX {
                        remap[local] = new_slot(&dims, local, &mut slot_of);
                    }
                    remap[local]
                };
                match &dims[..] {
                    [d] => sel.gather_into(d.ids(), row_slots, &mut slot_at),
                    _ => {
                        // each selected row's codes, packed mixed-radix,
                        // first dimension most significant
                        sel.gather_into(dims[0].ids(), row_slots, |code| code);
                        for d in &dims[1..] {
                            sel.gather_into(d.ids(), codes, |code| code);
                            let radix = d.cardinality() as u32;
                            let packed = row_slots.iter_mut().zip(&*codes);
                            packed.for_each(|(p, &code)| *p = *p * radix + code);
                        }
                        row_slots.iter_mut().for_each(|p| *p = slot_at(*p));
                    }
                }
            }
            None => {
                let keys = gather_page(seg, by, sel)?;
                row_slots.clear();
                row_slots.extend(
                    (0..sel.len())
                        .map(|i| slot_of(keys.blocks().iter().map(|b| b.value(i)).collect())),
                );
            }
        }
        Ok((Some(row_slots), slots.len()))
    }
}

/// The slot of a code combination seen for the first time in a segment:
/// undo the mixed-radix packing, last dimension first, to build its key.
/// Kept out of line, off the remap loop.
#[cold]
#[inline(never)]
fn new_slot(dims: &[&DimColumn], local: usize, slot_of: &mut impl FnMut(Vec<Value>) -> u32) -> u32 {
    let mut key = vec![Value::Null; dims.len()];
    let mut rest = local;
    for (value, d) in key.iter_mut().zip(dims).rev() {
        let code = (rest % d.cardinality()) as u32;
        rest /= d.cardinality();
        *value = Value::Varchar(d.value(code).to_string());
    }
    slot_of(key)
}

/// A grouped partial aggregation over the segments of one split: groups
/// and their accumulators live for the whole split, so each group's values
/// are added in ascending row order across segments.
pub(super) struct GroupedAggregation {
    groups: Groups,
    /// Each aggregate's state and the column it reads (`None`: `count(*)`).
    aggregates: Vec<(GroupedAccumulator, Option<ColumnRef>)>,
    /// Output column types: the group-by columns', then the aggregates'.
    types: Vec<DataType>,
}

impl GroupedAggregation {
    /// Bind the request to `table`'s columns. Fails for an unknown column
    /// or an aggregate SQL would reject (`sum` of a dimension, `sum()`).
    pub(super) fn new(
        table: &RealtimeTable,
        group_by: &[String],
        aggregates: &[(AggregateFunction, Option<String>)],
    ) -> Result<GroupedAggregation> {
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
        let groups = Groups {
            by,
            slots: HashMap::new(),
            remap: Vec::new(),
            codes: Vec::new(),
            row_slots: Vec::new(),
        };
        Ok(GroupedAggregation { groups, aggregates: states, types })
    }

    /// Aggregate the selected rows of the split's next segment.
    pub(super) fn consume(&mut self, seg: &Segment, sel: &Selection) -> Result<()> {
        if sel.len() == 0 {
            return Ok(());
        }
        let (slots, groups) = self.groups.assign(seg, sel)?;
        for (state, column) in &mut self.aggregates {
            state.resize(groups);
            state.update(slots, column.map(|c| seg.column(c)), sel.rows(), sel.len())?;
        }
        Ok(())
    }

    /// The partial-aggregate page: one row per group that matched a row,
    /// sorted by key (NULLS LAST total order), group columns then aggregates.
    /// Keys the order calls equal (NaNs of different payloads) are then
    /// ordered by their DOUBLE bits, as the executor's aggregate emits them,
    /// so the page does not depend on the group map's iteration order.
    pub(super) fn finish(self) -> Result<Page> {
        let mut groups: Vec<(Vec<Value>, u32)> = self.groups.slots.into_iter().collect();
        let bits = |v: &Value| match v {
            Value::Double(x) => Some(x.to_bits()),
            _ => None,
        };
        groups.sort_by(|(a, _), (b, _)| {
            let by_key = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
            let by_bits = a.iter().zip(b).map(|(x, y)| bits(x).cmp(&bits(y)));
            by_key.chain(by_bits).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
        if self.types.is_empty() {
            return Ok(Page::zero_column(groups.len()));
        }
        let mut blocks = Vec::with_capacity(self.types.len());
        for (k, data_type) in self.types[..self.groups.by.len()].iter().enumerate() {
            let keys: Vec<Value> = groups
                .iter_mut()
                .map(|(key, _)| std::mem::replace(&mut key[k], Value::Null))
                .collect();
            blocks.push(Block::from_values(data_type, &keys)?);
        }
        // each aggregate finishes in slot order; the page is in key order
        let order: Vec<usize> = groups.iter().map(|&(_, slot)| slot as usize).collect();
        for (state, _) in self.aggregates {
            blocks.push(state.finish()?.take(&order));
        }
        Page::new(blocks)
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
            ColumnRef::Dim(d) => {
                let mut ids = Vec::with_capacity(sel.len());
                sel.gather_into(seg.dims[d].ids(), &mut ids, |code| code);
                seg.dims[d].block(ids)
            }
            ColumnRef::Number(i) => sel.take(&seg.numbers[i]),
        })
        .collect();
    Page::new(blocks)
}
