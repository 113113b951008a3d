//! The columnar kernel behind every entry point of the store: select rows
//! from the indexes, then either aggregate them into slot-indexed typed
//! arrays or gather them into blocks. Nothing here builds a row.
//!
//! Typed fast paths cover what dashboards send (dimension `=`/`IN`,
//! integer and double ranges, group-by on dimensions, `count`/`sum`/`min`/
//! `max` over numbers). Everything else takes the *reference* form of the
//! same step — [`ScalarPredicate::matches`] on a scalar, a
//! [`presto_expr::Accumulator`], a hashed `Vec<Value>` key — chosen from
//! the request's column kinds and literal types alone.

use std::cmp::Ordering;
use std::collections::HashMap;

use presto_common::{Block, DataType, Page, Result, Value};
use presto_expr::{Accumulator, AggregateFunction};
use presto_parquet::{Domain, ScalarPredicate, TypedPredicate};

use super::segment::{ColumnRef, DimColumn, IntKind, Segment};
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

    fn for_each(&self, mut f: impl FnMut(usize)) {
        match self {
            Selection::All(n) => (0..*n).for_each(f),
            Selection::Rows(rows) => rows.iter().for_each(|&r| f(r as usize)),
        }
    }

    /// Append `f(row)` for every selected row, reserving once.
    fn map_into(&self, out: &mut Vec<u32>, mut f: impl FnMut(usize) -> u32) {
        match self {
            Selection::All(n) => out.extend((0..*n).map(f)),
            Selection::Rows(rows) => out.extend(rows.iter().map(|&r| f(r as usize))),
        }
    }

    /// The selected values of `column`, at exact capacity.
    fn gather<T: Copy>(&self, column: &[T]) -> Vec<T> {
        match self {
            Selection::All(n) => column[..*n].to_vec(),
            Selection::Rows(rows) => rows.iter().map(|&r| column[r as usize]).collect(),
        }
    }
}

/// One filter conjunct, bound to its column once per call.
pub(super) enum Conjunct<'q> {
    /// A dimension predicate: evaluated on each segment's dictionary.
    Dim(usize, &'q ScalarPredicate),
    /// An integer column (index into `Segment::ints`) within an interval or set.
    Int(usize, Domain<i64>),
    /// A double column within an interval or set (NaN is outside every one).
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
                (ColumnRef::Int(i, _), Some(TypedPredicate::Int(domain))) => {
                    Conjunct::Int(i, domain)
                }
                (ColumnRef::Double(i), Some(TypedPredicate::Double(domain))) => {
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
    for (i, (dim, codes, _)) in dims.iter().enumerate() {
        if Some(i) == driver {
            continue;
        }
        if let [code] = codes[..] {
            probe(every_row.take(), buf, |r| dim.ids[r] == code);
        } else {
            let mut member = vec![false; dim.cardinality()];
            for &code in codes {
                member[code as usize] = true;
            }
            probe(every_row.take(), buf, |r| member[dim.ids[r] as usize]);
        }
    }
    for conjunct in conjuncts {
        match conjunct {
            Conjunct::Dim(..) => {}
            Conjunct::Int(i, domain) => {
                let column = &seg.ints[*i];
                probe(every_row.take(), buf, |r| domain.contains(column[r]));
            }
            Conjunct::Double(i, domain) => {
                let column = &seg.doubles[*i];
                probe(every_row.take(), buf, |r| domain.contains(column[r]));
            }
            Conjunct::Reference(column, pred) => {
                probe(every_row.take(), buf, |r| pred.matches(&seg.value(*column, r)));
            }
        }
    }
    Selection::Rows(buf)
}

// -------------------------------------------------------------- aggregation

/// A dense `local codes → slot` table is used while the product of the
/// group-by dictionaries' sizes stays below this many entries (256 KB).
const DENSE_REMAP_MAX: usize = 1 << 16;

/// The group slot of each selected row of one segment.
enum Slots<'a> {
    /// No GROUP BY: every row belongs to slot 0.
    One,
    /// Parallel to the selection.
    PerRow(&'a [u32]),
}

/// Feed every selected value of `column` to `f` with its row's slot.
fn fold<T: Copy>(sel: &Selection, slots: &Slots, column: &[T], mut f: impl FnMut(usize, T)) {
    match (sel, slots) {
        (Selection::All(n), Slots::One) => column[..*n].iter().for_each(|&v| f(0, v)),
        (Selection::All(n), Slots::PerRow(slots)) => {
            column[..*n].iter().zip(*slots).for_each(|(&v, &s)| f(s as usize, v));
        }
        (Selection::Rows(rows), Slots::One) => rows.iter().for_each(|&r| f(0, column[r as usize])),
        (Selection::Rows(rows), Slots::PerRow(slots)) => {
            rows.iter().zip(*slots).for_each(|(&r, &s)| f(s as usize, column[r as usize]));
        }
    }
}

/// `best[slot]` ← the smaller (or larger) of itself and `v`; like
/// [`Accumulator::MinMax`], the first value always lands and an unordered
/// comparison (NaN) changes nothing.
fn keep_best<T: Copy + PartialOrd>(best: &mut Option<T>, v: T, is_min: bool) {
    let better = match best {
        None => true,
        Some(b) if is_min => v < *b,
        Some(b) => v > *b,
    };
    if better {
        *best = Some(v);
    }
}

/// One aggregate's state for every group slot.
enum Aggregate {
    /// `count(*)` / `count(col)`: columns are NOT NULL, so both count rows.
    Count(Vec<i64>),
    /// Wrapping `sum` of an integer metric.
    SumInt { column: usize, sums: Vec<i64> },
    /// `sum` of a double metric, added in row order.
    SumDouble { column: usize, sums: Vec<f64> },
    /// `min`/`max` of `ts` or an integer metric.
    BestInt { column: usize, kind: IntKind, is_min: bool, best: Vec<Option<i64>> },
    /// `min`/`max` of a double metric.
    BestDouble { column: usize, is_min: bool, best: Vec<Option<f64>> },
    /// Anything else, one [`Accumulator`] per slot fed scalars (`None`
    /// column = fed row counts, which only a count accumulates).
    Reference { function: AggregateFunction, column: Option<ColumnRef>, states: Vec<Accumulator> },
}

impl Aggregate {
    fn new(function: AggregateFunction, column: Option<ColumnRef>) -> Aggregate {
        use AggregateFunction::{Count, CountStar, Max, Min, Sum};
        match (function, column) {
            (Count | CountStar, _) => Aggregate::Count(Vec::new()),
            (Sum, Some(ColumnRef::Int(column, IntKind::Bigint | IntKind::Integer))) => {
                Aggregate::SumInt { column, sums: Vec::new() }
            }
            (Sum, Some(ColumnRef::Double(column))) => {
                Aggregate::SumDouble { column, sums: Vec::new() }
            }
            (Min | Max, Some(ColumnRef::Int(column, kind))) => {
                Aggregate::BestInt { column, kind, is_min: function == Min, best: Vec::new() }
            }
            (Min | Max, Some(ColumnRef::Double(column))) => {
                Aggregate::BestDouble { column, is_min: function == Min, best: Vec::new() }
            }
            _ => Aggregate::Reference { function, column, states: Vec::new() },
        }
    }

    /// Make room for `slots` groups.
    fn grow(&mut self, slots: usize) {
        match self {
            Aggregate::Count(counts) => counts.resize(slots, 0),
            Aggregate::SumInt { sums, .. } => sums.resize(slots, 0),
            Aggregate::SumDouble { sums, .. } => sums.resize(slots, 0.0),
            Aggregate::BestInt { best, .. } => best.resize(slots, None),
            Aggregate::BestDouble { best, .. } => best.resize(slots, None),
            Aggregate::Reference { function, states, .. } => {
                states.resize_with(slots, || function.new_accumulator());
            }
        }
    }

    /// Add one segment's selected rows, a column at a time.
    fn update(&mut self, seg: &Segment, sel: &Selection, slots: &Slots) {
        match self {
            Aggregate::Count(counts) => match slots {
                Slots::One => counts[0] += sel.len() as i64,
                Slots::PerRow(slots) => slots.iter().for_each(|&s| counts[s as usize] += 1),
            },
            Aggregate::SumInt { column, sums } => {
                fold(sel, slots, &seg.ints[*column], |s, v| sums[s] = sums[s].wrapping_add(v));
            }
            Aggregate::SumDouble { column, sums } => {
                fold(sel, slots, &seg.doubles[*column], |s, v| sums[s] += v);
            }
            Aggregate::BestInt { column, is_min, best, .. } => {
                fold(sel, slots, &seg.ints[*column], |s, v| keep_best(&mut best[s], v, *is_min));
            }
            Aggregate::BestDouble { column, is_min, best } => {
                fold(sel, slots, &seg.doubles[*column], |s, v| keep_best(&mut best[s], v, *is_min));
            }
            Aggregate::Reference { column, states, .. } => {
                let mut position = 0;
                sel.for_each(|row| {
                    let slot = match slots {
                        Slots::One => 0,
                        Slots::PerRow(slots) => slots[position] as usize,
                    };
                    position += 1;
                    match column {
                        Some(column) => states[slot].add(&seg.value(*column, row)),
                        None => states[slot].add_count(1),
                    }
                });
            }
        }
    }

    /// The finished aggregate of one group; NULL only for a reference
    /// accumulator that saw nothing it accepts.
    fn finish(&self, slot: usize) -> Value {
        match self {
            Aggregate::Count(counts) => Value::Bigint(counts[slot]),
            Aggregate::SumInt { sums, .. } => Value::Bigint(sums[slot]),
            Aggregate::SumDouble { sums, .. } => Value::Double(sums[slot]),
            Aggregate::BestInt { kind, best, .. } => {
                best[slot].map_or(Value::Null, |x| kind.value(x))
            }
            Aggregate::BestDouble { best, .. } => best[slot].map_or(Value::Null, Value::Double),
            Aggregate::Reference { states, .. } => states[slot].finish(),
        }
    }
}

/// Call `f` out of line, keeping a rarely taken branch out of a hot loop.
#[cold]
#[inline(never)]
fn cold(f: &mut impl FnMut(usize) -> u32, arg: usize) -> u32 {
    f(arg)
}

/// The groups of one split: key → slot, plus the per-segment scratch that
/// maps selected rows to slots.
struct Groups {
    by: Vec<ColumnRef>,
    /// Group key → slot, slots numbered in first-seen order.
    slots: HashMap<Vec<Value>, u32>,
    // kept across segments for their capacity
    remap: Vec<u32>,
    row_slots: Vec<u32>,
}

impl Groups {
    /// The slot of every selected row of `seg` (creating slots for new
    /// keys) and the number of slots so far.
    fn assign(&mut self, seg: &Segment, sel: &Selection) -> (Slots<'_>, usize) {
        let Groups { by, slots, remap, row_slots } = self;
        let mut slot_of = |key: Vec<Value>| {
            let next = slots.len() as u32;
            *slots.entry(key).or_insert(next)
        };
        if by.is_empty() {
            slot_of(Vec::new());
            return (Slots::One, 1);
        }
        row_slots.clear();
        // all-dimension keys: the codes index a per-segment remap table, so
        // a key is built once per new code combination, not once per row
        let dims: Option<Vec<&DimColumn>> = by
            .iter()
            .map(|column| match column {
                ColumnRef::Dim(d) => Some(&seg.dims[*d]),
                _ => None,
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
                let remap = &mut remap[..];
                // a new code combination: undo the mixed-radix packing,
                // last dimension first, to build its key
                let mut new_slot = |local: usize| {
                    let mut key = vec![Value::Null; dims.len()];
                    let mut rest = local;
                    for (value, d) in key.iter_mut().zip(&dims).rev() {
                        let code = (rest % d.cardinality()) as u32;
                        rest /= d.cardinality();
                        *value = Value::Varchar(d.value(code).to_string());
                    }
                    slot_of(key)
                };
                let mut slot_at = |local: usize| {
                    if remap[local] == u32::MAX {
                        remap[local] = cold(&mut new_slot, local);
                    }
                    remap[local]
                };
                match dims[..] {
                    [d] => {
                        let ids = &d.ids[..];
                        sel.map_into(row_slots, |row| slot_at(ids[row] as usize));
                    }
                    _ => sel.map_into(row_slots, |row| {
                        slot_at(
                            dims.iter()
                                .fold(0, |local, d| local * d.cardinality() + d.ids[row] as usize),
                        )
                    }),
                }
            }
            None => sel.map_into(row_slots, |row| {
                slot_of(by.iter().map(|c| seg.value(*c, row)).collect())
            }),
        }
        (Slots::PerRow(row_slots), slots.len())
    }
}

/// A grouped partial aggregation over the segments of one split: groups
/// and their accumulators live for the whole split, so each group's values
/// are added in ascending row order across segments.
pub(super) struct GroupedAggregation {
    groups: Groups,
    aggregates: Vec<Aggregate>,
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
            types.push(function.return_type(argument.map(|(_, data_type)| data_type))?);
            states.push(Aggregate::new(*function, argument.map(|(column, _)| column)));
        }
        Ok(GroupedAggregation {
            groups: Groups { by, slots: HashMap::new(), remap: Vec::new(), row_slots: Vec::new() },
            aggregates: states,
            types,
        })
    }

    /// Aggregate the selected rows of the split's next segment.
    pub(super) fn consume(&mut self, seg: &Segment, sel: &Selection) {
        if sel.len() == 0 {
            return;
        }
        let (slots, groups) = self.groups.assign(seg, sel);
        for aggregate in &mut self.aggregates {
            aggregate.grow(groups);
            aggregate.update(seg, sel, &slots);
        }
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
        let mut columns: Vec<Vec<Value>> =
            self.types.iter().map(|_| Vec::with_capacity(groups.len())).collect();
        let keys = self.groups.by.len();
        for (key, slot) in groups {
            for (column, value) in columns.iter_mut().zip(key) {
                column.push(value);
            }
            for (column, aggregate) in columns[keys..].iter_mut().zip(&self.aggregates) {
                column.push(aggregate.finish(slot as usize));
            }
        }
        let blocks = self
            .types
            .iter()
            .zip(&columns)
            .map(|(data_type, values)| Block::from_values(data_type, values))
            .collect::<Result<Vec<_>>>()?;
        Page::new(blocks)
    }
}

// --------------------------------------------------------------------- scan

/// The selected rows of `seg` as one page of `columns`: dimensions stay
/// dictionary-encoded, numbers are typed slices.
pub(super) fn gather_page(seg: &Segment, columns: &[ColumnRef], sel: &Selection) -> Result<Page> {
    if columns.is_empty() {
        return Ok(Page::zero_column(sel.len()));
    }
    let blocks = columns
        .iter()
        .map(|column| match *column {
            ColumnRef::Dim(d) => seg.dims[d].block(sel.gather(&seg.dims[d].ids)),
            ColumnRef::Int(i, kind) => kind.block(sel.gather(&seg.ints[i])),
            ColumnRef::Double(i) => Block::double(sel.gather(&seg.doubles[i])),
        })
        .collect();
    Page::new(blocks)
}
