//! Aggregate functions shared by the execution engine's hash aggregation and
//! connector **aggregation pushdown** (§IV.B, Fig. 2): when a connector
//! advertises the capability, the partial aggregation runs inside the
//! connector (Druid/Pinot) and only aggregated rows stream into Presto.

use presto_common::block::{some_if_any, NullMask};
use presto_common::{Block, DataType, PrestoError, Result, Value};

/// The aggregate function vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `count(x)` — non-null count.
    Count,
    /// `count(*)` — row count.
    CountStar,
    /// `sum(x)`.
    Sum,
    /// `avg(x)`.
    Avg,
    /// `min(x)`.
    Min,
    /// `max(x)`.
    Max,
}

impl AggregateFunction {
    /// Parse from SQL name (`count`, `sum`, ...). `count(*)` is recognized by
    /// the analyzer, not here.
    pub fn from_name(name: &str) -> Option<AggregateFunction> {
        match name {
            "count" => Some(AggregateFunction::Count),
            "sum" => Some(AggregateFunction::Sum),
            "avg" => Some(AggregateFunction::Avg),
            "min" => Some(AggregateFunction::Min),
            "max" => Some(AggregateFunction::Max),
            _ => None,
        }
    }

    /// SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunction::Count => "count",
            AggregateFunction::CountStar => "count",
            AggregateFunction::Sum => "sum",
            AggregateFunction::Avg => "avg",
            AggregateFunction::Min => "min",
            AggregateFunction::Max => "max",
        }
    }

    /// Output type given the input column type (`None` for `count(*)`).
    pub fn return_type(&self, input: Option<&DataType>) -> Result<DataType> {
        match self {
            AggregateFunction::Count | AggregateFunction::CountStar => Ok(DataType::Bigint),
            AggregateFunction::Avg => Ok(DataType::Double),
            AggregateFunction::Sum => match input {
                Some(DataType::Double) => Ok(DataType::Double),
                Some(t) if t.is_numeric() => Ok(DataType::Bigint),
                Some(t) => Err(PrestoError::Analysis(format!("cannot sum {t}"))),
                None => Err(PrestoError::Analysis("sum requires an argument".into())),
            },
            AggregateFunction::Min | AggregateFunction::Max => match input {
                Some(t) if t.is_orderable() => Ok(t.clone()),
                Some(t) => Err(PrestoError::Analysis(format!("cannot order {t}"))),
                None => Err(PrestoError::Analysis("min/max require an argument".into())),
            },
        }
    }

    /// Fresh accumulator for this function.
    pub fn new_accumulator(&self) -> Accumulator {
        match self {
            AggregateFunction::Count | AggregateFunction::CountStar => {
                Accumulator::Count { count: 0 }
            }
            AggregateFunction::Sum => {
                Accumulator::Sum { int: 0, float: 0.0, saw_float: false, any: false }
            }
            AggregateFunction::Avg => Accumulator::Avg { sum: 0.0, count: 0 },
            AggregateFunction::Min => Accumulator::MinMax { best: None, is_min: true },
            AggregateFunction::Max => Accumulator::MinMax { best: None, is_min: false },
        }
    }
}

/// Incremental aggregation state.
///
/// Accumulators are *mergeable*, which is what lets aggregation split into a
/// partial step (inside a connector or a scan-side stage) and a final step
/// (Fig. 2's "final aggregation max(columnB)" above the connector).
#[derive(Debug, Clone)]
pub enum Accumulator {
    /// count / count(*)
    Count {
        /// Rows (or non-null values) seen.
        count: i64,
    },
    /// sum with integer/double personalities
    Sum {
        /// Integer accumulator.
        int: i64,
        /// Float accumulator.
        float: f64,
        /// True once any double was added (result becomes DOUBLE).
        saw_float: bool,
        /// True once any non-null value was added (else result is NULL).
        any: bool,
    },
    /// avg = sum/count in double space
    Avg {
        /// Running sum.
        sum: f64,
        /// Non-null count.
        count: i64,
    },
    /// min or max
    MinMax {
        /// Best value so far.
        best: Option<Value>,
        /// True for min, false for max.
        is_min: bool,
    },
}

impl Accumulator {
    /// Add one value. For `count(*)` pass any non-null placeholder.
    pub fn add(&mut self, v: &Value) {
        match self {
            Accumulator::Count { count } => {
                if !v.is_null() {
                    *count += 1;
                }
            }
            Accumulator::Sum { int, float, saw_float, any } => match v {
                Value::Null => {}
                Value::Double(x) => {
                    *float = add_double(*float, *x);
                    *saw_float = true;
                    *any = true;
                }
                other => {
                    if let Some(x) = other.as_i64() {
                        *int = int.wrapping_add(x);
                        *any = true;
                    }
                }
            },
            Accumulator::Avg { sum, count } => {
                if let Some(x) = v.as_f64() {
                    *sum = add_double(*sum, x);
                    *count += 1;
                }
            }
            Accumulator::MinMax { best, is_min } => {
                if v.is_null() {
                    return;
                }
                let better = match best {
                    None => true,
                    Some(b) => match v.sql_cmp(b) {
                        Some(std::cmp::Ordering::Less) => *is_min,
                        Some(std::cmp::Ordering::Greater) => !*is_min,
                        _ => false,
                    },
                };
                if better {
                    *best = Some(v.clone());
                }
            }
        }
    }

    /// Add `n` rows at once for `count(*)`.
    pub fn add_count(&mut self, n: i64) {
        if let Accumulator::Count { count } = self {
            *count += n;
        }
    }

    /// Merge another accumulator of the same kind (partial → final step).
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        match (self, other) {
            (Accumulator::Count { count }, Accumulator::Count { count: o }) => {
                *count += o;
                Ok(())
            }
            (
                Accumulator::Sum { int, float, saw_float, any },
                Accumulator::Sum { int: oi, float: of, saw_float: osf, any: oany },
            ) => {
                *int = int.wrapping_add(*oi);
                *float = add_double(*float, *of);
                *saw_float |= osf;
                *any |= oany;
                Ok(())
            }
            (Accumulator::Avg { sum, count }, Accumulator::Avg { sum: os, count: oc }) => {
                *sum = add_double(*sum, *os);
                *count += oc;
                Ok(())
            }
            (
                Accumulator::MinMax { best, is_min },
                Accumulator::MinMax { best: ob, is_min: oim },
            ) if *is_min == *oim => {
                if let Some(v) = ob {
                    let mut tmp = Accumulator::MinMax { best: best.take(), is_min: *is_min };
                    tmp.add(v);
                    if let Accumulator::MinMax { best: b, .. } = tmp {
                        *best = b;
                    }
                }
                Ok(())
            }
            _ => Err(PrestoError::Internal("merge of mismatched accumulators".into())),
        }
    }

    /// Finish the aggregation.
    pub fn finish(&self) -> Value {
        match self {
            Accumulator::Count { count } => Value::Bigint(*count),
            Accumulator::Sum { int, float, saw_float, any } => {
                if !any {
                    Value::Null
                } else if *saw_float {
                    Value::Double(*float + *int as f64)
                } else {
                    Value::Bigint(*int)
                }
            }
            Accumulator::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *count as f64)
                }
            }
            Accumulator::MinMax { best, .. } => best.clone().unwrap_or(Value::Null),
        }
    }
}

/// `sum + v`, the one addition of every DOUBLE sum and average. Of two
/// NaNs it keeps `v`'s: IEEE 754 leaves the choice open and a compiled `+`
/// makes it either way, so the rule is spelled out for every state to agree
/// to the bit.
fn add_double(sum: f64, v: f64) -> f64 {
    if v.is_nan() {
        v
    } else {
        sum + v
    }
}

/// The `len` rows one [`GroupedAccumulator::update`] adds: the `i`th is row
/// `rows[i]` of the argument (row `i` when `rows` is `None`) and goes to
/// group `ids[i]` (group 0 when `ids` is `None`).
struct Feed<'a> {
    ids: Option<&'a [u32]>,
    rows: Option<&'a [u32]>,
    len: usize,
}

impl Feed<'_> {
    fn row(&self, i: usize) -> usize {
        self.rows.map_or(i, |rows| rows[i] as usize)
    }

    fn group(&self, i: usize) -> usize {
        self.ids.map_or(0, |ids| ids[i] as usize)
    }

    /// `step(&mut state[g], v)` for every fed non-NULL value `v` of a
    /// column, `g` its group. A NULL-free global aggregate steps a local,
    /// so its loop vectorizes wherever `step` allows; a step that leaves
    /// its state alone (most rows of a `min`) stores nothing.
    fn fold<T: Copy, A: Copy>(
        &self,
        values: &[T],
        nulls: &NullMask,
        state: &mut [A],
        step: impl Fn(&mut A, T),
    ) {
        match (nulls, self.ids, self.rows) {
            (None, None, rows) => {
                let mut local = state[0];
                match rows {
                    None => values[..self.len].iter().for_each(|&v| step(&mut local, v)),
                    Some(rows) => rows.iter().for_each(|&r| step(&mut local, values[r as usize])),
                }
                state[0] = local;
            }
            (None, Some(ids), None) => {
                ids.iter().zip(values).for_each(|(&g, &v)| step(&mut state[g as usize], v));
            }
            (None, Some(ids), Some(rows)) => {
                let fed = ids.iter().zip(rows);
                fed.for_each(|(&g, &r)| step(&mut state[g as usize], values[r as usize]));
            }
            (Some(nulls), ..) => {
                for i in 0..self.len {
                    let r = self.row(i);
                    if !nulls[r] {
                        step(&mut state[self.group(i)], values[r]);
                    }
                }
            }
        }
    }
}

/// [`Feed::fold`] over a BIGINT/INTEGER/DATE/TIMESTAMP block widened to
/// `i64`; its NULL mask, or `None` when `block` is none of those.
fn fold_ints<'b, A: Copy>(
    feed: &Feed,
    block: &'b Block,
    state: &mut [A],
    step: impl Fn(&mut A, i64),
) -> Option<&'b NullMask> {
    match block {
        Block::Bigint { values, nulls } | Block::Timestamp { values, nulls } => {
            feed.fold(values, nulls, state, step);
            Some(nulls)
        }
        Block::Integer { values, nulls } | Block::Date { values, nulls } => {
            feed.fold(values, nulls, state, |a, v| step(a, i64::from(v)));
            Some(nulls)
        }
        _ => None,
    }
}

/// The step of a `min`/`max`: `v` replaces the state when `better(v, state)`,
/// and a state left alone is not stored.
fn keep_best<A: Copy, T: Copy + Into<A>>(better: impl Fn(T, A) -> bool) -> impl Fn(&mut A, T) {
    move |best, v| {
        if better(v, *best) {
            *best = v.into();
        }
    }
}

/// Which groups of a sum or an integer `min`/`max` have seen a non-NULL
/// value. It is kept per group only from the first page whose argument
/// holds a NULL: until then every group has had a row of a NULL-free page,
/// so the number of groups says it, and a NOT NULL column folds without
/// writing a flag per row.
#[derive(Debug, Default)]
pub struct Seen {
    /// The groups there were at the last page, while `per_group` is `None`.
    fed: usize,
    /// Per group, from the first page that holds a NULL.
    per_group: Option<Vec<bool>>,
}

impl Seen {
    fn resize(&mut self, groups: usize) {
        if let Some(seen) = &mut self.per_group {
            seen.resize(groups, false);
        }
    }

    /// Record that `feed` added a page whose argument has `nulls` to the
    /// first `groups` groups.
    fn note(&mut self, feed: &Feed, nulls: &NullMask, groups: usize) {
        if nulls.is_some() && self.per_group.is_none() {
            self.per_group = Some((0..groups).map(|g| g < self.fed).collect());
        }
        match &mut self.per_group {
            Some(seen) => {
                for i in 0..feed.len {
                    if nulls.as_ref().is_none_or(|nulls| !nulls[feed.row(i)]) {
                        seen[feed.group(i)] = true;
                    }
                }
            }
            None => self.fed = groups,
        }
    }

    /// NULL where one of `groups` groups saw no value; `None` when all did.
    fn nulls(&self, groups: usize) -> NullMask {
        match &self.per_group {
            Some(seen) => some_if_any(seen.iter().map(|s| !s).collect()),
            None => (self.fed < groups).then(|| (0..groups).map(|g| g >= self.fed).collect()),
        }
    }
}

/// One aggregate's state for *every* group of a hash aggregation, indexed
/// by the dense group id and updated a column at a time — the vectorized
/// form of a `Vec<Accumulator>`, and the one set of aggregate states the
/// executor and the Druid/Pinot store's partial aggregation share.
/// [`Accumulator`] stays the semantic reference (wrapping integer sums,
/// DOUBLE sums added in row order, NaN handling of min/max) and the
/// per-group fallback for everything without a typed form, such as
/// `min`/`max` of VARCHAR.
#[derive(Debug)]
pub enum GroupedAccumulator {
    /// `count(*)`, `count(x)`, or — merging partials — the sum of counts.
    Count {
        /// Per-group count.
        counts: Vec<i64>,
        /// True when the argument column holds partial counts to add up.
        merge: bool,
    },
    /// Wrapping `sum` of an integer column.
    SumInt {
        /// Per-group sum.
        sums: Vec<i64>,
        /// Which groups saw a non-NULL input (else the sum is NULL).
        seen: Seen,
    },
    /// `sum` of a DOUBLE column, added in row order.
    SumDouble {
        /// Per-group sum.
        sums: Vec<f64>,
        /// Which groups saw a non-NULL input.
        seen: Seen,
    },
    /// `avg` of a numeric column in double space.
    Avg {
        /// Per-group running sum and non-NULL count.
        totals: Vec<(f64, i64)>,
    },
    /// `min`/`max` of a BIGINT/INTEGER/DATE/TIMESTAMP column.
    BestInt {
        /// Per-group best value so far, from `i64::MAX` (min) or `i64::MIN`.
        best: Vec<i64>,
        /// Which groups saw a non-NULL input.
        seen: Seen,
        /// True for min, false for max.
        is_min: bool,
        /// The column's (and result's) type.
        data_type: DataType,
    },
    /// `min`/`max` of a DOUBLE column: the first value always lands and an
    /// unordered comparison (NaN) changes nothing, so each group's state
    /// says whether it has a value.
    BestDouble {
        /// Per-group best value so far.
        best: Vec<Option<f64>>,
        /// True for min, false for max.
        is_min: bool,
    },
    /// Anything else: one [`Accumulator`] per group, fed scalars.
    Reference {
        /// The function, for fresh accumulators.
        function: AggregateFunction,
        /// True when a count's argument holds partial counts to add up.
        merge_counts: bool,
        /// Result type.
        output: DataType,
        /// Per-group state.
        states: Vec<Accumulator>,
    },
}

impl GroupedAccumulator {
    /// State for `function` over an argument column of type `argument`
    /// (`None` = `count(*)`), producing `output`. `merge_partials` is the
    /// final step over connector-produced partials, where counts add up.
    pub fn new(
        function: AggregateFunction,
        argument: Option<&DataType>,
        output: &DataType,
        merge_partials: bool,
    ) -> GroupedAccumulator {
        use AggregateFunction::{Avg, Count, CountStar, Max, Min, Sum};
        use DataType::{Bigint, Date, Double, Integer, Timestamp};
        let is_min = function == Min;
        match (function, argument) {
            (Count | CountStar, Some(Bigint | Integer)) if merge_partials => {
                GroupedAccumulator::Count { counts: Vec::new(), merge: true }
            }
            (Count | CountStar, _) if !merge_partials => {
                GroupedAccumulator::Count { counts: Vec::new(), merge: false }
            }
            (Sum, Some(Bigint | Integer)) => {
                GroupedAccumulator::SumInt { sums: Vec::new(), seen: Seen::default() }
            }
            (Sum, Some(Double)) => {
                GroupedAccumulator::SumDouble { sums: Vec::new(), seen: Seen::default() }
            }
            (Avg, Some(Double | Bigint | Integer)) => {
                GroupedAccumulator::Avg { totals: Vec::new() }
            }
            (Min | Max, Some(t @ (Bigint | Integer | Date | Timestamp))) => {
                GroupedAccumulator::BestInt {
                    best: Vec::new(),
                    seen: Seen::default(),
                    is_min,
                    data_type: t.clone(),
                }
            }
            (Min | Max, Some(Double)) => {
                GroupedAccumulator::BestDouble { best: Vec::new(), is_min }
            }
            _ => GroupedAccumulator::Reference {
                function,
                merge_counts: merge_partials && matches!(function, Count | CountStar),
                output: output.clone(),
                states: Vec::new(),
            },
        }
    }

    /// Make room for `groups` groups.
    pub fn resize(&mut self, groups: usize) {
        match self {
            GroupedAccumulator::Count { counts, .. } => counts.resize(groups, 0),
            GroupedAccumulator::SumInt { sums, seen } => {
                sums.resize(groups, 0);
                seen.resize(groups);
            }
            GroupedAccumulator::SumDouble { sums, seen } => {
                sums.resize(groups, 0.0);
                seen.resize(groups);
            }
            GroupedAccumulator::Avg { totals } => totals.resize(groups, (0.0, 0)),
            GroupedAccumulator::BestInt { best, seen, is_min, .. } => {
                best.resize(groups, if *is_min { i64::MAX } else { i64::MIN });
                seen.resize(groups);
            }
            GroupedAccumulator::BestDouble { best, .. } => best.resize(groups, None),
            GroupedAccumulator::Reference { function, states, .. } => {
                states.resize_with(groups, || function.new_accumulator());
            }
        }
    }

    /// Add `len` rows of one page: the `i`th is row `rows[i]` of `argument`
    /// (row `i` when `rows` is `None`; `argument: None` = `count(*)`) and
    /// goes to group `ids[i]`, or to group 0 for a global aggregation
    /// (`ids: None`). Groups must exist ([`Self::resize`]), and every group
    /// added since the last update must get a row of this one.
    pub fn update(
        &mut self,
        ids: Option<&[u32]>,
        argument: Option<&Block>,
        rows: Option<&[u32]>,
        len: usize,
    ) -> Result<()> {
        if len == 0 {
            return Ok(());
        }
        let feed = Feed { ids, rows, len };
        let typed = match (&mut *self, argument) {
            (GroupedAccumulator::Count { counts, merge: false }, block) => {
                let counts = &mut counts[..];
                match (ids, block) {
                    (None, None) => counts[0] += len as i64,
                    (Some(ids), None) => ids.iter().for_each(|&g| counts[g as usize] += 1),
                    (_, Some(b)) => (0..len)
                        .filter(|&i| !b.is_null(feed.row(i)))
                        .for_each(|i| counts[feed.group(i)] += 1),
                }
                true
            }
            (GroupedAccumulator::Reference { merge_counts, states, .. }, block) => {
                for i in 0..len {
                    let state = &mut states[feed.group(i)];
                    match block.map(|b| b.value(feed.row(i))) {
                        None => state.add_count(1),
                        Some(partial) if *merge_counts => {
                            state.add_count(partial.as_i64().unwrap_or(0));
                        }
                        Some(v) => state.add(&v),
                    }
                }
                true
            }
            // a typed state reads a dictionary's fed rows decoded
            (_, Some(Block::Dictionary { dictionary, ids: codes })) => {
                let entries: Vec<usize> = (0..len).map(|i| codes[feed.row(i)] as usize).collect();
                return self.update(ids, Some(&dictionary.take(&entries)), None, len);
            }
            (GroupedAccumulator::Count { counts, merge: true }, Some(block)) => {
                fold_ints(&feed, block, counts, |c, v| *c = c.wrapping_add(v)).is_some()
            }
            (GroupedAccumulator::SumInt { sums, seen }, Some(block)) => {
                let groups = sums.len();
                let nulls = fold_ints(&feed, block, sums, |s, v| *s = s.wrapping_add(v));
                nulls.map(|nulls| seen.note(&feed, nulls, groups)).is_some()
            }
            (
                GroupedAccumulator::SumDouble { sums, seen },
                Some(Block::Double { values, nulls }),
            ) => {
                feed.fold(values, nulls, sums, |s, v| *s = add_double(*s, v));
                seen.note(&feed, nulls, sums.len());
                true
            }
            (GroupedAccumulator::Avg { totals }, Some(block)) => {
                let step = |(sum, count): &mut (f64, i64), v: f64| {
                    *sum = add_double(*sum, v);
                    *count += 1;
                };
                match block {
                    Block::Double { values, nulls } => feed.fold(values, nulls, totals, step),
                    Block::Bigint { values, nulls } => {
                        feed.fold(values, nulls, totals, |a, v| step(a, v as f64));
                    }
                    Block::Integer { values, nulls } => {
                        feed.fold(values, nulls, totals, |a, v| step(a, f64::from(v)));
                    }
                    _ => return Err(mismatch(argument)),
                }
                true
            }
            (GroupedAccumulator::BestInt { best, seen, is_min, .. }, Some(block)) => {
                let groups = best.len();
                let nulls = match is_min {
                    true => fold_ints(&feed, block, best, keep_best(|v, b| v < b)),
                    false => fold_ints(&feed, block, best, keep_best(|v, b| v > b)),
                };
                nulls.map(|nulls| seen.note(&feed, nulls, groups)).is_some()
            }
            (
                GroupedAccumulator::BestDouble { best, is_min },
                Some(Block::Double { values, nulls }),
            ) => {
                // the first value lands; an unordered comparison (NaN)
                // changes nothing
                let (min, max) = (
                    |v, b: Option<f64>| b.is_none_or(|b| v < b),
                    |v, b: Option<f64>| b.is_none_or(|b| v > b),
                );
                match is_min {
                    true => feed.fold(values, nulls, best, keep_best(min)),
                    false => feed.fold(values, nulls, best, keep_best(max)),
                }
                true
            }
            _ => false,
        };
        if typed {
            Ok(())
        } else {
            Err(mismatch(argument))
        }
    }

    /// The finished aggregate of every group, in group-id order: the block
    /// [`Block::from_values`] would build from each [`Accumulator::finish`].
    pub fn finish(self) -> Result<Block> {
        Ok(match self {
            GroupedAccumulator::Count { counts, .. } => Block::bigint(counts),
            GroupedAccumulator::SumInt { sums, seen } => {
                Block::Bigint { nulls: seen.nulls(sums.len()), values: sums }
            }
            GroupedAccumulator::SumDouble { sums, seen } => {
                Block::Double { nulls: seen.nulls(sums.len()), values: sums }
            }
            GroupedAccumulator::Avg { totals } => Block::Double {
                values: totals
                    .iter()
                    .map(|&(sum, count)| if count == 0 { 0.0 } else { sum / count as f64 })
                    .collect(),
                nulls: some_if_any(totals.iter().map(|&(_, count)| count == 0).collect()),
            },
            GroupedAccumulator::BestInt { mut best, seen, data_type, .. } => {
                let nulls = seen.nulls(best.len());
                // a group that saw nothing holds 0, as `from_values` builds
                for (b, _) in best.iter_mut().zip(nulls.iter().flatten()).filter(|(_, &n)| n) {
                    *b = 0;
                }
                match data_type {
                    DataType::Bigint => Block::Bigint { values: best, nulls },
                    DataType::Timestamp => Block::Timestamp { values: best, nulls },
                    // values came from an `i32` column, so the cast is exact
                    DataType::Integer => {
                        Block::Integer { values: best.iter().map(|&v| v as i32).collect(), nulls }
                    }
                    _ => Block::Date { values: best.iter().map(|&v| v as i32).collect(), nulls },
                }
            }
            GroupedAccumulator::BestDouble { best, .. } => Block::Double {
                values: best.iter().map(|b| b.unwrap_or(0.0)).collect(),
                nulls: some_if_any(best.iter().map(Option::is_none).collect()),
            },
            GroupedAccumulator::Reference { output, states, .. } => {
                let values: Vec<Value> = states.iter().map(Accumulator::finish).collect();
                Block::from_values(&output, &values)?
            }
        })
    }
}

/// The error for an argument column of another type than its state's.
fn mismatch(argument: Option<&Block>) -> PrestoError {
    PrestoError::Internal(format!(
        "aggregate argument of type {:?} does not match its declared state",
        argument.map(Block::data_type)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let mut c = AggregateFunction::Count.new_accumulator();
        c.add(&Value::Bigint(1));
        c.add(&Value::Null);
        assert_eq!(c.finish(), Value::Bigint(1));

        let mut cs = AggregateFunction::CountStar.new_accumulator();
        cs.add_count(5);
        assert_eq!(cs.finish(), Value::Bigint(5));
    }

    #[test]
    fn sum_is_typed_and_null_on_empty() {
        let mut s = AggregateFunction::Sum.new_accumulator();
        assert_eq!(s.finish(), Value::Null);
        s.add(&Value::Bigint(2));
        s.add(&Value::Bigint(3));
        assert_eq!(s.finish(), Value::Bigint(5));
        s.add(&Value::Double(0.5));
        assert_eq!(s.finish(), Value::Double(5.5));
    }

    #[test]
    fn min_max_and_avg() {
        let mut mn = AggregateFunction::Min.new_accumulator();
        let mut mx = AggregateFunction::Max.new_accumulator();
        for v in [Value::Bigint(3), Value::Null, Value::Bigint(-1), Value::Bigint(10)] {
            mn.add(&v);
            mx.add(&v);
        }
        assert_eq!(mn.finish(), Value::Bigint(-1));
        assert_eq!(mx.finish(), Value::Bigint(10));

        let mut avg = AggregateFunction::Avg.new_accumulator();
        avg.add(&Value::Bigint(1));
        avg.add(&Value::Bigint(2));
        assert_eq!(avg.finish(), Value::Double(1.5));
    }

    #[test]
    fn partial_final_merge_equals_single_pass() {
        // the Fig. 2 split: connector computes partials, engine merges
        let data: Vec<i64> = (0..100).collect();
        let mut single = AggregateFunction::Sum.new_accumulator();
        for &v in &data {
            single.add(&Value::Bigint(v));
        }
        let mut part1 = AggregateFunction::Sum.new_accumulator();
        let mut part2 = AggregateFunction::Sum.new_accumulator();
        for &v in &data[..50] {
            part1.add(&Value::Bigint(v));
        }
        for &v in &data[50..] {
            part2.add(&Value::Bigint(v));
        }
        part1.merge(&part2).unwrap();
        assert_eq!(part1.finish(), single.finish());

        let mut mn1 = AggregateFunction::Min.new_accumulator();
        let mut mn2 = AggregateFunction::Min.new_accumulator();
        mn1.add(&Value::Bigint(5));
        mn2.add(&Value::Bigint(2));
        mn1.merge(&mn2).unwrap();
        assert_eq!(mn1.finish(), Value::Bigint(2));

        let bad = AggregateFunction::Count.new_accumulator();
        let mut s = AggregateFunction::Sum.new_accumulator();
        assert!(s.merge(&bad).is_err());
    }

    #[test]
    fn grouped_state_equals_one_accumulator_per_group() {
        use AggregateFunction::*;
        let nan = f64::NAN;
        let columns: Vec<(DataType, Vec<Value>)> = vec![
            (
                DataType::Bigint,
                vec![3i64.into(), Value::Null, i64::MAX.into(), 1i64.into(), 5i64.into()],
            ),
            (
                DataType::Integer,
                vec![3i32.into(), (-1i32).into(), Value::Null, 0i32.into(), 9i32.into()],
            ),
            (
                DataType::Double,
                vec![0.1.into(), 0.2.into(), nan.into(), Value::Null, (-0.0).into()],
            ),
            (DataType::Varchar, vec!["b".into(), Value::Null, "a".into(), "c".into(), "".into()]),
            (
                DataType::Date,
                vec![Value::Date(4), Value::Date(-4), Value::Null, Value::Date(0), Value::Null],
            ),
            (DataType::Double, vec![Value::Null; 5]),
        ];
        // rows → groups 0,1,0,2,1; group 3 sees nothing
        let ids = [0u32, 1, 0, 2, 1];
        for (data_type, values) in &columns {
            let plain = Block::from_values(data_type, values).unwrap();
            let dict = Block::Dictionary {
                dictionary: Box::new(plain.clone()),
                ids: (0..values.len() as u32).collect(),
            };
            for function in [CountStar, Count, Sum, Avg, Min, Max] {
                let argument = (function != CountStar).then_some(data_type);
                let Ok(output) = function.return_type(argument) else { continue };
                for (block, grouped) in [(&plain, true), (&dict, true), (&plain, false)] {
                    let groups = if grouped { 4 } else { 1 };
                    let mut state = GroupedAccumulator::new(function, argument, &output, false);
                    let mut reference = vec![function.new_accumulator(); groups];
                    for _page in 0..2 {
                        state.resize(groups);
                        let argument = argument.map(|_| block);
                        state
                            .update(grouped.then_some(&ids[..]), argument, None, values.len())
                            .unwrap();
                        for (i, v) in values.iter().enumerate() {
                            let acc = &mut reference[if grouped { ids[i] as usize } else { 0 }];
                            match argument {
                                None => acc.add_count(1),
                                Some(_) => acc.add(v),
                            }
                        }
                    }
                    let expected: Vec<Value> = reference.iter().map(Accumulator::finish).collect();
                    let expected = Block::from_values(&output, &expected).unwrap();
                    let what = format!("{function:?} over {data_type}, grouped: {grouped}");
                    assert_eq!(
                        format!("{:?}", state.finish().unwrap()),
                        format!("{expected:?}"),
                        "{what}"
                    );
                }
            }
        }

        // the final step adds partial counts up instead of counting them
        let partials =
            Block::from_values(&DataType::Bigint, &[2i64.into(), Value::Null, 3i64.into()])
                .unwrap();
        let mut merged =
            GroupedAccumulator::new(Count, Some(&DataType::Bigint), &DataType::Bigint, true);
        merged.resize(2);
        merged.update(Some(&[1, 1, 1]), Some(&partials), None, 3).unwrap();
        assert_eq!(merged.finish().unwrap(), Block::bigint(vec![0, 5]));
        // a column of another type than declared is an error, not a guess
        let mut sum =
            GroupedAccumulator::new(Sum, Some(&DataType::Double), &DataType::Double, false);
        sum.resize(1);
        assert!(sum.update(None, Some(&partials), None, 3).is_err());
    }

    /// The state's variant; a count that merges partials is its own.
    fn variant(state: &GroupedAccumulator) -> String {
        match state {
            GroupedAccumulator::Count { merge: true, .. } => "Count(merge)".into(),
            other => format!("{other:?}").split([' ', '{']).next().unwrap_or("").into(),
        }
    }

    #[test]
    fn selected_rows_equal_the_gathered_rows() {
        use AggregateFunction::*;
        let ts = Value::Timestamp;
        let columns: Vec<(DataType, Vec<Value>)> = vec![
            (
                DataType::Bigint,
                vec![
                    3i64.into(),
                    Value::Null,
                    i64::MAX.into(),
                    1i64.into(),
                    5i64.into(),
                    9i64.into(),
                ],
            ),
            // NOT NULL columns take the flag-free folds
            (
                DataType::Bigint,
                vec![
                    3i64.into(),
                    4i64.into(),
                    i64::MAX.into(),
                    1i64.into(),
                    5i64.into(),
                    9i64.into(),
                ],
            ),
            (
                DataType::Integer,
                vec![
                    3i32.into(),
                    1i32.into(),
                    Value::Null,
                    0i32.into(),
                    9i32.into(),
                    i32::MIN.into(),
                ],
            ),
            (
                DataType::Double,
                vec![
                    0.1.into(),
                    f64::NAN.into(),
                    (-0.0).into(),
                    Value::Null,
                    2.5.into(),
                    1e300.into(),
                ],
            ),
            (
                DataType::Double,
                vec![
                    0.1.into(),
                    0.2.into(),
                    (-0.0).into(),
                    f64::NAN.into(),
                    2.5.into(),
                    (-1.0).into(),
                ],
            ),
            (DataType::Timestamp, vec![ts(4), ts(-4), ts(0), Value::Null, ts(9), ts(1)]),
            (
                DataType::Varchar,
                vec!["b".into(), Value::Null, "a".into(), "c".into(), "".into(), "a".into()],
            ),
        ];
        // out of order, repeated, rows 1 and 3 skipped
        let rows = [4u32, 0, 2, 2, 5, 0];
        let ids = [1u32, 0, 1, 2, 0, 2];
        let gathered_rows: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
        let mut variants = std::collections::BTreeSet::new();
        for (data_type, values) in &columns {
            let plain = Block::from_values(data_type, values).unwrap();
            // entries in reverse row order, and one no row uses
            let mut entries: Vec<Value> = values.iter().rev().cloned().collect();
            entries.push(values[0].clone());
            let dict = Block::Dictionary {
                dictionary: Box::new(Block::from_values(data_type, &entries).unwrap()),
                ids: (0..values.len() as u32).rev().collect(),
            };
            for (function, merge) in [
                (CountStar, false),
                (Count, false),
                (Count, true),
                (Sum, false),
                (Avg, false),
                (Min, false),
                (Max, false),
            ] {
                let argument = (function != CountStar).then_some(data_type);
                let Ok(output) = function.return_type(argument) else { continue };
                for (block, grouped) in
                    [(&plain, true), (&dict, true), (&plain, false), (&dict, false)]
                {
                    let (ids, groups) = if grouped { (Some(&ids[..]), 3) } else { (None, 1) };
                    let mut selected = GroupedAccumulator::new(function, argument, &output, merge);
                    let mut gathered = GroupedAccumulator::new(function, argument, &output, merge);
                    variants.insert(variant(&selected));
                    selected.resize(groups);
                    gathered.resize(groups);
                    let taken = block.take(&gathered_rows);
                    let (block, taken) = (argument.map(|_| block), argument.map(|_| &taken));
                    selected.update(ids, block, Some(&rows), rows.len()).unwrap();
                    gathered.update(ids, taken, None, rows.len()).unwrap();
                    assert_eq!(
                        format!("{:?}", selected.finish().unwrap()),
                        format!("{:?}", gathered.finish().unwrap()),
                        "{function:?} (merge: {merge}) over {block:?}, grouped: {grouped}"
                    );
                }
            }
        }
        let every = [
            "Avg",
            "BestDouble",
            "BestInt",
            "Count",
            "Count(merge)",
            "Reference",
            "SumDouble",
            "SumInt",
        ];
        assert_eq!(variants.into_iter().collect::<Vec<_>>(), every);
    }

    /// Sums and integer min/max write no per-row flag while their pages are
    /// NULL-free, and keep one per group from the first page that holds a
    /// NULL. Either way each group finishes as one accumulator per group
    /// does: a group whose rows were all NULL, and one added but never fed,
    /// finish NULL.
    #[test]
    fn the_seen_flag_is_kept_per_group_from_the_first_page_with_a_null() {
        use AggregateFunction::*;
        // group ids, values, groups so far
        type Fed = (&'static [u32], &'static [Option<i64>], usize);
        let pages: [Fed; 4] = [
            (&[0, 1, 0], &[Some(1), Some(-2), Some(3)], 2),
            (&[1, 0], &[Some(4), Some(i64::MAX)], 2),
            // group 2 sees only NULLs, group 1 a NULL after its values
            (&[2, 1, 2, 3], &[None, None, None, Some(7)], 4),
            (&[4, 0], &[Some(5), Some(6)], 5),
        ];
        for data_type in [DataType::Bigint, DataType::Integer, DataType::Double] {
            let value = |v: Option<i64>| match (v, &data_type) {
                (None, _) => Value::Null,
                (Some(x), DataType::Bigint) => Value::Bigint(x),
                (Some(x), DataType::Integer) => Value::Integer(x as i32),
                (Some(x), _) => Value::Double(x as f64),
            };
            for function in [CountStar, Count, Sum, Avg, Min, Max] {
                for grouped in [true, false] {
                    let argument = (function != CountStar).then_some(&data_type);
                    let output = function.return_type(argument).unwrap();
                    let mut state = GroupedAccumulator::new(function, argument, &output, false);
                    // a sixth group is added and never fed
                    let groups = |n: usize| if grouped { n } else { 1 };
                    let mut reference = vec![function.new_accumulator(); groups(6)];
                    for (ids, values, n) in pages {
                        let values: Vec<Value> = values.iter().map(|&v| value(v)).collect();
                        let block = Block::from_values(&data_type, &values).unwrap();
                        state.resize(groups(n));
                        let fed = grouped.then_some(ids);
                        state.update(fed, argument.map(|_| &block), None, ids.len()).unwrap();
                        for (&g, v) in ids.iter().zip(&values) {
                            let acc = &mut reference[if grouped { g as usize } else { 0 }];
                            match argument {
                                None => acc.add_count(1),
                                Some(_) => acc.add(v),
                            }
                        }
                    }
                    state.resize(groups(6));
                    let expected: Vec<Value> = reference.iter().map(Accumulator::finish).collect();
                    let expected = Block::from_values(&output, &expected).unwrap();
                    assert_eq!(
                        format!("{:?}", state.finish().unwrap()),
                        format!("{expected:?}"),
                        "{function:?} over {data_type}, grouped: {grouped}"
                    );
                }
            }
        }

        // a global aggregate over zero rows: count 0, everything else NULL
        let int = DataType::Bigint;
        for (function, expected) in [
            (CountStar, Value::Bigint(0)),
            (Count, Value::Bigint(0)),
            (Sum, Value::Null),
            (Avg, Value::Null),
            (Min, Value::Null),
        ] {
            let argument = (function != CountStar).then_some(&int);
            let output = function.return_type(argument).unwrap();
            let mut state = GroupedAccumulator::new(function, argument, &output, false);
            state.resize(1);
            assert_eq!(state.finish().unwrap().value(0), expected, "{function:?}");
        }
        // a NULL-free global sum has no mask at all
        let mut sum = GroupedAccumulator::new(Sum, Some(&int), &int, false);
        sum.resize(1);
        sum.update(None, Some(&Block::bigint(vec![1, 2, 3])), None, 3).unwrap();
        assert_eq!(sum.finish().unwrap(), Block::bigint(vec![6]));
    }

    #[test]
    fn return_types() {
        assert_eq!(
            AggregateFunction::Sum.return_type(Some(&DataType::Integer)).unwrap(),
            DataType::Bigint
        );
        assert_eq!(
            AggregateFunction::Sum.return_type(Some(&DataType::Double)).unwrap(),
            DataType::Double
        );
        assert_eq!(
            AggregateFunction::Min.return_type(Some(&DataType::Varchar)).unwrap(),
            DataType::Varchar
        );
        assert!(AggregateFunction::Sum.return_type(Some(&DataType::Varchar)).is_err());
        assert_eq!(AggregateFunction::CountStar.return_type(None).unwrap(), DataType::Bigint);
        assert_eq!(AggregateFunction::from_name("avg"), Some(AggregateFunction::Avg));
        assert_eq!(AggregateFunction::from_name("median"), None);
    }
}
