//! Aggregate functions shared by the execution engine's hash aggregation and
//! connector **aggregation pushdown** (§IV.B, Fig. 2): when a connector
//! advertises the capability, the partial aggregation runs inside the
//! connector (Druid/Pinot) and only aggregated rows stream into Presto.

use presto_common::block::NullMask;
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
                    *float += x;
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
                    *sum += x;
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
                *float += of;
                *saw_float |= osf;
                *any |= oany;
                Ok(())
            }
            (Accumulator::Avg { sum, count }, Accumulator::Avg { sum: os, count: oc }) => {
                *sum += os;
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

/// Feed every non-NULL value of a typed column to `f` with its row's group
/// (`ids: None` = a global aggregation, every row in group 0).
fn fold<T: Copy>(ids: Option<&[u32]>, values: &[T], nulls: &NullMask, mut f: impl FnMut(usize, T)) {
    match (ids, nulls) {
        (None, None) => values.iter().for_each(|&v| f(0, v)),
        (Some(ids), None) => ids.iter().zip(values).for_each(|(&g, &v)| f(g as usize, v)),
        (_, Some(nulls)) => {
            for (i, (&v, _)) in values.iter().zip(nulls).enumerate().filter(|(_, (_, n))| !**n) {
                f(ids.map_or(0, |ids| ids[i] as usize), v);
            }
        }
    }
}

/// [`fold`] over a BIGINT/INTEGER/DATE/TIMESTAMP block widened to `i64`;
/// `false` when `block` is none of those.
fn fold_ints(ids: Option<&[u32]>, block: &Block, mut f: impl FnMut(usize, i64)) -> bool {
    match block {
        Block::Bigint { values, nulls } | Block::Timestamp { values, nulls } => {
            fold(ids, values, nulls, f)
        }
        Block::Integer { values, nulls } | Block::Date { values, nulls } => {
            fold(ids, values, nulls, |g, v| f(g, i64::from(v)))
        }
        _ => return false,
    }
    true
}

/// [`fold`] over a DOUBLE/BIGINT/INTEGER block widened to `f64` the way
/// [`Value::as_f64`] does; `false` when `block` is none of those.
fn fold_floats(ids: Option<&[u32]>, block: &Block, mut f: impl FnMut(usize, f64)) -> bool {
    match block {
        Block::Double { values, nulls } => fold(ids, values, nulls, f),
        Block::Bigint { values, nulls } => fold(ids, values, nulls, |g, v| f(g, v as f64)),
        Block::Integer { values, nulls } => fold(ids, values, nulls, |g, v| f(g, f64::from(v))),
        _ => return false,
    }
    true
}

/// `best[g]` ← the smaller (or larger) of itself and `v`. Like
/// [`Accumulator::MinMax`], the first value always lands and an unordered
/// comparison (NaN) changes nothing.
fn keep_best<T: Copy + PartialOrd>(best: &mut T, seen: &mut bool, v: T, is_min: bool) {
    if !*seen || (if is_min { v < *best } else { v > *best }) {
        *best = v;
        *seen = true;
    }
}

/// One aggregate's state for *every* group of a hash aggregation, indexed
/// by the dense group id and updated a column at a time — the vectorized
/// form of a `Vec<Accumulator>`. [`Accumulator`] stays the semantic
/// reference (wrapping integer sums, DOUBLE sums added in row order, NaN
/// handling of min/max) and the per-group fallback for everything without
/// a typed form, such as `min`/`max` of VARCHAR.
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
        /// Per-group: any non-NULL input yet (else the sum is NULL).
        any: Vec<bool>,
    },
    /// `sum` of a DOUBLE column, added in row order.
    SumDouble {
        /// Per-group sum.
        sums: Vec<f64>,
        /// Per-group: any non-NULL input yet.
        any: Vec<bool>,
    },
    /// `avg` of a numeric column in double space.
    Avg {
        /// Per-group running sum.
        sums: Vec<f64>,
        /// Per-group non-NULL count.
        counts: Vec<i64>,
    },
    /// `min`/`max` of a BIGINT/INTEGER/DATE/TIMESTAMP column.
    BestInt {
        /// Per-group best value so far.
        best: Vec<i64>,
        /// Per-group: any non-NULL input yet.
        seen: Vec<bool>,
        /// True for min, false for max.
        is_min: bool,
        /// The column's (and result's) type.
        data_type: DataType,
    },
    /// `min`/`max` of a DOUBLE column.
    BestDouble {
        /// Per-group best value so far.
        best: Vec<f64>,
        /// Per-group: any non-NULL input yet.
        seen: Vec<bool>,
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
                GroupedAccumulator::SumInt { sums: Vec::new(), any: Vec::new() }
            }
            (Sum, Some(Double)) => {
                GroupedAccumulator::SumDouble { sums: Vec::new(), any: Vec::new() }
            }
            (Avg, Some(Double | Bigint | Integer)) => {
                GroupedAccumulator::Avg { sums: Vec::new(), counts: Vec::new() }
            }
            (Min | Max, Some(t @ (Bigint | Integer | Date | Timestamp))) => {
                GroupedAccumulator::BestInt {
                    best: Vec::new(),
                    seen: Vec::new(),
                    is_min,
                    data_type: t.clone(),
                }
            }
            (Min | Max, Some(Double)) => {
                GroupedAccumulator::BestDouble { best: Vec::new(), seen: Vec::new(), is_min }
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
            GroupedAccumulator::SumInt { sums, any } => {
                sums.resize(groups, 0);
                any.resize(groups, false);
            }
            GroupedAccumulator::SumDouble { sums, any } => {
                sums.resize(groups, 0.0);
                any.resize(groups, false);
            }
            GroupedAccumulator::Avg { sums, counts } => {
                sums.resize(groups, 0.0);
                counts.resize(groups, 0);
            }
            GroupedAccumulator::BestInt { best, seen, .. } => {
                best.resize(groups, 0);
                seen.resize(groups, false);
            }
            GroupedAccumulator::BestDouble { best, seen, .. } => {
                best.resize(groups, 0.0);
                seen.resize(groups, false);
            }
            GroupedAccumulator::Reference { function, states, .. } => {
                states.resize_with(groups, || function.new_accumulator());
            }
        }
    }

    /// Add one page: row `i` of `argument` (`None` = `count(*)`, which
    /// counts `rows` rows) goes to group `ids[i]`, or to group 0 for a
    /// global aggregation (`ids: None`). Groups must exist ([`Self::resize`]).
    pub fn update(
        &mut self,
        ids: Option<&[u32]>,
        argument: Option<&Block>,
        rows: usize,
    ) -> Result<()> {
        let decoded;
        let argument = match argument {
            Some(dict @ Block::Dictionary { .. }) => {
                decoded = dict.decode_dictionary();
                Some(&decoded)
            }
            other => other,
        };
        let group = |i: usize| ids.map_or(0, |ids| ids[i] as usize);
        let typed = match (&mut *self, argument) {
            (GroupedAccumulator::Count { counts, merge: false }, block) => {
                match (ids, block) {
                    (None, None) => counts[0] += rows as i64,
                    (Some(ids), None) => ids.iter().for_each(|&g| counts[g as usize] += 1),
                    (_, Some(b)) => {
                        (0..rows).filter(|&i| !b.is_null(i)).for_each(|i| counts[group(i)] += 1);
                    }
                }
                true
            }
            (GroupedAccumulator::Count { counts, merge: true }, Some(block)) => {
                fold_ints(ids, block, |g, v| counts[g] = counts[g].wrapping_add(v))
            }
            (GroupedAccumulator::SumInt { sums, any }, Some(block)) => {
                fold_ints(ids, block, |g, v| {
                    sums[g] = sums[g].wrapping_add(v);
                    any[g] = true;
                })
            }
            (
                GroupedAccumulator::SumDouble { sums, any },
                Some(Block::Double { values, nulls }),
            ) => {
                fold(ids, values, nulls, |g, v| {
                    sums[g] += v;
                    any[g] = true;
                });
                true
            }
            (GroupedAccumulator::Avg { sums, counts }, Some(block)) => {
                fold_floats(ids, block, |g, v| {
                    sums[g] += v;
                    counts[g] += 1;
                })
            }
            (GroupedAccumulator::BestInt { best, seen, is_min, .. }, Some(block)) => {
                fold_ints(ids, block, |g, v| keep_best(&mut best[g], &mut seen[g], v, *is_min))
            }
            (
                GroupedAccumulator::BestDouble { best, seen, is_min },
                Some(Block::Double { values, nulls }),
            ) => {
                fold(ids, values, nulls, |g, v| keep_best(&mut best[g], &mut seen[g], v, *is_min));
                true
            }
            (GroupedAccumulator::Reference { merge_counts, states, .. }, block) => {
                for i in 0..rows {
                    let state = &mut states[group(i)];
                    match block.map(|b| b.value(i)) {
                        None => state.add_count(1),
                        Some(partial) if *merge_counts => {
                            state.add_count(partial.as_i64().unwrap_or(0));
                        }
                        Some(v) => state.add(&v),
                    }
                }
                true
            }
            _ => false,
        };
        if typed {
            Ok(())
        } else {
            Err(PrestoError::Internal(format!(
                "aggregate argument of type {:?} does not match its declared state",
                argument.map(Block::data_type)
            )))
        }
    }

    /// The finished aggregate of every group, in group-id order: the block
    /// [`Block::from_values`] would build from each [`Accumulator::finish`].
    pub fn finish(self) -> Result<Block> {
        // NULL where a group saw no value; `None` when every group did
        let unseen = |seen: Vec<bool>| -> NullMask {
            seen.contains(&false).then(|| seen.into_iter().map(|s| !s).collect())
        };
        Ok(match self {
            GroupedAccumulator::Count { counts, .. } => Block::bigint(counts),
            GroupedAccumulator::SumInt { sums, any } => {
                Block::Bigint { values: sums, nulls: unseen(any) }
            }
            GroupedAccumulator::SumDouble { sums, any } => {
                Block::Double { values: sums, nulls: unseen(any) }
            }
            GroupedAccumulator::Avg { sums, counts } => Block::Double {
                values: sums
                    .iter()
                    .zip(&counts)
                    .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                    .collect(),
                nulls: unseen(counts.iter().map(|&c| c != 0).collect()),
            },
            GroupedAccumulator::BestInt { best, seen, data_type, .. } => {
                let nulls = unseen(seen);
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
            GroupedAccumulator::BestDouble { best, seen, .. } => {
                Block::Double { values: best, nulls: unseen(seen) }
            }
            GroupedAccumulator::Reference { output, states, .. } => {
                let values: Vec<Value> = states.iter().map(Accumulator::finish).collect();
                Block::from_values(&output, &values)?
            }
        })
    }
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
                        state.update(grouped.then_some(&ids[..]), argument, values.len()).unwrap();
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
        merged.update(Some(&[1, 1, 1]), Some(&partials), 3).unwrap();
        assert_eq!(merged.finish().unwrap(), Block::bigint(vec![0, 5]));
        // a column of another type than declared is an error, not a guess
        let mut sum =
            GroupedAccumulator::new(Sum, Some(&DataType::Double), &DataType::Double, false);
        sum.resize(1);
        assert!(sum.update(None, Some(&partials), 3).is_err());
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
