//! Row-at-a-time references the typed executor is checked against: the
//! algorithms it ran before it went typed — a `HashMap<Vec<Value>, _>` per
//! aggregation, a nested loop per join — over boxed rows, with every order
//! `Value::total_cmp` (numbers < NaN < NULL). Each test binary that uses
//! them includes this file by path.

#![allow(dead_code)]

use std::collections::HashMap;

use presto_common::Value;
use presto_expr::{Accumulator, AggregateFunction, Evaluator, FunctionRegistry, RowExpression};
use presto_plan::logical::{AggregateStep, JoinKind};

/// Rows as text to the bit: `{:?}` prints every NaN alike, so each NaN's
/// bits follow, in order.
pub fn exact(rows: &[Vec<Value>]) -> String {
    let nans = rows.iter().flatten().filter_map(|v| match v {
        Value::Double(x) if x.is_nan() => Some(x.to_bits()),
        _ => None,
    });
    format!("{rows:?}, NaNs {:x?}", nans.collect::<Vec<_>>())
}

/// Rows compared column by column under `Value::total_cmp`, a column
/// flagged in `descending` reversed.
pub fn cmp_keys(a: &[Value], b: &[Value], descending: &[bool]) -> std::cmp::Ordering {
    a.iter()
        .zip(b)
        .zip(descending)
        .map(|((x, y), desc)| if *desc { x.total_cmp(y).reverse() } else { x.total_cmp(y) })
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// Rows that [`cmp_keys`] calls equal, told apart by the bits of their
/// DOUBLE values, column by column.
pub fn cmp_bits(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    let bits = |v: &Value| match v {
        Value::Double(x) => Some(x.to_bits()),
        _ => None,
    };
    a.iter()
        .zip(b)
        .map(|(x, y)| bits(x).cmp(&bits(y)))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// Hash aggregation one boxed row at a time; groups sorted as whole rows
/// (key, then aggregates), then by the bits of their doubles ([`cmp_bits`]),
/// what still ties in first-seen order.
pub fn reference_aggregate(
    rows: &[Vec<Value>],
    keys: &[usize],
    aggregates: &[(AggregateFunction, Option<usize>)],
    step: AggregateStep,
) -> Vec<Vec<Value>> {
    let fresh = || aggregates.iter().map(|(f, _)| f.new_accumulator()).collect::<Vec<_>>();
    let mut groups: HashMap<Vec<Value>, (usize, Vec<Accumulator>)> = HashMap::new();
    for row in rows {
        let key: Vec<Value> = keys.iter().map(|&k| row[k].clone()).collect();
        let seen = groups.len();
        let (_, accs) = groups.entry(key).or_insert_with(|| (seen, fresh()));
        for (acc, (function, argument)) in accs.iter_mut().zip(aggregates) {
            match (step, argument.map(|c| &row[c])) {
                (AggregateStep::Single, None) => acc.add_count(1),
                (AggregateStep::Single, Some(v)) => acc.add(v),
                (AggregateStep::FinalOverPartial, Some(partial)) => match function {
                    AggregateFunction::Count | AggregateFunction::CountStar => {
                        acc.add_count(partial.as_i64().unwrap_or(0));
                    }
                    _ => acc.add(partial),
                },
                (AggregateStep::FinalOverPartial, None) => unreachable!("not generated"),
            }
        }
    }
    if groups.is_empty() && keys.is_empty() {
        groups.insert(Vec::new(), (0, fresh()));
    }
    let mut out: Vec<(usize, Vec<Value>)> = groups
        .into_iter()
        .map(|(mut key, (seen, accs))| {
            key.extend(accs.iter().map(Accumulator::finish));
            (seen, key)
        })
        .collect();
    let ascending = vec![false; keys.len() + aggregates.len()];
    out.sort_by(|a, b| {
        cmp_keys(&a.1, &b.1, &ascending).then_with(|| cmp_bits(&a.1, &b.1)).then(a.0.cmp(&b.0))
    });
    out.into_iter().map(|(_, row)| row).collect()
}

/// Nested-loop equi-join of each page of `probe` against the rows of
/// `build` (`build_width` columns): a probe page's matches by (probe row,
/// build row), then — LEFT — its unmatched rows null-extended. Two keys
/// are equal exactly when `Value::sql_cmp` says so; the residual sees the
/// probe row's values, then the build row's.
pub fn reference_join(
    probe: &[Vec<Vec<Value>>],
    build: &[Vec<Value>],
    build_width: usize,
    kind: JoinKind,
    on: &[(usize, usize)],
    residual: Option<&RowExpression>,
) -> Vec<Vec<Vec<Value>>> {
    let evaluator = Evaluator::new(FunctionRegistry::new());
    let mut out = Vec::new();
    for page in probe {
        let (mut matched, mut unmatched) = (Vec::new(), Vec::new());
        for left in page {
            let before = matched.len();
            for right in build {
                let equal = |&(l, r): &(usize, usize)| {
                    left[l].sql_cmp(&right[r]) == Some(std::cmp::Ordering::Equal)
                };
                if !on.iter().all(equal) {
                    continue;
                }
                let pair: Vec<Value> = left.iter().chain(right).cloned().collect();
                let passes =
                    |expr| evaluator.evaluate_scalar(expr, &pair).unwrap() == Value::Boolean(true);
                if residual.is_none_or(passes) {
                    matched.push(pair);
                }
            }
            if matched.len() == before && kind == JoinKind::Left {
                let nulls = std::iter::repeat_n(Value::Null, build_width);
                unmatched.push(left.iter().cloned().chain(nulls).collect());
            }
        }
        matched.extend(unmatched);
        if !matched.is_empty() {
            out.push(matched);
        }
    }
    out
}
