//! Reader-level predicates — the currency of predicate pushdown (§V.F) and
//! dictionary pushdown (§V.G).
//!
//! The engine's optimizer translates eligible `RowExpression` conjuncts into
//! these simple per-leaf predicates and hands them to the new reader, which
//! uses them three ways: (1) against footer min/max statistics to skip row
//! groups; (2) against dictionary pages to skip row groups whose dictionary
//! cannot match; (3) row-by-row while scanning, to drive lazy reads.

use presto_common::{Result, Value};

use crate::metadata::ColumnStats;
use crate::shred::{LeafData, LeafValues};

/// A predicate over one scalar leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarPredicate {
    /// `leaf = value`
    Eq(Value),
    /// `leaf IN (values)`
    In(Vec<Value>),
    /// `min <= leaf <= max` (either bound optional, inclusive)
    Range {
        /// Inclusive lower bound.
        min: Option<Value>,
        /// Inclusive upper bound.
        max: Option<Value>,
    },
}

impl ScalarPredicate {
    /// Row-level evaluation; NULL never matches (SQL filter semantics).
    pub fn matches(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        match self {
            ScalarPredicate::Eq(target) => v.sql_cmp(target) == Some(std::cmp::Ordering::Equal),
            ScalarPredicate::In(targets) => {
                targets.iter().any(|t| v.sql_cmp(t) == Some(std::cmp::Ordering::Equal))
            }
            ScalarPredicate::Range { min, max } => {
                if let Some(lo) = min {
                    match v.sql_cmp(lo) {
                        Some(std::cmp::Ordering::Less) | None => return false,
                        _ => {}
                    }
                }
                if let Some(hi) = max {
                    match v.sql_cmp(hi) {
                        Some(std::cmp::Ordering::Greater) | None => return false,
                        _ => {}
                    }
                }
                true
            }
        }
    }

    /// Can any row in a chunk with these statistics match? `false` means the
    /// whole row group can be skipped (Fig 7: "one row group city_id max is
    /// 10, new Parquet reader will skip this row group" for `city_id = 12`).
    pub fn maybe_matches_stats(&self, stats: &ColumnStats, num_triplets: u64) -> bool {
        // An all-null chunk can never match.
        if stats.null_count >= num_triplets {
            return false;
        }
        let (min, max) = match (&stats.min, &stats.max) {
            (Some(min), Some(max)) => (min, max),
            // No stats recorded — must read.
            _ => return true,
        };
        let value_in_bounds = |v: &Value| -> bool {
            matches!(
                v.sql_cmp(min),
                Some(std::cmp::Ordering::Greater) | Some(std::cmp::Ordering::Equal)
            ) && matches!(
                v.sql_cmp(max),
                Some(std::cmp::Ordering::Less) | Some(std::cmp::Ordering::Equal)
            )
        };
        match self {
            ScalarPredicate::Eq(v) => value_in_bounds(v),
            ScalarPredicate::In(vs) => vs.iter().any(value_in_bounds),
            ScalarPredicate::Range { min: lo, max: hi } => {
                // [lo, hi] must intersect [min, max]
                if let Some(lo) = lo {
                    if lo.sql_cmp(max) == Some(std::cmp::Ordering::Greater) {
                        return false;
                    }
                }
                if let Some(hi) = hi {
                    if hi.sql_cmp(min) == Some(std::cmp::Ordering::Less) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Can any dictionary entry match? `false` lets dictionary pushdown skip
    /// the row group even when min/max statistics were inconclusive (Fig 8:
    /// "the dictionary includes the IDs 3, 5, 9, 14, 21" for `city_id = 12`).
    pub fn matches_any_in_dictionary(
        &self,
        dict: &LeafValues,
        logical: &presto_common::DataType,
    ) -> bool {
        (0..dict.len()).any(|i| self.matches(&dict.get(i, logical)))
    }

    /// Evaluate over a whole decoded leaf stream, producing one flag per
    /// triplet. Only valid for repetition-free leaves (one triplet per row).
    pub fn evaluate_leaf(&self, leaf: &LeafData) -> Result<Vec<bool>> {
        let mut out = Vec::with_capacity(leaf.len());
        let mut vi = 0;
        for d in leaf.defs.iter() {
            if d == leaf.max_def {
                out.push(self.matches(&leaf.values.get(vi, &leaf.scalar_type)));
                vi += 1;
            } else {
                out.push(false);
            }
        }
        Ok(out)
    }
}

/// A conjunct bound to a leaf column by dotted path.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPredicate {
    /// Dotted leaf path, e.g. `base.city_id`.
    pub leaf_path: String,
    /// The predicate.
    pub predicate: ScalarPredicate,
}

/// Conjunction of per-leaf predicates attached to a scan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FilePredicate {
    /// All conjuncts must hold.
    pub conjuncts: Vec<ColumnPredicate>,
}

impl FilePredicate {
    /// A predicate with a single conjunct.
    pub fn single(leaf_path: impl Into<String>, predicate: ScalarPredicate) -> FilePredicate {
        FilePredicate {
            conjuncts: vec![ColumnPredicate { leaf_path: leaf_path.into(), predicate }],
        }
    }

    /// True when there are no conjuncts.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::DataType;

    fn stats(min: i64, max: i64, nulls: u64) -> ColumnStats {
        ColumnStats {
            min: Some(Value::Bigint(min)),
            max: Some(Value::Bigint(max)),
            null_count: nulls,
        }
    }

    #[test]
    fn row_level_matching() {
        let eq = ScalarPredicate::Eq(Value::Bigint(12));
        assert!(eq.matches(&Value::Bigint(12)));
        assert!(!eq.matches(&Value::Bigint(10)));
        assert!(!eq.matches(&Value::Null));

        let range = ScalarPredicate::Range { min: Some(Value::Bigint(5)), max: None };
        assert!(range.matches(&Value::Bigint(5)));
        assert!(!range.matches(&Value::Bigint(4)));

        let in_list =
            ScalarPredicate::In(vec![Value::Varchar("a".into()), Value::Varchar("b".into())]);
        assert!(in_list.matches(&Value::Varchar("b".into())));
        assert!(!in_list.matches(&Value::Varchar("c".into())));
    }

    #[test]
    fn stats_skipping_fig7_example() {
        // the paper's example: query wants city_id = 12, row group max is 10
        let pred = ScalarPredicate::Eq(Value::Bigint(12));
        assert!(!pred.maybe_matches_stats(&stats(1, 10, 0), 100));
        assert!(pred.maybe_matches_stats(&stats(1, 20, 0), 100));
    }

    #[test]
    fn range_stats_intersection() {
        let pred =
            ScalarPredicate::Range { min: Some(Value::Bigint(100)), max: Some(Value::Bigint(200)) };
        assert!(!pred.maybe_matches_stats(&stats(0, 99, 0), 10));
        assert!(!pred.maybe_matches_stats(&stats(201, 300, 0), 10));
        assert!(pred.maybe_matches_stats(&stats(150, 160, 0), 10));
        assert!(pred.maybe_matches_stats(&stats(0, 100, 0), 10));
    }

    #[test]
    fn all_null_chunks_never_match() {
        let pred = ScalarPredicate::Eq(Value::Bigint(1));
        let s = ColumnStats { min: None, max: None, null_count: 50 };
        assert!(!pred.maybe_matches_stats(&s, 50));
        // missing stats with some defined values → must read
        let s = ColumnStats { min: None, max: None, null_count: 10 };
        assert!(pred.maybe_matches_stats(&s, 50));
    }

    #[test]
    fn dictionary_skipping_fig8_example() {
        // dictionary holds {3, 5, 9, 14, 21}; query wants 12 → skip
        let dict = LeafValues::I64(vec![3, 5, 9, 14, 21]);
        let pred = ScalarPredicate::Eq(Value::Bigint(12));
        assert!(!pred.matches_any_in_dictionary(&dict, &DataType::Bigint));
        let pred = ScalarPredicate::Eq(Value::Bigint(14));
        assert!(pred.matches_any_in_dictionary(&dict, &DataType::Bigint));
    }
}
