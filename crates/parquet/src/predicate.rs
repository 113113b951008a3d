//! Reader-level predicates — the currency of predicate pushdown (§V.F) and
//! dictionary pushdown (§V.G).
//!
//! The engine's optimizer translates eligible `RowExpression` conjuncts into
//! these simple per-leaf predicates and hands them to the new reader, which
//! uses them three ways: (1) against footer min/max statistics to skip row
//! groups; (2) against dictionary pages to skip row groups whose dictionary
//! cannot match; (3) row-by-row while scanning, to drive lazy reads.

use presto_common::{DataType, Result, Value};

/// A [`ScalarPredicate`] in the typed form of one column's storage class
/// (see [`ScalarPredicate::typed`]).
pub use presto_common::{Domain, TypedDomain as TypedPredicate};

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
    /// This predicate over the non-NULL values of a `column`-typed column as
    /// an interval or set test that agrees with [`ScalarPredicate::matches`]
    /// on every value, or `None` when a literal compares with the column
    /// across classes (`clicks >= 89.5` on a BIGINT), is NULL or never
    /// compares at all — callers then fall back to `matches`. This is the
    /// one table of which literals are in a column's own class.
    pub fn typed<'p>(&'p self, column: &DataType) -> Option<TypedPredicate<'p>> {
        match self {
            ScalarPredicate::Eq(v) => TypedPredicate::interval(column, Some(v), Some(v)),
            ScalarPredicate::In(values) => TypedPredicate::set(column, values),
            ScalarPredicate::Range { min, max } => {
                TypedPredicate::interval(column, min.as_ref(), max.as_ref())
            }
        }
    }

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
    pub fn matches_any_in_dictionary(&self, dict: &LeafValues, logical: &DataType) -> bool {
        self.value_flags(dict, logical).contains(&true)
    }

    /// Evaluate over a whole decoded leaf stream, producing one flag per
    /// triplet. Only valid for repetition-free leaves (one triplet per row).
    /// A dictionary chunk is evaluated once per entry, and each defined
    /// value takes its entry's flag through its id.
    pub fn evaluate_leaf(&self, leaf: &LeafData) -> Result<Vec<bool>> {
        let flags = self.value_flags(&leaf.values, &leaf.scalar_type);
        let values = match &leaf.ids {
            None => flags,
            Some(ids) => ids.iter().map(|&id| flags[id as usize]).collect(),
        };
        if values.len() == leaf.len() {
            // every triplet is defined
            return Ok(values);
        }
        let mut defined = values.into_iter();
        Ok(leaf.defs.iter().map(|d| d == leaf.max_def && defined.next() == Some(true)).collect())
    }

    /// [`ScalarPredicate::matches`] of every stored value of a `logical`
    /// leaf: a typed loop over the storage, boxing values only when the
    /// predicate has no typed form. (Bytes compare raw, `matches` after a
    /// lossy UTF-8 decode: they differ only on a file that is not UTF-8.)
    fn value_flags(&self, values: &LeafValues, logical: &DataType) -> Vec<bool> {
        match (self.typed(logical), values) {
            (Some(TypedPredicate::Int(domain)), LeafValues::I64(v)) => {
                v.iter().map(|&x| domain.contains(x)).collect()
            }
            (Some(TypedPredicate::Int(domain)), LeafValues::I32(v)) => {
                v.iter().map(|&x| domain.contains(i64::from(x))).collect()
            }
            (Some(TypedPredicate::Double(domain)), LeafValues::F64(v)) => {
                v.iter().map(|&x| domain.contains(x)).collect()
            }
            (Some(TypedPredicate::Bytes(domain)), LeafValues::Bytes { offsets, data }) => offsets
                .windows(2)
                .map(|w| domain.contains(&data[w[0] as usize..w[1] as usize]))
                .collect(),
            _ => (0..values.len()).map(|i| self.matches(&values.get(i, logical))).collect(),
        }
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
    use crate::schema::PhysicalType;

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

    /// Every physical leaf type × `Eq` / `In` / `Range` over literals of
    /// every class: the typed loops and the boxed fallback are one function.
    #[test]
    fn leaf_evaluation_is_matches_value_by_value() {
        use crate::shred::Levels;
        let nan = f64::NAN;
        let leaves: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Boolean, vec![true.into(), Value::Null, false.into()]),
            (DataType::Integer, vec![1i32.into(), 2i32.into(), Value::Null, (-3i32).into()]),
            (DataType::Date, vec![Value::Date(3), Value::Null, Value::Date(-1)]),
            (
                DataType::Bigint,
                vec![1i64.into(), Value::Null, 5i64.into(), 89i64.into(), 90i64.into()],
            ),
            (DataType::Timestamp, vec![Value::Timestamp(3), Value::Timestamp(7), Value::Null]),
            (
                DataType::Double,
                vec![1.0.into(), nan.into(), Value::Null, (-0.0).into(), 2.5.into(), 89.5.into()],
            ),
            (DataType::Varchar, vec!["sf".into(), Value::Null, "".into(), "nyc".into()]),
        ];
        let literals: Vec<Value> = vec![
            1i64.into(),
            2i32.into(),
            5i64.into(),
            2.5.into(),
            89.5.into(),
            0.0.into(),
            nan.into(),
            "nyc".into(),
            "".into(),
            Value::Date(3),
            Value::Timestamp(7),
            true.into(),
            Value::Null,
        ];
        let mut predicates = vec![ScalarPredicate::Range { min: None, max: None }];
        for a in &literals {
            predicates.push(ScalarPredicate::Eq(a.clone()));
            predicates.push(ScalarPredicate::Range { min: Some(a.clone()), max: None });
            predicates.push(ScalarPredicate::Range { min: None, max: Some(a.clone()) });
            for b in &literals {
                predicates.push(ScalarPredicate::In(vec![a.clone(), b.clone()]));
                predicates
                    .push(ScalarPredicate::Range { min: Some(a.clone()), max: Some(b.clone()) });
            }
        }
        for (scalar_type, slots) in leaves {
            let physical = PhysicalType::for_scalar(&scalar_type).unwrap();
            let defined: Vec<&Value> = slots.iter().filter(|v| !v.is_null()).collect();
            let mut values = LeafValues::new(physical);
            for v in &defined {
                values.push(v).unwrap();
            }
            // the leaf once with its NULL slots, once NOT NULL (a level run)
            let nullable = LeafData {
                reps: Levels::Run { level: 0, len: slots.len() },
                defs: Levels::Each(slots.iter().map(|v| u16::from(!v.is_null())).collect()),
                values: values.clone(),
                ids: None,
                max_def: 1,
                scalar_type: scalar_type.clone(),
            };
            let required = LeafData {
                reps: Levels::Run { level: 0, len: defined.len() },
                defs: Levels::Run { level: 0, len: defined.len() },
                max_def: 0,
                ..nullable.clone()
            };
            // ... and both dictionary-encoded, the entries in reverse, so no
            // value's id is its position
            let mut entries = LeafValues::new(physical);
            for v in defined.iter().rev() {
                entries.push(v).unwrap();
            }
            let ids = Some((0..defined.len() as u32).rev().collect::<Vec<_>>());
            let encoded = |leaf: &LeafData| LeafData {
                values: entries.clone(),
                ids: ids.clone(),
                ..leaf.clone()
            };
            for predicate in &predicates {
                let per_slot: Vec<bool> = slots.iter().map(|v| predicate.matches(v)).collect();
                let per_value: Vec<bool> = defined.iter().map(|v| predicate.matches(v)).collect();
                let context = format!("{scalar_type} {predicate:?}");
                assert_eq!(predicate.evaluate_leaf(&nullable).unwrap(), per_slot, "{context}");
                assert_eq!(predicate.evaluate_leaf(&required).unwrap(), per_value, "{context}");
                let on_entries = predicate.evaluate_leaf(&encoded(&nullable)).unwrap();
                assert_eq!(on_entries, per_slot, "{context}");
                let on_entries = predicate.evaluate_leaf(&encoded(&required)).unwrap();
                assert_eq!(on_entries, per_value, "{context}");
                assert_eq!(
                    predicate.matches_any_in_dictionary(&values, &scalar_type),
                    per_value.contains(&true),
                    "{context}"
                );
            }
        }
    }
}
