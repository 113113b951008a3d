//! Differential test of the typed breakers — hash aggregation, hash join,
//! sort and top-N — against a row-at-a-time reference
//! (`tests/common/reference.rs`, and the stable sort in [`sort_case`]).
//!
//! The reference is the algorithm the executor ran before it went typed: a
//! `HashMap<Vec<Value>, Vec<Accumulator>>` per aggregation, a nested loop
//! per join, a stable sort of boxed rows. Two things are defined here and
//! not inherited, because the old executor got them wrong: the join calls
//! two keys equal exactly when `Value::sql_cmp` does (so INTEGER 1 meets
//! BIGINT 1 and DOUBLE 1.0, and NULL and NaN meet nothing), and every order
//! is `Value::total_cmp`, numbers < NaN < NULL, ties by input position
//! (aggregate output: by key then aggregates, as the old executor sorted,
//! then by the bits of the DOUBLE values — NaN payloads, `-0.0` — so that
//! groups the order calls equal come out the same on every path).
//!
//! Random pages (every scalar type, null masks, dictionary-wrapped columns,
//! NaN / `-0.0` / `i64` extremes, empty and zero-column pages, 1–4 pages) ×
//! random plans go through `presto_exec::execute` and must equal the
//! reference *in order*, compared to the bit (NaN payloads included).
//! Each case runs again under a budget that forces the spill path. An
//! eighth of the sorts draw a table of hundreds to thousands of rows whose
//! first key ties in its high prefix bits ([`tied_table`]). A third
//! of the aggregation and join cases draw integers from a small range
//! instead ([`small_value`]), so their key tables take the dense layout;
//! another third of the joins have a unique build key ([`unique_keys`]),
//! and half the joins emit a narrowed list of channels.

#[path = "common/reference.rs"]
mod reference;

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use reference::{cmp_keys, exact, reference_aggregate, reference_join};

use presto_common::keys::{KeyTable, NO_KEY};
use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::CatalogRegistry;
use presto_exec::{execute, ExecutionContext};
use presto_expr::{AggregateFunction, FunctionHandle, RowExpression};
use presto_plan::logical::{AggregateExpr, AggregateStep, JoinKind, LogicalPlan, SortKey};
use presto_resource::SpillManager;

// ------------------------------------------------------------- generation

/// SplitMix64: one `u64` from proptest seeds a whole case, so a failure is
/// reproduced from the seed in its message.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())].clone()
    }
}

const SCALARS: [DataType; 7] = [
    DataType::Boolean,
    DataType::Bigint,
    DataType::Integer,
    DataType::Double,
    DataType::Varchar,
    DataType::Date,
    DataType::Timestamp,
];

/// A value of `dt` from a small pool, so keys collide, with the edge cases
/// in it: NULL, NaN of two payloads, `-0.0`, the integer extremes.
fn value(g: &mut Gen, dt: &DataType) -> Value {
    if g.below(6) == 0 {
        return Value::Null;
    }
    let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    match dt {
        DataType::Boolean => Value::Boolean(g.below(2) == 0),
        DataType::Bigint => Value::Bigint(g.pick(&[0, 1, 2, 3, -1, i64::MIN, i64::MAX, 1 << 53])),
        DataType::Integer => Value::Integer(g.pick(&[0, 1, 2, 3, -1, i32::MIN, i32::MAX])),
        DataType::Double => Value::Double(g.pick(&[
            0.0,
            -0.0,
            1.0,
            2.0,
            -1.0,
            2.5,
            f64::NAN,
            other_nan,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9007199254740992.0,
        ])),
        DataType::Varchar => {
            // "\u{5}" is the byte layout's VARCHAR tag: only a length prefix
            // keeps ("a\u{5}", "") and ("a", "\u{5}") apart. A string of up to
            // 7 bytes interns as one word, zero-padded: only the length in
            // it keeps "a" from "a\u{0}" and "" from "\u{0}". "abcdefg" is
            // the longest that packs, "abcdefgh" the shortest that does not.
            let pool = [
                "",
                "a",
                "\u{5}",
                "a\u{5}",
                "\u{0}",
                "a\u{0}",
                "ab",
                "é",
                "€",
                "abcdefg",
                "abcdefgh",
                "abcdefghi",
                "abcdefghj",
            ];
            Value::Varchar(g.pick(&pool).into())
        }
        DataType::Date => Value::Date(g.pick(&[0, 1, -1, 18_000])),
        DataType::Timestamp => Value::Timestamp(g.pick(&[0, 1, -1, 1_600_000_000_000])),
        DataType::Array(element) => {
            Value::Array((0..g.below(3)).map(|_| value(g, element)).collect())
        }
        _ => unreachable!("no other type is generated"),
    }
}

/// The key types of the dense layout.
const INTEGRAL: [DataType; 5] =
    [DataType::Boolean, DataType::Bigint, DataType::Integer, DataType::Date, DataType::Timestamp];

/// The column beside a VARCHAR dictionary digit.
const SMALL_DIGITS: [DataType; 3] = [DataType::Varchar, DataType::Bigint, DataType::Date];

/// As [`value`], but an integer is one of -3..=3 and a string one of four
/// (one past the 7 bytes that pack in a word): a few such columns span few
/// enough slots that their key tables are dense.
fn small_value(g: &mut Gen, dt: &DataType) -> Value {
    if g.below(6) == 0 {
        return Value::Null;
    }
    let v = g.below(7) as i64 - 3;
    match dt {
        DataType::Bigint => Value::Bigint(v),
        DataType::Integer => Value::Integer(v as i32),
        DataType::Date => Value::Date(v as i32),
        DataType::Timestamp => Value::Timestamp(v),
        DataType::Varchar => Value::Varchar(g.pick(&["", "a", "a\u{0}", "abcdefgh"]).into()),
        _ => value(g, dt),
    }
}

/// As [`small_value`], but an integer is 0 or 1: beside a `small_value`
/// column it spans less, so the two columns weigh differently in a dense
/// table.
fn tiny_value(g: &mut Gen, dt: &DataType) -> Value {
    match small_value(g, dt) {
        Value::Null => Value::Null,
        _ if g.below(2) == 0 => Value::Bigint(0),
        _ => Value::Bigint(1),
    }
}

/// A probe row's value against a [`small_value`] build side: mostly small,
/// sometimes an extreme — either may lie outside the build side's range.
fn probe_value(g: &mut Gen, dt: &DataType) -> Value {
    match g.below(8) {
        0 => value(g, dt),
        _ => small_value(g, dt),
    }
}

/// Draws one value of a type.
type Draw = fn(&mut Gen, &DataType) -> Value;

/// A block holding `values`, sometimes behind a dictionary ([`dictionary`]).
fn block(g: &mut Gen, dt: &DataType, values: &[Value], draw: Draw) -> Block {
    match g.below(3) {
        0 => dictionary(g, dt, values, draw),
        _ => Block::from_values(dt, values).unwrap(),
    }
}

/// `values` behind a dictionary whose entries are in another order and
/// include one no row uses, from `draw`.
fn dictionary(g: &mut Gen, dt: &DataType, values: &[Value], draw: Draw) -> Block {
    let mut entries: Vec<Value> = values.iter().rev().cloned().collect();
    entries.push(draw(g, dt));
    let ids = (0..values.len()).map(|i| (values.len() - 1 - i) as u32).collect();
    Block::Dictionary { dictionary: Box::new(Block::from_values(dt, &entries).unwrap()), ids }
}

/// A table as the executor sees it (pages bound to a remote source) and as
/// the reference does (rows, page by page).
struct Table {
    schema: Schema,
    pages: Vec<Page>,
    rows: Vec<Vec<Vec<Value>>>,
}

impl Table {
    fn random(g: &mut Gen, types: Vec<DataType>) -> Table {
        Table::drawn(g, types, value)
    }

    /// A random table whose values come from `draw`.
    fn drawn(g: &mut Gen, types: Vec<DataType>, draw: Draw) -> Table {
        let pages = 1 + g.below(4);
        Table::paged(g, types, pages, |g| g.pick(&[0, 1, 2, 5, 9, 14]), |_| draw)
    }

    /// A random table of `pages` pages, each of `size` rows, whose column
    /// `c` draws its values from `draw(c)`.
    fn paged(
        g: &mut Gen,
        types: Vec<DataType>,
        pages: usize,
        size: impl Fn(&mut Gen) -> usize,
        draw: impl Fn(usize) -> Draw,
    ) -> Table {
        let fields = types.iter().enumerate().map(|(i, t)| Field::new(format!("c{i}"), t.clone()));
        let schema = Schema::new(fields.collect()).unwrap();
        let (mut table_pages, mut rows) = (Vec::new(), Vec::new());
        for _ in 0..pages {
            let n = size(g);
            let page_rows: Vec<Vec<Value>> = (0..n)
                .map(|_| types.iter().enumerate().map(|(c, t)| draw(c)(g, t)).collect())
                .collect();
            let blocks: Vec<Block> = types
                .iter()
                .enumerate()
                .map(|(c, t)| {
                    let column: Vec<Value> = page_rows.iter().map(|r| r[c].clone()).collect();
                    block(g, t, &column, draw(c))
                })
                .collect();
            table_pages.push(if blocks.is_empty() {
                Page::zero_column(n)
            } else {
                Page::new(blocks).unwrap()
            });
            rows.push(page_rows);
        }
        Table { schema, pages: table_pages, rows }
    }

    /// Make column `c` BIGINT, its value in each row from `draw` (in row
    /// order), each page's block plain or a dictionary as a drawn one is.
    /// Returns the values.
    fn set_column(
        &mut self,
        g: &mut Gen,
        c: usize,
        mut draw: impl FnMut(&mut Gen) -> Value,
    ) -> Vec<Value> {
        let mut fields = self.schema.fields().to_vec();
        fields[c] = Field::new(fields[c].name.clone(), DataType::Bigint);
        self.schema = Schema::new(fields).unwrap();
        let mut all = Vec::new();
        for (page, rows) in self.pages.iter_mut().zip(&mut self.rows) {
            let column: Vec<Value> = rows.iter().map(|_| draw(g)).collect();
            for (row, v) in rows.iter_mut().zip(&column) {
                row[c] = v.clone();
            }
            let mut blocks = std::mem::replace(page, Page::empty()).into_blocks();
            blocks[c] = Arc::new(block(g, &DataType::Bigint, &column, value));
            *page = Page::from_columns(blocks).unwrap();
            all.extend(column);
        }
        all
    }

    /// Redraw from `draw` every NULL of the first `pages` pages, so that the
    /// table's NULLs come only after them.
    fn nulls_only_after(&mut self, g: &mut Gen, pages: usize, draw: Draw) {
        let types = self.types();
        for (page, rows) in self.pages.iter_mut().zip(&mut self.rows).take(pages) {
            for row in rows.iter_mut() {
                for (v, t) in row.iter_mut().zip(&types) {
                    while v.is_null() {
                        *v = draw(g, t);
                    }
                }
            }
            if types.is_empty() {
                continue;
            }
            let blocks = types.iter().enumerate().map(|(c, t)| {
                let column: Vec<Value> = rows.iter().map(|row| row[c].clone()).collect();
                block(g, t, &column, draw)
            });
            *page = Page::new(blocks.collect()).unwrap();
        }
    }

    /// Make column `c` a dictionary on every page ([`dictionary`]: entries
    /// in the reverse of row order, repeated as rows repeat, and one drawn
    /// by `draw` that no row may use).
    fn dictionary_column(&mut self, g: &mut Gen, c: usize, draw: Draw) {
        let data_type = self.schema.field_at(c).data_type.clone();
        for (page, rows) in self.pages.iter_mut().zip(&self.rows) {
            let column: Vec<Value> = rows.iter().map(|row| row[c].clone()).collect();
            let mut blocks = std::mem::replace(page, Page::empty()).into_blocks();
            blocks[c] = Arc::new(dictionary(g, &data_type, &column, draw));
            *page = Page::from_columns(blocks).unwrap();
        }
    }

    fn all_rows(&self) -> Vec<Vec<Value>> {
        self.rows.iter().flatten().cloned().collect()
    }

    /// Each page's columns, as a key table is built over them.
    fn columns(&self) -> Vec<&[Arc<Block>]> {
        self.pages.iter().map(Page::blocks).collect()
    }

    fn types(&self) -> Vec<DataType> {
        self.schema.fields().iter().map(|f| f.data_type.clone()).collect()
    }

    fn column(&self, c: usize) -> RowExpression {
        RowExpression::column(format!("c{c}"), c, self.schema.field_at(c).data_type.clone())
    }

    /// The columns whose type passes `test`.
    fn columns_of(&self, test: impl Fn(&DataType) -> bool) -> Vec<usize> {
        (0..self.schema.len()).filter(|&c| test(&self.schema.field_at(c).data_type)).collect()
    }
}

fn random_types(g: &mut Gen, min: usize) -> Vec<DataType> {
    (0..min + g.below(5)).map(|_| g.pick(&SCALARS)).collect()
}

/// `min` to `min + 2` integral types.
fn integral_types(g: &mut Gen, min: usize) -> Vec<DataType> {
    (0..min + g.below(3)).map(|_| g.pick(&INTEGRAL)).collect()
}

/// How a case draws its column types (at least a given count) and values.
type Shape = (fn(&mut Gen, usize) -> Vec<DataType>, Draw);

/// Any scalar type, values with the edge cases.
const WIDE: Shape = (random_types, value);

/// Integral types, small values: key tables mostly dense.
const SMALL: Shape = (integral_types, small_value);

// ------------------------------------------------------------- execution

/// Run `plan` over the bound tables. `budget`: a memory limit with a spill
/// manager attached, so breakers spill instead of failing. Returns the rows
/// page by page, and whether anything spilled.
fn run(
    plan: &LogicalPlan,
    tables: &[&Table],
    budget: Option<usize>,
) -> (presto_common::Result<Vec<Vec<Vec<Value>>>>, bool) {
    let mut ctx = ExecutionContext::new(CatalogRegistry::new());
    if let Some(bytes) = budget {
        ctx = ctx.with_memory_budget(bytes);
        let spill = SpillManager::in_memory(ctx.metrics.clone());
        let pool = ctx.pool.clone();
        ctx = ctx.with_resources(pool, Some(Arc::new(spill)));
    }
    for (fragment, table) in tables.iter().enumerate() {
        ctx.bind_remote_source(fragment as u32, table.pages.clone());
    }
    let result = execute(plan, &ctx).map(|pages| pages.iter().map(Page::rows).collect());
    assert_eq!(ctx.reserved_memory(), 0, "reservation leaked");
    (result, ctx.metrics.get("spill.files") > 0)
}

fn source(fragment: u32, table: &Table) -> Box<LogicalPlan> {
    Box::new(LogicalPlan::RemoteSource { fragment, schema: table.schema.clone() })
}

/// The peak reservation of an unconstrained run: one byte less forces the
/// spill path while leaving room for its pieces.
fn peak(plan: &LogicalPlan, tables: &[&Table]) -> usize {
    let mut ctx = ExecutionContext::new(CatalogRegistry::new());
    for (fragment, table) in tables.iter().enumerate() {
        ctx.bind_remote_source(fragment as u32, table.pages.clone());
    }
    execute(plan, &ctx).unwrap();
    ctx.pool.peak()
}

fn flat(pages: &[Vec<Vec<Value>>]) -> Vec<Vec<Value>> {
    pages.iter().flatten().cloned().collect()
}

/// Rows in an order of their own, for multiset comparison.
fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut keys: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
    keys.sort();
    keys
}

// ------------------------------------------------------------ properties

fn is_insufficient(result: &presto_common::Result<Vec<Vec<Vec<Value>>>>) -> bool {
    matches!(result, Err(e) if e.code() == "INSUFFICIENT_RESOURCES")
}

fn aggregate_case(seed: u64) -> bool {
    let g = &mut Gen(seed);
    let (types, draw) = if g.below(3) == 0 { SMALL } else { WIDE };
    let types = types(g, 0);
    let mut table = Table::drawn(g, types, draw);
    // a quarter of the tables hold NULLs only after their first pages, so
    // the aggregates start flag-free and switch over mid-table
    if g.below(4) == 0 {
        let pages = 1 + g.below(table.pages.len());
        table.nulls_only_after(g, pages, draw);
    }
    let width = table.schema.len();
    let keys: Vec<usize> =
        if width == 0 { vec![] } else { (0..g.below(4)).map(|_| g.below(width)).collect() };
    let step =
        g.pick(&[AggregateStep::Single, AggregateStep::Single, AggregateStep::FinalOverPartial]);
    let merging = step == AggregateStep::FinalOverPartial;
    // a partial sum is BIGINT or DOUBLE, never INTEGER: the final step's
    // output takes its argument's type
    let numeric = table.columns_of(|t| t.is_numeric() && !(merging && *t == DataType::Integer));
    // partial counts small enough to add up without overflow
    let countable = table.columns_of(|t| *t == DataType::Bigint).into_iter().filter(|&c| {
        table
            .all_rows()
            .iter()
            .all(|r| r[c].as_i64().is_none_or(|v| (-(1 << 40)..1 << 40).contains(&v)))
    });
    let countable: Vec<usize> = countable.collect();
    let mut aggregates: Vec<(AggregateFunction, Option<usize>)> = Vec::new();
    for _ in 0..g.below(4) {
        use AggregateFunction::*;
        let function = g.pick(&[CountStar, Count, Sum, Avg, Min, Max]);
        let argument = match function {
            CountStar if !merging => None,
            CountStar | Count if merging && !countable.is_empty() => Some(g.pick(&countable)),
            Count if !merging && width > 0 => Some(g.below(width)),
            Sum if !numeric.is_empty() => Some(g.pick(&numeric)),
            // merged partial averages carry their column's type, DOUBLE
            Avg if !numeric.is_empty() && !merging => Some(g.pick(&numeric)),
            Min | Max if width > 0 => Some(g.below(width)),
            _ => continue,
        };
        aggregates.push((function, argument));
    }
    let plan = LogicalPlan::Aggregate {
        input: source(0, &table),
        group_by: keys.iter().map(|&k| table.column(k)).collect(),
        aggregates: aggregates
            .iter()
            .enumerate()
            .map(|(i, (function, argument))| AggregateExpr {
                function: *function,
                argument: argument.map(|c| table.column(c)),
                name: format!("a{i}"),
            })
            .collect(),
        step,
    };
    let expected = reference_aggregate(&table.all_rows(), &keys, &aggregates, step);
    let (actual, _) = run(&plan, &[&table], None);
    assert_eq!(exact(&flat(&actual.unwrap())), exact(&expected), "seed {seed}");

    let needed = peak(&plan, &[&table]);
    if needed == 0 {
        return false;
    }
    let (spilled, did_spill) = run(&plan, &[&table], Some(needed - 1));
    if is_insufficient(&spilled) {
        return false; // a partition alone did not fit (or there was nothing to spill on)
    }
    assert_eq!(exact(&flat(&spilled.unwrap())), exact(&expected), "spill, seed {seed}");
    did_spill
}

/// Groups whose keys differ only in their NaN payload, and whose aggregates
/// tie, are equal under the sort order; they come out by their bits, in
/// memory and through the Grace spill path alike, where first-seen order
/// and the partitioning would put them in two different orders.
#[test]
fn nan_payload_groups_emit_in_one_order_in_memory_and_spilled() {
    let nan = |payload: u64| f64::from_bits(f64::NAN.to_bits() | payload);
    // the largest bits seen first, then each again, after other groups
    let nans: Vec<f64> = (1..=6).rev().map(nan).collect();
    let column: Vec<Value> = (0..40)
        .map(|i| f64::from(1 + i % 10))
        .chain(nans.iter().copied())
        .chain(nans.iter().rev().copied())
        .map(Value::Double)
        .collect();
    let schema = Schema::new(vec![Field::new("c0", DataType::Double)]).unwrap();
    let rows = column.chunks(20).map(|page| page.iter().map(|v| vec![v.clone()]).collect());
    let pages = column
        .chunks(20)
        .map(|page| Page::new(vec![Block::from_values(&DataType::Double, page).unwrap()]).unwrap())
        .collect();
    let table = Table { schema, pages, rows: rows.collect() };
    let plan = LogicalPlan::Aggregate {
        input: source(0, &table),
        group_by: vec![table.column(0)],
        aggregates: vec![AggregateExpr {
            function: AggregateFunction::CountStar,
            argument: None,
            name: "a0".into(),
        }],
        step: AggregateStep::Single,
    };
    let count = (AggregateFunction::CountStar, None);
    let expected = reference_aggregate(&table.all_rows(), &[0], &[count], AggregateStep::Single);
    let by_bits: Vec<u64> = (1..=6).map(|p| nan(p).to_bits()).collect();
    let bits: Vec<u64> = expected.iter().map(|row| row[0].as_f64().unwrap().to_bits()).collect();
    assert_eq!(bits[10..], by_bits, "the reference orders the NaN groups by their bits");
    let (in_memory, _) = run(&plan, &[&table], None);
    assert_eq!(exact(&flat(&in_memory.unwrap())), exact(&expected), "in memory");
    let (spilled, did_spill) = run(&plan, &[&table], Some(peak(&plan, &[&table]) - 1));
    assert!(did_spill, "the budget forces the Grace path");
    assert_eq!(exact(&flat(&spilled.unwrap())), exact(&expected), "spilled");
}

/// One join drawn from `seed` against [`reference_join`], rows and their
/// order. A third of the cases draw small integral keys (dense key
/// tables), a third a unique build key ([`unique_keys`]); the rest any
/// scalar columns. Half the joins emit a random list of channels: a subset
/// in any order, sometimes one of them twice, as a narrowed join does.
fn join_case(seed: u64) -> bool {
    let g = &mut Gen(seed);
    let shape = g.below(3);
    let (types, draw) = if shape == 0 { SMALL } else { WIDE };
    let probe_types = types(g, 1);
    let mut probe = Table::drawn(g, probe_types, if shape == 0 { probe_value } else { value });
    // make comparable pairs likely: the build side reuses some probe types
    let mut build_types = types(g, 1);
    for t in build_types.iter_mut() {
        if g.below(2) == 0 {
            *t = g.pick(&probe.types());
        }
    }
    let mut build = Table::drawn(g, build_types, draw);
    let on: Vec<(usize, usize)> = if shape == 1 {
        vec![unique_keys(g, &mut probe, &mut build)]
    } else {
        (0..1 + g.below(2))
            .map(|_| {
                let l = g.below(probe.schema.len());
                let comparable = build.columns_of(|t| {
                    probe.schema.field_at(l).data_type.comparison_type(t).is_some()
                });
                // mostly comparable (same or mixed width), sometimes anything
                let r = if comparable.is_empty() || g.below(6) == 0 {
                    g.below(build.schema.len())
                } else {
                    g.pick(&comparable)
                };
                (l, r)
            })
            .collect()
    };
    let kind = g.pick(&[JoinKind::Inner, JoinKind::Left]);
    let (left_ints, right_ints) = (
        probe.columns_of(|t| *t == DataType::Bigint),
        build.columns_of(|t| *t == DataType::Bigint),
    );
    let residual =
        (g.below(3) == 0 && !left_ints.is_empty() && !right_ints.is_empty()).then(|| {
            let r = g.pick(&right_ints);
            RowExpression::Call {
                handle: FunctionHandle::new(
                    g.pick(&["lt", "gte"]),
                    vec![DataType::Bigint, DataType::Bigint],
                    DataType::Boolean,
                ),
                args: vec![
                    probe.column(g.pick(&left_ints)),
                    RowExpression::column(
                        format!("r{r}"),
                        probe.schema.len() + r,
                        DataType::Bigint,
                    ),
                ],
            }
        });
    let width = probe.schema.len() + build.schema.len();
    let mut output: Vec<usize> = (0..width).collect();
    if g.below(2) == 0 {
        // a random subset in a random order...
        for i in (1..width).rev() {
            output.swap(i, g.below(i + 1));
        }
        output.truncate(g.below(width + 1));
        // ...sometimes with one channel named twice
        if !output.is_empty() && g.below(2) == 0 {
            let again = output[g.below(output.len())];
            output.insert(g.below(output.len() + 1), again);
        }
    }
    let plan = LogicalPlan::Join {
        left: source(0, &probe),
        right: source(1, &build),
        kind,
        on: on.iter().map(|&(l, r)| (probe.column(l), build.column(r))).collect(),
        residual: residual.clone(),
        output: output.clone(),
    };
    let expected: Vec<Vec<Vec<Value>>> = reference_join(
        &probe.rows,
        &build.all_rows(),
        build.schema.len(),
        kind,
        &on,
        residual.as_ref(),
    )
    .into_iter()
    .map(|page| page.iter().map(|row| output.iter().map(|&c| row[c].clone()).collect()).collect())
    .collect();
    let (actual, _) = run(&plan, &[&probe, &build], None);
    let by_page = |pages: &[Vec<Vec<Value>>]| pages.iter().map(|p| exact(p)).collect::<Vec<_>>();
    assert_eq!(by_page(&actual.unwrap()), by_page(&expected), "seed {seed}");

    let needed = peak(&plan, &[&probe, &build]);
    if needed == 0 {
        return false;
    }
    let (spilled, did_spill) = run(&plan, &[&probe, &build], Some(needed - 1));
    if is_insufficient(&spilled) {
        return false;
    }
    // Grace partitioning reorders rows across partitions
    assert_eq!(
        canonical(flat(&spilled.unwrap())),
        canonical(flat(&expected)),
        "spill, seed {seed}"
    );
    did_spill
}

/// Make one BIGINT column of `build` a unique key — distinct values, a
/// NULL now and then (no key, so no repeat) — and one BIGINT column of
/// `probe` its foreign key. Half the probe sides match on every row, so
/// each page's probe columns pass through whole; the rest miss now and
/// then (NULL, or a value the build side lacks). The key table is dense or
/// hashed by the stride between keys. Returns the key pair.
fn unique_keys(g: &mut Gen, probe: &mut Table, build: &mut Table) -> (usize, usize) {
    let (l, r) = (g.below(probe.schema.len()), g.below(build.schema.len()));
    let stride = g.pick(&[1i64, 3, 1 << 40]);
    let mut next = g.below(5) as i64 - 2;
    let keys = build.set_column(g, r, |g| match g.below(8) {
        0 => Value::Null,
        _ => {
            next += 1 + g.below(2) as i64;
            Value::Bigint(next * stride)
        }
    });
    let keys: Vec<Value> = keys.into_iter().filter(|k| !k.is_null()).collect();
    let misses = g.below(2) == 0 || keys.is_empty();
    probe.set_column(g, l, |g| match g.below(if misses { 5 } else { 1 }) {
        1 if !keys.is_empty() => Value::Null,
        2 => Value::Bigint(-7 * stride),
        _ if !keys.is_empty() => g.pick(&keys),
        _ => Value::Null,
    });
    (l, r)
}

/// A first sort key's value that ties with others in its high prefix bits:
/// a double a few ulps from 1000.5, `-0.0`, `0.0` or a NaN of either
/// payload; a string whose first 8 bytes are all alike; a BIGINT a little
/// way from ±2^40 — a NULL now and then.
fn tied_value(g: &mut Gen, dt: &DataType) -> Value {
    if g.below(8) == 0 {
        return Value::Null;
    }
    let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    match dt {
        DataType::Double => Value::Double(match g.below(10) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            3 => other_nan,
            _ => f64::from_bits(1000.5f64.to_bits() + g.below(64) as u64),
        }),
        DataType::Varchar => {
            Value::Varchar(format!("abcdefgh{}", g.pick(&["", "a", "b", "\u{0}", "é", "ab"])))
        }
        DataType::Bigint => Value::Bigint(g.pick(&[1, -1]) * ((1 << 40) + g.below(64) as i64)),
        _ => unreachable!("no other first key is drawn"),
    }
}

/// A table for [`sort_case`] past the radix cutoff: 2–6 pages of unequal
/// sizes, hundreds to thousands of rows. Column 0 is the first sort key, of
/// [`tied_value`]s; the others are [`value`]'s. Each page's blocks are
/// plain or dictionaries, as a drawn table's are.
fn tied_table(g: &mut Gen) -> Table {
    let mut types = vec![g.pick(&[DataType::Double, DataType::Varchar, DataType::Bigint])];
    types.extend(random_types(g, 1).into_iter().take(3));
    let pages = 2 + g.below(5);
    Table::paged(
        g,
        types,
        pages,
        |g| 100 + g.below(900),
        |c| if c == 0 { tied_value } else { value },
    )
}

/// One sort and one top-N drawn from `seed` against a stable sort of the
/// rows, in memory and spilled. An eighth of the cases sort a
/// [`tied_table`] on its column 0 first.
fn sort_case(seed: u64) -> bool {
    let g = &mut Gen(seed);
    let types = random_types(g, 1);
    let tied = g.below(8) == 0;
    let table = if tied { tied_table(g) } else { Table::random(g, types) };
    let mut keys: Vec<(usize, bool)> =
        (0..1 + g.below(3)).map(|_| (g.below(table.schema.len()), g.below(2) == 0)).collect();
    if tied {
        keys[0].0 = 0;
    }
    let sort_keys: Vec<SortKey> =
        keys.iter().map(|&(c, descending)| SortKey { expr: table.column(c), descending }).collect();
    let descending: Vec<bool> = keys.iter().map(|k| k.1).collect();
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = table
        .all_rows()
        .into_iter()
        .map(|row| (keys.iter().map(|&(c, _)| row[c].clone()).collect(), row))
        .collect();
    keyed.sort_by(|a, b| cmp_keys(&a.0, &b.0, &descending));
    let expected: Vec<Vec<Value>> = keyed.into_iter().map(|(_, row)| row).collect();
    let count = g.below(expected.len() + 2);
    let mut spilled_any = false;
    for (plan, expected) in [
        (LogicalPlan::Sort { input: source(0, &table), keys: sort_keys.clone() }, &expected[..]),
        (
            LogicalPlan::TopN { input: source(0, &table), keys: sort_keys, count },
            &expected[..count.min(expected.len())],
        ),
    ] {
        let (actual, _) = run(&plan, &[&table], None);
        let actual = actual.unwrap();
        assert!(actual.len() <= 1, "sort emits one page");
        assert_eq!(exact(&flat(&actual)), exact(expected), "seed {seed}");
        let needed = peak(&plan, &[&table]);
        if needed == 0 {
            continue;
        }
        let (spilled, did_spill) = run(&plan, &[&table], Some(needed - 1));
        if is_insufficient(&spilled) {
            continue; // one row alone is over the budget
        }
        assert_eq!(exact(&flat(&spilled.unwrap())), exact(expected), "spill, seed {seed}");
        spilled_any |= did_spill;
    }
    spilled_any
}

/// Run `case` on `cases` seeds drawn from `seed`; at least `min_spilled` of
/// them must have taken the spill path to an answer.
fn check(seed: u64, cases: usize, min_spilled: usize, case: fn(u64) -> bool) {
    let g = &mut Gen(seed);
    let spilled = (0..cases).filter(|_| case(g.next())).count();
    assert!(spilled >= min_spilled, "only {spilled} of {cases} cases spilled");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn aggregation_equals_the_row_at_a_time_reference(seed in any::<u64>()) {
        check(seed, 48, 4, aggregate_case);
    }

    #[test]
    fn hash_join_equals_the_nested_loop_reference(seed in any::<u64>()) {
        check(seed, 48, 4, join_case);
    }

    #[test]
    fn sort_and_topn_equal_the_stable_sort_reference(seed in any::<u64>()) {
        check(seed, 48, 8, sort_case);
    }

    /// The codec's contract, directly ([`key_codec_case`]); every fourth
    /// case draws the small-range keys of the dense layout.
    #[test]
    fn key_codec_equality_is_vec_value_equality(seed in any::<u64>()) {
        let g = &mut Gen(seed);
        let dense = (0..32).filter(|i| key_codec_case(g.next(), i % 4 == 0)).count();
        prop_assert!(dense > 0, "no table of seed {} was dense", seed);
    }
}

/// No key columns: a key table built over nothing is hashed and grows.
const NO_PAGES: &[&[Block]] = &[];

/// The key codec's contract on one table drawn from `seed`: two rows share
/// an id exactly when their keys are equal as `Vec<Value>`; ids are dense in
/// first-seen order; a join table gives NULL and NaN rows no key at all.
/// Each table laid out over the pages deals the same ids as a hashed one
/// grown from empty — for `small` keys (integers from -3..=3, NULLs among
/// them) mostly a dense table against a hashed one. A third of the `small`
/// tables are a VARCHAR of four strings that is a dictionary on every page
/// (entries per page in another order, repeated, NULL, unused) and another
/// small column: the dense layout's digits, dense past 20 rows. A third are
/// two BIGINTs of unequal spans, 0..=1 and -3..=3, the narrow one first or
/// second: dense from 9 rows, the narrow column weighing 1 in either order.
/// Every page again with each column a dictionary gets the same ids, and a
/// selection of each page's rows the ids of those rows taken. A
/// probe page of other values — strings and integers the build rows never
/// held among them — finds exactly the ids of equal build rows. Other key shapes cover the packed word (VARCHAR
/// interned, alone or beside BIGINT) and the byte layout (nested, or four
/// VARCHARs: 132 bits). Returns whether the group-by table was dense.
fn key_codec_case(seed: u64, small: bool) -> bool {
    let g = &mut Gen(seed);
    // the column of the uneven shape that draws from `tiny_value`
    let mut narrow = None;
    let (types, draw): (Vec<DataType>, Draw) = match small {
        true => match g.below(3) {
            0 => (vec![DataType::Varchar, g.pick(&SMALL_DIGITS)], small_value),
            1 => {
                narrow = Some(g.below(2));
                (vec![DataType::Bigint; 2], small_value)
            }
            _ => (integral_types(g, 1), small_value),
        },
        false => {
            let mut types = random_types(g, 1);
            types.truncate(3);
            match g.below(6) {
                0 => types.push(DataType::array(DataType::Double)),
                1 => types = vec![DataType::Varchar, DataType::Varchar],
                2 => types = vec![DataType::Varchar, DataType::Bigint],
                3 => types = vec![DataType::Varchar; 4],
                _ => {}
            }
            (types, value)
        }
    };
    let draw_of = |c: usize| if narrow == Some(c) { tiny_value as Draw } else { draw };
    let pages = 1 + g.below(4);
    let mut table =
        Table::paged(g, types.clone(), pages, |g| g.pick(&[0, 1, 2, 5, 9, 14]), draw_of);
    let digits = small && types[0] == DataType::Varchar;
    if digits {
        for c in table.columns_of(|t| *t == DataType::Varchar) {
            table.dictionary_column(g, c, draw);
        }
    }
    let rows = table.all_rows();
    let columns = table.columns();
    let mut groups = KeyTable::group_by(&types, &columns);
    // spans of at most 5 × 8 fit the 64 slots of 20 rows
    if digits && rows.len() >= 20 {
        prop_assert!(groups.dense_bytes() > 0, "VARCHAR dictionary digits, seed {}", seed);
    }
    // spans of at most 3 × 8 fit the 32 slots of 9 rows
    if narrow.is_some() && rows.len() >= 9 {
        prop_assert!(groups.dense_bytes() > 0, "unequal spans, seed {}", seed);
    }
    let mut hashed = KeyTable::group_by(&types, NO_PAGES);
    let mut joins = KeyTable::join(&types, &columns);
    let mut grown = KeyTable::join(&types, NO_PAGES);
    let (mut ids, mut join_ids, mut page_ids) = (Vec::new(), Vec::new(), Vec::new());
    for page in &table.pages {
        groups.resolve(page.blocks(), None, true, &mut page_ids).unwrap();
        ids.extend_from_slice(&page_ids);
        hashed.resolve(page.blocks(), None, true, &mut page_ids).unwrap();
        prop_assert_eq!(&page_ids[..], &ids[ids.len() - page_ids.len()..], "seed {}", seed);
        joins.resolve(page.blocks(), None, true, &mut page_ids).unwrap();
        join_ids.extend_from_slice(&page_ids);
        grown.resolve(page.blocks(), None, true, &mut page_ids).unwrap();
        prop_assert_eq!(
            &page_ids[..],
            &join_ids[join_ids.len() - page_ids.len()..],
            "seed {}",
            seed
        );
    }
    prop_assert_eq!(hashed.distinct(), groups.distinct());
    prop_assert_eq!(grown.distinct(), joins.distinct());
    prop_assert_eq!(hashed.dense_bytes() + grown.dense_bytes(), 0, "grown tables are hashed");
    // the same rows with every column a dictionary: the same ids
    let dictionary_pages: Vec<Vec<Block>> = table
        .rows
        .iter()
        .map(|page_rows| {
            let column = |c: usize| page_rows.iter().map(|r: &Vec<Value>| r[c].clone()).collect();
            let column: Vec<Vec<Value>> = (0..types.len()).map(column).collect();
            let columns = types.iter().zip(&column).enumerate();
            columns.map(|(c, (t, values))| dictionary(g, t, values, draw_of(c))).collect()
        })
        .collect();
    let mut dictionaries = KeyTable::group_by(&types, &dictionary_pages);
    let mut dictionary_ids = Vec::new();
    for blocks in &dictionary_pages {
        dictionaries.resolve(blocks, None, true, &mut page_ids).unwrap();
        dictionary_ids.extend_from_slice(&page_ids);
    }
    prop_assert_eq!(&dictionary_ids, &ids, "seed {}", seed);
    // a selection of each page's rows, plain and as dictionaries
    let plain_pages: Vec<Vec<Block>> = table
        .pages
        .iter()
        .map(|page| page.blocks().iter().map(|block| Block::clone(block)).collect())
        .collect();
    selected_rows_resolve_as_taken_rows(g, &types, &plain_pages, seed);
    selected_rows_resolve_as_taken_rows(g, &types, &dictionary_pages, seed);
    let mut next = 0;
    for i in 0..rows.len() {
        for j in 0..i {
            prop_assert_eq!(
                ids[i] == ids[j],
                rows[i] == rows[j],
                "seed {} rows {:?} {:?}",
                seed,
                rows[i],
                rows[j]
            );
        }
        if ids[i] == next {
            next += 1;
        }
        prop_assert!(ids[i] < next, "ids are dense and first-seen, seed {}", seed);
        let keyless = rows[i].iter().any(|v| match v {
            Value::Null => true,
            Value::Double(x) => x.is_nan(),
            _ => false,
        });
        prop_assert_eq!(join_ids[i] == NO_KEY, keyless, "seed {} row {:?}", seed, rows[i]);
    }
    prop_assert_eq!(groups.distinct(), next as usize);
    // a lookup finds what was assigned and adds nothing, not even an
    // interned string — in a table laid out over the pages or grown
    for mut fresh in [KeyTable::group_by(&types, &columns), KeyTable::group_by(&types, NO_PAGES)] {
        for page in &table.pages {
            fresh.resolve(page.blocks(), None, false, &mut page_ids).unwrap();
            prop_assert!(page_ids.iter().all(|&id| id == NO_KEY));
        }
        prop_assert_eq!(fresh.distinct(), 0);
        prop_assert_eq!(fresh.interned(), 0);
    }
    let (interned, mut again) = (groups.interned(), Vec::new());
    for page in &table.pages {
        groups.resolve(page.blocks(), None, false, &mut page_ids).unwrap();
        again.extend_from_slice(&page_ids);
    }
    prop_assert_eq!(&again, &ids);
    prop_assert_eq!(groups.interned(), interned);
    // a probe page: a lookup finds the id of an equal build row, or no key
    let probe = Table::drawn(g, types.clone(), if small { probe_value } else { value });
    let group_of: HashMap<&Vec<Value>, u32> =
        rows.iter().zip(&ids).map(|(r, &id)| (r, id)).collect();
    let join_of: HashMap<&Vec<Value>, u32> = rows
        .iter()
        .zip(&join_ids)
        .filter(|(_, &id)| id != NO_KEY)
        .map(|(r, &id)| (r, id))
        .collect();
    for (page, page_rows) in probe.pages.iter().zip(&probe.rows) {
        groups.resolve(page.blocks(), None, false, &mut page_ids).unwrap();
        let expected: Vec<u32> =
            page_rows.iter().map(|r| group_of.get(r).copied().unwrap_or(NO_KEY)).collect();
        prop_assert_eq!(&page_ids, &expected, "group-by lookup, seed {}", seed);
        joins.resolve(page.blocks(), None, false, &mut page_ids).unwrap();
        let expected: Vec<u32> =
            page_rows.iter().map(|r| join_of.get(r).copied().unwrap_or(NO_KEY)).collect();
        prop_assert_eq!(&page_ids, &expected, "join lookup, seed {}", seed);
    }
    prop_assert_eq!(groups.interned(), interned);
    groups.dense_bytes() > 0
}

/// Resolving a selection of each page's rows — drawn in any order, repeats
/// and none among them — deals the ids resolving those rows taken into
/// blocks of their own deals, in a group-by and a join table laid out over
/// `pages`: in every layout, and through a key that is one dictionary
/// column.
fn selected_rows_resolve_as_taken_rows(
    g: &mut Gen,
    types: &[DataType],
    pages: &[Vec<Block>],
    seed: u64,
) {
    for join in [false, true] {
        let table = || match join {
            false => KeyTable::group_by(types, pages),
            true => KeyTable::join(types, pages),
        };
        let (mut through, mut taken) = (table(), table());
        let (mut via_selection, mut via_taken) = (Vec::new(), Vec::new());
        for page in pages {
            let rows: Vec<u32> = match page[0].len() {
                0 => Vec::new(),
                n => (0..g.below(n + 3)).map(|_| g.below(n) as u32).collect(),
            };
            let indices: Vec<usize> = rows.iter().map(|&row| row as usize).collect();
            let gathered: Vec<Block> = page.iter().map(|block| block.take(&indices)).collect();
            through.resolve(page, Some(&rows), true, &mut via_selection).unwrap();
            taken.resolve(&gathered, None, true, &mut via_taken).unwrap();
            prop_assert_eq!(&via_selection, &via_taken, "seed {} join {}", seed, join);
        }
        prop_assert_eq!(through.distinct(), taken.distinct(), "seed {}", seed);
        prop_assert_eq!(through.interned(), taken.interned(), "seed {}", seed);
    }
}

/// [`key_codec_case`] on the small-range shape over 10k seeds — integral
/// keys, VARCHAR dictionary digits and two columns of unequal spans in
/// either order: the dense tables against the hashed ones, at soak size.
#[test]
#[ignore = "release soak: `cargo test --release -p presto-at-scale --test exec_typed -- --ignored`"]
fn dense_key_tables_deal_the_hashed_ids_soak() {
    let dense = (0..10_000).filter(|&seed| key_codec_case(seed, true)).count();
    assert!(dense > 4_000, "only {dense} of 10000 tables were dense");
}

/// [`aggregate_case`] over 10k seeds, a quarter of the tables with NULLs
/// only after their first pages, at soak size.
#[test]
#[ignore = "release soak: `cargo test --release -p presto-at-scale --test exec_typed -- --ignored`"]
fn aggregation_equals_the_row_at_a_time_reference_soak() {
    let spilled = (0..10_000).filter(|&seed| aggregate_case(seed)).count();
    assert!(spilled > 4_000, "only {spilled} of 10000 aggregations spilled");
}

/// [`join_case`] over 10k seeds: unique build keys with whole and partly
/// matched probe pages, and narrowed outputs, at soak size.
#[test]
#[ignore = "release soak: `cargo test --release -p presto-at-scale --test exec_typed -- --ignored`"]
fn hash_join_equals_the_nested_loop_reference_soak() {
    let spilled = (0..10_000).filter(|&seed| join_case(seed)).count();
    assert!(spilled > 8_000, "only {spilled} of 10000 joins spilled");
}

/// [`sort_case`] over 10k seeds: an eighth of them up to thousands of rows
/// whose first key ties in its prefix, in memory and spilled, at soak size.
#[test]
#[ignore = "release soak: `cargo test --release -p presto-at-scale --test exec_typed -- --ignored`"]
fn sort_equals_the_stable_sort_reference_soak() {
    let spilled = (0..10_000).filter(|&seed| sort_case(seed)).count();
    assert!(spilled > 8_000, "only {spilled} of 10000 sorts spilled");
}
