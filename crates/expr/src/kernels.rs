//! The typed loops behind [`crate::eval`].
//!
//! A kernel takes its arguments as [`Arg`]s — a flat column or one scalar —
//! reads them through typed lanes (`&[f64]`, `&[i64]`, VARCHAR bytes; a
//! scalar is one value, never a column of copies), runs one tight loop over
//! the values of *every* lane, and settles NULLs afterwards: the result's
//! mask is the OR of the argument masks and the slots under it are zeroed,
//! so a result is the block [`Block::from_values`] would build from the
//! row-at-a-time answers. A kernel that has no typed form for the classes it
//! is handed says so (`None`) and the evaluator falls back to boxed rows.

use std::borrow::Cow;

use presto_common::block::{some_if_any, NullMask};
use presto_common::{selected_rows, Block, DataType, PrestoError, Result, TypedDomain, Value};

use crate::registry::{promote, Builtin};

/// One argument of a kernel: a flat (dictionary-free) column, or a scalar.
/// A scalar is not NULL unless the kernel says it may be.
#[derive(Clone, Copy)]
pub(crate) enum Arg<'a> {
    /// One value per row.
    Column(&'a Block),
    /// The same value on every row.
    Scalar(&'a Value),
}

impl<'a> Arg<'a> {
    /// The scalar type the values are stored as; `None` for nested types.
    fn class(self) -> Option<DataType> {
        match self {
            Arg::Column(block) => Some(block.data_type()).filter(|t| !t.is_nested()),
            Arg::Scalar(value) => value.data_type(),
        }
    }

    fn nulls(self) -> Option<&'a [bool]> {
        match self {
            Arg::Column(block) => null_mask(block),
            Arg::Scalar(_) => None,
        }
    }

    fn is_null_scalar(self) -> bool {
        matches!(self, Arg::Scalar(Value::Null))
    }
}

/// The NULL mask of a flat block.
fn null_mask(block: &Block) -> Option<&[bool]> {
    match block {
        Block::Boolean { nulls, .. }
        | Block::Bigint { nulls, .. }
        | Block::Integer { nulls, .. }
        | Block::Double { nulls, .. }
        | Block::Varchar { nulls, .. }
        | Block::Date { nulls, .. }
        | Block::Timestamp { nulls, .. }
        | Block::Array { nulls, .. }
        | Block::Map { nulls, .. }
        | Block::Row { nulls, .. } => nulls.as_deref(),
        Block::Dictionary { .. } => None,
    }
}

// ------------------------------------------------------------------- lanes

/// The values of one argument in the type a loop runs in: borrowed when the
/// column is stored that way, widened once (INTEGER → BIGINT, either →
/// DOUBLE, as [`Block::widen`] does) when it is not.
enum Lane<'a, T: Copy> {
    Column(Cow<'a, [T]>),
    Scalar(T),
}

/// What a loop iterates: a value per row or one value for all of them.
enum Side<I, T> {
    Each(I),
    All(T),
}

impl<T: Copy> Lane<'_, T> {
    fn side(&self) -> Side<impl Iterator<Item = T> + '_, T> {
        match self {
            Lane::Column(values) => Side::Each(values.iter().copied()),
            Lane::Scalar(value) => Side::All(*value),
        }
    }
}

fn doubles(arg: Arg<'_>) -> Option<Lane<'_, f64>> {
    Some(match arg {
        Arg::Scalar(v) => Lane::Scalar(v.as_f64()?),
        Arg::Column(Block::Double { values, .. }) => Lane::Column(Cow::Borrowed(values)),
        Arg::Column(Block::Bigint { values, .. }) => {
            Lane::Column(values.iter().map(|&v| v as f64).collect())
        }
        Arg::Column(Block::Integer { values, .. }) => {
            Lane::Column(values.iter().map(|&v| f64::from(v)).collect())
        }
        Arg::Column(_) => return None,
    })
}

fn longs(arg: Arg<'_>) -> Option<Lane<'_, i64>> {
    Some(match arg {
        Arg::Scalar(v) => Lane::Scalar(v.as_i64()?),
        Arg::Column(Block::Bigint { values, .. } | Block::Timestamp { values, .. }) => {
            Lane::Column(Cow::Borrowed(values))
        }
        Arg::Column(Block::Integer { values, .. } | Block::Date { values, .. }) => {
            Lane::Column(values.iter().map(|&v| i64::from(v)).collect())
        }
        Arg::Column(_) => return None,
    })
}

fn ints(arg: Arg<'_>) -> Option<Lane<'_, i32>> {
    Some(match arg {
        Arg::Scalar(Value::Integer(v) | Value::Date(v)) => Lane::Scalar(*v),
        Arg::Column(Block::Integer { values, .. } | Block::Date { values, .. }) => {
            Lane::Column(Cow::Borrowed(values))
        }
        _ => return None,
    })
}

fn bools(arg: Arg<'_>) -> Option<Lane<'_, bool>> {
    Some(match arg {
        Arg::Scalar(Value::Boolean(v)) => Lane::Scalar(*v),
        Arg::Column(Block::Boolean { values, .. }) => Lane::Column(Cow::Borrowed(values)),
        _ => return None,
    })
}

/// VARCHAR values as their bytes (byte order is `str` order).
fn texts<'a>(arg: Arg<'a>) -> Option<Side<impl Iterator<Item = &'a [u8]>, &'a [u8]>> {
    Some(match arg {
        Arg::Scalar(Value::Varchar(s)) => Side::All(s.as_bytes()),
        Arg::Column(Block::Varchar { offsets, bytes, .. }) => {
            Side::Each(offsets.windows(2).map(move |w| &bytes[w[0] as usize..w[1] as usize]))
        }
        _ => return None,
    })
}

/// `f` over every row of two sides.
fn zip<T: Copy, O: Clone>(
    a: Side<impl Iterator<Item = T>, T>,
    b: Side<impl Iterator<Item = T>, T>,
    rows: usize,
    f: impl Fn(T, T) -> O,
) -> Vec<O> {
    match (a, b) {
        (Side::Each(x), Side::Each(y)) => x.zip(y).map(|(x, y)| f(x, y)).collect(),
        (Side::Each(x), Side::All(y)) => x.map(|x| f(x, y)).collect(),
        (Side::All(x), Side::Each(y)) => y.map(|y| f(x, y)).collect(),
        (Side::All(x), Side::All(y)) => vec![f(x, y); rows],
    }
}

// ------------------------------------------------------------------- nulls

/// NULL where either argument is.
fn either_null(a: Arg<'_>, b: Arg<'_>) -> NullMask {
    match (a.nulls(), b.nulls()) {
        (None, None) => None,
        (Some(n), None) | (None, Some(n)) => some_if_any(n.to_vec()),
        (Some(x), Some(y)) => some_if_any(x.iter().zip(y).map(|(&x, &y)| x || y).collect()),
    }
}

/// `values` with the slots under `nulls` zeroed, as `from_values` leaves them.
fn zeroed<T: Default>(mut values: Vec<T>, nulls: &NullMask) -> Vec<T> {
    for (value, _) in values.iter_mut().zip(nulls.iter().flatten()).filter(|(_, null)| **null) {
        *value = T::default();
    }
    values
}

fn boolean(values: Vec<bool>, nulls: NullMask) -> Block {
    Block::Boolean { values: zeroed(values, &nulls), nulls }
}

// ------------------------------------------------- arithmetic, comparison

/// `a ⊕ b` for `add` / `sub` / `mul` / `div` / `mod` in the type
/// [`promote`] gives the two classes — which must be `return_type`, or the
/// handle was not resolved from these arguments and there is no typed form.
/// Integers wrap in the result's width; a zero integer divisor is an error
/// on a lane where neither argument is NULL, and nowhere else.
pub(crate) fn arithmetic(
    op: Builtin,
    a: Arg<'_>,
    b: Arg<'_>,
    rows: usize,
    return_type: &DataType,
) -> Result<Option<Block>> {
    use Builtin::*;
    let (Some(ca), Some(cb)) = (a.class(), b.class()) else { return Ok(None) };
    if !ca.is_numeric() || !cb.is_numeric() || promote(&ca, &cb) != *return_type {
        return Ok(None);
    }
    let nulls = either_null(a, b);
    if *return_type == DataType::Double {
        let (Some(x), Some(y)) = (doubles(a), doubles(b)) else { return Ok(None) };
        let (x, y) = (x.side(), y.side());
        let values = match op {
            Add => zip(x, y, rows, |x, y| x + y),
            Sub => zip(x, y, rows, |x, y| x - y),
            Mul => zip(x, y, rows, |x, y| x * y),
            Div => zip(x, y, rows, |x, y| x / y),
            Mod => zip(x, y, rows, |x, y| x % y),
            _ => return Ok(None),
        };
        return Ok(Some(Block::Double { values: zeroed(values, &nulls), nulls }));
    }
    let (Some(x), Some(y)) = (longs(a), longs(b)) else { return Ok(None) };
    if matches!(op, Div | Mod) {
        let live = |i: usize| !nulls.as_ref().is_some_and(|n| n[i]);
        let by_zero = match &y {
            Lane::Scalar(y) => *y == 0 && (0..rows).any(live),
            Lane::Column(y) => y.iter().enumerate().any(|(i, &y)| y == 0 && live(i)),
        };
        if by_zero {
            return Err(PrestoError::Execution("division by zero".into()));
        }
    }
    // a 32-bit result is the low half of the 64-bit one
    macro_rules! wrapping {
        ($narrow:expr) => {{
            let (x, y) = (x.side(), y.side());
            match op {
                Add => zip(x, y, rows, |x, y| ($narrow)(x.wrapping_add(y))),
                Sub => zip(x, y, rows, |x, y| ($narrow)(x.wrapping_sub(y))),
                Mul => zip(x, y, rows, |x, y| ($narrow)(x.wrapping_mul(y))),
                // a zero divisor left over sits under a NULL
                Div => {
                    zip(x, y, rows, |x, y| ($narrow)(if y == 0 { 0 } else { x.wrapping_div(y) }))
                }
                Mod => {
                    zip(x, y, rows, |x, y| ($narrow)(if y == 0 { 0 } else { x.wrapping_rem(y) }))
                }
                _ => return Ok(None),
            }
        }};
    }
    Ok(Some(if *return_type == DataType::Integer {
        Block::Integer { values: zeroed(wrapping!(|v: i64| v as i32), &nulls), nulls }
    } else {
        Block::Bigint { values: zeroed(wrapping!(|v: i64| v), &nulls), nulls }
    }))
}

/// `a <op> b` for the six comparisons, in the class
/// [`DataType::comparison_type`] gives the two arguments: numbers widened
/// as `sql_cmp` widens them (a NaN is unequal to everything and ordered with
/// nothing), VARCHAR on bytes, DATE / TIMESTAMP / BOOLEAN as stored. `None`
/// when no value of one class ever compares with one of the other.
pub(crate) fn compare(op: Builtin, a: Arg<'_>, b: Arg<'_>, rows: usize) -> Option<Block> {
    use Builtin::*;
    macro_rules! ordered {
        ($x:expr, $y:expr) => {
            match op {
                Eq => zip($x, $y, rows, |x, y| x == y),
                Neq => zip($x, $y, rows, |x, y| x != y),
                Lt => zip($x, $y, rows, |x, y| x < y),
                Lte => zip($x, $y, rows, |x, y| x <= y),
                Gt => zip($x, $y, rows, |x, y| x > y),
                Gte => zip($x, $y, rows, |x, y| x >= y),
                _ => return None,
            }
        };
    }
    let values = match a.class()?.comparison_type(&b.class()?)? {
        DataType::Double => ordered!(doubles(a)?.side(), doubles(b)?.side()),
        DataType::Bigint | DataType::Timestamp => ordered!(longs(a)?.side(), longs(b)?.side()),
        DataType::Integer | DataType::Date => ordered!(ints(a)?.side(), ints(b)?.side()),
        DataType::Boolean => ordered!(bools(a)?.side(), bools(b)?.side()),
        DataType::Varchar => ordered!(texts(a)?, texts(b)?),
        _ => return None,
    };
    Some(boolean(values, either_null(a, b)))
}

/// `-a`, integers wrapping.
pub(crate) fn negate(a: &Block) -> Option<Block> {
    let nulls = null_mask(a).and_then(|n| some_if_any(n.to_vec()));
    Some(match a {
        Block::Bigint { values, .. } => Block::Bigint {
            values: zeroed(values.iter().map(|v| v.wrapping_neg()).collect(), &nulls),
            nulls,
        },
        Block::Integer { values, .. } => Block::Integer {
            values: zeroed(values.iter().map(|v| v.wrapping_neg()).collect(), &nulls),
            nulls,
        },
        Block::Double { values, .. } => {
            Block::Double { values: zeroed(values.iter().map(|v| -v).collect(), &nulls), nulls }
        }
        _ => return None,
    })
}

/// `NOT a`.
pub(crate) fn not(a: &Block) -> Option<Block> {
    let Block::Boolean { values, nulls } = a else { return None };
    let nulls = nulls.clone().and_then(some_if_any);
    Some(boolean(values.iter().map(|v| !v).collect(), nulls))
}

/// `a IS NULL`, for a column in any encoding.
pub(crate) fn is_null(a: &Block) -> Block {
    Block::boolean(match a {
        Block::Dictionary { dictionary, ids } => match null_mask(dictionary) {
            Some(nulls) => ids.iter().map(|&id| nulls[id as usize]).collect(),
            None => vec![false; ids.len()],
        },
        flat => null_mask(flat).map_or_else(|| vec![false; flat.len()], <[bool]>::to_vec),
    })
}

/// The rows of a column, in any encoding, that are NULL.
pub(crate) fn null_rows(a: &Block) -> Vec<usize> {
    match a {
        Block::Dictionary { .. } => (0..a.len()).filter(|&i| a.is_null(i)).collect(),
        flat => null_mask(flat).map_or_else(Vec::new, selected_rows),
    }
}

// -------------------------------------------------------------- logic

/// Three-valued AND / OR over whole columns: per row, whether the result is
/// already known TRUE and whether it is known FALSE; neither is NULL.
pub(crate) struct Kleene {
    is_and: bool,
    known_true: Vec<bool>,
    known_false: Vec<bool>,
}

impl Kleene {
    /// The identity of AND (`is_and`) or OR over `rows` rows.
    pub(crate) fn new(is_and: bool, rows: usize) -> Kleene {
        Kleene { is_and, known_true: vec![is_and; rows], known_false: vec![!is_and; rows] }
    }

    fn fold(&mut self, lanes: impl Iterator<Item = (bool, bool)>) {
        let slots = self.known_true.iter_mut().zip(self.known_false.iter_mut());
        if self.is_and {
            slots.zip(lanes).for_each(|((t, f), (is_true, is_false))| {
                *t &= is_true;
                *f |= is_false;
            });
        } else {
            slots.zip(lanes).for_each(|((t, f), (is_true, is_false))| {
                *t |= is_true;
                *f &= is_false;
            });
        }
    }

    /// Combine with one value on every row; `None` is NULL.
    pub(crate) fn scalar(&mut self, value: Option<bool>) {
        let lane = (value == Some(true), value == Some(false));
        self.fold(std::iter::repeat(lane));
    }

    /// Combine with a column; anything but a flat BOOLEAN counts as NULL, as
    /// the row-at-a-time path reads it.
    pub(crate) fn column(&mut self, block: &Block) {
        match block {
            Block::Boolean { values, nulls: None } => self.fold(values.iter().map(|&v| (v, !v))),
            Block::Boolean { values, nulls: Some(nulls) } => {
                self.fold(values.iter().zip(nulls).map(|(&v, &null)| (v && !null, !v && !null)));
            }
            _ => self.scalar(None),
        }
    }

    /// The result column: NULL where neither TRUE nor FALSE is known.
    pub(crate) fn finish(self) -> Block {
        let nulls =
            self.known_true.iter().zip(&self.known_false).map(|(&t, &f)| !t && !f).collect();
        Block::Boolean { values: self.known_true, nulls: some_if_any(nulls) }
    }
}

/// The rows where a BOOLEAN column is TRUE, and the others (FALSE or NULL),
/// both ascending; a column of another type is TRUE nowhere.
pub(crate) fn partition(mask: &Block) -> (Vec<usize>, Vec<usize>) {
    let rows = mask.len();
    let (mut yes, mut no) = (vec![0; rows], vec![0; rows]);
    let (mut y, mut n) = (0, 0);
    if let Block::Boolean { values, nulls } = mask {
        // branch-free: write the row to both lists, advance one cursor
        for (i, &value) in values.iter().enumerate() {
            let taken = value && !nulls.as_ref().is_some_and(|nulls| nulls[i]);
            yes[y] = i;
            no[n] = i;
            y += usize::from(taken);
            n += usize::from(!taken);
        }
    } else {
        no.iter_mut().enumerate().for_each(|(i, slot)| *slot = i);
        n = rows;
    }
    yes.truncate(y);
    no.truncate(n);
    (yes, no)
}

// ------------------------------------------------------- BETWEEN and IN

/// Per row of a flat column, whether its value is in `domain`; `None` when
/// the domain is of another storage class. Slots under a NULL are arbitrary.
fn contained(column: &Block, domain: &TypedDomain<'_>) -> Option<Vec<bool>> {
    Some(match (domain, column) {
        (TypedDomain::Int(d), Block::Bigint { values, .. } | Block::Timestamp { values, .. }) => {
            values.iter().map(|&v| d.contains(v)).collect()
        }
        (TypedDomain::Int(d), Block::Integer { values, .. } | Block::Date { values, .. }) => {
            values.iter().map(|&v| d.contains(i64::from(v))).collect()
        }
        (TypedDomain::Double(d), Block::Double { values, .. }) => {
            values.iter().map(|&v| d.contains(v)).collect()
        }
        (TypedDomain::Bytes(d), Block::Varchar { offsets, bytes, .. }) => {
            offsets.windows(2).map(|w| d.contains(&bytes[w[0] as usize..w[1] as usize])).collect()
        }
        _ => return None,
    })
}

/// `v BETWEEN lo AND hi`, which is `v >= lo AND v <= hi` in three-valued
/// logic; a bound may be a NULL scalar. Constant bounds in the column's own
/// class are one interval test; a bound of a class that never compares with
/// `v` makes its half NULL. `None` when `v` is of a nested type.
pub(crate) fn between(v: Arg<'_>, lo: Arg<'_>, hi: Arg<'_>, rows: usize) -> Option<Block> {
    let class = v.class()?;
    if let (Arg::Column(column), Arg::Scalar(low), Arg::Scalar(high)) = (v, lo, hi) {
        let domain = TypedDomain::interval(&class, Some(low), Some(high));
        if let Some(inside) = domain.and_then(|d| contained(column, &d)) {
            return Some(boolean(inside, null_mask(column).and_then(|n| some_if_any(n.to_vec()))));
        }
    }
    let mut both = Kleene::new(true, rows);
    for (op, bound) in [(Builtin::Gte, lo), (Builtin::Lte, hi)] {
        // a NULL bound is of no class either
        match compare(op, v, bound, rows) {
            Some(half) => both.column(&half),
            None => both.scalar(None),
        }
    }
    Some(both.finish())
}

/// `needle IN (items)`, which is `needle = item OR …` in three-valued logic;
/// an item may be a NULL scalar. Constant items in the needle's own class
/// are one set test; an item of a class that never compares with the needle
/// equals nothing. `None` when the needle is of a nested type.
pub(crate) fn in_list(needle: Arg<'_>, items: &[Arg<'_>], rows: usize) -> Option<Block> {
    let class = needle.class()?;
    let needle_nulls = || needle.nulls().and_then(|n| some_if_any(n.to_vec()));
    if let Arg::Column(column) = needle {
        let literals = || {
            items.iter().filter_map(|item| match item {
                Arg::Scalar(value) if !value.is_null() => Some(*value),
                _ => None,
            })
        };
        let constant = items.iter().all(|item| matches!(item, Arg::Scalar(_)));
        let domain = constant.then(|| TypedDomain::set(&class, literals())).flatten();
        if let Some(found) = domain.and_then(|d| contained(column, &d)) {
            // not found among these and a NULL: unknown
            let mut nulls = needle_nulls();
            if literals().count() < items.len() {
                let missed = found.iter().map(|&hit| !hit);
                nulls = some_if_any(match nulls {
                    Some(nulls) => nulls.iter().zip(missed).map(|(&n, miss)| n || miss).collect(),
                    None => missed.collect(),
                });
            }
            return Some(boolean(found, nulls));
        }
    }
    if items.is_empty() {
        return Some(boolean(vec![false; rows], needle_nulls()));
    }
    let mut any = Kleene::new(false, rows);
    for &item in items {
        if item.is_null_scalar() {
            any.scalar(None);
        } else {
            let equal = compare(Builtin::Eq, needle, item, rows)
                .unwrap_or_else(|| boolean(vec![false; rows], either_null(needle, item)));
            any.column(&equal);
        }
    }
    Some(any.finish())
}
