//! Columnar blocks — the in-memory vectorized representation.
//!
//! §III: "Internally, Presto is a vectorized engine, which processes a bunch
//! of in memory encoded column values vectorized, instead of row by row."
//! A [`Block`] is one column's worth of values for a batch of rows. Nested
//! types are *columnar all the way down*: a `ROW` block holds one child block
//! per field, an `ARRAY` block holds offsets plus a flattened element block —
//! the same shape the new Parquet reader (§V.E) builds directly from disk.
//!
//! [`Block::Dictionary`] is the encoding dictionary pushdown (§V.G) and lazy
//! dictionary-preserving reads produce, and how values that repeat are kept
//! late-materialised: a Hive partition column is one entry, and a hash
//! join's dense output points into the build column.

use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::ops::Range;

use crate::error::{PrestoError, Result};
use crate::page::selected_rows;
use crate::types::{DataType, Field};
use crate::value::Value;

/// Validity mask: `true` means NULL at that position. `None` means no nulls.
pub type NullMask = Option<Vec<bool>>;

/// `mask`, or `None` when it marks no NULL.
pub fn some_if_any(mask: Vec<bool>) -> NullMask {
    mask.contains(&true).then_some(mask)
}

/// One column of a batch of rows, in columnar layout.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// BOOLEAN column.
    Boolean {
        /// Values; positions where `nulls` is true hold an arbitrary value.
        values: Vec<bool>,
        /// Null mask.
        nulls: NullMask,
    },
    /// BIGINT column.
    Bigint {
        /// Values.
        values: Vec<i64>,
        /// Null mask.
        nulls: NullMask,
    },
    /// INTEGER column.
    Integer {
        /// Values.
        values: Vec<i32>,
        /// Null mask.
        nulls: NullMask,
    },
    /// DOUBLE column.
    Double {
        /// Values.
        values: Vec<f64>,
        /// Null mask.
        nulls: NullMask,
    },
    /// VARCHAR column stored as flat bytes + offsets (not `Vec<String>`),
    /// which is what makes string columns cheap to scan and slice.
    Varchar {
        /// `offsets.len() == row_count + 1`; row `i` is
        /// `bytes[offsets[i]..offsets[i+1]]`.
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payload.
        bytes: Vec<u8>,
        /// Null mask.
        nulls: NullMask,
    },
    /// DATE column (days since epoch).
    Date {
        /// Values.
        values: Vec<i32>,
        /// Null mask.
        nulls: NullMask,
    },
    /// TIMESTAMP column (millis since epoch).
    Timestamp {
        /// Values.
        values: Vec<i64>,
        /// Null mask.
        nulls: NullMask,
    },
    /// ARRAY column: offsets into a flattened element block.
    Array {
        /// Element type (needed when the block is empty).
        element_type: DataType,
        /// `offsets.len() == row_count + 1`.
        offsets: Vec<u32>,
        /// Flattened elements of every row.
        elements: Box<Block>,
        /// Null mask.
        nulls: NullMask,
    },
    /// MAP column: offsets into flattened key/value blocks.
    Map {
        /// Key type.
        key_type: DataType,
        /// Value type.
        value_type: DataType,
        /// `offsets.len() == row_count + 1`.
        offsets: Vec<u32>,
        /// Flattened keys.
        keys: Box<Block>,
        /// Flattened values.
        values: Box<Block>,
        /// Null mask.
        nulls: NullMask,
    },
    /// ROW (struct) column: one child block per field, all the same length.
    Row {
        /// Field definitions.
        fields: Vec<Field>,
        /// Child blocks, parallel to `fields`.
        children: Vec<Block>,
        /// Row count (kept explicitly so empty-field rows still have a length).
        len: usize,
        /// Null mask for the struct itself.
        nulls: NullMask,
    },
    /// Dictionary-encoded column: positions are ids into a (usually small)
    /// dictionary block. NULLs live in the dictionary.
    Dictionary {
        /// The distinct values.
        dictionary: Box<Block>,
        /// One id per row.
        ids: Vec<u32>,
    },
}

impl Block {
    // ---------------------------------------------------------------- ctors

    /// Non-null BIGINT block.
    pub fn bigint(values: Vec<i64>) -> Block {
        Block::Bigint { values, nulls: None }
    }

    /// Non-null INTEGER block.
    pub fn integer(values: Vec<i32>) -> Block {
        Block::Integer { values, nulls: None }
    }

    /// Non-null DOUBLE block.
    pub fn double(values: Vec<f64>) -> Block {
        Block::Double { values, nulls: None }
    }

    /// Non-null BOOLEAN block.
    pub fn boolean(values: Vec<bool>) -> Block {
        Block::Boolean { values, nulls: None }
    }

    /// Non-null VARCHAR block from string slices.
    pub fn varchar<S: AsRef<str>>(values: &[S]) -> Block {
        let mut offsets = Vec::with_capacity(values.len() + 1);
        let mut bytes = Vec::new();
        offsets.push(0u32);
        for v in values {
            bytes.extend_from_slice(v.as_ref().as_bytes());
            offsets.push(bytes.len() as u32);
        }
        Block::Varchar { offsets, bytes, nulls: None }
    }

    /// An all-NULL block of the given type and length.
    pub fn nulls(data_type: &DataType, len: usize) -> Block {
        #[allow(clippy::expect_used, reason = "`from_values` of no values cannot fail")]
        let none = Self::from_values(data_type, &[]).expect("no value mismatches the type");
        gather_in(&[&none], std::iter::repeat_n(None, len), None, false)
    }

    /// `len` rows of one scalar: what a literal is as a column.
    pub fn repeat(data_type: &DataType, value: &Value, len: usize) -> Result<Block> {
        let one = Self::from_values(data_type, std::slice::from_ref(value))?;
        Ok(gather_in(&[&one], std::iter::repeat_n(Some((0, 0..1)), len), Some(len), false))
    }

    /// Build a block of `data_type` from scalar values. This is the generic
    /// (slow-path) builder used by literals, the legacy row-based reader, and
    /// tests; hot paths construct typed blocks directly.
    pub fn from_values(data_type: &DataType, values: &[Value]) -> Result<Block> {
        fn mask(values: &[Value]) -> NullMask {
            if values.iter().any(Value::is_null) {
                Some(values.iter().map(Value::is_null).collect())
            } else {
                None
            }
        }
        let wrong = |v: &Value| {
            PrestoError::Internal(format!("value {v} does not match block type {data_type}"))
        };
        match data_type {
            DataType::Boolean => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Boolean(b) => *b,
                        Value::Null => false,
                        other => return Err(wrong(other)),
                    });
                }
                Ok(Block::Boolean { values: out, nulls: mask(values) })
            }
            DataType::Bigint => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Bigint(x) => *x,
                        Value::Integer(x) => *x as i64,
                        Value::Null => 0,
                        other => return Err(wrong(other)),
                    });
                }
                Ok(Block::Bigint { values: out, nulls: mask(values) })
            }
            DataType::Integer => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Integer(x) => *x,
                        Value::Null => 0,
                        other => return Err(wrong(other)),
                    });
                }
                Ok(Block::Integer { values: out, nulls: mask(values) })
            }
            DataType::Double => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Double(x) => *x,
                        Value::Bigint(x) => *x as f64,
                        Value::Integer(x) => *x as f64,
                        Value::Null => 0.0,
                        other => return Err(wrong(other)),
                    });
                }
                Ok(Block::Double { values: out, nulls: mask(values) })
            }
            DataType::Varchar => {
                let mut offsets = Vec::with_capacity(values.len() + 1);
                let mut bytes = Vec::new();
                offsets.push(0u32);
                for v in values {
                    match v {
                        Value::Varchar(s) => bytes.extend_from_slice(s.as_bytes()),
                        Value::Null => {}
                        other => return Err(wrong(other)),
                    }
                    offsets.push(bytes.len() as u32);
                }
                Ok(Block::Varchar { offsets, bytes, nulls: mask(values) })
            }
            DataType::Date => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Date(x) => *x,
                        Value::Null => 0,
                        other => return Err(wrong(other)),
                    });
                }
                Ok(Block::Date { values: out, nulls: mask(values) })
            }
            DataType::Timestamp => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Timestamp(x) => *x,
                        Value::Null => 0,
                        other => return Err(wrong(other)),
                    });
                }
                Ok(Block::Timestamp { values: out, nulls: mask(values) })
            }
            DataType::Array(elem) => {
                let mut offsets = Vec::with_capacity(values.len() + 1);
                let mut flat = Vec::new();
                offsets.push(0u32);
                for v in values {
                    match v {
                        Value::Array(items) => flat.extend_from_slice(items),
                        Value::Null => {}
                        other => return Err(wrong(other)),
                    }
                    offsets.push(flat.len() as u32);
                }
                Ok(Block::Array {
                    element_type: (**elem).clone(),
                    offsets,
                    elements: Box::new(Block::from_values(elem, &flat)?),
                    nulls: mask(values),
                })
            }
            DataType::Map(kt, vt) => {
                let mut offsets = Vec::with_capacity(values.len() + 1);
                let mut flat_k = Vec::new();
                let mut flat_v = Vec::new();
                offsets.push(0u32);
                for v in values {
                    match v {
                        Value::Map(entries) => {
                            for (k, val) in entries {
                                flat_k.push(k.clone());
                                flat_v.push(val.clone());
                            }
                        }
                        Value::Null => {}
                        other => return Err(wrong(other)),
                    }
                    offsets.push(flat_k.len() as u32);
                }
                Ok(Block::Map {
                    key_type: (**kt).clone(),
                    value_type: (**vt).clone(),
                    offsets,
                    keys: Box::new(Block::from_values(kt, &flat_k)?),
                    values: Box::new(Block::from_values(vt, &flat_v)?),
                    nulls: mask(values),
                })
            }
            DataType::Row(fields) => {
                let mut columns: Vec<Vec<Value>> =
                    fields.iter().map(|_| Vec::with_capacity(values.len())).collect();
                for v in values {
                    match v {
                        Value::Row(items) => {
                            if items.len() != fields.len() {
                                return Err(PrestoError::Internal(format!(
                                    "row value has {} fields, type has {}",
                                    items.len(),
                                    fields.len()
                                )));
                            }
                            for (col, item) in columns.iter_mut().zip(items.iter()) {
                                col.push(item.clone());
                            }
                        }
                        // A NULL struct contributes NULL to every child column.
                        Value::Null => {
                            for col in columns.iter_mut() {
                                col.push(Value::Null);
                            }
                        }
                        other => return Err(wrong(other)),
                    }
                }
                let children = fields
                    .iter()
                    .zip(columns.iter())
                    .map(|(f, col)| Block::from_values(&f.data_type, col))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Block::Row {
                    fields: fields.clone(),
                    children,
                    len: values.len(),
                    nulls: mask(values),
                })
            }
        }
    }

    // ------------------------------------------------------------ accessors

    /// Number of rows in this block.
    pub fn len(&self) -> usize {
        match self {
            Block::Boolean { values, .. } => values.len(),
            Block::Bigint { values, .. } => values.len(),
            Block::Integer { values, .. } => values.len(),
            Block::Double { values, .. } => values.len(),
            Block::Varchar { offsets, .. } => offsets.len() - 1,
            Block::Date { values, .. } => values.len(),
            Block::Timestamp { values, .. } => values.len(),
            Block::Array { offsets, .. } => offsets.len() - 1,
            Block::Map { offsets, .. } => offsets.len() - 1,
            Block::Row { len, .. } => *len,
            Block::Dictionary { ids, .. } => ids.len(),
        }
    }

    /// True when the block has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The SQL type of this block.
    pub fn data_type(&self) -> DataType {
        match self {
            Block::Boolean { .. } => DataType::Boolean,
            Block::Bigint { .. } => DataType::Bigint,
            Block::Integer { .. } => DataType::Integer,
            Block::Double { .. } => DataType::Double,
            Block::Varchar { .. } => DataType::Varchar,
            Block::Date { .. } => DataType::Date,
            Block::Timestamp { .. } => DataType::Timestamp,
            Block::Array { element_type, .. } => DataType::array(element_type.clone()),
            Block::Map { key_type, value_type, .. } => {
                DataType::map(key_type.clone(), value_type.clone())
            }
            Block::Row { fields, .. } => DataType::Row(fields.clone()),
            Block::Dictionary { dictionary, .. } => dictionary.data_type(),
        }
    }

    /// Is the value at position `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Block::Dictionary { dictionary, ids } => dictionary.is_null(ids[i] as usize),
            plain => plain.null_mask().as_ref().is_some_and(|n| n[i]),
        }
    }

    /// A plain block's null mask; a dictionary has none of its own (its
    /// NULLs live in its entries).
    fn null_mask(&self) -> &NullMask {
        match self {
            Block::Boolean { nulls, .. }
            | Block::Bigint { nulls, .. }
            | Block::Integer { nulls, .. }
            | Block::Double { nulls, .. }
            | Block::Varchar { nulls, .. }
            | Block::Date { nulls, .. }
            | Block::Timestamp { nulls, .. }
            | Block::Array { nulls, .. }
            | Block::Map { nulls, .. }
            | Block::Row { nulls, .. } => nulls,
            Block::Dictionary { .. } => &None,
        }
    }

    /// Materialize row `i` as a scalar [`Value`]. Slow path — used for
    /// result display, group keys, and test oracles.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            Block::Boolean { values, .. } => Value::Boolean(values[i]),
            Block::Bigint { values, .. } => Value::Bigint(values[i]),
            Block::Integer { values, .. } => Value::Integer(values[i]),
            Block::Double { values, .. } => Value::Double(values[i]),
            Block::Varchar { offsets, bytes, .. } => {
                let s = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                Value::Varchar(String::from_utf8_lossy(s).into_owned())
            }
            Block::Date { values, .. } => Value::Date(values[i]),
            Block::Timestamp { values, .. } => Value::Timestamp(values[i]),
            Block::Array { offsets, elements, .. } => {
                let items = (offsets[i] as usize..offsets[i + 1] as usize)
                    .map(|j| elements.value(j))
                    .collect();
                Value::Array(items)
            }
            Block::Map { offsets, keys, values, .. } => {
                let entries = (offsets[i] as usize..offsets[i + 1] as usize)
                    .map(|j| (keys.value(j), values.value(j)))
                    .collect();
                Value::Map(entries)
            }
            Block::Row { children, .. } => {
                Value::Row(children.iter().map(|c| c.value(i)).collect())
            }
            Block::Dictionary { dictionary, ids } => dictionary.value(ids[i] as usize),
        }
    }

    /// String slice at position `i` for VARCHAR blocks (fast path, no alloc).
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            Block::Varchar { offsets, bytes, nulls } => {
                if nulls.as_ref().map(|n| n[i]).unwrap_or(false) {
                    return None;
                }
                std::str::from_utf8(&bytes[offsets[i] as usize..offsets[i + 1] as usize]).ok()
            }
            Block::Dictionary { dictionary, ids } => dictionary.str_at(ids[i] as usize),
            _ => None,
        }
    }

    /// All rows of the block as scalar values.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    // ------------------------------------------------------------- reshapes

    /// Gather the given row indices into a new block (see [`Block::slice`]
    /// for how a dictionary comes out).
    pub fn take(&self, indices: &[usize]) -> Block {
        gather_in(&[self], indices.iter().map(row), Some(indices.len()), true)
    }

    /// Keep rows where `selection` is true. `selection.len()` must equal
    /// `self.len()`.
    pub fn filter(&self, selection: &[bool]) -> Block {
        debug_assert_eq!(selection.len(), self.len());
        self.take(&selected_rows(selection))
    }

    /// Contiguous slice `[offset, offset + len)`, copied as one run. Like
    /// [`Block::take`], and unlike [`Block::gather`], it copies the rows as
    /// the block holds them: a dictionary stays encoded at any depth (the
    /// ids gathered, the entries shared) and a NULL row keeps its slot,
    /// bytes, elements and fields — zero, none and NULL in every block the
    /// readers, `from_values` and `gather` build, so there the two agree to
    /// the bit.
    pub fn slice(&self, offset: usize, len: usize) -> Block {
        gather_in(&[self], std::iter::once(Some((0, offset..offset + len))), None, true)
    }

    /// Concatenate blocks of the same type: one [`Block::gather`] of every
    /// part whole. One block is returned as it is.
    pub fn concat<B: Borrow<Block>>(blocks: &[B]) -> Result<Block> {
        if let [one] = blocks {
            return Ok(one.borrow().clone());
        }
        let parts: Vec<&Block> = blocks.iter().map(Borrow::borrow).collect();
        Block::gather(&parts, parts.iter().enumerate().map(|(p, b)| Some((p, 0..b.len()))))
    }

    /// This block with every row `nulls` marks NULL: what a struct's NULLs
    /// make of its fields. The block itself when those rows are NULL
    /// already; else it is gathered as [`Block::slice`] would, in runs
    /// split at them.
    pub fn null_where(self, nulls: &[bool]) -> Block {
        if nulls.iter().enumerate().all(|(i, &null)| !null || self.is_null(i)) {
            return self;
        }
        let mut runs = Vec::new();
        for (i, &null) in nulls.iter().enumerate() {
            push_run(&mut runs, (!null).then_some((0, i..i + 1)));
        }
        gather_in(&[&self], runs.into_iter(), None, true)
    }

    /// The one reshaping kernel: the runs `rows` of `parts`, blocks of one
    /// type, gathered into one block — exactly the block
    /// [`Block::from_values`] builds of the gathered rows' values. A run of
    /// one part is copied as one slice; a `None` row is NULL. So the result
    /// is plain (a dictionary part is read through its ids), a NULL slot
    /// holds the type's zero value, and so no bytes, elements or entries,
    /// every field of a NULL struct is NULL, and there is a null mask only
    /// where a NULL is gathered — where [`Block::take`] and [`Block::slice`]
    /// copy the rows as a block holds them. Array, map and row parts are
    /// gathered from their offsets and children.
    pub fn gather<I>(parts: &[&Block], rows: I) -> Result<Block>
    where
        I: IntoIterator<Item = Run>,
        I::IntoIter: Clone,
    {
        one_type(parts)?;
        Ok(gather_in(parts, rows.into_iter(), None, false))
    }

    /// [`Block::gather`] of the single rows `(part, row)`, none of them NULL,
    /// without the pass over them that tells runs and NULL rows apart.
    pub fn gather_rows<I>(parts: &[&Block], rows: I) -> Result<Block>
    where
        I: ExactSizeIterator<Item = (usize, usize)> + Clone,
    {
        one_type(parts)?;
        let known = Some(rows.len());
        Ok(gather_in(parts, rows.map(|(p, r)| Some((p, r..r + 1))), known, false))
    }

    /// Compare row `i` of this block with row `j` of `other`, a block of
    /// the same type (either may be a dictionary), in [`Value::total_cmp`]
    /// order (numbers < NaN < NULL) without materializing either scalar.
    pub fn cmp_with(&self, i: usize, other: &Block, j: usize) -> Ordering {
        fn nulls_last(
            (a, i): (&NullMask, usize),
            (b, j): (&NullMask, usize),
            cmp: impl FnOnce() -> Ordering,
        ) -> Ordering {
            let null = |n: &NullMask, i: usize| n.as_ref().is_some_and(|n| n[i]);
            match (null(a, i), null(b, j)) {
                (false, false) => cmp(),
                (x, y) => x.cmp(&y),
            }
        }
        match (self, other) {
            (Block::Dictionary { dictionary, ids }, _) => {
                dictionary.cmp_with(ids[i] as usize, other, j)
            }
            (_, Block::Dictionary { dictionary, ids }) => {
                self.cmp_with(i, dictionary, ids[j] as usize)
            }
            (Block::Boolean { values: a, nulls: an }, Block::Boolean { values: b, nulls: bn }) => {
                nulls_last((an, i), (bn, j), || a[i].cmp(&b[j]))
            }
            (Block::Bigint { values: a, nulls: an }, Block::Bigint { values: b, nulls: bn })
            | (
                Block::Timestamp { values: a, nulls: an },
                Block::Timestamp { values: b, nulls: bn },
            ) => nulls_last((an, i), (bn, j), || a[i].cmp(&b[j])),
            (Block::Integer { values: a, nulls: an }, Block::Integer { values: b, nulls: bn })
            | (Block::Date { values: a, nulls: an }, Block::Date { values: b, nulls: bn }) => {
                nulls_last((an, i), (bn, j), || a[i].cmp(&b[j]))
            }
            (Block::Double { values: a, nulls: an }, Block::Double { values: b, nulls: bn }) => {
                nulls_last((an, i), (bn, j), || {
                    let (a, b) = (a[i], b[j]);
                    a.partial_cmp(&b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
                })
            }
            (
                Block::Varchar { offsets: ao, bytes: ab, nulls: an },
                Block::Varchar { offsets: bo, bytes: bb, nulls: bn },
            ) => nulls_last((an, i), (bn, j), || {
                let a = &ab[ao[i] as usize..ao[i + 1] as usize];
                a.cmp(&bb[bo[j] as usize..bo[j + 1] as usize])
            }),
            // nested types
            _ => self.value(i).total_cmp(&other.value(j)),
        }
    }

    /// Append a 64-bit sort prefix per row to `out`: `prefix[i] <
    /// prefix[j]` only when [`Block::cmp_with`] orders row `i` before row
    /// `j`; equal prefixes decide nothing (long strings, nested values). A
    /// sort that compares prefixes first touches the column itself only on
    /// a tie.
    pub fn order_prefixes(&self, out: &mut Vec<u64>) {
        const NULL: u64 = u64::MAX;
        let signed = |v: i64| (v as u64) ^ (1 << 63);
        let start = out.len();
        let nulls = match self {
            Block::Boolean { values, nulls } => {
                out.extend(values.iter().map(|&v| u64::from(v)));
                nulls
            }
            Block::Bigint { values, nulls } | Block::Timestamp { values, nulls } => {
                out.extend(values.iter().map(|&v| signed(v)));
                nulls
            }
            Block::Integer { values, nulls } | Block::Date { values, nulls } => {
                out.extend(values.iter().map(|&v| signed(i64::from(v))));
                nulls
            }
            Block::Double { values, nulls } => {
                let prefix = |v: &f64| match (v + 0.0).to_bits() {
                    _ if v.is_nan() => NULL - 1,
                    negative if negative >> 63 == 1 => !negative,
                    positive => positive | (1 << 63),
                };
                out.extend(values.iter().map(prefix));
                nulls
            }
            Block::Varchar { offsets, bytes, nulls } => {
                let prefix = |w: &[u32]| {
                    let head = bytes[w[0] as usize..w[1] as usize].iter().take(8);
                    let read = head.fold((0u64, 0), |(p, n), &b| ((p << 8) | u64::from(b), n + 1));
                    read.0.checked_shl(64 - 8 * read.1).unwrap_or(0)
                };
                out.extend(offsets.windows(2).map(prefix));
                nulls
            }
            Block::Dictionary { dictionary, ids } => {
                let mut entries = Vec::with_capacity(dictionary.len());
                dictionary.order_prefixes(&mut entries);
                out.extend(ids.iter().map(|&id| entries[id as usize]));
                return;
            }
            Block::Array { .. } | Block::Map { .. } | Block::Row { .. } => {
                out.resize(start + self.len(), 0);
                return;
            }
        };
        for (p, _) in out[start..].iter_mut().zip(nulls.iter().flatten()).filter(|(_, n)| **n) {
            *p = NULL;
        }
    }

    /// This block in the numeric type `to` that
    /// [`DataType::comparison_type`] picked: INTEGER → BIGINT,
    /// INTEGER/BIGINT → DOUBLE, as `sql_cmp` widens. `None` when there is
    /// nothing to do — the block already is of that type, or is not numeric.
    pub fn widen(&self, to: &DataType) -> Option<Block> {
        Some(match (self, to) {
            (Block::Dictionary { .. }, _) if self.data_type() != *to => {
                return self.decode_dictionary().widen(to);
            }
            (Block::Integer { values, nulls }, DataType::Bigint) => Block::Bigint {
                values: values.iter().map(|&v| i64::from(v)).collect(),
                nulls: nulls.clone(),
            },
            (Block::Integer { values, nulls }, DataType::Double) => Block::Double {
                values: values.iter().map(|&v| f64::from(v)).collect(),
                nulls: nulls.clone(),
            },
            (Block::Bigint { values, nulls }, DataType::Double) => Block::Double {
                values: values.iter().map(|&v| v as f64).collect(),
                nulls: nulls.clone(),
            },
            _ => return None,
        })
    }

    /// Flatten a dictionary block to its plain encoding; other blocks are
    /// returned unchanged.
    pub fn decode_dictionary(&self) -> Block {
        match self {
            Block::Dictionary { dictionary, ids } => {
                let rows = ids.iter().map(|&id| row(&(id as usize)));
                gather_in(&[dictionary], rows, Some(ids.len()), false)
            }
            other => other.clone(),
        }
    }

    /// Approximate heap size in bytes, used for memory accounting (the
    /// "Insufficient Resource" budget of §XII.C).
    pub fn memory_size(&self) -> usize {
        let mask = |nulls: &NullMask| nulls.as_ref().map(|n| n.len()).unwrap_or(0);
        match self {
            Block::Boolean { values, nulls } => values.len() + mask(nulls),
            Block::Bigint { values, nulls } => values.len() * 8 + mask(nulls),
            Block::Integer { values, nulls } => values.len() * 4 + mask(nulls),
            Block::Double { values, nulls } => values.len() * 8 + mask(nulls),
            Block::Date { values, nulls } => values.len() * 4 + mask(nulls),
            Block::Timestamp { values, nulls } => values.len() * 8 + mask(nulls),
            Block::Varchar { offsets, bytes, nulls } => {
                offsets.len() * 4 + bytes.len() + mask(nulls)
            }
            Block::Array { offsets, elements, nulls, .. } => {
                offsets.len() * 4 + elements.memory_size() + mask(nulls)
            }
            Block::Map { offsets, keys, values, nulls, .. } => {
                offsets.len() * 4 + keys.memory_size() + values.memory_size() + mask(nulls)
            }
            Block::Row { children, nulls, .. } => {
                children.iter().map(Block::memory_size).sum::<usize>() + mask(nulls)
            }
            Block::Dictionary { dictionary, ids } => dictionary.memory_size() + ids.len() * 4,
        }
    }
}

/// Check that `parts`, the blocks of a gather, are some and of one type.
fn one_type(parts: &[&Block]) -> Result<()> {
    let first =
        parts.first().ok_or_else(|| PrestoError::Internal("gather of zero blocks".into()))?;
    let dt = first.data_type();
    match parts.iter().find(|b| b.data_type() != dt) {
        Some(b) => Err(PrestoError::Internal(format!(
            "gather of mismatched block types {dt} vs {}",
            b.data_type()
        ))),
        None => Ok(()),
    }
}

/// What a gather reads, one run at a time: `Some((part, rows))` is the rows
/// `rows` of part `part`, in order; `None` is one NULL row. A single row is
/// a run of one.
pub type Run = Option<(usize, Range<usize>)>;

/// [`Block::gather`] without its checks. `known` is the number of runs when
/// the caller knows each is one row and none is NULL (a take's). `keep` is
/// the rule of [`Block::take`] and [`Block::slice`]: the rows as the part
/// holds them — a dictionary, the one part at its depth, stays encoded, and
/// a NULL row's slot, bytes, elements and fields are copied.
fn gather_in<I>(parts: &[&Block], runs: I, known: Option<usize>, keep: bool) -> Block
where
    I: Iterator<Item = Run> + Clone,
{
    // how many rows, whether each run is one row, whether any row is NULL
    let (len, single_rows, null_rows) = match known {
        Some(n) => (n, true, false),
        None => runs.clone().fold((0, true, false), |(n, one, null), run| match run {
            Some((_, r)) => (n + r.len(), one && r.len() == 1, null),
            None => (n + 1, one, true),
        }),
    };
    if let (true, [Block::Dictionary { dictionary, ids }]) = (keep, parts) {
        // a NULL row takes a NULL entry's id; with no such entry the part is read through
        let null = match null_rows {
            true => (0..dictionary.len()).rev().find(|&e| dictionary.is_null(e)).map(|e| e as u32),
            false => Some(0),
        };
        if let Some(null) = null {
            // a slice, not a `&Vec`: no store into the output can move it, so
            // the loop keeps it in registers (so every per-row loop below)
            let ids = &ids[..];
            let mut gathered = Vec::with_capacity(len);
            match single_rows {
                true => gathered.extend(runs.map(|run| run.map_or(null, |(_, r)| ids[r.start]))),
                false => runs.for_each(|run| match run {
                    Some((_, rows)) => gathered.extend_from_slice(&ids[rows]),
                    None => gathered.push(null),
                }),
            }
            return Block::Dictionary { dictionary: dictionary.clone(), ids: gathered };
        }
    }
    let dictionaries = parts.iter().any(|b| matches!(b, Block::Dictionary { .. }));
    // a dictionary part is decoded first when read in runs, so that they are
    // copied as slices, and over structs, whose fields read the same rows
    let runs_or_structs = !single_rows || matches!(entries(parts[0]), Block::Row { .. });
    if runs_or_structs && dictionaries {
        let decoded: Vec<Cow<'_, Block>> = parts
            .iter()
            .map(|&b| match b {
                Block::Dictionary { .. } => Cow::Owned(b.decode_dictionary()),
                plain => Cow::Borrowed(plain),
            })
            .collect();
        return gather_in(&decoded.iter().map(|b| &**b).collect::<Vec<_>>(), runs, known, keep);
    }
    // plain parts read a row at a time: each row read straight from its part
    let plain_rows = single_rows && !dictionaries;
    let masked = null_rows || parts.iter().any(|b| entries(b).null_mask().is_some());
    let nulls = if masked { null_mask(parts, runs.clone(), len, plain_rows) } else { None };
    // the one plain part read a row at a time, for an array's or map's offsets
    let one = match parts {
        [one] if plain_rows => Some(*one),
        _ => None,
    };
    // each part's children at `field`, for the gather one level down
    let children = |field: &dyn Fn(&Block) -> Option<&Block>| -> Vec<&Block> {
        parts.iter().filter_map(|b| field(entries(b))).collect()
    };
    macro_rules! fixed {
        ($variant:ident) => {{
            let mut values = Vec::with_capacity(len);
            let zero = Default::default();
            match one {
                Some(Block::$variant { values: v, .. }) => {
                    let v = &v[..];
                    values.extend(runs.map(|run| run.map_or(zero, |(_, rows)| v[rows.start])));
                }
                // single rows of several plain parts, each part's values one slice
                _ if plain_rows => {
                    let slices: Vec<&[_]> = parts
                        .iter()
                        .map(|b| match b {
                            Block::$variant { values, .. } => &values[..],
                            _ => &[],
                        })
                        .collect();
                    values.extend(
                        runs.map(|run| run.map_or(zero, |(p, rows)| slices[p][rows.start])),
                    );
                }
                _ => walk(parts, runs, |run| match run {
                    Some((Block::$variant { values: v, .. }, _, rows)) => {
                        values.extend_from_slice(&v[rows])
                    }
                    Some(_) => unreachable!("every part is of one type"),
                    None => values.push(zero),
                }),
            }
            if let (false, Some(mask)) = (keep, &nulls) {
                for (value, &null) in values.iter_mut().zip(mask) {
                    *value = if null { zero } else { *value };
                }
            }
            Block::$variant { values, nulls }
        }};
    }
    match entries(parts[0]) {
        Block::Boolean { .. } => fixed!(Boolean),
        Block::Bigint { .. } => fixed!(Bigint),
        Block::Integer { .. } => fixed!(Integer),
        Block::Double { .. } => fixed!(Double),
        Block::Date { .. } => fixed!(Date),
        Block::Timestamp { .. } => fixed!(Timestamp),
        Block::Varchar { .. } => {
            let mut offsets = Vec::with_capacity(len + 1);
            offsets.push(0);
            // room for `len` rows of the parts' mean length, rounded up
            let (total, rows) = parts.iter().fold((0, 0), |(t, n), b| match entries(b) {
                Block::Varchar { offsets, bytes, .. } => (t + bytes.len(), n + offsets.len() - 1),
                _ => (t, n),
            });
            let mut bytes = Vec::with_capacity(total.div_ceil(rows.max(1)) * len);
            match one {
                Some(Block::Varchar { offsets: o, bytes: b, nulls: n }) => {
                    let (o, b, n) = (&o[..], &b[..], dropped(n, keep));
                    for run in runs {
                        match run {
                            Some((_, rows)) if !n.is_some_and(|n| n[rows.start]) => {
                                let i = rows.start;
                                bytes.extend_from_slice(&b[o[i] as usize..o[i + 1] as usize]);
                            }
                            _ => {}
                        }
                        offsets.push(bytes.len() as u32);
                    }
                }
                _ => walk(parts, runs, |run| match run {
                    Some((Block::Varchar { offsets: o, bytes: b, nulls }, _, rows)) => {
                        spans(&mut offsets, o, dropped(nulls, keep), rows, |span| {
                            bytes.extend_from_slice(&b[span])
                        })
                    }
                    Some(_) => unreachable!("every part is of one type"),
                    None => offsets.push(bytes.len() as u32),
                }),
            }
            Block::Varchar { offsets, bytes, nulls }
        }
        Block::Array { element_type, .. } => {
            let (offsets, child) = nested(parts, runs, len, one, keep);
            let elements = children(&|b| match b {
                Block::Array { elements, .. } => Some(elements),
                _ => None,
            });
            Block::Array {
                element_type: element_type.clone(),
                offsets,
                elements: Box::new(child.gather(&elements, keep)),
                nulls,
            }
        }
        Block::Map { key_type, value_type, .. } => {
            let (offsets, child) = nested(parts, runs, len, one, keep);
            let keys = children(&|b| match b {
                Block::Map { keys, .. } => Some(keys),
                _ => None,
            });
            let values = children(&|b| match b {
                Block::Map { values, .. } => Some(values),
                _ => None,
            });
            Block::Map {
                key_type: key_type.clone(),
                value_type: value_type.clone(),
                offsets,
                keys: Box::new(child.gather(&keys, keep)),
                values: Box::new(child.gather(&values, keep)),
                nulls,
            }
        }
        Block::Row { fields, .. } => {
            let field = |f: usize| {
                children(&|b| match b {
                    Block::Row { children, .. } => children.get(f),
                    _ => None,
                })
            };
            let children = (0..fields.len()).map(|f| {
                let field = gather_in(&field(f), runs.clone(), known, keep);
                // a NULL struct's row is NULL in every field
                match &nulls {
                    Some(n) if !keep => field.null_where(n),
                    _ => field,
                }
            });
            Block::Row { fields: fields.clone(), children: children.collect(), len, nulls }
        }
        Block::Dictionary { .. } => unreachable!("`entries` is never a dictionary"),
    }
}

/// The plain block a part's rows are read from: the part itself, or the
/// entries under its dictionaries.
fn entries(block: &Block) -> &Block {
    match block {
        Block::Dictionary { dictionary, .. } => entries(dictionary),
        plain => plain,
    }
}

/// Walk `runs` over `parts`, handing `each` every run as `(plain block,
/// part, rows of it)` — a dictionary part's rows one at a time, through
/// its ids into its [`entries`] — or `None` for a NULL row.
fn walk<'b, I>(
    parts: &[&'b Block],
    runs: I,
    mut each: impl FnMut(Option<(&'b Block, usize, Range<usize>)>),
) where
    I: Iterator<Item = Run>,
{
    for run in runs {
        match run {
            Some((p, rows)) if matches!(parts[p], Block::Dictionary { .. }) => {
                for mut row in rows {
                    let mut block = parts[p];
                    while let Block::Dictionary { dictionary, ids } = block {
                        (block, row) = (dictionary, ids[row] as usize);
                    }
                    each(Some((block, p, row..row + 1)));
                }
            }
            Some((p, rows)) => each(Some((parts[p], p, rows))),
            None => each(None),
        }
    }
}

/// The null mask of the `len` rows `runs` of `parts`: `None` when none is
/// NULL. `plain_rows`: the parts are plain and each run is one row.
fn null_mask<I>(parts: &[&Block], runs: I, len: usize, plain_rows: bool) -> NullMask
where
    I: Iterator<Item = Run>,
{
    let mut mask = Vec::with_capacity(len);
    match parts {
        [plain] if plain_rows => match plain.null_mask().as_deref() {
            Some(n) => mask.extend(runs.map(|run| run.is_none_or(|(_, rows)| n[rows.start]))),
            None => mask.extend(runs.map(|run| run.is_none())),
        },
        _ => walk(parts, runs, |run| match run {
            Some((plain, _, rows)) => match plain.null_mask() {
                Some(n) => mask.extend(n[rows].iter().copied()),
                None => mask.resize(mask.len() + rows.len(), false),
            },
            None => mask.push(true),
        }),
    }
    some_if_any(mask)
}

/// The mask by which a gather drops a NULL row's bytes, elements or
/// entries: none under `keep`, which copies them as the part holds them.
fn dropped(nulls: &NullMask, keep: bool) -> Option<&[bool]> {
    nulls.as_deref().filter(|_| !keep)
}

/// Row `i` of the first part, as a run.
fn row(&i: &usize) -> Run {
    Some((0, i..i + 1))
}

/// The rows of an array or map gather's children: row ids of the one part,
/// when its rows are read one at a time (a take), else runs.
enum Spanned {
    Rows(Vec<usize>),
    Runs(Vec<Run>),
}

impl Spanned {
    fn gather(&self, parts: &[&Block], keep: bool) -> Block {
        match self {
            Spanned::Rows(rows) => gather_in(parts, rows.iter().map(row), Some(rows.len()), keep),
            Spanned::Runs(runs) => gather_in(parts, runs.iter().cloned(), None, keep),
        }
    }
}

/// The offsets and child rows of an array or map gather: each row's
/// entries, a NULL row's none ([`dropped`]). `one` is the one part read a
/// row at a time.
fn nested<I>(
    parts: &[&Block],
    runs: I,
    len: usize,
    one: Option<&Block>,
    keep: bool,
) -> (Vec<u32>, Spanned)
where
    I: Iterator<Item = Run>,
{
    let mut offsets = Vec::with_capacity(len + 1);
    offsets.push(0);
    if let Some(Block::Array { offsets: o, nulls, .. } | Block::Map { offsets: o, nulls, .. }) = one
    {
        let (o, nulls) = (&o[..], dropped(nulls, keep));
        let mut rows = Vec::new();
        for run in runs {
            let full = |(_, rows): &(usize, Range<usize>)| !nulls.is_some_and(|n| n[rows.start]);
            if let Some((_, r)) = run.filter(full) {
                rows.extend(o[r.start] as usize..o[r.start + 1] as usize);
            }
            offsets.push(rows.len() as u32);
        }
        return (offsets, Spanned::Rows(rows));
    }
    let mut child = Vec::new();
    walk(parts, runs, |run| match run {
        Some((
            Block::Array { offsets: o, nulls, .. } | Block::Map { offsets: o, nulls, .. },
            p,
            rows,
        )) => spans(&mut offsets, o, dropped(nulls, keep), rows, |span| {
            if !span.is_empty() {
                push_run(&mut child, Some((p, span)));
            }
        }),
        Some(_) => unreachable!("every part is of one type"),
        None => offsets.push(offsets.last().copied().unwrap_or(0)),
    });
    (offsets, Spanned::Runs(child))
}

/// Append to `out` the offsets of rows `rows` of a part with offsets
/// `offsets` and null mask `nulls`, continuing from `out`'s last, and hand
/// `copy` each range of the part's bytes or child rows they span, in
/// order. A NULL row spans nothing; where none spans anything, the rows
/// are one range and their offsets are rebased at once.
fn spans(
    out: &mut Vec<u32>,
    offsets: &[u32],
    nulls: Option<&[bool]>,
    rows: Range<usize>,
    mut copy: impl FnMut(Range<usize>),
) {
    let at = out.last().copied().unwrap_or(0);
    let full = |i: usize| offsets[i] != offsets[i + 1];
    match nulls.filter(|n| rows.clone().any(|i| n[i] && full(i))) {
        None => {
            let base = at.wrapping_sub(offsets[rows.start]);
            out.extend(offsets[rows.start + 1..=rows.end].iter().map(|&o| base.wrapping_add(o)));
            copy(offsets[rows.start] as usize..offsets[rows.end] as usize);
        }
        Some(n) => {
            let mut at = at;
            for i in rows {
                if !n[i] {
                    copy(offsets[i] as usize..offsets[i + 1] as usize);
                    at += offsets[i + 1] - offsets[i];
                }
                out.push(at);
            }
        }
    }
}

/// Append `run` to `runs`, or extend the last run when `run` continues it.
fn push_run(runs: &mut Vec<Run>, run: Run) {
    if let (Some(Some((p, last))), Some((q, rows))) = (runs.last_mut(), &run) {
        if p == q && last.end == rows.start {
            last.end = rows.end;
            return;
        }
    }
    runs.push(run);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_type() -> DataType {
        DataType::row(vec![
            Field::new("id", DataType::Bigint),
            Field::new("tags", DataType::array(DataType::Varchar)),
        ])
    }

    fn nested_values() -> Vec<Value> {
        vec![
            Value::Row(vec![Value::Bigint(1), Value::Array(vec!["a".into(), "b".into()])]),
            Value::Null,
            Value::Row(vec![Value::Bigint(3), Value::Array(vec![])]),
        ]
    }

    #[test]
    fn from_values_round_trips_scalars() {
        let vals = vec![Value::Bigint(1), Value::Null, Value::Bigint(3), Value::Bigint(-7)];
        let block = Block::from_values(&DataType::Bigint, &vals).unwrap();
        assert_eq!(block.len(), 4);
        assert_eq!((0..block.len()).filter(|&i| block.is_null(i)).count(), 1);
        assert_eq!(block.to_values(), vals);
    }

    #[test]
    fn from_values_round_trips_varchar() {
        let vals = vec![Value::Varchar("hello".into()), Value::Null, Value::Varchar("".into())];
        let block = Block::from_values(&DataType::Varchar, &vals).unwrap();
        assert_eq!(block.to_values(), vals);
        assert_eq!(block.str_at(0), Some("hello"));
        assert_eq!(block.str_at(1), None);
        assert_eq!(block.str_at(2), Some(""));
    }

    #[test]
    fn from_values_round_trips_nested() {
        let block = Block::from_values(&nested_type(), &nested_values()).unwrap();
        assert_eq!(block.len(), 3);
        assert_eq!(block.to_values(), nested_values());
        assert_eq!(block.data_type(), nested_type());
    }

    #[test]
    fn from_values_rejects_type_mismatch() {
        let err = Block::from_values(&DataType::Bigint, &[Value::Varchar("x".into())]);
        assert!(err.is_err());
    }

    /// Every scalar type with a NULL-carrying sample, plus one nested type.
    fn typed_samples() -> Vec<(DataType, Vec<Value>)> {
        vec![
            (DataType::Boolean, vec![true.into(), Value::Null, false.into(), true.into()]),
            (DataType::Bigint, vec![Value::Null, i64::MIN.into(), 7i64.into(), i64::MAX.into()]),
            (DataType::Integer, vec![3i32.into(), (-3i32).into(), Value::Null, i32::MAX.into()]),
            (
                DataType::Double,
                vec![f64::NAN.into(), (-0.0f64).into(), 0.0f64.into(), Value::Null, 2.5f64.into()],
            ),
            (DataType::Varchar, vec!["bb".into(), Value::Null, "".into(), "a".into(), "bb".into()]),
            (DataType::Date, vec![Value::Date(9), Value::Null, Value::Date(-1)]),
            (DataType::Timestamp, vec![Value::Timestamp(5), Value::Timestamp(-5), Value::Null]),
            (nested_type(), nested_values()),
        ]
    }

    /// Layout equality down to the bit: `==` would call two NaNs different.
    fn assert_same(actual: &Block, expected: &Block, what: &str) {
        assert_eq!(format!("{actual:?}"), format!("{expected:?}"), "{what}");
    }

    fn non_null(values: &[Value]) -> Vec<Value> {
        values.iter().filter(|v| !v.is_null()).cloned().collect()
    }

    /// Blocks with something other than the zero value under a NULL slot:
    /// a value, bytes, elements, entries, and fields that are not NULL.
    fn dirty_samples() -> Vec<Block> {
        let null_at = |i: usize, n: usize| Some((0..n).map(|j| j == i).collect());
        let tags = |offsets: Vec<u32>, nulls| Block::Array {
            element_type: DataType::Varchar,
            offsets,
            elements: Box::new(Block::varchar(&["a", "b", "c", "d", "e"])),
            nulls,
        };
        vec![
            Block::Bigint { values: vec![1, 99, 3], nulls: null_at(1, 3) },
            Block::Double { values: vec![f64::NAN, -0.0, 9.5], nulls: null_at(2, 3) },
            Block::Varchar {
                offsets: vec![0, 2, 6, 7],
                bytes: b"abjunkc".to_vec(),
                nulls: null_at(1, 3),
            },
            tags(vec![0, 2, 3, 3, 5], null_at(1, 4)),
            Block::Map {
                key_type: DataType::Varchar,
                value_type: DataType::Bigint,
                offsets: vec![0, 1, 2, 3],
                keys: Box::new(Block::varchar(&["k", "l", "m"])),
                values: Box::new(Block::Bigint { values: vec![1, 2, 7], nulls: null_at(2, 3) }),
                nulls: null_at(1, 3),
            },
            Block::Row {
                fields: match nested_type() {
                    DataType::Row(fields) => fields,
                    _ => unreachable!(),
                },
                children: vec![Block::bigint(vec![1, 2, 3]), tags(vec![0, 2, 3, 5], None)],
                len: 3,
                nulls: null_at(1, 3),
            },
        ]
    }

    /// Per type, blocks to reshape: with NULLs, without, empty, dirty (see
    /// [`dirty_samples`]) and a dictionary over entries with a NULL.
    fn reshape_samples() -> Vec<(DataType, Vec<Block>)> {
        let map = DataType::map(DataType::Varchar, DataType::Bigint);
        let maps = vec![
            Value::Map(vec![("x".into(), 1i64.into()), ("y".into(), Value::Null)]),
            Value::Null,
            Value::Map(vec![]),
        ];
        let mut typed = typed_samples();
        typed.push((
            DataType::array(DataType::Varchar),
            vec![Value::Array(vec!["a".into(), Value::Null]), Value::Null, Value::Array(vec![])],
        ));
        typed.push((map, maps));
        let mut dirty = dirty_samples();
        typed
            .into_iter()
            .map(|(dt, values)| {
                let with_nulls = Block::from_values(&dt, &values).unwrap();
                let last = values.len() as u32 - 1;
                let dict = Block::Dictionary {
                    dictionary: Box::new(with_nulls.clone()),
                    ids: vec![last, 0, 1, 1, 0],
                };
                let mut blocks = vec![
                    with_nulls,
                    Block::from_values(&dt, &non_null(&values)).unwrap(),
                    Block::from_values(&dt, &[]).unwrap(),
                    dict,
                ];
                let (same, rest) = dirty.drain(..).partition(|b: &Block| b.data_type() == dt);
                dirty = rest;
                blocks.extend(same);
                (dt, blocks)
            })
            .collect()
    }

    /// The values `rows` of `parts` read: what every reshape must build.
    fn expected(dt: &DataType, parts: &[&Block], rows: &[Run]) -> Block {
        let values: Vec<Value> = rows
            .iter()
            .flat_map(|run| match run {
                Some((p, rows)) => rows.clone().map(|r| parts[*p].value(r)).collect(),
                None => vec![Value::Null],
            })
            .collect();
        Block::from_values(dt, &values).unwrap()
    }

    /// `take` and `slice` copy rows as the block holds them: a dictionary's
    /// ids, gathered, over the same entries; any other block what
    /// `from_values` builds when the source is what it builds, else the
    /// same values.
    fn assert_kept(actual: &Block, source: &Block, indices: &[usize], what: &str) {
        let dt = source.data_type();
        let runs: Vec<Run> = indices.iter().map(|&i| Some((0, i..i + 1))).collect();
        let values = expected(&dt, &[source], &runs);
        let canonical = Block::from_values(&dt, &source.to_values()).unwrap();
        match (actual, source) {
            (
                Block::Dictionary { dictionary, ids },
                Block::Dictionary { dictionary: d, ids: i },
            ) => {
                assert_same(dictionary, d, &format!("{what}: the entries"));
                assert_eq!(*ids, indices.iter().map(|&r| i[r]).collect::<Vec<_>>(), "{what}");
                assert_same(&actual.decode_dictionary(), &values, what);
            }
            (_, Block::Dictionary { .. }) => panic!("{what}: decoded"),
            _ if format!("{canonical:?}") == format!("{source:?}") => {
                assert_same(actual, &values, what)
            }
            _ => assert_eq!(
                format!("{:?}", actual.to_values()),
                format!("{:?}", values.to_values()),
                "{what}"
            ),
        }
    }

    /// Every reshape — `take`, `slice`, `filter`, `concat`, `gather` with
    /// NULL rows, `gather_rows` and `decode_dictionary` — against `from_values` of the
    /// values it gathers, over every type, with and without NULLs, dirty
    /// NULL slots, dictionary parts, and one to three parts.
    #[test]
    fn every_reshape_is_from_values_of_what_it_gathers() {
        for (dt, blocks) in reshape_samples() {
            for (b, block) in blocks.iter().enumerate() {
                let n = block.len();
                let what = |op: &str| format!("{dt} sample {b} {op}");
                let backwards: Vec<usize> = (0..n).rev().flat_map(|i| [i, i]).collect();
                for indices in [backwards, (0..n).step_by(2).collect(), vec![]] {
                    assert_kept(&block.take(&indices), block, &indices, &what("take"));
                }
                for offset in 0..=n {
                    for len in 0..=n - offset {
                        let indices: Vec<usize> = (offset..offset + len).collect();
                        let sliced = block.slice(offset, len);
                        assert_kept(
                            &sliced,
                            block,
                            &indices,
                            &what(&format!("slice {offset}+{len}")),
                        );
                    }
                }
                let mask: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
                let kept: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
                assert_kept(&block.filter(&mask), block, &kept, &what("filter"));
                let decoded = block.decode_dictionary();
                match block {
                    Block::Dictionary { .. } => {
                        let all = expected(&dt, &[block], &[Some((0, 0..n))]);
                        assert_same(&decoded, &all, &what("decode"));
                    }
                    plain => assert_same(&decoded, plain, &what("decode: as it is")),
                }
            }
            // one to three parts, each pair and a run of three
            let mut sets: Vec<Vec<&Block>> = blocks.iter().map(|b| vec![b]).collect();
            sets.extend(blocks.iter().flat_map(|a| blocks.iter().map(move |b| vec![a, b])));
            sets.extend(blocks.windows(3).map(|w| w.iter().collect()));
            for parts in sets {
                let what = format!("{dt} parts {parts:?}");
                let whole: Vec<Run> =
                    parts.iter().enumerate().map(|(p, b)| Some((p, 0..b.len()))).collect();
                let joined = Block::concat(&parts).unwrap();
                match &parts[..] {
                    [one] => assert_same(&joined, one, &format!("{what}: one block as it is")),
                    _ => assert_same(
                        &joined,
                        &expected(&dt, &parts, &whole),
                        &format!("{what} concat"),
                    ),
                }
                // single rows backwards and repeated, runs of two, NULL rows between
                let rows: Vec<Run> = (0..parts.len())
                    .flat_map(|p| (0..parts[p].len()).map(move |r| (p, r)))
                    .rev()
                    .flat_map(|(p, r)| {
                        [Some((p, r..r + 1)), None, Some((p, r / 2..r / 2 + 2 - r % 2))]
                    })
                    .collect();
                // single rows of every part, backwards and each twice
                let singles: Vec<(usize, usize)> = (0..parts.len())
                    .flat_map(|p| (0..parts[p].len()).flat_map(move |r| [(p, r), (p, r)]))
                    .rev()
                    .collect();
                let runs: Vec<Run> = singles.iter().map(|&(p, r)| Some((p, r..r + 1))).collect();
                assert_same(
                    &Block::gather_rows(&parts, singles.into_iter()).unwrap(),
                    &expected(&dt, &parts, &runs),
                    &format!("{what} gather_rows"),
                );
                for rows in [whole, rows, vec![None, None], vec![]] {
                    let gathered = Block::gather(&parts, rows.iter().cloned()).unwrap();
                    assert_same(
                        &gathered,
                        &expected(&dt, &parts, &rows),
                        &format!("{what} {rows:?}"),
                    );
                }
            }
        }
        assert!(Block::concat::<Block>(&[]).is_err());
        assert!(Block::gather(&[], []).is_err());
        let mismatched = [&Block::bigint(vec![1]), &Block::double(vec![1.0])];
        assert!(Block::gather(&mismatched, [Some((0, 0..1))]).is_err());
        assert!(Block::concat(&mismatched).is_err());
    }

    /// `take` copies what a NULL slot holds — a value, a struct's fields —
    /// where `gather` writes zero and NULL; `null_where` is the NULL
    /// struct's rule for one field, and keeps a dictionary with a NULL
    /// entry encoded.
    #[test]
    fn take_keeps_a_null_slot_and_gather_zeroes_it() {
        let dirty = Block::Bigint { values: vec![1, 99], nulls: Some(vec![false, true]) };
        assert_eq!(
            dirty.take(&[1, 0]),
            Block::Bigint { values: vec![99, 1], nulls: Some(vec![true, false]) }
        );
        let gathered = Block::gather(&[&dirty], [Some((0, 1..2))]).unwrap();
        assert_eq!(gathered, Block::Bigint { values: vec![0], nulls: Some(vec![true]) });

        let field = |entries: Block| Block::Dictionary {
            dictionary: Box::new(entries),
            ids: vec![0, 1, 0],
        };
        let with_null = Block::from_values(&DataType::Varchar, &["a".into(), Value::Null]).unwrap();
        for (entries, encoded) in [(Block::varchar(&["a", "b"]), false), (with_null, true)] {
            let block = Block::Row {
                fields: vec![Field::new("code", DataType::Varchar)],
                children: vec![field(entries)],
                len: 3,
                nulls: Some(vec![false, true, false]),
            };
            let taken = block.take(&[0, 1, 2]);
            assert_same(&taken, &block, "take of every row");
            let values =
                vec![Value::Row(vec!["a".into()]), Value::Null, Value::Row(vec!["a".into()])];
            assert_eq!(taken.to_values(), values);
            let gathered = Block::gather(&[&block], [Some((0, 0..3))]).unwrap();
            let canonical = Block::from_values(&block.data_type(), &values).unwrap();
            assert_same(&gathered, &canonical, "gather");
            let Block::Row { children, .. } = block else { unreachable!() };
            let nulled = children[0].clone().null_where(&[false, true, false]);
            assert_eq!(nulled.to_values(), vec!["a".into(), Value::Null, "a".into()]);
            assert_eq!(matches!(nulled, Block::Dictionary { .. }), encoded, "{nulled:?}");
        }
    }

    #[test]
    fn cmp_with_is_total_cmp_on_typed_columns() {
        for (dt, values) in typed_samples() {
            let block = Block::from_values(&dt, &values).unwrap();
            let dict = Block::Dictionary {
                dictionary: Box::new(block.clone()),
                ids: (0..values.len() as u32).collect(),
            };
            for i in 0..values.len() {
                for j in 0..values.len() {
                    let expected = values[i].total_cmp(&values[j]);
                    assert_eq!(block.cmp_with(i, &block, j), expected, "{dt} rows {i},{j}");
                    assert_eq!(
                        dict.cmp_with(i, &dict, j),
                        expected,
                        "{dt} rows {i},{j} via dictionary"
                    );
                    assert_eq!(block.cmp_with(i, &dict, j), expected, "{dt} rows {i},{j} across");
                    assert_eq!(dict.cmp_with(i, &block, j), expected, "{dt} rows {i},{j} across");
                }
            }
        }
    }

    #[test]
    fn order_prefixes_never_contradict_cmp_with() {
        let mut samples = typed_samples();
        samples.push((
            DataType::Varchar,
            vec!["".into(), "abcdefgh".into(), "abcdefghi".into(), "abcdefg".into(), "b".into()],
        ));
        samples.push((
            DataType::Double,
            vec![f64::NEG_INFINITY.into(), (-1.5f64).into(), f64::INFINITY.into(), 1e-300.into()],
        ));
        for (dt, values) in samples {
            let block = Block::from_values(&dt, &values).unwrap();
            let mut prefixes = vec![7];
            block.order_prefixes(&mut prefixes);
            assert_eq!(prefixes.remove(0), 7, "appended");
            assert_eq!(prefixes.len(), values.len());
            for i in 0..values.len() {
                for j in 0..values.len() {
                    if prefixes[i] < prefixes[j] {
                        assert_eq!(
                            block.cmp_with(i, &block, j),
                            Ordering::Less,
                            "{dt} rows {i},{j}"
                        );
                    }
                }
            }
        }
        // scalars that differ are told apart by the prefix alone
        let mut doubles = Vec::new();
        Block::double(vec![-0.0, 0.0, -2.0, f64::NAN, 3.0]).order_prefixes(&mut doubles);
        assert_eq!(doubles[0], doubles[1]);
        assert!(doubles[2] < doubles[0] && doubles[1] < doubles[4] && doubles[4] < doubles[3]);
    }

    #[test]
    fn widen_follows_the_comparison_type() {
        let ints = Block::from_values(&DataType::Integer, &[1i32.into(), Value::Null]).unwrap();
        let to = DataType::Integer.comparison_type(&DataType::Bigint).unwrap();
        assert_eq!(ints.widen(&to).unwrap().to_values(), vec![1i64.into(), Value::Null]);
        let to = DataType::Double.comparison_type(&DataType::Integer).unwrap();
        assert_eq!(ints.widen(&to).unwrap().to_values(), vec![1.0f64.into(), Value::Null]);
        let dict =
            Block::Dictionary { dictionary: Box::new(Block::bigint(vec![7])), ids: vec![0, 0] };
        assert_eq!(dict.widen(&DataType::Double).unwrap(), Block::double(vec![7.0, 7.0]));
        assert!(dict.widen(&DataType::Bigint).is_none());
        assert!(Block::varchar(&["a"]).widen(&DataType::Double).is_none());
        assert_eq!(DataType::Varchar.comparison_type(&DataType::Bigint), None);
        assert_eq!(DataType::Date.comparison_type(&DataType::Date), Some(DataType::Date));
    }

    #[test]
    fn take_preserves_nested_structure() {
        let block = Block::from_values(&nested_type(), &nested_values()).unwrap();
        let taken = block.take(&[2, 0]);
        assert_eq!(
            taken.to_values(),
            vec![
                Value::Row(vec![Value::Bigint(3), Value::Array(vec![])]),
                Value::Row(vec![Value::Bigint(1), Value::Array(vec!["a".into(), "b".into()])]),
            ]
        );
    }

    #[test]
    fn dictionary_block_reads_through() {
        let dict = Block::varchar(&["SFO", "NYC", "LAX"]);
        let block = Block::Dictionary { dictionary: Box::new(dict), ids: vec![2, 0, 0, 1] };
        assert_eq!(block.len(), 4);
        assert_eq!(block.value(0), "LAX".into());
        assert_eq!(block.str_at(1), Some("SFO"));
        let decoded = block.decode_dictionary();
        assert!(matches!(decoded, Block::Varchar { .. }));
        assert_eq!(decoded.to_values(), block.to_values());
        let taken = block.take(&[3, 3]);
        assert_eq!(taken.to_values(), vec!["NYC".into(), "NYC".into()]);
    }

    #[test]
    fn null_struct_masks_children() {
        let block = Block::from_values(&nested_type(), &nested_values()).unwrap();
        assert!(block.is_null(1));
        assert_eq!(block.value(1), Value::Null);
    }

    #[test]
    fn memory_size_tracks_payload() {
        let small = Block::bigint(vec![1]);
        let big = Block::bigint((0..1000).collect());
        assert!(big.memory_size() > small.memory_size());
    }
}
