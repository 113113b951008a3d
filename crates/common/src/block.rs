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
        Self::from_values(data_type, &vec![Value::Null; len])
            .expect("null block construction cannot fail")
    }

    /// `len` rows of one scalar: what a literal is as a column.
    pub fn repeat(data_type: &DataType, value: &Value, len: usize) -> Result<Block> {
        let one = Self::from_values(data_type, std::slice::from_ref(value))?;
        Ok(if len == 1 { one } else { one.take(&vec![0; len]) })
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

    /// Gather the given row indices into a new block.
    pub fn take(&self, indices: &[usize]) -> Block {
        fn take_mask(nulls: &NullMask, indices: &[usize]) -> NullMask {
            nulls.as_ref().and_then(|n| some_if_any(indices.iter().map(|&i| n[i]).collect()))
        }
        match self {
            Block::Boolean { values, nulls } => Block::Boolean {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: take_mask(nulls, indices),
            },
            Block::Bigint { values, nulls } => Block::Bigint {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: take_mask(nulls, indices),
            },
            Block::Integer { values, nulls } => Block::Integer {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: take_mask(nulls, indices),
            },
            Block::Double { values, nulls } => Block::Double {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: take_mask(nulls, indices),
            },
            Block::Date { values, nulls } => Block::Date {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: take_mask(nulls, indices),
            },
            Block::Timestamp { values, nulls } => Block::Timestamp {
                values: indices.iter().map(|&i| values[i]).collect(),
                nulls: take_mask(nulls, indices),
            },
            Block::Varchar { offsets, bytes, nulls } => {
                let mut new_offsets = Vec::with_capacity(indices.len() + 1);
                let mut new_bytes = Vec::new();
                new_offsets.push(0u32);
                for &i in indices {
                    new_bytes
                        .extend_from_slice(&bytes[offsets[i] as usize..offsets[i + 1] as usize]);
                    new_offsets.push(new_bytes.len() as u32);
                }
                Block::Varchar {
                    offsets: new_offsets,
                    bytes: new_bytes,
                    nulls: take_mask(nulls, indices),
                }
            }
            Block::Array { element_type, offsets, elements, nulls } => {
                let mut new_offsets = Vec::with_capacity(indices.len() + 1);
                let mut elem_indices = Vec::new();
                new_offsets.push(0u32);
                for &i in indices {
                    elem_indices.extend(offsets[i] as usize..offsets[i + 1] as usize);
                    new_offsets.push(elem_indices.len() as u32);
                }
                Block::Array {
                    element_type: element_type.clone(),
                    offsets: new_offsets,
                    elements: Box::new(elements.take(&elem_indices)),
                    nulls: take_mask(nulls, indices),
                }
            }
            Block::Map { key_type, value_type, offsets, keys, values, nulls } => {
                let mut new_offsets = Vec::with_capacity(indices.len() + 1);
                let mut entry_indices = Vec::new();
                new_offsets.push(0u32);
                for &i in indices {
                    entry_indices.extend(offsets[i] as usize..offsets[i + 1] as usize);
                    new_offsets.push(entry_indices.len() as u32);
                }
                Block::Map {
                    key_type: key_type.clone(),
                    value_type: value_type.clone(),
                    offsets: new_offsets,
                    keys: Box::new(keys.take(&entry_indices)),
                    values: Box::new(values.take(&entry_indices)),
                    nulls: take_mask(nulls, indices),
                }
            }
            Block::Row { fields, children, nulls, .. } => Block::Row {
                fields: fields.clone(),
                children: children.iter().map(|c| c.take(indices)).collect(),
                len: indices.len(),
                nulls: take_mask(nulls, indices),
            },
            Block::Dictionary { dictionary, ids } => Block::Dictionary {
                dictionary: dictionary.clone(),
                ids: indices.iter().map(|&i| ids[i]).collect(),
            },
        }
    }

    /// Keep rows where `selection` is true. `selection.len()` must equal
    /// `self.len()`.
    pub fn filter(&self, selection: &[bool]) -> Block {
        debug_assert_eq!(selection.len(), self.len());
        self.take(&selected_rows(selection))
    }

    /// Gather rows like [`Block::take`], with `None` producing a NULL row
    /// (the build side of a LEFT join's misses). The result is always a
    /// plain block; NULL slots hold the type's zero value.
    pub fn take_nullable(&self, indices: &[Option<usize>]) -> Block {
        fn gather<T: Copy + Default>(
            values: &[T],
            nulls: &NullMask,
            indices: &[Option<usize>],
        ) -> (Vec<T>, NullMask) {
            let null_at = |i: usize| nulls.as_ref().is_some_and(|n| n[i]);
            let mask = indices.iter().map(|o| o.is_none_or(null_at)).collect();
            let values = indices
                .iter()
                .map(|o| o.filter(|&i| !null_at(i)).map_or(T::default(), |i| values[i]))
                .collect();
            (values, some_if_any(mask))
        }
        macro_rules! fixed {
            ($variant:ident, $values:expr, $nulls:expr) => {{
                let (values, nulls) = gather($values, $nulls, indices);
                Block::$variant { values, nulls }
            }};
        }
        match self {
            Block::Boolean { values, nulls } => fixed!(Boolean, values, nulls),
            Block::Bigint { values, nulls } => fixed!(Bigint, values, nulls),
            Block::Integer { values, nulls } => fixed!(Integer, values, nulls),
            Block::Double { values, nulls } => fixed!(Double, values, nulls),
            Block::Date { values, nulls } => fixed!(Date, values, nulls),
            Block::Timestamp { values, nulls } => fixed!(Timestamp, values, nulls),
            Block::Varchar { offsets, bytes, nulls } => {
                let null_at = |i: usize| nulls.as_ref().is_some_and(|n| n[i]);
                let mut new_offsets = Vec::with_capacity(indices.len() + 1);
                let mut new_bytes = Vec::new();
                new_offsets.push(0u32);
                for i in indices.iter().map(|o| o.filter(|&i| !null_at(i))) {
                    if let Some(i) = i {
                        new_bytes.extend_from_slice(
                            &bytes[offsets[i] as usize..offsets[i + 1] as usize],
                        );
                    }
                    new_offsets.push(new_bytes.len() as u32);
                }
                let mask = indices.iter().map(|o| o.is_none_or(null_at)).collect();
                Block::Varchar { offsets: new_offsets, bytes: new_bytes, nulls: some_if_any(mask) }
            }
            // through the ids into the entries: no row is decoded first
            Block::Dictionary { dictionary, ids } => {
                let entries: Vec<Option<usize>> =
                    indices.iter().map(|o| o.map(|i| ids[i] as usize)).collect();
                dictionary.take_nullable(&entries)
            }
            Block::Array { .. } | Block::Map { .. } | Block::Row { .. } => {
                let values: Vec<Value> =
                    indices.iter().map(|o| o.map_or(Value::Null, |i| self.value(i))).collect();
                Block::from_values(&self.data_type(), &values)
                    .expect("a block's own values match its type")
            }
        }
    }

    /// Contiguous slice `[offset, offset + len)`: a copy of the range, equal
    /// to `take` of the same rows.
    pub fn slice(&self, offset: usize, len: usize) -> Block {
        let end = offset + len;
        let mask =
            |nulls: &NullMask| nulls.as_ref().and_then(|n| some_if_any(n[offset..end].to_vec()));
        // offsets of the range rebased to zero, and the child range they span
        let rebase = |offsets: &[u32]| -> (Vec<u32>, usize, usize) {
            let (lo, hi) = (offsets[offset], offsets[end]);
            (offsets[offset..=end].iter().map(|o| o - lo).collect(), lo as usize, hi as usize)
        };
        macro_rules! fixed {
            ($variant:ident, $values:expr, $nulls:expr) => {
                Block::$variant { values: $values[offset..end].to_vec(), nulls: mask($nulls) }
            };
        }
        match self {
            Block::Boolean { values, nulls } => fixed!(Boolean, values, nulls),
            Block::Bigint { values, nulls } => fixed!(Bigint, values, nulls),
            Block::Integer { values, nulls } => fixed!(Integer, values, nulls),
            Block::Double { values, nulls } => fixed!(Double, values, nulls),
            Block::Date { values, nulls } => fixed!(Date, values, nulls),
            Block::Timestamp { values, nulls } => fixed!(Timestamp, values, nulls),
            Block::Varchar { offsets, bytes, nulls } => {
                let (offsets, lo, hi) = rebase(offsets);
                Block::Varchar { offsets, bytes: bytes[lo..hi].to_vec(), nulls: mask(nulls) }
            }
            Block::Array { element_type, offsets, elements, nulls } => {
                let (offsets, lo, hi) = rebase(offsets);
                Block::Array {
                    element_type: element_type.clone(),
                    offsets,
                    elements: Box::new(elements.slice(lo, hi - lo)),
                    nulls: mask(nulls),
                }
            }
            Block::Map { key_type, value_type, offsets, keys, values, nulls } => {
                let (offsets, lo, hi) = rebase(offsets);
                Block::Map {
                    key_type: key_type.clone(),
                    value_type: value_type.clone(),
                    offsets,
                    keys: Box::new(keys.slice(lo, hi - lo)),
                    values: Box::new(values.slice(lo, hi - lo)),
                    nulls: mask(nulls),
                }
            }
            Block::Row { fields, children, nulls, .. } => Block::Row {
                fields: fields.clone(),
                children: children.iter().map(|c| c.slice(offset, len)).collect(),
                len,
                nulls: mask(nulls),
            },
            Block::Dictionary { dictionary, ids } => {
                Block::Dictionary { dictionary: dictionary.clone(), ids: ids[offset..end].to_vec() }
            }
        }
    }

    /// Concatenate blocks of the same type. One block is returned as it is;
    /// several always yield a plain (dictionary-free) block whose NULL
    /// slots hold the type's zero value, with no mask when no NULL survives
    /// — what [`Block::from_values`] over all the values would build.
    pub fn concat<B: Borrow<Block>>(blocks: &[B]) -> Result<Block> {
        let first = blocks
            .first()
            .ok_or_else(|| PrestoError::Internal("concat of zero blocks".into()))?
            .borrow();
        if blocks.len() == 1 {
            return Ok(first.clone());
        }
        let dt = first.data_type();
        if let Some(b) = blocks.iter().find(|b| (*b).borrow().data_type() != dt) {
            return Err(PrestoError::Internal(format!(
                "concat of mismatched block types {dt} vs {}",
                b.borrow().data_type()
            )));
        }
        let parts: Vec<Cow<'_, Block>> = blocks
            .iter()
            .map(|b| match b.borrow() {
                dict @ Block::Dictionary { .. } => Cow::Owned(dict.decode_dictionary()),
                plain => Cow::Borrowed(plain),
            })
            .collect();
        let total: usize = parts.iter().map(|b| b.len()).sum();
        // the concatenated mask, built only once some part holds a NULL
        let mut mask: Vec<bool> = Vec::new();
        let mut note_nulls = |nulls: &NullMask, before: usize, len: usize| {
            if let Some(n) = nulls.as_ref().filter(|n| n.contains(&true)) {
                mask.resize(before, false);
                mask.extend_from_slice(n);
            } else if !mask.is_empty() {
                mask.resize(before + len, false);
            }
        };
        macro_rules! fixed {
            ($variant:ident) => {{
                let mut values = Vec::with_capacity(total);
                for part in &parts {
                    if let Block::$variant { values: v, nulls } = &**part {
                        note_nulls(nulls, values.len(), v.len());
                        values.extend_from_slice(v);
                    }
                }
                for (value, _) in values.iter_mut().zip(&mask).filter(|(_, null)| **null) {
                    *value = Default::default();
                }
                Block::$variant { values, nulls: some_if_any(mask) }
            }};
        }
        Ok(match dt {
            DataType::Boolean => fixed!(Boolean),
            DataType::Bigint => fixed!(Bigint),
            DataType::Integer => fixed!(Integer),
            DataType::Double => fixed!(Double),
            DataType::Date => fixed!(Date),
            DataType::Timestamp => fixed!(Timestamp),
            DataType::Varchar => {
                let mut offsets = Vec::with_capacity(total + 1);
                let mut bytes = Vec::new();
                offsets.push(0u32);
                for part in &parts {
                    if let Block::Varchar { offsets: o, bytes: b, nulls } = &**part {
                        note_nulls(nulls, offsets.len() - 1, o.len() - 1);
                        match nulls.as_ref().filter(|n| n.contains(&true)) {
                            None => {
                                let base = (bytes.len() as u32).wrapping_sub(o[0]);
                                bytes.extend_from_slice(&b[o[0] as usize..o[o.len() - 1] as usize]);
                                offsets.extend(o[1..].iter().map(|end| base.wrapping_add(*end)));
                            }
                            // a NULL row contributes no bytes
                            Some(n) => {
                                for (i, null) in n.iter().enumerate() {
                                    if !null {
                                        bytes.extend_from_slice(
                                            &b[o[i] as usize..o[i + 1] as usize],
                                        );
                                    }
                                    offsets.push(bytes.len() as u32);
                                }
                            }
                        }
                    }
                }
                Block::Varchar { offsets, bytes, nulls: some_if_any(mask) }
            }
            // nested types take the generic path through values
            DataType::Array(_) | DataType::Map(..) | DataType::Row(_) => {
                let all: Vec<Value> = parts.iter().flat_map(|b| b.to_values()).collect();
                Block::from_values(&dt, &all)?
            }
        })
    }

    /// Rows `(part, position)` of `parts`, blocks of one type, gathered
    /// into one block: what `Block::concat(parts)?.take(..)` of the same
    /// rows builds when there are several parts — plain, NULL slots holding
    /// the type's zero value, a mask only where a NULL survives — without
    /// the concatenated copy. A dictionary part is read through its ids.
    pub(crate) fn gather<I>(parts: &[&Block], rows: I) -> Result<Block>
    where
        I: ExactSizeIterator<Item = (usize, usize)> + Clone,
    {
        let first =
            parts.first().ok_or_else(|| PrestoError::Internal("gather of zero blocks".into()))?;
        let dt = first.data_type();
        if let Some(b) = parts.iter().find(|b| b.data_type() != dt) {
            return Err(PrestoError::Internal(format!(
                "gather of mismatched block types {dt} vs {}",
                b.data_type()
            )));
        }
        // each part's plain block and, behind a dictionary, its ids
        let plain: Vec<(&Block, Option<&[u32]>)> = parts
            .iter()
            .map(|b| match b {
                Block::Dictionary { dictionary, ids } => (&**dictionary, Some(&ids[..])),
                plain => (*plain, None),
            })
            .collect();
        let slot = |ids: Option<&[u32]>, row: usize| ids.map_or(row, |ids| ids[row] as usize);
        let null_at = |nulls: &NullMask, i: usize| nulls.as_ref().is_some_and(|n| n[i]);
        // the mask of the gathered rows, built only when some part has one
        let mask = || match plain.iter().all(|(b, _)| b.null_mask().is_none()) {
            true => None,
            false => some_if_any(
                rows.clone().map(|(p, r)| plain[p].0.is_null(slot(plain[p].1, r))).collect(),
            ),
        };
        macro_rules! fixed {
            ($variant:ident) => {{
                let mut values = Vec::with_capacity(rows.len());
                values.extend(rows.clone().map(|(p, r)| match plain[p] {
                    (Block::$variant { values, nulls }, ids) => {
                        let i = slot(ids, r);
                        if null_at(nulls, i) {
                            Default::default()
                        } else {
                            values[i]
                        }
                    }
                    _ => unreachable!("every part is of the checked type"),
                }));
                Block::$variant { values, nulls: mask() }
            }};
        }
        Ok(match dt {
            DataType::Boolean => fixed!(Boolean),
            DataType::Bigint => fixed!(Bigint),
            DataType::Integer => fixed!(Integer),
            DataType::Double => fixed!(Double),
            DataType::Date => fixed!(Date),
            DataType::Timestamp => fixed!(Timestamp),
            DataType::Varchar => {
                // each row's bytes, or none for a NULL
                let span = |(p, r): (usize, usize)| match plain[p] {
                    (Block::Varchar { offsets, bytes, nulls }, ids) => {
                        let i = slot(ids, r);
                        match null_at(nulls, i) {
                            true => &bytes[..0],
                            false => &bytes[offsets[i] as usize..offsets[i + 1] as usize],
                        }
                    }
                    _ => unreachable!("every part is of the checked type"),
                };
                let mut offsets = Vec::with_capacity(rows.len() + 1);
                let mut bytes = Vec::with_capacity(rows.clone().map(|row| span(row).len()).sum());
                offsets.push(0u32);
                for row in rows.clone() {
                    bytes.extend_from_slice(span(row));
                    offsets.push(bytes.len() as u32);
                }
                Block::Varchar { offsets, bytes, nulls: mask() }
            }
            // nested types take the generic path through the concatenation
            DataType::Array(_) | DataType::Map(..) | DataType::Row(_) => {
                let starts =
                    parts.iter().scan(0, |at, b| Some(std::mem::replace(at, *at + b.len())));
                let starts: Vec<usize> = starts.collect();
                let indices: Vec<usize> = rows.map(|(p, r)| starts[p] + r).collect();
                Block::concat(parts)?.take(&indices)
            }
        })
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
                let indices: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
                dictionary.take(&indices)
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

    #[test]
    fn take_and_filter_gather_rows() {
        let block = Block::bigint(vec![10, 20, 30, 40]);
        let taken = block.take(&[3, 0, 0]);
        assert_eq!(taken.to_values(), vec![40i64.into(), 10i64.into(), 10i64.into()]);

        let filtered = block.filter(&[true, false, true, false]);
        assert_eq!(filtered.to_values(), vec![10i64.into(), 30i64.into()]);
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
    fn slice_is_contiguous_take() {
        let block = Block::varchar(&["a", "bb", "ccc", "dddd"]);
        let s = block.slice(1, 2);
        assert_eq!(s.to_values(), vec!["bb".into(), "ccc".into()]);
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

    #[test]
    fn concat_stays_typed_and_equals_the_values_path() {
        for (dt, values) in typed_samples() {
            let with_nulls = Block::from_values(&dt, &values).unwrap();
            let plain = Block::from_values(&dt, &non_null(&values)).unwrap();
            let empty = Block::from_values(&dt, &[]).unwrap();
            // a mask that marks nothing must not survive concatenation
            let mut all_valid = plain.clone();
            if let Block::Bigint { nulls, values } = &mut all_valid {
                *nulls = Some(vec![false; values.len()]);
            }
            // NULL slots holding something other than the zero value
            let mut dirty = with_nulls.clone();
            match &mut dirty {
                Block::Bigint { values, nulls: Some(n) } => {
                    values.iter_mut().zip(n).filter(|(_, n)| **n).for_each(|(v, _)| *v = 99);
                }
                Block::Varchar { offsets, bytes, nulls: Some(n) } => {
                    let null = n.iter().position(|n| *n).unwrap();
                    bytes.splice(offsets[null] as usize..offsets[null] as usize, *b"junk");
                    offsets[null + 1..].iter_mut().for_each(|o| *o += 4);
                }
                _ => {}
            }
            let dict = Block::Dictionary {
                dictionary: Box::new(with_nulls.clone()),
                ids: vec![1, 0, 1, (values.len() - 1) as u32],
            };
            let cases: Vec<Vec<Block>> = vec![
                vec![plain.clone(), with_nulls.clone()],
                vec![dirty.clone(), plain.clone(), dirty],
                vec![with_nulls.clone(), empty.clone(), plain.clone(), with_nulls.clone()],
                vec![plain.clone(), all_valid, empty.clone()],
                vec![empty.clone(), empty.clone()],
                vec![dict.clone(), plain.clone()],
                vec![dict.clone(), dict.clone()],
            ];
            for parts in cases {
                let all: Vec<Value> = parts.iter().flat_map(Block::to_values).collect();
                let expected = Block::from_values(&dt, &all).unwrap();
                assert_same(&Block::concat(&parts).unwrap(), &expected, &dt.to_string());
                let refs: Vec<&Block> = parts.iter().collect();
                assert_same(
                    &Block::concat(&refs).unwrap(),
                    &expected,
                    &format!("{dt} by reference"),
                );
                // a gather of some rows, backwards and repeated, is a take of
                // the concatenation
                let rows: Vec<(usize, usize)> = (0..parts.len())
                    .flat_map(|p| (0..parts[p].len()).map(move |r| (p, r)))
                    .rev()
                    .step_by(2)
                    .flat_map(|row| [row, row])
                    .collect();
                let starts: Vec<usize> = parts
                    .iter()
                    .scan(0, |at, b| Some(std::mem::replace(at, *at + b.len())))
                    .collect();
                let global: Vec<usize> = rows.iter().map(|&(p, r)| starts[p] + r).collect();
                assert_same(
                    &Block::gather(&refs, rows.iter().copied()).unwrap(),
                    &expected.take(&global),
                    &format!("{dt} gathered"),
                );
            }
            // one block comes back as it is, dictionary included
            assert_same(&Block::concat(&[&dict]).unwrap(), &dict, "one block");
        }
        assert!(Block::concat::<Block>(&[]).is_err());
        assert!(Block::gather(&[], std::iter::empty()).is_err());
        let mismatched = [&Block::bigint(vec![1]), &Block::double(vec![1.0])];
        assert!(Block::gather(&mismatched, [(0, 0)].into_iter()).is_err());
        // VARCHAR offsets are rebased onto the bytes already written
        let joined =
            Block::concat(&[Block::varchar(&["ab", ""]), Block::varchar(&["cde", "f"])]).unwrap();
        assert_eq!(
            joined,
            Block::Varchar { offsets: vec![0, 2, 2, 5, 6], bytes: b"abcdef".to_vec(), nulls: None }
        );
    }

    #[test]
    fn slice_copies_the_range_like_take() {
        for (dt, values) in typed_samples() {
            let block = Block::from_values(&dt, &values).unwrap();
            let dict = Block::Dictionary {
                dictionary: Box::new(block.clone()),
                ids: (0..values.len() as u32).rev().collect(),
            };
            for b in [&block, &dict] {
                for offset in 0..=values.len() {
                    for len in 0..=values.len() - offset {
                        let indices: Vec<usize> = (offset..offset + len).collect();
                        assert_same(
                            &b.slice(offset, len),
                            &b.take(&indices),
                            &format!("{dt} {offset}+{len}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn take_nullable_null_extends_with_zeroed_slots() {
        for (dt, values) in typed_samples() {
            let block = Block::from_values(&dt, &values).unwrap();
            let dict = Block::Dictionary {
                dictionary: Box::new(block.clone()),
                ids: (0..values.len() as u32).collect(),
            };
            let all: Vec<Option<usize>> =
                (0..values.len()).map(Some).chain([None, Some(0), None]).collect();
            let hits: Vec<Option<usize>> =
                (0..values.len()).filter(|&i| !values[i].is_null()).map(Some).collect();
            for indices in [all, hits, vec![None, None], vec![]] {
                let picked: Vec<Value> =
                    indices.iter().map(|o| o.map_or(Value::Null, |i| values[i].clone())).collect();
                let expected = Block::from_values(&dt, &picked).unwrap();
                assert_same(&block.take_nullable(&indices), &expected, &dt.to_string());
                assert_same(
                    &dict.take_nullable(&indices),
                    &expected,
                    &format!("{dt} via dictionary"),
                );
            }
        }
    }

    #[test]
    fn take_nullable_of_a_dictionary_gathers_through_its_ids() {
        for (dt, values) in typed_samples() {
            // entries in another order, every NULL entry among them, the last
            // entry unused, and a non-zero value under each NULL slot
            let mut entries = Block::from_values(&dt, &values).unwrap();
            if let Block::Bigint { values, nulls: Some(nulls) } = &mut entries {
                values.iter_mut().zip(nulls).filter(|(_, n)| **n).for_each(|(v, _)| *v = 99);
            }
            let used = values.len() - 1;
            let ids: Vec<u32> = (0..used as u32).rev().chain([0, 1]).collect();
            let dict = Block::Dictionary { dictionary: Box::new(entries), ids: ids.clone() };
            let picks: Vec<Option<usize>> = (0..ids.len())
                .map(Some)
                .chain([None])
                .chain((0..ids.len()).rev().map(Some))
                .collect();
            for indices in [picks, vec![None, Some(0), None], vec![]] {
                assert_same(
                    &dict.take_nullable(&indices),
                    &dict.decode_dictionary().take_nullable(&indices),
                    &dt.to_string(),
                );
            }
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
    fn concat_joins_blocks() {
        let a = Block::bigint(vec![1, 2]);
        let b = Block::bigint(vec![3]);
        let c = Block::concat(&[a, b]).unwrap();
        assert_eq!(c.to_values(), vec![1i64.into(), 2i64.into(), 3i64.into()]);

        let bad = Block::concat(&[Block::bigint(vec![1]), Block::double(vec![1.0])]);
        assert!(bad.is_err());
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
