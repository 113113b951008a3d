//! Dremel-style shredding and record assembly.
//!
//! Writing: nested values shred into per-leaf *triplets* of (repetition
//! level, definition level, value) — §V.I calls them exactly that ("a
//! vectorized parquet reader batch reads 1000 triplets of repetition level,
//! definition level, and value").
//!
//! Reading: the *record assembler* reconstructs nested values from triplet
//! streams, one [`Value`] per cell per level. Only the legacy reader (§V.C,
//! Fig 17's baseline) goes through it; the new reader builds blocks of every
//! shape straight from the levels ([`crate::columnar`]).

use presto_common::{DataType, PrestoError, Result, Value};

use crate::schema::{LeafColumn, PhysicalType, SchemaNode};

/// Typed storage for the *defined* values of one leaf (positions whose
/// definition level equals the leaf's max — nulls carry no value slot).
#[derive(Debug, Clone, PartialEq)]
pub enum LeafValues {
    /// BOOLEAN payload.
    Bool(Vec<bool>),
    /// INTEGER / DATE payload.
    I32(Vec<i32>),
    /// BIGINT / TIMESTAMP payload.
    I64(Vec<i64>),
    /// DOUBLE payload.
    F64(Vec<f64>),
    /// VARCHAR payload as offsets + bytes.
    Bytes {
        /// `offsets.len() == count + 1`.
        offsets: Vec<u32>,
        /// Concatenated payload.
        data: Vec<u8>,
    },
}

impl LeafValues {
    /// Empty storage for a physical type.
    pub fn new(physical: PhysicalType) -> LeafValues {
        match physical {
            PhysicalType::Bool => LeafValues::Bool(Vec::new()),
            PhysicalType::I32 => LeafValues::I32(Vec::new()),
            PhysicalType::I64 => LeafValues::I64(Vec::new()),
            PhysicalType::F64 => LeafValues::F64(Vec::new()),
            PhysicalType::Bytes => LeafValues::Bytes { offsets: vec![0], data: Vec::new() },
        }
    }

    /// Number of stored (defined) values.
    pub fn len(&self) -> usize {
        match self {
            LeafValues::Bool(v) => v.len(),
            LeafValues::I32(v) => v.len(),
            LeafValues::I64(v) => v.len(),
            LeafValues::F64(v) => v.len(),
            LeafValues::Bytes { offsets, .. } => offsets.len() - 1,
        }
    }

    /// True when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical type of this storage.
    pub fn physical(&self) -> PhysicalType {
        match self {
            LeafValues::Bool(_) => PhysicalType::Bool,
            LeafValues::I32(_) => PhysicalType::I32,
            LeafValues::I64(_) => PhysicalType::I64,
            LeafValues::F64(_) => PhysicalType::F64,
            LeafValues::Bytes { .. } => PhysicalType::Bytes,
        }
    }

    /// Append a non-null scalar matching the physical type.
    pub fn push(&mut self, v: &Value) -> Result<()> {
        match (self, v) {
            (LeafValues::Bool(out), Value::Boolean(b)) => out.push(*b),
            (LeafValues::I32(out), Value::Integer(x)) => out.push(*x),
            (LeafValues::I32(out), Value::Date(x)) => out.push(*x),
            (LeafValues::I64(out), Value::Bigint(x)) => out.push(*x),
            (LeafValues::I64(out), Value::Timestamp(x)) => out.push(*x),
            (LeafValues::F64(out), Value::Double(x)) => out.push(*x),
            (LeafValues::Bytes { offsets, data }, Value::Varchar(s)) => {
                if data.len() + s.len() > u32::MAX as usize {
                    return Err(PrestoError::Format(
                        "varchar chunk exceeds 4 GiB; split into smaller row groups".into(),
                    ));
                }
                data.extend_from_slice(s.as_bytes());
                offsets.push(data.len() as u32);
            }
            (store, v) => {
                return Err(PrestoError::Internal(format!(
                    "leaf value {v} does not match physical type {:?}",
                    store.physical()
                )))
            }
        }
        Ok(())
    }

    /// Materialize value `i` as the given logical scalar type.
    pub fn get(&self, i: usize, logical: &DataType) -> Value {
        match self {
            LeafValues::Bool(v) => Value::Boolean(v[i]),
            LeafValues::I32(v) => match logical {
                DataType::Date => Value::Date(v[i]),
                _ => Value::Integer(v[i]),
            },
            LeafValues::I64(v) => match logical {
                DataType::Timestamp => Value::Timestamp(v[i]),
                _ => Value::Bigint(v[i]),
            },
            LeafValues::F64(v) => Value::Double(v[i]),
            LeafValues::Bytes { offsets, data } => {
                let s = &data[offsets[i] as usize..offsets[i + 1] as usize];
                Value::Varchar(String::from_utf8_lossy(s).into_owned())
            }
        }
    }
}

/// One level stream (repetition or definition) of a leaf chunk.
#[derive(Debug, Clone)]
pub enum Levels {
    /// Every entry is at the same level. A flat NOT NULL column decodes to
    /// two of these — one RLE run each — and is never expanded.
    Run {
        /// The level of every entry.
        level: u16,
        /// Number of entries.
        len: usize,
    },
    /// One level per entry.
    Each(Vec<u16>),
}

impl Default for Levels {
    fn default() -> Levels {
        Levels::Each(Vec::new())
    }
}

/// Streams are equal when they hold the same levels, however stored.
impl PartialEq for Levels {
    fn eq(&self, other: &Levels) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Levels {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Levels::Run { len, .. } => *len,
            Levels::Each(v) => v.len(),
        }
    }

    /// True when the stream has no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Level of entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u16 {
        match self {
            Levels::Run { level, .. } => *level,
            Levels::Each(v) => v[i],
        }
    }

    /// Every level in order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The one level every entry is at, when that is known without a scan.
    pub fn run_level(&self) -> Option<u16> {
        match self {
            Levels::Run { level, .. } => Some(*level),
            Levels::Each(_) => None,
        }
    }

    /// Number of entries at exactly `level`.
    pub fn count_at(&self, level: u16) -> usize {
        match self {
            Levels::Run { level: l, len } => usize::from(*l == level) * len,
            Levels::Each(v) => v.iter().filter(|&&l| l == level).count(),
        }
    }

    /// Number of entries at `level` or above.
    pub fn count_from(&self, level: u16) -> usize {
        match self {
            Levels::Run { level: l, len } => usize::from(*l >= level) * len,
            Levels::Each(v) => v.iter().filter(|&&l| l >= level).count(),
        }
    }

    /// The per-entry form, for appending one level at a time. Expanding a
    /// run stays out of line and out of the record shredder's per-value
    /// loop, which never meets one.
    #[inline]
    fn each_mut(&mut self) -> &mut Vec<u16> {
        #[cold]
        fn unroll(levels: &mut Levels) {
            if let Levels::Run { level, len } = *levels {
                *levels = Levels::Each(vec![level; len]);
            }
        }
        if matches!(self, Levels::Run { .. }) {
            unroll(self);
        }
        match self {
            Levels::Each(v) => v,
            Levels::Run { .. } => unreachable!("a run was expanded above"),
        }
    }

    /// Append one entry.
    #[inline]
    pub fn push(&mut self, level: u16) {
        self.each_mut().push(level);
    }

    /// Append `n` entries at `level`. A stream that is all one level stays
    /// a [`Levels::Run`]: the column-wise shredder appends whole pages so.
    pub fn extend_run(&mut self, level: u16, n: usize) {
        if n == 0 {
            return;
        }
        match self {
            Levels::Run { level: l, len } if *l == level => *len += n,
            Levels::Each(v) if v.is_empty() => *self = Levels::Run { level, len: n },
            _ => {
                let each = self.each_mut();
                each.resize(each.len() + n, level);
            }
        }
    }

    /// Append every entry of `other`.
    pub fn extend(&mut self, other: &Levels) {
        match other {
            Levels::Run { level, len } => self.extend_run(*level, *len),
            Levels::Each(v) => self.each_mut().extend_from_slice(v),
        }
    }

    /// Drop every entry, keeping the buffer.
    pub fn clear(&mut self) {
        match self {
            Levels::Each(v) => v.clear(),
            Levels::Run { .. } => *self = Levels::default(),
        }
    }
}

/// The decoded triplet stream of one leaf column (one row group's worth).
#[derive(Debug, Clone, PartialEq)]
pub struct LeafData {
    /// Repetition level per triplet.
    pub reps: Levels,
    /// Definition level per triplet.
    pub defs: Levels,
    /// Defined values, compacted — or, when `ids` is set, the entries of the
    /// chunk's dictionary page.
    pub values: LeafValues,
    /// A dictionary-encoded chunk as read: one id per defined value, each an
    /// index into `values` (checked when the chunk was decoded).
    pub ids: Option<Vec<u32>>,
    /// The leaf's max definition level (value present ⇔ `def == max_def`).
    pub max_def: u16,
    /// The leaf's logical scalar type.
    pub scalar_type: DataType,
}

impl LeafData {
    /// Empty stream for a leaf.
    pub fn new(leaf: &LeafColumn) -> LeafData {
        LeafData {
            reps: Levels::default(),
            defs: Levels::default(),
            values: LeafValues::new(leaf.physical),
            ids: None,
            max_def: leaf.max_def,
            scalar_type: leaf.scalar_type.clone(),
        }
    }

    /// Drop every triplet, keeping the buffers: the writer's sinks serve
    /// one row group after another.
    pub fn clear(&mut self) {
        self.reps.clear();
        self.defs.clear();
        self.ids = None;
        match &mut self.values {
            LeafValues::Bool(v) => v.clear(),
            LeafValues::I32(v) => v.clear(),
            LeafValues::I64(v) => v.clear(),
            LeafValues::F64(v) => v.clear(),
            LeafValues::Bytes { offsets, data } => {
                offsets.truncate(1);
                data.clear();
            }
        }
    }

    /// Number of triplets.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Number of defined values: one per id of a dictionary-encoded chunk,
    /// else one per stored value.
    pub fn value_count(&self) -> usize {
        self.ids.as_ref().map_or(self.values.len(), Vec::len)
    }

    /// Number of NULL (undefined) triplets.
    pub fn null_count(&self) -> usize {
        self.defs.len() - self.defs.count_at(self.max_def)
    }

    fn push_null(&mut self, rep: u16, def: u16) {
        self.reps.push(rep);
        self.defs.push(def);
    }

    fn push_value(&mut self, rep: u16, v: &Value) -> Result<()> {
        self.reps.push(rep);
        self.defs.push(self.max_def);
        self.values.push(v)
    }
}

// ------------------------------------------------------------------ shred

/// Shred one top-level column of `values` into the leaf sinks of its
/// subtree. `sinks` is indexed by **global** leaf index.
pub fn shred_column(node: &SchemaNode, values: &[Value], sinks: &mut [LeafData]) -> Result<()> {
    for v in values {
        shred_value(node, v, 0, 0, sinks)?;
    }
    Ok(())
}

/// Shred a single record's value for one top-level column — the unit of work
/// of the *legacy* writer, which consumes records one at a time (§V.J).
pub fn shred_one(node: &SchemaNode, value: &Value, sinks: &mut [LeafData]) -> Result<()> {
    shred_value(node, value, 0, 0, sinks)
}

fn shred_value(
    node: &SchemaNode,
    v: &Value,
    rep: u16,
    def: u16,
    sinks: &mut [LeafData],
) -> Result<()> {
    match node {
        SchemaNode::Leaf { leaf_index, .. } => {
            if v.is_null() {
                sinks[*leaf_index].push_null(rep, def);
            } else {
                sinks[*leaf_index].push_value(rep, v)?;
            }
            Ok(())
        }
        SchemaNode::Row { fields, def_present, .. } => match v {
            Value::Null => emit_nulls(node, rep, def, sinks),
            Value::Row(items) => {
                if items.len() != fields.len() {
                    return Err(PrestoError::Internal(format!(
                        "row value has {} fields, schema has {}",
                        items.len(),
                        fields.len()
                    )));
                }
                for ((_, child), item) in fields.iter().zip(items.iter()) {
                    shred_value(child, item, rep, *def_present, sinks)?;
                }
                Ok(())
            }
            other => Err(PrestoError::Internal(format!("expected row value, got {other}"))),
        },
        SchemaNode::Array { element, def_present, rep: elem_rep, .. } => match v {
            Value::Null => emit_nulls(node, rep, def, sinks),
            Value::Array(items) if items.is_empty() => {
                // list present but empty: one triplet per leaf at def_present
                emit_nulls_at(element, rep, *def_present, sinks)
            }
            Value::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    let r = if i == 0 { rep } else { *elem_rep };
                    shred_value(element, item, r, def_present + 1, sinks)?;
                }
                Ok(())
            }
            other => Err(PrestoError::Internal(format!("expected array value, got {other}"))),
        },
        SchemaNode::Map { key, value, def_present, rep: elem_rep, .. } => match v {
            Value::Null => emit_nulls(node, rep, def, sinks),
            Value::Map(entries) if entries.is_empty() => {
                emit_nulls_at(key, rep, *def_present, sinks)?;
                emit_nulls_at(value, rep, *def_present, sinks)
            }
            Value::Map(entries) => {
                for (i, (k, val)) in entries.iter().enumerate() {
                    let r = if i == 0 { rep } else { *elem_rep };
                    shred_value(key, k, r, def_present + 1, sinks)?;
                    shred_value(value, val, r, def_present + 1, sinks)?;
                }
                Ok(())
            }
            other => Err(PrestoError::Internal(format!("expected map value, got {other}"))),
        },
    }
}

/// NULL at this node: every leaf below records (rep, def) with no value.
fn emit_nulls(node: &SchemaNode, rep: u16, def: u16, sinks: &mut [LeafData]) -> Result<()> {
    for leaf in node.leaf_indices() {
        sinks[leaf].push_null(rep, def);
    }
    Ok(())
}

/// Present-but-empty list/map: leaves of the element subtree record the
/// list's own definition level.
fn emit_nulls_at(element: &SchemaNode, rep: u16, def: u16, sinks: &mut [LeafData]) -> Result<()> {
    for leaf in element.leaf_indices() {
        sinks[leaf].push_null(rep, def);
    }
    Ok(())
}

// --------------------------------------------------------------- assemble

/// A read cursor over one leaf's triplet stream.
#[derive(Debug)]
pub struct LeafCursor<'a> {
    data: &'a LeafData,
    idx: usize,
    value_idx: usize,
}

impl<'a> LeafCursor<'a> {
    /// Cursor at the start of a stream.
    pub fn new(data: &'a LeafData) -> LeafCursor<'a> {
        LeafCursor { data, idx: 0, value_idx: 0 }
    }

    /// True when all triplets are consumed.
    pub fn exhausted(&self) -> bool {
        self.idx >= self.data.len()
    }

    fn peek(&self) -> Option<(u16, u16)> {
        if self.exhausted() {
            None
        } else {
            Some((self.data.reps.get(self.idx), self.data.defs.get(self.idx)))
        }
    }

    fn advance(&mut self) -> Result<(u16, u16, Option<Value>)> {
        if self.exhausted() {
            return Err(PrestoError::Format("leaf stream exhausted mid-record".into()));
        }
        let rep = self.data.reps.get(self.idx);
        let def = self.data.defs.get(self.idx);
        self.idx += 1;
        let value = if def == self.data.max_def {
            let at = match &self.data.ids {
                Some(ids) => ids[self.value_idx] as usize,
                None => self.value_idx,
            };
            let v = self.data.values.get(at, &self.data.scalar_type);
            self.value_idx += 1;
            Some(v)
        } else {
            None
        };
        Ok((rep, def, value))
    }
}

/// Assemble every record of one top-level column. `cursors` is indexed by
/// **global** leaf index; only the subtree's cursors are touched.
pub fn assemble_column(node: &SchemaNode, cursors: &mut [LeafCursor<'_>]) -> Result<Vec<Value>> {
    let pilot = node.first_leaf();
    let mut out = Vec::new();
    while !cursors[pilot].exhausted() {
        out.push(assemble_value(node, cursors, 0)?);
    }
    Ok(out)
}

#[allow(clippy::only_used_in_recursion)]
fn assemble_value(node: &SchemaNode, cursors: &mut [LeafCursor<'_>], def: u16) -> Result<Value> {
    match node {
        SchemaNode::Leaf { leaf_index, .. } => {
            let (_, _, value) = cursors[*leaf_index].advance()?;
            Ok(value.unwrap_or(Value::Null))
        }
        SchemaNode::Row { fields, def_present, .. } => {
            let pilot = node.first_leaf();
            let (_, d) = cursors[pilot]
                .peek()
                .ok_or_else(|| PrestoError::Format("stream exhausted in struct".into()))?;
            if d < *def_present {
                // Struct (or an ancestor) is null here: consume the slot from
                // every leaf and yield NULL.
                consume_slot(node, cursors)?;
                return Ok(Value::Null);
            }
            let mut items = Vec::with_capacity(fields.len());
            for (_, child) in fields {
                items.push(assemble_value(child, cursors, def + 1)?);
            }
            Ok(Value::Row(items))
        }
        SchemaNode::Array { element, def_present, rep: elem_rep, .. } => {
            let pilot = node.first_leaf();
            let (_, d) = cursors[pilot]
                .peek()
                .ok_or_else(|| PrestoError::Format("stream exhausted in array".into()))?;
            if d < *def_present {
                consume_slot(node, cursors)?;
                return Ok(Value::Null);
            }
            if d == *def_present {
                // present but empty
                consume_slot(node, cursors)?;
                return Ok(Value::Array(Vec::new()));
            }
            let mut items = Vec::new();
            loop {
                items.push(assemble_value(element, cursors, def_present + 1)?);
                match cursors[pilot].peek() {
                    Some((r, _)) if r == *elem_rep => continue,
                    _ => break,
                }
            }
            Ok(Value::Array(items))
        }
        SchemaNode::Map { key, value, def_present, rep: elem_rep, .. } => {
            let pilot = node.first_leaf();
            let (_, d) = cursors[pilot]
                .peek()
                .ok_or_else(|| PrestoError::Format("stream exhausted in map".into()))?;
            if d < *def_present {
                consume_slot(node, cursors)?;
                return Ok(Value::Null);
            }
            if d == *def_present {
                consume_slot(node, cursors)?;
                return Ok(Value::Map(Vec::new()));
            }
            let mut entries = Vec::new();
            loop {
                let k = assemble_value(key, cursors, def_present + 1)?;
                let v = assemble_value(value, cursors, def_present + 1)?;
                entries.push((k, v));
                match cursors[pilot].peek() {
                    Some((r, _)) if r == *elem_rep => continue,
                    _ => break,
                }
            }
            Ok(Value::Map(entries))
        }
    }
}

/// Consume exactly one triplet from every leaf under `node` (the null /
/// empty-collection slot, written in lockstep by the shredder).
fn consume_slot(node: &SchemaNode, cursors: &mut [LeafCursor<'_>]) -> Result<()> {
    for leaf in node.leaf_indices() {
        cursors[leaf].advance()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FlatSchema;
    use presto_common::{Field, Schema};

    fn round_trip(dt: DataType, values: Vec<Value>) {
        let schema = Schema::new(vec![Field::new("c", dt)]).unwrap();
        let flat = FlatSchema::new(schema).unwrap();
        let mut sinks: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        shred_column(&flat.roots[0], &values, &mut sinks).unwrap();
        let mut cursors: Vec<LeafCursor<'_>> = sinks.iter().map(LeafCursor::new).collect();
        let back = assemble_column(&flat.roots[0], &mut cursors).unwrap();
        assert_eq!(back, values);
        assert!(cursors.iter().all(LeafCursor::exhausted));
    }

    #[test]
    fn scalar_round_trip_with_nulls() {
        round_trip(DataType::Bigint, vec![Value::Bigint(1), Value::Null, Value::Bigint(3)]);
        round_trip(
            DataType::Varchar,
            vec![Value::Varchar("a".into()), Value::Null, Value::Varchar("".into())],
        );
    }

    #[test]
    fn struct_round_trip() {
        let dt = DataType::row(vec![
            Field::new("x", DataType::Bigint),
            Field::new("y", DataType::Varchar),
        ]);
        round_trip(
            dt,
            vec![
                Value::Row(vec![Value::Bigint(1), Value::Varchar("a".into())]),
                Value::Null,
                Value::Row(vec![Value::Null, Value::Varchar("b".into())]),
            ],
        );
    }

    #[test]
    fn array_round_trip_including_empty_and_null() {
        let dt = DataType::array(DataType::Bigint);
        round_trip(
            dt,
            vec![
                Value::Array(vec![Value::Bigint(1), Value::Bigint(2)]),
                Value::Array(vec![]),
                Value::Null,
                Value::Array(vec![Value::Null, Value::Bigint(4)]),
            ],
        );
    }

    #[test]
    fn nested_arrays_round_trip() {
        let dt = DataType::array(DataType::array(DataType::Bigint));
        round_trip(
            dt,
            vec![
                Value::Array(vec![
                    Value::Array(vec![Value::Bigint(1), Value::Bigint(2)]),
                    Value::Array(vec![Value::Bigint(3)]),
                ]),
                Value::Array(vec![Value::Array(vec![]), Value::Null]),
                Value::Null,
                Value::Array(vec![]),
            ],
        );
    }

    #[test]
    fn map_round_trip() {
        let dt = DataType::map(DataType::Varchar, DataType::Double);
        round_trip(
            dt,
            vec![
                Value::Map(vec![
                    (Value::Varchar("a".into()), Value::Double(1.0)),
                    (Value::Varchar("b".into()), Value::Null),
                ]),
                Value::Map(vec![]),
                Value::Null,
            ],
        );
    }

    #[test]
    fn deep_uber_style_struct_round_trip() {
        // >5 levels of nesting, the shape §V.A describes
        let dt = DataType::row(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new(
                "status",
                DataType::row(vec![
                    Field::new("code", DataType::Integer),
                    Field::new(
                        "history",
                        DataType::array(DataType::row(vec![
                            Field::new("ts", DataType::Timestamp),
                            Field::new("tags", DataType::array(DataType::Varchar)),
                        ])),
                    ),
                ]),
            ),
        ]);
        round_trip(
            dt,
            vec![
                Value::Row(vec![
                    Value::Varchar("d1".into()),
                    Value::Row(vec![
                        Value::Integer(1),
                        Value::Array(vec![
                            Value::Row(vec![
                                Value::Timestamp(100),
                                Value::Array(vec!["a".into(), "b".into()]),
                            ]),
                            Value::Row(vec![Value::Timestamp(200), Value::Array(vec![])]),
                        ]),
                    ]),
                ]),
                Value::Row(vec![Value::Varchar("d2".into()), Value::Null]),
                Value::Null,
            ],
        );
    }

    #[test]
    fn levels_match_dremel_expectations() {
        // array(bigint): leaf max_def=3 (list present, slot, value non-null)
        let schema = Schema::new(vec![Field::new("a", DataType::array(DataType::Bigint))]).unwrap();
        let flat = FlatSchema::new(schema).unwrap();
        let mut sinks: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        shred_column(
            &flat.roots[0],
            &[
                Value::Array(vec![Value::Bigint(1), Value::Bigint(2)]),
                Value::Array(vec![]),
                Value::Null,
                Value::Array(vec![Value::Null]),
            ],
            &mut sinks,
        )
        .unwrap();
        let leaf = &sinks[0];
        assert_eq!(leaf.reps, Levels::Each(vec![0, 1, 0, 0, 0]));
        assert_eq!(leaf.defs, Levels::Each(vec![3, 3, 1, 0, 2]));
        assert_eq!(leaf.null_count(), 3);
    }
}
