//! Direct columnar paths between [`Block`]s and triplet streams.
//!
//! The legacy reader/writer pair goes through *records*: rows are assembled
//! from triplets and then re-transformed into columnar blocks (reader, Fig 4)
//! or blocks are exploded into records and re-shredded (writer, §V.J). The
//! new reader "read\[s\] columns in Parquet directly ... and build\[s\] columnar
//! blocks on the fly" (Fig 6), and the native writer "writes directly from
//! Presto's in-memory data structure to Parquet's columnar file format,
//! including data values, repetition values, and definition values" (§V.J).
//! This module is that direct path, for every schema shape.
//!
//! Reading, one rule covers scalars, structs, arrays and maps at any depth.
//! A node's *slots* — the positions of the block it becomes — are the
//! entries of any leaf stream below it that start a new value of the
//! innermost list around the node (`rep <=` that list's level) where that
//! list holds an element (`def >=` its present level + 1); under no list,
//! every entry that starts a record. At a slot, a struct or list is NULL
//! when `def < def_present`; a list's elements are the entries up to the
//! next slot with `rep <=` its own level and `def > def_present` (none:
//! empty), and they are the slots of its element node. Leaves expand their
//! packed values over their slots with typed loops. Each `Row` / `Array` /
//! `Map` node walks the levels of its first leaf once; no [`Value`] is built.

use presto_common::{Block, DataType, PrestoError, Result, Value};

use crate::schema::SchemaNode;
use crate::shred::{LeafData, LeafValues, Levels};

// ------------------------------------------------------------------- read

/// Which entries of a leaf stream are slots of a node (see the module doc).
#[derive(Clone, Copy)]
struct Slots {
    /// Repetition level of the innermost list around the node.
    rep: u16,
    /// Definition level from which that list holds an element.
    def: u16,
}

impl Slots {
    /// A node under no list: one slot per record.
    const RECORDS: Slots = Slots { rep: 0, def: 0 };

    fn holds(self, rep: u16, def: u16) -> bool {
        rep <= self.rep && def >= self.def
    }
}

fn some_if_any(mask: Vec<bool>) -> Option<Vec<bool>> {
    mask.contains(&true).then_some(mask)
}

/// Build the [`Block`] of `node` from the decoded chunks of its leaves
/// (`leaves` is indexed by global leaf index), taking each chunk out of its
/// slot: value buffers move into the block, nothing is copied that need not
/// be. The chunks must be as [`crate::reader::decode_chunk`] returns them;
/// streams that disagree with one another on the column's shape are a
/// [`PrestoError::Format`].
pub fn build_block(node: &SchemaNode, leaves: &mut [Option<LeafData>]) -> Result<Block> {
    build(node, leaves, Slots::RECORDS)
}

fn build(node: &SchemaNode, leaves: &mut [Option<LeafData>], slots: Slots) -> Result<Block> {
    let not_decoded =
        || PrestoError::Internal("block built from a leaf that was not decoded".into());
    match node {
        SchemaNode::Leaf { leaf_index, scalar_type, .. } => {
            let data =
                leaves.get_mut(*leaf_index).and_then(Option::take).ok_or_else(not_decoded)?;
            build_leaf(data, scalar_type, slots)
        }
        SchemaNode::Row { fields, def_present, row_fields } => {
            let pilot = leaves.get(node.first_leaf()).and_then(Option::as_ref);
            let (len, nulls) = struct_slots(pilot.ok_or_else(not_decoded)?, slots, *def_present);
            let children = fields
                .iter()
                .map(|(_, child)| build(child, leaves, slots))
                .collect::<Result<Vec<_>>>()?;
            same_len(&children, len)?;
            Ok(Block::Row { fields: row_fields.clone(), children, len, nulls })
        }
        SchemaNode::Array { element, def_present, rep, element_type } => {
            let pilot = leaves.get(node.first_leaf()).and_then(Option::as_ref);
            let (offsets, nulls) =
                list_slots(pilot.ok_or_else(not_decoded)?, slots, *def_present, *rep)?;
            let elements = build(element, leaves, Slots { rep: *rep, def: def_present + 1 })?;
            same_len(std::slice::from_ref(&elements), offsets[offsets.len() - 1] as usize)?;
            Ok(Block::Array {
                element_type: element_type.clone(),
                offsets,
                elements: Box::new(elements),
                nulls,
            })
        }
        SchemaNode::Map { key, value, def_present, rep, key_type, value_type } => {
            let pilot = leaves.get(node.first_leaf()).and_then(Option::as_ref);
            let (offsets, nulls) =
                list_slots(pilot.ok_or_else(not_decoded)?, slots, *def_present, *rep)?;
            let entries = Slots { rep: *rep, def: def_present + 1 };
            let pair = [build(key, leaves, entries)?, build(value, leaves, entries)?];
            same_len(&pair, offsets[offsets.len() - 1] as usize)?;
            let [keys, values] = pair;
            Ok(Block::Map {
                key_type: key_type.clone(),
                value_type: value_type.clone(),
                offsets,
                keys: Box::new(keys),
                values: Box::new(values),
                nulls,
            })
        }
    }
}

/// The leaves of one column must agree on how many slots each node has;
/// the writer emits them in lockstep, a damaged file need not.
fn same_len(blocks: &[Block], len: usize) -> Result<()> {
    if blocks.iter().all(|b| b.len() == len) {
        Ok(())
    } else {
        Err(PrestoError::Format("leaf streams of one column disagree on its shape".into()))
    }
}

/// Slot count and NULL mask of a struct, from its first leaf's levels.
fn struct_slots(pilot: &LeafData, slots: Slots, def_present: u16) -> (usize, Option<Vec<bool>>) {
    let entries = pilot.defs.len();
    if let (Some(rep), Some(def)) = (pilot.reps.run_level(), pilot.defs.run_level()) {
        // one level pair decides every entry at once: the whole of a flat
        // file's struct columns
        let len = if slots.holds(rep, def) { entries } else { 0 };
        return (len, (def < def_present && len > 0).then(|| vec![true; len]));
    }
    let mut nulls = Vec::with_capacity(entries);
    for i in 0..entries {
        let def = pilot.defs.get(i);
        if slots.holds(pilot.reps.get(i), def) {
            nulls.push(def < def_present);
        }
    }
    (nulls.len(), some_if_any(nulls))
}

/// Offsets and NULL mask of an array or map, from its first leaf's levels.
/// `offsets[i + 1] - offsets[i]` counts exactly the entries the element
/// node will take as its slots, so the two cannot drift apart.
fn list_slots(
    pilot: &LeafData,
    slots: Slots,
    def_present: u16,
    rep: u16,
) -> Result<(Vec<u32>, Option<Vec<bool>>)> {
    let entries = pilot.defs.len();
    if u32::try_from(entries).is_err() {
        return Err(PrestoError::Format("list chunk exceeds 2^32 entries".into()));
    }
    let mut offsets = Vec::with_capacity(entries + 1);
    let mut nulls = Vec::with_capacity(entries);
    let mut elements = 0u32;
    for i in 0..entries {
        let (r, def) = (pilot.reps.get(i), pilot.defs.get(i));
        if slots.holds(r, def) {
            offsets.push(elements);
            nulls.push(def < def_present);
        }
        if r <= rep && def > def_present {
            if offsets.is_empty() {
                return Err(PrestoError::Format("list element before any list".into()));
            }
            elements += 1;
        }
    }
    offsets.push(elements);
    Ok((offsets, some_if_any(nulls)))
}

/// Packed values spread over their slots, NULL slots zeroed.
fn spread<T: Copy + Default>(packed: Vec<T>, mask: &[bool]) -> Vec<T> {
    let mut packed = packed.into_iter();
    mask.iter()
        .map(|&null| if null { T::default() } else { packed.next().unwrap_or_default() })
        .collect()
}

/// Direct leaf build: the definition levels of the leaf's slots become the
/// NULL mask, and the packed value buffer moves into the block — as it is
/// when no slot is NULL, spread over the slots otherwise.
fn build_leaf(data: LeafData, scalar_type: &DataType, slots: Slots) -> Result<Block> {
    let LeafData { defs, values, max_def, .. } = data;
    // a leaf's own repetition maximum is its enclosing list's level, so the
    // definition levels alone pick its slots
    let len = defs.count_from(slots.def);
    // decode_chunk matched the value count to the fully defined entries
    let mask: Option<Vec<bool>> = (values.len() < len).then(|| match &defs {
        Levels::Run { .. } => vec![true; len],
        Levels::Each(defs) => {
            let mut mask = Vec::with_capacity(len);
            mask.extend(defs.iter().filter(|&&d| d >= slots.def).map(|&d| d < max_def));
            mask
        }
    });
    macro_rules! fixed {
        ($variant:ident, $packed:expr) => {
            Ok(match mask {
                None => Block::$variant { values: $packed, nulls: None },
                Some(mask) => Block::$variant { values: spread($packed, &mask), nulls: Some(mask) },
            })
        };
    }
    match (values, scalar_type) {
        (LeafValues::Bool(v), DataType::Boolean) => fixed!(Boolean, v),
        (LeafValues::I32(v), DataType::Integer) => fixed!(Integer, v),
        (LeafValues::I32(v), DataType::Date) => fixed!(Date, v),
        (LeafValues::I64(v), DataType::Bigint) => fixed!(Bigint, v),
        (LeafValues::I64(v), DataType::Timestamp) => fixed!(Timestamp, v),
        (LeafValues::F64(v), DataType::Double) => fixed!(Double, v),
        (LeafValues::Bytes { offsets, data: bytes }, DataType::Varchar) => Ok(match mask {
            None => Block::Varchar { offsets, bytes, nulls: None },
            Some(mask) => {
                // a NULL slot holds no bytes: it repeats the offset before it
                let mut spread_offsets = Vec::with_capacity(len + 1);
                let mut packed = 0;
                spread_offsets.push(0u32);
                for &null in &mask {
                    packed += usize::from(!null);
                    spread_offsets.push(offsets[packed]);
                }
                Block::Varchar { offsets: spread_offsets, bytes, nulls: Some(mask) }
            }
        }),
        (store, t) => Err(PrestoError::Internal(format!(
            "leaf storage {:?} does not match logical type {t}",
            store.physical()
        ))),
    }
}

// ------------------------------------------------------------------ write

/// Shred one top-level column block directly into leaf sinks — the native
/// writer path (§V.J): no record reconstruction, values/rep/def emitted
/// straight from the block's columnar layout.
pub fn shred_block(node: &SchemaNode, block: &Block, sinks: &mut [LeafData]) -> Result<()> {
    // Dictionary blocks are decoded once up front (the writer re-decides
    // dictionary encoding per row group from the data itself).
    let decoded;
    let block = match block {
        Block::Dictionary { .. } => {
            decoded = block.decode_dictionary();
            &decoded
        }
        other => other,
    };
    // Bulk fast path: a null-free scalar column appends its value buffer and
    // two constant level runs — no per-row dispatch at all.
    if let SchemaNode::Leaf { leaf_index, max_def, .. } = node {
        if bulk_append_leaf(&mut sinks[*leaf_index], block, *max_def)? {
            return Ok(());
        }
    }
    for i in 0..block.len() {
        shred_block_row(node, block, i, 0, 0, sinks)?;
    }
    Ok(())
}

fn bulk_append_leaf(sink: &mut LeafData, block: &Block, max_def: u16) -> Result<bool> {
    let appended = match (&mut sink.values, block) {
        (LeafValues::I64(out), Block::Bigint { values, nulls: None }) => {
            out.extend_from_slice(values);
            values.len()
        }
        (LeafValues::I64(out), Block::Timestamp { values, nulls: None }) => {
            out.extend_from_slice(values);
            values.len()
        }
        (LeafValues::I32(out), Block::Integer { values, nulls: None }) => {
            out.extend_from_slice(values);
            values.len()
        }
        (LeafValues::I32(out), Block::Date { values, nulls: None }) => {
            out.extend_from_slice(values);
            values.len()
        }
        (LeafValues::F64(out), Block::Double { values, nulls: None }) => {
            out.extend_from_slice(values);
            values.len()
        }
        (LeafValues::Bool(out), Block::Boolean { values, nulls: None }) => {
            out.extend_from_slice(values);
            values.len()
        }
        (
            LeafValues::Bytes { offsets: out_offsets, data: out_data },
            Block::Varchar { offsets, bytes, nulls: None },
        ) => {
            if out_data.len() + bytes.len() > u32::MAX as usize {
                return Err(PrestoError::Format(
                    "varchar chunk exceeds 4 GiB; split into smaller row groups".into(),
                ));
            }
            let base = out_data.len() as u32;
            out_data.extend_from_slice(bytes);
            out_offsets.extend(offsets[1..].iter().map(|&o| base + o));
            offsets.len() - 1
        }
        _ => return Ok(false),
    };
    sink.reps.extend_run(0, appended);
    sink.defs.extend_run(max_def, appended);
    Ok(true)
}

fn shred_block_row(
    node: &SchemaNode,
    block: &Block,
    i: usize,
    rep: u16,
    def: u16,
    sinks: &mut [LeafData],
) -> Result<()> {
    match node {
        SchemaNode::Leaf { leaf_index, max_def, .. } => {
            let sink = &mut sinks[*leaf_index];
            if block.is_null(i) {
                sink.reps.push(rep);
                sink.defs.push(def);
                return Ok(());
            }
            sink.reps.push(rep);
            sink.defs.push(*max_def);
            push_leaf_value(sink, block, i)
        }
        SchemaNode::Row { fields, def_present, .. } => {
            if block.is_null(i) {
                return emit_null_slot(node, rep, def, sinks);
            }
            let children = match block {
                Block::Row { children, .. } => children,
                other => {
                    return Err(PrestoError::Internal(format!(
                        "expected row block, got {}",
                        other.data_type()
                    )))
                }
            };
            for ((_, child_node), child_block) in fields.iter().zip(children.iter()) {
                shred_block_row(child_node, child_block, i, rep, *def_present, sinks)?;
            }
            Ok(())
        }
        SchemaNode::Array { element, def_present, rep: elem_rep, .. } => {
            if block.is_null(i) {
                return emit_null_slot(node, rep, def, sinks);
            }
            let (offsets, elements) = match block {
                Block::Array { offsets, elements, .. } => (offsets, elements),
                other => {
                    return Err(PrestoError::Internal(format!(
                        "expected array block, got {}",
                        other.data_type()
                    )))
                }
            };
            let start = offsets[i] as usize;
            let end = offsets[i + 1] as usize;
            if start == end {
                return emit_empty_slot(element, rep, *def_present, sinks);
            }
            for (n, j) in (start..end).enumerate() {
                let r = if n == 0 { rep } else { *elem_rep };
                shred_block_row(element, elements, j, r, def_present + 1, sinks)?;
            }
            Ok(())
        }
        SchemaNode::Map { key, value, def_present, rep: elem_rep, .. } => {
            if block.is_null(i) {
                return emit_null_slot(node, rep, def, sinks);
            }
            let (offsets, keys, values) = match block {
                Block::Map { offsets, keys, values, .. } => (offsets, keys, values),
                other => {
                    return Err(PrestoError::Internal(format!(
                        "expected map block, got {}",
                        other.data_type()
                    )))
                }
            };
            let start = offsets[i] as usize;
            let end = offsets[i + 1] as usize;
            if start == end {
                emit_empty_slot(key, rep, *def_present, sinks)?;
                return emit_empty_slot(value, rep, *def_present, sinks);
            }
            for (n, j) in (start..end).enumerate() {
                let r = if n == 0 { rep } else { *elem_rep };
                shred_block_row(key, keys, j, r, def_present + 1, sinks)?;
                shred_block_row(value, values, j, r, def_present + 1, sinks)?;
            }
            Ok(())
        }
    }
}

/// Append block position `i` to the sink without constructing a [`Value`].
fn push_leaf_value(sink: &mut LeafData, block: &Block, i: usize) -> Result<()> {
    match (&mut sink.values, block) {
        (LeafValues::Bool(out), Block::Boolean { values, .. }) => out.push(values[i]),
        (LeafValues::I32(out), Block::Integer { values, .. }) => out.push(values[i]),
        (LeafValues::I32(out), Block::Date { values, .. }) => out.push(values[i]),
        (LeafValues::I64(out), Block::Bigint { values, .. }) => out.push(values[i]),
        (LeafValues::I64(out), Block::Timestamp { values, .. }) => out.push(values[i]),
        (LeafValues::F64(out), Block::Double { values, .. }) => out.push(values[i]),
        (
            LeafValues::Bytes { offsets: out_offsets, data: out_data },
            Block::Varchar { offsets, bytes, .. },
        ) => {
            let piece = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
            if out_data.len() + piece.len() > u32::MAX as usize {
                return Err(PrestoError::Format(
                    "varchar chunk exceeds 4 GiB; split into smaller row groups".into(),
                ));
            }
            out_data.extend_from_slice(piece);
            out_offsets.push(out_data.len() as u32);
        }
        (store, b) => {
            return Err(PrestoError::Internal(format!(
                "block {} does not match leaf storage {:?}",
                b.data_type(),
                store.physical()
            )))
        }
    }
    Ok(())
}

fn emit_null_slot(node: &SchemaNode, rep: u16, def: u16, sinks: &mut [LeafData]) -> Result<()> {
    for leaf in node.leaf_indices() {
        sinks[leaf].reps.push(rep);
        sinks[leaf].defs.push(def);
    }
    Ok(())
}

fn emit_empty_slot(
    element: &SchemaNode,
    rep: u16,
    def_present: u16,
    sinks: &mut [LeafData],
) -> Result<()> {
    for leaf in element.leaf_indices() {
        sinks[leaf].reps.push(rep);
        sinks[leaf].defs.push(def_present);
    }
    Ok(())
}

/// Explode a block into one [`Value`] per row — the record-reconstruction
/// step of the *legacy* writer (§V.J: it "iterates each columnar block in a
/// page and reconstructs every single record").
pub fn block_to_records(block: &Block) -> Vec<Value> {
    block.to_values()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FlatSchema;
    use crate::shred::shred_column;
    use presto_common::{Field, Schema};

    fn flat_for(dt: DataType) -> FlatSchema {
        FlatSchema::new(Schema::new(vec![Field::new("c", dt)]).unwrap()).unwrap()
    }

    fn owned(sinks: Vec<LeafData>) -> Vec<Option<LeafData>> {
        sinks.into_iter().map(Some).collect()
    }

    fn round_trip_via_blocks(dt: DataType, values: Vec<Value>) {
        let flat = flat_for(dt.clone());
        let block = Block::from_values(&dt, &values).unwrap();
        // native shred from the block
        let mut sinks: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        shred_block(&flat.roots[0], &block, &mut sinks).unwrap();
        // direct columnar build back: the very block `from_values` makes
        let rebuilt = build_block(&flat.roots[0], &mut owned(sinks)).unwrap();
        assert_eq!(rebuilt, block);
        assert_eq!(rebuilt.to_values(), values);
    }

    #[test]
    fn scalar_blocks_round_trip_directly() {
        round_trip_via_blocks(
            DataType::Bigint,
            vec![Value::Bigint(5), Value::Null, Value::Bigint(-2)],
        );
        round_trip_via_blocks(
            DataType::Varchar,
            vec![Value::Varchar("xy".into()), Value::Null, Value::Varchar("".into())],
        );
        round_trip_via_blocks(DataType::Double, vec![Value::Double(0.5), Value::Double(-1.5)]);
        round_trip_via_blocks(DataType::Boolean, vec![Value::Boolean(true), Value::Null]);
    }

    #[test]
    fn struct_of_scalars_builds_without_records() {
        let dt = DataType::row(vec![
            Field::new("driver_uuid", DataType::Varchar),
            Field::new("city_id", DataType::Bigint),
        ]);
        round_trip_via_blocks(
            dt,
            vec![
                Value::Row(vec!["d1".into(), 12i64.into()]),
                Value::Null,
                Value::Row(vec![Value::Null, 7i64.into()]),
            ],
        );
    }

    #[test]
    fn repeated_types_build_without_records() {
        round_trip_via_blocks(
            DataType::array(DataType::Bigint),
            vec![Value::Array(vec![1i64.into(), 2i64.into()]), Value::Array(vec![]), Value::Null],
        );
        round_trip_via_blocks(
            DataType::map(DataType::Varchar, DataType::Double),
            vec![
                Value::Map(vec![("k".into(), Value::Double(1.0))]),
                Value::Null,
                Value::Map(vec![]),
            ],
        );
    }

    #[test]
    fn deep_shapes_build_without_records() {
        // list of lists, with NULL and empty at both levels
        round_trip_via_blocks(
            DataType::array(DataType::array(DataType::Bigint)),
            vec![
                Value::Array(vec![
                    Value::Array(vec![1i64.into(), Value::Null]),
                    Value::Array(vec![]),
                    Value::Null,
                ]),
                Value::Null,
                Value::Array(vec![]),
                Value::Array(vec![Value::Array(vec![3i64.into()])]),
            ],
        );
        // struct → list of structs (some NULL) → list, beside a map to structs
        let leg = DataType::row(vec![
            Field::new("stop", DataType::Varchar),
            Field::new("codes", DataType::array(DataType::Integer)),
        ]);
        let dt = DataType::row(vec![
            Field::new("legs", DataType::array(leg)),
            Field::new(
                "attrs",
                DataType::map(
                    DataType::Varchar,
                    DataType::row(vec![Field::new("w", DataType::Double)]),
                ),
            ),
        ]);
        let codes = |n: i32| Value::Array((0..n).map(Value::Integer).collect());
        round_trip_via_blocks(
            dt,
            vec![
                Value::Row(vec![
                    Value::Array(vec![
                        Value::Row(vec!["a".into(), codes(2)]),
                        Value::Null,
                        Value::Row(vec![Value::Null, Value::Null]),
                        Value::Row(vec!["b".into(), codes(0)]),
                    ]),
                    Value::Map(vec![
                        ("k".into(), Value::Row(vec![Value::Double(0.5)])),
                        ("n".into(), Value::Null),
                        ("z".into(), Value::Row(vec![Value::Null])),
                    ]),
                ]),
                Value::Null,
                Value::Row(vec![Value::Null, Value::Map(vec![])]),
                Value::Row(vec![Value::Array(vec![]), Value::Null]),
            ],
        );
    }

    #[test]
    fn leaves_that_disagree_on_the_shape_are_a_format_error() {
        let dt = DataType::array(DataType::row(vec![
            Field::new("a", DataType::Bigint),
            Field::new("b", DataType::Bigint),
        ]));
        let flat = flat_for(dt.clone());
        let values = vec![
            Value::Array(vec![Value::Row(vec![1i64.into(), 2i64.into()])]),
            Value::Array(vec![
                Value::Row(vec![3i64.into(), 4i64.into()]),
                Value::Row(vec![5i64.into(), 6i64.into()]),
            ]),
        ];
        let mut sinks: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        shred_column(&flat.roots[0], &values, &mut sinks).unwrap();
        // `b` claims the second list has one element where `a` says two
        sinks[1].reps = Levels::Each(vec![0, 0]);
        sinks[1].defs = Levels::Each(vec![4, 4]);
        sinks[1].values = LeafValues::I64(vec![2, 4]);
        let err = build_block(&flat.roots[0], &mut owned(sinks)).unwrap_err();
        assert!(matches!(err, PrestoError::Format(_)), "{err}");
    }

    #[test]
    fn native_shred_agrees_with_value_shred() {
        let dt = DataType::row(vec![
            Field::new("a", DataType::Bigint),
            Field::new("tags", DataType::array(DataType::Varchar)),
        ]);
        let values = vec![
            Value::Row(vec![1i64.into(), Value::Array(vec!["x".into()])]),
            Value::Row(vec![Value::Null, Value::Array(vec![])]),
            Value::Null,
        ];
        let flat = flat_for(dt.clone());
        let block = Block::from_values(&dt, &values).unwrap();

        let mut native: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        shred_block(&flat.roots[0], &block, &mut native).unwrap();

        let mut via_values: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        shred_column(&flat.roots[0], &values, &mut via_values).unwrap();

        assert_eq!(native, via_values);
    }

    #[test]
    fn bulk_fast_path_used_for_null_free_scalars() {
        let flat = flat_for(DataType::Bigint);
        let block = Block::bigint((0..1000).collect());
        let mut sinks: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        shred_block(&flat.roots[0], &block, &mut sinks).unwrap();
        assert_eq!(sinks[0].len(), 1000);
        assert_eq!(sinks[0].null_count(), 0);
        assert!(sinks[0].defs.iter().all(|d| d == 1));
    }

    #[test]
    fn dictionary_blocks_shred_through_decode() {
        let flat = flat_for(DataType::Varchar);
        let dict = Block::varchar(&["a", "b"]);
        let block = Block::Dictionary { dictionary: Box::new(dict), ids: vec![1, 0, 1] };
        let mut sinks: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        shred_block(&flat.roots[0], &block, &mut sinks).unwrap();
        let rebuilt = build_block(&flat.roots[0], &mut owned(sinks)).unwrap();
        assert_eq!(rebuilt.to_values(), vec!["b".into(), "a".into(), "b".into()]);
    }
}
