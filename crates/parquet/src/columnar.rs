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
//! `Map` node walks the levels of its first leaf once; no `Value` is built.
//!
//! Writing is the same walk the other way, once per column and not per row:
//! a node turns the slot stream it is handed — per slot a repetition level,
//! a definition level and the block position standing there, or none — into
//! its children's with one pass over its own NULL mask or offsets, and every
//! leaf below shares the result. A leaf appends the stream's levels and the
//! values at its positions; where nothing above it is NULL or empty that is
//! two level runs and one `extend_from_slice`.

use std::ops::Range;

use presto_common::block::NullMask;
use presto_common::{Block, DataType, PrestoError, Result};

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

/// Packed values spread over their slots, NULL slots set to `null`.
fn spread<T: Copy>(packed: Vec<T>, mask: &[bool], null: T) -> Vec<T> {
    let mut packed = packed.into_iter();
    mask.iter().map(|&is_null| if is_null { null } else { packed.next().unwrap_or(null) }).collect()
}

/// Direct leaf build: the definition levels of the leaf's slots become the
/// NULL mask, and the packed value buffer moves into the block — as it is
/// when no slot is NULL, spread over the slots otherwise. A dictionary
/// chunk stays one: a [`Block::Dictionary`] over its entries whose ids move
/// in the same way, every NULL slot pointing at one NULL entry appended
/// after the others.
fn build_leaf(data: LeafData, scalar_type: &DataType, slots: Slots) -> Result<Block> {
    let defined = data.value_count();
    let LeafData { defs, values, ids, max_def, .. } = data;
    // a leaf's own repetition maximum is its enclosing list's level, so the
    // definition levels alone pick its slots
    let len = defs.count_from(slots.def);
    // decode_chunk matched the value count to the fully defined entries
    let mask: Option<Vec<bool>> = (defined < len).then(|| match &defs {
        Levels::Run { .. } => vec![true; len],
        Levels::Each(defs) => {
            let mut mask = Vec::with_capacity(len);
            mask.extend(defs.iter().filter(|&&d| d >= slots.def).map(|&d| d < max_def));
            mask
        }
    });
    let Some(ids) = ids else { return plain_leaf(values, scalar_type, mask) };
    let entries = values.len();
    let (entry_mask, ids) = match mask {
        None => (None, ids),
        Some(mask) => {
            let null = u32::try_from(entries)
                .map_err(|_| PrestoError::Format("dictionary exceeds 2^32 entries".into()))?;
            let mut entry_mask = vec![false; entries + 1];
            entry_mask[entries] = true;
            (Some(entry_mask), spread(ids, &mask, null))
        }
    };
    let dictionary = Box::new(plain_leaf(values, scalar_type, entry_mask)?);
    Ok(Block::Dictionary { dictionary, ids })
}

/// The block of packed `values` spread over the slots of `mask` (none:
/// one slot per value), NULL slots zeroed.
fn plain_leaf(
    values: LeafValues,
    scalar_type: &DataType,
    mask: Option<Vec<bool>>,
) -> Result<Block> {
    macro_rules! fixed {
        ($variant:ident, $packed:expr) => {
            Ok(match mask {
                None => Block::$variant { values: $packed, nulls: None },
                Some(mask) => Block::$variant {
                    values: spread($packed, &mask, Default::default()),
                    nulls: Some(mask),
                },
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
                let mut spread_offsets = Vec::with_capacity(mask.len() + 1);
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

/// The position of a slot at which no value of the node stands: an ancestor
/// is NULL there, or a list above it is NULL or empty.
const ABSENT: usize = usize::MAX;

/// The block position standing at each slot of a node.
enum Positions {
    /// Slot `k` holds position `start + k`: nothing above the node is NULL
    /// or empty, so its leaves can copy their value buffers wholesale.
    Dense(Range<usize>),
    /// One position per slot, or [`ABSENT`].
    Each(Vec<usize>),
}

impl Positions {
    fn len(&self) -> usize {
        match self {
            Positions::Dense(range) => range.len(),
            Positions::Each(at) => at.len(),
        }
    }

    #[inline]
    fn get(&self, k: usize) -> usize {
        match self {
            Positions::Dense(range) => range.start + k,
            Positions::Each(at) => at[k],
        }
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|k| self.get(k))
    }
}

/// The slots of a node in stream order: what a node derives once from its
/// own NULL mask or offsets and hands to every leaf below it. A node
/// replaces only the parts it changes, so a struct without NULLs passes its
/// parent's repetition levels and positions straight through.
#[derive(Clone, Copy)]
struct Stream<'a> {
    /// Repetition level per slot.
    reps: &'a Levels,
    /// At an absent slot the level every leaf below records; at any other,
    /// the level they record if the node is NULL there.
    defs: &'a Levels,
    at: &'a Positions,
}

/// Shred rows `rows` of one top-level column block into the leaf sinks — the
/// native writer path (§V.J): the schema is walked once per column, values
/// and repetition / definition levels come straight from the block's buffers,
/// NULL masks and offsets, and no record is reconstructed.
pub fn shred_block(
    node: &SchemaNode,
    block: &Block,
    rows: Range<usize>,
    sinks: &mut [LeafData],
) -> Result<()> {
    let records = Levels::Run { level: 0, len: rows.len() };
    let at = Positions::Dense(rows);
    shred(node, block, Stream { reps: &records, defs: &records, at: &at }, sinks)
}

fn any_null(nulls: &NullMask) -> Option<&[bool]> {
    nulls.as_deref().filter(|mask| mask.contains(&true))
}

fn shred(node: &SchemaNode, block: &Block, s: Stream<'_>, sinks: &mut [LeafData]) -> Result<()> {
    if let Block::Dictionary { dictionary, ids } = block {
        // shred through the ids: the same slots, pointing into the dictionary
        let at = s.at.iter().map(|p| if p == ABSENT { ABSENT } else { ids[p] as usize });
        let at = Positions::Each(at.collect());
        return shred(node, dictionary, Stream { at: &at, ..s }, sinks);
    }
    match (node, block) {
        (SchemaNode::Leaf { leaf_index, max_def, .. }, _) => {
            shred_leaf(&mut sinks[*leaf_index], block, *max_def, s)
        }
        (SchemaNode::Row { fields, def_present, .. }, Block::Row { children, nulls, .. }) => {
            // a NULL struct is absent to everything below it
            let at = any_null(nulls).map(|nulls| {
                let at = s.at.iter().map(|p| if p != ABSENT && nulls[p] { ABSENT } else { p });
                Positions::Each(at.collect())
            });
            let at = at.as_ref().unwrap_or(s.at);
            let defs = match at {
                Positions::Dense(range) => Levels::Run { level: *def_present, len: range.len() },
                Positions::Each(at) => Levels::Each(
                    (at.iter().enumerate())
                        .map(|(k, &p)| if p == ABSENT { s.defs.get(k) } else { *def_present })
                        .collect(),
                ),
            };
            let below = Stream { reps: s.reps, defs: &defs, at };
            fields
                .iter()
                .zip(children)
                .try_for_each(|((_, f), child)| shred(f, child, below, sinks))
        }
        (
            SchemaNode::Array { element, def_present, rep, .. },
            Block::Array { offsets, elements, nulls, .. },
        ) => {
            let (reps, defs, at) = list_stream(s, offsets, any_null(nulls), *def_present, *rep);
            shred(element, elements, Stream { reps: &reps, defs: &defs, at: &at }, sinks)
        }
        (
            SchemaNode::Map { key, value, def_present, rep, .. },
            Block::Map { offsets, keys, values, nulls, .. },
        ) => {
            let (reps, defs, at) = list_stream(s, offsets, any_null(nulls), *def_present, *rep);
            let entries = Stream { reps: &reps, defs: &defs, at: &at };
            shred(key, keys, entries, sinks)?;
            shred(value, values, entries, sinks)
        }
        (node, block) => Err(PrestoError::Internal(format!(
            "expected {} block, got {}",
            node.data_type(),
            block.data_type()
        ))),
    }
}

/// The stream a list or map hands its elements: a NULL list is one absent
/// slot at the level it arrived with, an empty one an absent slot at
/// `def_present`, and a list of `n` elements `n` slots at `def_present + 1`,
/// the first at the list's own repetition level and the rest at `rep`. While
/// every slot is an element and each list starts where the last one ended,
/// the positions stay one dense range.
fn list_stream(
    s: Stream<'_>,
    offsets: &[u32],
    nulls: Option<&[bool]>,
    def_present: u16,
    rep: u16,
) -> (Levels, Levels, Positions) {
    let mut reps = Vec::with_capacity(s.at.len());
    let mut dense = 0..0;
    let mut sparse: Option<(Vec<u16>, Vec<usize>)> = None;
    for (k, p) in s.at.iter().enumerate() {
        let (def, elements) = if p == ABSENT || nulls.is_some_and(|nulls| nulls[p]) {
            (s.defs.get(k), 0..0)
        } else {
            let elements = offsets[p] as usize..offsets[p + 1] as usize;
            (def_present + u16::from(!elements.is_empty()), elements)
        };
        let breaks = elements.is_empty() || (!dense.is_empty() && elements.start != dense.end);
        if breaks && sparse.is_none() {
            sparse = Some((vec![def_present + 1; dense.len()], dense.clone().collect()));
        }
        match &mut sparse {
            None if dense.is_empty() => dense = elements.clone(),
            None => dense.end = elements.end,
            Some((defs, at)) if elements.is_empty() => {
                defs.push(def);
                at.push(ABSENT);
            }
            Some((defs, at)) => {
                defs.resize(defs.len() + elements.len(), def);
                at.extend(elements.clone());
            }
        }
        reps.push(s.reps.get(k));
        reps.resize(reps.len() + elements.len().saturating_sub(1), rep);
    }
    match sparse {
        None => {
            let defs = Levels::Run { level: def_present + 1, len: dense.len() };
            (Levels::Each(reps), defs, Positions::Dense(dense))
        }
        Some((defs, at)) => (Levels::Each(reps), Levels::Each(defs), Positions::Each(at)),
    }
}

/// Append a leaf's slots to its sink: repetition levels as they arrive, the
/// leaf's own maximum as the definition level wherever a value stands, and
/// that value. A dense stream over a block without NULLs is one
/// `extend_from_slice` and one level run.
fn shred_leaf(sink: &mut LeafData, block: &Block, max_def: u16, s: Stream<'_>) -> Result<()> {
    /// The general walk: `value(p)` appends the value at position `p`.
    fn each_slot(
        defs: &mut Levels,
        nulls: Option<&[bool]>,
        max_def: u16,
        s: Stream<'_>,
        mut value: impl FnMut(usize),
    ) {
        for (k, p) in s.at.iter().enumerate() {
            if p == ABSENT || nulls.is_some_and(|nulls| nulls[p]) {
                defs.push(s.defs.get(k));
            } else {
                defs.push(max_def);
                value(p);
            }
        }
    }
    fn fixed<T: Copy>(
        out: &mut Vec<T>,
        defs: &mut Levels,
        values: &[T],
        nulls: &NullMask,
        max_def: u16,
        s: Stream<'_>,
    ) {
        match (s.at, any_null(nulls)) {
            (Positions::Dense(range), None) => {
                out.extend_from_slice(&values[range.clone()]);
                defs.extend_run(max_def, range.len());
            }
            (_, nulls) => each_slot(defs, nulls, max_def, s, |p| out.push(values[p])),
        }
    }

    let LeafData { reps, defs, values: store, .. } = sink;
    reps.extend(s.reps);
    match (store, block) {
        (LeafValues::Bool(out), Block::Boolean { values, nulls }) => {
            fixed(out, defs, values, nulls, max_def, s)
        }
        (
            LeafValues::I32(out),
            Block::Integer { values, nulls } | Block::Date { values, nulls },
        ) => fixed(out, defs, values, nulls, max_def, s),
        (
            LeafValues::I64(out),
            Block::Bigint { values, nulls } | Block::Timestamp { values, nulls },
        ) => fixed(out, defs, values, nulls, max_def, s),
        (LeafValues::F64(out), Block::Double { values, nulls }) => {
            fixed(out, defs, values, nulls, max_def, s)
        }
        (LeafValues::Bytes { offsets: ends, data }, Block::Varchar { offsets, bytes, nulls }) => {
            match (s.at, any_null(nulls)) {
                (Positions::Dense(range), None) => {
                    let first = offsets[range.start] as usize;
                    let piece = &bytes[first..offsets[range.end] as usize];
                    // rebased offsets only wrap in a chunk the check below rejects
                    let base = data.len();
                    let rebased = offsets[range.start + 1..=range.end].iter();
                    ends.extend(rebased.map(|&end| (base + end as usize - first) as u32));
                    data.extend_from_slice(piece);
                    defs.extend_run(max_def, range.len());
                }
                (_, nulls) => each_slot(defs, nulls, max_def, s, |p| {
                    data.extend_from_slice(&bytes[offsets[p] as usize..offsets[p + 1] as usize]);
                    ends.push(data.len() as u32);
                }),
            }
            if data.len() > u32::MAX as usize {
                return Err(PrestoError::Format(
                    "varchar chunk exceeds 4 GiB; split into smaller row groups".into(),
                ));
            }
        }
        (store, block) => {
            return Err(PrestoError::Internal(format!(
                "block {} does not match leaf storage {:?}",
                block.data_type(),
                store.physical()
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FlatSchema;
    use crate::shred::shred_column;
    use presto_common::{Field, Schema, Value};

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
        shred_block(&flat.roots[0], &block, 0..block.len(), &mut sinks).unwrap();
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
        // a dictionary is shredded through its ids, at the top and below it
        let dict = Block::from_values(&DataType::Varchar, &["a".into(), Value::Null, "b".into()]);
        let words =
            Block::Dictionary { dictionary: Box::new(dict.unwrap()), ids: vec![2, 0, 1, 2] };
        let list = Block::Array {
            element_type: DataType::Varchar,
            offsets: vec![0, 1, 1, 4],
            elements: Box::new(words.clone()),
            nulls: None,
        };
        for (dt, block) in [
            (dt.clone(), Block::from_values(&dt, &values).unwrap()),
            (DataType::Varchar, words),
            (DataType::array(DataType::Varchar), list),
        ] {
            let flat = flat_for(dt);
            let mut native: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
            shred_block(&flat.roots[0], &block, 0..block.len(), &mut native).unwrap();
            let mut via_values: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
            shred_column(&flat.roots[0], &block.to_values(), &mut via_values).unwrap();
            assert_eq!(native, via_values);
        }
    }

    #[test]
    fn null_free_structs_of_scalars_shred_to_level_runs() {
        let dt = DataType::row(vec![
            Field::new("a", DataType::Bigint),
            Field::new("b", DataType::Varchar),
        ]);
        let flat = flat_for(dt.clone());
        let names: Vec<String> = (0..1000).map(|i| format!("n{i}")).collect();
        let block = Block::Row {
            fields: vec![Field::new("a", DataType::Bigint), Field::new("b", DataType::Varchar)],
            children: vec![Block::bigint((0..1000).collect()), Block::varchar(&names)],
            len: 1000,
            nulls: None,
        };
        let mut sinks: Vec<LeafData> = flat.leaves.iter().map(LeafData::new).collect();
        // two pages' worth, the second a row range
        shred_block(&flat.roots[0], &block, 0..1000, &mut sinks).unwrap();
        shred_block(&flat.roots[0], &block, 200..300, &mut sinks).unwrap();
        for sink in &sinks {
            assert_eq!(sink.len(), 1100);
            assert_eq!((sink.reps.run_level(), sink.defs.run_level()), (Some(0), Some(2)));
        }
        assert_eq!(sinks[1].values.get(1050, &DataType::Varchar), "n250".into());
    }
}
