//! Schema shredding and schema evolution.
//!
//! "Parquet is storing nested fields as separate columns on disk" (§V.B).
//! [`FlatSchema`] flattens a nested SQL schema into its leaf columns with
//! Dremel repetition/definition levels; every reader and writer works in
//! terms of these leaves, which is what makes nested column pruning (§V.D)
//! possible: reading `base.city_id` touches exactly one leaf out of the
//! dozens a 50-field struct shreds into.
//!
//! Schema evolution (§V.A): adding fields to a struct is allowed (old files
//! return NULL), removing fields is allowed (stale data is ignored), renames
//! and type changes are rejected because Parquet matches columns by name and
//! the engine is type-strict.

use presto_common::{DataType, Field, PrestoError, Result, Schema, Value};

use crate::encoding::{ByteReader, ByteWriter};

/// On-disk primitive type of one leaf column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhysicalType {
    /// One byte per value.
    Bool,
    /// 4-byte little-endian signed.
    I32,
    /// 8-byte little-endian signed.
    I64,
    /// 8-byte IEEE double.
    F64,
    /// Varint length + payload.
    Bytes,
}

impl PhysicalType {
    /// Physical type for a scalar logical type.
    pub fn for_scalar(t: &DataType) -> Result<PhysicalType> {
        match t {
            DataType::Boolean => Ok(PhysicalType::Bool),
            DataType::Integer | DataType::Date => Ok(PhysicalType::I32),
            DataType::Bigint | DataType::Timestamp => Ok(PhysicalType::I64),
            DataType::Double => Ok(PhysicalType::F64),
            DataType::Varchar => Ok(PhysicalType::Bytes),
            nested => Err(PrestoError::Internal(format!("{nested} is not a leaf type"))),
        }
    }
}

/// One leaf column of the shredded schema.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafColumn {
    /// Dotted path from the top-level column, with `item` / `key` / `value`
    /// segments for arrays and maps (e.g. `base.status.tags.item`).
    pub path: Vec<String>,
    /// Leaf logical type.
    pub scalar_type: DataType,
    /// On-disk primitive type.
    pub physical: PhysicalType,
    /// Definition level when the value is present.
    pub max_def: u16,
    /// Repetition level of the innermost repeated ancestor.
    pub max_rep: u16,
}

impl LeafColumn {
    /// Dotted display form of the path.
    pub fn dotted(&self) -> String {
        self.path.join(".")
    }
}

/// Structural node of the shredded schema, carrying the level bookkeeping
/// shredding and assembly need.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaNode {
    /// A scalar leaf.
    Leaf {
        /// Index into [`FlatSchema::leaves`].
        leaf_index: usize,
        /// Leaf logical type.
        scalar_type: DataType,
        /// Definition level when present.
        max_def: u16,
    },
    /// A struct.
    Row {
        /// Field name/node pairs.
        fields: Vec<(String, SchemaNode)>,
        /// Definition level when the struct itself is present.
        def_present: u16,
        /// Original field list (for type reconstruction).
        row_fields: Vec<Field>,
    },
    /// An array. Consumes two definition levels (list present; element slot
    /// exists) and one repetition level.
    Array {
        /// Element node.
        element: Box<SchemaNode>,
        /// Definition level when the list is present (empty list encodes at
        /// exactly this level; elements encode deeper).
        def_present: u16,
        /// Repetition level of this list's elements.
        rep: u16,
        /// Element logical type.
        element_type: DataType,
    },
    /// A map, encoded as a repeated (key, value) entry group.
    Map {
        /// Key node (always a leaf in SQL maps).
        key: Box<SchemaNode>,
        /// Value node.
        value: Box<SchemaNode>,
        /// Definition level when the map is present.
        def_present: u16,
        /// Repetition level of entries.
        rep: u16,
        /// Key logical type.
        key_type: DataType,
        /// Value logical type.
        value_type: DataType,
    },
}

impl SchemaNode {
    /// Leaf indices in this subtree, in schema order.
    pub fn leaf_indices(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            SchemaNode::Leaf { leaf_index, .. } => out.push(*leaf_index),
            SchemaNode::Row { fields, .. } => {
                for (_, f) in fields {
                    f.collect_leaves(out);
                }
            }
            SchemaNode::Array { element, .. } => element.collect_leaves(out),
            SchemaNode::Map { key, value, .. } => {
                key.collect_leaves(out);
                value.collect_leaves(out);
            }
        }
    }

    /// First (leftmost) leaf index — the pilot stream whose levels give the
    /// node's structure, to the record assembler and the block builder alike.
    pub fn first_leaf(&self) -> usize {
        match self {
            SchemaNode::Leaf { leaf_index, .. } => *leaf_index,
            SchemaNode::Row { fields, .. } => fields[0].1.first_leaf(),
            SchemaNode::Array { element, .. } => element.first_leaf(),
            SchemaNode::Map { key, .. } => key.first_leaf(),
        }
    }

    /// The logical type this node reconstructs to.
    pub fn data_type(&self) -> DataType {
        match self {
            SchemaNode::Leaf { scalar_type, .. } => scalar_type.clone(),
            SchemaNode::Row { row_fields, .. } => DataType::Row(row_fields.clone()),
            SchemaNode::Array { element_type, .. } => DataType::array(element_type.clone()),
            SchemaNode::Map { key_type, value_type, .. } => {
                DataType::map(key_type.clone(), value_type.clone())
            }
        }
    }

    /// Navigate to the node for a dotted sub-path of struct field names
    /// (the nested-column-pruning access path, e.g. `["status", "code"]`).
    pub fn descend(&self, sub_path: &[&str]) -> Result<&SchemaNode> {
        if sub_path.is_empty() {
            return Ok(self);
        }
        match self {
            SchemaNode::Row { fields, .. } => {
                let (_, child) =
                    fields.iter().find(|(name, _)| name == sub_path[0]).ok_or_else(|| {
                        PrestoError::Analysis(format!("no field '{}' in struct", sub_path[0]))
                    })?;
                child.descend(&sub_path[1..])
            }
            _ => Err(PrestoError::Analysis(format!(
                "cannot descend into non-struct at '{}'",
                sub_path[0]
            ))),
        }
    }
}

/// A schema flattened to leaves, with one structural tree per top-level
/// column.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatSchema {
    /// The original nested schema.
    pub schema: Schema,
    /// All leaf columns across all top-level columns, in schema order.
    pub leaves: Vec<LeafColumn>,
    /// One structural tree per top-level column, parallel to
    /// `schema.fields()`.
    pub roots: Vec<SchemaNode>,
}

impl FlatSchema {
    /// Flatten `schema`.
    pub fn new(schema: Schema) -> Result<FlatSchema> {
        let mut leaves = Vec::new();
        let mut roots = Vec::new();
        for field in schema.fields() {
            let mut path = vec![field.name.clone()];
            let node = flatten(&field.data_type, &mut path, 0, 0, &mut leaves)?;
            roots.push(node);
        }
        Ok(FlatSchema { schema, leaves, roots })
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Structural tree for a top-level column by name.
    pub fn root(&self, column: &str) -> Result<&SchemaNode> {
        let idx = self
            .schema
            .index_of(column)
            .ok_or_else(|| PrestoError::Analysis(format!("no column '{column}'")))?;
        Ok(&self.roots[idx])
    }

    /// Leaf index for an exact dotted path.
    pub fn leaf_by_path(&self, dotted: &str) -> Option<usize> {
        self.leaves.iter().position(|l| l.dotted() == dotted)
    }
}

fn flatten(
    dt: &DataType,
    path: &mut Vec<String>,
    def: u16,
    rep: u16,
    leaves: &mut Vec<LeafColumn>,
) -> Result<SchemaNode> {
    match dt {
        DataType::Row(fields) => {
            if fields.is_empty() {
                return Err(PrestoError::Analysis("empty struct type".into()));
            }
            let mut children = Vec::with_capacity(fields.len());
            for f in fields {
                path.push(f.name.clone());
                let node = flatten(&f.data_type, path, def + 1, rep, leaves)?;
                path.pop();
                children.push((f.name.clone(), node));
            }
            Ok(SchemaNode::Row {
                fields: children,
                def_present: def + 1,
                row_fields: fields.clone(),
            })
        }
        DataType::Array(elem) => {
            path.push("item".to_string());
            let element = flatten(elem, path, def + 2, rep + 1, leaves)?;
            path.pop();
            Ok(SchemaNode::Array {
                element: Box::new(element),
                def_present: def + 1,
                rep: rep + 1,
                element_type: (**elem).clone(),
            })
        }
        DataType::Map(k, v) => {
            path.push("key".to_string());
            let key = flatten(k, path, def + 2, rep + 1, leaves)?;
            path.pop();
            path.push("value".to_string());
            let value = flatten(v, path, def + 2, rep + 1, leaves)?;
            path.pop();
            Ok(SchemaNode::Map {
                key: Box::new(key),
                value: Box::new(value),
                def_present: def + 1,
                rep: rep + 1,
                key_type: (**k).clone(),
                value_type: (**v).clone(),
            })
        }
        scalar => {
            let leaf_index = leaves.len();
            leaves.push(LeafColumn {
                path: path.clone(),
                scalar_type: scalar.clone(),
                physical: PhysicalType::for_scalar(scalar)?,
                max_def: def + 1,
                max_rep: rep,
            });
            Ok(SchemaNode::Leaf { leaf_index, scalar_type: scalar.clone(), max_def: def + 1 })
        }
    }
}

// --------------------------------------------------------- schema evolution

/// How one table (metastore) column resolves against a file's schema.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnResolution {
    /// Column exists in the file with the same type: read it.
    Present {
        /// Index of the column in the *file* schema.
        file_column: usize,
    },
    /// Column was added to the table after this file was written: return
    /// NULLs (§V.A "When querying newly added fields in old data, Presto
    /// will return null").
    MissingReturnsNull,
}

/// Resolve the table schema against a file schema under the §V.A rules.
///
/// Struct-typed columns are resolved field-by-field recursively: added
/// sub-fields read as NULL; sub-fields removed from the table but present in
/// the file are ignored ("Presto just ignores them"); a type change at any
/// depth is a [`PrestoError::SchemaEvolution`] error.
pub fn resolve_schemas(
    table_schema: &Schema,
    file_schema: &Schema,
) -> Result<Vec<ColumnResolution>> {
    table_schema
        .fields()
        .iter()
        .map(|table_field| match file_schema.index_of(&table_field.name) {
            None => Ok(ColumnResolution::MissingReturnsNull),
            Some(idx) => {
                check_compatible(
                    &table_field.name,
                    &table_field.data_type,
                    &file_schema.field_at(idx).data_type,
                )?;
                Ok(ColumnResolution::Present { file_column: idx })
            }
        })
        .collect()
}

/// Public entry point for the recursive compatibility check, used by readers
/// resolving pruned sub-paths.
pub fn check_evolution(name: &str, table: &DataType, file: &DataType) -> Result<()> {
    check_compatible(name, table, file)
}

/// Recursive compatibility check: same shape modulo added/removed struct
/// fields; no type changes ("Field rename and type change are not allowed").
fn check_compatible(name: &str, table: &DataType, file: &DataType) -> Result<()> {
    match (table, file) {
        (DataType::Row(tf), DataType::Row(ff)) => {
            for t in tf {
                if let Some(f) = ff.iter().find(|f| f.name == t.name) {
                    check_compatible(&format!("{name}.{}", t.name), &t.data_type, &f.data_type)?;
                }
                // fields missing from the file read as NULL — allowed
            }
            // fields present in the file but removed from the table are ignored
            Ok(())
        }
        (DataType::Array(t), DataType::Array(f)) => check_compatible(name, t, f),
        (DataType::Map(tk, tv), DataType::Map(fk, fv)) => {
            check_compatible(name, tk, fk)?;
            check_compatible(name, tv, fv)
        }
        (t, f) if t == f => Ok(()),
        (t, f) => Err(PrestoError::SchemaEvolution(format!(
            "type change on column '{name}': file has {f}, table has {t} \
             (type changes are not allowed; no automatic coercion)"
        ))),
    }
}

/// Adapt a value read under the file schema to the table schema's shape:
/// added struct fields materialize as NULL, removed ones are dropped, field
/// order follows the table. Types must already have passed
/// [`resolve_schemas`] / `check_compatible`.
pub fn adapt_value(v: &Value, file: &DataType, table: &DataType) -> Value {
    if file == table || v.is_null() {
        return v.clone();
    }
    match (v, file, table) {
        (Value::Row(items), DataType::Row(ff), DataType::Row(tf)) => Value::Row(
            tf.iter()
                .map(|t| match ff.iter().position(|f| f.name == t.name) {
                    Some(i) => adapt_value(&items[i], &ff[i].data_type, &t.data_type),
                    None => Value::Null,
                })
                .collect(),
        ),
        (Value::Array(items), DataType::Array(fe), DataType::Array(te)) => {
            Value::Array(items.iter().map(|i| adapt_value(i, fe, te)).collect())
        }
        (Value::Map(entries), DataType::Map(fk, fv), DataType::Map(tk, tv)) => Value::Map(
            entries
                .iter()
                .map(|(k, val)| (adapt_value(k, fk, tk), adapt_value(val, fv, tv)))
                .collect(),
        ),
        _ => v.clone(),
    }
}

// -------------------------------------------------- binary schema (footer)

/// Serialize a schema into the footer.
pub fn write_schema(schema: &Schema, w: &mut ByteWriter) {
    w.varint(schema.len() as u64);
    for f in schema.fields() {
        w.string(&f.name);
        write_type(&f.data_type, w);
    }
}

/// Deserialize a footer schema.
pub fn read_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let n = r.varint()? as usize;
    let mut fields = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        let name = r.string()?;
        let dt = read_type(r)?;
        fields.push(Field::new(name, dt));
    }
    Schema::new(fields)
}

fn write_type(dt: &DataType, w: &mut ByteWriter) {
    match dt {
        DataType::Boolean => w.u8(0),
        DataType::Bigint => w.u8(1),
        DataType::Integer => w.u8(2),
        DataType::Double => w.u8(3),
        DataType::Varchar => w.u8(4),
        DataType::Date => w.u8(5),
        DataType::Timestamp => w.u8(6),
        DataType::Array(e) => {
            w.u8(7);
            write_type(e, w);
        }
        DataType::Map(k, v) => {
            w.u8(8);
            write_type(k, w);
            write_type(v, w);
        }
        DataType::Row(fields) => {
            w.u8(9);
            w.varint(fields.len() as u64);
            for f in fields {
                w.string(&f.name);
                write_type(&f.data_type, w);
            }
        }
    }
}

fn read_type(r: &mut ByteReader<'_>) -> Result<DataType> {
    Ok(match r.u8()? {
        0 => DataType::Boolean,
        1 => DataType::Bigint,
        2 => DataType::Integer,
        3 => DataType::Double,
        4 => DataType::Varchar,
        5 => DataType::Date,
        6 => DataType::Timestamp,
        7 => DataType::array(read_type(r)?),
        8 => {
            let k = read_type(r)?;
            let v = read_type(r)?;
            DataType::map(k, v)
        }
        9 => {
            let n = r.varint()? as usize;
            let mut fields = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                let name = r.string()?;
                fields.push(Field::new(name, read_type(r)?));
            }
            DataType::Row(fields)
        }
        other => return Err(PrestoError::Format(format!("unknown type tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trips_schema() -> Schema {
        Schema::new(vec![
            Field::new("datestr", DataType::Varchar),
            Field::new(
                "base",
                DataType::row(vec![
                    Field::new("driver_uuid", DataType::Varchar),
                    Field::new("city_id", DataType::Bigint),
                    Field::new(
                        "status",
                        DataType::row(vec![
                            Field::new("code", DataType::Integer),
                            Field::new("tags", DataType::array(DataType::Varchar)),
                        ]),
                    ),
                    Field::new("features", DataType::map(DataType::Varchar, DataType::Double)),
                ]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn flatten_computes_paths_and_levels() {
        let flat = FlatSchema::new(trips_schema()).unwrap();
        let dotted: Vec<String> = flat.leaves.iter().map(LeafColumn::dotted).collect();
        assert_eq!(
            dotted,
            vec![
                "datestr",
                "base.driver_uuid",
                "base.city_id",
                "base.status.code",
                "base.status.tags.item",
                "base.features.key",
                "base.features.value",
            ]
        );
        // datestr: one optional level
        assert_eq!(flat.leaves[0].max_def, 1);
        assert_eq!(flat.leaves[0].max_rep, 0);
        // base.city_id: base struct + leaf
        assert_eq!(flat.leaves[2].max_def, 2);
        assert_eq!(flat.leaves[2].max_rep, 0);
        // base.status.tags.item: base + status + (tags list: 2) + leaf = 5
        assert_eq!(flat.leaves[4].max_def, 5);
        assert_eq!(flat.leaves[4].max_rep, 1);
        // map leaves
        assert_eq!(flat.leaves[5].max_def, 4);
        assert_eq!(flat.leaves[5].max_rep, 1);
    }

    #[test]
    fn descend_navigates_structs() {
        let flat = FlatSchema::new(trips_schema()).unwrap();
        let base = flat.root("base").unwrap();
        let city = base.descend(&["city_id"]).unwrap();
        assert!(matches!(city, SchemaNode::Leaf { .. }));
        assert_eq!(city.data_type(), DataType::Bigint);
        assert!(base.descend(&["nope"]).is_err());
        assert!(base.descend(&["city_id", "deeper"]).is_err());
    }

    #[test]
    fn schema_binary_round_trip() {
        let schema = trips_schema();
        let mut w = ByteWriter::new();
        write_schema(&schema, &mut w);
        let data = w.into_bytes();
        let mut r = ByteReader::new(&data);
        assert_eq!(read_schema(&mut r).unwrap(), schema);
    }

    #[test]
    fn evolution_added_field_reads_null() {
        let file = Schema::new(vec![Field::new("a", DataType::Bigint)]).unwrap();
        let table = Schema::new(vec![
            Field::new("a", DataType::Bigint),
            Field::new("b", DataType::Varchar), // added after the file was written
        ])
        .unwrap();
        let res = resolve_schemas(&table, &file).unwrap();
        assert_eq!(res[0], ColumnResolution::Present { file_column: 0 });
        assert_eq!(res[1], ColumnResolution::MissingReturnsNull);
    }

    #[test]
    fn evolution_removed_field_is_ignored() {
        let file = Schema::new(vec![
            Field::new("a", DataType::Bigint),
            Field::new("zombie", DataType::Varchar), // removed from the table
        ])
        .unwrap();
        let table = Schema::new(vec![Field::new("a", DataType::Bigint)]).unwrap();
        let res = resolve_schemas(&table, &file).unwrap();
        assert_eq!(res, vec![ColumnResolution::Present { file_column: 0 }]);
    }

    #[test]
    fn evolution_rejects_type_changes_at_any_depth() {
        let file = Schema::new(vec![Field::new(
            "base",
            DataType::row(vec![Field::new("city_id", DataType::Bigint)]),
        )])
        .unwrap();
        let table = Schema::new(vec![Field::new(
            "base",
            DataType::row(vec![Field::new("city_id", DataType::Varchar)]), // retyped!
        )])
        .unwrap();
        let err = resolve_schemas(&table, &file).unwrap_err();
        assert_eq!(err.code(), "SCHEMA_EVOLUTION_ERROR");
        assert!(err.message().contains("base.city_id"));
    }

    #[test]
    fn evolution_nested_add_and_remove() {
        let file = Schema::new(vec![Field::new(
            "base",
            DataType::row(vec![
                Field::new("old_field", DataType::Bigint),
                Field::new("kept", DataType::Double),
            ]),
        )])
        .unwrap();
        let table = Schema::new(vec![Field::new(
            "base",
            DataType::row(vec![
                Field::new("kept", DataType::Double),
                Field::new("new_field", DataType::Varchar),
            ]),
        )])
        .unwrap();
        // kept field matches; old_field removed (ignored); new_field added (null)
        assert!(resolve_schemas(&table, &file).is_ok());
    }
}
