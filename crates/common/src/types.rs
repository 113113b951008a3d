//! The SQL type system, including the nested types that §V of the paper is
//! devoted to ("users define one high level column with struct type. The
//! struct consists of 20 or sometimes up to 50 fields... more than 5 levels
//! of nesting").

use std::fmt;

use crate::error::{PrestoError, Result};

/// A named field inside a [`DataType::Row`] (struct) type or a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field name. Parquet identifies columns by name, which is why the paper
    /// forbids renames (§V.A).
    pub name: String,
    /// Field type.
    pub data_type: DataType,
}

impl Field {
    /// Construct a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field { name: name.into(), data_type }
    }
}

/// SQL data types supported by the engine.
///
/// `Row` models Presto's `ROW` / struct type; `Array` and `Map` are the other
/// two nested types. Presto "is type strict, we do not allow automatic type
/// coercion when querying Parquet" (§V.A) — comparisons in the analyzer are
/// exact, with only explicitly planned integer→double widening for arithmetic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DataType {
    /// `BOOLEAN`
    Boolean,
    /// `BIGINT` — 64-bit signed integer.
    Bigint,
    /// `INTEGER` — 32-bit signed integer.
    Integer,
    /// `DOUBLE` — 64-bit IEEE float.
    Double,
    /// `VARCHAR` — UTF-8 string.
    Varchar,
    /// `DATE` — days since the epoch.
    Date,
    /// `TIMESTAMP` — milliseconds since the epoch.
    Timestamp,
    /// `ARRAY(element)`
    Array(Box<DataType>),
    /// `MAP(key, value)`
    Map(Box<DataType>, Box<DataType>),
    /// `ROW(field, ...)` — a struct with named fields.
    Row(Vec<Field>),
}

impl DataType {
    /// Convenience constructor for `ARRAY(element)`.
    pub fn array(element: DataType) -> Self {
        DataType::Array(Box::new(element))
    }

    /// Convenience constructor for `MAP(key, value)`.
    pub fn map(key: DataType, value: DataType) -> Self {
        DataType::Map(Box::new(key), Box::new(value))
    }

    /// Convenience constructor for `ROW(...)`.
    pub fn row(fields: Vec<Field>) -> Self {
        DataType::Row(fields)
    }

    /// True for `ARRAY`, `MAP` and `ROW` types.
    pub fn is_nested(&self) -> bool {
        matches!(self, DataType::Array(_) | DataType::Map(_, _) | DataType::Row(_))
    }

    /// True for types that participate in arithmetic.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Bigint | DataType::Integer | DataType::Double)
    }

    /// The type values of `self` and `other` are compared in by SQL `=` —
    /// their comparison class under [`Value::sql_cmp`](crate::Value::sql_cmp):
    /// INTEGER with BIGINT as BIGINT, either with DOUBLE as DOUBLE, a type
    /// with itself. `None` when no value of one ever equals one of the other.
    pub fn comparison_type(&self, other: &DataType) -> Option<DataType> {
        use DataType::{Bigint, Double, Integer};
        match (self, other) {
            (l, r) if l == r => Some(l.clone()),
            (Integer, Bigint) | (Bigint, Integer) => Some(Bigint),
            (Double, Integer | Bigint) | (Integer | Bigint, Double) => Some(Double),
            _ => None,
        }
    }

    /// True for types with a total order usable in ORDER BY / min / max.
    pub fn is_orderable(&self) -> bool {
        !self.is_nested()
    }

    /// Number of *leaf* columns this type shreds into on disk. Scalars are one
    /// leaf; a `ROW` is the sum of its fields; `ARRAY` recurses into its
    /// element; `MAP` has a key leaf subtree and a value leaf subtree. This is
    /// the quantity nested column pruning (§V.D) reduces.
    pub fn leaf_count(&self) -> usize {
        match self {
            DataType::Row(fields) => fields.iter().map(|f| f.data_type.leaf_count()).sum(),
            DataType::Array(elem) => elem.leaf_count(),
            DataType::Map(k, v) => k.leaf_count() + v.leaf_count(),
            _ => 1,
        }
    }

    /// Maximum struct/array/map nesting depth (a scalar has depth 0).
    pub fn nesting_depth(&self) -> usize {
        match self {
            DataType::Row(fields) => {
                1 + fields.iter().map(|f| f.data_type.nesting_depth()).max().unwrap_or(0)
            }
            DataType::Array(elem) => 1 + elem.nesting_depth(),
            DataType::Map(k, v) => 1 + k.nesting_depth().max(v.nesting_depth()),
            _ => 0,
        }
    }

    /// Resolve a dotted dereference path (e.g. `["city_id"]` against the type
    /// of `base`) to the field's type. Used by the analyzer for
    /// `base.city_id`-style expressions and by nested column pruning.
    pub fn resolve_path(&self, path: &[&str]) -> Result<&DataType> {
        if path.is_empty() {
            return Ok(self);
        }
        match self {
            DataType::Row(fields) => {
                let field = fields.iter().find(|f| f.name == path[0]).ok_or_else(|| {
                    PrestoError::Analysis(format!("row type has no field '{}'", path[0]))
                })?;
                field.data_type.resolve_path(&path[1..])
            }
            other => Err(PrestoError::Analysis(format!(
                "cannot dereference field '{}' of non-row type {other}",
                path[0]
            ))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Boolean => write!(f, "boolean"),
            DataType::Bigint => write!(f, "bigint"),
            DataType::Integer => write!(f, "integer"),
            DataType::Double => write!(f, "double"),
            DataType::Varchar => write!(f, "varchar"),
            DataType::Date => write!(f, "date"),
            DataType::Timestamp => write!(f, "timestamp"),
            DataType::Array(e) => write!(f, "array({e})"),
            DataType::Map(k, v) => write!(f, "map({k}, {v})"),
            DataType::Row(fields) => {
                write!(f, "row(")?;
                for (i, field) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", field.name, field.data_type)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An ordered list of named, typed columns: the schema of a table, a page
/// stream, or a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields. Duplicate column names are rejected.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(PrestoError::Analysis(format!("duplicate column name '{}'", f.name)));
            }
        }
        Ok(Schema { fields })
    }

    /// An empty schema.
    pub fn empty() -> Self {
        Schema { fields: Vec::new() }
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of top-level columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Look up a column index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Get a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Get a field by index.
    pub fn field_at(&self, index: usize) -> &Field {
        &self.fields[index]
    }

    /// Project a subset of columns by name, preserving the requested order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            let field = self
                .field(name)
                .ok_or_else(|| PrestoError::Analysis(format!("column '{name}' not found")))?;
            fields.push(field.clone());
        }
        Schema::new(fields)
    }

    /// Total number of leaf columns across all top-level columns.
    pub fn leaf_count(&self) -> usize {
        self.fields.iter().map(|f| f.data_type.leaf_count()).sum()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip_base_type() -> DataType {
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
        ])
    }

    #[test]
    fn leaf_count_counts_shredded_columns() {
        assert_eq!(DataType::Bigint.leaf_count(), 1);
        assert_eq!(trip_base_type().leaf_count(), 4);
        assert_eq!(DataType::map(DataType::Varchar, DataType::Double).leaf_count(), 2);
    }

    #[test]
    fn nesting_depth_matches_paper_style_schemas() {
        assert_eq!(DataType::Bigint.nesting_depth(), 0);
        assert_eq!(trip_base_type().nesting_depth(), 3);
    }

    #[test]
    fn resolve_path_walks_struct_fields() {
        let t = trip_base_type();
        assert_eq!(t.resolve_path(&["city_id"]).unwrap(), &DataType::Bigint);
        assert_eq!(t.resolve_path(&["status", "code"]).unwrap(), &DataType::Integer);
        assert!(t.resolve_path(&["nope"]).is_err());
        assert!(DataType::Bigint.resolve_path(&["x"]).is_err());
    }

    #[test]
    fn schema_rejects_duplicates_and_projects() {
        let schema = Schema::new(vec![
            Field::new("datestr", DataType::Varchar),
            Field::new("base", trip_base_type()),
        ])
        .unwrap();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.leaf_count(), 5);
        assert_eq!(schema.index_of("base"), Some(1));
        let projected = schema.project(&["base"]).unwrap();
        assert_eq!(projected.len(), 1);
        assert!(schema.project(&["missing"]).is_err());

        let dup =
            Schema::new(vec![Field::new("a", DataType::Bigint), Field::new("a", DataType::Double)]);
        assert!(dup.is_err());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            DataType::map(DataType::Varchar, DataType::array(DataType::Bigint)).to_string(),
            "map(varchar, array(bigint))"
        );
    }
}
