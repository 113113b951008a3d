//! The new reader keeps dictionary-encoded chunks encoded. A leaf whose
//! chunk has a dictionary page comes out as a `Block::Dictionary` over the
//! page's entries — never nested in another, with one NULL entry appended
//! exactly when one of its slots is NULL — wherever the leaf sits: at the top
//! level, in a struct, as array elements, as map keys. A plain chunk comes
//! out plain. This is the differential that holds those blocks to the legacy
//! reader and to `Block::from_values`: whole columns, pruned paths, a leaf
//! projected twice, predicates that drop rows (evaluated once per entry),
//! and the schema-evolution path that reshapes a struct.

mod common;

use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_parquet::metadata::{ColumnChunkMeta, Encoding, FileMetadata};
use presto_parquet::reader::{read_metadata, BytesSource};
use presto_parquet::reader_new::{self, ProjectedColumn, ReadOptions};
use presto_parquet::{
    reader_old, Codec, ColumnPredicate, FilePredicate, FileWriter, ScalarPredicate, WriterMode,
    WriterProperties,
};

const GROUP_ROWS: usize = 60;
const ROWS: usize = 3 * GROUP_ROWS;

fn trip_type() -> DataType {
    DataType::row(vec![
        Field::new("status", DataType::Varchar),
        Field::new("city", DataType::Bigint),
        Field::new("rating", DataType::Integer),
    ])
}

/// Low-NDV VARCHAR, BIGINT and INTEGER leaves at the top level (`code`,
/// `kind`, `level`), in a struct (`trip`), as array elements (`tags`,
/// `scores`) and as map keys (`attrs`); and three leaves with too many
/// distinct values for a dictionary (`attrs`' values, `serial`, `label`).
fn schema() -> Schema {
    Schema::new(vec![
        Field::new("code", DataType::Varchar),
        Field::new("kind", DataType::Bigint),
        Field::new("level", DataType::Integer),
        Field::new("trip", trip_type()),
        Field::new("tags", DataType::array(DataType::Varchar)),
        Field::new("scores", DataType::array(DataType::Integer)),
        Field::new("attrs", DataType::map(DataType::Varchar, DataType::Bigint)),
        Field::new("serial", DataType::Bigint),
        Field::new("label", DataType::Varchar),
    ])
    .unwrap()
}

/// The file's leaves, depth first, and whether every chunk of each is
/// dictionary-encoded.
const LEAVES: [(&str, bool); 12] = [
    ("code", true),
    ("kind", true),
    ("level", true),
    ("trip.status", true),
    ("trip.city", true),
    ("trip.rating", true),
    ("tags.element", true),
    ("scores.element", true),
    ("attrs.key", true),
    ("attrs.value", false),
    ("serial", false),
    ("label", false),
];

/// Row `i`: NULLs at every level — a NULL leaf, a NULL struct, NULL and
/// empty lists and maps, NULL elements — and values whose first-seen order
/// is not their order, so no row's dictionary id is its position.
fn row(i: usize) -> Vec<Value> {
    let pick = |table: &[&str], k: usize| Value::Varchar(table[k % table.len()].into());
    let trip = match i % 11 {
        4 => Value::Null,
        _ => Value::Row(vec![
            if i % 6 == 1 { Value::Null } else { pick(&["done", "open", "late"], i) },
            Value::Bigint((i / 20) as i64),
            Value::Integer((i * 7 % 5) as i32 + 1),
        ]),
    };
    let tags = match i % 6 {
        0 => Value::Null,
        1 => Value::Array(vec![]),
        _ => Value::Array(
            (0..i % 4)
                .map(|j| {
                    if (i + j).is_multiple_of(5) {
                        Value::Null
                    } else {
                        pick(&["a", "b", "c"], i + j)
                    }
                })
                .collect(),
        ),
    };
    let attrs = match i % 9 {
        8 => Value::Null,
        _ => Value::Map(
            (0..i % 3)
                .map(|j| (pick(&["x", "y", "z", "w"], i + j), Value::Bigint((i * 10 + j) as i64)))
                .collect(),
        ),
    };
    vec![
        if i % 7 == 3 { Value::Null } else { pick(&["sfo", "nyc", "lax", "sea", "bos"], i * 3) },
        Value::Bigint([100, -7, 42, 9][(i / 2 + i) % 4]),
        if i.is_multiple_of(5) { Value::Null } else { Value::Integer((i % 4) as i32 - 1) },
        trip,
        tags,
        Value::Array((0..i % 3).map(|j| Value::Integer(((i + j) % 4) as i32)).collect()),
        attrs,
        Value::Bigint(i as i64 * 7919),
        Value::Varchar(format!("row-{i}")),
    ]
}

fn rows() -> Vec<Vec<Value>> {
    (0..ROWS).map(row).collect()
}

fn file() -> Vec<u8> {
    let rows = rows();
    let blocks = (schema().fields().iter().enumerate())
        .map(|(c, f)| {
            let column: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            Block::from_values(&f.data_type, &column).unwrap()
        })
        .collect();
    let props = WriterProperties { codec: Codec::Fast, row_group_rows: GROUP_ROWS };
    let mut writer = FileWriter::new(schema(), props, WriterMode::Native).unwrap();
    writer.write_page(&Page::new(blocks).unwrap()).unwrap();
    writer.finish().unwrap()
}

fn footer(source: &BytesSource) -> FileMetadata {
    let meta = read_metadata(source).unwrap();
    assert_eq!(meta.row_groups.len(), ROWS / GROUP_ROWS);
    for rg in &meta.row_groups {
        for (chunk, (leaf, encoded)) in rg.columns.iter().zip(LEAVES) {
            assert_eq!(chunk.encoding == Encoding::Dictionary, encoded, "{leaf}: the fixture");
        }
    }
    meta
}

/// The leaf blocks under `block`, depth first: the order of the file's leaves.
fn leaf_blocks<'a>(block: &'a Block, out: &mut Vec<&'a Block>) {
    match block {
        Block::Row { children, .. } => children.iter().for_each(|c| leaf_blocks(c, out)),
        Block::Array { elements, .. } => leaf_blocks(elements, out),
        Block::Map { keys, values, .. } => {
            leaf_blocks(keys, out);
            leaf_blocks(values, out);
        }
        leaf => out.push(leaf),
    }
}

/// A dictionary chunk's leaf block is one non-nested `Block::Dictionary`
/// whose entries are the page's, plus one NULL entry after them when a slot
/// is NULL — exactly then when `exact`, at least then after a selection
/// (the entry stays when the rows that used it are dropped). A plain
/// chunk's is plain.
fn assert_encoding(leaf: &Block, chunk: &ColumnChunkMeta, exact: bool, what: &str) {
    let count = chunk.dictionary_count as usize;
    match (chunk.encoding, leaf) {
        (Encoding::Dictionary, Block::Dictionary { dictionary, .. }) => {
            assert!(!matches!(**dictionary, Block::Dictionary { .. }), "{what}: nested");
            assert!((0..count).all(|e| !dictionary.is_null(e)), "{what}: a NULL page entry");
            let null_entry = dictionary.len() == count + 1 && dictionary.is_null(count);
            assert!(dictionary.len() == count || null_entry, "{what}: {dictionary:?}");
            let has_null = (0..leaf.len()).any(|i| leaf.is_null(i));
            if has_null || exact {
                assert_eq!(null_entry, has_null, "{what}: the NULL entry");
            }
        }
        (Encoding::Plain, plain) => {
            assert!(!matches!(plain, Block::Dictionary { .. }), "{what}: a plain chunk encoded")
        }
        (encoding, block) => panic!("{what}: a {encoding:?} chunk came out as {block:?}"),
    }
}

/// What the column `column` narrowed to the struct path `path` holds in
/// `rows`, and its type.
fn narrowed(rows: &[Vec<Value>], column: usize, path: &[&str]) -> (DataType, Vec<Value>) {
    let mut dt = schema().field_at(column).data_type.clone();
    let mut values: Vec<Value> = rows.iter().map(|r| r[column].clone()).collect();
    for segment in path {
        let DataType::Row(fields) = &dt else { panic!("{segment} is not under a struct") };
        let at = fields.iter().position(|f| f.name == *segment).unwrap();
        for v in &mut values {
            if let Value::Row(items) = v {
                *v = items.swap_remove(at);
            }
        }
        dt = fields[at].data_type.clone();
    }
    (dt, values)
}

fn projection(spec: &str) -> ProjectedColumn {
    let mut parts = spec.split('.');
    let column = parts.next().unwrap();
    ProjectedColumn::path(column, &parts.collect::<Vec<_>>())
}

/// Hold page `page` (of the rows `group` kept) of a read of `specs` to the
/// values those rows hold: each block's values, and its dictionaries decoded,
/// the block `Block::from_values` builds of them. Returns each projection's
/// leaf blocks.
fn assert_values<'p>(page: &'p Page, group: &[Vec<Value>], specs: &[&str]) -> Vec<Vec<&'p Block>> {
    assert_eq!(page.positions(), group.len());
    let schema = schema();
    let names: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
    specs
        .iter()
        .enumerate()
        .map(|(c, spec)| {
            let path: Vec<&str> = spec.split('.').collect();
            let column = names.iter().position(|n| *n == path[0]).unwrap();
            let (dt, expected) = narrowed(group, column, &path[1..]);
            let block = page.block(c);
            assert_eq!(block.to_values(), expected, "{spec}");
            assert_eq!(
                common::decoded(block),
                Block::from_values(&dt, &expected).unwrap(),
                "{spec}"
            );
            let mut leaves = Vec::new();
            leaf_blocks(block, &mut leaves);
            leaves
        })
        .collect()
}

/// The file's leaf index of each leaf under `spec`.
fn leaf_range(spec: &str) -> std::ops::Range<usize> {
    let under = |leaf: &str| leaf == spec || leaf.starts_with(&format!("{spec}."));
    let first = LEAVES.iter().position(|(leaf, _)| under(leaf)).unwrap();
    first..first + LEAVES[first..].iter().take_while(|(leaf, _)| under(leaf)).count()
}

fn read(source: &BytesSource, options: &ReadOptions) -> Vec<Page> {
    reader_new::read(source, &schema(), options).unwrap().0
}

#[test]
fn dictionary_chunks_leave_the_reader_encoded_at_every_depth() {
    let source = BytesSource::new(file());
    let meta = footer(&source);
    let rows = rows();
    let names: Vec<String> = schema().fields().iter().map(|f| f.name.clone()).collect();
    let specs: Vec<&str> = names.iter().map(String::as_str).collect();
    let (legacy, _) = reader_old::read(&source, &schema(), &names).unwrap();
    let pages = read(&source, &ReadOptions::new(specs.iter().map(|s| projection(s)).collect()));
    assert_eq!(pages.len(), meta.row_groups.len());
    for (g, (page, rg)) in pages.iter().zip(&meta.row_groups).enumerate() {
        let group = &rows[g * GROUP_ROWS..(g + 1) * GROUP_ROWS];
        assert_eq!(page.rows(), legacy[g].rows(), "group {g}: the legacy reader");
        let leaves: Vec<&Block> = assert_values(page, group, &specs).concat();
        assert_eq!(leaves.len(), LEAVES.len());
        for ((leaf, chunk), (name, _)) in leaves.iter().zip(&rg.columns).zip(LEAVES) {
            assert_encoding(leaf, chunk, true, &format!("group {g} {name}"));
        }
    }
}

#[test]
fn pruned_paths_and_a_leaf_projected_twice_stay_encoded() {
    let source = BytesSource::new(file());
    let meta = footer(&source);
    let rows = rows();
    let specs = ["trip.status", "trip", "trip.status", "tags", "trip.rating", "tags", "attrs"];
    let pages = read(&source, &ReadOptions::new(specs.iter().map(|s| projection(s)).collect()));
    for (g, (page, rg)) in pages.iter().zip(&meta.row_groups).enumerate() {
        let group = &rows[g * GROUP_ROWS..(g + 1) * GROUP_ROWS];
        let leaves = assert_values(page, group, &specs);
        for (spec, leaves) in specs.iter().zip(leaves) {
            for (leaf, at) in leaves.iter().zip(leaf_range(spec)) {
                let what = format!("group {g} {spec} leaf {}", LEAVES[at].0);
                assert_encoding(leaf, &rg.columns[at], true, &what);
            }
        }
        // the copy a leaf read twice hands its first reader is the same block
        assert_eq!(page.block(0), page.block(2));
        assert_eq!(page.block(3), page.block(5));
    }
}

/// `Eq` / `In` / `Range` on dictionary leaves — nullable VARCHAR at the top,
/// BIGINT at the top, INTEGER in a struct that may be NULL — alone and
/// together, with every row group kept by its dictionary. The flags are
/// gathered through the ids; the rows that survive are the ones the
/// predicate holds on.
#[test]
fn predicates_that_drop_rows_are_evaluated_once_per_entry() {
    let source = BytesSource::new(file());
    let meta = footer(&source);
    let rows = rows();
    let text = |s: &str| Value::Varchar(s.into());
    let code_in = ("code", 0, ScalarPredicate::In(vec![text("nyc"), text("sea"), text("bos")]));
    let kind_eq = ("kind", 1, ScalarPredicate::Eq(Value::Bigint(42)));
    let rating = (
        "trip.rating",
        3,
        ScalarPredicate::Range { min: Some(Value::Integer(2)), max: Some(Value::Integer(4)) },
    );
    let status = ("trip.status", 3, ScalarPredicate::Eq(text("late")));
    let conjunct_sets = [
        vec![code_in.clone()],
        vec![kind_eq.clone()],
        vec![rating.clone()],
        vec![status.clone()],
        vec![code_in, kind_eq],
        vec![rating, status],
    ];
    let names: Vec<String> = schema().fields().iter().map(|f| f.name.clone()).collect();
    let specs: Vec<&str> = names.iter().map(String::as_str).collect();
    for conjuncts in &conjunct_sets {
        // the leaf value a conjunct tests in a row; a NULL struct's fields are NULL
        let leaf_value = |row: &[Value], path: &str, column: usize| match (&row[column], path) {
            (Value::Row(items), "trip.rating") => items[2].clone(),
            (Value::Row(items), "trip.status") => items[0].clone(),
            (Value::Null, _) => Value::Null,
            (v, _) => v.clone(),
        };
        let keeps = |row: &Vec<Value>| {
            conjuncts.iter().all(|(path, column, p)| p.matches(&leaf_value(row, path, *column)))
        };
        let predicate = FilePredicate {
            conjuncts: conjuncts
                .iter()
                .map(|(path, _, p)| ColumnPredicate {
                    leaf_path: path.to_string(),
                    predicate: p.clone(),
                })
                .collect(),
        };
        let options = ReadOptions::new(specs.iter().map(|s| projection(s)).collect())
            .with_predicate(predicate);
        let what = format!("{conjuncts:?}");
        let mut pages = read(&source, &options).into_iter();
        let mut kept = 0;
        for (g, rg) in meta.row_groups.iter().enumerate() {
            let all = &rows[g * GROUP_ROWS..(g + 1) * GROUP_ROWS];
            let group: Vec<Vec<Value>> = all.iter().filter(|r| keeps(r)).cloned().collect();
            if group.is_empty() {
                continue; // a group nothing matches yields no page
            }
            kept += group.len();
            let page = pages.next().unwrap_or_else(|| panic!("{what}: group {g} missing"));
            let leaves: Vec<&Block> = assert_values(&page, &group, &specs).concat();
            for ((leaf, chunk), (name, _)) in leaves.iter().zip(&rg.columns).zip(LEAVES) {
                assert_encoding(leaf, chunk, false, &format!("{what}: group {g} {name}"));
            }
        }
        assert!(pages.next().is_none(), "{what}: a page for a group nothing matches");
        assert!(0 < kept && kept < ROWS, "{what}: {kept} rows kept");
    }
}

/// A table whose struct lost a field, reordered the rest and gained one,
/// and which gained a top-level column: the reshaped struct goes through
/// the values (as before), and both readers agree on them.
#[test]
fn schema_evolution_reshapes_an_encoded_struct() {
    let source = BytesSource::new(file());
    let evolved_trip = DataType::row(vec![
        Field::new("rating", DataType::Integer),
        Field::new("status", DataType::Varchar),
        Field::new("fee", DataType::Double),
    ]);
    let mut fields = schema().fields().to_vec();
    fields[3] = Field::new("trip", evolved_trip.clone());
    fields.push(Field::new("added", DataType::Bigint));
    let table = Schema::new(fields).unwrap();
    let columns = ["code".to_string(), "trip".into(), "added".into()];
    let options = ReadOptions::new(columns.iter().map(ProjectedColumn::whole).collect());
    let (pages, _) = reader_new::read(&source, &table, &options).unwrap();
    let (legacy, _) = reader_old::read(&source, &table, &columns).unwrap();
    let rows = rows();
    for (g, (page, old)) in pages.iter().zip(&legacy).enumerate() {
        assert_eq!(page.rows(), old.rows(), "group {g}");
        let trips: Vec<Value> = rows[g * GROUP_ROWS..(g + 1) * GROUP_ROWS]
            .iter()
            .map(|r| match &r[3] {
                Value::Row(items) => {
                    Value::Row(vec![items[2].clone(), items[0].clone(), Value::Null])
                }
                other => other.clone(),
            })
            .collect();
        assert_eq!(page.block(1), &Block::from_values(&evolved_trip, &trips).unwrap());
        assert!(
            matches!(page.block(0), Block::Dictionary { .. }),
            "an unchanged column stays encoded"
        );
        let added = page.block(2);
        assert_eq!((0..added.len()).filter(|&i| added.is_null(i)).count(), GROUP_ROWS);
    }
}
