//! The **new** Parquet reader (§V.D–§V.I), with every optimization the paper
//! describes always on:
//!
//! - **nested column pruning** (Fig 5): only the leaves under each projected
//!   path are read;
//! - **columnar reads** (Fig 6): blocks of every shape — scalars, structs,
//!   arrays, maps, nested to any depth — are built directly from the level
//!   streams ([`crate::columnar::build_block`]), never through records, and
//!   each decoded chunk's value buffer moves into its block;
//! - **predicate pushdown** (Fig 7): row groups whose footer min/max cannot
//!   match are skipped without touching data pages;
//! - **dictionary pushdown** (Fig 8): when stats are inconclusive, the
//!   (small) dictionary page is probed and the group skipped if no
//!   dictionary value matches;
//! - **lazy reads** (Fig 9): predicate columns decode first; projected
//!   columns are only decoded for row groups with at least one match;
//! - **vectorized reader** (§V.I): level runs decoded once and kept as runs,
//!   bulk fixed-width value copies, a probed dictionary page reused by the
//!   decode, and dictionary-encoded chunks never expanded: each becomes a
//!   [`Block::Dictionary`] over its page's entries, at any depth (one NULL
//!   entry appended when a slot is NULL), and a pushed-down predicate on
//!   one is evaluated once per entry.

use presto_common::{selected_rows, Block, DataType, Page, PrestoError, Result, Schema};

use crate::columnar::build_block;
use crate::predicate::FilePredicate;
use crate::reader::{chunk_for, decode_chunk, read_dictionary, read_metadata, ChunkSource};
use crate::schema::{check_evolution, FlatSchema, SchemaNode};
use crate::shred::{LeafData, LeafValues};

/// One projected output column: a top-level column, optionally narrowed to a
/// struct sub-path — the unit of nested column pruning. Projecting
/// `("base", ["city_id"])` reads exactly one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectedColumn {
    /// Top-level column name.
    pub column: String,
    /// Struct field path below it (empty = whole column).
    pub sub_path: Vec<String>,
}

impl ProjectedColumn {
    /// Project a whole top-level column.
    pub fn whole(column: impl Into<String>) -> ProjectedColumn {
        ProjectedColumn { column: column.into(), sub_path: Vec::new() }
    }

    /// Project a nested path, e.g. `ProjectedColumn::path("base", &["city_id"])`.
    pub fn path(column: impl Into<String>, sub_path: &[&str]) -> ProjectedColumn {
        ProjectedColumn {
            column: column.into(),
            sub_path: sub_path.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Dotted output name (`base.city_id`).
    pub fn dotted(&self) -> String {
        let mut s = self.column.clone();
        for p in &self.sub_path {
            s.push('.');
            s.push_str(p);
        }
        s
    }
}

/// What to read: the projected paths and the predicate pushed into the scan.
#[derive(Debug, Clone)]
pub struct ReadOptions {
    /// Output columns (pruned paths).
    pub projections: Vec<ProjectedColumn>,
    /// Conjunctive predicate over leaf paths.
    pub predicate: FilePredicate,
}

impl ReadOptions {
    /// Read `projections`, no predicate.
    pub fn new(projections: Vec<ProjectedColumn>) -> ReadOptions {
        ReadOptions { projections, predicate: FilePredicate::default() }
    }

    /// Attach a predicate.
    pub fn with_predicate(mut self, predicate: FilePredicate) -> ReadOptions {
        self.predicate = predicate;
        self
    }
}

/// Observability counters for experiments and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NewReadStats {
    /// Row groups in the file.
    pub row_groups_total: usize,
    /// Skipped via min/max statistics.
    pub skipped_by_stats: usize,
    /// Skipped via dictionary probing.
    pub skipped_by_dictionary: usize,
    /// Skipped after the predicate matched zero rows (lazy reads).
    pub skipped_by_lazy: usize,
    /// Leaf chunks decoded.
    pub leaves_decoded: usize,
    /// Leaf chunks the legacy reader would have decoded for the same query
    /// (whole top-level columns, every row group).
    pub leaves_without_pruning: usize,
}

/// The schema of the pages produced for a projection list.
pub fn output_schema(table_schema: &Schema, projections: &[ProjectedColumn]) -> Result<Schema> {
    let mut fields = Vec::with_capacity(projections.len());
    for p in projections {
        let field = table_schema
            .field(&p.column)
            .ok_or_else(|| PrestoError::Analysis(format!("no column '{}'", p.column)))?;
        let sub: Vec<&str> = p.sub_path.iter().map(String::as_str).collect();
        let dt = field.data_type.resolve_path(&sub)?.clone();
        fields.push(presto_common::Field::new(p.dotted(), dt));
    }
    Schema::new(fields)
}

/// Read a file with the new reader. Returns one [`Page`] per surviving row
/// group (filtered by the predicate) plus counters.
pub fn read(
    source: &dyn ChunkSource,
    table_schema: &Schema,
    options: &ReadOptions,
) -> Result<(Vec<Page>, NewReadStats)> {
    let meta = read_metadata(source)?;
    let file_flat = FlatSchema::new(meta.schema.clone())?;
    let mut stats = NewReadStats { row_groups_total: meta.row_groups.len(), ..Default::default() };

    // Resolve each projection against the file schema (schema evolution).
    enum Resolved {
        /// Node present in the file; may still need value-level adaptation.
        Node { node: SchemaNode, table_type: DataType, file_type: DataType },
        /// Added after this file was written → NULL column.
        Missing { table_type: DataType },
    }
    let mut resolved = Vec::with_capacity(options.projections.len());
    for p in &options.projections {
        let table_field = table_schema
            .field(&p.column)
            .ok_or_else(|| PrestoError::Analysis(format!("no column '{}'", p.column)))?;
        let sub: Vec<&str> = p.sub_path.iter().map(String::as_str).collect();
        let table_type = table_field.data_type.resolve_path(&sub)?.clone();
        match meta.schema.index_of(&p.column) {
            None => resolved.push(Resolved::Missing { table_type }),
            Some(file_col) => {
                let file_field_type = &meta.schema.field_at(file_col).data_type;
                // A *missing* sub-field reads as NULL (§V.A field addition);
                // a present path whose shape changed is a rejected type
                // change — the two must not be conflated, or retypes would
                // silently read as NULL instead of erroring.
                match resolve_file_subpath(file_field_type, &sub, &p.dotted())? {
                    None => resolved.push(Resolved::Missing { table_type }),
                    Some(file_type) => {
                        check_evolution(&p.dotted(), &table_type, file_type)?;
                        let node = file_flat.roots[file_col].descend(&sub)?.clone();
                        resolved.push(Resolved::Node {
                            node,
                            table_type,
                            file_type: file_type.clone(),
                        });
                    }
                }
            }
        }
    }

    // Bind predicate conjuncts to file leaves. A predicate on a column this
    // file doesn't have can never match (its values are all NULL): the whole
    // file is skipped.
    let mut predicate_leaves: Vec<(usize, &crate::predicate::ColumnPredicate)> = Vec::new();
    for conjunct in &options.predicate.conjuncts {
        match file_flat.leaf_by_path(&conjunct.leaf_path) {
            Some(leaf_idx) => {
                if file_flat.leaves[leaf_idx].max_rep != 0 {
                    return Err(PrestoError::NotSupported(format!(
                        "predicate on repeated column '{}'",
                        conjunct.leaf_path
                    )));
                }
                predicate_leaves.push((leaf_idx, conjunct));
            }
            None => {
                stats.skipped_by_stats += meta.row_groups.len();
                return Ok((Vec::new(), stats));
            }
        }
    }

    // The leaves under each projection, and for each leaf the last
    // projection that reads it: that one takes the decoded chunk by value,
    // an earlier one (the same column projected twice) works on a copy.
    let projected: Vec<Vec<usize>> = resolved
        .iter()
        .map(|r| match r {
            Resolved::Node { node, .. } => node.leaf_indices(),
            Resolved::Missing { .. } => Vec::new(),
        })
        .collect();
    let mut last_reader = vec![usize::MAX; file_flat.leaves.len()];
    for (slot, leaves) in projected.iter().enumerate() {
        for &leaf_idx in leaves {
            last_reader[leaf_idx] = slot;
        }
    }
    // What the legacy reader would decode: all leaves of each projected
    // top-level column (for the pruning counter).
    for p in &options.projections {
        if let Some(file_col) = meta.schema.index_of(&p.column) {
            stats.leaves_without_pruning +=
                file_flat.roots[file_col].leaf_indices().len() * meta.row_groups.len();
        }
    }

    let mut pages = Vec::new();
    // decoded chunks of the current row group, by leaf; all taken by its end
    let mut decoded: Vec<Option<LeafData>> = file_flat.leaves.iter().map(|_| None).collect();
    'groups: for rg in &meta.row_groups {
        let rows = usize::try_from(rg.num_rows)
            .map_err(|_| PrestoError::Format("row group exceeds the address space".into()))?;
        // ---- Fig 7: statistics-based row group skipping
        for (leaf_idx, conjunct) in &predicate_leaves {
            let chunk = chunk_for(rg, *leaf_idx)?;
            if !conjunct.predicate.maybe_matches_stats(&chunk.stats, chunk.num_triplets) {
                stats.skipped_by_stats += 1;
                continue 'groups;
            }
        }
        // ---- Fig 8: dictionary-based row group skipping; a dictionary that
        // was read and did not rule the group out is kept for the decode
        let mut probed: Vec<Option<LeafValues>> = predicate_leaves.iter().map(|_| None).collect();
        for ((leaf_idx, conjunct), kept) in predicate_leaves.iter().zip(&mut probed) {
            let leaf = &file_flat.leaves[*leaf_idx];
            if let Some(dict) = read_dictionary(source, chunk_for(rg, *leaf_idx)?, leaf)? {
                if !conjunct.predicate.matches_any_in_dictionary(&dict, &leaf.scalar_type) {
                    stats.skipped_by_dictionary += 1;
                    continue 'groups;
                }
                *kept = Some(dict);
            }
        }

        // ---- decode predicate leaves and build the selection mask
        let mut mask: Option<Vec<bool>> = None;
        for ((leaf_idx, conjunct), dict) in predicate_leaves.iter().zip(probed) {
            let data = match decoded[*leaf_idx].take() {
                // a second conjunct on the same leaf
                Some(data) => data,
                None => {
                    stats.leaves_decoded += 1;
                    let leaf = &file_flat.leaves[*leaf_idx];
                    decode_chunk(source, chunk_for(rg, *leaf_idx)?, leaf, true, dict)?
                }
            };
            if data.len() != rows {
                return Err(PrestoError::Format(format!(
                    "predicate chunk has {} entries for {rows} rows",
                    data.len()
                )));
            }
            let flags = conjunct.predicate.evaluate_leaf(&data)?;
            match &mut mask {
                None => mask = Some(flags),
                Some(mask) => mask.iter_mut().zip(flags).for_each(|(keep, flag)| *keep &= flag),
            }
            decoded[*leaf_idx] = Some(data);
        }
        // the surviving rows, when the predicate dropped any
        let selection: Option<Vec<usize>> =
            mask.map(|m| selected_rows(&m)).filter(|kept| kept.len() < rows);

        // ---- Fig 9: lazy reads — a group with zero matches never decodes
        // its projected columns.
        if selection.as_ref().is_some_and(Vec::is_empty) {
            stats.skipped_by_lazy += 1;
            decoded.fill_with(|| None);
            continue 'groups;
        }

        // ---- decode the (pruned) projection leaves; a predicate column
        // that is also projected is already there
        for &leaf_idx in projected.iter().flatten() {
            if decoded[leaf_idx].is_none() {
                let leaf = &file_flat.leaves[leaf_idx];
                let chunk = chunk_for(rg, leaf_idx)?;
                decoded[leaf_idx] = Some(decode_chunk(source, chunk, leaf, true, None)?);
                stats.leaves_decoded += 1;
            }
        }

        // ---- build blocks directly (columnar reads), keep the selection
        let kept = selection.as_ref().map_or(rows, Vec::len);
        let mut blocks = Vec::with_capacity(resolved.len());
        for (slot, r) in resolved.iter().enumerate() {
            match r {
                Resolved::Missing { table_type } => {
                    blocks.push(Block::nulls(table_type, kept));
                }
                Resolved::Node { node, table_type, file_type } => {
                    let read_again: Vec<(usize, Option<LeafData>)> = projected[slot]
                        .iter()
                        .filter(|&&leaf_idx| last_reader[leaf_idx] != slot)
                        .map(|&leaf_idx| (leaf_idx, decoded[leaf_idx].clone()))
                        .collect();
                    let block = build_block(node, &mut decoded)?;
                    for (leaf_idx, data) in read_again {
                        decoded[leaf_idx] = data;
                    }
                    if block.len() != rows {
                        return Err(PrestoError::Format(format!(
                            "column '{}' has {} values for {rows} rows",
                            options.projections[slot].dotted(),
                            block.len()
                        )));
                    }
                    let block = match &selection {
                        Some(keep) => block.take(keep),
                        None => block,
                    };
                    blocks.push(adapt_block(block, file_type, table_type)?);
                }
            }
        }
        // a predicate-only chunk was never taken by a block
        decoded.fill_with(|| None);
        pages.push(if blocks.is_empty() { Page::zero_column(kept) } else { Page::new(blocks)? });
    }
    Ok((pages, stats))
}

/// Walk `sub` through the file's type: `Ok(None)` when a segment is absent
/// (schema evolution: added field), an error when a present segment is not a
/// struct (type change, never silently NULL).
fn resolve_file_subpath<'a>(
    file_type: &'a DataType,
    sub: &[&str],
    dotted: &str,
) -> Result<Option<&'a DataType>> {
    let mut current = file_type;
    for segment in sub {
        match current {
            DataType::Row(fields) => match fields.iter().find(|f| f.name == *segment) {
                Some(field) => current = &field.data_type,
                None => return Ok(None),
            },
            other => {
                return Err(PrestoError::SchemaEvolution(format!(
                    "type change on column '{dotted}': file has {other} where the \
                     table expects a struct (type changes are not allowed)"
                )))
            }
        }
    }
    Ok(Some(current))
}

/// Shape a file-typed block into the table type (schema evolution inside
/// structs). The block itself when the types already match.
fn adapt_block(block: Block, file_type: &DataType, table_type: &DataType) -> Result<Block> {
    if file_type == table_type {
        return Ok(block);
    }
    let values: Vec<presto_common::Value> = (0..block.len())
        .map(|i| crate::schema::adapt_value(&block.value(i), file_type, table_type))
        .collect();
    Block::from_values(table_type, &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::ScalarPredicate;
    use crate::reader::BytesSource;
    use crate::writer::{FileWriter, WriterMode, WriterProperties};
    use presto_common::{Field, Value};

    fn trips_schema() -> Schema {
        Schema::new(vec![
            Field::new("datestr", DataType::Varchar),
            Field::new(
                "base",
                DataType::row(vec![
                    Field::new("driver_uuid", DataType::Varchar),
                    Field::new("city_id", DataType::Bigint),
                    Field::new("vehicle_id", DataType::Bigint),
                    Field::new("status", DataType::Varchar),
                ]),
            ),
        ])
        .unwrap()
    }

    /// 4 row groups × 50 rows; city_id is `group_index * 10 + (row % 3)`,
    /// so groups have disjoint city ranges — ideal for stats skipping.
    fn sample_file() -> Vec<u8> {
        let mut w = FileWriter::new(
            trips_schema(),
            WriterProperties { row_group_rows: 50, ..WriterProperties::default() },
            WriterMode::Native,
        )
        .unwrap();
        for g in 0..4i64 {
            let datestr = Block::varchar(&vec!["2017-03-02"; 50]);
            let base = Block::from_values(
                &trips_schema().field_at(1).data_type,
                &(0..50)
                    .map(|i| {
                        Value::Row(vec![
                            Value::Varchar(format!("driver-{g}-{i}")),
                            Value::Bigint(g * 10 + i % 3),
                            Value::Bigint(i),
                            Value::Varchar(if i % 2 == 0 { "done" } else { "open" }.into()),
                        ])
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            w.write_page(&Page::new(vec![datestr, base]).unwrap()).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn nested_column_pruning_reads_only_needed_leaves() {
        let source = BytesSource::new(sample_file());
        let options = ReadOptions::new(vec![ProjectedColumn::path("base", &["city_id"])]);
        let (pages, stats) = read(&source, &trips_schema(), &options).unwrap();
        assert_eq!(pages.iter().map(Page::positions).sum::<usize>(), 200);
        // one leaf per group instead of four
        assert_eq!(stats.leaves_decoded, 4);
        assert_eq!(stats.leaves_without_pruning, 16);
        assert_eq!(pages[0].row(0), vec![Value::Bigint(0)]);
    }

    #[test]
    fn a_leaf_under_several_projections_is_decoded_once() {
        let source = BytesSource::new(sample_file());
        let options = ReadOptions::new(vec![
            ProjectedColumn::path("base", &["city_id"]),
            ProjectedColumn::whole("base"),
            ProjectedColumn::path("base", &["city_id"]),
        ]);
        let (pages, stats) = read(&source, &trips_schema(), &options).unwrap();
        assert_eq!(stats.leaves_decoded, 16, "4 leaves × 4 groups, whatever asks for them");
        for page in &pages {
            assert_eq!(page.block(0), page.block(2));
            let Block::Row { children, .. } = page.block(1) else { panic!("struct") };
            assert_eq!(&children[1], page.block(0));
        }
    }

    #[test]
    fn predicate_pushdown_skips_row_groups_by_stats() {
        let source = BytesSource::new(sample_file());
        // city_id = 12 only exists in group 1 (cities 10..12)
        let options =
            ReadOptions::new(vec![ProjectedColumn::path("base", &["driver_uuid"])]).with_predicate(
                FilePredicate::single("base.city_id", ScalarPredicate::Eq(Value::Bigint(12))),
            );
        let (pages, stats) = read(&source, &trips_schema(), &options).unwrap();
        assert_eq!(stats.skipped_by_stats, 3);
        let rows: usize = pages.iter().map(Page::positions).sum();
        // group 1 rows with i % 3 == 2 → 16 rows
        assert_eq!(rows, 16);
        // every surviving row is from group 1
        for p in &pages {
            for i in 0..p.positions() {
                assert!(p.row(i)[0].as_str().unwrap().starts_with("driver-1-"));
            }
        }
    }

    #[test]
    fn dictionary_pushdown_skips_when_stats_inconclusive() {
        // status column has dictionary {done, open}; search for "missing":
        // stats (min=done, max=open) contain "missing" lexicographically, so
        // stats alone cannot skip — the dictionary can.
        let source = BytesSource::new(sample_file());
        let options = ReadOptions::new(vec![ProjectedColumn::path("base", &["city_id"])])
            .with_predicate(FilePredicate::single(
                "base.status",
                ScalarPredicate::Eq(Value::Varchar("missing".into())),
            ));
        let (pages, stats) = read(&source, &trips_schema(), &options).unwrap();
        assert!(pages.is_empty());
        assert_eq!(stats.skipped_by_stats, 0);
        assert_eq!(stats.skipped_by_dictionary, 4);
        assert_eq!(stats.skipped_by_lazy, 0);
        assert_eq!(stats.leaves_decoded, 0, "no data page should be touched");
    }

    #[test]
    fn lazy_reads_skip_projection_decoding_on_no_match() {
        // driver_uuid has 50 distinct values a group, so no dictionary; each
        // value sorts inside one group's min/max ("driver-g-0".."driver-g-9")
        // and none is in the data, so only the decoded predicate rules the
        // groups out
        let source = BytesSource::new(sample_file());
        let absent = (0..4).map(|g| Value::Varchar(format!("driver-{g}-5x"))).collect();
        let options = ReadOptions::new(vec![ProjectedColumn::path("base", &["city_id"])])
            .with_predicate(FilePredicate::single("base.driver_uuid", ScalarPredicate::In(absent)));
        let (pages, stats) = read(&source, &trips_schema(), &options).unwrap();
        assert!(pages.is_empty());
        assert_eq!(stats.skipped_by_stats, 0);
        assert_eq!(stats.skipped_by_dictionary, 0);
        assert_eq!(stats.skipped_by_lazy, 4);
        assert_eq!(stats.leaves_decoded, 4, "driver_uuid only, never city_id");
    }

    #[test]
    fn vectorized_and_scalar_paths_agree() {
        let source = BytesSource::new(sample_file());
        let meta = read_metadata(&source).unwrap();
        let flat = FlatSchema::new(meta.schema.clone()).unwrap();
        assert_eq!(meta.row_groups.len(), 4);
        for rg in &meta.row_groups {
            for (i, leaf) in flat.leaves.iter().enumerate() {
                let chunk = chunk_for(rg, i).unwrap();
                let batched = decode_chunk(&source, chunk, leaf, true, None).unwrap();
                let scalar = decode_chunk(&source, chunk, leaf, false, None).unwrap();
                assert_eq!(batched, scalar, "leaf {i}");
                assert_eq!(batched.len(), 50);
            }
        }
    }

    #[test]
    fn new_reader_matches_legacy_reader_results() {
        let source = BytesSource::new(sample_file());
        let options = ReadOptions::new(vec![
            ProjectedColumn::whole("datestr"),
            ProjectedColumn::whole("base"),
        ]);
        let (new_pages, _) = read(&source, &trips_schema(), &options).unwrap();
        let (old_pages, _) =
            crate::reader_old::read(&source, &trips_schema(), &["datestr".into(), "base".into()])
                .unwrap();
        let new_rows: Vec<_> = new_pages.iter().flat_map(|p| p.rows()).collect();
        let old_rows: Vec<_> = old_pages.iter().flat_map(|p| p.rows()).collect();
        assert_eq!(new_rows, old_rows);
    }

    #[test]
    fn predicate_on_column_missing_from_file_skips_whole_file() {
        let mut evolved_fields = trips_schema().fields().to_vec();
        evolved_fields.push(Field::new("new_col", DataType::Bigint));
        let evolved = Schema::new(evolved_fields).unwrap();
        let source = BytesSource::new(sample_file());
        let options = ReadOptions::new(vec![ProjectedColumn::whole("datestr")]).with_predicate(
            FilePredicate::single("new_col", ScalarPredicate::Eq(Value::Bigint(1))),
        );
        let (pages, _) = read(&source, &evolved, &options).unwrap();
        assert!(pages.is_empty());
    }

    #[test]
    fn zero_projection_count_star_scan() {
        let source = BytesSource::new(sample_file());
        let options = ReadOptions::new(vec![]);
        let (pages, stats) = read(&source, &trips_schema(), &options).unwrap();
        assert_eq!(pages.iter().map(Page::positions).sum::<usize>(), 200);
        assert_eq!(stats.leaves_decoded, 0);
    }
}
