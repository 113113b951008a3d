//! In-memory connector: the simplest record-set provider, used by tests,
//! examples, and as the scan-side workhorse for engine unit tests.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;

use presto_common::block::NullMask;
use presto_common::dictionary::DictionaryBuilder;
use presto_common::ids::SplitId;
use presto_common::sync::{Rank, RwLock};
use presto_common::{selected_rows, Block, DataType, Page, PrestoError, Result, Schema, Value};
use presto_parquet::{ScalarPredicate, TypedPredicate};

use crate::spi::{
    ColumnPath, Connector, ConnectorSplit, PushdownPredicate, ScanCapabilities, ScanHooks,
    ScanRequest, SplitPayload,
};

struct MemoryTable {
    schema: Schema,
    pages: Vec<Page>,
}

type MemoryTables = BTreeMap<(String, String), Arc<MemoryTable>>;

/// In-memory tables organized as `schema.table`. Cloning shares the data.
#[derive(Clone)]
pub struct MemoryConnector {
    tables: Arc<RwLock<MemoryTables>>,
}

impl Default for MemoryConnector {
    fn default() -> MemoryConnector {
        MemoryConnector::new()
    }
}

impl MemoryConnector {
    /// Empty connector.
    pub fn new() -> MemoryConnector {
        MemoryConnector { tables: Arc::new(RwLock::new(Rank::MemoryTables, BTreeMap::new())) }
    }

    /// Create (or replace) a table with data. Each page must hold one block
    /// per schema column, of the column's type (a dictionary over it counts).
    /// A top-level VARCHAR column of a page is stored as one
    /// [`Block::Dictionary`] when [`DictionaryBuilder`]'s rule says its
    /// strings pay: the distinct strings in first-seen order, then one NULL
    /// entry when a row is NULL.
    pub fn create_table(
        &self,
        schema_name: &str,
        table: &str,
        schema: Schema,
        pages: Vec<Page>,
    ) -> Result<()> {
        for p in &pages {
            if p.column_count() != schema.len() {
                return Err(PrestoError::Connector(format!(
                    "page width {} does not match schema width {}",
                    p.column_count(),
                    schema.len()
                )));
            }
            for (block, field) in p.blocks().iter().zip(schema.fields()) {
                let found = block.data_type();
                if found != field.data_type {
                    return Err(PrestoError::Connector(format!(
                        "column '{}' is {}, its block is {found}",
                        field.name, field.data_type
                    )));
                }
            }
        }
        let mut dictionary = DictionaryBuilder::default();
        let mut encode = |page: Page| {
            let blocks = page.into_blocks().into_iter().zip(schema.fields());
            let encoded = blocks.map(|(block, field)| match field.data_type {
                DataType::Varchar => encode_at_rest(&mut dictionary, &block).unwrap_or(block),
                _ => block,
            });
            Page::new(encoded.collect())
        };
        let pages = pages
            .into_iter()
            .map(|page| if page.column_count() == 0 { Ok(page) } else { encode(page) })
            .collect::<Result<Vec<_>>>()?;
        self.tables.write().insert(
            (schema_name.to_string(), table.to_string()),
            Arc::new(MemoryTable { schema, pages }),
        );
        Ok(())
    }

    fn table(&self, schema: &str, table: &str) -> Result<Arc<MemoryTable>> {
        self.tables.read().get(&(schema.to_string(), table.to_string())).cloned().ok_or_else(|| {
            PrestoError::Analysis(format!("table memory.{schema}.{table} does not exist"))
        })
    }
}

/// A plain VARCHAR `block` as one dictionary, when its strings (the
/// non-NULL rows) pass [`DictionaryBuilder`]'s rule: the distinct strings in
/// first-seen order, then one NULL entry when a row is NULL. `None` for any
/// other block, or when the rule says no.
fn encode_at_rest(dictionary: &mut DictionaryBuilder, block: &Block) -> Option<Block> {
    let Block::Varchar { offsets, bytes, nulls } = block else {
        return None;
    };
    let nulls = nulls.as_ref().filter(|mask| mask.contains(&true));
    // the rows holding a string, when some do not
    let present: Option<Vec<usize>> =
        nulls.map(|mask| (0..mask.len()).filter(|&row| !mask[row]).collect());
    if !dictionary.assign_strings(offsets, bytes, present.as_deref()) {
        return None;
    }
    let string = |row: usize| &bytes[offsets[row] as usize..offsets[row + 1] as usize];
    let row = |i: usize| present.as_ref().map_or(i, |rows| rows[i]);
    let (mut entry_offsets, mut entry_bytes) = (vec![0], Vec::new());
    for &first in dictionary.firsts() {
        entry_bytes.extend_from_slice(string(row(first)));
        entry_offsets.push(entry_bytes.len() as u32);
    }
    let (ids, entry_nulls) = match &present {
        None => (dictionary.ids().to_vec(), None),
        Some(rows) => {
            let null = dictionary.firsts().len();
            entry_offsets.push(entry_bytes.len() as u32);
            let mut ids = vec![null as u32; block.len()];
            rows.iter().zip(dictionary.ids()).for_each(|(&row, &id)| ids[row] = id);
            (ids, Some((0..=null).map(|entry| entry == null).collect()))
        }
    };
    let entries = Block::Varchar { offsets: entry_offsets, bytes: entry_bytes, nulls: entry_nulls };
    Some(Block::Dictionary { dictionary: Box::new(entries), ids })
}

impl Connector for MemoryConnector {
    fn name(&self) -> &str {
        "memory"
    }

    fn list_schemas(&self) -> Vec<String> {
        let mut out: Vec<String> = self.tables.read().keys().map(|(s, _)| s.clone()).collect();
        out.dedup();
        out
    }

    fn list_tables(&self, schema: &str) -> Result<Vec<String>> {
        Ok(self.tables.read().keys().filter(|(s, _)| s == schema).map(|(_, t)| t.clone()).collect())
    }

    fn table_schema(&self, schema: &str, table: &str) -> Result<Schema> {
        Ok(self.table(schema, table)?.schema.clone())
    }

    fn capabilities(&self) -> ScanCapabilities {
        ScanCapabilities {
            projection: true,
            nested_pruning: true,
            predicate: true,
            limit: true,
            aggregation: false,
        }
    }

    fn splits(
        &self,
        schema: &str,
        table: &str,
        _request: &ScanRequest,
    ) -> Result<Vec<ConnectorSplit>> {
        let t = self.table(schema, table)?;
        Ok((0..t.pages.len().max(1))
            .map(|chunk| ConnectorSplit {
                id: SplitId(chunk as u64),
                schema: schema.to_string(),
                table: table.to_string(),
                payload: SplitPayload::Memory { chunk },
            })
            .collect())
    }

    fn scan_split(
        &self,
        split: &ConnectorSplit,
        request: &ScanRequest,
        hooks: &ScanHooks,
    ) -> Result<Vec<Page>> {
        let t = self.table(&split.schema, &split.table)?;
        let chunk = match &split.payload {
            SplitPayload::Memory { chunk } => *chunk,
            other => {
                return Err(PrestoError::Connector(format!(
                    "memory connector got foreign split {other:?}"
                )))
            }
        };
        let Some(page) = t.pages.get(chunk) else {
            return Ok(Vec::new());
        };
        hooks.on_page()?;
        Ok(vec![apply_request(&t.schema, page, request)?])
    }
}

/// Apply predicate + projection + limit to a full-schema page — the shared
/// scan path for row-oriented connectors (memory, mysql, tpch, system).
pub(crate) fn apply_request(schema: &Schema, page: &Page, request: &ScanRequest) -> Result<Page> {
    if request.aggregation.is_some() {
        return Err(PrestoError::Connector(
            "this connector does not support aggregation pushdown".into(),
        ));
    }
    scan_page(schema, page, &request.predicate, request.limit, &request.columns)
}

/// The rows of a page a scan keeps.
enum Kept {
    /// The first `n` rows.
    First(usize),
    /// These rows, ascending.
    Rows(Vec<usize>),
}

/// The rows of `page` passing every conjunct, cut at `limit` (an early-out
/// hint), as `columns`. The page is only read: the mask is computed on it
/// in place and nothing but the requested columns is gathered or cloned,
/// so a scan that asks for no column copies no column — it counts the
/// mask, and builds no row ids either.
pub(crate) fn scan_page(
    schema: &Schema,
    page: &Page,
    conjuncts: &[impl Borrow<PushdownPredicate>],
    limit: Option<usize>,
    columns: &[impl Borrow<ColumnPath>],
) -> Result<Page> {
    let limit = limit.unwrap_or(usize::MAX);
    let mask = match conjuncts.is_empty() {
        true => None,
        false => Some(predicate_mask(schema, page, conjuncts)?),
    };
    if columns.is_empty() {
        let passing = |mask: Vec<bool>| mask.iter().filter(|&&keep| keep).count();
        return Ok(Page::zero_column(mask.map_or(page.positions(), passing).min(limit)));
    }
    let kept = match mask {
        None => Kept::First(page.positions().min(limit)),
        Some(mask) => {
            let mut rows = selected_rows(&mask);
            rows.truncate(limit);
            Kept::Rows(rows)
        }
    };
    let mut blocks = Vec::with_capacity(columns.len());
    for col in columns {
        blocks.push(project_column(schema, page, col.borrow(), &kept)?);
    }
    Page::new(blocks)
}

/// `mask[i] &= values[i]` is not NULL and passes `test`.
fn narrow<T: Copy>(mask: &mut [bool], values: &[T], nulls: &NullMask, test: impl Fn(T) -> bool) {
    match nulls {
        None => mask.iter_mut().zip(values).for_each(|(keep, &v)| *keep &= test(v)),
        Some(nulls) => {
            for ((keep, &v), &null) in mask.iter_mut().zip(values).zip(nulls) {
                *keep &= !null & test(v);
            }
        }
    }
}

/// Narrow `mask` to the rows of a `column`-typed `block` matching `pred` in
/// a tight loop over the typed values (a dictionary block: once per entry).
/// Returns `false`, leaving `mask` alone, when `pred` has no typed form.
fn narrow_typed(
    block: &Block,
    column: &DataType,
    pred: &ScalarPredicate,
    mask: &mut [bool],
) -> bool {
    if let Block::Dictionary { dictionary, ids } = block {
        let mut entries = vec![true; dictionary.len()];
        if !narrow_typed(dictionary, column, pred, &mut entries) {
            return false;
        }
        mask.iter_mut().zip(ids).for_each(|(keep, &id)| *keep &= entries[id as usize]);
        return true;
    }
    match (pred.typed(column), block) {
        (
            Some(TypedPredicate::Int(domain)),
            Block::Bigint { values, nulls } | Block::Timestamp { values, nulls },
        ) => narrow(mask, values, nulls, |v| domain.contains(v)),
        (
            Some(TypedPredicate::Int(domain)),
            Block::Integer { values, nulls } | Block::Date { values, nulls },
        ) => narrow(mask, values, nulls, |v| domain.contains(i64::from(v))),
        (Some(TypedPredicate::Double(domain)), Block::Double { values, nulls }) => {
            narrow(mask, values, nulls, |v| domain.contains(v));
        }
        (Some(TypedPredicate::Bytes(domain)), Block::Varchar { offsets, bytes, nulls }) => {
            for (i, keep) in mask.iter_mut().enumerate() {
                *keep = *keep
                    && !nulls.as_ref().is_some_and(|n| n[i])
                    && domain.contains(&bytes[offsets[i] as usize..offsets[i + 1] as usize]);
            }
        }
        _ => return false,
    }
    true
}

/// The rows passing every conjunct. A conjunct on a whole scalar column
/// runs as a typed loop ([`narrow_typed`]); nested paths and literals of
/// another class go through [`ScalarPredicate::matches`] row by row (which
/// is exactly why pushing work *into* columnar connectors matters).
pub(crate) fn predicate_mask(
    schema: &Schema,
    page: &Page,
    conjuncts: &[impl Borrow<PushdownPredicate>],
) -> Result<Vec<bool>> {
    let mut mask = vec![true; page.positions()];
    for conjunct in conjuncts.iter().map(Borrow::borrow) {
        let idx = schema.index_of(&conjunct.target.column).ok_or_else(|| {
            PrestoError::Connector(format!("no column '{}'", conjunct.target.column))
        })?;
        let block = page.block(idx);
        let path = &conjunct.target.path;
        let column_type = &schema.field_at(idx).data_type;
        if path.is_empty() && narrow_typed(block, column_type, &conjunct.predicate, &mut mask) {
            continue;
        }
        for (i, keep) in mask.iter_mut().enumerate().filter(|(_, keep)| **keep) {
            *keep = conjunct.predicate.matches(&extract_path(&block.value(i), column_type, path));
        }
    }
    Ok(mask)
}

/// Build one projected block of the kept rows, navigating nested paths
/// value-by-value.
fn project_column(schema: &Schema, page: &Page, col: &ColumnPath, kept: &Kept) -> Result<Block> {
    let idx = schema
        .index_of(&col.column)
        .ok_or_else(|| PrestoError::Connector(format!("no column '{}'", col.column)))?;
    let block = page.block(idx);
    if col.path.is_empty() {
        return Ok(match kept {
            Kept::First(n) if *n == block.len() => block.clone(),
            Kept::First(n) => block.slice(0, *n),
            Kept::Rows(rows) => block.take(rows),
        });
    }
    let column_type = &schema.field_at(idx).data_type;
    let out_type = col.resolve_type(schema)?;
    let extract = |i: usize| extract_path(&block.value(i), column_type, &col.path);
    let values: Vec<Value> = match kept {
        Kept::First(n) => (0..*n).map(extract).collect(),
        Kept::Rows(rows) => rows.iter().map(|&i| extract(i)).collect(),
    };
    Block::from_values(&out_type, &values)
}

/// Navigate a struct value along field names; `dt` translates names to the
/// positional layout of `Value::Row`.
fn extract_path(v: &Value, dt: &DataType, path: &[String]) -> Value {
    if path.is_empty() {
        return v.clone();
    }
    match (v, dt) {
        (Value::Null, _) => Value::Null,
        (Value::Row(items), DataType::Row(fields)) => {
            match fields.iter().position(|f| f.name == path[0]) {
                Some(i) => extract_path(&items[i], &fields[i].data_type, &path[1..]),
                None => Value::Null,
            }
        }
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::Field;

    fn setup() -> MemoryConnector {
        let connector = MemoryConnector::new();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Bigint),
            Field::new("city", DataType::Varchar),
        ])
        .unwrap();
        let pages = vec![
            Page::new(vec![Block::bigint(vec![1, 2, 3]), Block::varchar(&["sf", "nyc", "sf"])])
                .unwrap(),
            Page::new(vec![Block::bigint(vec![4]), Block::varchar(&["la"])]).unwrap(),
        ];
        connector.create_table("default", "t", schema, pages).unwrap();
        connector
    }

    #[test]
    fn metadata_and_splits() {
        let c = setup();
        assert_eq!(c.list_schemas(), vec!["default"]);
        assert_eq!(c.list_tables("default").unwrap(), vec!["t"]);
        assert_eq!(c.table_schema("default", "t").unwrap().len(), 2);
        let splits = c.splits("default", "t", &ScanRequest::default()).unwrap();
        assert_eq!(splits.len(), 2);
    }

    #[test]
    fn scan_with_predicate_projection_limit() {
        let c = setup();
        let request = ScanRequest {
            columns: vec![ColumnPath::whole("id")],
            predicate: vec![PushdownPredicate {
                target: ColumnPath::whole("city"),
                predicate: ScalarPredicate::Eq(Value::Varchar("sf".into())),
            }],
            limit: Some(1),
            aggregation: None,
        };
        let splits = c.splits("default", "t", &request).unwrap();
        let pages = c.scan_split(&splits[0], &request, &ScanHooks::none()).unwrap();
        assert_eq!(pages[0].positions(), 1); // limit applied
        assert_eq!(pages[0].column_count(), 1); // projection applied
        assert_eq!(pages[0].row(0), vec![Value::Bigint(1)]);
    }

    /// A limit keeps the first `limit` selected rows: below, at and above
    /// the number the predicate selects.
    #[test]
    fn scan_page_limit_keeps_the_first_selected_rows() {
        let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
        let page = Page::new(vec![Block::bigint((0..20).collect())]).unwrap();
        // x % 3 = 0 on a typed path: 0, 3, …, 18 — seven rows
        let conjunct = PushdownPredicate {
            target: ColumnPath::whole("x"),
            predicate: ScalarPredicate::In((0..20).step_by(3).map(Value::Bigint).collect()),
        };
        let selected: Vec<i64> = (0..20).step_by(3).collect();
        for limit in [None, Some(0), Some(1), Some(4), Some(6), Some(7), Some(8), Some(100)] {
            let out =
                scan_page(&schema, &page, &[&conjunct], limit, &[ColumnPath::whole("x")]).unwrap();
            let kept = selected.len().min(limit.unwrap_or(usize::MAX));
            assert_eq!(out.block(0), &Block::bigint(selected[..kept].to_vec()), "{limit:?}");
            let counted = scan_page(&schema, &page, &[&conjunct], limit, &[] as &[ColumnPath]);
            assert_eq!(counted.unwrap().positions(), kept, "{limit:?}");
        }
    }

    #[test]
    fn typed_predicate_mask_is_matches_row_by_row() {
        let nan = f64::NAN;
        let columns: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Bigint, vec![1i64.into(), Value::Null, 5i64.into(), i64::MAX.into()]),
            (DataType::Integer, vec![1i32.into(), 2i32.into(), Value::Null, (-3i32).into()]),
            (
                DataType::Double,
                vec![1.0.into(), nan.into(), Value::Null, (-0.0).into(), 2.5.into()],
            ),
            (DataType::Varchar, vec!["sf".into(), Value::Null, "".into(), "nyc".into()]),
            (DataType::Date, vec![Value::Date(3), Value::Null, Value::Date(-1)]),
            (DataType::Timestamp, vec![Value::Timestamp(3), Value::Timestamp(7), Value::Null]),
            (DataType::Boolean, vec![true.into(), Value::Null, false.into()]),
        ];
        // literals of every class, so each column meets its own and others'
        let literals: Vec<Value> = vec![
            1i64.into(),
            2i32.into(),
            5i64.into(),
            2.5.into(),
            0.0.into(),
            nan.into(),
            "nyc".into(),
            "".into(),
            Value::Date(3),
            Value::Timestamp(7),
            true.into(),
            Value::Null,
        ];
        let mut predicates = vec![ScalarPredicate::Range { min: None, max: None }];
        for a in &literals {
            predicates.push(ScalarPredicate::Eq(a.clone()));
            predicates.push(ScalarPredicate::Range { min: Some(a.clone()), max: None });
            predicates.push(ScalarPredicate::Range { min: None, max: Some(a.clone()) });
            for b in &literals {
                predicates.push(ScalarPredicate::In(vec![a.clone(), b.clone()]));
                predicates
                    .push(ScalarPredicate::Range { min: Some(a.clone()), max: Some(b.clone()) });
            }
        }
        for (data_type, values) in columns {
            let schema = Schema::new(vec![Field::new("c", data_type.clone())]).unwrap();
            let plain = Block::from_values(&data_type, &values).unwrap();
            let ids = (0..values.len() as u32).rev().collect();
            let dict = Block::Dictionary { dictionary: Box::new(plain.clone()), ids };
            for block in [plain, dict] {
                let page = Page::new(vec![block.clone()]).unwrap();
                for predicate in &predicates {
                    let conjunct = PushdownPredicate {
                        target: ColumnPath::whole("c"),
                        predicate: predicate.clone(),
                    };
                    let expected: Vec<bool> =
                        (0..block.len()).map(|i| predicate.matches(&block.value(i))).collect();
                    let mask = predicate_mask(&schema, &page, &[conjunct]).unwrap();
                    assert_eq!(mask, expected, "{data_type} {predicate:?}");
                }
            }
        }
    }

    #[test]
    fn scan_gathers_only_what_it_keeps() {
        let c = setup();
        let splits = c.splits("default", "t", &ScanRequest::default()).unwrap();
        // no column requested: a row count, no blocks
        let counted =
            c.scan_split(&splits[0], &ScanRequest::default(), &ScanHooks::none()).unwrap();
        assert_eq!((counted[0].positions(), counted[0].column_count()), (3, 0));
        // a limit without a predicate slices, and equals the filtered form
        let request = ScanRequest {
            columns: vec![ColumnPath::whole("city"), ColumnPath::whole("id")],
            limit: Some(2),
            ..ScanRequest::default()
        };
        let limited = c.scan_split(&splits[0], &request, &ScanHooks::none()).unwrap();
        assert_eq!(
            limited[0].rows(),
            vec![vec!["sf".into(), Value::Bigint(1)], vec!["nyc".into(), Value::Bigint(2)]]
        );
    }

    #[test]
    fn create_table_validates_width() {
        let c = MemoryConnector::new();
        let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
        let bad = Page::new(vec![Block::bigint(vec![1]), Block::bigint(vec![2])]).unwrap();
        assert!(c.create_table("s", "t", schema, vec![bad]).is_err());
    }

    #[test]
    fn create_table_validates_block_types() {
        let c = MemoryConnector::new();
        let schema = Schema::new(vec![
            Field::new("c", DataType::Varchar),
            Field::new("x", DataType::Bigint),
        ])
        .unwrap();
        let bigints = Page::new(vec![Block::bigint(vec![1]), Block::bigint(vec![2])]).unwrap();
        let err = c.create_table("s", "t", schema.clone(), vec![bigints]).unwrap_err();
        assert_eq!(err.code(), "CONNECTOR_ERROR", "{err}");
        assert!(c.list_tables("s").unwrap().is_empty());
        // a dictionary over the declared type is of that type
        let names =
            Block::Dictionary { dictionary: Box::new(Block::varchar(&["a"])), ids: vec![0] };
        let page = Page::new(vec![names, Block::bigint(vec![2])]).unwrap();
        c.create_table("s", "t", schema, vec![page]).unwrap();
    }

    /// The stored blocks of `memory.s.t`'s one page.
    fn stored(c: &MemoryConnector) -> Vec<Block> {
        let splits = c.splits("s", "t", &ScanRequest::default()).unwrap();
        let request =
            ScanRequest { columns: vec![ColumnPath::whole("c")], ..ScanRequest::default() };
        c.scan_split(&splits[0], &request, &ScanHooks::none()).unwrap()[0].blocks().to_vec()
    }

    #[test]
    fn low_ndv_varchars_are_stored_as_dictionaries() {
        let c = MemoryConnector::new();
        let schema = Schema::new(vec![Field::new("c", DataType::Varchar)]).unwrap();
        let create = |values: Vec<Value>| {
            let page = Page::new(vec![Block::from_values(&DataType::Varchar, &values).unwrap()]);
            c.create_table("s", "t", schema.clone(), vec![page.unwrap()]).unwrap();
        };
        // 3 distinct of 8 strings, and NULLs: the strings in first-seen
        // order, then one NULL entry
        let v = |s: &str| Value::Varchar(s.into());
        let mut rows = vec![v("b"), Value::Null, v("a"), v("b"), v(""), v("a"), Value::Null];
        rows.extend([v("b"), v("b"), v("")]);
        create(rows.clone());
        let [block] = &stored(&c)[..] else { panic!("one column") };
        let Block::Dictionary { dictionary, ids } = block else { panic!("{block:?}") };
        assert_eq!(dictionary.to_values(), [v("b"), v("a"), v(""), Value::Null]);
        assert_eq!(ids, &[0, 3, 1, 0, 2, 1, 3, 0, 0, 2]);
        assert_eq!(block.to_values(), rows);
        // 5 distinct of 8: more than half, plain
        create(["a", "b", "c", "d", "e", "a", "b", "c"].map(v).to_vec());
        assert!(matches!(stored(&c)[0], Block::Varchar { .. }));
        // 7 rows: too few to pay
        create(["a"; 7].map(v).to_vec());
        assert!(matches!(stored(&c)[0], Block::Varchar { .. }));
    }
}
