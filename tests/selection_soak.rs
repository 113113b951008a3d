//! Selection at every selectivity, against a row-at-a-time reference.
//!
//! Every mask a predicate yields becomes row ids through one branch-free
//! kernel (`presto_common::selected_rows`). Here a table of three BIGINT
//! columns (uniform in 0..100, one row in 13 NULL) over pages of random
//! sizes is filtered at 0, 1, 25, 50, 75, 99 and 100% selectivity by one,
//! two and three conjuncts, through the three places that select:
//!
//! - the memory connector's scan (`a < t` pushed down),
//! - the Parquet new reader's lazy reads (the same conjuncts on the file),
//! - the executor's `Filter` over a predicate no connector takes
//!   (`a * 2 < 2t`).
//!
//! Each must return exactly the rows `ScalarPredicate::matches` keeps, row
//! by row: the scan and the reader in table order, the engine as a
//! multiset. `selections_match_the_reference` runs a few seeds;
//! `cargo test --release --test selection_soak -- --ignored` runs 400.

use std::sync::Arc;

use presto_common::rng::mix64;
use presto_common::{Block, DataType, Field, Page, Schema, Value};
use presto_connectors::memory::MemoryConnector;
use presto_connectors::{ColumnPath, Connector, PushdownPredicate, ScanHooks, ScanRequest};
use presto_core::{PrestoEngine, Session};
use presto_parquet::reader::BytesSource;
use presto_parquet::reader_new::{self, ProjectedColumn, ReadOptions};
use presto_parquet::{
    Codec, ColumnPredicate, FilePredicate, FileWriter, ScalarPredicate, WriterMode,
    WriterProperties,
};

const COLUMNS: [&str; 4] = ["id", "a", "b", "c"];
const PERCENTS: [u32; 7] = [0, 1, 25, 50, 75, 99, 100];

/// A seeded draw stream.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix64(self.0) % n
    }
}

fn schema() -> Schema {
    Schema::new(COLUMNS.iter().map(|c| Field::new(*c, DataType::Bigint)).collect()).unwrap()
}

/// 1–4 pages of 1–700 rows: a running `id`, then `a`, `b`, `c`.
fn pages(draws: &mut Draws) -> Vec<Page> {
    let mut id = 0;
    (0..1 + draws.below(4))
        .map(|_| {
            let rows = 1 + draws.below(700) as usize;
            let mut columns = vec![Vec::with_capacity(rows); COLUMNS.len()];
            for _ in 0..rows {
                columns[0].push(Value::Bigint(id));
                id += 1;
                for column in &mut columns[1..] {
                    column.push(match draws.below(13) {
                        0 => Value::Null,
                        _ => Value::Bigint(draws.below(100) as i64),
                    });
                }
            }
            let blocks =
                columns.iter().map(|c| Block::from_values(&DataType::Bigint, c).unwrap()).collect();
            Page::new(blocks).unwrap()
        })
        .collect()
}

/// `k` conjuncts `column < bound` over `a`, `b`, `c` whose product keeps
/// about `percent`% of the non-NULL rows.
fn conjuncts(percent: u32, k: usize) -> Vec<(usize, i64)> {
    let bound = (100.0 * (f64::from(percent) / 100.0).powf(1.0 / k as f64)).round() as i64;
    (1..=k).map(|column| (column, bound)).collect()
}

fn below(bound: i64) -> ScalarPredicate {
    ScalarPredicate::Range { min: None, max: Some(Value::Bigint(bound - 1)) }
}

fn expected(rows: &[Vec<Value>], conjuncts: &[(usize, i64)]) -> Vec<Vec<Value>> {
    let keep = |row: &Vec<Value>| conjuncts.iter().all(|&(c, t)| below(t).matches(&row[c]));
    rows.iter().filter(|row| keep(row)).cloned().collect()
}

fn memory_scan(memory: &MemoryConnector, conjuncts: &[(usize, i64)]) -> Vec<Vec<Value>> {
    let request = ScanRequest {
        columns: COLUMNS.iter().map(|c| ColumnPath::whole(*c)).collect(),
        predicate: conjuncts
            .iter()
            .map(|&(c, t)| PushdownPredicate {
                target: ColumnPath::whole(COLUMNS[c]),
                predicate: below(t),
            })
            .collect(),
        limit: None,
        aggregation: None,
    };
    let mut rows = Vec::new();
    for split in memory.splits("default", "t", &request).unwrap() {
        for page in memory.scan_split(&split, &request, &ScanHooks::none()).unwrap() {
            rows.extend(page.rows());
        }
    }
    rows
}

fn parquet_read(file: &BytesSource, conjuncts: &[(usize, i64)]) -> Vec<Vec<Value>> {
    let predicate = FilePredicate {
        conjuncts: conjuncts
            .iter()
            .map(|&(c, t)| ColumnPredicate { leaf_path: COLUMNS[c].into(), predicate: below(t) })
            .collect(),
    };
    let options = ReadOptions::new(COLUMNS.iter().map(|c| ProjectedColumn::whole(*c)).collect())
        .with_predicate(predicate);
    let (pages, _) = reader_new::read(file, &schema(), &options).unwrap();
    pages.iter().flat_map(Page::rows).collect()
}

fn executor_filter(engine: &PrestoEngine, conjuncts: &[(usize, i64)]) -> Vec<Vec<Value>> {
    let terms: Vec<String> =
        conjuncts.iter().map(|&(c, t)| format!("{} * 2 < {}", COLUMNS[c], 2 * t)).collect();
    let sql = format!("SELECT id, a, b, c FROM t WHERE {}", terms.join(" AND "));
    let session = Session::new("memory", "default");
    assert!(engine.explain(&sql, &session).unwrap().contains("Filter"), "{sql}: not a Filter");
    let mut rows = engine.execute_with_session(&sql, &session).unwrap().rows();
    rows.sort_by_key(|row| row[0].as_i64());
    rows
}

/// One table of `seed`, every selectivity and conjunct count, all three
/// paths.
fn check_seed(seed: u64) {
    let mut draws = Draws(mix64(seed));
    let pages = pages(&mut draws);
    let rows: Vec<Vec<Value>> = pages.iter().flat_map(Page::rows).collect();

    let memory = MemoryConnector::new();
    memory.create_table("default", "t", schema(), pages.clone()).unwrap();
    let engine = PrestoEngine::new();
    engine.register_catalog("memory", Arc::new(memory.clone()));

    let props =
        WriterProperties { codec: Codec::Fast, row_group_rows: 50 + draws.below(400) as usize };
    let mut writer = FileWriter::new(schema(), props, WriterMode::Native).unwrap();
    pages.iter().for_each(|page| writer.write_page(page).unwrap());
    let file = BytesSource::new(writer.finish().unwrap());

    for percent in PERCENTS {
        for k in 1..=3 {
            let conjuncts = conjuncts(percent, k);
            let expected = expected(&rows, &conjuncts);
            let case = format!("seed {seed}, {percent}%, {k} conjuncts");
            assert_eq!(memory_scan(&memory, &conjuncts), expected, "{case}: memory scan");
            assert_eq!(parquet_read(&file, &conjuncts), expected, "{case}: new reader");
            assert_eq!(executor_filter(&engine, &conjuncts), expected, "{case}: executor");
        }
    }
}

#[test]
fn selections_match_the_reference() {
    (0..3).for_each(check_seed);
}

#[test]
#[ignore = "soak: 400 seeds, run in release"]
fn selection_soak() {
    (0..400).for_each(check_seed);
}
