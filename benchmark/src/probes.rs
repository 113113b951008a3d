//! Probes: fixed micro-ops on a workload's own data, each timed as the
//! median of [`REPS`] repetitions after [`WARM_UP`] untimed ones, divided by
//! the machine-speed factor measured around those repetitions. They call the
//! same public functions the connectors and the executor call.

use std::hint::black_box;
use std::time::Instant;

use presto_cache::{FragmentKey, FragmentResultCache};
use presto_common::metrics::CounterSet;
use presto_common::{Page, Schema, Value};
use presto_connectors::tpch::generate_lineitem;
use presto_core::{PrestoEngine, Session};
use presto_expr::{Evaluator, RowExpression};
use presto_parquet::reader::read_metadata;
use presto_parquet::{
    reader_new, reader_old, BytesSource, Codec, ColumnPredicate, FilePredicate, FileWriter,
    ProjectedColumn, ReadOptions, ScalarPredicate, WriterMode, WriterProperties,
};
use presto_plan::LogicalPlan;
use presto_resource::QueryPriority;
use presto_sql::{analyze, parse_sql, AnalyzerContext, Statement};

use crate::data;
use crate::fixture::{Scale, LINEITEM_DATA_SEED, LINEITEM_PAGE_ROWS};
use crate::metrics::Values;
use crate::speed::Calibrator;
use crate::stats::median;

const WARM_UP: usize = 3;
const REPS: usize = 31;

/// Median (normalised) nanoseconds of one call of `f`.
fn median_ns(cal: &mut Calibrator, mut f: impl FnMut()) -> f64 {
    for _ in 0..WARM_UP {
        f();
    }
    let (samples, _, factor) = cal.bracket(|| {
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_nanos() as f64
            })
            .collect::<Vec<f64>>()
    });
    median(&samples) / factor
}

/// As [`median_ns`] for calls too short to time singly: `batch` calls per
/// sample, reported per call.
fn median_ns_batched(cal: &mut Calibrator, batch: usize, mut f: impl FnMut()) -> f64 {
    let per_batch = median_ns(cal, || {
        for _ in 0..batch {
            f();
        }
    });
    per_batch / batch as f64
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / (ns.max(1.0) / 1e9)
}

/// `resource`: one uncontended admission (admit, then release the permit).
pub fn admit_ns(engine: &PrestoEngine, cal: &mut Calibrator) -> f64 {
    let admission = engine.resources().admission();
    let metrics = CounterSet::new();
    median_ns_batched(cal, 256, || {
        black_box(admission.admit("probe", QueryPriority::Normal, &metrics).ok());
    })
}

fn write_file(schema: &Schema, page: &Page, mode: WriterMode, codec: Codec) -> Vec<u8> {
    let props = WriterProperties {
        codec,
        row_group_rows: page.positions().div_ceil(2),
        ..WriterProperties::default()
    };
    let mut writer = FileWriter::new(schema.clone(), props, mode).expect("schema is writable");
    writer.write_page(page).expect("page matches the schema");
    writer.finish().expect("in-memory finish")
}

/// Codec throughput over `raw` (an uncompressed file image), in MB of
/// uncompressed data per second.
fn codec(raw: &[u8], values: &mut Values, cal: &mut Calibrator) {
    for (which, compress, decompress) in [
        (Codec::Fast, "parquet.compress_fast_mb_s", "parquet.decompress_fast_mb_s"),
        (Codec::Deep, "parquet.compress_deep_mb_s", "parquet.decompress_deep_mb_s"),
    ] {
        let packed = which.compress(raw);
        let ns = median_ns(cal, || {
            black_box(which.compress(black_box(raw)));
        });
        values.insert(compress, mb_per_s(raw.len(), ns));
        let ns = median_ns(cal, || {
            black_box(which.decompress(black_box(&packed)).ok());
        });
        values.insert(decompress, mb_per_s(raw.len(), ns));
    }
}

/// `parquet` read side, on one trips file of the `cluster_repeat` shape
/// (an eighth of a partition: 6 cities in 2 row groups).
pub fn parquet_read(scale: Scale, values: &mut Values, cal: &mut Calibrator) {
    let partition_rows = scale.trips_partition_rows();
    let rows = partition_rows / 8;
    let schema = data::trips_schema();
    let page = data::trips_file_page(0, 0, rows, partition_rows);
    let bytes = write_file(&schema, &page, WriterMode::Native, Codec::Fast);
    values.insert("parquet.file_bytes_per_row", bytes.len() as f64 / rows as f64);
    codec(&write_file(&schema, &page, WriterMode::Native, Codec::None), values, cal);
    let source = BytesSource::new(bytes);

    let footer_ns = median_ns(cal, || {
        black_box(read_metadata(&source).ok());
    });
    values.insert("parquet.footer_us", footer_ns / 1e3);

    let leaves = |names: &[&str]| -> Vec<ProjectedColumn> {
        names.iter().map(|n| ProjectedColumn::path("base", &[n])).collect()
    };
    let mut read_new = |options: &ReadOptions| {
        let ns = median_ns(cal, || {
            black_box(reader_new::read(&source, &schema, options).ok());
        });
        ns / rows as f64
    };
    values.insert(
        "parquet.read_new_narrow_ns_per_row",
        read_new(&ReadOptions::new(leaves(&["city_id", "fare"]))),
    );
    values.insert(
        "parquet.read_new_wide_ns_per_row",
        read_new(&ReadOptions::new(leaves(&[
            "driver_uuid",
            "client_uuid",
            "fare",
            "tip",
            "distance_km",
            "duration_s",
            "surge",
            "rating",
        ]))),
    );
    values.insert(
        "parquet.read_new_nested_ns_per_row",
        read_new(&ReadOptions::new(leaves(&[
            "city_id", "status", "product", "workflow", "features",
        ]))),
    );
    // city 4 lives in the second of the two row groups
    let needle = ReadOptions::new(leaves(&["driver_uuid"])).with_predicate(FilePredicate {
        conjuncts: vec![ColumnPredicate {
            leaf_path: "base.city_id".to_string(),
            predicate: ScalarPredicate::Eq(Value::Bigint(4)),
        }],
    });
    if let Ok((_, stats)) = reader_new::read(&source, &schema, &needle) {
        let skipped = stats.skipped_by_stats + stats.skipped_by_dictionary + stats.skipped_by_lazy;
        values.insert(
            "parquet.needle_row_groups_skipped_frac",
            skipped as f64 / stats.row_groups_total.max(1) as f64,
        );
    }
    values.insert("parquet.read_new_needle_ns_per_row", read_new(&needle));

    let whole = ["base".to_string()];
    let old_ns = median_ns(cal, || {
        black_box(reader_old::read(&source, &schema, &whole).ok());
    });
    values.insert("parquet.read_old_wide_ns_per_row", old_ns / rows as f64);
}

/// `parquet` write side, on `ingest_write`'s own pages; MB/s of in-memory
/// page data encoded.
pub fn parquet_write(
    flat_schema: &Schema,
    flat: &Page,
    nested_schema: &Schema,
    nested: &Page,
    values: &mut Values,
    cal: &mut Calibrator,
) {
    let mut write = |name, schema: &Schema, page: &Page, mode| {
        let ns = median_ns(cal, || {
            black_box(write_file(schema, page, mode, Codec::Fast));
        });
        values.insert(name, mb_per_s(page.memory_size(), ns));
    };
    write("parquet.write_native_flat_mb_s", flat_schema, flat, WriterMode::Native);
    write("parquet.write_native_nested_mb_s", nested_schema, nested, WriterMode::Native);
    write("parquet.write_legacy_flat_mb_s", flat_schema, flat, WriterMode::Legacy);
    codec(&write_file(flat_schema, flat, WriterMode::Native, Codec::None), values, cal);
}

/// The expression the analyzer builds for `SELECT <sql> FROM lineitem`,
/// bound to the table's full column order.
fn lineitem_expression(engine: &PrestoEngine, sql: &str) -> Option<RowExpression> {
    let session = Session::new("memory", "default");
    let Ok(Statement::Query(query)) = parse_sql(&format!("SELECT {sql} FROM lineitem")) else {
        return None;
    };
    let context = AnalyzerContext {
        catalogs: engine.catalogs().clone(),
        registry: engine.functions().clone(),
        default_catalog: session.catalog,
        default_schema: session.schema,
    };
    fn find(plan: &LogicalPlan) -> Option<RowExpression> {
        if let LogicalPlan::Project { input, expressions } = plan {
            if let LogicalPlan::TableScan { table_schema, request, .. } = input.as_ref() {
                let unpruned = request.columns.len() == table_schema.len();
                return unpruned.then(|| expressions[0].1.clone());
            }
        }
        plan.children().into_iter().find_map(find)
    }
    find(&analyze(&query, &context).ok()?)
}

/// `expr`: `Evaluator::evaluate` of five expression shapes over one
/// 10k-row `lineitem` page.
pub fn expr(engine: &PrestoEngine, values: &mut Values, cal: &mut Calibrator) {
    let page = generate_lineitem(0, LINEITEM_PAGE_ROWS, LINEITEM_DATA_SEED)
        .expect("generator output matches its schema");
    let evaluator = Evaluator::new(engine.functions().clone());
    for (name, sql) in [
        ("expr.arith_ns_per_row", "extendedprice * (1 - discount)"),
        ("expr.compare_ns_per_row", "quantity < 24"),
        (
            "expr.between_and_ns_per_row",
            "quantity BETWEEN 10 AND 30 AND discount BETWEEN 0.02 AND 0.07",
        ),
        ("expr.case_ns_per_row", "CASE WHEN quantity >= 25 THEN extendedprice ELSE tax END"),
        ("expr.in_varchar_ns_per_row", "shipmode IN ('AIR', 'RAIL', 'MAIL')"),
    ] {
        let Some(expression) = lineitem_expression(engine, sql) else { continue };
        if evaluator.evaluate(&expression, &page).is_err() {
            continue;
        }
        let ns = median_ns(cal, || {
            black_box(evaluator.evaluate(&expression, black_box(&page)).ok());
        });
        values.insert(name, ns / page.positions() as f64);
    }
}

/// `cache`: a fragment-result-cache hit as the cluster takes it (lookup plus
/// a copy of the cached pages) and a store (a copy of the pages plus insert),
/// on the pages of one narrow trips scan.
pub fn fragment_cache(scale: Scale, values: &mut Values, cal: &mut Calibrator) {
    let partition_rows = scale.trips_partition_rows();
    let rows = partition_rows / 8;
    let schema = data::trips_schema();
    let page = data::trips_file_page(0, 0, rows, partition_rows);
    let source = BytesSource::new(write_file(&schema, &page, WriterMode::Native, Codec::Fast));
    let options = ReadOptions::new(vec![
        ProjectedColumn::path("base", &["city_id"]),
        ProjectedColumn::path("base", &["fare"]),
    ]);
    let Ok((pages, _)) = reader_new::read(&source, &schema, &options) else { return };
    let cache = FragmentResultCache::new(64, CounterSet::new());
    let key = |i: u64| FragmentKey { plan_fingerprint: i, split_identity: "probe".to_string() };
    cache.put(key(0), pages.clone());
    let get_ns = median_ns_batched(cal, 16, || {
        black_box(cache.get(&key(0)).map(|hit| hit.as_ref().clone()));
    });
    values.insert("cache.frc_get_ns", get_ns);
    let mut next = 0u64;
    let put_ns = median_ns_batched(cal, 16, || {
        next += 1;
        cache.put(key(next), pages.clone());
    });
    values.insert("cache.frc_put_ns", put_ns);
}
