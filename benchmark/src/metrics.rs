//! The names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` at the repo root declares the same lists (a unit test
//! keeps the two in step).

use std::collections::BTreeMap;

use crate::json::Json;

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "lake_adhoc",
        "Fig 17: 21 scan/needle/group-by/join queries over nested Parquet on HDFS-sim; reader+hive+storage hold half the op time, the executor the rest; no data cache - what a reader/pushdown change must move",
    ),
    (
        "mem_exec",
        "9-step executor ladder (filter 1/50/90%, agg low/high NDV, join, sort, topn) on in-memory lineitem; exec+expr do nearly all the work, parquet/storage/cache none - a reader change must leave it flat",
    ),
    (
        "realtime_dash",
        "Fig 16: 21 dashboard queries on a Druid table with aggregation/predicate/limit pushdown; parser, planner and the connector's native path dominate, bypassing both reader and executor work",
    ),
    (
        "cluster_repeat",
        "Zipf-repeated lake queries through a 4-worker cluster with affinity scheduling and a fragment result cache smaller than the working set; shows cache and scheduler gains/costs engine-direct runs cannot",
    ),
    (
        "ingest_write",
        "Figs 18-20: 5k-row file writes (flat/nested, fast/deep codec) through the hive connector, read back and checked; a format change that buys decode speed at encode cost shows here as a loss",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    // the four time metrics sit at the contract's ceiling: see "Normalised
    // time" and the spread tables in README.md
    EndToEnd { name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "op_p98_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_heap_mb", unit: "MB", better: "lower", bound: 0.10 },
    // 1 - failed_frac: a single failed op in a run moves it by more than its bound
    EndToEnd { name: "ok_frac", unit: "ratio", better: "higher", bound: 0.001 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count that must repeat exactly on a same-seed rerun.
    pub exact: bool,
}

const fn t(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: false }
}

const fn c(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

/// Per-layer metrics, grouped by the module they measure. A workload whose
/// ops never reach a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [PerLayer; 93] = [
    // sql, plan: p50 over traced ops of the call's self time
    t("sql.parse_us", "us", "lower"),
    t("sql.analyze_us", "us", "lower"),
    t("plan.optimize_us", "us", "lower"),
    t("plan.fragment_us", "us", "lower"),
    t("plan.frontend_share", "ratio", "lower"),
    // connectors
    t("connectors.splits_us", "us", "lower"),
    t("connectors.scan_ms", "ms", "lower"),
    t("connectors.scan_share", "ratio", "lower"),
    t("connectors.scan_ns_per_row", "ns/row", "lower"),
    c("connectors.splits_per_op", "count", "lower"),
    c("connectors.emit_ratio", "ratio", "lower"),
    // parquet: probes on the workload's own files / pages
    t("parquet.footer_us", "us", "lower"),
    t("parquet.read_new_narrow_ns_per_row", "ns/row", "lower"),
    t("parquet.read_new_wide_ns_per_row", "ns/row", "lower"),
    t("parquet.read_new_nested_ns_per_row", "ns/row", "lower"),
    t("parquet.read_new_needle_ns_per_row", "ns/row", "lower"),
    c("parquet.needle_row_groups_skipped_frac", "ratio", "higher"),
    t("parquet.read_old_wide_ns_per_row", "ns/row", "lower"),
    t("parquet.decompress_fast_mb_s", "MB/s", "higher"),
    t("parquet.decompress_deep_mb_s", "MB/s", "higher"),
    t("parquet.compress_fast_mb_s", "MB/s", "higher"),
    t("parquet.compress_deep_mb_s", "MB/s", "higher"),
    t("parquet.write_native_flat_mb_s", "MB/s", "higher"),
    t("parquet.write_native_nested_mb_s", "MB/s", "higher"),
    t("parquet.write_legacy_flat_mb_s", "MB/s", "higher"),
    c("parquet.file_bytes_per_row", "B/row", "lower"),
    // storage: deltas of the HDFS simulator's public counters per op
    c("storage.read_ops_per_op", "count", "lower"),
    c("storage.read_kb_per_op", "KB", "lower"),
    c("storage.list_files_per_op", "count", "lower"),
    c("storage.get_file_info_per_op", "count", "lower"),
    c("storage.write_kb_per_op", "KB", "lower"),
    c("storage.sim_io_ms_per_op", "ms", "lower"),
    // cache
    c("cache.frc_hit_rate", "ratio", "higher"),
    c("cache.flc_hit_rate", "ratio", "higher"),
    c("cache.fhc_hit_rate", "ratio", "higher"),
    c("cache.frc_working_set_keys", "count", "lower"),
    c("cache.frc_capacity", "count", "higher"),
    t("cache.hit_op_p50_ms", "ms", "lower"),
    t("cache.miss_op_p50_ms", "ms", "lower"),
    t("cache.frc_get_ns", "ns", "lower"),
    t("cache.frc_put_ns", "ns", "lower"),
    // expr: Evaluator::evaluate on one 10k-row lineitem page
    t("expr.arith_ns_per_row", "ns/row", "lower"),
    t("expr.compare_ns_per_row", "ns/row", "lower"),
    t("expr.between_and_ns_per_row", "ns/row", "lower"),
    t("expr.case_ns_per_row", "ns/row", "lower"),
    t("expr.in_varchar_ns_per_row", "ns/row", "lower"),
    // exec
    t("exec.root_ms", "ms", "lower"),
    t("exec.root_share", "ratio", "lower"),
    t("exec.root_ns_per_row_in", "ns/row", "lower"),
    t("exec.exchange_deliver_us", "us", "lower"),
    c("exec.peak_reserved_mb", "MB", "lower"),
    c("exec.spilled_ops", "count", "lower"),
    t("exec.filter_sel01_ns_per_row", "ns/row", "lower"),
    t("exec.filter_sel50_ns_per_row", "ns/row", "lower"),
    t("exec.filter_sel90_ns_per_row", "ns/row", "lower"),
    t("exec.agg_low_ndv_ns_per_row", "ns/row", "lower"),
    t("exec.agg_high_ndv_ns_per_row", "ns/row", "lower"),
    t("exec.join_ns_per_row", "ns/row", "lower"),
    t("exec.sort_ns_per_row", "ns/row", "lower"),
    t("exec.topn_ns_per_row", "ns/row", "lower"),
    // resource, core
    t("resource.admit_ns", "ns", "lower"),
    t("core.facade_residual_us", "us", "lower"),
    t("core.virtual_over_wall", "ratio", "lower"),
    c("core.result_rows_per_op", "count", "lower"),
    // cluster
    t("cluster.over_engine_ms", "ms", "lower"),
    c("cluster.tasks_per_op", "count", "lower"),
    c("cluster.split_retries", "count", "lower"),
    t("cluster.virtual_over_wall", "ratio", "lower"),
    // harness: the benchmark's own health
    c("harness.ops", "count", "higher"),
    c("harness.traced_ops", "count", "higher"),
    c("harness.failed_ops", "count", "lower"),
    c("harness.p98_samples_beyond", "count", "higher"),
    t("harness.rows_per_s", "1/s", "higher"),
    t("harness.trace_overhead_frac", "ratio", "lower"),
    t("harness.decomp_residual_frac", "ratio", "lower"),
    t("harness.noise_frac", "ratio", "lower"),
    t("harness.raw_op_p50_ms", "ms", "lower"),
    t("harness.speed_factor", "ratio", "lower"),
    t("harness.speed_factor_spread", "ratio", "lower"),
    t("harness.oracle_s", "s", "lower"),
    t("harness.peak_rss_mb", "MB", "lower"),
    c("harness.rss_reset", "count", "higher"),
    c("harness.sequence_digest", "count", "higher"),
    // class medians from the timed section
    t("class.scan.p50_ms", "ms", "lower"),
    t("class.needle.p50_ms", "ms", "lower"),
    t("class.groupby.p50_ms", "ms", "lower"),
    t("class.join.p50_ms", "ms", "lower"),
    t("class.agg.p50_ms", "ms", "lower"),
    t("class.limit.p50_ms", "ms", "lower"),
    t("class.rawscan.p50_ms", "ms", "lower"),
    t("class.flat_fast.p50_ms", "ms", "lower"),
    t("class.nested_fast.p50_ms", "ms", "lower"),
    t("class.flat_deep.p50_ms", "ms", "lower"),
];

/// Seconds one contract run measures (`run_seconds`): long enough for every
/// workload to time 500 ops on a 2-core box.
pub const RUN_SECONDS: u32 = 15;

/// The benchmark's declaration, as `BENCHMARK.json` at the repo root holds it.
pub fn declaration() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Metric values by name, as one workload run produced them.
pub type Values = BTreeMap<&'static str, f64>;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// `{"name": {"value": v, "unit": u}, …}` over `names` in declaration
/// order; metrics the workload did not produce read 0.
pub fn to_json<'a>(values: &Values, names: impl Iterator<Item = &'a str>) -> Json {
    Json::Obj(
        names
            .map(|name| {
                let value = values.get(name).copied().unwrap_or(0.0);
                let entry = Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(unit_of(name))),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        names.extend(WORKLOADS.iter().map(|(n, _)| *n));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.better == "lower"));
    }

    /// `BENCHMARK.json` is what the driver reads; `describe` prints what the
    /// harness implements. They must be the same document.
    #[test]
    fn benchmark_json_is_the_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let same = Json::parse(&text).expect("valid JSON") == declaration();
        assert!(same, "BENCHMARK.json is stale: regenerate it with `presto-benchmark describe`");
        assert!(text.len() <= 64 * 1024);
    }
}
