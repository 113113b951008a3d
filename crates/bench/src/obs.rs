//! Observability experiment: the §X-style dashboard workload, instrumented.
//!
//! A join+aggregation query stream runs against a small cluster; the
//! experiment reports what the paper's operators watch in production —
//! query-latency p50/p95/p99 (virtual time), the per-operator
//! `EXPLAIN ANALYZE` breakdown of one representative query, and its full
//! span tree as a JSON event log.
//!
//! The warm-up phase is discarded with [`CounterSet::clear`] (not `reset`:
//! clear drops the warm-up keys entirely, so the measured snapshot contains
//! only counters the measured phase actually touched).
//!
//! [`CounterSet::clear`]: presto_common::metrics::CounterSet::clear

use std::collections::BTreeMap;
use std::sync::Arc;

use presto_cluster::{ClusterConfig, PrestoCluster};
use presto_common::metrics::{names, Histogram};
use presto_common::{Block, DataType, Field, Page, Result, Schema, SimClock};
use presto_connectors::memory::MemoryConnector;
use presto_core::{PrestoEngine, Session};

use crate::report::{histogram_json, Json, Report, Table};

/// Observability run parameters.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Workers in the cluster.
    pub workers: u32,
    /// Warm-up queries (discarded).
    pub warmup: usize,
    /// Measured queries.
    pub queries: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { workers: 4, warmup: 8, queries: 64 }
    }
}

/// What the run observed.
#[derive(Debug, Clone)]
pub struct ObsResult {
    /// Measured queries (all must succeed — no faults are injected here).
    pub queries: usize,
    /// End-to-end query latency in virtual µs.
    pub latency: Histogram,
    /// `EXPLAIN ANALYZE` of the representative query.
    pub explain: String,
    /// Human-rendered span tree of the sample query.
    pub trace_render: String,
    /// JSON event log of the sample query's spans.
    pub trace_json: String,
    /// Spans in the sample trace.
    pub trace_spans: usize,
    /// Canonical digest of the sample trace (same seed ⇒ same digest).
    pub trace_digest: u64,
    /// Cluster counters after the measured phase only (warm-up cleared).
    pub counters: BTreeMap<String, u64>,
}

/// Orders/rates tables sized so joins do real per-operator work: 8 pages →
/// 8 splits per scan, spread across the workers.
fn engine_with_tables() -> Result<PrestoEngine> {
    let engine = PrestoEngine::new();
    let memory = MemoryConnector::new();
    let cities = ["sf", "nyc", "la", "chi", "sea"];
    let orders_schema = Schema::new(vec![
        Field::new("id", DataType::Bigint),
        Field::new("city", DataType::Varchar),
        Field::new("amount", DataType::Double),
    ])?;
    let pages = (0..8)
        .map(|p| {
            let ids: Vec<i64> = (p * 64..p * 64 + 64).collect();
            let names: Vec<&str> = ids.iter().map(|&i| cities[i as usize % cities.len()]).collect();
            let amounts: Vec<f64> = ids.iter().map(|&i| (i % 97) as f64 * 1.5).collect();
            Page::new(vec![
                Block::bigint(ids.clone()),
                Block::varchar(&names),
                Block::double(amounts),
            ])
        })
        .collect::<Result<Vec<Page>>>()?;
    memory.create_table("default", "orders", orders_schema, pages)?;
    let rates_schema = Schema::new(vec![
        Field::new("city", DataType::Varchar),
        Field::new("fee", DataType::Double),
    ])?;
    let rates =
        Page::new(vec![Block::varchar(&cities), Block::double(vec![2.5, 3.0, 2.0, 1.5, 2.25])])?;
    memory.create_table("default", "rates", rates_schema, vec![rates])?;
    engine.register_catalog("memory", Arc::new(memory));
    Ok(engine)
}

/// The dashboard query family: join + aggregation, with a rotating filter so
/// latencies spread across histogram buckets instead of piling into one.
fn sql_for(i: usize) -> String {
    format!(
        "SELECT o.city, count(*), sum(o.amount) \
         FROM orders o JOIN rates r ON o.city = r.city \
         WHERE o.id >= {} GROUP BY 1 ORDER BY 1",
        (i % 7) * 64
    )
}

/// Run the observability workload.
pub fn run(config: &ObsConfig) -> Result<ObsResult> {
    let cluster = PrestoCluster::new(
        "obs",
        engine_with_tables()?,
        ClusterConfig { initial_workers: config.workers, ..ClusterConfig::default() },
        SimClock::new(),
    );
    let session = Session::default();

    for i in 0..config.warmup {
        cluster.execute(&sql_for(i), &session)?;
    }
    // Discard the warm-up: clear() drops the keys, so the measured snapshot
    // only contains what the measured phase touched.
    cluster.metrics().clear();
    cluster.histograms().clear();

    let sample = cluster.execute(&sql_for(0), &session)?;
    for i in 1..config.queries {
        cluster.execute(&sql_for(i), &session)?;
    }
    let explain = cluster.engine().execute(&format!("EXPLAIN ANALYZE {}", sql_for(0)))?;

    Ok(ObsResult {
        queries: config.queries,
        latency: cluster.histograms().get(names::HIST_CLUSTER_QUERY_LATENCY_US),
        explain: explain.rows()[0][0].to_string(),
        trace_render: sample.info.trace.render(),
        trace_json: sample.info.trace.to_json(),
        trace_spans: sample.info.trace.len(),
        trace_digest: sample.info.trace.digest(),
        counters: cluster.metrics().snapshot(),
    })
}

/// `paper-experiments obs`: latency quantiles, EXPLAIN ANALYZE and the span
/// tree of the default run (`BENCH_obs.json`; no gates).
pub fn report() -> Result<Report> {
    let mut report =
        Report::new("\n=== observability: latency quantiles, EXPLAIN ANALYZE, span tree ===");
    let config = ObsConfig::default();
    report.line(format!(
        "{} join+agg dashboard queries on {} workers ({} warm-up, discarded via clear())\n",
        config.queries, config.workers, config.warmup
    ));
    let r = run(&config)?;
    let mut table = Table::new(
        "virtual-time latency distributions",
        &["histogram", "count", "p50", "p95", "p99", "max"],
    );
    let h = &r.latency;
    table.row(vec![
        "query latency (µs)".into(),
        h.count().to_string(),
        h.quantile(0.50).to_string(),
        h.quantile(0.95).to_string(),
        h.quantile(0.99).to_string(),
        h.max().to_string(),
    ]);
    report.line(table.render());
    report.line(format!("EXPLAIN ANALYZE (representative query):\n{}", r.explain));
    report.line(format!(
        "span tree ({} spans, digest {:#018x}):\n{}",
        r.trace_spans, r.trace_digest, r.trace_render
    ));
    let json = Json::Obj(vec![
        ("experiment".into(), Json::Str("obs".into())),
        ("queries".into(), Json::U64(r.queries as u64)),
        ("query_latency_us".into(), histogram_json(&r.latency)),
        ("trace_spans".into(), Json::U64(r.trace_spans as u64)),
        ("trace_digest".into(), Json::Str(format!("{:#018x}", r.trace_digest))),
        (
            "counters".into(),
            Json::Obj(r.counters.iter().map(|(k, v)| (k.clone(), Json::U64(*v))).collect()),
        ),
    ]);
    report.bench = Some(("obs".into(), json));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_phase_is_fully_observed() {
        let r = run(&ObsConfig { workers: 3, warmup: 2, queries: 10 }).unwrap();
        assert_eq!(r.latency.count(), 10, "one latency sample per measured query");
        assert!(r.latency.quantile(0.5) <= r.latency.quantile(0.95));
        assert!(r.latency.quantile(0.95) <= r.latency.quantile(0.99));
        assert!(r.latency.min() > 0, "the cost model advances virtual time");
        // warm-up was cleared: the counter equals the measured count exactly
        assert_eq!(r.counters.get(names::CLUSTER_QUERIES), Some(&10));
        assert!(r.trace_spans > 0);
        assert!(r.trace_json.starts_with('['));
        assert!(r.explain.contains("TableScan"), "{}", r.explain);
        assert!(r.explain.contains("busy:"), "{}", r.explain);
    }

    #[test]
    fn same_workload_same_trace_digest() {
        let config = ObsConfig { workers: 3, warmup: 1, queries: 3 };
        assert_eq!(run(&config).unwrap().trace_digest, run(&config).unwrap().trace_digest);
    }
}
