//! §VII experiments: file-list cache and file-handle/footer cache under a
//! production-shaped trace.
//!
//! Paper results to reproduce:
//! - "With file list cache enabled for 5 of our most popular tables, our
//!   production traffic shows overall listFile calls is reduced to less
//!   than 40%."
//! - "With file handle and footer cache, our production traffic shows
//!   almost 90% of getFileInfo calls could be reduced."
//!
//! The trace: a skewed query stream where most scans hit the 5 hot tables
//! (with sealed partitions) and a tail hits cold tables and *open*
//! partitions (which must bypass the cache for freshness).

use std::sync::Arc;

use presto_cache::{FileHandleCache, FileListCache, FooterCache};
use presto_common::metrics::{names, CounterSet};
use presto_common::{Block, DataType, Field, Page, Result, Schema};
use presto_parquet::{FileWriter, WriterMode, WriterProperties};
use presto_storage::{FileSystem, HdfsFileSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{Gate, Report, Table};

/// Trace shape parameters.
#[derive(Debug, Clone)]
pub struct CacheTrace {
    /// Hot (popular) tables — the paper's "5 of our most popular tables".
    pub hot_tables: usize,
    /// Cold tables.
    pub cold_tables: usize,
    /// Sealed partitions per table.
    pub sealed_partitions: usize,
    /// Open partitions per hot table (near-real-time ingestion).
    pub open_partitions: usize,
    /// Files per partition.
    pub files_per_partition: usize,
    /// Scan operations in the trace.
    pub scans: usize,
    /// Probability a scan hits a hot table.
    pub hot_fraction: f64,
}

impl Default for CacheTrace {
    fn default() -> Self {
        CacheTrace {
            hot_tables: 5,
            cold_tables: 20,
            sealed_partitions: 8,
            open_partitions: 1,
            files_per_partition: 4,
            scans: 2_000,
            hot_fraction: 0.85,
        }
    }
}

/// Results of the trace replay.
#[derive(Debug, Clone)]
pub struct CacheResult {
    /// listFiles issued *without* the cache (baseline = one per scan per
    /// partition listed).
    pub list_calls_baseline: u64,
    /// listFiles reaching HDFS *with* the cache.
    pub list_calls_cached: u64,
    /// getFileInfo issued without caches.
    pub getinfo_calls_baseline: u64,
    /// getFileInfo reaching HDFS with handle+footer caches.
    pub getinfo_calls_cached: u64,
}

impl CacheResult {
    /// listFiles remaining, as a percent of baseline (paper: <40%).
    pub fn list_remaining_pct(&self) -> f64 {
        self.list_calls_cached as f64 / self.list_calls_baseline.max(1) as f64 * 100.0
    }

    /// getFileInfo reduction percent (paper: ~90%).
    pub fn getinfo_reduction_pct(&self) -> f64 {
        (1.0 - self.getinfo_calls_cached as f64 / self.getinfo_calls_baseline.max(1) as f64) * 100.0
    }
}

struct Warehouse {
    hdfs: HdfsFileSystem,
    /// (table, partition dir, sealed)
    partitions: Vec<(usize, String, bool)>,
}

fn build_warehouse(trace: &CacheTrace) -> Warehouse {
    let hdfs = HdfsFileSystem::with_defaults();
    let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
    let mut file_bytes = None;
    let mut partitions = Vec::new();
    for table in 0..trace.hot_tables + trace.cold_tables {
        let is_hot = table < trace.hot_tables;
        let sealed_n = trace.sealed_partitions;
        let open_n = if is_hot { trace.open_partitions } else { 0 };
        for p in 0..sealed_n + open_n {
            let dir = format!("/warehouse/t{table}/ds={p}");
            let sealed = p < sealed_n;
            for f in 0..trace.files_per_partition {
                let bytes = file_bytes
                    .get_or_insert_with(|| {
                        let mut w = FileWriter::new(
                            schema.clone(),
                            WriterProperties::default(),
                            WriterMode::Native,
                        )
                        .unwrap();
                        w.write_page(&Page::new(vec![Block::bigint((0..100).collect())]).unwrap())
                            .unwrap();
                        w.finish().unwrap()
                    })
                    .clone();
                hdfs.backing_store().write(&format!("{dir}/part-{f}"), &bytes).unwrap();
            }
            partitions.push((table, dir, sealed));
        }
    }
    Warehouse { hdfs, partitions }
}

/// Replay the trace twice — without and with the caches — and compare the
/// HDFS call counts.
pub fn run(trace: &CacheTrace, seed: u64) -> CacheResult {
    let warehouse = build_warehouse(trace);
    let hdfs = &warehouse.hdfs;

    // Scan sequence: (partition index) per scan, hot-skewed; each scan lists
    // its partition then stats every file in it (split planning).
    let mut rng = StdRng::seed_from_u64(seed);
    let (hot_parts, cold_parts): (Vec<usize>, Vec<usize>) = (0..warehouse.partitions.len())
        .partition(|&i| warehouse.partitions[i].0 < trace.hot_tables);
    let scan_sequence: Vec<usize> = (0..trace.scans)
        .map(|_| {
            if rng.gen_bool(trace.hot_fraction) {
                hot_parts[rng.gen_range(0..hot_parts.len())]
            } else {
                cold_parts[rng.gen_range(0..cold_parts.len())]
            }
        })
        .collect();

    // ---- baseline: no caches
    hdfs.metrics().reset();
    for &part in &scan_sequence {
        let (_, dir, _) = &warehouse.partitions[part];
        let files = hdfs.list_files(dir).unwrap();
        for f in files.iter() {
            hdfs.get_file_info(&f.path).unwrap();
        }
    }
    let list_calls_baseline = hdfs.metrics().get(names::HDFS_LIST_FILES);
    let getinfo_calls_baseline = hdfs.metrics().get(names::HDFS_GET_FILE_INFO);

    // ---- with caches: file-list cache on the coordinator (hot tables
    // only, per the paper), handle+footer cache on workers
    hdfs.metrics().reset();
    let metrics = CounterSet::new();
    let file_lists = FileListCache::new(Arc::new(hdfs.clone()), metrics.clone());
    let handles = FileHandleCache::new(Arc::new(hdfs.clone()), 8192, metrics.clone());
    let footers = FooterCache::new(handles.clone(), 4096, metrics);
    for &part in &scan_sequence {
        let (table, dir, sealed) = &warehouse.partitions[part];
        let cache_enabled = *table < trace.hot_tables;
        let files = if cache_enabled {
            file_lists.list_partition(dir, *sealed).unwrap()
        } else {
            Arc::new(hdfs.list_files(dir).unwrap())
        };
        for f in files.iter() {
            // workers open the footer (which needs the handle) per split
            footers.get_footer(&f.path).unwrap();
        }
    }
    let list_calls_cached = hdfs.metrics().get(names::HDFS_LIST_FILES);
    let getinfo_calls_cached = hdfs.metrics().get(names::HDFS_GET_FILE_INFO);

    CacheResult {
        list_calls_baseline,
        list_calls_cached,
        getinfo_calls_baseline,
        getinfo_calls_cached,
    }
}

/// The §VII claims, getFileInfo with the tolerance the trace allows.
fn gates(r: &CacheResult) -> [Gate; 2] {
    let (list, info) = (r.list_remaining_pct(), r.getinfo_reduction_pct());
    [
        Gate::new("listFiles reduced to under 40%", list < 40.0, format!("{list:.1}% remain")),
        Gate::new("over 80% of getFileInfo removed", info > 80.0, format!("{info:.1}% removed")),
    ]
}

/// `paper-experiments cache`: the default trace, seed 7.
pub fn report() -> Result<Report> {
    let mut report = Report::new("\n=== §VII: file-list cache and file-handle/footer cache ===");
    report.line("paper claims: listFiles reduced to <40%; ~90% of getFileInfo removed\n");
    let result = run(&CacheTrace::default(), 7);
    let mut table = Table::new(
        "2000-scan trace, 5 hot tables (sealed+open partitions), 20 cold tables",
        &["metric", "baseline", "with caches", "paper", "measured"],
    );
    table.row(vec![
        "HDFS listFiles calls".into(),
        result.list_calls_baseline.to_string(),
        result.list_calls_cached.to_string(),
        "< 40% remain".into(),
        format!("{:.1}% remain", result.list_remaining_pct()),
    ]);
    table.row(vec![
        "HDFS getFileInfo calls".into(),
        result.getinfo_calls_baseline.to_string(),
        result.getinfo_calls_cached.to_string(),
        "~90% removed".into(),
        format!("{:.1}% removed", result.getinfo_reduction_pct()),
    ]);
    report.line(table.render());
    report.gates = gates(&result).into();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    #[test]
    fn reproduces_the_section_vii_numbers() {
        assert_gates(&gates(&run(&CacheTrace::default(), 7)));
    }
}
