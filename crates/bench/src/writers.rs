//! Figs 18–20: legacy vs native Parquet writer throughput under three
//! codecs.
//!
//! "We run the experiments by using Presto writing a list of pages with
//! millions of rows. The following figures show various types of data
//! throughput with Snappy compression, Gzip compression, and no compression.
//! ... our native Parquet writer could consistently achieve more than 20%
//! throughput \[gain\]. For bigint type with Gzip compression, our native
//! parquet writer performs best ... When writing all columns of TPCH
//! LINEITEM, the throughput gain is around 50%."
//!
//! Throughput = in-memory page bytes / wall time, as MB/s, matching the
//! figures' y-axis.

use std::time::{Duration, Instant};

use presto_common::{Page, Result, Schema};
use presto_connectors::tpch::{writer_workload, writer_workload_names};
use presto_parquet::{Codec, FileWriter, WriterMode, WriterProperties};

use crate::report::{mbps, Gate, Report, Table};

/// One workload × codec × writer measurement.
#[derive(Debug, Clone)]
pub struct WriterResult {
    /// Workload name (the figures' x-axis labels).
    pub workload: String,
    /// Bytes of page data written.
    pub input_bytes: usize,
    /// Legacy writer elapsed.
    pub old_elapsed: Duration,
    /// Native writer elapsed.
    pub native_elapsed: Duration,
    /// Whether the two writers' files are equal byte for byte — what makes
    /// the figure a comparison of architectures and not of formats.
    pub files_identical: bool,
}

impl WriterResult {
    /// Native throughput gain over legacy, in percent (same bytes written).
    pub fn gain_pct(&self) -> f64 {
        (self.old_elapsed.as_secs_f64() / self.native_elapsed.as_secs_f64().max(1e-9) - 1.0) * 100.0
    }
}

/// Write `pages` with the given writer mode and codec; returns elapsed time
/// and the file.
pub fn write_once(
    schema: &Schema,
    pages: &[Page],
    mode: WriterMode,
    codec: Codec,
) -> (Duration, Vec<u8>) {
    let props = WriterProperties { codec, row_group_rows: 10_000 };
    #[allow(clippy::disallowed_methods, reason = "the figure reports real write throughput")]
    let start = Instant::now();
    let mut writer = FileWriter::new(schema.clone(), props, mode).expect("schema is valid");
    for page in pages {
        writer.write_page(page).expect("write_page");
    }
    let bytes = writer.finish().expect("finish");
    (start.elapsed(), bytes)
}

/// Measure one workload under one codec, both writers.
pub fn run_workload(name: &str, rows: usize, codec: Codec, seed: u64) -> WriterResult {
    let (schema, page) = writer_workload(name, rows, seed).expect("known workload");
    let pages = vec![page];
    let input_bytes: usize = pages.iter().map(Page::memory_size).sum();
    // alternate to be fair to caches; single measured pass each (the
    // paper-experiments binary repeats; `benchmark/` workload `ingest_write`
    // does proper sampling)
    let (old_elapsed, old_file) = write_once(&schema, &pages, WriterMode::Legacy, codec);
    let (native_elapsed, native_file) = write_once(&schema, &pages, WriterMode::Native, codec);
    WriterResult {
        workload: name.to_string(),
        input_bytes,
        old_elapsed,
        native_elapsed,
        files_identical: old_file == native_file,
    }
}

/// Run a whole figure (one codec over all 11 workloads).
pub fn run_figure(codec: Codec, rows: usize) -> Vec<WriterResult> {
    writer_workload_names().iter().map(|name| run_workload(name, rows, codec, 42)).collect()
}

/// The gate of Figs 18–20: both writers produce one file, byte for byte —
/// two files would make the figure a comparison of formats.
fn identical_files_gate(results: &[WriterResult]) -> Gate {
    let differing: Vec<&str> =
        results.iter().filter(|r| !r.files_identical).map(|r| r.workload.as_str()).collect();
    let detail = format!("files differ for {differing:?}");
    Gate::new("both writers produce byte-identical files", differing.is_empty(), detail)
}

/// `paper-experiments fig18` | `fig19` | `fig20`: one figure per codec.
pub fn figure(codec: Codec) -> Result<Report> {
    let title = match codec {
        Codec::Fast => "Fig 18 — writer throughput, Snappy-profile codec",
        Codec::Deep => "Fig 19 — writer throughput, Gzip-profile codec",
        Codec::None => "Fig 20 — writer throughput, no compression",
    };
    let mut report = Report::new(format!("\n=== {title} ==="));
    report.line("paper claim: native writer ≥ ~20% throughput gain (bigint+gzip best; lineitem ~50% uncompressed)\n");
    let results = run_figure(codec, 150_000);
    let mut table = Table::new(
        format!("codec = {}", codec.name()),
        &["workload", "old writer", "native writer", "gain"],
    );
    for r in &results {
        table.row(vec![
            r.workload.clone(),
            mbps(r.input_bytes, r.old_elapsed),
            mbps(r.input_bytes, r.native_elapsed),
            format!("{:+.0}%", r.gain_pct()),
        ]);
    }
    report.line(table.render());
    let identical = identical_files_gate(&results);
    if identical.passed {
        report.line(format!(
            "both writers produced byte-identical files for all {} workloads",
            results.len()
        ));
    }
    report.gates.push(identical);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    #[test]
    fn writers_produce_identical_bytes_for_every_workload_and_codec() {
        for name in writer_workload_names() {
            for codec in [Codec::None, Codec::Fast, Codec::Deep] {
                let (schema, page) = writer_workload(name, 300, 7).unwrap();
                let props = WriterProperties { codec, ..WriterProperties::default() };
                let mut old =
                    FileWriter::new(schema.clone(), props.clone(), WriterMode::Legacy).unwrap();
                old.write_page(&page).unwrap();
                let old_bytes = old.finish().unwrap();
                let mut native =
                    FileWriter::new(schema.clone(), props, WriterMode::Native).unwrap();
                native.write_page(&page).unwrap();
                let native_bytes = native.finish().unwrap();
                assert_eq!(old_bytes, native_bytes, "{name} under {codec:?}");
            }
        }
    }

    #[test]
    fn measurement_machinery_works() {
        let r = run_workload("bigint_sequential", 5_000, Codec::Fast, 1);
        assert!(r.input_bytes > 0);
        assert_gates(&[identical_files_gate(std::slice::from_ref(&r))]);
        assert!(r.gain_pct().is_finite());
    }
}
