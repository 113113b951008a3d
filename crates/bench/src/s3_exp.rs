//! §IX experiments: the four PrestoS3FileSystem optimizations, each
//! measured with the optimization on vs off.
//!
//! - lazy seek: GET requests saved on seek-heavy (footer-first) access;
//! - exponential backoff: survival under 503 bursts, virtual time spent;
//! - S3 Select: bytes moved with projection pushed to storage;
//! - multipart upload: virtual upload time for large objects.

use std::time::Duration;

use presto_common::metrics::{names, CounterSet};
use presto_common::{Result, SimClock};
use presto_storage::s3::{S3Config, S3FsConfig};
use presto_storage::{FileSystem, PrestoS3FileSystem, S3ObjectStore};

use crate::report::{mbps, ms, Gate, Report, Table};

/// Lazy-seek comparison.
#[derive(Debug, Clone)]
pub struct LazySeekResult {
    /// GETs issued with eager seeks.
    pub eager_gets: u64,
    /// GETs issued with lazy seeks.
    pub lazy_gets: u64,
    /// Virtual time, eager.
    pub eager_time: Duration,
    /// Virtual time, lazy.
    pub lazy_time: Duration,
}

/// A Parquet-reader-shaped access pattern: open, seek to the footer, seek to
/// two column chunks, read a little from each; repeated over `files` files.
pub fn lazy_seek(files: usize) -> LazySeekResult {
    let run = |lazy: bool| -> (u64, Duration) {
        let clock = SimClock::new();
        let store = S3ObjectStore::new(S3Config::default(), clock.clone(), CounterSet::new());
        for f in 0..files {
            store.seed(&format!("/b/file{f}"), &vec![0u8; 4 * 1024 * 1024]);
        }
        let fs = PrestoS3FileSystem::new(
            store.clone(),
            S3FsConfig { lazy_seek: lazy, ..S3FsConfig::default() },
        );
        let t0 = clock.now();
        for f in 0..files {
            let mut stream = fs.open(&format!("/b/file{f}")).unwrap();
            // footer dance: tail, then footer body, then two chunks — with a
            // couple of superseded seeks (stats said "skip this chunk")
            stream.seek(4 * 1024 * 1024 - 8).unwrap();
            stream.read(8).unwrap();
            stream.seek(4 * 1024 * 1024 - 4096).unwrap();
            stream.read(4096).unwrap();
            stream.seek(1024).unwrap(); // chunk A... actually skipped
            stream.seek(2 * 1024 * 1024).unwrap(); // chunk B
            stream.read(65536).unwrap();
        }
        (store.metrics().get(names::S3_GET), clock.now() - t0)
    };
    let (eager_gets, eager_time) = run(false);
    let (lazy_gets, lazy_time) = run(true);
    LazySeekResult { eager_gets, lazy_gets, eager_time, lazy_time }
}

/// Backoff comparison under transient faults.
#[derive(Debug, Clone)]
pub struct BackoffResult {
    /// Reads completed (out of attempted) with retries enabled.
    pub completed_with_retries: usize,
    /// Reads completed with no retry policy (max_retries = 0).
    pub completed_without_retries: usize,
    /// Retries performed.
    pub retries: u64,
    /// Virtual time spent backing off.
    pub backoff_time: Duration,
}

/// Issue `reads` reads against a store that fails every `fail_every`-th
/// request.
pub fn backoff(reads: usize, fail_every: u64) -> BackoffResult {
    let run = |max_retries: u32| -> (usize, u64, Duration) {
        let clock = SimClock::new();
        let metrics = CounterSet::new();
        let store = S3ObjectStore::new(S3Config { fail_every }, clock, metrics.clone());
        store.seed("/b/data", &vec![1u8; 1024]);
        let fs = PrestoS3FileSystem::new(
            store,
            S3FsConfig { max_retries, exponential_backoff: true, ..S3FsConfig::default() },
        );
        let mut completed = 0;
        for _ in 0..reads {
            if fs.read_range("/b/data", 0, 1024).is_ok() {
                completed += 1;
            }
        }
        (
            completed,
            metrics.get(names::S3FS_RETRIES),
            Duration::from_nanos(metrics.get(names::S3FS_BACKOFF_NANOS)),
        )
    };
    let (completed_with_retries, retries, backoff_time) = run(6);
    let (completed_without_retries, _, _) = run(0);
    BackoffResult { completed_with_retries, completed_without_retries, retries, backoff_time }
}

/// S3-Select comparison: bytes out with projection pushed to storage.
#[derive(Debug, Clone)]
pub struct SelectResult {
    /// Bytes a full GET moves.
    pub full_bytes: u64,
    /// Bytes S3 Select moves for a 2-of-8-column projection.
    pub select_bytes: u64,
}

/// Store a delimited 8-column object and read 2 columns both ways.
pub fn s3_select(rows: usize) -> SelectResult {
    let store = S3ObjectStore::with_defaults();
    let mut body = String::new();
    for i in 0..rows {
        let fields: Vec<String> = (0..8).map(|c| format!("value_{i}_{c}")).collect();
        body.push_str(&fields.join("\x1f"));
        body.push('\n');
    }
    store.seed("/b/table", body.as_bytes());

    store.metrics().reset();
    store.get_object("/b/table", None).unwrap();
    let full_bytes = store.metrics().get(names::S3_BYTES_OUT);

    store.metrics().reset();
    store.select_object("/b/table", &[0, 4]).unwrap();
    let select_bytes = store.metrics().get(names::S3_BYTES_OUT);
    SelectResult { full_bytes, select_bytes }
}

/// Multipart upload comparison: virtual time to upload one large object.
#[derive(Debug, Clone)]
pub struct MultipartResult {
    /// Virtual time with a single PUT.
    pub single_put: Duration,
    /// Virtual time with parallel multipart upload.
    pub multipart: Duration,
}

/// Upload `mb` megabytes once as a single object, once multipart.
pub fn multipart(mb: usize) -> MultipartResult {
    let data = vec![7u8; mb * 1024 * 1024];
    let run = |threshold: usize| -> Duration {
        let clock = SimClock::new();
        let store = S3ObjectStore::new(S3Config::default(), clock.clone(), CounterSet::new());
        let fs = PrestoS3FileSystem::new(
            store,
            S3FsConfig {
                multipart_threshold: threshold,
                part_size: 4 * 1024 * 1024,
                ..S3FsConfig::default()
            },
        );
        let t0 = clock.now();
        fs.write("/b/big", &data).unwrap();
        clock.now() - t0
    };
    MultipartResult { single_put: run(usize::MAX), multipart: run(1) }
}

fn lazy_seek_gate(r: &LazySeekResult) -> Gate {
    let passed = r.lazy_gets < r.eager_gets && r.lazy_time < r.eager_time;
    Gate::new("lazy seek saves GETs and time", passed, format!("{r:?}"))
}

fn backoff_gate(r: &BackoffResult, reads: usize) -> Gate {
    let passed = r.completed_with_retries == reads && r.retries > 0;
    Gate::new("backoff completes every read", passed, format!("{r:?}"))
}

fn select_gate(r: &SelectResult) -> Gate {
    let passed = r.select_bytes * 2 < r.full_bytes;
    Gate::new("S3 Select moves under half the bytes", passed, format!("{r:?}"))
}

fn multipart_gate(r: &MultipartResult) -> Gate {
    Gate::new("multipart beats a single PUT", r.multipart < r.single_put, format!("{r:?}"))
}

/// `paper-experiments s3`: each optimization on vs off.
pub fn report() -> Result<Report> {
    let mut report = Report::new("\n=== §IX: PrestoS3FileSystem optimizations ===\n");
    let lazy = lazy_seek(50);
    let mut table = Table::new(
        "lazy seek (footer-first access over 50 files)",
        &["policy", "GET requests", "virtual time"],
    );
    table.row(vec!["eager seek".into(), lazy.eager_gets.to_string(), ms(lazy.eager_time)]);
    table.row(vec!["lazy seek".into(), lazy.lazy_gets.to_string(), ms(lazy.lazy_time)]);
    report.line(table.render());

    let backoff = backoff(200, 3);
    let mut table = Table::new(
        "exponential backoff (503 every 3rd request)",
        &["policy", "reads completed", "retries", "time backing off"],
    );
    table.row(vec![
        "no retries".into(),
        format!("{}/200", backoff.completed_without_retries),
        "0".into(),
        "0ms".into(),
    ]);
    table.row(vec![
        "exponential backoff".into(),
        format!("{}/200", backoff.completed_with_retries),
        backoff.retries.to_string(),
        ms(backoff.backoff_time),
    ]);
    report.line(table.render());

    let select = s3_select(20_000);
    let mut table = Table::new("S3 Select (project 2 of 8 columns)", &["path", "bytes out of S3"]);
    table.row(vec!["full GET".into(), select.full_bytes.to_string()]);
    table.row(vec!["S3 Select".into(), select.select_bytes.to_string()]);
    report.line(table.render());

    let multi = multipart(64);
    let mut table = Table::new(
        "multipart upload (64 MiB object, 4 MiB parts)",
        &["path", "virtual upload time", "effective throughput"],
    );
    for (path, took) in
        [("single PUT", multi.single_put), ("multipart (parallel parts)", multi.multipart)]
    {
        table.row(vec![path.into(), ms(took), mbps(64 * 1024 * 1024, took)]);
    }
    report.line(table.render());
    report.gates = vec![
        lazy_seek_gate(&lazy),
        backoff_gate(&backoff, 200),
        select_gate(&select),
        multipart_gate(&multi),
    ];
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_gates;

    #[test]
    fn lazy_seek_saves_requests_and_time() {
        assert_gates(&[lazy_seek_gate(&lazy_seek(10))]);
    }

    #[test]
    fn backoff_survives_fault_bursts() {
        let r = backoff(100, 3);
        assert_gates(&[backoff_gate(&r, 100)]);
        assert!(r.completed_without_retries < 100);
    }

    #[test]
    fn select_moves_fewer_bytes() {
        assert_gates(&[select_gate(&s3_select(500))]);
    }

    #[test]
    fn multipart_is_faster_for_big_objects() {
        assert_gates(&[multipart_gate(&multipart(32))]);
    }
}
