//! Amazon S3 simulator and the `PrestoS3FileSystem` of §IX.
//!
//! "Amazon S3 is an object storage system. To support general FileSystem api
//! and run it efficiently for Presto, we did a number of optimizations:
//! (1) Lazy seek ... (2) Exponential backoff ... (3) Leverage Amazon S3
//! select ... (4) Multi-part upload."
//!
//! [`S3ObjectStore`] models the remote side: every request costs virtual
//! latency, requests are counted, and transient `503 SlowDown` faults can be
//! injected deterministically. [`PrestoS3FileSystem`] implements
//! [`FileSystem`] on top with each of the four optimizations individually
//! toggleable so the §IX experiments can measure their effect.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use presto_common::metrics::{names, CounterSet};
use presto_common::{PrestoError, Result, SimClock};

use crate::fs::{is_direct_child, normalize, FileStatus, FileSystem};

/// First-byte latency of every request.
const REQUEST_LATENCY: Duration = Duration::from_millis(15);
/// Transfer cost per megabyte moved.
const TRANSFER_PER_MB: Duration = Duration::from_millis(10);

/// Behaviour of the simulated S3 endpoint.
#[derive(Debug, Clone, Default)]
pub struct S3Config {
    /// Inject a transient `503 SlowDown` on every k-th request (0 = never).
    pub fail_every: u64,
}

/// Uploaded-but-uncommitted multipart parts, by key.
type PendingParts = BTreeMap<String, Vec<(u32, Vec<u8>)>>;

/// The remote object store. Cloning shares objects, clock, metrics.
///
/// Counters: `s3.requests`, `s3.get`, `s3.put`, `s3.head`, `s3.list`,
/// `s3.select`, `s3.upload_part`, `s3.bytes_out`, `s3.bytes_in`,
/// `s3.faults_injected`.
#[derive(Clone)]
pub struct S3ObjectStore {
    objects: Arc<RwLock<BTreeMap<String, Arc<Vec<u8>>>>>,
    pending_multipart: Arc<Mutex<PendingParts>>,
    config: Arc<S3Config>,
    clock: SimClock,
    metrics: CounterSet,
    request_seq: Arc<AtomicU64>,
}

impl S3ObjectStore {
    /// New store.
    pub fn new(config: S3Config, clock: SimClock, metrics: CounterSet) -> S3ObjectStore {
        S3ObjectStore {
            objects: Arc::new(RwLock::new(BTreeMap::new())),
            pending_multipart: Arc::new(Mutex::new(BTreeMap::new())),
            config: Arc::new(config),
            clock,
            metrics,
            request_seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Store with default config and private clock/metrics.
    pub fn with_defaults() -> S3ObjectStore {
        S3ObjectStore::new(S3Config::default(), SimClock::new(), CounterSet::new())
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared request counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Seed an object without charging requests or time (test fixtures).
    pub fn seed(&self, key: &str, data: &[u8]) {
        self.objects.write().insert(normalize(key), Arc::new(data.to_vec()));
    }

    /// Start a request: charge latency, maybe inject a transient fault.
    fn begin_request(&self, kind: &str) -> Result<()> {
        self.metrics.incr(names::S3_REQUESTS);
        self.metrics.incr(&format!("s3.{kind}"));
        self.clock.advance(REQUEST_LATENCY);
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.fail_every > 0 && seq.is_multiple_of(self.config.fail_every) {
            self.metrics.incr(names::S3_FAULTS_INJECTED);
            return Err(PrestoError::Storage("503 SlowDown (transient)".into()));
        }
        Ok(())
    }

    fn charge_transfer(&self, bytes: u64) {
        let cost = TRANSFER_PER_MB.as_nanos() as f64 * (bytes as f64 / (1024.0 * 1024.0));
        self.clock.advance(Duration::from_nanos(cost as u64));
    }

    /// `GET` with an optional byte range.
    pub fn get_object(&self, key: &str, range: Option<(u64, u64)>) -> Result<Vec<u8>> {
        self.begin_request("get")?;
        let objects = self.objects.read();
        let data = objects
            .get(&normalize(key))
            .ok_or_else(|| PrestoError::Storage(format!("NoSuchKey: {key}")))?;
        let out = match range {
            None => data.as_ref().clone(),
            Some((offset, len)) => {
                let start = offset as usize;
                let end = (offset + len) as usize;
                if end > data.len() {
                    return Err(PrestoError::Storage(format!(
                        "InvalidRange: [{start}, {end}) of {}",
                        data.len()
                    )));
                }
                data[start..end].to_vec()
            }
        };
        self.metrics.add(names::S3_BYTES_OUT, out.len() as u64);
        self.charge_transfer(out.len() as u64);
        Ok(out)
    }

    /// `PUT` a whole object.
    pub fn put_object(&self, key: &str, data: &[u8]) -> Result<()> {
        self.begin_request("put")?;
        self.metrics.add(names::S3_BYTES_IN, data.len() as u64);
        self.charge_transfer(data.len() as u64);
        self.objects.write().insert(normalize(key), Arc::new(data.to_vec()));
        Ok(())
    }

    /// `HEAD` an object.
    pub fn head_object(&self, key: &str) -> Result<FileStatus> {
        self.begin_request("head")?;
        let objects = self.objects.read();
        let key = normalize(key);
        objects
            .get(&key)
            .map(|d| FileStatus { path: key.clone(), size: d.len() as u64 })
            .ok_or_else(|| PrestoError::Storage(format!("NoSuchKey: {key}")))
    }

    /// `LIST` immediate children of a prefix.
    pub fn list_prefix(&self, prefix: &str) -> Result<Vec<FileStatus>> {
        self.begin_request("list")?;
        let prefix = normalize(prefix);
        let objects = self.objects.read();
        Ok(objects
            .iter()
            .filter(|(k, _)| is_direct_child(&prefix, k))
            .map(|(k, d)| FileStatus { path: k.clone(), size: d.len() as u64 })
            .collect())
    }

    /// `DELETE` an object.
    pub fn delete_object(&self, key: &str) -> Result<()> {
        self.begin_request("delete")?;
        self.objects
            .write()
            .remove(&normalize(key))
            .map(|_| ())
            .ok_or_else(|| PrestoError::Storage(format!("NoSuchKey: {key}")))
    }

    /// S3 Select (§IX optimization 3): the object is interpreted as
    /// newline-separated records of `\x1f`-separated fields, and only the
    /// requested field indices are returned — projection pushdown to storage,
    /// so bytes-out shrink with the projection.
    pub fn select_object(&self, key: &str, field_indices: &[usize]) -> Result<Vec<u8>> {
        self.begin_request("select")?;
        let objects = self.objects.read();
        let data = objects
            .get(&normalize(key))
            .ok_or_else(|| PrestoError::Storage(format!("NoSuchKey: {key}")))?;
        let text = String::from_utf8_lossy(data);
        let mut out = String::new();
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\x1f').collect();
            let mut first = true;
            for &i in field_indices {
                if !first {
                    out.push('\x1f');
                }
                out.push_str(fields.get(i).copied().unwrap_or(""));
                first = false;
            }
            out.push('\n');
        }
        let bytes = out.into_bytes();
        self.metrics.add(names::S3_BYTES_OUT, bytes.len() as u64);
        self.charge_transfer(bytes.len() as u64);
        Ok(bytes)
    }

    /// Upload one part of a multipart upload (§IX optimization 4). Parts are
    /// assembled by [`S3ObjectStore::complete_multipart`]. Part uploads for
    /// the same key run "in parallel": the caller charges only the max part
    /// time, which [`PrestoS3FileSystem`] arranges by charging transfer for
    /// the largest part.
    pub fn upload_part(&self, key: &str, part_number: u32, data: &[u8]) -> Result<()> {
        self.begin_request("upload_part")?;
        self.metrics.add(names::S3_BYTES_IN, data.len() as u64);
        self.pending_multipart
            .lock()
            .entry(normalize(key))
            .or_default()
            .push((part_number, data.to_vec()));
        Ok(())
    }

    /// Complete a multipart upload, stitching parts in part-number order.
    pub fn complete_multipart(&self, key: &str) -> Result<()> {
        self.begin_request("complete_multipart")?;
        let mut pending = self.pending_multipart.lock();
        let mut parts = pending
            .remove(&normalize(key))
            .ok_or_else(|| PrestoError::Storage(format!("no multipart upload for {key}")))?;
        parts.sort_by_key(|(n, _)| *n);
        let mut data = Vec::new();
        for (_, part) in parts {
            data.extend_from_slice(&part);
        }
        self.objects.write().insert(normalize(key), Arc::new(data));
        Ok(())
    }
}

/// Retry/backoff, seek, and upload policy for [`PrestoS3FileSystem`].
#[derive(Debug, Clone)]
pub struct S3FsConfig {
    /// Lazy seek (§IX opt 1): defer the GET until a read actually needs data.
    pub lazy_seek: bool,
    /// Exponential backoff (§IX opt 2): double the wait per retry; when
    /// false, waits are constant (the naive policy).
    pub exponential_backoff: bool,
    /// Max retries for transient errors before giving up.
    pub max_retries: u32,
    /// First backoff wait.
    pub backoff_base: Duration,
    /// Objects at least this large upload via multipart (§IX opt 4).
    pub multipart_threshold: usize,
    /// Multipart part size.
    pub part_size: usize,
    /// Readahead issued per GET by streams.
    pub readahead: usize,
}

impl Default for S3FsConfig {
    fn default() -> Self {
        S3FsConfig {
            lazy_seek: true,
            exponential_backoff: true,
            max_retries: 6,
            backoff_base: Duration::from_millis(50),
            multipart_threshold: 8 * 1024 * 1024,
            part_size: 4 * 1024 * 1024,
            readahead: 64 * 1024,
        }
    }
}

/// `FileSystem` facade over S3 — the paper's `PrestoS3FileSystem` (§IX).
///
/// Counters: `s3fs.retries`, `s3fs.backoff_nanos`, `s3fs.multipart_uploads`,
/// `s3fs.seeks`, `s3fs.seek_fetches_avoided`.
#[derive(Clone)]
pub struct PrestoS3FileSystem {
    store: S3ObjectStore,
    config: Arc<S3FsConfig>,
}

impl PrestoS3FileSystem {
    /// Wrap an object store.
    pub fn new(store: S3ObjectStore, config: S3FsConfig) -> PrestoS3FileSystem {
        PrestoS3FileSystem { store, config: Arc::new(config) }
    }

    /// The underlying store.
    pub fn store(&self) -> &S3ObjectStore {
        &self.store
    }

    /// Run `op` with the configured retry/backoff policy.
    fn with_retries<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let metrics = self.store.metrics().clone();
        let clock = self.store.clock().clone();
        let mut wait = self.config.backoff_base;
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(PrestoError::Storage(msg)) if msg.contains("transient") => {
                    if attempt >= self.config.max_retries {
                        // Non-retryable at *this* layer — the local backoff
                        // budget is spent — but classified retryable so the
                        // coordinator may reschedule the split on another
                        // worker, where it gets a fresh budget.
                        return Err(PrestoError::TransientExhausted(format!(
                            "giving up after {attempt} retries: {msg}"
                        )));
                    }
                    metrics.incr(names::S3FS_RETRIES);
                    metrics.add(names::S3FS_BACKOFF_NANOS, wait.as_nanos() as u64);
                    clock.advance(wait);
                    if self.config.exponential_backoff {
                        wait *= 2;
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Open a seekable input stream over an object.
    pub fn open(&self, path: &str) -> Result<S3InputStream> {
        let status = self.get_file_info(path)?;
        Ok(S3InputStream {
            fs: self.clone(),
            path: normalize(path),
            size: status.size,
            pos: 0,
            buffer: Vec::new(),
            buffer_start: 0,
            pending_seek: None,
        })
    }
}

impl FileSystem for PrestoS3FileSystem {
    fn list_files(&self, dir: &str) -> Result<Vec<FileStatus>> {
        self.with_retries(|| self.store.list_prefix(dir))
    }

    fn get_file_info(&self, path: &str) -> Result<FileStatus> {
        self.with_retries(|| self.store.head_object(path))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.with_retries(|| self.store.get_object(path, Some((offset, len))))
    }

    fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        if data.len() >= self.config.multipart_threshold {
            // §IX opt 4: split into parts uploaded in parallel. Request
            // latency is charged per part by the store; transfer time is
            // parallel, so charge only the largest part's transfer here.
            self.store.metrics().incr(names::S3FS_MULTIPART_UPLOADS);
            let mut largest = 0usize;
            for (i, chunk) in data.chunks(self.config.part_size).enumerate() {
                let part_number = i as u32 + 1;
                largest = largest.max(chunk.len());
                self.with_retries(|| self.store.upload_part(path, part_number, chunk))?;
            }
            self.store.charge_transfer(largest as u64);
            self.with_retries(|| self.store.complete_multipart(path))
        } else {
            self.with_retries(|| self.store.put_object(path, data))
        }
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.with_retries(|| self.store.delete_object(path))
    }
}

/// Seekable input stream with the lazy-seek optimization (§IX opt 1).
///
/// With lazy seek on, `seek` only records the target position; the GET is
/// issued when (and if) a `read` needs bytes. The Parquet reader seeks to the
/// footer, then to column chunk offsets, often skipping chunks entirely —
/// eager seeks would issue a readahead GET per seek.
pub struct S3InputStream {
    fs: PrestoS3FileSystem,
    path: String,
    size: u64,
    pos: u64,
    buffer: Vec<u8>,
    buffer_start: u64,
    pending_seek: Option<u64>,
}

impl S3InputStream {
    /// Object size.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Current logical position.
    pub fn position(&self) -> u64 {
        self.pending_seek.unwrap_or(self.pos)
    }

    /// Seek to `pos`.
    pub fn seek(&mut self, pos: u64) -> Result<()> {
        let metrics = self.fs.store.metrics().clone();
        metrics.incr(names::S3FS_SEEKS);
        if self.fs.config.lazy_seek {
            // Defer: if another seek or a buffered read supersedes this, no
            // request is ever issued.
            if self.pending_seek.is_some() {
                metrics.incr(names::S3FS_SEEK_FETCHES_AVOIDED);
            }
            self.pending_seek = Some(pos);
            Ok(())
        } else {
            // Eager (naive) policy: fetch readahead at the target now.
            self.pos = pos;
            self.fill_buffer(pos)
        }
    }

    fn fill_buffer(&mut self, from: u64) -> Result<()> {
        let len = (self.fs.config.readahead as u64).min(self.size.saturating_sub(from));
        if len == 0 {
            self.buffer.clear();
            self.buffer_start = from;
            return Ok(());
        }
        self.buffer = self.fs.read_range(&self.path, from, len)?;
        self.buffer_start = from;
        Ok(())
    }

    /// Read up to `len` bytes from the current position.
    pub fn read(&mut self, len: usize) -> Result<Vec<u8>> {
        if let Some(target) = self.pending_seek.take() {
            self.pos = target;
        }
        let want = (len as u64).min(self.size.saturating_sub(self.pos)) as usize;
        if want == 0 {
            return Ok(Vec::new());
        }
        // Serve from buffer when possible.
        let buf_end = self.buffer_start + self.buffer.len() as u64;
        if self.pos >= self.buffer_start && self.pos + want as u64 <= buf_end {
            let start = (self.pos - self.buffer_start) as usize;
            let out = self.buffer[start..start + want].to_vec();
            self.pos += want as u64;
            return Ok(out);
        }
        // Fetch: at least `want`, at most readahead.
        let fetch =
            want.max(self.fs.config.readahead.min(self.size.saturating_sub(self.pos) as usize));
        self.buffer = self.fs.read_range(&self.path, self.pos, fetch as u64)?;
        self.buffer_start = self.pos;
        let out = self.buffer[..want].to_vec();
        self.pos += want as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with(config: S3FsConfig, store_config: S3Config) -> PrestoS3FileSystem {
        let store = S3ObjectStore::new(store_config, SimClock::new(), CounterSet::new());
        PrestoS3FileSystem::new(store, config)
    }

    #[test]
    fn object_crud_and_ranges() {
        let fs = fs_with(S3FsConfig::default(), S3Config::default());
        fs.write("/bucket/key", b"0123456789").unwrap();
        assert_eq!(fs.read("/bucket/key").unwrap(), b"0123456789");
        assert_eq!(fs.read_range("/bucket/key", 2, 3).unwrap(), b"234");
        assert_eq!(fs.get_file_info("/bucket/key").unwrap().size, 10);
        assert_eq!(fs.list_files("/bucket").unwrap().len(), 1);
        fs.delete("/bucket/key").unwrap();
        assert!(fs.read("/bucket/key").is_err());
    }

    #[test]
    fn lazy_seek_avoids_wasted_gets() {
        // Pattern: open, seek A, seek B, read — the Parquet footer dance.
        let run = |lazy: bool| -> u64 {
            let fs = fs_with(
                S3FsConfig { lazy_seek: lazy, ..S3FsConfig::default() },
                S3Config::default(),
            );
            fs.store().seed("/b/f", &vec![7u8; 1024 * 1024]);
            let mut stream = fs.open("/b/f").unwrap();
            for target in [1000u64, 500_000, 900_000] {
                stream.seek(target).unwrap();
            }
            stream.read(100).unwrap();
            fs.store().metrics().get("s3.get")
        };
        let eager_gets = run(false);
        let lazy_gets = run(true);
        assert_eq!(lazy_gets, 1, "lazy seek issues exactly one GET for the final read");
        assert!(eager_gets >= 3, "eager seek issues a GET per seek, got {eager_gets}");
    }

    #[test]
    fn exponential_backoff_survives_fault_bursts() {
        // Fail every 2nd request: a retry storm that constant backoff also
        // survives, but exponential waits longer in total per retry chain.
        let fs = fs_with(
            S3FsConfig { exponential_backoff: true, ..S3FsConfig::default() },
            S3Config { fail_every: 2 },
        );
        fs.store().seed("/b/f", b"data");
        for _ in 0..8 {
            assert_eq!(fs.read_range("/b/f", 0, 4).unwrap(), b"data");
        }
        assert!(fs.store().metrics().get(names::S3FS_RETRIES) > 0);
        assert!(fs.store().metrics().get(names::S3_FAULTS_INJECTED) > 0);
    }

    #[test]
    fn retries_give_up_eventually() {
        let fs = fs_with(
            S3FsConfig { max_retries: 2, ..S3FsConfig::default() },
            S3Config { fail_every: 1 }, // always fail
        );
        fs.store().seed("/b/f", b"data");
        let err = fs.read_range("/b/f", 0, 4).unwrap_err();
        assert!(err.to_string().contains("giving up"));
    }

    #[test]
    fn retry_exhaustion_is_coordinator_retryable() {
        let fs = fs_with(
            S3FsConfig { max_retries: 2, ..S3FsConfig::default() },
            S3Config { fail_every: 1 }, // always fail
        );
        fs.store().seed("/b/f", b"data");
        let err = fs.read_range("/b/f", 0, 4).unwrap_err();
        // the local backoff budget is spent, but the error class tells the
        // coordinator the split may be rescheduled on another worker
        assert_eq!(err.code(), "TRANSIENT_EXHAUSTED");
        assert!(err.is_retryable());
    }

    #[test]
    fn multipart_upload_for_large_objects() {
        let fs = fs_with(
            S3FsConfig { multipart_threshold: 1024, part_size: 400, ..S3FsConfig::default() },
            S3Config::default(),
        );
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 251) as u8).collect();
        fs.write("/b/big", &data).unwrap();
        assert_eq!(fs.store().metrics().get(names::S3FS_MULTIPART_UPLOADS), 1);
        assert_eq!(fs.store().metrics().get("s3.upload_part"), 5);
        assert_eq!(fs.read("/b/big").unwrap(), data);

        // small objects use a single PUT
        fs.write("/b/small", b"tiny").unwrap();
        assert_eq!(fs.store().metrics().get("s3.put"), 1);
    }

    #[test]
    fn s3_select_projects_fields() {
        let store = S3ObjectStore::with_defaults();
        store.seed("/b/t", b"a\x1fb\x1fc\nd\x1fe\x1ff\n");
        let out = store.select_object("/b/t", &[0, 2]).unwrap();
        assert_eq!(out, b"a\x1fc\nd\x1ff\n");
        // fewer bytes than a full GET
        let full = store.get_object("/b/t", None).unwrap();
        assert!(out.len() < full.len());
    }

    #[test]
    fn requests_cost_virtual_time() {
        let store = S3ObjectStore::with_defaults();
        store.seed("/b/f", &vec![0u8; 1024 * 1024]);
        let t0 = store.clock().now();
        store.get_object("/b/f", None).unwrap();
        let elapsed = store.clock().now() - t0;
        assert!(elapsed >= Duration::from_millis(25), "{elapsed:?}");
    }

    #[test]
    fn stream_sequential_reads_use_readahead_buffer() {
        let fs =
            fs_with(S3FsConfig { readahead: 1000, ..S3FsConfig::default() }, S3Config::default());
        fs.store().seed("/b/f", &vec![1u8; 10_000]);
        let mut stream = fs.open("/b/f").unwrap();
        for _ in 0..10 {
            assert_eq!(stream.read(100).unwrap().len(), 100);
        }
        // 1000 bytes of readahead serve ten 100-byte reads with one GET
        assert_eq!(fs.store().metrics().get("s3.get"), 1);
    }
}
