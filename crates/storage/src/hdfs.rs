//! HDFS simulator with a single NameNode cost model.
//!
//! §VII: "we found the single Hadoop Distributed File System (HDFS) NameNode
//! listFiles performance degradation, could hurt Presto performance badly."
//! This simulator routes every metadata operation (`list_files`,
//! `get_file_info`) through one NameNode whose virtual latency grows with
//! directory size — the cost that motivates the §VII caches. Data reads go
//! to (simulated) DataNodes and are charged per byte.

use std::time::Duration;

use presto_common::metrics::{names, CounterSet};
use presto_common::{Result, SimClock};

use crate::fs::{FileStatus, FileSystem};
use crate::memory::InMemoryFileSystem;

/// Fixed NameNode RPC cost.
const NAMENODE_BASE_LATENCY: Duration = Duration::from_micros(500);
/// Additional `list_files` cost per directory entry.
const LIST_PER_ENTRY: Duration = Duration::from_micros(20);
/// Fixed DataNode round-trip cost per read request.
const READ_BASE_LATENCY: Duration = Duration::from_millis(1);
/// DataNode read cost per megabyte.
const READ_PER_MB: Duration = Duration::from_millis(8);

/// The HDFS simulator. Cloning shares the filesystem, clock and counters.
///
/// Counters recorded: `hdfs.list_files`, `hdfs.get_file_info`,
/// `hdfs.read_ops`, `hdfs.read_bytes`, `hdfs.write_ops`.
#[derive(Clone)]
pub struct HdfsFileSystem {
    store: InMemoryFileSystem,
    clock: SimClock,
    metrics: CounterSet,
}

impl HdfsFileSystem {
    /// Simulator over a fresh in-memory store, with a private clock and
    /// counters.
    pub fn with_defaults() -> HdfsFileSystem {
        HdfsFileSystem {
            store: InMemoryFileSystem::new(),
            clock: SimClock::new(),
            metrics: CounterSet::new(),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shared call counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Direct access to the backing store (bypasses the cost model); used by
    /// test fixtures that need to seed data without charging virtual time.
    pub fn backing_store(&self) -> &InMemoryFileSystem {
        &self.store
    }

    fn charge_namenode(&self, entries: usize) {
        self.clock.advance(NAMENODE_BASE_LATENCY + LIST_PER_ENTRY * entries as u32);
    }
}

impl FileSystem for HdfsFileSystem {
    fn list_files(&self, dir: &str) -> Result<Vec<FileStatus>> {
        self.metrics.incr(names::HDFS_LIST_FILES);
        let listed = self.store.list_files(dir)?;
        self.charge_namenode(listed.len());
        Ok(listed)
    }

    fn get_file_info(&self, path: &str) -> Result<FileStatus> {
        self.metrics.incr(names::HDFS_GET_FILE_INFO);
        self.charge_namenode(1);
        self.store.get_file_info(path)
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.metrics.incr(names::HDFS_READ_OPS);
        self.metrics.add(names::HDFS_READ_BYTES, len);
        let per_mb = READ_PER_MB.as_nanos() as f64;
        let cost = per_mb * (len as f64 / (1024.0 * 1024.0));
        self.clock.advance(READ_BASE_LATENCY + Duration::from_nanos(cost as u64));
        self.store.read_range(path, offset, len)
    }

    fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        self.metrics.incr(names::HDFS_WRITE_OPS);
        self.charge_namenode(1);
        self.store.write(path, data)
    }

    fn delete(&self, path: &str) -> Result<()> {
        self.metrics.incr(names::HDFS_DELETE_OPS);
        self.charge_namenode(1);
        self.store.delete(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_calls_are_counted_and_charged() {
        let hdfs = HdfsFileSystem::with_defaults();
        hdfs.write("/t/p1/f1", b"abc").unwrap();
        hdfs.write("/t/p1/f2", b"defg").unwrap();

        let before = hdfs.clock().now();
        let listed = hdfs.list_files("/t/p1").unwrap();
        assert_eq!(listed.len(), 2);
        assert!(hdfs.clock().now() > before, "listFiles must cost virtual time");
        assert_eq!(hdfs.metrics().get(names::HDFS_LIST_FILES), 1);

        hdfs.get_file_info("/t/p1/f1").unwrap();
        assert_eq!(hdfs.metrics().get(names::HDFS_GET_FILE_INFO), 1);
    }

    #[test]
    fn bigger_directories_cost_more_to_list() {
        let small = HdfsFileSystem::with_defaults();
        small.backing_store().write("/d/f0", b"x").unwrap();
        let t0 = small.clock().now();
        small.list_files("/d").unwrap();
        let small_cost = small.clock().now() - t0;

        let big = HdfsFileSystem::with_defaults();
        for i in 0..1000 {
            big.backing_store().write(&format!("/d/f{i}"), b"x").unwrap();
        }
        let t0 = big.clock().now();
        big.list_files("/d").unwrap();
        let big_cost = big.clock().now() - t0;

        assert!(big_cost > small_cost * 10, "{big_cost:?} vs {small_cost:?}");
    }

    #[test]
    fn reads_charge_per_byte_and_count() {
        let hdfs = HdfsFileSystem::with_defaults();
        hdfs.backing_store().write("/f", &vec![0u8; 2 * 1024 * 1024]).unwrap();
        let t0 = hdfs.clock().now();
        let data = hdfs.read_range("/f", 0, 1024 * 1024).unwrap();
        assert_eq!(data.len(), 1024 * 1024);
        assert!(hdfs.clock().now() - t0 >= Duration::from_millis(7));
        assert_eq!(hdfs.metrics().get(names::HDFS_READ_BYTES), 1024 * 1024);
    }
}
