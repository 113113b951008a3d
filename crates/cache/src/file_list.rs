//! Coordinator-side file list cache (§VII.A).
//!
//! "Presto coordinator caches file lists in memory to avoid long listFile
//! calls to remote storage ... This can only be applied to sealed
//! directories. For open partitions, Presto will skip caching those
//! directories to guarantee data freshness."

use std::collections::BTreeMap;
use std::sync::Arc;

use presto_common::metrics::{names, CounterSet};
use presto_common::sync::{Rank, RwLock};
use presto_common::Result;
use presto_storage::{FileStatus, FileSystem};

/// File list cache over a remote filesystem.
///
/// Counters: `flc.hits`, `flc.misses`, `flc.bypass_open_partition`.
/// Cloning shares the cache.
#[derive(Clone)]
pub struct FileListCache {
    fs: Arc<dyn FileSystem>,
    cache: Arc<RwLock<BTreeMap<String, Arc<Vec<FileStatus>>>>>,
    metrics: CounterSet,
}

impl FileListCache {
    /// Cache in front of `fs`, reporting to `metrics`.
    pub fn new(fs: Arc<dyn FileSystem>, metrics: CounterSet) -> FileListCache {
        FileListCache {
            fs,
            cache: Arc::new(RwLock::new(Rank::FileListCache, BTreeMap::new())),
            metrics,
        }
    }

    /// List a partition directory. `sealed = false` (an open partition being
    /// actively written by near-real-time ingestion) always goes to storage.
    pub fn list_partition(&self, dir: &str, sealed: bool) -> Result<Arc<Vec<FileStatus>>> {
        if !sealed {
            // Freshness over speed: micro-batch ingestion keeps appending
            // files to open partitions, so serving a stale list would hide
            // near-real-time data.
            self.metrics.incr(names::FLC_BYPASS_OPEN_PARTITION);
            return Ok(Arc::new(self.fs.list_files(dir)?));
        }
        if let Some(cached) = self.cache.read().get(dir) {
            self.metrics.incr(names::FLC_HITS);
            return Ok(cached.clone());
        }
        self.metrics.incr(names::FLC_MISSES);
        let listed = Arc::new(self.fs.list_files(dir)?);
        self.cache.write().insert(dir.to_string(), listed.clone());
        Ok(listed)
    }

    /// Drop a cached directory (e.g. when a partition is rewritten by a
    /// compaction job).
    pub fn invalidate(&self, dir: &str) {
        self.cache.write().remove(dir);
    }

    /// Number of cached directories.
    pub fn cached_directories(&self) -> usize {
        self.cache.read().len()
    }

    /// The shared counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_storage::HdfsFileSystem;

    fn hdfs_with_files() -> HdfsFileSystem {
        let hdfs = HdfsFileSystem::with_defaults();
        for p in 0..3 {
            for f in 0..4 {
                hdfs.backing_store()
                    .write(&format!("/warehouse/trips/datestr={p}/part-{f}"), b"data")
                    .unwrap();
            }
        }
        hdfs
    }

    #[test]
    fn sealed_partitions_hit_cache_after_first_list() {
        let hdfs = hdfs_with_files();
        let cache = FileListCache::new(Arc::new(hdfs.clone()), CounterSet::new());
        for _ in 0..10 {
            let files = cache.list_partition("/warehouse/trips/datestr=0", true).unwrap();
            assert_eq!(files.len(), 4);
        }
        assert_eq!(cache.metrics().get(names::FLC_MISSES), 1);
        assert_eq!(cache.metrics().get(names::FLC_HITS), 9);
        // the remote NameNode saw exactly one listFiles
        assert_eq!(hdfs.metrics().get(names::HDFS_LIST_FILES), 1);
    }

    #[test]
    fn open_partitions_always_see_fresh_files() {
        let hdfs = hdfs_with_files();
        let cache = FileListCache::new(Arc::new(hdfs.clone()), CounterSet::new());
        let open_dir = "/warehouse/trips/datestr=2";
        assert_eq!(cache.list_partition(open_dir, false).unwrap().len(), 4);
        // micro-batch ingestion appends a new file
        hdfs.backing_store().write(&format!("{open_dir}/part-new"), b"fresh").unwrap();
        // an open partition must see it immediately
        assert_eq!(cache.list_partition(open_dir, false).unwrap().len(), 5);
        assert_eq!(cache.metrics().get(names::FLC_BYPASS_OPEN_PARTITION), 2);
        assert_eq!(cache.cached_directories(), 0);
    }

    #[test]
    fn sealed_cache_serves_stale_until_invalidated() {
        let hdfs = hdfs_with_files();
        let cache = FileListCache::new(Arc::new(hdfs.clone()), CounterSet::new());
        let dir = "/warehouse/trips/datestr=1";
        assert_eq!(cache.list_partition(dir, true).unwrap().len(), 4);
        hdfs.backing_store().write(&format!("{dir}/part-late"), b"x").unwrap();
        // sealed: still the cached 4 (that's the contract)
        assert_eq!(cache.list_partition(dir, true).unwrap().len(), 4);
        cache.invalidate(dir);
        assert_eq!(cache.list_partition(dir, true).unwrap().len(), 5);
    }
}
