//! Worker-side file handle and footer caches (§VII.B).
//!
//! "Presto worker caches the file descriptors in memory to avoid long
//! getFileInfo calls to remote storage. Also, a worker caches common
//! columnar files and stripe footers in memory ... due to the high hit rate
//! of footers as they are the indexes to the data itself."

use std::sync::Arc;

use presto_common::metrics::{names, CounterSet};
use presto_common::Result;
use presto_parquet::reader::{read_metadata, FsSource};
use presto_parquet::FileMetadata;
use presto_storage::{FileStatus, FileSystem};

use crate::lru::LruCache;

/// Caches `getFileInfo` results (file descriptors) per worker.
///
/// Counters: `fhc.hits`, `fhc.misses`.
#[derive(Clone)]
pub struct FileHandleCache {
    fs: Arc<dyn FileSystem>,
    cache: LruCache<String, FileStatus>,
    metrics: CounterSet,
}

impl FileHandleCache {
    /// Cache of at most `capacity` handles in front of `fs`.
    pub fn new(fs: Arc<dyn FileSystem>, capacity: usize, metrics: CounterSet) -> FileHandleCache {
        FileHandleCache { fs, cache: LruCache::new(capacity), metrics }
    }

    /// Stat a file, serving repeats from memory.
    pub fn get_file_info(&self, path: &str) -> Result<Arc<FileStatus>> {
        if let Some(hit) = self.cache.get(&path.to_string()) {
            self.metrics.incr(names::FHC_HITS);
            return Ok(hit);
        }
        self.metrics.incr(names::FHC_MISSES);
        let status = Arc::new(self.fs.get_file_info(path)?);
        self.cache.put(path.to_string(), status.clone());
        Ok(status)
    }

    /// Drop one cached handle.
    pub fn invalidate(&self, path: &str) {
        self.cache.invalidate(&path.to_string());
    }

    /// The underlying filesystem.
    pub fn filesystem(&self) -> &Arc<dyn FileSystem> {
        &self.fs
    }

    /// The shared counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }
}

/// Caches decoded file footers ([`FileMetadata`]) per worker.
///
/// Counters: `ftc.hits`, `ftc.misses`.
#[derive(Clone)]
pub struct FooterCache {
    handles: FileHandleCache,
    cache: LruCache<String, FileMetadata>,
    metrics: CounterSet,
}

impl FooterCache {
    /// Footer cache of at most `capacity` footers, stacked on a handle cache
    /// (footer reads need the file size, so a footer hit also saves the
    /// `getFileInfo`).
    pub fn new(handles: FileHandleCache, capacity: usize, metrics: CounterSet) -> FooterCache {
        FooterCache { handles, cache: LruCache::new(capacity), metrics }
    }

    /// Load a file's footer, serving repeats from memory.
    pub fn get_footer(&self, path: &str) -> Result<Arc<FileMetadata>> {
        if let Some(hit) = self.cache.get(&path.to_string()) {
            self.metrics.incr(names::FTC_HITS);
            return Ok(hit);
        }
        self.metrics.incr(names::FTC_MISSES);
        let status = self.handles.get_file_info(path)?;
        let source = FsSource::open_with_size(self.handles.filesystem().clone(), path, status.size);
        let meta = Arc::new(read_metadata(&source)?);
        self.cache.put(path.to_string(), meta.clone());
        Ok(meta)
    }

    /// The shared counters.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Drop one cached footer — and its file handle, whose cached size
    /// would otherwise misplace the footer of a rewritten file.
    pub fn invalidate(&self, path: &str) {
        self.cache.invalidate(&path.to_string());
        self.handles.invalidate(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{Block, DataType, Field, Page, Schema};
    use presto_parquet::{FileWriter, WriterMode, WriterProperties};
    use presto_storage::HdfsFileSystem;

    fn hdfs_with_parquet(paths: &[&str]) -> HdfsFileSystem {
        let hdfs = HdfsFileSystem::with_defaults();
        let schema = Schema::new(vec![Field::new("x", DataType::Bigint)]).unwrap();
        for p in paths {
            let mut w =
                FileWriter::new(schema.clone(), WriterProperties::default(), WriterMode::Native)
                    .unwrap();
            w.write_page(&Page::new(vec![Block::bigint(vec![1, 2, 3])]).unwrap()).unwrap();
            hdfs.backing_store().write(p, &w.finish().unwrap()).unwrap();
        }
        hdfs
    }

    #[test]
    fn handle_cache_absorbs_get_file_info() {
        let hdfs = hdfs_with_parquet(&["/t/f1"]);
        let cache = FileHandleCache::new(Arc::new(hdfs.clone()), 16, CounterSet::new());
        for _ in 0..10 {
            assert!(cache.get_file_info("/t/f1").unwrap().size > 0);
        }
        assert_eq!(cache.metrics().get(names::FHC_MISSES), 1);
        assert_eq!(cache.metrics().get(names::FHC_HITS), 9);
        assert_eq!(hdfs.metrics().get(names::HDFS_GET_FILE_INFO), 1);
    }

    #[test]
    fn footer_cache_decodes_once() {
        let hdfs = hdfs_with_parquet(&["/t/f1"]);
        let metrics = CounterSet::new();
        let handles = FileHandleCache::new(Arc::new(hdfs.clone()), 16, metrics.clone());
        let footers = FooterCache::new(handles, 16, metrics.clone());
        for _ in 0..10 {
            let meta = footers.get_footer("/t/f1").unwrap();
            assert_eq!(meta.num_rows, 3);
        }
        assert_eq!(metrics.get(names::FTC_MISSES), 1);
        assert_eq!(metrics.get(names::FTC_HITS), 9);
        // footer bytes were read from storage exactly twice (tail + body)
        assert_eq!(hdfs.metrics().get(names::HDFS_READ_OPS), 2);
    }

    #[test]
    fn capacity_eviction_reloads() {
        let hdfs = hdfs_with_parquet(&["/t/f1", "/t/f2", "/t/f3"]);
        let metrics = CounterSet::new();
        let handles = FileHandleCache::new(Arc::new(hdfs), 16, metrics.clone());
        let footers = FooterCache::new(handles, 2, metrics.clone());
        footers.get_footer("/t/f1").unwrap();
        footers.get_footer("/t/f2").unwrap();
        footers.get_footer("/t/f3").unwrap(); // evicts f1
        footers.get_footer("/t/f1").unwrap(); // miss again
        assert_eq!(metrics.get(names::FTC_MISSES), 4);
    }

    #[test]
    fn invalidate_forces_reload() {
        let hdfs = hdfs_with_parquet(&["/t/f1"]);
        let metrics = CounterSet::new();
        let handles = FileHandleCache::new(Arc::new(hdfs), 4, metrics.clone());
        let footers = FooterCache::new(handles, 4, metrics.clone());
        footers.get_footer("/t/f1").unwrap();
        footers.invalidate("/t/f1");
        footers.get_footer("/t/f1").unwrap();
        assert_eq!(metrics.get(names::FTC_MISSES), 2);
    }
}
