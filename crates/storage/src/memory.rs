//! Zero-latency in-memory filesystem — the backing store beneath the HDFS
//! and S3 simulators, and a convenient standalone filesystem for tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use presto_common::{PrestoError, Result};

use crate::fs::{is_direct_child, normalize, FileStatus, FileSystem};

/// In-memory filesystem. Cloning shares the contents.
#[derive(Debug, Clone, Default)]
pub struct InMemoryFileSystem {
    files: Arc<RwLock<BTreeMap<String, Arc<Vec<u8>>>>>,
}

impl InMemoryFileSystem {
    /// New, empty filesystem.
    pub fn new() -> InMemoryFileSystem {
        InMemoryFileSystem::default()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.read().len()
    }

    /// Total bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|v| v.len() as u64).sum()
    }
}

impl FileSystem for InMemoryFileSystem {
    fn list_files(&self, dir: &str) -> Result<Vec<FileStatus>> {
        let dir = normalize(dir);
        let files = self.files.read();
        Ok(files
            .iter()
            .filter(|(path, _)| is_direct_child(&dir, path))
            .map(|(path, data)| FileStatus { path: path.clone(), size: data.len() as u64 })
            .collect())
    }

    fn get_file_info(&self, path: &str) -> Result<FileStatus> {
        let path = normalize(path);
        let files = self.files.read();
        files
            .get(&path)
            .map(|data| FileStatus { path: path.clone(), size: data.len() as u64 })
            .ok_or_else(|| PrestoError::Storage(format!("no such file: {path}")))
    }

    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        let path = normalize(path);
        let files = self.files.read();
        let data = files
            .get(&path)
            .ok_or_else(|| PrestoError::Storage(format!("no such file: {path}")))?;
        let start = offset as usize;
        let end = (offset + len) as usize;
        if end > data.len() {
            return Err(PrestoError::Storage(format!(
                "read past end of {path}: [{start}, {end}) of {}",
                data.len()
            )));
        }
        Ok(data[start..end].to_vec())
    }

    fn write(&self, path: &str, data: &[u8]) -> Result<()> {
        self.files.write().insert(normalize(path), Arc::new(data.to_vec()));
        Ok(())
    }

    fn delete(&self, path: &str) -> Result<()> {
        let path = normalize(path);
        self.files
            .write()
            .remove(&path)
            .map(|_| ())
            .ok_or_else(|| PrestoError::Storage(format!("no such file: {path}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_list_delete() {
        let fs = InMemoryFileSystem::new();
        fs.write("/warehouse/trips/part-0", b"hello").unwrap();
        fs.write("/warehouse/trips/part-1", b"world!").unwrap();
        fs.write("/warehouse/cities/part-0", b"x").unwrap();

        let listed = fs.list_files("/warehouse/trips").unwrap();
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].size, 5);

        assert_eq!(fs.read("/warehouse/trips/part-1").unwrap(), b"world!");
        assert_eq!(fs.read_range("/warehouse/trips/part-1", 1, 3).unwrap(), b"orl");
        assert!(fs.read_range("/warehouse/trips/part-1", 4, 10).is_err());

        assert_eq!(fs.get_file_info("/warehouse/cities/part-0").unwrap().size, 1);
        assert!(fs.get_file_info("/nope").is_err());

        fs.delete("/warehouse/cities/part-0").unwrap();
        assert!(fs.delete("/warehouse/cities/part-0").is_err());
        assert_eq!(fs.file_count(), 2);
    }

    #[test]
    fn listing_is_non_recursive() {
        let fs = InMemoryFileSystem::new();
        fs.write("/a/file", b"1").unwrap();
        fs.write("/a/b/file", b"2").unwrap();
        let listed = fs.list_files("/a").unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].path, "/a/file");
    }

    #[test]
    fn clones_share_contents() {
        let fs = InMemoryFileSystem::new();
        let alias = fs.clone();
        alias.write("/f", b"shared").unwrap();
        assert_eq!(fs.read("/f").unwrap(), b"shared");
        assert_eq!(fs.total_bytes(), 6);
    }
}
