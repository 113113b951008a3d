//! Spill-to-disk for blocking operators.
//!
//! When a blocking operator (hash aggregation, hash-join build, sort) is
//! asked to revoke memory, it serializes its partitions through the native
//! Parquet writer onto a [`FileSystem`] — the in-memory filesystem in tests,
//! a real tempdir in benches — and reads them back on drain. Reusing the
//! §V file format means spill files get the same columnar encodings and
//! codecs the warehouse files do, for free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use presto_common::metrics::{names, CounterSet};
use presto_common::{Field, Page, PrestoError, Result, Schema};
use presto_parquet::reader_new;
use presto_parquet::{
    BytesSource, FileWriter, ProjectedColumn, ReadOptions, WriterMode, WriterProperties,
};
use presto_storage::{FileSystem, InMemoryFileSystem};

/// Handle to one spilled run on disk.
#[derive(Debug, Clone)]
pub struct SpillFile {
    /// Path on the spill filesystem.
    pub path: String,
    /// Positional schema the pages were written under (fields renamed
    /// `c0..cN` so duplicate output names — e.g. a self-join's two `id`
    /// columns — stay writable).
    pub schema: Schema,
    /// Rows in the file.
    pub rows: usize,
    /// Serialized size in bytes.
    pub bytes: usize,
}

/// Writes and reads spill files for one query.
pub struct SpillManager {
    fs: Arc<dyn FileSystem>,
    dir: String,
    next: AtomicU64,
    metrics: CounterSet,
}

impl SpillManager {
    /// Manager writing under `dir` on `fs`; spill I/O counters land in
    /// `metrics` (`spill.bytes_written`, `spill.files`).
    pub fn new(
        fs: Arc<dyn FileSystem>,
        dir: impl Into<String>,
        metrics: CounterSet,
    ) -> SpillManager {
        SpillManager { fs, dir: dir.into(), next: AtomicU64::new(0), metrics }
    }

    /// Manager over a fresh in-memory filesystem (tests, standalone
    /// contexts).
    pub fn in_memory(metrics: CounterSet) -> SpillManager {
        SpillManager::new(Arc::new(InMemoryFileSystem::new()), "/spill", metrics)
    }

    /// The counter set spill I/O is accounted in.
    pub fn metrics(&self) -> &CounterSet {
        &self.metrics
    }

    /// Spill `pages` (all matching `schema` positionally) into one file.
    pub fn spill_pages(&self, schema: &Schema, pages: &[Page]) -> Result<SpillFile> {
        if schema.is_empty() {
            return Err(PrestoError::NotSupported("cannot spill zero-column pages".into()));
        }
        // Positional rename: plan output schemas may repeat names (self
        // joins), which the file format rejects.
        let spill_schema = Schema::new(
            schema
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| Field::new(format!("c{i}"), f.data_type.clone()))
                .collect(),
        )?;
        let mut writer =
            FileWriter::new(spill_schema.clone(), WriterProperties::default(), WriterMode::Native)?;
        let mut rows = 0usize;
        for page in pages {
            if page.is_empty() {
                continue;
            }
            rows += page.positions();
            writer.write_page(page)?;
        }
        let bytes = writer.finish()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let path = format!("{}/run-{id}.parquet", self.dir);
        self.fs.write(&path, &bytes)?;
        self.metrics.add(names::SPILL_BYTES_WRITTEN, bytes.len() as u64);
        self.metrics.incr(names::SPILL_FILES);
        Ok(SpillFile { path, schema: spill_schema, rows, bytes: bytes.len() })
    }

    /// Read a spilled run back (one page per row group).
    pub fn read(&self, file: &SpillFile) -> Result<Vec<Page>> {
        let data = self.fs.read(&file.path)?;
        let source = BytesSource::new(data);
        let projections: Vec<ProjectedColumn> =
            file.schema.fields().iter().map(|f| ProjectedColumn::whole(f.name.clone())).collect();
        let (pages, _stats) =
            reader_new::read(&source, &file.schema, &ReadOptions::new(projections))?;
        Ok(pages)
    }

    /// Delete a drained spill file.
    pub fn remove(&self, file: SpillFile) -> Result<()> {
        self.fs.delete(&file.path)
    }
}

impl std::fmt::Debug for SpillManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillManager").field("dir", &self.dir).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_common::{Block, DataType, Value};

    fn sample() -> (Schema, Vec<Page>) {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Bigint),
            Field::new("city", DataType::Varchar),
            Field::new("fare", DataType::Double),
        ])
        .unwrap();
        let pages = vec![
            Page::new(vec![
                Block::bigint(vec![1, 2, 3]),
                Block::varchar(&["sf", "nyc", "sf"]),
                Block::double(vec![10.5, 20.25, 30.0]),
            ])
            .unwrap(),
            Page::new(vec![
                Block::bigint(vec![4, 5]),
                Block::varchar(&["la", "sf"]),
                Block::double(vec![40.0, 50.75]),
            ])
            .unwrap(),
        ];
        (schema, pages)
    }

    #[test]
    fn spill_round_trip_preserves_rows() {
        let metrics = CounterSet::new();
        let spill = SpillManager::in_memory(metrics.clone());
        let (schema, pages) = sample();
        let file = spill.spill_pages(&schema, &pages).unwrap();
        assert_eq!(file.rows, 5);
        assert!(metrics.get(names::SPILL_BYTES_WRITTEN) > 0);
        assert_eq!(metrics.get(names::SPILL_FILES), 1);

        let back = spill.read(&file).unwrap();
        let original: Vec<Vec<Value>> = pages.iter().flat_map(|p| p.rows()).collect();
        let restored: Vec<Vec<Value>> = back.iter().flat_map(|p| p.rows()).collect();
        assert_eq!(original, restored);

        spill.remove(file).unwrap();
    }

    #[test]
    fn spill_schema_is_positional() {
        let dup = Schema::new(vec![
            Field::new("id", DataType::Bigint),
            Field::new("id2", DataType::Bigint),
        ])
        .unwrap();
        let page = Page::new(vec![Block::bigint(vec![1, 2]), Block::bigint(vec![10, 20])]).unwrap();
        let spill = SpillManager::in_memory(CounterSet::new());
        let file = spill.spill_pages(&dup, std::slice::from_ref(&page)).unwrap();
        let back = spill.read(&file).unwrap();
        assert_eq!(back[0].rows(), page.rows());
    }

    #[test]
    fn zero_column_pages_are_rejected() {
        let spill = SpillManager::in_memory(CounterSet::new());
        let schema = Schema::empty();
        let err = spill.spill_pages(&schema, &[Page::zero_column(3)]).unwrap_err();
        assert_eq!(err.code(), "NOT_SUPPORTED");
    }
}
