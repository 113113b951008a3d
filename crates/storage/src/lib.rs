#![warn(missing_docs)]
#![deny(clippy::disallowed_types)]

//! Simulated storage substrates.
//!
//! The paper's engine runs against heterogeneous remote storage: HDFS (§II,
//! §VII), Amazon S3 / Google GCS (§IX), plus the OLAP and OLTP stores behind
//! connectors. This crate provides the storage layer the reproduction runs
//! on:
//!
//! - [`fs::FileSystem`] — the filesystem abstraction the Hive connector and
//!   Parquet reader use (`listFiles`, `getFileInfo`, ranged reads — the very
//!   calls §VII's caches exist to avoid);
//! - [`memory::InMemoryFileSystem`] — zero-latency backing store;
//! - [`local::LocalFileSystem`] — a host-disk backing store (spill-to-disk
//!   benchmarks pay real file I/O through it);
//! - [`hdfs::HdfsFileSystem`] — an HDFS simulator with a single **NameNode**
//!   whose metadata operations cost more the larger the directory (the
//!   "single NameNode listFiles performance degradation" of §VII);
//! - [`s3::S3ObjectStore`] / [`s3::PrestoS3FileSystem`] — an object store
//!   with per-request latency and transient-fault injection, and the
//!   `PrestoS3FileSystem` of §IX with **lazy seek**, **exponential backoff**,
//!   **S3-Select projection pushdown** and **multipart upload**.
//!
//! All simulated latency is *virtual* ([`presto_common::SimClock`]), so tests
//! and experiments are deterministic; all remote calls are counted in a
//! [`presto_common::metrics::CounterSet`].

pub mod fs;
pub mod hdfs;
pub mod local;
pub mod memory;
pub mod s3;

pub use fs::{FileStatus, FileSystem};
pub use hdfs::HdfsFileSystem;
pub use local::LocalFileSystem;
pub use memory::InMemoryFileSystem;
pub use s3::{PrestoS3FileSystem, S3Config, S3ObjectStore};
