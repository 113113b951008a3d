#![warn(missing_docs)]
#![deny(clippy::disallowed_types)]

//! The Presto caches of §VII.
//!
//! "In production experience, we found the single HDFS NameNode listFiles
//! performance degradation could hurt Presto performance badly." Three
//! caches keep repeated work off remote storage:
//!
//! - [`file_list::FileListCache`] — **coordinator-side**: caches `listFiles`
//!   results for *sealed* partitions only; open partitions (near-real-time
//!   ingestion targets) always bypass to guarantee freshness. The paper's
//!   production result: listFiles calls reduced to <40%.
//! - [`footer::FileHandleCache`] / [`footer::FooterCache`] —
//!   **worker-side**: cache file descriptors (`getFileInfo` results) and
//!   decoded file footers. "The reason to cache such information in memory
//!   is due to the high hit rate of footers as they are the indexes to the
//!   data itself." The paper's result: ~90% of getFileInfo calls removed.
//! - [`fragment::FragmentResultCache`] — **worker-side**: the pages a leaf
//!   fragment produced for one (plan fingerprint, split) pair, so a repeated
//!   dashboard scan skips the connector. The cluster keeps it warm by
//!   placing splits on a consistent-hash ring (`presto_common::HashRing`,
//!   §VII's affinity scheduler) and migrating entries along the same ring
//!   when a worker drains.
//!
//! The worker-side caches sit on an entry-count [`lru::LruCache`]. §VII's "Alluxio data
//! cache" and "Metastore versioned cache" are **not reproduced**: no paper
//! figure depends on them, and a byte or chunk tier only earns its place
//! under the Hive reader where a benchmark workload can judge it.

pub mod file_list;
pub mod footer;
pub mod fragment;
pub mod lru;

pub use file_list::FileListCache;
pub use footer::{FileHandleCache, FooterCache};
pub use fragment::{FragmentKey, FragmentResultCache};
pub use lru::LruCache;
