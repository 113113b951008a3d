#![warn(missing_docs)]

//! A from-scratch nested columnar file format in the Parquet mould, with the
//! paper's two generations of readers and writers (§V).
//!
//! Layout (see [`metadata`]): row groups → per-leaf column chunks →
//! (optional dictionary page + data page), with a footer holding the schema,
//! row-group metadata and per-chunk min/max statistics. Nested data shreds
//! into Dremel (repetition, definition, value) triplets ([`shred`]).
//!
//! The two reader generations the paper benchmarks (Fig 17):
//! - [`reader_old`] — the original reader: reads *all* leaves of a requested
//!   column, assembles records row by row, then converts rows to blocks;
//! - [`reader_new`] — nested column pruning, direct columnar reads,
//!   predicate pushdown, dictionary pushdown, lazy reads, vectorized
//!   decoding; all always on.
//!
//! The two writer generations (Figs 18–20):
//! - [`writer::WriterMode::Legacy`] — reconstructs every record from blocks,
//!   then re-shreds;
//! - [`writer::WriterMode::Native`] — shreds blocks directly into triplets.
//!
//! Codecs ([`codec`]): from-scratch `Fast` (Snappy-profile) and `Deep`
//! (Gzip-profile) LZ coders plus `None` — the documented substitution for
//! the paper's Snappy/Gzip (DESIGN.md §2).
//!
//! Schema evolution (§V.A) lives in [`schema`]: field additions read as
//! NULL, removals are ignored, renames/retypes are rejected.

pub mod codec;
pub mod columnar;
pub mod encoding;
pub mod metadata;
pub mod predicate;
pub mod reader;
pub mod reader_new;
pub mod reader_old;
pub mod schema;
pub mod shred;
pub mod writer;

pub use codec::Codec;
pub use metadata::{ColumnStats, FileMetadata};
pub use predicate::{ColumnPredicate, Domain, FilePredicate, ScalarPredicate, TypedPredicate};
pub use reader::{BytesSource, ChunkSource, FsSource};
pub use reader_new::{NewReadStats, ProjectedColumn, ReadOptions};
pub use schema::{FlatSchema, LeafColumn, PhysicalType, SchemaNode};
pub use writer::{FileWriter, WriterMode, WriterProperties};
