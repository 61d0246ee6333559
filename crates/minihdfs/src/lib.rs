//! # minihdfs — a miniature distributed file system
//!
//! Both systems in the paper read their inputs as text files of WKT
//! records stored in HDFS. This crate provides the workspace's stand-in:
//! files are split into fixed-size blocks at line boundaries, blocks are
//! placed round-robin (with optional replication) across a set of
//! simulated datanodes, and readers can enumerate blocks with their
//! placement so the execution engines can schedule for locality exactly
//! like Hadoop's `FileInputFormat` does.
//!
//! Everything lives in memory ([`Bytes`] block payloads: shared,
//! immutable, O(1) to clone), which matches the in-memory orientation
//! of Spark and Impala that the paper targets.

pub mod bytes;
pub mod checksum;
pub mod error;
pub mod fs;

pub use bytes::{Bytes, Text};
pub use checksum::crc32;
pub use error::DfsError;
pub use fs::{BlockRef, FileLines, FileStat, Lines, MiniDfs};

/// Default block size: 4 MiB. Real HDFS uses 128 MiB; the scale factor
/// of this reproduction's datasets is correspondingly smaller so that
/// files still split into many blocks.
pub const DEFAULT_BLOCK_SIZE: usize = 4 * 1024 * 1024;
