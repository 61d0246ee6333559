//! Error types for the mini file system.

use std::fmt;

/// Errors returned by [`crate::MiniDfs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// The requested path does not exist.
    NotFound(String),
    /// A file already exists at the path (writes never overwrite).
    AlreadyExists(String),
    /// Invalid configuration (zero datanodes, zero block size, …).
    InvalidConfig(String),
    /// Every replica of a block failed checksum verification — the
    /// data is unrecoverable. Reads fail over silently while at least
    /// one replica still verifies.
    CorruptBlock {
        /// Path of the file holding the corrupt block.
        path: String,
        /// Index of the block within the file.
        block: usize,
    },
    /// A block's payload passed checksum verification but is not UTF-8
    /// text, so it holds no records a reader could split.
    NotUtf8 {
        /// Path of the file holding the block.
        path: String,
        /// Index of the block within the file.
        block: usize,
    },
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "no such file: {p}"),
            DfsError::AlreadyExists(p) => write!(f, "file already exists: {p}"),
            DfsError::InvalidConfig(msg) => write!(f, "invalid DFS configuration: {msg}"),
            DfsError::CorruptBlock { path, block } => write!(
                f,
                "block {block} of {path}: all replicas failed checksum verification"
            ),
            DfsError::NotUtf8 { path, block } => {
                write!(f, "block {block} of {path}: payload is not UTF-8 text")
            }
        }
    }
}

impl std::error::Error for DfsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            DfsError::NotFound("/a".into()).to_string(),
            "no such file: /a"
        );
        assert!(DfsError::AlreadyExists("/b".into())
            .to_string()
            .contains("/b"));
        assert!(DfsError::InvalidConfig("x".into())
            .to_string()
            .contains("x"));
    }
}
