//! Error types for the query engine.

use std::fmt;

/// Errors surfaced by parsing, planning or executing a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImpalaError {
    /// SQL text failed to parse; carries a message and token position.
    Sql { message: String, position: usize },
    /// A table referenced in the query is not in the catalog.
    UnknownTable(String),
    /// A column alias does not match either joined table.
    UnknownAlias(String),
    /// The underlying file system failed.
    Dfs(String),
    /// A plan fragment failed at runtime. Impala has no lineage to
    /// recompute from — the plan is fixed before execution starts — so
    /// any fragment failure aborts the whole query; no partial result
    /// rows are ever returned.
    FragmentFailed {
        /// Which fragment died (`"build"`, `"scan"`, `"probe"`, `"read"`).
        fragment: String,
        /// The failure message of the fragment's final attempt.
        message: String,
    },
}

impl fmt::Display for ImpalaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImpalaError::Sql { message, position } => {
                write!(f, "SQL parse error at token {position}: {message}")
            }
            ImpalaError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            ImpalaError::UnknownAlias(a) => write!(f, "unknown table alias: {a}"),
            ImpalaError::Dfs(msg) => write!(f, "storage error: {msg}"),
            ImpalaError::FragmentFailed { fragment, message } => write!(
                f,
                "query aborted: {fragment} fragment failed ({message}); no partial results"
            ),
        }
    }
}

impl std::error::Error for ImpalaError {}

impl From<minihdfs::DfsError> for ImpalaError {
    fn from(e: minihdfs::DfsError) -> Self {
        ImpalaError::Dfs(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = ImpalaError::Sql {
            message: "expected FROM".into(),
            position: 3,
        };
        assert!(e.to_string().contains("token 3"));
        let d: ImpalaError = minihdfs::DfsError::NotFound("/x".into()).into();
        assert!(matches!(d, ImpalaError::Dfs(_)));
        assert!(ImpalaError::UnknownTable("t".into())
            .to_string()
            .contains("t"));
        let frag = ImpalaError::FragmentFailed {
            fragment: "probe".into(),
            message: "worker died".into(),
        };
        let text = frag.to_string();
        assert!(text.contains("probe") && text.contains("no partial results"));
    }
}
