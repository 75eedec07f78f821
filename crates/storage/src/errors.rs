//! Error type for the storage engine.

use crate::hash::Hash256;
use crate::tenant::TenantId;
use std::fmt;

/// Errors surfaced by storage operations.
#[derive(Debug)]
pub enum StorageError {
    /// Requested object is not present in the store.
    NotFound(Hash256),
    /// Named branch does not exist.
    UnknownBranch(String),
    /// Branch already exists and overwrite was not requested.
    BranchExists(String),
    /// A commit referenced a parent that is not in the graph.
    MissingParent(Hash256),
    /// A commit was built on `branch` at `searched` (a merge searched it),
    /// but the branch had moved to `head`.
    BaseMoved {
        /// The branch committed to.
        branch: String,
        /// The head the commit was built on.
        searched: Hash256,
        /// The branch's head when the commit came to land.
        head: Hash256,
    },
    /// Stored bytes failed their content-address check.
    Corrupt {
        /// The address the bytes were stored under.
        expected: Hash256,
        /// The digest actually computed from the bytes.
        actual: Hash256,
    },
    /// A tenant's write would breach its [`crate::tenant::QuotaPolicy`].
    QuotaExceeded {
        /// The tenant whose quota would be breached.
        tenant: TenantId,
        /// Cumulative bytes the write would bring the tenant to.
        needed: u64,
        /// The configured limit.
        limit: u64,
        /// Which axis was breached ("logical bytes" / "physical bytes").
        resource: &'static str,
    },
    /// A cask directory in a layout this build does not open: its
    /// `cask.json` names another format version (version 1 split the log
    /// over `shards` segment files). Nothing in the directory is touched.
    UnsupportedLayout {
        /// The format version the directory's manifest names.
        version: u32,
        /// The shard count the manifest names, if any.
        shards: Option<u32>,
    },
    /// Underlying I/O failure (durable backend).
    Io(std::io::Error),
    /// (De)serialisation failure for manifests/commits.
    Codec(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(h) => write!(f, "object {} not found", h.short()),
            StorageError::UnknownBranch(b) => write!(f, "unknown branch '{b}'"),
            StorageError::BranchExists(b) => write!(f, "branch '{b}' already exists"),
            StorageError::MissingParent(h) => write!(f, "missing parent commit {}", h.short()),
            StorageError::BaseMoved {
                branch,
                searched,
                head,
            } => write!(
                f,
                "branch '{branch}' moved from {} to {} before the commit landed; retry",
                searched.short(),
                head.short()
            ),
            StorageError::Corrupt { expected, actual } => write!(
                f,
                "corrupt object: expected {}, got {}",
                expected.short(),
                actual.short()
            ),
            StorageError::QuotaExceeded {
                tenant,
                needed,
                limit,
                resource,
            } => write!(
                f,
                "{tenant} quota exceeded: write needs {needed} {resource} (limit {limit})"
            ),
            StorageError::UnsupportedLayout { version, shards } => {
                write!(f, "cask directory has format version {version}")?;
                if let Some(n) = shards {
                    write!(f, " with {n} shard segments")?;
                }
                write!(f, "; this build opens version 2 only and migrates nothing")
            }
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Codec(m) => write!(f, "codec error: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<serde_json::Error> for StorageError {
    fn from(e: serde_json::Error) -> Self {
        StorageError::Codec(e.to_string())
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let h = Hash256::of(b"x");
        assert!(StorageError::NotFound(h).to_string().contains("not found"));
        assert!(StorageError::UnknownBranch("dev".into())
            .to_string()
            .contains("dev"));
        assert!(StorageError::BranchExists("dev".into())
            .to_string()
            .contains("already exists"));
        let c = StorageError::Corrupt {
            expected: h,
            actual: Hash256::ZERO,
        };
        assert!(c.to_string().contains("corrupt"));
        let q = StorageError::QuotaExceeded {
            tenant: TenantId(3),
            needed: 120,
            limit: 100,
            resource: "physical bytes",
        };
        let msg = q.to_string();
        assert!(msg.contains("tenant#3") && msg.contains("120") && msg.contains("100"));
    }

    #[test]
    fn io_conversion_preserves_source() {
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
