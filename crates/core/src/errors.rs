//! Error type for the version-control layer.

use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::errors::PipelineError;
use mlcask_storage::errors::StorageError;
use mlcask_storage::tenant::ShareRight;
use std::fmt;

/// Errors surfaced by versioning operations.
#[derive(Debug)]
pub enum CoreError {
    /// A referenced component version is not registered.
    UnknownComponent(ComponentKey),
    /// A pipeline commit payload could not be resolved.
    MissingMetafile(String),
    /// The two branches share no common ancestor.
    NoCommonAncestor {
        /// Base branch name.
        base: String,
        /// Merging branch name.
        merging: String,
    },
    /// The merge search found no executable candidate (everything pruned or
    /// failed).
    NoViableCandidate,
    /// A merge was requested into a branch that equals the merge source.
    SelfMerge(String),
    /// A tenant with this name is already registered in the workspace.
    TenantExists(String),
    /// A tenant name is unusable as a branch namespace (empty, or contains
    /// `/` — the namespace separator).
    InvalidTenantName(String),
    /// No tenant with this name is registered in the workspace.
    UnknownTenant(String),
    /// A cross-tenant fork or merge was attempted without a sufficient
    /// [`ShareRight`] grant from the owning tenant. Raised by the
    /// workspace's access rule *before* any execution or graph access, so a
    /// denial leaves the commit graph and every tenant's accounts untouched
    /// — and again at the graph write, when a grant is revoked meanwhile.
    ShareDenied {
        /// The tenant whose namespace the operation targeted.
        owner: String,
        /// The tenant attempting the operation.
        peer: String,
        /// The right the operation required.
        needed: ShareRight,
    },
    /// A cross-tenant operation was attempted on a solo (un-namespaced)
    /// pipeline system.
    NotATenant(String),
    /// Underlying pipeline failure.
    Pipeline(PipelineError),
    /// Underlying storage failure.
    Storage(StorageError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownComponent(k) => write!(f, "unknown component version {k}"),
            CoreError::MissingMetafile(l) => write!(f, "missing pipeline metafile for {l}"),
            CoreError::NoCommonAncestor { base, merging } => {
                write!(f, "no common ancestor between '{base}' and '{merging}'")
            }
            CoreError::NoViableCandidate => {
                write!(f, "merge search produced no executable pipeline candidate")
            }
            CoreError::SelfMerge(b) => write!(f, "cannot merge branch '{b}' into itself"),
            CoreError::TenantExists(t) => write!(f, "tenant '{t}' already exists"),
            CoreError::InvalidTenantName(t) => write!(
                f,
                "tenant name '{t}' is not a valid branch namespace (must be non-empty and \
                 contain no '/')"
            ),
            CoreError::UnknownTenant(t) => write!(f, "no tenant named '{t}' in this workspace"),
            CoreError::ShareDenied {
                owner,
                peer,
                needed,
            } => write!(
                f,
                "tenant '{owner}' has not granted '{peer}' the {needed} right"
            ),
            CoreError::NotATenant(s) => write!(
                f,
                "pipeline system '{s}' is not tenant-scoped (cross-tenant operations need a \
                 namespace)"
            ),
            CoreError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Pipeline(e) => Some(e),
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipelineError> for CoreError {
    fn from(e: PipelineError) -> Self {
        CoreError::Pipeline(e)
    }
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_pipeline::semver::SemVer;

    #[test]
    fn display_variants() {
        let k = ComponentKey::new("cnn", SemVer::master(0, 4));
        assert!(CoreError::UnknownComponent(k).to_string().contains("cnn"));
        assert!(CoreError::NoViableCandidate
            .to_string()
            .contains("no executable"));
        assert!(CoreError::SelfMerge("master".into())
            .to_string()
            .contains("itself"));
        let e = CoreError::NoCommonAncestor {
            base: "master".into(),
            merging: "dev".into(),
        };
        assert!(e.to_string().contains("master") && e.to_string().contains("dev"));
        let d = CoreError::ShareDenied {
            owner: "up".into(),
            peer: "down".into(),
            needed: ShareRight::Fork,
        };
        let msg = d.to_string();
        assert!(msg.contains("up") && msg.contains("down") && msg.contains("fork"));
        assert!(CoreError::UnknownTenant("ghost".into())
            .to_string()
            .contains("ghost"));
        assert!(CoreError::NotATenant("solo".into())
            .to_string()
            .contains("not tenant-scoped"));
    }

    #[test]
    fn conversions_preserve_sources() {
        let p: CoreError = PipelineError::NoScore.into();
        assert!(std::error::Error::source(&p).is_some());
        let s: CoreError = StorageError::UnknownBranch("x".into()).into();
        assert!(std::error::Error::source(&s).is_some());
    }
}
