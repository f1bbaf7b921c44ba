//! Error taxonomy shared by every backend.

use std::fmt;

/// Errors a file-system backend can return. The variants mirror the POSIX
/// errno values the paper's systems would surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// A path component (or the target) does not exist (`ENOENT`).
    NotFound,
    /// Target already exists (`EEXIST`).
    AlreadyExists,
    /// A non-final path component is not a directory (`ENOTDIR`).
    NotADirectory,
    /// Directory operation attempted on a file or vice versa (`EISDIR`).
    IsADirectory,
    /// Directory not empty on rmdir (`ENOTEMPTY`).
    NotEmpty,
    /// Permission check failed (`EACCES`).
    PermissionDenied,
    /// Malformed path (not absolute, empty component, ...).
    InvalidPath(String),
    /// Offset/size out of range for the file.
    InvalidArgument(String),
    /// The operation is not supported by this backend.
    Unsupported(&'static str),
    /// Backend-internal failure (lost shard, malformed record, ...).
    Backend(String),
    /// A CAS update lost too many races and gave up (bounded retry).
    Conflict,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::AlreadyExists => write!(f, "file exists"),
            FsError::NotADirectory => write!(f, "not a directory"),
            FsError::IsADirectory => write!(f, "is a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::PermissionDenied => write!(f, "permission denied"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            FsError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            FsError::Unsupported(op) => write!(f, "operation not supported: {op}"),
            FsError::Backend(m) => write!(f, "backend error: {m}"),
            FsError::Conflict => write!(f, "concurrent update conflict"),
        }
    }
}

impl std::error::Error for FsError {}

/// Result alias used across all backends.
pub type FsResult<T> = Result<T, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(FsError::NotFound.to_string(), "no such file or directory");
        assert!(FsError::InvalidPath("a//b".into()).to_string().contains("a//b"));
        assert!(FsError::Unsupported("rename").to_string().contains("rename"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(FsError::AlreadyExists, FsError::AlreadyExists);
        assert_ne!(FsError::NotFound, FsError::NotEmpty);
    }
}
