//! Error type for the write-ahead log.

use std::fmt;

#[derive(Debug)]
pub enum LsmError {
    Io(std::io::Error),
    /// A WAL record failed its framing checks.
    Corrupt(String),
}

impl fmt::Display for LsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsmError::Io(e) => write!(f, "io error: {e}"),
            LsmError::Corrupt(m) => write!(f, "corruption: {m}"),
        }
    }
}

impl std::error::Error for LsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LsmError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LsmError {
    fn from(e: std::io::Error) -> Self {
        LsmError::Io(e)
    }
}

pub type LsmResult<T> = Result<T, LsmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_from_io() {
        let e: LsmError = std::io::Error::other("disk fell off").into();
        assert!(e.to_string().contains("disk fell off"));
        assert!(LsmError::Corrupt("bad crc".into()).to_string().contains("bad crc"));
    }
}
