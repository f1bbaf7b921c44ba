//! Cached metadata records (the primary copy, Section III.A).
//!
//! One record per namespace entry, keyed by full path in the distributed
//! cache. Small files keep their data inline with the metadata so a
//! single KV request serves both (Section III.D-2).

use fsapi::{FileKind, FileStat, Perm};

/// Metadata of one entry as stored in the distributed cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedMeta {
    pub kind: FileKind,
    pub perm: Perm,
    /// Logical file size (may exceed the inline data when the file has
    /// gone large).
    pub size: u64,
    pub mtime: u64,
    /// Backup copy (DFS) reflects this entry's creation.
    pub committed: bool,
    /// Marked removed; awaiting commit before the record is deleted
    /// (Section III.D-1: "removed files are marked and their cached
    /// metadata are deleted after the operations are committed").
    pub removed: bool,
    /// The file outgrew the small-file threshold; data lives on the DFS.
    pub large: bool,
    /// Inline data of small files.
    pub inline: Vec<u8>,
}

impl CachedMeta {
    pub fn new_dir(perm: Perm, mtime: u64) -> Self {
        Self {
            kind: FileKind::Dir,
            perm,
            size: 0,
            mtime,
            committed: false,
            removed: false,
            large: false,
            inline: Vec::new(),
        }
    }

    pub fn new_file(perm: Perm, mtime: u64) -> Self {
        Self {
            kind: FileKind::File,
            perm,
            size: 0,
            mtime,
            committed: false,
            removed: false,
            large: false,
            inline: Vec::new(),
        }
    }

    /// A record for an entry loaded from the DFS (already durable there).
    pub fn from_stat(stat: &FileStat) -> Self {
        Self {
            kind: stat.kind,
            perm: stat.perm,
            size: stat.size,
            mtime: stat.mtime,
            committed: true,
            removed: false,
            // Data loaded from the DFS stays on the DFS.
            large: stat.kind == FileKind::File,
            inline: Vec::new(),
        }
    }

    pub fn to_stat(&self) -> FileStat {
        FileStat {
            kind: self.kind,
            perm: self.perm,
            size: self.size,
            mtime: self.mtime,
            nlink: 1,
        }
    }

    const FLAG_COMMITTED: u8 = 1;
    const FLAG_REMOVED: u8 = 2;
    const FLAG_LARGE: u8 = 4;
    const FLAG_DIR: u8 = 8;

    /// Encoded bytes ahead of the inline data: flags (1), mode (2), uid
    /// (4), gid (4), size (8), mtime (8).
    pub const HEADER_LEN: usize = 27;

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.inline.len());
        let mut flags = 0u8;
        if self.committed {
            flags |= Self::FLAG_COMMITTED;
        }
        if self.removed {
            flags |= Self::FLAG_REMOVED;
        }
        if self.large {
            flags |= Self::FLAG_LARGE;
        }
        if self.kind == FileKind::Dir {
            flags |= Self::FLAG_DIR;
        }
        out.push(flags);
        out.extend_from_slice(&self.perm.mode.to_le_bytes());
        out.extend_from_slice(&self.perm.uid.to_le_bytes());
        out.extend_from_slice(&self.perm.gid.to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.mtime.to_le_bytes());
        out.extend_from_slice(&self.inline);
        out
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < Self::HEADER_LEN {
            return None;
        }
        let flags = bytes[0];
        let mode = u16::from_le_bytes(bytes[1..3].try_into().ok()?);
        let uid = u32::from_le_bytes(bytes[3..7].try_into().ok()?);
        let gid = u32::from_le_bytes(bytes[7..11].try_into().ok()?);
        let size = u64::from_le_bytes(bytes[11..19].try_into().ok()?);
        let mtime = u64::from_le_bytes(bytes[19..Self::HEADER_LEN].try_into().ok()?);
        Some(Self {
            kind: if flags & Self::FLAG_DIR != 0 { FileKind::Dir } else { FileKind::File },
            perm: Perm::new(mode, uid, gid),
            size,
            mtime,
            committed: flags & Self::FLAG_COMMITTED != 0,
            removed: flags & Self::FLAG_REMOVED != 0,
            large: flags & Self::FLAG_LARGE != 0,
            inline: bytes[Self::HEADER_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_flag_combinations() {
        for committed in [false, true] {
            for removed in [false, true] {
                for large in [false, true] {
                    for kind in [FileKind::File, FileKind::Dir] {
                        let m = CachedMeta {
                            kind,
                            perm: Perm::new(0o640, 5, 6),
                            size: 123,
                            mtime: 77,
                            committed,
                            removed,
                            large,
                            inline: b"xyz".to_vec(),
                        };
                        assert_eq!(CachedMeta::decode(&m.encode()), Some(m));
                    }
                }
            }
        }
    }

    #[test]
    fn from_stat_marks_committed_and_large() {
        let stat = FileStat {
            kind: FileKind::File,
            perm: Perm::new(0o644, 1, 1),
            size: 9999,
            mtime: 5,
            nlink: 1,
        };
        let m = CachedMeta::from_stat(&stat);
        assert!(m.committed);
        assert!(m.large);
        assert_eq!(m.to_stat().size, 9999);
        let dstat = FileStat {
            kind: FileKind::Dir,
            perm: Perm::new(0o755, 1, 1),
            size: 0,
            mtime: 5,
            nlink: 2,
        };
        assert!(!CachedMeta::from_stat(&dstat).large);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert_eq!(CachedMeta::decode(&[0; CachedMeta::HEADER_LEN - 1]), None);
    }
}
