//! `lsmkv` — the write-ahead log frame behind Pacon's durable commit queue.
//!
//! [`wal::Wal`] appends records as frames (payload length + CRC32) into
//! file space it has already filled with zeros, so a group `sync_data`
//! flushes data blocks only; replay stops at the first zero header, torn
//! frame or corrupt record, and reopening truncates a torn tail away.
//! `pacon::commit::wal::CommitWal` journals every acknowledged op into it.
//!
//! The crate keeps the name it had as IndexFS's LevelDB-like store: the
//! benchmark's frozen `Cargo.lock` records the package graph by name.
//!
//! ```
//! # use lsmkv::wal::Wal;
//! let dir = std::env::temp_dir().join(format!("lsmkv-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("commit.wal");
//! let mut wal = Wal::open_recovered(&path, false, |_| {}).unwrap();
//! wal.append(1, b"/w/f", Some(b"create")).unwrap();
//! wal.sync().unwrap();
//! drop(wal);
//! let mut seqs = Vec::new();
//! Wal::open_recovered(&path, false, |rec| seqs.push(rec.seq)).unwrap();
//! assert_eq!(seqs, [1]);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod wal;

pub use error::{LsmError, LsmResult};
