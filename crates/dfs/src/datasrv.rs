//! Chunk-striped data servers.
//!
//! File contents are striped across the data servers in fixed-size chunks
//! (BeeGFS default-style striping). Each server charges its service time
//! per MiB moved. Functional storage is a chunk map so reads return
//! exactly what was written (MADbench2 verifies data round trips).

use std::collections::HashMap;
use std::sync::Arc;

use simnet::{charge, LatencyProfile, Station};
use syncguard::{level, RwLock};

use crate::namespace::Ino;

/// Stripe size: 512 KiB, BeeGFS's default chunk size.
pub const CHUNK_SIZE: u64 = 512 * 1024;

/// One chunk-range overwrite inside a [`DataServer::write_chunks`] request.
#[derive(Debug, Clone, Copy)]
pub struct ChunkWrite<'a> {
    pub ino: Ino,
    pub chunk_idx: u64,
    pub offset_in_chunk: usize,
    pub data: &'a [u8],
}

/// One file's chunks on one server: `(chunk index, bytes)` sorted by
/// index, grown one slot at a time. Most files here are one small chunk,
/// and a map per file (or a vector's usual four-slot first allocation)
/// would cost several times the bytes it indexes.
type FileChunks = Vec<(u64, Vec<u8>)>;

/// One data server holding the chunks assigned to it.
pub struct DataServer {
    id: u32,
    /// Chunks per file, so dropping a file is one removal, not a scan of
    /// every chunk the server holds.
    chunks: RwLock<HashMap<Ino, FileChunks>>,
    profile: Arc<LatencyProfile>,
}

impl DataServer {
    pub fn new(id: u32, profile: Arc<LatencyProfile>) -> Arc<Self> {
        Arc::new(Self { id, chunks: RwLock::new(level::BACKEND, "dfs.datasrv.chunks", HashMap::new()), profile })
    }

    fn charge_bytes(&self, bytes: usize, write: bool) {
        let per_mib =
            if write { self.profile.data_write_per_mib } else { self.profile.data_read_per_mib };
        // Round up to a whole MiB so small I/O still pays a server visit.
        let mib = (bytes as u64).div_ceil(1 << 20).max(1);
        charge(Station::DataServer(self.id), mib * per_mib);
    }

    /// Overwrite the byte range of one chunk.
    pub fn write_chunk(&self, ino: Ino, chunk_idx: u64, offset_in_chunk: usize, data: &[u8]) {
        self.write_chunks(&[ChunkWrite { ino, chunk_idx, offset_in_chunk, data }]);
    }

    /// One vectored write request: every range is applied, in order, in a
    /// single server visit. The visit is charged for the bytes the whole
    /// request moves — the whole-MiB floor is the cost of visiting the
    /// server at all, so it applies once per request, not once per range.
    pub fn write_chunks(&self, writes: &[ChunkWrite<'_>]) {
        if writes.is_empty() {
            return;
        }
        for w in writes {
            assert!(w.offset_in_chunk + w.data.len() <= CHUNK_SIZE as usize, "chunk overflow");
        }
        self.charge_bytes(writes.iter().map(|w| w.data.len()).sum(), true);
        let mut chunks = self.chunks.write();
        for w in writes {
            let file = chunks.entry(w.ino).or_default();
            let at = match file.binary_search_by_key(&w.chunk_idx, |(idx, _)| *idx) {
                Ok(at) => at,
                Err(at) => {
                    file.reserve_exact(1);
                    file.insert(at, (w.chunk_idx, Vec::new()));
                    at
                }
            };
            let chunk = &mut file[at].1;
            let end = w.offset_in_chunk + w.data.len();
            if chunk.len() < end {
                chunk.resize(end, 0);
            }
            chunk[w.offset_in_chunk..end].copy_from_slice(w.data);
        }
    }

    /// Read a byte range of one chunk (zero-filled holes, truncated at the
    /// chunk's written length).
    pub fn read_chunk(&self, ino: Ino, chunk_idx: u64, offset_in_chunk: usize, len: usize) -> Vec<u8> {
        self.charge_bytes(len, false);
        let chunks = self.chunks.read();
        let chunk = chunks.get(&ino).and_then(|file| {
            let at = file.binary_search_by_key(&chunk_idx, |(idx, _)| *idx).ok()?;
            Some(&file[at].1)
        });
        match chunk {
            Some(chunk) => {
                if offset_in_chunk >= chunk.len() {
                    Vec::new()
                } else {
                    let end = (offset_in_chunk + len).min(chunk.len());
                    chunk[offset_in_chunk..end].to_vec()
                }
            }
            None => Vec::new(),
        }
    }

    /// Drop all chunks of a deleted file.
    pub fn drop_file(&self, ino: Ino) {
        self.chunks.write().remove(&ino);
    }

    /// Bytes stored (diagnostics).
    pub fn used_bytes(&self) -> usize {
        self.chunks.read().values().flatten().map(|(_, c)| c.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::with_recording;

    fn srv() -> Arc<DataServer> {
        DataServer::new(0, Arc::new(LatencyProfile::default()))
    }

    #[test]
    fn write_read_roundtrip() {
        let s = srv();
        s.write_chunk(Ino(5), 0, 10, b"hello");
        assert_eq!(s.read_chunk(Ino(5), 0, 10, 5), b"hello");
        // Hole before offset 10 is zero-filled.
        assert_eq!(s.read_chunk(Ino(5), 0, 8, 2), vec![0, 0]);
        // Reads past written length are truncated.
        assert_eq!(s.read_chunk(Ino(5), 0, 13, 100), b"lo");
        assert!(s.read_chunk(Ino(5), 1, 0, 4).is_empty());
    }

    #[test]
    fn charges_per_mib() {
        let s = srv();
        let p = LatencyProfile::default();
        let ((), t) = with_recording(|| {
            s.write_chunk(Ino(1), 0, 0, &[0u8; 1000]);
        });
        assert_eq!(t.station_ns(Station::DataServer(0)), p.data_write_per_mib);
        let ((), t) = with_recording(|| {
            s.read_chunk(Ino(1), 0, 0, 1000);
        });
        assert_eq!(t.station_ns(Station::DataServer(0)), p.data_read_per_mib);
    }

    #[test]
    fn a_vectored_write_pays_the_visit_floor_once() {
        let s = srv();
        let p = LatencyProfile::default();
        let small = [7u8; 64];
        let writes: Vec<ChunkWrite<'_>> = (0..16)
            .map(|i| ChunkWrite { ino: Ino(i), chunk_idx: 0, offset_in_chunk: 0, data: &small })
            .collect();
        let ((), t) = with_recording(|| s.write_chunks(&writes));
        assert_eq!(t.station_ns(Station::DataServer(0)), p.data_write_per_mib);
        assert_eq!(s.read_chunk(Ino(9), 0, 0, 64), small);
        // Real volume is charged by the MiB it moves: 1.5 MiB rounds to 2.
        let half_mib = vec![1u8; CHUNK_SIZE as usize];
        let writes: Vec<ChunkWrite<'_>> = (0..3)
            .map(|i| ChunkWrite { ino: Ino(50), chunk_idx: i, offset_in_chunk: 0, data: &half_mib })
            .collect();
        let ((), t) = with_recording(|| s.write_chunks(&writes));
        assert_eq!(t.station_ns(Station::DataServer(0)), 2 * p.data_write_per_mib);
        // An empty request is no visit.
        let ((), t) = with_recording(|| s.write_chunks(&[]));
        assert_eq!(t.station_ns(Station::DataServer(0)), 0);
    }

    #[test]
    fn vectored_ranges_apply_in_order() {
        let s = srv();
        s.write_chunks(&[
            ChunkWrite { ino: Ino(1), chunk_idx: 0, offset_in_chunk: 0, data: b"first" },
            ChunkWrite { ino: Ino(1), chunk_idx: 0, offset_in_chunk: 0, data: b"2nd" },
        ]);
        assert_eq!(s.read_chunk(Ino(1), 0, 0, 16), b"2ndst");
    }

    #[test]
    fn drop_file_frees_space() {
        let s = srv();
        s.write_chunk(Ino(1), 0, 0, &[1u8; 100]);
        s.write_chunk(Ino(1), 3, 0, &[2u8; 100]);
        s.write_chunk(Ino(2), 0, 0, &[3u8; 100]);
        assert_eq!(s.used_bytes(), 300);
        s.drop_file(Ino(1));
        assert_eq!(s.used_bytes(), 100);
    }

    #[test]
    #[should_panic(expected = "chunk overflow")]
    fn oversized_chunk_write_panics() {
        let s = srv();
        s.write_chunk(Ino(1), 0, (CHUNK_SIZE - 1) as usize, &[0u8; 2]);
    }
}
