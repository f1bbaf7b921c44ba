//! One IndexFS metadata server (co-located with a client node).
//!
//! Each server owns the LSM partition for the directories hashed to it.
//! Every public method models one RPC handler and charges its service
//! demand to `Station::IndexSrv(node)`. The heavy `idx_put` demand
//! reflects the paper's deployment, where LevelDB tables live on BeeGFS
//! and every insert pays a DFS-backed WAL write.

use std::path::Path;
use std::sync::Arc;

use fsapi::{FileKind, FsError, FsResult};
use lsmkv::{Db, Options};
use simnet::{charge, Counters, LatencyProfile, Station};

use crate::codec::{dir_prefix, entry_key, name_from_key, Record};

pub struct Server {
    node: u32,
    db: Db,
    profile: Arc<LatencyProfile>,
    pub counters: Counters,
}

impl Server {
    pub fn new(node: u32, dir: &Path, profile: Arc<LatencyProfile>) -> FsResult<Arc<Self>> {
        let db = Db::open(dir, Options::default())
            .map_err(|e| FsError::Backend(format!("open lsm: {e}")))?;
        Ok(Arc::new(Self { node, db, profile, counters: Counters::new() }))
    }

    pub fn node(&self) -> u32 {
        self.node
    }

    fn station(&self) -> Station {
        Station::IndexSrv(self.node)
    }

    fn backend<T>(r: Result<T, lsmkv::LsmError>) -> FsResult<T> {
        r.map_err(|e| FsError::Backend(format!("lsm: {e}")))
    }

    /// Resolve one directory entry (path-walk step).
    pub fn lookup(&self, dir_id: u64, name: &str) -> FsResult<Record> {
        charge(self.station(), self.profile.idx_lookup);
        self.counters.incr("lookup");
        let v = Self::backend(self.db.get(&entry_key(dir_id, name)))?;
        v.and_then(|b| Record::decode(&b)).ok_or(FsError::NotFound)
    }

    /// Fetch full attributes of one entry (stat).
    pub fn get(&self, dir_id: u64, name: &str) -> FsResult<Record> {
        charge(self.station(), self.profile.idx_get);
        self.counters.incr("get");
        let v = Self::backend(self.db.get(&entry_key(dir_id, name)))?;
        v.and_then(|b| Record::decode(&b)).ok_or(FsError::NotFound)
    }

    /// Insert a new entry; fails if it already exists.
    pub fn insert(&self, dir_id: u64, name: &str, record: &Record) -> FsResult<()> {
        charge(self.station(), self.profile.idx_put);
        self.counters.incr("insert");
        let key = entry_key(dir_id, name);
        if Self::backend(self.db.get(&key))?.is_some() {
            return Err(FsError::AlreadyExists);
        }
        Self::backend(self.db.put(&key, &record.encode()))
    }

    /// Overwrite an existing entry (size/data updates).
    pub fn update(&self, dir_id: u64, name: &str, record: &Record) -> FsResult<()> {
        charge(self.station(), self.profile.idx_put);
        self.counters.incr("update");
        let key = entry_key(dir_id, name);
        if Self::backend(self.db.get(&key))?.is_none() {
            return Err(FsError::NotFound);
        }
        Self::backend(self.db.put(&key, &record.encode()))
    }

    /// Delete an entry after checking its kind.
    pub fn delete(&self, dir_id: u64, name: &str, expect: FileKind) -> FsResult<Record> {
        charge(self.station(), self.profile.idx_put);
        self.counters.incr("delete");
        let key = entry_key(dir_id, name);
        let rec = Self::backend(self.db.get(&key))?
            .and_then(|b| Record::decode(&b))
            .ok_or(FsError::NotFound)?;
        if rec.kind != expect {
            return Err(match expect {
                FileKind::File => FsError::IsADirectory,
                FileKind::Dir => FsError::NotADirectory,
            });
        }
        Self::backend(self.db.delete(&key))?;
        Ok(rec)
    }

    /// All entries of a directory, sorted by name.
    pub fn readdir(&self, dir_id: u64) -> FsResult<Vec<(String, Record)>> {
        self.counters.incr("readdir");
        let rows = Self::backend(self.db.scan_prefix(&dir_prefix(dir_id)))?;
        charge(
            self.station(),
            self.profile.idx_readdir_base
                + rows.len() as u64 * self.profile.idx_readdir_per_entry,
        );
        let mut out = Vec::with_capacity(rows.len());
        for (k, v) in rows {
            let name = name_from_key(&k)
                .ok_or_else(|| FsError::Backend("malformed entry key".into()))?;
            let rec = Record::decode(&v)
                .ok_or_else(|| FsError::Backend("malformed entry record".into()))?;
            out.push((name.to_string(), rec));
        }
        Ok(out)
    }

    /// True if the directory partition holds no entries.
    pub fn dir_is_empty(&self, dir_id: u64) -> FsResult<bool> {
        charge(self.station(), self.profile.idx_readdir_base);
        self.counters.incr("dir_is_empty");
        Ok(Self::backend(self.db.scan_prefix(&dir_prefix(dir_id)))?.is_empty())
    }

    /// Bulk-ingest pre-sorted records (BatchFS/DeltaFS style): amortized
    /// per-record cost, no per-op WAL round trip.
    pub fn bulk_ingest(&self, batch: &[(Vec<u8>, Vec<u8>)]) -> FsResult<()> {
        charge(self.station(), self.profile.idx_bulk_per_record * batch.len() as u64);
        self.counters.add("bulk_records", batch.len() as u64);
        Self::backend(self.db.ingest_sorted(batch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsapi::Perm;
    use simnet::with_recording;

    fn server() -> (Arc<Server>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "indexfs-srv-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let s = Server::new(0, &dir, Arc::new(LatencyProfile::default())).unwrap();
        (s, dir)
    }

    fn file_rec() -> Record {
        Record::new_file(Perm::new(0o644, 1, 1), 1)
    }

    #[test]
    fn insert_get_delete_flow() {
        let (s, dir) = server();
        s.insert(0, "f", &file_rec()).unwrap();
        assert_eq!(s.insert(0, "f", &file_rec()), Err(FsError::AlreadyExists));
        let rec = s.get(0, "f").unwrap();
        assert_eq!(rec.kind, FileKind::File);
        assert_eq!(s.delete(0, "f", FileKind::Dir), Err(FsError::NotADirectory));
        s.delete(0, "f", FileKind::File).unwrap();
        assert_eq!(s.get(0, "f"), Err(FsError::NotFound));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn readdir_is_per_directory_and_sorted() {
        let (s, dir) = server();
        for name in ["z", "a", "m"] {
            s.insert(7, name, &file_rec()).unwrap();
        }
        s.insert(8, "other", &file_rec()).unwrap();
        let rows = s.readdir(7).unwrap();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        assert!(!s.dir_is_empty(7).unwrap());
        assert!(s.dir_is_empty(99).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn charges_match_profile() {
        let (s, dir) = server();
        let p = LatencyProfile::default();
        let (_, t) = with_recording(|| s.insert(0, "f", &file_rec()));
        assert_eq!(t.station_ns(Station::IndexSrv(0)), p.idx_put);
        let (_, t) = with_recording(|| s.get(0, "f"));
        assert_eq!(t.station_ns(Station::IndexSrv(0)), p.idx_get);
        let (_, t) = with_recording(|| s.lookup(0, "f"));
        assert_eq!(t.station_ns(Station::IndexSrv(0)), p.idx_lookup);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_ingest_cheaper_than_inserts() {
        let (s, dir) = server();
        let p = LatencyProfile::default();
        let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..10u32)
            .map(|i| (entry_key(3, &format!("f{i}")), file_rec().encode()))
            .collect();
        let (_, t) = with_recording(|| s.bulk_ingest(&batch));
        let bulk_cost = t.station_ns(Station::IndexSrv(0));
        assert_eq!(bulk_cost, 10 * p.idx_bulk_per_record);
        assert!(bulk_cost < 10 * p.idx_put);
        assert_eq!(s.readdir(3).unwrap().len(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }
}
