//! One IndexFS metadata server (co-located with a client node).
//!
//! Each server owns the partition for the directory entries hashed to it,
//! kept in an in-memory ordered table. Every public method models one RPC
//! handler and charges its service demand to `Station::IndexSrv(node)`:
//! the LevelDB engine of the real system is modelled by those `idx_*`
//! demands, as `dfs` models BeeGFS. The heavy `idx_put` demand reflects
//! the paper's deployment, where LevelDB tables live on BeeGFS and every
//! insert pays a DFS-backed WAL write.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

use fsapi::{FileKind, FsError, FsResult};
use simnet::{charge, Counters, LatencyProfile, Station};
use syncguard::{level, RwLock};

use crate::codec::{dir_prefix, entry_key, name_from_key, Record};

type Table = BTreeMap<Vec<u8>, Vec<u8>>;

pub struct Server {
    node: u32,
    /// Encoded records by `entry_key`: one directory's entries are
    /// contiguous, in name order.
    table: RwLock<Table>,
    profile: Arc<LatencyProfile>,
    pub counters: Counters,
}

/// The rows of directory `dir_id`, in key order.
fn dir_rows(table: &Table, dir_id: u64) -> impl Iterator<Item = (&Vec<u8>, &Vec<u8>)> {
    let prefix = dir_prefix(dir_id);
    table.range(prefix.clone()..).take_while(move |(k, _)| k.starts_with(&prefix))
}

impl Server {
    pub fn new(node: u32, profile: Arc<LatencyProfile>) -> Arc<Self> {
        let table = RwLock::new(level::BACKEND, "indexfs.server.table", Table::new());
        Arc::new(Self { node, table, profile, counters: Counters::new() })
    }

    pub fn node(&self) -> u32 {
        self.node
    }

    fn station(&self) -> Station {
        Station::IndexSrv(self.node)
    }

    fn read_record(&self, dir_id: u64, name: &str) -> FsResult<Record> {
        let table = self.table.read();
        table.get(&entry_key(dir_id, name)).and_then(|b| Record::decode(b)).ok_or(FsError::NotFound)
    }

    /// Resolve one directory entry (path-walk step).
    pub fn lookup(&self, dir_id: u64, name: &str) -> FsResult<Record> {
        charge(self.station(), self.profile.idx_lookup);
        self.counters.incr("lookup");
        self.read_record(dir_id, name)
    }

    /// Fetch full attributes of one entry (stat).
    pub fn get(&self, dir_id: u64, name: &str) -> FsResult<Record> {
        charge(self.station(), self.profile.idx_get);
        self.counters.incr("get");
        self.read_record(dir_id, name)
    }

    /// Insert a new entry; fails if it already exists. The check and the
    /// write share one hold, so of concurrent creates of one name exactly
    /// one succeeds.
    pub fn insert(&self, dir_id: u64, name: &str, record: &Record) -> FsResult<()> {
        charge(self.station(), self.profile.idx_put);
        self.counters.incr("insert");
        let mut table = self.table.write();
        match table.entry(entry_key(dir_id, name)) {
            Entry::Occupied(_) => Err(FsError::AlreadyExists),
            Entry::Vacant(slot) => {
                slot.insert(record.encode());
                Ok(())
            }
        }
    }

    /// Overwrite an existing entry (size/data updates).
    pub fn update(&self, dir_id: u64, name: &str, record: &Record) -> FsResult<()> {
        charge(self.station(), self.profile.idx_put);
        self.counters.incr("update");
        let mut table = self.table.write();
        let slot = table.get_mut(&entry_key(dir_id, name)).ok_or(FsError::NotFound)?;
        *slot = record.encode();
        Ok(())
    }

    /// Delete an entry after checking its kind, under one hold: of
    /// concurrent unlinks of one name at most one succeeds.
    pub fn delete(&self, dir_id: u64, name: &str, expect: FileKind) -> FsResult<Record> {
        charge(self.station(), self.profile.idx_put);
        self.counters.incr("delete");
        let key = entry_key(dir_id, name);
        let mut table = self.table.write();
        let rec = table.get(&key).and_then(|b| Record::decode(b)).ok_or(FsError::NotFound)?;
        if rec.kind != expect {
            return Err(match expect {
                FileKind::File => FsError::IsADirectory,
                FileKind::Dir => FsError::NotADirectory,
            });
        }
        table.remove(&key);
        Ok(rec)
    }

    /// All entries of a directory, sorted by name.
    pub fn readdir(&self, dir_id: u64) -> FsResult<Vec<(String, Record)>> {
        self.counters.incr("readdir");
        let table = self.table.read();
        let rows: Vec<_> = dir_rows(&table, dir_id).collect();
        charge(
            self.station(),
            self.profile.idx_readdir_base
                + rows.len() as u64 * self.profile.idx_readdir_per_entry,
        );
        let mut out = Vec::with_capacity(rows.len());
        for (k, v) in rows {
            let name = name_from_key(k)
                .ok_or_else(|| FsError::Backend("malformed entry key".into()))?;
            let rec = Record::decode(v)
                .ok_or_else(|| FsError::Backend("malformed entry record".into()))?;
            out.push((name.to_string(), rec));
        }
        Ok(out)
    }

    /// True if the directory partition holds no entries.
    pub fn dir_is_empty(&self, dir_id: u64) -> FsResult<bool> {
        charge(self.station(), self.profile.idx_readdir_base);
        self.counters.incr("dir_is_empty");
        Ok(dir_rows(&self.table.read(), dir_id).next().is_none())
    }

    /// Bulk-ingest pre-sorted records (BatchFS/DeltaFS style): amortized
    /// per-record cost, no per-op WAL round trip. A batch whose keys are
    /// not strictly increasing is refused whole.
    pub fn bulk_ingest(&self, batch: &[(Vec<u8>, Vec<u8>)]) -> FsResult<()> {
        charge(self.station(), self.profile.idx_bulk_per_record * batch.len() as u64);
        self.counters.add("bulk_records", batch.len() as u64);
        if batch.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(FsError::Backend("bulk batch must be sorted unique".into()));
        }
        self.table.write().extend(batch.iter().cloned());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsapi::Perm;
    use simnet::with_recording;

    fn server() -> Arc<Server> {
        Server::new(0, Arc::new(LatencyProfile::default()))
    }

    fn file_rec() -> Record {
        Record::new_file(Perm::new(0o644, 1, 1), 1)
    }

    #[test]
    fn insert_get_delete_flow() {
        let s = server();
        s.insert(0, "f", &file_rec()).unwrap();
        assert_eq!(s.insert(0, "f", &file_rec()), Err(FsError::AlreadyExists));
        let rec = s.get(0, "f").unwrap();
        assert_eq!(rec.kind, FileKind::File);
        assert_eq!(s.delete(0, "f", FileKind::Dir), Err(FsError::NotADirectory));
        s.delete(0, "f", FileKind::File).unwrap();
        assert_eq!(s.get(0, "f"), Err(FsError::NotFound));
    }

    #[test]
    fn readdir_is_per_directory_and_sorted() {
        let s = server();
        for name in ["z", "a", "m"] {
            s.insert(7, name, &file_rec()).unwrap();
        }
        s.insert(8, "other", &file_rec()).unwrap();
        let rows = s.readdir(7).unwrap();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
        assert!(!s.dir_is_empty(7).unwrap());
        assert!(s.dir_is_empty(99).unwrap());
    }

    #[test]
    fn charges_match_profile() {
        let s = server();
        let p = LatencyProfile::default();
        let (_, t) = with_recording(|| s.insert(0, "f", &file_rec()));
        assert_eq!(t.station_ns(Station::IndexSrv(0)), p.idx_put);
        let (_, t) = with_recording(|| s.get(0, "f"));
        assert_eq!(t.station_ns(Station::IndexSrv(0)), p.idx_get);
        let (_, t) = with_recording(|| s.lookup(0, "f"));
        assert_eq!(t.station_ns(Station::IndexSrv(0)), p.idx_lookup);
    }

    #[test]
    fn bulk_ingest_cheaper_than_inserts() {
        let s = server();
        let p = LatencyProfile::default();
        let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..10u32)
            .map(|i| (entry_key(3, &format!("f{i}")), file_rec().encode()))
            .collect();
        let (_, t) = with_recording(|| s.bulk_ingest(&batch));
        let bulk_cost = t.station_ns(Station::IndexSrv(0));
        assert_eq!(bulk_cost, 10 * p.idx_bulk_per_record);
        assert!(bulk_cost < 10 * p.idx_put);
        assert_eq!(s.readdir(3).unwrap().len(), 10);
    }

    #[test]
    fn an_unsorted_or_duplicate_bulk_batch_fails_and_stores_nothing() {
        let s = server();
        s.insert(3, "a", &file_rec()).unwrap();
        let row = |name: &str| (entry_key(3, name), file_rec().encode());
        for bad in [vec![row("z"), row("b")], vec![row("b"), row("b")]] {
            assert!(matches!(s.bulk_ingest(&bad), Err(FsError::Backend(_))));
            let names: Vec<String> = s.readdir(3).unwrap().into_iter().map(|(n, _)| n).collect();
            assert_eq!(names, ["a"]);
        }
    }

    /// Creating one name from several threads admits exactly one of them,
    /// and unlinking it from several threads succeeds at most once.
    #[test]
    fn concurrent_creates_of_one_name_admit_exactly_one() {
        const THREADS: usize = 4;
        const NAMES: usize = 20_000;
        let s = Server::new(0, Arc::new(LatencyProfile::zero()));
        let run = |op: fn(&Server, &str) -> bool| -> Vec<usize> {
            let barrier = std::sync::Barrier::new(THREADS);
            let per_thread: Vec<Vec<bool>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            (0..NAMES).map(|i| op(&s, &format!("f{i}"))).collect()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            (0..NAMES).map(|i| per_thread.iter().filter(|oks| oks[i]).count()).collect()
        };
        let creates = run(|s, name| s.insert(1, name, &file_rec()).is_ok());
        let twice = creates.iter().filter(|&&n| n != 1).count();
        assert_eq!(twice, 0, "{twice} of {NAMES} names not admitted exactly once");
        let unlinks = run(|s, name| s.delete(1, name, FileKind::File).is_ok());
        let twice = unlinks.iter().filter(|&&n| n > 1).count();
        assert_eq!(twice, 0, "{twice} of {NAMES} names unlinked more than once");
        assert!(s.dir_is_empty(1).unwrap());
    }
}
