//! The `Db` facade: WAL + memtable + two-level SSTables.

use std::path::{Path, PathBuf};

use syncguard::{level, Mutex};

use crate::error::{LsmError, LsmResult};
use crate::memtable::Memtable;
use crate::sstable::{write_sstable, SstReader};
use crate::wal::Wal;

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct Options {
    /// Flush the memtable to an L0 table once it holds roughly this many
    /// bytes.
    pub memtable_flush_bytes: usize,
    /// Compact L0 (+ L1) into a fresh L1 once L0 holds this many tables.
    pub l0_compaction_trigger: usize,
    /// fsync the WAL on every mutation.
    pub sync_wal: bool,
    /// Cut L1 output files at roughly this size during compaction
    /// (key-range partitioning of the last level).
    pub l1_target_file_bytes: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            memtable_flush_bytes: 4 << 20,
            l0_compaction_trigger: 4,
            sync_wal: false,
            l1_target_file_bytes: 8 << 20,
        }
    }
}

impl Options {
    /// Tiny thresholds that force flushes and compactions quickly — used
    /// by tests to exercise the full write path.
    pub fn small() -> Self {
        Self {
            memtable_flush_bytes: 1 << 10,
            l0_compaction_trigger: 2,
            sync_wal: false,
            l1_target_file_bytes: 4 << 10,
        }
    }
}

/// Observability counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    pub puts: u64,
    pub deletes: u64,
    pub gets: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub bulk_ingests: u64,
    pub sstables_l0: usize,
    pub sstables_l1: usize,
    pub memtable_keys: usize,
}

struct Inner {
    mem: Memtable,
    wal: Wal,
    l0: Vec<SstReader>, // oldest first; newest data lives at the back
    l1: Vec<SstReader>,
    next_seq: u64,
    next_file_no: u64,
    stats: Stats,
}

/// A LevelDB-like embedded store. Thread-safe; all operations take a
/// single internal lock (the IndexFS server serializes requests anyway,
/// both in the paper's deployment and in the queueing model).
pub struct Db {
    dir: PathBuf,
    opts: Options,
    inner: Mutex<Inner>,
}

fn sst_name(no: u64, level: u8) -> String {
    format!("{no:08}_L{level}.sst")
}

fn parse_sst_name(name: &str) -> Option<(u64, u8)> {
    let rest = name.strip_suffix(".sst")?;
    let (no, lvl) = rest.split_once("_L")?;
    Some((no.parse().ok()?, lvl.parse().ok()?))
}

/// Smallest key strictly greater than every key with `prefix`, or `None`
/// when no such bound exists (empty or all-0xFF prefix).
fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    while let Some(&last) = end.last() {
        if last < 0xFF {
            *end.last_mut().expect("non-empty") = last + 1;
            return Some(end);
        }
        end.pop();
    }
    None
}

impl Db {
    /// Open (or create) a store in `dir`, replaying the WAL and loading
    /// every SSTable found there.
    pub fn open(dir: &Path, opts: Options) -> LsmResult<Self> {
        std::fs::create_dir_all(dir)?;
        let mut l0: Vec<(u64, SstReader)> = Vec::new();
        let mut l1: Vec<(u64, SstReader)> = Vec::new();
        let mut max_file_no = 0u64;
        let mut max_seq = 0u64;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((no, level)) = parse_sst_name(name) else { continue };
            let reader = SstReader::open(&entry.path())?;
            max_file_no = max_file_no.max(no);
            max_seq = max_seq.max(reader.meta.max_seq);
            match level {
                0 => l0.push((no, reader)),
                1 => l1.push((no, reader)),
                l => {
                    return Err(LsmError::Corrupt(format!("unexpected level {l} in {name}")));
                }
            }
        }
        l0.sort_by_key(|(no, _)| *no);
        l1.sort_by_key(|(no, _)| *no);

        let wal_path = dir.join("wal.log");
        // Recovery-aware open: truncates any torn/corrupt tail before
        // appending, so post-recovery writes stay replayable.
        let mut mem = Memtable::new();
        let wal = Wal::open_recovered(&wal_path, opts.sync_wal, |rec| {
            max_seq = max_seq.max(rec.seq);
            mem.insert(&rec.key, rec.seq, rec.value.as_deref());
        })?;

        let stats = Stats {
            sstables_l0: l0.len(),
            sstables_l1: l1.len(),
            memtable_keys: mem.len(),
            ..Stats::default()
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            opts,
            inner: Mutex::new(level::BACKEND, "lsmkv.db", Inner {
                mem,
                wal,
                l0: l0.into_iter().map(|(_, r)| r).collect(),
                l1: l1.into_iter().map(|(_, r)| r).collect(),
                next_seq: max_seq + 1,
                next_file_no: max_file_no + 1,
                stats,
            }),
        })
    }

    /// Insert or overwrite a key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> LsmResult<()> {
        let mut g = self.inner.lock();
        let seq = g.next_seq;
        g.next_seq += 1;
        // lint: allow(hold-across-blocking, WAL append fsyncs under the db mutex: single-writer design, no lock taken past it)
        g.wal.append(seq, key, Some(value))?;
        g.mem.insert(key, seq, Some(value));
        g.stats.puts += 1;
        // lint: allow(hold-across-blocking, flush/compaction fsync under the db mutex: single-writer design)
        self.maybe_maintain(&mut g)?;
        Ok(())
    }

    /// Delete a key (writes a tombstone).
    pub fn delete(&self, key: &[u8]) -> LsmResult<()> {
        let mut g = self.inner.lock();
        let seq = g.next_seq;
        g.next_seq += 1;
        // lint: allow(hold-across-blocking, WAL append fsyncs under the db mutex: single-writer design, no lock taken past it)
        g.wal.append(seq, key, None)?;
        g.mem.insert(key, seq, None);
        g.stats.deletes += 1;
        // lint: allow(hold-across-blocking, flush/compaction fsync under the db mutex: single-writer design)
        self.maybe_maintain(&mut g)?;
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> LsmResult<Option<Vec<u8>>> {
        let mut g = self.inner.lock();
        g.stats.gets += 1;
        // Best (highest-seq) version across memtable and all tables.
        let mut best: Option<(u64, Option<Vec<u8>>)> = None;
        if let Some(e) = g.mem.get(key) {
            best = Some((e.seq, e.value.clone()));
        }
        for reader in g.l0.iter().rev().chain(g.l1.iter()) {
            if let Some(b) = &best {
                if reader.meta.max_seq < b.0 {
                    continue;
                }
            }
            if let Some(e) = reader.get(key)? {
                if best.as_ref().map(|(s, _)| e.seq > *s).unwrap_or(true) {
                    best = Some((e.seq, e.value));
                }
            }
        }
        Ok(best.and_then(|(_, v)| v))
    }

    /// All live key/value pairs whose key starts with `prefix`, in key
    /// order (streaming k-way merge across the memtable and every table;
    /// tombstones are filtered out).
    pub fn scan_prefix(&self, prefix: &[u8]) -> LsmResult<Vec<(Vec<u8>, Vec<u8>)>> {
        // Exclusive upper bound: prefix with its last byte incremented
        // (empty prefix or all-0xFF prefixes scan to the end).
        let end = prefix_upper_bound(prefix);
        self.scan_range(prefix, end.as_deref())
    }

    /// All live key/value pairs with `start <= key` and (when given)
    /// `key < end`, in key order.
    pub fn scan_range(&self, start: &[u8], end: Option<&[u8]>) -> LsmResult<Vec<(Vec<u8>, Vec<u8>)>> {
        use crate::iterator::{EntrySource, MergeIter, VecSource};
        let g = self.inner.lock();
        // Memtable snapshot of the range (owned; the merge outlives no
        // lock this way).
        let mem_entries: Vec<crate::sstable::SstEntry> = {
            let upper: &[u8] = end.unwrap_or(&[]);
            let iter: Box<dyn Iterator<Item = (&[u8], &crate::memtable::Entry)>> = if end.is_some()
            {
                Box::new(g.mem.iter_range(start, upper))
            } else {
                Box::new(g.mem.iter().filter(move |(k, _)| *k >= start))
            };
            iter.map(|(k, e)| crate::sstable::SstEntry {
                key: k.to_vec(),
                seq: e.seq,
                value: e.value.clone(),
            })
            .collect()
        };
        let mut sources: Vec<Box<dyn EntrySource>> = vec![Box::new(VecSource::new(mem_entries))];
        for reader in g.l0.iter().chain(g.l1.iter()) {
            sources.push(Box::new(reader.iter_from(start)?));
        }
        let mut merge = MergeIter::new(sources);
        let mut out = Vec::new();
        while let Some(e) = merge.next_merged()? {
            if let Some(end) = end {
                if e.key.as_slice() >= end {
                    break;
                }
            }
            if let Some(v) = e.value {
                out.push((e.key, v));
            }
        }
        Ok(out)
    }

    /// Bulk-ingest a batch of key/value pairs, bypassing the WAL and
    /// memtable (IndexFS/BatchFS "bulk insertion"). The batch must be
    /// sorted by strictly increasing key.
    pub fn ingest_sorted(&self, batch: &[(Vec<u8>, Vec<u8>)]) -> LsmResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for w in batch.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(LsmError::InvalidArgument("bulk batch must be sorted unique".into()));
            }
        }
        let mut g = self.inner.lock();
        let base_seq = g.next_seq;
        g.next_seq += batch.len() as u64;
        let no = g.next_file_no;
        g.next_file_no += 1;
        let path = self.dir.join(sst_name(no, 0));
        // lint: allow(hold-across-blocking, bulk-ingest sstable write fsyncs under the db mutex: single-writer design)
        write_sstable(
            &path,
            batch
                .iter()
                .enumerate()
                .map(|(i, (k, v))| (k.as_slice(), base_seq + i as u64, Some(v.as_slice()))),
        )?;
        // lint: allow(hold-across-blocking, sstable open after ingest fsyncs under the db mutex: single-writer design)
        g.l0.push(SstReader::open(&path)?);
        g.stats.bulk_ingests += 1;
        // lint: allow(hold-across-blocking, flush/compaction fsync under the db mutex: single-writer design)
        self.maybe_maintain(&mut g)?;
        Ok(())
    }

    /// Force the memtable to disk.
    pub fn flush(&self) -> LsmResult<()> {
        let mut g = self.inner.lock();
        // lint: allow(hold-across-blocking, memtable flush fsyncs under the db mutex: single-writer design)
        self.flush_locked(&mut g)
    }

    /// Current counters (sstable/memtable gauges refreshed on read).
    pub fn stats(&self) -> Stats {
        let g = self.inner.lock();
        let mut s = g.stats.clone();
        s.sstables_l0 = g.l0.len();
        s.sstables_l1 = g.l1.len();
        s.memtable_keys = g.mem.len();
        s
    }

    fn maybe_maintain(&self, g: &mut Inner) -> LsmResult<()> {
        if g.mem.approx_bytes() >= self.opts.memtable_flush_bytes {
            self.flush_locked(g)?;
        }
        if g.l0.len() >= self.opts.l0_compaction_trigger {
            self.compact_locked(g)?;
        }
        Ok(())
    }

    fn flush_locked(&self, g: &mut Inner) -> LsmResult<()> {
        if g.mem.is_empty() {
            return Ok(());
        }
        let no = g.next_file_no;
        g.next_file_no += 1;
        let path = self.dir.join(sst_name(no, 0));
        write_sstable(&path, g.mem.iter().map(|(k, e)| (k, e.seq, e.value.as_deref())))?;
        g.l0.push(SstReader::open(&path)?);
        g.mem.clear();
        g.wal.reset()?;
        g.stats.flushes += 1;
        Ok(())
    }

    /// Merge all of L0 and L1 into fresh L1 tables via a streaming k-way
    /// merge (no in-memory materialization). L1 is the last level, so
    /// tombstones are dropped; output is cut into multiple key-range-
    /// partitioned files once a file exceeds the target size.
    fn compact_locked(&self, g: &mut Inner) -> LsmResult<()> {
        use crate::iterator::{EntrySource, MergeIter};
        // Take ownership of the input tables so `g` stays freely mutable
        // for file-number allocation while the merge streams.
        let old_l0 = std::mem::take(&mut g.l0);
        let old_l1 = std::mem::take(&mut g.l1);
        let mut sources: Vec<Box<dyn EntrySource>> = Vec::new();
        for reader in old_l0.iter().chain(old_l1.iter()) {
            sources.push(Box::new(reader.iter_from(b"")?));
        }
        let mut merge = MergeIter::new(sources);

        let mut new_paths: Vec<PathBuf> = Vec::new();
        let mut writer: Option<crate::sstable::SstWriter> = None;
        while let Some(e) = merge.next_merged()? {
            let Some(value) = e.value else { continue }; // drop tombstones
            if writer.is_none() {
                let no = g.next_file_no;
                g.next_file_no += 1;
                let path = self.dir.join(sst_name(no, 1));
                new_paths.push(path.clone());
                writer = Some(crate::sstable::SstWriter::create(&path)?);
            }
            let w = writer.as_mut().expect("just created");
            w.add(&e.key, e.seq, Some(&value))?;
            if w.data_bytes() >= self.opts.l1_target_file_bytes as u64 {
                writer.take().expect("active writer").finish()?;
            }
        }
        if let Some(w) = writer.take() {
            w.finish()?;
        }
        drop(merge);

        g.l1 = new_paths
            .iter()
            .map(|p| SstReader::open(p))
            .collect::<LsmResult<Vec<_>>>()?;
        for reader in old_l0.iter().chain(old_l1.iter()) {
            std::fs::remove_file(reader.path())?;
        }
        g.stats.compactions += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "lsmkv-db-{}-{}-{:?}",
            name,
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn put_get_delete_in_memtable() {
        let dir = tmpdir("mem");
        let db = Db::open(&dir, Options::default()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a database reopened over a torn WAL tail must not lose
    /// writes made *after* the reopen. Before the recovery-aware open, the
    /// torn bytes stayed in the file and post-recovery appends hid behind
    /// them, vanishing on the next replay.
    #[test]
    fn writes_after_torn_tail_recovery_survive_reopen() {
        let dir = tmpdir("torn-reopen");
        {
            let db = Db::open(&dir, Options::default()).unwrap();
            db.put(b"before", b"1").unwrap();
        }
        // Crash mid-append: garbage frame at the WAL tail.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("wal.log"))
                .unwrap();
            f.write_all(&[250, 0, 0, 0, 1, 2, 3, 4, 5]).unwrap();
        }
        {
            let db = Db::open(&dir, Options::default()).unwrap();
            assert_eq!(db.get(b"before").unwrap().as_deref(), Some(&b"1"[..]));
            db.put(b"after", b"2").unwrap();
        }
        let db = Db::open(&dir, Options::default()).unwrap();
        assert_eq!(db.get(b"before").unwrap().as_deref(), Some(&b"1"[..]));
        assert_eq!(
            db.get(b"after").unwrap().as_deref(),
            Some(&b"2"[..]),
            "post-recovery write lost: append resumed after the torn tail"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn survives_flush_and_compaction() {
        let dir = tmpdir("flush");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..500u32 {
            db.put(format!("key-{i:05}").as_bytes(), format!("val-{i}").as_bytes()).unwrap();
        }
        for i in (0..500u32).step_by(3) {
            db.delete(format!("key-{i:05}").as_bytes()).unwrap();
        }
        let s = db.stats();
        assert!(s.flushes > 0, "small options must force flushes");
        assert!(s.compactions > 0, "small options must force compactions");
        for i in 0..500u32 {
            let got = db.get(format!("key-{i:05}").as_bytes()).unwrap();
            if i % 3 == 0 {
                assert_eq!(got, None, "key-{i} should be deleted");
            } else {
                assert_eq!(got.as_deref(), Some(format!("val-{i}").as_bytes()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_recovers_from_wal_and_tables() {
        let dir = tmpdir("reopen");
        {
            let db = Db::open(&dir, Options::small()).unwrap();
            for i in 0..200u32 {
                db.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            db.delete(b"k0007").unwrap();
            // No explicit flush: some data remains only in the WAL.
        }
        let db = Db::open(&dir, Options::small()).unwrap();
        assert_eq!(db.get(b"k0000").unwrap().as_deref(), Some(&b"v0"[..]));
        assert_eq!(db.get(b"k0199").unwrap().as_deref(), Some(&b"v199"[..]));
        assert_eq!(db.get(b"k0007").unwrap(), None);
        // Writes after recovery must win over recovered versions.
        db.put(b"k0000", b"new").unwrap();
        assert_eq!(db.get(b"k0000").unwrap().as_deref(), Some(&b"new"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_prefix_merges_levels() {
        let dir = tmpdir("scan");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..50u32 {
            db.put(format!("dir1/f{i:03}").as_bytes(), b"x").unwrap();
        }
        db.flush().unwrap();
        db.put(b"dir1/f000", b"updated").unwrap();
        db.delete(b"dir1/f001").unwrap();
        db.put(b"dir2/zzz", b"other").unwrap();
        let entries = db.scan_prefix(b"dir1/").unwrap();
        assert_eq!(entries.len(), 49); // 50 - 1 deleted
        assert_eq!(entries[0].0, b"dir1/f000".to_vec());
        assert_eq!(entries[0].1, b"updated".to_vec());
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bulk_ingest_visible_and_ordered_correctly() {
        let dir = tmpdir("bulk");
        let db = Db::open(&dir, Options::default()).unwrap();
        db.put(b"a", b"old").unwrap();
        let batch: Vec<(Vec<u8>, Vec<u8>)> =
            vec![(b"a".to_vec(), b"bulk".to_vec()), (b"b".to_vec(), b"bulk".to_vec())];
        db.ingest_sorted(&batch).unwrap();
        // The ingest happened after the put, so it must win.
        assert_eq!(db.get(b"a").unwrap().as_deref(), Some(&b"bulk"[..]));
        // A later put must beat the ingested version.
        db.put(b"b", b"newest").unwrap();
        assert_eq!(db.get(b"b").unwrap().as_deref(), Some(&b"newest"[..]));
        // Unsorted batches are rejected.
        let bad = vec![(b"z".to_vec(), vec![]), (b"a".to_vec(), vec![])];
        assert!(db.ingest_sorted(&bad).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_do_not_lose_data() {
        let dir = tmpdir("threads");
        let db = std::sync::Arc::new(Db::open(&dir, Options::small()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    db.put(format!("t{t}-k{i:03}").as_bytes(), format!("{t}:{i}").as_bytes())
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4 {
            for i in 0..100u32 {
                assert_eq!(
                    db.get(format!("t{t}-k{i:03}").as_bytes()).unwrap().as_deref(),
                    Some(format!("{t}:{i}").as_bytes())
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "lsmkv-range-{}-{}-{:?}",
            name,
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn scan_range_bounds_are_half_open() {
        let dir = tmpdir("halfopen");
        let db = Db::open(&dir, Options::small()).unwrap();
        for i in 0..20u8 {
            db.put(&[i], &[i]).unwrap();
        }
        let rows = db.scan_range(&[5], Some(&[10])).unwrap();
        let keys: Vec<u8> = rows.iter().map(|(k, _)| k[0]).collect();
        assert_eq!(keys, vec![5, 6, 7, 8, 9]);
        // Open upper bound scans to the end.
        let rows = db.scan_range(&[18], None).unwrap();
        assert_eq!(rows.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefix_upper_bound_edge_cases() {
        assert_eq!(prefix_upper_bound(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_upper_bound(&[0x01, 0xFF]), Some(vec![0x02]));
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_upper_bound(b""), None);
        // A key consisting of 0xFF bytes is still found by its prefix.
        let dir = tmpdir("ffkeys");
        let db = Db::open(&dir, Options::default()).unwrap();
        db.put(&[0xFF, 0xFF, 1], b"v").unwrap();
        db.put(&[0xFF], b"w").unwrap();
        let rows = db.scan_prefix(&[0xFF]).unwrap();
        assert_eq!(rows.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_partitions_l1_by_size() {
        let dir = tmpdir("partition");
        let mut opts = Options::small();
        opts.l1_target_file_bytes = 512; // force several output files
        let db = Db::open(&dir, opts).unwrap();
        for i in 0..300u32 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 32]).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert!(stats.compactions > 0);
        assert!(
            stats.sstables_l1 > 1,
            "small target size must yield multiple L1 files, got {}",
            stats.sstables_l1
        );
        // Everything still readable in order.
        let rows = db.scan_prefix(b"key-").unwrap();
        assert_eq!(rows.len(), 300);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        for i in (0..300u32).step_by(37) {
            assert!(db.get(format!("key-{i:06}").as_bytes()).unwrap().is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_sees_memtable_and_tables_consistently() {
        let dir = tmpdir("mixed");
        let db = Db::open(&dir, Options::small()).unwrap();
        db.put(b"p/a", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"p/b", b"2").unwrap(); // memtable only
        db.delete(b"p/a").unwrap(); // tombstone in memtable shadows table
        let rows = db.scan_prefix(b"p/").unwrap();
        assert_eq!(rows, vec![(b"p/b".to_vec(), b"2".to_vec())]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
