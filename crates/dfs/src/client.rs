//! The DFS client library.
//!
//! Implements [`fsapi::FileSystem`] the way a real BeeGFS client does:
//! paths are resolved component by component against the MDS, with a
//! bounded LRU *dentry cache* absorbing repeated lookups. Every cache
//! miss costs one lookup RPC (a storage-network round trip plus MDS
//! service); the final operation is always an RPC of its own. This makes
//! path depth expensive under random access — the behaviour the paper
//! quantifies in Figures 2 and 9 and that Pacon's batch permission
//! management avoids.

use std::sync::Arc;

use fsapi::types::ACCESS_X;
use fsapi::{path as fspath, Credentials, FileKind, FileStat, FsError, FsResult, Perm};
use fsapi::FileSystem;
use simnet::{charge, Counters, FastMap, Station};
use syncguard::{level, Mutex};

use crate::cluster::DfsCluster;
use crate::datasrv::{ChunkWrite, DataServer, CHUNK_SIZE};
use crate::mds::BatchOp;
use crate::namespace::Ino;
use crate::replay::OpId;

/// One cached dentry: inode, permission bits and entry kind (the kind
/// gates descent — traversing through a file is ENOTDIR before any
/// permission question, as in POSIX).
#[derive(Clone, Copy)]
struct Dentry {
    ino: Ino,
    perm: Perm,
    kind: FileKind,
}

/// End of a recency list (no node).
const NIL: usize = usize::MAX;

/// One cached entry, linked into the recency list by slab index.
struct Node {
    key: Arc<str>,
    dentry: Dentry,
    /// Next more recently used node.
    newer: usize,
    /// Next less recently used node.
    older: usize,
}

/// Bounded LRU map from normalized path to [`Dentry`]: a slab of nodes
/// threaded on one recency list, every operation O(1) (`remove_subtree`
/// scans). A hit or an insert makes its entry the most recent; a full
/// cache evicts the least recent, so entries leave in the order of their
/// last use.
struct DentryCache {
    /// Path → slot in `nodes`; the key is the node's own.
    map: FastMap<Arc<str>, usize>,
    /// Dense: every slot is linked and mapped.
    nodes: Vec<Node>,
    /// Most recently used node.
    newest: usize,
    /// Least recently used node (the next victim).
    oldest: usize,
    capacity: usize,
}

impl DentryCache {
    fn new(capacity: usize) -> Self {
        Self { map: FastMap::default(), nodes: Vec::new(), newest: NIL, oldest: NIL, capacity }
    }

    fn get(&mut self, path: &str) -> Option<Dentry> {
        let i = *self.map.get(path)?;
        self.touch(i);
        Some(self.nodes[i].dentry)
    }

    fn insert(&mut self, path: &str, dentry: Dentry) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(path) {
            self.nodes[i].dentry = dentry;
            self.touch(i);
            return;
        }
        let key: Arc<str> = Arc::from(path);
        let node = Node { key: Arc::clone(&key), dentry, newer: NIL, older: NIL };
        let i = if self.nodes.len() < self.capacity {
            self.nodes.push(node);
            self.nodes.len() - 1
        } else {
            // Full: the least recent entry leaves and lends its slot.
            let victim = self.oldest;
            self.unlink(victim);
            let old = std::mem::replace(&mut self.nodes[victim], node);
            self.map.remove(&old.key);
            victim
        };
        self.map.insert(key, i);
        self.push_newest(i);
    }

    fn remove(&mut self, path: &str) {
        let Some(i) = self.map.remove(path) else { return };
        self.unlink(i);
        self.nodes.swap_remove(i);
        if i < self.nodes.len() {
            // The last node moved into slot `i`: repoint its neighbours
            // and its map entry.
            let Node { newer, older, .. } = self.nodes[i];
            match newer {
                NIL => self.newest = i,
                n => self.nodes[n].older = i,
            }
            match older {
                NIL => self.oldest = i,
                o => self.nodes[o].newer = i,
            }
            *self.map.get_mut(&self.nodes[i].key).expect("every node is mapped") = i;
        }
    }

    /// Remove `path` and everything cached beneath it.
    fn remove_subtree(&mut self, path: &str) {
        let victims: Vec<Arc<str>> = self
            .map
            .keys()
            .filter(|k| fspath::is_same_or_ancestor(path, k))
            .cloned()
            .collect();
        for v in victims {
            self.remove(&v);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.newest = NIL;
        self.oldest = NIL;
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Make node `i` the most recent.
    fn touch(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.push_newest(i);
        }
    }

    /// Take node `i` off the recency list.
    fn unlink(&mut self, i: usize) {
        let Node { newer, older, .. } = self.nodes[i];
        match newer {
            NIL => self.newest = older,
            n => self.nodes[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.nodes[o].newer = newer,
        }
    }

    /// Put the unlinked node `i` at the recent end of the list.
    fn push_newest(&mut self, i: usize) {
        self.nodes[i].newer = NIL;
        self.nodes[i].older = self.newest;
        match self.newest {
            NIL => self.oldest = i,
            n => self.nodes[n].newer = i,
        }
        self.newest = i;
    }
}

/// Split the byte range `[offset, offset + len)` at chunk boundaries:
/// `(chunk index, offset inside the chunk, length)` per piece.
fn chunk_pieces(offset: u64, len: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let end = offset + len as u64;
    let mut pos = offset;
    std::iter::from_fn(move || {
        if pos >= end {
            return None;
        }
        let chunk_idx = pos / CHUNK_SIZE;
        let in_chunk = (pos % CHUNK_SIZE) as usize;
        let take = ((CHUNK_SIZE as usize - in_chunk) as u64).min(end - pos) as usize;
        pos += take as u64;
        Some((chunk_idx, in_chunk, take))
    })
}

/// A DFS client bound to one process.
pub struct DfsClient {
    cluster: Arc<DfsCluster>,
    dentries: Mutex<DentryCache>,
    pub counters: Counters,
}

impl DfsClient {
    pub(crate) fn new(cluster: Arc<DfsCluster>, dentry_capacity: usize) -> Self {
        Self {
            cluster,
            dentries: Mutex::new(level::FS_CLIENT, "dfs.client.dentries", DentryCache::new(dentry_capacity)),
            counters: Counters::new(),
        }
    }

    /// One storage-network round trip.
    fn charge_rtt(&self) {
        charge(Station::Network, self.cluster.profile().net_rtt_storage);
    }

    /// Resolve a normalized path to its inode, walking components through
    /// the dentry cache and falling back to lookup RPCs.
    fn resolve(&self, path: &str, cred: &Credentials) -> FsResult<Ino> {
        if path == "/" {
            return Ok(Ino::ROOT);
        }
        let mut cur = Dentry {
            ino: Ino::ROOT,
            perm: self.cluster.root_perm(),
            kind: FileKind::Dir,
        };
        let mut prefix = String::with_capacity(path.len());
        for comp in fspath::components(path) {
            // Descending through a non-directory is ENOTDIR (before any
            // permission consideration, as in POSIX traversal).
            if cur.kind != FileKind::Dir {
                return Err(FsError::NotADirectory);
            }
            // Search permission on the directory we descend from.
            if !cur.perm.allows(cred, ACCESS_X) {
                return Err(FsError::PermissionDenied);
            }
            prefix.push('/');
            prefix.push_str(comp);
            let cached = self.dentries.lock().get(&prefix);
            cur = match cached {
                Some(hit) => {
                    self.counters.incr("dentry_hit");
                    hit
                }
                None => {
                    self.counters.incr("dentry_miss");
                    self.charge_rtt();
                    let mds = self.cluster.mds_for(cur.ino);
                    let ino = mds.lookup(cur.ino, comp, cred)?;
                    let (perm, kind) = self.cluster.peek_meta(ino)?;
                    let dentry = Dentry { ino, perm, kind };
                    self.dentries.lock().insert(&prefix, dentry);
                    dentry
                }
            };
        }
        Ok(cur.ino)
    }

    /// A write to `path` failed: on `NotFound` its cached dentry may name
    /// an inode another client removed, so it goes and a retry resolves the
    /// path afresh.
    fn forget_if_gone<T>(&self, path: &str, res: FsResult<T>) -> FsResult<T> {
        if res.as_ref().err() == Some(&FsError::NotFound) {
            self.dentries.lock().remove(path);
        }
        res
    }

    fn resolve_parent<'p>(&self, path: &'p str, cred: &Credentials) -> FsResult<(Ino, &'p str)> {
        let parent = fspath::parent(path)
            .ok_or_else(|| FsError::InvalidPath(format!("no parent: {path}")))?;
        let name = fspath::basename(path)
            .ok_or_else(|| FsError::InvalidPath(format!("no name: {path}")))?;
        Ok((self.resolve(parent, cred)?, name))
    }

    fn create_kind(
        &self,
        path: &str,
        cred: &Credentials,
        mode: u16,
        kind: FileKind,
    ) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path, cred)?;
        self.charge_rtt();
        let ino = self.cluster.mds_for(parent).create(parent, name, kind, mode, cred)?;
        self.dentries
            .lock()
            .insert(path, Dentry { ino, perm: Perm::new(mode, cred.uid, cred.gid), kind });
        Ok(())
    }

    /// Unlink a file and reclaim its chunks.
    fn remove_file(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path, cred)?;
        self.charge_rtt();
        let ino = self.cluster.mds_for(parent).unlink(parent, name, cred)?;
        self.dentries.lock().remove(path);
        // Chunk reclamation happens server-side in a real DFS; it is not a
        // client-visible cost.
        self.cluster.drop_file(ino);
        Ok(())
    }

    /// One namespace update as its own RPC (`mkdir`, `create` or
    /// `unlink`), cheaper for a single op than a batch of one.
    pub fn apply(&self, op: &BatchOp, cred: &Credentials) -> FsResult<()> {
        match op {
            BatchOp::Mkdir { path, mode } => self.create_kind(path, cred, *mode, FileKind::Dir),
            BatchOp::Create { path, mode } => self.create_kind(path, cred, *mode, FileKind::File),
            BatchOp::Unlink { path } => self.remove_file(path, cred),
        }
    }

    /// Apply a batch of namespace updates in one RPC (group commit): a
    /// single storage round trip and a single MDS request carrying every
    /// op. Results come back per op in input order; the dentry cache is
    /// maintained for each op that succeeded. Batches route to one MDS
    /// (root-sharded), matching the single-MDS testbed the paper runs.
    /// `ids` are the per-op replay identities of a durable commit
    /// pipeline — already-applied ops no-op server-side; a volatile
    /// pipeline passes [`OpId::NONE`]s.
    pub fn apply_batch_idempotent(
        &self,
        ops: &[BatchOp],
        ids: &[OpId],
        cred: &Credentials,
    ) -> Vec<FsResult<()>> {
        if ops.is_empty() {
            return Vec::new();
        }
        self.counters.incr("batch_rpcs");
        self.charge_rtt();
        let mds = self.cluster.mds_for(Ino::ROOT);
        let results = mds.apply_batch(ops, ids, cred);
        let mut dentries = self.dentries.lock();
        ops.iter()
            .zip(results)
            .map(|(op, res)| {
                let ino = res?;
                match op {
                    BatchOp::Mkdir { path, mode } => {
                        let perm = Perm::new(*mode, cred.uid, cred.gid);
                        dentries.insert(path, Dentry { ino, perm, kind: FileKind::Dir });
                    }
                    BatchOp::Create { path, mode } => {
                        let perm = Perm::new(*mode, cred.uid, cred.gid);
                        dentries.insert(path, Dentry { ino, perm, kind: FileKind::File });
                    }
                    BatchOp::Unlink { path } => {
                        dentries.remove(path);
                        self.cluster.drop_file(ino);
                    }
                }
                Ok(())
            })
            .collect()
    }

    /// An identified full-content writeback (durable commit replay): the
    /// write is skipped if it already applied or if the file has moved to
    /// a newer namespace generation since (re-created after this write
    /// was logged), and is recorded so a second replay of the same log
    /// no-ops. Data is written at offset 0 — the replay source is a
    /// snapshot of the file's full inline content.
    pub fn write_idempotent(
        &self,
        path: &str,
        cred: &Credentials,
        data: &[u8],
        id: OpId,
    ) -> FsResult<usize> {
        if self.cluster.data_replay_is_stale(path, &id) {
            self.counters.incr("replay_skipped_write");
            return Ok(data.len());
        }
        let ino = self.resolve(path, cred)?;
        let n = if data.is_empty() { 0 } else { self.write(path, cred, 0, data)? };
        self.cluster.record_data_replay(path, &id, ino);
        Ok(n)
    }

    /// Group commit for the data plane: many small full-content
    /// writebacks (each `data` lands at offset 0 of its `path`) as **one
    /// vectored write per data server** and **one size-update request**,
    /// instead of a server visit, a `getattr` and a `set_size` per file.
    /// Results come back per item in input order, and items fail
    /// independently — a path that does not resolve, a fault striking one
    /// size update — so the caller can retry exactly those through
    /// [`FileSystem::write`] / [`DfsClient::write_idempotent`].
    ///
    /// An item whose `id` is not [`OpId::NONE`] is an identified replay,
    /// as in `write_idempotent`: skipped when stale, and recorded only
    /// once its own size update succeeded. Two items may name the same
    /// path; their contents apply in input order.
    pub fn write_small_batch(
        &self,
        items: &[(&str, &[u8], OpId)],
        cred: &Credentials,
    ) -> Vec<FsResult<usize>> {
        if items.is_empty() {
            return Vec::new();
        }
        self.counters.incr("small_batch_rpcs");
        let mut results: Vec<Option<FsResult<usize>>> = vec![None; items.len()];
        // Items with bytes for the servers, and the inode they resolved to.
        let mut targets: Vec<(usize, Ino)> = Vec::with_capacity(items.len());
        for (i, &(path, data, id)) in items.iter().enumerate() {
            if self.cluster.data_replay_is_stale(path, &id) {
                self.counters.incr("replay_skipped_write");
                results[i] = Some(Ok(data.len()));
            } else if data.is_empty() && id.is_none() {
                // As `write`: nothing to move, nothing to resolve.
                results[i] = Some(Ok(0));
            } else {
                match self.resolve(path, cred) {
                    // As `write_idempotent`: an empty replay only has to
                    // find its file to count as applied.
                    Ok(ino) if data.is_empty() => {
                        self.cluster.record_data_replay(path, &id, ino);
                        results[i] = Some(Ok(0));
                    }
                    Ok(ino) => targets.push((i, ino)),
                    Err(e) => results[i] = Some(Err(e)),
                }
            }
        }

        // One visit per data server, carrying every range striped to it.
        let mut visits: Vec<(&Arc<DataServer>, Vec<ChunkWrite<'_>>)> = Vec::new();
        for &(i, ino) in &targets {
            let data = items[i].1;
            let mut written = 0;
            for (chunk_idx, offset_in_chunk, take) in chunk_pieces(0, data.len()) {
                let server = self.cluster.data_server_for(ino, chunk_idx);
                let piece =
                    ChunkWrite { ino, chunk_idx, offset_in_chunk, data: &data[written..written + take] };
                written += take;
                match visits.iter_mut().find(|(s, _)| Arc::ptr_eq(s, server)) {
                    Some((_, writes)) => writes.push(piece),
                    None => visits.push((server, vec![piece])),
                }
            }
        }
        for (server, writes) in &visits {
            self.charge_rtt();
            server.write_chunks(writes);
        }

        // One request for every size that may have grown.
        if !targets.is_empty() {
            let sizes: Vec<(Ino, u64)> =
                targets.iter().map(|&(i, ino)| (ino, items[i].1.len() as u64)).collect();
            self.charge_rtt();
            let sized = self.cluster.mds_for(Ino::ROOT).set_sizes(&sizes, cred);
            for ((i, ino), size_update) in targets.into_iter().zip(sized) {
                let (path, data, id) = items[i];
                results[i] = Some(size_update.map(|()| {
                    self.cluster.record_data_replay(path, &id, ino);
                    data.len()
                }));
            }
        }
        let settled = results.into_iter().map(|r| r.expect("every item settled above"));
        settled.zip(items).map(|(res, &(path, ..))| self.forget_if_gone(path, res)).collect()
    }

    /// Drop every cached dentry: the tree they name was replaced through
    /// another client (a checkpoint rollback deletes and recreates it).
    pub fn forget_dentries(&self) {
        self.dentries.lock().clear();
    }

    /// Number of dentries currently cached (diagnostics).
    pub fn dentry_count(&self) -> usize {
        self.dentries.lock().len()
    }

    /// The cluster this client talks to.
    pub fn cluster(&self) -> &Arc<DfsCluster> {
        &self.cluster
    }
}

impl FileSystem for DfsClient {
    fn mkdir(&self, path: &str, cred: &Credentials, mode: u16) -> FsResult<()> {
        self.create_kind(path, cred, mode, FileKind::Dir)
    }

    fn create(&self, path: &str, cred: &Credentials, mode: u16) -> FsResult<()> {
        self.create_kind(path, cred, mode, FileKind::File)
    }

    fn stat(&self, path: &str, cred: &Credentials) -> FsResult<FileStat> {
        if path == "/" {
            self.charge_rtt();
            return self.cluster.mds_for(Ino::ROOT).getattr(Ino::ROOT, cred);
        }
        // Resolve the parent chain, then one combined lookup+getattr RPC
        // for the final component (BeeGFS stats by name with lookup
        // intent, so a warm parent dentry means a single round trip).
        let (parent, name) = self.resolve_parent(path, cred)?;
        self.charge_rtt();
        let (ino, stat) = self.cluster.mds_for(parent).lookup_stat(parent, name, cred)?;
        self.dentries.lock().insert(path, Dentry { ino, perm: stat.perm, kind: stat.kind });
        Ok(stat)
    }

    fn unlink(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        self.remove_file(path, cred)
    }

    fn rmdir(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path, cred)?;
        self.charge_rtt();
        let res = self.cluster.mds_for(parent).rmdir(parent, name, cred);
        if res.is_ok() {
            self.dentries.lock().remove_subtree(path);
        }
        res
    }

    fn readdir(&self, path: &str, cred: &Credentials) -> FsResult<Vec<String>> {
        let ino = self.resolve(path, cred)?;
        self.charge_rtt();
        self.cluster.mds_for(ino).readdir(ino, cred)
    }

    fn write(&self, path: &str, cred: &Credentials, offset: u64, data: &[u8]) -> FsResult<usize> {
        let ino = self.resolve(path, cred)?;
        if data.is_empty() {
            return Ok(0);
        }
        let end = offset + data.len() as u64;
        let write = || {
            // Stripe across data servers chunk by chunk; one round trip per
            // contiguous chunk write.
            let mut written = 0usize;
            for (chunk_idx, in_chunk, take) in chunk_pieces(offset, data.len()) {
                let server = self.cluster.data_server_for(ino, chunk_idx);
                self.charge_rtt();
                server.write_chunk(ino, chunk_idx, in_chunk, &data[written..written + take]);
                written += take;
            }
            // Size update on the MDS when the file grew.
            let cur = self.cluster.mds_for(ino).getattr(ino, cred)?.size;
            self.charge_rtt();
            if end > cur {
                self.cluster.mds_for(ino).set_size(ino, end, cred)?;
            }
            Ok(written)
        };
        self.forget_if_gone(path, write())
    }

    fn read(&self, path: &str, cred: &Credentials, offset: u64, len: usize) -> FsResult<Vec<u8>> {
        let ino = self.resolve(path, cred)?;
        self.charge_rtt();
        let size = self.cluster.mds_for(ino).check_read(ino, cred)?;
        if offset >= size || len == 0 {
            return Ok(Vec::new());
        }
        let end = (offset + len as u64).min(size);
        let mut out = Vec::with_capacity((end - offset) as usize);
        for (chunk_idx, in_chunk, take) in chunk_pieces(offset, (end - offset) as usize) {
            let server = self.cluster.data_server_for(ino, chunk_idx);
            self.charge_rtt();
            let mut part = server.read_chunk(ino, chunk_idx, in_chunk, take);
            part.resize(take, 0); // zero-fill sparse holes
            out.extend_from_slice(&part);
        }
        Ok(out)
    }

    fn fsync(&self, path: &str, cred: &Credentials) -> FsResult<()> {
        let _ = self.resolve(path, cred)?;
        self.charge_rtt();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl DentryCache {
        /// Cached paths, least recently used first.
        fn by_recency(&self) -> Vec<String> {
            let mut out = Vec::with_capacity(self.nodes.len());
            let mut i = self.oldest;
            while i != NIL {
                out.push(self.nodes[i].key.to_string());
                i = self.nodes[i].newer;
            }
            out
        }
    }

    /// The plain recency list the cache must agree with: least recently
    /// used first, a full list drops its front.
    struct Reference {
        entries: Vec<(String, Ino)>,
        capacity: usize,
    }

    impl Reference {
        fn position(&self, path: &str) -> Option<usize> {
            self.entries.iter().position(|(p, _)| p == path)
        }

        fn get(&mut self, path: &str) -> Option<Ino> {
            let entry = self.entries.remove(self.position(path)?);
            let ino = entry.1;
            self.entries.push(entry);
            Some(ino)
        }

        fn insert(&mut self, path: &str, ino: Ino) {
            if self.capacity == 0 {
                return;
            }
            self.remove(path);
            self.entries.push((path.to_string(), ino));
            while self.entries.len() > self.capacity {
                self.entries.remove(0);
            }
        }

        fn remove(&mut self, path: &str) {
            if let Some(i) = self.position(path) {
                self.entries.remove(i);
            }
        }

        fn remove_subtree(&mut self, path: &str) {
            self.entries.retain(|(p, _)| !fspath::is_same_or_ancestor(path, p));
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(usize),
        Insert(usize, u64),
        Remove(usize),
        RemoveSubtree(usize),
        Clear,
    }

    /// More paths than the largest capacity, some nested under others.
    const PATHS: [&str; 14] = [
        "/a", "/a/b", "/a/b/c", "/a/b/d", "/a/c", "/ab", "/ab/c", "/b", "/b/a", "/b/b", "/c",
        "/c/a", "/d", "/e",
    ];

    fn op() -> impl Strategy<Value = Op> {
        let path = 0..PATHS.len();
        prop_oneof![
            6 => path.clone().prop_map(Op::Get),
            6 => (path.clone(), 2..100u64).prop_map(|(p, ino)| Op::Insert(p, ino)),
            2 => path.clone().prop_map(Op::Remove),
            1 => path.prop_map(Op::RemoveSubtree),
            1 => Just(Op::Clear),
        ]
    }

    fn dentry(ino: u64) -> Dentry {
        Dentry { ino: Ino(ino), perm: Perm::new(0o755, 1, 1), kind: FileKind::Dir }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn dentry_lru_matches_a_recency_list(ops in proptest::collection::vec(op(), 1..200)) {
            for capacity in [0, 1, 8] {
                let mut cache = DentryCache::new(capacity);
                let mut reference = Reference { entries: Vec::new(), capacity };
                for op in &ops {
                    match *op {
                        Op::Get(p) => prop_assert_eq!(
                            cache.get(PATHS[p]).map(|d| d.ino),
                            reference.get(PATHS[p]),
                            "hit at {:?}, capacity {}", op, capacity
                        ),
                        Op::Insert(p, ino) => {
                            cache.insert(PATHS[p], dentry(ino));
                            reference.insert(PATHS[p], Ino(ino));
                        }
                        Op::Remove(p) => {
                            cache.remove(PATHS[p]);
                            reference.remove(PATHS[p]);
                        }
                        Op::RemoveSubtree(p) => {
                            cache.remove_subtree(PATHS[p]);
                            reference.remove_subtree(PATHS[p]);
                        }
                        Op::Clear => {
                            cache.clear();
                            reference.entries.clear();
                        }
                    }
                    // Same members in the same order: every eviction took
                    // the reference's victim.
                    let want: Vec<String> =
                        reference.entries.iter().map(|(p, _)| p.clone()).collect();
                    prop_assert_eq!(cache.by_recency(), want, "after {:?}, capacity {}", op, capacity);
                    prop_assert_eq!(cache.len(), reference.entries.len());
                }
            }
        }
    }
}
