//! Cluster assembly: one server per client node, directory-hash
//! partitioning, and the global directory-id allocator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fsapi::Perm;
use simnet::{LatencyProfile, NodeId, Topology};

use crate::client::IndexFsClient;
use crate::server::Server;

/// Root directory id (the root has no parent record).
pub const ROOT_DIR_ID: u64 = 0;

/// Configuration of an IndexFS deployment.
#[derive(Debug, Clone)]
pub struct IndexFsConfig {
    /// Client lease-cache capacity (entries).
    pub lease_capacity: usize,
    /// Mode bits of `/`.
    pub root_mode: u16,
}

impl Default for IndexFsConfig {
    fn default() -> Self {
        Self { lease_capacity: 1024, root_mode: 0o777 }
    }
}

/// A running IndexFS deployment co-located with the client nodes.
pub struct IndexFsCluster {
    servers: Vec<Arc<Server>>,
    profile: Arc<LatencyProfile>,
    config: IndexFsConfig,
    next_dir_id: AtomicU64,
    root_perm: Perm,
}

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl IndexFsCluster {
    /// Launch one server per node of `topology`.
    pub fn new(
        topology: Topology,
        profile: Arc<LatencyProfile>,
        config: IndexFsConfig,
    ) -> Arc<Self> {
        let servers =
            topology.node_ids().map(|node| Server::new(node.0, Arc::clone(&profile))).collect();
        let root_perm = Perm::new(config.root_mode, 0, 0);
        Arc::new(Self {
            servers,
            profile,
            config,
            next_dir_id: AtomicU64::new(ROOT_DIR_ID + 1),
            root_perm,
        })
    }

    /// Convenience constructor with default config.
    pub fn with_default_config(topology: Topology, profile: Arc<LatencyProfile>) -> Arc<Self> {
        Self::new(topology, profile, IndexFsConfig::default())
    }

    /// A client bound to `node` (its own lease cache).
    pub fn client(self: &Arc<Self>, node: NodeId) -> IndexFsClient {
        assert!(
            (node.0 as usize) < self.servers.len(),
            "node {node:?} outside the IndexFS deployment"
        );
        IndexFsClient::new(Arc::clone(self), node, self.config.lease_capacity)
    }

    /// Server owning directory `dir_id`'s *default* partition (used for
    /// coarse placement decisions).
    pub fn server_for(&self, dir_id: u64) -> &Arc<Server> {
        let idx = (mix64(dir_id) % self.servers.len() as u64) as usize;
        &self.servers[idx]
    }

    /// Server owning one *entry* of a directory. IndexFS splits large
    /// directories across servers GIGA+-style, hashing each entry name,
    /// so a hot shared directory (every mdtest client creating in the
    /// same parent) spreads over the whole deployment instead of
    /// hot-spotting one server.
    pub fn server_for_entry(&self, dir_id: u64, name: &str) -> &Arc<Server> {
        let mut h = mix64(dir_id);
        for b in name.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let idx = (mix64(h) % self.servers.len() as u64) as usize;
        &self.servers[idx]
    }

    /// All servers (readdir and emptiness checks visit every partition,
    /// as GIGA+ directory scans do).
    pub fn servers(&self) -> &[Arc<Server>] {
        &self.servers
    }

    /// Server running on a specific node (bulk flush groups by node).
    pub fn server_by_node(&self, node: u32) -> Arc<Server> {
        Arc::clone(&self.servers[node as usize])
    }

    /// Allocate a fresh directory id.
    pub fn alloc_dir_id(&self) -> u64 {
        self.next_dir_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn root_perm(&self) -> Perm {
        self.root_perm
    }

    pub fn profile(&self) -> &Arc<LatencyProfile> {
        &self.profile
    }

    /// Aggregate a server counter across the deployment.
    pub fn server_counter(&self, name: &str) -> u64 {
        self.servers.iter().map(|s| s.counters.get(name)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_partitioning_spreads_across_servers() {
        let c = IndexFsCluster::with_default_config(
            Topology::new(8, 1),
            Arc::new(LatencyProfile::zero()),
        );
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let id = c.alloc_dir_id();
            seen.insert(c.server_for(id).node());
        }
        assert_eq!(seen.len(), 8, "all servers must own some directories");
    }

    #[test]
    fn dir_ids_are_unique() {
        let c = IndexFsCluster::with_default_config(
            Topology::new(2, 1),
            Arc::new(LatencyProfile::zero()),
        );
        let mut ids = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(ids.insert(c.alloc_dir_id()));
        }
    }
}
