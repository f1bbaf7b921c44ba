//! Rendezvous (highest-random-weight) placement of keys on shard nodes.
//!
//! Each member has a fixed seed derived from its node id; a key belongs to
//! the member whose avalanched `hash(key) ^ seed` is largest (Thaler &
//! Ravishankar, 1998). Every member draws an independent score per key,
//! so keys spread evenly by key rather than by arc length, and a
//! membership change moves only the keys a joiner wins or a leaver held
//! (asserted by tests) — what lets Pacon grow a consistent region's cache
//! with the application. There is nothing to tune.

use simnet::NodeId;

/// Splitmix64 finaliser: spreads every input bit over the whole word.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// FNV-1a, seeded; stable across runs (no RandomState) so experiments are
/// reproducible.
fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // The final avalanche spreads FNV's weak low bits.
    avalanche(h)
}

/// Immutable key placement over a set of member nodes.
#[derive(Debug, Clone)]
pub struct Ring {
    /// (seed, node), one per member, sorted by node id.
    members: Vec<(u64, NodeId)>,
}

impl Ring {
    /// Place keys over `nodes` (duplicates collapse to one member).
    pub fn new(nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "ring needs at least one node");
        let mut members: Vec<(u64, NodeId)> = nodes
            .iter()
            .map(|&node| (fnv1a(&(node.0 as u64).to_le_bytes(), 0x9e3779b1), node))
            .collect();
        members.sort_unstable_by_key(|&(_, node)| node);
        members.dedup_by_key(|&mut (_, node)| node);
        Self { members }
    }

    /// Node owning `key`: the member with the highest score; a tie goes
    /// to the larger node id.
    pub fn node_for(&self, key: &[u8]) -> NodeId {
        let h = fnv1a(key, 0x85eb_ca6b);
        let (mut best, mut owner) = (0u64, 0u32);
        // Members ascend by node id, so `>=` hands a tie to the larger
        // one. The pick is a mask, not a branch: whether a member beats
        // the best so far is a coin flip no branch predictor learns.
        for &(seed, node) in &self.members {
            let score = avalanche(h ^ seed);
            let take = 0u64.wrapping_sub((score >= best) as u64);
            best = (score & take) | (best & !take);
            owner = (node.0 & take as u32) | (owner & !(take as u32));
        }
        NodeId(owner)
    }

    /// Member nodes, sorted.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.members.iter().map(|&(_, node)| node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// The key set the placement tests share: paths in a few dozen
    /// directories, the shape Pacon's cache keys have.
    fn keys(n: u32) -> impl Iterator<Item = String> {
        (0..n).map(|i| format!("/data/dir{}/file-{i}", i % 37))
    }

    #[test]
    fn deterministic_and_covers_all_nodes() {
        let ring = Ring::new(&nodes(8));
        let mut hit = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            let key = format!("/app/workdir/file-{i}");
            let n1 = ring.node_for(key.as_bytes());
            let n2 = ring.node_for(key.as_bytes());
            assert_eq!(n1, n2);
            hit.insert(n1);
        }
        assert_eq!(hit.len(), 8, "all shards must receive keys");
    }

    /// The busiest member holds at most 3 % more keys than the mean: room
    /// for sampling noise (σ ≈ 1 % at 10 000 keys a member), not for a
    /// placement that favours a member.
    #[test]
    fn key_shares_are_balanced_on_8_and_16_members() {
        const KEYS: u32 = 160_000;
        for n in [8u32, 16] {
            let ring = Ring::new(&nodes(n));
            let mut counts = vec![0u32; n as usize];
            for key in keys(KEYS) {
                counts[ring.node_for(key.as_bytes()).index()] += 1;
            }
            let max = *counts.iter().max().unwrap();
            let skew = max as f64 * n as f64 / KEYS as f64;
            assert!(skew <= 1.03, "{n} members: max/mean {skew:.4} ({counts:?})");
        }
    }

    #[test]
    fn adding_a_node_remaps_a_fraction_only() {
        let ring_a = Ring::new(&nodes(8));
        let ring_b = Ring::new(&nodes(9));
        let total = 100_000u32;
        let mut moved = 0;
        for key in keys(total) {
            let k = key.as_bytes();
            let (before, after) = (ring_a.node_for(k), ring_b.node_for(k));
            if before != after {
                assert_eq!(after, NodeId(8), "{key} moved between old members");
                moved += 1;
            }
        }
        let frac = moved as f64 / total as f64;
        assert!(
            (frac - 1.0 / 9.0).abs() <= 0.02,
            "join moved {frac:.4} of the keys"
        );
    }

    #[test]
    fn removing_a_node_moves_only_its_keys() {
        let all = nodes(8);
        let leaver = NodeId(3);
        let rest: Vec<NodeId> = all.iter().copied().filter(|&n| n != leaver).collect();
        let (ring_a, ring_b) = (Ring::new(&all), Ring::new(&rest));
        let mut held = 0;
        for key in keys(100_000) {
            let k = key.as_bytes();
            let (before, after) = (ring_a.node_for(k), ring_b.node_for(k));
            if before == leaver {
                held += 1;
            } else {
                assert_eq!(before, after, "{key} moved off a surviving member");
            }
        }
        assert!(held > 0, "the leaver owned nothing");
    }

    #[test]
    fn single_node_gets_everything() {
        let ring = Ring::new(&nodes(1));
        for i in 0..100 {
            assert_eq!(ring.node_for(format!("k{i}").as_bytes()), NodeId(0));
        }
    }

    #[test]
    fn nodes_listing() {
        let ring = Ring::new(&[NodeId(2), NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(ring.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_ring_panics() {
        Ring::new(&[]);
    }
}
