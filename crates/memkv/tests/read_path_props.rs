//! Batched-path property tests: multi-get is byte-for-byte equivalent to
//! sequential gets (including misses and under interleaved writers), and
//! its write-side counterpart, the batched conditional store, to
//! sequential `cas` / versioned `delete`. Ordered queries (the lazily
//! built key index) always answer what a brute-force filter/sort/min over
//! the live map would.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use memkv::{CasOutcome, CondOutcome, CondWrite, KvCluster, Shard};
use proptest::collection::vec;
use proptest::prelude::*;
use simnet::{LatencyProfile, NodeId, Topology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each item of a batched conditional store has the outcome the
    /// sequential `cas` / versioned `delete` would have had in its place
    /// — stores, conflicts (also with an earlier item of the same batch),
    /// `NotFound` — and the two clusters end up holding the same values
    /// at the same versions. Between the reads that produced the versions
    /// and the batch, other writers move records on or delete them.
    #[test]
    fn multi_write_equals_sequential_cas_and_delete(
        present in vec((0u8..24, vec(any::<u8>(), 0..16)), 0..30),
        items in vec((0u8..24, any::<bool>(), 0u64..3, vec(any::<u8>(), 0..16)), 1..40),
        interleaved in vec((0u8..24, any::<bool>()), 0..10),
        nodes in 1u32..6,
    ) {
        let key = |k: u8| vec![b'k', k];
        let launch = || {
            let cluster = KvCluster::new(Topology::new(nodes, 1), Arc::new(LatencyProfile::zero()));
            let client = cluster.client(NodeId(0));
            for (k, v) in &present {
                client.set(&key(*k), v).unwrap();
            }
            (cluster, client)
        };
        let (batched_cluster, batched) = launch();
        let (sequential_cluster, sequential) = launch();
        // The version each writer read (or, `stale` > 0, an older one) ...
        let read: Vec<u64> = items
            .iter()
            .map(|(k, _, stale, _)| {
                batched.get(&key(*k)).unwrap().map_or(1, |(_, v)| v).saturating_sub(*stale)
            })
            .collect();
        // ... then other writers get in between, on both clusters alike.
        for (k, delete) in &interleaved {
            for client in [&batched, &sequential] {
                if *delete {
                    client.delete(&key(*k), None).unwrap();
                } else {
                    client.set(&key(*k), b"moved on").unwrap();
                }
            }
        }
        let keys: Vec<Vec<u8>> = items.iter().map(|(k, ..)| key(*k)).collect();
        let writes: Vec<CondWrite<'_>> = items
            .iter()
            .zip(&keys)
            .zip(&read)
            .map(|(((_, cas, _, value), key), &version)| CondWrite {
                key,
                version,
                value: cas.then_some(value.as_slice()),
            })
            .collect();
        let got = batched.multi_write(&writes, batched_cluster.ring_epoch()).unwrap();
        prop_assert!(got.is_complete());
        for (w, got) in writes.iter().zip(&got.results) {
            let want = match w.value {
                Some(value) => match sequential
                    .cas(w.key, w.version, value, sequential_cluster.ring_epoch())
                    .unwrap()
                {
                    CasOutcome::Stored { new_version } => CondOutcome::Stored { new_version },
                    CasOutcome::Conflict { current_version } => {
                        CondOutcome::Conflict { current_version }
                    }
                    CasOutcome::NotFound => CondOutcome::NotFound,
                },
                // A versioned delete only says whether it removed the
                // record; a read beforehand tells the two misses apart.
                None => match sequential.get(w.key).unwrap() {
                    None => CondOutcome::NotFound,
                    Some((_, current)) if current != w.version => {
                        CondOutcome::Conflict { current_version: current }
                    }
                    Some(_) => {
                        prop_assert!(sequential.delete(w.key, Some(w.version)).unwrap());
                        CondOutcome::Deleted
                    }
                },
            };
            prop_assert_eq!(got, &Some(want), "item {:?}", w);
        }
        for k in 0..24 {
            prop_assert_eq!(batched.get(&key(k)).unwrap(), sequential.get(&key(k)).unwrap());
        }
    }

    #[test]
    fn multi_get_equals_sequential_gets(
        present in proptest::collection::vec(
            (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..32)),
            0..40,
        ),
        queried in proptest::collection::vec(any::<u16>(), 1..60),
        nodes in 1u32..6,
    ) {
        let cluster = KvCluster::new(Topology::new(nodes, 1), Arc::new(LatencyProfile::zero()));
        let client = cluster.client(NodeId(0));
        for (k, v) in &present {
            client.set(&k.to_be_bytes(), v).unwrap();
        }
        let keys: Vec<Vec<u8>> = queried.iter().map(|k| k.to_be_bytes().to_vec()).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let batched = client.multi_gets(&refs);
        prop_assert!(batched.is_complete());
        prop_assert_eq!(batched.results.len(), refs.len());
        for (key, got) in refs.iter().zip(&batched.results) {
            let single = client.get(key).unwrap();
            match (got, &single) {
                (Some((bv, bver)), Some((sv, sver))) => {
                    prop_assert_eq!(&**bv, &**sv, "value mismatch for {:?}", key);
                    prop_assert_eq!(bver, sver, "version mismatch for {:?}", key);
                }
                (None, None) => {}
                (b, s) => prop_assert!(false, "presence mismatch for {:?}: {:?} vs {:?}", key, b, s),
            }
        }
    }

    /// The ordered key index is built by the first ordered query —
    /// issued at a random point of the history — and from then on tracks
    /// every way a key enters or leaves the map: client stores, deletes,
    /// migration export/import and crash wipes. After every later op
    /// both ordered queries equal a brute-force filter/sort/min over the
    /// live keys.
    #[test]
    fn ordered_queries_equal_brute_force_over_the_live_map(
        ops in proptest::collection::vec(
            (0u8..16, proptest::collection::vec(0u8..3, 1..4), 1usize..48),
            1..120,
        ),
        first_query_at in 0usize..120,
    ) {
        // Every key an op can name: 1–3 bytes over a 3-letter alphabet.
        let mut universe: Vec<Vec<u8>> = Vec::new();
        for a in 0u8..3 {
            universe.push(vec![a]);
            for b in 0u8..3 {
                universe.push(vec![a, b]);
                universe.extend((0u8..3).map(|c| vec![a, b, c]));
            }
        }
        let shard = Shard::new();
        for (i, (kind, key, len)) in ops.iter().enumerate() {
            let value = vec![0xCD; *len];
            match kind {
                0..=4 => { shard.set(key, &value); }
                5 | 6 => { shard.add(key, &value); }
                7 | 8 => {
                    if let Some((_, version)) = shard.get(key) {
                        shard.cas(key, version, &value);
                    }
                }
                9..=11 => { shard.delete(key, None); }
                12 => { shard.migrate_out(key); }
                13 | 14 => { shard.install(key, &value, 1_000 + i as u64); }
                _ => shard.clear(),
            }
            if i < first_query_at {
                prop_assert!(!shard.index_built(), "op {} ({}) built the index", i, kind);
                continue;
            }
            let live: Vec<&Vec<u8>> =
                universe.iter().filter(|k| shard.get(k).is_some()).collect();
            prop_assert_eq!(live.len(), shard.len());
            // The op's own key, its parent prefix, and the empty prefix.
            for probe in [&key[..], &key[..key.len() - 1], &[]] {
                let mut with_prefix: Vec<Vec<u8>> =
                    live.iter().filter(|k| k.starts_with(probe)).map(|k| (*k).clone()).collect();
                with_prefix.sort();
                prop_assert_eq!(shard.keys_with_prefix(probe), with_prefix);
                let at_or_after = live.iter().filter(|k| &k[..] >= probe).min().map(|k| (*k).clone());
                prop_assert_eq!(shard.first_key_at_or_after(probe), at_or_after);
            }
        }
    }

    /// The cluster-wide ordered queries merge the shards' answers — sorted
    /// union and minimum — whatever the shard count and wherever a live
    /// reshard has put the keys.
    #[test]
    fn cluster_ordered_queries_merge_the_shards(
        present in proptest::collection::vec(any::<u16>(), 0..80),
        deleted in proptest::collection::vec(any::<u16>(), 0..40),
        probes in proptest::collection::vec(any::<u16>(), 1..12),
        nodes in 1u32..6,
        reshard_steps in 0usize..6,
    ) {
        let cluster = KvCluster::new(Topology::new(nodes, 1), Arc::new(LatencyProfile::zero()));
        let client = cluster.client(NodeId(0));
        let mut live = std::collections::BTreeSet::new();
        for k in &present {
            client.set(&k.to_be_bytes(), b"v").unwrap();
            live.insert(k.to_be_bytes().to_vec());
        }
        // The first ordered query lands before the deletes and the
        // (possibly unfinished) reshard, so both run against built indexes.
        prop_assert_eq!(cluster.keys_with_prefix(b""), live.iter().cloned().collect::<Vec<_>>());
        for k in &deleted {
            client.delete(&k.to_be_bytes(), None).unwrap();
            live.remove(&k.to_be_bytes()[..]);
        }
        cluster.begin_leave(NodeId(nodes - 1));
        for _ in 0..reshard_steps {
            cluster.migration_step(4);
        }
        for probe in &probes {
            let probe = probe.to_be_bytes();
            let with_prefix: Vec<Vec<u8>> =
                live.iter().filter(|k| k.starts_with(&probe[..1])).cloned().collect();
            prop_assert_eq!(cluster.keys_with_prefix(&probe[..1]), with_prefix);
            let at_or_after = live.range(probe.to_vec()..).next().cloned();
            prop_assert_eq!(cluster.first_key_at_or_after(&probe), at_or_after);
        }
    }
}

#[test]
fn multi_get_under_interleaved_writers_sees_only_valid_states() {
    let cluster = KvCluster::new(Topology::new(4, 2), Arc::new(LatencyProfile::zero()));
    let keys: Vec<Vec<u8>> = (0..64u16).map(|k| k.to_be_bytes().to_vec()).collect();
    let writer_client = cluster.client(NodeId(0));
    for k in &keys {
        writer_client.set(k, b"v0").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        let keys = keys.clone();
        std::thread::spawn(move || {
            let mut flip = false;
            while !stop.load(Ordering::Relaxed) {
                for k in &keys {
                    writer_client.set(k, if flip { b"v1" } else { b"v0" }).unwrap();
                }
                flip = !flip;
            }
        })
    };
    let reader = cluster.client(NodeId(1));
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    for _ in 0..200 {
        for got in reader.multi_gets(&refs).results {
            // Every key always exists, and each slot holds exactly what
            // some sequential get could have returned at that instant.
            let (v, _) = got.expect("keys are never deleted");
            assert!(&*v == b"v0" || &*v == b"v1", "torn value {v:?}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}
