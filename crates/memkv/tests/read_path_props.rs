//! Read-path property tests: batched multi-get is byte-for-byte
//! equivalent to sequential gets (including misses and under interleaved
//! writers), and CLOCK eviction keeps its two invariants — the budget
//! holds after every insertion, and recently-referenced entries survive
//! hand sweeps. Ordered queries (the lazily built key index) always
//! answer what a brute-force filter/sort/min over the live map would.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use memkv::{KvCluster, Shard};
use proptest::prelude::*;
use simnet::{LatencyProfile, NodeId, Topology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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

    #[test]
    fn clock_holds_the_byte_budget_after_every_insert(
        ops in proptest::collection::vec((any::<u8>(), 1usize..64), 2..300),
        budget in 256usize..2048,
    ) {
        let shard = Shard::new(Some(budget));
        for (k, len) in &ops {
            shard.set(&[*k], &vec![0xAB; *len]);
            // A single entry may exceed the budget on its own (eviction
            // never empties the shard); otherwise the sweep must have
            // brought usage back under it.
            prop_assert!(
                shard.used_bytes() <= budget || shard.len() <= 1,
                "used {} > budget {} with {} entries",
                shard.used_bytes(), budget, shard.len()
            );
        }
    }

    /// A live reshard into byte-budgeted shards must never *reject* a
    /// migrated range: the destination admits every import and sheds
    /// cold residents instead, keeping each shard inside its budget
    /// (single oversized entries excepted, as for client writes). A key
    /// that survives to the end always reads back its exact pre-reshard
    /// value and version — eviction may drop a key, never corrupt one.
    #[test]
    fn migration_into_budgeted_shards_evicts_cold_not_imports(
        entries in proptest::collection::vec((any::<u16>(), 8usize..64), 10..80),
        budget in 1024usize..4096,
        nodes in 3u32..5,
    ) {
        let cluster = KvCluster::with_options(
            Topology::new(nodes, 1),
            Arc::new(LatencyProfile::zero()),
            Some(budget),
            0,
        );
        let client = cluster.client(NodeId(0));
        let mut latest: std::collections::HashMap<Vec<u8>, (Vec<u8>, u64)> =
            std::collections::HashMap::new();
        for (k, len) in &entries {
            let key = k.to_be_bytes().to_vec();
            let val = vec![(*k % 251) as u8; *len];
            let ver = client.set(&key, &val).unwrap();
            latest.insert(key, (val, ver));
        }
        // Shrink the ring by one node: its whole shard migrates into the
        // already-budgeted survivors.
        prop_assert!(cluster.begin_leave(NodeId(nodes - 1)));
        let mut spins = 0;
        while cluster.migration_active() {
            cluster.migration_step(8);
            spins += 1;
            prop_assert!(spins < 10_000, "migration never converged");
        }
        // Budget holds cluster-wide (each shard enforces it locally).
        prop_assert!(
            cluster.used_bytes() <= nodes as usize * budget,
            "budget breached after migration: {} > {}",
            cluster.used_bytes(), nodes as usize * budget
        );
        // Every surviving key is exact; a missing key was evicted, not
        // corrupted — and then only if eviction actually ran.
        let mut missing = 0usize;
        for (key, (val, ver)) in &latest {
            match client.get(key).unwrap() {
                Some((v, got_ver)) => {
                    prop_assert_eq!(&*v, &val[..], "value corrupted by migration");
                    prop_assert_eq!(got_ver, *ver, "version changed by migration");
                }
                None => missing += 1,
            }
        }
        if missing > 0 {
            prop_assert!(
                cluster.stats().evictions > 0,
                "{missing} keys vanished without any eviction"
            );
        }
    }

    /// Hot keys survive a reshard under eviction pressure: a key
    /// referenced on every round keeps its CLOCK second chance through
    /// the migration (imports arrive referenced), while the unreferenced
    /// cold churn is what gets evicted.
    #[test]
    fn hot_key_survives_reshard_under_pressure(
        cold_count in 20u16..100,
        val_len in 8usize..32,
        leave_at in 5u16..15,
    ) {
        let cluster = KvCluster::with_options(
            Topology::new(3, 1),
            Arc::new(LatencyProfile::zero()),
            Some(1024),
            0,
        );
        let client = cluster.client(NodeId(0));
        client.set(b"hot", &[1; 16]).unwrap();
        for k in 0..cold_count {
            prop_assert!(client.get(b"hot").unwrap().is_some(), "hot key evicted at {}", k);
            client.set(&k.to_be_bytes(), &vec![0; val_len]).unwrap();
            if k == leave_at {
                // Mid-churn reshard; pumped incrementally below.
                cluster.begin_leave(NodeId(2));
            }
            cluster.migration_step(4);
        }
        let mut spins = 0;
        while cluster.migration_active() {
            cluster.migration_step(8);
            spins += 1;
            prop_assert!(spins < 10_000, "migration never converged");
        }
        prop_assert!(client.get(b"hot").unwrap().is_some(), "hot key lost across the reshard");
    }

    /// The ordered key index is built by the first ordered query —
    /// issued at a random point of the history — and from then on tracks
    /// every way a key enters or leaves the map: client stores, deletes,
    /// migration export/import, crash wipes and budgeted CLOCK evictions.
    /// After every later op both ordered queries equal a brute-force
    /// filter/sort/min over the live keys.
    #[test]
    fn ordered_queries_equal_brute_force_over_the_live_map(
        ops in proptest::collection::vec(
            (0u8..16, proptest::collection::vec(0u8..3, 1..4), 1usize..48),
            1..120,
        ),
        budget in 0usize..600,
        first_query_at in 0usize..120,
    ) {
        // A third of the cases run unbounded, the rest under CLOCK pressure.
        let budget = (budget >= 200).then_some(budget);
        // Every key an op can name: 1–3 bytes over a 3-letter alphabet.
        let mut universe: Vec<Vec<u8>> = Vec::new();
        for a in 0u8..3 {
            universe.push(vec![a]);
            for b in 0u8..3 {
                universe.push(vec![a, b]);
                universe.extend((0u8..3).map(|c| vec![a, b, c]));
            }
        }
        let shard = Shard::new(budget);
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

    #[test]
    fn clock_spares_the_recently_referenced_entry(
        cold_count in 20u16..120,
        val_len in 8usize..32,
    ) {
        let shard = Shard::new(Some(1024));
        shard.set(b"hot", &[1; 16]);
        for k in 0..cold_count {
            // Touch the hot key so its reference bit is set whenever an
            // insertion sweeps the clock hand; the distinct cold keys are
            // never referenced, so every sweep finds a cold victim first.
            prop_assert!(shard.get(b"hot").is_some(), "hot key evicted at {}", k);
            shard.set(&k.to_be_bytes(), &vec![0; val_len]);
        }
        prop_assert!(shard.get(b"hot").is_some(), "hot key evicted by final sweep");
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
