//! Model-based property tests: a shard (and a whole cluster) against a
//! `HashMap` reference, including CAS version semantics and the
//! eviction-free configuration.

use std::collections::HashMap;

use memkv::{CasOutcome, Shard};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set(u8, Vec<u8>),
    Add(u8, Vec<u8>),
    Delete(u8),
    Get(u8),
    /// CAS against the *current* version (should succeed) or a bogus one
    /// (should conflict).
    CasCurrent(u8, Vec<u8>),
    CasStale(u8, Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let val = proptest::collection::vec(any::<u8>(), 0..16);
    prop_oneof![
        (any::<u8>(), val.clone()).prop_map(|(k, v)| Op::Set(k, v)),
        (any::<u8>(), val.clone()).prop_map(|(k, v)| Op::Add(k, v)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Get),
        (any::<u8>(), val.clone()).prop_map(|(k, v)| Op::CasCurrent(k, v)),
        (any::<u8>(), val).prop_map(|(k, v)| Op::CasStale(k, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn shard_matches_hashmap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let shard = Shard::new();
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();

        for op in &ops {
            match op {
                Op::Set(k, v) => {
                    shard.set(&[*k], v);
                    model.insert(*k, v.clone());
                }
                Op::Add(k, v) => {
                    let added = shard.add(&[*k], v).is_some();
                    prop_assert_eq!(added, !model.contains_key(k));
                    if added {
                        model.insert(*k, v.clone());
                    }
                }
                Op::Delete(k) => {
                    let existed = shard.delete(&[*k], None);
                    prop_assert_eq!(existed, model.remove(k).is_some());
                }
                Op::Get(k) => {
                    let got = shard.get(&[*k]).map(|(v, _)| v.to_vec());
                    prop_assert_eq!(got.as_ref(), model.get(k));
                }
                Op::CasCurrent(k, v) => {
                    match shard.get(&[*k]) {
                        Some((_, ver)) => {
                            let out = shard.cas(&[*k], ver, v);
                            let stored = matches!(out, CasOutcome::Stored { .. });
                            prop_assert!(stored);
                            model.insert(*k, v.clone());
                        }
                        None => {
                            prop_assert_eq!(shard.cas(&[*k], 1, v), CasOutcome::NotFound);
                        }
                    }
                }
                Op::CasStale(k, v) => {
                    if model.contains_key(k) {
                        // Version 0 is never issued.
                        let out = shard.cas(&[*k], 0, v);
                        let conflicted = matches!(out, CasOutcome::Conflict { .. });
                        prop_assert!(conflicted);
                        // Value unchanged.
                        let got = shard.get(&[*k]).map(|(v, _)| v.to_vec());
                        prop_assert_eq!(got.as_ref(), model.get(k));
                    }
                }
            }
        }
        prop_assert_eq!(shard.len(), model.len());
        // Byte accounting is exact for the final state.
        let want_bytes: usize =
            model.values().map(|v| 1 + v.len() + 48).sum();
        prop_assert_eq!(shard.used_bytes(), want_bytes);
    }

    #[test]
    fn versions_strictly_increase_per_key(values in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..8), 2..20)) {
        let shard = Shard::new();
        let mut last = 0u64;
        for v in &values {
            let ver = shard.set(b"key", v);
            prop_assert!(ver > last, "versions must strictly increase");
            last = ver;
        }
    }
}
