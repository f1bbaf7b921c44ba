// Seeded violation for R8: a fault-surface cache call retried in a
// bare loop — no attempt budget, no backoff — so a crashed node spins
// this function forever. Analyzed as `crates/pacon/src/fix_r8.rs`.
pub fn spin_until_up(cache: &MetaCache, key: &str) -> Vec<u8> {
    loop {
        if let Ok(v) = cache.get(key) {
            return v;
        }
    }
}

// Green: the same retry gated on the policy's budget/deadline envelope
// (`next_backoff` returns `None` once either is exhausted) — R8 must
// stay silent here.
pub fn retry_with_policy(cache: &MetaCache, policy: &RetryPolicy, key: &str) -> Option<Vec<u8>> {
    let mut attempt = 0;
    let mut slept = 0;
    loop {
        if let Ok(v) = cache.get(key) {
            return Some(v);
        }
        let delay = policy.next_backoff(attempt, slept, 7)?;
        slept += delay;
        attempt += 1;
    }
}

// Green: a `for` over a key set is a bounded sweep, not a retry — one
// attempt per key.
pub fn sweep(cache: &MetaCache, keys: &[&str]) {
    for key in keys {
        let _ = cache.delete(key);
    }
}

// Green: a deliberate free-running retry with a written-down reason.
pub fn drain(kv: &KvClient, key: &str) {
    loop {
        // Shutdown path: the node is already fenced, so the loop ends
        // with the queue. lint: allow(retry-loop)
        if kv.delete(key).is_ok() {
            return;
        }
    }
}
