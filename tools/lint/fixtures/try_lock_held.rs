// Try-lock fixture: a try-lock never waits, so nothing held leads an
// edge into it, but its guard is live: what is taken under it is an edge
// out of it. Analyzed as `crates/pacon/src/fix_try.rs`.
use syncguard::{level, Mutex};

pub struct Slots {
    outer: Mutex<u64>,
    slot: Mutex<u64>,
    inner: Mutex<u64>,
}

impl Slots {
    pub fn new() -> Slots {
        Slots {
            outer: Mutex::new(level::REGION, "fix.outer", 0),
            slot: Mutex::new(level::COMMIT_WORKER, "fix.slot", 0),
            inner: Mutex::new(level::SHARD, "fix.inner", 0),
        }
    }

    pub fn step(&self) -> Option<u64> {
        let held = self.outer.lock();
        let slot = self.slot.try_lock()?;
        let v = self.inner.lock();
        Some(*held + *slot + *v)
    }
}
