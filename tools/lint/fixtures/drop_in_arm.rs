// Drop-scope fixture: a `drop(guard)` inside one match arm releases the
// guard in that arm only. The arm after it still holds the guard, so the
// lock it takes is an edge out of the guard's class; the arm that dropped
// it takes its lock unguarded. Analyzed as `crates/pacon/src/fix_drop.rs`.
use syncguard::{level, Mutex};

pub struct Pair {
    outer: Mutex<u64>,
    early: Mutex<u64>,
    late: Mutex<u64>,
}

impl Pair {
    pub fn new() -> Pair {
        Pair {
            outer: Mutex::new(level::REGION, "fix.outer", 0),
            early: Mutex::new(level::SHARD, "fix.early", 0),
            late: Mutex::new(level::SHARD, "fix.late", 0),
        }
    }

    pub fn op(&self, release: bool) -> u64 {
        let held = self.outer.lock();
        match release {
            true => {
                drop(held);
                *self.early.lock()
            }
            false => *self.late.lock(),
        }
    }
}
