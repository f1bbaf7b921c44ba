// Typed-closure fixture: a call on a closure parameter that names its
// type resolves as a call on a declared parameter does, so the lock the
// callee takes is an edge out of whatever the caller holds. Analyzed as
// `crates/pacon/src/fix_closure.rs`.
use syncguard::{level, Mutex, RwLock};

pub struct Store {
    route: RwLock<u64>,
}

impl Store {
    pub fn get(&self) -> u64 {
        *self.route.read()
    }
}

pub struct Facade {
    kv: Store,
}

impl Facade {
    fn guarded<T>(&self, f: impl Fn(&Store) -> T) -> T {
        f(&self.kv)
    }

    pub fn get(&self) -> u64 {
        self.guarded(|kv: &Store| kv.get())
    }
}

pub struct Client {
    slot: Mutex<u64>,
    cache: Facade,
}

impl Client {
    pub fn new() -> Client {
        Client {
            slot: Mutex::new(level::REGION, "fix.slot", 0),
            cache: Facade { kv: Store { route: RwLock::new(level::ROUTE, "fix.route", 0) } },
        }
    }

    pub fn op(&self) -> u64 {
        let held = self.slot.lock();
        *held + self.cache.get()
    }
}
