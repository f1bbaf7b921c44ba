// Seeded violation for R7: a pacon function mutating the dfs namespace
// outside the commit path. Analyzed as `crates/pacon/src/fix_r7.rs`,
// resolved against `r7_dfs_client.rs`.
pub struct Mounter {
    dfs: DfsClient,
}

impl Mounter {
    pub fn ensure_root(&self) {
        self.dfs.mkdir("/pacon");
    }

    pub fn flush_inline(&self) {
        self.dfs.write_small_batch("/pacon/f");
    }

    pub fn replay_inline(&self) {
        self.dfs.write_small_batch("/pacon/f");
    }
}
