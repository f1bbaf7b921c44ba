// Support file for the R7 fixture: the dfs-side mutator the pacon
// fixture calls. Analyzed as `crates/dfs/src/fix_client.rs`.
pub struct DfsClient {
    root: String,
}

impl DfsClient {
    pub fn mkdir(&self, path: &str) -> bool {
        !path.is_empty() && !self.root.is_empty()
    }

    pub fn write_small_batch(&self, path: &str) -> bool {
        path.starts_with(&self.root)
    }
}
