//! Criterion microbenchmarks of the functional layer (wall-clock cost of
//! the real data structures, independent of the virtual-time model).
//!
//! These are the hot paths of the reproduction: the LSM store behind
//! IndexFS, the cache shard behind Pacon's distributed cache, path
//! handling, the namespace tree behind the MDS, the full Pacon client op
//! path (with a zero-latency profile and running commit threads), and
//! the discrete-event engine itself.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fsapi::{Credentials, FileSystem};
use simnet::{ClientId, LatencyProfile, Topology};

fn bench_lsmkv(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lsm-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let db = lsmkv::Db::open(&dir, lsmkv::Options::default()).unwrap();
    let mut g = c.benchmark_group("lsmkv");
    g.measurement_time(Duration::from_millis(800)).warm_up_time(Duration::from_millis(200));
    let mut i = 0u64;
    g.bench_function("put", |b| {
        b.iter(|| {
            i += 1;
            db.put(&i.to_be_bytes(), b"metadata-record-value").unwrap();
        })
    });
    g.bench_function("get_hit", |b| {
        b.iter(|| db.get(&1u64.to_be_bytes()).unwrap())
    });
    g.bench_function("get_miss", |b| {
        b.iter(|| db.get(b"not-there").unwrap())
    });
    g.finish();
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_memkv(c: &mut Criterion) {
    let shard = memkv::Shard::new();
    shard.set(b"/w/file", b"value-bytes");
    let mut g = c.benchmark_group("memkv-shard");
    g.measurement_time(Duration::from_millis(800)).warm_up_time(Duration::from_millis(200));
    let mut i = 0u64;
    g.bench_function("set", |b| {
        b.iter(|| {
            i += 1;
            shard.set(&i.to_be_bytes(), b"value-bytes")
        })
    });
    g.bench_function("get", |b| b.iter(|| shard.get(b"/w/file")));
    g.bench_function("cas_roundtrip", |b| {
        b.iter(|| {
            let (_, ver) = shard.get(b"/w/file").unwrap();
            shard.cas(b"/w/file", ver, b"value-bytes")
        })
    });
    g.finish();
}

fn bench_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("fsapi-path");
    g.measurement_time(Duration::from_millis(500)).warm_up_time(Duration::from_millis(200));
    g.bench_function("normalize", |b| {
        b.iter(|| fsapi::path::normalize("/app//work/./deep/dir/file.dat").unwrap())
    });
    g.bench_function("ancestors", |b| {
        b.iter(|| fsapi::path::ancestors("/app/work/deep/dir/file.dat"))
    });
    g.finish();
}

fn bench_dfs(c: &mut Criterion) {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let fs = dfs.client();
    fs.mkdir("/bench", &cred, 0o755).unwrap();
    fs.create("/bench/target", &cred, 0o644).unwrap();
    let mut g = c.benchmark_group("dfs");
    g.measurement_time(Duration::from_millis(800)).warm_up_time(Duration::from_millis(200));
    let mut i = 0u64;
    g.bench_function("create", |b| {
        b.iter(|| {
            i += 1;
            fs.create(&format!("/bench/f{i}"), &cred, 0o644).unwrap()
        })
    });
    g.bench_function("stat_warm", |b| {
        b.iter(|| fs.stat("/bench/target", &cred).unwrap())
    });
    g.finish();
}

fn bench_pacon(c: &mut Criterion) {
    let dfs = dfs::DfsCluster::with_default_config(Arc::new(LatencyProfile::zero()));
    let cred = Credentials::new(1, 1);
    let region = pacon::PaconRegion::launch(
        pacon::PaconConfig::new("/app", Topology::new(1, 1), cred),
        &dfs,
    )
    .unwrap();
    let client = region.client(ClientId(0));
    client.create("/app/target", &cred, 0o644).unwrap();
    let mut g = c.benchmark_group("pacon");
    g.measurement_time(Duration::from_millis(800)).warm_up_time(Duration::from_millis(200));
    let mut i = 0u64;
    g.bench_function("create", |b| {
        b.iter(|| {
            i += 1;
            client.create(&format!("/app/f{i}"), &cred, 0o644).unwrap()
        })
    });
    g.bench_function("stat_cached", |b| {
        b.iter(|| client.stat("/app/target", &cred).unwrap())
    });
    g.finish();
    region.shutdown().unwrap();
}

fn bench_engine(c: &mut Criterion) {
    use qsim::{Process, Simulation, Step};
    use simnet::{CostTrace, Station};
    struct Client {
        remaining: u32,
        trace: CostTrace,
    }
    impl Process for Client {
        fn next(&mut self, _now: u64) -> Step {
            if self.remaining == 0 {
                return Step::Done;
            }
            self.remaining -= 1;
            Step::Work { trace: self.trace.clone(), ops: 1, class: 0 }
        }
    }
    let mut trace = CostTrace::new();
    trace.push(Station::Network, 100);
    trace.push(Station::Mds(0), 50);
    let mut g = c.benchmark_group("qsim");
    g.measurement_time(Duration::from_millis(800)).warm_up_time(Duration::from_millis(200));
    g.bench_function("10clients_x_100ops", |b| {
        b.iter_batched(
            || {
                (0..10)
                    .map(|_| {
                        Box::new(Client { remaining: 100, trace: trace.clone() })
                            as Box<dyn Process>
                    })
                    .collect::<Vec<_>>()
            },
            |mut procs| Simulation::new().run(&mut procs),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_lsmkv, bench_memkv, bench_paths, bench_dfs, bench_pacon, bench_engine);
criterion_main!(benches);
