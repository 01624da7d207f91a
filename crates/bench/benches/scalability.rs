//! Criterion bench for experiment E2: thread-count scalability of one update.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pardfs_core::DynamicDfs;
use pardfs_workload::{workload, Family, Workload};

fn bench_scalability(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_scalability");
    group.sample_size(10);
    let n = 4096usize;
    let Workload { graph, updates } = workload(Family::Dense, n, 8, 77);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap();
            b.iter_batched(
                || DynamicDfs::new(&graph),
                |mut dfs| {
                    pool.install(|| {
                        for u in &updates {
                            dfs.apply_update(u);
                        }
                    })
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
