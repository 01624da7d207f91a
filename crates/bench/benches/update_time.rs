//! Criterion bench for experiment E1: per-update latency of the parallel
//! dynamic DFS vs the sequential baseline and full recomputation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pardfs_core::{DynamicDfs, Strategy};
use pardfs_seq::static_dfs::static_dfs;
use pardfs_seq::SeqRerootDfs;
use pardfs_workload::{workload, Family, Workload};

fn bench_update_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_update_time");
    group.sample_size(10);
    for &n in &[1024usize, 4096] {
        let Workload { graph, updates } = workload(Family::Sparse, n, 16, 42);
        group.bench_with_input(BenchmarkId::new("static_recompute", n), &n, |b, _| {
            let mut mirror = graph.clone();
            for u in &updates {
                mirror.apply(u);
            }
            let root = mirror.vertices().next().unwrap();
            b.iter(|| static_dfs(&mirror, root));
        });
        group.bench_with_input(BenchmarkId::new("seq_baseline", n), &n, |b, _| {
            b.iter_batched(
                || SeqRerootDfs::new(&graph),
                |mut dfs| {
                    for u in &updates {
                        dfs.apply_update(u);
                    }
                },
                criterion::BatchSize::LargeInput,
            );
        });
        for (name, strategy) in [
            ("par_simple", Strategy::Simple),
            ("par_phased", Strategy::Phased),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter_batched(
                    || DynamicDfs::with_strategy(&graph, strategy),
                    |mut dfs| {
                        for u in &updates {
                            dfs.apply_update(u);
                        }
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_update_time);
criterion_main!(benches);
