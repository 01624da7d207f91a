//! Criterion bench for experiment E4: fault tolerant batches of k updates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pardfs_core::FaultTolerantDfs;
use pardfs_graph::updates::{random_update_sequence, UpdateMix};
use pardfs_workload::{rng, workload, Family, Workload};

fn bench_fault_tolerant(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_fault_tolerant");
    group.sample_size(10);
    let Workload { graph, .. } = workload(Family::Sparse, 4096, 0, 99);
    let mut ft = FaultTolerantDfs::new(&graph);
    for &k in &[1usize, 4, 8] {
        let mut r = rng(1000 + k as u64);
        let updates = random_update_sequence(&graph, k, &UpdateMix::default(), &mut r);
        group.bench_with_input(BenchmarkId::new("batch_k", k), &k, |b, _| {
            b.iter(|| ft.tree_after(&updates));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fault_tolerant);
criterion_main!(benches);
