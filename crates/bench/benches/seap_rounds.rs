//! Criterion bench: Seap end-to-end simulation time across sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpq_core::workload::WorkloadSpec;
use seap::cluster;

fn bench_seap(c: &mut Criterion) {
    let mut g = c.benchmark_group("seap_supercycle");
    g.sample_size(10);
    for n in [16usize, 64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let spec = WorkloadSpec::balanced(n, 4, 1 << 24, 7);
                let run = cluster::run(&spec, dpq_sim::Run::sync(3_000_000));
                assert!(run.completed);
                run.time
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_seap);
criterion_main!(benches);
