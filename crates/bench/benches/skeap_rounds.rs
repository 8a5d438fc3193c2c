//! Criterion bench: wall-clock of simulating one Skeap batch cycle across
//! cluster sizes (the E2 experiment's workload, timed instead of counted).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpq_core::workload::WorkloadSpec;
use skeap::cluster;

fn bench_skeap(c: &mut Criterion) {
    let mut g = c.benchmark_group("skeap_batch_cycle");
    g.sample_size(10);
    for n in [16usize, 64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let spec = WorkloadSpec::balanced(n, 4, 2, 7);
                let run = cluster::run(&spec, 2, dpq_sim::Run::sync(1_000_000));
                assert!(run.completed);
                run.time
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_skeap);
criterion_main!(benches);
