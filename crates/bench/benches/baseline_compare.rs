//! Criterion bench: the baselines against the paper's systems on equal
//! workloads (centralized heap vs Skeap; gather-select vs KSelect).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpq_baselines::CentralNode;
use dpq_core::workload::{generate, WorkloadSpec};
use dpq_sim::Run;
use dpq_sim::SyncScheduler;
use kselect::{driver, KSelectConfig};
use skeap::{cluster as skeap_cluster, SkeapNode};

fn bench_heaps(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap_workload_n128");
    g.sample_size(10);
    let n = 128usize;
    let spec = WorkloadSpec::balanced(n, 4, 3, 21);
    g.bench_function(BenchmarkId::new("central", n), |b| {
        b.iter(|| {
            let scripts = generate(&spec);
            let mut nodes = CentralNode::build_cluster(n);
            for (node, script) in nodes.iter_mut().zip(&scripts) {
                for op in script {
                    node.issue(*op);
                }
            }
            let mut s = SyncScheduler::new(nodes);
            assert!(s.run_until_quiescent(1_000_000).is_quiescent());
            s.metrics.congestion
        });
    });
    g.bench_function(BenchmarkId::new("skeap", n), |b| {
        b.iter(|| {
            let scripts = generate(&spec);
            let mut nodes = skeap_cluster::build(n, 3, 21);
            skeap_cluster::inject_all(&mut nodes, &scripts);
            let mut s = SyncScheduler::new(nodes);
            assert!(s
                .run_until_pred(2_000_000, |ns| ns.iter().all(SkeapNode::all_complete))
                .is_quiescent());
            s.metrics.congestion
        });
    });
    g.finish();
}

fn bench_select(c: &mut Criterion) {
    let mut g = c.benchmark_group("selection_n128");
    g.sample_size(10);
    let n = 128usize;
    let m = 16 * n as u64;
    g.bench_function("kselect", |b| {
        b.iter(|| {
            let cands = driver::random_candidates(n, m, 1 << 30, 24);
            driver::run(
                n,
                cands,
                m / 2,
                KSelectConfig::default(),
                24,
                Run::sync(2_000_000),
            )
            .result
        });
    });
    g.bench_function("sequential_oracle", |b| {
        b.iter(|| {
            let cands = driver::random_candidates(n, m, 1 << 30, 24);
            driver::sequential_select(&cands, m / 2)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_heaps, bench_select);
criterion_main!(benches);
