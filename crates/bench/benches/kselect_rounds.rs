//! Criterion bench: KSelect end-to-end simulation time across sizes, plus
//! an ablation of the two coefficients DESIGN.md calls out (sampling width
//! and δ window).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpq_sim::Run;
use kselect::{driver, KSelectConfig};

fn bench_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("kselect_select");
    g.sample_size(10);
    for n in [16usize, 64, 256] {
        let m = 16 * n as u64;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let cands = driver::random_candidates(n, m, 1 << 30, 7);
                driver::run(
                    n,
                    cands,
                    m / 2,
                    KSelectConfig::default(),
                    7,
                    Run::sync(2_000_000),
                )
                .result
            });
        });
    }
    g.finish();
}

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("kselect_ablation");
    g.sample_size(10);
    let n = 128usize;
    let m = 32 * n as u64;
    // Sampling width: fewer representatives per iteration → cheaper sorting
    // but more iterations (and, at the paper's own coefficient 1.0, a δ
    // window that can cover the whole sample on small instances, pushing
    // work into Phase 3); wider → the reverse.
    for sample_coeff in [2.0f64, 4.0, 8.0] {
        let cfg = KSelectConfig {
            sample_coeff,
            ..KSelectConfig::default()
        };
        g.bench_with_input(
            BenchmarkId::new("sample_coeff", format!("{sample_coeff}")),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let cands = driver::random_candidates(n, m, 1 << 30, 9);
                    driver::run(n, cands, m / 2, *cfg, 9, Run::sync(4_000_000))
                        .stats
                        .p2_iterations
                });
            },
        );
    }
    // δ window: tighter → more pruning per iteration but more guard risk.
    for delta_coeff in [0.25f64, 1.0, 2.0] {
        let cfg = KSelectConfig {
            delta_coeff,
            ..KSelectConfig::default()
        };
        g.bench_with_input(
            BenchmarkId::new("delta_coeff", format!("{delta_coeff}")),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    let cands = driver::random_candidates(n, m, 1 << 30, 11);
                    driver::run(n, cands, m / 2, *cfg, 11, Run::sync(4_000_000))
                        .stats
                        .p2_iterations
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sizes, bench_ablation);
criterion_main!(benches);
