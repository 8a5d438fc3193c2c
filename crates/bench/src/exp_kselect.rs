//! Experiments E5–E8: KSelect (Theorem 4.2, Lemmas 4.4–4.7).

use crate::stats::{log_fit, mean};
use crate::table::{f, Table};
use dpq_sim::Run;
use kselect::{driver, KSelectConfig};

fn run(n: usize, m: u64, k: u64, seed: u64) -> driver::KSelectRun {
    let cands = driver::random_candidates(n, m, 1 << 30, seed);
    let expect = driver::sequential_select(&cands, k);
    let run = driver::run(
        n,
        cands,
        k,
        KSelectConfig::default(),
        seed,
        Run::sync(3_000_000),
    );
    assert_eq!(run.result, Some(expect), "KSelect answered incorrectly");
    run
}

/// E5 — Thm 4.2: O(log n) rounds, Õ(1) congestion, O(log n)-bit messages.
pub fn e5_costs(opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e5",
        "KSelect costs vs n, m = 16·n (Thm 4.2: O(log n) rounds, Õ(1) congestion, O(log n) bits)",
        &[
            "n",
            "rounds",
            "rounds/log2(n)",
            "congestion",
            "max msg bits",
            "sel p50",
            "sel p95",
            "sel p99",
            "sel p999",
            "sel max",
        ],
    );
    let mut chrome = crate::trace_collector(opts);
    let traced = chrome.is_some();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    const NS: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];
    const SEEDS: usize = 3;
    // (n, seed) cells run in parallel; traced cells return their event logs
    // so the Chrome trace is assembled in cell order below.
    let cells = crate::runner::sweep(NS.len() * SEEDS, |c| {
        let n = NS[c / SEEDS];
        let s = (c % SEEDS) as u64;
        let m = 16 * n as u64;
        let seed = 600 + s;
        let cands = driver::random_candidates(n, m, 1 << 30, seed);
        let expect = driver::sequential_select(&cands, m / 2);
        let nodes = driver::build(n, cands, m / 2, KSelectConfig::default(), seed);
        let run = Run::sync(3_000_000);
        let (run, trace) = if traced {
            let core = run
                .tracer(crate::control_tracer())
                .drive(nodes, &[], driver::decided);
            let label = format!("e5 n={n} seed={seed}");
            (
                driver::summarize(&core),
                Some((label, core.tracer.into_events())),
            )
        } else {
            (
                driver::summarize(&run.drive(nodes, &[], driver::decided)),
                None,
            )
        };
        assert_eq!(run.result, Some(expect), "KSelect answered incorrectly");
        (run, trace)
    });
    for (ni, &n) in NS.iter().enumerate() {
        let group = &cells[ni * SEEDS..(ni + 1) * SEEDS];
        if let Some(ct) = chrome.as_mut() {
            for (_, trace) in group {
                let (label, events) = trace.as_ref().expect("traced cell kept its events");
                ct.add_run(label, events);
            }
        }
        let runs: Vec<&driver::KSelectRun> = group.iter().map(|(r, _)| r).collect();
        let rounds = mean(&runs.iter().map(|r| r.rounds as f64).collect::<Vec<_>>());
        let cong = mean(
            &runs
                .iter()
                .map(|r| r.metrics.congestion as f64)
                .collect::<Vec<_>>(),
        );
        let bits = runs.iter().map(|r| r.metrics.max_msg_bits).max().unwrap();
        // KSelect runs one operation — the selection itself — so its latency
        // distribution is over the per-seed completion rounds.
        let sel: Vec<u64> = runs.iter().map(|r| r.rounds).collect();
        let lat = dpq_sim::LatencySummary::from_samples(&sel);
        xs.push(n as f64);
        ys.push(rounds);
        t.row(vec![
            n.to_string(),
            f(rounds),
            f(rounds / (n as f64).log2()),
            f(cong),
            bits.to_string(),
            lat.p50.to_string(),
            lat.p95.to_string(),
            lat.p99.to_string(),
            lat.p999.to_string(),
            lat.max.to_string(),
        ]);
    }
    let (a, b, r2) = log_fit(&xs, &ys);
    t.note(format!(
        "fit: rounds ≈ {}·log2(n) + {}  (r² = {:.3})",
        f(a),
        f(b),
        r2
    ));
    t.note("congestion stays in a flat polylog band; message bits do not scale with n·m");
    t.note("sel latency = rounds to finish the selection, distribution over the 3 seeds");
    crate::write_trace(opts, chrome, "e5");
    t
}

/// E6 — Lemma 4.4: after Phase 1, N ∈ O(n^{3/2}·log n).
pub fn e6_phase1_reduction(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e6",
        "Candidates remaining after Phase 1 (Lemma 4.4: N ∈ O(n^{3/2}·log n) w.h.p.)",
        &[
            "n",
            "q",
            "m = n^q·c",
            "N after P1",
            "bound n^1.5·ln n",
            "N/bound",
        ],
    );
    const POINTS: [(usize, u32); 4] = [(16, 2), (32, 2), (64, 2), (16, 3)];
    let rs = crate::runner::sweep(POINTS.len(), |i| {
        let (n, q) = POINTS[i];
        let m = (n as u64).pow(q) * 2;
        run(n, m, m / 2, 700)
    });
    for ((n, q), r) in POINTS.into_iter().zip(&rs) {
        let m = (n as u64).pow(q) * 2;
        let bound = (n as f64).powf(1.5) * (n as f64).ln();
        t.row(vec![
            n.to_string(),
            q.to_string(),
            m.to_string(),
            r.stats.n_after_p1.to_string(),
            f(bound),
            f(r.stats.n_after_p1 as f64 / bound),
        ]);
    }
    t.note("N stays within a small constant of the bound (the O() constant exceeds 1 at toy sizes) and the ratio falls with n at fixed q");
    t
}

/// E7 — Lemma 4.7: Θ(1) Phase-2 iterations until N ≤ √n.
pub fn e7_phase2_iterations(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e7",
        "Phase-2 iterations until N ≤ Θ(√n) (Lemma 4.7: Θ(1) iterations w.h.p.)",
        &[
            "n",
            "m",
            "P2 iterations",
            "guard trips",
            "resamples",
            "N at P3",
        ],
    );
    const NS: [usize; 3] = [64, 256, 1024];
    let rs = crate::runner::sweep(NS.len(), |i| {
        let n = NS[i];
        let m = (n * n) as u64;
        run(n, m, m / 3, 800)
    });
    for (n, r) in NS.into_iter().zip(&rs) {
        let m = (n * n) as u64;
        t.row(vec![
            n.to_string(),
            m.to_string(),
            r.stats.p2_iterations.to_string(),
            r.stats.guard_trips.to_string(),
            r.stats.resamples.to_string(),
            r.stats.n_at_p3.to_string(),
        ]);
    }
    t.note("iteration count flat in n; guard trips ≈ 0 (the δ-window holds w.h.p., Lemma 4.6)");
    t
}

/// E8 — Lemma 4.5: E[#copy trees a node participates in] = Θ(1).
pub fn e8_tree_memberships(_opts: &crate::ExpOpts) -> Table {
    let mut t = Table::new(
        "e8",
        "Copy-tree memberships per node per sorting epoch (Lemma 4.5: Θ(1) expected)",
        &["n", "m", "avg memberships/node/epoch"],
    );
    const NS: [usize; 3] = [64, 256, 1024];
    let rs = crate::runner::sweep(NS.len(), |i| {
        let n = NS[i];
        let m = 32 * n as u64;
        run(n, m, m / 2, 900)
    });
    for (n, r) in NS.into_iter().zip(&rs) {
        let m = 32 * n as u64;
        t.row(vec![
            n.to_string(),
            m.to_string(),
            f(r.avg_tree_memberships),
        ]);
    }
    t.note("flat in n ⇒ no node becomes a sorting bottleneck");
    t.note("the constant is ≈ sample_coeff² = 16: with n' ≈ 4√n sampled candidates, n'²/n copies land per node");
    t
}
