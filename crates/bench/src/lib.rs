//! # dpq-bench
//!
//! The experiment harness regenerating every quantitative claim of the
//! paper. Each experiment in DESIGN.md's index (E1–E14, F1–F2, B1–B2) is a
//! function returning a [`table::Table`]; the `experiments` binary prints
//! them and writes CSV into `results/`. Criterion microbenches live in
//! `benches/`.

#![warn(missing_docs)]

pub mod exp_baselines;
pub mod exp_faults;
pub mod exp_gossip;
pub mod exp_kselect;
pub mod exp_overlay;
pub mod exp_seap;
pub mod exp_skeap;
pub mod exp_workload;
pub mod memprobe;
pub mod perf_probe;
pub mod runner;
pub mod stats;
pub mod table;

use std::path::PathBuf;
use table::Table;

/// Options shared by every experiment run.
#[derive(Debug, Clone, Default)]
pub struct ExpOpts {
    /// Write a Chrome trace-event file (Perfetto / `chrome://tracing`) of
    /// the experiment's runs to this path. Honoured by the tracing-capable
    /// experiments (E2, E5, E10); ignored by the rest.
    pub trace: Option<PathBuf>,
    /// A custom fault plan (`--faults <plan.toml>`,
    /// [`dpq_sim::FaultPlan::from_toml`]). Honoured by E16, which then runs
    /// the custom plan instead of the standard 16-cell matrix; ignored by
    /// the rest. Node references in the plan must stay below E16's cluster
    /// size (n = 8).
    pub faults: Option<dpq_sim::FaultPlan>,
    /// A custom open-loop workload (`--workload <spec.toml>`,
    /// [`dpq_workload::OpenLoopSpec::from_toml`]). Honoured by E19, which
    /// then replaces its standard grid with the given spec, still fanned
    /// across all four contenders; ignored by the rest.
    pub workload: Option<dpq_workload::OpenLoopSpec>,
}

/// A named experiment entry.
pub type Experiment = (&'static str, fn(&ExpOpts) -> Table);

/// The event sink the tracing-capable experiments attach to each run: a
/// bounded ring of the control-plane events (round ends, phase marks, op
/// lifecycle, faults).
pub fn control_tracer() -> dpq_trace::RingTracer {
    dpq_trace::RingTracer::new(1 << 20)
}

/// A Chrome-trace collector, present exactly when `--trace` was given.
pub fn trace_collector(opts: &ExpOpts) -> Option<dpq_trace::ChromeTrace> {
    opts.trace.as_ref().map(|_| dpq_trace::ChromeTrace::new())
}

/// Write a collected trace to the `--trace` path (no-op with tracing off).
pub fn write_trace(opts: &ExpOpts, chrome: Option<dpq_trace::ChromeTrace>, id: &str) {
    let (Some(path), Some(ct)) = (opts.trace.as_ref(), chrome) else {
        return;
    };
    let runs = ct.runs();
    let res = std::fs::File::create(path).and_then(|file| {
        let mut w = std::io::BufWriter::new(file);
        ct.write(&mut w)
    });
    match res {
        Ok(()) => eprintln!("  trace: {runs} {id} runs -> {}", path.display()),
        Err(e) => eprintln!("  ! could not write trace {}: {e}", path.display()),
    }
}

/// All experiments in index order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("e1", exp_skeap::e1_semantics as fn(&ExpOpts) -> Table),
        ("e2", exp_skeap::e2_rounds),
        ("e3", exp_skeap::e3_congestion),
        ("e4", exp_skeap::e4_message_bits),
        ("e5", exp_kselect::e5_costs),
        ("e6", exp_kselect::e6_phase1_reduction),
        ("e7", exp_kselect::e7_phase2_iterations),
        ("e8", exp_kselect::e8_tree_memberships),
        ("e9", exp_seap::e9_semantics),
        ("e10", exp_seap::e10_costs),
        ("e11", exp_seap::e11_message_size_vs_skeap),
        ("e12", exp_overlay::e12_tree_and_dht),
        ("e13", exp_overlay::e13_routing),
        ("e14", exp_overlay::e14_join_leave),
        ("e15", exp_skeap::e15_discipline_ablation),
        ("e16", exp_faults::e16_fault_recovery),
        ("e17", exp_skeap::e17_scale),
        ("e18", exp_gossip::e18_membership),
        ("e19", exp_workload::e19_workload),
        ("f1", exp_skeap::f1_figure1),
        ("f2", exp_overlay::f2_figure2),
        ("b1", exp_baselines::b1_central_congestion),
        ("b2", exp_baselines::b2_naive_kselect),
    ]
}
