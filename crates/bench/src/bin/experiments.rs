//! Regenerate every quantitative claim of the paper.
//!
//! ```text
//! cargo run -p dpq-bench --release --bin experiments            # everything
//! cargo run -p dpq-bench --release --bin experiments -- e2 e5   # a subset
//! cargo run -p dpq-bench --release --bin experiments -- e2 --trace /tmp/e2.json
//! cargo run -p dpq-bench --release --bin experiments -- e16 --faults scripts/faults-smoke.toml
//! cargo run -p dpq-bench --release --bin experiments -- e19 --workload scripts/workload-smoke.toml
//! cargo run -p dpq-bench --release --bin experiments -- --jobs 8   # 8 sweep workers
//! ```
//!
//! Tables are printed and written as CSV under `results/`; a table built
//! from `--faults` or `--workload` is printed only, so a custom grid never
//! overwrites the standard one. With `--trace`,
//! the tracing-capable experiments (E2, E5, E10) also write a Chrome
//! trace-event file — open it in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`; each run appears as its own process with per-round
//! counters and phase-mark instants. With `--faults`, E16 replaces its
//! standard 16-cell matrix with the fault plan parsed from the given TOML
//! file (see [`dpq_sim::FaultPlan::from_toml`] for the dialect). With
//! `--workload`, E19 replaces its standard arrivals × mix grid with the
//! open-loop spec parsed from the given TOML file (see
//! [`dpq_workload::OpenLoopSpec::from_toml`]), still fanned across all four
//! contenders.
//!
//! `--jobs N` shards every experiment's sweep cells across N worker threads
//! (default: the machine's available parallelism). Cells are independent
//! and results are collected by cell index, so the printed tables and the
//! CSV files are byte-identical for any N — `--jobs 1` if you want the
//! timing columns of a strictly sequential run.
//!
//! `--metrics <path>` writes the telemetry stream: the instrumented
//! experiments (E2, E10, E16) run with a `dpq_sim::Hub` attached, fold the
//! shard-local hubs in cell index order, and emit one JSON line each —
//! op-latency/message-size quantiles, per-kind message totals, transport
//! and fault counters. The file is JSONL and byte-identical for any
//! `--jobs`.

use dpq_bench::ExpOpts;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut wanted: Vec<String> = Vec::new();
    let mut opts = ExpOpts::default();
    let mut metrics_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            match args.next() {
                Some(p) => opts.trace = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace requires a path");
                    std::process::exit(2);
                }
            }
        } else if a == "--metrics" {
            match args.next() {
                Some(p) => metrics_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--metrics requires a path");
                    std::process::exit(2);
                }
            }
        } else if a == "--jobs" {
            match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => dpq_bench::runner::set_jobs(n),
                _ => {
                    eprintln!("--jobs requires a positive integer");
                    std::process::exit(2);
                }
            }
        } else if a == "--faults" {
            let Some(p) = args.next() else {
                eprintln!("--faults requires a path to a plan TOML");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(&p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("--faults: cannot read {p}: {e}");
                    std::process::exit(2);
                }
            };
            match dpq_sim::FaultPlan::from_toml(&text) {
                Ok(plan) => opts.faults = Some(plan),
                Err(e) => {
                    eprintln!("--faults: {p}: {e}");
                    std::process::exit(2);
                }
            }
        } else if a == "--workload" {
            let Some(p) = args.next() else {
                eprintln!("--workload requires a path to a spec TOML");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(&p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("--workload: cannot read {p}: {e}");
                    std::process::exit(2);
                }
            };
            match dpq_workload::OpenLoopSpec::from_toml(&text) {
                Ok(spec) => opts.workload = Some(spec),
                Err(e) => {
                    eprintln!("--workload: {p}: {e}");
                    std::process::exit(2);
                }
            }
        } else {
            wanted.push(a.to_lowercase());
        }
    }
    let out_dir = PathBuf::from("results");
    let all = dpq_bench::all_experiments();
    let selected: Vec<_> = all
        .into_iter()
        .filter(|(id, _)| wanted.is_empty() || wanted.iter().any(|w| w == id))
        .collect();
    if selected.is_empty() {
        eprintln!("no matching experiments; known ids:");
        for (id, _) in dpq_bench::all_experiments() {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }
    let traced = ["e2", "e5", "e10"];
    if opts.trace.is_some()
        && selected
            .iter()
            .filter(|(id, _)| traced.contains(id))
            .count()
            > 1
    {
        eprintln!("note: --trace names one file; each traced experiment overwrites it");
    }
    let mut metrics_lines: Vec<String> = Vec::new();
    for (id, run) in selected {
        let t0 = Instant::now();
        let table = run(&opts);
        println!("{}", table.render());
        println!("  ({} finished in {:.1?})\n", id, t0.elapsed());
        let custom = match id {
            "e16" => opts.faults.is_some(),
            "e19" => opts.workload.is_some(),
            _ => false,
        };
        if custom {
            eprintln!("  custom grid: results/{id}.csv left as it is");
        } else if let Err(e) = table.write_csv(&out_dir) {
            eprintln!("  ! could not write results/{id}.csv: {e}");
        }
        metrics_lines.extend(table.metrics_lines);
    }
    if let Some(path) = metrics_path {
        let mut body = metrics_lines.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!(
                "  metrics: {} lines -> {}",
                metrics_lines.len(),
                path.display()
            ),
            Err(e) => eprintln!("  ! could not write metrics {}: {e}", path.display()),
        }
    }
}
