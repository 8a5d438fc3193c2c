//! `ledger` — one perf ledger for the whole repo: three live-cluster
//! workloads over real `dpq-node` processes and one simulator workload,
//! end-to-end numbers from untraced runs and per-layer rows from traced
//! ones, correctness-gated by the repo's own oracles.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one run, result line last
//! ledger [--seed <n>] [--seconds <s>] [--trace] [--agree]            # a full set → history.jsonl
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds `dpq-node` and this
//! binary first and starts it from the repository root.

mod cluster;
mod loadgen;
mod oracle;
mod pipeline;
mod procfs;
mod report;
mod sim;
mod span;
mod stats;
mod wire;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use report::{RunResult, END_TO_END};

/// Live heap accounting for `sim.bytes_per_node_100k`.
#[global_allocator]
static ALLOC: dpq_bench::memprobe::CountingAlloc = dpq_bench::memprobe::CountingAlloc;

/// Every workload, in ledger order. Names are final.
pub const WORKLOADS: [&str; 4] = [
    "wire_skeap_mixed",
    "wire_skeap_wal",
    "wire_seap_mixed",
    "sim_skeap_100k",
];
/// Seed of a set when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Measured window of a set when none is given (`run_seconds`).
pub const DEFAULT_SECONDS: u64 = 20;
/// Hard limit on one workload run; the driver allows 180 s.
const RUN_LIMIT: Duration = Duration::from_secs(170);
const HISTORY: &str = "benchmark/history.jsonl";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    agree: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        agree: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            // `--trace 0|1` for the driver, bare `--trace` for people.
            "--trace" => {
                args.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn node_bin() -> Result<PathBuf, String> {
    let path = std::env::var_os("DPQ_NODE_BIN")
        .map(PathBuf::from)
        .ok_or("DPQ_NODE_BIN is not set; start the ledger through benchmark/run.sh")?;
    if !path.is_file() {
        return Err(format!("DPQ_NODE_BIN {} is not a file", path.display()));
    }
    Ok(path)
}

/// One run of one workload, in this process.
fn run_one(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    if name == "sim_skeap_100k" {
        return if traced {
            sim::run_layers(seed)
        } else {
            sim::run_end_to_end(seed, seconds)
        };
    }
    let w = wire::WIRE
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}; known: {WORKLOADS:?}"))?;
    wire::run(w, seed, seconds, traced, &node_bin()?)
}

fn single(name: &str, args: &Args) -> ExitCode {
    if !Path::new("benchmark").is_dir() {
        eprintln!("ledger: run from the repository root (benchmark/ not found)");
        return ExitCode::from(2);
    }
    let out = Path::new(cluster::OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("ledger: create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let swept = procfs::sweep_stale(out, cluster::RUN_MARKER);
    if swept > 0 {
        eprintln!("ledger: killed {swept} stale dpq-node processes from an earlier run");
    }
    cluster::arm_watchdog(RUN_LIMIT);
    let result = run_one(name, args.seed, args.seconds, args.traced);
    let _ = std::fs::remove_dir_all(cluster::run_dir());
    match result {
        Err(e) => {
            eprintln!("ledger: {name}: {e}");
            ExitCode::from(1)
        }
        Ok(r) => {
            println!(
                "{name}  seed {}  {} s window  {}",
                args.seed,
                args.seconds,
                if args.traced { "traced" } else { "untraced" }
            );
            for note in &r.notes {
                println!("  # {note}");
            }
            print!("{}", report::table(&r, args.traced));
            println!("{}", report::result_json(&r, args.traced));
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}

/// Run one workload in a child of this binary (peak RSS is a per-process
/// high-water mark, and a child cannot take the set down with it). Its
/// output passes through; the result line comes back.
fn child_run(name: &str, seed: u64, seconds: u64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn ledger child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!("{name} failed ({})", out.status));
    }
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("{name} printed nothing"))
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One full set: every workload untraced, and traced too when asked.
/// Returns the untraced result lines and appends one history line.
fn run_set(args: &Args) -> Result<Vec<(&'static str, String)>, String> {
    let mut lines = Vec::new();
    let mut traced_lines = Vec::new();
    for name in WORKLOADS {
        lines.push((name, child_run(name, args.seed, args.seconds, false)?));
        if args.traced {
            traced_lines.push((name, child_run(name, args.seed, args.seconds, true)?));
        }
    }
    let group = |lines: &[(&str, String)]| {
        lines
            .iter()
            .map(|(name, line)| format!("\"{name}\": {line}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut record = format!(
        "{{\"commit\": \"{}\", \"seed\": {}, \"seconds\": {}, \"end_to_end\": {{{}}}",
        commit(),
        args.seed,
        args.seconds,
        group(&lines)
    );
    if args.traced {
        record.push_str(&format!(", \"per_layer\": {{{}}}", group(&traced_lines)));
    }
    record.push('}');
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(HISTORY)
        .and_then(|mut f| writeln!(f, "{record}"))
        .map_err(|e| format!("append {HISTORY}: {e}"))?;
    println!("ledger: appended one line to {HISTORY}");
    Ok(lines)
}

/// `--agree`: two sets, same seed, side by side; fail if any end-to-end
/// metric of any workload differs by more than its bound.
fn agree(args: &Args) -> Result<bool, String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    let mut ok = true;
    println!(
        "\n{:<18} {:<20} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for d in END_TO_END {
            let va = report::value_from_json(a, d.name).unwrap_or(0.0);
            let vb = report::value_from_json(b, d.name).unwrap_or(0.0);
            let diff = if va == 0.0 { 0.0 } else { (vb - va).abs() / va };
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let verdict = if diff > bound { "DIFFER" } else { "" };
            ok &= diff <= bound;
            println!(
                "{name:<18} {:<20} {va:>14.4} {vb:>14.4} {:>7.1}% {:>5.0}% {verdict}",
                d.name,
                diff * 100.0,
                bound * 100.0
            );
        }
        for key in ["correct", "failed"] {
            let (fa, fb) = (
                report::field_from_json(a, key),
                report::field_from_json(b, key),
            );
            println!(
                "{name:<18} {key:<20} {:>14} {:>14}",
                fa.unwrap_or("?"),
                fb.unwrap_or("?")
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = args.workload.clone() {
        return single(&name, &args);
    }
    let outcome = if args.agree {
        agree(&args)
    } else {
        run_set(&args).map(|_| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: the two sets disagree beyond the bounds");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(1)
        }
    }
}
