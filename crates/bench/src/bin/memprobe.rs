//! Node-memory scale probe: one frontier point per process.
//!
//! ```text
//! cargo run -p dpq-bench --release --bin memprobe              # n = 100k
//! cargo run -p dpq-bench --release --bin memprobe -- 1000000   # n = 1M
//! ```
//!
//! Installs the counting allocator, drives `dpq_bench::memprobe::scale_run`
//! at `n` and prints the `ScaleRun`. Peak RSS is a process-lifetime
//! high-water mark, so one invocation measures one `n`; the n = 10k and
//! n = 100k points are also rows of the perf ledger (`benchmark/`), this
//! binary is how the n = 1M point in EXPERIMENTS.md is reproduced.

use dpq_bench::memprobe::{scale_run, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let n = match std::env::args().nth(1).map(|a| a.parse()) {
        None => 100_000,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("usage: memprobe [n]");
            std::process::exit(2);
        }
    };
    println!("{:#?}", scale_run(n));
}
