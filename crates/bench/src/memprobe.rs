//! Memory measurement: a counting global allocator, peak-RSS readout, and
//! the n-node scale probe behind the perf ledger's `sim.bytes_per_node_100k`
//! and `sim.node_steps_per_s_*` rows.
//!
//! The counting allocator ([`CountingAlloc`]) wraps the system allocator
//! and keeps four relaxed atomic counters: allocations, frees, bytes
//! currently live, and bytes ever requested. It is *not* installed by this
//! library — binaries and integration tests that want real numbers opt in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dpq_bench::memprobe::CountingAlloc = dpq_bench::memprobe::CountingAlloc;
//! ```
//!
//! Three consumers exist: the perf ledger's harness (`benchmark/`) and the
//! `memprobe` binary (scale runs: live heap bytes/node at quiescence, peak
//! RSS, round throughput), and the `zero_alloc` integration test (the
//! "steady-state stepping is allocation-free" claim and the bytes/node
//! floor, enforced by actually counting).

use dpq_core::workload::WorkloadSpec;
use skeap::cluster;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts calls and live bytes.
///
/// Counter updates are `Relaxed`: the probes read them from the same thread
/// that allocates, and cross-thread runs (`--jobs`) only ever *sum* totals,
/// so no ordering stronger than the atomicity of each counter is needed.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters never influence the
// pointers returned or the layouts passed through.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as u64, Relaxed);
            TOTAL_BYTES.fetch_add(layout.size() as u64, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        FREES.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCS.fetch_add(1, Relaxed);
            FREES.fetch_add(1, Relaxed);
            LIVE_BYTES.fetch_add(new_size as u64, Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
            TOTAL_BYTES.fetch_add(new_size as u64, Relaxed);
        }
        p
    }
}

/// Heap bytes currently live (0 unless [`CountingAlloc`] is installed).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Relaxed)
}

/// Allocations performed so far (alloc + realloc calls).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Whether a [`CountingAlloc`] is installed as the global allocator (if it
/// is, this very check has already counted something).
pub fn counting_alloc_installed() -> bool {
    // Force a tiny heap round-trip so a freshly started process can't
    // report "not installed" merely because nothing allocated yet.
    let v = std::hint::black_box(vec![0u8; 1]);
    drop(v);
    ALLOCS.load(Relaxed) > 0
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`). Returns 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(s) = std::fs::read_to_string("/proc/self/status") {
            for line in s.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// One scale-probe measurement: a Skeap cluster of `n` nodes driven to
/// quiescence under the synchronous scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ScaleRun {
    /// Cluster size.
    pub n: usize,
    /// Rounds until every injected op completed.
    pub rounds: u64,
    /// Live heap bytes of the node core at quiescence, divided by `n`:
    /// the nodes vector plus everything the nodes own, measured by
    /// dropping the scheduler first and the nodes after. 0 if the counting
    /// allocator is absent.
    pub bytes_per_node: f64,
    /// Live heap bytes of the scheduler machinery (inboxes, metrics,
    /// fault state) at quiescence, divided by `n`.
    pub sched_bytes_per_node: f64,
    /// Scheduler rounds per second over the whole run.
    pub rounds_per_sec: f64,
    /// Node-rounds scheduled per second (`rounds/s × n`), whether the
    /// scheduler stepped the node or skipped it as dormant — the "steps/s"
    /// axis of the nodes × steps/s × peak-RSS frontier.
    pub node_steps_per_sec: f64,
    /// How many of the `rounds × n` node-rounds were skipped as dormant.
    pub skipped_activations: u64,
    /// Peak RSS of the process after the run (monotone across runs in one
    /// process — run the largest `n` last or fork per point).
    pub peak_rss_bytes: u64,
}

/// The fixed probe workload: one op per node (80% inserts, 20% delete-mins
/// over 3 priorities), so every node's history, batch path, and the shard
/// and anchor all hold steady-state data. Everything is seeded — two
/// processes measuring the same `n` see the same draws.
pub fn scale_spec(n: usize) -> WorkloadSpec {
    WorkloadSpec {
        n,
        ops_per_node: 1,
        insert_ratio: 0.8,
        n_prios: SCALE_PRIOS as u64,
        seed: 0x5CA1E * 31 + n as u64,
    }
}

/// Number of priorities the scale probe runs with.
pub const SCALE_PRIOS: usize = 3;

/// Drive a Skeap cluster of `n` nodes to quiescence and measure it.
///
/// The workload injects one op on every node — the densest steady state the
/// probe can reach — and runs the synchronous scheduler until all complete.
pub fn scale_run(n: usize) -> ScaleRun {
    let spec = scale_spec(n);
    let scripts = dpq_core::workload::generate(&spec);
    let t0 = Instant::now();
    let nodes = cluster::build(n, SCALE_PRIOS, spec.seed);
    let mut sched = dpq_sim::SyncScheduler::new(nodes);
    for id in cluster::inject_all(sched.nodes_mut(), &scripts) {
        sched.note_injected(id);
    }
    let out = sched.run_until_pred(1_000_000, |ns| {
        ns.iter().all(skeap::SkeapNode::all_complete)
    });
    assert!(out.is_quiescent(), "scale run did not quiesce at n={n}");
    let secs = t0.elapsed().as_secs_f64();
    let rounds = out.rounds();
    let skipped_activations = sched.dormant_skips();
    let live_all = live_bytes();
    // Separate the node core from the scheduler machinery by dropping one
    // at a time: after `into_parts` only the nodes remain live.
    let (nodes, _, _) = sched.into_parts();
    let live_nodes = live_bytes();
    drop(nodes);
    let live_base = live_bytes();
    ScaleRun {
        n,
        rounds,
        bytes_per_node: live_nodes.saturating_sub(live_base) as f64 / n as f64,
        sched_bytes_per_node: live_all.saturating_sub(live_nodes) as f64 / n as f64,
        rounds_per_sec: rounds as f64 / secs,
        node_steps_per_sec: rounds as f64 * n as f64 / secs,
        skipped_activations,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_run_quiesces_small() {
        // The unit-test binary does not install the counting allocator, so
        // bytes_per_node is 0 here; the memprobe binary reports real values.
        let r = scale_run(64);
        assert_eq!(r.n, 64);
        assert!(r.rounds > 0);
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        #[cfg(target_os = "linux")]
        assert!(peak_rss_bytes() > 0);
    }
}
