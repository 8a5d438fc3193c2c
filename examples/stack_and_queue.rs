//! The siblings of the heap: Skueue (distributed FIFO queue, FSS18a) and
//! Skack (distributed LIFO stack, FSS18b) — both are the |𝒫| = 1 instance
//! of Skeap with the anchor consuming opposite ends of the live position
//! window (`SkeapConfig::fifo(1)` and `SkeapConfig::lifo(1)`). Same
//! overlay, same batching, same sequential consistency.
//!
//! ```text
//! cargo run --release --example stack_and_queue
//! ```

use dpq::core::{History, OpReturn};
use dpq::overlay::{NodeView, Topology};
use dpq::semantics::{replay, ReplayMode};
use dpq::sim::{history, SyncScheduler};
use dpq::skeap::{SkeapConfig, SkeapNode};

fn drained(history: &History) -> Vec<u64> {
    let mut v: Vec<(u64, u64)> = history
        .records()
        .filter_map(|r| match (r.ret, r.witness) {
            (Some(OpReturn::Removed(e)), Some(w)) => Some((w, e.payload)),
            _ => None,
        })
        .collect();
    v.sort();
    v.into_iter().map(|(_, p)| p).collect()
}

/// Twelve inserts spread over three nodes, then two deletes at every node
/// (four more than there are elements, so four answer ⊥).
fn insert_then_drain(n: usize, seed: u64, cfg: SkeapConfig) -> History {
    let topo = Topology::new(n, seed);
    let mut nodes = SkeapNode::build_cluster(NodeView::extract_all(&topo), cfg);
    for i in 1..=12u64 {
        nodes[(i % 3) as usize].issue_insert(0, i * 10);
    }
    let mut s = SyncScheduler::new(nodes);
    s.run_until_pred(100_000, |ns| ns.iter().all(SkeapNode::all_complete));
    for v in 0..n {
        s.nodes_mut()[v].issue_delete();
        s.nodes_mut()[v].issue_delete();
    }
    s.run_until_pred(100_000, |ns| ns.iter().all(SkeapNode::all_complete));
    history(s.nodes())
}

fn main() {
    let n = 8;

    // --- Queue: values come out in the order they went in. -------------
    let qh = insert_then_drain(n, 1, SkeapConfig::fifo(1));
    replay(&qh, ReplayMode::Fifo).expect("queue is sequentially consistent");
    println!("queue  drained: {:?}", drained(&qh));

    // --- Stack: the newest value comes out first. -----------------------
    let sh = insert_then_drain(n, 2, SkeapConfig::lifo(1));
    replay(&sh, ReplayMode::Lifo).expect("stack is sequentially consistent");
    println!("stack  drained: {:?}", drained(&sh));

    println!(
        "\nsame protocol machinery, opposite disciplines — both verified \
         sequentially consistent ✓"
    );
}
