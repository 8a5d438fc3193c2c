//! Workload generation for experiments and tests.
//!
//! Produces per-node, issue-ordered operation scripts with globally unique
//! element ids. Drivers feed these into protocol nodes either all at once
//! (batch experiments) or at a per-round injection rate λ (the paper's
//! injection-rate model, §1.1).

use crate::element::Element;
use crate::ids::{ElemId, NodeId};
use crate::ops::OpKind;
use crate::priority::Priority;
use crate::rng::DetRng;

/// Parameters of a random workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of nodes issuing requests.
    pub n: usize,
    /// Requests per node.
    pub ops_per_node: usize,
    /// Probability that a request is an Insert (the rest are DeleteMin).
    pub insert_ratio: f64,
    /// Priority universe size: priorities are drawn uniformly from
    /// `0..n_prios`.
    pub n_prios: u64,
    /// Workload seed (scripts are a pure function of the spec).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A balanced default: half inserts, half deletes.
    pub fn balanced(n: usize, ops_per_node: usize, n_prios: u64, seed: u64) -> Self {
        WorkloadSpec {
            n,
            ops_per_node,
            insert_ratio: 0.5,
            n_prios,
            seed,
        }
    }
}

/// Generate the per-node scripts.
pub fn generate(spec: &WorkloadSpec) -> Vec<Vec<OpKind>> {
    let root = DetRng::new(spec.seed);
    (0..spec.n)
        .map(|v| {
            let mut rng = root.split(v as u64);
            let node = NodeId(v as u64);
            (0..spec.ops_per_node)
                .map(|i| {
                    if rng.chance(spec.insert_ratio) {
                        let prio = Priority(rng.below(spec.n_prios));
                        let id = ElemId::compose(node, i as u64);
                        OpKind::Insert(Element::new(id, prio, rng.next_u64_inline() >> 32))
                    } else {
                        OpKind::DeleteMin
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn scripts_have_requested_shape() {
        let spec = WorkloadSpec::balanced(4, 100, 8, 1);
        let w = generate(&spec);
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|s| s.len() == 100));
    }

    #[test]
    fn element_ids_are_globally_unique() {
        let spec = WorkloadSpec::balanced(6, 200, 4, 2);
        let mut seen = HashSet::new();
        for script in generate(&spec) {
            for op in script {
                if let OpKind::Insert(e) = op {
                    assert!(seen.insert(e.id), "duplicate id {}", e.id);
                }
            }
        }
    }

    #[test]
    fn insert_ratio_is_respected() {
        let spec = WorkloadSpec {
            n: 1,
            ops_per_node: 10_000,
            insert_ratio: 0.8,
            n_prios: 2,
            seed: 3,
        };
        let inserts = generate(&spec)[0].iter().filter(|o| o.is_insert()).count();
        assert!((7_500..8_500).contains(&inserts), "{inserts}");
    }

    #[test]
    fn priorities_stay_in_universe() {
        let spec = WorkloadSpec::balanced(3, 500, 5, 4);
        for script in generate(&spec) {
            for op in script {
                if let OpKind::Insert(e) = op {
                    assert!(e.prio.0 < 5);
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::balanced(2, 50, 3, 5);
        assert_eq!(generate(&spec), generate(&spec));
    }
}
