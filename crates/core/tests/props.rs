//! Property tests for the foundation types: encodings, hashing, ids,
//! histories.

use dpq_core::bitsize::vlq_bits;
use dpq_core::hashing::{domains, hash_pair_unit, hash_to_unit};
use dpq_core::workload::{generate, WorkloadSpec};
use dpq_core::{DetRng, ElemId, Key, NodeId, Priority};
use proptest::prelude::*;

proptest! {
    #[test]
    fn vlq_is_monotone(a in any::<u64>(), b in any::<u64>()) {
        if a <= b {
            prop_assert!(vlq_bits(a) <= vlq_bits(b));
        }
    }

    #[test]
    fn vlq_is_logarithmic(v in 1u64..u64::MAX / 4) {
        // 2·log2(v+1)+1 within one doubling.
        let bits = vlq_bits(v);
        let log = 64 - (v + 1).leading_zeros() as u64;
        prop_assert!((2 * log - 2..=2 * log + 1).contains(&bits));
    }

    #[test]
    fn unit_hash_in_range_and_deterministic(domain in 0u64..10, x in any::<u64>()) {
        let u = hash_to_unit(domain, x);
        prop_assert!((0.0..1.0).contains(&u));
        prop_assert_eq!(u, hash_to_unit(domain, x));
    }

    #[test]
    fn pair_hash_symmetric(i in any::<u64>(), j in any::<u64>()) {
        prop_assert_eq!(
            hash_pair_unit(domains::KSELECT_PAIR, i, j),
            hash_pair_unit(domains::KSELECT_PAIR, j, i)
        );
    }

    #[test]
    fn elem_id_compose_roundtrips(node in 0u64..(1 << 24), seq in 0u64..(1 << 40)) {
        let id = ElemId::compose(NodeId(node), seq);
        prop_assert_eq!(id.origin(), NodeId(node));
    }

    #[test]
    fn elem_id_compose_is_injective(
        a in (0u64..(1 << 12), 0u64..(1 << 20)),
        b in (0u64..(1 << 12), 0u64..(1 << 20)),
    ) {
        let ia = ElemId::compose(NodeId(a.0), a.1);
        let ib = ElemId::compose(NodeId(b.0), b.1);
        prop_assert_eq!(ia == ib, a == b);
    }

    #[test]
    fn key_order_is_lexicographic(
        p1 in any::<u64>(), e1 in any::<u64>(),
        p2 in any::<u64>(), e2 in any::<u64>(),
    ) {
        let a = Key::new(Priority(p1), ElemId(e1));
        let b = Key::new(Priority(p2), ElemId(e2));
        prop_assert_eq!(a < b, (p1, e1) < (p2, e2));
    }

    #[test]
    fn det_rng_below_respects_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = DetRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn det_rng_streams_replay(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = DetRng::new(seed).split(stream);
        let mut b = DetRng::new(seed).split(stream);
        for _ in 0..20 {
            prop_assert_eq!(a.next_u64_inline(), b.next_u64_inline());
        }
    }

    #[test]
    fn workloads_are_deterministic_and_well_formed(
        n in 1usize..8, ops in 0usize..20, seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec::balanced(n, ops, 4, seed);
        let w1 = generate(&spec);
        let w2 = generate(&spec);
        prop_assert_eq!(&w1, &w2);
        prop_assert_eq!(w1.len(), n);
        let mut ids = std::collections::HashSet::new();
        for script in &w1 {
            prop_assert_eq!(script.len(), ops);
            for op in script {
                if let dpq_core::OpKind::Insert(e) = op {
                    prop_assert!(e.prio.0 < 4);
                    prop_assert!(ids.insert(e.id));
                }
            }
        }
    }
}
