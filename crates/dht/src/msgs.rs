//! DHT message alphabet.

use dpq_core::hashing::hash_to_unit;
use dpq_core::{wire, Element, NodeId};

/// The point of [0,1) a logical key lives at, under a hash-domain tag (so
/// Skeap keys, Seap insert keys and Seap position keys occupy independent
/// pseudorandom families).
#[inline]
pub fn point_for(domain: u64, logical: u64) -> f64 {
    hash_to_unit(domain, logical)
}

/// A routed DHT request (travels as the payload of a `RouteMsg` aimed at
/// `point_for(domain, logical)`).
#[derive(Debug, Clone)]
pub enum DhtReq {
    /// Store `elem` under `logical`.
    Put {
        /// The logical key.
        logical: u64,
        /// The element to store.
        elem: Element,
        /// Who receives the confirmation.
        reply_to: NodeId,
        /// Requester-chosen id echoed in the ack.
        id: u64,
    },
    /// Remove the element under `logical` and deliver it to `reply_to`.
    Get {
        /// The logical key.
        logical: u64,
        /// Who receives the element.
        reply_to: NodeId,
        /// Requester-chosen id echoed in the reply.
        id: u64,
    },
}

wire!(enum DhtReq {
    0 => Put { logical, elem, reply_to, id },
    1 => Get { logical, reply_to, id },
});

/// A direct DHT response.
#[derive(Debug, Clone)]
pub enum DhtResp {
    /// The Put under request id `id` has been stored (or matched a parked
    /// Get). Seap's Insert phase waits for these confirmations (§5.1).
    PutAck {
        /// The request id being confirmed.
        id: u64,
    },
    /// The Get under request id `id` found its element.
    GetOk {
        /// The request id being answered.
        id: u64,
        /// The removed element.
        elem: Element,
    },
}

wire!(enum DhtResp { 0 => PutAck { id }, 1 => GetOk { id, elem } });

#[cfg(test)]
mod tests {
    use super::*;
    use dpq_core::hashing::domains;
    use dpq_core::BitSize;

    #[test]
    fn points_are_deterministic_and_in_range() {
        for k in 0..1000u64 {
            let p = point_for(domains::SKEAP_KEY, k);
            assert!((0.0..1.0).contains(&p));
            assert_eq!(p, point_for(domains::SKEAP_KEY, k));
        }
    }

    #[test]
    fn domains_shift_points() {
        let same = (0..100u64)
            .filter(|&k| point_for(domains::SKEAP_KEY, k) == point_for(domains::SEAP_INSERT, k))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn message_sizes_are_logarithmic_in_key_magnitude() {
        let small = DhtReq::Get {
            logical: 1,
            reply_to: NodeId(0),
            id: 1,
        };
        let large = DhtReq::Get {
            logical: 1 << 50,
            reply_to: NodeId(0),
            id: 1,
        };
        assert!(large.bits() > small.bits());
        assert!(large.bits() - small.bits() <= 2 * 50);
    }
}
