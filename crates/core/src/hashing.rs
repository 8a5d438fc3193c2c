//! Deterministic pseudorandom hashing.
//!
//! The paper assumes "a publicly known pseudorandom hash function" in three
//! places: deriving overlay labels from node ids (Appendix A), mapping Skeap
//! position pairs `(p, pos)` to DHT keys (§3.2.4), and the symmetric pair
//! hash `h(i,j) = h(j,i)` used by KSelect's distributed sorting (§4.3). We
//! use SplitMix64 — a well-mixed 64-bit finalizer — seeded per use-site with
//! a domain tag so the three hash families are independent.

/// One round of SplitMix64 mixing: a bijective, well-distributed finalizer.
#[inline]
pub fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash a 64-bit value within a named domain (domain separation keeps the
/// paper's independent hash functions independent in our reproduction).
#[inline]
pub fn hash_u64(domain: u64, x: u64) -> u64 {
    split_mix64(split_mix64(domain ^ 0xA5A5_5A5A_D00D_F00D) ^ split_mix64(x))
}

/// Map a hash to the unit interval [0,1) — the LDB label / DHT key space.
#[inline]
pub fn hash_to_unit(domain: u64, x: u64) -> f64 {
    // 53 mantissa bits give a uniform dyadic rational in [0,1).
    (hash_u64(domain, x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Symmetric pair hash into [0,1): `h(i,j) = h(j,i)` (KSelect §4.3 requires
/// copies c_{i,j} and c_{j,i} to meet at the same DHT key).
#[inline]
pub fn hash_pair_unit(domain: u64, i: u64, j: u64) -> f64 {
    let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
    hash_to_unit(domain, split_mix64(lo).wrapping_add(hi.rotate_left(17)))
}

/// Domain tags used across the workspace (central registry so no two
/// use-sites collide by accident).
pub mod domains {
    /// Overlay node labels (Appendix A: label = hash(v.id)).
    pub const LABEL: u64 = 1;
    /// Skeap DHT keys h(p, pos) (§3.2.4).
    pub const SKEAP_KEY: u64 = 2;
    /// Seap random insert keys (§5.1).
    pub const SEAP_INSERT: u64 = 3;
    /// KSelect representative position owner (§4.3).
    pub const KSELECT_POS: u64 = 5;
    /// KSelect symmetric comparison rendezvous h(i,j) (§4.3).
    pub const KSELECT_PAIR: u64 = 6;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_hash_stays_in_range() {
        for x in 0..10_000u64 {
            let u = hash_to_unit(domains::LABEL, x);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn unit_hash_is_roughly_uniform() {
        let mut buckets = [0usize; 16];
        let n = 64_000u64;
        for x in 0..n {
            let u = hash_to_unit(domains::LABEL, x);
            buckets[(u * 16.0) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        for (i, &b) in buckets.iter().enumerate() {
            let dev = (b as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} deviates {dev:.3} from uniform");
        }
    }

    #[test]
    fn pair_hash_is_symmetric() {
        for i in 0..50u64 {
            for j in 0..50u64 {
                assert_eq!(
                    hash_pair_unit(domains::KSELECT_PAIR, i, j),
                    hash_pair_unit(domains::KSELECT_PAIR, j, i)
                );
            }
        }
    }

    #[test]
    fn pair_hash_distinguishes_pairs() {
        // Not a cryptographic claim — just that distinct unordered pairs
        // rarely collide, which KSelect's rendezvous relies on.
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for i in 0..100u64 {
            for j in i..100u64 {
                let h = hash_pair_unit(domains::KSELECT_PAIR, i, j).to_bits();
                if !seen.insert(h) {
                    collisions += 1;
                }
            }
        }
        assert!(collisions < 3, "{collisions} collisions in 5050 pairs");
    }

    #[test]
    fn domains_are_independent() {
        // The same input hashed in two domains should disagree essentially
        // always.
        let mut equal = 0;
        for x in 0..1_000u64 {
            if hash_u64(domains::LABEL, x) == hash_u64(domains::SKEAP_KEY, x) {
                equal += 1;
            }
        }
        assert_eq!(equal, 0);
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        let mut outs = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(outs.insert(split_mix64(x)));
        }
    }
}
