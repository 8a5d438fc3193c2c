//! Message bit-size accounting.
//!
//! Lemmas 3.8 and 5.5 of the paper bound message sizes in *bits* — Skeap's
//! batch messages grow as O(Λ log² n) while Seap never exceeds O(log n) bits.
//! To make those shapes visible in measurements we cost every integer with a
//! variable-length encoding rather than a flat machine word: an Elias-γ-like
//! code spending `2⌊log₂ v⌋ + 1` bits per value. A `u64` word-based count
//! would flatten the log-factors the experiments are after.
//!
//! Every message type in the workspace declares its layout with
//! [`wire!`](crate::wire!), which derives its [`BitSize`] from the same
//! field list as its wire encoding; the simulator records the size of each
//! envelope it delivers.

/// Cost of one unsigned integer under the Elias-γ-like encoding:
/// `2⌊log₂(v+1)⌋ + 1` bits (the `+1` shift makes 0 encodable).
#[inline]
pub fn vlq_bits(v: u64) -> u64 {
    if v == u64::MAX {
        // Sentinel values (Key::MAX components) would overflow the +1 shift.
        return 127;
    }
    2 * (64 - (v + 1).leading_zeros() as u64 - 1) + 1
}

/// Bits needed to tag one variant of an enum with `variants` alternatives.
#[inline]
pub fn tag_bits(variants: u64) -> u64 {
    debug_assert!(variants >= 1);
    64 - (variants.max(2) - 1).leading_zeros() as u64
}

/// `#[bits(uncounted)]`: a field every node already knows (Skeap's Λ).
#[inline]
pub fn uncounted<T>(_: &T) -> u64 {
    0
}

/// `#[seq(unprefixed)]`: a sequence of a length every node knows.
#[inline]
pub fn unprefixed<T: BitSize>(items: &[T]) -> u64 {
    items.iter().map(BitSize::bits).sum()
}

/// `#[bits(capped)]`: an integer capped at 2⁶², so a sentinel near
/// `u64::MAX` costs 125 bits, not 127.
#[inline]
pub fn capped(v: &u64) -> u64 {
    vlq_bits((*v).min(1 << 62))
}

/// Coarse per-message-type label used by telemetry.
///
/// Kinds name message *families* ("skeap.batch_up", "dht.req"), not
/// individual variants of every nested payload — fine enough to see where a
/// run's bits went, coarse enough that the accounting table stays small.
/// The wrapped string is `'static` so kinds are free to copy and compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgKind(pub &'static str);

impl MsgKind {
    /// Fallback label for messages that have not declared a kind.
    pub const OTHER: MsgKind = MsgKind("other");

    /// The label as a plain string.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl std::fmt::Display for MsgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Types with a measurable encoded size in bits.
pub trait BitSize {
    /// The encoded size of this value, in bits.
    fn bits(&self) -> u64;

    /// Telemetry label for this message; protocol messages override this so
    /// per-kind counters can attribute traffic ([`MsgKind::OTHER`] otherwise).
    fn kind(&self) -> MsgKind {
        MsgKind::OTHER
    }
}

impl BitSize for u64 {
    #[inline]
    fn bits(&self) -> u64 {
        vlq_bits(*self)
    }
}

impl BitSize for u32 {
    #[inline]
    fn bits(&self) -> u64 {
        vlq_bits(*self as u64)
    }
}

impl BitSize for usize {
    #[inline]
    fn bits(&self) -> u64 {
        vlq_bits(*self as u64)
    }
}

impl BitSize for bool {
    #[inline]
    fn bits(&self) -> u64 {
        1
    }
}

impl BitSize for f64 {
    /// Points in [0,1) (overlay labels, DHT keys) are conceptually
    /// O(log n)-bit strings; we charge a fixed 64 bits, a conservative
    /// constant that never hides a growth factor.
    #[inline]
    fn bits(&self) -> u64 {
        64
    }
}

impl<T: BitSize> BitSize for Vec<T> {
    fn bits(&self) -> u64 {
        vlq_bits(self.len() as u64) + self.iter().map(BitSize::bits).sum::<u64>()
    }
}

impl<T: BitSize> BitSize for [T] {
    fn bits(&self) -> u64 {
        vlq_bits(self.len() as u64) + self.iter().map(BitSize::bits).sum::<u64>()
    }
}

impl<A: BitSize, B: BitSize> BitSize for (A, B) {
    fn bits(&self) -> u64 {
        self.0.bits() + self.1.bits()
    }
}

impl<A: BitSize, B: BitSize, C: BitSize> BitSize for (A, B, C) {
    fn bits(&self) -> u64 {
        self.0.bits() + self.1.bits() + self.2.bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vlq_is_monotone_and_logarithmic() {
        assert_eq!(vlq_bits(0), 1);
        assert_eq!(vlq_bits(1), 3);
        let mut prev = 0;
        for shift in 0..60 {
            let b = vlq_bits(1u64 << shift);
            assert!(b >= prev);
            prev = b;
        }
        // 2*log2(v) + 1 shape: doubling v adds exactly 2 bits at powers of 2.
        assert_eq!(vlq_bits(1 << 10), vlq_bits(1 << 9) + 2);
    }

    #[test]
    fn tag_bits_covers_variant_count() {
        assert_eq!(tag_bits(1), 1);
        assert_eq!(tag_bits(2), 1);
        assert_eq!(tag_bits(3), 2);
        assert_eq!(tag_bits(4), 2);
        assert_eq!(tag_bits(5), 3);
    }

    #[test]
    fn vec_costs_length_prefix_plus_items() {
        let v: Vec<u64> = vec![0, 0, 0];
        assert_eq!(v.bits(), vlq_bits(3) + 3 * vlq_bits(0));
    }

    #[test]
    fn option_costs_presence_bit() {
        let none: Option<u64> = None;
        let some: Option<u64> = Some(0);
        assert_eq!(none.bits(), 1);
        assert_eq!(some.bits(), 1 + vlq_bits(0));
    }
}
