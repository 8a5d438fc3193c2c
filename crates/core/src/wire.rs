//! The wire encoding: a hand-rolled, panic-free binary codec.
//!
//! The workspace deliberately carries no serialization dependency, so it
//! defines its own: LEB128 varints for integers, IEEE-754 bits for the
//! routing targets, explicit one-byte tags for enums, and length-guarded
//! sequences. Primitives and containers are implemented here by hand; a
//! message type declares its fields once with [`wire!`](crate::wire!), next
//! to the type, which derives its codec and its [`BitSize`](crate::BitSize)
//! from that one list. Three properties are load-bearing and tested:
//!
//! * **round-trip** — `decode(encode(m)) == m` for every message type
//!   ([`to_bytes`]/[`from_bytes`]);
//! * **panic-free decode** — a decoder consuming attacker-controlled bytes
//!   (truncated, oversized, garbage) returns [`WireError`], never panics
//!   and never allocates proportionally to a length it has not yet seen
//!   bytes for (`crates/net/tests/codec_props.rs`);
//! * **fixed bytes and costs** — every type's exact encoding, and every
//!   message's `bits()` and `kind()`, is pinned (`tests/wire_golden.rs` at
//!   the repository root); changing the bytes means bumping the socket
//!   runtime's `WIRE_VERSION`.

use std::fmt;
use std::ops::Deref;

/// Why a decode failed. All variants are plain data — no payload can itself
/// fail to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value did.
    Truncated,
    /// An enum tag byte had no matching variant.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A varint ran longer than the 10 bytes a u64 can need.
    VarintOverflow,
    /// A declared length exceeds the bytes actually present — rejected
    /// before allocating.
    LengthOverrun {
        /// Which type was being decoded.
        what: &'static str,
        /// The declared element count.
        declared: u64,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// The value decoded, but trailing bytes were left over.
    TrailingBytes {
        /// How many bytes remained.
        count: usize,
    },
    /// A frame or handshake violated the framing layer's rules.
    Frame(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated mid-value"),
            WireError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} for {what}"),
            WireError::VarintOverflow => write!(f, "varint longer than a u64"),
            WireError::LengthOverrun {
                what,
                declared,
                remaining,
            } => write!(
                f,
                "{what}: declared {declared} elements but only {remaining} bytes remain"
            ),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete value")
            }
            WireError::Frame(why) => write!(f, "framing: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over a byte slice. Every read checks bounds and returns
/// [`WireError::Truncated`] instead of panicking.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read an LEB128 varint into a u64.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let payload = (b & 0x7f) as u64;
            // The 10th byte may only contribute the single remaining bit.
            if shift == 63 && payload > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Read the next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let bytes = self.buf[self.pos..].get(..n).ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    /// Read a declared element count and reject it if even one byte per
    /// element cannot be present — the guard that keeps a forged
    /// multi-gigabyte length from allocating anything.
    #[inline]
    pub fn seq_len(&mut self, what: &'static str) -> Result<usize, WireError> {
        let declared = self.varint()?;
        let remaining = self.remaining();
        if declared > remaining as u64 {
            return Err(WireError::LengthOverrun {
                what,
                declared,
                remaining,
            });
        }
        Ok(declared as usize)
    }
}

/// Append an LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A type with a wire encoding. Message types get theirs from a
/// [`wire!`](crate::wire!) declaration next to the type.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader, consuming exactly its bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encode a value into a fresh byte vector.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

/// Decode a value from a byte slice, requiring the slice be consumed
/// exactly — trailing bytes are an error, like a frame that lied about its
/// length.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(v)
}

/// Encode a sequence: its length, then its items. A `Vec` and a `#[seq]`
/// field of a `wire!` declaration both encode this way.
#[inline]
pub fn put_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    put_varint(out, items.len() as u64);
    for v in items {
        v.encode(out);
    }
}

/// Decode a sequence written by [`put_seq`] into any collection of its
/// items — how a `#[seq]` field reads back a `SmallVec`, whose crate this
/// one cannot name.
#[inline]
pub fn get_seq<C, T>(r: &mut Reader<'_>) -> Result<C, WireError>
where
    C: Deref<Target = [T]> + FromIterator<T>,
    T: Wire,
{
    let n = r.seq_len("SmallVec")?;
    (0..n).map(|_| T::decode(r)).collect()
}

impl Wire for u64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
}

impl Wire for u32 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.varint()?).map_err(|_| WireError::Frame("varint exceeds u32".into()))
    }
}

impl Wire for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.varint()?).map_err(|_| WireError::Frame("varint exceeds usize".into()))
    }
}

/// One byte, 0 or 1; anything else is an error.
impl Wire for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

/// The little-endian IEEE-754 bits.
impl Wire for f64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(r.bytes(8)?);
        Ok(f64::from_le_bytes(raw))
    }
}

// A presence tag, then the value: one bit of cost plus the value's.
crate::wire!(enum Option<T> { 0 => None {}, 1 => Some(v) });

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len("Vec")?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len("String")?;
        String::from_utf8(r.bytes(n)?.to_vec())
            .map_err(|_| WireError::Frame("invalid utf-8".into()))
    }
}

/// Declare a message type's layout once, next to the type: the fields in
/// wire order and, for an enum, each variant's one-byte tag. Unit variants
/// are written `Name {}`; generic parameters must themselves be `Wire`
/// (for the codec) and [`BitSize`](crate::BitSize) (for the cost).
///
/// ```text
/// wire!(struct NodeId(v));
/// wire!(struct RouteMsg<M> { target, at, steps_done, walk_back, payload });
/// wire!(enum DhtResp { 0 => PutAck { id }, 1 => GetOk { id, elem } });
/// wire!(enum SeapMsg { 0 => Begin { phase } as "seap.begin", 7 => K(m) as m, … });
/// ```
///
/// From that list the macro implements [`Wire`] and
/// [`BitSize`](crate::BitSize):
///
/// * `encode` destructures the value, so a field the layout leaves out is a
///   compile error, then writes the tag and each field in order; `decode`
///   reads them back in the same order, and an unknown tag is
///   [`WireError::BadTag`];
/// * `bits()` is `tag_bits(number of variants)` for an enum plus the sum of
///   the fields' own `bits()` — the size the message-size experiments
///   measure;
/// * `kind()` is the label after `as`: a string, or a field whose own kind
///   the variant passes on. A variant without one, and every struct, is
///   [`MsgKind::OTHER`](crate::MsgKind::OTHER).
///
/// One attribute before a field changes how it is carried or costed:
///
/// * `#[seq]` — a sequence that derefs to `[T]` and collects from an
///   iterator (a `SmallVec`): encoded like a `Vec` of its items, costed like
///   `[T]`;
/// * `#[seq(f)]` — the same encoding, costed by `bitsize::f`;
/// * `#[bits(f)]` — the field's own encoding, costed by `bitsize::f`.
///
/// `wire!(codec struct …)` and `wire!(codec enum …)` implement [`Wire`]
/// alone, for the socket runtime's own frames, which have no cost.
#[macro_export]
macro_rules! wire {
    (struct $T:ident $fields:tt) => { $crate::wire!(struct $T<> $fields); };
    (struct $T:ident <$($g:ident),*> $fields:tt) => {
        $crate::wire!(codec struct $T<$($g),*> $fields);
        impl<$($g: $crate::BitSize),*> $crate::BitSize for $T<$($g),*> {
            fn bits(&self) -> u64 {
                let $crate::wire!(@pat $T $fields) = self;
                $crate::wire!(@bits $fields)
            }
        }
    };
    (enum $T:ident $(<$($g:ident),+>)? {
        $($tag:literal => $V:ident $fields:tt $(as $kind:tt)?),+ $(,)?
    }) => {
        $crate::wire!(codec enum $T $(<$($g),+>)? { $($tag => $V $fields),+ });
        impl$(<$($g: $crate::BitSize),+>)? $crate::BitSize for $T$(<$($g),+>)? {
            fn bits(&self) -> u64 {
                $crate::bitsize::tag_bits([$(stringify!($V)),+].len() as u64)
                    + match self {
                        $($crate::wire!(@pat $T::$V $fields) => $crate::wire!(@bits $fields),)+
                    }
            }
            #[allow(unused_variables)]
            fn kind(&self) -> $crate::MsgKind {
                match self {
                    $($crate::wire!(@pat $T::$V $fields) => $crate::wire!(@kind $($kind)?),)+
                }
            }
        }
    };
    (codec struct $T:ident $fields:tt) => { $crate::wire!(codec struct $T<> $fields); };
    (codec struct $T:ident <$($g:ident),*> $fields:tt) => {
        impl<$($g: $crate::wire::Wire),*> $crate::wire::Wire for $T<$($g),*> {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                let $crate::wire!(@pat $T $fields) = self;
                $crate::wire!(@put out $fields);
            }
            #[inline]
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                $crate::wire!(@get r $fields);
                Ok($crate::wire!(@pat $T $fields))
            }
        }
    };
    (codec enum $T:ident $(<$($g:ident),+>)? { $($tag:literal => $V:ident $fields:tt),+ $(,)? }) => {
        impl$(<$($g: $crate::wire::Wire),+>)? $crate::wire::Wire for $T$(<$($g),+>)? {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($crate::wire!(@pat $T::$V $fields) => {
                        out.push($tag);
                        $crate::wire!(@put out $fields);
                    })+
                }
            }
            #[inline]
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                match r.u8()? {
                    $($tag => {
                        $crate::wire!(@get r $fields);
                        Ok($crate::wire!(@pat $T::$V $fields))
                    })+
                    tag => Err($crate::wire::WireError::BadTag { what: stringify!($T), tag }),
                }
            }
        }
    };
    // The value as a pattern or an expression: both have the same shape.
    (@pat $($p:ident)::+ {}) => { $($p)::+ };
    (@pat $($p:ident)::+ { $($(#[$($a:tt)*])? $f:ident),+ $(,)? }) => { $($p)::+ { $($f),+ } };
    (@pat $($p:ident)::+ ( $($(#[$($a:tt)*])? $f:ident),+ )) => { $($p)::+ ( $($f),+ ) };
    // One statement per field, in order, each told its attribute.
    (@put $out:ident { $($(#[$($a:tt)*])? $f:ident),* $(,)? }) => {
        $($crate::wire!(@put1 $out [$($($a)*)?] $f);)*
    };
    (@put $out:ident ( $($fs:tt)* )) => { $crate::wire!(@put $out { $($fs)* }) };
    (@get $r:ident { $($(#[$($a:tt)*])? $f:ident),* $(,)? }) => {
        $($crate::wire!(@get1 $r [$($($a)*)?] $f);)*
    };
    (@get $r:ident ( $($fs:tt)* )) => { $crate::wire!(@get $r { $($fs)* }) };
    (@bits { $($(#[$($a:tt)*])? $f:ident),* $(,)? }) => {
        0 $(+ $crate::wire!(@bits1 [$($($a)*)?] $f))*
    };
    (@bits ( $($fs:tt)* )) => { $crate::wire!(@bits { $($fs)* }) };
    (@put1 $out:ident [seq $($c:tt)?] $f:ident) => { $crate::wire::put_seq($f, $out) };
    (@put1 $out:ident [$($a:tt)*] $f:ident) => { $crate::wire::Wire::encode($f, $out) };
    (@get1 $r:ident [seq $($c:tt)?] $f:ident) => { let $f = $crate::wire::get_seq($r)?; };
    (@get1 $r:ident [$($a:tt)*] $f:ident) => { let $f = $crate::wire::Wire::decode($r)?; };
    (@bits1 [] $f:ident) => { $crate::BitSize::bits($f) };
    (@bits1 [seq] $f:ident) => { $crate::BitSize::bits(&**$f) };
    (@bits1 [$form:ident ($cost:ident)] $f:ident) => { $crate::bitsize::$cost($f) };
    (@kind) => { $crate::MsgKind::OTHER };
    (@kind $label:literal) => { $crate::MsgKind($label) };
    (@kind $f:ident) => { $crate::BitSize::kind($f) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitsize::{tag_bits, vlq_bits};
    use crate::{BitSize, MsgKind};

    #[test]
    fn varint_round_trips_across_magnitudes() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX - 1, u64::MAX] {
            let bytes = to_bytes(&v);
            assert_eq!(from_bytes::<u64>(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // 11 continuation bytes: longer than any u64.
        let bytes = [0xffu8; 11];
        assert_eq!(Reader::new(&bytes).varint(), Err(WireError::VarintOverflow));
        // 10 bytes whose last contributes more than the one available bit.
        let mut bytes = vec![0x80u8; 9];
        bytes.push(0x7f);
        assert_eq!(Reader::new(&bytes).varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn forged_length_is_rejected_before_allocating() {
        // Vec length u64::MAX with a 2-byte buffer.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        buf.push(0);
        let err = from_bytes::<Vec<u64>>(&buf).unwrap_err();
        assert!(matches!(err, WireError::LengthOverrun { .. }), "{err}");
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut buf = to_bytes(&7u64);
        buf.push(9);
        assert_eq!(
            from_bytes::<u64>(&buf),
            Err(WireError::TrailingBytes { count: 1 })
        );
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Probe<M> {
        plain: u64,
        seq: Box<[u64]>,
        fixed: Box<[u64]>,
        known: u64,
        sentinel: u64,
        payload: M,
    }

    // `Box<[u64]>` stands in for a `SmallVec`: it derefs to a slice and
    // collects from an iterator, but is not a `Vec`.
    crate::wire!(struct Probe<M> {
        plain,
        #[seq] seq,
        #[seq(unprefixed)] fixed,
        #[bits(uncounted)] known,
        #[bits(capped)] sentinel,
        payload,
    });

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Unit,
        Tuple(Probe<bool>),
        Named { a: u64, b: Option<u64> },
    }

    crate::wire!(enum Shape {
        0 => Unit {} as "shape.unit",
        1 => Tuple(p) as p,
        2 => Named { a, b },
    });

    fn probe(sentinel: u64) -> Shape {
        Shape::Tuple(Probe {
            plain: 300,
            seq: Box::new([1, 200]),
            fixed: Box::new([7, 0, 9]),
            known: 1 << 40,
            sentinel,
            payload: true,
        })
    }

    #[test]
    fn the_macro_codes_costs_and_labels_every_form() {
        let named = Shape::Named { a: 9, b: Some(1) };
        for s in [Shape::Unit, probe(5), probe(u64::MAX), named.clone()] {
            assert_eq!(from_bytes::<Shape>(&to_bytes(&s)), Ok(s));
        }
        let tag3 = WireError::BadTag {
            what: "Shape",
            tag: 3,
        };
        assert_eq!(from_bytes::<Shape>(&[3]), Err(tag3));
        // A `#[seq]` field carries the bytes of a `Vec` of its items.
        let mut head = vec![1];
        head.extend(to_bytes(&300u64));
        head.extend(to_bytes(&vec![1u64, 200]));
        assert!(to_bytes(&probe(5)).starts_with(&head));

        // `fixed` has no length prefix, `known` costs nothing, `sentinel`
        // is capped at 2⁶² (125 bits).
        let fields = |sentinel| {
            vlq_bits(300)
                + (vlq_bits(2) + vlq_bits(1) + vlq_bits(200))
                + (vlq_bits(7) + vlq_bits(0) + vlq_bits(9))
                + sentinel
                + 1
        };
        let tag = tag_bits(3);
        assert_eq!(probe(5).bits(), tag + fields(vlq_bits(5)));
        assert_eq!(probe(u64::MAX).bits(), tag + fields(125));
        assert_eq!(Shape::Unit.bits(), tag);
        assert_eq!(named.bits(), tag + vlq_bits(9) + 1 + vlq_bits(1));

        assert_eq!(Shape::Unit.kind(), MsgKind("shape.unit"));
        // Passed on from the struct, which has no label of its own.
        assert_eq!(probe(5).kind(), MsgKind::OTHER);
    }
}
