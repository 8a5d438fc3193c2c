//! The wire encoding: a hand-rolled, panic-free binary codec.
//!
//! The workspace deliberately carries no serialization dependency (the
//! `BitSize` trait only *costs* messages, it does not encode them), so the
//! socket runtime defines its own: LEB128 varints for integers, IEEE-754
//! bits for the routing targets, explicit one-byte tags for enums, and
//! length-guarded vectors. Primitives and containers are implemented here by
//! hand; a message type declares its layout once with `wire!`, which derives
//! both directions. Three properties are load-bearing and tested:
//!
//! * **round-trip** — `decode(encode(m)) == m` for every message type
//!   ([`to_bytes`]/[`from_bytes`]);
//! * **panic-free decode** — a decoder consuming attacker-controlled bytes
//!   (truncated, oversized, garbage) returns [`WireError`], never panics
//!   and never allocates proportionally to a length it has not yet seen
//!   bytes for (`tests/codec_props.rs`);
//! * **fixed bytes** — every type's exact encoding is pinned
//!   (`tests/wire_golden.rs` at the repository root); changing one means
//!   bumping [`WIRE_VERSION`](crate::WIRE_VERSION).

use std::fmt;

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
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read an LEB128 varint into a u64.
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
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let bytes = self.buf[self.pos..].get(..n).ok_or(WireError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    /// Read a declared element count and reject it if even one byte per
    /// element cannot be present — the guard that keeps a forged
    /// multi-gigabyte length from allocating anything.
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

/// A type with a wire encoding. Message types get theirs from a `wire!`
/// declaration, most of them in [`codec`](crate::codec).
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

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.varint()?).map_err(|_| WireError::Frame("varint exceeds u32".into()))
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.varint()?).map_err(|_| WireError::Frame("varint exceeds usize".into()))
    }
}

/// One byte, 0 or 1; anything else is an error.
impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
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
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(r.bytes(8)?);
        Ok(f64::from_le_bytes(raw))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
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

// Wire-identical to `Vec<T>`: the inline/spill split is a memory-layout
// concern, not a protocol one.
impl<T: Wire + Copy + Default, const N: usize> Wire for dpq_arena::SmallVec<T, N> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self.iter() {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len("SmallVec")?;
        let mut v = dpq_arena::SmallVec::new();
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

/// Raw length-prefixed bytes (used for WAL payloads, where the inner frame
/// is decoded lazily at replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawBytes(pub Vec<u8>);

impl Wire for RawBytes {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.0.len() as u64);
        out.extend_from_slice(&self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len("RawBytes")?;
        Ok(RawBytes(r.bytes(n)?.to_vec()))
    }
}

/// Implement [`Wire`] from a layout written once: the fields in wire order
/// and, for an enum, the one-byte tag of each variant. Unit variants are
/// written `Name {}`; generic parameters must themselves be `Wire`.
///
/// ```text
/// wire!(struct NodeId(v));
/// wire!(struct RouteMsg<M> { target, at, steps_done, walk_back, payload });
/// wire!(enum DhtResp { 0 => PutAck { id }, 1 => GetOk { id, elem } });
/// ```
///
/// `encode` destructures the value, so a field the layout leaves out is a
/// compile error, then writes the tag and each field in order. `decode`
/// reads them back in the same order; an unknown tag is
/// [`WireError::BadTag`].
macro_rules! wire {
    (struct $T:ident $fields:tt) => { $crate::wire::wire!(struct $T<> $fields); };
    (struct $T:ident <$($g:ident),*> $fields:tt) => {
        impl<$($g: $crate::wire::Wire),*> $crate::wire::Wire for $T<$($g),*> {
            fn encode(&self, out: &mut Vec<u8>) {
                let $crate::wire::wire!(@pat $T $fields) = self;
                $crate::wire::wire!(@put out $fields);
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                $crate::wire::wire!(@get r $fields);
                Ok($crate::wire::wire!(@pat $T $fields))
            }
        }
    };
    (enum $T:ident $(<$($g:ident),+>)? { $($tag:literal => $V:ident $fields:tt),+ $(,)? }) => {
        impl$(<$($g: $crate::wire::Wire),+>)? $crate::wire::Wire for $T$(<$($g),+>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($crate::wire::wire!(@pat $T::$V $fields) => {
                        out.push($tag);
                        $crate::wire::wire!(@put out $fields);
                    })+
                }
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                match r.u8()? {
                    $($tag => {
                        $crate::wire::wire!(@get r $fields);
                        Ok($crate::wire::wire!(@pat $T::$V $fields))
                    })+
                    tag => Err($crate::wire::WireError::BadTag { what: stringify!($T), tag }),
                }
            }
        }
    };
    // The value as a pattern or an expression: both have the same shape.
    (@pat $($p:ident)::+ {}) => { $($p)::+ };
    (@pat $($p:ident)::+ { $($f:ident),+ $(,)? }) => { $($p)::+ { $($f),+ } };
    (@pat $($p:ident)::+ ( $($f:ident),+ )) => { $($p)::+ ( $($f),+ ) };
    (@put $out:ident { $($f:ident),* $(,)? }) => { $($crate::wire::Wire::encode($f, $out);)* };
    (@put $out:ident ( $($f:ident),+ )) => { $crate::wire::wire!(@put $out { $($f),+ }) };
    (@get $r:ident { $($f:ident),* $(,)? }) => { $(let $f = $crate::wire::Wire::decode($r)?;)* };
    (@get $r:ident ( $($f:ident),+ )) => { $crate::wire::wire!(@get $r { $($f),+ }) };
}
pub(crate) use wire;

#[cfg(test)]
mod tests {
    use super::*;

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
}
