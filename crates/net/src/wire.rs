//! The codec of [`dpq_core::wire`](mod@dpq_core::wire), re-exported under
//! the paths the runtime uses, plus the [`RawBytes`] its WAL carries.
//! Protocol messages declare their layouts with `wire!` next to their types;
//! the runtime's own frames (handshake, control plane, WAL entries) use
//! `wire!(codec …)`, which states no cost.

pub use dpq_core::wire::{from_bytes, put_varint, to_bytes, Reader, Wire, WireError};

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
