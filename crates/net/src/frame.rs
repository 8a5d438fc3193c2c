//! Length-prefixed framing and the versioned connection handshake.
//!
//! Every connection starts with a [`Hello`] frame and then carries opaque
//! payload frames: a little-endian `u32` length followed by that many bytes.
//! Frames above [`MAX_FRAME`] are rejected on both sides — the reader
//! *before* allocating — so a corrupt or hostile length prefix cannot balloon
//! memory. The handshake pins four things: the magic, the wire-format
//! version, the protocol being spoken (a Skeap node must not accept Seap
//! frames), and a cluster fingerprint derived from the deployment parameters
//! (`n`, `seed`, …) so two clusters on one host cannot cross-connect.
//! An empty payload frame is a wake (see [`crate::node`]).

use std::io::{self, Read, Write};

use crate::wire::{from_bytes, to_bytes, Reader, Wire, WireError};

/// First bytes of every connection.
pub const MAGIC: [u8; 4] = *b"DPQW";

/// Wire-format version. Bump on any codec or framing change.
pub const WIRE_VERSION: u64 = 1;

/// Hard ceiling on a frame's payload size (1 MiB). Protocol messages are
/// O(log n) bits; even a full Skeap batch over a large cluster stays far
/// below this.
pub const MAX_FRAME: usize = 1 << 20;

/// Which protocol a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoId {
    /// Skeap: constant priority universe, batch cycles.
    Skeap,
    /// Seap: arbitrary priorities, phase machine.
    Seap,
    /// KSelect: one-shot k-selection.
    KSelect,
    /// The control plane (dpq-ctl ↔ dpq-node).
    Ctl,
}

impl ProtoId {
    /// Parse a protocol name as it appears on the CLI.
    pub fn parse(s: &str) -> Result<ProtoId, String> {
        match s {
            "skeap" => Ok(ProtoId::Skeap),
            "seap" => Ok(ProtoId::Seap),
            "kselect" => Ok(ProtoId::KSelect),
            other => Err(format!(
                "unknown protocol {other:?} (expected skeap, seap, or kselect)"
            )),
        }
    }

    /// The CLI / display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtoId::Skeap => "skeap",
            ProtoId::Seap => "seap",
            ProtoId::KSelect => "kselect",
            ProtoId::Ctl => "ctl",
        }
    }
}

dpq_core::wire!(codec enum ProtoId { 0 => Skeap {}, 1 => Seap {}, 2 => KSelect {}, 3 => Ctl {} });

/// The handshake frame opening every connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Wire-format version ([`WIRE_VERSION`]).
    pub version: u64,
    /// Protocol this connection will carry.
    pub proto: ProtoId,
    /// Fingerprint of the deployment parameters (see
    /// [`cluster_fingerprint`](crate::config::cluster_fingerprint)).
    pub cluster: u64,
    /// The connecting node (or `u64::MAX` for a ctl client).
    pub sender: u64,
}

/// The magic, then the fields in order. Written by hand: the magic is not
/// a field.
impl Wire for Hello {
    fn encode(&self, out: &mut Vec<u8>) {
        let Hello {
            version,
            proto,
            cluster,
            sender,
        } = self;
        out.extend_from_slice(&MAGIC);
        version.encode(out);
        proto.encode(out);
        cluster.encode(out);
        sender.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let magic = r.bytes(MAGIC.len())?;
        if magic != MAGIC {
            return Err(WireError::Frame(format!("bad magic {magic:02x?}")));
        }
        Ok(Hello {
            version: Wire::decode(r)?,
            proto: Wire::decode(r)?,
            cluster: Wire::decode(r)?,
            sender: Wire::decode(r)?,
        })
    }
}

impl Hello {
    /// Decode a connection's first frame and [`check`](Hello::check) it.
    pub fn accept(frame: &[u8], proto: ProtoId, cluster: u64) -> Result<Hello, WireError> {
        let hello: Hello = from_bytes(frame)?;
        hello.check(proto, cluster)?;
        Ok(hello)
    }

    /// Validate an inbound hello against what this endpoint expects.
    pub fn check(&self, proto: ProtoId, cluster: u64) -> Result<(), WireError> {
        if self.version != WIRE_VERSION {
            return Err(WireError::Frame(format!(
                "wire version {} (expected {WIRE_VERSION})",
                self.version
            )));
        }
        if self.proto != proto {
            return Err(WireError::Frame(format!(
                "protocol {} (expected {})",
                self.proto.name(),
                proto.name()
            )));
        }
        if self.cluster != cluster {
            return Err(WireError::Frame(format!(
                "cluster fingerprint {:#x} (expected {cluster:#x})",
                self.cluster
            )));
        }
        Ok(())
    }
}

/// Append one length-prefixed frame to `out`, so a whole batch goes to the
/// socket in a single `write`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    push_prefixed(out, payload);
    Ok(())
}

/// Append `payload` to `out` behind its little-endian `u32` length prefix,
/// unchecked: [`append_frame`] refuses payloads above [`MAX_FRAME`] for the
/// wire, while a WAL entry logging a maximal frame is a few bytes over it.
pub(crate) fn push_prefixed(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The complete length-prefixed frames at the start of `buf`, in order, up
/// to the first incomplete one: each frame's payload and the offset in
/// `buf` just past it. No [`MAX_FRAME`] check: the bytes are already in
/// memory.
pub(crate) fn complete_frames(buf: &[u8]) -> impl Iterator<Item = (&[u8], usize)> {
    let mut rest = buf;
    std::iter::from_fn(move || {
        let (prefix, tail) = rest.split_first_chunk::<4>()?;
        let (payload, after) = tail.split_at_checked(u32::from_le_bytes(*prefix) as usize)?;
        rest = after;
        Some((payload, buf.len() - after.len()))
    })
}

/// Write one length-prefixed frame (prefix and payload in one `write`).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    append_frame(&mut buf, payload)?;
    w.write_all(&buf)
}

/// Read one length-prefixed frame. Returns `Ok(None)` on clean EOF (the
/// peer closed between frames); EOF mid-frame and oversized lengths are
/// errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_bytes[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let mut payload = vec![0u8; checked_len(len_bytes)?];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A length prefix as a payload size, refused above [`MAX_FRAME`] before
/// anything is allocated for it.
fn checked_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    Ok(len)
}

/// Initial size of a [`FrameDecoder`]'s window: a few hundred protocol
/// frames per `read`, small enough that one window per inbound connection
/// does not show in the resident set.
const DECODE_WINDOW: usize = 4096;

/// Turns each `read` on a stream into every complete frame it carried.
///
/// Equivalent to calling [`read_frame`] in a loop, at one `read` per batch
/// of frames instead of two per frame. The window is [`DECODE_WINDOW`]
/// bytes; it grows only to hold a single larger frame, whose length is
/// checked against [`MAX_FRAME`] first, and returns to that size once the
/// frame is consumed, so a decoder that lives as long as its connection
/// keeps no high-water mark. A read that would block or times out loses
/// nothing: the partial frame stays in the window.
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// `buf[..len]` is received and not yet decoded; it starts at a frame
    /// boundary.
    len: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder {
            buf: vec![0; DECODE_WINDOW],
            len: 0,
        }
    }
}

impl FrameDecoder {
    /// Do one `read` and append every frame it completes to `out`.
    /// `Ok(false)` is a clean EOF (the peer closed between frames); EOF
    /// inside a frame and oversized lengths are errors.
    pub fn read_from(&mut self, r: &mut impl Read, out: &mut Vec<Vec<u8>>) -> io::Result<bool> {
        let n = r.read(&mut self.buf[self.len..])?;
        if n == 0 {
            return if self.len == 0 {
                Ok(false)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame",
                ))
            };
        }
        self.len += n;
        let (mut at, mut window) = (0, DECODE_WINDOW);
        while let Some(prefix) = self.buf[at..self.len].first_chunk::<4>() {
            let end = at + 4 + checked_len(*prefix)?;
            if end > self.len {
                // Keep room for the rest of this frame, or the next
                // `read` would be handed an empty slice.
                window = window.max(end - at);
                break;
            }
            out.push(self.buf[at + 4..end].to_vec());
            at = end;
        }
        self.buf.copy_within(at..self.len, 0);
        self.len -= at;
        if window < self.buf.len() {
            self.buf.truncate(window);
            self.buf.shrink_to_fit();
        }
        self.buf.resize(window, 0);
        Ok(true)
    }
}

/// Write a hello as the connection's first frame.
pub fn write_hello(w: &mut impl Write, hello: &Hello) -> io::Result<()> {
    write_frame(w, &to_bytes(hello))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let err = write_frame(&mut Vec::new(), &vec![0u8; MAX_FRAME + 1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn handshake_validates_version_proto_and_cluster() {
        let hello = Hello {
            version: WIRE_VERSION,
            proto: ProtoId::Skeap,
            cluster: 42,
            sender: 3,
        };
        assert!(hello.check(ProtoId::Skeap, 42).is_ok());
        assert!(hello.check(ProtoId::Seap, 42).is_err(), "wrong protocol");
        assert!(hello.check(ProtoId::Skeap, 43).is_err(), "wrong cluster");
        let stale = Hello {
            version: WIRE_VERSION + 1,
            ..hello
        };
        assert!(stale.check(ProtoId::Skeap, 42).is_err(), "wrong version");

        let mut buf = Vec::new();
        write_hello(&mut buf, &hello).unwrap();
        let frame = read_frame(&mut Cursor::new(buf)).unwrap().unwrap();
        let got = Hello::accept(&frame, ProtoId::Skeap, 42).unwrap();
        assert_eq!(got, hello);
    }

    #[test]
    fn the_window_returns_to_its_size_after_a_large_frame() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &vec![7; 200 << 10]).unwrap();
        for i in 0..50u8 {
            write_frame(&mut stream, &[i; 20]).unwrap();
        }
        let mut cur = Cursor::new(stream);
        let (mut decoder, mut frames) = (FrameDecoder::default(), Vec::new());
        while decoder.read_from(&mut cur, &mut frames).unwrap() {}
        assert_eq!(frames.len(), 51);
        assert_eq!(frames[0].len(), 200 << 10);
        assert_eq!(frames[50], [49; 20]);
        assert_eq!(decoder.buf.len(), DECODE_WINDOW);
        assert_eq!(decoder.buf.capacity(), DECODE_WINDOW);
    }

    #[test]
    fn garbage_handshake_is_rejected() {
        assert!(Hello::accept(b"NOPE****", ProtoId::Skeap, 0).is_err());
    }
}
