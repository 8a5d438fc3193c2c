//! Framing properties: however a stream is cut into `read`s, the batching
//! decoder the peer readers use yields exactly the frames `read_frame`
//! yields, and it fails where `read_frame` fails.

use std::io::{self, Cursor, ErrorKind, Read};

use dpq_core::DetRng;
use dpq_net::frame::{read_frame, write_frame, FrameDecoder};
use dpq_net::MAX_FRAME;

/// Hands a byte stream out in random pieces, one per `read`, with the
/// occasional read timing out as a socket's does.
struct Chopped<'a> {
    rest: &'a [u8],
    rng: DetRng,
}

impl Read for Chopped<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rng.below(8) == 0 {
            return Err(ErrorKind::WouldBlock.into());
        }
        // Mostly a few frames' worth, sometimes a single byte or a flood.
        let want = match self.rng.below(4) {
            0 => 1,
            1 => 1 + self.rng.below(8) as usize,
            2 => 1 + self.rng.below(64) as usize,
            _ => 1 + self.rng.below(8192) as usize,
        };
        let n = want.min(buf.len()).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// Drive a decoder to the end of `stream`, as a reader thread does.
fn decode_chopped(stream: &[u8], seed: u64) -> (Vec<Vec<u8>>, io::Result<()>) {
    let mut src = Chopped {
        rest: stream,
        rng: DetRng::new(seed),
    };
    let mut decoder = FrameDecoder::default();
    let mut frames = Vec::new();
    loop {
        match decoder.read_from(&mut src, &mut frames) {
            Ok(true) => {}
            Ok(false) => return (frames, Ok(())),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return (frames, Err(e)),
        }
    }
}

/// The reference: `read_frame` until it stops.
fn decode_one_by_one(stream: &[u8]) -> (Vec<Vec<u8>>, io::Result<()>) {
    let mut cur = Cursor::new(stream);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut cur) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e)),
        }
    }
}

/// Protocol-sized frames, with empty ones and ones larger than the
/// decoder's 4 KiB window mixed in.
fn random_frames(rng: &mut DetRng) -> Vec<Vec<u8>> {
    (0..rng.below(60))
        .map(|_| {
            let len = match rng.below(10) {
                0 => 0,
                1 => 4000 + rng.below(200),
                2 => rng.below(20_000),
                _ => 1 + rng.below(40),
            };
            (0..len).map(|_| rng.below(256) as u8).collect()
        })
        .collect()
}

fn stream_of(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = Vec::new();
    for f in frames {
        write_frame(&mut stream, f).unwrap();
    }
    stream
}

#[test]
fn any_cut_of_the_stream_decodes_to_the_same_frames() {
    let mut rng = DetRng::new(1);
    for case in 0..300 {
        let frames = random_frames(&mut rng);
        let stream = stream_of(&frames);
        let (got, end) = decode_chopped(&stream, case);
        assert!(end.is_ok(), "case {case}: {end:?}");
        assert_eq!(got, frames, "case {case}");
        assert_eq!(decode_one_by_one(&stream).0, frames, "case {case}");
    }
}

#[test]
fn eof_inside_a_frame_is_an_error_after_the_whole_frames_before_it() {
    let mut rng = DetRng::new(2);
    for case in 0..300 {
        let frames = random_frames(&mut rng);
        let stream = stream_of(&frames);
        if stream.is_empty() {
            continue;
        }
        let cut = rng.below(stream.len() as u64) as usize;
        let (want, want_end) = decode_one_by_one(&stream[..cut]);
        let (got, end) = decode_chopped(&stream[..cut], case);
        assert_eq!(got, want, "case {case}");
        // A cut on a frame boundary is a clean EOF for both; any other is
        // an error for both.
        match want_end {
            Ok(()) => assert!(end.is_ok(), "case {case}: {end:?}"),
            Err(_) => assert_eq!(
                end.unwrap_err().kind(),
                ErrorKind::UnexpectedEof,
                "case {case}"
            ),
        }
    }
}

#[test]
fn an_oversized_length_is_refused_without_reading_on() {
    let mut rng = DetRng::new(3);
    for case in 0..100 {
        let frames = random_frames(&mut rng);
        let mut stream = stream_of(&frames);
        let forged = MAX_FRAME as u64 + 1 + rng.below(u32::MAX as u64 - MAX_FRAME as u64);
        stream.extend_from_slice(&(forged as u32).to_le_bytes());
        // Were the length believed, the decoder would size its window for
        // it and wait for a gigabyte; it must fail on the prefix alone.
        let (got, end) = decode_chopped(&stream, case);
        assert_eq!(got, frames, "case {case}");
        assert_eq!(end.unwrap_err().kind(), ErrorKind::InvalidData);
    }
}
