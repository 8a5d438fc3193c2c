//! The send path of [`PeerManager`], driven through its public surface:
//! sends never block the caller, frames are written whole or dropped whole
//! and counted, and what was sent while a link was down or stalled flows
//! once it is up again.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use dpq_net::frame::{read_frame, Hello};
use dpq_net::peers::PeerManager;
use dpq_net::{Addr, Listener, ProtoId};

fn temp_sock(name: &str) -> Addr {
    let dir = std::env::temp_dir();
    Addr::Uds(dir.join(format!("dpq-send-{}-{name}.sock", std::process::id())))
}

type Inbox = mpsc::Receiver<(u64, Vec<u8>)>;

fn manager(me: u64, cluster: u64, listen: &Addr, peer: u64, at: &Addr) -> (PeerManager, Inbox) {
    let (tx, rx) = mpsc::channel();
    let peers = BTreeMap::from([(peer, at.clone())]);
    let m = PeerManager::start(me, ProtoId::Skeap, cluster, listen, &peers, tx).unwrap();
    (m, rx)
}

/// Poll `cond` until it holds; the threads under test owe it within
/// their backoff ceiling, so five seconds is a failure, not a race.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_batch_sent_before_the_link_is_up_arrives_whole_and_in_order() {
    let (a_addr, b_addr) = (temp_sock("early-a"), temp_sock("early-b"));
    // b listens first, so a's first connect succeeds — but nothing
    // waits for it: the sends race the dialer and must win either way.
    let (b, b_rx) = manager(1, 7, &b_addr, 0, &a_addr);
    let (a, _a_rx) = manager(0, 7, &a_addr, 1, &b_addr);
    let batch: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; i as usize]).collect();
    a.send_batch(1, &batch);
    for want in &batch {
        let (from, got) = b_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, &got), (0, want));
    }
    let pw = a.wire_metrics().peer(1).unwrap().clone();
    assert_eq!((pw.tx_frames, pw.send_drops), (100, 0));
    assert_eq!(
        pw.tx_bytes,
        batch.iter().map(|f| f.len() as u64).sum::<u64>()
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn sends_to_a_peer_that_never_comes_up_are_counted_as_drops() {
    let (m, _rx) = manager(0, 1, &temp_sock("lonely"), 1, &temp_sock("ghost"));
    // Far more than the buffer holds; never blocks though peer 1 is down.
    let sent = 1024;
    for _ in 0..sent {
        m.send(1, vec![0; 1020]);
    }
    // Overflow dropped at once, the rest when the next connect failed.
    eventually("every frame to be dropped", || {
        m.wire_metrics().peer(1).unwrap().send_drops == sent
    });
    assert_eq!(m.wire_metrics().peer(1).unwrap().tx_frames, 0);
    m.shutdown();
}

#[test]
fn a_stalled_reader_never_blocks_the_sender_or_tears_the_stream() {
    let (a_addr, peer_addr) = (temp_sock("stall-a"), temp_sock("stall-peer"));
    let listener = Listener::bind(&peer_addr).unwrap();
    let (a, _a_rx) = manager(0, 7, &a_addr, 1, &peer_addr);
    let mut conn = listener.accept().unwrap();
    let hello = read_frame(&mut conn).unwrap().expect("the dialer's hello");
    Hello::accept(&hello, ProtoId::Skeap, 7).unwrap();

    // Frame `i` is its index followed by a filler derived from it, so a
    // torn or misaligned stream cannot decode to valid frames.
    let frame = |i: u32| {
        let mut f = i.to_le_bytes().to_vec();
        f.resize(1024, i as u8);
        f
    };
    let drops = || a.wire_metrics().peer(1).unwrap().send_drops;

    // The peer reads nothing: the socket fills, then the link's buffer,
    // then frames drop — and no send ever waits.
    let started = Instant::now();
    let mut next = 0u32;
    while drops() == 0 {
        assert!(next < 100_000, "nothing was ever dropped");
        a.send(1, frame(next));
        next += 1;
    }
    assert!(started.elapsed() < Duration::from_secs(5), "send blocked");
    let dropped_in_stall = drops();

    // The peer reads again. What waited in the link's buffer goes out
    // with the next sends, which are retried until one gets through.
    // (`a`'s end of the socket lives on in its accept thread, so the
    // reader ends on two silent seconds, not on EOF.)
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let (got_tx, got_rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        while let Ok(Some(f)) = read_frame(&mut conn) {
            if got_tx.send(f).is_err() {
                return;
            }
        }
    });
    let mut received = Vec::new();
    let resumed_from = next;
    while received.last().is_none_or(|&i| i < resumed_from) {
        assert!(next < 200_000, "no frame arrived after the stall");
        a.send(1, frame(next));
        next += 1;
        while let Ok(f) = got_rx.recv_timeout(Duration::from_millis(1)) {
            let i = u32::from_le_bytes(*f.first_chunk::<4>().unwrap());
            assert_eq!(f, frame(i), "frame {i} arrived damaged");
            received.push(i);
        }
    }
    assert!(received.is_sorted_by(|x, y| x < y), "reordered or repeated");
    let lost = next as u64 - received.len() as u64;
    let pw = a.wire_metrics().peer(1).unwrap().clone();
    // Every frame is accounted for: delivered, dropped and counted, or
    // still on its way (written or buffered behind the last one read).
    assert!(pw.send_drops >= dropped_in_stall && pw.send_drops <= lost);
    assert!(pw.tx_frames >= received.len() as u64);
    assert_eq!(pw.reconnects, 0, "the link was reset");
    a.shutdown();
    drop(got_rx);
    reader.join().unwrap();
}
