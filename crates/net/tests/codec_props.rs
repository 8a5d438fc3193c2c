//! Codec fuzz/property tests: every message alphabet round-trips through
//! the wire codec, and no byte sequence — truncated, mutated, or random —
//! makes the decoder panic or allocate unboundedly.
//!
//! The protocol enums derive `Debug` but not `PartialEq`, so round-trips
//! compare debug renderings; the codec has no float-lossy or order-lossy
//! encodings, so equal renderings imply equal values.

use dpq_core::{DetRng, ElemId, Element, Key, NodeId, Priority};
use dpq_dht::{DhtReq, DhtResp};
use dpq_gossip::{DigestEntry, GossipMsg, NodeDelta};
use dpq_net::ctl::{CtlReq, CtlResp, StatusInfo};
use dpq_net::wal::{CtlOpKind, WalEntry};
use dpq_net::wire::RawBytes;
use dpq_net::{from_bytes, to_bytes, Wire};
use dpq_overlay::routing::{HopMsg, RouteMsg};
use dpq_overlay::{VirtId, VirtKind};
use dpq_sim::ReliableMsg;
use kselect::msgs::{Compare, Place, Split};
use kselect::{Cmd, KMsg, Rsp};
use seap::SeapMsg;
use skeap::{Batch, BatchEntry, EntryAssign, SkeapMsg};

// ---------------------------------------------------------------- generators

fn key(rng: &mut DetRng) -> Key {
    Key {
        prio: Priority(rng.below(1 << 20)),
        elem: ElemId(rng.next_u64_inline()),
    }
}

fn elem(rng: &mut DetRng) -> Element {
    Element {
        id: ElemId(rng.next_u64_inline()),
        prio: Priority(rng.below(1 << 20)),
        payload: rng.next_u64_inline(),
    }
}

fn virt(rng: &mut DetRng) -> VirtId {
    VirtId {
        real: NodeId(rng.below(64)),
        kind: *rng.pick(&[VirtKind::Left, VirtKind::Middle, VirtKind::Right]),
    }
}

fn interval(rng: &mut DetRng) -> dpq_agg::Interval {
    let lo = rng.below(1000);
    dpq_agg::Interval {
        lo,
        hi: lo + rng.below(1000),
    }
}

fn segments(rng: &mut DetRng) -> dpq_agg::Segments {
    dpq_agg::Segments {
        parts: (0..rng.below(4))
            .map(|_| (rng.below(64), interval(rng)))
            .collect(),
    }
}

fn dht_req(rng: &mut DetRng) -> DhtReq {
    if rng.chance(0.5) {
        DhtReq::Put {
            logical: rng.next_u64_inline(),
            elem: elem(rng),
            reply_to: NodeId(rng.below(64)),
            id: rng.next_u64_inline(),
        }
    } else {
        DhtReq::Get {
            logical: rng.next_u64_inline(),
            reply_to: NodeId(rng.below(64)),
            id: rng.next_u64_inline(),
        }
    }
}

fn dht_resp(rng: &mut DetRng) -> DhtResp {
    if rng.chance(0.5) {
        DhtResp::PutAck {
            id: rng.next_u64_inline(),
        }
    } else {
        DhtResp::GetOk {
            id: rng.next_u64_inline(),
            elem: elem(rng),
        }
    }
}

fn route<M>(rng: &mut DetRng, payload: M) -> RouteMsg<M> {
    RouteMsg {
        target: rng.unit(),
        at: virt(rng),
        steps_done: rng.below(100) as u32,
        walk_back: rng.chance(0.5),
        payload,
    }
}

fn skeap_msg(rng: &mut DetRng) -> SkeapMsg {
    match rng.below(4) {
        0 => SkeapMsg::BatchUp {
            cycle: rng.next_u64_inline(),
            batch: Batch {
                n_prios: rng.below(8) as usize,
                entries: (0..rng.below(4))
                    .map(|_| BatchEntry {
                        ins: (0..rng.below(5)).map(|_| rng.next_u64_inline()).collect(),
                        del: rng.below(10),
                    })
                    .collect(),
            },
        },
        1 => SkeapMsg::Down {
            cycle: rng.next_u64_inline(),
            assigns: (0..rng.below(3))
                .map(|_| EntryAssign {
                    ins: (0..rng.below(3)).map(|_| interval(rng)).collect(),
                    ins_seq: interval(rng),
                    del: segments(rng),
                    bottom: rng.below(10),
                    del_seq: interval(rng),
                    lifo: rng.chance(0.5),
                })
                .collect(),
        },
        2 => {
            let req = dht_req(rng);
            SkeapMsg::Dht(route(rng, req))
        }
        _ => SkeapMsg::Resp(dht_resp(rng)),
    }
}

fn cmd(rng: &mut DetRng) -> Cmd {
    match rng.below(6) {
        0 => Cmd::P1Bounds {
            k: rng.below(100),
            n: rng.below(1000),
        },
        1 => Cmd::P1Prune {
            pmin: key(rng),
            pmax: key(rng),
        },
        2 => Cmd::Sample {
            epoch: rng.below(50),
            prune: if rng.chance(0.5) {
                Some((key(rng), key(rng)))
            } else {
                None
            },
            prob: rng.unit(),
        },
        3 => Cmd::Positions {
            epoch: rng.below(50),
            lo: rng.below(100),
            hi: rng.below(100),
            first: rng.below(100),
            last: rng.below(100),
            n_prime: rng.below(1000),
        },
        4 => Cmd::WindowCount {
            cl: key(rng),
            cr: key(rng),
        },
        _ => Cmd::Announce { result: key(rng) },
    }
}

fn rsp(rng: &mut DetRng) -> Rsp {
    match rng.below(4) {
        0 => Rsp::MinMax {
            pmin: key(rng),
            pmax: key(rng),
        },
        1 => Rsp::Counts {
            below: rng.below(1000),
            above: rng.below(1000),
        },
        2 => Rsp::SampleCount {
            count: rng.below(1000),
        },
        _ => Rsp::Hits {
            lo: rng.chance(0.5).then(|| key(rng)),
            hi: rng.chance(0.5).then(|| key(rng)),
        },
    }
}

fn kmsg(rng: &mut DetRng) -> KMsg {
    match rng.below(8) {
        0 => KMsg::Down(cmd(rng)),
        1 => KMsg::Up(rsp(rng)),
        2 => {
            let p = Place {
                epoch: rng.below(50),
                pos: rng.below(100),
                key: key(rng),
                origin: NodeId(rng.below(64)),
                n_prime: rng.below(1000),
            };
            KMsg::Place(route(rng, p))
        }
        3 => KMsg::Split(HopMsg {
            at: virt(rng),
            walk_back: rng.chance(0.5),
            payload: Split {
                epoch: rng.below(50),
                cand: rng.below(100),
                key: key(rng),
                a: rng.below(100),
                b: rng.below(100),
                parent: NodeId(rng.below(64)),
                parent_copy: rng.below(10),
            },
        }),
        4 => {
            let c = Compare {
                epoch: rng.below(50),
                cand: rng.below(100),
                copy: rng.below(10),
                key: key(rng),
                back: NodeId(rng.below(64)),
            };
            KMsg::Compare(route(rng, c))
        }
        5 => KMsg::CmpResult {
            epoch: rng.below(50),
            cand: rng.below(100),
            copy: rng.below(10),
            smaller: rng.below(100),
            larger: rng.below(100),
        },
        6 => KMsg::CopyAgg {
            epoch: rng.below(50),
            cand: rng.below(100),
            parent_copy: rng.below(10),
            smaller: rng.below(100),
            larger: rng.below(100),
        },
        _ => KMsg::Order {
            epoch: rng.below(50),
            key: key(rng),
            order: rng.below(1000),
        },
    }
}

fn seap_msg(rng: &mut DetRng) -> SeapMsg {
    match rng.below(10) {
        0 => SeapMsg::Begin {
            phase: rng.below(50),
        },
        1 => SeapMsg::CountUp {
            phase: rng.below(50),
            count: rng.below(1000),
        },
        2 => SeapMsg::StartInserts {
            phase: rng.below(50),
            wit: interval(rng),
        },
        3 => SeapMsg::CountBelow {
            phase: rng.below(50),
            key_k: key(rng),
        },
        4 => SeapMsg::StoreCountUp {
            phase: rng.below(50),
            count: rng.below(1000),
        },
        5 => SeapMsg::Assign {
            phase: rng.below(50),
            key_k: rng.chance(0.5).then(|| key(rng)),
            store: interval(rng),
            del: interval(rng),
            wit: interval(rng),
        },
        6 => SeapMsg::DoneUp {
            phase: rng.below(50),
        },
        7 => SeapMsg::K(kmsg(rng)),
        8 => {
            let req = dht_req(rng);
            SeapMsg::Dht(route(rng, req))
        }
        _ => SeapMsg::Resp(dht_resp(rng)),
    }
}

fn reliable<M>(rng: &mut DetRng, msg: M) -> ReliableMsg<M> {
    if rng.chance(0.7) {
        ReliableMsg::Data {
            seq: rng.next_u64_inline(),
            msg,
        }
    } else {
        ReliableMsg::Ack {
            seq: rng.next_u64_inline(),
            cum: rng.next_u64_inline(),
        }
    }
}

fn digest(rng: &mut DetRng) -> DigestEntry {
    DigestEntry {
        node: NodeId(rng.below(64)),
        incarnation: rng.below(10),
        max_version: rng.next_u64_inline(),
    }
}

fn delta(rng: &mut DetRng) -> NodeDelta {
    NodeDelta {
        node: NodeId(rng.below(64)),
        incarnation: rng.below(10),
        entries: (0..rng.below(4))
            .map(|_| (rng.below(8), rng.next_u64_inline(), rng.below(1000)))
            .collect(),
    }
}

fn gossip_msg(rng: &mut DetRng) -> GossipMsg {
    match rng.below(3) {
        0 => GossipMsg::Syn {
            window: (0..rng.below(5)).map(|_| digest(rng)).collect(),
        },
        1 => GossipMsg::SynAck {
            delta: (0..rng.below(3)).map(|_| delta(rng)).collect(),
            want: (0..rng.below(3)).map(|_| digest(rng)).collect(),
        },
        _ => GossipMsg::Ack {
            delta: (0..rng.below(3)).map(|_| delta(rng)).collect(),
        },
    }
}

// ------------------------------------------------------------------ helpers

/// Round-trip via debug rendering (the protocol enums do not derive
/// `PartialEq`), then check the decoder rejects every strict prefix: the
/// decoder's path is a deterministic function of the byte stream, so a
/// successful full decode means any prefix must run out of bytes mid-field.
fn check_round_trip<T: Wire + std::fmt::Debug>(value: &T) {
    let bytes = to_bytes(value);
    let back: T = from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("decode failed: {e}\nvalue: {value:?}\nbytes: {bytes:?}"));
    assert_eq!(
        format!("{value:?}"),
        format!("{back:?}"),
        "round-trip changed the value"
    );
    for cut in 0..bytes.len() {
        assert!(
            from_bytes::<T>(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes decoded successfully: {value:?}",
            bytes.len()
        );
    }
}

/// Decoding arbitrary bytes must return, never panic. The return value is
/// irrelevant; this is a fuzz pass over the decoder's error paths.
fn check_no_panic<T: Wire + std::fmt::Debug>(rng: &mut DetRng, rounds: usize) {
    for _ in 0..rounds {
        let len = rng.below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        let _ = from_bytes::<T>(&bytes);
    }
}

/// Flip one byte of a valid encoding; decode must return, never panic.
fn check_mutations<T: Wire + std::fmt::Debug>(rng: &mut DetRng, value: &T) {
    let bytes = to_bytes(value);
    if bytes.is_empty() {
        return;
    }
    for _ in 0..8 {
        let mut mutated = bytes.clone();
        let i = rng.below(mutated.len() as u64) as usize;
        mutated[i] ^= 1 << rng.below(8);
        let _ = from_bytes::<T>(&mutated);
    }
}

const CASES: usize = 300;

// -------------------------------------------------------------------- tests

#[test]
fn skeap_messages_round_trip_and_survive_fuzz() {
    let mut rng = DetRng::new(1);
    for _ in 0..CASES {
        let msg = skeap_msg(&mut rng);
        check_round_trip(&msg);
        check_mutations(&mut rng, &msg);
        let inner = skeap_msg(&mut rng);
        let wrapped = reliable(&mut rng, inner);
        check_round_trip(&wrapped);
        check_mutations(&mut rng, &wrapped);
    }
    check_no_panic::<SkeapMsg>(&mut rng, 2000);
    check_no_panic::<ReliableMsg<SkeapMsg>>(&mut rng, 2000);
}

#[test]
fn seap_messages_round_trip_and_survive_fuzz() {
    let mut rng = DetRng::new(2);
    for _ in 0..CASES {
        let msg = seap_msg(&mut rng);
        check_round_trip(&msg);
        check_mutations(&mut rng, &msg);
        let inner = seap_msg(&mut rng);
        let wrapped = reliable(&mut rng, inner);
        check_round_trip(&wrapped);
        check_mutations(&mut rng, &wrapped);
    }
    check_no_panic::<SeapMsg>(&mut rng, 2000);
    check_no_panic::<ReliableMsg<SeapMsg>>(&mut rng, 2000);
}

#[test]
fn kselect_messages_round_trip_and_survive_fuzz() {
    let mut rng = DetRng::new(3);
    for _ in 0..CASES {
        let msg = kmsg(&mut rng);
        check_round_trip(&msg);
        check_mutations(&mut rng, &msg);
        let inner = kmsg(&mut rng);
        let wrapped = reliable(&mut rng, inner);
        check_round_trip(&wrapped);
        check_mutations(&mut rng, &wrapped);
    }
    check_no_panic::<KMsg>(&mut rng, 2000);
    check_no_panic::<ReliableMsg<KMsg>>(&mut rng, 2000);
}

#[test]
fn gossip_messages_round_trip_and_survive_fuzz() {
    let mut rng = DetRng::new(5);
    for _ in 0..CASES {
        let msg = gossip_msg(&mut rng);
        check_round_trip(&msg);
        check_mutations(&mut rng, &msg);
    }
    check_no_panic::<GossipMsg>(&mut rng, 2000);
}

#[test]
fn control_and_wal_messages_round_trip_and_survive_fuzz() {
    let mut rng = DetRng::new(4);
    for _ in 0..CASES {
        let req = match rng.below(6) {
            0 => CtlReq::Status,
            1 => CtlReq::Enqueue {
                prio: rng.below(1 << 20),
                payload: rng.next_u64_inline(),
            },
            2 => CtlReq::Dequeue,
            3 => CtlReq::Dump,
            4 => CtlReq::Metrics,
            _ => CtlReq::Shutdown,
        };
        check_round_trip(&req);
        check_mutations(&mut rng, &req);

        let resp = match rng.below(6) {
            0 => CtlResp::Status(StatusInfo {
                node: rng.below(64),
                proto: "skeap".into(),
                issued: rng.below(1000),
                completed: rng.below(1000),
                all_complete: rng.chance(0.5),
                result: rng.chance(0.5).then(|| key(&mut rng)),
                ticks: rng.next_u64_inline(),
                retransmits: rng.below(100),
                dup_suppressed: rng.below(100),
                unacked: rng.below(100),
            }),
            1 => CtlResp::Issued {
                node: rng.below(64),
                seq: rng.below(1000),
            },
            2 => CtlResp::Dumped {
                records: rng.below(1000),
            },
            3 => CtlResp::Metrics("dpq_reliable_sent 12\n".into()),
            4 => CtlResp::Error("broken".into()),
            _ => CtlResp::Bye,
        };
        check_round_trip(&resp);
        check_mutations(&mut rng, &resp);

        let entry = match rng.below(3) {
            0 => WalEntry::Activate {
                now: rng.next_u64_inline(),
            },
            1 => WalEntry::Deliver {
                now: rng.next_u64_inline(),
                from: rng.below(64),
                frame: RawBytes((0..rng.below(32)).map(|_| rng.below(256) as u8).collect()),
            },
            _ => WalEntry::CtlOp {
                now: rng.next_u64_inline(),
                op: if rng.chance(0.5) {
                    CtlOpKind::Insert {
                        prio: rng.below(1 << 20),
                        payload: rng.next_u64_inline(),
                    }
                } else {
                    CtlOpKind::DeleteMin
                },
            },
        };
        check_round_trip(&entry);
        check_mutations(&mut rng, &entry);
    }
    check_no_panic::<CtlReq>(&mut rng, 2000);
    check_no_panic::<CtlResp>(&mut rng, 2000);
    check_no_panic::<WalEntry>(&mut rng, 2000);
}

/// A forged header declaring a huge collection must error before allocating
/// anything near the declared size — the `seq_len` guard in the reader.
#[test]
fn forged_collection_lengths_error_before_allocation() {
    // SkeapMsg::Down with assigns-count forged to u64::MAX.
    let mut bytes = vec![1u8]; // Down tag
    bytes.push(0); // cycle = 0
    bytes.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
    assert!(from_bytes::<SkeapMsg>(&bytes).is_err());

    // A Batch whose entry count exceeds the remaining bytes.
    let mut bytes = vec![0u8]; // BatchUp tag
    bytes.push(0); // cycle
    bytes.push(2); // n_prios
    bytes.push(200); // 200 entries declared, 0 bytes follow
    assert!(from_bytes::<SkeapMsg>(&bytes).is_err());
}
